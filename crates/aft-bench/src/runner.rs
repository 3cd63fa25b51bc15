//! The experiment runner behind the `aft-bench` binary.
//!
//! [`EXPERIMENTS`] is the one registry of the evaluation: every experiment
//! name maps to the function that picks its configuration (fast or
//! standard), runs it, prints its tables, and returns its report and gate
//! verdict. The runner parses the shared overrides once, stamps provenance
//! into every report it writes, and turns a failed gate into a non-zero exit
//! with a replay line.
//!
//! ```text
//! aft-bench <experiment>... | all
//!           [--out PATH] [--dir PATH] [--seed N] [--mode LABEL]
//!           [--baseline PATH] [--max-regression PCT] [--skip-gate]
//! aft-bench --summary-only [--dir PATH]
//! ```
//!
//! * `all` — every registered experiment, in registry order, then
//!   `BENCH_summary.json`.
//! * `--out PATH` — report path when exactly one reporting experiment runs
//!   (default `<dir>/BENCH_<name>.json`).
//! * `--dir PATH` — where reports and the summary go (default `.`).
//! * `--seed N` — overrides the base seed of every seeded experiment; a
//!   failing gate prints the seed to replay.
//! * `--mode LABEL` — restricts `fig10_recovery` to one fault mode.
//! * `--baseline PATH` / `--max-regression PCT` — the
//!   `fig7_throughput_scaling` regression gate (default
//!   `BENCH_baseline.json`, 30%).
//! * `--skip-gate` — report without failing on gate violations.
//! * `--summary-only` — only rebuild `BENCH_summary.json` from `--dir`.
//! * `AFT_BENCH_FAST=1` selects the trimmed CI configurations;
//!   `AFT_SERVICE_CONNS=256,512` overrides `fig8_service`'s connection
//!   scale; the paper figures also read `AFT_BENCH_SCALE` and
//!   `AFT_BENCH_REQUESTS` (see [`BenchEnv::from_env`]).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::checkpoint::{fig13_checkpoint, CheckpointBenchConfig};
use crate::dissemination::{fig12_dissemination, DisseminationBenchConfig};
use crate::experiments::{
    fig10_fault_tolerance, fig2_io_latency, fig3_and_table2, fig4_caching_skew, fig5_rw_ratio,
    fig6_txn_length, fig7_single_node, fig8_distributed, fig9_gc,
};
use crate::json::Json;
use crate::overload::{fig11_overload, OverloadConfig};
use crate::pipelined::{fig2_pipelined, PipelineConfig};
use crate::recovery::{fig10_recovery, FaultMode, RecoveryConfig};
use crate::report::Table;
use crate::scaling::{fig7_throughput_scaling, ScalingConfig};
use crate::service::{fig8_service, ServiceConfig};
use crate::setup::BenchEnv;
use crate::summary;

/// The overrides shared by every experiment.
#[derive(Debug, Clone)]
pub struct Options {
    /// Run the trimmed CI configuration (`AFT_BENCH_FAST` is set).
    pub fast: bool,
    /// Base-seed override for seeded experiments.
    pub seed: Option<u64>,
    /// `fig10_recovery`: restrict the matrix to one fault mode.
    pub mode: Option<FaultMode>,
    /// `fig7_throughput_scaling`: the report to gate against.
    pub baseline: PathBuf,
    /// `fig7_throughput_scaling`: allowed throughput regression, in percent.
    pub max_regression_pct: f64,
    /// `fig8_service`: resident-connection counts (`AFT_SERVICE_CONNS`).
    pub service_conns: Option<Vec<usize>>,
}

const DEFAULT_BASELINE: &str = "BENCH_baseline.json";
const DEFAULT_MAX_REGRESSION_PCT: f64 = 30.0;

impl Options {
    fn from_env() -> Result<Self, String> {
        let service_conns = match std::env::var("AFT_SERVICE_CONNS") {
            Ok(conns) => Some(parse_conns(&conns)?),
            Err(_) => None,
        };
        Ok(Options {
            fast: std::env::var("AFT_BENCH_FAST").is_ok(),
            seed: None,
            mode: None,
            baseline: PathBuf::from(DEFAULT_BASELINE),
            max_regression_pct: DEFAULT_MAX_REGRESSION_PCT,
            service_conns,
        })
    }

    fn config<C>(&self, fast: fn() -> C, standard: fn() -> C) -> C {
        if self.fast {
            fast()
        } else {
            standard()
        }
    }

    /// Applies the seed override to `seed` and returns the seed in effect.
    fn seed(&self, seed: &mut u64) -> u64 {
        *seed = self.seed.unwrap_or(*seed);
        *seed
    }
}

/// Parses an `AFT_SERVICE_CONNS` value: a non-empty comma-separated list of
/// connection counts.
fn parse_conns(value: &str) -> Result<Vec<usize>, String> {
    let counts: Result<Vec<usize>, _> = value.split(',').map(|c| c.trim().parse()).collect();
    match counts {
        Ok(counts) if !counts.is_empty() => Ok(counts),
        _ => Err(format!(
            "AFT_SERVICE_CONNS={value:?} is not a list of connection counts"
        )),
    }
}

/// What one experiment run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The machine-readable report, for experiments that write one.
    pub report: Option<Json>,
    /// The gate verdict; `None` for experiments without a gate.
    pub verdict: Option<Result<String, String>>,
    /// The base seed the run used, if the experiment is seeded.
    pub seed: Option<u64>,
}

/// One registered experiment.
#[derive(Debug)]
pub struct Experiment {
    /// The name it is run by.
    pub name: &'static str,
    /// The report file it writes (`BENCH_*.json`), if any.
    pub report: Option<&'static str>,
    /// Runs it and prints its tables.
    pub run: fn(&Options) -> Outcome,
}

/// Every experiment of the evaluation: the paper's figures first (tables
/// only, sized by [`BenchEnv::from_env`]), then the tracked experiments with
/// reports and gates.
pub static EXPERIMENTS: &[Experiment] = &[
    figure("fig2_io_latency", |_| tables([fig2_io_latency(&env())])),
    figure("fig3_table2_e2e", |_| {
        let (latency, anomalies) = fig3_and_table2(&env());
        tables([latency, anomalies])
    }),
    figure("fig4_caching_skew", |_| tables([fig4_caching_skew(&env())])),
    figure("fig5_rw_ratio", |_| tables([fig5_rw_ratio(&env())])),
    figure("fig6_txn_length", |_| tables([fig6_txn_length(&env())])),
    figure("fig7_single_node", |_| tables([fig7_single_node(&env())])),
    figure("fig8_distributed", |_| tables([fig8_distributed(&env())])),
    figure("fig9_gc", |_| tables([fig9_gc(&env())])),
    figure("fig10_fault_tolerance", |_| {
        tables([fig10_fault_tolerance(&env())])
    }),
    tracked("fig2_pipelined", "BENCH_pipelined.json", run_pipelined),
    tracked(
        "fig7_throughput_scaling",
        "BENCH_throughput.json",
        run_scaling,
    ),
    tracked("fig8_service", "BENCH_service.json", run_service),
    tracked("fig10_recovery", "BENCH_recovery.json", run_recovery),
    tracked("fig11_overload", "BENCH_overload.json", run_overload),
    tracked(
        "fig12_dissemination",
        "BENCH_dissemination.json",
        run_dissemination,
    ),
    tracked("fig13_checkpoint", "BENCH_checkpoint.json", run_checkpoint),
];

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

const fn figure(name: &'static str, run: fn(&Options) -> Outcome) -> Experiment {
    Experiment {
        name,
        report: None,
        run,
    }
}

const fn tracked(
    name: &'static str,
    report: &'static str,
    run: fn(&Options) -> Outcome,
) -> Experiment {
    Experiment {
        name,
        report: Some(report),
        run,
    }
}

fn env() -> BenchEnv {
    BenchEnv::from_env()
}

fn tables<const N: usize>(printed: [Table; N]) -> Outcome {
    for table in printed {
        table.print();
    }
    Outcome::default()
}

fn gated(report: Json, verdict: Result<String, String>, seed: u64) -> Outcome {
    Outcome {
        report: Some(report),
        verdict: Some(verdict),
        seed: Some(seed),
    }
}

/// Sequential vs pipelined storage I/O per backend profile (virtual clock).
fn run_pipelined(options: &Options) -> Outcome {
    let mut config = options.config(PipelineConfig::fast, PipelineConfig::standard);
    let seed = options.seed(&mut config.seed);
    println!(
        "{} commits + {} reads per leg, {}-key transactions, virtual clock\n",
        config.commits, config.reads, config.keys_per_txn
    );
    let report = fig2_pipelined(&config);
    report.table().print();
    for backend in report.backends() {
        println!(
            "{backend}: commit p50 speedup {:.2}x, read p50 speedup {:.2}x",
            report.commit_speedup(&backend),
            report.read_speedup(&backend)
        );
    }
    gated(report.to_json(), report.check_gate(), seed)
}

/// Clients x stripes x commit batching over the memory backend, gated
/// against the baseline report.
fn run_scaling(options: &Options) -> Outcome {
    let mut config = options.config(ScalingConfig::fast, ScalingConfig::standard);
    let seed = options.seed(&mut config.seed);
    println!(
        "clients {:?}, {} requests/client\n",
        config.client_counts, config.requests_per_client
    );
    let report = fig7_throughput_scaling(&config);
    report.table().print();
    println!(
        "summary: single-client {:.0} ops/s, multi-client speedup {:.2}x, {} anomalies",
        report.single_client_ops(),
        report.multi_client_speedup(),
        report.total_anomalies()
    );
    let path = &options.baseline;
    let verdict = std::fs::read_to_string(path)
        .map_err(|e| format!("failed to read baseline {}: {e}", path.display()))
        .and_then(|text| {
            Json::parse(&text)
                .map_err(|e| format!("failed to parse baseline {}: {e}", path.display()))
        })
        .and_then(|baseline| {
            report.check_against_baseline(&baseline, options.max_regression_pct / 100.0)
        });
    gated(report.to_json(), verdict, seed)
}

/// The loopback service sweep: client sweep, chaos leg, connection scale.
fn run_service(options: &Options) -> Outcome {
    let mut config = options.config(ServiceConfig::fast, ServiceConfig::standard);
    let seed = options.seed(&mut config.seed);
    if let Some(conns) = &options.service_conns {
        config.conn_counts = conns.clone();
    }
    println!(
        "{} nodes, {} workers, clients {:?}, {} requests/client, chaos reset rate {:.0}%, \
         connection scale {:?}\n",
        config.nodes,
        config.workers,
        config.client_counts,
        config.requests_per_client,
        config.reset_rate * 100.0,
        config.conn_counts,
    );
    let report = fig8_service(&config);
    report.table().print();
    report.conn_table().print();
    gated(report.to_json(), report.check_gate(), seed)
}

/// The chaos matrix: fault modes x commit-phase kills x backends.
fn run_recovery(options: &Options) -> Outcome {
    let mut config = options.config(RecoveryConfig::fast, RecoveryConfig::standard);
    let seed = options.seed(&mut config.seed);
    if let Some(mode) = options.mode {
        config.fault_modes = vec![mode];
    }
    println!(
        "seed {:#x}: {} cells x {} trials, {} requests/trial over {} clients, \
         {}-node clusters, virtual clock\n",
        config.seed,
        config.cells(),
        config.trials,
        config.requests_per_trial,
        config.clients,
        config.nodes
    );
    let report = fig10_recovery(&config);
    report.table().print();
    // A single-mode replay cannot satisfy the full gate's matrix-coverage
    // clause; its cells' correctness invariants still gate.
    let verdict = if options.mode.is_some() {
        report.check_gate_cells()
    } else {
        report.check_gate()
    };
    gated(report.to_json(), verdict, seed)
}

/// Offered load past measured capacity against the overload protections.
fn run_overload(options: &Options) -> Outcome {
    let mut config = options.config(OverloadConfig::fast, OverloadConfig::standard);
    let seed = options.seed(&mut config.seed);
    println!(
        "seed {:#x}: multipliers {:?} over a {}-node / {}-worker deployment, admission \
         limit {}, queue deadline {:?}, {:?} per point\n",
        config.seed,
        config.multipliers,
        config.nodes,
        config.workers,
        config.admission_limit,
        config.queue_deadline,
        config.point_duration
    );
    let report = fig11_overload(&config);
    report.table().print();
    gated(report.to_json(), report.check_gate(), seed)
}

/// Cluster size x dissemination topology, plus partition-chaos legs.
fn run_dissemination(options: &Options) -> Outcome {
    let mut config = options.config(
        DisseminationBenchConfig::fast,
        DisseminationBenchConfig::standard,
    );
    let seed = options.seed(&mut config.seed);
    println!(
        "seed {:#x}: sizes {:?} x {} topologies, {} rounds x {} commits/round, partition \
         legs at {} nodes, virtual clock\n",
        config.seed,
        config.node_counts,
        config.topologies.len(),
        config.rounds,
        config.commits_per_round,
        config.partition_nodes
    );
    let report = fig12_dissemination(&config);
    report.table().print();
    report.partition_table().print();
    gated(report.to_json(), report.check_gate(), seed)
}

/// Recovery cost: full replay vs checkpoint + tail across history sizes.
fn run_checkpoint(options: &Options) -> Outcome {
    let mut config = options.config(CheckpointBenchConfig::fast, CheckpointBenchConfig::standard);
    let seed = options.seed(&mut config.seed);
    println!(
        "seed {:#x}: {} backends x {:?} commits, {} live keys, {}-commit tail, {} trials/cell, \
         virtual clock\n",
        config.seed,
        config.backends.len(),
        config.sizes,
        config.keys,
        config.tail,
        config.trials
    );
    let report = fig13_checkpoint(&config);
    report.table().print();
    gated(report.to_json(), report.check_gate(), seed)
}

const USAGE: &str = "usage: aft-bench <experiment>... | all [--out PATH] [--dir PATH] [--seed N]
                 [--mode LABEL] [--baseline PATH] [--max-regression PCT] [--skip-gate]
       aft-bench --summary-only [--dir PATH]";

/// The parsed command line.
#[derive(Debug)]
struct Cli {
    selected: Vec<&'static Experiment>,
    all: bool,
    summary_only: bool,
    gate: bool,
    out: Option<PathBuf>,
    dir: PathBuf,
    options: Options,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            selected: Vec::new(),
            all: false,
            summary_only: false,
            gate: true,
            out: None,
            dir: PathBuf::from("."),
            options: Options::from_env()?,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or(format!("missing value for {arg}"));
            match arg.as_str() {
                "all" => {
                    cli.all = true;
                    cli.selected = EXPERIMENTS.iter().collect();
                }
                "--out" => cli.out = Some(PathBuf::from(value()?)),
                "--dir" => cli.dir = PathBuf::from(value()?),
                "--seed" => {
                    let seed = value()?
                        .parse()
                        .map_err(|e| format!("invalid --seed: {e}"))?;
                    cli.options.seed = Some(seed);
                }
                "--mode" => {
                    let label = value()?;
                    let mode = FaultMode::from_label(label).ok_or_else(|| {
                        let labels = FaultMode::ALL.map(|m| m.label()).join(", ");
                        format!("unknown --mode {label}; one of: {labels}")
                    })?;
                    cli.options.mode = Some(mode);
                }
                "--baseline" => cli.options.baseline = PathBuf::from(value()?),
                "--max-regression" => {
                    cli.options.max_regression_pct = value()?
                        .parse()
                        .map_err(|e| format!("invalid --max-regression: {e}"))?;
                }
                "--skip-gate" => cli.gate = false,
                "--summary-only" => cli.summary_only = true,
                name if !name.starts_with('-') && !cli.all => {
                    let experiment =
                        find(name).ok_or_else(|| format!("unknown experiment {name}"))?;
                    cli.selected.push(experiment);
                }
                other => return Err(format!("unexpected argument {other}")),
            }
        }
        if cli.selected.is_empty() != cli.summary_only {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            return Err(format!(
                "name experiments or `all`, or pass --summary-only alone; experiments: {}",
                names.join(", ")
            ));
        }
        let one_report = matches!(cli.selected[..], [e] if e.report.is_some());
        if cli.out.is_some() && !one_report {
            return Err("--out needs exactly one experiment that writes a report".to_owned());
        }
        if cli.options.mode.is_some() && cli.selected.iter().any(|e| e.name != "fig10_recovery") {
            return Err("--mode applies only to fig10_recovery".to_owned());
        }
        Ok(cli)
    }
}

/// Runs the experiments `args` name; the `aft-bench` binary's entry point.
pub fn main(args: &[String]) -> ExitCode {
    let cli = match Cli::parse(args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fast = cli.options.fast;
    // Taken once, before this run writes any (tracked) report.
    let git_rev = git_rev();
    let mut failed = false;
    let mut verdicts = Vec::new();
    for experiment in &cli.selected {
        println!("== aft-bench {} (fast={fast}) ==\n", experiment.name);
        let outcome = (experiment.run)(&cli.options);
        if let (Some(file), Some(report)) = (experiment.report, outcome.report) {
            let path = cli.out.clone().unwrap_or_else(|| cli.dir.join(file));
            let report = with_provenance(report, &git_rev, fast, outcome.seed);
            if let Err(e) = std::fs::write(&path, report.render()) {
                eprintln!("failed to write {}: {e}", path.display());
                failed = true;
            } else {
                println!("wrote {}", path.display());
            }
        }
        if let (true, Some(verdict)) = (cli.gate, outcome.verdict) {
            verdicts.push((experiment.name, verdict, outcome.seed));
        }
    }
    if cli.all || cli.summary_only {
        match summary::aggregate_bench_reports(&cli.dir) {
            Ok(sources) => {
                summary::trajectory_table(&sources).print();
                let path = cli.dir.join("BENCH_summary.json");
                println!("wrote {} ({} reports)", path.display(), sources.len());
            }
            Err(e) => {
                eprintln!("failed to aggregate bench reports: {e}");
                failed = true;
            }
        }
    }
    for (name, verdict, seed) in verdicts {
        match verdict {
            Ok(message) => println!("gate OK [{name}]: {message}"),
            Err(message) => {
                failed = true;
                eprintln!(
                    "gate FAILED [{name}]: {message}\nreplay locally with: {}",
                    replay_line(name, seed, &cli.options)
                );
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The command that reruns one experiment with this run's inputs: the
/// environment and flags that experiment reads.
fn replay_line(name: &str, seed: Option<u64>, options: &Options) -> String {
    let mut line = String::new();
    // Fast mode is detected by the variable's presence, so a full-matrix
    // replay must leave it unset entirely.
    if options.fast {
        line.push_str("AFT_BENCH_FAST=1 ");
    }
    if let (Some(conns), "fig8_service") = (&options.service_conns, name) {
        let conns: Vec<String> = conns.iter().map(usize::to_string).collect();
        line.push_str(&format!("AFT_SERVICE_CONNS={} ", conns.join(",")));
    }
    line.push_str(&format!("aft-bench {name}"));
    if let Some(seed) = seed {
        line.push_str(&format!(" --seed {seed}"));
    }
    if let Some(mode) = options.mode {
        line.push_str(&format!(" --mode {}", mode.label()));
    }
    if name == "fig7_throughput_scaling" {
        if options.baseline != Path::new(DEFAULT_BASELINE) {
            line.push_str(&format!(" --baseline {}", options.baseline.display()));
        }
        if options.max_regression_pct != DEFAULT_MAX_REGRESSION_PCT {
            line.push_str(&format!(" --max-regression {}", options.max_regression_pct));
        }
    }
    line
}

/// Returns `report` with a `provenance` object right after its `experiment`
/// name: the source revision, the cores it ran on, fast or standard, and
/// the base seed.
fn with_provenance(report: Json, git_rev: &str, fast: bool, seed: Option<u64>) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let provenance = Json::obj(vec![
        ("git_rev", Json::str(git_rev)),
        ("nproc", Json::Num(nproc as f64)),
        ("fast", Json::Bool(fast)),
        ("seed", seed.map_or(Json::Null, |s| Json::Num(s as f64))),
    ]);
    let Json::Obj(mut pairs) = report else {
        return report;
    };
    let at = pairs
        .iter()
        .position(|(key, _)| key == "experiment")
        .map_or(0, |i| i + 1);
    pairs.insert(at, ("provenance".to_owned(), provenance));
    Json::Obj(pairs)
}

/// The checked-out revision, `-dirty` when the tree has local edits.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |rev| rev.trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn names_are_unique_and_find_round_trips() {
        for (i, experiment) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|e| e.name != experiment.name),
                "duplicate name {}",
                experiment.name
            );
            let found = find(experiment.name).expect("registered name is found");
            assert!(std::ptr::eq(found, experiment));
        }
        assert!(find("run_all").is_none());
    }

    #[test]
    fn every_report_is_a_unique_bench_file() {
        let reports: Vec<&str> = EXPERIMENTS.iter().filter_map(|e| e.report).collect();
        for (i, file) in reports.iter().enumerate() {
            assert!(
                file.starts_with("BENCH_") && file.ends_with(".json"),
                "{file}"
            );
            assert_ne!(*file, "BENCH_summary.json");
            assert!(!reports[..i].contains(file), "{file} written twice");
        }
    }

    #[test]
    fn all_covers_every_experiment() {
        let cli = parse(&["all"]).unwrap();
        assert!(cli.all);
        let selected: Vec<&str> = cli.selected.iter().map(|e| e.name).collect();
        let registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(selected, registered);
        assert_eq!(registered.len(), 16);
    }

    #[test]
    fn ambiguous_command_lines_are_rejected() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["fig99"]).is_err());
        assert!(parse(&["--summary-only", "fig9_gc"]).is_err());
        assert!(parse(&["all", "--out", "x.json"]).is_err());
        assert!(parse(&["fig9_gc", "--out", "x.json"]).is_err());
        assert!(parse(&["fig11_overload", "--mode", "partition"]).is_err());
        assert!(parse(&["fig10_recovery", "--mode", "nope"]).is_err());
        assert!(parse(&["fig10_recovery", "--seed"]).is_err());

        let cli = parse(&["fig10_recovery", "--mode", "cross_layer", "--seed", "7"]).unwrap();
        assert_eq!(cli.options.seed, Some(7));
        assert_eq!(
            replay_line("fig10_recovery", Some(7), &cli.options)
                .trim_start_matches("AFT_BENCH_FAST=1 "),
            "aft-bench fig10_recovery --seed 7 --mode cross_layer"
        );
        let cli = parse(&[
            "fig7_throughput_scaling",
            "--max-regression",
            "30",
            "--skip-gate",
        ])
        .unwrap();
        assert_eq!(cli.options.max_regression_pct, 30.0);
        assert!(!cli.gate);
    }

    #[test]
    fn service_conns_parse_or_fail_the_command_line() {
        assert_eq!(parse_conns("256,512"), Ok(vec![256, 512]));
        assert_eq!(parse_conns(" 64 "), Ok(vec![64]));
        for bad in ["", "256,", "many", "-1"] {
            assert!(parse_conns(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn replay_lines_carry_the_inputs_the_experiment_reads() {
        let options = Options {
            fast: true,
            seed: None,
            mode: None,
            baseline: PathBuf::from("old/BENCH_baseline.json"),
            max_regression_pct: 20.0,
            service_conns: Some(vec![256, 512]),
        };
        assert_eq!(
            replay_line("fig8_service", Some(3), &options),
            "AFT_BENCH_FAST=1 AFT_SERVICE_CONNS=256,512 aft-bench fig8_service --seed 3"
        );
        assert_eq!(
            replay_line("fig7_throughput_scaling", Some(1), &options),
            "AFT_BENCH_FAST=1 aft-bench fig7_throughput_scaling --seed 1 \
             --baseline old/BENCH_baseline.json --max-regression 20"
        );
        let defaults = Options {
            fast: false,
            baseline: PathBuf::from(DEFAULT_BASELINE),
            max_regression_pct: DEFAULT_MAX_REGRESSION_PCT,
            ..options
        };
        assert_eq!(
            replay_line("fig7_throughput_scaling", Some(1), &defaults),
            "aft-bench fig7_throughput_scaling --seed 1"
        );
    }

    #[test]
    fn provenance_follows_the_name_and_stays_out_of_the_summary() {
        let report = Json::parse(r#"{"experiment": "x", "ops": 3}"#).unwrap();
        let stamped = with_provenance(report, "abc123", true, Some(7));
        let Json::Obj(pairs) = &stamped else {
            panic!("report stays an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["experiment", "provenance", "ops"]);
        let provenance = stamped.get("provenance").unwrap();
        assert_eq!(provenance.get("seed").and_then(Json::as_f64), Some(7.0));
        assert_eq!(provenance.get("fast"), Some(&Json::Bool(true)));
        assert_eq!(provenance.get("git_rev"), Some(&Json::str("abc123")));
        assert!(provenance.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);

        let summary = summary::summarize_report("BENCH_x.json", &stamped);
        assert_eq!(summary.metrics, vec![("ops".to_owned(), 3.0)]);
    }
}
