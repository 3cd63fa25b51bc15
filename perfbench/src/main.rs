//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see [`run`] for the four) for `--seconds`, checks the
//! client-observed history, prints every metric by name with its unit, and
//! ends with one JSON line: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The metric lists are the ones in `BENCHMARK.json` at the
//! repository root. Exits non-zero when the history check finds a violation
//! or a metric cannot be measured.

mod history;
mod run;
mod stats;
mod storage;
mod sys;
mod trace;

use std::io::Write;
use std::process::ExitCode;

use run::{Outcome, Workload};

/// End-to-end metrics and their units: printed with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("write_amp", "ratio"),
    ("rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics and their units: printed with `--trace 1`. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("core.get.p50_us", "us"),
    ("core.get.p99_us", "us"),
    ("core.put.p50_us", "us"),
    ("core.commit.p50_us", "us"),
    ("core.commit.p99_us", "us"),
    ("core.ro_commit.p50_us", "us"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.storage_reads_per_txn", "count"),
    ("core.no_valid_version_aborts", "count"),
    ("core.batcher.commits_per_flush", "count"),
    ("io.requests_per_txn", "count"),
    ("io.inline_ratio", "ratio"),
    ("io.deferred_ratio", "ratio"),
    ("io.peak_in_flight", "count"),
    ("io.retries", "count"),
    ("storage.get.calls_per_txn", "count"),
    ("storage.put.calls_per_txn", "count"),
    ("storage.put_batch.calls_per_txn", "count"),
    ("storage.list.calls_per_txn", "count"),
    ("storage.modelled_ms_per_txn", "ms"),
    ("storage.bytes_written_per_txn", "B"),
    ("storage.bytes_read_per_txn", "B"),
    ("storage.cpu_us_per_txn", "us"),
    ("net.get.p50_us", "us"),
    ("net.get.p99_us", "us"),
    ("net.commit.p50_us", "us"),
    ("net.commit.p99_us", "us"),
    ("net.ping.p50_us", "us"),
    ("net.client.requests_per_txn", "count"),
    ("net.client.retries", "count"),
    ("net.server.frames_per_writev", "count"),
    ("net.server.buffer_reuse_ratio", "ratio"),
    ("net.server.bytes_per_txn", "B"),
    ("net.server.shed", "count"),
    ("net.server.errors", "count"),
    ("cluster.dissemination.messages_per_commit", "count"),
    ("cluster.dissemination.bytes_per_commit", "B"),
    ("cluster.dissemination.rounds", "count"),
    ("bootstrap.from_checkpoint", "count"),
    ("bootstrap.from_tail", "count"),
    ("bootstrap.bytes_read", "B"),
    ("bootstrap.storage_calls", "count"),
    ("checkpoint.load.p50_ms", "ms"),
    ("bootstrap.tail.p50_ms", "ms"),
    ("checkpoint.write_s", "s"),
    ("client.txn_self.p50_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A JSON string literal (the names printed here need no escapes but `"`).
fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(|w| w.name()).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    let steal = sys::steal_ticks();
    let outcome = match run::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    // Steal ticks are 1/100 s on every Linux configuration in use.
    let steal_share = (sys::steal_ticks() - steal) as f64
        / 100.0
        / (started.elapsed().as_secs_f64() * sys::nproc() as f64);
    report(&args, outcome, steal_share)
}

fn report(args: &Args, outcome: Outcome, steal_share: f64) -> ExitCode {
    let provenance = format!(
        "{{\"workload\":{},\"rev\":{},\"nproc\":{},\"seed\":{},\"seconds\":{},\"traced\":{},\"clients\":{},\"host_steal_share\":{steal_share:.4}}}",
        quoted(args.workload.name()),
        quoted(&sys::source_revision()),
        sys::nproc(),
        args.seed,
        args.seconds,
        args.trace,
        run::CLIENTS,
    );
    println!("provenance {provenance}");
    for m in &outcome.metrics {
        let n = m.samples.map(|n| format!(" (n={n})")).unwrap_or_default();
        println!("metric {} {} {}{n}", m.name, m.value, m.unit);
    }
    let anomalies = outcome.violations.total();
    println!("metric anomalies {anomalies} count");
    println!("violations {:?}", outcome.violations);
    if args.trace {
        if let Err(e) = write_traces(args, &outcome) {
            eprintln!("perfbench: writing the trace failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    let mut unmeasured = Vec::new();
    for &(name, unit) in wanted {
        let value = match outcome.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() => m.value,
            Some(m) => {
                eprintln!("perfbench: {name} is not finite ({})", m.value);
                return ExitCode::FAILURE;
            }
            None if args.trace => {
                unmeasured.push(name);
                0.0
            }
            None => {
                eprintln!("perfbench: {name} could not be measured (too few samples?)");
                return ExitCode::FAILURE;
            }
        };
        fields.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            quoted(name),
            quoted(unit)
        ));
    }
    if outcome.attempted == 0 {
        eprintln!("perfbench: no operation was attempted");
        return ExitCode::FAILURE;
    }
    if !unmeasured.is_empty() {
        println!(
            "not exercised by {} (reported as 0): {}",
            args.workload.name(),
            unmeasured.join(" ")
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        anomalies == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(",")
    );
    if anomalies == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: the history check found {anomalies} violations");
        ExitCode::FAILURE
    }
}

/// Writes the traced windows' spans to `.bench_out/trace-<workload>.tsv`.
fn write_traces(args: &Args, outcome: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/trace-{}.tsv", args.workload.name());
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "thread\tname\ttxn\tparent\tstart_ns\tend_ns")?;
    for (thread, trace) in outcome.traces.iter().enumerate() {
        trace.write_tsv(thread, &mut out)?;
    }
    out.flush()?;
    println!("trace written to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists printed here are the ones `BENCHMARK.json` names.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).unwrap();
            let rest = &json[start..];
            rest[..rest.find(']').unwrap()].to_owned()
        };
        let count = |s: &str| s.matches("\"name\"").count();
        let e2e = section("end_to_end");
        assert_eq!(count(&e2e), END_TO_END.len());
        for (name, unit) in END_TO_END {
            assert!(
                e2e.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        let layers = section("per_layer");
        assert_eq!(count(&layers), PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            assert!(
                layers.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
    }
}
