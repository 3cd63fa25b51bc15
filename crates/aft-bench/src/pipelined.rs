//! `fig2_pipelined`: what does pipelining storage I/O buy per backend?
//!
//! The paper's Figure 2 decomposes a request's I/O cost; this experiment
//! asks the follow-up question the I/O-engine refactor answers: for a
//! multi-key transaction, how much commit and read latency does overlapping
//! the storage round trips recover, per backend profile?
//!
//! Two legs per backend, identical workload:
//!
//! * **sequential** — storage wrapped in
//!   [`SequentialEngine`](aft_storage::SequentialEngine) (per-key API calls,
//!   full round-trip charging) and a node with
//!   [`IoConfig::sequential()`](aft_storage::IoConfig::sequential): an
//!   N-key commit pays N+1 round trips back to back — the historical
//!   implementation.
//! * **pipelined** — the plain simulator and
//!   [`IoConfig::pipelined()`](aft_storage::IoConfig::pipelined): the commit
//!   flush overlaps the N data puts, barriers, then appends the record
//!   (§3.3's ordering preserved), and multi-key reads overlap their fallback
//!   fetches.
//!
//! The experiment runs in `LatencyMode::Virtual` at full scale by default:
//! nothing sleeps, and latency is read from the node's per-commit/per-read
//! charge recorders — the per-batch overlap accounting the virtual clock
//! keeps (a concurrent batch charges the max of its samples, not the sum).
//! Results are written as `BENCH_pipelined.json`; `check_gate` fails if any
//! backend's pipelined p50 commit latency regresses past its sequential
//! p50, which CI enforces.

use aft_core::{AftNode, BatchConfig, NodeConfig};
use aft_storage::{
    BackendConfig, BackendKind, IoConfig, LatencyMode, SequentialEngine, SharedStorage,
};
use aft_types::clock::TickingClock;
use aft_types::{payload_of_size, Key};

use crate::json::Json;
use crate::report::Table;

/// Configuration of the pipelining experiment.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Backends to measure (the paper's three evaluated services).
    pub backends: Vec<BackendKind>,
    /// Committed transactions per leg.
    pub commits: usize,
    /// Read-only transactions per leg (each a `get_all` over one group).
    pub reads: usize,
    /// Keys written per transaction (the ISSUE's 8-key shape).
    pub keys_per_txn: usize,
    /// Value payload size in bytes.
    pub value_size: usize,
    /// Latency scale factor (1.0 = full calibrated scale; virtual clock
    /// makes that free).
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl PipelineConfig {
    /// The full experiment: 200 commits/reads per leg, 8-key transactions.
    pub fn standard() -> Self {
        PipelineConfig {
            backends: BackendKind::EVALUATED.to_vec(),
            commits: 200,
            reads: 200,
            keys_per_txn: 8,
            value_size: 256,
            scale: 1.0,
            seed: 0xF162,
        }
    }

    /// A sub-minute configuration for CI (virtual clock makes even the
    /// standard one fast; this trims sample counts further).
    pub fn fast() -> Self {
        PipelineConfig {
            commits: 80,
            reads: 80,
            ..Self::standard()
        }
    }
}

/// One measured leg: a backend × I/O mode.
#[derive(Debug, Clone)]
pub struct PipelinePoint {
    /// Backend label ("S3", "DynamoDB", "Redis").
    pub backend: String,
    /// "sequential" or "pipelined".
    pub mode: String,
    /// Median simulated storage latency per commit flush, milliseconds.
    pub p50_commit_ms: f64,
    /// 99th-percentile commit flush latency, milliseconds.
    pub p99_commit_ms: f64,
    /// Median simulated storage latency per multi-key read, milliseconds.
    pub p50_read_ms: f64,
    /// Total storage API calls the leg issued.
    pub api_calls: u64,
}

/// The experiment's results.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Every measured leg, sequential before pipelined per backend.
    pub points: Vec<PipelinePoint>,
}

impl PipelineReport {
    /// The point for (`backend`, `mode`), if measured.
    pub fn point(&self, backend: &str, mode: &str) -> Option<&PipelinePoint> {
        self.points
            .iter()
            .find(|p| p.backend == backend && p.mode == mode)
    }

    /// Sequential-over-pipelined p50 commit speedup for one backend
    /// (>1 means pipelining helps).
    pub fn commit_speedup(&self, backend: &str) -> f64 {
        let seq = self
            .point(backend, "sequential")
            .map_or(0.0, |p| p.p50_commit_ms);
        let pipe = self
            .point(backend, "pipelined")
            .map_or(0.0, |p| p.p50_commit_ms);
        if pipe <= 0.0 {
            0.0
        } else {
            seq / pipe
        }
    }

    /// Sequential-over-pipelined p50 read speedup for one backend.
    pub fn read_speedup(&self, backend: &str) -> f64 {
        let seq = self
            .point(backend, "sequential")
            .map_or(0.0, |p| p.p50_read_ms);
        let pipe = self
            .point(backend, "pipelined")
            .map_or(0.0, |p| p.p50_read_ms);
        if pipe <= 0.0 {
            0.0
        } else {
            seq / pipe
        }
    }

    /// The backends measured, in order.
    pub fn backends(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for p in &self.points {
            if !seen.contains(&p.backend) {
                seen.push(p.backend.clone());
            }
        }
        seen
    }

    /// The CI gate: for every backend, pipelined p50 commit latency must not
    /// regress past sequential (small tolerance for sampling noise). Returns
    /// a summary on success, the failure description otherwise.
    pub fn check_gate(&self) -> Result<String, String> {
        let mut summaries = Vec::new();
        for backend in self.backends() {
            let seq = self
                .point(&backend, "sequential")
                .ok_or_else(|| format!("{backend}: missing sequential leg"))?;
            let pipe = self
                .point(&backend, "pipelined")
                .ok_or_else(|| format!("{backend}: missing pipelined leg"))?;
            if pipe.p50_commit_ms > seq.p50_commit_ms * 1.05 {
                return Err(format!(
                    "{backend}: pipelined p50 commit {:.3} ms regressed past \
                     sequential {:.3} ms",
                    pipe.p50_commit_ms, seq.p50_commit_ms
                ));
            }
            summaries.push(format!("{backend} {:.2}x", self.commit_speedup(&backend)));
        }
        Ok(format!(
            "pipelined p50 commit latency within bounds (speedups: {})",
            summaries.join(", ")
        ))
    }

    /// Renders the experiment as an aligned text table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "fig2_pipelined — sequential vs pipelined storage I/O per backend",
            &[
                "backend",
                "mode",
                "p50 commit (ms)",
                "p99 commit (ms)",
                "p50 read (ms)",
                "API calls",
            ],
        );
        for p in &self.points {
            table.add_row(vec![
                p.backend.clone(),
                p.mode.clone(),
                format!("{:.3}", p.p50_commit_ms),
                format!("{:.3}", p.p99_commit_ms),
                format!("{:.3}", p.p50_read_ms),
                p.api_calls.to_string(),
            ]);
        }
        table
    }

    /// Serialises the report as the `BENCH_pipelined.json` document.
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("backend", Json::str(&p.backend)),
                    ("mode", Json::str(&p.mode)),
                    ("p50_commit_ms", Json::Num(round4(p.p50_commit_ms))),
                    ("p99_commit_ms", Json::Num(round4(p.p99_commit_ms))),
                    ("p50_read_ms", Json::Num(round4(p.p50_read_ms))),
                    ("api_calls", Json::Num(p.api_calls as f64)),
                ])
            })
            .collect();
        let speedups = self
            .backends()
            .into_iter()
            .map(|b| {
                let entry = Json::obj(vec![
                    ("commit", Json::Num(round4(self.commit_speedup(&b)))),
                    ("read", Json::Num(round4(self.read_speedup(&b)))),
                ]);
                (b, entry)
            })
            .collect::<Vec<_>>();
        Json::obj(vec![
            ("experiment", Json::str("fig2_pipelined")),
            ("summary", Json::Obj(speedups)),
            ("points", Json::Arr(points)),
        ])
    }
}

fn round4(v: f64) -> f64 {
    (v * 10_000.0).round() / 10_000.0
}

/// Runs one leg: `commits` multi-key writes then `reads` multi-key reads
/// against a fresh backend, returning the measured point.
fn run_leg(kind: BackendKind, pipelined: bool, config: &PipelineConfig) -> PipelinePoint {
    let backend_config = BackendConfig {
        kind,
        mode: LatencyMode::Virtual,
        scale: config.scale,
        seed: config.seed ^ kind.label().len() as u64,
        redis_shards: aft_storage::redis::DEFAULT_REDIS_SHARDS,
        stripes: aft_storage::DEFAULT_STRIPES,
    };
    let raw = aft_storage::make_backend(backend_config);
    let storage: SharedStorage = if pipelined {
        raw
    } else {
        SequentialEngine::new(raw)
    };
    let node_config = NodeConfig {
        // No data cache: reads must exercise the storage fallback path.
        data_cache_bytes: 0,
        // No coalescing: each commit is exactly one flush, so the recorded
        // per-flush latency is the per-transaction commit latency.
        commit_batch: BatchConfig::disabled(),
        io: if pipelined {
            IoConfig::pipelined()
        } else {
            IoConfig::sequential()
        },
        bootstrap: false,
        rng_seed: config.seed,
        ..NodeConfig::default()
    };
    let node = AftNode::with_clock(node_config, storage, TickingClock::shared(1_000, 1))
        .expect("node construction over a simulated backend");
    let payload = payload_of_size(config.value_size);

    // Key groups: transaction t writes group (t % groups); a read of the
    // same group later observes one transaction's cowritten set.
    let groups = config.commits.clamp(1, 64);
    let group_keys = |g: usize| -> Vec<Key> {
        (0..config.keys_per_txn)
            .map(|i| Key::new(format!("grp{g:02}/k{i}")))
            .collect()
    };

    for t in 0..config.commits {
        let txid = node.start_transaction();
        for key in group_keys(t % groups) {
            node.put(&txid, key, payload.clone()).unwrap();
        }
        node.commit(&txid).unwrap();
    }
    for r in 0..config.reads {
        let txid = node.start_transaction();
        let values = node.get_all(&txid, &group_keys(r % groups)).unwrap();
        assert!(
            values.iter().all(Option::is_some),
            "all groups were written"
        );
        // A read-only commit makes no storage call and records no commit
        // latency, so the commit percentiles stay those of the multi-key
        // commits above.
        node.commit(&txid).unwrap();
    }

    let commit = node.stats().commit_storage_latency();
    let read = node.stats().read_storage_latency();
    PipelinePoint {
        backend: kind.label().to_owned(),
        mode: if pipelined { "pipelined" } else { "sequential" }.to_owned(),
        p50_commit_ms: commit.percentile_ms(0.5).unwrap_or(0.0),
        p99_commit_ms: commit.percentile_ms(0.99).unwrap_or(0.0),
        p50_read_ms: read.percentile_ms(0.5).unwrap_or(0.0),
        api_calls: node.storage().stats().total_calls(),
    }
}

/// Runs the experiment and returns the report.
pub fn fig2_pipelined(config: &PipelineConfig) -> PipelineReport {
    let mut points = Vec::new();
    for &kind in &config.backends {
        points.push(run_leg(kind, false, config));
        points.push(run_leg(kind, true, config));
    }
    PipelineReport { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PipelineConfig {
        PipelineConfig {
            commits: 40,
            reads: 40,
            ..PipelineConfig::standard()
        }
    }

    #[test]
    fn s3_8key_commits_gain_at_least_2x_from_pipelining() {
        // The ISSUE's acceptance number: S3 profile, 8-key transactions,
        // virtual-clock mode, ≥2x lower p50 commit latency pipelined vs
        // sequential. (Expected shape: ~9 sequential round trips vs
        // max-of-8 + 1.)
        let config = PipelineConfig {
            backends: vec![BackendKind::S3],
            ..tiny()
        };
        let report = fig2_pipelined(&config);
        let speedup = report.commit_speedup("S3");
        assert!(
            speedup >= 2.0,
            "S3 pipelined commit speedup must be ≥2x, got {speedup:.2}x\n{:?}",
            report.points
        );
        // Reads overlap too.
        assert!(report.read_speedup("S3") >= 2.0);
        assert!(report.check_gate().is_ok());
    }

    #[test]
    fn every_backend_improves_or_holds() {
        let report = fig2_pipelined(&tiny());
        assert_eq!(report.points.len(), 6, "3 backends x 2 modes");
        for backend in report.backends() {
            let speedup = report.commit_speedup(&backend);
            assert!(
                speedup >= 1.0,
                "{backend}: pipelining must never hurt, got {speedup:.2}x"
            );
        }
        report.check_gate().unwrap();
    }

    #[test]
    fn api_call_counts_match_between_modes() {
        // Pipelining reorders round trips; it must not change how many API
        // calls the backend bills (batch-capable backends excepted — they
        // batch in both modes only when the engine uses their batch API).
        let config = PipelineConfig {
            backends: vec![BackendKind::S3, BackendKind::Redis],
            ..tiny()
        };
        let report = fig2_pipelined(&config);
        for backend in ["S3", "Redis"] {
            let seq = report.point(backend, "sequential").unwrap().api_calls;
            let pipe = report.point(backend, "pipelined").unwrap().api_calls;
            assert_eq!(seq, pipe, "{backend}: same per-key API calls in both modes");
        }
    }

    #[test]
    fn json_document_round_trips() {
        let config = PipelineConfig {
            backends: vec![BackendKind::Redis],
            commits: 10,
            reads: 10,
            ..PipelineConfig::standard()
        };
        let report = fig2_pipelined(&config);
        let text = report.to_json().render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("experiment").unwrap().as_str().unwrap(),
            "fig2_pipelined"
        );
        assert_eq!(parsed.get("points").unwrap().as_array().unwrap().len(), 2);
        assert!(parsed
            .get("summary")
            .and_then(|s| s.get("Redis"))
            .and_then(|r| r.get("commit"))
            .and_then(Json::as_f64)
            .is_some());
    }

    #[test]
    fn table_has_one_row_per_point() {
        let config = PipelineConfig {
            backends: vec![BackendKind::DynamoDb],
            commits: 5,
            reads: 5,
            ..PipelineConfig::standard()
        };
        let report = fig2_pipelined(&config);
        assert_eq!(report.table().len(), report.points.len());
    }
}
