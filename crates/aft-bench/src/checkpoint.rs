//! `fig13_checkpoint`: does time-to-recovery stay flat as history grows?
//!
//! The §4.2 fault-manager scan and a replacement node's bootstrap both walk
//! the durable Transaction Commit Set. Without checkpoints that walk is a
//! **full replay** — cost proportional to the entire commit history — so a
//! long-lived deployment recovers slower every day it runs. The checkpoint
//! subsystem ([`aft_storage::checkpoint`]) bounds the walk: a replacement
//! bootstraps from the newest valid checkpoint (a CRC-sealed snapshot of the
//! §4.1-pruned committed-version index) plus only the commit-log **tail**
//! the checkpoint does not cover, and log compaction deletes the covered
//! records outright.
//!
//! This experiment sweeps commit-set size (10k → 1M in the full run) per
//! backend with a *fixed* live key-set and a *fixed* tail, and measures the
//! charged (virtual-clock) recovery cost and bytes-read-at-bootstrap for
//! both strategies. The paper-shaped claim the gate enforces: **recovery
//! cost grows with the tail, not the history** — the checkpoint+tail cost
//! at the largest history stays within 3× of the smallest, while full
//! replay grows roughly linearly with history — with zero lost and zero
//! phantom commits versus ground truth at every point. Results land in
//! `BENCH_checkpoint.json`.

use aft_core::bootstrap::warm_metadata_cache_checkpointed;
use aft_core::MetadataCache;
use aft_storage::checkpoint::{compact_log, publish_checkpoint, Checkpoint, CHECKPOINT_KEEP};
use aft_storage::io::{IoConfig, IoEngine, StorageRequest};
use aft_storage::{BackendConfig, BackendKind, LatencyMode, DEFAULT_STRIPES};
use aft_types::codec::encode_commit_record;
use aft_types::{Key, TransactionId, TransactionRecord, Uuid};

use crate::json::Json;
use crate::report::{percentile, Table};

/// Configuration of the checkpoint recovery sweep.
#[derive(Debug, Clone)]
pub struct CheckpointBenchConfig {
    /// Commit-history sizes to sweep (records seeded before the tail).
    pub sizes: Vec<usize>,
    /// Live key-set size — the committed-version index a checkpoint
    /// snapshots is bounded by this, not by history length.
    pub keys: usize,
    /// Commits appended *after* the checkpoint (the tail a bootstrap must
    /// still replay).
    pub tail: usize,
    /// Bootstrap measurements per (backend, size) cell; p50/p99 are over
    /// these.
    pub trials: usize,
    /// Backend profiles to sweep.
    pub backends: Vec<BackendKind>,
    /// Base RNG seed (backend latency sampling).
    pub seed: u64,
}

impl CheckpointBenchConfig {
    /// The full sweep: 10k → 1M commits across the three evaluated
    /// backends.
    pub fn standard() -> Self {
        CheckpointBenchConfig {
            sizes: vec![10_000, 100_000, 1_000_000],
            keys: 512,
            tail: 1_024,
            trials: 3,
            backends: BackendKind::EVALUATED.to_vec(),
            seed: 0xF1613,
        }
    }

    /// The CI configuration: a 2k → 10k sweep on one backend, enough to
    /// show the separation without minutes of seeding.
    pub fn fast() -> Self {
        CheckpointBenchConfig {
            sizes: vec![2_000, 10_000],
            keys: 128,
            tail: 256,
            trials: 2,
            backends: vec![BackendKind::DynamoDb],
            ..CheckpointBenchConfig::standard()
        }
    }
}

/// One bootstrap measurement (one strategy, one trial).
#[derive(Debug, Clone, Copy, Default)]
struct BootstrapSample {
    /// Charged virtual-clock cost, milliseconds.
    cost_ms: f64,
    /// Bytes fetched from storage.
    bytes_read: u64,
    /// Records loaded into the metadata cache.
    loaded: usize,
}

/// One (backend, history size) cell.
#[derive(Debug, Clone)]
pub struct CheckpointCell {
    /// Backend label.
    pub backend: String,
    /// Commit-history size before the tail.
    pub history: usize,
    /// Tail commits appended after the checkpoint.
    pub tail: usize,
    /// Full-replay trials (measured before the checkpoint exists).
    full: Vec<BootstrapSample>,
    /// Checkpoint+tail trials (measured after checkpoint + compaction).
    ckpt: Vec<BootstrapSample>,
    /// Commit records dropped by compaction.
    pub compacted: usize,
    /// Ground-truth commits missing from the checkpoint+tail bootstrap
    /// (neither loaded nor legitimately superseded). Must be zero.
    pub lost: usize,
    /// Bootstrapped records that were never committed. Must be zero.
    pub phantom: usize,
}

fn sample_percentile(
    samples: &[BootstrapSample],
    p: f64,
    f: impl Fn(&BootstrapSample) -> f64,
) -> f64 {
    let mut values: Vec<f64> = samples.iter().map(f).collect();
    values.sort_by(f64::total_cmp);
    percentile(&values, p)
}

impl CheckpointCell {
    /// Median charged full-replay cost, ms.
    pub fn full_p50_ms(&self) -> f64 {
        sample_percentile(&self.full, 0.5, |s| s.cost_ms)
    }

    /// 99th-percentile charged full-replay cost, ms.
    pub fn full_p99_ms(&self) -> f64 {
        sample_percentile(&self.full, 0.99, |s| s.cost_ms)
    }

    /// Median charged checkpoint+tail cost, ms.
    pub fn ckpt_p50_ms(&self) -> f64 {
        sample_percentile(&self.ckpt, 0.5, |s| s.cost_ms)
    }

    /// 99th-percentile charged checkpoint+tail cost, ms.
    pub fn ckpt_p99_ms(&self) -> f64 {
        sample_percentile(&self.ckpt, 0.99, |s| s.cost_ms)
    }

    /// Bytes a full-replay bootstrap read (median trial).
    pub fn full_bytes(&self) -> u64 {
        sample_percentile(&self.full, 0.5, |s| s.bytes_read as f64) as u64
    }

    /// Bytes a checkpoint+tail bootstrap read (median trial).
    pub fn ckpt_bytes(&self) -> u64 {
        sample_percentile(&self.ckpt, 0.5, |s| s.bytes_read as f64) as u64
    }
}

/// The whole sweep's results.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// Every cell, in (backend, history size) order.
    pub cells: Vec<CheckpointCell>,
}

impl CheckpointReport {
    /// Total ground-truth commits lost across the sweep.
    pub fn total_lost(&self) -> usize {
        self.cells.iter().map(|c| c.lost).sum()
    }

    /// Total phantom records across the sweep.
    pub fn total_phantom(&self) -> usize {
        self.cells.iter().map(|c| c.phantom).sum()
    }

    fn backends(&self) -> Vec<&str> {
        let mut labels: Vec<&str> = self.cells.iter().map(|c| c.backend.as_str()).collect();
        labels.dedup();
        labels
    }

    /// The CI gate. Per backend, comparing the largest history to the
    /// smallest:
    ///
    /// * checkpoint+tail recovery p50 grows by at most 3× — recovery cost
    ///   tracks the (fixed) tail, not the history;
    /// * full-replay p50 grows with history: at least `0.2 × size ratio`
    ///   (≥ 20× over the full 100× sweep) and strictly more than the
    ///   checkpoint+tail growth;
    /// * checkpoint+tail reads fewer bytes than full replay at the largest
    ///   history;
    /// * zero lost and zero phantom commits in every cell.
    pub fn check_gate(&self) -> Result<String, String> {
        if self.cells.is_empty() {
            return Err("no cells".into());
        }
        for cell in &self.cells {
            if cell.lost > 0 {
                return Err(format!(
                    "{}/{}: {} ground-truth commits lost by checkpoint+tail bootstrap",
                    cell.backend, cell.history, cell.lost
                ));
            }
            if cell.phantom > 0 {
                return Err(format!(
                    "{}/{}: {} phantom commits after bootstrap",
                    cell.backend, cell.history, cell.phantom
                ));
            }
        }
        for backend in self.backends() {
            let mut cells: Vec<&CheckpointCell> =
                self.cells.iter().filter(|c| c.backend == backend).collect();
            cells.sort_by_key(|c| c.history);
            let (small, large) = match (cells.first(), cells.last()) {
                (Some(s), Some(l)) if s.history < l.history => (*s, *l),
                _ => return Err(format!("{backend}: need at least two history sizes")),
            };
            let size_ratio = large.history as f64 / small.history as f64;
            let ckpt_growth = large.ckpt_p50_ms() / small.ckpt_p50_ms().max(1e-9);
            let full_growth = large.full_p50_ms() / small.full_p50_ms().max(1e-9);
            if ckpt_growth > 3.0 {
                return Err(format!(
                    "{backend}: checkpoint+tail recovery p50 grew {ckpt_growth:.1}x over a \
                     {size_ratio:.0}x history sweep (limit 3x) — recovery cost must track \
                     the tail, not the history"
                ));
            }
            let full_floor = 0.2 * size_ratio;
            if full_growth < full_floor {
                return Err(format!(
                    "{backend}: full-replay p50 grew only {full_growth:.1}x over a \
                     {size_ratio:.0}x sweep (expected >= {full_floor:.1}x) — the baseline \
                     is not history-bound, so the comparison is meaningless"
                ));
            }
            if full_growth <= ckpt_growth {
                return Err(format!(
                    "{backend}: full replay ({full_growth:.1}x) did not outgrow \
                     checkpoint+tail ({ckpt_growth:.1}x)"
                ));
            }
            if large.ckpt_bytes() >= large.full_bytes() {
                return Err(format!(
                    "{backend}: checkpoint+tail read {} bytes at {} commits, full replay {}",
                    large.ckpt_bytes(),
                    large.history,
                    large.full_bytes()
                ));
            }
        }
        let largest = self.cells.iter().map(|c| c.history).max().unwrap_or(0);
        Ok(format!(
            "{} cells clean to {largest} commits: checkpoint+tail recovery flat \
             (<= 3x growth), full replay history-bound, 0 lost, 0 phantom",
            self.cells.len()
        ))
    }

    /// Renders the sweep as an aligned text table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "fig13_checkpoint — recovery cost: full replay vs checkpoint + tail",
            &[
                "backend",
                "history",
                "tail",
                "full p50 (ms)",
                "full p99 (ms)",
                "ckpt p50 (ms)",
                "ckpt p99 (ms)",
                "full MB read",
                "ckpt MB read",
                "compacted",
                "lost",
                "phantom",
            ],
        );
        for cell in &self.cells {
            table.add_row(vec![
                cell.backend.clone(),
                cell.history.to_string(),
                cell.tail.to_string(),
                format!("{:.1}", cell.full_p50_ms()),
                format!("{:.1}", cell.full_p99_ms()),
                format!("{:.1}", cell.ckpt_p50_ms()),
                format!("{:.1}", cell.ckpt_p99_ms()),
                format!("{:.2}", cell.full_bytes() as f64 / 1e6),
                format!("{:.2}", cell.ckpt_bytes() as f64 / 1e6),
                cell.compacted.to_string(),
                cell.lost.to_string(),
                cell.phantom.to_string(),
            ]);
        }
        table
    }

    /// Serialises the report as the `BENCH_checkpoint.json` document.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("backend", Json::str(&c.backend)),
                    ("history_commits", Json::Num(c.history as f64)),
                    ("tail_commits", Json::Num(c.tail as f64)),
                    ("full_replay_p50_ms", Json::Num(round2(c.full_p50_ms()))),
                    ("full_replay_p99_ms", Json::Num(round2(c.full_p99_ms()))),
                    ("ckpt_tail_p50_ms", Json::Num(round2(c.ckpt_p50_ms()))),
                    ("ckpt_tail_p99_ms", Json::Num(round2(c.ckpt_p99_ms()))),
                    ("full_replay_bytes", Json::Num(c.full_bytes() as f64)),
                    ("ckpt_tail_bytes", Json::Num(c.ckpt_bytes() as f64)),
                    ("compacted_records", Json::Num(c.compacted as f64)),
                    ("lost_commits", Json::Num(c.lost as f64)),
                    ("phantom_commits", Json::Num(c.phantom as f64)),
                ])
            })
            .collect();
        let largest = self.cells.iter().map(|c| c.history).max().unwrap_or(0);
        Json::obj(vec![
            ("experiment", Json::str("fig13_checkpoint")),
            (
                "summary",
                Json::obj(vec![
                    ("cells", Json::Num(self.cells.len() as f64)),
                    ("largest_history", Json::Num(largest as f64)),
                    ("lost_commits", Json::Num(self.total_lost() as f64)),
                    ("phantom_commits", Json::Num(self.total_phantom() as f64)),
                ]),
            ),
            ("cells", Json::Arr(cells)),
        ])
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn tid(ts: u64) -> TransactionId {
    TransactionId::new(ts, Uuid::from_u128(0xF13_0000_0000u128 | ts as u128))
}

fn record_for(ts: u64, keys: usize) -> TransactionRecord {
    TransactionRecord::new(tid(ts), [Key::new(format!("k{:06}", ts % keys as u64))])
}

/// Seeds commit records `[first, last]` straight into storage via pipelined
/// batched puts — the bench measures *recovery*, so seeding skips the
/// transaction path.
fn seed_commits(io: &IoEngine, first: u64, last: u64, keys: usize) {
    const SEED_BATCH: usize = 1_024;
    let mut batch = Vec::with_capacity(SEED_BATCH);
    for ts in first..=last {
        let record = record_for(ts, keys);
        batch.push((record.storage_key(), encode_commit_record(&record)));
        if batch.len() >= SEED_BATCH {
            io.execute(StorageRequest::PutBatch(std::mem::take(&mut batch)))
                .result
                .expect("seeding cannot fail");
            batch.reserve(SEED_BATCH);
        }
    }
    if !batch.is_empty() {
        io.execute(StorageRequest::PutBatch(batch))
            .result
            .expect("seeding cannot fail");
    }
}

fn measure_bootstrap(io: &IoEngine) -> (BootstrapSample, MetadataCache) {
    let cache = MetadataCache::new();
    let outcome = warm_metadata_cache_checkpointed(io, &cache, usize::MAX, "fig13-bench", None)
        .expect("bootstrap cannot fail without chaos");
    let sample = BootstrapSample {
        cost_ms: outcome.cost.as_secs_f64() * 1_000.0,
        bytes_read: outcome.bytes_read,
        loaded: outcome.loaded(),
    };
    (sample, cache)
}

fn run_cell(
    backend: BackendKind,
    history: usize,
    config: &CheckpointBenchConfig,
) -> CheckpointCell {
    let storage = aft_storage::make_backend(BackendConfig {
        kind: backend,
        mode: LatencyMode::Virtual,
        scale: 1.0,
        seed: config.seed ^ history as u64,
        redis_shards: 2,
        stripes: DEFAULT_STRIPES,
    });
    let io = IoEngine::new(storage, IoConfig::pipelined());

    // Phase 1: the history, and the full-replay baseline over it.
    seed_commits(&io, 1, history as u64, config.keys);
    let full: Vec<BootstrapSample> = (0..config.trials)
        .map(|_| measure_bootstrap(&io).0)
        .collect();

    // Phase 2: checkpoint the §4.1-pruned committed-version index (newest
    // record per live key — its size is bounded by the key-set, not the
    // history), publish it, and compact the covered log.
    let newest_per_key: Vec<TransactionRecord> = (0..config.keys as u64)
        .filter_map(|slot| {
            let h = history as u64;
            // Largest ts in [1, history] with ts % keys == slot.
            let last = h - (h + config.keys as u64 - slot) % config.keys as u64;
            (last >= 1).then(|| record_for(last, config.keys))
        })
        .collect();
    let checkpoint = Checkpoint::new(1, newest_per_key);
    publish_checkpoint(&io, &checkpoint, || Ok(())).expect("publish cannot fail");
    let compaction =
        compact_log(&io, &checkpoint, CHECKPOINT_KEEP).expect("compaction cannot fail");

    // Phase 3: the tail the checkpoint does not cover, then the
    // checkpoint+tail measurements.
    seed_commits(
        &io,
        history as u64 + 1,
        (history + config.tail) as u64,
        config.keys,
    );
    let mut ckpt = Vec::with_capacity(config.trials);
    let mut last_cache = None;
    for _ in 0..config.trials {
        let (sample, cache) = measure_bootstrap(&io);
        assert!(sample.loaded > 0, "bootstrap must load records");
        ckpt.push(sample);
        last_cache = Some(cache);
    }

    // Ground truth: every seeded commit must be in the bootstrapped cache
    // or superseded by a strictly newer version of its key (§4.1); every
    // cached record must have been seeded.
    let cache = last_cache.expect("trials >= 1");
    let mut lost = 0;
    for ts in 1..=(history + config.tail) as u64 {
        let record = record_for(ts, config.keys);
        if cache.is_committed(&record.id) {
            continue;
        }
        let superseded = record.write_set.iter().all(|key| {
            cache
                .latest_version_of(key)
                .is_some_and(|newest| newest > record.id)
        });
        if !superseded {
            lost += 1;
        }
    }
    let phantom = cache
        .all_records()
        .iter()
        .filter(|r| {
            let ts = r.id.timestamp;
            ts < 1 || ts > (history + config.tail) as u64 || r.id != tid(ts)
        })
        .count();

    CheckpointCell {
        backend: backend.label().to_owned(),
        history,
        tail: config.tail,
        full,
        ckpt,
        compacted: compaction.deleted_covered + compaction.deleted_superseded,
        lost,
        phantom,
    }
}

/// Runs the full sweep and returns the report.
pub fn fig13_checkpoint(config: &CheckpointBenchConfig) -> CheckpointReport {
    let mut cells = Vec::with_capacity(config.backends.len() * config.sizes.len());
    for &backend in &config.backends {
        for &history in &config.sizes {
            cells.push(run_cell(backend, history, config));
        }
    }
    CheckpointReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CheckpointBenchConfig {
        CheckpointBenchConfig {
            sizes: vec![500, 5_000],
            keys: 64,
            tail: 100,
            trials: 2,
            // DynamoDB under the virtual clock: latency is charged, not
            // slept, so the cost separation is visible without wall time.
            backends: vec![BackendKind::DynamoDb],
            seed: 0xF1613,
        }
    }

    #[test]
    fn tiny_sweep_passes_the_gate() {
        let report = fig13_checkpoint(&tiny());
        assert_eq!(report.cells.len(), 2);
        let summary = report.check_gate().expect("gate must pass");
        assert!(summary.contains("0 lost"), "{summary}");
        assert_eq!(report.total_lost(), 0);
        assert_eq!(report.total_phantom(), 0);
        for cell in &report.cells {
            assert!(cell.compacted > 0, "compaction must drop covered records");
            assert!(
                cell.ckpt_bytes() < cell.full_bytes(),
                "checkpoint+tail must read fewer bytes"
            );
        }
        // The separation the figure shows: full replay is history-bound,
        // checkpoint+tail is not.
        let small = &report.cells[0];
        let large = &report.cells[1];
        assert!(large.full_p50_ms() > small.full_p50_ms() * 2.0);
        assert!(large.ckpt_p50_ms() <= small.ckpt_p50_ms() * 3.0);
    }

    #[test]
    fn gate_catches_a_missing_separation() {
        let mut report = fig13_checkpoint(&tiny());
        // Sabotage: pretend the checkpoint path got as slow as full replay.
        for cell in &mut report.cells {
            cell.ckpt = cell.full.clone();
        }
        let err = report.check_gate().unwrap_err();
        assert!(err.contains("3x") || err.contains("outgrow"), "{err}");
    }

    #[test]
    fn json_document_round_trips() {
        let report = fig13_checkpoint(&CheckpointBenchConfig {
            sizes: vec![300, 900],
            ..tiny()
        });
        let parsed = Json::parse(&report.to_json().render()).unwrap();
        assert_eq!(
            parsed.get("experiment").unwrap().as_str().unwrap(),
            "fig13_checkpoint"
        );
        let cells = parsed.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 2);
        assert!(parsed
            .get("summary")
            .and_then(|s| s.get("lost_commits"))
            .and_then(Json::as_f64)
            .is_some());
        assert_eq!(report.table().len(), report.cells.len());
    }
}
