//! Group commit: coalescing concurrent transaction commits.
//!
//! The paper's commit protocol issues, per transaction, one batched write for
//! the transaction's key versions and one write for its commit record (§3.3),
//! and notes that batching writes to reduce storage API calls is what makes
//! AFT cheap over services that bill per request (§6.1.1). This module takes
//! the idea one step further, the way transactional workflow systems batch
//! log appends: commits that *arrive concurrently* on one node are coalesced
//! into a single storage flush — one multi-put covering every transaction's
//! data items followed by one append covering every commit record.
//!
//! Flushes run through the pipelined I/O engine
//! ([`aft_storage::io::IoEngine`]): the batch's data items are submitted
//! concurrently, the flush barriers on their completions, and only then are
//! the records appended — so an 8-key commit overlaps its data round trips
//! instead of paying them one after another.
//!
//! The protocol's write ordering is preserved for every member of a batch:
//! all data items are durable before any commit record is written, and a
//! transaction only becomes visible (in the caller, after `submit` returns)
//! once its own commit record is durable. Coalescing strictly *adds* durable
//! records between a member's data and its visibility, which the protocol
//! already tolerates (a commit record with unreadable siblings is exactly the
//! multicast-lag case of §4).
//!
//! Batching policy, tuned by [`BatchConfig`]:
//!
//! * With `max_delay == 0` (the default) a committer that finds the flush
//!   token free flushes whatever is queued at that instant — itself plus any
//!   commits that queued while the previous flush was in flight. This
//!   "natural" group commit adds **zero** latency for an uncontended client
//!   and grows batches automatically as storage latency and offered load
//!   rise.
//! * With `max_delay > 0` the flush leader waits up to that long for the
//!   queue to reach `max_batch`, trading commit latency for fewer storage
//!   API calls (the classic group-commit window).

use std::time::{Duration, Instant};

use aft_storage::io::IoEngine;
use aft_types::{AftResult, Value};
use parking_lot::{Condvar, Mutex};

/// Tuning for the commit batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum commits coalesced into one flush (≥ 1).
    pub max_batch: usize,
    /// How long a flush leader waits for the queue to fill before flushing.
    /// Zero flushes immediately with whatever has queued.
    pub max_delay: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 32,
            max_delay: Duration::ZERO,
        }
    }
}

impl BatchConfig {
    /// A configuration that disables coalescing: every commit flushes alone,
    /// reproducing the unbatched protocol exactly.
    pub fn disabled() -> Self {
        BatchConfig {
            max_batch: 1,
            max_delay: Duration::ZERO,
        }
    }

    /// Sets the maximum batch size (clamped to ≥ 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the group-commit window.
    pub fn with_max_delay(mut self, max_delay: Duration) -> Self {
        self.max_delay = max_delay;
        self
    }
}

/// Point-in-time counters of a [`CommitBatcher`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Commits submitted through the batcher.
    pub submitted: u64,
    /// Storage flushes performed (each is ≤ one data multi-put plus one
    /// metadata append).
    pub flushes: u64,
    /// Largest number of commits coalesced into one flush.
    pub largest_batch: u64,
}

impl BatchStats {
    /// Mean commits per flush; 1.0 means no coalescing happened.
    pub fn mean_batch(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.submitted as f64 / self.flushes as f64
        }
    }
}

/// One queued commit: the transaction's data items and its commit record.
struct Entry {
    seq: u64,
    data: Vec<(String, Value)>,
    record_key: String,
    record_value: Value,
}

#[derive(Default)]
struct State {
    queue: Vec<Entry>,
    /// Results of flushed entries, keyed by sequence number, awaiting pickup
    /// by their submitting threads. A successful flush reports the simulated
    /// storage latency it charged (data barrier + record append).
    completed: std::collections::HashMap<u64, AftResult<Duration>>,
    /// Whether some thread currently holds the flush token.
    flushing: bool,
    next_seq: u64,
    stats: BatchStats,
}

/// Coalesces concurrently submitted commits into shared storage flushes.
pub struct CommitBatcher {
    config: BatchConfig,
    state: Mutex<State>,
    wakeup: Condvar,
}

impl CommitBatcher {
    /// Creates a batcher with the given tuning.
    pub fn new(config: BatchConfig) -> Self {
        CommitBatcher {
            config: BatchConfig {
                max_batch: config.max_batch.max(1),
                max_delay: config.max_delay,
            },
            state: Mutex::new(State::default()),
            wakeup: Condvar::new(),
        }
    }

    /// The batcher's tuning.
    pub fn config(&self) -> BatchConfig {
        self.config
    }

    /// Counters since creation.
    pub fn stats(&self) -> BatchStats {
        self.state.lock().stats
    }

    /// Durably writes one transaction's `data` items and then its commit
    /// record, possibly coalesced with concurrently submitted commits, all
    /// through the pipelined I/O engine. Returns the flush's charged storage
    /// latency once this transaction's commit record is durable; on a
    /// storage error every member of the failed flush gets the error.
    pub fn submit(
        &self,
        io: &IoEngine,
        data: Vec<(String, Value)>,
        record_key: String,
        record_value: Value,
    ) -> AftResult<Duration> {
        let mut state = self.state.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        state.stats.submitted += 1;
        state.queue.push(Entry {
            seq,
            data,
            record_key,
            record_value,
        });
        // A leader may be sleeping in its group-commit window; let it see
        // the queue grow (and possibly reach max_batch).
        self.wakeup.notify_all();

        loop {
            if let Some(result) = state.completed.remove(&seq) {
                return result;
            }
            if state.flushing {
                // Another thread holds the flush token; it will either flush
                // our entry or hand the token back.
                self.wakeup.wait(&mut state);
                continue;
            }
            state.flushing = true;

            // Group-commit window: wait for more commits, bounded by
            // max_delay and max_batch. Our own entry is already queued.
            if !self.config.max_delay.is_zero() {
                let deadline = Instant::now() + self.config.max_delay;
                while state.queue.len() < self.config.max_batch {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    if self.wakeup.wait_for(&mut state, deadline - now).timed_out() {
                        break;
                    }
                }
            }

            let take = state.queue.len().min(self.config.max_batch);
            let batch: Vec<Entry> = state.queue.drain(..take).collect();
            state.stats.flushes += 1;
            state.stats.largest_batch = state.stats.largest_batch.max(batch.len() as u64);
            drop(state);

            let seqs: Vec<u64> = batch.iter().map(|entry| entry.seq).collect();
            let result = Self::flush(io, batch);

            state = self.state.lock();
            for seq in seqs {
                state.completed.insert(seq, result.clone());
            }
            state.flushing = false;
            // Wake waiters: batch members pick up results, queued entries
            // beyond max_batch elect the next leader.
            self.wakeup.notify_all();
        }
    }

    /// One coalesced storage flush through the I/O engine: every member's
    /// data items are submitted concurrently, the flush **barriers** on all
    /// their completions (§3.3's write ordering — all data durable first),
    /// and only then are the commit records appended. Returns the flush's
    /// charged storage latency: the data barrier's overlapped cost plus the
    /// record append's.
    fn flush(io: &IoEngine, batch: Vec<Entry>) -> AftResult<Duration> {
        let mut data = Vec::with_capacity(batch.iter().map(|e| e.data.len()).sum());
        let mut records = Vec::with_capacity(batch.len());
        for entry in batch {
            data.extend(entry.data);
            records.push((entry.record_key, entry.record_value));
        }
        let mut cost = Duration::ZERO;
        if !data.is_empty() {
            cost += io.put_all(data)?;
        }
        // A single record takes the single-put path; multi-record appends
        // overlap like any other batch.
        cost += io.put_all(records)?;
        Ok(cost)
    }
}

impl std::fmt::Debug for CommitBatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitBatcher")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_storage::io::IoConfig;
    use aft_storage::{InMemoryStore, OpKind, SharedStorage, StorageEngine};
    use bytes::Bytes;
    use std::sync::Arc;

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn engine_over(store: &Arc<InMemoryStore>) -> IoEngine {
        IoEngine::new(store.clone() as SharedStorage, IoConfig::pipelined())
    }

    #[test]
    fn single_commit_flushes_immediately() {
        let store = InMemoryStore::shared();
        let io = engine_over(&store);
        let batcher = CommitBatcher::new(BatchConfig::default());
        batcher
            .submit(
                &io,
                vec![("data/k/1".into(), val("v"))],
                "commit/1".into(),
                val("r"),
            )
            .unwrap();
        assert!(store.get("data/k/1").unwrap().is_some());
        assert!(store.get("commit/1").unwrap().is_some());
        let stats = batcher.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.largest_batch, 1);
    }

    #[test]
    fn read_only_commits_write_only_the_record() {
        let store = InMemoryStore::shared();
        let io = engine_over(&store);
        let batcher = CommitBatcher::new(BatchConfig::default());
        batcher
            .submit(&io, Vec::new(), "commit/ro".into(), val("r"))
            .unwrap();
        assert_eq!(store.stats().calls(OpKind::BatchPut), 0);
        assert_eq!(store.stats().calls(OpKind::Put), 1);
    }

    #[test]
    fn window_coalesces_concurrent_commits() {
        let store = InMemoryStore::shared();
        let io = engine_over(&store);
        let batcher = Arc::new(CommitBatcher::new(
            BatchConfig::default()
                .with_max_batch(8)
                .with_max_delay(Duration::from_millis(100)),
        ));
        let threads = 8;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let batcher = Arc::clone(&batcher);
                let io = &io;
                scope.spawn(move || {
                    batcher
                        .submit(
                            io,
                            vec![(format!("data/k/{t}"), val("v"))],
                            format!("commit/{t}"),
                            val("r"),
                        )
                        .unwrap();
                });
            }
        });
        let stats = batcher.stats();
        assert_eq!(stats.submitted, 8);
        assert!(
            stats.flushes < 8,
            "a 100ms window must coalesce at least two of eight concurrent \
             commits (flushes: {})",
            stats.flushes
        );
        assert!(stats.largest_batch >= 2);
        // Every commit is durable regardless of which flush carried it.
        for t in 0..threads {
            assert!(store.get(&format!("commit/{t}")).unwrap().is_some());
        }
    }

    #[test]
    fn max_batch_one_never_coalesces() {
        let store = InMemoryStore::shared();
        let io = engine_over(&store);
        let batcher = Arc::new(CommitBatcher::new(BatchConfig::disabled()));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let batcher = Arc::clone(&batcher);
                let io = &io;
                scope.spawn(move || {
                    batcher
                        .submit(io, Vec::new(), format!("commit/{t}"), val("r"))
                        .unwrap();
                });
            }
        });
        let stats = batcher.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.flushes, 4);
        assert_eq!(stats.largest_batch, 1);
    }

    #[test]
    fn data_is_written_before_records() {
        // After any successful submit, observing a commit record implies the
        // data it references is present (the §3.3 write ordering) — the data
        // barrier fires before the record append is even submitted.
        let store = InMemoryStore::shared();
        let io = engine_over(&store);
        let batcher = Arc::new(CommitBatcher::new(BatchConfig::default().with_max_batch(4)));
        std::thread::scope(|scope| {
            for t in 0..16 {
                let batcher = Arc::clone(&batcher);
                let io = &io;
                let store = store.clone();
                scope.spawn(move || {
                    batcher
                        .submit(
                            io,
                            vec![(format!("data/k/{t}"), val("v"))],
                            format!("commit/{t}"),
                            val("r"),
                        )
                        .unwrap();
                    // Immediately after our commit returns, our data must be
                    // readable.
                    assert!(store.get(&format!("data/k/{t}")).unwrap().is_some());
                });
            }
        });
        assert_eq!(store.len(), 32);
    }

    #[test]
    fn flush_reports_its_charged_storage_latency() {
        use aft_storage::latency::LatencyProfile;
        use aft_storage::{LatencyMode, LatencyModel, ServiceProfile, SimS3};
        // A fixed 20ms write latency (no variance) makes the accounting
        // exact: an 8-key commit charges one overlapped data round trip plus
        // the record append — 40ms — where sequential charging would be
        // 9 × 20ms.
        let profile = ServiceProfile {
            write: LatencyProfile::new(20_000.0, 20_000.0),
            ..ServiceProfile::zero()
        };
        let storage: SharedStorage =
            SimS3::with_profile(profile, LatencyModel::new(LatencyMode::Virtual, 1.0), 5);
        let io = IoEngine::new(storage, IoConfig::pipelined());
        let batcher = CommitBatcher::new(BatchConfig::disabled());
        let data: Vec<(String, Value)> =
            (0..8).map(|i| (format!("data/k/{i}"), val("v"))).collect();
        let cost = batcher
            .submit(&io, data, "commit/1".into(), val("r"))
            .unwrap();
        assert!(
            cost >= Duration::from_millis(39) && cost <= Duration::from_millis(42),
            "barrier(max of 8 × 20ms) + record(20ms) ≈ 40ms, got {cost:?}"
        );
    }

    #[test]
    fn zero_max_batch_is_clamped() {
        let batcher = CommitBatcher::new(BatchConfig::default().with_max_batch(0));
        assert_eq!(batcher.config().max_batch, 1);
    }
}
