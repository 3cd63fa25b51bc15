//! The AFT node: Table 1's transactional key-value API, the write-ordering
//! commit protocol (§3.3), and the glue between the read protocol, the write
//! buffer, and the caches.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aft_storage::checkpoint::{
    compact_log, publish_checkpoint, Checkpoint, CheckpointWriteOutcome, CompactionOutcome,
    CHECKPOINT_KEEP,
};
use aft_storage::io::{IoConfig, IoEngine, StorageRequest};
use aft_storage::latency::{LatencyMode, LatencyModel, LatencyProfile};
use aft_storage::SharedStorage;
use aft_types::codec::encode_commit_record;
use aft_types::{
    AftError, AftResult, Key, KeyVersion, SharedClock, SystemClock, TransactionId,
    TransactionRecord, Uuid, Value,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::commit_batcher::{BatchConfig, CommitBatcher};
use crate::data_cache::DataCache;
use crate::gc::{GcOutcome, LocalGcConfig};
use crate::metadata::MetadataCache;
use crate::read::{select_version, VersionChoice};
use crate::stats::NodeStats;
use crate::supersede::is_superseded;
use crate::write_buffer::WriteBuffer;

// The commit-phase vocabulary moved to `aft-types` so the unified chaos
// layer can plan node kills against the same phases the node's commit path
// announces; re-exported here because this is where callers found it.
pub use aft_types::CommitPhase;

/// A hook called at every [`CommitPhase`] of every commit on a node.
///
/// Returning an error simulates the node crashing at that instant: the
/// commit call fails with the probe's error, the transaction's in-memory
/// state is already gone (a real crash loses the write buffer), and
/// whatever reached storage before the phase stays there — which is the
/// whole point. Chaos controllers install these via
/// [`AftNode::install_commit_probe`] to kill nodes mid-commit at precise,
/// reproducible points.
pub trait CommitProbe: Send + Sync {
    /// Called immediately before `phase` executes for transaction `txid` on
    /// `node_id`. `Ok(())` lets the commit proceed; `Err` crashes it.
    fn before_phase(
        &self,
        node_id: &str,
        txid: &TransactionId,
        phase: CommitPhase,
    ) -> AftResult<()>;
}

/// When a node takes background checkpoints of its committed-version index.
///
/// A checkpoint round snapshots the metadata cache to storage (chunked,
/// CRC-sealed, published checkpoint-then-pointer — see
/// [`aft_storage::checkpoint`]) so a replacement node can bootstrap from
/// checkpoint + tail instead of replaying the whole Transaction Commit Set.
/// Both triggers may be combined; whichever fires first wins. The default is
/// disabled — checkpointing is a cluster-level duty, opted into per
/// deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint after this many commits on the node since the last round;
    /// `0` disables the commit-count trigger.
    pub every_commits: u64,
    /// Checkpoint after this much clock time since the last round;
    /// `Duration::ZERO` disables the time trigger.
    pub every_duration: Duration,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

impl CheckpointPolicy {
    /// No checkpointing at all.
    pub const fn disabled() -> Self {
        CheckpointPolicy {
            every_commits: 0,
            every_duration: Duration::ZERO,
        }
    }

    /// Checkpoint every `n` commits (`n` clamped to ≥ 1).
    pub fn every_commits(n: u64) -> Self {
        CheckpointPolicy {
            every_commits: n.max(1),
            every_duration: Duration::ZERO,
        }
    }

    /// Checkpoint every `period` of clock time.
    pub fn every_duration(period: Duration) -> Self {
        CheckpointPolicy {
            every_commits: 0,
            every_duration: period,
        }
    }

    /// True if either trigger is armed.
    pub fn is_enabled(&self) -> bool {
        self.every_commits > 0 || !self.every_duration.is_zero()
    }
}

/// An optional [`CommitProbe`] consulted *during bootstrap* (at
/// [`CommitPhase::DuringCheckpointBootstrap`]), carried inside [`NodeConfig`]
/// because bootstrap runs at construction — before
/// [`AftNode::install_commit_probe`] could ever be called. Opaque to `Debug`
/// so `NodeConfig` stays derivable.
#[derive(Clone, Default)]
pub struct BootstrapProbe(Option<Arc<dyn CommitProbe>>);

impl BootstrapProbe {
    /// No probe: bootstrap runs uninstrumented.
    pub fn none() -> Self {
        BootstrapProbe(None)
    }

    /// Installs `probe` for the bootstrap phase.
    pub fn new(probe: Arc<dyn CommitProbe>) -> Self {
        BootstrapProbe(Some(probe))
    }

    /// The installed probe, if any.
    pub fn get(&self) -> Option<&Arc<dyn CommitProbe>> {
        self.0.as_ref()
    }
}

impl std::fmt::Debug for BootstrapProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "BootstrapProbe(installed)"
        } else {
            "BootstrapProbe(none)"
        })
    }
}

/// What one node-level checkpoint round did.
#[derive(Debug, Clone, Copy)]
pub struct NodeCheckpointOutcome {
    /// The checkpoint publication itself.
    pub write: CheckpointWriteOutcome,
    /// The compaction behind it, when the caller enabled it.
    pub compaction: Option<CompactionOutcome>,
}

/// Configuration of a single AFT node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Human-readable node identifier (used in cluster membership and logs).
    pub node_id: String,
    /// Capacity of the data cache in bytes; 0 disables data caching (§6.2
    /// evaluates both settings).
    pub data_cache_bytes: usize,
    /// Spill threshold of the Atomic Write Buffer: once a single
    /// transaction's buffered bytes exceed this, intermediary data is written
    /// to storage ahead of commit (§3.3).
    pub write_buffer_spill_bytes: usize,
    /// In-flight transactions older than this are aborted by
    /// [`AftNode::abort_expired`] (§3.3.1: "aborted after a timeout").
    pub transaction_timeout: Duration,
    /// Whether to warm the metadata cache from the Transaction Commit Set at
    /// startup (§3.1); replacement nodes in a cluster always do.
    pub bootstrap: bool,
    /// How many of the most recent commit records to load when
    /// bootstrapping.
    pub bootstrap_limit: usize,
    /// Latency of one client→shim API call (the network hop that is part of
    /// AFT's overhead in Figure 2); zero for unit tests.
    pub rpc_profile: LatencyProfile,
    /// Whether simulated latencies sleep or are merely recorded.
    pub latency_mode: LatencyMode,
    /// Global latency scale factor shared with the storage simulators.
    pub latency_scale: f64,
    /// Seed for the node's RNG (transaction UUIDs, latency sampling).
    pub rng_seed: u64,
    /// Group-commit tuning: how many concurrently arriving commits may be
    /// coalesced into one storage flush, and how long a flush may wait for
    /// company. The default adds no latency for uncontended clients.
    pub commit_batch: BatchConfig,
    /// Tuning of the node's pipelined storage I/O engine (in-flight window,
    /// timer-wheel resolution, and the worker count, which only blocking
    /// backends such as `SimShardedService` use; every other backend runs
    /// its requests on the calling thread). `IoConfig::sequential()`
    /// reproduces the historical one-round-trip-at-a-time behaviour.
    pub io: IoConfig,
    /// Background checkpoint policy; disabled by default. When enabled, the
    /// maintenance driver (cluster layer or the application) calls
    /// [`AftNode::maybe_checkpoint`] periodically and the policy decides
    /// whether a round is due.
    pub checkpoint: CheckpointPolicy,
    /// Optional probe consulted at the checkpoint-bootstrap phase; chaos
    /// controllers use it to kill a replacement node mid-bootstrap.
    pub bootstrap_probe: BootstrapProbe,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            node_id: "aft-node-0".to_owned(),
            data_cache_bytes: 64 * 1024 * 1024,
            write_buffer_spill_bytes: 16 * 1024 * 1024,
            transaction_timeout: Duration::from_secs(30),
            bootstrap: true,
            bootstrap_limit: 100_000,
            rpc_profile: LatencyProfile::ZERO,
            latency_mode: LatencyMode::Virtual,
            latency_scale: 0.0,
            rng_seed: 0xAF71,
            commit_batch: BatchConfig::default(),
            io: IoConfig::pipelined(),
            checkpoint: CheckpointPolicy::disabled(),
            bootstrap_probe: BootstrapProbe::none(),
        }
    }
}

impl NodeConfig {
    /// A zero-latency configuration for unit tests, with caching enabled.
    pub fn test() -> Self {
        NodeConfig::default()
    }

    /// A zero-latency test configuration without a data cache.
    pub fn test_without_cache() -> Self {
        NodeConfig {
            data_cache_bytes: 0,
            ..NodeConfig::default()
        }
    }

    /// Sets the node identifier.
    pub fn with_node_id(mut self, id: impl Into<String>) -> Self {
        self.node_id = id.into();
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Sets the group-commit tuning.
    pub fn with_commit_batch(mut self, commit_batch: BatchConfig) -> Self {
        self.commit_batch = commit_batch;
        self
    }

    /// Sets the I/O engine tuning.
    pub fn with_io(mut self, io: IoConfig) -> Self {
        self.io = io;
        self
    }

    /// Sets the background checkpoint policy.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointPolicy) -> Self {
        self.checkpoint = checkpoint;
        self
    }

    /// Installs a bootstrap-phase probe.
    pub fn with_bootstrap_probe(mut self, probe: Arc<dyn CommitProbe>) -> Self {
        self.bootstrap_probe = BootstrapProbe::new(probe);
        self
    }

    /// Configures the simulated client→shim RPC hop used by the benchmark
    /// harness (median/p99 in microseconds at full scale).
    pub fn with_rpc_latency(
        mut self,
        profile: LatencyProfile,
        mode: LatencyMode,
        scale: f64,
    ) -> Self {
        self.rpc_profile = profile;
        self.latency_mode = mode;
        self.latency_scale = scale;
        self
    }
}

/// A single AFT shim node.
///
/// All methods take `&self`; a node is shared across many client threads
/// (each FaaS function invocation issues its operations against one node).
pub struct AftNode {
    config: NodeConfig,
    storage: SharedStorage,
    /// The pipelined submission/completion engine every storage access on
    /// this node goes through (commit flushes, read fetches, spills).
    io: IoEngine,
    clock: SharedClock,
    buffer: WriteBuffer,
    batcher: CommitBatcher,
    metadata: MetadataCache,
    data_cache: DataCache,
    stats: Arc<NodeStats>,
    rpc_latency: Arc<LatencyModel>,
    rng: Mutex<StdRng>,
    /// Commits made on this node since the last multicast drain (§4).
    recent_commits: Mutex<Vec<Arc<TransactionRecord>>>,
    /// Transactions whose metadata this node has locally garbage collected;
    /// reported to the global GC (§5.2).
    locally_deleted: Mutex<HashSet<TransactionId>>,
    /// Chaos hook: when installed, every commit runs the unbatched protocol
    /// with a probe call before each [`CommitPhase`].
    commit_probe: Mutex<Option<Arc<dyn CommitProbe>>>,
    /// Commits on this node since the last checkpoint round.
    checkpoint_commits: AtomicU64,
    /// The last checkpoint round's id and clock time.
    checkpoint_last: Mutex<CheckpointTracker>,
}

#[derive(Debug, Default, Clone, Copy)]
struct CheckpointTracker {
    id: u64,
    at_ms: u64,
}

impl AftNode {
    /// Creates a node over `storage` using the real system clock.
    pub fn new(config: NodeConfig, storage: SharedStorage) -> AftResult<Arc<Self>> {
        Self::with_clock(config, storage, SystemClock::shared())
    }

    /// Creates a node with an explicit clock (tests use [`aft_types::MockClock`]).
    pub fn with_clock(
        config: NodeConfig,
        storage: SharedStorage,
        clock: SharedClock,
    ) -> AftResult<Arc<Self>> {
        let io = IoEngine::new(storage.clone(), config.io);
        let metadata = MetadataCache::new();
        if config.bootstrap {
            // Checkpoint-aware warm-up: latest valid checkpoint plus the
            // commit-set tail behind it; degenerates to full replay when no
            // checkpoint exists.
            crate::bootstrap::warm_metadata_cache_checkpointed(
                &io,
                &metadata,
                config.bootstrap_limit,
                &config.node_id,
                config.bootstrap_probe.get(),
            )?;
        }
        let rpc_latency = LatencyModel::new(config.latency_mode, config.latency_scale);
        let checkpoint_last = CheckpointTracker {
            id: 0,
            at_ms: clock.now(),
        };
        Ok(Arc::new(AftNode {
            data_cache: DataCache::new(config.data_cache_bytes),
            buffer: WriteBuffer::new(),
            batcher: CommitBatcher::new(config.commit_batch),
            stats: NodeStats::new_shared(),
            rng: Mutex::new(StdRng::seed_from_u64(config.rng_seed)),
            recent_commits: Mutex::new(Vec::new()),
            locally_deleted: Mutex::new(HashSet::new()),
            commit_probe: Mutex::new(None),
            checkpoint_commits: AtomicU64::new(0),
            checkpoint_last: Mutex::new(checkpoint_last),
            rpc_latency,
            metadata,
            io,
            storage,
            clock,
            config,
        }))
    }

    /// The node's identifier.
    pub fn node_id(&self) -> &str {
        &self.config.node_id
    }

    /// The node's operational counters.
    pub fn stats(&self) -> &Arc<NodeStats> {
        &self.stats
    }

    /// The storage engine this node commits to.
    pub fn storage(&self) -> &SharedStorage {
        &self.storage
    }

    /// The node's pipelined storage I/O engine.
    pub fn io(&self) -> &IoEngine {
        &self.io
    }

    /// The node's committed-transaction metadata cache.
    pub fn metadata(&self) -> &MetadataCache {
        &self.metadata
    }

    /// The node's data cache.
    pub fn data_cache(&self) -> &DataCache {
        &self.data_cache
    }

    /// Number of transactions currently in flight on this node.
    pub fn in_flight(&self) -> usize {
        self.buffer.len()
    }

    /// Group-commit counters: commits submitted, storage flushes performed,
    /// and the largest coalesced batch.
    pub fn commit_batch_stats(&self) -> crate::commit_batcher::BatchStats {
        self.batcher.stats()
    }

    /// Installs a commit-phase probe (replacing any present). While a probe
    /// is installed, commits bypass the group-commit batcher and run the
    /// unbatched protocol so every phase boundary is a precise, per-
    /// transaction injection point.
    pub fn install_commit_probe(&self, probe: Arc<dyn CommitProbe>) {
        *self.commit_probe.lock() = Some(probe);
    }

    /// Removes the commit-phase probe, restoring the batched commit path.
    pub fn clear_commit_probe(&self) {
        *self.commit_probe.lock() = None;
    }

    fn rpc(&self) {
        if self.config.rpc_profile.median_us > 0.0 {
            // Sample under the RNG lock, sleep outside it — concurrent client
            // requests to the same node must not serialise on the sampler.
            self.rpc_latency
                .apply_with(&self.config.rpc_profile, &self.rng, 0);
        }
    }

    // ------------------------------------------------------------------
    // Table 1 API
    // ------------------------------------------------------------------

    /// `StartTransaction()`: begins a new transaction and returns its ID.
    ///
    /// The ID carries the start timestamp and a fresh UUID; the *commit*
    /// timestamp is assigned later, in [`commit`](AftNode::commit) (§3.1).
    pub fn start_transaction(&self) -> TransactionId {
        self.rpc();
        let uuid = {
            let mut rng = self.rng.lock();
            Uuid::from_rng(&mut *rng)
        };
        let id = TransactionId::new(self.clock.now(), uuid);
        self.buffer.begin(id);
        self.stats.record_started();
        id
    }

    /// Re-registers a transaction ID on this node, used when a retried
    /// function continues a transaction whose state was lost (§3.3.1). If the
    /// transaction is still in flight this is a no-op.
    pub fn ensure_transaction(&self, id: TransactionId) {
        if !self.buffer.contains(&id) {
            self.buffer.begin(id);
            self.stats.record_started();
        }
    }

    /// `Get(txid, key)`: reads `key` in the context of transaction `txid`.
    ///
    /// Returns `Ok(None)` when the key has no visible version (the NULL
    /// version of §3.2) and `Err(AftError::NoValidVersion)` when versions
    /// exist but none is compatible with the transaction's read set (§3.6) —
    /// the caller should abort and retry the logical request.
    pub fn get(&self, txid: &TransactionId, key: &Key) -> AftResult<Option<Value>> {
        Ok(self.get_versioned(txid, key)?.map(|(value, _)| value))
    }

    /// Like [`get`](AftNode::get), but also reports which committed
    /// transaction wrote the returned version (`None` when the value came
    /// from the transaction's own write buffer).
    ///
    /// Key versions are normally hidden from clients (§3.2); this variant
    /// exists for the evaluation harness, which uses the true version IDs to
    /// verify that observed read sets really are Atomic Readsets.
    pub fn get_versioned(
        &self,
        txid: &TransactionId,
        key: &Key,
    ) -> AftResult<Option<(Value, Option<TransactionId>)>> {
        self.rpc();
        self.stats.record_read();

        // Read-your-writes (§3.5): buffered writes win and bypass Algorithm 1.
        let buffered = self.buffer.with_txn(txid, |txn| txn.buffered_value(key))?;
        if let Some(value) = buffered {
            self.stats.record_read_from_write_buffer();
            return Ok(Some((value, None)));
        }

        // Algorithm 1 over the local committed-transaction metadata.
        let choice = self
            .buffer
            .with_txn(txid, |txn| select_version(key, &txn.reads, &self.metadata))?;
        let target = match choice {
            VersionChoice::NotFound => {
                self.stats.record_null_read();
                return Ok(None);
            }
            VersionChoice::NoValidVersion => {
                self.stats.record_no_valid_version();
                return Err(AftError::NoValidVersion {
                    key: key.clone(),
                    txn: *txid,
                });
            }
            VersionChoice::Version(tid) => tid,
        };

        // Fetch the payload: data cache first, then storage (through the I/O
        // engine, so the charged latency is observable in virtual mode).
        let storage_key = KeyVersion::new(key.clone(), target).storage_key();
        let value = match self.data_cache.get(&storage_key) {
            Some(value) => {
                self.stats.record_read_from_data_cache();
                value
            }
            None => {
                let outcome = self.io.execute(StorageRequest::Get(storage_key.clone()));
                self.stats.read_storage_latency().record(outcome.cost);
                match outcome.result?.into_value() {
                    Some(value) => {
                        self.stats.record_read_from_storage();
                        self.data_cache.insert(storage_key, value.clone());
                        value
                    }
                    None => {
                        // The version's data was deleted underneath us (global
                        // GC racing a long transaction, §5.2.1). Treat it like
                        // a missing valid version so the client retries.
                        self.stats.record_no_valid_version();
                        return Err(AftError::NoValidVersion {
                            key: key.clone(),
                            txn: *txid,
                        });
                    }
                }
            }
        };

        // Extend the read set only after the read has definitely succeeded.
        self.buffer
            .with_txn(txid, |txn| txn.reads.record(key.clone(), target))?;
        Ok(Some((value, Some(target))))
    }

    /// Reads several keys in one request, overlapping the storage fetches.
    ///
    /// Algorithm 1 itself stays sequential — each key's version selection
    /// must see the versions already chosen for the keys before it, so the
    /// combined read set remains an Atomic Readset — but it is pure
    /// in-memory work. The expensive part, fetching the chosen versions'
    /// payloads on data-cache misses, is submitted as one batch to the I/O
    /// engine and barriered: the fallback round trips overlap instead of
    /// summing.
    ///
    /// Chosen versions are recorded into the read set at selection time
    /// (before the payload fetch). If a fetch then fails (global GC racing a
    /// long transaction, §5.2.1) the whole call returns
    /// [`AftError::NoValidVersion`] and the client aborts; until then the
    /// extra read-set entries only make later selections *more*
    /// conservative, never unsound.
    pub fn get_all(&self, txid: &TransactionId, keys: &[Key]) -> AftResult<Vec<Option<Value>>> {
        self.rpc();
        let mut out: Vec<Option<Value>> = vec![None; keys.len()];
        // (output index, storage key) pairs that need a storage fetch.
        let mut fetches: Vec<(usize, String)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            self.stats.record_read();

            // Read-your-writes (§3.5): buffered writes bypass Algorithm 1.
            let buffered = self.buffer.with_txn(txid, |txn| txn.buffered_value(key))?;
            if let Some(value) = buffered {
                self.stats.record_read_from_write_buffer();
                out[i] = Some(value);
                continue;
            }

            let choice = self
                .buffer
                .with_txn(txid, |txn| select_version(key, &txn.reads, &self.metadata))?;
            let target = match choice {
                VersionChoice::NotFound => {
                    self.stats.record_null_read();
                    continue;
                }
                VersionChoice::NoValidVersion => {
                    self.stats.record_no_valid_version();
                    return Err(AftError::NoValidVersion {
                        key: key.clone(),
                        txn: *txid,
                    });
                }
                VersionChoice::Version(tid) => tid,
            };
            // Record the choice now so the next key's selection sees it.
            self.buffer
                .with_txn(txid, |txn| txn.reads.record(key.clone(), target))?;

            let storage_key = KeyVersion::new(key.clone(), target).storage_key();
            if let Some(value) = self.data_cache.get(&storage_key) {
                self.stats.record_read_from_data_cache();
                out[i] = Some(value);
            } else {
                fetches.push((i, storage_key));
            }
        }

        if fetches.is_empty() {
            return Ok(out);
        }

        // One overlapped fetch barrier for every cache miss.
        let set = self
            .io
            .get_all(fetches.iter().map(|(_, skey)| skey.clone()));
        let outcome = set.wait_all();
        self.stats.read_storage_latency().record(outcome.cost);
        for ((i, storage_key), result) in fetches.into_iter().zip(outcome.results) {
            match result?.into_value() {
                Some(value) => {
                    self.stats.record_read_from_storage();
                    self.data_cache.insert(storage_key, value.clone());
                    out[i] = Some(value);
                }
                None => {
                    // Deleted underneath us (§5.2.1): retry like a single get.
                    self.stats.record_no_valid_version();
                    return Err(AftError::NoValidVersion {
                        key: keys[i].clone(),
                        txn: *txid,
                    });
                }
            }
        }
        Ok(out)
    }

    /// `Put(txid, key, value)`: buffers an update for transaction `txid`.
    pub fn put(&self, txid: &TransactionId, key: Key, value: Value) -> AftResult<()> {
        self.rpc();
        self.stats.record_write();
        let spill = self.buffer.with_txn(txid, |txn| {
            txn.buffer_write(key, value);
            if txn.buffered_bytes() >= self.config.write_buffer_spill_bytes {
                Some(txn.mark_spilled())
            } else {
                None
            }
        })?;
        // A saturated write buffer proactively writes intermediary data; the
        // data stays invisible because no commit record references it yet
        // (§3.3). Performed outside the buffer lock, with the round trips
        // overlapped by the I/O engine.
        if let Some(items) = spill {
            self.io.put_all(items)?;
        }
        Ok(())
    }

    /// Buffers several updates with a single client→shim request (the
    /// "AFT Batch" configuration of Figure 2).
    pub fn put_all(
        &self,
        txid: &TransactionId,
        items: impl IntoIterator<Item = (Key, Value)>,
    ) -> AftResult<()> {
        self.rpc();
        let spill = self.buffer.with_txn(txid, |txn| {
            for (key, value) in items {
                self.stats.record_write();
                txn.buffer_write(key, value);
            }
            if txn.buffered_bytes() >= self.config.write_buffer_spill_bytes {
                Some(txn.mark_spilled())
            } else {
                None
            }
        })?;
        if let Some(items) = spill {
            self.io.put_all(items)?;
        }
        Ok(())
    }

    /// `CommitTransaction(txid)`: persists the transaction's updates and its
    /// commit record, makes them visible, and returns the final transaction
    /// ID (with the commit timestamp).
    ///
    /// The ordering is the write-ordering protocol of §3.3: data first, then
    /// the commit record, then (and only then) local visibility. The call
    /// returns only after both are durable in storage.
    ///
    /// A read-only transaction (empty write set) is acknowledged without any
    /// storage I/O: no commit record, no metadata-cache entry, nothing to
    /// disseminate. Its record would have nothing to make visible (§3.3),
    /// nothing for the fault manager to recover (§4.2), and Algorithm 2
    /// counts it as superseded the moment it exists. The final id is still
    /// stamped from the clock and an installed [`CommitProbe`] still sees
    /// every phase, so a killed node keeps refusing read-only commits.
    pub fn commit(&self, txid: &TransactionId) -> AftResult<TransactionId> {
        self.rpc();
        let txn = self.buffer.take(txid)?;

        // Assign the commit timestamp from the local clock (§3.1).
        let final_id = TransactionId::new(self.clock.now(), txid.uuid);
        let probe = self.commit_probe.lock().clone();

        if txn.writes.is_empty() {
            if let Some(probe) = probe {
                for phase in CommitPhase::ALL {
                    probe.before_phase(self.node_id(), &final_id, phase)?;
                }
            }
            self.stats.record_committed();
            return Ok(final_id);
        }

        // 1. Persist the transaction's key versions (one storage key per
        //    version, so concurrent committers never interfere). The storage
        //    key depends on the UUID only, so spilled data already sits at
        //    the key this rewrites. The buffered writes stay owned here for
        //    the data-cache insert once the record is durable.
        let writes = txn.writes;
        let items: Vec<(String, Value)> = writes
            .iter()
            .map(|(key, value)| {
                let storage_key = KeyVersion::new(key.clone(), final_id).storage_key();
                (storage_key, value.clone())
            })
            .collect();

        // 2. Persist the data and then the commit record, possibly coalesced
        //    with concurrently arriving commits (group commit), through the
        //    pipelined I/O engine: every member's data puts are submitted
        //    concurrently, the flush barriers on their completions (§3.3's
        //    data-before-record ordering), then the records are appended.
        //    The batcher returns only once *this* transaction's record is
        //    durable, reporting the flush's charged storage latency.
        //    An installed commit probe instead takes the unbatched path so a
        //    chaos controller can crash this node at exact phase boundaries.
        let record = TransactionRecord::new(final_id, writes.keys().cloned());
        let flush_cost = match probe {
            Some(probe) => self.commit_probed(&probe, &final_id, items, &record)?,
            None => self.batcher.submit(
                &self.io,
                items,
                record.storage_key(),
                encode_commit_record(&record),
            )?,
        };
        self.stats.commit_storage_latency().record(flush_cost);

        // 3. Only now make the transaction visible to other requests.
        let record = Arc::new(record);
        self.metadata.insert(Arc::clone(&record));
        if !self.data_cache.is_disabled() {
            for (key, value) in writes {
                let storage_key = KeyVersion::new(key, final_id).storage_key();
                self.data_cache.insert(storage_key, value);
            }
        }
        self.recent_commits.lock().push(record);
        self.stats.record_committed();
        self.checkpoint_commits.fetch_add(1, Ordering::Relaxed);
        Ok(final_id)
    }

    /// The unbatched commit flush with a probe call before every phase: the
    /// data barrier, the record append, and visibility (§3.3's ordering is
    /// identical to the batched path; only coalescing is given up). A probe
    /// error at any phase propagates as the node's "crash", leaving exactly
    /// the storage state the protocol had reached by that point.
    fn commit_probed(
        &self,
        probe: &Arc<dyn CommitProbe>,
        final_id: &TransactionId,
        items: Vec<(String, Value)>,
        record: &TransactionRecord,
    ) -> AftResult<Duration> {
        probe.before_phase(self.node_id(), final_id, CommitPhase::BeforeDataPut)?;
        let mut cost = Duration::ZERO;
        if !items.is_empty() {
            cost += self.io.put_all(items)?;
        }
        probe.before_phase(self.node_id(), final_id, CommitPhase::BeforeRecordAppend)?;
        let outcome = self.io.execute(StorageRequest::Put(
            record.storage_key(),
            encode_commit_record(record),
        ));
        cost += outcome.result.map(|_| outcome.cost)?;
        probe.before_phase(self.node_id(), final_id, CommitPhase::BeforeBroadcast)?;
        Ok(cost)
    }

    /// `AbortTransaction(txid)`: discards the transaction's buffered updates.
    ///
    /// Spilled intermediary data (never visible) is deleted eagerly.
    pub fn abort(&self, txid: &TransactionId) -> AftResult<()> {
        self.rpc();
        let txn = self.buffer.take(txid)?;
        let spilled = txn.spilled_storage_keys();
        if !spilled.is_empty() {
            self.io
                .execute(StorageRequest::DeleteBatch(spilled))
                .result?;
        }
        self.stats.record_aborted();
        Ok(())
    }

    /// Aborts every in-flight transaction older than the configured timeout;
    /// returns the aborted IDs. Driven periodically by cluster deployments.
    pub fn abort_expired(&self) -> Vec<TransactionId> {
        let expired = self.buffer.expired(self.config.transaction_timeout);
        let mut aborted = Vec::new();
        for id in expired {
            if self.abort(&id).is_ok() {
                aborted.push(id);
            }
        }
        aborted
    }

    // ------------------------------------------------------------------
    // Cluster hooks: multicast, fault manager, garbage collection
    // ------------------------------------------------------------------

    /// Drains the commits made on this node since the last drain. The
    /// cluster's multicast thread calls this every broadcast period (§4);
    /// supersedence pruning (§4.1) is applied by the caller so that the fault
    /// manager can still receive the unpruned stream (§4.2).
    pub fn drain_recent_commits(&self) -> Vec<Arc<TransactionRecord>> {
        std::mem::take(&mut *self.recent_commits.lock())
    }

    /// Merges one commit record learned from a peer (dissemination relay,
    /// gossip push, or the fault manager) into the local metadata cache.
    ///
    /// Returns `true` only when the record was *new* to this node — already
    /// superseded or already-known records are deduplicated (counted in
    /// `duplicate_peer_commits`) instead of re-applied, which is what makes
    /// redundant delivery paths (gossip fanout, the fault-manager firehose)
    /// idempotent. Fresh records charge the commit-timestamp → now gap to the
    /// `propagation_lag` recorder (§4.2 RYW-staleness window).
    pub fn receive_peer_commit(&self, record: &Arc<TransactionRecord>) -> bool {
        if is_superseded(record, &self.metadata) {
            self.stats.record_duplicate_peer_commit();
            return false;
        }
        let lag_ms = self.clock.now().saturating_sub(record.id.timestamp);
        if self.metadata.insert(Arc::clone(record)) {
            self.stats.record_peer_commit();
            self.stats
                .propagation_lag()
                .record(Duration::from_millis(lag_ms));
            true
        } else {
            self.stats.record_duplicate_peer_commit();
            false
        }
    }

    /// Merges commit records learned from peers (multicast) or from the fault
    /// manager into the local metadata cache; returns how many were new.
    /// Records that are already superseded locally are skipped entirely
    /// (§4.1), and re-deliveries dedup instead of re-applying.
    pub fn receive_peer_commits(
        &self,
        records: impl IntoIterator<Item = Arc<TransactionRecord>>,
    ) -> usize {
        records
            .into_iter()
            .filter(|record| self.receive_peer_commit(record))
            .count()
    }

    /// Runs one local metadata GC sweep (§5.1): removes superseded
    /// transactions that no running transaction has read from, evicts their
    /// cached data, and remembers them for the global GC protocol.
    pub fn run_local_gc(&self, config: &LocalGcConfig) -> GcOutcome {
        let mut outcome = GcOutcome::default();
        let now_ms = self.clock.now();
        let min_age_ms = config.min_age.as_millis() as u64;
        for record in self.metadata.records_oldest_first() {
            if outcome.deleted >= config.max_deletions_per_sweep {
                break;
            }
            outcome.examined += 1;
            if now_ms.saturating_sub(record.id.timestamp) < min_age_ms {
                // Too young; and since records are visited oldest-first, every
                // later record is younger still.
                break;
            }
            if !is_superseded(&record, &self.metadata) {
                continue;
            }
            if self.buffer.any_reader_of(&record.id) {
                outcome.retained_for_readers += 1;
                continue;
            }
            if self.metadata.remove(&record.id).is_some() {
                for kv in record.key_versions() {
                    self.data_cache.evict(&kv.storage_key());
                }
                self.locally_deleted.lock().insert(record.id);
                self.stats.record_gc_deleted();
                outcome.deleted += 1;
            }
        }
        outcome
    }

    /// The node's checkpoint policy.
    pub fn checkpoint_policy(&self) -> CheckpointPolicy {
        self.config.checkpoint
    }

    /// Runs a checkpoint round if the configured [`CheckpointPolicy`] says
    /// one is due (called periodically by the maintenance driver). Returns
    /// `Ok(None)` when no round was due or the policy is disabled.
    ///
    /// `compact` additionally compacts the commit log behind the new
    /// checkpoint; the cluster layer only enables it when no recovery is in
    /// flight, so compaction never removes records a bootstrapping
    /// replacement still needs.
    pub fn maybe_checkpoint(&self, compact: bool) -> AftResult<Option<NodeCheckpointOutcome>> {
        let policy = self.config.checkpoint;
        if !policy.is_enabled() || self.metadata.is_empty() {
            return Ok(None);
        }
        let now = self.clock.now();
        let due = {
            let last = self.checkpoint_last.lock();
            let commits = self.checkpoint_commits.load(Ordering::Relaxed);
            (policy.every_commits > 0 && commits >= policy.every_commits)
                || (!policy.every_duration.is_zero()
                    && now.saturating_sub(last.at_ms) >= policy.every_duration.as_millis() as u64)
        };
        if !due {
            return Ok(None);
        }
        self.checkpoint_now(compact).map(Some)
    }

    /// Takes a checkpoint of the committed-version index right now,
    /// regardless of policy: snapshots the metadata cache and publishes it
    /// through the I/O engine (pipelined chunk writes, then the manifest).
    ///
    /// An installed commit probe is consulted at
    /// [`CommitPhase::DuringCheckpointWrite`] — after the chunks are durable,
    /// before the manifest — so a chaos kill there leaves a torn (and
    /// therefore invisible) checkpoint.
    pub fn checkpoint_now(&self, compact: bool) -> AftResult<NodeCheckpointOutcome> {
        let records: Vec<TransactionRecord> = self
            .metadata
            .all_records()
            .iter()
            .map(|r| (**r).clone())
            .collect();
        // Monotonic id: clock milliseconds disambiguated by a node hash in
        // the low bits, never reusing or going below a previous id.
        let id = {
            let last = self.checkpoint_last.lock();
            let candidate = (self.clock.now() << 10) | (fnv1a(self.node_id().as_bytes()) & 0x3FF);
            candidate.max(last.id + 1)
        };
        let checkpoint = Checkpoint::new(id, records);
        let probe = self.commit_probe.lock().clone();
        let sentinel = TransactionId::new(id, Uuid::NIL);
        let write = publish_checkpoint(&self.io, &checkpoint, || {
            if let Some(probe) = &probe {
                probe.before_phase(
                    self.node_id(),
                    &sentinel,
                    CommitPhase::DuringCheckpointWrite,
                )?;
            }
            Ok(())
        })?;
        {
            let mut last = self.checkpoint_last.lock();
            last.id = id;
            last.at_ms = self.clock.now();
        }
        self.checkpoint_commits.store(0, Ordering::Relaxed);
        let compaction = if compact {
            Some(compact_log(&self.io, &checkpoint, CHECKPOINT_KEEP)?)
        } else {
            None
        };
        Ok(NodeCheckpointOutcome { write, compaction })
    }

    /// The set of transactions this node has locally garbage collected; the
    /// global GC deletes a transaction's data only once *every* node reports
    /// it here (§5.2).
    pub fn locally_deleted(&self) -> HashSet<TransactionId> {
        self.locally_deleted.lock().clone()
    }

    /// Returns true if this node has locally garbage collected `id`.
    pub fn has_locally_deleted(&self, id: &TransactionId) -> bool {
        self.locally_deleted.lock().contains(id)
    }

    /// Forgets globally deleted transactions from the local tombstone set
    /// (called by the global GC after it has deleted their data).
    pub fn forget_deleted(&self, ids: &[TransactionId]) {
        let mut deleted = self.locally_deleted.lock();
        for id in ids {
            deleted.remove(id);
        }
    }

    /// Convenience wrapper binding a transaction to this node.
    pub fn transaction(self: &Arc<Self>) -> TransactionHandle {
        TransactionHandle::begin(Arc::clone(self))
    }
}

/// FNV-1a over `bytes`; disambiguates concurrent checkpointers' ids.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A convenience handle pairing an [`AftNode`] with one transaction ID.
///
/// Examples and application code read more naturally with a handle; the
/// underlying node API is unchanged (and is what the FaaS layer uses, since a
/// transaction handle cannot cross function boundaries — only the ID can).
pub struct TransactionHandle {
    node: Arc<AftNode>,
    id: TransactionId,
    finished: bool,
}

impl TransactionHandle {
    /// Starts a new transaction on `node`.
    pub fn begin(node: Arc<AftNode>) -> Self {
        let id = node.start_transaction();
        TransactionHandle {
            node,
            id,
            finished: false,
        }
    }

    /// The transaction's ID (pass it to the next function in a composition).
    pub fn id(&self) -> TransactionId {
        self.id
    }

    /// Reads `key` within this transaction.
    pub fn get(&self, key: impl Into<Key>) -> AftResult<Option<Value>> {
        self.node.get(&self.id, &key.into())
    }

    /// Reads several keys within this transaction, overlapping the storage
    /// fetches (see [`AftNode::get_all`]).
    pub fn get_all(&self, keys: &[Key]) -> AftResult<Vec<Option<Value>>> {
        self.node.get_all(&self.id, keys)
    }

    /// Writes `key` within this transaction.
    pub fn put(&self, key: impl Into<Key>, value: impl Into<Value>) -> AftResult<()> {
        self.node.put(&self.id, key.into(), value.into())
    }

    /// Commits the transaction and returns its final ID.
    pub fn commit(mut self) -> AftResult<TransactionId> {
        self.finished = true;
        self.node.commit(&self.id)
    }

    /// Aborts the transaction.
    pub fn abort(mut self) -> AftResult<()> {
        self.finished = true;
        self.node.abort(&self.id)
    }
}

impl Drop for TransactionHandle {
    fn drop(&mut self) {
        if !self.finished {
            // Dropping an unfinished handle aborts the transaction, mirroring
            // the timeout-abort a crashed function would eventually get.
            let _ = self.node.abort(&self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_storage::{BackendConfig, BackendKind, InMemoryStore, OpKind, StorageEngine};
    use aft_types::MockClock;
    use bytes::Bytes;

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn test_node() -> Arc<AftNode> {
        let storage: SharedStorage = InMemoryStore::shared();
        // A strictly increasing clock keeps commit order equal to timestamp
        // order, which makes version-selection assertions deterministic.
        AftNode::with_clock(
            NodeConfig::test(),
            storage,
            aft_types::clock::TickingClock::shared(1_000, 1),
        )
        .unwrap()
    }

    #[test]
    fn write_then_read_within_transaction() {
        let node = test_node();
        let t = node.start_transaction();
        assert!(node.get(&t, &Key::new("k")).unwrap().is_none());
        node.put(&t, Key::new("k"), val("v")).unwrap();
        // Read-your-writes before commit.
        assert_eq!(node.get(&t, &Key::new("k")).unwrap().unwrap(), val("v"));
        let committed = node.commit(&t).unwrap();
        assert_eq!(committed.uuid, t.uuid);

        // A later transaction sees the committed value.
        let t2 = node.start_transaction();
        assert_eq!(node.get(&t2, &Key::new("k")).unwrap().unwrap(), val("v"));
        node.commit(&t2).unwrap();
    }

    #[test]
    fn uncommitted_data_is_invisible_to_others() {
        let node = test_node();
        let writer = node.start_transaction();
        node.put(&writer, Key::new("k"), val("dirty")).unwrap();

        let reader = node.start_transaction();
        assert!(
            node.get(&reader, &Key::new("k")).unwrap().is_none(),
            "no dirty reads"
        );
        node.abort(&writer).unwrap();
        assert!(node.get(&reader, &Key::new("k")).unwrap().is_none());
    }

    #[test]
    fn abort_discards_updates() {
        let node = test_node();
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("v")).unwrap();
        node.abort(&t).unwrap();
        let t2 = node.start_transaction();
        assert!(node.get(&t2, &Key::new("k")).unwrap().is_none());
        // The aborted transaction is gone.
        assert!(matches!(
            node.get(&t, &Key::new("k")),
            Err(AftError::UnknownTransaction(_))
        ));
    }

    #[test]
    fn commit_writes_data_and_commit_record_to_storage() {
        let storage = InMemoryStore::shared();
        let shared: SharedStorage = storage.clone();
        let node = AftNode::with_clock(
            NodeConfig::test(),
            shared,
            MockClock::starting_at(5).shared(),
        )
        .unwrap();
        let t = node.start_transaction();
        node.put(&t, Key::new("a"), val("1")).unwrap();
        node.put(&t, Key::new("b"), val("2")).unwrap();
        let id = node.commit(&t).unwrap();

        let commits = node.storage().list_prefix("commit/").unwrap();
        assert_eq!(commits.len(), 1);
        assert!(commits[0].contains(&id.storage_suffix()));
        let data = node.storage().list_prefix("data/").unwrap();
        assert_eq!(data.len(), 2);
    }

    #[test]
    fn fractured_reads_are_prevented() {
        // T1 writes {l}; T2 writes {k, l}. A reader that saw k from T2 must
        // not see l from T1.
        let node = test_node();
        let t1 = node.start_transaction();
        node.put(&t1, Key::new("l"), val("l1")).unwrap();
        node.commit(&t1).unwrap();

        let t2 = node.start_transaction();
        node.put(&t2, Key::new("k"), val("k2")).unwrap();
        node.put(&t2, Key::new("l"), val("l2")).unwrap();
        node.commit(&t2).unwrap();

        let reader = node.start_transaction();
        assert_eq!(
            node.get(&reader, &Key::new("k")).unwrap().unwrap(),
            val("k2")
        );
        assert_eq!(
            node.get(&reader, &Key::new("l")).unwrap().unwrap(),
            val("l2"),
            "reading l1 would be a fractured read"
        );
    }

    #[test]
    fn repeatable_reads_across_concurrent_commits() {
        let node = test_node();
        let t1 = node.start_transaction();
        node.put(&t1, Key::new("k"), val("old")).unwrap();
        node.commit(&t1).unwrap();

        let reader = node.start_transaction();
        assert_eq!(
            node.get(&reader, &Key::new("k")).unwrap().unwrap(),
            val("old")
        );

        // Another transaction commits a newer version mid-flight.
        let t2 = node.start_transaction();
        node.put(&t2, Key::new("k"), val("new")).unwrap();
        node.commit(&t2).unwrap();

        assert_eq!(
            node.get(&reader, &Key::new("k")).unwrap().unwrap(),
            val("old"),
            "repeatable read"
        );
    }

    #[test]
    fn staleness_can_force_no_valid_version() {
        // §3.6: Tr reads l1, then T2:{k,l} commits, and k only has the version
        // cowritten with l2 — the read of k must fail rather than fracture.
        let node = test_node();
        let t1 = node.start_transaction();
        node.put(&t1, Key::new("l"), val("l1")).unwrap();
        node.commit(&t1).unwrap();

        let reader = node.start_transaction();
        assert_eq!(
            node.get(&reader, &Key::new("l")).unwrap().unwrap(),
            val("l1")
        );

        let t2 = node.start_transaction();
        node.put(&t2, Key::new("k"), val("k2")).unwrap();
        node.put(&t2, Key::new("l"), val("l2")).unwrap();
        node.commit(&t2).unwrap();

        match node.get(&reader, &Key::new("k")) {
            Err(AftError::NoValidVersion { key, .. }) => assert_eq!(key.as_str(), "k"),
            other => panic!("expected NoValidVersion, got {other:?}"),
        }
        assert_eq!(node.stats().no_valid_version_aborts(), 1);
    }

    #[test]
    fn write_buffer_spill_keeps_data_invisible_until_commit() {
        let storage = InMemoryStore::shared();
        let shared: SharedStorage = storage.clone();
        let config = NodeConfig {
            write_buffer_spill_bytes: 8, // spill after ~8 buffered bytes
            ..NodeConfig::test()
        };
        let node = AftNode::with_clock(config, shared, MockClock::starting_at(1).shared()).unwrap();

        let t = node.start_transaction();
        node.put(&t, Key::new("big"), val("0123456789abcdef"))
            .unwrap();
        // The intermediary data has been spilled to storage...
        assert_eq!(storage.list_prefix("data/").unwrap().len(), 1);
        // ...but no commit record exists and other transactions cannot see it.
        let reader = node.start_transaction();
        assert!(node.get(&reader, &Key::new("big")).unwrap().is_none());
        // The writer still reads its own write.
        assert_eq!(
            node.get(&t, &Key::new("big")).unwrap().unwrap(),
            val("0123456789abcdef")
        );
        node.commit(&t).unwrap();
        let reader2 = node.start_transaction();
        assert!(node.get(&reader2, &Key::new("big")).unwrap().is_some());
    }

    #[test]
    fn spilled_then_committed_data_leaves_only_final_versions() {
        let storage = InMemoryStore::shared();
        let config = NodeConfig {
            write_buffer_spill_bytes: 8,
            ..NodeConfig::test()
        };
        // The clock advances between start and commit, so the start id and
        // the final id differ in their timestamps.
        let clock = MockClock::starting_at(10);
        let node =
            AftNode::with_clock(config, storage.clone() as SharedStorage, clock.shared()).unwrap();
        let t = node.start_transaction();
        node.put(&t, Key::new("a"), val("0123456789abcdef"))
            .unwrap();
        node.put(&t, Key::new("b"), val("fedcba9876543210"))
            .unwrap();
        node.put(&t, Key::new("a"), val("rewritten-after-spill"))
            .unwrap();
        clock.advance(90);
        let id = node.commit(&t).unwrap();
        assert_ne!(id.timestamp, t.timestamp);

        let mut data = storage.list_prefix("data/").unwrap();
        data.sort();
        let mut expected: Vec<String> = ["a", "b"]
            .iter()
            .map(|k| KeyVersion::new(Key::new(*k), id).storage_key())
            .collect();
        expected.sort();
        assert_eq!(data, expected, "no spilled copy outlives the commit");
        let a = storage.get(&expected[0]).unwrap().unwrap();
        assert_eq!(a, val("rewritten-after-spill"));
    }

    #[test]
    fn abort_cleans_up_spilled_data() {
        let storage = InMemoryStore::shared();
        let shared: SharedStorage = storage.clone();
        let config = NodeConfig {
            write_buffer_spill_bytes: 4,
            ..NodeConfig::test()
        };
        let node = AftNode::with_clock(config, shared, MockClock::starting_at(1).shared()).unwrap();
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("spilled-data")).unwrap();
        assert_eq!(storage.list_prefix("data/").unwrap().len(), 1);
        node.abort(&t).unwrap();
        assert!(storage.list_prefix("data/").unwrap().is_empty());
    }

    #[test]
    fn bootstrap_recovers_committed_state() {
        let storage: SharedStorage = InMemoryStore::shared();
        let clock = MockClock::starting_at(100);
        {
            let node =
                AftNode::with_clock(NodeConfig::test(), storage.clone(), clock.shared()).unwrap();
            let t = node.start_transaction();
            node.put(&t, Key::new("k"), val("durable")).unwrap();
            node.commit(&t).unwrap();
            // Node "fails" here (dropped).
        }
        // A replacement node bootstraps from the Transaction Commit Set.
        let node2 = AftNode::with_clock(NodeConfig::test(), storage, clock.shared()).unwrap();
        let t = node2.start_transaction();
        assert_eq!(
            node2.get(&t, &Key::new("k")).unwrap().unwrap(),
            val("durable")
        );
    }

    #[test]
    fn commit_timestamps_come_from_the_clock() {
        let storage: SharedStorage = InMemoryStore::shared();
        let clock = MockClock::starting_at(1_000);
        let node = AftNode::with_clock(NodeConfig::test(), storage, clock.shared()).unwrap();
        let t = node.start_transaction();
        clock.advance(500);
        node.put(&t, Key::new("k"), val("v")).unwrap();
        let committed = node.commit(&t).unwrap();
        assert_eq!(committed.timestamp, 1_500);
        assert_eq!(committed.uuid, t.uuid);
    }

    #[test]
    fn read_only_commit_is_acked_without_storage_io() {
        let storage = InMemoryStore::shared();
        let clock = MockClock::starting_at(1_000);
        let node = AftNode::with_clock(
            NodeConfig::test(),
            storage.clone() as SharedStorage,
            clock.shared(),
        )
        .unwrap();
        let writer = node.start_transaction();
        node.put(&writer, Key::new("k"), val("v")).unwrap();
        node.commit(&writer).unwrap();
        let records_before = node.metadata().len();
        let drained = node.drain_recent_commits();
        assert_eq!(drained.len(), 1, "the writer's record is disseminated");
        let committed_before = node.stats().committed();
        let calls_before: Vec<u64> = OpKind::ALL
            .iter()
            .map(|&op| storage.stats().calls(op))
            .collect();

        let t = node.start_transaction();
        assert_eq!(node.get(&t, &Key::new("k")).unwrap().unwrap(), val("v"));
        assert!(node.get(&t, &Key::new("missing")).unwrap().is_none());
        clock.advance(250);
        let id = node.commit(&t).unwrap();

        // The final id is stamped from the clock and keeps the UUID.
        assert_eq!(id.timestamp, 1_250);
        assert_eq!(id.uuid, t.uuid);
        assert_eq!(node.stats().committed(), committed_before + 1);
        // No storage call of any kind: the read hit the data cache and the
        // commit wrote no record.
        for (op, before) in OpKind::ALL.iter().zip(calls_before) {
            assert_eq!(storage.stats().calls(*op), before, "{op:?} calls");
        }
        assert!(storage
            .get(&TransactionRecord::storage_key_for(&id))
            .unwrap()
            .is_none());
        // Nothing to cache, disseminate or checkpoint.
        assert_eq!(node.metadata().len(), records_before);
        assert!(!node.metadata().is_committed(&id));
        assert!(node.drain_recent_commits().is_empty());
        assert_eq!(node.in_flight(), 0);
        // The transaction is finished: a second commit finds nothing.
        assert!(matches!(
            node.commit(&t),
            Err(AftError::UnknownTransaction(_))
        ));
    }

    #[test]
    fn peer_commits_become_visible_unless_superseded() {
        let node = test_node();
        // A peer committed k at t=9999.
        let peer_new = Arc::new(TransactionRecord::new(
            TransactionId::new(9_999, Uuid::from_u128(1)),
            vec![Key::new("peer-key")],
        ));
        node.receive_peer_commits([Arc::clone(&peer_new)]);
        assert!(node.metadata().is_committed(&peer_new.id));

        // An older peer commit of the same key is superseded and ignored.
        let peer_old = Arc::new(TransactionRecord::new(
            TransactionId::new(10, Uuid::from_u128(2)),
            vec![Key::new("peer-key")],
        ));
        node.receive_peer_commits([Arc::clone(&peer_old)]);
        assert!(!node.metadata().is_committed(&peer_old.id));
        assert_eq!(node.stats().peer_commits(), 1);
    }

    #[test]
    fn drain_recent_commits_hands_records_to_the_multicaster() {
        let node = test_node();
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("v")).unwrap();
        let id = node.commit(&t).unwrap();
        let drained = node.drain_recent_commits();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].id, id);
        assert!(
            node.drain_recent_commits().is_empty(),
            "drain is destructive"
        );
    }

    #[test]
    fn local_gc_removes_superseded_transactions_only() {
        let node = test_node();
        for i in 0..3 {
            let t = node.start_transaction();
            node.put(&t, Key::new("hot"), val(&format!("v{i}")))
                .unwrap();
            node.commit(&t).unwrap();
        }
        assert_eq!(node.metadata().len(), 3);
        let outcome = node.run_local_gc(&LocalGcConfig::default());
        // The two older versions are superseded; the newest survives.
        assert_eq!(outcome.deleted, 2);
        assert_eq!(node.metadata().len(), 1);
        assert_eq!(node.locally_deleted().len(), 2);
        assert_eq!(node.stats().gc_deleted(), 2);
    }

    #[test]
    fn local_gc_spares_transactions_with_active_readers() {
        let node = test_node();
        let t1 = node.start_transaction();
        node.put(&t1, Key::new("k"), val("old")).unwrap();
        let committed_old = node.commit(&t1).unwrap();

        // A long-running reader depends on the old version.
        let reader = node.start_transaction();
        assert_eq!(
            node.get(&reader, &Key::new("k")).unwrap().unwrap(),
            val("old")
        );

        let t2 = node.start_transaction();
        node.put(&t2, Key::new("k"), val("new")).unwrap();
        node.commit(&t2).unwrap();

        let outcome = node.run_local_gc(&LocalGcConfig::default());
        assert_eq!(outcome.deleted, 0);
        assert_eq!(outcome.retained_for_readers, 1);
        assert!(node.metadata().is_committed(&committed_old));

        // Once the reader commits, the old version can go. The read-only
        // reader left no record of its own to collect.
        node.commit(&reader).unwrap();
        let outcome = node.run_local_gc(&LocalGcConfig::default());
        assert_eq!(outcome.deleted, 1, "only the old k version");
    }

    #[test]
    fn expired_transactions_are_aborted() {
        let storage: SharedStorage = InMemoryStore::shared();
        let config = NodeConfig {
            transaction_timeout: Duration::ZERO,
            ..NodeConfig::test()
        };
        let node =
            AftNode::with_clock(config, storage, MockClock::starting_at(1).shared()).unwrap();
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("v")).unwrap();
        let aborted = node.abort_expired();
        assert_eq!(aborted, vec![t]);
        assert_eq!(node.in_flight(), 0);
        assert_eq!(node.stats().aborted(), 1);
    }

    #[test]
    fn transaction_handle_commits_and_aborts() {
        let node = test_node();
        let txn = node.transaction();
        txn.put("k", val("v")).unwrap();
        assert_eq!(txn.get("k").unwrap().unwrap(), val("v"));
        txn.commit().unwrap();

        let txn2 = node.transaction();
        txn2.put("k", val("doomed")).unwrap();
        txn2.abort().unwrap();

        let txn3 = node.transaction();
        assert_eq!(txn3.get("k").unwrap().unwrap(), val("v"));
        drop(txn3); // implicit abort of the read-only handle
        assert_eq!(node.in_flight(), 0);
    }

    #[test]
    fn works_over_every_simulated_backend() {
        for kind in [BackendKind::S3, BackendKind::DynamoDb, BackendKind::Redis] {
            let storage = aft_storage::make_backend(BackendConfig::test(kind));
            let node = AftNode::with_clock(
                NodeConfig::test(),
                storage,
                MockClock::starting_at(1).shared(),
            )
            .unwrap();
            let t = node.start_transaction();
            node.put(&t, Key::new("k"), val("v")).unwrap();
            node.commit(&t).unwrap();
            let t2 = node.start_transaction();
            assert_eq!(
                node.get(&t2, &Key::new("k")).unwrap().unwrap(),
                val("v"),
                "backend {kind}"
            );
        }
    }

    #[test]
    fn ensure_transaction_is_idempotent() {
        let node = test_node();
        let t = node.start_transaction();
        node.ensure_transaction(t);
        assert_eq!(node.in_flight(), 1);
        node.abort(&t).unwrap();
        // A retry can re-register the same ID after the state was lost.
        node.ensure_transaction(t);
        assert_eq!(node.in_flight(), 1);
        node.put(&t, Key::new("k"), val("v")).unwrap();
        node.commit(&t).unwrap();
    }

    #[test]
    fn get_all_overlaps_fetches_and_respects_buffered_writes() {
        let storage: SharedStorage = InMemoryStore::shared();
        // No data cache: every committed read must hit storage.
        let node = AftNode::with_clock(
            NodeConfig::test_without_cache(),
            storage,
            aft_types::clock::TickingClock::shared(1_000, 1),
        )
        .unwrap();
        let writer = node.start_transaction();
        for i in 0..6 {
            node.put(&writer, Key::new(format!("k{i}")), val(&format!("v{i}")))
                .unwrap();
        }
        node.commit(&writer).unwrap();

        let reader = node.start_transaction();
        node.put(&reader, Key::new("own"), val("mine")).unwrap();
        let keys: Vec<Key> = (0..6)
            .map(|i| Key::new(format!("k{i}")))
            .chain([Key::new("own"), Key::new("missing")])
            .collect();
        let values = node.get_all(&reader, &keys).unwrap();
        for i in 0..6 {
            assert_eq!(values[i].as_ref().unwrap(), &val(&format!("v{i}")));
        }
        assert_eq!(
            values[6].as_ref().unwrap(),
            &val("mine"),
            "read-your-writes"
        );
        assert!(values[7].is_none(), "missing key reads NULL");
        // The six committed keys were fetched from storage in one overlapped
        // barrier and recorded as one latency sample.
        assert_eq!(node.stats().reads_from_storage(), 6);
        assert_eq!(node.stats().read_storage_latency().len(), 1);
        // Every fetched version entered the read set.
        let repeat = node.get_all(&reader, &keys[..6]).unwrap();
        assert_eq!(repeat.len(), 6);
        node.commit(&reader).unwrap();
    }

    #[test]
    fn get_all_never_fractures_across_cowritten_keys() {
        // T1 writes {l}; T2 writes {k, l}. A get_all of [k, l] must return
        // the cowritten pair — the sequential version selection inside
        // get_all records k's choice before selecting l.
        let node = test_node();
        let t1 = node.start_transaction();
        node.put(&t1, Key::new("l"), val("l1")).unwrap();
        node.commit(&t1).unwrap();
        let t2 = node.start_transaction();
        node.put(&t2, Key::new("k"), val("k2")).unwrap();
        node.put(&t2, Key::new("l"), val("l2")).unwrap();
        node.commit(&t2).unwrap();

        let reader = node.start_transaction();
        let values = node
            .get_all(&reader, &[Key::new("k"), Key::new("l")])
            .unwrap();
        assert_eq!(values[0].as_ref().unwrap(), &val("k2"));
        assert_eq!(
            values[1].as_ref().unwrap(),
            &val("l2"),
            "returning l1 next to k2 would be a fractured read"
        );
    }

    /// A probe that crashes the node at one phase, recording every phase it
    /// observed first.
    struct CrashAt {
        phase: CommitPhase,
        seen: Mutex<Vec<CommitPhase>>,
    }

    impl CrashAt {
        fn new(phase: CommitPhase) -> Arc<Self> {
            Arc::new(CrashAt {
                phase,
                seen: Mutex::new(Vec::new()),
            })
        }
    }

    impl CommitProbe for CrashAt {
        fn before_phase(
            &self,
            node_id: &str,
            _txid: &TransactionId,
            phase: CommitPhase,
        ) -> AftResult<()> {
            self.seen.lock().push(phase);
            if phase == self.phase {
                Err(AftError::Unavailable(format!(
                    "chaos: {node_id} crashed {}",
                    phase.label()
                )))
            } else {
                Ok(())
            }
        }
    }

    /// A probe that never crashes (observes phases only).
    struct Observe(Mutex<Vec<CommitPhase>>);

    impl CommitProbe for Observe {
        fn before_phase(
            &self,
            _node_id: &str,
            _txid: &TransactionId,
            phase: CommitPhase,
        ) -> AftResult<()> {
            self.0.lock().push(phase);
            Ok(())
        }
    }

    #[test]
    fn commit_probe_observes_every_phase_in_protocol_order() {
        let node = test_node();
        let probe = Arc::new(Observe(Mutex::new(Vec::new())));
        node.install_commit_probe(Arc::clone(&probe) as Arc<dyn CommitProbe>);
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("v")).unwrap();
        node.commit(&t).unwrap();
        assert_eq!(probe.0.lock().as_slice(), &CommitPhase::ALL);
        // The probed path still commits durably and visibly.
        let t2 = node.start_transaction();
        assert_eq!(node.get(&t2, &Key::new("k")).unwrap().unwrap(), val("v"));
        // Clearing the probe restores the batched path.
        node.clear_commit_probe();
        let t3 = node.start_transaction();
        node.put(&t3, Key::new("k2"), val("v2")).unwrap();
        node.commit(&t3).unwrap();
        assert_eq!(probe.0.lock().len(), 3, "no phases after clearing");
    }

    #[test]
    fn read_only_commit_still_passes_every_probe_phase() {
        let storage = InMemoryStore::shared();
        let node = AftNode::with_clock(
            NodeConfig::test(),
            storage.clone() as SharedStorage,
            MockClock::starting_at(1).shared(),
        )
        .unwrap();
        // The bootstrap scan's calls are the baseline.
        let calls = storage.stats().total_calls();
        let probe = Arc::new(Observe(Mutex::new(Vec::new())));
        node.install_commit_probe(Arc::clone(&probe) as Arc<dyn CommitProbe>);
        let t = node.start_transaction();
        assert!(node.get(&t, &Key::new("missing")).unwrap().is_none());
        node.commit(&t).unwrap();
        assert_eq!(probe.0.lock().as_slice(), &CommitPhase::ALL);
        assert_eq!(
            storage.stats().total_calls(),
            calls,
            "no I/O between phases"
        );

        // A crash at any phase refuses the read-only commit.
        for phase in CommitPhase::ALL {
            node.install_commit_probe(CrashAt::new(phase));
            let t = node.start_transaction();
            let err = node.commit(&t).unwrap_err();
            assert!(matches!(err, AftError::Unavailable(_)), "{phase:?}");
        }
        assert_eq!(node.stats().committed(), 1);
        assert_eq!(storage.stats().total_calls(), calls);
    }

    #[test]
    fn crash_before_data_put_leaves_storage_untouched() {
        let storage = InMemoryStore::shared();
        let node = AftNode::with_clock(
            NodeConfig::test(),
            storage.clone() as SharedStorage,
            MockClock::starting_at(1).shared(),
        )
        .unwrap();
        node.install_commit_probe(CrashAt::new(CommitPhase::BeforeDataPut));
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("v")).unwrap();
        let err = node.commit(&t).unwrap_err();
        assert!(matches!(err, AftError::Unavailable(_)));
        assert!(storage.list_prefix("data/").unwrap().is_empty());
        assert!(storage.list_prefix("commit/").unwrap().is_empty());
        // The crash lost the in-memory transaction (write buffer gone).
        assert_eq!(node.in_flight(), 0);
    }

    #[test]
    fn crash_before_record_append_orphans_invisible_data() {
        let storage = InMemoryStore::shared();
        let node = AftNode::with_clock(
            NodeConfig::test(),
            storage.clone() as SharedStorage,
            MockClock::starting_at(1).shared(),
        )
        .unwrap();
        node.install_commit_probe(CrashAt::new(CommitPhase::BeforeRecordAppend));
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("v")).unwrap();
        assert!(node.commit(&t).is_err());
        // Data is durable but unreferenced: no commit record, so no reader
        // can ever observe it (no dirty reads even across the crash).
        assert_eq!(storage.list_prefix("data/").unwrap().len(), 1);
        assert!(storage.list_prefix("commit/").unwrap().is_empty());
        let reader = node.start_transaction();
        assert!(node.get(&reader, &Key::new("k")).unwrap().is_none());
    }

    #[test]
    fn crash_before_broadcast_commits_durably_but_silently() {
        let storage = InMemoryStore::shared();
        let clock = MockClock::starting_at(1);
        let node = AftNode::with_clock(
            NodeConfig::test(),
            storage.clone() as SharedStorage,
            clock.shared(),
        )
        .unwrap();
        node.install_commit_probe(CrashAt::new(CommitPhase::BeforeBroadcast));
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("v")).unwrap();
        assert!(node.commit(&t).is_err(), "the ack was lost with the node");
        // The §4.2 scenario: record durable, but the crashed node never made
        // it visible or multicast it.
        assert_eq!(storage.list_prefix("commit/").unwrap().len(), 1);
        assert!(node.drain_recent_commits().is_empty());
        let reader = node.start_transaction();
        assert!(node.get(&reader, &Key::new("k")).unwrap().is_none());
        // A bootstrapping replacement recovers the commit from storage.
        let replacement =
            AftNode::with_clock(NodeConfig::test(), storage as SharedStorage, clock.shared())
                .unwrap();
        let t2 = replacement.start_transaction();
        assert_eq!(
            replacement.get(&t2, &Key::new("k")).unwrap().unwrap(),
            val("v")
        );
    }

    #[test]
    fn data_cache_serves_repeat_reads() {
        let node = test_node();
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("v")).unwrap();
        node.commit(&t).unwrap();

        let r1 = node.start_transaction();
        node.get(&r1, &Key::new("k")).unwrap();
        let r2 = node.start_transaction();
        node.get(&r2, &Key::new("k")).unwrap();
        // The commit inserted the value into the cache, so no storage reads
        // were needed at all.
        assert_eq!(node.stats().reads_from_storage(), 0);
        assert!(node.stats().reads_from_data_cache() >= 2);
    }

    fn commit_n(node: &Arc<AftNode>, n: usize, key: &str) {
        for i in 0..n {
            let t = node.start_transaction();
            node.put(&t, Key::new(key), val(&format!("v{i}"))).unwrap();
            node.commit(&t).unwrap();
        }
    }

    #[test]
    fn checkpoint_policy_knobs() {
        assert!(!CheckpointPolicy::disabled().is_enabled());
        assert!(!CheckpointPolicy::default().is_enabled());
        assert!(CheckpointPolicy::every_commits(10).is_enabled());
        assert!(CheckpointPolicy::every_duration(Duration::from_secs(1)).is_enabled());
        // every_commits(0) clamps to 1: an enabled policy always fires.
        assert_eq!(CheckpointPolicy::every_commits(0).every_commits, 1);
    }

    #[test]
    fn maybe_checkpoint_fires_on_commit_count_and_rearms() {
        let storage: SharedStorage = InMemoryStore::shared();
        let node = AftNode::with_clock(
            NodeConfig::test().with_checkpoint(CheckpointPolicy::every_commits(3)),
            storage,
            aft_types::clock::TickingClock::shared(1_000, 1),
        )
        .unwrap();
        commit_n(&node, 2, "k");
        assert!(node.maybe_checkpoint(false).unwrap().is_none(), "not due");
        commit_n(&node, 1, "k");
        let outcome = node.maybe_checkpoint(false).unwrap().expect("due");
        assert_eq!(outcome.write.records, 3);
        assert!(outcome.compaction.is_none());
        // The counter was reset: not due again until 3 more commits.
        assert!(node.maybe_checkpoint(false).unwrap().is_none());
    }

    #[test]
    fn checkpoint_and_compaction_preserve_bootstrap_state() {
        let storage: SharedStorage = InMemoryStore::shared();
        let clock = aft_types::clock::TickingClock::shared(1_000, 1);
        let node = AftNode::with_clock(NodeConfig::test(), storage.clone(), clock.clone()).unwrap();
        for i in 0..8 {
            let t = node.start_transaction();
            node.put(&t, Key::new(format!("k{}", i % 4)), val("x"))
                .unwrap();
            node.commit(&t).unwrap();
        }
        let before = node.storage().list_prefix("commit/").unwrap().len();
        assert_eq!(before, 8);

        let outcome = node.checkpoint_now(true).unwrap();
        let compaction = outcome.compaction.expect("compaction requested");
        assert!(compaction.deleted_covered > 0 || compaction.deleted_superseded > 0);
        let after = node.storage().list_prefix("commit/").unwrap().len();
        assert!(after < before, "compaction must shrink the commit log");

        // A cold replacement on the same storage reaches the same state.
        let replacement = AftNode::with_clock(NodeConfig::test(), storage, clock).unwrap();
        for i in 0..4 {
            let key = Key::new(format!("k{i}"));
            assert_eq!(
                replacement.metadata().latest_version_of(&key),
                node.metadata().latest_version_of(&key),
                "checkpoint+tail bootstrap must match the live node for {key:?}"
            );
        }
    }

    #[test]
    fn crash_during_checkpoint_write_leaves_previous_checkpoint_live() {
        let storage: SharedStorage = InMemoryStore::shared();
        let node = AftNode::with_clock(
            NodeConfig::test(),
            storage,
            aft_types::clock::TickingClock::shared(1_000, 1),
        )
        .unwrap();
        commit_n(&node, 3, "k");
        let first = node.checkpoint_now(false).unwrap();

        commit_n(&node, 3, "k");
        node.install_commit_probe(CrashAt::new(CommitPhase::DuringCheckpointWrite));
        let err = node.checkpoint_now(false).unwrap_err();
        assert!(matches!(err, AftError::Unavailable(_)));
        node.clear_commit_probe();

        // Chunks of the torn checkpoint may exist, but the manifest pointer
        // was never published: a loader still sees the first checkpoint.
        let load = aft_storage::load_latest_checkpoint(node.io()).unwrap();
        let live = load.checkpoint.expect("previous checkpoint live");
        assert_eq!(live.id, first.write.id);

        // After the crash clears, checkpointing succeeds and supersedes it.
        let second = node.checkpoint_now(false).unwrap();
        assert!(second.write.id > first.write.id);
        let load = aft_storage::load_latest_checkpoint(node.io()).unwrap();
        assert_eq!(load.checkpoint.unwrap().id, second.write.id);
    }

    #[test]
    fn checkpoint_ids_are_monotonic_per_node() {
        let node = test_node();
        commit_n(&node, 1, "k");
        let a = node.checkpoint_now(false).unwrap();
        let b = node.checkpoint_now(false).unwrap();
        let c = node.checkpoint_now(false).unwrap();
        assert!(a.write.id < b.write.id && b.write.id < c.write.id);
    }
}
