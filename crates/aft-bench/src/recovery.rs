//! `fig10_recovery`: the chaos scenario matrix — does AFT keep read
//! atomicity and liveness *through* failures?
//!
//! The paper's Figure 10 shows throughput across one node failure; this
//! experiment asks the stronger question its guarantees imply: for every
//! combination of **fault mode** (seeded transient storage errors, storage
//! timeouts, a slow-stripe gray failure, aft-net connection faults over
//! real loopback sockets, or *every layer at once*), **node-kill point**
//! (the three commit-phase crashes of [`CommitPhase`]), and **backend
//! profile**, does the cluster
//!
//! * serve only Atomic Readsets (zero fractured reads / read-your-writes
//!   violations, §3.2) while the faults are firing,
//! * lose **no committed transaction** — every commit record durable in
//!   storage is visible on every node after recovery, including commits
//!   whose acknowledgement and broadcast died with their node (§4.2), and
//! * converge, with measurable time-to-recovery (fault-manager scan →
//!   standby replacement, §6.7)?
//!
//! Every cell runs `trials` seeded trials on the virtual clock
//! (`LatencyMode::Virtual` at full scale): client threads hammer a small
//! cluster through a [`FaultyBackend`] while a [`ChaosController`] kills one
//! node mid-commit, then the controller drives recovery and the trial
//! verifies the invariants against ground truth read straight from storage.
//! Every layer's faults in a trial — storage, network, platform, and the
//! kill itself — derive from one [`ChaosSpec`] seed, so
//! `fig10_recovery --seed N` replays a failing trial bit-identically across
//! all layers.
//! Results land in `BENCH_recovery.json`; [`RecoveryReport::check_gate`]
//! fails on any anomaly, lost commit, unrecovered commit, or
//! non-convergence — which CI enforces on every PR.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use aft_chaos::{ChaosSpec, FaasChaos, KillPlan, NetChaos, PartitionChaos, StorageChaos};
use aft_cluster::{ChaosController, Cluster, ClusterConfig, DisseminationConfig};
use aft_core::bootstrap::fetch_commit_records;
use aft_core::read::is_atomic_readset;
use aft_core::{is_superseded, AftNode, CommitPhase, NodeConfig};
use aft_faas::{FailureInjector, FailurePoint};
use aft_storage::chaos::FaultyBackend;
use aft_storage::{
    BackendConfig, BackendKind, LatencyMode, LatencyModel, SharedStorage, DEFAULT_STRIPES,
};
use aft_types::clock::TickingClock;
use aft_types::{AftError, Key, TransactionId, TransactionRecord, Value};

use crate::json::Json;
use crate::report::{percentile, Table};

/// The fault modes of the matrix: three storage-side modes, one
/// network-side mode, and one cross-layer mode that fires every layer of
/// the unified [`ChaosSpec`] in the same trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultMode {
    /// Seeded transient errors: requests dropped, half of them applied
    /// before the acknowledgement is lost (duplicate-on-retry).
    Transient,
    /// Seeded timeouts: the deadline latency is charged, then the request
    /// fails transiently.
    Timeout,
    /// Gray failure: one stripe of the keyspace is persistently slow;
    /// nothing errors.
    SlowStripe,
    /// Network faults: clients reach the cluster through the aft-net
    /// service layer over real loopback sockets, with seeded connection
    /// resets (before send, and after send in the lost-ack window) and
    /// delayed acknowledgements injected at the SDK. Storage stays clean;
    /// the node kill still fires mid-commit.
    Network,
    /// Every layer at once, from one seed: seeded transient storage errors
    /// under the nodes, connection resets and delayed acks at the SDK, and
    /// platform failure points around the request bodies (invocations dying
    /// before their body, between their two writes — the §1 fractional
    /// update — or after the body with the acknowledgement lost), plus the
    /// node kill. The single-layer modes prove each injector alone; this
    /// mode proves they compose, and that one `--seed` replays them all.
    CrossLayer,
    /// Metadata-plane partition: the cluster disseminates commit metadata
    /// over a spanning tree while a seeded edge-cut severs half the tree's
    /// links for a window of rounds, parking deliveries on retry queues.
    /// The node kill still fires mid-commit. Recovery must drain every
    /// parked batch after the heal — a partition may *delay* metadata but
    /// can never lose it.
    Partition,
}

impl FaultMode {
    /// Every mode, in report order.
    pub const ALL: [FaultMode; 6] = [
        FaultMode::Transient,
        FaultMode::Timeout,
        FaultMode::SlowStripe,
        FaultMode::Network,
        FaultMode::CrossLayer,
        FaultMode::Partition,
    ];

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultMode::Transient => "transient_errors",
            FaultMode::Timeout => "timeouts",
            FaultMode::SlowStripe => "slow_stripe",
            FaultMode::Network => "network_resets",
            FaultMode::CrossLayer => "cross_layer",
            FaultMode::Partition => "partition",
        }
    }

    /// Parses a report label back into a mode (`--mode` on the binary).
    pub fn from_label(label: &str) -> Option<FaultMode> {
        FaultMode::ALL.iter().copied().find(|m| m.label() == label)
    }

    /// The unified fault schedule of this mode for one trial seed. Every
    /// leg an injector consumes in the trial comes from this one spec, so
    /// replaying the seed replays every layer.
    fn chaos_spec(&self, seed: u64) -> ChaosSpec {
        let spec = ChaosSpec::new(seed);
        match self {
            // 8% of ops fail transiently: heavy enough that every trial
            // exercises the retry path, light enough that the default
            // 4-attempt budget absorbs nearly all of it.
            FaultMode::Transient => spec.storage(StorageChaos::transient_errors(0.08)),
            // 5% of ops time out after a charged 30ms deadline.
            FaultMode::Timeout => spec.storage(StorageChaos::timeouts(0.05, 30_000.0)),
            // One of 16 stripes pays +20ms per op.
            FaultMode::SlowStripe => spec.storage(StorageChaos::slow_stripe(
                (seed % DEFAULT_STRIPES as u64) as usize,
                DEFAULT_STRIPES,
                20_000.0,
            )),
            // Network mode injects at the connection, not at storage.
            FaultMode::Network => spec.net(NetChaos::resets_and_delays(
                0.06,
                0.03,
                Duration::from_millis(1),
            )),
            // All layers, each at roughly half its single-layer rate so the
            // compounded retry pressure stays inside the budgets.
            FaultMode::CrossLayer => spec
                .storage(StorageChaos::transient_errors(0.04))
                .net(NetChaos::resets_and_delays(
                    0.04,
                    0.02,
                    Duration::from_millis(1),
                ))
                .faas(FaasChaos::uniform(0.06)),
            // Half the dissemination edges go dark for rounds [0, 6) after
            // arming — long enough that live commit traffic parks on the
            // cut, short enough that the heal lands well inside the
            // recovery drive's round budget.
            FaultMode::Partition => spec.partition(PartitionChaos::cut(0.5, 0, 6)),
        }
    }
}

/// Configuration of the recovery matrix.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Fault modes (matrix axis 1): storage-side and/or network-side.
    pub fault_modes: Vec<FaultMode>,
    /// Commit-phase kill points (matrix axis 2).
    pub kill_points: Vec<CommitPhase>,
    /// Backend profiles (matrix axis 3).
    pub backends: Vec<BackendKind>,
    /// Seeded trials per cell; recovery p50/p99 are computed over these.
    pub trials: usize,
    /// Logical client requests per trial (acknowledged commits target).
    pub requests_per_trial: usize,
    /// Concurrent client threads per trial.
    pub clients: usize,
    /// Cluster size per trial (one node gets killed).
    pub nodes: usize,
    /// Base RNG seed; each (cell, trial) derives its own.
    pub seed: u64,
}

impl RecoveryConfig {
    /// The full matrix: 6 fault modes (3 storage, network, cross-layer,
    /// and metadata partition) × 5 kill points (the 3 commit phases plus
    /// the 2 checkpoint phases) × the 3 evaluated backends = 90 cells,
    /// 3 trials each.
    pub fn standard() -> Self {
        let mut kill_points = CommitPhase::ALL.to_vec();
        kill_points.extend(CommitPhase::CHECKPOINT);
        RecoveryConfig {
            fault_modes: FaultMode::ALL.to_vec(),
            kill_points,
            backends: BackendKind::EVALUATED.to_vec(),
            trials: 3,
            requests_per_trial: 48,
            clients: 4,
            nodes: 3,
            seed: 0xF1610,
        }
    }

    /// The CI configuration: the same ≥ 9-cell guarantee (6 fault modes × 3
    /// kill points) with one backend per fault mode and fewer trials, so the
    /// chaos gate stays well under a minute.
    pub fn fast() -> Self {
        RecoveryConfig {
            trials: 2,
            requests_per_trial: 32,
            backends: vec![BackendKind::DynamoDb],
            ..RecoveryConfig::standard()
        }
    }

    /// Number of matrix cells.
    pub fn cells(&self) -> usize {
        self.fault_modes.len() * self.kill_points.len() * self.backends.len()
    }
}

/// What one trial observed (all invariant counters must end at zero).
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialResult {
    /// Commits acknowledged to clients.
    pub acknowledged: usize,
    /// Commit records durable in storage (ground truth, includes silent
    /// commits whose ack died with their node).
    pub durable_commits: usize,
    /// Commits the fault manager recovered from storage during the drive.
    pub recovered_commits: u64,
    /// Nodes replaced by standbys.
    pub replaced_nodes: usize,
    /// Read-atomicity anomalies observed by clients (fractured reads +
    /// read-your-writes violations). Must be zero.
    pub anomalies: u64,
    /// Acknowledged commits with no durable record. Must be zero.
    pub lost_acks: usize,
    /// (record, node) pairs where a durable commit is missing from an active
    /// node's metadata after recovery. Must be zero.
    pub unrecovered: usize,
    /// Whether recovery converged within its round budget.
    pub converged: bool,
    /// Wall-clock time from the kill (or drive start) to convergence, ms.
    pub recovery_ms: f64,
    /// Maintenance rounds the recovery drive took.
    pub rounds: usize,
    /// Transient-fault retries absorbed by the I/O engines.
    pub io_retries: u64,
    /// Whole-transaction retries performed by clients.
    pub client_retries: u64,
    /// Faults the chaos backend injected (errors + timeouts).
    pub faults_injected: u64,
}

/// One matrix cell's aggregated trials.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Backend label.
    pub backend: String,
    /// Fault-mode label.
    pub fault_mode: String,
    /// Kill-point label.
    pub kill_point: String,
    /// Per-trial results.
    pub trials: Vec<TrialResult>,
}

impl CellReport {
    fn recovery_percentile_ms(&self, p: f64) -> f64 {
        let mut times: Vec<f64> = self.trials.iter().map(|t| t.recovery_ms).collect();
        times.sort_by(f64::total_cmp);
        percentile(&times, p)
    }

    /// Median time-to-recovery across the cell's trials, milliseconds.
    pub fn recovery_p50_ms(&self) -> f64 {
        self.recovery_percentile_ms(0.5)
    }

    /// 99th-percentile time-to-recovery across the cell's trials (the max,
    /// for small trial counts), milliseconds.
    pub fn recovery_p99_ms(&self) -> f64 {
        self.recovery_percentile_ms(0.99)
    }

    fn sum(&self, f: impl Fn(&TrialResult) -> u64) -> u64 {
        self.trials.iter().map(f).sum()
    }

    /// Anomalies + lost + unrecovered across the cell (zero when healthy).
    pub fn violations(&self) -> u64 {
        self.sum(|t| t.anomalies + t.lost_acks as u64 + t.unrecovered as u64)
    }

    /// Whether every trial converged.
    pub fn all_converged(&self) -> bool {
        self.trials.iter().all(|t| t.converged)
    }
}

/// The whole matrix's results.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Every cell, in (fault mode, kill point, backend) order.
    pub cells: Vec<CellReport>,
}

impl RecoveryReport {
    /// Total read-atomicity anomalies across the matrix.
    pub fn total_anomalies(&self) -> u64 {
        self.cells.iter().map(|c| c.sum(|t| t.anomalies)).sum()
    }

    /// Total lost acknowledged commits across the matrix.
    pub fn total_lost(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.sum(|t| t.lost_acks as u64))
            .sum()
    }

    /// Total unrecovered (record, node) pairs across the matrix.
    pub fn total_unrecovered(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.sum(|t| t.unrecovered as u64))
            .sum()
    }

    /// Total commits the fault managers recovered from storage.
    pub fn total_recovered(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.sum(|t| t.recovered_commits))
            .sum()
    }

    /// Total transient-fault retries the I/O engines absorbed.
    pub fn total_io_retries(&self) -> u64 {
        self.cells.iter().map(|c| c.sum(|t| t.io_retries)).sum()
    }

    /// The CI gate: a ≥ 9-cell matrix (≥ 3 fault modes × ≥ 3 kill points)
    /// with zero anomalies, zero lost committed transactions, zero
    /// unrecovered commits, and every trial converged. Returns a summary on
    /// success, the first failure otherwise.
    pub fn check_gate(&self) -> Result<String, String> {
        let fault_modes: std::collections::BTreeSet<&str> =
            self.cells.iter().map(|c| c.fault_mode.as_str()).collect();
        let kill_points: std::collections::BTreeSet<&str> =
            self.cells.iter().map(|c| c.kill_point.as_str()).collect();
        if self.cells.len() < 9 || fault_modes.len() < 3 || kill_points.len() < 3 {
            return Err(format!(
                "matrix too small: {} cells ({} fault modes x {} kill points); \
                 need >= 9 cells from >= 3 x >= 3",
                self.cells.len(),
                fault_modes.len(),
                kill_points.len()
            ));
        }
        self.check_gate_cells()
    }

    /// The per-cell half of [`Self::check_gate`]: every correctness
    /// invariant (anomalies, lost acks, unrecovered commits, convergence)
    /// without the matrix-coverage clause — for single-mode replays
    /// (`fig10_recovery --mode ...`), whose restricted matrix can never
    /// satisfy the coverage requirement by construction.
    pub fn check_gate_cells(&self) -> Result<String, String> {
        for cell in &self.cells {
            let label = format!("{}/{}/{}", cell.backend, cell.fault_mode, cell.kill_point);
            if cell.sum(|t| t.anomalies) > 0 {
                return Err(format!(
                    "{label}: {} read-atomicity anomalies",
                    cell.sum(|t| t.anomalies)
                ));
            }
            if cell.sum(|t| t.lost_acks as u64) > 0 {
                return Err(format!(
                    "{label}: {} acknowledged commits lost",
                    cell.sum(|t| t.lost_acks as u64)
                ));
            }
            if cell.sum(|t| t.unrecovered as u64) > 0 {
                return Err(format!(
                    "{label}: {} durable commits unrecovered after the drive",
                    cell.sum(|t| t.unrecovered as u64)
                ));
            }
            if !cell.all_converged() {
                return Err(format!("{label}: recovery did not converge"));
            }
        }
        Ok(format!(
            "{} cells clean: 0 anomalies, 0 lost, 0 unrecovered; {} commits \
             recovered from storage, {} transient faults absorbed by retry",
            self.cells.len(),
            self.total_recovered(),
            self.total_io_retries()
        ))
    }

    /// Renders the matrix as an aligned text table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "fig10_recovery — chaos matrix: fault mode x kill point x backend",
            &[
                "backend",
                "fault mode",
                "kill point",
                "recovery p50 (ms)",
                "recovery p99 (ms)",
                "recovered",
                "retries",
                "anomalies",
                "lost",
                "unrecovered",
            ],
        );
        for cell in &self.cells {
            table.add_row(vec![
                cell.backend.clone(),
                cell.fault_mode.clone(),
                cell.kill_point.clone(),
                format!("{:.1}", cell.recovery_p50_ms()),
                format!("{:.1}", cell.recovery_p99_ms()),
                cell.sum(|t| t.recovered_commits).to_string(),
                cell.sum(|t| t.io_retries).to_string(),
                cell.sum(|t| t.anomalies).to_string(),
                cell.sum(|t| t.lost_acks as u64).to_string(),
                cell.sum(|t| t.unrecovered as u64).to_string(),
            ]);
        }
        table
    }

    /// Serialises the report as the `BENCH_recovery.json` document.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("backend", Json::str(&c.backend)),
                    ("fault_mode", Json::str(&c.fault_mode)),
                    ("kill_point", Json::str(&c.kill_point)),
                    ("trials", Json::Num(c.trials.len() as f64)),
                    ("recovery_p50_ms", Json::Num(round2(c.recovery_p50_ms()))),
                    ("recovery_p99_ms", Json::Num(round2(c.recovery_p99_ms()))),
                    (
                        "acknowledged_commits",
                        Json::Num(c.sum(|t| t.acknowledged as u64) as f64),
                    ),
                    (
                        "durable_commits",
                        Json::Num(c.sum(|t| t.durable_commits as u64) as f64),
                    ),
                    (
                        "recovered_commits",
                        Json::Num(c.sum(|t| t.recovered_commits) as f64),
                    ),
                    (
                        "replaced_nodes",
                        Json::Num(c.sum(|t| t.replaced_nodes as u64) as f64),
                    ),
                    ("io_retries", Json::Num(c.sum(|t| t.io_retries) as f64)),
                    (
                        "client_retries",
                        Json::Num(c.sum(|t| t.client_retries) as f64),
                    ),
                    (
                        "faults_injected",
                        Json::Num(c.sum(|t| t.faults_injected) as f64),
                    ),
                    ("anomalies", Json::Num(c.sum(|t| t.anomalies) as f64)),
                    (
                        "lost_commits",
                        Json::Num(c.sum(|t| t.lost_acks as u64) as f64),
                    ),
                    (
                        "unrecovered",
                        Json::Num(c.sum(|t| t.unrecovered as u64) as f64),
                    ),
                    ("converged", Json::Bool(c.all_converged())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("experiment", Json::str("fig10_recovery")),
            (
                "summary",
                Json::obj(vec![
                    ("cells", Json::Num(self.cells.len() as f64)),
                    ("anomalies", Json::Num(self.total_anomalies() as f64)),
                    ("lost_commits", Json::Num(self.total_lost() as f64)),
                    ("unrecovered", Json::Num(self.total_unrecovered() as f64)),
                    (
                        "recovered_commits",
                        Json::Num(self.total_recovered() as f64),
                    ),
                    ("io_retries", Json::Num(self.total_io_retries() as f64)),
                ]),
            ),
            ("cells", Json::Arr(cells)),
        ])
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Checkpoint cadence for every trial node: small enough that the victim
/// is always due at least one checkpoint round during the load, so the
/// checkpoint-phase kill points reliably fire.
const TRIAL_CHECKPOINT_EVERY: u64 = 4;

/// How many matching-phase events pass before the armed kill fires. Commit
/// phases fire partway through the load; checkpoint phases are rare events
/// (one per due checkpoint round / replacement bootstrap), so those kills
/// fire on the very first one.
fn kill_delay(kill_point: CommitPhase, config: &RecoveryConfig) -> u64 {
    if kill_point.is_checkpoint() {
        0
    } else {
        (config.requests_per_trial / (config.nodes * 4)) as u64
    }
}

/// Increments a counter when dropped — survives panics, so the trial's
/// maintenance loop can always observe "every client thread exited".
struct CountOnDrop<'a>(&'a AtomicU64);

impl Drop for CountOnDrop<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

/// A client's view of one trial, shared across its worker threads.
struct TrialShared {
    cluster: Arc<Cluster>,
    anomalies: AtomicU64,
    client_retries: AtomicU64,
    acknowledged: Mutex<Vec<TransactionId>>,
}

/// One logical client request: read two keys, write two keys, commit —
/// retried as a whole on any retryable failure, exactly like a FaaS client
/// re-invoking a failed function (§3.3.1).
fn run_logical_request(shared: &TrialShared, client: usize, request: usize) {
    const KEYS: usize = 16;
    const MAX_ATTEMPTS: usize = 64;
    let key_at = |slot: usize| -> Key {
        Key::new(format!(
            "chaos/k{:02}",
            (client * 5 + request * 3 + slot * 7) % KEYS
        ))
    };
    for attempt in 0..MAX_ATTEMPTS {
        let node = match shared.cluster.route() {
            Ok(node) => node,
            Err(_) => continue,
        };
        match attempt_request(&node, shared, client, request, attempt, &key_at) {
            Ok(Some(id)) => {
                shared.acknowledged.lock().expect("not poisoned").push(id);
                return;
            }
            Ok(None) => unreachable!("attempt_request always acks or errs"),
            Err(e) if e.is_retryable() => {
                shared.client_retries.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => panic!("non-retryable failure in chaos workload: {e:?}"),
        }
    }
    panic!("client {client} request {request}: retry budget exhausted — the fault rates are tuned so this cannot happen");
}

fn attempt_request(
    node: &Arc<AftNode>,
    shared: &TrialShared,
    client: usize,
    request: usize,
    attempt: usize,
    key_at: &dyn Fn(usize) -> Key,
) -> Result<Option<TransactionId>, AftError> {
    let txid = node.start_transaction();
    let mut reads: Vec<(Key, TransactionId)> = Vec::new();
    // Two reads; versions recorded for the atomicity check.
    for slot in 0..2 {
        let key = key_at(slot);
        match node.get_versioned(&txid, &key) {
            Ok(Some((_, Some(version)))) => reads.push((key, version)),
            Ok(_) => {}
            Err(e) => {
                let _ = node.abort(&txid);
                return Err(e);
            }
        }
    }
    if !is_atomic_readset(&reads, node.metadata()) {
        shared.anomalies.fetch_add(1, Ordering::Relaxed);
    }
    // Two writes, then read one back: read-your-writes must hold bytewise.
    let value: Value = Value::from(format!("c{client}-r{request}-a{attempt}"));
    for slot in 2..4 {
        if let Err(e) = node.put(&txid, key_at(slot), value.clone()) {
            let _ = node.abort(&txid);
            return Err(e);
        }
    }
    match node.get(&txid, &key_at(2)) {
        Ok(Some(observed)) if observed == value => {}
        Ok(_) => {
            shared.anomalies.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            let _ = node.abort(&txid);
            return Err(e);
        }
    }
    node.commit(&txid).map(Some)
}

/// One logical client request through the networked SDK: same shape as
/// [`run_logical_request`], but every operation crosses a real socket and
/// the read-atomicity verdict comes back in the commit acknowledgement
/// (the metadata lives server-side). When the trial's spec arms the faas
/// leg, `injector` plays the platform: the invocation can die before its
/// body runs, between its two writes (the §1 fractional update — the abort
/// stands in for the write buffer dying with the invocation), or after the
/// body with the acknowledgement lost. Each forces a whole-request retry,
/// at-least-once style (§3.3.1).
fn run_network_request(
    api: &Arc<aft_net::AftClient>,
    anomalies: &AtomicU64,
    client_retries: &AtomicU64,
    injector: Option<&FailureInjector>,
    client: usize,
    request: usize,
) {
    use aft_core::api::AftApi;
    const KEYS: usize = 16;
    const MAX_ATTEMPTS: usize = 64;
    let key_at = |slot: usize| -> Key {
        Key::new(format!(
            "chaos/k{:02}",
            (client * 5 + request * 3 + slot * 7) % KEYS
        ))
    };
    for attempt in 0..MAX_ATTEMPTS {
        let failure = injector.and_then(|i| i.decide());
        if failure == Some(FailurePoint::BeforeBody) {
            client_retries.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let crash_midway = failure == Some(FailurePoint::MidBody)
            && injector.is_some_and(FailureInjector::should_crash_midway);
        // Ok(true): committed and acked. Ok(false): the invocation died
        // between its writes — nothing committed, the request retries.
        let result: Result<bool, AftError> = (|| {
            let txid = api.begin()?;
            let mut reads: Vec<(Key, TransactionId)> = Vec::new();
            for slot in 0..2 {
                let key = key_at(slot);
                match api.get_versioned(&txid, &key) {
                    Ok(Some((_, Some(version)))) => reads.push((key, version)),
                    Ok(_) => {}
                    Err(e) => {
                        let _ = api.abort(&txid);
                        return Err(e);
                    }
                }
            }
            let value: Value = Value::from(format!("c{client}-r{request}-a{attempt}"));
            if let Err(e) = api.put(&txid, key_at(2), value.clone()) {
                let _ = api.abort(&txid);
                return Err(e);
            }
            if crash_midway {
                let _ = api.abort(&txid);
                return Ok(false);
            }
            if let Err(e) = api.put(&txid, key_at(3), value.clone()) {
                let _ = api.abort(&txid);
                return Err(e);
            }
            // Read-your-writes must hold bytewise through the SDK's buffer.
            match api.get_versioned(&txid, &key_at(2)) {
                Ok(Some((observed, _))) if observed == value => {}
                Ok(_) => {
                    anomalies.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    let _ = api.abort(&txid);
                    return Err(e);
                }
            }
            let outcome = api.commit(&txid, &reads)?;
            if !outcome.atomic {
                anomalies.fetch_add(1, Ordering::Relaxed);
            }
            Ok(true)
        })();
        match result {
            Ok(true) => {
                if failure == Some(FailurePoint::AfterBody) {
                    // The body ran to completion — commit durable and acked
                    // — but the invocation's response was lost, so the
                    // client re-runs the whole request (§3.3.1). AFT's job
                    // is to keep the duplicate harmless.
                    client_retries.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                return;
            }
            Ok(false) => {
                client_retries.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) if e.is_retryable() => {
                client_retries.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => panic!("non-retryable failure in network chaos workload: {e:?}"),
        }
    }
    panic!("client {client} request {request}: retry budget exhausted — the fault rates are tuned so this cannot happen");
}

/// The networked trial: the same invariants as the storage trials, but
/// clients reach the cluster through an [`aft_net`] server over loopback
/// while the trial's single [`ChaosSpec`] drives every armed layer — a
/// seeded [`aft_net::ConnChaos`] resets connections (including in the
/// lost-ack window) and delays acks on every run; in
/// [`FaultMode::CrossLayer`] the same spec additionally wraps storage in a
/// [`FaultyBackend`] under the nodes and plays platform failure points
/// around the request bodies via a [`FailureInjector`]. The node kill is
/// armed from the same spec via [`ChaosController::arm_spec`].
fn run_network_trial(
    backend: BackendKind,
    fault_mode: FaultMode,
    kill_point: CommitPhase,
    trial_seed: u64,
    config: &RecoveryConfig,
) -> TrialResult {
    use crate::setup::{serve_cluster, ServeOptions};

    let victim_id = "aft-node-1";
    let spec = fault_mode.chaos_spec(trial_seed).kill(
        KillPlan::immediate(victim_id, kill_point).after_commits(kill_delay(kill_point, config)),
    );

    let raw = aft_storage::make_backend(BackendConfig {
        kind: backend,
        mode: LatencyMode::Virtual,
        scale: 1.0,
        seed: trial_seed,
        redis_shards: 2,
        stripes: DEFAULT_STRIPES,
    });
    // Cross-layer trials inject storage faults too. The wrapper starts
    // paused so cluster construction is always fault-free, then injection
    // switches on for the load and off again for verification.
    let faulty = (!spec.storage.is_quiet()).then(|| {
        let wrapped = FaultyBackend::from_spec(
            Arc::clone(&raw),
            &spec,
            LatencyModel::new(LatencyMode::Virtual, 1.0),
        );
        wrapped.set_enabled(false);
        wrapped
    });
    let storage: SharedStorage = match &faulty {
        Some(wrapped) => Arc::clone(wrapped) as SharedStorage,
        None => raw,
    };
    let cluster_config = ClusterConfig {
        initial_nodes: config.nodes,
        node_template: NodeConfig {
            data_cache_bytes: 0,
            rng_seed: trial_seed,
            checkpoint: aft_core::CheckpointPolicy::every_commits(TRIAL_CHECKPOINT_EVERY),
            ..NodeConfig::default()
        },
        local_gc_enabled: false,
        global_gc_enabled: false,
        replacement_delay: Duration::ZERO,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::with_clock(cluster_config, storage, TickingClock::shared(1_000, 1))
        .expect("fault-free construction: storage injection is paused until the load starts");
    let handle = serve_cluster(
        &cluster,
        &ServeOptions {
            workers: 4,
            pool_size: config.clients.max(2),
            retry: aft_storage::io::RetryConfig {
                max_attempts: 6,
                base_backoff: Duration::from_micros(200),
                max_backoff: Duration::from_millis(2),
            },
            chaos: Some(spec.clone()),
            seed: trial_seed ^ 0x5DC,
            ..ServeOptions::default()
        },
    )
    .expect("serve on loopback");

    let controller = ChaosController::new(Arc::clone(&cluster));
    controller.arm_spec(&spec).expect("victim is registered");
    let injector = (!spec.faas.is_quiet()).then(|| FailureInjector::from_spec(&spec));
    if let Some(wrapped) = &faulty {
        wrapped.set_enabled(true);
    }

    let anomalies = AtomicU64::new(0);
    let client_retries = AtomicU64::new(0);
    let requests_per_client = config.requests_per_trial.div_ceil(config.clients);
    let barrier = Barrier::new(config.clients + 1);
    let finished_clients = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..config.clients {
            let api = &handle.client;
            let anomalies = &anomalies;
            let client_retries = &client_retries;
            let injector = injector.as_ref();
            let barrier = &barrier;
            let finished_clients = &finished_clients;
            scope.spawn(move || {
                let _done = CountOnDrop(finished_clients);
                barrier.wait();
                for request in 0..requests_per_client {
                    run_network_request(api, anomalies, client_retries, injector, client, request);
                }
            });
        }
        barrier.wait();
        while finished_clients.load(Ordering::Acquire) < config.clients as u64 {
            let _ = cluster.run_maintenance_round();
            std::thread::sleep(Duration::from_micros(200));
        }
    });

    let outcome = controller.drive_recovery(200);

    // Verification reads ground truth with storage injection (if any)
    // paused; connection chaos only ever lived at the SDK, and the
    // verifier reads in-process.
    if let Some(wrapped) = &faulty {
        wrapped.set_enabled(false);
    }
    let acknowledged = handle.client.acked_commits();
    let chaos_stats = handle.client.chaos_stats().unwrap_or_default();
    let record_keys = cluster
        .storage()
        .list_prefix(&TransactionRecord::storage_prefix())
        .expect("injection is paused");
    let mut records = Vec::new();
    fetch_commit_records(cluster.io(), &record_keys, |r| records.push(Arc::new(r)))
        .expect("injection is paused");
    let durable: std::collections::HashSet<TransactionId> = records.iter().map(|r| r.id).collect();
    let lost_acks = acknowledged
        .iter()
        .filter(|id| !durable.contains(id))
        .count();
    let active = cluster.active_nodes();
    let unrecovered: usize = records
        .iter()
        .map(|record| {
            active
                .iter()
                .filter(|n| {
                    !n.metadata().is_committed(&record.id) && !is_superseded(record, n.metadata())
                })
                .count()
        })
        .sum();
    let io_retries =
        active.iter().map(|n| n.io().stats().retries).sum::<u64>() + cluster.io().stats().retries;

    let result = TrialResult {
        acknowledged: acknowledged.len(),
        durable_commits: durable.len(),
        recovered_commits: cluster.fault_manager().recovered_commits(),
        replaced_nodes: outcome.replaced_nodes,
        anomalies: anomalies.load(Ordering::Relaxed),
        lost_acks,
        unrecovered,
        converged: outcome.converged,
        recovery_ms: outcome.elapsed.as_secs_f64() * 1_000.0,
        rounds: outcome.rounds,
        io_retries,
        client_retries: client_retries.load(Ordering::Relaxed),
        // Every armed layer counts: connection faults always, plus storage
        // faults and platform failure points when the spec arms them.
        faults_injected: chaos_stats.total()
            + faulty
                .as_ref()
                .map_or(0, |wrapped| wrapped.chaos_stats().total_faults())
            + injector.as_ref().map_or(0, |i| i.injected()),
    };
    drop(handle);
    result
}

/// Runs one trial of one cell and verifies its invariants.
fn run_trial(
    backend: BackendKind,
    fault_mode: FaultMode,
    kill_point: CommitPhase,
    trial_seed: u64,
    config: &RecoveryConfig,
) -> TrialResult {
    if matches!(fault_mode, FaultMode::Network | FaultMode::CrossLayer) {
        return run_network_trial(backend, fault_mode, kill_point, trial_seed, config);
    }
    // One spec per trial: the storage leg feeds the FaultyBackend, the kill
    // rides along and is armed below via the same spec.
    let victim_id = "aft-node-1";
    let spec = fault_mode.chaos_spec(trial_seed).kill(
        KillPlan::immediate(victim_id, kill_point).after_commits(kill_delay(kill_point, config)),
    );
    // Chaos-wrapped backend on the virtual clock at full scale: injected
    // latency is charged, never slept, so the whole matrix runs in seconds.
    let raw = aft_storage::make_backend(BackendConfig {
        kind: backend,
        mode: LatencyMode::Virtual,
        scale: 1.0,
        seed: trial_seed,
        redis_shards: 2,
        stripes: DEFAULT_STRIPES,
    });
    let faulty = FaultyBackend::from_spec(raw, &spec, LatencyModel::new(LatencyMode::Virtual, 1.0));
    let storage: SharedStorage = Arc::clone(&faulty) as SharedStorage;

    // GC stays off so the durable Transaction Commit Set remains the
    // complete ground truth the post-recovery verification compares against.
    // (Checkpoints are still written on their cadence — log *compaction* is
    // what stays off, since it rides the global GC gate.)
    let cluster_config = ClusterConfig {
        initial_nodes: config.nodes,
        node_template: NodeConfig {
            // No data cache: reads must survive storage faults, not hide
            // behind a warm cache.
            data_cache_bytes: 0,
            rng_seed: trial_seed,
            checkpoint: aft_core::CheckpointPolicy::every_commits(TRIAL_CHECKPOINT_EVERY),
            ..NodeConfig::default()
        },
        local_gc_enabled: false,
        global_gc_enabled: false,
        replacement_delay: Duration::ZERO,
        // The partition mode cuts *relay* edges, so it disseminates over
        // the spanning tree; every other mode keeps the flat baseline.
        dissemination: match fault_mode {
            FaultMode::Partition => DisseminationConfig::tree(2),
            _ => DisseminationConfig::default(),
        },
        ..ClusterConfig::default()
    };
    let cluster = Cluster::with_clock(
        cluster_config,
        storage,
        TickingClock::shared(1_000, 1),
    )
    .expect("initial cluster construction is fault-free only by seed; retry a different seed if this ever trips");

    let controller = ChaosController::new(Arc::clone(&cluster));
    // The victim dies mid-commit partway through the load.
    controller.arm_spec(&spec).expect("victim is registered");

    let shared = TrialShared {
        cluster: Arc::clone(&cluster),
        anomalies: AtomicU64::new(0),
        client_retries: AtomicU64::new(0),
        acknowledged: Mutex::new(Vec::new()),
    };
    let requests_per_client = config.requests_per_trial.div_ceil(config.clients);
    let barrier = Barrier::new(config.clients + 1);
    let finished_clients = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..config.clients {
            let shared = &shared;
            let barrier = &barrier;
            let finished_clients = &finished_clients;
            scope.spawn(move || {
                // Count the client as finished even if it panics, so the
                // maintenance loop below always terminates and the scope
                // join can propagate the panic.
                let _done = CountOnDrop(finished_clients);
                barrier.wait();
                for request in 0..requests_per_client {
                    run_logical_request(shared, client, request);
                }
            });
        }
        // The main thread plays the background maintenance loop — multicast
        // and fault-manager scans keep running *under load and under
        // faults*, like the paper's 1-second cadence (§4). Transient round
        // failures are exactly what the next round retries.
        barrier.wait();
        while finished_clients.load(Ordering::Acquire) < config.clients as u64 {
            let _ = cluster.run_maintenance_round();
            std::thread::sleep(Duration::from_micros(200));
        }
    });

    // The load is done; drive recovery to convergence.
    let outcome = controller.drive_recovery(200);

    // Verification reads ground truth with injection paused: the invariants
    // are about the *cluster's* state, not about whether the verifier's own
    // reads can fail.
    faulty.set_enabled(false);
    let acknowledged = shared.acknowledged.lock().expect("not poisoned").clone();
    let record_keys = cluster
        .storage()
        .list_prefix(&TransactionRecord::storage_prefix())
        .expect("injection is paused");
    let mut records = Vec::new();
    fetch_commit_records(cluster.io(), &record_keys, |r| records.push(Arc::new(r)))
        .expect("injection is paused");
    let durable: std::collections::HashSet<TransactionId> = records.iter().map(|r| r.id).collect();
    let lost_acks = acknowledged
        .iter()
        .filter(|id| !durable.contains(id))
        .count();
    // Full commit-set recovery, modulo §4.1 supersedence: every durable
    // record must be *known* to every active node — present in its metadata
    // or legitimately pruned because the node already holds newer versions
    // of every key the record wrote.
    let active = cluster.active_nodes();
    let unrecovered: usize = records
        .iter()
        .map(|record| {
            active
                .iter()
                .filter(|n| {
                    !n.metadata().is_committed(&record.id) && !is_superseded(record, n.metadata())
                })
                .count()
        })
        .sum();

    let io_retries =
        active.iter().map(|n| n.io().stats().retries).sum::<u64>() + cluster.io().stats().retries;
    let chaos_stats = faulty.chaos_stats();

    TrialResult {
        acknowledged: acknowledged.len(),
        durable_commits: durable.len(),
        // Total over the trial, not just the drive: the maintenance loop
        // runs *during* the load too, so a scan may recover a stranded
        // commit before the drive even starts — that still counts.
        recovered_commits: cluster.fault_manager().recovered_commits(),
        replaced_nodes: outcome.replaced_nodes,
        anomalies: shared.anomalies.load(Ordering::Relaxed),
        lost_acks,
        unrecovered,
        converged: outcome.converged,
        recovery_ms: outcome.elapsed.as_secs_f64() * 1_000.0,
        rounds: outcome.rounds,
        io_retries,
        client_retries: shared.client_retries.load(Ordering::Relaxed),
        // Partition-mode faults are link drops at the disseminator, not
        // storage faults; both count as injected chaos.
        faults_injected: chaos_stats.total_faults()
            + cluster.disseminator().totals().link_drops as u64,
    }
}

/// Runs the full matrix and returns the report.
pub fn fig10_recovery(config: &RecoveryConfig) -> RecoveryReport {
    let mut cells = Vec::with_capacity(config.cells());
    for (m, &fault_mode) in config.fault_modes.iter().enumerate() {
        for (k, &kill_point) in config.kill_points.iter().enumerate() {
            for (b, &backend) in config.backends.iter().enumerate() {
                let cell_seed = config
                    .seed
                    .wrapping_add((m as u64) << 24)
                    .wrapping_add((k as u64) << 16)
                    .wrapping_add((b as u64) << 8);
                let trials = (0..config.trials)
                    .map(|t| {
                        run_trial(
                            backend,
                            fault_mode,
                            kill_point,
                            cell_seed.wrapping_add(t as u64),
                            config,
                        )
                    })
                    .collect();
                cells.push(CellReport {
                    backend: backend.label().to_owned(),
                    fault_mode: fault_mode.label().to_owned(),
                    kill_point: kill_point.label().to_owned(),
                    trials,
                });
            }
        }
    }
    RecoveryReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RecoveryConfig {
        RecoveryConfig {
            trials: 1,
            requests_per_trial: 16,
            clients: 2,
            backends: vec![BackendKind::Memory],
            ..RecoveryConfig::standard()
        }
    }

    #[test]
    fn full_tiny_matrix_is_clean() {
        // The acceptance shape: 6 fault modes (3 storage + network +
        // cross-layer + metadata partition) x 5 kill points (3 commit
        // phases + 2 checkpoint phases, one backend), zero anomalies, zero
        // lost commits, full recovery, convergence.
        let report = fig10_recovery(&tiny());
        assert_eq!(report.cells.len(), 30);
        let summary = report.check_gate().expect("gate must pass");
        assert!(summary.contains("30 cells"), "{summary}");
        assert_eq!(report.total_anomalies(), 0);
        assert_eq!(report.total_lost(), 0);
        assert_eq!(report.total_unrecovered(), 0);
        // The chaos actually bit: faults were injected and commits survived.
        let faults: u64 = report
            .cells
            .iter()
            .map(|c| c.sum(|t| t.faults_injected))
            .sum();
        assert!(faults > 0, "the matrix must inject faults");
        let durable: u64 = report
            .cells
            .iter()
            .map(|c| c.sum(|t| t.durable_commits as u64))
            .sum();
        assert!(durable > 0);
    }

    #[test]
    fn cross_layer_mode_arms_every_layer_from_one_seed() {
        let spec = FaultMode::CrossLayer.chaos_spec(0xF1610);
        assert!(!spec.storage.is_quiet());
        assert!(!spec.net.is_quiet());
        assert!(!spec.faas.is_quiet());
        // The schedule is a pure function of (seed, layer, op index, key):
        // re-deriving it from the same seed replays every layer's decisions
        // bit-identically — the property `--seed N` relies on.
        use aft_chaos::Layer;
        let a = spec.schedule();
        let b = FaultMode::CrossLayer.chaos_spec(0xF1610).schedule();
        for layer in [Layer::Storage, Layer::Net, Layer::Faas] {
            assert_eq!(
                a.materialize(layer, 64, "chaos/k00"),
                b.materialize(layer, 64, "chaos/k00"),
                "layer {layer:?} must replay identically"
            );
        }
    }

    #[test]
    fn cross_layer_cells_inject_and_stay_clean() {
        let config = RecoveryConfig {
            kill_points: vec![CommitPhase::BeforeRecordAppend],
            fault_modes: vec![FaultMode::CrossLayer],
            ..tiny()
        };
        let report = fig10_recovery(&config);
        assert_eq!(report.total_anomalies(), 0);
        assert_eq!(report.total_lost(), 0);
        assert_eq!(report.total_unrecovered(), 0);
        assert!(report.cells.iter().all(CellReport::all_converged));
        let faults: u64 = report
            .cells
            .iter()
            .map(|c| c.sum(|t| t.faults_injected))
            .sum();
        assert!(faults > 0, "the cross-layer cell must inject faults");
    }

    #[test]
    fn before_broadcast_kills_force_storage_recovery() {
        // The §4.2 cell: a commit whose record is durable but whose ack and
        // broadcast died with the node must be found by the fault-manager
        // scan — recovered_commits > 0 distinguishes the scan from mere
        // replacement.
        let config = RecoveryConfig {
            kill_points: vec![CommitPhase::BeforeBroadcast],
            fault_modes: vec![FaultMode::SlowStripe],
            ..tiny()
        };
        let report = fig10_recovery(&config);
        let recovered = report.total_recovered();
        assert!(
            recovered > 0,
            "a BeforeBroadcast kill strands commits that only the storage \
             scan can recover, got {recovered}"
        );
        // A single cell is below the gate's matrix floor; check the
        // invariants directly instead.
        assert_eq!(report.total_anomalies(), 0);
        assert_eq!(report.total_lost(), 0);
        assert_eq!(report.total_unrecovered(), 0);
        assert!(report.cells.iter().all(CellReport::all_converged));
    }

    #[test]
    fn checkpoint_kill_points_replace_the_victim_and_stay_clean() {
        // The two checkpoint cells: a kill mid-checkpoint-write must leave
        // the previous checkpoint live (never a torn read), and a kill
        // mid-bootstrap must be retried to convergence. Both must replace
        // the victim and keep every invariant.
        let config = RecoveryConfig {
            kill_points: CommitPhase::CHECKPOINT.to_vec(),
            fault_modes: vec![FaultMode::Transient],
            ..tiny()
        };
        let report = fig10_recovery(&config);
        assert_eq!(report.total_anomalies(), 0);
        assert_eq!(report.total_lost(), 0);
        assert_eq!(report.total_unrecovered(), 0);
        assert!(report.cells.iter().all(CellReport::all_converged));
        for cell in &report.cells {
            assert!(
                cell.sum(|t| t.replaced_nodes as u64) > 0,
                "{}: the checkpoint kill must actually fire and cost the victim",
                cell.kill_point
            );
        }
    }

    #[test]
    fn gate_rejects_a_small_matrix() {
        let config = RecoveryConfig {
            kill_points: vec![CommitPhase::BeforeDataPut],
            fault_modes: vec![FaultMode::Transient],
            ..tiny()
        };
        let report = fig10_recovery(&config);
        let err = report.check_gate().unwrap_err();
        assert!(err.contains("matrix too small"), "{err}");
    }

    #[test]
    fn json_document_round_trips() {
        let config = RecoveryConfig {
            kill_points: vec![CommitPhase::BeforeBroadcast],
            fault_modes: vec![FaultMode::Transient],
            ..tiny()
        };
        let report = fig10_recovery(&config);
        let parsed = Json::parse(&report.to_json().render()).unwrap();
        assert_eq!(
            parsed.get("experiment").unwrap().as_str().unwrap(),
            "fig10_recovery"
        );
        let cells = parsed.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(
            cells[0].get("kill_point").unwrap().as_str().unwrap(),
            "before_broadcast"
        );
        assert!(parsed
            .get("summary")
            .and_then(|s| s.get("recovered_commits"))
            .and_then(Json::as_f64)
            .is_some());
        assert_eq!(report.table().len(), report.cells.len());
    }
}
