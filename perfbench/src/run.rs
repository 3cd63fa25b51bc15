//! The four workloads and the load generator that drives them.
//!
//! Every workload runs the program's default configuration
//! (`NodeConfig::default()`: pipelined `IoEngine`, group commit, 64 MiB data
//! cache) unless its definition below says otherwise, so a change to a
//! default is measured. Load comes from [`CLIENTS`] closed-loop generator
//! threads in this process. The seed fixes every transaction plan; the
//! program sees only the generated calls.
//!
//! * **`commit-mem`** — one in-process `AftNode` over the zero-latency
//!   `InMemoryStore`; the paper's standard read-write transaction (2
//!   functions × (2 gets + 1 put), 4 KiB values, 1,000 keys, Zipf 1.0) from
//!   2 closed-loop clients. *Why:* with no modelled storage time the wall
//!   clock is the shim's own CPU — the `IoEngine` hand-off, commit batcher,
//!   write buffer and metadata insert — and the ~4 MB live set fits the data
//!   cache. Each window of [`COMMIT_MEM_TXNS`] transactions runs on a
//!   freshly set-up node, because a single node runs no garbage collection
//!   and every committed version would otherwise stay in memory. *Moves:* `core.commit.*`, `core.put.*`,
//!   `core.batcher.commits_per_flush` and `io.*` move `p50_ms`, `p90_ms`,
//!   `ops_per_s` and `cpu_us_per_op`.
//! * **`read-dynamo`** — one in-process `AftNode` over simulated DynamoDB
//!   sleeping at scale 0.1 (read median 250 µs, write 300 µs); 90% read-only
//!   transactions (2 functions × 2 gets) and 10% standard read-write ones;
//!   20,000 keys × 4 KiB (~80 MB) against a data cache this workload sets to
//!   16 MiB, so about 4,000 values fit; Zipf 1.0; 2 closed-loop clients.
//!   Keys are preloaded coldest first so the cache starts with the hot set.
//!   *Why:* storage waits dominate, so a CPU-only gain should show no change
//!   here, while read-path changes do: a read-only commit pays one modelled
//!   put for its empty commit record and each cache miss pays a modelled
//!   read. *Moves:* `core.ro_commit.p50_us`, `core.get.*`,
//!   `core.cache_hit_ratio`, `core.storage_reads_per_txn` and
//!   `storage.*_per_txn` move `p50_ms` and `write_amp`; `io.*` should not
//!   move here.
//! * **`service-mix`** — a 2-node `Cluster` (default background maintenance:
//!   dissemination, GC) over `InMemoryStore`, served by `AftServer` on
//!   loopback; the `AftClient` SDK with a pool of 2 connections; 50%
//!   read-only and 50% standard transactions over 1,000 keys; 2 closed-loop
//!   clients. *Why:* with zero storage latency the wire decode, event loop,
//!   worker dispatch, response encode and socket write dominate, and two
//!   nodes make the router and commit-metadata dissemination run.
//!   Independent FaaS invocations would make an open loop the more realistic
//!   model, but on a shared 2-core host every transaction due during a
//!   stolen time slice waits it out, and an open loop at a third of capacity
//!   read a p90 whose spread over ten runs (0.44 of the median) no
//!   regression bound could absorb. *Moves:* `net.*` move `p50_ms`, `p90_ms`
//!   and `cpu_us_per_op`; `cluster.dissemination.*` move `cpu_us_per_op` and
//!   `p90_ms`.
//! * **`recover`** — set-up writes a fixed history of [`HISTORY_COMMITS`]
//!   two-key commits (512 B values, 1,000 keys, Zipf 1.0) to
//!   `InMemoryStore`, with `checkpoint_now` (compacting) once 90% of it is
//!   written; the timed part repeats cold bootstraps — a replacement
//!   `AftNode` over the same store, timed until it serves a read. *Why:* the
//!   only workload where checkpoint load and tail replay do the work; the
//!   history is fixed in size, so a faster commit path cannot lengthen
//!   recovery. Its per-layer `*_per_txn` figures are per bootstrap.
//!   *Moves:* `bootstrap.*` and `checkpoint.load.p50_ms` move `p50_ms` and
//!   `p90_ms`; `checkpoint.write_s` moves `setup_s`.
//!
//! The gated end-to-end figures are the same names on every workload:
//! `p50_ms` and `p90_ms` of the workload's operation (a transaction; in
//! `recover`, a bootstrap until the first read is served), `ops_per_s`,
//! `cpu_us_per_op` (process user+system CPU), `write_amp`, `rss_mb`
//! (resident set) and `setup_s` (median of the run's set-ups). Latency,
//! throughput, CPU and memory are medians over measurement windows (see
//! `publish_windows`). Per-class figures (`rw_p99_ms`, `ro_p50_ms`,
//! `recovery_p90_ms`, ...) are printed from every sample of the run, with
//! their sample counts.
//!
//! Predicted effects of the planned optimisations, by these names:
//! completing `IoEngine` requests inline should lower `commit-mem` `p50_ms`
//! and `cpu_us_per_op` and leave `read-dynamo` unchanged; skipping the
//! storage round trip of read-only commits should lower `read-dynamo`
//! `p50_ms` and `write_amp` and leave `commit-mem` (no read-only
//! transactions) unchanged; removing the worker's response copy should lower
//! `service-mix` `cpu_us_per_op`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aft_cluster::{Cluster, ClusterConfig};
use aft_core::api::AftApi;
use aft_core::bootstrap::warm_metadata_cache_checkpointed;
use aft_core::{AftNode, MetadataCache, NodeConfig};
use aft_net::{AftClient, AftServer};
use aft_storage::{
    load_latest_checkpoint, InMemoryStore, IoConfig, IoEngine, LatencyMode, LatencyModel,
    ServiceProfile, SharedStorage, SimDynamo,
};
use aft_types::{AftResult, Key};
use aft_workload::{TransactionPlan, WorkloadConfig, WorkloadGenerator, ZipfGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::history::{self, Op, Seen, TxnObs, Violations};
use crate::stats::{median, Samples};
use crate::storage::{Call, CountingStorage, StorageCounts};
use crate::sys;
use crate::trace::Trace;

/// Generator threads (and client connections) driving the load.
pub const CLIENTS: usize = 2;
/// Commits in the `recover` history.
pub const HISTORY_COMMITS: usize = 5_000;
/// Length of one measurement window. The gated latency and throughput
/// figures are medians over windows, so a burst of interference from
/// outside the process moves few of them.
const WINDOW: Duration = Duration::from_secs(1);
/// Upper bound on a transaction-count window.
const WINDOW_CAP: Duration = Duration::from_secs(10);
/// Transactions each freshly set-up `commit-mem` node serves (its window).
const COMMIT_MEM_TXNS: u64 = 6_000;
/// Set-ups per run for the long-lived systems; `setup_s` is their median.
const SETUPS: usize = 5;
/// Keys per preload transaction.
const PRELOAD_CHUNK: usize = 500;
/// In traced `service-mix` windows, generator 0 pings after every this many
/// transactions.
const PING_EVERY: u64 = 32;
/// Bootstraps per `recover` window: enough for a p90 with 15 beyond it.
const RECOVER_WINDOW_REPS: usize = 150;
/// In `recover`, every this many bootstraps is followed by a read of every
/// key, checked against the latest acked writes.
const VERIFY_EVERY: u64 = 64;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process commit path over zero-latency storage.
    CommitMem,
    /// Read-mostly transactions over modelled DynamoDB latency.
    ReadDynamo,
    /// Open-loop mix over the loopback wire service and a 2-node cluster.
    ServiceMix,
    /// Repeated cold bootstraps from checkpoint plus tail.
    Recover,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::CommitMem,
        Workload::ReadDynamo,
        Workload::ServiceMix,
        Workload::Recover,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CommitMem => "commit-mem",
            Workload::ReadDynamo => "read-dynamo",
            Workload::ServiceMix => "service-mix",
            Workload::Recover => "recover",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(keys, read-only share)` of a transaction workload.
    fn mix(self) -> (usize, f64) {
        match self {
            Workload::CommitMem | Workload::Recover => (1_000, 0.0),
            Workload::ReadDynamo => (20_000, 0.9),
            Workload::ServiceMix => (1_000, 0.5),
        }
    }
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind a percentile, when it is one.
    pub samples: Option<usize>,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed part.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// History-check violations.
    pub violations: Violations,
    /// Every metric measured, by name.
    pub metrics: Vec<Metric>,
    /// Spans of the traced windows, per generator thread.
    pub traces: Vec<Trace>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples: None,
        });
    }

    /// Publishes quantile `p` of `samples` when enough samples support it.
    fn quantile(&mut self, name: &str, samples: &mut Samples, p: f64, unit: &'static str) {
        let value = match unit {
            "ms" => samples.quantile_ms(p),
            "us" => samples.quantile_us(p),
            _ => unreachable!("timings are published in ms or us"),
        };
        if let Some(value) = value {
            self.metrics.push(Metric {
                name: name.to_owned(),
                value,
                unit,
                samples: Some(samples.len()),
            });
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The name of key `i`, as `WorkloadGenerator` spells it.
fn key_name(i: usize) -> Key {
    Key::new(format!("key-{i:08}"))
}

/// A seed for stream `stream` of run seed `seed`.
fn derive(seed: u64, stream: u64) -> u64 {
    (seed ^ 0xA5A5_5A5A_F00D_CAFE)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// The seeded transaction plans of one generator thread.
pub struct PlanStream {
    kind: StdRng,
    read_write: WorkloadGenerator,
    read_only: WorkloadGenerator,
    read_only_share: f64,
}

impl PlanStream {
    /// The plans of generator `thread` for `workload` under run seed `seed`.
    pub fn new(workload: Workload, seed: u64, thread: usize) -> Self {
        let (keys, read_only_share) = workload.mix();
        let base = derive(seed, 100 + thread as u64);
        let rw = WorkloadConfig::standard().with_keys(keys);
        let ro = WorkloadConfig {
            writes_per_function: 0,
            ..rw.clone()
        };
        PlanStream {
            kind: StdRng::seed_from_u64(base ^ 1),
            read_write: WorkloadGenerator::new(rw, base ^ 3),
            read_only: WorkloadGenerator::new(ro, base ^ 4),
            read_only_share,
        }
    }

    /// The next transaction plan.
    pub fn next_plan(&mut self) -> TransactionPlan {
        if self.kind.gen_bool(self.read_only_share) {
            self.read_only.next_plan()
        } else {
            self.read_write.next_plan()
        }
    }
}

/// Span names of the API layer a workload calls.
struct Names {
    begin: &'static str,
    get: &'static str,
    put: &'static str,
    commit: &'static str,
    ro_commit: &'static str,
}

const CORE: Names = Names {
    begin: "core.begin",
    get: "core.get",
    put: "core.put",
    commit: "core.commit",
    ro_commit: "core.ro_commit",
};

const NET: Names = Names {
    begin: "net.begin",
    get: "net.get",
    put: "net.put",
    commit: "net.commit",
    ro_commit: "net.ro_commit",
};

/// Runs `f`, inside a child span of `span` when tracing.
fn timed<T>(
    trace: &mut Option<Trace>,
    span: u32,
    name: &'static str,
    txn: u64,
    f: impl FnOnce() -> T,
) -> T {
    match trace {
        Some(t) => t.child(name, span, txn, f),
        None => f(),
    }
}

/// Runs one planned transaction, returning what the client observed.
fn run_txn(
    api: &dyn AftApi,
    plan: &TransactionPlan,
    trace: &mut Option<Trace>,
    names: &Names,
) -> (Option<TxnObs>, AftResult<()>) {
    let span = trace.as_mut().map_or(0, |t| t.open("txn"));
    let txid = match timed(trace, span, names.begin, 0, || api.begin()) {
        Ok(txid) => txid,
        Err(e) => return (None, Err(e)),
    };
    let uuid = txid.uuid.as_u128();
    let tag = uuid as u64;
    let mut obs = TxnObs {
        uuid,
        ops: Vec::with_capacity(6),
        acked: None,
    };
    let commit = if plan.total_writes() == 0 {
        names.ro_commit
    } else {
        names.commit
    };
    let mut body = || -> AftResult<()> {
        for f in &plan.functions {
            for key in &f.reads {
                let got = timed(trace, span, names.get, tag, || {
                    api.get_versioned(&txid, key)
                })?;
                obs.ops.push(Op::Read(key.clone(), Seen::of(got)));
            }
            for key in &f.writes {
                let value = history::payload(uuid, plan.value_size);
                timed(trace, span, names.put, tag, || {
                    api.put(&txid, key.clone(), value)
                })?;
                obs.ops.push(Op::Write(key.clone()));
            }
        }
        let outcome = timed(trace, span, commit, tag, || api.commit(&txid, &[]))?;
        obs.acked = Some(outcome.final_id);
        Ok(())
    };
    let result = body();
    if result.is_err() {
        // Best effort: a failed commit has already ended the transaction.
        let _ = api.abort(&txid);
    }
    if let Some(t) = trace.as_mut() {
        t.close(span, tag);
    }
    (Some(obs), result)
}

/// Preloads one version of each key in `keys`, in order, and returns the
/// preload transactions for the history.
fn preload(api: &dyn AftApi, keys: &[usize], value_size: usize) -> AftResult<Vec<TxnObs>> {
    let mut out = Vec::new();
    for chunk in keys.chunks(PRELOAD_CHUNK) {
        let txid = api.begin()?;
        let uuid = txid.uuid.as_u128();
        let mut ops = Vec::with_capacity(chunk.len());
        for &i in chunk {
            api.put(&txid, key_name(i), history::payload(uuid, value_size))?;
            ops.push(Op::Write(key_name(i)));
        }
        let acked = Some(api.commit(&txid, &[])?.final_id);
        out.push(TxnObs { uuid, ops, acked });
    }
    Ok(out)
}

/// Monotonic counters read from the layers' public statistics. Keys that
/// start with `max.` hold high-water marks.
#[derive(Debug, Default, Clone)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    fn add(&mut self, key: &'static str, value: u64) {
        let slot = self.0.entry(key).or_default();
        *slot = if key.starts_with("max.") {
            (*slot).max(value)
        } else {
            *slot + value
        };
    }

    /// A counter's value (0 when never recorded).
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    fn since(&self, earlier: &Counters) -> Counters {
        let mut out = Counters::default();
        for (&k, &v) in &self.0 {
            let delta = if k.starts_with("max.") {
                v
            } else {
                v.saturating_sub(earlier.get(k))
            };
            out.add(k, delta);
        }
        out
    }

    fn absorb(&mut self, other: &Counters) {
        for (&k, &v) in &other.0 {
            self.add(k, v);
        }
    }

    fn add_node(&mut self, node: &AftNode) {
        let s = node.stats().snapshot();
        self.add("node.cache_hits", s.reads_from_data_cache);
        self.add("node.storage_reads", s.reads_from_storage);
        self.add("node.no_valid_version", s.no_valid_version_aborts);
        let b = node.commit_batch_stats();
        self.add("batch.submitted", b.submitted);
        self.add("batch.flushes", b.flushes);
        self.add_io(node.io());
    }

    fn add_io(&mut self, io: &IoEngine) {
        let s = io.stats();
        self.add("io.submitted", s.submitted);
        self.add("io.completed", s.completed);
        self.add("io.deferred", s.deferred);
        self.add("io.inline", s.inline);
        self.add("io.retries", s.retries);
        self.add("max.io.peak_in_flight", s.peak_in_flight);
    }

    fn add_storage(&mut self, c: &StorageCounts) {
        for call in Call::ALL {
            self.add(storage_key(call), c.calls(call));
        }
        self.add("storage.bytes_written", c.bytes_written);
        self.add("storage.bytes_read", c.bytes_read);
        self.add("storage.busy_ns", c.busy_ns);
    }
}

fn storage_key(call: Call) -> &'static str {
    match call {
        Call::Get => "storage.get",
        Call::Put => "storage.put",
        Call::PutBatch => "storage.put_batch",
        Call::Delete => "storage.delete",
        Call::List => "storage.list",
    }
}

/// A set-up system under test.
struct Sut {
    api: Arc<dyn AftApi>,
    backend: SharedStorage,
    wrapper: Option<Arc<CountingStorage>>,
    node: Option<Arc<AftNode>>,
    cluster: Option<Arc<Cluster>>,
    server: Option<AftServer>,
    client: Option<Arc<AftClient>>,
    latency: Option<Arc<LatencyModel>>,
    history: Vec<TxnObs>,
    setup: Duration,
}

impl Sut {
    /// Builds and preloads the system of `workload`. In traced runs the
    /// storage backend sits behind the counting wrapper.
    fn build(workload: Workload, seed: u64, index: u64, traced: bool) -> AftResult<Sut> {
        let start = Instant::now();
        let node_seed = derive(seed, index);
        let (keys, _) = workload.mix();
        let mut latency = None;
        let backend: SharedStorage = if workload == Workload::ReadDynamo {
            let model = LatencyModel::new(LatencyMode::Sleep, 0.1);
            latency = Some(Arc::clone(&model));
            SimDynamo::with_profile(ServiceProfile::dynamodb(), model, node_seed)
        } else {
            InMemoryStore::shared()
        };
        let wrapper = traced.then(|| CountingStorage::wrap(Arc::clone(&backend)));
        let store: SharedStorage = match &wrapper {
            Some(w) => Arc::clone(w) as SharedStorage,
            None => Arc::clone(&backend),
        };
        let mut preload_order: Vec<usize> = (0..keys).collect();
        let (mut node, mut cluster, mut server, mut client) = (None, None, None, None);
        let api: Arc<dyn AftApi> = if workload == Workload::ServiceMix {
            let config = ClusterConfig {
                initial_nodes: 2,
                node_template: NodeConfig::default().with_seed(node_seed),
                // With no failures a scan only reads the membership registry;
                // a short interval keeps tearing a set-up down from waiting
                // out the default 5 s sleep.
                fault_scan_interval: Duration::from_millis(200),
                ..ClusterConfig::default()
            };
            let started = Cluster::new(config, store)?;
            started.start_background();
            cluster = Some(Arc::clone(&started));
            let served = AftServer::builder().serve(started, "127.0.0.1:0")?;
            let connected = AftClient::builder()
                .pool_size(CLIENTS)
                .rng_seed(node_seed ^ 0xC1)
                .connect(served.local_addr())?;
            server = Some(served);
            client = Some(Arc::clone(&connected));
            connected
        } else {
            let mut config = NodeConfig::default().with_seed(node_seed);
            if workload == Workload::ReadDynamo {
                config.data_cache_bytes = 16 << 20;
                // Coldest key first, so the hot keys are the ones cached.
                preload_order.reverse();
            }
            let built = AftNode::new(config, store)?;
            node = Some(Arc::clone(&built));
            built
        };
        let mut sut = Sut {
            api,
            backend,
            wrapper,
            node,
            cluster,
            server,
            client,
            latency,
            history: Vec::new(),
            setup: Duration::ZERO,
        };
        sut.history = preload(&*sut.api, &preload_order, 4096)?;
        if let Some(cluster) = &sut.cluster {
            // One dissemination round, so every node knows the preload.
            cluster.run_maintenance_round()?;
        }
        sut.setup = start.elapsed();
        Ok(sut)
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        if let Some(node) = &self.node {
            c.add_node(node);
        }
        if let Some(cluster) = &self.cluster {
            for node in cluster.active_nodes() {
                c.add_node(&node);
            }
            c.add_io(cluster.io());
            let d = cluster.disseminator();
            c.add("dissem.messages", d.totals().fanout_messages as u64);
            c.add("dissem.bytes", d.totals().bytes);
            c.add("dissem.rounds", d.rounds());
        }
        if let Some(w) = &self.wrapper {
            c.add_storage(&w.counts());
        }
        c.add(
            "backend.bytes_written",
            self.backend.stats().snapshot().bytes_written,
        );
        if let Some(model) = &self.latency {
            c.add("model.injected_ns", model.injected().as_nanos() as u64);
        }
        if let Some(server) = &self.server {
            if let Some(e) = server.event_snapshot() {
                c.add("server.frames_written", e.frames_written);
                c.add("server.writev_calls", e.writev_calls);
                c.add("server.buffer_reuses", e.buffer_reuses);
                c.add("server.buffer_allocations", e.buffer_allocations);
                c.add("server.bytes", e.bytes_read + e.bytes_written);
            }
            let w = server.stats();
            c.add("server.shed", w.shed_requests + w.overload_rejections);
            c.add("server.errors", w.errors);
        }
        if let Some(client) = &self.client {
            let s = client.stats();
            c.add("client.requests", s.requests);
            c.add("client.retries", s.transport_retries + s.overload_retries);
        }
        c
    }
}

impl Drop for Sut {
    fn drop(&mut self) {
        if let Some(server) = &self.server {
            server.shutdown();
        }
        if let Some(cluster) = &self.cluster {
            cluster.shutdown();
        }
    }
}

/// What the traced or the untraced windows of a run add up to.
#[derive(Default)]
struct Acc {
    elapsed: Duration,
    cpu: Duration,
    attempted: u64,
    failed: u64,
    committed: u64,
    payload_bytes: u64,
    rw: Samples,
    ro: Samples,
    ping: Samples,
    layers: Counters,
    spans: BTreeMap<String, Samples>,
    windows: Vec<WindowStats>,
}

/// One window's figures, and how much CPU time the host took meanwhile.
struct WindowStats {
    p50_ms: Option<f64>,
    p90_ms: Option<f64>,
    ops_per_s: f64,
    cpu_us_per_op: f64,
    rss_mb: f64,
    steal: f64,
}

/// Share of the machine's CPU time the hypervisor may take from a window
/// (`steal`) before the window counts as disturbed.
const STEAL_LIMIT: f64 = 0.02;

/// Fraction of the machine's CPU time stolen between two `steal_ticks`
/// readings `elapsed` apart (ticks are 1/100 s).
fn steal_share(ticks: u64, elapsed: Duration) -> f64 {
    ratio(
        ticks as f64 / 100.0,
        elapsed.as_secs_f64() * sys::nproc() as f64,
    )
}

/// Publishes the gated figures as medians over the windows the host left
/// undisturbed — or, when fewer than a third were, over the least disturbed
/// third — so a neighbour's burst on a shared machine moves few of them.
fn publish_windows(out: &mut Outcome, windows: &[WindowStats]) {
    let least = windows.len().div_ceil(3).max(3).min(windows.len());
    let mut chosen: Vec<&WindowStats> = windows.iter().filter(|w| w.steal <= STEAL_LIMIT).collect();
    if chosen.len() < least {
        chosen = windows.iter().collect();
        chosen.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        chosen.truncate(least);
    }
    let med = |f: fn(&WindowStats) -> Option<f64>| {
        median(&chosen.iter().filter_map(|w| f(w)).collect::<Vec<_>>())
    };
    for (name, value, unit) in [
        ("p50_ms", med(|w| w.p50_ms), "ms"),
        ("p90_ms", med(|w| w.p90_ms), "ms"),
        ("ops_per_s", med(|w| Some(w.ops_per_s)), "1/s"),
        ("cpu_us_per_op", med(|w| Some(w.cpu_us_per_op)), "us"),
    ] {
        if let Some(value) = value {
            out.put(name, value, unit);
        }
    }
    // Memory grows over a run, so it is the median over every window: which
    // windows the host disturbed must not decide when it is sampled.
    let rss: Vec<f64> = windows.iter().map(|w| w.rss_mb).collect();
    out.put("rss_mb", median(&rss).unwrap_or(0.0), "MiB");
    out.put("windows", windows.len() as f64, "count");
    out.put("windows_used", chosen.len() as f64, "count");
}

impl Acc {
    fn per_second(&self) -> f64 {
        ratio(self.committed as f64, self.elapsed.as_secs_f64())
    }

    fn per_cpu_second(&self) -> f64 {
        ratio(self.committed as f64, self.cpu.as_secs_f64())
    }
}

/// One generator thread's results for one window.
#[derive(Default)]
struct GenWindow {
    attempted: u64,
    failed: u64,
    committed: u64,
    payload_bytes: u64,
    rw: Samples,
    ro: Samples,
    ping: Samples,
    history: Vec<TxnObs>,
}

/// Issues planned transactions back to back until `deadline` (or `limit`
/// of them).
fn generate(
    api: &dyn AftApi,
    plans: &mut PlanStream,
    deadline: Instant,
    limit: Option<u64>,
    trace: &mut Option<Trace>,
    names: &Names,
    pinger: Option<&AftClient>,
) -> GenWindow {
    let mut out = GenWindow::default();
    while limit.is_none_or(|n| out.attempted < n) {
        let plan = plans.next_plan();
        let began = Instant::now();
        if began >= deadline {
            break;
        }
        out.attempted += 1;
        let (obs, result) = run_txn(api, &plan, trace, names);
        let latency = began.elapsed();
        match result {
            Ok(()) if plan.total_writes() == 0 => out.ro.record(latency),
            Ok(()) => {
                out.rw.record(latency);
                out.payload_bytes += (plan.write_set().len() * plan.value_size) as u64;
            }
            Err(_) => out.failed += 1,
        }
        out.committed += u64::from(obs.as_ref().is_some_and(|o| o.acked.is_some()));
        out.history.extend(obs);
        if let (Some(client), Some(_)) = (pinger, trace.as_ref()) {
            if out.attempted % PING_EVERY == 0 {
                match client.ping() {
                    Ok(rtt) => out.ping.record(rtt),
                    Err(_) => out.failed += 1,
                }
            }
        }
    }
    out
}

/// Runs one window on `sut` and folds it into `acc`; returns the window's
/// client history.
fn window(
    sut: &Sut,
    plans: &mut [PlanStream],
    traces: &mut [Option<Trace>],
    traced: bool,
    limit: Option<u64>,
    acc: &mut Acc,
) -> Vec<TxnObs> {
    let names = if sut.client.is_some() { &NET } else { &CORE };
    if let Some(w) = &sut.wrapper {
        w.set_enabled(traced);
    }
    let before = sut.counters();
    let steal = sys::steal_ticks();
    let cpu = sys::process_cpu();
    let start = Instant::now();
    // A transaction-count window still ends by the time cap.
    let deadline = start + if limit.is_some() { WINDOW_CAP } else { WINDOW };
    let outs: Vec<GenWindow> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter_mut()
            .zip(traces.iter_mut())
            .enumerate()
            .map(|(i, (plans, trace))| {
                let api = &*sut.api;
                let pinger = sut.client.as_deref().filter(|_| i == 0);
                let mut window_trace = if traced { trace.take() } else { None };
                s.spawn(move || {
                    let out = generate(
                        api,
                        plans,
                        deadline,
                        limit,
                        &mut window_trace,
                        names,
                        pinger,
                    );
                    if window_trace.is_some() {
                        *trace = window_trace;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator threads do not panic"))
            .collect()
    });
    let elapsed = start.elapsed();
    let window_cpu = sys::process_cpu() - cpu;
    let stolen = steal_share(sys::steal_ticks() - steal, elapsed);
    acc.elapsed += elapsed;
    acc.cpu += window_cpu;
    acc.layers.absorb(&sut.counters().since(&before));
    let mut all = Samples::default();
    for out in &outs {
        all.merge(&out.rw);
        all.merge(&out.ro);
    }
    let committed: u64 = outs.iter().map(|o| o.committed).sum();
    acc.windows.push(WindowStats {
        p50_ms: all.quantile_ms(0.5),
        p90_ms: all.quantile_ms(0.9),
        ops_per_s: ratio(committed as f64, elapsed.as_secs_f64()),
        cpu_us_per_op: ratio(window_cpu.as_secs_f64() * 1e6, committed as f64),
        rss_mb: sys::rss_mb(),
        steal: stolen,
    });
    let mut history = Vec::new();
    for out in outs {
        acc.attempted += out.attempted;
        acc.failed += out.failed;
        acc.committed += out.committed;
        acc.payload_bytes += out.payload_bytes;
        acc.rw.merge(&out.rw);
        acc.ro.merge(&out.ro);
        acc.ping.merge(&out.ping);
        history.extend(out.history);
    }
    history
}

/// Runs a workload for `seconds` and measures it. With `traced`, odd
/// windows record spans and layer counters and even windows do not; the
/// tracing overhead is the traced windows' transactions per CPU-second over
/// the untraced ones'.
pub fn run(workload: Workload, seed: u64, seconds: u64, traced: bool) -> AftResult<Outcome> {
    if workload == Workload::Recover {
        return run_recover(seed, seconds, traced);
    }
    let origin = Instant::now();
    let mut plans: Vec<PlanStream> = (0..CLIENTS)
        .map(|t| PlanStream::new(workload, seed, t))
        .collect();
    let mut traces: Vec<Option<Trace>> = (0..CLIENTS)
        .map(|_| traced.then(|| Trace::new(origin)))
        .collect();
    let mut untraced_acc = Acc::default();
    let mut traced_acc = Acc::default();
    let mut setups = Vec::new();
    let mut violations = Violations::default();
    let fresh_per_window = workload == Workload::CommitMem;
    let limit = fresh_per_window.then_some(COMMIT_MEM_TXNS / CLIENTS as u64);
    let mut sut: Option<Sut> = None;
    if !fresh_per_window {
        for i in 0..SETUPS as u64 {
            drop(sut.take());
            let built = Sut::build(workload, seed, i, traced)?;
            setups.push(built.setup.as_secs_f64());
            sut = Some(built);
        }
    }
    // Memory is measured at the ends of the windows, without the set-ups'
    // garbage.
    sys::release_free_memory();
    // The writers seen so far (set-up preload included) and the newest
    // window's transactions; each window is checked as it ends, then only
    // the writes are kept, so the history does not grow with throughput.
    let mut history = Vec::new();
    if let Some(built) = sut.as_mut() {
        history.append(&mut built.history);
    }
    let run_for = Duration::from_secs(seconds);
    let mut w = 0u64;
    while untraced_acc.elapsed + traced_acc.elapsed < run_for {
        let traced_window = traced && w % 2 == 1;
        if fresh_per_window {
            let mut built = Sut::build(workload, seed, w, traced)?;
            setups.push(built.setup.as_secs_f64());
            history.append(&mut built.history);
            sut = Some(built);
        }
        let current = sut.as_ref().expect("a system is set up before each window");
        let acc = if traced_window {
            &mut traced_acc
        } else {
            &mut untraced_acc
        };
        history.extend(window(
            current,
            &mut plans,
            &mut traces,
            traced_window,
            limit,
            acc,
        ));
        violations.add(&history::check(&history));
        history::forget_reads(&mut history);
        if fresh_per_window {
            history.clear();
            drop(sut.take());
            // Each window's generator threads are new, and the allocator may
            // give them fresh arenas; without this, freed systems would pile
            // up in the resident set.
            sys::release_free_memory();
        }
        w += 1;
    }
    drop(sut);

    let mut out = Outcome {
        violations,
        ..Outcome::default()
    };
    for acc in [&untraced_acc, &traced_acc] {
        out.attempted += acc.attempted;
        out.failed += acc.failed;
    }
    out.put("setup_s", median(&setups).unwrap_or(0.0), "s");
    end_to_end(&mut out, &mut untraced_acc);
    if traced {
        for trace in traces.iter().flatten() {
            trace.durations(&mut traced_acc.spans);
        }
        per_layer(&mut out, &mut traced_acc, &untraced_acc);
        out.traces = traces.into_iter().flatten().collect();
    }
    Ok(out)
}

/// The end-to-end metrics of the untraced windows.
fn end_to_end(out: &mut Outcome, acc: &mut Acc) {
    publish_windows(out, &acc.windows);
    let write_amp = ratio(
        acc.layers.get("backend.bytes_written") as f64,
        acc.payload_bytes as f64,
    );
    out.put("write_amp", write_amp, "ratio");
    out.quantile("rw_p50_ms", &mut acc.rw, 0.5, "ms");
    out.quantile("rw_p99_ms", &mut acc.rw, 0.99, "ms");
    out.quantile("ro_p50_ms", &mut acc.ro, 0.5, "ms");
    out.quantile("ro_p99_ms", &mut acc.ro, 0.99, "ms");
    out.put("tps", acc.per_second(), "1/s");
    out.put(
        "cpu_us_per_txn",
        ratio(acc.cpu.as_secs_f64() * 1e6, acc.committed as f64),
        "us",
    );
    out.put(
        "failed_ratio",
        ratio(acc.failed as f64, acc.attempted as f64),
        "ratio",
    );
}

/// The per-layer metrics of the traced windows, and the tracing overhead:
/// their transactions per CPU-second over the untraced windows'.
fn per_layer(out: &mut Outcome, acc: &mut Acc, untraced: &Acc) {
    out.put(
        "trace.overhead_ratio",
        ratio(acc.per_cpu_second(), untraced.per_cpu_second()),
        "ratio",
    );
    let txns = acc.committed as f64;
    let c = acc.layers.clone();
    let per_txn = |key: &str| ratio(c.get(key) as f64, txns);
    for (name, span, p) in [
        ("core.get.p50_us", "core.get", 0.5),
        ("core.get.p99_us", "core.get", 0.99),
        ("core.put.p50_us", "core.put", 0.5),
        ("core.commit.p50_us", "core.commit", 0.5),
        ("core.commit.p99_us", "core.commit", 0.99),
        ("core.ro_commit.p50_us", "core.ro_commit", 0.5),
        ("net.get.p50_us", "net.get", 0.5),
        ("net.get.p99_us", "net.get", 0.99),
        ("net.commit.p50_us", "net.commit", 0.5),
        ("net.commit.p99_us", "net.commit", 0.99),
        ("client.txn_self.p50_us", "txn.self", 0.5),
    ] {
        if let Some(samples) = acc.spans.get_mut(span) {
            out.quantile(name, samples, p, "us");
        }
    }
    out.quantile("net.ping.p50_us", &mut acc.ping, 0.5, "us");
    let hits = c.get("node.cache_hits") as f64;
    let misses = c.get("node.storage_reads") as f64;
    out.put("core.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
    out.put(
        "core.storage_reads_per_txn",
        per_txn("node.storage_reads"),
        "count",
    );
    out.put(
        "core.no_valid_version_aborts",
        c.get("node.no_valid_version") as f64,
        "count",
    );
    out.put(
        "core.batcher.commits_per_flush",
        ratio(
            c.get("batch.submitted") as f64,
            c.get("batch.flushes") as f64,
        ),
        "count",
    );
    io_metrics(out, &c, txns);
    storage_metrics(out, &c, txns);
    out.put(
        "net.client.requests_per_txn",
        per_txn("client.requests"),
        "count",
    );
    out.put(
        "net.client.retries",
        c.get("client.retries") as f64,
        "count",
    );
    out.put(
        "net.server.frames_per_writev",
        ratio(
            c.get("server.frames_written") as f64,
            c.get("server.writev_calls") as f64,
        ),
        "count",
    );
    let reuses = c.get("server.buffer_reuses") as f64;
    let allocs = c.get("server.buffer_allocations") as f64;
    out.put(
        "net.server.buffer_reuse_ratio",
        ratio(reuses, reuses + allocs),
        "ratio",
    );
    out.put("net.server.bytes_per_txn", per_txn("server.bytes"), "B");
    out.put("net.server.shed", c.get("server.shed") as f64, "count");
    out.put("net.server.errors", c.get("server.errors") as f64, "count");
    out.put(
        "cluster.dissemination.messages_per_commit",
        per_txn("dissem.messages"),
        "count",
    );
    out.put(
        "cluster.dissemination.bytes_per_commit",
        per_txn("dissem.bytes"),
        "B",
    );
    out.put(
        "cluster.dissemination.rounds",
        c.get("dissem.rounds") as f64,
        "count",
    );
}

fn io_metrics(out: &mut Outcome, c: &Counters, ops: f64) {
    let submitted = c.get("io.submitted") as f64;
    out.put("io.requests_per_txn", ratio(submitted, ops), "count");
    out.put(
        "io.inline_ratio",
        ratio(c.get("io.inline") as f64, submitted),
        "ratio",
    );
    out.put(
        "io.deferred_ratio",
        ratio(c.get("io.deferred") as f64, c.get("io.completed") as f64),
        "ratio",
    );
    out.put(
        "io.peak_in_flight",
        c.get("max.io.peak_in_flight") as f64,
        "count",
    );
    out.put("io.retries", c.get("io.retries") as f64, "count");
}

fn storage_metrics(out: &mut Outcome, c: &Counters, ops: f64) {
    let per_op = |key: &str| ratio(c.get(key) as f64, ops);
    for (name, call) in [
        ("storage.get.calls_per_txn", Call::Get),
        ("storage.put.calls_per_txn", Call::Put),
        ("storage.put_batch.calls_per_txn", Call::PutBatch),
        ("storage.list.calls_per_txn", Call::List),
    ] {
        out.put(name, per_op(storage_key(call)), "count");
    }
    out.put(
        "storage.modelled_ms_per_txn",
        per_op("model.injected_ns") / 1e6,
        "ms",
    );
    out.put(
        "storage.bytes_written_per_txn",
        per_op("storage.bytes_written"),
        "B",
    );
    out.put(
        "storage.bytes_read_per_txn",
        per_op("storage.bytes_read"),
        "B",
    );
    out.put(
        "storage.cpu_us_per_txn",
        per_op("storage.busy_ns") / 1e3,
        "us",
    );
}

/// The fixed history `recover` bootstraps from.
struct RecoverStore {
    store: SharedStorage,
    backend: SharedStorage,
    wrapper: Option<Arc<CountingStorage>>,
    history: Vec<TxnObs>,
    setup: Duration,
    checkpoint_write: Duration,
    payload_bytes: u64,
}

const RECOVER_VALUE: usize = 512;

/// Writes the `recover` history: a preload, then [`HISTORY_COMMITS`]
/// two-key commits from [`CLIENTS`] threads, checkpointing (with
/// compaction) after 90% of them.
fn write_history(seed: u64, index: u64, traced: bool) -> AftResult<RecoverStore> {
    let start = Instant::now();
    let backend: SharedStorage = InMemoryStore::shared();
    let wrapper = traced.then(|| CountingStorage::wrap(Arc::clone(&backend)));
    let store: SharedStorage = match &wrapper {
        Some(w) => Arc::clone(w) as SharedStorage,
        None => Arc::clone(&backend),
    };
    let node = AftNode::new(
        NodeConfig::default().with_seed(derive(seed, index)),
        Arc::clone(&store),
    )?;
    let keys: Vec<usize> = (0..1_000).collect();
    let mut history = preload(&*node, &keys, RECOVER_VALUE)?;
    let mut payload_bytes = (keys.len() * RECOVER_VALUE) as u64;
    let config = WorkloadConfig {
        functions: 1,
        reads_per_function: 0,
        writes_per_function: 2,
        value_size: RECOVER_VALUE,
        ..WorkloadConfig::standard()
    };
    let mut writers: Vec<WorkloadGenerator> = (0..CLIENTS)
        .map(|t| WorkloadGenerator::new(config.clone(), derive(seed, 200 + t as u64)))
        .collect();
    let head = HISTORY_COMMITS * 9 / 10;
    let mut checkpoint_write = Duration::ZERO;
    for (phase, commits) in [head, HISTORY_COMMITS - head].into_iter().enumerate() {
        let results: Vec<AftResult<(Vec<TxnObs>, u64)>> = std::thread::scope(|s| {
            let handles: Vec<_> = writers
                .iter_mut()
                .enumerate()
                .map(|(t, plans)| {
                    let api: &dyn AftApi = &*node;
                    let share = commits / CLIENTS + usize::from(t < commits % CLIENTS);
                    s.spawn(move || {
                        let mut obs = Vec::with_capacity(share);
                        let mut bytes = 0u64;
                        for _ in 0..share {
                            let plan = plans.next_plan();
                            let (o, result) = run_txn(api, &plan, &mut None, &CORE);
                            result?;
                            bytes += (plan.write_set().len() * plan.value_size) as u64;
                            obs.extend(o);
                        }
                        Ok((obs, bytes))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("history writers do not panic"))
                .collect()
        });
        for result in results {
            let (obs, bytes) = result?;
            history.extend(obs);
            payload_bytes += bytes;
        }
        if phase == 0 {
            let t = Instant::now();
            node.checkpoint_now(true)?;
            checkpoint_write = t.elapsed();
        }
    }
    drop(node);
    Ok(RecoverStore {
        store,
        backend,
        wrapper,
        history,
        setup: start.elapsed(),
        checkpoint_write,
        payload_bytes,
    })
}

/// Reads every key on `node`, each in a transaction of its own (so one
/// read's version cannot constrain another's), for the lost-commit check.
fn read_all(node: &AftNode, keys: usize) -> AftResult<Vec<(Key, Seen)>> {
    (0..keys)
        .map(|i| {
            let key = key_name(i);
            let txid = node.start_transaction();
            let got = node.get_versioned(&txid, &key)?;
            node.abort(&txid)?;
            Ok((key, Seen::of(got)))
        })
        .collect()
}

/// A `recover` measurement window: [`RECOVER_WINDOW_REPS`] untraced
/// bootstraps. Its throughput and CPU count only the timed bootstraps.
struct RecoverWindow {
    start: Instant,
    steal: u64,
    latencies: Samples,
    busy: Duration,
    cpu: Duration,
    rss_mb: Vec<f64>,
}

impl RecoverWindow {
    fn open() -> Self {
        RecoverWindow {
            start: Instant::now(),
            steal: sys::steal_ticks(),
            latencies: Samples::default(),
            busy: Duration::ZERO,
            cpu: Duration::ZERO,
            rss_mb: Vec::new(),
        }
    }

    fn record(&mut self, latency: Duration, cpu: Duration) {
        self.latencies.record(latency);
        self.busy += latency;
        self.cpu += cpu;
    }

    fn close(mut self) -> Option<WindowStats> {
        let n = self.latencies.len() as f64;
        let p90_ms = self.latencies.quantile_ms(0.9)?;
        Some(WindowStats {
            p50_ms: self.latencies.quantile_ms(0.5),
            p90_ms: Some(p90_ms),
            ops_per_s: ratio(n, self.busy.as_secs_f64()),
            cpu_us_per_op: ratio(self.cpu.as_secs_f64() * 1e6, n),
            rss_mb: median(&self.rss_mb).unwrap_or(0.0),
            steal: steal_share(sys::steal_ticks() - self.steal, self.start.elapsed()),
        })
    }
}

/// The `recover` workload: repeated cold bootstraps of a replacement node.
fn run_recover(seed: u64, seconds: u64, traced: bool) -> AftResult<Outcome> {
    let origin = Instant::now();
    let mut setups = Vec::new();
    let mut checkpoint_writes = Vec::new();
    let mut fixture = None;
    for i in 0..SETUPS as u64 {
        drop(fixture.take());
        let built = write_history(seed, i, traced)?;
        setups.push(built.setup.as_secs_f64());
        checkpoint_writes.push(built.checkpoint_write.as_secs_f64());
        fixture = Some(built);
    }
    let fixture = fixture.expect("SETUPS > 0");
    let write_amp = ratio(
        fixture.backend.stats().snapshot().bytes_written as f64,
        fixture.payload_bytes as f64,
    );

    let zipf = ZipfGenerator::new(1_000, 1.0);
    let mut rng = StdRng::seed_from_u64(derive(seed, 300));
    let mut trace = traced.then(|| Trace::new(origin));
    let mut untraced_acc = Acc::default();
    let mut traced_acc = Acc::default();
    let mut served = Vec::new();
    let mut load_ms = Samples::default();
    let mut tail_phase = Samples::default();
    let mut storage_calls = Vec::new();
    let mut bootstrap = None;
    sys::release_free_memory();
    let deadline = Instant::now() + Duration::from_secs(seconds.max(1));
    let mut windows = Vec::new();
    let mut current = RecoverWindow::open();
    let mut rep = 0u64;
    while Instant::now() < deadline {
        if current.latencies.len() >= RECOVER_WINDOW_REPS {
            windows.extend(std::mem::replace(&mut current, RecoverWindow::open()).close());
        }
        let traced_rep = traced && rep % 2 == 1;
        if let Some(w) = &fixture.wrapper {
            w.set_enabled(traced_rep);
        }
        let calls_before = fixture.wrapper.as_ref().map(|w| w.counts());
        let key = key_name(zipf.sample(&mut rng));
        let config = NodeConfig::default().with_seed(derive(seed, 1_000 + rep));
        let mut rep_trace = if traced_rep { trace.take() } else { None };
        let acc = if traced_rep {
            &mut traced_acc
        } else {
            &mut untraced_acc
        };
        acc.attempted += 1;
        let cpu = sys::process_cpu();
        let start = Instant::now();
        let span = rep_trace.as_mut().map_or(0, |t| t.open("recover"));
        let attempt = (|| -> AftResult<(Arc<AftNode>, Seen)> {
            let node = timed(&mut rep_trace, span, "core.bootstrap", 0, || {
                AftNode::new(config, Arc::clone(&fixture.store))
            })?;
            let txid = node.start_transaction();
            let got = timed(&mut rep_trace, span, "core.get", 0, || {
                node.get_versioned(&txid, &key)
            })?;
            node.abort(&txid)?;
            Ok((node, Seen::of(got)))
        })();
        let latency = start.elapsed();
        let rep_cpu = sys::process_cpu() - cpu;
        acc.cpu += rep_cpu;
        if let Some(t) = rep_trace.as_mut() {
            t.close(span, rep);
        }
        if rep_trace.is_some() {
            trace = rep_trace;
        }
        let node = match attempt {
            Ok((node, seen)) => {
                acc.rw.record(latency);
                acc.elapsed += latency;
                if !traced_rep {
                    current.record(latency, rep_cpu);
                }
                acc.committed += 1;
                served.push((key, seen));
                node
            }
            Err(_) => {
                acc.failed += 1;
                rep += 1;
                continue;
            }
        };
        if traced_rep {
            acc.layers.add_node(&node);
            if let (Some(w), Some(before)) = (&fixture.wrapper, calls_before) {
                let delta = w.counts().since(&before);
                storage_calls.push(delta.calls.iter().sum::<u64>() as f64);
                acc.layers.add_storage(&delta);
            }
        }
        if rep.is_multiple_of(VERIFY_EVERY) {
            served.extend(read_all(&node, 1_000)?);
        }
        if !traced_rep {
            current.rss_mb.push(sys::rss_mb());
        }
        drop(node);
        if traced_rep {
            if let Some(w) = &fixture.wrapper {
                w.set_enabled(false);
            }
            // The phases of one bootstrap, timed by calling the checkpoint
            // loader and the checkpointed warm-up directly.
            let io = IoEngine::new(Arc::clone(&fixture.store), IoConfig::pipelined());
            let t = Instant::now();
            load_latest_checkpoint(&io)?;
            let load = t.elapsed();
            let t = Instant::now();
            let outcome = warm_metadata_cache_checkpointed(
                &io,
                &MetadataCache::new(),
                NodeConfig::default().bootstrap_limit,
                "perfbench-probe",
                None,
            )?;
            let warm = t.elapsed();
            load_ms.record(load);
            tail_phase.record(warm.saturating_sub(load));
            bootstrap = Some(outcome);
        }
        rep += 1;
    }

    windows.extend(current.close());
    let mut violations = history::check(&fixture.history);
    violations.add(&history::check_recovered(&fixture.history, &served));
    let mut out = Outcome {
        violations,
        ..Outcome::default()
    };
    for acc in [&untraced_acc, &traced_acc] {
        out.attempted += acc.attempted;
        out.failed += acc.failed;
    }
    out.put("setup_s", median(&setups).unwrap_or(0.0), "s");
    publish_windows(&mut out, &windows);
    let acc = &mut untraced_acc;
    out.quantile("recovery_p50_ms", &mut acc.rw, 0.5, "ms");
    out.quantile("recovery_p90_ms", &mut acc.rw, 0.9, "ms");
    out.put("write_amp", write_amp, "ratio");
    out.put(
        "failed_ratio",
        ratio(acc.failed as f64, acc.attempted as f64),
        "ratio",
    );
    if traced {
        let acc = &mut traced_acc;
        if let Some(t) = &trace {
            t.durations(&mut acc.spans);
        }
        per_layer(&mut out, acc, &untraced_acc);
        if let Some(b) = &bootstrap {
            out.put(
                "bootstrap.from_checkpoint",
                b.from_checkpoint as f64,
                "count",
            );
            out.put("bootstrap.from_tail", b.from_tail as f64, "count");
            out.put("bootstrap.bytes_read", b.bytes_read as f64, "B");
        }
        out.put(
            "bootstrap.storage_calls",
            median(&storage_calls).unwrap_or(0.0),
            "count",
        );
        out.quantile("checkpoint.load.p50_ms", &mut load_ms, 0.5, "ms");
        out.quantile("bootstrap.tail.p50_ms", &mut tail_phase, 0.5, "ms");
        out.put(
            "checkpoint.write_s",
            median(&checkpoint_writes).unwrap_or(0.0),
            "s",
        );
        out.traces = trace.into_iter().collect();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_plans() {
        for workload in Workload::ALL {
            for thread in 0..CLIENTS {
                let mut a = PlanStream::new(workload, 42, thread);
                let mut b = PlanStream::new(workload, 42, thread);
                for _ in 0..500 {
                    assert_eq!(a.next_plan(), b.next_plan());
                }
            }
        }
        let first = |seed| PlanStream::new(Workload::CommitMem, seed, 0).next_plan();
        assert_ne!(first(1), first(2));
        // The two generators of one run draw different streams.
        let mut t0 = PlanStream::new(Workload::ServiceMix, 1, 0);
        let mut t1 = PlanStream::new(Workload::ServiceMix, 1, 1);
        assert_ne!(
            (0..10).map(|_| t0.next_plan()).collect::<Vec<_>>(),
            (0..10).map(|_| t1.next_plan()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn mixes_follow_their_definitions() {
        let mut s = PlanStream::new(Workload::ReadDynamo, 3, 0);
        let read_only = (0..10_000)
            .filter(|_| s.next_plan().total_writes() == 0)
            .count();
        assert!((8_800..9_200).contains(&read_only), "{read_only}");
        let mut s = PlanStream::new(Workload::CommitMem, 3, 0);
        let plan = s.next_plan();
        assert_eq!((plan.total_reads(), plan.total_writes()), (4, 2));
        assert_eq!(plan.value_size, 4096);
    }

    #[test]
    fn a_short_commit_mem_run_is_clean() {
        let out = run(Workload::CommitMem, 5, 2, false).unwrap();
        assert_eq!(out.violations.total(), 0);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 100);
    }
}
