//! The AFT wire-protocol server.
//!
//! [`AftServer`] fronts an `aft-cluster` [`Cluster`] with a `std::net` TCP
//! listener. One readiness-driven I/O thread owns every socket — accept,
//! nonblocking reads into incremental frame decoders, and vectored batched
//! writes — behind the vendored `polling` poller. Connections live in a slab
//! of per-connection state machines, so thread count is O(workers) while
//! connections scale to thousands. See [`crate::event_loop`] for the
//! state-machine details.
//!
//! A **sized worker pool** drains one shared queue, executes each request
//! against the cluster (routing through the round-robin router, with
//! per-transaction node affinity), and hands the encoded response back to
//! the I/O thread through a wakeable completion queue.
//!
//! Because workers are shared, two pipelined requests from one connection
//! execute concurrently and their responses — which carry the client's
//! request ids — may be written in either order; out-of-order completion is
//! the *normal* case under pipelining, not an edge case.
//!
//! ## Transaction affinity and the commit ledger
//!
//! The paper pins each logical request to one node for its lifetime (§6);
//! the server reproduces that per *transaction*: the first verb naming a
//! transaction routes it and later verbs stick to the chosen node, so the
//! server-side read set (Algorithm 1's state) accumulates in one place.
//!
//! `Commit` goes through a **dedup ledger** keyed by transaction UUID:
//! completed commits record their outcome, and a retransmitted `Commit` —
//! the client's connection died in §4.2's lost-ack window — is acknowledged
//! from the ledger with the *original* final id, never applied twice
//! (idempotence, §3.1, now end to end). Concurrent duplicates single-flight
//! on the UUID: the second waits for the first's verdict instead of racing
//! it.
//!
//! ## Overload protection
//!
//! Three independent, builder-configured mechanisms keep a saturated server
//! *useful* instead of merely not-crashing (all off by default except
//! backpressure):
//!
//! * **Admission control** ([`ServerBuilder::admission_limit`]): when the
//!   worker queue is already at the limit, a new request is rejected
//!   immediately with the typed, retryable [`AftError::Overloaded`] instead
//!   of being parked — the client backs off with decorrelated jitter rather
//!   than piling more latency onto the queue. Commit requests are exempt:
//!   the server has already executed their transaction's reads, and
//!   rejecting the commit would convert that finished work into waste, so
//!   load is refused at the pipeline entry (the reads) instead.
//! * **Load shedding** ([`ServerBuilder::queue_deadline`]): a job that
//!   waited in the queue longer than the deadline is answered `Overloaded`
//!   *without being executed*. Shedding is always safe: a shed commit was
//!   never applied and never acknowledged, so the client's retry is the
//!   first execution, not a duplicate.
//! * **Fair queuing** ([`ServerBuilder::fair_queuing`]): one lane per
//!   connection, drained round-robin, so a single pipelining firehose
//!   cannot starve every other client's requests behind its backlog.
//!
//! `queue_capacity` backpressure (stop reading a socket while the pool is
//! saturated) remains underneath all three.
//!
//! ## Shutdown
//!
//! [`AftServer::shutdown`] is graceful and idempotent: it stops accepting,
//! closes every connection, drains the workers, and joins all threads.
//! Dropping the server shuts it down.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aft_cluster::Cluster;
use aft_core::read::is_atomic_readset;
use aft_core::AftNode;
use aft_types::wire::{encode_response, WireRequest, WireResponse, WireStats};
use aft_types::{AftError, AftResult, Key, TransactionId, Uuid, Value};
use parking_lot::{Condvar, Mutex};
use polling::Poller;

use crate::buffer::BufferPool;
use crate::event_loop::{
    Completion, CompletionAction, ConnHandle, EventLoop, EventSnapshot, EventStats,
};
use crate::stats::ServiceStats;

/// Completed commits remembered for duplicate detection; the oldest
/// entries are evicted beyond this. A duplicate arriving after its entry
/// was evicted would re-apply, so this comfortably covers the client retry
/// horizon.
const DEDUP_CAPACITY: usize = 65_536;

/// Transaction→node affinity entries kept; beyond this the oldest are
/// dropped (their transactions re-route on next touch).
const AFFINITY_CAPACITY: usize = 65_536;

/// Tuning of an [`AftServer`]; built with [`AftServer::builder`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    pub(crate) workers: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) slab_capacity: usize,
    pub(crate) admission_limit: usize,
    pub(crate) queue_deadline: Duration,
    pub(crate) fair_queuing: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 1_024,
            slab_capacity: 1_024,
            admission_limit: 0,
            queue_deadline: Duration::ZERO,
            fair_queuing: false,
        }
    }
}

impl ServerConfig {
    /// Starts a builder from the defaults (same as [`AftServer::builder`]).
    pub fn builder() -> ServerBuilder {
        ServerBuilder {
            config: ServerConfig::default(),
        }
    }

    /// Worker threads executing requests.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Decoded requests allowed to wait for a worker before backpressure.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Queue depth beyond which new non-commit requests are rejected
    /// (`0` disables; commits are exempt).
    pub fn admission_limit(&self) -> usize {
        self.admission_limit
    }

    /// Maximum queue age before a request is shed (`ZERO` disables).
    pub fn queue_deadline(&self) -> Duration {
        self.queue_deadline
    }

    /// Whether per-connection fair queuing is enabled.
    pub fn fair_queuing(&self) -> bool {
        self.fair_queuing
    }
}

/// Fluent configuration for [`AftServer`]. `AftServer::builder().build()`
/// is identical to `ServerConfig::default()`.
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    config: ServerConfig,
}

impl ServerBuilder {
    /// Worker threads executing requests (clamped to ≥ 1); the pool is
    /// shared by every connection.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// Decoded requests allowed to wait for a worker before the server
    /// stops pulling from sockets (backpressure): a client that pipelines
    /// faster than the pool drains is throttled by TCP instead of growing
    /// server memory without bound.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity.max(1);
        self
    }

    /// Connection slots preallocated in the event loop's slab (it grows
    /// beyond this; the knob sizes the warm path).
    pub fn slab_capacity(mut self, capacity: usize) -> Self {
        self.config.slab_capacity = capacity.max(1);
        self
    }

    /// Admission control: when the worker queue already holds this many
    /// requests, a newly arrived one is rejected immediately with the
    /// typed, retryable [`AftError::Overloaded`] instead of queueing.
    /// Commits bypass the check — their transaction's reads were already
    /// executed, and refusing the commit would waste that work; they stay
    /// bounded by `queue_capacity` backpressure. `0` (the default)
    /// disables admission control. Set it below `queue_capacity`, or
    /// per-socket backpressure pauses reads before admission ever gets to
    /// reject.
    pub fn admission_limit(mut self, limit: usize) -> Self {
        self.config.admission_limit = limit;
        self
    }

    /// Load shedding by queue age: a request that waited longer than this
    /// in the worker queue is answered [`AftError::Overloaded`] without
    /// being executed — its latency budget is already blown, so executing
    /// it would only delay fresher requests behind it. Always safe: a shed
    /// commit was never applied and never acknowledged. `ZERO` (the
    /// default) disables shedding.
    pub fn queue_deadline(mut self, deadline: Duration) -> Self {
        self.config.queue_deadline = deadline;
        self
    }

    /// Per-client fair queuing: one lane per connection, drained
    /// round-robin, so one pipelining firehose cannot starve other
    /// connections' requests behind its backlog. Off by default (plain
    /// FIFO).
    pub fn fair_queuing(mut self, fair: bool) -> Self {
        self.config.fair_queuing = fair;
        self
    }

    /// Finishes into a [`ServerConfig`].
    pub fn build(self) -> ServerConfig {
        self.config
    }

    /// Builds and immediately serves `cluster` on `addr`.
    pub fn serve(self, cluster: Arc<Cluster>, addr: &str) -> AftResult<AftServer> {
        AftServer::serve(cluster, addr, self.build())
    }
}

/// Decides the fate of each outgoing response — the server-side chaos/test
/// hook. Returning `false` drops the response *and resets the connection*,
/// reproducing a server that did the work and then died before the
/// acknowledgement flushed (§4.2's window, from the server's side).
pub trait ResponseFilter: Send + Sync {
    /// Called with every response about to be written.
    fn deliver(&self, request_id: u64, response: &WireResponse) -> bool;
}

/// A decoded request awaiting a worker.
pub(crate) struct Job {
    /// The originating connection; its id is the fair-queuing lane key.
    pub(crate) handle: Arc<ConnHandle>,
    pub(crate) request_id: u64,
    pub(crate) request: WireRequest,
    /// When the job entered the queue, for deadline-based shedding.
    pub(crate) enqueued: Instant,
}

/// The worker queue: plain FIFO, or one lane per connection drained
/// round-robin when fair queuing is on. The lane key is the connection id,
/// so a single connection pipelining thousands of requests only ever has
/// one request in flight toward the workers per full rotation — other
/// clients' requests are not stuck behind its backlog.
pub(crate) struct JobQueue {
    fair: bool,
    fifo: VecDeque<Job>,
    lanes: HashMap<u64, VecDeque<Job>>,
    /// Round-robin order over lanes that currently hold jobs.
    rotation: VecDeque<u64>,
    len: usize,
}

impl JobQueue {
    pub(crate) fn new(fair: bool) -> Self {
        JobQueue {
            fair,
            fifo: VecDeque::new(),
            lanes: HashMap::new(),
            rotation: VecDeque::new(),
            len: 0,
        }
    }

    /// Number of queued jobs across all lanes. (Named `depth` rather than
    /// `len` because the queue is a scheduling structure, not a container.)
    pub(crate) fn depth(&self) -> usize {
        self.len
    }

    pub(crate) fn push(&mut self, job: Job) {
        self.len += 1;
        if self.fair {
            let source = job.handle.id;
            let lane = self.lanes.entry(source).or_default();
            if lane.is_empty() {
                self.rotation.push_back(source);
            }
            lane.push_back(job);
        } else {
            self.fifo.push_back(job);
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Job> {
        let job = if self.fair {
            let source = self.rotation.pop_front()?;
            let lane = self.lanes.get_mut(&source)?;
            let job = lane.pop_front()?;
            if lane.is_empty() {
                // Drop empty lanes so the map tracks live connections, not
                // every connection ever accepted.
                self.lanes.remove(&source);
            } else {
                self.rotation.push_back(source);
            }
            Some(job)
        } else {
            self.fifo.pop_front()
        }?;
        self.len -= 1;
        Some(job)
    }
}

/// Completed-commit memory plus the single-flight set for in-progress ones.
struct CommitLedger {
    done: HashMap<Uuid, (TransactionId, bool)>,
    order: VecDeque<Uuid>,
    in_progress: HashSet<Uuid>,
    capacity: usize,
}

impl CommitLedger {
    fn new(capacity: usize) -> Self {
        CommitLedger {
            done: HashMap::new(),
            order: VecDeque::new(),
            in_progress: HashSet::new(),
            capacity,
        }
    }

    fn record(&mut self, uuid: Uuid, final_id: TransactionId, atomic: bool) {
        if self.done.insert(uuid, (final_id, atomic)).is_none() {
            self.order.push_back(uuid);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.done.remove(&old);
                }
            }
        }
    }
}

/// Transaction→node pinning with FIFO eviction.
struct AffinityMap {
    map: HashMap<Uuid, Arc<AftNode>>,
    order: VecDeque<Uuid>,
    capacity: usize,
}

impl AffinityMap {
    fn new(capacity: usize) -> Self {
        AffinityMap {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    fn insert(&mut self, uuid: Uuid, node: Arc<AftNode>) {
        if self.map.insert(uuid, node).is_none() {
            self.order.push_back(uuid);
            // Trim on `order`'s length, not `map`'s: commits and aborts
            // remove from the map but leave their uuid in `order`, so the
            // deque is what actually grows in steady state. Popped entries
            // are almost always those stale uuids; a popped *live*
            // transaction simply re-routes on its next touch.
            while self.order.len() > self.capacity {
                match self.order.pop_front() {
                    Some(old) => {
                        self.map.remove(&old);
                    }
                    None => break,
                }
            }
        }
    }
}

pub(crate) struct ServerShared {
    cluster: Arc<Cluster>,
    pub(crate) stats: Arc<ServiceStats>,
    pub(crate) config: ServerConfig,
    pub(crate) queue: Mutex<JobQueue>,
    pub(crate) queue_cv: Condvar,
    ledger: Mutex<CommitLedger>,
    ledger_cv: Condvar,
    affinity: Mutex<AffinityMap>,
    filter: Mutex<Option<Arc<dyn ResponseFilter>>>,
    /// Worker→event-loop completions, drained by the loop on each wake.
    pub(crate) completions: Mutex<VecDeque<Completion>>,
    /// The event loop's poller, for waking it from workers and shutdown.
    pub(crate) poller: Arc<Poller>,
    /// Monotonic connection ids — the fair-queuing lane keys.
    pub(crate) next_conn_id: AtomicU64,
    pub(crate) shutdown: AtomicBool,
}

impl ServerShared {
    /// Wakes the event loop out of its poll wait.
    pub(crate) fn wake_io(&self) {
        let _ = self.poller.notify();
    }

    /// Queues a completion for the event loop, waking it on the
    /// empty→non-empty transition (a pending wake byte covers the rest).
    fn push_completion(&self, completion: Completion) {
        let was_empty = {
            let mut completions = self.completions.lock();
            let was_empty = completions.is_empty();
            completions.push_back(completion);
            was_empty
        };
        if was_empty {
            self.wake_io();
        }
    }

    /// The node pinned to `txid`, routing and pinning on first touch.
    fn node_for(&self, txid: &TransactionId) -> AftResult<Arc<AftNode>> {
        let mut affinity = self.affinity.lock();
        if let Some(node) = affinity.map.get(&txid.uuid) {
            return Ok(Arc::clone(node));
        }
        let node = self.cluster.route()?;
        affinity.insert(txid.uuid, Arc::clone(&node));
        Ok(node)
    }

    fn forget_txn(&self, uuid: &Uuid) -> Option<Arc<AftNode>> {
        self.affinity.lock().map.remove(uuid)
    }

    fn execute(&self, request: &WireRequest) -> WireResponse {
        self.stats.record_request();
        match request {
            WireRequest::Ping => WireResponse::Pong,
            WireRequest::Stats => WireResponse::Stats(
                self.stats
                    .snapshot(self.cluster.registry().active_count() as u64),
            ),
            WireRequest::Get { txid, key } => {
                let result = self.node_for(txid).and_then(|node| {
                    node.ensure_transaction(*txid);
                    node.get_versioned(txid, key)
                });
                match result {
                    Ok(found) => WireResponse::Value(
                        // The server-side buffer holds no writes before
                        // commit (they live client-side), so the version is
                        // always a real committed id; NULL is defensive.
                        found.map(|(value, version)| {
                            (value, version.unwrap_or(TransactionId::NULL))
                        }),
                    ),
                    Err(e) => WireResponse::Error(e),
                }
            }
            WireRequest::GetAll { txid, keys } => {
                let result = self.node_for(txid).and_then(|node| {
                    node.ensure_transaction(*txid);
                    node.get_all(txid, keys)
                });
                match result {
                    Ok(values) => WireResponse::Values(values),
                    Err(e) => WireResponse::Error(e),
                }
            }
            WireRequest::Commit {
                txid,
                writes,
                reads,
            } => self.commit(txid, writes, reads),
            WireRequest::Abort { txid } => {
                // Idempotent by design: aborting a transaction the server
                // never saw (or already dropped) acknowledges cleanly.
                let node = self.forget_txn(&txid.uuid);
                if let Some(node) = node {
                    match node.abort(txid) {
                        Ok(()) | Err(AftError::UnknownTransaction(_)) => {}
                        Err(e) => return WireResponse::Error(e),
                    }
                }
                WireResponse::Aborted
            }
        }
    }

    fn commit(
        &self,
        txid: &TransactionId,
        writes: &[(Key, Value)],
        reads: &[(Key, TransactionId)],
    ) -> WireResponse {
        // Dedup + single-flight on the transaction UUID.
        {
            let mut ledger = self.ledger.lock();
            loop {
                if let Some((final_id, atomic)) = ledger.done.get(&txid.uuid) {
                    self.stats.record_duplicate_commit();
                    return WireResponse::Committed {
                        txid: *final_id,
                        atomic: *atomic,
                        duplicate: true,
                    };
                }
                if !ledger.in_progress.contains(&txid.uuid) {
                    ledger.in_progress.insert(txid.uuid);
                    break;
                }
                // A pipelined duplicate is being applied right now on
                // another worker; wait for its verdict rather than racing.
                if self.shutdown.load(Ordering::Acquire) {
                    return WireResponse::Error(AftError::Unavailable(
                        "server is shutting down".to_owned(),
                    ));
                }
                let _ = self
                    .ledger_cv
                    .wait_for(&mut ledger, Duration::from_millis(20));
            }
        }

        let result = self.node_for(txid).and_then(|node| {
            node.ensure_transaction(*txid);
            node.put_all(txid, writes.iter().cloned())?;
            let final_id = AftNode::commit(&node, txid)?;
            let atomic = is_atomic_readset(reads, node.metadata());
            Ok((final_id, atomic))
        });

        let mut ledger = self.ledger.lock();
        ledger.in_progress.remove(&txid.uuid);
        let response = match result {
            Ok((final_id, atomic)) => {
                ledger.record(txid.uuid, final_id, atomic);
                self.stats.record_commit();
                self.forget_txn(&txid.uuid);
                WireResponse::Committed {
                    txid: final_id,
                    atomic,
                    duplicate: false,
                }
            }
            Err(e) => WireResponse::Error(e),
        };
        self.ledger_cv.notify_all();
        response
    }
}

fn worker_loop(shared: Arc<ServerShared>) {
    let capacity = shared.config.queue_capacity.max(1);
    let deadline = shared.config.queue_deadline;
    loop {
        let job = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(job) = queue.pop() {
                    if queue.depth() + 1 >= capacity {
                        // The queue just dropped below capacity: paused
                        // event-loop connections may now have room.
                        shared.wake_io();
                    }
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                shared.queue_cv.wait(&mut queue);
            }
        };
        // Shedding: a job past its queue-age deadline is answered
        // `Overloaded` without executing. Safe by construction — nothing
        // was applied and nothing acked, so the client's retry is the
        // first execution, not a duplicate.
        let shed = !deadline.is_zero() && job.enqueued.elapsed() > deadline;
        let response = if shed {
            shared.stats.record_shed();
            WireResponse::Error(AftError::Overloaded(format!(
                "request shed after waiting past the {deadline:?} queue deadline"
            )))
        } else {
            let response = shared.execute(&job.request);
            if matches!(response, WireResponse::Error(_)) {
                shared.stats.record_error();
            }
            response
        };
        let deliver = {
            let filter = shared.filter.lock().clone();
            filter.is_none_or(|f| f.deliver(job.request_id, &response))
        };
        let action = if deliver {
            CompletionAction::Respond(encode_response(job.request_id, &response))
        } else {
            // The chaos hook ate the ack: the work (if any) is done and
            // durable, the client never hears about it, and the connection
            // resets — exactly the crash-after-commit interleaving.
            shared.stats.record_dropped_ack();
            CompletionAction::Reset
        };
        shared.push_completion(Completion {
            handle: job.handle,
            action,
        });
    }
}

/// A running AFT service endpoint. See the module docs for the threading
/// model.
pub struct AftServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    io: Mutex<Option<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    event_stats: Arc<EventStats>,
    event_pool: Arc<BufferPool>,
}

impl AftServer {
    /// Starts configuring a server; `.serve(cluster, addr)` launches it.
    pub fn builder() -> ServerBuilder {
        ServerConfig::builder()
    }

    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// serving `cluster`.
    pub fn serve(cluster: Arc<Cluster>, addr: &str, config: ServerConfig) -> AftResult<AftServer> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| AftError::Unavailable(format!("bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| AftError::Unavailable(format!("local_addr: {e}")))?;
        let shared = Arc::new(ServerShared {
            cluster,
            stats: Arc::new(ServiceStats::default()),
            queue: Mutex::new(JobQueue::new(config.fair_queuing)),
            queue_cv: Condvar::new(),
            ledger: Mutex::new(CommitLedger::new(DEDUP_CAPACITY)),
            ledger_cv: Condvar::new(),
            affinity: Mutex::new(AffinityMap::new(AFFINITY_CAPACITY)),
            filter: Mutex::new(None),
            completions: Mutex::new(VecDeque::new()),
            poller: Arc::new(
                Poller::new()
                    .map_err(|e| AftError::Unavailable(format!("event loop: poller: {e}")))?,
            ),
            next_conn_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            config,
        });
        let event_loop = EventLoop::new(Arc::clone(&shared), listener)?;
        let event_stats = event_loop.stats();
        let event_pool = event_loop.pool();
        let io = event_loop.spawn();
        let mut workers = Vec::new();
        for i in 0..shared.config.workers.max(1) {
            let worker_shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("aft-net-wrk-{i}"))
                    .spawn(move || worker_loop(worker_shared))
                    .expect("spawn worker thread"),
            );
        }
        Ok(AftServer {
            shared,
            addr,
            io: Mutex::new(Some(io)),
            workers: Mutex::new(workers),
            event_stats,
            event_pool,
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The cluster being served.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.shared.cluster
    }

    /// Point-in-time service counters.
    pub fn stats(&self) -> WireStats {
        self.shared
            .stats
            .snapshot(self.shared.cluster.registry().active_count() as u64)
    }

    /// The raw counters (for tests asserting single fields).
    pub fn service_stats(&self) -> &Arc<ServiceStats> {
        &self.shared.stats
    }

    /// The event loop's I/O counters. Always `Some`; the `Option` keeps
    /// the signature callers already match on.
    pub fn event_snapshot(&self) -> Option<EventSnapshot> {
        Some(self.event_stats.snapshot(&self.event_pool))
    }

    /// Installs the response filter (chaos/test hook); replaces any prior
    /// one.
    pub fn install_response_filter(&self, filter: Arc<dyn ResponseFilter>) {
        *self.shared.filter.lock() = Some(filter);
    }

    /// Removes the response filter.
    pub fn clear_response_filter(&self) {
        *self.shared.filter.lock() = None;
    }

    /// Gracefully stops the server: no new connections, existing ones
    /// closed, all threads joined. Idempotent.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // The poller wake makes the loop observe the flag; it tears down
        // every connection and the listener before exiting.
        self.shared.wake_io();
        if let Some(handle) = self.io.lock().take() {
            let _ = handle.join();
        }
        // Wake anything parked on the queue or the commit ledger, then join
        // the workers.
        self.shared.queue_cv.notify_all();
        self.shared.ledger_cv.notify_all();
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for AftServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for AftServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AftServer")
            .field("addr", &self.addr)
            .field("workers", &self.shared.config.workers)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use crate::stats::ConnStats;
    use aft_cluster::ClusterConfig;
    use aft_storage::InMemoryStore;
    use aft_types::clock::TickingClock;
    use std::net::TcpStream;
    use std::sync::atomic::AtomicUsize;

    fn served_cluster(nodes: usize) -> AftServer {
        let cluster = Cluster::with_clock(
            ClusterConfig::test(nodes),
            InMemoryStore::shared(),
            TickingClock::shared(1, 1),
        )
        .unwrap();
        AftServer::serve(cluster, "127.0.0.1:0", ServerConfig::default()).unwrap()
    }

    #[test]
    fn builder_defaults_match_default_config() {
        let built = AftServer::builder().build();
        let defaults = ServerConfig::default();
        assert_eq!(built.workers, defaults.workers);
        assert_eq!(built.queue_capacity, defaults.queue_capacity);
        assert_eq!(built.slab_capacity, defaults.slab_capacity);
        assert_eq!(built.admission_limit, defaults.admission_limit);
        assert_eq!(built.queue_deadline, defaults.queue_deadline);
        assert_eq!(built.fair_queuing, defaults.fair_queuing);
        // Overload protection is opt-in.
        assert_eq!(built.admission_limit, 0);
        assert_eq!(built.queue_deadline, Duration::ZERO);
        assert!(!built.fair_queuing);
    }

    #[test]
    fn builder_knobs_are_applied_and_clamped() {
        let config = AftServer::builder()
            .workers(0)
            .queue_capacity(7)
            .slab_capacity(9)
            .admission_limit(5)
            .queue_deadline(Duration::from_millis(3))
            .fair_queuing(true)
            .build();
        assert_eq!(config.workers, 1, "clamped to >= 1");
        assert_eq!(config.queue_capacity, 7);
        assert_eq!(config.slab_capacity, 9);
        assert_eq!(config.admission_limit(), 5);
        assert_eq!(config.queue_deadline(), Duration::from_millis(3));
        assert!(config.fair_queuing());
    }

    #[test]
    fn fair_queue_round_robins_across_connections() {
        let job = |source: u64, request_id: u64| Job {
            handle: Arc::new(ConnHandle {
                slot: 0,
                generation: 0,
                id: source,
                stats: ConnStats::default(),
                open: AtomicBool::new(true),
                inflight: AtomicUsize::new(0),
            }),
            request_id,
            request: WireRequest::Ping,
            enqueued: Instant::now(),
        };

        // Connection 1 floods five requests before connections 2 and 3
        // submit one each; round-robin still serves 2 and 3 immediately.
        let mut queue = JobQueue::new(true);
        for i in 0..5 {
            queue.push(job(1, 100 + i));
        }
        queue.push(job(2, 200));
        queue.push(job(3, 300));
        assert_eq!(queue.depth(), 7);
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| queue.pop())
            .map(|j| (j.handle.id, j.request_id))
            .collect();
        assert_eq!(
            order,
            vec![
                (1, 100),
                (2, 200),
                (3, 300),
                (1, 101),
                (1, 102),
                (1, 103),
                (1, 104)
            ]
        );
        assert_eq!(queue.depth(), 0);
        assert!(queue.lanes.is_empty(), "drained lanes are dropped");

        // Plain FIFO preserves global arrival order.
        let mut fifo = JobQueue::new(false);
        for i in 0..3 {
            fifo.push(job(1, i));
        }
        fifo.push(job(2, 9));
        let order: Vec<u64> = std::iter::from_fn(|| fifo.pop())
            .map(|j| j.request_id)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 9]);
    }

    #[test]
    fn serves_on_an_ephemeral_port_and_shuts_down() {
        let server = served_cluster(2);
        assert_ne!(server.local_addr().port(), 0);
        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn raw_socket_ping_round_trips() {
        use aft_types::wire::{decode_response, encode_request};
        let server = served_cluster(1);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut stream, &encode_request(42, &WireRequest::Ping)).unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        let (id, response) = decode_response(&payload).unwrap();
        assert_eq!(id, 42);
        assert_eq!(response, WireResponse::Pong);
        let stats = server.stats();
        assert_eq!(stats.connections_accepted, 1);
        assert_eq!(stats.requests, 1);
        let snapshot = server
            .event_snapshot()
            .expect("event mode exposes I/O stats");
        assert_eq!(snapshot.frames_read, 1);
        server.shutdown();
    }

    #[test]
    fn garbage_frames_close_the_connection_with_an_error() {
        use aft_types::wire::decode_response;
        let server = served_cluster(1);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut stream, b"definitely not a request").unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        let (_, response) = decode_response(&payload).unwrap();
        assert!(matches!(response, WireResponse::Error(AftError::Codec(_))));
        // The server hangs up after the error frame.
        assert!(read_frame(&mut stream).unwrap().is_none());
        server.shutdown();
    }

    #[test]
    fn ledger_evicts_oldest_beyond_capacity() {
        let mut ledger = CommitLedger::new(2);
        let tid = |n: u128| TransactionId::new(n as u64, Uuid::from_u128(n));
        ledger.record(Uuid::from_u128(1), tid(1), true);
        ledger.record(Uuid::from_u128(2), tid(2), true);
        ledger.record(Uuid::from_u128(3), tid(3), true);
        assert!(!ledger.done.contains_key(&Uuid::from_u128(1)));
        assert!(ledger.done.contains_key(&Uuid::from_u128(2)));
        assert!(ledger.done.contains_key(&Uuid::from_u128(3)));
    }

    #[test]
    fn affinity_map_evicts_oldest_beyond_capacity() {
        let cluster = Cluster::with_clock(
            ClusterConfig::test(1),
            InMemoryStore::shared(),
            TickingClock::shared(1, 1),
        )
        .unwrap();
        let node = cluster.route().unwrap();
        let mut affinity = AffinityMap::new(2);
        for i in 1..=3u128 {
            affinity.insert(Uuid::from_u128(i), Arc::clone(&node));
        }
        assert_eq!(affinity.map.len(), 2);
        assert!(!affinity.map.contains_key(&Uuid::from_u128(1)));
    }
}
