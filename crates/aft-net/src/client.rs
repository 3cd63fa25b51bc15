//! The AFT client SDK: speaks the wire protocol over a pooled, pipelined
//! TCP connection and implements [`AftApi`], so workload drivers run
//! unchanged against a socket.
//!
//! ## Design
//!
//! * **Client-side write buffer.** `Put` never crosses the wire; a
//!   transaction's writes accumulate in the SDK (the Atomic Write Buffer of
//!   §3.3 starts client-side) and ship inside the `Commit` frame. Reads
//!   check the local buffer first, so read-your-writes (§3.5) holds without
//!   a round trip, and the commit message is *self-contained* — resending
//!   it verbatim is always safe because the server deduplicates on the
//!   transaction UUID.
//! * **Pipelining.** Each pooled connection has one reader thread and a map
//!   of in-flight request ids to completion channels; any number of caller
//!   threads can have requests outstanding on the same connection, and
//!   responses complete in whatever order the server finishes them.
//! * **Retry with backoff.** Transport failures (reset, timeout, refused)
//!   reconnect and resend under the storage engine's
//!   [`RetryConfig`](aft_storage::io::RetryConfig) semantics: attempt `n`
//!   backs off `base_backoff << (n-1)` capped at `max_backoff`. Server-side
//!   *errors* are returned to the caller unchanged — the wire preserves
//!   their retryability classification, and whole-request retry policy
//!   belongs to the caller (§3.3.1), not the transport — with one
//!   exception: a server [`AftError::Overloaded`] verdict is retried
//!   in-transport under *decorrelated-jitter* backoff (see
//!   [`ClientStatsSnapshot::overload_retries`]), because retrying it is
//!   always safe (an overload rejection executed nothing) and jitter is
//!   what keeps a saturated server's clients from retrying in lockstep.
//! * **Chaos.** An optional [`ConnChaos`] injector resets or delays
//!   operations from a seeded plan; see [`crate::chaos`].

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use aft_core::api::{AftApi, CommitOutcome};
use aft_storage::io::RetryConfig;
use aft_types::wire::{decode_response, encode_request, WireRequest, WireResponse, WireStats};
use aft_types::{AftError, AftResult, Key, SharedClock, SystemClock, TransactionId, Uuid, Value};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use aft_chaos::ChaosSpec;

use crate::chaos::{ConnChaos, NetChaosStats, NetFault};
use crate::frame::{read_frame, write_frame};

/// Tuning of an [`AftClient`]; built with [`AftClient::builder`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub(crate) pool_size: usize,
    pub(crate) retry: RetryConfig,
    pub(crate) request_timeout: Duration,
    pub(crate) chaos: Option<ChaosSpec>,
    pub(crate) rng_seed: u64,
    pub(crate) record_acks: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            pool_size: 2,
            retry: RetryConfig::default(),
            request_timeout: Duration::from_secs(30),
            chaos: None,
            rng_seed: 0xAF7_0C11,
            record_acks: false,
        }
    }
}

impl ClientConfig {
    /// Starts a builder from the defaults (same as [`AftClient::builder`]).
    pub fn builder() -> ClientBuilder {
        ClientBuilder {
            config: ClientConfig::default(),
        }
    }

    /// Connections in the pool.
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }
}

/// Fluent configuration for [`AftClient`]. `AftClient::builder().build()`
/// is identical to `ClientConfig::default()`.
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    config: ClientConfig,
}

impl ClientBuilder {
    /// Connections in the pool (clamped to ≥ 1); transactions round-robin
    /// across them.
    pub fn pool_size(mut self, pool_size: usize) -> Self {
        self.config.pool_size = pool_size.max(1);
        self
    }

    /// Transport retry budget and backoff, mirroring the I/O engine's
    /// semantics (attempt `n` waits `base_backoff << (n-1)`, capped).
    pub fn retry(mut self, retry: RetryConfig) -> Self {
        self.config.retry = retry;
        self
    }

    /// How long one request may await its response before the connection is
    /// declared dead and the request retried.
    pub fn request_timeout(mut self, timeout: Duration) -> Self {
        self.config.request_timeout = timeout;
        self
    }

    /// Installs seeded connection-fault injection from the net layer of a
    /// unified chaos spec. The same spec (same seed) can drive the storage
    /// and platform layers of a cross-layer trial; each layer draws from
    /// its own decorrelated stream.
    pub fn chaos_spec(mut self, spec: ChaosSpec) -> Self {
        self.config.chaos = Some(spec);
        self
    }

    /// Seed for transaction UUIDs (distinct clients should use distinct
    /// seeds).
    pub fn rng_seed(mut self, rng_seed: u64) -> Self {
        self.config.rng_seed = rng_seed;
        self
    }

    /// When `true`, the final id of every acknowledged commit that wrote
    /// something is appended to an unbounded in-memory log
    /// ([`AftClient::acked_commits`]) so chaos verifiers can compare acks
    /// against the durable commit set. Off by default: a long-lived
    /// production client must not grow per commit.
    pub fn record_acks(mut self, record_acks: bool) -> Self {
        self.config.record_acks = record_acks;
        self
    }

    /// Finishes into a [`ClientConfig`].
    pub fn build(self) -> ClientConfig {
        self.config
    }

    /// Builds and immediately connects to `addr`.
    pub fn connect(self, addr: impl ToSocketAddrs) -> AftResult<Arc<AftClient>> {
        AftClient::connect(addr, self.build())
    }
}

/// In-flight request registry of one connection.
struct PendingMap {
    senders: HashMap<u64, mpsc::Sender<WireResponse>>,
    closed: bool,
}

/// One live connection: a mutex-guarded writer plus a reader thread that
/// dispatches responses to the pending map by request id.
struct Conn {
    writer: Mutex<TcpStream>,
    control: TcpStream,
    pending: Mutex<PendingMap>,
    broken: AtomicBool,
}

impl Conn {
    fn connect(addr: SocketAddr) -> AftResult<Arc<Conn>> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| AftError::Unavailable(format!("connect {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        let (writer, control) = match (stream.try_clone(), stream.try_clone()) {
            (Ok(writer), Ok(control)) => (writer, control),
            _ => return Err(AftError::Unavailable("clone stream".to_owned())),
        };
        let conn = Arc::new(Conn {
            writer: Mutex::new(writer),
            control,
            pending: Mutex::new(PendingMap {
                senders: HashMap::new(),
                closed: false,
            }),
            broken: AtomicBool::new(false),
        });
        let reader_conn = Arc::clone(&conn);
        std::thread::spawn(move || reader_conn.read_responses(stream));
        Ok(conn)
    }

    fn read_responses(self: Arc<Self>, mut stream: TcpStream) {
        while let Ok(Some(payload)) = read_frame(&mut stream) {
            let Ok((request_id, response)) = decode_response(&payload) else {
                break;
            };
            let sender = self.pending.lock().senders.remove(&request_id);
            if let Some(sender) = sender {
                let _ = sender.send(response);
            }
        }
        // Connection is gone: fail everything still in flight, fast. The
        // dropped senders make every waiter's `recv` return immediately.
        self.broken.store(true, Ordering::Release);
        let mut pending = self.pending.lock();
        pending.closed = true;
        pending.senders.clear();
    }

    /// Registers a request id; fails if the connection already died.
    fn register(&self, request_id: u64) -> AftResult<mpsc::Receiver<WireResponse>> {
        let (tx, rx) = mpsc::channel();
        let mut pending = self.pending.lock();
        if pending.closed || self.broken.load(Ordering::Acquire) {
            return Err(AftError::Unavailable("connection closed".to_owned()));
        }
        pending.senders.insert(request_id, tx);
        Ok(rx)
    }

    fn unregister(&self, request_id: u64) {
        self.pending.lock().senders.remove(&request_id);
    }

    fn send(&self, payload: &[u8]) -> AftResult<()> {
        let mut writer = self.writer.lock();
        write_frame(&mut *writer, payload).map_err(|e| {
            self.reset();
            AftError::Unavailable(format!("send: {e}"))
        })
    }

    /// Hard-resets the socket (used by chaos injection and teardown).
    fn reset(&self) {
        self.broken.store(true, Ordering::Release);
        let _ = self.control.shutdown(Shutdown::Both);
    }

    fn is_broken(&self) -> bool {
        self.broken.load(Ordering::Acquire)
    }
}

/// A transaction's client-side state: its write buffer and its pinned pool
/// slot.
struct LocalTxn {
    slot: usize,
    writes: Vec<(Key, Value)>,
    index: HashMap<Key, usize>,
}

impl LocalTxn {
    fn buffer_write(&mut self, key: Key, value: Value) {
        match self.index.get(&key) {
            Some(&i) => self.writes[i].1 = value,
            None => {
                self.index.insert(key.clone(), self.writes.len());
                self.writes.push((key, value));
            }
        }
    }

    fn buffered(&self, key: &Key) -> Option<Value> {
        self.index.get(key).map(|&i| self.writes[i].1.clone())
    }
}

/// Point-in-time client counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStatsSnapshot {
    /// Wire requests attempted (including transport retries).
    pub requests: u64,
    /// Transport-level retries (reconnect + resend).
    pub transport_retries: u64,
    /// Retries of requests the server rejected with
    /// [`AftError::Overloaded`], each after a decorrelated-jitter backoff.
    /// Counted separately from `transport_retries` because the connection
    /// stayed healthy — the server was just saturated.
    pub overload_retries: u64,
    /// Fresh connections established (initial + reconnects).
    pub connects: u64,
    /// Commit acknowledgements received.
    pub commits_acked: u64,
    /// Acknowledgements that were duplicates served from the server's dedup
    /// ledger.
    pub duplicate_acks: u64,
}

#[derive(Debug, Default)]
struct ClientStats {
    requests: AtomicU64,
    transport_retries: AtomicU64,
    overload_retries: AtomicU64,
    connects: AtomicU64,
    commits_acked: AtomicU64,
    duplicate_acks: AtomicU64,
}

/// The AFT service client. Cheap to share across threads (`Arc`); every
/// method is concurrency-safe.
pub struct AftClient {
    addr: SocketAddr,
    config: ClientConfig,
    slots: Vec<Mutex<Option<Arc<Conn>>>>,
    next_request: AtomicU64,
    next_slot: AtomicUsize,
    clock: SharedClock,
    rng: Mutex<StdRng>,
    txns: Mutex<HashMap<Uuid, LocalTxn>>,
    chaos: Option<ConnChaos>,
    stats: ClientStats,
    acked: Mutex<Vec<TransactionId>>,
}

impl AftClient {
    /// Starts configuring a client; `.connect(addr)` launches it.
    pub fn builder() -> ClientBuilder {
        ClientConfig::builder()
    }

    /// Connects to `addr` (anything `ToSocketAddrs`, e.g.
    /// `"127.0.0.1:4400"`). Eagerly opens the first pooled connection so
    /// misconfiguration fails here, not mid-workload.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> AftResult<Arc<AftClient>> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| AftError::Unavailable(format!("resolve address: {e}")))?
            .next()
            .ok_or_else(|| AftError::Unavailable("address resolved to nothing".to_owned()))?;
        let client = Arc::new(AftClient {
            addr,
            slots: (0..config.pool_size.max(1))
                .map(|_| Mutex::new(None))
                .collect(),
            next_request: AtomicU64::new(1),
            next_slot: AtomicUsize::new(0),
            clock: SystemClock::shared(),
            rng: Mutex::new(StdRng::seed_from_u64(config.rng_seed)),
            txns: Mutex::new(HashMap::new()),
            chaos: config.chaos.as_ref().map(ConnChaos::from_spec),
            stats: ClientStats::default(),
            acked: Mutex::new(Vec::new()),
            config,
        });
        client.conn_at(0)?;
        Ok(client)
    }

    /// The server address the client talks to.
    pub fn server_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Client counters so far.
    pub fn stats(&self) -> ClientStatsSnapshot {
        ClientStatsSnapshot {
            requests: self.stats.requests.load(Ordering::Relaxed),
            transport_retries: self.stats.transport_retries.load(Ordering::Relaxed),
            overload_retries: self.stats.overload_retries.load(Ordering::Relaxed),
            connects: self.stats.connects.load(Ordering::Relaxed),
            commits_acked: self.stats.commits_acked.load(Ordering::Relaxed),
            duplicate_acks: self.stats.duplicate_acks.load(Ordering::Relaxed),
        }
    }

    /// Chaos injection counters, when an injector is installed.
    pub fn chaos_stats(&self) -> Option<NetChaosStats> {
        self.chaos.as_ref().map(|c| c.stats())
    }

    /// Every acknowledgement of a commit with a non-empty write set this
    /// client received (final ids), recorded only when
    /// [`ClientConfig::record_acks`] is set. The service benchmarks verify
    /// each against the durable commit set: an acked commit with no durable
    /// record is a lost write. Read-only commits are left out because the
    /// server acknowledges them without writing a record.
    pub fn acked_commits(&self) -> Vec<TransactionId> {
        self.acked.lock().clone()
    }

    /// Round-trips a `Ping`, returning the elapsed wall time.
    pub fn ping(&self) -> AftResult<Duration> {
        let started = std::time::Instant::now();
        match self.call(0, &WireRequest::Ping)? {
            WireResponse::Pong => Ok(started.elapsed()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Fetches the server's service counters.
    pub fn server_stats(&self) -> AftResult<WireStats> {
        match self.call(0, &WireRequest::Stats)? {
            WireResponse::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    fn conn_at(&self, slot: usize) -> AftResult<Arc<Conn>> {
        let slot = slot % self.slots.len();
        let mut guard = self.slots[slot].lock();
        if let Some(conn) = guard.as_ref() {
            if !conn.is_broken() {
                return Ok(Arc::clone(conn));
            }
        }
        let conn = Conn::connect(self.addr)?;
        self.stats.connects.fetch_add(1, Ordering::Relaxed);
        *guard = Some(Arc::clone(&conn));
        Ok(conn)
    }

    fn drop_conn(&self, slot: usize, conn: &Arc<Conn>) {
        let slot = slot % self.slots.len();
        let mut guard = self.slots[slot].lock();
        if let Some(current) = guard.as_ref() {
            if Arc::ptr_eq(current, conn) {
                *guard = None;
            }
        }
    }

    /// One attempt: connect (or reuse), send, await the response. Transport
    /// failures come back as `Err`; server-side verdicts (including
    /// `WireResponse::Error`) come back as `Ok`.
    fn try_call(&self, slot: usize, request: &WireRequest) -> AftResult<WireResponse> {
        let conn = self.conn_at(slot)?;
        let fault = self
            .chaos
            .as_ref()
            .map_or(NetFault::None, |c| c.decide(request.verb()));
        if fault == NetFault::ResetBeforeSend {
            conn.reset();
            self.drop_conn(slot, &conn);
            return Err(AftError::Unavailable(
                "chaos: connection reset before send".to_owned(),
            ));
        }
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let rx = conn.register(request_id)?;
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = conn.send(&encode_request(request_id, request)) {
            conn.unregister(request_id);
            self.drop_conn(slot, &conn);
            return Err(e);
        }
        // The lost-ack window, end to end: the request is on the wire (the
        // server may well execute it) and the connection dies before the
        // acknowledgement arrives.
        if fault == NetFault::ResetAfterSend {
            conn.reset();
            conn.unregister(request_id);
            self.drop_conn(slot, &conn);
            return Err(AftError::Unavailable(
                "chaos: connection reset before ack".to_owned(),
            ));
        }
        if let NetFault::DelayAck(delay) = fault {
            std::thread::sleep(delay);
        }
        match rx.recv_timeout(self.config.request_timeout) {
            Ok(response) => Ok(response),
            Err(_) => {
                conn.unregister(request_id);
                conn.reset();
                self.drop_conn(slot, &conn);
                Err(AftError::Unavailable(
                    "connection lost awaiting response".to_owned(),
                ))
            }
        }
    }

    /// Sends `request`, transparently reconnecting and resending on
    /// transport failure under the configured backoff. Safe for every verb:
    /// reads are naturally idempotent and `Commit` is deduplicated
    /// server-side.
    ///
    /// An [`AftError::Overloaded`] verdict is also retried here (an
    /// overload rejection executed nothing, so resending is always safe),
    /// but under a *different* backoff: decorrelated jitter instead of the
    /// deterministic exponential used for connection failures. Overload is
    /// a correlated event — every client of a saturated server hits it at
    /// once, and deterministic backoff would march them all back in
    /// lockstep, re-creating the very spike that caused the rejection.
    fn call(&self, slot: usize, request: &WireRequest) -> AftResult<WireResponse> {
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut attempt = 0u32;
        let mut overload_prev = self.config.retry.base_backoff;
        loop {
            attempt += 1;
            match self.try_call(slot, request) {
                Ok(WireResponse::Error(e)) if e.is_overloaded() => {
                    if attempt >= max_attempts {
                        // Out of budget: surface the server's verdict
                        // unchanged so the caller sees a typed, retryable
                        // `Overloaded` rather than a transport failure.
                        return Ok(WireResponse::Error(e));
                    }
                    self.stats.overload_retries.fetch_add(1, Ordering::Relaxed);
                    overload_prev = self.overload_backoff(overload_prev);
                    std::thread::sleep(overload_prev);
                }
                Ok(response) => return Ok(response),
                Err(e) => {
                    if attempt >= max_attempts {
                        return Err(e);
                    }
                    self.stats.transport_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(self.config.retry.backoff_for(attempt));
                }
            }
        }
    }

    /// One decorrelated-jitter backoff step: `sleep = min(cap,
    /// uniform(base, prev * 3))`, drawn from the client's seeded RNG. Each
    /// step's sleep depends on the *previous draw* rather than the attempt
    /// number, so concurrent clients' retry schedules diverge instead of
    /// synchronizing.
    fn overload_backoff(&self, prev: Duration) -> Duration {
        let base = self
            .config
            .retry
            .base_backoff
            .max(Duration::from_micros(50));
        let cap = self.config.retry.max_backoff.max(base);
        let upper = prev.saturating_mul(3).max(base + Duration::from_nanos(1));
        let nanos = {
            let mut rng = self.rng.lock();
            rng.gen_range(base.as_nanos()..=upper.as_nanos())
        };
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX)).min(cap)
    }
}

fn unexpected(wanted: &str, got: &WireResponse) -> AftError {
    AftError::Codec(format!("expected {wanted} response, got {got:?}"))
}

impl AftApi for AftClient {
    fn api_label(&self) -> &str {
        "aft-net"
    }

    fn begin(&self) -> AftResult<TransactionId> {
        // The id is minted locally — timestamp from the local clock, UUID
        // from the seeded stream — and the server learns it lazily via
        // `ensure_transaction`, so `begin` needs no round trip.
        let uuid = {
            let mut rng = self.rng.lock();
            Uuid::from_rng(&mut *rng)
        };
        let txid = TransactionId::new(self.clock.now(), uuid);
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        self.txns.lock().insert(
            uuid,
            LocalTxn {
                slot,
                writes: Vec::new(),
                index: HashMap::new(),
            },
        );
        Ok(txid)
    }

    fn get_versioned(
        &self,
        txid: &TransactionId,
        key: &Key,
    ) -> AftResult<Option<(Value, Option<TransactionId>)>> {
        let slot = {
            let txns = self.txns.lock();
            let txn = txns
                .get(&txid.uuid)
                .ok_or(AftError::UnknownTransaction(*txid))?;
            // Read-your-writes (§3.5) from the client-side buffer, no round
            // trip; `None` as the version marks "own write", like the node.
            if let Some(value) = txn.buffered(key) {
                return Ok(Some((value, None)));
            }
            txn.slot
        };
        let request = WireRequest::Get {
            txid: *txid,
            key: key.clone(),
        };
        match self.call(slot, &request)? {
            WireResponse::Value(None) => Ok(None),
            WireResponse::Value(Some((value, version))) => {
                let version = (!version.is_null()).then_some(version);
                Ok(Some((value, version)))
            }
            WireResponse::Error(e) => Err(e),
            other => Err(unexpected("Value", &other)),
        }
    }

    fn get_all(&self, txid: &TransactionId, keys: &[Key]) -> AftResult<Vec<Option<Value>>> {
        let mut out: Vec<Option<Value>> = vec![None; keys.len()];
        let (slot, remote): (usize, Vec<(usize, Key)>) = {
            let txns = self.txns.lock();
            let txn = txns
                .get(&txid.uuid)
                .ok_or(AftError::UnknownTransaction(*txid))?;
            let mut remote = Vec::new();
            for (i, key) in keys.iter().enumerate() {
                match txn.buffered(key) {
                    Some(value) => out[i] = Some(value),
                    None => remote.push((i, key.clone())),
                }
            }
            (txn.slot, remote)
        };
        if remote.is_empty() {
            return Ok(out);
        }
        let request = WireRequest::GetAll {
            txid: *txid,
            keys: remote.iter().map(|(_, key)| key.clone()).collect(),
        };
        match self.call(slot, &request)? {
            WireResponse::Values(values) if values.len() == remote.len() => {
                for ((i, _), value) in remote.into_iter().zip(values) {
                    out[i] = value;
                }
                Ok(out)
            }
            WireResponse::Values(_) => {
                Err(AftError::Codec("GetAll reply count mismatch".to_owned()))
            }
            WireResponse::Error(e) => Err(e),
            other => Err(unexpected("Values", &other)),
        }
    }

    fn put(&self, txid: &TransactionId, key: Key, value: Value) -> AftResult<()> {
        let mut txns = self.txns.lock();
        let txn = txns
            .get_mut(&txid.uuid)
            .ok_or(AftError::UnknownTransaction(*txid))?;
        txn.buffer_write(key, value);
        Ok(())
    }

    fn commit(
        &self,
        txid: &TransactionId,
        reads: &[(Key, TransactionId)],
    ) -> AftResult<CommitOutcome> {
        // Take the buffer up front: whatever happens next, this transaction
        // is finished client-side (a failed commit means the caller retries
        // the logical request with a fresh transaction, §3.3.1).
        let txn = self
            .txns
            .lock()
            .remove(&txid.uuid)
            .ok_or(AftError::UnknownTransaction(*txid))?;
        let wrote = !txn.writes.is_empty();
        let request = WireRequest::Commit {
            txid: *txid,
            writes: txn.writes,
            reads: reads.to_vec(),
        };
        match self.call(txn.slot, &request)? {
            WireResponse::Committed {
                txid: final_id,
                atomic,
                duplicate,
            } => {
                self.stats.commits_acked.fetch_add(1, Ordering::Relaxed);
                if duplicate {
                    self.stats.duplicate_acks.fetch_add(1, Ordering::Relaxed);
                }
                if self.config.record_acks && wrote {
                    self.acked.lock().push(final_id);
                }
                Ok(CommitOutcome {
                    final_id,
                    atomic,
                    duplicate,
                })
            }
            WireResponse::Error(e) => Err(e),
            other => Err(unexpected("Committed", &other)),
        }
    }

    fn abort(&self, txid: &TransactionId) -> AftResult<()> {
        let Some(txn) = self.txns.lock().remove(&txid.uuid) else {
            // Nothing buffered and nothing known server-side under this
            // uuid that we still track: aborting twice is a no-op.
            return Ok(());
        };
        match self.call(txn.slot, &WireRequest::Abort { txid: *txid })? {
            WireResponse::Aborted => Ok(()),
            WireResponse::Error(e) => Err(e),
            other => Err(unexpected("Aborted", &other)),
        }
    }
}

impl Drop for AftClient {
    fn drop(&mut self) {
        // Reset every pooled connection: the sockets close on both ends and
        // each connection's reader thread exits on the read error, so a
        // dropped client leaks neither file descriptors nor threads, and the
        // server's event loop sees the close and frees the connection.
        for slot in &self.slots {
            if let Some(conn) = slot.lock().take() {
                conn.reset();
            }
        }
    }
}

impl std::fmt::Debug for AftClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AftClient")
            .field("addr", &self.addr)
            .field("pool_size", &self.slots.len())
            .field("chaos", &self.chaos.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connecting_to_a_dead_port_fails_fast() {
        // Bind then drop a listener to get a port that refuses connections.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let result = AftClient::connect(("127.0.0.1", port), ClientConfig::default());
        assert!(matches!(result, Err(AftError::Unavailable(_))));
    }

    #[test]
    fn builder_defaults_match_default_config() {
        let built = AftClient::builder().build();
        let defaults = ClientConfig::default();
        assert_eq!(built.pool_size, defaults.pool_size);
        assert_eq!(built.request_timeout, defaults.request_timeout);
        assert_eq!(built.rng_seed, defaults.rng_seed);
        assert_eq!(built.record_acks, defaults.record_acks);
        assert!(built.chaos.is_none());
    }

    #[test]
    fn builder_knobs_are_applied_and_clamped() {
        let config = AftClient::builder()
            .pool_size(0)
            .rng_seed(42)
            .record_acks(true)
            .request_timeout(Duration::from_secs(3))
            .build();
        assert_eq!(config.pool_size, 1, "clamped to >= 1");
        assert_eq!(config.rng_seed, 42);
        assert!(config.record_acks);
        assert_eq!(config.request_timeout, Duration::from_secs(3));
    }

    #[test]
    fn local_txn_buffer_upserts_in_write_order() {
        let mut txn = LocalTxn {
            slot: 0,
            writes: Vec::new(),
            index: HashMap::new(),
        };
        txn.buffer_write(Key::new("a"), Value::from_static(b"1"));
        txn.buffer_write(Key::new("b"), Value::from_static(b"2"));
        txn.buffer_write(Key::new("a"), Value::from_static(b"3"));
        assert_eq!(txn.writes.len(), 2, "upsert, not append");
        assert_eq!(txn.buffered(&Key::new("a")), Some(Value::from_static(b"3")));
        assert_eq!(txn.writes[0].0, Key::new("a"));
        assert_eq!(txn.writes[1].0, Key::new("b"));
    }
}
