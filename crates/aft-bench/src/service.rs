//! `fig8_service`: the networked-service throughput sweep plus the
//! connection-chaos verification leg.
//!
//! The paper's Figure 8 drives a cluster with 40 closed-loop clients per
//! node — but in-process. This experiment asks the same question across a
//! *real service boundary*: N client threads share an aft-net SDK over
//! loopback TCP to a served 3-node cluster and measure requests per second
//! and p50/p99 latency per client count. Then a **chaos leg** repeats the
//! run with seeded connection faults (resets before/after send, delayed
//! acks) and verifies the two invariants the wire protocol must add on top
//! of the paper's:
//!
//! * **zero read-atomicity anomalies** — fractured reads and
//!   read-your-writes violations stay impossible across the socket;
//! * **zero lost acknowledged commits** — every commit acknowledgement the
//!   SDK ever received corresponds to a durable commit record, even though
//!   acks were being dropped mid-flight (the §4.2 window, closed by the
//!   server's dedup ledger).
//!
//! A third **connection-scale leg** opens hundreds to thousands of raw
//! loopback connections against one server and holds them resident while a
//! small active subset keeps pinging: the readiness-driven event loop must
//! own every socket (zero per-connection reader threads, checked via
//! `/proc/self/task`), per-connection resident memory must stay flat, and
//! tail latency must not collapse with the full fleet connected.
//!
//! Results land in `BENCH_service.json`; [`ServiceReport::check_gate`]
//! fails on any anomaly, lost ack, clean-leg failure, `Ping`/`Stats`
//! error, reader-thread growth, per-connection memory growth, or p99
//! collapse — which CI's `service-gate` job enforces.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aft_chaos::{ChaosSpec, NetChaos};
use aft_cluster::{Cluster, ClusterConfig, DisseminationConfig};
use aft_core::api::AftApi;
use aft_faas::{FaasPlatform, PlatformConfig, RetryPolicy};
use aft_net::frame::{read_frame, write_frame};
use aft_net::AftServer;
use aft_storage::io::RetryConfig;
use aft_storage::{BackendConfig, BackendKind};
use aft_types::wire::{decode_response, encode_request, WireRequest, WireResponse};
use aft_types::{TransactionRecord, WireStats};
use aft_workload::{run_closed_loop, AftDriver, RunConfig, WorkloadConfig};

use crate::json::Json;
use crate::report::{percentile, Table};
use crate::setup::{serve_cluster, ServeOptions, ServiceHandle};

/// A scale point's ping p99 above this is a latency collapse.
const CONN_P99_COLLAPSE_MS: f64 = 250.0;
/// Resident bytes per connection above this is per-connection memory growth.
const CONN_RSS_CAP_BYTES: f64 = 64.0 * 1024.0;

/// Configuration of the service sweep.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Concurrent client threads per point of the sweep.
    pub client_counts: Vec<usize>,
    /// Requests each client issues per point.
    pub requests_per_client: usize,
    /// AFT nodes behind the server.
    pub nodes: usize,
    /// Server worker-pool size.
    pub workers: usize,
    /// Client connection-pool size.
    pub pool_size: usize,
    /// Clients in the chaos leg.
    pub chaos_clients: usize,
    /// Requests per client in the chaos leg.
    pub chaos_requests: usize,
    /// Connection-reset rate of the chaos leg.
    pub reset_rate: f64,
    /// Delayed-ack rate of the chaos leg.
    pub delay_rate: f64,
    /// Concurrent resident connections per point of the scale leg.
    pub conn_counts: Vec<usize>,
    /// Connections that keep pinging while the rest of the fleet idles.
    pub conn_active: usize,
    /// Pings each active connection issues during the measured phase.
    pub conn_pings: usize,
    /// Base seed.
    pub seed: u64,
}

impl ServiceConfig {
    /// The full sweep: 1→16 clients, 150 requests each.
    pub fn standard() -> Self {
        ServiceConfig {
            client_counts: vec![1, 2, 4, 8, 16],
            requests_per_client: 150,
            nodes: 3,
            workers: 8,
            pool_size: 4,
            chaos_clients: 8,
            chaos_requests: 60,
            reset_rate: 0.08,
            delay_rate: 0.04,
            conn_counts: vec![256, 1024, 2048],
            conn_active: 32,
            conn_pings: 40,
            seed: 0xF8_5E7,
        }
    }

    /// The CI sweep: same invariants, sub-minute runtime. Still climbs to
    /// 256 resident connections so the scale invariants run on every push.
    pub fn fast() -> Self {
        ServiceConfig {
            client_counts: vec![1, 4, 8],
            requests_per_client: 40,
            chaos_requests: 25,
            conn_counts: vec![64, 256],
            conn_active: 16,
            conn_pings: 20,
            ..ServiceConfig::standard()
        }
    }
}

/// One point of the clean sweep.
#[derive(Debug, Clone, Copy)]
pub struct ServicePoint {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests per second over the measured phase.
    pub rps: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Requests completed.
    pub completed: u64,
    /// Requests that exhausted their retries.
    pub failed: u64,
    /// Read-atomicity anomalies observed (must be zero).
    pub anomalies: u64,
}

/// One point of the connection-scale leg: `connections` raw sockets held
/// resident against one server while `pings` pings measure tail latency.
#[derive(Debug, Clone, Copy)]
pub struct ConnScalePoint {
    /// Resident loopback connections held open concurrently.
    pub connections: usize,
    /// Median ping round trip with the fleet resident, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile ping round trip with the fleet resident, ms.
    pub p99_ms: f64,
    /// Pings measured by the active subset.
    pub pings: u64,
    /// Per-connection reader threads alive with the fleet resident (the
    /// event loop must own every socket, so this must be zero).
    pub reader_threads: u64,
    /// Process thread count with the fleet resident.
    pub threads_total: u64,
    /// Thread-count change between server-up and fleet-resident. Zero in a
    /// standalone run; informational under parallel test noise.
    pub threads_delta: i64,
    /// Resident-memory change while opening the fleet, bytes (floored at 0).
    pub rss_delta_bytes: i64,
    /// Resident bytes per connection.
    pub rss_per_conn_bytes: f64,
    /// Frames the event loop decoded during the point.
    pub frames_read: u64,
    /// Connections the event loop owned with the fleet resident.
    pub conns_open: u64,
    /// Frame buffers parked in the loop's pool after the point.
    pub pooled_buffers: u64,
}

/// What the chaos leg observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosLegReport {
    /// Requests completed under injection.
    pub completed: u64,
    /// Requests that exhausted retries under injection.
    pub failed: u64,
    /// Read-atomicity anomalies (must be zero).
    pub anomalies: u64,
    /// Connections reset before the request was sent.
    pub resets_before_send: u64,
    /// Connections reset in the lost-ack window.
    pub resets_after_send: u64,
    /// Acknowledgements delivered late.
    pub delayed_acks: u64,
    /// Commit acknowledgements the SDK received.
    pub acked_commits: u64,
    /// Acked commits with no durable record (must be zero).
    pub lost_acked_commits: u64,
    /// Acks served from the server's dedup ledger.
    pub duplicate_acks: u64,
    /// Transport-level retries the SDK performed.
    pub transport_retries: u64,
}

/// The whole experiment's results.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Clean-sweep points, in client-count order.
    pub points: Vec<ServicePoint>,
    /// The chaos leg.
    pub chaos: ChaosLegReport,
    /// Connection-scale points, in connection-count order.
    pub conn_scale: Vec<ConnScalePoint>,
    /// `Ping` round-trip time, milliseconds (None if it failed).
    pub ping_ms: Option<f64>,
    /// Server counters after the clean sweep's last point (None if the
    /// `Stats` verb failed).
    pub server_stats: Option<WireStats>,
    /// Nodes behind the server.
    pub nodes: usize,
    /// Server worker-pool size.
    pub workers: usize,
}

impl ServiceReport {
    /// Total anomalies across every leg.
    pub fn total_anomalies(&self) -> u64 {
        self.points.iter().map(|p| p.anomalies).sum::<u64>() + self.chaos.anomalies
    }

    /// Peak clean-sweep throughput.
    pub fn peak_rps(&self) -> f64 {
        self.points.iter().map(|p| p.rps).fold(0.0, f64::max)
    }

    /// Fails on any violated invariant, in CI-gate style.
    pub fn check_gate(&self) -> Result<String, String> {
        if self.total_anomalies() > 0 {
            return Err(format!(
                "{} read-atomicity anomalies observed across the service boundary",
                self.total_anomalies()
            ));
        }
        if self.chaos.lost_acked_commits > 0 {
            return Err(format!(
                "{} acknowledged commits have no durable record (lost acks)",
                self.chaos.lost_acked_commits
            ));
        }
        if let Some(clean_failed) = self.points.iter().find(|p| p.failed > 0) {
            return Err(format!(
                "{} requests failed at {} clients with no fault injection",
                clean_failed.failed, clean_failed.clients
            ));
        }
        let Some(ping_ms) = self.ping_ms else {
            return Err("Ping verb failed".to_owned());
        };
        let Some(stats) = self.server_stats else {
            return Err("Stats verb failed".to_owned());
        };
        if self.chaos.resets_after_send == 0 {
            return Err("chaos leg never exercised the lost-ack window".to_owned());
        }
        for point in &self.conn_scale {
            if point.reader_threads > 0 {
                return Err(format!(
                    "{} per-connection reader threads alive at {} connections — the event \
                     loop must own every socket",
                    point.reader_threads, point.connections
                ));
            }
            if point.conns_open != point.connections as u64 {
                return Err(format!(
                    "event loop owns {} of {} resident connections",
                    point.conns_open, point.connections
                ));
            }
            if point.p99_ms > CONN_P99_COLLAPSE_MS {
                return Err(format!(
                    "ping p99 collapsed to {:.1} ms at {} resident connections \
                     (bound {CONN_P99_COLLAPSE_MS} ms)",
                    point.p99_ms, point.connections
                ));
            }
            if point.rss_per_conn_bytes > CONN_RSS_CAP_BYTES {
                return Err(format!(
                    "{:.0} resident bytes per connection at {} connections \
                     (cap {CONN_RSS_CAP_BYTES:.0})",
                    point.rss_per_conn_bytes, point.connections
                ));
            }
        }
        let max_conns = self
            .conn_scale
            .iter()
            .map(|p| p.connections)
            .max()
            .unwrap_or(0);
        Ok(format!(
            "{} points clean, peak {:.0} req/s; chaos leg: {} resets ({} in the lost-ack \
             window), {} acked commits all durable, {} deduplicated; scale leg: {} resident \
             connections on one loop thread; ping {:.2} ms, {} server requests",
            self.points.len(),
            self.peak_rps(),
            self.chaos.resets_before_send + self.chaos.resets_after_send,
            self.chaos.resets_after_send,
            self.chaos.acked_commits,
            self.chaos.duplicate_acks,
            max_conns,
            ping_ms,
            stats.requests,
        ))
    }

    /// Renders the sweep as an aligned text table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "fig8_service — loopback service throughput (3-node cluster behind aft-net)",
            &[
                "clients",
                "req/s",
                "p50 (ms)",
                "p99 (ms)",
                "completed",
                "failed",
                "anomalies",
            ],
        );
        for p in &self.points {
            table.add_row(vec![
                p.clients.to_string(),
                format!("{:.0}", p.rps),
                format!("{:.2}", p.p50_ms),
                format!("{:.2}", p.p99_ms),
                p.completed.to_string(),
                p.failed.to_string(),
                p.anomalies.to_string(),
            ]);
        }
        table.add_row(vec![
            format!("chaos ({})", self.chaos.completed),
            "-".to_owned(),
            "-".to_owned(),
            "-".to_owned(),
            format!("{} acked", self.chaos.acked_commits),
            format!("{} lost", self.chaos.lost_acked_commits),
            self.chaos.anomalies.to_string(),
        ]);
        table
    }

    /// Renders the connection-scale leg as an aligned text table.
    pub fn conn_table(&self) -> Table {
        let mut table = Table::new(
            "fig8_service — resident connections on one event-loop thread",
            &[
                "conns",
                "p50 (ms)",
                "p99 (ms)",
                "rdr thr",
                "threads",
                "rss/conn (B)",
                "frames",
            ],
        );
        for p in &self.conn_scale {
            table.add_row(vec![
                p.connections.to_string(),
                format!("{:.2}", p.p50_ms),
                format!("{:.2}", p.p99_ms),
                p.reader_threads.to_string(),
                p.threads_total.to_string(),
                format!("{:.0}", p.rss_per_conn_bytes),
                p.frames_read.to_string(),
            ]);
        }
        table
    }

    /// Serialises the report as the `BENCH_service.json` document.
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("clients", Json::Num(p.clients as f64)),
                    ("rps", Json::Num(round2(p.rps))),
                    ("p50_ms", Json::Num(round2(p.p50_ms))),
                    ("p99_ms", Json::Num(round2(p.p99_ms))),
                    ("completed", Json::Num(p.completed as f64)),
                    ("failed", Json::Num(p.failed as f64)),
                    ("anomalies", Json::Num(p.anomalies as f64)),
                ])
            })
            .collect();
        let chaos = Json::obj(vec![
            ("completed", Json::Num(self.chaos.completed as f64)),
            ("failed", Json::Num(self.chaos.failed as f64)),
            ("anomalies", Json::Num(self.chaos.anomalies as f64)),
            (
                "resets_before_send",
                Json::Num(self.chaos.resets_before_send as f64),
            ),
            (
                "resets_after_send",
                Json::Num(self.chaos.resets_after_send as f64),
            ),
            ("delayed_acks", Json::Num(self.chaos.delayed_acks as f64)),
            ("acked_commits", Json::Num(self.chaos.acked_commits as f64)),
            (
                "lost_acked_commits",
                Json::Num(self.chaos.lost_acked_commits as f64),
            ),
            (
                "duplicate_acks",
                Json::Num(self.chaos.duplicate_acks as f64),
            ),
            (
                "transport_retries",
                Json::Num(self.chaos.transport_retries as f64),
            ),
        ]);
        let conn_scale = self
            .conn_scale
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("connections", Json::Num(p.connections as f64)),
                    ("p50_ms", Json::Num(round2(p.p50_ms))),
                    ("p99_ms", Json::Num(round2(p.p99_ms))),
                    ("pings", Json::Num(p.pings as f64)),
                    ("reader_threads", Json::Num(p.reader_threads as f64)),
                    ("threads_total", Json::Num(p.threads_total as f64)),
                    ("threads_delta", Json::Num(p.threads_delta as f64)),
                    ("rss_delta_bytes", Json::Num(p.rss_delta_bytes as f64)),
                    (
                        "rss_per_conn_bytes",
                        Json::Num(round2(p.rss_per_conn_bytes)),
                    ),
                    ("frames_read", Json::Num(p.frames_read as f64)),
                    ("conns_open", Json::Num(p.conns_open as f64)),
                    ("pooled_buffers", Json::Num(p.pooled_buffers as f64)),
                ])
            })
            .collect();
        let mut pairs = vec![
            ("experiment", Json::str("fig8_service")),
            ("nodes", Json::Num(self.nodes as f64)),
            ("workers", Json::Num(self.workers as f64)),
            (
                "max_connections",
                Json::Num(
                    self.conn_scale
                        .iter()
                        .map(|p| p.connections)
                        .max()
                        .unwrap_or(0) as f64,
                ),
            ),
            ("peak_rps", Json::Num(round2(self.peak_rps()))),
            ("anomalies", Json::Num(self.total_anomalies() as f64)),
            (
                "lost_acked_commits",
                Json::Num(self.chaos.lost_acked_commits as f64),
            ),
            (
                "ping_ms",
                self.ping_ms.map_or(Json::Null, |v| Json::Num(round2(v))),
            ),
            ("points", Json::Arr(points)),
            ("chaos", chaos),
            ("conn_scale", Json::Arr(conn_scale)),
        ];
        if let Some(stats) = self.server_stats {
            pairs.push((
                "server",
                Json::obj(vec![
                    (
                        "connections_accepted",
                        Json::Num(stats.connections_accepted as f64),
                    ),
                    ("requests", Json::Num(stats.requests as f64)),
                    ("commits", Json::Num(stats.commits as f64)),
                    (
                        "duplicate_commits",
                        Json::Num(stats.duplicate_commits as f64),
                    ),
                    ("errors", Json::Num(stats.errors as f64)),
                ]),
            ));
        }
        Json::obj(pairs)
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// A fresh 3-node deployment served on loopback. Zero simulated latency:
/// the experiment measures the service layer itself, not the storage sims.
/// `keep_commit_set` disables garbage collection so the durable Transaction
/// Commit Set stays the *complete* ground truth — required by the chaos
/// leg's lost-ack verification, which would otherwise flag legitimately
/// GC'd superseded records as lost.
fn served_deployment(
    config: &ServiceConfig,
    options: &ServeOptions,
    seed: u64,
    keep_commit_set: bool,
) -> (Arc<Cluster>, ServiceHandle) {
    let storage = aft_storage::make_backend(BackendConfig::test(BackendKind::Memory));
    let cluster_config = ClusterConfig {
        dissemination: DisseminationConfig::all_to_all().with_interval(Duration::from_millis(5)),
        replacement_delay: Duration::ZERO,
        local_gc_enabled: !keep_commit_set,
        global_gc_enabled: !keep_commit_set,
        ..ClusterConfig::test(config.nodes)
    };
    let cluster = Cluster::new(cluster_config, storage).expect("cluster construction");
    cluster.start_background();
    let handle = serve_cluster(&cluster, &options.clone().seed(seed)).expect("serve on loopback");
    (cluster, handle)
}

/// The kernel's view of this process's thread count (`Threads:` in
/// `/proc/self/status`).
fn proc_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("Threads:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Resident set size in bytes (`/proc/self/statm` field 2, pages).
fn proc_rss_bytes() -> i64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|statm| {
            statm
                .split_whitespace()
                .nth(1)
                .and_then(|pages| pages.parse::<i64>().ok())
        })
        .map_or(0, |pages| pages * 4096)
}

/// Threads named `aft-net-rd*`. The event loop owns every socket and spawns
/// no per-connection threads, so this must read 0.
fn reader_thread_count() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end().starts_with("aft-net-rd"))
        })
        .count() as u64
}

/// Connects to `addr`, retrying briefly: a fleet of thousands of connects
/// can outrun the accept backlog for a moment.
fn connect_patiently(addr: SocketAddr) -> TcpStream {
    let mut last_err = None;
    for _ in 0..200 {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return stream;
            }
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    panic!("connect to {addr}: {last_err:?}");
}

/// One `Ping` round trip over a raw framed socket.
fn raw_ping(stream: &mut TcpStream) -> io::Result<Duration> {
    let started = Instant::now();
    write_frame(stream, &encode_request(1, &WireRequest::Ping))?;
    let Some(frame) = read_frame(stream)? else {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    };
    match decode_response(&frame) {
        Ok((_, WireResponse::Pong)) => Ok(started.elapsed()),
        Ok((_, other)) => Err(io::Error::other(format!("expected Pong, got {other:?}"))),
        Err(e) => Err(io::Error::other(format!("undecodable response: {e}"))),
    }
}

/// One point of the connection-scale leg: a fresh server, `connections`
/// raw sockets opened and proven live (one ping each), threads and RSS
/// sampled with the fleet resident, then an active subset pings for the
/// latency distribution while the rest idle.
fn run_conn_point(config: &ServiceConfig, connections: usize) -> ConnScalePoint {
    // One node and no background maintenance: `Ping` never reaches
    // storage, so the point measures the I/O core itself.
    let storage = aft_storage::make_backend(BackendConfig::test(BackendKind::Memory));
    let cluster = Cluster::new(ClusterConfig::test(1), storage).expect("cluster construction");
    let server = AftServer::builder()
        .workers(config.workers)
        .slab_capacity(connections)
        .serve(Arc::clone(&cluster), "127.0.0.1:0")
        .expect("serve on loopback");
    let addr = server.local_addr();

    let threads_before = proc_threads();
    let rss_before = proc_rss_bytes();

    // Open the fleet; one ping per connection proves the loop registered
    // and serves it before anything is counted.
    let mut socks: Vec<TcpStream> = (0..connections).map(|_| connect_patiently(addr)).collect();
    for sock in &mut socks {
        raw_ping(sock).expect("registration ping");
    }

    let reader_threads = reader_thread_count();
    let threads_total = proc_threads();
    let threads_delta = threads_total as i64 - threads_before as i64;
    let rss_delta_bytes = (proc_rss_bytes() - rss_before).max(0);
    let rss_per_conn_bytes = rss_delta_bytes as f64 / connections.max(1) as f64;

    // Active subset: keeps pinging with the full fleet resident, a few
    // driver threads multiplexing the subset.
    let active = config.conn_active.clamp(1, connections);
    let mut active_socks: Vec<TcpStream> = socks.drain(..active).collect();
    let drivers = active.min(4);
    let chunk = active.div_ceil(drivers);
    let collected = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for batch in active_socks.chunks_mut(chunk) {
            let collected = &collected;
            scope.spawn(move || {
                let mut local = Vec::with_capacity(config.conn_pings * batch.len());
                for _ in 0..config.conn_pings {
                    for sock in batch.iter_mut() {
                        let rtt = raw_ping(sock).expect("ping with the fleet resident");
                        local.push(rtt.as_secs_f64() * 1_000.0);
                    }
                }
                collected.lock().unwrap().extend(local);
            });
        }
    });
    let mut latencies = collected.into_inner().unwrap();
    latencies.sort_by(f64::total_cmp);

    let snapshot = server
        .event_snapshot()
        .expect("the scale leg runs the event-driven model");
    let point = ConnScalePoint {
        connections,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        pings: latencies.len() as u64,
        reader_threads,
        threads_total,
        threads_delta,
        rss_delta_bytes,
        rss_per_conn_bytes,
        frames_read: snapshot.frames_read,
        conns_open: snapshot.conns_open,
        pooled_buffers: snapshot.pooled_buffers,
    };

    drop(active_socks);
    drop(socks);
    server.shutdown();
    cluster.shutdown();
    point
}

fn service_workload() -> WorkloadConfig {
    WorkloadConfig::standard()
        .with_keys(200)
        .with_value_size(256)
}

fn driver_for(handle: &ServiceHandle) -> AftDriver {
    let api: Arc<dyn AftApi> = Arc::clone(&handle.client) as Arc<dyn AftApi>;
    AftDriver::from_api(
        api,
        FaasPlatform::new(PlatformConfig::test()),
        RetryPolicy::with_attempts(8),
    )
}

/// Runs the sweep and the chaos leg.
pub fn fig8_service(config: &ServiceConfig) -> ServiceReport {
    let options = ServeOptions::default()
        .workers(config.workers)
        .pool_size(config.pool_size);

    // Clean sweep: a fresh deployment per point, so points are independent.
    let mut points = Vec::new();
    let mut ping_ms = None;
    let mut server_stats = None;
    for (i, &clients) in config.client_counts.iter().enumerate() {
        let (cluster, handle) = served_deployment(config, &options, config.seed + i as u64, false);
        let driver = driver_for(&handle);
        let result = run_closed_loop(
            &driver,
            &RunConfig::new(service_workload())
                .with_clients(clients)
                .with_requests(config.requests_per_client)
                .with_seed(config.seed ^ (clients as u64) << 8),
        )
        .expect("closed-loop run");
        points.push(ServicePoint {
            clients,
            rps: result.throughput_tps(),
            p50_ms: result.latency.median_ms(),
            p99_ms: result.latency.p99_ms(),
            completed: result.completed,
            failed: result.failed,
            anomalies: result.anomalies.ryw_transactions + result.anomalies.fr_transactions,
        });
        // Operability verbs, checked on the last (largest) point.
        if i + 1 == config.client_counts.len() {
            ping_ms = handle.client.ping().ok().map(|d| d.as_secs_f64() * 1_000.0);
            server_stats = handle.client.server_stats().ok();
        }
        drop(handle);
        cluster.shutdown();
    }

    // Chaos leg: one deployment, seeded connection faults, then verify
    // every acked commit against the durable commit set.
    let chaos_options = ServeOptions {
        chaos: Some(
            ChaosSpec::new(config.seed ^ 0xC4A05).net(NetChaos::resets_and_delays(
                config.reset_rate,
                config.delay_rate,
                Duration::from_millis(1),
            )),
        ),
        retry: RetryConfig {
            max_attempts: 6,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(2),
        },
        ..options
    };
    let (cluster, handle) = served_deployment(config, &chaos_options, config.seed ^ 0xC4A1, true);
    let driver = driver_for(&handle);
    let result = run_closed_loop(
        &driver,
        &RunConfig::new(service_workload())
            .with_clients(config.chaos_clients)
            .with_requests(config.chaos_requests)
            .with_seed(config.seed ^ 0xC4A2),
    )
    .expect("chaos closed-loop run");

    // Ground truth: every commit the SDK ever saw acknowledged must have a
    // durable record. (Preload commits are included — they are acked too.)
    let acked = handle.client.acked_commits();
    let lost = acked
        .iter()
        .filter(|id| {
            cluster
                .storage()
                .get(&TransactionRecord::storage_key_for(id))
                .map_or(true, |v| v.is_none())
        })
        .count() as u64;
    let injector = handle.client.chaos_stats().unwrap_or_default();
    let client_stats = handle.client.stats();
    let chaos = ChaosLegReport {
        completed: result.completed,
        failed: result.failed,
        anomalies: result.anomalies.ryw_transactions + result.anomalies.fr_transactions,
        resets_before_send: injector.resets_before_send,
        resets_after_send: injector.resets_after_send,
        delayed_acks: injector.delayed_acks,
        acked_commits: acked.len() as u64,
        lost_acked_commits: lost,
        duplicate_acks: client_stats.duplicate_acks,
        transport_retries: client_stats.transport_retries,
    };
    drop(handle);
    cluster.shutdown();

    // Connection-scale leg: how many resident sockets one loop thread owns,
    // a fresh deployment per point so points are independent.
    let conn_scale = config
        .conn_counts
        .iter()
        .map(|&connections| run_conn_point(config, connections))
        .collect();

    ServiceReport {
        points,
        chaos,
        conn_scale,
        ping_ms,
        server_stats,
        nodes: config.nodes,
        workers: config.workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ServiceConfig {
        ServiceConfig {
            client_counts: vec![1, 4],
            requests_per_client: 8,
            chaos_clients: 4,
            chaos_requests: 12,
            conn_counts: vec![48],
            conn_active: 8,
            conn_pings: 5,
            ..ServiceConfig::fast()
        }
    }

    #[test]
    fn sweep_runs_clean_over_real_sockets() {
        let report = fig8_service(&tiny_config());
        assert_eq!(report.points.len(), 2);
        for point in &report.points {
            assert_eq!(point.failed, 0);
            assert_eq!(point.anomalies, 0);
            assert!(point.rps > 0.0);
            assert_eq!(
                point.completed,
                (point.clients * 8) as u64,
                "every request completed"
            );
        }
        assert!(report.ping_ms.is_some());
        let stats = report.server_stats.expect("stats verb");
        assert!(stats.commits > 0);
        assert_eq!(report.chaos.lost_acked_commits, 0);
        assert!(report.chaos.resets_after_send > 0, "chaos leg injected");
        assert_eq!(report.conn_scale.len(), 1);
        let scale = &report.conn_scale[0];
        assert_eq!(scale.connections, 48);
        assert_eq!(scale.conns_open, 48, "the loop owns the whole fleet");
        assert_eq!(scale.reader_threads, 0, "no per-connection threads");
        assert!(scale.pings > 0 && scale.p99_ms > 0.0);
        report.check_gate().expect("gate passes on a clean run");
    }

    #[test]
    fn gate_fails_on_anomalies_or_lost_acks() {
        let mut report = fig8_service(&ServiceConfig {
            client_counts: vec![1],
            requests_per_client: 4,
            chaos_clients: 2,
            chaos_requests: 8,
            conn_counts: vec![16],
            conn_active: 4,
            conn_pings: 3,
            ..ServiceConfig::fast()
        });
        report.chaos.lost_acked_commits = 1;
        assert!(report.check_gate().is_err());
        report.chaos.lost_acked_commits = 0;
        report.points[0].anomalies = 1;
        assert!(report.check_gate().is_err());
        report.points[0].anomalies = 0;
        report.conn_scale[0].reader_threads = 3;
        assert!(
            report.check_gate().is_err(),
            "reader-thread growth fails the gate"
        );
        report.conn_scale[0].reader_threads = 0;
        report.conn_scale[0].p99_ms = CONN_P99_COLLAPSE_MS + 1.0;
        assert!(report.check_gate().is_err(), "p99 collapse fails the gate");
        report.conn_scale[0].p99_ms = 1.0;
        report.conn_scale[0].rss_per_conn_bytes = CONN_RSS_CAP_BYTES + 1.0;
        assert!(
            report.check_gate().is_err(),
            "per-connection memory growth fails the gate"
        );
    }

    #[test]
    fn json_document_has_the_documented_schema() {
        let report = ServiceReport {
            points: vec![ServicePoint {
                clients: 4,
                rps: 1234.5,
                p50_ms: 0.8,
                p99_ms: 2.5,
                completed: 600,
                failed: 0,
                anomalies: 0,
            }],
            chaos: ChaosLegReport {
                completed: 100,
                acked_commits: 110,
                resets_after_send: 5,
                ..ChaosLegReport::default()
            },
            conn_scale: vec![ConnScalePoint {
                connections: 1024,
                p50_ms: 0.3,
                p99_ms: 2.1,
                pings: 640,
                reader_threads: 0,
                threads_total: 11,
                threads_delta: 0,
                rss_delta_bytes: 1_048_576,
                rss_per_conn_bytes: 1024.0,
                frames_read: 1664,
                conns_open: 1024,
                pooled_buffers: 12,
            }],
            ping_ms: Some(0.21),
            server_stats: Some(WireStats {
                requests: 1000,
                commits: 600,
                ..WireStats::default()
            }),
            nodes: 3,
            workers: 8,
        };
        let rendered = report.to_json().render();
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(
            parsed.get("experiment").unwrap().as_str().unwrap(),
            "fig8_service"
        );
        assert_eq!(parsed.get("points").unwrap().as_array().unwrap().len(), 1);
        assert!(parsed.get("chaos").unwrap().get("acked_commits").is_some());
        assert!(parsed.get("server").unwrap().get("commits").is_some());
        let conn_scale = parsed.get("conn_scale").unwrap().as_array().unwrap();
        assert_eq!(conn_scale.len(), 1);
        assert!(conn_scale[0].get("rss_per_conn_bytes").is_some());
        assert_eq!(
            parsed.get("max_connections").unwrap().as_f64().unwrap(),
            1024.0
        );
    }
}
