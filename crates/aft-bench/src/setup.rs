//! Shared construction of the simulated environment for every experiment.

use std::sync::Arc;
use std::time::Duration;

use aft_chaos::ChaosSpec;
use aft_cluster::{Cluster, ClusterConfig, DisseminationConfig};
use aft_core::api::AftApi;
use aft_core::{AftNode, NodeConfig};
use aft_faas::{FaasPlatform, PlatformConfig, RetryPolicy};
use aft_net::{AftClient, AftServer};
use aft_storage::io::RetryConfig;
use aft_storage::latency::LatencyProfile;
use aft_storage::{BackendConfig, BackendKind, LatencyMode, SharedStorage};
use aft_types::AftResult;
use aft_workload::{AftDriver, ClientMode, DynamoTxnDriver, PlainDriver};

/// The client→AFT-shim RPC hop at full scale (microseconds): roughly one
/// intra-AZ round trip plus request handling, the source of the ~6 ms fixed
/// overhead between "DynamoDB Batch" and "AFT Batch" in Figure 2 once the
/// commit-record write is added.
pub const SHIM_RPC_PROFILE: LatencyProfile = LatencyProfile {
    median_us: 1_200.0,
    p99_us: 4_000.0,
    per_kb_us: 0.4,
};

/// Benchmark environment: latency scale and experiment sizing.
#[derive(Debug, Clone, Copy)]
pub struct BenchEnv {
    /// Global latency scale factor applied to every simulated service.
    pub scale: f64,
    /// Requests per client for latency-style experiments.
    pub requests_per_client: usize,
    /// Whether the fast (smoke-test) mode is active.
    pub fast: bool,
}

impl BenchEnv {
    /// Reads the environment variables described in the crate docs.
    pub fn from_env() -> Self {
        let fast = std::env::var("AFT_BENCH_FAST").is_ok();
        let scale = std::env::var("AFT_BENCH_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.1);
        let requests_per_client = std::env::var("AFT_BENCH_REQUESTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if fast { 30 } else { 200 });
        BenchEnv {
            scale,
            requests_per_client,
            fast,
        }
    }

    /// A tiny environment for unit tests of the harness itself: zero latency.
    pub fn test() -> Self {
        BenchEnv {
            scale: 0.0,
            requests_per_client: 10,
            fast: true,
        }
    }

    /// Scales an experiment size down in fast mode.
    pub fn sized(&self, normal: usize, fast: usize) -> usize {
        if self.fast {
            fast
        } else {
            normal
        }
    }

    /// Scales a duration down in fast mode.
    pub fn timed(&self, normal: Duration, fast: Duration) -> Duration {
        if self.fast {
            fast
        } else {
            normal
        }
    }

    /// The latency mode matching this environment (virtual when scale is 0).
    pub fn mode(&self) -> LatencyMode {
        if self.scale == 0.0 {
            LatencyMode::Virtual
        } else {
            LatencyMode::Sleep
        }
    }

    /// Builds a storage backend of the given kind.
    pub fn storage(&self, kind: BackendKind, seed: u64) -> SharedStorage {
        aft_storage::make_backend(BackendConfig {
            kind,
            mode: self.mode(),
            scale: self.scale,
            seed,
            redis_shards: 2,
            stripes: aft_storage::DEFAULT_STRIPES,
        })
    }

    /// Builds an AFT node over `storage`.
    pub fn node(&self, storage: SharedStorage, caching: bool, seed: u64) -> Arc<AftNode> {
        let config = NodeConfig {
            data_cache_bytes: if caching { 256 * 1024 * 1024 } else { 0 },
            rng_seed: seed,
            ..NodeConfig::default()
        }
        .with_rpc_latency(SHIM_RPC_PROFILE, self.mode(), self.scale);
        AftNode::new(config, storage).expect("node construction only fails on storage errors")
    }

    /// The node configuration template used for cluster experiments.
    pub fn node_template(&self, caching: bool) -> NodeConfig {
        NodeConfig {
            data_cache_bytes: if caching { 256 * 1024 * 1024 } else { 0 },
            ..NodeConfig::default()
        }
        .with_rpc_latency(SHIM_RPC_PROFILE, self.mode(), self.scale)
    }

    /// Builds a multi-node AFT cluster over `storage`.
    pub fn cluster(&self, storage: SharedStorage, nodes: usize, caching: bool) -> Arc<Cluster> {
        let config = ClusterConfig {
            initial_nodes: nodes,
            node_template: self.node_template(caching),
            dissemination: DisseminationConfig::all_to_all()
                .with_interval(Duration::from_millis(if self.fast { 20 } else { 100 })),
            replacement_delay: Duration::ZERO,
            ..ClusterConfig::default()
        };
        Cluster::new(config, storage).expect("cluster construction")
    }

    /// Builds the simulated FaaS platform.
    pub fn platform(&self) -> Arc<FaasPlatform> {
        let mut config = PlatformConfig::aws_like(self.scale);
        config.latency_mode = self.mode();
        FaasPlatform::new(config)
    }

    /// The retry policy the simulated clients use.
    pub fn retry(&self) -> RetryPolicy {
        RetryPolicy::with_attempts(8)
    }

    /// Builds an AFT driver over a fresh single node on a fresh backend.
    pub fn aft_driver(&self, kind: BackendKind, caching: bool, seed: u64) -> AftDriver {
        let storage = self.storage(kind, seed);
        let node = self.node(storage, caching, seed ^ 0xA57);
        AftDriver::single_node(node, self.platform(), self.retry())
            .with_label(aft_label(kind, caching))
    }

    /// Builds a Plain driver over a fresh backend.
    pub fn plain_driver(&self, kind: BackendKind, seed: u64) -> PlainDriver {
        PlainDriver::new(self.storage(kind, seed), self.platform(), self.retry())
    }

    /// Builds a DynamoDB-transaction-mode driver over a fresh table.
    pub fn dynamo_txn_driver(&self, seed: u64) -> DynamoTxnDriver {
        let table = aft_storage::SimDynamo::with_profile(
            aft_storage::ServiceProfile::dynamodb(),
            aft_storage::LatencyModel::new(self.mode(), self.scale),
            seed,
        );
        DynamoTxnDriver::new(table.transaction_mode(), self.platform(), self.retry())
    }
}

/// The one way experiments stand a cluster up as a networked service:
/// every knob of the loopback endpoint — server worker pool and queue,
/// client pool/retry/chaos — in a single options struct, so
/// `fig8_service`, `fig10_recovery`, and future benches configure the
/// service identically (`ServeOptions { workers: 8, ..Default::default() }`
/// style).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Server worker-pool size.
    pub workers: usize,
    /// Connection slots preallocated in the event loop's slab (sizing hint
    /// for high-connection sweeps; the slab grows beyond it).
    pub slab_capacity: usize,
    /// Server worker-queue capacity (per-socket backpressure threshold).
    pub queue_capacity: usize,
    /// Server admission limit: queue depth beyond which new requests get a
    /// typed `Overloaded` rejection (`0` disables).
    pub admission_limit: usize,
    /// Server queue-age deadline beyond which requests are shed unexecuted
    /// (`ZERO` disables).
    pub queue_deadline: Duration,
    /// Per-connection fair queuing on the server's worker queue.
    pub fair_queuing: bool,
    /// Client connection-pool size.
    pub pool_size: usize,
    /// Client transport retry/backoff budget.
    pub retry: RetryConfig,
    /// Optional unified fault schedule; the client-side connection layer
    /// consumes its `net` leg (other legs are free for the experiment to
    /// wire into storage/platform injectors from the same seed).
    pub chaos: Option<ChaosSpec>,
    /// Client UUID seed.
    pub seed: u64,
    /// Keep the client-side ack log (experiments verify acks against the
    /// durable commit set).
    pub record_acks: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            slab_capacity: 1_024,
            queue_capacity: 1_024,
            admission_limit: 0,
            queue_deadline: Duration::ZERO,
            fair_queuing: false,
            pool_size: 4,
            retry: RetryConfig::default(),
            chaos: None,
            seed: 0xAF7_11E7,
            record_acks: true,
        }
    }
}

impl ServeOptions {
    /// Overrides the server worker-pool size.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the client connection-pool size.
    pub fn pool_size(mut self, pool_size: usize) -> Self {
        self.pool_size = pool_size;
        self
    }

    /// Enables the full overload-protection stack: admission control at
    /// `admission_limit`, shedding past `queue_deadline`, and per-client
    /// fair queuing.
    pub fn overload_protection(mut self, admission_limit: usize, queue_deadline: Duration) -> Self {
        self.admission_limit = admission_limit;
        self.queue_deadline = queue_deadline;
        self.fair_queuing = true;
        self
    }

    /// Overrides the client UUID seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A served deployment kept alive behind a networked driver: dropping the
/// handle shuts the server down.
pub struct ServiceHandle {
    /// The loopback server fronting the cluster.
    pub server: AftServer,
    /// The SDK client the driver runs through.
    pub client: Arc<AftClient>,
}

/// Serves `cluster` on an ephemeral loopback port and connects a client —
/// the shared construction used by `fig8_service`, the networked
/// `fig8_distributed` variant, and the recovery matrix's network-fault
/// trials.
pub fn serve_cluster(cluster: &Arc<Cluster>, options: &ServeOptions) -> AftResult<ServiceHandle> {
    let server = AftServer::builder()
        .workers(options.workers)
        .slab_capacity(options.slab_capacity)
        .queue_capacity(options.queue_capacity)
        .admission_limit(options.admission_limit)
        .queue_deadline(options.queue_deadline)
        .fair_queuing(options.fair_queuing)
        .serve(Arc::clone(cluster), "127.0.0.1:0")?;
    let mut client = AftClient::builder()
        .pool_size(options.pool_size)
        .retry(options.retry)
        .rng_seed(options.seed)
        .record_acks(options.record_acks);
    if let Some(chaos) = options.chaos.clone() {
        client = client.chaos_spec(chaos);
    }
    let client = client.connect(server.local_addr())?;
    Ok(ServiceHandle { server, client })
}

impl BenchEnv {
    /// Builds the AFT driver for `cluster` in the given [`ClientMode`]:
    /// in-process drivers call the router directly, networked drivers cross
    /// a real loopback socket (the returned handle keeps the server alive).
    pub fn cluster_driver(
        &self,
        cluster: &Arc<Cluster>,
        mode: ClientMode,
        options: &ServeOptions,
    ) -> (AftDriver, Option<ServiceHandle>) {
        match mode {
            ClientMode::InProcess => (
                AftDriver::clustered(Arc::clone(cluster), self.platform(), self.retry()),
                None,
            ),
            ClientMode::Networked => {
                let handle = serve_cluster(cluster, options)
                    .expect("serving a cluster on loopback only fails when bind is refused");
                let api: Arc<dyn AftApi> = Arc::clone(&handle.client) as Arc<dyn AftApi>;
                let driver = AftDriver::from_api(api, self.platform(), self.retry());
                (driver, Some(handle))
            }
        }
    }
}

/// The label used for AFT configurations in the figures ("AFT-D Caching" etc.).
pub fn aft_label(kind: BackendKind, caching: bool) -> String {
    let backend = match kind {
        BackendKind::DynamoDb => "AFT-D",
        BackendKind::Redis => "AFT-R",
        BackendKind::S3 => "AFT-S3",
        BackendKind::Memory => "AFT-Mem",
        BackendKind::ShardedService => "AFT-Svc",
    };
    if caching {
        format!("{backend} Caching")
    } else {
        format!("{backend} No Caching")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_workload::{run_closed_loop, RequestDriver, RunConfig, WorkloadConfig};

    #[test]
    fn env_defaults_are_reasonable() {
        let env = BenchEnv::from_env();
        assert!(env.scale >= 0.0);
        assert!(env.requests_per_client > 0);
        let test_env = BenchEnv::test();
        assert_eq!(test_env.mode(), LatencyMode::Virtual);
        assert_eq!(test_env.sized(100, 7), 7);
    }

    #[test]
    fn drivers_built_by_the_env_execute_requests() {
        let env = BenchEnv::test();
        let workload = WorkloadConfig::standard()
            .with_keys(50)
            .with_value_size(128);
        for driver in [
            Box::new(env.aft_driver(BackendKind::DynamoDb, true, 1)) as Box<dyn RequestDriver>,
            Box::new(env.plain_driver(BackendKind::Redis, 2)) as Box<dyn RequestDriver>,
            Box::new(env.dynamo_txn_driver(3)) as Box<dyn RequestDriver>,
        ] {
            let result = run_closed_loop(
                driver.as_ref(),
                &RunConfig::new(workload.clone()).with_requests(5),
            )
            .unwrap();
            assert_eq!(result.completed, 5, "driver {}", driver.name());
        }
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(aft_label(BackendKind::DynamoDb, true), "AFT-D Caching");
        assert_eq!(aft_label(BackendKind::Redis, false), "AFT-R No Caching");
    }
}
