//! Cross-crate integration tests: the full stack (FaaS platform → AFT cluster
//! → simulated storage) exercised the way the paper's evaluation uses it.

use std::sync::Arc;

use aft::chaos::FaasChaos;
use aft::cluster::{Cluster, ClusterConfig};
use aft::core::NodeConfig;
use aft::faas::{FaasPlatform, PlatformConfig, RetryPolicy};
use aft::storage::{BackendConfig, BackendKind};
use aft::types::clock::TickingClock;
use aft::types::Key;
use aft::workload::{
    run_closed_loop, AftDriver, DynamoTxnDriver, PlainDriver, RunConfig, WorkloadConfig,
};
use bytes::Bytes;

fn small_workload() -> WorkloadConfig {
    WorkloadConfig::standard()
        .with_keys(64)
        .with_value_size(256)
}

fn test_cluster(nodes: usize) -> Arc<Cluster> {
    Cluster::with_clock(
        ClusterConfig {
            initial_nodes: nodes,
            node_template: NodeConfig::default(),
            replacement_delay: std::time::Duration::ZERO,
            ..ClusterConfig::default()
        },
        aft::storage::make_backend(BackendConfig::test(BackendKind::DynamoDb)),
        TickingClock::shared(1, 1),
    )
    .unwrap()
}

#[test]
fn aft_requests_over_every_backend_are_anomaly_free() {
    for kind in [BackendKind::S3, BackendKind::DynamoDb, BackendKind::Redis] {
        let storage = aft::storage::make_backend(BackendConfig::test(kind));
        let node = aft::core::AftNode::new(NodeConfig::default(), storage).unwrap();
        let driver = AftDriver::single_node(
            node,
            FaasPlatform::new(PlatformConfig::test()),
            RetryPolicy::with_attempts(5),
        );
        let result = run_closed_loop(
            &driver,
            &RunConfig::new(small_workload())
                .with_clients(4)
                .with_requests(30),
        )
        .unwrap();
        assert_eq!(result.completed, 120, "backend {kind:?}");
        assert_eq!(result.anomalies.ryw_transactions, 0, "backend {kind:?}");
        assert_eq!(result.anomalies.fr_transactions, 0, "backend {kind:?}");
    }
}

#[test]
fn clustered_aft_keeps_read_atomicity_with_background_maintenance() {
    let cluster = test_cluster(3);
    cluster.start_background();
    let driver = AftDriver::clustered(
        Arc::clone(&cluster),
        FaasPlatform::new(PlatformConfig::test()),
        RetryPolicy::with_attempts(8),
    );
    let result = run_closed_loop(
        &driver,
        &RunConfig::new(small_workload().with_zipf(1.5))
            .with_clients(6)
            .with_requests(50),
    )
    .unwrap();
    cluster.shutdown();

    assert_eq!(result.completed + result.failed, 300);
    assert_eq!(result.anomalies.ryw_transactions, 0);
    assert_eq!(result.anomalies.fr_transactions, 0);
    // Every committed transaction (each one writes) has a durable commit
    // record; a read-only commit would have none. GC deletes
    // metadata per node (so the sum across nodes can exceed the number of
    // committed transactions once the clock-paced maintenance loop free-runs
    // on a virtual clock); saturate rather than underflow.
    let commit_records = cluster.storage().list_prefix("commit/").unwrap().len() as u64;
    let lower_bound = cluster
        .total_committed()
        .saturating_sub(cluster.total_gc_deleted());
    assert!(commit_records >= lower_bound);
}

#[test]
fn injected_function_failures_never_leak_partial_state_through_aft() {
    let cluster = test_cluster(2);
    let platform = FaasPlatform::new(PlatformConfig::test().with_chaos(FaasChaos::uniform(0.35)));
    let driver = AftDriver::clustered(
        Arc::clone(&cluster),
        platform,
        RetryPolicy::with_attempts(15),
    );
    let result = run_closed_loop(
        &driver,
        &RunConfig::new(small_workload())
            .with_clients(4)
            .with_requests(50),
    )
    .unwrap();

    // Despite heavy failure injection nearly every request eventually
    // completes (retries), and none observes an anomaly.
    assert!(result.completed >= 190, "completed {}", result.completed);
    assert_eq!(result.anomalies.ryw_transactions, 0);
    assert_eq!(result.anomalies.fr_transactions, 0);

    // No dangling in-flight transactions remain on any node.
    for node in cluster.active_nodes() {
        assert_eq!(node.in_flight(), 0, "node {}", node.node_id());
    }
}

#[test]
fn plain_baseline_shows_anomalies_under_contention_but_aft_does_not() {
    // The Table 2 comparison in miniature: a hot key space hammered by many
    // clients.
    let contended = WorkloadConfig::standard()
        .with_keys(4)
        .with_zipf(2.0)
        .with_value_size(128);

    // Whether the racing clients actually interleave badly is up to the
    // scheduler: on a loaded machine (e.g. CI running many test binaries at
    // once) a run can finish with zero anomalies. Retry a few times — one
    // anomalous run is all the comparison needs — so the assertion tests the
    // baseline's lack of a guarantee, not one scheduler interleaving.
    let mut plain_result = None;
    for _ in 0..5 {
        let plain = PlainDriver::new(
            aft::storage::make_backend(BackendConfig::test(BackendKind::DynamoDb)),
            FaasPlatform::new(PlatformConfig::test()),
            RetryPolicy::with_attempts(3),
        );
        let result = run_closed_loop(
            &plain,
            &RunConfig::new(contended.clone())
                .with_clients(8)
                .with_requests(100),
        )
        .unwrap();
        let anomalous = result.anomalies.ryw_transactions + result.anomalies.fr_transactions > 0;
        plain_result = Some(result);
        if anomalous {
            break;
        }
    }
    let plain_result = plain_result.expect("at least one plain run");

    let node = aft::core::AftNode::new(
        NodeConfig::default(),
        aft::storage::make_backend(BackendConfig::test(BackendKind::DynamoDb)),
    )
    .unwrap();
    let aft = AftDriver::single_node(
        node,
        FaasPlatform::new(PlatformConfig::test()),
        RetryPolicy::with_attempts(8),
    );
    let aft_result = run_closed_loop(
        &aft,
        &RunConfig::new(contended).with_clients(8).with_requests(100),
    )
    .unwrap();

    assert!(
        plain_result.anomalies.ryw_transactions + plain_result.anomalies.fr_transactions > 0,
        "plain storage under contention should show anomalies"
    );
    assert_eq!(aft_result.anomalies.ryw_transactions, 0);
    assert_eq!(aft_result.anomalies.fr_transactions, 0);
}

#[test]
fn dynamo_transaction_mode_eliminates_ryw_but_not_fractured_reads() {
    // §6.1.2: grouping all writes into one TransactWriteItems call removes
    // read-your-writes anomalies by construction; reads still span two
    // transactions so fractured reads remain possible. We assert the RYW half
    // (deterministic) and merely run the FR half (statistical).
    let table = aft::storage::SimDynamo::with_profile(
        aft::storage::ServiceProfile::zero(),
        aft::storage::LatencyModel::disabled(),
        9,
    );
    let driver = DynamoTxnDriver::new(
        table.transaction_mode(),
        FaasPlatform::new(PlatformConfig::test()),
        RetryPolicy::with_attempts(10),
    );
    let result = run_closed_loop(
        &driver,
        &RunConfig::new(
            WorkloadConfig::standard()
                .with_keys(4)
                .with_zipf(2.0)
                .with_value_size(128),
        )
        .with_clients(8)
        .with_requests(100),
    )
    .unwrap();
    assert_eq!(result.anomalies.ryw_transactions, 0);
    assert!(result.completed > 0);
}

#[test]
fn cross_node_visibility_follows_the_broadcast() {
    let cluster = test_cluster(3);
    let nodes = cluster.active_nodes();

    // Commit on node 0 only.
    let writer = &nodes[0];
    let txn = writer.start_transaction();
    writer
        .put(&txn, Key::new("broadcast-me"), Bytes::from_static(b"hello"))
        .unwrap();
    writer.commit(&txn).unwrap();

    // Before any maintenance the other nodes do not serve it...
    for node in &nodes[1..] {
        let t = node.start_transaction();
        assert!(node.get(&t, &Key::new("broadcast-me")).unwrap().is_none());
        node.abort(&t).unwrap();
    }
    // ...and after one maintenance round they all do.
    cluster.run_maintenance_round().unwrap();
    for node in &nodes {
        let t = node.start_transaction();
        assert_eq!(
            node.get(&t, &Key::new("broadcast-me")).unwrap().unwrap(),
            Bytes::from_static(b"hello"),
            "node {}",
            node.node_id()
        );
        node.commit(&t).unwrap();
    }
}
