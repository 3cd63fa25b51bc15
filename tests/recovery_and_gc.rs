//! Integration tests for fault recovery (§3.3.1, §4.2, §6.7) and garbage
//! collection (§5) across the whole stack.

use std::sync::Arc;

use aft::cluster::{broadcast_round, Cluster, ClusterConfig, FaultManager, GlobalGc};
use aft::core::{AftNode, LocalGcConfig, NodeConfig};
use aft::storage::io::{IoConfig, IoEngine};
use aft::storage::{BackendConfig, BackendKind, InMemoryStore, SharedStorage};
use aft::types::clock::TickingClock;
use aft::types::codec::encode_commit_record;
use aft::types::{AftError, Key, TransactionId, TransactionRecord, Uuid};
use bytes::Bytes;

fn node_over(storage: SharedStorage, id: &str) -> Arc<AftNode> {
    AftNode::with_clock(
        NodeConfig::default().with_node_id(id),
        storage,
        TickingClock::shared(1, 1),
    )
    .unwrap()
}

#[test]
fn committed_data_survives_total_node_loss() {
    let storage: SharedStorage = InMemoryStore::shared();
    {
        let node = node_over(storage.clone(), "original");
        for i in 0..20 {
            let t = node.start_transaction();
            node.put(
                &t,
                Key::new(format!("durable-{i}")),
                Bytes::from(format!("v{i}")),
            )
            .unwrap();
            node.commit(&t).unwrap();
        }
        // The node and every cache die here.
    }
    let replacement = node_over(storage, "replacement");
    let t = replacement.start_transaction();
    for i in 0..20 {
        assert_eq!(
            replacement
                .get(&t, &Key::new(format!("durable-{i}")))
                .unwrap()
                .unwrap(),
            Bytes::from(format!("v{i}"))
        );
    }
    replacement.commit(&t).unwrap();
}

#[test]
fn uncommitted_work_is_lost_on_node_failure_and_clients_retry() {
    let storage: SharedStorage = InMemoryStore::shared();
    let in_flight_txn;
    {
        let node = node_over(storage.clone(), "doomed");
        let t = node.start_transaction();
        node.put(&t, Key::new("half-done"), Bytes::from_static(b"x"))
            .unwrap();
        in_flight_txn = t;
        // Node fails before commit.
    }
    let replacement = node_over(storage, "replacement");
    // The replacement knows nothing about the in-flight transaction; the
    // client's retry gets UnknownTransaction and must redo the request.
    let err = replacement
        .put(
            &in_flight_txn,
            Key::new("half-done"),
            Bytes::from_static(b"y"),
        )
        .unwrap_err();
    assert!(matches!(err, AftError::UnknownTransaction(_)));
    // And nothing of the half-done work is visible.
    let t = replacement.start_transaction();
    assert!(replacement
        .get(&t, &Key::new("half-done"))
        .unwrap()
        .is_none());
}

#[test]
fn fault_manager_recovers_commits_lost_before_broadcast() {
    let storage: SharedStorage = InMemoryStore::shared();
    let clock = TickingClock::shared(1, 1);
    let make = |id: &str| {
        AftNode::with_clock(
            NodeConfig::default().with_node_id(id),
            storage.clone(),
            clock.clone(),
        )
        .unwrap()
    };
    let dying = make("dying");
    let survivor_a = make("survivor-a");
    let survivor_b = make("survivor-b");

    // The dying node commits and acknowledges but never broadcasts.
    let t = dying.start_transaction();
    dying
        .put(&t, Key::new("acked"), Bytes::from_static(b"important"))
        .unwrap();
    dying.commit(&t).unwrap();
    drop(dying);

    // Liveness (§4.2): the fault manager scans the commit set and tells the
    // survivors, so the acknowledged data becomes visible.
    let fm = FaultManager::new();
    let io = IoEngine::new(storage.clone(), IoConfig::pipelined());
    let survivors = vec![Arc::clone(&survivor_a), Arc::clone(&survivor_b)];
    let recovered = fm.scan_commit_set(&io, &survivors).unwrap();
    assert_eq!(recovered, 1);
    for node in &survivors {
        let t = node.start_transaction();
        assert_eq!(
            node.get(&t, &Key::new("acked")).unwrap().unwrap(),
            Bytes::from_static(b"important")
        );
        node.commit(&t).unwrap();
    }
}

#[test]
fn global_gc_reclaims_superseded_versions_without_losing_the_latest() {
    let storage: SharedStorage = InMemoryStore::shared();
    let clock = TickingClock::shared(1, 1);
    let nodes: Vec<Arc<AftNode>> = (0..2)
        .map(|i| {
            AftNode::with_clock(
                NodeConfig::default().with_node_id(format!("n{i}")),
                storage.clone(),
                clock.clone(),
            )
            .unwrap()
        })
        .collect();
    let fm = FaultManager::new();
    let gc = GlobalGc::default();

    // 50 versions of 5 hot keys, interleaved across both nodes.
    for i in 0..50u32 {
        let node = &nodes[(i % 2) as usize];
        let t = node.start_transaction();
        node.put(
            &t,
            Key::new(format!("hot-{}", i % 5)),
            Bytes::from(format!("v{i}")),
        )
        .unwrap();
        node.commit(&t).unwrap();
    }
    broadcast_round(&nodes, Some(&fm));
    for node in &nodes {
        node.run_local_gc(&LocalGcConfig::aggressive());
    }
    let io = IoEngine::new(storage.clone(), IoConfig::pipelined());
    let outcome = gc.run_round(&fm, &nodes, &io).unwrap();
    assert!(
        outcome.deleted >= 40,
        "most superseded versions deleted, got {outcome:?}"
    );

    // Exactly one live version per key remains in storage.
    let remaining = storage.list_prefix("data/").unwrap();
    assert_eq!(
        remaining.len(),
        5,
        "one surviving version per hot key: {remaining:?}"
    );

    // And every key still reads its newest value on every node.
    for node in &nodes {
        let t = node.start_transaction();
        for k in 0..5u32 {
            let value = node
                .get(&t, &Key::new(format!("hot-{k}")))
                .unwrap()
                .unwrap();
            let expected = format!("v{}", 45 + k); // last writer of hot-k
            assert_eq!(value, Bytes::from(expected));
        }
        node.commit(&t).unwrap();
    }
}

/// Read-only commits no longer write a commit record, but a store written
/// before that change holds empty-write-set records. A node still
/// bootstraps from such a store, and GC removes the old records.
#[test]
fn legacy_read_only_commit_records_bootstrap_and_are_collected() {
    let storage: SharedStorage = InMemoryStore::shared();
    let clock = TickingClock::shared(1_000, 1);
    {
        let writer = node_over(storage.clone(), "writer");
        let t = writer.start_transaction();
        writer
            .put(&t, Key::new("kept"), Bytes::from_static(b"v"))
            .unwrap();
        writer.commit(&t).unwrap();
    }
    let legacy: Vec<TransactionRecord> = (0..5u128)
        .map(|i| {
            TransactionRecord::new(
                TransactionId::new(10 + i as u64, Uuid::from_u128(i + 1)),
                [],
            )
        })
        .collect();
    for record in &legacy {
        storage
            .put(&record.storage_key(), encode_commit_record(record))
            .unwrap();
    }
    assert_eq!(storage.list_prefix("commit/").unwrap().len(), 6);

    let nodes: Vec<Arc<AftNode>> = (0..2)
        .map(|i| {
            AftNode::with_clock(
                NodeConfig::default().with_node_id(format!("n{i}")),
                storage.clone(),
                clock.clone(),
            )
            .unwrap()
        })
        .collect();
    for node in &nodes {
        assert!(legacy.iter().all(|r| node.metadata().is_committed(&r.id)));
        let t = node.start_transaction();
        assert_eq!(
            node.get(&t, &Key::new("kept")).unwrap().unwrap(),
            Bytes::from_static(b"v")
        );
        node.commit(&t).unwrap();
    }

    let fm = FaultManager::new();
    let io = IoEngine::new(storage.clone(), IoConfig::pipelined());
    fm.scan_commit_set(&io, &nodes).unwrap();
    for node in &nodes {
        node.run_local_gc(&LocalGcConfig::aggressive());
    }
    let outcome = GlobalGc::default().run_round(&fm, &nodes, &io).unwrap();
    assert_eq!(outcome.deleted, legacy.len(), "{outcome:?}");
    let remaining = storage.list_prefix("commit/").unwrap();
    assert_eq!(
        remaining.len(),
        1,
        "only the writer's record: {remaining:?}"
    );
    for node in &nodes {
        let t = node.start_transaction();
        assert_eq!(
            node.get(&t, &Key::new("kept")).unwrap().unwrap(),
            Bytes::from_static(b"v")
        );
        node.commit(&t).unwrap();
    }
}

#[test]
fn gc_racing_a_long_transaction_forces_retry_not_fracture() {
    // The §5.2.1 limitation: deleting old versions can force a long-running
    // transaction to abort and retry, but it must never fracture its reads.
    let storage: SharedStorage = InMemoryStore::shared();
    let clock = TickingClock::shared(1, 1);
    let node = AftNode::with_clock(NodeConfig::default(), storage.clone(), clock.clone()).unwrap();
    let fm = FaultManager::new();
    let gc = GlobalGc::default();

    // T_a writes {k, l}; the long-running reader reads k from T_a.
    let ta = node.start_transaction();
    node.put(&ta, Key::new("k"), Bytes::from_static(b"ka"))
        .unwrap();
    node.put(&ta, Key::new("l"), Bytes::from_static(b"la"))
        .unwrap();
    node.commit(&ta).unwrap();

    let reader = node.start_transaction();
    assert_eq!(
        node.get(&reader, &Key::new("k")).unwrap().unwrap(),
        Bytes::from_static(b"ka")
    );

    // Newer transactions supersede T_a entirely.
    for i in 0..3 {
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), Bytes::from(format!("k{i}")))
            .unwrap();
        node.put(&t, Key::new("l"), Bytes::from(format!("l{i}")))
            .unwrap();
        node.commit(&t).unwrap();
    }
    let nodes = vec![Arc::clone(&node)];
    broadcast_round(&nodes, Some(&fm));
    // Local GC keeps T_a because the reader depends on it...
    let outcome = node.run_local_gc(&LocalGcConfig::aggressive());
    assert!(outcome.retained_for_readers >= 1);
    let io = IoEngine::new(storage.clone(), IoConfig::pipelined());
    let _ = gc.run_round(&fm, &nodes, &io).unwrap();

    // ...so the reader still gets an atomic (if stale) view of l, or a clean
    // retryable error — never a fractured read.
    match node.get(&reader, &Key::new("l")) {
        Ok(Some(value)) => assert_eq!(value, Bytes::from_static(b"la")),
        Ok(None) => panic!("l must not silently disappear"),
        Err(AftError::NoValidVersion { .. }) => {} // acceptable: retry
        Err(other) => panic!("unexpected error {other}"),
    }
}

#[test]
fn cluster_failover_preserves_all_committed_data_under_load() {
    let storage = aft::storage::make_backend(BackendConfig::test(BackendKind::DynamoDb));
    let cluster = Cluster::with_clock(
        ClusterConfig {
            initial_nodes: 4,
            node_template: NodeConfig::default(),
            replacement_delay: std::time::Duration::ZERO,
            ..ClusterConfig::default()
        },
        storage,
        TickingClock::shared(1, 1),
    )
    .unwrap();

    // Commit 100 transactions spread over the cluster.
    for i in 0..100u32 {
        let node = cluster.route().unwrap();
        let t = node.start_transaction();
        node.put(
            &t,
            Key::new(format!("key-{}", i % 25)),
            Bytes::from(format!("v{i}")),
        )
        .unwrap();
        node.commit(&t).unwrap();
    }
    cluster.run_maintenance_round().unwrap();

    // Kill two nodes and replace them.
    cluster.kill_node("aft-node-0");
    cluster.kill_node("aft-node-2");
    assert_eq!(cluster.registry().active_count(), 2);
    assert_eq!(cluster.replace_failed_nodes().unwrap(), 2);
    assert_eq!(cluster.registry().active_count(), 4);
    cluster.run_maintenance_round().unwrap();

    // Every key is readable from every (old or replacement) node.
    for node in cluster.active_nodes() {
        let t = node.start_transaction();
        for k in 0..25u32 {
            assert!(
                node.get(&t, &Key::new(format!("key-{k}")))
                    .unwrap()
                    .is_some(),
                "key-{k} missing on {}",
                node.node_id()
            );
        }
        node.commit(&t).unwrap();
    }
}
