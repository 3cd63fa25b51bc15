//! End-to-end tests of the networked service over real loopback sockets:
//! the full client SDK → wire protocol → server → cluster → storage stack.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aft_chaos::{ChaosSpec, NetChaos};
use aft_cluster::{Cluster, ClusterConfig};
use aft_core::api::AftApi;
use aft_net::{AftClient, AftServer, ClientConfig, ResponseFilter};
use aft_storage::io::RetryConfig;
use aft_storage::InMemoryStore;
use aft_types::clock::TickingClock;
use aft_types::wire::WireResponse;
use aft_types::{Key, TransactionId, TransactionRecord, Value};

fn served_cluster(nodes: usize, workers: usize) -> (AftServer, Arc<Cluster>) {
    let cluster = Cluster::with_clock(
        ClusterConfig::test(nodes),
        InMemoryStore::shared(),
        TickingClock::shared(1, 1),
    )
    .unwrap();
    let server = AftServer::builder()
        .workers(workers)
        .serve(Arc::clone(&cluster), "127.0.0.1:0")
        .unwrap();
    (server, cluster)
}

fn client_for(server: &AftServer, config: ClientConfig) -> Arc<AftClient> {
    AftClient::connect(server.local_addr(), config).unwrap()
}

#[test]
fn transactions_round_trip_over_loopback() {
    let (server, cluster) = served_cluster(3, 4);
    let client = client_for(&server, ClientConfig::default());

    // Write through the socket.
    let txid = client.begin().unwrap();
    client
        .put(&txid, Key::new("cart"), Value::from_static(b"3 items"))
        .unwrap();
    client
        .put(&txid, Key::new("total"), Value::from_static(b"$42"))
        .unwrap();
    // Read-your-writes from the client-side buffer: version is None.
    let (value, version) = client
        .get_versioned(&txid, &Key::new("cart"))
        .unwrap()
        .unwrap();
    assert_eq!(value, Value::from_static(b"3 items"));
    assert!(version.is_none());
    let outcome = client.commit(&txid, &[]).unwrap();
    assert!(outcome.atomic);
    assert!(!outcome.duplicate);

    // Propagate the commit to every node (the test cluster's maintenance
    // is manual), then read back in a fresh transaction — which the router
    // may send to any node.
    cluster.run_maintenance_round().unwrap();
    let reader = client.begin().unwrap();
    let (value, version) = client
        .get_versioned(&reader, &Key::new("cart"))
        .unwrap()
        .unwrap();
    assert_eq!(value, Value::from_static(b"3 items"));
    assert_eq!(version, Some(outcome.final_id));
    let values = client
        .get_all(
            &reader,
            &[Key::new("cart"), Key::new("total"), Key::new("nope")],
        )
        .unwrap();
    assert_eq!(values[0], Some(Value::from_static(b"3 items")));
    assert_eq!(values[1], Some(Value::from_static(b"$42")));
    assert_eq!(values[2], None);
    client.abort(&reader).unwrap();

    // The commit is durable in the shared storage the cluster fronts.
    let record_key = TransactionRecord::storage_key_for(&outcome.final_id);
    assert!(cluster.storage().get(&record_key).unwrap().is_some());

    // Operability verbs.
    assert!(client.ping().unwrap() < Duration::from_secs(1));
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.commits, 1);
    assert_eq!(stats.active_nodes, 3);
    assert!(stats.requests >= 5);
    server.shutdown();
}

#[test]
fn pipelined_clients_share_connections_without_cross_talk() {
    let (server, _cluster) = served_cluster(3, 4);
    let client = client_for(
        &server,
        AftClient::builder().pool_size(2).record_acks(true).build(),
    );

    let threads = 8usize;
    let txns_per_thread = 20usize;
    let expected = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..threads {
            let client = &client;
            let expected = &expected;
            scope.spawn(move || {
                for i in 0..txns_per_thread {
                    let txid = client.begin().unwrap();
                    let key = Key::new(format!("t{t}/k{i}"));
                    let value = Value::from(format!("v-{t}-{i}"));
                    client.put(&txid, key.clone(), value.clone()).unwrap();
                    // Read-your-writes inside the transaction, pipelined
                    // with the other threads' traffic on shared conns.
                    let (observed, _) = client.get_versioned(&txid, &key).unwrap().unwrap();
                    assert_eq!(observed, value, "thread {t} txn {i}");
                    let outcome = client.commit(&txid, &[]).unwrap();
                    assert!(outcome.atomic);
                    expected
                        .lock()
                        .unwrap()
                        .push((key, value, outcome.final_id));
                }
            });
        }
    });

    // One maintenance round teaches every node every commit; then any
    // routed node must serve every value at its exact committed version.
    server.cluster().run_maintenance_round().unwrap();
    for (key, value, final_id) in expected.into_inner().unwrap() {
        let reader = client.begin().unwrap();
        let (observed, version) = client.get_versioned(&reader, &key).unwrap().unwrap();
        assert_eq!(observed, value);
        assert_eq!(version, Some(final_id));
        client.abort(&reader).unwrap();
    }

    let stats = client.server_stats().unwrap();
    assert_eq!(stats.commits, (threads * txns_per_thread) as u64);
    assert_eq!(stats.duplicate_commits, 0);
    assert_eq!(client.acked_commits().len(), threads * txns_per_thread);
    server.shutdown();
}

/// Drops the acknowledgement of the first non-duplicate commit and resets
/// the connection — the server has committed, the client never hears it.
struct DropFirstCommitAck {
    dropped: AtomicU64,
}

impl ResponseFilter for DropFirstCommitAck {
    fn deliver(&self, _request_id: u64, response: &WireResponse) -> bool {
        if let WireResponse::Committed {
            duplicate: false, ..
        } = response
        {
            if self
                .dropped
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return false;
            }
        }
        true
    }
}

/// The §4.2 regression: the connection dies *after the server commits but
/// before the ack flushes*. The client's transport retry resends the same
/// `Commit`; the server must acknowledge idempotently — same transaction id,
/// same outcome, no second apply.
#[test]
fn duplicate_commit_after_lost_ack_is_acked_idempotently() {
    let (server, cluster) = served_cluster(3, 4);
    server.install_response_filter(Arc::new(DropFirstCommitAck {
        dropped: AtomicU64::new(0),
    }));
    let client = client_for(
        &server,
        AftClient::builder()
            .retry(RetryConfig {
                max_attempts: 5,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
            })
            .build(),
    );

    let txid = client.begin().unwrap();
    client
        .put(&txid, Key::new("pay"), Value::from_static(b"once"))
        .unwrap();
    let outcome = client.commit(&txid, &[]).unwrap();

    // The ack the client finally got is the deduplicated one.
    assert!(
        outcome.duplicate,
        "retried commit must be served from the ledger"
    );
    assert_eq!(outcome.final_id.uuid, txid.uuid, "same txid, same outcome");

    // Exactly one commit applied: one durable record for this uuid, one
    // data version of the key, commit counters show 1 apply + 1 dedup.
    let records = cluster
        .storage()
        .list_prefix(&TransactionRecord::storage_prefix())
        .unwrap();
    let matching: Vec<_> = records
        .iter()
        .filter(|k| k.contains(&format!("{}", txid.uuid)))
        .collect();
    assert_eq!(matching.len(), 1, "no double-apply of the commit record");
    let data_versions = cluster.storage().list_prefix("data/pay/").unwrap();
    assert_eq!(data_versions.len(), 1, "no double-apply of the data write");
    let stats = server.stats();
    assert_eq!(stats.commits, 1);
    assert_eq!(stats.duplicate_commits, 1);
    assert_eq!(stats.dropped_acks, 1);

    // The value is durable and visible on every node after one round.
    cluster.run_maintenance_round().unwrap();
    let reader = client.begin().unwrap();
    let (value, version) = client
        .get_versioned(&reader, &Key::new("pay"))
        .unwrap()
        .unwrap();
    assert_eq!(value, Value::from_static(b"once"));
    assert_eq!(version, Some(outcome.final_id));
    server.shutdown();
}

/// Captures the final id of the first non-duplicate commit ack and drops
/// that ack, like [`DropFirstCommitAck`].
struct CaptureFirstCommitAck {
    dropped: std::sync::Mutex<Option<TransactionId>>,
}

impl ResponseFilter for CaptureFirstCommitAck {
    fn deliver(&self, _request_id: u64, response: &WireResponse) -> bool {
        if let WireResponse::Committed {
            txid,
            duplicate: false,
            ..
        } = response
        {
            let mut dropped = self.dropped.lock().unwrap();
            if dropped.is_none() {
                *dropped = Some(*txid);
                return false;
            }
        }
        true
    }
}

/// A read-only commit writes no record, but the dedup ledger still answers
/// its retransmission with the original final id.
#[test]
fn duplicate_read_only_commit_is_acked_with_the_original_id() {
    let (server, cluster) = served_cluster(2, 4);
    let client = client_for(
        &server,
        AftClient::builder()
            .retry(RetryConfig {
                max_attempts: 5,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
            })
            .record_acks(true)
            .build(),
    );
    let writer = client.begin().unwrap();
    client
        .put(&writer, Key::new("seen"), Value::from_static(b"x"))
        .unwrap();
    let written = client.commit(&writer, &[]).unwrap();
    cluster.run_maintenance_round().unwrap();
    let records_before = cluster
        .storage()
        .list_prefix(&TransactionRecord::storage_prefix())
        .unwrap()
        .len();

    let filter = Arc::new(CaptureFirstCommitAck {
        dropped: std::sync::Mutex::new(None),
    });
    server.install_response_filter(Arc::clone(&filter) as Arc<dyn ResponseFilter>);
    let reader = client.begin().unwrap();
    let (value, version) = client
        .get_versioned(&reader, &Key::new("seen"))
        .unwrap()
        .unwrap();
    assert_eq!(value, Value::from_static(b"x"));
    assert_eq!(version, Some(written.final_id));
    let reads = [(Key::new("seen"), written.final_id)];
    let outcome = client.commit(&reader, &reads).unwrap();

    let original = filter.dropped.lock().unwrap().expect("first ack dropped");
    assert!(
        outcome.duplicate,
        "the resent commit is served from the ledger"
    );
    assert_eq!(outcome.final_id, original, "same final id as the lost ack");
    assert_eq!(outcome.final_id.uuid, reader.uuid);
    assert!(outcome.atomic);
    let stats = server.stats();
    assert_eq!(stats.commits, 2, "the writer and one read-only apply");
    assert_eq!(stats.duplicate_commits, 1);
    assert_eq!(cluster.total_committed(), 2);
    // No commit record for the read-only transaction, and the client's ack
    // log holds only the writer, whose record is durable.
    let records = cluster
        .storage()
        .list_prefix(&TransactionRecord::storage_prefix())
        .unwrap();
    assert_eq!(records.len(), records_before);
    assert!(!records
        .iter()
        .any(|k| k.contains(&format!("{}", reader.uuid))));
    assert_eq!(client.acked_commits(), vec![written.final_id]);
    server.shutdown();
}

#[test]
fn connection_resets_never_lose_acknowledged_commits() {
    let (server, cluster) = served_cluster(3, 4);
    // Aggressive connection chaos: ~12% of wire ops reset (half in the
    // lost-ack window), 5% delayed acks.
    let client = client_for(
        &server,
        AftClient::builder()
            .retry(RetryConfig {
                max_attempts: 6,
                base_backoff: Duration::from_micros(200),
                max_backoff: Duration::from_millis(2),
            })
            .chaos_spec(ChaosSpec::new(0xC4A05).net(NetChaos::resets_and_delays(
                0.12,
                0.05,
                Duration::from_millis(1),
            )))
            .record_acks(true)
            .build(),
    );

    let mut acked_values = Vec::new();
    for i in 0..120 {
        let txid = client.begin().unwrap();
        let key = Key::new(format!("churn/{}", i % 10));
        if client
            .put(&txid, key.clone(), Value::from(format!("v{i}")))
            .is_err()
        {
            continue;
        }
        match client.commit(&txid, &[]) {
            Ok(outcome) => acked_values.push((outcome.final_id, key)),
            Err(e) => assert!(e.is_retryable(), "only retryable errors may surface: {e:?}"),
        }
    }

    let chaos = client.chaos_stats().unwrap();
    assert!(chaos.resets_after_send > 0, "lost-ack window was exercised");
    assert!(chaos.resets_before_send > 0);

    // Every acknowledged commit has a durable record: zero lost acks.
    for (final_id, _) in &acked_values {
        let record_key = TransactionRecord::storage_key_for(final_id);
        assert!(
            cluster.storage().get(&record_key).unwrap().is_some(),
            "acked commit {final_id} has no durable record"
        );
    }
    assert_eq!(
        client.acked_commits().len(),
        acked_values.len(),
        "the client's own ack log matches"
    );
    // Every ack the client saw corresponds to an apply or a dedup; with the
    // fixed seed, some lost-ack retries were deduplicated, not re-applied.
    let stats = server.stats();
    assert!(client.stats().commits_acked <= stats.commits + stats.duplicate_commits);
    assert!(
        client.stats().duplicate_acks > 0,
        "the seeded schedule exercises the dedup ledger"
    );
    server.shutdown();
}

#[test]
fn aborting_unknown_transactions_is_idempotent() {
    let (server, _cluster) = served_cluster(1, 2);
    let client = client_for(&server, ClientConfig::default());
    let txid = client.begin().unwrap();
    client.abort(&txid).unwrap();
    // A second abort of the same transaction is a clean no-op.
    client.abort(&txid).unwrap();
    // Aborting an id the server never saw is also fine client-side.
    let ghost = TransactionId::new(99, aft_types::Uuid::from_u128(0xDEAD));
    client.abort(&ghost).unwrap();
    server.shutdown();
}

#[test]
fn shutdown_fails_inflight_and_future_calls_cleanly() {
    let (server, _cluster) = served_cluster(1, 2);
    let client = client_for(
        &server,
        AftClient::builder()
            .retry(RetryConfig {
                max_attempts: 2,
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_micros(500),
            })
            .request_timeout(Duration::from_millis(500))
            .build(),
    );
    assert!(client.ping().is_ok());
    server.shutdown();
    let err = client.ping().unwrap_err();
    assert!(
        err.is_retryable(),
        "transport failure is retryable: {err:?}"
    );
}
