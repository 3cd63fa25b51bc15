//! One function per table/figure of the paper's evaluation (§6).
//!
//! Each function runs the experiment against the simulated substrates and
//! returns the rendered result table(s). The `aft-bench` runner prints them
//! (see `runner::EXPERIMENTS`); the unit tests call them with reduced sizes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aft_cluster::{Cluster, DisseminationConfig};
use aft_core::LocalGcConfig;
use aft_storage::BackendKind;
use aft_types::{payload_of_size, Key};
use aft_workload::{
    run_closed_loop, AftDriver, ClientMode, LatencyRecorder, RequestDriver, RunConfig, RunResult,
    WorkloadConfig,
};

use crate::report::{ms, Table};
use crate::setup::{BenchEnv, ServeOptions};

fn latency_row(table: &mut Table, config: &str, detail: &str, result: &RunResult) {
    table.add_row(vec![
        config.to_owned(),
        detail.to_owned(),
        ms(result.latency.median_ms()),
        ms(result.latency.p99_ms()),
        result.completed.to_string(),
    ]);
}

// ---------------------------------------------------------------------------
// Figure 2 — IO latency of 1/5/10 writes, with and without AFT, with and
// without batching, over DynamoDB.
// ---------------------------------------------------------------------------

/// Figure 2: direct-to-DynamoDB writes versus writes through AFT's commit
/// protocol, sequential versus batched, for 1/5/10 writes per request.
pub fn fig2_io_latency(env: &BenchEnv) -> Table {
    let mut table = Table::new(
        "Figure 2 — IO latency: 1/5/10 writes (ms)",
        &[
            "configuration",
            "writes",
            "median (ms)",
            "p99 (ms)",
            "requests",
        ],
    );
    let requests = env.sized(env.requests_per_client, 30);
    let payload = payload_of_size(4 * 1024);

    let write_counts = [1usize, 5, 10];
    for &writes in &write_counts {
        // DynamoDB Sequential: one PutItem per write.
        let storage = env.storage(BackendKind::DynamoDb, 0xF2_01 + writes as u64);
        let mut recorder = LatencyRecorder::new();
        for request in 0..requests {
            let start = Instant::now();
            for w in 0..writes {
                storage
                    .put(&format!("fig2/{request}/{w}"), payload.clone())
                    .expect("simulated storage never fails");
            }
            recorder.record(start.elapsed());
        }
        let stats = recorder.stats();
        table.add_row(vec![
            "DynamoDB Sequential".into(),
            writes.to_string(),
            ms(stats.median_ms()),
            ms(stats.p99_ms()),
            requests.to_string(),
        ]);

        // DynamoDB Batch: one BatchWriteItem per request.
        let storage = env.storage(BackendKind::DynamoDb, 0xF2_02 + writes as u64);
        let mut recorder = LatencyRecorder::new();
        for request in 0..requests {
            let items: Vec<(String, aft_types::Value)> = (0..writes)
                .map(|w| (format!("fig2/{request}/{w}"), payload.clone()))
                .collect();
            let start = Instant::now();
            storage
                .put_batch(items)
                .expect("simulated storage never fails");
            recorder.record(start.elapsed());
        }
        let stats = recorder.stats();
        table.add_row(vec![
            "DynamoDB Batch".into(),
            writes.to_string(),
            ms(stats.median_ms()),
            ms(stats.p99_ms()),
            requests.to_string(),
        ]);

        // AFT Sequential: one Put call to the shim per write, then commit.
        let storage = env.storage(BackendKind::DynamoDb, 0xF2_03 + writes as u64);
        let node = env.node(storage, true, 0xF2_03);
        let mut recorder = LatencyRecorder::new();
        for request in 0..requests {
            let start = Instant::now();
            let txid = node.start_transaction();
            for w in 0..writes {
                node.put(
                    &txid,
                    Key::new(format!("fig2/{request}/{w}")),
                    payload.clone(),
                )
                .expect("put");
            }
            node.commit(&txid).expect("commit");
            recorder.record(start.elapsed());
        }
        let stats = recorder.stats();
        table.add_row(vec![
            "AFT Sequential".into(),
            writes.to_string(),
            ms(stats.median_ms()),
            ms(stats.p99_ms()),
            requests.to_string(),
        ]);

        // AFT Batch: all writes shipped to the shim in one request.
        let storage = env.storage(BackendKind::DynamoDb, 0xF2_04 + writes as u64);
        let node = env.node(storage, true, 0xF2_04);
        let mut recorder = LatencyRecorder::new();
        for request in 0..requests {
            let items: Vec<(Key, aft_types::Value)> = (0..writes)
                .map(|w| (Key::new(format!("fig2/{request}/{w}")), payload.clone()))
                .collect();
            let start = Instant::now();
            let txid = node.start_transaction();
            node.put_all(&txid, items).expect("put_all");
            node.commit(&txid).expect("commit");
            recorder.record(start.elapsed());
        }
        let stats = recorder.stats();
        table.add_row(vec![
            "AFT Batch".into(),
            writes.to_string(),
            ms(stats.median_ms()),
            ms(stats.p99_ms()),
            requests.to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 3 + Table 2 — end-to-end latency and anomaly counts.
// ---------------------------------------------------------------------------

/// Figure 3 and Table 2: end-to-end latency of the standard 2-function,
/// 6-IO transaction over S3 / DynamoDB / Redis (Plain vs AFT vs DynamoDB
/// transaction mode), plus the anomaly counts of Table 2.
pub fn fig3_and_table2(env: &BenchEnv) -> (Table, Table) {
    let clients = env.sized(10, 4);
    let requests = env.sized(env.requests_per_client, 25);
    let workload = WorkloadConfig::standard();

    let mut latency = Table::new(
        "Figure 3 — end-to-end latency, 2-function / 6-IO transactions",
        &[
            "configuration",
            "backend",
            "median (ms)",
            "p99 (ms)",
            "requests",
        ],
    );
    let mut anomalies = Table::new(
        "Table 2 — consistency anomalies",
        &[
            "configuration",
            "consistency level",
            "RYW anomalies",
            "FR anomalies",
            "transactions",
        ],
    );

    let run = |driver: &dyn RequestDriver, seed: u64| -> RunResult {
        run_closed_loop(
            driver,
            &RunConfig::new(workload.clone())
                .with_clients(clients)
                .with_requests(requests)
                .with_seed(seed),
        )
        .expect("experiment run")
    };

    // Plain baselines over each backend.
    for (kind, consistency) in [
        (BackendKind::S3, "None"),
        (BackendKind::DynamoDb, "None"),
        (BackendKind::Redis, "Shard Linearizable"),
    ] {
        let driver = env.plain_driver(kind, 0xF3_10 + kind.label().len() as u64);
        let result = run(&driver, 0xF3_11);
        latency_row(&mut latency, "Plain", kind.label(), &result);
        anomalies.add_row(vec![
            format!("{} (Plain)", kind.label()),
            consistency.into(),
            result.anomalies.ryw_transactions.to_string(),
            result.anomalies.fr_transactions.to_string(),
            result.anomalies.total_transactions.to_string(),
        ]);
    }

    // AFT over each backend.
    for kind in BackendKind::EVALUATED {
        let driver = env.aft_driver(kind, true, 0xF3_20 + kind.label().len() as u64);
        let result = run(&driver, 0xF3_21);
        latency_row(&mut latency, "AFT", kind.label(), &result);
        if kind == BackendKind::DynamoDb {
            anomalies.add_row(vec![
                "AFT".into(),
                "Read Atomic".into(),
                result.anomalies.ryw_transactions.to_string(),
                result.anomalies.fr_transactions.to_string(),
                result.anomalies.total_transactions.to_string(),
            ]);
        }
    }

    // DynamoDB transaction mode.
    let driver = env.dynamo_txn_driver(0xF3_30);
    let result = run(&driver, 0xF3_31);
    latency_row(&mut latency, "Transactional", "DynamoDB", &result);
    anomalies.add_row(vec![
        "DynamoDB (Serializable)".into(),
        "Serializable".into(),
        result.anomalies.ryw_transactions.to_string(),
        result.anomalies.fr_transactions.to_string(),
        result.anomalies.total_transactions.to_string(),
    ]);

    (latency, anomalies)
}

// ---------------------------------------------------------------------------
// Figure 4 — read caching and data skew.
// ---------------------------------------------------------------------------

/// Figure 4: AFT over DynamoDB and Redis with and without the data cache,
/// plus DynamoDB transaction mode, across Zipf coefficients 1.0 / 1.5 / 2.0.
pub fn fig4_caching_skew(env: &BenchEnv) -> Table {
    let mut table = Table::new(
        "Figure 4 — read caching and data skew",
        &[
            "configuration",
            "zipf",
            "median (ms)",
            "p99 (ms)",
            "cache hit rate",
        ],
    );
    let clients = env.sized(10, 4);
    let requests = env.sized(env.requests_per_client, 20);
    // The paper uses a 100,000-key space; we default to 50,000 to keep the
    // preload fast and memory modest (see EXPERIMENTS.md).
    let keys = env.sized(50_000, 2_000);

    for zipf in [1.0, 1.5, 2.0] {
        let workload = WorkloadConfig::caching_skew(zipf).with_keys(keys);
        let run = |driver: &dyn RequestDriver| -> RunResult {
            run_closed_loop(
                driver,
                &RunConfig::new(workload.clone())
                    .with_clients(clients)
                    .with_requests(requests)
                    .with_seed(0xF4_01),
            )
            .expect("experiment run")
        };

        let driver = env.dynamo_txn_driver(0xF4_10);
        let result = run(&driver);
        table.add_row(vec![
            "DynamoDB Txns".into(),
            format!("{zipf:.1}"),
            ms(result.latency.median_ms()),
            ms(result.latency.p99_ms()),
            "-".into(),
        ]);

        for kind in [BackendKind::DynamoDb, BackendKind::Redis] {
            for caching in [false, true] {
                let storage = env.storage(kind, 0xF4_20);
                let node = env.node(storage, caching, 0xF4_21);
                let driver = AftDriver::single_node(Arc::clone(&node), env.platform(), env.retry())
                    .with_label(crate::setup::aft_label(kind, caching));
                let result = run(&driver);
                let hit_rate = node.stats().snapshot().cache_hit_rate();
                table.add_row(vec![
                    driver.name().to_owned(),
                    format!("{zipf:.1}"),
                    ms(result.latency.median_ms()),
                    ms(result.latency.p99_ms()),
                    format!("{:.0}%", hit_rate * 100.0),
                ]);
            }
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 5 — read/write ratios.
// ---------------------------------------------------------------------------

/// Figure 5: latency of 10-IO transactions as the fraction of reads sweeps
/// from 0% to 100%, for AFT over DynamoDB and Redis.
pub fn fig5_rw_ratio(env: &BenchEnv) -> Table {
    let mut table = Table::new(
        "Figure 5 — read/write ratio (10 IOs per transaction)",
        &[
            "configuration",
            "% reads",
            "median (ms)",
            "p99 (ms)",
            "storage API calls/txn",
        ],
    );
    let clients = env.sized(10, 4);
    let requests = env.sized(env.requests_per_client, 20);

    for kind in [BackendKind::DynamoDb, BackendKind::Redis] {
        for pct in [0u32, 20, 40, 60, 80, 100] {
            let workload = WorkloadConfig::read_write_ratio(pct);
            let storage = env.storage(kind, 0xF5_01 + pct as u64);
            let node = env.node(storage.clone(), true, 0xF5_02);
            let driver = AftDriver::single_node(node, env.platform(), env.retry())
                .with_label(crate::setup::aft_label(kind, true));
            let before = storage.stats().snapshot();
            let result = run_closed_loop(
                &driver,
                &RunConfig::new(workload)
                    .with_clients(clients)
                    .with_requests(requests)
                    .with_seed(0xF5_03),
            )
            .expect("experiment run");
            let delta = storage.stats().snapshot().delta_since(&before);
            let calls_per_txn = if result.completed == 0 {
                0.0
            } else {
                delta.total_calls() as f64 / result.completed as f64
            };
            table.add_row(vec![
                driver.name().to_owned(),
                format!("{pct}%"),
                ms(result.latency.median_ms()),
                ms(result.latency.p99_ms()),
                format!("{calls_per_txn:.1}"),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 6 — transaction length.
// ---------------------------------------------------------------------------

/// Figure 6: latency as the composition length grows from 1 to 10 functions
/// (3 IOs per function), for AFT over DynamoDB and Redis.
pub fn fig6_txn_length(env: &BenchEnv) -> Table {
    let mut table = Table::new(
        "Figure 6 — transaction length (functions per request)",
        &["configuration", "functions", "median (ms)", "p99 (ms)"],
    );
    let clients = env.sized(10, 4);
    let requests = env.sized(env.requests_per_client / 2, 10).max(5);
    let lengths = [1usize, 2, 4, 6, 8, 10];

    for kind in [BackendKind::DynamoDb, BackendKind::Redis] {
        for &functions in &lengths {
            let workload = WorkloadConfig::transaction_length(functions);
            let driver = env.aft_driver(kind, true, 0xF6_01 + functions as u64);
            let result = run_closed_loop(
                &driver,
                &RunConfig::new(workload)
                    .with_clients(clients)
                    .with_requests(requests)
                    .with_seed(0xF6_02),
            )
            .expect("experiment run");
            table.add_row(vec![
                driver.name().to_owned(),
                functions.to_string(),
                ms(result.latency.median_ms()),
                ms(result.latency.p99_ms()),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 7 — single-node scalability.
// ---------------------------------------------------------------------------

/// Figure 7: throughput of a single AFT node as the number of closed-loop
/// clients grows, over DynamoDB and Redis (Zipf 1.5).
pub fn fig7_single_node(env: &BenchEnv) -> Table {
    let mut table = Table::new(
        "Figure 7 — single-node throughput vs clients (Zipf 1.5)",
        &[
            "configuration",
            "clients",
            "throughput (txn/s)",
            "median (ms)",
        ],
    );
    let client_counts: Vec<usize> = if env.fast {
        vec![1, 4, 8]
    } else {
        vec![1, 5, 10, 20, 30, 40, 45, 50]
    };
    let requests = env.sized(60, 15);
    let workload = WorkloadConfig::standard().with_zipf(1.5);

    for kind in [BackendKind::DynamoDb, BackendKind::Redis] {
        for &clients in &client_counts {
            let driver = env.aft_driver(kind, true, 0xF7_01 + clients as u64);
            let result = run_closed_loop(
                &driver,
                &RunConfig::new(workload.clone())
                    .with_clients(clients)
                    .with_requests(requests)
                    .with_seed(0xF7_02),
            )
            .expect("experiment run");
            table.add_row(vec![
                driver.name().to_owned(),
                clients.to_string(),
                format!("{:.0}", result.throughput_tps()),
                ms(result.latency.median_ms()),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 8 — distributed scalability.
// ---------------------------------------------------------------------------

/// Figure 8: multi-node throughput (40 clients per node) against the ideal
/// linear-scaling line, over DynamoDB and Redis.
pub fn fig8_distributed(env: &BenchEnv) -> Table {
    let mut table = Table::new(
        "Figure 8 — distributed throughput vs clients (40 clients/node)",
        &[
            "configuration",
            "nodes",
            "clients",
            "throughput (txn/s)",
            "ideal (txn/s)",
            "% of ideal",
        ],
    );
    let clients_per_node = env.sized(40, 8);
    let node_counts: Vec<usize> = if env.fast {
        vec![1, 2]
    } else {
        vec![1, 2, 4, 8]
    };
    let requests = env.sized(40, 10);
    let workload = WorkloadConfig::standard().with_zipf(1.5);

    // In-process by default; AFT_CLIENT_MODE=net runs the same sweep
    // through the aft-net service layer over loopback sockets.
    let mode = ClientMode::from_env();
    for kind in [BackendKind::DynamoDb, BackendKind::Redis] {
        let mut single_node_tps = 0.0f64;
        for &nodes in &node_counts {
            let storage = env.storage(kind, 0xF8_01 + nodes as u64);
            let cluster = env.cluster(storage, nodes, true);
            cluster.start_background();
            let (driver, service) = env.cluster_driver(&cluster, mode, &ServeOptions::default());
            let driver = match mode {
                ClientMode::InProcess => driver.with_label(format!("AFT ({})", kind.label())),
                ClientMode::Networked => {
                    driver.with_label(format!("AFT ({}, networked)", kind.label()))
                }
            };
            let result = run_closed_loop(
                &driver,
                &RunConfig::new(workload.clone())
                    .with_clients(clients_per_node * nodes)
                    .with_requests(requests)
                    .with_seed(0xF8_02),
            )
            .expect("experiment run");
            drop(service);
            cluster.shutdown();

            let tps = result.throughput_tps();
            if nodes == node_counts[0] {
                single_node_tps = tps / node_counts[0] as f64;
            }
            let ideal = single_node_tps * nodes as f64;
            let pct = if ideal > 0.0 {
                100.0 * tps / ideal
            } else {
                100.0
            };
            table.add_row(vec![
                driver.name().to_owned(),
                nodes.to_string(),
                (clients_per_node * nodes).to_string(),
                format!("{tps:.0}"),
                format!("{ideal:.0}"),
                format!("{pct:.0}%"),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 9 — garbage collection overhead.
// ---------------------------------------------------------------------------

/// Figure 9: throughput with and without global garbage collection, and the
/// rate at which superseded transactions are deleted.
pub fn fig9_gc(env: &BenchEnv) -> Table {
    let mut table = Table::new(
        "Figure 9 — garbage collection overhead (Zipf 1.5, 1 node, 40 clients)",
        &[
            "configuration",
            "throughput (txn/s)",
            "transactions committed",
            "transactions deleted",
            "deleted/s",
            "live data versions",
        ],
    );
    let clients = env.sized(40, 8);
    let duration = env.timed(Duration::from_secs(10), Duration::from_secs(2));
    let workload = WorkloadConfig::standard().with_zipf(1.5);

    for gc_enabled in [true, false] {
        let storage = env.storage(BackendKind::DynamoDb, 0xF9_01 + gc_enabled as u64);
        let mut cluster_config = aft_cluster::ClusterConfig {
            initial_nodes: 1,
            node_template: env.node_template(true),
            dissemination: DisseminationConfig::all_to_all()
                .with_interval(Duration::from_millis(200)),
            local_gc: LocalGcConfig::default(),
            local_gc_enabled: gc_enabled,
            global_gc_enabled: gc_enabled,
            replacement_delay: Duration::ZERO,
            ..aft_cluster::ClusterConfig::default()
        };
        cluster_config.global_gc = aft_cluster::GlobalGcConfig::default();
        let cluster = Cluster::new(cluster_config, storage.clone()).expect("cluster");
        cluster.start_background();
        let driver = AftDriver::clustered(Arc::clone(&cluster), env.platform(), env.retry())
            .with_label(if gc_enabled {
                "GC enabled"
            } else {
                "GC disabled"
            });

        let result = run_closed_loop(
            &driver,
            &RunConfig::new(workload.clone())
                .with_clients(clients)
                .with_requests(0)
                .with_duration(duration)
                .with_seed(0xF9_02),
        )
        .expect("experiment run");
        // Give the background GC a final chance to catch up, then stop it.
        let _ = cluster.run_maintenance_round();
        cluster.shutdown();

        let deleted = cluster.total_gc_deleted();
        let live_versions = storage.list_prefix("data/").map(|k| k.len()).unwrap_or(0);
        table.add_row(vec![
            driver.name().to_owned(),
            format!("{:.0}", result.throughput_tps()),
            result.completed.to_string(),
            deleted.to_string(),
            format!("{:.0}", deleted as f64 / result.elapsed.as_secs_f64()),
            live_versions.to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 10 — fault tolerance.
// ---------------------------------------------------------------------------

/// Figure 10: throughput timeline of a 4-node cluster across a node failure
/// and the replacement node joining.
pub fn fig10_fault_tolerance(env: &BenchEnv) -> Table {
    let mut table = Table::new(
        "Figure 10 — throughput across a node failure (4 nodes)",
        &["time (s)", "throughput (txn/s)", "active nodes", "event"],
    );

    let clients = env.sized(100, 16);
    let total = env.timed(Duration::from_secs(18), Duration::from_secs(6));
    let kill_after = total / 3;
    let replacement_delay = total / 6;
    let bucket = Duration::from_secs(1);

    let storage = env.storage(BackendKind::DynamoDb, 0xFA_01);
    let cluster_config = aft_cluster::ClusterConfig {
        initial_nodes: 4,
        node_template: env.node_template(true),
        dissemination: DisseminationConfig::all_to_all().with_interval(Duration::from_millis(200)),
        fault_scan_interval: Duration::from_millis(250),
        replacement_delay,
        ..aft_cluster::ClusterConfig::default()
    };
    let cluster = Cluster::new(cluster_config, storage).expect("cluster");
    cluster.start_background();

    // A side thread kills one node part-way through the run; the cluster's
    // fault-detection thread notices and brings up a replacement after the
    // configured delay (container download + cache warm-up).
    let cluster_for_killer = Arc::clone(&cluster);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(kill_after);
        cluster_for_killer.kill_node("aft-node-1");
    });

    let driver = AftDriver::clustered(Arc::clone(&cluster), env.platform(), env.retry());
    let result = run_closed_loop(
        &driver,
        &RunConfig::new(WorkloadConfig::standard().with_zipf(1.0))
            .with_clients(clients)
            .with_requests(0)
            .with_duration(total)
            .with_seed(0xFA_02),
    )
    .expect("experiment run");
    killer.join().expect("killer thread");
    cluster.shutdown();

    let kill_second = kill_after.as_secs_f64();
    let rejoin_second = kill_second + replacement_delay.as_secs_f64();
    for (second, tps) in result.timeline.series() {
        let event = if (second - kill_second).abs() < bucket.as_secs_f64() / 2.0 {
            "node killed"
        } else if (second - rejoin_second).abs() < bucket.as_secs_f64() {
            "replacement joins"
        } else {
            ""
        };
        let active = if second < kill_second || second >= rejoin_second {
            4
        } else {
            3
        };
        table.add_row(vec![
            format!("{second:.0}"),
            format!("{tps:.0}"),
            active.to_string(),
            event.into(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    // The experiment functions are exercised end-to-end (at tiny sizes and
    // zero latency) so that `cargo test` covers every figure's code path.

    #[test]
    fn fig2_produces_all_twelve_rows() {
        let table = fig2_io_latency(&BenchEnv::test());
        assert_eq!(table.len(), 12, "4 configurations x 3 write counts");
    }

    #[test]
    fn fig3_and_table2_cover_every_configuration() {
        let (latency, anomalies) = fig3_and_table2(&BenchEnv::test());
        assert_eq!(latency.len(), 7, "3 plain + 3 aft + 1 transactional");
        assert_eq!(anomalies.len(), 5, "the five rows of Table 2");
        // The AFT row of Table 2 must report zero anomalies.
        let rendered = anomalies.render();
        let aft_line = rendered
            .lines()
            .find(|l| l.starts_with("AFT"))
            .expect("AFT row present");
        let cells: Vec<&str> = aft_line.split_whitespace().collect();
        assert!(
            cells.contains(&"0"),
            "AFT row shows zero anomalies: {aft_line}"
        );
    }

    #[test]
    fn fig5_reports_both_backends_and_all_ratios() {
        let table = fig5_rw_ratio(&BenchEnv::test());
        assert_eq!(table.len(), 12, "2 backends x 6 ratios");
    }

    #[test]
    fn fig7_and_fig8_scale_with_clients_and_nodes() {
        let fig7 = fig7_single_node(&BenchEnv::test());
        assert_eq!(fig7.len(), 6, "2 backends x 3 client counts in fast mode");
        let fig8 = fig8_distributed(&BenchEnv::test());
        assert_eq!(fig8.len(), 4, "2 backends x 2 node counts in fast mode");
    }

    #[test]
    fn fig9_reports_gc_on_and_off() {
        let table = fig9_gc(&BenchEnv::test());
        assert_eq!(table.len(), 2);
        let rendered = table.render();
        assert!(rendered.contains("GC enabled"));
        assert!(rendered.contains("GC disabled"));
    }
}
