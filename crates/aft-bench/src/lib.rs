//! The benchmark harness for the AFT reproduction.
//!
//! Every table and figure in the paper's evaluation (§6), and every tracked
//! experiment beyond it, is one entry of [`runner::EXPERIMENTS`], run by
//! name through the single `aft-bench` binary:
//!
//! ```text
//! cargo run --release -p aft-bench -- fig2_io_latency fig9_gc
//! AFT_BENCH_FAST=1 cargo run --release -p aft-bench -- all
//! ```
//!
//! The experiments with a `BENCH_*.json` report also carry a gate; the
//! runner exits non-zero when one fails and prints the command that replays
//! it with the same seed and inputs.
//! `benches/micro_protocols.rs` is the one Criterion bench: the protocol
//! building blocks (Algorithm 1 and 2, the record codec, a local commit).
//!
//! The paper's figures run against the simulated substrates with latencies
//! scaled down by a single global factor (`AFT_BENCH_SCALE`, default 0.1).
//! Scaling every service identically preserves the ratios, crossovers, and
//! winners — the properties the reproduction compares with the paper —
//! while letting the whole suite finish quickly.
//!
//! Environment knobs (all optional):
//!
//! * `AFT_BENCH_SCALE` — latency scale factor (default `0.1`).
//! * `AFT_BENCH_REQUESTS` — requests per client for latency experiments
//!   (default 200).
//! * `AFT_BENCH_FAST` — if set, shrinks every experiment (fewer requests,
//!   fewer clients, shorter timelines) for smoke-testing and CI.
//! * `AFT_SERVICE_CONNS` — `fig8_service`'s resident-connection counts
//!   (comma-separated).

pub mod checkpoint;
pub mod dissemination;
pub mod experiments;
pub mod json;
pub mod overload;
pub mod pipelined;
pub mod recovery;
pub mod report;
pub mod runner;
pub mod scaling;
pub mod service;
pub mod setup;
pub mod summary;

pub use checkpoint::{fig13_checkpoint, CheckpointBenchConfig, CheckpointReport};
pub use dissemination::{fig12_dissemination, DisseminationBenchConfig, DisseminationReport};
pub use json::Json;
pub use overload::{fig11_overload, OverloadConfig, OverloadReport};
pub use pipelined::{fig2_pipelined, PipelineConfig, PipelineReport};
pub use recovery::{fig10_recovery, FaultMode, RecoveryConfig, RecoveryReport};
pub use report::Table;
pub use scaling::{fig7_throughput_scaling, ScalingConfig, ThroughputReport};
pub use service::{fig8_service, ServiceConfig, ServiceReport};
pub use setup::BenchEnv;
pub use summary::aggregate_bench_reports;
