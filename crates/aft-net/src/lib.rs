//! The AFT service layer: AFT as a real networked system.
//!
//! The paper positions AFT as a shim *service* interposed between a FaaS
//! platform and storage, fronting many concurrent clients (§2, §6's 40
//! clients per node) — but everything below this crate is a library: callers
//! hold an `AftNode` in-process. `aft-net` adds the missing boundary:
//!
//! * [`frame`] — length-prefixed framing over any `Read`/`Write` stream,
//!   with a hard size cap so hostile lengths cannot OOM either peer.
//! * [`server`] — [`server::AftServer`]: a `std::net` TCP listener fronting
//!   an `aft-cluster` [`Cluster`](aft_cluster::Cluster). A single
//!   readiness-driven event-loop thread (see [`event_loop`]) owns
//!   every socket — nonblocking reads through incremental frame decoders,
//!   vectored batched writes — and demultiplexes pipelined requests into a
//!   sized worker pool, so connections scale to thousands while thread
//!   count stays O(workers). Responses carry the client's request id and
//!   may complete out of order. `Commit` is deduplicated on the transaction
//!   UUID, which closes §4.2's lost-acknowledgement window *end to end*: a
//!   client that resends a commit whose ack died with the connection gets
//!   the original outcome, never a second apply.
//! * [`client`] — [`client::AftClient`]: the SDK. A connection pool with
//!   per-connection pipelining, a client-side Atomic Write Buffer (writes
//!   ship inside `Commit`, making it idempotently resendable), and
//!   retry-with-backoff reconnects mirroring the storage I/O engine's
//!   `RetryConfig` semantics. Implements
//!   [`AftApi`](aft_core::api::AftApi), so every workload driver runs
//!   unchanged against a socket.
//! * [`chaos`] — [`chaos::ConnChaos`]: seeded connection-fault injection
//!   (resets before/after send, delayed acks) driven by the net layer of a
//!   unified [`aft_chaos::ChaosSpec`] schedule, so network faults are
//!   deterministic, replayable, and composable with the storage and
//!   platform layers under one seed.
//! * [`stats`] — server/connection counters in the `NodeStats` style,
//!   snapshotted over the wire via the `Stats` verb.

mod buffer;
pub mod chaos;
pub mod client;
pub mod event_loop;
pub mod frame;
pub mod server;
pub mod stats;

pub use chaos::{ConnChaos, NetChaosStats, NetFault};
pub use client::{AftClient, ClientBuilder, ClientConfig, ClientStatsSnapshot};
pub use event_loop::EventSnapshot;
pub use server::{AftServer, ResponseFilter, ServerBuilder, ServerConfig};
pub use stats::ServiceStats;
