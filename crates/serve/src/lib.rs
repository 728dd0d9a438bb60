//! `dre-serve`: the cloud ↔ edge prior-transfer service.
//!
//! The paper's pipeline fits a Dirichlet-process mixture prior in the
//! cloud and ships it to resource-limited edge devices, which run a few
//! EM steps against local data. Up to this crate, that transfer was only
//! simulated (`dre-edgesim`) or done by passing byte vectors around in
//! process. `dre-serve` makes it a real service on `std::net` — no
//! external dependencies:
//!
//! * [`frame`] — a length-prefixed, CRC-32-checksummed wire protocol
//!   carrying the existing [`dro_edge::transfer`] payload unchanged.
//! * [`server`] — a per-core, readiness-polled TCP prior server. N
//!   event-loop workers own their accepted connections outright and
//!   multiplex thousands of keep-alive streams each over nonblocking
//!   sockets ([`dre_netpoll`]); pipelined replies coalesce into single
//!   flushes. The prior registry is published as immutable snapshots
//!   with an atomic generation: a prior hit is one atomic load, a lookup
//!   in the worker's own [`server::PriorView`], and one write of the
//!   generation-stamped pre-encoded frame — zero locks, no payload
//!   clone, no CRC recompute. Connections past the admission cap are
//!   shed with `Busy`, every connection has read and write deadlines, a
//!   panicking handler closes only its own connection, and shutdown is
//!   graceful.
//! * [`client`] — an edge client with bounded retries, deterministic
//!   exponential backoff with seeded jitter, typed errors that
//!   distinguish retryable transport trouble from fatal protocol
//!   disagreements ([`ServeError::is_retryable`]), and an opt-in
//!   keep-alive mode that reuses one live stream across requests with
//!   zero steady-state allocations.
//! * [`transport`] — the byte-pipe abstraction both sides run over,
//!   including [`transport::FaultyTransport`], a deterministic test double
//!   injecting drops, truncations, bit-flips, and delays from a seeded
//!   RNG.
//! * [`metrics`] — transfer counters (requests, bytes, retries, checksum
//!   failures, …), each declared once in one table as deterministic or
//!   timing-dependent, and a log-spaced latency histogram; kept on both
//!   ends.
//! * [`resilience`] — a step-clocked, seeded-deterministic circuit breaker
//!   and a TTL'd stale-prior cache.
//! * [`runtime`] — [`runtime::EdgeRuntime`], the fault-tolerant
//!   fetch→fit→report loop that degrades from fresh-prior DRO through
//!   stale-prior fits down to the paper's local-only ERM baseline, tagging
//!   every fit with its [`dro_edge::FitMode`].
//! * [`shard`] — the sharded prior plane: a consistent-hash ring with
//!   per-task replication routes registrations and fetches across N
//!   prior servers; clients hold an epoch-stamped [`shard::ShardMap`]
//!   and fail over to replicas (or refresh the map on a
//!   [`ServeError::Misrouted`] redirect) inside the existing retry loop.
//!
//! The frame-length helpers ([`frame::prior_request_frame_len`],
//! [`frame::prior_response_frame_len`]) are `const fn`, so the network
//! simulator charges exactly the bytes the real service would move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Serving code answers the network: no `unwrap` or `expect` outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod crc32;
pub mod error;
pub mod frame;
pub mod metrics;
pub mod resilience;
pub mod runtime;
pub mod server;
pub mod shard;
pub mod transport;

pub use client::{PriorClient, RetryPolicy};
pub use crc32::{crc32, Crc32};
pub use error::{Result, ServeError};
pub use frame::{
    busy_frame_len, health_frame_len, health_report_frame_len, model_report_frame_len,
    ping_frame_len, prior_request_frame_len, prior_response_frame_len, report_ack_frame_len,
    shard_map_request_frame_len, shard_map_response_frame_len, ErrorCode, HealthStatus, Message,
    MessageRef, ParamsRef, ShardMapWire, FRAME_OVERHEAD, FRAME_VERSION, MAX_FRAME_LEN,
    SHARD_ADDR_WIRE_LEN,
};
pub use metrics::{LatencyHistogram, MetricsSnapshot, ServeMetrics, LATENCY_BUCKETS};
pub use resilience::{
    BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker, StalePriorCache,
};
pub use runtime::{EdgeRuntime, EdgeRuntimeConfig, RuntimeCounters, RuntimeFit};
pub use server::{
    PriorEntry, PriorServer, PriorView, ReportedModel, ResponseBytes, ServeConfig, ServerHandle,
    ServerState, ShardRoute, BUSY_RETRY_AFTER, DEFAULT_REPORT_INBOX_CAP, MAX_ERROR_DETAIL_BYTES,
    REPORT_DEVICE_CAP,
};
pub use shard::{
    stable_shard_hash, HashRing, ShardConnector, ShardDirectory, ShardMap, ShardPlaneConfig,
    ShardedPriorPlane,
};
pub use transport::{
    read_step, write_step, Connector, FaultConfig, FaultCounts, FaultInjector, FaultyConnector,
    FaultyTransport, IoStep, Responder, TcpConnector, TcpTransport, Transport,
};
