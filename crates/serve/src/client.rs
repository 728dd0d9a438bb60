//! The edge-side client: bounded retries with deterministic backoff.
//!
//! By default every request opens a fresh connection through a
//! [`Connector`], so a retry never reuses a stream that just failed
//! mid-frame. In keep-alive mode ([`PriorClient::keep_alive`]) the client
//! holds one live stream and reuses it across requests; a stream is only
//! kept after a cleanly framed reply, so a reuse that fails mid-frame
//! simply costs one retry attempt and falls back to a fresh connect —
//! reconnection is folded into the existing retry taxonomy, not a new
//! failure mode. Reusable read/write scratch buffers make the steady-state
//! keep-alive request allocation-free. Only errors the taxonomy marks
//! retryable ([`ServeError::is_retryable`]) consume retry budget; fatal
//! errors surface immediately. Backoff is exponential with seeded jitter —
//! two clients built with the same seed sleep the same schedule, which
//! keeps the fault-injection tests reproducible.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dre_bayes::MixturePrior;

use crate::frame::{
    self, ErrorCode, HealthStatus, Message, MessageRef, ShardMapWire, DEFAULT_MAX_FRAME_LEN,
};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::transport::{Connector, Transport};
use crate::{Result, ServeError};

/// Bounded-retry policy with deterministic exponential backoff.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (must be ≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each further attempt.
    pub base_backoff: Duration,
    /// Cap on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the jitter stream (same seed, same sleeps).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Sleep before attempt number `attempt` (2-based: the first retry):
    /// `base · 2^(attempt-2)` capped at `max_backoff`, plus up to one
    /// extra `base` of seeded jitter.
    pub fn backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let doublings = attempt.saturating_sub(2).min(20);
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << doublings)
            .min(self.max_backoff);
        let jitter = self.base_backoff.mul_f64(rng.gen_range(0.0..1.0));
        exp + jitter
    }
}

/// Edge-side client for the prior-transfer protocol, generic over how
/// connections are made (real TCP or the faulty test transport).
pub struct PriorClient<C: Connector> {
    connector: C,
    policy: RetryPolicy,
    jitter: StdRng,
    max_frame_len: usize,
    metrics: ServeMetrics,
    keep_alive: bool,
    /// The live stream in keep-alive mode; `None` after any failure, so
    /// the next attempt reconnects fresh.
    stream: Option<C::Transport>,
    /// Reusable request-encode buffer.
    write_buf: Vec<u8>,
    /// Reusable reply-body buffer.
    read_buf: Vec<u8>,
}

impl<C: Connector> PriorClient<C> {
    /// A client over `connector` with the given retry policy (fresh
    /// connection per attempt; see [`PriorClient::keep_alive`]).
    pub fn new(connector: C, policy: RetryPolicy) -> Self {
        let jitter = StdRng::seed_from_u64(policy.jitter_seed);
        PriorClient {
            connector,
            policy,
            jitter,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            metrics: ServeMetrics::new(),
            keep_alive: false,
            stream: None,
            write_buf: Vec::new(),
            read_buf: Vec::new(),
        }
    }

    /// Enables (or disables) keep-alive mode: the client holds one live
    /// stream and reuses it across requests, reconnecting transparently —
    /// at the cost of one retry attempt — when a reuse fails (server
    /// restart, per-connection request cap, dropped link). Reused requests
    /// are counted in [`ServeMetrics::reused_connections`].
    pub fn keep_alive(mut self, enabled: bool) -> Self {
        self.keep_alive = enabled;
        if !enabled {
            self.stream = None;
        }
        self
    }

    /// Whether a live keep-alive stream is currently held.
    pub fn has_live_stream(&self) -> bool {
        self.stream.is_some()
    }

    /// Drops the held keep-alive stream (if any); the next request
    /// reconnects fresh.
    pub fn close(&mut self) {
        self.stream = None;
    }

    /// The connector, for inspection (e.g. fault counters in tests).
    pub fn connector(&self) -> &C {
        &self.connector
    }

    /// Point-in-time client metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Liveness probe: sends `Ping`, expects `Ping` back.
    pub fn ping(&mut self) -> Result<()> {
        self.exchange(&Message::Ping, None).map(drop)
    }

    /// Fetches the server's load and resilience gauges.
    pub fn health(&mut self) -> Result<HealthStatus> {
        match self.exchange(&Message::Health, None)? {
            Message::HealthReport(status) => Ok(status),
            other => Err(ServeError::UnexpectedMessage {
                got: other.kind_name(),
                expected: "HealthReport",
            }),
        }
    }

    /// Fetches the raw transfer payload registered for `task_id`.
    pub fn fetch_prior_payload(&mut self, task_id: u64) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.fetch_prior_payload_into(task_id, &mut out)?;
        Ok(out)
    }

    /// Fetches the raw transfer payload registered for `task_id` into a
    /// caller-owned buffer (cleared first). With keep-alive on and a
    /// reused `out`, the steady-state fetch makes zero heap allocations:
    /// the request encodes into a scratch buffer, the reply body lands in
    /// another, and the payload is copied straight into `out`.
    pub fn fetch_prior_payload_into(&mut self, task_id: u64, out: &mut Vec<u8>) -> Result<()> {
        match self.exchange(&Message::PriorRequest { task_id }, Some(out))? {
            Message::PriorResponse { .. } => Ok(()),
            other => Err(ServeError::UnexpectedMessage {
                got: other.kind_name(),
                expected: "PriorResponse",
            }),
        }
    }

    /// Fetches and decodes the prior registered for `task_id`.
    pub fn fetch_prior(&mut self, task_id: u64) -> Result<MixturePrior> {
        let payload = self.fetch_prior_payload(task_id)?;
        dro_edge::transfer::deserialize_prior(&payload).map_err(ServeError::Payload)
    }

    /// Reports a locally fitted packed model under this device's identity
    /// and monotone sequence number; the server acknowledges with a
    /// [`Message::ReportAck`]. Returns whether the report was accepted
    /// into the inbox — `Ok(false)` means the server dropped it before
    /// the inbox (replay, rate cap, or overflow shed), which is counted
    /// in [`ServeMetrics::reports_rejected`] but is *not* an error: the
    /// report leg stayed healthy, the payload just didn't land.
    pub fn report_model(
        &mut self,
        task_id: u64,
        device_id: u64,
        seq: u64,
        params: Vec<f64>,
    ) -> Result<bool> {
        let request = Message::ModelReport {
            task_id,
            device_id,
            seq,
            params,
        };
        match self.exchange(&request, None)? {
            Message::ReportAck { accepted } => {
                if !accepted {
                    self.metrics
                        .reports_rejected
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                Ok(accepted)
            }
            other => Err(ServeError::UnexpectedMessage {
                got: other.kind_name(),
                expected: "ReportAck",
            }),
        }
    }

    /// Fetches the epoch-stamped shard map from the connected server —
    /// only shards that are part of a [`crate::shard::ShardedPriorPlane`]
    /// answer this.
    pub fn fetch_shard_map(&mut self) -> Result<ShardMapWire> {
        match self.exchange(&Message::ShardMapRequest, None)? {
            Message::ShardMapResponse { map } => Ok(map),
            other => Err(ServeError::UnexpectedMessage {
                got: other.kind_name(),
                expected: "ShardMapResponse",
            }),
        }
    }

    /// One request/response exchange under the retry policy. A protocol
    /// `Error` reply is surfaced as [`ServeError::Remote`] (fatal); a
    /// `Busy` reply is retryable, and its retry-after hint (capped at the
    /// policy's `max_backoff`) raises the next sleep when it exceeds the
    /// scheduled backoff.
    fn exchange(
        &mut self,
        request: &Message,
        mut prior_out: Option<&mut Vec<u8>>,
    ) -> Result<Message> {
        self.metrics
            .requests
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let started = Instant::now();
        let attempts = self.policy.max_attempts.max(1);
        let mut attempt = 1;
        loop {
            let e = match self.attempt(request, prior_out.as_deref_mut()) {
                Ok(reply) => {
                    self.metrics
                        .responses_ok
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    self.metrics.latency.record(started.elapsed());
                    return Ok(reply);
                }
                Err(e) => e,
            };
            if matches!(e, ServeError::ChecksumMismatch { .. }) {
                self.metrics
                    .checksum_failures
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            if !e.is_retryable() {
                self.metrics
                    .errors
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return Err(e);
            }
            // A misroute redirect arrived on an intact stream, but
            // retrying it against the same shard would redirect forever —
            // drop the stream so the connector re-routes.
            if matches!(e, ServeError::Misrouted { .. }) {
                self.stream = None;
            }
            self.connector.note_retryable_error(&e);
            if attempt == attempts {
                self.metrics
                    .errors
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return Err(ServeError::RetriesExhausted {
                    attempts,
                    last: Box::new(e),
                });
            }
            attempt += 1;
            self.metrics
                .retries
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let hint = e
                .retry_after()
                .unwrap_or(Duration::ZERO)
                .min(self.policy.max_backoff);
            std::thread::sleep(self.policy.backoff(attempt, &mut self.jitter).max(hint));
        }
    }

    /// One attempt: one frame out, one frame in — over the held keep-alive
    /// stream when there is one, otherwise over a fresh connection. The
    /// stream is put back only after a cleanly framed reply; any mid-frame
    /// failure drops it, so the next attempt reconnects. With
    /// `prior_out`, a `PriorResponse` payload is copied straight into the
    /// caller's buffer instead of allocating.
    fn attempt(&mut self, request: &Message, prior_out: Option<&mut Vec<u8>>) -> Result<Message> {
        let mut transport = match self.stream.take() {
            Some(t) => {
                self.metrics
                    .reused_connections
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                t
            }
            None => {
                let t = self.connector.connect()?;
                self.metrics
                    .connections
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                t
            }
        };
        frame::encode_into(request, &mut self.write_buf);
        transport.send(&self.write_buf)?;
        self.metrics.bytes_out.fetch_add(
            self.write_buf.len() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        let received =
            frame::read_frame_into(&mut transport, self.max_frame_len, &mut self.read_buf)?;
        self.metrics
            .bytes_in
            .fetch_add(received as u64, std::sync::atomic::Ordering::Relaxed);
        // A complete frame came back, so the stream's framing is intact —
        // it is safe to reuse even if the body below fails to parse.
        if self.keep_alive {
            self.stream = Some(transport);
        }
        match frame::decode_ref(&self.read_buf)? {
            // A misroute is a redirect, not a failure: retryable, so the
            // routing connector gets a chance to re-aim the next attempt.
            MessageRef::Error {
                code: ErrorCode::Misrouted,
                detail,
            } => Err(ServeError::Misrouted {
                task_id: match request {
                    Message::PriorRequest { task_id } => *task_id,
                    _ => 0,
                },
                detail: detail.to_string(),
            }),
            MessageRef::Error { code, detail } => Err(ServeError::Remote {
                code,
                detail: detail.to_string(),
            }),
            MessageRef::Busy { retry_after_ms } => {
                self.metrics
                    .busy
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Err(ServeError::Busy {
                    retry_after: Duration::from_millis(retry_after_ms as u64),
                })
            }
            MessageRef::PriorResponse { payload } => match prior_out {
                Some(out) => {
                    out.clear();
                    out.extend_from_slice(payload);
                    // The payload lives in the caller's buffer; the empty
                    // placeholder allocates nothing.
                    Ok(Message::PriorResponse {
                        payload: Vec::new(),
                    })
                }
                None => Ok(Message::PriorResponse {
                    payload: payload.to_vec(),
                }),
            },
            other => Ok(other.to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{InMemoryServer, ServerState};
    use crate::transport::{FaultConfig, FaultInjector, FaultyConnector};
    use std::sync::Arc;

    fn faulty_client(
        state: Arc<ServerState>,
        config: FaultConfig,
        seed: u64,
        policy: RetryPolicy,
    ) -> PriorClient<FaultyConnector<InMemoryServer>> {
        let responder = InMemoryServer::with_state(state);
        let injector = FaultInjector::new(seed, config);
        PriorClient::new(FaultyConnector::new(responder, injector), policy)
    }

    #[test]
    fn clean_link_needs_one_attempt() {
        let state = Arc::new(ServerState::new());
        state.register_payload(3, vec![0xAA; 16]);
        let mut client = faulty_client(
            Arc::clone(&state),
            FaultConfig::default(),
            0,
            RetryPolicy::default(),
        );
        client.ping().unwrap();
        assert_eq!(client.fetch_prior_payload(3).unwrap(), vec![0xAA; 16]);
        assert!(client.report_model(3, 1, 1, vec![1.0, 2.0]).unwrap());
        let m = client.metrics();
        assert_eq!(m.requests, 3);
        assert_eq!(m.responses_ok, 3);
        assert_eq!(m.retries, 0);
        assert_eq!(m.errors, 0);
        assert_eq!(m.reports_rejected, 0);
        assert_eq!(state.take_reports().len(), 1);

        // A replayed sequence number comes back rejected — visible to the
        // device, still not an error.
        assert!(!client.report_model(3, 1, 1, vec![1.0, 2.0]).unwrap());
        let m = client.metrics();
        assert_eq!(m.errors, 0);
        assert_eq!(m.reports_rejected, 1);
    }

    #[test]
    fn unknown_task_is_fatal_not_retried() {
        let state = Arc::new(ServerState::new());
        let mut client = faulty_client(state, FaultConfig::default(), 0, RetryPolicy::default());
        let err = client.fetch_prior_payload(404).unwrap_err();
        assert!(matches!(err, ServeError::Remote { .. }));
        let m = client.metrics();
        assert_eq!(m.retries, 0, "Remote errors must not consume retries");
        assert_eq!(m.errors, 1);
    }

    #[test]
    fn retry_budget_exhaustion_wraps_the_last_error() {
        let state = Arc::new(ServerState::new());
        state.register_payload(1, vec![1]);
        let config = FaultConfig {
            drop_prob: 1.0,
            ..FaultConfig::default()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(50),
            ..RetryPolicy::default()
        };
        let mut client = faulty_client(state, config, 0, policy);
        let err = client.fetch_prior_payload(1).unwrap_err();
        match err {
            ServeError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, ServeError::InjectedFault { .. }));
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        assert_eq!(client.metrics().retries, 2);
    }

    #[test]
    fn keep_alive_reuses_one_stream_and_allocates_nothing_per_fetch() {
        let state = Arc::new(ServerState::new());
        state.register_payload(9, vec![0x5A; 64]);
        let mut client = faulty_client(
            Arc::clone(&state),
            FaultConfig::default(),
            0,
            RetryPolicy::default(),
        )
        .keep_alive(true);

        let mut out = Vec::new();
        for _ in 0..5 {
            client.fetch_prior_payload_into(9, &mut out).unwrap();
            assert_eq!(out, vec![0x5A; 64]);
        }
        assert!(client.has_live_stream());
        let m = client.metrics();
        assert_eq!(m.connections, 1, "one connect, then pure reuse");
        assert_eq!(m.reused_connections, 4);
        assert_eq!(m.requests, 5);
        assert_eq!(m.responses_ok, 5);
        // Every hit on the server came straight from the frame cache.
        let s = state.metrics();
        assert_eq!(s.prior_cache_hits, 5);
        assert_eq!(s.prior_cache_builds, 1);

        // close() drops the stream; the next request reconnects.
        client.close();
        assert!(!client.has_live_stream());
        client.fetch_prior_payload_into(9, &mut out).unwrap();
        assert_eq!(client.metrics().connections, 2);
    }

    #[test]
    fn failed_reuse_costs_one_retry_and_reconnects_fresh() {
        let state = Arc::new(ServerState::new());
        state.register_payload(1, vec![7; 8]);
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_micros(50),
            ..RetryPolicy::default()
        };
        let mut client =
            faulty_client(Arc::clone(&state), FaultConfig::default(), 0, policy).keep_alive(true);

        client.fetch_prior_payload(1).unwrap();
        assert!(client.has_live_stream());

        // Partition the link: the reused stream fails mid-exchange, is
        // dropped, and the one retry fresh-connects into the same
        // partition — the whole request fails, but through the ordinary
        // retry taxonomy.
        client.connector().partition_until(1);
        let err = client.fetch_prior_payload(1).unwrap_err();
        assert!(matches!(err, ServeError::RetriesExhausted { .. }));
        assert!(
            !client.has_live_stream(),
            "a stream that failed mid-frame must not be reused"
        );
        let m = client.metrics();
        assert_eq!(m.reused_connections, 1, "the failed reuse was attempt 1");
        assert_eq!(m.connections, 2, "initial connect + the retry's reconnect");
        assert_eq!(m.retries, 1);

        // Heal the partition: the next request reconnects and succeeds.
        client.connector().advance_step();
        assert_eq!(client.fetch_prior_payload(1).unwrap(), vec![7; 8]);
        assert!(client.has_live_stream());
        assert_eq!(client.metrics().connections, 3);
    }

    #[test]
    fn fresh_mode_never_holds_a_stream() {
        let state = Arc::new(ServerState::new());
        state.register_payload(2, vec![1]);
        let mut client = faulty_client(state, FaultConfig::default(), 0, RetryPolicy::default());
        for _ in 0..3 {
            client.fetch_prior_payload(2).unwrap();
            assert!(!client.has_live_stream());
        }
        let m = client.metrics();
        assert_eq!(m.connections, 3);
        assert_eq!(m.reused_connections, 0);
    }

    #[test]
    fn backoff_is_capped_exponential_and_seeded() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(45),
            jitter_seed: 7,
        };
        let mut a = StdRng::seed_from_u64(policy.jitter_seed);
        let mut b = StdRng::seed_from_u64(policy.jitter_seed);
        for attempt in 2..=8 {
            let d1 = policy.backoff(attempt, &mut a);
            let d2 = policy.backoff(attempt, &mut b);
            assert_eq!(d1, d2, "same seed, same schedule");
            // Exponential part is capped; jitter adds at most one base.
            assert!(d1 <= policy.max_backoff + policy.base_backoff);
            let floor = policy
                .base_backoff
                .saturating_mul(1 << (attempt - 2).min(20))
                .min(policy.max_backoff);
            assert!(d1 >= floor);
        }
    }
}
