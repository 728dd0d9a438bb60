//! Transfer metrics kept on both ends of the serving layer.
//!
//! All counters are relaxed atomics: the serving layer increments them from
//! worker and client threads without any lock, and a [`MetricsSnapshot`]
//! reads a consistent-enough view for reporting. Latencies go into a
//! log-spaced histogram — bucket `i` holds durations whose microsecond
//! count has `ilog2 == i` — which keeps the whole structure fixed-size and
//! allocation-free while still resolving both sub-millisecond loopback
//! round-trips and multi-second retry storms.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2-spaced latency buckets: bucket 63 holds anything at or
/// above 2^63 µs, so every `u64` microsecond count maps to a bucket.
pub const LATENCY_BUCKETS: usize = 64;

/// Log2-spaced latency histogram with atomic buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Bucket index for a duration: `ilog2` of its microsecond count
    /// (durations under 1 µs land in bucket 0).
    pub fn bucket_index(d: Duration) -> usize {
        let micros = d.as_micros().min(u64::MAX as u128) as u64;
        if micros == 0 {
            0
        } else {
            micros.ilog2() as usize
        }
    }

    /// Records one observation.
    pub fn record(&self, d: Duration) {
        self.buckets[Self::bucket_index(d)].fetch_add(1, Ordering::Relaxed);
    }

    /// Reads all bucket counts.
    pub fn snapshot(&self) -> [u64; LATENCY_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether a counter is reproducible from the scenario's seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Equal across two runs of the same seeded scenario; part of
    /// [`MetricsSnapshot::deterministic_counters`].
    Deterministic,
    /// Depends on how the kernel slices bytes across readiness windows,
    /// which no seed controls; reported, never compared.
    Timing,
}

/// Declares every counter once — doc lines, then `name: kind` — and
/// generates from that list the atomics in [`ServeMetrics`], the plain
/// fields in [`MetricsSnapshot`], [`ServeMetrics::snapshot`], [`COUNTERS`]
/// and [`MetricsSnapshot::values`]. Fields keep the table's order.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident: $kind:ident,)*) => {
        /// Shared transfer counters; the server keeps one per process, the
        /// client one per [`crate::client::PriorClient`].
        #[derive(Debug, Default)]
        pub struct ServeMetrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
            /// Per-exchange latency distribution.
            pub latency: LatencyHistogram,
        }

        /// Plain-data copy of [`ServeMetrics`], comparable and printable.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
            /// Log2-spaced latency bucket counts.
            pub latency_buckets: [u64; LATENCY_BUCKETS],
        }

        /// Every counter's name and kind, in declaration order.
        pub const COUNTERS: &[(&str, CounterKind)] =
            &[$((stringify!($name), CounterKind::$kind),)*];

        impl ServeMetrics {
            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    latency_buckets: self.latency.snapshot(),
                }
            }
        }

        impl MetricsSnapshot {
            /// Every counter's value, in [`COUNTERS`] order.
            pub fn values(&self) -> [u64; COUNTERS.len()] {
                [$(self.$name,)*]
            }
        }
    };
}

counters! {
    /// Requests handled (server) or issued (client).
    requests: Deterministic,
    /// Exchanges that completed with a well-formed, checksum-clean reply.
    responses_ok: Deterministic,
    /// Exchanges that ended in an error (after retries, on the client).
    errors: Deterministic,
    /// Extra attempts beyond the first (client only).
    retries: Deterministic,
    /// Frames rejected by the CRC check.
    checksum_failures: Deterministic,
    /// Payload + framing bytes received.
    bytes_in: Deterministic,
    /// Payload + framing bytes sent.
    bytes_out: Deterministic,
    /// Connections accepted (server) or opened (client).
    connections: Deterministic,
    /// `Busy` replies sent (server) or received across attempts (client).
    busy: Deterministic,
    /// Connections shed before reaching a worker because the accept queue
    /// was full (server only).
    shed_connections: Deterministic,
    /// Worker panics caught and recovered from (server only).
    worker_panics: Deterministic,
    /// Poisoned locks recovered by inheriting the last good value (server
    /// only).
    lock_recoveries: Deterministic,
    /// `PriorRequest`s answered straight from the pre-encoded frame cache
    /// — no payload clone, no re-encode, no CRC recompute (server only).
    prior_cache_hits: Deterministic,
    /// Prior frames encoded into the cache at registration time (server
    /// only) — each registry update pays the encode exactly once.
    prior_cache_builds: Deterministic,
    /// Requests sent over an already-open keep-alive stream instead of a
    /// fresh connection (client only).
    reused_connections: Deterministic,
    /// Registry snapshots built and published by the write path (server
    /// only): one per `register_prior`/`register_payload`. The lock-free
    /// read path never bumps this — readers adopt published snapshots by
    /// generation check alone.
    snapshot_publishes: Deterministic,
    /// Nonblocking reads that found the socket empty (server only). A
    /// readiness-polled worker drains each socket greedily until the OS
    /// says `WouldBlock`; this counts those boundary probes.
    wouldblock_reads: Timing,
    /// Socket flushes that coalesced two or more pipelined replies into a
    /// single `write` (server only); how many requests arrive in one
    /// readiness window decides it.
    batched_writes: Timing,
    /// Fetches re-routed from a dead or misrouting shard to the next
    /// replica in ring order (routing client only).
    shard_failovers: Deterministic,
    /// Shard-map fetches performed — one at routing-client construction
    /// plus one per epoch change it observes (routing client only).
    map_refreshes: Deterministic,
    /// Replica registrations fanned out by `register_prior` beyond the
    /// primary — R−1 per registered task (plane only).
    replica_fanouts: Deterministic,
    /// `PriorRequest`s for a task id this shard does not own, answered
    /// with a retryable `Misrouted` redirect (server only).
    misroutes: Deterministic,
    /// Model reports dropped because the report inbox was at its
    /// configured cap ([`crate::server::ServeConfig::report_inbox_cap`]) —
    /// a report flood degrades into counted shedding instead of unbounded
    /// memory growth (server only). Per-device rate-cap drops land here
    /// too: both are capacity drops taken before the inbox.
    reports_shed: Deterministic,
    /// Model reports dropped because their sequence number was at or
    /// below the device's last accepted one — a replayed or duplicated
    /// frame (server only).
    reports_replayed: Deterministic,
    /// Reports gated by the learner's predictive admission check — scored
    /// against the SIR filter's collapsed predictive marginal and found
    /// too surprising to enter the filter (folded in by the learner).
    reports_gated: Deterministic,
    /// Devices moved into the quarantined reputation state by the
    /// learner's admission ledger (folded in by the learner).
    devices_quarantined: Deterministic,
    /// `ReportAck { accepted: false }` replies observed (client only):
    /// the server dropped this device's report before the inbox.
    reports_rejected: Deterministic,
}

impl ServeMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetricsSnapshot {
    /// Total latency observations.
    pub fn latency_count(&self) -> u64 {
        self.latency_buckets.iter().sum()
    }

    /// The [`CounterKind::Deterministic`] counters by name, in
    /// [`COUNTERS`] order — equal across two runs of the same seeded
    /// scenario, unlike the timing counters and the latency histogram.
    pub fn deterministic_counters(&self) -> Vec<(&'static str, u64)> {
        COUNTERS
            .iter()
            .zip(self.values())
            .filter(|((_, kind), _)| *kind == CounterKind::Deterministic)
            .map(|(&(name, _), value)| (name, value))
            .collect()
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (&(name, _), value) in COUNTERS.iter().zip(self.values()) {
            writeln!(f, "{name}={value}")?;
        }
        write!(f, "latency:")?;
        let mut any = false;
        for (i, &count) in self.latency_buckets.iter().enumerate() {
            if count > 0 {
                any = true;
                write!(f, " [{}µs,{}µs)={}", 1u64 << i, 1u128 << (i + 1), count)?;
            }
        }
        if !any {
            write!(f, " (empty)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2_of_micros() {
        assert_eq!(LatencyHistogram::bucket_index(Duration::from_micros(0)), 0);
        assert_eq!(LatencyHistogram::bucket_index(Duration::from_micros(1)), 0);
        assert_eq!(LatencyHistogram::bucket_index(Duration::from_micros(2)), 1);
        assert_eq!(LatencyHistogram::bucket_index(Duration::from_micros(3)), 1);
        assert_eq!(LatencyHistogram::bucket_index(Duration::from_micros(4)), 2);
        assert_eq!(
            LatencyHistogram::bucket_index(Duration::from_micros(1023)),
            9
        );
        assert_eq!(
            LatencyHistogram::bucket_index(Duration::from_micros(1024)),
            10
        );
        assert_eq!(
            LatencyHistogram::bucket_index(Duration::from_secs(u64::MAX)),
            63
        );
    }

    #[test]
    fn record_and_snapshot() {
        let m = ServeMetrics::new();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.bytes_out.fetch_add(100, Ordering::Relaxed);
        m.latency.record(Duration::from_micros(5));
        m.latency.record(Duration::from_micros(7));
        m.latency.record(Duration::from_millis(3));
        let s = m.snapshot();
        assert_eq!(s.requests, 3);
        assert_eq!(s.bytes_out, 100);
        assert_eq!(s.latency_count(), 3);
        assert_eq!(s.latency_buckets[2], 2); // 5 µs and 7 µs
        assert_eq!(s.latency_buckets[11], 1); // 3000 µs
        let shown = s.to_string();
        assert!(shown.contains("requests=3"));
        assert!(shown.contains("[4µs,8µs)=2"));
    }

    #[test]
    fn counter_table_drives_names_display_and_the_deterministic_set() {
        let names: Vec<&str> = COUNTERS.iter().map(|&(name, _)| name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate counter name");

        let m = ServeMetrics::new();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.wouldblock_reads.fetch_add(5, Ordering::Relaxed);
        let s = m.snapshot();
        let shown = s.to_string();
        for name in &names {
            let label = format!("{name}=");
            assert!(
                shown.lines().any(|l| l.starts_with(&label)),
                "{name} missing from Display"
            );
        }

        let det = s.deterministic_counters();
        let expected: Vec<&str> = COUNTERS
            .iter()
            .filter(|&&(_, kind)| kind == CounterKind::Deterministic)
            .map(|&(name, _)| name)
            .collect();
        let det_names: Vec<&str> = det.iter().map(|&(name, _)| name).collect();
        assert_eq!(det_names, expected);
        assert!(det.contains(&("requests", 3)));
        for timing in ["wouldblock_reads", "batched_writes"] {
            assert!(!det_names.contains(&timing), "{timing} is a timing counter");
        }
    }
}
