//! Link model: propagation latency plus serialization at a bandwidth.

use crate::SimDuration;

/// A point-to-point link with one-way propagation latency and a serialization
/// bandwidth.
///
/// Transfer time of a `b`-byte payload is `latency + b / bandwidth` — the
/// standard first-order model; queueing is not modelled because each device
/// has a dedicated link to the cloud in the star topologies the experiments
/// use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    latency: SimDuration,
    bandwidth_bytes_per_sec: f64,
}

impl Link {
    /// Creates a link from a one-way latency and a bandwidth in bytes per
    /// second.
    ///
    /// # Panics
    ///
    /// Panics unless the bandwidth is positive and finite.
    pub fn new(latency: SimDuration, bandwidth_bytes_per_sec: f64) -> Self {
        assert!(
            bandwidth_bytes_per_sec > 0.0 && bandwidth_bytes_per_sec.is_finite(),
            "bandwidth must be positive and finite, got {bandwidth_bytes_per_sec}"
        );
        Link {
            latency,
            bandwidth_bytes_per_sec,
        }
    }

    /// Convenience constructor: latency in milliseconds, bandwidth in bytes
    /// per second.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Link::new`], plus a non-negative latency.
    pub fn new_ms(latency_ms: f64, bandwidth_bytes_per_sec: f64) -> Self {
        Self::new(
            SimDuration::from_millis_f64(latency_ms),
            bandwidth_bytes_per_sec,
        )
    }

    /// One-way propagation latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Bandwidth in bytes per second.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth_bytes_per_sec
    }

    /// Time for a `bytes`-byte payload to fully arrive at the other end.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_decomposes() {
        let link = Link::new_ms(10.0, 1000.0); // 1 KB/s
        assert_eq!(link.latency().as_micros(), 10_000);
        assert_eq!(link.bandwidth(), 1000.0);
        // 500 bytes at 1000 B/s = 0.5 s on top of 10 ms.
        let t = link.transfer_time(500);
        assert_eq!(t.as_micros(), 10_000 + 500_000);
        // Empty payload pays only latency.
        assert_eq!(link.transfer_time(0), link.latency());
    }

    #[test]
    fn bigger_payloads_take_longer() {
        let link = Link::new_ms(1.0, 1e6);
        assert!(link.transfer_time(10_000) > link.transfer_time(100));
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn rejects_zero_bandwidth() {
        Link::new_ms(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_latency() {
        Link::new_ms(-1.0, 100.0);
    }
}
