//! One-big-switch network topology: shared queues, deterministic loss,
//! and go-back-N retransmission.
//!
//! The legacy simulator gives every device a dedicated, lossless pipe to
//! the cloud, so congestion cannot exist by construction. Installing a
//! [`Topology`] ([`Scenario::with_topology`](crate::Scenario::with_topology))
//! replaces that fantasy with the canonical datacenter abstraction — one
//! big switch:
//!
//! * every host (each device, plus the cloud) hangs off the switch by its
//!   access link (the device's [`DeviceSpec::link`](crate::DeviceSpec),
//!   the cloud's [`Topology::cloud_link`]);
//! * each direction of each access link is a switch port with a drop-tail
//!   FIFO queue of configurable capacity — incast from a fleet of devices
//!   piles up (and overflows) at the cloud's ports;
//! * frames pay serialization delay (`bytes / bandwidth`) at each port
//!   plus the link's propagation latency, so queueing delay emerges from
//!   load instead of being assumed away;
//! * links may drop frames deterministically ([`LossModel`]), and every
//!   message rides a go-back-N reliable transfer — drops cost
//!   retransmitted bytes and timer waits, not hand-waving.

use crate::{Link, SimDuration};

/// Bytes of a transport-level acknowledgement frame (cumulative go-back-N
/// ack: framing plus a sequence number). Acks are transport frames, not
/// `dre-serve` messages, so this is a modeling constant rather than a
/// measured codec length.
pub const ACK_BYTES: u64 = 14;

/// Go-back-N window: frames a sender may have un-acked in flight.
pub const GBN_WINDOW: u32 = 8;

/// Configuration of the one-big-switch fabric and its go-back-N transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchConfig {
    /// Drop-tail capacity of every port queue, in frames. Arrivals beyond
    /// this are dropped (and later retransmitted by the sender).
    pub queue_capacity: u32,
    /// Maximum frame payload in bytes; messages larger than this are
    /// segmented into `ceil(bytes / mtu)` frames.
    pub mtu: u32,
    /// Base retransmission timeout. A transfer that hears no new ack for
    /// this long goes back to its lowest un-acked frame and resends. The
    /// timeout doubles on every consecutive expiry (binary exponential
    /// backoff, capped at 2^16), so loss storms pace themselves out
    /// instead of synchronizing.
    pub rto: SimDuration,
    /// Consecutive timeouts without forward progress before a transfer is
    /// aborted. Aborted prior requests/payloads recover through the
    /// application-level [`RetryModel`](crate::RetryModel); other aborted
    /// messages leave their device incomplete — congestion collapse is
    /// visible in the report, not papered over.
    pub max_retx: u32,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            queue_capacity: 256,
            mtu: 1500,
            rto: SimDuration::from_millis_f64(200.0),
            max_retx: 32,
        }
    }
}

impl SwitchConfig {
    pub(crate) fn validate(&self) {
        assert!(
            self.queue_capacity >= 1,
            "switch queue_capacity must be >= 1"
        );
        assert!(self.mtu >= 1, "switch mtu must be >= 1 byte");
        assert!(
            self.rto > SimDuration::ZERO,
            "retransmission timeout must be positive"
        );
        assert!(self.max_retx >= 1, "max_retx must be >= 1");
    }
}

/// Deterministic frame-loss model for a link direction.
///
/// Loss is a pure function of the port, the frame's crossing index on
/// that port, and (for [`LossModel::Bernoulli`]) a seed — identical seeds
/// give bit-identical drop schedules, so lossy runs replay exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Lossless.
    None,
    /// Drops each crossing independently with probability `loss`, decided
    /// by hashing `(seed, port, crossing index)` — deterministic, but
    /// statistically Bernoulli.
    Bernoulli {
        /// Drop probability in `[0, 1)`.
        loss: f64,
        /// Hash seed; vary it to get an independent drop schedule.
        seed: u64,
    },
}

/// `splitmix64` — the standard 64-bit finalizer; a tiny, dependency-free
/// way to turn `(seed, port, index)` into an unbiased coin.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl LossModel {
    /// Whether the frame making crossing number `crossing` (0-based) on
    /// `port` is dropped.
    pub(crate) fn drops(&self, port: u32, crossing: u64) -> bool {
        match *self {
            LossModel::None => false,
            LossModel::Bernoulli { loss, seed } => {
                let h = splitmix64(seed ^ splitmix64((port as u64) << 32 ^ crossing));
                // Compare in the integer domain: `loss` maps to a fixed
                // threshold, so the decision is exact and reproducible.
                ((h >> 11) as f64) < loss * (1u64 << 53) as f64
            }
        }
    }

    pub(crate) fn validate(&self) {
        if let LossModel::Bernoulli { loss, .. } = *self {
            assert!(
                (0.0..1.0).contains(&loss) && loss.is_finite(),
                "Bernoulli loss probability must be in [0, 1), got {loss}"
            );
        }
    }
}

/// A one-big-switch network for a [`Scenario`](crate::Scenario).
///
/// Installing one switches the simulator from the legacy direct-delivery
/// model to the full fabric: shared port queues, serialization and
/// queueing delay, deterministic loss, and go-back-N retransmission for
/// every message (prior requests and payloads included).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// The cloud's access link to the switch — the shared bottleneck every
    /// device-bound and cloud-bound frame must cross.
    pub cloud_link: Link,
    /// Switch and transport configuration.
    pub switch: SwitchConfig,
    /// Loss model applied to every device access link (both directions).
    pub device_loss: LossModel,
    /// Loss model applied to the cloud access link (both directions).
    pub cloud_loss: LossModel,
}

impl Topology {
    /// A lossless one-big-switch topology with the default
    /// [`SwitchConfig`] and the given cloud access link.
    pub fn one_big_switch(cloud_link: Link) -> Self {
        Topology {
            cloud_link,
            switch: SwitchConfig::default(),
            device_loss: LossModel::None,
            cloud_loss: LossModel::None,
        }
    }

    /// Replaces the switch/transport configuration.
    pub fn with_switch(mut self, switch: SwitchConfig) -> Self {
        self.switch = switch;
        self
    }

    /// Sets the loss model of every device access link.
    pub fn with_device_loss(mut self, loss: LossModel) -> Self {
        self.device_loss = loss;
        self
    }

    /// Sets the loss model of the cloud access link.
    pub fn with_cloud_loss(mut self, loss: LossModel) -> Self {
        self.cloud_loss = loss;
        self
    }

    pub(crate) fn validate(&self) {
        self.switch.validate();
        self.device_loss.validate();
        self.cloud_loss.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_is_deterministic_and_roughly_calibrated() {
        let m = LossModel::Bernoulli {
            loss: 0.2,
            seed: 42,
        };
        let a: Vec<bool> = (0..10_000).map(|i| m.drops(3, i)).collect();
        let b: Vec<bool> = (0..10_000).map(|i| m.drops(3, i)).collect();
        assert_eq!(a, b, "same (seed, port, crossing) must decide identically");
        let rate = a.iter().filter(|&&d| d).count() as f64 / a.len() as f64;
        assert!(
            (rate - 0.2).abs() < 0.02,
            "empirical rate {rate} far from 0.2"
        );
        // Different seeds and ports give different schedules.
        let other = LossModel::Bernoulli {
            loss: 0.2,
            seed: 43,
        };
        assert!((0..10_000).any(|i| other.drops(3, i) != m.drops(3, i)));
        assert!((0..10_000).any(|i| m.drops(4, i) != m.drops(3, i)));
    }

    #[test]
    fn zero_loss_bernoulli_never_drops() {
        let m = LossModel::Bernoulli { loss: 0.0, seed: 9 };
        assert!((0..1000).all(|i| !m.drops(0, i)));
        assert!((0..1000).all(|i| !LossModel::None.drops(7, i)));
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn loss_probability_out_of_range_is_rejected() {
        LossModel::Bernoulli { loss: 1.5, seed: 0 }.validate();
    }

    #[test]
    fn builder_composes() {
        let t = Topology::one_big_switch(Link::new_ms(5.0, 1e9))
            .with_switch(SwitchConfig {
                queue_capacity: 64,
                ..SwitchConfig::default()
            })
            .with_device_loss(LossModel::Bernoulli {
                loss: 0.02,
                seed: 0,
            })
            .with_cloud_loss(LossModel::Bernoulli {
                loss: 0.01,
                seed: 1,
            });
        assert_eq!(t.switch.queue_capacity, 64);
        t.validate();
    }
}
