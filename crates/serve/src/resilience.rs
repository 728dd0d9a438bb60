//! Client-side resilience primitives: a circuit breaker and a stale-prior
//! cache.
//!
//! Both are driven by a *logical step clock* (one tick per fit attempt)
//! rather than wall time, so chaos tests can express "the breaker re-opens
//! for 4 steps" without sleeping, and two runs at the same seed make
//! bit-identical decisions.
//!
//! The breaker is the standard three-state machine:
//!
//! ```text
//!            N consecutive failures
//!   Closed ───────────────────────────▶ Open
//!     ▲                                  │ cooldown (+ seeded jitter)
//!     │ probe succeeds                   ▼
//!     └─────────────────────────── HalfOpen
//!                                        │ probe fails
//!                                        └───────▶ Open (new cooldown)
//! ```
//!
//! While `Open`, calls are short-circuited without touching the network at
//! all — which also means the fault injector's RNG stream is not consumed,
//! keeping downstream fault schedules deterministic.

use dre_bayes::MixturePrior;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning for [`CircuitBreaker`].
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive *operation* failures (a whole retried exchange, not a
    /// single attempt) that trip the breaker open.
    pub failure_threshold: u32,
    /// Steps the breaker stays open before letting a probe through.
    pub cooldown_steps: u64,
    /// Extra cooldown drawn uniformly from `[0, cooldown_jitter]` per
    /// opening — seeded, so the probe schedule is deterministic.
    pub cooldown_jitter: u64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_steps: 4,
            cooldown_jitter: 2,
            seed: 0,
        }
    }
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: every call goes through.
    Closed,
    /// Tripped: calls are short-circuited until the probe step.
    Open,
    /// Cooldown elapsed: exactly one probe call is in flight.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// One recorded state transition, for traces and examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// Logical step at which the transition happened.
    pub step: u64,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// A deterministic, step-clocked circuit breaker.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    /// First step at which an `Open` breaker lets a probe through.
    probe_at: u64,
    jitter: StdRng,
    transitions: Vec<BreakerTransition>,
}

impl CircuitBreaker {
    /// A closed breaker with the given configuration.
    pub fn new(config: BreakerConfig) -> Self {
        let jitter = StdRng::seed_from_u64(config.seed);
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probe_at: 0,
            jitter,
            transitions: Vec::new(),
        }
    }

    /// Current state (after any `Open` → `HalfOpen` promotion that a call
    /// to [`CircuitBreaker::allow`] at this step would perform).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Every state transition so far, in order.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    /// Number of times the breaker tripped open.
    pub fn opens(&self) -> u64 {
        self.transitions
            .iter()
            .filter(|t| t.to == BreakerState::Open)
            .count() as u64
    }

    /// Number of times the breaker re-closed.
    pub fn closes(&self) -> u64 {
        self.transitions
            .iter()
            .filter(|t| t.to == BreakerState::Closed)
            .count() as u64
    }

    /// Whether a call may proceed at `step`. An `Open` breaker whose
    /// cooldown has elapsed moves to `HalfOpen` and admits the probe.
    pub fn allow(&mut self, step: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if step >= self.probe_at {
                    self.transition(step, BreakerState::HalfOpen);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful operation: a half-open probe (or a closed-state
    /// success) resets the failure count and closes the breaker.
    pub fn on_success(&mut self, step: u64) {
        self.consecutive_failures = 0;
        if self.state != BreakerState::Closed {
            self.transition(step, BreakerState::Closed);
        }
    }

    /// Records a failed operation: a failed probe re-opens immediately; in
    /// `Closed`, the breaker opens once the consecutive-failure threshold
    /// is reached.
    pub fn on_failure(&mut self, step: u64) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let should_open = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => {
                self.consecutive_failures >= self.config.failure_threshold.max(1)
            }
            BreakerState::Open => false,
        };
        if should_open {
            let jitter = if self.config.cooldown_jitter == 0 {
                0
            } else {
                self.jitter.gen_range(0..self.config.cooldown_jitter + 1)
            };
            self.probe_at = step + self.config.cooldown_steps.max(1) + jitter;
            self.transition(step, BreakerState::Open);
        }
    }

    fn transition(&mut self, step: u64, to: BreakerState) {
        let from = self.state;
        self.state = to;
        self.transitions.push(BreakerTransition { step, from, to });
    }
}

/// The last good prior with its fetch step, served while the breaker is
/// open — with a TTL so the runtime eventually admits the prior is too old
/// to trust and degrades to local-only.
#[derive(Debug)]
pub struct StalePriorCache {
    ttl: u64,
    entry: Option<(u64, MixturePrior)>,
}

impl StalePriorCache {
    /// An empty cache whose entries expire `ttl` steps after their fetch.
    pub fn new(ttl: u64) -> Self {
        StalePriorCache { ttl, entry: None }
    }

    /// Stores the prior fetched at `step`, replacing any older entry.
    pub fn put(&mut self, step: u64, prior: MixturePrior) {
        self.entry = Some((step, prior));
    }

    /// The cached prior and its age in steps, if present and within TTL.
    /// An over-TTL entry is evicted, not served.
    pub fn get(&mut self, step: u64) -> Option<(MixturePrior, u64)> {
        let (fetched_at, prior) = self.entry.as_ref()?;
        let age = step.saturating_sub(*fetched_at);
        if age > self.ttl {
            self.entry = None;
            None
        } else {
            Some((prior.clone(), age))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_linalg::Matrix;

    fn tiny_prior() -> MixturePrior {
        MixturePrior::new(vec![(1.0, vec![0.0, 0.0], Matrix::identity(2))]).unwrap()
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_deterministically() {
        let config = BreakerConfig {
            failure_threshold: 3,
            cooldown_steps: 4,
            cooldown_jitter: 2,
            seed: 17,
        };
        let run = || {
            let mut b = CircuitBreaker::new(config.clone());
            let mut decisions = Vec::new();
            for step in 0..30 {
                let allowed = b.allow(step);
                decisions.push((step, allowed, b.state()));
                if allowed {
                    b.on_failure(step); // the link stays dead throughout
                }
            }
            (decisions, b.transitions().to_vec())
        };
        let (decisions, transitions) = run();
        let (decisions_b, transitions_b) = run();
        assert_eq!(decisions, decisions_b, "same seed, same probe schedule");
        assert_eq!(transitions, transitions_b);

        // Closed for the first `threshold` failures, then open.
        assert!(decisions[..3].iter().all(|&(_, allowed, _)| allowed));
        assert_eq!(transitions[0].step, 2);
        assert_eq!(transitions[0].to, BreakerState::Open);
        // While open, no probe before the cooldown floor elapses.
        for &(step, allowed, _) in &decisions[3..] {
            if allowed {
                assert!(
                    step >= transitions[0].step + config.cooldown_steps,
                    "probe at step {step} beat the cooldown"
                );
                break;
            }
        }
        // Every admitted probe fails → HalfOpen → Open pairs forever after.
        let reopens = transitions
            .iter()
            .skip(1)
            .filter(|t| t.to == BreakerState::Open)
            .count();
        assert!(reopens >= 2, "probes must keep re-opening on failure");
        assert!(
            transitions.iter().all(|t| t.to != BreakerState::Closed),
            "link never healed"
        );
    }

    #[test]
    fn breaker_recloses_on_successful_probe() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_steps: 2,
            cooldown_jitter: 0,
            seed: 0,
        });
        assert!(b.allow(0));
        b.on_failure(0); // trips immediately (threshold 1)
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(1), "cooldown not elapsed");
        assert!(b.allow(2), "probe admitted at cooldown");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success(2);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.opens(), 1);
        assert_eq!(b.closes(), 1);
        // Fully healthy afterwards.
        assert!(b.allow(3));
        b.on_success(3);
        assert_eq!(b.transitions().len(), 3); // Open, HalfOpen, Closed
    }

    #[test]
    fn stale_cache_serves_within_ttl_and_expires_after() {
        let mut cache = StalePriorCache::new(3);
        assert!(cache.get(0).is_none()); // miss on empty
        cache.put(5, tiny_prior());
        let (_, age) = cache.get(6).expect("within TTL");
        assert_eq!(age, 1);
        let (_, age) = cache.get(8).expect("at TTL boundary");
        assert_eq!(age, 3);
        assert!(cache.get(9).is_none(), "over TTL must expire");
        assert!(cache.get(8).is_none(), "expired entry is evicted");
        // A fresh put revives the cache.
        cache.put(10, tiny_prior());
        assert!(cache.get(10).is_some());
    }
}
