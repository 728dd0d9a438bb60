//! The fault-tolerant edge runtime: fetch → fit → report with graceful
//! degradation.
//!
//! [`EdgeRuntime`] wraps a [`PriorClient`] behind a [`CircuitBreaker`] and
//! a [`StalePriorCache`] and walks the degradation ladder on every fit
//! step:
//!
//! 1. **FreshPrior** — breaker permitting, fetch the prior and run the
//!    full DRO+DP-prior pipeline ([`dro_edge::EdgeLearner`]);
//! 2. **StalePrior { age }** — fetch failed or short-circuited: run the
//!    same pipeline on the last good prior if it is within TTL;
//! 3. **LocalOnly** — no usable prior: the paper's local-ERM baseline
//!    ([`dro_edge::baselines::fit_local_erm`]), the accuracy floor.
//!
//! Every fit returns a [`RuntimeFit`] tagged with its [`FitMode`], and the
//! runtime keeps a full mode trace plus deterministic counters so chaos
//! tests can assert bit-identical behaviour across runs.

use dre_data::Dataset;
use dre_models::LinearModel;
use dro_edge::{baselines, EdgeLearner, EdgeLearnerConfig, FitMode};

use crate::client::{PriorClient, RetryPolicy};
use crate::resilience::{BreakerConfig, BreakerState, CircuitBreaker, StalePriorCache};
use crate::transport::Connector;
use crate::Result as ServeResult;

/// Tuning for [`EdgeRuntime`].
#[derive(Debug, Clone)]
pub struct EdgeRuntimeConfig {
    /// Task family this device fetches priors for.
    pub task_id: u64,
    /// This device's identity on the report path: stamped into every
    /// `ModelReport` along with a monotone sequence number, so the server
    /// can drop replays and rate-limit per device.
    pub device_id: u64,
    /// Learner configuration for prior-based fits.
    pub learner: EdgeLearnerConfig,
    /// Ridge strength of the local-only ERM fallback.
    pub erm_lambda: f64,
    /// Circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// Steps a cached prior stays servable after its fetch.
    pub stale_ttl: u64,
    /// Whether to report fitted models back to the cloud (best-effort, on
    /// fresh-prior fits only — a stale or local fit is not worth feeding
    /// into the cloud's lifelong refit loop).
    pub report_models: bool,
    /// Whether the underlying client holds one live stream across
    /// requests ([`PriorClient::keep_alive`]). Reconnection on a failed
    /// reuse rides the existing retry taxonomy, so breaker semantics are
    /// unchanged either way.
    pub keep_alive: bool,
}

impl Default for EdgeRuntimeConfig {
    fn default() -> Self {
        EdgeRuntimeConfig {
            task_id: 0,
            device_id: 0,
            learner: EdgeLearnerConfig::default(),
            erm_lambda: 1e-3,
            breaker: BreakerConfig::default(),
            stale_ttl: 8,
            report_models: true,
            keep_alive: false,
        }
    }
}

/// One fit step's outcome.
#[derive(Debug, Clone)]
pub struct RuntimeFit {
    /// The fitted model, whichever rung produced it.
    pub model: LinearModel,
    /// Which rung of the degradation ladder ran.
    pub mode: FitMode,
    /// Breaker state after the step.
    pub breaker: BreakerState,
    /// Whether the model was reported back *and accepted* by the cloud —
    /// a rejected ack ([`crate::frame::Message::ReportAck`]) leaves this
    /// false without counting as a report failure.
    pub reported: bool,
}

/// Deterministic counters the runtime keeps alongside the client metrics.
/// Fits per rung are not counted here: tally [`EdgeRuntime::mode_trace`]
/// with [`dro_edge::ModeShares`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Fetch operations that failed after the client's retry budget.
    pub fetch_failures: u64,
    /// Fetches skipped because the breaker was open.
    pub short_circuits: u64,
    /// Best-effort model reports that failed.
    pub report_failures: u64,
}

/// A device's fetch→fit→report loop with circuit breaking, stale-prior
/// caching, and local-only fallback.
pub struct EdgeRuntime<C: Connector> {
    client: PriorClient<C>,
    config: EdgeRuntimeConfig,
    breaker: CircuitBreaker,
    cache: StalePriorCache,
    step: u64,
    /// Monotone sequence number stamped into reports (next report gets
    /// `report_seq + 1`).
    report_seq: u64,
    mode_trace: Vec<FitMode>,
    counters: RuntimeCounters,
}

impl<C: Connector> EdgeRuntime<C> {
    /// A runtime speaking through `connector` under `policy`.
    pub fn new(connector: C, policy: RetryPolicy, config: EdgeRuntimeConfig) -> Self {
        let breaker = CircuitBreaker::new(config.breaker.clone());
        let cache = StalePriorCache::new(config.stale_ttl);
        EdgeRuntime {
            client: PriorClient::new(connector, policy).keep_alive(config.keep_alive),
            config,
            breaker,
            cache,
            step: 0,
            report_seq: 0,
            mode_trace: Vec::new(),
            counters: RuntimeCounters::default(),
        }
    }

    /// The wrapped client (metrics, connector access).
    pub fn client(&self) -> &PriorClient<C> {
        &self.client
    }

    /// The connector, for chaos harness control (steps, partitions).
    pub fn connector(&self) -> &C {
        self.client.connector()
    }

    /// The circuit breaker (state, transition trace).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Every fit's mode tag, in step order.
    pub fn mode_trace(&self) -> &[FitMode] {
        &self.mode_trace
    }

    /// Deterministic runtime counters.
    pub fn counters(&self) -> RuntimeCounters {
        self.counters
    }

    /// Logical steps taken so far.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// One fetch→fit→report step over `data`, degrading as needed. Only
    /// learner/solver failures surface as `Err`; connectivity trouble is
    /// absorbed by the degradation ladder.
    pub fn fit_step(&mut self, data: &Dataset) -> dro_edge::Result<RuntimeFit> {
        self.step += 1;
        let step = self.step;

        let mut fetched = None;
        if self.breaker.allow(step) {
            match self.client.fetch_prior(self.config.task_id) {
                Ok(prior) => {
                    self.breaker.on_success(step);
                    self.cache.put(step, prior.clone());
                    fetched = Some(prior);
                }
                Err(_) => {
                    self.counters.fetch_failures += 1;
                    self.breaker.on_failure(step);
                }
            }
        } else {
            self.counters.short_circuits += 1;
        }

        let (model, mode) = match fetched {
            Some(prior) => {
                let fit = EdgeLearner::new(self.config.learner, prior)?.fit(data)?;
                (fit.model, FitMode::FreshPrior)
            }
            None => match self.cache.get(step) {
                Some((prior, age)) => {
                    let fit = EdgeLearner::new(self.config.learner, prior)?.fit(data)?;
                    (fit.model, FitMode::StalePrior { age })
                }
                None => {
                    let model = baselines::fit_local_erm(data, self.config.erm_lambda)?;
                    (model, FitMode::LocalOnly)
                }
            },
        };

        let mut reported = false;
        if self.config.report_models && mode == FitMode::FreshPrior {
            match self.report(&model) {
                Ok(true) => reported = true,
                // A rejected ack is a healthy reply: no breaker penalty;
                // the client's `reports_rejected` counter records it.
                Ok(false) => {}
                Err(_) => {
                    self.counters.report_failures += 1;
                    self.breaker.on_failure(step);
                }
            }
        }

        self.mode_trace.push(mode);
        Ok(RuntimeFit {
            model,
            mode,
            breaker: self.breaker.state(),
            reported,
        })
    }

    fn report(&mut self, model: &LinearModel) -> ServeResult<bool> {
        let seq = self.report_seq + 1;
        let accepted = self.client.report_model(
            self.config.task_id,
            self.config.device_id,
            seq,
            model.to_packed(),
        )?;
        // The number is burned whether or not the server kept the report:
        // reusing it would read as a replay.
        self.report_seq = seq;
        Ok(accepted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{InMemoryServer, ServerState};
    use crate::transport::{FaultConfig, FaultInjector, FaultyConnector};
    use dre_linalg::Matrix;
    use dro_edge::ModeShares;
    use std::sync::Arc;
    use std::time::Duration;

    const TASK: u64 = 9;

    fn seeded_dataset() -> Dataset {
        // A tiny linearly separable problem: labels follow sign(x0 - x1).
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..16 {
            let a = (i as f64) * 0.37 % 2.0 - 1.0;
            let b = (i as f64) * 0.61 % 2.0 - 1.0;
            xs.push(vec![a, b]);
            ys.push(if a - b >= 0.0 { 1.0 } else { -1.0 });
        }
        Dataset::new(xs, ys).unwrap()
    }

    fn registered_state() -> Arc<ServerState> {
        let state = Arc::new(ServerState::new());
        let prior =
            dre_bayes::MixturePrior::new(vec![(1.0, vec![0.5, -0.5, 0.0], Matrix::identity(3))])
                .unwrap();
        state.register_prior(TASK, &prior);
        state
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(100),
            jitter_seed: 3,
        }
    }

    fn runtime_config() -> EdgeRuntimeConfig {
        EdgeRuntimeConfig {
            task_id: TASK,
            learner: EdgeLearnerConfig {
                em_rounds: 2,
                solver_iters: 25,
                multi_start: false,
                ..EdgeLearnerConfig::default()
            },
            breaker: BreakerConfig {
                failure_threshold: 1,
                cooldown_steps: 2,
                cooldown_jitter: 0,
                seed: 0,
            },
            stale_ttl: 2,
            ..EdgeRuntimeConfig::default()
        }
    }

    fn runtime(
        state: Arc<ServerState>,
        faults: FaultConfig,
        seed: u64,
    ) -> EdgeRuntime<FaultyConnector<InMemoryServer>> {
        let connector = FaultyConnector::new(
            InMemoryServer::with_state(state),
            FaultInjector::new(seed, faults),
        );
        EdgeRuntime::new(connector, fast_policy(), runtime_config())
    }

    #[test]
    fn healthy_link_stays_fresh_and_reports() {
        let state = registered_state();
        let mut rt = runtime(Arc::clone(&state), FaultConfig::default(), 1);
        let data = seeded_dataset();
        for _ in 0..3 {
            let fit = rt.fit_step(&data).unwrap();
            assert_eq!(fit.mode, FitMode::FreshPrior);
            assert_eq!(fit.breaker, BreakerState::Closed);
            assert!(fit.reported);
        }
        assert_eq!(rt.mode_trace(), &[FitMode::FreshPrior; 3]);
        assert_eq!(state.take_reports().len(), 3);
    }

    #[test]
    fn degradation_ladder_fresh_stale_local() {
        let state = registered_state();
        let mut rt = runtime(Arc::clone(&state), FaultConfig::default(), 1);
        let data = seeded_dataset();

        // Step 1: healthy → fresh (fills the cache).
        assert_eq!(rt.fit_step(&data).unwrap().mode, FitMode::FreshPrior);

        // Partition far beyond the test horizon; breaker (threshold 1)
        // trips on the first failed fetch.
        rt.connector().partition_until(u64::MAX);
        let fit = rt.fit_step(&data).unwrap();
        assert_eq!(fit.mode, FitMode::StalePrior { age: 1 });
        assert_eq!(fit.breaker, BreakerState::Open);
        assert!(!fit.reported, "stale fits are never reported");

        // Step 3: breaker open → short-circuit, cache age 2 (== TTL).
        let fit = rt.fit_step(&data).unwrap();
        assert_eq!(fit.mode, FitMode::StalePrior { age: 2 });

        // Step 4: cache over TTL → terminal local-only fallback, and the
        // model is exactly the ERM baseline on the same data.
        let fit = rt.fit_step(&data).unwrap();
        assert_eq!(fit.mode, FitMode::LocalOnly);
        let baseline = baselines::fit_local_erm(&data, rt.config.erm_lambda).unwrap();
        assert_eq!(fit.model.to_packed(), baseline.to_packed());

        let mut shares = ModeShares::default();
        for &mode in rt.mode_trace() {
            shares.push(mode);
        }
        assert_eq!((shares.fresh, shares.stale, shares.local), (1, 2, 1));
        let counters = rt.counters();
        // Step 2 fails outright; step 3 is short-circuited by the open
        // breaker; step 4's half-open probe fails again.
        assert_eq!(counters.fetch_failures, 2);
        assert_eq!(counters.short_circuits, 1);
        assert_eq!(
            rt.mode_trace(),
            &[
                FitMode::FreshPrior,
                FitMode::StalePrior { age: 1 },
                FitMode::StalePrior { age: 2 },
                FitMode::LocalOnly,
            ]
        );
    }

    #[test]
    fn breaker_recloses_and_modes_recover_after_heal() {
        let state = registered_state();
        let mut rt = runtime(Arc::clone(&state), FaultConfig::default(), 1);
        let data = seeded_dataset();

        assert_eq!(rt.fit_step(&data).unwrap().mode, FitMode::FreshPrior);
        rt.connector().partition_until(u64::MAX);
        for _ in 0..3 {
            assert!(rt.fit_step(&data).unwrap().mode != FitMode::FreshPrior);
        }
        // Heal the link; the next admitted probe re-closes the breaker.
        rt.connector().partition_until(0);
        let mut healed = false;
        for _ in 0..4 {
            let fit = rt.fit_step(&data).unwrap();
            if fit.mode == FitMode::FreshPrior {
                assert_eq!(fit.breaker, BreakerState::Closed);
                healed = true;
                break;
            }
        }
        assert!(healed, "runtime must recover fresh-prior fits after heal");
        assert!(rt.breaker().closes() >= 1);
        assert!(rt.breaker().opens() >= 1);
    }
}
