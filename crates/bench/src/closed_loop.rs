//! Shared harness for the closed-loop experiments: edge reports feed the
//! streaming [`CloudLearner`], which refreshes the served DP prior between
//! rounds over real loopback TCP.
//!
//! E14 (clean vs frozen), E15 (colluding cohort, admission on/off) and the
//! `closed_loop` integration suite all run [`run`] on a [`scenario`], so the
//! experiment tables and the tests that pin them execute one round loop.
//! The loop starts from an **uninformative** prior ([`broad_prior`]); each
//! round the few-shot eval cohort fits and is measured against the current
//! prior, then this round's honest reporters join, fit and report once, the
//! adversary cohort (if any) reports its colluding poison, and the learner
//! drains the inbox and publishes. So `round_accuracy[0]` is the
//! uninformative-prior baseline and every later round reflects all reports
//! absorbed so far.

use std::sync::Arc;
use std::time::Duration;

use dre_bayes::MixturePrior;
use dre_data::{Dataset, TaskFamily, TaskFamilyConfig};
use dre_edgesim::{poisoned_report, AdversaryKind};
use dre_learner::{AdmissionConfig, CloudLearner, LearnerConfig, SirConfig};
use dre_linalg::Matrix;
use dre_models::metrics;
use dre_prob::seeded_rng;
use dre_serve::{
    BreakerConfig, EdgeRuntime, EdgeRuntimeConfig, PriorClient, PriorServer, RetryPolicy,
    ServeConfig, TcpConnector,
};
use dro_edge::{CloudKnowledge, FitMode};

use crate::{covered_devices, fleet_learner_config, CoveredDevice, FLOOR_ERM_LAMBDA};

/// Task id the loop serves its prior under.
pub const TASK_ID: u64 = 9;
/// Few-shot eval devices measured every round.
pub const EVALS: usize = 3;
/// Rounds per loop.
pub const ROUNDS: usize = 5;
/// Worst-case transport budget each adversary applies to its own data.
const ADVERSARY_BUDGET: f64 = 2.0;
/// Collusion boost: the cohort reports one identical scaled model, forming
/// a single tight cluster for the unguarded filter to absorb. The negative
/// sign makes the colluding cluster *anti-correlated* with the honest
/// decision functions: while the colluders outnumber the largest honest
/// cluster (they do early on, before the honest pool accumulates), every
/// eval device starts its EM chain at the poison mean (the
/// heaviest-component start under `multi_start: false`) and is actively
/// misled rather than just unlucky.
const ADVERSARY_SCALE: f64 = -2.0;

/// The two-cluster task family every loop draws from (the chaos and
/// end-to-end suites use it too).
pub fn family_config() -> TaskFamilyConfig {
    TaskFamilyConfig {
        dim: 4,
        num_clusters: 2,
        cluster_separation: 4.0,
        within_cluster_std: 0.2,
        label_noise: 0.02,
        steepness: 3.0,
    }
}

/// Loop device runtime: keep-alive fetches, a breaker that trips after two
/// failures and cools down in one step, a 2-step stale-prior TTL. Eval
/// devices run with `report_models: false`, reporters with `true`.
pub fn runtime_config(report_models: bool, device_id: u64) -> EdgeRuntimeConfig {
    EdgeRuntimeConfig {
        task_id: TASK_ID,
        device_id,
        learner: fleet_learner_config(),
        erm_lambda: FLOOR_ERM_LAMBDA,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_steps: 1,
            cooldown_jitter: 0,
            seed: 0,
        },
        stale_ttl: 2,
        report_models,
        keep_alive: true,
    }
}

/// The admission gate the poisoned loops run: `base` with its warmup
/// matched to the learner's `min_reports_for_base` (4), so the baseline is
/// armed from the moment the filter is born, and a margin of 8 nats placed
/// between the honest score spread (observed worst honest report ≈ 6.5
/// nats below the rolling 10th percentile at seeds 7500 and 9100) and the
/// colluders' first-contact marginals (≈ 13 nats below it).
pub fn loop_admission(base: AdmissionConfig) -> AdmissionConfig {
    AdmissionConfig {
        warmup: 4,
        margin: 8.0,
        ..base
    }
}

/// Loopback server configuration with 2 s socket timeouts.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        ..ServeConfig::default()
    }
}

/// Three attempts with millisecond backoff.
pub fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        jitter_seed: 13,
    }
}

/// One broad zero-centered component over the family's packed `[w…, b]`
/// parameters — the uninformative prior the loop starts from.
///
/// # Panics
///
/// Never: the covariance is a scaled identity.
pub fn broad_prior() -> MixturePrior {
    let p = family_config().dim + 1;
    MixturePrior::single(vec![0.0; p], Matrix::identity(p).scaled(25.0))
        .expect("a scaled identity is a valid covariance")
}

/// The streaming learner every loop runs: a SIR filter seeded with `seed`,
/// a base prior once 4 reports have arrived, and no interval refresh (each
/// round publishes explicitly; the interval only has to not fire
/// mid-drain).
///
/// # Panics
///
/// Panics if `admission` is invalid.
pub fn loop_learner(seed: u64, admission: Option<AdmissionConfig>) -> CloudLearner {
    CloudLearner::try_new(LearnerConfig {
        sir: SirConfig {
            seed,
            ..SirConfig::default()
        },
        refresh_interval: usize::MAX,
        min_reports_for_base: 4,
        admission,
    })
    .expect("valid admission config")
}

/// The fixed loop scenario: a data-rich reporter pool (each reporter joins
/// and reports once) and a few-shot eval cohort drawn by
/// [`covered_devices`] under a reference batch cloud prior.
pub struct Scenario {
    /// Reporter training sets (30 samples each), in joining order.
    pub reporters: Vec<Dataset>,
    /// The eval cohort.
    pub evals: Vec<CoveredDevice>,
}

impl Scenario {
    /// Mean eval accuracy under the full offline batch-fitted cloud prior:
    /// the ceiling the streaming learner approximates.
    pub fn batch_prior_ceiling(&self) -> f64 {
        self.evals.iter().map(|d| d.prior_acc).sum::<f64>() / self.evals.len() as f64
    }
}

/// Builds the scenario at `seed` with a pool of `reporters` reporters.
///
/// The pool size is part of the scenario: the eval cohort is drawn after
/// the pool from the same seeded stream.
///
/// # Panics
///
/// Panics if the cloud pipeline fails or no covered cohort can be drawn.
pub fn scenario(seed: u64, reporters: usize) -> Scenario {
    let mut rng = seeded_rng(seed);
    let family = TaskFamily::generate(&family_config(), &mut rng).expect("valid family config");
    let cloud = CloudKnowledge::from_family(&family, 24, 300, 1.0, &mut rng)
        .expect("cloud pipeline failed");
    let reporters = (0..reporters)
        .map(|_| {
            let task = family.sample_task(&mut rng);
            let train = task.generate(30, &mut rng);
            // Each reporter also draws a held-out set that nothing reads;
            // the draw stays so the eval cohort keeps its seeded samples.
            task.generate(100, &mut rng);
            train
        })
        .collect();
    let evals = covered_devices(&family, cloud.prior(), EVALS, &mut rng);
    Scenario { reporters, evals }
}

/// Who takes part in one loop run.
#[derive(Debug)]
pub struct Cohort {
    /// Honest reporters joining per round; round `r` runs reporters
    /// `r·honest .. (r+1)·honest`, each a fresh device with that index as
    /// its id.
    pub honest: usize,
    /// Colluding adversaries per round. They keep persistent identities
    /// and monotone sequence numbers (well-formed traffic, so gating is
    /// semantic) and each reports the same boosted model every round.
    pub adversaries: usize,
    /// Seed of the learner's SIR filter.
    pub learner_seed: u64,
    /// Whether the learner drains and publishes each round; `false` is the
    /// frozen-prior baseline.
    pub refresh: bool,
    /// The learner's admission gate, if any.
    pub admission: Option<AdmissionConfig>,
}

/// Everything one loop run produces that must be seed-deterministic.
#[derive(Debug, PartialEq)]
pub struct LoopOutcome {
    /// Mean eval accuracy per round.
    pub round_accuracy: Vec<f64>,
    /// Eval-device final fitted parameters (bit-exact).
    pub final_models: Vec<Vec<f64>>,
    /// Final refreshed prior payload (empty when frozen).
    pub final_payload: Vec<u8>,
    /// Server cache generation after each round.
    pub generations: Vec<u64>,
    /// Per-eval-client `(connections, reused_connections)`.
    pub eval_connections: Vec<(u64, u64)>,
    /// Reports the learner absorbed in total.
    pub absorbed: usize,
    /// Reports the admission gate refused in total.
    pub gated: usize,
    /// Devices the reputation ledger quarantined in total.
    pub quarantined: usize,
    /// The server's deterministic counters at the end of the run.
    pub counters: Vec<u64>,
}

/// Runs the closed loop over real loopback TCP (see the module docs for
/// the round order).
///
/// # Panics
///
/// Panics if the loopback plane fails, an eval or reporter fit degrades
/// below a fresh prior, a reporter does not report, or the wire refuses a
/// well-formed adversary frame.
pub fn run(sc: &Scenario, cohort: &Cohort) -> LoopOutcome {
    let mut server = PriorServer::bind("127.0.0.1:0", serve_config()).expect("bind loopback");
    let addr = server.addr();
    let state = Arc::clone(server.state());
    state.register_prior(TASK_ID, &broad_prior());

    let mut eval_rts: Vec<_> = (0..sc.evals.len())
        .map(|dev| {
            EdgeRuntime::new(
                TcpConnector::new(addr),
                fast_policy(),
                runtime_config(false, 10_000 + dev as u64),
            )
        })
        .collect();
    let mut adversaries: Vec<_> = (0..cohort.adversaries)
        .map(|_| PriorClient::new(TcpConnector::new(addr), fast_policy()))
        .collect();
    // True collusion: every adversary derives its poison from the same
    // fixed (honest-looking) dataset, so the cohort reports one identical
    // model every round. Those identical reports form the single heaviest
    // DP cluster — honest reports split across the family's task clusters
    // — which is exactly the shape that captures an unguarded
    // heaviest-component start.
    let poison = poisoned_report(
        AdversaryKind::ColludingBoost {
            budget: ADVERSARY_BUDGET,
            scale: ADVERSARY_SCALE,
        },
        &sc.reporters[0],
        FLOOR_ERM_LAMBDA,
    )
    .expect("poison fits");

    let mut learner = loop_learner(cohort.learner_seed, cohort.admission.clone());
    let mut sink = Arc::clone(&state);
    let mut out = LoopOutcome {
        round_accuracy: Vec::with_capacity(ROUNDS),
        final_models: vec![Vec::new(); sc.evals.len()],
        final_payload: Vec::new(),
        generations: Vec::with_capacity(ROUNDS),
        eval_connections: Vec::new(),
        absorbed: 0,
        gated: 0,
        quarantined: 0,
        counters: Vec::new(),
    };

    for round in 0..ROUNDS {
        let mut acc = 0.0;
        for (dev, rt) in eval_rts.iter_mut().enumerate() {
            let data = &sc.evals[dev];
            let fit = rt.fit_step(&data.train).expect("eval fit");
            assert_eq!(fit.mode, FitMode::FreshPrior, "eval {dev} degraded");
            acc += metrics::accuracy(&fit.model, data.test.features(), data.test.labels())
                .expect("eval");
            out.final_models[dev] = fit.model.to_packed();
        }
        out.round_accuracy.push(acc / sc.evals.len() as f64);

        for dev in round * cohort.honest..(round + 1) * cohort.honest {
            let mut rt = EdgeRuntime::new(
                TcpConnector::new(addr),
                fast_policy(),
                runtime_config(true, dev as u64),
            );
            let fit = rt.fit_step(&sc.reporters[dev]).expect("reporter fit");
            assert_eq!(fit.mode, FitMode::FreshPrior, "reporter {dev} degraded");
            assert!(fit.reported, "reporter {dev} did not report");
        }
        for (k, client) in adversaries.iter_mut().enumerate() {
            let accepted = client
                .report_model(TASK_ID, 50_000 + k as u64, round as u64 + 1, poison.clone())
                .expect("adversary report");
            assert!(
                accepted,
                "the wire admits well-formed frames; gating is semantic"
            );
        }

        if cohort.refresh {
            let tick = learner
                .absorb(state.take_reports(), &mut sink)
                .expect("absorb");
            state.note_admission_outcomes(tick.gated as u64, tick.quarantined as u64);
            out.absorbed += tick.absorbed;
            out.gated += tick.gated;
            out.quarantined += tick.quarantined;
            learner.force_refresh(&mut sink).expect("publish");
        }
        out.generations.push(state.cache_generation());
    }

    if cohort.refresh {
        out.final_payload = state
            .prior_entry(TASK_ID)
            .expect("published prior")
            .payload
            .as_ref()
            .clone();
    }
    out.eval_connections = eval_rts
        .iter()
        .map(|rt| {
            let m = rt.client().metrics();
            (m.connections, m.reused_connections)
        })
        .collect();
    out.counters = state.metrics().deterministic_counters().to_vec();
    server.shutdown();
    out
}
