//! `fleet_round`: the closed fleet loop through the in-memory path.
//!
//! The shape of the repository's closed-loop test: devices start from one
//! broad zero-centred prior; every round the few-shot eval cohort and that
//! round's newly joined reporters run `EdgeRuntime::fit_step` (fetch → fit
//! → report) over a `FaultyConnector` with `FaultConfig::default()` and an
//! in-memory server; then the cloud drains the inbox, `CloudLearner::absorb`
//! runs with admission on (default gate), and `force_refresh` publishes the
//! next generation into the shared `ServerState`. One op is one whole round.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dre_bayes::MixturePrior;
use dre_data::{Dataset, TaskFamily, TaskFamilyConfig};
use dre_learner::{AdmissionConfig, CloudLearner, LearnerConfig, SirConfig};
use dre_linalg::Matrix;
use dre_models::metrics;
use dre_prob::seeded_rng;
use dre_serve::{
    BreakerConfig, EdgeRuntime, EdgeRuntimeConfig, FaultConfig, FaultInjector, FaultyConnector,
    RetryPolicy, ServerState,
};
use dro_edge::{CloudKnowledge, EdgeLearner, EdgeLearnerConfig, FitMode};

use super::{
    add_server_layers, secs, HeapWatch, Outcome, TimedResponder, TimedSink, TracedConnector,
    Workload,
};
use crate::rng::{mix, Digest};
use crate::{alloc, trace};

const TASK_ID: u64 = 9;
/// Seeded episodes replayed per pass.
pub const EPISODES: usize = 160;
/// Rounds per episode.
pub const ROUNDS: usize = 5;
/// Reporters joining per round; each reports once.
pub const REPORTERS_PER_ROUND: usize = 5;
/// Few-shot eval devices, present every round.
pub const EVALS: usize = 3;

fn family_config() -> TaskFamilyConfig {
    TaskFamilyConfig {
        dim: 4,
        num_clusters: 2,
        cluster_separation: 4.0,
        within_cluster_std: 0.2,
        label_noise: 0.02,
        steepness: 3.0,
    }
}

fn learner_config() -> EdgeLearnerConfig {
    EdgeLearnerConfig {
        em_rounds: 3,
        solver_iters: 40,
        multi_start: false,
        ..EdgeLearnerConfig::default()
    }
}

fn runtime_config(report_models: bool, device_id: u64) -> EdgeRuntimeConfig {
    EdgeRuntimeConfig {
        task_id: TASK_ID,
        device_id,
        learner: learner_config(),
        erm_lambda: 1e-3,
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

fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        jitter_seed: 13,
    }
}

/// One broad zero-centred component over packed `[w…, b]` parameters.
pub(crate) fn broad_prior(p: usize) -> MixturePrior {
    MixturePrior::single(vec![0.0; p], Matrix::identity(p).scaled(25.0))
        .expect("an identity-scaled covariance is positive definite")
}

struct DeviceData {
    train: Dataset,
    test: Dataset,
}

/// One seeded episode: a task family, a data-rich reporter pool and a
/// few-shot eval cohort drawn from tasks where a learned prior helps.
struct Episode {
    seed: u64,
    reporters: Vec<DeviceData>,
    evals: Vec<DeviceData>,
}

/// Draws an episode; `None` when the family yields no prior-covered eval
/// cohort within the draw budget (the caller moves to the next sub-seed).
fn draw_episode(seed: u64) -> Option<Episode> {
    let mut rng = seeded_rng(seed);
    let family = TaskFamily::generate(&family_config(), &mut rng).ok()?;
    // Reference batch prior, used only to select prior-covered eval tasks.
    let cloud = CloudKnowledge::from_family(&family, 24, 300, 1.0, &mut rng).ok()?;
    let reporters = (0..REPORTERS_PER_ROUND * ROUNDS)
        .map(|_| {
            let task = family.sample_task(&mut rng);
            DeviceData {
                train: task.generate(30, &mut rng),
                test: task.generate(100, &mut rng),
            }
        })
        .collect();
    let mut evals = Vec::with_capacity(EVALS);
    for _ in 0..60 {
        if evals.len() == EVALS {
            break;
        }
        let task = family.sample_task(&mut rng);
        let train = task.generate(12, &mut rng);
        let test = task.generate(300, &mut rng);
        let erm = dro_edge::baselines::fit_local_erm(&train, 1e-3).ok()?;
        let erm_acc = metrics::accuracy(&erm, test.features(), test.labels()).ok()?;
        let fit = EdgeLearner::new(learner_config(), cloud.prior().clone())
            .ok()?
            .fit(&train)
            .ok()?;
        let dro_acc = metrics::accuracy(&fit.model, test.features(), test.labels()).ok()?;
        if dro_acc > erm_acc + 0.01 {
            evals.push(DeviceData { train, test });
        }
    }
    (evals.len() == EVALS).then_some(Episode {
        seed,
        reporters,
        evals,
    })
}

/// The run's inputs: [`EPISODES`] seeded episodes.
pub struct FleetRound {
    episodes: Vec<Episode>,
}

impl FleetRound {
    /// Generates the inputs for `seed`.
    pub fn inputs(seed: u64) -> Self {
        Self::with_episodes(seed, EPISODES)
    }

    /// Generates `n` episodes for `seed` (the tests use small `n`).
    pub fn with_episodes(seed: u64, n: usize) -> Self {
        let mut episodes = Vec::with_capacity(n);
        let mut sub = 0;
        while episodes.len() < n {
            if let Some(ep) = draw_episode(mix(seed, sub)) {
                episodes.push(ep);
            }
            sub += 1;
        }
        FleetRound { episodes }
    }

    /// Fingerprint of every generated dataset.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for ep in &self.episodes {
            d.u64(ep.seed);
            for dev in ep.reporters.iter().chain(&ep.evals) {
                for set in [&dev.train, &dev.test] {
                    for x in set.features() {
                        d.f64s(x);
                    }
                    d.f64s(set.labels());
                }
            }
        }
        d.finish()
    }
}

type Device = EdgeRuntime<TracedConnector<FaultyConnector<TimedResponder>>>;

fn device(state: &Arc<ServerState>, seed: u64, report: bool, id: u64) -> Device {
    let connector = FaultyConnector::new(
        TimedResponder::new(Arc::clone(state)),
        FaultInjector::new(mix(seed, id), FaultConfig::default()),
    );
    EdgeRuntime::new(
        TracedConnector(connector),
        policy(),
        runtime_config(report, id),
    )
}

/// One device step inside an `edge.step` span; a failed step or a fit that
/// did not run on a freshly fetched prior is counted as failed.
fn step(
    out: &mut Outcome,
    rt: &mut Device,
    data: &Dataset,
    id: u64,
    must_report: bool,
) -> Option<dre_models::LinearModel> {
    out.attempted += 1;
    let fit = match trace::timed("edge.step", id, || rt.fit_step(data)) {
        Ok(fit) => fit,
        Err(e) => {
            out.failed += 1;
            out.problem(format!("device {id}: fit_step failed: {e}"));
            return None;
        }
    };
    if fit.mode != FitMode::FreshPrior || (must_report && !fit.reported) {
        out.failed += 1;
        out.problem(format!(
            "device {id}: fit mode {:?}, reported {} (want FreshPrior, reported)",
            fit.mode, fit.reported
        ));
    }
    Some(fit.model)
}

impl Workload for FleetRound {
    fn pass(&self, out: &mut Outcome) -> u64 {
        let mut fp = Digest::default();
        let (mut first_acc, mut final_acc) = (0.0, 0.0);
        let mut round_id = 0u64;
        for ep in &self.episodes {
            let p = family_config().dim + 1;
            let heap = HeapWatch::start();
            let setup = Instant::now();
            let state = Arc::new(ServerState::new());
            state.register_prior(TASK_ID, &broad_prior(p));
            let mut evals: Vec<Device> = (0..EVALS as u64)
                .map(|k| device(&state, ep.seed, false, 10_000 + k))
                .collect();
            let mut learner = CloudLearner::try_new(LearnerConfig {
                sir: SirConfig {
                    seed: ep.seed,
                    ..SirConfig::default()
                },
                // The per-round flush publishes; the interval never fires.
                refresh_interval: usize::MAX,
                min_reports_for_base: 4,
                admission: Some(AdmissionConfig::default()),
            })
            .expect("the default admission config is valid");
            let mut sink = TimedSink(Arc::clone(&state));
            out.setup_s.push(secs(setup));

            let (mut offered, mut absorbed, mut gated, mut quarantined) = (0, 0, 0, 0);
            for round in 0..ROUNDS {
                round_id += 1;
                let generation = state.cache_generation();
                let fitted_against = trace::enabled().then(|| {
                    let entry = state.prior_entry(TASK_ID).expect("task registered");
                    dro_edge::transfer::deserialize_prior(&entry.payload)
                        .expect("the served payload decodes")
                });
                let mut models = Vec::with_capacity(EVALS + REPORTERS_PER_ROUND);
                let allocs = alloc::calls();
                let started = Instant::now();
                let op = trace::span("op.round", round_id);
                let mut acc = 0.0;
                for (k, rt) in evals.iter_mut().enumerate() {
                    let data = &ep.evals[k];
                    let model = step(out, rt, &data.train, 10_000 + k as u64, false);
                    if let Some(model) = model {
                        let scored = trace::timed("edge.eval", k as u64, || {
                            metrics::accuracy(&model, data.test.features(), data.test.labels())
                        });
                        match scored {
                            Ok(a) => acc += a,
                            Err(e) => out.problem(format!("eval device {k}: accuracy failed: {e}")),
                        }
                        models.push((model, &data.train));
                    }
                }
                let joined = round * REPORTERS_PER_ROUND..(round + 1) * REPORTERS_PER_ROUND;
                for dev in joined {
                    let id = dev as u64;
                    let mut rt = device(&state, ep.seed, true, id);
                    let data = &ep.reporters[dev].train;
                    if let Some(model) = step(out, &mut rt, data, id, true) {
                        models.push((model, data));
                    }
                }
                let reports = trace::timed("serve.drain", round_id, || state.take_reports());
                offered += reports.len();
                out.attempted += 2;
                let tick = trace::timed("learner.absorb", round_id, || {
                    learner.absorb(reports, &mut sink)
                });
                match tick {
                    Ok(tick) => {
                        state.note_admission_outcomes(tick.gated as u64, tick.quarantined as u64);
                        absorbed += tick.absorbed;
                        gated += tick.gated;
                        quarantined += tick.quarantined;
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.problem(format!("round {round_id}: absorb failed: {e}"));
                    }
                }
                if let Err(e) = trace::timed("learner.refresh", round_id, || {
                    learner.force_refresh(&mut sink)
                }) {
                    out.failed += 1;
                    out.problem(format!("round {round_id}: refresh failed: {e}"));
                }
                drop(op);
                let round_s = secs(started);
                out.allocs += alloc::calls() - allocs;
                out.op_ms.push(round_s * 1e3);
                out.window((EVALS + REPORTERS_PER_ROUND) as u64, round_s);

                let acc = acc / EVALS as f64;
                fp.u64(acc.to_bits());
                if round == 0 {
                    first_acc += acc;
                }
                if round + 1 == ROUNDS {
                    final_acc += acc;
                }
                out.check(state.cache_generation() == generation + 1, || {
                    format!(
                        "round {round_id}: generation went {generation} -> {} (want one publish)",
                        state.cache_generation()
                    )
                });
                if let Some(prior) = fitted_against {
                    replay_fits(out, &prior, &models, round_id);
                }
            }
            let entry = state.prior_entry(TASK_ID).expect("task registered");
            fp.bytes(&entry.payload);
            fp.u64(entry.generation);
            for (k, rt) in evals.iter().enumerate() {
                let trace = rt.mode_trace();
                out.check(trace.iter().all(|m| *m == FitMode::FreshPrior), || {
                    format!("eval device {k}: mode trace {trace:?}")
                });
            }
            out.add_layer("learner.offered", offered as f64);
            out.add_layer("learner.absorbed", absorbed as f64);
            out.add_layer("learner.gated", gated as f64);
            out.add_layer("learner.quarantined", quarantined as f64);
            out.add_layer(
                "learner.resamples",
                learner.filter_resamples(TASK_ID) as f64,
            );
            out.add_layer(
                "learner.map_clusters",
                learner.filter_map_clusters(TASK_ID) as f64 / self.episodes.len() as f64,
            );
            let threshold = learner
                .admission()
                .and_then(|a| a.gate_threshold(TASK_ID))
                .unwrap_or(0.0);
            out.add_layer(
                "learner.gate_threshold",
                threshold / self.episodes.len() as f64,
            );
            heap.finish(out);
            add_server_layers(out, &state, self.episodes.len());
        }
        // Quality, not correctness: whether the learned prior beats the
        // broad one depends on the episode (see the README), so the first
        // and final rounds are both reported and neither is gated.
        out.add_layer(
            "edge.eval_accuracy_first",
            first_acc / self.episodes.len() as f64,
        );
        out.add_layer("edge.eval_accuracy", final_acc / self.episodes.len() as f64);
        fp.finish()
    }
}

/// Traced runs only, outside the timed round: refits every device of the
/// round against the prior it fetched, to count EM rounds (the runtime does
/// not expose them) and to check that the runtime fitted exactly that.
fn replay_fits(
    out: &mut Outcome,
    prior: &MixturePrior,
    models: &[(dre_models::LinearModel, &Dataset)],
    round_id: u64,
) {
    for (model, data) in models {
        let fit = EdgeLearner::new(learner_config(), prior.clone()).and_then(|l| l.fit(data));
        match fit {
            Ok(fit) => {
                out.add_layer("edge.fits", 1.0);
                out.add_layer("edge.em_rounds_total", fit.em_rounds as f64);
                out.check(fit.model.to_packed() == model.to_packed(), || {
                    format!("round {round_id}: replayed fit differs from the runtime's fit")
                });
            }
            Err(e) => out.problem(format!("round {round_id}: replayed fit failed: {e}")),
        }
    }
}
