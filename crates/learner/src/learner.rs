//! The cloud-side refresh loop: drain reported models, fold them into
//! per-task SIR filters, and periodically collapse the ensembles back into
//! the served DP prior.
//!
//! ```text
//!  edges ──ModelReport──▶ PriorServer inbox ──take_reports()──▶ CloudLearner
//!                                                                   │
//!                              per-task SirDpFilter ◀── absorb ─────┘
//!                                       │ every refresh_interval reports
//!                                       ▼
//!                              to_mixture_prior()
//!                                       │
//!  edges ◀──PriorResponse── PriorSink::publish (ServerState /
//!                                               ShardedPriorPlane fan-out)
//! ```
//!
//! Publishing goes through [`PriorSink`], so the same learner drives a
//! single [`PriorServer`](dre_serve::PriorServer) or a whole
//! [`ShardedPriorPlane`] — the sharded impl fans the refreshed prior out to
//! every owner replica byte-identically, and keep-alive clients adopt the
//! new generation via the lock-free snapshot path with zero reconnects.
//!
//! Everything is deterministic: tasks refresh in ascending `task_id` order
//! (a `BTreeMap`), reports fold in arrival order, and the filters are
//! seeded — the same report sequence always publishes bit-identical priors.

use std::collections::BTreeMap;
use std::sync::Arc;

use dre_bayes::MixturePrior;
use dre_prob::NormalInverseWishart;
use dre_serve::shard::ShardedPriorPlane;
use dre_serve::{ReportedModel, ServerHandle, ServerState};

use crate::admission::{AdmissionConfig, AdmissionOutcome, AdmissionState};
use crate::sir::{SirConfig, SirDpFilter};
use crate::Result;

/// Where refreshed priors go. Implemented for a shared [`ServerState`],
/// a running server's [`ServerHandle`] and a [`ShardedPriorPlane`]
/// (replica fan-out).
pub trait PriorSink {
    /// Registers (or replaces) the prior served for `task_id`.
    fn publish(&mut self, task_id: u64, prior: &MixturePrior);
}

impl PriorSink for Arc<ServerState> {
    fn publish(&mut self, task_id: u64, prior: &MixturePrior) {
        self.register_prior(task_id, prior);
    }
}

impl PriorSink for ServerHandle {
    fn publish(&mut self, task_id: u64, prior: &MixturePrior) {
        self.register_prior(task_id, prior);
    }
}

impl PriorSink for ShardedPriorPlane {
    fn publish(&mut self, task_id: u64, prior: &MixturePrior) {
        self.register_prior(task_id, prior);
    }
}

/// Configuration for [`CloudLearner`].
#[derive(Debug, Clone)]
pub struct LearnerConfig {
    /// Particle-filter configuration shared by every task's filter (the
    /// effective seed is mixed with the task id, so tasks do not share RNG
    /// streams).
    pub sir: SirConfig,
    /// Publish a refreshed prior after absorbing this many reports per
    /// task (and once more on [`CloudLearner::force_refresh`]).
    pub refresh_interval: usize,
    /// Buffer this many reports before fitting the data-scaled base
    /// measure and starting the filter. The base needs a pooled variance,
    /// so at least two reports are always required.
    pub min_reports_for_base: usize,
    /// Byzantine-robust report admission (predictive gating + reputation
    /// ledger). `None` absorbs every report unconditionally, exactly the
    /// pre-admission behaviour.
    pub admission: Option<AdmissionConfig>,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            sir: SirConfig::default(),
            refresh_interval: 8,
            min_reports_for_base: 4,
            admission: None,
        }
    }
}

/// What one [`CloudLearner::absorb`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LearnerTick {
    /// Reports folded into filters (or buffered toward a base fit).
    pub absorbed: usize,
    /// Reports refused by admission this pass (gated plus quarantine
    /// drops); always zero with admission disabled.
    pub gated: usize,
    /// Devices newly quarantined this pass (transitions, not population).
    pub quarantined: usize,
    /// Reports dropped this pass without touching any filter. Empty,
    /// wrong-dimension, non-finite or out-of-scale parameters (a component
    /// beyond [`CloudLearner::max_report_magnitude`]) are dropped before
    /// admission sees them, so the rest of the batch folds exactly as if
    /// they were absent. A finite report some particle cannot absorb (its
    /// distance to a cluster mean overflows) is dropped after admission
    /// scored it, leaving the filter unchanged; a buffered report that
    /// fails this way when the filter is born counts here in that pass.
    pub malformed: usize,
    /// Tasks whose refreshed prior was published this pass, ascending.
    pub refreshed_tasks: Vec<u64>,
}

/// Per-task streaming state: reports buffered until the base measure
/// exists, then a live SIR filter.
#[derive(Debug)]
struct TaskLearner {
    pending: Vec<Vec<f64>>,
    filter: Option<SirDpFilter>,
    since_refresh: usize,
}

/// Streaming cloud learner (see module docs).
#[derive(Debug)]
pub struct CloudLearner {
    config: LearnerConfig,
    tasks: BTreeMap<u64, TaskLearner>,
    admission: Option<AdmissionState>,
    refreshes: u64,
}

/// Data-scaled NIW base over reported models: pooled mean, pooled isotropic
/// variance floored at `1e-3`, weak `κ₀ = 0.05`, minimal proper
/// `ν₀ = p + 2` — the same construction the batch cloud fit uses, so the
/// streaming path explores the same posterior family.
fn niw_base_for(reports: &[Vec<f64>]) -> Result<NormalInverseWishart> {
    let p = reports[0].len();
    let n = reports.len() as f64;
    let mut mean = vec![0.0; p];
    for t in reports {
        dre_linalg::vector::axpy(1.0 / n, t, &mut mean);
    }
    let mut pooled_var = 0.0;
    for t in reports {
        pooled_var += dre_linalg::vector::dist2_sq(t, &mean);
    }
    pooled_var = (pooled_var / (n * p as f64)).max(1e-3);
    let psi = dre_linalg::Matrix::from_diag(&vec![pooled_var; p]);
    Ok(NormalInverseWishart::new(mean, 0.05, psi, p as f64 + 2.0)?)
}

impl CloudLearner {
    /// Creates an idle learner; filters are born per task as reports arrive.
    ///
    /// An invalid admission configuration is surfaced lazily as a disabled
    /// gate (construction stays infallible for callers that never enable
    /// admission); use [`CloudLearner::try_new`] to surface the error.
    pub fn new(config: LearnerConfig) -> CloudLearner {
        let admission = config
            .admission
            .clone()
            .and_then(|a| AdmissionState::new(a).ok());
        CloudLearner {
            config,
            tasks: BTreeMap::new(),
            admission,
            refreshes: 0,
        }
    }

    /// Like [`CloudLearner::new`] but rejects invalid admission settings.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range [`AdmissionConfig`].
    pub fn try_new(config: LearnerConfig) -> Result<CloudLearner> {
        let admission = match config.admission.clone() {
            Some(a) => Some(AdmissionState::new(a)?),
            None => None,
        };
        Ok(CloudLearner {
            config,
            tasks: BTreeMap::new(),
            admission,
            refreshes: 0,
        })
    }

    /// The admission controller, when enabled — reputation ledger, gate
    /// thresholds, and gating totals live here.
    pub fn admission(&self) -> Option<&AdmissionState> {
        self.admission.as_ref()
    }

    /// Total refreshed priors published so far (across tasks).
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Task ids with any learner state, ascending.
    pub fn task_ids(&self) -> Vec<u64> {
        self.tasks.keys().copied().collect()
    }

    /// Reports absorbed into the filter for `task_id` (excluding any still
    /// buffered toward the base fit).
    pub fn filter_observations(&self, task_id: u64) -> usize {
        self.tasks
            .get(&task_id)
            .and_then(|t| t.filter.as_ref())
            .map_or(0, SirDpFilter::num_observations)
    }

    /// Cluster count of the maximum-weight particle for `task_id` (0 until
    /// the filter is born).
    pub fn filter_map_clusters(&self, task_id: u64) -> usize {
        self.tasks
            .get(&task_id)
            .and_then(|t| t.filter.as_ref())
            .map_or(0, SirDpFilter::map_num_clusters)
    }

    /// Resampling events in the filter for `task_id`.
    pub fn filter_resamples(&self, task_id: u64) -> u64 {
        self.tasks
            .get(&task_id)
            .and_then(|t| t.filter.as_ref())
            .map_or(0, SirDpFilter::resamples)
    }

    /// Folds a batch of drained reports into the per-task filters and
    /// publishes a refreshed prior for every task that crossed
    /// `refresh_interval` absorbed reports since its last publish.
    ///
    /// Malformed reports are skipped and counted in
    /// [`LearnerTick::malformed`]; they never discard the rest of the batch.
    ///
    /// # Errors
    ///
    /// Returns an error on a degenerate base fit or a failed collapse.
    pub fn absorb<S: PriorSink>(
        &mut self,
        reports: Vec<ReportedModel>,
        sink: &mut S,
    ) -> Result<LearnerTick> {
        let mut tick = LearnerTick::default();
        for r in reports {
            if !self.well_formed(&r) {
                tick.malformed += 1;
                continue;
            }
            let entry = self.tasks.entry(r.task_id).or_insert_with(|| TaskLearner {
                pending: Vec::new(),
                filter: None,
                since_refresh: 0,
            });
            if let Some(adm) = &mut self.admission {
                // Score with the collapsed predictive marginal when the
                // filter exists; pre-base reports pass unscored (the gate
                // has no baseline yet) but quarantine still holds. The
                // memoizing scorer lets an admitted report's push reuse
                // the per-particle rows computed here.
                let score = match &mut entry.filter {
                    Some(f) => Some(f.score_report(&r.params)?),
                    None => None,
                };
                match adm.admit(r.task_id, r.device_id, score) {
                    AdmissionOutcome::Admitted => {}
                    AdmissionOutcome::Gated { quarantined_device } => {
                        tick.gated += 1;
                        tick.quarantined += usize::from(quarantined_device);
                        continue;
                    }
                    AdmissionOutcome::Quarantined { .. } => {
                        tick.gated += 1;
                        continue;
                    }
                }
            }
            match &mut entry.filter {
                Some(f) => {
                    if f.push(&r.params).is_err() {
                        tick.malformed += 1;
                        continue;
                    }
                }
                None => {
                    entry.pending.push(r.params);
                    if entry.pending.len() >= self.config.min_reports_for_base.max(2) {
                        let base = niw_base_for(&entry.pending)?;
                        let mut sir = self.config.sir.clone();
                        // Distinct stream per task family.
                        sir.seed = sir.seed.wrapping_add(r.task_id.wrapping_mul(0x9E37));
                        let mut f = SirDpFilter::new(base, sir)?;
                        let pending = std::mem::take(&mut entry.pending);
                        for x in &pending {
                            if f.push(x).is_err() {
                                tick.malformed += 1;
                            }
                        }
                        // Seed the gate baseline with the base cohort's own
                        // marginals, so the gate is armed the moment the
                        // filter exists — a poisoned report arriving right
                        // after birth must not ride an empty window in.
                        if let Some(adm) = &mut self.admission {
                            for x in &pending {
                                adm.seed_baseline(r.task_id, f.predictive_log_marginal(x)?);
                            }
                        }
                        entry.filter = Some(f);
                    }
                }
            }
            entry.since_refresh += 1;
            tick.absorbed += 1;
        }
        let interval = self.config.refresh_interval.max(1);
        for (&task_id, t) in &mut self.tasks {
            if t.since_refresh >= interval {
                if let Some(f) = &t.filter {
                    sink.publish(task_id, &f.to_mixture_prior()?);
                    t.since_refresh = 0;
                    self.refreshes += 1;
                    tick.refreshed_tasks.push(task_id);
                }
            }
        }
        Ok(tick)
    }

    /// Largest component magnitude `B` a report of dimension `d` may carry:
    /// `B = √(f64::MAX / (d · 2⁶⁶))`, about `1.1e144` at `d = 2`.
    ///
    /// Below `B` no accepted stream can overflow a task's filter. With
    /// every accepted `|xᵢ| ≤ B`, the data-scaled base fitted from accepted
    /// reports has `|μ₀ᵢ| ≤ B`, `κ₀ < 1` and `Ψ₀ = σ²I` with
    /// `10⁻³ ≤ σ² ≤ 4B²`. A cluster of `n` reports then has
    /// `|Σxxᵀ|, |n·x̄x̄ᵀ| ≤ nB²`, so its scatter and posterior scale
    /// `Ψₙ = Ψ₀ + S + κ₀n/(κ₀ + n)·(x̄ − μ₀)(x̄ − μ₀)ᵀ` have entries below
    /// `(2n + 9)B²`, and a Cholesky inner product of `d` such terms stays
    /// below `d(2n + 9)B²`. Scoring a report against the cluster forms a
    /// Mahalanobis distance of at most `‖x − μₙ‖² / λ_min ≤ 4dB² · (n + 3)
    /// · 10³`, since `Ψₙ ⪰ 10⁻³I` and the predictive scale divides by
    /// `νₙ − d + 1 = n + 3`. For `n < 2⁵³` (past which a count is no longer
    /// exact in `f64`) both bounds are below `d · 2⁶⁶ · B² = f64::MAX`.
    pub fn max_report_magnitude(d: usize) -> f64 {
        (f64::MAX / (d.max(1) as f64 * 2f64.powi(66))).sqrt()
    }

    /// True when `r` carries parameters of its task's dimension (the
    /// filter's base dimension once it exists, else the buffered reports';
    /// the first report of a task sets it) that are finite and within
    /// [`CloudLearner::max_report_magnitude`].
    fn well_formed(&self, r: &ReportedModel) -> bool {
        let expected = self.tasks.get(&r.task_id).and_then(|t| match &t.filter {
            Some(f) => Some(f.base().dim()),
            None => t.pending.first().map(Vec::len),
        });
        let bound = Self::max_report_magnitude(r.params.len());
        !r.params.is_empty()
            && expected.is_none_or(|d| r.params.len() == d)
            && r.params.iter().all(|v| v.abs() <= bound)
    }

    /// Publishes the current prior for every task with a live filter,
    /// regardless of the refresh interval — the end-of-round flush.
    ///
    /// # Errors
    ///
    /// Propagates collapse failures.
    pub fn force_refresh<S: PriorSink>(&mut self, sink: &mut S) -> Result<Vec<u64>> {
        let mut refreshed = Vec::new();
        for (&task_id, t) in &mut self.tasks {
            if let Some(f) = &t.filter {
                sink.publish(task_id, &f.to_mixture_prior()?);
                t.since_refresh = 0;
                self.refreshes += 1;
                refreshed.push(task_id);
            }
        }
        Ok(refreshed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dro_edge::transfer::serialize_prior;

    fn report(task_id: u64, device_id: u64, seq: u64, params: &[f64]) -> ReportedModel {
        ReportedModel {
            task_id,
            device_id,
            seq,
            params: params.to_vec(),
        }
    }

    fn clustered_reports(task_id: u64, n: usize, seed: u64) -> Vec<ReportedModel> {
        use dre_prob::{seeded_rng, MvNormal};
        let mut rng = seeded_rng(seed);
        let a = MvNormal::isotropic(vec![3.0, 0.0], 0.05).unwrap();
        let b = MvNormal::isotropic(vec![-3.0, 0.0], 0.05).unwrap();
        (0..n)
            .map(|i| {
                let src = if i % 2 == 0 { &a } else { &b };
                report(
                    task_id,
                    i as u64 % 5,
                    i as u64 / 5 + 1,
                    &src.sample(&mut rng),
                )
            })
            .collect()
    }

    #[test]
    fn refresh_publishes_on_the_interval_and_serves_the_new_generation() {
        let state = Arc::new(ServerState::new());
        let mut sink = Arc::clone(&state);
        let mut learner = CloudLearner::new(LearnerConfig {
            refresh_interval: 8,
            min_reports_for_base: 4,
            ..LearnerConfig::default()
        });
        let before = state.cache_generation();
        let tick = learner
            .absorb(clustered_reports(7, 16, 2), &mut sink)
            .unwrap();
        assert_eq!(tick.absorbed, 16);
        assert_eq!(tick.refreshed_tasks, vec![7]);
        assert!(learner.refreshes() >= 1);
        let entry = state.prior_entry(7).expect("refresh registered a prior");
        assert!(entry.generation > before);
        assert_eq!(learner.filter_observations(7), 16);
    }

    #[test]
    fn same_report_stream_publishes_bit_identical_priors() {
        let run = |seed_reports: u64| {
            let state = Arc::new(ServerState::new());
            let mut sink = Arc::clone(&state);
            let mut learner = CloudLearner::new(LearnerConfig::default());
            learner
                .absorb(clustered_reports(3, 24, seed_reports), &mut sink)
                .unwrap();
            learner.force_refresh(&mut sink).unwrap();
            state.prior_entry(3).unwrap().payload.as_ref().clone()
        };
        assert_eq!(run(5), run(5), "same stream must be bit-identical");
        assert_ne!(run(5), run(6), "different reports must differ");
    }

    #[test]
    fn force_refresh_covers_tasks_below_the_interval() {
        let state = Arc::new(ServerState::new());
        let mut sink = Arc::clone(&state);
        let mut learner = CloudLearner::new(LearnerConfig {
            refresh_interval: 1000,
            ..LearnerConfig::default()
        });
        learner
            .absorb(clustered_reports(1, 10, 9), &mut sink)
            .unwrap();
        assert!(state.prior_entry(1).is_none(), "interval not yet crossed");
        assert_eq!(learner.force_refresh(&mut sink).unwrap(), vec![1]);
        assert!(state.prior_entry(1).is_some());
    }

    #[test]
    fn buffered_reports_wait_for_the_base_then_fold_in_order() {
        let state = Arc::new(ServerState::new());
        let mut sink = Arc::clone(&state);
        let mut learner = CloudLearner::new(LearnerConfig {
            min_reports_for_base: 6,
            refresh_interval: 1000,
            ..LearnerConfig::default()
        });
        let all = clustered_reports(2, 10, 13);
        // Feed one at a time across absorb calls: the first five buffer,
        // the sixth births the filter and replays the backlog in order.
        for (i, r) in all.iter().cloned().enumerate() {
            learner.absorb(vec![r], &mut sink).unwrap();
            let expect = if i + 1 < 6 { 0 } else { i + 1 };
            assert_eq!(learner.filter_observations(2), expect, "after report {i}");
        }
        // Identical to feeding the whole batch at once.
        let mut batch = CloudLearner::new(LearnerConfig {
            min_reports_for_base: 6,
            refresh_interval: 1000,
            ..LearnerConfig::default()
        });
        let mut sink2 = Arc::new(ServerState::new());
        batch.absorb(all, &mut sink2).unwrap();
        let a = learner
            .tasks
            .get(&2)
            .unwrap()
            .filter
            .as_ref()
            .unwrap()
            .to_mixture_prior()
            .unwrap();
        let b = batch
            .tasks
            .get(&2)
            .unwrap()
            .filter
            .as_ref()
            .unwrap()
            .to_mixture_prior()
            .unwrap();
        assert_eq!(serialize_prior(&a), serialize_prior(&b));
    }

    #[test]
    fn admission_gates_a_colluding_cohort_and_reports_counts() {
        use crate::admission::{AdmissionConfig, ReputationState};

        let state = Arc::new(ServerState::new());
        let mut sink = Arc::clone(&state);
        let mut learner = CloudLearner::try_new(LearnerConfig {
            refresh_interval: 1000,
            admission: Some(AdmissionConfig {
                warmup: 8,
                ..AdmissionConfig::default()
            }),
            ..LearnerConfig::default()
        })
        .unwrap();

        // Warm the filter and the gate baseline with honest reports.
        let honest = clustered_reports(1, 24, 17);
        let tick = learner.absorb(honest, &mut sink).unwrap();
        assert_eq!(tick.absorbed, 24);
        assert_eq!(tick.gated, 0, "honest warmup is never gated");

        // A colluding device floods an extreme off-manifold model.
        let poison: Vec<ReportedModel> = (0..12)
            .map(|i| report(1, 99, i + 1, &[80.0, -80.0]))
            .collect();
        let tick = learner.absorb(poison, &mut sink).unwrap();
        assert_eq!(tick.absorbed, 0, "poison must never touch the filter");
        assert_eq!(tick.gated, 12);
        assert_eq!(tick.quarantined, 1, "the cohort device is quarantined");
        assert_eq!(learner.filter_observations(1), 24);
        let adm = learner.admission().unwrap();
        assert_eq!(
            adm.reputation(99).unwrap().state,
            ReputationState::Quarantined
        );

        // Counter folding: the same numbers reach the server metrics the
        // way the harness drain loops fold them.
        state.note_admission_outcomes(tick.gated as u64, tick.quarantined as u64);
        let m = state.metrics();
        assert_eq!(m.reports_gated, 12);
        assert_eq!(m.devices_quarantined, 1);
    }

    #[test]
    fn admission_is_a_no_op_on_honest_traffic() {
        // With nothing to gate, admission ON publishes byte-identical
        // priors to admission OFF — the gate only ever *removes* reports.
        let run = |admission: Option<crate::admission::AdmissionConfig>| {
            let state = Arc::new(ServerState::new());
            let mut sink = Arc::clone(&state);
            let mut learner = CloudLearner::new(LearnerConfig {
                admission,
                ..LearnerConfig::default()
            });
            learner
                .absorb(clustered_reports(3, 24, 5), &mut sink)
                .unwrap();
            learner.force_refresh(&mut sink).unwrap();
            state.prior_entry(3).unwrap().payload.as_ref().clone()
        };
        assert_eq!(
            run(None),
            run(Some(crate::admission::AdmissionConfig::default()))
        );
    }
}
