//! The edge-side EM (majorize–minimize) learner.

use dre_bayes::MixturePrior;
use dre_data::Dataset;
use dre_models::{LinearModel, LogisticLoss};
use dre_optim::{Bfgs, InverseHessian, StopCriteria};
use dre_robust::{WassersteinBall, WassersteinDualObjective};

use crate::{DroDpObjective, EdgeError, EdgeLearnerConfig, Result};

/// Outcome of an [`EdgeLearner::fit`].
#[derive(Debug, Clone)]
pub struct EdgeFitReport {
    /// The learned edge model.
    pub model: LinearModel,
    /// The **exact** objective — un-smoothed dual robust risk plus
    /// `(ρ/n)·(−log π(θ))` — after initialization and after each EM round.
    /// The majorize–minimize construction makes this non-increasing (up to
    /// the inner solver's smoothing gap), which experiment E4 plots.
    pub objective_trace: Vec<f64>,
    /// Number of EM rounds executed.
    pub em_rounds: usize,
    /// Final responsibilities over the prior's components — which cloud
    /// cluster the device was matched to.
    pub responsibilities: Vec<f64>,
    /// Duality-certified worst-case risk of the final model over the
    /// configured ambiguity ball.
    pub robust_risk: f64,
    /// Solver iterations summed over the chain's M-steps.
    pub m_step_iterations: usize,
    /// Objective evaluations — one pass over the local dual each — summed
    /// over the chain's M-steps.
    pub m_step_evaluations: usize,
    /// M-steps that stopped at the `solver_iters` budget instead of a
    /// tolerance.
    pub m_steps_capped: usize,
}

impl EdgeFitReport {
    /// Index of the prior component with the highest responsibility.
    pub fn dominant_component(&self) -> usize {
        self.responsibilities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite responsibilities"))
            .map(|(i, _)| i)
            .expect("prior has at least one component")
    }
}

/// The paper's edge learner: DRO over a Wasserstein ball around the local
/// empirical distribution, with the cloud's DP mixture prior, solved by an
/// EM-inspired sequence of convex programs.
///
/// Each round performs:
///
/// 1. **E-step** — responsibilities `r_k ∝ w_k N(θ_t; μ_k, Σ_k)` under the
///    transferred prior;
/// 2. **M-step** — minimize the convex surrogate
///    `smoothed-dual(w, b, s) + (ρ/n)·q_r(w, b)` with BFGS, warm-started
///    at `θ_t` and at the inverse-Hessian estimate the previous round ended
///    with.
///
/// Because `q_r` majorizes `−log π` tightly at `θ_t`, each round can only
/// decrease the exact objective (up to the dual smoothing gap).
#[derive(Debug, Clone)]
pub struct EdgeLearner {
    config: EdgeLearnerConfig,
    prior: MixturePrior,
}

impl EdgeLearner {
    /// Creates a learner from a configuration and a transferred prior.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidConfig`] for out-of-domain configuration
    /// values.
    pub fn new(config: EdgeLearnerConfig, prior: MixturePrior) -> Result<Self> {
        config.validate()?;
        Ok(EdgeLearner { config, prior })
    }

    /// The configuration.
    pub fn config(&self) -> &EdgeLearnerConfig {
        &self.config
    }

    /// The transferred prior.
    pub fn prior(&self) -> &MixturePrior {
        &self.prior
    }

    /// The exact objective `exact-dual-robust-risk + (ρ/n)(−log π)` of a
    /// packed model `[w…, b]`.
    ///
    /// # Errors
    ///
    /// Propagates dataset validation failures.
    pub fn exact_objective(&self, data: &Dataset, packed_model: &[f64]) -> Result<f64> {
        let ball = WassersteinBall::new(self.config.epsilon, self.config.kappa)?;
        let dual =
            WassersteinDualObjective::new(data.features(), data.labels(), LogisticLoss, ball)?;
        Ok(self.objective_with(&dual, data.len(), packed_model).1)
    }

    /// [`Self::exact_objective`] over an already-built dual of `n` samples,
    /// as `(exact robust risk, exact objective)`.
    fn objective_with(
        &self,
        dual: &WassersteinDualObjective<'_, LogisticLoss>,
        n: usize,
        packed_model: &[f64],
    ) -> (f64, f64) {
        let robust = dual.exact_robust_risk(&LinearModel::from_packed(packed_model));
        let objective = robust - self.config.rho / n as f64 * self.prior.log_pdf(packed_model);
        (robust, objective)
    }

    /// Fits the edge model on the local dataset.
    ///
    /// The EM scheme is a majorize–minimize method, so it converges to the
    /// basin its initialization selects. Because the DP prior is
    /// multi-modal (one mode per historical task cluster), `fit` considers
    /// a start at **every component mean** plus the origin, ranks them by
    /// the empirical risk of the *unadapted* start (see the inline comment
    /// for why neither the MAP objective nor post-adaptation fit works),
    /// and runs one full EM chain from the winner.
    ///
    /// # Errors
    ///
    /// * [`EdgeError::InvalidData`] when the dataset dimension (+ bias)
    ///   differs from the prior dimension.
    /// * Propagates dual-construction and solver failures.
    pub fn fit(&self, data: &Dataset) -> Result<EdgeFitReport> {
        if data.dim() + 1 != self.prior.dim() {
            return Err(EdgeError::InvalidData {
                reason: "prior dimension must equal feature dimension + 1 (bias)",
            });
        }
        let ball = WassersteinBall::new(self.config.epsilon, self.config.kappa)?;
        let dual =
            WassersteinDualObjective::new(data.features(), data.labels(), LogisticLoss, ball)?;

        let mut starts: Vec<Vec<f64>> = if self.config.multi_start {
            self.prior
                .components()
                .iter()
                .map(|c| c.mean().to_vec())
                .collect()
        } else {
            // Single-start ablation: only the heaviest component's mean.
            vec![self
                .prior
                .components()
                .iter()
                .max_by(|a, b| a.weight().partial_cmp(&b.weight()).expect("finite"))
                .expect("prior nonempty")
                .mean()
                .to_vec()]
        };
        if self.config.multi_start {
            starts.push(vec![0.0; self.prior.dim()]);
        }

        // Rank the candidate starts by the *empirical* risk of the start
        // itself — i.e. by how well each unadapted cloud hypothesis
        // explains the local samples (the signal `baselines::cloud_only`
        // uses). Two wrong alternatives, both observed to fail: ranking
        // after local adaptation is meaningless when parameters outnumber
        // samples (every basin fits the sample), and ranking by the
        // *robust* risk penalizes confident correct hypotheses through
        // their `γ·ε` and label-flip terms, systematically favoring
        // low-norm uninformative starts. One full EM chain then adapts
        // within the selected basin.
        let empirical_risk = |theta: &[f64]| {
            use dre_models::MarginLoss;
            let model = LinearModel::from_packed(theta);
            dre_parallel::par_sum_indexed(data.len(), |i| {
                LogisticLoss.value(model.margin(&data.features()[i], data.labels()[i]))
            }) / data.len() as f64
        };
        // Ties keep the first index (min_by's scan order). A single start
        // needs no scores.
        let best = if starts.len() == 1 {
            0
        } else {
            starts
                .iter()
                .map(|theta| empirical_risk(theta))
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
                .expect("at least one start")
                .0
        };
        let best_start = starts.swap_remove(best);
        self.run_chain(data, &dual, best_start, self.config.em_rounds)
    }

    /// One EM chain from `theta0`, running at most `max_rounds` rounds. The
    /// report's robust risk is the exact one of the final parameters, which
    /// the trace's last entry (entry 0 is the start) already computed.
    fn run_chain(
        &self,
        data: &Dataset,
        dual: &WassersteinDualObjective<'_, LogisticLoss>,
        theta0: Vec<f64>,
        max_rounds: usize,
    ) -> Result<EdgeFitReport> {
        let n = data.len() as f64;
        let prior_scale = self.config.rho / n;
        // The M-step has `d + 2` variables, few enough for a dense
        // inverse-Hessian estimate.
        let solver = Bfgs::new(StopCriteria {
            max_iters: self.config.solver_iters,
            ..StopCriteria::default()
        });
        // Successive M-steps differ only in the E-step quadratic, so the
        // estimate one round ends with still describes the next one's dual.
        // It lives for this chain only: a fit is a function of its inputs.
        let mut estimate = InverseHessian::default();
        let mut theta = theta0;
        let (mut robust_risk, start_objective) = self.objective_with(dual, data.len(), &theta);
        let mut trace = vec![start_objective];
        let mut packed = dual.initial_point(&LinearModel::from_packed(&theta));
        let mut rounds = 0;
        let (mut m_step_iterations, mut m_step_evaluations, mut m_steps_capped) = (0, 0, 0);

        for _round in 0..max_rounds {
            rounds += 1;
            // E-step.
            let resp = self.prior.responsibilities(&theta);
            let surrogate = self.prior.em_surrogate(&resp)?;
            // M-step: warm-start from the previous packed iterate.
            let objective = DroDpObjective::new(dual, &surrogate, prior_scale);
            let report = solver.minimize_warm(&objective, &packed, &mut estimate)?;
            m_step_iterations += report.iterations;
            m_step_evaluations += report.evaluations;
            m_steps_capped += usize::from(!report.converged);
            packed = report.x;
            theta = packed[..packed.len() - 1].to_vec();

            let objective_now;
            (robust_risk, objective_now) = self.objective_with(dual, data.len(), &theta);
            let improved = trace.last().expect("nonempty") - objective_now;
            trace.push(objective_now);
            if improved.abs() < self.config.em_tol {
                break;
            }
        }
        Ok(EdgeFitReport {
            responsibilities: self.prior.responsibilities(&theta),
            model: LinearModel::from_packed(&theta),
            objective_trace: trace,
            em_rounds: rounds,
            robust_risk,
            m_step_iterations,
            m_step_evaluations,
            m_steps_capped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_bayes::MixturePrior;
    use dre_data::{TaskFamily, TaskFamilyConfig};
    use dre_linalg::Matrix;
    use dre_prob::seeded_rng;

    fn family_and_prior(rng: &mut rand::rngs::StdRng) -> (TaskFamily, MixturePrior) {
        let cfg = TaskFamilyConfig {
            dim: 3,
            num_clusters: 2,
            cluster_separation: 4.0,
            within_cluster_std: 0.2,
            label_noise: 0.02,
            steepness: 3.0,
        };
        let family = TaskFamily::generate(&cfg, rng).unwrap();
        // A faithful prior built directly from the true cluster centers
        // (so the learner tests are independent of the Gibbs fit).
        let comps: Vec<(f64, Vec<f64>, Matrix)> = family
            .cluster_centers()
            .iter()
            .map(|c| (1.0, c.clone(), Matrix::from_diag(&[0.1; 4])))
            .collect();
        let prior = MixturePrior::new(comps).unwrap();
        (family, prior)
    }

    /// The Wasserstein-DRO collapse of logistic regression. With label
    /// cost `κ`, `max(ℓ(m), ℓ(−m) − γκ) ≥ (ℓ(m) + ℓ(−m) − γκ)/2 ≥ log 2 − γκ/2`,
    /// so every model's robust risk is at least `log 2 + (ε − κ/2)·‖w‖`,
    /// which the zero model attains. At `ε = 1 > κ/2` the zero model is the
    /// strict minimizer and the kink at `w = 0` outweighs the prior's pull,
    /// so a standard-family fit returns `w ≈ 0`: every point gets one label
    /// (E2's chance-level row).
    #[test]
    fn radius_above_half_the_label_cost_collapses_the_fit_to_zero() {
        let mut rng = seeded_rng(202);
        let cfg = TaskFamilyConfig {
            dim: 5,
            num_clusters: 3,
            cluster_separation: 4.0,
            within_cluster_std: 0.25,
            label_noise: 0.02,
            steepness: 3.0,
        };
        let family = TaskFamily::generate(&cfg, &mut rng).unwrap();
        let cloud = crate::CloudKnowledge::from_family(&family, 40, 400, 1.0, &mut rng).unwrap();
        let data = family.sample_task(&mut rng).generate(20, &mut rng);
        let fit_at = |epsilon| {
            let config = EdgeLearnerConfig {
                epsilon,
                kappa: 1.0,
                rho: 1.0,
                em_rounds: 15,
                em_tol: 1e-7,
                solver_iters: 200,
                multi_start: true,
            };
            EdgeLearner::new(config, cloud.prior().clone())
                .unwrap()
                .fit(&data)
                .unwrap()
        };
        let collapsed = fit_at(1.0);
        assert!(
            collapsed.model.weight_norm() < 1e-6,
            "‖w‖ = {:e}",
            collapsed.model.weight_norm()
        );

        // The bound, checked along the ε = 0 fit's direction: no scaling
        // of it beats the zero model's log 2 at this radius.
        let ball = WassersteinBall::new(1.0, 1.0).unwrap();
        let dual =
            WassersteinDualObjective::new(data.features(), data.labels(), LogisticLoss, ball)
                .unwrap();
        let zero = LinearModel::from_packed(&[0.0; 6]);
        let ln2 = std::f64::consts::LN_2;
        assert!((dual.exact_robust_risk(&zero) - ln2).abs() < 1e-12);
        assert!(dual.exact_robust_risk(&collapsed.model) - ln2 < 1e-4);
        let informative = fit_at(0.0).model.to_packed();
        for t in [1e-3, 1e-2, 0.1, 1.0] {
            let scaled: Vec<f64> = informative.iter().map(|v| v * t).collect();
            let model = LinearModel::from_packed(&scaled);
            let risk = dual.exact_robust_risk(&model);
            assert!(risk >= ln2 + 0.5 * model.weight_norm(), "t = {t}: {risk}");
        }
    }

    #[test]
    fn construction_validates_config() {
        let prior = MixturePrior::single(vec![0.0; 3], Matrix::identity(3)).unwrap();
        let bad = EdgeLearnerConfig {
            rho: -1.0,
            ..EdgeLearnerConfig::default()
        };
        assert!(EdgeLearner::new(bad, prior.clone()).is_err());
        let learner = EdgeLearner::new(EdgeLearnerConfig::default(), prior).unwrap();
        assert_eq!(learner.prior().num_components(), 1);
        assert_eq!(learner.config().em_rounds, 25);
    }

    #[test]
    fn fit_rejects_dimension_mismatch() {
        let prior = MixturePrior::single(vec![0.0; 5], Matrix::identity(5)).unwrap();
        let learner = EdgeLearner::new(EdgeLearnerConfig::default(), prior).unwrap();
        let mut rng = seeded_rng(0);
        let (family, _) = family_and_prior(&mut rng);
        let task = family.sample_task(&mut rng);
        let data = task.generate(10, &mut rng);
        assert!(matches!(
            learner.fit(&data),
            Err(EdgeError::InvalidData { .. })
        ));
    }

    #[test]
    fn objective_trace_is_monotone_nonincreasing() {
        let mut rng = seeded_rng(1);
        let (family, prior) = family_and_prior(&mut rng);
        let task = family.sample_task(&mut rng);
        let data = task.generate(25, &mut rng);
        let learner = EdgeLearner::new(EdgeLearnerConfig::default(), prior).unwrap();
        let fit = learner.fit(&data).unwrap();
        // MM guarantee, with a small tolerance for the dual smoothing gap.
        for w in fit.objective_trace.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-3,
                "EM objective increased: {:?}",
                fit.objective_trace
            );
        }
        assert!(fit.em_rounds >= 1);
        assert_eq!(fit.objective_trace.len(), fit.em_rounds + 1);
    }

    #[test]
    fn learner_selects_the_correct_prior_component() {
        let mut rng = seeded_rng(2);
        let (family, prior) = family_and_prior(&mut rng);
        // Generate a task, find which true cluster it came from.
        let task = family.sample_task(&mut rng);
        let data = task.generate(40, &mut rng);
        let learner = EdgeLearner::new(EdgeLearnerConfig::default(), prior).unwrap();
        let fit = learner.fit(&data).unwrap();
        assert_eq!(
            fit.dominant_component(),
            task.cluster(),
            "responsibilities {:?}",
            fit.responsibilities
        );
        // Responsibilities form a distribution.
        let s: f64 = fit.responsibilities.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn beats_local_erm_in_the_small_sample_regime() {
        let mut rng = seeded_rng(3);
        let (family, prior) = family_and_prior(&mut rng);
        let mut wins = 0;
        let trials = 8;
        for _ in 0..trials {
            let task = family.sample_task(&mut rng);
            let train = task.generate(10, &mut rng);
            let test = task.generate(800, &mut rng);

            let learner = EdgeLearner::new(EdgeLearnerConfig::default(), prior.clone()).unwrap();
            let fit = learner.fit(&train).unwrap();
            let dro_dp_acc =
                dre_models::metrics::accuracy(&fit.model, test.features(), test.labels()).unwrap();

            let erm_model = crate::baselines::fit_local_erm(&train, 1e-3).unwrap();
            let erm_acc =
                dre_models::metrics::accuracy(&erm_model, test.features(), test.labels()).unwrap();
            if dro_dp_acc >= erm_acc {
                wins += 1;
            }
        }
        assert!(
            wins * 2 > trials,
            "DRO+DP should win most small-sample trials, won {wins}/{trials}"
        );
    }

    #[test]
    fn robust_risk_certificate_is_reported() {
        let mut rng = seeded_rng(4);
        let (family, prior) = family_and_prior(&mut rng);
        let task = family.sample_task(&mut rng);
        let data = task.generate(30, &mut rng);
        let learner = EdgeLearner::new(EdgeLearnerConfig::default(), prior).unwrap();
        let fit = learner.fit(&data).unwrap();
        assert!(fit.robust_risk.is_finite());
        assert!(fit.robust_risk >= 0.0);
        // exact_objective is consistent with the trace tail.
        let last = *fit.objective_trace.last().unwrap();
        let recomputed = learner
            .exact_objective(&data, &fit.model.to_packed())
            .unwrap();
        assert!((last - recomputed).abs() < 1e-9);
    }

    #[test]
    fn zero_rho_ignores_the_prior() {
        let mut rng = seeded_rng(5);
        let (family, prior) = family_and_prior(&mut rng);
        let task = family.sample_task(&mut rng);
        let data = task.generate(30, &mut rng);
        // With ρ = 0 the prior's location must not matter: compare against a
        // learner whose prior is shifted far away.
        let cfg = EdgeLearnerConfig {
            rho: 0.0,
            em_rounds: 3,
            ..EdgeLearnerConfig::default()
        };
        let shifted = MixturePrior::single(vec![100.0; 4], Matrix::identity(4)).unwrap();
        let a = EdgeLearner::new(cfg, prior).unwrap().fit(&data).unwrap();
        let b = EdgeLearner::new(cfg, shifted).unwrap().fit(&data).unwrap();
        // Both should converge to (approximately) the same robust model.
        // Initialization differs, so compare risks rather than parameters.
        assert!((a.robust_risk - b.robust_risk).abs() < 0.05);
    }
}
