//! Multiclass extension of the edge learner.
//!
//! The paper's formulation is stated for a generic loss; its experiments are
//! classification. This module extends the pipeline beyond binary labels:
//! a softmax model whose robust term uses the Lipschitz-regularization
//! collapse of the Wasserstein dual,
//!
//! ```text
//! min_W  CE(W) + ε · Σ_c ‖w_c‖₂ + (ρ/n) · q(W)
//! ```
//!
//! where `Σ_c ‖w_c‖₂` upper-bounds the Lipschitz constant of the softmax
//! cross-entropy in the features (the exact multiclass label-flip dual has
//! no closed form and is left as documented future work — DESIGN.md), and
//! `q` is the same EM quadratic majorizer as the binary learner, now over
//! the stacked parameter `[w₀…, b₀, w₁…, b₁, …]`.
//!
//! The Dirichlet-process machinery is dimension-agnostic, but collapsed
//! Gibbs is `O(d³)` per move — prohibitive at `k·(d+1)` parameters for
//! image-scale `d`. [`pooled_prior`] therefore provides the scalable
//! cloud-side summary: one moment-matched diagonal component over the
//! source parameters.

use dre_bayes::{MixturePrior, QuadraticSurrogate};
use dre_linalg::Matrix;
use dre_models::{SoftmaxModel, SoftmaxObjective};
use dre_optim::{Lbfgs, Objective, StopCriteria};

use crate::{EdgeError, EdgeLearnerConfig, Result};

/// The multiclass robust composite objective over packed softmax
/// parameters: cross-entropy + `ε·Σ_c √(‖w_c‖² + δ²)` + optional prior
/// quadratic.
#[derive(Debug)]
pub struct RobustSoftmaxObjective<'a> {
    ce: SoftmaxObjective<'a>,
    num_classes: usize,
    dim: usize,
    epsilon: f64,
    delta: f64,
    surrogate: Option<(&'a QuadraticSurrogate, f64)>,
}

impl<'a> RobustSoftmaxObjective<'a> {
    /// Creates the objective.
    ///
    /// # Errors
    ///
    /// * [`EdgeError::InvalidConfig`] for a negative/non-finite `ε`.
    /// * Propagates dataset validation from [`SoftmaxObjective::new`].
    pub fn new(
        xs: &'a [Vec<f64>],
        ys: &'a [usize],
        num_classes: usize,
        epsilon: f64,
    ) -> Result<Self> {
        if !(epsilon >= 0.0 && epsilon.is_finite()) {
            return Err(EdgeError::InvalidConfig {
                param: "epsilon",
                value: epsilon,
            });
        }
        let dim = xs.first().map_or(0, |x| x.len());
        let ce = SoftmaxObjective::new(xs, ys, num_classes, 0.0)?;
        Ok(RobustSoftmaxObjective {
            ce,
            num_classes,
            dim,
            epsilon,
            delta: 1e-9,
            surrogate: None,
        })
    }

    /// Attaches an E-step surrogate with weight `ρ/n`.
    ///
    /// # Panics
    ///
    /// Panics when the surrogate dimension differs from the packed softmax
    /// dimension, or the scale is negative/non-finite.
    pub fn with_surrogate(mut self, surrogate: &'a QuadraticSurrogate, scale: f64) -> Self {
        assert_eq!(
            surrogate.a().rows(),
            self.num_classes * (self.dim + 1),
            "surrogate must cover the stacked softmax parameters"
        );
        assert!(scale >= 0.0 && scale.is_finite(), "invalid prior scale");
        self.surrogate = Some((surrogate, scale));
        self
    }
}

impl Objective for RobustSoftmaxObjective<'_> {
    fn dim(&self) -> usize {
        self.num_classes * (self.dim + 1)
    }

    fn value(&self, packed: &[f64]) -> f64 {
        self.value_and_gradient(packed).0
    }

    fn gradient(&self, packed: &[f64]) -> Vec<f64> {
        self.value_and_gradient(packed).1
    }

    fn value_and_gradient(&self, packed: &[f64]) -> (f64, Vec<f64>) {
        let (mut value, mut grad) = self.ce.value_and_gradient(packed);
        let d = self.dim;
        // Row-wise Lipschitz penalty ε·Σ_c √(‖w_c‖² + δ²).
        for c in 0..self.num_classes {
            let row = &packed[c * (d + 1)..c * (d + 1) + d];
            let norm = (dre_linalg::vector::dot(row, row) + self.delta * self.delta).sqrt();
            value += self.epsilon * norm;
            let grow = &mut grad[c * (d + 1)..c * (d + 1) + d];
            for (g, &w) in grow.iter_mut().zip(row) {
                *g += self.epsilon * w / norm;
            }
        }
        if let Some((surrogate, scale)) = self.surrogate {
            value += scale * surrogate.value(packed);
            let qg = surrogate.gradient(packed);
            for (g, q) in grad.iter_mut().zip(&qg) {
                *g += scale * q;
            }
        }
        (value, grad)
    }
}

/// The multiclass edge learner: the same multi-start EM loop as the binary
/// [`EdgeLearner`](crate::EdgeLearner) over a softmax model with the
/// Lipschitz-collapsed robust term.
#[derive(Debug, Clone)]
pub struct MulticlassEdgeLearner {
    config: EdgeLearnerConfig,
    prior: MixturePrior,
    num_classes: usize,
}

/// Outcome of a multiclass fit.
#[derive(Debug, Clone)]
pub struct MulticlassFitReport {
    /// The learned softmax model.
    pub model: SoftmaxModel,
    /// Exact objective (robust CE + prior term) per EM round of the winning
    /// chain.
    pub objective_trace: Vec<f64>,
    /// EM rounds executed on the winning chain.
    pub em_rounds: usize,
}

impl MulticlassEdgeLearner {
    /// Creates a learner over `num_classes ≥ 2` classes; the prior must
    /// cover the stacked parameter dimension `num_classes·(d+1)`.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidConfig`] for invalid configuration or
    /// `num_classes < 2`.
    pub fn new(config: EdgeLearnerConfig, prior: MixturePrior, num_classes: usize) -> Result<Self> {
        config.validate()?;
        if num_classes < 2 {
            return Err(EdgeError::InvalidConfig {
                param: "num_classes",
                value: num_classes as f64,
            });
        }
        Ok(MulticlassEdgeLearner {
            config,
            prior,
            num_classes,
        })
    }

    /// Fits the softmax model on labelled data (`ys` in
    /// `0..num_classes`).
    ///
    /// # Errors
    ///
    /// * [`EdgeError::InvalidData`] when the prior dimension differs from
    ///   `num_classes·(d+1)`.
    /// * Propagates objective and solver failures.
    pub fn fit(&self, xs: &[Vec<f64>], ys: &[usize]) -> Result<MulticlassFitReport> {
        let d = xs.first().map_or(0, |x| x.len());
        let packed_dim = self.num_classes * (d + 1);
        if self.prior.dim() != packed_dim {
            return Err(EdgeError::InvalidData {
                reason: "prior dimension must equal num_classes * (dim + 1)",
            });
        }
        let n = ys.len() as f64;
        let prior_scale = self.config.rho / n;

        let mut starts: Vec<Vec<f64>> = self
            .prior
            .components()
            .iter()
            .map(|c| c.mean().to_vec())
            .collect();
        starts.push(vec![0.0; packed_dim]);

        // Rank candidate starts by the *unadapted empirical* data fit, as
        // in the binary learner (see `EdgeLearner::fit`): fixed cloud
        // hypotheses cannot overfit a tiny sample, and the plain
        // cross-entropy (ε = 0) avoids the robust term's bias against
        // confident correct hypotheses; one full EM chain then adapts
        // within the selected basin.
        let scorer = RobustSoftmaxObjective::new(xs, ys, self.num_classes, 0.0)?;
        let best_start = starts
            .into_iter()
            .map(|theta| (scorer.value(&theta), theta))
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"))
            .expect("at least one start")
            .1;
        let (theta, trace, rounds) =
            self.run_chain(xs, ys, best_start, self.config.em_rounds, prior_scale)?;

        Ok(MulticlassFitReport {
            model: SoftmaxModel::from_packed(self.num_classes, d, &theta),
            objective_trace: trace,
            em_rounds: rounds,
        })
    }

    fn run_chain(
        &self,
        xs: &[Vec<f64>],
        ys: &[usize],
        theta0: Vec<f64>,
        max_rounds: usize,
        prior_scale: f64,
    ) -> Result<(Vec<f64>, Vec<f64>, usize)> {
        let mut theta = theta0;
        let mut trace = vec![self.exact_objective(xs, ys, &theta)?];
        let mut rounds = 0;
        for _ in 0..max_rounds {
            rounds += 1;
            let resp = self.prior.responsibilities(&theta);
            let surrogate = self.prior.em_surrogate(&resp)?;
            let obj = RobustSoftmaxObjective::new(xs, ys, self.num_classes, self.config.epsilon)?
                .with_surrogate(&surrogate, prior_scale);
            let report = Lbfgs::new(StopCriteria {
                max_iters: self.config.solver_iters,
                ..StopCriteria::default()
            })
            .minimize(&obj, &theta)?;
            theta = report.x;
            let now = self.exact_objective(xs, ys, &theta)?;
            let improved = trace.last().expect("nonempty") - now;
            trace.push(now);
            if improved.abs() < self.config.em_tol {
                break;
            }
        }
        Ok((theta, trace, rounds))
    }

    /// The exact objective `robust CE + (ρ/n)(−log π)` at a packed softmax
    /// parameter.
    ///
    /// # Errors
    ///
    /// Propagates dataset validation failures.
    pub fn exact_objective(&self, xs: &[Vec<f64>], ys: &[usize], packed: &[f64]) -> Result<f64> {
        let robust = RobustSoftmaxObjective::new(xs, ys, self.num_classes, self.config.epsilon)?;
        let n = ys.len() as f64;
        Ok(robust.value(packed) - self.config.rho / n * self.prior.log_pdf(packed))
    }
}

/// Builds a single-component diagonal-covariance prior by moment-matching
/// the source parameters: the cheap summary for high-dimensional
/// (e.g. image-scale multiclass) parameters.
///
/// # Errors
///
/// Returns [`EdgeError::InvalidData`] for empty or inconsistent input.
pub fn pooled_prior(source_models: &[Vec<f64>], min_var: f64) -> Result<MixturePrior> {
    if source_models.is_empty() || source_models[0].is_empty() {
        return Err(EdgeError::InvalidData {
            reason: "pooled prior needs nonempty source models",
        });
    }
    let d = source_models[0].len();
    if source_models.iter().any(|m| m.len() != d) {
        return Err(EdgeError::InvalidData {
            reason: "source models must share a dimension",
        });
    }
    let (mean, var) = moments(source_models, d, min_var);
    MixturePrior::single(mean, Matrix::from_diag(&var)).map_err(EdgeError::from)
}

fn moments(models: &[Vec<f64>], d: usize, min_var: f64) -> (Vec<f64>, Vec<f64>) {
    let n = models.len() as f64;
    let mut mean = vec![0.0; d];
    for m in models {
        dre_linalg::vector::axpy(1.0 / n, m, &mut mean);
    }
    let mut var = vec![0.0; d];
    for m in models {
        for (v, (&x, &mu)) in var.iter_mut().zip(m.iter().zip(&mean)) {
            *v += (x - mu) * (x - mu);
        }
    }
    for v in &mut var {
        *v = (*v / n).max(min_var.max(1e-12));
    }
    (mean, var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_optim::numerical_gradient;
    use dre_prob::{seeded_rng, Distribution};

    fn three_cluster_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = seeded_rng(31);
        let centers = [[0.0, 5.0], [5.0, -3.0], [-5.0, -3.0]];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        use dre_prob::MvNormal;
        for (c, center) in centers.iter().enumerate() {
            let gen = MvNormal::isotropic(center.to_vec(), 0.5).unwrap();
            for x in gen.sample_n(&mut rng, 15) {
                xs.push(x);
                ys.push(c);
            }
        }
        (xs, ys)
    }

    #[test]
    fn robust_objective_gradient_checks() {
        let (xs, ys) = three_cluster_data();
        let obj = RobustSoftmaxObjective::new(&xs, &ys, 3, 0.2).unwrap();
        let packed: Vec<f64> = (0..obj.dim()).map(|i| 0.3 * ((i as f64).sin())).collect();
        let num = numerical_gradient(&obj, &packed, 1e-6);
        assert!(dre_linalg::vector::max_abs_diff(&num, &obj.gradient(&packed)) < 1e-5);
        // With a surrogate attached.
        let prior = pooled_prior(&[packed.clone(), vec![0.1; packed.len()]], 0.5).unwrap();
        let surrogate = prior
            .em_surrogate(&prior.responsibilities(&packed))
            .unwrap();
        let with = RobustSoftmaxObjective::new(&xs, &ys, 3, 0.2)
            .unwrap()
            .with_surrogate(&surrogate, 0.7);
        let num = numerical_gradient(&with, &packed, 1e-6);
        assert!(dre_linalg::vector::max_abs_diff(&num, &with.gradient(&packed)) < 1e-5);
        // Validation.
        assert!(RobustSoftmaxObjective::new(&xs, &ys, 3, -1.0).is_err());
    }

    #[test]
    fn multiclass_learner_fits_three_clusters() {
        let (xs, ys) = three_cluster_data();
        // Oracle-ish source models: perturbed copies of a trained model.
        let base_obj = SoftmaxObjective::new(&xs, &ys, 3, 1e-3).unwrap();
        let trained = Lbfgs::new(StopCriteria::with_max_iters(200))
            .minimize(&base_obj, &vec![0.0; base_obj.dim()])
            .unwrap()
            .x;
        let mut rng = seeded_rng(32);
        let sources: Vec<Vec<f64>> = (0..8)
            .map(|_| {
                trained
                    .iter()
                    .map(|&v| v + 0.05 * dre_prob::Normal::standard().sample(&mut rng))
                    .collect()
            })
            .collect();
        let prior = pooled_prior(&sources, 0.05).unwrap();

        let config = EdgeLearnerConfig {
            epsilon: 0.05,
            rho: 1.0,
            em_rounds: 5,
            ..EdgeLearnerConfig::default()
        };
        let learner = MulticlassEdgeLearner::new(config, prior, 3).unwrap();
        // Tiny training set: 2 per class.
        let (small_xs, small_ys): (Vec<Vec<f64>>, Vec<usize>) = {
            let mut sx = Vec::new();
            let mut sy = Vec::new();
            for c in 0..3 {
                let mut taken = 0;
                for (x, &y) in xs.iter().zip(&ys) {
                    if y == c && taken < 2 {
                        sx.push(x.clone());
                        sy.push(y);
                        taken += 1;
                    }
                }
            }
            (sx, sy)
        };
        let fit = learner.fit(&small_xs, &small_ys).unwrap();
        // Evaluate on the full set.
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| fit.model.predict(x) == y)
            .count();
        assert!(
            correct as f64 / xs.len() as f64 > 0.9,
            "multiclass transfer accuracy {}",
            correct as f64 / xs.len() as f64
        );
        // Monotone trace.
        for w in fit.objective_trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "trace {:?}", fit.objective_trace);
        }
    }

    #[test]
    fn learner_validation() {
        let prior = pooled_prior(&[vec![0.0; 9]], 1.0).unwrap();
        assert!(
            MulticlassEdgeLearner::new(EdgeLearnerConfig::default(), prior.clone(), 1).is_err()
        );
        let learner = MulticlassEdgeLearner::new(EdgeLearnerConfig::default(), prior, 3).unwrap();
        // 3 classes × (d=3 + 1) = 12 ≠ 9 → dimension error.
        let xs = vec![vec![0.0; 3]; 6];
        let ys = vec![0, 1, 2, 0, 1, 2];
        assert!(matches!(
            learner.fit(&xs, &ys),
            Err(EdgeError::InvalidData { .. })
        ));
    }

    #[test]
    fn pooled_prior_moments() {
        let models = vec![vec![1.0, 0.0], vec![3.0, 0.0]];
        let prior = pooled_prior(&models, 0.1).unwrap();
        assert_eq!(prior.num_components(), 1);
        assert_eq!(prior.components()[0].mean(), &[2.0, 0.0]);
        let cov = prior.components()[0].cov();
        assert!((cov[(0, 0)] - 1.0).abs() < 1e-12); // var of {1,3} = 1
        assert!((cov[(1, 1)] - 0.1).abs() < 1e-12); // floored
        assert!(pooled_prior(&[], 0.1).is_err());
        assert!(pooled_prior(&[vec![1.0], vec![1.0, 2.0]], 0.1).is_err());
    }
}
