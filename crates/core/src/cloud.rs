//! Cloud-side knowledge: source-task training and DP prior fitting.

use rand::Rng;

use dre_bayes::{DpNiwGibbs, GibbsConfig, MixturePrior, VariationalConfig, VariationalDpGmm};
use dre_data::{Dataset, TaskFamily};
use dre_models::{ErmObjective, LogisticLoss};
use dre_optim::{Lbfgs, StopCriteria};
use dre_prob::NormalInverseWishart;

use crate::{EdgeError, Result};

/// How the cloud fits the DP mixture over source-task parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PriorFitMethod {
    /// Collapsed Gibbs sampling with an NIW base measure (Neal's Algorithm
    /// 3) — the reference sampler; asymptotically exact.
    #[default]
    CollapsedGibbs,
    /// Truncated stick-breaking variational EM — deterministic given the
    /// initialization and much faster on large task histories.
    Variational,
}

/// The cloud's knowledge-transfer pipeline.
///
/// The cloud (1) trains a model `θ_m` on each historical source task by
/// regularized ERM, (2) fits a Dirichlet-process mixture over `{θ_m}`, and
/// (3) exposes the finite summary as a [`MixturePrior`] for edge devices
/// (with a fresh-table component so novel tasks keep calibrated prior
/// mass — see [`DpNiwGibbs::to_mixture_prior`]).
#[derive(Debug, Clone)]
pub struct CloudKnowledge {
    source_models: Vec<Vec<f64>>,
    prior: MixturePrior,
    discovered_clusters: usize,
    alpha: f64,
}

impl CloudKnowledge {
    /// Builds cloud knowledge from already-trained source-task parameters
    /// (packed `[w…, b]`).
    ///
    /// # Errors
    ///
    /// * [`EdgeError::InvalidData`] for an empty or inconsistent parameter
    ///   list.
    /// * [`EdgeError::InvalidConfig`] for `alpha ≤ 0`.
    /// * Propagates prior-fitting failures.
    pub fn from_source_models<R: Rng + ?Sized>(
        source_models: Vec<Vec<f64>>,
        alpha: f64,
        method: PriorFitMethod,
        rng: &mut R,
    ) -> Result<Self> {
        if source_models.is_empty() {
            return Err(EdgeError::InvalidData {
                reason: "cloud needs at least one source-task model",
            });
        }
        let p = source_models[0].len();
        if p < 2 || source_models.iter().any(|t| t.len() != p) {
            return Err(EdgeError::InvalidData {
                reason: "source-task parameters must share a dimension ≥ 2",
            });
        }
        if !(alpha > 0.0 && alpha.is_finite()) {
            return Err(EdgeError::InvalidConfig {
                param: "alpha",
                value: alpha,
            });
        }

        let (prior, discovered) = match method {
            PriorFitMethod::CollapsedGibbs => {
                let base = niw_base_for(&source_models)?;
                let gibbs = DpNiwGibbs::new(
                    base,
                    GibbsConfig {
                        alpha,
                        burn_in: 40,
                        sweeps: 40,
                    },
                )?;
                let result = gibbs.fit(&source_models, rng)?;
                let prior = gibbs.to_mixture_prior(&source_models, &result.assignments)?;
                (prior, result.num_clusters())
            }
            PriorFitMethod::Variational => {
                let vb = VariationalDpGmm::new(VariationalConfig {
                    alpha,
                    truncation: source_models.len().min(30),
                    ..VariationalConfig::default()
                })?;
                let result = vb.fit(&source_models, rng)?.merge_components(3.0);
                // A historical "cluster" must cover more than one device;
                // this also absorbs VB's tendency to over-segment noisy
                // parameter clouds (Gibbs integrates the uncertainty out,
                // VB point-estimates it — see DESIGN.md).
                let min_occupancy = 1.5;
                let clusters = result.num_effective_components(min_occupancy);
                (result.to_mixture_prior(min_occupancy)?, clusters)
            }
        };
        Ok(CloudKnowledge {
            source_models,
            prior,
            discovered_clusters: discovered,
            alpha,
        })
    }

    /// Full pipeline from a task family: sample `num_tasks` historical
    /// tasks, generate `samples_per_task` points each, train per-task
    /// models by ridge-regularized logistic ERM, and fit the DP prior by
    /// collapsed Gibbs.
    ///
    /// # Errors
    ///
    /// Propagates generation, training and fitting failures.
    pub fn from_family<R: Rng + ?Sized>(
        family: &TaskFamily,
        num_tasks: usize,
        samples_per_task: usize,
        alpha: f64,
        rng: &mut R,
    ) -> Result<Self> {
        if num_tasks == 0 || samples_per_task == 0 {
            return Err(EdgeError::InvalidData {
                reason: "cloud needs at least one task with at least one sample",
            });
        }
        let tasks = family.sample_tasks(rng, num_tasks);
        let mut source_models = Vec::with_capacity(num_tasks);
        for task in &tasks {
            let data = task.generate(samples_per_task, rng);
            source_models.push(train_source_model(&data)?);
        }
        Self::from_source_models(source_models, alpha, PriorFitMethod::CollapsedGibbs, rng)
    }

    /// The fitted transfer prior.
    pub fn prior(&self) -> &MixturePrior {
        &self.prior
    }

    /// The per-task parameters the prior was fitted on.
    pub fn source_models(&self) -> &[Vec<f64>] {
        &self.source_models
    }

    /// Number of task clusters the DP fit discovered (excluding the
    /// fresh-table component).
    pub fn discovered_clusters(&self) -> usize {
        self.discovered_clusters
    }

    /// The concentration parameter used.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Bytes needed to ship the prior to a device.
    pub fn transfer_size_bytes(&self) -> usize {
        self.prior.serialized_size_bytes()
    }
}

/// Trains one source-task model by ridge-regularized logistic ERM.
///
/// # Errors
///
/// Propagates dataset and solver failures.
pub fn train_source_model(data: &Dataset) -> Result<Vec<f64>> {
    let obj = ErmObjective::new(data.features(), data.labels(), LogisticLoss, 1e-3)?;
    let start = vec![0.0; data.dim() + 1];
    let report = Lbfgs::new(StopCriteria::with_max_iters(300)).minimize(&obj, &start)?;
    Ok(report.x)
}

/// A data-scaled NIW base measure: centered on the pooled mean of the
/// source parameters with a scale matching their pooled variance, weakly
/// weighted (`κ₀ = 0.05`) so clusters dominate their own posteriors.
fn niw_base_for(source_models: &[Vec<f64>]) -> Result<NormalInverseWishart> {
    let p = source_models[0].len();
    let n = source_models.len() as f64;
    let mut mean = vec![0.0; p];
    for t in source_models {
        dre_linalg::vector::axpy(1.0 / n, t, &mut mean);
    }
    let mut pooled_var = 0.0;
    for t in source_models {
        pooled_var += dre_linalg::vector::dist2_sq(t, &mean);
    }
    pooled_var = (pooled_var / (n * p as f64)).max(1e-3);
    let psi = dre_linalg::Matrix::from_diag(&vec![pooled_var; p]);
    NormalInverseWishart::new(mean, 0.05, psi, p as f64 + 2.0).map_err(EdgeError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_data::TaskFamilyConfig;
    use dre_models::LinearModel;
    use dre_prob::seeded_rng;

    #[test]
    fn validates_inputs() {
        let mut rng = seeded_rng(0);
        assert!(CloudKnowledge::from_source_models(
            vec![],
            1.0,
            PriorFitMethod::CollapsedGibbs,
            &mut rng
        )
        .is_err());
        assert!(CloudKnowledge::from_source_models(
            vec![vec![1.0]],
            1.0,
            PriorFitMethod::CollapsedGibbs,
            &mut rng
        )
        .is_err());
        assert!(CloudKnowledge::from_source_models(
            vec![vec![1.0, 2.0], vec![1.0, 2.0, 3.0]],
            1.0,
            PriorFitMethod::CollapsedGibbs,
            &mut rng
        )
        .is_err());
        assert!(CloudKnowledge::from_source_models(
            vec![vec![1.0, 2.0]; 3],
            0.0,
            PriorFitMethod::CollapsedGibbs,
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn gibbs_prior_recovers_parameter_clusters() {
        let mut rng = seeded_rng(1);
        // Synthetic source parameters from two well-separated clusters.
        let mut thetas = Vec::new();
        for i in 0..20 {
            let j = (i % 5) as f64 * 0.05;
            thetas.push(vec![5.0 + j, 5.0 - j, 0.0]);
            thetas.push(vec![-5.0 - j, 5.0 + j, 1.0]);
        }
        let cloud = CloudKnowledge::from_source_models(
            thetas,
            1.0,
            PriorFitMethod::CollapsedGibbs,
            &mut rng,
        )
        .unwrap();
        assert_eq!(cloud.discovered_clusters(), 2);
        // Prior = 2 clusters + fresh-table component.
        assert_eq!(cloud.prior().num_components(), 3);
        assert_eq!(cloud.alpha(), 1.0);
        assert_eq!(cloud.source_models().len(), 40);
        assert!(cloud.transfer_size_bytes() > 0);
    }

    #[test]
    fn variational_prior_also_recovers_clusters() {
        let mut rng = seeded_rng(2);
        let mut thetas = Vec::new();
        for i in 0..25 {
            let j = (i % 5) as f64 * 0.04;
            thetas.push(vec![4.0 + j, -4.0, 0.5]);
            thetas.push(vec![-4.0, 4.0 + j, -0.5]);
        }
        let cloud =
            CloudKnowledge::from_source_models(thetas, 1.0, PriorFitMethod::Variational, &mut rng)
                .unwrap();
        assert_eq!(cloud.discovered_clusters(), 2);
    }

    #[test]
    fn family_pipeline_produces_prior_near_true_centers() {
        let mut rng = seeded_rng(3);
        let cfg = TaskFamilyConfig {
            dim: 3,
            num_clusters: 2,
            cluster_separation: 5.0,
            within_cluster_std: 0.15,
            label_noise: 0.0,
            steepness: 4.0,
        };
        let family = TaskFamily::generate(&cfg, &mut rng).unwrap();
        let cloud = CloudKnowledge::from_family(&family, 30, 600, 1.0, &mut rng).unwrap();
        // The fitted component means should lie near the scaled true
        // centers (ERM recovers the direction of θ*, not its magnitude, so
        // compare directions via cosine similarity).
        for center in family.cluster_centers() {
            let best = cloud
                .prior()
                .components()
                .iter()
                .map(|c| {
                    let m = c.mean();
                    let cos = dre_linalg::vector::dot(m, center)
                        / (dre_linalg::vector::norm2(m) * dre_linalg::vector::norm2(center))
                            .max(1e-12);
                    1.0 - cos
                })
                .fold(f64::INFINITY, f64::min);
            assert!(best < 0.2, "no component aligned with {center:?} ({best})");
        }
        assert!(CloudKnowledge::from_family(&family, 0, 10, 1.0, &mut rng).is_err());
    }

    #[test]
    fn source_training_fits_the_generating_model() {
        let mut rng = seeded_rng(4);
        let cfg = TaskFamilyConfig {
            label_noise: 0.0,
            steepness: 5.0,
            ..TaskFamilyConfig::default()
        };
        let family = TaskFamily::generate(&cfg, &mut rng).unwrap();
        let task = family.sample_task(&mut rng);
        let data = task.generate(800, &mut rng);
        let theta = train_source_model(&data).unwrap();
        let model = LinearModel::from_packed(&theta);
        let test = task.generate(1000, &mut rng);
        let acc = dre_models::metrics::accuracy(&model, test.features(), test.labels()).unwrap();
        let bayes = task.bayes_accuracy(2000, &mut rng);
        assert!(
            acc > bayes - 0.05,
            "source model acc {acc} vs bayes {bayes}"
        );
    }
}
