//! The clustered task-family generator.

use rand::Rng;

use dre_linalg::Matrix;
use dre_models::LinearModel;
use dre_prob::{Categorical, MvNormal};

use crate::{DataError, Dataset, Result};

/// Configuration of a [`TaskFamily`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskFamilyConfig {
    /// Feature dimension `d`.
    pub dim: usize,
    /// Number of latent task clusters.
    pub num_clusters: usize,
    /// Distance scale between cluster centers in parameter space.
    pub cluster_separation: f64,
    /// Standard deviation of a task's `θ*` around its cluster center.
    pub within_cluster_std: f64,
    /// Probability that a generated label is flipped (irreducible noise).
    pub label_noise: f64,
    /// Steepness of the label model: `P(y = 1 | x) = σ(steepness·θ*ᵀ[x,1])`.
    /// Larger values give cleaner (closer to deterministic) labels.
    pub steepness: f64,
}

impl Default for TaskFamilyConfig {
    fn default() -> Self {
        TaskFamilyConfig {
            dim: 5,
            num_clusters: 3,
            cluster_separation: 4.0,
            within_cluster_std: 0.3,
            label_noise: 0.02,
            steepness: 3.0,
        }
    }
}

/// A family of related learning tasks, matching the paper's Dirichlet-
/// process modelling assumption: each device's true parameter is drawn from
/// a mixture over latent task clusters.
///
/// The cloud sees many tasks from the family (its "historical devices");
/// the edge device under study is a fresh draw from the same family.
#[derive(Debug, Clone)]
pub struct TaskFamily {
    config: TaskFamilyConfig,
    cluster_weights: Categorical,
    cluster_centers: Vec<Vec<f64>>, // packed [w…, b] per cluster
}

impl TaskFamily {
    /// Generates a family: cluster centers are sampled isotropically at the
    /// configured separation scale, with uniform cluster weights.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] for out-of-domain
    /// configuration values.
    pub fn generate<R: Rng + ?Sized>(config: &TaskFamilyConfig, rng: &mut R) -> Result<Self> {
        if config.dim == 0 {
            return Err(DataError::InvalidParameter {
                param: "dim",
                value: 0.0,
            });
        }
        if config.num_clusters == 0 {
            return Err(DataError::InvalidParameter {
                param: "num_clusters",
                value: 0.0,
            });
        }
        for (name, v, lo, hi) in [
            (
                "cluster_separation",
                config.cluster_separation,
                0.0,
                f64::INFINITY,
            ),
            (
                "within_cluster_std",
                config.within_cluster_std,
                0.0,
                f64::INFINITY,
            ),
            ("label_noise", config.label_noise, 0.0, 0.5),
            ("steepness", config.steepness, 0.0, f64::INFINITY),
        ] {
            if !(v >= lo && v < hi) || v.is_nan() {
                return Err(DataError::InvalidParameter {
                    param: name,
                    value: v,
                });
            }
        }
        let p = config.dim + 1; // packed parameter size
        let center_dist = MvNormal::isotropic(vec![0.0; p], 1.0)
            .expect("isotropic construction cannot fail for d ≥ 1");
        let cluster_centers: Vec<Vec<f64>> = (0..config.num_clusters)
            .map(|_| {
                let raw = center_dist.sample(rng);
                let norm = dre_linalg::vector::norm2(&raw).max(1e-12);
                // Scale each center onto the separation sphere so clusters
                // are distinguishable regardless of dimension.
                dre_linalg::vector::scaled(&raw, config.cluster_separation / norm)
            })
            .collect();
        let cluster_weights =
            Categorical::new(&vec![1.0; config.num_clusters]).expect("uniform weights are valid");
        Ok(TaskFamily {
            config: config.clone(),
            cluster_weights,
            cluster_centers,
        })
    }

    /// The configuration used to build the family.
    pub fn config(&self) -> &TaskFamilyConfig {
        &self.config
    }

    /// Cluster centers in packed `[w…, b]` parameter space.
    pub fn cluster_centers(&self) -> &[Vec<f64>] {
        &self.cluster_centers
    }

    /// Draws a new task: a cluster, then `θ* ~ N(center, σ²I)` within it.
    pub fn sample_task<R: Rng + ?Sized>(&self, rng: &mut R) -> TrueTask {
        let cluster = self.cluster_weights.sample_index(rng);
        let center = &self.cluster_centers[cluster];
        let dist = MvNormal::isotropic(
            center.clone(),
            (self.config.within_cluster_std * self.config.within_cluster_std).max(1e-18),
        )
        .expect("positive variance by construction");
        TrueTask {
            theta: dist.sample(rng),
            cluster,
            label_noise: self.config.label_noise,
            steepness: self.config.steepness,
        }
    }

    /// Draws `m` tasks (the cloud's historical devices).
    pub fn sample_tasks<R: Rng + ?Sized>(&self, rng: &mut R, m: usize) -> Vec<TrueTask> {
        (0..m).map(|_| self.sample_task(rng)).collect()
    }
}

/// A concrete task: the ground-truth parameter of one (edge) device.
#[derive(Debug, Clone, PartialEq)]
pub struct TrueTask {
    theta: Vec<f64>, // packed [w…, b]
    cluster: usize,
    label_noise: f64,
    steepness: f64,
}

impl TrueTask {
    /// Builds a task directly from a packed ground-truth parameter
    /// `[w…, b]` — the escape hatch for constructing adversarial or novel
    /// tasks that no family would sample.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] for a parameter shorter than
    /// 2 entries (at least one weight plus the bias), an out-of-domain
    /// noise level, or a negative steepness.
    pub fn from_theta(theta: Vec<f64>, label_noise: f64, steepness: f64) -> Result<Self> {
        if theta.len() < 2 {
            return Err(DataError::InvalidParameter {
                param: "theta",
                value: theta.len() as f64,
            });
        }
        if !(0.0..0.5).contains(&label_noise) {
            return Err(DataError::InvalidParameter {
                param: "label_noise",
                value: label_noise,
            });
        }
        if !(steepness >= 0.0 && steepness.is_finite()) {
            return Err(DataError::InvalidParameter {
                param: "steepness",
                value: steepness,
            });
        }
        Ok(TrueTask {
            theta,
            cluster: 0,
            label_noise,
            steepness,
        })
    }

    /// Ground-truth packed parameter `[w…, b]`.
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Ground-truth model.
    pub fn model(&self) -> LinearModel {
        LinearModel::from_packed(&self.theta)
    }

    /// Which latent cluster the task came from.
    pub fn cluster(&self) -> usize {
        self.cluster
    }

    /// Feature dimension `d`.
    pub fn dim(&self) -> usize {
        self.theta.len() - 1
    }

    /// Generates `n` labelled samples: `x ~ N(0, I)`,
    /// `P(y = 1 | x) = σ(steepness·(w*ᵀx + b*))`, then flips each label with
    /// the configured noise probability.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` (a dataset cannot be empty).
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Dataset {
        assert!(n > 0, "cannot generate an empty dataset");
        self.generate_with_inputs(
            n,
            rng,
            &Matrix::identity(self.dim()),
            &vec![0.0; self.dim()],
        )
    }

    /// Generates `n` samples with a custom input distribution
    /// `x ~ N(input_mean, input_cov)` — used to create covariate-shifted
    /// test sets from the *same* labelling function.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or the input moments mismatch the task
    /// dimension or are not positive definite.
    pub fn generate_with_inputs<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
        input_cov: &Matrix,
        input_mean: &[f64],
    ) -> Dataset {
        assert!(n > 0, "cannot generate an empty dataset");
        let model = self.model();
        let input = MvNormal::new(input_mean.to_vec(), input_cov)
            .expect("input moments must be valid for the task dimension");
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x = input.sample(rng);
            let p = sigmoid(self.steepness * model.decision(&x));
            let mut y = if rng.gen_range(0.0..1.0) < p {
                1.0
            } else {
                -1.0
            };
            if rng.gen_range(0.0..1.0) < self.label_noise {
                y = -y;
            }
            xs.push(x);
            ys.push(y);
        }
        Dataset::new(xs, ys).expect("generated data is valid by construction")
    }

    /// Monte-Carlo estimate of the accuracy an oracle knowing `θ*` achieves
    /// on fresh data — the ceiling every learner is compared against.
    pub fn bayes_accuracy<R: Rng + ?Sized>(&self, samples: usize, rng: &mut R) -> f64 {
        let data = self.generate(samples.max(1), rng);
        let model = self.model();
        let correct = data
            .features()
            .iter()
            .zip(data.labels())
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        correct as f64 / data.len() as f64
    }
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_prob::seeded_rng;

    #[test]
    fn config_validation() {
        let mut rng = seeded_rng(0);
        for bad in [
            TaskFamilyConfig {
                dim: 0,
                ..Default::default()
            },
            TaskFamilyConfig {
                num_clusters: 0,
                ..Default::default()
            },
            TaskFamilyConfig {
                label_noise: 0.6,
                ..Default::default()
            },
            TaskFamilyConfig {
                label_noise: -0.1,
                ..Default::default()
            },
            TaskFamilyConfig {
                within_cluster_std: -1.0,
                ..Default::default()
            },
            TaskFamilyConfig {
                steepness: f64::NAN,
                ..Default::default()
            },
        ] {
            assert!(TaskFamily::generate(&bad, &mut rng).is_err(), "{bad:?}");
        }
        let fam = TaskFamily::generate(&TaskFamilyConfig::default(), &mut rng).unwrap();
        assert_eq!(fam.cluster_centers().len(), 3);
        assert_eq!(fam.config().dim, 5);
    }

    #[test]
    fn cluster_centers_sit_on_the_separation_sphere() {
        let mut rng = seeded_rng(1);
        let cfg = TaskFamilyConfig {
            cluster_separation: 6.0,
            ..Default::default()
        };
        let fam = TaskFamily::generate(&cfg, &mut rng).unwrap();
        for c in fam.cluster_centers() {
            assert!((dre_linalg::vector::norm2(c) - 6.0).abs() < 1e-9);
        }
    }

    #[test]
    fn tasks_stay_near_their_cluster_center() {
        let mut rng = seeded_rng(2);
        let cfg = TaskFamilyConfig {
            within_cluster_std: 0.1,
            ..Default::default()
        };
        let fam = TaskFamily::generate(&cfg, &mut rng).unwrap();
        for _ in 0..20 {
            let t = fam.sample_task(&mut rng);
            let center = &fam.cluster_centers()[t.cluster()];
            let dist = dre_linalg::vector::dist2(t.theta(), center);
            // 6 params × std 0.1: distance concentrated well below 1.
            assert!(dist < 1.0, "task strayed {dist} from its center");
        }
    }

    #[test]
    fn generated_labels_follow_the_true_model() {
        let mut rng = seeded_rng(3);
        let cfg = TaskFamilyConfig {
            label_noise: 0.0,
            steepness: 50.0, // nearly deterministic labels
            ..Default::default()
        };
        let fam = TaskFamily::generate(&cfg, &mut rng).unwrap();
        let task = fam.sample_task(&mut rng);
        let data = task.generate(500, &mut rng);
        let model = task.model();
        let agree = data
            .features()
            .iter()
            .zip(data.labels())
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        assert!(agree as f64 / 500.0 > 0.97);
        // Bayes accuracy near 1 in the noiseless steep regime.
        assert!(task.bayes_accuracy(2000, &mut rng) > 0.95);
    }

    #[test]
    fn label_noise_lowers_bayes_accuracy() {
        let mut rng = seeded_rng(4);
        let noisy_cfg = TaskFamilyConfig {
            label_noise: 0.3,
            steepness: 50.0,
            ..Default::default()
        };
        let fam = TaskFamily::generate(&noisy_cfg, &mut rng).unwrap();
        let task = fam.sample_task(&mut rng);
        let acc = task.bayes_accuracy(4000, &mut rng);
        assert!(acc < 0.8, "noise should cap accuracy near 0.7, got {acc}");
        assert!(acc > 0.6);
    }

    #[test]
    fn covariate_shifted_inputs_move_the_feature_mean() {
        let mut rng = seeded_rng(5);
        let fam = TaskFamily::generate(&TaskFamilyConfig::default(), &mut rng).unwrap();
        let task = fam.sample_task(&mut rng);
        let shift = vec![3.0; task.dim()];
        let data = task.generate_with_inputs(2000, &mut rng, &Matrix::identity(task.dim()), &shift);
        let mut mean = vec![0.0; task.dim()];
        for x in data.features() {
            dre_linalg::vector::axpy(1.0 / 2000.0, x, &mut mean);
        }
        assert!(dre_linalg::vector::max_abs_diff(&mean, &shift) < 0.2);
    }

    #[test]
    fn sample_tasks_covers_clusters() {
        let mut rng = seeded_rng(6);
        let fam = TaskFamily::generate(&TaskFamilyConfig::default(), &mut rng).unwrap();
        let tasks = fam.sample_tasks(&mut rng, 60);
        assert_eq!(tasks.len(), 60);
        let mut seen = [false; 3];
        for t in &tasks {
            seen[t.cluster()] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "60 draws should hit all 3 clusters"
        );
    }

    #[test]
    fn from_theta_builds_custom_tasks() {
        assert!(TrueTask::from_theta(vec![1.0], 0.0, 1.0).is_err());
        assert!(TrueTask::from_theta(vec![1.0, 0.0], 0.6, 1.0).is_err());
        assert!(TrueTask::from_theta(vec![1.0, 0.0], 0.1, -1.0).is_err());
        let t = TrueTask::from_theta(vec![2.0, -1.0, 0.5], 0.0, 50.0).unwrap();
        assert_eq!(t.dim(), 2);
        assert_eq!(t.cluster(), 0);
        assert_eq!(t.theta(), &[2.0, -1.0, 0.5]);
        // The generated labels follow the supplied parameter.
        let mut rng = seeded_rng(8);
        let data = t.generate(300, &mut rng);
        let model = t.model();
        let agree = data
            .features()
            .iter()
            .zip(data.labels())
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        assert!(agree as f64 / 300.0 > 0.95);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn generate_rejects_zero_samples() {
        let mut rng = seeded_rng(7);
        let fam = TaskFamily::generate(&TaskFamilyConfig::default(), &mut rng).unwrap();
        let task = fam.sample_task(&mut rng);
        let _ = task.generate(0, &mut rng);
    }
}
