//! The evaluation protocol shared by the experiment binaries.

use rand::Rng;

use dre_bayes::MixturePrior;
use dre_data::{Dataset, TrueTask};
use dre_models::{metrics, LinearModel};

use crate::{baselines, EdgeLearner, EdgeLearnerConfig, Result};

/// The methods the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Ridge-logistic ERM on local data only.
    LocalErm,
    /// Wasserstein DRO without the cloud prior.
    DroOnly,
    /// MAP transfer (prior + ERM) without robustness.
    MapOnly,
    /// Nearest cloud cluster, no local training.
    CloudOnly,
    /// The paper's method: DRO + DP prior via EM.
    DroDp,
    /// Ground-truth parameter (accuracy ceiling).
    Oracle,
}

impl Method {
    /// Every method, in reporting order.
    pub const ALL: [Method; 6] = [
        Method::LocalErm,
        Method::DroOnly,
        Method::MapOnly,
        Method::CloudOnly,
        Method::DroDp,
        Method::Oracle,
    ];

    /// Short display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Method::LocalErm => "local-erm",
            Method::DroOnly => "dro-only",
            Method::MapOnly => "map-only",
            Method::CloudOnly => "cloud-only",
            Method::DroDp => "dro+dp",
            Method::Oracle => "oracle",
        }
    }
}

/// One method's outcome on one trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodResult {
    /// Which method.
    pub method: Method,
    /// Test accuracy.
    pub accuracy: f64,
    /// Test log-loss.
    pub log_loss: f64,
}

/// Runs every requested method on one `(train, test)` pair.
///
/// # Errors
///
/// Propagates training and metric failures from any method.
pub fn run_methods(
    methods: &[Method],
    train: &Dataset,
    test: &Dataset,
    prior: &MixturePrior,
    config: &EdgeLearnerConfig,
    task: Option<&TrueTask>,
) -> Result<Vec<MethodResult>> {
    let mut out = Vec::with_capacity(methods.len());
    for &method in methods {
        let model: LinearModel = match method {
            Method::LocalErm => baselines::fit_local_erm(train, 1e-3)?,
            Method::DroOnly => baselines::fit_dro_only(train, config.epsilon, config.kappa)?,
            Method::MapOnly => baselines::fit_map_only(train, prior, config.rho, config.em_rounds)?,
            Method::CloudOnly => baselines::cloud_only(train, prior)?,
            Method::DroDp => {
                let learner = EdgeLearner::new(*config, prior.clone())?;
                learner.fit(train)?.model
            }
            Method::Oracle => match task {
                Some(t) => t.model(),
                None => continue, // no ground truth available: skip
            },
        };
        out.push(MethodResult {
            method,
            accuracy: metrics::accuracy(&model, test.features(), test.labels())?,
            log_loss: metrics::log_loss(&model, test.features(), test.labels())?,
        });
    }
    Ok(out)
}

/// Aggregates per-method accuracies over repeated trials.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    accuracies: Vec<f64>,
}

impl Aggregate {
    /// Records one trial.
    pub fn push(&mut self, accuracy: f64) {
        self.accuracies.push(accuracy);
    }

    /// Number of recorded trials.
    pub fn len(&self) -> usize {
        self.accuracies.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.accuracies.is_empty()
    }

    /// Mean accuracy (0 when empty).
    pub fn mean(&self) -> f64 {
        dre_linalg::vector::mean(&self.accuracies)
    }

    /// Standard error of the mean (0 with fewer than two trials).
    pub fn std_error(&self) -> f64 {
        if self.accuracies.len() < 2 {
            return 0.0;
        }
        (dre_linalg::vector::variance(&self.accuracies, 1) / self.accuracies.len() as f64).sqrt()
    }
}

/// Repeats [`run_methods`] over `trials` fresh tasks from a closure and
/// aggregates per method.
///
/// The `make_trial` closure returns `(train, test, task)` for each trial.
///
/// # Errors
///
/// Propagates failures from any trial.
pub fn run_trials<R, F>(
    methods: &[Method],
    trials: usize,
    prior: &MixturePrior,
    config: &EdgeLearnerConfig,
    rng: &mut R,
    mut make_trial: F,
) -> Result<Vec<(Method, Aggregate)>>
where
    R: Rng + ?Sized,
    F: FnMut(&mut R) -> Result<(Dataset, Dataset, TrueTask)>,
{
    let mut aggs: Vec<(Method, Aggregate)> =
        methods.iter().map(|&m| (m, Aggregate::default())).collect();
    for _ in 0..trials {
        let (train, test, task) = make_trial(rng)?;
        let results = run_methods(methods, &train, &test, prior, config, Some(&task))?;
        for r in results {
            if let Some((_, agg)) = aggs.iter_mut().find(|(m, _)| *m == r.method) {
                agg.push(r.accuracy);
            }
        }
    }
    Ok(aggs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_data::{TaskFamily, TaskFamilyConfig};
    use dre_linalg::Matrix;
    use dre_prob::seeded_rng;

    fn setup(rng: &mut rand::rngs::StdRng) -> (TaskFamily, MixturePrior) {
        let cfg = TaskFamilyConfig {
            dim: 3,
            num_clusters: 2,
            cluster_separation: 4.0,
            within_cluster_std: 0.2,
            label_noise: 0.02,
            steepness: 3.0,
        };
        let family = TaskFamily::generate(&cfg, rng).unwrap();
        let comps: Vec<(f64, Vec<f64>, Matrix)> = family
            .cluster_centers()
            .iter()
            .map(|c| (1.0, c.clone(), Matrix::from_diag(&[0.1; 4])))
            .collect();
        (family, MixturePrior::new(comps).unwrap())
    }

    #[test]
    fn method_names_are_unique() {
        let mut names: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Method::ALL.len());
    }

    #[test]
    fn run_methods_covers_every_requested_method() {
        let mut rng = seeded_rng(20);
        let (family, prior) = setup(&mut rng);
        let task = family.sample_task(&mut rng);
        let train = task.generate(20, &mut rng);
        let test = task.generate(300, &mut rng);
        let cfg = EdgeLearnerConfig {
            em_rounds: 5,
            ..EdgeLearnerConfig::default()
        };
        let results = run_methods(&Method::ALL, &train, &test, &prior, &cfg, Some(&task)).unwrap();
        assert_eq!(results.len(), 6);
        for r in &results {
            assert!((0.0..=1.0).contains(&r.accuracy), "{r:?}");
            assert!(r.log_loss >= 0.0);
        }
        // Without ground truth the oracle row is skipped.
        let no_oracle = run_methods(&Method::ALL, &train, &test, &prior, &cfg, None).unwrap();
        assert_eq!(no_oracle.len(), 5);
    }

    #[test]
    fn aggregate_statistics() {
        let mut a = Aggregate::default();
        assert!(a.is_empty());
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.std_error(), 0.0);
        a.push(0.8);
        assert_eq!(a.std_error(), 0.0);
        a.push(0.6);
        assert_eq!(a.len(), 2);
        assert!((a.mean() - 0.7).abs() < 1e-12);
        // SE of {0.8, 0.6}: s = 0.1414, se = 0.1.
        assert!((a.std_error() - 0.1).abs() < 1e-9);
        // The normal-approximation 95 % interval the tables print.
        let half = 1.96 * a.std_error();
        assert!((a.mean() - half - (0.7 - 0.196)).abs() < 1e-9);
        assert!((a.mean() + half - (0.7 + 0.196)).abs() < 1e-9);
    }

    #[test]
    fn trials_aggregate_and_oracle_dominates() {
        let mut rng = seeded_rng(21);
        let (family, prior) = setup(&mut rng);
        let cfg = EdgeLearnerConfig {
            em_rounds: 4,
            ..EdgeLearnerConfig::default()
        };
        let methods = [Method::LocalErm, Method::DroDp, Method::Oracle];
        let aggs = run_trials(&methods, 5, &prior, &cfg, &mut rng, |rng| {
            let task = family.sample_task(rng);
            let train = task.generate(15, rng);
            let test = task.generate(400, rng);
            Ok((train, test, task))
        })
        .unwrap();
        assert_eq!(aggs.len(), 3);
        for (_, agg) in &aggs {
            assert_eq!(agg.len(), 5);
        }
        let acc_of = |m: Method| {
            aggs.iter()
                .find(|(mm, _)| *mm == m)
                .map(|(_, a)| a.mean())
                .unwrap()
        };
        // The oracle is the ceiling (within noise).
        assert!(acc_of(Method::Oracle) + 0.03 >= acc_of(Method::LocalErm));
        assert!(acc_of(Method::Oracle) + 0.03 >= acc_of(Method::DroDp));
    }
}
