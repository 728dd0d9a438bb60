//! The baselines the paper's evaluation compares against.
//!
//! Each baseline strips one ingredient from the full algorithm:
//!
//! | Baseline | Robustness | Cloud prior |
//! |---|---|---|
//! | [`fit_local_erm`] | ✗ | ✗ |
//! | [`fit_dro_only`] | ✓ | ✗ |
//! | [`fit_map_only`] | ✗ | ✓ |
//! | [`cloud_only`] | — | ✓ (no local training) |
//! | [`EdgeLearner`](crate::EdgeLearner) | ✓ | ✓ (the paper's method) |

use dre_bayes::MixturePrior;
use dre_data::Dataset;
use dre_models::{ErmObjective, LinearModel, LogisticLoss};
use dre_optim::{FnObjective, Lbfgs, Objective, StopCriteria};
use dre_robust::{WassersteinBall, WassersteinDualObjective};

use crate::{EdgeError, Result};

/// Local ERM: ridge-regularized logistic regression on the local samples
/// only — the paper's "standard learning approach using local edge data
/// only".
///
/// # Errors
///
/// Propagates dataset and solver failures.
pub fn fit_local_erm(data: &Dataset, lambda: f64) -> Result<LinearModel> {
    let obj = ErmObjective::new(data.features(), data.labels(), LogisticLoss, lambda)?;
    let start = vec![0.0; data.dim() + 1];
    let r = Lbfgs::new(StopCriteria::with_max_iters(300)).minimize(&obj, &start)?;
    Ok(LinearModel::from_packed(&r.x))
}

/// DRO without the cloud prior: minimizes the smoothed Wasserstein dual
/// alone.
///
/// # Errors
///
/// Propagates dataset and solver failures.
pub fn fit_dro_only(data: &Dataset, epsilon: f64, kappa: f64) -> Result<LinearModel> {
    let ball = WassersteinBall::new(epsilon, kappa)?;
    let obj = WassersteinDualObjective::new(data.features(), data.labels(), LogisticLoss, ball)?;
    let start = obj.initial_point(&LinearModel::zeros(data.dim()));
    let r = Lbfgs::new(StopCriteria::with_max_iters(300)).minimize(&obj, &start)?;
    let (model, _gamma) = obj.unpack(&r.x);
    Ok(model)
}

/// MAP transfer without robustness: empirical risk plus the DP prior term,
/// optimized by the same EM majorize–minimize scheme as the full learner
/// but with `ε = 0`.
///
/// # Errors
///
/// Returns [`EdgeError::InvalidData`] on a prior/data dimension mismatch
/// and propagates solver failures.
pub fn fit_map_only(
    data: &Dataset,
    prior: &MixturePrior,
    rho: f64,
    em_rounds: usize,
) -> Result<LinearModel> {
    if data.dim() + 1 != prior.dim() {
        return Err(EdgeError::InvalidData {
            reason: "prior dimension must equal feature dimension + 1 (bias)",
        });
    }
    if !(rho >= 0.0 && rho.is_finite()) {
        return Err(EdgeError::InvalidConfig {
            param: "rho",
            value: rho,
        });
    }
    let erm = ErmObjective::new(data.features(), data.labels(), LogisticLoss, 0.0)?;
    let n = data.len() as f64;
    let scale = rho / n;
    // MAP-EM shares the multi-modality of the full learner: start at the
    // component whose mean explains the local data best (the same
    // data-aware selection `cloud_only` performs) so the chain lands in
    // the right basin.
    let mut theta: Vec<f64> = cloud_only(data, prior)?.to_packed();

    for _ in 0..em_rounds.max(1) {
        let resp = prior.responsibilities(&theta);
        let surrogate = prior.em_surrogate(&resp)?;
        let obj = FnObjective::new(theta.len(), |p: &[f64]| {
            let (ev, mut eg) = erm.value_and_gradient(p);
            let qv = surrogate.value(p);
            let qg = surrogate.gradient(p);
            for (g, q) in eg.iter_mut().zip(&qg) {
                *g += scale * q;
            }
            (ev + scale * qv, eg)
        });
        let r = Lbfgs::new(StopCriteria::with_max_iters(300)).minimize(&obj, &theta)?;
        let moved = dre_linalg::vector::max_abs_diff(&r.x, &theta);
        theta = r.x;
        if moved < 1e-9 {
            break;
        }
    }
    Ok(LinearModel::from_packed(&theta))
}

/// Cloud-only transfer: pick the prior component whose mean explains the
/// local samples best (highest local log-likelihood under the logistic
/// model) and use that mean directly — no local optimization at all.
///
/// # Errors
///
/// Returns [`EdgeError::InvalidData`] on a prior/data dimension mismatch.
pub fn cloud_only(data: &Dataset, prior: &MixturePrior) -> Result<LinearModel> {
    if data.dim() + 1 != prior.dim() {
        return Err(EdgeError::InvalidData {
            reason: "prior dimension must equal feature dimension + 1 (bias)",
        });
    }
    let mut best: Option<(f64, LinearModel)> = None;
    for comp in prior.components() {
        let model = LinearModel::from_packed(comp.mean());
        let mut loglik = comp.weight().ln();
        for (x, &y) in data.features().iter().zip(data.labels()) {
            loglik -= LogisticLossValue::value(model.margin(x, y));
        }
        if best.as_ref().is_none_or(|(b, _)| loglik > *b) {
            best = Some((loglik, model));
        }
    }
    Ok(best.expect("prior has at least one component").1)
}

/// Local alias so `cloud_only` does not need a `MarginLoss` import at the
/// call site.
struct LogisticLossValue;

impl LogisticLossValue {
    fn value(margin: f64) -> f64 {
        use dre_models::MarginLoss;
        LogisticLoss.value(margin)
    }
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
    fn local_erm_learns_with_ample_data() {
        let mut rng = seeded_rng(10);
        let (family, _) = setup(&mut rng);
        let task = family.sample_task(&mut rng);
        let train = task.generate(500, &mut rng);
        let test = task.generate(1000, &mut rng);
        let model = fit_local_erm(&train, 1e-3).unwrap();
        let acc = dre_models::metrics::accuracy(&model, test.features(), test.labels()).unwrap();
        assert!(acc > 0.85, "ample-data ERM accuracy {acc}");
    }

    #[test]
    fn dro_only_has_smaller_weights_than_erm() {
        let mut rng = seeded_rng(11);
        let (family, _) = setup(&mut rng);
        let task = family.sample_task(&mut rng);
        let train = task.generate(40, &mut rng);
        let erm = fit_local_erm(&train, 0.0).unwrap();
        let dro = fit_dro_only(&train, 0.3, 1.0).unwrap();
        assert!(dro.weight_norm() < erm.weight_norm());
    }

    #[test]
    fn map_only_interpolates_between_prior_and_data() {
        let mut rng = seeded_rng(12);
        let (family, prior) = setup(&mut rng);
        let task = family.sample_task(&mut rng);
        let train = task.generate(15, &mut rng);
        // Huge ρ pins the solution at a prior mode.
        let pinned = fit_map_only(&train, &prior, 1e6, 5).unwrap();
        let closest_center = family
            .cluster_centers()
            .iter()
            .map(|c| dre_linalg::vector::dist2(c, &pinned.to_packed()))
            .fold(f64::INFINITY, f64::min);
        assert!(closest_center < 0.3, "huge rho should pin to a mode");
        // ρ = 0 reduces to ERM-like behavior.
        let free = fit_map_only(&train, &prior, 0.0, 5).unwrap();
        let erm = fit_local_erm(&train, 0.0).unwrap();
        let risk = |m: &LinearModel| {
            let obj =
                ErmObjective::new(train.features(), train.labels(), LogisticLoss, 0.0).unwrap();
            obj.empirical_risk(&m.to_packed())
        };
        assert!((risk(&free) - risk(&erm)).abs() < 0.02);
    }

    #[test]
    fn map_only_validation() {
        let mut rng = seeded_rng(13);
        let (family, prior) = setup(&mut rng);
        let task = family.sample_task(&mut rng);
        let data = task.generate(10, &mut rng);
        let wrong = MixturePrior::single(vec![0.0; 7], Matrix::identity(7)).unwrap();
        assert!(fit_map_only(&data, &wrong, 1.0, 3).is_err());
        assert!(fit_map_only(&data, &prior, -1.0, 3).is_err());
    }

    #[test]
    fn cloud_only_picks_the_right_cluster() {
        let mut rng = seeded_rng(14);
        let (family, prior) = setup(&mut rng);
        let mut correct = 0;
        let trials = 10;
        for _ in 0..trials {
            let task = family.sample_task(&mut rng);
            let data = task.generate(30, &mut rng);
            let model = cloud_only(&data, &prior).unwrap();
            // The selected component mean must be the task's own cluster
            // center.
            let packed = model.to_packed();
            let own = dre_linalg::vector::dist2(&packed, &family.cluster_centers()[task.cluster()]);
            if own < 1e-9 {
                correct += 1;
            }
        }
        assert!(correct >= 8, "cloud-only matched {correct}/{trials}");
        // Dimension mismatch.
        let wrong = MixturePrior::single(vec![0.0; 7], Matrix::identity(7)).unwrap();
        let task = family.sample_task(&mut rng);
        let data = task.generate(5, &mut rng);
        assert!(cloud_only(&data, &wrong).is_err());
    }
}
