//! Worst-case evaluation: adversarial shifts and robustness certificates.

use dre_models::{LinearModel, MarginLoss};

use crate::{Result, RobustError, WassersteinBall, WassersteinDualObjective};

/// Moves every sample `budget` along the steepest loss-increasing feature
/// direction for a linear model: `xᵢ ← xᵢ − yᵢ·budget·w/‖w‖`.
///
/// This is the optimal per-sample ℓ2 attack on a linear decision function,
/// and the transport map achieving the Wasserstein worst case for margin
/// losses in the features-only regime.
///
/// # Errors
///
/// Returns [`RobustError::InvalidParameter`] for a negative/non-finite
/// budget and [`RobustError::InvalidDataset`] for misaligned inputs.
pub fn feature_shift_attack(
    model: &LinearModel,
    xs: &[Vec<f64>],
    ys: &[f64],
    budget: f64,
) -> Result<Vec<Vec<f64>>> {
    if !(budget >= 0.0 && budget.is_finite()) {
        return Err(RobustError::InvalidParameter {
            param: "budget",
            value: budget,
        });
    }
    if xs.len() != ys.len() {
        return Err(RobustError::InvalidDataset {
            reason: "features and labels must be aligned",
        });
    }
    let norm = model.weight_norm();
    if norm == 0.0 || budget == 0.0 {
        // Zero model (no loss-increasing direction) or zero budget: the
        // attack is the identity; skip the shifted-row construction.
        return Ok(xs.to_vec());
    }
    let dir: Vec<f64> = model.weights().iter().map(|w| w / norm).collect();
    // Write each shifted row directly instead of clone-then-axpy: one pass,
    // no intermediate copy of the original row.
    Ok(xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let scale = -y * budget;
            x.iter().zip(&dir).map(|(xi, di)| xi + scale * di).collect()
        })
        .collect())
}

/// Accuracy of the model after the optimal per-sample ℓ2 feature attack of
/// the given budget.
///
/// # Errors
///
/// Same conditions as [`feature_shift_attack`], plus an empty dataset.
pub fn adversarial_accuracy(
    model: &LinearModel,
    xs: &[Vec<f64>],
    ys: &[f64],
    budget: f64,
) -> Result<f64> {
    if xs.is_empty() {
        return Err(RobustError::InvalidDataset {
            reason: "adversarial accuracy needs at least one sample",
        });
    }
    let attacked = feature_shift_attack(model, xs, ys, budget)?;
    let correct = attacked
        .iter()
        .zip(ys)
        .filter(|(x, &y)| model.predict(x) == y)
        .count();
    Ok(correct as f64 / xs.len() as f64)
}

/// A duality-based robustness certificate for a fixed model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Certificate {
    /// Radius of the certified Wasserstein ball.
    pub radius: f64,
    /// Empirical risk on the local samples.
    pub empirical_risk: f64,
    /// Certified upper bound: no distribution within the ball can make the
    /// expected loss exceed this value.
    pub worst_case_bound: f64,
}

impl Certificate {
    /// The premium paid for robustness, `bound − empirical`.
    pub fn robustness_gap(&self) -> f64 {
        self.worst_case_bound - self.empirical_risk
    }
}

/// Certifies a model against every distribution in a Wasserstein ball: by
/// strong duality the returned bound **equals** the worst-case expected
/// loss, so it is tight.
///
/// # Errors
///
/// Propagates dataset/ball validation failures.
pub fn certify<L: MarginLoss>(
    model: &LinearModel,
    xs: &[Vec<f64>],
    ys: &[f64],
    loss: L,
    ball: WassersteinBall,
) -> Result<Certificate> {
    let obj = WassersteinDualObjective::new(xs, ys, loss.clone(), ball)?;
    let worst = obj.exact_robust_risk(model);
    let n = xs.len() as f64;
    let empirical =
        dre_parallel::par_sum_indexed(xs.len(), |i| loss.value(model.margin(&xs[i], ys[i]))) / n;
    Ok(Certificate {
        radius: ball.radius(),
        empirical_risk: empirical,
        worst_case_bound: worst,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_models::LogisticLoss;

    fn setup() -> (LinearModel, Vec<Vec<f64>>, Vec<f64>) {
        let model = LinearModel::new(vec![2.0, 0.0], 0.0);
        let xs = vec![
            vec![1.0, 0.0],
            vec![0.3, 1.0],
            vec![-1.0, 0.5],
            vec![-0.4, -1.0],
        ];
        let ys = vec![1.0, 1.0, -1.0, -1.0];
        (model, xs, ys)
    }

    #[test]
    fn attack_moves_against_the_margin() {
        let (model, xs, ys) = setup();
        let attacked = feature_shift_attack(&model, &xs, &ys, 0.5).unwrap();
        for ((orig, adv), &y) in xs.iter().zip(&attacked).zip(&ys) {
            assert!(model.margin(adv, y) < model.margin(orig, y));
            // Budget is respected exactly.
            assert!((dre_linalg::vector::dist2(orig, adv) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn attack_validation_and_zero_model() {
        let (model, xs, ys) = setup();
        assert!(feature_shift_attack(&model, &xs, &ys, -1.0).is_err());
        assert!(feature_shift_attack(&model, &xs, &ys[..2], 0.1).is_err());
        let zero = LinearModel::zeros(2);
        let attacked = feature_shift_attack(&zero, &xs, &ys, 1.0).unwrap();
        assert_eq!(attacked, xs);
        assert!(adversarial_accuracy(&model, &[], &[], 0.1).is_err());
    }

    #[test]
    fn adversarial_accuracy_decreases_with_budget() {
        let (model, xs, ys) = setup();
        let clean = adversarial_accuracy(&model, &xs, &ys, 0.0).unwrap();
        assert_eq!(clean, 1.0);
        let mut prev = clean;
        for budget in [0.2, 0.5, 1.0, 2.0] {
            let acc = adversarial_accuracy(&model, &xs, &ys, budget).unwrap();
            assert!(acc <= prev + 1e-12);
            prev = acc;
        }
        // Beyond the largest margin/|w| every sample flips.
        assert_eq!(adversarial_accuracy(&model, &xs, &ys, 10.0).unwrap(), 0.0);
    }

    #[test]
    fn certificate_bounds_attacked_loss() {
        let (model, xs, ys) = setup();
        let eps = 0.3;
        let ball = WassersteinBall::features_only(eps).unwrap();
        let cert = certify(&model, &xs, &ys, LogisticLoss, ball).unwrap();
        assert_eq!(cert.radius, eps);
        assert!(cert.robustness_gap() >= 0.0);

        // Any feasible shifted distribution must respect the bound: shifting
        // every point by eps is W₁-feasible (cost exactly eps).
        let attacked = feature_shift_attack(&model, &xs, &ys, eps).unwrap();
        let attacked_risk: f64 = attacked
            .iter()
            .zip(&ys)
            .map(|(x, &y)| LogisticLoss.value(model.margin(x, y)))
            .sum::<f64>()
            / ys.len() as f64;
        assert!(
            attacked_risk <= cert.worst_case_bound + 1e-9,
            "attack {attacked_risk} exceeds certificate {}",
            cert.worst_case_bound
        );
        // Features-only dual has the closed form ERM + ε·L·‖w‖ (the logistic
        // slope is < 1 so the uniform shift approaches but cannot attain it).
        let closed_form = cert.empirical_risk + eps * model.weight_norm();
        assert!((cert.worst_case_bound - closed_form).abs() < 1e-9);
        assert!(attacked_risk < cert.worst_case_bound);
    }

    #[test]
    fn certificate_with_label_flips_is_looser() {
        let (model, xs, ys) = setup();
        let features = certify(
            &model,
            &xs,
            &ys,
            LogisticLoss,
            WassersteinBall::features_only(0.3).unwrap(),
        )
        .unwrap();
        let with_flips = certify(
            &model,
            &xs,
            &ys,
            LogisticLoss,
            WassersteinBall::new(0.3, 0.5).unwrap(),
        )
        .unwrap();
        assert!(with_flips.worst_case_bound >= features.worst_case_bound - 1e-9);
    }
}
