//! Cross-crate duality checks: the certified worst-case bound must dominate
//! every feasible adversary the workspace can construct.

use dre_data::{shift, TaskFamily, TaskFamilyConfig};
use dre_models::{ErmObjective, LinearModel, LogisticLoss, MarginLoss};
use dre_prob::seeded_rng;
use dre_robust::worst_case::{adversarial_accuracy, certify, feature_shift_attack};
use dre_robust::{WassersteinBall, WassersteinDualObjective};

fn setup() -> (LinearModel, dre_data::Dataset) {
    let mut rng = seeded_rng(700);
    let family = TaskFamily::generate(
        &TaskFamilyConfig {
            dim: 4,
            ..TaskFamilyConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let task = family.sample_task(&mut rng);
    let data = task.generate(80, &mut rng);
    let model = dro_edge::baselines::fit_local_erm(&data, 1e-2).unwrap();
    (model, data)
}

#[test]
fn certificate_dominates_every_feasible_feature_attack() {
    let (model, data) = setup();
    let eps = 0.4;
    let ball = WassersteinBall::features_only(eps).unwrap();
    let cert = certify(&model, data.features(), data.labels(), LogisticLoss, ball).unwrap();

    // Every uniform shift with budget ≤ ε is W₁-feasible; none may exceed
    // the certified bound.
    for budget in [0.0, 0.1, 0.2, 0.3, 0.4] {
        let attacked =
            feature_shift_attack(&model, data.features(), data.labels(), budget).unwrap();
        let risk: f64 = attacked
            .iter()
            .zip(data.labels())
            .map(|(x, &y)| LogisticLoss.value(model.margin(x, y)))
            .sum::<f64>()
            / data.len() as f64;
        assert!(
            risk <= cert.worst_case_bound + 1e-9,
            "budget {budget}: attack risk {risk} exceeds bound {}",
            cert.worst_case_bound
        );
    }
    assert!(cert.robustness_gap() >= 0.0);
}

#[test]
fn certificate_also_covers_mean_shift_from_the_data_layer() {
    let (model, data) = setup();
    let eps = 0.5;
    let ball = WassersteinBall::features_only(eps).unwrap();
    let cert = certify(&model, data.features(), data.labels(), LogisticLoss, ball).unwrap();

    // A mean shift of norm ε produced by dre-data is also a feasible
    // transport plan.
    let mut delta = vec![0.0; data.dim()];
    delta[0] = eps;
    let shifted = shift::mean_shift(&data, &delta).unwrap();
    let erm = ErmObjective::new(shifted.features(), shifted.labels(), LogisticLoss, 0.0)
        .unwrap();
    let risk = erm.empirical_risk(&model.to_packed());
    assert!(risk <= cert.worst_case_bound + 1e-9);
}

#[test]
fn adversarial_accuracy_is_bounded_by_certified_loss() {
    let (model, data) = setup();
    // 0/1 error ≤ logistic loss / ln 2 (logistic upper-bounds scaled 0-1
    // loss), so certified logistic risk bounds attacked error too.
    let eps = 0.3;
    let ball = WassersteinBall::features_only(eps).unwrap();
    let cert = certify(&model, data.features(), data.labels(), LogisticLoss, ball).unwrap();
    let adv_acc = adversarial_accuracy(&model, data.features(), data.labels(), eps).unwrap();
    let adv_error = 1.0 - adv_acc;
    assert!(
        adv_error <= cert.worst_case_bound / 2.0f64.ln() + 1e-9,
        "adversarial error {adv_error} vs certified bound {}",
        cert.worst_case_bound / 2.0f64.ln()
    );
}

#[test]
fn wasserstein_dual_is_continuous_across_kappa_regimes() {
    let (model, data) = setup();
    let risk = |eps: f64, kappa: f64| {
        let ball = WassersteinBall::new(eps, kappa).unwrap();
        WassersteinDualObjective::new(data.features(), data.labels(), LogisticLoss, ball)
            .unwrap()
            .exact_robust_risk(&model)
    };
    // Monotone in ε for fixed κ; monotone non-increasing in κ for fixed ε.
    assert!(risk(0.2, 1.0) <= risk(0.4, 1.0) + 1e-12);
    assert!(risk(0.2, 0.5) >= risk(0.2, 2.0) - 1e-12);
    assert!((risk(0.2, 1e12) - risk(0.2, f64::INFINITY)).abs() < 1e-9);
}

#[test]
fn dual_matches_brute_force_primal_on_a_small_instance() {
    // Tiny instance where the primal sup can be searched directly: 3 points
    // in 1-D, a grid of feasible transport plans that move each point by
    // δᵢ and/or flip its label at cost κ, subject to the W₁ budget
    // (1/n)·Σᵢ(|δᵢ| + κ·flipᵢ) ≤ ε. The dual must upper-bound every
    // feasible plan and be approached by the best one.
    use dre_models::LinearModel;
    let xs = vec![vec![1.0], vec![-0.5], vec![0.2]];
    let ys = vec![1.0, -1.0, 1.0];
    let model = LinearModel::new(vec![1.5], -0.1);
    let eps = 0.3;
    let kappa = 0.8;
    let ball = WassersteinBall::new(eps, kappa).unwrap();
    let dual = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
    let bound = dual.exact_robust_risk(&model);

    let n = xs.len() as f64;
    let mut best_primal = f64::NEG_INFINITY;
    let deltas: Vec<f64> = (-40..=40).map(|i| i as f64 * 0.025).collect();
    for &d0 in &deltas {
        for &d1 in &deltas {
            for &d2 in &deltas {
                for flips in 0..8u8 {
                    let flip = [flips & 1 != 0, flips & 2 != 0, flips & 4 != 0];
                    let cost = (d0.abs()
                        + d1.abs()
                        + d2.abs()
                        + kappa * flip.iter().filter(|&&f| f).count() as f64)
                        / n;
                    if cost > eps {
                        continue;
                    }
                    let risk = [
                        (xs[0][0] + d0, if flip[0] { -ys[0] } else { ys[0] }),
                        (xs[1][0] + d1, if flip[1] { -ys[1] } else { ys[1] }),
                        (xs[2][0] + d2, if flip[2] { -ys[2] } else { ys[2] }),
                    ]
                    .iter()
                    .map(|&(x, y)| LogisticLoss.value(model.margin(&[x], y)))
                    .sum::<f64>()
                        / n;
                    best_primal = best_primal.max(risk);
                }
            }
        }
    }
    assert!(
        best_primal <= bound + 1e-9,
        "a feasible primal plan ({best_primal}) exceeded the dual bound ({bound})"
    );
    // Strong duality: the grid search should come close to the bound
    // (the grid is finite and moves points by at most 1, so allow slack).
    assert!(
        bound - best_primal < 0.05,
        "dual bound ({bound}) is not tight against the primal ({best_primal})"
    );
}
