//! The M-step objective: Wasserstein dual + convex prior surrogate.

use dre_bayes::QuadraticSurrogate;
use dre_optim::Objective;
use dre_robust::WassersteinDualObjective;

/// The convex objective each M-step minimizes:
///
/// ```text
/// G(w, b, s) = [ γ(w,s)·ε + (1/n) Σᵢ smaxᵢ ]   (smoothed Wasserstein dual)
///            + (ρ/n) · q(w, b)                 (E-step quadratic majorizer)
/// ```
///
/// over the packed variable `[w…, b, s]`. The quadratic applies only to the
/// model coordinates `[w…, b]`; the dual slack `s` carries no prior.
///
/// Both terms are convex, so the M-step is a single convex program — this is
/// exactly the paper's "convex relaxation derived by an EM-inspired method".
#[derive(Debug)]
pub struct DroDpObjective<'a, L> {
    dual: &'a WassersteinDualObjective<'a, L>,
    surrogate: &'a QuadraticSurrogate,
    /// `ρ/n` — the prior weight already divided by the sample count.
    prior_scale: f64,
}

impl<'a, L: dre_models::MarginLoss> DroDpObjective<'a, L> {
    /// Combines a dual objective with an E-step surrogate.
    ///
    /// # Panics
    ///
    /// Panics when the surrogate dimension does not match the dual's model
    /// dimension (`dual.dim() − 1`), or `prior_scale` is negative/non-finite.
    pub fn new(
        dual: &'a WassersteinDualObjective<'a, L>,
        surrogate: &'a QuadraticSurrogate,
        prior_scale: f64,
    ) -> Self {
        assert_eq!(
            surrogate.a().rows(),
            dual.dim() - 1,
            "surrogate must cover the packed model [w…, b]"
        );
        assert!(
            prior_scale >= 0.0 && prior_scale.is_finite(),
            "prior scale must be non-negative and finite"
        );
        DroDpObjective {
            dual,
            surrogate,
            prior_scale,
        }
    }
}

impl<L: dre_models::MarginLoss> Objective for DroDpObjective<'_, L> {
    fn dim(&self) -> usize {
        self.dual.dim()
    }

    fn value(&self, packed: &[f64]) -> f64 {
        let model_part = &packed[..packed.len() - 1];
        self.dual.value(packed) + self.prior_scale * self.surrogate.value(model_part)
    }

    fn gradient(&self, packed: &[f64]) -> Vec<f64> {
        self.value_and_gradient(packed).1
    }

    fn value_and_gradient(&self, packed: &[f64]) -> (f64, Vec<f64>) {
        let mut grad = vec![0.0; packed.len()];
        let value = self.value_and_gradient_into(packed, &mut grad);
        (value, grad)
    }

    fn value_and_gradient_into(&self, packed: &[f64], grad: &mut [f64]) -> f64 {
        let dv = self.dual.value_and_gradient_into(packed, grad);
        let model = packed.len() - 1;
        let qv = self.surrogate.value_adding_gradient(
            &packed[..model],
            self.prior_scale,
            &mut grad[..model],
        );
        dv + self.prior_scale * qv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_bayes::MixturePrior;
    use dre_linalg::Matrix;
    use dre_models::LogisticLoss;
    use dre_optim::numerical_gradient;
    use dre_robust::WassersteinBall;

    fn setup() -> (Vec<Vec<f64>>, Vec<f64>, MixturePrior) {
        let xs = vec![
            vec![1.0, 0.5],
            vec![-0.8, 0.2],
            vec![0.3, -1.0],
            vec![-0.2, 0.9],
        ];
        let ys = vec![1.0, -1.0, 1.0, -1.0];
        let prior = MixturePrior::new(vec![
            (0.6, vec![1.0, 0.0, 0.0], Matrix::identity(3)),
            (
                0.4,
                vec![-1.0, 1.0, 0.5],
                Matrix::from_diag(&[0.5, 2.0, 1.0]),
            ),
        ])
        .unwrap();
        (xs, ys, prior)
    }

    #[test]
    fn combines_value_and_gradient_consistently() {
        let (xs, ys, prior) = setup();
        let ball = WassersteinBall::new(0.15, 1.0).unwrap();
        let dual = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
        let anchor = [0.2, -0.1, 0.05];
        let surrogate = prior
            .em_surrogate(&prior.responsibilities(&anchor))
            .unwrap();
        let obj = DroDpObjective::new(&dual, &surrogate, 0.5);
        assert_eq!(obj.dim(), 4);

        let packed = [0.2, -0.1, 0.05, 0.3];
        // Value decomposes.
        let expected = dual.value(&packed) + 0.5 * surrogate.value(&packed[..3]);
        assert!((obj.value(&packed) - expected).abs() < 1e-12);
        // Gradient check.
        let num = numerical_gradient(&obj, &packed, 1e-6);
        assert!(dre_linalg::vector::max_abs_diff(&num, &obj.gradient(&packed)) < 1e-5);
    }

    #[test]
    fn in_place_evaluation_is_bit_identical_to_the_separate_terms() {
        let (xs, ys, prior) = setup();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for kappa in [0.25, 1.0, f64::INFINITY] {
            let ball = WassersteinBall::new(0.15, kappa).unwrap();
            let dual = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
            for (anchor, packed) in [
                ([0.2, -0.1, 0.05], [0.2, -0.1, 0.05, 0.3]),
                ([-0.9, 1.1, 0.4], [1.7, -0.6, -0.35, -2.0]),
            ] {
                let surrogate = prior
                    .em_surrogate(&prior.responsibilities(&anchor))
                    .unwrap();
                let obj = DroDpObjective::new(&dual, &surrogate, 0.37);
                // The form before `Aθ` was shared: the dual's gradient plus
                // ρ/n times the surrogate's own value and gradient.
                let (dv, mut expected) = dual.value_and_gradient(&packed);
                let theta = &packed[..3];
                for (g, q) in expected.iter_mut().zip(surrogate.gradient(theta)) {
                    *g += 0.37 * q;
                }
                let expected_value = dv + 0.37 * surrogate.value(theta);

                let (v, g) = obj.value_and_gradient(&packed);
                let mut into = vec![f64::NAN; 4];
                let vi = obj.value_and_gradient_into(&packed, &mut into);
                assert_eq!(
                    (v.to_bits(), bits(&g)),
                    (expected_value.to_bits(), bits(&expected))
                );
                assert_eq!((vi.to_bits(), bits(&into)), (v.to_bits(), bits(&g)));
            }
        }
    }

    #[test]
    fn zero_prior_scale_reduces_to_dual() {
        let (xs, ys, prior) = setup();
        let ball = WassersteinBall::new(0.15, 1.0).unwrap();
        let dual = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
        let surrogate = prior
            .em_surrogate(&prior.responsibilities(&[0.0, 0.0, 0.0]))
            .unwrap();
        let obj = DroDpObjective::new(&dual, &surrogate, 0.0);
        let packed = [0.5, 0.5, -0.2, 0.1];
        assert_eq!(obj.value(&packed), dual.value(&packed));
    }

    #[test]
    #[should_panic(expected = "surrogate must cover")]
    fn rejects_mismatched_surrogate() {
        let (xs, ys, _) = setup();
        let wrong_prior = MixturePrior::single(vec![0.0; 5], Matrix::identity(5)).unwrap();
        let ball = WassersteinBall::new(0.1, 1.0).unwrap();
        let dual = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
        let surrogate = wrong_prior
            .em_surrogate(&wrong_prior.responsibilities(&[0.0; 5]))
            .unwrap();
        let _ = DroDpObjective::new(&dual, &surrogate, 1.0);
    }
}
