//! The ℓ2-regularized empirical-risk objective.

use dre_optim::Objective;

use crate::{MarginLoss, ModelError, Result};

/// Empirical risk minimization objective
///
/// ```text
/// F(w, b) = (1/n) Σᵢ ℓ(yᵢ·(wᵀxᵢ + b)) + (λ/2)‖w‖²
/// ```
///
/// over the packed parameter `[w…, b]` (the bias is not regularized).
/// This is the training problem of the Local-ERM baseline and the smooth
/// part of several robust reformulations.
///
/// Borrows the dataset, so constructing one is free; the same data can back
/// many objectives with different losses or `λ`.
#[derive(Debug)]
pub struct ErmObjective<'a, L> {
    xs: &'a [Vec<f64>],
    ys: &'a [f64],
    loss: L,
    lambda: f64,
    dim: usize,
}

impl<'a, L: MarginLoss> ErmObjective<'a, L> {
    /// Creates the objective.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidDataset`] for empty or inconsistent data.
    /// * [`ModelError::InvalidLabel`] for labels outside `{−1, +1}`.
    /// * [`ModelError::InvalidParameter`] for `λ < 0`.
    pub fn new(xs: &'a [Vec<f64>], ys: &'a [f64], loss: L, lambda: f64) -> Result<Self> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(ModelError::InvalidDataset {
                reason: "features and labels must be nonempty and equal length",
            });
        }
        let d = xs[0].len();
        if d == 0 || xs.iter().any(|x| x.len() != d) {
            return Err(ModelError::InvalidDataset {
                reason: "feature rows must share a nonzero dimension",
            });
        }
        for &y in ys {
            if y != 1.0 && y != -1.0 {
                return Err(ModelError::InvalidLabel { label: y });
            }
        }
        if !(lambda >= 0.0 && lambda.is_finite()) {
            return Err(ModelError::InvalidParameter {
                param: "lambda",
                value: lambda,
            });
        }
        Ok(ErmObjective {
            xs,
            ys,
            loss,
            lambda,
            dim: d + 1,
        })
    }

    /// The regularization strength `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Unregularized empirical risk at the packed parameter.
    pub fn empirical_risk(&self, packed: &[f64]) -> f64 {
        let (w, b) = split(packed);
        let n = self.xs.len() as f64;
        self.xs
            .iter()
            .zip(self.ys)
            .map(|(x, &y)| self.loss.value(y * (dre_linalg::vector::dot(w, x) + b)))
            .sum::<f64>()
            / n
    }
}

#[inline]
fn split(packed: &[f64]) -> (&[f64], f64) {
    (&packed[..packed.len() - 1], packed[packed.len() - 1])
}

impl<L: MarginLoss> Objective for ErmObjective<'_, L> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn value(&self, packed: &[f64]) -> f64 {
        let (w, _) = split(packed);
        self.empirical_risk(packed) + 0.5 * self.lambda * dre_linalg::vector::dot(w, w)
    }

    fn gradient(&self, packed: &[f64]) -> Vec<f64> {
        self.value_and_gradient(packed).1
    }

    fn value_and_gradient(&self, packed: &[f64]) -> (f64, Vec<f64>) {
        let (w, b) = split(packed);
        let n = self.xs.len() as f64;
        let mut value = 0.0;
        let mut grad = vec![0.0; packed.len()];
        for (x, &y) in self.xs.iter().zip(self.ys) {
            let m = y * (dre_linalg::vector::dot(w, x) + b);
            value += self.loss.value(m);
            let coeff = self.loss.derivative(m) * y / n;
            let (gw, gb) = grad.split_at_mut(x.len());
            dre_linalg::vector::axpy(coeff, x, gw);
            gb[0] += coeff;
        }
        value /= n;
        value += 0.5 * self.lambda * dre_linalg::vector::dot(w, w);
        let d = w.len();
        for i in 0..d {
            grad[i] += self.lambda * w[i];
        }
        (value, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearModel, LogisticLoss, SquaredLoss};
    use dre_optim::{numerical_gradient, Lbfgs, StopCriteria};

    fn toy() -> (Vec<Vec<f64>>, Vec<f64>) {
        (
            vec![
                vec![2.0, 0.5],
                vec![1.5, -0.5],
                vec![-1.0, 0.3],
                vec![-2.0, -0.2],
            ],
            vec![1.0, 1.0, -1.0, -1.0],
        )
    }

    #[test]
    fn construction_validation() {
        let (xs, ys) = toy();
        assert!(ErmObjective::new(&[], &[], LogisticLoss, 0.1).is_err());
        assert!(ErmObjective::new(&xs, &ys[..3], LogisticLoss, 0.1).is_err());
        assert!(ErmObjective::new(&xs, &[1.0, 1.0, -1.0, 0.5], LogisticLoss, 0.1).is_err());
        assert!(ErmObjective::new(&xs, &ys, LogisticLoss, -0.1).is_err());
        let ragged = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(ErmObjective::new(&ragged, &[1.0, -1.0], LogisticLoss, 0.1).is_err());
        let obj = ErmObjective::new(&xs, &ys, LogisticLoss, 0.1).unwrap();
        assert_eq!(obj.dim(), 3);
        assert_eq!(obj.lambda(), 0.1);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (xs, ys) = toy();
        for packed in [[0.1, -0.2, 0.05], [1.0, 1.0, -1.0]] {
            let log = ErmObjective::new(&xs, &ys, LogisticLoss, 0.3).unwrap();
            let num = numerical_gradient(&log, &packed, 1e-6);
            assert!(dre_linalg::vector::max_abs_diff(&num, &log.gradient(&packed)) < 1e-6);

            let sq = ErmObjective::new(&xs, &ys, SquaredLoss, 0.0).unwrap();
            let num = numerical_gradient(&sq, &packed, 1e-6);
            assert!(dre_linalg::vector::max_abs_diff(&num, &sq.gradient(&packed)) < 1e-5);
        }
    }

    #[test]
    fn training_separates_separable_data() {
        let (xs, ys) = toy();
        let obj = ErmObjective::new(&xs, &ys, LogisticLoss, 1e-4).unwrap();
        let r = Lbfgs::new(StopCriteria::default())
            .minimize(&obj, &[0.0, 0.0, 0.0])
            .unwrap();
        let model = LinearModel::from_packed(&r.x);
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(model.predict(x), y);
        }
    }

    #[test]
    fn regularization_shrinks_weights() {
        let (xs, ys) = toy();
        let fit = |lambda: f64| {
            let obj = ErmObjective::new(&xs, &ys, LogisticLoss, lambda).unwrap();
            let r = Lbfgs::new(StopCriteria::default())
                .minimize(&obj, &[0.0, 0.0, 0.0])
                .unwrap();
            LinearModel::from_packed(&r.x).weight_norm()
        };
        assert!(fit(1.0) < fit(0.01));
    }

    #[test]
    fn empirical_risk_excludes_regularizer() {
        let (xs, ys) = toy();
        let obj = ErmObjective::new(&xs, &ys, LogisticLoss, 10.0).unwrap();
        let packed = [1.0, 0.0, 0.0];
        assert!((obj.value(&packed) - obj.empirical_risk(&packed) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bias_is_not_regularized() {
        let (xs, ys) = toy();
        let obj = ErmObjective::new(&xs, &ys, LogisticLoss, 100.0).unwrap();
        // Gradient of regularizer term at w=0 must be zero even with huge λ.
        let g = obj.gradient(&[0.0, 0.0, 5.0]);
        // Bias coordinate gradient comes only from the data term, bounded by 1.
        assert!(g[2].abs() <= 1.0);
    }
}
