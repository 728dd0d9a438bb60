//! Multiclass softmax (multinomial logistic) regression.

use dre_optim::Objective;

use crate::{ModelError, Result};

/// A multiclass linear classifier with softmax link.
///
/// Parameters are a `k × d` weight matrix plus `k` biases, packed row-major
/// as `[w₀…, b₀, w₁…, b₁, …]` for the solvers.
///
/// # Example
///
/// ```
/// use dre_models::SoftmaxModel;
///
/// let m = SoftmaxModel::zeros(3, 2);
/// let p = m.predict_proba(&[1.0, -1.0]);
/// assert_eq!(p.len(), 3);
/// assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxModel {
    /// Per-class weight rows.
    weights: Vec<Vec<f64>>,
    biases: Vec<f64>,
}

impl SoftmaxModel {
    /// The zero model with `k` classes over `d` features.
    ///
    /// # Panics
    ///
    /// Panics when `k < 2` or `d == 0`.
    pub fn zeros(k: usize, d: usize) -> Self {
        assert!(k >= 2, "softmax needs at least two classes");
        assert!(d > 0, "softmax needs at least one feature");
        SoftmaxModel {
            weights: vec![vec![0.0; d]; k],
            biases: vec![0.0; k],
        }
    }

    /// Unpacks a solver iterate (layout `[w₀…, b₀, w₁…, b₁, …]`).
    ///
    /// # Panics
    ///
    /// Panics when `packed.len() != k·(d+1)`.
    pub fn from_packed(k: usize, d: usize, packed: &[f64]) -> Self {
        assert_eq!(packed.len(), k * (d + 1), "packed length must be k*(d+1)");
        let mut weights = Vec::with_capacity(k);
        let mut biases = Vec::with_capacity(k);
        for c in 0..k {
            let row = &packed[c * (d + 1)..(c + 1) * (d + 1)];
            weights.push(row[..d].to_vec());
            biases.push(row[d]);
        }
        SoftmaxModel { weights, biases }
    }

    /// Packs the parameters for the solvers.
    pub fn to_packed(&self) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.weights.len() * (self.dim() + 1));
        for (w, &b) in self.weights.iter().zip(&self.biases) {
            p.extend_from_slice(w);
            p.push(b);
        }
        p
    }

    /// Number of classes `k`.
    pub fn num_classes(&self) -> usize {
        self.weights.len()
    }

    /// Feature dimension `d`.
    pub fn dim(&self) -> usize {
        self.weights[0].len()
    }

    /// Per-class scores `W x + b`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.dim()`.
    pub fn scores(&self, x: &[f64]) -> Vec<f64> {
        self.weights
            .iter()
            .zip(&self.biases)
            .map(|(w, &b)| dre_linalg::vector::dot(w, x) + b)
            .collect()
    }

    /// Class probabilities `softmax(W x + b)`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.dim()`.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut s = self.scores(x);
        dre_linalg::vector::softmax_in_place(&mut s);
        s
    }

    /// Most probable class index.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.dim()`.
    pub fn predict(&self, x: &[f64]) -> usize {
        let s = self.scores(x);
        let mut best = 0;
        for (i, &v) in s.iter().enumerate() {
            if v > s[best] {
                best = i;
            }
        }
        best
    }
}

/// ℓ2-regularized multiclass cross-entropy objective over the packed
/// softmax parameters.
#[derive(Debug)]
pub struct SoftmaxObjective<'a> {
    xs: &'a [Vec<f64>],
    ys: &'a [usize],
    num_classes: usize,
    lambda: f64,
    d: usize,
}

impl<'a> SoftmaxObjective<'a> {
    /// Creates the objective for labels in `0..num_classes`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidDataset`] for empty/inconsistent data or
    ///   `num_classes < 2`.
    /// * [`ModelError::InvalidLabel`] for out-of-range labels.
    /// * [`ModelError::InvalidParameter`] for `λ < 0`.
    pub fn new(
        xs: &'a [Vec<f64>],
        ys: &'a [usize],
        num_classes: usize,
        lambda: f64,
    ) -> Result<Self> {
        if xs.is_empty() || xs.len() != ys.len() || num_classes < 2 {
            return Err(ModelError::InvalidDataset {
                reason: "softmax needs nonempty aligned data and ≥2 classes",
            });
        }
        let d = xs[0].len();
        if d == 0 || xs.iter().any(|x| x.len() != d) {
            return Err(ModelError::InvalidDataset {
                reason: "feature rows must share a nonzero dimension",
            });
        }
        if let Some(&bad) = ys.iter().find(|&&y| y >= num_classes) {
            return Err(ModelError::InvalidLabel { label: bad as f64 });
        }
        if !(lambda >= 0.0 && lambda.is_finite()) {
            return Err(ModelError::InvalidParameter {
                param: "lambda",
                value: lambda,
            });
        }
        Ok(SoftmaxObjective {
            xs,
            ys,
            num_classes,
            lambda,
            d,
        })
    }
}

impl Objective for SoftmaxObjective<'_> {
    fn dim(&self) -> usize {
        self.num_classes * (self.d + 1)
    }

    fn value(&self, packed: &[f64]) -> f64 {
        self.value_and_gradient(packed).0
    }

    fn gradient(&self, packed: &[f64]) -> Vec<f64> {
        self.value_and_gradient(packed).1
    }

    fn value_and_gradient(&self, packed: &[f64]) -> (f64, Vec<f64>) {
        let k = self.num_classes;
        let d = self.d;
        let model = SoftmaxModel::from_packed(k, d, packed);
        let n = self.xs.len() as f64;
        let mut value = 0.0;
        let mut grad = vec![0.0; packed.len()];
        for (x, &y) in self.xs.iter().zip(self.ys) {
            let mut logp = model.scores(x);
            let lse = dre_linalg::vector::log_sum_exp(&logp);
            value -= logp[y] - lse;
            dre_linalg::vector::softmax_in_place(&mut logp);
            for c in 0..k {
                let coeff = (logp[c] - if c == y { 1.0 } else { 0.0 }) / n;
                let row = &mut grad[c * (d + 1)..(c + 1) * (d + 1)];
                dre_linalg::vector::axpy(coeff, x, &mut row[..d]);
                row[d] += coeff;
            }
        }
        value /= n;
        // ℓ2 on weights only (not biases).
        for c in 0..k {
            let row_w = &packed[c * (d + 1)..c * (d + 1) + d];
            value += 0.5 * self.lambda * dre_linalg::vector::dot(row_w, row_w);
            let grad_row = &mut grad[c * (d + 1)..c * (d + 1) + d];
            dre_linalg::vector::axpy(self.lambda, row_w, grad_row);
        }
        (value, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_optim::{numerical_gradient, Lbfgs, StopCriteria};

    fn three_class_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let centers = [[0.0, 4.0], [4.0, -2.0], [-4.0, -2.0]];
        for (c, center) in centers.iter().enumerate() {
            for i in 0..8 {
                let jitter = (i as f64 - 3.5) * 0.1;
                xs.push(vec![center[0] + jitter, center[1] - jitter]);
                ys.push(c);
            }
        }
        (xs, ys)
    }

    #[test]
    fn model_construction_and_packing() {
        let m = SoftmaxModel::zeros(3, 2);
        assert_eq!(m.num_classes(), 3);
        assert_eq!(m.dim(), 2);
        let p = m.to_packed();
        assert_eq!(p.len(), 9);
        assert_eq!(SoftmaxModel::from_packed(3, 2, &p), m);
    }

    #[test]
    #[should_panic(expected = "two classes")]
    fn rejects_single_class() {
        SoftmaxModel::zeros(1, 2);
    }

    #[test]
    fn objective_validation() {
        let (xs, ys) = three_class_data();
        assert!(SoftmaxObjective::new(&[], &[], 3, 0.1).is_err());
        assert!(SoftmaxObjective::new(&xs, &ys, 1, 0.1).is_err());
        assert!(SoftmaxObjective::new(&xs, &ys, 3, -1.0).is_err());
        let bad_labels = vec![5usize; xs.len()];
        assert!(matches!(
            SoftmaxObjective::new(&xs, &bad_labels, 3, 0.1),
            Err(ModelError::InvalidLabel { .. })
        ));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (xs, ys) = three_class_data();
        let obj = SoftmaxObjective::new(&xs, &ys, 3, 0.2).unwrap();
        let packed: Vec<f64> = (0..obj.dim())
            .map(|i| (i as f64 * 0.713).sin() * 0.4)
            .collect();
        let num = numerical_gradient(&obj, &packed, 1e-6);
        assert!(dre_linalg::vector::max_abs_diff(&num, &obj.gradient(&packed)) < 1e-6);
    }

    #[test]
    fn training_classifies_three_clusters() {
        let (xs, ys) = three_class_data();
        let obj = SoftmaxObjective::new(&xs, &ys, 3, 1e-3).unwrap();
        let r = Lbfgs::new(StopCriteria::default())
            .minimize(&obj, &vec![0.0; obj.dim()])
            .unwrap();
        let model = SoftmaxModel::from_packed(3, 2, &r.x);
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        assert_eq!(correct, xs.len());
        // Probabilities are normalized.
        let p = model.predict_proba(&xs[0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_model_has_uniform_probabilities_and_log_k_loss() {
        let (xs, ys) = three_class_data();
        let obj = SoftmaxObjective::new(&xs, &ys, 3, 0.0).unwrap();
        let zero = vec![0.0; obj.dim()];
        assert!((obj.value(&zero) - 3.0f64.ln()).abs() < 1e-12);
        let m = SoftmaxModel::zeros(3, 2);
        let p = m.predict_proba(&[1.0, 1.0]);
        assert!(p.iter().all(|&v| (v - 1.0 / 3.0).abs() < 1e-12));
    }
}
