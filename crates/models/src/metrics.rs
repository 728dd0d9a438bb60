//! Evaluation metrics for binary classifiers.

use crate::{LinearModel, ModelError, Result};

/// Classification accuracy of a model on a labelled set.
///
/// # Errors
///
/// Returns [`ModelError::InvalidDataset`] for empty or misaligned inputs.
pub fn accuracy(model: &LinearModel, xs: &[Vec<f64>], ys: &[f64]) -> Result<f64> {
    check(xs, ys)?;
    let correct = xs
        .iter()
        .zip(ys)
        .filter(|(x, &y)| model.predict(x) == y)
        .count();
    Ok(correct as f64 / xs.len() as f64)
}

/// Misclassification rate `1 − accuracy`.
///
/// # Errors
///
/// Returns [`ModelError::InvalidDataset`] for empty or misaligned inputs.
pub fn error_rate(model: &LinearModel, xs: &[Vec<f64>], ys: &[f64]) -> Result<f64> {
    Ok(1.0 - accuracy(model, xs, ys)?)
}

/// Mean negative log-likelihood under the logistic link, clamped away from
/// 0/1 probabilities for numerical safety.
///
/// # Errors
///
/// Returns [`ModelError::InvalidDataset`] for empty or misaligned inputs.
pub fn log_loss(model: &LinearModel, xs: &[Vec<f64>], ys: &[f64]) -> Result<f64> {
    check(xs, ys)?;
    let n = xs.len() as f64;
    let mut total = 0.0;
    for (x, &y) in xs.iter().zip(ys) {
        let p = model.predict_proba(x).clamp(1e-15, 1.0 - 1e-15);
        total -= if y > 0.0 { p.ln() } else { (1.0 - p).ln() };
    }
    Ok(total / n)
}

/// Binary confusion counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// True positives (`+1` predicted `+1`).
    pub tp: usize,
    /// True negatives.
    pub tn: usize,
    /// False positives (`−1` predicted `+1`).
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
}

impl ConfusionMatrix {
    /// Precision `tp / (tp + fp)` (1 when no positive predictions).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall `tp / (tp + fn)` (1 when no positive labels).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 score (harmonic mean of precision and recall; 0 when both are 0).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Balanced accuracy: mean of per-class recalls.
    pub fn balanced_accuracy(&self) -> f64 {
        let pos = if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        };
        let neg = if self.tn + self.fp == 0 {
            1.0
        } else {
            self.tn as f64 / (self.tn + self.fp) as f64
        };
        0.5 * (pos + neg)
    }
}

/// Computes the binary confusion matrix.
///
/// # Errors
///
/// Returns [`ModelError::InvalidDataset`] for empty or misaligned inputs.
pub fn confusion_matrix(
    model: &LinearModel,
    xs: &[Vec<f64>],
    ys: &[f64],
) -> Result<ConfusionMatrix> {
    check(xs, ys)?;
    let mut cm = ConfusionMatrix::default();
    for (x, &y) in xs.iter().zip(ys) {
        let pred = model.predict(x);
        match (y > 0.0, pred > 0.0) {
            (true, true) => cm.tp += 1,
            (true, false) => cm.fn_ += 1,
            (false, true) => cm.fp += 1,
            (false, false) => cm.tn += 1,
        }
    }
    Ok(cm)
}

/// Expected calibration error over `bins` equal-width confidence bins:
/// `Σ_b (n_b/n)·|acc_b − conf_b|`, where confidence is the probability of
/// the *predicted* class, `max(p, 1 − p)`.
///
/// # Errors
///
/// Returns [`ModelError::InvalidDataset`] for empty/misaligned inputs and
/// [`ModelError::InvalidParameter`] for `bins == 0`.
pub fn expected_calibration_error(
    model: &LinearModel,
    xs: &[Vec<f64>],
    ys: &[f64],
    bins: usize,
) -> Result<f64> {
    check(xs, ys)?;
    if bins == 0 {
        return Err(ModelError::InvalidParameter {
            param: "bins",
            value: 0.0,
        });
    }
    let mut count = vec![0usize; bins];
    let mut conf = vec![0.0; bins];
    let mut acc = vec![0.0; bins];
    for (x, &y) in xs.iter().zip(ys) {
        let p = model.predict_proba(x);
        let confidence = p.max(1.0 - p);
        let b = ((confidence * bins as f64) as usize).min(bins - 1);
        count[b] += 1;
        conf[b] += confidence;
        if (y > 0.0) == (p >= 0.5) {
            acc[b] += 1.0;
        }
    }
    let n = xs.len() as f64;
    let mut ece = 0.0;
    for b in 0..bins {
        if count[b] == 0 {
            continue;
        }
        let nb = count[b] as f64;
        ece += (nb / n) * (acc[b] / nb - conf[b] / nb).abs();
    }
    Ok(ece)
}

fn check(xs: &[Vec<f64>], ys: &[f64]) -> Result<()> {
    if xs.is_empty() || xs.len() != ys.len() {
        return Err(ModelError::InvalidDataset {
            reason: "metrics need nonempty aligned features and labels",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perfect_setup() -> (LinearModel, Vec<Vec<f64>>, Vec<f64>) {
        let model = LinearModel::new(vec![1.0], 0.0);
        let xs = vec![vec![2.0], vec![1.0], vec![-1.0], vec![-2.0]];
        let ys = vec![1.0, 1.0, -1.0, -1.0];
        (model, xs, ys)
    }

    #[test]
    fn accuracy_and_error_rate() {
        let (m, xs, ys) = perfect_setup();
        assert_eq!(accuracy(&m, &xs, &ys).unwrap(), 1.0);
        assert_eq!(error_rate(&m, &xs, &ys).unwrap(), 0.0);
        // Flip the model: everything wrong.
        let bad = LinearModel::new(vec![-1.0], 0.0);
        assert_eq!(accuracy(&bad, &xs, &ys).unwrap(), 0.0);
        assert!(accuracy(&m, &[], &[]).is_err());
        assert!(accuracy(&m, &xs, &ys[..2]).is_err());
    }

    #[test]
    fn log_loss_prefers_confident_correct_model() {
        let (_, xs, ys) = perfect_setup();
        let confident = LinearModel::new(vec![10.0], 0.0);
        let hesitant = LinearModel::new(vec![0.1], 0.0);
        let ll_conf = log_loss(&confident, &xs, &ys).unwrap();
        let ll_hes = log_loss(&hesitant, &xs, &ys).unwrap();
        assert!(ll_conf < ll_hes);
        // Uniform predictor gives ln 2.
        let zero = LinearModel::zeros(1);
        assert!((log_loss(&zero, &xs, &ys).unwrap() - 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn confusion_matrix_counts() {
        let m = LinearModel::new(vec![1.0], 0.0);
        let xs = vec![vec![1.0], vec![-1.0], vec![1.0], vec![-1.0]];
        let ys = vec![1.0, 1.0, -1.0, -1.0];
        let cm = confusion_matrix(&m, &xs, &ys).unwrap();
        assert_eq!(
            cm,
            ConfusionMatrix {
                tp: 1,
                tn: 1,
                fp: 1,
                fn_: 1
            }
        );
        assert_eq!(cm.precision(), 0.5);
        assert_eq!(cm.recall(), 0.5);
        assert_eq!(cm.f1(), 0.5);
        assert_eq!(cm.balanced_accuracy(), 0.5);
    }

    #[test]
    fn confusion_edge_cases() {
        let empty = ConfusionMatrix::default();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
        assert_eq!(empty.balanced_accuracy(), 1.0);
        let no_pr = ConfusionMatrix {
            tp: 0,
            tn: 1,
            fp: 0,
            fn_: 1,
        };
        assert_eq!(no_pr.f1(), 0.0);
    }

    #[test]
    fn calibration_of_perfect_confident_model() {
        let (_, xs, ys) = perfect_setup();
        let confident = LinearModel::new(vec![50.0], 0.0);
        let ece = expected_calibration_error(&confident, &xs, &ys, 10).unwrap();
        assert!(ece < 1e-6);
        assert!(expected_calibration_error(&confident, &xs, &ys, 0).is_err());
    }

    #[test]
    fn calibration_detects_overconfidence() {
        // Model confidently predicts +1 but half the labels are −1.
        let m = LinearModel::new(vec![0.0], 10.0);
        let xs = vec![vec![0.0], vec![0.0], vec![0.0], vec![0.0]];
        let ys = vec![1.0, -1.0, 1.0, -1.0];
        let ece = expected_calibration_error(&m, &xs, &ys, 10).unwrap();
        assert!(ece > 0.4);
    }
}
