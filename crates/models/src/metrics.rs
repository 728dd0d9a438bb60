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
}
