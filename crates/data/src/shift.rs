//! Test-time distribution-shift transforms.

use rand::Rng;

use crate::{DataError, Dataset, Result};

/// Adds a constant vector to every feature row (covariate mean shift).
///
/// # Errors
///
/// Returns [`DataError::InvalidDataset`] when `delta.len()` differs from
/// the dataset dimension.
pub fn mean_shift(data: &Dataset, delta: &[f64]) -> Result<Dataset> {
    if delta.len() != data.dim() {
        return Err(DataError::InvalidDataset {
            reason: "shift vector dimension mismatch",
        });
    }
    let xs = data
        .features()
        .iter()
        .map(|x| dre_linalg::vector::add(x, delta))
        .collect();
    Dataset::new(xs, data.labels().to_vec())
}

/// Shifts every feature row by `magnitude` along a fixed unit direction —
/// the parameterized covariate shift of experiments E2/E6.
///
/// # Errors
///
/// Returns [`DataError::InvalidParameter`] for a non-finite magnitude or a
/// zero direction, and propagates dimension mismatches.
pub fn directional_shift(data: &Dataset, direction: &[f64], magnitude: f64) -> Result<Dataset> {
    if !magnitude.is_finite() {
        return Err(DataError::InvalidParameter {
            param: "magnitude",
            value: magnitude,
        });
    }
    let norm = dre_linalg::vector::norm2(direction);
    if norm == 0.0 {
        return Err(DataError::InvalidParameter {
            param: "direction",
            value: 0.0,
        });
    }
    let delta = dre_linalg::vector::scaled(direction, magnitude / norm);
    mean_shift(data, &delta)
}

/// Flips each label independently with probability `p` (label noise).
///
/// # Errors
///
/// Returns [`DataError::InvalidParameter`] unless `p ∈ [0, 1]`.
pub fn label_flip_noise<R: Rng + ?Sized>(data: &Dataset, p: f64, rng: &mut R) -> Result<Dataset> {
    if !(0.0..=1.0).contains(&p) {
        return Err(DataError::InvalidParameter {
            param: "p",
            value: p,
        });
    }
    let ys = data
        .labels()
        .iter()
        .map(|&y| if rng.gen_range(0.0..1.0) < p { -y } else { y })
        .collect();
    Dataset::new(data.features().to_vec(), ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_prob::seeded_rng;

    fn toy() -> Dataset {
        Dataset::new(
            vec![vec![1.0, 2.0], vec![-1.0, 0.0], vec![0.5, -0.5]],
            vec![1.0, -1.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn mean_shift_moves_features_only() {
        let d = toy();
        let s = mean_shift(&d, &[1.0, -1.0]).unwrap();
        assert_eq!(s.features()[0], vec![2.0, 1.0]);
        assert_eq!(s.labels(), d.labels());
        assert!(mean_shift(&d, &[1.0]).is_err());
    }

    #[test]
    fn directional_shift_normalizes_direction() {
        let d = toy();
        let s = directional_shift(&d, &[3.0, 4.0], 5.0).unwrap();
        // Unit direction (0.6, 0.8) × 5 = (3, 4).
        assert_eq!(s.features()[0], vec![4.0, 6.0]);
        assert!(directional_shift(&d, &[0.0, 0.0], 1.0).is_err());
        assert!(directional_shift(&d, &[1.0, 0.0], f64::NAN).is_err());
        // Zero magnitude is identity.
        let z = directional_shift(&d, &[1.0, 0.0], 0.0).unwrap();
        assert_eq!(z.features(), d.features());
    }

    #[test]
    fn label_flip_noise_statistics() {
        let base = Dataset::new(vec![vec![0.0]; 10_000], vec![1.0; 10_000]).unwrap();
        let mut rng = seeded_rng(8);
        let flipped = label_flip_noise(&base, 0.3, &mut rng).unwrap();
        let minus = flipped.labels().iter().filter(|&&y| y < 0.0).count();
        assert!((minus as f64 / 10_000.0 - 0.3).abs() < 0.02);
        assert!(label_flip_noise(&base, 1.5, &mut rng).is_err());
        // p = 0 is identity; p = 1 flips everything.
        let same = label_flip_noise(&base, 0.0, &mut rng).unwrap();
        assert!(same.labels().iter().all(|&y| y == 1.0));
        let all = label_flip_noise(&base, 1.0, &mut rng).unwrap();
        assert!(all.labels().iter().all(|&y| y == -1.0));
    }
}
