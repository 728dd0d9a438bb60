//! Labelled binary-classification datasets.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{DataError, Result};

/// A labelled dataset with `±1` labels.
///
/// Feature rows and labels are owned and index-aligned; every transform
/// returns a new dataset so experiment code can keep clean/shifted variants
/// side by side.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
}

impl Dataset {
    /// Creates a dataset, validating alignment, consistency and labels.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidDataset`] for empty/misaligned rows or
    /// labels outside `{−1, +1}`.
    pub fn new(xs: Vec<Vec<f64>>, ys: Vec<f64>) -> Result<Self> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(DataError::InvalidDataset {
                reason: "features and labels must be nonempty and equal length",
            });
        }
        let d = xs[0].len();
        if d == 0 || xs.iter().any(|x| x.len() != d) {
            return Err(DataError::InvalidDataset {
                reason: "feature rows must share a nonzero dimension",
            });
        }
        if ys.iter().any(|&y| y != 1.0 && y != -1.0) {
            return Err(DataError::InvalidDataset {
                reason: "labels must be ±1",
            });
        }
        Ok(Dataset { xs, ys })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when the dataset holds no samples (unreachable through
    /// [`Dataset::new`], but `Default` produces one).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.xs.first().map_or(0, |x| x.len())
    }

    /// Feature rows.
    pub fn features(&self) -> &[Vec<f64>] {
        &self.xs
    }

    /// Labels (`±1`).
    pub fn labels(&self) -> &[f64] {
        &self.ys
    }

    /// Fraction of `+1` labels.
    pub fn positive_fraction(&self) -> f64 {
        if self.ys.is_empty() {
            return 0.0;
        }
        self.ys.iter().filter(|&&y| y > 0.0).count() as f64 / self.ys.len() as f64
    }

    /// Returns a shuffled copy.
    pub fn shuffled<R: Rng + ?Sized>(&self, rng: &mut R) -> Dataset {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        self.select(&idx)
    }

    /// Splits into `(train, test)` with `train_frac` of samples (rounded
    /// down, at least 1 on each side) going to the training set, after a
    /// shuffle.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] unless `0 < train_frac < 1`,
    /// or [`DataError::InvalidDataset`] when fewer than 2 samples exist.
    pub fn split<R: Rng + ?Sized>(
        &self,
        train_frac: f64,
        rng: &mut R,
    ) -> Result<(Dataset, Dataset)> {
        if !(train_frac > 0.0 && train_frac < 1.0) {
            return Err(DataError::InvalidParameter {
                param: "train_frac",
                value: train_frac,
            });
        }
        if self.len() < 2 {
            return Err(DataError::InvalidDataset {
                reason: "need at least two samples to split",
            });
        }
        let shuffled = self.shuffled(rng);
        let cut = ((self.len() as f64 * train_frac) as usize).clamp(1, self.len() - 1);
        let train = shuffled.select(&(0..cut).collect::<Vec<_>>());
        let test = shuffled.select(&(cut..self.len()).collect::<Vec<_>>());
        Ok((train, test))
    }

    /// Takes the first `n` samples (all of them when `n ≥ len`).
    pub fn take(&self, n: usize) -> Dataset {
        let n = n.min(self.len());
        self.select(&(0..n).collect::<Vec<_>>())
    }

    /// Draws `n` samples uniformly with replacement (a bootstrap resample).
    pub fn bootstrap<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Dataset {
        let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..self.len())).collect();
        self.select(&idx)
    }

    /// Concatenates two datasets of the same dimension.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidDataset`] on dimension mismatch.
    pub fn concat(&self, other: &Dataset) -> Result<Dataset> {
        if self.dim() != other.dim() {
            return Err(DataError::InvalidDataset {
                reason: "cannot concatenate datasets of different dimensions",
            });
        }
        let mut xs = self.xs.clone();
        xs.extend(other.xs.iter().cloned());
        let mut ys = self.ys.clone();
        ys.extend_from_slice(&other.ys);
        Ok(Dataset { xs, ys })
    }

    fn select(&self, idx: &[usize]) -> Dataset {
        Dataset {
            xs: idx.iter().map(|&i| self.xs[i].clone()).collect(),
            ys: idx.iter().map(|&i| self.ys[i]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_prob::seeded_rng;

    fn toy() -> Dataset {
        Dataset::new(
            vec![
                vec![1.0, 0.0],
                vec![2.0, 1.0],
                vec![-1.0, 2.0],
                vec![-2.0, -1.0],
            ],
            vec![1.0, 1.0, -1.0, -1.0],
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(Dataset::new(vec![], vec![]).is_err());
        assert!(Dataset::new(vec![vec![1.0]], vec![1.0, -1.0]).is_err());
        assert!(Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![1.0, -1.0]).is_err());
        assert!(Dataset::new(vec![vec![1.0]], vec![0.5]).is_err());
        assert!(Dataset::new(vec![vec![]], vec![1.0]).is_err());
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.positive_fraction(), 0.5);
        assert!(Dataset::default().is_empty());
    }

    #[test]
    fn shuffle_preserves_pairing() {
        let d = toy();
        let mut rng = seeded_rng(1);
        let s = d.shuffled(&mut rng);
        assert_eq!(s.len(), 4);
        // Each (x, y) pair from the original must appear in the shuffle.
        for (x, &y) in d.features().iter().zip(d.labels()) {
            let found = s
                .features()
                .iter()
                .zip(s.labels())
                .any(|(sx, &sy)| sx == x && sy == y);
            assert!(found);
        }
    }

    #[test]
    fn split_respects_fraction_and_validates() {
        let d = toy();
        let mut rng = seeded_rng(2);
        let (train, test) = d.split(0.5, &mut rng).unwrap();
        assert_eq!(train.len(), 2);
        assert_eq!(test.len(), 2);
        assert!(d.split(0.0, &mut rng).is_err());
        assert!(d.split(1.0, &mut rng).is_err());
        let single = Dataset::new(vec![vec![1.0]], vec![1.0]).unwrap();
        assert!(single.split(0.5, &mut rng).is_err());
        // Extreme fractions still leave one sample per side.
        let (tr, te) = d.split(0.01, &mut rng).unwrap();
        assert_eq!(tr.len(), 1);
        assert_eq!(te.len(), 3);
    }

    #[test]
    fn take_and_bootstrap() {
        let d = toy();
        assert_eq!(d.take(2).len(), 2);
        assert_eq!(d.take(100).len(), 4);
        let mut rng = seeded_rng(3);
        let b = d.bootstrap(10, &mut rng);
        assert_eq!(b.len(), 10);
        assert_eq!(b.dim(), 2);
    }

    #[test]
    fn concat_checks_dimensions() {
        let d = toy();
        let merged = d.concat(&d).unwrap();
        assert_eq!(merged.len(), 8);
        let other = Dataset::new(vec![vec![1.0]], vec![1.0]).unwrap();
        assert!(d.concat(&other).is_err());
    }
}
