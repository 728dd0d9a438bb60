//! A deterministic 64-dimensional "synthetic digits" workload.
//!
//! Real digit datasets (MNIST & friends) cannot be downloaded in an offline
//! build, so this module generates a structurally similar workload: ten
//! hand-drawn 8×8 glyph templates, sampled with per-pixel noise, stroke
//! jitter, and contrast variation. The binary tasks pair visually confusable
//! digits (e.g. 3 vs 8) the way the real datasets are typically binarized.

use rand::Rng;

use crate::{DataError, Dataset, Result};

/// Side length of the glyph grid.
pub const GRID: usize = 8;

/// Feature dimension `GRID × GRID`.
pub const DIM: usize = GRID * GRID;

/// 8×8 glyph templates for digits 0–9 ('#' = ink).
const TEMPLATES: [[&str; 8]; 10] = [
    [
        "..####..", ".#....#.", "#......#", "#......#", "#......#", "#......#", ".#....#.",
        "..####..",
    ],
    [
        "...##...", "..###...", ".#.##...", "...##...", "...##...", "...##...", "...##...",
        ".######.",
    ],
    [
        "..####..", ".#....#.", "......#.", ".....#..", "....#...", "...#....", "..#.....",
        ".######.",
    ],
    [
        "..####..", ".#....#.", "......#.", "...###..", "......#.", "......#.", ".#....#.",
        "..####..",
    ],
    [
        "....##..", "...#.#..", "..#..#..", ".#...#..", "########", ".....#..", ".....#..",
        ".....#..",
    ],
    [
        ".######.", ".#......", ".#......", ".#####..", "......#.", "......#.", ".#....#.",
        "..####..",
    ],
    [
        "..####..", ".#....#.", "#.......", "#.####..", "##....#.", "#......#", ".#....#.",
        "..####..",
    ],
    [
        "########", "......#.", ".....#..", "....#...", "...#....", "...#....", "...#....",
        "...#....",
    ],
    [
        "..####..", ".#....#.", ".#....#.", "..####..", ".#....#.", "#......#", ".#....#.",
        "..####..",
    ],
    [
        "..####..", ".#....#.", "#......#", ".#....##", "..####.#", ".......#", ".#....#.",
        "..####..",
    ],
];

/// Renders the clean template of a digit as a 64-dim intensity vector
/// (ink = 1.0, background = 0.0).
///
/// # Errors
///
/// Returns [`DataError::InvalidParameter`] for `digit > 9`.
pub fn template(digit: usize) -> Result<Vec<f64>> {
    if digit > 9 {
        return Err(DataError::InvalidParameter {
            param: "digit",
            value: digit as f64,
        });
    }
    let mut v = Vec::with_capacity(DIM);
    for row in &TEMPLATES[digit] {
        for ch in row.chars() {
            v.push(if ch == '#' { 1.0 } else { 0.0 });
        }
    }
    Ok(v)
}

/// Draws one noisy sample of a digit: contrast scaling, per-pixel Gaussian
/// noise, and random single-pixel stroke dropout.
///
/// # Errors
///
/// Returns [`DataError::InvalidParameter`] for `digit > 9` or an
/// out-of-domain noise level.
pub fn sample_digit<R: Rng + ?Sized>(digit: usize, noise: f64, rng: &mut R) -> Result<Vec<f64>> {
    if !(0.0..=1.0).contains(&noise) {
        return Err(DataError::InvalidParameter {
            param: "noise",
            value: noise,
        });
    }
    let mut v = template(digit)?;
    let contrast = 1.0 + 0.3 * (rng.gen_range(0.0..1.0) - 0.5);
    use dre_prob::{Distribution, Normal};
    let pixel_noise = Normal::new(0.0, (noise * 0.5).max(1e-12)).expect("std validated");
    for p in v.iter_mut() {
        *p *= contrast;
        if noise > 0.0 {
            *p += pixel_noise.sample(rng);
        }
    }
    // Stroke dropout: each ink pixel vanishes with probability noise/4.
    if noise > 0.0 {
        for p in v.iter_mut() {
            if *p > 0.5 && rng.gen_range(0.0..1.0) < noise / 4.0 {
                *p = 0.0;
            }
        }
    }
    Ok(v)
}

/// Generates a balanced binary dataset distinguishing `pos_digit` (+1) from
/// `neg_digit` (−1), `n` samples per class.
///
/// # Errors
///
/// Returns [`DataError::InvalidParameter`] for invalid digits, `n == 0`,
/// identical classes, or an out-of-domain noise level.
pub fn binary_task<R: Rng + ?Sized>(
    pos_digit: usize,
    neg_digit: usize,
    n: usize,
    noise: f64,
    rng: &mut R,
) -> Result<Dataset> {
    if n == 0 {
        return Err(DataError::InvalidParameter {
            param: "n",
            value: 0.0,
        });
    }
    if pos_digit == neg_digit {
        return Err(DataError::InvalidParameter {
            param: "neg_digit",
            value: neg_digit as f64,
        });
    }
    let mut xs = Vec::with_capacity(2 * n);
    let mut ys = Vec::with_capacity(2 * n);
    for _ in 0..n {
        xs.push(sample_digit(pos_digit, noise, rng)?);
        ys.push(1.0);
        xs.push(sample_digit(neg_digit, noise, rng)?);
        ys.push(-1.0);
    }
    Dataset::new(xs, ys)
}

/// Generates a multiclass dataset over the given digit classes with `n`
/// samples per class; returns `(features, labels)` with labels indexing
/// into `classes` (i.e. `0..classes.len()`).
///
/// # Errors
///
/// Returns [`DataError::InvalidParameter`] for fewer than two classes,
/// duplicate/invalid digits, `n == 0`, or an out-of-domain noise level.
pub fn multiclass_task<R: Rng + ?Sized>(
    classes: &[usize],
    n: usize,
    noise: f64,
    rng: &mut R,
) -> Result<(Vec<Vec<f64>>, Vec<usize>)> {
    if classes.len() < 2 {
        return Err(DataError::InvalidParameter {
            param: "classes",
            value: classes.len() as f64,
        });
    }
    if n == 0 {
        return Err(DataError::InvalidParameter {
            param: "n",
            value: 0.0,
        });
    }
    for (i, &c) in classes.iter().enumerate() {
        if classes[..i].contains(&c) {
            return Err(DataError::InvalidParameter {
                param: "classes",
                value: c as f64,
            });
        }
    }
    let mut xs = Vec::with_capacity(classes.len() * n);
    let mut ys = Vec::with_capacity(classes.len() * n);
    for _ in 0..n {
        for (label, &digit) in classes.iter().enumerate() {
            xs.push(sample_digit(digit, noise, rng)?);
            ys.push(label);
        }
    }
    Ok((xs, ys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_prob::seeded_rng;

    #[test]
    fn templates_are_valid_and_distinct() {
        for d in 0..10 {
            let t = template(d).unwrap();
            assert_eq!(t.len(), DIM);
            let ink: f64 = t.iter().sum();
            assert!(ink >= 8.0, "digit {d} has too little ink");
            assert!(ink <= 40.0, "digit {d} has too much ink");
        }
        assert!(template(10).is_err());
        // Pairwise distinct templates.
        for a in 0..10 {
            for b in (a + 1)..10 {
                let ta = template(a).unwrap();
                let tb = template(b).unwrap();
                assert!(dre_linalg::vector::dist2(&ta, &tb) > 1.0, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn noiseless_sample_is_contrast_scaled_template() {
        let mut rng = seeded_rng(0);
        let s = sample_digit(3, 0.0, &mut rng).unwrap();
        let t = template(3).unwrap();
        for (sv, tv) in s.iter().zip(&t) {
            if *tv == 0.0 {
                assert_eq!(*sv, 0.0);
            } else {
                assert!((0.8..=1.2).contains(sv));
            }
        }
    }

    #[test]
    fn sample_validation() {
        let mut rng = seeded_rng(1);
        assert!(sample_digit(11, 0.1, &mut rng).is_err());
        assert!(sample_digit(1, -0.1, &mut rng).is_err());
        assert!(sample_digit(1, 1.5, &mut rng).is_err());
    }

    #[test]
    fn binary_task_is_balanced_and_learnable() {
        let mut rng = seeded_rng(2);
        let data = binary_task(3, 8, 40, 0.2, &mut rng).unwrap();
        assert_eq!(data.len(), 80);
        assert_eq!(data.dim(), DIM);
        assert!((data.positive_fraction() - 0.5).abs() < 1e-12);

        // A ridge-ERM fit separates the noisy classes well.
        use dre_models::{ErmObjective, LinearModel, LogisticLoss};
        use dre_optim::{Lbfgs, StopCriteria};
        let obj = ErmObjective::new(data.features(), data.labels(), LogisticLoss, 1e-2).unwrap();
        let r = Lbfgs::new(StopCriteria::with_max_iters(200))
            .minimize(&obj, &vec![0.0; DIM + 1])
            .unwrap();
        let model = LinearModel::from_packed(&r.x);
        let test = binary_task(3, 8, 100, 0.2, &mut rng).unwrap();
        let acc = dre_models::metrics::accuracy(&model, test.features(), test.labels()).unwrap();
        assert!(acc > 0.9, "digits 3-vs-8 accuracy {acc}");
    }

    #[test]
    fn multiclass_task_is_balanced_and_valid() {
        let mut rng = seeded_rng(4);
        let (xs, ys) = multiclass_task(&[0, 3, 8], 20, 0.15, &mut rng).unwrap();
        assert_eq!(xs.len(), 60);
        assert_eq!(ys.len(), 60);
        for label in 0..3 {
            assert_eq!(ys.iter().filter(|&&y| y == label).count(), 20);
        }
        assert!(xs.iter().all(|x| x.len() == DIM));
        // Validation.
        assert!(multiclass_task(&[1], 10, 0.1, &mut rng).is_err());
        assert!(multiclass_task(&[1, 2], 0, 0.1, &mut rng).is_err());
        assert!(multiclass_task(&[1, 1], 10, 0.1, &mut rng).is_err());
        assert!(multiclass_task(&[1, 12], 10, 0.1, &mut rng).is_err());
        assert!(multiclass_task(&[1, 2], 10, 2.0, &mut rng).is_err());
    }

    #[test]
    fn binary_task_validation() {
        let mut rng = seeded_rng(3);
        assert!(binary_task(3, 3, 10, 0.1, &mut rng).is_err());
        assert!(binary_task(3, 8, 0, 0.1, &mut rng).is_err());
        assert!(binary_task(3, 12, 10, 0.1, &mut rng).is_err());
    }
}
