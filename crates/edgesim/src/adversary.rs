//! Adversarial reporter cohorts for poisoned closed-loop experiments.
//!
//! A Byzantine reporter looks exactly like an honest one on the wire — it
//! fetches, fits, and reports a well-formed packed `[w…, b]` model. The
//! poison is in *what* it fits. Three cohorts, in increasing order of
//! coordination:
//!
//! * [`AdversaryKind::LabelFlip`] — flips a fraction of its local labels
//!   before fitting: a noisy-but-plausible model that lands near the honest
//!   manifold and mostly dilutes rather than steers the prior.
//! * [`AdversaryKind::FeatureShift`] — fits honestly, then applies the
//!   worst-case Wasserstein transport
//!   ([`dre_robust::feature_shift_attack`]: `xᵢ ← xᵢ − yᵢ·budget·w/‖w‖`)
//!   to its own training set and refits. The re-fitted model is the
//!   optimal ℓ2 poisoned response to the device's honest decision
//!   function.
//! * [`AdversaryKind::ColludingBoost`] — the feature-shift model scaled by
//!   a common factor. A colluding cohort reports near-identical boosted
//!   models, forming one tight extreme cluster — the shape that maximally
//!   attracts a DP mixture fit when nothing gates it.
//!
//! Everything is deterministic: label flips take every ⌈1/fraction⌉-th
//! sample (no RNG), and the refits are the same seeded L-BFGS solves the
//! honest baseline uses. The same cohort therefore replays to the bit,
//! which is what lets the poisoned closed-loop tests assert bit-identical
//! reruns with admission on *and* off.

use dre_data::Dataset;
use dre_robust::worst_case::feature_shift_attack;
use dro_edge::baselines::fit_local_erm;
use dro_edge::Result;

/// Which poisoning strategy a Byzantine reporter runs (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversaryKind {
    /// Deterministically flip this fraction of local labels, then fit.
    LabelFlip {
        /// Fraction of samples whose labels flip, in `[0, 1]`.
        fraction: f64,
    },
    /// Honest fit → worst-case feature transport on own data → refit.
    FeatureShift {
        /// ℓ2 transport budget per sample.
        budget: f64,
    },
    /// The feature-shift model scaled by a shared collusion factor.
    ColludingBoost {
        /// ℓ2 transport budget per sample.
        budget: f64,
        /// Common multiplier applied to the packed parameters.
        scale: f64,
    },
}

/// Deterministically flips every `k`-th label so that roughly `fraction`
/// of the samples flip (`k = ⌈1/fraction⌉`; `fraction ≤ 0` flips nothing,
/// `≥ 1` flips everything).
pub fn flip_labels(data: &Dataset, fraction: f64) -> Result<Dataset> {
    let ys = data.labels();
    if fraction <= 0.0 {
        return Ok(Dataset::new(data.features().to_vec(), ys.to_vec())?);
    }
    let stride = if fraction >= 1.0 {
        1
    } else {
        (1.0 / fraction).ceil() as usize
    };
    let flipped: Vec<f64> = ys
        .iter()
        .enumerate()
        .map(|(i, &y)| if i % stride == 0 { -y } else { y })
        .collect();
    Ok(Dataset::new(data.features().to_vec(), flipped)?)
}

/// Produces the packed `[w…, b]` model a Byzantine reporter of `kind`
/// reports for its local training set, using the same ridge-regularized
/// ERM fit honest few-shot baselines use.
///
/// # Errors
///
/// Propagates fit and attack failures (degenerate data, bad budget).
pub fn poisoned_report(kind: AdversaryKind, train: &Dataset, lambda: f64) -> Result<Vec<f64>> {
    match kind {
        AdversaryKind::LabelFlip { fraction } => {
            let poisoned = flip_labels(train, fraction)?;
            Ok(fit_local_erm(&poisoned, lambda)?.to_packed())
        }
        AdversaryKind::FeatureShift { budget } => {
            Ok(feature_shift_refit(train, lambda, budget)?.to_packed())
        }
        AdversaryKind::ColludingBoost { budget, scale } => {
            let mut packed = feature_shift_refit(train, lambda, budget)?.to_packed();
            for p in &mut packed {
                *p *= scale;
            }
            Ok(packed)
        }
    }
}

/// Honest fit, worst-case transport of the training features against that
/// fit, refit on the shifted set.
fn feature_shift_refit(
    train: &Dataset,
    lambda: f64,
    budget: f64,
) -> Result<dre_models::LinearModel> {
    let honest = fit_local_erm(train, lambda)?;
    let shifted = feature_shift_attack(&honest, train.features(), train.labels(), budget)?;
    let poisoned = Dataset::new(shifted, train.labels().to_vec())?;
    fit_local_erm(&poisoned, lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_data::{TaskFamily, TaskFamilyConfig};

    fn seeded_train() -> Dataset {
        let mut rng = dre_prob::seeded_rng(5);
        let family = TaskFamily::generate(
            &TaskFamilyConfig {
                dim: 4,
                num_clusters: 2,
                cluster_separation: 4.0,
                within_cluster_std: 0.2,
                label_noise: 0.02,
                steepness: 3.0,
            },
            &mut rng,
        )
        .unwrap();
        family.sample_task(&mut rng).generate(30, &mut rng)
    }

    #[test]
    fn flip_labels_flips_the_requested_fraction() {
        let data = seeded_train();
        let full = flip_labels(&data, 1.0).unwrap();
        for (a, b) in data.labels().iter().zip(full.labels()) {
            assert_eq!(*a, -*b);
        }
        let none = flip_labels(&data, 0.0).unwrap();
        assert_eq!(data.labels(), none.labels());
        let third = flip_labels(&data, 0.34).unwrap();
        let flips = data
            .labels()
            .iter()
            .zip(third.labels())
            .filter(|(a, b)| *a != *b)
            .count();
        assert_eq!(flips, 10, "every 3rd of 30 samples flips");
    }

    #[test]
    fn poisoned_reports_are_deterministic_and_kind_ordered() {
        let data = seeded_train();
        let lambda = 1e-3;
        let honest = fit_local_erm(&data, lambda).unwrap().to_packed();
        let shift =
            poisoned_report(AdversaryKind::FeatureShift { budget: 2.0 }, &data, lambda).unwrap();
        let boost = poisoned_report(
            AdversaryKind::ColludingBoost {
                budget: 2.0,
                scale: 6.0,
            },
            &data,
            lambda,
        )
        .unwrap();
        // Bit-identical replay.
        assert_eq!(
            shift,
            poisoned_report(AdversaryKind::FeatureShift { budget: 2.0 }, &data, lambda).unwrap()
        );
        // The attack actually moved the model, and the boost is exactly the
        // shifted model scaled.
        let dist2: f64 = honest
            .iter()
            .zip(&shift)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        assert!(dist2 > 1e-2, "feature shift must move the reported model");
        for (s, b) in shift.iter().zip(&boost) {
            assert!((s * 6.0 - b).abs() < 1e-12);
        }
    }
}
