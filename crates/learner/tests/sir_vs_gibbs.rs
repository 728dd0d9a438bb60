//! Property: the streaming SIR collapse agrees with a from-scratch
//! collapsed-Gibbs refit on the pooled reports.
//!
//! Both paths share the collapse rule (`n_k/(n+α)` weights, conjugate
//! posterior means, expected covariances, fresh-table component), so once
//! they recover the same partition of a well-separated report stream the
//! components are computed from identical sufficient statistics — the
//! comparison tolerance is numerical, not statistical. Odd seeds force the
//! ESS trigger every push, so the resampling path is exercised too.

use dre_bayes::{DpNiwGibbs, GibbsConfig, MixturePrior};
use dre_learner::{SirConfig, SirDpFilter};
use dre_linalg::Matrix;
use dre_prob::{seeded_rng, MvNormal, NormalInverseWishart};
use proptest::prelude::*;

fn base(d: usize) -> NormalInverseWishart {
    NormalInverseWishart::new(vec![0.0; d], 0.05, Matrix::identity(d), d as f64 + 2.0).unwrap()
}

/// Interleaved draws from two tight, far-apart clusters.
fn reports(per_cluster: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = seeded_rng(seed);
    let a = MvNormal::isotropic(vec![6.0, 6.0], 0.01).unwrap();
    let b = MvNormal::isotropic(vec![-6.0, -6.0], 0.01).unwrap();
    (0..2 * per_cluster)
        .map(|i| {
            let src = if i % 2 == 0 { &a } else { &b };
            src.sample(&mut rng)
        })
        .collect()
}

/// Components sorted by descending weight (ties by first mean coordinate),
/// as `(w, μ, Σ)` triples.
fn sorted_components(prior: &MixturePrior) -> Vec<(f64, Vec<f64>, Matrix)> {
    let mut out: Vec<(f64, Vec<f64>, Matrix)> = prior
        .components()
        .iter()
        .map(|c| (c.weight(), c.mean().to_vec(), c.cov()))
        .collect();
    out.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap()
            .then(a.1[0].partial_cmp(&b.1[0]).unwrap())
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sir_collapse_matches_a_gibbs_refit_on_the_pooled_reports(
        seed in 0u64..400,
        per_cluster in 10usize..16,
    ) {
        let xs = reports(per_cluster, seed);
        let force_resample = seed % 2 == 1;

        let mut filter = SirDpFilter::new(
            base(2),
            SirConfig {
                num_particles: 32,
                alpha: 1.0,
                ess_fraction: if force_resample { 1.0 } else { 0.5 },
                seed,
            },
        )
        .unwrap();
        for x in &xs {
            filter.push(x).unwrap();
        }
        if force_resample {
            prop_assert!(filter.resamples() > 0, "forced ESS trigger must fire");
        }
        let streamed = filter.to_mixture_prior().unwrap();

        let gibbs = DpNiwGibbs::new(
            base(2),
            GibbsConfig {
                alpha: 1.0,
                burn_in: 30,
                sweeps: 30,
            },
        )
        .unwrap();
        let mut rng = seeded_rng(seed ^ 0xA5A5_5A5A);
        let fit = gibbs.fit(&xs, &mut rng).unwrap();
        let refit = gibbs.to_mixture_prior(&xs, &fit.assignments).unwrap();

        // Equal component counts = both paths recovered the same partition.
        prop_assert_eq!(streamed.num_components(), refit.num_components());
        let a = sorted_components(&streamed);
        let b = sorted_components(&refit);
        for ((wa, ma, ca), (wb, mb, cb)) in a.iter().zip(&b) {
            prop_assert!((wa - wb).abs() < 1e-9, "weights {wa} vs {wb}");
            for (x, y) in ma.iter().zip(mb) {
                prop_assert!((x - y).abs() < 1e-6, "means {ma:?} vs {mb:?}");
            }
            let diff = ca.sub(cb).unwrap().frobenius_norm();
            prop_assert!(diff < 1e-6, "covariances differ by {diff}");
        }
    }
}
