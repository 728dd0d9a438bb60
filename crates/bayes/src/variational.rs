//! Truncated stick-breaking variational EM for the DP Gaussian mixture.

use rand::Rng;

use dre_linalg::{Matrix, SymEigen};
use dre_prob::special::digamma;
use dre_prob::MvNormal;

use crate::{BayesError, MixturePrior, Result};

/// Convergence tolerance on the objective change per point.
pub const VB_TOL: f64 = 1e-7;
/// Ridge added to every component covariance for numerical stability.
pub const VB_COV_REG: f64 = 1e-6;
/// Pseudo-count strength `s₀` of the inverse-Wishart-style MAP shrinkage of
/// each component covariance toward the global data covariance:
/// `Σ_k = (N_k Σ̂_k + s₀ Σ_global) / (N_k + s₀)`.
///
/// Prevents the covariance-collapse degeneracy where a component locks
/// onto a single point with a vanishing covariance.
pub const VB_COV_PRIOR_STRENGTH: f64 = 1.0;

/// Configuration of a truncated variational run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationalConfig {
    /// Dirichlet-process concentration `α > 0`.
    pub alpha: f64,
    /// Truncation level `K` (maximum number of components).
    pub truncation: usize,
    /// Maximum number of coordinate-ascent iterations.
    pub max_iters: usize,
}

impl Default for VariationalConfig {
    fn default() -> Self {
        VariationalConfig {
            alpha: 1.0,
            truncation: 20,
            max_iters: 200,
        }
    }
}

/// Outcome of a variational fit.
#[derive(Debug, Clone)]
pub struct VariationalResult {
    /// Expected stick weights `E[w_k]`, length `K` (sums to ≤ 1; the
    /// remainder is truncated tail mass).
    pub weights: Vec<f64>,
    /// Component means.
    pub means: Vec<Vec<f64>>,
    /// Component covariances.
    pub covs: Vec<Matrix>,
    /// Effective mass `N_k = Σ_i r_ik` assigned to each component.
    pub occupancy: Vec<f64>,
    /// Objective (expected-weight log-likelihood per point) after each
    /// iteration.
    pub objective_trace: Vec<f64>,
}

impl VariationalResult {
    /// Number of components with occupancy above `min_points`.
    pub fn num_effective_components(&self, min_points: f64) -> usize {
        self.occupancy.iter().filter(|&&n| n > min_points).count()
    }

    /// Merges redundant components by moment matching.
    ///
    /// Truncated variational EM with point-estimated Gaussians has
    /// non-identifiable fixed points where one true mode is shared by
    /// several near-identical components. This pass greedily merges any pair
    /// whose means are within `mahalanobis_threshold` under the pair's
    /// average covariance, using the exact moment-matched merge
    /// (weights add; mean and covariance preserve the mixture's first two
    /// moments). A threshold around 2–3 merges duplicates without touching
    /// genuinely distinct modes.
    pub fn merge_components(&self, mahalanobis_threshold: f64) -> VariationalResult {
        let mut weights = self.weights.clone();
        let mut means = self.means.clone();
        let mut covs = self.covs.clone();
        let mut occupancy = self.occupancy.clone();
        let t2 = mahalanobis_threshold * mahalanobis_threshold;

        loop {
            let mut merged_any = false;
            'outer: for i in 0..means.len() {
                for j in (i + 1)..means.len() {
                    let avg_cov = covs[i].add(&covs[j]).expect("dims").scaled(0.5);
                    let Ok(chol) = dre_linalg::Cholesky::new_with_jitter(&avg_cov, 1e-6) else {
                        continue;
                    };
                    let d2 = chol.mahalanobis_sq(&means[i], &means[j]).expect("dims");
                    if d2 < t2 {
                        let (wi, wj) = (weights[i], weights[j]);
                        let w = (wi + wj).max(1e-300);
                        let mut mu = dre_linalg::vector::scaled(&means[i], wi / w);
                        dre_linalg::vector::axpy(wj / w, &means[j], &mut mu);
                        let spread = |m: &[f64], c: &Matrix, frac: f64| {
                            let dm = dre_linalg::vector::sub(m, &mu);
                            c.add(&Matrix::outer(&dm, &dm)).expect("dims").scaled(frac)
                        };
                        let mut cov = spread(&means[i], &covs[i], wi / w)
                            .add(&spread(&means[j], &covs[j], wj / w))
                            .expect("dims");
                        cov.symmetrize();
                        weights[i] = wi + wj;
                        means[i] = mu;
                        covs[i] = cov;
                        occupancy[i] += occupancy[j];
                        weights.remove(j);
                        means.remove(j);
                        covs.remove(j);
                        occupancy.remove(j);
                        merged_any = true;
                        break 'outer;
                    }
                }
            }
            if !merged_any {
                break;
            }
        }
        VariationalResult {
            weights,
            means,
            covs,
            occupancy,
            objective_trace: self.objective_trace.clone(),
        }
    }

    /// Summarizes the effective components (occupancy above `min_points`)
    /// as a [`MixturePrior`], renormalizing their weights.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::InvalidData`] when no component passes the
    /// threshold.
    pub fn to_mixture_prior(&self, min_points: f64) -> Result<MixturePrior> {
        let mut components = Vec::new();
        for (k, &occ) in self.occupancy.iter().enumerate() {
            if occ > min_points {
                components.push((self.weights[k], self.means[k].clone(), self.covs[k].clone()));
            }
        }
        if components.is_empty() {
            return Err(BayesError::InvalidData {
                reason: "no variational component exceeds the occupancy threshold",
            });
        }
        MixturePrior::new(components)
    }
}

/// Truncated stick-breaking variational EM for a Dirichlet-process Gaussian
/// mixture (after Blei & Jordan 2006, with point-estimated component
/// parameters).
///
/// Deterministic given its initialization, and typically an order of
/// magnitude faster than [`crate::DpNiwGibbs`] — the trade-off the cloud
/// makes when many source tasks arrive (benchmarked in `gibbs_sweep`).
///
/// The sticks keep their full variational Beta posteriors
/// `q(v_k) = Beta(γ_{k,1}, γ_{k,2})`; the Gaussian parameters are updated by
/// responsibility-weighted maximum likelihood with a covariance ridge.
#[derive(Debug, Clone)]
pub struct VariationalDpGmm {
    config: VariationalConfig,
}

impl VariationalDpGmm {
    /// Creates a variational fitter.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::InvalidParameter`] for `alpha ≤ 0` or
    /// `truncation < 1`.
    pub fn new(config: VariationalConfig) -> Result<Self> {
        if !(config.alpha > 0.0 && config.alpha.is_finite()) {
            return Err(BayesError::InvalidParameter {
                what: "variational_dp_gmm",
                param: "alpha",
                value: config.alpha,
            });
        }
        if config.truncation == 0 {
            return Err(BayesError::InvalidParameter {
                what: "variational_dp_gmm",
                param: "truncation",
                value: 0.0,
            });
        }
        Ok(VariationalDpGmm { config })
    }

    /// The run configuration.
    pub fn config(&self) -> &VariationalConfig {
        &self.config
    }

    /// Fits the truncated DP-GMM to `data` (one row per point). The `rng`
    /// only seeds the initialization (k-means++-style center choice); the
    /// coordinate ascent itself is deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::InvalidData`] for empty or inconsistent data.
    pub fn fit<R: Rng + ?Sized>(
        &self,
        data: &[Vec<f64>],
        rng: &mut R,
    ) -> Result<VariationalResult> {
        if data.is_empty() {
            return Err(BayesError::InvalidData {
                reason: "variational fit requires data",
            });
        }
        let d = data[0].len();
        if d == 0 || data.iter().any(|x| x.len() != d) {
            return Err(BayesError::InvalidData {
                reason: "data dimension inconsistent or zero",
            });
        }
        let n = data.len();
        let k = self.config.truncation.min(n);
        let alpha = self.config.alpha;

        // --- Initialization: k-means++-style seeding. ---
        let mut means = kmeanspp_centers(data, k, rng);
        let global_cov = global_covariance(data, VB_COV_REG);
        let mut covs: Vec<Matrix> = vec![global_cov.clone(); k];
        let mut gamma1 = vec![1.0; k];
        let mut gamma2 = vec![alpha; k];

        let mut responsibilities = vec![vec![0.0; k]; n];
        let mut objective_trace = Vec::new();
        let mut prev_obj = f64::NEG_INFINITY;

        for _iter in 0..self.config.max_iters {
            // E[ln v_k], E[ln(1 − v_k)] from the Beta posteriors.
            let mut e_log_w = vec![0.0; k];
            let mut acc_log_1mv = 0.0;
            for j in 0..k {
                let s = digamma(gamma1[j] + gamma2[j]);
                let e_ln_v = digamma(gamma1[j]) - s;
                let e_ln_1mv = digamma(gamma2[j]) - s;
                e_log_w[j] = e_ln_v + acc_log_1mv;
                acc_log_1mv += e_ln_1mv;
            }

            // Component densities.
            let densities: Vec<MvNormal> = means
                .iter()
                .zip(&covs)
                .map(|(m, c)| MvNormal::new(m.clone(), c))
                .collect::<std::result::Result<_, _>>()?;

            // --- E-step: responsibilities. ---
            responsibilities = data
                .iter()
                .map(|x| {
                    let mut logr: Vec<f64> = (0..k)
                        .map(|j| e_log_w[j] + densities[j].log_pdf(x))
                        .collect();
                    dre_linalg::vector::softmax_in_place(&mut logr);
                    logr
                })
                .collect();

            // --- M-step. ---
            let mut occupancy = vec![0.0; k];
            for r in &responsibilities {
                for (o, &ri) in occupancy.iter_mut().zip(r) {
                    *o += ri;
                }
            }
            // Stick posteriors.
            let mut tail = 0.0;
            for j in (0..k).rev() {
                gamma1[j] = 1.0 + occupancy[j];
                gamma2[j] = alpha + tail;
                tail += occupancy[j];
            }
            // Gaussian parameters, with MAP shrinkage of the covariance
            // toward the global covariance (pseudo-count s₀) to rule out the
            // covariance-collapse degeneracy on starved components.
            for j in 0..k {
                if occupancy[j] < 1e-8 {
                    continue; // starved component: keep previous parameters
                }
                let mut mu = vec![0.0; d];
                for (x, r) in data.iter().zip(&responsibilities) {
                    dre_linalg::vector::axpy(r[j], x, &mut mu);
                }
                dre_linalg::vector::scale(&mut mu, 1.0 / occupancy[j]);
                let mut cov = Matrix::zeros(d, d);
                for (x, r) in data.iter().zip(&responsibilities) {
                    let diff = dre_linalg::vector::sub(x, &mu);
                    cov = cov
                        .add(&Matrix::outer(&diff, &diff).scaled(r[j]))
                        .expect("dimension invariant");
                }
                cov = cov
                    .add(&global_cov.scaled(VB_COV_PRIOR_STRENGTH))
                    .expect("dimension invariant")
                    .scaled(1.0 / (occupancy[j] + VB_COV_PRIOR_STRENGTH));
                cov.add_diag(VB_COV_REG);
                cov.symmetrize();
                means[j] = mu;
                covs[j] = cov;
            }

            // --- Objective: expected-weight mixture log-likelihood. ---
            let weights = expected_stick_weights(&gamma1, &gamma2);
            let obj = mixture_log_likelihood(data, &weights, &means, &covs)? / n as f64;
            objective_trace.push(obj);
            if (obj - prev_obj).abs() < VB_TOL {
                break;
            }
            prev_obj = obj;
        }

        let mut occupancy = vec![0.0; k];
        for r in &responsibilities {
            for (o, &ri) in occupancy.iter_mut().zip(r) {
                *o += ri;
            }
        }
        Ok(VariationalResult {
            weights: expected_stick_weights(&gamma1, &gamma2),
            means,
            covs,
            occupancy,
            objective_trace,
        })
    }
}

/// `E[w_k] = E[v_k] ∏_{j<k} (1 − E[v_j])` under the Beta posteriors.
fn expected_stick_weights(gamma1: &[f64], gamma2: &[f64]) -> Vec<f64> {
    let mut w = Vec::with_capacity(gamma1.len());
    let mut rem = 1.0;
    for (&g1, &g2) in gamma1.iter().zip(gamma2) {
        let ev = g1 / (g1 + g2);
        w.push(ev * rem);
        rem *= 1.0 - ev;
    }
    w
}

fn mixture_log_likelihood(
    data: &[Vec<f64>],
    weights: &[f64],
    means: &[Vec<f64>],
    covs: &[Matrix],
) -> Result<f64> {
    let densities: Vec<MvNormal> = means
        .iter()
        .zip(covs)
        .map(|(m, c)| MvNormal::new(m.clone(), c))
        .collect::<std::result::Result<_, _>>()?;
    // Fixed chunked summation tree, shared with the other sample sums.
    Ok(dre_parallel::par_sum_indexed(data.len(), |i| {
        let x = &data[i];
        let terms: Vec<f64> = densities
            .iter()
            .zip(weights)
            .map(|(dens, &w)| {
                if w > 0.0 {
                    w.ln() + dens.log_pdf(x)
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();
        dre_linalg::vector::log_sum_exp(&terms)
    }))
}

/// k-means++-style seeding: first center uniform, subsequent centers chosen
/// with probability proportional to squared distance from the closest
/// existing center.
fn kmeanspp_centers<R: Rng + ?Sized>(data: &[Vec<f64>], k: usize, rng: &mut R) -> Vec<Vec<f64>> {
    let n = data.len();
    let mut centers = Vec::with_capacity(k);
    centers.push(data[rng.gen_range(0..n)].clone());
    let mut d2: Vec<f64> = data
        .iter()
        .map(|x| dre_linalg::vector::dist2_sq(x, &centers[0]))
        .collect();
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut u: f64 = rng.gen_range(0.0..total);
            let mut pick = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if u < w {
                    pick = i;
                    break;
                }
                u -= w;
            }
            pick
        };
        centers.push(data[next].clone());
        for (i, x) in data.iter().enumerate() {
            d2[i] = d2[i].min(dre_linalg::vector::dist2_sq(
                x,
                centers.last().expect("just pushed"),
            ));
        }
    }
    centers
}

/// Pooled covariance of the full dataset with a ridge, projected to be
/// positive definite.
fn global_covariance(data: &[Vec<f64>], reg: f64) -> Matrix {
    let d = data[0].len();
    let n = data.len() as f64;
    let mut mean = vec![0.0; d];
    for x in data {
        dre_linalg::vector::axpy(1.0 / n, x, &mut mean);
    }
    let mut cov = Matrix::zeros(d, d);
    for x in data {
        let diff = dre_linalg::vector::sub(x, &mean);
        cov = cov
            .add(&Matrix::outer(&diff, &diff))
            .expect("dimension invariant");
    }
    cov = cov.scaled(1.0 / n.max(1.0));
    cov.add_diag(reg.max(1e-9));
    cov.symmetrize();
    // Guard against indefiniteness from numerically extreme data.
    match SymEigen::new(&cov) {
        Ok(e) if e.eigenvalues()[0] <= 0.0 => e.psd_projection(reg.max(1e-9)),
        _ => cov,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_prob::seeded_rng;

    fn clustered_data() -> Vec<Vec<f64>> {
        let mut rng = seeded_rng(99);
        let m1 = MvNormal::isotropic(vec![0.0, 0.0], 0.3).unwrap();
        let m2 = MvNormal::isotropic(vec![8.0, -8.0], 0.3).unwrap();
        let mut data = m1.sample_n(&mut rng, 60);
        data.extend(m2.sample_n(&mut rng, 60));
        data
    }

    #[test]
    fn validates_config() {
        assert!(VariationalDpGmm::new(VariationalConfig {
            alpha: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(VariationalDpGmm::new(VariationalConfig {
            truncation: 0,
            ..Default::default()
        })
        .is_err());
        let v = VariationalDpGmm::new(VariationalConfig::default()).unwrap();
        assert_eq!(v.config().truncation, 20);
    }

    #[test]
    fn rejects_bad_data() {
        let v = VariationalDpGmm::new(VariationalConfig::default()).unwrap();
        let mut rng = seeded_rng(0);
        assert!(v.fit(&[], &mut rng).is_err());
        assert!(v.fit(&[vec![1.0, 2.0], vec![1.0]], &mut rng).is_err());
        assert!(v.fit(&[vec![]], &mut rng).is_err());
    }

    #[test]
    fn finds_two_clusters_after_merge() {
        let data = clustered_data();
        let v = VariationalDpGmm::new(VariationalConfig {
            alpha: 0.5,
            truncation: 10,
            ..Default::default()
        })
        .unwrap();
        let mut rng = seeded_rng(3);
        let res = v.fit(&data, &mut rng).unwrap().merge_components(3.0);
        assert_eq!(res.num_effective_components(1.0), 2);
        let prior = res.to_mixture_prior(1.0).unwrap();
        assert_eq!(prior.num_components(), 2);
        for center in [[0.0, 0.0], [8.0, -8.0]] {
            let best = prior
                .components()
                .iter()
                .map(|c| dre_linalg::vector::dist2(c.mean(), &center))
                .fold(f64::INFINITY, f64::min);
            assert!(best < 0.5, "no component near {center:?}");
        }
        // Merge preserves total weight and occupancy.
        let orig = v.fit(&data, &mut seeded_rng(3)).unwrap();
        assert!((res.weights.iter().sum::<f64>() - orig.weights.iter().sum::<f64>()).abs() < 1e-9);
        assert!(
            (res.occupancy.iter().sum::<f64>() - orig.occupancy.iter().sum::<f64>()).abs() < 1e-9
        );
    }

    #[test]
    fn merge_leaves_distinct_modes_alone() {
        let data = clustered_data();
        let v = VariationalDpGmm::new(VariationalConfig {
            alpha: 0.5,
            truncation: 10,
            ..Default::default()
        })
        .unwrap();
        let res = v
            .fit(&data, &mut seeded_rng(3))
            .unwrap()
            .merge_components(3.0);
        // The two true modes are ~16/σ apart: never merged.
        assert!(res.num_effective_components(1.0) >= 2);
    }

    #[test]
    fn objective_is_nondecreasing_after_warmup() {
        let data = clustered_data();
        let v = VariationalDpGmm::new(VariationalConfig {
            alpha: 1.0,
            truncation: 8,
            max_iters: 60,
        })
        .unwrap();
        let mut rng = seeded_rng(4);
        let res = v.fit(&data, &mut rng).unwrap();
        let t = &res.objective_trace;
        assert!(t.len() >= 2);
        // The tracked objective uses expected weights with point-estimated
        // Gaussians, so it is not a strict ELBO; it must still be
        // non-decreasing up to small numerical wiggle.
        for w in t.windows(2).skip(1) {
            assert!(w[1] >= w[0] - 1e-4, "objective decreased: {:?}", w);
        }
    }

    #[test]
    fn weights_form_a_subprobability_vector() {
        let data = clustered_data();
        let v = VariationalDpGmm::new(VariationalConfig::default()).unwrap();
        let mut rng = seeded_rng(5);
        let res = v.fit(&data, &mut rng).unwrap();
        assert!(res.weights.iter().all(|&w| (0.0..=1.0).contains(&w)));
        assert!(res.weights.iter().sum::<f64>() <= 1.0 + 1e-9);
        // Occupancy accounts for all points.
        assert!((res.occupancy.iter().sum::<f64>() - data.len() as f64).abs() < 1e-6);
    }

    #[test]
    fn to_mixture_prior_threshold() {
        let data = clustered_data();
        let v = VariationalDpGmm::new(VariationalConfig::default()).unwrap();
        let mut rng = seeded_rng(6);
        let res = v.fit(&data, &mut rng).unwrap();
        // Impossible threshold → error.
        assert!(res.to_mixture_prior(1e9).is_err());
    }

    #[test]
    fn truncation_is_capped_by_data_size() {
        let data = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]];
        let v = VariationalDpGmm::new(VariationalConfig {
            truncation: 50,
            ..Default::default()
        })
        .unwrap();
        let mut rng = seeded_rng(8);
        let res = v.fit(&data, &mut rng).unwrap();
        assert!(res.means.len() <= 3);
    }
}
