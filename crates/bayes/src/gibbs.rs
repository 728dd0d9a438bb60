//! Collapsed Gibbs sampling for the DP–NIW mixture (Neal's Algorithm 3).

use rand::Rng;

use dre_linalg::Matrix;
use dre_prob::{CategoricalScratch, NiwPosteriorCache, NiwSufficientStats, NormalInverseWishart};

use crate::{BayesError, MixturePrior, Result};

/// Configuration of a collapsed Gibbs run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GibbsConfig {
    /// Dirichlet-process concentration `α > 0`.
    pub alpha: f64,
    /// Number of full sweeps discarded as burn-in.
    pub burn_in: usize,
    /// Number of full sweeps after burn-in (the final state is reported).
    pub sweeps: usize,
}

impl Default for GibbsConfig {
    fn default() -> Self {
        GibbsConfig {
            alpha: 1.0,
            burn_in: 50,
            sweeps: 100,
        }
    }
}

/// Counters describing how much factorization work the predictive cache
/// saved during a [`DpNiwGibbs::fit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GibbsCacheStats {
    /// Posterior-predictive density evaluations against existing clusters
    /// (the prior predictive is cached in both modes and not counted).
    pub predictive_evals: u64,
    /// Full `O(d³)` Cholesky factorizations performed. On the cached path
    /// this is one template factorization plus one per downdate fallback;
    /// on the exact path every predictive evaluation pays one.
    pub factorizations: u64,
    /// Rank-1 downdates that lost positive definiteness and fell back to a
    /// jittered refactorization from the sufficient statistics.
    pub downdate_fallbacks: u64,
}

impl GibbsCacheStats {
    /// Fraction of predictive evaluations served without a fresh `O(d³)`
    /// factorization: `1 − factorizations / predictive_evals` (clamped to
    /// `[0, 1]`, and `0` when nothing was evaluated).
    pub fn hit_rate(&self) -> f64 {
        if self.predictive_evals == 0 {
            return 0.0;
        }
        let miss = self.factorizations as f64 / self.predictive_evals as f64;
        (1.0 - miss).clamp(0.0, 1.0)
    }
}

/// Outcome of a collapsed Gibbs run.
#[derive(Debug, Clone)]
pub struct GibbsResult {
    /// Final cluster assignment of each data point (labels contiguous
    /// from 0).
    pub assignments: Vec<usize>,
    /// Number of occupied clusters at initialization and after each sweep
    /// (burn-in included), for convergence diagnostics and experiment E10.
    pub cluster_trace: Vec<usize>,
    /// Joint log-probability `log p(X, z)` at initialization and after each
    /// sweep.
    pub log_joint_trace: Vec<f64>,
    /// Factorization-work counters for the run (see [`GibbsCacheStats`]).
    pub cache_stats: GibbsCacheStats,
}

impl GibbsResult {
    /// Number of clusters in the final state.
    pub fn num_clusters(&self) -> usize {
        self.assignments.iter().max().map_or(0, |m| m + 1)
    }
}

/// Collapsed Gibbs sampler for a Dirichlet-process mixture of Gaussians with
/// a [`NormalInverseWishart`] base measure.
///
/// This is the cloud-side fitting procedure of the paper: given the model
/// parameters `{θ_m}` learned on source tasks, it infers how many latent
/// task clusters exist and summarizes the posterior as a [`MixturePrior`]
/// for transfer to edge devices.
///
/// Each sweep visits every point, removes it from its cluster, and
/// re-assigns with probability
///
/// ```text
/// p(z_i = k | …) ∝ n_k · t(x_i | cluster k posterior predictive)
/// p(z_i = new | …) ∝ α  · t(x_i | prior predictive)
/// ```
///
/// (Neal 2000, Algorithm 3). Scoring uses one [`NiwPosteriorCache`] per
/// cluster: a point move only touches its source and destination clusters
/// (one rank-1 downdate and one rank-1 update, `O(d²)` each), while the
/// other `K − 1` clusters' cached predictives are reused verbatim.
/// [`DpNiwGibbs::fit_exact`] is the refactorize-everything reference the
/// cached path is tested against.
#[derive(Debug, Clone)]
pub struct DpNiwGibbs {
    base: NormalInverseWishart,
    config: GibbsConfig,
}

impl DpNiwGibbs {
    /// Creates a sampler from a base measure and configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::InvalidParameter`] unless `config.alpha > 0`.
    pub fn new(base: NormalInverseWishart, config: GibbsConfig) -> Result<Self> {
        if !(config.alpha > 0.0 && config.alpha.is_finite()) {
            return Err(BayesError::InvalidParameter {
                what: "dp_niw_gibbs",
                param: "alpha",
                value: config.alpha,
            });
        }
        Ok(DpNiwGibbs { base, config })
    }

    /// The base measure.
    pub fn base(&self) -> &NormalInverseWishart {
        &self.base
    }

    /// The run configuration.
    pub fn config(&self) -> &GibbsConfig {
        &self.config
    }

    /// Checks that `data` is non-empty and matches the base dimension.
    fn validate(&self, data: &[Vec<f64>]) -> Result<()> {
        if data.is_empty() {
            return Err(BayesError::InvalidData {
                reason: "gibbs requires at least one data point",
            });
        }
        if data.iter().any(|x| x.len() != self.base.dim()) {
            return Err(BayesError::InvalidData {
                reason: "data dimension differs from base measure",
            });
        }
        Ok(())
    }

    /// Runs the sampler on `data` (one row per point). Scoring uses one
    /// [`NiwPosteriorCache`] per cluster: rank-1 moves, `O(d²)` predictive
    /// evaluations.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::InvalidData`] for empty or dimensionally
    /// inconsistent data, and propagates numerical failures.
    pub fn fit<R: Rng + ?Sized>(&self, data: &[Vec<f64>], rng: &mut R) -> Result<GibbsResult> {
        self.validate(data)?;
        let n = data.len();
        let alpha = self.config.alpha;
        let mut stats = GibbsCacheStats::default();

        // The only unavoidable factorization: the prior template, cloned
        // for every fresh cluster (clones copy the factor, they do not
        // refactorize).
        let template = NiwPosteriorCache::new(&self.base)?;
        stats.factorizations += 1;

        // Each point starts at its own table. Singleton initialization
        // avoids the metastable "merged lump" states that Algorithm 3 cannot
        // escape through single-point moves: merges mix fast, splits do not.
        let mut assignments: Vec<usize> = (0..n).collect();
        let mut clusters: Vec<NiwPosteriorCache> = data
            .iter()
            .map(|x| {
                let mut c = template.clone();
                c.insert(x)?;
                Ok(c)
            })
            .collect::<Result<_>>()?;

        // The fresh-table predictive depends only on the base measure —
        // computed once, shared with the exact path so the new-cluster
        // weight is bitwise identical across both modes.
        let prior_pred = self.base.posterior_predictive()?;

        let total_sweeps = self.config.burn_in + self.config.sweeps.max(1);
        // Trace entry 0 is the initial state, then one entry per sweep.
        let mut cluster_trace = Vec::with_capacity(total_sweeps + 1);
        let mut log_joint_trace = Vec::with_capacity(total_sweeps + 1);
        cluster_trace.push(clusters.len());
        log_joint_trace.push(log_joint_cached(&assignments, &clusters, alpha)?);

        // Reusable per-point buffers, hoisted out of the sweep loop.
        let mut logw: Vec<f64> = Vec::with_capacity(n + 1);
        let mut scratch = CategoricalScratch::new();

        for _sweep in 0..total_sweeps {
            for i in 0..n {
                let x = &data[i];
                let old = assignments[i];
                if clusters[old].len() == 1 {
                    // The point sits alone at its table: removal empties
                    // the cluster, so delete it outright instead of
                    // downdating a factor that is about to be dropped.
                    delete_cluster(&mut clusters, &mut assignments, old);
                } else if clusters[old].remove(x)? {
                    stats.downdate_fallbacks += 1;
                    stats.factorizations += 1;
                }

                // Candidate log-weights: existing clusters then a new one.
                // Every cached evaluation is an O(d²) triangular solve; the
                // K − 1 untouched clusters reuse their predictives as-is.
                let k = clusters.len();
                logw.clear();
                logw.extend(
                    clusters
                        .iter()
                        .map(|c| (c.len() as f64).ln() + c.predictive_log_pdf(x)),
                );
                stats.predictive_evals += k as u64;
                logw.push(alpha.ln() + prior_pred.log_pdf(x));

                let choice = scratch.sample_from_log_weights(&logw, rng)?;
                if choice == k {
                    let mut fresh = template.clone();
                    fresh.insert(x)?;
                    clusters.push(fresh);
                } else {
                    clusters[choice].insert(x)?;
                }
                assignments[i] = choice;
            }
            cluster_trace.push(clusters.len());
            log_joint_trace.push(log_joint_cached(&assignments, &clusters, alpha)?);
        }

        Ok(GibbsResult {
            assignments,
            cluster_trace,
            log_joint_trace,
            cache_stats: stats,
        })
    }

    /// The exact-recompute reference for [`fit`](Self::fit): every
    /// evaluation refactorizes the cluster posterior from its sufficient
    /// statistics (`O(d³)` each) instead of using the incremental
    /// [`NiwPosteriorCache`]. Both paths consume the identical RNG stream
    /// and their scores agree far below the categorical decision
    /// resolution (the cache's tolerance is `~1e-8` on log-densities), so
    /// the same seed gives the same assignments and cluster trace, and a
    /// log-joint trace equal to within that tolerance. Use it to diagnose a
    /// suspected drift of the cached path.
    ///
    /// # Errors
    ///
    /// As [`fit`](Self::fit).
    pub fn fit_exact<R: Rng + ?Sized>(
        &self,
        data: &[Vec<f64>],
        rng: &mut R,
    ) -> Result<GibbsResult> {
        self.validate(data)?;
        let d = self.base.dim();
        let n = data.len();
        let alpha = self.config.alpha;
        let mut stats = GibbsCacheStats::default();

        let mut assignments: Vec<usize> = (0..n).collect();
        let mut clusters: Vec<NiwSufficientStats> = data
            .iter()
            .map(|x| {
                let mut s = NiwSufficientStats::new(d);
                s.insert(x);
                s
            })
            .collect();

        let prior_pred = self.base.posterior_predictive()?;

        let total_sweeps = self.config.burn_in + self.config.sweeps.max(1);
        let mut cluster_trace = Vec::with_capacity(total_sweeps + 1);
        let mut log_joint_trace = Vec::with_capacity(total_sweeps + 1);
        cluster_trace.push(clusters.len());
        log_joint_trace.push(self.log_joint_at(&assignments, &clusters, alpha)?);

        // Reusable per-point buffers, hoisted out of the sweep loop.
        let mut logw: Vec<f64> = Vec::with_capacity(n + 1);
        let mut scratch = CategoricalScratch::new();

        for _sweep in 0..total_sweeps {
            for i in 0..n {
                let x = &data[i];
                let old = assignments[i];
                clusters[old].remove(x);
                if clusters[old].is_empty() {
                    delete_cluster(&mut clusters, &mut assignments, old);
                }

                // Candidate log-weights: existing clusters then a new one.
                // Scoring a cluster costs an O(d³) posterior factorization.
                let k = clusters.len();
                stats.predictive_evals += k as u64;
                stats.factorizations += k as u64;
                logw.clear();
                for cluster in &clusters {
                    let pred = self.base.posterior(cluster)?.posterior_predictive()?;
                    logw.push((cluster.len() as f64).ln() + pred.log_pdf(x));
                }
                logw.push(alpha.ln() + prior_pred.log_pdf(x));

                let choice = scratch.sample_from_log_weights(&logw, rng)?;
                if choice == k {
                    let mut fresh = NiwSufficientStats::new(d);
                    fresh.insert(x);
                    clusters.push(fresh);
                } else {
                    clusters[choice].insert(x);
                }
                assignments[i] = choice;
            }
            cluster_trace.push(clusters.len());
            log_joint_trace.push(self.log_joint_at(&assignments, &clusters, alpha)?);
        }

        Ok(GibbsResult {
            assignments,
            cluster_trace,
            log_joint_trace,
            cache_stats: stats,
        })
    }

    /// Joint log-probability `log p(X, z) = log CRP_α(z) + Σ_k log p(X_k)`
    /// at the given concentration (exact path: two `O(d³)` factorizations
    /// per cluster inside `log_marginal_likelihood`).
    fn log_joint_at(
        &self,
        assignments: &[usize],
        clusters: &[NiwSufficientStats],
        alpha: f64,
    ) -> Result<f64> {
        let crp = crate::Crp::new(alpha)?;
        let mut lp = crp.log_partition_prob(assignments)?;
        for stats in clusters {
            lp += self.base.log_marginal_likelihood(stats)?;
        }
        Ok(lp)
    }

    /// Summarizes a fitted state as the finite [`MixturePrior`] transferred
    /// to edge devices.
    ///
    /// Component `k` gets weight `n_k / (n + α)`, mean `μ_n` and covariance
    /// `E[Σ | X_k] = Ψ_n / (ν_n − d − 1)` from the cluster's NIW posterior.
    /// A final "fresh table" component with weight `α / (n + α)` carries the
    /// base measure's predictive moments, so a novel edge task that matches
    /// no historical cluster still receives calibrated (wide) prior mass.
    ///
    /// # Errors
    ///
    /// Propagates dimension and factorization failures.
    pub fn to_mixture_prior(
        &self,
        data: &[Vec<f64>],
        assignments: &[usize],
    ) -> Result<MixturePrior> {
        if data.len() != assignments.len() || data.is_empty() {
            return Err(BayesError::InvalidData {
                reason: "assignments must match data length",
            });
        }
        let d = self.base.dim();
        let k = assignments.iter().max().expect("nonempty") + 1;
        let n = data.len() as f64;
        let alpha = self.config.alpha;

        let mut per_cluster: Vec<NiwSufficientStats> =
            (0..k).map(|_| NiwSufficientStats::new(d)).collect();
        for (x, &a) in data.iter().zip(assignments) {
            per_cluster[a].insert(x);
        }

        let mut components = Vec::with_capacity(k + 1);
        for stats in &per_cluster {
            if stats.is_empty() {
                return Err(BayesError::InvalidData {
                    reason: "assignments reference an empty cluster",
                });
            }
            let post = self.base.posterior(stats)?;
            let cov = expected_covariance(&post)?;
            components.push((stats.len() as f64 / (n + alpha), post.mu0().to_vec(), cov));
        }
        // Fresh-table component from the base measure.
        let base_cov = expected_covariance(&self.base)?;
        components.push((alpha / (n + alpha), self.base.mu0().to_vec(), base_cov));

        MixturePrior::new(components)
    }
}

/// Joint log-probability on the cached path: the CRP partition term plus
/// each cluster's collapsed marginal likelihood read off the cached
/// log-determinants — `O(d)` per cluster, no factorization.
fn log_joint_cached(
    assignments: &[usize],
    clusters: &[NiwPosteriorCache],
    alpha: f64,
) -> Result<f64> {
    let crp = crate::Crp::new(alpha)?;
    let mut lp = crp.log_partition_prob(assignments)?;
    for c in clusters {
        lp += c.log_marginal_likelihood();
    }
    Ok(lp)
}

/// Deletes cluster `old` by swap-remove and relabels the moved cluster.
fn delete_cluster<T>(clusters: &mut Vec<T>, assignments: &mut [usize], old: usize) {
    clusters.swap_remove(old);
    let moved = clusters.len();
    if old != moved {
        for a in assignments.iter_mut() {
            if *a == moved {
                *a = old;
            }
        }
    }
}

/// Posterior-expected covariance `E[Σ] = Ψ / (ν − d − 1)`, widened to the
/// predictive scale when the degrees of freedom are too small for the mean
/// to exist. Public because the streaming learner (`dre-learner`) collapses
/// its particle ensemble with the *same* rule as
/// [`DpNiwGibbs::to_mixture_prior`], so refreshed priors are formula-
/// identical to a from-scratch refit.
pub fn expected_covariance(niw: &NormalInverseWishart) -> Result<Matrix> {
    let d = niw.dim() as f64;
    let denom = niw.nu0() - d - 1.0;
    if denom > 0.0 {
        Ok(niw.psi0().scaled(1.0 / denom))
    } else {
        // Fall back to the predictive scale matrix, which always exists.
        let dof = niw.nu0() - d + 1.0;
        Ok(niw
            .psi0()
            .scaled((niw.kappa0() + 1.0) / (niw.kappa0() * dof)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_prob::{seeded_rng, MvNormal};

    fn well_separated_data(per_cluster: usize) -> Vec<Vec<f64>> {
        let mut rng = seeded_rng(1234);
        let m1 = MvNormal::isotropic(vec![0.0, 0.0], 0.25).unwrap();
        let m2 = MvNormal::isotropic(vec![10.0, 10.0], 0.25).unwrap();
        let m3 = MvNormal::isotropic(vec![-10.0, 10.0], 0.25).unwrap();
        let mut data = Vec::new();
        for m in [&m1, &m2, &m3] {
            data.extend(m.sample_n(&mut rng, per_cluster));
        }
        data
    }

    fn sampler(alpha: f64) -> DpNiwGibbs {
        let base =
            NormalInverseWishart::new(vec![0.0, 0.0], 0.05, Matrix::identity(2), 5.0).unwrap();
        DpNiwGibbs::new(
            base,
            GibbsConfig {
                alpha,
                burn_in: 20,
                sweeps: 20,
            },
        )
        .unwrap()
    }

    #[test]
    fn rejects_invalid_inputs() {
        let base = NormalInverseWishart::vague(2).unwrap();
        assert!(DpNiwGibbs::new(
            base.clone(),
            GibbsConfig {
                alpha: 0.0,
                ..GibbsConfig::default()
            }
        )
        .is_err());
        let g = DpNiwGibbs::new(base, GibbsConfig::default()).unwrap();
        let mut rng = seeded_rng(0);
        assert!(g.fit(&[], &mut rng).is_err());
        assert!(g.fit(&[vec![1.0]], &mut rng).is_err());
        assert_eq!(g.config().alpha, 1.0);
        assert_eq!(g.base().dim(), 2);
        assert!(g.fit_exact(&[], &mut rng).is_err());
        assert!(g.fit_exact(&[vec![1.0]], &mut rng).is_err());
    }

    #[test]
    fn recovers_three_well_separated_clusters() {
        let data = well_separated_data(30);
        let g = sampler(1.0);
        let mut rng = seeded_rng(5);
        let result = g.fit(&data, &mut rng).unwrap();
        assert_eq!(
            result.num_clusters(),
            3,
            "trace: {:?}",
            result.cluster_trace
        );
        // Points from the same ground-truth cluster share a label.
        for c in 0..3 {
            let labels: Vec<usize> = (0..30).map(|i| result.assignments[c * 30 + i]).collect();
            assert!(labels.iter().all(|&l| l == labels[0]));
        }
    }

    #[test]
    fn assignments_are_contiguous_labels() {
        let data = well_separated_data(10);
        let g = sampler(2.0);
        let mut rng = seeded_rng(7);
        let result = g.fit(&data, &mut rng).unwrap();
        let k = result.num_clusters();
        let mut seen = vec![false; k];
        for &a in &result.assignments {
            seen[a] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(result.cluster_trace.len(), 41);
        assert_eq!(result.log_joint_trace.len(), 41);
        // Initial state is all-singletons.
        assert_eq!(result.cluster_trace[0], 30);
    }

    #[test]
    fn log_joint_improves_from_singleton_init() {
        let data = well_separated_data(20);
        let g = sampler(1.0);
        let mut rng = seeded_rng(9);
        let result = g.fit(&data, &mut rng).unwrap();
        let first = result.log_joint_trace[0];
        let last = *result.log_joint_trace.last().unwrap();
        assert!(
            last > first,
            "log joint should improve: first={first}, last={last}"
        );
    }

    #[test]
    fn cached_matches_exact_recompute() {
        let data = well_separated_data(15);
        let base =
            NormalInverseWishart::new(vec![0.0, 0.0], 0.05, Matrix::identity(2), 5.0).unwrap();
        let cfg = GibbsConfig {
            alpha: 1.0,
            burn_in: 10,
            sweeps: 10,
        };
        let g = DpNiwGibbs::new(base, cfg).unwrap();

        let mut rng_c = seeded_rng(42);
        let mut rng_e = seeded_rng(42);
        let rc = g.fit(&data, &mut rng_c).unwrap();
        let re = g.fit_exact(&data, &mut rng_e).unwrap();

        // Identical RNG stream and score agreement far below the categorical
        // decision resolution ⇒ identical trajectories.
        assert_eq!(rc.assignments, re.assignments);
        assert_eq!(rc.cluster_trace, re.cluster_trace);
        for (a, b) in rc.log_joint_trace.iter().zip(&re.log_joint_trace) {
            assert!((a - b).abs() < 1e-6, "log joint diverged: {a} vs {b}");
        }

        // The cached run served essentially every evaluation from cache;
        // the exact run paid a factorization for every one.
        assert!(rc.cache_stats.predictive_evals > 0);
        assert!(
            rc.cache_stats.hit_rate() > 0.99,
            "cached hit rate {:?}",
            rc.cache_stats
        );
        assert_eq!(re.cache_stats.hit_rate(), 0.0);
        assert_eq!(
            re.cache_stats.factorizations,
            re.cache_stats.predictive_evals
        );
    }

    /// The same cached ≡ exact agreement on a 4-dimensional, 3-cluster
    /// cloud under a vague base measure.
    #[test]
    fn gibbs_cached_matches_exact_recompute_trace() {
        let mut rng = seeded_rng(21);
        let centers = [
            MvNormal::isotropic(vec![3.0; 4], 0.05).unwrap(),
            MvNormal::isotropic(vec![-3.0; 4], 0.05).unwrap(),
            MvNormal::isotropic(vec![0.0; 4], 0.05).unwrap(),
        ];
        let data: Vec<Vec<f64>> = (0..60).map(|i| centers[i % 3].sample(&mut rng)).collect();
        let cfg = GibbsConfig {
            alpha: 1.2,
            burn_in: 2,
            sweeps: 4,
        };
        let gibbs = DpNiwGibbs::new(NormalInverseWishart::vague(4).unwrap(), cfg).unwrap();

        let rc = gibbs.fit(&data, &mut seeded_rng(8)).unwrap();
        let re = gibbs.fit_exact(&data, &mut seeded_rng(8)).unwrap();

        assert_eq!(
            rc.assignments, re.assignments,
            "cached vs exact assignments"
        );
        assert_eq!(
            rc.cluster_trace, re.cluster_trace,
            "cached vs exact clusters"
        );
        assert_eq!(rc.log_joint_trace.len(), re.log_joint_trace.len());
        for (i, (a, b)) in rc
            .log_joint_trace
            .iter()
            .zip(&re.log_joint_trace)
            .enumerate()
        {
            assert!(
                (a - b).abs() < 1e-6,
                "log joint entry {i} diverged: cached {a} vs exact {b}"
            );
        }
        assert!(
            rc.cache_stats.hit_rate() > 0.99,
            "cache hit rate too low: {:?}",
            rc.cache_stats
        );
        assert_eq!(re.cache_stats.hit_rate(), 0.0);
    }

    #[test]
    fn mixture_prior_covers_cluster_means() {
        let data = well_separated_data(25);
        let g = sampler(1.0);
        let mut rng = seeded_rng(11);
        let result = g.fit(&data, &mut rng).unwrap();
        let prior = g.to_mixture_prior(&data, &result.assignments).unwrap();
        // 3 clusters + 1 fresh-table component.
        assert_eq!(prior.num_components(), 4);
        // Each ground-truth center has a nearby component mean.
        for center in [[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]] {
            let best = prior
                .components()
                .iter()
                .map(|c| dre_linalg::vector::dist2(c.mean(), &center))
                .fold(f64::INFINITY, f64::min);
            assert!(best < 0.5, "no component near {center:?} (best {best})");
        }
        // Weights sum to 1.
        let wsum: f64 = prior.components().iter().map(|c| c.weight()).sum();
        assert!((wsum - 1.0).abs() < 1e-12);
        // Fresh-table weight = α/(n+α) = 1/76.
        let fresh = prior.components().last().unwrap();
        assert!((fresh.weight() - 1.0 / 76.0).abs() < 1e-12);
    }

    #[test]
    fn to_mixture_prior_validates() {
        let g = sampler(1.0);
        assert!(g.to_mixture_prior(&[], &[]).is_err());
        assert!(g.to_mixture_prior(&[vec![0.0, 0.0]], &[0, 1]).is_err());
        // Non-contiguous labels (empty cluster 0 referenced as max 1).
        assert!(g.to_mixture_prior(&[vec![0.0, 0.0]], &[1]).is_err());
    }

    #[test]
    fn higher_alpha_yields_more_clusters_on_diffuse_data() {
        let mut rng = seeded_rng(13);
        let diffuse = MvNormal::isotropic(vec![0.0, 0.0], 25.0)
            .unwrap()
            .sample_n(&mut rng, 60);
        let low = sampler(0.1).fit(&diffuse, &mut rng).unwrap();
        let high = sampler(8.0).fit(&diffuse, &mut rng).unwrap();
        let avg = |t: &[usize]| t.iter().sum::<usize>() as f64 / t.len() as f64;
        assert!(
            avg(&high.cluster_trace) > avg(&low.cluster_trace),
            "high α should occupy more tables"
        );
    }
}
