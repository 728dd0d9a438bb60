//! Rao-Blackwellized sequential-importance-resampling over collapsed DP
//! mixture posteriors.
//!
//! Each particle is one hypothesis about the partition of the reports seen
//! so far. Cluster parameters are **integrated out**: a particle stores only
//! per-cluster [`NiwPosteriorCache`]s (exact sufficient statistics plus a
//! rank-1-maintained predictive factor), so absorbing one report costs
//! `O(d²)` per distinct cluster plus `O(K)` per particle — no Gibbs sweeps,
//! no refits (see [Shared clusters](#shared-clusters)).
//!
//! The proposal is the CRP-optimal one: a report joins cluster `k` with
//! probability `∝ n_k · t_k(x)` (the cached Student-t predictive) or opens a
//! fresh table with probability `∝ α · t₀(x)`. Under this proposal the
//! importance-weight update is the predictive marginal
//! `p(x | partition) = Σ_k scores_k / (n + α)` — independent of the sampled
//! assignment, which is what makes the filter Rao-Blackwellized.
//!
//! Degeneracy is handled by seeded **systematic resampling** when the
//! effective sample size falls below a configured fraction of the ensemble.
//! The collapse to a [`MixturePrior`] uses the exact conjugate posterior of
//! each cluster, the same rule as the batch Gibbs fit.
//!
//! # Determinism
//!
//! Every particle carries its **own** RNG, seeded by mixing
//! `(seed, birth-tag, particle index)`; resampling deterministically reseeds
//! the offspring. Each particle's CRP draw is taken on its own stream in
//! particle order, and the filter runs on the calling thread, so the same
//! seed and report order give a bit-identical ensemble in every build.
//!
//! # Shared clusters
//!
//! Particles hold their clusters copy-on-write behind [`Arc`]s. Resampling
//! copies ancestors, and siblings that share a cluster state usually make
//! the same CRP pick, so an ensemble of `P` particles with `K` clusters each
//! holds far fewer than `P·K` distinct clusters. [`SirDpFilter::push`]
//! therefore scores each distinct cluster once, normalises each distinct
//! score row once (siblings with bit-identical rows draw from one shared
//! CDF, see [`CategoricalScratch`]), stages one checked rank-1 insert
//! ([`NiwPosteriorCache::stage_insert`]) per distinct pick, and commits
//! each staged insert into one new cluster that every particle which
//! picked it shares. A cluster held by one particle only is committed in
//! place. Every shared value is the same deterministic function of the same
//! cluster state and report, so the ensemble is bit-identical to one where
//! each particle updates its own deep copy.
//!
//! Every stage runs before any commit, and the commit cannot fail, so a
//! report that some particle cannot absorb leaves the ensemble exactly as
//! it was.

use std::sync::Arc;

use dre_bayes::{expected_covariance, MixturePrior};
use dre_prob::{
    seeded_rng, CategoricalScratch, NiwPosteriorCache, NormalInverseWishart, StagedInsert,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::{LearnerError, Result};

/// Configuration for [`SirDpFilter`].
#[derive(Debug, Clone)]
pub struct SirConfig {
    /// Ensemble size. More particles track more partition hypotheses.
    pub num_particles: usize,
    /// DP concentration `α` (fresh-table rate).
    pub alpha: f64,
    /// Resample when `ESS < ess_fraction · num_particles`.
    pub ess_fraction: f64,
    /// Root seed; every particle RNG is derived from it deterministically.
    pub seed: u64,
}

impl Default for SirConfig {
    fn default() -> Self {
        SirConfig {
            num_particles: 24,
            alpha: 1.0,
            ess_fraction: 0.5,
            seed: 0,
        }
    }
}

impl SirConfig {
    fn validate(&self) -> Result<()> {
        if self.num_particles == 0 {
            return Err(LearnerError::InvalidConfig {
                reason: "num_particles must be positive",
            });
        }
        if !(self.alpha > 0.0 && self.alpha.is_finite()) {
            return Err(LearnerError::InvalidConfig {
                reason: "alpha must be positive and finite",
            });
        }
        if !(0.0..=1.0).contains(&self.ess_fraction) {
            return Err(LearnerError::InvalidConfig {
                reason: "ess_fraction must lie in [0, 1]",
            });
        }
        Ok(())
    }
}

/// One partition hypothesis: collapsed per-cluster posteriors plus a
/// log importance weight and a particle-local RNG. Cloning a particle
/// shares its clusters (see the module docs).
#[derive(Debug, Clone)]
struct Particle {
    clusters: Vec<Arc<NiwPosteriorCache>>,
    log_weight: f64,
    rng: StdRng,
}

/// SplitMix64-style finalizer mixing `(seed, tag, index)` into one stream
/// seed, so sibling particles and resample generations never share streams.
pub(crate) fn mix_seed(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z =
        seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The identity of a shared cluster: the address its [`Arc`] points to.
fn cluster_key(c: &Arc<NiwPosteriorCache>) -> usize {
    Arc::as_ptr(c) as usize
}

/// `exp` that reuses its last result when called again with the same
/// argument. Resampled siblings sit next to each other with equal weights
/// and marginals, so most exponentials of an ensemble loop repeat; an equal
/// argument gives the same bits either way.
struct RepeatExp {
    arg: f64,
    value: f64,
}

impl RepeatExp {
    fn new() -> Self {
        RepeatExp {
            arg: f64::NAN,
            value: f64::NAN,
        }
    }

    fn exp(&mut self, arg: f64) -> f64 {
        if arg != self.arg {
            self.arg = arg;
            self.value = arg.exp();
        }
        self.value
    }
}

/// One particle's staged push: its weight increment, its advanced RNG, the
/// cluster slot it joins (`== clusters.len()` for a fresh table) and the
/// index of the distinct staged insert that slot receives.
struct ParticleStep {
    log_marginal: f64,
    rng: StdRng,
    pick: usize,
    target: usize,
}

/// One distinct insert target of a push: the picked cluster's key (`None`
/// for a fresh table), the checked insert into it, staged once for every
/// particle that picked it, and the new cluster once it is committed.
struct Target {
    key: Option<usize>,
    insert: Option<StagedInsert>,
    committed: Option<Arc<NiwPosteriorCache>>,
}

/// One report scored against the ensemble: every particle's CRP score row,
/// concatenated in particle order (split them with
/// [`SirDpFilter::score_rows`]), and every particle's Rao-Blackwellized
/// log-marginal.
#[derive(Debug, Clone)]
struct Scores {
    rows: Vec<f64>,
    marginals: Vec<f64>,
}

/// The [`Scores`] of a report memoized by [`SirDpFilter::score_report`]
/// and consumed by the next [`SirDpFilter::push`] of the same report, so
/// gating a report does not double the cost of absorbing it. Valid only
/// while the ensemble is untouched — every mutator drains it on entry.
#[derive(Debug, Clone)]
struct ScoreMemo {
    x: Vec<f64>,
    scores: Scores,
}

/// Streaming DP-mixture posterior tracker (see module docs).
#[derive(Debug, Clone)]
pub struct SirDpFilter {
    base: NormalInverseWishart,
    config: SirConfig,
    particles: Vec<Particle>,
    /// An empty cache of the base measure, cloned on cluster birth so the
    /// `O(d³)` prior factorization is paid exactly once per filter. The
    /// filter always holds it, so a fresh table commits into a copy.
    template: Arc<NiwPosteriorCache>,
    observations: usize,
    resamples: u64,
    /// `Σ_i exp(log w_i − max_j log w_j)` in particle order, refreshed on
    /// every weight change: the admission score's normalizer, which would
    /// otherwise cost one exponential per particle per scored report.
    weight_total: f64,
    score_memo: Option<ScoreMemo>,
}

impl SirDpFilter {
    /// Creates a filter over `base` with `config.num_particles` identical
    /// empty particles (they diverge at the first report).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configuration or a non-factorizable
    /// base scale matrix.
    pub fn new(base: NormalInverseWishart, config: SirConfig) -> Result<Self> {
        config.validate()?;
        let template = Arc::new(NiwPosteriorCache::new(&base)?);
        let particles = (0..config.num_particles)
            .map(|i| Particle {
                clusters: Vec::new(),
                log_weight: 0.0,
                rng: seeded_rng(mix_seed(config.seed, 0, i as u64)),
            })
            .collect();
        let mut filter = SirDpFilter {
            base,
            config,
            particles,
            template,
            observations: 0,
            resamples: 0,
            weight_total: 0.0,
            score_memo: None,
        };
        filter.weight_total = filter.weight_sums().0;
        Ok(filter)
    }

    /// The base measure the filter was built over.
    pub fn base(&self) -> &NormalInverseWishart {
        &self.base
    }

    /// Ensemble size.
    pub fn num_particles(&self) -> usize {
        self.particles.len()
    }

    /// Reports absorbed so far.
    pub fn num_observations(&self) -> usize {
        self.observations
    }

    /// Resampling events triggered so far.
    pub fn resamples(&self) -> u64 {
        self.resamples
    }

    /// Effective sample size `(Σw)² / Σw²` of the current ensemble, in
    /// `[1, num_particles]`.
    pub fn ess(&self) -> f64 {
        let (sum, sum_sq) = self.weight_sums();
        sum * sum / sum_sq
    }

    /// `(Σw, Σw²)` over the weights `w_i = exp(log w_i − max_j log w_j)`.
    fn weight_sums(&self) -> (f64, f64) {
        let max = self
            .particles
            .iter()
            .map(|p| p.log_weight)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let mut exp = RepeatExp::new();
        for p in &self.particles {
            let w = exp.exp(p.log_weight - max);
            sum += w;
            sum_sq += w * w;
        }
        (sum, sum_sq)
    }

    /// Collapsed predictive log-marginal `log p(x | reports so far)` of the
    /// current ensemble, **without** mutating the filter.
    ///
    /// Per particle this is exactly the Rao-Blackwellized weight update of
    /// [`push`](Self::push) — `log Σ_k n_k·t_k(x) + α·t₀(x) − log(n+α)` over
    /// that particle's partition — and the ensemble value averages the
    /// per-particle marginals under the normalized importance weights (a
    /// logsumexp over `log w_i + log m_i`). This is the quantity the report
    /// admission gate scores against its rolling baseline: a report the DP
    /// posterior finds wildly surprising gets a very negative value here.
    ///
    /// # Errors
    ///
    /// Returns an error on non-finite input or a dimension mismatch with
    /// the base measure.
    pub fn predictive_log_marginal(&self, x: &[f64]) -> Result<f64> {
        self.validate_report(x)?;
        Ok(self.ensemble_log_marginal(&self.score(x).marginals))
    }

    /// [`predictive_log_marginal`](Self::predictive_log_marginal), but the
    /// per-particle score rows are memoized: if the very next mutation is a
    /// [`push`](Self::push) of this exact report, the push reuses the rows
    /// instead of recomputing them, making an admitted report's gate check
    /// nearly free. Any other mutation (or a push of a different report)
    /// discards the memo, so the two methods are observably identical.
    ///
    /// # Errors
    ///
    /// Returns an error on non-finite input or a dimension mismatch with
    /// the base measure.
    pub fn score_report(&mut self, x: &[f64]) -> Result<f64> {
        self.validate_report(x)?;
        let scores = self.score(x);
        let marginal = self.ensemble_log_marginal(&scores.marginals);
        self.score_memo = Some(ScoreMemo {
            x: x.to_vec(),
            scores,
        });
        Ok(marginal)
    }

    fn validate_report(&self, x: &[f64]) -> Result<()> {
        if x.len() != self.base.dim() {
            return Err(LearnerError::InvalidReport {
                reason: "report dimension does not match the base measure",
            });
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(LearnerError::InvalidReport {
                reason: "report parameters must be finite",
            });
        }
        Ok(())
    }

    /// Scores `x` against every particle. Row `i` holds
    /// `log n_k + log t_k(x)` for each of particle `i`'s clusters plus a
    /// final `log α + log t₀(x)` base-measure entry, and marginal `i` is
    /// that row's Rao-Blackwellized `log p(x | partition)`. This is the
    /// shared kernel behind both the admission gate's marginal and the
    /// push-time weight update / assignment proposal.
    ///
    /// Each distinct shared cluster is scored once; there are only a handful
    /// per report, so a linear scan finds the ones already scored. Siblings
    /// sit next to each other after a resample, so a row equal to the one
    /// before it reuses that row's marginal.
    fn score(&self, x: &[f64]) -> Scores {
        // The base-measure entry is the same for every particle.
        let fresh = self.config.alpha.ln() + self.template.predictive_log_pdf(x);
        let log_n_alpha = (self.observations as f64 + self.config.alpha).ln();
        let slots: usize = self.particles.iter().map(|p| p.clusters.len() + 1).sum();
        let mut rows = Vec::with_capacity(slots);
        let mut marginals = Vec::with_capacity(self.particles.len());
        let mut scored: Vec<(usize, f64)> = Vec::new();
        let mut prev_start = 0;
        for p in &self.particles {
            let start = rows.len();
            for c in &p.clusters {
                let key = cluster_key(c);
                let score = match scored.iter().find(|(k, _)| *k == key) {
                    Some(&(_, score)) => score,
                    None => {
                        let score = (c.len() as f64).ln() + c.predictive_log_pdf(x);
                        scored.push((key, score));
                        score
                    }
                };
                rows.push(score);
            }
            rows.push(fresh);
            let (done, row) = rows.split_at(start);
            let marginal = match marginals.last() {
                Some(&m) if &done[prev_start..] == row => m,
                _ => Self::row_log_marginal(row, log_n_alpha),
            };
            marginals.push(marginal);
            prev_start = start;
        }
        Scores { rows, marginals }
    }

    /// Splits concatenated score rows into each particle's row.
    fn score_rows<'a>(&'a self, rows: &'a [f64]) -> impl Iterator<Item = &'a [f64]> + 'a {
        let mut rest = rows;
        self.particles.iter().map(move |p| {
            let (row, tail) = rest.split_at(p.clusters.len() + 1);
            rest = tail;
            row
        })
    }

    /// Rao-Blackwellized per-particle marginal from one score row.
    fn row_log_marginal(scores: &[f64], log_n_alpha: f64) -> f64 {
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        max + scores.iter().map(|s| (s - max).exp()).sum::<f64>().ln() - log_n_alpha
    }

    /// Importance-weighted logsumexp of the per-particle marginals.
    fn ensemble_log_marginal(&self, marginals: &[f64]) -> f64 {
        let max_w = self
            .particles
            .iter()
            .map(|p| p.log_weight)
            .fold(f64::NEG_INFINITY, f64::max);
        let terms = || {
            self.particles
                .iter()
                .zip(marginals)
                .map(move |(p, m)| p.log_weight - max_w + m)
        };
        let num = terms().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        let mut exp = RepeatExp::new();
        for term in terms() {
            sum += exp.exp(term - num);
        }
        num + sum.ln() - self.weight_total.ln()
    }

    /// Absorbs one reported model: every particle proposes an assignment
    /// from its own CRP-optimal proposal and reweights by its predictive
    /// marginal; the ensemble then resamples if the ESS dropped below the
    /// configured fraction.
    ///
    /// The step is all-or-nothing: every particle's draw and every distinct
    /// cluster insert is staged against the unchanged ensemble first, and
    /// only when all of them succeed are they committed. On error the
    /// ensemble is exactly as before the call.
    ///
    /// # Errors
    ///
    /// Returns an error on non-finite input, a dimension mismatch with
    /// the base measure, or a report that some particle cannot absorb (its
    /// distance to the chosen cluster's mean overflows).
    pub fn push(&mut self, x: &[f64]) -> Result<()> {
        self.validate_report(x)?;
        // Reuse the scores from an immediately preceding score_report of this
        // exact report (the admission-gate fast path); recompute otherwise.
        // Draining the memo here also guarantees no mutation can ever leave
        // a stale memo behind.
        let scores = match self.score_memo.take() {
            Some(m) if m.x == x => m.scores,
            _ => self.score(x),
        };
        // Stage against the unchanged ensemble: each particle draws its pick
        // on a copy of its own RNG, in particle order, and the first particle
        // to pick a cluster stages the insert every later picker reuses. An
        // error is the one the first failing particle would raise on its own.
        let mut steps = Vec::with_capacity(self.particles.len());
        let mut targets: Vec<Target> = Vec::new();
        let mut scratch = CategoricalScratch::new();
        let rows = self.score_rows(&scores.rows);
        for ((p, row), &log_marginal) in self.particles.iter().zip(rows).zip(&scores.marginals) {
            let mut rng = p.rng.clone();
            let pick = scratch.sample_from_log_weights(row, &mut rng)?;
            let cluster = p.clusters.get(pick);
            let key = cluster.map(cluster_key);
            let target = match targets.iter().position(|t| t.key == key) {
                Some(t) => t,
                None => {
                    let insert = cluster.map_or(&self.template, |c| c).stage_insert(x)?;
                    targets.push(Target {
                        key,
                        insert: Some(insert),
                        committed: None,
                    });
                    targets.len() - 1
                }
            };
            steps.push(ParticleStep {
                // Predictive marginal under the CRP mixture proposal — the
                // Rao-Blackwellized weight update, independent of the draw.
                log_marginal,
                rng,
                pick,
                target,
            });
        }
        // Commit: infallible. The first picker of each target commits its
        // insert — in place when no other particle holds the cluster, into a
        // copy otherwise — and every later picker shares the result.
        for (p, step) in self.particles.iter_mut().zip(steps) {
            p.log_weight += step.log_marginal;
            p.rng = step.rng;
            if step.pick == p.clusters.len() {
                p.clusters.push(Arc::clone(&self.template));
            }
            let slot = &mut p.clusters[step.pick];
            let target = &mut targets[step.target];
            match &target.committed {
                Some(shared) => *slot = Arc::clone(shared),
                None => {
                    let insert = target.insert.take().expect("a target commits once");
                    Arc::make_mut(slot).commit_insert(x, insert);
                    target.committed = Some(Arc::clone(slot));
                }
            }
        }
        self.observations += 1;
        self.resample_if_degenerate();
        Ok(())
    }

    /// Refreshes the weight total after the weights changed, then resamples
    /// when the ESS fell to the configured fraction. Inclusive comparison so
    /// `ess_fraction = 1.0` means "resample every report" even while all
    /// particles still agree (equal weights give ESS exactly equal to the
    /// ensemble size).
    fn resample_if_degenerate(&mut self) {
        let (sum, sum_sq) = self.weight_sums();
        self.weight_total = sum;
        if sum * sum / sum_sq <= self.config.ess_fraction * self.particles.len() as f64 {
            self.resample();
        }
    }

    /// Seeded systematic resampling: one uniform offset, evenly spaced
    /// positions, ancestors by CDF walk. Offspring reset to unit weight and
    /// reseed deterministically from `(seed, resample round, slot)`.
    fn resample(&mut self) {
        self.resamples += 1;
        let p = self.particles.len();
        let max = self
            .particles
            .iter()
            .map(|q| q.log_weight)
            .fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = self
            .particles
            .iter()
            .map(|q| (q.log_weight - max).exp())
            .collect();
        let total: f64 = weights.iter().sum();
        let mut offset_rng = seeded_rng(mix_seed(self.config.seed, self.resamples, u64::MAX));
        let u0: f64 = offset_rng.gen_range(0.0..1.0) / p as f64;
        let mut next = Vec::with_capacity(p);
        let mut cdf = weights[0] / total;
        let mut k = 0usize;
        for slot in 0..p {
            let u = u0 + slot as f64 / p as f64;
            while u > cdf && k + 1 < p {
                k += 1;
                cdf += weights[k] / total;
            }
            // Cloning shares the ancestor's clusters; no posterior is copied.
            let mut child = self.particles[k].clone();
            child.log_weight = 0.0;
            child.rng = seeded_rng(mix_seed(self.config.seed, self.resamples, slot as u64));
            next.push(child);
        }
        self.particles = next;
        self.weight_total = self.weight_sums().0;
    }

    /// Index of the maximum-weight particle (lowest index wins ties).
    fn map_index(&self) -> usize {
        let mut best = 0;
        for (i, p) in self.particles.iter().enumerate().skip(1) {
            if p.log_weight > self.particles[best].log_weight {
                best = i;
            }
        }
        best
    }

    /// Cluster count of the maximum-weight particle.
    pub fn map_num_clusters(&self) -> usize {
        self.particles[self.map_index()].clusters.len()
    }

    /// Collapses the maximum-weight particle into the finite
    /// `(w_k, μ_k, Σ_k)` summary served to edges, using **exactly** the rule
    /// of [`dre_bayes::DpNiwGibbs::to_mixture_prior`]: per-cluster weight
    /// `n_k/(n+α)` with the conjugate posterior mean and expected
    /// covariance, plus the fresh-table component `α/(n+α)` from the base.
    ///
    /// # Errors
    ///
    /// Returns an error when no reports were absorbed yet.
    pub fn to_mixture_prior(&self) -> Result<MixturePrior> {
        if self.observations == 0 {
            return Err(LearnerError::InvalidReport {
                reason: "cannot collapse an empty filter into a prior",
            });
        }
        let map = &self.particles[self.map_index()];
        let n = self.observations as f64;
        let alpha = self.config.alpha;
        let mut components = Vec::with_capacity(map.clusters.len() + 1);
        for c in &map.clusters {
            let post = self.base.posterior(c.stats())?;
            let cov = expected_covariance(&post)?;
            components.push((c.len() as f64 / (n + alpha), post.mu0().to_vec(), cov));
        }
        let base_cov = expected_covariance(&self.base)?;
        components.push((alpha / (n + alpha), self.base.mu0().to_vec(), base_cov));
        Ok(MixturePrior::new(components)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_linalg::Matrix;
    use dre_prob::MvNormal;
    use proptest::prelude::*;

    fn unit_base(d: usize) -> NormalInverseWishart {
        NormalInverseWishart::new(vec![0.0; d], 0.05, Matrix::identity(d), d as f64 + 2.0).unwrap()
    }

    fn two_cluster_reports(per: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = seeded_rng(seed);
        let a = MvNormal::isotropic(vec![4.0, 4.0], 0.05).unwrap();
        let b = MvNormal::isotropic(vec![-4.0, -4.0], 0.05).unwrap();
        let mut out = Vec::new();
        for i in 0..(2 * per) {
            let src = if i % 2 == 0 { &a } else { &b };
            out.push(src.sample(&mut rng));
        }
        out
    }

    /// Reference push that shares nothing, the differential oracle for
    /// [`SirDpFilter::push`]: every particle scores its own clusters, stages
    /// its own insert and commits it into a deep copy of its clusters, so no
    /// particle shares a cluster after the push.
    fn push_deep_copy(f: &mut SirDpFilter, x: &[f64]) -> Result<()> {
        f.validate_report(x)?;
        f.score_memo = None;
        let fresh = f.config.alpha.ln() + f.template.predictive_log_pdf(x);
        let log_n_alpha = (f.observations as f64 + f.config.alpha).ln();
        let mut staged = Vec::with_capacity(f.particles.len());
        for p in &f.particles {
            let mut scores: Vec<f64> = p
                .clusters
                .iter()
                .map(|c| (c.len() as f64).ln() + c.predictive_log_pdf(x))
                .collect();
            scores.push(fresh);
            let mut rng = p.rng.clone();
            let pick = CategoricalScratch::new().sample_from_log_weights(&scores, &mut rng)?;
            let insert = p
                .clusters
                .get(pick)
                .unwrap_or(&f.template)
                .stage_insert(x)?;
            let log_marginal = SirDpFilter::row_log_marginal(&scores, log_n_alpha);
            staged.push((log_marginal, rng, pick, insert));
        }
        for (p, (log_marginal, rng, pick, insert)) in f.particles.iter_mut().zip(staged) {
            p.log_weight += log_marginal;
            p.rng = rng;
            let mut own: Vec<NiwPosteriorCache> =
                p.clusters.iter().map(|c| (**c).clone()).collect();
            if pick == own.len() {
                own.push((*f.template).clone());
            }
            own[pick].commit_insert(x, insert);
            p.clusters = own.into_iter().map(Arc::new).collect();
        }
        f.observations += 1;
        f.resample_if_degenerate();
        Ok(())
    }

    /// Reference ensemble marginal: every particle's row and marginal and
    /// every exponential computed afresh, for
    /// [`SirDpFilter::predictive_log_marginal`].
    fn reference_log_marginal(f: &SirDpFilter, x: &[f64]) -> f64 {
        let fresh = f.config.alpha.ln() + f.template.predictive_log_pdf(x);
        let log_n_alpha = (f.observations as f64 + f.config.alpha).ln();
        let max_w = f
            .particles
            .iter()
            .map(|p| p.log_weight)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut num = f64::NEG_INFINITY;
        let mut den = 0.0;
        let mut terms = Vec::new();
        for p in &f.particles {
            let mut scores: Vec<f64> = p
                .clusters
                .iter()
                .map(|c| (c.len() as f64).ln() + c.predictive_log_pdf(x))
                .collect();
            scores.push(fresh);
            let lw = p.log_weight - max_w;
            let term = lw + SirDpFilter::row_log_marginal(&scores, log_n_alpha);
            terms.push(term);
            den += lw.exp();
            num = num.max(term);
        }
        num + terms.iter().map(|t| (t - num).exp()).sum::<f64>().ln() - den.ln()
    }

    /// Reference ESS with every weight's exponential computed afresh.
    fn reference_ess(f: &SirDpFilter) -> f64 {
        let max = f
            .particles
            .iter()
            .map(|p| p.log_weight)
            .fold(f64::NEG_INFINITY, f64::max);
        let w: Vec<f64> = f
            .particles
            .iter()
            .map(|p| (p.log_weight - max).exp())
            .collect();
        let sum: f64 = w.iter().sum();
        sum * sum / w.iter().map(|v| v * v).sum::<f64>()
    }

    /// Everything observable about a filter, as bits: the public
    /// diagnostics, the collapsed prior, and every particle's weight, next
    /// RNG draw and cluster states.
    fn fingerprint(f: &SirDpFilter) -> Vec<u64> {
        let mut out = vec![
            f.ess().to_bits(),
            f.resamples(),
            f.num_observations() as u64,
            f.map_num_clusters() as u64,
        ];
        if let Ok(prior) = f.to_mixture_prior() {
            let bytes = dro_edge::transfer::serialize_prior(&prior);
            out.extend(bytes.iter().map(|&b| u64::from(b)));
        }
        for p in &f.particles {
            out.push(p.log_weight.to_bits());
            out.push(rand::RngCore::next_u64(&mut p.rng.clone()));
            for c in &p.clusters {
                out.push(c.len() as u64);
                out.extend(c.mean().iter().map(|v| v.to_bits()));
                out.push(c.psi_log_det().to_bits());
            }
        }
        out
    }

    /// Cluster keys per particle slot.
    fn cluster_keys(f: &SirDpFilter) -> Vec<Vec<usize>> {
        f.particles
            .iter()
            .map(|p| p.clusters.iter().map(cluster_key).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn shared_cluster_push_matches_the_deep_copy_reference(
            seed in 0u64..1_000_000,
            reports in proptest::collection::vec(
                (0usize..4, -1.5..1.5f64, -1.5..1.5f64, 0usize..2),
                4..32,
            ),
        ) {
            // Three clusters plus points halfway between two of them, where
            // sibling particles split their picks.
            let centers = [[4.0, 4.0], [-4.0, -4.0], [4.0, -4.0], [0.0, 0.0]];
            for ess_fraction in [0.5, 1.0] {
                let config = SirConfig {
                    num_particles: 16,
                    ess_fraction,
                    seed,
                    ..SirConfig::default()
                };
                let mut shared = SirDpFilter::new(unit_base(2), config).unwrap();
                let mut reference = shared.clone();
                for &(c, dx, dy, gate) in &reports {
                    let x = [centers[c][0] + dx, centers[c][1] + dy];
                    // Half the reports go through the admission-gate path.
                    if gate == 1 {
                        let scored = shared.score_report(&x).unwrap();
                        let expected = reference_log_marginal(&reference, &x);
                        prop_assert_eq!(scored.to_bits(), expected.to_bits());
                    }
                    let a = shared.push(&x);
                    let b = push_deep_copy(&mut reference, &x);
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                    prop_assert_eq!(fingerprint(&shared), fingerprint(&reference));
                    prop_assert_eq!(shared.ess().to_bits(), reference_ess(&reference).to_bits());
                }
            }
        }
    }

    #[test]
    fn siblings_sharing_a_cluster_stay_isolated_when_their_picks_differ() {
        let config = SirConfig {
            ess_fraction: 1.0,
            ..SirConfig::default()
        };
        let mut shared = SirDpFilter::new(unit_base(2), config).unwrap();
        let mut reference = shared.clone();
        for x in two_cluster_reports(4, 23) {
            shared.push(&x).unwrap();
            push_deep_copy(&mut reference, &x).unwrap();
        }
        // Resampling made siblings share clusters. Stop it, so each later
        // push's commits stay in place where the test can see them.
        shared.config.ess_fraction = 0.0;
        reference.config.ess_fraction = 0.0;
        let mut split = 0;
        for x in [[0.0, 0.0], [0.3, -0.2], [-0.4, 0.1], [0.1, 0.5]] {
            let before = cluster_keys(&shared);
            let lens: Vec<Vec<usize>> = shared
                .particles
                .iter()
                .map(|p| p.clusters.iter().map(|c| c.len()).collect())
                .collect();
            shared.push(&x).unwrap();
            push_deep_copy(&mut reference, &x).unwrap();
            assert_eq!(fingerprint(&shared), fingerprint(&reference));
            let after = cluster_keys(&shared);
            for i in 0..before.len() {
                for j in (i + 1)..before.len() {
                    for k in 0..before[i].len().min(before[j].len()) {
                        if before[i][k] != before[j][k] || after[i][k] == after[j][k] {
                            continue;
                        }
                        // Siblings that shared cluster k and picked
                        // differently: the one that did not pick it still
                        // holds the untouched cluster.
                        split += 1;
                        let (kept, moved) = if after[i][k] == before[i][k] {
                            (i, j)
                        } else {
                            (j, i)
                        };
                        assert_eq!(after[kept][k], before[kept][k]);
                        assert_eq!(shared.particles[kept].clusters[k].len(), lens[kept][k]);
                        assert_eq!(
                            shared.particles[moved].clusters[k].len(),
                            lens[moved][k] + 1
                        );
                    }
                }
            }
        }
        assert!(split > 0, "no shared cluster was split by differing picks");
    }

    #[test]
    fn recovers_well_separated_clusters() {
        let mut f = SirDpFilter::new(unit_base(2), SirConfig::default()).unwrap();
        for x in two_cluster_reports(20, 11) {
            f.push(&x).unwrap();
        }
        assert_eq!(f.num_observations(), 40);
        assert_eq!(f.map_num_clusters(), 2);
        let prior = f.to_mixture_prior().unwrap();
        // Two data clusters plus the fresh-table component.
        assert_eq!(prior.num_components(), 3);
        // The two heavy components sit near ±4.
        let mut means: Vec<f64> = prior
            .components()
            .iter()
            .filter(|c| c.weight() > 0.2)
            .map(|c| c.mean()[0])
            .collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(means.len(), 2);
        assert!((means[0] + 4.0).abs() < 0.5, "low mean {}", means[0]);
        assert!((means[1] - 4.0).abs() < 0.5, "high mean {}", means[1]);
    }

    #[test]
    fn same_seed_and_order_is_bit_identical_and_thread_invariant() {
        // The filter has no threaded path, so a rerun is the whole check.
        let run = || {
            let mut f = SirDpFilter::new(unit_base(2), SirConfig::default()).unwrap();
            for x in two_cluster_reports(15, 3) {
                f.push(&x).unwrap();
            }
            let p = f.to_mixture_prior().unwrap();
            dro_edge::transfer::serialize_prior(&p)
        };
        assert_eq!(run(), run(), "same seed + order must be bit-identical");
    }

    #[test]
    fn ess_trigger_fires_and_resampling_keeps_the_posterior_sane() {
        let config = SirConfig {
            ess_fraction: 1.0, // resample after every report
            ..SirConfig::default()
        };
        let mut f = SirDpFilter::new(unit_base(2), config).unwrap();
        for x in two_cluster_reports(15, 7) {
            f.push(&x).unwrap();
        }
        assert!(f.resamples() > 0, "forced trigger must fire");
        assert_eq!(f.map_num_clusters(), 2);
        let ess = f.ess();
        let n = f.num_particles() as f64;
        assert!((1.0..=n).contains(&ess), "ESS {ess} out of range");
    }

    #[test]
    fn predictive_log_marginal_ranks_inliers_above_outliers_without_mutating() {
        let mut f = SirDpFilter::new(unit_base(2), SirConfig::default()).unwrap();
        for x in two_cluster_reports(20, 11) {
            f.push(&x).unwrap();
        }
        let before = dro_edge::transfer::serialize_prior(&f.to_mixture_prior().unwrap());
        let inlier = f.predictive_log_marginal(&[4.0, 4.0]).unwrap();
        let outlier = f.predictive_log_marginal(&[60.0, -60.0]).unwrap();
        assert!(
            inlier > outlier + 10.0,
            "cluster center ({inlier}) must dominate a far outlier ({outlier})"
        );
        // Scoring is read-only: the ensemble collapses to the same bytes.
        let after = dro_edge::transfer::serialize_prior(&f.to_mixture_prior().unwrap());
        assert_eq!(before, after, "scoring must not mutate the filter");
        assert!(f.predictive_log_marginal(&[1.0]).is_err());
        assert!(f.predictive_log_marginal(&[f64::NAN, 0.0]).is_err());
    }

    #[test]
    fn rejects_bad_configs_and_bad_reports() {
        assert!(SirDpFilter::new(
            unit_base(2),
            SirConfig {
                num_particles: 0,
                ..SirConfig::default()
            }
        )
        .is_err());
        assert!(SirDpFilter::new(
            unit_base(2),
            SirConfig {
                alpha: 0.0,
                ..SirConfig::default()
            }
        )
        .is_err());
        let mut f = SirDpFilter::new(unit_base(2), SirConfig::default()).unwrap();
        assert!(f.push(&[1.0]).is_err(), "dimension mismatch");
        assert!(f.push(&[f64::NAN, 0.0]).is_err(), "non-finite report");
        assert!(
            f.to_mixture_prior().is_err(),
            "empty filter cannot collapse"
        );
    }
}
