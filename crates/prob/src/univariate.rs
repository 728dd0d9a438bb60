//! Univariate distributions.

use rand::Rng;

use crate::special::{ln_gamma, LN_SQRT_2PI};
use crate::{Distribution, ProbError, Result};

/// Draws one standard-normal variate via the Marsaglia polar method.
///
/// `rand` itself only ships uniform generators (the normal lives in the
/// separate `rand_distr` crate, which is outside the approved dependency
/// set), so the transform is implemented here.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Normal distribution `N(μ, σ²)` parameterized by mean and standard
/// deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] unless `std_dev > 0` and both
    /// parameters are finite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self> {
        if !mean.is_finite() {
            return Err(ProbError::InvalidParameter {
                what: "normal",
                param: "mean",
                value: mean,
            });
        }
        if !(std_dev > 0.0 && std_dev.is_finite()) {
            return Err(ProbError::InvalidParameter {
                what: "normal",
                param: "std_dev",
                value: std_dev,
            });
        }
        Ok(Normal { mean, std_dev })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal {
            mean: 0.0,
            std_dev: 1.0,
        }
    }

    /// Mean `μ`.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation `σ`.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        crate::special::std_normal_cdf((x - self.mean) / self.std_dev)
    }
}

impl Distribution for Normal {
    fn log_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std_dev;
        -0.5 * z * z - self.std_dev.ln() - LN_SQRT_2PI
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// Gamma distribution with shape `α` and rate `β` (density
/// `β^α x^{α−1} e^{−βx} / Γ(α)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    rate: f64,
}

impl Gamma {
    /// Creates a gamma distribution.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] unless `shape > 0` and
    /// `rate > 0`.
    pub fn new(shape: f64, rate: f64) -> Result<Self> {
        if !(shape > 0.0 && shape.is_finite()) {
            return Err(ProbError::InvalidParameter {
                what: "gamma",
                param: "shape",
                value: shape,
            });
        }
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(ProbError::InvalidParameter {
                what: "gamma",
                param: "rate",
                value: rate,
            });
        }
        Ok(Gamma { shape, rate })
    }

    /// Shape `α`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Rate `β`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Mean `α/β`.
    pub fn mean(&self) -> f64 {
        self.shape / self.rate
    }

    /// Variance `α/β²`.
    pub fn variance(&self) -> f64 {
        self.shape / (self.rate * self.rate)
    }
}

impl Distribution for Gamma {
    fn log_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        self.shape * self.rate.ln() + (self.shape - 1.0) * x.ln()
            - self.rate * x
            - ln_gamma(self.shape)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Marsaglia–Tsang squeeze method; boost shape < 1 via the
        // Γ(α) = Γ(α+1)·U^{1/α} identity.
        if self.shape < 1.0 {
            let boosted = Gamma {
                shape: self.shape + 1.0,
                rate: self.rate,
            };
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            return boosted.sample(rng) * u.powf(1.0 / self.shape);
        }
        let d = self.shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = standard_normal(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen_range(0.0..1.0);
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v / self.rate;
            }
        }
    }
}

/// Bernoulli distribution over `{0, 1}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli distribution with success probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] unless `p ∈ [0, 1]`.
    pub fn new(p: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) {
            return Err(ProbError::InvalidParameter {
                what: "bernoulli",
                param: "p",
                value: p,
            });
        }
        Ok(Bernoulli { p })
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Draws a boolean sample.
    pub fn sample_bool<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen_range(0.0..1.0) < self.p
    }
}

impl Distribution for Bernoulli {
    fn log_pdf(&self, x: f64) -> f64 {
        if x == 1.0 {
            self.p.ln()
        } else if x == 0.0 {
            (1.0 - self.p).ln()
        } else {
            f64::NEG_INFINITY
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.sample_bool(rng) {
            1.0
        } else {
            0.0
        }
    }
}

/// Categorical distribution over `{0, …, K−1}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    /// Cumulative probabilities; last entry is 1.
    cdf: Vec<f64>,
    probs: Vec<f64>,
}

impl Categorical {
    /// Creates a categorical distribution from (unnormalized, non-negative)
    /// weights.
    ///
    /// # Errors
    ///
    /// * [`ProbError::InvalidDimension`] if `weights` is empty.
    /// * [`ProbError::InvalidParameter`] if any weight is negative/non-finite
    ///   or all weights are zero.
    pub fn new(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(ProbError::InvalidDimension {
                what: "categorical",
                dim: 0,
            });
        }
        let mut total = 0.0;
        for &w in weights {
            if !(w >= 0.0 && w.is_finite()) {
                return Err(ProbError::InvalidParameter {
                    what: "categorical",
                    param: "weight",
                    value: w,
                });
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(ProbError::InvalidParameter {
                what: "categorical",
                param: "total_weight",
                value: total,
            });
        }
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut cdf = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cdf.push(acc);
        }
        *cdf.last_mut().expect("nonempty") = 1.0;
        Ok(Categorical { cdf, probs })
    }

    /// Creates a categorical distribution from **log**-weights (robust to
    /// very small probabilities).
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidDimension`] if `log_weights` is empty.
    pub fn from_log_weights(log_weights: &[f64]) -> Result<Self> {
        if log_weights.is_empty() {
            return Err(ProbError::InvalidDimension {
                what: "categorical",
                dim: 0,
            });
        }
        let mut w = log_weights.to_vec();
        dre_linalg::vector::softmax_in_place(&mut w);
        Self::new(&w)
    }

    /// Probability vector (sums to 1).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Draws a category index.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("finite cdf"))
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i,
        }
    }
}

/// Reusable scratch buffers for repeated categorical draws from log-weights.
///
/// [`Categorical::from_log_weights`] allocates three vectors per call; inner
/// loops that draw once per data point per sweep (the collapsed Gibbs
/// sampler) instead keep one `CategoricalScratch` alive and call
/// [`CategoricalScratch::sample_from_log_weights`], which performs the exact
/// same arithmetic — same normalization order, same single `gen_range` call,
/// same binary search — so the drawn index and the RNG stream are identical
/// to the allocating path.
///
/// The scratch keeps the CDF of its last successful call, keyed by the
/// **bits** of that call's log-weights. A call with a bit-identical row
/// (sibling particles of a resampled ensemble score the same row) skips
/// the softmax and draws from the kept CDF; since the CDF is a function of
/// the row's bits alone, the draw is the same as from a fresh build.
#[derive(Debug, Clone, Default)]
pub struct CategoricalScratch {
    /// The log-weights `cdf` was built from; empty when no CDF is kept.
    key: Vec<f64>,
    cdf: Vec<f64>,
}

impl CategoricalScratch {
    /// Creates empty scratch buffers (they grow to the first draw's size).
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws a category index from unnormalized log-weights, reusing the
    /// internal buffers. Behaviorally identical to
    /// `Categorical::from_log_weights(log_weights)?.sample_index(rng)`.
    ///
    /// # Errors
    ///
    /// Same as [`Categorical::from_log_weights`] / [`Categorical::new`]. A
    /// failed call keeps no CDF, so the next call builds its own.
    pub fn sample_from_log_weights<R: Rng + ?Sized>(
        &mut self,
        log_weights: &[f64],
        rng: &mut R,
    ) -> Result<usize> {
        let same_row = !self.key.is_empty()
            && self.key.len() == log_weights.len()
            && self
                .key
                .iter()
                .zip(log_weights)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_row {
            self.key.clear();
            self.build_cdf(log_weights)?;
            self.key.extend_from_slice(log_weights);
        }
        let u: f64 = rng.gen_range(0.0..1.0);
        Ok(
            match self
                .cdf
                .binary_search_by(|c| c.partial_cmp(&u).expect("finite cdf"))
            {
                Ok(i) => (i + 1).min(self.cdf.len() - 1),
                Err(i) => i,
            },
        )
    }

    /// Softmax of `log_weights`, then its running sum, into `cdf`: the
    /// arithmetic of [`Categorical::from_log_weights`].
    fn build_cdf(&mut self, log_weights: &[f64]) -> Result<()> {
        if log_weights.is_empty() {
            return Err(ProbError::InvalidDimension {
                what: "categorical",
                dim: 0,
            });
        }
        self.cdf.clear();
        self.cdf.extend_from_slice(log_weights);
        dre_linalg::vector::softmax_in_place(&mut self.cdf);
        let mut total = 0.0;
        for &w in &self.cdf {
            if !(w >= 0.0 && w.is_finite()) {
                return Err(ProbError::InvalidParameter {
                    what: "categorical",
                    param: "weight",
                    value: w,
                });
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(ProbError::InvalidParameter {
                what: "categorical",
                param: "total_weight",
                value: total,
            });
        }
        let mut acc = 0.0;
        for c in &mut self.cdf {
            acc += *c / total;
            *c = acc;
        }
        *self.cdf.last_mut().expect("nonempty") = 1.0;
        Ok(())
    }
}

impl Distribution for Categorical {
    fn log_pdf(&self, x: f64) -> f64 {
        let i = x as usize;
        if x.fract() != 0.0 || x < 0.0 || i >= self.probs.len() {
            return f64::NEG_INFINITY;
        }
        self.probs[i].ln()
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_index(rng) as f64
    }
}

/// Student's t distribution with `ν` degrees of freedom, location `μ` and
/// scale `σ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    dof: f64,
    loc: f64,
    scale: f64,
}

impl StudentT {
    /// Creates a Student-t distribution.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] unless `dof > 0` and
    /// `scale > 0`.
    pub fn new(dof: f64, loc: f64, scale: f64) -> Result<Self> {
        if !(dof > 0.0 && dof.is_finite()) {
            return Err(ProbError::InvalidParameter {
                what: "student_t",
                param: "dof",
                value: dof,
            });
        }
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(ProbError::InvalidParameter {
                what: "student_t",
                param: "scale",
                value: scale,
            });
        }
        Ok(StudentT { dof, loc, scale })
    }

    /// Degrees of freedom `ν`.
    pub fn dof(&self) -> f64 {
        self.dof
    }

    /// Location `μ`.
    pub fn loc(&self) -> f64 {
        self.loc
    }

    /// Scale `σ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Distribution for StudentT {
    fn log_pdf(&self, x: f64) -> f64 {
        let v = self.dof;
        let z = (x - self.loc) / self.scale;
        ln_gamma(0.5 * (v + 1.0))
            - ln_gamma(0.5 * v)
            - 0.5 * (v * std::f64::consts::PI).ln()
            - self.scale.ln()
            - 0.5 * (v + 1.0) * (1.0 + z * z / v).ln()
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let z = standard_normal(rng);
        let chi2 = Gamma {
            shape: 0.5 * self.dof,
            rate: 0.5,
        }
        .sample(rng);
        self.loc + self.scale * z / (chi2 / self.dof).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use dre_linalg::vector;
    use proptest::prelude::*;

    const N: usize = 40_000;

    #[test]
    fn normal_construction_validation() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        let n = Normal::new(2.0, 3.0).unwrap();
        assert_eq!(n.mean(), 2.0);
        assert_eq!(n.std_dev(), 3.0);
    }

    #[test]
    fn normal_log_pdf_known_value() {
        let n = Normal::standard();
        // N(0,1) density at 0 is 1/√(2π).
        assert!((n.pdf(0.0) - 0.398_942_280_401_432_7).abs() < 1e-12);
        assert!((n.log_pdf(1.0) - (-0.5 - LN_SQRT_2PI)).abs() < 1e-12);
    }

    #[test]
    fn normal_moments_from_samples() {
        let mut rng = seeded_rng(11);
        let n = Normal::new(3.0, 2.0).unwrap();
        let xs = n.sample_n(&mut rng, N);
        assert!((vector::mean(&xs) - 3.0).abs() < 0.05);
        assert!((vector::variance(&xs, 1) - 4.0).abs() < 0.15);
    }

    #[test]
    fn normal_cdf_median() {
        let n = Normal::new(5.0, 2.0).unwrap();
        assert!((n.cdf(5.0) - 0.5).abs() < 1e-12);
        assert!(n.cdf(9.0) > 0.95);
    }

    #[test]
    fn gamma_moments_and_density() {
        let g = Gamma::new(3.0, 2.0).unwrap();
        assert_eq!(g.mean(), 1.5);
        assert_eq!(g.variance(), 0.75);
        assert_eq!(g.shape(), 3.0);
        assert_eq!(g.rate(), 2.0);
        assert_eq!(g.log_pdf(-1.0), f64::NEG_INFINITY);
        // Γ(1, 1) is Exp(1): pdf(x) = e^{-x}.
        let e = Gamma::new(1.0, 1.0).unwrap();
        assert!((e.pdf(2.0) - (-2.0f64).exp()).abs() < 1e-12);

        let mut rng = seeded_rng(13);
        let xs = g.sample_n(&mut rng, N);
        assert!((vector::mean(&xs) - 1.5).abs() < 0.03);
        assert!((vector::variance(&xs, 1) - 0.75).abs() < 0.06);
    }

    #[test]
    fn gamma_small_shape_sampling() {
        let g = Gamma::new(0.3, 1.0).unwrap();
        let mut rng = seeded_rng(17);
        let xs = g.sample_n(&mut rng, N);
        assert!(xs.iter().all(|&x| x > 0.0));
        assert!((vector::mean(&xs) - 0.3).abs() < 0.03);
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
    }

    #[test]
    fn bernoulli_behaviour() {
        assert!(Bernoulli::new(1.5).is_err());
        assert!(Bernoulli::new(-0.1).is_err());
        let b = Bernoulli::new(0.7).unwrap();
        assert_eq!(b.p(), 0.7);
        assert!((b.pdf(1.0) - 0.7).abs() < 1e-14);
        assert!((b.pdf(0.0) - 0.3).abs() < 1e-14);
        assert_eq!(b.log_pdf(0.5), f64::NEG_INFINITY);
        let mut rng = seeded_rng(23);
        let mean = vector::mean(&b.sample_n(&mut rng, N));
        assert!((mean - 0.7).abs() < 0.01);
    }

    #[test]
    fn categorical_validation_and_sampling() {
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[0.0, 0.0]).is_err());
        assert!(Categorical::new(&[1.0, -1.0]).is_err());
        assert!(Categorical::new(&[1.0, f64::NAN]).is_err());

        let c = Categorical::new(&[2.0, 6.0, 2.0]).unwrap();
        assert_eq!(c.probs().len(), 3);
        assert!((c.probs()[1] - 0.6).abs() < 1e-14);
        assert!((c.pdf(1.0) - 0.6).abs() < 1e-14);
        assert_eq!(c.log_pdf(3.0), f64::NEG_INFINITY);
        assert_eq!(c.log_pdf(0.5), f64::NEG_INFINITY);

        let mut rng = seeded_rng(29);
        let mut counts = [0usize; 3];
        for _ in 0..N {
            counts[c.sample_index(&mut rng)] += 1;
        }
        assert!((counts[1] as f64 / N as f64 - 0.6).abs() < 0.01);
    }

    #[test]
    fn categorical_scratch_matches_allocating_path() {
        let mut scratch = CategoricalScratch::new();
        let cases: Vec<Vec<f64>> = vec![
            vec![-1.0, -2.0, 0.5],
            vec![-1000.0, -1000.0 + 2.0f64.ln()],
            vec![f64::NEG_INFINITY; 4],
            vec![0.0],
            vec![3.0, -700.0, 2.9, 3.1, -0.2, 1.0],
        ];
        for (s, logw) in cases.iter().enumerate() {
            // Identical u-draw → identical index, and the streams stay in
            // lock-step because both paths consume exactly one gen_range.
            let mut r1 = seeded_rng(40 + s as u64);
            let mut r2 = seeded_rng(40 + s as u64);
            for _ in 0..50 {
                let a = Categorical::from_log_weights(logw)
                    .unwrap()
                    .sample_index(&mut r1);
                let b = scratch.sample_from_log_weights(logw, &mut r2).unwrap();
                assert_eq!(a, b, "weights {logw:?}");
            }
        }
        assert!(scratch
            .sample_from_log_weights(&[], &mut seeded_rng(1))
            .is_err());
        assert!(scratch
            .sample_from_log_weights(&[f64::NAN, 0.0], &mut seeded_rng(1))
            .is_err());
    }

    #[test]
    fn categorical_scratch_cdf_reuse_matches_a_fresh_scratch_per_call() {
        let a = vec![-1.0, -2.0, 0.5];
        let b = vec![3.0, -700.0, 2.9, 3.1];
        let nan = vec![0.0, f64::NAN, -1.0];
        let rows: Vec<&[f64]> = vec![
            &a,
            &a,
            &a,
            &b,
            &a,
            &b,
            &b,
            &nan,
            &nan,
            &a,
            &[],
            &a,
            &[0.0, -1.0],
            &[-0.0, -1.0],
            &[0.0, -1.0],
            &a[..2],
            &a,
        ];
        let mut kept = CategoricalScratch::new();
        let mut r1 = seeded_rng(71);
        let mut r2 = seeded_rng(71);
        for (i, row) in rows.iter().enumerate() {
            let got = kept.sample_from_log_weights(row, &mut r1);
            let want = CategoricalScratch::new().sample_from_log_weights(row, &mut r2);
            assert_eq!(got.ok(), want.ok(), "row {i}: {row:?}");
            assert_eq!(
                rand::RngCore::next_u64(&mut r1.clone()),
                rand::RngCore::next_u64(&mut r2.clone()),
                "row {i}: RNG streams diverged"
            );
        }
    }

    #[test]
    fn categorical_from_log_weights() {
        let c = Categorical::from_log_weights(&[-1000.0, -1000.0 + 2.0f64.ln()]).unwrap();
        assert!((c.probs()[1] - 2.0 / 3.0).abs() < 1e-12);
        assert!(Categorical::from_log_weights(&[]).is_err());
        // All −inf collapses to uniform.
        let u = Categorical::from_log_weights(&[f64::NEG_INFINITY; 4]).unwrap();
        assert!((u.probs()[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn student_t_density_and_sampling() {
        assert!(StudentT::new(0.0, 0.0, 1.0).is_err());
        assert!(StudentT::new(1.0, 0.0, 0.0).is_err());
        let t = StudentT::new(1.0, 0.0, 1.0).unwrap();
        // t(ν=1) is standard Cauchy: pdf(0) = 1/π.
        assert!((t.pdf(0.0) - 1.0 / std::f64::consts::PI).abs() < 1e-12);
        assert_eq!(t.dof(), 1.0);
        assert_eq!(t.loc(), 0.0);
        assert_eq!(t.scale(), 1.0);

        // Heavier tails than normal.
        let t5 = StudentT::new(5.0, 0.0, 1.0).unwrap();
        assert!(t5.log_pdf(4.0) > Normal::standard().log_pdf(4.0));

        let mut rng = seeded_rng(31);
        let xs = t5.sample_n(&mut rng, N);
        // Mean 0, variance ν/(ν−2) = 5/3.
        assert!(vector::mean(&xs).abs() < 0.05);
        assert!((vector::variance(&xs, 1) - 5.0 / 3.0).abs() < 0.2);
    }

    /// One-sample Kolmogorov–Smirnov statistic against a CDF.
    fn ks_statistic<F: Fn(f64) -> f64>(samples: &mut [f64], cdf: F) -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = samples.len() as f64;
        samples
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let f = cdf(x);
                let lo = (f - i as f64 / n).abs();
                let hi = ((i + 1) as f64 / n - f).abs();
                lo.max(hi)
            })
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn gamma_sampler_passes_kolmogorov_smirnov() {
        // The sampler (Marsaglia–Tsang) and the CDF (incomplete gamma from
        // `special`) are independent implementations; KS ties them together.
        let mut rng = seeded_rng(4242);
        for &(shape, rate) in &[(0.5, 1.0), (2.0, 3.0), (7.5, 0.5)] {
            let g = Gamma::new(shape, rate).unwrap();
            let mut xs = g.sample_n(&mut rng, 5000);
            let d = ks_statistic(&mut xs, |x| {
                crate::special::reg_lower_gamma(shape, rate * x.max(0.0))
            });
            // 1% critical value for n = 5000 is ≈ 1.63/√n ≈ 0.023.
            assert!(
                d < 0.023,
                "KS statistic {d} too large for Γ({shape},{rate})"
            );
        }
    }

    #[test]
    fn normal_sampler_passes_kolmogorov_smirnov() {
        let mut rng = seeded_rng(4243);
        let n = Normal::new(-1.0, 2.5).unwrap();
        let mut xs = n.sample_n(&mut rng, 5000);
        let d = ks_statistic(&mut xs, |x| n.cdf(x));
        assert!(
            d < 0.023,
            "KS statistic {d} too large for the normal sampler"
        );
    }

    proptest! {
        #[test]
        fn prop_normal_log_pdf_is_symmetric(mu in -5.0..5.0f64, s in 0.1..3.0f64, d in 0.0..4.0f64) {
            let n = Normal::new(mu, s).unwrap();
            prop_assert!((n.log_pdf(mu + d) - n.log_pdf(mu - d)).abs() < 1e-10);
        }

        #[test]
        fn prop_categorical_probs_sum_to_one(
            w in proptest::collection::vec(0.01..10.0f64, 1..10)
        ) {
            let c = Categorical::new(&w).unwrap();
            let s: f64 = c.probs().iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-12);
        }

        #[test]
        fn prop_gamma_density_integrates_near_mode(shape in 1.1..8.0f64, rate in 0.2..4.0f64) {
            // Density at the mode is maximal: check the mode is a local max.
            let g = Gamma::new(shape, rate).unwrap();
            let mode = (shape - 1.0) / rate;
            prop_assert!(g.log_pdf(mode) >= g.log_pdf(mode * 1.05) - 1e-12);
            prop_assert!(g.log_pdf(mode) >= g.log_pdf(mode * 0.95) - 1e-12);
        }
    }
}
