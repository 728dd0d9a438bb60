//! Dual reformulations of the Wasserstein worst-case risk.

use dre_models::{LinearModel, MarginLoss};
use dre_optim::Objective;

use crate::{Result, RobustError, WassersteinBall};

/// Smoothing applied so quasi-Newton solvers can be used on the dual.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Smoothing {
    /// Temperature of the soft-max over the two dual branches. The smoothed
    /// objective upper-bounds the exact dual by at most `τ·ln 2` per sample.
    pub tau: f64,
    /// Perturbation of `‖w‖₂` at the origin: `√(‖w‖² + δ²)`.
    pub delta: f64,
}

impl Default for Smoothing {
    fn default() -> Self {
        Smoothing {
            tau: 1e-3,
            delta: 1e-9,
        }
    }
}

fn softplus(s: f64) -> f64 {
    if s > 0.0 {
        s + (-s).exp().ln_1p()
    } else {
        s.exp().ln_1p()
    }
}

fn sigmoid(s: f64) -> f64 {
    if s >= 0.0 {
        1.0 / (1.0 + (-s).exp())
    } else {
        let e = s.exp();
        e / (1.0 + e)
    }
}

fn validate(xs: &[Vec<f64>], ys: &[f64]) -> Result<usize> {
    if xs.is_empty() || xs.len() != ys.len() {
        return Err(RobustError::InvalidDataset {
            reason: "features and labels must be nonempty and aligned",
        });
    }
    let d = xs[0].len();
    if d == 0 || xs.iter().any(|x| x.len() != d) {
        return Err(RobustError::InvalidDataset {
            reason: "feature rows must share a nonzero dimension",
        });
    }
    if ys.iter().any(|&y| y != 1.0 && y != -1.0) {
        return Err(RobustError::InvalidDataset {
            reason: "labels must be ±1",
        });
    }
    Ok(d)
}

/// The exact dual of the type-1 Wasserstein worst-case risk for a linear
/// model with an `L`-Lipschitz margin loss:
///
/// ```text
/// sup_{Q ∈ B_ε(P̂)} E_Q[ℓ] =
///   min_{γ ≥ L·‖w‖₂}  γ·ε + (1/n) Σᵢ max( ℓ(mᵢ), ℓ(−mᵢ) − γ·κ )
/// ```
///
/// (Shafieezadeh-Abadeh, Mohajerin Esfahani & Kuhn, *Distributionally
/// Robust Logistic Regression*; the general result is Mohajerin
/// Esfahani–Kuhn strong duality.) This objective is the **single-layer
/// recast** the paper obtains from the two-layer min–sup problem.
///
/// For unconstrained smooth solvers the objective is parameterized over
/// `[w…, b, s]` with `γ(w, s) = L·√(‖w‖² + δ²) + softplus(s)` — the
/// reparameterization enforces the dual constraint `γ ≥ L‖w‖` by
/// construction — and the per-sample `max` is replaced by a temperature-`τ`
/// soft-max (a tight upper bound). [`Self::exact_robust_risk`] evaluates
/// the un-smoothed dual for certification.
#[derive(Debug)]
pub struct WassersteinDualObjective<'a, L> {
    xs: &'a [Vec<f64>],
    ys: &'a [f64],
    loss: L,
    ball: WassersteinBall,
    smoothing: Smoothing,
    d: usize,
}

impl<'a, L: MarginLoss> WassersteinDualObjective<'a, L> {
    /// Creates the dual objective.
    ///
    /// # Errors
    ///
    /// * [`RobustError::InvalidDataset`] for empty/misaligned data or
    ///   labels outside `±1`.
    /// * [`RobustError::LossNotLipschitz`] when the loss has no finite
    ///   margin Lipschitz constant (e.g. squared loss) — strong duality in
    ///   this form requires it.
    pub fn new(xs: &'a [Vec<f64>], ys: &'a [f64], loss: L, ball: WassersteinBall) -> Result<Self> {
        let d = validate(xs, ys)?;
        if !loss.margin_lipschitz().is_finite() {
            return Err(RobustError::LossNotLipschitz { loss: loss.name() });
        }
        Ok(WassersteinDualObjective {
            xs,
            ys,
            loss,
            ball,
            smoothing: Smoothing::default(),
            d,
        })
    }

    /// Overrides the smoothing parameters.
    pub fn with_smoothing(mut self, smoothing: Smoothing) -> Self {
        self.smoothing = smoothing;
        self
    }

    /// The ambiguity ball.
    pub fn ball(&self) -> &WassersteinBall {
        &self.ball
    }

    /// Packs a starting point `[w…, b, s]` from a model, with the slack `s`
    /// chosen so the initial `γ` exceeds the constraint floor by 1.
    pub fn initial_point(&self, model: &LinearModel) -> Vec<f64> {
        let mut p = model.to_packed();
        // softplus(s) = 1  ⇔  s = ln(e − 1).
        p.push((std::f64::consts::E - 1.0).ln());
        p
    }

    /// Splits a packed iterate into the linear model and the dual variable
    /// `γ`.
    ///
    /// # Panics
    ///
    /// Panics when `packed.len() != self.dim()`.
    pub fn unpack(&self, packed: &[f64]) -> (LinearModel, f64) {
        assert_eq!(packed.len(), self.d + 2, "packed layout is [w…, b, s]");
        let model = LinearModel::from_packed(&packed[..self.d + 1]);
        let gamma = self.gamma(&packed[..self.d], packed[self.d + 1]);
        (model, gamma)
    }

    fn gamma(&self, w: &[f64], s: f64) -> f64 {
        let l = self.loss.margin_lipschitz();
        let norm = (dre_linalg::vector::dot(w, w)
            + self.smoothing.delta * self.smoothing.delta)
            .sqrt();
        l * norm + softplus(s)
    }

    /// The exact (un-smoothed) dual robust risk of a fixed model, computed
    /// by minimizing the convex 1-D dual over `γ ∈ [L‖w‖, γ_hi]` with
    /// golden-section search.
    ///
    /// By strong duality this equals `sup_{Q ∈ B_ε(P̂)} E_Q[ℓ(model)]` — a
    /// certificate on out-of-sample loss under any distribution in the
    /// ball.
    pub fn exact_robust_risk(&self, model: &LinearModel) -> f64 {
        let n = self.xs.len() as f64;
        // Per-sample losses at the margin and at its label flip, computed
        // once per call: every golden-section probe below reuses them. Both
        // the map and the per-γ dual sums use the deterministic parallel
        // primitives (the sums with fixed-order chunked reduction).
        let losses: Vec<(f64, f64)> = dre_parallel::par_map_indexed(self.xs.len(), |i| {
            let (own, flipped, _, _) = self
                .loss
                .eval_both_signs(model.margin(&self.xs[i], self.ys[i]));
            (own, flipped)
        });
        let gamma_lo = self.loss.margin_lipschitz() * model.weight_norm();
        let eps = self.ball.radius();
        let kappa = self.ball.label_cost();

        if kappa.is_infinite() {
            // Flip branch never active: optimum at the constraint floor.
            let erm = dre_parallel::par_sum_indexed(losses.len(), |i| losses[i].0) / n;
            return gamma_lo * eps + erm;
        }

        let g = |gamma: f64| -> f64 {
            let total = dre_parallel::par_sum_indexed(losses.len(), |i| {
                let (own, flipped) = losses[i];
                own.max(flipped - gamma * kappa)
            });
            gamma * eps + total / n
        };

        // Beyond γ_hi every flip branch is inactive and g is affine
        // increasing, so the minimum lies in [γ_lo, γ_hi].
        let max_gap = losses
            .iter()
            .map(|&(own, flipped)| flipped - own)
            .fold(0.0f64, f64::max);
        let gamma_hi = gamma_lo + (max_gap / kappa).max(0.0) + 1e-9;

        golden_section_min(g, gamma_lo, gamma_hi, 1e-10)
    }
}

/// Golden-section minimization of a unimodal function on `[lo, hi]`;
/// returns the minimum *value*.
fn golden_section_min<F: Fn(f64) -> f64>(f: F, mut lo: f64, mut hi: f64, tol: f64) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    if hi - lo < tol {
        return f(0.5 * (lo + hi));
    }
    let mut x1 = hi - INV_PHI * (hi - lo);
    let mut x2 = lo + INV_PHI * (hi - lo);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    for _ in 0..200 {
        if hi - lo < tol {
            break;
        }
        if f1 <= f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - INV_PHI * (hi - lo);
            f1 = f(x1);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + INV_PHI * (hi - lo);
            f2 = f(x2);
        }
    }
    f1.min(f2).min(f(lo)).min(f(hi))
}

impl<L: MarginLoss> Objective for WassersteinDualObjective<'_, L> {
    fn dim(&self) -> usize {
        self.d + 2
    }

    fn value(&self, packed: &[f64]) -> f64 {
        self.value_and_gradient(packed).0
    }

    fn gradient(&self, packed: &[f64]) -> Vec<f64> {
        self.value_and_gradient(packed).1
    }

    fn value_and_gradient(&self, packed: &[f64]) -> (f64, Vec<f64>) {
        let d = self.d;
        let (w, rest) = packed.split_at(d);
        let b = rest[0];
        let s = rest[1];
        let n = self.xs.len() as f64;
        let eps = self.ball.radius();
        let kappa = self.ball.label_cost();
        let tau = self.smoothing.tau;
        let l = self.loss.margin_lipschitz();

        let norm = (dre_linalg::vector::dot(w, w)
            + self.smoothing.delta * self.smoothing.delta)
            .sqrt();
        let gamma = l * norm + softplus(s);
        // ∂γ/∂w = L·w/norm, ∂γ/∂s = σ(s).
        let dgamma_ds = sigmoid(s);

        let mut value = gamma * eps;
        let mut grad = vec![0.0; packed.len()];
        // ε·∂γ contributions.
        for i in 0..d {
            grad[i] += eps * l * w[i] / norm;
        }
        grad[d + 1] += eps * dgamma_ds;

        // Per-sample dual terms: fixed-size chunks with one (value, grad)
        // accumulator each, merged in chunk order so the summation tree is
        // identical whether the chunks run serially or across threads.
        let partials = dre_parallel::par_fold_chunks(
            self.xs.len(),
            || (0.0f64, vec![0.0f64; packed.len()]),
            |mut acc: (f64, Vec<f64>), idx: usize| {
                let x = &self.xs[idx];
                let y = self.ys[idx];
                let (pv, pg) = (&mut acc.0, &mut acc.1);
                let m = y * (dre_linalg::vector::dot(w, x) + b);
                // ℓ(±m) and ℓ'(±m) from one fused evaluation.
                let (a, flipped, d_own, d_flipped) = self.loss.eval_both_signs(m);
                if kappa.is_infinite() {
                    *pv += a / n;
                    let coeff = d_own * y / n;
                    let (gw, gtail) = pg.split_at_mut(d);
                    dre_linalg::vector::axpy(coeff, x, gw);
                    gtail[0] += coeff;
                    return acc;
                }
                let c = flipped - gamma * kappa;
                // Soft-max over the two branches at temperature τ.
                let mx = a.max(c);
                let ea = ((a - mx) / tau).exp();
                let ec = ((c - mx) / tau).exp();
                let z = ea + ec;
                let smax = mx + tau * (z).ln();
                let pa = ea / z;
                let pc = ec / z;
                *pv += smax / n;

                let da = d_own * y;
                let dc = -d_flipped * y;
                let coeff = (pa * da + pc * dc) / n;
                {
                    let (gw, gtail) = pg.split_at_mut(d);
                    dre_linalg::vector::axpy(coeff, x, gw);
                    gtail[0] += coeff;
                }
                // The flip branch carries −γκ: chain through γ(w, s).
                let dgamma_coeff = -pc * kappa / n;
                for i in 0..d {
                    pg[i] += dgamma_coeff * l * w[i] / norm;
                }
                pg[d + 1] += dgamma_coeff * dgamma_ds;
                acc
            },
        );
        for (pv, pg) in partials {
            value += pv;
            for (g, p) in grad.iter_mut().zip(&pg) {
                *g += p;
            }
        }
        (value, grad)
    }
}

/// The `κ → ∞` (features-only) collapse of the Wasserstein dual:
///
/// ```text
/// min_{w,b}  (1/n) Σᵢ ℓ(yᵢ(wᵀxᵢ + b)) + ε·L·‖w‖₂
/// ```
///
/// — robust training is exactly Lipschitz-norm regularization, over the
/// packed parameter `[w…, b]`. The norm is smoothed as `√(‖w‖² + δ²)` so
/// the objective is differentiable at `w = 0`.
#[derive(Debug)]
pub struct LipschitzRegularizedObjective<'a, L> {
    xs: &'a [Vec<f64>],
    ys: &'a [f64],
    loss: L,
    epsilon: f64,
    delta: f64,
    d: usize,
}

impl<'a, L: MarginLoss> LipschitzRegularizedObjective<'a, L> {
    /// Creates the objective with Wasserstein radius `ε ≥ 0`.
    ///
    /// # Errors
    ///
    /// Same dataset conditions as [`WassersteinDualObjective::new`], plus
    /// [`RobustError::InvalidParameter`] for an invalid radius.
    pub fn new(xs: &'a [Vec<f64>], ys: &'a [f64], loss: L, epsilon: f64) -> Result<Self> {
        let d = validate(xs, ys)?;
        if !loss.margin_lipschitz().is_finite() {
            return Err(RobustError::LossNotLipschitz { loss: loss.name() });
        }
        if !(epsilon >= 0.0 && epsilon.is_finite()) {
            return Err(RobustError::InvalidParameter {
                param: "epsilon",
                value: epsilon,
            });
        }
        Ok(LipschitzRegularizedObjective {
            xs,
            ys,
            loss,
            epsilon,
            delta: 1e-9,
            d,
        })
    }

    /// The radius `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl<L: MarginLoss> Objective for LipschitzRegularizedObjective<'_, L> {
    fn dim(&self) -> usize {
        self.d + 1
    }

    fn value(&self, packed: &[f64]) -> f64 {
        self.value_and_gradient(packed).0
    }

    fn gradient(&self, packed: &[f64]) -> Vec<f64> {
        self.value_and_gradient(packed).1
    }

    fn value_and_gradient(&self, packed: &[f64]) -> (f64, Vec<f64>) {
        let d = self.d;
        let (w, bs) = packed.split_at(d);
        let b = bs[0];
        let n = self.xs.len() as f64;
        let mut value = 0.0;
        let mut grad = vec![0.0; packed.len()];
        for (x, &y) in self.xs.iter().zip(self.ys) {
            let m = y * (dre_linalg::vector::dot(w, x) + b);
            value += self.loss.value(m);
            let coeff = self.loss.derivative(m) * y / n;
            let (gw, gb) = grad.split_at_mut(d);
            dre_linalg::vector::axpy(coeff, x, gw);
            gb[0] += coeff;
        }
        value /= n;
        let l = self.loss.margin_lipschitz();
        let norm = (dre_linalg::vector::dot(w, w) + self.delta * self.delta).sqrt();
        value += self.epsilon * l * norm;
        for i in 0..d {
            grad[i] += self.epsilon * l * w[i] / norm;
        }
        (value, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_models::{ErmObjective, LogisticLoss, SquaredLoss};
    use dre_optim::{numerical_gradient, Lbfgs, StopCriteria};

    fn toy() -> (Vec<Vec<f64>>, Vec<f64>) {
        (
            vec![
                vec![1.5, 0.3],
                vec![0.8, -0.4],
                vec![-1.2, 0.1],
                vec![-0.7, -0.6],
                vec![2.2, 0.9],
                vec![-1.8, 0.5],
            ],
            vec![1.0, 1.0, -1.0, -1.0, 1.0, -1.0],
        )
    }

    #[test]
    fn construction_validation() {
        let (xs, ys) = toy();
        let ball = WassersteinBall::new(0.1, 1.0).unwrap();
        assert!(WassersteinDualObjective::new(&[], &[], LogisticLoss, ball).is_err());
        assert!(matches!(
            WassersteinDualObjective::new(&xs, &ys, SquaredLoss, ball),
            Err(RobustError::LossNotLipschitz { .. })
        ));
        let bad_labels = vec![1.0, 0.5, -1.0, -1.0, 1.0, -1.0];
        assert!(WassersteinDualObjective::new(&xs, &bad_labels, LogisticLoss, ball).is_err());
        let obj = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
        assert_eq!(obj.dim(), 4); // d + b + s
        assert_eq!(obj.ball().radius(), 0.1);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (xs, ys) = toy();
        for kappa in [1.0, 0.25, f64::INFINITY] {
            let ball = WassersteinBall::new(0.2, kappa).unwrap();
            let obj = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball)
                .unwrap()
                .with_smoothing(Smoothing {
                    tau: 0.05,
                    delta: 1e-6,
                });
            for packed in [
                vec![0.3, -0.5, 0.1, 0.2],
                vec![1.0, 1.0, -0.5, -1.0],
            ] {
                let num = numerical_gradient(&obj, &packed, 1e-6);
                let ana = obj.gradient(&packed);
                assert!(
                    dre_linalg::vector::max_abs_diff(&num, &ana) < 1e-5,
                    "κ={kappa}: numeric {num:?} vs analytic {ana:?}"
                );
            }
        }
    }

    #[test]
    fn zero_radius_exact_risk_equals_empirical_risk() {
        let (xs, ys) = toy();
        let ball = WassersteinBall::new(0.0, 1.0).unwrap();
        let obj = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
        let erm = ErmObjective::new(&xs, &ys, LogisticLoss, 0.0).unwrap();
        let model = LinearModel::new(vec![0.7, -0.2], 0.1);
        let robust = obj.exact_robust_risk(&model);
        let empirical = erm.empirical_risk(&model.to_packed());
        assert!(
            (robust - empirical).abs() < 1e-6,
            "robust {robust} vs empirical {empirical}"
        );
    }

    #[test]
    fn robust_risk_is_monotone_in_radius_and_bounds_empirical() {
        let (xs, ys) = toy();
        let model = LinearModel::new(vec![0.9, 0.4], -0.1);
        let erm = ErmObjective::new(&xs, &ys, LogisticLoss, 0.0).unwrap();
        let empirical = erm.empirical_risk(&model.to_packed());
        let mut prev = empirical;
        for eps in [0.01, 0.05, 0.1, 0.5, 1.0] {
            let ball = WassersteinBall::new(eps, 1.0).unwrap();
            let obj = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
            let r = obj.exact_robust_risk(&model);
            assert!(r >= prev - 1e-9, "risk must grow with ε: {r} < {prev}");
            assert!(r >= empirical - 1e-9);
            prev = r;
        }
    }

    #[test]
    fn features_only_exact_risk_is_norm_regularized_erm() {
        let (xs, ys) = toy();
        let eps = 0.3;
        let ball = WassersteinBall::features_only(eps).unwrap();
        let obj = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
        let erm = ErmObjective::new(&xs, &ys, LogisticLoss, 0.0).unwrap();
        let model = LinearModel::new(vec![1.1, -0.8], 0.2);
        let expected = erm.empirical_risk(&model.to_packed()) + eps * model.weight_norm();
        assert!((obj.exact_robust_risk(&model) - expected).abs() < 1e-9);
    }

    #[test]
    fn smoothed_objective_upper_bounds_exact_dual_tightly() {
        let (xs, ys) = toy();
        let ball = WassersteinBall::new(0.2, 0.8).unwrap();
        let obj = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
        // Minimize the smoothed dual, then compare with the exact risk of
        // the resulting model: they must agree to within the smoothing gap.
        let start = obj.initial_point(&LinearModel::zeros(2));
        let r = Lbfgs::new(StopCriteria::default()).minimize(&obj, &start).unwrap();
        let (model, gamma) = obj.unpack(&r.x);
        let exact = obj.exact_robust_risk(&model);
        assert!(r.value >= exact - 1e-9, "smoothed {r} must be ≥ exact {exact}", r = r.value);
        assert!(r.value - exact < 0.01, "gap too large: {} vs {exact}", r.value);
        // Dual feasibility by construction.
        assert!(gamma >= model.weight_norm() - 1e-12);
    }

    #[test]
    fn robust_training_shrinks_weights_relative_to_erm() {
        let (xs, ys) = toy();
        let erm = ErmObjective::new(&xs, &ys, LogisticLoss, 0.0).unwrap();
        let erm_fit = Lbfgs::new(StopCriteria::with_max_iters(200))
            .minimize(&erm, &[0.0, 0.0, 0.0])
            .unwrap();
        let erm_norm = LinearModel::from_packed(&erm_fit.x).weight_norm();

        let ball = WassersteinBall::new(0.5, 1.0).unwrap();
        let obj = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
        let start = obj.initial_point(&LinearModel::zeros(2));
        let rob_fit = Lbfgs::new(StopCriteria::with_max_iters(200))
            .minimize(&obj, &start)
            .unwrap();
        let (rob_model, _) = obj.unpack(&rob_fit.x);
        assert!(
            rob_model.weight_norm() < erm_norm,
            "robust {} vs erm {erm_norm}",
            rob_model.weight_norm()
        );
    }

    #[test]
    fn lipschitz_regularized_objective_gradient_and_equivalence() {
        let (xs, ys) = toy();
        let eps = 0.25;
        let obj = LipschitzRegularizedObjective::new(&xs, &ys, LogisticLoss, eps).unwrap();
        assert_eq!(obj.dim(), 3);
        assert_eq!(obj.epsilon(), eps);
        let packed = [0.4, -0.3, 0.1];
        let num = numerical_gradient(&obj, &packed, 1e-6);
        assert!(dre_linalg::vector::max_abs_diff(&num, &obj.gradient(&packed)) < 1e-6);

        // Its value equals the exact features-only dual risk.
        let ball = WassersteinBall::features_only(eps).unwrap();
        let dual = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
        let model = LinearModel::from_packed(&packed);
        assert!((obj.value(&packed) - dual.exact_robust_risk(&model)).abs() < 1e-7);

        // Validation.
        assert!(LipschitzRegularizedObjective::new(&xs, &ys, LogisticLoss, -1.0).is_err());
        assert!(LipschitzRegularizedObjective::new(&xs, &ys, SquaredLoss, 0.1).is_err());
    }

    #[test]
    fn label_flips_matter_when_kappa_is_small() {
        let (xs, ys) = toy();
        let model = LinearModel::new(vec![1.0, 0.0], 0.0);
        let risk_at = |kappa: f64| {
            let ball = WassersteinBall::new(0.1, kappa).unwrap();
            WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball)
                .unwrap()
                .exact_robust_risk(&model)
        };
        // Cheap flips give the adversary more power.
        assert!(risk_at(0.1) > risk_at(10.0) - 1e-12);
        // Huge finite κ converges to the features-only value.
        assert!((risk_at(1e9) - risk_at(f64::INFINITY)).abs() < 1e-6);
    }

    #[test]
    fn unpack_roundtrip() {
        let (xs, ys) = toy();
        let ball = WassersteinBall::new(0.1, 1.0).unwrap();
        let obj = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
        let model = LinearModel::new(vec![0.5, -0.5], 0.3);
        let p = obj.initial_point(&model);
        let (m2, gamma) = obj.unpack(&p);
        assert_eq!(m2.weights(), model.weights());
        assert_eq!(m2.bias(), model.bias());
        // softplus(ln(e−1)) = 1 above the smoothed norm floor.
        assert!((gamma - (model.weight_norm() + 1.0)).abs() < 1e-6);
    }
}
