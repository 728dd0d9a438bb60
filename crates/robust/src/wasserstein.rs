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

/// `e^{−x}` is exactly `0.0` in `f64` for every `x > 746`, so past this
/// branch gap the soft-max equals the larger branch bit for bit.
const SATURATED_GAP: f64 = 746.0;

/// Past this branch gap `e = e^{−gap} < 2⁻⁵⁴`, so `ln_1p(e) == e` and
/// `1/(1 + e) == 1.0` in `f64`: `ln(1 + e) = e·(1 − e/2 + …)` sits within a
/// relative `e/2 < 2⁻⁵⁵` of `e`, below half an ulp, and `1 + e` rounds to
/// `1` because `e` is below half an ulp of `1` (`2⁻⁵³`).
const DEEP_GAP: f64 = 37.5;

/// Temperature-`τ` soft-max of two branches, `τ·ln(e^{a/τ} + e^{c/τ})`,
/// with the weights `(p_a, p_c)` it puts on each (its partial derivatives).
///
/// Evaluated as `max(a, c) + τ·ln_1p(e)` with `e = exp(−|a − c|/τ)`: one
/// `exp` and one `ln_1p`; only the `exp` past [`DEEP_GAP`], and neither
/// once the gap saturates.
fn soft_max2(a: f64, c: f64, tau: f64) -> (f64, f64, f64) {
    let gap = (a - c).abs() / tau;
    let (top, top_weight, low_weight) = if gap > SATURATED_GAP {
        (a.max(c), 1.0, 0.0)
    } else if gap > DEEP_GAP {
        let e = (-gap).exp();
        (a.max(c) + tau * e, 1.0, e)
    } else {
        let e = (-gap).exp();
        let q = 1.0 / (1.0 + e);
        (a.max(c) + tau * e.ln_1p(), q, e * q)
    };
    if c > a {
        (top, low_weight, top_weight)
    } else {
        (top, top_weight, low_weight)
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
    /// The rows `yᵢ·xᵢ`, contiguous, row-major: the kernel's margin is
    /// `w·(yx) + y·b`, exactly `y·(w·x + b)` because scaling by ±1 commutes
    /// with rounding.
    signed_rows: Vec<f64>,
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
        let signed_rows = xs
            .iter()
            .zip(ys)
            .flat_map(|(x, &y)| x.iter().map(move |&v| y * v))
            .collect();
        Ok(WassersteinDualObjective {
            xs,
            ys,
            signed_rows,
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
        let norm =
            (dre_linalg::vector::dot(w, w) + self.smoothing.delta * self.smoothing.delta).sqrt();
        l * norm + softplus(s)
    }

    /// The exact (un-smoothed) dual robust risk of a fixed model: the
    /// minimum of the convex 1-D dual over `γ ≥ L‖w‖`, in closed form.
    ///
    /// By strong duality this equals `sup_{Q ∈ B_ε(P̂)} E_Q[ℓ(model)]` — a
    /// certificate on out-of-sample loss under any distribution in the
    /// ball.
    ///
    /// `g(γ) = γε + (1/n) Σᵢ max(ownᵢ, flipᵢ − γκ)` is piecewise linear
    /// with slope `ε − (κ/n)·#{i : gapᵢ > γ}`, where
    /// `gapᵢ = (flipᵢ − ownᵢ)/κ`. The slope first turns non-negative once
    /// at most `k = ⌊nε/κ⌋` gaps lie above `γ`, i.e. at the `(k+1)`-th
    /// largest gap, so the constrained minimizer is the larger of that gap
    /// and `γ_lo = L‖w‖` (or `γ_lo` itself when `k ≥ n`). One selection and
    /// one sum replace a line search over `γ`.
    pub fn exact_robust_risk(&self, model: &LinearModel) -> f64 {
        let n = self.xs.len();
        // Per-sample losses at the margin and at its label flip, from the
        // fused loss kernel; the sums below use the fixed chunked summation
        // tree of the dual kernel.
        let mut losses: Vec<(f64, f64)> = self
            .xs
            .iter()
            .zip(self.ys)
            .map(|(x, &y)| {
                let (own, flipped, _, _) = self.loss.eval_both_signs(model.margin(x, y));
                (own, flipped)
            })
            .collect();
        let gamma_lo = self.loss.margin_lipschitz() * model.weight_norm();
        let eps = self.ball.radius();
        let kappa = self.ball.label_cost();

        if kappa.is_infinite() {
            // Flip branch never active: optimum at the constraint floor.
            let erm = dre_parallel::par_sum_indexed(n, |i| losses[i].0) / n as f64;
            return gamma_lo * eps + erm;
        }

        let k = (n as f64 * eps / kappa).floor();
        let gamma = if k >= n as f64 {
            gamma_lo
        } else {
            // Reorders `losses` so entry k holds the (k+1)-th largest gap;
            // the reordering is deterministic, so the sum below is too.
            let gap = |&(own, flipped): &(f64, f64)| (flipped - own) / kappa;
            let (_, kth, _) =
                losses.select_nth_unstable_by(k as usize, |a, b| gap(b).total_cmp(&gap(a)));
            gap(kth).max(gamma_lo)
        };
        let total = dre_parallel::par_sum_indexed(n, |i| {
            let (own, flipped) = losses[i];
            own.max(flipped - gamma * kappa)
        });
        gamma * eps + total / n as f64
    }
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
        let mut grad = vec![0.0; packed.len()];
        let value = self.value_and_gradient_into(packed, &mut grad);
        (value, grad)
    }

    fn value_and_gradient_into(&self, packed: &[f64], grad: &mut [f64]) -> f64 {
        assert_eq!(
            grad.len(),
            packed.len(),
            "gradient buffer matches [w…, b, s]"
        );
        let d = self.d;
        let (w, rest) = packed.split_at(d);
        let b = rest[0];
        let s = rest[1];
        let n_rows = self.xs.len();
        let n = n_rows as f64;
        let eps = self.ball.radius();
        let kappa = self.ball.label_cost();
        let tau = self.smoothing.tau;
        let l = self.loss.margin_lipschitz();

        let norm =
            (dre_linalg::vector::dot(w, w) + self.smoothing.delta * self.smoothing.delta).sqrt();
        let gamma = l * norm + softplus(s);
        let gamma_kappa = gamma * kappa;

        // One sample's dual term, accumulated into (Σ smaxᵢ,
        // Σ ∂smaxᵢ/∂m · y·[x, 1], Σ p_flipᵢ). Slot d + 1 of the gradient is
        // left alone until the γ chain below fills it.
        let sample = |idx: usize, total: &mut f64, grad: &mut [f64], flip_mass: &mut f64| {
            let yx = &self.signed_rows[idx * d..(idx + 1) * d];
            let y = self.ys[idx];
            let m = dre_linalg::vector::dot(w, yx) + y * b;
            // ℓ(±m) and ℓ'(±m) from one fused evaluation.
            let (a, flipped, d_own, d_flipped) = self.loss.eval_both_signs(m);
            let (smax, p_own, p_flip) = if kappa.is_infinite() {
                (a, 1.0, 0.0)
            } else {
                soft_max2(a, flipped - gamma_kappa, tau)
            };
            *total += smax;
            *flip_mass += p_flip;
            let coeff = p_own * d_own - p_flip * d_flipped;
            let (gw, gtail) = grad.split_at_mut(d);
            dre_linalg::vector::axpy(coeff, yx, gw);
            gtail[0] += y * coeff;
        };

        // Rows fold into `REDUCE_CHUNK`-sized partials merged in chunk
        // order, the summation tree every sample sum here shares. One chunk
        // accumulates straight into `grad`, with no allocation.
        grad.fill(0.0);
        let (mut total, mut flip_mass) = (0.0f64, 0.0f64);
        if n_rows <= dre_parallel::REDUCE_CHUNK {
            for idx in 0..n_rows {
                sample(idx, &mut total, grad, &mut flip_mass);
            }
        } else {
            let partials = dre_parallel::par_fold_chunks(
                n_rows,
                || (0.0f64, vec![0.0f64; packed.len()], 0.0f64),
                |mut acc: (f64, Vec<f64>, f64), idx: usize| {
                    sample(idx, &mut acc.0, &mut acc.1, &mut acc.2);
                    acc
                },
            );
            let mut partials = partials.into_iter();
            let (pv, pg, pf) = partials.next().expect("the dataset is nonempty");
            (total, flip_mass) = (pv, pf);
            grad.copy_from_slice(&pg);
            for (pv, pg, pf) in partials {
                total += pv;
                flip_mass += pf;
                for (g, p) in grad.iter_mut().zip(&pg) {
                    *g += p;
                }
            }
        }

        // The flip branch carries −γκ, so γ(w, s) enters with weight
        // ε − κ·(Σ p_flip)/n; chain it through ∂γ/∂w = L·w/norm and
        // ∂γ/∂s = σ(s) once per evaluation.
        let dgamma = if kappa.is_infinite() {
            eps
        } else {
            eps - kappa * flip_mass / n
        };
        let chain_w = dgamma * l / norm;
        for (g, wi) in grad[..d].iter_mut().zip(w) {
            *g = *g / n + chain_w * wi;
        }
        grad[d] /= n;
        grad[d + 1] = dgamma * sigmoid(s);
        gamma * eps + total / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_models::{ErmObjective, LogisticLoss, SquaredLoss};
    use dre_optim::{numerical_gradient, Lbfgs, StopCriteria};
    use rand::Rng;

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

    /// The per-sample dual kernel as first written: two `exp` and one `ln`
    /// per soft-max, the γ chain applied inside every sample's term.
    fn reference_value_and_gradient<L: MarginLoss>(
        obj: &WassersteinDualObjective<'_, L>,
        packed: &[f64],
    ) -> (f64, Vec<f64>) {
        let d = obj.d;
        let (w, rest) = packed.split_at(d);
        let (b, s) = (rest[0], rest[1]);
        let n = obj.xs.len() as f64;
        let eps = obj.ball.radius();
        let kappa = obj.ball.label_cost();
        let tau = obj.smoothing.tau;
        let l = obj.loss.margin_lipschitz();
        let norm =
            (dre_linalg::vector::dot(w, w) + obj.smoothing.delta * obj.smoothing.delta).sqrt();
        let gamma = l * norm + softplus(s);
        let dgamma_ds = sigmoid(s);
        let mut value = gamma * eps;
        let mut grad = vec![0.0; packed.len()];
        for i in 0..d {
            grad[i] += eps * l * w[i] / norm;
        }
        grad[d + 1] += eps * dgamma_ds;
        for (x, &y) in obj.xs.iter().zip(obj.ys) {
            let m = y * (dre_linalg::vector::dot(w, x) + b);
            let (a, flipped, d_own, d_flipped) = obj.loss.eval_both_signs(m);
            if kappa.is_infinite() {
                value += a / n;
                let coeff = d_own * y / n;
                dre_linalg::vector::axpy(coeff, x, &mut grad[..d]);
                grad[d] += coeff;
                continue;
            }
            let c = flipped - gamma * kappa;
            let mx = a.max(c);
            let ea = ((a - mx) / tau).exp();
            let ec = ((c - mx) / tau).exp();
            let z = ea + ec;
            value += (mx + tau * z.ln()) / n;
            let (pa, pc) = (ea / z, ec / z);
            let coeff = (pa * d_own * y - pc * d_flipped * y) / n;
            dre_linalg::vector::axpy(coeff, x, &mut grad[..d]);
            grad[d] += coeff;
            let dgamma_coeff = -pc * kappa / n;
            for i in 0..d {
                grad[i] += dgamma_coeff * l * w[i] / norm;
            }
            grad[d + 1] += dgamma_coeff * dgamma_ds;
        }
        (value, grad)
    }

    /// The soft-max as it was before the deep-gap shortcut: `ln_1p` and the
    /// division at every gap up to saturation.
    fn full_soft_max2(a: f64, c: f64, tau: f64) -> (f64, f64, f64) {
        let gap = (a - c).abs() / tau;
        let (top, top_weight, low_weight) = if gap > SATURATED_GAP {
            (a.max(c), 1.0, 0.0)
        } else {
            let e = (-gap).exp();
            let q = 1.0 / (1.0 + e);
            (a.max(c) + tau * e.ln_1p(), q, e * q)
        };
        if c > a {
            (top, low_weight, top_weight)
        } else {
            (top, top_weight, low_weight)
        }
    }

    /// The fused kernel as it was before signed rows, the deep-gap
    /// shortcut and in-place evaluation: margins `y·(w·x + b)`, gradient
    /// terms `(y·coeff)·x`, and one freshly allocated accumulator per
    /// `par_fold_chunks` chunk at every `n`. The current kernel must match
    /// it bit for bit.
    fn previous_value_and_gradient<L: MarginLoss>(
        obj: &WassersteinDualObjective<'_, L>,
        packed: &[f64],
    ) -> (f64, Vec<f64>) {
        let d = obj.d;
        let (w, rest) = packed.split_at(d);
        let (b, s) = (rest[0], rest[1]);
        let n = obj.xs.len() as f64;
        let eps = obj.ball.radius();
        let kappa = obj.ball.label_cost();
        let tau = obj.smoothing.tau;
        let l = obj.loss.margin_lipschitz();
        let norm =
            (dre_linalg::vector::dot(w, w) + obj.smoothing.delta * obj.smoothing.delta).sqrt();
        let gamma = l * norm + softplus(s);
        let gamma_kappa = gamma * kappa;
        let partials = dre_parallel::par_fold_chunks(
            obj.xs.len(),
            || (0.0f64, vec![0.0f64; packed.len()], 0.0f64),
            |mut acc: (f64, Vec<f64>, f64), idx: usize| {
                let x = &obj.xs[idx];
                let y = obj.ys[idx];
                let m = y * (dre_linalg::vector::dot(w, x) + b);
                let (a, flipped, d_own, d_flipped) = obj.loss.eval_both_signs(m);
                let (smax, p_own, p_flip) = if kappa.is_infinite() {
                    (a, 1.0, 0.0)
                } else {
                    full_soft_max2(a, flipped - gamma_kappa, tau)
                };
                acc.0 += smax;
                acc.2 += p_flip;
                let coeff = y * (p_own * d_own - p_flip * d_flipped);
                let (gw, gtail) = acc.1.split_at_mut(d);
                dre_linalg::vector::axpy(coeff, x, gw);
                gtail[0] += coeff;
                acc
            },
        );
        let mut partials = partials.into_iter();
        let (mut total, mut grad, mut flip_mass) = partials.next().expect("nonempty");
        for (pv, pg, pf) in partials {
            total += pv;
            flip_mass += pf;
            for (g, p) in grad.iter_mut().zip(&pg) {
                *g += p;
            }
        }
        let dgamma = if kappa.is_infinite() {
            eps
        } else {
            eps - kappa * flip_mass / n
        };
        let chain_w = dgamma * l / norm;
        for (g, wi) in grad[..d].iter_mut().zip(w) {
            *g = *g / n + chain_w * wi;
        }
        grad[d] /= n;
        grad[d + 1] = dgamma * sigmoid(s);
        (gamma * eps + total / n, grad)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn in_place_kernel_is_bit_identical_to_the_allocating_and_previous_kernels() {
        let mut rng = dre_prob::seeded_rng(18);
        let mut deep = 0usize;
        for kappa in [0.25, 1.0, f64::INFINITY] {
            for tau in [1e-3, 0.05] {
                // Both sides of REDUCE_CHUNK: one chunk, evaluated with no
                // allocation, and the chunked merge.
                for n in [9, 300] {
                    for trial in 0..12 {
                        let (xs, ys) = random_data(&mut rng, n, 3);
                        let ball = WassersteinBall::new(rng.gen_range(0.0..0.5), kappa).unwrap();
                        let obj = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball)
                            .unwrap()
                            .with_smoothing(Smoothing { tau, delta: 1e-9 });
                        let scale = [0.1, 1.0, 4.0][trial % 3];
                        let packed: Vec<f64> =
                            (0..5).map(|_| scale * rng.gen_range(-1.0..1.0)).collect();
                        if kappa.is_finite() {
                            let gamma = obj.unpack(&packed).1;
                            deep += xs
                                .iter()
                                .zip(&ys)
                                .filter(|&(x, &y)| {
                                    let m =
                                        y * (dre_linalg::vector::dot(&packed[..3], x) + packed[3]);
                                    let (a, flipped, _, _) = LogisticLoss.eval_both_signs(m);
                                    let gap = (a - (flipped - gamma * kappa)).abs() / tau;
                                    gap > DEEP_GAP && gap <= SATURATED_GAP
                                })
                                .count();
                        }
                        let (v, g) = obj.value_and_gradient(&packed);
                        // A dirty buffer: every slot must be overwritten.
                        let mut into = vec![f64::NAN; packed.len()];
                        let vi = obj.value_and_gradient_into(&packed, &mut into);
                        let (pv, pg) = previous_value_and_gradient(&obj, &packed);
                        let case = format!("κ={kappa} τ={tau} n={n} trial {trial}");
                        assert_eq!(
                            (vi.to_bits(), bits(&into)),
                            (v.to_bits(), bits(&g)),
                            "{case}"
                        );
                        assert_eq!((v.to_bits(), bits(&g)), (pv.to_bits(), bits(&pg)), "{case}");
                    }
                }
            }
        }
        assert!(deep > 500, "only {deep} samples took the deep-gap branch");
    }

    #[test]
    fn deep_gap_soft_max_equals_the_full_formula_across_gaps_30_to_50() {
        let mut deep = 0usize;
        for tau in [1e-3, 0.05, 1.0] {
            for step in 0..=4000 {
                let wanted = 30.0 + 20.0 * step as f64 / 4000.0;
                let a = 0.37 + 0.01 * (step % 7) as f64;
                let c = a - wanted * tau;
                let gap = (a - c).abs() / tau;
                if gap > DEEP_GAP {
                    deep += 1;
                    // The two f64 facts the shortcut rests on; a libm
                    // whose ln_1p is not correctly rounded here fails by
                    // name rather than as a kernel bit mismatch.
                    let e = (-gap).exp();
                    assert_eq!(e.ln_1p(), e, "ln_1p(e) == e fails at gap {gap}");
                    assert_eq!(1.0 / (1.0 + e), 1.0, "1/(1 + e) == 1 fails at gap {gap}");
                }
                for (x, z) in [(a, c), (c, a)] {
                    let (v, p, q) = soft_max2(x, z, tau);
                    let (fv, fp, fq) = full_soft_max2(x, z, tau);
                    assert_eq!(
                        (v.to_bits(), p.to_bits(), q.to_bits()),
                        (fv.to_bits(), fp.to_bits(), fq.to_bits()),
                        "τ={tau} gap {gap}"
                    );
                }
            }
        }
        assert!(deep > 5000, "{deep} deep-gap points");
    }

    /// Golden-section minimization of a unimodal function on `[lo, hi]`;
    /// returns the minimum value. The line search the closed-form
    /// certificate replaced.
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

    /// The certificate as first written: golden-section search of the 1-D
    /// dual over `[L‖w‖, γ_hi]`.
    fn reference_exact_robust_risk<L: MarginLoss>(
        obj: &WassersteinDualObjective<'_, L>,
        model: &LinearModel,
    ) -> f64 {
        let n = obj.xs.len() as f64;
        let losses: Vec<(f64, f64)> = obj
            .xs
            .iter()
            .zip(obj.ys)
            .map(|(x, &y)| {
                let (own, flipped, _, _) = obj.loss.eval_both_signs(model.margin(x, y));
                (own, flipped)
            })
            .collect();
        let gamma_lo = obj.loss.margin_lipschitz() * model.weight_norm();
        let (eps, kappa) = (obj.ball.radius(), obj.ball.label_cost());
        if kappa.is_infinite() {
            return gamma_lo * eps + losses.iter().map(|l| l.0).sum::<f64>() / n;
        }
        let g = |gamma: f64| {
            gamma * eps
                + losses
                    .iter()
                    .map(|&(own, flipped)| own.max(flipped - gamma * kappa))
                    .sum::<f64>()
                    / n
        };
        let max_gap = losses
            .iter()
            .map(|&(own, flipped)| flipped - own)
            .fold(0.0f64, f64::max);
        let gamma_hi = gamma_lo + (max_gap / kappa).max(0.0) + 1e-9;
        golden_section_min(g, gamma_lo, gamma_hi, 1e-10)
    }

    /// A random dataset of `n` rows in dimension `d`, with labels ±1.
    fn random_data(rng: &mut impl rand::Rng, n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let ys = (0..n)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < 0.5 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        (xs, ys)
    }

    #[test]
    fn fused_kernel_matches_the_per_sample_reference() {
        let mut rng = dre_prob::seeded_rng(16);
        let (mut saturated, mut unsaturated) = (0usize, 0usize);
        for kappa in [0.25, 1.0, f64::INFINITY] {
            for tau in [1e-3, 0.05] {
                for trial in 0..40 {
                    // Above REDUCE_CHUNK rows half the time, so the chunked
                    // merge is covered too.
                    let n = if trial % 2 == 0 { 9 } else { 300 };
                    let (xs, ys) = random_data(&mut rng, n, 3);
                    let ball = WassersteinBall::new(rng.gen_range(0.0..0.5), kappa).unwrap();
                    let obj = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball)
                        .unwrap()
                        .with_smoothing(Smoothing { tau, delta: 1e-9 });
                    let scale = [0.1, 1.0, 4.0][trial % 3];
                    let packed: Vec<f64> =
                        (0..5).map(|_| scale * rng.gen_range(-1.0..1.0)).collect();
                    if kappa.is_finite() {
                        let gamma = obj.unpack(&packed).1;
                        for (x, &y) in xs.iter().zip(&ys) {
                            let m = y * (dre_linalg::vector::dot(&packed[..3], x) + packed[3]);
                            let (a, flipped, _, _) = LogisticLoss.eval_both_signs(m);
                            if (a - (flipped - gamma * kappa)).abs() / tau > SATURATED_GAP {
                                saturated += 1;
                            } else {
                                unsaturated += 1;
                            }
                        }
                    }
                    let (v, g) = obj.value_and_gradient(&packed);
                    let (rv, rg) = reference_value_and_gradient(&obj, &packed);
                    assert!(
                        (v - rv).abs() <= 1e-12 * rv.abs(),
                        "κ={kappa} τ={tau}: value {v} vs reference {rv}"
                    );
                    for (gi, ri) in g.iter().zip(&rg) {
                        assert!(
                            (gi - ri).abs() <= 1e-10 * ri.abs().max(1.0),
                            "κ={kappa} τ={tau}: gradient {g:?} vs reference {rg:?}"
                        );
                    }
                }
            }
        }
        assert!(
            saturated > 1000 && unsaturated > 1000,
            "{saturated} / {unsaturated}"
        );
    }

    #[test]
    fn closed_form_certificate_matches_the_golden_section_search() {
        let mut rng = dre_prob::seeded_rng(17);
        let check = |obj: &WassersteinDualObjective<'_, LogisticLoss>, model: &LinearModel| {
            let closed = obj.exact_robust_risk(model);
            let searched = reference_exact_robust_risk(obj, model);
            assert!(
                closed <= searched + 1e-12,
                "closed {closed} > searched {searched}"
            );
            assert!(
                (closed - searched).abs() <= 1e-8,
                "closed {closed} vs {searched}"
            );
        };
        for trial in 0..200 {
            let n = 1 + trial % 40;
            let (xs, ys) = random_data(&mut rng, n, 3);
            let eps = if trial % 7 == 0 {
                0.0
            } else {
                rng.gen_range(0.0..1.0)
            };
            let kappa = [0.1, 0.5, 1.0, 3.0, f64::INFINITY][trial % 5];
            let ball = WassersteinBall::new(eps, kappa).unwrap();
            let obj = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
            let scale = [0.05, 1.0, 5.0][trial % 3];
            let w: Vec<f64> = (0..3).map(|_| scale * rng.gen_range(-1.0..1.0)).collect();
            check(&obj, &LinearModel::new(w, rng.gen_range(-1.0..1.0)));
        }
        // Every gap at or below γ_lo = ‖w‖: for the logistic loss
        // flip − own is the margin, at most ‖w‖·‖x‖ with no bias, so a
        // label cost above every ‖x‖ puts the minimizer on the floor.
        let (xs, ys) = toy();
        let kappa = 3.0;
        let ball = WassersteinBall::new(0.3, kappa).unwrap();
        let obj = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
        let model = LinearModel::new(vec![1.0, 0.5], 0.0);
        let gamma_lo = model.weight_norm();
        assert!(xs.iter().zip(&ys).all(|(x, &y)| {
            let (own, flipped, _, _) = LogisticLoss.eval_both_signs(model.margin(x, y));
            (flipped - own) / kappa <= gamma_lo
        }));
        check(&obj, &model);
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
            for packed in [vec![0.3, -0.5, 0.1, 0.2], vec![1.0, 1.0, -0.5, -1.0]] {
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
        let r = Lbfgs::new(StopCriteria::default())
            .minimize(&obj, &start)
            .unwrap();
        let (model, gamma) = obj.unpack(&r.x);
        let exact = obj.exact_robust_risk(&model);
        assert!(
            r.value >= exact - 1e-9,
            "smoothed {r} must be ≥ exact {exact}",
            r = r.value
        );
        assert!(
            r.value - exact < 0.01,
            "gap too large: {} vs {exact}",
            r.value
        );
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
