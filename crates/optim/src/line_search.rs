//! Line searches: Armijo backtracking and strong Wolfe.

use crate::Objective;

/// Result of a successful line search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineSearchResult {
    /// Accepted step length `t`.
    pub step: f64,
    /// Objective value at `x + t·p`.
    pub value: f64,
}

/// Armijo backtracking: starting from `t0`, halves the step until
/// `f(x + t·p) ≤ f(x) + c₁·t·gᵀp`.
///
/// Returns `None` when no acceptable step is found within 60 halvings
/// (which, from `t0 = 1`, reaches steps below 1e-18 — effectively a
/// non-descent direction or a non-finite objective).
pub fn backtracking<O: Objective + ?Sized>(
    obj: &O,
    x: &[f64],
    p: &[f64],
    fx: f64,
    grad_dot_p: f64,
    t0: f64,
    c1: f64,
) -> Option<LineSearchResult> {
    let mut trial = vec![0.0; x.len()];
    backtracking_in(x, p, fx, grad_dot_p, t0, c1, &mut trial, |x| obj.value(x))
}

/// [`backtracking`] with its trial points formed in the caller's `trial`
/// buffer (of `x`'s length) and valued by `value`, so a solver can evaluate
/// them through a buffer it already owns.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backtracking_in(
    x: &[f64],
    p: &[f64],
    fx: f64,
    grad_dot_p: f64,
    t0: f64,
    c1: f64,
    trial: &mut [f64],
    mut value: impl FnMut(&[f64]) -> f64,
) -> Option<LineSearchResult> {
    debug_assert!(c1 > 0.0 && c1 < 1.0);
    if grad_dot_p >= 0.0 {
        return None; // not a descent direction
    }
    let mut t = t0;
    let mut eval = |t: f64| {
        for ((ti, &xi), &pi) in trial.iter_mut().zip(x.iter()).zip(p) {
            *ti = xi + t * pi;
        }
        value(trial)
    };
    for _ in 0..60 {
        let f_trial = eval(t);
        if f_trial.is_finite() && f_trial <= fx + c1 * t * grad_dot_p {
            // Armijo alone can accept a near-"reflection" step (on a
            // quadratic, t ≈ 2/λ satisfies it with an O(c₁) decrease while
            // t/2 reaches the 1-D minimum). Keep halving while the value
            // strictly improves so the search returns a step near the 1-D
            // minimizer rather than the far edge of the Armijo region.
            let mut best = LineSearchResult {
                step: t,
                value: f_trial,
            };
            for _ in 0..20 {
                let half = best.step * 0.5;
                let f_half = eval(half);
                if f_half.is_finite() && f_half < best.value {
                    best = LineSearchResult {
                        step: half,
                        value: f_half,
                    };
                } else {
                    break;
                }
            }
            return Some(best);
        }
        t *= 0.5;
    }
    None
}

/// Result of a successful strong-Wolfe search: the accepted step together
/// with the point it reaches and the objective's value and gradient there.
///
/// The search has already evaluated the objective at the accepted point,
/// so callers take value and gradient from here instead of evaluating it
/// again.
#[derive(Debug, Clone, PartialEq)]
pub struct WolfeStep {
    /// Accepted step length `t`.
    pub step: f64,
    /// The accepted point `x + t·p`.
    pub x: Vec<f64>,
    /// Objective value at `x + t·p`.
    pub value: f64,
    /// Objective gradient at `x + t·p`.
    pub gradient: Vec<f64>,
}

/// Strong Wolfe line search (Nocedal & Wright, Algorithm 3.5/3.6).
///
/// Finds `t` with
/// `f(x + t·p) ≤ f(x) + c₁·t·gᵀp` (sufficient decrease) and
/// `|∇f(x + t·p)ᵀp| ≤ c₂·|gᵀp|` (curvature).
///
/// Every trial point is evaluated exactly once; the accepted one is
/// returned with its value and gradient.
///
/// Returns `None` for non-descent directions or when bracketing fails.
pub fn strong_wolfe<O: Objective + ?Sized>(
    obj: &O,
    x: &[f64],
    p: &[f64],
    fx: f64,
    grad_dot_p: f64,
    c1: f64,
    c2: f64,
) -> Option<WolfeStep> {
    let mut slots = WolfeSlots::new(x.len());
    let k = strong_wolfe_in(obj, x, p, fx, grad_dot_p, c1, c2, &mut slots)?;
    let accepted = std::mem::take(&mut slots.0[k]);
    Some(WolfeStep {
        step: accepted.step,
        x: accepted.x,
        value: accepted.value,
        gradient: accepted.gradient,
    })
}

/// One evaluated trial point `x + t·p` of the Wolfe search, with its
/// directional derivative `∇f(x + t·p)ᵀp`.
#[derive(Debug, Default)]
pub(crate) struct Trial {
    pub(crate) step: f64,
    pub(crate) x: Vec<f64>,
    pub(crate) value: f64,
    pub(crate) gradient: Vec<f64>,
    slope: f64,
}

/// The two trial points the Wolfe search holds at once — the bracket's low
/// end and the point being tried — as buffers that a solver allocates once
/// and reuses for every search.
#[derive(Debug)]
pub(crate) struct WolfeSlots(pub(crate) [Trial; 2]);

impl WolfeSlots {
    /// Two slots for points of dimension `dim`.
    pub(crate) fn new(dim: usize) -> Self {
        let slot = || Trial {
            x: vec![0.0; dim],
            gradient: vec![0.0; dim],
            ..Trial::default()
        };
        WolfeSlots([slot(), slot()])
    }
}

/// The slot not holding `held` (slot 0 when nothing is held).
fn other(held: Option<usize>) -> usize {
    held.map_or(0, |k| 1 - k)
}

/// The strong-Wolfe search of [`strong_wolfe`], evaluating its trial
/// points into `slots`; returns the index of the slot holding the
/// accepted point.
#[allow(clippy::too_many_arguments)]
pub(crate) fn strong_wolfe_in<O: Objective + ?Sized>(
    obj: &O,
    x: &[f64],
    p: &[f64],
    fx: f64,
    grad_dot_p: f64,
    c1: f64,
    c2: f64,
    slots: &mut WolfeSlots,
) -> Option<usize> {
    debug_assert!(0.0 < c1 && c1 < c2 && c2 < 1.0);
    if grad_dot_p >= 0.0 {
        return None;
    }
    let search = Search {
        obj,
        x,
        p,
        fx,
        grad_dot_p,
        c1,
        c2,
    };
    let slots = &mut slots.0;
    // The slot of the previous trial; `None` stands for `t = 0`, i.e. `x`
    // itself.
    let mut prev: Option<usize> = None;
    let mut t = 1.0;
    const T_MAX: f64 = 1e6;
    for i in 0..30 {
        let c = other(prev);
        search.trial(t, &mut slots[c]);
        let cur = &slots[c];
        let f_prev = prev.map_or(fx, |k| slots[k].value);
        if !cur.value.is_finite() {
            // Step overshot into a bad region; treat as "too far".
            return search.zoom(slots, prev, t);
        }
        if cur.value > fx + c1 * t * grad_dot_p || (i > 0 && cur.value >= f_prev) {
            return search.zoom(slots, prev, t);
        }
        if cur.slope.abs() <= -c2 * grad_dot_p {
            return Some(c);
        }
        if cur.slope >= 0.0 {
            let t_prev = prev.map_or(0.0, |k| slots[k].step);
            return search.zoom(slots, Some(c), t_prev);
        }
        prev = Some(c);
        t = (2.0 * t).min(T_MAX);
    }
    None
}

/// The fixed inputs of one Wolfe search.
struct Search<'a, O: ?Sized> {
    obj: &'a O,
    x: &'a [f64],
    p: &'a [f64],
    fx: f64,
    grad_dot_p: f64,
    c1: f64,
    c2: f64,
}

impl<O: Objective + ?Sized> Search<'_, O> {
    /// Evaluates the trial point `x + t·p` into `slot`.
    fn trial(&self, t: f64, slot: &mut Trial) {
        for ((si, &xi), &pi) in slot.x.iter_mut().zip(self.x).zip(self.p) {
            *si = xi + t * pi;
        }
        slot.step = t;
        slot.value = self
            .obj
            .value_and_gradient_into(&slot.x, &mut slot.gradient);
        slot.slope = dre_linalg::vector::dot(&slot.gradient, self.p);
    }

    /// The `zoom` phase of the Wolfe search: bisect between the `lo` slot
    /// (`None` for `t = 0`) and `t_hi`.
    fn zoom(&self, slots: &mut [Trial; 2], mut lo: Option<usize>, mut t_hi: f64) -> Option<usize> {
        let lo_of = |slots: &[Trial; 2], lo: Option<usize>| {
            lo.map_or((0.0, self.fx), |k| (slots[k].step, slots[k].value))
        };
        for _ in 0..50 {
            let (t_lo, f_lo) = lo_of(slots, lo);
            let t = 0.5 * (t_lo + t_hi);
            let c = other(lo);
            self.trial(t, &mut slots[c]);
            let cur = &slots[c];
            let f_t = cur.value;
            if !f_t.is_finite() || f_t > self.fx + self.c1 * t * self.grad_dot_p || f_t >= f_lo {
                t_hi = t;
            } else {
                if cur.slope.abs() <= -self.c2 * self.grad_dot_p {
                    return Some(c);
                }
                if cur.slope * (t_hi - t_lo) >= 0.0 {
                    t_hi = t_lo;
                }
                lo = Some(c);
            }
            if (t_hi - lo_of(slots, lo).0).abs() < 1e-16 {
                break;
            }
        }
        // Accept the best sufficient-decrease point found, if any.
        let k = lo?;
        let (t_lo, f_lo) = lo_of(slots, lo);
        if t_lo > 0.0 && f_lo <= self.fx + self.c1 * t_lo * self.grad_dot_p {
            return Some(k);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnObjective;

    fn parabola() -> FnObjective<impl Fn(&[f64]) -> (f64, Vec<f64>)> {
        FnObjective::new(1, |x: &[f64]| {
            ((x[0] - 2.0).powi(2), vec![2.0 * (x[0] - 2.0)])
        })
    }

    #[test]
    fn backtracking_accepts_descent_step() {
        let obj = parabola();
        let x = [0.0];
        let fx = obj.value(&x);
        let p = [1.0]; // descent (gradient is −4)
        let r = backtracking(&obj, &x, &p, fx, -4.0, 1.0, 1e-4).unwrap();
        assert!(r.value < fx);
        assert!(r.step > 0.0);
    }

    #[test]
    fn backtracking_rejects_ascent_direction() {
        let obj = parabola();
        let x = [0.0];
        let fx = obj.value(&x);
        assert!(backtracking(&obj, &x, &[-1.0], fx, 4.0, 1.0, 1e-4).is_none());
    }

    #[test]
    fn backtracking_shrinks_oversized_steps() {
        let obj = parabola();
        let x = [0.0];
        let fx = obj.value(&x);
        // Huge initial step must be halved until acceptable.
        let r = backtracking(&obj, &x, &[1.0], fx, -4.0, 1e6, 1e-4).unwrap();
        assert!(r.value < fx);
        assert!(r.step < 1e6);
    }

    #[test]
    fn wolfe_satisfies_both_conditions() {
        let obj = parabola();
        let x = [0.0];
        let (fx, g) = obj.value_and_gradient(&x);
        let p = [1.0];
        let gdp = g[0] * p[0];
        let (c1, c2) = (1e-4, 0.9);
        let r = strong_wolfe(&obj, &x, &p, fx, gdp, c1, c2).unwrap();
        // Check the two Wolfe conditions explicitly.
        let xt = [x[0] + r.step * p[0]];
        let (ft, gt) = obj.value_and_gradient(&xt);
        assert!(ft <= fx + c1 * r.step * gdp + 1e-12);
        assert!((gt[0] * p[0]).abs() <= -c2 * gdp + 1e-12);
        // The returned point, value and gradient are the accepted point's.
        assert_eq!(r.x, xt);
        assert_eq!(r.value, ft);
        assert_eq!(r.gradient, gt);
    }

    #[test]
    fn wolfe_rejects_ascent_direction() {
        let obj = parabola();
        let x = [0.0];
        let fx = obj.value(&x);
        assert!(strong_wolfe(&obj, &x, &[-1.0], fx, 4.0, 1e-4, 0.9).is_none());
    }

    #[test]
    fn wolfe_handles_nonquadratic() {
        // f(x) = x⁴ − 2x² (double well), start at x = 0.5 heading downhill.
        let obj = FnObjective::new(1, |x: &[f64]| {
            (
                x[0].powi(4) - 2.0 * x[0] * x[0],
                vec![4.0 * x[0].powi(3) - 4.0 * x[0]],
            )
        });
        let x = [0.5];
        let (fx, g) = obj.value_and_gradient(&x);
        let p = [1.0];
        let r = strong_wolfe(&obj, &x, &p, fx, g[0], 1e-4, 0.4).unwrap();
        assert!(r.value < fx);
    }

    /// `(step, x, value, gradient)` as bit patterns.
    fn step_bits(r: &WolfeStep) -> (u64, Vec<u64>, u64, Vec<u64>) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (
            r.step.to_bits(),
            bits(&r.x),
            r.value.to_bits(),
            bits(&r.gradient),
        )
    }

    #[test]
    fn wolfe_steps_are_bit_identical_to_the_goldens() {
        // Pinned from the search as it was before it evaluated into
        // reusable trial slots: a unit step, an overshoot that zooms back
        // to a quarter, the double well, and Rosenbrock's steepest descent
        // from (−1.2, 1), which bisects down to 2⁻¹⁰.
        let obj = parabola();
        let (fx, g) = obj.value_and_gradient(&[0.0]);
        let r = strong_wolfe(&obj, &[0.0], &[1.0], fx, g[0], 1e-4, 0.9).unwrap();
        assert_eq!(
            step_bits(&r),
            (
                0x3FF0000000000000,
                vec![0x3FF0000000000000],
                0x3FF0000000000000,
                vec![0xC000000000000000]
            )
        );
        let r = strong_wolfe(&obj, &[0.0], &[10.0], fx, 10.0 * g[0], 1e-4, 0.9).unwrap();
        assert_eq!(
            step_bits(&r),
            (
                0x3FD0000000000000,
                vec![0x4004000000000000],
                0x3FD0000000000000,
                vec![0x3FF0000000000000]
            )
        );

        let well = FnObjective::new(1, |x: &[f64]| {
            (
                x[0].powi(4) - 2.0 * x[0] * x[0],
                vec![4.0 * x[0].powi(3) - 4.0 * x[0]],
            )
        });
        let (fx, g) = well.value_and_gradient(&[0.5]);
        let r = strong_wolfe(&well, &[0.5], &[1.0], fx, g[0], 1e-4, 0.4).unwrap();
        assert_eq!(
            step_bits(&r),
            (
                0x3FE0000000000000,
                vec![0x3FF0000000000000],
                0xBFF0000000000000,
                vec![0]
            )
        );

        let rosenbrock = FnObjective::new(2, |x: &[f64]| {
            let (a, b) = (1.0 - x[0], x[1] - x[0] * x[0]);
            (
                a * a + 100.0 * b * b,
                vec![-2.0 * a - 400.0 * x[0] * b, 200.0 * b],
            )
        });
        let (fx, g) = rosenbrock.value_and_gradient(&[-1.2, 1.0]);
        let p = [-g[0], -g[1]];
        let gdp = -(g[0] * g[0] + g[1] * g[1]);
        let r = strong_wolfe(&rosenbrock, &[-1.2, 1.0], &p, fx, gdp, 1e-4, 0.9).unwrap();
        assert_eq!(
            step_bits(&r),
            (
                0x3F50000000000000,
                vec![0xBFEFA99999999999, 0x3FF1600000000000],
                0x4014678A13FF6669,
                vec![0x40432B4493CCCCD3, 0x4035624E00000007]
            )
        );
    }
}
