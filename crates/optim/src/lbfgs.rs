//! Limited-memory BFGS with a strong-Wolfe line search.

use std::collections::VecDeque;

use crate::line_search::{backtracking_in, strong_wolfe_in, WolfeSlots};
use crate::{Objective, OptimError, OptimReport, Result, StopCriteria};

/// L-BFGS (Nocedal & Wright, Algorithm 7.4/7.5) with the two-loop recursion
/// and a strong-Wolfe line search.
///
/// The default solver for the paper's smooth convex M-step: superlinear
/// near the optimum at `O(m·d)` memory.
///
/// # Example
///
/// ```
/// use dre_optim::{Lbfgs, FnObjective, StopCriteria};
///
/// // Rosenbrock: hard for plain GD, easy for L-BFGS.
/// let obj = FnObjective::new(2, |x: &[f64]| {
///     let (a, b) = (1.0 - x[0], x[1] - x[0] * x[0]);
///     (a * a + 100.0 * b * b,
///      vec![-2.0 * a - 400.0 * x[0] * b, 200.0 * b])
/// });
/// let r = Lbfgs::new(StopCriteria::default()).minimize(&obj, &[-1.2, 1.0]).unwrap();
/// assert!((r.x[0] - 1.0).abs() < 1e-5 && (r.x[1] - 1.0).abs() < 1e-5);
/// ```
#[derive(Debug, Clone)]
pub struct Lbfgs {
    stop: StopCriteria,
    memory: usize,
}

impl Lbfgs {
    /// Creates an L-BFGS solver with a history of 10 curvature pairs.
    pub fn new(stop: StopCriteria) -> Self {
        Lbfgs { stop, memory: 10 }
    }

    /// Overrides the number of stored curvature pairs.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::InvalidParameter`] when `memory == 0`.
    pub fn with_memory(mut self, memory: usize) -> Result<Self> {
        if memory == 0 {
            return Err(OptimError::InvalidParameter {
                param: "memory",
                value: 0.0,
            });
        }
        self.memory = memory;
        Ok(self)
    }

    /// Minimizes `obj` from `x0`, starting from an empty curvature history.
    ///
    /// # Errors
    ///
    /// * [`OptimError::DimensionMismatch`] when `x0.len() != obj.dim()`.
    /// * [`OptimError::NonFiniteObjective`] when the objective degenerates.
    /// * [`OptimError::LineSearchFailed`] when neither the Wolfe search nor
    ///   a backtracking fallback finds a descent step.
    pub fn minimize<O: Objective + ?Sized>(&self, obj: &O, x0: &[f64]) -> Result<OptimReport> {
        self.minimize_warm(obj, x0, &mut LbfgsHistory::default())
    }

    /// Minimizes `obj` from `x0`, seeding the inverse-Hessian estimate with
    /// the curvature pairs in `history` and leaving the run's newest pairs
    /// there for the next call.
    ///
    /// Worth it for a sequence of objectives whose curvature barely moves
    /// between calls, such as the M-steps of an EM chain whose E-step only
    /// reweights a quadratic term. With an empty history this is exactly
    /// [`Lbfgs::minimize`].
    ///
    /// # Errors
    ///
    /// As [`Lbfgs::minimize`]; additionally
    /// [`OptimError::DimensionMismatch`] when `history` holds pairs of
    /// another dimension.
    pub fn minimize_warm<O: Objective + ?Sized>(
        &self,
        obj: &O,
        x0: &[f64],
        history: &mut LbfgsHistory,
    ) -> Result<OptimReport> {
        if x0.len() != obj.dim() {
            return Err(OptimError::DimensionMismatch {
                expected: obj.dim(),
                got: x0.len(),
            });
        }
        if let Some((s, _, _)) = history.pairs.front() {
            if s.len() != obj.dim() {
                return Err(OptimError::DimensionMismatch {
                    expected: obj.dim(),
                    got: s.len(),
                });
            }
        }
        let pairs = &mut history.pairs;
        while pairs.len() > self.memory {
            pairs.pop_front();
        }
        // Every buffer of the run is allocated here, once: the iterate and
        // its gradient, the two-loop recursion's `q` and `p`, the Wolfe
        // search's two trial slots, and the curvature pairs' vectors, which
        // move between the history and `spare` instead of being dropped.
        let dim = x0.len();
        let mut x = x0.to_vec();
        let mut g = vec![0.0; dim];
        let mut fx = obj.value_and_gradient_into(&x, &mut g);
        if !fx.is_finite() || !dre_linalg::vector::all_finite(&g) {
            return Err(OptimError::NonFiniteObjective { iteration: 0 });
        }
        let mut q = vec![0.0; dim];
        let mut p = vec![0.0; dim];
        let mut alphas = Vec::with_capacity(self.memory);
        let mut slots = WolfeSlots::new(dim);
        // A pair leaves the history only to come back here, and at most one
        // buffer per iteration is out of both, so `memory + 1` never grows.
        let mut spare: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(self.memory + 1);
        let mut trace = Vec::with_capacity(self.stop.max_iters.min(TRACE_RESERVE) + 1);
        trace.push(fx);
        let mut converged = false;
        let mut iterations = 0;

        for iter in 0..self.stop.max_iters {
            iterations = iter + 1;
            if dre_linalg::vector::norm_inf(&g) <= self.stop.grad_tol {
                converged = true;
                iterations = iter;
                break;
            }

            // Two-loop recursion for p = −H·g.
            q.copy_from_slice(&g);
            alphas.clear();
            for (s, y, rho) in pairs.iter().rev() {
                let a = rho * dre_linalg::vector::dot(s, &q);
                dre_linalg::vector::axpy(-a, y, &mut q);
                alphas.push(a);
            }
            // Initial Hessian scaling γ = sᵀy / yᵀy from the newest pair.
            if let Some((s, y, _)) = pairs.back() {
                let gamma =
                    dre_linalg::vector::dot(s, y) / dre_linalg::vector::dot(y, y).max(1e-300);
                dre_linalg::vector::scale(&mut q, gamma.max(1e-12));
            }
            for ((s, y, rho), &a) in pairs.iter().zip(alphas.iter().rev()) {
                let b = rho * dre_linalg::vector::dot(y, &q);
                dre_linalg::vector::axpy(a - b, s, &mut q);
            }
            for (pi, qi) in p.iter_mut().zip(&q) {
                *pi = -qi;
            }
            let mut gdp = dre_linalg::vector::dot(&g, &p);
            // If curvature information produced a non-descent direction
            // (possible on non-convex or non-smooth objectives), reset to
            // steepest descent.
            if gdp >= 0.0 {
                spare.extend(pairs.drain(..).map(|(s, y, _)| (s, y)));
                gdp = -dre_linalg::vector::dot(&g, &g);
                for (pi, gi) in p.iter_mut().zip(&g) {
                    *pi = -gi;
                }
            }

            // The Wolfe search leaves the accepted point, value and
            // gradient in one of its slots; only the value-only
            // backtracking fallback needs a fresh evaluation.
            let accepted = match strong_wolfe_in(obj, &x, &p, fx, gdp, 1e-4, 0.9, &mut slots) {
                Some(k) => &mut slots.0[k],
                None => {
                    let [trial, point] = &mut slots.0;
                    let ls = backtracking_in(obj, &x, &p, fx, gdp, 1.0, 1e-4, &mut trial.x)
                        .ok_or(OptimError::LineSearchFailed { iteration: iter })?;
                    point.x.copy_from_slice(&x);
                    dre_linalg::vector::axpy(ls.step, &p, &mut point.x);
                    point.value = obj.value_and_gradient_into(&point.x, &mut point.gradient);
                    point
                }
            };
            let f_new = accepted.value;
            if !f_new.is_finite() || !dre_linalg::vector::all_finite(&accepted.gradient) {
                return Err(OptimError::NonFiniteObjective { iteration: iter });
            }

            let (mut s, mut y) = spare
                .pop()
                .unwrap_or_else(|| (vec![0.0; dim], vec![0.0; dim]));
            for (si, (xn, xo)) in s.iter_mut().zip(accepted.x.iter().zip(&x)) {
                *si = xn - xo;
            }
            for (yi, (gn, go)) in y.iter_mut().zip(accepted.gradient.iter().zip(&g)) {
                *yi = gn - go;
            }
            let sy = dre_linalg::vector::dot(&s, &y);
            if sy > 1e-12 {
                if pairs.len() == self.memory {
                    let (old_s, old_y, _) = pairs.pop_front().expect("memory ≥ 1");
                    spare.push((old_s, old_y));
                }
                pairs.push_back((s, y, 1.0 / sy));
            } else {
                spare.push((s, y));
            }

            let prev = fx;
            std::mem::swap(&mut x, &mut accepted.x);
            std::mem::swap(&mut g, &mut accepted.gradient);
            fx = f_new;
            trace.push(fx);
            if (prev - fx).abs() <= self.stop.f_tol {
                converged = true;
                break;
            }
        }

        Ok(OptimReport {
            grad_norm: dre_linalg::vector::norm_inf(&g),
            value: fx,
            x,
            iterations,
            converged,
            trace,
        })
    }
}

/// Iterations the objective trace reserves up front; a longer run grows it.
const TRACE_RESERVE: usize = 1024;

/// The curvature pairs `(s, y, 1/sᵀy)` an L-BFGS run accumulates, newest
/// at the back; carried between [`Lbfgs::minimize_warm`] calls.
#[derive(Debug, Clone, Default)]
pub struct LbfgsHistory {
    pairs: VecDeque<(Vec<f64>, Vec<f64>, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{numerical_gradient, FnObjective, QuadraticObjective};
    use dre_linalg::Matrix;

    #[test]
    fn solves_quadratic_exactly() {
        let a = Matrix::from_rows(&[&[5.0, 1.0, 0.0], &[1.0, 4.0, 0.5], &[0.0, 0.5, 3.0]]).unwrap();
        let q = QuadraticObjective::new(a, vec![1.0, -2.0, 0.5], 2.0);
        let r = Lbfgs::new(StopCriteria::default())
            .minimize(&q, &[10.0, 10.0, 10.0])
            .unwrap();
        let truth = dre_linalg::Cholesky::new(q.a())
            .unwrap()
            .solve(q.b())
            .unwrap();
        assert!(r.converged);
        assert!(dre_linalg::vector::max_abs_diff(&r.x, &truth) < 1e-6);
    }

    #[test]
    fn solves_rosenbrock() {
        let obj = FnObjective::new(2, |x: &[f64]| {
            let (a, b) = (1.0 - x[0], x[1] - x[0] * x[0]);
            (
                a * a + 100.0 * b * b,
                vec![-2.0 * a - 400.0 * x[0] * b, 200.0 * b],
            )
        });
        let r = Lbfgs::new(StopCriteria::with_max_iters(300))
            .minimize(&obj, &[-1.2, 1.0])
            .unwrap();
        assert!((r.x[0] - 1.0).abs() < 1e-5);
        assert!((r.x[1] - 1.0).abs() < 1e-5);
        assert!(r.value < 1e-10);
    }

    #[test]
    fn converges_faster_than_gd_on_ill_conditioned_problem() {
        let a = Matrix::from_diag(&[1.0, 1000.0]);
        let q = QuadraticObjective::new(a, vec![1.0, 1.0], 0.0);
        let lbfgs = Lbfgs::new(StopCriteria::default())
            .minimize(&q, &[100.0, 100.0])
            .unwrap();
        let gd = crate::GradientDescent::new(StopCriteria::default())
            .minimize(&q, &[100.0, 100.0])
            .unwrap();
        assert!(lbfgs.converged);
        assert!(
            lbfgs.iterations < gd.iterations,
            "lbfgs {} vs gd {}",
            lbfgs.iterations,
            gd.iterations
        );
    }

    #[test]
    fn handles_smoothed_nonsmooth_objective() {
        // Huber-like |x| smoothing: still solvable.
        let obj = FnObjective::new(1, |x: &[f64]| {
            let v = (x[0] * x[0] + 1e-6).sqrt();
            (v, vec![x[0] / v])
        });
        let r = Lbfgs::new(StopCriteria::with_max_iters(200))
            .minimize(&obj, &[5.0])
            .unwrap();
        assert!(r.x[0].abs() < 1e-3);
    }

    #[test]
    fn validates_inputs() {
        assert!(Lbfgs::new(StopCriteria::default()).with_memory(0).is_err());
        let q = QuadraticObjective::new(Matrix::identity(2), vec![0.0, 0.0], 0.0);
        assert!(matches!(
            Lbfgs::new(StopCriteria::default()).minimize(&q, &[0.0]),
            Err(OptimError::DimensionMismatch { .. })
        ));
        let bad = FnObjective::new(1, |_: &[f64]| (f64::NAN, vec![0.0]));
        assert!(matches!(
            Lbfgs::new(StopCriteria::default()).minimize(&bad, &[1.0]),
            Err(OptimError::NonFiniteObjective { .. })
        ));
    }

    #[test]
    fn gradient_check_utility_consistency() {
        // Make sure the test helper itself agrees with analytic gradients on
        // a nontrivial function.
        let obj = FnObjective::new(2, |x: &[f64]| {
            (
                (x[0] * x[1]).sin() + x[0] * x[0],
                vec![
                    x[1] * (x[0] * x[1]).cos() + 2.0 * x[0],
                    x[0] * (x[0] * x[1]).cos(),
                ],
            )
        });
        let x = [0.7, -0.3];
        let num = numerical_gradient(&obj, &x, 1e-6);
        assert!(dre_linalg::vector::max_abs_diff(&num, &obj.gradient(&x)) < 1e-6);
    }

    #[test]
    fn solvers_agree_on_random_spd_quadratics() {
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        runner
            .run(
                &(2usize..5, proptest::collection::vec(-3.0..3.0f64, 30)),
                |(n, seed)| {
                    let data: Vec<f64> = seed.iter().cycle().take(n * n).cloned().collect();
                    let b = Matrix::from_vec(n, n, data).unwrap();
                    let mut a = b.matmul(&b.transpose()).unwrap();
                    // Keep the condition number moderate so plain GD's
                    // linear rate reaches the tolerance within the budget.
                    a.add_diag(5.0);
                    let rhs: Vec<f64> = seed.iter().take(n).cloned().collect();
                    let q = QuadraticObjective::new(a.clone(), rhs.clone(), 0.0);
                    let start = vec![3.0; n];
                    let stop = StopCriteria {
                        max_iters: 2000,
                        grad_tol: 1e-9,
                        f_tol: 0.0,
                    };
                    let lb = Lbfgs::new(stop).minimize(&q, &start).unwrap();
                    let gd = crate::GradientDescent::new(stop)
                        .minimize(&q, &start)
                        .unwrap();
                    let truth = dre_linalg::Cholesky::new(&a).unwrap().solve(&rhs).unwrap();
                    prop_assert!(dre_linalg::vector::max_abs_diff(&lb.x, &truth) < 1e-5);
                    // GD can stall in x near machine-precision plateaus of
                    // f; agreement is asserted on objective values, which
                    // converge quadratically in the x-error.
                    prop_assert!((gd.value - lb.value).abs() < 1e-6 * (1.0 + lb.value.abs()));
                    Ok(())
                },
            )
            .unwrap();
    }

    /// Wraps an objective and records the bit pattern of every point it is
    /// evaluated at, through any of the three entry points.
    struct Counting<O> {
        inner: O,
        points: std::sync::Mutex<Vec<Vec<u64>>>,
    }

    impl<O: Objective> Counting<O> {
        fn new(inner: O) -> Self {
            Counting {
                inner,
                points: std::sync::Mutex::new(Vec::new()),
            }
        }

        fn record(&self, x: &[f64]) {
            let bits = x.iter().map(|v| v.to_bits()).collect();
            self.points.lock().unwrap().push(bits);
        }

        /// `(evaluations, distinct points)`.
        fn counts(&self) -> (usize, usize) {
            let points = self.points.lock().unwrap();
            let distinct: std::collections::BTreeSet<&Vec<u64>> = points.iter().collect();
            (points.len(), distinct.len())
        }
    }

    impl<O: Objective> Objective for Counting<O> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn value(&self, x: &[f64]) -> f64 {
            self.record(x);
            self.inner.value(x)
        }

        fn gradient(&self, x: &[f64]) -> Vec<f64> {
            self.record(x);
            self.inner.gradient(x)
        }

        fn value_and_gradient(&self, x: &[f64]) -> (f64, Vec<f64>) {
            self.record(x);
            self.inner.value_and_gradient(x)
        }
    }

    #[test]
    fn every_distinct_trial_point_is_evaluated_exactly_once() {
        let rosenbrock = Counting::new(FnObjective::new(2, |x: &[f64]| {
            let (a, b) = (1.0 - x[0], x[1] - x[0] * x[0]);
            (
                a * a + 100.0 * b * b,
                vec![-2.0 * a - 400.0 * x[0] * b, 200.0 * b],
            )
        }));
        let r = Lbfgs::new(StopCriteria::with_max_iters(300))
            .minimize(&rosenbrock, &[-1.2, 1.0])
            .unwrap();
        let (evals, distinct) = rosenbrock.counts();
        assert_eq!(evals, distinct, "a trial point was evaluated twice");
        // At least the start plus one accepted point per iteration.
        assert!(
            evals > r.iterations,
            "{evals} evaluations, {} iterations",
            r.iterations
        );

        let a = Matrix::from_rows(&[&[5.0, 1.0, 0.0], &[1.0, 4.0, 0.5], &[0.0, 0.5, 3.0]]).unwrap();
        let quadratic = Counting::new(QuadraticObjective::new(a, vec![1.0, -2.0, 0.5], 2.0));
        Lbfgs::new(StopCriteria::default())
            .minimize(&quadratic, &[10.0, 10.0, 10.0])
            .unwrap();
        let (evals, distinct) = quadratic.counts();
        assert_eq!(evals, distinct, "a trial point was evaluated twice");
    }

    /// `(x, value, grad_norm, trace)` bit patterns plus iterations and
    /// convergence, for pinning a report exactly.
    fn report_bits(r: &OptimReport) -> (Vec<u64>, u64, u64, Vec<u64>, usize, bool) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        (
            bits(&r.x),
            r.value.to_bits(),
            r.grad_norm.to_bits(),
            bits(&r.trace),
            r.iterations,
            r.converged,
        )
    }

    #[test]
    fn quadratic_report_is_bit_identical_to_the_golden() {
        let a = Matrix::from_rows(&[&[5.0, 1.0, 0.0], &[1.0, 4.0, 0.5], &[0.0, 0.5, 3.0]]).unwrap();
        let q = QuadraticObjective::new(a, vec![1.0, -2.0, 0.5], 2.0);
        let r = Lbfgs::new(StopCriteria::default())
            .minimize(&q, &[10.0, 10.0, 10.0])
            .unwrap();
        assert_eq!(report_bits(&r), owned(QUADRATIC_GOLDEN));
    }

    #[test]
    fn rosenbrock_report_is_bit_identical_to_the_golden() {
        let obj = FnObjective::new(2, |x: &[f64]| {
            let (a, b) = (1.0 - x[0], x[1] - x[0] * x[0]);
            (
                a * a + 100.0 * b * b,
                vec![-2.0 * a - 400.0 * x[0] * b, 200.0 * b],
            )
        });
        let r = Lbfgs::new(StopCriteria::with_max_iters(300))
            .minimize(&obj, &[-1.2, 1.0])
            .unwrap();
        assert_eq!(report_bits(&r), owned(ROSENBROCK_GOLDEN));
    }

    #[test]
    fn warm_start_from_an_empty_history_is_bit_identical_to_the_goldens() {
        let a = Matrix::from_rows(&[&[5.0, 1.0, 0.0], &[1.0, 4.0, 0.5], &[0.0, 0.5, 3.0]]).unwrap();
        let q = QuadraticObjective::new(a, vec![1.0, -2.0, 0.5], 2.0);
        let mut history = LbfgsHistory::default();
        let r = Lbfgs::new(StopCriteria::default())
            .minimize_warm(&q, &[10.0, 10.0, 10.0], &mut history)
            .unwrap();
        assert_eq!(report_bits(&r), owned(QUADRATIC_GOLDEN));

        let obj = FnObjective::new(2, |x: &[f64]| {
            let (a, b) = (1.0 - x[0], x[1] - x[0] * x[0]);
            (
                a * a + 100.0 * b * b,
                vec![-2.0 * a - 400.0 * x[0] * b, 200.0 * b],
            )
        });
        let mut history = LbfgsHistory::default();
        let r = Lbfgs::new(StopCriteria::with_max_iters(300))
            .minimize_warm(&obj, &[-1.2, 1.0], &mut history)
            .unwrap();
        assert_eq!(report_bits(&r), owned(ROSENBROCK_GOLDEN));
    }

    #[test]
    fn warm_history_saves_evaluations_on_a_shifted_objective() {
        // Same ill-conditioned Hessian, new linear term, as between two EM
        // rounds: the pairs a few iterations of the first solve collect
        // describe the second one's curvature.
        let a = Matrix::from_diag(&[1.0, 3.0, 10.0, 30.0, 100.0, 300.0]);
        let first = QuadraticObjective::new(a.clone(), vec![1.0; 6], 0.0);
        let second = QuadraticObjective::new(a, vec![-2.0, 0.5, 3.0, -1.0, 2.0, -4.0], 0.0);
        let mut history = LbfgsHistory::default();
        let r1 = Lbfgs::new(StopCriteria::with_max_iters(8))
            .minimize_warm(&first, &[0.0; 6], &mut history)
            .unwrap();

        let solver = Lbfgs::new(StopCriteria::default());
        let cold = Counting::new(second.clone());
        let warm = Counting::new(second);
        let rc = solver.minimize(&cold, &r1.x).unwrap();
        let rw = solver.minimize_warm(&warm, &r1.x, &mut history).unwrap();
        assert!(rc.converged && rw.converged);
        assert!((rc.value - rw.value).abs() < 1e-9);
        assert!(
            warm.counts().0 < cold.counts().0,
            "warm {:?} vs cold {:?} evaluations",
            warm.counts(),
            cold.counts()
        );
    }

    #[test]
    fn warm_history_of_another_dimension_is_rejected() {
        let solver = Lbfgs::new(StopCriteria::default());
        let mut history = LbfgsHistory::default();
        let q2 = QuadraticObjective::new(Matrix::from_diag(&[1.0, 2.0]), vec![1.0, 1.0], 0.0);
        solver
            .minimize_warm(&q2, &[3.0, 3.0], &mut history)
            .unwrap();
        let q3 = QuadraticObjective::new(Matrix::identity(3), vec![1.0; 3], 0.0);
        assert!(matches!(
            solver.minimize_warm(&q3, &[0.0; 3], &mut history),
            Err(OptimError::DimensionMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    type Golden = (&'static [u64], u64, u64, &'static [u64], usize, bool);

    fn owned(g: Golden) -> (Vec<u64>, u64, u64, Vec<u64>, usize, bool) {
        (g.0.to_vec(), g.1, g.2, g.3.to_vec(), g.4, g.5)
    }

    const QUADRATIC_GOLDEN: Golden = (
        &[0x3FD4A9E6BEC6C36A, 0xBFE3A8C0D9F71373, 0x3FD138403D8132F0],
        0x3FF282DEB5619417,
        0x3E60B9BD51800000,
        &[
            0x4087A80000000000,
            0x405B8C8000000000,
            0x40114DF86C4935C7,
            0x3FFB0E3B73B505A8,
            0x3FF28CEFDCDEF028,
            0x3FF282F0D81882B2,
            0x3FF282DEB8DDCB4A,
            0x3FF282DEB56196E6,
            0x3FF282DEB5619417,
        ],
        8,
        true,
    );

    const ROSENBROCK_GOLDEN: Golden = (
        &[0x3FF00000000179EB, 0x3FF000000002EE5A],
        0x3B81CD2E9FC80000,
        0x3DE70B2C000194D0,
        &[
            0x4038333333333332,
            0x4014678A13FF6669,
            0x40109D7AB6A67BC4,
            0x4010780737F3F678,
            0x400B1E7035284C81,
            0x400A2E2D53E83C0E,
            0x4007C8D8D898DBD9,
            0x400353B010198D76,
            0x400234D5EEEDFC94,
            0x3FFCE850CE6AFD68,
            0x3FFA2A5AFA784C94,
            0x3FF38B53EEB9FB3E,
            0x3FF0B99EE4742177,
            0x3FE80660952F19A7,
            0x3FE718C9B736CB72,
            0x3FE4C92D9C1B6641,
            0x3FDD544851FD65E8,
            0x3FD570C84F3DA458,
            0x3FD31859C2DBA637,
            0x3FCAB83829FF7491,
            0x3FC12B84EA19005F,
            0x3FB64E9BA7FBB650,
            0x3FB19D8F7770E642,
            0x3FA47629D3CCA218,
            0x3F9BB476108BAAE6,
            0x3F87E20C267490CA,
            0x3F74CE43262BC04B,
            0x3F5A6A68E326FC35,
            0x3F4D203F88065F1A,
            0x3F2E2E779F5CA8A8,
            0x3F06879A4FA0CD15,
            0x3EAFD312A13C9B80,
            0x3E3890125DBB2DA2,
            0x3D8F3E36AE01052A,
            0x3C65852FC61995A0,
            0x3B81CD2E9FC80000,
        ],
        35,
        true,
    );

    #[test]
    fn memory_one_still_converges() {
        let a = Matrix::from_diag(&[2.0, 7.0]);
        let q = QuadraticObjective::new(a, vec![1.0, 1.0], 0.0);
        let r = Lbfgs::new(StopCriteria::default())
            .with_memory(1)
            .unwrap()
            .minimize(&q, &[5.0, -5.0])
            .unwrap();
        assert!(r.converged);
        let truth = dre_linalg::Cholesky::new(q.a())
            .unwrap()
            .solve(q.b())
            .unwrap();
        assert!(dre_linalg::vector::max_abs_diff(&r.x, &truth) < 1e-5);
    }
}
