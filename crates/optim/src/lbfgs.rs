//! Limited-memory BFGS with a strong-Wolfe line search.

use std::collections::VecDeque;

use crate::quasi_newton::{self, Curvature};
use crate::{Objective, OptimReport, Result, StopCriteria};

/// Curvature pairs an [`Lbfgs`] run keeps: the newest 10.
pub const LBFGS_MEMORY: usize = 10;

/// L-BFGS (Nocedal & Wright, Algorithm 7.4/7.5) with the two-loop recursion
/// and a strong-Wolfe line search.
///
/// The solver for large smooth problems (softmax training, the multiclass
/// M-step, source models): superlinear near the optimum at `O(m·d)`
/// memory. Small problems such as the binary edge M-step use
/// [`Bfgs`](crate::Bfgs), which shares its loop and line search.
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
}

impl Lbfgs {
    /// Creates an L-BFGS solver with a history of [`LBFGS_MEMORY`]
    /// curvature pairs.
    pub fn new(stop: StopCriteria) -> Self {
        Lbfgs { stop }
    }

    /// Minimizes `obj` from `x0`.
    ///
    /// # Errors
    ///
    /// * [`OptimError::DimensionMismatch`](crate::OptimError::DimensionMismatch)
    ///   when `x0.len() != obj.dim()`.
    /// * [`OptimError::NonFiniteObjective`](crate::OptimError::NonFiniteObjective)
    ///   when the objective degenerates.
    /// * [`OptimError::LineSearchFailed`](crate::OptimError::LineSearchFailed)
    ///   when neither the Wolfe search nor a backtracking fallback finds a
    ///   descent step.
    pub fn minimize<O: Objective + ?Sized>(&self, obj: &O, x0: &[f64]) -> Result<OptimReport> {
        let mut pairs = Pairs {
            pairs: VecDeque::with_capacity(LBFGS_MEMORY),
            spare: Vec::new(),
            alphas: Vec::with_capacity(LBFGS_MEMORY),
        };
        quasi_newton::minimize(&self.stop, obj, x0, &mut pairs)
    }
}

/// The newest [`LBFGS_MEMORY`] curvature pairs `(s, y, 1/sᵀy)` of an
/// L-BFGS run, oldest at the front, with the buffers of dropped pairs kept
/// for reuse.
struct Pairs {
    pairs: VecDeque<(Vec<f64>, Vec<f64>, f64)>,
    spare: Vec<(Vec<f64>, Vec<f64>)>,
    /// The two-loop recursion's `α`s.
    alphas: Vec<f64>,
}

impl Curvature for Pairs {
    /// The two-loop recursion, run in place in `p`.
    fn direction(&mut self, g: &[f64], p: &mut [f64]) {
        p.copy_from_slice(g);
        self.alphas.clear();
        for (s, y, rho) in self.pairs.iter().rev() {
            let a = rho * dre_linalg::vector::dot(s, p);
            dre_linalg::vector::axpy(-a, y, p);
            self.alphas.push(a);
        }
        // Initial Hessian scaling γ = sᵀy / yᵀy from the newest pair.
        if let Some((s, y, _)) = self.pairs.back() {
            let gamma = dre_linalg::vector::dot(s, y) / dre_linalg::vector::dot(y, y).max(1e-300);
            dre_linalg::vector::scale(p, gamma.max(1e-12));
        }
        for ((s, y, rho), &a) in self.pairs.iter().zip(self.alphas.iter().rev()) {
            let b = rho * dre_linalg::vector::dot(y, p);
            dre_linalg::vector::axpy(a - b, s, p);
        }
        for pi in p.iter_mut() {
            *pi = -*pi;
        }
    }

    /// Stores the pair in the buffers of the pair it evicts, of a dropped
    /// pair, or — while the history fills — in new ones.
    fn update(&mut self, s: &[f64], y: &[f64], sy: f64) {
        let (mut ps, mut py) = if self.pairs.len() == LBFGS_MEMORY {
            let (ps, py, _) = self.pairs.pop_front().expect("memory ≥ 1");
            (ps, py)
        } else {
            self.spare
                .pop()
                .unwrap_or_else(|| (vec![0.0; s.len()], vec![0.0; s.len()]))
        };
        ps.copy_from_slice(s);
        py.copy_from_slice(y);
        self.pairs.push_back((ps, py, 1.0 / sy));
    }

    fn reset(&mut self) {
        self.spare
            .extend(self.pairs.drain(..).map(|(s, y, _)| (s, y)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{owned, quadratic3, report_bits, rosenbrock, Counting, Golden};
    use crate::{numerical_gradient, FnObjective, OptimError, QuadraticObjective};
    use dre_linalg::Matrix;

    #[test]
    fn solves_quadratic_exactly() {
        let q = quadratic3();
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
        let obj = rosenbrock();
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
                    let bf = crate::Bfgs::new(stop).minimize(&q, &start).unwrap();
                    let gd = crate::GradientDescent::new(stop)
                        .minimize(&q, &start)
                        .unwrap();
                    let truth = dre_linalg::Cholesky::new(&a).unwrap().solve(&rhs).unwrap();
                    prop_assert!(dre_linalg::vector::max_abs_diff(&lb.x, &truth) < 1e-5);
                    prop_assert!(dre_linalg::vector::max_abs_diff(&bf.x, &truth) < 1e-5);
                    // GD can stall in x near machine-precision plateaus of
                    // f; agreement is asserted on objective values, which
                    // converge quadratically in the x-error.
                    prop_assert!((gd.value - lb.value).abs() < 1e-6 * (1.0 + lb.value.abs()));
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    fn every_distinct_trial_point_is_evaluated_exactly_once() {
        let rosenbrock = Counting::new(rosenbrock());
        let r = Lbfgs::new(StopCriteria::with_max_iters(300))
            .minimize(&rosenbrock, &[-1.2, 1.0])
            .unwrap();
        let (evals, distinct) = rosenbrock.counts();
        assert_eq!(evals, distinct, "a trial point was evaluated twice");
        assert_eq!(r.evaluations, evals, "the report's evaluation count");
        // At least the start plus one accepted point per iteration.
        assert!(
            evals > r.iterations,
            "{evals} evaluations, {} iterations",
            r.iterations
        );

        let quadratic = Counting::new(quadratic3());
        let r = Lbfgs::new(StopCriteria::default())
            .minimize(&quadratic, &[10.0, 10.0, 10.0])
            .unwrap();
        let (evals, distinct) = quadratic.counts();
        assert_eq!(evals, distinct, "a trial point was evaluated twice");
        assert_eq!(r.evaluations, evals, "the report's evaluation count");
    }

    #[test]
    fn quadratic_report_is_bit_identical_to_the_golden() {
        let q = quadratic3();
        let r = Lbfgs::new(StopCriteria::default())
            .minimize(&q, &[10.0, 10.0, 10.0])
            .unwrap();
        assert_eq!(report_bits(&r), owned(QUADRATIC_GOLDEN));
    }

    #[test]
    fn rosenbrock_report_is_bit_identical_to_the_golden() {
        let obj = rosenbrock();
        let r = Lbfgs::new(StopCriteria::with_max_iters(300))
            .minimize(&obj, &[-1.2, 1.0])
            .unwrap();
        assert_eq!(report_bits(&r), owned(ROSENBROCK_GOLDEN));
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
}
