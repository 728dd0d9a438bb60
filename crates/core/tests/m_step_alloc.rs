//! Allocation gates for the edge M-step's hot path: evaluating the M-step
//! objective in place must not touch the allocator, and a warm BFGS run
//! allocates its workspace once per call, however many iterations it takes
//! and whether or not its backtracking fallback runs.
//!
//! Allocator calls are counted per thread, so tests running concurrently
//! in this binary do not see each other's allocations.

use dre_alloc_count::{allocations, CountingAlloc};
use dre_bayes::MixturePrior;
use dre_linalg::Matrix;
use dre_models::LogisticLoss;
use dre_optim::{Bfgs, InverseHessian, Objective, StopCriteria};
use dre_robust::{WassersteinBall, WassersteinDualObjective};
use dro_edge::DroDpObjective;
use rand::Rng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A 30-sample, 3-feature local dataset with labels ±1.
fn data() -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = dre_prob::seeded_rng(30);
    let xs: Vec<Vec<f64>> = (0..30)
        .map(|_| (0..3).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect();
    let ys = xs
        .iter()
        .map(|x: &Vec<f64>| {
            if x[0] - 0.5 * x[2] + rng.gen_range(-0.5..0.5) > 0.0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    (xs, ys)
}

fn prior() -> MixturePrior {
    MixturePrior::new(vec![
        (0.6, vec![1.0, 0.0, -0.5, 0.0], Matrix::identity(4)),
        (
            0.4,
            vec![-1.0, 1.0, 0.5, 0.2],
            Matrix::from_diag(&[0.5, 2.0, 1.0, 1.0]),
        ),
    ])
    .unwrap()
}

#[test]
fn in_place_m_step_evaluation_makes_no_allocator_calls() {
    let (xs, ys) = data();
    let prior = prior();
    let surrogate = prior
        .em_surrogate(&prior.responsibilities(&[0.3, -0.2, 0.1, 0.0]))
        .unwrap();
    let mut grad = vec![0.0; 5];
    for kappa in [0.25, 1.0, f64::INFINITY] {
        let ball = WassersteinBall::new(0.1, kappa).unwrap();
        let dual = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
        let objective = DroDpObjective::new(&dual, &surrogate, 0.5 / 30.0);
        let points: Vec<[f64; 5]> = (0..20)
            .map(|i| {
                let t = i as f64 / 4.0;
                [t - 2.0, 0.5 * t, -0.3 * t, 0.1, t - 1.0]
            })
            .collect();
        let (calls, _) = allocations(|| {
            for x in &points {
                dual.value_and_gradient_into(x, &mut grad);
                objective.value_and_gradient_into(x, &mut grad);
            }
        });
        assert_eq!(
            calls, 0,
            "κ={kappa}: {calls} allocator calls in 40 evaluations"
        );
    }
}

/// Allocator calls of one BFGS call warm-started from an inverse-Hessian
/// estimate: the iterate `x` and its gradient, the direction, the step and
/// gradient-change vectors, two Wolfe trial slots of two vectors each, and
/// the objective trace. The estimate's matrix and its scratch vector are
/// allocated by the first update of a chain and updated in place after.
const WARM_CALL_ALLOCATIONS: u64 = 10;

#[test]
fn warm_bfgs_allocations_do_not_depend_on_the_iteration_count() {
    let (xs, ys) = data();
    let prior = prior();
    let surrogate = prior
        .em_surrogate(&prior.responsibilities(&[0.3, -0.2, 0.1, 0.0]))
        .unwrap();
    let ball = WassersteinBall::new(0.1, 0.5).unwrap();
    let dual = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
    let objective = DroDpObjective::new(&dual, &surrogate, 0.5 / 30.0);
    let start = [0.0, 0.0, 0.0, 0.0, 0.5];

    // A short cold run builds the estimate, as the first M-step of an EM
    // chain does.
    let mut warm = InverseHessian::default();
    Bfgs::new(StopCriteria::with_max_iters(12))
        .minimize_warm(&objective, &start, &mut warm)
        .unwrap();

    let mut counts = Vec::new();
    for max_iters in [4, 25] {
        let solver = Bfgs::new(StopCriteria {
            max_iters,
            grad_tol: 0.0,
            f_tol: 0.0,
        });
        let mut estimate = warm.clone();
        let (calls, report) = allocations(|| {
            solver
                .minimize_warm(&objective, &start, &mut estimate)
                .unwrap()
        });
        counts.push((report.iterations, calls));
    }
    // Both runs use every iteration they are given, so the counts compare
    // 4 iterations with 25. (Six more reach machine precision, where the
    // Wolfe search fails and the backtracking fallback runs; the next test
    // forces that fallback.)
    assert_eq!((counts[0].0, counts[1].0), (4, 25), "{counts:?}");
    assert_eq!(
        (counts[0].1, counts[1].1),
        (WARM_CALL_ALLOCATIONS, WARM_CALL_ALLOCATIONS),
        "(iterations, allocator calls): {counts:?}"
    );
}

/// The M-step objective with its gradient negated, so every search
/// direction points uphill: no Wolfe trial decreases the objective, the
/// search fails, and the backtracking fallback halves its step until the
/// trial point rounds back onto the iterate.
struct Uphill<'a>(&'a dyn Objective);

impl Objective for Uphill<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn value(&self, x: &[f64]) -> f64 {
        self.0.value(x)
    }

    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        self.value_and_gradient(x).1
    }

    fn value_and_gradient(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let mut grad = vec![0.0; x.len()];
        let value = self.value_and_gradient_into(x, &mut grad);
        (value, grad)
    }

    fn value_and_gradient_into(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        let value = self.0.value_and_gradient_into(x, grad);
        for g in grad.iter_mut() {
            *g = -*g;
        }
        value
    }
}

#[test]
fn backtracking_fallback_makes_no_allocator_calls() {
    let (xs, ys) = data();
    let prior = prior();
    let surrogate = prior
        .em_surrogate(&prior.responsibilities(&[0.3, -0.2, 0.1, 0.0]))
        .unwrap();
    let ball = WassersteinBall::new(0.1, 0.5).unwrap();
    let dual = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
    let objective = DroDpObjective::new(&dual, &surrogate, 0.5 / 30.0);
    let uphill = Uphill(&objective);
    let start = [0.3, -0.2, 0.1, 0.0, 0.5];
    let solver = Bfgs::new(StopCriteria {
        max_iters: 4,
        grad_tol: 0.0,
        f_tol: 0.0,
    });
    let mut estimate = InverseHessian::default();
    let (calls, report) = allocations(|| {
        solver
            .minimize_warm(&uphill, &start, &mut estimate)
            .unwrap()
    });
    // One iteration: the start's evaluation, a failed Wolfe search (one
    // unit step, then at most 50 bisections), the fallback's halvings and
    // the re-evaluation of the point it accepts. The start, a Wolfe search
    // (at most 80 trials) and the re-evaluation make at most 82, so more
    // means the fallback's halvings were evaluated too.
    assert_eq!(report.iterations, 1, "{report:?}");
    assert!(report.evaluations > 82, "{report:?}");
    assert_eq!(
        calls, WARM_CALL_ALLOCATIONS,
        "{} evaluations made {calls} allocator calls",
        report.evaluations
    );
}
