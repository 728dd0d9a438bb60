//! Test helpers shared by the solvers' unit tests.

use dre_linalg::Matrix;

use crate::{FnObjective, Objective, OptimReport, QuadraticObjective};

/// Wraps an objective and records the bit pattern of every point it is
/// evaluated at, through any of the three entry points.
pub(crate) struct Counting<O> {
    inner: O,
    points: std::sync::Mutex<Vec<Vec<u64>>>,
}

impl<O: Objective> Counting<O> {
    pub(crate) fn new(inner: O) -> Self {
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
    pub(crate) fn counts(&self) -> (usize, usize) {
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

/// `(x, value, grad_norm, trace)` bit patterns plus iterations and
/// convergence, for pinning a report exactly.
pub(crate) fn report_bits(r: &OptimReport) -> (Vec<u64>, u64, u64, Vec<u64>, usize, bool) {
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

/// A pinned report: `(x, value, grad_norm, trace, iterations, converged)`
/// with every `f64` as its bit pattern.
pub(crate) type Golden = (&'static [u64], u64, u64, &'static [u64], usize, bool);

/// The report bits of a pinned report.
pub(crate) fn owned(g: Golden) -> (Vec<u64>, u64, u64, Vec<u64>, usize, bool) {
    (g.0.to_vec(), g.1, g.2, g.3.to_vec(), g.4, g.5)
}

/// Rosenbrock's function, minimized at `(1, 1)`.
pub(crate) fn rosenbrock() -> FnObjective<impl Fn(&[f64]) -> (f64, Vec<f64>)> {
    FnObjective::new(2, |x: &[f64]| {
        let (a, b) = (1.0 - x[0], x[1] - x[0] * x[0]);
        (
            a * a + 100.0 * b * b,
            vec![-2.0 * a - 400.0 * x[0] * b, 200.0 * b],
        )
    })
}

/// The well-conditioned 3×3 quadratic the solver goldens pin.
pub(crate) fn quadratic3() -> QuadraticObjective {
    let a = Matrix::from_rows(&[&[5.0, 1.0, 0.0], &[1.0, 4.0, 0.5], &[0.0, 0.5, 3.0]]).unwrap();
    QuadraticObjective::new(a, vec![1.0, -2.0, 0.5], 2.0)
}
