//! The objective-function abstraction shared by all solvers.

use dre_linalg::Matrix;

/// A differentiable objective `f: ℝᵈ → ℝ`.
///
/// Implementors provide the value and gradient; solvers only interact
/// through this trait, so the paper's robust objectives, the EM surrogates
/// and the test quadratics all plug into the same machinery.
pub trait Objective {
    /// Dimension `d` of the domain.
    fn dim(&self) -> usize;

    /// Objective value at `x`.
    fn value(&self, x: &[f64]) -> f64;

    /// Gradient at `x` (a subgradient at non-smooth points).
    fn gradient(&self, x: &[f64]) -> Vec<f64>;

    /// Value and gradient together; override when the two share work. An
    /// override must return exactly the bits of [`value`](Self::value) and
    /// [`gradient`](Self::gradient): a solver may value a point through
    /// either entry point.
    fn value_and_gradient(&self, x: &[f64]) -> (f64, Vec<f64>) {
        (self.value(x), self.gradient(x))
    }

    /// Value, with the gradient written into `grad` (of length
    /// [`dim`](Self::dim)) instead of a fresh vector.
    ///
    /// The solvers evaluate through this entry point, so an objective on a
    /// hot path overrides it to run without allocating; an override must
    /// return exactly the bits of [`value_and_gradient`](Self::value_and_gradient).
    /// The default delegates to `value_and_gradient` and copies.
    ///
    /// # Panics
    ///
    /// Panics when `grad.len()` differs from the gradient's length.
    fn value_and_gradient_into(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        let (value, g) = self.value_and_gradient(x);
        grad.copy_from_slice(&g);
        value
    }
}

/// An [`Objective`] defined by a closure returning `(value, gradient)`.
///
/// # Example
///
/// ```
/// use dre_optim::{FnObjective, Objective};
///
/// let rosenbrock = FnObjective::new(2, |x: &[f64]| {
///     let (a, b) = (1.0 - x[0], x[1] - x[0] * x[0]);
///     let v = a * a + 100.0 * b * b;
///     let g = vec![-2.0 * a - 400.0 * x[0] * b, 200.0 * b];
///     (v, g)
/// });
/// assert_eq!(rosenbrock.value(&[1.0, 1.0]), 0.0);
/// ```
pub struct FnObjective<F> {
    dim: usize,
    f: F,
}

impl<F: Fn(&[f64]) -> (f64, Vec<f64>)> FnObjective<F> {
    /// Wraps a closure computing `(value, gradient)`.
    pub fn new(dim: usize, f: F) -> Self {
        FnObjective { dim, f }
    }
}

impl<F: Fn(&[f64]) -> (f64, Vec<f64>)> Objective for FnObjective<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn value(&self, x: &[f64]) -> f64 {
        (self.f)(x).0
    }

    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        (self.f)(x).1
    }

    fn value_and_gradient(&self, x: &[f64]) -> (f64, Vec<f64>) {
        (self.f)(x)
    }
}

impl<F> std::fmt::Debug for FnObjective<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FnObjective {{ dim: {} }}", self.dim)
    }
}

/// The quadratic objective `½ xᵀA x − bᵀx + c` with symmetric `A`.
///
/// This is exactly the shape of the EM surrogate's prior term, and doubles
/// as a ground-truth test case for every solver (closed-form minimizer).
#[derive(Debug, Clone)]
pub struct QuadraticObjective {
    a: Matrix,
    b: Vec<f64>,
    c: f64,
}

impl QuadraticObjective {
    /// Creates the quadratic `½ xᵀA x − bᵀx + c`.
    ///
    /// # Panics
    ///
    /// Panics when `a` is not square or `b.len() != a.rows()`.
    pub fn new(a: Matrix, b: Vec<f64>, c: f64) -> Self {
        assert!(a.is_square(), "quadratic matrix must be square");
        assert_eq!(a.rows(), b.len(), "quadratic dimensions must agree");
        QuadraticObjective { a, b, c }
    }

    /// The coefficient matrix `A`.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// The linear coefficient `b`.
    pub fn b(&self) -> &[f64] {
        &self.b
    }
}

impl Objective for QuadraticObjective {
    fn dim(&self) -> usize {
        self.b.len()
    }

    fn value(&self, x: &[f64]) -> f64 {
        0.5 * self.a.quad_form(x).expect("square by construction")
            - dre_linalg::vector::dot(&self.b, x)
            + self.c
    }

    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        let mut g = self.a.matvec(x).expect("square by construction");
        for (gi, bi) in g.iter_mut().zip(&self.b) {
            *gi -= bi;
        }
        g
    }
}

/// An objective that counts its evaluations, through whichever entry
/// point a solver uses; the count is what [`OptimReport::evaluations`]
/// reports.
///
/// [`OptimReport::evaluations`]: crate::OptimReport::evaluations
pub(crate) struct Counted<'a, O: ?Sized> {
    inner: &'a O,
    evaluations: std::cell::Cell<usize>,
}

impl<'a, O: Objective + ?Sized> Counted<'a, O> {
    pub(crate) fn new(inner: &'a O) -> Self {
        Counted {
            inner,
            evaluations: std::cell::Cell::new(0),
        }
    }

    /// Evaluations so far.
    pub(crate) fn evaluations(&self) -> usize {
        self.evaluations.get()
    }

    fn count(&self) {
        self.evaluations.set(self.evaluations.get() + 1);
    }
}

impl<O: Objective + ?Sized> Objective for Counted<'_, O> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn value(&self, x: &[f64]) -> f64 {
        self.count();
        self.inner.value(x)
    }

    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        self.count();
        self.inner.gradient(x)
    }

    fn value_and_gradient(&self, x: &[f64]) -> (f64, Vec<f64>) {
        self.count();
        self.inner.value_and_gradient(x)
    }

    fn value_and_gradient_into(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        self.count();
        self.inner.value_and_gradient_into(x, grad)
    }
}

/// Central-difference numerical gradient, for verifying analytic gradients
/// in tests: `∂f/∂xᵢ ≈ (f(x + h·eᵢ) − f(x − h·eᵢ)) / 2h`.
pub fn numerical_gradient<O: Objective + ?Sized>(obj: &O, x: &[f64], h: f64) -> Vec<f64> {
    let mut g = Vec::with_capacity(x.len());
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        let orig = xp[i];
        xp[i] = orig + h;
        let fp = obj.value(&xp);
        xp[i] = orig - h;
        let fm = obj.value(&xp);
        xp[i] = orig;
        g.push((fp - fm) / (2.0 * h));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_objective_wraps_closure() {
        let o = FnObjective::new(1, |x: &[f64]| (x[0] * x[0], vec![2.0 * x[0]]));
        assert_eq!(o.dim(), 1);
        assert_eq!(o.value(&[3.0]), 9.0);
        assert_eq!(o.gradient(&[3.0]), vec![6.0]);
        let (v, g) = o.value_and_gradient(&[2.0]);
        assert_eq!(v, 4.0);
        assert_eq!(g, vec![4.0]);
        assert!(format!("{o:?}").contains("dim: 1"));
    }

    #[test]
    fn default_in_place_evaluation_matches_the_allocating_form_bit_for_bit() {
        let a =
            Matrix::from_rows(&[&[3.0, 1.0, 0.2], &[1.0, 2.0, -0.4], &[0.2, -0.4, 5.0]]).unwrap();
        let q = QuadraticObjective::new(a, vec![0.5, -1.0, 0.25], 0.7);
        let rosenbrock = FnObjective::new(2, |x: &[f64]| {
            let (a, b) = (1.0 - x[0], x[1] - x[0] * x[0]);
            (
                a * a + 100.0 * b * b,
                vec![-2.0 * a - 400.0 * x[0] * b, 200.0 * b],
            )
        });
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for x in [[0.3, -0.7, 1.9], [-1.2, 1.0, 0.0], [1e-3, 4.5, -2.25]] {
            let (v, g) = q.value_and_gradient(&x);
            // Poisoned so a skipped slot shows.
            let mut into = vec![f64::NAN; 3];
            let vi = q.value_and_gradient_into(&x, &mut into);
            assert_eq!((vi.to_bits(), bits(&into)), (v.to_bits(), bits(&g)));

            let (v, g) = rosenbrock.value_and_gradient(&x[..2]);
            let mut into = vec![f64::NAN; 2];
            let vi = rosenbrock.value_and_gradient_into(&x[..2], &mut into);
            assert_eq!((vi.to_bits(), bits(&into)), (v.to_bits(), bits(&g)));
        }
    }

    #[test]
    fn quadratic_value_and_gradient() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]).unwrap();
        let q = QuadraticObjective::new(a, vec![2.0, 4.0], 1.0);
        // Minimizer: A x = b → x = (1, 1); min value = ½·6 − 6 + 1 = −2.
        assert_eq!(q.value(&[1.0, 1.0]), -2.0);
        assert_eq!(q.gradient(&[1.0, 1.0]), vec![0.0, 0.0]);
        assert_eq!(q.dim(), 2);
        assert_eq!(q.b(), &[2.0, 4.0]);
        assert_eq!(q.a()[(1, 1)], 4.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn quadratic_rejects_nonsquare() {
        QuadraticObjective::new(Matrix::zeros(2, 3), vec![0.0, 0.0], 0.0);
    }

    #[test]
    fn numerical_gradient_matches_analytic() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let q = QuadraticObjective::new(a, vec![0.5, -1.0], 0.0);
        let x = [0.3, -0.7];
        let num = numerical_gradient(&q, &x, 1e-6);
        let ana = q.gradient(&x);
        assert!(dre_linalg::vector::max_abs_diff(&num, &ana) < 1e-6);
    }
}
