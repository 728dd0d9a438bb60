//! Special functions used by the distribution implementations.
//!
//! Implementations follow the classical series/continued-fraction forms
//! (Lanczos for `ln_gamma`, Numerical-Recipes-style incomplete gamma),
//! accurate to ≈1e-12 over the ranges the workspace exercises.

/// `ln √(2π)`.
pub const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

/// `ln π`.
pub const LN_PI: f64 = 1.144_729_885_849_400_2;

/// Lanczos coefficients (g = 7, n = 9).
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function `ln Γ(x)` for `x > 0`.
///
/// # Panics
///
/// Panics if `x <= 0` (the reflection branch is intentionally unsupported:
/// every caller in this workspace passes positive arguments, and a silent
/// wrong value would be worse than a crash).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx); keep accuracy near 0.
        return LN_PI - (std::f64::consts::PI * x).sin().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = LANCZOS[0];
    let t = x + 7.5;
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    LN_SQRT_2PI + (x + 0.5) * t.ln() - t + a.ln()
}

/// Digamma function `ψ(x) = d/dx ln Γ(x)` for `x > 0`.
///
/// # Panics
///
/// Panics if `x <= 0`.
pub fn digamma(x: f64) -> f64 {
    assert!(x > 0.0, "digamma requires x > 0, got {x}");
    let mut x = x;
    let mut result = 0.0;
    // Recurrence ψ(x) = ψ(x+1) − 1/x until x is large enough for the
    // asymptotic series.
    while x < 6.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result + x.ln()
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0))))
}

/// Multivariate log-gamma `ln Γ_d(a)` for dimension `d ≥ 1`.
///
/// Appears in Wishart normalizing constants and NIW marginal likelihoods.
///
/// # Panics
///
/// Panics if `d == 0` or `a <= (d − 1)/2`.
pub fn ln_mv_gamma(d: usize, a: f64) -> f64 {
    assert!(d >= 1, "ln_mv_gamma requires d >= 1");
    assert!(
        a > 0.5 * (d as f64 - 1.0),
        "ln_mv_gamma requires a > (d-1)/2, got a={a}, d={d}"
    );
    let mut s = 0.25 * (d * (d - 1)) as f64 * LN_PI;
    for j in 0..d {
        s += ln_gamma(a - 0.5 * j as f64);
    }
    s
}

/// Regularized lower incomplete gamma `P(a, x) = γ(a, x)/Γ(a)` for `a > 0`,
/// `x ≥ 0`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_lower_gamma requires a > 0");
    assert!(x >= 0.0, "reg_lower_gamma requires x >= 0");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_cf(a, x)
    }
}

/// Series expansion of `P(a, x)` (accurate for `x < a + 1`).
fn gamma_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued fraction for the upper tail `Q(a, x) = 1 − P(a, x)` (accurate
/// for `x ≥ a + 1`), via the modified Lentz algorithm.
fn gamma_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Error function `erf(x)`, computed via the incomplete gamma identity
/// `erf(x) = sign(x) · P(1/2, x²)`.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let p = reg_lower_gamma(0.5, x * x);
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// Complementary error function `erfc(x) = 1 − erf(x)`.
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + b.abs())
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(1/2) = √π.
        assert!(close(ln_gamma(1.0), 0.0, 1e-12));
        assert!(close(ln_gamma(2.0), 0.0, 1e-12));
        assert!(close(ln_gamma(5.0), 24.0f64.ln(), 1e-12));
        assert!(close(ln_gamma(0.5), 0.5 * std::f64::consts::PI.ln(), 1e-12));
        // Γ(10.5) from tables: 1133278.3889487855.
        assert!(close(
            ln_gamma(10.5),
            1_133_278.388_948_785_5f64.ln(),
            1e-10
        ));
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn digamma_known_values() {
        // ψ(1) = −γ (Euler–Mascheroni).
        let euler = 0.577_215_664_901_532_9;
        assert!(close(digamma(1.0), -euler, 1e-10));
        // ψ(1/2) = −γ − 2 ln 2.
        assert!(close(digamma(0.5), -euler - 2.0 * 2.0f64.ln(), 1e-10));
        // Recurrence ψ(x+1) = ψ(x) + 1/x.
        for &x in &[0.3, 1.7, 4.2, 11.0] {
            assert!(close(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-11));
        }
    }

    #[test]
    fn ln_mv_gamma_reduces_to_ln_gamma() {
        assert!(close(ln_mv_gamma(1, 3.2), ln_gamma(3.2), 1e-13));
        // Γ_2(a) = π^{1/2} Γ(a) Γ(a − 1/2).
        let a = 4.0;
        let expected = 0.5 * LN_PI + ln_gamma(a) + ln_gamma(a - 0.5);
        assert!(close(ln_mv_gamma(2, a), expected, 1e-12));
    }

    #[test]
    fn incomplete_gamma_limits() {
        assert_eq!(reg_lower_gamma(2.0, 0.0), 0.0);
        assert!(close(
            reg_lower_gamma(1.0, 1.0),
            1.0 - (-1.0f64).exp(),
            1e-12
        ));
        assert!(reg_lower_gamma(3.0, 100.0) > 1.0 - 1e-12);
    }

    #[test]
    fn erf_known_values() {
        assert_eq!(erf(0.0), 0.0);
        assert!(close(erf(1.0), 0.842_700_792_949_714_9, 1e-10));
        assert!(close(erf(-1.0), -0.842_700_792_949_714_9, 1e-10));
        assert!(close(erf(2.0), 0.995_322_265_018_952_7, 1e-10));
        assert!(close(erfc(1.0), 1.0 - 0.842_700_792_949_714_9, 1e-10));
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!(close(std_normal_cdf(0.0), 0.5, 1e-14));
        assert!(close(std_normal_cdf(1.96), 0.975_002_104_851_780_4, 1e-9));
        assert!(close(std_normal_cdf(-1.96), 0.024_997_895_148_219_6, 1e-9));
    }

    proptest! {
        #[test]
        fn prop_ln_gamma_recurrence(x in 0.1..30.0f64) {
            // Γ(x+1) = x Γ(x)  ⇒  lnΓ(x+1) = ln x + lnΓ(x).
            prop_assert!(close(ln_gamma(x + 1.0), x.ln() + ln_gamma(x), 1e-11));
        }

        #[test]
        fn prop_incomplete_gamma_monotone(a in 0.2..10.0f64, x in 0.0..20.0f64) {
            let p1 = reg_lower_gamma(a, x);
            let p2 = reg_lower_gamma(a, x + 0.5);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&p1));
            prop_assert!(p2 + 1e-12 >= p1);
        }

        #[test]
        fn prop_erf_is_odd_and_bounded(x in -5.0..5.0f64) {
            prop_assert!((erf(x) + erf(-x)).abs() < 1e-12);
            prop_assert!(erf(x).abs() <= 1.0);
        }
    }
}
