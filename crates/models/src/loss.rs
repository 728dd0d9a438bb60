//! Margin-based classification losses.

/// A convex loss on the classification margin `m = y·(wᵀx + b)`.
///
/// The trait exposes exactly what the Wasserstein-DRO duality in
/// `dre-robust` consumes:
///
/// * [`MarginLoss::value`] / [`MarginLoss::derivative`] for gradients;
/// * [`MarginLoss::eval_both_signs`] — value and derivative at `±m` in one
///   call, for the dual's label-flip branch;
/// * [`MarginLoss::margin_lipschitz`] — the Lipschitz constant `L` of the
///   loss in its margin. For linear models the loss as a function of the
///   *features* is then `L·‖w‖`-Lipschitz, which is what the dual
///   constraint `γ ≥ L·‖w‖_*` needs.
pub trait MarginLoss: std::fmt::Debug + Clone + Send + Sync {
    /// Loss value at margin `m`.
    fn value(&self, margin: f64) -> f64;

    /// Derivative `dℓ/dm` (a subderivative at kinks).
    fn derivative(&self, margin: f64) -> f64;

    /// `(ℓ(m), ℓ(−m), ℓ'(m), ℓ'(−m))`: the loss and its derivative at the
    /// margin and at its label flip. Overrides must return exactly the bits
    /// of the four separate calls, so callers may use either form.
    fn eval_both_signs(&self, margin: f64) -> (f64, f64, f64, f64) {
        (
            self.value(margin),
            self.value(-margin),
            self.derivative(margin),
            self.derivative(-margin),
        )
    }

    /// Lipschitz constant of `ℓ` as a function of the margin.
    fn margin_lipschitz(&self) -> f64;

    /// Short human-readable name (for reports).
    fn name(&self) -> &'static str;
}

/// Logistic loss `ℓ(m) = ln(1 + e^{−m})`, computed stably for large `|m|`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LogisticLoss;

impl MarginLoss for LogisticLoss {
    fn value(&self, margin: f64) -> f64 {
        // ln(1 + e^{−m}) = softplus(−m), computed without overflow.
        if margin >= 0.0 {
            (-margin).exp().ln_1p()
        } else {
            -margin + margin.exp().ln_1p()
        }
    }

    fn derivative(&self, margin: f64) -> f64 {
        // −σ(−m) = −1/(1 + e^{m}).
        if margin >= 0.0 {
            let e = (-margin).exp();
            -e / (1.0 + e)
        } else {
            -1.0 / (1.0 + margin.exp())
        }
    }

    /// All four terms derive from one `e = exp(−|m|)` and one `ln(1 + e)`,
    /// evaluated exactly as [`value`](MarginLoss::value) and
    /// [`derivative`](MarginLoss::derivative) evaluate them on each side of
    /// zero. Zero (either sign) and NaN take the four plain calls.
    fn eval_both_signs(&self, margin: f64) -> (f64, f64, f64, f64) {
        if margin > 0.0 {
            let e = (-margin).exp();
            let l = e.ln_1p();
            (l, margin + l, -e / (1.0 + e), -1.0 / (1.0 + e))
        } else if margin < 0.0 {
            let e = margin.exp();
            let l = e.ln_1p();
            (-margin + l, l, -1.0 / (1.0 + e), -e / (1.0 + e))
        } else {
            (
                self.value(margin),
                self.value(-margin),
                self.derivative(margin),
                self.derivative(-margin),
            )
        }
    }

    fn margin_lipschitz(&self) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "logistic"
    }
}

/// Hinge loss `ℓ(m) = max(0, 1 − m)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HingeLoss;

impl MarginLoss for HingeLoss {
    fn value(&self, margin: f64) -> f64 {
        (1.0 - margin).max(0.0)
    }

    fn derivative(&self, margin: f64) -> f64 {
        if margin < 1.0 {
            -1.0
        } else {
            0.0
        }
    }

    fn margin_lipschitz(&self) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "hinge"
    }
}

/// Quadratically smoothed hinge (Huberized hinge) with smoothing width `γ`:
///
/// ```text
/// ℓ(m) = 0                     if m ≥ 1
///      = (1 − m)²/(2γ)         if 1 − γ < m < 1
///      = 1 − m − γ/2           if m ≤ 1 − γ
/// ```
///
/// Differentiable everywhere, so L-BFGS applies; converges to the hinge as
/// `γ → 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoothedHingeLoss {
    gamma: f64,
}

impl SmoothedHingeLoss {
    /// Creates a smoothed hinge with width `γ > 0`.
    ///
    /// # Panics
    ///
    /// Panics unless `γ` is positive and finite.
    pub fn new(gamma: f64) -> Self {
        assert!(
            gamma > 0.0 && gamma.is_finite(),
            "smoothing width must be positive, got {gamma}"
        );
        SmoothedHingeLoss { gamma }
    }

    /// Smoothing width `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl Default for SmoothedHingeLoss {
    fn default() -> Self {
        SmoothedHingeLoss::new(0.1)
    }
}

impl MarginLoss for SmoothedHingeLoss {
    fn value(&self, margin: f64) -> f64 {
        if margin >= 1.0 {
            0.0
        } else if margin > 1.0 - self.gamma {
            (1.0 - margin) * (1.0 - margin) / (2.0 * self.gamma)
        } else {
            1.0 - margin - self.gamma / 2.0
        }
    }

    fn derivative(&self, margin: f64) -> f64 {
        if margin >= 1.0 {
            0.0
        } else if margin > 1.0 - self.gamma {
            -(1.0 - margin) / self.gamma
        } else {
            -1.0
        }
    }

    fn margin_lipschitz(&self) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "smoothed_hinge"
    }
}

/// Squared loss on the margin `ℓ(m) = (1 − m)²/2` (least-squares
/// classification).
///
/// Not globally Lipschitz — [`MarginLoss::margin_lipschitz`] returns
/// infinity, so the Wasserstein dual rejects it, which is the mathematically
/// correct behavior.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SquaredLoss;

impl MarginLoss for SquaredLoss {
    fn value(&self, margin: f64) -> f64 {
        let r = 1.0 - margin;
        0.5 * r * r
    }

    fn derivative(&self, margin: f64) -> f64 {
        margin - 1.0
    }

    fn margin_lipschitz(&self) -> f64 {
        f64::INFINITY
    }

    fn name(&self) -> &'static str {
        "squared"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fd_derivative<L: MarginLoss>(loss: &L, m: f64) -> f64 {
        let h = 1e-7;
        (loss.value(m + h) - loss.value(m - h)) / (2.0 * h)
    }

    #[test]
    fn logistic_fused_terms_bit_equal_the_four_separate_calls() {
        let mut grid = vec![
            0.0,
            -0.0,
            1e-300,
            -1e-300,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            40.0,
            -40.0,
            745.0,
            -745.0,
            746.0,
            -746.0,
            1e308,
            -1e308,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // A log-spaced sweep across both signs, plus values near the
        // branch points of `exp` and `ln_1p`.
        for k in -60..=60 {
            let m = 1.7f64.powi(k);
            grid.extend([m, -m, m.next_up(), -m.next_up()]);
        }
        let l = LogisticLoss;
        let bits =
            |t: (f64, f64, f64, f64)| [t.0.to_bits(), t.1.to_bits(), t.2.to_bits(), t.3.to_bits()];
        for m in grid {
            let separate = (l.value(m), l.value(-m), l.derivative(m), l.derivative(-m));
            assert_eq!(bits(l.eval_both_signs(m)), bits(separate), "margin {m:e}");
        }
        let (a, b, c, d) = l.eval_both_signs(f64::NAN);
        assert!(a.is_nan() && b.is_nan() && c.is_nan() && d.is_nan());
    }

    #[test]
    fn logistic_known_values() {
        let l = LogisticLoss;
        assert!((l.value(0.0) - 2.0f64.ln()).abs() < 1e-12);
        assert!((l.derivative(0.0) + 0.5).abs() < 1e-12);
        // Stable at extreme margins.
        assert_eq!(l.value(1000.0), 0.0);
        assert!((l.value(-1000.0) - 1000.0).abs() < 1e-9);
        assert!(l.derivative(-1000.0) >= -1.0);
        assert_eq!(l.margin_lipschitz(), 1.0);
        assert_eq!(l.name(), "logistic");
    }

    #[test]
    fn hinge_known_values() {
        let l = HingeLoss;
        assert_eq!(l.value(2.0), 0.0);
        assert_eq!(l.value(0.0), 1.0);
        assert_eq!(l.value(-1.0), 2.0);
        assert_eq!(l.derivative(0.5), -1.0);
        assert_eq!(l.derivative(1.5), 0.0);
        assert_eq!(l.name(), "hinge");
    }

    #[test]
    fn smoothed_hinge_pieces_join_continuously() {
        let l = SmoothedHingeLoss::new(0.2);
        assert_eq!(l.gamma(), 0.2);
        // Value and derivative continuity at the joints m = 1 and m = 1−γ.
        for joint in [1.0, 0.8] {
            let eps = 1e-9;
            assert!((l.value(joint - eps) - l.value(joint + eps)).abs() < 1e-7);
            assert!((l.derivative(joint - eps) - l.derivative(joint + eps)).abs() < 1e-6);
        }
        // Approaches the hinge for small γ.
        let tight = SmoothedHingeLoss::new(1e-6);
        assert!((tight.value(0.0) - HingeLoss.value(0.0)).abs() < 1e-5);
        assert_eq!(l.name(), "smoothed_hinge");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn smoothed_hinge_rejects_zero_width() {
        SmoothedHingeLoss::new(0.0);
    }

    #[test]
    fn squared_loss_values() {
        let l = SquaredLoss;
        assert_eq!(l.value(1.0), 0.0);
        assert_eq!(l.value(0.0), 0.5);
        assert_eq!(l.derivative(1.0), 0.0);
        assert!(l.margin_lipschitz().is_infinite());
        assert_eq!(l.name(), "squared");
    }

    proptest! {
        #[test]
        fn prop_derivatives_match_finite_differences(m in -5.0..5.0f64) {
            prop_assert!((fd_derivative(&LogisticLoss, m) - LogisticLoss.derivative(m)).abs() < 1e-5);
            prop_assert!((fd_derivative(&SquaredLoss, m) - SquaredLoss.derivative(m)).abs() < 1e-5);
            let sh = SmoothedHingeLoss::new(0.3);
            // Skip the joints where the derivative jumps in FD.
            if (m - 1.0).abs() > 1e-3 && (m - 0.7).abs() > 1e-3 {
                prop_assert!((fd_derivative(&sh, m) - sh.derivative(m)).abs() < 1e-5);
            }
        }

        #[test]
        fn prop_losses_are_convex_and_nonnegative(
            m1 in -5.0..5.0f64, m2 in -5.0..5.0f64, t in 0.0..1.0f64
        ) {
            let mid = t * m1 + (1.0 - t) * m2;
            let check = |v_mid: f64, v1: f64, v2: f64| v_mid <= t * v1 + (1.0 - t) * v2 + 1e-9;
            prop_assert!(check(LogisticLoss.value(mid), LogisticLoss.value(m1), LogisticLoss.value(m2)));
            prop_assert!(check(HingeLoss.value(mid), HingeLoss.value(m1), HingeLoss.value(m2)));
            let sh = SmoothedHingeLoss::default();
            prop_assert!(check(sh.value(mid), sh.value(m1), sh.value(m2)));
            prop_assert!(LogisticLoss.value(m1) >= 0.0);
            prop_assert!(HingeLoss.value(m1) >= 0.0);
            prop_assert!(sh.value(m1) >= 0.0);
        }

        #[test]
        fn prop_lipschitz_bound_holds(m1 in -5.0..5.0f64, m2 in -5.0..5.0f64) {
            for val_lip in [
                ((LogisticLoss.value(m1) - LogisticLoss.value(m2)).abs(), LogisticLoss.margin_lipschitz()),
                ((HingeLoss.value(m1) - HingeLoss.value(m2)).abs(), HingeLoss.margin_lipschitz()),
            ] {
                prop_assert!(val_lip.0 <= val_lip.1 * (m1 - m2).abs() + 1e-12);
            }
        }
    }
}
