//! Ambiguity-set descriptions.

use crate::{Result, RobustError};

/// A type-1 Wasserstein ball `B_ε(P̂) = {Q : W₁(Q, P̂) ≤ ε}` around the
/// empirical distribution, under the ground metric
/// `d((x,y),(x',y')) = ‖x − x'‖₂ + κ·1{y ≠ y'}`.
///
/// `κ` prices label perturbations: `κ = ∞` means the adversary may only move
/// features (the classical regularization collapse), while finite `κ` lets
/// the worst-case distribution also flip labels at cost `κ` each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WassersteinBall {
    radius: f64,
    label_cost: f64,
}

impl WassersteinBall {
    /// Creates a ball of radius `ε ≥ 0` with label-flip cost `κ > 0`
    /// (possibly `f64::INFINITY`).
    ///
    /// # Errors
    ///
    /// Returns [`RobustError::InvalidParameter`] for a negative/non-finite
    /// radius or non-positive/NaN label cost.
    pub fn new(radius: f64, label_cost: f64) -> Result<Self> {
        if !(radius >= 0.0 && radius.is_finite()) {
            return Err(RobustError::InvalidParameter {
                param: "radius",
                value: radius,
            });
        }
        if label_cost.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(RobustError::InvalidParameter {
                param: "label_cost",
                value: label_cost,
            });
        }
        Ok(WassersteinBall { radius, label_cost })
    }

    /// A features-only ball (`κ = ∞`).
    ///
    /// # Errors
    ///
    /// Returns [`RobustError::InvalidParameter`] for an invalid radius.
    pub fn features_only(radius: f64) -> Result<Self> {
        Self::new(radius, f64::INFINITY)
    }

    /// Radius `ε`.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Label-flip cost `κ`.
    pub fn label_cost(&self) -> f64 {
        self.label_cost
    }

    /// True when label perturbations are disallowed (`κ = ∞`).
    pub fn is_features_only(&self) -> bool {
        self.label_cost.is_infinite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wasserstein_validation() {
        assert!(WassersteinBall::new(-0.1, 1.0).is_err());
        assert!(WassersteinBall::new(f64::INFINITY, 1.0).is_err());
        assert!(WassersteinBall::new(0.1, 0.0).is_err());
        assert!(WassersteinBall::new(0.1, -1.0).is_err());
        assert!(WassersteinBall::new(0.1, f64::NAN).is_err());
        let b = WassersteinBall::new(0.5, 2.0).unwrap();
        assert_eq!(b.radius(), 0.5);
        assert_eq!(b.label_cost(), 2.0);
        assert!(!b.is_features_only());
        let f = WassersteinBall::features_only(0.3).unwrap();
        assert!(f.is_features_only());
        // Zero radius is a valid (degenerate) ball.
        assert!(WassersteinBall::new(0.0, 1.0).is_ok());
    }
}
