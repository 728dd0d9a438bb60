//! Degraded-mode vocabulary for fault-tolerant edge runtimes.
//!
//! The paper's comparison between DRO-with-DP-prior and the local-only ERM
//! baseline is exactly the gap a production edge device crosses when the
//! cloud prior becomes unreachable: with a fresh prior it runs the full
//! pipeline, with a cached one it runs the same pipeline on stale
//! knowledge, and with nothing it falls back to
//! [`crate::baselines::fit_local_erm`]. [`FitMode`] tags every fit with
//! which rung of that ladder produced it, so experiments can attribute
//! accuracy to connectivity.

use std::fmt;

/// Which rung of the degradation ladder produced a fit.
///
/// Ordering of the ladder (best to worst expected accuracy):
/// `FreshPrior` → `StalePrior { age }` (accuracy decays as the prior
/// drifts) → `LocalOnly` (the paper's local-ERM baseline — the floor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FitMode {
    /// The cloud prior was fetched for this very fit.
    FreshPrior,
    /// The cloud was unreachable; the last good prior was reused.
    StalePrior {
        /// Fit steps since that prior was fetched (1 = fetched on the
        /// immediately preceding step).
        age: u64,
    },
    /// No usable prior at all: local-only ERM, the terminal fallback.
    LocalOnly,
}

impl FitMode {
    /// Rung index on the degradation ladder: 0 fresh, 1 stale, 2 local.
    /// Monotone in expected accuracy loss, which makes mode traces easy to
    /// aggregate.
    pub fn rung(&self) -> u8 {
        match self {
            FitMode::FreshPrior => 0,
            FitMode::StalePrior { .. } => 1,
            FitMode::LocalOnly => 2,
        }
    }

    /// Compact tag for logs and traces (`fresh`, `stale(age)`, `local`).
    pub fn tag(&self) -> String {
        match self {
            FitMode::FreshPrior => "fresh".to_string(),
            FitMode::StalePrior { age } => format!("stale({age})"),
            FitMode::LocalOnly => "local".to_string(),
        }
    }
}

impl fmt::Display for FitMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.tag())
    }
}

/// Counts of fits per [`FitMode`] rung — the "mode shares" reported by the
/// degraded-mode experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeShares {
    /// Fits served from a freshly fetched prior.
    pub fresh: u64,
    /// Fits served from the stale-prior cache.
    pub stale: u64,
    /// Fits that fell back to local-only ERM.
    pub local: u64,
}

impl ModeShares {
    /// Adds one fit to the tally.
    pub fn push(&mut self, mode: FitMode) {
        match mode {
            FitMode::FreshPrior => self.fresh += 1,
            FitMode::StalePrior { .. } => self.stale += 1,
            FitMode::LocalOnly => self.local += 1,
        }
    }

    /// Total fits tallied.
    pub fn total(&self) -> u64 {
        self.fresh + self.stale + self.local
    }
}

impl fmt::Display for ModeShares {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fresh={} stale={} local={}",
            self.fresh, self.stale, self.local
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rungs_are_ordered_and_tags_are_compact() {
        assert!(FitMode::FreshPrior.rung() < FitMode::StalePrior { age: 1 }.rung());
        assert!(FitMode::StalePrior { age: 9 }.rung() < FitMode::LocalOnly.rung());
        assert_eq!(FitMode::FreshPrior.tag(), "fresh");
        assert_eq!(FitMode::StalePrior { age: 3 }.to_string(), "stale(3)");
        assert_eq!(FitMode::LocalOnly.tag(), "local");
    }

    #[test]
    fn mode_shares_tally_traces() {
        let mut shares = ModeShares::default();
        for mode in [
            FitMode::FreshPrior,
            FitMode::FreshPrior,
            FitMode::StalePrior { age: 1 },
            FitMode::LocalOnly,
        ] {
            shares.push(mode);
        }
        assert_eq!(shares.fresh, 2);
        assert_eq!(shares.stale, 1);
        assert_eq!(shares.local, 1);
        assert_eq!(shares.total(), 4);
        assert_eq!(shares.to_string(), "fresh=2 stale=1 local=1");
    }
}
