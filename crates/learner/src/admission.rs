//! Deterministic Byzantine-robust report admission: predictive gating plus
//! a per-device reputation ledger.
//!
//! The cloud already computes the one quantity that separates honest
//! reports from poisoned ones — the SIR filter's collapsed predictive
//! marginal `log p(x | reports so far)`
//! ([`SirDpFilter::predictive_log_marginal`](crate::SirDpFilter::predictive_log_marginal)).
//! Honest edge models land where the DP posterior expects mass; a colluding
//! cohort pushing a shifted model lands in the tail, orders of magnitude
//! less likely. Admission turns that score into a gate:
//!
//! ```text
//!   admit(x)  ⇔  score(x) ≥ Q_q(recent admitted scores) − margin
//! ```
//!
//! where `Q_q` is the [`GATE_QUANTILE`]-quantile of a rolling window of
//! the last [`SCORE_WINDOW`] **admitted** scores (per task). Seeding the
//! baseline only with admitted scores keeps an adversarial flood from
//! dragging its own threshold down. Until the window holds `warmup` scores
//! the gate admits everything — the baseline has to be seeded by someone,
//! and a cold filter scores everyone poorly.
//!
//! Per-device outcomes feed a reputation ledger:
//!
//! ```text
//!            EWMA < SUSPECT_THRESHOLD            consecutive gated ≥ N
//!  Trusted ───────────────────────────▶ Suspect ─────────────────────▶ Quarantined
//!     ▲                                    │  ▲                            │
//!     └──── EWMA ≥ TRUSTED_THRESHOLD ──────┘  └── probation passes ≥ M ────┘
//! ```
//!
//! with `N` = [`QUARANTINE_AFTER_GATED`] and `M` = [`PROBATION_PASSES`]. A
//! quarantined device's reports are **counted but never touch the
//! filter**. Every [`PROBATION_INTERVAL`] steps (offset by a seeded,
//! device-specific phase so cohorts do not probe in lockstep) one report is
//! *probed* — scored against the gate without being absorbed — and `M`
//! consecutive probe passes re-admit the device as Suspect. Everything runs
//! on the learner's logical step clock with seeded arithmetic only, so the
//! same report stream always replays to the bit.

use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};

use crate::sir::mix_seed;
use crate::{LearnerError, Result};

/// Rolling window length of admitted scores per task.
pub const SCORE_WINDOW: usize = 64;
/// Baseline quantile of the score window (lower-index order statistic).
pub const GATE_QUANTILE: f64 = 0.1;
/// EWMA step for the per-device reputation score.
pub const EWMA_ALPHA: f64 = 0.2;
/// A trusted device whose EWMA falls below this becomes suspect.
pub const SUSPECT_THRESHOLD: f64 = 0.35;
/// A suspect device whose EWMA recovers past this becomes trusted.
pub const TRUSTED_THRESHOLD: f64 = 0.7;
/// A suspect device is quarantined after this many *consecutive* gated
/// reports (never sooner, regardless of EWMA).
pub const QUARANTINE_AFTER_GATED: u32 = 3;
/// A quarantined device is probed once every this many admission steps
/// (phase-offset per device by [`AdmissionConfig::seed`]).
pub const PROBATION_INTERVAL: u64 = 8;
/// Consecutive probe passes required to re-admit as suspect.
pub const PROBATION_PASSES: u32 = 2;

/// Configuration for [`AdmissionState`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Admit everything (per task) until the rolling window holds this many
    /// admitted scores — the baseline seeding phase.
    pub warmup: usize,
    /// Slack in nats below the quantile before the gate trips.
    pub margin: f64,
    /// Seed for the per-device probation phase offsets.
    pub seed: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            // Matches the learner's default `min_reports_for_base`: the
            // base cohort's seeded marginals arm the gate at filter birth.
            warmup: 4,
            margin: 6.0,
            seed: 0,
        }
    }
}

impl AdmissionConfig {
    fn validate(&self) -> Result<()> {
        if self.warmup == 0 {
            return Err(LearnerError::InvalidConfig {
                reason: "admission warmup must be positive",
            });
        }
        if !(self.margin.is_finite() && self.margin >= 0.0) {
            return Err(LearnerError::InvalidConfig {
                reason: "admission margin must be finite and non-negative",
            });
        }
        Ok(())
    }
}

/// Where a device stands in the ledger's state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReputationState {
    /// Normal standing: reports are gated individually.
    Trusted,
    /// EWMA dipped below the suspect threshold; still gated individually,
    /// but consecutive gate failures now count toward quarantine.
    Suspect,
    /// Reports are counted and dropped; only seeded probes are scored.
    Quarantined,
}

/// Ledger entry for one reporting device.
#[derive(Debug, Clone)]
pub struct DeviceReputation {
    /// Current state-machine position.
    pub state: ReputationState,
    /// EWMA of gate outcomes (pass = 1, gated = 0), started at `0.5`.
    pub score: f64,
    /// Reports this device got past the gate.
    pub admitted: u64,
    /// Reports gated (excluding quarantine drops).
    pub gated: u64,
    /// Current run of consecutive gated reports.
    pub consecutive_gated: u32,
    /// Consecutive probation probe passes while quarantined.
    pub probation_passes: u32,
    /// Seeded phase for this device's probation schedule.
    probation_phase: u64,
}

impl DeviceReputation {
    fn new(seed: u64, device_id: u64) -> DeviceReputation {
        DeviceReputation {
            state: ReputationState::Trusted,
            score: 0.5,
            admitted: 0,
            gated: 0,
            consecutive_gated: 0,
            probation_passes: 0,
            probation_phase: mix_seed(seed, 0x5EED, device_id) % PROBATION_INTERVAL,
        }
    }
}

/// What [`AdmissionState::admit`] decided for one report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// The report may be absorbed into the filter.
    Admitted,
    /// The score failed the gate; the report must not touch the filter.
    Gated {
        /// This failure tipped the device into quarantine.
        quarantined_device: bool,
    },
    /// The device is quarantined; the report is counted and dropped.
    Quarantined {
        /// This step was a scheduled probation probe.
        probed: bool,
        /// The probe completed the pass streak; the device is re-admitted
        /// (as suspect) starting with its *next* report.
        readmitted: bool,
    },
}

impl AdmissionOutcome {
    /// Whether the report may be absorbed into the filter.
    pub fn admitted(&self) -> bool {
        matches!(self, AdmissionOutcome::Admitted)
    }
}

/// One task's rolling window of admitted scores, kept in arrival order to
/// evict the oldest and sorted to read the gate's quantile without sorting
/// per report. Equal scores keep arrival order in the sorted copy, so it is
/// always exactly the stable sort of the arrival order.
#[derive(Debug, Clone, Default)]
struct ScoreWindow {
    arrivals: VecDeque<f64>,
    sorted: Vec<f64>,
}

impl ScoreWindow {
    /// Appends `score`, then evicts the oldest scores beyond `cap`.
    fn push(&mut self, score: f64, cap: usize) {
        // After every equal score: they all arrived earlier.
        let at = self.sorted.partition_point(|v| {
            v.partial_cmp(&score).expect("scores are finite") != Ordering::Greater
        });
        self.sorted.insert(at, score);
        self.arrivals.push_back(score);
        while self.arrivals.len() > cap {
            let oldest = self.arrivals.pop_front().expect("window is over its cap");
            // The first of its equal scores: none arrived before it.
            let at = self.sorted.partition_point(|v| *v < oldest);
            self.sorted.remove(at);
        }
    }
}

/// Deterministic admission controller (see module docs).
#[derive(Debug, Clone)]
pub struct AdmissionState {
    config: AdmissionConfig,
    /// Per-device ledger, in `BTreeMap` so iteration (and hence any derived
    /// output) is ordered and replayable.
    ledger: BTreeMap<u64, DeviceReputation>,
    /// Per-task rolling windows of admitted scores.
    windows: BTreeMap<u64, ScoreWindow>,
    /// Logical step clock: one tick per scored report, shared across tasks.
    step: u64,
    gated_total: u64,
    quarantine_events: u64,
}

impl AdmissionState {
    /// Creates an empty controller.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range configuration.
    pub fn new(config: AdmissionConfig) -> Result<AdmissionState> {
        config.validate()?;
        Ok(AdmissionState {
            config,
            ledger: BTreeMap::new(),
            windows: BTreeMap::new(),
            step: 0,
            gated_total: 0,
            quarantine_events: 0,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Logical steps taken (reports decided) so far.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Reports refused so far (gated plus quarantine drops).
    pub fn gated_total(&self) -> u64 {
        self.gated_total
    }

    /// Devices tipped into quarantine so far (transitions, not population).
    pub fn quarantine_events(&self) -> u64 {
        self.quarantine_events
    }

    /// Ledger entry for `device_id`, if it ever reported.
    pub fn reputation(&self, device_id: u64) -> Option<&DeviceReputation> {
        self.ledger.get(&device_id)
    }

    /// Current gate threshold for `task_id`: the [`GATE_QUANTILE`] of the
    /// rolling admitted-score window minus the margin, or `None` while the
    /// window is still warming up.
    pub fn gate_threshold(&self, task_id: u64) -> Option<f64> {
        let sorted = &self.windows.get(&task_id)?.sorted;
        if sorted.len() < self.config.warmup {
            return None;
        }
        let idx = (GATE_QUANTILE * (sorted.len() - 1) as f64).floor() as usize;
        Some(sorted[idx] - self.config.margin)
    }

    /// Pushes a score into `task_id`'s rolling baseline without taking an
    /// admission decision — used to arm the gate with the base cohort's
    /// own marginals the moment a task's filter is born.
    pub fn seed_baseline(&mut self, task_id: u64, score: f64) {
        self.windows
            .entry(task_id)
            .or_default()
            .push(score, SCORE_WINDOW);
    }

    /// Decides one report. `score` is the filter's collapsed predictive
    /// log-marginal for the report, or `None` while the task's filter has
    /// not been born yet (pre-base reports are never gated, but quarantine
    /// still holds and the ledger still advances).
    pub fn admit(&mut self, task_id: u64, device_id: u64, score: Option<f64>) -> AdmissionOutcome {
        self.step += 1;
        let threshold = self.gate_threshold(task_id);
        // The gate passes when there is nothing to compare against: no
        // score (filter unborn) or no baseline (window warming up).
        let passes = match (score, threshold) {
            (Some(s), Some(t)) => s >= t,
            _ => true,
        };
        let seed = self.config.seed;
        let dev = self
            .ledger
            .entry(device_id)
            .or_insert_with(|| DeviceReputation::new(seed, device_id));

        if dev.state == ReputationState::Quarantined {
            self.gated_total += 1;
            let probe = self
                .step
                .wrapping_add(dev.probation_phase)
                .is_multiple_of(PROBATION_INTERVAL);
            if !probe {
                return AdmissionOutcome::Quarantined {
                    probed: false,
                    readmitted: false,
                };
            }
            if passes {
                dev.probation_passes += 1;
                if dev.probation_passes >= PROBATION_PASSES {
                    dev.state = ReputationState::Suspect;
                    dev.score = SUSPECT_THRESHOLD;
                    dev.consecutive_gated = 0;
                    dev.probation_passes = 0;
                    return AdmissionOutcome::Quarantined {
                        probed: true,
                        readmitted: true,
                    };
                }
            } else {
                dev.probation_passes = 0;
            }
            return AdmissionOutcome::Quarantined {
                probed: true,
                readmitted: false,
            };
        }

        if passes {
            dev.admitted += 1;
            dev.consecutive_gated = 0;
            dev.score += EWMA_ALPHA * (1.0 - dev.score);
            if dev.state == ReputationState::Suspect && dev.score >= TRUSTED_THRESHOLD {
                dev.state = ReputationState::Trusted;
            }
            if let Some(s) = score {
                self.windows
                    .entry(task_id)
                    .or_default()
                    .push(s, SCORE_WINDOW);
            }
            AdmissionOutcome::Admitted
        } else {
            dev.gated += 1;
            dev.consecutive_gated += 1;
            self.gated_total += 1;
            dev.score *= 1.0 - EWMA_ALPHA;
            if dev.state == ReputationState::Trusted && dev.score < SUSPECT_THRESHOLD {
                dev.state = ReputationState::Suspect;
            }
            let quarantined_device = dev.state == ReputationState::Suspect
                && dev.consecutive_gated >= QUARANTINE_AFTER_GATED;
            if quarantined_device {
                dev.state = ReputationState::Quarantined;
                dev.probation_passes = 0;
                self.quarantine_events += 1;
            }
            AdmissionOutcome::Gated { quarantined_device }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn score_window_keeps_the_stable_sort_of_its_arrivals(
            picks in proptest::collection::vec(0usize..6, 1..160),
            cap in 1usize..70,
        ) {
            // Few distinct values, so ties (and the equal-comparing ±0) are
            // common and eviction must remove exactly the oldest one.
            let values = [-3.5, -1.0, -0.0, 0.0, 2.0, f64::NEG_INFINITY];
            let mut window = ScoreWindow::default();
            for i in picks {
                window.push(values[i], cap);
                let mut expected: Vec<f64> = window.arrivals.iter().copied().collect();
                expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&window.sorted), bits(&expected));
                prop_assert!(window.arrivals.len() <= cap);
            }
        }
    }

    fn warmed(config: AdmissionConfig) -> AdmissionState {
        let mut adm = AdmissionState::new(config).unwrap();
        // Seed the task-0 baseline with scores near -2.
        for i in 0..32 {
            let outcome = adm.admit(0, 1000 + i, Some(-2.0 - 0.01 * i as f64));
            assert!(outcome.admitted(), "warmup admits everything");
        }
        assert!(adm.gate_threshold(0).is_some(), "baseline warmed");
        adm
    }

    #[test]
    fn warmup_admits_then_tail_scores_are_gated() {
        let mut adm = warmed(AdmissionConfig::default());
        let t = adm.gate_threshold(0).unwrap();
        // Quantile 0.1 of [-2.31, -2.00] minus margin 6 ≈ -8.3.
        assert!(t < -8.0 && t > -9.0, "threshold {t}");
        assert!(adm.admit(0, 1, Some(-3.0)).admitted(), "inlier passes");
        assert_eq!(
            adm.admit(0, 2, Some(-50.0)),
            AdmissionOutcome::Gated {
                quarantined_device: false
            }
        );
        assert_eq!(adm.gated_total(), 1);
    }

    #[test]
    fn ledger_walks_trusted_suspect_quarantined_and_probation_readmits() {
        let mut adm = warmed(AdmissionConfig::default());
        let dev = 7u64;
        // Three consecutive gated reports: EWMA 0.5 → 0.4 → 0.32 (suspect)
        // → 0.256, third consecutive failure quarantines.
        for i in 0..3 {
            let out = adm.admit(0, dev, Some(-100.0));
            let quarantined = matches!(
                out,
                AdmissionOutcome::Gated {
                    quarantined_device: true
                }
            );
            assert_eq!(quarantined, i == 2, "step {i}: {out:?}");
        }
        assert_eq!(
            adm.reputation(dev).unwrap().state,
            ReputationState::Quarantined
        );
        // The only quarantine event is this device's.
        assert_eq!(adm.quarantine_events(), 1);

        // Quarantined reports are dropped; feed good scores until the
        // seeded probe schedule re-admits (2 consecutive probe passes).
        let mut steps = 0;
        loop {
            steps += 1;
            assert!(steps < 64, "probation must terminate");
            match adm.admit(0, dev, Some(-2.1)) {
                AdmissionOutcome::Quarantined {
                    readmitted: true, ..
                } => break,
                AdmissionOutcome::Quarantined { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(adm.reputation(dev).unwrap().state, ReputationState::Suspect);
        // Re-admitted: the next clean report is absorbed again.
        assert!(adm.admit(0, dev, Some(-2.1)).admitted());
    }

    #[test]
    fn admitted_scores_feed_the_window_but_gated_scores_do_not() {
        let mut adm = warmed(AdmissionConfig::default());
        let before = adm.gate_threshold(0).unwrap();
        // A burst of gated garbage must not drag the baseline down.
        for i in 0..20 {
            let _ = adm.admit(0, 200 + i, Some(-500.0));
        }
        assert_eq!(adm.gate_threshold(0).unwrap(), before);
    }

    #[test]
    fn same_stream_replays_bitwise() {
        let run = || {
            let mut adm = AdmissionState::new(AdmissionConfig::default()).unwrap();
            let mut outcomes = Vec::new();
            for i in 0..200u64 {
                let dev = i % 7;
                let score = if dev == 3 {
                    -400.0
                } else {
                    -2.0 - (i as f64) * 0.001
                };
                outcomes.push(adm.admit(0, dev, Some(score)));
            }
            (outcomes, adm.gated_total(), adm.quarantine_events())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rejects_bad_configs() {
        for bad in [
            AdmissionConfig {
                warmup: 0,
                ..AdmissionConfig::default()
            },
            AdmissionConfig {
                margin: -1.0,
                ..AdmissionConfig::default()
            },
            AdmissionConfig {
                margin: f64::NAN,
                ..AdmissionConfig::default()
            },
        ] {
            assert!(AdmissionState::new(bad).is_err());
        }
    }
}
