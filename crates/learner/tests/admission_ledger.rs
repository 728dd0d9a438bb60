//! Property tests for the admission reputation ledger.
//!
//! Random report streams (interleaved devices, good and poisoned scores)
//! drive an armed [`AdmissionState`], checking the ledger's contract:
//!
//! 1. **Quarantine requires evidence** — a device is only ever tipped into
//!    quarantine after at least [`QUARANTINE_AFTER_GATED`] gated reports,
//!    the last [`QUARANTINE_AFTER_GATED`] of which were *consecutive*
//!    failures.
//! 2. **Determinism** — the same stream against the same seeded config
//!    replays to identical outcomes and an identical ledger, including
//!    probation probes and re-admissions.
//! 3. **Clean devices only rise** — a device whose reports always pass the
//!    gate has a monotone non-decreasing score and never leaves `Trusted`.

use dre_learner::{
    AdmissionConfig, AdmissionOutcome, AdmissionState, ReputationState, QUARANTINE_AFTER_GATED,
    SUSPECT_THRESHOLD,
};
use proptest::prelude::*;

const TASK: u64 = 1;
/// Margin such that `GOOD` always clears the gate and `BAD` never does:
/// the baseline window only ever holds `GOOD` scores, so the threshold is
/// pinned at `GOOD - margin`.
const GOOD: f64 = 0.0;
const BAD: f64 = -100.0;

fn armed_state(cfg: &AdmissionConfig) -> AdmissionState {
    let mut state = AdmissionState::new(cfg.clone()).unwrap();
    for _ in 0..cfg.warmup.max(4) {
        state.seed_baseline(TASK, GOOD);
    }
    assert!(state.gate_threshold(TASK).is_some(), "gate must be armed");
    state
}

fn config(seed: u64) -> AdmissionConfig {
    AdmissionConfig {
        warmup: 4,
        margin: 6.0,
        seed,
    }
}

/// Replays `stream` (device index, is-poisoned) and returns the outcome
/// trace plus the observable ledger fields for each device.
#[allow(clippy::type_complexity)]
fn run_stream(
    state: &mut AdmissionState,
    stream: &[(u64, u8)],
) -> (Vec<AdmissionOutcome>, Vec<(u64, u64, u64, u32)>) {
    let outcomes: Vec<AdmissionOutcome> = stream
        .iter()
        .map(|&(dev, bad)| state.admit(TASK, dev, Some(if bad == 1 { BAD } else { GOOD })))
        .collect();
    let ledger = stream
        .iter()
        .map(|&(dev, _)| dev)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|dev| {
            let rep = state.reputation(dev).expect("device reported");
            (dev, rep.admitted, rep.gated, rep.consecutive_gated)
        })
        .collect();
    (outcomes, ledger)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quarantine_needs_the_configured_consecutive_gated_run(
        stream in proptest::collection::vec((0u64..4, 0u8..2), 1..200),
        seed in 0u64..1_000,
    ) {
        let quarantine_after = QUARANTINE_AFTER_GATED;
        let mut state = armed_state(&config(seed));
        // Per-device history of gate outcomes (true = gated) while free.
        let mut gated_runs = std::collections::BTreeMap::<u64, u32>::new();
        let mut gated_totals = std::collections::BTreeMap::<u64, u64>::new();
        for &(dev, bad) in &stream {
            let bad = bad == 1;
            let outcome = state.admit(TASK, dev, Some(if bad { BAD } else { GOOD }));
            match outcome {
                AdmissionOutcome::Admitted => {
                    prop_assert!(!bad, "poisoned score {BAD} must never pass the gate");
                    gated_runs.insert(dev, 0);
                }
                AdmissionOutcome::Gated { quarantined_device } => {
                    prop_assert!(bad, "good score {GOOD} must never be gated");
                    let run = gated_runs.entry(dev).or_insert(0);
                    *run += 1;
                    let total = gated_totals.entry(dev).or_insert(0);
                    *total += 1;
                    if quarantined_device {
                        prop_assert!(
                            *run >= quarantine_after && *total >= u64::from(quarantine_after),
                            "device {dev} quarantined after a run of {run} \
                             (total {total}) < {quarantine_after}"
                        );
                        prop_assert_eq!(
                            state.reputation(dev).unwrap().state,
                            ReputationState::Quarantined
                        );
                    }
                }
                AdmissionOutcome::Quarantined { readmitted, .. } => {
                    // Counted and dropped; nothing reaches the filter. A
                    // re-admission resets the device to supervised standing.
                    if readmitted {
                        let rep = state.reputation(dev).unwrap();
                        prop_assert_eq!(rep.state, ReputationState::Suspect);
                        prop_assert_eq!(rep.score, SUSPECT_THRESHOLD);
                        gated_runs.insert(dev, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn same_seed_replays_probation_and_outcomes_bitwise(
        stream in proptest::collection::vec((0u64..3, 0u8..2), 1..200),
        seed in 0u64..1_000,
    ) {
        let cfg = config(seed);
        let (out_a, ledger_a) = run_stream(&mut armed_state(&cfg), &stream);
        let (out_b, ledger_b) = run_stream(&mut armed_state(&cfg), &stream);
        prop_assert_eq!(out_a, out_b);
        prop_assert_eq!(ledger_a, ledger_b);
    }

    #[test]
    fn clean_device_reputation_is_monotone_and_stays_trusted(
        noise in proptest::collection::vec((1u64..4, 0u8..2), 0..150),
        clean_every in 1usize..5,
        seed in 0u64..1_000,
    ) {
        // Device 0 only ever sends passing scores, interleaved with
        // arbitrary traffic from other devices (which may get themselves
        // gated and quarantined around it).
        let mut state = armed_state(&config(seed));
        let mut last_score = None::<f64>;
        for (i, &(dev, bad)) in noise.iter().enumerate() {
            state.admit(TASK, dev, Some(if bad == 1 { BAD } else { GOOD }));
            if i % clean_every == 0 {
                let outcome = state.admit(TASK, 0, Some(GOOD));
                prop_assert!(outcome.admitted(), "clean report refused");
                let rep = state.reputation(0).unwrap();
                prop_assert_eq!(rep.state, ReputationState::Trusted);
                prop_assert_eq!(rep.gated, 0);
                if let Some(prev) = last_score {
                    prop_assert!(
                        rep.score >= prev,
                        "clean device score fell from {} to {}",
                        prev,
                        rep.score
                    );
                }
                last_score = Some(rep.score);
            }
        }
    }
}
