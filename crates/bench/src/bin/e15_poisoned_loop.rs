//! E15 — poisoned closed loop: report admission vs a colluding Byzantine
//! cohort, swept over the adversarial fraction.
//!
//! The E14 closed loop (streaming `CloudLearner` refreshing the DP prior
//! from fleet `ModelReport`s) runs again with a colluding cohort riding
//! along: each round `A` adversary devices report one identical boosted
//! worst-case model (`ColludingBoost`, anti-correlated with the honest
//! decision functions) alongside `10 − A` honest reporters, so the
//! adversarial fraction of the report stream is exactly `A/10`. Every
//! `(fraction, admission)` cell replays the same scenario seed; the only
//! difference between the on/off arms is the learner's predictive-marginal
//! gate. Expected shape: with admission ON every poisoned report is gated
//! (`gated == A·rounds`), the colluders are quarantined, and accuracy
//! tracks the clean loop at every fraction; with admission OFF the poison
//! enters the filter and the fleet's worst round craters as the fraction
//! grows — the heaviest-component capture the gate exists to prevent.
//! `cargo run -p dre-bench --release --bin e15_poisoned_loop`, mirrored at
//! `results/e15.json`.

use dre_bench::closed_loop::{
    loop_admission, loopback_server, run, scenario, Cohort, LoopOutcome, ROUNDS,
};
use dre_bench::{fmt_f, Table};
use dre_learner::AdmissionConfig;
use dre_serve::ServeConfig;

/// Total reports per round (honest + adversarial), fixed so the swept
/// adversary counts {0, 1, 3, 5} land exactly on {0, 10, 30, 50}%.
const REPORTS_PER_ROUND: usize = 10;
const ADVERSARY_SWEEP: [usize; 4] = [0, 1, 3, 5];
const SCENARIO_SEED: u64 = 9_000;
const LEARNER_SEED: u64 = 42;
/// Noise band around the clean run used for the rounds-to-clean column.
const NOISE_BAND: f64 = 0.02;

/// One loop run at `adversaries` colluders per round alongside
/// `REPORTS_PER_ROUND − adversaries` honest reporters.
fn cohort(adversaries: usize, admission: Option<AdmissionConfig>) -> Cohort {
    Cohort {
        honest: REPORTS_PER_ROUND - adversaries,
        adversaries,
        learner_seed: LEARNER_SEED,
        refresh: true,
        admission,
    }
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(SCENARIO_SEED);
    // The honest pool covers an all-honest round at every sweep point.
    let sc = scenario(seed, REPORTS_PER_ROUND * ROUNDS);

    // Clean reference: all-honest loop, no gate. Its final accuracy (minus
    // the documented noise band) is the bar for the rounds-to-clean column.
    let workers = ServeConfig::default().workers;
    let clean = run(&mut loopback_server(workers), &sc, &cohort(0, None));
    let clean_final = *clean.round_accuracy.last().unwrap();
    let target = clean_final - NOISE_BAND;

    let mut table = Table::new(
        "E15",
        "poisoned closed loop: admission gate vs colluding reporters, by adversary fraction",
        &[
            "adv-frac",
            "admission",
            "final-acc",
            "worst-acc",
            "rounds-to-clean",
            "absorbed",
            "gated",
            "quarantined",
        ],
    );

    for adv in ADVERSARY_SWEEP {
        let honest = REPORTS_PER_ROUND - adv;
        for (label, admission) in [
            ("on", Some(loop_admission(AdmissionConfig::default()))),
            ("off", None),
        ] {
            let replayed: LoopOutcome;
            let out = if adv == 0 && label == "off" {
                // Reuse the reference run rather than replaying it.
                &clean
            } else {
                replayed = run(&mut loopback_server(workers), &sc, &cohort(adv, admission));
                &replayed
            };

            // Deterministic accounting: the gate drops exactly the poisoned
            // stream and nothing else; with the gate off everything lands.
            if label == "on" {
                assert_eq!(
                    out.absorbed,
                    honest * ROUNDS,
                    "adv {adv}: honest report gated"
                );
                assert_eq!(
                    out.gated,
                    adv * ROUNDS,
                    "adv {adv}: poisoned report admitted"
                );
            } else {
                assert_eq!(out.gated, 0);
                assert_eq!(out.absorbed, REPORTS_PER_ROUND * ROUNDS);
            }

            let final_acc = *out.round_accuracy.last().unwrap();
            let worst = out
                .round_accuracy
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
            let rounds_to_clean = out
                .round_accuracy
                .iter()
                .position(|&a| a >= target)
                .map_or_else(|| "-".into(), |r| r.to_string());
            table.push_row(vec![
                format!("{}%", adv * 100 / REPORTS_PER_ROUND),
                label.into(),
                fmt_f(final_acc),
                fmt_f(worst),
                rounds_to_clean,
                out.absorbed.to_string(),
                out.gated.to_string(),
                out.quarantined.to_string(),
            ]);
        }
    }
    table.emit();
    println!(
        "clean reference: final accuracy {} (rounds-to-clean bar {})",
        fmt_f(clean_final),
        fmt_f(target)
    );
}
