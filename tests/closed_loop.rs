//! Closed-loop fleet: edge reports feed the streaming cloud learner, which
//! refreshes the served DP prior between rounds — accuracy climbs as the
//! prior learns.
//!
//! The scenario deliberately starts from an **uninformative** prior (one
//! broad zero-centered component): round 1 is as good as regularized local
//! fitting. A reporter cohort with enough local data fits well anyway and
//! reports its models; the [`CloudLearner`] clusters those reports and
//! publishes a refreshed prior, so the few-shot **eval cohort**'s later
//! rounds approach the accuracy it would get from the full batch-fitted
//! cloud prior. The assertions pin:
//!
//! 1. **Learning** — eval accuracy improves round-over-round (within a
//!    small documented noise band) and ends clearly above both its own
//!    first round and the frozen-prior baseline, whose rounds are
//!    bit-identical to each other.
//! 2. **Zero-reconnect refresh** — keep-alive eval clients observe every
//!    refreshed generation over one TCP connection: `connections == 1`,
//!    reuse grows with the rounds, and the server generation climbs once
//!    per refresh.
//! 3. **Determinism** — the whole closed loop is bit-identical across
//!    reruns at two fixed seeds (round accuracies, final models, and the
//!    final refreshed prior payload).
//! 4. **Any plane** — the whole outcome is the same over a 1-worker and a
//!    4-worker server, and driving the same loop through a
//!    `ShardedPriorPlane` leaves every owner replica with byte-identical
//!    refreshed payloads and reproduces the single server's accuracies,
//!    models and prior bit for bit.

use dre_bench::closed_loop::{
    loop_admission, loopback_server, run, scenario, serve_config, Cohort, LoopOutcome, Plane,
    Scenario, ROUNDS, TASK_ID,
};
use dre_learner::AdmissionConfig;
use dre_serve::{ServeConfig, ShardPlaneConfig, ShardedPriorPlane};

/// Reporters joining the fleet per round; each device reports its fitted
/// model exactly once, so the learner sees a growing pool of distinct
/// source models rather than re-counting the same cohort every round.
const REPORTERS_PER_ROUND: usize = 5;
/// Colluding Byzantine reporters joining the poisoned loop each round:
/// 3 adversaries alongside the 5 honest reporters is a 37.5% adversarial
/// fraction, above the 30% bar the robustness claim is made at.
const ADVERSARIES_PER_ROUND: usize = 3;
/// Documented round-accuracy noise band (same one the clean loop pins).
const NOISE_BAND: f64 = 0.02;

/// The loop scenario at `seed`: the reporter pool plus a few-shot eval
/// cohort drawn (like the chaos harness) from tasks where a *learned*
/// cluster prior genuinely helps the few-shot fit — the property the
/// closed loop is supposed to restore online.
fn loop_scenario(seed: u64) -> Scenario {
    scenario(seed, REPORTERS_PER_ROUND * ROUNDS)
}

/// The clean (or, with `refresh` off, frozen) cohort.
fn clean_cohort(learner_seed: u64, refresh: bool) -> Cohort {
    Cohort {
        honest: REPORTERS_PER_ROUND,
        adversaries: 0,
        learner_seed,
        refresh,
        admission: None,
    }
}

/// The clean (or frozen) loop over a default-sized loopback server.
fn clean_loop(sc: &Scenario, learner_seed: u64, refresh: bool) -> LoopOutcome {
    run(
        &mut loopback_server(ServeConfig::default().workers),
        sc,
        &clean_cohort(learner_seed, refresh),
    )
}

/// The loop with a colluding feature-shift cohort riding along: every round
/// the honest reporters fit + report as usual, then the adversary devices
/// (persistent identities, monotone sequence numbers) report boosted
/// worst-case models.
fn poisoned_loop(sc: &Scenario, admission: Option<AdmissionConfig>) -> LoopOutcome {
    run(
        &mut loopback_server(ServeConfig::default().workers),
        sc,
        &Cohort {
            honest: REPORTERS_PER_ROUND,
            adversaries: ADVERSARIES_PER_ROUND,
            learner_seed: 42,
            refresh: true,
            admission,
        },
    )
}

/// The headline robustness claim, both arms: with admission ON a 37.5%
/// colluding feature-shift cohort is gated and eval accuracy stays within
/// the documented noise band of the clean run; with admission OFF the same
/// cohort measurably degrades the fleet. Both arms are bit-identical
/// across reruns at two seeds.
#[test]
fn poisoned_fleet_is_gated_with_admission_on_and_degrades_with_it_off() {
    for scenario_seed in [7_500, 9_100] {
        let sc = loop_scenario(scenario_seed);
        let clean = clean_loop(&sc, 42, true);

        let admission = Some(loop_admission(AdmissionConfig::default()));
        let on = poisoned_loop(&sc, admission.clone());
        assert_eq!(
            on,
            poisoned_loop(&sc, admission),
            "seed {scenario_seed}: admission-on loop is not deterministic"
        );
        // Every adversarial report is refused; every honest report is
        // absorbed — so the served priors, and hence the eval accuracies,
        // match the clean loop round for round.
        assert_eq!(
            on.absorbed,
            REPORTERS_PER_ROUND * ROUNDS,
            "honest reports must all be absorbed"
        );
        assert_eq!(
            on.gated,
            ADVERSARIES_PER_ROUND * ROUNDS,
            "every adversarial report must be refused"
        );
        assert_eq!(
            on.quarantined, ADVERSARIES_PER_ROUND,
            "each colluding device ends up quarantined"
        );
        for (r, (p, c)) in on
            .round_accuracy
            .iter()
            .zip(&clean.round_accuracy)
            .enumerate()
        {
            assert!(
                (p - c).abs() <= NOISE_BAND,
                "round {r}: admission-on accuracy {p:.4} left the \
                 clean noise band around {c:.4}"
            );
        }

        let off = poisoned_loop(&sc, None);
        assert_eq!(
            off,
            poisoned_loop(&sc, None),
            "seed {scenario_seed}: admission-off loop is not deterministic"
        );
        assert_eq!(off.gated, 0);
        assert_eq!(
            off.absorbed,
            (REPORTERS_PER_ROUND + ADVERSARIES_PER_ROUND) * ROUNDS,
            "without admission the poison reaches the filter"
        );
        // While the colluding cluster outnumbers the young honest pool it
        // owns the heaviest-component start: some early round collapses far
        // below anything the clean loop ever shows. The honest pool
        // eventually outgrows the fixed-rate cohort, so the damage is
        // front-loaded — which is exactly what the mean-accuracy gap
        // measures.
        let clean_mean =
            clean.round_accuracy.iter().sum::<f64>() / clean.round_accuracy.len() as f64;
        let off_mean = off.round_accuracy.iter().sum::<f64>() / off.round_accuracy.len() as f64;
        assert!(
            off_mean < clean_mean - NOISE_BAND,
            "seed {scenario_seed}: the unguarded poisoned fleet \
             (mean {off_mean:.4}) should measurably trail the clean \
             fleet (mean {clean_mean:.4})"
        );
        let clean_worst = clean
            .round_accuracy
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let off_worst = off
            .round_accuracy
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(
            off_worst < clean_worst - 0.1,
            "seed {scenario_seed}: the capture round ({off_worst:.4}) \
             should collapse well below the clean loop's worst round \
             ({clean_worst:.4})"
        );
    }
}

#[test]
fn refreshed_prior_fleet_learns_while_the_frozen_fleet_stays_flat() {
    let sc = loop_scenario(7_500);
    let refreshed = clean_loop(&sc, 42, true);
    let frozen = clean_loop(&sc, 42, false);

    // The learner really consumed the fleet's reports (each reporter
    // device reports exactly once, in its joining round).
    assert_eq!(refreshed.absorbed, REPORTERS_PER_ROUND * ROUNDS);
    assert_eq!(frozen.absorbed, 0);

    // Frozen baseline: the prior never changes, so every round's eval fits
    // are bit-identical and so is the accuracy.
    for (r, acc) in frozen.round_accuracy.iter().enumerate() {
        assert_eq!(
            *acc, frozen.round_accuracy[0],
            "frozen round {r} drifted without a prior change"
        );
    }
    assert_eq!(
        frozen.generations[ROUNDS - 1],
        frozen.generations[0],
        "frozen server must not bump generations"
    );

    // Refresh: one generation bump per round (one publish per round).
    for (r, w) in refreshed.generations.windows(2).enumerate() {
        assert_eq!(w[1], w[0] + 1, "round {} did not publish a refresh", r + 1);
    }

    // Learning: round 0 measures before any refresh, so it matches the
    // frozen fleet bit-for-bit; later rounds climb within a small noise
    // band and end clearly above both the frozen fleet and the refreshed
    // fleet's own start.
    assert_eq!(refreshed.round_accuracy[0], frozen.round_accuracy[0]);
    let accs = &refreshed.round_accuracy;
    // The climb is steep round 0 → 1 and flattens after; late rounds
    // wobble as additional reports re-shape already-good components (the
    // observed trajectory is ~0.76, 0.89, 0.90, 0.91, 0.89), so the
    // monotonicity check allows a two-percentage-point noise band.
    let noise_band = 0.02;
    for (r, w) in accs.windows(2).enumerate() {
        assert!(
            w[1] >= w[0] - noise_band,
            "round {} accuracy regressed beyond the noise band: {:?}",
            r + 1,
            accs
        );
    }
    let first = accs[0];
    let last = *accs.last().unwrap();
    assert!(
        last > first + 0.01,
        "closed loop never learned: first {first:.4}, last {last:.4} ({accs:?})"
    );
    assert!(
        last > *frozen.round_accuracy.last().unwrap() + 0.01,
        "refreshed fleet ({last:.4}) must clearly beat the frozen fleet \
         ({:.4})",
        frozen.round_accuracy.last().unwrap()
    );

    // Zero-reconnect refresh: every eval client observed all the refreshed
    // generations over a single keep-alive connection.
    for (dev, (connections, reused)) in refreshed.eval_connections.iter().enumerate() {
        assert_eq!(*connections, 1, "eval {dev} reconnected to see a refresh");
        assert_eq!(
            *reused,
            ROUNDS as u64 - 1,
            "eval {dev} did not stream all rounds over one connection"
        );
    }
}

#[test]
fn closed_loop_is_bit_identical_across_reruns_at_fixed_seeds() {
    for scenario_seed in [7_500, 9_100] {
        let sc = loop_scenario(scenario_seed);
        let a = clean_loop(&sc, 42, true);
        let b = clean_loop(&sc, 42, true);
        assert_eq!(
            a, b,
            "seed {scenario_seed}: closed loop is not deterministic"
        );
        assert!(!a.final_payload.is_empty());
        // A different learner seed explores different particle streams but
        // the published prior still reflects the same reports — only the
        // bytes may differ, not the absorb accounting.
        let c = clean_loop(&sc, 43, true);
        assert_eq!(c.absorbed, a.absorbed);
    }
}

/// The 1-worker server is the degenerate scheduling case, where any
/// multiplexing bug serializes into a visible hang; the default 4 workers
/// hand connections across event loops. The whole outcome must not see
/// the difference, so every assertion above holds at either count.
#[test]
fn loop_outcome_is_the_same_at_one_and_four_workers() {
    for scenario_seed in [7_500, 9_100] {
        let sc = loop_scenario(scenario_seed);
        for adversaries in [0, ADVERSARIES_PER_ROUND] {
            for admission in [None, Some(loop_admission(AdmissionConfig::default()))] {
                for refresh in [true, false] {
                    let cohort = Cohort {
                        adversaries,
                        admission: admission.clone(),
                        ..clean_cohort(42, refresh)
                    };
                    assert_eq!(
                        run(&mut loopback_server(1), &sc, &cohort),
                        run(&mut loopback_server(4), &sc, &cohort),
                        "seed {scenario_seed}: {cohort:?}"
                    );
                }
            }
        }
    }
}

/// A loopback plane of `shards` shards with two replicas per task.
fn sharded_plane(shards: usize) -> ShardedPriorPlane {
    ShardedPriorPlane::bind(ShardPlaneConfig {
        shards,
        replication: 2,
        serve: serve_config(),
        ..ShardPlaneConfig::default()
    })
    .unwrap()
}

#[test]
fn sharded_plane_refresh_fans_out_byte_identically() {
    let sc = loop_scenario(7_500);
    let mut plane = sharded_plane(4);
    let owners = plane.shard_map().owners(TASK_ID);
    assert_eq!(owners.len(), 2, "replication 2 should give two owners");
    // `run` checks after every refresh that every owner replica serves the
    // refreshed payload byte-identically.
    let out = run(&mut plane, &sc, &clean_cohort(42, true));
    assert_eq!(plane.replica_payloads(TASK_ID).len(), owners.len());

    // The refreshed replicas actually fanned out (metric, not inference).
    assert!(plane.metrics().replica_fanouts >= ROUNDS as u64);
    // Same learning signal as the single-server loop.
    let accs = &out.round_accuracy;
    let (first, last) = (accs[0], accs[ROUNDS - 1]);
    assert!(
        last > first + 0.01,
        "sharded closed loop never learned: {accs:?}"
    );
    plane.shutdown();
}

#[test]
fn sharded_plane_loop_matches_the_single_server() {
    for scenario_seed in [7_500, 9_100] {
        let sc = loop_scenario(scenario_seed);
        let cohort = clean_cohort(42, true);
        let single = clean_loop(&sc, 42, true);
        for shards in [2, 4] {
            let sharded = run(&mut sharded_plane(shards), &sc, &cohort);
            assert_eq!(
                (
                    &sharded.round_accuracy,
                    &sharded.final_models,
                    &sharded.final_payload,
                    sharded.absorbed
                ),
                (
                    &single.round_accuracy,
                    &single.final_models,
                    &single.final_payload,
                    single.absorbed
                ),
                "seed {scenario_seed}, {shards} shards"
            );
        }
    }
}
