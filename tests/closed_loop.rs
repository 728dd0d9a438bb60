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
//! 4. **Sharded fan-out** — driving the same loop through a
//!    `ShardedPriorPlane` leaves every owner replica with byte-identical
//!    refreshed payloads, and the fleet keeps improving.

use std::sync::Arc;

use dre_bench::closed_loop::{
    broad_prior, fast_policy, loop_admission, loop_learner, run, runtime_config, scenario,
    serve_config, Cohort, LoopOutcome, Scenario, EVALS, ROUNDS, TASK_ID,
};
use dre_learner::{admission_from_env, AdmissionConfig};
use dre_models::metrics;
use dre_serve::EdgeRuntime;
use dro_edge::FitMode;

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

/// The clean (or, with `refresh` off, frozen) loop.
fn clean_loop(sc: &Scenario, learner_seed: u64, refresh: bool) -> LoopOutcome {
    run(
        sc,
        &Cohort {
            honest: REPORTERS_PER_ROUND,
            adversaries: 0,
            learner_seed,
            refresh,
            admission: None,
        },
    )
}

/// The loop with a colluding feature-shift cohort riding along: every round
/// the honest reporters fit + report as usual, then the adversary devices
/// (persistent identities, monotone sequence numbers) report boosted
/// worst-case models.
fn poisoned_loop(sc: &Scenario, admission: Option<AdmissionConfig>) -> LoopOutcome {
    run(
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

/// The headline robustness claim, swept by CI under `DRE_ADMISSION ∈
/// {on, off}`: with admission ON a 37.5% colluding feature-shift cohort is
/// gated and eval accuracy stays within the documented noise band of the
/// clean run; with admission OFF the same cohort measurably degrades the
/// fleet. Both arms are bit-identical across reruns at two seeds.
#[test]
fn poisoned_fleet_is_gated_with_admission_on_and_degrades_with_it_off() {
    let admission = admission_from_env().map(loop_admission);
    for scenario_seed in [7_500, 9_100] {
        let sc = loop_scenario(scenario_seed);
        let clean = clean_loop(&sc, 42, true);

        match &admission {
            Some(cfg) => {
                let on = poisoned_loop(&sc, Some(cfg.clone()));
                assert_eq!(
                    on,
                    poisoned_loop(&sc, Some(cfg.clone())),
                    "seed {scenario_seed}: admission-on loop is not deterministic"
                );
                // Every adversarial report is refused; every honest report
                // is absorbed — so the served priors, and hence the eval
                // accuracies, match the clean loop round for round.
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
            }
            None => {
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
                // While the colluding cluster outnumbers the young honest
                // pool it owns the heaviest-component start: some early
                // round collapses far below anything the clean loop ever
                // shows. The honest pool eventually outgrows the fixed-rate
                // cohort, so the damage is front-loaded — which is exactly
                // what the mean-accuracy gap measures.
                let clean_mean =
                    clean.round_accuracy.iter().sum::<f64>() / clean.round_accuracy.len() as f64;
                let off_mean =
                    off.round_accuracy.iter().sum::<f64>() / off.round_accuracy.len() as f64;
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

#[test]
fn sharded_plane_refresh_fans_out_byte_identically() {
    use dre_serve::{ShardConnector, ShardPlaneConfig, ShardedPriorPlane};

    let sc = loop_scenario(7_500);
    // CI sweeps DRE_SERVE_SHARDS ∈ {1, 4} × DRE_SERVE_WORKERS ∈ {1, 4};
    // the replication-2 fan-out needs at least two shards to mean
    // anything, so the plane honours the environment's size with a floor.
    let shards = dre_serve::default_shards().max(2);
    let mut plane = ShardedPriorPlane::bind(ShardPlaneConfig {
        shards,
        replication: 2,
        serve: serve_config(),
        ..ShardPlaneConfig::default()
    })
    .unwrap();
    plane.register_prior(TASK_ID, &broad_prior());
    let owners = plane.shard_map().owners(TASK_ID);
    assert_eq!(owners.len(), 2, "replication 2 should give two owners");
    let directory = plane.directory();

    let mut eval_rts: Vec<_> = (0..EVALS)
        .map(|dev| {
            EdgeRuntime::new(
                ShardConnector::new(Arc::clone(&directory), TASK_ID),
                fast_policy(),
                runtime_config(false, 10_000 + dev as u64),
            )
        })
        .collect();

    let mut learner = loop_learner(42, None);
    let mut accs = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut acc = 0.0;
        for (dev, rt) in eval_rts.iter_mut().enumerate() {
            let data = &sc.evals[dev];
            let fit = rt.fit_step(&data.train).unwrap();
            assert_eq!(fit.mode, FitMode::FreshPrior, "eval {dev} degraded");
            acc += metrics::accuracy(&fit.model, data.test.features(), data.test.labels()).unwrap();
        }
        accs.push(acc / EVALS as f64);

        for dev in round * REPORTERS_PER_ROUND..(round + 1) * REPORTERS_PER_ROUND {
            let mut rt = EdgeRuntime::new(
                ShardConnector::new(Arc::clone(&directory), TASK_ID),
                fast_policy(),
                runtime_config(true, dev as u64),
            );
            let fit = rt.fit_step(&sc.reporters[dev]).unwrap();
            assert_eq!(fit.mode, FitMode::FreshPrior, "reporter {dev} degraded");
        }
        learner.step_plane(&mut plane).unwrap();
        learner.force_refresh(&mut plane).unwrap();

        // Every owner replica serves the refreshed payload byte-identically.
        let payloads: Vec<Vec<u8>> = owners
            .iter()
            .map(|&o| {
                plane
                    .handle(o)
                    .unwrap()
                    .state()
                    .prior_entry(TASK_ID)
                    .unwrap()
                    .payload
                    .as_ref()
                    .clone()
            })
            .collect();
        assert_eq!(
            payloads[0], payloads[1],
            "owner replicas diverged after a refresh"
        );
    }

    // The refreshed replicas actually fanned out (metric, not inference).
    assert!(plane.metrics().replica_fanouts >= ROUNDS as u64);
    // Same learning signal as the single-server loop.
    let first = accs[0];
    let last = *accs.last().unwrap();
    assert!(
        last > first + 0.01,
        "sharded closed loop never learned: {accs:?}"
    );
    plane.shutdown();
}
