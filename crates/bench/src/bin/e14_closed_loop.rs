//! E14 — closed-loop online prior refresh: round-over-round fleet accuracy
//! as the streaming `CloudLearner` folds edge `ModelReport`s into a SIR
//! particle filter and republishes the DP prior between rounds.
//!
//! The loop starts from an **uninformative** prior (one broad zero-centered
//! component), so round 0 is as good as regularized local fitting. Each
//! round a fresh cohort of data-rich reporter devices joins, fits through
//! the real `EdgeRuntime` over loopback TCP, and reports its packed model
//! exactly once; the learner drains the server inbox, updates the filter,
//! and publishes a refreshed prior. A few-shot **eval cohort** — drawn from
//! tasks where a learned cluster prior genuinely helps — is measured
//! *before* each round's refresh. Expected shape: the frozen-prior baseline
//! is bit-flat across rounds while the refreshed fleet climbs steeply after
//! the first refresh and ends near the batch-prior ceiling; every eval
//! client sees every refreshed generation over a single keep-alive
//! connection (`conns == 1` throughout).

use dre_bench::closed_loop::{loopback_server, run, scenario, Cohort, ROUNDS};
use dre_bench::{fmt_f, Table};
use dre_serve::ServeConfig;

const REPORTERS_PER_ROUND: usize = 5;
const SCENARIO_SEED: u64 = 7_500;
const LEARNER_SEED: u64 = 42;

fn main() {
    let sc = scenario(SCENARIO_SEED, REPORTERS_PER_ROUND * ROUNDS);
    let cohort = |refresh| Cohort {
        honest: REPORTERS_PER_ROUND,
        adversaries: 0,
        learner_seed: LEARNER_SEED,
        refresh,
        admission: None,
    };
    let workers = ServeConfig::default().workers;
    let frozen_run = run(&mut loopback_server(workers), &sc, &cohort(false));
    let refreshed_run = run(&mut loopback_server(workers), &sc, &cohort(true));
    for outcome in [&frozen_run, &refreshed_run] {
        for (dev, (connections, _)) in outcome.eval_connections.iter().enumerate() {
            assert_eq!(*connections, 1, "eval {dev} reconnected mid-loop");
        }
    }
    let frozen = &frozen_run.round_accuracy;
    let refreshed = &refreshed_run.round_accuracy;
    // The ceiling the streaming learner approximates: the same eval cohort
    // under the full offline batch-fitted cloud prior.
    let ceiling = sc.batch_prior_ceiling();

    let mut table = Table::new(
        "E14",
        "closed-loop online prior refresh: eval accuracy per round, frozen vs refreshed",
        &[
            "round",
            "frozen-acc",
            "refreshed-acc",
            "delta",
            "generation",
            "reports-seen",
        ],
    );
    for r in 0..ROUNDS {
        table.push_row(vec![
            r.to_string(),
            fmt_f(frozen[r]),
            fmt_f(refreshed[r]),
            fmt_f(refreshed[r] - frozen[r]),
            refreshed_run.generations[r].to_string(),
            (r * REPORTERS_PER_ROUND).to_string(),
        ]);
    }
    table.push_row(vec![
        "batch-prior".into(),
        "-".into(),
        fmt_f(ceiling),
        fmt_f(ceiling - frozen[0]),
        "-".into(),
        (REPORTERS_PER_ROUND * ROUNDS).to_string(),
    ]);
    table.emit();

    let (absorbed, frozen_absorbed) = (refreshed_run.absorbed, frozen_run.absorbed);
    println!(
        "learner absorbed {absorbed} reports ({frozen_absorbed} when frozen); every eval \
         device held one keep-alive connection across all {ROUNDS} rounds"
    );
    assert_eq!(absorbed, REPORTERS_PER_ROUND * ROUNDS);
    assert_eq!(frozen_absorbed, 0);
    for (r, acc) in frozen.iter().enumerate() {
        assert_eq!(
            *acc, frozen[0],
            "frozen round {r} drifted without a prior change"
        );
    }
    let (first, last) = (refreshed[0], *refreshed.last().unwrap());
    assert!(
        last > first + 0.01 && last > *frozen.last().unwrap() + 0.01,
        "closed loop never learned: refreshed {refreshed:?} vs frozen {frozen:?}"
    );
}
