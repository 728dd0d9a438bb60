//! E1 — the headline result: test accuracy vs. local sample size.
//!
//! Reproduces the paper's central claim: with few local samples, the
//! DRO + DP-prior learner dominates standard approaches that use local edge
//! data only; as `n` grows all local methods converge toward the oracle.

use dre_bench::{
    concentration_radius, fmt_acc, standard_cloud, standard_family, standard_learner_config, Table,
};
use dro_edge::evaluate::{run_trials, Method};
use dro_edge::EdgeLearnerConfig;

fn main() {
    let (family, mut rng) = standard_family(101);
    let cloud = standard_cloud(&family, 40, 1.0, &mut rng);
    let methods = Method::ALL;
    let trials = 20;

    let mut table = Table::new(
        "E1",
        "test accuracy vs. local sample size (20 trials each)",
        &[
            "n",
            "local-erm",
            "dro-only",
            "map-only",
            "cloud-only",
            "dro+dp",
            "oracle",
        ],
    );

    for n in [10usize, 20, 50, 100, 200, 500] {
        // Concentration-scaled radius: the ball shrinks as local evidence
        // accumulates, so the robust methods converge to the oracle.
        let config = EdgeLearnerConfig {
            epsilon: concentration_radius(0.5, n),
            ..standard_learner_config()
        };
        let aggs = run_trials(&methods, trials, cloud.prior(), &config, &mut rng, |rng| {
            let task = family.sample_task(rng);
            let train = task.generate(n, rng);
            let test = task.generate(1000, rng);
            Ok((train, test, task))
        })
        .expect("E1 trials failed");
        let mut row = vec![n.to_string()];
        for m in methods {
            let agg = &aggs.iter().find(|(mm, _)| *mm == m).expect("method ran").1;
            row.push(fmt_acc(agg.mean(), agg.std_error()));
        }
        table.push_row(row);
    }
    table.emit();
}
