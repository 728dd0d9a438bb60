//! E2 — sensitivity to the Wasserstein radius `ε`.
//!
//! At small `n`, sweeps `ε` for the DRO+DP learner and evaluates on clean
//! and covariate-shifted test sets. Expected shape: on clean data small `ε`
//! is best and large `ε` over-regularizes; under shift, a moderate `ε`
//! dominates `ε = 0` — robustness pays exactly when the test distribution
//! moves.

use dre_bench::{fmt_acc, standard_cloud, standard_family, standard_learner_config, Table};
use dre_models::metrics;
use dro_edge::evaluate::Aggregate;
use dro_edge::{EdgeLearner, EdgeLearnerConfig};

fn main() {
    let (family, mut rng) = standard_family(202);
    let cloud = standard_cloud(&family, 40, 1.0, &mut rng);
    let base = standard_learner_config();
    let trials = 20;
    let n = 20;
    let shift_magnitude = 1.0;

    let mut table = Table::new(
        "E2",
        "DRO+DP accuracy vs. Wasserstein radius ε (n = 20, 20 trials)",
        &["epsilon", "clean", "shifted"],
    );

    for eps in [0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0] {
        let config = EdgeLearnerConfig {
            epsilon: eps,
            ..base
        };
        let mut clean_agg = Aggregate::default();
        let mut shift_agg = Aggregate::default();
        for _ in 0..trials {
            let task = family.sample_task(&mut rng);
            let train = task.generate(n, &mut rng);
            let clean_test = task.generate(800, &mut rng);
            // Shift along the task's own weight direction — the axis the
            // classifier is sensitive to.
            let dir = task.model().weights().to_vec();
            let shifted_test =
                dre_data::shift::directional_shift(&clean_test, &dir, shift_magnitude)
                    .expect("shift is valid");

            let learner = EdgeLearner::new(config, cloud.prior().clone()).expect("config valid");
            let fit = learner.fit(&train).expect("fit failed");
            clean_agg.push(
                metrics::accuracy(&fit.model, clean_test.features(), clean_test.labels())
                    .expect("metric"),
            );
            shift_agg.push(
                metrics::accuracy(&fit.model, shifted_test.features(), shifted_test.labels())
                    .expect("metric"),
            );
        }
        table.push_row(vec![
            format!("{eps:.2}"),
            fmt_acc(clean_agg.mean(), clean_agg.std_error()),
            fmt_acc(shift_agg.mean(), shift_agg.std_error()),
        ]);
    }
    table.emit();
}
