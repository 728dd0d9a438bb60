//! E3 — sensitivity to the DP concentration `α`.
//!
//! The cloud refits its prior at each `α`; the table reports how many task
//! clusters the DP discovers and the downstream edge accuracy. Expected
//! shape: cluster count grows with `α`; edge accuracy is flat in a broad
//! middle range (the DP's nonparametric robustness) and only degrades at
//! extreme `α` where the prior fragments.

use dre_bench::{fmt_acc, standard_cloud, standard_family, standard_learner_config, Table};
use dre_models::metrics;
use dro_edge::evaluate::Aggregate;
use dro_edge::EdgeLearner;

fn main() {
    let (family, mut rng) = standard_family(303);
    let config = standard_learner_config();
    let trials = 15;
    let n = 20;

    let mut table = Table::new(
        "E3",
        "cloud DP fit and edge accuracy vs. concentration α (n = 20)",
        &["alpha", "clusters", "prior-K", "dro+dp acc"],
    );

    for alpha in [0.1, 0.5, 1.0, 2.0, 8.0, 32.0] {
        let cloud = standard_cloud(&family, 40, alpha, &mut rng);
        let mut agg = Aggregate::default();
        for _ in 0..trials {
            let task = family.sample_task(&mut rng);
            let train = task.generate(n, &mut rng);
            let test = task.generate(800, &mut rng);
            let learner = EdgeLearner::new(config, cloud.prior().clone()).expect("config valid");
            let fit = learner.fit(&train).expect("fit failed");
            agg.push(
                metrics::accuracy(&fit.model, test.features(), test.labels()).expect("metric"),
            );
        }
        table.push_row(vec![
            format!("{alpha:.1}"),
            cloud.discovered_clusters().to_string(),
            cloud.prior().num_components().to_string(),
            fmt_acc(agg.mean(), agg.std_error()),
        ]);
    }
    table.emit();
}
