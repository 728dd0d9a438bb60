//! E8 — value of cloud history: edge accuracy vs. the number of historical
//! source tasks the cloud has seen.
//!
//! Expected shape: transfer-based methods improve steeply over the first
//! dozens of source tasks (the DP prior sharpens), then saturate; local-only
//! methods are flat by construction.

use dre_bench::{concentration_radius, fmt_acc, standard_family, standard_learner_config, Table};
use dre_models::metrics;
use dro_edge::evaluate::Aggregate;
use dro_edge::{baselines, CloudKnowledge, EdgeLearner, EdgeLearnerConfig};

fn main() {
    let (family, mut rng) = standard_family(808);
    let trials = 15;
    let n = 20;
    let config = EdgeLearnerConfig {
        epsilon: concentration_radius(0.5, n),
        ..standard_learner_config()
    };

    let mut table = Table::new(
        "E8",
        "edge accuracy vs. cloud history size M (n = 20, 15 trials)",
        &["M", "clusters", "local-erm", "dro+dp"],
    );

    for m in [2usize, 4, 8, 16, 32, 64, 128] {
        let cloud = CloudKnowledge::from_family(&family, m, 400, 1.0, &mut rng).expect("cloud");
        let mut erm_agg = Aggregate::default();
        let mut drodp_agg = Aggregate::default();
        for _ in 0..trials {
            let task = family.sample_task(&mut rng);
            let train = task.generate(n, &mut rng);
            let test = task.generate(800, &mut rng);

            let erm = baselines::fit_local_erm(&train, 1e-3).expect("erm");
            erm_agg.push(metrics::accuracy(&erm, test.features(), test.labels()).expect("metric"));

            let fit = EdgeLearner::new(config, cloud.prior().clone())
                .expect("config")
                .fit(&train)
                .expect("fit");
            drodp_agg.push(
                metrics::accuracy(&fit.model, test.features(), test.labels()).expect("metric"),
            );
        }
        table.push_row(vec![
            m.to_string(),
            cloud.discovered_clusters().to_string(),
            fmt_acc(erm_agg.mean(), erm_agg.std_error()),
            fmt_acc(drodp_agg.mean(), drodp_agg.std_error()),
        ]);
    }
    table.emit();
}
