//! E12 — ablations of the design choices DESIGN.md calls out.
//!
//! Four axes, each isolating one ingredient of the full learner:
//!
//! * **start selection** — data-aware multistart vs. the naive single start
//!   at the heaviest prior component (the basin-selection choice);
//! * **label-flip cost** — finite `κ` vs. features-only `κ = ∞`, evaluated
//!   on label-noisy training data (what the second transport coordinate
//!   buys);
//! * **prior fit** — collapsed Gibbs vs. truncated variational EM at the
//!   cloud (accuracy of the transferred summary);
//! * **prior weight** — `ρ` sweep (how hard the cloud should pull).

use dre_bench::{fmt_acc, standard_cloud, standard_family, standard_learner_config, Table};
use dre_data::shift;
use dre_models::metrics;
use dro_edge::evaluate::Aggregate;
use dro_edge::{CloudKnowledge, EdgeLearner, EdgeLearnerConfig, PriorFitMethod};

fn main() {
    let (family, mut rng) = standard_family(1201);
    let cloud = standard_cloud(&family, 40, 1.0, &mut rng);
    let base = standard_learner_config();
    let trials = 15;
    let n = 15;

    let mut table = Table::new(
        "E12",
        "ablations of the learner's design choices (n = 15, 15 trials)",
        &["axis", "variant", "accuracy"],
    );

    // --- (a) start selection ---
    for (name, multi_start) in [("multi-start", true), ("single-start", false)] {
        let config = EdgeLearnerConfig {
            multi_start,
            ..base
        };
        let mut agg = Aggregate::default();
        for _ in 0..trials {
            let task = family.sample_task(&mut rng);
            let train = task.generate(n, &mut rng);
            let test = task.generate(800, &mut rng);
            let fit = EdgeLearner::new(config, cloud.prior().clone())
                .expect("config")
                .fit(&train)
                .expect("fit");
            agg.push(
                metrics::accuracy(&fit.model, test.features(), test.labels()).expect("metric"),
            );
        }
        table.push_row(vec![
            "start-selection".into(),
            name.into(),
            fmt_acc(agg.mean(), agg.std_error()),
        ]);
    }

    // --- (b) label-flip cost under training label noise ---
    for (name, kappa) in [
        ("kappa=1 (flips)", 1.0),
        ("kappa=inf (features)", f64::INFINITY),
    ] {
        let config = EdgeLearnerConfig { kappa, ..base };
        let mut agg = Aggregate::default();
        for _ in 0..trials {
            let task = family.sample_task(&mut rng);
            let train = task.generate(30, &mut rng);
            let train = shift::label_flip_noise(&train, 0.2, &mut rng).expect("noise");
            let test = task.generate(800, &mut rng);
            let fit = EdgeLearner::new(config, cloud.prior().clone())
                .expect("config")
                .fit(&train)
                .expect("fit");
            agg.push(
                metrics::accuracy(&fit.model, test.features(), test.labels()).expect("metric"),
            );
        }
        table.push_row(vec![
            "label-flip-cost".into(),
            name.into(),
            fmt_acc(agg.mean(), agg.std_error()),
        ]);
    }

    // --- (c) cloud prior fit method ---
    let vb_cloud = CloudKnowledge::from_source_models(
        cloud.source_models().to_vec(),
        1.0,
        PriorFitMethod::Variational,
        &mut rng,
    )
    .expect("vb cloud");
    for (name, prior) in [("gibbs", cloud.prior()), ("variational", vb_cloud.prior())] {
        let mut agg = Aggregate::default();
        for _ in 0..trials {
            let task = family.sample_task(&mut rng);
            let train = task.generate(n, &mut rng);
            let test = task.generate(800, &mut rng);
            let fit = EdgeLearner::new(base, prior.clone())
                .expect("config")
                .fit(&train)
                .expect("fit");
            agg.push(
                metrics::accuracy(&fit.model, test.features(), test.labels()).expect("metric"),
            );
        }
        table.push_row(vec![
            "prior-fit".into(),
            name.into(),
            fmt_acc(agg.mean(), agg.std_error()),
        ]);
    }

    // --- (d) prior weight ρ ---
    for rho in [0.0, 0.25, 1.0, 4.0, 16.0] {
        let config = EdgeLearnerConfig { rho, ..base };
        let mut agg = Aggregate::default();
        for _ in 0..trials {
            let task = family.sample_task(&mut rng);
            let train = task.generate(n, &mut rng);
            let test = task.generate(800, &mut rng);
            let fit = EdgeLearner::new(config, cloud.prior().clone())
                .expect("config")
                .fit(&train)
                .expect("fit");
            agg.push(
                metrics::accuracy(&fit.model, test.features(), test.labels()).expect("metric"),
            );
        }
        table.push_row(vec![
            "prior-weight".into(),
            format!("rho={rho}"),
            fmt_acc(agg.mean(), agg.std_error()),
        ]);
    }

    table.emit();
}
