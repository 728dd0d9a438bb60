//! E6 — robustness under test-time covariate shift.
//!
//! Trains each method once per trial on clean data, then evaluates on test
//! sets shifted by increasing magnitudes along the task's sensitive
//! direction. Expected shape: all methods degrade with shift, but the
//! DRO-based methods degrade *slower* — the crossover where robustness
//! starts paying is the figure's point.

use dre_bench::{fmt_acc, standard_cloud, standard_family, standard_learner_config, Table};
use dre_data::shift;
use dre_models::metrics;
use dro_edge::evaluate::{Aggregate, Method};
use dro_edge::{baselines, EdgeLearner};

fn main() {
    let (family, mut rng) = standard_family(606);
    let cloud = standard_cloud(&family, 40, 1.0, &mut rng);
    let config = standard_learner_config();
    let trials = 15;
    let n = 30;
    let magnitudes = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0];
    let methods = [
        Method::LocalErm,
        Method::DroOnly,
        Method::MapOnly,
        Method::DroDp,
    ];

    let mut table = Table::new(
        "E6",
        "accuracy vs. covariate-shift magnitude (n = 30, 15 trials)",
        &["shift", "local-erm", "dro-only", "map-only", "dro+dp"],
    );

    // Train once per trial, evaluate across all magnitudes.
    let mut per_magnitude: Vec<Vec<(Method, Aggregate)>> = magnitudes
        .iter()
        .map(|_| methods.iter().map(|&m| (m, Aggregate::default())).collect())
        .collect();

    for _ in 0..trials {
        let task = family.sample_task(&mut rng);
        let train = task.generate(n, &mut rng);
        let clean_test = task.generate(800, &mut rng);
        let dir = task.model().weights().to_vec();

        let erm = baselines::fit_local_erm(&train, 1e-3).expect("erm");
        let dro = baselines::fit_dro_only(&train, config.epsilon, config.kappa).expect("dro");
        let map = baselines::fit_map_only(&train, cloud.prior(), config.rho, config.em_rounds)
            .expect("map");
        let drodp = EdgeLearner::new(config, cloud.prior().clone())
            .expect("config")
            .fit(&train)
            .expect("fit")
            .model;

        for (mi, &mag) in magnitudes.iter().enumerate() {
            let test = shift::directional_shift(&clean_test, &dir, mag).expect("shift");
            for (model, method) in [
                (&erm, Method::LocalErm),
                (&dro, Method::DroOnly),
                (&map, Method::MapOnly),
                (&drodp, Method::DroDp),
            ] {
                let acc = metrics::accuracy(model, test.features(), test.labels()).expect("metric");
                per_magnitude[mi]
                    .iter_mut()
                    .find(|(m, _)| *m == method)
                    .expect("tracked")
                    .1
                    .push(acc);
            }
        }
    }

    for (mi, &mag) in magnitudes.iter().enumerate() {
        let mut row = vec![format!("{mag:.2}")];
        for (_, agg) in &per_magnitude[mi] {
            row.push(fmt_acc(agg.mean(), agg.std_error()));
        }
        table.push_row(row);
    }
    table.emit();
}
