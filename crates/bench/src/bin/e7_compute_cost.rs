//! E7 — edge-side compute cost per method.
//!
//! Measures wall-clock training time and (where applicable) iteration
//! counts at a fixed sample size. Expected shape: the paper's method pays a
//! small constant factor over plain ERM (a few convex solves instead of
//! one) — cheap enough for edge hardware, which is the deployment claim.

use std::time::Instant;

use dre_bench::{fmt_f, standard_cloud, standard_family, standard_learner_config, Table};
use dro_edge::{baselines, EdgeLearner};

fn main() {
    let (family, mut rng) = standard_family(707);
    let cloud = standard_cloud(&family, 40, 1.0, &mut rng);
    let config = standard_learner_config();
    let trials = 10;
    let n = 50;

    let mut table = Table::new(
        "E7",
        "edge-side training cost (n = 50, mean of 10 trials)",
        &["method", "wall-ms", "em-rounds", "relative"],
    );

    let mut erm_ms = 0.0;
    let mut dro_ms = 0.0;
    let mut map_ms = 0.0;
    let mut drodp_ms = 0.0;
    let mut em_rounds = 0usize;

    for _ in 0..trials {
        let task = family.sample_task(&mut rng);
        let train = task.generate(n, &mut rng);

        let t0 = Instant::now();
        let _ = baselines::fit_local_erm(&train, 1e-3).expect("erm");
        erm_ms += t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let _ = baselines::fit_dro_only(&train, config.epsilon, config.kappa).expect("dro");
        dro_ms += t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let _ = baselines::fit_map_only(&train, cloud.prior(), config.rho, config.em_rounds)
            .expect("map");
        map_ms += t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let fit = EdgeLearner::new(config, cloud.prior().clone())
            .expect("config")
            .fit(&train)
            .expect("fit");
        drodp_ms += t0.elapsed().as_secs_f64() * 1e3;
        em_rounds += fit.em_rounds;
    }

    let t = trials as f64;
    let (erm_ms, dro_ms, map_ms, drodp_ms) = (erm_ms / t, dro_ms / t, map_ms / t, drodp_ms / t);
    for (name, ms, rounds) in [
        ("local-erm", erm_ms, String::from("-")),
        ("dro-only", dro_ms, String::from("-")),
        ("map-only", map_ms, format!("{}", config.em_rounds)),
        ("dro+dp", drodp_ms, format!("{:.1}", em_rounds as f64 / t)),
    ] {
        table.push_row(vec![
            name.to_string(),
            fmt_f(ms),
            rounds,
            format!("{:.1}x", ms / erm_ms.max(1e-9)),
        ]);
    }
    table.emit();
}
