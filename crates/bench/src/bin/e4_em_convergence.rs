//! E4 — convergence of the EM-inspired relaxation.
//!
//! Plots (as a table of series) the exact objective
//! `robust risk + (ρ/n)(−log π)` against the EM round for several devices.
//! Expected shape: monotone non-increasing traces that flatten within a
//! handful of rounds — the majorize–minimize guarantee in action.

use dre_bench::{fmt_f, standard_cloud, standard_family, standard_learner_config, Table};
use dro_edge::{EdgeLearner, EdgeLearnerConfig};

fn main() {
    let (family, mut rng) = standard_family(404);
    let cloud = standard_cloud(&family, 40, 1.0, &mut rng);
    let config = EdgeLearnerConfig {
        em_rounds: 10,
        em_tol: 0.0, // run all rounds so every trace has equal length
        ..standard_learner_config()
    };

    let mut table = Table::new(
        "E4",
        "exact objective per EM round (5 devices, n = 25)",
        &[
            "round", "device-1", "device-2", "device-3", "device-4", "device-5",
        ],
    );

    let mut traces: Vec<Vec<f64>> = Vec::new();
    for _ in 0..5 {
        let task = family.sample_task(&mut rng);
        let train = task.generate(25, &mut rng);
        let learner = EdgeLearner::new(config, cloud.prior().clone()).expect("config valid");
        let fit = learner.fit(&train).expect("fit failed");
        traces.push(fit.objective_trace);
    }
    let rounds = traces.iter().map(|t| t.len()).max().unwrap_or(0);
    for r in 0..rounds {
        let mut row = vec![r.to_string()];
        for trace in &traces {
            // Converged traces hold their final value.
            let v = trace.get(r).or(trace.last()).copied().unwrap_or(f64::NAN);
            row.push(fmt_f(v));
        }
        table.push_row(row);
    }
    table.emit();

    // Report the monotonicity check the paper's MM argument promises.
    let violations: usize = traces
        .iter()
        .map(|t| t.windows(2).filter(|w| w[1] > w[0] + 1e-3).count())
        .sum();
    println!("monotonicity violations beyond smoothing tolerance: {violations}");
}
