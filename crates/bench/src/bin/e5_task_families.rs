//! E5 — per-scenario accuracy table.
//!
//! Four evaluation scenarios stress different assumptions:
//!
//! * `in-cluster` — the edge task comes from a cluster the cloud has seen;
//! * `novel-task` — the edge task's parameter sits far from every cloud
//!   cluster (only the DP's fresh-table mass covers it);
//! * `covariate-shift` — test features are shifted;
//! * `label-noise` — training labels are corrupted at 15 %.
//!
//! Expected shape: DRO+DP wins or ties everywhere; cloud-only collapses on
//! novel tasks; plain ERM suffers most under label noise and shift.

use dre_bench::{fmt_acc, standard_cloud, standard_family, standard_learner_config, Table};
use dre_data::shift;
use dre_models::metrics;
use dro_edge::evaluate::{run_methods, Aggregate, Method};

fn main() {
    let (family, mut rng) = standard_family(505);
    let cloud = standard_cloud(&family, 40, 1.0, &mut rng);
    let config = standard_learner_config();
    let trials = 15;
    let n = 25;
    let methods = Method::ALL;

    let scenarios = ["in-cluster", "novel-task", "covariate-shift", "label-noise"];
    let mut table = Table::new(
        "E5",
        "accuracy per scenario (n = 25, 15 trials)",
        &[
            "scenario",
            "local-erm",
            "dro-only",
            "map-only",
            "cloud-only",
            "dro+dp",
            "oracle",
        ],
    );

    for scenario in scenarios {
        let mut aggs: Vec<(Method, Aggregate)> =
            methods.iter().map(|&m| (m, Aggregate::default())).collect();
        for _ in 0..trials {
            let task = family.sample_task(&mut rng);
            let (train, test, eval_task) = match scenario {
                "in-cluster" => {
                    let train = task.generate(n, &mut rng);
                    let test = task.generate(800, &mut rng);
                    (train, test, task.clone())
                }
                "novel-task" => {
                    // Build a task whose parameter is orthogonal-ish to all
                    // cluster centers: flip the sign of the sampled θ*.
                    // (Novelty in parameter space, same data mechanism.)
                    let novel = make_novel_task(&family, &mut rng);
                    let train = novel.generate(n, &mut rng);
                    let test = novel.generate(800, &mut rng);
                    (train, test, novel)
                }
                "covariate-shift" => {
                    let train = task.generate(n, &mut rng);
                    let test = task.generate(800, &mut rng);
                    let dir = task.model().weights().to_vec();
                    let test = shift::directional_shift(&test, &dir, 1.0).expect("shift");
                    (train, test, task.clone())
                }
                "label-noise" => {
                    let train = task.generate(n, &mut rng);
                    let train = shift::label_flip_noise(&train, 0.15, &mut rng).expect("noise");
                    let test = task.generate(800, &mut rng);
                    (train, test, task.clone())
                }
                _ => unreachable!(),
            };
            let results = run_methods(
                &methods,
                &train,
                &test,
                cloud.prior(),
                &config,
                Some(&eval_task),
            )
            .expect("methods failed");
            for r in results {
                if let Some((_, agg)) = aggs.iter_mut().find(|(m, _)| *m == r.method) {
                    agg.push(r.accuracy);
                }
            }
        }
        let mut row = vec![scenario.to_string()];
        for (_, agg) in &aggs {
            row.push(fmt_acc(agg.mean(), agg.std_error()));
        }
        table.push_row(row);
    }
    table.emit();

    // Sanity line: verify the metrics module agrees with run_methods on one
    // direct evaluation (guards against silent protocol drift).
    let task = family.sample_task(&mut rng);
    let train = task.generate(n, &mut rng);
    let test = task.generate(200, &mut rng);
    let erm = dro_edge::baselines::fit_local_erm(&train, 1e-3).expect("erm");
    let acc = metrics::accuracy(&erm, test.features(), test.labels()).expect("metric");
    println!("spot-check local-erm accuracy on a fresh task: {acc:.3}");
}

/// A "novel" task: mirror a sampled task's parameter (`θ → −θ`) so it sits
/// in a region of parameter space no cloud cluster covers, while keeping
/// the same data mechanism.
fn make_novel_task(
    family: &dre_data::TaskFamily,
    rng: &mut rand::rngs::StdRng,
) -> dre_data::TrueTask {
    let base = family.sample_task(rng);
    let mirrored = dre_linalg::vector::scaled(base.theta(), -1.0);
    dre_data::TrueTask::from_theta(
        mirrored,
        family.config().label_noise,
        family.config().steepness,
    )
    .expect("mirrored parameter is valid")
}
