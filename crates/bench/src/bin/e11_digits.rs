//! E11 — the higher-dimensional "synthetic digits" workload (the documented
//! stand-in for the paper's real image data; see DESIGN.md).
//!
//! Part 1 (binary): the cloud serves four visually-confusable digit-pair
//! tasks; the DP prior over the 65-dimensional per-task parameters should
//! cluster by pair, and a fresh device on a known pair should learn from a
//! handful of samples. Part 2 (multiclass): the 10-class extension with the
//! pooled diagonal prior from `dro_edge::multiclass`.

use dre_bench::{fmt_acc, Table};
use dre_data::digits;
use dre_models::{metrics, SoftmaxObjective};
use dre_optim::{Lbfgs, Objective, StopCriteria};
use dre_prob::seeded_rng;
use dro_edge::evaluate::Aggregate;
use dro_edge::multiclass::{pooled_prior, MulticlassEdgeLearner};
use dro_edge::{baselines, CloudKnowledge, EdgeLearner, EdgeLearnerConfig, PriorFitMethod};

const PAIRS: [(usize, usize); 4] = [(3, 8), (5, 6), (1, 7), (0, 9)];

fn main() {
    binary_pairs();
    multiclass_few_shot();
}

fn binary_pairs() {
    let mut rng = seeded_rng(1101);
    // Cloud: 4 historical devices per pair, 100 samples/class each.
    let mut source_models = Vec::new();
    for _ in 0..4 {
        for &(a, b) in &PAIRS {
            let data = digits::binary_task(a, b, 100, 0.6, &mut rng).expect("task");
            source_models.push(dro_edge::train_source_model(&data).expect("source training"));
        }
    }
    let cloud = CloudKnowledge::from_source_models(
        source_models,
        1.0,
        PriorFitMethod::CollapsedGibbs,
        &mut rng,
    )
    .expect("cloud fit");
    println!(
        "digits cloud: {} clusters from 16 source devices over 4 digit pairs; prior {} bytes",
        cloud.discovered_clusters(),
        cloud.transfer_size_bytes()
    );

    let config = EdgeLearnerConfig {
        epsilon: 0.05,
        kappa: 1.0,
        rho: 1.0,
        em_rounds: 6,
        em_tol: 1e-6,
        solver_iters: 150,
        multi_start: true,
    };
    let trials = 6;
    let n_per_class = 2;

    let mut table = Table::new(
        "E11a",
        "binary digit pairs, 2 samples/class, heavy noise (6 trials each)",
        &["pair", "local-erm", "dro+dp"],
    );
    for &(a, b) in &PAIRS {
        let mut erm_agg = Aggregate::default();
        let mut dp_agg = Aggregate::default();
        for _ in 0..trials {
            let train = digits::binary_task(a, b, n_per_class, 0.6, &mut rng).expect("train");
            let test = digits::binary_task(a, b, 100, 0.8, &mut rng).expect("test");
            let erm = baselines::fit_local_erm(&train, 1e-2).expect("erm");
            erm_agg.push(metrics::accuracy(&erm, test.features(), test.labels()).expect("metric"));
            let fit = EdgeLearner::new(config, cloud.prior().clone())
                .expect("config")
                .fit(&train)
                .expect("fit");
            dp_agg.push(
                metrics::accuracy(&fit.model, test.features(), test.labels()).expect("metric"),
            );
        }
        table.push_row(vec![
            format!("{a}v{b}"),
            fmt_acc(erm_agg.mean(), erm_agg.std_error()),
            fmt_acc(dp_agg.mean(), dp_agg.std_error()),
        ]);
    }
    table.emit();
}

fn multiclass_few_shot() {
    let mut rng = seeded_rng(1102);
    let classes: Vec<usize> = (0..10).collect();
    // Cloud: 8 historical 10-class devices (different noise draws).
    let mut source_models = Vec::new();
    for _ in 0..8 {
        let (xs, ys) = digits::multiclass_task(&classes, 40, 0.6, &mut rng).expect("task");
        let obj = SoftmaxObjective::new(&xs, &ys, 10, 1e-3).expect("objective");
        let fit = Lbfgs::new(StopCriteria::with_max_iters(150))
            .minimize(&obj, &vec![0.0; obj.dim()])
            .expect("train");
        source_models.push(fit.x);
    }
    let prior = pooled_prior(&source_models, 0.01).expect("prior");

    let config = EdgeLearnerConfig {
        epsilon: 0.02,
        rho: 1.0,
        em_rounds: 4,
        solver_iters: 150,
        ..EdgeLearnerConfig::default()
    };
    let learner = MulticlassEdgeLearner::new(config, prior, 10).expect("learner");

    let mut table = Table::new(
        "E11b",
        "10-class digits, few-shot with test-time noise shift (5 trials)",
        &["samples/class", "softmax-erm", "robust+prior"],
    );
    for per_class in [1usize, 2, 5] {
        let mut erm_agg = Aggregate::default();
        let mut rp_agg = Aggregate::default();
        for _ in 0..5 {
            let (xs, ys) =
                digits::multiclass_task(&classes, per_class, 0.6, &mut rng).expect("train");
            let (txs, tys) = digits::multiclass_task(&classes, 30, 0.9, &mut rng).expect("test");

            let obj = SoftmaxObjective::new(&xs, &ys, 10, 1e-2).expect("objective");
            let erm = Lbfgs::new(StopCriteria::with_max_iters(150))
                .minimize(&obj, &vec![0.0; obj.dim()])
                .expect("erm");
            let erm_model = dre_models::SoftmaxModel::from_packed(10, digits::DIM, &erm.x);
            let acc = |m: &dre_models::SoftmaxModel| {
                txs.iter()
                    .zip(&tys)
                    .filter(|(x, &y)| m.predict(x) == y)
                    .count() as f64
                    / tys.len() as f64
            };
            erm_agg.push(acc(&erm_model));

            let fit = learner.fit(&xs, &ys).expect("fit");
            rp_agg.push(acc(&fit.model));
        }
        table.push_row(vec![
            per_class.to_string(),
            fmt_acc(erm_agg.mean(), erm_agg.std_error()),
            fmt_acc(rp_agg.mean(), rp_agg.std_error()),
        ]);
    }
    table.emit();
}
