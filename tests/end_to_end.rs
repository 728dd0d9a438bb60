//! End-to-end integration: family → cloud DP fit → edge DRO-EM → metrics,
//! exercising every crate in one pipeline.

use dre_bench::closed_loop::family_config;
use dre_data::TaskFamily;
use dre_models::metrics;
use dre_prob::seeded_rng;
use dro_edge::evaluate::{run_methods, Method};
use dro_edge::{baselines, CloudKnowledge, EdgeLearner, EdgeLearnerConfig, PriorFitMethod};

#[test]
fn full_pipeline_beats_local_only_learning_at_small_n() {
    let mut rng = seeded_rng(900);
    let family = TaskFamily::generate(&family_config(), &mut rng).unwrap();
    let cloud = CloudKnowledge::from_family(&family, 30, 400, 1.0, &mut rng).unwrap();
    let config = EdgeLearnerConfig {
        em_rounds: 10,
        ..EdgeLearnerConfig::default()
    };

    let trials = 10;
    let mut erm_sum = 0.0;
    let mut drodp_sum = 0.0;
    for _ in 0..trials {
        let task = family.sample_task(&mut rng);
        let train = task.generate(12, &mut rng);
        let test = task.generate(600, &mut rng);

        let erm = baselines::fit_local_erm(&train, 1e-3).unwrap();
        erm_sum += metrics::accuracy(&erm, test.features(), test.labels()).unwrap();

        let learner = EdgeLearner::new(config, cloud.prior().clone()).unwrap();
        let fit = learner.fit(&train).unwrap();
        drodp_sum += metrics::accuracy(&fit.model, test.features(), test.labels()).unwrap();
    }
    let erm = erm_sum / trials as f64;
    let drodp = drodp_sum / trials as f64;
    assert!(
        drodp > erm + 0.02,
        "DRO+DP ({drodp:.3}) should clearly beat local ERM ({erm:.3}) at n = 12"
    );
}

#[test]
fn pipeline_is_deterministic_given_the_seed() {
    let run = || {
        let mut rng = seeded_rng(901);
        let family = TaskFamily::generate(&family_config(), &mut rng).unwrap();
        let cloud = CloudKnowledge::from_family(&family, 20, 300, 1.0, &mut rng).unwrap();
        let task = family.sample_task(&mut rng);
        let train = task.generate(15, &mut rng);
        let learner =
            EdgeLearner::new(EdgeLearnerConfig::default(), cloud.prior().clone()).unwrap();
        learner.fit(&train).unwrap().model.to_packed()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must give bit-identical models");
}

#[test]
fn gibbs_and_variational_priors_both_transfer() {
    let mut rng = seeded_rng(902);
    let family = TaskFamily::generate(&family_config(), &mut rng).unwrap();
    let gibbs_cloud = CloudKnowledge::from_family(&family, 30, 400, 1.0, &mut rng).unwrap();
    let vb_cloud = CloudKnowledge::from_source_models(
        gibbs_cloud.source_models().to_vec(),
        1.0,
        PriorFitMethod::Variational,
        &mut rng,
    )
    .unwrap();

    // Gibbs (which integrates parameter uncertainty) recovers the true
    // count exactly; VB point-estimates and may over-segment noisy fitted
    // parameters, but must cover at least the true clusters.
    assert_eq!(gibbs_cloud.discovered_clusters(), 2);
    assert!(
        (2..=6).contains(&vb_cloud.discovered_clusters()),
        "vb found {}",
        vb_cloud.discovered_clusters()
    );

    // And both priors should let the learner match its task's cluster.
    for cloud in [&gibbs_cloud, &vb_cloud] {
        let task = family.sample_task(&mut rng);
        let train = task.generate(25, &mut rng);
        let learner =
            EdgeLearner::new(EdgeLearnerConfig::default(), cloud.prior().clone()).unwrap();
        let fit = learner.fit(&train).unwrap();
        let test = task.generate(500, &mut rng);
        let acc = metrics::accuracy(&fit.model, test.features(), test.labels()).unwrap();
        assert!(acc > 0.7, "transfer accuracy {acc} too low");
    }
}

#[test]
fn evaluation_protocol_runs_all_methods_end_to_end() {
    let mut rng = seeded_rng(903);
    let family = TaskFamily::generate(&family_config(), &mut rng).unwrap();
    let cloud = CloudKnowledge::from_family(&family, 20, 300, 1.0, &mut rng).unwrap();
    let task = family.sample_task(&mut rng);
    let train = task.generate(20, &mut rng);
    let test = task.generate(400, &mut rng);
    let results = run_methods(
        &Method::ALL,
        &train,
        &test,
        cloud.prior(),
        &EdgeLearnerConfig {
            em_rounds: 5,
            ..EdgeLearnerConfig::default()
        },
        Some(&task),
    )
    .unwrap();
    assert_eq!(results.len(), Method::ALL.len());
    let oracle = results
        .iter()
        .find(|r| r.method == Method::Oracle)
        .unwrap()
        .accuracy;
    for r in &results {
        assert!(
            r.accuracy <= oracle + 0.05,
            "{} ({}) should not beat the oracle ({oracle}) by more than noise",
            r.method.name(),
            r.accuracy
        );
    }
}

#[test]
fn multiclass_pipeline_transfers_on_digits() {
    use dre_data::digits;
    use dre_models::SoftmaxObjective;
    use dre_optim::{Lbfgs, Objective, StopCriteria};
    use dro_edge::multiclass::{pooled_prior, MulticlassEdgeLearner};

    let mut rng = seeded_rng(905);
    let classes = [0usize, 3, 8];
    // Cloud: 5 source devices on the same 3-class task.
    let mut sources = Vec::new();
    for _ in 0..5 {
        let (xs, ys) = digits::multiclass_task(&classes, 30, 0.5, &mut rng).unwrap();
        let obj = SoftmaxObjective::new(&xs, &ys, 3, 1e-3).unwrap();
        let fit = Lbfgs::new(StopCriteria::with_max_iters(120))
            .minimize(&obj, &vec![0.0; obj.dim()])
            .unwrap();
        sources.push(fit.x);
    }
    let prior = pooled_prior(&sources, 0.01).unwrap();
    let learner = MulticlassEdgeLearner::new(
        EdgeLearnerConfig {
            epsilon: 0.02,
            em_rounds: 3,
            ..EdgeLearnerConfig::default()
        },
        prior,
        3,
    )
    .unwrap();

    // Edge: one sample per class.
    let (xs, ys) = digits::multiclass_task(&classes, 1, 0.5, &mut rng).unwrap();
    let fit = learner.fit(&xs, &ys).unwrap();
    let (txs, tys) = digits::multiclass_task(&classes, 40, 0.7, &mut rng).unwrap();
    let acc = txs
        .iter()
        .zip(&tys)
        .filter(|(x, &y)| fit.model.predict(x) == y)
        .count() as f64
        / tys.len() as f64;
    assert!(acc > 0.85, "multiclass transfer accuracy {acc}");
    // Monotone EM trace carries over to the multiclass learner.
    for w in fit.objective_trace.windows(2) {
        assert!(w[1] <= w[0] + 1e-6);
    }
}

#[test]
fn serialized_prior_roundtrips_through_the_wire_format() {
    use dro_edge::transfer::{deserialize_prior, serialize_prior};

    let mut rng = seeded_rng(906);
    let family = TaskFamily::generate(&family_config(), &mut rng).unwrap();
    let cloud = CloudKnowledge::from_family(&family, 16, 250, 1.0, &mut rng).unwrap();
    let bytes = serialize_prior(cloud.prior());
    let restored = deserialize_prior(&bytes).unwrap();

    // A learner using the restored prior behaves identically.
    let task = family.sample_task(&mut rng);
    let train = task.generate(15, &mut rng);
    let config = EdgeLearnerConfig {
        em_rounds: 4,
        ..EdgeLearnerConfig::default()
    };
    let a = EdgeLearner::new(config, cloud.prior().clone())
        .unwrap()
        .fit(&train)
        .unwrap();
    let b = EdgeLearner::new(config, restored).unwrap().fit(&train).unwrap();
    // The wire format stores the covariance, not its Cholesky factor, so
    // re-factorization perturbs the prior at the 1e-16 level; the fits must
    // agree to optimizer precision, not bit-for-bit.
    assert!(
        dre_linalg::vector::max_abs_diff(&a.model.to_packed(), &b.model.to_packed()) < 1e-5,
        "restored-prior fit diverged: {:?} vs {:?}",
        a.model.to_packed(),
        b.model.to_packed()
    );
}

#[test]
fn prior_transfer_size_is_far_below_raw_data_size() {
    let mut rng = seeded_rng(904);
    let family = TaskFamily::generate(&family_config(), &mut rng).unwrap();
    let cloud = CloudKnowledge::from_family(&family, 30, 400, 1.0, &mut rng).unwrap();
    // Raw upload of even one device's 400 samples dwarfs the prior.
    let raw = 400 * (family.config().dim + 1) * 8;
    assert!(
        cloud.transfer_size_bytes() * 4 < raw,
        "prior {} bytes vs raw {} bytes",
        cloud.transfer_size_bytes(),
        raw
    );
}
