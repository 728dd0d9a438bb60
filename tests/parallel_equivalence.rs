//! Serial/parallel equivalence: every parallelized hot path must produce
//! **bit-identical** results with the parallel feature active and forced
//! off at runtime.
//!
//! `dre_parallel::with_serial` drives the same code down the
//! single-worker path — the exact path taken with `--no-default-features`
//! or `DRE_NUM_THREADS=1`/`RAYON_NUM_THREADS=1` — so these tests cover the
//! thread-count axis too: reduction chunk boundaries are fixed constants
//! (independent of worker count), and maps have one writer per output
//! element, so *any* thread count yields the byte-for-byte same answer.
//! CI additionally runs the whole suite with the feature disabled.

use dre_bayes::{DpNiwGibbs, GibbsConfig, VariationalConfig, VariationalDpGmm};
use dre_data::{TaskFamily, TaskFamilyConfig};
use dre_linalg::Matrix;
use dre_models::{LinearModel, LogisticLoss};
use dre_optim::Objective as _;
use dre_prob::{seeded_rng, MvNormal, NormalInverseWishart};
use dre_robust::worst_case::adversarial_accuracy;
use dre_robust::{WassersteinBall, WassersteinDualObjective};
use dro_edge::{EdgeLearner, EdgeLearnerConfig};
use proptest::prelude::*;
use rand::Rng;

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs: {x} vs {y}"
        );
    }
}

fn random_matrix(rng: &mut rand::rngs::StdRng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Shapes straddle the blocked-kernel threshold (8192 multiply-adds),
    // so both the legacy and the chunked row-blocked path are exercised.
    #[test]
    fn matmul_matches_serial_bitwise(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = seeded_rng(seed);
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        let par = a.matmul(&b).unwrap();
        let ser = dre_parallel::with_serial(|| a.matmul(&b).unwrap());
        for (x, y) in par.as_slice().iter().zip(ser.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn matvec_both_ways_match_serial_bitwise(
        m in 1usize..300,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        let mut rng = seeded_rng(seed);
        let a = random_matrix(&mut rng, m, n);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let t: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (pv, pt) = (a.matvec(&x).unwrap(), a.matvec_t(&t).unwrap());
        let (sv, st) =
            dre_parallel::with_serial(|| (a.matvec(&x).unwrap(), a.matvec_t(&t).unwrap()));
        for (p, s) in pv.iter().zip(&sv).chain(pt.iter().zip(&st)) {
            prop_assert_eq!(p.to_bits(), s.to_bits());
        }
    }
}

/// A deterministic 3-cluster parameter cloud for the Bayesian fitters.
fn clustered_params(m: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = seeded_rng(seed);
    let centers = [
        MvNormal::isotropic(vec![3.0; d], 0.05).unwrap(),
        MvNormal::isotropic(vec![-3.0; d], 0.05).unwrap(),
        MvNormal::isotropic(vec![0.0; d], 0.05).unwrap(),
    ];
    (0..m)
        .map(|i| centers[i % centers.len()].sample(&mut rng))
        .collect()
}

#[test]
fn gibbs_fit_matches_serial_exactly() {
    let data = clustered_params(60, 4, 21);
    let gibbs = DpNiwGibbs::new(
        NormalInverseWishart::vague(4).unwrap(),
        GibbsConfig {
            alpha: 1.0,
            burn_in: 1,
            sweeps: 4,
        },
    )
    .unwrap();
    let par = gibbs.fit(&data, &mut seeded_rng(3)).unwrap();
    let ser = dre_parallel::with_serial(|| gibbs.fit(&data, &mut seeded_rng(3)).unwrap());
    // Scoring is parallel but the sampler consumes the same RNG stream, so
    // the trajectories — not just the summaries — must agree exactly.
    assert_eq!(par.assignments, ser.assignments);
    assert_eq!(par.cluster_trace, ser.cluster_trace);
    assert_bits_eq(
        &par.log_joint_trace,
        &ser.log_joint_trace,
        "gibbs log joint",
    );
}

/// The predictive-cached scoring path must reproduce the exact-recompute
/// reference `DpNiwGibbs::fit_exact`: both consume the identical RNG
/// stream and their scores agree far below the categorical decision
/// resolution, so the sampled trajectory — assignments and cluster trace —
/// is identical, and the log-joint trace agrees to the cache's documented
/// tolerance.
/// Runs under both the `parallel` and `--no-default-features` builds, and
/// additionally under `with_serial`, covering the thread-count axis.
#[test]
fn gibbs_cached_matches_exact_recompute_trace() {
    let data = clustered_params(60, 4, 21);
    let cfg = GibbsConfig {
        alpha: 1.2,
        burn_in: 2,
        sweeps: 4,
    };
    let gibbs = DpNiwGibbs::new(NormalInverseWishart::vague(4).unwrap(), cfg).unwrap();

    let rc = gibbs.fit(&data, &mut seeded_rng(8)).unwrap();
    let re = gibbs.fit_exact(&data, &mut seeded_rng(8)).unwrap();
    let rc_serial = dre_parallel::with_serial(|| gibbs.fit(&data, &mut seeded_rng(8)).unwrap());

    assert_eq!(
        rc.assignments, re.assignments,
        "cached vs exact assignments"
    );
    assert_eq!(
        rc.cluster_trace, re.cluster_trace,
        "cached vs exact clusters"
    );
    assert_eq!(rc.log_joint_trace.len(), re.log_joint_trace.len());
    for (i, (a, b)) in rc
        .log_joint_trace
        .iter()
        .zip(&re.log_joint_trace)
        .enumerate()
    {
        assert!(
            (a - b).abs() < 1e-6,
            "log joint entry {i} diverged: cached {a} vs exact {b}"
        );
    }

    // The cached path itself is serial/parallel bit-identical.
    assert_eq!(rc.assignments, rc_serial.assignments);
    assert_bits_eq(
        &rc.log_joint_trace,
        &rc_serial.log_joint_trace,
        "cached serial",
    );

    // And the cache actually did its job.
    assert!(
        rc.cache_stats.hit_rate() > 0.99,
        "cache hit rate too low: {:?}",
        rc.cache_stats
    );
    assert_eq!(re.cache_stats.hit_rate(), 0.0);
}

#[test]
fn variational_fit_matches_serial_exactly() {
    let data = clustered_params(90, 4, 22);
    let vb = VariationalDpGmm::new(VariationalConfig {
        alpha: 1.0,
        truncation: 10,
        max_iters: 25,
    })
    .unwrap();
    let par = vb.fit(&data, &mut seeded_rng(4)).unwrap();
    let ser = dre_parallel::with_serial(|| vb.fit(&data, &mut seeded_rng(4)).unwrap());
    assert_bits_eq(&par.objective_trace, &ser.objective_trace, "vb objective");
    assert_bits_eq(&par.weights, &ser.weights, "vb weights");
    for (p, s) in par.means.iter().zip(&ser.means) {
        assert_bits_eq(p, s, "vb means");
    }
}

fn labeled_dataset(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = seeded_rng(seed);
    let gen = MvNormal::isotropic(vec![0.0; d], 1.0).unwrap();
    let xs = gen.sample_n(&mut rng, n);
    let ys = xs
        .iter()
        .map(|x| if x[0] + 0.3 * x[1] >= 0.0 { 1.0 } else { -1.0 })
        .collect();
    (xs, ys)
}

#[test]
fn dual_objective_matches_serial_bitwise() {
    let (xs, ys) = labeled_dataset(700, 6, 31);
    let ball = WassersteinBall::new(0.15, 0.8).unwrap();
    let obj = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
    let packed: Vec<f64> = (0..8).map(|i| 0.2 * i as f64 - 0.5).collect();
    let model = LinearModel::from_packed(&packed[..7]);

    let (pv, pg) = obj.value_and_gradient(&packed);
    let pr = obj.exact_robust_risk(&model);
    let ((sv, sg), sr) = dre_parallel::with_serial(|| {
        (
            obj.value_and_gradient(&packed),
            obj.exact_robust_risk(&model),
        )
    });
    assert_eq!(pv.to_bits(), sv.to_bits(), "dual value");
    assert_eq!(pr.to_bits(), sr.to_bits(), "exact robust risk");
    assert_bits_eq(&pg, &sg, "dual gradient");
}

#[test]
fn adversarial_accuracy_matches_serial_exactly() {
    let (xs, ys) = labeled_dataset(500, 5, 32);
    let model = LinearModel::new(vec![1.0, 0.4, -0.2, 0.0, 0.7], 0.1);
    for budget in [0.0, 0.1, 0.5, 2.0] {
        let par = adversarial_accuracy(&model, &xs, &ys, budget).unwrap();
        let ser =
            dre_parallel::with_serial(|| adversarial_accuracy(&model, &xs, &ys, budget).unwrap());
        assert_eq!(par.to_bits(), ser.to_bits(), "budget {budget}");
    }
}

#[test]
fn em_objective_trace_matches_serial_bitwise() {
    let mut rng = seeded_rng(6);
    let cfg = TaskFamilyConfig {
        dim: 3,
        num_clusters: 2,
        cluster_separation: 4.0,
        within_cluster_std: 0.2,
        label_noise: 0.02,
        steepness: 3.0,
    };
    let family = TaskFamily::generate(&cfg, &mut rng).unwrap();
    let comps: Vec<(f64, Vec<f64>, Matrix)> = family
        .cluster_centers()
        .iter()
        .map(|c| (1.0, c.clone(), Matrix::from_diag(&[0.1; 4])))
        .collect();
    let prior = dre_bayes::MixturePrior::new(comps).unwrap();
    let task = family.sample_task(&mut rng);
    let data = task.generate(25, &mut rng);
    let learner = EdgeLearner::new(
        EdgeLearnerConfig {
            em_rounds: 5,
            ..EdgeLearnerConfig::default()
        },
        prior,
    )
    .unwrap();

    let par = learner.fit(&data).unwrap();
    let ser = dre_parallel::with_serial(|| learner.fit(&data).unwrap());
    assert_bits_eq(&par.objective_trace, &ser.objective_trace, "EM trace");
    assert_bits_eq(par.model.weights(), ser.model.weights(), "EM final weights");
    assert_eq!(par.em_rounds, ser.em_rounds);
    assert_eq!(
        par.robust_risk.to_bits(),
        ser.robust_risk.to_bits(),
        "certified risk"
    );
}
