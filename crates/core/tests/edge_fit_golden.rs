//! Golden bit patterns for [`EdgeLearner::fit`].
//!
//! The edge fit is the fleet's hot loop, and every speed-up to it (line
//! search bookkeeping, certification hoisting, fused loss kernels) must be
//! bit-identical: same floating-point operations in the same order. These
//! goldens pin the fitted model, the exact-objective trace and the EM round
//! count down to their `f64` bit patterns for two priors — one broad
//! zero-centred component (the fleet's cold start) and a three-component
//! prior built from the true cluster centres (the multi-start path).
//!
//! The patterns were recorded on x86-64 Linux; a platform whose libm rounds
//! `exp`/`ln_1p` differently will differ in the last bits.

use dre_bayes::MixturePrior;
use dre_data::{TaskFamily, TaskFamilyConfig};
use dre_linalg::Matrix;
use dre_prob::seeded_rng;
use dro_edge::{EdgeLearner, EdgeLearnerConfig};

/// `(model [w…, b], objective_trace, em_rounds)` as bit patterns.
fn fit_bits(
    config: EdgeLearnerConfig,
    prior: MixturePrior,
    family: &TaskFamily,
    seed: u64,
) -> (Vec<u64>, Vec<u64>, usize) {
    let mut rng = seeded_rng(seed);
    let task = family.sample_task(&mut rng);
    let data = task.generate(12, &mut rng);
    let fit = EdgeLearner::new(config, prior).unwrap().fit(&data).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    (
        bits(&fit.model.to_packed()),
        bits(&fit.objective_trace),
        fit.em_rounds,
    )
}

fn family(num_clusters: usize) -> TaskFamily {
    let cfg = TaskFamilyConfig {
        dim: 4,
        num_clusters,
        cluster_separation: 4.0,
        within_cluster_std: 0.2,
        label_noise: 0.02,
        steepness: 3.0,
    };
    TaskFamily::generate(&cfg, &mut seeded_rng(41)).unwrap()
}

#[test]
fn broad_prior_fit_is_bit_identical_to_the_golden() {
    let prior = MixturePrior::single(vec![0.0; 5], Matrix::identity(5).scaled(25.0)).unwrap();
    // A zero EM tolerance runs every round, so six M-steps feed the bits.
    let config = EdgeLearnerConfig {
        em_rounds: 6,
        em_tol: 0.0,
        ..EdgeLearnerConfig::default()
    };
    let (model, trace, rounds) = fit_bits(config, prior, &family(2), 7);
    assert_eq!(model, BROAD_MODEL, "model bits changed");
    assert_eq!(trace, BROAD_TRACE, "objective_trace bits changed");
    assert_eq!(rounds, BROAD_ROUNDS, "em_rounds changed");
}

#[test]
fn three_component_prior_fit_is_bit_identical_to_the_golden() {
    let family = family(3);
    let comps: Vec<(f64, Vec<f64>, Matrix)> = family
        .cluster_centers()
        .iter()
        .map(|c| (1.0, c.clone(), Matrix::from_diag(&[0.1; 5])))
        .collect();
    let prior = MixturePrior::new(comps).unwrap();
    let (model, trace, rounds) = fit_bits(EdgeLearnerConfig::default(), prior, &family, 8);
    assert_eq!(model, MIX3_MODEL, "model bits changed");
    assert_eq!(trace, MIX3_TRACE, "objective_trace bits changed");
    assert_eq!(rounds, MIX3_ROUNDS, "em_rounds changed");
}

const BROAD_MODEL: &[u64] = &[
    0xBFE90595F18717C9,
    0x3FBB95949D89F12D,
    0xBFCE61AB9BB7B324,
    0xBFEA2F3F3D85FDC3,
    0x3FFAC05540ECB3D5,
];
const BROAD_TRACE: &[u64] = &[
    0x3FFBF23A05DFBF88,
    0x3FF7F6B046505A7B,
    0x3FF7F6B045F07D7E,
    0x3FF7F6B0464180C7,
    0x3FF7F6B045E53EA8,
    0x3FF7F6B0462599DC,
    0x3FF7F6B045DE1F9C,
];
const BROAD_ROUNDS: usize = 6;
const MIX3_MODEL: &[u64] = &[
    0x400CB78D5DB42D59,
    0x3FB9329DC250A206,
    0xBFEB5FB1CF034032,
    0x3FF1965A5C3D7D30,
    0x3FC696D6AC892AD5,
];
const MIX3_TRACE: &[u64] = &[0x3FE961347999CF21, 0x3FE89BE11984EAE8, 0x3FE89BE11984E4A5];
const MIX3_ROUNDS: usize = 2;
