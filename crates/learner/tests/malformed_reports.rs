//! Regression tests: a bad report must cost exactly itself.
//!
//! 1. A finite report that overflows a particle's rank-1 update (a report
//!    at `+1.7e308` after one at `−1.7e308`) used to empty the SIR ensemble
//!    mid-push, so the next collapse indexed an empty particle list and
//!    panicked. The push is now all-or-nothing.
//! 2. One non-finite or wrong-dimension report in a drained batch used to
//!    fail the whole `absorb`, losing every other report in the batch. It is
//!    now skipped and counted, and the rest of the batch folds exactly as if
//!    it were absent.
//! 3. One finite report near `√f64::MAX` (`−2e154`) used to be absorbed and
//!    overflow its cluster's `Σxxᵀ`, so every later collapse of the task
//!    failed and the next publishing `absorb` lost its batch. Reports beyond
//!    `CloudLearner::max_report_magnitude` are now skipped like malformed
//!    ones.

use std::sync::Arc;

use dre_learner::{AdmissionConfig, CloudLearner, LearnerConfig, SirConfig, SirDpFilter};
use dre_linalg::Matrix;
use dre_prob::{seeded_rng, MvNormal, NormalInverseWishart};
use dre_serve::{ReportedModel, ServerState};

const TASK: u64 = 1;

fn honest(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = seeded_rng(seed);
    let a = MvNormal::isotropic(vec![3.0, 0.0], 0.05).unwrap();
    let b = MvNormal::isotropic(vec![-3.0, 0.0], 0.05).unwrap();
    (0..n)
        .map(|i| if i % 2 == 0 { &a } else { &b }.sample(&mut rng))
        .collect()
}

fn report(seq: u64, params: Vec<f64>) -> ReportedModel {
    ReportedModel {
        task_id: TASK,
        device_id: seq % 5,
        seq,
        params,
    }
}

/// Everything observable about a filter, as bit patterns: observation and
/// resample counts, MAP cluster count, ESS, and the predictive marginal at
/// a few probe points.
fn fingerprint(f: &SirDpFilter) -> Vec<u64> {
    let mut out = vec![
        f.num_observations() as u64,
        f.resamples(),
        f.map_num_clusters() as u64,
        f.ess().to_bits(),
    ];
    for probe in [[3.0, 0.0], [-3.0, 0.0], [0.0, 1.0], [40.0, -7.0]] {
        out.push(f.predictive_log_marginal(&probe).unwrap().to_bits());
    }
    out
}

fn unit_base() -> NormalInverseWishart {
    NormalInverseWishart::new(vec![0.0; 2], 0.05, Matrix::identity(2), 4.0).unwrap()
}

#[test]
fn overflowing_push_leaves_the_ensemble_intact() {
    let mut f = SirDpFilter::new(unit_base(), SirConfig::default()).unwrap();
    let mut clean = f.clone();
    for x in honest(6, 3) {
        f.push(&x).unwrap();
        clean.push(&x).unwrap();
    }
    f.push(&[-1.7e308, 0.0]).unwrap();
    clean.push(&[-1.7e308, 0.0]).unwrap();
    let before = fingerprint(&f);
    assert!(f.push(&[1.7e308, 0.0]).is_err(), "x − μ overflows");
    assert_eq!(
        fingerprint(&f),
        before,
        "a failed push must not touch the ensemble"
    );
    assert_eq!(f.num_particles(), SirConfig::default().num_particles);
    // Collapsing no longer panics (the overflowed cluster's statistics make
    // it an error instead).
    let _ = f.to_mixture_prior();
    // Later reports fold exactly as if the failed push never happened.
    for x in honest(8, 4) {
        f.push(&x).unwrap();
        clean.push(&x).unwrap();
    }
    assert_eq!(fingerprint(&f), fingerprint(&clean));
}

#[test]
fn overflowing_report_then_force_refresh_does_not_panic() {
    let mut sink = Arc::new(ServerState::new());
    let mut learner = CloudLearner::new(LearnerConfig::default());
    let batch = honest(6, 5)
        .into_iter()
        .enumerate()
        .map(|(i, x)| report(i as u64 + 1, x))
        .collect();
    assert_eq!(learner.absorb(batch, &mut sink).unwrap().absorbed, 6);
    let tick = learner
        .absorb(vec![report(7, vec![-1.7e308, 0.0])], &mut sink)
        .unwrap();
    assert_eq!((tick.absorbed, tick.malformed), (0, 1), "out of scale");
    let tick = learner
        .absorb(vec![report(8, vec![1.7e308, 0.0])], &mut sink)
        .unwrap();
    assert_eq!(
        (tick.absorbed, tick.malformed),
        (0, 1),
        "skipped, not fatal"
    );
    assert_eq!(learner.filter_observations(TASK), 6);
    // Used to panic indexing an emptied particle list, then to fail on the
    // overflowed cluster.
    learner.force_refresh(&mut sink).unwrap();
}

/// Absorbs `batch` in one pass, flushes, and returns the tick plus the
/// published prior's bytes.
fn absorb_and_publish(
    admission: Option<AdmissionConfig>,
    batch: Vec<ReportedModel>,
) -> (dre_learner::LearnerTick, Vec<u8>) {
    let state = Arc::new(ServerState::new());
    let mut sink = Arc::clone(&state);
    let mut learner = CloudLearner::new(LearnerConfig {
        admission,
        ..LearnerConfig::default()
    });
    let tick = learner.absorb(batch, &mut sink).unwrap();
    learner.force_refresh(&mut sink).unwrap();
    let payload = state.prior_entry(TASK).unwrap().payload.as_ref().clone();
    (tick, payload)
}

#[test]
fn non_finite_report_mid_batch_is_skipped_and_the_rest_folds_bit_identically() {
    let good: Vec<ReportedModel> = honest(12, 9)
        .into_iter()
        .enumerate()
        .map(|(i, x)| report(i as u64 + 1, x))
        .collect();
    let mut poisoned = good.clone();
    poisoned.insert(7, report(100, vec![f64::INFINITY, 0.0]));
    poisoned.insert(2, report(101, vec![f64::NAN, 1.0]));
    poisoned.insert(10, report(102, vec![1.0])); // wrong dimension
    poisoned.insert(0, report(103, vec![])); // empty
    for admission in [None, Some(AdmissionConfig::default())] {
        let (clean_tick, clean_prior) = absorb_and_publish(admission.clone(), good.clone());
        let (tick, prior) = absorb_and_publish(admission, poisoned.clone());
        assert_eq!(tick.malformed, 4);
        assert_eq!(tick.absorbed, 12);
        assert_eq!(tick.absorbed, clean_tick.absorbed);
        assert_eq!(tick.gated, clean_tick.gated);
        assert_eq!(prior, clean_prior, "the good reports must fold as if alone");
    }
}

#[test]
fn huge_finite_report_mid_batch_is_skipped_and_the_prior_is_unchanged() {
    let good: Vec<ReportedModel> = honest(12, 9)
        .into_iter()
        .enumerate()
        .map(|(i, x)| report(i as u64 + 1, x))
        .collect();
    let mut poisoned = good.clone();
    poisoned.insert(7, report(100, vec![-2e154, 0.0]));
    for admission in [None, Some(AdmissionConfig::default())] {
        let (clean_tick, clean_prior) = absorb_and_publish(admission.clone(), good.clone());
        let (tick, prior) = absorb_and_publish(admission, poisoned.clone());
        assert_eq!((tick.absorbed, tick.malformed), (12, 1));
        assert_eq!(tick.gated, clean_tick.gated);
        assert_eq!(prior, clean_prior, "the good reports must fold as if alone");
    }
}

#[test]
fn reports_at_the_scale_bound_still_collapse() {
    let b = CloudLearner::max_report_magnitude(2);
    assert!(b > 1e100 && b < 2e154);
    let extremes: Vec<ReportedModel> = (0..24)
        .map(|i| {
            let s = if i % 3 == 0 { -b } else { b };
            report(i + 1, vec![s, -s])
        })
        .collect();
    let (tick, prior) = absorb_and_publish(None, extremes);
    assert_eq!((tick.absorbed, tick.malformed), (24, 0));
    assert!(!prior.is_empty());
    let mut sink = Arc::new(ServerState::new());
    let mut learner = CloudLearner::new(LearnerConfig::default());
    let beyond = b.next_up();
    let tick = learner
        .absorb(vec![report(1, vec![beyond, 0.0])], &mut sink)
        .unwrap();
    assert_eq!((tick.absorbed, tick.malformed), (0, 1));
}

#[test]
fn a_lone_malformed_report_creates_no_task() {
    let mut sink = Arc::new(ServerState::new());
    let mut learner = CloudLearner::new(LearnerConfig::default());
    let tick = learner
        .absorb(vec![report(1, vec![f64::NEG_INFINITY])], &mut sink)
        .unwrap();
    assert_eq!((tick.absorbed, tick.malformed), (0, 1));
    assert!(learner.task_ids().is_empty());
}
