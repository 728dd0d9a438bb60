//! The seeded colluding report stream and learner configuration shared by
//! `published_prior_golden` (which pins what the learner publishes for it)
//! and `absorb_alloc` (which pins what absorbing it costs).

use dre_learner::{AdmissionConfig, CloudLearner, LearnerConfig};
use dre_prob::{seeded_rng, MvNormal};
use dre_serve::ReportedModel;

/// 30 batches of 10 reports from two overlapping honest clusters at
/// `(±1.2, 0)`. From batch 4 on, the last 3 reports of every batch come from
/// colluding devices 100–102 near `(0, 9)`.
pub fn stream() -> Vec<Vec<ReportedModel>> {
    let mut rng = seeded_rng(77);
    let a = MvNormal::isotropic(vec![1.2, 0.0], 0.4).unwrap();
    let b = MvNormal::isotropic(vec![-1.2, 0.0], 0.4).unwrap();
    let poison = MvNormal::isotropic(vec![0.0, 9.0], 0.01).unwrap();
    let mut seq = 0;
    (0..30)
        .map(|batch| {
            (0..10)
                .map(|i| {
                    seq += 1;
                    let (device_id, params) = if batch < 4 || i < 7 {
                        let src = if seq % 2 == 0 { &a } else { &b };
                        (seq % 11, src.sample(&mut rng))
                    } else {
                        (100 + (i - 7) as u64, poison.sample(&mut rng))
                    };
                    ReportedModel {
                        task_id: 5,
                        device_id,
                        seq,
                        params,
                    }
                })
                .collect()
        })
        .collect()
}

/// A learner with admission on, refreshing every 6 reports.
pub fn learner() -> CloudLearner {
    CloudLearner::try_new(LearnerConfig {
        refresh_interval: 6,
        admission: Some(AdmissionConfig {
            warmup: 8,
            ..AdmissionConfig::default()
        }),
        ..LearnerConfig::default()
    })
    .unwrap()
}
