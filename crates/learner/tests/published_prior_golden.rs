//! Golden hash of every prior a [`CloudLearner`] publishes for a fixed
//! report stream with a colluding cohort.
//!
//! The stream interleaves honest reports from two clusters with a 30%
//! cohort of colluding devices pushing a shared off-manifold model, and
//! runs with admission on, so the gate, the reputation ledger, the SIR
//! push/resample path and the prior collapse all feed the pinned bytes.
//! Any change to the learner's arithmetic or ordering shows up here as a
//! different hash.
//!
//! The hash was recorded on x86-64 Linux; a platform whose libm rounds
//! `exp`/`ln` differently will differ.

use dre_bayes::MixturePrior;
use dre_learner::{AdmissionConfig, CloudLearner, LearnerConfig, PriorSink};
use dre_prob::{seeded_rng, MvNormal};
use dre_serve::ReportedModel;

/// FNV-1a over every published `(task_id, serialized prior)` in order.
struct HashSink {
    hash: u64,
    publishes: usize,
}

impl HashSink {
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl PriorSink for HashSink {
    fn publish(&mut self, task_id: u64, prior: &MixturePrior) {
        self.feed(&task_id.to_le_bytes());
        self.feed(&dro_edge::transfer::serialize_prior(prior));
        self.publishes += 1;
    }
}

/// 30 batches of 10 reports from two overlapping honest clusters at
/// `(±1.2, 0)`. From batch 4 on, the last 3 reports of every batch come from
/// colluding devices 100–102 near `(0, 9)`.
fn stream() -> Vec<Vec<ReportedModel>> {
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

#[test]
fn colluding_stream_publishes_the_golden_priors() {
    let mut learner = CloudLearner::try_new(LearnerConfig {
        refresh_interval: 6,
        admission: Some(AdmissionConfig {
            warmup: 8,
            ..AdmissionConfig::default()
        }),
        ..LearnerConfig::default()
    })
    .unwrap();
    let mut sink = HashSink {
        hash: 0xCBF2_9CE4_8422_2325,
        publishes: 0,
    };
    let (mut absorbed, mut gated, mut quarantined) = (0, 0, 0);
    for batch in stream() {
        let tick = learner.absorb(batch, &mut sink).unwrap();
        absorbed += tick.absorbed;
        gated += tick.gated;
        quarantined += tick.quarantined;
    }
    learner.force_refresh(&mut sink).unwrap();
    let got = (
        sink.hash,
        sink.publishes,
        absorbed,
        gated,
        quarantined,
        learner.filter_resamples(5),
        learner.filter_map_clusters(5),
    );
    assert_eq!(got, GOLDEN, "published priors changed");
}

/// `(hash, publishes, absorbed, gated, quarantined, resamples, map clusters)`.
const GOLDEN: (u64, usize, usize, usize, usize, u64, usize) =
    (0xDB47224645A9E2FC, 31, 222, 78, 3, 7, 4);
