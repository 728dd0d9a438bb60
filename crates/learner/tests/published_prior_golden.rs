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

mod support;

use dre_bayes::MixturePrior;
use dre_learner::PriorSink;

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

#[test]
fn colluding_stream_publishes_the_golden_priors() {
    let mut learner = support::learner();
    let mut sink = HashSink {
        hash: 0xCBF2_9CE4_8422_2325,
        publishes: 0,
    };
    let (mut absorbed, mut gated, mut quarantined) = (0, 0, 0);
    for batch in support::stream() {
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
