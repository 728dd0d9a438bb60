//! Count golden for the cloud learner: the exact number of allocator calls
//! [`CloudLearner::absorb`] and [`CloudLearner::force_refresh`] make over
//! `published_prior_golden`'s seeded colluding stream (30 batches of 10
//! reports, admission on). Counts are deterministic where clocks are not,
//! so a change to the learner's hot path shows here exactly.
//!
//! Re-pin rule: a change that lowers [`ABSORB_ALLOCATIONS`] states the old
//! and new count in its commit message and in the constant's history; a
//! change that raises it says why in both places.
//!
//! Allocator calls are counted per thread, so tests running concurrently
//! in this binary do not see each other's allocations. The learner does
//! all its work on the calling thread.

mod support;

use dre_alloc_count::{allocations, CountingAlloc};
use dre_bayes::MixturePrior;
use dre_learner::PriorSink;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A sink that only counts publishes, so every counted call is the
/// learner's own.
struct CountSink(usize);

impl PriorSink for CountSink {
    fn publish(&mut self, _task_id: u64, _prior: &MixturePrior) {
        self.0 += 1;
    }
}

/// Allocator calls of the whole stream: every `absorb` and the final
/// `force_refresh`.
///
/// History: 70,335 when first pinned; 70,299 once the categorical scratch
/// built its CDF in one exactly sized buffer; 52,478 once cluster copies
/// shared the base measure and inserts committed in place; 51,702 once a
/// cluster cache held its posterior mean only as its predictive's location,
/// so a cluster copy no longer allocates a second mean; 31,863 once
/// `Cholesky::mahalanobis_sq` took the centre and formed `x − μ` in its
/// forward-substitution buffer, so a predictive density evaluation no
/// longer allocates the difference twice.
const ABSORB_ALLOCATIONS: u64 = 31_863;

/// `(allocator calls, publishes, absorbed, gated)` of one run from a fresh
/// learner. The stream is built before counting starts.
fn run() -> (u64, usize, usize, usize) {
    let batches = support::stream();
    let mut learner = support::learner();
    let mut sink = CountSink(0);
    let (calls, (absorbed, gated)) = allocations(|| {
        let (mut absorbed, mut gated) = (0, 0);
        for batch in batches {
            let tick = learner.absorb(batch, &mut sink).unwrap();
            absorbed += tick.absorbed;
            gated += tick.gated;
        }
        learner.force_refresh(&mut sink).unwrap();
        (absorbed, gated)
    });
    (calls, sink.0, absorbed, gated)
}

#[test]
fn absorbing_the_colluding_stream_makes_the_pinned_allocator_calls() {
    let first = run();
    // The same workload as published_prior_golden's pin.
    assert_eq!((first.1, first.2, first.3), (31, 222, 78));
    // A second run from a fresh learner counts the same: nothing lazily
    // initialised on the first run hides in the pin.
    assert_eq!(run(), first);
    assert_eq!(first.0, ABSORB_ALLOCATIONS, "allocator calls changed");
}
