//! The fixed chunked summation tree that the workspace's sample sums share.
//!
//! The edge fit's multistart scores, the Wasserstein dual kernel, the robust
//! certificates and the variational bound all sum one term per sample. They
//! fold the terms in [`REDUCE_CHUNK`]-sized chunks and add the per-chunk
//! partials in chunk order. The edge-fit goldens and the committed
//! experiment results pin that exact floating-point tree, so every such sum
//! goes through [`par_sum_indexed`] or [`par_fold_chunks`] rather than a
//! flat loop of its own.
//!
//! Everything runs on the calling thread. [`with_serial`] and
//! [`effective_threads`] are no-op shims kept for the fleet benchmark's
//! callers.
//!
//! # Example
//!
//! ```
//! let f = |i: usize| 1.0 / (1 + i) as f64;
//! // 300 terms: one full chunk of 256, then a partial chunk of 44.
//! let first: f64 = (0..256).fold(0.0, |acc, i| acc + f(i));
//! let second: f64 = (256..300).fold(0.0, |acc, i| acc + f(i));
//! assert_eq!(dre_parallel::par_sum_indexed(300, f), first + second);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Reduction granularity: sums fold `REDUCE_CHUNK` consecutive terms into
/// one partial, then add the partials in index order.
pub const REDUCE_CHUNK: usize = 256;

/// Returns 1: every computation runs on the calling thread.
///
/// Exists only because `fleetbench/src/main.rs` and
/// `fleetbench/src/report.rs` call it.
pub fn effective_threads() -> usize {
    1
}

/// Runs `f` and returns its value.
///
/// Exists only because `fleetbench/src/main.rs` calls it.
pub fn with_serial<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Chunked sum `Σ_{i<n} f(i)`: terms fold within [`REDUCE_CHUNK`]-sized
/// chunks and the per-chunk partials are added in chunk order.
pub fn par_sum_indexed<F>(n: usize, f: F) -> f64
where
    F: Fn(usize) -> f64,
{
    let mut total = 0.0;
    for start in (0..n).step_by(REDUCE_CHUNK) {
        let end = (start + REDUCE_CHUNK).min(n);
        total += (start..end).fold(0.0, |partial, i| partial + f(i));
    }
    total
}

/// Chunked fold for reductions whose accumulator is richer than a scalar
/// (e.g. an objective value plus a gradient vector).
///
/// Produces one accumulator per [`REDUCE_CHUNK`]-sized chunk — `fold`
/// receives the chunk-local accumulator and each index in order — and
/// returns the accumulators **in chunk order** for the caller to combine.
pub fn par_fold_chunks<A, F, G>(n: usize, make: G, fold: F) -> Vec<A>
where
    G: Fn() -> A,
    F: Fn(A, usize) -> A,
{
    (0..n)
        .step_by(REDUCE_CHUNK)
        .map(|start| (start..(start + REDUCE_CHUNK).min(n)).fold(make(), &fold))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_pins_the_chunk_tree_across_boundaries() {
        // Terms of wildly different magnitudes make association visible.
        let f =
            |i: usize| (1.0f64 / (1 + i) as f64) * if i.is_multiple_of(2) { 1e10 } else { 1e-10 };
        let n = REDUCE_CHUNK * 3 + 7;
        let mut chunked = 0.0;
        for c in 0..4 {
            let mut partial = 0.0;
            for i in c * REDUCE_CHUNK..((c + 1) * REDUCE_CHUNK).min(n) {
                partial += f(i);
            }
            chunked += partial;
        }
        let flat = (0..n).fold(0.0, |acc, i| acc + f(i));
        assert_ne!(
            flat.to_bits(),
            chunked.to_bits(),
            "the terms must expose the tree"
        );
        assert_eq!(par_sum_indexed(n, f).to_bits(), chunked.to_bits());
    }

    #[test]
    fn fold_chunks_has_fixed_boundaries() {
        let parts = par_fold_chunks(REDUCE_CHUNK * 3 + 5, || 0usize, |a, _| a + 1);
        assert_eq!(parts, vec![REDUCE_CHUNK, REDUCE_CHUNK, REDUCE_CHUNK, 5]);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(par_sum_indexed(0, |_| 1.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(par_sum_indexed(1, |_| 2.5), 2.5);
        assert!(par_fold_chunks(0, || 0usize, |a, _| a + 1).is_empty());
        assert_eq!(with_serial(effective_threads), 1);
    }
}
