//! Execution-policy layer for the workspace's data-parallel hot paths.
//!
//! The paper's pipeline is dominated by embarrassingly-parallel per-sample
//! and per-cluster work: Wasserstein dual evaluation over `n` samples,
//! collapsed-Gibbs predictive scoring over clusters, EM responsibilities,
//! and adversarial feature-shift evaluation. This crate gives those loops a
//! single execution policy with two hard guarantees:
//!
//! 1. **Determinism.** Every primitive produces *bit-identical* results
//!    regardless of thread count (including the serial fallback). Maps
//!    assign each index to exactly one writer, and reductions fold into
//!    fixed-size per-chunk partials ([`REDUCE_CHUNK`]) that are combined in
//!    index order — the summation tree never depends on how work was
//!    scheduled.
//! 2. **Serial fallback.** With the default-on `parallel` cargo feature
//!    disabled the crate contains no threading code at all; with it enabled,
//!    `DRE_NUM_THREADS=1`/`RAYON_NUM_THREADS=1` or a [`with_serial`]
//!    scope select the same serial path at runtime.
//!
//! Threads are `std::thread::scope` workers (the container environment
//! bakes in no external crates, so this plays the role a `rayon` pool
//! would). Work is split into chunks handed round-robin to at most
//! [`max_threads`] workers; the scheduling affects only wall-time, never
//! values.
//!
//! # Example
//!
//! ```
//! // A deterministic parallel sum: identical for any thread count.
//! let s = dre_parallel::par_sum_indexed(10_000, |i| (i as f64).sqrt());
//! let t = dre_parallel::with_serial(|| {
//!     dre_parallel::par_sum_indexed(10_000, |i| (i as f64).sqrt())
//! });
//! assert_eq!(s, t);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Fixed reduction granularity: reductions fold `REDUCE_CHUNK` consecutive
/// terms serially into one partial, then combine the partials in index
/// order. Because the chunk size never depends on the thread count, the
/// floating-point summation tree is the same on 1 thread and on 64.
pub const REDUCE_CHUNK: usize = 256;

/// Work below this many items is not worth a thread spawn.
const DEFAULT_MIN_PAR: usize = 64;

static FORCE_SERIAL: AtomicBool = AtomicBool::new(false);
static SERIAL_GUARD: Mutex<()> = Mutex::new(());
static THREADS: OnceLock<usize> = OnceLock::new();

/// Maximum worker count: `DRE_NUM_THREADS`, then `RAYON_NUM_THREADS`, then
/// the machine's available parallelism. Cached on first call.
pub fn max_threads() -> usize {
    *THREADS.get_or_init(|| {
        for var in ["DRE_NUM_THREADS", "RAYON_NUM_THREADS"] {
            if let Ok(v) = std::env::var(var) {
                if let Ok(n) = v.trim().parse::<usize>() {
                    if n >= 1 {
                        return n;
                    }
                }
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// Worker count the next primitive call will actually use: 1 when the
/// `parallel` feature is off or serial mode is forced, [`max_threads`]
/// otherwise.
pub fn effective_threads() -> usize {
    if cfg!(not(feature = "parallel")) || FORCE_SERIAL.load(Ordering::Relaxed) {
        1
    } else {
        max_threads()
    }
}

/// Runs `f` with the serial path forced, restoring the previous mode after.
/// Used by the equivalence tests and the `bench_parallel` harness to time
/// serial vs parallel execution inside one process. Nested/concurrent
/// callers are serialized by an internal lock.
pub fn with_serial<R>(f: impl FnOnce() -> R) -> R {
    let _guard = SERIAL_GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let prev = FORCE_SERIAL.swap(true, Ordering::Relaxed);
    let out = f();
    FORCE_SERIAL.store(prev, Ordering::Relaxed);
    out
}

/// Evaluates `work(start, end)` over the chunking of `0..n` into pieces of
/// `chunk` items and returns the per-chunk results **in chunk order**.
///
/// This is the one scheduling primitive everything else builds on: chunks
/// are handed round-robin to scoped worker threads (or evaluated in a plain
/// loop on the serial path), and the output order is by chunk index either
/// way.
pub fn run_chunked<A, F>(n: usize, chunk: usize, work: F) -> Vec<A>
where
    A: Send,
    F: Fn(usize, usize) -> A + Sync,
{
    let chunk = chunk.max(1);
    let num_chunks = n.div_ceil(chunk);
    let workers = effective_threads().min(num_chunks);
    if workers <= 1 {
        return (0..num_chunks)
            .map(|c| work(c * chunk, ((c + 1) * chunk).min(n)))
            .collect();
    }
    run_chunked_parallel(n, chunk, num_chunks, workers, &work)
}

#[cfg(feature = "parallel")]
fn run_chunked_parallel<A, F>(
    n: usize,
    chunk: usize,
    num_chunks: usize,
    workers: usize,
    work: &F,
) -> Vec<A>
where
    A: Send,
    F: Fn(usize, usize) -> A + Sync,
{
    let mut slots: Vec<Option<A>> = (0..num_chunks).map(|_| None).collect();
    // Round-robin the chunk slots into one disjoint bucket per worker.
    let mut buckets: Vec<Vec<(usize, &mut Option<A>)>> = (0..workers).map(|_| Vec::new()).collect();
    for (c, slot) in slots.iter_mut().enumerate() {
        buckets[c % workers].push((c, slot));
    }
    std::thread::scope(|s| {
        for bucket in buckets {
            s.spawn(move || {
                for (c, slot) in bucket {
                    *slot = Some(work(c * chunk, ((c + 1) * chunk).min(n)));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every chunk is assigned to exactly one worker"))
        .collect()
}

#[cfg(not(feature = "parallel"))]
fn run_chunked_parallel<A, F>(_: usize, _: usize, _: usize, _: usize, _: &F) -> Vec<A>
where
    A: Send,
    F: Fn(usize, usize) -> A + Sync,
{
    unreachable!("effective_threads() is 1 without the `parallel` feature")
}

/// Order-preserving indexed map: returns `[f(0), …, f(n-1)]`.
///
/// Each index is computed by exactly one worker, so the output does not
/// depend on scheduling at all. Falls back to a plain serial map below
/// `min_par` items.
pub fn par_map_indexed_min<U, F>(n: usize, min_par: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = effective_threads();
    if workers <= 1 || n < min_par.max(2) {
        return (0..n).map(f).collect();
    }
    // Over-split 4× per worker for load balance; chunking cannot change the
    // values, only who computes them.
    let chunk = n.div_ceil(workers * 4).max(1);
    let parts = run_chunked(n, chunk, |s, e| (s..e).map(&f).collect::<Vec<U>>());
    let mut out = Vec::with_capacity(n);
    for p in parts {
        out.extend(p);
    }
    out
}

/// [`par_map_indexed_min`] with the default spawn threshold.
pub fn par_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map_indexed_min(n, DEFAULT_MIN_PAR, f)
}

/// Order-preserving map over a slice.
pub fn par_map_slice<T, U, F>(xs: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(xs.len(), |i| f(&xs[i]))
}

/// [`par_map_slice`] with an explicit spawn threshold, for call sites whose
/// per-item work is expensive enough to parallelize at small `n` (e.g. one
/// `O(d³)` factorization per cluster).
pub fn par_map_slice_min<T, U, F>(xs: &[T], min_par: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed_min(xs.len(), min_par, |i| f(&xs[i]))
}

/// Order-preserving map over a slice **into a caller-provided buffer**, so
/// hot loops (e.g. per-point Gibbs scoring) can reuse one allocation across
/// millions of calls instead of collecting a fresh `Vec` each time.
///
/// Each output element is written by exactly one worker, so the result is
/// bit-identical under any thread count. Falls back to a plain serial loop
/// below `min_par` items.
///
/// # Panics
///
/// Panics when `out.len() != xs.len()`.
pub fn par_fill_slice_min<T, U, F>(out: &mut [U], xs: &[T], min_par: usize, f: F)
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    assert_eq!(out.len(), xs.len(), "par_fill_slice_min buffer mismatch");
    let n = xs.len();
    let workers = effective_threads();
    if workers <= 1 || n < min_par.max(2) {
        for (o, x) in out.iter_mut().zip(xs) {
            *o = f(x);
        }
        return;
    }
    let chunk = n.div_ceil(workers * 4).max(1);
    par_fill_parallel(out, xs, chunk, workers, &f);
}

#[cfg(feature = "parallel")]
fn par_fill_parallel<T, U, F>(out: &mut [U], xs: &[T], chunk: usize, workers: usize, f: &F)
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    // Round-robin disjoint output chunks to one bucket per worker; every
    // element has exactly one writer regardless of scheduling.
    let mut buckets: Vec<Vec<(usize, &mut [U])>> = (0..workers).map(|_| Vec::new()).collect();
    for (c, slot) in out.chunks_mut(chunk).enumerate() {
        buckets[c % workers].push((c, slot));
    }
    std::thread::scope(|s| {
        for bucket in buckets {
            s.spawn(move || {
                for (c, slot) in bucket {
                    let start = c * chunk;
                    for (j, o) in slot.iter_mut().enumerate() {
                        *o = f(&xs[start + j]);
                    }
                }
            });
        }
    });
}

#[cfg(not(feature = "parallel"))]
fn par_fill_parallel<T, U, F>(_: &mut [U], _: &[T], _: usize, _: usize, _: &F)
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    unreachable!("effective_threads() is 1 without the `parallel` feature")
}

/// Deterministic sum `Σ_{i<n} f(i)` with fixed-order chunked reduction.
///
/// Terms are folded serially within [`REDUCE_CHUNK`]-sized chunks and the
/// per-chunk partials are added in chunk order — the same tree whether the
/// chunks were computed by 1 thread or many.
pub fn par_sum_indexed<F>(n: usize, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    if n <= REDUCE_CHUNK || effective_threads() <= 1 {
        // Same chunking as the parallel path (a single run_chunked call
        // below would produce the identical tree); short-circuit the
        // scheduling machinery but keep the per-chunk fold boundaries.
        let mut total = 0.0;
        let mut start = 0;
        while start < n {
            let end = (start + REDUCE_CHUNK).min(n);
            let mut partial = 0.0;
            for i in start..end {
                partial += f(i);
            }
            total += partial;
            start = end;
        }
        return total;
    }
    run_chunked(n, REDUCE_CHUNK, |s, e| {
        let mut partial = 0.0;
        for i in s..e {
            partial += f(i);
        }
        partial
    })
    .into_iter()
    .sum()
}

/// Deterministic chunked fold for reductions whose accumulator is richer
/// than a scalar (e.g. an objective value plus a gradient vector).
///
/// Produces one accumulator per [`REDUCE_CHUNK`]-sized chunk — `fold`
/// receives the chunk-local accumulator and each index in order — and
/// returns the accumulators **in chunk order** for the caller to combine
/// serially. The chunk boundaries are independent of thread count, so a
/// fixed-order combine yields identical results on any schedule.
pub fn par_fold_chunks<A, F, G>(n: usize, make: G, fold: F) -> Vec<A>
where
    A: Send,
    G: Fn() -> A + Sync,
    F: Fn(A, usize) -> A + Sync,
{
    run_chunked(n, REDUCE_CHUNK, |s, e| {
        let mut acc = make();
        for i in s..e {
            acc = fold(acc, i);
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that enters `with_serial`, so
    /// `with_serial_restores_mode` never reads the global mode while a
    /// sibling test is inside its serial scope.
    static MODE_LOCK: Mutex<()> = Mutex::new(());

    fn mode_lock() -> std::sync::MutexGuard<'static, ()> {
        MODE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn map_is_order_preserving() {
        let v = par_map_indexed_min(1000, 1, |i| i * i);
        assert_eq!(v.len(), 1000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn map_matches_serial_exactly() {
        let _mode = mode_lock();
        let f = |i: usize| ((i as f64) * 0.37).sin() / (1.0 + i as f64);
        let par: Vec<f64> = par_map_indexed_min(10_000, 1, f);
        let ser: Vec<f64> = with_serial(|| par_map_indexed_min(10_000, 1, f));
        assert_eq!(par, ser);
    }

    #[test]
    fn sum_is_bit_identical_serial_vs_parallel() {
        let _mode = mode_lock();
        // Terms of wildly different magnitudes make association visible.
        let f =
            |i: usize| (1.0f64 / (1 + i) as f64) * if i.is_multiple_of(2) { 1e10 } else { 1e-10 };
        let par = par_sum_indexed(100_000, f);
        let ser = with_serial(|| par_sum_indexed(100_000, f));
        assert_eq!(par.to_bits(), ser.to_bits());
    }

    #[test]
    fn fold_chunks_has_fixed_boundaries() {
        let parts = par_fold_chunks(REDUCE_CHUNK * 3 + 5, || 0usize, |a, _| a + 1);
        assert_eq!(parts, vec![REDUCE_CHUNK, REDUCE_CHUNK, REDUCE_CHUNK, 5]);
    }

    #[test]
    fn fill_slice_matches_map_and_serial() {
        let _mode = mode_lock();
        let xs: Vec<f64> = (0..5000).map(|i| i as f64 * 0.11).collect();
        let f = |x: &f64| (x * 0.37).sin() / (1.0 + x);
        let mut buf = vec![0.0f64; xs.len()];
        par_fill_slice_min(&mut buf, &xs, 1, f);
        let mapped = par_map_slice_min(&xs, 1, f);
        assert_eq!(buf, mapped);
        let mut ser = vec![0.0f64; xs.len()];
        with_serial(|| par_fill_slice_min(&mut ser, &xs, 1, f));
        for (p, s) in buf.iter().zip(&ser) {
            assert_eq!(p.to_bits(), s.to_bits());
        }
        // Empty input is a no-op.
        let mut empty: Vec<f64> = Vec::new();
        par_fill_slice_min(&mut empty, &[], 1, f);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "buffer mismatch")]
    fn fill_slice_rejects_length_mismatch() {
        let mut buf = vec![0.0f64; 2];
        par_fill_slice_min(&mut buf, &[1.0], 1, |x: &f64| *x);
    }

    #[test]
    fn with_serial_restores_mode() {
        let _mode = mode_lock();
        let before = effective_threads();
        with_serial(|| assert_eq!(effective_threads(), 1));
        assert_eq!(effective_threads(), before);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(par_sum_indexed(0, |_| 1.0), 0.0);
        assert!(par_map_indexed(0, |i| i).is_empty());
        assert_eq!(par_map_indexed_min(1, 0, |i| i + 1), vec![1]);
        assert_eq!(run_chunked(0, 16, |s, e| (s, e)).len(), 0);
    }
}
