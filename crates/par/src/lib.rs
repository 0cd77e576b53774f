//! # cc-par — deterministic fixed-chunk data parallelism
//!
//! The repository's premise is *deterministic* algorithms with
//! bit-reproducible floating-point summation order, so this crate's
//! parallel primitives are designed around one invariant:
//!
//! > **The work decomposition depends only on the problem size, never on
//! > the thread count.** Each chunk is processed sequentially, chunks
//! > write disjoint outputs (or are reduced in chunk-index order), and
//! > therefore the result is bitwise identical for 1, 2, or 64 threads —
//! > and identical to a plain serial loop over the same chunks.
//!
//! The execution engine is a persistent [`WorkerPool`] (the workspace
//! builds without external crates, so this is the rayon-shaped layer it
//! codes against instead of `rayon` itself). Everything parallel runs on
//! one fork-join mechanism, [`WorkerPool::scoped`], reached through
//! [`par_groups`]: the items are cut into contiguous *groups*, the calling
//! thread runs the first group, pool workers run the rest, and results
//! come back in group order. Grouping only affects scheduling, not
//! results. The same helper runs `ThreadedComm`'s sharded rounds (one
//! group per source shard) under the [`watchdog_timeout`] deadline.
//!
//! Thread count resolution order:
//! 1. a [`with_threads`] override on the current thread (used by the
//!    determinism tests to pin 1/2/8 threads),
//! 2. the `RAYON_NUM_THREADS` environment variable (kept for
//!    compatibility with rayon-based tooling),
//! 3. the `CC_NUM_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::{global_pool, in_worker, watchdog_timeout, WorkerPool};

use std::cell::Cell;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn env_threads() -> Option<usize> {
    for var in ["RAYON_NUM_THREADS", "CC_NUM_THREADS"] {
        if let Ok(v) = std::env::var(var) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return Some(n);
                }
            }
        }
    }
    None
}

/// The configured thread budget (ignoring any [`with_threads`] override).
pub fn max_threads() -> usize {
    static MAX: OnceLock<usize> = OnceLock::new();
    *MAX.get_or_init(|| {
        env_threads().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// The thread budget in effect for the current thread.
pub fn current_threads() -> usize {
    THREAD_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(max_threads)
}

/// Runs `f` with the thread budget pinned to `n` on the current thread.
///
/// Nested calls stack; the previous budget is restored on exit (also on
/// panic). Used by tests proving bitwise equality across thread counts,
/// and by `bench_snapshot` to time the serial path (`n = 1`) without a
/// rebuild.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "thread budget must be positive");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _guard = Restore(THREAD_OVERRIDE.with(|o| o.replace(Some(n))));
    f()
}

/// Splits `data` into chunks of `chunk` elements (the last may be short)
/// and calls `f(chunk_index, chunk_slice)` for every chunk, possibly from
/// several threads.
///
/// Chunks are disjoint `&mut` windows, so any write pattern is
/// deterministic; the element at global index `i` lives in chunk
/// `i / chunk` at offset `i % chunk`.
///
/// # Panics
///
/// Panics if `chunk == 0`, or propagates a panic from `f`.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let threads = current_threads();
    let nchunks = data.len().div_ceil(chunk).max(1);
    // Checked before grouping so the serial path allocates nothing: the
    // `_into` kernels promise an allocation-free steady state.
    if threads <= 1 || nchunks <= 1 || in_worker() {
        for (idx, sl) in data.chunks_mut(chunk).enumerate() {
            f(idx, sl);
        }
        return;
    }
    let chunks: Vec<&mut [T]> = data.chunks_mut(chunk).collect();
    par_groups(chunks, threads, None, |first, group| {
        for (k, sl) in group.into_iter().enumerate() {
            f(first + k, sl);
        }
    });
}

/// Evaluates `f` on every chunk-range of `0..len` (fixed chunking by
/// `chunk`) and returns the per-chunk results **in chunk order**,
/// regardless of which thread computed what.
///
/// A deterministic reduction is then a plain sequential fold over the
/// returned vector.
///
/// # Panics
///
/// Panics if `chunk == 0`, or propagates a panic from `f`.
pub fn par_map_chunks<R, F>(len: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let ranges: Vec<Range<usize>> = (0..len)
        .step_by(chunk)
        .map(|lo| lo..(lo + chunk).min(len))
        .collect();
    let groups = par_groups(ranges, current_threads(), None, |_, group| {
        group.into_iter().map(&f).collect::<Vec<R>>()
    });
    groups.into_iter().flatten().collect()
}

/// Splits `items` into at most `lanes` contiguous groups of equal length
/// (the last may be short) and runs `f(first_item_index, group)` once per
/// group, returning the results **in group order**. The calling thread
/// runs group 0 itself; the other groups run as one [`WorkerPool::scoped`]
/// task each on the [`global_pool`], whose wait is bounded by `watchdog`
/// (an expired wait aborts the process; see [`WorkerPool::scoped`]).
///
/// With a single group, or when called from inside a pool worker, every
/// group runs inline on the calling thread, in order.
pub fn par_groups<P, R, F>(items: Vec<P>, lanes: usize, watchdog: Option<Duration>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(usize, Vec<P>) -> R + Sync,
{
    let group_len = items.len().div_ceil(lanes.max(1)).max(1);
    let mut items = items.into_iter();
    let groups: Vec<Vec<P>> = std::iter::from_fn(|| {
        let group: Vec<P> = items.by_ref().take(group_len).collect();
        (!group.is_empty()).then_some(group)
    })
    .collect();
    if groups.len() <= 1 || in_worker() {
        return groups
            .into_iter()
            .enumerate()
            .map(|(g, group)| f(g * group_len, group))
            .collect();
    }
    let mut groups = groups.into_iter();
    let own = groups.next().expect("at least two groups");
    let work: Vec<Mutex<Option<Vec<P>>>> = groups.map(|g| Mutex::new(Some(g))).collect();
    let done: Vec<Mutex<Option<R>>> = work.iter().map(|_| Mutex::new(None)).collect();
    let mut own_result = None;
    global_pool(work.len()).scoped(
        work.len(),
        watchdog,
        |t| {
            let group = work[t].lock().expect("group slot poisoned").take();
            let result = f((t + 1) * group_len, group.expect("group dispatched twice"));
            *done[t].lock().expect("result slot poisoned") = Some(result);
        },
        || own_result = Some(f(0, own)),
    );
    let rest = done.into_iter().map(|slot| {
        let result = slot.into_inner().expect("result slot poisoned");
        result.expect("group finished without reporting")
    });
    own_result.into_iter().chain(rest).collect()
}

/// Maps `f` over `items` (one logical task per item, grouped contiguously
/// across threads) and returns the results in item order.
///
/// Convenience wrapper over [`par_map_chunks`] with chunk size 1, for
/// coarse-grained task fan-out (sparsifier clusters, per-leaf solves).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut nested = par_map_chunks(items.len(), 1, |r| f(&items[r.start]));
    // par_map_chunks already returns one result per chunk == per item.
    debug_assert_eq!(nested.len(), items.len());
    nested.shrink_to_fit();
    nested
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunks_cover_all_elements_exactly_once() {
        let mut data = vec![0u32; 1000];
        par_chunks_mut(&mut data, 64, |_, sl| {
            for x in sl.iter_mut() {
                *x += 1;
            }
        });
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn chunk_indices_match_offsets() {
        let mut data = vec![0usize; 500];
        par_chunks_mut(&mut data, 37, |idx, sl| {
            for (k, x) in sl.iter_mut().enumerate() {
                *x = idx * 37 + k;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i);
        }
    }

    #[test]
    fn map_chunks_results_in_chunk_order() {
        for threads in [1, 2, 3, 8] {
            let sums = with_threads(threads, || {
                par_map_chunks(100, 9, |r| r.clone().sum::<usize>())
            });
            let expected: Vec<usize> = (0..100)
                .step_by(9)
                .map(|lo| (lo..(lo + 9).min(100)).sum())
                .collect();
            assert_eq!(sums, expected, "threads={threads}");
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let work = |threads: usize| {
            with_threads(threads, || {
                let mut data: Vec<f64> = (0..4096).map(|i| i as f64 * 0.1).collect();
                par_chunks_mut(&mut data, 128, |idx, sl| {
                    for x in sl.iter_mut() {
                        *x = x.sin() + idx as f64;
                    }
                });
                data
            })
        };
        let base = work(1);
        for threads in [2, 3, 8] {
            let got = work(threads);
            assert!(
                base.iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads={threads} not bitwise equal"
            );
        }
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let before = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<usize> = (0..50).collect();
        let out = with_threads(4, || par_map(&items, |&x| x * 2));
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn all_threads_actually_run_work() {
        // With 4 threads and 4 chunks each thread gets one chunk; count
        // distinct invocations.
        let calls = AtomicUsize::new(0);
        let mut data = vec![0u8; 4 * 16];
        with_threads(4, || {
            par_chunks_mut(&mut data, 16, |_, _| {
                calls.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(calls.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn empty_input_is_harmless() {
        let mut data: Vec<u64> = vec![];
        par_chunks_mut(&mut data, 8, |_, _| panic!("no chunks expected"));
        let out: Vec<u64> = par_map_chunks(0, 8, |_| 1u64);
        assert!(out.is_empty());
    }
}
