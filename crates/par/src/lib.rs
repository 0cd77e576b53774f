//! # cc-par — the worker pool behind `ThreadedComm`
//!
//! The workspace builds without external crates, so this crate is the
//! rayon-shaped layer `ThreadedComm` codes against instead of `rayon`
//! itself: a persistent [`WorkerPool`] and one fork-join helper over it,
//! [`par_groups`]. The items are cut into contiguous *groups*, the
//! calling thread runs the first group, pool workers run the rest, and
//! results come back in group order, so grouping only affects
//! scheduling, never results. `ThreadedComm` runs its sharded rounds
//! (one group per source shard) through it under the
//! [`watchdog_timeout`] deadline. The numerical kernels do not use this
//! crate: they run serially (`DESIGN.md` §6b).
//!
//! Thread count resolution order:
//! 1. a [`with_threads`] override on the current thread,
//! 2. the `CC_NUM_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::{global_pool, in_worker, watchdog_timeout, WorkerPool};

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn env_threads() -> Option<usize> {
    let n = std::env::var("CC_NUM_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()?;
    (n > 0).then_some(n)
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
/// panic).
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `par_groups` over `items` whose groups return their items, flattened.
    fn regrouped(items: &[usize], lanes: usize) -> Vec<usize> {
        par_groups(items.to_vec(), lanes, None, |_, group| group)
            .into_iter()
            .flatten()
            .collect()
    }

    #[test]
    fn chunks_cover_all_elements_exactly_once() {
        let items: Vec<usize> = (0..1000).collect();
        for lanes in [1, 2, 3, 8] {
            assert_eq!(regrouped(&items, lanes), items, "lanes={lanes}");
        }
    }

    #[test]
    fn chunk_indices_match_offsets() {
        let items: Vec<usize> = (0..500).collect();
        let firsts = par_groups(items, 7, None, |first, group| {
            for (k, &x) in group.iter().enumerate() {
                assert_eq!(x, first + k);
            }
            first
        });
        // 500 items in 7 lanes: groups of ⌈500/7⌉ = 72.
        assert_eq!(firsts, (0..7).map(|g| g * 72).collect::<Vec<_>>());
    }

    #[test]
    fn groups_return_results_in_group_order() {
        for lanes in [1, 2, 3, 8] {
            let sums = par_groups((0..100).collect(), lanes, None, |_, group| {
                group.into_iter().sum::<usize>()
            });
            let len = 100usize.div_ceil(lanes);
            let expected: Vec<usize> = (0..100)
                .step_by(len)
                .map(|lo| (lo..(lo + len).min(100)).sum())
                .collect();
            assert_eq!(sums, expected, "lanes={lanes}");
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let work = |lanes: usize| -> Vec<f64> {
            let items: Vec<usize> = (0..4096).collect();
            par_groups(items, lanes, None, |_, group| {
                group
                    .into_iter()
                    .map(|i| (i as f64 * 0.1).sin() + (i / 128) as f64)
                    .collect::<Vec<f64>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };
        let base = work(1);
        for lanes in [2, 3, 8] {
            let got = work(lanes);
            assert!(
                base.iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "lanes={lanes} not bitwise equal"
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
    fn all_threads_actually_run_work() {
        // Four lanes over 4 × 16 items: one call per group, four groups.
        let calls = AtomicUsize::new(0);
        par_groups(vec![0u8; 4 * 16], 4, None, |_, group| {
            assert_eq!(group.len(), 16);
            calls.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn empty_input_is_harmless() {
        let out: Vec<u64> = par_groups(Vec::<u64>::new(), 4, None, |_, _| -> u64 {
            panic!("no groups expected")
        });
        assert!(out.is_empty());
    }
}
