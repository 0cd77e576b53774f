//! # cc-par — the fork-join step behind `ThreadedComm`
//!
//! The workspace builds without external crates, so this crate is the
//! rayon-shaped layer `ThreadedComm` codes against instead of `rayon`
//! itself: one fork-join helper on [`std::thread::scope`],
//! [`par_groups`]. The items are cut into contiguous *groups*, the
//! calling thread runs the first group, one scoped thread per group runs
//! each of the rest, and results come back in group order, so grouping
//! only affects scheduling, never results. `ThreadedComm` runs its
//! sharded rounds (one group per source shard) through it under the
//! [`watchdog_timeout`] deadline. The numerical kernels do not use this
//! crate: they run serially (`DESIGN.md` §6b).
//!
//! The thread budget ([`current_threads`]) is a [`with_threads`] override
//! on the current thread, or else [`std::thread::available_parallelism`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The thread budget in effect for the current thread: the innermost
/// [`with_threads`] override, or else the host's available parallelism.
pub fn current_threads() -> usize {
    THREAD_OVERRIDE.with(|o| o.get()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
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

/// The hang-watchdog deadline for [`par_groups`], read from
/// `CC_WATCHDOG_SECS`: unset → 120 s, `0` → disabled (wait forever), any
/// other non-negative integer → that many seconds. A value that does not
/// parse as an integer falls back to the 120 s default.
///
/// The variable is read **once per process** and cached; set it in the
/// environment before the first round runs (as the CI jobs do). Changing
/// it later — e.g. per-test inside one binary — has no effect. CI
/// exports a low value so a hung round aborts fast.
pub fn watchdog_timeout() -> Option<Duration> {
    static WATCHDOG: OnceLock<Option<Duration>> = OnceLock::new();
    *WATCHDOG.get_or_init(|| match std::env::var("CC_WATCHDOG_SECS") {
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(0) => None,
            Ok(secs) => Some(Duration::from_secs(secs)),
            Err(_) => Some(Duration::from_secs(120)),
        },
        Err(_) => Some(Duration::from_secs(120)),
    })
}

/// Signals on drop that a spawned group is done, panicking or not.
struct Done(Sender<()>);

impl Drop for Done {
    fn drop(&mut self) {
        // The receiver outlives every group; a failed send tells no one.
        let _ = self.0.send(());
    }
}

/// Splits `items` into at most `lanes` contiguous groups of equal length
/// (the last may be short) and runs `f(first_item_index, group)` once per
/// group, returning the results **in group order**. The calling thread
/// runs group 0 itself; every other group runs on a thread of its own
/// inside a [`std::thread::scope`], so `f` may borrow the caller's state.
///
/// A panic in any group reaches the caller once every group has
/// finished. The wait for the spawned groups is bounded by `watchdog`,
/// measured from the call: when it elapses with groups still running,
/// the process prints `cc-par watchdog: <pending>/<total> tasks pending`
/// on stderr and aborts, so a hung round is a fast, attributable failure
/// rather than a hung process. `None` waits forever.
pub fn par_groups<P, R, F>(items: Vec<P>, lanes: usize, watchdog: Option<Duration>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(usize, Vec<P>) -> R + Sync,
{
    let start = Instant::now();
    let group_len = items.len().div_ceil(lanes.max(1)).max(1);
    let mut items = items.into_iter();
    let mut groups = std::iter::from_fn(|| {
        let group: Vec<P> = items.by_ref().take(group_len).collect();
        (!group.is_empty()).then_some(group)
    });
    let Some(own) = groups.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|s| {
        let (done_tx, done_rx) = channel();
        let spawned: Vec<_> = groups
            .enumerate()
            .map(|(g, group)| {
                let done = Done(done_tx.clone());
                s.spawn(move || {
                    let _done = done;
                    f((g + 1) * group_len, group)
                })
            })
            .collect();
        drop(done_tx);
        // A panic in group 0 is held, not raised, so the watchdog still
        // bounds the wait for the spawned groups.
        let own = catch_unwind(AssertUnwindSafe(|| f(0, own)));
        if let Some(limit) = watchdog {
            for finished in 0..spawned.len() {
                let left = limit.saturating_sub(start.elapsed());
                if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(left) {
                    eprintln!(
                        "cc-par watchdog: {}/{} tasks pending after {:?}; aborting",
                        spawned.len() - finished,
                        spawned.len(),
                        start.elapsed()
                    );
                    std::process::abort();
                }
            }
        }
        let own = own.unwrap_or_else(|payload| resume_unwind(payload));
        let rest = spawned
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)));
        std::iter::once(own).chain(rest).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

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
    fn group_zero_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = par_groups((0..10).collect::<Vec<u8>>(), 3, None, |_, _| {
            std::thread::current().id() == caller
        });
        // 10 items in 3 lanes: groups of 4, 4 and 2, each run once.
        assert_eq!(on_caller, vec![true, false, false]);
    }

    #[test]
    fn empty_input_is_harmless() {
        let out: Vec<u64> = par_groups(Vec::<u64>::new(), 4, None, |_, _| -> u64 {
            panic!("no groups expected")
        });
        assert!(out.is_empty());
    }

    #[test]
    fn group_panic_reaches_the_caller_and_the_next_call_works() {
        let caught = std::panic::catch_unwind(|| {
            par_groups(
                (0..4).collect(),
                4,
                Some(Duration::from_secs(30)),
                |first, _| assert_ne!(first, 2, "intentional group panic"),
            )
        });
        assert!(caught.is_err());
        let sums = par_groups((0..4).collect(), 4, None, |first, _| first);
        assert_eq!(sums, vec![0, 1, 2, 3]);
    }

    #[test]
    fn own_group_panic_still_waits_for_the_others() {
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_groups(
                (0..3).collect(),
                3,
                Some(Duration::from_secs(30)),
                |first, _| {
                    if first == 0 {
                        panic!("own group panicked");
                    }
                    std::thread::sleep(Duration::from_millis(30));
                    finished.fetch_add(1, Ordering::SeqCst);
                },
            )
        }));
        assert!(caught.is_err());
        // Both spawned groups finished before the panic reached here:
        // their increments through the borrowed counter are visible.
        assert_eq!(finished.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn groups_see_borrowed_state() {
        let data: Vec<usize> = (0..100).collect();
        let slots: Vec<Mutex<usize>> = (0..4).map(|_| Mutex::new(0)).collect();
        par_groups((0..4).collect(), 4, None, |first, _| {
            let sum: usize = data[first * 25..(first + 1) * 25].iter().sum();
            *slots[first].lock().unwrap() = sum;
        });
        let total: usize = slots.iter().map(|m| *m.lock().unwrap()).sum();
        assert_eq!(total, (0..100).sum());
    }

    /// Set in the child process of [`watchdog_reports_hang`], which runs
    /// the hanging round; the parent only inspects how the child died.
    const HANG_CHILD: &str = "CC_PAR_WATCHDOG_HANG_CHILD";

    #[test]
    fn watchdog_reports_hang() {
        if std::env::var_os(HANG_CHILD).is_some() {
            // Group 0 returns at once; group 1 outlives the deadline.
            par_groups(
                vec![0, 1],
                2,
                Some(Duration::from_millis(50)),
                |first, _| {
                    if first == 1 {
                        std::thread::sleep(Duration::from_secs(30));
                    }
                },
            );
            unreachable!("the watchdog must abort before the group finishes");
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "tests::watchdog_reports_hang", "--nocapture"])
            .env(HANG_CHILD, "1")
            .output()
            .expect("spawn the test binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "hung round must fail the process");
        assert!(stderr.contains("watchdog"), "stderr: {stderr}");
        assert!(stderr.contains("1/1 tasks pending"), "stderr: {stderr}");
    }
}
