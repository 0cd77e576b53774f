//! Persistent worker pool — the execution substrate of
//! `ThreadedComm`'s sharded rounds ([`crate::par_groups`]). Its threads
//! stay alive across calls, so a round costs no thread spawn.
//!
//! There is one dispatch path, [`WorkerPool::scoped`]: it hands a
//! *borrowed* task closure to the workers (the rayon-style scoped
//! pattern) while the calling thread does its own share, then blocks on a
//! completion latch until every dispatched task has finished. The pointer
//! to the closure is only valid until `scoped` returns, so the wait can
//! never be abandoned — a drop guard keeps it in place even when the
//! frame unwinds (the caller-supplied `own` closure runs user code and
//! may panic). This is the one place in the crate that needs `unsafe` (a
//! lifetime erasure, see module `erase`).
//!
//! **Watchdog.** The wait takes an optional deadline. Because the workers
//! still hold borrowed pointers, an expired wait cannot unwind: it prints
//! `pending/total/waited` on stderr and aborts the process, so a hung
//! round is a fast, attributable failure rather than a hung process.
//!
//! Nested dispatch from inside a pool worker would deadlock a fully
//! loaded pool, so `scoped` detects re-entry ([`in_worker`]) and runs the
//! tasks inline on the calling worker instead.

use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of work sent to a worker: owned closure, executed once.
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True when the current thread is a [`WorkerPool`] worker executing a
/// job. Dispatch uses this to run nested parallelism inline instead of
/// deadlocking on a fully loaded pool.
pub fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Completion latch for [`WorkerPool::scoped`]: counts tasks successfully
/// handed to workers against tasks that have finished, and lets the
/// dispatching frame block until the two balance.
///
/// The expected count is discovered *during* dispatch — so if dispatch
/// itself panics partway (a `send` to a dead worker), the wait covers
/// exactly the tasks that were sent, never ones that were not. Locking
/// ignores mutex poisoning: the latch is waited on during unwind, where a
/// second panic would abort the process, and its critical sections are
/// bare counter updates that cannot leave the state inconsistent.
struct ScopedLatch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct LatchState {
    dispatched: usize,
    completed: usize,
}

impl ScopedLatch {
    fn new() -> Self {
        Self {
            state: Mutex::new(LatchState::default()),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LatchState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one successfully dispatched task. Called *after* the
    /// channel send, so a failed send is never waited on.
    fn note_dispatched(&self) {
        self.lock().dispatched += 1;
    }

    /// Records one finished task and wakes the waiter (worker side).
    fn complete(&self) {
        self.lock().completed += 1;
        self.cv.notify_all();
    }

    /// Blocks until every dispatched task has completed. A task may
    /// complete before its dispatch is recorded (the worker races the
    /// dispatch loop), so `completed` can transiently exceed
    /// `dispatched`; by the time anyone waits, dispatch has stopped, so
    /// the final counts must balance — a surplus completion is a protocol
    /// bug and panics.
    ///
    /// If `watchdog` elapses (measured from `start`) with tasks still
    /// pending, prints the diagnostics and aborts: the workers still hold
    /// pointers into the waiting frame, so it must not unwind.
    fn wait_all(&self, start: Instant, watchdog: Option<Duration>) {
        let mut st = self.lock();
        while st.completed < st.dispatched {
            st = match watchdog.map(|limit| limit.checked_sub(start.elapsed())) {
                None => self.cv.wait(st).unwrap_or_else(|e| e.into_inner()),
                Some(Some(left)) => {
                    let waited = self.cv.wait_timeout(st, left);
                    waited.unwrap_or_else(|e| e.into_inner()).0
                }
                Some(None) => {
                    eprintln!(
                        "cc-par watchdog: {}/{} tasks pending after {:?}; aborting",
                        st.dispatched - st.completed,
                        st.dispatched,
                        start.elapsed()
                    );
                    std::process::abort();
                }
            };
        }
        assert_eq!(
            st.completed, st.dispatched,
            "unbalanced latch: {} completions for {} dispatched tasks",
            st.completed, st.dispatched
        );
    }
}

/// Blocks on the latch when dropped — on the normal path and during
/// unwind alike. This is the guarantee that makes the lifetime erasure in
/// [`erase`] sound: no exit from [`WorkerPool::scoped`]'s frame (normal
/// return, a panic in the caller's `own` closure, or a panicking send
/// mid-dispatch) can precede the completion of every dispatched task.
struct ScopedWaitGuard<'a> {
    latch: &'a ScopedLatch,
    start: Instant,
    watchdog: Option<Duration>,
}

impl Drop for ScopedWaitGuard<'_> {
    fn drop(&mut self) {
        self.latch.wait_all(self.start, self.watchdog);
    }
}

/// A pool of persistent worker threads consuming jobs from per-worker
/// channels. See the module docs for the dispatch path.
pub struct WorkerPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` persistent threads (must be positive).
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "worker pool needs at least one worker");
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for idx in 0..workers {
            let (tx, rx) = channel::<Job>();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("cc-par-worker-{idx}"))
                    .spawn(move || {
                        IN_WORKER.with(|f| f.set(true));
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("failed to spawn pool worker"),
            );
        }
        Self { senders, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Runs `tasks` invocations of a *borrowed* closure on the workers
    /// (task `t` is invoked as `f(t)`, round-robin over the workers) while
    /// the calling thread runs `own` concurrently, then blocks until every
    /// dispatched task has completed — the borrow must not outlive this
    /// call, even on unwind.
    ///
    /// `watchdog` bounds that wait: if it elapses first, the process
    /// prints `pending/total/waited` on stderr and aborts (see the module
    /// docs). `None` waits forever.
    ///
    /// Panics from tasks are re-raised on the calling thread after all
    /// tasks finish. A panic in `own` still waits for all tasks before
    /// propagating. Called from inside a pool worker, everything runs
    /// inline.
    pub fn scoped<F, G>(&self, tasks: usize, watchdog: Option<Duration>, f: F, own: G)
    where
        F: Fn(usize) + Sync,
        G: FnOnce(),
    {
        if tasks == 0 || in_worker() {
            for t in 0..tasks {
                f(t);
            }
            own();
            return;
        }
        let latch = ScopedLatch::new();
        let panics: Mutex<Vec<String>> = Mutex::new(Vec::new());
        // Declared after the state it protects, so it drops (and blocks)
        // first on every exit from this frame — including unwinds from
        // `own` (caller code) or from a panicking send mid-dispatch,
        // which would otherwise free `f`/`latch`/`panics` while workers
        // still hold erased pointers into them.
        let guard = ScopedWaitGuard {
            latch: &latch,
            start: Instant::now(),
            watchdog,
        };
        erase::dispatch_borrowed(self, tasks, &f, &latch, &panics);
        own();
        drop(guard); // normal path: block until every task is done
        let messages = panics.lock().expect("panic log poisoned");
        if let Some(first) = messages.first() {
            panic!("pool task panicked: {first}");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.senders.clear(); // workers see a closed channel and exit
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The single unsafe corner of the crate: lifetime erasure for the scoped
/// dispatch path (the pattern rayon and crossbeam use for scoped tasks).
///
/// # Safety argument
///
/// `dispatch_borrowed` sends raw pointers to stack-owned state (`f`, the
/// latch, the panic log) into `'static` jobs. This is sound because the
/// [`ScopedWaitGuard`] in [`WorkerPool::scoped`] blocks on the latch on
/// *every* exit from that frame — normal return or unwind (a panic in the
/// caller's `own` closure, or a panicking send here) — until every
/// dispatched task has completed, so the pointers cannot outlive the
/// borrow they were erased from. The latch counts only *successful* sends
/// (recorded after each send), so a send that fails and drops its job
/// unrun is never waited on and cannot deadlock the guard. Workers catch
/// task panics, so a panicking task still completes the latch; and an
/// expired watchdog aborts the process instead of returning, so the wait
/// is never abandoned while a task may still run.
#[allow(unsafe_code)]
mod erase {
    use super::{Job, Mutex, ScopedLatch, WorkerPool};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    struct ErasedTask {
        f: *const (dyn Fn(usize) + Sync + 'static),
        latch: *const ScopedLatch,
        panics: *const Mutex<Vec<String>>,
    }
    // SAFETY: the pointees are Sync (Fn + Sync, ScopedLatch, Mutex) and
    // outlive every use — see the module safety argument.
    unsafe impl Send for ErasedTask {}

    pub(super) fn dispatch_borrowed(
        pool: &WorkerPool,
        tasks: usize,
        f: &(dyn Fn(usize) + Sync),
        latch: &ScopedLatch,
        panics: &Mutex<Vec<String>>,
    ) {
        // SAFETY: fat-pointer lifetime erasure; validity is guaranteed by
        // the guard's latch wait in `scoped` (module docs above).
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        for t in 0..tasks {
            let erased = ErasedTask {
                f: f_static as *const _,
                latch: latch as *const _,
                panics: panics as *const _,
            };
            let job: Job = Box::new(move || {
                let erased = erased;
                // SAFETY: scoped()'s guard blocks until this task calls
                // complete(), so all three pointers are live here.
                let (f, latch, panics) = unsafe { (&*erased.f, &*erased.latch, &*erased.panics) };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(t))) {
                    panics
                        .lock()
                        .expect("panic log poisoned")
                        .push(super::panic_message(payload));
                }
                latch.complete();
            });
            pool.senders[t % pool.senders.len()]
                .send(job)
                .expect("pool worker hung up");
            latch.note_dispatched();
        }
    }
}

static GLOBAL: Mutex<Option<Arc<WorkerPool>>> = Mutex::new(None);
static WATCHDOG: OnceLock<Option<Duration>> = OnceLock::new();

/// The shared process-wide pool, grown on demand: returns a pool with at
/// least `min_workers` workers (and at least [`crate::max_threads`]`- 1`).
/// Growing replaces
/// the shared handle with a bigger pool; existing `Arc`s keep the old pool
/// alive until their last round finishes.
pub fn global_pool(min_workers: usize) -> Arc<WorkerPool> {
    let want = min_workers.max(1);
    let mut slot = GLOBAL.lock().expect("global pool poisoned");
    match slot.as_ref() {
        Some(pool) if pool.workers() >= want => Arc::clone(pool),
        _ => {
            let pool = Arc::new(WorkerPool::new(
                want.max(crate::max_threads().saturating_sub(1).max(1)),
            ));
            *slot = Some(Arc::clone(&pool));
            pool
        }
    }
}

/// The hang-watchdog deadline for round-synchronized dispatch, read from
/// `CC_WATCHDOG_SECS`: unset → 120 s, `0` → disabled (wait forever), any
/// other non-negative integer → that many seconds. A value that does not
/// parse as an integer falls back to the 120 s default.
///
/// The variable is read **once per process** and cached; set it in the
/// environment before the first round runs (as the CI jobs do). Changing
/// it later — e.g. per-test inside one binary — has no effect. The
/// threaded test suites rely on CI exporting a low value so a hung round
/// aborts fast.
pub fn watchdog_timeout() -> Option<Duration> {
    *WATCHDOG.get_or_init(|| match std::env::var("CC_WATCHDOG_SECS") {
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(0) => None,
            Ok(secs) => Some(Duration::from_secs(secs)),
            Err(_) => Some(Duration::from_secs(120)),
        },
        Err(_) => Some(Duration::from_secs(120)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_runs_all_tasks_and_own_work() {
        let pool = WorkerPool::new(3);
        let hits = AtomicUsize::new(0);
        let own_ran = AtomicUsize::new(0);
        pool.scoped(
            10,
            None,
            |_| {
                hits.fetch_add(1, Ordering::SeqCst);
            },
            || {
                own_ran.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(hits.load(Ordering::SeqCst), 10);
        assert_eq!(own_ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn own_panic_still_waits_for_tasks() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(
                8,
                None,
                |_| {
                    std::thread::sleep(Duration::from_millis(30));
                    hits.fetch_add(1, Ordering::SeqCst);
                },
                || panic!("own work panicked"),
            );
        }));
        assert!(caught.is_err());
        // The drop guard blocked the unwind until every task completed:
        // all increments through the borrowed counter are already visible.
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn scoped_task_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(
                4,
                None,
                |t| assert_ne!(t, 2, "intentional task panic"),
                || {},
            );
        }));
        assert!(caught.is_err());
        // The pool is still usable after a task panic.
        let ran = AtomicUsize::new(0);
        pool.scoped(
            3,
            None,
            |_| {
                ran.fetch_add(1, Ordering::SeqCst);
            },
            || {},
        );
        assert_eq!(ran.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn scoped_sees_borrowed_state() {
        let pool = WorkerPool::new(4);
        let data: Vec<usize> = (0..100).collect();
        let slots: Vec<Mutex<usize>> = (0..10).map(|_| Mutex::new(0)).collect();
        pool.scoped(
            10,
            None,
            |t| {
                let sum: usize = data[t * 10..(t + 1) * 10].iter().sum();
                *slots[t].lock().unwrap() = sum;
            },
            || {},
        );
        let total: usize = slots.iter().map(|m| *m.lock().unwrap()).sum();
        assert_eq!(total, (0..100).sum());
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        let pool = WorkerPool::new(1);
        let ran = AtomicUsize::new(0);
        pool.scoped(
            1,
            Some(Duration::from_secs(30)),
            |_| {
                assert!(in_worker());
                // With the only worker busy on this very task, nested
                // dispatch must run inline instead of deadlocking.
                pool.scoped(
                    3,
                    Some(Duration::from_secs(5)),
                    |_| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    },
                    || {},
                );
            },
            || {},
        );
        assert_eq!(ran.load(Ordering::SeqCst), 3);
    }

    #[test]
    #[should_panic(expected = "unbalanced latch")]
    fn double_completion_trips_the_balance_check() {
        let latch = ScopedLatch::new();
        latch.note_dispatched();
        latch.complete();
        latch.complete();
        latch.wait_all(Instant::now(), None);
    }

    /// Set in the child process of [`watchdog_reports_hang`], which runs
    /// the hanging dispatch; the parent only inspects how the child died.
    const HANG_CHILD: &str = "CC_PAR_WATCHDOG_HANG_CHILD";

    #[test]
    fn watchdog_reports_hang() {
        if std::env::var_os(HANG_CHILD).is_some() {
            let pool = WorkerPool::new(1);
            pool.scoped(
                1,
                Some(Duration::from_millis(50)),
                |_| std::thread::sleep(Duration::from_secs(30)),
                || {},
            );
            unreachable!("the watchdog must abort before the task finishes");
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "pool::tests::watchdog_reports_hang",
                "--nocapture",
            ])
            .env(HANG_CHILD, "1")
            .output()
            .expect("spawn the test binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "hung round must fail the process");
        assert!(stderr.contains("watchdog"), "stderr: {stderr}");
        assert!(stderr.contains("1/1 tasks pending"), "stderr: {stderr}");
    }

    #[test]
    fn global_pool_grows_on_demand() {
        let small = global_pool(1);
        let big = global_pool(small.workers() + 2);
        assert!(big.workers() >= small.workers() + 2);
        let again = global_pool(2);
        assert!(again.workers() >= big.workers());
    }
}
