//! Proves a routed step staged in a [`RouteBatch`] is allocation-free in
//! steady state: after one warm-up step (which sizes the batch's buffers
//! and the clique's load buffer), the armed region re-stages and charges
//! steps of the same shape and asserts the allocation counter did not
//! move. A single `#[test]` keeps the counter free of harness noise from
//! concurrent tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cc_model::{Clique, Communicator, RouteBatch, ThreadedComm};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn armed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, ALLOCATIONS.load(Ordering::SeqCst))
}

/// Stages step `k` of a hop-shaped pattern: every node sends one
/// 7-word message to a rotating neighbour.
fn stage(batch: &mut RouteBatch, n: usize, k: usize) {
    batch.clear();
    for src in 0..n {
        let dst = (src + 1 + k % (n - 1)) % n;
        batch.push(src, dst, (0..7).map(|w| (src * 7 + w + k) as u64));
    }
}

fn steady_steps<C: Communicator>(comm: &mut C, batch: &mut RouteBatch, n: usize) -> u64 {
    comm.phase("orient", |comm| {
        for k in 0..16 {
            stage(batch, n, k);
            comm.route_batch(batch).unwrap();
        }
    });
    comm.ledger().total_rounds()
}

#[test]
fn warm_route_batch_performs_zero_heap_allocations() {
    let n = 26;
    let mut batch = RouteBatch::new();
    let mut clique = Clique::new(n);
    let mut threaded = ThreadedComm::with_workers(n, 2);
    // Warm-up: sizes the batch, the load buffers and the ledger's phase key.
    let warm = steady_steps(&mut clique, &mut batch, n);
    assert_eq!(steady_steps(&mut threaded, &mut batch, n), warm);

    let (rounds, allocations) = armed(|| steady_steps(&mut clique, &mut batch, n));
    assert_eq!(rounds, 2 * warm);
    assert_eq!(allocations, 0, "Clique::route_batch allocated when warm");

    let (rounds, allocations) = armed(|| steady_steps(&mut threaded, &mut batch, n));
    assert_eq!(rounds, 2 * warm);
    assert_eq!(
        allocations, 0,
        "ThreadedComm::route_batch allocated when warm"
    );
}
