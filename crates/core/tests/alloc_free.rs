//! Proves one warm `SolverSession` workspace serves every batch width
//! without allocating: a single solve is the width-1 call of the one
//! solve driver, so the session's one `SolveWorkspace` is resized between
//! widths inside the capacity the widest call left behind.
//!
//! A counting global allocator wraps `System`; the solver build (which
//! talks to the `Clique` and allocates freely) and one warm-up round of
//! every width happen outside the armed region, and the armed region
//! alternates `solve_into`, `solve_multi_into` at `k = 2, 3, 4, 5, 9`
//! (every tile of the lane-tiled kernels, and tail tiles behind full
//! ones) and `solve_into` again, asserting the counter did not move.
//!
//! Threads are pinned to 1: the fixed-chunk fan-out machinery itself
//! allocates when it spawns (and results are bitwise identical either
//! way, so the serial path is the right one to audit). A single
//! `#[test]` keeps the counter free of harness noise from concurrent
//! tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cc_core::{SolverOptions, SolverSession};
use cc_graph::generators;
use cc_linalg::par;
use cc_model::{Clique, Communicator};

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

#[test]
fn one_workspace_serves_every_batch_width_without_allocating() {
    par::with_threads(1, || {
        const N: usize = 24;
        // Every lane count of a tile, a full tile plus a remainder, and
        // two full tiles plus a remainder.
        const WIDTHS: [usize; 5] = [2, 3, 4, 5, 9];
        let g = generators::random_connected(N, 70, 4, 11);
        let mut clique = Clique::new(N);
        let mut session = SolverSession::build(&mut clique, &g, &SolverOptions::default()).unwrap();
        let mut b = vec![0.0; N];
        b[0] = 1.0;
        b[N - 1] = -1.0;
        let batches = WIDTHS.map(|k| {
            let mut bs = vec![0.0; N * k];
            for j in 0..k {
                bs[j * k + j] = 1.0;
                bs[(N - 1 - j) * k + j] = -1.0;
            }
            bs
        });
        let (mut x, mut xs) = (Vec::new(), Vec::new());
        let mut round = |clique: &mut Clique, x: &mut Vec<f64>, xs: &mut Vec<f64>| {
            let single = session.solve_into(clique, &b, 1e-8, x).unwrap();
            let mut batch = [0; WIDTHS.len()];
            for ((spent, k), bs) in batch.iter_mut().zip(WIDTHS).zip(&batches) {
                *spent = session.solve_multi_into(clique, bs, k, 1e-8, xs).unwrap();
            }
            let again = session.solve_into(clique, &b, 1e-8, x).unwrap();
            (single, batch, again)
        };

        // Warm-up: size every buffer at every width once.
        let warm = round(&mut clique, &mut x, &mut xs);
        let want = x.clone();
        let rounds = clique.ledger().total_rounds();

        let (spent, count) = armed(|| round(&mut clique, &mut x, &mut xs));
        assert_eq!(count, 0, "a warm session allocated across batch widths");
        assert_eq!(spent, warm);
        // The armed round did the same work: one broadcast round per
        // column per iteration, and the same single-solve bits.
        let iterations = spent.0 as u64;
        assert!(spent.1.iter().all(|&it| it as u64 == iterations));
        let columns = 2 + WIDTHS.iter().sum::<usize>() as u64;
        assert_eq!(
            clique.ledger().total_rounds() - rounds,
            columns * iterations
        );
        assert!(x.iter().zip(&want).all(|(a, w)| a.to_bits() == w.to_bits()));
    });
}
