//! Proves the `_into` kernel layer is allocation-free in steady state.
//!
//! A counting global allocator wraps `System`; after one warm-up call
//! (which sizes every workspace), the armed region re-runs the hot paths
//! — `matvec_into`, Chebyshev, pseudo-inverse solves, eigenvalues-only
//! certificates — and asserts
//! the allocation counter did not move.
//!
//! Threads are pinned to 1: the fixed-chunk fan-out machinery itself
//! allocates when it spawns (and results are bitwise identical either
//! way, so the serial path is the right one to audit). A single `#[test]`
//! keeps the counter free of harness noise from concurrent tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cc_linalg::{
    chebyshev_solve_fixed_into, laplacian_from_edges, par, symmetric_eigenvalues,
    vec_ops::remove_mean, ChebyshevWorkspace, CsrMatrix, GroundedCholesky, SolveScratch,
};

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

/// The Laplacian of a weighted `n`-cycle.
fn ring(n: usize) -> CsrMatrix {
    let mut edges: Vec<(usize, usize, f64)> = (0..n - 1)
        .map(|i| (i, i + 1, 1.0 + (i % 5) as f64))
        .collect();
    edges.push((0, n - 1, 2.0));
    laplacian_from_edges(n, &edges)
}

#[test]
fn steady_state_iteration_performs_zero_heap_allocations() {
    par::with_threads(1, || {
        let n = 96;
        let lap = ring(n);
        let chol = GroundedCholesky::new(&lap).unwrap();
        let mut b: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
        remove_mean(&mut b);

        let mut y = vec![0.0; n];
        let mut x = vec![0.0; n];
        let mut cheb_ws = ChebyshevWorkspace::new(n);
        let mut scratch = SolveScratch::default();

        // Warm-up: size every workspace once.
        lap.matvec_into(&b, &mut y);
        chol.solve_into(&b, &mut x, &mut scratch);
        chebyshev_solve_fixed_into(
            |p, ap| lap.matvec_into(p, ap),
            |r, z| chol.solve_into(r, z, &mut scratch),
            &b,
            4.0,
            30,
            &mut x,
            &mut cheb_ws,
        );

        let ((), count) = armed(|| {
            lap.matvec_into(&b, &mut y);
        });
        assert_eq!(count, 0, "matvec_into allocated");

        let ((), count) = armed(|| {
            chol.solve_into(&b, &mut x, &mut scratch);
        });
        assert_eq!(count, 0, "GroundedCholesky::solve_into allocated");

        let ((), count) = armed(|| {
            chebyshev_solve_fixed_into(
                |p, ap| lap.matvec_into(p, ap),
                |r, z| chol.solve_into(r, z, &mut scratch),
                &b,
                4.0,
                30,
                &mut x,
                &mut cheb_ws,
            );
        });
        assert_eq!(count, 0, "chebyshev_solve_fixed_into allocated");

        // n = 11 is the size of a flow build's certificate cluster; n = 96
        // spans more than one of the 64-row chunks the Householder
        // reduction was once fanned out over; n = 256 is the size of the
        // one-piece graph of e2ebench's `laplacian_n256` workload.
        for n in [11, 96, 256] {
            let dense = ring(n).to_dense();
            let mut work = dense.clone();
            let mut values = Vec::new();
            symmetric_eigenvalues(&mut work, &mut values).unwrap();
            let (result, count) = armed(|| {
                for i in 0..n {
                    for j in 0..n {
                        work.set(i, j, dense.get(i, j));
                    }
                }
                symmetric_eigenvalues(&mut work, &mut values)
            });
            result.unwrap();
            assert_eq!(count, 0, "symmetric_eigenvalues allocated at n = {n}");
        }
    });
}
