//! Proves the batched multi-RHS solver path is allocation-free in steady
//! state: one sparsifier build amortizes across a whole batch of
//! right-hand sides without the allocator ever being consulted.
//!
//! Same harness as `cc-linalg/tests/alloc_free.rs`: a counting global
//! allocator wraps `System`; the sparsifier build (which talks to the
//! `Clique` and allocates freely) happens outside the armed region, one
//! warm-up batched solve sizes every workspace, and the armed region
//! re-runs `SparsifierSolver::solve_multi_into` and the full batched
//! Chebyshev solve and asserts the counter did not move — at `k = 3` (one
//! tail tile of the lane-tiled kernels) and `k = 8` (two full tiles).
//!
//! The kernels are serial, so this pins their only path; a single
//! `#[test]` keeps the counter free of harness noise from concurrent
//! tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cc_linalg::{chebyshev_solve_fixed_into, laplacian_from_edges, ChebyshevWorkspace};
use cc_model::Clique;
use cc_sparsify::{build_sparsifier, SparsifierSolveScratch, SparsifyParams};

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
fn batched_solve_steady_state_performs_zero_heap_allocations() {
    let n = 24;
    let g = cc_graph::generators::random_connected(n, 80, 4, 7);
    let mut clique = Clique::new(n);
    let h = build_sparsifier(&mut clique, &g, &SparsifyParams::default()).unwrap();
    let solver = h.solver().unwrap();
    let lap = laplacian_from_edges(n, &g.edge_triples());
    let kappa = h.kappa();
    let alpha = h.alpha();

    // A tail tile alone, and two full tiles.
    for k in [3, 8] {
        // Interleaved batch of zero-mean right-hand sides.
        let mut bs = vec![0.0f64; n * k];
        for j in 0..k {
            for v in 0..n {
                bs[v * k + j] = ((v * 13 + j * 5) % 11) as f64 - 5.0;
            }
            let mean: f64 = (0..n).map(|v| bs[v * k + j]).sum::<f64>() / n as f64;
            for v in 0..n {
                bs[v * k + j] -= mean;
            }
        }

        let mut xs = vec![0.0f64; n * k];
        let mut ws = ChebyshevWorkspace::new(n * k);
        let mut scratch = SparsifierSolveScratch::default();

        // Warm-up: size every workspace once.
        solver.solve_multi_into(&bs, k, &mut xs, &mut scratch);
        chebyshev_solve_fixed_into(
            |p, out| lap.matvec_multi_into(p, k, out),
            |r, out| {
                solver.solve_multi_into(r, k, out, &mut scratch);
                for zi in out.iter_mut() {
                    *zi /= alpha;
                }
            },
            &bs,
            kappa,
            20,
            &mut xs,
            &mut ws,
        );

        let ((), count) = armed(|| {
            solver.solve_multi_into(&bs, k, &mut xs, &mut scratch);
        });
        assert_eq!(
            count, 0,
            "SparsifierSolver::solve_multi_into allocated at k = {k}"
        );

        let (iters, count) = armed(|| {
            chebyshev_solve_fixed_into(
                |p, out| lap.matvec_multi_into(p, k, out),
                |r, out| {
                    solver.solve_multi_into(r, k, out, &mut scratch);
                    for zi in out.iter_mut() {
                        *zi /= alpha;
                    }
                },
                &bs,
                kappa,
                20,
                &mut xs,
                &mut ws,
            )
        });
        assert_eq!(iters, 20);
        assert_eq!(
            count, 0,
            "batched chebyshev_solve_fixed_into allocated at k = {k}"
        );
    }
}
