//! Proves a steady-state interior point step of the barrier engine is
//! allocation-free, its electrical build included.
//!
//! A counting global allocator wraps `System`; after two warm-up
//! iterations (the first captures the sparsifier template and sizes the
//! network, the second reweights it once and records the assembly
//! layouts, and together they size the resistance buffer, the solve
//! workspace and the stats stages), the armed region re-runs the
//! per-iteration path an IPM drives —
//! [`BarrierEngine::resistances_into`], [`BarrierEngine::build_network`]
//! (an in-place reweight of the engine's network: template
//! instantiation, Laplacian refill, numeric refactor),
//! [`BarrierEngine::flow_into`], [`BarrierEngine::norm_roundtrip`] and
//! [`BarrierEngine::record_residual`] — and asserts the allocation
//! counter did not move.
//!
//! Threads are pinned to 1: the fixed-chunk fan-out machinery itself
//! allocates when it spawns (and results are bitwise identical either
//! way, so the serial path is the right one to audit). A single
//! `#[test]` keeps the counter free of harness noise from concurrent
//! tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cc_core::ElectricalFlow;
use cc_ipm::{BarrierEngine, EngineOptions};
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

/// A connected resistor network on `N` vertices: a ring plus chords,
/// with resistances a pure function of the edge index (so re-filling
/// after a "step" reproduces the shape the IPM adapters use).
const N: usize = 16;
const M: usize = N + N / 2;

fn fill(scale: f64) -> impl Fn(usize, &mut [(usize, usize, f64)]) + Sync {
    move |base, slots| {
        for (j, slot) in slots.iter_mut().enumerate() {
            let i = base + j;
            let (a, b) = if i < N {
                (i, (i + 1) % N)
            } else {
                (i - N, i - N + N / 2)
            };
            *slot = (a, b, scale * (1.0 + ((i * 13) % 7) as f64));
        }
    }
}

#[test]
fn steady_state_iteration_performs_zero_heap_allocations() {
    par::with_threads(1, || {
        let mut clique = Clique::new(N);
        let mut engine: BarrierEngine<Clique> = BarrierEngine::new(N, EngineOptions::default());

        let mut chi = vec![0.0; N];
        chi[0] = 1.0;
        chi[N - 1] = -1.0;
        let mut out = ElectricalFlow::default();

        // Warm-up: capture the sparsifier template and size the network,
        // then reweight it once; size the resistance buffer, the solve
        // workspace and the stats stages.
        for scale in [1.0, 1.25] {
            engine.resistances_into(M, fill(scale), |i| 1.0 + i as f64);
            engine.build_network(&mut clique, "steady").unwrap();
            engine
                .flow_into(&mut clique, "steady", &chi, &mut out)
                .unwrap();
            engine.norm_roundtrip(&mut clique).unwrap();
            engine.record_residual("steady", 0.5);
        }

        let (min_gap, count) = armed(|| engine.resistances_into(M, fill(1.5), |i| 1.0 + i as f64));
        assert_eq!(min_gap, 1.0);
        assert_eq!(count, 0, "resistances_into allocated in steady state");

        let (built, count) = armed(|| engine.build_network(&mut clique, "steady"));
        built.unwrap();
        assert_eq!(count, 0, "build_network allocated in steady state");

        let ((), count) = armed(|| {
            engine
                .flow_into(&mut clique, "steady", &chi, &mut out)
                .unwrap();
        });
        assert!(out.flows.iter().all(|f| f.is_finite()));
        assert_eq!(count, 0, "flow_into allocated in steady state");

        let (r, count) = armed(|| engine.norm_roundtrip(&mut clique));
        r.unwrap();
        assert_eq!(count, 0, "norm_roundtrip allocated in steady state");

        let ((), count) = armed(|| engine.record_residual("steady", 0.25));
        assert_eq!(count, 0, "record_residual allocated in steady state");

        // Sanity: the armed calls were accounted like any others.
        let stage = engine.stats().stage("steady");
        assert_eq!(stage.solves, 3);
        assert_eq!((stage.builds, stage.template_reuses), (1, 2));
        assert!(clique.ledger().total_rounds() > 0);
    });
}
