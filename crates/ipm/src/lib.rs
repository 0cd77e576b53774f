//! # cc-ipm — the shared barrier engine of the flow IPMs
//!
//! Theorems 1.2 and 1.3 of Forster & de Vos (PODC 2023) are both
//! instances of one pattern: a central-path interior point method that
//! issues hundreds of Theorem 1.1 electrical-flow solves, each preceded
//! by a barrier-resistance update on a *fixed* edge support. This crate
//! extracts that pattern into a [`BarrierEngine`] the problem adapters
//! (`cc-maxflow`, `cc-mcf`) plug into:
//!
//! * **Electrical builds that refill** — the first
//!   [`BarrierEngine::build_network`] captures a
//!   [`cc_sparsify::SparsifierTemplate`] and sizes one
//!   [`cc_core::ElectricalNetwork`] the engine keeps; later builds on the
//!   same edge support reweight that network in place — no expander
//!   re-decomposition, no rebuilt graph, sparsifier or factor: the
//!   Laplacian's values are refilled, the per-cluster certificates
//!   recomputed (exactly, deterministically) and the preconditioner
//!   refactored numerically over its stored pattern.
//! * **An allocation-free steady state** — the engine owns one
//!   [`cc_core::SolveWorkspace`] plus reusable resistance/broadcast
//!   buffers and its network's refill buffers, so the steady-state
//!   iteration (resistance fan-out, [`BarrierEngine::build_network`],
//!   [`BarrierEngine::flow_into`], norm round-trip) performs zero heap
//!   allocations (`tests/alloc_free.rs`).
//! * **Per-stage statistics** — every build and solve is accounted in an
//!   [`EngineStats`] record (solve counts, Chebyshev iterations, ledger
//!   rounds, residual norms) with a deterministic JSON export for the
//!   bench tables.
//! * **Typed errors** — malformed resistances and solver construction
//!   failures surface as [`IpmError`] instead of library-path panics.
//!
//! The adapters keep what is genuinely problem-specific: the barrier
//! gradient (resistance formula), the step rule, and the
//! rounding/repair hooks. See `DESIGN.md` §8 for the layer diagram.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod select;
mod stats;

pub use engine::{BarrierEngine, EngineOptions, EDGE_CHUNK};
pub use error::IpmError;
pub use select::top_k_into;
pub use stats::{EngineStats, StageStats};
