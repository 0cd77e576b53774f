//! Deterministic parallel kernel primitives: a re-export of the
//! fixed-chunk primitives of [`cc_par`].
//!
//! Every parallel kernel in this workspace decomposes its work by problem
//! size only — never by thread count — so results are **bitwise
//! identical** at any thread count, and identical to a plain serial loop
//! over the same chunks (`RAYON_NUM_THREADS=1`; see `DESIGN.md`,
//! "Parallelism & determinism"). Downstream crates (`cc-sparsify`,
//! `cc-maxflow`, `cc-mcf`, benches) route their data parallelism through
//! this module.

pub use cc_par::{
    current_threads, max_threads, par_chunks_mut, par_map, par_map_chunks, with_threads,
};
