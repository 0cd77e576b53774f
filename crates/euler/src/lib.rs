//! # cc-euler — Eulerian orientations and flow rounding in the congested clique
//!
//! Implements §4 of Forster & de Vos (PODC 2023):
//!
//! * [`eulerian_orientation`] — Theorem 1.4: given a graph in which every
//!   vertex has even degree, orient every edge so that in-degree equals
//!   out-degree at every vertex, in `O(log n · log* n)` rounds;
//! * [`round_flow`] — Lemma 4.2 / Algorithm 1 (Cohen's flow rounding):
//!   round a fractional flow whose values are multiples of `Δ` to an
//!   integral flow without decreasing the flow value (and, given costs,
//!   without increasing the cost), in `O(log n · log* n · log(1/Δ))`
//!   rounds.
//!
//! ## How the orientation works (darts instead of occurrences)
//!
//! Each node pairs its incident edges locally; following "enter via `e`,
//! leave via `partner(e)`" decomposes the edge set into closed trails. The
//! paper contracts each trail as a cycle. Here every trail is represented
//! by its two *dart cycles* (one per traversal direction): a dart is a
//! directed edge occurrence `(e, head)`, and the successor of a dart is
//! well defined — so each dart cycle is a **consistently directed** cycle
//! and Cole–Vishkin 3-coloring applies verbatim. The two opposite cycles
//! of a trail compute complementary verdicts from an accumulated
//! [`CycleSummary`] (canonical-dart tie-breaking, signed costs, special
//! edge flags), so exactly one of them orients the trail's edges.
//!
//! The contraction itself follows the paper: `O(log n)` iterations, each
//! 3-coloring the active cycles in `O(log* n)` rounds, extracting a
//! maximal matching, keeping the higher-ID endpoint of every matched link
//! (≤ half survive, ≤ 3 consecutive non-survivors), and splicing
//! successor pointers with 4+4 routed token steps; a reverse sweep then
//! broadcasts every cycle leader's verdict back to all darts. The contraction
//! keeps its per-dart state in dense arrays sized once per orientation
//! and walks only the shrinking list of darts still in a contracted
//! cycle, so its own bookkeeping costs little next to the routed
//! messages.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod darts;
mod error;
mod orientation;
mod rounding;

pub use darts::{CycleSummary, DartStructure};
pub use error::EulerError;
pub use orientation::{
    eulerian_orientation, is_eulerian_orientation, orient_trails, orient_trails_with_strategy,
    MarkingStrategy, OrientationCriterion,
};
pub use rounding::{round_flow, FlowRoundingOptions, RoundedFlow};
