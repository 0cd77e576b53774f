//! # cc-model — a deterministic congested clique simulator
//!
//! The congested clique \[LPSPP05\] is a synchronous message-passing model:
//! a network of `n` processors (*nodes*) in which, per round, every ordered
//! pair of nodes may exchange one message of `O(log n)` bits (one *word*).
//! Round complexity — the number of synchronous rounds — is the only cost
//! measure; local computation is free.
//!
//! This crate simulates the model faithfully enough to *measure* round
//! complexity for the algorithms of Forster & de Vos (PODC 2023):
//!
//! * [`Clique`] executes communication primitives and charges rounds
//!   according to the model's rules (at most one word per ordered pair per
//!   round).
//! * [`Communicator::route`] implements the accounting of Lenzen's routing theorem
//!   \[Len13\]: any message set in which every node sends at most `n` words
//!   and receives at most `n` words is deliverable in `O(1)` rounds
//!   (16 in the paper; configurable via [`CliqueConfig::lenzen_rounds`]).
//! * [`RoundLedger`] attributes every charged round to a named phase and
//!   distinguishes rounds of *implemented* communication from *charged
//!   oracle* costs (see `DESIGN.md` §2 and §7).
//!
//! The simulator is **deterministic**: primitives deliver messages in a
//! canonical order (sorted by source id), so algorithm runs are exactly
//! reproducible.
//!
//! ## Example
//!
//! ```
//! use cc_model::{Clique, Communicator};
//!
//! // 8 nodes; each broadcasts its own id, so afterwards every node knows
//! // all ids. One word per ordered pair => exactly 1 round.
//! let mut clique = Clique::new(8);
//! let view = clique
//!     .broadcast_all(&(0..8).map(|i| i as u64).collect::<Vec<_>>())
//!     .unwrap();
//! assert_eq!(view, (0..8).map(|i| i as u64).collect::<Vec<_>>());
//! assert_eq!(clique.ledger().total_rounds(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod batch;
mod broadcast;
mod clique;
mod comm;
pub mod delivery;
mod encode;
mod error;
mod fault;
mod ledger;
mod op;
mod threaded;
mod trace;
pub mod util;

pub use batch::RouteBatch;
pub use broadcast::{BroadcastComm, BroadcastMode};
pub use clique::{Clique, CliqueConfig, Envelope};
pub use comm::{scoped_phase, CommunicationMode, Communicator, Decorator};
pub use encode::{
    decode_f64, decode_f64_fixed, decode_i64, encode_f64, encode_f64_fixed, encode_i64,
};
pub use error::ModelError;
pub use fault::{FaultAction, FaultComm, FaultEvent, FaultPlan, FaultRule};
pub use ledger::{CostKind, PhaseCost, RoundLedger};
pub use op::{Op, Reply};
pub use threaded::ThreadedComm;
pub use trace::{PhaseTrace, TraceEvent, TracingComm, TRACE_HIST_BUCKETS};

/// Identifier of a node (processor) of the clique; ranges over `0..n`.
pub type NodeId = usize;

/// A message payload: a sequence of `O(log n)`-bit machine words.
///
/// Every `u64` counts as one word against the per-pair bandwidth of the
/// model; floating point scalars are packed one-per-word via
/// [`encode_f64`] (the paper's convention of absorbing bit-precision
/// `poly log` factors into `n^{o(1)}`).
pub type Words = Vec<u64>;
