//! End-to-end benchmark of the `cc-service` [`cc_service::FlowEngine`]:
//! seeded closed-loop request workloads, end-to-end metrics with tracing
//! off, and a traced run that splits the wall time across the layers.
//! See `README.md` in this directory for the workloads, metrics and
//! baseline.

pub mod replay;
pub mod run;
pub mod stats;
pub mod timed;
pub mod workload;

/// The seed later performance claims must also hold on, beyond the
/// seeds they were developed against (choosing-metrics §6.3).
pub const HELDOUT_SEED: u64 = 1009;

/// Fewest engine set-ups per end-to-end run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
