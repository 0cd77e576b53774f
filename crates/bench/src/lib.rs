//! # cc-bench — the experiment harness of the reproduction
//!
//! One function per experiment of `DESIGN.md` §4 (E1–E8). Each returns the
//! rows it prints, so the `exp_tables` binary and the integration tests
//! share one implementation. The recorded paper-vs-measured outcomes live
//! in `EXPERIMENTS.md`; [`check_doc`] regenerates its tables and compares
//! them with the committed ones (`exp_tables --check` and
//! `tests/experiments_doc.rs`).
//!
//! The measured quantity is **rounds** (the model's only cost). The
//! `bench_snapshot` binary additionally records kernel wall-clock times
//! next to the deterministic round totals and result hashes in
//! `BENCH_baseline.json`, built from the [`json`] module's rows; its
//! `--check` mode is the CI drift gate over every deterministic field.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doc_check;
pub mod experiments;
pub mod json;
pub mod table;

pub use doc_check::{check_doc, Experiment, EXPERIMENTS};
pub use experiments::*;
pub use table::Table;
