//! # cc-conform — differential conformance harness
//!
//! Every theorem pipeline in this workspace is checked against a
//! *sequential reference oracle* on a *seeded instance corpus*, under
//! *every transport* — the plain simulator, the tracing wrapper, and
//! stacked fault-injecting wrappers. The three layers:
//!
//! * [`oracle`] — textbook sequential implementations (exact grounded
//!   Laplacian solves, Dijkstra, Edmonds–Karp, successive shortest
//!   paths, brute-force effective resistance and quadratic-form probes)
//!   written against plain graph data, with **no dependence on the
//!   communication model**. These are the ground truth the distributed
//!   pipelines must agree with.
//! * [`corpus`] — a deterministic instance corpus with stable IDs over
//!   the `cc-graph` generators: paths, grids, expanders, random weighted
//!   graphs, adversarially near-disconnected graphs, and high-dynamic-
//!   range weights. `CONFORM_CASES=N` scales the randomized slice for
//!   soak runs without changing the base corpus.
//! * [`driver`] — the differential checkers, generic over
//!   `C: Communicator`: run a public entry point on a corpus instance,
//!   compare against the oracle within a typed [`driver::Tolerances`],
//!   and return the round count so callers can assert theorem shapes via
//!   [`shapes`]. [`driver::fault_plans`] enumerates per-pipeline
//!   [`FaultPlan`]s whose injected faults must surface as typed errors —
//!   never panics, never silently wrong results. [`run_target`] is the
//!   one dispatcher that runs a target's checker under a [`FaultComm`].
//! * [`adversary`] — the chaos matrix: [`run_adversary_suite`] replays
//!   every checker under seeded plans of per-node rules (silent,
//!   crash–recover, value-corrupting nodes), classifying each
//!   (pipeline × strategy) cell as detected / tolerated / corrupted and
//!   enforcing that omission adversaries can never corrupt silently. `CONFORM_ADVERSARY_CASES=N` extends the
//!   slate for chaos soak runs.
//! * [`service`] — a seeded soak driver for the `cc-service` engine:
//!   [`run_service_soak`] replays a randomized typed request stream
//!   against the whole corpus registered in one long-lived
//!   `FlowEngine`, spot-checking sampled responses against the same
//!   oracles and fingerprinting every response for cross-run bitwise
//!   comparison.
//!
//! The harness is itself deterministic: same corpus, same probes, same
//! fault streams on every run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod corpus;
pub mod driver;
pub mod oracle;
pub mod service;
pub mod shapes;

pub use adversary::{
    adversary_plans, run_adversary_suite, run_adversary_suite_on, AdversaryCell, AdversaryReport,
    CellOutcome,
};
pub use cc_model::{FaultComm, FaultPlan, FaultRule};
pub use corpus::{
    adversary_case_budget, arc_corpus, broadcast_case_budget, case_budget, demand_corpus,
    eulerian_corpus, flow_corpus, undirected_corpus, ArcCase, DemandCase, FlowCase, UndirectedCase,
};
pub use driver::{fault_plans, run_target, CheckerResult, FaultTarget, Tolerances};
pub use service::{run_service_soak, run_service_soak_on, SoakConfig, SoakReport};
