//! # cc-service — a long-lived solver engine over the congested clique stack
//!
//! The crates below this one expose one-shot entry points: every call to
//! `solve_laplacian`, `max_flow_ipm`, or `min_cost_flow_ipm` rebuilds its
//! sparsifier, preconditioner, and workspaces from scratch. The paper
//! presents these primitives as one toolkit over a shared
//! sparsifier/solver substrate — and this crate serves them that way: a
//! [`FlowEngine`] holds a registry of **named graphs** and answers a
//! typed [`Request`] stream against them, reusing per-graph state across
//! requests:
//!
//! * the Laplacian solver (sparsifier + grounded Cholesky factorization)
//!   is built on the first solve against a graph and reused by every
//!   later solve and effective-resistance request — a resistance is the
//!   width-1 solve of the column `e_s − e_t`, answered by `x_s − x_t`;
//! * max-flow / min-cost-flow requests share a generation-scoped
//!   [`cc_sparsify::TemplateCache`], so repeated flow queries on one
//!   support skip the `n^{o(1)}`-round expander decompositions
//!   (`template_cache_hits` in [`RequestStats`]);
//! * the APSP matrix is computed once per graph generation;
//! * same-graph, same-`eps` Laplacian solves submitted in one
//!   [`FlowEngine::submit_batch`] are admitted as a single
//!   `solve_multi_into` call — each response is bitwise-identical to a
//!   lone solve (which runs as a group of one), and total rounds equal
//!   the sum of lone solves.
//!
//! Every request passes **one admission step** against its registered
//! graph, which turns it into a typed job over the typed graph or into a
//! [`ServiceErrorKind::BadRequest`] before any communication: graph kind,
//! vertex ranges, `eps`, right-hand sides, and the facts `register`
//! derives once (components, a finite volume, the arcs' weight bound,
//! the flow bound of [`GraphSpec::Directed`], and a graph no larger than
//! the clique). Re-registering a name bumps the entry's **generation**
//! and drops all cached artifacts, so no request is ever served from
//! stale state.
//! Every request is accounted individually ([`RequestStats`]: ledger
//! rounds, cache hits, build attribution, batch width), and every
//! failure is a typed [`ServiceError`] carrying the request ID and graph
//! name while preserving the wrapped crate error's `source()` chain for
//! comm-rooted classification.
//!
//! Determinism discipline is unchanged from the rest of the workspace:
//! the same request stream produces bitwise-identical responses,
//! identical to fresh-engine-per-request execution.
//!
//! ```
//! use cc_model::Clique;
//! use cc_graph::generators;
//! use cc_service::{FlowEngine, GraphSpec, Request, Response};
//!
//! let mut engine = FlowEngine::new(Clique::new(16));
//! engine.register("net", GraphSpec::Undirected(generators::expander(16)));
//! let mut b = vec![0.0; 16];
//! b[0] = 1.0;
//! b[9] = -1.0;
//! let out = engine
//!     .submit(Request::LaplacianSolve { graph: "net".into(), b, eps: 1e-8 })
//!     .unwrap();
//! assert!(matches!(out.response, Response::Potentials { .. }));
//! assert!(out.stats.built, "first request pays the solver build");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod request;

pub use engine::{Degraded, EngineConfig, FlowEngine, RequestStats, RetryPolicy, ServiceOutcome};
pub use error::{ServiceError, ServiceErrorKind};
pub use request::{GraphSpec, Request, Response};
