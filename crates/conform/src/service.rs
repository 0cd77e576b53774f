//! Seeded soak driver for the `cc-service` engine layer.
//!
//! [`run_service_soak`] registers the whole instance corpus in one
//! long-lived [`FlowEngine`], replays a SplitMix64-seeded stream of
//! randomized typed requests against it — mixed kinds, mixed graphs,
//! randomized batch widths so the Laplacian batch-admission path is
//! exercised — and spot-checks a sampled fraction of the responses
//! against the sequential [`crate::oracle`]s. The driver is fully
//! deterministic: same [`SoakConfig`], same [`SoakReport`] (including
//! the response fingerprint) on every run and every thread count, which
//! is exactly what the CI soak job and the bench snapshot pin.

use std::collections::BTreeMap;

use cc_graph::DiGraph;
use cc_model::util::{Fnv1a, SplitMix64};
use cc_model::{Clique, Communicator};
use cc_service::{FlowEngine, GraphSpec, Request, Response};

use crate::corpus;
use crate::oracle;

/// Parameters of one soak run. Everything is seeded — two runs with
/// equal configs produce equal [`SoakReport`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakConfig {
    /// Seed of the request stream.
    pub seed: u64,
    /// Number of requests to replay.
    pub requests: usize,
    /// Check every `oracle_every`-th request against the sequential
    /// oracle (`1` = check everything, `0` = check nothing).
    pub oracle_every: usize,
    /// Extra seeded corpus instances per family (the `extra` argument
    /// of the [`crate::corpus`] generators).
    pub extra_cases: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 0x5eed_cafe,
            requests: 200,
            oracle_every: 5,
            extra_cases: 0,
        }
    }
}

/// Deterministic outcome of a soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Requests replayed.
    pub requests: usize,
    /// `submit_batch` calls issued.
    pub batches: usize,
    /// Requests that were admitted into a multi-RHS solve group
    /// (`batched_with > 1`).
    pub batched_requests: usize,
    /// Responses checked against a sequential oracle.
    pub oracle_checks: usize,
    /// Oracle disagreements (descriptions; empty on a clean run).
    pub mismatches: Vec<String>,
    /// Template-cache hits summed over all per-request stats.
    pub template_cache_hits: u64,
    /// Requests that paid a per-graph build (solver factorization or
    /// APSP matrix).
    pub builds: usize,
    /// Total simulated rounds the stream cost.
    pub total_rounds: u64,
    /// Rounds charged under the theorem-shape accounting.
    pub charged_rounds: u64,
    /// FNV-1a fingerprint of every response payload, in submission
    /// order. Bitwise determinism across runs and thread counts is
    /// asserted by comparing fingerprints.
    pub fingerprint: u64,
    /// Requests per kind, in the order: Laplacian solve, effective
    /// resistance, max flow, min-cost flow, SSSP, APSP.
    pub counts_by_kind: [usize; 6],
}

/// What the oracle needs to recheck responses against one registered
/// graph.
enum OracleData {
    Laplacian {
        n: usize,
        edges: Vec<(usize, usize, f64)>,
    },
    Flow {
        graph: DiGraph,
    },
    Demand {
        graph: DiGraph,
        sigma: Vec<i64>,
    },
    Arcs {
        n: usize,
        arcs: Vec<(usize, usize, i64)>,
    },
}

/// Folds a response into the stream fingerprint: byte-wise FNV-1a over
/// each word's little-endian bytes, a variant tag first (floats by bits).
fn fingerprint_response(h: &mut Fnv1a, resp: &Response) {
    let mut word = |w: u64| h.bytes(&w.to_le_bytes());
    match resp {
        Response::Potentials { x, iterations } => {
            word(1);
            word(*iterations as u64);
            x.iter().for_each(|v| word(v.to_bits()));
        }
        Response::Resistance { value, iterations } => {
            word(2);
            word(*iterations as u64);
            word(value.to_bits());
        }
        Response::MaxFlow { flow, value } => {
            word(3);
            word(*value as u64);
            flow.iter().for_each(|f| word(*f as u64));
        }
        Response::MinCostFlow { flow, cost } => {
            word(4);
            word(*cost as u64);
            flow.iter().for_each(|f| word(*f as u64));
        }
        Response::Sssp {
            dist,
            negative_cycle,
        } => {
            word(5);
            word(*negative_cycle as u64);
            dist.iter().for_each(|d| fold_distance(&mut word, *d));
        }
        Response::Apsp { dist } => {
            word(6);
            dist.iter()
                .flatten()
                .for_each(|d| fold_distance(&mut word, *d));
        }
    }
}

/// Folds an optional distance: a presence tag, then the value.
fn fold_distance(word: &mut impl FnMut(u64), d: Option<i64>) {
    match d {
        Some(d) => {
            word(1);
            word(d as u64);
        }
        None => word(0),
    }
}

/// Registers the full corpus in one engine; returns the engine plus the
/// oracle-side view of every graph, keyed by registered name.
fn build_engine<C: Communicator>(
    extra: usize,
    make: impl FnOnce(usize) -> C,
) -> (FlowEngine<C>, BTreeMap<String, OracleData>) {
    let undirected = corpus::undirected_corpus(extra);
    let flows = corpus::flow_corpus(extra);
    let demands = corpus::demand_corpus(extra);
    let arcs = corpus::arc_corpus(extra);

    // Two extra clique nodes beyond the largest graph: the min-cost-flow
    // rounding stage needs a super source and sink.
    let max_n = undirected
        .iter()
        .map(|c| c.graph.n())
        .chain(flows.iter().map(|c| c.graph.n()))
        .chain(demands.iter().map(|c| c.graph.n()))
        .chain(arcs.iter().map(|c| c.n))
        .max()
        .expect("non-empty corpus");
    let mut engine = FlowEngine::new(make(max_n + 2));

    let mut oracles = BTreeMap::new();
    for case in undirected {
        let name = format!("u/{}", case.id);
        oracles.insert(
            name.clone(),
            OracleData::Laplacian {
                n: case.graph.n(),
                edges: case.graph.edge_triples(),
            },
        );
        engine.register(&name, GraphSpec::Undirected(case.graph));
    }
    for case in flows {
        let name = format!("f/{}", case.id);
        oracles.insert(
            name.clone(),
            OracleData::Flow {
                graph: case.graph.clone(),
            },
        );
        engine.register(&name, GraphSpec::Directed(case.graph));
    }
    for case in demands {
        let name = format!("d/{}", case.id);
        oracles.insert(
            name.clone(),
            OracleData::Demand {
                graph: case.graph.clone(),
                sigma: case.sigma,
            },
        );
        engine.register(&name, GraphSpec::Directed(case.graph));
    }
    for case in arcs {
        let name = format!("a/{}", case.id);
        oracles.insert(
            name.clone(),
            OracleData::Arcs {
                n: case.n,
                arcs: case.arcs.clone(),
            },
        );
        engine.register(
            &name,
            GraphSpec::Arcs {
                n: case.n,
                arcs: case.arcs,
            },
        );
    }
    (engine, oracles)
}

/// Synthesizes the next request. The kind mix is weighted toward the
/// cheap reentrant paths (solves, resistances, memoized APSP) with a
/// steady trickle of interior-point flow requests, so long streams stay
/// inside a CI time box while still hitting every pipeline.
fn next_request(
    rng: &mut SplitMix64,
    oracles: &BTreeMap<String, OracleData>,
    names: &Names,
    counts: &mut [usize; 6],
) -> Request {
    match rng.below(16) {
        // 6/16 Laplacian solves.
        0..=5 => {
            counts[0] += 1;
            let name = &names.laplacian[rng.below(names.laplacian.len())];
            let n = match &oracles[name] {
                OracleData::Laplacian { n, .. } => *n,
                _ => unreachable!(),
            };
            let mut b: Vec<f64> = (0..n).map(|_| rng.next_f64() - 0.5).collect();
            let mean = b.iter().sum::<f64>() / n as f64;
            for v in &mut b {
                *v -= mean;
            }
            // Two eps tiers give batch admission two distinct group keys.
            let eps = if rng.below(2) == 0 { 1e-8 } else { 1e-6 };
            Request::LaplacianSolve {
                graph: name.clone(),
                b,
                eps,
            }
        }
        // 3/16 effective resistances.
        6..=8 => {
            counts[1] += 1;
            let name = &names.laplacian[rng.below(names.laplacian.len())];
            let n = match &oracles[name] {
                OracleData::Laplacian { n, .. } => *n,
                _ => unreachable!(),
            };
            let s = rng.below(n);
            let t = (s + 1 + rng.below(n - 1)) % n;
            Request::EffectiveResistance {
                graph: name.clone(),
                s,
                t,
                eps: 1e-8,
            }
        }
        // 2/16 max flows (corpus terminals).
        9..=10 => {
            counts[2] += 1;
            let (name, s, t) = &names.flow[rng.below(names.flow.len())];
            Request::MaxFlow {
                graph: name.clone(),
                s: *s,
                t: *t,
            }
        }
        // 2/16 min-cost flows (corpus demands).
        11..=12 => {
            counts[3] += 1;
            let name = &names.demand[rng.below(names.demand.len())];
            let sigma = match &oracles[name] {
                OracleData::Demand { sigma, .. } => sigma.clone(),
                _ => unreachable!(),
            };
            Request::MinCostFlow {
                graph: name.clone(),
                demands: sigma,
            }
        }
        // 2/16 SSSP from a random source.
        13..=14 => {
            counts[4] += 1;
            let name = &names.arcs[rng.below(names.arcs.len())];
            let n = match &oracles[name] {
                OracleData::Arcs { n, .. } => *n,
                _ => unreachable!(),
            };
            Request::Sssp {
                graph: name.clone(),
                source: rng.below(n),
            }
        }
        // 1/16 APSP (memoized after the first request per graph).
        _ => {
            counts[5] += 1;
            let name = &names.arcs[rng.below(names.arcs.len())];
            Request::Apsp {
                graph: name.clone(),
            }
        }
    }
}

/// Registered names by request domain.
struct Names {
    laplacian: Vec<String>,
    flow: Vec<(String, usize, usize)>,
    demand: Vec<String>,
    arcs: Vec<String>,
}

/// Differences one response against the sequential oracle. Returns a
/// description of the disagreement, or `None` if the response conforms.
fn oracle_check(
    oracles: &BTreeMap<String, OracleData>,
    req: &Request,
    resp: &Response,
) -> Option<String> {
    let data = &oracles[req.graph()];
    match (req, resp, data) {
        (
            Request::LaplacianSolve { graph, b, eps },
            Response::Potentials { x, .. },
            OracleData::Laplacian { n, edges },
        ) => {
            let want = oracle::dense_laplacian_solve(*n, edges, b)
                .expect("oracle factorization on corpus instance");
            let diff: Vec<f64> = x.iter().zip(&want).map(|(a, w)| a - w).collect();
            let err = oracle::quadratic_form(edges, &diff).sqrt();
            let scale = oracle::quadratic_form(edges, &want).sqrt();
            // The solver guarantees eps relative error in the L-seminorm;
            // 10x slack absorbs broadcast quantization.
            if err > 10.0 * eps * scale.max(1e-12) {
                return Some(format!(
                    "{graph}: laplacian solve off by {err:.3e} in L-norm (scale {scale:.3e}, eps {eps:.0e})"
                ));
            }
            None
        }
        (
            Request::EffectiveResistance { graph, s, t, .. },
            Response::Resistance { value, .. },
            OracleData::Laplacian { n, edges },
        ) => {
            let want = oracle::effective_resistance_dense(*n, edges, *s, *t)
                .expect("oracle factorization on corpus instance");
            if (value - want).abs() > 1e-6 * want.abs().max(1e-9) {
                return Some(format!(
                    "{graph}: R_eff({s},{t}) = {value:.12e}, oracle {want:.12e}"
                ));
            }
            None
        }
        (
            Request::MaxFlow { graph, s, t },
            Response::MaxFlow { value, .. },
            OracleData::Flow { graph: g },
        ) => {
            let (_, want) = oracle::edmonds_karp(g, *s, *t);
            if *value != want {
                return Some(format!("{graph}: max flow {value}, oracle {want}"));
            }
            None
        }
        (
            Request::MinCostFlow { graph, .. },
            Response::MinCostFlow { cost, .. },
            OracleData::Demand { graph: g, sigma },
        ) => {
            let Some((_, want)) = oracle::ssp_mcf(g, sigma) else {
                return Some(format!("{graph}: oracle says infeasible, engine routed it"));
            };
            if *cost != want {
                return Some(format!("{graph}: min-cost flow cost {cost}, oracle {want}"));
            }
            None
        }
        (
            Request::Sssp { graph, source },
            Response::Sssp {
                dist,
                negative_cycle,
            },
            OracleData::Arcs { n, arcs },
        ) => {
            if *negative_cycle {
                return Some(format!("{graph}: negative cycle on non-negative arcs"));
            }
            let want = oracle::dijkstra_sssp(*n, arcs, *source);
            if *dist != want {
                return Some(format!(
                    "{graph}: SSSP from {source} disagrees with Dijkstra"
                ));
            }
            None
        }
        (Request::Apsp { graph }, Response::Apsp { dist }, OracleData::Arcs { n, arcs }) => {
            let want = oracle::dijkstra_apsp(*n, arcs);
            if *dist != want {
                return Some(format!("{graph}: APSP disagrees with Dijkstra"));
            }
            None
        }
        (req, resp, _) => Some(format!(
            "{}: response kind does not match request ({resp:?} for {req:?})",
            req.graph()
        )),
    }
}

/// Replays a seeded randomized request stream through one long-lived
/// engine, spot-checking responses against the sequential oracles.
///
/// The run is deterministic end to end: graph registry, request
/// synthesis, batch widths, and oracle sampling all derive from
/// `config`, so [`SoakReport`]s (including the bitwise response
/// fingerprint) are comparable across runs, machines, and thread
/// counts.
///
/// # Panics
///
/// Panics if the engine rejects a synthesized request — the stream is
/// well-formed by construction, so a typed error here is a harness bug,
/// not a conformance finding.
pub fn run_service_soak(config: &SoakConfig) -> SoakReport {
    run_service_soak_on(config, Clique::new)
}

/// [`run_service_soak`], but over a caller-chosen transport: `make`
/// receives the clique size and builds the engine's communicator. The
/// CI soak runs this with [`cc_model::ThreadedComm`] to pin the whole
/// service stack — engine, sessions, batch admission — to bitwise
/// report identity across transports.
///
/// # Panics
///
/// Panics if the engine rejects a synthesized request, as in
/// [`run_service_soak`].
pub fn run_service_soak_on<C: Communicator>(
    config: &SoakConfig,
    make: impl FnOnce(usize) -> C,
) -> SoakReport {
    let (mut engine, oracles) = build_engine(config.extra_cases, make);
    let names = Names {
        laplacian: oracles
            .iter()
            .filter(|(_, d)| matches!(d, OracleData::Laplacian { .. }))
            .map(|(k, _)| k.clone())
            .collect(),
        flow: oracles
            .iter()
            .filter_map(|(k, d)| match d {
                OracleData::Flow { .. } => {
                    // Corpus flow terminals are always 0 and n-1.
                    let n = match d {
                        OracleData::Flow { graph } => graph.n(),
                        _ => unreachable!(),
                    };
                    Some((k.clone(), 0, n - 1))
                }
                _ => None,
            })
            .collect(),
        demand: oracles
            .iter()
            .filter(|(_, d)| matches!(d, OracleData::Demand { .. }))
            .map(|(k, _)| k.clone())
            .collect(),
        arcs: oracles
            .iter()
            .filter(|(_, d)| matches!(d, OracleData::Arcs { .. }))
            .map(|(k, _)| k.clone())
            .collect(),
    };

    let mut rng = SplitMix64::new(config.seed);
    let mut report = SoakReport {
        requests: 0,
        batches: 0,
        batched_requests: 0,
        oracle_checks: 0,
        mismatches: Vec::new(),
        template_cache_hits: 0,
        builds: 0,
        total_rounds: 0,
        charged_rounds: 0,
        fingerprint: 0,
        counts_by_kind: [0; 6],
    };
    let mut fingerprint = Fnv1a::default();

    let mut emitted = 0usize;
    while emitted < config.requests {
        let width = (1 + rng.below(4)).min(config.requests - emitted);
        let batch: Vec<Request> = (0..width)
            .map(|_| next_request(&mut rng, &oracles, &names, &mut report.counts_by_kind))
            .collect();
        let outcomes = engine.submit_batch(batch.clone());
        report.batches += 1;

        for (req, outcome) in batch.iter().zip(outcomes) {
            let out = match outcome {
                Ok(out) => out,
                Err(e) => panic!("well-formed soak request rejected: {e}"),
            };
            emitted += 1;
            report.requests += 1;
            report.template_cache_hits += out.stats.template_cache_hits;
            report.builds += out.stats.built as usize;
            if out.stats.batched_with > 1 {
                report.batched_requests += 1;
            }
            fingerprint_response(&mut fingerprint, &out.response);
            if config.oracle_every > 0 && report.requests.is_multiple_of(config.oracle_every) {
                report.oracle_checks += 1;
                if let Some(m) = oracle_check(&oracles, req, &out.response) {
                    report.mismatches.push(m);
                }
            }
        }
    }

    report.fingerprint = fingerprint.finish();
    report.total_rounds = engine.ledger().total_rounds();
    report.charged_rounds = engine.ledger().charged_rounds();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_is_deterministic_and_clean_on_a_short_stream() {
        let config = SoakConfig {
            requests: 40,
            oracle_every: 4,
            ..SoakConfig::default()
        };
        let a = run_service_soak(&config);
        assert_eq!(a.requests, 40);
        assert!(a.oracle_checks >= 10);
        assert!(a.mismatches.is_empty(), "{:?}", a.mismatches);
        let b = run_service_soak(&config);
        assert_eq!(a, b, "soak must be bitwise deterministic");
    }

    #[test]
    fn soak_reuses_cached_state_across_the_stream() {
        let config = SoakConfig {
            requests: 60,
            oracle_every: 0,
            ..SoakConfig::default()
        };
        let report = run_service_soak(&config);
        assert!(
            report.template_cache_hits > 0,
            "a 60-request stream must revisit a flow support: {report:?}"
        );
        // Builds are bounded by the number of registered graphs — every
        // later request rides a session.
        assert!(report.builds <= 21 + report.counts_by_kind[5]);
        assert!(report.batched_requests > 0, "batch admission never fired");
    }
}
