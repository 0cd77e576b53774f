//! The differential driver: one checker per public entry point, generic
//! over the transport.
//!
//! Each checker runs a pipeline on a corpus instance against any
//! `C: Communicator`, differences the result against the sequential
//! [`crate::oracle`] within the typed [`Tolerances`], and returns the
//! rounds the run charged — so callers can also assert theorem shapes
//! ([`crate::shapes`]) and cross-transport round identity. On an honest
//! substrate a checker panics on any disagreement (it is a test
//! harness); under a fault-injecting substrate it propagates the
//! pipeline's typed error, which [`comm_rooted`] classifies.

use std::error::Error;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cc_apsp::{approx_apsp, apsp_from_arcs, sssp_bellman_ford, ApspError, RoundModel, SsspOutcome};
use cc_core::{CoreError, ElectricalNetwork, LaplacianSolver, SolverOptions};
use cc_euler::{eulerian_orientation, round_flow, EulerError, FlowRoundingOptions};
use cc_linalg::LaplacianNorm;
use cc_maxflow::{
    max_flow_ford_fulkerson, max_flow_ipm, max_flow_trivial, IpmOptions, MaxFlowError,
};
use cc_mcf::{min_cost_flow_ipm, McfError, McfOptions};
use cc_model::util::fnv1a_bytes;
use cc_model::{Communicator, FaultComm, FaultPlan, FaultRule, ModelError};
use cc_sparsify::{build_sparsifier, SparsifyError, SparsifyParams};

use crate::corpus::{self, ArcCase, DemandCase, FlowCase, UndirectedCase};
use crate::oracle;

/// Typed comparison tolerances of the differential checks.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Multiplicative slack on the solver's ε guarantee (quantization of
    /// broadcast payloads keeps runs a hair above the exact bound).
    pub solver_slack: f64,
    /// Relative tolerance on effective-resistance agreement.
    pub resistance_rel: f64,
    /// Multiplicative slack on the sparsifier's `[1/α, α]` sandwich.
    pub sparsifier_slack: f64,
    /// `ε` passed to (and asserted of) the approximate APSP.
    pub apsp_eps: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            solver_slack: 1.05,
            resistance_rel: 1e-6,
            sparsifier_slack: 1e-6,
            apsp_eps: 0.25,
        }
    }
}

fn dipole(n: usize) -> Vec<f64> {
    let mut b = vec![0.0; n];
    b[0] = 1.0;
    b[n - 1] = -1.0;
    b
}

/// Differential check of the Laplacian solver (Theorem 1.1): solve the
/// dipole system to precision `eps` and difference against the dense
/// grounded oracle in the `L_G` seminorm. Returns the rounds charged.
///
/// # Errors
///
/// Propagates the pipeline's [`CoreError`] (typed faults under a
/// fault-injecting transport).
pub fn check_solver<C: Communicator>(
    comm: &mut C,
    case: &UndirectedCase,
    eps: f64,
    tol: &Tolerances,
) -> Result<u64, CoreError> {
    let g = &case.graph;
    let solver = LaplacianSolver::build(comm, g, &SolverOptions::default())?;
    let b = dipole(g.n());
    let before = comm.ledger().total_rounds();
    let out = solver.solve(comm, &b, eps)?;
    let rounds = comm.ledger().total_rounds() - before;
    let x_star = oracle::dense_laplacian_solve(g.n(), &g.edge_triples(), &b)
        .expect("oracle factorization on corpus instance");
    let norm = LaplacianNorm::new(g.edge_triples());
    let denom = norm.norm(&x_star);
    assert!(
        norm.distance(&out.x, &x_star) <= eps * tol.solver_slack * denom.max(1e-300),
        "{}: solver diverges from dense oracle beyond {eps}",
        case.id
    );
    Ok(rounds)
}

/// Differential check of effective resistance against the brute-force
/// dense oracle, between the instance's first and last vertices.
///
/// # Errors
///
/// Propagates the pipeline's [`CoreError`].
pub fn check_resistance<C: Communicator>(
    comm: &mut C,
    case: &UndirectedCase,
    tol: &Tolerances,
) -> Result<u64, CoreError> {
    let g = &case.graph;
    let (s, t) = (0, g.n() - 1);
    // The network takes resistances; the graph's weights are conductances.
    let resistors: Vec<(usize, usize, f64)> = g
        .edge_triples()
        .into_iter()
        .map(|(u, v, w)| (u, v, 1.0 / w))
        .collect();
    let net = ElectricalNetwork::build(comm, g.n(), &resistors, &SolverOptions::default())?;
    let before = comm.ledger().total_rounds();
    let r = net.effective_resistance(comm, s, t, 1e-9)?;
    let rounds = comm.ledger().total_rounds() - before;
    let want = oracle::effective_resistance_dense(g.n(), &g.edge_triples(), s, t)
        .expect("oracle factorization on corpus instance");
    assert!(
        (r - want).abs() <= tol.resistance_rel * want.abs().max(1e-12),
        "{}: R_eff {r} vs oracle {want}",
        case.id
    );
    Ok(rounds)
}

/// Differential check of the sparsifier (Theorem 3.3): the certified
/// `(1/α)·S_H ⪯ L_G ⪯ α·S_H` sandwich is probed *directly* on the
/// quadratic forms — deterministic probe vectors, with the Schur
/// complement recomputed from scratch by the oracle.
///
/// # Errors
///
/// Propagates the pipeline's [`SparsifyError`].
pub fn check_sparsifier<C: Communicator>(
    comm: &mut C,
    case: &UndirectedCase,
    tol: &Tolerances,
) -> Result<u64, SparsifyError> {
    let g = &case.graph;
    let before = comm.ledger().total_rounds();
    let h = build_sparsifier(comm, g, &SparsifyParams::default())?;
    let rounds = comm.ledger().total_rounds() - before;
    let alpha = h.alpha();
    assert!(
        alpha.is_finite() && alpha >= 1.0,
        "{}: certified α must be a finite value ≥ 1, got {alpha}",
        case.id
    );
    let probes = oracle::probe_vectors(g.n(), 8, fnv1a_bytes(case.id.as_bytes()));
    let (lo, hi) =
        oracle::schur_quadratic_ratio_bounds(g.n(), h.edges(), &g.edge_triples(), &probes);
    assert!(
        hi <= alpha * (1.0 + tol.sparsifier_slack),
        "{}: probe ratio {hi} above certified α {alpha}",
        case.id
    );
    assert!(
        lo * alpha >= 1.0 - tol.sparsifier_slack,
        "{}: probe ratio {lo} below certified 1/α {}",
        case.id,
        1.0 / alpha
    );
    Ok(rounds)
}

/// Differential check of the Eulerian orientation (Theorem 1.4) against
/// the independent balance certificate.
///
/// # Errors
///
/// Propagates the pipeline's [`EulerError`].
pub fn check_orientation<C: Communicator>(
    comm: &mut C,
    case: &UndirectedCase,
) -> Result<u64, EulerError> {
    let g = &case.graph;
    let before = comm.ledger().total_rounds();
    let o = eulerian_orientation(comm, g)?;
    let rounds = comm.ledger().total_rounds() - before;
    assert!(
        oracle::orientation_balanced(g, &o),
        "{}: orientation is not Eulerian",
        case.id
    );
    Ok(rounds)
}

/// Differential check of flow rounding (Lemma 4.2): scale the oracle's
/// optimal flow by 3/4 and round at `Δ = 1/4`; the result must be
/// integral, floor/ceil per edge, and lose no value.
///
/// # Errors
///
/// Propagates the pipeline's [`EulerError`].
pub fn check_rounding<C: Communicator>(comm: &mut C, case: &FlowCase) -> Result<u64, EulerError> {
    let g = &case.graph;
    let (opt, value) = oracle::edmonds_karp(g, case.s, case.t);
    let frac: Vec<f64> = opt.iter().map(|&f| f as f64 * 0.75).collect();
    let before = comm.ledger().total_rounds();
    let out = round_flow(
        comm,
        g,
        &frac,
        case.s,
        case.t,
        0.25,
        &FlowRoundingOptions::default(),
    )?;
    let rounds = comm.ledger().total_rounds() - before;
    let got = g.flow_value(&out.flow, case.s);
    assert!(
        got as f64 >= 0.75 * value as f64 - 1e-9,
        "{}: rounding lost value ({got} < 3/4 · {value})",
        case.id
    );
    for (i, &f) in out.flow.iter().enumerate() {
        assert!(
            f == frac[i].floor() as i64 || f == frac[i].ceil() as i64,
            "{}: edge {i} rounded outside floor/ceil",
            case.id
        );
    }
    Ok(rounds)
}

/// Differential check of the IPM max-flow pipeline (Theorem 1.2) against
/// the Edmonds–Karp oracle: exact value, feasible flow.
///
/// # Errors
///
/// Propagates the pipeline's [`MaxFlowError`].
pub fn check_maxflow_ipm<C: Communicator>(
    comm: &mut C,
    case: &FlowCase,
) -> Result<u64, MaxFlowError> {
    let g = &case.graph;
    let before = comm.ledger().total_rounds();
    let out = max_flow_ipm(comm, g, case.s, case.t, &IpmOptions::default())?;
    let rounds = comm.ledger().total_rounds() - before;
    let (_, want) = oracle::edmonds_karp(g, case.s, case.t);
    assert_eq!(out.value, want, "{}: IPM value vs oracle", case.id);
    assert!(
        g.is_feasible_flow(&out.flow, &g.st_demand(case.s, case.t, want)),
        "{}: IPM flow infeasible",
        case.id
    );
    Ok(rounds)
}

/// Differential check of the Ford–Fulkerson baseline against the
/// Edmonds–Karp oracle.
///
/// # Errors
///
/// Propagates the pipeline's [`MaxFlowError`].
pub fn check_maxflow_ff<C: Communicator>(
    comm: &mut C,
    case: &FlowCase,
) -> Result<u64, MaxFlowError> {
    let g = &case.graph;
    let before = comm.ledger().total_rounds();
    let out = max_flow_ford_fulkerson(comm, g, case.s, case.t, RoundModel::Semiring)?;
    let rounds = comm.ledger().total_rounds() - before;
    let (_, want) = oracle::edmonds_karp(g, case.s, case.t);
    assert_eq!(out.value, want, "{}: FF value vs oracle", case.id);
    Ok(rounds)
}

/// Differential check of the trivial gather-and-solve baseline against
/// the Edmonds–Karp oracle.
///
/// # Errors
///
/// Propagates the pipeline's [`MaxFlowError`].
pub fn check_maxflow_trivial<C: Communicator>(
    comm: &mut C,
    case: &FlowCase,
) -> Result<u64, MaxFlowError> {
    let g = &case.graph;
    let before = comm.ledger().total_rounds();
    let out = max_flow_trivial(comm, g, case.s, case.t)?;
    let rounds = comm.ledger().total_rounds() - before;
    let (_, want) = oracle::edmonds_karp(g, case.s, case.t);
    assert_eq!(out.value, want, "{}: trivial value vs oracle", case.id);
    Ok(rounds)
}

/// Differential check of the min-cost-flow pipeline (Theorem 1.3)
/// against the independent Bellman–Ford SSP oracle: exact cost,
/// feasible flow, unit capacities respected.
///
/// # Errors
///
/// Propagates the pipeline's [`McfError`].
pub fn check_mcf<C: Communicator>(comm: &mut C, case: &DemandCase) -> Result<u64, McfError> {
    let g = &case.graph;
    let before = comm.ledger().total_rounds();
    let out = min_cost_flow_ipm(comm, g, &case.sigma, &McfOptions::default())?;
    let rounds = comm.ledger().total_rounds() - before;
    let (_, want) = oracle::ssp_mcf(g, &case.sigma).expect("corpus demands are feasible");
    assert_eq!(out.cost, want, "{}: MCF cost vs oracle", case.id);
    assert!(
        g.is_feasible_flow(&out.flow, &case.sigma),
        "{}: MCF flow infeasible",
        case.id
    );
    Ok(rounds)
}

/// Differential check of distributed Bellman–Ford SSSP against the
/// Dijkstra oracle (exact distances on the non-negative corpus).
///
/// # Errors
///
/// Propagates the pipeline's [`ApspError`].
pub fn check_sssp<C: Communicator>(comm: &mut C, case: &ArcCase) -> Result<u64, ApspError> {
    let before = comm.ledger().total_rounds();
    let out = sssp_bellman_ford(comm, case.n, &case.arcs, case.source)?;
    let rounds = comm.ledger().total_rounds() - before;
    let want = oracle::dijkstra_sssp(case.n, &case.arcs, case.source);
    match out {
        SsspOutcome::Converged { dist, .. } => {
            assert_eq!(dist, want, "{}: Bellman–Ford vs Dijkstra", case.id)
        }
        SsspOutcome::NegativeCycle { witness } => panic!(
            "{}: spurious negative cycle (witness {witness}) on non-negative arcs",
            case.id
        ),
    }
    Ok(rounds)
}

/// Differential check of exact and `(1+ε)`-approximate APSP against the
/// Dijkstra oracle. Infallible: both pipelines only *charge* rounds to
/// the ledger — they move no payload, so no substrate failure can reach
/// them. Returns the rounds charged.
pub fn check_apsp<C: Communicator>(comm: &mut C, case: &ArcCase, tol: &Tolerances) -> u64 {
    let before = comm.ledger().total_rounds();
    let exact = apsp_from_arcs(comm, case.n, &case.arcs, RoundModel::Semiring);
    let approx = approx_apsp(
        comm,
        case.n,
        &case.arcs,
        tol.apsp_eps,
        RoundModel::FastMatMul,
    );
    let rounds = comm.ledger().total_rounds() - before;
    let want = oracle::dijkstra_apsp(case.n, &case.arcs);
    for (u, row) in want.iter().enumerate() {
        for (v, &w) in row.iter().enumerate() {
            assert_eq!(exact.dist(u, v), w, "{}: exact APSP {u}→{v}", case.id);
            match (approx.dist(u, v), w) {
                (None, None) => {}
                (Some(a), Some(d)) => assert!(
                    a >= d && a as f64 <= (1.0 + tol.apsp_eps) * d as f64 + 1e-9,
                    "{}: approx APSP {u}→{v}: {a} outside [{d}, (1+ε)·{d}]",
                    case.id
                ),
                (a, d) => panic!("{}: approx reachability {u}→{v}: {a:?} vs {d:?}", case.id),
            }
        }
    }
    rounds
}

/// True if `e`'s source chain bottoms out in a [`ModelError`] — the
/// classifier the fault suites use to assert an injected fault surfaced
/// as a typed, comm-rooted error (and not, say, a numerical fallback).
pub fn comm_rooted(e: &(dyn std::error::Error + 'static)) -> bool {
    let mut cur: Option<&(dyn std::error::Error + 'static)> = Some(e);
    while let Some(s) = cur {
        if s.is::<ModelError>() {
            return true;
        }
        cur = s.source();
    }
    false
}

/// The pipelines the fault suite targets, one per public entry point
/// with a communication payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// [`check_solver`] — fails inside `laplacian_solve`.
    Solver,
    /// [`check_resistance`] — fails the electrical solve.
    Resistance,
    /// [`check_sparsifier`] — fails inside `sparsify`.
    Sparsifier,
    /// [`check_orientation`] — fails inside `eulerian_orientation`.
    Orientation,
    /// [`check_rounding`] — fails inside `flow_rounding`.
    Rounding,
    /// [`check_maxflow_ipm`] — fails inside `maxflow`.
    MaxFlow,
    /// [`check_maxflow_ff`] — fails inside `ford_fulkerson`.
    FordFulkerson,
    /// [`check_maxflow_trivial`] — fails the gather.
    TrivialFlow,
    /// [`check_mcf`] — fails inside `mincostflow`.
    Mcf,
    /// [`check_sssp`] — fails a relaxation sweep.
    Sssp,
}

/// A checker's outcome with its error erased: the rounds of a run that
/// passed the oracle, or the pipeline's typed error.
pub type CheckerResult = Result<u64, Box<dyn Error>>;

/// The one target dispatcher of the fault suite and the chaos matrix:
/// runs `target`'s checker on its corpus instance under a [`FaultComm`]
/// armed with `plan`, over a substrate from `make(n)`. Returns the
/// checker's outcome and the decorator (for its event log and fault
/// counts). A checker panic — the oracle assert caught a wrong answer,
/// or the pipeline crashed — is caught and returned as the outer `Err`.
///
/// # Panics
///
/// If `plan` is invalid for the instance (see [`FaultComm::new`]).
pub fn run_target<C: Communicator>(
    target: FaultTarget,
    plan: FaultPlan,
    make: impl FnOnce(usize) -> C,
) -> (std::thread::Result<CheckerResult>, FaultComm<C>) {
    fn arm<C: Communicator, E: Error + 'static>(
        n: usize,
        plan: FaultPlan,
        make: impl FnOnce(usize) -> C,
        check: impl FnOnce(&mut FaultComm<C>) -> Result<u64, E>,
    ) -> (std::thread::Result<CheckerResult>, FaultComm<C>) {
        let mut comm = FaultComm::new(make(n), plan);
        let result = catch_unwind(AssertUnwindSafe(|| {
            check(&mut comm).map_err(|e| Box::new(e) as _)
        }));
        (result, comm)
    }
    let tol = Tolerances::default();
    let undirected = |i: usize| corpus::undirected_corpus(0).swap_remove(i);
    let flow = || corpus::flow_corpus(0).swap_remove(0);
    match target {
        FaultTarget::Solver => {
            let case = undirected(0);
            arm(case.graph.n(), plan, make, |c| {
                check_solver(c, &case, 1e-6, &tol)
            })
        }
        FaultTarget::Resistance => {
            let case = undirected(0);
            arm(case.graph.n(), plan, make, |c| {
                check_resistance(c, &case, &tol)
            })
        }
        FaultTarget::Sparsifier => {
            let case = undirected(2);
            arm(case.graph.n(), plan, make, |c| {
                check_sparsifier(c, &case, &tol)
            })
        }
        FaultTarget::Orientation => {
            let case = corpus::eulerian_corpus(0).swap_remove(0);
            arm(case.graph.n(), plan, make, |c| check_orientation(c, &case))
        }
        FaultTarget::Rounding => {
            let case = flow();
            arm(case.graph.n(), plan, make, |c| check_rounding(c, &case))
        }
        FaultTarget::MaxFlow => {
            let case = flow();
            arm(case.graph.n(), plan, make, |c| check_maxflow_ipm(c, &case))
        }
        FaultTarget::FordFulkerson => {
            let case = flow();
            arm(case.graph.n(), plan, make, |c| check_maxflow_ff(c, &case))
        }
        FaultTarget::TrivialFlow => {
            let case = flow();
            arm(case.graph.n(), plan, make, |c| {
                check_maxflow_trivial(c, &case)
            })
        }
        FaultTarget::Mcf => {
            let case = corpus::demand_corpus(0).swap_remove(0);
            arm(case.graph.n() + 2, plan, make, |c| check_mcf(c, &case))
        }
        FaultTarget::Sssp => {
            let case = corpus::arc_corpus(0).swap_remove(0);
            arm(case.n, plan, make, |c| check_sssp(c, &case))
        }
    }
}

/// One phase-targeted [`FaultPlan`] per [`FaultTarget`]: running the
/// target's checker under `FaultComm` with its plan must produce the
/// pipeline's typed error — never a panic, never a silently wrong
/// result. Deterministic: plan seeds derive from the target index.
pub fn fault_plans() -> Vec<(FaultTarget, FaultPlan)> {
    let phase_plan = |seed: u64, fragment: &str| {
        FaultPlan::new(seed).with(FaultRule::FailInPhase(fragment.into()))
    };
    vec![
        (FaultTarget::Solver, phase_plan(1, "laplacian_solve")),
        (FaultTarget::Resistance, phase_plan(2, "laplacian_solve")),
        (FaultTarget::Sparsifier, phase_plan(3, "sparsify")),
        (
            FaultTarget::Orientation,
            phase_plan(4, "eulerian_orientation"),
        ),
        (FaultTarget::Rounding, phase_plan(5, "flow_rounding")),
        (FaultTarget::MaxFlow, phase_plan(6, "maxflow")),
        (FaultTarget::FordFulkerson, phase_plan(7, "ford_fulkerson")),
        (FaultTarget::TrivialFlow, phase_plan(8, "trivial_gather")),
        (FaultTarget::Mcf, phase_plan(9, "mincostflow")),
        (FaultTarget::Sssp, phase_plan(10, "sssp_bellman_ford")),
    ]
}
