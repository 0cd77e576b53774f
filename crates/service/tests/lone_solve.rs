//! A lone `LaplacianSolve` — one that shares its `(graph, eps)` with no
//! other request of its batch — runs through the same group path as a
//! batch, as a group of one. These pins hold its observable behaviour to
//! constants recorded before that merge, when a lone solve still had a
//! dispatch arm of its own: the full `RequestStats` (rounds, charged
//! rounds, build attribution, batch width, cache hits, attempts), the
//! solution bits, its execution slot after the groups of two or more,
//! and the fields of its `BadRequest` and `RoundBudgetExceeded` errors on
//! an honest `Clique`.
//!
//! An `EffectiveResistance` is the width-1 solve of `e_s − e_t`. Its pins
//! were recorded while it still ran through a single-column solve of its
//! own: `RequestStats`, the bits of `x_s − x_t` and `iterations`, its slot
//! in a mixed batch, and its budget, fault and retry fields under a
//! corrupting and a silent node.

use cc_graph::generators;
use cc_model::{Clique, Communicator, FaultComm, FaultPlan, FaultRule};
use cc_service::{
    EngineConfig, FlowEngine, GraphSpec, Request, RequestStats, Response, RetryPolicy,
    ServiceError, ServiceErrorKind, ServiceOutcome,
};

const N: usize = 12;

fn engine(config: EngineConfig) -> FlowEngine<Clique> {
    let mut engine = FlowEngine::with_config(Clique::new(N), config);
    register(&mut engine);
    engine
}

fn register<C: Communicator>(engine: &mut FlowEngine<C>) {
    engine.register(
        "g",
        GraphSpec::Undirected(generators::random_connected(N, 30, 4, 3)),
    );
}

fn solve(s: usize, t: usize, eps: f64) -> Request {
    let mut b = vec![0.0; N];
    b[s] = 1.0;
    b[t] = -1.0;
    Request::LaplacianSolve {
        graph: "g".into(),
        b,
        eps,
    }
}

/// FNV-1a over the potentials' bit patterns and the iteration count.
fn fingerprint(outcome: &ServiceOutcome) -> (u64, usize) {
    let Response::Potentials { x, iterations } = &outcome.response else {
        panic!("expected potentials, got {:?}", outcome.response)
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in x {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (h, *iterations)
}

fn stats(request_id: u64, rounds: u64, charged_rounds: u64, built: bool) -> RequestStats {
    RequestStats {
        request_id,
        graph: "g".into(),
        generation: 1,
        rounds,
        charged_rounds,
        template_cache_hits: 0,
        built,
        batched_with: 1,
        engine: None,
        attempts: 1,
        degraded: None,
    }
}

#[test]
fn lone_solves_keep_their_stats_and_bits() {
    let mut engine = engine(EngineConfig::default());
    // The first solve pays the build: 6 ledger rounds (4 of them charged
    // oracle rounds), then 15 Chebyshev iterations of one round each.
    let first = engine.submit(solve(0, 11, 1e-8)).unwrap();
    assert_eq!(first.stats, stats(0, 21, 4, true));
    assert_eq!(fingerprint(&first), (0x71a2_caf2_eb11_52b0, 15));
    let second = engine.submit(solve(3, 7, 1e-8)).unwrap();
    assert_eq!(second.stats, stats(1, 15, 0, false));
    assert_eq!(fingerprint(&second), (0xb08d_6013_bce4_6756, 15));
}

#[test]
fn a_lone_solve_runs_at_its_slot_after_the_groups() {
    // Slot 0 is lone (its eps is unique); slots 1 and 2 form a group,
    // which runs first and so pays the solver build.
    let mut engine = engine(EngineConfig::default());
    let out = engine.submit_batch(vec![
        solve(0, 11, 1e-4),
        solve(3, 7, 1e-8),
        solve(5, 2, 1e-8),
    ]);
    let out: Vec<ServiceOutcome> = out.into_iter().map(Result::unwrap).collect();
    assert_eq!(out[0].stats, stats(0, 8, 0, false));
    assert_eq!(fingerprint(&out[0]), (0x559f_8ee8_06d6_58cd, 8));
    let group = |id, rounds, charged, built| RequestStats {
        batched_with: 2,
        ..stats(id, rounds, charged, built)
    };
    assert_eq!(out[1].stats, group(1, 21, 4, true));
    assert_eq!(out[2].stats, group(2, 15, 0, false));
    // A column of the group carries the bits of the same right-hand side
    // solved alone.
    assert_eq!(fingerprint(&out[1]), (0xb08d_6013_bce4_6756, 15));
    assert_eq!(fingerprint(&out[2]), (0x8645_8598_403a_143f, 15));
    assert_eq!(engine.ledger().total_rounds(), 44);
}

#[test]
fn lone_solve_errors_keep_their_fields() {
    let error = |request_id, kind| ServiceError {
        request_id,
        graph: "g".into(),
        kind,
        faults_observed: 0,
        attempts: 1,
    };
    let mut engine = engine(EngineConfig::default());
    let short = engine.submit(Request::LaplacianSolve {
        graph: "g".into(),
        b: vec![1.0, -1.0],
        eps: 1e-8,
    });
    assert_eq!(
        short.unwrap_err(),
        error(
            0,
            ServiceErrorKind::BadRequest {
                reason: "rhs length must equal the vertex count"
            }
        )
    );
    assert_eq!(engine.ledger().total_rounds(), 0);

    let mut engine = engine_with_budget(5);
    let over = |rounds| ServiceErrorKind::RoundBudgetExceeded { rounds, budget: 5 };
    // The failed first request still built the solver; the second
    // reuses it and costs its solve alone.
    let first = engine.submit(solve(0, 11, 1e-8)).unwrap_err();
    assert_eq!(first, error(0, over(21)));
    let second = engine.submit(solve(0, 11, 1e-8)).unwrap_err();
    assert_eq!(second, error(1, over(15)));
}

fn engine_with_budget(budget: u64) -> FlowEngine<Clique> {
    engine(EngineConfig {
        round_budget: Some(budget),
        ..EngineConfig::default()
    })
}

fn resistance(s: usize, t: usize, eps: f64) -> Request {
    Request::EffectiveResistance {
        graph: "g".into(),
        s,
        t,
        eps,
    }
}

/// The resistance's bit pattern and the iteration count.
fn resistance_bits(outcome: &ServiceOutcome) -> (u64, usize) {
    let Response::Resistance { value, iterations } = &outcome.response else {
        panic!("expected a resistance, got {:?}", outcome.response)
    };
    (value.to_bits(), *iterations)
}

#[test]
fn lone_resistances_keep_their_stats_and_bits() {
    let mut engine = engine(EngineConfig::default());
    // A resistance costs what the solve of `e_s − e_t` costs: the build
    // on the first request, then 15 one-round Chebyshev iterations.
    let first = engine.submit(resistance(0, 11, 1e-8)).unwrap();
    assert_eq!(first.stats, stats(0, 21, 4, true));
    assert_eq!(resistance_bits(&first), (0x3fc1_3aae_1b99_7c19, 15));
    let second = engine.submit(resistance(3, 7, 1e-8)).unwrap();
    assert_eq!(second.stats, stats(1, 15, 0, false));
    assert_eq!(resistance_bits(&second), (0x3fc1_4500_85be_aea5, 15));

    // Between two solves of one group, a resistance still runs alone,
    // at its slot after the group.
    let out = engine.submit_batch(vec![
        solve(0, 11, 1e-4),
        resistance(5, 2, 1e-8),
        solve(3, 7, 1e-4),
    ]);
    let out: Vec<ServiceOutcome> = out.into_iter().map(Result::unwrap).collect();
    let group = |id| RequestStats {
        batched_with: 2,
        ..stats(id, 8, 0, false)
    };
    assert_eq!(out[0].stats, group(2));
    assert_eq!(out[2].stats, group(4));
    assert_eq!(out[1].stats, stats(3, 15, 0, false));
    assert_eq!(resistance_bits(&out[1]), (0x3fb9_59f5_1d0c_04b4, 15));
    assert_eq!(engine.ledger().total_rounds(), 67);
}

#[test]
fn lone_resistance_errors_keep_their_fields() {
    let error = |request_id, kind, faults_observed, attempts| ServiceError {
        request_id,
        graph: "g".into(),
        kind,
        faults_observed,
        attempts,
    };
    let over = |rounds| ServiceErrorKind::RoundBudgetExceeded { rounds, budget: 5 };
    let mut engine = engine_with_budget(5);
    let first = engine.submit(resistance(0, 11, 1e-8)).unwrap_err();
    assert_eq!(first, error(0, over(21), 0, 1));
    let second = engine.submit(resistance(0, 11, 1e-8)).unwrap_err();
    assert_eq!(second, error(1, over(15), 0, 1));

    // A corrupting node under the same budget: one corrupted word per
    // broadcast, 2 in the build and one per Chebyshev iteration.
    let mut engine = FlowEngine::with_config(
        FaultComm::new(
            Clique::new(N),
            FaultPlan::new(7).with(FaultRule::Corrupt(2)),
        ),
        EngineConfig {
            round_budget: Some(5),
            ..EngineConfig::default()
        },
    );
    register(&mut engine);
    let corrupted = engine.submit(resistance(0, 11, 1e-8)).unwrap_err();
    assert_eq!(corrupted, error(0, over(21), 2 + 15, 1));

    // A silent node under three attempts: one omission per attempt, and
    // backoff 4 then 8 in the retry phase.
    let mut engine = FlowEngine::with_config(
        FaultComm::new(Clique::new(N), FaultPlan::new(3).with(FaultRule::Silent(1))),
        EngineConfig {
            retry: RetryPolicy::retries(3, 4),
            ..EngineConfig::default()
        },
    );
    register(&mut engine);
    let silenced = engine.submit(resistance(0, 11, 1e-8)).unwrap_err();
    assert!(silenced.comm_rooted(), "{silenced}");
    assert_eq!((silenced.faults_observed, silenced.attempts), (3, 3));
    assert_eq!(engine.ledger().phase("service_retry").implemented, 12);
}
