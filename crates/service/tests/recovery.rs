//! Retry/backoff recovery of the service layer under node-level
//! adversaries.
//!
//! The pinned scenario per pipeline: a crash–recover adversary kills a
//! node for the opening ledger rounds of the request, attempt 1 fails
//! with a typed comm-rooted error, the engine's [`RetryPolicy`] charges
//! backoff rounds (pushing the ledger past the crash window), degrades
//! to a fresh per-graph build, and attempt 2 returns a result
//! **bitwise identical** to a fault-free run — over a plain `Clique`
//! and over `ThreadedComm` at 1, 2, and 8 workers.

use cc_graph::generators;
use cc_model::{
    BroadcastComm, Clique, Communicator, FaultComm, FaultPlan, FaultRule, ThreadedComm,
};
use cc_service::{
    EngineConfig, FlowEngine, GraphSpec, Request, Response, RetryPolicy, ServiceErrorKind,
    ServiceOutcome,
};
use proptest::prelude::*;

const N: usize = 14;
/// Crash window: node 1 is dead for the first `CRASH_UNTIL` ledger
/// rounds of the run — long enough that every pipeline's opening
/// communication hits it.
const CRASH_UNTIL: u64 = 50;
/// Backoff charged before the retry; `≥ CRASH_UNTIL` guarantees the
/// retried attempt starts after the node recovered.
const BACKOFF: u64 = 200;

fn register_graphs<C: Communicator>(engine: &mut FlowEngine<C>) {
    engine.register(
        "lap",
        GraphSpec::Undirected(generators::random_connected(N, 34, 4, 3)),
    );
    engine.register(
        "net",
        GraphSpec::Directed(generators::random_flow_network(10, 18, 4, 2)),
    );
}

fn retrying_config() -> EngineConfig {
    EngineConfig {
        retry: RetryPolicy::retries(3, BACKOFF),
        ..EngineConfig::default()
    }
}

fn crash_plan() -> FaultPlan {
    FaultPlan::new(17).with(FaultRule::CrashRecover {
        node: 1,
        from_round: 0,
        until_round: CRASH_UNTIL,
    })
}

/// One request per fallible pipeline (APSP is excluded by design: it is
/// charge-only — no payload ever moves, so no adversary can fail it).
fn pipeline_requests() -> Vec<(&'static str, Request)> {
    let mut b = vec![0.0; N];
    b[0] = 1.0;
    b[N - 1] = -1.0;
    let mut sigma = vec![0i64; 10];
    sigma[0] = 1;
    sigma[9] = -1;
    vec![
        (
            "laplacian_solve",
            Request::LaplacianSolve {
                graph: "lap".into(),
                b,
                eps: 1e-8,
            },
        ),
        (
            "effective_resistance",
            Request::EffectiveResistance {
                graph: "lap".into(),
                s: 1,
                t: 8,
                eps: 1e-8,
            },
        ),
        (
            "maxflow",
            Request::MaxFlow {
                graph: "net".into(),
                s: 0,
                t: 9,
            },
        ),
        (
            "mincostflow",
            Request::MinCostFlow {
                graph: "net".into(),
                demands: sigma,
            },
        ),
        (
            "sssp",
            Request::Sssp {
                graph: "net".into(),
                source: 0,
            },
        ),
    ]
}

/// Strict bitwise equality of two responses (floats compared by bits).
fn assert_bits_eq(a: &Response, b: &Response, ctx: &str) {
    match (a, b) {
        (
            Response::Potentials { x, iterations },
            Response::Potentials {
                x: x2,
                iterations: i2,
            },
        ) => {
            assert_eq!(iterations, i2, "{ctx}: iterations");
            assert_eq!(x.len(), x2.len(), "{ctx}: length");
            for (v, (l, r)) in x.iter().zip(x2).enumerate() {
                assert_eq!(l.to_bits(), r.to_bits(), "{ctx}: x[{v}]");
            }
        }
        (
            Response::Resistance { value, iterations },
            Response::Resistance {
                value: v2,
                iterations: i2,
            },
        ) => {
            assert_eq!(iterations, i2, "{ctx}: iterations");
            assert_eq!(value.to_bits(), v2.to_bits(), "{ctx}: resistance");
        }
        (l, r) => assert_eq!(l, r, "{ctx}: exact payloads"),
    }
}

/// Runs `request` on a fresh retrying engine over an adversarial
/// transport built on `substrate`.
fn run_adversarial<C: Communicator>(substrate: C, request: Request) -> ServiceOutcome {
    let mut engine =
        FlowEngine::with_config(FaultComm::new(substrate, crash_plan()), retrying_config());
    register_graphs(&mut engine);
    engine.submit(request).expect("retry must recover")
}

#[test]
fn every_pipeline_recovers_to_the_fault_free_result_bitwise() {
    for (label, request) in pipeline_requests() {
        // Fault-free baseline on a plain clique, no retry needed.
        let mut baseline = FlowEngine::new(Clique::new(N));
        register_graphs(&mut baseline);
        let want = baseline.submit(request.clone()).unwrap();
        assert_eq!(want.stats.attempts, 1);
        assert_eq!(want.stats.degraded, None);

        let got = run_adversarial(Clique::new(N), request.clone());
        assert_eq!(
            got.stats.attempts, 2,
            "{label}: the crash window must fail attempt 1 exactly once"
        );
        let degraded = got.stats.degraded.expect("retried request is degraded");
        assert_eq!(degraded.attempts, 2);
        assert!(
            degraded.faults_observed >= 1,
            "{label}: the failed attempt observed the omission"
        );
        assert_bits_eq(&got.response, &want.response, label);

        // Same scenario over the concurrent substrate at 1/2/8 workers.
        for workers in [1usize, 2, 8] {
            let threaded = run_adversarial(ThreadedComm::with_workers(N, workers), request.clone());
            assert_eq!(
                threaded.stats.attempts, 2,
                "{label}@{workers}w: attempt pattern diverged"
            );
            assert_bits_eq(
                &threaded.response,
                &want.response,
                &format!("{label}@{workers}w"),
            );
        }
    }
}

/// The same crash–recover scenario over the measured Broadcast
/// Congested Clique: the retry leg of the service layer must recover to
/// the fault-free broadcast result bitwise, on `Clique` and on
/// `ThreadedComm` at every worker count. (Broadcast costs move the
/// ledger faster, but the opening communication still lands inside the
/// crash window and `BACKOFF ≥ CRASH_UNTIL` still clears it.)
#[test]
fn broadcast_retry_recovers_to_the_fault_free_result_bitwise() {
    for (label, request) in pipeline_requests() {
        let mut baseline = FlowEngine::new(BroadcastComm::measured(Clique::new(N)));
        register_graphs(&mut baseline);
        let want = baseline.submit(request.clone()).unwrap();
        assert_eq!(want.stats.attempts, 1);

        let got = run_adversarial(BroadcastComm::measured(Clique::new(N)), request.clone());
        assert_eq!(
            got.stats.attempts, 2,
            "{label}/broadcast: the crash window must fail attempt 1 exactly once"
        );
        let degraded = got.stats.degraded.expect("retried request is degraded");
        assert!(
            degraded.faults_observed >= 1,
            "{label}/broadcast: the failed attempt observed the omission"
        );
        assert_bits_eq(&got.response, &want.response, &format!("{label}/broadcast"));

        for workers in [1usize, 2, 8] {
            let threaded = run_adversarial(
                BroadcastComm::measured(ThreadedComm::with_workers(N, workers)),
                request.clone(),
            );
            assert_eq!(
                threaded.stats.attempts, 2,
                "{label}/broadcast@{workers}w: attempt pattern diverged"
            );
            assert_bits_eq(
                &threaded.response,
                &want.response,
                &format!("{label}/broadcast@{workers}w"),
            );
        }
    }
}

#[test]
fn retry_rounds_land_in_the_dedicated_ledger_phase() {
    let mut engine = FlowEngine::with_config(
        FaultComm::new(Clique::new(N), crash_plan()),
        retrying_config(),
    );
    register_graphs(&mut engine);
    let (_, request) = pipeline_requests().remove(0);
    let out = engine.submit(request).unwrap();
    assert_eq!(out.stats.attempts, 2);
    let phase = engine.ledger().phase("service_retry");
    assert_eq!(
        phase.implemented, BACKOFF,
        "one retry charges exactly the first backoff step"
    );
}

#[test]
fn permanent_silence_exhausts_attempts_with_fault_accounting() {
    let plan = FaultPlan::new(3).with(FaultRule::Silent(1));
    let mut engine = FlowEngine::with_config(
        FaultComm::new(Clique::new(N), plan),
        EngineConfig {
            retry: RetryPolicy::retries(3, 4),
            ..EngineConfig::default()
        },
    );
    register_graphs(&mut engine);
    let (_, request) = pipeline_requests().remove(0);
    let e = engine.submit(request).unwrap_err();
    assert!(e.comm_rooted(), "silence is a comm-rooted failure: {e}");
    assert_eq!(e.attempts, 3, "all attempts spent");
    assert_eq!(
        e.faults_observed, 3,
        "one omission per attempt accumulates: {e}"
    );
    // Exponential backoff: 4 before retry 1, 8 before retry 2.
    assert_eq!(engine.ledger().phase("service_retry").implemented, 12);
}

#[test]
fn round_budget_violations_are_typed_and_never_retried() {
    let mut engine = FlowEngine::with_config(
        Clique::new(N),
        EngineConfig {
            retry: RetryPolicy::retries(3, BACKOFF),
            round_budget: Some(5),
            ..EngineConfig::default()
        },
    );
    register_graphs(&mut engine);
    let (_, request) = pipeline_requests().remove(0);
    let e = engine.submit(request).unwrap_err();
    let ServiceErrorKind::RoundBudgetExceeded { rounds, budget } = e.kind else {
        panic!("expected a budget violation, got {e}");
    };
    assert!(rounds > budget && budget == 5);
    assert_eq!(e.attempts, 1, "budget violations are not transient");
    assert_eq!(engine.ledger().phase("service_retry").implemented, 0);
}

#[test]
fn batched_budget_violations_carry_the_observed_faults() {
    // A corrupting node under a budget every solve exceeds: the lone
    // solve and each member of a width-2 group report the transport
    // faults their (shared) execution observed, not 0.
    let run = |requests: Vec<Request>| {
        let mut engine = FlowEngine::with_config(
            FaultComm::new(
                Clique::new(12),
                FaultPlan::new(7).with(FaultRule::Corrupt(2)),
            ),
            EngineConfig {
                round_budget: Some(5),
                ..EngineConfig::default()
            },
        );
        engine.register(
            "g",
            GraphSpec::Undirected(generators::random_connected(12, 30, 4, 3)),
        );
        engine.submit_batch(requests)
    };
    let solve = |s: usize, t: usize| {
        let mut b = vec![0.0; 12];
        b[s] = 1.0;
        b[t] = -1.0;
        Request::LaplacianSolve {
            graph: "g".into(),
            b,
            eps: 1e-8,
        }
    };
    let faults = |out: &Result<ServiceOutcome, cc_service::ServiceError>| {
        let e = out.as_ref().unwrap_err();
        assert!(
            matches!(
                e.kind,
                ServiceErrorKind::RoundBudgetExceeded { budget: 5, .. }
            ),
            "{e}"
        );
        e.faults_observed
    };
    // One corrupted word per broadcast: 2 in the build, then one per
    // Chebyshev iteration (15) and column.
    let lone = run(vec![solve(0, 11)]);
    assert_eq!(faults(&lone[0]), 2 + 15);
    let group = run(vec![solve(0, 11), solve(3, 7)]);
    assert_eq!(faults(&group[0]), 2 + 2 * 15);
    assert_eq!(faults(&group[1]), 2 + 2 * 15);
}

#[test]
fn default_config_keeps_retry_disabled() {
    let config = EngineConfig::default();
    assert_eq!(config.retry, RetryPolicy::default());
    assert_eq!(config.retry.max_attempts, 1);
    assert_eq!(config.round_budget, None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite pin: any transient (benign-window) adversary failure,
    /// retried under a recovering `RetryPolicy`, returns a result
    /// bitwise identical to the fault-free run, with the retry rounds
    /// charged to the dedicated `service_retry` phase.
    #[test]
    fn transient_adversary_retry_is_bitwise_clean(
        until in 5u64..CRASH_UNTIL,
        extra_backoff in 0u64..64,
        seed in 0u64..1_000,
        source in 0usize..N,
    ) {
        let backoff = CRASH_UNTIL + extra_backoff;
        let mut b = vec![0.0; N];
        b[source] = 1.0;
        b[(source + 7) % N] = -1.0;
        let request = Request::LaplacianSolve {
            graph: "lap".into(),
            b,
            eps: 1e-7,
        };

        let mut baseline = FlowEngine::new(Clique::new(N));
        register_graphs(&mut baseline);
        let want = baseline.submit(request.clone()).unwrap();

        let plan = FaultPlan::new(seed).with(FaultRule::CrashRecover {
            node: 1,
            from_round: 0,
            until_round: until,
        });
        let mut engine = FlowEngine::with_config(
            FaultComm::new(Clique::new(N), plan),
            EngineConfig {
                retry: RetryPolicy::retries(4, backoff),
                ..EngineConfig::default()
            },
        );
        register_graphs(&mut engine);
        let got = engine.submit(request).expect("retry must recover");

        prop_assert!(got.stats.attempts >= 2, "window {until} never fired");
        assert_bits_eq(&got.response, &want.response, "proptest case");
        let retry_phase = engine.ledger().phase("service_retry");
        prop_assert!(
            retry_phase.implemented >= backoff,
            "backoff must land in the dedicated phase"
        );
    }
}
