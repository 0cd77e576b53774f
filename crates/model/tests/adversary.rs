//! Cross-substrate and stacking pins for the per-node rules of
//! [`FaultComm`]: the adversary perturbation stream is a pure function of
//! the plan and the call sequence, so runs over `Clique` and
//! `ThreadedComm` (at 1/2/8 workers) are bitwise identical, the wrapper
//! composes with `TracingComm` without changing round accounting, and
//! per-call and per-node rules of one plan share one event log.

use cc_model::{
    Clique, Communicator, FaultComm, FaultPlan, FaultRule, ModelError, ThreadedComm, TracingComm,
};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn slate() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("honest", FaultPlan::new(3)),
        ("silent", FaultPlan::new(3).with(FaultRule::Silent(1))),
        (
            "crash_recover",
            FaultPlan::new(3).with(FaultRule::CrashRecover {
                node: 2,
                from_round: 2,
                until_round: 5,
            }),
        ),
        ("corrupt", FaultPlan::new(3).with(FaultRule::Corrupt(0))),
    ]
}

/// A small deterministic workload exercising every screened primitive,
/// tolerating typed failures (it records them instead of stopping).
fn drive<C: Communicator>(comm: &mut FaultComm<C>) -> (Vec<Result<Vec<u64>, ModelError>>, u64) {
    let n = comm.n();
    let mut outcomes = Vec::new();
    for k in 0..6u64 {
        let vals: Vec<u64> = (0..n as u64).map(|i| i * 10 + k).collect();
        outcomes.push(comm.phase("bcast", |c| c.broadcast_all(&vals)));
        let rows: Vec<Vec<u64>> = (0..n as u64).map(|i| vec![i + k, i * 3]).collect();
        outcomes.push(
            comm.phase("words", |c| c.broadcast_all_words(&rows))
                .map(|r| r.concat()),
        );
        let mut out = vec![Vec::new(); n];
        out[(k as usize) % n].push(((k as usize + 1) % n, vec![k, k + 7]));
        outcomes.push(comm.phase("route", |c| c.route(out)).map(|inboxes| {
            inboxes
                .concat()
                .into_iter()
                .flat_map(|e| e.payload)
                .collect()
        }));
        outcomes.push(
            comm.phase("gather", |c| c.gather_to(0, &rows))
                .map(|r| r.concat()),
        );
        outcomes.push(comm.phase("sort", |c| c.sort(&rows)).map(|r| r.concat()));
        outcomes.push(
            comm.phase("allgather", |c| c.allgather(&rows))
                .map(|(words, _)| words),
        );
        outcomes.push(comm.phase("from", |c| c.broadcast_from(k as usize % n, &vec![k])));
    }
    (outcomes, comm.ledger().total_rounds())
}

#[test]
fn adversary_runs_bitwise_identical_over_clique_and_threaded() {
    for (label, plan) in slate() {
        let mut baseline = FaultComm::new(Clique::new(4), plan.clone());
        let base = drive(&mut baseline);
        let base_json = baseline.events_json();
        for workers in WORKER_COUNTS {
            let mut threaded = FaultComm::new(ThreadedComm::with_workers(4, workers), plan.clone());
            let got = drive(&mut threaded);
            assert_eq!(base, got, "{label}: diverged at {workers} workers");
            assert_eq!(
                base_json,
                threaded.events_json(),
                "{label}: events diverged at {workers} workers"
            );
            assert_eq!(
                baseline.ledger().phases(),
                threaded.ledger().phases(),
                "{label}: phase attribution diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn adversary_stacks_with_tracing_without_changing_rounds() {
    for (label, plan) in slate() {
        let mut plain = FaultComm::new(Clique::new(4), plan.clone());
        let base = drive(&mut plain);
        let mut traced = FaultComm::new(TracingComm::new(Clique::new(4)), plan);
        let got = drive(&mut traced);
        assert_eq!(base, got, "{label}: tracing changed behavior");
        assert_eq!(
            plain.events_json(),
            traced.events_json(),
            "{label}: tracing changed the adversary ledger"
        );
        // The trace is populated and deterministic JSON.
        assert!(cc_model::Decorator::inner(&traced)
            .trace_json()
            .contains("cc-model/trace-v1"));
    }
}

#[test]
fn adversary_stacks_with_fault_comm_and_faults_accumulate() {
    // One plan, a per-call and a per-node rule: injected faults and
    // adversary events both flow into faults_observed().
    // FailInPhase only: the plan injects in "doomed" and is honest
    // elsewhere (a failure rate would OR in seeded faults everywhere).
    let plan = FaultPlan::new(5)
        .with(FaultRule::FailInPhase("doomed".into()))
        .with(FaultRule::Silent(3));
    let mut comm = FaultComm::new(Clique::new(4), plan);
    // Injected fault from the phase rule: it fires before node screening.
    let err = comm
        .phase("doomed", |c| c.broadcast_all(&[0, 0, 0, 0]))
        .unwrap_err();
    assert!(matches!(
        err,
        ModelError::CongestionExceeded { capacity: 0, .. }
    ));
    // Adversary omission from the per-node rule.
    let err = comm
        .phase("healthy", |c| c.broadcast_all(&[0, 0, 0, 0]))
        .unwrap_err();
    assert!(matches!(err, ModelError::NodeSilenced { node: 3, .. }));
    assert_eq!((comm.injected_faults(), comm.omissions()), (1, 1));
    assert_eq!(comm.faults_observed(), 2, "plan fault + adversary omission");
    // Both land in the one event log; an injected fault names no node.
    let json = comm.events_json();
    assert!(
        json.contains("\"node\": null, \"strategy\": \"fail_in_phase\", \"action\": \"injected\"")
    );
    assert!(json.contains("\"node\": 3, \"strategy\": \"silent\", \"action\": \"omission\""));
}

#[test]
fn crash_recover_windows_open_and_close_identically_across_substrates() {
    // A crash window keyed on ledger rounds must open and close at the
    // same *calls* on every substrate, because round accounting is
    // bitwise identical. Drive enough traffic that the window closes.
    let plan = || {
        FaultPlan::new(1).with(FaultRule::CrashRecover {
            node: 1,
            from_round: 1,
            until_round: 3,
        })
    };
    // A detected omission charges nothing (no data moved), so a retrying
    // caller advances time explicitly — exactly what the service layer's
    // `RetryPolicy` backoff does — and the node comes back.
    fn pattern<C: Communicator>(mut comm: FaultComm<C>) -> Vec<bool> {
        (0..8)
            .map(|_| {
                let ok = comm.broadcast_all(&[5, 5, 5, 5]).is_ok();
                if !ok {
                    comm.phase("retry_backoff", |c| c.charge_implemented(1));
                }
                ok
            })
            .collect()
    }
    let base = pattern(FaultComm::new(Clique::new(4), plan()));
    assert!(base.iter().any(|ok| *ok) && base.iter().any(|ok| !ok));
    assert!(base.last().copied().unwrap(), "node 1 recovered");
    for workers in WORKER_COUNTS {
        let got = pattern(FaultComm::new(
            ThreadedComm::with_workers(4, workers),
            plan(),
        ));
        assert_eq!(base, got, "crash window diverged at {workers} workers");
    }
}
