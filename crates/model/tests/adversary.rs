//! Cross-substrate and stacking pins for [`AdversaryComm`]: the adversary
//! perturbation stream is a pure function of the schedule and the call
//! sequence, so runs over `Clique` and `ThreadedComm` (at 1/2/8 workers)
//! are bitwise identical, and the wrapper composes with `TracingComm` and
//! `FaultComm` without changing round accounting.

use cc_model::{
    AdversaryComm, AdversarySchedule, AdversaryStrategy, Clique, Communicator, FaultComm,
    FaultPlan, ModelError, ThreadedComm, TracingComm,
};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn slate() -> Vec<(&'static str, AdversarySchedule)> {
    vec![
        ("honest", AdversarySchedule::new(3)),
        (
            "silent",
            AdversarySchedule::new(3).with(1, AdversaryStrategy::Silent),
        ),
        (
            "crash_recover",
            AdversarySchedule::new(3).with(
                2,
                AdversaryStrategy::CrashRecover {
                    from_round: 2,
                    until_round: 5,
                },
            ),
        ),
        (
            "corrupt",
            AdversarySchedule::new(3).with(0, AdversaryStrategy::Corrupt),
        ),
    ]
}

/// A small deterministic workload exercising every screened primitive,
/// tolerating typed failures (it records them instead of stopping).
fn drive<C: Communicator>(comm: &mut AdversaryComm<C>) -> (Vec<Result<Vec<u64>, ModelError>>, u64) {
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
    for (label, schedule) in slate() {
        let mut baseline = AdversaryComm::new(Clique::new(4), schedule.clone());
        let base = drive(&mut baseline);
        let base_json = baseline.events_json();
        for workers in WORKER_COUNTS {
            let mut threaded =
                AdversaryComm::new(ThreadedComm::with_workers(4, workers), schedule.clone());
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
    for (label, schedule) in slate() {
        let mut plain = AdversaryComm::new(Clique::new(4), schedule.clone());
        let base = drive(&mut plain);
        let mut traced = AdversaryComm::new(TracingComm::new(Clique::new(4)), schedule);
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
    // FaultComm outside, AdversaryComm inside: injected faults and
    // adversary events both flow into faults_observed().
    let schedule = AdversarySchedule::new(9).with(3, AdversaryStrategy::Silent);
    // fail_phases only: the plan injects in "doomed" and is honest
    // elsewhere (failure_rate would OR in seeded faults everywhere).
    let plan = FaultPlan {
        seed: 5,
        fail_phases: vec!["doomed".into()],
        ..FaultPlan::default()
    };
    let mut comm = FaultComm::new(AdversaryComm::new(Clique::new(4), schedule), plan);
    // Injected fault from the plan's phase filter.
    let err = comm
        .phase("doomed", |c| c.broadcast_all(&[0, 0, 0, 0]))
        .unwrap_err();
    assert!(matches!(
        err,
        ModelError::CongestionExceeded { capacity: 0, .. }
    ));
    // Adversary omission from the inner wrapper.
    let err = comm
        .phase("healthy", |c| c.broadcast_all(&[0, 0, 0, 0]))
        .unwrap_err();
    assert!(matches!(err, ModelError::NodeSilenced { node: 3, .. }));
    assert_eq!(comm.injected_faults(), 1);
    assert_eq!(comm.faults_observed(), 2, "plan fault + adversary omission");
}

#[test]
fn crash_recover_windows_open_and_close_identically_across_substrates() {
    // A crash window keyed on ledger rounds must open and close at the
    // same *calls* on every substrate, because round accounting is
    // bitwise identical. Drive enough traffic that the window closes.
    let schedule = || {
        AdversarySchedule::new(1).with(
            1,
            AdversaryStrategy::CrashRecover {
                from_round: 1,
                until_round: 3,
            },
        )
    };
    // A detected omission charges nothing (no data moved), so a retrying
    // caller advances time explicitly — exactly what the service layer's
    // `RetryPolicy` backoff does — and the node comes back.
    fn pattern<C: Communicator>(mut comm: AdversaryComm<C>) -> Vec<bool> {
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
    let base = pattern(AdversaryComm::new(Clique::new(4), schedule()));
    assert!(base.iter().any(|ok| *ok) && base.iter().any(|ok| !ok));
    assert!(base.last().copied().unwrap(), "node 1 recovered");
    for workers in WORKER_COUNTS {
        let got = pattern(AdversaryComm::new(
            ThreadedComm::with_workers(4, workers),
            schedule(),
        ));
        assert_eq!(base, got, "crash window diverged at {workers} workers");
    }
}
