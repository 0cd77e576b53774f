//! Per-rule `FaultPlan` pins: each rule of the plan, exercised in
//! isolation against a plain `Clique`, behaves exactly as documented and
//! is deterministic per seed; plans mixing per-call and per-node rules
//! reproduce the pinned fault streams; and plans whose rules could never
//! fire as written are rejected at construction.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cc_model::util::Fnv1a;
use cc_model::{
    Clique, Communicator, Envelope, FaultComm, FaultPlan, FaultRule, ModelError, ThreadedComm,
};

fn one_word_outboxes(n: usize) -> Vec<Vec<(usize, Vec<u64>)>> {
    // Node 0 sends one word to node 1; everyone else is silent.
    let mut out = vec![Vec::new(); n];
    out[0].push((1, vec![7]));
    out
}

#[test]
fn default_plan_injects_nothing_and_preserves_rounds() {
    let mut plain = Clique::new(4);
    let echo_plain = plain.broadcast_all(&[1, 2, 3, 4]);
    let plain_rounds = plain.ledger().total_rounds();

    let mut faulty = FaultComm::new(Clique::new(4), FaultPlan::default());
    let echo_faulty = faulty.broadcast_all(&[1, 2, 3, 4]);
    assert_eq!(echo_plain, echo_faulty);
    assert_eq!(faulty.ledger().total_rounds(), plain_rounds);
    assert!(faulty.broadcast_all(&[0, 0, 0, 0]).is_ok());
    assert_eq!(
        faulty.route(one_word_outboxes(4)),
        plain.route(one_word_outboxes(4))
    );
    // Same route rounds on both (faulty ran one extra broadcast above).
    assert_eq!(
        faulty.ledger().total_rounds(),
        plain.ledger().total_rounds() + 1
    );
    assert_eq!(faulty.injected_faults(), 0);
}

#[test]
fn fail_phases_matches_path_fragments_only() {
    let plan = FaultPlan::new(0).with(FaultRule::FailInPhase("doomed".into()));
    let mut comm = FaultComm::new(Clique::new(4), plan);

    // Outside any matching phase: calls succeed.
    let ok = comm.phase("healthy", |c| c.broadcast_all(&[0, 0, 0, 0]));
    assert!(ok.is_ok());
    assert_eq!(comm.injected_faults(), 0);

    // Inside a phase whose path contains the fragment: injected fault,
    // recognizable by its zero capacity.
    let injected = ModelError::CongestionExceeded {
        node: 0,
        words: 0,
        capacity: 0,
        sending: true,
    };
    let err = comm
        .phase("doomed_phase", |c| c.broadcast_all(&[0, 0, 0, 0]))
        .expect_err("fragment must match");
    assert_eq!(err, injected);
    assert_eq!(comm.injected_faults(), 1);

    // Nested sub-phases inherit the match through the phase path.
    let err = comm
        .phase("doomed_phase", |c| {
            c.phase("inner", |c| c.route(one_word_outboxes(4)))
        })
        .expect_err("nested phase path still contains the fragment");
    assert_eq!(err, injected);
    let err = comm.phase("outer", |c| {
        c.phase("doomed", |c| c.sort(&[vec![1], vec![], vec![], vec![]]))
    });
    assert_eq!(err, Err(injected));
    assert_eq!(comm.injected_faults(), 3);
}

#[test]
fn failure_rate_stream_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let plan = FaultPlan::new(seed).with(FaultRule::FailureRate(0.5));
        let mut comm = FaultComm::new(Clique::new(4), plan);
        let outcomes: Vec<bool> = (0..32)
            .map(|_| comm.broadcast_all(&[0, 0, 0, 0]).is_ok())
            .collect();
        (outcomes, comm.injected_faults())
    };
    let (a1, i1) = run(42);
    let (a2, i2) = run(42);
    assert_eq!(a1, a2, "same seed, same fault pattern");
    assert_eq!(i1, i2);
    assert!(i1 > 0, "rate 0.5 over 32 draws injects something");
    assert!(a1.iter().any(|ok| *ok), "rate 0.5 is not rate 1.0");

    let (b, _) = run(43);
    assert_ne!(a1, b, "different seeds give different streams");
    assert!(
        (4..=28).contains(&(32 - i1)),
        "rate 0.5 wildly off: {i1}/32"
    );
}

#[test]
fn failure_rate_extremes_are_never_and_always() {
    let mut never = FaultComm::new(
        Clique::new(4),
        FaultPlan::new(0).with(FaultRule::FailureRate(0.0)),
    );
    for _ in 0..16 {
        assert!(never.broadcast_all(&[0, 0, 0, 0]).is_ok());
    }
    assert_eq!(never.injected_faults(), 0);

    let mut always = FaultComm::new(
        Clique::new(4),
        FaultPlan::new(0).with(FaultRule::FailureRate(1.0)),
    );
    for _ in 0..16 {
        assert!(always.broadcast_all(&[0, 0, 0, 0]).is_err());
    }
    assert_eq!(always.injected_faults(), 16);
}

#[test]
fn routing_capacity_factor_tightens_the_per_call_budget() {
    let plan = FaultPlan::new(0).with(FaultRule::RoutingCapacity(1));
    let mut comm = FaultComm::new(Clique::new(4), plan);

    // Within the tightened 1·n = 4-word budget: fine.
    assert!(comm.route(one_word_outboxes(4)).is_ok());

    // A 9-word burst into one node exceeds it — a *genuine* congestion
    // error (non-zero words/capacity), not an injected one.
    let mut heavy = vec![Vec::new(); 4];
    heavy[0].push((1usize, (0..9u64).collect::<Vec<u64>>()));
    let rounds = comm.ledger().total_rounds();
    let err = comm
        .route(heavy)
        .expect_err("burst exceeds tightened budget");
    let genuine = ModelError::CongestionExceeded {
        node: 0,
        words: 9,
        capacity: 4,
        sending: true,
    };
    assert_eq!(err, genuine);
    assert_eq!(comm.injected_faults(), 0, "budget errors are not injected");
    assert_eq!(
        comm.ledger().total_rounds(),
        rounds,
        "the rejected call is free"
    );

    // The plain substrate batches the same burst without complaint.
    let mut plain = Clique::new(4);
    let mut heavy = vec![Vec::new(); 4];
    heavy[0].push((1usize, (0..9u64).collect::<Vec<u64>>()));
    assert!(plain.route(heavy).is_ok());
}

#[test]
fn max_message_words_allows_payloads_within_budget() {
    let plan = FaultPlan::new(0).with(FaultRule::MaxMessageWords(2));
    let mut comm = FaultComm::new(Clique::new(4), plan);
    let mut out = vec![Vec::new(); 4];
    out[0].push((1usize, vec![1, 2]));
    assert!(
        comm.route(out).is_ok(),
        "2-word message within 2-word budget"
    );
}

#[test]
fn seeded_fault_stream_is_identical_across_threaded_worker_counts() {
    // The seeded fault stream is a pure function of the plan and the call
    // sequence — never of the substrate or its worker count — so the same
    // plan over `ThreadedComm` at any parallelism injects the exact same
    // faults (and charges the same rounds) as over a plain `Clique`.
    let plan = || {
        FaultPlan::new(42)
            .with(FaultRule::FailureRate(0.5))
            .with(FaultRule::FailInPhase("doomed".into()))
    };
    fn run<C: Communicator>(inner: C, plan: FaultPlan) -> (Vec<bool>, u64, u64) {
        let mut comm = FaultComm::new(inner, plan);
        let mut outcomes = Vec::new();
        for k in 0..24u64 {
            outcomes.push(comm.broadcast_all(&[k, k, k, k]).is_ok());
            let ok = comm.phase("doomed_window", |c| c.route(one_word_outboxes(4)));
            outcomes.push(ok.is_ok());
        }
        (
            outcomes,
            comm.injected_faults(),
            comm.ledger().total_rounds(),
        )
    }

    let baseline = run(Clique::new(4), plan());
    assert!(baseline.1 > 0, "the slate must inject something");
    for workers in [1usize, 2, 8] {
        let threaded = run(ThreadedComm::with_workers(4, workers), plan());
        assert_eq!(
            baseline, threaded,
            "fault stream diverged at {workers} workers"
        );
    }
}

#[test]
#[should_panic(expected = "fault plan violated")]
fn max_message_words_panics_on_oversized_payloads() {
    let plan = FaultPlan::new(0).with(FaultRule::MaxMessageWords(2));
    let mut comm = FaultComm::new(Clique::new(4), plan);
    let mut out = vec![Vec::new(); 4];
    out[0].push((1usize, vec![1, 2, 3]));
    let _ = comm.route(out);
}

/// What a per-call `FaultComm` stacked over a per-node adversary
/// decorator (each layer with its own stream, both seeded alike)
/// produced on [`drive_every_primitive`]: the per-call pattern (`o` =
/// Ok, `x` = Err), `faults_observed`, the FNV-1a hash of every delivered
/// payload word, and the ledger's total rounds. First stack: phase
/// `doomed` + silent node 1, seed 5.
const PHASE_AND_SILENT: (&str, u64, u64, u64) = (
    "xxxooooxxxxxxxxxxxxxxxxooooxxxxxxxxxxxxxxxxooooxxxxxxxxxxxxxxxxooooxxxxxxxxxxxxx",
    64,
    11_121_280_721_772_785_677,
    36,
);
/// Second stack: rate 0.4 + corrupting node 2, seed 29 on both layers.
const RATE_AND_CORRUPT: (&str, u64, u64, u64) = (
    "ooxoxooxooxxxxoxxxxooooxooxxoxxoxxxxooooxooxooxxoxooooooxoxoooxxoxxxxoxoxoxxxooo",
    69,
    7_487_595_356_263_420_613,
    102,
);

/// Every primitive, eight times over, odd passes inside a `doomed`
/// phase, on a 4-clique under `plan`.
fn drive_every_primitive(plan: FaultPlan) -> (FaultComm<Clique>, String, u64, u64) {
    let mut comm = FaultComm::new(Clique::new(4), plan);
    let mut pattern = String::new();
    let mut hash = Fnv1a::default();
    let mut note = |r: Result<Vec<u64>, ModelError>| match r {
        Ok(words) => {
            pattern.push('o');
            words.into_iter().for_each(|w| hash.word(w));
        }
        Err(_) => pattern.push('x'),
    };
    let flat = |inboxes: Vec<Vec<Envelope>>| inboxes.concat().into_iter().flat_map(|e| e.payload);
    for k in 0..8u64 {
        let vals: Vec<u64> = (0..4).map(|i| i * 10 + k).collect();
        let rows: Vec<Vec<u64>> = (0..4).map(|i| vec![i + k, i * 3, k]).collect();
        let src = k as usize % 4;
        let mut out = vec![Vec::new(); 4];
        out[src].push(((src + 1) % 4, vec![k, k + 7, k + 9]));
        comm.push_phase(if k % 2 == 1 { "doomed" } else { "calm" });
        note(comm.broadcast_all(&vals));
        let mut buf = Vec::new();
        note(comm.broadcast_all_into(&vals, &mut buf).map(|()| buf));
        note(comm.broadcast_all_words(&rows).map(|r| r.concat()));
        note(comm.route(out.clone()).map(|i| flat(i).collect()));
        note(comm.exchange(out.clone()).map(|i| flat(i).collect()));
        note(comm.route_strict(out).map(|i| flat(i).collect()));
        note(comm.broadcast_from(src, &vec![k, k + 1]));
        note(comm.allgather(&rows).map(|(w, _)| w));
        note(comm.sort(&rows).map(|r| r.concat()));
        note(comm.gather_to(0, &rows).map(|r| r.concat()));
        comm.pop_phase();
    }
    let rounds = comm.ledger().total_rounds();
    (comm, pattern, hash.finish(), rounds)
}

/// One plan holding both layers' rules reproduces the two-layer pins bit
/// for bit: per-call checks run before node screening, and the rate and
/// corruption streams stay independent.
#[test]
fn mixed_plans_reproduce_the_pinned_two_layer_streams() {
    for (plan, want, split) in [
        (
            FaultPlan::new(5)
                .with(FaultRule::FailInPhase("doomed".into()))
                .with(FaultRule::Silent(1)),
            PHASE_AND_SILENT,
            (40, 24, 0),
        ),
        (
            FaultPlan::new(29)
                .with(FaultRule::FailureRate(0.4))
                .with(FaultRule::Corrupt(2)),
            RATE_AND_CORRUPT,
            (38, 0, 31),
        ),
    ] {
        let (comm, pattern, hash, rounds) = drive_every_primitive(plan);
        let faults = comm.faults_observed();
        assert_eq!((pattern.as_str(), faults, hash, rounds), want);
        let got = (comm.injected_faults(), comm.omissions(), comm.corruptions());
        assert_eq!(got, split);
    }
}

#[test]
fn rules_that_could_never_fire_as_written_are_rejected() {
    let crash = |from_round, until_round| FaultRule::CrashRecover {
        node: 1,
        from_round,
        until_round,
    };
    let cases = [
        (vec![FaultRule::RoutingCapacity(0)], "indistinguishable"),
        (vec![FaultRule::FailureRate(f64::NAN)], "rate not in [0, 1]"),
        (vec![FaultRule::FailureRate(1.5)], "rate not in [0, 1]"),
        (vec![FaultRule::Silent(4)], "no such node"),
        (vec![crash(3, 3)], "never opens"),
        (vec![FaultRule::Corrupt(1), crash(0, 2)], "earlier rule"),
        (
            vec![FaultRule::FailureRate(0.1), FaultRule::FailureRate(0.2)],
            "earlier rule",
        ),
    ];
    for (rules, why) in cases {
        let plan = FaultPlan { seed: 0, rules };
        let panic = catch_unwind(AssertUnwindSafe(|| {
            FaultComm::new(Clique::new(4), plan.clone());
        }))
        .expect_err(&format!("{plan:?} must be rejected"));
        let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains(why), "{plan:?}: {message:?} lacks {why:?}");
    }
    // The boundaries themselves are valid, and phase fragments may repeat.
    let edge = FaultPlan::new(0)
        .with(FaultRule::FailureRate(1.0))
        .with(FaultRule::RoutingCapacity(1))
        .with(FaultRule::FailInPhase("a".into()))
        .with(FaultRule::FailInPhase("b".into()))
        .with(FaultRule::Silent(3))
        .with(crash(0, 1));
    FaultComm::new(Clique::new(4), edge);
}
