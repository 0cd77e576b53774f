//! The fault-injection suite: every pipeline's checker, run under a
//! `FaultComm` armed with its phase-targeted plan from
//! [`cc_conform::driver::fault_plans`], must surface the injected fault
//! as a typed, comm-rooted error — never a panic, never a silently wrong
//! result. Also exercises the seeded-rate, payload-budget, and stacked /
//! tracing-composed plans.

use cc_conform::driver::{
    check_orientation, comm_rooted, fault_plans, run_target, CheckerResult, FaultTarget,
};
use cc_conform::{eulerian_corpus, FaultComm, FaultPlan, FaultRule};
use cc_model::{Clique, TracingComm};

/// Runs `target`'s checker under a `FaultComm` armed with `plan` over a
/// plain `Clique`; returns the checker outcome and the number of faults
/// the wrapper injected. A checker panic fails the test.
fn run(target: FaultTarget, plan: FaultPlan) -> (CheckerResult, u64) {
    let (result, comm) = run_target(target, plan, Clique::new);
    let result = result.unwrap_or_else(|_| panic!("{target:?}: checker panicked"));
    (result, comm.injected_faults())
}

#[test]
fn armed_plans_fail_with_comm_rooted_errors_and_count_injections() {
    let plans = fault_plans();
    assert_eq!(plans.len(), 10, "one plan per fault target");
    for (target, plan) in plans {
        let (result, injected) = run(target, plan);
        match result {
            Ok(_) => panic!("{target:?}: armed plan must surface a typed error, got Ok"),
            Err(e) => assert!(
                comm_rooted(e.as_ref()),
                "{target:?}: error not comm-rooted: {e}"
            ),
        }
        assert!(injected > 0, "{target:?}: no fault was injected");
    }
}

#[test]
fn seeded_random_faults_are_deterministic_per_seed() {
    let rate_plan = |seed| FaultPlan::new(seed).with(FaultRule::FailureRate(0.4));
    let (r1, i1) = run(FaultTarget::Sssp, rate_plan(42));
    let (r2, i2) = run(FaultTarget::Sssp, rate_plan(42));
    assert_eq!(r1.is_err(), r2.is_err(), "same seed, same outcome");
    assert_eq!(i1, i2, "same seed, same injection count");
    if let Err(e) = &r1 {
        assert!(comm_rooted(e.as_ref()), "rate fault not comm-rooted: {e}");
    }

    // A certain fault rate always errors, on every pipeline it reaches.
    let certain = FaultPlan::new(7).with(FaultRule::FailureRate(1.0));
    let (r, injected) = run(FaultTarget::Orientation, certain);
    assert!(r.is_err(), "failure_rate = 1 must fail the first primitive");
    assert!(injected > 0);
}

#[test]
#[should_panic(expected = "fault plan violated")]
fn oversized_payloads_panic_under_a_word_budget() {
    // Orientation routes multi-word messages; a zero-word budget is a
    // model violation and must panic at the send site (assertion, not a
    // typed error).
    let plan = FaultPlan::new(0).with(FaultRule::MaxMessageWords(0));
    let case = &eulerian_corpus(0)[0];
    let mut comm = FaultComm::new(Clique::new(case.graph.n()), plan);
    let _ = check_orientation(&mut comm, case);
}

#[test]
fn stacked_plans_compose_with_tracing() {
    // Benign inner wrapper, armed outer wrapper, tracing substrate: the
    // injected fault still surfaces as the pipeline's typed error and
    // the outer wrapper alone accounts for it.
    let armed = FaultPlan::new(11).with(FaultRule::FailInPhase("eulerian_orientation".into()));
    let case = &eulerian_corpus(0)[1];
    let n = case.graph.n();
    let mut comm = FaultComm::new(
        FaultComm::new(TracingComm::new(Clique::new(n)), FaultPlan::default()),
        armed,
    );
    let err = check_orientation(&mut comm, case).expect_err("armed outer plan must fail");
    assert!(comm_rooted(&err), "stacked fault not comm-rooted: {err}");
    assert!(comm.injected_faults() > 0);
    assert_eq!(
        cc_model::Decorator::inner(&comm).injected_faults(),
        0,
        "benign layer stays quiet"
    );
}
