//! The fault-injection suite: every pipeline's checker, run under a
//! `FaultComm` armed with its phase-targeted plan from
//! [`cc_conform::driver::fault_plans`], must surface the injected fault
//! as a typed, comm-rooted error — never a panic, never a silently wrong
//! result. Also exercises the seeded-rate, payload-budget, and stacked /
//! tracing-composed plans.

use std::error::Error;

use cc_conform::driver::{
    check_maxflow_ff, check_maxflow_ipm, check_maxflow_trivial, check_mcf, check_orientation,
    check_resistance, check_rounding, check_solver, check_sparsifier, check_sssp, comm_rooted,
    fault_plans, FaultTarget, Tolerances,
};
use cc_conform::{
    arc_corpus, demand_corpus, eulerian_corpus, flow_corpus, undirected_corpus, FaultComm,
    FaultPlan,
};
use cc_model::{Clique, TracingComm};

/// Runs `target`'s checker on its first corpus instance under a
/// `FaultComm` armed with `plan`; returns the checker outcome (erased)
/// and the number of faults the wrapper injected.
fn run_target(target: FaultTarget, plan: FaultPlan) -> (Result<u64, Box<dyn Error>>, u64) {
    let tol = Tolerances::default();
    match target {
        FaultTarget::Solver => {
            let case = &undirected_corpus(0)[0];
            let mut comm = FaultComm::new(Clique::new(case.graph.n()), plan);
            let r = check_solver(&mut comm, case, 1e-6, &tol).map_err(|e| Box::new(e) as _);
            (r, comm.injected_faults())
        }
        FaultTarget::Resistance => {
            let case = &undirected_corpus(0)[0];
            let mut comm = FaultComm::new(Clique::new(case.graph.n()), plan);
            let r = check_resistance(&mut comm, case, &tol).map_err(|e| Box::new(e) as _);
            (r, comm.injected_faults())
        }
        FaultTarget::Sparsifier => {
            let case = &undirected_corpus(0)[2];
            let mut comm = FaultComm::new(Clique::new(case.graph.n()), plan);
            let r = check_sparsifier(&mut comm, case, &tol).map_err(|e| Box::new(e) as _);
            (r, comm.injected_faults())
        }
        FaultTarget::Orientation => {
            let case = &eulerian_corpus(0)[0];
            let mut comm = FaultComm::new(Clique::new(case.graph.n()), plan);
            let r = check_orientation(&mut comm, case).map_err(|e| Box::new(e) as _);
            (r, comm.injected_faults())
        }
        FaultTarget::Rounding => {
            let case = &flow_corpus(0)[0];
            let mut comm = FaultComm::new(Clique::new(case.graph.n()), plan);
            let r = check_rounding(&mut comm, case).map_err(|e| Box::new(e) as _);
            (r, comm.injected_faults())
        }
        FaultTarget::MaxFlow => {
            let case = &flow_corpus(0)[0];
            let mut comm = FaultComm::new(Clique::new(case.graph.n()), plan);
            let r = check_maxflow_ipm(&mut comm, case).map_err(|e| Box::new(e) as _);
            (r, comm.injected_faults())
        }
        FaultTarget::FordFulkerson => {
            let case = &flow_corpus(0)[0];
            let mut comm = FaultComm::new(Clique::new(case.graph.n()), plan);
            let r = check_maxflow_ff(&mut comm, case).map_err(|e| Box::new(e) as _);
            (r, comm.injected_faults())
        }
        FaultTarget::TrivialFlow => {
            let case = &flow_corpus(0)[0];
            let mut comm = FaultComm::new(Clique::new(case.graph.n()), plan);
            let r = check_maxflow_trivial(&mut comm, case).map_err(|e| Box::new(e) as _);
            (r, comm.injected_faults())
        }
        FaultTarget::Mcf => {
            let case = &demand_corpus(0)[0];
            let mut comm = FaultComm::new(Clique::new(case.graph.n() + 2), plan);
            let r = check_mcf(&mut comm, case).map_err(|e| Box::new(e) as _);
            (r, comm.injected_faults())
        }
        FaultTarget::Sssp => {
            let case = &arc_corpus(0)[0];
            let mut comm = FaultComm::new(Clique::new(case.n), plan);
            let r = check_sssp(&mut comm, case).map_err(|e| Box::new(e) as _);
            (r, comm.injected_faults())
        }
    }
}

#[test]
fn armed_plans_fail_with_comm_rooted_errors_and_count_injections() {
    let plans = fault_plans();
    assert_eq!(plans.len(), 10, "one plan per fault target");
    for (target, plan) in plans {
        let (result, injected) = run_target(target, plan);
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
    let rate_plan = |seed| FaultPlan {
        seed,
        failure_rate: 0.4,
        ..FaultPlan::default()
    };
    let (r1, i1) = run_target(FaultTarget::Sssp, rate_plan(42));
    let (r2, i2) = run_target(FaultTarget::Sssp, rate_plan(42));
    assert_eq!(r1.is_err(), r2.is_err(), "same seed, same outcome");
    assert_eq!(i1, i2, "same seed, same injection count");
    if let Err(e) = &r1 {
        assert!(comm_rooted(e.as_ref()), "rate fault not comm-rooted: {e}");
    }

    // A certain fault rate always errors, on every pipeline it reaches.
    let certain = FaultPlan {
        seed: 7,
        failure_rate: 1.0,
        ..FaultPlan::default()
    };
    let (r, injected) = run_target(FaultTarget::Orientation, certain);
    assert!(r.is_err(), "failure_rate = 1 must fail the first primitive");
    assert!(injected > 0);
}

#[test]
#[should_panic(expected = "fault plan violated")]
fn oversized_payloads_panic_under_a_word_budget() {
    // Orientation routes multi-word messages; a zero-word budget is a
    // model violation and must panic at the send site (assertion, not a
    // typed error).
    let plan = FaultPlan {
        max_message_words: Some(0),
        ..FaultPlan::default()
    };
    let case = &eulerian_corpus(0)[0];
    let mut comm = FaultComm::new(Clique::new(case.graph.n()), plan);
    let _ = check_orientation(&mut comm, case);
}

#[test]
fn stacked_plans_compose_with_tracing() {
    // Benign inner wrapper, armed outer wrapper, tracing substrate: the
    // injected fault still surfaces as the pipeline's typed error and
    // the outer wrapper alone accounts for it.
    let armed = FaultPlan {
        seed: 11,
        fail_phases: vec!["eulerian_orientation".into()],
        ..FaultPlan::default()
    };
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
