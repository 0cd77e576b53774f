//! Cross-transport conformance: the same checker run under the plain
//! simulator, the tracing wrapper, and benign (empty-plan) fault
//! wrappers — stacked — must charge identical rounds, and repeated runs
//! must be bitwise deterministic. Also asserts the theorem round shapes
//! through the shared `shapes` helpers.

use cc_conform::driver::{check_maxflow_ipm, check_orientation, check_solver, Tolerances};
use cc_conform::{eulerian_corpus, flow_corpus, shapes, undirected_corpus, FaultComm, FaultPlan};
use cc_model::{Clique, Communicator, TracingComm};

#[test]
fn solver_rounds_identical_across_transports() {
    let tol = Tolerances::default();
    for case in undirected_corpus(0).into_iter().take(3) {
        let n = case.graph.n();
        let mut plain = Clique::new(n);
        let plain_rounds = check_solver(&mut plain, &case, 1e-6, &tol).unwrap();

        let mut traced = TracingComm::new(Clique::new(n));
        let traced_rounds = check_solver(&mut traced, &case, 1e-6, &tol).unwrap();
        assert_eq!(plain_rounds, traced_rounds, "{}: tracing", case.id);

        // Stacked benign fault wrappers: two layers, no knobs armed.
        let mut faulty = FaultComm::new(
            FaultComm::new(Clique::new(n), FaultPlan::default()),
            FaultPlan::default(),
        );
        let faulty_rounds = check_solver(&mut faulty, &case, 1e-6, &tol).unwrap();
        assert_eq!(plain_rounds, faulty_rounds, "{}: stacked fault", case.id);
        assert_eq!(faulty.injected_faults(), 0, "{}", case.id);
    }
}

#[test]
fn orientation_rounds_identical_across_transports_and_within_shape() {
    for case in eulerian_corpus(0) {
        let n = case.graph.n();
        let m = case.graph.m();
        let mut plain = Clique::new(n);
        let plain_rounds = check_orientation(&mut plain, &case).unwrap();

        let mut traced = TracingComm::new(Clique::new(n));
        let traced_rounds = check_orientation(&mut traced, &case).unwrap();
        assert_eq!(plain_rounds, traced_rounds, "{}", case.id);

        // Theorem 1.4 shape, via the shared helper.
        assert!(
            shapes::euler_rounds_per_log(plain_rounds, m) < shapes::EULER_PER_LOG_BOUND,
            "{}: orientation round shape",
            case.id
        );
        shapes::assert_phase_partition(plain.ledger());
    }
}

#[test]
fn maxflow_runs_are_deterministic_across_transports() {
    let case = &flow_corpus(0)[0];
    let n = case.graph.n();
    let mut plain = Clique::new(n);
    let r1 = check_maxflow_ipm(&mut plain, case).unwrap();
    let mut plain2 = Clique::new(n);
    let r2 = check_maxflow_ipm(&mut plain2, case).unwrap();
    assert_eq!(r1, r2, "repeat determinism");

    let mut traced = TracingComm::new(Clique::new(n));
    let r3 = check_maxflow_ipm(&mut traced, case).unwrap();
    assert_eq!(r1, r3, "tracing identity");

    let mut faulty = FaultComm::new(Clique::new(n), FaultPlan::default());
    let r4 = check_maxflow_ipm(&mut faulty, case).unwrap();
    assert_eq!(r1, r4, "benign fault identity");

    shapes::assert_phase_partition(plain.ledger());
}
