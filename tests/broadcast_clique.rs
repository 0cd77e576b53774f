//! Broadcast Congested Clique (§2.1 / §1.1 of the paper), modelled by a
//! strict `BroadcastComm`: the Laplacian solver's communication pattern is
//! broadcast-only and keeps working (cf. \[FV22\]'s BCC solver), while the
//! Eulerian orientation — whose contraction relies on unicast routing —
//! cannot run, matching the paper's remark that orientations "seem to be
//! a hard problem in the Broadcast Congested Clique".

use laplacian_clique::model::BroadcastComm;
use laplacian_clique::prelude::*;

fn broadcast_clique(n: usize) -> BroadcastComm<Clique> {
    BroadcastComm::strict(Clique::new(n))
}

/// Theorem 1.1 runs verbatim under broadcast-only communication, with the
/// same answer and the same solve-phase rounds as in the unicast clique.
#[test]
fn laplacian_solver_works_in_broadcast_mode() {
    let g = generators::random_connected(32, 100, 8, 4);
    let mut b = vec![0.0; 32];
    b[0] = 1.0;
    b[31] = -1.0;
    let mut bcc = broadcast_clique(32);
    let solver = LaplacianSolver::build(&mut bcc, &g, &SolverOptions::default()).unwrap();
    let out = solver.solve(&mut bcc, &b, 1e-8).unwrap();

    let mut ucc = Clique::new(32);
    let solver2 = LaplacianSolver::build(&mut ucc, &g, &SolverOptions::default()).unwrap();
    let out2 = solver2.solve(&mut ucc, &b, 1e-8).unwrap();
    assert_eq!(out.x, out2.x);
    assert_eq!(
        bcc.ledger().phase_prefix_total("laplacian_solve"),
        ucc.ledger().phase_prefix_total("laplacian_solve")
    );
}

/// Electrical flow queries (the IPM building block) also run in BCC.
#[test]
fn electrical_flows_work_in_broadcast_mode() {
    let mut bcc = broadcast_clique(16);
    let edges: Vec<(usize, usize, f64)> = (0..15).map(|i| (i, i + 1, 1.0)).collect();
    let net = ElectricalNetwork::build(&mut bcc, 16, &edges, &SolverOptions::default()).unwrap();
    let r = net.effective_resistance(&mut bcc, 0, 15, 1e-9).unwrap();
    assert!((r - 15.0).abs() < 1e-7, "series chain resistance, got {r}");
}

/// The Eulerian orientation fails with a typed error (the strict model's
/// rejection of unicast routing) — the §1.1 hardness remark made
/// operational.
#[test]
fn eulerian_orientation_cannot_run_in_broadcast_mode() {
    let g = generators::random_eulerian(12, 3, 1);
    let mut bcc = broadcast_clique(12);
    let result = eulerian_orientation(&mut bcc, &g);
    assert!(
        matches!(
            result,
            Err(EulerError::Comm(ModelError::UnicastInBroadcastModel { .. }))
        ),
        "orientation must fail without unicast routing, got {:?}",
        result.err()
    );
}

/// The trivial max-flow baseline still works in BCC (its all-gather is
/// broadcast-expressible) — at a worse round count, as expected.
#[test]
fn trivial_baseline_degrades_gracefully_in_broadcast_mode() {
    let g = generators::random_flow_network(12, 30, 4, 2);
    let (_, want) = dinic(&g, 0, 11);

    let mut bcc = broadcast_clique(12);
    let out = max_flow_trivial(&mut bcc, &g, 0, 11).unwrap();
    assert_eq!(out.value, want);

    let mut ucc = Clique::new(12);
    let _ = max_flow_trivial(&mut ucc, &g, 0, 11).unwrap();
    assert!(
        bcc.ledger().total_rounds() >= ucc.ledger().total_rounds(),
        "broadcast gather cannot be cheaper than balanced unicast gather"
    );
}
