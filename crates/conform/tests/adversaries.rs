//! The chaos suite: the full (pipeline × adversary-strategy) matrix,
//! over the plain simulator and the concurrent sharded runtime, with the
//! E12 invariant — omission adversaries (silent, crash–recover) never
//! produce a silently wrong answer — and cross-substrate report
//! identity.

use cc_conform::{run_adversary_suite, run_adversary_suite_on, CellOutcome, FaultTarget};
use cc_model::{BroadcastComm, Clique, ThreadedComm};

/// Corrupted cells are part of the expected output of the corrupt
/// column, and each one panics inside `catch_unwind` — silence the
/// default hook so the suite's logs stay readable.
fn quiet_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

#[test]
fn chaos_matrix_holds_the_detectability_invariant() {
    quiet_panics();
    let report = run_adversary_suite();
    // 10 pipelines × (3 base strategies + soak budget).
    let slate = cc_conform::adversary_plans().len();
    assert_eq!(report.cells.len(), 10 * slate);

    // The E12 invariant: no omission plan ever corrupts silently.
    report.assert_detectable_strategies_never_corrupt();

    for cell in &report.cells {
        match cell.outcome {
            CellOutcome::Detected => {
                // Omission adversaries surface as comm-rooted typed
                // errors; a corrupt node's forgery may also trip typed
                // numerical errors, which need not be comm-rooted.
                if cell.detectable {
                    assert!(
                        cell.comm_rooted,
                        "{:?}/{}: omission not comm-rooted: {}",
                        cell.pipeline, cell.strategy, cell.detail
                    );
                    assert!(
                        cell.events > 0,
                        "{:?}/{}: detection without a recorded event",
                        cell.pipeline,
                        cell.strategy
                    );
                }
            }
            CellOutcome::Tolerated => {
                // Fine: the adversary never had to act (e.g. a crash
                // window that closed before the node's first send), or
                // the forgery was absorbed within tolerances.
            }
            CellOutcome::Corrupted => {
                assert!(
                    !cell.detectable,
                    "corrupted cell under an omission plan: {cell:?}"
                );
            }
        }
    }

    // A permanently silent node must be detected by every pipeline —
    // these algorithms are all-to-all, so node 1 always owes a message.
    for cell in report.cells.iter().filter(|c| c.strategy == "silent") {
        assert_eq!(
            cell.outcome,
            CellOutcome::Detected,
            "{:?}: a silent node went unnoticed: {}",
            cell.pipeline,
            cell.detail
        );
    }

    // The matrix renders deterministically with every pipeline row.
    let matrix = report.matrix_markdown();
    assert_eq!(matrix, report.matrix_markdown());
    for p in [FaultTarget::Solver, FaultTarget::Mcf, FaultTarget::Sssp] {
        assert!(matrix.contains(&format!("{p:?}")), "{matrix}");
    }
}

/// The broadcast row of the chaos matrix: the full (pipeline ×
/// strategy) slate over the measured Broadcast Congested Clique. The
/// E12 invariant — omission adversaries never corrupt silently — must
/// hold under broadcast costs too, and the report must be bitwise
/// identical over `Clique` and `ThreadedComm` substrates.
#[test]
fn chaos_matrix_holds_over_broadcast_comm() {
    quiet_panics();
    let report = run_adversary_suite_on(|n| BroadcastComm::measured(Clique::new(n)));
    let slate = cc_conform::adversary_plans().len();
    assert_eq!(report.cells.len(), 10 * slate);
    report.assert_detectable_strategies_never_corrupt();
    for cell in report.cells.iter().filter(|c| c.strategy == "silent") {
        assert_eq!(
            cell.outcome,
            CellOutcome::Detected,
            "{:?}: a silent node went unnoticed on the broadcast clique: {}",
            cell.pipeline,
            cell.detail
        );
    }
    for workers in [1usize, 2, 8] {
        let got = run_adversary_suite_on(|n| {
            BroadcastComm::measured(ThreadedComm::with_workers(n, workers))
        });
        assert_eq!(
            report, got,
            "broadcast chaos report diverged over ThreadedComm at {workers} workers"
        );
    }
}

#[test]
fn chaos_report_is_identical_over_threaded_workers() {
    quiet_panics();
    let base = run_adversary_suite();
    for workers in [1usize, 2, 8] {
        let got = run_adversary_suite_on(|n| ThreadedComm::with_workers(n, workers));
        assert_eq!(
            base, got,
            "chaos report diverged over ThreadedComm at {workers} workers"
        );
    }
}
