//! Theorem-predicted round shapes, in one place.
//!
//! The integration suites (`tests/theorem_claims.rs`,
//! `tests/round_accounting.rs`, and the conformance tests in this crate)
//! assert the same bounds — routing them through these helpers keeps the
//! constants from drifting apart between suites.

use cc_model::RoundLedger;

/// Theorem 1.4's measured constant: Eulerian orientation spends at most
/// this many rounds per `log₂(2m)` across two decades of `n`
/// (`O(log n log* n)` with `log* ≤ 5` at simulable sizes).
pub const EULER_PER_LOG_BOUND: f64 = 40.0;

/// Rounds per `log₂(2m)` — the quantity bounded by
/// [`EULER_PER_LOG_BOUND`].
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn euler_rounds_per_log(rounds: u64, m: usize) -> f64 {
    assert!(m > 0, "per-log shape needs at least one edge");
    rounds as f64 / ((2 * m) as f64).log2()
}

/// Theorem 3.3's sparsifier size bound `O(n log n log U)` with unit
/// constant: `n · ln n · ln U` (with `U` clamped to `e` so small weights
/// don't vacuously zero the bound).
pub fn sparsifier_edge_bound(n: usize, max_weight: f64) -> f64 {
    let n = n as f64;
    n * n.ln() * max_weight.max(std::f64::consts::E).ln()
}

/// Ledger bookkeeping invariant: per-phase totals partition the grand
/// total, for both implemented and charged rounds.
///
/// # Panics
///
/// Panics (with the offending sums) if the partition does not hold.
pub fn assert_phase_partition(ledger: &RoundLedger) {
    let sum: u64 = ledger.phases().values().map(|c| c.total()).sum();
    assert_eq!(
        sum,
        ledger.total_rounds(),
        "phase totals must partition the grand total"
    );
    let impl_sum: u64 = ledger.phases().values().map(|c| c.implemented).sum();
    assert_eq!(
        impl_sum,
        ledger.implemented_rounds(),
        "implemented rounds must partition"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euler_shape_is_rounds_over_log() {
        assert!((euler_rounds_per_log(40, 8) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn sparsifier_bound_matches_theorem_3_3_constants() {
        let bound = sparsifier_edge_bound(48, 64.0);
        assert!((bound - 48.0 * (48f64).ln() * (64f64).ln()).abs() < 1e-9);
        // Small weights clamp to ln(e) = 1, not 0.
        assert!(sparsifier_edge_bound(10, 0.5) > 0.0);
    }

    #[test]
    fn phase_partition_accepts_a_real_ledger() {
        use cc_model::{Clique, Communicator};
        let mut clique = Clique::new(4);
        clique.phase("a", |c| {
            c.broadcast_all(&[0, 1, 2, 3]).unwrap();
        });
        assert_phase_partition(clique.ledger());
    }
}
