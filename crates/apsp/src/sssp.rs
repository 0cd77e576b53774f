//! Distributed Bellman–Ford single-source shortest paths.
//!
//! One relaxation sweep per round: every vertex broadcasts its current
//! distance (1 word to every other node), then relaxes its incoming arcs
//! locally. Negative arc weights are allowed — the routine either
//! converges (≤ `n` rounds, with early exit) or reports a negative cycle.
//! This is the honest implementable `O(n)`-round SSSP the min-cost-flow
//! optimality backstop charges for.

use cc_model::Communicator;

use crate::minplus::add_distance;
use crate::ApspError;

/// Result of [`sssp_bellman_ford`].
#[derive(Debug, Clone, PartialEq)]
pub enum SsspOutcome {
    /// Distances settled. `dist[v] = None` means unreachable;
    /// `parent[v]` is the arc index (into the input slice) that last
    /// relaxed `v`.
    Converged {
        /// Shortest distance per vertex (`None` = unreachable).
        dist: Vec<Option<i64>>,
        /// Index of the relaxing arc per vertex (`usize::MAX` for the
        /// source / unreachable vertices).
        parent: Vec<usize>,
        /// Relaxation rounds executed (each is 1 broadcast round).
        rounds: usize,
    },
    /// A negative cycle is reachable from the source; `witness` is a
    /// vertex whose distance still improved in round `n`.
    NegativeCycle {
        /// A vertex on or reachable from the negative cycle.
        witness: usize,
    },
}

/// Runs distributed Bellman–Ford from `source` over the arcs
/// `(from, to, weight)` on vertices `0..n`, charging one broadcast round
/// per relaxation sweep to `clique`.
///
/// # Errors
///
/// [`ApspError::Comm`] if the communication substrate rejects a sweep's
/// broadcast (injected faults surface here, never as panics).
///
/// # Panics
///
/// Panics if an arc is out of range, `source ≥ n`, or `clique.n() < n`.
pub fn sssp_bellman_ford<C: Communicator>(
    clique: &mut C,
    n: usize,
    arcs: &[(usize, usize, i64)],
    source: usize,
) -> Result<SsspOutcome, ApspError> {
    assert!(source < n, "source out of range");
    assert!(clique.n() >= n, "clique too small");
    for &(u, v, _) in arcs {
        assert!(u < n && v < n, "arc out of range");
    }
    const UNREACHED: i64 = i64::MAX / 4;
    let mut dist = vec![UNREACHED; n];
    let mut parent = vec![usize::MAX; n];
    dist[source] = 0;

    clique.phase("sssp_bellman_ford", |clique| {
        let mut rounds = 0usize;
        for sweep in 0..n {
            // Every vertex broadcasts its distance: 1 round.
            clique.broadcast_all(&vec![0u64; clique.n()])?;
            rounds += 1;
            let snapshot = dist.clone();
            let mut changed = false;
            for (i, &(u, v, w)) in arcs.iter().enumerate() {
                if snapshot[u] < UNREACHED && add_distance(snapshot[u], w) < dist[v] {
                    dist[v] = add_distance(snapshot[u], w);
                    parent[v] = i;
                    changed = true;
                }
            }
            if !changed {
                return Ok(SsspOutcome::Converged {
                    dist: dist.iter().map(|&d| (d < UNREACHED).then_some(d)).collect(),
                    parent,
                    rounds,
                });
            }
            if sweep == n - 1 {
                // An improvement in the n-th synchronous sweep certifies a
                // negative cycle.
                let witness = arcs
                    .iter()
                    .enumerate()
                    .find(|(_, &(u, v, w))| {
                        snapshot[u] < UNREACHED && add_distance(snapshot[u], w) < snapshot[v]
                    })
                    .map(|(_, &(_, v, _))| v)
                    .unwrap_or(source);
                return Ok(SsspOutcome::NegativeCycle { witness });
            }
        }
        Ok(SsspOutcome::Converged {
            dist: dist.iter().map(|&d| (d < UNREACHED).then_some(d)).collect(),
            parent,
            rounds,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_model::Clique;

    #[test]
    fn chain_distances() {
        let mut clique = Clique::new(4);
        let out = sssp_bellman_ford(
            &mut clique,
            4,
            &[(0, 1, 2), (1, 2, 3), (0, 2, 10), (3, 0, 1)],
            0,
        )
        .unwrap();
        match out {
            SsspOutcome::Converged {
                dist,
                parent,
                rounds,
            } => {
                assert_eq!(dist[0], Some(0));
                assert_eq!(dist[1], Some(2));
                assert_eq!(dist[2], Some(5));
                assert_eq!(dist[3], None);
                assert_eq!(parent[2], 1);
                assert!(rounds <= 4);
                assert_eq!(clique.ledger().total_rounds(), rounds as u64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn handles_negative_arcs_without_cycles() {
        let mut clique = Clique::new(3);
        let out =
            sssp_bellman_ford(&mut clique, 3, &[(0, 1, 5), (1, 2, -3), (0, 2, 4)], 0).unwrap();
        match out {
            SsspOutcome::Converged { dist, .. } => {
                assert_eq!(dist[2], Some(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn detects_negative_cycles() {
        let mut clique = Clique::new(3);
        let out =
            sssp_bellman_ford(&mut clique, 3, &[(0, 1, 1), (1, 2, -2), (2, 1, 1)], 0).unwrap();
        assert!(matches!(out, SsspOutcome::NegativeCycle { .. }));
    }

    #[test]
    fn unreachable_negative_cycle_is_ignored() {
        let mut clique = Clique::new(4);
        // Cycle 2↔3 is negative but not reachable from 0.
        let out =
            sssp_bellman_ford(&mut clique, 4, &[(0, 1, 1), (2, 3, -5), (3, 2, 1)], 0).unwrap();
        assert!(matches!(out, SsspOutcome::Converged { .. }));
    }

    #[test]
    fn early_exit_charges_few_rounds() {
        // Star: converges in 2 sweeps regardless of n.
        let n = 32;
        let arcs: Vec<(usize, usize, i64)> = (1..n).map(|v| (0, v, 1)).collect();
        let mut clique = Clique::new(n);
        let out = sssp_bellman_ford(&mut clique, n, &arcs, 0).unwrap();
        match out {
            SsspOutcome::Converged { rounds, .. } => assert!(rounds <= 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
