//! Reentrant shortest-path sessions over a fixed arc set.
//!
//! The one-shot entry points ([`crate::apsp_from_arcs`],
//! [`crate::sssp_bellman_ford`]) take the arc list per call; an
//! [`ApspSession`] pins the vertex count, arc list, and
//! [`RoundModel`] once and answers any number of shortest-path requests
//! against them. The full APSP matrix is computed (and its rounds
//! charged) at most once per session — min-plus squaring on a fixed arc
//! set is deterministic, so the memoized [`Apsp`] is exactly what a
//! recomputation would produce. This is the middle-layer adapter the
//! service (`DESIGN.md` §11) keeps per registered directed graph.

use cc_model::Communicator;

use crate::minplus::{apsp_from_arcs, Apsp, RoundModel};
use crate::sssp::{sssp_bellman_ford, SsspOutcome};
use crate::ApspError;

/// A reentrant shortest-path session: fixed `(n, arcs, model)` plus the
/// memoized APSP matrix of the arc set.
#[derive(Debug, Clone)]
pub struct ApspSession {
    n: usize,
    arcs: Vec<(usize, usize, i64)>,
    model: RoundModel,
    apsp: Option<Apsp>,
}

impl ApspSession {
    /// A session over arcs `(from, to, weight)` on vertices `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if an arc endpoint is `≥ n`.
    pub fn new(n: usize, arcs: Vec<(usize, usize, i64)>, model: RoundModel) -> Self {
        for &(u, v, _) in &arcs {
            assert!(u < n && v < n, "arc out of range");
        }
        Self {
            n,
            arcs,
            model,
            apsp: None,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The round-accounting model APSP computations use.
    pub fn model(&self) -> RoundModel {
        self.model
    }

    /// The memoized APSP matrix, if a request already paid for it.
    pub fn apsp_cached(&self) -> Option<&Apsp> {
        self.apsp.as_ref()
    }

    /// All-pairs shortest paths over the session's arcs. The first call
    /// runs [`crate::apsp_from_arcs`] (charging its rounds to `clique`);
    /// later calls return the memoized matrix free of charge —
    /// bitwise-identical to recomputation because min-plus squaring on a
    /// fixed arc set is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `clique.n() < n`.
    pub fn apsp<C: Communicator>(&mut self, clique: &mut C) -> &Apsp {
        if self.apsp.is_none() {
            self.apsp = Some(apsp_from_arcs(clique, self.n, &self.arcs, self.model));
        }
        self.apsp.as_ref().expect("just computed")
    }

    /// Single-source shortest paths from `source` over the session's
    /// arcs ([`crate::sssp_bellman_ford`]; one broadcast round per
    /// relaxation sweep, every call charged).
    ///
    /// # Errors
    ///
    /// [`ApspError::Comm`] if the communication substrate rejects a
    /// sweep's broadcast.
    ///
    /// # Panics
    ///
    /// Panics if `source ≥ n` or `clique.n() < n`.
    pub fn sssp<C: Communicator>(
        &self,
        clique: &mut C,
        source: usize,
    ) -> Result<SsspOutcome, ApspError> {
        sssp_bellman_ford(clique, self.n, &self.arcs, source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_model::Clique;

    #[test]
    fn apsp_memoized_after_first_request() {
        let arcs = vec![(0usize, 1usize, 2i64), (1, 2, 3), (0, 2, 10)];
        let mut session = ApspSession::new(3, arcs.clone(), RoundModel::Semiring);
        assert!(session.apsp_cached().is_none());
        let mut clique = Clique::new(3);
        let d02 = session.apsp(&mut clique).dist(0, 2);
        assert_eq!(d02, Some(5));
        let paid = clique.ledger().total_rounds();
        assert!(paid > 0, "first APSP must charge rounds");

        // Second request: same answer, zero new rounds.
        assert_eq!(session.apsp(&mut clique).dist(0, 2), Some(5));
        assert_eq!(clique.ledger().total_rounds(), paid);

        // Matches a fresh one-shot computation entry for entry.
        let fresh = apsp_from_arcs(&mut Clique::new(3), 3, &arcs, RoundModel::Semiring);
        for u in 0..3 {
            for v in 0..3 {
                assert_eq!(session.apsp_cached().unwrap().dist(u, v), fresh.dist(u, v));
            }
        }
    }

    #[test]
    fn sssp_charges_every_call() {
        let session = ApspSession::new(3, vec![(0, 1, 1), (1, 2, 1)], RoundModel::Semiring);
        let mut clique = Clique::new(3);
        let first = session.sssp(&mut clique, 0).unwrap();
        let after_first = clique.ledger().total_rounds();
        let second = session.sssp(&mut clique, 0).unwrap();
        assert_eq!(first, second);
        assert_eq!(clique.ledger().total_rounds(), 2 * after_first);
    }
}
