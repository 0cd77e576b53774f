//! [`BroadcastComm`]: the Broadcast Congested Clique as a wrapping
//! transport over any unicast substrate.
//!
//! In the Broadcast Congested Clique \[DKO12\] a node sends one
//! *identical* `O(log n)`-bit word to all other nodes per round — there
//! are no private point-to-point messages. The companion paper
//! Forster–de Vos (arXiv:2205.12059) re-targets the Laplacian toolkit to
//! exactly this model; `BroadcastComm` makes the restriction a
//! first-class transport at the [`Communicator`] seam, so every pipeline,
//! conformance suite, and bench tier in the workspace gains a broadcast
//! leg without touching algorithm code.
//!
//! The wrapper runs in one of two modes, chosen at construction:
//!
//! * **Strict** ([`BroadcastComm::strict`]): unicast-shaped primitives
//!   ([`exchange`](Communicator::exchange), [`route`](Communicator::route),
//!   [`route_strict`](Communicator::route_strict),
//!   [`gather_to`](Communicator::gather_to), [`sort`](Communicator::sort))
//!   are rejected with the typed
//!   [`ModelError::UnicastInBroadcastModel`]. This operationalizes the
//!   source paper's §1.1 remark that Eulerian orientation (and hence
//!   flow rounding) "seems to be a hard problem in the Broadcast
//!   Congested Clique": those pipelines fail with a typed error, while
//!   the sparsifier → Laplacian solver path — whose communication is
//!   broadcast-shaped throughout — runs unchanged.
//! * **Measured** ([`BroadcastComm::measured`]): unicast-shaped
//!   primitives are *simulated* at their honest broadcast cost — every
//!   node broadcasts its entire outbox one word per round (all nodes in
//!   parallel, destinations absorbed into the word), so a call costs the
//!   maximum per-node send load ([`delivery::broadcast_sim_cost`]).
//!   Results are bitwise identical to the unicast [`crate::Clique`] by
//!   construction (delivery goes through the same [`delivery`] kernel);
//!   only the charged rounds differ, per the documented cost table.
//!
//! # Round accounting (measured mode vs unicast [`crate::Clique`])
//!
//! | primitive | unicast clique | broadcast clique (measured) |
//! |-----------|----------------|------------------------------|
//! | `broadcast_all` | 1 | 1 |
//! | `broadcast_all_words` | `max_i w_i` | `max_i w_i` |
//! | `broadcast_from` | `2·⌈w/(n−1)⌉` for `w > 1` | `w` |
//! | `allgather` | `lenzen·⌈L/n⌉ + ⌈W/n⌉` | `max_i w_i` |
//! | `exchange` | max per-pair words | max per-node send words |
//! | `route` | `lenzen·⌈L/(cap·n)⌉` | max per-node send words |
//! | `route_strict` | budget check, then route | budget check, then as `route` |
//! | `sort` | `lenzen·⌈max_i k_i/n⌉` | `max_i k_i` |
//! | `gather_to` | `⌈W/(n−1)⌉` | `max_i w_i` |
//!
//! In strict mode the last five rows return
//! [`ModelError::UnicastInBroadcastModel`] instead.
//!
//! The wrapper performs all broadcast-specific accounting itself,
//! charging the wrapped substrate's ledger directly; the 1-word and
//! word-vector all-broadcasts (whose cost is model-independent) and the
//! ledger plumbing forward to the substrate through the [`crate::Decorator`]
//! seam, and [`Communicator::mode`] reports
//! [`CommunicationMode::Broadcast`] so wrappers stacked above attribute
//! congestion broadcast-style. Consequently `BroadcastComm<Clique>` and
//! `BroadcastComm<ThreadedComm>` are bitwise identical — results *and*
//! ledgers — which `crates/model/tests/broadcast.rs` pins with identity
//! proptests at worker counts 1, 2, and 8.

use crate::{
    delivery, CommunicationMode, Communicator, CostKind, Envelope, ModelError, NodeId, Op, Reply,
    Words,
};

/// How a [`BroadcastComm`] treats unicast-shaped primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BroadcastMode {
    /// Reject `exchange` / `route` / `route_strict` / `gather_to` /
    /// `sort` with [`ModelError::UnicastInBroadcastModel`].
    #[default]
    Strict,
    /// Simulate them at their honest broadcast cost (max per-node send
    /// load; see the module-level cost table), delivering bitwise the
    /// same results as the unicast [`crate::Clique`].
    Measured,
}

/// The Broadcast Congested Clique over any substrate; see the module
/// docs for the model, the two modes, and the cost table.
///
/// # Example
///
/// ```
/// use cc_model::{BroadcastComm, Clique, Communicator, ModelError};
///
/// // Strict mode: point-to-point primitives are typed errors.
/// let mut strict = BroadcastComm::strict(Clique::new(4));
/// let err = strict.sort(&[vec![1], vec![], vec![], vec![]]).unwrap_err();
/// assert_eq!(
///     err,
///     ModelError::UnicastInBroadcastModel { primitive: "sort" }
/// );
///
/// // Measured mode: same results as the unicast clique, broadcast cost.
/// let mut measured = BroadcastComm::measured(Clique::new(4));
/// let blocks = measured.sort(&[vec![9, 1], vec![5], vec![], vec![3]]).unwrap();
/// assert_eq!(blocks[0], vec![1]);
/// assert_eq!(measured.ledger().total_rounds(), 2); // max per-node keys
/// ```
#[derive(Debug, Clone)]
pub struct BroadcastComm<C: Communicator> {
    inner: C,
    mode: BroadcastMode,
}

impl<C: Communicator> BroadcastComm<C> {
    /// Wraps `inner` in the given mode.
    fn with_mode(inner: C, mode: BroadcastMode) -> Self {
        Self { inner, mode }
    }

    /// Strict broadcast clique: unicast primitives are typed errors.
    pub fn strict(inner: C) -> Self {
        Self::with_mode(inner, BroadcastMode::Strict)
    }

    /// Measured broadcast clique: unicast primitives are simulated at
    /// their honest broadcast cost.
    pub fn measured(inner: C) -> Self {
        Self::with_mode(inner, BroadcastMode::Measured)
    }

    /// Unwraps, returning the substrate (and its ledger).
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Charges `rounds` implemented rounds to the substrate's ledger
    /// (the wrapper owns the broadcast accounting; the substrate owns
    /// the ledger).
    fn charge(&mut self, rounds: u64) {
        self.inner
            .ledger_mut()
            .charge(rounds, CostKind::Implemented);
    }

    /// Measured-mode simulation of an outbox-shaped call: validate like
    /// the unicast clique (with its routing budget if `budget`), charge
    /// the broadcast simulation cost, deliver through the shared kernel.
    fn simulate_unicast(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
        always_charge: bool,
        budget: bool,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        let n = self.inner.n();
        delivery::check_outboxes(n, &outboxes)?;
        let (send, recv) = delivery::shard_loads(n, &outboxes);
        if budget {
            // Keep the unicast budget check so congestion errors are value-
            // identical to `Clique::route_strict` before the cost diverges.
            delivery::strict_violation(&self.inner.config(), n, &send, &recv)?;
        }
        let rounds = delivery::broadcast_sim_cost(&send);
        if always_charge || rounds > 0 {
            self.charge(rounds);
        }
        Ok(delivery::deliver(n, outboxes))
    }
}

impl<C: Communicator> crate::Decorator for BroadcastComm<C> {
    type Inner = C;

    fn inner(&self) -> &C {
        &self.inner
    }

    fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    fn mode(&self) -> CommunicationMode {
        CommunicationMode::Broadcast
    }

    fn call(&mut self, op: Op<'_>) -> Result<Reply, ModelError> {
        let unicast = matches!(
            op,
            Op::Exchange(_)
                | Op::Route(_)
                | Op::RouteStrict(_)
                | Op::RouteBatch(_)
                | Op::Sort(_)
                | Op::GatherTo(..)
        );
        if unicast && self.mode == BroadcastMode::Strict {
            let primitive = op.name();
            return Err(ModelError::UnicastInBroadcastModel { primitive });
        }
        let n = self.inner.n();
        match op {
            // The unicast clique charges an exchange even when it is empty,
            // but leaves the ledger untouched for an empty route; mirror
            // both.
            Op::Exchange(outboxes) => self
                .simulate_unicast(outboxes, true, false)
                .map(Reply::Inboxes),
            Op::Route(outboxes) => self
                .simulate_unicast(outboxes, false, false)
                .map(Reply::Inboxes),
            Op::RouteStrict(outboxes) => self
                .simulate_unicast(outboxes, false, true)
                .map(Reply::Inboxes),
            Op::RouteBatch(batch) => {
                let outboxes = batch.outboxes(n)?;
                self.simulate_unicast(outboxes, false, false)
                    .map(|_| Reply::Done)
            }
            Op::BroadcastFrom(src, words) => {
                if src >= n {
                    return Err(ModelError::InvalidNode { node: src, n });
                }
                // No scatter helpers: the source broadcasts its words one a round.
                self.charge(words.len() as u64);
                Ok(Reply::Words(words.clone()))
            }
            Op::Allgather(per_node) => {
                delivery::check_len(n, per_node.len())?;
                // No load balancing: everyone broadcasts its vector, so the
                // call costs the longest one and touches the ledger even
                // when empty.
                self.charge(delivery::broadcast_words_cost(per_node));
                let (all, offsets) = delivery::concat_words(n, per_node);
                Ok(Reply::Gathered(all, offsets))
            }
            Op::Sort(per_node) => {
                delivery::check_len(n, per_node.len())?;
                if per_node.iter().any(|w| !w.is_empty()) {
                    // Everyone broadcasts their keys (max per-node keys
                    // rounds); the globally sorted blocks are then known
                    // locally.
                    self.charge(delivery::broadcast_words_cost(per_node));
                }
                Ok(Reply::Rows(delivery::sorted_blocks(n, per_node)))
            }
            Op::GatherTo(dst, per_node) => {
                if dst >= n {
                    return Err(ModelError::InvalidNode { node: dst, n });
                }
                delivery::check_len(n, per_node.len())?;
                // A broadcast gather cannot target one node: everyone
                // broadcasts their vector and `dst` (like everyone else)
                // hears it all.
                self.charge(delivery::broadcast_words_cost(per_node));
                Ok(Reply::Rows(per_node.to_vec()))
            }
            // The all-broadcasts cost the same in both models.
            op => op.apply(&mut self.inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clique, CliqueConfig};

    #[test]
    fn strict_rejects_every_unicast_primitive_with_typed_error() {
        let mut comm = BroadcastComm::strict(Clique::new(4));
        let outboxes = vec![vec![(1, vec![1u64])], vec![], vec![], vec![]];
        let per_node = vec![vec![1u64], vec![], vec![], vec![]];
        assert_eq!(
            comm.exchange(outboxes.clone()).unwrap_err(),
            ModelError::UnicastInBroadcastModel {
                primitive: "exchange"
            }
        );
        assert_eq!(
            comm.route(outboxes.clone()).unwrap_err(),
            ModelError::UnicastInBroadcastModel { primitive: "route" }
        );
        assert_eq!(
            comm.route_strict(outboxes).unwrap_err(),
            ModelError::UnicastInBroadcastModel {
                primitive: "route_strict"
            }
        );
        assert_eq!(
            comm.sort(&per_node).unwrap_err(),
            ModelError::UnicastInBroadcastModel { primitive: "sort" }
        );
        assert_eq!(
            comm.gather_to(0, &per_node).unwrap_err(),
            ModelError::UnicastInBroadcastModel {
                primitive: "gather_to"
            }
        );
        // Rejections never touch the ledger.
        assert_eq!(comm.ledger().total_rounds(), 0);
        assert!(comm.ledger().phases().is_empty());
    }

    #[test]
    fn broadcast_family_works_in_both_modes_at_broadcast_cost() {
        for mode in [BroadcastMode::Strict, BroadcastMode::Measured] {
            let mut comm = BroadcastComm::with_mode(Clique::new(5), mode);
            assert_eq!(
                comm.broadcast_all(&[1, 2, 3, 4, 5]).unwrap(),
                vec![1, 2, 3, 4, 5]
            );
            assert_eq!(comm.ledger().total_rounds(), 1);
            let before = comm.ledger().total_rounds();
            // 8 words from one source: w rounds (no scatter helpers),
            // not the unicast clique's 2·⌈8/4⌉ = 4.
            comm.broadcast_from(0, &(0..8).collect()).unwrap();
            assert_eq!(comm.ledger().total_rounds() - before, 8);
            let before = comm.ledger().total_rounds();
            let (all, offsets) = comm
                .allgather(&[vec![1, 2], vec![], vec![3], vec![], vec![4]])
                .unwrap();
            assert_eq!(all, vec![1, 2, 3, 4]);
            assert_eq!(offsets, vec![0, 2, 2, 3, 3, 4]);
            // Unbalanced broadcast allgather: max contribution = 2.
            assert_eq!(comm.ledger().total_rounds() - before, 2);
        }
    }

    #[test]
    fn measured_exchange_charges_max_send_load() {
        let mut comm = BroadcastComm::measured(Clique::new(3));
        // Node 0 sends 3 words total; unicast max-pair would also be 3
        // here, so split across destinations to tell the formulas apart.
        let outboxes = vec![
            vec![(1, vec![1, 2]), (2, vec![3])],
            vec![],
            vec![(0, vec![9])],
        ];
        let mut unicast = Clique::new(3);
        let want = unicast.exchange(outboxes.clone()).unwrap();
        let got = comm.exchange(outboxes).unwrap();
        assert_eq!(want, got, "delivery is bitwise identical");
        assert_eq!(unicast.ledger().total_rounds(), 2); // max pair
        assert_eq!(comm.ledger().total_rounds(), 3); // max send
    }

    #[test]
    fn measured_route_strict_keeps_unicast_congestion_error() {
        let outboxes = vec![
            vec![(1, (0..9).collect::<Vec<u64>>())],
            vec![],
            vec![],
            vec![],
        ];
        let mut unicast = Clique::new(4);
        let mut comm = BroadcastComm::measured(Clique::new(4));
        assert_eq!(
            unicast.route_strict(outboxes.clone()).unwrap_err(),
            comm.route_strict(outboxes).unwrap_err()
        );
        assert_eq!(comm.ledger().total_rounds(), 0);
    }

    #[test]
    fn measured_sort_and_gather_charge_broadcast_words() {
        let mut comm = BroadcastComm::measured(Clique::new(3));
        let blocks = comm.sort(&[vec![9, 1], vec![5], vec![3, 7, 2]]).unwrap();
        assert_eq!(
            blocks,
            Clique::new(3)
                .sort(&[vec![9, 1], vec![5], vec![3, 7, 2]])
                .unwrap()
        );
        assert_eq!(comm.ledger().total_rounds(), 3); // max per-node keys
        let before = comm.ledger().total_rounds();
        let gathered = comm
            .gather_to(0, &[vec![], vec![1, 2, 3], vec![4]])
            .unwrap();
        assert_eq!(gathered[1], vec![1, 2, 3]);
        assert_eq!(comm.ledger().total_rounds() - before, 3); // max_i w_i
    }

    #[test]
    fn structural_errors_match_the_unicast_clique() {
        let mut unicast = Clique::new(3);
        let mut comm = BroadcastComm::measured(Clique::new(3));
        assert_eq!(
            unicast.exchange(vec![Vec::new(); 4]).unwrap_err(),
            comm.exchange(vec![Vec::new(); 4]).unwrap_err()
        );
        let bad = vec![vec![(7usize, vec![1u64])], vec![], vec![]];
        assert_eq!(
            unicast.route(bad.clone()).unwrap_err(),
            comm.route(bad).unwrap_err()
        );
        assert_eq!(
            unicast.gather_to(9, &[vec![], vec![], vec![]]).unwrap_err(),
            comm.gather_to(9, &[vec![], vec![], vec![]]).unwrap_err()
        );
        assert_eq!(
            unicast.broadcast_from(5, &vec![1]).unwrap_err(),
            comm.broadcast_from(5, &vec![1]).unwrap_err()
        );
    }

    #[test]
    fn reports_broadcast_mode() {
        let comm = BroadcastComm::strict(Clique::new(2));
        assert_eq!(Communicator::mode(&comm), CommunicationMode::Broadcast);
        // The substrate's constants pass through.
        assert_eq!(comm.config(), CliqueConfig::default());
    }

    #[test]
    fn phases_attribute_through_the_wrapper() {
        let mut comm = BroadcastComm::measured(Clique::new(2));
        comm.phase("outer", |c| {
            c.broadcast_all(&[1, 2]).unwrap();
            c.phase("inner", |c| c.charge_oracle(5));
        });
        assert_eq!(comm.ledger().phase("outer").implemented, 1);
        assert_eq!(comm.ledger().phase("outer/inner").charged, 5);
    }
}
