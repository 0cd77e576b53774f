use crate::{delivery, Communicator, CostKind, ModelError, NodeId, RoundLedger, RouteBatch, Words};

/// Tunable accounting constants of the simulated model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CliqueConfig {
    /// Rounds charged per application of Lenzen's routing theorem
    /// \[Len13\]. The theorem proves 16; the paper only uses that it is
    /// `O(1)`. Default: 2.
    pub lenzen_rounds: u64,
    /// Per-node word budget of one routing application, as a multiple of
    /// `n`. Lenzen's theorem uses factor 1 (send ≤ n, receive ≤ n words).
    pub routing_capacity_factor: usize,
}

impl Default for CliqueConfig {
    fn default() -> Self {
        Self {
            lenzen_rounds: 2,
            routing_capacity_factor: 1,
        }
    }
}

/// A message as seen by its recipient.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sender of the message.
    pub src: NodeId,
    /// Payload words.
    pub payload: Words,
}

/// A simulated (unicast) congested clique of `n` nodes — the canonical
/// [`Communicator`].
///
/// The struct owns no per-node state (only a reused load buffer for
/// [`route_batch`](Communicator::route_batch)) — algorithms keep their
/// node states in ordinary `Vec`s indexed by [`NodeId`] and call the
/// communication primitives of [`Communicator`], which deliver messages
/// deterministically and charge rounds to the [`RoundLedger`].
///
/// # Round accounting
///
/// With total volume `W`, maximum per-node contribution `L`, and `w` the
/// words of one source:
///
/// | primitive | rounds charged |
/// |-----------|----------------|
/// | [`exchange`](Communicator::exchange) | max over ordered pairs of words sent on that pair |
/// | [`route`](Communicator::route), [`route_batch`](Communicator::route_batch) | `lenzen_rounds · ⌈max node load / (capacity·n)⌉` |
/// | [`broadcast_all`](Communicator::broadcast_all) | 1 (one word from everyone to everyone) |
/// | [`broadcast_all_words`](Communicator::broadcast_all_words) | `max_i w_i` |
/// | [`broadcast_from`](Communicator::broadcast_from) | `2·⌈w/(n−1)⌉` for `w > 1`, else `w` |
/// | [`allgather`](Communicator::allgather) | `lenzen_rounds·⌈L/n⌉ + ⌈W/n⌉` |
/// | [`sort`](Communicator::sort) | `lenzen_rounds · ⌈max_i k_i / n⌉` |
/// | [`gather_to`](Communicator::gather_to) | `⌈W/(n−1)⌉` |
/// | [`charge_oracle`](Communicator::charge_oracle) | the given formula cost, tagged [`CostKind::Charged`] |
#[derive(Debug, Clone)]
pub struct Clique {
    n: usize,
    config: CliqueConfig,
    ledger: RoundLedger,
    /// Per-node send and receive loads of [`Communicator::route_batch`],
    /// kept so a warm call allocates nothing.
    loads: Vec<u64>,
}

impl Clique {
    /// Creates a clique of `n` nodes with default accounting constants.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` — the model needs at least one ordered pair.
    pub fn new(n: usize) -> Self {
        Self::with_config(n, CliqueConfig::default())
    }

    /// Creates a clique of `n` nodes with explicit accounting constants.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or if `config.routing_capacity_factor == 0`.
    pub fn with_config(n: usize, config: CliqueConfig) -> Self {
        assert!(n >= 2, "congested clique needs at least 2 nodes, got {n}");
        assert!(
            config.routing_capacity_factor >= 1,
            "routing capacity factor must be positive"
        );
        Self {
            n,
            config,
            ledger: RoundLedger::new(),
            loads: Vec::new(),
        }
    }
}

impl Communicator for Clique {
    fn n(&self) -> usize {
        self.n
    }

    fn config(&self) -> CliqueConfig {
        self.config
    }

    fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut RoundLedger {
        &mut self.ledger
    }

    /// Pushes the messages through the per-pair links without any
    /// routing cleverness; inboxes are sorted by sender.
    fn exchange(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        delivery::check_outboxes(self.n, &outboxes)?;
        let max_pair = delivery::exchange_cost(self.n, &outboxes);
        self.ledger.charge(max_pair, CostKind::Implemented);
        Ok(delivery::deliver(self.n, outboxes))
    }

    /// Any message set in which every node sends and receives at most `n`
    /// words is deliverable in `O(1)` rounds \[Len13\]; larger batches are
    /// split automatically.
    fn route(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        delivery::check_outboxes(self.n, &outboxes)?;
        let (send, recv) = delivery::shard_loads(self.n, &outboxes);
        let load = send.iter().chain(recv.iter()).copied().max().unwrap_or(0);
        if load > 0 {
            let rounds = delivery::route_cost(&self.config, self.n, load);
            self.ledger.charge(rounds, CostKind::Implemented);
        }
        Ok(delivery::deliver(self.n, outboxes))
    }

    /// Charges what [`Communicator::route`] charges the batch's outboxes
    /// and builds nothing.
    fn route_batch(&mut self, batch: &RouteBatch) -> Result<(), ModelError> {
        let load = delivery::batch_load(self.n, batch, &mut self.loads)?;
        if load > 0 {
            let rounds = delivery::route_cost(&self.config, self.n, load);
            self.ledger.charge(rounds, CostKind::Implemented);
        }
        Ok(())
    }

    fn route_strict(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        delivery::check_outboxes(self.n, &outboxes)?;
        let (send, recv) = delivery::shard_loads(self.n, &outboxes);
        delivery::strict_violation(&self.config, self.n, &send, &recv)?;
        self.route(outboxes)
    }

    fn broadcast_all(&mut self, values: &[u64]) -> Result<Vec<u64>, ModelError> {
        delivery::check_len(self.n, values.len())?;
        self.ledger
            .charge(delivery::broadcast_all_cost(), CostKind::Implemented);
        Ok(values.to_vec())
    }

    /// Allocation-free once `out` has capacity `n`; used by the
    /// per-iteration solver hot paths.
    fn broadcast_all_into(&mut self, values: &[u64], out: &mut Vec<u64>) -> Result<(), ModelError> {
        delivery::check_len(self.n, values.len())?;
        self.ledger
            .charge(delivery::broadcast_all_cost(), CostKind::Implemented);
        out.clear();
        out.extend_from_slice(values);
        Ok(())
    }

    fn broadcast_all_words(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        delivery::check_len(self.n, per_node.len())?;
        self.ledger.charge(
            delivery::broadcast_words_cost(per_node),
            CostKind::Implemented,
        );
        Ok(per_node.to_vec())
    }

    /// For `w > 1` words the source scatters them over distinct helper
    /// nodes (`⌈w/(n−1)⌉` rounds), then every helper broadcasts its share
    /// (`⌈w/(n−1)⌉` rounds).
    fn broadcast_from(&mut self, src: NodeId, words: &Words) -> Result<Words, ModelError> {
        if src >= self.n {
            return Err(ModelError::InvalidNode {
                node: src,
                n: self.n,
            });
        }
        let rounds = delivery::broadcast_from_cost(self.n, words.len() as u64);
        self.ledger.charge(rounds, CostKind::Implemented);
        Ok(words.clone())
    }

    /// The words are first spread evenly over the clique with Lenzen
    /// routing, then broadcast at `n` words per round — use this instead
    /// of `broadcast_all_words` when contributions are skewed.
    fn allgather(&mut self, per_node: &[Words]) -> Result<(Words, Vec<usize>), ModelError> {
        delivery::check_len(self.n, per_node.len())?;
        if per_node.iter().any(|w| !w.is_empty()) {
            let rounds = delivery::allgather_cost(&self.config, self.n, per_node);
            self.ledger.charge(rounds, CostKind::Implemented);
        }
        Ok(delivery::concat_words(self.n, per_node))
    }

    /// Lenzen's deterministic sorting theorem \[Len13\]: `n` keys per node
    /// are sorted in `O(1)` rounds; larger inputs are batched. Node `i`
    /// receives the `i`-th block of the global order (earlier blocks one
    /// longer when the total is not divisible by `n`); ties break stably
    /// by (key, contributing node, position).
    fn sort(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        delivery::check_len(self.n, per_node.len())?;
        if per_node.iter().any(|w| !w.is_empty()) {
            let rounds = delivery::sort_cost(&self.config, self.n, per_node);
            self.ledger.charge(rounds, CostKind::Implemented);
        }
        Ok(delivery::sorted_blocks(self.n, per_node))
    }

    /// The destination receives `n − 1` words per round.
    fn gather_to(&mut self, dst: NodeId, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        if dst >= self.n {
            return Err(ModelError::InvalidNode {
                node: dst,
                n: self.n,
            });
        }
        delivery::check_len(self.n, per_node.len())?;
        self.ledger.charge(
            delivery::gather_cost(self.n, per_node),
            CostKind::Implemented,
        );
        Ok(per_node.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_all_costs_one_round() {
        let mut clique = Clique::new(4);
        let view = clique.broadcast_all(&[10, 11, 12, 13]).unwrap();
        assert_eq!(view, vec![10, 11, 12, 13]);
        assert_eq!(clique.ledger().total_rounds(), 1);
    }

    #[test]
    fn exchange_charges_max_pair_words() {
        let mut clique = Clique::new(3);
        // node 0 sends 3 words to node 1 (two messages), node 2 sends 1 word to 0.
        let outboxes = vec![
            vec![(1, vec![1, 2]), (1, vec![3])],
            vec![],
            vec![(0, vec![9])],
        ];
        let inboxes = clique.exchange(outboxes).unwrap();
        assert_eq!(clique.ledger().total_rounds(), 3);
        assert_eq!(inboxes[1].len(), 2);
        assert_eq!(inboxes[1][0].src, 0);
        assert_eq!(inboxes[0][0].payload, vec![9]);
    }

    #[test]
    fn route_within_capacity_costs_lenzen_constant() {
        let mut clique = Clique::new(4);
        // Every node sends 4 = n words scattered around: one routing batch.
        let outboxes: Vec<Vec<(NodeId, Words)>> = (0..4)
            .map(|u| (0..4).map(|v| (v, vec![(u * 4 + v) as u64])).collect())
            .collect();
        clique.route(outboxes).unwrap();
        assert_eq!(
            clique.ledger().total_rounds(),
            clique.config().lenzen_rounds
        );
    }

    #[test]
    fn route_batches_when_overloaded() {
        let mut clique = Clique::new(4);
        // Node 0 sends 9 words to node 1: receive load 9 > n=4 => 3 batches.
        let outboxes = vec![
            vec![(1, (0..9).collect::<Vec<u64>>())],
            vec![],
            vec![],
            vec![],
        ];
        clique.route(outboxes).unwrap();
        assert_eq!(
            clique.ledger().total_rounds(),
            3 * clique.config().lenzen_rounds
        );
    }

    #[test]
    fn route_strict_rejects_overload() {
        let mut clique = Clique::new(4);
        let outboxes = vec![
            vec![(1, (0..9).collect::<Vec<u64>>())],
            vec![],
            vec![],
            vec![],
        ];
        let err = clique.route_strict(outboxes).unwrap_err();
        match err {
            ModelError::CongestionExceeded { node, words, .. } => {
                assert_eq!(node, 0);
                assert_eq!(words, 9);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn broadcast_from_cost_scales_with_payload() {
        let mut clique = Clique::new(5);
        clique.broadcast_from(2, &vec![7]).unwrap();
        assert_eq!(clique.ledger().total_rounds(), 1);
        let before = clique.ledger().total_rounds();
        clique.broadcast_from(0, &(0..8).collect()).unwrap();
        // ceil(8/4) = 2 scatter + 2 broadcast rounds.
        assert_eq!(clique.ledger().total_rounds() - before, 4);
    }

    #[test]
    fn allgather_concatenates_in_node_order() {
        let mut clique = Clique::new(3);
        let (all, offsets) = clique.allgather(&[vec![1, 2], vec![], vec![3]]).unwrap();
        assert_eq!(all, vec![1, 2, 3]);
        assert_eq!(offsets, vec![0, 2, 2, 3]);
        // total 3 words, max contribution 2: ceil(2/3)*lenzen + ceil(3/3) = 2+1.
        assert_eq!(clique.ledger().total_rounds(), 3);
    }

    #[test]
    fn gather_to_costs_total_over_links() {
        let mut clique = Clique::new(3);
        clique
            .gather_to(0, &[vec![], vec![1, 2, 3], vec![4]])
            .unwrap();
        assert_eq!(clique.ledger().total_rounds(), 2); // ceil(4/2)
    }

    #[test]
    fn phase_attribution() {
        let mut clique = Clique::new(2);
        clique.phase("outer", |c| {
            c.broadcast_all(&[1, 2]).unwrap();
            c.phase("inner", |c| c.charge_oracle(5));
        });
        assert_eq!(clique.ledger().phase("outer").implemented, 1);
        assert_eq!(clique.ledger().phase("outer/inner").charged, 5);
        assert_eq!(clique.ledger().total_rounds(), 6);
    }

    #[test]
    fn invalid_destination_is_rejected() {
        let mut clique = Clique::new(2);
        let err = clique
            .exchange(vec![vec![(5, vec![1])], vec![]])
            .unwrap_err();
        assert_eq!(err, ModelError::InvalidNode { node: 5, n: 2 });
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn tiny_clique_panics() {
        let _ = Clique::new(1);
    }

    #[test]
    fn broadcast_all_words_costs_longest_vector() {
        let mut clique = Clique::new(3);
        let view = clique
            .broadcast_all_words(&[vec![1, 2, 3], vec![], vec![9]])
            .unwrap();
        assert_eq!(view[0], vec![1, 2, 3]);
        assert_eq!(view[2], vec![9]);
        assert_eq!(clique.ledger().total_rounds(), 3);
    }

    #[test]
    fn empty_exchange_is_free() {
        let mut clique = Clique::new(3);
        let inboxes = clique.exchange(vec![vec![], vec![], vec![]]).unwrap();
        assert!(inboxes.iter().all(|i| i.is_empty()));
        assert_eq!(clique.ledger().total_rounds(), 0);
        let inboxes = clique.route(vec![vec![], vec![], vec![]]).unwrap();
        assert!(inboxes.iter().all(|i| i.is_empty()));
        assert_eq!(clique.ledger().total_rounds(), 0);
    }

    #[test]
    fn allgather_balances_skewed_contributions() {
        let mut clique = Clique::new(4);
        // One node contributes 12 words, others none: balancing pays
        // lenzen·ceil(12/4) = 3 batches, broadcast pays ceil(12/4) = 3.
        let (all, offsets) = clique
            .allgather(&[(0..12).collect(), vec![], vec![], vec![]])
            .unwrap();
        assert_eq!(all.len(), 12);
        assert_eq!(offsets, vec![0, 12, 12, 12, 12]);
        assert_eq!(
            clique.ledger().total_rounds(),
            3 * clique.config().lenzen_rounds + 3
        );
    }

    #[test]
    fn sort_produces_global_sorted_blocks() {
        let mut clique = Clique::new(3);
        let out = clique.sort(&[vec![9, 1], vec![5], vec![3, 7, 2]]).unwrap();
        let flat: Vec<u64> = out.iter().flatten().copied().collect();
        assert_eq!(flat, vec![1, 2, 3, 5, 7, 9]);
        assert_eq!(out[0], vec![1, 2]); // blocks of 2 each
        assert_eq!(out[2], vec![7, 9]);
        // max per-node keys 3 ≤ n=3: one batch.
        assert_eq!(
            clique.ledger().total_rounds(),
            clique.config().lenzen_rounds
        );
    }

    #[test]
    fn sort_batches_large_inputs() {
        let mut clique = Clique::new(2);
        let out = clique.sort(&[(0..5).rev().collect(), vec![]]).unwrap();
        assert_eq!(out[0], vec![0, 1, 2]); // 5 keys: blocks 3 + 2
        assert_eq!(out[1], vec![3, 4]);
        // ceil(5/2) = 3 batches.
        assert_eq!(
            clique.ledger().total_rounds(),
            3 * clique.config().lenzen_rounds
        );
    }

    #[test]
    fn determinism_of_delivery_order() {
        let build = || {
            let mut clique = Clique::new(4);
            let outboxes = vec![
                vec![(3, vec![1])],
                vec![(3, vec![2])],
                vec![(3, vec![3])],
                vec![],
            ];
            clique.route(outboxes).unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_eq!(
            a[3].iter().map(|e| e.src).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }
}
