//! [`AdversaryComm`]: a wrapping transport simulating *node-level*
//! adversaries — silent nodes, crash–recover nodes, and value-corrupting
//! nodes — under a seeded deterministic [`AdversarySchedule`].
//!
//! [`crate::FaultComm`] perturbs *calls* (a primitive fails, the caller
//! sees a typed error); this transport perturbs *nodes*, the
//! honest/faulty/malicious taxonomy of Byzantine-tolerant protocol
//! suites. Three strategies, all deterministic:
//!
//! * **silent** ([`AdversaryStrategy::Silent`]) — the node drops every
//!   outbound payload, forever. The congested clique is synchronous, so
//!   an expected-but-missing message is observable the round it fails to
//!   arrive: any primitive in which a silent node would have sent a
//!   nonempty payload returns [`ModelError::NodeSilenced`] instead of
//!   delivering partial data. Omission faults are therefore *detectable
//!   by construction* — they can never silently corrupt a result.
//! * **crash–recover** ([`AdversaryStrategy::CrashRecover`]) — silent
//!   exactly while the ledger's total round count lies inside the
//!   scheduled `[from_round, until_round)` window, honest otherwise.
//!   Because round accounting is bitwise identical across substrates,
//!   the crash window opens and closes at the same calls on a
//!   [`crate::Clique`] and a [`crate::ThreadedComm`].
//! * **value-corrupting** ([`AdversaryStrategy::Corrupt`]) — the node's
//!   payloads are delivered with one deterministically chosen word
//!   bit-flipped (low bit, drawn from a SplitMix64 stream keyed by the
//!   schedule seed). Payload *lengths* never change, so congestion
//!   accounting and round charges are untouched — the corruption is
//!   invisible to the transport layer, exactly the fault a differential
//!   oracle (not the model) must catch.
//!
//! Every perturbation is recorded in a per-node, per-phase adversary
//! ledger exported as deterministic JSON ([`AdversaryComm::events_json`],
//! mirroring [`crate::TracingComm`]'s style), and the wrapper stacks
//! cleanly with `TracingComm`/`FaultComm` over any substrate.

use std::collections::BTreeMap;

use crate::util::{json_escape, SplitMix64};
use crate::{Communicator, Envelope, ModelError, NodeId, Words};

/// Per-node behavior under an [`AdversarySchedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdversaryStrategy {
    /// Follows the protocol (the default for unscheduled nodes).
    Honest,
    /// Drops every outbound payload, forever. Detectable: the first
    /// primitive expecting the node to send fails with
    /// [`ModelError::NodeSilenced`].
    Silent,
    /// Dead (as [`AdversaryStrategy::Silent`]) while the ledger's total
    /// rounds lie in `[from_round, until_round)`; honest otherwise.
    CrashRecover {
        /// First ledger round (inclusive) of the crash window.
        from_round: u64,
        /// First ledger round past the crash window (exclusive).
        until_round: u64,
    },
    /// Delivers payloads with one deterministically drawn word
    /// bit-flipped per primitive call — same word counts, same rounds,
    /// silently wrong data. Undetectable at the transport layer.
    Corrupt,
}

impl AdversaryStrategy {
    /// Short stable label used by the events ledger and its JSON export.
    pub fn label(&self) -> &'static str {
        match self {
            AdversaryStrategy::Honest => "honest",
            AdversaryStrategy::Silent => "silent",
            AdversaryStrategy::CrashRecover { .. } => "crash_recover",
            AdversaryStrategy::Corrupt => "corrupt",
        }
    }
}

/// A seeded deterministic assignment of [`AdversaryStrategy`]s to nodes.
/// Nodes without an entry are honest. Two equal schedules drive two
/// bitwise-identical adversary runs, on any substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversarySchedule {
    /// Seed of the corruption word-draw stream (SplitMix64).
    pub seed: u64,
    strategies: BTreeMap<NodeId, AdversaryStrategy>,
}

impl AdversarySchedule {
    /// An all-honest schedule with the given corruption-stream seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            strategies: BTreeMap::new(),
        }
    }

    /// Builder: assigns `strategy` to `node` (replacing any previous
    /// assignment; [`AdversaryStrategy::Honest`] removes the entry).
    pub fn with(mut self, node: NodeId, strategy: AdversaryStrategy) -> Self {
        if strategy == AdversaryStrategy::Honest {
            self.strategies.remove(&node);
        } else {
            self.strategies.insert(node, strategy);
        }
        self
    }

    /// The strategy assigned to `node` (honest when unscheduled).
    pub fn strategy(&self, node: NodeId) -> &AdversaryStrategy {
        self.strategies
            .get(&node)
            .unwrap_or(&AdversaryStrategy::Honest)
    }

    /// The scheduled (non-honest) nodes with their strategies, in node
    /// order.
    pub fn scheduled(&self) -> impl Iterator<Item = (NodeId, &AdversaryStrategy)> {
        self.strategies.iter().map(|(&n, s)| (n, s))
    }

    /// True if every node is honest.
    pub fn is_honest(&self) -> bool {
        self.strategies.is_empty()
    }
}

/// What an adversarial node did in one primitive call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdversaryAction {
    /// The node withheld a scheduled payload; the primitive failed with
    /// [`ModelError::NodeSilenced`].
    Omission,
    /// One payload word was bit-flipped before delivery.
    Corruption {
        /// Index of the flipped word within the node's payloads of this
        /// call (message-major, word-minor).
        word_index: usize,
    },
}

impl AdversaryAction {
    fn label(&self) -> &'static str {
        match self {
            AdversaryAction::Omission => "omission",
            AdversaryAction::Corruption { .. } => "corruption",
        }
    }
}

/// One recorded adversary event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversaryEvent {
    /// Position in the global event order (0-based).
    pub seq: usize,
    /// The adversarial node.
    pub node: NodeId,
    /// Strategy label of the node at the time of the event.
    pub strategy: &'static str,
    /// What the node did.
    pub action: AdversaryAction,
    /// Primitive the event occurred in.
    pub primitive: &'static str,
    /// `/`-joined ledger phase path the event is nested under.
    pub phase: String,
    /// Ledger total rounds when the event fired.
    pub round: u64,
}

/// A [`Communicator`] decorator executing a node-level
/// [`AdversarySchedule`] deterministically.
///
/// The perturbation sequence is a pure function of the schedule and the
/// call sequence (payload shapes and ledger rounds) — never of the
/// substrate — so an adversary run over [`crate::Clique`] and over
/// [`crate::ThreadedComm`] at any worker count produces bitwise
/// identical results, events, and [`AdversaryComm::events_json`].
///
/// # Example
///
/// ```
/// use cc_model::{
///     AdversaryComm, AdversarySchedule, AdversaryStrategy, Clique, Communicator, ModelError,
/// };
///
/// let schedule = AdversarySchedule::new(7).with(2, AdversaryStrategy::Silent);
/// let mut comm = AdversaryComm::new(Clique::new(4), schedule);
/// // Node 2 must broadcast but is silent: detected, not corrupted.
/// assert!(matches!(
///     comm.broadcast_all(&[1, 2, 3, 4]),
///     Err(ModelError::NodeSilenced { node: 2, .. })
/// ));
/// assert_eq!(comm.faults_observed(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct AdversaryComm<C: Communicator> {
    inner: C,
    schedule: AdversarySchedule,
    rng: SplitMix64,
    events: Vec<AdversaryEvent>,
    /// Event counts per `/`-joined phase path, per node.
    phases: BTreeMap<String, BTreeMap<NodeId, u64>>,
    omissions: u64,
    corruptions: u64,
}

impl<C: Communicator> AdversaryComm<C> {
    /// Wraps `inner` under the given schedule.
    pub fn new(inner: C, schedule: AdversarySchedule) -> Self {
        let mut rng = SplitMix64::new(schedule.seed);
        rng.next_u64(); // the pinned corruption streams start at the second draw
        Self {
            inner,
            schedule,
            rng,
            events: Vec::new(),
            phases: BTreeMap::new(),
            omissions: 0,
            corruptions: 0,
        }
    }

    /// Unwraps, discarding the schedule and events.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// The schedule in force.
    pub fn schedule(&self) -> &AdversarySchedule {
        &self.schedule
    }

    /// The recorded adversary events, in call order.
    pub fn events(&self) -> &[AdversaryEvent] {
        &self.events
    }

    /// Omission events recorded so far (silenced sends).
    pub fn omissions(&self) -> u64 {
        self.omissions
    }

    /// Corruption events recorded so far (bit-flipped words).
    pub fn corruptions(&self) -> u64 {
        self.corruptions
    }

    /// Serializes the adversary ledger — schedule, totals, per-phase
    /// per-node event counts, and the event list — as deterministic JSON
    /// (byte-identical across runs and substrates of a deterministic
    /// workload, mirroring [`crate::TracingComm::trace_json`]).
    pub fn events_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"cc-model/adversary-v1\",\n");
        out.push_str(&format!("  \"n\": {},\n", self.inner.n()));
        out.push_str(&format!("  \"seed\": {},\n", self.schedule.seed));
        let strategies: Vec<String> = self
            .schedule
            .scheduled()
            .map(|(node, s)| format!("{{\"node\": {node}, \"strategy\": \"{}\"}}", s.label()))
            .collect();
        out.push_str(&format!("  \"strategies\": [{}],\n", strategies.join(", ")));
        out.push_str(&format!(
            "  \"events_total\": {},\n  \"omissions\": {},\n  \"corruptions\": {},\n",
            self.events.len(),
            self.omissions,
            self.corruptions
        ));
        out.push_str("  \"phases\": [\n");
        let rows: Vec<String> = self
            .phases
            .iter()
            .map(|(phase, nodes)| {
                let per_node: Vec<String> = nodes
                    .iter()
                    .map(|(node, count)| format!("{{\"node\": {node}, \"events\": {count}}}"))
                    .collect();
                format!(
                    "    {{\"phase\": \"{}\", \"nodes\": [{}]}}",
                    json_escape(phase),
                    per_node.join(", ")
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n");
        out.push_str("  \"events\": [\n");
        let rows: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                let word = match e.action {
                    AdversaryAction::Corruption { word_index } => word_index as i64,
                    AdversaryAction::Omission => -1,
                };
                format!(
                    "    {{\"seq\": {}, \"node\": {}, \"strategy\": \"{}\", \"action\": \"{}\", \
                     \"primitive\": \"{}\", \"phase\": \"{}\", \"round\": {}, \"word_index\": {}}}",
                    e.seq,
                    e.node,
                    e.strategy,
                    e.action.label(),
                    e.primitive,
                    json_escape(&e.phase),
                    e.round,
                    word
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// True if `node` is currently withholding messages (silent, or
    /// crash–recover inside its window at the current ledger round).
    fn withholding(&self, node: NodeId) -> bool {
        match self.schedule.strategy(node) {
            AdversaryStrategy::Silent => true,
            AdversaryStrategy::CrashRecover {
                from_round,
                until_round,
            } => {
                let round = self.inner.ledger().total_rounds();
                round >= *from_round && round < *until_round
            }
            _ => false,
        }
    }

    fn corrupting(&self, node: NodeId) -> bool {
        *self.schedule.strategy(node) == AdversaryStrategy::Corrupt
    }

    fn record(&mut self, node: NodeId, action: AdversaryAction, primitive: &'static str) {
        let phase = self.inner.ledger().current_phase().to_string();
        let round = self.inner.ledger().total_rounds();
        match action {
            AdversaryAction::Omission => self.omissions += 1,
            AdversaryAction::Corruption { .. } => self.corruptions += 1,
        }
        *self
            .phases
            .entry(phase.clone())
            .or_default()
            .entry(node)
            .or_insert(0) += 1;
        self.events.push(AdversaryEvent {
            seq: self.events.len(),
            node,
            strategy: self.schedule.strategy(node).label(),
            action,
            primitive,
            phase,
            round,
        });
    }

    /// Fails the call with the detected omission of `node`.
    fn silenced(&mut self, node: NodeId, primitive: &'static str) -> ModelError {
        let round = self.inner.ledger().total_rounds();
        self.record(node, AdversaryAction::Omission, primitive);
        ModelError::NodeSilenced { node, round }
    }

    /// Flips the low bit of one deterministically drawn word among
    /// `node`'s nonempty payloads of this call. `payloads` indexes the
    /// node's messages (message-major); lengths are never changed, so
    /// congestion accounting is untouched.
    fn corrupt_payloads(
        &mut self,
        node: NodeId,
        payloads: &mut [&mut Words],
        primitive: &'static str,
    ) {
        let total: usize = payloads.iter().map(|p| p.len()).sum();
        if total == 0 {
            return;
        }
        let word_index = self.rng.below(total);
        let mut remaining = word_index;
        for payload in payloads.iter_mut() {
            if remaining < payload.len() {
                payload[remaining] ^= 1;
                break;
            }
            remaining -= payload.len();
        }
        self.record(node, AdversaryAction::Corruption { word_index }, primitive);
    }

    /// Screens an outbox-style message set: a withholding node with any
    /// nonempty payload detects as an omission; corrupting nodes get one
    /// word flipped in place.
    fn screen_outboxes(
        &mut self,
        outboxes: &mut [Vec<(NodeId, Words)>],
        primitive: &'static str,
    ) -> Result<(), ModelError> {
        if self.schedule.is_honest() {
            return Ok(());
        }
        for (src, outbox) in outboxes.iter_mut().enumerate() {
            let sends = outbox.iter().any(|(_, p)| !p.is_empty());
            if !sends {
                continue;
            }
            if self.withholding(src) {
                return Err(self.silenced(src, primitive));
            }
            if self.corrupting(src) {
                let mut payloads: Vec<&mut Words> = outbox
                    .iter_mut()
                    .map(|(_, p)| p)
                    .filter(|p| !p.is_empty())
                    .collect();
                self.corrupt_payloads(src, &mut payloads, primitive);
            }
        }
        Ok(())
    }

    /// Screens a per-node word-vector set (broadcast family, allgather,
    /// sort, gather): returns the possibly corrupted rows to pass down,
    /// or the detected omission.
    fn screen_vectors(
        &mut self,
        per_node: &[Words],
        primitive: &'static str,
    ) -> Result<Option<Vec<Words>>, ModelError> {
        if self.schedule.is_honest() {
            return Ok(None);
        }
        let mut owned: Option<Vec<Words>> = None;
        for (node, words) in per_node.iter().enumerate() {
            if words.is_empty() {
                continue;
            }
            if self.withholding(node) {
                return Err(self.silenced(node, primitive));
            }
            if self.corrupting(node) {
                let rows = owned.get_or_insert_with(|| per_node.to_vec());
                let mut payloads = vec![&mut rows[node]];
                self.corrupt_payloads(node, &mut payloads, primitive);
            }
        }
        Ok(owned)
    }
}

impl<C: Communicator> crate::Decorator for AdversaryComm<C> {
    type Inner = C;

    fn inner(&self) -> &C {
        &self.inner
    }

    fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    fn faults_observed(&self) -> u64 {
        self.events.len() as u64 + self.inner.faults_observed()
    }

    fn exchange(
        &mut self,
        mut outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        self.screen_outboxes(&mut outboxes, "exchange")?;
        self.inner.exchange(outboxes)
    }

    fn route(
        &mut self,
        mut outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        self.screen_outboxes(&mut outboxes, "route")?;
        self.inner.route(outboxes)
    }

    fn route_strict(
        &mut self,
        mut outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        self.screen_outboxes(&mut outboxes, "route_strict")?;
        self.inner.route_strict(outboxes)
    }

    fn broadcast_all(&mut self, values: &[u64]) -> Result<Vec<u64>, ModelError> {
        // Every node is a one-word sender here, so a withholding node is
        // always detected, regardless of its value.
        if !self.schedule.is_honest() {
            let mut owned: Option<Vec<u64>> = None;
            for node in 0..values.len().min(self.inner.n()) {
                if self.withholding(node) {
                    return Err(self.silenced(node, "broadcast_all"));
                }
                if self.corrupting(node) {
                    let vals = owned.get_or_insert_with(|| values.to_vec());
                    self.rng.next_u64(); // one-word draw
                    vals[node] ^= 1;
                    self.record(
                        node,
                        AdversaryAction::Corruption { word_index: 0 },
                        "broadcast_all",
                    );
                }
            }
            if let Some(vals) = owned {
                return self.inner.broadcast_all(&vals);
            }
        }
        self.inner.broadcast_all(values)
    }

    fn broadcast_all_words(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        match self.screen_vectors(per_node, "broadcast_all_words")? {
            Some(rows) => self.inner.broadcast_all_words(&rows),
            None => self.inner.broadcast_all_words(per_node),
        }
    }

    fn broadcast_from(&mut self, src: NodeId, words: &Words) -> Result<Words, ModelError> {
        if !words.is_empty() && self.withholding(src) {
            return Err(self.silenced(src, "broadcast_from"));
        }
        if !words.is_empty() && self.corrupting(src) {
            let mut row = words.clone();
            let mut payloads = vec![&mut row];
            self.corrupt_payloads(src, &mut payloads, "broadcast_from");
            return self.inner.broadcast_from(src, &row);
        }
        self.inner.broadcast_from(src, words)
    }

    fn allgather(&mut self, per_node: &[Words]) -> Result<(Words, Vec<usize>), ModelError> {
        match self.screen_vectors(per_node, "allgather")? {
            Some(rows) => self.inner.allgather(&rows),
            None => self.inner.allgather(per_node),
        }
    }

    fn sort(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        match self.screen_vectors(per_node, "sort")? {
            Some(rows) => self.inner.sort(&rows),
            None => self.inner.sort(per_node),
        }
    }

    fn gather_to(&mut self, dst: NodeId, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        match self.screen_vectors(per_node, "gather_to")? {
            Some(rows) => self.inner.gather_to(dst, &rows),
            None => self.inner.gather_to(dst, per_node),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Clique;

    fn one_word_outboxes(n: usize, src: NodeId) -> Vec<Vec<(NodeId, Words)>> {
        let mut out = vec![Vec::new(); n];
        out[src].push(((src + 1) % n, vec![42]));
        out
    }

    #[test]
    fn honest_schedule_is_transparent() {
        let mut bare = Clique::new(4);
        let mut wrapped = AdversaryComm::new(Clique::new(4), AdversarySchedule::new(3));
        let a = bare.broadcast_all(&[1, 2, 3, 4]).unwrap();
        let b = wrapped.broadcast_all(&[1, 2, 3, 4]).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            bare.ledger().total_rounds(),
            wrapped.ledger().total_rounds()
        );
        assert_eq!(wrapped.faults_observed(), 0);
        assert!(wrapped.events().is_empty());
    }

    #[test]
    fn silent_node_is_detected_when_it_must_send() {
        let schedule = AdversarySchedule::new(1).with(2, AdversaryStrategy::Silent);
        let mut comm = AdversaryComm::new(Clique::new(4), schedule);
        // Node 2 has no payload: the call passes through untouched.
        assert!(comm.route(one_word_outboxes(4, 0)).is_ok());
        assert_eq!(comm.omissions(), 0);
        // Node 2 must send: detected as a typed omission.
        let err = comm.route(one_word_outboxes(4, 2)).unwrap_err();
        assert!(matches!(err, ModelError::NodeSilenced { node: 2, .. }));
        assert_eq!(comm.omissions(), 1);
        // broadcast_all makes every node a sender: always detected.
        let err = comm.broadcast_all(&[0, 0, 0, 0]).unwrap_err();
        assert!(matches!(err, ModelError::NodeSilenced { node: 2, .. }));
        assert_eq!(comm.faults_observed(), 2);
    }

    #[test]
    fn crash_recover_is_dead_only_inside_its_window() {
        let schedule = AdversarySchedule::new(1).with(
            1,
            AdversaryStrategy::CrashRecover {
                from_round: 0,
                until_round: 2,
            },
        );
        let mut comm = AdversaryComm::new(Clique::new(4), schedule);
        // Round 0: inside the window — dead.
        assert!(comm.broadcast_all(&[9, 9, 9, 9]).is_err());
        // Charging rounds moves time forward past the window.
        comm.charge_implemented(2);
        assert_eq!(comm.broadcast_all(&[9, 9, 9, 9]).unwrap(), vec![9; 4]);
        assert_eq!(comm.omissions(), 1);
    }

    #[test]
    fn corruption_flips_one_low_bit_and_keeps_lengths() {
        let schedule = AdversarySchedule::new(5).with(0, AdversaryStrategy::Corrupt);
        let mut comm = AdversaryComm::new(Clique::new(4), schedule);
        let view = comm.broadcast_all(&[4, 5, 6, 7]).unwrap();
        assert_eq!(view[0], 5, "node 0's word has its low bit flipped");
        assert_eq!(&view[1..], &[5, 6, 7], "honest words untouched");
        assert_eq!(comm.corruptions(), 1);

        // Multi-word payloads: exactly one word differs, length equal.
        let out = comm
            .route(vec![vec![(1, vec![10, 20, 30])], vec![], vec![], vec![]])
            .unwrap();
        let got = &out[1][0].payload;
        assert_eq!(got.len(), 3);
        let diffs = got
            .iter()
            .zip(&[10u64, 20, 30])
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1, "exactly one word corrupted: {got:?}");
        assert_eq!(comm.faults_observed(), 2);
    }

    #[test]
    fn corruption_stream_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let schedule = AdversarySchedule::new(seed).with(0, AdversaryStrategy::Corrupt);
            let mut comm = AdversaryComm::new(Clique::new(4), schedule);
            let mut words = Vec::new();
            for k in 0..8u64 {
                let out = comm
                    .route(vec![
                        vec![(1, vec![k, k + 100, k + 200, k + 300, k + 400])],
                        vec![],
                        vec![],
                        vec![],
                    ])
                    .unwrap();
                words.extend(out[1][0].payload.clone());
            }
            (words, comm.events_json())
        };
        assert_eq!(run(11), run(11), "same seed, same corruption");
        assert_ne!(run(11).0, run(12).0, "different seeds differ");
    }

    #[test]
    fn events_json_is_deterministic_and_structured() {
        let run = || {
            let schedule = AdversarySchedule::new(5)
                .with(0, AdversaryStrategy::Corrupt)
                .with(3, AdversaryStrategy::Silent);
            let mut comm = AdversaryComm::new(Clique::new(4), schedule);
            comm.phase("demo", |comm| {
                comm.broadcast_all(&[1, 2, 3, 4]).unwrap_err();
            });
            comm.events_json()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("\"schema\": \"cc-model/adversary-v1\""));
        assert!(a.contains("\"phase\": \"demo\""));
        assert!(a.contains("\"action\": \"omission\""));
        assert!(a.contains("\"strategy\": \"silent\""));
    }

    #[test]
    fn empty_payloads_from_withholding_nodes_are_tolerated() {
        let schedule = AdversarySchedule::new(1).with(1, AdversaryStrategy::Silent);
        let mut comm = AdversaryComm::new(Clique::new(4), schedule);
        // Node 1 contributes an empty vector everywhere: nothing to drop.
        let rows = vec![vec![7], vec![], vec![8], vec![9]];
        assert!(comm.broadcast_all_words(&rows).is_ok());
        assert!(comm.allgather(&rows).is_ok());
        assert!(comm.gather_to(0, &rows).is_ok());
        assert!(comm.broadcast_from(0, &vec![1, 2]).is_ok());
        assert_eq!(comm.faults_observed(), 0);
        // But a nonempty contribution from node 1 detects.
        let rows = vec![vec![7], vec![1], vec![8], vec![9]];
        assert!(matches!(
            comm.broadcast_all_words(&rows),
            Err(ModelError::NodeSilenced { node: 1, .. })
        ));
    }
}
