//! The per-node rules of [`FaultComm`]: silent, crash–recover and
//! value-corrupting nodes, the honest/faulty/malicious taxonomy of
//! Byzantine-tolerant protocol suites. Node screening runs after the
//! per-call checks and before the inner call, on the payloads each node
//! is about to send:
//!
//! * **silent** ([`FaultRule::Silent`]) — the node drops every outbound
//!   payload, forever. The congested clique is synchronous, so an
//!   expected-but-missing message is observable the round it fails to
//!   arrive: any primitive in which a silent node would have sent a
//!   nonempty payload returns [`ModelError::NodeSilenced`] instead of
//!   delivering partial data. Omission faults are therefore *detectable
//!   by construction* — they can never silently corrupt a result.
//! * **crash–recover** ([`FaultRule::CrashRecover`]) — silent exactly
//!   while the ledger's total round count lies inside the
//!   `[from_round, until_round)` window, honest otherwise. Because round
//!   accounting is bitwise identical across substrates, the crash window
//!   opens and closes at the same calls on a [`crate::Clique`] and a
//!   [`crate::ThreadedComm`].
//! * **value-corrupting** ([`FaultRule::Corrupt`]) — the node's payloads
//!   are delivered with one deterministically chosen word bit-flipped
//!   (low bit, drawn from the plan's corruption stream). Payload
//!   *lengths* never change, so congestion accounting and round charges
//!   are untouched — the corruption is invisible to the transport layer,
//!   exactly the fault a differential oracle (not the model) must catch.

use std::borrow::Cow;

use crate::fault::FaultAction;
use crate::{Communicator, FaultComm, FaultRule, ModelError, NodeId, Words};

impl<C: Communicator> FaultComm<C> {
    pub(crate) fn has_node_rules(&self) -> bool {
        self.plan.rules.iter().any(|r| r.node().is_some())
    }

    /// Step 4: screens each sender's payloads of this call, in node
    /// order. A withholding node (silent, or crashed at the current
    /// ledger round) with any nonempty payload fails the call as a
    /// detected omission; a corrupting node gets the low bit of one
    /// drawn word flipped in place (`word_index` counts over its nonempty
    /// payloads, message-major).
    pub(crate) fn screen<'a>(
        &mut self,
        senders: impl IntoIterator<Item = (NodeId, Vec<&'a mut Words>)>,
        primitive: &'static str,
    ) -> Result<(), ModelError> {
        if !self.has_node_rules() {
            return Ok(());
        }
        let round = self.inner.ledger().total_rounds();
        for (node, mut payloads) in senders {
            payloads.retain(|p| !p.is_empty());
            let rule = match self.plan.node_rule(node) {
                _ if payloads.is_empty() => continue,
                Some(FaultRule::Corrupt(_)) => {
                    let total = payloads.iter().map(|p| p.len()).sum();
                    let word_index = self.corrupt_rng.below(total);
                    let mut remaining = word_index;
                    for payload in payloads.iter_mut() {
                        if remaining < payload.len() {
                            payload[remaining] ^= 1;
                            break;
                        }
                        remaining -= payload.len();
                    }
                    let action = FaultAction::Corruption { word_index };
                    self.record(Some(node), "corrupt", action, primitive);
                    continue;
                }
                Some(rule @ FaultRule::Silent(_)) => rule.label(),
                Some(
                    rule @ FaultRule::CrashRecover {
                        from_round,
                        until_round,
                        ..
                    },
                ) if (*from_round..*until_round).contains(&round) => rule.label(),
                _ => continue,
            };
            self.record(Some(node), rule, FaultAction::Omission, primitive);
            return Err(ModelError::NodeSilenced { node, round });
        }
        Ok(())
    }

    /// [`FaultComm::screen`] for a per-node word-vector set (broadcast
    /// family, allgather, sort, gather): returns the rows to pass down,
    /// copied only when node rules are in force.
    pub(crate) fn screen_rows<'a>(
        &mut self,
        per_node: &'a [Words],
        primitive: &'static str,
    ) -> Result<Cow<'a, [Words]>, ModelError> {
        if !self.has_node_rules() {
            return Ok(Cow::Borrowed(per_node));
        }
        let mut rows = per_node.to_vec();
        self.screen(
            rows.iter_mut()
                .enumerate()
                .map(|(node, row)| (node, vec![row])),
            primitive,
        )?;
        Ok(Cow::Owned(rows))
    }
}

#[cfg(test)]
mod tests {
    use crate::{Clique, Communicator, FaultComm, FaultPlan, FaultRule, ModelError, NodeId, Words};

    fn one_word_outboxes(n: usize, src: NodeId) -> Vec<Vec<(NodeId, Words)>> {
        let mut out = vec![Vec::new(); n];
        out[src].push(((src + 1) % n, vec![42]));
        out
    }

    #[test]
    fn honest_schedule_is_transparent() {
        let mut bare = Clique::new(4);
        let mut wrapped = FaultComm::new(Clique::new(4), FaultPlan::new(3));
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
        let plan = FaultPlan::new(1).with(FaultRule::Silent(2));
        let mut comm = FaultComm::new(Clique::new(4), plan);
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
        let plan = FaultPlan::new(1).with(FaultRule::CrashRecover {
            node: 1,
            from_round: 0,
            until_round: 2,
        });
        let mut comm = FaultComm::new(Clique::new(4), plan);
        // Round 0: inside the window — dead.
        assert!(comm.broadcast_all(&[9, 9, 9, 9]).is_err());
        // Charging rounds moves time forward past the window.
        comm.charge_implemented(2);
        assert_eq!(comm.broadcast_all(&[9, 9, 9, 9]).unwrap(), vec![9; 4]);
        assert_eq!(comm.omissions(), 1);
    }

    #[test]
    fn corruption_flips_one_low_bit_and_keeps_lengths() {
        let plan = FaultPlan::new(5).with(FaultRule::Corrupt(0));
        let mut comm = FaultComm::new(Clique::new(4), plan);
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
            let plan = FaultPlan::new(seed).with(FaultRule::Corrupt(0));
            let mut comm = FaultComm::new(Clique::new(4), plan);
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
            let plan = FaultPlan::new(5)
                .with(FaultRule::Corrupt(0))
                .with(FaultRule::Silent(3));
            let mut comm = FaultComm::new(Clique::new(4), plan);
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
        let plan = FaultPlan::new(1).with(FaultRule::Silent(1));
        let mut comm = FaultComm::new(Clique::new(4), plan);
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
