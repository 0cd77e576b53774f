//! Node-centric programming: write congested clique algorithms as
//! per-node state machines instead of driver-style global code.
//!
//! The algorithms of this repository are driven globally (the driver holds
//! all node states and issues the exact message pattern, which is what the
//! round ledger charges). For users who want the *strict* distributed
//! discipline — a node computes its next messages only from its own state
//! and inbox — this module runs a [`NodeProgram`] per node in synchronous
//! super-rounds:
//!
//! 1. every non-halted node is offered its inbox and returns an outbox;
//! 2. the message set is delivered through [`Communicator::route`]
//!    (rounds charged by the substrate's rules);
//! 3. repeat until every node halts.
//!
//! ```
//! use cc_model::{Clique, Envelope, NodeCtx, NodeProgram, NodeId, Words, run_node_programs};
//!
//! /// Every node learns the minimum of all inputs in one broadcast round.
//! struct MinConsensus { value: u64, best: u64, done: bool }
//!
//! impl NodeProgram for MinConsensus {
//!     type Output = u64;
//!     fn round(&mut self, ctx: &NodeCtx, inbox: &[Envelope]) -> Vec<(NodeId, Words)> {
//!         if ctx.round == 0 {
//!             return (0..ctx.n).filter(|&v| v != ctx.id).map(|v| (v, vec![self.value])).collect();
//!         }
//!         self.best = inbox.iter().map(|e| e.payload[0]).chain([self.value]).min().unwrap();
//!         self.done = true;
//!         Vec::new()
//!     }
//!     fn halted(&self) -> bool { self.done }
//!     fn output(self) -> u64 { self.best }
//! }
//!
//! let mut clique = Clique::new(4);
//! let programs = [7u64, 3, 9, 5].map(|v| MinConsensus { value: v, best: v, done: false });
//! let outs = run_node_programs(&mut clique, programs.into_iter().collect(), 10).unwrap();
//! assert_eq!(outs, vec![3, 3, 3, 3]);
//! ```

use crate::{Communicator, Envelope, ModelError, NodeId, Words};

/// Per-node execution context handed to every [`NodeProgram::round`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCtx {
    /// This node's id.
    pub id: NodeId,
    /// Number of nodes in the clique.
    pub n: usize,
    /// Zero-based super-round counter.
    pub round: usize,
}

/// A per-node state machine executed by [`run_node_programs`].
pub trait NodeProgram {
    /// What the node outputs once the run terminates.
    type Output;

    /// One synchronous super-round: consume the inbox, emit the outbox.
    /// A halted node is not called again (and sends nothing).
    fn round(&mut self, ctx: &NodeCtx, inbox: &[Envelope]) -> Vec<(NodeId, Words)>;

    /// True once this node has terminated. The run ends when all nodes
    /// have halted.
    fn halted(&self) -> bool;

    /// Extracts the node's output.
    fn output(self) -> Self::Output;
}

/// Executes one [`NodeProgram`] per node until all halt (or the round
/// budget runs out), delivering messages through
/// [`Communicator::route`] so every super-round's communication is
/// charged by the substrate's rules.
///
/// # Errors
///
/// Propagates routing errors (e.g. invalid destinations, or
/// [`ModelError::UnicastInBroadcastModel`] in a strict
/// [`crate::BroadcastComm`]) and reports
/// [`ModelError::WrongOutboxCount`]-style misuse via panics; returns
/// the per-node outputs on success.
///
/// # Panics
///
/// Panics if `programs.len() != clique.n()` or the programs fail to halt
/// within `max_rounds` super-rounds.
pub fn run_node_programs<C: Communicator, P: NodeProgram>(
    clique: &mut C,
    mut programs: Vec<P>,
    max_rounds: usize,
) -> Result<Vec<P::Output>, ModelError> {
    assert_eq!(
        programs.len(),
        clique.n(),
        "one program per clique node required"
    );
    let n = clique.n();
    let mut inboxes: Vec<Vec<Envelope>> = vec![Vec::new(); n];
    for round in 0..max_rounds {
        if programs.iter().all(|p| p.halted()) {
            return Ok(programs.into_iter().map(|p| p.output()).collect());
        }
        let mut outboxes: Vec<Vec<(NodeId, Words)>> = Vec::with_capacity(n);
        for (id, program) in programs.iter_mut().enumerate() {
            if program.halted() {
                outboxes.push(Vec::new());
                continue;
            }
            let ctx = NodeCtx { id, n, round };
            outboxes.push(program.round(&ctx, &inboxes[id]));
        }
        inboxes = clique.route(outboxes)?;
    }
    if programs.iter().all(|p| p.halted()) {
        return Ok(programs.into_iter().map(|p| p.output()).collect());
    }
    panic!("node programs failed to halt within {max_rounds} super-rounds");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Clique;

    /// Distributed BFS layering: node 0 is the root; every node learns its
    /// hop distance in the (arbitrary) communication graph given by
    /// `neighbors`. Demonstrates multi-round programs.
    struct Bfs {
        neighbors: Vec<NodeId>,
        dist: Option<u64>,
        announced: bool,
    }

    impl NodeProgram for Bfs {
        type Output = Option<u64>;
        fn round(&mut self, ctx: &NodeCtx, inbox: &[Envelope]) -> Vec<(NodeId, Words)> {
            if ctx.round == 0 && ctx.id == 0 {
                self.dist = Some(0);
            }
            if self.dist.is_none() {
                if let Some(d) = inbox.iter().map(|e| e.payload[0]).min() {
                    self.dist = Some(d + 1);
                }
            }
            match (self.dist, self.announced) {
                (Some(d), false) => {
                    self.announced = true;
                    self.neighbors.iter().map(|&v| (v, vec![d])).collect()
                }
                _ => {
                    // Quiescence detection is global in a real system; for
                    // the test we halt once announced (or unreachable after
                    // the caller's round budget elapses via max_rounds).
                    Vec::new()
                }
            }
        }
        fn halted(&self) -> bool {
            self.announced
        }
        fn output(self) -> Option<u64> {
            self.dist
        }
    }

    #[test]
    fn bfs_layers_on_a_path_topology() {
        let n = 6;
        let mut clique = Clique::new(n);
        let programs: Vec<Bfs> = (0..n)
            .map(|v| {
                let mut neighbors = Vec::new();
                if v > 0 {
                    neighbors.push(v - 1);
                }
                if v + 1 < n {
                    neighbors.push(v + 1);
                }
                Bfs {
                    neighbors,
                    dist: None,
                    announced: false,
                }
            })
            .collect();
        let out = run_node_programs(&mut clique, programs, 20).unwrap();
        for (v, d) in out.iter().enumerate() {
            assert_eq!(*d, Some(v as u64));
        }
        // One routed super-round per BFS layer.
        assert!(clique.ledger().total_rounds() >= n as u64 - 1);
    }

    struct Echo {
        sent: bool,
        got: usize,
    }

    impl NodeProgram for Echo {
        type Output = usize;
        fn round(&mut self, ctx: &NodeCtx, inbox: &[Envelope]) -> Vec<(NodeId, Words)> {
            self.got += inbox.len();
            if !self.sent {
                self.sent = true;
                vec![((ctx.id + 1) % ctx.n, vec![ctx.id as u64])]
            } else {
                Vec::new()
            }
        }
        fn halted(&self) -> bool {
            self.sent && self.got > 0
        }
        fn output(self) -> usize {
            self.got
        }
    }

    #[test]
    fn ring_echo_delivers_every_message() {
        let mut clique = Clique::new(5);
        let programs = (0..5)
            .map(|_| Echo {
                sent: false,
                got: 0,
            })
            .collect();
        let out = run_node_programs(&mut clique, programs, 5).unwrap();
        assert_eq!(out, vec![1; 5]);
    }

    #[test]
    #[should_panic(expected = "failed to halt")]
    fn nontermination_is_detected() {
        struct Forever;
        impl NodeProgram for Forever {
            type Output = ();
            fn round(&mut self, _: &NodeCtx, _: &[Envelope]) -> Vec<(NodeId, Words)> {
                Vec::new()
            }
            fn halted(&self) -> bool {
                false
            }
            fn output(self) {}
        }
        let mut clique = Clique::new(2);
        let _ = run_node_programs(&mut clique, vec![Forever, Forever], 3);
    }

    #[test]
    fn strict_broadcast_rejects_node_programs_that_unicast() {
        struct OneShot;
        impl NodeProgram for OneShot {
            type Output = ();
            fn round(&mut self, ctx: &NodeCtx, _: &[Envelope]) -> Vec<(NodeId, Words)> {
                vec![((ctx.id + 1) % ctx.n, vec![1])]
            }
            fn halted(&self) -> bool {
                false
            }
            fn output(self) {}
        }
        let mut comm = crate::BroadcastComm::strict(Clique::new(2));
        let err = run_node_programs(&mut comm, vec![OneShot, OneShot], 3).unwrap_err();
        assert_eq!(
            err,
            ModelError::UnicastInBroadcastModel { primitive: "route" }
        );
    }
}
