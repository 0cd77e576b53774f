use std::error::Error;
use std::fmt;

use crate::NodeId;

/// Errors raised by the congested clique simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// A primitive was invoked with a node id outside `0..n`.
    InvalidNode {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes of the clique.
        n: usize,
    },
    /// A `route_strict` call violated Lenzen's precondition:
    /// some node would have to send or receive more than `capacity` words.
    CongestionExceeded {
        /// Node exceeding its budget.
        node: NodeId,
        /// Words the node would send or receive.
        words: usize,
        /// Allowed words (`routing_capacity_factor * n`).
        capacity: usize,
        /// True if the violation is on the sending side.
        sending: bool,
    },
    /// An outbox vector had the wrong length (must be one entry per node).
    WrongOutboxCount {
        /// Entries supplied.
        got: usize,
        /// Entries expected (`n`).
        expected: usize,
    },
    /// A unicast-shaped primitive was invoked on a strict
    /// [`crate::BroadcastComm`]: the Broadcast Congested Clique admits
    /// one *identical* word per node per round, so point-to-point
    /// message sets have no strict counterpart. Measured-mode
    /// [`crate::BroadcastComm`] simulates them instead, at their honest
    /// broadcast cost.
    UnicastInBroadcastModel {
        /// Name of the rejected primitive (`"exchange"`, `"route"`,
        /// `"route_strict"`, `"gather_to"`, or `"sort"`).
        primitive: &'static str,
    },
    /// A node-level adversary withheld a message: `node` had outbound
    /// payload in a primitive while silent or crashed (see the per-node
    /// rules [`crate::FaultRule::Silent`] and
    /// [`crate::FaultRule::CrashRecover`] of [`crate::FaultComm`]). In a synchronous model a missing
    /// message is observable the round it fails to arrive, so omission
    /// faults surface as this typed error rather than as silent data
    /// loss.
    NodeSilenced {
        /// The silenced (adversarial) node.
        node: NodeId,
        /// Ledger round (total) at which the omission was detected.
        round: u64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidNode { node, n } => {
                write!(f, "node id {node} out of range for clique of {n} nodes")
            }
            ModelError::CongestionExceeded {
                node,
                words,
                capacity,
                sending,
            } => {
                let dir = if *sending { "send" } else { "receive" };
                write!(
                    f,
                    "routing congestion: node {node} would {dir} {words} words, capacity {capacity}"
                )
            }
            ModelError::WrongOutboxCount { got, expected } => {
                write!(
                    f,
                    "outbox count {got} does not match clique size {expected}"
                )
            }
            ModelError::UnicastInBroadcastModel { primitive } => {
                write!(
                    f,
                    "unicast primitive `{primitive}` has no counterpart in the strict \
                     broadcast congested clique (use measured mode to simulate it)"
                )
            }
            ModelError::NodeSilenced { node, round } => {
                write!(
                    f,
                    "node {node} withheld its message in round {round} (silent or crashed)"
                )
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs: Vec<ModelError> = vec![
            ModelError::InvalidNode { node: 9, n: 4 },
            ModelError::CongestionExceeded {
                node: 1,
                words: 100,
                capacity: 8,
                sending: true,
            },
            ModelError::WrongOutboxCount {
                got: 3,
                expected: 4,
            },
            ModelError::NodeSilenced { node: 2, round: 17 },
            ModelError::UnicastInBroadcastModel { primitive: "sort" },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
