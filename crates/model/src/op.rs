//! [`Op`] and [`Reply`]: one primitive call as a value, the seam every
//! [`crate::Decorator`] intercepts.

use std::collections::HashMap;

use crate::{
    CommunicationMode, Communicator, CostKind, Envelope, ModelError, NodeId, RouteBatch, Words,
};

/// One [`Communicator`] call with its arguments: one variant per data
/// primitive and one for the two charge calls.
///
/// Outboxes move in; every other argument is borrowed, so passing an op
/// on copies nothing. [`Op::apply`] makes the call on a communicator.
#[derive(Debug)]
pub enum Op<'a> {
    /// [`Communicator::exchange`].
    Exchange(Vec<Vec<(NodeId, Words)>>),
    /// [`Communicator::route`].
    Route(Vec<Vec<(NodeId, Words)>>),
    /// [`Communicator::route_strict`].
    RouteStrict(Vec<Vec<(NodeId, Words)>>),
    /// [`Communicator::route_batch`]. A decorator only sees batches whose
    /// sources are nodes; one that needs owned outboxes lowers the batch
    /// with [`RouteBatch::outboxes`].
    RouteBatch(&'a RouteBatch),
    /// [`Communicator::broadcast_all`].
    BroadcastAll(&'a [u64]),
    /// [`Communicator::broadcast_all_into`]: the values and the buffer
    /// the shared view is written to.
    BroadcastAllInto(&'a [u64], &'a mut Vec<u64>),
    /// [`Communicator::broadcast_all_words`].
    BroadcastAllWords(&'a [Words]),
    /// [`Communicator::broadcast_from`]: the source and its words.
    BroadcastFrom(NodeId, &'a Words),
    /// [`Communicator::allgather`].
    Allgather(&'a [Words]),
    /// [`Communicator::sort`].
    Sort(&'a [Words]),
    /// [`Communicator::gather_to`]: the destination and every node's
    /// words.
    GatherTo(NodeId, &'a [Words]),
    /// [`Communicator::charge_oracle`] ([`CostKind::Charged`]) or
    /// [`Communicator::charge_implemented`] ([`CostKind::Implemented`]).
    Charge(CostKind, u64),
}

/// What an [`Op`] returns: one variant per result shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Per-node inboxes: `exchange`, `route`, `route_strict`.
    Inboxes(Vec<Vec<Envelope>>),
    /// One word vector: `broadcast_all`'s shared view, `broadcast_from`.
    Words(Words),
    /// One word vector per node: `broadcast_all_words`, `sort`,
    /// `gather_to`.
    Rows(Vec<Words>),
    /// `allgather`'s concatenation and per-node offsets.
    Gathered(Words, Vec<usize>),
    /// No value: `route_batch`, `broadcast_all_into` and the charges.
    Done,
}

impl Op<'_> {
    /// The primitive's label in traces and fault logs. A batch is
    /// labelled `"route"` and a buffered broadcast `"broadcast_all"`:
    /// each is its owned-payload twin without the copies.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Exchange(_) => "exchange",
            Op::Route(_) | Op::RouteBatch(_) => "route",
            Op::RouteStrict(_) => "route_strict",
            Op::BroadcastAll(_) | Op::BroadcastAllInto(..) => "broadcast_all",
            Op::BroadcastAllWords(_) => "broadcast_all_words",
            Op::BroadcastFrom(..) => "broadcast_from",
            Op::Allgather(_) => "allgather",
            Op::Sort(_) => "sort",
            Op::GatherTo(..) => "gather_to",
            Op::Charge(CostKind::Charged, _) => "charge_oracle",
            Op::Charge(CostKind::Implemented, _) => "charge_implemented",
        }
    }

    /// Makes the call on `comm`: the forward a decorator ends in.
    ///
    /// # Errors
    ///
    /// Whatever the call returns.
    pub fn apply<C: Communicator + ?Sized>(self, comm: &mut C) -> Result<Reply, ModelError> {
        match self {
            Op::Exchange(outboxes) => comm.exchange(outboxes).map(Reply::Inboxes),
            Op::Route(outboxes) => comm.route(outboxes).map(Reply::Inboxes),
            Op::RouteStrict(outboxes) => comm.route_strict(outboxes).map(Reply::Inboxes),
            Op::RouteBatch(batch) => comm.route_batch(batch).map(|()| Reply::Done),
            Op::BroadcastAll(values) => comm.broadcast_all(values).map(Reply::Words),
            Op::BroadcastAllInto(values, out) => {
                comm.broadcast_all_into(values, out).map(|()| Reply::Done)
            }
            Op::BroadcastAllWords(rows) => comm.broadcast_all_words(rows).map(Reply::Rows),
            Op::BroadcastFrom(src, words) => comm.broadcast_from(src, words).map(Reply::Words),
            Op::Allgather(rows) => comm
                .allgather(rows)
                .map(|(all, at)| Reply::Gathered(all, at)),
            Op::Sort(rows) => comm.sort(rows).map(Reply::Rows),
            Op::GatherTo(dst, rows) => comm.gather_to(dst, rows).map(Reply::Rows),
            Op::Charge(kind, rounds) => {
                match kind {
                    CostKind::Charged => comm.charge_oracle(rounds),
                    CostKind::Implemented => comm.charge_implemented(rounds),
                }
                Ok(Reply::Done)
            }
        }
    }

    /// The call's logical payload statistics, from its arguments alone,
    /// and the size of each message (see [`crate::TracingComm`] for the
    /// conventions). `mode` is the substrate's: in
    /// [`CommunicationMode::Broadcast`] a unicast-shaped op is attributed
    /// one sender to all.
    pub(crate) fn stats(&self, mode: CommunicationMode, n: usize) -> (CallStats, Vec<usize>) {
        match self {
            Op::Exchange(outboxes) | Op::Route(outboxes) | Op::RouteStrict(outboxes) => {
                let messages = (outboxes.iter().enumerate())
                    .flat_map(|(src, row)| row.iter().map(move |(dst, p)| (src, *dst, p.len())));
                message_stats(mode, n, messages)
            }
            Op::RouteBatch(batch) => message_stats(
                mode,
                n,
                batch.iter().map(|(src, dst, p)| (src, dst, p.len())),
            ),
            Op::BroadcastAll(values) | Op::BroadcastAllInto(values, _) => {
                let k = values.len() as u64;
                let stats = CallStats {
                    messages: k,
                    words: k,
                    max_pair_words: 1,
                    max_node_send: 1,
                    max_node_recv: k,
                };
                (stats, vec![1; values.len()])
            }
            Op::BroadcastAllWords(rows)
            | Op::Allgather(rows)
            | Op::Sort(rows)
            | Op::GatherTo(_, rows) => vector_stats(rows),
            Op::BroadcastFrom(_, words) => vector_stats(std::slice::from_ref(*words)),
            Op::Charge(..) => (CallStats::default(), Vec::new()),
        }
    }
}

impl Reply {
    pub(crate) fn inboxes(self) -> Option<Vec<Vec<Envelope>>> {
        match self {
            Reply::Inboxes(inboxes) => Some(inboxes),
            _ => None,
        }
    }

    pub(crate) fn words(self) -> Option<Words> {
        match self {
            Reply::Words(words) => Some(words),
            _ => None,
        }
    }

    pub(crate) fn rows(self) -> Option<Vec<Words>> {
        match self {
            Reply::Rows(rows) => Some(rows),
            _ => None,
        }
    }

    pub(crate) fn gathered(self) -> Option<(Words, Vec<usize>)> {
        match self {
            Reply::Gathered(all, offsets) => Some((all, offsets)),
            _ => None,
        }
    }

    pub(crate) fn done(self) -> Option<()> {
        matches!(self, Reply::Done).then_some(())
    }
}

/// Logical payload statistics of one primitive call ([`Op::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CallStats {
    pub(crate) messages: u64,
    pub(crate) words: u64,
    pub(crate) max_pair_words: u64,
    pub(crate) max_node_send: u64,
    pub(crate) max_node_recv: u64,
}

/// Statistics of a unicast-shaped message set, one `(src, dst, words)`
/// per message. In a unicast substrate the maxima are per ordered pair
/// and per node, over the messages whose ends are nodes. In a broadcast
/// substrate every word a sender emits reaches the other `n − 1` nodes
/// (there are no private pairs), so the pair and send maxima coincide at
/// the largest send load and every node receives the whole volume — the
/// shared-view convention of [`vector_stats`].
fn message_stats(
    mode: CommunicationMode,
    n: usize,
    messages: impl Iterator<Item = (NodeId, NodeId, usize)>,
) -> (CallStats, Vec<usize>) {
    let unicast = mode == CommunicationMode::Unicast;
    let mut stats = CallStats::default();
    let mut sizes = Vec::new();
    // Only the maxima of these maps are read, so their order is moot.
    let mut send: HashMap<NodeId, u64> = HashMap::new();
    let mut recv: HashMap<NodeId, u64> = HashMap::new();
    let mut pairs: HashMap<(NodeId, NodeId), u64> = HashMap::new();
    for (src, dst, len) in messages {
        let w = len as u64;
        stats.messages += 1;
        stats.words += w;
        sizes.push(len);
        if !unicast || (src < n && dst < n) {
            *send.entry(src).or_default() += w;
        }
        if unicast && src < n && dst < n {
            *recv.entry(dst).or_default() += w;
            *pairs.entry((src, dst)).or_default() += w;
        }
    }
    stats.max_node_send = send.into_values().max().unwrap_or(0);
    if unicast {
        stats.max_pair_words = pairs.into_values().max().unwrap_or(0);
        stats.max_node_recv = recv.into_values().max().unwrap_or(0);
    } else {
        stats.max_pair_words = stats.max_node_send;
        stats.max_node_recv = stats.words;
    }
    (stats, sizes)
}

/// Statistics of a per-node word-vector call: one message per nonempty
/// vector, and every node sees all of them.
fn vector_stats(per_node: &[Words]) -> (CallStats, Vec<usize>) {
    let mut stats = CallStats::default();
    let mut sizes = Vec::new();
    for words in per_node {
        if !words.is_empty() {
            stats.messages += 1;
            sizes.push(words.len());
        }
        let w = words.len() as u64;
        stats.words += w;
        stats.max_pair_words = stats.max_pair_words.max(w);
        stats.max_node_send = stats.max_node_send.max(w);
    }
    stats.max_node_recv = stats.words;
    (stats, sizes)
}
