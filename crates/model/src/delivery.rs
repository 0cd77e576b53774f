//! # delivery — the substrate-free message-delivery and accounting kernel
//!
//! Every transport in this crate ([`crate::Clique`], [`crate::ThreadedComm`])
//! must move the same messages and charge the same rounds. This module is
//! the single source of truth for both: pure functions over outboxes,
//! route batches and word vectors, with **no ledger, no threads, no
//! substrate state**.
//!
//! Two properties make the kernel shardable, which is what
//! [`crate::ThreadedComm`] exploits:
//!
//! * **Delivery is a per-source fold.** [`deliver_shard`] produces the
//!   inboxes contributed by a contiguous range of sources; concatenating
//!   shard inboxes in shard order ([`merge_inboxes`]) reproduces the
//!   sequential source-order delivery of [`deliver`] exactly, because each
//!   shard covers a contiguous source range.
//! * **Every cost formula is a max or a sum over per-source terms.**
//!   [`exchange_cost`] is a max of per-shard maxima; [`shard_loads`]
//!   returns per-source send loads (disjoint across shards) and per-node
//!   receive loads (summed elementwise across shards, exact in `u64`).
//!
//! The sequential [`crate::Clique`] driver calls the same functions with a
//! single shard covering all sources, so the two transports are bitwise
//! identical by construction — results *and* ledgers.

use crate::{CliqueConfig, Envelope, ModelError, NodeId, RouteBatch, Words};

/// Checks that a per-node collection has exactly `n` entries.
///
/// # Errors
///
/// [`ModelError::WrongOutboxCount`] otherwise.
pub fn check_len(n: usize, got: usize) -> Result<(), ModelError> {
    if got != n {
        return Err(ModelError::WrongOutboxCount { got, expected: n });
    }
    Ok(())
}

/// Checks every destination in a shard of outboxes, in source order.
///
/// Returns the *first* violation in (source, enqueue) order, which is the
/// order the sequential driver scans — shards must report their local
/// first violation and callers pick the lowest-indexed shard's, which
/// reproduces the sequential error exactly.
///
/// # Errors
///
/// [`ModelError::InvalidNode`] on the first out-of-range destination.
pub fn check_destinations(n: usize, shard: &[Vec<(NodeId, Words)>]) -> Result<(), ModelError> {
    for per_node in shard {
        for (dst, _) in per_node {
            if *dst >= n {
                return Err(ModelError::InvalidNode { node: *dst, n });
            }
        }
    }
    Ok(())
}

/// Full structural validation of a complete outbox set (count + ranges).
///
/// # Errors
///
/// [`ModelError::WrongOutboxCount`] if `outboxes.len() != n`;
/// [`ModelError::InvalidNode`] on an out-of-range destination.
pub fn check_outboxes(n: usize, outboxes: &[Vec<(NodeId, Words)>]) -> Result<(), ModelError> {
    check_len(n, outboxes.len())?;
    check_destinations(n, outboxes)
}

/// Delivers the messages of sources `src_offset ..` to per-destination
/// inboxes of length `n`, preserving (source, enqueue) order within the
/// shard. `shard[i]` is the outbox of global source `src_offset + i`.
pub fn deliver_shard(
    n: usize,
    src_offset: usize,
    shard: Vec<Vec<(NodeId, Words)>>,
) -> Vec<Vec<Envelope>> {
    let mut inboxes: Vec<Vec<Envelope>> = vec![Vec::new(); n];
    for (local, per_node) in shard.into_iter().enumerate() {
        let src = src_offset + local;
        for (dst, payload) in per_node {
            inboxes[dst].push(Envelope { src, payload });
        }
    }
    inboxes
}

/// Sequential delivery of a complete outbox set: by source id, then by the
/// order the source enqueued its messages.
pub fn deliver(n: usize, outboxes: Vec<Vec<(NodeId, Words)>>) -> Vec<Vec<Envelope>> {
    deliver_shard(n, 0, outboxes)
}

/// Concatenates per-shard inboxes in shard order into one inbox set.
///
/// When shard `k` holds the deliveries of the `k`-th contiguous source
/// range, the concatenation is exactly the source-order delivery of
/// [`deliver`] — the property [`crate::ThreadedComm`] relies on for
/// bitwise-identical results.
pub fn merge_inboxes(n: usize, shards: Vec<Vec<Vec<Envelope>>>) -> Vec<Vec<Envelope>> {
    let mut merged: Vec<Vec<Envelope>> = vec![Vec::new(); n];
    for shard in shards {
        debug_assert_eq!(shard.len(), n, "shard inboxes must cover all nodes");
        for (dst, mut envelopes) in shard.into_iter().enumerate() {
            merged[dst].append(&mut envelopes);
        }
    }
    merged
}

/// The exchange cost contributed by a shard of sources: the maximum, over
/// ordered pairs `(u, v)` with `u` in the shard, of the words sent from
/// `u` to `v`. The global exchange cost is the max over shard costs.
///
/// Uses a flat per-destination accumulator reused across sources (touched
/// entries reset after each source) — the allocation pattern of the
/// pre-extraction hot path.
pub fn exchange_cost(n: usize, shard: &[Vec<(NodeId, Words)>]) -> u64 {
    let mut max_pair = 0u64;
    let mut per_dst = vec![0u64; n];
    let mut touched: Vec<NodeId> = Vec::new();
    for per_node in shard {
        for (dst, payload) in per_node {
            // Skip empty payloads: they contribute nothing to the max,
            // and pushing them into `touched` while `per_dst` stays 0
            // would let the reset list collect duplicates.
            if payload.is_empty() {
                continue;
            }
            if per_dst[*dst] == 0 {
                touched.push(*dst);
            }
            per_dst[*dst] += payload.len() as u64;
        }
        for &dst in &touched {
            max_pair = max_pair.max(per_dst[dst]);
            per_dst[dst] = 0;
        }
        touched.clear();
    }
    max_pair
}

/// Per-node load vectors contributed by a shard of sources.
///
/// Returns `(send, recv)`: `send[i]` is the words sent by global source
/// `src_offset + i` (disjoint across shards); `recv[v]` is the words this
/// shard's sources address to node `v` (shards sum elementwise — exact in
/// `u64` — to recover the global receive loads).
pub fn shard_loads(n: usize, shard: &[Vec<(NodeId, Words)>]) -> (Vec<u64>, Vec<u64>) {
    let mut send = vec![0u64; shard.len()];
    let mut recv = vec![0u64; n];
    for (local, per_node) in shard.iter().enumerate() {
        for (dst, payload) in per_node {
            send[local] += payload.len() as u64;
            recv[*dst] += payload.len() as u64;
        }
    }
    (send, recv)
}

/// Validates a [`RouteBatch`] and returns its maximum per-node load: the
/// load [`shard_loads`] gives its rebuilt outboxes
/// ([`RouteBatch::outboxes`]), so [`route_cost`] of it is what `route`
/// charges them. `loads` is scratch (`2n` words once warm), so a warm
/// call allocates nothing.
///
/// # Errors
///
/// [`ModelError::InvalidNode`] for the first out-of-range source in
/// staging order; otherwise for the first out-of-range destination in
/// the order [`check_destinations`] scans the rebuilt outboxes (lowest
/// source, then staging order), which is the error `route` returns.
pub fn batch_load(n: usize, batch: &RouteBatch, loads: &mut Vec<u64>) -> Result<u64, ModelError> {
    batch.check_sources(n)?;
    loads.clear();
    loads.resize(2 * n, 0);
    let (send, recv) = loads.split_at_mut(n);
    let mut bad_dst: Option<(NodeId, NodeId)> = None;
    for (src, dst, payload) in batch.iter() {
        if dst >= n {
            if bad_dst.is_none_or(|(first, _)| src < first) {
                bad_dst = Some((src, dst));
            }
            continue;
        }
        send[src] += payload.len() as u64;
        recv[dst] += payload.len() as u64;
    }
    if let Some((_, node)) = bad_dst {
        return Err(ModelError::InvalidNode { node, n });
    }
    Ok(loads.iter().copied().max().unwrap_or(0))
}

/// Rounds charged by a unicast `route` for maximum per-node load
/// `load`: `lenzen_rounds · ⌈load / (capacity·n)⌉`, and 0 for an empty
/// message set.
pub fn route_cost(config: &CliqueConfig, n: usize, load: u64) -> u64 {
    if load == 0 {
        return 0;
    }
    let cap = (config.routing_capacity_factor * n) as u64;
    load.div_ceil(cap) * config.lenzen_rounds
}

/// The strict-budget scan of `route_strict`: nodes in id order, send
/// budget checked before receive budget.
///
/// # Errors
///
/// [`ModelError::CongestionExceeded`] for the first node whose send or
/// receive load exceeds `capacity·n`.
pub fn strict_violation(
    config: &CliqueConfig,
    n: usize,
    send: &[u64],
    recv: &[u64],
) -> Result<(), ModelError> {
    let cap = config.routing_capacity_factor * n;
    for node in 0..n {
        if send[node] as usize > cap {
            return Err(ModelError::CongestionExceeded {
                node,
                words: send[node] as usize,
                capacity: cap,
                sending: true,
            });
        }
        if recv[node] as usize > cap {
            return Err(ModelError::CongestionExceeded {
                node,
                words: recv[node] as usize,
                capacity: cap,
                sending: false,
            });
        }
    }
    Ok(())
}

/// Rounds charged to *simulate* a unicast exchange/route in the
/// Broadcast Congested Clique (measured-mode [`crate::BroadcastComm`]):
/// every node broadcasts its entire outbox, one word per round, all
/// nodes in parallel — destinations ride in the word (addressing bits
/// are absorbed into the `O(log n)`-bit word, the model's convention) —
/// so the cost is the maximum per-node send load. One all-to-all round
/// (each node sending up to `n − 1` distinct words) thus costs up to
/// `n − 1` sequential broadcast rounds, the honest simulation overhead.
pub fn broadcast_sim_cost(send: &[u64]) -> u64 {
    send.iter().copied().max().unwrap_or(0)
}

/// Rounds charged by the 1-word all-broadcast: always exactly 1.
pub fn broadcast_all_cost() -> u64 {
    1
}

/// Rounds charged by the word-vector all-broadcast: one round per word of
/// the longest vector.
pub fn broadcast_words_cost(per_node: &[Words]) -> u64 {
    per_node.iter().map(|w| w.len() as u64).max().unwrap_or(0)
}

/// Rounds charged by a single-source broadcast of `w` words: `w` for
/// `w ≤ 1`, otherwise the scatter-then-broadcast doubling trick,
/// `2·⌈w/(n−1)⌉`.
///
/// Requires `n ≥ 2` (the transport invariant — a clique needs two nodes;
/// [`crate::Clique::new`] enforces it). With `n < 2` the scatter formula
/// divides by `n − 1`, which is zero or underflows.
pub fn broadcast_from_cost(n: usize, w: u64) -> u64 {
    debug_assert!(n >= 2, "clique cost formulas require n >= 2, got {n}");
    if w <= 1 {
        w
    } else {
        2 * w.div_ceil(n as u64 - 1)
    }
}

/// Rounds charged by the load-balanced all-gather: `lenzen·⌈L/n⌉ + ⌈W/n⌉`
/// for total volume `W` and max per-node contribution `L` (0 when empty).
pub fn allgather_cost(config: &CliqueConfig, n: usize, per_node: &[Words]) -> u64 {
    let total: u64 = per_node.iter().map(|w| w.len() as u64).sum();
    if total == 0 {
        return 0;
    }
    let max_contrib = broadcast_words_cost(per_node);
    config.lenzen_rounds * max_contrib.div_ceil(n as u64) + total.div_ceil(n as u64)
}

/// Concatenates the per-node vectors in node order, returning the shared
/// view plus per-node offsets (the all-gather result shape).
pub fn concat_words(n: usize, per_node: &[Words]) -> (Words, Vec<usize>) {
    let total: usize = per_node.iter().map(Vec::len).sum();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut all = Vec::with_capacity(total);
    for words in per_node {
        offsets.push(all.len());
        all.extend_from_slice(words);
    }
    offsets.push(all.len());
    (all, offsets)
}

/// Rounds charged by Lenzen sorting: `lenzen_rounds · ⌈max per-node keys / n⌉`
/// (0 when no keys).
pub fn sort_cost(config: &CliqueConfig, n: usize, per_node: &[Words]) -> u64 {
    let max_keys = broadcast_words_cost(per_node);
    if max_keys == 0 {
        return 0;
    }
    max_keys.div_ceil(n as u64) * config.lenzen_rounds
}

/// The global sorted order, split into `n` balanced blocks (earlier blocks
/// one key longer when the total is not divisible by `n`). Ties break
/// stably by (key, contributing node, position).
pub fn sorted_blocks(n: usize, per_node: &[Words]) -> Vec<Words> {
    let mut tagged: Vec<(u64, usize, usize)> = Vec::new();
    for (src, words) in per_node.iter().enumerate() {
        for (pos, &w) in words.iter().enumerate() {
            tagged.push((w, src, pos));
        }
    }
    tagged.sort_unstable();
    let total = tagged.len();
    let base = total / n;
    let extra = total % n;
    let mut out = Vec::with_capacity(n);
    let mut it = tagged.into_iter().map(|(w, _, _)| w);
    for i in 0..n {
        let take = base + usize::from(i < extra);
        out.push((&mut it).take(take).collect());
    }
    out
}

/// Rounds charged by a gather of total volume `W` to one node:
/// `⌈W/(n−1)⌉` (the destination receives `n−1` words per round).
///
/// Requires `n ≥ 2` (the transport invariant — a clique needs two nodes;
/// [`crate::Clique::new`] enforces it). With `n < 2` the divisor `n − 1`
/// is zero or underflows.
pub fn gather_cost(n: usize, per_node: &[Words]) -> u64 {
    debug_assert!(n >= 2, "clique cost formulas require n >= 2, got {n}");
    let total: u64 = per_node.iter().map(|w| w.len() as u64).sum();
    total.div_ceil(n as u64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CliqueConfig {
        CliqueConfig::default()
    }

    #[test]
    fn sharded_delivery_matches_sequential() {
        let n = 5;
        let outboxes: Vec<Vec<(NodeId, Words)>> = (0..n)
            .map(|u| (0..n).map(|v| (v, vec![(u * n + v) as u64])).collect())
            .collect();
        let sequential = deliver(n, outboxes.clone());
        for split in 1..n {
            let (lo, hi) = outboxes.split_at(split);
            let merged = merge_inboxes(
                n,
                vec![
                    deliver_shard(n, 0, lo.to_vec()),
                    deliver_shard(n, split, hi.to_vec()),
                ],
            );
            assert_eq!(merged, sequential, "split at {split}");
        }
    }

    #[test]
    fn sharded_exchange_cost_matches_sequential() {
        let n = 4;
        let outboxes = vec![
            vec![(1, vec![1, 2]), (1, vec![3])],
            vec![(0, vec![4])],
            vec![(3, vec![5, 6, 7, 8])],
            vec![],
        ];
        let full = exchange_cost(n, &outboxes);
        assert_eq!(full, 4);
        for split in 1..n {
            let (lo, hi) = outboxes.split_at(split);
            assert_eq!(exchange_cost(n, lo).max(exchange_cost(n, hi)), full);
        }
    }

    #[test]
    fn exchange_cost_ignores_empty_payloads() {
        // Repeated zero-length payloads to one destination must neither
        // affect the pair max nor bloat the internal reset list.
        let outboxes: Vec<Vec<(NodeId, Words)>> = vec![
            vec![(1, vec![]), (1, vec![]), (1, vec![7]), (1, vec![])],
            vec![(2, vec![]); 5],
            vec![],
        ];
        assert_eq!(exchange_cost(3, &outboxes), 1);
    }

    #[test]
    fn sharded_loads_sum_to_sequential() {
        let n = 4;
        let outboxes = vec![
            vec![(1, vec![1, 2]), (2, vec![3])],
            vec![(0, vec![4])],
            vec![(1, vec![5, 6])],
            vec![],
        ];
        let (send_full, recv_full) = shard_loads(n, &outboxes);
        for split in 1..n {
            let (lo, hi) = outboxes.split_at(split);
            let (send_lo, recv_lo) = shard_loads(n, lo);
            let (send_hi, recv_hi) = shard_loads(n, hi);
            let send: Vec<u64> = send_lo.iter().chain(&send_hi).copied().collect();
            let recv: Vec<u64> = recv_lo.iter().zip(&recv_hi).map(|(a, b)| a + b).collect();
            assert_eq!(send, send_full);
            assert_eq!(recv, recv_full);
        }
    }

    #[test]
    fn strict_violation_orders_send_before_recv() {
        // Node 0 violates on receive, node 1 on send: node 0 wins (id order),
        // and within a node the send check runs first.
        let err = strict_violation(&cfg(), 2, &[0, 99], &[99, 0]).unwrap_err();
        assert_eq!(
            err,
            ModelError::CongestionExceeded {
                node: 0,
                words: 99,
                capacity: 2,
                sending: false,
            }
        );
        let err = strict_violation(&cfg(), 2, &[99, 0], &[99, 0]).unwrap_err();
        assert!(matches!(
            err,
            ModelError::CongestionExceeded { sending: true, .. }
        ));
    }

    #[test]
    fn broadcast_sim_cost_is_max_send_load() {
        assert_eq!(broadcast_sim_cost(&[]), 0);
        assert_eq!(broadcast_sim_cost(&[0, 0]), 0);
        assert_eq!(broadcast_sim_cost(&[3, 7, 1]), 7);
    }

    #[test]
    fn cost_formulas_match_documented_values() {
        assert_eq!(broadcast_all_cost(), 1);
        assert_eq!(broadcast_words_cost(&[vec![1, 2, 3], vec![], vec![9]]), 3);
        assert_eq!(broadcast_from_cost(5, 8), 4);
        assert_eq!(broadcast_from_cost(5, 1), 1);
        assert_eq!(
            allgather_cost(&cfg(), 3, &[vec![1, 2], vec![], vec![3]]),
            2 + 1
        );
        assert_eq!(sort_cost(&cfg(), 2, &[vec![4, 3, 2, 1, 0], vec![]]), 6);
        assert_eq!(gather_cost(3, &[vec![], vec![1, 2, 3], vec![4]]), 2);
    }

    #[test]
    fn sorted_blocks_are_balanced_and_stable() {
        let blocks = sorted_blocks(3, &[vec![9, 1], vec![5], vec![3, 7, 2]]);
        assert_eq!(blocks, vec![vec![1, 2], vec![3, 5], vec![7, 9]]);
    }

    #[test]
    fn destination_check_reports_first_in_source_order() {
        let shard = vec![vec![(1usize, vec![0u64])], vec![(7, vec![]), (9, vec![])]];
        assert_eq!(
            check_destinations(2, &shard).unwrap_err(),
            ModelError::InvalidNode { node: 7, n: 2 }
        );
    }
}
