//! [`ThreadedComm`]: the concurrent sharded clique runtime.
//!
//! The paper's model is `n` nodes acting *concurrently*; [`crate::Clique`]
//! executes rounds as a sequential loop on one thread. `ThreadedComm` runs
//! the **same delivery kernel** ([`crate::delivery`]) across a persistent
//! [`cc_par::WorkerPool`]: virtual nodes are sharded many-per-worker
//! (contiguous source ranges, so `n` reaches the thousands without
//! thousands of threads), each round is one fork-join step, and the
//! per-shard partial results are merged in shard-index order.
//!
//! # Determinism discipline
//!
//! Bitwise identity to [`crate::Clique`] — results *and* ledger — holds by
//! construction, not by tolerance:
//!
//! * **Sharding is contiguous in source id**, so concatenating per-shard
//!   inboxes in shard order ([`crate::delivery::merge_inboxes`]) is
//!   exactly the sequential source-order delivery.
//! * **Cost formulas are maxima and sums of per-source terms** over `u64`,
//!   so shard-wise max-of-max and elementwise sums are exact.
//! * **Errors are selected by lowest shard index** (each shard reports its
//!   first violation in source order), reproducing the sequential scan's
//!   first error.
//! * **Serial primitives stay serial.** `ThreadedComm` is a
//!   [`crate::Decorator`] over an embedded sequential [`crate::Clique`]
//!   that shards only `exchange`, `route` and `route_strict`. The
//!   broadcast family, `sort`, and `gather_to` are shared-view operations
//!   with no per-source message fan-out worth sharding, and
//!   `route_batch` builds no inboxes at all; they forward to the embedded
//!   clique on the driver thread — identical code, identical ledger, by
//!   definition.
//!
//! # Watchdog contract
//!
//! Every sharded round runs on `cc-par`'s one fork-join path
//! ([`cc_par::par_groups`] over [`cc_par::WorkerPool::scoped`]): one task
//! per contiguous source shard, shard 0 on the driver thread, and with a
//! single worker the whole round runs inline. The wait is bounded by the
//! [`cc_par::watchdog_timeout`] deadline (`CC_WATCHDOG_SECS`, default
//! 120 s, `0` disables). The workers hold borrowed pointers into the
//! round, so a round that misses the deadline cannot unwind: the process
//! prints the pending/total task counts and aborts — a fast, attributable
//! failure instead of a hung process. The completion latch also checks
//! that completions equal dispatches, so a protocol bug (a shard
//! completing twice) fails loudly rather than corrupting a later round.

use crate::{
    delivery, Clique, Communicator, CostKind, Envelope, ModelError, NodeId, Op, Reply, Words,
};

/// Per-source outboxes: `outboxes[src][i] = (dst, words)`.
type Outboxes = Vec<Vec<(NodeId, Words)>>;

/// What a round's merge yields: (exchange max, per-source send loads,
/// per-destination receive loads, length-`n` inboxes).
type MergedRound = (u64, Vec<u64>, Vec<u64>, Vec<Vec<Envelope>>);

/// What a shard reports back from one parallel round.
#[derive(Debug, Default)]
struct ShardReport {
    /// First structural violation in this shard, in source order.
    error: Option<ModelError>,
    /// Max per-ordered-pair words over this shard's sources.
    exchange_max: u64,
    /// Per-source send loads (shard-local indexing, disjoint globally).
    send: Vec<u64>,
    /// Per-destination receive loads contributed by this shard.
    recv: Vec<u64>,
    /// Inboxes contributed by this shard (length `n`).
    inboxes: Vec<Vec<Envelope>>,
}

/// A [`Communicator`] executing the delivery kernel concurrently over a
/// persistent worker pool, bitwise identical to [`Clique`] at every worker
/// count. See the module docs for the determinism discipline and the
/// watchdog contract.
#[derive(Debug)]
pub struct ThreadedComm {
    /// Sequential driver for the shared-view primitives and the ledger:
    /// delegating to it makes "identical to `Clique`" true by definition
    /// on those paths.
    seq: Clique,
    workers: usize,
}

impl ThreadedComm {
    /// A threaded clique of `n` nodes with default accounting constants
    /// and an explicit worker count (clamped to `n`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `workers == 0`.
    pub fn with_workers(n: usize, workers: usize) -> Self {
        assert!(workers > 0, "threaded clique needs at least one worker");
        Self {
            seq: Clique::new(n),
            workers: workers.min(n),
        }
    }

    /// Number of worker threads sharding each round.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Splits `outboxes` into contiguous per-worker source shards, runs
    /// them as one fork-join round, and returns the shard reports in
    /// shard-index order.
    fn sharded_round(&self, outboxes: Outboxes) -> Vec<ShardReport> {
        let n = self.seq.n();
        cc_par::par_groups(
            outboxes,
            self.workers,
            cc_par::watchdog_timeout(),
            |src_offset, shard| run_shard(n, src_offset, shard),
        )
    }

    /// Merges shard reports into the global (first error, exchange max,
    /// send loads, recv loads, inboxes) — all in shard-index order.
    fn merge(&self, reports: Vec<ShardReport>) -> Result<MergedRound, ModelError> {
        let n = self.seq.n();
        // Lowest-indexed shard's first violation == the sequential scan's.
        for report in &reports {
            if let Some(err) = &report.error {
                return Err(err.clone());
            }
        }
        let mut exchange_max = 0u64;
        let mut send = Vec::with_capacity(n);
        let mut recv = vec![0u64; n];
        let mut inbox_shards = Vec::with_capacity(reports.len());
        for report in reports {
            exchange_max = exchange_max.max(report.exchange_max);
            send.extend(report.send);
            for (acc, add) in recv.iter_mut().zip(&report.recv) {
                *acc += add;
            }
            inbox_shards.push(report.inboxes);
        }
        Ok((
            exchange_max,
            send,
            recv,
            delivery::merge_inboxes(n, inbox_shards),
        ))
    }

    /// One sharded `route` round, mirroring `Clique::route_strict` when
    /// `strict`: structural checks, then the strict budget scan, then the
    /// batching cost.
    fn route_checked(
        &mut self,
        outboxes: Outboxes,
        strict: bool,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        delivery::check_len(self.n(), outboxes.len())?;
        let reports = self.sharded_round(outboxes);
        let (_, send, recv, inboxes) = self.merge(reports)?;
        let config = self.seq.config();
        if strict {
            delivery::strict_violation(&config, self.n(), &send, &recv)?;
        }
        let load = send.iter().chain(recv.iter()).copied().max().unwrap_or(0);
        if load > 0 {
            let rounds = delivery::route_cost(&config, self.n(), load);
            self.seq.ledger_mut().charge(rounds, CostKind::Implemented);
        }
        Ok(inboxes)
    }
}

/// The per-shard worker body: validate destinations (first violation in
/// source order), compute cost contributions, and deliver this shard's
/// messages. Pure — all inputs owned, output returned by value.
fn run_shard(n: usize, src_offset: usize, shard: Vec<Vec<(NodeId, Words)>>) -> ShardReport {
    if let Err(err) = delivery::check_destinations(n, &shard) {
        return ShardReport {
            error: Some(err),
            ..ShardReport::default()
        };
    }
    let exchange_max = delivery::exchange_cost(n, &shard);
    let (send, recv) = delivery::shard_loads(n, &shard);
    let inboxes = delivery::deliver_shard(n, src_offset, shard);
    ShardReport {
        error: None,
        exchange_max,
        send,
        recv,
        inboxes,
    }
}

impl crate::Decorator for ThreadedComm {
    type Inner = Clique;

    fn inner(&self) -> &Clique {
        &self.seq
    }

    fn inner_mut(&mut self) -> &mut Clique {
        &mut self.seq
    }

    /// Shards `exchange`, `route` and `route_strict`; everything else
    /// runs on the embedded clique, `route_batch` and
    /// `broadcast_all_into` on its allocation-free paths.
    fn call(&mut self, op: Op<'_>) -> Result<Reply, ModelError> {
        match op {
            Op::Exchange(outboxes) => {
                delivery::check_len(self.n(), outboxes.len())?;
                let reports = self.sharded_round(outboxes);
                let (max_pair, _, _, inboxes) = self.merge(reports)?;
                self.seq
                    .ledger_mut()
                    .charge(max_pair, CostKind::Implemented);
                Ok(Reply::Inboxes(inboxes))
            }
            Op::Route(outboxes) => self.route_checked(outboxes, false).map(Reply::Inboxes),
            Op::RouteStrict(outboxes) => self.route_checked(outboxes, true).map(Reply::Inboxes),
            op => op.apply(&mut self.seq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_outboxes(n: usize, words_per_msg: usize) -> Vec<Vec<(NodeId, Words)>> {
        (0..n)
            .map(|u| {
                vec![(
                    (u + 1) % n,
                    (0..words_per_msg).map(|k| (u * 100 + k) as u64).collect(),
                )]
            })
            .collect()
    }

    #[test]
    fn exchange_matches_clique_at_every_worker_count() {
        for workers in [1, 2, 3, 8] {
            let mut seq = Clique::new(7);
            let mut par = ThreadedComm::with_workers(7, workers);
            let a = seq.exchange(ring_outboxes(7, 3)).unwrap();
            let b = par.exchange(ring_outboxes(7, 3)).unwrap();
            assert_eq!(a, b, "workers={workers}");
            assert_eq!(
                seq.ledger().total_rounds(),
                par.ledger().total_rounds(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn route_strict_error_matches_clique() {
        let overload = vec![
            vec![(1, (0..9).collect::<Vec<u64>>())],
            vec![],
            vec![],
            vec![],
        ];
        let mut seq = Clique::new(4);
        let mut par = ThreadedComm::with_workers(4, 2);
        assert_eq!(
            seq.route_strict(overload.clone()).unwrap_err(),
            par.route_strict(overload).unwrap_err()
        );
        assert_eq!(seq.ledger().total_rounds(), par.ledger().total_rounds());
    }

    #[test]
    fn invalid_destination_error_matches_clique() {
        let bad = vec![vec![], vec![(9, vec![1])], vec![(8, vec![2])], vec![]];
        let mut seq = Clique::new(4);
        let mut par = ThreadedComm::with_workers(4, 4);
        assert_eq!(
            seq.exchange(bad.clone()).unwrap_err(),
            par.exchange(bad).unwrap_err()
        );
    }

    #[test]
    fn round_inside_a_par_map_task_runs_inline() {
        let run = |comm: &mut dyn Communicator| {
            let inboxes = comm.exchange(ring_outboxes(9, 2)).unwrap();
            let routed = comm.route(ring_outboxes(9, 4)).unwrap();
            (inboxes, routed, comm.ledger().phases().clone())
        };
        let want = run(&mut Clique::new(9));
        // Item 0 runs on the calling thread, items 1..=3 on pool workers,
        // where each ThreadedComm round is a nested dispatch.
        let got = cc_par::with_threads(4, || {
            cc_par::par_map(&[0, 1, 2, 8], |&workers| {
                (workers > 0).then(|| {
                    assert!(cc_par::in_worker());
                    (workers, run(&mut ThreadedComm::with_workers(9, workers)))
                })
            })
        });
        let got: Vec<_> = got.into_iter().flatten().collect();
        assert_eq!(got.len(), 3);
        for (workers, outcome) in got {
            assert_eq!(outcome, want, "workers={workers}");
        }
    }

    #[test]
    fn workers_clamped_to_n() {
        let par = ThreadedComm::with_workers(3, 64);
        assert_eq!(par.workers(), 3);
    }

    #[test]
    fn shared_view_primitives_charge_identically() {
        let mut seq = Clique::new(5);
        let mut par = ThreadedComm::with_workers(5, 2);
        let data = vec![vec![1, 2], vec![], vec![3], vec![4, 5, 6], vec![]];
        assert_eq!(seq.allgather(&data).unwrap(), par.allgather(&data).unwrap());
        assert_eq!(seq.sort(&data).unwrap(), par.sort(&data).unwrap());
        assert_eq!(
            seq.gather_to(2, &data).unwrap(),
            par.gather_to(2, &data).unwrap()
        );
        assert_eq!(seq.ledger().phases(), par.ledger().phases());
    }
}
