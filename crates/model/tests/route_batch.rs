//! `route_batch` is `route` without inboxes: on random batches — empty
//! nodes, empty and multi-word payloads, out-of-range sources and
//! destinations — every transport and wrapper returns the same `Result`,
//! charges the same ledger and records the same events as `route` on the
//! batch's rebuilt outboxes.

use cc_model::{
    BroadcastComm, Clique, Communicator, FaultComm, FaultPlan, FaultRule, ModelError, RouteBatch,
    ThreadedComm, TracingComm,
};
use proptest::prelude::*;

/// Deterministic stream so each case replays one proptest-drawn seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        self.0 = x;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    /// A node id, out of range about once in `1 / bad_rate`.
    fn node(&mut self, n: usize, bad_rate: usize) -> usize {
        if bad_rate > 0 && self.below(bad_rate) == 0 {
            n + self.below(4)
        } else {
            self.below(n)
        }
    }
}

/// A random batch over an `n`-clique; up to `max_msgs` messages of 0–4
/// words, with out-of-range ids at the given rates (0 = never). Sources
/// cluster on a few nodes, so some nodes send nothing.
fn random_batch(
    rng: &mut Lcg,
    n: usize,
    max_msgs: usize,
    bad_src: usize,
    bad_dst: usize,
) -> RouteBatch {
    let senders = 1 + rng.below(n);
    let mut batch = RouteBatch::new();
    for _ in 0..rng.below(max_msgs + 1) {
        let src = if bad_src > 0 && rng.below(bad_src) == 0 {
            n + rng.below(4)
        } else {
            rng.below(senders)
        };
        let dst = rng.node(n, bad_dst);
        let words: Vec<u64> = (0..rng.below(5)).map(|_| rng.next()).collect();
        batch.push(src, dst, words);
    }
    batch
}

/// A script of batches, some staged into one reused batch, some inside a
/// phase, so ledger keys and cumulative totals are exercised.
fn script(n: usize, seed: u64, steps: usize) -> Vec<(Option<&'static str>, RouteBatch)> {
    let mut rng = Lcg(seed);
    (0..steps)
        .map(|step| {
            let (bad_src, bad_dst) = match rng.below(4) {
                0 => (0, 0),
                1 => (0, 6),
                2 => (6, 0),
                _ => (8, 8),
            };
            let batch = random_batch(&mut rng, n, 3 * n, bad_src, bad_dst);
            let phase = [None, Some("contract"), Some("contract/hop")][step % 3];
            (phase, batch)
        })
        .collect()
}

/// Runs the script on `comm`, each step as `route_batch` (`batched`) or
/// as `route` on the rebuilt outboxes; returns every step's `Result`.
/// A batch with an out-of-range source has no outboxes: `route` side
/// reports the source error without calling anything.
fn run<C: Communicator>(
    comm: &mut C,
    steps: &[(Option<&'static str>, RouteBatch)],
    batched: bool,
) -> Vec<Result<(), ModelError>> {
    // One reused batch, as a caller that stages every step would hold.
    let mut staged = RouteBatch::new();
    let step = |comm: &mut C, batch: &RouteBatch| {
        if batched {
            comm.route_batch(batch)
        } else {
            match batch.outboxes(comm.n()) {
                Ok(outboxes) => comm.route(outboxes).map(drop),
                Err(e) => Err(e),
            }
        }
    };
    steps
        .iter()
        .map(|(phase, batch)| {
            staged.clear();
            for (src, dst, words) in batch.iter() {
                staged.push(src, dst, words.iter().copied());
            }
            match phase {
                Some(name) => comm.phase(name, |c| step(c, &staged)),
                None => step(comm, &staged),
            }
        })
        .collect()
}

fn assert_same_ledger(a: &dyn Communicator, b: &dyn Communicator, ctx: &str) {
    assert_eq!(a.ledger().phases(), b.ledger().phases(), "{ctx}: phase map");
    assert_eq!(a.ledger().report(), b.ledger().report(), "{ctx}: report");
}

fn fault_plan(seed: u64, n: usize) -> FaultPlan {
    FaultPlan::new(seed)
        .with(FaultRule::FailureRate(0.3))
        .with(FaultRule::RoutingCapacity(1))
        .with(FaultRule::Corrupt(n - 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bare substrates: `Clique` and `ThreadedComm` at 1 and 2 workers
    /// charge `route_batch` exactly as a fresh `Clique` charges `route`.
    #[test]
    fn substrates_charge_route_batch_like_route(
        n in 2usize..12,
        seed in 0u64..1_000_000,
        steps in 1usize..10,
    ) {
        let steps = script(n, seed, steps);
        let mut reference = Clique::new(n);
        let want = run(&mut reference, &steps, false);
        let mut clique = Clique::new(n);
        prop_assert_eq!(&run(&mut clique, &steps, true), &want);
        assert_same_ledger(&clique, &reference, "clique");
        for workers in [1usize, 2] {
            let mut par = ThreadedComm::with_workers(n, workers);
            prop_assert_eq!(&run(&mut par, &steps, true), &want, "workers={}", workers);
            assert_same_ledger(&par, &reference, &format!("workers={workers}"));
        }
    }

    /// Wrappers see every message: `TracingComm` (over a unicast and a
    /// broadcast substrate), `FaultComm` (a rate, a budget and a
    /// corrupting node) and both `BroadcastComm` modes record the same
    /// events and return the same errors for `route_batch` as for
    /// `route`.
    #[test]
    fn wrappers_see_route_batch_as_route(
        n in 2usize..12,
        seed in 0u64..1_000_000,
        steps in 1usize..10,
    ) {
        let steps = script(n, seed, steps);

        let mut traced = TracingComm::new(Clique::new(n));
        let mut traced_ref = TracingComm::new(Clique::new(n));
        prop_assert_eq!(run(&mut traced, &steps, true), run(&mut traced_ref, &steps, false));
        prop_assert_eq!(traced.events(), traced_ref.events());
        prop_assert_eq!(traced.trace_json(), traced_ref.trace_json());
        assert_same_ledger(&traced, &traced_ref, "tracing");

        // Over a broadcast substrate the batch's stats are attributed
        // one sender to all, exactly as its rebuilt outboxes are.
        let mut traced = TracingComm::new(BroadcastComm::measured(Clique::new(n)));
        let mut traced_ref = TracingComm::new(BroadcastComm::measured(Clique::new(n)));
        prop_assert_eq!(run(&mut traced, &steps, true), run(&mut traced_ref, &steps, false));
        prop_assert_eq!(traced.trace_json(), traced_ref.trace_json());

        let mut faulty = FaultComm::new(Clique::new(n), fault_plan(seed, n));
        let mut faulty_ref = FaultComm::new(Clique::new(n), fault_plan(seed, n));
        prop_assert_eq!(run(&mut faulty, &steps, true), run(&mut faulty_ref, &steps, false));
        prop_assert_eq!(faulty.events(), faulty_ref.events());
        prop_assert_eq!(faulty.faults_observed(), faulty_ref.faults_observed());
        assert_same_ledger(&faulty, &faulty_ref, "fault");

        for strict in [true, false] {
            let make = || if strict {
                BroadcastComm::strict(Clique::new(n))
            } else {
                BroadcastComm::measured(Clique::new(n))
            };
            let (mut bcast, mut bcast_ref) = (make(), make());
            prop_assert_eq!(run(&mut bcast, &steps, true), run(&mut bcast_ref, &steps, false));
            assert_same_ledger(&bcast, &bcast_ref, &format!("broadcast strict={strict}"));
        }
    }
}

#[test]
fn out_of_range_source_is_rejected_before_anything_is_charged() {
    let mut batch = RouteBatch::new();
    batch.push(0, 1, [1, 2]);
    batch.push(3, 9, [1]);
    batch.push(5, 0, [1]);
    let want = Err(ModelError::InvalidNode { node: 3, n: 3 });
    let mut clique = Clique::new(3);
    assert_eq!(clique.route_batch(&batch), want);
    assert_eq!(clique.ledger().total_rounds(), 0);
    let mut traced = TracingComm::new(FaultComm::new(
        Clique::new(3),
        FaultPlan::new(1).with(FaultRule::FailureRate(1.0)),
    ));
    assert_eq!(traced.route_batch(&batch), want);
    assert!(traced.events().is_empty());
    assert_eq!(traced.faults_observed(), 0);
}

#[test]
fn out_of_range_destination_is_the_one_route_reports() {
    let mut batch = RouteBatch::new();
    batch.push(2, 7, [1]);
    batch.push(1, 0, [1]);
    batch.push(1, 8, []);
    batch.push(1, 6, [1]);
    let mut clique = Clique::new(3);
    let want = clique.route(batch.outboxes(3).unwrap()).map(drop);
    assert_eq!(want, Err(ModelError::InvalidNode { node: 8, n: 3 }));
    assert_eq!(clique.route_batch(&batch), want);
    assert_eq!(clique.ledger().total_rounds(), 0);
}

#[test]
fn empty_batch_charges_nothing() {
    let mut clique = Clique::new(4);
    clique.route_batch(&RouteBatch::new()).unwrap();
    assert_eq!(clique.ledger().total_rounds(), 0);
    let mut batch = RouteBatch::new();
    batch.push(0, 1, []);
    clique.route_batch(&batch).unwrap();
    assert_eq!(clique.ledger().total_rounds(), 0);
}
