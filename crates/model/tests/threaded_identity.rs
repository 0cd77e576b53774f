//! Property-based bitwise identity: [`ThreadedComm`] at worker counts
//! 1, 2, and 8 must produce results *and* ledgers identical to the
//! sequential [`Clique`] on randomized workloads over every primitive —
//! bare, and under stacked [`TracingComm`]/[`FaultComm`] wrappers.
//!
//! Identity is asserted on the strongest observable surface: every
//! primitive's return value (including errors), the full phase map, and
//! the human-readable ledger report string.

use cc_model::util::Fnv1a;
use cc_model::{Clique, Communicator, FaultComm, FaultPlan, FaultRule, ThreadedComm, TracingComm};
use proptest::prelude::*;

/// Deterministic xorshift stream so both transports replay the exact
/// same workload from one proptest-drawn seed.
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
}

fn random_outboxes(rng: &mut Lcg, n: usize, max_msgs: usize) -> Vec<Vec<(usize, Vec<u64>)>> {
    (0..n)
        .map(|_| {
            (0..rng.below(max_msgs + 1))
                .map(|_| {
                    let dst = rng.below(n);
                    let words = (0..1 + rng.below(3)).map(|_| rng.next()).collect();
                    (dst, words)
                })
                .collect()
        })
        .collect()
}

fn random_words_per_node(rng: &mut Lcg, n: usize, max_words: usize) -> Vec<Vec<u64>> {
    (0..n)
        .map(|_| (0..rng.below(max_words + 1)).map(|_| rng.next()).collect())
        .collect()
}

/// Runs the same randomized script over any transport, folding every
/// observable outcome (values and errors) into a digest.
fn run_script<C: Communicator>(comm: &mut C, n: usize, seed: u64, steps: usize) -> u64 {
    let mut rng = Lcg(seed);
    let mut digest = Fnv1a::default();
    let mut fold = |s: String| digest.bytes(s.as_bytes());
    for step in 0..steps {
        match rng.below(10) {
            0 => fold(format!(
                "{:?}",
                comm.exchange(random_outboxes(&mut rng, n, 2))
            )),
            1 => fold(format!("{:?}", comm.route(random_outboxes(&mut rng, n, 3)))),
            2 => fold(format!(
                "{:?}",
                comm.route_strict(random_outboxes(&mut rng, n, 2))
            )),
            3 => {
                let v: Vec<u64> = (0..n).map(|_| rng.next()).collect();
                fold(format!("{:?}", comm.broadcast_all(&v)));
            }
            4 => fold(format!(
                "{:?}",
                comm.broadcast_all_words(&random_words_per_node(&mut rng, n, 3))
            )),
            5 => {
                let src = rng.below(n);
                let w: Vec<u64> = (0..1 + rng.below(4)).map(|_| rng.next()).collect();
                fold(format!("{:?}", comm.broadcast_from(src, &w)));
            }
            6 => fold(format!(
                "{:?}",
                comm.allgather(&random_words_per_node(&mut rng, n, 3))
            )),
            7 => fold(format!(
                "{:?}",
                comm.sort(&random_words_per_node(&mut rng, n, 3))
            )),
            8 => {
                let dst = rng.below(n);
                fold(format!(
                    "{:?}",
                    comm.gather_to(dst, &random_words_per_node(&mut rng, n, 2))
                ));
            }
            _ => {
                let name = format!("phase{}", step % 3);
                let inner = random_outboxes(&mut rng, n, 2);
                let r = comm.phase(&name, |c| {
                    c.charge_oracle(1 + (step as u64 % 4));
                    c.route(inner)
                });
                fold(format!("{r:?}"));
            }
        }
    }
    // Structural error paths: wrong outbox count and an out-of-range
    // destination must surface the identical typed error on both sides.
    fold(format!("{:?}", comm.exchange(vec![Vec::new(); n + 1])));
    fold(format!("{:?}", comm.broadcast_all(&vec![0u64; n - 1])));
    let mut bad = vec![Vec::new(); n];
    bad[n / 2].push((n + 3, vec![1]));
    bad[n - 1].push((n + 9, vec![2]));
    fold(format!("{:?}", comm.route(bad)));
    digest.finish()
}

fn assert_ledgers_identical(a: &dyn Communicator, b: &dyn Communicator, ctx: &str) {
    assert_eq!(a.ledger().phases(), b.ledger().phases(), "{ctx}: phase map");
    assert_eq!(a.ledger().report(), b.ledger().report(), "{ctx}: report");
    assert_eq!(
        a.ledger().total_rounds(),
        b.ledger().total_rounds(),
        "{ctx}: totals"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bare transports: same script, same digest, same ledger, at every
    /// worker count.
    #[test]
    fn threaded_matches_clique_bitwise(
        n in 2usize..17,
        seed in 0u64..1_000_000,
        steps in 4usize..24,
    ) {
        let mut seq = Clique::new(n);
        let want = run_script(&mut seq, n, seed, steps);
        for workers in [1usize, 2, 8] {
            let mut par = ThreadedComm::with_workers(n, workers);
            let got = run_script(&mut par, n, seed, steps);
            prop_assert_eq!(want, got, "workers={}", workers);
            assert_ledgers_identical(&seq, &par, &format!("workers={workers}"));
        }
    }

    /// Stacked wrappers: TracingComm and a benign FaultComm over
    /// ThreadedComm behave exactly as the same stack over Clique.
    #[test]
    fn wrapped_threaded_matches_wrapped_clique(
        n in 2usize..13,
        seed in 0u64..1_000_000,
        steps in 4usize..16,
    ) {
        for workers in [1usize, 2, 8] {
            let mut seq = TracingComm::new(FaultComm::new(
                Clique::new(n),
                FaultPlan::default(),
            ));
            let mut par = TracingComm::new(FaultComm::new(
                ThreadedComm::with_workers(n, workers),
                FaultPlan::default(),
            ));
            let want = run_script(&mut seq, n, seed, steps);
            let got = run_script(&mut par, n, seed, steps);
            prop_assert_eq!(want, got, "workers={}", workers);
            assert_ledgers_identical(&seq, &par, &format!("stacked workers={workers}"));
            assert_eq!(
                seq.trace_json(),
                par.trace_json(),
                "trace JSON identical through the stack"
            );
        }
    }

    /// A fault-injecting plan over ThreadedComm injects the same faults
    /// at the same call indices as over Clique (the fault stream is a
    /// transport-independent property of the plan).
    #[test]
    fn fault_streams_are_transport_independent(
        n in 2usize..9,
        seed in 0u64..10_000,
    ) {
        let plan = FaultPlan::new(seed).with(FaultRule::FailureRate(0.4));
        let mut seq = FaultComm::new(Clique::new(n), plan.clone());
        let mut par = FaultComm::new(ThreadedComm::with_workers(n, 2), plan);
        let a: Vec<bool> = (0..24)
            .map(|_| seq.broadcast_all(&vec![0u64; n]).is_ok())
            .collect();
        let b: Vec<bool> = (0..24)
            .map(|_| par.broadcast_all(&vec![0u64; n]).is_ok())
            .collect();
        prop_assert_eq!(a, b);
        prop_assert_eq!(seq.injected_faults(), par.injected_faults());
        assert_ledgers_identical(&seq, &par, "faulty");
    }
}
