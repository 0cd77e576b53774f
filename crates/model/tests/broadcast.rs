//! Property-based pinning of [`BroadcastComm`], the Broadcast Congested
//! Clique transport:
//!
//! * **measured mode** delivers results bitwise identical to the unicast
//!   [`Clique`] on randomized workloads over every primitive, and is
//!   fully bitwise identical — results *and* ledgers — over `Clique`
//!   versus [`ThreadedComm`] at worker counts 1, 2, and 8;
//! * **strict mode** rejects every unicast-shaped primitive with the
//!   typed [`ModelError::UnicastInBroadcastModel`] while the
//!   broadcast-expressible surface stays identical to measured mode;
//! * the wrapping transports ([`TracingComm`], [`FaultComm`]) stack
//!   over `BroadcastComm` without changing its
//!   accounting, and the decorator seam forwards the broadcast mode,
//!   phase transitions, and fault counts through every layer.

use cc_model::util::Fnv1a;
use cc_model::{
    BroadcastComm, Clique, Communicator, FaultComm, FaultPlan, FaultRule, ModelError, ThreadedComm,
    TracingComm,
};
use proptest::prelude::*;

/// Deterministic xorshift stream so every transport replays the exact
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
/// observable outcome (values and errors) into a digest. Identical to
/// the `ThreadedComm` identity script so the two suites pin the same
/// primitive surface.
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
    // Structural error paths must surface identically on every side.
    fold(format!("{:?}", comm.exchange(vec![Vec::new(); n + 1])));
    fold(format!("{:?}", comm.broadcast_all(&vec![0u64; n - 1])));
    let mut bad = vec![Vec::new(); n];
    bad[n / 2].push((n + 3, vec![1]));
    bad[n - 1].push((n + 9, vec![2]));
    fold(format!("{:?}", comm.route(bad)));
    digest.finish()
}

/// A broadcast-expressible script: only primitives a *strict* broadcast
/// clique admits (the sparsifier → solver communication shape).
fn run_broadcast_script<C: Communicator>(comm: &mut C, n: usize, seed: u64, steps: usize) -> u64 {
    let mut rng = Lcg(seed);
    let mut digest = Fnv1a::default();
    let mut fold = |s: String| digest.bytes(s.as_bytes());
    for step in 0..steps {
        match rng.below(5) {
            0 => {
                let v: Vec<u64> = (0..n).map(|_| rng.next()).collect();
                fold(format!("{:?}", comm.broadcast_all(&v)));
            }
            1 => fold(format!(
                "{:?}",
                comm.broadcast_all_words(&random_words_per_node(&mut rng, n, 3))
            )),
            2 => {
                let src = rng.below(n);
                let w: Vec<u64> = (0..1 + rng.below(5)).map(|_| rng.next()).collect();
                fold(format!("{:?}", comm.broadcast_from(src, &w)));
            }
            3 => fold(format!(
                "{:?}",
                comm.allgather(&random_words_per_node(&mut rng, n, 3))
            )),
            _ => {
                let name = format!("phase{}", step % 3);
                let v: Vec<u64> = (0..n).map(|_| rng.next()).collect();
                let r = comm.phase(&name, |c| {
                    c.charge_oracle(1 + (step as u64 % 4));
                    c.broadcast_all(&v)
                });
                fold(format!("{r:?}"));
            }
        }
    }
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

    /// Measured mode delivers bitwise the same results (and errors) as
    /// the bare unicast `Clique` on the full primitive surface — only
    /// the charged rounds differ, per the documented cost model.
    #[test]
    fn measured_results_match_unicast_clique(
        n in 2usize..17,
        seed in 0u64..1_000_000,
        steps in 4usize..24,
    ) {
        let mut unicast = Clique::new(n);
        let want = run_script(&mut unicast, n, seed, steps);
        let mut measured = BroadcastComm::measured(Clique::new(n));
        let got = run_script(&mut measured, n, seed, steps);
        prop_assert_eq!(want, got);
    }

    /// Measured `BroadcastComm` is *fully* bitwise identical — results
    /// and ledgers — over `Clique` versus `ThreadedComm` at workers
    /// 1, 2, and 8.
    #[test]
    fn measured_over_threaded_matches_over_clique(
        n in 2usize..17,
        seed in 0u64..1_000_000,
        steps in 4usize..24,
    ) {
        let mut seq = BroadcastComm::measured(Clique::new(n));
        let want = run_script(&mut seq, n, seed, steps);
        for workers in [1usize, 2, 8] {
            let mut par = BroadcastComm::measured(ThreadedComm::with_workers(n, workers));
            let got = run_script(&mut par, n, seed, steps);
            prop_assert_eq!(want, got, "workers={}", workers);
            assert_ledgers_identical(&seq, &par, &format!("workers={workers}"));
        }
    }

    /// Strict and measured mode agree bitwise on the broadcast-
    /// expressible surface, over both substrates at every worker count.
    #[test]
    fn strict_matches_measured_on_broadcast_surface(
        n in 2usize..17,
        seed in 0u64..1_000_000,
        steps in 4usize..24,
    ) {
        let mut strict = BroadcastComm::strict(Clique::new(n));
        let want = run_broadcast_script(&mut strict, n, seed, steps);
        let mut measured = BroadcastComm::measured(Clique::new(n));
        let got = run_broadcast_script(&mut measured, n, seed, steps);
        prop_assert_eq!(want, got, "strict vs measured");
        assert_ledgers_identical(&strict, &measured, "strict vs measured");
        for workers in [1usize, 2, 8] {
            let mut par = BroadcastComm::strict(ThreadedComm::with_workers(n, workers));
            let got = run_broadcast_script(&mut par, n, seed, steps);
            prop_assert_eq!(want, got, "strict workers={}", workers);
            assert_ledgers_identical(&strict, &par, &format!("strict workers={workers}"));
        }
    }

    /// The decorator seam forwards `mode()` through every layer: two
    /// benign `FaultComm`s between the tracer and a
    /// `ThreadedComm`-backed broadcast clique leave the trace exactly as
    /// over a bare `BroadcastComm<Clique>`. A layer that dropped `mode()`
    /// would switch the tracer to unicast congestion attribution.
    #[test]
    fn decorator_stack_forwards_broadcast_mode(
        n in 2usize..13,
        seed in 0u64..1_000_000,
        steps in 4usize..16,
    ) {
        let mut bare = TracingComm::new(BroadcastComm::measured(Clique::new(n)));
        let want = run_script(&mut bare, n, seed, steps);
        for workers in [1usize, 2, 8] {
            let mut deep = TracingComm::new(FaultComm::new(
                FaultComm::new(
                    BroadcastComm::measured(ThreadedComm::with_workers(n, workers)),
                    FaultPlan::new(seed),
                ),
                FaultPlan::default(),
            ));
            let got = run_script(&mut deep, n, seed, steps);
            prop_assert_eq!(want, got, "workers={}", workers);
            assert_ledgers_identical(&bare, &deep, &format!("stacked workers={workers}"));
            prop_assert_eq!(bare.congestion_json(), deep.congestion_json());
            prop_assert_eq!(bare.trace_json(), deep.trace_json());
        }
    }

    /// An adversary schedule over the broadcast clique injects the same
    /// events over `Clique` as over `ThreadedComm`: the adversary layer
    /// is substrate-independent above `BroadcastComm` too.
    #[test]
    fn adversary_over_broadcast_is_substrate_independent(
        n in 3usize..9,
        seed in 0u64..10_000,
    ) {
        let plan = FaultPlan::new(seed).with(FaultRule::Silent(1));
        let mut seq = FaultComm::new(
            BroadcastComm::measured(Clique::new(n)),
            plan.clone(),
        );
        let mut par = FaultComm::new(
            BroadcastComm::measured(ThreadedComm::with_workers(n, 2)),
            plan,
        );
        let want = run_broadcast_script(&mut seq, n, seed, 12);
        let got = run_broadcast_script(&mut par, n, seed, 12);
        prop_assert_eq!(want, got);
        prop_assert_eq!(seq.omissions(), par.omissions());
        assert_eq!(seq.events_json(), par.events_json());
        assert_ledgers_identical(&seq, &par, "adversary");
    }
}

/// Every unicast-shaped primitive is a typed strict-mode rejection, and
/// the rejection leaves the ledger untouched.
#[test]
fn strict_mode_rejects_each_unicast_primitive() {
    let n = 5;
    let outboxes = || {
        vec![
            vec![(1usize, vec![1u64, 2])],
            vec![],
            vec![],
            vec![],
            vec![],
        ]
    };
    let per_node = || vec![vec![3u64], vec![], vec![], vec![], vec![]];
    let cases: Vec<(&str, ModelError)> = {
        let mut comm = BroadcastComm::strict(Clique::new(n));
        vec![
            ("exchange", comm.exchange(outboxes()).unwrap_err()),
            ("route", comm.route(outboxes()).unwrap_err()),
            ("route_strict", comm.route_strict(outboxes()).unwrap_err()),
            ("sort", comm.sort(&per_node()).unwrap_err()),
            ("gather_to", comm.gather_to(2, &per_node()).unwrap_err()),
        ]
    };
    for (name, err) in cases {
        assert_eq!(
            err,
            ModelError::UnicastInBroadcastModel { primitive: name },
            "{name}"
        );
        let msg = err.to_string();
        assert!(msg.contains(name), "display names the primitive: {msg}");
    }
    // Strict rejection also works through the ThreadedComm substrate and
    // under a TracingComm wrapper (the error is recorded, not masked).
    let mut traced = TracingComm::new(BroadcastComm::strict(ThreadedComm::with_workers(n, 2)));
    assert_eq!(
        traced.sort(&per_node()).unwrap_err(),
        ModelError::UnicastInBroadcastModel { primitive: "sort" }
    );
    assert_eq!(traced.ledger().total_rounds(), 0);
}

/// The measured-mode cost model, pinned on concrete payloads (the
/// DESIGN.md §14 table).
#[test]
fn measured_cost_table_is_documented_values() {
    let n = 5;
    let mut comm = BroadcastComm::measured(Clique::new(n));

    // exchange / route: max per-node send load (node 0 sends 4 words).
    let outboxes = vec![
        vec![(1usize, vec![1u64, 2]), (3, vec![3, 4])],
        vec![(2, vec![5])],
        vec![],
        vec![],
        vec![],
    ];
    comm.exchange(outboxes.clone()).unwrap();
    assert_eq!(comm.ledger().total_rounds(), 4);
    comm.route(outboxes).unwrap();
    assert_eq!(comm.ledger().total_rounds(), 8);

    // broadcast_from: w rounds, no scatter doubling.
    comm.broadcast_from(2, &(0..6).collect()).unwrap();
    assert_eq!(comm.ledger().total_rounds(), 14);

    // allgather: unbalanced max contribution.
    comm.allgather(&[vec![1, 2, 3], vec![], vec![4], vec![], vec![]])
        .unwrap();
    assert_eq!(comm.ledger().total_rounds(), 17);

    // sort / gather_to: max per-node vector length.
    comm.sort(&[vec![9, 1], vec![5], vec![], vec![], vec![2]])
        .unwrap();
    assert_eq!(comm.ledger().total_rounds(), 19);
    comm.gather_to(0, &[vec![], vec![1, 2, 3, 4], vec![], vec![5], vec![]])
        .unwrap();
    assert_eq!(comm.ledger().total_rounds(), 23);
}

/// Phase transitions reach a `TracingComm` stacked under a `FaultComm`
/// (the seam forwards `push_phase`/`pop_phase` to the inner layer, not to
/// the ledger), and `faults_observed` sums every layer's count.
#[test]
fn decorators_forward_phases_and_sum_fault_counts() {
    let mut traced = FaultComm::new(TracingComm::new(Clique::new(4)), FaultPlan::default());
    traced.phase("outer", |c| c.charge_oracle(1));
    let kinds: Vec<&str> = cc_model::Decorator::inner(&traced)
        .events()
        .iter()
        .map(|e| e.primitive)
        .collect();
    assert_eq!(kinds, ["phase_enter", "charge_oracle", "phase_exit"]);

    // Per-call and per-node rules of one plan land in one event log.
    let plan = FaultPlan::new(3)
        .with(FaultRule::FailInPhase("doomed".into()))
        .with(FaultRule::Silent(1));
    let mut comm = FaultComm::new(TracingComm::new(Clique::new(4)), plan);
    // The silent node is detected by node screening; the armed phase
    // fails the call before screening.
    comm.broadcast_all(&[1, 2, 3, 4]).unwrap_err();
    comm.phase("doomed", |c| c.broadcast_all(&[1, 2, 3, 4]))
        .unwrap_err();
    assert_eq!((comm.injected_faults(), comm.omissions()), (1, 1));
    assert_eq!(comm.faults_observed(), 2);
    // A fault-injecting layer below sums in too.
    let mut stacked = FaultComm::new(comm, FaultPlan::default());
    stacked.broadcast_all(&[1, 2, 3, 4]).unwrap_err();
    assert_eq!(stacked.faults_observed(), 3);
}
