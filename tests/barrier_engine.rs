//! End-to-end guarantees of the shared barrier-engine layer (DESIGN.md
//! §8): golden round totals and flow-bit hashes for fixed IPM instances,
//! cross-checked against the committed `BENCH_baseline.json`, plus a
//! property test that whole engine-driven IPM runs are bitwise
//! reproducible.

use cc_graph::generators;
use cc_maxflow::{max_flow_ipm, IpmOptions};
use cc_mcf::{min_cost_flow_ipm, McfOptions};
use cc_model::util::fnv1a_words;
use cc_model::{Clique, Communicator};
use proptest::prelude::*;

/// FNV-1a over the flow values' two's-complement bits (same digest the
/// bench snapshot records).
fn hash_i64(xs: &[i64]) -> u64 {
    fnv1a_words(xs.iter().map(|&x| x as u64))
}

struct Golden {
    instance: &'static str,
    /// Max-flow value or min-cost-flow cost.
    objective: i64,
    total_rounds: u64,
    charged_rounds: u64,
    flow_hash: u64,
}

/// The four golden instances the bench snapshot embeds. These numbers
/// predate the barrier-engine refactor: the adapters must reproduce the
/// monolithic implementations bit for bit.
const GOLDENS: [Golden; 4] = [
    Golden {
        instance: "maxflow/random_flow_network_8_seed5",
        objective: 1,
        total_rounds: 1087,
        charged_rounds: 10,
        flow_hash: 0x2e1704081a58eccc,
    },
    Golden {
        instance: "maxflow/random_flow_network_12_seed13",
        objective: 6,
        total_rounds: 1905,
        charged_rounds: 18,
        flow_hash: 0xd305d83e13feb037,
    },
    Golden {
        instance: "mcf/bipartite_assignment_4_seed7",
        objective: 12,
        total_rounds: 304,
        charged_rounds: 4,
        flow_hash: 0x96f13d398a433d27,
    },
    Golden {
        instance: "mcf/bipartite_assignment_5_seed11",
        objective: 12,
        total_rounds: 1822,
        charged_rounds: 4,
        flow_hash: 0x6faf0117cc9bff8a,
    },
];

/// Runs one golden instance, returning (objective, total, charged, hash).
fn run_golden(instance: &str) -> (i64, u64, u64, u64) {
    match instance {
        "maxflow/random_flow_network_8_seed5" | "maxflow/random_flow_network_12_seed13" => {
            let (n, extra, cap, seed, s, t) = if instance.ends_with("8_seed5") {
                (8, 14, 3, 5, 0, 7)
            } else {
                (12, 26, 4, 13, 0, 11)
            };
            let g = generators::random_flow_network(n, extra, cap, seed);
            let mut clique = Clique::new(n);
            let out = max_flow_ipm(&mut clique, &g, s, t, &IpmOptions::default()).unwrap();
            (
                out.value,
                clique.ledger().total_rounds(),
                clique.ledger().charged_rounds(),
                hash_i64(&out.flow),
            )
        }
        _ => {
            let (k, extra, cost, seed) = if instance.ends_with("4_seed7") {
                (4, 2, 8, 7)
            } else {
                (5, 3, 6, 11)
            };
            let (g, sigma) = generators::bipartite_assignment(k, extra, cost, seed);
            let mut clique = Clique::new(g.n() + 2);
            let out = min_cost_flow_ipm(&mut clique, &g, &sigma, &McfOptions::default())
                .expect("feasible");
            (
                out.cost,
                clique.ledger().total_rounds(),
                clique.ledger().charged_rounds(),
                hash_i64(&out.flow),
            )
        }
    }
}

/// Value of `"key": value` on a single snapshot row (hand-rolled: the
/// repo has no JSON dependency, and the snapshot writes one row per
/// line).
fn field<'a>(row: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let start = row
        .find(&pat)
        .unwrap_or_else(|| panic!("row missing {key}: {row}"))
        + pat.len();
    let rest = &row[start..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated {key}"));
    rest[..end].trim().trim_matches('"')
}

/// The engine-driven IPMs still cost exactly the golden round totals and
/// produce bit-identical flows, and the committed bench baseline agrees.
#[test]
fn golden_round_totals_match_code_and_baseline() {
    let baseline =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_baseline.json"))
            .expect("BENCH_baseline.json is committed at the repo root");
    for golden in &GOLDENS {
        let (objective, total, charged, hash) = run_golden(golden.instance);
        assert_eq!(
            objective, golden.objective,
            "{}: objective",
            golden.instance
        );
        assert_eq!(
            total, golden.total_rounds,
            "{}: total rounds",
            golden.instance
        );
        assert_eq!(
            charged, golden.charged_rounds,
            "{}: charged rounds",
            golden.instance
        );
        assert_eq!(hash, golden.flow_hash, "{}: flow hash", golden.instance);

        let row = baseline
            .lines()
            .find(|l| l.contains(golden.instance))
            .unwrap_or_else(|| panic!("baseline has no row for {}", golden.instance));
        assert_eq!(
            field(row, "total_rounds"),
            golden.total_rounds.to_string(),
            "{}: baseline total_rounds",
            golden.instance
        );
        assert_eq!(
            field(row, "charged_rounds"),
            golden.charged_rounds.to_string(),
            "{}: baseline charged_rounds",
            golden.instance
        );
        assert_eq!(
            field(row, "flow_hash"),
            format!("{:#018x}", golden.flow_hash),
            "{}: baseline flow_hash",
            golden.instance
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Two runs of an engine-driven IPM on the same instance are bitwise
    /// identical: same flow, same round totals, same per-stage engine
    /// stats. This is the determinism contract the sparsifier-template
    /// reuse and fixed-chunk fan-outs must not break.
    #[test]
    fn engine_driven_ipm_runs_are_bitwise_identical(
        n in 6usize..10,
        extra in 0usize..10,
        cap in 1i64..4,
        seed in 0u64..1000,
    ) {
        let g = generators::random_flow_network(n, extra, cap, seed);
        let run = || {
            let mut clique = Clique::new(n);
            let out = max_flow_ipm(&mut clique, &g, 0, n - 1, &IpmOptions::default()).unwrap();
            (out.flow.clone(), out.value, clique.ledger().total_rounds(), out.stats.clone())
        };
        let (flow_a, value_a, rounds_a, stats_a) = run();
        let (flow_b, value_b, rounds_b, stats_b) = run();
        prop_assert_eq!(flow_a, flow_b);
        prop_assert_eq!(value_a, value_b);
        prop_assert_eq!(rounds_a, rounds_b);
        prop_assert_eq!(stats_a.engine, stats_b.engine);
    }

    /// Same contract for the min-cost-flow adapter.
    #[test]
    fn engine_driven_mcf_runs_are_bitwise_identical(
        k in 3usize..6,
        extra in 0usize..4,
        cost in 1i64..8,
        seed in 0u64..1000,
    ) {
        let (g, sigma) = generators::bipartite_assignment(k, extra, cost, seed);
        let run = || {
            let mut clique = Clique::new(g.n() + 2);
            let out = min_cost_flow_ipm(&mut clique, &g, &sigma, &McfOptions::default())
                .expect("assignment instances are feasible");
            (out.flow.clone(), out.cost, clique.ledger().total_rounds(), out.stats.clone())
        };
        let (flow_a, cost_a, rounds_a, stats_a) = run();
        let (flow_b, cost_b, rounds_b, stats_b) = run();
        prop_assert_eq!(flow_a, flow_b);
        prop_assert_eq!(cost_a, cost_b);
        prop_assert_eq!(rounds_a, rounds_b);
        prop_assert_eq!(stats_a.engine, stats_b.engine);
    }
}
