//! The seeded deterministic instance corpus.
//!
//! Every case carries a stable ID (`family/params[-sK]`) so a failure
//! report pinpoints the instance exactly and regressions can be pinned
//! by name. The base slate covers the qualitative regimes each pipeline
//! must survive — paths (diameter), grids (locality), expanders
//! (conditioning), random weighted graphs, adversarially
//! near-disconnected graphs (tiny spectral gap), and high-dynamic-range
//! weights (large `U`) — and `CONFORM_CASES=N` appends `N` extra seeded
//! random instances per corpus for soak runs.

use cc_graph::{generators, DiGraph, Graph};

/// Reads the `CONFORM_CASES` environment variable: the number of extra
/// seeded random instances to append to each corpus (0 outside soak
/// runs, or on an unparsable value).
pub fn case_budget() -> usize {
    std::env::var("CONFORM_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Reads the `CONFORM_ADVERSARY_CASES` environment variable: the number
/// of extra seeded adversary plans the chaos suite
/// ([`crate::run_adversary_suite`]) appends to its base slate, per
/// pipeline (0 outside soak runs, or on an unparsable value). Mirrors
/// [`case_budget`]/`CONFORM_CASES`.
pub fn adversary_case_budget() -> usize {
    std::env::var("CONFORM_ADVERSARY_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Reads the `CONFORM_BROADCAST_CASES` environment variable: the number
/// of extra seeded random instances the broadcast conformance leg
/// (`tests/broadcast.rs`) appends to each corpus it replays over
/// `cc_model::BroadcastComm` (0 outside soak runs, or on an unparsable
/// value). Mirrors [`case_budget`]/`CONFORM_CASES`.
pub fn broadcast_case_budget() -> usize {
    std::env::var("CONFORM_BROADCAST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// An undirected weighted instance (solver / sparsifier / orientation
/// corpora).
#[derive(Debug, Clone)]
pub struct UndirectedCase {
    /// Stable instance ID.
    pub id: String,
    /// The graph.
    pub graph: Graph,
}

/// A directed `s`–`t` capacitated instance (max-flow corpus).
#[derive(Debug, Clone)]
pub struct FlowCase {
    /// Stable instance ID.
    pub id: String,
    /// The network.
    pub graph: DiGraph,
    /// Source vertex.
    pub s: usize,
    /// Sink vertex.
    pub t: usize,
}

/// A directed instance with a demand vector (min-cost-flow corpus).
#[derive(Debug, Clone)]
pub struct DemandCase {
    /// Stable instance ID.
    pub id: String,
    /// The network (unit capacities, integer costs).
    pub graph: DiGraph,
    /// Demand vector (positive = supply).
    pub sigma: Vec<i64>,
}

/// A non-negatively weighted arc list (shortest-path corpus).
#[derive(Debug, Clone)]
pub struct ArcCase {
    /// Stable instance ID.
    pub id: String,
    /// Vertex count.
    pub n: usize,
    /// Arcs `(from, to, weight ≥ 0)`.
    pub arcs: Vec<(usize, usize, i64)>,
    /// Distinguished source for SSSP checks.
    pub source: usize,
}

/// Two expanders joined by a single light bridge: connected, but with a
/// spectral gap governed by the bridge weight — the adversarial regime
/// for solver conditioning and expander decomposition.
fn near_disconnected(half: usize, bridge_weight: f64) -> Graph {
    let a = generators::expander(half);
    let mut g = Graph::new(2 * half);
    for e in a.edges() {
        g.add_edge(e.u, e.v, e.weight);
        g.add_edge(e.u + half, e.v + half, e.weight);
    }
    g.add_edge(half - 1, half, bridge_weight);
    g
}

/// A path whose weights sweep a `2^16` dynamic range: large `U` without
/// large `n`.
fn high_dynamic_range(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n - 1 {
        g.add_edge(
            i,
            i + 1,
            (2.0f64).powi((i as i32 * 16) / (n as i32 - 2).max(1)),
        );
    }
    // A few chords so the graph isn't a tree.
    for i in 0..n / 3 {
        g.add_edge(3 * i, (3 * i + n / 2) % n, 4.0);
    }
    g
}

/// The undirected corpus (solver, sparsifier, effective resistance).
/// Base slate of six families plus `extra` seeded random instances.
pub fn undirected_corpus(extra: usize) -> Vec<UndirectedCase> {
    let mut cases = vec![
        UndirectedCase {
            id: "path/16".into(),
            graph: generators::path(16),
        },
        UndirectedCase {
            id: "grid/4x5".into(),
            graph: generators::grid(4, 5),
        },
        UndirectedCase {
            id: "expander/24".into(),
            graph: generators::expander(24),
        },
        UndirectedCase {
            id: "random/20-50-8-s3".into(),
            graph: generators::random_connected(20, 50, 8, 3),
        },
        UndirectedCase {
            id: "bridge/10".into(),
            graph: near_disconnected(10, 1e-3),
        },
        UndirectedCase {
            id: "hdr/12".into(),
            graph: high_dynamic_range(12),
        },
    ];
    for k in 0..extra {
        let seed = 100 + k as u64;
        cases.push(UndirectedCase {
            id: format!("random/18-40-16-s{seed}"),
            graph: generators::random_connected(18, 40, 16, seed),
        });
    }
    cases
}

/// The Eulerian corpus (orientation): all degrees even.
pub fn eulerian_corpus(extra: usize) -> Vec<UndirectedCase> {
    let mut cases = vec![
        UndirectedCase {
            id: "cycle/12".into(),
            graph: generators::cycle(12),
        },
        UndirectedCase {
            id: "euler/20-3-s1".into(),
            graph: generators::random_eulerian(20, 3, 1),
        },
        UndirectedCase {
            id: "euler/30-4-s2".into(),
            graph: generators::random_eulerian(30, 4, 2),
        },
        UndirectedCase {
            id: "euler/16-2-s9".into(),
            graph: generators::random_eulerian(16, 2, 9),
        },
        UndirectedCase {
            id: "euler/40-5-s4".into(),
            graph: generators::random_eulerian(40, 5, 4),
        },
    ];
    for k in 0..extra {
        let seed = 200 + k as u64;
        cases.push(UndirectedCase {
            id: format!("euler/24-3-s{seed}"),
            graph: generators::random_eulerian(24, 3, seed),
        });
    }
    cases
}

/// The max-flow corpus.
pub fn flow_corpus(extra: usize) -> Vec<FlowCase> {
    let mut cases = vec![
        FlowCase {
            id: "flow/10-20-4-s1".into(),
            graph: generators::random_flow_network(10, 20, 4, 1),
            s: 0,
            t: 9,
        },
        FlowCase {
            id: "flow/12-26-3-s5".into(),
            graph: generators::random_flow_network(12, 26, 3, 5),
            s: 0,
            t: 11,
        },
        FlowCase {
            id: "flow/8-14-7-s2".into(),
            graph: generators::random_flow_network(8, 14, 7, 2),
            s: 0,
            t: 7,
        },
        FlowCase {
            id: "flowgrid/3x4-5-s3".into(),
            graph: generators::grid_flow_network(3, 4, 5, 3),
            s: 0,
            t: 11,
        },
        FlowCase {
            id: "flow/14-30-2-s8".into(),
            graph: generators::random_flow_network(14, 30, 2, 8),
            s: 0,
            t: 13,
        },
    ];
    for k in 0..extra {
        let seed = 300 + k as u64;
        cases.push(FlowCase {
            id: format!("flow/11-22-5-s{seed}"),
            graph: generators::random_flow_network(11, 22, 5, seed),
            s: 0,
            t: 10,
        });
    }
    cases
}

/// The min-cost-flow corpus (unit-capacity assignment instances).
pub fn demand_corpus(extra: usize) -> Vec<DemandCase> {
    let mut cases = Vec::new();
    for (k, extra_edges, w, seed) in [
        (3usize, 2usize, 7i64, 1u64),
        (4, 2, 9, 3),
        (5, 3, 5, 7),
        (4, 1, 15, 11),
        (6, 2, 31, 77),
    ] {
        let (graph, sigma) = generators::bipartite_assignment(k, extra_edges, w, seed);
        cases.push(DemandCase {
            id: format!("assign/{k}-{extra_edges}-{w}-s{seed}"),
            graph,
            sigma,
        });
    }
    for j in 0..extra {
        let seed = 400 + j as u64;
        let (graph, sigma) = generators::bipartite_assignment(4, 2, 12, seed);
        cases.push(DemandCase {
            id: format!("assign/4-2-12-s{seed}"),
            graph,
            sigma,
        });
    }
    cases
}

/// The shortest-path corpus: non-negative arc lists from unit digraphs
/// (weight = cost).
pub fn arc_corpus(extra: usize) -> Vec<ArcCase> {
    let mut cases = Vec::new();
    for (n, extra_edges, w, seed) in [
        (8usize, 12usize, 6i64, 1u64),
        (12, 20, 9, 2),
        (10, 16, 3, 5),
        (14, 24, 12, 7),
        (9, 10, 1, 4),
    ] {
        let g = generators::random_unit_digraph(n, extra_edges, w, seed);
        cases.push(ArcCase {
            id: format!("arcs/{n}-{extra_edges}-{w}-s{seed}"),
            n,
            arcs: g.edges().iter().map(|e| (e.from, e.to, e.cost)).collect(),
            source: 0,
        });
    }
    for j in 0..extra {
        let seed = 500 + j as u64;
        let g = generators::random_unit_digraph(11, 18, 8, seed);
        cases.push(ArcCase {
            id: format!("arcs/11-18-8-s{seed}"),
            n: 11,
            arcs: g.edges().iter().map(|e| (e.from, e.to, e.cost)).collect(),
            source: 0,
        });
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_have_stable_unique_ids() {
        let ids: Vec<String> = undirected_corpus(3)
            .into_iter()
            .map(|c| c.id)
            .chain(eulerian_corpus(2).into_iter().map(|c| c.id))
            .chain(flow_corpus(2).into_iter().map(|c| c.id))
            .chain(demand_corpus(2).into_iter().map(|c| c.id))
            .chain(arc_corpus(2).into_iter().map(|c| c.id))
            .collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate corpus IDs");
    }

    #[test]
    fn corpus_instances_are_deterministic() {
        let a = undirected_corpus(2);
        let b = undirected_corpus(2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.graph.edge_triples(), y.graph.edge_triples());
        }
    }

    #[test]
    fn base_slates_cover_at_least_five_instances() {
        assert!(undirected_corpus(0).len() >= 5);
        assert!(eulerian_corpus(0).len() >= 5);
        assert!(flow_corpus(0).len() >= 5);
        assert!(demand_corpus(0).len() >= 5);
        assert!(arc_corpus(0).len() >= 5);
    }

    #[test]
    fn adversarial_families_have_their_defining_shape() {
        let bridge = near_disconnected(8, 1e-3);
        assert!(bridge.is_connected());
        assert!(bridge.edges().iter().any(|e| e.weight < 1e-2));
        let hdr = high_dynamic_range(12);
        assert!(hdr.max_weight() / 1.0 >= 2.0f64.powi(15));
        for c in eulerian_corpus(0) {
            assert!(c.graph.is_eulerian(), "{}", c.id);
        }
    }

    #[test]
    fn case_budget_reads_environment() {
        let want = std::env::var("CONFORM_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        assert_eq!(case_budget(), want);
    }
}
