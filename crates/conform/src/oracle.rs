//! Sequential reference oracles.
//!
//! Textbook implementations against plain graph data — deliberately
//! boring, single-threaded, and free of any dependence on the
//! communication model. They are the ground truth the distributed
//! pipelines are differenced against: where the workspace already ships
//! a sequential baseline (Dinic, the cc-mcf SSP), the oracle here is an
//! *independent second implementation* (Edmonds–Karp, a Bellman–Ford
//! SSP), so a shared bug cannot silently certify itself.

use cc_graph::{DiGraph, Graph};
use cc_linalg::{laplacian_from_edges, laplacian_quadratic_form, GroundedCholesky, LinalgError};
use cc_model::util::SplitMix64;

/// Exact solution of `L x = b` (zero mean per connected component) via
/// the grounded Cholesky factorization (a sparse factor whose entries are
/// bitwise those of the dense one), for differencing against the
/// distributed Chebyshev solver.
///
/// # Errors
///
/// [`LinalgError`] if the grounded factorization fails (numerically
/// degenerate weights).
///
/// # Panics
///
/// Panics if `b.len() != n`.
pub fn dense_laplacian_solve(
    n: usize,
    edges: &[(usize, usize, f64)],
    b: &[f64],
) -> Result<Vec<f64>, LinalgError> {
    assert_eq!(b.len(), n, "rhs length mismatch");
    let lap = laplacian_from_edges(n, edges);
    let chol = GroundedCholesky::new(&lap)?;
    let mut x = chol.solve(b);
    // Project to zero mean per component — the normal form the
    // distributed solver returns.
    let comp = chol.components();
    let num = comp.iter().copied().max().map_or(0, |c| c + 1);
    let mut sums = vec![0.0; num];
    let mut counts = vec![0usize; num];
    for (v, &c) in comp.iter().enumerate() {
        sums[c] += x[v];
        counts[c] += 1;
    }
    for (v, &c) in comp.iter().enumerate() {
        x[v] -= sums[c] / counts[c].max(1) as f64;
    }
    Ok(x)
}

/// Exact effective resistance between `s` and `t` by a dense solve of
/// `L x = e_s − e_t` and reading `x_s − x_t`.
///
/// # Errors
///
/// [`LinalgError`] if the factorization fails.
///
/// # Panics
///
/// Panics if `s` or `t` is out of range or `s == t`.
pub fn effective_resistance_dense(
    n: usize,
    edges: &[(usize, usize, f64)],
    s: usize,
    t: usize,
) -> Result<f64, LinalgError> {
    assert!(s < n && t < n && s != t, "bad terminals");
    let mut b = vec![0.0; n];
    b[s] = 1.0;
    b[t] = -1.0;
    let x = dense_laplacian_solve(n, edges, &b)?;
    Ok(x[s] - x[t])
}

/// The Laplacian quadratic form `xᵀ L x = Σ w_{uv} (x_u − x_v)²`.
pub fn quadratic_form(edges: &[(usize, usize, f64)], x: &[f64]) -> f64 {
    laplacian_quadratic_form(edges, x)
}

/// Deterministic probe vectors for quadratic-form differencing: `count`
/// vectors on `n` coordinates from a SplitMix64 stream seeded by `seed`,
/// each centered to zero mean (so they lie in the range of a connected
/// Laplacian).
pub fn probe_vectors(n: usize, count: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let mut v: Vec<f64> = (0..n).map(|_| rng.next_f64() - 0.5).collect();
            let mean = v.iter().sum::<f64>() / n.max(1) as f64;
            for x in &mut v {
                *x -= mean;
            }
            v
        })
        .collect()
}

/// Extreme ratios `xᵀ L_G x / xᵀ S_H x` over probe vectors, where `S_H`
/// is the Schur complement of the star-gadget edge list `gadget_edges`
/// (vertices `>= n` are star centers) onto the original `n` vertices —
/// computed here from scratch, independently of `cc-sparsify`'s own
/// certification. A sparsifier honoring `(1/α)·S_H ⪯ L_G ⪯ α·S_H` must
/// see every ratio inside `[1/α, α]`.
///
/// Returns `(min_ratio, max_ratio)` over the probes with nonzero
/// denominator.
///
/// # Panics
///
/// Panics if two star centers are adjacent (malformed gadget), or a
/// probe has a different length than `n`.
pub fn schur_quadratic_ratio_bounds(
    n: usize,
    gadget_edges: &[(usize, usize, f64)],
    g_edges: &[(usize, usize, f64)],
    probes: &[Vec<f64>],
) -> (f64, f64) {
    // Dense Schur complement S = A_oo − Σ_c w_c w_cᵀ / s_c over the
    // star centers c (pairwise non-adjacent by construction).
    let aux = gadget_edges
        .iter()
        .flat_map(|&(u, v, _)| [u, v])
        .filter(|&v| v >= n)
        .max()
        .map_or(0, |v| v + 1 - n);
    let mut s = vec![0.0; n * n];
    let mut centers: Vec<Vec<(usize, f64)>> = vec![Vec::new(); aux];
    for &(u, v, w) in gadget_edges {
        match (u >= n, v >= n) {
            (false, false) => {
                s[u * n + u] += w;
                s[v * n + v] += w;
                s[u * n + v] -= w;
                s[v * n + u] -= w;
            }
            (false, true) => {
                s[u * n + u] += w;
                centers[v - n].push((u, w));
            }
            (true, false) => {
                s[v * n + v] += w;
                centers[u - n].push((v, w));
            }
            (true, true) => panic!("star centers must not be adjacent"),
        }
    }
    for ws in &centers {
        let total: f64 = ws.iter().map(|&(_, w)| w).sum();
        if total <= 0.0 {
            continue;
        }
        for &(u, wu) in ws {
            for &(v, wv) in ws {
                s[u * n + v] -= wu * wv / total;
            }
        }
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for x in probes {
        assert_eq!(x.len(), n, "probe length mismatch");
        let num = quadratic_form(g_edges, x);
        let mut den = 0.0;
        for u in 0..n {
            let mut row = 0.0;
            for v in 0..n {
                row += s[u * n + v] * x[v];
            }
            den += x[u] * row;
        }
        if den.abs() > 1e-12 * num.abs().max(1.0) {
            let r = num / den;
            lo = lo.min(r);
            hi = hi.max(r);
        }
    }
    (lo, hi)
}

/// Dijkstra single-source shortest paths over non-negative arcs.
/// `None` marks unreachable vertices.
///
/// # Panics
///
/// Panics on negative arc weights, out-of-range arcs, or
/// `source >= n`.
pub fn dijkstra_sssp(n: usize, arcs: &[(usize, usize, i64)], source: usize) -> Vec<Option<i64>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    assert!(source < n, "source out of range");
    let mut adj: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
    for &(u, v, w) in arcs {
        assert!(u < n && v < n, "arc out of range");
        assert!(w >= 0, "Dijkstra oracle requires non-negative weights");
        adj[u].push((v, w));
    }
    let mut dist: Vec<Option<i64>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0i64, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        match dist[u] {
            Some(best) if best <= d => continue,
            _ => dist[u] = Some(d),
        }
        for &(v, w) in &adj[u] {
            let nd = d + w;
            if dist[v].is_none_or(|best| nd < best) {
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// Dijkstra all-pairs shortest paths (one SSSP per source).
pub fn dijkstra_apsp(n: usize, arcs: &[(usize, usize, i64)]) -> Vec<Vec<Option<i64>>> {
    (0..n).map(|s| dijkstra_sssp(n, arcs, s)).collect()
}

/// Edmonds–Karp maximum flow (BFS augmenting paths on the residual
/// graph): an independent check on both Dinic and the IPM pipeline.
/// Returns the per-edge flow and its value.
///
/// # Panics
///
/// Panics on bad terminals.
pub fn edmonds_karp(g: &DiGraph, s: usize, t: usize) -> (Vec<i64>, i64) {
    assert!(s != t && s < g.n() && t < g.n(), "bad terminals");
    let n = g.n();
    let m = g.m();
    // Residual arcs 2i (forward) / 2i+1 (backward) for edge i.
    let mut cap: Vec<i64> = Vec::with_capacity(2 * m);
    for e in g.edges() {
        cap.push(e.capacity);
        cap.push(0);
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, e) in g.edges().iter().enumerate() {
        adj[e.from].push(2 * i);
        adj[e.to].push(2 * i + 1);
    }
    let arc_to = |a: usize| {
        let e = g.edge(a / 2);
        if a.is_multiple_of(2) {
            e.to
        } else {
            e.from
        }
    };
    let mut value = 0i64;
    loop {
        // BFS for a shortest augmenting path.
        let mut parent_arc = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(s);
        let mut seen = vec![false; n];
        seen[s] = true;
        while let Some(u) = queue.pop_front() {
            for &a in &adj[u] {
                let v = arc_to(a);
                if !seen[v] && cap[a] > 0 {
                    seen[v] = true;
                    parent_arc[v] = a;
                    queue.push_back(v);
                }
            }
        }
        if !seen[t] {
            break;
        }
        // Bottleneck and augment.
        let mut bottleneck = i64::MAX;
        let mut v = t;
        while v != s {
            let a = parent_arc[v];
            bottleneck = bottleneck.min(cap[a]);
            v = if a.is_multiple_of(2) {
                g.edge(a / 2).from
            } else {
                g.edge(a / 2).to
            };
        }
        let mut v = t;
        while v != s {
            let a = parent_arc[v];
            cap[a] -= bottleneck;
            cap[a ^ 1] += bottleneck;
            v = if a.is_multiple_of(2) {
                g.edge(a / 2).from
            } else {
                g.edge(a / 2).to
            };
        }
        value += bottleneck;
    }
    let flow: Vec<i64> = (0..m).map(|i| cap[2 * i + 1]).collect();
    (flow, value)
}

/// Successive-shortest-paths minimum-cost flow for a demand vector
/// `sigma` (positive = supply, negative = demand), using Bellman–Ford on
/// the residual graph so negative reduced costs need no potentials — an
/// independent second implementation against `cc-mcf`'s SSP baseline.
/// Returns `None` when the demands are infeasible.
///
/// # Panics
///
/// Panics if `sigma.len() != g.n()` or the demands don't sum to zero.
pub fn ssp_mcf(g: &DiGraph, sigma: &[i64]) -> Option<(Vec<i64>, i64)> {
    assert_eq!(sigma.len(), g.n(), "demand length mismatch");
    assert_eq!(sigma.iter().sum::<i64>(), 0, "demands must balance");
    let n = g.n();
    let m = g.m();
    let mut flow = vec![0i64; m];
    let mut excess: Vec<i64> = sigma.to_vec();
    while let Some(src) = (0..n).find(|&v| excess[v] > 0) {
        // Bellman–Ford from src on the residual graph.
        const INF: i64 = i64::MAX / 4;
        let mut dist = vec![INF; n];
        let mut parent: Vec<Option<(usize, bool)>> = vec![None; n]; // (edge, forward)
        dist[src] = 0;
        for _ in 0..n {
            let mut improved = false;
            for (i, e) in g.edges().iter().enumerate() {
                if flow[i] < e.capacity && dist[e.from] < INF {
                    let nd = dist[e.from] + e.cost;
                    if nd < dist[e.to] {
                        dist[e.to] = nd;
                        parent[e.to] = Some((i, true));
                        improved = true;
                    }
                }
                if flow[i] > 0 && dist[e.to] < INF {
                    let nd = dist[e.to] - e.cost;
                    if nd < dist[e.from] {
                        dist[e.from] = nd;
                        parent[e.from] = Some((i, false));
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        // Route to the closest reachable deficit vertex.
        let sink = (0..n)
            .filter(|&v| excess[v] < 0 && dist[v] < INF)
            .min_by_key(|&v| (dist[v], v))?;
        // Bottleneck along the path.
        let mut bottleneck = excess[src].min(-excess[sink]);
        let mut v = sink;
        while v != src {
            let (i, fwd) = parent[v].expect("path exists");
            let e = g.edge(i);
            bottleneck = bottleneck.min(if fwd { e.capacity - flow[i] } else { flow[i] });
            v = if fwd { e.from } else { e.to };
        }
        let mut v = sink;
        while v != src {
            let (i, fwd) = parent[v].expect("path exists");
            let e = g.edge(i);
            if fwd {
                flow[i] += bottleneck;
            } else {
                flow[i] -= bottleneck;
            }
            v = if fwd { e.from } else { e.to };
        }
        excess[src] -= bottleneck;
        excess[sink] += bottleneck;
    }
    let cost: i64 = g.edges().iter().zip(&flow).map(|(e, &f)| e.cost * f).sum();
    Some((flow, cost))
}

/// Independent Eulerian-orientation certificate: `oriented[e] = true`
/// sends edge `e` from `u` to `v`; valid iff every vertex has in-degree
/// equal to out-degree.
pub fn orientation_balanced(g: &Graph, oriented: &[bool]) -> bool {
    if oriented.len() != g.m() {
        return false;
    }
    let mut balance = vec![0i64; g.n()];
    for (e, &fwd) in oriented.iter().enumerate() {
        let edge = g.edge(e);
        if fwd {
            balance[edge.u] += 1;
            balance[edge.v] -= 1;
        } else {
            balance[edge.v] += 1;
            balance[edge.u] -= 1;
        }
    }
    balance.iter().all(|&b| b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;

    #[test]
    fn dense_solve_matches_series_resistance() {
        let edges: Vec<(usize, usize, f64)> = (0..7).map(|i| (i, i + 1, 1.0)).collect();
        let r = effective_resistance_dense(8, &edges, 0, 7).unwrap();
        assert!((r - 7.0).abs() < 1e-9, "series chain, got {r}");
    }

    #[test]
    fn dense_solve_is_zero_mean_per_component() {
        // Two disjoint paths.
        let edges = vec![(0, 1, 1.0), (1, 2, 1.0), (3, 4, 2.0)];
        let mut b = vec![0.0; 5];
        b[0] = 1.0;
        b[2] = -1.0;
        let x = dense_laplacian_solve(5, &edges, &b).unwrap();
        assert!((x[0] + x[1] + x[2]).abs() < 1e-12);
        assert!((x[3] + x[4]).abs() < 1e-12);
    }

    #[test]
    fn dijkstra_matches_hand_distances() {
        let arcs = vec![(0, 1, 2), (1, 2, 3), (0, 2, 10), (2, 3, 1)];
        let d = dijkstra_sssp(4, &arcs, 0);
        assert_eq!(d, vec![Some(0), Some(2), Some(5), Some(6)]);
        let all = dijkstra_apsp(4, &arcs);
        assert_eq!(all[1][3], Some(4));
        assert_eq!(all[3][0], None);
    }

    #[test]
    fn edmonds_karp_agrees_with_dinic() {
        for seed in 0..6 {
            let g = generators::random_flow_network(10, 22, 5, seed);
            let (_, want) = cc_maxflow_dinic(&g, 0, 9);
            let (flow, value) = edmonds_karp(&g, 0, 9);
            assert_eq!(value, want, "seed {seed}");
            assert!(g.is_feasible_flow(&flow, &g.st_demand(0, 9, value)));
        }
    }

    // Local re-implementation guard: call through the real Dinic to keep
    // this test honest without a dev-dependency cycle.
    fn cc_maxflow_dinic(g: &DiGraph, s: usize, t: usize) -> (Vec<i64>, i64) {
        cc_maxflow::dinic(g, s, t)
    }

    #[test]
    fn ssp_oracle_finds_optimal_assignment() {
        let (g, sigma) = generators::bipartite_assignment(4, 2, 9, 3);
        let (flow, cost) = ssp_mcf(&g, &sigma).unwrap();
        assert!(g.is_feasible_flow(&flow, &sigma));
        let (_, want) = cc_mcf::ssp_min_cost_flow(&g, &sigma).unwrap();
        assert_eq!(cost, want);
    }

    #[test]
    fn ssp_oracle_reports_infeasible() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1, 1);
        // Vertex 2 demands a unit no edge can deliver.
        assert!(ssp_mcf(&g, &[1, 0, -1]).is_none());
    }

    #[test]
    fn probe_vectors_are_deterministic_and_centered() {
        let a = probe_vectors(12, 4, 7);
        let b = probe_vectors(12, 4, 7);
        assert_eq!(a, b);
        for v in &a {
            assert!(v.iter().sum::<f64>().abs() < 1e-9);
        }
    }

    #[test]
    fn orientation_certificate_rejects_imbalance() {
        let g = generators::cycle(4);
        assert!(orientation_balanced(&g, &[true, true, true, true]));
        assert!(!orientation_balanced(&g, &[true, false, true, true]));
        assert!(!orientation_balanced(&g, &[true; 3]));
    }
}
