//! Deterministic expander decomposition.
//!
//! Substitute for the \[CS20\] black box of Theorem 3.2 (see `DESIGN.md`
//! §2.1): a recursive spectral partitioner. For the current vertex set we
//! compute the exact spectrum of the weighted normalized Laplacian with the
//! dense symmetric eigensolver. A piece with `µ₂ ≥ 2φ` is final as it
//! stands: by the easy direction of Cheeger's inequality no cut of it has
//! conductance below `µ₂/2 ≥ φ`. Otherwise we form the exact second
//! eigenvector, try all its sweep cuts, and split when the best one has
//! weighted conductance below `phi`; if none does, the piece is final and
//! — because the eigenvector is exact — carries a *certificate*
//! `µ₂ ≥ φ²/2 > 0`. Either way we record the exact `µ₂` and `µ_max`,
//! which is strictly stronger than the conductance guarantee the paper
//! consumes downstream.

use cc_graph::{EdgeId, Graph, VertexId};
use cc_linalg::{normalized_laplacian_dense, symmetric_reduce, LinalgError};

/// A final cluster of the decomposition with its exact spectral certificate.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Global vertex ids of the cluster, ascending.
    pub vertices: Vec<VertexId>,
    /// Ids (in the decomposed graph) of the intra-cluster edges.
    pub edges: Vec<EdgeId>,
    /// Exact second-smallest eigenvalue of the cluster's weighted
    /// normalized Laplacian (`0` for single-vertex or edgeless clusters).
    pub mu2: f64,
    /// Exact largest eigenvalue of the same matrix (`0` if edgeless).
    pub mu_max: f64,
}

impl Cluster {
    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True for a single-vertex cluster.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// Result of [`expander_decompose`].
#[derive(Debug, Clone)]
pub struct ExpanderDecomposition {
    /// Final clusters; every vertex appears in exactly one.
    pub clusters: Vec<Cluster>,
    /// Ids of the edges crossing between clusters.
    pub crossing_edges: Vec<EdgeId>,
    /// The conductance threshold used.
    pub phi: f64,
}

impl ExpanderDecomposition {
    /// Human-readable summary: cluster count, size distribution, spectral
    /// gap range, crossing edges — what the `sparsifier_inspect` example
    /// prints.
    pub fn summary(&self) -> String {
        let sizes: Vec<usize> = self.clusters.iter().map(|c| c.len()).collect();
        let max = sizes.iter().copied().max().unwrap_or(0);
        let min = sizes.iter().copied().min().unwrap_or(0);
        let gaps: Vec<f64> = self
            .clusters
            .iter()
            .filter(|c| !c.edges.is_empty())
            .map(|c| c.mu2)
            .collect();
        let gap_min = gaps.iter().copied().fold(f64::INFINITY, f64::min);
        let gap_max = gaps.iter().copied().fold(0.0f64, f64::max);
        format!(
            "{} clusters (sizes {min}..{max}), certified gaps µ2 ∈ [{:.4}, {:.4}], {} crossing edges (φ = {:.4})",
            self.clusters.len(),
            if gap_min.is_finite() { gap_min } else { 0.0 },
            gap_max,
            self.crossing_edges.len(),
            self.phi,
        )
    }

    /// Cluster id per vertex.
    pub fn assignment(&self, n: usize) -> Vec<usize> {
        let mut a = vec![usize::MAX; n];
        for (cid, cl) in self.clusters.iter().enumerate() {
            for &v in &cl.vertices {
                a[v] = cid;
            }
        }
        a
    }
}

/// The default conductance threshold `φ = 1/(8·ln(2 + vol(G)))`, chosen so
/// that (heuristically, and verified by the E2 experiment) each level of
/// the sparsifier construction drops at least half of the remaining edge
/// weight — the role `φ = 1/polylog` plays in \[CGLN+20\].
pub fn default_phi(g: &Graph) -> f64 {
    let vol = 2.0 * g.total_weight();
    1.0 / (8.0 * (2.0 + vol).ln())
}

/// Deterministic expander decomposition of `g` with conductance threshold
/// `phi`.
///
/// Guarantees:
/// * every final cluster with ≥ 2 vertices is connected and carries its
///   exact spectral gap `µ₂` (> 0);
/// * a cluster is only accepted when `µ₂ ≥ 2φ`, so that no cut of it has
///   weighted conductance below `phi` (Cheeger's easy direction), or when
///   no sweep cut of its exact Fiedler vector does, which by the sweep-cut
///   (Cheeger) inequality certifies `µ₂ ≥ φ²/2`; the Fiedler vector is
///   computed only in the second case;
/// * crossing edges are exactly the edges whose endpoints lie in different
///   clusters.
///
/// Purely internal computation: the congested-clique round cost is charged
/// by the caller ([`crate::build_sparsifier`]) as an oracle phase per
/// Theorem 3.2's formula.
///
/// # Errors
///
/// Propagates a dense eigendecomposition failure (cannot happen for
/// finite positive weights).
///
/// # Panics
///
/// Panics if `phi` is not in `(0, 1)`.
pub fn expander_decompose(g: &Graph, phi: f64) -> Result<ExpanderDecomposition, LinalgError> {
    assert!(phi > 0.0 && phi < 1.0, "phi must be in (0,1), got {phi}");
    let mut clusters = Vec::new();
    // Process the worklist in waves: a wave's pieces are vertex-disjoint,
    // and each piece's fate depends only on its own vertex set, so the
    // recursion tree is independent of processing order; the cluster list
    // is sorted below.
    let mut pending = components(g, &(0..g.n()).collect::<Vec<_>>());
    while !pending.is_empty() {
        for piece in std::mem::take(&mut pending) {
            match process_piece(g, &piece, phi)? {
                PieceOutcome::Clusters(cs) => clusters.extend(cs),
                PieceOutcome::Split(pieces) => pending.extend(pieces),
            }
        }
    }
    clusters.sort_by(|a, b| a.vertices.cmp(&b.vertices));
    let n = g.n();
    let mut assignment = vec![usize::MAX; n];
    for (cid, cl) in clusters.iter().enumerate() {
        for &v in &cl.vertices {
            assignment[v] = cid;
        }
    }
    let mut crossing = Vec::new();
    for (id, e) in g.edges().iter().enumerate() {
        if assignment[e.u] != assignment[e.v] {
            crossing.push(id);
        }
    }
    Ok(ExpanderDecomposition {
        clusters,
        crossing_edges: crossing,
        phi,
    })
}

/// What became of one worklist piece.
enum PieceOutcome {
    /// Final clusters (≤ 2 vertices, edgeless singletons, or a certified
    /// expander).
    Clusters(Vec<Cluster>),
    /// The piece was cut (sweep cut or component split); recurse on these.
    Split(Vec<Vec<VertexId>>),
}

/// One step of the decomposition recursion, free of shared mutable state
/// so waves of pieces can run concurrently.
fn process_piece(g: &Graph, vertices: &[VertexId], phi: f64) -> Result<PieceOutcome, LinalgError> {
    if vertices.len() <= 2 {
        return Ok(PieceOutcome::Clusters(vec![finish_cluster(
            g,
            vertices.to_vec(),
        )]));
    }
    let (sub, map) = g.induced(vertices);
    if sub.m() == 0 {
        // Disconnected singletons (shouldn't happen after split) —
        // emit one cluster per vertex.
        return Ok(PieceOutcome::Clusters(
            vertices
                .iter()
                .map(|&v| finish_cluster(g, vec![v]))
                .collect(),
        ));
    }
    let nl = normalized_laplacian_dense(sub.n(), &sub.edge_triples());
    let reduction = symmetric_reduce(&nl)?;
    let spectrum = reduction.eigenvalues();
    let mu2 = spectrum[1];
    let mu_max = spectrum[spectrum.len() - 1];
    let certified = || {
        let mut cl = finish_cluster(g, vertices.to_vec());
        cl.mu2 = mu2;
        cl.mu_max = mu_max;
        PieceOutcome::Clusters(vec![cl])
    };
    if mu2 <= 1e-12 {
        // Disconnected: split by components and retry.
        return Ok(PieceOutcome::Split(components(&sub, &map)));
    }
    if cheeger_accepts(mu2, phi) {
        return Ok(certified());
    }
    // Sweep the exact Fiedler vector in the degree-weighted embedding.
    let fiedler = reduction.finish().eigenvector(1);
    Ok(match best_sweep_cut(&sub, &fiedler) {
        Some((cut_conductance, side)) if cut_conductance < phi => {
            let (mut left, mut right) = (Vec::new(), Vec::new());
            for (local, &global) in map.iter().enumerate() {
                if side[local] {
                    left.push(global);
                } else {
                    right.push(global);
                }
            }
            PieceOutcome::Split(vec![left, right])
        }
        // Certified expander: record exact spectral bounds.
        _ => certified(),
    })
}

/// Relative margin by which `µ₂` must clear `2φ` for [`cheeger_accepts`].
/// The computed `µ₂` is within a few `n·ε` of the exact one, and a sweep
/// quotient could only fall below `φ` from an exact value of at least
/// `µ₂/2 ≥ φ·(1 + 1e-6)` through a rounding error above `1e-6` relative,
/// so the rule accepts only pieces the floating-point sweep accepts too;
/// the guard test `cheeger_rule_accepts_what_the_sweep_accepts` checks
/// this piece by piece, with weights up to `2^40`.
const CHEEGER_MARGIN: f64 = 1e-6;

/// Whether a connected piece with second normalized eigenvalue `mu2` is
/// final without a sweep: by the easy direction of Cheeger's inequality
/// every cut has conductance at least `µ₂/2`, so at `µ₂ ≥ 2φ` none is
/// below `φ`.
fn cheeger_accepts(mu2: f64, phi: f64) -> bool {
    mu2 >= 2.0 * phi * (1.0 + CHEEGER_MARGIN)
}

/// Connected components of `sub`, as lists of the global ids `map` gives
/// its vertices.
fn components(sub: &Graph, map: &[VertexId]) -> Vec<Vec<VertexId>> {
    let comp = sub.components();
    let num = comp.iter().copied().max().map_or(0, |c| c + 1);
    let mut out = vec![Vec::new(); num];
    for (local, &c) in comp.iter().enumerate() {
        out[c].push(map[local]);
    }
    out
}

fn finish_cluster(g: &Graph, mut vertices: Vec<VertexId>) -> Cluster {
    vertices.sort_unstable();
    let inside: std::collections::BTreeSet<VertexId> = vertices.iter().copied().collect();
    let mut edges = Vec::new();
    // Scan incident lists and dedupe by edge id (multigraphs have no
    // usable endpoint-order convention).
    let mut seen = std::collections::BTreeSet::new();
    for &v in &vertices {
        for &(eid, u) in g.adj(v) {
            if inside.contains(&u) && seen.insert(eid) {
                edges.push(eid);
            }
        }
    }
    edges.sort_unstable();
    let (mu2, mu_max) = if edges.is_empty() {
        (0.0, 0.0)
    } else {
        // Exact spectrum for the small direct cases (≤ 2 vertices) or
        // clusters accepted without certification; callers overwrite when a
        // certificate exists. For a 2-vertex weighted cluster the
        // normalized Laplacian spectrum is {0, 2}.
        (2.0, 2.0)
    };
    Cluster {
        vertices,
        edges,
        mu2,
        mu_max,
    }
}

/// Best sweep cut of `vector` on `sub`: vertices sorted by
/// `x_v / √(weighted deg)`, all prefix cuts evaluated by weighted
/// conductance. Returns `(conductance, side)` of the best prefix, or `None`
/// if the graph has < 2 vertices.
fn best_sweep_cut(sub: &Graph, vector: &[f64]) -> Option<(f64, Vec<bool>)> {
    let n = sub.n();
    if n < 2 {
        return None;
    }
    let wdeg: Vec<f64> = (0..n).map(|v| sub.weighted_degree(v)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    let key: Vec<f64> = (0..n)
        .map(|v| {
            if wdeg[v] > 0.0 {
                vector[v] / wdeg[v].sqrt()
            } else {
                f64::INFINITY
            }
        })
        .collect();
    order.sort_by(|&a, &b| {
        key[a]
            .partial_cmp(&key[b])
            .expect("NaN sweep key")
            .then(a.cmp(&b))
    });
    let total_vol: f64 = wdeg.iter().sum();
    let mut in_prefix = vec![false; n];
    let mut vol_s = 0.0;
    let mut cut_w = 0.0;
    let mut best: Option<(f64, usize)> = None;
    for (k, &v) in order.iter().enumerate().take(n - 1) {
        in_prefix[v] = true;
        vol_s += wdeg[v];
        // Update crossing weight: edges from v to the other side gain, to
        // the prefix side lose.
        for &(eid, u) in sub.adj(v) {
            let w = sub.edge(eid).weight;
            if in_prefix[u] {
                cut_w -= w;
            } else {
                cut_w += w;
            }
        }
        let denom = vol_s.min(total_vol - vol_s);
        if denom <= 0.0 {
            continue;
        }
        let cond = cut_w / denom;
        if best.is_none_or(|(bc, _)| cond < bc) {
            best = Some((cond, k));
        }
    }
    let (cond, k) = best?;
    let mut side = vec![false; n];
    for &v in order.iter().take(k + 1) {
        side[v] = true;
    }
    Some((cond, side))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;
    use cc_linalg::symmetric_eigen;

    /// Runs the decomposition's worklist on `g` piece by piece and checks
    /// every outcome of [`process_piece`] against the full eigensolve and
    /// sweep. Counts the outcomes into `seen`: accepted by the Cheeger
    /// rule, accepted by the sweep, split by the sweep, split into
    /// components.
    fn check_pieces(g: &Graph, phi: f64, seen: &mut [usize; 4], id: &str) {
        let mut pending = components(g, &(0..g.n()).collect::<Vec<_>>());
        while let Some(piece) = pending.pop() {
            let outcome = process_piece(g, &piece, phi).unwrap();
            let (sub, _) = g.induced(&piece);
            if piece.len() <= 2 || sub.m() == 0 {
                assert!(matches!(outcome, PieceOutcome::Clusters(_)), "{id}");
                continue;
            }
            let nl = normalized_laplacian_dense(sub.n(), &sub.edge_triples());
            let eig = symmetric_eigen(&nl).unwrap();
            let mu2 = eig.eigenvalues()[1];
            let mu_max = *eig.eigenvalues().last().unwrap();
            let sweep = best_sweep_cut(&sub, &eig.eigenvector(1));
            match outcome {
                PieceOutcome::Split(parts) => {
                    if mu2 <= 1e-12 {
                        seen[3] += 1;
                    } else {
                        seen[2] += 1;
                        assert!(sweep.unwrap().0 < phi, "{id}: split without a cut below φ");
                    }
                    pending.extend(parts);
                }
                PieceOutcome::Clusters(cs) => {
                    let [cl] = cs.as_slice() else {
                        panic!("{id}: an accepted piece yields one cluster");
                    };
                    assert_eq!(cl.mu2.to_bits(), mu2.to_bits(), "{id}: µ2");
                    assert_eq!(cl.mu_max.to_bits(), mu_max.to_bits(), "{id}: µmax");
                    let (cond, _) = sweep.unwrap();
                    assert!(
                        cond >= phi,
                        "{id}: accepted a piece with a sweep cut {cond} < φ {phi}"
                    );
                    if cheeger_accepts(mu2, phi) {
                        seen[0] += 1;
                        if sub.n() <= 14 {
                            assert!(sub.conductance_exact() >= phi, "{id}: a cut below φ");
                        }
                    } else {
                        seen[1] += 1;
                    }
                }
            }
        }
    }

    /// Two `K_k` hanging by unit edges off vertex 0, which heads a path of
    /// `len` edges of weight `w`. The cliques get near-equal Fiedler
    /// values, so the best sweep cut can take both without the hub: a
    /// disconnected side, which the next wave splits into components.
    fn broom(k: usize, len: usize, w: f64) -> Graph {
        let mut g = Graph::new(1 + len + 2 * k);
        for i in 0..len {
            g.add_edge(i, i + 1, w);
        }
        for base in [1 + len, 1 + len + k] {
            for a in 0..k {
                for b in (a + 1)..k {
                    g.add_edge(base + a, base + b, 1.0);
                }
            }
            g.add_edge(0, base, 1.0);
        }
        g
    }

    #[test]
    fn cheeger_rule_accepts_what_the_sweep_accepts() {
        let mut graphs: Vec<(String, Graph)> = cc_conform::corpus::undirected_corpus(0)
            .into_iter()
            .chain(cc_conform::corpus::eulerian_corpus(0))
            .map(|c| (c.id, c.graph))
            .collect();
        graphs.extend([
            ("path/12".into(), generators::path(12)),
            ("cycle/14".into(), generators::cycle(14)),
            ("complete/10".into(), generators::complete(10)),
            ("star/9".into(), generators::star(9)),
            ("expander/32".into(), generators::expander(32)),
            ("barbell/6".into(), generators::barbell(6)),
            ("grid/6x6".into(), generators::grid(6, 6)),
            ("broom/5-6-10".into(), broom(5, 6, 10.0)),
            ("broom/5-8-3".into(), broom(5, 8, 3.0)),
        ]);
        for max_weight in [1u64, 1 << 16, 1 << 40] {
            for seed in 0..4 {
                let g = generators::random_connected(30, 45, max_weight, seed);
                graphs.push((format!("random/30-45-{max_weight}-s{seed}"), g));
            }
        }
        let mut seen = [0usize; 4];
        for (id, g) in &graphs {
            for phi in [default_phi(g), 0.05, 0.2, 0.45] {
                check_pieces(g, phi, &mut seen, &format!("{id} at φ = {phi}"));
            }
        }
        assert!(
            seen.iter().all(|&k| k > 0),
            "an outcome was never reached: {seen:?}"
        );
    }

    #[test]
    fn barbell_splits_into_two_cliques() {
        let g = generators::barbell(6);
        let dec = expander_decompose(&g, 0.2).unwrap();
        assert_eq!(dec.clusters.len(), 2);
        assert_eq!(dec.crossing_edges.len(), 1);
        let mut sizes: Vec<usize> = dec.clusters.iter().map(|c| c.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![6, 6]);
        for cl in &dec.clusters {
            assert!(
                cl.mu2 > 0.2 * 0.2 / 2.0,
                "certificate µ2={} too small",
                cl.mu2
            );
        }
    }

    #[test]
    fn expander_stays_whole() {
        let g = generators::expander(32);
        let phi = default_phi(&g);
        let dec = expander_decompose(&g, phi).unwrap();
        assert_eq!(dec.clusters.len(), 1);
        assert!(dec.crossing_edges.is_empty());
        assert!(dec.clusters[0].mu2 > 0.0);
        assert!(dec.clusters[0].mu_max <= 2.0 + 1e-9);
    }

    #[test]
    fn disconnected_graph_splits_by_component() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(3, 4, 1.0);
        let dec = expander_decompose(&g, 0.1).unwrap();
        // {0,1,2}, {3,4}, {5}
        assert_eq!(dec.clusters.len(), 3);
        assert!(dec.crossing_edges.is_empty());
        let assignment = dec.assignment(6);
        assert_eq!(assignment[0], assignment[1]);
        assert_ne!(assignment[0], assignment[3]);
    }

    #[test]
    fn every_vertex_in_exactly_one_cluster() {
        let g = generators::random_connected(40, 60, 4, 3);
        let dec = expander_decompose(&g, default_phi(&g)).unwrap();
        let mut count = vec![0usize; 40];
        for cl in &dec.clusters {
            for &v in &cl.vertices {
                count[v] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 1));
    }

    #[test]
    fn crossing_edges_cross_and_cluster_edges_do_not() {
        let g = generators::random_connected(30, 80, 2, 9);
        let dec = expander_decompose(&g, 0.3).unwrap();
        let assignment = dec.assignment(30);
        for &e in &dec.crossing_edges {
            let edge = g.edge(e);
            assert_ne!(assignment[edge.u], assignment[edge.v]);
        }
        for cl in &dec.clusters {
            for &e in &cl.edges {
                let edge = g.edge(e);
                assert_eq!(assignment[edge.u], assignment[edge.v]);
            }
        }
        // Edge partition: crossing + intra == m.
        let intra: usize = dec.clusters.iter().map(|c| c.edges.len()).sum();
        assert_eq!(intra + dec.crossing_edges.len(), g.m());
    }

    #[test]
    fn certificates_match_exhaustive_conductance_cheeger() {
        // On a small graph, certified µ2 must satisfy µ2 ≤ 2·Φ(G)
        // (Cheeger upper) for single-cluster outcomes.
        let g = generators::cycle(10);
        let dec = expander_decompose(&g, 0.01).unwrap();
        if dec.clusters.len() == 1 {
            let phi_exact = g.conductance_exact();
            assert!(dec.clusters[0].mu2 <= 2.0 * phi_exact + 1e-9);
        }
    }

    #[test]
    fn grid_decomposition_with_large_phi_cuts_something() {
        let g = generators::grid(6, 6);
        let dec = expander_decompose(&g, 0.45).unwrap();
        assert!(dec.clusters.len() > 1, "grid should not be a 0.45-expander");
    }

    #[test]
    #[should_panic(expected = "phi must be in")]
    fn rejects_bad_phi() {
        let g = generators::cycle(4);
        let _ = expander_decompose(&g, 1.5);
    }
}
