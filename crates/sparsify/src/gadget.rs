//! Product-demand-graph proxies realized as exact star gadgets.
//!
//! For a cluster `G'` with weighted degrees `d` and `S = Σd`, \[CGLN+20\]
//! approximate `G'` by the product demand graph `H(d)` (complete graph,
//! `w(u,v) = d_u d_v`), then sparsify `H(d)` internally. This crate skips
//! the internal sparsification entirely by using the identity
//!
//! ```text
//! L_{H(d)} = S·diag(d) − d dᵀ = S · Schur( star with center weights d ),
//! ```
//!
//! i.e. the Schur complement of a weighted star onto its leaves *is* the
//! (scaled) product demand graph. A cluster proxy is therefore one
//! auxiliary vertex plus `|V'|` star edges with weights `c·d_v`, where `c`
//! is chosen so the certified sandwich
//! `(1/α)·Schur ⪯ L_{G'} ⪯ α·Schur` is balanced: with exact normalized
//! Laplacian spectrum `µ₂, µ_max` of the cluster, `c = √(µ₂·µ_max)` and
//! `α = √(µ_max/µ₂)`.

use cc_graph::{Graph, VertexId};
#[cfg(test)]
use cc_linalg::DenseMatrix;

/// A star gadget standing in for one expander cluster.
#[derive(Debug, Clone)]
pub struct ClusterGadget {
    /// Cluster vertices (global ids), ascending.
    pub vertices: Vec<VertexId>,
    /// Star edge weight `c·d_v` per vertex, aligned with `vertices`.
    pub star_weights: Vec<f64>,
    /// Certified per-cluster approximation factor `α = √(µ_max/µ₂)`.
    pub alpha: f64,
}

impl ClusterGadget {
    /// Builds the gadget for a cluster with intra-cluster weighted degrees
    /// `weighted_degrees` and exact normalized-Laplacian spectral bounds
    /// `mu2`, `mu_max` (from the decomposition certificate).
    ///
    /// # Panics
    ///
    /// Panics if inputs are inconsistent (`mu2 ≤ 0`, `mu_max < mu2`,
    /// length mismatch) or any degree is non-positive — such clusters must
    /// be handled by the direct-edges path instead.
    pub fn new(vertices: Vec<VertexId>, weighted_degrees: &[f64], mu2: f64, mu_max: f64) -> Self {
        assert_eq!(vertices.len(), weighted_degrees.len(), "length mismatch");
        assert!(mu2 > 0.0, "cluster gap must be positive, got {mu2}");
        assert!(mu_max >= mu2, "mu_max {mu_max} below mu2 {mu2}");
        assert!(
            weighted_degrees.iter().all(|&d| d > 0.0),
            "gadget requires positive degrees"
        );
        let (c, alpha) = Self::certificate(mu2, mu_max);
        let star_weights = weighted_degrees.iter().map(|&d| c * d).collect();
        Self {
            vertices,
            alpha,
            star_weights,
        }
    }

    /// The balanced star scale `c = √(µ₂·µ_max)` (star edge weights are
    /// `c·d_v`) and the certified factor `α = √(µ_max/µ₂)` for a cluster
    /// with normalized-Laplacian spectral bounds `mu2`, `mu_max`.
    pub(crate) fn certificate(mu2: f64, mu_max: f64) -> (f64, f64) {
        ((mu2 * mu_max).sqrt(), (mu_max / mu2).sqrt())
    }

    /// Number of star edges the gadget contributes.
    pub fn edge_count(&self) -> usize {
        self.vertices.len()
    }

    /// Appends the gadget's edges to `edges`, using `center` as the global
    /// id of the auxiliary star center.
    pub fn emit_edges(&self, center: usize, edges: &mut Vec<(usize, usize, f64)>) {
        for (&v, &w) in self.vertices.iter().zip(&self.star_weights) {
            edges.push((v, center, w));
        }
    }

    /// Dense Schur complement of the gadget onto the cluster vertices
    /// (local indexing aligned with `vertices`):
    /// `c·(diag(d) − d dᵀ/S)`.
    #[cfg(test)]
    fn schur_complement_dense(&self) -> DenseMatrix {
        let k = self.vertices.len();
        let s: f64 = self.star_weights.iter().sum();
        let mut m = DenseMatrix::zeros(k, k);
        for i in 0..k {
            for j in 0..k {
                let mut v = -self.star_weights[i] * self.star_weights[j] / s;
                if i == j {
                    v += self.star_weights[i];
                }
                m.set(i, j, v);
            }
        }
        m
    }
}

/// Intra-cluster weighted degrees for a vertex list (global ids) in `g`,
/// counting only edges with both endpoints inside the cluster.
pub(crate) fn intra_cluster_degrees(g: &Graph, vertices: &[VertexId]) -> Vec<f64> {
    let inside: std::collections::BTreeSet<VertexId> = vertices.iter().copied().collect();
    vertices
        .iter()
        .map(|&v| {
            g.adj(v)
                .iter()
                .filter(|&&(_, u)| inside.contains(&u))
                .map(|&(e, _)| g.edge(e).weight)
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;
    use cc_linalg::{laplacian_from_edges, normalized_laplacian_dense, symmetric_eigen};

    /// The exact-identity check: Schur(star with weights c·d) equals
    /// c·(S diag(d) − d dᵀ)/S, and for c = 1, S = Σd this is the scaled
    /// product demand Laplacian L_{H(d)}/S.
    #[test]
    fn schur_complement_is_scaled_product_demand_laplacian() {
        let d = vec![2.0, 1.0, 3.0];
        let gadget = ClusterGadget::new(vec![0, 1, 2], &d, 1.0, 1.0); // c = 1
        let schur = gadget.schur_complement_dense();
        let s: f64 = d.iter().sum();
        // L_{H(d)} = S diag(d) − d dᵀ; expect schur == L_{H(d)}/S.
        for i in 0..3 {
            for j in 0..3 {
                let lh = if i == j {
                    s * d[i] - d[i] * d[i]
                } else {
                    -d[i] * d[j]
                };
                assert!(
                    (schur.get(i, j) - lh / s).abs() < 1e-12,
                    "({i},{j}): {} vs {}",
                    schur.get(i, j),
                    lh / s
                );
            }
        }
    }

    /// Eliminating the star center from the explicit star Laplacian must
    /// reproduce `schur_complement_dense`.
    #[test]
    fn explicit_star_elimination_matches() {
        let d = vec![1.0, 2.0, 4.0, 0.5];
        let gadget = ClusterGadget::new(vec![0, 1, 2, 3], &d, 0.5, 1.5);
        let mut edges = Vec::new();
        gadget.emit_edges(4, &mut edges);
        let triples: Vec<(usize, usize, f64)> = edges.iter().map(|&(u, v, w)| (u, v, w)).collect();
        let full = laplacian_from_edges(5, &triples).to_dense();
        // Schur: A_oo − a a^T / s where a = column of center.
        let s = full.get(4, 4);
        let mut schur = DenseMatrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                schur.set(i, j, full.get(i, j) - full.get(i, 4) * full.get(j, 4) / s);
            }
        }
        let direct = gadget.schur_complement_dense();
        for i in 0..4 {
            for j in 0..4 {
                assert!((schur.get(i, j) - direct.get(i, j)).abs() < 1e-12);
            }
        }
    }

    /// The certified sandwich: for an expander cluster, with exact µ₂ and
    /// µ_max, all generalized eigenvalues of (L_G', Schur) lie in [1/α, α].
    #[test]
    fn certified_sandwich_holds_on_expander() {
        let g = generators::expander(16);
        let nl = normalized_laplacian_dense(16, &g.edge_triples());
        let eig = symmetric_eigen(&nl).unwrap();
        let mu2 = eig.eigenvalues()[1];
        let mu_max = *eig.eigenvalues().last().unwrap();
        let d = intra_cluster_degrees(&g, &(0..16).collect::<Vec<_>>());
        let gadget = ClusterGadget::new((0..16).collect(), &d, mu2, mu_max);
        let schur = gadget.schur_complement_dense();
        let lap = laplacian_from_edges(16, &g.edge_triples()).to_dense();
        // Check xᵀLx / xᵀSx ∈ [1/α, α] on a basis of range vectors.
        for probe in 0..16 {
            let mut x = vec![0.0; 16];
            x[probe] = 1.0;
            x[(probe + 7) % 16] = -1.0; // mean-zero probe
            let num = lap.quadratic_form(&x);
            let den = schur.quadratic_form(&x);
            let ratio = num / den;
            assert!(
                ratio >= 1.0 / gadget.alpha - 1e-9 && ratio <= gadget.alpha + 1e-9,
                "ratio {ratio} outside [{}, {}]",
                1.0 / gadget.alpha,
                gadget.alpha
            );
        }
    }

    #[test]
    fn intra_degrees_ignore_outside_edges() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 2, 5.0);
        g.add_edge(2, 3, 7.0);
        let d = intra_cluster_degrees(&g, &[0, 1, 2]);
        assert_eq!(d, vec![2.0, 7.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "positive degrees")]
    fn rejects_zero_degree() {
        let _ = ClusterGadget::new(vec![0, 1], &[1.0, 0.0], 1.0, 1.0);
    }
}
