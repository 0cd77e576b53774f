//! Sparsifier templates: reuse the expander decomposition across weight
//! changes.
//!
//! The interior point methods solve hundreds of Laplacian systems whose
//! graphs share one edge support and differ only in weights (resistances
//! change every step). The decomposition's *cluster structure* depends on
//! weights, but any fixed partition stays **correct** for new weights —
//! only the certified per-cluster `α` moves. A [`SparsifierTemplate`]
//! freezes the cluster structure of one construction and
//! [`SparsifierTemplate::instantiate`]s it for new weights by recomputing
//! the per-cluster spectral certificates exactly (dense eigensolve, free
//! local computation), skipping the recursive re-decomposition entirely.
//!
//! This is an *extension* beyond the paper (which rebuilds per solve,
//! within its `n^{o(1)}` budget): correctness is unchanged — the
//! instantiated sparsifier carries a freshly certified `α`, it may just be
//! larger than a from-scratch rebuild's when the weights drift far from
//! the template's.

use cc_graph::{EdgeId, Graph, VertexId};
use cc_linalg::{normalized_laplacian_dense_into, symmetric_eigenvalues, DenseMatrix};
use cc_model::Communicator;

use crate::decomposition::Cluster;
use crate::error::SparsifyError;
use crate::gadget::ClusterGadget;
use crate::sparsifier::{build_levels, SparsifyParams, SpectralSparsifier};

/// One frozen cluster: its vertices and its intra-cluster edges.
#[derive(Debug, Clone)]
struct ClusterTemplate {
    vertices: Vec<VertexId>,
    /// Original edge id and local endpoint indices (into `vertices`).
    edges: Vec<(EdgeId, usize, usize)>,
}

/// One frozen decomposition level.
#[derive(Debug, Clone)]
pub(crate) struct LevelTemplate {
    /// Clusters realized as star gadgets.
    gadget_clusters: Vec<ClusterTemplate>,
    /// Edges kept verbatim at this level (small clusters / backstop):
    /// original edge id and endpoints.
    direct_edges: Vec<(EdgeId, VertexId, VertexId)>,
}

impl LevelTemplate {
    /// Records one decomposition level of `level_graph`, whose edge `e`
    /// is original edge `id_map[e]`, with the gadget/direct split of
    /// [`crate::build_sparsifier`].
    pub(crate) fn capture(
        level_graph: &Graph,
        clusters: &[Cluster],
        id_map: &[EdgeId],
        direct_edge_slack: usize,
    ) -> Self {
        let mut level = LevelTemplate {
            gadget_clusters: Vec::new(),
            direct_edges: Vec::new(),
        };
        for cluster in clusters {
            if cluster.edges.is_empty() {
                continue;
            }
            if cluster.edges.len() <= cluster.len() + direct_edge_slack {
                level.direct_edges.extend(cluster.edges.iter().map(|&e| {
                    let edge = level_graph.edge(e);
                    (id_map[e], edge.u, edge.v)
                }));
            } else {
                let local: std::collections::BTreeMap<VertexId, usize> = cluster
                    .vertices
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, i))
                    .collect();
                level.gadget_clusters.push(ClusterTemplate {
                    vertices: cluster.vertices.clone(),
                    edges: cluster
                        .edges
                        .iter()
                        .map(|&e| {
                            let edge = level_graph.edge(e);
                            (id_map[e], local[&edge.u], local[&edge.v])
                        })
                        .collect(),
                });
            }
        }
        level
    }

    /// The level-cap backstop: every remaining edge kept verbatim.
    pub(crate) fn backstop(level_graph: &Graph, id_map: &[EdgeId]) -> Self {
        LevelTemplate {
            gadget_clusters: Vec::new(),
            direct_edges: level_graph
                .edges()
                .iter()
                .zip(id_map)
                .map(|(edge, &id)| (id, edge.u, edge.v))
                .collect(),
        }
    }
}

/// A frozen multi-level cluster structure, instantiable for any weight
/// assignment on the same edge support.
#[derive(Debug, Clone)]
pub struct SparsifierTemplate {
    n: usize,
    m: usize,
    levels: Vec<LevelTemplate>,
}

/// Reusable buffers of [`SparsifierTemplate::instantiate_into`]: the
/// per-cluster edge list, degrees, normalized Laplacian and spectrum,
/// and the broadcast staging rows.
#[derive(Debug, Clone)]
pub struct InstantiateScratch {
    triples: Vec<(usize, usize, f64)>,
    degrees: Vec<f64>,
    normalized: DenseMatrix,
    eigenvalues: Vec<f64>,
    zeros: Vec<u64>,
    echo: Vec<u64>,
}

impl Default for InstantiateScratch {
    fn default() -> Self {
        Self {
            triples: Vec::new(),
            degrees: Vec::new(),
            normalized: DenseMatrix::zeros(0, 0),
            eigenvalues: Vec::new(),
            zeros: Vec::new(),
            echo: Vec::new(),
        }
    }
}

impl SparsifierTemplate {
    /// Number of original vertices the template was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges of the supporting graph.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of frozen levels.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Instantiates the template for `g` (same vertex count and edge list
    /// order as the template's source graph; weights may differ) — a
    /// one-shot [`SparsifierTemplate::instantiate_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SparsifierTemplate::instantiate_into`].
    ///
    /// # Panics
    ///
    /// Panics if `g`'s vertex or edge count differs from the template's,
    /// or `clique.n() < g.n()`.
    pub fn instantiate<C: Communicator>(
        &self,
        clique: &mut C,
        g: &Graph,
    ) -> Result<SpectralSparsifier, SparsifyError> {
        assert_eq!(g.n(), self.n, "template built for a different vertex count");
        let weights: Vec<f64> = g.edges().iter().map(|e| e.weight).collect();
        let mut out = SpectralSparsifier::from_parts(self.n, 0, Vec::new(), 1.0, 0);
        self.instantiate_into(
            clique,
            &weights,
            &mut out,
            &mut InstantiateScratch::default(),
        )?;
        Ok(out)
    }

    /// Instantiates the template into `out` for the edge weights
    /// `weights` (indexed like the template's source graph's edges):
    /// every level's verbatim edges take their new weight, and every
    /// gadget cluster is recertified exactly — its normalized Laplacian's
    /// extreme eigenvalues µ₂ and µ_max, from
    /// [`cc_linalg::symmetric_eigenvalues`] — and re-emitted as a star.
    ///
    /// The template fixes the edge count and order, so `out`'s edge list
    /// is rewritten in place: once `out` and `scratch` have held one
    /// instantiation of this template, a call allocates nothing.
    ///
    /// Rounds charged: 2 broadcast rounds per level (cluster ids +
    /// weighted degrees) — the decomposition itself is reused, so no
    /// \[CS20\] oracle charge recurs.
    ///
    /// # Errors
    ///
    /// [`SparsifyError::Comm`] on substrate failure;
    /// [`SparsifyError::Factorization`] if a cluster recertification
    /// eigensolve fails. `out` is then partly rewritten.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the template's edge count,
    /// `clique.n()` is below the template's vertex count, or a gadget
    /// vertex has no positive intra-cluster weight.
    pub fn instantiate_into<C: Communicator>(
        &self,
        clique: &mut C,
        weights: &[f64],
        out: &mut SpectralSparsifier,
        scratch: &mut InstantiateScratch,
    ) -> Result<(), SparsifyError> {
        assert_eq!(
            weights.len(),
            self.m,
            "template built for a different edge support"
        );
        assert!(clique.n() >= self.n, "clique too small");
        clique.phase("sparsify_from_template", |clique| {
            out.edges.clear();
            let mut aux_count = 0usize;
            let mut alpha: f64 = 1.0;
            for level in &self.levels {
                scratch.zeros.clear();
                scratch.zeros.resize(clique.n(), 0);
                clique.broadcast_all_into(&scratch.zeros, &mut scratch.echo)?;
                clique.broadcast_all_into(&scratch.zeros, &mut scratch.echo)?;
                for &(e, u, v) in &level.direct_edges {
                    out.edges.push((u, v, weights[e]));
                }
                for cluster in &level.gadget_clusters {
                    let k = cluster.vertices.len();
                    scratch.triples.clear();
                    scratch.triples.extend(
                        cluster
                            .edges
                            .iter()
                            .map(|&(e, lu, lv)| (lu, lv, weights[e])),
                    );
                    // Exact spectral recertification for the new weights;
                    // `degrees[..k]` are the weighted intra-cluster degrees.
                    normalized_laplacian_dense_into(
                        k,
                        &scratch.triples,
                        &mut scratch.normalized,
                        &mut scratch.degrees,
                    );
                    symmetric_eigenvalues(&mut scratch.normalized, &mut scratch.eigenvalues)?;
                    let mu2 = scratch.eigenvalues[1].max(1e-12);
                    let mu_max = scratch.eigenvalues.last().copied().unwrap_or(mu2).max(mu2);
                    let degrees = &scratch.degrees[..k];
                    assert!(
                        degrees.iter().all(|&d| d > 0.0),
                        "gadget requires positive degrees"
                    );
                    let (scale, gadget_alpha) = ClusterGadget::certificate(mu2, mu_max);
                    let center = self.n + aux_count;
                    aux_count += 1;
                    alpha = alpha.max(gadget_alpha);
                    for (&v, &d) in cluster.vertices.iter().zip(degrees) {
                        out.edges.push((v, center, scale * d));
                    }
                }
            }
            out.n = self.n;
            out.aux_count = aux_count;
            out.alpha = alpha;
            out.levels = self.levels.len();
            Ok(())
        })
    }
}

/// Builds the deterministic sparsifier of Theorem 3.3 **and** the frozen
/// template of its cluster structure, for later
/// [`SparsifierTemplate::instantiate`] calls on reweighted graphs.
///
/// The sparsifier equals `build_sparsifier`'s (same construction, same
/// rounds charged): the level loop records each level's clusters as it
/// builds them, so the template adds no communication and no second
/// decomposition.
///
/// # Errors
///
/// Same conditions as [`crate::build_sparsifier`].
///
/// # Panics
///
/// Same conditions as [`crate::build_sparsifier`].
pub fn build_sparsifier_with_template<C: Communicator>(
    clique: &mut C,
    g: &Graph,
    params: &SparsifyParams,
) -> Result<(SpectralSparsifier, SparsifierTemplate), SparsifyError> {
    let mut levels = Vec::new();
    let sparsifier = build_levels(clique, g, params, Some(&mut levels))?;
    let template = SparsifierTemplate {
        n: g.n(),
        m: g.m(),
        levels,
    };
    Ok((sparsifier, template))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_sparsifier;
    use cc_graph::generators;
    use cc_model::Clique;

    fn reweight(g: &Graph, factor: impl Fn(usize) -> f64) -> Graph {
        let mut out = Graph::new(g.n());
        for (i, e) in g.edges().iter().enumerate() {
            out.add_edge(e.u, e.v, e.weight * factor(i));
        }
        out
    }

    #[test]
    fn instantiating_with_identical_weights_matches_certification() {
        let g = generators::random_connected(32, 120, 4, 5);
        let mut clique = Clique::new(32);
        let (h, template) =
            build_sparsifier_with_template(&mut clique, &g, &SparsifyParams::default()).unwrap();
        let h2 = template.instantiate(&mut clique, &g).unwrap();
        assert_eq!(h.edge_count(), h2.edge_count());
        assert!((h.alpha() - h2.alpha()).abs() < 1e-9);
        let bounds = verify_sparsifier(&g, &h2).unwrap();
        assert!(bounds.alpha() <= h2.alpha() * (1.0 + 1e-6));
    }

    #[test]
    fn reweighted_instances_stay_honestly_certified() {
        let g = generators::random_connected(28, 100, 2, 7);
        let mut clique = Clique::new(28);
        let (_, template) =
            build_sparsifier_with_template(&mut clique, &g, &SparsifyParams::default()).unwrap();
        // Weights drifting by up to 16x, as IPM resistances do.
        for seed in 1..4u64 {
            let g2 = reweight(&g, |i| 1.0 + ((i as u64 * seed) % 16) as f64);
            let h = template.instantiate(&mut clique, &g2).unwrap();
            let bounds = verify_sparsifier(&g2, &h).unwrap();
            assert!(
                bounds.alpha() <= h.alpha() * (1.0 + 1e-6),
                "claimed {} exact {}",
                h.alpha(),
                bounds.alpha()
            );
            // The preconditioner remains usable.
            assert!(h.solver().is_ok());
        }
    }

    #[test]
    fn template_instantiation_charges_fewer_rounds_than_rebuild() {
        let g = generators::random_connected(32, 150, 4, 9);
        let mut c1 = Clique::new(32);
        let (_, template) =
            build_sparsifier_with_template(&mut c1, &g, &SparsifyParams::default()).unwrap();
        let build_rounds = c1.ledger().total_rounds();
        let before = c1.ledger().total_rounds();
        let _ = template.instantiate(&mut c1, &g).unwrap();
        let inst_rounds = c1.ledger().total_rounds() - before;
        assert!(
            inst_rounds < build_rounds,
            "instantiate {inst_rounds} vs build {build_rounds}"
        );
        // No oracle charge on instantiation.
        assert_eq!(
            c1.ledger().phase_prefix_total("sparsify_from_template"),
            inst_rounds
        );
    }

    #[test]
    fn level_cap_backstop_is_captured_verbatim() {
        let g = generators::random_connected(16, 40, 2, 3);
        let mut clique = Clique::new(16);
        let params = SparsifyParams {
            max_levels: Some(0),
            ..Default::default()
        };
        let (h, template) = build_sparsifier_with_template(&mut clique, &g, &params).unwrap();
        let g2 = reweight(&g, |i| 1.0 + (i % 3) as f64);
        let h2 = template.instantiate(&mut clique, &g2).unwrap();
        // Every edge kept verbatim, with its new weight, in edge order.
        assert_eq!(h.edges(), g.edge_triples().as_slice());
        assert_eq!(h2.edges(), g2.edge_triples().as_slice());
        assert_eq!((h2.aux_count(), h2.alpha()), (0, 1.0));
    }

    #[test]
    #[should_panic(expected = "different edge support")]
    fn rejects_mismatched_support() {
        let g = generators::cycle(8);
        let mut clique = Clique::new(8);
        let (_, template) =
            build_sparsifier_with_template(&mut clique, &g, &SparsifyParams::default()).unwrap();
        let g2 = generators::path(8);
        let _ = template.instantiate(&mut clique, &g2);
    }
}
