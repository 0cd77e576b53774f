//! The level-by-level deterministic spectral sparsifier of Theorem 3.3.

use cc_graph::{EdgeId, Graph};
use cc_linalg::{
    laplacian_from_edges, CsrMatrix, GroundedCholesky, LaplacianPattern, LinalgError, SolveScratch,
};
use cc_model::Communicator;

use crate::decomposition::{default_phi, expander_decompose};
use crate::error::SparsifyError;
use crate::gadget::{intra_cluster_degrees, ClusterGadget};
use crate::template::LevelTemplate;

/// Tuning knobs of [`build_sparsifier`].
#[derive(Debug, Clone, Copy)]
pub struct SparsifyParams {
    /// Conductance threshold of the expander decomposition; `None` selects
    /// the default `1/(8·ln(2+vol))` (`default_phi`).
    pub phi: Option<f64>,
    /// The paper's trade-off parameter `r` (Theorem 3.3): the oracle round
    /// charge per decomposition level is `⌈2·n^{1/r²}⌉`. Default `2.0`.
    pub r: f64,
    /// Clusters whose intra-edge count is at most
    /// `direct_edge_slack + |cluster|` keep their edges verbatim (exact,
    /// `α = 1`) instead of a star gadget. Default `1`.
    pub direct_edge_slack: usize,
    /// Hard cap on decomposition levels; remaining edges are copied into
    /// the sparsifier verbatim once reached (unconditional correctness
    /// backstop). `None` selects `2·log₂(2+total weight) + 8`.
    pub max_levels: Option<usize>,
}

impl Default for SparsifyParams {
    fn default() -> Self {
        Self {
            phi: None,
            r: 2.0,
            direct_edge_slack: 1,
            max_levels: None,
        }
    }
}

/// A globally known spectral sparsifier over the original vertices plus
/// auxiliary star centers.
///
/// Let `M` be the Laplacian of [`SpectralSparsifier::edges`] on
/// `n + aux_count` vertices and `S_H` its Schur complement onto `0..n`.
/// The construction certifies `(1/α)·S_H ⪯ L_G ⪯ α·S_H` with
/// `α =` [`SpectralSparsifier::alpha`]. "A solve involving `L_H`"
/// (Corollary 2.3) is a solve with `M` at zero demand on the auxiliary
/// vertices — see [`SparsifierSolver`].
#[derive(Debug, Clone)]
pub struct SpectralSparsifier {
    pub(crate) n: usize,
    pub(crate) aux_count: usize,
    pub(crate) edges: Vec<(usize, usize, f64)>,
    pub(crate) alpha: f64,
    pub(crate) levels: usize,
}

impl SpectralSparsifier {
    /// Crate-internal constructor used by the alternative builders
    /// (randomized ablation).
    pub(crate) fn from_parts(
        n: usize,
        aux_count: usize,
        edges: Vec<(usize, usize, f64)>,
        alpha: f64,
        levels: usize,
    ) -> Self {
        assert!(alpha >= 1.0, "approximation factor must be >= 1");
        Self {
            n,
            aux_count,
            edges,
            alpha,
            levels,
        }
    }

    /// Number of original vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of auxiliary star-center vertices.
    pub fn aux_count(&self) -> usize {
        self.aux_count
    }

    /// Total vertices of the gadget graph (`n + aux_count`).
    pub fn total_vertices(&self) -> usize {
        self.n + self.aux_count
    }

    /// The gadget edges `(u, v, w)` over `0..total_vertices()`.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Number of gadget edges — the size bound of Theorem 3.3.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Certified approximation factor `α ≥ 1`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Decomposition levels the construction used.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Chebyshev condition bound for preconditioning `L_G` by `α·S_H`:
    /// `L_G ⪯ α·S_H ⪯ α²·L_G`, i.e. `κ = α²` (proof of Corollary 2.3).
    pub fn kappa(&self) -> f64 {
        self.alpha * self.alpha
    }

    /// Builds the internal solver (factors the gadget Laplacian once).
    ///
    /// # Errors
    ///
    /// Propagates factorization failures (cannot happen for gadgets built
    /// by [`build_sparsifier`] unless weights over/underflowed).
    pub fn solver(&self) -> Result<SparsifierSolver, LinalgError> {
        let lap = laplacian_from_edges(self.total_vertices(), &self.edges);
        let chol = GroundedCholesky::new(&lap)?;
        Ok(SparsifierSolver {
            n: self.n,
            chol,
            lap,
            pattern: None,
        })
    }
}

/// Internal preconditioner solves with the sparsifier (free of rounds: the
/// sparsifier is known to every node).
///
/// [`SparsifierSolver::solve`] implements `b ↦ S_H† b` up to per-component
/// constant shifts (invisible in the `‖·‖_{L_G}` seminorm): it pads `b`
/// with zero demand at the auxiliary star centers, solves the gadget
/// Laplacian, and restricts to the original vertices.
#[derive(Debug, Clone)]
pub struct SparsifierSolver {
    n: usize,
    chol: GroundedCholesky,
    /// The factored gadget Laplacian, kept so a refactor rewrites only
    /// its values.
    lap: CsrMatrix,
    /// Its assembly layout, recorded on the first refactor.
    pattern: Option<LaplacianPattern>,
}

impl SparsifierSolver {
    /// Refactors the preconditioner for `h`, a sparsifier with the same
    /// gadget edges (endpoints and order) as the one this solver was built
    /// from and new weights — what [`crate::SparsifierTemplate`]
    /// instantiation produces for a reweighted support. The gadget
    /// Laplacian's values are refilled and the factor is refactored
    /// numerically over its stored pattern; the result is bitwise equal
    /// to [`SpectralSparsifier::solver`] on `h`. After the first call
    /// (which records the assembly layout), the call allocates nothing.
    /// A zero edge weight changes the assembled pattern; the solver is
    /// then rebuilt from scratch.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] as for
    /// [`SpectralSparsifier::solver`]; the solver is then unusable until
    /// a later refactor succeeds.
    ///
    /// # Panics
    ///
    /// Panics if `h` has a different gadget support.
    pub fn refactor(&mut self, h: &SpectralSparsifier) -> Result<(), LinalgError> {
        assert_eq!(
            h.total_vertices(),
            self.chol.n(),
            "different gadget support"
        );
        let pattern = self
            .pattern
            .get_or_insert_with(|| LaplacianPattern::new(h.total_vertices(), &h.edges));
        if pattern.refill(|e| h.edges[e].2, &mut self.lap) {
            self.chol.refactor(&self.lap)
        } else {
            *self = h.solver()?;
            Ok(())
        }
    }

    /// Applies the (pseudo-)inverse of the Schur complement `S_H` to `b`.
    ///
    /// Allocates per call; the per-iteration preconditioner path inside
    /// the Laplacian solver uses [`SparsifierSolver::solve_into`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the number of original vertices.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        let mut scratch = SparsifierSolveScratch::default();
        self.solve_into(b, &mut out, &mut scratch);
        out
    }

    /// Allocation-free variant of [`SparsifierSolver::solve`]: the
    /// width-1 [`SparsifierSolver::solve_multi_into`]. The factor scratch
    /// lives in `scratch` (sized on first use). Bitwise identical to
    /// `solve`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `out.len()` differ from the number of
    /// original vertices.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64], scratch: &mut SparsifierSolveScratch) {
        self.solve_multi_into(b, 1, out, scratch);
    }

    /// Batched preconditioner solve over `k` interleaved right-hand
    /// sides (`bs[v*k + j]` is entry `v` of vector `j`): the batched
    /// gadget solve with zero demand at the auxiliary star centers,
    /// restricted to the original vertices
    /// ([`cc_linalg::GroundedCholesky::solve_prefix_multi_into`]: the
    /// centers are the suffix of the gadget's vertex range, so no padded
    /// copy is made, and each row of the sparse factor is read once per
    /// sweep for a whole tile of lanes). This is the amortization of one
    /// sparsifier build across a batch of solves: column `j` of the
    /// result is bitwise identical to [`SparsifierSolver::solve_into`] on
    /// column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `bs.len()`/`out.len()` differ from `n·k`.
    pub fn solve_multi_into(
        &self,
        bs: &[f64],
        k: usize,
        out: &mut [f64],
        scratch: &mut SparsifierSolveScratch,
    ) {
        assert!(k > 0, "batch width must be positive");
        assert_eq!(
            bs.len(),
            self.n * k,
            "rhs batch must have k entries per original vertex"
        );
        assert_eq!(
            out.len(),
            self.n * k,
            "output batch must have k entries per original vertex"
        );
        // Interleaved layout is vertex-major, and the auxiliary centers
        // are the vertices n..total — the batch rhs is a prefix.
        self.chol
            .solve_prefix_multi_into(bs, k, out, &mut scratch.factor);
    }
}

/// Reusable buffers for [`SparsifierSolver::solve_into`].
#[derive(Debug, Clone, Default)]
pub struct SparsifierSolveScratch {
    factor: SolveScratch,
}

/// Builds the deterministic spectral sparsifier of `g` in the congested
/// clique (Theorem 3.3), charging rounds to `clique`:
///
/// * per level: one oracle charge `⌈2·n^{1/r²}⌉` for the expander
///   decomposition (\[CS20\] substitute, tagged `Charged`) and 2
///   implemented broadcast rounds (cluster id + intra-cluster degree, one
///   word each), after which every node can reconstruct all star gadgets
///   internally;
/// * the resulting sparsifier is known to every node.
///
/// # Errors
///
/// [`SparsifyError::Comm`] if the communication substrate rejects a
/// broadcast (injected faults under a fault-injecting transport surface
/// here); [`SparsifyError::Factorization`] if a cluster
/// eigendecomposition fails.
///
/// # Panics
///
/// Panics if `clique.n() < g.n()` (every vertex needs a host processor) or
/// params are out of range.
pub fn build_sparsifier<C: Communicator>(
    clique: &mut C,
    g: &Graph,
    params: &SparsifyParams,
) -> Result<SpectralSparsifier, SparsifyError> {
    build_levels(clique, g, params, None)
}

/// The level loop of [`build_sparsifier`]. With `capture`, every level's
/// cluster structure is recorded as it is built (in original edge ids),
/// for [`crate::build_sparsifier_with_template`]; the construction and
/// its rounds are the same either way.
pub(crate) fn build_levels<C: Communicator>(
    clique: &mut C,
    g: &Graph,
    params: &SparsifyParams,
    mut capture: Option<&mut Vec<LevelTemplate>>,
) -> Result<SpectralSparsifier, SparsifyError> {
    assert!(
        clique.n() >= g.n(),
        "clique has {} nodes but the graph needs {}",
        clique.n(),
        g.n()
    );
    assert!(params.r >= 1.0, "r must be >= 1");
    let n = g.n();
    let phi = params.phi.unwrap_or_else(|| default_phi(g));
    let max_levels = params
        .max_levels
        .unwrap_or_else(|| 2 * ((2.0 + g.total_weight()).log2().ceil() as usize) + 8);
    let gamma = 1.0 / (params.r * params.r);
    let oracle_rounds = (2.0 * (n as f64).powf(gamma)).ceil() as u64;

    clique.phase("sparsify", |clique| {
        let mut remaining = g.clone();
        let mut edges: Vec<(usize, usize, f64)> = Vec::new();
        let mut aux_count = 0usize;
        let mut alpha: f64 = 1.0;
        let mut levels = 0usize;
        // Original id of every edge of `remaining` (kept only when
        // capturing).
        let mut id_map: Vec<EdgeId> = match capture {
            Some(_) => (0..g.m()).collect(),
            None => Vec::new(),
        };
        while remaining.m() > 0 {
            if levels >= max_levels {
                // Correctness backstop: copy the leftovers verbatim.
                for e in remaining.edges() {
                    edges.push((e.u, e.v, e.weight));
                }
                if let Some(captured) = capture.as_deref_mut() {
                    captured.push(LevelTemplate::backstop(&remaining, &id_map));
                }
                break;
            }
            levels += 1;
            // [CS20] substitute — charged oracle cost per Theorem 3.2.
            clique.charge_oracle(oracle_rounds);
            let dec = expander_decompose(&remaining, phi)?;
            // Every node broadcasts (cluster id, intra-cluster weighted
            // degree): 2 one-word broadcast rounds; afterwards the gadget
            // construction below is internal at every node.
            let assignment = dec.assignment(n);
            clique.broadcast_all(
                &(0..clique.n())
                    .map(|v| {
                        if v < n {
                            assignment[v] as u64
                        } else {
                            u64::MAX
                        }
                    })
                    .collect::<Vec<_>>(),
            )?;
            clique.broadcast_all(&vec![0u64; clique.n()])?;
            // Emission runs in cluster order, which fixes edge order,
            // center ids and the alpha fold.
            for cluster in &dec.clusters {
                if cluster.edges.is_empty() {
                    continue;
                }
                if cluster.edges.len() <= cluster.len() + params.direct_edge_slack {
                    // Keeping the edges verbatim is exact and no larger
                    // than a gadget.
                    edges.extend(cluster.edges.iter().map(|&eid| {
                        let e = remaining.edge(eid);
                        (e.u, e.v, e.weight)
                    }));
                } else {
                    let degrees = intra_cluster_degrees(&remaining, &cluster.vertices);
                    let gadget = ClusterGadget::new(
                        cluster.vertices.clone(),
                        &degrees,
                        cluster.mu2,
                        cluster.mu_max,
                    );
                    let center = n + aux_count;
                    aux_count += 1;
                    gadget.emit_edges(center, &mut edges);
                    alpha = alpha.max(gadget.alpha);
                }
            }
            if let Some(captured) = capture.as_deref_mut() {
                captured.push(LevelTemplate::capture(
                    &remaining,
                    &dec.clusters,
                    &id_map,
                    params.direct_edge_slack,
                ));
                // `edge_subgraph` below keeps the crossing edges in
                // ascending id order, as `crossing_edges` lists them.
                id_map = dec.crossing_edges.iter().map(|&e| id_map[e]).collect();
            }
            // Crossing edges fall through to the next level.
            let crossing: std::collections::BTreeSet<usize> =
                dec.crossing_edges.iter().copied().collect();
            remaining = remaining.edge_subgraph(|e| crossing.contains(&e));
        }
        Ok(SpectralSparsifier {
            n,
            aux_count,
            edges,
            alpha,
            levels,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;
    use cc_model::Clique;

    fn build(g: &Graph) -> (SpectralSparsifier, Clique) {
        let mut clique = Clique::new(g.n().max(2));
        let h =
            build_sparsifier(&mut clique, g, &SparsifyParams::default()).expect("honest clique");
        (h, clique)
    }

    #[test]
    fn sparsifier_of_expander_is_one_gadget() {
        let g = generators::expander(32);
        let (h, _) = build(&g);
        assert_eq!(h.levels(), 1);
        assert_eq!(h.aux_count(), 1);
        assert_eq!(h.edge_count(), 32);
        assert!(h.alpha() >= 1.0);
    }

    #[test]
    fn sparsifier_is_sparse_on_dense_graphs() {
        let g = generators::complete(40);
        let (h, _) = build(&g);
        // K40 has 780 edges; the sparsifier should be far smaller.
        assert!(h.edge_count() < 200, "got {}", h.edge_count());
    }

    #[test]
    fn small_clusters_keep_edges_exactly() {
        let g = generators::path(6);
        let (h, _) = build(&g);
        // A path decomposes into tiny clusters whose edges are kept; the
        // sparsifier over original vertices only.
        assert!(h.alpha() >= 1.0);
        let total_w: f64 = h.edges().iter().map(|e| e.2).sum();
        assert!(total_w > 0.0);
    }

    #[test]
    fn rounds_are_charged_per_level() {
        let g = generators::random_connected(24, 60, 4, 5);
        let (h, clique) = build(&g);
        let ledger = clique.ledger();
        assert!(ledger.charged_rounds() > 0, "oracle phases must be charged");
        assert!(ledger.implemented_rounds() >= 2 * h.levels() as u64);
        assert_eq!(ledger.phase_prefix_total("sparsify"), ledger.total_rounds());
    }

    #[test]
    fn solver_inverts_the_schur_complement_on_mean_zero_rhs() {
        let g = generators::expander(16);
        let (h, _) = build(&g);
        let solver = h.solver().unwrap();
        let mut b = vec![0.0; 16];
        b[0] = 1.0;
        b[15] = -1.0;
        let x = solver.solve(&b);
        assert_eq!(x.len(), 16);
        // S_H x must reproduce b exactly (b is mean-zero, G connected).
        let schur = crate::certify::sparsifier_schur_dense(&h);
        let sx = schur.matvec(&x);
        for (got, want) in sx.iter().zip(&b) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
        let x2 = solver.solve(&b);
        assert_eq!(x, x2, "solver must be deterministic");
    }

    #[test]
    fn deterministic_across_runs() {
        let g = generators::random_connected(20, 50, 8, 11);
        let (h1, c1) = build(&g);
        let (h2, c2) = build(&g);
        assert_eq!(h1.edges(), h2.edges());
        assert_eq!(h1.alpha().to_bits(), h2.alpha().to_bits());
        assert_eq!(c1.ledger().total_rounds(), c2.ledger().total_rounds());
    }

    #[test]
    fn weighted_graphs_are_handled() {
        let g = generators::random_connected(24, 60, 64, 2);
        let (h, _) = build(&g);
        assert!(h.alpha() >= 1.0);
        assert!(h.edge_count() > 0);
        assert!(h.solver().is_ok());
    }

    #[test]
    fn level_cap_backstop_keeps_edges() {
        let g = generators::random_connected(16, 40, 2, 3);
        let mut clique = Clique::new(16);
        let params = SparsifyParams {
            max_levels: Some(0),
            ..Default::default()
        };
        let h = build_sparsifier(&mut clique, &g, &params).unwrap();
        // With zero levels allowed, the sparsifier is the graph itself.
        assert_eq!(h.edge_count(), g.m());
        assert_eq!(h.aux_count(), 0);
        assert_eq!(h.alpha(), 1.0);
    }
}
