//! Graph Laplacians and the `‖·‖_L` norm of §2.2 of the paper.

use crate::{CsrMatrix, DenseMatrix};

/// Assembles the Laplacian `L = D − A` of an undirected weighted multigraph
/// given as `(u, v, w)` edge triples over vertices `0..n`.
///
/// Parallel edges accumulate; self-loops are ignored (they cancel in
/// `D − A`). Weights should be positive for `L` to be positive
/// semi-definite.
///
/// # Panics
///
/// Panics if an endpoint is out of range.
pub fn laplacian_from_edges(n: usize, edges: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut triplets = Vec::with_capacity(4 * edges.len());
    for &(u, v, w) in edges {
        assert!(u < n && v < n, "edge ({u},{v}) out of range for n={n}");
        if u == v {
            continue;
        }
        triplets.push((u, u, w));
        triplets.push((v, v, w));
        triplets.push((u, v, -w));
        triplets.push((v, u, -w));
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

/// The Laplacian quadratic form directly from the edge list:
/// `xᵀ L x = Σ_{(u,v)∈E} w(u,v) (x_u − x_v)²`.
///
/// Cheaper and better conditioned than going through the assembled matrix.
///
/// # Panics
///
/// Panics if an endpoint indexes outside `x`.
pub fn laplacian_quadratic_form(edges: &[(usize, usize, f64)], x: &[f64]) -> f64 {
    edges
        .iter()
        .map(|&(u, v, w)| {
            let d = x[u] - x[v];
            w * d * d
        })
        .sum()
}

/// Evaluates `‖x‖_L = √(xᵀ L x)` norms with respect to a fixed edge list.
///
/// ```
/// use cc_linalg::LaplacianNorm;
/// let norm = LaplacianNorm::new(vec![(0, 1, 1.0), (1, 2, 4.0)]);
/// assert!((norm.norm(&[0.0, 1.0, 0.0]) - (5.0f64).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LaplacianNorm {
    edges: Vec<(usize, usize, f64)>,
}

impl LaplacianNorm {
    /// Creates the norm evaluator for the given weighted edge list.
    pub fn new(edges: Vec<(usize, usize, f64)>) -> Self {
        Self { edges }
    }

    /// `‖x‖_L`.
    pub fn norm(&self, x: &[f64]) -> f64 {
        laplacian_quadratic_form(&self.edges, x).max(0.0).sqrt()
    }

    /// `‖x − y‖_L`, the error functional of Theorem 1.1.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn distance(&self, x: &[f64], y: &[f64]) -> f64 {
        let d = crate::vec_ops::sub(x, y);
        self.norm(&d)
    }

    /// The underlying edge list.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }
}

/// Dense normalized Laplacian `N = D^{-1/2} L D^{-1/2}` of the graph.
///
/// Isolated vertices (degree 0) contribute zero rows/columns. Used for
/// spectral-gap certification of expander decomposition clusters; the
/// eigenvalues of `N` lie in `[0, 2]`.
///
/// # Panics
///
/// Panics if an endpoint is out of range or a weight is negative.
pub fn normalized_laplacian_dense(n: usize, edges: &[(usize, usize, f64)]) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(n, n);
    normalized_laplacian_dense_into(n, edges, &mut m, &mut Vec::new());
    m
}

/// [`normalized_laplacian_dense`] into reused buffers: `out` is reshaped
/// to `n × n`, and `degrees[..n]` holds the weighted degrees on return
/// (summed in edge order; the rest of `degrees` is scratch). Bitwise
/// equal to `normalized_laplacian_dense`, and allocation-free once the
/// buffers have held an `n`-vertex instance.
///
/// # Panics
///
/// Same conditions as [`normalized_laplacian_dense`].
pub fn normalized_laplacian_dense_into(
    n: usize,
    edges: &[(usize, usize, f64)],
    out: &mut DenseMatrix,
    degrees: &mut Vec<f64>,
) {
    degrees.clear();
    degrees.resize(2 * n, 0.0);
    let (deg, inv_sqrt) = degrees.split_at_mut(n);
    for &(u, v, w) in edges {
        assert!(u < n && v < n, "edge out of range");
        assert!(w >= 0.0, "negative weight");
        if u == v {
            continue;
        }
        deg[u] += w;
        deg[v] += w;
    }
    for (s, &d) in inv_sqrt.iter_mut().zip(deg.iter()) {
        *s = if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 };
    }
    out.reset_zeros(n, n);
    for (i, &d) in deg.iter().enumerate() {
        if d > 0.0 {
            out.set(i, i, 1.0);
        }
    }
    for &(u, v, w) in edges {
        if u == v {
            continue;
        }
        let x = w * inv_sqrt[u] * inv_sqrt[v];
        out.add_to(u, v, -x);
        out.add_to(v, u, -x);
    }
}

/// The stored-entry layout [`laplacian_from_edges`] produces for one edge
/// support, together with the order in which every stored entry sums its
/// edges' contributions.
///
/// [`LaplacianPattern::refill`] rewrites the values of such a Laplacian
/// for new weights on the same support in `O(nnz)`, bitwise equal to a
/// fresh `laplacian_from_edges` — the reweighting path of the interior
/// point methods, whose electrical networks keep one support while every
/// weight moves.
#[derive(Debug, Clone)]
pub struct LaplacianPattern {
    /// Stored entry `s` sums `terms[starts[s]..starts[s + 1]]`, in order.
    starts: Vec<usize>,
    /// One term per contribution: `2·edge` for `+w`, `2·edge + 1` for `−w`.
    terms: Vec<usize>,
}

impl LaplacianPattern {
    /// Records the layout for the endpoints of `edges` (weights are
    /// ignored and assumed nonzero; self-loops contribute nothing).
    pub fn new(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        // The triplets `laplacian_from_edges` emits, in its order; a
        // stable sort by (row, column) reproduces `from_triplets`'
        // per-row staging plus stable column sort, so equal coordinates
        // keep their summation order.
        let mut triplets: Vec<(usize, usize, usize)> = Vec::with_capacity(4 * edges.len());
        for (e, &(u, v, _)) in edges.iter().enumerate() {
            assert!(u < n && v < n, "edge ({u},{v}) out of range for n={n}");
            if u == v {
                continue;
            }
            triplets.push((u, u, 2 * e));
            triplets.push((v, v, 2 * e));
            triplets.push((u, v, 2 * e + 1));
            triplets.push((v, u, 2 * e + 1));
        }
        triplets.sort_by_key(|&(r, c, _)| (r, c));
        let mut starts = Vec::with_capacity(triplets.len() + 1);
        let mut terms = Vec::with_capacity(triplets.len());
        for (i, &(r, c, t)) in triplets.iter().enumerate() {
            if i == 0 || (triplets[i - 1].0, triplets[i - 1].1) != (r, c) {
                starts.push(terms.len());
            }
            terms.push(t);
        }
        starts.push(terms.len());
        Self { starts, terms }
    }

    /// Number of stored entries of the Laplacian.
    pub fn nnz(&self) -> usize {
        self.starts.len() - 1
    }

    /// Rewrites `lap`'s values for edge weights `weight(e)`, summing each
    /// entry's contributions in `laplacian_from_edges`' order. Returns
    /// `false` (leaving `lap` partly rewritten) if some weight is exactly
    /// zero: a fresh assembly drops such an edge, so the layout no longer
    /// applies and the caller must assemble afresh.
    ///
    /// # Panics
    ///
    /// Panics if `lap` does not have this pattern's entry count.
    pub fn refill(&self, weight: impl Fn(usize) -> f64, lap: &mut CsrMatrix) -> bool {
        let values = lap.values_mut();
        assert_eq!(
            values.len(),
            self.nnz(),
            "Laplacian has a different pattern"
        );
        for (s, value) in values.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &t in &self.terms[self.starts[s]..self.starts[s + 1]] {
                let w = weight(t / 2);
                if w == 0.0 {
                    return false;
                }
                acc += if t % 2 == 1 { -w } else { w };
            }
            *value = acc;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symmetric_eigen;
    use proptest::prelude::*;

    #[test]
    fn laplacian_of_single_edge() {
        let lap = laplacian_from_edges(2, &[(0, 1, 3.0)]);
        assert_eq!(lap.get(0, 0), 3.0);
        assert_eq!(lap.get(0, 1), -3.0);
        assert_eq!(lap.get(1, 1), 3.0);
    }

    #[test]
    fn rows_sum_to_zero() {
        let lap = laplacian_from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (0, 3, 1.5)]);
        for r in 0..4 {
            let s: f64 = lap.row(r).map(|(_, v)| v).sum();
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_edges_accumulate() {
        let lap = laplacian_from_edges(2, &[(0, 1, 1.0), (0, 1, 2.0)]);
        assert_eq!(lap.get(0, 1), -3.0);
    }

    #[test]
    fn self_loops_ignored() {
        let lap = laplacian_from_edges(2, &[(0, 0, 5.0), (0, 1, 1.0)]);
        assert_eq!(lap.get(0, 0), 1.0);
    }

    #[test]
    fn quadratic_form_matches_matrix() {
        let edges = vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.25)];
        let lap = laplacian_from_edges(3, &edges);
        let x = [0.3, -1.2, 2.0];
        assert!((laplacian_quadratic_form(&edges, &x) - lap.quadratic_form(&x)).abs() < 1e-12);
    }

    #[test]
    fn normalized_laplacian_spectrum_in_0_2() {
        // Cycle of 5 vertices.
        let edges: Vec<_> = (0..5).map(|i| (i, (i + 1) % 5, 1.0)).collect();
        let nl = normalized_laplacian_dense(5, &edges);
        let eig = symmetric_eigen(&nl).unwrap();
        for &lam in eig.eigenvalues() {
            assert!((-1e-9..=2.0 + 1e-9).contains(&lam), "lambda={lam}");
        }
        assert!(eig.eigenvalues()[0].abs() < 1e-9);
    }

    #[test]
    fn norm_evaluator() {
        let norm = LaplacianNorm::new(vec![(0, 1, 2.0)]);
        assert!((norm.norm(&[1.0, 0.0]) - 2.0f64.sqrt()).abs() < 1e-12);
        assert!(norm.distance(&[1.0, 0.0], &[1.0, 0.0]).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn quadratic_form_nonnegative(
            edges in proptest::collection::vec((0usize..6, 0usize..6, 0.01f64..10.0), 1..15),
            x in proptest::collection::vec(-5f64..5.0, 6)
        ) {
            prop_assert!(laplacian_quadratic_form(&edges, &x) >= -1e-12);
        }

        #[test]
        fn constant_vectors_in_nullspace(
            edges in proptest::collection::vec((0usize..5, 0usize..5, 0.01f64..10.0), 1..10),
            c in -10f64..10.0
        ) {
            let lap = laplacian_from_edges(5, &edges);
            let y = lap.matvec(&[c; 5]);
            for v in y {
                prop_assert!(v.abs() < 1e-9);
            }
        }
    }
}
