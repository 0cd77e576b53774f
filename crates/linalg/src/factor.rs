//! Exact solves with (singular) graph Laplacians.
//!
//! The factor is sparse: `L` is stored as sorted rows with a separate
//! diagonal, and `Lᵀ` as sorted rows of its own (the columns of `L`), so
//! factorization, memory and both substitution sweeps scale with the
//! factor's nonzeros instead of `k²`. On the star gadgets the sparsifier
//! builds, the factor is an arrow matrix and the solve is `O(n)`.

use std::iter;

use crate::csr::{for_each_tile, LaneTile};
use crate::{CsrMatrix, LinalgError};

/// Direct solver for Laplacian systems `L x = b`, correct on *singular*
/// Laplacians: one vertex per connected component is grounded (pinned to
/// zero), the strictly positive definite reduced system is factored by
/// sparse Cholesky once, and [`GroundedCholesky::solve`] then implements
/// the pseudo-inverse action `x = L† b` for any right-hand side (the
/// component of `b` outside `range(L)` is projected away, and the returned
/// solution has zero mean on every component — the canonical
/// pseudo-inverse representative).
///
/// The factorization and both sweeps perform, for every stored nonzero,
/// exactly the floating-point operations of a dense left-looking Cholesky
/// in ascending index order; they skip only products whose factor entry is
/// exactly zero. Such a product is `±0`, and subtracting it from a partial
/// sum that is not `−0` leaves the sum unchanged, so factor entries and
/// solutions are bitwise equal to the dense computation. The one case this
/// argument does not cover is the sign of an exactly-zero output when the
/// right-hand side itself holds `−0.0` (a skipped `−0` product would have
/// turned a `−0` partial sum into `+0`).
///
/// This is the "solve involving `L_H`" of Corollary 2.3: the sparsifier is
/// globally known, so every node runs this factorization internally at zero
/// round cost.
#[derive(Debug, Clone)]
pub struct GroundedCholesky {
    n: usize,
    /// Component id per vertex.
    component: Vec<usize>,
    /// Vertices per component.
    comp_size: Vec<usize>,
    /// Map reduced index → vertex.
    reduced_vertices: Vec<usize>,
    /// Map vertex → reduced index ([`NONE`] for grounded vertices).
    reduced_index: Vec<usize>,
    /// Stored entries of the factored Laplacian (its pattern is what a
    /// [`GroundedCholesky::refactor`] must be handed again).
    lap_nnz: usize,
    /// Numeric-factorization scratch: the reduced diagonal, then the
    /// row being eliminated (zero between rows).
    a_diag: Vec<f64>,
    work: Vec<f64>,
    /// Diagonal of the Cholesky factor `L` of the reduced matrix.
    diag: Vec<f64>,
    /// Strictly lower part of `L` (rows sorted, columns `< i` in row `i`).
    /// The forward sweep reads it.
    lower: CsrMatrix,
    /// `lowerᵀ`: row `i` holds column `i` of `L` below the diagonal, in
    /// ascending order (exact zeros dropped, as the sweep may skip them).
    /// The backward sweep reads it, so both sweeps walk contiguous sorted
    /// rows with the operation order of a column walk of `lower`.
    upper: CsrMatrix,
}

impl GroundedCholesky {
    /// Factors the Laplacian `lap`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `lap` is not square;
    /// [`LinalgError::NotPositiveDefinite`] if the grounded reduction is not
    /// positive definite — i.e. the input was not a Laplacian of a graph
    /// with positive weights.
    pub fn new(lap: &CsrMatrix) -> Result<Self, LinalgError> {
        if lap.rows() != lap.cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "grounded_cholesky",
                got: lap.cols(),
                expected: lap.rows(),
            });
        }
        let n = lap.rows();
        let component = connected_components(lap);
        let num_comps = component.iter().copied().max().map_or(0, |m| m + 1);
        let mut comp_size = vec![0usize; num_comps];
        for &c in &component {
            comp_size[c] += 1;
        }
        // Ground the first (lowest-id) vertex of every component.
        let mut grounded = vec![false; n];
        let mut seen = vec![false; num_comps];
        for v in 0..n {
            let c = component[v];
            if !seen[c] {
                seen[c] = true;
                grounded[v] = true;
            }
        }
        let mut reduced_index = vec![NONE; n];
        let mut reduced_vertices = Vec::new();
        for v in 0..n {
            if !grounded[v] {
                reduced_index[v] = reduced_vertices.len();
                reduced_vertices.push(v);
            }
        }
        let (ptr, idx) = factor_pattern(lap, &reduced_vertices, &reduced_index);
        let nnz = idx.len();
        let mut chol = Self {
            n,
            component,
            comp_size,
            reduced_vertices,
            reduced_index,
            lap_nnz: lap.nnz(),
            a_diag: Vec::new(),
            work: Vec::new(),
            diag: Vec::new(),
            lower: CsrMatrix::from_sorted_rows(ptr.len() - 1, ptr, idx, vec![0.0; nnz]),
            upper: CsrMatrix::from_sorted_rows(0, vec![0], Vec::new(), Vec::new()),
        };
        chol.factor_values(lap)?;
        Ok(chol)
    }

    /// Refactors for `lap`, a Laplacian with the sparsity pattern of the
    /// one this factor was built from (same stored entries; only the
    /// values moved — the reweighting step of the interior point
    /// methods). The components, grounding, elimination tree and factor
    /// pattern are kept; the numeric factorization is rerun over the
    /// stored pattern, with the pivot tolerance recomputed from the new
    /// diagonal. The result is bitwise equal to [`GroundedCholesky::new`]
    /// on `lap`, provided `lap`'s off-diagonal entries are nonzero
    /// wherever the original's were (true for Laplacians of positive
    /// weights on one support), and the call allocates nothing.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] as for
    /// [`GroundedCholesky::new`]. The factor is then unusable until a
    /// later refactor succeeds.
    ///
    /// # Panics
    ///
    /// Panics if `lap`'s order or stored-entry count differs from the
    /// factored Laplacian's.
    pub fn refactor(&mut self, lap: &CsrMatrix) -> Result<(), LinalgError> {
        assert!(
            lap.rows() == self.n && lap.nnz() == self.lap_nnz,
            "refactor needs the factored Laplacian's sparsity pattern"
        );
        self.factor_values(lap)
    }

    /// The numeric factorization over the stored pattern, then `upper`.
    ///
    /// Entry `(i, j)` of `L` is `(a_ij − Σ_k l_ik·l_jk) / l_jj` with `k`
    /// ascending over row `j`'s pattern, and the pivot is
    /// `a_ii − Σ_k l_ik²` with `k` ascending: the dense left-looking
    /// recurrence minus its exactly-zero products. Only the lower
    /// triangle of the reduction is read.
    fn factor_values(&mut self, lap: &CsrMatrix) -> Result<(), LinalgError> {
        let k = self.reduced_vertices.len();
        let (rv, ri) = (&self.reduced_vertices, &self.reduced_index);
        let a_diag = &mut self.a_diag;
        a_diag.clear();
        a_diag.resize(k, 0.0);
        for (i, &v) in rv.iter().enumerate() {
            for (c, val) in lap.row(v) {
                if ri[c] == i {
                    a_diag[i] += val;
                }
            }
        }
        // Relative pivot tolerance against the largest diagonal entry.
        let max_diag = a_diag.iter().map(|d| d.abs()).fold(0.0f64, f64::max);
        let tol = 1e-12 * max_diag.max(1e-300);
        // Row `i` of `A`, then of `L` as its entries are computed; zero
        // outside row `i`'s pattern between rows.
        let work = &mut self.work;
        work.clear();
        work.resize(k, 0.0);
        self.diag.clear();
        let (ptr, idx, val) = self.lower.parts_mut();
        for i in 0..k {
            for (c, v) in lap.row(rv[i]) {
                if ri[c] < i {
                    work[ri[c]] += v;
                }
            }
            let pattern = &idx[ptr[i]..ptr[i + 1]];
            let (done, row) = val.split_at_mut(ptr[i]);
            let first = pattern.first().copied().unwrap_or(i);
            let mut d = a_diag[i];
            for &j in pattern {
                let (cols, vals) = (&idx[ptr[j]..ptr[j + 1]], &done[ptr[j]..ptr[j + 1]]);
                // Columns before `first` meet zeros of row `i`: skip them.
                let from = cols.partition_point(|&c| c < first);
                let mut s = work[j];
                for (&c, &ljc) in cols[from..].iter().zip(&vals[from..]) {
                    s -= work[c] * ljc;
                }
                let lij = s / self.diag[j];
                work[j] = lij;
                d -= lij * lij;
            }
            // A NaN pivot (from a NaN weight) fails too, as a typed error.
            if d.is_nan() || d <= tol {
                return Err(LinalgError::NotPositiveDefinite { index: i, pivot: d });
            }
            self.diag.push(d.sqrt());
            for (slot, &j) in row.iter_mut().zip(pattern) {
                *slot = work[j];
                work[j] = 0.0;
            }
        }
        self.lower.transpose_into(&mut self.upper);
        Ok(())
    }

    /// Matrix order `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Component id per vertex.
    pub fn components(&self) -> &[usize] {
        &self.component
    }

    /// Applies the pseudo-inverse: returns `x = L† b`.
    ///
    /// `b` is first projected onto `range(L)` (per-component mean removed),
    /// so the call is meaningful for any `b`; the result has zero mean on
    /// every component.
    ///
    /// Allocates the output and a fresh scratch; per-iteration callers
    /// (preconditioner solves inside Chebyshev) should use
    /// [`GroundedCholesky::solve_into`] with reused buffers.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        let mut scratch = SolveScratch::default();
        self.solve_into(b, &mut x, &mut scratch);
        x
    }

    /// Allocation-free `x ← L† b`: the width-1
    /// [`GroundedCholesky::solve_multi_into`], with its buffers in
    /// `scratch` (sized on first use). Bitwise equal to
    /// [`GroundedCholesky::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n` or `x.len() != n`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64], scratch: &mut SolveScratch) {
        self.solve_multi_into(b, 1, x, scratch);
    }

    /// Batched pseudo-inverse application over `k` interleaved
    /// right-hand sides: `bs` and `xs` hold `n` rows of `k` lanes
    /// (`bs[v*k + j]` is entry `v` of vector `j`).
    ///
    /// One lane-tiled kernel serves every width, as in
    /// [`crate::CsrMatrix::matvec_multi_into`]. A tile makes five passes:
    /// the component sums of `b`, the forward sweep (which forms each
    /// row's projected right-hand side when it reaches the row), the
    /// backward sweep, the component sums of the solution, and the mean
    /// shift that writes `x`; each factor row is read once per sweep for
    /// the tile's lanes. Every lane performs exactly the operations of a
    /// single-column solve, in the same order, so column `j` is bitwise
    /// identical to [`GroundedCholesky::solve_into`] on column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `bs.len() != n*k`, or `xs.len() != n*k`.
    pub fn solve_multi_into(
        &self,
        bs: &[f64],
        k: usize,
        xs: &mut [f64],
        scratch: &mut SolveScratch,
    ) {
        assert_eq!(bs.len(), self.n * k, "rhs length mismatch");
        self.solve_prefix_multi_into(bs, k, xs, scratch);
    }

    /// [`GroundedCholesky::solve_multi_into`] of right-hand sides that are
    /// zero past their first `m ≤ n` rows, restricted to those rows: `bs`
    /// and `xs` hold `m` rows of `k` lanes. Bitwise equal to padding `bs`
    /// with zero rows, solving, and keeping the first `m` solution rows.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `bs.len() != xs.len()`, or `bs.len()` is not
    /// `m*k` for some `m ≤ n`.
    pub fn solve_prefix_multi_into(
        &self,
        bs: &[f64],
        k: usize,
        xs: &mut [f64],
        scratch: &mut SolveScratch,
    ) {
        assert!(k > 0, "batch width must be positive");
        assert_eq!(xs.len(), bs.len(), "solution length mismatch");
        assert!(
            bs.len().is_multiple_of(k) && bs.len() <= self.n * k,
            "rhs length mismatch"
        );
        for_each_tile(k, &mut SolveTile(self, bs, xs, scratch));
    }
}

/// [`GroundedCholesky::solve_prefix_multi_into`] of
/// `(factor, bs, xs, scratch)`.
struct SolveTile<'a>(
    &'a GroundedCholesky,
    &'a [f64],
    &'a mut [f64],
    &'a mut SolveScratch,
);

impl LaneTile for SolveTile<'_> {
    /// Lanes `j..j + L`. The reduced right-hand side is tile-local
    /// (`rhs[ri][l]`), so both sweeps run with the stride `L` whatever
    /// `k` is; rows past `bs` are zero.
    #[inline(always)]
    fn tile<const L: usize>(&mut self, k: usize, j: usize) {
        let SolveTile(chol, bs, xs, scratch) = self;
        let (chol, bs) = (*chol, *bs);
        let lanes = |row: &[f64]| -> [f64; L] { row[j..j + L].try_into().unwrap() };
        let solution = |rhs: &[[f64; L]], v: usize| match chol.reduced_index[v] {
            NONE => [0.0; L],
            ri => rhs[ri],
        };
        let means = |comp: &mut [[f64; L]]| {
            for (sums, &size) in comp.iter_mut().zip(&chol.comp_size) {
                *sums = sums.map(|s| s / size as f64);
            }
        };
        scratch.comp.clear();
        scratch.comp.resize(chol.comp_size.len() * L, 0.0);
        scratch.rhs.resize(chol.reduced_vertices.len() * L, 0.0);
        let (comp, _) = scratch.comp.as_chunks_mut::<L>();
        let (rhs, _) = scratch.rhs.as_chunks_mut::<L>();
        // Project onto range(L): per-component means of every lane.
        let padded = bs.chunks_exact(k).map(lanes).chain(iter::repeat([0.0; L]));
        component_sums(comp, &chol.component, padded);
        means(comp);
        // Forward sweep, forming row `i`'s right-hand side `b[v] − mean`
        // when it reaches the row. Both sweeps read only entries already
        // in their target state, so working in place performs exactly the
        // operations of the two-buffer formulation.
        for (i, &v) in chol.reduced_vertices.iter().enumerate() {
            let b = if v * k < bs.len() {
                lanes(&bs[v * k..])
            } else {
                [0.0; L]
            };
            let mean = comp[chol.component[v]];
            let mut acc: [f64; L] = std::array::from_fn(|l| b[l] - mean[l]);
            for (r, u) in chol.lower.row(i) {
                for l in 0..L {
                    acc[l] -= u * rhs[r][l];
                }
            }
            rhs[i] = acc.map(|a| a / chol.diag[i]);
        }
        for i in (0..rhs.len()).rev() {
            let mut acc = rhs[i];
            for (r, u) in chol.upper.row(i) {
                for l in 0..L {
                    acc[l] -= u * rhs[r][l];
                }
            }
            rhs[i] = acc.map(|a| a / chol.diag[i]);
        }
        // Shift to the zero-mean representative per component: sum the
        // solution (grounded vertices hold `+0.0`), then write `x`.
        comp.fill([0.0; L]);
        component_sums(comp, &chol.component, (0..chol.n).map(|v| solution(rhs, v)));
        means(comp);
        for (v, (xrow, &c)) in xs.chunks_exact_mut(k).zip(&chol.component).enumerate() {
            let x = solution(rhs, v);
            for l in 0..L {
                xrow[j + l] = x[l] - comp[c][l];
            }
        }
    }
}

/// Adds each vertex's lanes to its component's sums, vertices ascending.
/// The current component's sums stay in registers while consecutive
/// vertices share it (every component's additions keep their order).
#[inline(always)]
fn component_sums<const L: usize>(
    sums: &mut [[f64; L]],
    component: &[usize],
    lanes: impl Iterator<Item = [f64; L]>,
) {
    let Some(&first) = component.first() else {
        return;
    };
    let (mut cur, mut acc) = (first, sums[first]);
    for (&c, x) in component.iter().zip(lanes) {
        if c != cur {
            sums[cur] = acc;
            (cur, acc) = (c, sums[c]);
        }
        for l in 0..L {
            acc[l] += x[l];
        }
    }
    sums[cur] = acc;
}

/// Reusable buffers for [`GroundedCholesky::solve_multi_into`]:
/// per-component accumulators and the reduced right-hand side of one
/// tile (which the triangular solves overwrite in place).
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    comp: Vec<f64>,
    rhs: Vec<f64>,
}

/// Connected components over the off-diagonal sparsity pattern.
fn connected_components(lap: &CsrMatrix) -> Vec<usize> {
    let n = lap.rows();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut stack = Vec::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = next;
        stack.push(start);
        while let Some(v) = stack.pop() {
            for (c, val) in lap.row(v) {
                if c != v && val != 0.0 && comp[c] == usize::MAX {
                    comp[c] = next;
                    stack.push(c);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Marks a grounded vertex in the vertex → reduced-index map.
const NONE: usize = usize::MAX;

/// Symbolic phase of the up-looking sparse Cholesky `A = L Lᵀ` of the
/// grounded reduction of `lap` (rows and columns `reduced_vertices`):
/// the row pointers and sorted column indices of `L`'s strictly lower
/// rows. Reads only `lap`'s stored pattern, never its values.
///
/// The pattern of row `i` is the union of the elimination-tree paths from
/// the columns of `A`'s row `i`, found with the tree built so far. Time
/// and memory scale with the factor's nonzeros plus `O(k)` work arrays;
/// no `k×k` matrix is formed.
fn factor_pattern(
    lap: &CsrMatrix,
    reduced_vertices: &[usize],
    reduced_index: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let k = reduced_vertices.len();
    let (mut ptr, mut idx) = (vec![0], Vec::new());
    let mut parent = vec![NONE; k];
    let mut mark = vec![NONE; k];
    for i in 0..k {
        mark[i] = i;
        let start = idx.len();
        for (c, _) in lap.row(reduced_vertices[i]) {
            let j = reduced_index[c];
            if j >= i {
                continue;
            }
            let mut t = j;
            while mark[t] != i {
                mark[t] = i;
                idx.push(t);
                if parent[t] == NONE {
                    parent[t] = i;
                }
                t = parent[t];
            }
        }
        idx[start..].sort_unstable();
        ptr.push(idx.len());
    }
    (ptr, idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::{laplacian_from_edges, LaplacianPattern};
    use crate::{vec_ops, DenseMatrix, RHS_LANES};
    use proptest::prelude::*;

    // The dense reference: the left-looking Cholesky (with the NaN-aware
    // pivot test) and the substitution kernel the sparse factor replaced,
    // so the sparse code can be differenced against them bit for bit.

    /// Dense Cholesky factorization `A = L Lᵀ` returning the lower factor.
    fn cholesky_lower(a: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        let n = a.rows();
        let mut l = DenseMatrix::zeros(n, n);
        let max_diag = (0..n).map(|i| a.get(i, i).abs()).fold(0.0f64, f64::max);
        let tol = 1e-12 * max_diag.max(1e-300);
        for j in 0..n {
            let mut d = a.get(j, j);
            for k in 0..j {
                let ljk = l.get(j, k);
                d -= ljk * ljk;
            }
            if d.is_nan() || d <= tol {
                return Err(LinalgError::NotPositiveDefinite { index: j, pivot: d });
            }
            let d = d.sqrt();
            l.set(j, j, d);
            for i in (j + 1)..n {
                let mut s = a.get(i, j);
                for k in 0..j {
                    s -= l.get(i, k) * l.get(j, k);
                }
                l.set(i, j, s / d);
            }
        }
        Ok(l)
    }

    /// Dense `L Lᵀ x = b` in place; `u` is `lᵀ`.
    fn dense_sweeps(l: &DenseMatrix, u: &DenseMatrix, v: &mut [f64]) {
        let n = l.rows();
        for i in 0..n {
            let li = l.row(i);
            let mut s = v[i];
            for k in 0..i {
                s -= li[k] * v[k];
            }
            v[i] = s / li[i];
        }
        for i in (0..n).rev() {
            let ui = u.row(i);
            let mut s = v[i];
            for k in (i + 1)..n {
                s -= ui[k] * v[k];
            }
            v[i] = s / ui[i];
        }
    }

    /// The grounded reduction of `lap` as a dense matrix, assembled as the
    /// dense solver did.
    fn dense_reduced(lap: &CsrMatrix, chol: &GroundedCholesky) -> DenseMatrix {
        let k = chol.reduced_vertices.len();
        let mut reduced_index = vec![None; lap.rows()];
        for (ri, &v) in chol.reduced_vertices.iter().enumerate() {
            reduced_index[v] = Some(ri);
        }
        let mut reduced = DenseMatrix::zeros(k, k);
        for (ri, &v) in chol.reduced_vertices.iter().enumerate() {
            for (c, val) in lap.row(v) {
                if let Some(rj) = reduced_index[c] {
                    reduced.add_to(ri, rj, val);
                }
            }
        }
        reduced
    }

    /// `L† B` over `k` interleaved columns with the dense factor: the
    /// projection and mean shift of [`GroundedCholesky::solve_multi_into`]
    /// around the dense substitution, column by column.
    fn dense_solve(
        chol: &GroundedCholesky,
        (l, u): (&DenseMatrix, &DenseMatrix),
        bs: &[f64],
        k: usize,
    ) -> Vec<f64> {
        let size = |c: usize| chol.comp_size[c] as f64;
        let mut comp = vec![0.0; chol.comp_size.len() * k];
        for (v, brow) in bs.chunks(k).enumerate() {
            for (j, &bv) in brow.iter().enumerate() {
                comp[chol.component[v] * k + j] += bv;
            }
        }
        for (i, s) in comp.iter_mut().enumerate() {
            *s /= size(i / k);
        }
        let mut rhs = Vec::with_capacity(chol.reduced_vertices.len() * k);
        for &v in &chol.reduced_vertices {
            let c = chol.component[v];
            rhs.extend((0..k).map(|j| bs[v * k + j] - comp[c * k + j]));
        }
        for j in 0..k {
            let mut col = column(&rhs, k, j);
            dense_sweeps(l, u, &mut col);
            for (r, x) in col.into_iter().enumerate() {
                rhs[r * k + j] = x;
            }
        }
        let mut xs = vec![0.0; bs.len()];
        for (ri, &v) in chol.reduced_vertices.iter().enumerate() {
            xs[v * k..(v + 1) * k].copy_from_slice(&rhs[ri * k..(ri + 1) * k]);
        }
        comp.fill(0.0);
        for (v, xrow) in xs.chunks(k).enumerate() {
            for (j, &xv) in xrow.iter().enumerate() {
                comp[chol.component[v] * k + j] += xv;
            }
        }
        for (v, xrow) in xs.chunks_mut(k).enumerate() {
            let c = chol.component[v];
            for (j, xv) in xrow.iter_mut().enumerate() {
                *xv -= comp[c * k + j] / size(c);
            }
        }
        xs
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    // The scalar single-column solve the lane-tiled kernel replaced,
    // kept verbatim as its independent reference.
    impl GroundedCholesky {
        fn reference_solve_into(&self, b: &[f64], x: &mut [f64], scratch: &mut SolveScratch) {
            assert_eq!(b.len(), self.n, "rhs length mismatch");
            assert_eq!(x.len(), self.n, "solution length mismatch");
            // Project b onto range(L): remove per-component mean.
            let num_comps = self.comp_size.len();
            let k = self.reduced_vertices.len();
            scratch.comp.resize(num_comps, 0.0);
            scratch.rhs.resize(k, 0.0);
            scratch.comp.fill(0.0);
            for (v, &bv) in b.iter().enumerate() {
                scratch.comp[self.component[v]] += bv;
            }
            self.reference_sums_to_means(&mut scratch.comp, 1);
            for (ri, &v) in self.reduced_vertices.iter().enumerate() {
                scratch.rhs[ri] = b[v] - scratch.comp[self.component[v]];
            }
            self.reference_sweeps(&mut scratch.rhs);
            x.fill(0.0);
            for (ri, &v) in self.reduced_vertices.iter().enumerate() {
                x[v] = scratch.rhs[ri];
            }
            // Shift to the zero-mean representative per component.
            scratch.comp.fill(0.0);
            for (v, &xv) in x.iter().enumerate() {
                scratch.comp[self.component[v]] += xv;
            }
            self.reference_sums_to_means(&mut scratch.comp, 1);
            for (xv, &c) in x.iter_mut().zip(&self.component) {
                *xv -= scratch.comp[c];
            }
        }

        /// Divides each component's `k` column sums in `comp` by its size.
        fn reference_sums_to_means(&self, comp: &mut [f64], k: usize) {
            for (sums, &c) in comp.chunks_mut(k).zip(&self.comp_size) {
                for s in sums {
                    *s /= c as f64;
                }
            }
        }

        /// Solves `L Lᵀ x = b` on the reduced system by forward/back
        /// substitution, overwriting `v` (`b` on entry, `x` on exit).
        fn reference_sweeps(&self, v: &mut [f64]) {
            let n = self.diag.len();
            let solve_row = |rows: &CsrMatrix, v: &mut [f64], i: usize| {
                let mut s = v[i];
                for (c, l) in rows.row(i) {
                    s -= l * v[c];
                }
                v[i] = s / self.diag[i];
            };
            for i in 0..n {
                solve_row(&self.lower, v, i);
            }
            for i in (0..n).rev() {
                solve_row(&self.upper, v, i);
            }
        }
    }

    /// Column `j` of the `n`-row, width-`k` batch `xs`.
    fn column(xs: &[f64], k: usize, j: usize) -> Vec<f64> {
        xs.iter().skip(j).step_by(k).copied().collect()
    }

    /// The lane-tiled kernel equals the scalar reference column by column,
    /// bit for bit, at every width, on every input shape and on right-hand
    /// sides holding `−0.0`, subnormals and `±1e300`; so does its prefix
    /// form against a zero-padded reference. One scratch serves every
    /// width and both forms.
    #[test]
    fn tiled_solve_matches_the_scalar_reference_at_every_width() {
        use crate::twin_inputs::{laplacians, rhs, WIDTHS};
        let mut scratch = SolveScratch::default();
        let mut reference = SolveScratch::default();
        for (name, lap) in laplacians() {
            let chol = GroundedCholesky::new(&lap).unwrap();
            let n = chol.n();
            for k in WIDTHS {
                for shift in 0..4 {
                    let bs = rhs(n, k, shift);
                    let mut xs = vec![f64::NAN; n * k];
                    chol.solve_multi_into(&bs, k, &mut xs, &mut scratch);
                    let prefix = n / 2 + 1;
                    let mut head = vec![f64::NAN; prefix * k];
                    chol.solve_prefix_multi_into(&bs[..head.len()], k, &mut head, &mut scratch);
                    let mut padded = bs.clone();
                    padded[head.len()..].fill(0.0);
                    for j in 0..k {
                        let mut want = vec![0.0; n];
                        chol.reference_solve_into(&column(&bs, k, j), &mut want, &mut reference);
                        let what = format!("{name}, k = {k}, shift {shift}, column {j}");
                        assert_eq!(bits(&column(&xs, k, j)), bits(&want), "{what}");
                        chol.reference_solve_into(
                            &column(&padded, k, j),
                            &mut want,
                            &mut reference,
                        );
                        want.truncate(prefix);
                        assert_eq!(bits(&column(&head, k, j)), bits(&want), "prefix: {what}");
                    }
                }
            }
        }
    }

    /// Differences the sparse factor of `lap` against the dense reference
    /// bit for bit: every factor entry, and `solve_multi_into` at batch
    /// widths around the register tile.
    ///
    /// The right-hand sides hold no `−0.0`, the one input on which the
    /// sign of an exactly-zero output may differ (see
    /// [`GroundedCholesky`]).
    fn assert_matches_dense(lap: &CsrMatrix) {
        let chol = GroundedCholesky::new(lap).unwrap();
        let l = cholesky_lower(&dense_reduced(lap, &chol)).unwrap();
        let u = l.transpose();
        let k = chol.diag.len();
        for i in 0..k {
            for j in 0..=i {
                let got = if j == i {
                    chol.diag[i]
                } else {
                    chol.lower.get(i, j)
                };
                assert_eq!(got.to_bits(), l.get(i, j).to_bits(), "factor ({i}, {j})");
            }
        }
        let n = chol.n();
        for lanes in [1, 3, RHS_LANES, RHS_LANES + 1, 16] {
            let bs: Vec<f64> = (0..n * lanes)
                .map(|e| (1.7 * e as f64 + 0.3).sin() * 4.0)
                .collect();
            let mut xs = vec![0.0; n * lanes];
            chol.solve_multi_into(&bs, lanes, &mut xs, &mut SolveScratch::default());
            assert_eq!(bits(&xs), bits(&dense_solve(&chol, (&l, &u), &bs, lanes)));
        }
    }

    #[test]
    fn solves_connected_laplacian() {
        let edges = vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 0.5)];
        let lap = laplacian_from_edges(4, &edges);
        let chol = GroundedCholesky::new(&lap).unwrap();
        let b = vec![1.0, -0.5, 0.25, -0.75];
        let x = chol.solve(&b);
        let lx = lap.matvec(&x);
        for (got, want) in lx.iter().zip(&b) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        // Pseudo-inverse representative: zero mean.
        assert!(vec_ops::mean(&x).abs() < 1e-12);
    }

    #[test]
    fn handles_disconnected_components_and_isolated_vertices() {
        // Component {0,1}, component {2,3,4}, isolated vertex 5.
        let edges = vec![(0, 1, 1.0), (2, 3, 1.0), (3, 4, 2.0)];
        let lap = laplacian_from_edges(6, &edges);
        let chol = GroundedCholesky::new(&lap).unwrap();
        assert_eq!(chol.components()[0], chol.components()[1]);
        assert_ne!(chol.components()[0], chol.components()[2]);
        let b = vec![1.0, -1.0, 2.0, -1.0, -1.0, 5.0];
        let x = chol.solve(&b);
        let lx = lap.matvec(&x);
        // b restricted to components with zero sum is reproduced exactly.
        for i in 0..5 {
            assert!((lx[i] - b[i]).abs() < 1e-9);
        }
        // Isolated vertex: nothing can be routed; x is 0 there.
        assert_eq!(x[5], 0.0);
    }

    #[test]
    fn projects_infeasible_rhs() {
        let lap = laplacian_from_edges(2, &[(0, 1, 1.0)]);
        let chol = GroundedCholesky::new(&lap).unwrap();
        // b has nonzero mean: the solver should act as L† b.
        let x = chol.solve(&[3.0, 1.0]);
        let lx = lap.matvec(&x);
        // L L† b = projection of b = b - mean = [1, -1].
        assert!((lx[0] - 1.0).abs() < 1e-12);
        assert!((lx[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_laplacian() {
        // Negative definite "Laplacian".
        let m = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, -1.0), (1, 1, -1.0), (0, 1, 0.5), (1, 0, 0.5)],
        );
        assert!(matches!(
            GroundedCholesky::new(&m),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn pseudo_inverse_property_on_random_connected_graphs(
            extra in proptest::collection::vec((0usize..8, 0usize..8, 0.1f64..5.0), 0..12),
            b_raw in proptest::collection::vec(-5f64..5.0, 8)
        ) {
            // Spanning path guarantees connectivity, extras are arbitrary.
            let mut edges: Vec<(usize, usize, f64)> = (0..7).map(|i| (i, i + 1, 1.0)).collect();
            edges.extend(extra.into_iter().filter(|&(u, v, _)| u != v));
            let lap = laplacian_from_edges(8, &edges);
            let chol = GroundedCholesky::new(&lap).unwrap();
            let mut b = b_raw;
            vec_ops::remove_mean(&mut b);
            let x = chol.solve(&b);
            let lx = lap.matvec(&x);
            for (got, want) in lx.iter().zip(&b) {
                prop_assert!((got - want).abs() < 1e-7);
            }
        }

        #[test]
        fn bitwise_equal_to_dense_on_random_connected_graphs(
            n in 2usize..24,
            extra in proptest::collection::vec((0usize..24, 0usize..24, 0.1f64..5.0), 0..40),
        ) {
            let mut edges: Vec<(usize, usize, f64)> =
                (1..n).map(|i| (i - 1, i, 1.0 + i as f64 / 7.0)).collect();
            edges.extend(extra.into_iter().filter(|&(u, v, _)| u != v && u < n && v < n));
            assert_matches_dense(&laplacian_from_edges(n, &edges));
        }

        #[test]
        fn bitwise_equal_to_dense_on_disconnected_graphs(
            n in 1usize..24,
            edges in proptest::collection::vec((0usize..24, 0usize..24, 0.01f64..100.0), 0..30),
        ) {
            // Few random edges on up to 24 vertices: several components
            // and isolated vertices, in no particular order.
            let edges: Vec<_> = edges
                .into_iter()
                .filter(|&(u, v, _)| u != v && u < n && v < n)
                .collect();
            assert_matches_dense(&laplacian_from_edges(n, &edges));
        }
    }

    /// Every stored entry of `m` as `(row, column, value bits)`.
    fn entries(m: &CsrMatrix) -> Vec<(usize, usize, u64)> {
        (0..m.rows())
            .flat_map(|r| m.row(r).map(move |(c, v)| (r, c, v.to_bits())))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// A Laplacian reweighted through its [`LaplacianPattern`] and
        /// refactored in place equals a fresh assembly and a fresh
        /// factor bit for bit: assembled values, every factor entry and
        /// `solve_multi_into`.
        #[test]
        fn refactor_is_bitwise_equal_to_a_fresh_factor(
            n in 2usize..24,
            connected in proptest::bool::ANY,
            extra in proptest::collection::vec(
                (0usize..24, 0usize..24, 0.01f64..100.0, 0.01f64..100.0),
                0..40,
            ),
        ) {
            let mut support: Vec<(usize, usize, f64, f64)> = if connected {
                (1..n).map(|i| (i - 1, i, 1.0, 1.0 + i as f64 / 3.0)).collect()
            } else {
                Vec::new()
            };
            support.extend(extra.into_iter().filter(|&(u, v, ..)| u != v && u < n && v < n));
            let first: Vec<_> = support.iter().map(|&(u, v, w, _)| (u, v, w)).collect();
            let second: Vec<_> = support.iter().map(|&(u, v, _, w)| (u, v, w)).collect();

            let mut lap = laplacian_from_edges(n, &first);
            let mut chol = GroundedCholesky::new(&lap).unwrap();
            let pattern = LaplacianPattern::new(n, &first);
            prop_assert!(pattern.refill(|e| second[e].2, &mut lap));
            let fresh_lap = laplacian_from_edges(n, &second);
            prop_assert_eq!(entries(&lap), entries(&fresh_lap));
            chol.refactor(&lap).unwrap();
            let fresh = GroundedCholesky::new(&fresh_lap).unwrap();

            prop_assert_eq!(bits(&chol.diag), bits(&fresh.diag));
            prop_assert_eq!(entries(&chol.lower), entries(&fresh.lower));
            prop_assert_eq!(entries(&chol.upper), entries(&fresh.upper));
            for lanes in [1, RHS_LANES + 1] {
                let bs: Vec<f64> = (0..n * lanes)
                    .map(|e| (1.3 * e as f64 + 0.7).sin() * 3.0)
                    .collect();
                let (mut got, mut want) = (vec![0.0; n * lanes], vec![0.0; n * lanes]);
                chol.solve_multi_into(&bs, lanes, &mut got, &mut SolveScratch::default());
                fresh.solve_multi_into(&bs, lanes, &mut want, &mut SolveScratch::default());
                prop_assert_eq!(bits(&got), bits(&want));
            }
        }
    }

    #[test]
    fn failed_refactor_is_the_fresh_factors_typed_error() {
        // Path 0-1-2; the refactor sees a NaN weight on edge {1, 2}.
        let edges = [(0, 1, 1.0), (1, 2, 1.0)];
        let mut lap = laplacian_from_edges(3, &edges);
        let mut chol = GroundedCholesky::new(&lap).unwrap();
        let poisoned = [(0, 1, 1.0), (1, 2, f64::NAN)];
        assert!(LaplacianPattern::new(3, &edges).refill(|e| poisoned[e].2, &mut lap));
        let fresh = GroundedCholesky::new(&laplacian_from_edges(3, &poisoned)).unwrap_err();
        assert_eq!(
            format!("{:?}", chol.refactor(&lap).unwrap_err()),
            format!("{fresh:?}")
        );
        // The stored pattern survives: a later refactor recovers.
        assert!(LaplacianPattern::new(3, &edges).refill(|e| edges[e].2, &mut lap));
        chol.refactor(&lap).unwrap();
        let again = GroundedCholesky::new(&laplacian_from_edges(3, &edges)).unwrap();
        assert_eq!(bits(&chol.diag), bits(&again.diag));
    }

    #[test]
    fn bitwise_equal_to_dense_on_corpus_sparsifier_gadgets() {
        use cc_conform::corpus::undirected_corpus;
        use cc_sparsify::{build_sparsifier, SparsifyParams};
        let mut stars = 0;
        for case in undirected_corpus(4) {
            let g = &case.graph;
            let mut comm = cc_model::Clique::new(g.n());
            let h = build_sparsifier(&mut comm, g, &SparsifyParams::default()).unwrap();
            stars += h.aux_count();
            assert_matches_dense(&laplacian_from_edges(h.total_vertices(), h.edges()));
        }
        assert!(stars > 0, "no corpus sparsifier has a star center");
    }

    #[test]
    fn nan_weight_is_not_positive_definite() {
        // Path 0-1-2 whose edge {1, 2} has a NaN weight; the diagonal
        // stays finite, so only the pivot test can catch it.
        let m = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, f64::NAN),
                (2, 1, f64::NAN),
                (2, 2, 1.0),
            ],
        );
        match GroundedCholesky::new(&m) {
            Err(LinalgError::NotPositiveDefinite { index, pivot }) => {
                assert_eq!(index, 1);
                assert!(pivot.is_nan());
            }
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn star_with_100k_leaves_factors_in_linear_space() {
        // Leaves 0..LEAVES, hub last: vertex 0 is grounded, the hub row of
        // the factor is dense and every other row is empty — the arrow
        // shape of the sparsifier's star gadgets. A dense factor would
        // need three 100k × 100k matrices (3 × 80 GB).
        const LEAVES: usize = 100_000;
        let hub = LEAVES;
        let edges: Vec<_> = (0..LEAVES)
            .map(|v| (v, hub, 1.0 + (v % 7) as f64))
            .collect();
        let lap = laplacian_from_edges(LEAVES + 1, &edges);
        let chol = GroundedCholesky::new(&lap).unwrap();
        assert_eq!(chol.lower.nnz(), LEAVES - 1);
        let mut b: Vec<f64> = (0..=LEAVES).map(|v| (v as f64).sin()).collect();
        vec_ops::remove_mean(&mut b);
        let x = chol.solve(&b);
        let lx = lap.matvec(&x);
        let residual = lx
            .iter()
            .zip(&b)
            .map(|(got, want)| (got - want).abs())
            .fold(0.0f64, f64::max);
        assert!(residual < 1e-9, "residual {residual}");
    }
}
