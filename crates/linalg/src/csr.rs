use crate::DenseMatrix;

/// Rows per parallel chunk in [`CsrMatrix::matvec_multi_into`]. Fixed (never
/// derived from the thread count) so the work decomposition — and hence
/// the floating-point result — is independent of parallelism.
pub const MATVEC_ROW_CHUNK: usize = 512;

/// Minimum entry-lane products (`nnz·k`) before
/// [`CsrMatrix::matvec_multi_into`] fans out.
pub const PAR_MIN_NNZ: usize = 16_384;

/// The widest register tile of the lane-tiled kernels
/// ([`CsrMatrix::matvec_multi_into`],
/// [`crate::GroundedCholesky::solve_multi_into`]). Every lane performs
/// the single-column operations in the single-column order, so results
/// are bitwise identical at every batch width.
pub const RHS_LANES: usize = 4;

/// A kernel over lanes `j..j + L` of a width-`k` interleaved batch. Its
/// inner loops run over the compile-time `L` (`DESIGN.md` §10).
pub(crate) trait LaneTile {
    fn tile<const L: usize>(&mut self, k: usize, j: usize);
}

/// Runs `kernel` over a width-`k` batch: `k ≤ RHS_LANES` is one tile whose
/// stride is a literal too; a wider batch runs tiles of [`RHS_LANES`]
/// lanes with the stride `k`, then one tile for the remainder.
#[inline(always)]
pub(crate) fn for_each_tile(k: usize, kernel: &mut impl LaneTile) {
    const { assert!(RHS_LANES == 4, "the tiles below spell out widths 1..=4") };
    match k {
        1 => kernel.tile::<1>(1, 0),
        2 => kernel.tile::<2>(2, 0),
        3 => kernel.tile::<3>(3, 0),
        4 => kernel.tile::<4>(4, 0),
        _ => {
            let full = k - k % RHS_LANES;
            for j in (0..full).step_by(RHS_LANES) {
                kernel.tile::<RHS_LANES>(k, j);
            }
            match k - full {
                1 => kernel.tile::<1>(k, full),
                2 => kernel.tile::<2>(k, full),
                3 => kernel.tile::<3>(k, full),
                _ => {}
            }
        }
    }
}

/// [`CsrMatrix::matvec_multi_into`] of `(matrix, xs, first_row, out)`:
/// the rows `first_row..` that `out` holds.
struct MatvecTile<'a>(&'a CsrMatrix, &'a [f64], usize, &'a mut [f64]);

impl LaneTile for MatvecTile<'_> {
    #[inline(always)]
    fn tile<const L: usize>(&mut self, k: usize, j: usize) {
        let MatvecTile(m, xs, first_row, out) = self;
        let ptr = &m.indptr[*first_row..];
        for (orow, span) in out.chunks_exact_mut(k).zip(ptr.windows(2)) {
            let (cols, vals) = (&m.indices[span[0]..span[1]], &m.values[span[0]..span[1]]);
            let mut acc = [0.0f64; L];
            for (&c, &v) in cols.iter().zip(vals) {
                let x = &xs[c * k + j..c * k + j + L];
                for l in 0..L {
                    acc[l] += v * x[l];
                }
            }
            orow[j..j + L].copy_from_slice(&acc);
        }
    }
}

/// A sparse matrix in compressed sparse row format.
///
/// Construction goes through [`CsrMatrix::from_triplets`], which sums
/// duplicate entries (convenient for assembling Laplacians from multigraph
/// edge lists) and sorts column indices within each row, so the layout —
/// and therefore every floating-point summation order — is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a `rows × cols` matrix from `(row, col, value)` triplets.
    /// Duplicate coordinates are summed; exact zeros resulting from
    /// cancellation are kept (harmless) but input triplets with value `0.0`
    /// are dropped.
    ///
    /// # Panics
    ///
    /// Panics if a triplet is out of range.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        // Two-pass counting-sort build: one contiguous staging buffer
        // instead of a Vec per row. Pass 1 counts surviving entries per
        // row; pass 2 scatters them, preserving input order within each
        // row so the stable per-row column sort — and therefore the
        // duplicate summation order — matches a per-row Vec build exactly.
        let mut starts = vec![0usize; rows + 1];
        for &(r, c, v) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of range");
            if v != 0.0 {
                starts[r + 1] += 1;
            }
        }
        for r in 0..rows {
            starts[r + 1] += starts[r];
        }
        let total = starts[rows];
        let mut staged: Vec<(usize, f64)> = vec![(0, 0.0); total];
        let mut cursor = starts.clone();
        for &(r, c, v) in triplets {
            if v != 0.0 {
                staged[cursor[r]] = (c, v);
                cursor[r] += 1;
            }
        }
        // Merge duplicates in place inside the staging buffer first, so
        // the final index/value arrays can be reserved at their *exact*
        // merged size — on duplicate-heavy inputs (Laplacian assembly
        // emits two diagonal triplets per edge) pushing into
        // `with_capacity(total)` arrays would permanently retain up to 2×
        // slack capacity in the returned matrix.
        let mut merged_len = cursor; // reuse the cursor allocation
        let mut merged_total = 0usize;
        for r in 0..rows {
            let row = &mut staged[starts[r]..starts[r + 1]];
            row.sort_by_key(|&(c, _)| c);
            let mut w = 0usize;
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = 0.0;
                while i < row.len() && row[i].0 == c {
                    v += row[i].1;
                    i += 1;
                }
                row[w] = (c, v);
                w += 1;
            }
            merged_len[r] = w;
            merged_total += w;
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(merged_total);
        let mut values = Vec::with_capacity(merged_total);
        indptr.push(0);
        for r in 0..rows {
            for &(c, v) in &staged[starts[r]..starts[r] + merged_len[r]] {
                indices.push(c);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Wraps CSR arrays that are already in canonical form: row `r` is
    /// `indices[indptr[r]..indptr[r + 1]]`, strictly ascending and below
    /// `cols`, with `values` alongside.
    pub(crate) fn from_sorted_rows(
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.last(), Some(&indices.len()));
        debug_assert_eq!(indices.len(), values.len());
        Self {
            rows: indptr.len() - 1,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(column, value)` entries of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.indices[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// Entry `(r, c)` (zero if not stored).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        match self.indices[lo..hi].binary_search(&c) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Matrix-vector product `A·x`.
    ///
    /// Allocates the output; iterative solvers should prefer
    /// [`CsrMatrix::matvec_into`] with a reused buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix-vector product `out ← A·x` into a caller-provided buffer:
    /// the width-1 [`CsrMatrix::matvec_multi_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        self.matvec_multi_into(x, 1, out);
    }

    /// Batched matrix-vector product over `k` interleaved right-hand
    /// sides: `xs` holds `cols` rows of `k` lanes (`xs[c*k + j]` is entry
    /// `c` of vector `j`), `out` likewise.
    ///
    /// One lane-tiled kernel serves every width: a batch of at most
    /// [`RHS_LANES`] columns is one tile, a wider one runs tiles of
    /// `RHS_LANES` lanes and one tile for the remainder, and a tile reads
    /// each stored entry once for its lanes. Each `(row, rhs)` pair
    /// accumulates in index order from `0.0`, so column `j` is bitwise
    /// identical to [`CsrMatrix::matvec_into`] on column `j`. Rows fan out
    /// in fixed chunks of [`MATVEC_ROW_CHUNK`] once `nnz·k ≥`
    /// [`PAR_MIN_NNZ`]; the chunking never depends on the thread count, so
    /// neither does the result.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `xs.len() != cols*k`, or `out.len() != rows*k`.
    pub fn matvec_multi_into(&self, xs: &[f64], k: usize, out: &mut [f64]) {
        assert!(k > 0, "batch width must be positive");
        assert_eq!(xs.len(), self.cols * k, "matvec dimension mismatch");
        assert_eq!(out.len(), self.rows * k, "matvec output length mismatch");
        let rows_into = |first_row: usize, out: &mut [f64]| {
            for_each_tile(k, &mut MatvecTile(self, xs, first_row, out));
        };
        if self.nnz() * k < PAR_MIN_NNZ {
            return rows_into(0, out);
        }
        crate::par::par_chunks_mut(out, MATVEC_ROW_CHUNK * k, |chunk_idx, sl| {
            rows_into(chunk_idx * MATVEC_ROW_CHUNK, sl);
        });
    }

    /// Quadratic form `xᵀ A x` (requires a square matrix).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `x` has the wrong length.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        assert_eq!(self.rows, self.cols, "quadratic form needs a square matrix");
        // Σ_r x_r · (A·x)_r without materializing A·x: each row's dot
        // product accumulates in index order and the outer sum runs in
        // row order — the exact operation sequence of
        // `dot(x, &self.matvec(x))`, minus the allocation.
        let mut total = 0.0;
        for (r, &xr) in x.iter().enumerate() {
            let mut acc = 0.0;
            for (c, v) in self.row(r) {
                acc += v * x[c];
            }
            total += xr * acc;
        }
        total
    }

    /// Dense copy (for certification / testing on small instances).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                out.add_to(r, c, v);
            }
        }
        out
    }

    /// Transpose (stored exact zeros are dropped, as
    /// [`CsrMatrix::from_triplets`] drops zero triplets).
    pub fn transpose(&self) -> CsrMatrix {
        let mut out = CsrMatrix::from_sorted_rows(0, vec![0], Vec::new(), Vec::new());
        self.transpose_into(&mut out);
        out
    }

    /// [`CsrMatrix::transpose`] into `out`'s storage: a counting sort by
    /// column that keeps row order within every output row, allocation-free
    /// once `out` has held as many entries.
    pub(crate) fn transpose_into(&self, out: &mut CsrMatrix) {
        out.rows = self.cols;
        out.cols = self.rows;
        let ptr = &mut out.indptr;
        ptr.clear();
        ptr.resize(self.cols + 1, 0);
        for (&c, &v) in self.indices.iter().zip(&self.values) {
            if v != 0.0 {
                ptr[c + 1] += 1;
            }
        }
        for c in 0..self.cols {
            ptr[c + 1] += ptr[c];
        }
        let total = ptr[self.cols];
        out.indices.clear();
        out.indices.resize(total, 0);
        out.values.clear();
        out.values.resize(total, 0.0);
        // `ptr[c]` walks row c's slots; afterwards it holds row c's end,
        // i.e. row c + 1's start, and one shift restores the row starts.
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                if v != 0.0 {
                    out.indices[ptr[c]] = r;
                    out.values[ptr[c]] = v;
                    ptr[c] += 1;
                }
            }
        }
        for c in (1..=self.cols).rev() {
            ptr[c] = ptr[c - 1];
        }
        ptr[0] = 0;
    }

    /// Row pointers, column indices and (mutable) values — for kernels
    /// that rewrite the values of a fixed pattern in place.
    pub(crate) fn parts_mut(&mut self) -> (&[usize], &[usize], &mut [f64]) {
        (&self.indptr, &self.indices, &mut self.values)
    }

    /// The stored values, mutably (the pattern stays fixed).
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (2, 2, 1.0),
            ],
        )
    }

    /// The single-column row loop the lane-tiled kernel replaced, kept
    /// verbatim as its independent reference.
    fn reference_matvec_into(m: &CsrMatrix, x: &[f64], out: &mut [f64]) {
        let row_dot = |r: usize| {
            let mut acc = 0.0;
            for (c, v) in m.row(r) {
                acc += v * x[c];
            }
            acc
        };
        for (r, yi) in out.iter_mut().enumerate() {
            *yi = row_dot(r);
        }
    }

    /// The lane-tiled kernel equals the reference row loop column by
    /// column, bit for bit, at every width, on every input shape and on
    /// vectors holding `−0.0`, subnormals and `±1e300`.
    #[test]
    fn tiled_matvec_matches_the_scalar_reference_at_every_width() {
        use crate::twin_inputs::{laplacians, rhs, WIDTHS};
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let column = |xs: &[f64], k: usize, j: usize| -> Vec<f64> {
            xs.iter().skip(j).step_by(k).copied().collect()
        };
        for (name, lap) in laplacians() {
            let n = lap.rows();
            for k in WIDTHS {
                for shift in 0..4 {
                    let xs = rhs(n, k, shift);
                    let mut out = vec![f64::NAN; n * k];
                    lap.matvec_multi_into(&xs, k, &mut out);
                    for j in 0..k {
                        let mut want = vec![0.0; n];
                        reference_matvec_into(&lap, &column(&xs, k, j), &mut want);
                        assert_eq!(
                            bits(&column(&out, k, j)),
                            bits(&want),
                            "{name}, k = {k}, shift {shift}, column {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn duplicates_are_summed_and_zeros_dropped() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 0.0)]);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(m.matvec(&x), m.to_dense().matvec(&x));
    }

    #[test]
    fn get_returns_zero_for_missing() {
        assert_eq!(sample().get(0, 2), 0.0);
        assert_eq!(sample().get(0, 1), -1.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 5.0), (1, 0, -1.0)]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 0), 5.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn matvec_into_parallel_is_bitwise_equal_to_serial(
            weights in proptest::collection::vec(0.1f64..10.0, 32),
            xs in proptest::collection::vec(-100f64..100.0, 32),
        ) {
            // A matrix big enough to clear PAR_MIN_NNZ and span many
            // row chunks; entries and x cycle through the sampled values.
            let n = 9000;
            let triplets: Vec<(usize, usize, f64)> = (0..n - 1)
                .flat_map(|i| {
                    let w = weights[i % weights.len()];
                    [(i, i + 1, -w), (i + 1, i, -w), (i, i, w), (i + 1, i + 1, w)]
                })
                .collect();
            let m = CsrMatrix::from_triplets(n, n, &triplets);
            prop_assert!(m.nnz() >= PAR_MIN_NNZ);
            let x: Vec<f64> = (0..n).map(|i| xs[i % xs.len()]).collect();
            let serial = crate::par::with_threads(1, || {
                let mut y = vec![0.0; n];
                m.matvec_into(&x, &mut y);
                y
            });
            for threads in [2, 8] {
                let par = crate::par::with_threads(threads, || {
                    let mut y = vec![0.0; n];
                    m.matvec_into(&x, &mut y);
                    y
                });
                for (a, b) in serial.iter().zip(&par) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }

        #[test]
        fn from_triplets_matches_per_row_staging_build(
            triplets in proptest::collection::vec((0usize..6, 0usize..6, -10f64..10.0), 0..40)
        ) {
            // Reference: the Vec-per-row staging builder this replaced.
            // Same stable per-row sort, same duplicate summation order —
            // the outputs must agree exactly, bits included.
            let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 6];
            for &(r, c, v) in &triplets {
                if v != 0.0 {
                    per_row[r].push((c, v));
                }
            }
            let mut indices = Vec::new();
            let mut values = Vec::new();
            let mut indptr = vec![0usize];
            for row in per_row.iter_mut() {
                row.sort_by_key(|&(c, _)| c);
                let mut i = 0;
                while i < row.len() {
                    let c = row[i].0;
                    let mut v = 0.0;
                    while i < row.len() && row[i].0 == c {
                        v += row[i].1;
                        i += 1;
                    }
                    indices.push(c);
                    values.push(v);
                }
                indptr.push(indices.len());
            }
            let m = CsrMatrix::from_triplets(6, 6, &triplets);
            prop_assert_eq!(m.nnz(), values.len());
            let mut k = 0;
            for r in 0..6 {
                for (c, v) in m.row(r) {
                    prop_assert_eq!(c, indices[k]);
                    prop_assert_eq!(v.to_bits(), values[k].to_bits());
                    k += 1;
                }
                prop_assert_eq!(m.row(r).count(), indptr[r + 1] - indptr[r]);
            }
        }

        #[test]
        fn csr_matvec_agrees_with_dense(
            triplets in proptest::collection::vec((0usize..6, 0usize..6, -10f64..10.0), 0..40),
            x in proptest::collection::vec(-5f64..5.0, 6)
        ) {
            let m = CsrMatrix::from_triplets(6, 6, &triplets);
            let lhs = m.matvec(&x);
            let rhs = m.to_dense().matvec(&x);
            for (a, b) in lhs.iter().zip(&rhs) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
