//! Dense symmetric eigensolver.
//!
//! Classical two-stage scheme: Householder tridiagonalization (tred2)
//! followed by the implicit-shift QL iteration (tql2). Deterministic,
//! `O(n³)`, accurate to machine precision — exactly what the sparsifier
//! needs to *certify* cluster spectral gaps and approximation factors
//! instead of trusting asymptotic bounds.

use crate::{DenseMatrix, LinalgError};

/// Eigendecomposition of a symmetric matrix: `A = V diag(λ) Vᵀ` with
/// eigenvalues in ascending order and orthonormal eigenvector columns.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    /// Column `j` of this matrix is the eigenvector of `eigenvalues[j]`.
    eigenvectors: DenseMatrix,
}

impl SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Matrix whose column `j` is the unit eigenvector for eigenvalue `j`.
    pub fn eigenvectors(&self) -> &DenseMatrix {
        &self.eigenvectors
    }

    /// Eigenvector for eigenvalue index `j` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn eigenvector(&self, j: usize) -> Vec<f64> {
        (0..self.eigenvectors.rows())
            .map(|i| self.eigenvectors.get(i, j))
            .collect()
    }

    /// Smallest eigenvalue strictly greater than `threshold`
    /// (`None` if all eigenvalues are ≤ threshold).
    pub fn smallest_above(&self, threshold: f64) -> Option<f64> {
        self.eigenvalues.iter().copied().find(|&l| l > threshold)
    }

    /// Largest eigenvalue (`None` for the 0×0 matrix).
    pub fn largest(&self) -> Option<f64> {
        self.eigenvalues.last().copied()
    }
}

/// Computes the full eigendecomposition of a symmetric matrix.
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] if `a` is not square;
/// [`LinalgError::EigenNoConvergence`] if the QL iteration stalls
/// (practically unreachable for finite symmetric input).
///
/// The input is *not* checked for symmetry (only its lower triangle is
/// read); callers certifying spectral claims should assert symmetry first.
///
/// ```
/// use cc_linalg::{symmetric_eigen, DenseMatrix};
/// let a = DenseMatrix::from_row_major(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
/// let eig = symmetric_eigen(&a)?;
/// assert!((eig.eigenvalues()[0] - 1.0).abs() < 1e-12);
/// assert!((eig.eigenvalues()[1] - 3.0).abs() < 1e-12);
/// # Ok::<(), cc_linalg::LinalgError>(())
/// ```
pub fn symmetric_eigen(a: &DenseMatrix) -> Result<SymmetricEigen, LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "symmetric_eigen",
            got: a.cols(),
            expected: a.rows(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(SymmetricEigen {
            eigenvalues: Vec::new(),
            eigenvectors: DenseMatrix::zeros(0, 0),
        });
    }
    // Work on a mutable row-major copy; z accumulates the orthogonal
    // transform. An odd row stride keeps the column walks of the
    // accumulation and the QL rotations off power-of-two strides, which
    // would map a column's entries onto a few cache sets.
    let ld = n | 1;
    let mut z = vec![0.0; n * ld];
    for (row, src) in z.chunks_mut(ld).zip(a.as_slice().chunks(n)) {
        row[..n].copy_from_slice(src);
    }
    let mut d = vec![0.0; n]; // diagonal
    let mut e = vec![0.0; n]; // off-diagonal
    tred2(&mut z, ld, &mut d, &mut e, true);
    tql2(Some((&mut z, ld)), &mut d, &mut e)?;

    // A NaN eigenvalue means the QL iteration produced garbage (possible
    // only for non-finite input); report it as a typed error instead of
    // panicking inside the sort below.
    if let Some(index) = d.iter().position(|v| v.is_nan()) {
        return Err(LinalgError::EigenNoConvergence { index });
    }
    // Sort ascending, permuting eigenvector columns along.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut eigenvectors = DenseMatrix::zeros(n, n);
    for (newc, &oldc) in order.iter().enumerate() {
        for r in 0..n {
            eigenvectors.set(r, newc, z[r * ld + oldc]);
        }
    }
    Ok(SymmetricEigen {
        eigenvalues,
        eigenvectors,
    })
}

/// The eigenvalues of a symmetric matrix, ascending, without the
/// eigenvectors: [`symmetric_eigen`]'s reduction with the transform
/// accumulation and the eigenvector rotations left out. The values are
/// bitwise equal to `symmetric_eigen(a)?.eigenvalues()` — neither skipped
/// pass feeds back into the diagonal or off-diagonal the QL iteration
/// reads.
///
/// `a` is overwritten (it holds the Householder reduction on return);
/// `out` receives the `n` eigenvalues. Both buffers are reused: once
/// `out` has held `2n` values, a call on an `n × n` matrix with
/// `n ≤ 64` (one row chunk of the reduction) runs serially and performs
/// no heap allocation. Larger matrices fan the reduction out across
/// cores exactly as [`symmetric_eigen`] does.
///
/// # Errors
///
/// Same conditions as [`symmetric_eigen`].
///
/// ```
/// use cc_linalg::{symmetric_eigenvalues, DenseMatrix};
/// let mut a = DenseMatrix::from_row_major(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
/// let mut values = Vec::new();
/// symmetric_eigenvalues(&mut a, &mut values)?;
/// assert!((values[0] - 1.0).abs() < 1e-12 && (values[1] - 3.0).abs() < 1e-12);
/// # Ok::<(), cc_linalg::LinalgError>(())
/// ```
pub fn symmetric_eigenvalues(a: &mut DenseMatrix, out: &mut Vec<f64>) -> Result<(), LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "symmetric_eigenvalues",
            got: a.cols(),
            expected: a.rows(),
        });
    }
    let n = a.rows();
    out.clear();
    if n == 0 {
        return Ok(());
    }
    // `out` holds the diagonal in its first half and the off-diagonal in
    // its second until the QL iteration is done.
    out.resize(2 * n, 0.0);
    let (d, e) = out.split_at_mut(n);
    tred2(a.as_mut_slice(), n, d, e, false);
    tql2(None, d, e)?;
    out.truncate(n);
    if let Some(index) = out.iter().position(|v| v.is_nan()) {
        return Err(LinalgError::EigenNoConvergence { index });
    }
    // Values equal under `total_cmp` have equal bits, so an unstable
    // (allocation-free) sort yields exactly the stable sort's sequence.
    out.sort_unstable_by(f64::total_cmp);
    Ok(())
}

/// Rows per parallel chunk in the two Householder update loops of
/// [`tred2`]. Fixed so the decomposition is independent of parallelism;
/// matrices smaller than one chunk run serially inside `par_*`.
const TRED2_ROW_CHUNK: usize = 64;

/// Householder reduction of the `n × n` symmetric matrix `z` (row-major,
/// row stride `ld ≥ n`, `n = d.len()`) to tridiagonal form (classical
/// tred2), with diagonal `d` and off-diagonal `e`. With `vectors`, the orthogonal transform is accumulated into `z`;
/// without, `z` is left holding the reduction and only `d` and `e` are
/// meaningful. The two passes never feed back into `d` or `e`.
///
/// The two `O(l²)` inner loops are restructured into a *pure-read* phase
/// fanned out over row chunks followed by a short serial phase, so the
/// floating-point operations per row are exactly those of the classical
/// serial formulation — parallel runs are bitwise identical to serial
/// ones (the column-`i` writes these loops perform are never read back
/// within the same `i` step, which is what makes the split legal).
fn tred2(z: &mut [f64], ld: usize, d: &mut [f64], e: &mut [f64], vectors: bool) {
    let n = d.len();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = (0..=l).map(|k| z[i * ld + k].abs()).sum();
            if scale == 0.0 {
                e[i] = z[i * ld + l];
            } else {
                for k in 0..=l {
                    z[i * ld + k] /= scale;
                    h += z[i * ld + k] * z[i * ld + k];
                }
                let f = z[i * ld + l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[i * ld + l] = f - g;
                // Phase A (parallel, pure reads of columns ≤ l):
                // e[j] = (A·u)_j / h for the Householder vector u = z[i][..=l].
                let (head, tail) = z.split_at_mut(i * ld);
                let zi: &[f64] = &tail[..n];
                let rows: &[f64] = head;
                crate::par::par_chunks_mut(&mut e[..=l], TRED2_ROW_CHUNK, |ci, acc| {
                    let j0 = ci * TRED2_ROW_CHUNK;
                    // Row part: Σ_{k≤j} rows[j][k]·zi[k], a contiguous
                    // row read per j.
                    for (a, j) in acc.iter_mut().zip(j0..) {
                        let mut g_acc = 0.0;
                        for k in 0..=j {
                            g_acc += rows[j * ld + k] * zi[k];
                        }
                        *a = g_acc;
                    }
                    // Column part, transposed: the naive per-j walk down
                    // column j (`rows[k][j]`, stride-n reads) becomes a
                    // k-outer loop over the chunk-wide row segments
                    // `rows[k][j0..j1]`. Per j the contributions still
                    // arrive in ascending k, appended after the row part
                    // — the accumulation order is exactly the naive
                    // loop's, so the result is bitwise identical.
                    let j1 = j0 + acc.len();
                    for k in (j0 + 1)..=l {
                        let rk = &rows[k * ld + j0..k * ld + j1.min(k)];
                        let zk = zi[k];
                        for (a, &rv) in acc[..rk.len()].iter_mut().zip(rk) {
                            *a += rv * zk;
                        }
                    }
                    for a in acc.iter_mut() {
                        *a /= h;
                    }
                });
                // Phase B (serial, O(l)): write column i and reduce f_acc
                // in ascending j order — the exact summation order of the
                // classical loop.
                let mut f_acc = 0.0;
                for j in 0..=l {
                    if vectors {
                        head[j * ld + i] = zi[j] / h;
                    }
                    f_acc += e[j] * zi[j];
                }
                let hh = f_acc / (h + h);
                // Phase A′ (serial, O(l)): finish the e update first so the
                // row updates below read a fully updated e.
                for j in 0..=l {
                    e[j] -= hh * zi[j];
                }
                // Phase B′ (parallel, disjoint row writes): rank-two update
                // of the lower triangle, row by row in classical k order.
                let e_ro: &[f64] = e;
                crate::par::par_chunks_mut(
                    &mut head[..(l + 1) * ld],
                    TRED2_ROW_CHUNK * ld,
                    |chunk_idx, rows| {
                        let base = chunk_idx * TRED2_ROW_CHUNK;
                        for (local, row) in rows.chunks_mut(ld).enumerate() {
                            let j = base + local;
                            let f = zi[j];
                            let g = e_ro[j];
                            for k in 0..=j {
                                row[k] -= f * e_ro[k] + g * zi[k];
                            }
                        }
                    },
                );
            }
        } else {
            e[i] = z[i * ld + l];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        if vectors && d[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += z[i * ld + k] * z[k * ld + j];
                }
                for k in 0..i {
                    z[k * ld + j] -= g * z[k * ld + i];
                }
            }
        }
        d[i] = z[i * ld + i];
        if vectors {
            z[i * ld + i] = 1.0;
            for j in 0..i {
                z[j * ld + i] = 0.0;
                z[i * ld + j] = 0.0;
            }
        }
    }
}

/// QL iteration with implicit shifts on a symmetric tridiagonal matrix
/// (classical tql2), rotating the row-major eigenvector accumulation `z`
/// (row stride `ld`) along when one is given. The rotations never feed
/// back into `d` or `e`.
fn tql2(
    mut z: Option<(&mut [f64], usize)>,
    d: &mut [f64],
    e: &mut [f64],
) -> Result<(), LinalgError> {
    let n = d.len();
    if n <= 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Find a small off-diagonal element to split the problem.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 64 {
                return Err(LinalgError::EigenNoConvergence { index: l });
            }
            // Form the implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r.abs() } else { -r.abs() });
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            let mut i = m;
            let mut underflow_break = false;
            while i > l {
                i -= 1;
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow_break = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                if let Some((z, ld)) = z.as_mut() {
                    for zk in z.chunks_mut(*ld) {
                        let f = zk[i + 1];
                        zk[i + 1] = s * zk[i] + c * f;
                        zk[i] = c * zk[i] - s * f;
                    }
                }
            }
            if underflow_break {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::laplacian_from_edges;
    use proptest::prelude::*;

    fn reconstruct(eig: &SymmetricEigen) -> DenseMatrix {
        let n = eig.eigenvalues().len();
        let mut out = DenseMatrix::zeros(n, n);
        for j in 0..n {
            let v = eig.eigenvector(j);
            let lam = eig.eigenvalues()[j];
            for r in 0..n {
                for c in 0..n {
                    out.add_to(r, c, lam * v[r] * v[c]);
                }
            }
        }
        out
    }

    #[test]
    fn diagonal_matrix() {
        let a =
            DenseMatrix::from_row_major(3, 3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let eig = symmetric_eigen(&a).unwrap();
        let vals = eig.eigenvalues();
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 2.0).abs() < 1e-12);
        assert!((vals[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn path_laplacian_spectrum_known() {
        // Path P3 Laplacian eigenvalues: 0, 1, 3.
        let lap = laplacian_from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).to_dense();
        let eig = symmetric_eigen(&lap).unwrap();
        let vals = eig.eigenvalues();
        assert!(vals[0].abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
        assert!((vals[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_laplacian_spectrum_known() {
        // Cycle C_n Laplacian eigenvalues: 2 - 2cos(2πk/n).
        let n = 8;
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        let lap = laplacian_from_edges(n, &edges).to_dense();
        let eig = symmetric_eigen(&lap).unwrap();
        let mut expected: Vec<f64> = (0..n)
            .map(|k| 2.0 - 2.0 * (2.0 * std::f64::consts::PI * k as f64 / n as f64).cos())
            .collect();
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (got, want) in eig.eigenvalues().iter().zip(&expected) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal_and_reconstruct() {
        let lap = laplacian_from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 0.5),
                (3, 4, 1.5),
                (4, 5, 1.0),
                (0, 5, 3.0),
            ],
        )
        .to_dense();
        let eig = symmetric_eigen(&lap).unwrap();
        // Orthonormality of V.
        let v = eig.eigenvectors();
        let vtv = v.transpose().matmul(v).unwrap();
        for r in 0..6 {
            for c in 0..6 {
                let want = if r == c { 1.0 } else { 0.0 };
                assert!((vtv.get(r, c) - want).abs() < 1e-10);
            }
        }
        // A == V diag(λ) Vᵀ.
        let rec = reconstruct(&eig);
        for r in 0..6 {
            for c in 0..6 {
                assert!((rec.get(r, c) - lap.get(r, c)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn zero_and_one_dimensional_inputs() {
        let eig = symmetric_eigen(&DenseMatrix::zeros(0, 0)).unwrap();
        assert!(eig.eigenvalues().is_empty());
        let a = DenseMatrix::from_row_major(1, 1, vec![7.0]);
        let eig = symmetric_eigen(&a).unwrap();
        assert_eq!(eig.eigenvalues(), &[7.0]);
        assert!((eig.eigenvector(0)[0].abs() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn rejects_non_square() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            symmetric_eigen(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn helper_accessors() {
        let a = DenseMatrix::from_row_major(2, 2, vec![0.0, 0.0, 0.0, 5.0]);
        let eig = symmetric_eigen(&a).unwrap();
        assert_eq!(eig.largest(), Some(5.0));
        assert_eq!(eig.smallest_above(1e-9), Some(5.0));
        assert_eq!(eig.smallest_above(10.0), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn random_symmetric_reconstruction(seed in proptest::collection::vec(-3f64..3.0, 25)) {
            // Symmetrize a random 5x5.
            let mut a = DenseMatrix::zeros(5, 5);
            for r in 0..5 {
                for c in 0..5 {
                    let v = seed[r * 5 + c];
                    a.add_to(r, c, v / 2.0);
                    a.add_to(c, r, v / 2.0);
                }
            }
            let eig = symmetric_eigen(&a).unwrap();
            let rec = reconstruct(&eig);
            for r in 0..5 {
                for c in 0..5 {
                    prop_assert!((rec.get(r, c) - a.get(r, c)).abs() < 1e-8);
                }
            }
            // Trace == sum of eigenvalues.
            let trace: f64 = (0..5).map(|i| a.get(i, i)).sum();
            let sum: f64 = eig.eigenvalues().iter().sum();
            prop_assert!((trace - sum).abs() < 1e-8);
        }
    }
}
