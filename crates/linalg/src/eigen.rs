//! Dense symmetric eigensolver.
//!
//! Classical two-stage scheme: Householder tridiagonalization (tred2)
//! followed by the implicit-shift QL iteration (tql2). Deterministic,
//! `O(n³)`, accurate to machine precision — exactly what the sparsifier
//! needs to *certify* cluster spectral gaps and approximation factors
//! instead of trusting asymptotic bounds.
//!
//! The decomposition runs in two steps, so a caller that decides on the
//! eigenvalues alone pays only for them: [`symmetric_reduce`] (reduction
//! and eigenvalues), then [`SymmetricReduction::finish`] (transform,
//! rotations, eigenvectors). Both run serially.

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

    /// Largest eigenvalue (`None` for the 0×0 matrix).
    pub fn largest(&self) -> Option<f64> {
        self.eigenvalues.last().copied()
    }
}

/// A symmetric matrix after its Householder reduction, with its
/// eigenvalues: the first step of [`symmetric_eigen`], made by
/// [`symmetric_reduce`].
#[derive(Debug, Clone)]
pub struct SymmetricReduction {
    /// Row-major, row stride `ld`: Householder vectors below the
    /// diagonal, each step's `u/h` above it.
    z: Vec<f64>,
    ld: usize,
    /// Each step's `h` (zero where the step was skipped).
    h: Vec<f64>,
    /// The tridiagonal form.
    d: Vec<f64>,
    e: Vec<f64>,
    eigenvalues: Vec<f64>,
}

impl SymmetricReduction {
    /// Eigenvalues in ascending order, bitwise those of
    /// [`finish`](Self::finish).
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// The second step of [`symmetric_eigen`]: forms the orthogonal
    /// transform, reruns the QL iteration rotating it along, and extracts
    /// the eigenvectors.
    pub fn finish(mut self) -> SymmetricEigen {
        let n = self.d.len();
        accumulate(&mut self.z, self.ld, &self.h);
        // Neither the transform nor the rotations feed back into `d` or
        // `e`: this is the QL arithmetic that converged in
        // `symmetric_reduce`, and it ends on the same eigenvalues.
        tql2(Some((&mut self.z, self.ld)), &mut self.d, &mut self.e)
            .expect("the QL iteration converged on this tridiagonal before");
        let d = &self.d;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
        let mut eigenvectors = DenseMatrix::zeros(n, n);
        let rows = eigenvectors.as_mut_slice().chunks_mut(n.max(1));
        for (dst, src) in rows.zip(self.z.chunks(self.ld)) {
            for (x, &oldc) in dst.iter_mut().zip(&order) {
                *x = src[oldc];
            }
        }
        SymmetricEigen {
            eigenvalues: self.eigenvalues,
            eigenvectors,
        }
    }
}

/// Computes the full eigendecomposition of a symmetric matrix:
/// [`symmetric_reduce`] followed by [`SymmetricReduction::finish`].
///
/// # Errors
///
/// Same conditions as [`symmetric_reduce`].
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
    Ok(symmetric_reduce(a)?.finish())
}

/// The first step of [`symmetric_eigen`]: the Householder reduction of `a`
/// and its eigenvalues, without the `O(n³)` transform and rotations that
/// [`SymmetricReduction::finish`] adds.
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] if `a` is not square;
/// [`LinalgError::EigenNoConvergence`] if the QL iteration stalls or
/// yields NaN (practically unreachable for finite symmetric input).
///
/// The input is *not* checked for symmetry (only its lower triangle is
/// read); callers certifying spectral claims should assert symmetry first.
///
/// ```
/// use cc_linalg::{symmetric_reduce, DenseMatrix};
/// let a = DenseMatrix::from_row_major(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
/// let reduction = symmetric_reduce(&a)?;
/// assert!((reduction.eigenvalues()[1] - 3.0).abs() < 1e-12);
/// let eig = reduction.finish();
/// assert!((eig.eigenvector(1)[0].abs() - 0.5f64.sqrt()).abs() < 1e-12);
/// # Ok::<(), cc_linalg::LinalgError>(())
/// ```
pub fn symmetric_reduce(a: &DenseMatrix) -> Result<SymmetricReduction, LinalgError> {
    let n = square(a, "symmetric_reduce")?;
    // Work on a row-major copy. An odd row stride keeps the column reads
    // of the QL rotations off power-of-two strides, which would map a
    // column's entries onto a few cache sets.
    let ld = n | 1;
    let mut z = vec![0.0; n * ld];
    for (row, src) in z.chunks_mut(ld).zip(a.as_slice().chunks(n.max(1))) {
        row[..n].copy_from_slice(src);
    }
    let (mut d, mut e, mut h) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    tred2(&mut z, ld, &mut d, &mut e, &mut h);
    let mut eigenvalues = d.clone();
    sorted_eigenvalues(&mut eigenvalues, &mut e.clone())?;
    Ok(SymmetricReduction {
        z,
        ld,
        h,
        d,
        e,
        eigenvalues,
    })
}

/// The eigenvalues of a symmetric matrix, ascending, in place: the work of
/// [`symmetric_reduce`] on the caller's buffers. The values are bitwise
/// equal to `symmetric_eigen(a)?.eigenvalues()`.
///
/// `a` is overwritten (it holds the Householder reduction on return);
/// `out` receives the `n` eigenvalues. Both buffers are reused: once
/// `out` has held `3n` values, a call on an `n × n` matrix performs no
/// heap allocation.
///
/// # Errors
///
/// Same conditions as [`symmetric_reduce`].
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
    let n = square(a, "symmetric_eigenvalues")?;
    // `out` holds the diagonal, the off-diagonal and the step sizes until
    // the QL iteration is done.
    out.clear();
    out.resize(3 * n, 0.0);
    let (d, rest) = out.split_at_mut(n);
    let (e, h) = rest.split_at_mut(n);
    tred2(a.as_mut_slice(), n, d, e, h);
    sorted_eigenvalues(d, e)?;
    out.truncate(n);
    Ok(())
}

/// The side of square `a`, or the typed error `op` reports.
fn square(a: &DenseMatrix, op: &'static str) -> Result<usize, LinalgError> {
    if a.rows() == a.cols() {
        Ok(a.rows())
    } else {
        Err(LinalgError::DimensionMismatch {
            op,
            got: a.cols(),
            expected: a.rows(),
        })
    }
}

/// Runs the QL iteration on the tridiagonal `d`, `e` without vectors and
/// leaves the eigenvalues in `d`, ascending.
fn sorted_eigenvalues(d: &mut [f64], e: &mut [f64]) -> Result<(), LinalgError> {
    tql2(None, d, e)?;
    // A NaN eigenvalue means the QL iteration produced garbage (possible
    // only for non-finite input); report it as a typed error instead of
    // sorting it.
    if let Some(index) = d.iter().position(|v| v.is_nan()) {
        return Err(LinalgError::EigenNoConvergence { index });
    }
    // Values equal under `total_cmp` have equal bits, so this yields
    // exactly the sequence of `finish`'s stable index sort.
    d.sort_unstable_by(f64::total_cmp);
    Ok(())
}

/// Householder reduction of the `n × n` symmetric matrix `z` (row-major,
/// row stride `ld ≥ n`, `n = d.len()`; only the lower triangle is read) to
/// tridiagonal form (classical tred2): diagonal `d`, and off-diagonal
/// `e[i]` coupling `i − 1` and `i` (`e[0]` is unused). Step `i` records its
/// `h` in `steps[i]` and stores `u/h` above the diagonal in column `i`, as
/// [`accumulate`] needs; neither feeds back into `d` or `e`.
///
/// Each step's `A·u` product is one pass over the lower triangle
/// ([`lower_times`]); every element still adds its terms in the classical
/// order, so the result is bitwise the textbook loop's.
fn tred2(z: &mut [f64], ld: usize, d: &mut [f64], e: &mut [f64], steps: &mut [f64]) {
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
                let (rows, tail) = z.split_at_mut(i * ld);
                // The Householder vector u.
                let zi: &[f64] = &tail[..i];
                lower_times(rows, ld, zi, &mut e[..i]);
                let mut f_acc = 0.0;
                for j in 0..=l {
                    e[j] /= h;
                    rows[j * ld + i] = zi[j] / h;
                    f_acc += e[j] * zi[j];
                }
                let hh = f_acc / (h + h);
                for j in 0..=l {
                    e[j] -= hh * zi[j];
                }
                // Rank-two update of the lower triangle, row by row.
                for j in 0..=l {
                    let (f, g) = (zi[j], e[j]);
                    for (k, a) in rows[j * ld..=j * ld + j].iter_mut().enumerate() {
                        *a -= f * e[k] + g * zi[k];
                    }
                }
            }
        } else {
            e[i] = z[i * ld + l];
        }
        steps[i] = h;
    }
    for (i, di) in d.iter_mut().enumerate() {
        *di = z[i * ld + i];
    }
}

/// Rows of the lower triangle that one block of [`lower_times`] reads
/// together. Each row's own sum is a chain of dependent adds; four chains
/// in flight overlap their latency. Fixed, so no sum's order depends on
/// the matrix.
const TRED2_ROWS: usize = 4;

/// `e = A·u` for the symmetric `A` whose lower triangle is `rows` (row
/// stride `ld`, `m = u.len()` rows). Row `j` is read once, for both its
/// row part `Σ_{k≤j} a[j][k]·u[k]` and its column terms `a[j][c]·u[j]`
/// into `e[c]`, `c < j`, in blocks of [`TRED2_ROWS`] rows. Rows run in
/// ascending order and each block finishes its diagonal part row by row,
/// so every `e[j]` adds exactly the textbook terms in the textbook order:
/// its row part, `k` ascending from `0.0`, then its column part, row
/// ascending.
fn lower_times(rows: &[f64], ld: usize, u: &[f64], e: &mut [f64]) {
    let m = u.len();
    let mut j0 = 0;
    while j0 + TRED2_ROWS <= m {
        lower_times_block::<TRED2_ROWS>(rows, ld, u, e, j0);
        j0 += TRED2_ROWS;
    }
    for j in j0..m {
        lower_times_block::<1>(rows, ld, u, e, j);
    }
}

/// Rows `j0..j0 + W` of [`lower_times`].
fn lower_times_block<const W: usize>(rows: &[f64], ld: usize, u: &[f64], e: &mut [f64], j0: usize) {
    let r: [&[f64]; W] = std::array::from_fn(|t| &rows[(j0 + t) * ld..][..=j0 + t]);
    let uj: [f64; W] = std::array::from_fn(|t| u[j0 + t]);
    let mut acc = [0.0; W];
    for (k, (ek, &uk)) in e[..j0].iter_mut().zip(&u[..j0]).enumerate() {
        for t in 0..W {
            acc[t] += r[t][k] * uk;
        }
        for t in 0..W {
            *ek += r[t][k] * uj[t];
        }
    }
    // The diagonal block: each row's sum is complete before the rows below
    // add their column terms to it.
    for t in 0..W {
        for k in j0..=j0 + t {
            acc[t] += r[t][k] * u[k];
        }
        e[j0 + t] = acc[t];
        for s in 0..t {
            e[j0 + s] += r[t][j0 + s] * uj[t];
        }
    }
}

/// Forms the orthogonal transform of a [`tred2`] reduction in `z` (the
/// classical accumulation pass), from the stored Householder vectors and
/// the step sizes `h`. Step `i` gathers `g_j = Σ_{k<i} z[i][k]·z[k][j]`
/// row by row — k outermost, every `g_j` still adding its terms in
/// ascending k — then updates the rows; per element the arithmetic is the
/// textbook column walk's.
fn accumulate(z: &mut [f64], ld: usize, h: &[f64]) {
    let n = h.len();
    let mut g = vec![0.0; n];
    for i in 0..n {
        if h[i] != 0.0 {
            let (rows, tail) = z.split_at_mut(i * ld);
            let g = &mut g[..i];
            g.fill(0.0);
            for (k, &zik) in tail[..i].iter().enumerate() {
                for (gj, &zkj) in g.iter_mut().zip(&rows[k * ld..k * ld + i]) {
                    *gj += zik * zkj;
                }
            }
            for row in rows.chunks_mut(ld) {
                let zki = row[i];
                for (zkj, &gj) in row[..i].iter_mut().zip(g.iter()) {
                    *zkj -= gj * zki;
                }
            }
        }
        z[i * ld + i] = 1.0;
        for j in 0..i {
            z[j * ld + i] = 0.0;
            z[i * ld + j] = 0.0;
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
    }

    /// The textbook tred2 (row-major, lower triangle, stores `u/h` above
    /// the diagonal), kept verbatim so [`tred2`] can be differenced
    /// against it bit for bit.
    fn textbook_tred2(z: &mut [f64], ld: usize, d: &mut [f64], e: &mut [f64], steps: &mut [f64]) {
        let n = d.len();
        for i in (1..n).rev() {
            let l = i - 1;
            let mut h = 0.0;
            if l > 0 {
                let mut scale = 0.0;
                for k in 0..=l {
                    scale += z[i * ld + k].abs();
                }
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
                    let mut f = 0.0;
                    for j in 0..=l {
                        z[j * ld + i] = z[i * ld + j] / h;
                        let mut g = 0.0;
                        for k in 0..=j {
                            g += z[j * ld + k] * z[i * ld + k];
                        }
                        for k in j + 1..=l {
                            g += z[k * ld + j] * z[i * ld + k];
                        }
                        e[j] = g / h;
                        f += e[j] * z[i * ld + j];
                    }
                    let hh = f / (h + h);
                    for j in 0..=l {
                        let f = z[i * ld + j];
                        let g = e[j] - hh * f;
                        e[j] = g;
                        for k in 0..=j {
                            z[j * ld + k] -= f * e[k] + g * z[i * ld + k];
                        }
                    }
                }
            } else {
                e[i] = z[i * ld + l];
            }
            steps[i] = h;
        }
        for i in 0..n {
            d[i] = z[i * ld + i];
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn tred2_matches_textbook_bitwise() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(28);
        for n in (0..=70).chain([96, 127, 128, 129, 256]) {
            for kind in 0..4 {
                let mut a = vec![0.0; n * n];
                for r in 0..n {
                    for c in 0..=r {
                        let mut v: f64 = rng.gen_range(-1.0..1.0);
                        match kind {
                            1 => v *= 1e6,
                            // Every fifth row and column zero: some steps
                            // see `scale == 0`.
                            2 if r % 5 == 0 || c % 5 == 0 => v = 0.0,
                            3 if r == c => v = 0.0,
                            _ => {}
                        }
                        a[r * n + c] = v;
                        a[c * n + r] = v;
                    }
                }
                for ld in [n, n | 1] {
                    let mut z = vec![0.0; n * ld];
                    for (row, src) in z.chunks_mut(ld.max(1)).zip(a.chunks(n.max(1))) {
                        row[..n].copy_from_slice(src);
                    }
                    let mut want = (z.clone(), vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                    let (wz, wd, we, wh) = &mut want;
                    textbook_tred2(wz, ld, wd, we, wh);
                    let (mut d, mut e, mut h) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                    tred2(&mut z, ld, &mut d, &mut e, &mut h);
                    let case = format!("n = {n}, kind {kind}, ld = {ld}");
                    assert_eq!(bits(&z), bits(&want.0), "z, {case}");
                    assert_eq!(bits(&d), bits(&want.1), "d, {case}");
                    assert_eq!(bits(&e), bits(&want.2), "e, {case}");
                    assert_eq!(bits(&h), bits(&want.3), "h, {case}");
                }
            }
        }
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
