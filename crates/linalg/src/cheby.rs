//! Preconditioned Chebyshev iteration — Theorem 2.2 of the paper.
//!
//! Given symmetric PSD `A`, `B` with `A ⪯ B ⪯ κA`, the iteration applies a
//! linear operator `Z ≈ A†` to a vector `b` using `O(√κ log(1/ε))`
//! iterations, each consisting of one multiplication by `A`, one solve with
//! `B`, and a constant number of vector operations — exactly the iteration
//! structure the congested clique implementation charges rounds for.

use crate::vec_ops::{axpy, sub, xpay};

/// Reusable buffers for [`chebyshev_solve_fixed_into`]: the residual,
/// search direction, preconditioned residual, and `A·p` product. Create
/// once, hand to every solve — the iteration then performs zero heap
/// allocations in steady state.
#[derive(Debug, Clone, Default)]
pub struct ChebyshevWorkspace {
    r: Vec<f64>,
    p: Vec<f64>,
    z: Vec<f64>,
    ap: Vec<f64>,
}

impl ChebyshevWorkspace {
    /// Workspace sized for length-`n` vectors.
    pub fn new(n: usize) -> Self {
        Self {
            r: vec![0.0; n],
            p: vec![0.0; n],
            z: vec![0.0; n],
            ap: vec![0.0; n],
        }
    }

    fn resize(&mut self, n: usize) {
        self.r.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.z.resize(n, 0.0);
        self.ap.resize(n, 0.0);
    }
}

/// The iteration count `k(κ, ε)` guaranteeing
/// `‖x_k − A†b‖_A ≤ ε ‖A†b‖_A`: the smallest `k` with
/// `2·((√κ−1)/(√κ+1))^k ≤ ε`. This is the `O(√κ log(1/ε))` of
/// Theorem 2.2 with explicit constants.
///
/// # Panics
///
/// Panics if `kappa < 1` or `eps ≤ 0`.
pub fn chebyshev_iteration_bound(kappa: f64, eps: f64) -> usize {
    assert!(kappa >= 1.0, "condition bound must be >= 1, got {kappa}");
    assert!(eps > 0.0, "tolerance must be positive, got {eps}");
    if eps >= 2.0 {
        return 0;
    }
    let s = kappa.sqrt();
    let rho = (s - 1.0) / (s + 1.0);
    if rho == 0.0 {
        return 1; // exact preconditioner: a single corrected step suffices
    }
    let k = ((2.0 / eps).ln() / (1.0 / rho).ln()).ceil();
    (k as usize).max(1)
}

/// Runs preconditioned Chebyshev iteration for a fixed number of steps.
///
/// * `apply_a(v, out)` — writes `A·v` into `out` (one congested clique
///   round in the distributed setting);
/// * `solve_b(v, out)` — writes `B†·v` into `out` (free internally once
///   the sparsifier is globally known);
/// * `kappa` — a certified bound with `A ⪯ B ⪯ κA`.
///
/// The iterate lands in `x`, and every intermediate vector lives in `ws`,
/// so steady-state iteration performs **zero heap allocations**
/// (verified by `tests/alloc_free.rs`). After
/// [`chebyshev_iteration_bound`]`(kappa, eps)` steps the operator
/// realized on `b` is symmetric and spectrally within `(1±ε)A†`
/// (property 1 of Theorem 2.2), which Corollary 2.3 turns into the
/// `‖x − A†b‖_A ≤ ε‖A†b‖_A` guarantee; another count is useful for
/// ablations of the bound (E3).
///
/// A batch of `k` right-hand sides is this same call over interleaved
/// `n·k` buffers (`b[v*k + j]` is entry `v` of column `j`) with batched
/// operators — typically [`crate::CsrMatrix::matvec_multi_into`] and
/// [`crate::GroundedCholesky::solve_multi_into`], which stream the matrix
/// and the factor through the cache once per iteration for the whole
/// batch — and a workspace of length `n·k`. The coefficients `α, β`
/// depend only on `kappa` and the iteration index, and every vector
/// update is elementwise, so column `j` of the batch performs exactly the
/// floating-point operations of a single solve of column `j`: given
/// operators with the same per-column property, the results are bitwise
/// identical per column, at any thread count.
///
/// Returns the iteration count (`iterations`).
///
/// # Panics
///
/// Panics if `kappa < 1` or `x.len() != b.len()`.
pub fn chebyshev_solve_fixed_into(
    mut apply_a: impl FnMut(&[f64], &mut [f64]),
    mut solve_b: impl FnMut(&[f64], &mut [f64]),
    b: &[f64],
    kappa: f64,
    iterations: usize,
    x: &mut [f64],
    ws: &mut ChebyshevWorkspace,
) -> usize {
    assert!(kappa >= 1.0, "condition bound must be >= 1, got {kappa}");
    let n = b.len();
    assert_eq!(x.len(), n, "x length mismatch");
    ws.resize(n);
    // Spectrum of B†A on range(A) lies in [1/κ, 1].
    let lambda_min = 1.0 / kappa;
    let lambda_max = 1.0;
    let d = (lambda_max + lambda_min) / 2.0;
    let c = (lambda_max - lambda_min) / 2.0;

    x.fill(0.0);
    ws.r.copy_from_slice(b); // r = b − A x with x = 0
    let mut alpha = 0.0;
    for k in 0..iterations {
        solve_b(&ws.r, &mut ws.z);
        if k == 0 {
            ws.p.copy_from_slice(&ws.z);
            alpha = 1.0 / d;
        } else {
            let beta = if k == 1 {
                0.5 * (c * alpha) * (c * alpha)
            } else {
                (c * alpha / 2.0) * (c * alpha / 2.0)
            };
            alpha = 1.0 / (d - beta / alpha);
            xpay(&mut ws.p, beta, &ws.z);
        }
        apply_a(&ws.p, &mut ws.ap);
        axpy(x, alpha, &ws.p);
        axpy(&mut ws.r, -alpha, &ws.ap);
    }
    iterations
}

/// Convenience: the error functional of Theorem 1.1,
/// `‖x − x*‖_A / ‖x*‖_A` given a quadratic form evaluator for `A`.
///
/// Returns 0 when `x* = 0`.
pub fn relative_a_error(quadratic_form: impl Fn(&[f64]) -> f64, x: &[f64], x_star: &[f64]) -> f64 {
    let denom = quadratic_form(x_star).max(0.0).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    let diff = sub(x, x_star);
    quadratic_form(&diff).max(0.0).sqrt() / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::{laplacian_from_edges, laplacian_quadratic_form};
    use crate::vec_ops::remove_mean;
    use crate::{GroundedCholesky, SolveScratch};

    /// The iterate after `iterations` steps, on fresh buffers.
    fn solve(
        apply_a: impl FnMut(&[f64], &mut [f64]),
        solve_b: impl FnMut(&[f64], &mut [f64]),
        b: &[f64],
        kappa: f64,
        iterations: usize,
    ) -> Vec<f64> {
        let (mut x, mut ws) = (vec![0.0; b.len()], ChebyshevWorkspace::new(b.len()));
        chebyshev_solve_fixed_into(apply_a, solve_b, b, kappa, iterations, &mut x, &mut ws);
        x
    }

    #[test]
    fn bound_shrinks_with_looser_eps_and_grows_with_kappa() {
        assert!(chebyshev_iteration_bound(4.0, 1e-8) > chebyshev_iteration_bound(4.0, 1e-2));
        assert!(chebyshev_iteration_bound(100.0, 1e-4) > chebyshev_iteration_bound(4.0, 1e-4));
        assert_eq!(chebyshev_iteration_bound(1.0, 1e-4), 1);
        assert_eq!(chebyshev_iteration_bound(7.0, 2.5), 0);
    }

    #[test]
    fn bound_matches_sqrt_kappa_log_eps_shape() {
        // k(κ,ε) / (√κ · ln(1/ε)) should be bounded by a small constant.
        for &kappa in &[2.0, 8.0, 64.0, 512.0] {
            for &eps in &[1e-2, 1e-5, 1e-9] {
                let k = chebyshev_iteration_bound(kappa, eps) as f64;
                let scale = kappa.sqrt() * (1.0 / eps).ln();
                assert!(k <= 1.0 + scale, "k={k} scale={scale}");
            }
        }
    }

    #[test]
    fn exact_preconditioner_converges_in_one_step() {
        let edges = vec![(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5)];
        let lap = laplacian_from_edges(3, &edges);
        let chol = GroundedCholesky::new(&lap).unwrap();
        let mut b = vec![1.0, -3.0, 2.0];
        remove_mean(&mut b);
        let iterations = chebyshev_iteration_bound(1.0, 1e-6);
        assert_eq!(iterations, 1);
        let mut scratch = SolveScratch::default();
        let x = solve(
            |p, ap| lap.matvec_into(p, ap),
            |r, z| chol.solve_into(r, z, &mut scratch),
            &b,
            1.0,
            iterations,
        );
        let x_star = chol.solve(&b);
        let err = relative_a_error(|v| laplacian_quadratic_form(&edges, v), &x, &x_star);
        assert!(err < 1e-10, "err={err}");
    }

    #[test]
    fn scaled_preconditioner_reaches_requested_accuracy() {
        // B = 3·L is a κ=3 preconditioner for L (L ⪯ B? No: B = 3L means
        // L ⪯ 3L = B ⪯ 3·L = 3A, so κ = 3 works with B-solve = (1/3)L†).
        let edges = vec![
            (0, 1, 1.0),
            (1, 2, 2.0),
            (2, 3, 1.0),
            (3, 0, 4.0),
            (1, 3, 0.3),
        ];
        let lap = laplacian_from_edges(4, &edges);
        let chol = GroundedCholesky::new(&lap).unwrap();
        let mut b = vec![5.0, -1.0, -2.5, 0.0];
        remove_mean(&mut b);
        let x_star = chol.solve(&b);
        for &eps in &[1e-2, 1e-6, 1e-10] {
            let mut scratch = SolveScratch::default();
            let x = solve(
                |p, ap| lap.matvec_into(p, ap),
                |r, z| {
                    chol.solve_into(r, z, &mut scratch);
                    for zi in z.iter_mut() {
                        *zi /= 3.0;
                    }
                },
                &b,
                3.0,
                chebyshev_iteration_bound(3.0, eps),
            );
            let err = relative_a_error(|v| laplacian_quadratic_form(&edges, v), &x, &x_star);
            assert!(err <= eps * 1.01, "eps={eps} err={err}");
        }
    }

    #[test]
    fn spectral_sandwich_preconditioner() {
        // Precondition the path Laplacian by the cycle Laplacian: compute a
        // valid κ from dense spectra, then check Chebyshev meets its bound.
        use crate::symmetric_eigen;
        let n = 12;
        let path: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        let mut cycle = path.clone();
        cycle.push((n - 1, 0, 1.0));
        let la = laplacian_from_edges(n, &path);
        let lb = laplacian_from_edges(n, &cycle);
        // κ = max eigenvalue of (A† B)… easier: generalized bounds via dense eig
        // of pencil using pseudoinverse action: find smallest μ with A ⪯ μ B … we
        // simply take κ = λmax(B†A)⁻¹-ish. For the test use a loose certified κ:
        // path ⪯ cycle (cycle has extra edge) and cycle ⪯ κ·path with κ from eig.
        let ea = symmetric_eigen(&la.to_dense()).unwrap();
        let eb = symmetric_eigen(&lb.to_dense()).unwrap();
        // crude but valid sandwich: A ⪯ B always (B = A + edge);
        // B ⪯ κ A with κ = λmax(B)/λ₂(A).
        let lambda2 = ea.eigenvalues().iter().copied().find(|&l| l > 1e-9);
        let kappa = eb.largest().unwrap() / lambda2.unwrap();
        let cholb = GroundedCholesky::new(&lb).unwrap();
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -1.0;
        let x_star = GroundedCholesky::new(&la).unwrap().solve(&b);
        let eps = 1e-7;
        let iterations = chebyshev_iteration_bound(kappa, eps);
        let mut scratch = SolveScratch::default();
        let x = solve(
            |p, ap| la.matvec_into(p, ap),
            |r, z| cholb.solve_into(r, z, &mut scratch),
            &b,
            kappa,
            iterations,
        );
        let err = relative_a_error(|v| laplacian_quadratic_form(&path, v), &x, &x_star);
        assert!(err <= eps * 1.05, "err={err} after {iterations} iters");
    }

    #[test]
    fn into_variant_matches_allocating_api_bitwise() {
        let edges = vec![
            (0, 1, 1.0),
            (1, 2, 2.0),
            (2, 3, 1.0),
            (3, 0, 4.0),
            (1, 3, 0.3),
        ];
        let lap = laplacian_from_edges(4, &edges);
        let chol = GroundedCholesky::new(&lap).unwrap();
        let mut b = vec![5.0, -1.0, -2.5, 0.0];
        remove_mean(&mut b);
        // The in-place operators against the allocating `matvec` and
        // `solve`.
        let mut scratch = SolveScratch::default();
        let x = solve(
            |p, ap| lap.matvec_into(p, ap),
            |r, z| chol.solve_into(r, z, &mut scratch),
            &b,
            3.0,
            25,
        );
        let want = solve(
            |p, ap| ap.copy_from_slice(&lap.matvec(p)),
            |r, z| z.copy_from_slice(&chol.solve(r)),
            &b,
            3.0,
            25,
        );
        for (a, b) in x.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        // Large enough that matvec_into actually fans out (nnz ≥ PAR_MIN_NNZ,
        // rows > MATVEC_ROW_CHUNK): bitwise equality across 1, 2, 8 threads.
        let n = 9000;
        let edges: Vec<(usize, usize, f64)> = (0..n - 1)
            .map(|i| (i, i + 1, 1.0 + (i % 7) as f64 * 0.25))
            .collect();
        let lap = laplacian_from_edges(n, &edges);
        assert!(lap.nnz() >= crate::csr::PAR_MIN_NNZ);
        let mut b: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        remove_mean(&mut b);
        let run = |threads: usize| {
            crate::par::with_threads(threads, || {
                let mut x = vec![0.0; n];
                let mut ws = ChebyshevWorkspace::new(n);
                chebyshev_solve_fixed_into(
                    |p, ap| lap.matvec_into(p, ap),
                    |r, z| z.copy_from_slice(r),
                    &b,
                    16.0,
                    40,
                    &mut x,
                    &mut ws,
                );
                x
            })
        };
        let base = run(1);
        for threads in [2, 8] {
            let got = run(threads);
            assert!(
                base.iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "chebyshev not bitwise identical with {threads} threads"
            );
        }
    }

    #[test]
    fn relative_error_of_zero_target_is_zero() {
        let err = relative_a_error(|v| v.iter().map(|x| x * x).sum(), &[1.0], &[0.0]);
        assert_eq!(err, 0.0);
    }
}
