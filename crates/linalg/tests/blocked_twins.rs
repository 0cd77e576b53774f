//! Bitwise twins for the cache-blocked / batched throughput kernels.
//!
//! Every optimized kernel in this crate is constrained to perform the
//! *same sequence of floating-point operations per output element* as an
//! obvious naive reference — cache blocking, register-tiled lanes, and
//! thread fan-outs rearrange which element is computed *when*, never the
//! reductions within one element. These properties hold bitwise, at any
//! thread count, so each test compares exact `f64` bit patterns across
//! thread budgets 1, 2, and 8:
//!
//! * blocked `DenseMatrix::matmul` vs a naive `i,k,j` triple loop (with
//!   the same `a[i][k] == 0` skip);
//! * `CsrMatrix::matvec_multi_into` vs `k` independent single matvecs;
//! * `GroundedCholesky::solve_multi_into` vs `k` single solves;
//! * `chebyshev_solve_fixed_into` over an interleaved batch of `k`
//!   columns vs `k` single preconditioned solves (these three at every
//!   batch width `k` of `WIDTHS`);
//! * `symmetric_eigenvalues` and `symmetric_reduce(..).eigenvalues()` vs
//!   `symmetric_eigen(..).eigenvalues()` (the eigensolver is serial, so
//!   this twin has no thread budget).

use cc_linalg::{
    chebyshev_solve_fixed_into, laplacian_from_edges, par, symmetric_eigen, symmetric_eigenvalues,
    symmetric_reduce, ChebyshevWorkspace, CsrMatrix, DenseMatrix, GroundedCholesky, SolveScratch,
    MATMUL_J_BLOCK, MATMUL_K_PANEL, PAR_MIN_NNZ,
};
use proptest::prelude::*;

/// Batch widths: one tile of every lane count, full tiles plus every
/// remainder, and several full tiles.
const WIDTHS: [usize; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16];

/// Naive reference matmul: `i,k,j` loops, ascending `k` per output
/// element, skipping `a[i][k] == 0` — exactly the reduction order the
/// blocked kernel commits to.
fn matmul_naive(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (n, m, p) = (a.rows(), a.cols(), b.cols());
    let mut out = DenseMatrix::zeros(n, p);
    for i in 0..n {
        for k in 0..m {
            let aik = a.get(i, k);
            if aik == 0.0 {
                continue;
            }
            for j in 0..p {
                out.set(i, j, out.get(i, j) + aik * b.get(k, j));
            }
        }
    }
    out
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: bit mismatch at {i}: {x:?} vs {y:?}"
        );
    }
}

/// A deterministic pseudo-random dense matrix from a sampled seed pool.
fn dense_from_pool(rows: usize, cols: usize, pool: &[f64]) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            // Sprinkle exact zeros so the zero-skip path is exercised.
            let v = pool[(i * cols + j) % pool.len()];
            let v = if (i + j) % 7 == 0 { 0.0 } else { v };
            m.set(i, j, v);
        }
    }
    m
}

/// A connected weighted-path Laplacian with weights from the pool, wide
/// enough to clear the parallel thresholds when scaled by `n`.
fn path_laplacian(n: usize, pool: &[f64]) -> CsrMatrix {
    let edges: Vec<(usize, usize, f64)> = (0..n - 1)
        .map(|i| (i, i + 1, pool[i % pool.len()].abs() + 0.1))
        .collect();
    laplacian_from_edges(n, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn blocked_matmul_is_bitwise_equal_to_naive_triple_loop(
        pool in proptest::collection::vec(-10f64..10.0, 24),
    ) {
        // Spans multiple j-blocks and k-panels plus ragged remainders.
        let n = MATMUL_J_BLOCK + 17;
        let m = MATMUL_K_PANEL + 9;
        let a = dense_from_pool(n, m, &pool);
        let b = dense_from_pool(m, n, &pool);
        let want = matmul_naive(&a, &b);
        for threads in [1usize, 2, 8] {
            let got = par::with_threads(threads, || a.matmul(&b).unwrap());
            assert_bits_eq(got.as_slice(), want.as_slice(), "matmul");
        }
    }

    #[test]
    fn csr_matvec_multi_matches_k_single_matvecs(
        pool in proptest::collection::vec(-50f64..50.0, 24),
    ) {
        let n = 6000usize;
        let lap = path_laplacian(n, &pool);
        prop_assert!(lap.nnz() >= PAR_MIN_NNZ, "every batch must take the parallel path");
        for k in WIDTHS {
            let xs: Vec<f64> = (0..n * k).map(|i| pool[i % pool.len()] * 0.5).collect();
            // Reference: k independent single-RHS matvecs, serial.
            let want = par::with_threads(1, || {
                let mut want = vec![0.0; n * k];
                let mut col = vec![0.0; n];
                let mut out = vec![0.0; n];
                for j in 0..k {
                    for v in 0..n {
                        col[v] = xs[v * k + j];
                    }
                    lap.matvec_into(&col, &mut out);
                    for v in 0..n {
                        want[v * k + j] = out[v];
                    }
                }
                want
            });
            for threads in [1usize, 2, 8] {
                let got = par::with_threads(threads, || {
                    let mut got = vec![0.0; n * k];
                    lap.matvec_multi_into(&xs, k, &mut got);
                    got
                });
                assert_bits_eq(&got, &want, &format!("csr matvec_multi, k = {k}"));
            }
        }
    }

    #[test]
    fn cholesky_solve_multi_matches_k_single_solves(
        pool in proptest::collection::vec(-5f64..5.0, 24),
    ) {
        let n = 80usize;
        let lap = path_laplacian(n, &pool);
        let chol = GroundedCholesky::new(&lap).unwrap();
        for k in WIDTHS {
            // Per-lane zero-mean right-hand sides.
            let mut bs = vec![0.0f64; n * k];
            for j in 0..k {
                for v in 0..n {
                    bs[v * k + j] = pool[(v + 5 * j) % pool.len()];
                }
                let mean: f64 = (0..n).map(|v| bs[v * k + j]).sum::<f64>() / n as f64;
                for v in 0..n {
                    bs[v * k + j] -= mean;
                }
            }
            let want = par::with_threads(1, || {
                let mut want = vec![0.0; n * k];
                let mut col = vec![0.0; n];
                let mut out = vec![0.0; n];
                let mut scratch = SolveScratch::default();
                for j in 0..k {
                    for v in 0..n {
                        col[v] = bs[v * k + j];
                    }
                    chol.solve_into(&col, &mut out, &mut scratch);
                    for v in 0..n {
                        want[v * k + j] = out[v];
                    }
                }
                want
            });
            for threads in [1usize, 2, 8] {
                let got = par::with_threads(threads, || {
                    let mut got = vec![0.0; n * k];
                    let mut scratch = SolveScratch::default();
                    chol.solve_multi_into(&bs, k, &mut got, &mut scratch);
                    got
                });
                assert_bits_eq(&got, &want, &format!("cholesky solve_multi, k = {k}"));
            }
        }
    }

    #[test]
    fn chebyshev_multi_matches_k_single_solves(
        pool in proptest::collection::vec(-5f64..5.0, 24),
    ) {
        let n = 64usize;
        let kappa = 16.0;
        let iterations = 12;
        let lap = path_laplacian(n, &pool);
        let chol = GroundedCholesky::new(&lap).unwrap();
        for k in WIDTHS {
            let mut bs = vec![0.0f64; n * k];
            for j in 0..k {
                for v in 0..n {
                    bs[v * k + j] = pool[(2 * v + j) % pool.len()];
                }
                let mean: f64 = (0..n).map(|v| bs[v * k + j]).sum::<f64>() / n as f64;
                for v in 0..n {
                    bs[v * k + j] -= mean;
                }
            }
            // Reference: k single preconditioned solves, serial.
            let want = par::with_threads(1, || {
                let mut want = vec![0.0; n * k];
                let mut col = vec![0.0; n];
                let mut x = vec![0.0; n];
                let mut ws = ChebyshevWorkspace::new(n);
                let mut scratch = SolveScratch::default();
                for j in 0..k {
                    for v in 0..n {
                        col[v] = bs[v * k + j];
                    }
                    chebyshev_solve_fixed_into(
                        |p, out| lap.matvec_into(p, out),
                        |r, out| {
                            chol.solve_into(r, out, &mut scratch);
                            for zi in out.iter_mut() {
                                *zi /= kappa;
                            }
                        },
                        &col,
                        kappa,
                        iterations,
                        &mut x,
                        &mut ws,
                    );
                    for v in 0..n {
                        want[v * k + j] = x[v];
                    }
                }
                want
            });
            for threads in [1usize, 2, 8] {
                let got = par::with_threads(threads, || {
                    let mut xs = vec![0.0; n * k];
                    let mut ws = ChebyshevWorkspace::new(n * k);
                    let mut scratch = SolveScratch::default();
                    chebyshev_solve_fixed_into(
                        |p, out| lap.matvec_multi_into(p, k, out),
                        |r, out| {
                            chol.solve_multi_into(r, k, out, &mut scratch);
                            for zi in out.iter_mut() {
                                *zi /= kappa;
                            }
                        },
                        &bs,
                        kappa,
                        iterations,
                        &mut xs,
                        &mut ws,
                    );
                    xs
                });
                assert_bits_eq(&got, &want, &format!("chebyshev multi, k = {k}"));
            }
        }
    }

    #[test]
    fn symmetric_eigenvalues_match_full_decomposition_bitwise(
        pool in proptest::collection::vec(-3f64..3.0, 31),
    ) {
        // The eigenvalues-only reduction, the first step of the full
        // decomposition, and the full decomposition agree at every size.
        for n in [1usize, 2, 9, 24, 63, 64, 65, 97, 256] {
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let v = pool[(7 * i + 3 * j) % pool.len()];
                    a.set(i, j, v);
                    a.set(j, i, v);
                }
            }
            let want = symmetric_eigen(&a).unwrap();
            let mut values = Vec::new();
            symmetric_eigenvalues(&mut a.clone(), &mut values).unwrap();
            assert_bits_eq(&values, want.eigenvalues(), "eigenvalues only");
            let reduction = symmetric_reduce(&a).unwrap();
            assert_bits_eq(reduction.eigenvalues(), &values, "reduce vs eigenvalues only");
        }
    }
}
