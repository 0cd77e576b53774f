//! # cc-linalg — numerical linear algebra for the Laplacian paradigm
//!
//! Self-contained numerical machinery backing the deterministic congested
//! clique algorithms of Forster & de Vos (PODC 2023):
//!
//! * [`DenseMatrix`] / [`CsrMatrix`] — dense and sparse symmetric matrices;
//! * [`laplacian_from_edges`] and friends — graph Laplacians and their
//!   quadratic forms (`‖x‖_L`, §2.2 of the paper);
//! * [`symmetric_eigen`] — a dense symmetric eigensolver (Householder
//!   tridiagonalization followed by implicit-shift QL), used to *certify*
//!   spectral gaps and sparsifier approximation factors deterministically;
//!   [`symmetric_reduce`] stops at the eigenvalues and forms the
//!   eigenvectors only when asked;
//! * [`GroundedCholesky`] — exact solves with singular Laplacians by
//!   grounding one vertex per connected component;
//! * [`chebyshev_solve_fixed_into`] — preconditioned Chebyshev iteration
//!   (Theorem 2.2 of the paper), the engine of the Laplacian solver.
//!
//! Everything here is deterministic: fixed start vectors, no randomized
//! pivoting, no hash-ordered iteration.
//!
//! ```
//! use cc_linalg::{laplacian_from_edges, GroundedCholesky};
//!
//! // Path graph 0-1-2 with unit weights: solve L x = b, b ⟂ 1.
//! let lap = laplacian_from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
//! let chol = GroundedCholesky::new(&lap)?;
//! let x = chol.solve(&[1.0, 0.0, -1.0]);
//! let b = lap.matvec(&x);
//! assert!((b[0] - 1.0).abs() < 1e-9 && (b[2] + 1.0).abs() < 1e-9);
//! # Ok::<(), cc_linalg::LinalgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // dense kernels read clearer with explicit indices

mod cheby;
mod csr;
mod dense;
mod eigen;
mod error;
mod factor;
mod laplacian;
#[cfg(test)]
mod twin_inputs;
pub mod vec_ops;

pub use cheby::{
    chebyshev_iteration_bound, chebyshev_solve_fixed_into, relative_a_error, ChebyshevWorkspace,
};
pub use csr::{CsrMatrix, RHS_LANES};
pub use dense::DenseMatrix;
pub use eigen::{
    symmetric_eigen, symmetric_eigenvalues, symmetric_reduce, SymmetricEigen, SymmetricReduction,
};
pub use error::LinalgError;
pub use factor::{GroundedCholesky, SolveScratch};
pub use laplacian::{
    laplacian_from_edges, laplacian_quadratic_form, normalized_laplacian_dense,
    normalized_laplacian_dense_into, LaplacianNorm, LaplacianPattern,
};
