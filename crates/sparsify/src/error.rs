//! Typed errors of the sparsifier builders.

use std::fmt;

use cc_linalg::LinalgError;
use cc_model::ModelError;

/// Failure of a sparsifier construction.
///
/// Precondition violations (clique too small, out-of-range params) remain
/// panics; runtime failures — a communication substrate rejecting a
/// broadcast, or a grounded factorization or dense eigendecomposition
/// failing on degenerate weights — surface here.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SparsifyError {
    /// The communication substrate rejected a primitive call.
    Comm(ModelError),
    /// A grounded factorization or dense eigendecomposition failed.
    Factorization(LinalgError),
}

impl fmt::Display for SparsifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparsifyError::Comm(e) => write!(f, "communication failure during sparsify: {e}"),
            SparsifyError::Factorization(e) => {
                write!(f, "dense linear algebra failure during sparsify: {e}")
            }
        }
    }
}

impl std::error::Error for SparsifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SparsifyError::Comm(e) => Some(e),
            SparsifyError::Factorization(e) => Some(e),
        }
    }
}

impl From<ModelError> for SparsifyError {
    fn from(e: ModelError) -> Self {
        SparsifyError::Comm(e)
    }
}

impl From<LinalgError> for SparsifyError {
    fn from(e: LinalgError) -> Self {
        SparsifyError::Factorization(e)
    }
}
