//! # cc-sparsify — deterministic spectral sparsifiers in the congested clique
//!
//! Implements §3 of Forster & de Vos (PODC 2023): a deterministic
//! congested-clique construction of spectral sparsifiers (Theorem 3.3),
//! following the scheme of Chuzhoy–Gao–Li–Nanongkai–Peng–Saranurak
//! \[CGLN+20\]:
//!
//! 1. repeatedly compute an expander decomposition of the remaining edges
//!    ([`expander_decompose`], substituting the \[CS20\] black box with a
//!    deterministic recursive spectral partitioner whose per-cluster gap is
//!    *certified exactly* — see `DESIGN.md` §2.1);
//! 2. replace every cluster by a product-demand-graph proxy. Here the proxy
//!    is realized **exactly** as a weighted star with one auxiliary center
//!    vertex ([`ClusterGadget`]): the Schur complement of the star onto the
//!    cluster vertices *is* the scaled product demand graph, so no internal
//!    sparsification error is introduced at all (`DESIGN.md` §2.2);
//! 3. crossing edges fall through to the next level; small clusters keep
//!    their edges verbatim.
//!
//! The result is a [`SpectralSparsifier`]: `O(n log(nU))` gadget edges over
//! the original vertices plus auxiliary star centers, globally known to
//! every node, with a **certified** approximation factor `alpha` such that
//! `(1/α)·S_H ⪯ L_G ⪯ α·S_H` where `S_H` is the Schur complement of the
//! gadget graph onto the original vertices.
//!
//! ```
//! use cc_model::Clique;
//! use cc_graph::generators;
//! use cc_sparsify::{build_sparsifier, SparsifyParams};
//!
//! let g = generators::random_connected(24, 40, 4, 7);
//! let mut clique = Clique::new(24);
//! let h = build_sparsifier(&mut clique, &g, &SparsifyParams::default()).unwrap();
//! assert!(h.alpha() >= 1.0);
//! assert!(h.edge_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod certify;
mod decomposition;
mod error;
mod gadget;
mod randomized;
mod sparsifier;
mod template;

pub use cache::{TemplateCache, TemplateKey};
pub use certify::{generalized_eigen_bounds, verify_sparsifier, CertifiedBounds};
pub use decomposition::{expander_decompose, Cluster, ExpanderDecomposition};
pub use error::SparsifyError;
pub use gadget::ClusterGadget;
pub use randomized::build_randomized_sparsifier;
pub use sparsifier::{
    build_sparsifier, SparsifierSolveScratch, SparsifierSolver, SparsifyParams, SpectralSparsifier,
};
pub use template::{build_sparsifier_with_template, InstantiateScratch, SparsifierTemplate};
