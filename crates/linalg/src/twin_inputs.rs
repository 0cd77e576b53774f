//! Inputs of the bitwise reference tests of the lane-tiled kernels
//! ([`crate::CsrMatrix::matvec_multi_into`],
//! [`crate::GroundedCholesky::solve_multi_into`]): every batch width
//! around the tile sizes, Laplacians of the shapes the solvers meet, and
//! right-hand sides with the values whose bits are easiest to lose.

use crate::laplacian::laplacian_from_edges;
use crate::CsrMatrix;

/// Batch widths: one tile of every lane count, full tiles plus every
/// remainder, and several full tiles.
pub(crate) const WIDTHS: [usize; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16];

/// Named Laplacians: paths, a graph of several components with isolated
/// vertices, a star with its hub last (the shape of a sparsifier's gadget
/// and of its arrow factor), and a banded graph whose factor fills its
/// band.
pub(crate) fn laplacians() -> Vec<(&'static str, CsrMatrix)> {
    let weight = |i: usize| 1.0 + (i % 7) as f64 / 3.0;
    let path = |n: usize| {
        let edges: Vec<_> = (1..n).map(|i| (i - 1, i, weight(i))).collect();
        laplacian_from_edges(n, &edges)
    };
    // Components {0, 1, 2}, {4, 5}, {6, 7, 8}, {10, 11}; 3 and 9 isolated.
    let parts = [
        (0, 1, 1.0),
        (1, 2, 2.5),
        (5, 4, 0.5),
        (6, 7, 3.0),
        (7, 8, 1.0),
        (6, 8, 2.0),
        (11, 10, 1.5),
    ];
    let leaves = 40;
    let star: Vec<_> = (0..leaves).map(|v| (v, leaves, weight(v))).collect();
    let band: Vec<_> = (0..48)
        .flat_map(|i| (1..=6).map(move |d| (i, i + d, weight(i + d))))
        .filter(|&(_, j, _)| j < 48)
        .collect();
    vec![
        ("path 1", path(1)),
        ("path 2", path(2)),
        ("path 37", path(37)),
        ("components", laplacian_from_edges(12, &parts)),
        ("star", laplacian_from_edges(leaves + 1, &star)),
        ("band", laplacian_from_edges(48, &band)),
    ]
}

/// `k` interleaved right-hand sides over `n` rows (`bs[v*k + j]`).
/// Column `j` takes variant `(j + shift) % 4`: ordinary values; all
/// `−0.0`; ordinary values with `−0.0` and subnormals; ordinary values
/// with `±1e300` (whose sums overflow to `±∞` and then `NaN`).
pub(crate) fn rhs(n: usize, k: usize, shift: usize) -> Vec<f64> {
    (0..n * k)
        .map(|e| {
            let (v, j) = (e / k, e % k);
            let plain = (1.7 * e as f64 + 0.3).sin() * 4.0;
            match ((j + shift) % 4, v % 3) {
                (1, _) | (2, 1) => -0.0,
                (2, 2) => f64::from_bits(1 + v as u64) * plain.signum(),
                (3, 1) => 1e300 * plain.signum(),
                _ => plain,
            }
        })
        .collect()
}
