//! Randomized effective-resistance sparsification — the ablation the
//! paper points to when it remarks that replacing the deterministic
//! solver by "a simpler, randomized solver (see \[FV22\])" converts the
//! `n^{o(1)}` factors into `poly log n`.
//!
//! Classic Spielman–Srivastava sampling: edge `e` is kept with
//! probability proportional to its leverage score `w_e · R_eff(e)`; the
//! exact effective resistances are computed internally (the model's free
//! local computation — in \[FV22\] this is a randomized
//! `O(polylog n)`-round construction, charged here as an oracle). The
//! returned sparsifier carries an **exactly certified** `α` from the dense
//! generalized-eigenvalue pencil — unlike the deterministic builder, the
//! α here is a posteriori (sampling has a failure probability; the
//! certificate makes the result trustworthy regardless).

use cc_graph::Graph;
use cc_linalg::{laplacian_from_edges, GroundedCholesky};
use cc_model::Communicator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::certify::{generalized_eigen_bounds, sparsifier_schur_dense};
use crate::error::SparsifyError;
use crate::SpectralSparsifier;

/// Builds a randomized spectral sparsifier of `g` with roughly
/// `target_edges` sampled edges (default `8·n·ln n`), certified exactly.
///
/// Rounds charged: `⌈(log₂ n)³⌉` oracle rounds (the \[FV22\] polylog
/// claim) plus 1 implemented broadcast (publishing the sample).
///
/// # Errors
///
/// [`SparsifyError::Comm`] on substrate failure;
/// [`SparsifyError::Factorization`] if the exact-resistance factorization
/// fails.
///
/// # Panics
///
/// Panics if `clique.n() < g.n()` or the graph has no edges when
/// `target_edges > 0`.
pub fn build_randomized_sparsifier<C: Communicator>(
    clique: &mut C,
    g: &Graph,
    seed: u64,
    target_edges: Option<usize>,
) -> Result<SpectralSparsifier, SparsifyError> {
    assert!(clique.n() >= g.n(), "clique too small");
    let n = g.n();
    let q = target_edges
        .unwrap_or_else(|| (8.0 * n as f64 * (n.max(2) as f64).ln()).ceil() as usize)
        .max(1);

    clique.phase("sparsify_randomized", |clique| {
        let polylog = ((n.max(2) as f64).log2().powi(3)).ceil() as u64;
        clique.charge_oracle(polylog);

        if g.m() == 0 {
            return Ok(SpectralSparsifier::from_parts(n, 0, Vec::new(), 1.0, 1));
        }

        // Exact effective resistances via one grounded factorization.
        let triples = g.edge_triples();
        let lap = laplacian_from_edges(n, &triples);
        let chol = GroundedCholesky::new(&lap)?;
        let mut leverage = Vec::with_capacity(g.m());
        for e in g.edges() {
            let mut b = vec![0.0; n];
            b[e.u] = 1.0;
            b[e.v] = -1.0;
            let x = chol.solve(&b);
            let r_eff = (x[e.u] - x[e.v]).max(0.0);
            leverage.push((e.weight * r_eff).max(1e-15));
        }
        let total: f64 = leverage.iter().sum();

        // Sample q edges with replacement, weight w_e/(q·p_e) each;
        // accumulate duplicates.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut accum: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        for _ in 0..q {
            let mut pick = rng.gen_range(0.0..total);
            let mut chosen = g.m() - 1;
            for (i, &l) in leverage.iter().enumerate() {
                if pick < l {
                    chosen = i;
                    break;
                }
                pick -= l;
            }
            let p = leverage[chosen] / total;
            *accum.entry(chosen).or_insert(0.0) += g.edge(chosen).weight / (q as f64 * p);
        }
        let edges: Vec<(usize, usize, f64)> = accum
            .into_iter()
            .map(|(i, w)| {
                let e = g.edge(i);
                (e.u, e.v, w)
            })
            .collect();

        // Publish the sample (one balanced all-gather of ≤ 3 words/edge).
        let words: u64 = 3 * edges.len() as u64;
        let per_node = words.div_ceil(clique.n() as u64);
        for _ in 0..per_node.max(1) {
            clique.broadcast_all(&vec![0u64; clique.n()])?;
        }

        // A-posteriori exact certification (dense pencil; the sampled
        // graph might miss connectivity — α = ∞ then, reported honestly
        // as a very large finite cap for downstream κ computations).
        let candidate = SpectralSparsifier::from_parts(n, 0, edges, 1.0, 1);
        let schur = sparsifier_schur_dense(&candidate);
        let bounds = generalized_eigen_bounds(n, &triples, &schur).map_err(SparsifyError::from)?;
        let alpha = if bounds.alpha().is_finite() {
            bounds.alpha().max(1.0)
        } else {
            1e9
        };
        Ok(SpectralSparsifier::from_parts(
            n,
            0,
            candidate.edges().to_vec(),
            alpha * (1.0 + 1e-9),
            1,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_sparsifier;
    use cc_graph::generators;
    use cc_model::Clique;

    #[test]
    fn randomized_sparsifier_is_certified_honestly() {
        let g = generators::random_connected(32, 200, 4, 5);
        let mut clique = Clique::new(32);
        let h = build_randomized_sparsifier(&mut clique, &g, 42, None).unwrap();
        let bounds = verify_sparsifier(&g, &h).unwrap();
        assert!(bounds.alpha() <= h.alpha() * (1.0 + 1e-6));
        assert!(
            h.alpha() < 100.0,
            "sampling should produce a decent sparsifier"
        );
    }

    #[test]
    fn randomized_sparsifier_is_smaller_than_dense_input() {
        let g = generators::complete(40);
        let mut clique = Clique::new(40);
        let h = build_randomized_sparsifier(&mut clique, &g, 7, Some(300)).unwrap();
        assert!(h.edge_count() <= 300);
        assert!(h.edge_count() < g.m());
        assert!(h.solver().is_ok());
    }

    #[test]
    fn rounds_are_polylog_charged() {
        let g = generators::expander(64);
        let mut clique = Clique::new(64);
        let _ = build_randomized_sparsifier(&mut clique, &g, 1, None).unwrap();
        let charged = clique.ledger().charged_rounds();
        assert_eq!(charged, (64f64.log2().powi(3)).ceil() as u64);
        assert!(clique.ledger().implemented_rounds() >= 1);
    }

    #[test]
    fn seeded_reproducibility() {
        let g = generators::random_connected(24, 100, 8, 3);
        let run = |seed| {
            let mut clique = Clique::new(24);
            build_randomized_sparsifier(&mut clique, &g, seed, None)
                .unwrap()
                .edges()
                .to_vec()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn solves_through_the_sampled_preconditioner() {
        // End-to-end: use the randomized sparsifier as a Chebyshev
        // preconditioner and verify the accuracy guarantee.
        let g = generators::random_connected(24, 120, 4, 8);
        let mut clique = Clique::new(24);
        let h = build_randomized_sparsifier(&mut clique, &g, 21, None).unwrap();
        let solver = h.solver().unwrap();
        let triples = g.edge_triples();
        let lap = laplacian_from_edges(24, &triples);
        let exact = GroundedCholesky::new(&lap).unwrap();
        let mut b = vec![0.0; 24];
        b[0] = 1.0;
        b[23] = -1.0;
        let alpha = h.alpha();
        // Allocation-free iteration path: buffers reused across
        // iterations.
        let iters = cc_linalg::chebyshev_iteration_bound(h.kappa(), 1e-8);
        let mut x = vec![0.0f64; 24];
        let mut ws = cc_linalg::ChebyshevWorkspace::new(24);
        let mut scratch = crate::SparsifierSolveScratch::default();
        cc_linalg::chebyshev_solve_fixed_into(
            |v, out| lap.matvec_into(v, out),
            |r, out| {
                solver.solve_into(r, out, &mut scratch);
                for zi in out.iter_mut() {
                    *zi /= alpha;
                }
            },
            &b,
            h.kappa(),
            iters,
            &mut x,
            &mut ws,
        );
        let x_star = exact.solve(&b);
        let err = cc_linalg::relative_a_error(
            |v| cc_linalg::laplacian_quadratic_form(&triples, v),
            &x,
            &x_star,
        );
        assert!(err <= 1e-8 * 1.05, "err={err}");
    }
}
