//! The Theorem 1.1 solver.

use cc_graph::Graph;
use cc_linalg::{
    chebyshev_iteration_bound, laplacian_from_edges, CsrMatrix, LaplacianNorm, LaplacianPattern,
};
use cc_model::{decode_f64, encode_f64, Communicator, ModelError};
use cc_sparsify::{
    build_sparsifier, InstantiateScratch, SparsifierSolver, SparsifierTemplate, SparsifyParams,
    SpectralSparsifier,
};

use crate::CoreError;

/// Options of [`LaplacianSolver::build`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverOptions {
    /// Parameters of the sparsifier construction (Theorem 3.3).
    pub sparsify: SparsifyParams,
    /// Quantize every broadcast scalar to this many fractional fixed-point
    /// bits — the strict `O(log n)`-bit word regime (paper footnote 2).
    /// `None` (default) ships full `f64` payloads, one word each.
    pub message_frac_bits: Option<u32>,
    /// Skip computing the exact reference solution per solve.
    /// [`SolveOutcome::relative_error`] then returns `None`. The interior
    /// point methods enable this: they issue hundreds of solves and never
    /// read the reference, whose `O(n³)` factorization would dominate
    /// wall-clock (not rounds — the reference is a measurement artifact).
    pub skip_reference: bool,
}

/// Result of one [`LaplacianSolver::solve`] call.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The approximate solution `x ≈ L†b` (zero mean per component).
    pub x: Vec<f64>,
    /// Chebyshev iterations executed (each is one broadcast round).
    pub iterations: usize,
    /// The `κ = α²` condition bound used.
    pub kappa: f64,
    /// Laplacian seminorm evaluator of the input graph, for error checks.
    norm: LaplacianNorm,
    /// Exact reference solution (internal, for [`SolveOutcome::relative_error`];
    /// absent when the solver was built with `skip_reference`).
    x_star: Option<Vec<f64>>,
}

impl SolveOutcome {
    /// The achieved relative error `‖x − L†b‖_{L_G} / ‖L†b‖_{L_G}`
    /// (the error functional of Theorem 1.1), computed against an exact
    /// internal reference solve of the same right-hand side. Returns
    /// `None` when the solver was built with
    /// [`SolverOptions::skip_reference`] (no reference exists to compare
    /// against).
    pub fn relative_error(&self) -> Option<f64> {
        let x_star = self.x_star.as_ref()?;
        let denom = self.norm.norm(x_star);
        if denom == 0.0 {
            return Some(0.0);
        }
        Some(self.norm.distance(&self.x, x_star) / denom)
    }
}

/// Reusable buffers of [`LaplacianSolver::solve_multi_into`] (and so of
/// [`LaplacianSolver::solve_into`], its width-1 call).
///
/// One workspace serves any number of solves of any batch width (buffers
/// are sized on first use and kept), so the steady-state per-solve hot
/// path performs no heap allocation — the discipline the
/// counting-allocator tests pin down. The
/// projected right-hand side of the most recent solve is retained in the
/// workspace for callers that need it (e.g. the reference solve of
/// [`LaplacianSolver::solve`]).
#[derive(Debug, Clone, Default)]
pub struct SolveWorkspace {
    /// `b` projected onto `range(L_G)` (the actual system solved).
    b_proj: Vec<f64>,
    /// Per-component sums of the projection.
    comp_sums: Vec<f64>,
    /// Per-component vertex counts of the projection.
    comp_counts: Vec<usize>,
    /// Encoded broadcast words (one per clique node).
    words: Vec<u64>,
    /// Shared broadcast view received back.
    view: Vec<u64>,
    /// Decoded shared iterate.
    shared: Vec<f64>,
    /// Chebyshev iteration vectors (length `n·k` for a batch of `k`).
    cheby: cc_linalg::ChebyshevWorkspace,
    /// Preconditioner (sparsifier Cholesky) scratch.
    scratch: cc_sparsify::SparsifierSolveScratch,
}

impl SolveWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The deterministic congested clique Laplacian solver (Theorem 1.1),
/// reusable across right-hand sides for a fixed graph.
#[derive(Debug, Clone)]
pub struct LaplacianSolver {
    n: usize,
    message_frac_bits: Option<u32>,
    laplacian: CsrMatrix,
    edges: Vec<(usize, usize, f64)>,
    components: Vec<usize>,
    comp_count: usize,
    sparsifier: SpectralSparsifier,
    inner: SparsifierSolver,
    /// Lazily factored exact Laplacian (only built when a reference
    /// solution is requested).
    exact: std::cell::OnceCell<cc_linalg::GroundedCholesky>,
    skip_reference: bool,
    kappa: f64,
    /// Assembly layout of `laplacian`, recorded on the first reweight.
    pattern: Option<LaplacianPattern>,
}

impl LaplacianSolver {
    /// Builds the solver: constructs the deterministic spectral sparsifier
    /// in the clique (charging its rounds to `clique`) and factors it
    /// internally at every node.
    ///
    /// # Errors
    ///
    /// [`CoreError::Factorization`] if the gadget Laplacian cannot be
    /// factored (degenerate weights); [`CoreError::Sparsify`] if the
    /// sparsifier construction itself fails (e.g. a fault-injecting
    /// substrate rejects its broadcasts).
    ///
    /// # Panics
    ///
    /// Panics if `clique.n() < g.n()`.
    pub fn build<C: Communicator>(
        clique: &mut C,
        g: &Graph,
        options: &SolverOptions,
    ) -> Result<Self, CoreError> {
        let sparsifier = build_sparsifier(clique, g, &options.sparsify)?;
        let inner = sparsifier.solver()?;
        let edges = g.edge_triples();
        let laplacian = laplacian_from_edges(g.n(), &edges);
        let components = g.components();
        let comp_count = components.iter().copied().max().map_or(0, |c| c + 1);
        Ok(Self {
            n: g.n(),
            message_frac_bits: options.message_frac_bits,
            skip_reference: options.skip_reference,
            kappa: sparsifier.kappa(),
            laplacian,
            edges,
            components,
            comp_count,
            sparsifier,
            inner,
            exact: std::cell::OnceCell::new(),
            pattern: None,
        })
    }

    /// Builds the solver around a *prebuilt* sparsifier (e.g. the
    /// randomized effective-resistance sampler of
    /// `cc_sparsify::build_randomized_sparsifier`) instead of running the
    /// deterministic Theorem 3.3 construction. The sparsifier's certified
    /// `α` drives the Chebyshev condition bound exactly as in
    /// Corollary 2.3.
    ///
    /// # Errors
    ///
    /// [`CoreError::Factorization`] if the sparsifier cannot be factored.
    ///
    /// # Panics
    ///
    /// Panics if the sparsifier was built for a different vertex count.
    pub fn with_sparsifier(
        g: &Graph,
        sparsifier: SpectralSparsifier,
        options: &SolverOptions,
    ) -> Result<Self, CoreError> {
        assert_eq!(sparsifier.n(), g.n(), "sparsifier vertex count mismatch");
        let inner = sparsifier.solver()?;
        let edges = g.edge_triples();
        let laplacian = laplacian_from_edges(g.n(), &edges);
        let components = g.components();
        let comp_count = components.iter().copied().max().map_or(0, |c| c + 1);
        Ok(Self {
            n: g.n(),
            message_frac_bits: options.message_frac_bits,
            skip_reference: options.skip_reference,
            kappa: sparsifier.kappa(),
            laplacian,
            edges,
            components,
            comp_count,
            sparsifier,
            inner,
            exact: std::cell::OnceCell::new(),
            pattern: None,
        })
    }

    /// Reweights the solver in place for new weights on the same graph
    /// support (`weights[e]` for edge `e` of the graph it was built
    /// from), instantiating `template` — the sparsifier template of that
    /// support — into the solver's sparsifier. Everything keyed to the
    /// support is kept: the Laplacian's pattern and components, the
    /// sparsifier's edge layout and the preconditioner's symbolic
    /// factorization. Only values are rewritten, in the operation order
    /// of a fresh [`SparsifierTemplate::instantiate`] plus
    /// [`LaplacianSolver::with_sparsifier`], so the solver is bitwise
    /// equal to such a rebuild. Rounds charged: the instantiation's.
    /// After the first call has recorded the assembly layouts, the call
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// [`CoreError::Sparsify`] if the instantiation fails,
    /// [`CoreError::Factorization`] if the preconditioner does not
    /// factor. The solver is then unusable until a later reweight
    /// succeeds.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the edge count, a weight is
    /// zero, or the template's support differs from the graph's.
    pub(crate) fn reweight<C: Communicator>(
        &mut self,
        clique: &mut C,
        weights: &[f64],
        template: &SparsifierTemplate,
        scratch: &mut InstantiateScratch,
    ) -> Result<(), CoreError> {
        assert_eq!(weights.len(), self.edges.len(), "one weight per edge");
        template.instantiate_into(clique, weights, &mut self.sparsifier, scratch)?;
        self.inner.refactor(&self.sparsifier)?;
        for (edge, &w) in self.edges.iter_mut().zip(weights) {
            edge.2 = w;
        }
        let pattern = self
            .pattern
            .get_or_insert_with(|| LaplacianPattern::new(self.n, &self.edges));
        // Graph weights are positive (conductances of finite resistances),
        // so the assembled pattern cannot change.
        assert!(
            pattern.refill(|e| weights[e], &mut self.laplacian),
            "graph weights must be positive"
        );
        self.kappa = self.sparsifier.kappa();
        self.exact = std::cell::OnceCell::new();
        Ok(())
    }

    /// Number of vertices of the solved graph.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The sparsifier backing the preconditioner.
    pub fn sparsifier(&self) -> &SpectralSparsifier {
        &self.sparsifier
    }

    /// The certified condition bound `κ = α²` of Corollary 2.3.
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// Iterations (= broadcast rounds) a solve at accuracy `eps` will use.
    pub fn iterations_for(&self, eps: f64) -> usize {
        chebyshev_iteration_bound(self.kappa, eps.clamp(f64::MIN_POSITIVE, 0.5))
    }

    /// Projects every interleaved column of `xs` (`xs[v*k + j]` is entry
    /// `v` of column `j`) onto `range(L_G)` in place: removes the
    /// per-component mean, free internally because connectivity is known
    /// from the globally known sparsifier. Vertices accumulate in
    /// ascending order per column, so a column's projection does not
    /// depend on the batch it rides in. `sums`/`counts` are caller-owned
    /// scratch.
    fn project_multi_in_place(
        &self,
        xs: &mut [f64],
        k: usize,
        sums: &mut Vec<f64>,
        counts: &mut Vec<usize>,
    ) {
        sums.clear();
        sums.resize(self.comp_count * k, 0.0);
        counts.clear();
        counts.resize(self.comp_count, 0);
        for v in 0..self.n {
            let c = self.components[v];
            counts[c] += 1;
            for j in 0..k {
                sums[c * k + j] += xs[v * k + j];
            }
        }
        for (means, &cnt) in sums.chunks_mut(k).zip(counts.iter()) {
            for m in means {
                *m /= cnt as f64;
            }
        }
        for v in 0..self.n {
            let c = self.components[v];
            for j in 0..k {
                xs[v * k + j] -= sums[c * k + j];
            }
        }
    }

    /// Solves `L_G x = b` to relative `L_G`-norm error `eps` (Theorem 1.1).
    ///
    /// Rounds charged to `clique`: one broadcast round per Chebyshev
    /// iteration (the `L_G` mat-vec; `B`-solves and vector operations are
    /// internal). The returned solution is the zero-mean-per-component
    /// pseudo-inverse representative.
    ///
    /// This is a convenience wrapper over [`LaplacianSolver::solve_into`]
    /// that allocates a fresh workspace per call and (unless built with
    /// [`SolverOptions::skip_reference`]) attaches the exact reference
    /// solution. Hot paths issuing many solves should call `solve_into`
    /// with a reused [`SolveWorkspace`] instead.
    ///
    /// # Errors
    ///
    /// [`CoreError::Comm`] if the communication substrate rejects an
    /// iteration's broadcast (injected faults surface here, never as
    /// panics).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n` or `eps ≤ 0`.
    pub fn solve<C: Communicator>(
        &self,
        clique: &mut C,
        b: &[f64],
        eps: f64,
    ) -> Result<SolveOutcome, CoreError> {
        let mut ws = SolveWorkspace::new();
        let mut x = Vec::new();
        let spent = self.solve_into(clique, b, eps, &mut x, &mut ws)?;
        let x_star = if self.skip_reference {
            None
        } else {
            let exact = self.exact.get_or_init(|| {
                cc_linalg::GroundedCholesky::new(&self.laplacian)
                    .expect("Laplacian of positive weights factors")
            });
            Some(exact.solve(&ws.b_proj))
        };
        Ok(SolveOutcome {
            x,
            iterations: spent,
            kappa: self.kappa,
            norm: LaplacianNorm::new(self.edges.clone()),
            x_star,
        })
    }

    /// [`LaplacianSolver::solve`] into caller-owned buffers: writes the
    /// solution into `x` (resized to `n`) and returns the Chebyshev
    /// iterations spent. This is the width-1
    /// [`LaplacianSolver::solve_multi_into`]: identical round accounting
    /// and bitwise-identical solution to `solve`; no reference solution
    /// is computed. With a reused [`SolveWorkspace`] the steady-state call
    /// performs no heap allocation — this is the per-iteration path of
    /// the interior point methods (`cc-ipm`).
    ///
    /// # Errors
    ///
    /// [`CoreError::Comm`] if the communication substrate rejects an
    /// iteration's broadcast.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n` or `eps ≤ 0`.
    pub fn solve_into<C: Communicator>(
        &self,
        clique: &mut C,
        b: &[f64],
        eps: f64,
        x: &mut Vec<f64>,
        ws: &mut SolveWorkspace,
    ) -> Result<usize, CoreError> {
        self.solve_multi_into(clique, b, 1, eps, x, ws)
    }

    /// Solves `L_G x = b` for `k` interleaved right-hand sides
    /// (`bs[v*k + j]` is entry `v` of column `j`), all at accuracy `eps`
    /// — the one solve driver; a single right-hand side is `k = 1`.
    /// Writes the interleaved solutions into `xs` (resized to `n·k`) and
    /// returns the Chebyshev iterations spent.
    ///
    /// Rounds charged: `k` broadcast rounds per Chebyshev iteration (one
    /// per column — every column's mat-vec ships the same payload a
    /// single solve would), so the total round cost equals `k` separate
    /// single solves exactly. The amortization is wall-clock: one
    /// [`cc_linalg::chebyshev_solve_fixed_into`] over the `n·k` buffers
    /// streams the Laplacian, the preconditioner factor and the Chebyshev
    /// vectors through the cache once per iteration instead of `k` times.
    ///
    /// Column `j` of the result is **bitwise identical** to a width-1
    /// solve of column `j`: the Chebyshev coefficients depend only on `κ`
    /// and the iteration index, every vector update is elementwise, and
    /// the mat-vec / preconditioner kernels are bitwise-per-column by
    /// construction.
    ///
    /// # Errors
    ///
    /// [`CoreError::Comm`] if the communication substrate rejects any
    /// column's broadcast.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `bs.len() != n·k`, or `eps ≤ 0`.
    pub fn solve_multi_into<C: Communicator>(
        &self,
        clique: &mut C,
        bs: &[f64],
        k: usize,
        eps: f64,
        xs: &mut Vec<f64>,
        ws: &mut SolveWorkspace,
    ) -> Result<usize, CoreError> {
        assert!(k > 0, "batch width must be positive");
        assert_eq!(bs.len(), self.n * k, "rhs length mismatch (n·k entries)");
        assert!(eps > 0.0, "eps must be positive");
        let eps = eps.min(0.5);
        let n = self.n;
        ws.b_proj.clear();
        ws.b_proj.extend_from_slice(bs);
        {
            // Split borrows: the projection target and its scratch live in
            // the same workspace.
            let SolveWorkspace {
                ref mut b_proj,
                ref mut comp_sums,
                ref mut comp_counts,
                ..
            } = *ws;
            self.project_multi_in_place(b_proj, k, comp_sums, comp_counts);
        }
        let kappa = self.kappa;
        let alpha = self.sparsifier.alpha();
        let iterations = chebyshev_iteration_bound(kappa, eps);
        xs.clear();
        xs.resize(n * k, 0.0);

        let mut comm_err: Option<ModelError> = None;
        let spent = clique.phase("laplacian_solve", |clique| {
            let frac_bits = self.message_frac_bits;
            let encode = |x: f64| match frac_bits {
                Some(b) => cc_model::encode_f64_fixed(x, b),
                None => encode_f64(x),
            };
            let decode = |w: u64| match frac_bits {
                Some(b) => cc_model::decode_f64_fixed(w, b),
                None => decode_f64(w),
            };
            let SolveWorkspace {
                ref b_proj,
                ref mut words,
                ref mut view,
                ref mut shared,
                ref mut cheby,
                ref mut scratch,
                ..
            } = *ws;
            // Encode/decode staging buffers, reused across all iterations
            // (and across solves sharing this workspace).
            words.clear();
            words.resize(clique.n(), 0);
            shared.clear();
            shared.resize(n * k, 0.0);
            let comm_err = &mut comm_err;
            let apply_a = |v: &[f64], out: &mut [f64]| {
                // One broadcast round per column: every node ships its
                // coordinate to everyone, then evaluates its Laplacian row
                // locally. Column `j` ships exactly the words its single
                // solve would. A substrate failure latches in `comm_err`;
                // the remaining broadcasts are abandoned (zeroed views)
                // and the caller returns the error after the loop unwinds.
                for j in 0..k {
                    for (w, &x) in words.iter_mut().zip(v.iter().skip(j).step_by(k)) {
                        *w = encode(x);
                    }
                    if comm_err.is_none() {
                        if let Err(e) = clique.broadcast_all_into(words, view) {
                            *comm_err = Some(e);
                        }
                    }
                    if comm_err.is_some() {
                        view.clear();
                        view.resize(words.len(), 0);
                    }
                    for (s, &w) in shared.iter_mut().skip(j).step_by(k).zip(&view[..n]) {
                        *s = decode(w);
                    }
                }
                self.laplacian.matvec_multi_into(shared, k, out);
            };
            // B = α·S_H  ⇒  B-solve = (1/α)·S_H†; internal, zero rounds.
            let solve_b = |r: &[f64], z: &mut [f64]| {
                self.inner.solve_multi_into(r, k, z, scratch);
                for zi in z.iter_mut() {
                    *zi /= alpha;
                }
            };
            cc_linalg::chebyshev_solve_fixed_into(
                apply_a, solve_b, b_proj, kappa, iterations, xs, cheby,
            )
        });
        if let Some(e) = comm_err {
            return Err(CoreError::Comm(e));
        }
        // Canonical representative: zero mean per component (free).
        self.project_multi_in_place(xs, k, &mut ws.comp_sums, &mut ws.comp_counts);
        Ok(spent)
    }
}

/// One-shot convenience: build the solver and solve a single system,
/// charging all rounds (sparsifier + iterations) to `clique`.
///
/// # Errors
///
/// Propagates [`LaplacianSolver::build`] errors.
///
/// # Panics
///
/// Panics under the same conditions as [`LaplacianSolver::solve`].
pub fn solve_laplacian<C: Communicator>(
    clique: &mut C,
    g: &Graph,
    b: &[f64],
    eps: f64,
    options: &SolverOptions,
) -> Result<SolveOutcome, CoreError> {
    let solver = LaplacianSolver::build(clique, g, options)?;
    solver.solve(clique, b, eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;
    use cc_model::Clique;

    fn st_rhs(n: usize, s: usize, t: usize) -> Vec<f64> {
        let mut b = vec![0.0; n];
        b[s] = 1.0;
        b[t] = -1.0;
        b
    }

    #[test]
    fn meets_requested_accuracy_across_eps() {
        let g = generators::random_connected(24, 60, 8, 1);
        let mut clique = Clique::new(24);
        let solver = LaplacianSolver::build(&mut clique, &g, &SolverOptions::default()).unwrap();
        let b = st_rhs(24, 0, 23);
        for &eps in &[1e-1, 1e-4, 1e-8] {
            let out = solver.solve(&mut clique, &b, eps).unwrap();
            let err = out.relative_error().expect("reference enabled");
            assert!(
                err <= eps * 1.05,
                "eps={eps} err={err} iters={}",
                out.iterations
            );
        }
    }

    #[test]
    fn iteration_count_scales_with_log_eps() {
        let g = generators::expander(32);
        let mut clique = Clique::new(32);
        let solver = LaplacianSolver::build(&mut clique, &g, &SolverOptions::default()).unwrap();
        let i2 = solver.iterations_for(1e-2);
        let i8 = solver.iterations_for(1e-8);
        assert!(i8 > i2);
        // log-linear shape: quadrupling the digits should not blow up more
        // than ~5x the iterations.
        assert!(i8 <= 5 * i2.max(1));
    }

    #[test]
    fn each_iteration_is_one_broadcast_round() {
        let g = generators::expander(16);
        let mut clique = Clique::new(16);
        let solver = LaplacianSolver::build(&mut clique, &g, &SolverOptions::default()).unwrap();
        let before = clique.ledger().total_rounds();
        let out = solver.solve(&mut clique, &st_rhs(16, 0, 8), 1e-6).unwrap();
        let spent = clique.ledger().total_rounds() - before;
        assert_eq!(spent, out.iterations as u64);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(3, 4, 1.0);
        let mut clique = Clique::new(6);
        let solver = LaplacianSolver::build(&mut clique, &g, &SolverOptions::default()).unwrap();
        // Demand inside each component.
        let mut b = vec![0.0; 6];
        b[0] = 1.0;
        b[2] = -1.0;
        b[3] = 2.0;
        b[4] = -2.0;
        let out = solver.solve(&mut clique, &b, 1e-9).unwrap();
        assert!(out.relative_error().unwrap() <= 1e-8);
        // Isolated vertex keeps zero.
        assert_eq!(out.x[5], 0.0);
    }

    #[test]
    fn weighted_graph_with_large_u() {
        let g = generators::random_connected(20, 50, 1 << 12, 3);
        let mut clique = Clique::new(20);
        let solver = LaplacianSolver::build(&mut clique, &g, &SolverOptions::default()).unwrap();
        let out = solver.solve(&mut clique, &st_rhs(20, 0, 19), 1e-7).unwrap();
        assert!(out.relative_error().unwrap() <= 1e-7 * 1.05);
    }

    #[test]
    fn one_shot_helper_works() {
        let g = generators::grid(4, 5);
        let mut clique = Clique::new(20);
        let b = st_rhs(20, 0, 19);
        let out = solve_laplacian(&mut clique, &g, &b, 1e-6, &SolverOptions::default()).unwrap();
        assert!(out.relative_error().unwrap() <= 1e-6 * 1.05);
        assert!(clique.ledger().phase_prefix_total("sparsify") > 0);
        assert!(clique.ledger().phase_prefix_total("laplacian_solve") > 0);
    }

    #[test]
    fn nonzero_mean_rhs_is_projected() {
        let g = generators::cycle(8);
        let mut clique = Clique::new(8);
        let solver = LaplacianSolver::build(&mut clique, &g, &SolverOptions::default()).unwrap();
        let b = vec![1.0; 8]; // entirely in the nullspace
        let out = solver.solve(&mut clique, &b, 1e-6).unwrap();
        assert!(out.x.iter().all(|&x| x.abs() < 1e-9));
        assert_eq!(out.relative_error(), Some(0.0));
    }

    #[test]
    fn fixed_point_messages_degrade_gracefully() {
        // Paper footnote 2: O(log n)-bit words suffice up to polylog
        // factors. With generous fractional bits the solver still meets a
        // moderate ε; with very few bits the error visibly degrades.
        let g = generators::expander(24);
        let b = st_rhs(24, 0, 12);
        let run = |bits: Option<u32>, eps: f64| {
            let mut clique = Clique::new(24);
            let solver = LaplacianSolver::build(
                &mut clique,
                &g,
                &SolverOptions {
                    message_frac_bits: bits,
                    ..Default::default()
                },
            )
            .unwrap();
            solver
                .solve(&mut clique, &b, eps)
                .unwrap()
                .relative_error()
                .unwrap()
        };
        assert!(
            run(Some(44), 1e-6) <= 1e-6 * 1.5,
            "44 bits must suffice for 1e-6"
        );
        let coarse = run(Some(8), 1e-10);
        let fine = run(None, 1e-10);
        assert!(
            coarse > fine,
            "8-bit quantization must be visible: {coarse} vs {fine}"
        );
    }

    #[test]
    fn randomized_sparsifier_plugs_into_the_solver() {
        let g = generators::random_connected(24, 100, 4, 6);
        let mut clique = Clique::new(24);
        let h = cc_sparsify::build_randomized_sparsifier(&mut clique, &g, 3, None).unwrap();
        let solver = LaplacianSolver::with_sparsifier(&g, h, &SolverOptions::default()).unwrap();
        let b = st_rhs(24, 0, 23);
        let out = solver.solve(&mut clique, &b, 1e-7).unwrap();
        assert!(out.relative_error().unwrap() <= 1e-7 * 1.05);
    }

    #[test]
    fn skip_reference_returns_no_error_but_same_solution() {
        let g = generators::expander(16);
        let b = st_rhs(16, 0, 8);
        let mut c1 = Clique::new(16);
        let with_ref = LaplacianSolver::build(&mut c1, &g, &SolverOptions::default()).unwrap();
        let mut c2 = Clique::new(16);
        let without_ref = LaplacianSolver::build(
            &mut c2,
            &g,
            &SolverOptions {
                skip_reference: true,
                ..Default::default()
            },
        )
        .unwrap();
        let a = with_ref.solve(&mut c1, &b, 1e-8).unwrap();
        let z = without_ref.solve(&mut c2, &b, 1e-8).unwrap();
        assert_eq!(
            a.x, z.x,
            "reference computation must not affect the solution"
        );
        assert!(a.relative_error().expect("reference enabled").is_finite());
        assert!(z.relative_error().is_none());
    }

    #[test]
    fn deterministic_solutions() {
        let g = generators::random_connected(16, 40, 4, 9);
        let run = || {
            let mut clique = Clique::new(16);
            let solver =
                LaplacianSolver::build(&mut clique, &g, &SolverOptions::default()).unwrap();
            solver
                .solve(&mut clique, &st_rhs(16, 2, 13), 1e-8)
                .unwrap()
                .x
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn solve_into_matches_solve_bitwise_and_reuses_workspace() {
        let g = generators::random_connected(20, 48, 6, 4);
        let mut c1 = Clique::new(20);
        let solver = LaplacianSolver::build(&mut c1, &g, &SolverOptions::default()).unwrap();
        let mut ws = SolveWorkspace::new();
        let mut x = Vec::new();
        // One workspace across several right-hand sides; every solve must
        // match the allocating path bitwise and charge identical rounds.
        for (s, t) in [(0usize, 19usize), (3, 11), (7, 2)] {
            let b = st_rhs(20, s, t);
            let before = c1.ledger().total_rounds();
            let out = solver.solve(&mut c1, &b, 1e-8).unwrap();
            let solve_rounds = c1.ledger().total_rounds() - before;
            let before = c1.ledger().total_rounds();
            let spent = solver
                .solve_into(&mut c1, &b, 1e-8, &mut x, &mut ws)
                .unwrap();
            let into_rounds = c1.ledger().total_rounds() - before;
            assert_eq!(spent, out.iterations);
            assert_eq!(solve_rounds, into_rounds);
            assert_eq!(out.x.len(), x.len());
            for (a, b) in out.x.iter().zip(&x) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn solve_multi_into_matches_singles_bitwise_and_in_rounds() {
        let g = generators::random_connected(18, 44, 5, 8);
        let mut clique = Clique::new(18);
        let solver = LaplacianSolver::build(&mut clique, &g, &SolverOptions::default()).unwrap();
        let pairs = [(0usize, 17usize), (2, 9), (5, 13)];
        let k = pairs.len();
        let mut ws = SolveWorkspace::new();
        let mut singles = Vec::new();
        let before = clique.ledger().total_rounds();
        for &(s, t) in &pairs {
            let mut x = Vec::new();
            let b = st_rhs(18, s, t);
            solver
                .solve_into(&mut clique, &b, 1e-8, &mut x, &mut ws)
                .unwrap();
            singles.push(x);
        }
        let single_rounds = clique.ledger().total_rounds() - before;

        // Interleaved batch of the same right-hand sides.
        let mut bs = vec![0.0; 18 * k];
        for (j, &(s, t)) in pairs.iter().enumerate() {
            bs[s * k + j] = 1.0;
            bs[t * k + j] = -1.0;
        }
        let mut xs = Vec::new();
        let before = clique.ledger().total_rounds();
        let spent = solver
            .solve_multi_into(&mut clique, &bs, k, 1e-8, &mut xs, &mut ws)
            .unwrap();
        let batch_rounds = clique.ledger().total_rounds() - before;
        assert_eq!(spent, solver.iterations_for(1e-8));
        assert_eq!(
            batch_rounds, single_rounds,
            "batch must charge exactly k single solves' rounds"
        );
        for (j, x) in singles.iter().enumerate() {
            for v in 0..18 {
                assert_eq!(
                    x[v].to_bits(),
                    xs[v * k + j].to_bits(),
                    "column {j} entry {v} must match the single solve bitwise"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "rhs length mismatch")]
    fn rejects_wrong_rhs_length() {
        let g = generators::cycle(4);
        let mut clique = Clique::new(4);
        let solver = LaplacianSolver::build(&mut clique, &g, &SolverOptions::default()).unwrap();
        let _ = solver.solve(&mut clique, &[1.0, -1.0], 1e-3);
    }
}
