//! Electrical flows on top of the Laplacian solver.
//!
//! Both interior point methods (Appendix B and C of the paper) reduce each
//! iteration to an *electrical flow* computation: given per-edge
//! resistances `r_e` and a demand vector `χ`, find vertex potentials
//! `φ = L† χ` for the Laplacian of conductances `1/r_e`, and route
//! `f_e = (φ_u − φ_v)/r_e` on every edge. This module packages that
//! reduction over [`crate::LaplacianSolver`]. The IPMs keep one network
//! per edge support and [`ElectricalNetwork::reweight`] it in place every
//! step instead of building a new one.

use cc_graph::Graph;
use cc_model::Communicator;
use cc_sparsify::{build_sparsifier_with_template, InstantiateScratch, SparsifierTemplate};

use crate::{CoreError, LaplacianSolver, SolveWorkspace, SolverOptions};

/// An undirected network with positive edge resistances, ready to answer
/// electrical flow queries in the congested clique.
#[derive(Debug, Clone)]
pub struct ElectricalNetwork {
    edges: Vec<(usize, usize, f64)>,
    resistances: Vec<f64>,
    /// Conductances `1/r_e` — the weights of the solved graph.
    conductances: Vec<f64>,
    solver: LaplacianSolver,
    /// Template-instantiation buffers of [`ElectricalNetwork::reweight`].
    scratch: InstantiateScratch,
}

/// Result of an electrical flow computation.
///
/// Implements `Default` (empty buffers) so one instance can be reused as
/// the output slot of many [`ElectricalNetwork::flow_into`] calls.
#[derive(Debug, Clone, Default)]
pub struct ElectricalFlow {
    /// Vertex potentials `φ ≈ L†χ` (zero mean per component).
    pub potentials: Vec<f64>,
    /// Edge flows `f_e = (φ_u − φ_v)/r_e`, oriented `u → v` per the edge
    /// list passed to [`ElectricalNetwork::build`].
    pub flows: Vec<f64>,
    /// Energy `Σ_e r_e f_e²` of the computed flow.
    pub energy: f64,
    /// Chebyshev iterations (= broadcast rounds) the solve used.
    pub iterations: usize,
}

impl ElectricalNetwork {
    /// Builds the network from `(u, v, resistance)` triples on `n`
    /// vertices, constructing the deterministic sparsifier of the
    /// conductance graph in `clique`.
    ///
    /// # Errors
    ///
    /// Propagates solver construction failures.
    ///
    /// # Panics
    ///
    /// Panics if a resistance is not strictly positive or an endpoint is
    /// out of range.
    pub fn build<C: Communicator>(
        clique: &mut C,
        n: usize,
        edges: &[(usize, usize, f64)],
        options: &SolverOptions,
    ) -> Result<Self, CoreError> {
        let g = conductance_graph(n, edges);
        let solver = LaplacianSolver::build(clique, &g, options)?;
        Ok(Self::from_parts(edges, &g, solver))
    }

    /// Like [`ElectricalNetwork::build`], additionally returning a
    /// [`SparsifierTemplate`] so later networks on the *same edge support*
    /// (the interior point methods change only resistances) can skip the
    /// expander re-decomposition via
    /// [`ElectricalNetwork::build_from_template`].
    ///
    /// # Errors
    ///
    /// Propagates solver construction failures.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ElectricalNetwork::build`].
    pub fn build_capturing<C: Communicator>(
        clique: &mut C,
        n: usize,
        edges: &[(usize, usize, f64)],
        options: &SolverOptions,
    ) -> Result<(Self, SparsifierTemplate), CoreError> {
        let g = conductance_graph(n, edges);
        let (sparsifier, template) = build_sparsifier_with_template(clique, &g, &options.sparsify)?;
        let solver = LaplacianSolver::with_sparsifier(&g, sparsifier, options)?;
        Ok((Self::from_parts(edges, &g, solver), template))
    }

    /// Builds the network by instantiating a previously captured
    /// [`SparsifierTemplate`] for the new resistances — no expander
    /// re-decomposition, per-cluster certificates recomputed exactly.
    /// This sizes a network; later steps on the same support refill it
    /// with [`ElectricalNetwork::reweight`].
    ///
    /// # Errors
    ///
    /// Propagates solver construction failures.
    ///
    /// # Panics
    ///
    /// Panics if the template's edge support differs from `edges`.
    pub fn build_from_template<C: Communicator>(
        clique: &mut C,
        n: usize,
        edges: &[(usize, usize, f64)],
        template: &SparsifierTemplate,
        options: &SolverOptions,
    ) -> Result<Self, CoreError> {
        let g = conductance_graph(n, edges);
        let sparsifier = template.instantiate(clique, &g)?;
        let solver = LaplacianSolver::with_sparsifier(&g, sparsifier, options)?;
        Ok(Self::from_parts(edges, &g, solver))
    }

    fn from_parts(edges: &[(usize, usize, f64)], g: &Graph, solver: LaplacianSolver) -> Self {
        Self {
            edges: edges.iter().map(|&(u, v, _)| (u, v, 0.0)).collect(),
            resistances: edges.iter().map(|&(_, _, r)| r).collect(),
            conductances: g.edges().iter().map(|e| e.weight).collect(),
            solver,
            scratch: InstantiateScratch::default(),
        }
    }

    /// Reweights the network in place for new resistances on the same
    /// edge support (same endpoints in the same order), instantiating
    /// `template` — the sparsifier template of that support. The
    /// conductances `1/r` are written straight into the solved graph's
    /// weights, the Laplacian and the preconditioner are refilled and
    /// refactored over their fixed patterns, and no graph, sparsifier or
    /// factor is rebuilt. The network is bitwise equal to
    /// [`ElectricalNetwork::build_from_template`] on the same input and
    /// charges the same rounds; once the network has been reweighted
    /// once, a call allocates nothing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ElectricalNetwork::build_from_template`]. The
    /// network is then unusable until a later reweight succeeds.
    ///
    /// # Panics
    ///
    /// Panics if the edge count differs from the network's, or a
    /// resistance is not strictly positive and finite.
    pub fn reweight<C: Communicator>(
        &mut self,
        clique: &mut C,
        edges: &[(usize, usize, f64)],
        template: &SparsifierTemplate,
    ) -> Result<(), CoreError> {
        assert_eq!(edges.len(), self.edges.len(), "edge support changed");
        for ((&(u, v, r), slot), (res, cond)) in edges
            .iter()
            .zip(&self.edges)
            .zip(self.resistances.iter_mut().zip(&mut self.conductances))
        {
            debug_assert_eq!((u, v), (slot.0, slot.1), "edge support changed");
            check_resistance(r);
            *res = r;
            *cond = 1.0 / r;
        }
        self.solver
            .reweight(clique, &self.conductances, template, &mut self.scratch)
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.solver.n()
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The per-edge resistances.
    pub fn resistances(&self) -> &[f64] {
        &self.resistances
    }

    /// Certified approximation factor `α` of the preconditioning
    /// sparsifier.
    pub fn alpha(&self) -> f64 {
        self.solver.sparsifier().alpha()
    }

    /// The Chebyshev condition bound `κ = α²` the solves use.
    pub fn kappa(&self) -> f64 {
        self.solver.kappa()
    }

    /// Computes the electrical flow for demand `chi` to solver accuracy
    /// `eps` (relative `L`-norm error, Theorem 1.1), charging rounds to
    /// `clique`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Comm`] if the communication substrate rejects a solve
    /// iteration's broadcast.
    ///
    /// # Panics
    ///
    /// Panics if `chi.len() != n` or `eps ≤ 0`.
    pub fn flow<C: Communicator>(
        &self,
        clique: &mut C,
        chi: &[f64],
        eps: f64,
    ) -> Result<ElectricalFlow, CoreError> {
        let mut out = ElectricalFlow::default();
        let mut ws = SolveWorkspace::new();
        self.flow_into(clique, chi, eps, &mut out, &mut ws)?;
        Ok(out)
    }

    /// [`ElectricalNetwork::flow`] into caller-owned buffers: identical
    /// round accounting and bitwise-identical result, but `out` and `ws`
    /// are reused, so the steady-state call performs no heap allocation —
    /// the per-iteration path of the interior point methods (`cc-ipm`).
    ///
    /// # Errors
    ///
    /// [`CoreError::Comm`] if the communication substrate rejects a solve
    /// iteration's broadcast.
    ///
    /// # Panics
    ///
    /// Panics if `chi.len() != n` or `eps ≤ 0`.
    pub fn flow_into<C: Communicator>(
        &self,
        clique: &mut C,
        chi: &[f64],
        eps: f64,
        out: &mut ElectricalFlow,
        ws: &mut SolveWorkspace,
    ) -> Result<(), CoreError> {
        out.iterations = self
            .solver
            .solve_into(clique, chi, eps, &mut out.potentials, ws)?;
        out.flows.clear();
        out.flows.reserve(self.edges.len());
        let mut energy = 0.0;
        for (&(u, v, _), &r) in self.edges.iter().zip(&self.resistances) {
            let f = (out.potentials[u] - out.potentials[v]) / r;
            energy += r * f * f;
            out.flows.push(f);
        }
        out.energy = energy;
        Ok(())
    }

    /// Approximate effective resistance between `s` and `t`:
    /// `R_eff = φ_s − φ_t` for the unit `s`-`t` electrical flow.
    ///
    /// # Errors
    ///
    /// [`CoreError::Comm`] if the communication substrate rejects a solve
    /// iteration's broadcast.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either vertex is out of range.
    pub fn effective_resistance<C: Communicator>(
        &self,
        clique: &mut C,
        s: usize,
        t: usize,
        eps: f64,
    ) -> Result<f64, CoreError> {
        assert!(s != t && s < self.n() && t < self.n(), "bad terminals");
        let mut chi = vec![0.0; self.n()];
        chi[s] = 1.0;
        chi[t] = -1.0;
        let flow = self.flow(clique, &chi, eps)?;
        Ok(flow.potentials[s] - flow.potentials[t])
    }
}

/// Conductance graph of a resistor list (weight = 1/r).
fn conductance_graph(n: usize, edges: &[(usize, usize, f64)]) -> Graph {
    let mut g = Graph::new(n);
    for &(u, v, r) in edges {
        check_resistance(r);
        g.add_edge(u, v, 1.0 / r);
    }
    g
}

fn check_resistance(r: f64) {
    assert!(r > 0.0, "resistances must be positive, got {r}");
    assert!(r.is_finite(), "resistances must be finite");
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_model::Clique;

    fn unit_resistances(edges: &[(usize, usize)]) -> Vec<(usize, usize, f64)> {
        edges.iter().map(|&(u, v)| (u, v, 1.0)).collect()
    }

    #[test]
    fn series_resistors_add() {
        // 0 -1Ω- 1 -2Ω- 2: R_eff(0,2) = 3.
        let mut clique = Clique::new(3);
        let net = ElectricalNetwork::build(
            &mut clique,
            3,
            &[(0, 1, 1.0), (1, 2, 2.0)],
            &SolverOptions::default(),
        )
        .unwrap();
        let r = net.effective_resistance(&mut clique, 0, 2, 1e-10).unwrap();
        assert!((r - 3.0).abs() < 1e-8, "got {r}");
    }

    #[test]
    fn parallel_resistors_combine() {
        // Two 1Ω edges in parallel: R_eff = 1/2.
        let mut clique = Clique::new(2);
        let net = ElectricalNetwork::build(
            &mut clique,
            2,
            &[(0, 1, 1.0), (0, 1, 1.0)],
            &SolverOptions::default(),
        )
        .unwrap();
        let r = net.effective_resistance(&mut clique, 0, 1, 1e-10).unwrap();
        assert!((r - 0.5).abs() < 1e-8, "got {r}");
    }

    #[test]
    fn flow_conservation_holds() {
        let edges = unit_resistances(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let mut clique = Clique::new(4);
        let net =
            ElectricalNetwork::build(&mut clique, 4, &edges, &SolverOptions::default()).unwrap();
        let mut chi = vec![0.0; 4];
        chi[0] = 2.0;
        chi[3] = -2.0;
        let flow = net.flow(&mut clique, &chi, 1e-10).unwrap();
        // Net outflow at every vertex matches the demand.
        let mut net_out = [0.0; 4];
        for (i, &(u, v, _)) in net.edges.iter().enumerate() {
            net_out[u] += flow.flows[i];
            net_out[v] -= flow.flows[i];
        }
        for (got, want) in net_out.iter().zip(&chi) {
            assert!((got - want).abs() < 1e-7, "{got} vs {want}");
        }
    }

    #[test]
    fn energy_equals_chi_dot_phi() {
        // Thomson principle bookkeeping: E = χᵀφ for the exact flow.
        let edges = unit_resistances(&[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut clique = Clique::new(4);
        let net =
            ElectricalNetwork::build(&mut clique, 4, &edges, &SolverOptions::default()).unwrap();
        let mut chi = vec![0.0; 4];
        chi[1] = 1.0;
        chi[3] = -1.0;
        let flow = net.flow(&mut clique, &chi, 1e-11).unwrap();
        let chi_phi: f64 = chi.iter().zip(&flow.potentials).map(|(a, b)| a * b).sum();
        assert!((flow.energy - chi_phi).abs() < 1e-7);
    }

    #[test]
    fn template_reuse_answers_match_fresh_builds() {
        // IPM-style loop: same support, resistances drifting each step.
        let base: Vec<(usize, usize, f64)> = vec![
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 0, 1.0),
            (0, 2, 1.0),
        ];
        let mut clique = Clique::new(4);
        let (_, template) =
            ElectricalNetwork::build_capturing(&mut clique, 4, &base, &SolverOptions::default())
                .unwrap();
        let mut chi = vec![0.0; 4];
        chi[0] = 1.0;
        chi[3] = -1.0;
        for step in 1..4 {
            let edges: Vec<(usize, usize, f64)> = base
                .iter()
                .enumerate()
                .map(|(i, &(u, v, r))| (u, v, r * (1.0 + 0.5 * (step * (i + 1)) as f64)))
                .collect();
            let fresh = ElectricalNetwork::build(&mut clique, 4, &edges, &SolverOptions::default())
                .unwrap();
            let reused = ElectricalNetwork::build_from_template(
                &mut clique,
                4,
                &edges,
                &template,
                &SolverOptions::default(),
            )
            .unwrap();
            let a = fresh.flow(&mut clique, &chi, 1e-10).unwrap();
            let b = reused.flow(&mut clique, &chi, 1e-10).unwrap();
            for (x, y) in a.flows.iter().zip(&b.flows) {
                assert!((x - y).abs() < 1e-7, "step {step}: {x} vs {y}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_resistance() {
        let mut clique = Clique::new(2);
        let _ = ElectricalNetwork::build(&mut clique, 2, &[(0, 1, 0.0)], &SolverOptions::default());
    }
}
