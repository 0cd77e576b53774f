//! The CMSV interior point method core (Algorithms 6–9) in the congested
//! clique, plus the full Theorem 1.3 pipeline.
//!
//! Since the barrier-engine refactor (`DESIGN.md` §8) this module is a
//! thin *problem adapter*: it supplies the ν-weighted two-sided barrier
//! gradient on `f_e ∈ (0, 1)`, the `‖ρ‖_{ν,4}` step rule and the
//! rounding/repair hooks, while [`cc_ipm::BarrierEngine`] owns the
//! electrical builds (with sparsifier template reuse), the
//! allocation-free solve workspace and the per-stage [`EngineStats`].

use cc_apsp::RoundModel;
use cc_core::{ElectricalFlow, SolverOptions};
use cc_graph::DiGraph;
use cc_ipm::{top_k_into, BarrierEngine, EngineOptions, EngineStats, EDGE_CHUNK};
use cc_model::Communicator;
use cc_sparsify::TemplateCache;

use crate::repair::{cancel_negative_cycles, comm_rooted, route_deficits, McfError};
use crate::snap::snap_to_sigma_multiples;

/// Options of [`min_cost_flow_ipm`].
#[derive(Debug, Clone, Copy)]
pub struct McfOptions {
    /// Accuracy of every Laplacian solve (`Ω(1/poly m)`, \[CMSV17\]).
    pub solver_eps: f64,
    /// Progress-step budget; `None` selects the paper's `Õ(m^{3/7})`
    /// formula with constants suited to simulable sizes.
    pub max_progress_steps: Option<usize>,
    /// CMSV's `η` (Algorithm 7 line 13 sets `η = 1/14`); governs the
    /// perturbation threshold `c_ρ · m^{1/2−η}`.
    pub eta: f64,
    /// Round accounting of the repair phase's APSP calls.
    pub round_model: RoundModel,
    /// Laplacian solver (sparsifier) options.
    pub solver: SolverOptions,
    /// Reuse one expander decomposition across the IPM's electrical
    /// solves (fixed edge support; certificates recomputed per step).
    pub reuse_sparsifier: bool,
}

impl Default for McfOptions {
    fn default() -> Self {
        Self {
            solver_eps: 1e-10,
            max_progress_steps: None,
            eta: 1.0 / 14.0,
            round_model: RoundModel::FastMatMul,
            solver: SolverOptions {
                // The IPM never reads the exact reference solution; skip
                // its O(n³) factorization per electrical solve.
                skip_reference: true,
                ..SolverOptions::default()
            },
            reuse_sparsifier: true,
        }
    }
}

/// The engine-facing slice of [`McfOptions`].
fn engine_options(options: &McfOptions) -> EngineOptions {
    EngineOptions {
        solver_eps: options.solver_eps,
        solver: options.solver,
        reuse_sparsifier: options.reuse_sparsifier,
    }
}

/// Pipeline statistics — what the E7 experiment reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct McfStats {
    /// Progress steps executed (Algorithm 9 invocations).
    pub progress_steps: usize,
    /// Perturbation (`ν` doubling) steps executed.
    pub perturbation_steps: usize,
    /// Fraction of `‖σ‖₁` the fractional flow satisfied before rounding.
    pub ipm_progress: f64,
    /// True if the snap/rounding guard rejected the fractional flow.
    pub fell_back_to_zero: bool,
    /// Deficit-routing augmenting paths (Algorithm 10's `Õ(m^{3/7})` loop).
    pub repair_paths: usize,
    /// Negative cycles cancelled by the optimality backstop.
    pub cancelled_cycles: usize,
    /// Per-stage barrier-engine accounting (`progress` / `correction`
    /// solves, Chebyshev iterations, sparsifier builds vs template
    /// reuses, ledger rounds).
    pub engine: EngineStats,
}

/// Result of a distributed min cost flow computation.
#[derive(Debug, Clone)]
pub struct McfOutcome {
    /// Exact minimum cost flow, one value per edge.
    pub flow: Vec<i64>,
    /// Its cost.
    pub cost: i64,
    /// Pipeline statistics.
    pub stats: McfStats,
}

/// The paper's `Õ(m^{3/7} polylog W)` step budget with simulable constants.
pub fn default_step_budget(m: usize, max_cost: i64) -> usize {
    let m = m.max(2) as f64;
    let w = max_cost.max(1) as f64;
    let steps = 3.0 * m.powf(3.0 / 7.0) * (w + 2.0).ln();
    (steps.ceil() as usize).clamp(8, 600)
}

/// The ν-weighted two-sided barrier gradient
/// `r_e = ν_e (1/f² + 1/(1−f)²)`, one fixed chunk at a time. Handed to
/// [`BarrierEngine::resistances_into`]; every slot is a pure function of
/// its edge index, so the fan-out is bitwise thread-count independent.
fn fill_barrier(g: &DiGraph, f: &[f64], nu: &[f64], base: usize, out: &mut [(usize, usize, f64)]) {
    let edges = g.edges();
    for (j, slot) in out.iter_mut().enumerate() {
        let i = base + j;
        let e = &edges[i];
        let fe = f[i];
        let r = nu[i] * (1.0 / (fe * fe) + 1.0 / ((1.0 - fe) * (1.0 - fe)));
        *slot = (e.from, e.to, r.clamp(1e-12, 1e12));
    }
}

/// IPM core: log-barrier on `f_e ∈ (0, 1)` from the analytic center
/// `f = 1/2` (standing in for CMSV's bipartite lifting, `DESIGN.md` §2.6),
/// with Algorithm 9 progress steps and Algorithm 8-style perturbations.
/// Returns the fractional flow and statistics.
fn ipm_core<C: Communicator>(
    clique: &mut C,
    g: &DiGraph,
    sigma: &[i64],
    options: &McfOptions,
    cache: Option<&TemplateCache>,
) -> Result<(Vec<f64>, McfStats), McfError> {
    let n = g.n();
    let m = g.m();
    let mut f = vec![0.5f64; m];
    let mut nu = vec![1.0f64; m]; // CMSV's ν weights
    let mut y = vec![0.0f64; n]; // duals
    let mut stats = McfStats::default();
    let mut engine: BarrierEngine<C> = BarrierEngine::new(n, engine_options(options));
    if let Some(cache) = cache {
        engine.set_template_cache(cache.clone());
    }
    let sigma_f: Vec<f64> = sigma.iter().map(|&s| s as f64).collect();
    let sigma_l1: f64 = sigma.iter().map(|&s| s.abs() as f64).sum();
    if m == 0 {
        return Ok((f, stats));
    }

    // Per-iteration buffers, sized once: the steady-state loop body's
    // solve path allocates nothing (see `crates/ipm/tests/alloc_free.rs`).
    let mut d = vec![0.0f64; n];
    let mut remaining: Vec<f64> = Vec::with_capacity(n);
    let mut residue: Vec<f64> = Vec::with_capacity(n);
    let mut worst: Vec<(usize, f64)> = Vec::with_capacity(m);
    let mut electrical = ElectricalFlow::default();
    let mut correction = ElectricalFlow::default();

    let budget = options
        .max_progress_steps
        .unwrap_or_else(|| default_step_budget(m, g.max_abs_cost()));
    // Algorithm 7 line 13: c_ρ = 400·√3·log^{1/3} W — asymptotic; floor it
    // for simulable sizes so perturbation triggers on genuine concentration.
    let w = g.max_abs_cost().max(2) as f64;
    let c_rho = (400.0 * 3f64.sqrt() * w.ln().powf(1.0 / 3.0)) / 100.0;
    let rho_threshold = c_rho * (m as f64).powf(0.5 - options.eta);

    let net_out_into = |f: &[f64], d: &mut [f64]| {
        d.fill(0.0);
        for (i, e) in g.edges().iter().enumerate() {
            d[e.from] += f[i];
            d[e.to] -= f[i];
        }
    };

    clique.phase("mcf_ipm", |clique| -> Result<(), McfError> {
        for _step in 0..budget {
            // Remaining demand the electrical step must route
            // (Algorithm 9 line 2 solves L φ = σ̂ for the current target).
            net_out_into(&f, &mut d);
            remaining.clear();
            remaining.extend(sigma_f.iter().zip(&d).map(|(s, o)| s - o));
            let rem_norm: f64 = remaining.iter().map(|r| r.abs()).sum();
            if rem_norm < 1e-7 {
                break;
            }
            // Resistances r_e = ν_e (1/f² + 1/(1−f)²): CMSV's ν/f² barrier
            // extended two-sidedly for the explicit unit capacity.
            let min_gap = engine.resistances_into(
                m,
                |base, out| fill_barrier(g, &f, &nu, base, out),
                |i| {
                    let fe = f[i];
                    fe.min(1.0 - fe)
                },
            );
            if min_gap < 1e-7 {
                break;
            }
            match engine.build_network(clique, "progress") {
                Ok(()) => {}
                // Comm-rooted failures (injected faults, congestion
                // rejections) must surface; numerical degradation hands
                // over to repair as before.
                Err(e) if comm_rooted(&e) => return Err(e.into()),
                Err(_) => break,
            }
            engine.flow_into(clique, "progress", &remaining, &mut electrical)?;
            let f_tilde = &electrical.flows;

            // Congestion ρ_e = f̃_e / min(f, 1−f) with ν weights
            // (Algorithm 9 line 3); norms aggregated in one broadcast.
            let mut rho4 = 0.0f64;
            let mut rho3 = 0.0f64;
            let mut rho_inf = 0.0f64;
            for ((&fe, &fte), &ne) in f.iter().zip(f_tilde).zip(&nu) {
                let gap = fe.min(1.0 - fe);
                let rho = fte / gap;
                rho4 += ne * rho.abs().powi(4);
                rho3 += ne * rho.abs().powi(3);
                rho_inf = rho_inf.max(rho.abs());
            }
            let rho4 = rho4.powf(0.25);
            let rho3 = rho3.cbrt();
            engine.norm_roundtrip(clique)?;

            if rho3 > rho_threshold {
                // Perturbation (Algorithm 8): double ν on the congested
                // edges; duals shift with the slack (here: damping only —
                // the verdict-relevant effect is the ν reweighting).
                let rho = (f.iter().zip(f_tilde)).map(|(&fe, &fte)| (fte / fe.min(1.0 - fe)).abs());
                let k = ((m as f64).powf(2.0 * options.eta).ceil() as usize).max(1);
                for &(i, _) in top_k_into(rho, k, &mut worst) {
                    nu[i] *= 2.0;
                }
                stats.perturbation_steps += 1;
                engine.norm_roundtrip(clique)?;
            }

            // Step (Algorithm 9 line 4): δ = min(1/(8‖ρ‖_{ν,4}), 1/8),
            // additionally capped for hard feasibility.
            let delta = (1.0 / (8.0 * rho4.max(1e-12)))
                .min(0.125)
                .min(0.25 / rho_inf.max(1e-12));
            if delta < 1e-12 {
                break;
            }
            cc_linalg::par::par_chunks_mut(&mut f, EDGE_CHUNK, |ci, fs| {
                let base = ci * EDGE_CHUNK;
                for (j, fe) in fs.iter_mut().enumerate() {
                    *fe += delta * f_tilde[base + j];
                    *fe = fe.clamp(1e-9, 1.0 - 1e-9);
                }
            });
            for (yv, &pv) in y.iter_mut().zip(&electrical.potentials) {
                *yv += delta * pv;
            }

            // Residue correction (Algorithm 9 lines 7–10): a second
            // electrical solve re-targets the demands after the step.
            net_out_into(&f, &mut d);
            residue.clear();
            residue.extend(
                sigma_f
                    .iter()
                    .zip(&d)
                    .map(|(s, o)| (s - o) * delta.min(1.0)),
            );
            let res_norm: f64 = residue.iter().map(|r| r * r).sum::<f64>().sqrt();
            engine.record_residual("correction", res_norm);
            if res_norm > 1e-12 {
                engine.resistances_into(
                    m,
                    |base, out| fill_barrier(g, &f, &nu, base, out),
                    |_| f64::INFINITY, // gap unused on the correction build
                );
                let built = match engine.build_network(clique, "correction") {
                    Ok(()) => true,
                    Err(e) if comm_rooted(&e) => return Err(e.into()),
                    Err(_) => false,
                };
                if built {
                    engine.flow_into(clique, "correction", &residue, &mut correction)?;
                    let mut scale = 1.0;
                    for _ in 0..40 {
                        let ok = f.iter().zip(&correction.flows).all(|(&fe, &ce)| {
                            let nf = fe + scale * ce;
                            nf > 1e-9 && nf < 1.0 - 1e-9
                        });
                        if ok {
                            for (fe, &ce) in f.iter_mut().zip(&correction.flows) {
                                *fe += scale * ce;
                            }
                            break;
                        }
                        scale *= 0.5;
                    }
                }
            }
            stats.progress_steps += 1;
        }

        net_out_into(&f, &mut d);
        let satisfied: f64 = sigma_f
            .iter()
            .zip(&d)
            .map(|(s, o)| s.abs() - (s - o).abs())
            .sum::<f64>()
            .max(0.0);
        stats.ipm_progress = if sigma_l1 > 0.0 {
            (satisfied / sigma_l1).clamp(0.0, 1.0)
        } else {
            1.0
        };
        Ok(())
    })?;
    stats.engine = engine.into_stats();
    Ok((f, stats))
}

/// Exact deterministic unit-capacity minimum cost flow in the congested
/// clique (Theorem 1.3). See the crate docs for the pipeline.
///
/// # Errors
///
/// [`McfError::Infeasible`] if the demands cannot be routed;
/// [`McfError::BadDemands`] if `sigma` is malformed: a length other
/// than `n`, a sum other than zero or beyond `i64`, or some `|σ_v|` above
/// [`cc_graph::flow_util::flow_bound`]; [`McfError::Comm`] /
/// [`McfError::Solver`] / [`McfError::Rounding`] if the communication
/// substrate rejects a primitive call in the respective stage — injected
/// faults surface as typed errors, never as panics or silently wrong
/// flows.
///
/// # Panics
///
/// Panics if `clique.n()` is smaller than the extended graph needs
/// (`g.n() + 2` for the rounding super source/sink).
pub fn min_cost_flow_ipm<C: Communicator>(
    clique: &mut C,
    g: &DiGraph,
    sigma: &[i64],
    options: &McfOptions,
) -> Result<McfOutcome, McfError> {
    min_cost_flow_ipm_inner(clique, g, sigma, options, None)
}

/// Shared implementation of [`min_cost_flow_ipm`] (no cache) and
/// [`crate::McfSession::min_cost_flow`] (session-owned
/// [`TemplateCache`]): with a cache, the IPM engine consults it before
/// its first sparsifier build and publishes what it captures, so
/// repeated solves on one edge support — demand sweeps, conformance
/// soaks — skip the expander decomposition after the first run.
/// Per-cluster certificates are recertified exactly per instantiation;
/// the optimal cost is identical with or without the cache.
pub(crate) fn min_cost_flow_ipm_inner<C: Communicator>(
    clique: &mut C,
    g: &DiGraph,
    sigma: &[i64],
    options: &McfOptions,
    cache: Option<&TemplateCache>,
) -> Result<McfOutcome, McfError> {
    if sigma.len() != g.n() {
        return Err(McfError::BadDemands {
            reason: "length mismatch",
        });
    }
    match sigma.iter().try_fold(0i64, |sum, &s| sum.checked_add(s)) {
        Some(0) => {}
        Some(_) => {
            return Err(McfError::BadDemands {
                reason: "demands must sum to zero",
            })
        }
        None => {
            return Err(McfError::BadDemands {
                reason: "demand sum overflows i64",
            })
        }
    }
    let bound = cc_graph::flow_util::flow_bound(g.n(), g.m()).unsigned_abs();
    if sigma.iter().any(|s| s.unsigned_abs() > bound) {
        return Err(McfError::BadDemands {
            reason: "demands must satisfy |σ_v| ≤ flow_bound(n, m)",
        });
    }
    assert!(
        clique.n() >= g.n() + 2,
        "clique needs {} nodes (graph + super source/sink)",
        g.n() + 2
    );
    clique.phase("mincostflow", |clique| {
        let (fractional, mut stats) = ipm_core(clique, g, sigma, options, cache)?;

        let delta = 1.0 / cc_graph::flow_util::rounding_scale(g.m()) as f64;

        let mut flow = vec![0i64; g.m()];
        if g.m() > 0 {
            if let Some(snapped) = snap_to_sigma_multiples(g, &fractional, sigma, delta) {
                // Extend with super source/sink so Cohen's rounding sees an
                // s-t flow (Algorithm 10 line 4); the integral terminal
                // arcs are never touched by the scaling iterations, so the
                // rounded flow satisfies σ exactly.
                let s_super = g.n();
                let t_super = g.n() + 1;
                let mut ext = DiGraph::new(g.n() + 2);
                for e in g.edges() {
                    ext.add_edge(e.from, e.to, e.capacity, e.cost);
                }
                let mut ext_flow = snapped.clone();
                for (v, &sv) in sigma.iter().enumerate() {
                    if sv > 0 {
                        ext.add_edge(s_super, v, sv, 0);
                        ext_flow.push(sv as f64);
                    } else if sv < 0 {
                        ext.add_edge(v, t_super, -sv, 0);
                        ext_flow.push(-sv as f64);
                    }
                }
                let rounded = cc_euler::round_flow(
                    clique,
                    &ext,
                    &ext_flow,
                    s_super,
                    t_super,
                    delta,
                    &cc_euler::FlowRoundingOptions { use_costs: true },
                )?;
                let candidate: Vec<i64> = rounded.flow[..g.m()].to_vec();
                if g.is_feasible_flow(&candidate, sigma) {
                    flow = candidate;
                } else {
                    stats.fell_back_to_zero = true;
                }
            } else {
                stats.fell_back_to_zero = true;
            }
        }

        // Repairing (Algorithm 10 lines 7–17): route remaining deficits…
        stats.repair_paths = route_deficits(clique, g, &mut flow, sigma, options.round_model)?;
        // …and certify optimality (negative-cycle backstop).
        stats.cancelled_cycles = cancel_negative_cycles(clique, g, &mut flow);
        let cost = g.flow_cost(&flow);
        Ok(McfOutcome { flow, cost, stats })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssp_min_cost_flow;
    use cc_graph::generators;
    use cc_model::Clique;

    fn check_exact(g: &DiGraph, sigma: &[i64]) -> (McfOutcome, u64) {
        let (_, want) = ssp_min_cost_flow(g, sigma).expect("feasible instance");
        let mut clique = Clique::new(g.n() + 2);
        let out = min_cost_flow_ipm(&mut clique, g, sigma, &McfOptions::default()).unwrap();
        assert!(g.is_feasible_flow(&out.flow, sigma), "must satisfy demands");
        assert_eq!(out.cost, want, "must be minimum cost");
        (out, clique.ledger().total_rounds())
    }

    #[test]
    fn exact_on_two_route_instance() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 1, 1);
        g.add_edge(1, 3, 1, 1);
        g.add_edge(0, 2, 1, 5);
        g.add_edge(2, 3, 1, 5);
        let sigma = vec![1, 0, 0, -1];
        let (out, rounds) = check_exact(&g, &sigma);
        assert_eq!(out.cost, 2);
        assert!(rounds > 0);
    }

    #[test]
    fn exact_on_assignment_instances() {
        for seed in 0..3 {
            let (g, sigma) = generators::bipartite_assignment(5, 2, 9, seed);
            let (out, _) = check_exact(&g, &sigma);
            assert!(out.stats.progress_steps > 0, "IPM must run (seed {seed})");
        }
    }

    #[test]
    fn exact_on_random_unit_digraphs() {
        for seed in 0..3 {
            let g = generators::random_unit_digraph(8, 16, 7, seed);
            let mut sigma = vec![0i64; 8];
            sigma[0] = 1;
            sigma[7] = -1;
            check_exact(&g, &sigma);
        }
    }

    #[test]
    fn shared_cache_preserves_cost_and_skips_decompositions() {
        let (g, sigma) = generators::bipartite_assignment(5, 2, 9, 1);
        let (_, want) = ssp_min_cost_flow(&g, &sigma).expect("feasible instance");
        let session = crate::McfSession::new(McfOptions::default());
        let cache = session.cache().clone();
        let mut clique = Clique::new(g.n() + 2);
        let first = session.min_cost_flow(&mut clique, &g, &sigma).unwrap();
        assert_eq!(first.cost, want);
        assert_eq!(cache.len(), 1, "core engine publishes its support");
        assert_eq!(first.stats.engine.total_template_cache_hits(), 0);

        // Reversed demands, same support: the cached template carries over.
        let neg: Vec<i64> = sigma.iter().map(|&s| -s).collect();
        if ssp_min_cost_flow(&g, &neg).is_some() {
            let out = session.min_cost_flow(&mut clique, &g, &neg).unwrap();
            assert!(g.is_feasible_flow(&out.flow, &neg));
        }
        let second = session.min_cost_flow(&mut clique, &g, &sigma).unwrap();
        assert_eq!(second.cost, want, "cache must not change the optimum");
        assert!(
            second.stats.engine.total_template_cache_hits() >= 1,
            "second run must reuse the cached template: {}",
            second.stats.engine.to_json()
        );
        assert_eq!(second.stats.engine.stage("progress").builds, 0);
    }

    #[test]
    fn zero_demand_is_zero_flow() {
        let g = generators::random_unit_digraph(6, 10, 3, 4);
        let mut clique = Clique::new(8);
        let out = min_cost_flow_ipm(&mut clique, &g, &[0; 6], &McfOptions::default()).unwrap();
        assert_eq!(out.cost, 0);
        assert!(out.flow.iter().all(|&f| f == 0));
    }

    #[test]
    fn infeasible_instances_error() {
        let g = DiGraph::from_capacities(3, &[(0, 1, 1)]);
        let mut clique = Clique::new(5);
        let err = min_cost_flow_ipm(&mut clique, &g, &[1, 0, -1], &McfOptions::default());
        assert_eq!(err.unwrap_err(), McfError::Infeasible);
    }

    #[test]
    fn bad_demands_rejected() {
        let g = DiGraph::from_capacities(2, &[(0, 1, 1)]);
        let mut clique = Clique::new(4);
        assert!(matches!(
            min_cost_flow_ipm(&mut clique, &g, &[1, 1], &McfOptions::default()),
            Err(McfError::BadDemands { .. })
        ));
    }

    #[test]
    fn deterministic_pipeline() {
        let (g, sigma) = generators::bipartite_assignment(4, 2, 8, 7);
        let run = || {
            let mut clique = Clique::new(g.n() + 2);
            let out = min_cost_flow_ipm(&mut clique, &g, &sigma, &McfOptions::default()).unwrap();
            (out.flow, out.cost, clique.ledger().total_rounds())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ledger_covers_all_phases() {
        let (g, sigma) = generators::bipartite_assignment(4, 2, 5, 2);
        let mut clique = Clique::new(g.n() + 2);
        let _ = min_cost_flow_ipm(&mut clique, &g, &sigma, &McfOptions::default()).unwrap();
        let phases = clique.ledger().phases();
        assert!(phases.keys().any(|k| k.contains("mcf_ipm")));
        // The deficit-routing phase only appears in the ledger when the
        // rounding left deficits; the cancellation backstop always runs.
        assert!(phases.keys().any(|k| k.contains("mcf_cycle_cancelling")));
    }

    #[test]
    fn multi_source_multi_sink_demands() {
        // Demands at four vertices simultaneously.
        let g = generators::random_unit_digraph(10, 40, 6, 11);
        let mut sigma = vec![0i64; 10];
        sigma[0] = 1;
        sigma[1] = 1;
        sigma[8] = -1;
        sigma[9] = -1;
        if let Some((_, want)) = ssp_min_cost_flow(&g, &sigma) {
            let mut clique = Clique::new(12);
            let out = min_cost_flow_ipm(&mut clique, &g, &sigma, &McfOptions::default()).unwrap();
            assert_eq!(out.cost, want);
            assert!(crate::is_min_cost(&g, &out.flow));
        }
    }

    #[test]
    fn budget_formula_shape() {
        assert!(default_step_budget(50, 4) <= default_step_budget(500, 4));
        assert!(default_step_budget(50, 4) <= default_step_budget(50, 1 << 20));
        assert!(default_step_budget(2, 1) >= 8);
    }

    #[test]
    fn sparsifier_reuse_preserves_exactness_and_saves_oracle_rounds() {
        // Twin of the maxflow reuse test: on random unit digraphs the
        // template-reusing engine must give the *bitwise identical*
        // outcome (flow vector, cost, progress steps) while charging
        // fewer oracle rounds than rebuilding the sparsifier every step.
        for seed in [3u64, 11] {
            let g = generators::random_unit_digraph(9, 24, 5, seed);
            let mut sigma = vec![0i64; 9];
            sigma[0] = 2;
            sigma[1] = -1;
            sigma[8] = -1;
            let run = |reuse: bool| {
                let mut clique = Clique::new(g.n() + 2);
                let out = min_cost_flow_ipm(
                    &mut clique,
                    &g,
                    &sigma,
                    &McfOptions {
                        reuse_sparsifier: reuse,
                        ..Default::default()
                    },
                )
                .unwrap();
                (
                    out.flow,
                    out.cost,
                    clique.ledger().charged_rounds(),
                    out.stats.progress_steps,
                )
            };
            let (flow_reuse, cost_reuse, charged_reuse, steps_reuse) = run(true);
            let (flow_fresh, cost_fresh, charged_fresh, steps_fresh) = run(false);
            assert_eq!(flow_reuse, flow_fresh, "seed {seed}: identical flows");
            assert_eq!(cost_reuse, cost_fresh, "seed {seed}: identical costs");
            assert_eq!(steps_reuse, steps_fresh, "seed {seed}: identical steps");
            assert!(steps_reuse > 0, "seed {seed}: IPM must run");
            // Reuse skips the per-step [CS20] oracle charges.
            assert!(
                charged_reuse < charged_fresh,
                "seed {seed}: reuse {charged_reuse} vs fresh {charged_fresh}"
            );
        }
    }

    #[test]
    fn engine_stats_cover_every_ipm_stage() {
        let (g, sigma) = generators::bipartite_assignment(4, 2, 8, 7);
        let mut clique = Clique::new(g.n() + 2);
        let out = min_cost_flow_ipm(&mut clique, &g, &sigma, &McfOptions::default()).unwrap();
        let progress = out.stats.engine.stage("progress");
        assert_eq!(progress.solves, out.stats.progress_steps);
        assert!(progress.builds >= 1, "first build captures the template");
        assert!(progress.chebyshev_iterations > 0);
        assert!(progress.rounds > 0);
        assert!(out.stats.engine.stage("correction").solves <= out.stats.progress_steps);
        assert!(out.stats.engine.total_rounds() <= clique.ledger().total_rounds());
    }
}
