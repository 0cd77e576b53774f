//! Mądry's interior point method in the congested clique
//! (Algorithm 2 + Augmentation/Fixing/Boosting of Appendix B).
//!
//! The implementation keeps the paper's control flow and communication
//! profile — per progress step one `Augmentation` electrical solve plus
//! one `Fixing` electrical solve (both through the Theorem 1.1 Laplacian
//! solver, every round charged), `‖ρ‖₃`-gated step sizes, and a boosting
//! rule for congested edges — with two documented engineering deviations
//! (`DESIGN.md` §2.5): boosting damps congested edges in place instead of
//! physically splitting arcs, and progress steps terminate early once the
//! target value is reached or the step size stalls. Exactness of the final
//! flow never depends on the IPM: rounding + repair finish the job
//! unconditionally.
//!
//! Since the barrier-engine refactor (`DESIGN.md` §8) this module is a
//! thin *problem adapter*: it supplies the transformed-graph barrier
//! gradient, the `‖ρ‖₃` step rule and the rounding/repair hooks, while
//! [`cc_ipm::BarrierEngine`] owns the electrical builds (with sparsifier
//! template reuse), the allocation-free solve workspace and the
//! per-stage [`EngineStats`].

use cc_apsp::RoundModel;
use cc_core::{ElectricalFlow, SolverOptions};
use cc_graph::DiGraph;
use cc_ipm::{top_k_into, BarrierEngine, EngineOptions, EngineStats, EDGE_CHUNK};
use cc_model::Communicator;
use cc_sparsify::TemplateCache;

use crate::error::comm_rooted;
use crate::residual::augment_to_optimality;
use crate::rounding_bridge::{snap_to_delta_multiples, SnapOutcome};
use crate::MaxFlowError;

/// Options of [`max_flow_ipm`].
#[derive(Debug, Clone, Copy)]
pub struct IpmOptions {
    /// Accuracy of every Laplacian solve (`Ω(1/poly m)` per the paper).
    pub solver_eps: f64,
    /// Progress-step budget; `None` selects the paper's
    /// `Õ(m^{3/7} U^{1/7})` formula (with small constants suited to
    /// simulable sizes).
    pub max_progress_steps: Option<usize>,
    /// Mądry's trade-off parameter `η` (paper: `1/14 − o(1)`); controls
    /// the boosting threshold `m^{1/2−η}/33` and boost set size `m^{4η}`.
    pub eta: f64,
    /// Round accounting model of the repair phase's APSP calls.
    pub round_model: RoundModel,
    /// Laplacian solver (sparsifier) options.
    pub solver: SolverOptions,
    /// Reuse one expander decomposition across the IPM's electrical
    /// solves (the edge support never changes; per-cluster certificates
    /// are recomputed exactly per step — see
    /// `cc_sparsify::SparsifierTemplate`). Default true; disable to
    /// measure the rebuild-every-step cost the paper's accounting assumes.
    pub reuse_sparsifier: bool,
}

impl Default for IpmOptions {
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

/// The engine-facing slice of [`IpmOptions`].
fn engine_options(options: &IpmOptions) -> EngineOptions {
    EngineOptions {
        solver_eps: options.solver_eps,
        solver: options.solver,
        reuse_sparsifier: options.reuse_sparsifier,
    }
}

/// Execution statistics of the pipeline — what the E6 experiment reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IpmStats {
    /// Progress steps executed (Augmentation + Fixing pairs).
    pub progress_steps: usize,
    /// Boosting steps executed.
    pub boosting_steps: usize,
    /// Fraction of the target the IPM routed before rounding (`0..=1`).
    pub ipm_progress: f64,
    /// `s`-`t` value of the integral flow right after rounding.
    pub rounded_value: i64,
    /// Augmenting paths the repair phase needed.
    pub repair_paths: usize,
    /// True if the snap/rounding guard rejected the fractional flow and the
    /// repair started from zero (pure Ford–Fulkerson fallback).
    pub fell_back_to_zero: bool,
    /// Per-stage barrier-engine accounting (`augmentation` / `fixing` /
    /// `cleanup` solves, Chebyshev iterations, sparsifier builds vs
    /// template reuses, ledger rounds).
    pub engine: EngineStats,
}

/// Result of a distributed max-flow computation.
#[derive(Debug, Clone)]
pub struct MaxFlowOutcome {
    /// Exact maximum flow, one value per edge of the input graph.
    pub flow: Vec<i64>,
    /// Its value.
    pub value: i64,
    /// Pipeline statistics.
    pub stats: IpmStats,
}

/// The paper's default progress-step budget `Õ(m^{3/7} U^{1/7})`, with
/// constants scaled for simulable instances.
pub fn default_step_budget(m: usize, max_capacity: i64) -> usize {
    let m = m.max(2) as f64;
    let u = max_capacity.max(1) as f64;
    let steps = 2.0 * m.powf(3.0 / 7.0) * u.powf(1.0 / 7.0) * (u + 2.0).ln();
    (steps.ceil() as usize).clamp(8, 600)
}

/// Kind of a transformed (Algorithm 2 lines 1–4) edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TKind {
    /// The `(a, b)` copy of original arc `e`.
    Original(usize),
    /// The `(s, b)` auxiliary edge of arc `e`.
    AuxS(usize),
    /// The `(a, t)` auxiliary edge of arc `e`.
    AuxT(usize),
    /// One of the `m` preconditioner `(t, s)` edges (capacity `2U`).
    Precond,
}

/// A two-sided ("undirected") edge of the transformed graph: flow
/// `x ∈ (−cap, +cap)`, barrier on both residuals.
#[derive(Debug, Clone, Copy)]
struct TEdge {
    a: usize,
    b: usize,
    cap: f64,
    kind: TKind,
}

fn transform(g: &DiGraph, s: usize, t: usize) -> Vec<TEdge> {
    let u_max = g.max_capacity().max(1) as f64;
    let mut edges = Vec::with_capacity(4 * g.m());
    for (i, e) in g.edges().iter().enumerate() {
        let cap = e.capacity.max(1) as f64;
        edges.push(TEdge {
            a: e.from,
            b: e.to,
            cap,
            kind: TKind::Original(i),
        });
        if e.to != s {
            edges.push(TEdge {
                a: s,
                b: e.to,
                cap,
                kind: TKind::AuxS(i),
            });
        }
        if e.from != t {
            edges.push(TEdge {
                a: e.from,
                b: t,
                cap,
                kind: TKind::AuxT(i),
            });
        }
    }
    for _ in 0..g.m() {
        edges.push(TEdge {
            a: t,
            b: s,
            cap: 2.0 * u_max,
            kind: TKind::Precond,
        });
    }
    edges
}

/// The transformed-graph barrier gradient, one fixed chunk at a time:
/// `r_e = d_e²(1/gf² + 1/gb²)`, both residuals floored at `gap_floor`
/// (`NEG_INFINITY` leaves them untouched). Handed to
/// [`BarrierEngine::resistances_into`]; every slot is a pure function of
/// its edge index, so the fan-out is bitwise thread-count independent.
fn fill_barrier(
    t_edges: &[TEdge],
    x: &[f64],
    damp: &[f64],
    gap_floor: f64,
    base: usize,
    out: &mut [(usize, usize, f64)],
) {
    for (j, slot) in out.iter_mut().enumerate() {
        let i = base + j;
        let te = &t_edges[i];
        let gf = (te.cap - x[i]).max(gap_floor);
        let gb = (te.cap + x[i]).max(gap_floor);
        let de = damp[i];
        let r = de * de * (1.0 / (gf * gf) + 1.0 / (gb * gb));
        *slot = (te.a, te.b, r.clamp(1e-12, 1e12));
    }
}

/// The interior point method core: returns the recovered fractional flow
/// on the ORIGINAL arcs plus statistics. Charges every electrical solve's
/// rounds to `clique`.
fn ipm_core<C: Communicator>(
    clique: &mut C,
    g: &DiGraph,
    s: usize,
    t: usize,
    options: &IpmOptions,
    cache: Option<&TemplateCache>,
) -> Result<(Vec<f64>, IpmStats), MaxFlowError> {
    let t_edges = transform(g, s, t);
    let mt = t_edges.len();
    let n = g.n();
    let mut x = vec![0.0f64; mt]; // strictly interior at 0 by construction
    let mut y = vec![0.0f64; n]; // dual iterate (Algorithm 2 line 5)
    let mut damp = vec![1.0f64; mt]; // boosting-lite damping
    let mut stats = IpmStats::default();
    let mut engine: BarrierEngine<C> = BarrierEngine::new(n, engine_options(options));
    if let Some(cache) = cache {
        engine.set_template_cache(cache.clone());
    }

    // Per-iteration buffers, sized once: the steady-state loop body's
    // solve path allocates nothing (see `crates/ipm/tests/alloc_free.rs`).
    let mut chi = vec![0.0f64; n];
    let mut residue = vec![0.0f64; n];
    let mut minus: Vec<f64> = Vec::with_capacity(n);
    let mut by_rho: Vec<(usize, f64)> = Vec::with_capacity(mt);
    let mut electrical = ElectricalFlow::default();
    let mut correction = ElectricalFlow::default();

    // Target: route the original upper bound plus the Σu/2 the gadget
    // absorbs (see DESIGN.md §2.5 — overshoot is safe, congestion control
    // stalls gracefully and repair finishes exactly).
    let cap_out: i64 = g.out_edges(s).iter().map(|&e| g.edge(e).capacity).sum();
    let cap_in: i64 = g.in_edges(t).iter().map(|&e| g.edge(e).capacity).sum();
    let f_ub = cap_out.min(cap_in) as f64;
    let gadget_half: f64 = g.edges().iter().map(|e| e.capacity as f64 / 2.0).sum();
    let f_target = f_ub + gadget_half;
    if f_target <= 0.0 {
        return Ok((vec![0.0; g.m()], stats));
    }

    let budget = options
        .max_progress_steps
        .unwrap_or_else(|| default_step_budget(g.m(), g.max_capacity()));
    let m_f = (g.m().max(2)) as f64;
    let rho_threshold = m_f.powf(0.5 - options.eta) / 33.0;
    let boost_size = (m_f.powf(4.0 * options.eta).ceil() as usize).max(1);

    let value = |x: &[f64]| -> f64 {
        let mut v = 0.0;
        for (xe, te) in x.iter().zip(&t_edges) {
            if te.a == s {
                v += xe;
            }
            if te.b == s {
                v -= xe;
            }
        }
        v
    };

    clique.phase("maxflow_ipm", |clique| -> Result<(), MaxFlowError> {
        for _step in 0..budget {
            let routed = value(&x);
            let remaining = f_target - routed;
            if remaining <= 0.25 {
                break;
            }
            // ---- Augmentation (Algorithm 3) ----
            let min_gap = engine.resistances_into(
                mt,
                |base, out| fill_barrier(&t_edges, &x, &damp, f64::NEG_INFINITY, base, out),
                |i| {
                    let te = &t_edges[i];
                    (te.cap - x[i]).min(te.cap + x[i])
                },
            );
            if min_gap < 1e-7 {
                break; // numerically at the boundary: hand over to repair
            }
            match engine.build_network(clique, "augmentation") {
                Ok(()) => {}
                // Comm-rooted failures (injected faults, congestion
                // rejections) must surface; numerical degradation hands
                // over to repair as before.
                Err(e) if comm_rooted(&e) => return Err(e.into()),
                Err(_) => break,
            }
            chi.fill(0.0);
            chi[s] = remaining;
            chi[t] = -remaining;
            engine.flow_into(clique, "augmentation", &chi, &mut electrical)?;
            let f_tilde = &electrical.flows;

            // Congestion vector ρ (Algorithm 2 lines 7/14); one broadcast
            // round aggregates the norms.
            let mut rho3 = 0.0f64;
            let mut rho_raw_inf = 0.0f64;
            for ((te, &xe), (&fe, &de)) in t_edges.iter().zip(&x).zip(f_tilde.iter().zip(&damp)) {
                let gap = (te.cap - xe).min(te.cap + xe);
                let rho = fe / (de * gap);
                rho3 += rho.abs().powi(3);
                rho_raw_inf = rho_raw_inf.max((fe / gap).abs());
            }
            let rho3 = rho3.cbrt();
            engine.norm_roundtrip(clique)?;

            if rho3 > rho_threshold {
                // ---- Boosting (Algorithm 5, damping stand-in) ----
                // Deviation from the strict either/or of Algorithm 2: at
                // simulable sizes the asymptotic threshold constants would
                // starve progress entirely, so boosting is applied *in
                // addition to* (not instead of) the progress step.
                let rho = (t_edges.iter().zip(&x)).zip(f_tilde.iter().zip(&damp)).map(
                    |((te, &xe), (&fe, &de))| {
                        let gap = (te.cap - xe).min(te.cap + xe);
                        (fe / (de * gap)).abs()
                    },
                );
                for &(i, _) in top_k_into(rho, boost_size, &mut by_rho) {
                    damp[i] *= 2.0;
                }
                stats.boosting_steps += 1;
                // Selecting S* globally: one small allgather.
                engine.norm_roundtrip(clique)?;
            }

            // Step size: the paper's 1/(33‖ρ‖₃) rule, capped by hard
            // feasibility (δ·|f̃| must stay inside every gap) and by
            // full completion (δ = 1 routes everything).
            let delta = (1.0 / (33.0 * rho3.max(1e-12)))
                .min(0.25 / rho_raw_inf.max(1e-12))
                .min(1.0);
            if delta * remaining < 1e-9 {
                break; // stalled
            }
            cc_linalg::par::par_chunks_mut(&mut x, EDGE_CHUNK, |ci, xs| {
                let base = ci * EDGE_CHUNK;
                for (j, xe) in xs.iter_mut().enumerate() {
                    *xe += delta * f_tilde[base + j];
                }
            });
            for (yv, &phi) in y.iter_mut().zip(&electrical.potentials) {
                *yv += delta * phi;
            }

            // ---- Fixing (Algorithm 4): electrical correction of the
            // conservation residue accumulated by the approximate solve ----
            let target_routed = routed + delta * remaining;
            residue.fill(0.0);
            for (xe, te) in x.iter().zip(&t_edges) {
                residue[te.a] += xe;
                residue[te.b] -= xe;
            }
            residue[s] -= target_routed;
            residue[t] += target_routed;
            let resid_norm: f64 = residue.iter().map(|r| r * r).sum::<f64>().sqrt();
            engine.record_residual("fixing", resid_norm);
            if resid_norm > 1e-12 {
                engine.resistances_into(
                    mt,
                    |base, out| fill_barrier(&t_edges, &x, &damp, 1e-9, base, out),
                    |_| f64::INFINITY, // gap unused on the fixing build
                );
                let built = match engine.build_network(clique, "fixing") {
                    Ok(()) => true,
                    Err(e) if comm_rooted(&e) => return Err(e.into()),
                    Err(_) => false,
                };
                if built {
                    minus.clear();
                    minus.extend(residue.iter().map(|r| -r));
                    engine.flow_into(clique, "fixing", &minus, &mut correction)?;
                    // Guarded application: halve until strictly feasible.
                    let mut scale = 1.0;
                    'guard: for _ in 0..40 {
                        let ok = t_edges.iter().zip(&x).zip(&correction.flows).all(
                            |((te, &xe), &ce)| {
                                let nx = xe + scale * ce;
                                nx < te.cap - 1e-9 && nx > -te.cap + 1e-9
                            },
                        );
                        if ok {
                            for ((xe, &ce), (yv, &pv)) in x
                                .iter_mut()
                                .zip(&correction.flows)
                                .zip(y.iter_mut().zip(&correction.potentials))
                            {
                                *xe += scale * ce;
                                *yv += scale * pv;
                            }
                            break 'guard;
                        }
                        scale *= 0.5;
                    }
                }
            }
            stats.progress_steps += 1;
        }

        let routed = value(&x).max(0.0);
        stats.ipm_progress = if f_target > 0.0 {
            (routed / f_target).clamp(0.0, 1.0)
        } else {
            1.0
        };
        Ok(())
    })?;
    stats.engine = engine.into_stats();

    // Recover a fractional flow on the original arcs via the gadget
    // correspondence f_e = x₁ + (x₂ + x₃)/2 (an original flow f maps to
    // x₁ = f − c, x₂ = x₃ = c; see DESIGN.md §2.5), clamped to [0, u_e].
    // Arcs whose aux edge was suppressed (endpoint coincidence) use the
    // surviving aux flow alone.
    let mut x1 = vec![0.0f64; g.m()];
    let mut aux_sum = vec![0.0f64; g.m()];
    let mut aux_cnt = vec![0u32; g.m()];
    for (xe, te) in x.iter().zip(&t_edges) {
        match te.kind {
            TKind::Original(e) => x1[e] = *xe,
            TKind::AuxS(e) | TKind::AuxT(e) => {
                aux_sum[e] += *xe;
                aux_cnt[e] += 1;
            }
            TKind::Precond => {}
        }
    }
    let mut recovered = vec![0.0f64; g.m()];
    for e in 0..g.m() {
        let u = g.edge(e).capacity as f64;
        let c = if aux_cnt[e] > 0 {
            aux_sum[e] / aux_cnt[e] as f64
        } else {
            u / 2.0
        };
        recovered[e] = (x1[e] + c).clamp(0.0, u);
    }
    Ok((recovered, stats))
}

/// Post-IPM conservation cleanup on the original graph: the gadget
/// recovery (`f_e = x_(a,b) + u_e/2`, clamped) leaves conservation
/// violations proportional to how far the transformed iterate drifted off
/// center. A few electrical correction solves — the Fixing pattern of
/// Algorithm 4 applied to the original network — shrink them to solver
/// precision so the spanning-forest snap succeeds. All rounds charged.
/// Runs on its own [`BarrierEngine`] (different edge support than the
/// transformed graph); returns its engine statistics for merging.
fn fractional_cleanup<C: Communicator>(
    clique: &mut C,
    g: &DiGraph,
    f: &mut [f64],
    s: usize,
    t: usize,
    options: &IpmOptions,
    cache: Option<&TemplateCache>,
) -> Result<EngineStats, MaxFlowError> {
    let n = g.n();
    let edges = g.edges();
    let mut engine: BarrierEngine<C> = BarrierEngine::new(n, engine_options(options));
    if let Some(cache) = cache {
        engine.set_template_cache(cache.clone());
    }
    let mut violation = vec![0.0f64; n];
    let mut minus: Vec<f64> = Vec::with_capacity(n);
    let mut corr = ElectricalFlow::default();
    clique.phase("maxflow_cleanup", |clique| -> Result<(), MaxFlowError> {
        for _ in 0..6 {
            // Conservation violation at non-terminals.
            violation.fill(0.0);
            for (i, e) in edges.iter().enumerate() {
                violation[e.from] += f[i];
                violation[e.to] -= f[i];
            }
            violation[s] = 0.0;
            violation[t] = 0.0;
            let worst = violation.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if worst < 1e-9 {
                break;
            }
            let flows: &[f64] = f;
            engine.resistances_into(
                g.m(),
                |base, out| {
                    for (j, slot) in out.iter_mut().enumerate() {
                        let i = base + j;
                        let e = &edges[i];
                        let u = e.capacity as f64;
                        let gf = (u - flows[i]).max(1e-6);
                        let gb = flows[i].max(1e-6);
                        *slot = (
                            e.from,
                            e.to,
                            (1.0 / (gf * gf) + 1.0 / (gb * gb)).clamp(1e-12, 1e12),
                        );
                    }
                },
                |_| f64::INFINITY, // the cleanup pass has no gap cutoff
            );
            match engine.build_network(clique, "cleanup") {
                Ok(()) => {}
                Err(e) if comm_rooted(&e) => return Err(e.into()),
                Err(_) => break,
            }
            minus.clear();
            minus.extend(violation.iter().map(|v| -v));
            engine.flow_into(clique, "cleanup", &minus, &mut corr)?;
            // Apply with step halving so f stays within [0, u].
            let mut scale = 1.0;
            for _ in 0..40 {
                let ok = edges
                    .iter()
                    .zip(f.iter())
                    .zip(&corr.flows)
                    .all(|((e, &fe), &ce)| {
                        let nf = fe + scale * ce;
                        (0.0..=e.capacity as f64).contains(&nf)
                    });
                if ok {
                    for (fe, &ce) in f.iter_mut().zip(&corr.flows) {
                        *fe += scale * ce;
                    }
                    break;
                }
                scale *= 0.5;
            }
            if scale < 1e-9 {
                break;
            }
        }
        Ok(())
    })?;
    Ok(engine.into_stats())
}

/// Exact deterministic maximum flow in the congested clique
/// (Theorem 1.2): IPM → flow rounding (Lemma 4.2) → augmenting-path
/// repair. See the crate docs for the pipeline and accounting.
///
/// # Errors
///
/// [`MaxFlowError`] if the communication substrate rejects a primitive
/// call in any stage (IPM solves, rounding, repair) — injected faults
/// surface here, never as panics or silently wrong flows.
///
/// # Panics
///
/// Panics if terminals are invalid or `clique.n() < g.n()`.
pub fn max_flow_ipm<C: Communicator>(
    clique: &mut C,
    g: &DiGraph,
    s: usize,
    t: usize,
    options: &IpmOptions,
) -> Result<MaxFlowOutcome, MaxFlowError> {
    max_flow_ipm_inner(clique, g, s, t, options, None)
}

/// Shared implementation of [`max_flow_ipm`] (no cache) and
/// [`crate::MaxFlowSession::max_flow`] (session-owned [`TemplateCache`]):
/// with a cache, both engines (IPM core on the transformed support,
/// cleanup on the original support) consult it before their first
/// sparsifier build and publish what they capture. Per-cluster
/// certificates are recomputed exactly on every instantiation, so the
/// flow value is identical with or without the cache (iteration counts,
/// and hence bit-level flows, may differ when the certified `α` of a
/// cached template differs from a fresh build's).
pub(crate) fn max_flow_ipm_inner<C: Communicator>(
    clique: &mut C,
    g: &DiGraph,
    s: usize,
    t: usize,
    options: &IpmOptions,
    cache: Option<&TemplateCache>,
) -> Result<MaxFlowOutcome, MaxFlowError> {
    assert!(s != t && s < g.n() && t < g.n(), "bad terminals");
    assert!(clique.n() >= g.n(), "clique too small");
    clique.phase("maxflow", |clique| {
        let (mut fractional, mut stats) = if g.m() == 0 {
            (Vec::new(), IpmStats::default())
        } else {
            ipm_core(clique, g, s, t, options, cache)?
        };
        if g.m() > 0 {
            let cleanup = fractional_cleanup(clique, g, &mut fractional, s, t, options, cache)?;
            stats.engine.merge(&cleanup);
        }

        let delta = 1.0 / cc_graph::flow_util::rounding_scale(g.m()) as f64;

        let mut flow: Vec<i64> = vec![0; g.m()];
        if g.m() > 0 {
            match snap_to_delta_multiples(g, &fractional, s, t, delta) {
                SnapOutcome::Snapped(snapped) => {
                    let rounded = cc_euler::round_flow(
                        clique,
                        g,
                        &snapped,
                        s,
                        t,
                        delta,
                        &cc_euler::FlowRoundingOptions::default(),
                    )?;
                    let value = g.flow_value(&rounded.flow, s);
                    if g.is_feasible_flow(&rounded.flow, &g.st_demand(s, t, value)) {
                        flow = rounded.flow;
                        stats.rounded_value = value;
                    } else {
                        stats.fell_back_to_zero = true;
                    }
                }
                SnapOutcome::Infeasible => {
                    stats.fell_back_to_zero = true;
                }
            }
        }

        let repair = augment_to_optimality(clique, g, &mut flow, s, t, options.round_model)?;
        stats.repair_paths = repair.paths;
        let value = g.flow_value(&flow, s);
        Ok(MaxFlowOutcome { flow, value, stats })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic;
    use cc_graph::generators;
    use cc_model::Clique;

    fn check_exact(g: &DiGraph, s: usize, t: usize) -> (MaxFlowOutcome, u64) {
        let (_, want) = dinic(g, s, t);
        let mut clique = Clique::new(g.n().max(2));
        let out = max_flow_ipm(&mut clique, g, s, t, &IpmOptions::default()).unwrap();
        assert_eq!(out.value, want, "IPM pipeline must be exact");
        let sigma = g.st_demand(s, t, out.value);
        assert!(g.is_feasible_flow(&out.flow, &sigma));
        (out, clique.ledger().total_rounds())
    }

    #[test]
    fn exact_on_diamond() {
        let g = DiGraph::from_capacities(4, &[(0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 2)]);
        let (out, rounds) = check_exact(&g, 0, 3);
        assert_eq!(out.value, 2);
        assert!(rounds > 0);
    }

    #[test]
    fn exact_on_random_networks() {
        for seed in 0..4 {
            let g = generators::random_flow_network(10, 18, 4, seed);
            let (out, _) = check_exact(&g, 0, 9);
            assert!(out.stats.progress_steps > 0, "IPM must run");
        }
    }

    #[test]
    fn exact_on_grid_network() {
        let g = generators::grid_flow_network(3, 3, 3, 7);
        let (_, rounds) = check_exact(&g, 0, 8);
        assert!(rounds > 0);
    }

    #[test]
    fn exact_with_unit_capacities() {
        let g = generators::random_unit_digraph(9, 16, 1, 2);
        let g2 = DiGraph::from_capacities(
            9,
            &g.edges()
                .iter()
                .map(|e| (e.from, e.to, e.capacity))
                .collect::<Vec<_>>(),
        );
        check_exact(&g2, 0, 8);
    }

    #[test]
    fn zero_flow_instances() {
        // t unreachable from s.
        let g = DiGraph::from_capacities(4, &[(1, 0, 3), (2, 3, 1)]);
        let (out, _) = check_exact(&g, 0, 3);
        assert_eq!(out.value, 0);
    }

    #[test]
    fn shared_cache_preserves_value_and_skips_decompositions() {
        let g = generators::random_flow_network(10, 18, 4, 2);
        let (_, want) = dinic(&g, 0, 9);
        let session = crate::MaxFlowSession::new(IpmOptions::default());
        let cache = session.cache().clone();
        let mut clique = Clique::new(10);
        let first = session.max_flow(&mut clique, &g, 0, 9).unwrap();
        assert_eq!(first.value, want);
        // Both engines (core + cleanup) published their supports.
        assert!(!cache.is_empty());
        assert_eq!(first.stats.engine.total_template_cache_hits(), 0);
        let published = cache.len();

        let second = session.max_flow(&mut clique, &g, 0, 9).unwrap();
        assert_eq!(second.value, want, "cache must not change the flow value");
        assert_eq!(cache.len(), published, "same supports, no new templates");
        assert!(
            second.stats.engine.total_template_cache_hits() >= 1,
            "second run must reuse at least one cached template: {}",
            second.stats.engine.to_json()
        );
        assert_eq!(
            second.stats.engine.stage("augmentation").builds,
            0,
            "cached template must replace the core's first build"
        );
        // The uncached entry point matches too.
        let third = max_flow_ipm(&mut clique, &g, 0, 9, &IpmOptions::default()).unwrap();
        assert_eq!(third.value, want);
        assert_eq!(third.stats.engine.total_template_cache_hits(), 0);
    }

    #[test]
    fn ipm_reduces_repair_work() {
        // On a simple instance the IPM should route most of the flow so the
        // repair needs far fewer paths than |f*|.
        let g = generators::random_flow_network(12, 30, 6, 11);
        let (_, want) = dinic(&g, 0, 11);
        let mut clique = Clique::new(12);
        let out = max_flow_ipm(&mut clique, &g, 0, 11, &IpmOptions::default()).unwrap();
        assert_eq!(out.value, want);
        assert!(
            out.stats.fell_back_to_zero || out.stats.rounded_value > 0 || want == 0,
            "stats: {:?}",
            out.stats
        );
    }

    #[test]
    fn deterministic_pipeline() {
        let g = generators::random_flow_network(8, 14, 3, 5);
        let run = || {
            let mut clique = Clique::new(8);
            let out = max_flow_ipm(&mut clique, &g, 0, 7, &IpmOptions::default()).unwrap();
            (out.flow, out.value, clique.ledger().total_rounds())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sparsifier_reuse_preserves_exactness_and_saves_oracle_rounds() {
        let g = generators::random_flow_network(12, 26, 4, 13);
        let (_, want) = dinic(&g, 0, 11);
        let run = |reuse: bool| {
            let mut clique = Clique::new(12);
            let out = max_flow_ipm(
                &mut clique,
                &g,
                0,
                11,
                &IpmOptions {
                    reuse_sparsifier: reuse,
                    ..Default::default()
                },
            )
            .unwrap();
            (out.value, clique.ledger().charged_rounds())
        };
        let (v_reuse, charged_reuse) = run(true);
        let (v_fresh, charged_fresh) = run(false);
        assert_eq!(v_reuse, want);
        assert_eq!(v_fresh, want);
        // Reuse skips the per-step [CS20] oracle charges.
        assert!(
            charged_reuse < charged_fresh,
            "reuse {charged_reuse} vs fresh {charged_fresh}"
        );
    }

    #[test]
    fn zero_step_budget_still_exact_via_repair() {
        let g = generators::random_flow_network(10, 20, 4, 4);
        let (_, want) = dinic(&g, 0, 9);
        let mut clique = Clique::new(10);
        let out = max_flow_ipm(
            &mut clique,
            &g,
            0,
            9,
            &IpmOptions {
                max_progress_steps: Some(0),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.value, want);
        assert_eq!(out.stats.progress_steps, 0);
    }

    #[test]
    fn pipeline_flow_certified_by_min_cut() {
        let g = generators::random_flow_network(12, 26, 5, 8);
        let mut clique = Clique::new(12);
        let out = max_flow_ipm(&mut clique, &g, 0, 11, &IpmOptions::default()).unwrap();
        let cut = crate::min_cut_from_max_flow(&g, &out.flow, 0, 11);
        assert_eq!(cut.capacity, out.value);
    }

    #[test]
    fn step_budget_formula_shape() {
        // Grows with m and U, stays within the clamp.
        assert!(default_step_budget(100, 1) <= default_step_budget(1000, 1));
        assert!(default_step_budget(100, 1) <= default_step_budget(100, 64));
        assert!(default_step_budget(2, 1) >= 8);
        assert!(default_step_budget(1_000_000, 1 << 30) <= 600);
    }

    #[test]
    fn phase_ledger_has_all_stages() {
        let g = generators::random_flow_network(8, 16, 4, 9);
        let mut clique = Clique::new(8);
        let _ = max_flow_ipm(&mut clique, &g, 0, 7, &IpmOptions::default()).unwrap();
        let phases = clique.ledger().phases();
        assert!(phases.keys().any(|k| k.contains("maxflow_ipm")));
        assert!(phases.keys().any(|k| k.contains("repair_augmenting_paths")));
    }

    #[test]
    fn engine_stats_cover_every_ipm_stage() {
        let g = generators::random_flow_network(10, 18, 4, 0);
        let mut clique = Clique::new(10);
        let out = max_flow_ipm(&mut clique, &g, 0, 9, &IpmOptions::default()).unwrap();
        let aug = out.stats.engine.stage("augmentation");
        assert_eq!(aug.solves, out.stats.progress_steps);
        assert!(aug.builds >= 1, "first build captures the template");
        assert!(aug.chebyshev_iterations > 0);
        assert!(aug.rounds > 0);
        assert!(out.stats.engine.stage("fixing").solves <= out.stats.progress_steps);
        // The engine only accounts build/solve rounds, never more than
        // the whole pipeline cost.
        assert!(out.stats.engine.total_rounds() <= clique.ledger().total_rounds());
    }
}
