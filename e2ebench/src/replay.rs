//! The direct replay: the engine's request semantics re-enacted straight
//! on the per-graph layer sessions, each call timed as a [`Span`].
//!
//! It mirrors `FlowEngine::submit_batch` — batch admission of same-graph
//! same-ε Laplacian solves (groups in `(graph, ε)` order, then the rest in
//! submission order), lazily built sessions, a template cache shared by a
//! graph's flow sessions, and cache drops on re-registration — so its
//! responses and ledger equal the engine's bit for bit (the traced run
//! asserts both). The engine's wall time minus the replay's is what the
//! service layer itself costs.

use std::collections::BTreeMap;

use cc_apsp::{ApspSession, SsspOutcome};
use cc_core::SolverSession;
use cc_maxflow::MaxFlowSession;
use cc_mcf::McfSession;
use cc_model::Communicator;
use cc_service::{EngineConfig, GraphSpec, Request, Response};
use cc_sparsify::TemplateCache;

use crate::timed::{Span, TimedComm};
use crate::workload::Slate;

#[derive(Debug, Clone)]
struct Entry {
    spec: GraphSpec,
    cache: TemplateCache,
    solver: Option<SolverSession>,
    maxflow: Option<MaxFlowSession>,
    mcf: Option<McfSession>,
    apsp: Option<ApspSession>,
}

impl Entry {
    fn new(spec: GraphSpec) -> Self {
        Entry {
            spec,
            cache: TemplateCache::new(),
            solver: None,
            maxflow: None,
            mcf: None,
            apsp: None,
        }
    }
}

/// Chebyshev work done on one undirected graph: what the kernel probes
/// multiply their per-call times by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveWork {
    /// Single-column solves (solo Laplacian solves and resistances).
    pub solves: u64,
    /// Iterations of the single-column solves: each is one Laplacian
    /// mat-vec and one preconditioner solve.
    pub solve_iterations: u64,
    /// Columns answered by batched solves.
    pub multi_columns: u64,
    /// Iterations of the batched solves, summed over their columns.
    pub multi_column_iterations: u64,
}

/// Per-graph session state, driven through a [`TimedComm`].
#[derive(Debug)]
pub struct Direct {
    entries: Vec<Entry>,
    names: BTreeMap<String, usize>,
    config: EngineConfig,
    /// Chebyshev work per slate index.
    pub work: Vec<SolveWork>,
}

fn arcs_of(spec: &GraphSpec) -> Option<Vec<(usize, usize, i64)>> {
    match spec {
        GraphSpec::Undirected(_) => None,
        GraphSpec::Directed(g) => Some(g.edges().iter().map(|e| (e.from, e.to, e.cost)).collect()),
        GraphSpec::Arcs { arcs, .. } => Some(arcs.clone()),
    }
}

impl Direct {
    /// Every slate graph registered, nothing built yet.
    pub fn new(slate: &Slate) -> Self {
        Direct {
            entries: slate
                .graphs
                .iter()
                .map(|g| Entry::new(g.spec.clone()))
                .collect(),
            names: slate
                .graphs
                .iter()
                .enumerate()
                .map(|(i, g)| (g.name.clone(), i))
                .collect(),
            config: EngineConfig::default(),
            work: vec![SolveWork::default(); slate.graphs.len()],
        }
    }

    /// Re-registers slate graph `index`: drops everything built for it.
    pub fn reregister(&mut self, index: usize) {
        self.entries[index] = Entry::new(self.entries[index].spec.clone());
    }

    fn ensure_solver<C: Communicator>(
        &mut self,
        comm: &mut TimedComm<C>,
        index: usize,
    ) -> Result<(), String> {
        let entry = &mut self.entries[index];
        if entry.solver.is_some() {
            return Ok(());
        }
        let GraphSpec::Undirected(g) = &entry.spec else {
            return Err("Laplacian request on a directed graph".into());
        };
        let options = self.config.solver;
        let session = comm
            .in_span(Span::CoreBuild, |c| SolverSession::build(c, g, &options))
            .map_err(|e| e.to_string())?;
        entry.solver = Some(session);
        Ok(())
    }

    /// Answers one batch as `FlowEngine::submit_batch` would; responses
    /// in submission order.
    ///
    /// # Errors
    ///
    /// A description of the first typed error a layer returned.
    pub fn submit_batch<C: Communicator>(
        &mut self,
        comm: &mut TimedComm<C>,
        requests: &[Request],
    ) -> Result<Vec<Response>, String> {
        let mut groups: BTreeMap<(&str, u64), Vec<usize>> = BTreeMap::new();
        for (i, r) in requests.iter().enumerate() {
            if let Request::LaplacianSolve { graph, eps, .. } = r {
                groups.entry((graph, eps.to_bits())).or_default().push(i);
            }
        }
        let mut slots: Vec<Option<Response>> = vec![None; requests.len()];
        for ((graph, eps_bits), members) in groups {
            if members.len() >= 2 {
                self.solve_group(
                    comm,
                    graph,
                    f64::from_bits(eps_bits),
                    &members,
                    requests,
                    &mut slots,
                )?;
            }
        }
        for (i, r) in requests.iter().enumerate() {
            if slots[i].is_none() {
                slots[i] = Some(self.solo(comm, r)?);
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect())
    }

    fn solve_group<C: Communicator>(
        &mut self,
        comm: &mut TimedComm<C>,
        graph: &str,
        eps: f64,
        members: &[usize],
        requests: &[Request],
        slots: &mut [Option<Response>],
    ) -> Result<(), String> {
        let index = self.names[graph];
        self.ensure_solver(comm, index)?;
        let session = self.entries[index]
            .solver
            .as_mut()
            .expect("solver just ensured");
        let (n, k) = (session.n(), members.len());
        let mut bs = vec![0.0; n * k];
        for (j, &i) in members.iter().enumerate() {
            let Request::LaplacianSolve { b, .. } = &requests[i] else {
                unreachable!("groups hold Laplacian solves");
            };
            for v in 0..n {
                bs[v * k + j] = b[v];
            }
        }
        let mut xs = Vec::new();
        let iterations = comm
            .in_span(Span::CoreSolveMulti, |c| {
                session.solve_multi_into(c, &bs, k, eps, &mut xs)
            })
            .map_err(|e| e.to_string())?;
        let work = &mut self.work[index];
        work.multi_columns += k as u64;
        work.multi_column_iterations += (iterations * k) as u64;
        for (j, &i) in members.iter().enumerate() {
            let x = (0..n).map(|v| xs[v * k + j]).collect();
            slots[i] = Some(Response::Potentials { x, iterations });
        }
        Ok(())
    }

    fn solo<C: Communicator>(
        &mut self,
        comm: &mut TimedComm<C>,
        request: &Request,
    ) -> Result<Response, String> {
        let index = self.names[request.graph()];
        let config = self.config;
        match request {
            Request::LaplacianSolve { b, eps, .. } => {
                let x = self.solve(comm, index, b, *eps)?;
                Ok(Response::Potentials {
                    iterations: x.1,
                    x: x.0,
                })
            }
            Request::EffectiveResistance { s, t, eps, .. } => {
                let mut b = vec![0.0; self.entries[index].spec.n()];
                b[*s] = 1.0;
                b[*t] = -1.0;
                let (x, iterations) = self.solve(comm, index, &b, *eps)?;
                Ok(Response::Resistance {
                    value: x[*s] - x[*t],
                    iterations,
                })
            }
            Request::MaxFlow { s, t, .. } => {
                let entry = &mut self.entries[index];
                let GraphSpec::Directed(g) = &entry.spec else {
                    return Err("max flow on a non-flow graph".into());
                };
                let session = entry.maxflow.get_or_insert_with(|| {
                    MaxFlowSession::with_cache(config.maxflow, entry.cache.clone())
                });
                let out = comm
                    .in_span(Span::IpmMaxFlow, |c| session.max_flow(c, g, *s, *t))
                    .map_err(|e| e.to_string())?;
                Ok(Response::MaxFlow {
                    flow: out.flow,
                    value: out.value,
                })
            }
            Request::MinCostFlow { demands, .. } => {
                let entry = &mut self.entries[index];
                let GraphSpec::Directed(g) = &entry.spec else {
                    return Err("min-cost flow on a non-flow graph".into());
                };
                let session = entry
                    .mcf
                    .get_or_insert_with(|| McfSession::with_cache(config.mcf, entry.cache.clone()));
                let out = comm
                    .in_span(Span::IpmMcf, |c| session.min_cost_flow(c, g, demands))
                    .map_err(|e| e.to_string())?;
                Ok(Response::MinCostFlow {
                    flow: out.flow,
                    cost: out.cost,
                })
            }
            Request::Sssp { source, .. } => {
                let session = self.apsp_session(index)?;
                let out = comm
                    .in_span(Span::ApspSssp, |c| session.sssp(c, *source))
                    .map_err(|e| e.to_string())?;
                Ok(match out {
                    SsspOutcome::Converged { dist, .. } => Response::Sssp {
                        dist,
                        negative_cycle: false,
                    },
                    SsspOutcome::NegativeCycle { .. } => Response::Sssp {
                        dist: Vec::new(),
                        negative_cycle: true,
                    },
                })
            }
            Request::Apsp { .. } => {
                let session = self.apsp_session(index)?;
                let n = session.n();
                let apsp = comm.in_span(Span::ApspApsp, |c| session.apsp(c));
                Ok(Response::Apsp {
                    dist: (0..n)
                        .map(|u| (0..n).map(|v| apsp.dist(u, v)).collect())
                        .collect(),
                })
            }
        }
    }

    fn solve<C: Communicator>(
        &mut self,
        comm: &mut TimedComm<C>,
        index: usize,
        b: &[f64],
        eps: f64,
    ) -> Result<(Vec<f64>, usize), String> {
        self.ensure_solver(comm, index)?;
        let session = self.entries[index]
            .solver
            .as_mut()
            .expect("solver just ensured");
        let mut x = Vec::new();
        let iterations = comm
            .in_span(Span::CoreSolve, |c| session.solve_into(c, b, eps, &mut x))
            .map_err(|e| e.to_string())?;
        let work = &mut self.work[index];
        work.solves += 1;
        work.solve_iterations += iterations as u64;
        Ok((x, iterations))
    }

    fn apsp_session(&mut self, index: usize) -> Result<&mut ApspSession, String> {
        let entry = &mut self.entries[index];
        let arcs = arcs_of(&entry.spec).ok_or("shortest paths on an undirected graph")?;
        let (n, model) = (entry.spec.n(), self.config.round_model);
        Ok(entry
            .apsp
            .get_or_insert_with(|| ApspSession::new(n, arcs, model)))
    }
}
