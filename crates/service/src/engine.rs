//! The long-lived request/response engine.

use std::collections::BTreeMap;

use cc_apsp::{ApspSession, RoundModel, SsspOutcome, INFINITY};
use cc_core::{CoreError, SolverOptions, SolverSession};
use cc_graph::{flow_util, DiGraph, Graph};
use cc_maxflow::{IpmOptions, MaxFlowSession};
use cc_mcf::{McfOptions, McfSession};
use cc_model::Communicator;
use cc_sparsify::TemplateCache;

use crate::error::{ServiceError, ServiceErrorKind};
use crate::request::{GraphSpec, Request, Response};

/// Bounded retry with deterministic round-charged backoff, applied to
/// **comm-rooted** request failures (the transient class: injected
/// faults, adversary omissions). Validation errors, numerical failures,
/// and round-budget violations are never retried.
///
/// Before retry `k` (1-based) the engine charges
/// `backoff_rounds · 2^(k-1)` implemented rounds to the dedicated
/// `service_retry` ledger phase — deterministic "waiting time" that,
/// against a crash–recover adversary
/// ([`cc_model::FaultRule::CrashRecover`]), pushes the ledger
/// past the crash window so the retried attempt runs fault-free. Each
/// retry also degrades gracefully: the target graph's cached artifacts
/// (solver factorization, sparsifier templates, APSP matrix) are
/// dropped, so the retry rebuilds from scratch rather than trusting
/// state a faulty transport may have poisoned.
///
/// The default (`max_attempts = 1`) disables retry entirely, preserving
/// the engine's baseline behavior bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included); 1 = no retry.
    pub max_attempts: u32,
    /// Implemented rounds charged before the first retry (doubling on
    /// each further retry); 0 charges nothing.
    pub backoff_rounds: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            backoff_rounds: 0,
        }
    }
}

impl RetryPolicy {
    /// A retrying policy: up to `max_attempts` total attempts, charging
    /// `backoff_rounds` (doubling) before each retry.
    pub fn retries(max_attempts: u32, backoff_rounds: u64) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            backoff_rounds,
        }
    }

    /// Implemented rounds charged before 1-based retry `k`.
    fn backoff_for(&self, retry: u32) -> u64 {
        self.backoff_rounds
            .saturating_mul(1u64 << (retry - 1).min(32))
    }
}

/// Recovery accounting of a request that needed more than one attempt
/// (surfaced in [`RequestStats::degraded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degraded {
    /// Attempts the request took (≥ 2).
    pub attempts: u32,
    /// Transport faults observed across the failed attempts.
    pub faults_observed: u64,
}

/// Engine-wide defaults applied to every request.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Laplacian solver construction options (Laplacian solves and
    /// effective resistances). Defaults to `skip_reference = true`: the
    /// engine issues many solves and never reads the `O(n³)` reference.
    pub solver: SolverOptions,
    /// Max-flow pipeline options.
    pub maxflow: IpmOptions,
    /// Min-cost-flow pipeline options.
    pub mcf: McfOptions,
    /// Round-accounting model of APSP requests.
    pub round_model: RoundModel,
    /// Retry/backoff policy for comm-rooted failures (default: no
    /// retry).
    pub retry: RetryPolicy,
    /// Per-request round budget: a request whose ledger-round cost
    /// exceeds it fails with
    /// [`ServiceErrorKind::RoundBudgetExceeded`] (default: unlimited).
    /// The wall-clock analogue is the process watchdog
    /// (`CC_WATCHDOG_SECS`, [`cc_par::watchdog_timeout`]), which also
    /// bounds how long the retry loop keeps trying.
    pub round_budget: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            solver: SolverOptions {
                skip_reference: true,
                ..SolverOptions::default()
            },
            maxflow: IpmOptions::default(),
            mcf: McfOptions::default(),
            round_model: RoundModel::FastMatMul,
            retry: RetryPolicy::default(),
            round_budget: None,
        }
    }
}

/// Per-request accounting: what the request cost and which per-graph
/// state it built or reused.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestStats {
    /// Engine-assigned request ID (submission order).
    pub request_id: u64,
    /// Name of the graph served.
    pub graph: String,
    /// Generation of the graph entry that served the request.
    pub generation: u64,
    /// Ledger rounds the request cost (batched solves: the group's
    /// solve rounds split evenly over its `k` members — exact, because a
    /// batched iteration broadcasts once per column).
    pub rounds: u64,
    /// Charged (oracle + implemented) rounds, same attribution.
    pub charged_rounds: u64,
    /// Sparsifier-template cache hits this request scored against the
    /// graph's generation-scoped [`TemplateCache`].
    pub template_cache_hits: u64,
    /// True if this request paid a per-graph build (Laplacian solver
    /// construction or APSP matrix); false when it reused one a previous
    /// request built.
    pub built: bool,
    /// Size of the admitted batch this request was answered in (1 =
    /// solo).
    pub batched_with: usize,
    /// Barrier-engine accounting of flow requests (`None` otherwise).
    pub engine: Option<cc_ipm::EngineStats>,
    /// Attempts the request took under the engine's [`RetryPolicy`]
    /// (1 = first try succeeded).
    pub attempts: u32,
    /// Recovery accounting when the request needed a retry (`None` on a
    /// clean first attempt).
    pub degraded: Option<Degraded>,
}

/// A successful request: the response plus its accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    /// The computed value.
    pub response: Response,
    /// What it cost and what it reused.
    pub stats: RequestStats,
}

/// One registered graph: its generation, the spec with the facts its
/// requests are admitted on, and the lazily built per-generation
/// sessions every request against it reuses.
#[derive(Debug)]
struct GraphEntry {
    generation: u64,
    graph: Registered,
    sessions: Sessions,
}

/// A registered spec and the facts admission reads, derived once at
/// registration.
#[derive(Debug)]
struct Registered {
    spec: GraphSpec,
    /// Connected component per vertex (undirected graphs), for rejecting
    /// resistances across components before any solver work.
    components: Vec<usize>,
    /// Why the spec cannot serve its Laplacian or flow requests, if it
    /// cannot: a non-finite volume `2·Σw` (the sparsifier's conductance
    /// threshold is derived from it), or a capacity or cost beyond
    /// [`cc_graph::flow_util::flow_bound`].
    domain_problem: Option<&'static str>,
    /// Why the spec's arcs cannot serve shortest paths, if they cannot
    /// ([`arcs_problem`]).
    arcs_problem: Option<&'static str>,
}

impl Registered {
    fn new(spec: GraphSpec) -> Self {
        let (components, domain_problem) = match &spec {
            GraphSpec::Undirected(g) => (
                g.components(),
                (!(2.0 * g.total_weight()).is_finite())
                    .then_some("edge weights must be finite and have a finite volume 2·Σw"),
            ),
            GraphSpec::Directed(g) => (
                Vec::new(),
                (!flow_util::within_flow_bound(g))
                    .then_some("capacities and costs must be at most flow_bound(n, m)"),
            ),
            GraphSpec::Arcs { .. } => (Vec::new(), None),
        };
        let arcs_problem = spec_arcs(&spec).and_then(|arcs| arcs_problem(arcs, spec.n()));
        Self {
            spec,
            components,
            domain_problem,
            arcs_problem,
        }
    }
}

/// The per-generation state requests reuse, dropped whole on
/// re-registration and before a retry.
#[derive(Debug, Default)]
struct Sessions {
    /// Generation-scoped sparsifier template cache shared by the flow
    /// sessions (max-flow and MCF key by edge support, so one cache
    /// serves both).
    cache: TemplateCache,
    /// Laplacian solver + workspace (undirected graphs; carries the
    /// sparsifier Cholesky factorization reused across requests).
    solver: Option<SolverSession>,
    maxflow: Option<MaxFlowSession>,
    mcf: Option<McfSession>,
    apsp: Option<ApspSession>,
}

/// One request's place in a batch, filled once it has run.
type Slot = Option<Result<ServiceOutcome, ServiceError>>;

/// A long-lived engine over one communicator: a registry of named
/// graphs, session state reused across requests, batch admission for
/// same-graph Laplacian solves, and per-request accounting.
///
/// Determinism: the engine adds no ordering or threading of its own —
/// requests execute in submission order (batched groups at their first
/// member's slot), all per-graph state is rebuilt deterministically, so
/// the same request stream yields bitwise-identical responses at any
/// worker-thread count, matching fresh-engine-per-request execution.
#[derive(Debug)]
pub struct FlowEngine<C: Communicator> {
    clique: C,
    config: EngineConfig,
    graphs: BTreeMap<String, GraphEntry>,
    next_request_id: u64,
}

impl<C: Communicator> FlowEngine<C> {
    /// An engine over `clique` with default configuration.
    pub fn new(clique: C) -> Self {
        Self::with_config(clique, EngineConfig::default())
    }

    /// An engine over `clique` with explicit configuration.
    pub fn with_config(clique: C, config: EngineConfig) -> Self {
        Self {
            clique,
            config,
            graphs: BTreeMap::new(),
            next_request_id: 0,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The communicator's round ledger (all requests charge here).
    pub fn ledger(&self) -> &cc_model::RoundLedger {
        self.clique.ledger()
    }

    /// Registers (or re-registers) `name`. Re-registration bumps the
    /// entry's generation and drops every cached artifact — solver
    /// factorization, sparsifier templates, APSP matrix — so no request
    /// can ever be served from a previous generation's state. Returns
    /// the new generation (1 for a first registration). Any spec
    /// registers; what a request cannot use of it is that request's
    /// `BadRequest` (see [`GraphSpec`]).
    pub fn register(&mut self, name: &str, spec: GraphSpec) -> u64 {
        let generation = self.graphs.get(name).map_or(1, |e| e.generation + 1);
        let entry = GraphEntry {
            generation,
            graph: Registered::new(spec),
            sessions: Sessions::default(),
        };
        self.graphs.insert(name.to_string(), entry);
        generation
    }

    /// Current generation of a registered graph.
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.graphs.get(name).map(|e| e.generation)
    }

    /// The registered spec of a graph.
    pub fn graph_spec(&self, name: &str) -> Option<&GraphSpec> {
        self.graphs.get(name).map(|e| &e.graph.spec)
    }

    /// Submits one request.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] on unknown graphs, malformed requests, or any
    /// typed failure of the underlying pipeline.
    pub fn submit(&mut self, request: Request) -> Result<ServiceOutcome, ServiceError> {
        self.submit_batch(vec![request])
            .pop()
            .expect("one request in, one result out")
    }

    /// Submits a batch. Every request passes one admission step
    /// against its registered graph, which turns it into a typed job or a
    /// `BadRequest` before any communication. [`Request::LaplacianSolve`]
    /// entries sharing `(graph, eps)` are answered by one
    /// `solve_multi_into` call (each response is its column of the
    /// batched solve — bitwise-identical to a lone solve by the multi-RHS
    /// kernel contract). Groups of two or more run first; then every
    /// other request runs alone, in submission order — a lone Laplacian
    /// solve, or an effective resistance (the column `e_s − e_t`), as a
    /// group of one. Results are returned in submission order.
    pub fn submit_batch(
        &mut self,
        requests: Vec<Request>,
    ) -> Vec<Result<ServiceOutcome, ServiceError>> {
        let base_id = self.next_request_id;
        self.next_request_id += requests.len() as u64;

        // Group batchable solves by (graph, eps). BTreeMap keeps the
        // grouping deterministic; members stay in submission order.
        let mut groups: BTreeMap<(&str, u64), Vec<usize>> = BTreeMap::new();
        for (i, r) in requests.iter().enumerate() {
            if let Request::LaplacianSolve { graph, eps, .. } = r {
                groups.entry((graph, eps.to_bits())).or_default().push(i);
            }
        }

        let mut slots: Vec<Slot> = vec![None; requests.len()];
        for members in groups.values().filter(|members| members.len() >= 2) {
            self.run(members, base_id, &requests, &mut slots);
        }
        for i in 0..requests.len() {
            if slots[i].is_none() {
                self.run(&[i], base_id, &requests, &mut slots);
            }
        }
        self.retry_failed(&requests, base_id, &mut slots);
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect()
    }

    /// The retry pass: re-executes every comm-rooted failure under the
    /// engine's [`RetryPolicy`], degrading to a fresh per-graph build
    /// and charging deterministic backoff rounds before each attempt.
    /// The process watchdog deadline ([`cc_par::watchdog_timeout`])
    /// bounds how long the loop keeps retrying.
    fn retry_failed(&mut self, requests: &[Request], base_id: u64, slots: &mut [Slot]) {
        let policy = self.config.retry;
        if policy.max_attempts <= 1 {
            return;
        }
        let deadline = cc_par::watchdog_timeout().map(|d| std::time::Instant::now() + d);
        for i in 0..slots.len() {
            let mut faults = match &slots[i] {
                Some(Err(e)) if e.comm_rooted() => e.faults_observed,
                _ => continue,
            };
            let mut attempts: u32 = 1;
            while attempts < policy.max_attempts {
                if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                    break;
                }
                attempts += 1;
                // Graceful degradation: drop every cached artifact of
                // the graph, so the retry rebuilds fresh instead of
                // trusting state a faulty transport may have poisoned.
                if let Some(entry) = self.graphs.get_mut(requests[i].graph()) {
                    entry.sessions = Sessions::default();
                }
                let backoff = policy.backoff_for(attempts - 1);
                if backoff > 0 {
                    self.clique
                        .phase("service_retry", |c| c.charge_implemented(backoff));
                }
                self.run(&[i], base_id, requests, slots);
                match slots[i].as_mut().expect("slot just filled") {
                    Ok(outcome) => {
                        outcome.stats.attempts = attempts;
                        outcome.stats.degraded = Some(Degraded {
                            attempts,
                            faults_observed: faults,
                        });
                        break;
                    }
                    Err(e) => {
                        faults += e.faults_observed;
                        e.faults_observed = faults;
                        e.attempts = attempts;
                        if !e.comm_rooted() {
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Runs `members` — one request of any kind, or a group of
    /// same-graph, same-`eps` Laplacian solves — filling their slots.
    /// Each member is admitted on its own, and a member that fails
    /// admission leaves the group. The admitted solve columns are
    /// answered by one `solve_multi_into` call; every other job runs on
    /// the graph's sessions. Every answer then passes
    /// [`FlowEngine::settle`].
    fn run(&mut self, members: &[usize], base_id: u64, requests: &[Request], slots: &mut [Slot]) {
        let name = requests[members[0]].graph();
        let id = |i: usize| base_id + i as u64;
        let Some(entry) = self.graphs.get_mut(name) else {
            let unknown = |i| ServiceError::new(id(i), name, ServiceErrorKind::UnknownGraph);
            members
                .iter()
                .for_each(|&i| slots[i] = Some(Err(unknown(i))));
            return;
        };
        let (clique, config) = (&mut self.clique, &self.config);
        let faults0 = clique.faults_observed();
        let rounds0 = clique.ledger().total_rounds();
        let charged0 = clique.ledger().charged_rounds();
        let hits0 = entry.sessions.cache.hits();
        let stats = |i: usize, rounds, charged_rounds, built, batched_with| RequestStats {
            request_id: id(i),
            graph: name.to_string(),
            generation: entry.generation,
            rounds,
            charged_rounds,
            built,
            batched_with,
            attempts: 1,
            ..RequestStats::default()
        };
        let mut answers: Vec<(usize, Result<ServiceOutcome, ServiceErrorKind>)> = Vec::new();
        let mut columns = Vec::with_capacity(members.len());
        let mut solve = None;
        for &i in members {
            let job = match admit(&requests[i], &entry.graph, clique.n()) {
                Ok(job) => job,
                Err(reason) => {
                    let kind = ServiceErrorKind::BadRequest { reason };
                    slots[i] = Some(Err(ServiceError::new(id(i), name, kind)));
                    continue;
                }
            };
            let sessions = &mut entry.sessions;
            let answer = match job {
                Job::Column { graph, eps, source } => {
                    solve = Some((graph, eps));
                    columns.push((i, source));
                    continue;
                }
                Job::MaxFlow { graph, s, t } => sessions
                    .maxflow
                    .get_or_insert_with(|| {
                        MaxFlowSession::with_cache(config.maxflow, sessions.cache.clone())
                    })
                    .max_flow(clique, graph, s, t)
                    .map(|out| {
                        let response = Response::MaxFlow {
                            flow: out.flow,
                            value: out.value,
                        };
                        (response, false, Some(out.stats.engine))
                    })
                    .map_err(ServiceErrorKind::MaxFlow),
                Job::MinCostFlow { graph, demands } => sessions
                    .mcf
                    .get_or_insert_with(|| {
                        McfSession::with_cache(config.mcf, sessions.cache.clone())
                    })
                    .min_cost_flow(clique, graph, demands)
                    .map(|out| {
                        let response = Response::MinCostFlow {
                            flow: out.flow,
                            cost: out.cost,
                        };
                        (response, false, Some(out.stats.engine))
                    })
                    .map_err(ServiceErrorKind::Mcf),
                Job::Paths { n, arcs, source } => {
                    let session = sessions.apsp.get_or_insert_with(|| {
                        ApspSession::new(n, arcs.iter().collect(), config.round_model)
                    });
                    match source {
                        Some(source) => session
                            .sssp(clique, source)
                            .map(|outcome| {
                                let response = match outcome {
                                    SsspOutcome::Converged { dist, .. } => Response::Sssp {
                                        dist,
                                        negative_cycle: false,
                                    },
                                    SsspOutcome::NegativeCycle { .. } => Response::Sssp {
                                        dist: Vec::new(),
                                        negative_cycle: true,
                                    },
                                };
                                (response, false, None)
                            })
                            .map_err(ServiceErrorKind::Apsp),
                        None => {
                            let built = session.apsp_cached().is_none();
                            let apsp = session.apsp(clique);
                            let dist = (0..n)
                                .map(|u| (0..n).map(|v| apsp.dist(u, v)).collect())
                                .collect();
                            Ok((Response::Apsp { dist }, built, None))
                        }
                    }
                }
            };
            let rounds = clique.ledger().total_rounds() - rounds0;
            let charged = clique.ledger().charged_rounds() - charged0;
            let hits = entry.sessions.cache.hits() - hits0;
            answers.push((
                i,
                answer.map(|(response, built, engine)| ServiceOutcome {
                    response,
                    stats: RequestStats {
                        template_cache_hits: hits,
                        engine,
                        ..stats(i, rounds, charged, built, 1)
                    },
                }),
            ));
        }

        if let Some((g, eps)) = solve {
            let (n, k) = (g.n(), columns.len());
            let solved = ensure_solver(&mut entry.sessions.solver, clique, g, &config.solver)
                .and_then(|(session, built)| {
                    let rounds_built = clique.ledger().total_rounds();
                    let charged_built = clique.ledger().charged_rounds();
                    let mut bs = vec![0.0; n * k];
                    for (j, (_, source)) in columns.iter().enumerate() {
                        match *source {
                            Column::Rhs(b) => (0..n).for_each(|v| bs[v * k + j] = b[v]),
                            Column::Pair(s, t) => (bs[s * k + j], bs[t * k + j]) = (1.0, -1.0),
                        }
                    }
                    let mut xs = Vec::new();
                    let iterations = session.solve_multi_into(clique, &bs, k, eps, &mut xs)?;
                    Ok((built, rounds_built, charged_built, xs, iterations))
                });
            for (j, &(i, ref source)) in columns.iter().enumerate() {
                let answer = match &solved {
                    Err(e) => Err(ServiceErrorKind::Core(e.clone())),
                    Ok((built, rounds_built, charged_built, xs, iterations)) => {
                        let iterations = *iterations;
                        let response = match *source {
                            Column::Rhs(_) => Response::Potentials {
                                x: (0..n).map(|v| xs[v * k + j]).collect(),
                                iterations,
                            },
                            Column::Pair(s, t) => Response::Resistance {
                                value: xs[s * k + j] - xs[t * k + j],
                                iterations,
                            },
                        };
                        // The build is attributed to the group's first
                        // member; the solve rounds split evenly (each
                        // iteration broadcasts once per column, so the
                        // share is exact).
                        let solve_rounds = clique.ledger().total_rounds() - rounds_built;
                        let solve_charged = clique.ledger().charged_rounds() - charged_built;
                        let (build_r, build_c, paid) = if j == 0 {
                            (rounds_built - rounds0, charged_built - charged0, *built)
                        } else {
                            (0, 0, false)
                        };
                        let rounds = build_r + solve_rounds / k as u64;
                        let charged = build_c + solve_charged / k as u64;
                        Ok(ServiceOutcome {
                            response,
                            stats: stats(i, rounds, charged, paid, k),
                        })
                    }
                };
                answers.push((i, answer));
            }
        }

        for (i, answer) in answers {
            slots[i] = Some(self.settle(id(i), name, faults0, answer));
        }
    }

    /// The one copy of a request's failure bookkeeping: holds a success
    /// to the per-request round budget, and stamps a failure with the
    /// transport faults observed since `faults0`.
    fn settle(
        &self,
        id: u64,
        graph: &str,
        faults0: u64,
        answer: Result<ServiceOutcome, ServiceErrorKind>,
    ) -> Result<ServiceOutcome, ServiceError> {
        let kind = match (answer, self.config.round_budget) {
            (Ok(outcome), Some(budget)) if outcome.stats.rounds > budget => {
                ServiceErrorKind::RoundBudgetExceeded {
                    rounds: outcome.stats.rounds,
                    budget,
                }
            }
            (Ok(outcome), _) => return Ok(outcome),
            (Err(kind), _) => kind,
        };
        let mut e = ServiceError::new(id, graph, kind);
        e.faults_observed = self.clique.faults_observed() - faults0;
        Err(e)
    }
}

/// An admitted request: every check passed, and the job borrows the
/// typed graph it runs on.
enum Job<'a> {
    /// One column of a Laplacian solve group.
    Column {
        graph: &'a Graph,
        eps: f64,
        source: Column<'a>,
    },
    MaxFlow {
        graph: &'a DiGraph,
        s: usize,
        t: usize,
    },
    MinCostFlow {
        graph: &'a DiGraph,
        demands: &'a [i64],
    },
    /// Shortest paths from `source`, or between all pairs when `None`.
    Paths {
        n: usize,
        arcs: Arcs<'a>,
        source: Option<usize>,
    },
}

/// Where a solve column's right-hand side comes from.
enum Column<'a> {
    /// A Laplacian solve's `b`; its response is the potentials.
    Rhs(&'a [f64]),
    /// An effective resistance's `e_s − e_t`; its response is `x_s − x_t`.
    Pair(usize, usize),
}

/// The admission step: turns `request` into a job on its registered
/// graph, or into the reason it is a `BadRequest`. Every check runs
/// here, before any communication, in the order the request's kind
/// lists them.
fn admit<'a>(
    request: &'a Request,
    graph: &'a Registered,
    clique_n: usize,
) -> Result<Job<'a>, &'static str> {
    let spec = &graph.spec;
    let n = spec.n();
    if n > clique_n {
        return Err("graph has more vertices than the clique has nodes");
    }
    let domain = || graph.domain_problem.map_or(Ok(()), Err);
    let positive = |eps: f64| match eps.is_nan() || eps <= 0.0 {
        true => Err("eps must be positive"),
        false => Ok(eps),
    };
    let terminals = |s: usize, t: usize| match s >= n || t >= n || s == t {
        true => Err("terminals must be distinct in-range vertices"),
        false => Ok(()),
    };
    match (request, spec) {
        (Request::LaplacianSolve { b, eps, .. }, GraphSpec::Undirected(g)) => {
            let eps = positive(*eps)?;
            if b.len() != n {
                return Err("rhs length must equal the vertex count");
            }
            if !b.iter().all(|x| x.is_finite()) {
                return Err("rhs entries must be finite");
            }
            domain()?;
            let source = Column::Rhs(b);
            Ok(Job::Column {
                graph: g,
                eps,
                source,
            })
        }
        (Request::LaplacianSolve { .. }, _) => Err("Laplacian solve needs an undirected graph"),
        (Request::EffectiveResistance { s, t, eps, .. }, GraphSpec::Undirected(g)) => {
            terminals(*s, *t)?;
            if graph.components[*s] != graph.components[*t] {
                return Err("terminals lie in different components (infinite resistance)");
            }
            let eps = positive(*eps)?;
            domain()?;
            let source = Column::Pair(*s, *t);
            Ok(Job::Column {
                graph: g,
                eps,
                source,
            })
        }
        (Request::EffectiveResistance { .. }, _) => {
            Err("effective resistance needs an undirected graph")
        }
        (Request::MaxFlow { s, t, .. }, GraphSpec::Directed(g)) => {
            terminals(*s, *t)?;
            domain()?;
            Ok(Job::MaxFlow {
                graph: g,
                s: *s,
                t: *t,
            })
        }
        (Request::MaxFlow { .. }, _) => Err("max flow needs a directed graph"),
        (Request::MinCostFlow { demands, .. }, GraphSpec::Directed(g)) => {
            if clique_n < n + 2 {
                return Err("clique too small for MCF rounding (needs n + 2 nodes)");
            }
            domain()?;
            Ok(Job::MinCostFlow { graph: g, demands })
        }
        (Request::MinCostFlow { .. }, _) => Err("min-cost flow needs a directed graph"),
        (Request::Sssp { source, .. }, _) => {
            let arcs = spec_arcs(spec).ok_or("SSSP needs a directed or arc graph")?;
            if *source >= n {
                return Err("source out of range");
            }
            graph.arcs_problem.map_or(Ok(()), Err)?;
            let source = Some(*source);
            Ok(Job::Paths { n, arcs, source })
        }
        (Request::Apsp { .. }, _) => {
            let arcs = spec_arcs(spec).ok_or("APSP needs a directed or arc graph")?;
            graph.arcs_problem.map_or(Ok(()), Err)?;
            if arcs.iter().any(|(_, _, w)| w < 0) {
                return Err("APSP needs non-negative arc weights (SSSP accepts negative ones)");
            }
            Ok(Job::Paths {
                n,
                arcs,
                source: None,
            })
        }
    }
}

/// Why a shortest-path arc list is malformed for an `n`-vertex graph, if
/// it is: an endpoint that is not a vertex, or a weight too large in
/// magnitude for the bound documented on [`GraphSpec::Arcs`].
fn arcs_problem(arcs: Arcs<'_>, n: usize) -> Option<&'static str> {
    // A path of fewer than `n` arcs has at most `n − 1` of them.
    let max_weight = (INFINITY as u64 - 1) / (n.max(2) as u64 - 1);
    if arcs.iter().any(|(u, v, _)| u >= n || v >= n) {
        Some("arc endpoints must be vertices")
    } else if arcs.iter().any(|(_, _, w)| w.unsigned_abs() > max_weight) {
        Some("arc weights must satisfy |w|·(n − 1) < INFINITY")
    } else {
        None
    }
}

/// The shortest-path arcs of a directed or arc spec.
#[derive(Clone, Copy)]
enum Arcs<'a> {
    Directed(&'a DiGraph),
    Bare(&'a [(usize, usize, i64)]),
}

impl<'a> Arcs<'a> {
    /// The arcs as `(from, to, weight)`; a directed graph's weight is
    /// its cost.
    fn iter(self) -> Box<dyn Iterator<Item = (usize, usize, i64)> + 'a> {
        match self {
            Arcs::Directed(g) => Box::new(g.edges().iter().map(|e| (e.from, e.to, e.cost))),
            Arcs::Bare(arcs) => Box::new(arcs.iter().copied()),
        }
    }
}

/// The shortest-path arcs of a spec (`None` for an undirected graph).
fn spec_arcs(spec: &GraphSpec) -> Option<Arcs<'_>> {
    match spec {
        GraphSpec::Undirected(_) => None,
        GraphSpec::Directed(g) => Some(Arcs::Directed(g)),
        GraphSpec::Arcs { arcs, .. } => Some(Arcs::Bare(arcs)),
    }
}

/// Builds the Laplacian solver if absent; returns it and whether this
/// call paid the build.
fn ensure_solver<'s, C: Communicator>(
    solver: &'s mut Option<SolverSession>,
    clique: &mut C,
    g: &Graph,
    options: &SolverOptions,
) -> Result<(&'s mut SolverSession, bool), CoreError> {
    let built = solver.is_none();
    if built {
        *solver = Some(SolverSession::build(clique, g, options)?);
    }
    Ok((solver.as_mut().expect("solver just ensured"), built))
}
