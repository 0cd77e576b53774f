//! The workloads: which graphs are registered, and the seeded request
//! stream a closed-loop client submits against them.
//!
//! Streams are drawn from shuffled decks rather than independent draws:
//! every 16 requests of `service_mix` hold exactly the soak's kind mix,
//! graphs and ε tiers come round in seeded order, and batch widths cycle
//! through their range. A seed therefore changes the order, the graphs'
//! pairing with batches and every right-hand side, but not the stream's
//! composition, which keeps seed-to-seed spread down to what the order
//! itself costs.

use cc_conform::{corpus, oracle};
use cc_graph::{generators, DiGraph};
use cc_service::{GraphSpec, Request, Response};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The conformance corpus's 21 base graphs on a `Clique`, with the
    /// soak's kind mix and a re-registration every 50th batch.
    ServiceMix,
    /// One 256-vertex random graph: Laplacian solves in batches of 1..=16
    /// and effective resistances.
    LaplacianN256,
    /// `ServiceMix` over `ThreadedComm` with two workers.
    ServiceMixThreaded2,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServiceMix,
        Workload::LaplacianN256,
        Workload::ServiceMixThreaded2,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServiceMix => "service_mix",
            Workload::LaplacianN256 => "laplacian_n256",
            Workload::ServiceMixThreaded2 => "service_mix_threaded2",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True if the engine runs over `ThreadedComm`.
    pub fn threaded(self) -> bool {
        self == Workload::ServiceMixThreaded2
    }

    /// Requests per second of `--seconds` in the timed stream: the
    /// stream length is `seconds × requests_per_second()`. It is a fixed
    /// count rather than a timed one, so every exact count (rounds,
    /// iterations, builds) repeats from run to run and is equal between
    /// the `Clique` and `ThreadedComm` runs of the service mix.
    ///
    /// On a 2-vCPU x86-64 VM `laplacian_n256` streams about this rate, so
    /// its stream lasts about `--seconds`. The two service mixes share one
    /// rate, as they share their stream: `service_mix` streams it in about
    /// 0.4 × `--seconds`, `service_mix_threaded2` in about 1.6 ×
    /// `--seconds` (`README.md` lists every workload's whole wall).
    pub fn requests_per_second(self) -> usize {
        match self {
            Workload::LaplacianN256 => 1300,
            Workload::ServiceMix | Workload::ServiceMixThreaded2 => 750,
        }
    }
}

/// What the oracle needs to recheck a response against one graph.
#[derive(Debug, Clone)]
pub enum OracleData {
    /// Undirected weighted graph.
    Laplacian {
        /// Vertex count.
        n: usize,
        /// `(u, v, weight)` edges.
        edges: Vec<(usize, usize, f64)>,
    },
    /// Capacitated network with its corpus terminals.
    Flow {
        /// The network.
        graph: DiGraph,
        /// Source.
        s: usize,
        /// Sink.
        t: usize,
    },
    /// Assignment network with its demand vector.
    Demand {
        /// The network.
        graph: DiGraph,
        /// Demands.
        sigma: Vec<i64>,
    },
    /// Non-negative arc list.
    Arcs {
        /// Vertex count.
        n: usize,
        /// `(from, to, weight)` arcs.
        arcs: Vec<(usize, usize, i64)>,
    },
}

/// One registered graph.
#[derive(Debug, Clone)]
pub struct GraphCase {
    /// Registered name.
    pub name: String,
    /// What the engine receives.
    pub spec: GraphSpec,
    /// What the oracle checks against.
    pub oracle: OracleData,
}

/// The graphs a workload registers, and the clique they need.
#[derive(Debug, Clone)]
pub struct Slate {
    /// Graphs in registration order.
    pub graphs: Vec<GraphCase>,
    /// Clique size: the largest graph plus the two extra nodes min-cost
    /// flow rounding needs.
    pub clique_n: usize,
}

/// Generator seed of the `laplacian_n256` graph. The graph is fixed, so
/// its condition bound — and with it every solve's iteration count — is
/// the same for every stream seed.
const LAPLACIAN_GRAPH_SEED: u64 = 1;

impl Slate {
    /// The graphs of `workload`.
    pub fn new(workload: Workload) -> Slate {
        let graphs = match workload {
            Workload::ServiceMix | Workload::ServiceMixThreaded2 => corpus_slate(),
            Workload::LaplacianN256 => {
                let g = generators::random_connected(256, 1024, 16, LAPLACIAN_GRAPH_SEED);
                vec![GraphCase {
                    name: "u/random-256".into(),
                    oracle: OracleData::Laplacian {
                        n: g.n(),
                        edges: g.edge_triples(),
                    },
                    spec: GraphSpec::Undirected(g),
                }]
            }
        };
        let max_n = graphs
            .iter()
            .map(|g| g.spec.n())
            .max()
            .expect("non-empty slate");
        let clique_n = match workload {
            Workload::LaplacianN256 => max_n,
            _ => max_n + 2,
        };
        Slate { graphs, clique_n }
    }

    /// One request per graph that pays every per-graph build (solver
    /// factorization, flow templates, APSP matrix), in slate order.
    pub fn warmup(&self) -> Vec<Request> {
        self.graphs
            .iter()
            .map(|case| {
                let graph = case.name.clone();
                match &case.oracle {
                    OracleData::Laplacian { n, .. } => {
                        let mut b = vec![0.0; *n];
                        b[0] = 1.0;
                        b[n - 1] = -1.0;
                        Request::LaplacianSolve {
                            graph,
                            b,
                            eps: 1e-8,
                        }
                    }
                    OracleData::Flow { s, t, .. } => Request::MaxFlow {
                        graph,
                        s: *s,
                        t: *t,
                    },
                    OracleData::Demand { sigma, .. } => Request::MinCostFlow {
                        graph,
                        demands: sigma.clone(),
                    },
                    OracleData::Arcs { .. } => Request::Apsp { graph },
                }
            })
            .collect()
    }

    /// Slate index of a registered name.
    pub fn index(&self, name: &str) -> usize {
        self.graphs
            .iter()
            .position(|g| g.name == name)
            .expect("request names a slate graph")
    }
}

/// The `cc_conform::corpus` base slate: 6 undirected, 5 flow, 5 demand
/// and 5 arc graphs.
fn corpus_slate() -> Vec<GraphCase> {
    let mut graphs = Vec::new();
    for case in corpus::undirected_corpus(0) {
        graphs.push(GraphCase {
            name: format!("u/{}", case.id),
            oracle: OracleData::Laplacian {
                n: case.graph.n(),
                edges: case.graph.edge_triples(),
            },
            spec: GraphSpec::Undirected(case.graph),
        });
    }
    for case in corpus::flow_corpus(0) {
        graphs.push(GraphCase {
            name: format!("f/{}", case.id),
            oracle: OracleData::Flow {
                graph: case.graph.clone(),
                s: case.s,
                t: case.t,
            },
            spec: GraphSpec::Directed(case.graph),
        });
    }
    for case in corpus::demand_corpus(0) {
        graphs.push(GraphCase {
            name: format!("d/{}", case.id),
            oracle: OracleData::Demand {
                graph: case.graph.clone(),
                sigma: case.sigma,
            },
            spec: GraphSpec::Directed(case.graph),
        });
    }
    for case in corpus::arc_corpus(0) {
        graphs.push(GraphCase {
            name: format!("a/{}", case.id),
            oracle: OracleData::Arcs {
                n: case.n,
                arcs: case.arcs.clone(),
            },
            spec: GraphSpec::Arcs {
                n: case.n,
                arcs: case.arcs,
            },
        });
    }
    graphs
}

/// SplitMix64: the workload generator's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-0.5, 0.5)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

/// A deck dealt in seeded-shuffled order, reshuffled when exhausted.
#[derive(Debug, Clone)]
struct Deck<T: Clone> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Clone> Deck<T> {
    fn new(cards: Vec<T>) -> Self {
        let next = cards.len();
        Deck { cards, next }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        assert!(!self.cards.is_empty(), "dealing from an empty deck");
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1].clone()
    }
}

/// One `submit_batch` call of the closed-loop client.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Slate index of a graph re-registered (unchanged spec) just before
    /// the batch: the write path, which drops that graph's caches.
    pub reregister: Option<usize>,
    /// The requests.
    pub requests: Vec<Request>,
}

/// Batches between re-registrations on `service_mix`.
pub const REREGISTER_EVERY: usize = 50;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Solve,
    Resistance,
    MaxFlow,
    MinCostFlow,
    Sssp,
    Apsp,
}

/// The workload's request stream for a seed, dealt lazily batch by
/// batch, so a run holds only the batch in flight.
#[derive(Debug, Clone)]
pub struct Stream<'a> {
    workload: Workload,
    slate: &'a Slate,
    rng: Rng,
    kinds: Deck<Kind>,
    widths: Deck<usize>,
    solve_eps: Deck<f64>,
    undirected: Deck<usize>,
    flows: Deck<usize>,
    demands: Deck<usize>,
    arcs: Deck<usize>,
    /// Graphs to re-register (`service_mix` only).
    reregister: Option<Deck<usize>>,
    width: usize,
    pending: Vec<Request>,
    /// Requests still to deal.
    remaining: usize,
    /// Batches dealt so far.
    batches: usize,
}

/// The first `requests` requests of the workload's stream for `seed`,
/// cut into batches.
pub fn stream(workload: Workload, slate: &Slate, seed: u64, requests: usize) -> Stream<'_> {
    let mut rng = Rng::new(seed ^ 0x5151_7e57);
    let of = |pick: fn(&OracleData) -> bool| -> Deck<usize> {
        Deck::new(
            (0..slate.graphs.len())
                .filter(|&i| pick(&slate.graphs[i].oracle))
                .collect(),
        )
    };
    let (kinds, widths, reregister) = match workload {
        Workload::LaplacianN256 => (
            vec![Kind::Solve, Kind::Solve, Kind::Resistance],
            (1..=16).collect::<Vec<usize>>(),
            None,
        ),
        _ => {
            let mut kinds = vec![Kind::Solve; 6];
            kinds.extend([Kind::Resistance; 3]);
            kinds.extend([
                Kind::MaxFlow,
                Kind::MaxFlow,
                Kind::MinCostFlow,
                Kind::MinCostFlow,
            ]);
            kinds.extend([Kind::Sssp, Kind::Sssp, Kind::Apsp]);
            (
                kinds,
                (1..=4).collect(),
                Some(Deck::new((0..slate.graphs.len()).collect())),
            )
        }
    };
    let mut widths = Deck::new(widths);
    let width = widths.deal(&mut rng);
    Stream {
        workload,
        slate,
        kinds: Deck::new(kinds),
        widths,
        solve_eps: Deck::new(vec![1e-8, 1e-6]),
        undirected: of(|o| matches!(o, OracleData::Laplacian { .. })),
        flows: of(|o| matches!(o, OracleData::Flow { .. })),
        demands: of(|o| matches!(o, OracleData::Demand { .. })),
        arcs: of(|o| matches!(o, OracleData::Arcs { .. })),
        reregister,
        width,
        pending: Vec::with_capacity(width),
        remaining: requests,
        batches: 0,
        rng,
    }
}

impl Stream<'_> {
    fn batch(&mut self, requests: Vec<Request>) -> Batch {
        let reregister = match &mut self.reregister {
            Some(deck) if self.batches % REREGISTER_EVERY == REREGISTER_EVERY - 1 => {
                Some(deck.deal(&mut self.rng))
            }
            _ => None,
        };
        self.batches += 1;
        Batch {
            reregister,
            requests,
        }
    }

    /// Deals the next request, and whether it goes in a batch of its own.
    fn request(&mut self) -> (Request, bool) {
        let rng = &mut self.rng;
        let kind = self.kinds.deal(rng);
        let deck = match kind {
            Kind::Solve | Kind::Resistance => &mut self.undirected,
            Kind::MaxFlow => &mut self.flows,
            Kind::MinCostFlow => &mut self.demands,
            Kind::Sssp | Kind::Apsp => &mut self.arcs,
        };
        let case = &self.slate.graphs[deck.deal(rng)];
        let graph = case.name.clone();
        let request = match (kind, &case.oracle) {
            (Kind::Solve, OracleData::Laplacian { n, .. }) => {
                let mut b: Vec<f64> = (0..*n).map(|_| rng.unit()).collect();
                let mean = b.iter().sum::<f64>() / *n as f64;
                b.iter_mut().for_each(|v| *v -= mean);
                Request::LaplacianSolve {
                    graph,
                    b,
                    eps: self.solve_eps.deal(rng),
                }
            }
            (Kind::Resistance, OracleData::Laplacian { n, .. }) => {
                let s = rng.below(*n);
                let t = (s + 1 + rng.below(n - 1)) % n;
                Request::EffectiveResistance {
                    graph,
                    s,
                    t,
                    eps: 1e-8,
                }
            }
            (Kind::MaxFlow, OracleData::Flow { s, t, .. }) => Request::MaxFlow {
                graph,
                s: *s,
                t: *t,
            },
            (Kind::MinCostFlow, OracleData::Demand { sigma, .. }) => Request::MinCostFlow {
                graph,
                demands: sigma.clone(),
            },
            (Kind::Sssp, OracleData::Arcs { n, .. }) => Request::Sssp {
                graph,
                source: rng.below(*n),
            },
            (Kind::Apsp, OracleData::Arcs { .. }) => Request::Apsp { graph },
            _ => unreachable!("decks hold graphs of their kind"),
        };
        // The engine never batches flows or resistances, and each costs
        // as much as a whole batch of the workload's other requests, so
        // the client sends them on their own instead of holding cheaper
        // answers behind them; everything else fills batches of the dealt
        // width.
        let solo = match self.workload {
            Workload::LaplacianN256 => matches!(kind, Kind::Resistance),
            _ => matches!(kind, Kind::MaxFlow | Kind::MinCostFlow),
        };
        (request, solo)
    }
}

impl Iterator for Stream<'_> {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        while self.remaining > 0 {
            self.remaining -= 1;
            let (request, solo) = self.request();
            if solo {
                return Some(self.batch(vec![request]));
            }
            self.pending.push(request);
            if self.pending.len() == self.width {
                let requests = std::mem::take(&mut self.pending);
                let batch = self.batch(requests);
                self.width = self.widths.deal(&mut self.rng);
                return Some(batch);
            }
        }
        if self.pending.is_empty() {
            None
        } else {
            let requests = std::mem::take(&mut self.pending);
            Some(self.batch(requests))
        }
    }
}

/// Checks one response against the sequential oracle; returns a
/// description of the disagreement, if any.
pub fn oracle_check(slate: &Slate, request: &Request, response: &Response) -> Option<String> {
    let data = &slate.graphs[slate.index(request.graph())].oracle;
    let name = request.graph();
    match (request, response, data) {
        (
            Request::LaplacianSolve { b, eps, .. },
            Response::Potentials { x, .. },
            OracleData::Laplacian { n, edges },
        ) => {
            let Ok(want) = oracle::dense_laplacian_solve(*n, edges, b) else {
                return Some(format!("{name}: oracle factorization failed"));
            };
            let diff: Vec<f64> = x.iter().zip(&want).map(|(a, w)| a - w).collect();
            let err = oracle::quadratic_form(edges, &diff).sqrt();
            let scale = oracle::quadratic_form(edges, &want).sqrt();
            // ε relative error in the L-seminorm; 10x slack absorbs the
            // broadcast quantization, as in the conformance soak.
            (err > 10.0 * eps * scale.max(1e-12)).then(|| {
                format!("{name}: solve off by {err:.3e} (scale {scale:.3e}, eps {eps:.0e})")
            })
        }
        (
            Request::EffectiveResistance { s, t, .. },
            Response::Resistance { value, .. },
            OracleData::Laplacian { n, edges },
        ) => {
            let Ok(want) = oracle::effective_resistance_dense(*n, edges, *s, *t) else {
                return Some(format!("{name}: oracle factorization failed"));
            };
            ((value - want).abs() > 1e-6 * want.abs().max(1e-9))
                .then(|| format!("{name}: R_eff({s},{t}) = {value:e}, oracle {want:e}"))
        }
        (
            Request::MaxFlow { s, t, .. },
            Response::MaxFlow { value, .. },
            OracleData::Flow { graph, .. },
        ) => {
            let (_, want) = oracle::edmonds_karp(graph, *s, *t);
            (*value != want).then(|| format!("{name}: max flow {value}, oracle {want}"))
        }
        (
            Request::MinCostFlow { .. },
            Response::MinCostFlow { cost, .. },
            OracleData::Demand { graph, sigma },
        ) => match oracle::ssp_mcf(graph, sigma) {
            Some((_, want)) if want == *cost => None,
            Some((_, want)) => Some(format!("{name}: min-cost flow cost {cost}, oracle {want}")),
            None => Some(format!("{name}: oracle says infeasible")),
        },
        (
            Request::Sssp { source, .. },
            Response::Sssp {
                dist,
                negative_cycle,
            },
            OracleData::Arcs { n, arcs },
        ) => (*negative_cycle || *dist != oracle::dijkstra_sssp(*n, arcs, *source))
            .then(|| format!("{name}: SSSP from {source} disagrees with Dijkstra")),
        (Request::Apsp { .. }, Response::Apsp { dist }, OracleData::Arcs { n, arcs }) => (*dist
            != oracle::dijkstra_apsp(*n, arcs))
        .then(|| format!("{name}: APSP disagrees with Dijkstra")),
        _ => Some(format!("{name}: response kind does not match the request")),
    }
}
