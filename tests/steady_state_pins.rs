//! Bitwise pins of the steady-state flow path: every routed outbox of the
//! Eulerian orientation, every electrical flow the barrier engine
//! computes, and every sparsifier a captured template instantiates.
//!
//! The constants were computed before the electrical network was
//! reweighted in place and the orientation moved onto reused buffers;
//! both rewrites promise to change no message, no float bit and no
//! round, and these digests hold them to it. (`tests/barrier_engine.rs`
//! pins only integral flows and rounds, which a float drift could leave
//! intact.)

use cc_conform::corpus::{demand_corpus, eulerian_corpus, flow_corpus, undirected_corpus};
use cc_euler::eulerian_orientation;
use cc_graph::Graph;
use cc_maxflow::{max_flow_ipm, IpmOptions};
use cc_mcf::{min_cost_flow_ipm, McfOptions};
use cc_model::util::Fnv1a;
use cc_model::{Clique, Communicator, Decorator, ModelError, NodeId, Op, Reply, Words};
use cc_sparsify::{build_sparsifier_with_template, SparsifyParams, SpectralSparsifier};

/// Folds every `route` call's outboxes — node order, message order,
/// destination and payload words — into one running digest (a
/// `route_batch` call as its rebuilt outboxes), and forwards every call
/// untouched.
struct RouteDigest<C> {
    inner: C,
    digest: Fnv1a,
    calls: u64,
}

impl<C: Communicator> RouteDigest<C> {
    fn new(inner: C) -> Self {
        Self {
            inner,
            digest: Fnv1a::default(),
            calls: 0,
        }
    }

    fn fold(&mut self, outboxes: &[Vec<(NodeId, Words)>]) {
        self.calls += 1;
        self.digest.word(outboxes.len() as u64);
        for outbox in outboxes {
            self.digest.word(outbox.len() as u64);
            for (dst, words) in outbox {
                self.digest.word(*dst as u64);
                self.digest.word(words.len() as u64);
                for &w in words {
                    self.digest.word(w);
                }
            }
        }
    }
}

impl<C: Communicator> Decorator for RouteDigest<C> {
    type Inner = C;

    fn inner(&self) -> &C {
        &self.inner
    }

    fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    fn call(&mut self, op: Op<'_>) -> Result<Reply, ModelError> {
        match &op {
            Op::Route(outboxes) => self.fold(outboxes),
            Op::RouteBatch(batch) => self.fold(&batch.outboxes(self.inner.n())?),
            _ => {}
        }
        op.apply(&mut self.inner)
    }
}

/// Outbox digest, `route` call count and total rounds of orienting every
/// graph of the Eulerian corpus.
#[test]
fn orientation_outboxes_are_pinned() {
    let mut comm_digest = Fnv1a::default();
    let mut calls = 0u64;
    let mut rounds = 0u64;
    for case in eulerian_corpus(0) {
        let mut comm = RouteDigest::new(Clique::new(case.graph.n().max(2)));
        let oriented = eulerian_orientation(&mut comm, &case.graph).unwrap();
        for o in oriented {
            comm_digest.word(o as u64);
        }
        comm_digest.word(comm.digest.finish());
        calls += comm.calls;
        rounds += Communicator::ledger(&comm).total_rounds();
    }
    assert_eq!(
        (comm_digest.finish(), calls, rounds),
        (14709829015210741935, 299, 626),
        "orientation outboxes drifted"
    );
}

/// Outbox digest of every `route` call of the flow-rounding levels of
/// the max-flow and min-cost-flow corpora (rounding is the IPMs' only
/// `route` user).
#[test]
fn rounding_outboxes_are_pinned() {
    let mut digest = Fnv1a::default();
    let mut calls = 0u64;
    for case in flow_corpus(0) {
        let mut comm = RouteDigest::new(Clique::new(case.graph.n()));
        max_flow_ipm(
            &mut comm,
            &case.graph,
            case.s,
            case.t,
            &IpmOptions::default(),
        )
        .unwrap();
        digest.word(comm.digest.finish());
        calls += comm.calls;
    }
    for case in demand_corpus(0) {
        let mut comm = RouteDigest::new(Clique::new(case.graph.n() + 2));
        min_cost_flow_ipm(&mut comm, &case.graph, &case.sigma, &McfOptions::default()).unwrap();
        digest.word(comm.digest.finish());
        calls += comm.calls;
    }
    assert_eq!(
        (digest.finish(), calls),
        (11188802395735725922, 2047),
        "rounding outboxes drifted"
    );
}

/// The barrier engine's digest of every build's `α`/`κ` and every
/// solve's potentials, flows, energy and iteration count.
#[test]
fn electrical_flows_are_pinned() {
    let mut digest = Fnv1a::default();
    let mut solves = 0usize;
    for case in flow_corpus(0) {
        let mut clique = Clique::new(case.graph.n());
        let out = max_flow_ipm(
            &mut clique,
            &case.graph,
            case.s,
            case.t,
            &IpmOptions::default(),
        )
        .unwrap();
        digest.word(out.stats.engine.digest());
        solves += out.stats.engine.total_solves();
    }
    for case in demand_corpus(0) {
        let mut clique = Clique::new(case.graph.n() + 2);
        let out = min_cost_flow_ipm(
            &mut clique,
            &case.graph,
            &case.sigma,
            &McfOptions::default(),
        )
        .unwrap();
        digest.word(out.stats.engine.digest());
        solves += out.stats.engine.total_solves();
    }
    assert_eq!(
        (digest.finish(), solves),
        (7861945079625016222, 399),
        "electrical flows drifted"
    );
}

fn fold_sparsifier(digest: &mut Fnv1a, h: &SpectralSparsifier) {
    digest.word(h.n() as u64);
    digest.word(h.aux_count() as u64);
    digest.word(h.levels() as u64);
    digest.word(h.alpha().to_bits());
    for &(u, v, w) in h.edges() {
        digest.word(u as u64);
        digest.word(v as u64);
        digest.word(w.to_bits());
    }
}

/// `g` with every weight scaled by a deterministic factor in `1..=5`.
fn reweighted(g: &Graph, step: usize) -> Graph {
    let mut out = Graph::new(g.n());
    for (i, e) in g.edges().iter().enumerate() {
        out.add_edge(e.u, e.v, e.weight * (1 + (i * 7 + step) % 5) as f64);
    }
    out
}

/// Every corpus graph's template capture and the sparsifiers its
/// template instantiates for two reweightings: edges, `α` bits and
/// rounds.
#[test]
fn template_sparsifiers_are_pinned() {
    let mut digest = Fnv1a::default();
    for case in undirected_corpus(0) {
        let g = &case.graph;
        let mut clique = Clique::new(g.n().max(2));
        let (h, template) =
            build_sparsifier_with_template(&mut clique, g, &SparsifyParams::default()).unwrap();
        fold_sparsifier(&mut digest, &h);
        digest.word(clique.ledger().total_rounds());
        for step in 0..2 {
            let h = template
                .instantiate(&mut clique, &reweighted(g, step))
                .unwrap();
            fold_sparsifier(&mut digest, &h);
            digest.word(clique.ledger().total_rounds());
        }
    }
    assert_eq!(
        digest.finish(),
        18212804642136242022,
        "template sparsifiers drifted"
    );
}
