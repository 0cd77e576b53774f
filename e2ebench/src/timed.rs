//! [`TimedComm`]: a [`Communicator`] decorator that times every primitive
//! call and every layer call the traced replay makes through it.
//!
//! It observes and never charges: every method forwards to the wrapped
//! substrate unchanged, so ledgers and responses stay bitwise equal to an
//! unwrapped run (the traced run asserts both). Word counts follow the
//! logical-payload conventions of [`cc_model::TracingComm`].

use std::time::Instant;

use cc_model::{CliqueConfig, Communicator, Envelope, ModelError, NodeId, RoundLedger, Words};

/// The layer call a primitive happened under: the engine as a whole, or
/// one public entry point of a layer crate called by the direct replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Outside every call below: all of an engine-driven pass.
    Engine,
    /// `SolverSession::build` (`cc-core`, which builds the Thm 3.3
    /// sparsifier and factors it).
    CoreBuild,
    /// `SolverSession::solve_into`.
    CoreSolve,
    /// `SolverSession::solve_multi_into`.
    CoreSolveMulti,
    /// `MaxFlowSession::max_flow` (`cc-ipm` barrier engine).
    IpmMaxFlow,
    /// `McfSession::min_cost_flow` (`cc-ipm` barrier engine).
    IpmMcf,
    /// `ApspSession::sssp`.
    ApspSssp,
    /// `ApspSession::apsp`.
    ApspApsp,
}

/// Number of [`Span`]s.
pub const SPANS: usize = 8;

/// Every [`Span`], in discriminant order.
pub const ALL_SPANS: [Span; SPANS] = [
    Span::Engine,
    Span::CoreBuild,
    Span::CoreSolve,
    Span::CoreSolveMulti,
    Span::IpmMaxFlow,
    Span::IpmMcf,
    Span::ApspSssp,
    Span::ApspApsp,
];

/// The message primitives of [`Communicator`] (`broadcast_all_into`
/// counts as `broadcast_all`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prim {
    /// `exchange` (sharded over the worker pool by `ThreadedComm`).
    Exchange,
    /// `route` (sharded).
    Route,
    /// `route_strict` (sharded).
    RouteStrict,
    /// `broadcast_all` / `broadcast_all_into`.
    BroadcastAll,
    /// `broadcast_all_words`.
    BroadcastAllWords,
    /// `broadcast_from`.
    BroadcastFrom,
    /// `allgather`.
    Allgather,
    /// `sort`.
    Sort,
    /// `gather_to`.
    GatherTo,
}

/// Number of [`Prim`]s.
pub const PRIMS: usize = 9;

/// Every [`Prim`] with its metric name, in discriminant order.
pub const ALL_PRIMS: [(Prim, &str); PRIMS] = [
    (Prim::Exchange, "exchange"),
    (Prim::Route, "route"),
    (Prim::RouteStrict, "route_strict"),
    (Prim::BroadcastAll, "broadcast_all"),
    (Prim::BroadcastAllWords, "broadcast_all_words"),
    (Prim::BroadcastFrom, "broadcast_from"),
    (Prim::Allgather, "allgather"),
    (Prim::Sort, "sort"),
    (Prim::GatherTo, "gather_to"),
];

impl Prim {
    /// True for the primitives `ThreadedComm` shards over the `cc-par`
    /// worker pool; the rest run on the calling thread.
    pub fn sharded(self) -> bool {
        matches!(self, Prim::Exchange | Prim::Route | Prim::RouteStrict)
    }
}

/// Calls, wall time and logical words of one primitive under one span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrimStat {
    /// Calls made.
    pub calls: u64,
    /// Wall nanoseconds inside the call.
    pub nanos: u64,
    /// Logical payload words carried.
    pub words: u64,
}

/// Calls and wall time of one layer span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Calls made.
    pub calls: u64,
    /// Wall nanoseconds inside the calls.
    pub nanos: u64,
}

/// The timing decorator; see the module docs.
#[derive(Debug)]
pub struct TimedComm<C: Communicator> {
    inner: C,
    span: Span,
    prims: [[PrimStat; PRIMS]; SPANS],
    spans: [SpanStat; SPANS],
}

fn outbox_words(outboxes: &[Vec<(NodeId, Words)>]) -> u64 {
    outboxes.iter().flatten().map(|(_, w)| w.len() as u64).sum()
}

fn vector_words(per_node: &[Words]) -> u64 {
    per_node.iter().map(|w| w.len() as u64).sum()
}

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl<C: Communicator> TimedComm<C> {
    /// Wraps `inner` with all counters at zero.
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            span: Span::Engine,
            prims: [[PrimStat::default(); PRIMS]; SPANS],
            spans: [SpanStat::default(); SPANS],
        }
    }

    /// The wrapped substrate.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Primitive counters, indexed `[span][prim]`.
    pub fn prims(&self) -> &[[PrimStat; PRIMS]; SPANS] {
        &self.prims
    }

    /// Span counters, indexed by span.
    pub fn spans(&self) -> &[SpanStat; SPANS] {
        &self.spans
    }

    /// Zeroes every counter (the ledger is untouched).
    pub fn reset(&mut self) {
        self.prims = [[PrimStat::default(); PRIMS]; SPANS];
        self.spans = [SpanStat::default(); SPANS];
    }

    /// Runs `f` as one call of `span`: times it, and attributes the
    /// primitives it issues to `span`.
    pub fn in_span<R>(&mut self, span: Span, f: impl FnOnce(&mut Self) -> R) -> R {
        let outer = std::mem::replace(&mut self.span, span);
        let t = Instant::now();
        let r = f(self);
        let s = &mut self.spans[span as usize];
        s.calls += 1;
        s.nanos += nanos_since(t);
        self.span = outer;
        r
    }

    fn timed<R>(&mut self, prim: Prim, words: u64, f: impl FnOnce(&mut C) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        let s = &mut self.prims[self.span as usize][prim as usize];
        s.calls += 1;
        s.nanos += nanos_since(t);
        s.words += words;
        r
    }
}

impl<C: Communicator> Communicator for TimedComm<C> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn config(&self) -> CliqueConfig {
        self.inner.config()
    }

    fn ledger(&self) -> &RoundLedger {
        self.inner.ledger()
    }

    fn ledger_mut(&mut self) -> &mut RoundLedger {
        self.inner.ledger_mut()
    }

    fn push_phase(&mut self, name: &str) {
        self.inner.push_phase(name);
    }

    fn pop_phase(&mut self) {
        self.inner.pop_phase();
    }

    fn faults_observed(&self) -> u64 {
        self.inner.faults_observed()
    }

    fn charge_oracle(&mut self, rounds: u64) {
        self.inner.charge_oracle(rounds);
    }

    fn charge_implemented(&mut self, rounds: u64) {
        self.inner.charge_implemented(rounds);
    }

    fn exchange(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        let w = outbox_words(&outboxes);
        self.timed(Prim::Exchange, w, |c| c.exchange(outboxes))
    }

    fn route(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        let w = outbox_words(&outboxes);
        self.timed(Prim::Route, w, |c| c.route(outboxes))
    }

    fn route_strict(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        let w = outbox_words(&outboxes);
        self.timed(Prim::RouteStrict, w, |c| c.route_strict(outboxes))
    }

    fn broadcast_all(&mut self, values: &[u64]) -> Result<Vec<u64>, ModelError> {
        self.timed(Prim::BroadcastAll, values.len() as u64, |c| {
            c.broadcast_all(values)
        })
    }

    fn broadcast_all_into(&mut self, values: &[u64], out: &mut Vec<u64>) -> Result<(), ModelError> {
        self.timed(Prim::BroadcastAll, values.len() as u64, |c| {
            c.broadcast_all_into(values, out)
        })
    }

    fn broadcast_all_words(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        let w = vector_words(per_node);
        self.timed(Prim::BroadcastAllWords, w, |c| {
            c.broadcast_all_words(per_node)
        })
    }

    fn broadcast_from(&mut self, src: NodeId, words: &Words) -> Result<Words, ModelError> {
        self.timed(Prim::BroadcastFrom, words.len() as u64, |c| {
            c.broadcast_from(src, words)
        })
    }

    fn allgather(&mut self, per_node: &[Words]) -> Result<(Words, Vec<usize>), ModelError> {
        let w = vector_words(per_node);
        self.timed(Prim::Allgather, w, |c| c.allgather(per_node))
    }

    fn sort(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        let w = vector_words(per_node);
        self.timed(Prim::Sort, w, |c| c.sort(per_node))
    }

    fn gather_to(&mut self, dst: NodeId, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        let w = vector_words(per_node);
        self.timed(Prim::GatherTo, w, |c| c.gather_to(dst, per_node))
    }
}
