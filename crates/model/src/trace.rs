//! [`TracingComm`]: a wrapping transport that records a structured event
//! trace of every primitive call without changing round accounting.
//!
//! Wrap any [`Communicator`] and run an algorithm unchanged; afterwards
//! the trace answers the questions round totals cannot: *which phase
//! moved how many messages and words, through which primitives, and how
//! congested were the links and nodes?* The per-phase statistics feed the
//! congestion baselines in `BENCH_*.json` (see the `bench_snapshot`
//! binary of `cc-bench`) and the JSON export is deterministic — byte
//! identical across runs of a deterministic workload — so it is safe to
//! golden-snapshot.
//!
//! Round-accounting transparency is a hard contract: the wrapper observes
//! ledger deltas, it never charges rounds of its own. The workspace test
//! suite verifies bitwise-identical round totals against bare
//! [`crate::Clique`] runs over every experiment in `cc-bench`.

use std::collections::BTreeMap;

use crate::util::json_escape;
use crate::{CommunicationMode, Communicator, Envelope, ModelError, NodeId, Words};

/// Number of buckets of the per-message word-count histogram: bucket 0
/// holds empty payloads, bucket `k ≥ 1` holds sizes in
/// `[2^(k−1), 2^k)`, with the last bucket absorbing everything larger.
pub const TRACE_HIST_BUCKETS: usize = 16;

fn hist_bucket(words: usize) -> usize {
    if words == 0 {
        0
    } else {
        ((usize::BITS - words.leading_zeros()) as usize).min(TRACE_HIST_BUCKETS - 1)
    }
}

/// Logical payload statistics of one primitive call (computed from the
/// arguments before delegation; see [`TracingComm`] for the conventions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CallStats {
    messages: u64,
    words: u64,
    max_pair_words: u64,
    max_node_send: u64,
    max_node_recv: u64,
}

/// One recorded primitive call (or phase transition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Position of the event in the global call order (0-based).
    pub seq: usize,
    /// Primitive name (`"exchange"`, `"route"`, …) or `"phase_enter"` /
    /// `"phase_exit"` for phase transitions.
    pub primitive: &'static str,
    /// The `/`-joined ledger phase path the event is nested under.
    pub phase: String,
    /// Rounds the substrate charged for this call (ledger delta).
    pub rounds: u64,
    /// Logical messages carried by the call.
    pub messages: u64,
    /// Total payload words carried by the call.
    pub words: u64,
}

/// Aggregated statistics of one ledger phase (keyed by `/`-joined path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTrace {
    /// Primitive-call counts within the phase.
    pub calls: BTreeMap<&'static str, u64>,
    /// Total logical messages moved within the phase.
    pub messages: u64,
    /// Total payload words moved within the phase.
    pub words: u64,
    /// Rounds charged within the phase (excluding nested sub-phases'
    /// primitive calls, which aggregate under their own path).
    pub rounds: u64,
    /// Maximum per-ordered-pair words observed in one call.
    pub max_pair_words: u64,
    /// Maximum per-node send load observed in one call.
    pub max_node_send: u64,
    /// Maximum per-node receive load observed in one call.
    pub max_node_recv: u64,
    /// Histogram of per-message payload sizes (log₂ buckets; see
    /// [`TRACE_HIST_BUCKETS`]).
    pub message_words_hist: [u64; TRACE_HIST_BUCKETS],
}

impl Default for PhaseTrace {
    fn default() -> Self {
        Self {
            calls: BTreeMap::new(),
            messages: 0,
            words: 0,
            rounds: 0,
            max_pair_words: 0,
            max_node_send: 0,
            max_node_recv: 0,
            message_words_hist: [0; TRACE_HIST_BUCKETS],
        }
    }
}

/// A [`Communicator`] decorator recording a structured trace.
///
/// # Payload-statistics conventions
///
/// The recorded quantities are *logical*: they describe the message set
/// the algorithm handed to the primitive, not the wire-level fan-out of
/// the substrate's implementation.
///
/// * [`exchange`](Communicator::exchange) / [`route`](Communicator::route)
///   / [`route_strict`](Communicator::route_strict): one message per
///   `(src, dst, payload)` entry; `max_pair_words` is the max total words
///   on one ordered pair, node loads are per-node send/receive words.
/// * [`broadcast_all`](Communicator::broadcast_all): `n` one-word
///   messages.
/// * [`broadcast_all_words`](Communicator::broadcast_all_words) /
///   [`allgather`](Communicator::allgather) /
///   [`sort`](Communicator::sort) /
///   [`gather_to`](Communicator::gather_to): one message per node vector
///   (empty vectors are not counted as messages).
/// * [`broadcast_from`](Communicator::broadcast_from): one message of
///   `words.len()` words.
///
/// # Example
///
/// ```
/// use cc_model::{Clique, Communicator, TracingComm};
///
/// let mut comm = TracingComm::new(Clique::new(4));
/// comm.phase("demo", |comm| comm.broadcast_all(&[1, 2, 3, 4]).unwrap());
/// let trace = comm.trace_json();
/// assert!(trace.contains("\"phase\": \"demo\""));
/// assert_eq!(comm.ledger().total_rounds(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TracingComm<C: Communicator> {
    inner: C,
    events: Vec<TraceEvent>,
    phases: BTreeMap<String, PhaseTrace>,
    max_pair_words: u64,
    max_node_send: u64,
    max_node_recv: u64,
}

fn outbox_stats(n: usize, outboxes: &[Vec<(NodeId, Words)>]) -> (CallStats, Vec<usize>) {
    let mut stats = CallStats::default();
    let mut send = vec![0u64; n];
    let mut recv = vec![0u64; n];
    let mut per_dst = vec![0u64; n];
    let mut touched: Vec<NodeId> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    for (src, per_node) in outboxes.iter().enumerate() {
        for (dst, payload) in per_node {
            let w = payload.len() as u64;
            stats.messages += 1;
            stats.words += w;
            sizes.push(payload.len());
            if src < n && *dst < n {
                send[src] += w;
                recv[*dst] += w;
                if per_dst[*dst] == 0 {
                    touched.push(*dst);
                }
                per_dst[*dst] += w;
            }
        }
        for &dst in &touched {
            stats.max_pair_words = stats.max_pair_words.max(per_dst[dst]);
            per_dst[dst] = 0;
        }
        touched.clear();
    }
    stats.max_node_send = send.iter().copied().max().unwrap_or(0);
    stats.max_node_recv = recv.iter().copied().max().unwrap_or(0);
    (stats, sizes)
}

/// Broadcast-mode attribution of a unicast-shaped outbox set: every word
/// a node emits is broadcast to the other `n − 1` nodes (there are no
/// private pairs), so the per-pair and per-node-send maxima coincide at
/// the maximum per-node send load, and every node's receive load is the
/// total broadcast volume — the same shared-view convention
/// [`vector_stats`] uses for the broadcast family.
fn broadcast_outbox_stats(outboxes: &[Vec<(NodeId, Words)>]) -> (CallStats, Vec<usize>) {
    let mut stats = CallStats::default();
    let mut sizes: Vec<usize> = Vec::new();
    let mut max_send = 0u64;
    for per_node in outboxes {
        let mut send = 0u64;
        for (_dst, payload) in per_node {
            let w = payload.len() as u64;
            stats.messages += 1;
            stats.words += w;
            send += w;
            sizes.push(payload.len());
        }
        max_send = max_send.max(send);
    }
    stats.max_pair_words = max_send;
    stats.max_node_send = max_send;
    stats.max_node_recv = stats.words;
    (stats, sizes)
}

fn vector_stats(per_node: &[Words]) -> (CallStats, Vec<usize>) {
    let mut stats = CallStats::default();
    let mut sizes = Vec::new();
    for words in per_node {
        if !words.is_empty() {
            stats.messages += 1;
            sizes.push(words.len());
        }
        let w = words.len() as u64;
        stats.words += w;
        stats.max_pair_words = stats.max_pair_words.max(w);
        stats.max_node_send = stats.max_node_send.max(w);
    }
    stats.max_node_recv = stats.words;
    (stats, sizes)
}

impl<C: Communicator> TracingComm<C> {
    /// Wraps `inner`; the trace starts empty.
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            events: Vec::new(),
            phases: BTreeMap::new(),
            max_pair_words: 0,
            max_node_send: 0,
            max_node_recv: 0,
        }
    }

    /// Unwraps, discarding the trace.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// The recorded events, in call order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Per-phase aggregates, keyed by `/`-joined phase path (the empty
    /// key is the top level).
    pub fn phases(&self) -> &BTreeMap<String, PhaseTrace> {
        &self.phases
    }

    /// Maximum words observed on one ordered pair in any single call.
    pub fn max_pair_words(&self) -> u64 {
        self.max_pair_words
    }

    /// Maximum per-node send load observed in any single call.
    pub fn max_node_send(&self) -> u64 {
        self.max_node_send
    }

    /// Maximum per-node receive load observed in any single call.
    pub fn max_node_recv(&self) -> u64 {
        self.max_node_recv
    }

    /// Discards the recorded trace (the wrapped ledger is untouched).
    pub fn clear_trace(&mut self) {
        self.events.clear();
        self.phases.clear();
        self.max_pair_words = 0;
        self.max_node_send = 0;
        self.max_node_recv = 0;
    }

    /// Congestion attribution for a unicast-shaped outbox set: per-pair
    /// in unicast substrates, one-sender-to-`n − 1`-receivers when the
    /// wrapped substrate reports [`CommunicationMode::Broadcast`] (e.g.
    /// [`crate::BroadcastComm`] in measured mode).
    fn outbox_call_stats(&self, outboxes: &[Vec<(NodeId, Words)>]) -> (CallStats, Vec<usize>) {
        if self.inner.mode() == CommunicationMode::Broadcast {
            broadcast_outbox_stats(outboxes)
        } else {
            outbox_stats(self.inner.n(), outboxes)
        }
    }

    fn record(&mut self, primitive: &'static str, stats: CallStats, sizes: &[usize], rounds: u64) {
        let phase = self.inner.ledger().current_phase().to_string();
        self.max_pair_words = self.max_pair_words.max(stats.max_pair_words);
        self.max_node_send = self.max_node_send.max(stats.max_node_send);
        self.max_node_recv = self.max_node_recv.max(stats.max_node_recv);
        let agg = self.phases.entry(phase.clone()).or_default();
        *agg.calls.entry(primitive).or_insert(0) += 1;
        agg.messages += stats.messages;
        agg.words += stats.words;
        agg.rounds += rounds;
        agg.max_pair_words = agg.max_pair_words.max(stats.max_pair_words);
        agg.max_node_send = agg.max_node_send.max(stats.max_node_send);
        agg.max_node_recv = agg.max_node_recv.max(stats.max_node_recv);
        for &s in sizes {
            agg.message_words_hist[hist_bucket(s)] += 1;
        }
        self.events.push(TraceEvent {
            seq: self.events.len(),
            primitive,
            phase,
            rounds,
            messages: stats.messages,
            words: stats.words,
        });
    }

    fn traced<T>(
        &mut self,
        primitive: &'static str,
        stats: CallStats,
        sizes: Vec<usize>,
        run: impl FnOnce(&mut C) -> T,
    ) -> T {
        let before = self.inner.ledger().total_rounds();
        let out = run(&mut self.inner);
        let rounds = self.inner.ledger().total_rounds() - before;
        self.record(primitive, stats, &sizes, rounds);
        out
    }

    /// Serializes the per-phase aggregates and global congestion maxima
    /// as deterministic JSON (no events; suitable for `BENCH_*.json`).
    pub fn congestion_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"max_pair_words\": {},\n  \"max_node_send\": {},\n  \"max_node_recv\": {},\n",
            self.max_pair_words, self.max_node_send, self.max_node_recv
        ));
        out.push_str("  \"phases\": [\n");
        let rows: Vec<String> = self
            .phases
            .iter()
            .map(|(name, p)| {
                let calls: Vec<String> = p
                    .calls
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {v}"))
                    .collect();
                let hist: Vec<String> =
                    p.message_words_hist.iter().map(|c| c.to_string()).collect();
                format!(
                    "    {{\"phase\": \"{}\", \"rounds\": {}, \"messages\": {}, \"words\": {}, \
                     \"max_pair_words\": {}, \"max_node_send\": {}, \"max_node_recv\": {}, \
                     \"calls\": {{{}}}, \"message_words_hist\": [{}]}}",
                    json_escape(name),
                    p.rounds,
                    p.messages,
                    p.words,
                    p.max_pair_words,
                    p.max_node_send,
                    p.max_node_recv,
                    calls.join(", "),
                    hist.join(", ")
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}");
        out
    }

    /// Serializes the full trace — ledger summary, per-phase aggregates,
    /// and the event list — as deterministic JSON (byte-identical across
    /// runs of a deterministic workload, so exact-match snapshots are
    /// safe).
    pub fn trace_json(&self) -> String {
        let ledger = self.inner.ledger();
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"cc-model/trace-v1\",\n");
        out.push_str(&format!("  \"n\": {},\n", self.inner.n()));
        out.push_str(&format!(
            "  \"total_rounds\": {},\n  \"implemented_rounds\": {},\n  \"charged_rounds\": {},\n",
            ledger.total_rounds(),
            ledger.implemented_rounds(),
            ledger.charged_rounds()
        ));
        let congestion = self.congestion_json();
        let congestion: String = congestion
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 0 {
                    l.to_string()
                } else {
                    format!("  {l}")
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        out.push_str(&format!("  \"congestion\": {congestion},\n"));
        out.push_str("  \"events\": [\n");
        let rows: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                format!(
                    "    {{\"seq\": {}, \"primitive\": \"{}\", \"phase\": \"{}\", \
                     \"rounds\": {}, \"messages\": {}, \"words\": {}}}",
                    e.seq,
                    e.primitive,
                    json_escape(&e.phase),
                    e.rounds,
                    e.messages,
                    e.words
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

impl<C: Communicator> crate::Decorator for TracingComm<C> {
    type Inner = C;

    fn inner(&self) -> &C {
        &self.inner
    }

    fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    fn push_phase(&mut self, name: &str) {
        self.inner.push_phase(name);
        self.record("phase_enter", CallStats::default(), &[], 0);
    }

    fn pop_phase(&mut self) {
        self.record("phase_exit", CallStats::default(), &[], 0);
        self.inner.pop_phase();
    }

    fn charge_oracle(&mut self, rounds: u64) {
        self.traced("charge_oracle", CallStats::default(), Vec::new(), |c| {
            c.charge_oracle(rounds)
        })
    }

    fn charge_implemented(&mut self, rounds: u64) {
        self.traced(
            "charge_implemented",
            CallStats::default(),
            Vec::new(),
            |c| c.charge_implemented(rounds),
        )
    }

    fn exchange(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        let (stats, sizes) = self.outbox_call_stats(&outboxes);
        self.traced("exchange", stats, sizes, |c| c.exchange(outboxes))
    }

    fn route(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        let (stats, sizes) = self.outbox_call_stats(&outboxes);
        self.traced("route", stats, sizes, |c| c.route(outboxes))
    }

    fn route_strict(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        let (stats, sizes) = self.outbox_call_stats(&outboxes);
        self.traced("route_strict", stats, sizes, |c| c.route_strict(outboxes))
    }

    fn broadcast_all(&mut self, values: &[u64]) -> Result<Vec<u64>, ModelError> {
        let stats = CallStats {
            messages: values.len() as u64,
            words: values.len() as u64,
            max_pair_words: 1,
            max_node_send: 1,
            max_node_recv: values.len() as u64,
        };
        let sizes = vec![1; values.len()];
        self.traced("broadcast_all", stats, sizes, |c| c.broadcast_all(values))
    }

    fn broadcast_all_words(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        let (stats, sizes) = vector_stats(per_node);
        self.traced("broadcast_all_words", stats, sizes, |c| {
            c.broadcast_all_words(per_node)
        })
    }

    fn broadcast_from(&mut self, src: NodeId, words: &Words) -> Result<Words, ModelError> {
        let w = words.len() as u64;
        let stats = CallStats {
            messages: u64::from(w > 0),
            words: w,
            max_pair_words: w,
            max_node_send: w,
            max_node_recv: w,
        };
        let sizes = if words.is_empty() {
            Vec::new()
        } else {
            vec![words.len()]
        };
        self.traced("broadcast_from", stats, sizes, |c| {
            c.broadcast_from(src, words)
        })
    }

    fn allgather(&mut self, per_node: &[Words]) -> Result<(Words, Vec<usize>), ModelError> {
        let (stats, sizes) = vector_stats(per_node);
        self.traced("allgather", stats, sizes, |c| c.allgather(per_node))
    }

    fn sort(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        let (stats, sizes) = vector_stats(per_node);
        self.traced("sort", stats, sizes, |c| c.sort(per_node))
    }

    fn gather_to(&mut self, dst: NodeId, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        let (stats, sizes) = vector_stats(per_node);
        self.traced("gather_to", stats, sizes, |c| c.gather_to(dst, per_node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Clique;

    fn workload<C: Communicator>(comm: &mut C) {
        comm.phase("outer", |comm| {
            comm.broadcast_all(&[1, 2, 3, 4]).unwrap();
            comm.phase("inner", |comm| {
                let outboxes = vec![vec![(1, vec![5, 6])], vec![], vec![(0, vec![7])], vec![]];
                comm.route(outboxes).unwrap();
                comm.charge_oracle(9);
            });
        });
    }

    #[test]
    fn wrapping_does_not_change_rounds() {
        let mut bare = Clique::new(4);
        workload(&mut bare);
        let mut traced = TracingComm::new(Clique::new(4));
        workload(&mut traced);
        assert_eq!(bare.ledger().total_rounds(), traced.ledger().total_rounds());
        assert_eq!(bare.ledger().phases(), traced.ledger().phases());
    }

    #[test]
    fn events_are_nested_under_phases() {
        let mut traced = TracingComm::new(Clique::new(4));
        workload(&mut traced);
        let kinds: Vec<(&str, &str)> = traced
            .events()
            .iter()
            .map(|e| (e.primitive, e.phase.as_str()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("phase_enter", "outer"),
                ("broadcast_all", "outer"),
                ("phase_enter", "outer/inner"),
                ("route", "outer/inner"),
                ("charge_oracle", "outer/inner"),
                ("phase_exit", "outer/inner"),
                ("phase_exit", "outer"),
            ]
        );
    }

    #[test]
    fn per_phase_congestion_is_aggregated() {
        let mut traced = TracingComm::new(Clique::new(4));
        workload(&mut traced);
        let inner = &traced.phases()["outer/inner"];
        assert_eq!(inner.messages, 2);
        assert_eq!(inner.words, 3);
        assert_eq!(inner.max_pair_words, 2);
        assert_eq!(inner.max_node_send, 2);
        assert_eq!(inner.max_node_recv, 2);
        assert_eq!(inner.calls["route"], 1);
        assert_eq!(inner.calls["charge_oracle"], 1);
        // 2-word message in bucket 2, 1-word message in bucket 1.
        assert_eq!(inner.message_words_hist[1], 1);
        assert_eq!(inner.message_words_hist[2], 1);
        let outer = &traced.phases()["outer"];
        assert_eq!(outer.messages, 4);
        assert_eq!(outer.calls["broadcast_all"], 1);
    }

    #[test]
    fn trace_json_is_deterministic() {
        let run = || {
            let mut traced = TracingComm::new(Clique::new(4));
            workload(&mut traced);
            traced.trace_json()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("\"schema\": \"cc-model/trace-v1\""));
        assert!(a.contains("\"phase\": \"outer/inner\""));
    }

    #[test]
    fn broadcast_congestion_attribution_is_one_sender_to_all() {
        use crate::{BroadcastComm, NodeId, Words};

        let outboxes: Vec<Vec<(NodeId, Words)>> = vec![
            vec![(1, vec![1, 2]), (2, vec![3])],
            vec![],
            vec![(0, vec![9])],
            vec![],
        ];
        // Unicast attribution: the busiest ordered pair (0 → 1) carries
        // 2 words and the busiest receiver gets 2.
        let mut unicast = TracingComm::new(Clique::new(4));
        unicast.phase("bcast", |c| c.exchange(outboxes.clone()).unwrap());
        let p = &unicast.phases()["bcast"];
        assert_eq!(
            (p.max_pair_words, p.max_node_send, p.max_node_recv),
            (2, 3, 2)
        );

        // Broadcast attribution (auto-detected from the wrapped
        // substrate's config): node 0's 3 words go to every other node,
        // so pair load = send load = 3 and every node hears all 4 words.
        let mut traced = TracingComm::new(BroadcastComm::measured(Clique::new(4)));
        traced.phase("bcast", |c| c.exchange(outboxes).unwrap());
        let p = &traced.phases()["bcast"];
        assert_eq!(
            (p.max_pair_words, p.max_node_send, p.max_node_recv),
            (3, 3, 4)
        );

        // Golden trace: the congestion JSON is pinned byte-for-byte.
        let golden = "{\n\
            \x20 \"max_pair_words\": 3,\n\
            \x20 \"max_node_send\": 3,\n\
            \x20 \"max_node_recv\": 4,\n\
            \x20 \"phases\": [\n\
            \x20   {\"phase\": \"bcast\", \"rounds\": 3, \"messages\": 3, \"words\": 4, \
            \"max_pair_words\": 3, \"max_node_send\": 3, \"max_node_recv\": 4, \
            \"calls\": {\"exchange\": 1, \"phase_enter\": 1, \"phase_exit\": 1}, \
            \"message_words_hist\": [0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}\n\
            \x20 ]\n}";
        assert_eq!(traced.congestion_json(), golden);
    }

    #[test]
    fn hist_buckets_are_log2() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(usize::MAX), TRACE_HIST_BUCKETS - 1);
    }
}
