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

use crate::op::CallStats;
use crate::util::json_escape;
use crate::{Communicator, ModelError, Op, Reply};

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
///   / [`route_strict`](Communicator::route_strict), and
///   [`route_batch`](Communicator::route_batch), recorded as `route`: one
///   message per `(src, dst, payload)` entry; `max_pair_words` is the max
///   total words on one ordered pair, node loads are per-node
///   send/receive words. Over a broadcast substrate every sender reaches
///   all others: pair and send loads are the max per-node send load, and
///   every node receives all words.
/// * [`broadcast_all`](Communicator::broadcast_all), and
///   [`broadcast_all_into`](Communicator::broadcast_all_into), recorded
///   as `broadcast_all`: `n` one-word messages.
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

    fn call(&mut self, op: Op<'_>) -> Result<Reply, ModelError> {
        let (stats, sizes) = op.stats(self.inner.mode(), self.inner.n());
        let primitive = op.name();
        let before = self.inner.ledger().total_rounds();
        let reply = op.apply(&mut self.inner);
        let rounds = self.inner.ledger().total_rounds() - before;
        self.record(primitive, stats, &sizes, rounds);
        reply
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
