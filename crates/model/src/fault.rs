//! [`FaultComm`]: the one fault-injecting transport, driven by a seeded
//! deterministic [`FaultPlan`] of per-call and per-node [`FaultRule`]s.
//!
//! The simulator is forgiving by design: [`crate::Clique::route`] batches
//! overloaded message sets instead of failing, and the broadcast
//! primitives charge however many rounds the payload needs. That is right
//! for measuring, but wrong for *proving* a bandwidth bound or a fault
//! tolerance claim. Wrapping the substrate in a [`FaultComm`] makes
//! violations loud. **Per-call rules** perturb primitive calls: forced
//! faults in chosen phases ([`FaultRule::FailInPhase`]), seeded random
//! faults ([`FaultRule::FailureRate`]), a tightened routing budget that
//! makes even plain [`route`](Communicator::route) and
//! [`exchange`](Communicator::exchange) fail instead of batching
//! ([`FaultRule::RoutingCapacity`]), and a payload-size assertion pinning
//! the `O(log n)`-bit word discipline ([`FaultRule::MaxMessageWords`]).
//! **Per-node rules** perturb nodes (see the `adversary` module):
//! [`FaultRule::Silent`], [`FaultRule::CrashRecover`] and
//! [`FaultRule::Corrupt`].
//!
//! Inside each primitive the checks run in one fixed order: phase and
//! rate preflight, payload assertion, budget check, node screening, then
//! the inner call. Every injected fault, omission and corruption is one
//! [`FaultEvent`] in one log, exported as deterministic JSON by
//! [`FaultComm::events_json`].

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::util::{json_escape, SplitMix64};
use crate::{delivery, CliqueConfig, Communicator, ModelError, NodeId, Op, Reply, Words};

/// One rule of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultRule {
    /// Per call: a fallible primitive whose phase path contains this
    /// fragment fails with an injected fault.
    FailInPhase(String),
    /// Per call: probability in `[0, 1]` that a fallible primitive fails
    /// with an injected fault, drawn from the plan's rate stream. Only a
    /// positive rate draws.
    FailureRate(f64),
    /// Per call: tightened routing budget, as a multiple of `n` (compare
    /// [`CliqueConfig::routing_capacity_factor`]); point-to-point calls
    /// over it fail with a genuine [`ModelError::CongestionExceeded`].
    RoutingCapacity(usize),
    /// Per call: maximum words a single message payload may carry; a
    /// larger payload panics (an oversized message is a model violation,
    /// not a runtime condition).
    MaxMessageWords(usize),
    /// Per node: drops every outbound payload, forever.
    Silent(NodeId),
    /// Per node: silent while the ledger's total rounds lie in
    /// `[from_round, until_round)`, honest otherwise.
    CrashRecover {
        /// The crashing node.
        node: NodeId,
        /// First ledger round (inclusive) of the crash window.
        from_round: u64,
        /// First ledger round past the crash window (exclusive).
        until_round: u64,
    },
    /// Per node: delivers one word per primitive call with its low bit
    /// flipped, the word drawn from the plan's corruption stream.
    Corrupt(NodeId),
}

impl FaultRule {
    /// Short stable label used by the event log and its JSON export.
    pub fn label(&self) -> &'static str {
        match self {
            FaultRule::FailInPhase(_) => "fail_in_phase",
            FaultRule::FailureRate(_) => "failure_rate",
            FaultRule::RoutingCapacity(_) => "routing_capacity",
            FaultRule::MaxMessageWords(_) => "max_message_words",
            FaultRule::Silent(_) => "silent",
            FaultRule::CrashRecover { .. } => "crash_recover",
            FaultRule::Corrupt(_) => "corrupt",
        }
    }

    /// The node a per-node rule acts on; `None` for per-call rules.
    pub fn node(&self) -> Option<NodeId> {
        match *self {
            FaultRule::Silent(node)
            | FaultRule::CrashRecover { node, .. }
            | FaultRule::Corrupt(node) => Some(node),
            _ => None,
        }
    }
}

/// Configuration of a [`FaultComm`]: a seed and a list of rules. The
/// default plan injects nothing; nodes without a per-node rule are
/// honest. Two equal plans drive two bitwise-identical runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the rate stream and of the corruption stream (two
    /// SplitMix64 streams, each started from this seed).
    pub seed: u64,
    /// The rules in force.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan with the given seed and no rules.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// Builder: appends `rule`.
    pub fn with(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    pub(crate) fn node_rule(&self, node: NodeId) -> Option<&FaultRule> {
        self.rules.iter().find(|r| r.node() == Some(node))
    }
}

/// What one [`FaultEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// A per-call rule failed the primitive with an injected fault.
    Injected,
    /// A node withheld a payload; the primitive failed with
    /// [`ModelError::NodeSilenced`].
    Omission,
    /// One payload word was bit-flipped before delivery.
    Corruption {
        /// Index of the flipped word within the node's payloads of this
        /// call (message-major, word-minor).
        word_index: usize,
    },
}

/// One entry of a [`FaultComm`]'s event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// The acting node of a per-node rule; `None` for an injected fault.
    pub node: Option<NodeId>,
    /// Label of the rule that fired ([`FaultRule::label`]).
    pub rule: &'static str,
    /// What happened.
    pub action: FaultAction,
    /// Primitive the event occurred in.
    pub primitive: &'static str,
    /// `/`-joined ledger phase path the event is nested under.
    pub phase: String,
    /// Ledger total rounds when the event fired.
    pub round: u64,
}

/// A [`Communicator`] decorator injecting deterministic faults per a
/// [`FaultPlan`].
///
/// The fault sequence is a pure function of the plan and the call
/// sequence (phase paths, payload shapes and ledger rounds) — never of
/// the substrate — so a run over [`crate::Clique`] and over
/// [`crate::ThreadedComm`] at any worker count produces bitwise identical
/// results and events.
///
/// # Example
///
/// ```
/// use cc_model::{Clique, Communicator, FaultComm, FaultPlan, FaultRule, ModelError};
///
/// // Tighten the routing budget to 1·n words per call: a 9-word burst
/// // into one node of a 4-clique now fails loudly instead of batching.
/// let plan = FaultPlan::new(0).with(FaultRule::RoutingCapacity(1));
/// let mut comm = FaultComm::new(Clique::new(4), plan);
/// let outboxes = vec![vec![(1, (0..9).collect())], vec![], vec![], vec![]];
/// assert!(matches!(
///     comm.route(outboxes),
///     Err(ModelError::CongestionExceeded { .. })
/// ));
///
/// // Node 2 must broadcast but is silent: detected, not corrupted.
/// let plan = FaultPlan::new(7).with(FaultRule::Silent(2));
/// let mut comm = FaultComm::new(Clique::new(4), plan);
/// assert!(matches!(
///     comm.broadcast_all(&[1, 2, 3, 4]),
///     Err(ModelError::NodeSilenced { node: 2, .. })
/// ));
/// assert_eq!(comm.faults_observed(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FaultComm<C: Communicator> {
    pub(crate) inner: C,
    pub(crate) plan: FaultPlan,
    rate_rng: SplitMix64,
    pub(crate) corrupt_rng: SplitMix64,
    events: Vec<FaultEvent>,
}

impl<C: Communicator> FaultComm<C> {
    /// Wraps `inner` under the given plan.
    ///
    /// # Panics
    ///
    /// If a rule could never fire as written, or would be mistaken for
    /// another: a [`FaultRule::FailureRate`] outside `[0, 1]` (NaN
    /// included); a [`FaultRule::RoutingCapacity`] of 0 (its genuine
    /// `CongestionExceeded { capacity: 0 }` would read as an injected
    /// fault); a [`FaultRule::CrashRecover`] with `from_round ≥
    /// until_round`; a per-node rule naming a node `≥ n`, or a second
    /// rule for a node that already has one; a second `FailureRate`,
    /// `RoutingCapacity` or `MaxMessageWords` rule.
    pub fn new(inner: C, plan: FaultPlan) -> Self {
        let n = inner.n();
        for (i, rule) in plan.rules.iter().enumerate() {
            let twin = |r: &FaultRule| match rule {
                FaultRule::FailInPhase(_) => false,
                _ if rule.node().is_some() => r.node() == rule.node(),
                _ => std::mem::discriminant(r) == std::mem::discriminant(rule),
            };
            let why = match *rule {
                FaultRule::FailureRate(p) if !(0.0..=1.0).contains(&p) => "rate not in [0, 1]",
                FaultRule::RoutingCapacity(0) => "indistinguishable from an injected fault",
                FaultRule::CrashRecover {
                    from_round,
                    until_round,
                    ..
                } if from_round >= until_round => "the crash window never opens",
                _ if rule.node().is_some_and(|node| node >= n) => "no such node",
                _ if plan.rules[..i].iter().any(twin) => "conflicts with an earlier rule",
                _ => continue,
            };
            panic!("fault plan: {rule:?} on a {n}-node clique: {why}");
        }
        let stream = || {
            let mut rng = SplitMix64::new(plan.seed);
            rng.next_u64(); // the pinned fault streams start at the second draw
            rng
        };
        Self {
            rate_rng: stream(),
            corrupt_rng: stream(),
            inner,
            plan,
            events: Vec::new(),
        }
    }

    /// The event log, in call order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    fn count(&self, pred: impl Fn(FaultAction) -> bool) -> u64 {
        self.events.iter().filter(|e| pred(e.action)).count() as u64
    }

    /// Faults injected so far by per-call rules.
    pub fn injected_faults(&self) -> u64 {
        self.count(|a| a == FaultAction::Injected)
    }

    /// Omission events so far (silenced sends).
    pub fn omissions(&self) -> u64 {
        self.count(|a| a == FaultAction::Omission)
    }

    /// Corruption events so far (bit-flipped words).
    pub fn corruptions(&self) -> u64 {
        self.count(|a| matches!(a, FaultAction::Corruption { .. }))
    }

    /// Serializes the per-node rules, the totals, the per-phase per-node
    /// event counts and the event log as deterministic JSON
    /// (byte-identical across runs and substrates of a deterministic
    /// workload). Injected faults carry `"node": null`.
    pub fn events_json(&self) -> String {
        let node = |n: Option<NodeId>| n.map_or("null".into(), |n| n.to_string());
        let mut nodes: Vec<(NodeId, &str)> = (self.plan.rules.iter())
            .filter_map(|r| Some((r.node()?, r.label())))
            .collect();
        nodes.sort_unstable();
        let strategies: Vec<String> = (nodes.iter())
            .map(|(n, label)| format!("{{\"node\": {n}, \"strategy\": \"{label}\"}}"))
            .collect();
        let mut phases: BTreeMap<&str, BTreeMap<Option<NodeId>, u64>> = BTreeMap::new();
        for e in &self.events {
            *phases
                .entry(&e.phase)
                .or_default()
                .entry(e.node)
                .or_default() += 1;
        }
        let phases: Vec<String> = (phases.iter())
            .map(|(phase, counts)| {
                let counts: Vec<String> = (counts.iter())
                    .map(|(n, k)| format!("{{\"node\": {}, \"events\": {k}}}", node(*n)))
                    .collect();
                let phase = json_escape(phase);
                format!(
                    "    {{\"phase\": \"{phase}\", \"nodes\": [{}]}}",
                    counts.join(", ")
                )
            })
            .collect();
        let events: Vec<String> = (self.events.iter().enumerate())
            .map(|(seq, e)| {
                let (action, word) = match e.action {
                    FaultAction::Injected => ("injected", -1),
                    FaultAction::Omission => ("omission", -1),
                    FaultAction::Corruption { word_index } => ("corruption", word_index as i64),
                };
                format!(
                    "    {{\"seq\": {seq}, \"node\": {}, \"strategy\": \"{}\", \"action\": \
                     \"{action}\", \"primitive\": \"{}\", \"phase\": \"{}\", \"round\": {}, \
                     \"word_index\": {word}}}",
                    node(e.node),
                    e.rule,
                    e.primitive,
                    json_escape(&e.phase),
                    e.round,
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"cc-model/adversary-v1\",\n  \"n\": {},\n  \"seed\": {},\n  \
             \"strategies\": [{}],\n  \"events_total\": {},\n  \"omissions\": {},\n  \
             \"corruptions\": {},\n  \"phases\": [\n{}\n  ],\n  \"events\": [\n{}\n  ]\n}}\n",
            self.inner.n(),
            self.plan.seed,
            strategies.join(", "),
            self.events.len(),
            self.omissions(),
            self.corruptions(),
            phases.join(",\n"),
            events.join(",\n"),
        )
    }

    /// Appends one event to the log.
    pub(crate) fn record(
        &mut self,
        node: Option<NodeId>,
        rule: &'static str,
        action: FaultAction,
        primitive: &'static str,
    ) {
        let ledger = self.inner.ledger();
        self.events.push(FaultEvent {
            node,
            rule,
            action,
            primitive,
            phase: ledger.current_phase().to_string(),
            round: ledger.total_rounds(),
        });
    }

    /// Step 1: the phase fragments, then the rate stream. A failing call
    /// gets an injected fault, told apart from a genuine congestion error
    /// by its zero capacity.
    fn preflight(&mut self, primitive: &'static str) -> Result<(), ModelError> {
        let phase = self.inner.ledger().current_phase();
        let rules = &self.plan.rules;
        let in_phase = |r: &&FaultRule| match r {
            FaultRule::FailInPhase(f) => !f.is_empty() && phase.contains(f.as_str()),
            _ => false,
        };
        // Only a positive rate draws, so rate-0 plans never advance the stream.
        let by_rate = |r: &&FaultRule| match r {
            FaultRule::FailureRate(p) => *p > 0.0 && self.rate_rng.next_f64() < *p,
            _ => false,
        };
        let fired = rules
            .iter()
            .find(in_phase)
            .or_else(|| rules.iter().find(by_rate));
        let Some(rule) = fired else {
            return Ok(());
        };
        self.record(None, rule.label(), FaultAction::Injected, primitive);
        Err(ModelError::CongestionExceeded {
            node: 0,
            words: 0,
            capacity: 0,
            sending: true,
        })
    }

    /// Step 2: the payload assertion.
    fn assert_payloads(&self, lens: impl IntoIterator<Item = usize>) {
        let cap = self.plan.rules.iter().find_map(|r| match r {
            FaultRule::MaxMessageWords(max) => Some(*max),
            _ => None,
        });
        if let Some(max) = cap {
            for words in lens {
                assert!(
                    words <= max,
                    "fault plan violated: message of {words} words exceeds the \
                     {max}-word payload budget"
                );
            }
        }
    }

    /// Steps 1–4 of an outbox-shaped call. The budget check (send and
    /// receive loads against `factor · n`) runs before the substrate's
    /// structural validation, so out-of-range entries are skipped here.
    fn admit_outboxes(
        &mut self,
        outboxes: &mut [Vec<(NodeId, Words)>],
        primitive: &'static str,
    ) -> Result<(), ModelError> {
        self.preflight(primitive)?;
        self.assert_payloads(outboxes.iter().flatten().map(|(_, p)| p.len()));
        let factor = self.plan.rules.iter().find_map(|r| match r {
            FaultRule::RoutingCapacity(factor) => Some(*factor),
            _ => None,
        });
        if let Some(factor) = factor {
            let n = self.inner.n();
            let (mut send, mut recv) = (vec![0u64; n], vec![0u64; n]);
            for (src, per_node) in outboxes.iter().enumerate() {
                for (dst, payload) in per_node {
                    if src < n && *dst < n {
                        send[src] += payload.len() as u64;
                        recv[*dst] += payload.len() as u64;
                    }
                }
            }
            let config = CliqueConfig {
                routing_capacity_factor: factor,
                ..self.inner.config()
            };
            delivery::strict_violation(&config, n, &send, &recv)?;
        }
        self.screen(
            (outboxes.iter_mut().enumerate())
                .map(|(src, out)| (src, out.iter_mut().map(|(_, p)| p).collect())),
            primitive,
        )
    }

    /// Steps 1, 2 and 4 of a per-node word-vector call (no budget
    /// applies).
    fn admit_rows<'a>(
        &mut self,
        per_node: &'a [Words],
        primitive: &'static str,
    ) -> Result<Cow<'a, [Words]>, ModelError> {
        self.preflight(primitive)?;
        self.assert_payloads(per_node.iter().map(Vec::len));
        self.screen_rows(per_node, primitive)
    }

    /// Steps 1 and 4 of `broadcast_all`, where every node sends one word.
    fn admit_values<'a>(&mut self, values: &'a [u64]) -> Result<Cow<'a, [u64]>, ModelError> {
        self.preflight("broadcast_all")?;
        if !self.has_node_rules() {
            return Ok(Cow::Borrowed(values));
        }
        let rows: Vec<Words> = values.iter().map(|&v| vec![v]).collect();
        let rows = self.screen_rows(&rows, "broadcast_all")?;
        Ok(Cow::Owned(rows.iter().map(|row| row[0]).collect()))
    }
}

impl<C: Communicator> crate::Decorator for FaultComm<C> {
    type Inner = C;

    fn inner(&self) -> &C {
        &self.inner
    }

    fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    fn faults_observed(&self) -> u64 {
        self.events.len() as u64 + self.inner.faults_observed()
    }

    /// One admission match: outbox-shaped ops (a batch lowered to its
    /// outboxes), row-shaped ops and value-shaped ops each pass their
    /// checks, then the admitted op goes to the wrapped communicator.
    fn call(&mut self, op: Op<'_>) -> Result<Reply, ModelError> {
        let primitive = op.name();
        // Screened copies of borrowed payloads, made only under node rules.
        let (values, rows, mut row);
        let admitted = match op {
            mut op @ (Op::Exchange(_) | Op::Route(_) | Op::RouteStrict(_)) => {
                if let Op::Exchange(o) | Op::Route(o) | Op::RouteStrict(o) = &mut op {
                    self.admit_outboxes(o, primitive)?;
                }
                op
            }
            Op::RouteBatch(batch) => {
                let mut outboxes = batch.outboxes(self.inner.n())?;
                self.admit_outboxes(&mut outboxes, primitive)?;
                return self.inner.route(outboxes).map(|_| Reply::Done);
            }
            Op::BroadcastAll(v) => {
                values = self.admit_values(v)?;
                Op::BroadcastAll(&values)
            }
            Op::BroadcastAllInto(v, out) => {
                values = self.admit_values(v)?;
                Op::BroadcastAllInto(&values, out)
            }
            Op::BroadcastAllWords(per_node) => {
                rows = self.admit_rows(per_node, primitive)?;
                Op::BroadcastAllWords(&rows)
            }
            Op::Allgather(per_node) => {
                rows = self.admit_rows(per_node, primitive)?;
                Op::Allgather(&rows)
            }
            Op::GatherTo(dst, per_node) => {
                rows = self.admit_rows(per_node, primitive)?;
                Op::GatherTo(dst, &rows)
            }
            Op::Sort(per_node) => {
                // `sort`'s rows are keys, not messages: no payload assertion.
                self.preflight(primitive)?;
                rows = self.screen_rows(per_node, primitive)?;
                Op::Sort(&rows)
            }
            Op::BroadcastFrom(src, words) => {
                self.preflight(primitive)?;
                self.assert_payloads([words.len()]);
                row = Cow::Borrowed(words);
                if self.has_node_rules() {
                    self.screen([(src, vec![row.to_mut()])], primitive)?;
                }
                Op::BroadcastFrom(src, &row)
            }
            op @ Op::Charge(..) => op,
        };
        admitted.apply(&mut self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Clique;

    #[test]
    fn default_plan_is_transparent() {
        let mut bare = Clique::new(4);
        let mut wrapped = FaultComm::new(Clique::new(4), FaultPlan::default());
        let outboxes = || vec![vec![(1, vec![1, 2, 3])], vec![], vec![], vec![]];
        let a = bare.route(outboxes()).unwrap();
        let b = wrapped.route(outboxes()).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            bare.ledger().total_rounds(),
            wrapped.ledger().total_rounds()
        );
        assert_eq!(wrapped.injected_faults(), 0);
    }

    #[test]
    fn tightened_budget_makes_silent_batching_loud() {
        // Bare route batches a 9-word burst (charging 3 batches); the
        // fault transport with a 1·n budget rejects it instead.
        let plan = FaultPlan::new(0).with(FaultRule::RoutingCapacity(1));
        let mut comm = FaultComm::new(Clique::new(4), plan);
        let outboxes = vec![vec![(1, (0..9).collect())], vec![], vec![], vec![]];
        let err = comm.route(outboxes).unwrap_err();
        match err {
            ModelError::CongestionExceeded {
                node,
                words,
                capacity,
                sending,
            } => {
                assert_eq!((node, words, capacity, sending), (0, 9, 4, true));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Nothing was charged for the rejected call.
        assert_eq!(comm.ledger().total_rounds(), 0);
    }

    #[test]
    fn forced_phase_fault_fires_only_in_matching_phases() {
        let plan = FaultPlan::new(0).with(FaultRule::FailInPhase("doomed".into()));
        let mut comm = FaultComm::new(Clique::new(4), plan);
        let outboxes = || vec![vec![(1, vec![1])], vec![], vec![], vec![]];
        assert!(comm.route(outboxes()).is_ok());
        let err = comm
            .phase("doomed", |comm| comm.route(outboxes()))
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::CongestionExceeded {
                node: 0,
                words: 0,
                capacity: 0,
                sending: true
            }
        );
        // Nested phases match by path fragment.
        let err = comm
            .phase("outer", |comm| {
                comm.phase("doomed", |comm| {
                    comm.sort(&[vec![1], vec![], vec![], vec![]])
                })
            })
            .unwrap_err();
        assert_eq!(comm.injected_faults(), 2);
        assert!(matches!(err, ModelError::CongestionExceeded { .. }));
    }

    #[test]
    fn seeded_faults_are_deterministic() {
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed).with(FaultRule::FailureRate(0.5));
            let mut comm = FaultComm::new(Clique::new(4), plan);
            let pattern: Vec<bool> = (0..32)
                .map(|_| {
                    comm.route(vec![vec![(1, vec![1])], vec![], vec![], vec![]])
                        .is_ok()
                })
                .collect();
            pattern
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds must differ");
        let oks = run(7).iter().filter(|&&ok| ok).count();
        assert!((4..=28).contains(&oks), "rate 0.5 wildly off: {oks}/32");
    }

    #[test]
    #[should_panic(expected = "payload budget")]
    fn oversized_payload_panics() {
        let plan = FaultPlan::new(0).with(FaultRule::MaxMessageWords(2));
        let mut comm = FaultComm::new(Clique::new(4), plan);
        let _ = comm.broadcast_from(0, &vec![1, 2, 3]);
    }
}
