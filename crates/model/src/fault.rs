//! [`FaultComm`]: a wrapping transport with deterministic, seeded fault
//! injection for bandwidth-bound testing.
//!
//! The simulator is forgiving by design: [`crate::Clique::route`] batches
//! overloaded message sets instead of failing, and the broadcast
//! primitives charge however many rounds the payload needs. That is right
//! for measuring, but wrong for *proving* a bandwidth bound — an
//! algorithm that quietly ships twice the words its theorem allows just
//! charges extra rounds and nobody notices. Wrapping the substrate in a
//! [`FaultComm`] makes such violations loud:
//!
//! * **word-budget tightening** — a [`FaultPlan::routing_capacity_factor`]
//!   below the substrate's own makes every point-to-point call (including
//!   plain [`route`](Communicator::route) and
//!   [`exchange`](Communicator::exchange), which would otherwise batch
//!   silently) fail with [`ModelError::CongestionExceeded`] when a node
//!   exceeds the tightened per-call budget;
//! * **forced faults at chosen phases** — every fallible primitive under
//!   a phase path matching [`FaultPlan::fail_phases`] fails with a
//!   synthesized `CongestionExceeded` (capacity 0 marks it as injected),
//!   exercising the caller's error path deterministically; this includes
//!   the broadcast family ([`Communicator::broadcast_all`] and friends),
//!   which honest substrates only fail structurally but this transport
//!   fails on demand;
//! * **seeded random faults** — [`FaultPlan::failure_rate`] injects the
//!   same failures on every run with the same seed (SplitMix64 stream);
//! * **payload-size assertions** — [`FaultPlan::max_message_words`] turns
//!   an oversized single message into a panic at the send site, pinning
//!   the `O(log n)`-bit word discipline.

use crate::util::SplitMix64;
use crate::{delivery, CliqueConfig, Communicator, Envelope, ModelError, NodeId, Words};

/// Configuration of a [`FaultComm`]. The default plan injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic fault stream (SplitMix64).
    pub seed: u64,
    /// Tightened per-call routing budget, as a multiple of `n` (compare
    /// [`CliqueConfig::routing_capacity_factor`]). `None` leaves the
    /// substrate's own budget in force (and plain `route`/`exchange`
    /// unchecked).
    pub routing_capacity_factor: Option<usize>,
    /// Phase-path fragments: a fallible primitive whose current phase
    /// path contains any of these strings fails with an injected
    /// [`ModelError::CongestionExceeded`] (capacity 0).
    pub fail_phases: Vec<String>,
    /// Probability in `[0, 1]` that any fallible primitive call fails
    /// with an injected fault, drawn from the seeded stream.
    pub failure_rate: f64,
    /// Maximum words a single message payload may carry; a larger payload
    /// panics (assertion, not error — an oversized message is a model
    /// violation, not a runtime condition).
    pub max_message_words: Option<usize>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            routing_capacity_factor: None,
            fail_phases: Vec::new(),
            failure_rate: 0.0,
            max_message_words: None,
        }
    }
}

/// A [`Communicator`] decorator injecting deterministic faults per a
/// [`FaultPlan`].
///
/// # Example
///
/// ```
/// use cc_model::{Clique, Communicator, FaultComm, FaultPlan, ModelError};
///
/// // Tighten the routing budget to 1·n words per call: a 9-word burst
/// // into one node of a 4-clique now fails loudly instead of batching.
/// let plan = FaultPlan {
///     routing_capacity_factor: Some(1),
///     ..FaultPlan::default()
/// };
/// let mut comm = FaultComm::new(Clique::new(4), plan);
/// let outboxes = vec![vec![(1, (0..9).collect())], vec![], vec![], vec![]];
/// assert!(matches!(
///     comm.route(outboxes),
///     Err(ModelError::CongestionExceeded { .. })
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct FaultComm<C: Communicator> {
    inner: C,
    plan: FaultPlan,
    rng: SplitMix64,
    injected: u64,
}

impl<C: Communicator> FaultComm<C> {
    /// Wraps `inner` under the given plan.
    pub fn new(inner: C, plan: FaultPlan) -> Self {
        let mut rng = SplitMix64::new(plan.seed);
        rng.next_u64(); // the pinned fault streams start at the second draw
        Self {
            inner,
            plan,
            rng,
            injected: 0,
        }
    }

    /// Unwraps, discarding the plan.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Number of faults injected so far (forced-phase plus seeded).
    pub fn injected_faults(&self) -> u64 {
        self.injected
    }

    /// An injected fault, distinguishable from a genuine congestion error
    /// by its zero capacity.
    fn injected_error(&mut self) -> ModelError {
        self.injected += 1;
        ModelError::CongestionExceeded {
            node: 0,
            words: 0,
            capacity: 0,
            sending: true,
        }
    }

    /// Checks the forced-phase list and the seeded stream; `Err` if this
    /// call must fail.
    fn preflight(&mut self) -> Result<(), ModelError> {
        let phase = self.inner.ledger().current_phase();
        if self
            .plan
            .fail_phases
            .iter()
            .any(|frag| !frag.is_empty() && phase.contains(frag.as_str()))
        {
            return Err(self.injected_error());
        }
        // Only a positive rate draws, so rate-0 plans never advance the stream.
        if self.plan.failure_rate > 0.0 && self.rng.next_f64() < self.plan.failure_rate {
            return Err(self.injected_error());
        }
        Ok(())
    }

    fn assert_payload(&self, words: usize) {
        if let Some(max) = self.plan.max_message_words {
            assert!(
                words <= max,
                "fault plan violated: message of {words} words exceeds the \
                 {max}-word payload budget"
            );
        }
    }

    fn check_outbox_payloads(&self, outboxes: &[Vec<(NodeId, Words)>]) {
        if self.plan.max_message_words.is_some() {
            for (_, payload) in outboxes.iter().flatten() {
                self.assert_payload(payload.len());
            }
        }
    }

    fn check_vector_payloads(&self, per_node: &[Words]) {
        if self.plan.max_message_words.is_some() {
            for words in per_node {
                self.assert_payload(words.len());
            }
        }
    }

    /// Tightened per-call budget check (send and receive loads against
    /// `routing_capacity_factor · n`). It runs before the substrate's
    /// structural validation, so out-of-range entries are skipped here.
    fn check_budget(&self, outboxes: &[Vec<(NodeId, Words)>]) -> Result<(), ModelError> {
        let Some(factor) = self.plan.routing_capacity_factor else {
            return Ok(());
        };
        let n = self.inner.n();
        let mut send = vec![0u64; n];
        let mut recv = vec![0u64; n];
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
        delivery::strict_violation(&config, n, &send, &recv)
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
        self.injected + self.inner.faults_observed()
    }

    fn exchange(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        self.preflight()?;
        self.check_outbox_payloads(&outboxes);
        self.check_budget(&outboxes)?;
        self.inner.exchange(outboxes)
    }

    fn route(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        self.preflight()?;
        self.check_outbox_payloads(&outboxes);
        self.check_budget(&outboxes)?;
        self.inner.route(outboxes)
    }

    fn route_strict(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        self.preflight()?;
        self.check_outbox_payloads(&outboxes);
        self.check_budget(&outboxes)?;
        self.inner.route_strict(outboxes)
    }

    fn broadcast_all(&mut self, values: &[u64]) -> Result<Vec<u64>, ModelError> {
        self.preflight()?;
        self.inner.broadcast_all(values)
    }

    fn broadcast_all_into(&mut self, values: &[u64], out: &mut Vec<u64>) -> Result<(), ModelError> {
        self.preflight()?;
        self.inner.broadcast_all_into(values, out)
    }

    fn broadcast_all_words(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        self.preflight()?;
        self.check_vector_payloads(per_node);
        self.inner.broadcast_all_words(per_node)
    }

    fn broadcast_from(&mut self, src: NodeId, words: &Words) -> Result<Words, ModelError> {
        self.preflight()?;
        self.assert_payload(words.len());
        self.inner.broadcast_from(src, words)
    }

    fn allgather(&mut self, per_node: &[Words]) -> Result<(Words, Vec<usize>), ModelError> {
        self.preflight()?;
        self.check_vector_payloads(per_node);
        self.inner.allgather(per_node)
    }

    fn sort(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        self.preflight()?;
        self.inner.sort(per_node)
    }

    fn gather_to(&mut self, dst: NodeId, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        self.preflight()?;
        self.check_vector_payloads(per_node);
        self.inner.gather_to(dst, per_node)
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
        let plan = FaultPlan {
            routing_capacity_factor: Some(1),
            ..FaultPlan::default()
        };
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
        let plan = FaultPlan {
            fail_phases: vec!["doomed".into()],
            ..FaultPlan::default()
        };
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
            let plan = FaultPlan {
                seed,
                failure_rate: 0.5,
                ..FaultPlan::default()
            };
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
        let plan = FaultPlan {
            max_message_words: Some(2),
            ..FaultPlan::default()
        };
        let mut comm = FaultComm::new(Clique::new(4), plan);
        let _ = comm.broadcast_from(0, &vec![1, 2, 3]);
    }
}
