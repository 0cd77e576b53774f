//! The transport abstraction every algorithm layer is written against.
//!
//! [`Communicator`] captures the primitive surface of the congested clique
//! — the message-moving primitives plus round accounting — without naming
//! a concrete substrate. [`crate::Clique`] is the canonical
//! implementation (the deterministic simulator) and [`crate::ThreadedComm`]
//! runs the same kernel over a worker pool. Wrapping transports implement
//! [`Decorator`], the one interception seam: every primitive call reaches
//! a decorator as one [`Op`] value in [`Decorator::call`], and
//! [`crate::TracingComm`], [`crate::FaultComm`] (every injected fault, per
//! call or per node), [`crate::BroadcastComm`] (the Broadcast Congested
//! Clique of the companion paper arXiv:2205.12059) and
//! [`crate::ThreadedComm`] each override that one method.
//!
//! Algorithms are generic over `C: Communicator`; nothing outside
//! `cc-model` needs to know which substrate is charging the rounds.

use crate::{
    CliqueConfig, CostKind, Envelope, ModelError, NodeId, Op, Reply, RoundLedger, RouteBatch, Words,
};

/// Which communication model a [`Communicator`] implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommunicationMode {
    /// The (unicast) congested clique \[LPSPP05\]: per round, every
    /// ordered pair may exchange one word.
    #[default]
    Unicast,
    /// The Broadcast Congested Clique \[DKO12\] (§2.1 of the paper): per
    /// round every node sends the *same* word to everyone. Reported by
    /// [`crate::BroadcastComm`], so wrappers above it (e.g.
    /// [`crate::TracingComm`]) attribute congestion broadcast-style.
    Broadcast,
}

/// Runs `f` inside a named ledger phase of `comm`, popping the phase even
/// if `f` unwinds (drop guard), so a panicking solve cannot leave the
/// phase stack unbalanced.
pub fn scoped_phase<C: Communicator, R>(
    comm: &mut C,
    name: &str,
    f: impl FnOnce(&mut C) -> R,
) -> R {
    struct Guard<'a, C: Communicator>(&'a mut C);
    impl<C: Communicator> Drop for Guard<'_, C> {
        fn drop(&mut self) {
            self.0.pop_phase();
        }
    }
    comm.push_phase(name);
    let guard = Guard(comm);
    f(guard.0)
}

/// The communication substrate of a congested clique algorithm.
///
/// The trait mirrors the primitive surface of [`crate::Clique`] (which is
/// its canonical implementation): point-to-point
/// [`exchange`](Communicator::exchange), Lenzen
/// [`route`](Communicator::route)/[`route_strict`](Communicator::route_strict)
/// (and [`route_batch`](Communicator::route_batch), its charge-only twin),
/// the broadcast family, [`allgather`](Communicator::allgather),
/// [`sort`](Communicator::sort), [`gather_to`](Communicator::gather_to),
/// plus phase scoping and oracle charging. Every
/// algorithm entry point in the workspace takes `&mut C` with
/// `C: Communicator`, so substrates can be swapped without touching
/// algorithm code:
///
/// * [`crate::Clique`] — the deterministic simulator;
/// * [`crate::ThreadedComm`] — the same delivery kernel sharded over a
///   worker pool, bitwise identical to `Clique`;
/// * [`crate::TracingComm`] — wraps any communicator with a structured
///   event trace and per-phase congestion statistics;
/// * [`crate::FaultComm`] — wraps any communicator with deterministic,
///   seeded fault injection: per-call faults for bandwidth-bound testing
///   and node-level adversaries (silent, crash–recover, corrupting);
/// * [`crate::BroadcastComm`] — the Broadcast Congested Clique over any
///   communicator, rejecting (strict) or re-pricing (measured) unicast.
///
/// # Contract
///
/// Implementations must be *transparent* about round accounting: the
/// rounds charged for a primitive call are defined by the substrate, and
/// wrapping transports must not change them ([`crate::TracingComm`]
/// charges bitwise-identical totals to a bare [`crate::Clique`]; the
/// workspace tests verify this over every experiment in `cc-bench`).
///
/// # Example
///
/// ```
/// use cc_model::{Clique, Communicator, TracingComm};
///
/// fn min_consensus<C: Communicator>(comm: &mut C, mine: u64) -> u64 {
///     comm.phase("consensus", |comm| {
///         let view = comm.broadcast_all(&vec![mine; comm.n()]).unwrap();
///         view.into_iter().min().unwrap()
///     })
/// }
///
/// let mut bare = Clique::new(4);
/// let mut traced = TracingComm::new(Clique::new(4));
/// assert_eq!(min_consensus(&mut bare, 7), 7);
/// assert_eq!(min_consensus(&mut traced, 7), 7);
/// assert_eq!(
///     bare.ledger().total_rounds(),
///     traced.ledger().total_rounds()
/// );
/// ```
pub trait Communicator {
    /// Number of nodes of the clique.
    fn n(&self) -> usize;

    /// The accounting constants in effect.
    fn config(&self) -> CliqueConfig;

    /// Read access to the round ledger.
    fn ledger(&self) -> &RoundLedger;

    /// Mutable access to the round ledger (e.g. to reset between phases
    /// of a benchmark).
    fn ledger_mut(&mut self) -> &mut RoundLedger;

    /// The communication model this substrate implements. Unicast
    /// substrates report [`CommunicationMode::Unicast`] (the default);
    /// [`crate::BroadcastComm`] reports [`CommunicationMode::Broadcast`].
    fn mode(&self) -> CommunicationMode {
        CommunicationMode::Unicast
    }

    /// Enters a named ledger phase. Prefer [`Communicator::phase`], which
    /// guarantees the matching [`Communicator::pop_phase`].
    fn push_phase(&mut self, name: &str) {
        self.ledger_mut().push_phase(name);
    }

    /// Leaves the innermost ledger phase.
    fn pop_phase(&mut self) {
        self.ledger_mut().pop_phase();
    }

    /// Runs `f` inside a named ledger phase, so all rounds charged by `f`
    /// are attributed under `name`. The phase is popped even if `f`
    /// unwinds.
    fn phase<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R
    where
        Self: Sized,
    {
        scoped_phase(self, name, f)
    }

    /// Number of transport-layer faults this substrate has injected or
    /// detected so far. Honest substrates report 0 (the default);
    /// wrapping transports add their own count to the wrapped
    /// substrate's ([`crate::FaultComm`] counts the events of its log:
    /// injected faults, omissions and corruptions), so engine layers
    /// can surface fault totals through their error types without
    /// naming a concrete transport stack.
    fn faults_observed(&self) -> u64 {
        0
    }

    /// Charges `rounds` rounds for an oracle subroutine that is simulated
    /// rather than executed distributedly (tagged [`CostKind::Charged`];
    /// see `DESIGN.md` §2).
    fn charge_oracle(&mut self, rounds: u64) {
        self.ledger_mut().charge(rounds, CostKind::Charged);
    }

    /// Charges `rounds` implemented rounds without moving data — used by
    /// primitives built on top of the substrate whose data movement is
    /// performed by the caller (rare; prefer the message primitives).
    fn charge_implemented(&mut self, rounds: u64) {
        self.ledger_mut().charge(rounds, CostKind::Implemented);
    }

    /// Direct point-to-point exchange; see [`crate::Clique`] for the
    /// canonical accounting (max per-ordered-pair words).
    ///
    /// # Errors
    ///
    /// [`ModelError::WrongOutboxCount`] if `outboxes.len() != n`;
    /// [`ModelError::InvalidNode`] on an out-of-range destination;
    /// [`ModelError::UnicastInBroadcastModel`] in a strict
    /// [`crate::BroadcastComm`].
    fn exchange(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError>;

    /// Routed exchange via Lenzen's routing theorem; see
    /// [`crate::Clique`] for the canonical accounting.
    ///
    /// # Errors
    ///
    /// Same structural errors as [`Communicator::exchange`].
    fn route(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError>;

    /// A routed step whose recipients the caller simulates locally, so no
    /// inboxes come back: rounds, errors and every wrapper's view are
    /// those of [`Communicator::route`] on the batch's rebuilt outboxes
    /// ([`RouteBatch::outboxes`]). The default rebuilds them and calls
    /// `route`; [`crate::Clique`] overrides it to charge the same rounds
    /// from the batch's loads without building anything. A [`Decorator`]
    /// receives it as [`Op::RouteBatch`], labelled `route`.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidNode`] on an out-of-range source (checked
    /// before anything is charged or rebuilt), plus whatever `route`
    /// returns for the rebuilt outboxes.
    fn route_batch(&mut self, batch: &RouteBatch) -> Result<(), ModelError> {
        let outboxes = batch.outboxes(self.n())?;
        self.route(outboxes).map(drop)
    }

    /// Like [`Communicator::route`], but fails instead of batching when a
    /// node's load exceeds one application of the routing theorem.
    ///
    /// # Errors
    ///
    /// [`ModelError::CongestionExceeded`] if some node would send or
    /// receive more than `capacity·n` words, plus the structural errors
    /// of [`Communicator::exchange`].
    fn route_strict(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError>;

    /// Every node broadcasts one word; everyone learns all `n` words.
    ///
    /// # Errors
    ///
    /// [`ModelError::WrongOutboxCount`] if `values.len() != n`;
    /// fault-injecting transports ([`crate::FaultComm`]) additionally
    /// return [`ModelError::CongestionExceeded`] for injected faults.
    fn broadcast_all(&mut self, values: &[u64]) -> Result<Vec<u64>, ModelError>;

    /// [`Communicator::broadcast_all`] into a caller-owned buffer: `out`
    /// is cleared and refilled with the shared view. The default delegates
    /// to [`Communicator::broadcast_all`]; substrates with an
    /// allocation-free fast path override it ([`crate::Clique`] does). A
    /// [`Decorator`] receives it as [`Op::BroadcastAllInto`], labelled
    /// `broadcast_all`. Round accounting must be identical to
    /// `broadcast_all`.
    ///
    /// # Errors
    ///
    /// Same errors as [`Communicator::broadcast_all`] (leaving `out`
    /// untouched on failure).
    fn broadcast_all_into(&mut self, values: &[u64], out: &mut Vec<u64>) -> Result<(), ModelError> {
        let view = self.broadcast_all(values)?;
        out.clear();
        out.extend_from_slice(&view);
        Ok(())
    }

    /// Every node broadcasts a word vector; everyone learns all of them.
    ///
    /// # Errors
    ///
    /// [`ModelError::WrongOutboxCount`] if `per_node.len() != n`;
    /// fault-injecting transports additionally return
    /// [`ModelError::CongestionExceeded`] for injected faults.
    fn broadcast_all_words(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError>;

    /// One node broadcasts its word vector to everyone.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidNode`] if `src` is out of range.
    fn broadcast_from(&mut self, src: NodeId, words: &Words) -> Result<Words, ModelError>;

    /// Everyone learns everyone's word vector, load-balanced (all-gather).
    /// Returns the concatenation in node order plus per-node offsets.
    ///
    /// # Errors
    ///
    /// [`ModelError::WrongOutboxCount`] if `per_node.len() != n`;
    /// fault-injecting transports additionally return
    /// [`ModelError::CongestionExceeded`] for injected faults.
    fn allgather(&mut self, per_node: &[Words]) -> Result<(Words, Vec<usize>), ModelError>;

    /// Globally sorts all keys across the clique (Lenzen's deterministic
    /// sorting theorem); node `i` receives the `i`-th sorted block.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnicastInBroadcastModel`] in a strict
    /// [`crate::BroadcastComm`].
    fn sort(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError>;

    /// Every node sends its word vector to a single destination.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidNode`] if `dst` is out of range.
    fn gather_to(&mut self, dst: NodeId, per_node: &[Words]) -> Result<Vec<Words>, ModelError>;
}

/// The interception seam of the wrapping transports.
///
/// A decorator names the communicator it wraps ([`Decorator::inner`],
/// [`Decorator::inner_mut`]) and sees every primitive call — the twelve
/// data primitives and the two charges — as one [`Op`] value in
/// [`Decorator::call`]. A blanket impl makes every `Decorator` a
/// [`Communicator`]: each typed method wraps its arguments into an `Op`,
/// passes it to `call` and unwraps the [`Reply`] of its shape. The
/// default `call` forwards ([`Op::apply`] on the wrapped communicator),
/// so a decorator overrides `call`, handles the ops it changes, and
/// passes the rest on with `op.apply(inner)`.
///
/// Every provided method calls the *same* method on the wrapped
/// communicator — never its ledger — so a `push_phase` or a charge still
/// reaches a [`crate::TracingComm`] stacked further down. `n`, `config`,
/// `ledger` and `ledger_mut` always forward. Forwarding is static: no
/// `dyn` in the call path.
///
/// `route_batch` checks the batch's sources before its op reaches
/// `call`, so a bad source is rejected before any decorator sees it.
///
/// The names `mode`, `faults_observed`, `push_phase` and `pop_phase`
/// mirror [`Communicator`]'s, so with both traits in scope such a call
/// on a concrete decorator is ambiguous: import `Decorator` only to
/// implement it, and otherwise call `Decorator::inner(&comm)` by path.
pub trait Decorator {
    /// The wrapped communicator.
    type Inner: Communicator;

    /// The wrapped communicator.
    fn inner(&self) -> &Self::Inner;

    /// The wrapped communicator, mutably.
    fn inner_mut(&mut self) -> &mut Self::Inner;

    /// Forwards [`Communicator::mode`].
    fn mode(&self) -> CommunicationMode {
        self.inner().mode()
    }

    /// Forwards [`Communicator::faults_observed`].
    fn faults_observed(&self) -> u64 {
        self.inner().faults_observed()
    }

    /// Forwards [`Communicator::push_phase`].
    fn push_phase(&mut self, name: &str) {
        self.inner_mut().push_phase(name);
    }

    /// Forwards [`Communicator::pop_phase`].
    fn pop_phase(&mut self) {
        self.inner_mut().pop_phase();
    }

    /// Every primitive call and charge. Forwards by default.
    ///
    /// # Errors
    ///
    /// Whatever the call returns; a decorator may add its own. The reply
    /// must have the shape of `op`'s typed method.
    fn call(&mut self, op: Op<'_>) -> Result<Reply, ModelError> {
        op.apply(self.inner_mut())
    }
}

/// Passes `op` to `d`'s [`Decorator::call`] and unwraps the reply shape
/// its typed method returns.
fn forward<D: Decorator, T>(
    d: &mut D,
    op: Op<'_>,
    shape: fn(Reply) -> Option<T>,
) -> Result<T, ModelError> {
    let name = op.name();
    let reply = d.call(op)?;
    Ok(shape(reply)
        .unwrap_or_else(|| panic!("a decorator answered `{name}` with another reply shape")))
}

impl<D: Decorator> Communicator for D {
    fn n(&self) -> usize {
        self.inner().n()
    }

    fn config(&self) -> CliqueConfig {
        self.inner().config()
    }

    fn ledger(&self) -> &RoundLedger {
        self.inner().ledger()
    }

    fn ledger_mut(&mut self) -> &mut RoundLedger {
        self.inner_mut().ledger_mut()
    }

    fn mode(&self) -> CommunicationMode {
        Decorator::mode(self)
    }

    fn push_phase(&mut self, name: &str) {
        Decorator::push_phase(self, name);
    }

    fn pop_phase(&mut self) {
        Decorator::pop_phase(self);
    }

    fn faults_observed(&self) -> u64 {
        Decorator::faults_observed(self)
    }

    fn charge_oracle(&mut self, rounds: u64) {
        forward(self, Op::Charge(CostKind::Charged, rounds), Reply::done)
            .expect("a charge cannot fail");
    }

    fn charge_implemented(&mut self, rounds: u64) {
        forward(self, Op::Charge(CostKind::Implemented, rounds), Reply::done)
            .expect("a charge cannot fail");
    }

    fn exchange(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        forward(self, Op::Exchange(outboxes), Reply::inboxes)
    }

    fn route(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        forward(self, Op::Route(outboxes), Reply::inboxes)
    }

    fn route_batch(&mut self, batch: &RouteBatch) -> Result<(), ModelError> {
        batch.check_sources(self.n())?;
        forward(self, Op::RouteBatch(batch), Reply::done)
    }

    fn route_strict(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        forward(self, Op::RouteStrict(outboxes), Reply::inboxes)
    }

    fn broadcast_all(&mut self, values: &[u64]) -> Result<Vec<u64>, ModelError> {
        forward(self, Op::BroadcastAll(values), Reply::words)
    }

    fn broadcast_all_into(&mut self, values: &[u64], out: &mut Vec<u64>) -> Result<(), ModelError> {
        forward(self, Op::BroadcastAllInto(values, out), Reply::done)
    }

    fn broadcast_all_words(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        forward(self, Op::BroadcastAllWords(per_node), Reply::rows)
    }

    fn broadcast_from(&mut self, src: NodeId, words: &Words) -> Result<Words, ModelError> {
        forward(self, Op::BroadcastFrom(src, words), Reply::words)
    }

    fn allgather(&mut self, per_node: &[Words]) -> Result<(Words, Vec<usize>), ModelError> {
        forward(self, Op::Allgather(per_node), Reply::gathered)
    }

    fn sort(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        forward(self, Op::Sort(per_node), Reply::rows)
    }

    fn gather_to(&mut self, dst: NodeId, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        forward(self, Op::GatherTo(dst, per_node), Reply::rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Clique;

    fn generic_round<C: Communicator>(comm: &mut C) -> u64 {
        comm.phase("generic", |comm| {
            let n = comm.n();
            comm.broadcast_all(&vec![1; n]).unwrap();
            comm.charge_oracle(3);
        });
        comm.ledger().total_rounds()
    }

    #[test]
    fn clique_is_a_communicator() {
        let mut clique = Clique::new(4);
        assert_eq!(generic_round(&mut clique), 4);
        assert_eq!(clique.ledger().phase("generic").implemented, 1);
        assert_eq!(clique.ledger().phase("generic").charged, 3);
    }

    #[test]
    fn scoped_phase_pops_on_unwind() {
        let mut clique = Clique::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            clique.phase("doomed", |c| {
                c.charge_oracle(1);
                panic!("mid-phase failure");
            })
        }));
        assert!(result.is_err());
        // The drop guard popped the phase despite the unwind.
        assert_eq!(clique.ledger().current_phase(), "");
        assert_eq!(clique.ledger().phase("doomed").charged, 1);
    }

    #[test]
    fn nested_phases_balance() {
        let mut clique = Clique::new(2);
        clique.phase("a", |c| {
            c.phase("b", |c| {
                c.phase("c", |c| c.charge_oracle(1));
                assert_eq!(c.ledger().current_phase(), "a/b");
            });
            assert_eq!(c.ledger().current_phase(), "a");
        });
        assert_eq!(clique.ledger().current_phase(), "");
        assert_eq!(clique.ledger().phase("a/b/c").charged, 1);
    }
}
