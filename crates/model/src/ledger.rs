use std::collections::BTreeMap;
use std::fmt;

/// How a batch of rounds was accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostKind {
    /// Rounds of communication the simulator actually performed
    /// (message sets checked against the model's bandwidth rules).
    Implemented,
    /// Rounds charged by formula for an oracle subroutine that is
    /// substituted rather than executed distributedly (see `DESIGN.md` §2),
    /// e.g. the \[CS20\] expander decomposition or fast-matrix-multiplication
    /// APSP accounting.
    Charged,
}

impl fmt::Display for CostKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostKind::Implemented => write!(f, "implemented"),
            CostKind::Charged => write!(f, "charged"),
        }
    }
}

/// Rounds attributed to one named phase, split by [`CostKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Rounds of executed communication.
    pub implemented: u64,
    /// Rounds charged for oracle substitutions.
    pub charged: u64,
}

impl PhaseCost {
    /// Total rounds of the phase (implemented + charged).
    pub fn total(&self) -> u64 {
        self.implemented + self.charged
    }

    fn add(&mut self, delta: PhaseCost) {
        self.implemented += delta.implemented;
        self.charged += delta.charged;
    }
}

/// Accumulates the round complexity of a simulated execution, attributed to
/// nested phases.
///
/// Phases form a stack: [`RoundLedger::push_phase`] /
/// [`RoundLedger::pop_phase`] (or the RAII-free helpers on
/// [`crate::Clique`]). Rounds are attributed to the *innermost* active phase
/// (and contribute to the grand total); the phase stack's joined name (e.g.
/// `"maxflow/augmentation/laplacian"`) is the attribution key.
#[derive(Debug, Clone, Default)]
pub struct RoundLedger {
    total: PhaseCost,
    phases: BTreeMap<String, PhaseCost>,
    /// `/`-joined name of the current phase stack — maintained incrementally
    /// so [`RoundLedger::charge`] never allocates in steady state (each
    /// phase key is cloned into `phases` once, on its first charge).
    path: String,
    /// `path.len()` snapshots taken before each push, so a pop is a
    /// truncation.
    depths: Vec<usize>,
}

impl RoundLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of rounds accounted so far (implemented + charged).
    pub fn total_rounds(&self) -> u64 {
        self.total.total()
    }

    /// Rounds of communication actually executed by the simulator.
    pub fn implemented_rounds(&self) -> u64 {
        self.total.implemented
    }

    /// Rounds charged for oracle substitutions.
    pub fn charged_rounds(&self) -> u64 {
        self.total.charged
    }

    /// Per-phase breakdown, keyed by `/`-joined phase stack names.
    pub fn phases(&self) -> &BTreeMap<String, PhaseCost> {
        &self.phases
    }

    /// Rounds of the phase whose joined name is exactly `name`
    /// ([`PhaseCost::default`] if the phase never ran).
    pub fn phase(&self, name: &str) -> PhaseCost {
        self.phases.get(name).copied().unwrap_or_default()
    }

    /// Sum of rounds over all phases whose joined name starts with `prefix`.
    pub fn phase_prefix_total(&self, prefix: &str) -> u64 {
        self.phases
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v.total())
            .sum()
    }

    /// Enters a nested phase named `name`.
    pub fn push_phase(&mut self, name: impl AsRef<str>) {
        self.depths.push(self.path.len());
        if self.depths.len() > 1 {
            self.path.push('/');
        }
        self.path.push_str(name.as_ref());
    }

    /// Leaves the innermost phase.
    ///
    /// A pop without a matching push is a programming error in the calling
    /// algorithm; it trips a debug assertion (and is ignored in release
    /// builds, where an unbalanced pop cannot corrupt the counters — only
    /// the attribution of later charges).
    pub fn pop_phase(&mut self) {
        let popped = self.depths.pop();
        debug_assert!(
            popped.is_some(),
            "RoundLedger::pop_phase called with empty phase stack"
        );
        if let Some(len) = popped {
            self.path.truncate(len);
        }
    }

    /// Name of the current phase stack, `/`-joined (empty string at top level).
    pub fn current_phase(&self) -> &str {
        &self.path
    }

    /// Records `rounds` rounds of the given kind against the current phase.
    ///
    /// One map lookup, and allocation-free, once the phase has been charged
    /// before: the joined phase name is maintained incrementally and the
    /// key is only cloned on the first charge of a phase.
    pub fn charge(&mut self, rounds: u64, kind: CostKind) {
        let delta = match kind {
            CostKind::Implemented => PhaseCost {
                implemented: rounds,
                charged: 0,
            },
            CostKind::Charged => PhaseCost {
                implemented: 0,
                charged: rounds,
            },
        };
        self.total.add(delta);
        match self.phases.get_mut(self.path.as_str()) {
            Some(entry) => entry.add(delta),
            None => {
                self.phases.insert(self.path.clone(), delta);
            }
        }
    }

    /// Resets all counters and the phase stack.
    pub fn reset(&mut self) {
        *self = RoundLedger::new();
    }

    /// Renders a human-readable table of the per-phase breakdown.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "total rounds: {} (implemented {}, charged {})\n",
            self.total_rounds(),
            self.total.implemented,
            self.total.charged
        ));
        for (name, cost) in &self.phases {
            let label = if name.is_empty() {
                "<top>"
            } else {
                name.as_str()
            };
            out.push_str(&format!(
                "  {label:<48} {:>10} (impl {:>8}, charged {:>8})\n",
                cost.total(),
                cost.implemented,
                cost.charged
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_is_zero() {
        let ledger = RoundLedger::new();
        assert_eq!(ledger.total_rounds(), 0);
        assert_eq!(ledger.phase("anything"), PhaseCost::default());
        assert!(ledger.phases().is_empty());
    }

    #[test]
    fn charges_accumulate_per_phase() {
        let mut ledger = RoundLedger::new();
        ledger.charge(2, CostKind::Implemented);
        ledger.push_phase("solve");
        ledger.charge(5, CostKind::Implemented);
        ledger.push_phase("inner");
        ledger.charge(7, CostKind::Charged);
        ledger.pop_phase();
        ledger.charge(1, CostKind::Implemented);
        ledger.pop_phase();
        assert_eq!(ledger.total_rounds(), 15);
        assert_eq!(ledger.implemented_rounds(), 8);
        assert_eq!(ledger.charged_rounds(), 7);
        assert_eq!(ledger.phase("").implemented, 2);
        assert_eq!(ledger.phase("solve").implemented, 6);
        assert_eq!(ledger.phase("solve/inner").charged, 7);
        assert_eq!(ledger.phase_prefix_total("solve"), 13);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "empty phase stack")]
    fn pop_without_push_is_a_debug_assertion() {
        let mut ledger = RoundLedger::new();
        ledger.pop_phase();
    }

    #[test]
    fn nested_push_pop_balance() {
        let mut ledger = RoundLedger::new();
        for depth in ["a", "b", "c"] {
            ledger.push_phase(depth);
        }
        assert_eq!(ledger.current_phase(), "a/b/c");
        ledger.pop_phase();
        ledger.push_phase("d");
        assert_eq!(ledger.current_phase(), "a/b/d");
        ledger.pop_phase();
        ledger.pop_phase();
        ledger.pop_phase();
        assert_eq!(ledger.current_phase(), "");
    }

    #[test]
    fn report_mentions_all_phases() {
        let mut ledger = RoundLedger::new();
        ledger.push_phase("alpha");
        ledger.charge(3, CostKind::Implemented);
        ledger.pop_phase();
        let report = ledger.report();
        assert!(report.contains("alpha"));
        assert!(report.contains("total rounds: 3"));
    }

    #[test]
    fn reset_clears_everything() {
        let mut ledger = RoundLedger::new();
        ledger.push_phase("p");
        ledger.charge(4, CostKind::Charged);
        ledger.pop_phase();
        ledger.reset();
        assert_eq!(ledger.total_rounds(), 0);
        assert!(ledger.phases().is_empty());
        assert_eq!(ledger.current_phase(), "");
    }
}
