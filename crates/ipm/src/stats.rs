use std::collections::BTreeMap;
use std::fmt::Write as _;

use cc_model::util::Fnv1a;

/// Accounting of one engine stage (e.g. `"augmentation"`, `"fixing"`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageStats {
    /// Electrical solves issued ([`crate::BarrierEngine::flow_into`]).
    pub solves: usize,
    /// Preconditioned Chebyshev iterations (= broadcast rounds) those
    /// solves spent in total.
    pub chebyshev_iterations: usize,
    /// Full sparsifier constructions (no template available, or reuse
    /// disabled).
    pub builds: usize,
    /// Builds that instantiated a captured template instead of
    /// re-decomposing.
    pub template_reuses: usize,
    /// Template reuses whose template came from a shared cross-instance
    /// [`cc_sparsify::TemplateCache`] rather than this engine's own
    /// first build (a subset of [`StageStats::template_reuses`]).
    pub template_cache_hits: usize,
    /// Ledger rounds the stage's builds and solves cost.
    pub rounds: u64,
    /// Most recent residual norm the adapter reported for this stage
    /// (0.0 until [`crate::BarrierEngine::record_residual`] is called).
    pub last_residual_norm: f64,
}

/// Unified per-stage solver statistics of a [`crate::BarrierEngine`] run.
///
/// Stages are keyed by the `&'static str` names the adapter passes to the
/// engine; iteration and the JSON export are in lexicographic key order,
/// so the record is deterministic for the bench tables and
/// `TracingComm`-style diffing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    stages: BTreeMap<String, StageStats>,
    digest: Fnv1a,
}

impl EngineStats {
    /// Statistics of one stage (default-zero if the stage never ran).
    pub fn stage(&self, name: &str) -> StageStats {
        self.stages.get(name).copied().unwrap_or_default()
    }

    /// All stages in lexicographic order.
    pub fn stages(&self) -> impl Iterator<Item = (&str, &StageStats)> {
        self.stages.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Electrical solves across all stages.
    pub fn total_solves(&self) -> usize {
        self.stages.values().map(|s| s.solves).sum()
    }

    /// Chebyshev iterations across all stages.
    pub fn total_chebyshev_iterations(&self) -> usize {
        self.stages.values().map(|s| s.chebyshev_iterations).sum()
    }

    /// Ledger rounds attributed to builds and solves across all stages.
    pub fn total_rounds(&self) -> u64 {
        self.stages.values().map(|s| s.rounds).sum()
    }

    /// Sparsifier template reuses across all stages.
    pub fn total_template_reuses(&self) -> usize {
        self.stages.values().map(|s| s.template_reuses).sum()
    }

    /// Cross-instance template-cache hits across all stages.
    pub fn total_template_cache_hits(&self) -> usize {
        self.stages.values().map(|s| s.template_cache_hits).sum()
    }

    /// Word-wise FNV-1a over the bits of every build's `α` and `κ` and of
    /// every solve's output (potentials, flows, energy, iteration count),
    /// in call order. Two runs with equal digests computed bitwise-equal
    /// electrical flows. Not part of [`EngineStats::to_json`].
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Folds one build's certified `α` and `κ` into the digest.
    pub(crate) fn record_build(&mut self, alpha: f64, kappa: f64) {
        self.digest.word(alpha.to_bits());
        self.digest.word(kappa.to_bits());
    }

    /// Folds one solve's output into the digest.
    pub(crate) fn record_flow(&mut self, flow: &cc_core::ElectricalFlow) {
        for &x in flow.potentials.iter().chain(&flow.flows) {
            self.digest.word(x.to_bits());
        }
        self.digest.word(flow.energy.to_bits());
        self.digest.word(flow.iterations as u64);
    }

    /// Folds another run's counters into this record (used to combine the
    /// IPM core's engine with the cleanup phase's). The other run's digest
    /// is folded in as one word.
    pub fn merge(&mut self, other: &EngineStats) {
        self.digest.word(other.digest());
        for (name, theirs) in &other.stages {
            if !self.stages.contains_key(name.as_str()) {
                self.stages.insert(name.clone(), StageStats::default());
            }
            let ours = self
                .stages
                .get_mut(name.as_str())
                .expect("stage just ensured");
            ours.solves += theirs.solves;
            ours.chebyshev_iterations += theirs.chebyshev_iterations;
            ours.builds += theirs.builds;
            ours.template_reuses += theirs.template_reuses;
            ours.template_cache_hits += theirs.template_cache_hits;
            ours.rounds += theirs.rounds;
            if theirs.solves > 0 || theirs.last_residual_norm != 0.0 {
                ours.last_residual_norm = theirs.last_residual_norm;
            }
        }
    }

    /// Deterministic JSON export (stages in lexicographic order, fixed
    /// field order) for bench snapshots and experiment tables.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, s)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"solves\":{},\"chebyshev_iterations\":{},\"builds\":{},\
                 \"template_reuses\":{},\"template_cache_hits\":{},\"rounds\":{},\
                 \"last_residual_norm\":{:?}}}",
                s.solves,
                s.chebyshev_iterations,
                s.builds,
                s.template_reuses,
                s.template_cache_hits,
                s.rounds,
                s.last_residual_norm,
            );
        }
        out.push('}');
        out
    }

    /// Mutable per-stage slot; allocates the key only on first touch so
    /// the steady-state path stays allocation-free.
    pub(crate) fn stage_mut(&mut self, name: &'static str) -> &mut StageStats {
        if !self.stages.contains_key(name) {
            self.stages.insert(name.to_string(), StageStats::default());
        }
        self.stages.get_mut(name).expect("stage just ensured")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters() {
        let mut a = EngineStats::default();
        a.stage_mut("augmentation").solves = 2;
        a.stage_mut("augmentation").rounds = 10;
        let mut b = EngineStats::default();
        b.stage_mut("augmentation").solves = 3;
        b.stage_mut("cleanup").builds = 1;
        a.merge(&b);
        assert_eq!(a.stage("augmentation").solves, 5);
        assert_eq!(a.stage("augmentation").rounds, 10);
        assert_eq!(a.stage("cleanup").builds, 1);
        assert_eq!(a.stage("never"), StageStats::default());
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let mut s = EngineStats::default();
        s.stage_mut("fixing").solves = 1;
        s.stage_mut("augmentation").solves = 2;
        let j = s.to_json();
        assert_eq!(j, s.clone().to_json());
        let a = j.find("augmentation").unwrap();
        let f = j.find("fixing").unwrap();
        assert!(a < f, "lexicographic stage order: {j}");
        assert!(j.contains("\"solves\":2"));
    }

    #[test]
    fn totals_aggregate_stages() {
        let mut s = EngineStats::default();
        s.stage_mut("a").solves = 2;
        s.stage_mut("a").chebyshev_iterations = 40;
        s.stage_mut("b").solves = 1;
        s.stage_mut("b").rounds = 7;
        assert_eq!(s.total_solves(), 3);
        assert_eq!(s.total_chebyshev_iterations(), 40);
        assert_eq!(s.total_rounds(), 7);
    }
}
