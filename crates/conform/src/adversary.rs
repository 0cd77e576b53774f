//! The chaos suite: every pipeline's differential checker, replayed
//! under [`FaultPlan`]s of per-node rules (the [`adversary_plans`]
//! slate) through the fault suite's own dispatcher,
//! [`crate::driver::run_target`], with each (pipeline × strategy) cell
//! classified as
//!
//! * **detected** — the pipeline surfaced a typed error (for silent and
//!   crash–recover adversaries always comm-rooted: the transport turns
//!   the withheld message into [`cc_model::ModelError::NodeSilenced`]);
//! * **tolerated** — the pipeline completed and its result passed the
//!   checker's differential oracle;
//! * **corrupted** — the checker panicked: a silently wrong answer (the
//!   oracle assert fired) or an ungraceful crash on perturbed data.
//!
//! The invariant the suite enforces (EXPERIMENTS.md E12): **corrupted
//! cells are impossible for detectable strategies** — a silent or
//! crashed node can never produce a wrong answer, only a typed error or
//! a correct result, because the synchronous model makes omissions
//! observable the round they happen. Value-corrupting adversaries are
//! the counterpoint: they forge payloads within the congestion budget,
//! which no transport can detect — those cells document which pipelines
//! happen to absorb, reject, or propagate a one-bit forgery.
//!
//! The suite is deterministic (fixed plan slate, seeded corruption
//! streams) and substrate-agnostic: [`run_adversary_suite_on`] produces
//! cell-for-cell identical reports over `Clique` and `ThreadedComm` at
//! any worker count. `CONFORM_ADVERSARY_CASES=N` appends `N` extra
//! seeded plans per pipeline for chaos soak runs.

use cc_model::{Clique, Communicator, FaultPlan, FaultRule};

use crate::corpus::adversary_case_budget;
use crate::driver::{comm_rooted, fault_plans, run_target, FaultTarget};

/// Classification of one (pipeline × strategy) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome {
    /// Typed error surfaced (never a wrong answer).
    Detected,
    /// Completed and passed the differential oracle.
    Tolerated,
    /// Checker panicked: silent wrong answer or crash.
    Corrupted,
}

impl CellOutcome {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Detected => "detected",
            CellOutcome::Tolerated => "tolerated",
            CellOutcome::Corrupted => "corrupted",
        }
    }
}

/// One classified (pipeline × strategy) run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryCell {
    /// Pipeline under test.
    pub pipeline: FaultTarget,
    /// Name of the plan from the slate (e.g. `silent`).
    pub strategy: String,
    /// True if the plan is omission-only (no value-corrupting
    /// node) — the class whose cells must never be `Corrupted`.
    pub detectable: bool,
    /// The classification.
    pub outcome: CellOutcome,
    /// True when the surfaced error was comm-rooted.
    pub comm_rooted: bool,
    /// Adversary events (omissions + corruptions) the transport
    /// recorded during the run.
    pub events: u64,
    /// Deterministic human-readable detail (rounds or error display).
    pub detail: String,
}

/// The full matrix of one suite run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryReport {
    /// All cells, pipeline-major in slate order.
    pub cells: Vec<AdversaryCell>,
}

impl AdversaryReport {
    /// Cells with the given outcome.
    pub fn count(&self, outcome: CellOutcome) -> usize {
        self.cells.iter().filter(|c| c.outcome == outcome).count()
    }

    /// Panics if any omission-only plan produced a `Corrupted`
    /// cell (the E12 invariant).
    pub fn assert_detectable_strategies_never_corrupt(&self) {
        let bad: Vec<&AdversaryCell> = (self.cells.iter())
            .filter(|c| c.detectable && c.outcome == CellOutcome::Corrupted)
            .collect();
        assert!(
            bad.is_empty(),
            "omission adversaries must never corrupt silently: {bad:?}"
        );
    }

    /// The matrix as deterministic markdown (pipelines × strategies),
    /// the table EXPERIMENTS.md E12 records.
    pub fn matrix_markdown(&self) -> String {
        let mut strategies: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !strategies.contains(&c.strategy.as_str()) {
                strategies.push(&c.strategy);
            }
        }
        let mut out = String::from("| pipeline |");
        for s in &strategies {
            out.push_str(&format!(" {s} |"));
        }
        out.push_str("\n|---|");
        out.push_str(&"---|".repeat(strategies.len()));
        out.push('\n');
        let mut pipelines: Vec<FaultTarget> = Vec::new();
        for c in &self.cells {
            if !pipelines.contains(&c.pipeline) {
                pipelines.push(c.pipeline);
            }
        }
        for p in pipelines {
            out.push_str(&format!("| {p:?} |"));
            for s in &strategies {
                let cell = self
                    .cells
                    .iter()
                    .find(|c| c.pipeline == p && c.strategy == **s);
                out.push_str(&format!(" {} |", cell.map_or("—", |c| c.outcome.label())));
            }
            out.push('\n');
        }
        out
    }
}

/// The deterministic adversary slate: one omission adversary of each
/// kind plus a value-corrupting one, all on node 1 with fixed seeds,
/// extended by `CONFORM_ADVERSARY_CASES` seeded soak plans cycling the
/// per-node rules over varying nodes, seeds, and crash windows.
pub fn adversary_plans() -> Vec<(String, FaultPlan)> {
    let crash = |node, from_round, until_round| FaultRule::CrashRecover {
        node,
        from_round,
        until_round,
    };
    let base = [
        ("silent", 101, FaultRule::Silent(1)),
        ("crash_recover", 102, crash(1, 0, 6)),
        ("corrupt", 103, FaultRule::Corrupt(1)),
    ];
    let mut slate: Vec<(String, FaultPlan)> = (base.into_iter())
        .map(|(name, seed, rule)| (name.to_string(), FaultPlan::new(seed).with(rule)))
        .collect();
    for k in 0..adversary_case_budget() {
        // Node ids stay below the smallest corpus instance size.
        let node = 1 + k % 3;
        let (name, rule) = match k % 3 {
            0 => ("silent", FaultRule::Silent(node)),
            1 => {
                let from = (k as u64 / 3) % 4;
                ("crash_recover", crash(node, from, from + 4 + k as u64 % 5))
            }
            _ => ("corrupt", FaultRule::Corrupt(node)),
        };
        slate.push((
            format!("soak{k}_{name}_n{node}"),
            FaultPlan::new(200 + k as u64).with(rule),
        ));
    }
    slate
}

/// Runs the full chaos matrix — every pipeline (in
/// [`crate::fault_plans`] order) under every slate plan — over
/// substrates from `make` (one fresh substrate per cell). The report is
/// deterministic and bitwise identical across substrates for any
/// deterministic `make`.
pub fn run_adversary_suite_on<C: Communicator>(make: impl Fn(usize) -> C) -> AdversaryReport {
    let slate = adversary_plans();
    let mut cells = Vec::new();
    for (target, _) in fault_plans() {
        for (name, plan) in &slate {
            let corrupts = plan
                .rules
                .iter()
                .any(|r| matches!(r, FaultRule::Corrupt(_)));
            let (result, comm) = run_target(target, plan.clone(), &make);
            let (outcome, comm_rooted, detail) = match result {
                Ok(Ok(rounds)) => (
                    CellOutcome::Tolerated,
                    false,
                    format!("oracle-correct in {rounds} rounds"),
                ),
                Ok(Err(e)) => (
                    CellOutcome::Detected,
                    comm_rooted(e.as_ref()),
                    e.to_string(),
                ),
                Err(_) => (
                    CellOutcome::Corrupted,
                    false,
                    "checker panicked (wrong answer or crash)".to_string(),
                ),
            };
            cells.push(AdversaryCell {
                pipeline: target,
                strategy: name.clone(),
                detectable: !corrupts,
                outcome,
                comm_rooted,
                events: comm.faults_observed(),
                detail,
            });
        }
    }
    AdversaryReport { cells }
}

/// [`run_adversary_suite_on`] over plain [`Clique`]s — the CI chaos
/// job's plain leg.
pub fn run_adversary_suite() -> AdversaryReport {
    run_adversary_suite_on(Clique::new)
}
