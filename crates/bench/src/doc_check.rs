//! The experiments of `EXPERIMENTS.md` and the check that its committed
//! tables are what the code generates.
//!
//! The tables hold only deterministic quantities (rounds, iteration
//! counts, certified factors, verdicts), so the check holds at any thread
//! count and in any build profile.

use crate::experiments::*;
use crate::Table;

/// An experiment's key (`"e1"`, …) and the function that builds its
/// table.
pub type Experiment = (&'static str, fn() -> Table);

/// Every experiment with a table in `EXPERIMENTS.md`, in document order.
pub const EXPERIMENTS: [Experiment; 11] = [
    ("e1", e1_laplacian),
    ("e1b", e1b_solver_ablation),
    ("e2", e2_sparsifier),
    ("e2b", e2b_sparsifier_ablation),
    ("e3", e3_chebyshev),
    ("e4", e4_euler),
    ("e4b", e4b_orientation_ablation),
    ("e5", e5_rounding),
    ("e6", e6_maxflow),
    ("e7", e7_mcf),
    ("e8", e8_comparison),
];

/// Regenerates every table of [`EXPERIMENTS`] and compares it line by
/// line with the block under the same `## ` title in `doc`, stopping at
/// the first difference. `on_match(key, rows)` is called after each table
/// that matches.
///
/// # Errors
///
/// A message naming the experiment and the 1-based line of `doc` where
/// the committed table is missing, differs or has an extra row.
pub fn check_doc(doc: &str, mut on_match: impl FnMut(&str, usize)) -> Result<(), String> {
    let doc_lines: Vec<&str> = doc.lines().collect();
    for (key, run) in EXPERIMENTS {
        let rendered = run().render();
        let lines: Vec<&str> = rendered.lines().collect();
        let Some(start) = doc_lines.iter().position(|l| *l == lines[0]) else {
            return Err(format!("{key}: table {:?} not found", lines[0]));
        };
        for (i, want) in lines.iter().enumerate() {
            let got = doc_lines.get(start + i).copied().unwrap_or("<end of file>");
            if got != *want {
                return Err(format!(
                    "{key}: line {} differs\n  committed: {got}\n  generated: {want}",
                    start + i + 1
                ));
            }
        }
        // The committed block must end where the generated one does.
        if let Some(extra) = doc_lines
            .get(start + lines.len())
            .filter(|l| !l.trim().is_empty())
        {
            return Err(format!(
                "{key}: line {} is an extra row: {extra}",
                start + lines.len() + 1
            ));
        }
        on_match(key, lines.len() - 3);
    }
    Ok(())
}
