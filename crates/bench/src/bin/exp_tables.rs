//! Regenerates the experiment tables of `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run -p cc-bench --release --bin exp_tables            # all
//! cargo run -p cc-bench --release --bin exp_tables -- e1 e4   # selected
//! cargo run -p cc-bench --release --bin exp_tables -- --check EXPERIMENTS.md
//! ```
//!
//! `--check <path>` regenerates every table and compares it line by line
//! with the block under the same `## ` title in `<path>`; it exits
//! non-zero at the first differing row. The tables hold only
//! deterministic quantities (rounds, iteration counts, certified factors,
//! verdicts), so the check holds at any thread count.

use cc_bench::*;

type Experiment = (&'static str, fn() -> Table);

const EXPERIMENTS: [Experiment; 11] = [
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let path = args.get(1).map_or("EXPERIMENTS.md", String::as_str);
        std::process::exit(check(path));
    }
    let args: Vec<String> = args.iter().map(|a| a.to_lowercase()).collect();
    let all = args.is_empty();
    let want = |k: &str| all || args.iter().any(|a| a == k);
    for (key, run) in EXPERIMENTS {
        if want(key) {
            eprintln!("running {key}…");
            println!("{}\n", run());
        }
    }
}

/// Compares every regenerated table with the committed document; returns
/// the process exit code.
fn check(path: &str) -> i32 {
    let doc = match std::fs::read_to_string(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let doc_lines: Vec<&str> = doc.lines().collect();
    for (key, run) in EXPERIMENTS {
        let rendered = run().render();
        let lines: Vec<&str> = rendered.lines().collect();
        let Some(start) = doc_lines.iter().position(|l| *l == lines[0]) else {
            eprintln!("{key}: table {:?} not found in {path}", lines[0]);
            return 1;
        };
        for (i, want) in lines.iter().enumerate() {
            let got = doc_lines.get(start + i).copied().unwrap_or("<end of file>");
            if got != *want {
                eprintln!(
                    "{key}: {path} line {} differs\n  committed: {got}\n  generated: {want}",
                    start + i + 1
                );
                return 1;
            }
        }
        // The committed block must end where the generated one does.
        if let Some(extra) = doc_lines
            .get(start + lines.len())
            .filter(|l| !l.trim().is_empty())
        {
            eprintln!(
                "{key}: {path} line {} is an extra row: {extra}",
                start + lines.len() + 1
            );
            return 1;
        }
        eprintln!("{key}: {} rows match", lines.len() - 3);
    }
    0
}
