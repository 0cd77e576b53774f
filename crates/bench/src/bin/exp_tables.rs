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
//! verdicts), so the check holds on any host.

use cc_bench::{check_doc, EXPERIMENTS};

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
    match check_doc(&doc, |key, rows| eprintln!("{key}: {rows} rows match")) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{path}: {e}");
            1
        }
    }
}
