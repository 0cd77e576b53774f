//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a record line (host, seed, sample counts, fingerprints), then
//! the result line `{"correct", "attempted", "failed", "metrics"}` last.
//! Exits 1 on any failed request, oracle mismatch or broken equality,
//! and 2 on bad arguments.

use std::process::ExitCode;

use e2ebench::run::{run, Config};
use e2ebench::stats::{json_num, json_str, result_json};
use e2ebench::workload::Workload;
use e2ebench::HELDOUT_SEED;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: usize,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 10, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let config = Config {
        workload: args.workload,
        seed: args.seed,
        requests: (args.seconds * args.workload.requests_per_second()).max(1),
    };
    let outcome = run(&config, args.trace);

    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut record = vec![
        ("workload".to_string(), json_str(args.workload.name())),
        ("seed".into(), args.seed.to_string()),
        ("heldout_seed".into(), HELDOUT_SEED.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), args.trace.to_string()),
        ("commit".into(), json_str(&git_commit())),
        ("profile".into(), json_str(profile)),
        (
            "failed_ratio".into(),
            json_num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
    ];
    record.extend(outcome.record.iter().cloned());
    let fields: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"record\": {{{}}}}}", fields.join(", "));
    for f in &outcome.failures {
        eprintln!("e2ebench: FAILED: {f}");
    }
    let correct = outcome.failed == 0;
    println!(
        "{}",
        result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
