//! The benchmark's own checks: short runs of every workload emit exactly
//! the metrics `BENCHMARK.json` lists, with their units; the exact counts
//! repeat across runs and across `Clique` and `ThreadedComm`; and the
//! timing wrapper changes nothing it observes.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`
//! (the interior-point requests are slow in a debug build).

use std::collections::BTreeSet;

use cc_model::{Clique, Communicator, TracingComm};
use e2ebench::replay::Direct;
use e2ebench::run::{run, Config, Outcome};
use e2ebench::timed::{TimedComm, ALL_PRIMS};
use e2ebench::workload::{stream, Slate, Workload};

fn config(workload: Workload, requests: usize) -> Config {
    Config {
        workload,
        seed: 7,
        requests,
    }
}

fn short(workload: Workload) -> usize {
    match workload {
        Workload::LaplacianN256 => 24,
        _ => 90,
    }
}

/// `(name, unit)` of every metric of one `BENCHMARK.json` section: the
/// file lists one metric per line.
fn listed(section: &str) -> BTreeSet<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn emitted(out: &Outcome) -> BTreeSet<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn assert_clean(out: &Outcome) {
    assert_eq!(out.failed, 0, "failures: {:?}", out.failures);
    assert!(out.attempted > 0);
}

#[test]
fn every_workload_emits_every_listed_metric_with_its_unit() {
    let (end_to_end, per_layer) = (listed("end_to_end"), listed("per_layer"));
    assert_eq!(end_to_end.len(), 7);
    for workload in Workload::ALL {
        let plain = run(&config(workload, short(workload)), false);
        assert_clean(&plain);
        assert_eq!(emitted(&plain), end_to_end, "{}", workload.name());
        assert_eq!(plain.metric("success_ratio"), Some(1.0));
        let traced = run(&config(workload, short(workload)), true);
        assert_clean(&traced);
        assert_eq!(emitted(&traced), per_layer, "{}", workload.name());
        for m in plain.metrics.iter().chain(&traced.metrics) {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
    }
}

/// The fields that are counts, not timings.
const EXACT: [&str; 6] = [
    "core.cheby_iters_per_solve",
    "ipm.solves_per_request",
    "ipm.cheby_iters_per_request",
    "ipm.template_reuse_ratio",
    "service.builds",
    "service.batched_share",
];

#[test]
fn exact_fields_repeat_across_runs_and_transports() {
    let n = short(Workload::ServiceMix);
    let runs = [
        Workload::ServiceMix,
        Workload::ServiceMix,
        Workload::ServiceMixThreaded2,
    ];
    let plain: Vec<Outcome> = runs.iter().map(|w| run(&config(*w, n), false)).collect();
    let traced: Vec<Outcome> = runs.iter().map(|w| run(&config(*w, n), true)).collect();
    for out in plain.iter().chain(&traced) {
        assert_clean(out);
    }
    let rounds = plain[0].metric("rounds_per_request").expect("emitted");
    assert!(rounds > 0.0);
    for out in &plain[1..] {
        assert_eq!(out.metric("rounds_per_request"), Some(rounds));
    }
    for name in EXACT {
        let first = traced[0].metric(name).expect("emitted");
        for out in &traced[1..] {
            assert_eq!(out.metric(name), Some(first), "{name}");
        }
    }
    assert!(traced[0].metric("ipm.solves_per_request").expect("emitted") > 0.0);
}

#[test]
fn laplacian_counts_repeat_across_runs() {
    let c = config(Workload::LaplacianN256, short(Workload::LaplacianN256));
    let (a, b) = (run(&c, true), run(&c, true));
    assert_clean(&a);
    assert_clean(&b);
    for name in [
        "core.cheby_iters_per_solve",
        "service.builds",
        "linalg.csr_matvec_flops",
    ] {
        assert_eq!(a.metric(name), b.metric(name), "{name}");
    }
    assert_eq!(a.metric("ipm.solves_per_request"), Some(0.0));
}

#[test]
fn timing_wrapper_counts_tracing_comm_words_and_changes_no_round() {
    let slate = Slate::new(Workload::ServiceMix);
    let batches: Vec<_> = stream(Workload::ServiceMix, &slate, 3, 60).collect();
    let mut bare = Direct::new(&slate);
    let mut bare_comm = TimedComm::new(Clique::new(slate.clique_n));
    let mut traced = Direct::new(&slate);
    let mut traced_comm = TimedComm::new(TracingComm::new(Clique::new(slate.clique_n)));
    for batch in &batches {
        if let Some(g) = batch.reregister {
            bare.reregister(g);
            traced.reregister(g);
        }
        let a = bare
            .submit_batch(&mut bare_comm, &batch.requests)
            .expect("clean stream");
        let b = traced
            .submit_batch(&mut traced_comm, &batch.requests)
            .expect("clean stream");
        assert_eq!(a, b);
    }
    assert_eq!(
        bare_comm.ledger().total_rounds(),
        traced_comm.ledger().total_rounds()
    );
    assert_eq!(
        bare_comm.ledger().charged_rounds(),
        traced_comm.ledger().charged_rounds()
    );
    // Calls and words per primitive, as TracingComm's event log has them.
    let mut want = std::collections::BTreeMap::new();
    for e in traced_comm.inner().events() {
        if let Some((p, _)) = ALL_PRIMS.iter().find(|(_, name)| *name == e.primitive) {
            let entry = want.entry(*p as usize).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += e.words;
        }
    }
    let mut got = std::collections::BTreeMap::new();
    for (p, _) in ALL_PRIMS {
        let total = traced_comm.prims().iter().fold((0, 0), |(c, w), row| {
            (c + row[p as usize].calls, w + row[p as usize].words)
        });
        if total.0 > 0 {
            got.insert(p as usize, total);
        }
    }
    assert!(
        got.len() >= 2,
        "the mix issues broadcasts and routes: {got:?}"
    );
    assert_eq!(got, want);
}

#[test]
fn streams_are_seeded_and_keep_the_kind_mix() {
    let slate = Slate::new(Workload::ServiceMix);
    let a: Vec<_> = stream(Workload::ServiceMix, &slate, 11, 160).collect();
    let b: Vec<_> = stream(Workload::ServiceMix, &slate, 11, 160).collect();
    let c: Vec<_> = stream(Workload::ServiceMix, &slate, 12, 160).collect();
    let flat = |s: &[e2ebench::workload::Batch]| -> Vec<cc_service::Request> {
        s.iter().flat_map(|b| b.requests.clone()).collect()
    };
    assert_eq!(flat(&a), flat(&b));
    assert_ne!(flat(&a), flat(&c));
    let kind = |r: &cc_service::Request| match r {
        cc_service::Request::LaplacianSolve { .. } => 0,
        cc_service::Request::EffectiveResistance { .. } => 1,
        cc_service::Request::MaxFlow { .. } => 2,
        cc_service::Request::MinCostFlow { .. } => 3,
        cc_service::Request::Sssp { .. } => 4,
        cc_service::Request::Apsp { .. } => 5,
    };
    for s in [&a, &c] {
        let mut counts = [0; 6];
        flat(s).iter().for_each(|r| counts[kind(r)] += 1);
        assert_eq!(counts, [60, 30, 20, 20, 20, 10]);
        for batch in s.iter() {
            let flows = batch
                .requests
                .iter()
                .filter(|r| (2..=3).contains(&kind(r)))
                .count();
            assert!(flows == 0 || batch.requests.len() == 1, "flows go solo");
            assert!((1..=4).contains(&batch.requests.len()));
        }
    }
}
