//! The `bench_snapshot --check` drift gate, exercised on the committed
//! `BENCH_baseline.json` without recomputing any section: the document
//! round-trips through the JSON reader and writer, every deterministic
//! field is compared (per-phase congestion, service counters, IPM
//! progress steps and engine stats alike), host
//! measurements never are, and a missing row or section fails.

use cc_bench::json::{drift, Json, Row};

fn baseline() -> Json {
    let text = include_str!("../../../BENCH_baseline.json");
    Json::parse(text).expect("the committed baseline parses")
}

/// The row of the row list `rows` whose key field `key` is `value`.
fn row<'a>(rows: &'a mut Json, key: &str, value: &str) -> &'a mut Json {
    let Json::Arr(rows) = rows else {
        panic!("not a row list")
    };
    let want = Json::Str(value.into());
    rows.iter_mut()
        .find(|r| r.get(key) == Some(&want))
        .expect("row present")
}

fn field<'a>(v: &'a mut Json, name: &str) -> &'a mut Json {
    v.get_mut(name).expect("field present")
}

/// The drift messages after `mutate` edits a copy of the baseline that
/// stands in for a recomputed snapshot.
fn drift_after(mutate: impl FnOnce(&mut Json)) -> Vec<String> {
    let want = baseline();
    let mut got = want.clone();
    mutate(&mut got);
    drift(&want, &got)
}

#[test]
fn committed_baseline_round_trips() {
    let doc = baseline();
    assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    assert!(drift(&doc, &doc).is_empty());
    for section in ["large", "ipm", "congestion", "service"] {
        assert!(doc.get(section).is_some(), "{section}");
    }
    for section in ["threaded", "adversary", "broadcast", "large_determinism"] {
        assert!(doc.get(section).is_some(), "{section}");
    }
}

#[test]
fn nested_and_counter_fields_are_gated() {
    let words = drift_after(|doc| {
        let workload = row(
            field(doc, "congestion"),
            "workload",
            "laplacian_solve/expander_32",
        );
        let phases = field(field(workload, "stats"), "phases");
        *field(row(phases, "phase", "sparsify"), "words") = Json::Num("65".into());
    });
    assert_eq!(
        words,
        [
            "congestion[workload=laplacian_solve/expander_32].stats.phases[phase=sparsify].words: \
          baseline 64 != current 65"
        ]
    );

    let builds = drift_after(|doc| *field(field(doc, "service"), "builds") = 12u64.into());
    assert_eq!(builds, ["service.builds: baseline 11 != current 12"]);

    let steps = drift_after(|doc| {
        let instance = row(
            field(doc, "ipm"),
            "instance",
            "mcf/bipartite_assignment_4_seed7",
        );
        *field(instance, "progress_steps") = 19u64.into();
    });
    assert_eq!(
        steps,
        ["ipm[instance=mcf/bipartite_assignment_4_seed7].progress_steps: baseline 18 != current 19"]
    );
}

#[test]
fn host_fields_are_ignored() {
    let drifted = drift_after(|doc| {
        let Json::Arr(rows) = field(doc, "threaded") else {
            panic!("threaded is a row list")
        };
        rows.iter_mut()
            .for_each(|r| *field(r, "wall_ns") = 1u64.into());
        let service = field(doc, "service");
        *field(service, "requests_per_sec") = 1u64.into();
        *field(service, "wall_ms") = Json::fixed(0.5, 1);
    });
    assert!(drifted.is_empty(), "{drifted:?}");
}

#[test]
fn missing_rows_and_sections_fail() {
    let key = "instance=maxflow/random_flow_network_8_seed5";
    let drop_row = |doc: &mut Json| {
        let Json::Arr(rows) = field(doc, "ipm") else {
            panic!("ipm is a row list")
        };
        rows.remove(0);
    };
    let from_current = drift_after(drop_row);
    assert!(!from_current.is_empty());
    assert!(from_current
        .iter()
        .all(|d| d.starts_with(&format!("ipm[{key}]."))
            && d.ends_with("missing from the current run")));

    let (mut want, got) = (baseline(), baseline());
    drop_row(&mut want);
    let from_baseline = drift(&want, &got);
    assert!(!from_baseline.is_empty());
    assert!(from_baseline
        .iter()
        .all(|d| d.ends_with("missing from the baseline")));

    let Json::Obj(sections) = &mut want else {
        panic!("the document is an object")
    };
    sections.retain(|(name, _)| name != "service");
    assert!(drift(&want, &got).contains(&"service: section missing from the baseline".to_string()));
}

#[test]
fn a_duplicated_row_fails() {
    let drifted = drift_after(|doc| {
        let Json::Arr(rows) = field(doc, "threaded") else {
            panic!("threaded is a row list")
        };
        rows.push(rows[0].clone());
    });
    let key = "threaded[bench=threaded_route_exchange n=256 workers=1 #1]";
    assert!(!drifted.is_empty());
    assert!(drifted
        .iter()
        .all(|d| d.starts_with(key) && d.ends_with("missing from the baseline")));
}

#[test]
fn malformed_documents_are_rejected() {
    for text in [
        "",
        "{",
        "[1, 2",
        "{\"a\" 1}",
        "{\"a\": 1,}",
        "nul",
        "\"open",
        "{} x",
    ] {
        assert!(Json::parse(text).is_err(), "{text:?}");
    }
    let escaped = Json::Str("a\"b\\c\nd\u{1}".into());
    assert_eq!(Json::parse(&escaped.to_string()).unwrap(), escaped);
}

#[test]
#[should_panic(expected = "wrong role")]
fn rows_reject_a_host_field_declared_deterministic() {
    let _ = Row::default().det("wall_ns", 1u64);
}
