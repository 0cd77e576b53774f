//! The E1–E8 tables committed in `EXPERIMENTS.md` are exactly what the
//! experiments generate (the same comparison as `exp_tables --check`).
//! E4, E4b and E5–E7 count orientation and rounding rounds, so a change
//! to the routed steps that moved a paper table fails here.

#[test]
fn experiments_doc_tables_match_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let mut checked = Vec::new();
    if let Err(e) = cc_bench::check_doc(&doc, |key, _| checked.push(key.to_string())) {
        panic!("EXPERIMENTS.md drifted from the experiments: {e}");
    }
    assert_eq!(checked.len(), cc_bench::EXPERIMENTS.len());
}
