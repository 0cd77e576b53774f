//! Every `pub fn` of a library crate (`src/` of the root package and of
//! each crate under `crates/`) is used outside its own file: its name
//! appears as a word in at least one other `.rs` file of the repository,
//! `e2ebench/` included. A public function that no other file names is
//! dead surface. Delete it, or make it private when its own file calls
//! it; tests go only with the code they test.
//!
//! The check is conservative: a word match in a comment, a doc or an
//! unrelated identifier of the same name counts as a use. A dead function
//! with a common name (`new`, `len`) therefore passes, but every failure
//! is a real finding. The exceptions are listed in [`ALLOWED`], each with
//! its reason.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// `(file, function, reason)`: public functions kept although no other
/// file names them.
const ALLOWED: &[(&str, &str, &str)] = &[
    (
        "crates/proptest/src/lib.rs",
        "for_property",
        "called by the `proptest!` macro's expansion in the test files",
    ),
    (
        "crates/proptest/src/lib.rs",
        "regression_cases",
        "called by the `proptest!` macro's expansion in the test files",
    ),
    (
        "crates/proptest/src/lib.rs",
        "disarm",
        "called by the `proptest!` macro's expansion in the test files",
    ),
];

/// Every `.rs` file under `dir`, keyed by its path relative to `root`
/// (`/`-separated), skipping build output and hidden directories.
fn collect(root: &Path, dir: &Path, out: &mut BTreeMap<String, String>) {
    for entry in fs::read_dir(dir).expect("directory is readable") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap().to_string_lossy();
            let text = fs::read_to_string(&path).expect("source is readable");
            out.insert(rel.replace('\\', "/"), text);
        }
    }
}

fn words(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

fn is_library(path: &str) -> bool {
    let in_src = path.starts_with("src/")
        || (path.starts_with("crates/") && path.split('/').nth(2) == Some("src"));
    in_src && !path.contains("/bin/")
}

#[test]
fn every_public_library_function_is_named_in_another_file() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut files = BTreeMap::new();
    collect(root, root, &mut files);
    assert!(
        files.keys().any(|f| f.starts_with("e2ebench/")),
        "the scan reaches e2ebench/"
    );
    // This file names the allowlisted functions, so it is no use of them.
    let vocabulary: BTreeMap<&str, BTreeSet<&str>> = files
        .iter()
        .filter(|(path, _)| path.as_str() != "crates/bench/tests/dead_surface.rs")
        .map(|(path, text)| (path.as_str(), words(text)))
        .collect();

    let mut unused = BTreeSet::new();
    for (path, text) in files.iter().filter(|(path, _)| is_library(path)) {
        for line in text.lines() {
            let Some(rest) = line.trim_start().strip_prefix("pub fn ") else {
                continue;
            };
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                continue; // a macro's `pub fn $name`
            }
            let named_elsewhere = vocabulary
                .iter()
                .any(|(other, words)| other != path && words.contains(name.as_str()));
            if !named_elsewhere {
                unused.insert((path.clone(), name));
            }
        }
    }

    let allowed: BTreeSet<(String, String)> = ALLOWED
        .iter()
        .map(|&(file, name, _)| (file.to_string(), name.to_string()))
        .collect();
    let dead: Vec<_> = unused.difference(&allowed).collect();
    assert!(
        dead.is_empty(),
        "public functions no other file names (delete them, or make them private): {dead:?}"
    );
    let stale: Vec<_> = allowed.difference(&unused).collect();
    assert!(
        stale.is_empty(),
        "allowlisted functions that are gone or now used elsewhere: {stale:?}"
    );
}
