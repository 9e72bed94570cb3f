//! The public surface is the used surface.
//!
//! A `pub` method of an exported type never trips `dead_code`, so the
//! compiler cannot tell when one loses its last caller. This test can, by
//! text: every `pub fn NAME` in a library crate (`crates/*/src`) must be
//! named, as a whole word, by some other `.rs` file under `crates`, `src`,
//! `tests`, `examples` or `simbench/src`. Another crate, a binary, an
//! integration test, an example or the benchmark counts as a user; the
//! item's own file (its unit tests and doctest) does not. A name that only
//! its own file uses belongs in `pub(crate)` or nowhere.
//!
//! The scan is by word, so a name shared with any other item (`new`,
//! `total`) always passes: it catches unused names, not every unused
//! item. The benchmark's probe API (`drive_with`, `DriveHooks`,
//! `PhasePricer::single`) passes because `simbench/src` calls it; it goes
//! with the benchmark's move to the production loops' own counts.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// `pub fn` names that no other file names, each with why it stays public.
const ALLOWLIST: &[(&str, &str)] = &[
    (
        "write_fmt",
        "`Stdout::write_fmt` is called by the expansion of `write!`",
    ),
    (
        "as_nanos",
        "`Seconds::as_nanos` is called by the `Cycles` doctest, a doctest on another item",
    ),
];

/// Directories whose `.rs` files count as users, relative to the root.
const USER_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "simbench/src"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every identifier-like word in `text`.
fn words(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// The `NAME` of a line declaring `pub fn NAME` (with any of `const`,
/// `unsafe` or `async` between), if it is one.
fn pub_fn_name(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("pub ")?.trim_start();
    for qualifier in ["const ", "unsafe ", "async "] {
        if let Some(r) = rest.strip_prefix(qualifier) {
            rest = r.trim_start();
        }
    }
    let rest = rest.strip_prefix("fn ")?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// Whether `path` (relative to the root) is library source: `crates/*/src`.
fn is_library_source(rel: &Path) -> bool {
    let mut parts = rel.components().map(|c| c.as_os_str());
    parts.next().is_some_and(|p| p == "crates")
        && parts.next().is_some()
        && parts.next().is_some_and(|p| p == "src")
}

#[test]
fn every_pub_fn_has_a_user_outside_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in USER_ROOTS {
        rust_files(&root.join(dir), &mut files);
    }
    // This file names the allowlisted functions; it is not their user.
    let this_file = Path::new(file!());
    let texts: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(root).expect("under the root").to_owned();
            (rel, path)
        })
        .filter(|(rel, _)| rel != this_file)
        .map(|(rel, path)| {
            let text = fs::read_to_string(&path).expect("readable source file");
            (rel, text)
        })
        .collect();
    assert!(
        texts.iter().any(|(rel, _)| is_library_source(rel)),
        "found no library source under {}",
        root.display()
    );

    // name -> the files that declare it `pub fn`.
    let mut declared: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (i, (rel, text)) in texts.iter().enumerate() {
        if is_library_source(rel) {
            for name in text.lines().filter_map(pub_fn_name) {
                declared.entry(name).or_default().insert(i);
            }
        }
    }
    let words: Vec<BTreeSet<&str>> = texts.iter().map(|(_, text)| words(text)).collect();
    let unused: BTreeMap<&str, &BTreeSet<usize>> = declared
        .iter()
        .filter(|(name, defs)| {
            !words
                .iter()
                .enumerate()
                .any(|(i, w)| !defs.contains(&i) && w.contains(*name))
        })
        .map(|(name, defs)| (*name, defs))
        .collect();

    let allowed: BTreeSet<&str> = ALLOWLIST.iter().map(|(name, _)| *name).collect();
    let mut problems = Vec::new();
    for (name, defs) in &unused {
        if !allowed.contains(name) {
            let files: Vec<String> = defs
                .iter()
                .map(|&i| texts[i].0.display().to_string())
                .collect();
            problems.push(format!(
                "`pub fn {name}` ({}) is named by no other file: narrow it to \
                 `pub(crate)` or delete it",
                files.join(", ")
            ));
        }
    }
    for (name, _) in ALLOWLIST {
        if !unused.contains_key(name) {
            problems.push(format!(
                "allowlist entry `{name}` is stale: no unused `pub fn {name}` remains"
            ));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn pub_fn_names_are_parsed_from_declarations_only() {
    assert_eq!(
        pub_fn_name("    pub fn total(&self) -> u64 {"),
        Some("total")
    );
    assert_eq!(
        pub_fn_name("pub const fn new(x: u64) -> Self {"),
        Some("new")
    );
    assert_eq!(pub_fn_name("    pub(crate) fn hidden() {}"), None);
    assert_eq!(pub_fn_name("    fn private() {}"), None);
    assert_eq!(pub_fn_name("    pub struct NotAFunction;"), None);
    assert_eq!(pub_fn_name("/// pub fn in_a_comment()"), None);
}
