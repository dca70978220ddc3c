//! The two source rules clippy cannot express (DESIGN.md, "Source rules"),
//! as plain scans of the tree: SN213, every library crate root forbids
//! `unsafe`; SN214, every `Corrupt("…")` message names one place in the
//! workspace, so a reported corruption pins down where it was detected.

// Test code: unwrap on an unreadable tree is the desired behaviour.
#![allow(clippy::unwrap_used)]

use std::collections::HashMap;
use std::path::{Path, PathBuf};

fn workspace() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `DIR/*/src` for each crate directory under `DIR`, sorted.
fn crate_srcs(dir: &str) -> Vec<PathBuf> {
    let mut srcs: Vec<PathBuf> = std::fs::read_dir(workspace().join(dir))
        .unwrap()
        .map(|e| e.unwrap().path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    srcs.sort();
    srcs
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

#[test]
fn every_library_crate_root_forbids_unsafe_code() {
    let mut roots = vec![workspace().join("src")];
    roots.extend(crate_srcs("crates"));
    roots.extend(crate_srcs("vendor"));
    for src in roots {
        let lib = src.join("lib.rs");
        let text = std::fs::read_to_string(&lib).unwrap();
        assert!(
            text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]"),
            "SN213: {} does not carry #![forbid(unsafe_code)]",
            lib.display()
        );
    }
}

/// The message of each `Corrupt("…")` literal in `src`, in order. A call
/// rustfmt broke after the parenthesis counts; `Corrupt(format!(..))` does
/// not, having no literal to compare.
fn corrupt_messages(src: &str) -> Vec<&str> {
    src.split("Corrupt(")
        .skip(1)
        .filter_map(|rest| rest.trim_start().strip_prefix('"'))
        .filter_map(|lit| lit.find('"').map(|end| &lit[..end]))
        .collect()
}

/// `src` up to its `#[cfg(test)]` module: what a file's unit tests
/// construct is not a production message.
fn before_test_module(src: &str) -> &str {
    src.match_indices("#[cfg(test)]")
        .find(|&(at, attr)| {
            let item = src[at + attr.len()..].trim_start();
            item.starts_with("mod ") || item.starts_with("pub(crate) mod ")
        })
        .map_or(src, |(at, _)| &src[..at])
}

#[test]
fn corrupt_messages_are_unique_across_the_workspace() {
    let mut files = Vec::new();
    for src in crate_srcs("crates") {
        rs_files(&src, &mut files);
    }
    let mut first_seen: HashMap<String, PathBuf> = HashMap::new();
    let mut duplicates = Vec::new();
    let mut messages = 0;
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        for msg in corrupt_messages(before_test_module(&text)) {
            messages += 1;
            let at = file.strip_prefix(workspace()).unwrap().to_path_buf();
            if let Some(first) = first_seen.get(msg) {
                duplicates.push(format!(
                    "{msg:?} in {} (first in {})",
                    at.display(),
                    first.display()
                ));
            } else {
                first_seen.insert(msg.to_string(), at);
            }
        }
    }
    assert!(messages > 50, "found only {messages} Corrupt messages");
    assert!(
        duplicates.is_empty(),
        "SN214: duplicate Corrupt messages:\n{}",
        duplicates.join("\n")
    );
}

#[test]
fn the_scan_reads_broken_calls_and_stops_at_the_test_module() {
    let src =
        "Err(E::Corrupt(\"a\"))\nErr(E::Corrupt(\n    \"b c\",\n))\nE::Corrupt(format!(\"{x}\"))";
    assert_eq!(corrupt_messages(src), ["a", "b c"]);
    let src = "#[cfg(test)]\nimpl S {}\nCorrupt(\"x\")\n#[cfg(test)]\nmod tests {}";
    assert!(before_test_module(src).ends_with("Corrupt(\"x\")\n"));
}
