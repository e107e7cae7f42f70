//! One declaration per metric name: no two metric statics in the workspace
//! may declare the same name, or a trace and a `/metrics` scrape could
//! report two different things under it. Scans every Rust source file of
//! the workspace for `Counter`, `Histogram` and `Gauge` constructors whose
//! name is a string literal (comment lines, where doc examples live, are
//! skipped).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const CONSTRUCTORS: [&str; 5] = [
    "Counter::new(",
    "Counter::with_slice_ns(",
    "Histogram::new(",
    "Histogram::with_slice_ns(",
    "Gauge::new(",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Metric names declared in `text`, one per constructor call with a
/// string-literal name (the literal may start on the next line). Names
/// are dotted identifiers, which also skips this file's own pattern
/// strings.
fn declared_names(text: &str) -> Vec<String> {
    let code: String = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    let mut names = Vec::new();
    for ctor in CONSTRUCTORS {
        for (at, _) in code.match_indices(ctor) {
            let args = code[at + ctor.len()..].trim_start();
            if let Some(lit) = args.strip_prefix('"') {
                let name = &lit[..lit.find('"').unwrap_or(0)];
                let is_name = |c: char| c.is_ascii_alphanumeric() || c == '.' || c == '_';
                if !name.is_empty() && name.chars().all(is_name) {
                    names.push(name.to_string());
                }
            }
        }
    }
    names
}

#[test]
fn declared_names_parse_constructor_literals() {
    let text = "static A: Counter = Counter::new(\"a.x\");\n\
                // static B: Counter = Counter::new(\"commented\");\n\
                static C: em_obs::Histogram =\n    em_obs::Histogram::with_slice_ns(\n        \"c.y\", 5);\n\
                static D: LogHistogram = LogHistogram::new();\n";
    assert_eq!(declared_names(text), vec!["a.x", "c.y"]);
}

#[test]
fn every_metric_name_is_declared_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    assert!(
        files
            .iter()
            .any(|f| f.ends_with("crates/serve/src/matcher.rs")),
        "workspace sources not found under {}",
        root.display()
    );
    let mut seen: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        let shown = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .display()
            .to_string();
        for name in declared_names(&text) {
            seen.entry(name).or_default().push(shown.clone());
        }
    }
    let dups: Vec<String> = seen
        .iter()
        .filter(|(_, at)| at.len() > 1)
        .map(|(name, at)| format!("{name}: {}", at.join(", ")))
        .collect();
    assert!(
        dups.is_empty(),
        "metric names declared more than once:\n{}",
        dups.join("\n")
    );
}
