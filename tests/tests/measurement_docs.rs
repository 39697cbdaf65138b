//! Consistency guards between the prose and the measuring sticks.
//!
//! The repository has two: `benchmark/` (declared by `BENCHMARK.json`,
//! recorded in `BENCH_ledger.json`) for performance, and the
//! `experiments` binary for the paper's claims. Nothing ties a document
//! that quotes one of their rows to the row's existence, so:
//!
//! 1. every backticked `layer.metric` name in README.md, EXPERIMENTS.md,
//!    DESIGN.md and `docs/*.md` is a name `BENCHMARK.json` declares;
//! 2. every `--only eN` they quote is a row the `experiments` binary
//!    runs (`true` in its `EXPERIMENTS` table, starred by `--list`);
//! 3. none of them points at the bench stack those two replaced;
//! 4. `scripts/bench_ledger.sh check` accepts the committed ledger and
//!    rejects a copy with one metric missing.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const EXPERIMENTS_RS: &str = include_str!("../../crates/diaspec-bench/src/bin/experiments.rs");

/// What a reader can no longer run or open. Escaped, so that a search of
/// the tree for these words finds history (CHANGES.md, ROADMAP.md) only.
const RETIRED: [&str; 3] = [
    "cargo\u{20}bench",
    "criteri\u{6f}n",
    "bench_output\u{2e}txt",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// README.md, EXPERIMENTS.md, DESIGN.md and every `docs/*.md`, as
/// (repo-relative name, text). CHANGES.md and ROADMAP.md are history.
fn documents() -> Vec<(String, String)> {
    let root = repo_root();
    let mut names: Vec<String> = ["README.md", "EXPERIMENTS.md", "DESIGN.md"]
        .map(str::to_owned)
        .to_vec();
    let mut docs: Vec<String> = std::fs::read_dir(root.join("docs"))
        .expect("docs/ exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".md"))
        .map(|name| format!("docs/{name}"))
        .collect();
    docs.sort();
    names.extend(docs);
    names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(root.join(&name)).expect("document readable");
            (name, text)
        })
        .collect()
}

/// The `name`s of one array of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<String> {
    let bench: serde_json::Value = serde_json::from_str(BENCHMARK_JSON).expect("valid JSON");
    bench[section]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json has `{section}`"))
        .iter()
        .map(|entry| entry["name"].as_str().expect("named").to_owned())
        .collect()
}

/// The text between each pair of backticks on one line.
fn backticked(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .flat_map(|line| line.split('`').skip(1).step_by(2))
}

/// `a.{x,y}_ms` → `a.x_ms`, `a.y_ms`; anything without braces is itself.
fn expand_braces(token: &str) -> Vec<String> {
    match (token.find('{'), token.find('}')) {
        (Some(open), Some(close)) if open < close => token[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{}{}", &token[..open], alt.trim(), &token[close + 1..]))
            .collect(),
        _ => vec![token.to_owned()],
    }
}

fn is_word(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

#[test]
fn quoted_ledger_rows_exist_in_benchmark_json() {
    let per_layer = declared("per_layer");
    let layers: BTreeSet<&str> = per_layer
        .iter()
        .map(|name| name.split('.').next().unwrap())
        .collect();
    // `engine.rs`, `check.rs`, `parser.rs` … are files, not rows.
    let file_extensions = ["rs", "md", "toml", "json", "sh", "spec", "txt", "yml"];
    let mut quoted = 0usize;
    let mut unknown = Vec::new();
    for (doc, text) in documents() {
        for token in backticked(&text).flat_map(expand_braces) {
            let Some((layer, metric)) = token.split_once('.') else {
                continue;
            };
            if !layers.contains(layer) || !is_word(metric) || file_extensions.contains(&metric) {
                continue;
            }
            quoted += 1;
            if !per_layer.contains(&token) {
                unknown.push(format!("{doc}: `{token}`"));
            }
        }
    }
    assert!(
        quoted >= 20,
        "only {quoted} ledger rows recognised — did the documents stop quoting them, \
         or the tokenizer stop seeing them?"
    );
    assert!(
        unknown.is_empty(),
        "quoted as per-layer rows but not declared in BENCHMARK.json: {unknown:#?}"
    );
}

#[test]
fn the_bench_mapping_names_declared_workloads_and_end_to_end_metrics() {
    // The one place the documents promise "this row regenerates that
    // number": every backticked name in the mapping table's last column
    // must be declared somewhere in BENCHMARK.json, or be an
    // `experiments` invocation (checked by the next test).
    let mut names = declared("per_layer");
    names.extend(declared("end_to_end"));
    names.extend(declared("workloads"));
    let (_, experiments_md) = documents()
        .into_iter()
        .find(|(name, _)| name == "EXPERIMENTS.md")
        .unwrap();
    let table: Vec<&str> = experiments_md
        .lines()
        .skip_while(|line| !line.starts_with("| retired bench target"))
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .collect();
    assert_eq!(
        table.len(),
        7,
        "one mapping row per retired target: {table:#?}"
    );
    for row in table {
        let regenerated_by = row.split('|').nth(3).expect("three columns");
        for token in backticked(regenerated_by).flat_map(expand_braces) {
            if token.starts_with("--only ") || token.ends_with(".rs") {
                continue;
            }
            assert!(names.contains(&token), "mapping row names `{token}`: {row}");
        }
    }
}

#[test]
fn quoted_experiment_ids_are_runnable() {
    // Rows of the binary's index: `("e10", "summary", true),`.
    let runnable: BTreeSet<&str> = EXPERIMENTS_RS
        .lines()
        .filter_map(|line| {
            let row = line.trim().strip_prefix("(\"")?;
            let (id, rest) = row.split_once('"')?;
            rest.trim_end().ends_with("true),").then_some(id)
        })
        .collect();
    assert!(
        runnable.contains("e10") && !runnable.contains("e13"),
        "{runnable:?}"
    );
    let mut quoted = 0usize;
    for (doc, text) in documents() {
        for (at, _) in text.match_indices("--only ") {
            let id: String = text[at + "--only ".len()..]
                .chars()
                .take_while(char::is_ascii_alphanumeric)
                .collect();
            // `--only <id>` and `--only eN`/`eNN` are the usage text.
            if id.is_empty() || id == "eN" || id == "eNN" {
                continue;
            }
            quoted += 1;
            assert!(
                runnable.contains(id.as_str()),
                "{doc} quotes `--only {id}`, which `experiments` does not run \
                 (runnable: {runnable:?})"
            );
        }
    }
    assert!(quoted >= 10, "only {quoted} `--only` quotes recognised");
}

#[test]
fn no_document_points_at_the_retired_bench_stack() {
    for (doc, text) in documents() {
        let lower = text.to_lowercase();
        for needle in RETIRED {
            assert!(
                !lower.contains(needle),
                "{doc} mentions `{needle}`: that stack is gone — point at a \
                 BENCHMARK.json row or an `experiments --only eN` row instead"
            );
        }
    }
}

fn ledger_check(file: &Path) -> std::process::Output {
    Command::new("bash")
        .arg(repo_root().join("scripts/bench_ledger.sh"))
        .arg("check")
        .arg(file)
        .output()
        .expect("bash runs")
}

#[test]
fn ledger_check_accepts_the_record_and_rejects_a_missing_metric() {
    if Command::new("jq").arg("--version").output().is_err() {
        eprintln!("skipped: scripts/bench_ledger.sh needs jq");
        return;
    }
    let committed = repo_root().join("BENCH_ledger.json");
    let ok = ledger_check(&committed);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );

    // jq pretty-prints one member a line; drop the first row's first
    // `wire.bytes_per_call` (event_chain's — not the last member of its
    // object, so the copy stays valid JSON).
    let text = std::fs::read_to_string(&committed).unwrap();
    let doomed = text
        .lines()
        .find(|line| line.contains("\"wire.bytes_per_call\":"))
        .expect("the ledger records wire.bytes_per_call");
    let ledger = text.replacen(&format!("{doomed}\n"), "", 1);
    assert_ne!(ledger, text);
    let copy = std::env::temp_dir().join(format!("diaspec_ledger_{}.json", std::process::id()));
    std::fs::write(&copy, ledger).unwrap();
    let rejected = ledger_check(&copy);
    let _ = std::fs::remove_file(&copy);
    assert_eq!(rejected.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&rejected.stderr);
    assert!(
        stderr.contains("row 1 event_chain: per_layer lacks `wire.bytes_per_call`"),
        "{stderr}"
    );
}
