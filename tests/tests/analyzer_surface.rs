//! One golden for the whole static-analysis surface.
//!
//! For every `.spec` under `specs/` (bundled designs, lint fixtures, the
//! taxonomy and each half of a cross-design pair) the golden records the
//! human and JSON lint output with the capacity report, the functional
//! chains, the DOT view and the §VI requirements estimate. Every pair
//! under `specs/lint/cross/` is linted together, with its manifests when
//! it has them, and `parking.spec` is split by `plan_deployment`. The
//! §VI section lints `parking.spec` and `capacity_overload.spec` against
//! infrastructure descriptions (`lint --match`), one human section a run. A
//! refactor of any analyzer pass that moves one byte of what a user can
//! see shows up as a diff of `tests/goldens/analyzer_surface.txt`.
//! Re-bless with `UPDATE_GOLDENS=1`, only for a change that is meant to
//! move the output.

use diaspec_codegen::deploy::{plan_deployment, DeployOptions, NodeManifest};
use diaspec_codegen::dot::generate_dot;
use diaspec_codegen::lint::{lint_designs, LintFormat, LintOptions};
use diaspec_core::analysis::CountSource;
use diaspec_core::chains::functional_chains;
use diaspec_core::compile_str;
use diaspec_core::requirements::{estimate, Infrastructure};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Every file under `dir` (relative to the repo) ending in `suffix`, as
/// sorted repo-relative paths.
fn files(dir: &str, suffix: &str) -> Vec<String> {
    fn walk(root: &Path, rel: &str, suffix: &str, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(root.join(rel)).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            let child = format!("{rel}/{name}");
            if root.join(&child).is_dir() {
                walk(root, &child, suffix, out);
            } else if name.ends_with(suffix) {
                out.push(child);
            }
        }
    }
    let mut out = Vec::new();
    walk(&repo(), dir, suffix, &mut out);
    out.sort();
    out
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo().join(rel)).unwrap()
}

/// The human and JSON lint output of one run, with `--capacity`.
fn lint(out: &mut String, inputs: &[(String, String)], manifests: &[(String, NodeManifest)]) {
    for (label, format) in [("human", LintFormat::Human), ("json", LintFormat::Json)] {
        let options = LintOptions {
            format,
            capacity: true,
            ..LintOptions::default()
        };
        let outcome = lint_designs(inputs, manifests, &options).unwrap();
        let _ = writeln!(out, "--- lint {label} --capacity");
        out.push_str(&outcome.rendered);
        if !outcome.rendered.ends_with('\n') {
            out.push('\n');
        }
    }
}

fn surface() -> String {
    let mut out = String::new();
    for rel in files("specs", ".spec") {
        let source = read(&rel);
        let _ = writeln!(out, "=== {rel}");
        lint(&mut out, &[(rel.clone(), source.clone())], &[]);
        let spec = match compile_str(&source) {
            Ok(spec) => spec,
            Err(err) => {
                let _ = writeln!(out, "--- does not compile alone\n{err}");
                continue;
            }
        };
        let _ = writeln!(out, "--- functional_chains");
        for chain in functional_chains(&spec) {
            let _ = writeln!(out, "{chain}");
        }
        let _ = writeln!(out, "--- generate_dot");
        out.push_str(&generate_dot(&spec, &rel));
        let _ = writeln!(out, "--- requirements::estimate");
        let _ = writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&estimate(&spec)).unwrap()
        );
    }
    for first in files("specs/lint/cross", "_a.spec") {
        let pair = first.trim_end_matches("_a.spec");
        let _ = writeln!(out, "=== pair {pair}");
        let inputs: Vec<(String, String)> = ["a", "b"]
            .iter()
            .map(|side| {
                let rel = format!("{pair}_{side}.spec");
                let source = read(&rel);
                (rel, source)
            })
            .collect();
        let manifests: Vec<(String, NodeManifest)> = ["a", "b"]
            .iter()
            .map(|side| format!("{pair}_{side}.manifest.json"))
            .filter(|rel| repo().join(rel).exists())
            .map(|rel| {
                let manifest = NodeManifest::from_json(&read(&rel)).unwrap();
                (rel, manifest)
            })
            .collect();
        lint(&mut out, &inputs, &manifests);
    }
    let parking = compile_str(&read("specs/parking.spec")).unwrap();
    for edges in [1, 2] {
        let _ = writeln!(
            out,
            "=== plan_deployment specs/parking.spec, {edges} edge(s)"
        );
        let options = DeployOptions {
            design: "parking".to_owned(),
            edges,
            ..DeployOptions::default()
        };
        match plan_deployment(&parking, &options) {
            Ok(deployment) => {
                out.push_str(&deployment.manifest.to_json());
                out.push('\n');
                for warning in &deployment.warnings {
                    let _ = writeln!(out, "{warning}");
                }
            }
            Err(err) => {
                let _ = writeln!(out, "error: {err}");
            }
        }
    }
    for (rel, name, infrastructure) in MATCH_RUNS {
        let _ = writeln!(out, "=== §VI {rel} --match {name}");
        let infrastructure: Infrastructure = serde_json::from_str(infrastructure).unwrap();
        let options = LintOptions {
            counts: CountSource::Infrastructure(infrastructure),
            ..LintOptions::default()
        };
        let input = [(rel.to_owned(), read(rel))];
        out.push_str(&lint_designs(&input, &[], &options).unwrap().rendered);
    }
    out
}

/// The §VI runs: a design, a name, and the infrastructure it is matched
/// against (E15's three cities, the two of the CLI tests, and 40 meters
/// for the budget fixture).
const MATCH_RUNS: [(&str, &str, &str); 6] = [
    (
        "specs/parking.spec",
        "full city",
        r#"{"entities": {"PresenceSensor": 4000, "ParkingEntrancePanel": 8,
            "CityEntrancePanel": 4, "Messenger": 1},
           "msgs_per_hour_capacity": 100000.0, "parallel_workers": 8}"#,
    ),
    (
        "specs/parking.spec",
        "missing panels",
        r#"{"entities": {"PresenceSensor": 4000, "Messenger": 1},
           "msgs_per_hour_capacity": null, "parallel_workers": 8}"#,
    ),
    (
        "specs/parking.spec",
        "starved LoRa network",
        r#"{"entities": {"PresenceSensor": 4000, "ParkingEntrancePanel": 8,
            "CityEntrancePanel": 4, "Messenger": 1},
           "msgs_per_hour_capacity": 30000.0, "parallel_workers": 1}"#,
    ),
    (
        "specs/parking.spec",
        "lora.json",
        r#"{"entities": {"PresenceSensor": 4000, "ParkingEntrancePanel": 8,
            "CityEntrancePanel": 4, "Messenger": 1},
           "msgs_per_hour_capacity": 30000.0, "parallel_workers": 4}"#,
    ),
    (
        "specs/parking.spec",
        "one-worker.json",
        r#"{"entities": {"PresenceSensor": 4000, "ParkingEntrancePanel": 8,
            "CityEntrancePanel": 4, "Messenger": 1},
           "msgs_per_hour_capacity": null, "parallel_workers": 1}"#,
    ),
    (
        "specs/lint/capacity_overload.spec",
        "40 meters",
        r#"{"entities": {"Meter": 40}, "msgs_per_hour_capacity": null,
           "parallel_workers": 1}"#,
    ),
];

#[test]
fn the_analyzer_surface_matches_its_golden() {
    let actual = surface();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens/analyzer_surface.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden unreadable ({e}); bless with UPDATE_GOLDENS=1"));
    if expected != actual {
        let first = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "analyzer surface diverged from tests/goldens/analyzer_surface.txt at line {}:\n  golden: {:?}\n  actual: {:?}",
            first + 1,
            expected.lines().nth(first),
            actual.lines().nth(first)
        );
    }
}
