//! Integration tests for the cross-design deployment analyzer.
//!
//! Three layers:
//!
//! 1. **Choreography golden** — the combined human-format lint output of
//!    the shipped choreography pair (`specs/choreo_*.spec`) is
//!    golden-tested, covering the per-file sections, the cross-design
//!    section with spans into both files, and the summary lines.
//! 2. **Negative fixture pairs** — each cross-design code (E0601,
//!    W0601, W0602, E0602) is pinned to a minimal pair in
//!    `specs/lint/cross/`: both designs must lint clean alone and trip
//!    exactly their code together. A capacity budget is checked whatever
//!    the file layout (W0407 in one file, W0602 across files), and a cut
//!    link's budget comes from its manifest.
//! 3. **The documented fix** — applying the refinement-based fix from
//!    docs/ANALYSIS.md (disjoint sibling subfamilies) to the
//!    choreography pair must make the co-deployment lint clean.

use diaspec_codegen::deploy::NodeManifest;
use diaspec_codegen::lint::{lint_designs, LintFormat, LintLevel, LintOptions};
use diaspec_core::analysis::{analyze_deployment, AnalysisOptions, DesignRef};
use diaspec_core::span::Span;
use serde_json::Value as Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(rel)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(name)
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden {name} unreadable ({e}); bless with UPDATE_GOLDENS=1"));
    assert_eq!(expected, actual, "lint output diverged from golden {name}");
}

fn read_rel(rel: &str) -> (String, String) {
    (
        rel.to_owned(),
        std::fs::read_to_string(repo_path(rel)).unwrap(),
    )
}

fn choreo_inputs() -> Vec<(String, String)> {
    vec![
        read_rel("specs/choreo_climate.spec"),
        read_rel("specs/choreo_security.spec"),
    ]
}

// ---- 1. the shipped choreography pair ------------------------------------------

#[test]
fn choreo_pair_lints_to_golden() {
    let outcome = lint_designs(&choreo_inputs(), &[], &LintOptions::default()).unwrap();
    assert!(outcome.failed(), "the pair must seed a deny-level finding");
    assert!(!outcome.broken);
    assert_matches_golden("lint_choreo_pair.txt", &outcome.rendered);
}

#[test]
fn choreo_pair_reports_the_guaranteed_conflict_with_both_chains() {
    let inputs = choreo_inputs();
    let specs: Vec<_> = inputs
        .iter()
        .map(|(rel, source)| {
            diaspec_core::compile_str(source).unwrap_or_else(|e| panic!("{rel} must compile: {e}"))
        })
        .collect();
    let designs = [
        DesignRef {
            name: "choreo_climate",
            spec: &specs[0],
        },
        DesignRef {
            name: "choreo_security",
            spec: &specs[1],
        },
    ];
    let report = analyze_deployment(&designs, &[], &AnalysisOptions::default());
    assert!(!report.conflict_free());

    let guaranteed = report
        .diagnostics
        .find("E0601")
        .expect("the shared MotionSensor publication guarantees a conflict");
    assert!(guaranteed.message.contains("`update`"));
    assert!(guaranteed.message.contains("MotionSensor.motion"));
    // Both provenance chains ride along as notes, one per design.
    let chains: Vec<_> = guaranteed
        .notes
        .iter()
        .map(|(n, _)| n)
        .filter(|n| n.contains("actuation chain"))
        .collect();
    assert_eq!(chains.len(), 2, "{:?}", guaranteed.notes);
    assert!(chains[0].contains("MotionSensor.motion -> [OccupiedRooms] -> (ComfortBoard)"));
    assert!(chains[1].contains("MotionSensor.motion -> [IntrusionSweep] -> (PatrolBoard)"));
    // The primary span sits in the first design, the related span in the
    // second — both real positions, not dummies.
    assert_eq!(guaranteed.at.file, 0);
    assert_ne!(guaranteed.at.span, Span::DUMMY);
    let related = guaranteed.notes[0]
        .1
        .expect("the partner clause is located");
    assert_eq!(related.file, 1);
    assert_ne!(related.span, Span::DUMMY);

    // The overlapping Vent families warn (timing-dependent, not
    // guaranteed: independent trigger chains).
    let possible = report
        .diagnostics
        .find("W0601")
        .expect("overlapping Vent families warn");
    assert!(possible.message.contains("`setLevel`"));
}

#[test]
fn choreo_pair_passes_with_the_documented_allows() {
    let mut levels = BTreeMap::new();
    levels.insert("E0601".to_owned(), LintLevel::Allow);
    levels.insert("W0601".to_owned(), LintLevel::Allow);
    let outcome = lint_designs(
        &choreo_inputs(),
        &[],
        &LintOptions {
            deny_warnings: true,
            levels,
            ..LintOptions::default()
        },
    )
    .unwrap();
    assert!(!outcome.failed(), "{}", outcome.rendered);
}

/// The fix documented in docs/ANALYSIS.md: refine the shared families
/// into disjoint sibling subfamilies, so each application actuates its
/// own slice of the fleet. Sibling subtypes never overlap under the
/// tree-shaped taxonomy, so both E0601 and W0601 dissolve.
#[test]
fn documented_fix_makes_the_choreo_pair_clean() {
    let (climate_rel, climate) = read_rel("specs/choreo_climate.spec");
    let (security_rel, security) = read_rel("specs/choreo_security.spec");
    let climate_fixed = climate
        .replace("do update on StatusPanel", "do update on FloorPanel")
        .replace("do setLevel on Vent", "do setLevel on ComfortVent")
        + "\ndevice FloorPanel extends StatusPanel { }\ndevice ComfortVent extends Vent { }\n";
    let security_fixed = security.replace("do update on StatusPanel", "do update on LobbyPanel")
        + "\ndevice LobbyPanel extends StatusPanel { }\n";
    let outcome = lint_designs(
        &[(climate_rel, climate_fixed), (security_rel, security_fixed)],
        &[],
        &LintOptions {
            deny_warnings: true,
            ..LintOptions::default()
        },
    )
    .unwrap();
    assert_eq!(
        (outcome.errors, outcome.warnings),
        (0, 0),
        "{}",
        outcome.rendered
    );
}

// ---- 2. negative fixture pairs --------------------------------------------------

/// (pair prefix, expected cross code).
const PAIRS: [(&str, &str); 3] = [
    ("cross_e0601", "E0601"),
    ("cross_w0601", "W0601"),
    ("cross_w0602", "W0602"),
];

#[test]
fn every_cross_code_has_a_fixture_pair() {
    for (prefix, code) in PAIRS {
        let a = read_rel(&format!("specs/lint/cross/{prefix}_a.spec"));
        let b = read_rel(&format!("specs/lint/cross/{prefix}_b.spec"));
        for (rel, source) in [&a, &b] {
            let alone = lint_designs(
                &[(rel.clone(), source.clone())],
                &[],
                &LintOptions {
                    deny_warnings: true,
                    ..LintOptions::default()
                },
            )
            .unwrap();
            assert!(
                !alone.failed() && !alone.broken,
                "{rel} must lint clean alone:\n{}",
                alone.rendered
            );
        }
        let together = lint_designs(&[a, b], &[], &LintOptions::default()).unwrap();
        assert!(
            together.rendered.contains(&format!("[{code}]")),
            "{prefix}: expected {code} in\n{}",
            together.rendered
        );
    }
}

#[test]
fn cross_findings_carry_real_spans_into_both_files() {
    for (prefix, code) in PAIRS {
        let sources: Vec<String> = ["a", "b"]
            .iter()
            .map(|s| {
                std::fs::read_to_string(repo_path(&format!("specs/lint/cross/{prefix}_{s}.spec")))
                    .unwrap()
            })
            .collect();
        let specs: Vec<_> = sources
            .iter()
            .map(|s| diaspec_core::compile_str(s).unwrap())
            .collect();
        let designs = [
            DesignRef {
                name: "a",
                spec: &specs[0],
            },
            DesignRef {
                name: "b",
                spec: &specs[1],
            },
        ];
        let report = analyze_deployment(&designs, &[], &AnalysisOptions::default());
        let finding = report
            .diagnostics
            .find(code)
            .unwrap_or_else(|| panic!("{prefix}: no {code} finding"));
        assert_ne!(finding.at.span, Span::DUMMY, "{prefix}");
        let covered = &sources[finding.at.file][finding.at.span.start..finding.at.span.end];
        assert!(!covered.trim().is_empty(), "{prefix}: span covers nothing");
    }
}

#[test]
fn conflicting_manifests_trip_the_cut_safety_pass() {
    let inputs = vec![
        read_rel("specs/lint/cross/cross_e0602_a.spec"),
        read_rel("specs/lint/cross/cross_e0602_b.spec"),
    ];
    // Without manifests the pair is clean: nothing pins the shared fleet.
    let unpinned = lint_designs(&inputs, &[], &LintOptions::default()).unwrap();
    assert!(!unpinned.failed(), "{}", unpinned.rendered);

    let manifests: Vec<(String, NodeManifest)> = ["a", "b"]
        .iter()
        .map(|s| {
            let rel = format!("specs/lint/cross/cross_e0602_{s}.manifest.json");
            let raw = std::fs::read_to_string(repo_path(&rel)).unwrap();
            (rel, NodeManifest::from_json(&raw).unwrap())
        })
        .collect();
    let pinned = lint_designs(&inputs, &manifests, &LintOptions::default()).unwrap();
    assert!(pinned.failed());
    assert!(
        pinned.rendered.contains("error[E0602]"),
        "{}",
        pinned.rendered
    );
    assert!(pinned.rendered.contains("127.0.0.1:7070"));
    assert!(pinned.rendered.contains("127.0.0.1:9090"));
}

/// The `(path, source)` inputs of one lint run.
type Inputs = Vec<(String, String)>;

/// `specs/lint/capacity_overload.spec` as one file, and split at
/// `device Logger` into two files that each keep the `Meter` declaration
/// and one of its two 10-second polls; `budget` replaces its
/// `capacityPerHour = 500`.
fn capacity_layouts(budget: u64) -> (Inputs, Inputs) {
    let (rel, source) = read_rel("specs/lint/capacity_overload.spec");
    let source = source.replace(
        "capacityPerHour = 500",
        &format!("capacityPerHour = {budget}"),
    );
    let meter_end = source.find("device Gauge {").unwrap();
    let split = source.find("device Logger {").unwrap();
    let meter = &source[..meter_end];
    let halves = vec![
        ("fast.spec".to_owned(), source[..split].to_owned()),
        (
            "audit.spec".to_owned(),
            format!("{meter}{}", &source[split..]),
        ),
    ];
    (vec![(rel, source)], halves)
}

/// The codes of a lint run's per-file sections and of its cross-design
/// section (JSON format).
fn sectioned_codes(inputs: &[(String, String)]) -> (Vec<String>, Vec<String>) {
    let outcome = lint_designs(
        inputs,
        &[],
        &LintOptions {
            format: LintFormat::Json,
            ..LintOptions::default()
        },
    )
    .unwrap();
    let log: Json = serde_json::from_str(&outcome.rendered).unwrap();
    let codes = |section: &Json| -> Vec<String> {
        let diagnostics = section.get("diagnostics").and_then(Json::as_array).unwrap();
        diagnostics
            .iter()
            .map(|d| d.get("code").and_then(Json::as_str).unwrap().to_owned())
            .collect()
    };
    match log.get("files").and_then(Json::as_array) {
        Some(files) => (
            files.iter().flat_map(codes).collect(),
            codes(log.get("cross").unwrap()),
        ),
        None => (codes(&log), Vec::new()),
    }
}

/// A budget one design declares is checked whatever the file layout: one
/// file that overloads it reports W0407, and a split whose halves each
/// fit reports the same warning as W0602.
#[test]
fn a_capacity_overload_is_reported_whatever_the_file_layout() {
    let (whole, halves) = capacity_layouts(500);
    let alone = lint_designs(&whole, &[], &LintOptions::default()).unwrap();
    assert!(!alone.failed(), "{}", alone.rendered);
    assert_eq!(alone.warnings, 1, "{}", alone.rendered);
    assert!(
        alone.rendered.contains(
            "warning[W0407]: the design overloads device family `Meter`: 720000.0 msg/h \
             against a budget of 500000.0 msg/h (@qos(capacityPerHour = 500) x 1000 devices)"
        ),
        "{}",
        alone.rendered
    );
    let denied = lint_designs(
        &whole,
        &[],
        &LintOptions {
            deny_warnings: true,
            ..LintOptions::default()
        },
    )
    .unwrap();
    assert!(denied.failed());

    assert_eq!(sectioned_codes(&halves), (vec![], vec!["W0602".to_owned()]));
    let split = lint_designs(&halves, &[], &LintOptions::default()).unwrap();
    assert!(!split.failed(), "{}", split.rendered);
    assert!(
        split.rendered.contains(
            "warning[W0602]: co-deployed designs overload device family `Meter`: 720000.0 msg/h"
        ),
        "{}",
        split.rendered
    );
}

/// When each half overloads the family alone, each file reports W0407 and
/// the cross-design section does not repeat it.
#[test]
fn an_overload_each_file_reaches_alone_is_not_repeated_across_files() {
    let (whole, halves) = capacity_layouts(100);
    assert_eq!(sectioned_codes(&whole), (vec!["W0407".to_owned()], vec![]));
    assert_eq!(
        sectioned_codes(&halves),
        (vec!["W0407".to_owned(), "W0407".to_owned()], vec![])
    );
}

/// A cut link's budget is `edges[].link.msgs_per_hour` in the manifest
/// that pins families to it. The `cross_e0602` manifests, both moved to
/// one edge address, with a `@qos(periodMs)` hint on the shared sensor so
/// that its load is known: 60 msg/h from each design at `--fleet 1`.
#[test]
fn a_manifest_link_budget_below_the_pairs_load_is_a_w0602() {
    let hint = "@qos(periodMs = 60000)\ndevice MotionSensor";
    let inputs: Vec<(String, String)> = ["a", "b"]
        .iter()
        .map(|s| {
            let (rel, source) = read_rel(&format!("specs/lint/cross/cross_e0602_{s}.spec"));
            (rel, source.replace("device MotionSensor", hint))
        })
        .collect();
    let manifests = |budget: Option<u64>| -> Vec<(String, NodeManifest)> {
        ["a", "b"]
            .iter()
            .map(|s| {
                let rel = format!("specs/lint/cross/cross_e0602_{s}.manifest.json");
                let raw = std::fs::read_to_string(repo_path(&rel)).unwrap();
                let mut manifest = NodeManifest::from_json(&raw).unwrap();
                manifest.edges[0].listen = "127.0.0.1:7070".to_owned();
                manifest.edges[0].link.msgs_per_hour = budget;
                (rel, NodeManifest::from_json(&manifest.to_json()).unwrap())
            })
            .collect()
    };
    let options = LintOptions {
        fleet_size: Some(1),
        ..LintOptions::default()
    };
    let budgeted = lint_designs(&inputs, &manifests(Some(100)), &options).unwrap();
    assert!(
        budgeted.rendered.contains(
            "warning[W0602]: deployment cut link `127.0.0.1:7070` is overloaded: 120.0 msg/h \
             against a budget of 100.0 msg/h"
        ),
        "{}",
        budgeted.rendered
    );
    let unbudgeted = lint_designs(&inputs, &manifests(None), &options).unwrap();
    assert!(
        !unbudgeted.rendered.contains("cut link"),
        "{}",
        unbudgeted.rendered
    );
}

// ---- 3. machine formats and outcome classification ------------------------------

#[test]
fn multi_design_sarif_spans_both_artifacts() {
    let outcome = lint_designs(
        &choreo_inputs(),
        &[],
        &LintOptions {
            format: LintFormat::Sarif,
            ..LintOptions::default()
        },
    )
    .unwrap();
    let log: Json = serde_json::from_str(&outcome.rendered).unwrap();
    let results = log.get("runs").and_then(Json::as_array).unwrap()[0]
        .get("results")
        .and_then(Json::as_array)
        .unwrap();
    let e0601 = results
        .iter()
        .find(|r| r.get("ruleId").and_then(Json::as_str) == Some("E0601"))
        .expect("E0601 in SARIF");
    let uri = |loc: &Json| -> String {
        loc.get("physicalLocation")
            .and_then(|l| l.get("artifactLocation"))
            .and_then(|l| l.get("uri"))
            .and_then(Json::as_str)
            .unwrap()
            .to_owned()
    };
    let primary = uri(&e0601.get("locations").and_then(Json::as_array).unwrap()[0]);
    assert!(primary.ends_with("choreo_climate.spec"), "{primary}");
    let related = e0601
        .get("relatedLocations")
        .and_then(Json::as_array)
        .expect("cross findings carry relatedLocations");
    let secondary = uri(&related[0]);
    assert!(secondary.ends_with("choreo_security.spec"), "{secondary}");
    // The related location is annotated so viewers can label the jump.
    assert!(related[0]
        .get("message")
        .and_then(|m| m.get("text"))
        .and_then(Json::as_str)
        .unwrap()
        .contains("conflicting `do` clause"));
    // Span-less provenance chains stay in the message text.
    assert!(e0601
        .get("message")
        .and_then(|m| m.get("text"))
        .and_then(Json::as_str)
        .unwrap()
        .contains("actuation chain"));
}

#[test]
fn broken_inputs_classify_as_broken_not_findings() {
    let inputs = vec![
        read_rel("specs/choreo_climate.spec"),
        ("specs/broken.spec".to_owned(), "device {".to_owned()),
    ];
    let outcome = lint_designs(&inputs, &[], &LintOptions::default()).unwrap();
    assert!(
        outcome.broken,
        "parse failures must flag the outcome broken"
    );
    assert!(
        outcome.rendered.contains("cross-design passes skipped"),
        "{}",
        outcome.rendered
    );
}
