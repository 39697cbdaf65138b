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
//!    exactly their code together.
//! 3. **The documented fix** — applying the refinement-based fix from
//!    docs/ANALYSIS.md (disjoint sibling subfamilies) to the
//!    choreography pair must make the co-deployment lint clean.

use diaspec_codegen::deploy::NodeManifest;
use diaspec_codegen::lint::{lint_designs, LintFormat, LintLevel, LintOptions};
use diaspec_core::analysis::{analyze_deployment, DeploymentOptions, DesignRef};
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
    let report = analyze_deployment(&designs, &[], &DeploymentOptions::default());
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
        let report = analyze_deployment(&designs, &[], &DeploymentOptions::default());
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
