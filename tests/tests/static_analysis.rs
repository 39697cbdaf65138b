//! E19 integration tests for the whole-design static analyzer.
//!
//! Three layers:
//!
//! 1. **Lint goldens** — the full human-format lint output of every
//!    shipped design is golden-tested, so a precision regression in any
//!    pass (a lost finding, a new false positive, a moved span) shows
//!    up as a diff. Re-bless with `UPDATE_GOLDENS=1`.
//! 2. **Negative fixtures** — each diagnostic code is pinned to a
//!    minimal fixture in `specs/lint/`, asserting the code, the exact
//!    source text under the primary span, and (for conflicts) both
//!    provenance chains.
//! 3. **Dynamic cross-validation** — a seeded runtime scenario whose
//!    trace exhibits a double actuation must correspond to a statically
//!    reported conflict, and a conflict-free design must not.

use diaspec_codegen::lint::{lint_designs, LintFormat, LintOptions, LintOutcome};
use diaspec_core::analysis::{analyze, Coupling, SharedPublication};
use diaspec_core::chains::functional_chains;
use diaspec_core::model::ActivationTrigger;
use diaspec_runtime::component::ContextActivation;
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
use diaspec_runtime::value::Value;
use serde_json::Value as Json;
use std::path::PathBuf;
use std::sync::Arc;

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

/// Lints one file on its own: one input and no manifest.
fn lint_alone(file: &str, source: &str, options: &LintOptions) -> LintOutcome {
    lint_designs(&[(file.to_owned(), source.to_owned())], &[], options).unwrap()
}

// ---- 1. lint goldens for the shipped designs -----------------------------------

#[test]
fn shipped_designs_lint_to_goldens() {
    for name in ["cooker", "parking", "avionics", "homeassist"] {
        let rel = format!("specs/{name}.spec");
        let source = std::fs::read_to_string(repo_path(&rel)).unwrap();
        let outcome = lint_alone(&rel, &source, &LintOptions::default());
        assert!(
            !outcome.failed(),
            "{name}: shipped designs must not contain hard analysis errors"
        );
        assert_matches_golden(&format!("lint_{name}.txt"), &outcome.rendered);
    }
}

// ---- 2. negative fixtures -------------------------------------------------------

/// (fixture, expected code, text the primary span must cover).
const FIXTURES: [(&str, &str, &str); 11] = [
    ("conflict_same_trigger", "E0401", "do sound on Siren"),
    ("conflict_shared_root", "E0401", "do flash on Lamp"),
    ("conflict_subtype_root", "E0401", "do flash on Lamp"),
    ("conflict_sibling_roots", "W0401", "do flash on Lamp"),
    ("conflict_distinct_chains", "W0401", "do setOn on Light"),
    ("feedback_event", "W0402", "do heat on Radiator"),
    ("feedback_query", "W0403", "do shutOff on Pump"),
    ("rate_window", "W0404", "1 min"),
    ("dead_required", "W0405", "Forgotten"),
    ("dead_device", "W0406", "Barometer"),
    ("capacity_overload", "W0407", "Meter"),
];

fn fixture_source(name: &str) -> String {
    std::fs::read_to_string(repo_path(&format!("specs/lint/{name}.spec"))).unwrap()
}

#[test]
fn every_code_has_a_fixture_with_an_exact_span() {
    for (name, code, covered) in FIXTURES {
        let source = fixture_source(name);
        let spec = diaspec_core::compile_str(&source)
            .unwrap_or_else(|e| panic!("{name} must compile: {e}"));
        let report = analyze(&spec);
        let diag = report
            .diagnostics
            .find(code)
            .unwrap_or_else(|| panic!("{name}: expected {code}, got {:?}", report.diagnostics));
        let spanned = &source[diag.at.span.start..diag.at.span.end];
        assert!(
            spanned.contains(covered),
            "{name}: {code} span covers `{spanned}`, expected it to cover `{covered}`"
        );
    }
}

#[test]
fn same_trigger_conflict_reports_both_chains() {
    let source = fixture_source("conflict_same_trigger");
    let spec = diaspec_core::compile_str(&source).unwrap();
    let report = analyze(&spec);
    assert_eq!(report.conflicts.len(), 1);
    let conflict = &report.conflicts[0];
    assert_eq!(conflict.coupling, Coupling::SameContext);
    assert_eq!(conflict.code(), "E0401");
    let diag = report.diagnostics.find("E0401").unwrap();
    let notes: Vec<&str> = diag.notes.iter().map(|(n, _)| n.as_str()).collect();
    assert!(
        notes.iter().any(|n| n
            == &"first actuation chain: SmokeSensor.smoke -> [Alarm] -> (Alert) -> Siren.sound()"),
        "missing first chain in {notes:?}"
    );
    assert!(
        notes.iter().any(|n| n
            == &"second actuation chain: SmokeSensor.smoke -> [Alarm] -> (Evacuate) -> Siren.sound()"),
        "missing second chain in {notes:?}"
    );
    // The secondary span points at the other `do` clause.
    let (_, second_span) = diag
        .notes
        .iter()
        .find(|(n, _)| n.starts_with("conflicting `do` clause"))
        .expect("secondary-site note");
    let span = second_span.expect("secondary site carries a span").span;
    assert!(source[span.start..span.end].contains("do sound on Siren"));
}

#[test]
fn distinct_chain_conflict_names_both_trigger_chains() {
    let source = fixture_source("conflict_distinct_chains");
    let spec = diaspec_core::compile_str(&source).unwrap();
    let report = analyze(&spec);
    assert_eq!(report.conflicts.len(), 1);
    let conflict = &report.conflicts[0];
    assert_eq!(conflict.coupling, Coupling::Independent);
    assert_eq!(conflict.shared_devices, vec!["HallLight"]);
    let diag = report.diagnostics.find("W0401").unwrap();
    let notes: Vec<&str> = diag.notes.iter().map(|(n, _)| n.as_str()).collect();
    assert!(notes
        .iter()
        .any(|n| n
            .contains("MotionSensor.motion -> [Presence] -> (WelcomeHome) -> HallLight.setOn()")));
    assert!(notes
        .iter()
        .any(|n| n.contains("Clock.tickMinute -> [Schedule] -> (EveningScene) -> Light.setOn()")));
}

/// A subscription that names a subtype of the source's declaring device
/// still starts a functional chain at that source.
#[test]
fn chains_through_a_subtype_subscription_are_found() {
    for (name, expected) in [
        (
            "conflict_sibling_roots",
            [
                "Sensor.v -> [A] -> (CA) -> Lamp.flash()",
                "Sensor.v -> [B] -> (CB) -> Lamp.flash()",
            ],
        ),
        (
            "conflict_subtype_root",
            [
                "Sensor.v -> [A] -> (CA) -> Lamp.flash()",
                "Sensor.v -> [B] -> (CB) -> Lamp.flash()",
            ],
        ),
    ] {
        let spec = diaspec_core::compile_str(&fixture_source(name)).unwrap();
        let chains: Vec<String> = functional_chains(&spec)
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(chains, expected, "{name}");
    }
}

/// Whether some activation of `context` is triggered, directly or through
/// upstream contexts, by a device source (read from the model alone).
fn fed_by_a_device(spec: &diaspec_core::model::CheckedSpec, context: &str) -> bool {
    spec.context(context).is_some_and(|ctx| {
        ctx.activations.iter().any(|a| match &a.trigger {
            ActivationTrigger::DeviceSource { .. } | ActivationTrigger::Periodic { .. } => true,
            ActivationTrigger::Context(upstream) => fed_by_a_device(spec, upstream),
            ActivationTrigger::OnDemand => false,
        })
    })
}

#[test]
fn every_conflict_site_fed_by_a_device_has_a_provenance_chain() {
    let mut checked = 0;
    for rel in spec_files("specs") {
        let source = std::fs::read_to_string(repo_path(&rel)).unwrap();
        let Ok(spec) = diaspec_core::compile_str(&source) else {
            continue;
        };
        for conflict in analyze(&spec).conflicts {
            for site in [&conflict.first, &conflict.second] {
                if fed_by_a_device(&spec, &site.trigger_context) {
                    checked += 1;
                    assert!(
                        site.chain.is_some(),
                        "{rel}: `do {} on {}` in `{}` has no provenance chain",
                        site.action,
                        site.device,
                        site.controller
                    );
                }
            }
        }
    }
    assert!(checked >= 10, "only {checked} sites checked");
}

/// Every `.spec` file under `dir` (repo-relative), recursively, sorted.
fn spec_files(dir: &str) -> Vec<String> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(repo_path(dir)).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let rel = format!("{dir}/{name}");
        if repo_path(&rel).is_dir() {
            out.extend(spec_files(&rel));
        } else if name.ends_with(".spec") {
            out.push(rel);
        }
    }
    out.sort();
    out
}

/// The shared-root probe, as one file and split into two: the verdict
/// does not depend on the file layout. Both are error-severity and fail
/// the lint (the CLI exits 2), under E0401 and E0601 respectively.
#[test]
fn shared_root_verdict_does_not_depend_on_the_file_split() {
    let source = fixture_source("conflict_shared_root");
    let report = analyze(&diaspec_core::compile_str(&source).unwrap());
    assert_eq!(report.conflicts.len(), 1);
    assert_eq!(
        report.conflicts[0].coupling,
        Coupling::GuaranteedRoot(SharedPublication {
            device: "Sensor".into(),
            source: "v".into(),
        })
    );
    let one = lint_alone("one.spec", &source, &LintOptions::default());
    assert!(one.rendered.contains("error[E0401]"), "{}", one.rendered);
    assert!(one.failed() && !one.broken, "{}", one.rendered);

    let shared = r#"
        device Sensor { source v as Integer; }
        device Lamp { action flash; }
    "#;
    let a = format!(
        "{shared} context A as Integer {{ when provided v from Sensor always publish; }}
        controller CA {{ when provided A do flash on Lamp; }}"
    );
    let b = format!(
        "{shared} context B as Integer {{ when provided v from Sensor always publish; }}
        controller CB {{ when provided B do flash on Lamp; }}"
    );
    let two = lint_designs(
        &[("a.spec".to_owned(), a), ("b.spec".to_owned(), b)],
        &[],
        &LintOptions::default(),
    )
    .unwrap();
    assert!(two.rendered.contains("error[E0601]"), "{}", two.rendered);
    assert!(!two.rendered.contains("W0401"), "{}", two.rendered);
    assert!(two.failed() && !two.broken, "{}", two.rendered);
}

#[test]
fn fixtures_fail_lint_under_deny_warnings() {
    for (name, code, _) in FIXTURES {
        let source = fixture_source(name);
        let outcome = lint_alone(
            &format!("specs/lint/{name}.spec"),
            &source,
            &LintOptions {
                deny_warnings: true,
                ..LintOptions::default()
            },
        );
        assert!(outcome.failed(), "{name} must fail with --deny warnings");
        assert!(
            outcome.rendered.contains(&format!("error[{code}]")),
            "{name}: {code} not promoted in\n{}",
            outcome.rendered
        );
    }
}

#[test]
fn sarif_output_for_a_shipped_design_is_well_formed() {
    let source = std::fs::read_to_string(repo_path("specs/homeassist.spec")).unwrap();
    let outcome = lint_alone(
        "specs/homeassist.spec",
        &source,
        &LintOptions {
            format: LintFormat::Sarif,
            ..LintOptions::default()
        },
    );
    let log: Json = serde_json::from_str(&outcome.rendered).unwrap();
    assert_eq!(log.get("version").and_then(Json::as_str), Some("2.1.0"));
    let runs = log.get("runs").and_then(Json::as_array).unwrap();
    let results = runs[0].get("results").and_then(Json::as_array).unwrap();
    assert_eq!(
        results[0].get("ruleId").and_then(Json::as_str),
        Some("W0401")
    );
    let uri = results[0]
        .get("locations")
        .and_then(Json::as_array)
        .unwrap()[0]
        .get("physicalLocation")
        .and_then(|l| l.get("artifactLocation"))
        .and_then(|l| l.get("uri"))
        .and_then(Json::as_str)
        .unwrap();
    assert_eq!(uri, "specs/homeassist.spec");
}

// ---- 3. dynamic cross-validation ------------------------------------------------

const CONFLICTED: &str = r#"
    device Button { source press as Integer; }
    device Bell { action ring(n as Integer); }
    context Chime as Integer { when provided press from Button always publish; }
    controller RingA { when provided Chime do ring on Bell; }
    controller RingB { when provided Chime do ring on Bell; }
"#;

const CLEAN: &str = r#"
    device Button { source press as Integer; }
    device Bell { action ring(n as Integer); }
    context Chime as Integer { when provided press from Button always publish; }
    controller RingA { when provided Chime do ring on Bell; }
"#;

/// Builds and runs the scenario, returning `(controller, entity)` pairs
/// for every actuation, attributed via the most recent controller
/// activation in the trace.
fn run_and_attribute(spec_src: &str, controllers: &[&'static str]) -> Vec<(String, String)> {
    let spec = Arc::new(diaspec_core::compile_str(spec_src).unwrap());
    let mut orch = Orchestrator::new(spec);
    orch.register_context(
        "Chime",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::SourceEvent { value, .. } => Ok(Some(value.clone())),
            _ => Ok(None),
        },
    )
    .unwrap();
    for name in controllers {
        orch.register_controller(
            name,
            move |api: &mut ControllerApi<'_>, _: &str, value: &Value| {
                for bell in api.discover("Bell")?.ids() {
                    api.invoke(&bell, "ring", std::slice::from_ref(value))?;
                }
                Ok(())
            },
        )
        .unwrap();
    }
    orch.bind_entity(
        "button-1".into(),
        "Button",
        Default::default(),
        Box::new(|_: &str, _: u64| Ok(Value::Int(0))),
    )
    .unwrap();
    orch.bind_entity(
        "bell-1".into(),
        "Bell",
        Default::default(),
        Box::new(diaspec_devices::common::RecordingActuator::new(
            diaspec_devices::common::ActuationLog::new(),
        )),
    )
    .unwrap();
    orch.set_tracing(true);
    orch.launch().unwrap();
    let button = "button-1".into();
    orch.emit_at(10, &button, "press", Value::Int(1), None)
        .unwrap();
    orch.run_until(1_000);
    assert!(orch.drain_errors().is_empty());

    let mut active = String::new();
    let mut actuations = Vec::new();
    for event in orch.take_trace() {
        use diaspec_runtime::trace::TraceKind;
        match event.kind {
            TraceKind::ControllerActivation { controller, .. } => active = controller,
            TraceKind::Actuation { entity, .. } => {
                actuations.push((active.clone(), entity));
            }
            _ => {}
        }
    }
    actuations
}

#[test]
fn runtime_double_actuation_matches_static_conflict_verdict() {
    // Statically: one guaranteed conflict between RingA and RingB.
    let spec = diaspec_core::compile_str(CONFLICTED).unwrap();
    let report = analyze(&spec);
    assert_eq!(report.conflicts.len(), 1);
    assert_eq!(report.conflicts[0].coupling, Coupling::SameContext);
    let predicted = [
        report.conflicts[0].first.controller.as_str(),
        report.conflicts[0].second.controller.as_str(),
    ];

    // Dynamically: one publication actuates bell-1 twice, once per
    // statically implicated controller.
    let actuations = run_and_attribute(CONFLICTED, &["RingA", "RingB"]);
    assert_eq!(
        actuations.len(),
        2,
        "one press, two actuations: {actuations:?}"
    );
    assert!(actuations.iter().all(|(_, entity)| entity == "bell-1"));
    let mut observed: Vec<&str> = actuations.iter().map(|(c, _)| c.as_str()).collect();
    observed.sort_unstable();
    let mut expected = predicted.to_vec();
    expected.sort_unstable();
    assert_eq!(
        observed, expected,
        "actuating controllers match the static conflict"
    );
}

#[test]
fn conflict_free_design_actuates_once() {
    let spec = diaspec_core::compile_str(CLEAN).unwrap();
    assert!(analyze(&spec).conflict_free());
    let actuations = run_and_attribute(CLEAN, &["RingA"]);
    assert_eq!(actuations.len(), 1, "{actuations:?}");
}
