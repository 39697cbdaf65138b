//! §III taxonomy reuse: the shared `specs/taxonomy/home.spec` device
//! taxonomy combines with application-specific designs via multi-file
//! compilation, and two different applications share it — the paper's
//! "used across applications" claim.

use diaspec_codegen::generate_rust;
use diaspec_core::{compile_sources, compile_str};

const TAXONOMY: &str = include_str!("../../specs/taxonomy/home.spec");

/// A fire-alarm application over the shared taxonomy.
const FIRE_APP: &str = r#"
    context FireDetected as Boolean {
      when provided smoke from SmokeDetector
        maybe publish;
    }
    controller SoundAlarm {
      when provided FireDetected
        do wail on Siren
        do notify on NotificationService;
    }
"#;

/// A night-light application over the same taxonomy.
const NIGHTLIGHT_APP: &str = r#"
    context NightMotion as Boolean {
      when provided motion from MotionDetector
        get tickHour from Clock
        maybe publish;
    }
    controller GuideLight {
      when provided NightMotion
        do setLevel on DimmableLight;
    }
"#;

#[test]
fn taxonomy_alone_is_a_valid_specification() {
    let model = compile_str(TAXONOMY).unwrap();
    assert!(model.devices().count() >= 7);
    assert_eq!(model.contexts().count(), 0);
    // The sensor hierarchy resolves.
    assert!(model.device_is_subtype("MotionDetector", "HomeSensor"));
    assert!(model.device_is_subtype("SmokeDetector", "HomeSensor"));
    assert!(
        model
            .device("DoorContact")
            .unwrap()
            .attribute("room")
            .is_some(),
        "inherited attribute"
    );
}

#[test]
fn two_applications_share_one_taxonomy() {
    let fire = compile_sources([("home.spec", TAXONOMY), ("fire.spec", FIRE_APP)]).unwrap();
    assert!(fire.context("FireDetected").is_some());
    assert_eq!(
        fire.controller("SoundAlarm").unwrap().bindings[0]
            .actions
            .len(),
        2
    );

    let night =
        compile_sources([("home.spec", TAXONOMY), ("nightlight.spec", NIGHTLIGHT_APP)]).unwrap();
    assert!(night.context("NightMotion").is_some());
    // Both models embed the same taxonomy devices.
    assert_eq!(
        fire.devices().count(),
        night.devices().count(),
        "same taxonomy"
    );
}

#[test]
fn frameworks_generate_for_taxonomy_backed_designs() {
    let model = compile_sources([("home.spec", TAXONOMY), ("fire.spec", FIRE_APP)]).unwrap();
    let framework = generate_rust(&model);
    let module = &framework.file("framework.rs").unwrap().content;
    assert!(module.contains("pub trait FireDetectedImpl"));
    assert!(module.contains("pub fn wail(&mut self)"));
    assert!(module.contains("pub fn notify(&mut self, message: String)"));
}

#[test]
fn app_errors_point_at_the_app_file_not_the_taxonomy() {
    let err = compile_sources([
        ("home.spec", TAXONOMY),
        (
            "broken.spec",
            "context C as Integer { when provided ghost from MotionDetector always publish; }",
        ),
    ])
    .unwrap_err();
    let report = err.to_string();
    let headers: Vec<&str> = report.lines().filter(|l| l.starts_with("error[")).collect();
    assert!(!headers.is_empty(), "{report}");
    for header in headers {
        assert!(header.contains(" at broken.spec:1:"), "{report}");
        assert!(!header.contains("home.spec:"), "{report}");
    }
}

/// A device declared in both the taxonomy and the app: the error points
/// into the app, and its note points back into the taxonomy, each
/// position naming its own file and quoting that file's line.
#[test]
fn redeclared_taxonomy_device_notes_the_first_declaration() {
    let err = compile_sources([
        ("tax.spec", "device Clock { source tick as Integer; }"),
        ("app.spec", "device Clock { source tock as Integer; }"),
    ])
    .unwrap_err();
    assert_eq!(
        err.to_string(),
        "specification has 1 error(s)\n\
         error[E0201]: the name `Clock` is already used by a device at app.spec:1:8\n   \
         1 | device Clock { source tock as Integer; }\n     \
         |        ^^^^^\n\
         note: first declared here at tax.spec:1:8\n   \
         1 | device Clock { source tick as Integer; }\n     \
         |        ^^^^^"
    );
}
