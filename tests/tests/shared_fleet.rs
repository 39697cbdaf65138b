//! Dynamic cross-check of the cross-design deployment analyzer.
//!
//! The static side (`diaspec_core::analysis::deployment`) predicts
//! whether co-deployed designs produce cross-application duplicate
//! actuations. This test runs the same design pairs on a
//! [`SharedFleet`] — one orchestrator per application, shared physical
//! bindings and emissions — across several seeds and asserts the
//! dynamic verdict agrees: double actuations are observed iff the
//! analyzer reports a guaranteed conflict (E0601).

use diaspec_core::analysis::deployment::{analyze_deployment, DeploymentOptions, DesignRef};
use diaspec_core::model::CheckedSpec;
use diaspec_integration::multi::SharedFleet;
use diaspec_integration::register_all;
use diaspec_runtime::entity::{AttributeMap, DeviceInstance};
use diaspec_runtime::error::DeviceError;
use diaspec_runtime::value::Value;
use std::path::PathBuf;
use std::sync::Arc;

const SEEDS: [u64; 3] = [11, 23, 47];

fn load(relative: &str) -> Arc<CheckedSpec> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../specs")
        .join(relative);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Arc::new(
        diaspec_core::compile_str(&source)
            .unwrap_or_else(|e| panic!("{} does not compile: {e}", path.display())),
    )
}

struct Inert;
impl DeviceInstance for Inert {
    fn query(&mut self, _source: &str, _now: u64) -> Result<Value, DeviceError> {
        Ok(Value::Bool(false))
    }
    fn invoke(&mut self, _action: &str, _args: &[Value], _now: u64) -> Result<(), DeviceError> {
        Ok(())
    }
}

fn static_guarantees_conflict(a: (&str, &CheckedSpec), b: (&str, &CheckedSpec)) -> bool {
    let report = analyze_deployment(
        &[
            DesignRef {
                name: a.0,
                spec: a.1,
            },
            DesignRef {
                name: b.0,
                spec: b.1,
            },
        ],
        &[],
        &DeploymentOptions::default(),
    );
    report.findings.iter().any(|f| f.code == "E0601")
}

/// The choreography pair: the analyzer reports a guaranteed conflict
/// (E0601 on `StatusPanel.update`), so every seed's run must observe
/// the shared panels actuated by both applications.
#[test]
fn predicted_conflict_materializes_at_runtime() {
    let climate = load("choreo_climate.spec");
    let security = load("choreo_security.spec");
    assert!(
        static_guarantees_conflict(("choreo_climate", &climate), ("choreo_security", &security)),
        "the choreography pair must statically report E0601"
    );

    for seed in SEEDS {
        let mut fleet = SharedFleet::new();
        fleet
            .add_app("choreo_climate", Arc::clone(&climate), |orch| {
                register_all(orch, &climate)
            })
            .unwrap();
        fleet
            .add_app("choreo_security", Arc::clone(&security), |orch| {
                register_all(orch, &security)
            })
            .unwrap();

        let mut room = AttributeMap::new();
        room.insert("room".to_owned(), Value::enum_value("RoomEnum", "KITCHEN"));
        for i in 0..3 {
            let bound = fleet
                .bind_shared(&format!("motion-{i}"), "MotionSensor", &room, || {
                    Box::new(Inert)
                })
                .unwrap();
            assert_eq!(bound, 2, "both designs declare MotionSensor");
        }
        for i in 0..2 {
            let bound = fleet
                .bind_shared(
                    &format!("panel-{i}"),
                    "StatusPanel",
                    &AttributeMap::new(),
                    || Box::new(Inert),
                )
                .unwrap();
            assert_eq!(bound, 2, "both designs declare StatusPanel");
        }
        fleet.launch().unwrap();

        let emissions = 5u64;
        let mut last = 0;
        for i in 0..emissions {
            // Seed-dependent but deterministic emission schedule.
            let at = seed * 13 + i * (29 + seed % 7);
            last = last.max(at);
            let sensor = format!("motion-{}", (seed + i) % 3);
            let seen = fleet
                .emit_shared(at, &sensor, "motion", &Value::Bool(i % 2 == 0))
                .unwrap();
            assert_eq!(seen, 2, "the shared publication reaches both designs");
        }
        fleet.run_until(last + 10_000);

        let conflicts = fleet.cross_actuations();
        let panel_updates: Vec<_> = conflicts
            .iter()
            .filter(|c| c.action == "update" && c.entity.starts_with("panel-"))
            .collect();
        assert_eq!(
            panel_updates.len(),
            2,
            "seed {seed}: both shared panels must be cross-actuated, got {conflicts:?}"
        );
        for conflict in panel_updates {
            let designs: Vec<_> = conflict
                .per_design
                .iter()
                .map(|(name, _)| name.as_str())
                .collect();
            assert_eq!(designs, vec!["choreo_climate", "choreo_security"]);
            // Every shared motion publication drives both chains once.
            for (design, count) in &conflict.per_design {
                assert_eq!(
                    *count as u64, emissions,
                    "seed {seed}: {design} actuated {} {} times",
                    conflict.entity, conflict.action
                );
            }
        }
    }
}

/// The E0602 fixture pair *without* manifests: statically conflict-free
/// (the designs share a sensor fleet but actuate disjoint families), so
/// no seed may observe a cross-application actuation.
#[test]
fn predicted_clean_pair_stays_clean_at_runtime() {
    let a = load("lint/cross/cross_e0602_a.spec");
    let b = load("lint/cross/cross_e0602_b.spec");
    assert!(
        !static_guarantees_conflict(("cross_e0602_a", &a), ("cross_e0602_b", &b)),
        "the fixture pair must be conflict-free without manifests"
    );

    for seed in SEEDS {
        let mut fleet = SharedFleet::new();
        fleet
            .add_app("cross_e0602_a", Arc::clone(&a), |orch| {
                register_all(orch, &a)
            })
            .unwrap();
        fleet
            .add_app("cross_e0602_b", Arc::clone(&b), |orch| {
                register_all(orch, &b)
            })
            .unwrap();

        let shared = fleet
            .bind_shared("motion-0", "MotionSensor", &AttributeMap::new(), || {
                Box::new(Inert)
            })
            .unwrap();
        assert_eq!(shared, 2);
        assert_eq!(
            fleet
                .bind_shared("lamp-0", "HallLamp", &AttributeMap::new(), || Box::new(
                    Inert
                ))
                .unwrap(),
            1,
            "HallLamp exists only in design a"
        );
        assert_eq!(
            fleet
                .bind_shared("chime-0", "Chime", &AttributeMap::new(), || Box::new(Inert))
                .unwrap(),
            1,
            "Chime exists only in design b"
        );
        fleet.launch().unwrap();

        let mut last = 0;
        for i in 0..5 {
            let at = seed * 17 + i * (31 + seed % 5);
            last = last.max(at);
            let seen = fleet
                .emit_shared(at, "motion-0", "motion", &Value::Bool(true))
                .unwrap();
            assert_eq!(seen, 2, "both designs observe the shared sensor");
        }
        fleet.run_until(last + 10_000);

        assert!(
            fleet.cross_actuations().is_empty(),
            "seed {seed}: the statically clean pair produced a cross-application actuation"
        );
    }
}
