//! Dynamic cross-check of the one actuation-conflict pass.
//!
//! The static side (`diaspec_core::analysis::conflicts`, run over one
//! design by `analyze` and over several by `analyze_deployment`) predicts
//! which `do` clauses actuate one device twice. This test runs designs on
//! a [`SharedFleet`] — one orchestrator per application, shared physical
//! bindings and emissions; a fleet of one application is the single-
//! design case — and checks the verdict against what the simulator does:
//!
//! - the choreography pair and the E0602 pair, across several seeds:
//!   cross-application double actuations are observed iff the analyzer
//!   reports a guaranteed conflict (E0601);
//! - the conflict witness, over every bundled design, every
//!   `specs/lint/` conflict fixture and the cross-design conflict pairs:
//!   each run drives one trigger root once (one emission, or one poll
//!   period) and counts the actuations of each action per device.

use diaspec_core::analysis::deployment::{analyze_deployment, DesignRef};
use diaspec_core::analysis::AnalysisOptions;
use diaspec_core::analysis::{analyze, ActuationConflict, Coupling};
use diaspec_core::model::{ActivationTrigger, CheckedSpec};
use diaspec_integration::multi::SharedFleet;
use diaspec_integration::{placeholder, register_all, register_with, Publishing};
use diaspec_runtime::entity::{AttributeMap, DeviceInstance};
use diaspec_runtime::error::DeviceError;
use diaspec_runtime::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
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
        &AnalysisOptions::default(),
    );
    report.diagnostics.find("E0601").is_some()
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

/// A subtype only one design declares is bound into its partner too,
/// under the nearest ancestor the partner declares: the choreography
/// pair's `EmergencyVent` and `cross_w0601`'s `PurgeVent` refine a `Vent`
/// both designs actuate, so both designs reach them.
#[test]
fn subtype_entities_are_bound_in_every_design_declaring_an_ancestor() {
    for (pair, device) in [
        (
            ["choreo_climate.spec", "choreo_security.spec"],
            "EmergencyVent",
        ),
        (
            [
                "lint/cross/cross_w0601_a.spec",
                "lint/cross/cross_w0601_b.spec",
            ],
            "PurgeVent",
        ),
    ] {
        let mut fleet = SharedFleet::new();
        let mut attributes = AttributeMap::new();
        for rel in pair {
            let spec = load(rel);
            if let Some(declared) = spec.device(device) {
                for attribute in &declared.attributes {
                    attributes.insert(attribute.name.clone(), placeholder(&spec, &attribute.ty));
                }
            }
            fleet
                .add_app(rel, Arc::clone(&spec), |orch| register_all(orch, &spec))
                .unwrap();
        }
        let bound = fleet
            .bind_shared("vent-0", device, &attributes, || Box::new(Inert))
            .unwrap();
        assert_eq!(bound, 2, "{device} must be bound in both designs");
    }
}

// ---- the conflict witness ----------------------------------------------------

/// Designs co-deployed on one fleet: one design is the N = 1 universe.
struct Universe {
    designs: Vec<(String, Arc<CheckedSpec>)>,
}

/// One drive of a trigger root.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Drive {
    /// One emission of `source` by one entity of exactly `device`.
    Emit { device: String, source: String },
    /// The polls due at `period_ms` after launch, with nothing emitted.
    Poll { period_ms: u64 },
}

/// What one drive did: actuations per (entity, action), each entity
/// with its bound device type.
type Counts = BTreeMap<(String, String), (String, usize)>;

/// Every bundled design and `specs/lint/` conflict fixture alone, plus
/// the cross-design conflict pairs.
fn universes() -> Vec<Universe> {
    let specs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../specs");
    let files = |dir: &Path, prefix: &str| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(prefix) && n.ends_with(".spec"))
            .collect();
        names.sort();
        names
    };
    let mut groups: Vec<Vec<String>> = Vec::new();
    groups.extend(files(&specs, "").into_iter().map(|n| vec![n]));
    groups.extend(
        files(&specs.join("lint"), "conflict_")
            .into_iter()
            .map(|n| vec![format!("lint/{n}")]),
    );
    groups.push(vec![
        "choreo_climate.spec".into(),
        "choreo_security.spec".into(),
    ]);
    for pair in ["cross_e0601", "cross_w0601"] {
        groups.push(vec![
            format!("lint/cross/{pair}_a.spec"),
            format!("lint/cross/{pair}_b.spec"),
        ]);
    }
    groups
        .into_iter()
        .map(|files| Universe {
            designs: files
                .iter()
                .map(|f| (f.trim_end_matches(".spec").to_owned(), load(f)))
                .collect(),
        })
        .collect()
}

impl Universe {
    fn name(&self) -> String {
        let names: Vec<&str> = self.designs.iter().map(|(n, _)| n.as_str()).collect();
        names.join(" + ")
    }

    /// Every conflict the analyzer reports: each design's own (N = 1),
    /// then those across designs.
    fn conflicts(&self) -> Vec<ActuationConflict> {
        let mut all: Vec<ActuationConflict> = self
            .designs
            .iter()
            .flat_map(|(_, spec)| analyze(spec).conflicts)
            .collect();
        let refs: Vec<DesignRef<'_>> = self
            .designs
            .iter()
            .map(|(name, spec)| DesignRef { name, spec })
            .collect();
        all.extend(analyze_deployment(&refs, &[], &AnalysisOptions::default()).conflicts);
        all
    }

    /// Every root drive: each source of each declared device type, and
    /// each declared period.
    fn drives(&self) -> BTreeSet<Drive> {
        let mut drives = BTreeSet::new();
        for (_, spec) in &self.designs {
            for device in spec.devices() {
                for source in &device.sources {
                    drives.insert(Drive::Emit {
                        device: device.name.clone(),
                        source: source.name.clone(),
                    });
                }
            }
            for ctx in spec.contexts() {
                for activation in &ctx.activations {
                    if let ActivationTrigger::Periodic { period_ms, .. } = activation.trigger {
                        drives.insert(Drive::Poll { period_ms });
                    }
                }
            }
        }
        drives
    }

    /// Runs `drive` once under `publishing` on a fresh fleet whose
    /// schedule (entities per device type, emission instant, emitting
    /// entity) comes from `seed`.
    fn run(&self, drive: &Drive, publishing: Publishing, seed: u64) -> Counts {
        let mut fleet = SharedFleet::new();
        for (name, spec) in &self.designs {
            fleet
                .add_app(name, Arc::clone(spec), |orch| {
                    register_with(orch, spec, publishing)
                })
                .unwrap();
        }
        let per_type = 1 + (seed / 10) as usize % 3;
        // Entity id to device type; a type several designs declare is
        // bound once, into each of them.
        let mut types: BTreeMap<String, String> = BTreeMap::new();
        for (_, spec) in &self.designs {
            for device in spec.devices() {
                if types.values().any(|t| *t == device.name) {
                    continue;
                }
                let attributes: AttributeMap = device
                    .attributes
                    .iter()
                    .map(|a| (a.name.clone(), placeholder(spec, &a.ty)))
                    .collect();
                let readings: BTreeMap<String, Value> = device
                    .sources
                    .iter()
                    .map(|s| (s.name.clone(), placeholder(spec, &s.ty)))
                    .collect();
                for k in 0..per_type {
                    let id = format!("{}-{k}", device.name);
                    let driver =
                        || -> Box<dyn DeviceInstance> { Box::new(Typed(readings.clone())) };
                    fleet
                        .bind_shared(&id, &device.name, &attributes, driver)
                        .unwrap();
                    types.insert(id, device.name.clone());
                }
            }
        }
        fleet.launch().unwrap();
        let first_poll = self
            .drives()
            .iter()
            .filter_map(|d| match d {
                Drive::Poll { period_ms } => Some(*period_ms),
                Drive::Emit { .. } => None,
            })
            .min()
            .unwrap_or(u64::MAX);
        match drive {
            Drive::Emit { device, source } => {
                let at = 1 + seed % 50;
                assert!(at < first_poll, "the emission precedes every poll");
                let id = format!("{device}-{}", seed as usize % per_type);
                let value = self
                    .designs
                    .iter()
                    .find_map(|(_, spec)| {
                        let ty = &spec.device(device)?.source(source)?.ty;
                        Some(placeholder(spec, ty))
                    })
                    .unwrap();
                fleet.emit_shared(at, &id, source, &value).unwrap();
                fleet.run_until(first_poll.min(at + 60_000) - 1);
            }
            Drive::Poll { period_ms } => {
                fleet.run_until(period_ms - 1);
                // Drop what shorter periods actuated before this instant.
                fleet.actuations();
                fleet.run_until(*period_ms);
            }
        }
        for (name, _) in &self.designs {
            let errors = fleet.app(name).unwrap().drain_errors();
            assert!(errors.is_empty(), "{name}: {drive:?}: {errors:?}");
        }
        fleet
            .actuations()
            .into_iter()
            .map(|a| {
                let (ty, n) = (types[&a.entity].clone(), a.total());
                ((a.entity, a.action), (ty, n))
            })
            .collect()
    }
}

/// A device that answers every query with a placeholder of the source's
/// type and accepts every actuation.
struct Typed(BTreeMap<String, Value>);

impl DeviceInstance for Typed {
    fn query(&mut self, source: &str, _now: u64) -> Result<Value, DeviceError> {
        Ok(self.0[source].clone())
    }
    fn invoke(&mut self, _action: &str, _args: &[Value], _now: u64) -> Result<(), DeviceError> {
        Ok(())
    }
}

/// Whether `conflict` covers a double `action` on a device of type `ty`.
fn covers(conflict: &ActuationConflict, action: &str, ty: &str) -> bool {
    conflict.first.action == action && conflict.shared_devices.iter().any(|d| d == ty)
}

/// Every guaranteed (E-coded) conflict double-actuates one shared device
/// from one drive of its root, even where the implementation publishes
/// all it may: a guaranteed root is driven by one emission of it; a
/// shared trigger context by one of the roots that reach it.
#[test]
fn every_guaranteed_conflict_double_actuates_from_one_drive() {
    let mut witnessed = 0;
    for universe in universes() {
        for conflict in universe.conflicts().iter().filter(|c| c.guaranteed()) {
            let drives: Vec<Drive> = match &conflict.coupling {
                Coupling::GuaranteedRoot(root) => vec![Drive::Emit {
                    device: root.device.clone(),
                    source: root.source.clone(),
                }],
                _ => universe.drives().into_iter().collect(),
            };
            for seed in SEEDS {
                let doubled = drives.iter().any(|drive| {
                    universe
                        .run(drive, Publishing::Allowed, seed)
                        .iter()
                        .any(|((_, action), (ty, n))| *n >= 2 && covers(conflict, action, ty))
                });
                assert!(
                    doubled,
                    "{}: seed {seed}: {} `{}` on {:?} is never actuated twice by one drive",
                    universe.name(),
                    conflict.code(),
                    conflict.first.action,
                    conflict.shared_devices
                );
            }
            witnessed += 1;
        }
    }
    // conflict_same_trigger, conflict_shared_root, conflict_subtype_root,
    // the two E0601 pairs.
    assert!(witnessed >= 5, "only {witnessed} guaranteed conflicts ran");
}

/// Every device actuated twice by one drive is covered by a reported
/// conflict, so a design the analyzer calls conflict-free never shows a
/// double actuation. Where the implementation publishes only what the
/// design obliges (`always publish`), a double from one emission is
/// covered by a guaranteed conflict: the rule misses no guarantee.
#[test]
fn every_double_actuation_from_one_drive_is_reported() {
    let mut clean = 0;
    for universe in universes() {
        let conflicts = universe.conflicts();
        clean += usize::from(conflicts.is_empty());
        for drive in universe.drives() {
            for seed in SEEDS {
                for publishing in [Publishing::Allowed, Publishing::Obliged] {
                    let needs_guarantee =
                        publishing == Publishing::Obliged && matches!(drive, Drive::Emit { .. });
                    for ((entity, action), (ty, n)) in universe.run(&drive, publishing, seed) {
                        let reported = conflicts.iter().any(|c| {
                            covers(c, &action, &ty) && (c.guaranteed() || !needs_guarantee)
                        });
                        assert!(
                            n < 2 || reported,
                            "{}: seed {seed}, {drive:?} under {publishing:?}: `{entity}` \
                             ({ty}) performed `{action}` {n} times, and the analyzer reports \
                             no {}conflict covering it",
                            universe.name(),
                            if needs_guarantee { "guaranteed " } else { "" }
                        );
                    }
                }
            }
        }
    }
    assert!(clean >= 4, "only {clean} conflict-free designs ran");
}
