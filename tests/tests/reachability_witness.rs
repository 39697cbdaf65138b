//! The simulator witness of the reachability pass
//! (`diaspec_core::analysis::reach`, W0405 / W0406).
//!
//! Every bundled design under `specs/`, every single-file fixture under
//! `specs/lint/` and two designs below run through the generic
//! components of `register_with(.., Publishing::Allowed)` (the most any
//! implementation may do: every clause that may publish does, and every
//! declared `get` is read) with one entity bound per declared device
//! type. Each source of each entity is emitted once, and the run lasts
//! until every poll's period and window have elapsed once. Then:
//!
//! - a context or controller activates (an on-demand computation
//!   included) exactly when W0405 does not name it;
//! - a device family is sensed (polled, read by a `get`, or an emission
//!   of one of its entities activates a component) or actuated exactly
//!   when W0406 names neither it nor an ancestor.

use diaspec_core::analysis::analyze;
use diaspec_core::model::{ActivationTrigger, CheckedSpec};
use diaspec_integration::{placeholder, register_with, Publishing};
use diaspec_runtime::entity::{AttributeMap, DeviceInstance, EntityId};
use diaspec_runtime::error::DeviceError;
use diaspec_runtime::spans::SpanStage;
use diaspec_runtime::value::Value;
use diaspec_runtime::Orchestrator;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const HOUR_MS: u64 = 60 * 60 * 1000;

/// A device that answers each query with a placeholder of the source's
/// type and records that its type was queried or actuated.
struct Witness {
    device_type: String,
    readings: BTreeMap<String, Value>,
    touched: Arc<Mutex<BTreeSet<String>>>,
}

impl Witness {
    fn touch(&self) {
        self.touched
            .lock()
            .unwrap()
            .insert(self.device_type.clone());
    }
}

impl DeviceInstance for Witness {
    fn query(&mut self, source: &str, _now: u64) -> Result<Value, DeviceError> {
        self.touch();
        Ok(self.readings[source].clone())
    }

    fn invoke(&mut self, _action: &str, _args: &[Value], _now: u64) -> Result<(), DeviceError> {
        self.touch();
        Ok(())
    }
}

/// What one run showed: the components that activated and the device
/// types whose entity was sensed or actuated.
struct Observed {
    activated: BTreeSet<String>,
    touched: BTreeSet<String>,
}

/// How long the run lasts: until every periodic clause has delivered once
/// (its period, or its window stretched to whole periods).
fn horizon(spec: &CheckedSpec) -> u64 {
    spec.contexts()
        .flat_map(|c| &c.activations)
        .filter_map(|a| match a.trigger {
            ActivationTrigger::Periodic { period_ms, .. } => {
                let window = a.grouping.as_ref().and_then(|g| g.window_ms);
                let polls = window.map_or(1, |w| w.div_ceil(period_ms.max(1)).max(1));
                Some(period_ms * polls)
            }
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

fn run(design: &str, spec: &Arc<CheckedSpec>) -> Observed {
    let mut orch = Orchestrator::new(Arc::clone(spec));
    register_with(&mut orch, spec, Publishing::Allowed).unwrap();
    orch.set_span_tracing(true);
    orch.begin_deployment();
    let touched = Arc::new(Mutex::new(BTreeSet::new()));
    for device in spec.devices() {
        let attributes: AttributeMap = device
            .attributes
            .iter()
            .map(|a| (a.name.clone(), placeholder(spec, &a.ty)))
            .collect();
        let readings = device
            .sources
            .iter()
            .map(|s| (s.name.clone(), placeholder(spec, &s.ty)))
            .collect();
        let witness = Witness {
            device_type: device.name.clone(),
            readings,
            touched: Arc::clone(&touched),
        };
        orch.bind_entity(
            EntityId::from(device.name.as_str()),
            &device.name,
            attributes,
            Box::new(witness),
        )
        .unwrap();
    }
    orch.launch().unwrap();
    for device in spec.devices() {
        for source in &device.sources {
            let index = source.index.as_ref().map(|(_, ty)| placeholder(spec, ty));
            let value = placeholder(spec, &source.ty);
            let entity = EntityId::from(device.name.as_str());
            orch.emit_at(1, &entity, &source.name, value, index)
                .unwrap();
        }
    }

    // The emissions' traces (by admit span), and the traces in which a
    // component ran.
    let mut emitted: BTreeMap<u64, String> = BTreeMap::new();
    let mut computed: BTreeSet<u64> = BTreeSet::new();
    let mut activated = BTreeSet::new();
    let end = horizon(spec).max(1) + 1_000;
    let mut now = 0;
    while now < end {
        now = (now + HOUR_MS).min(end);
        orch.run_until(now);
        assert_eq!(orch.spans_dropped(), 0, "{design}: spans dropped");
        for span in orch.take_spans() {
            match span.stage {
                SpanStage::Admit => {
                    // An emission's admit span is `entity.source`; the
                    // entity is named after its device type.
                    if let Some((entity, _)) = span.label.split_once('.') {
                        if spec.device(entity).is_some() {
                            emitted.insert(span.trace_id, entity.to_owned());
                        }
                    }
                }
                SpanStage::Compute => {
                    let component = spec.context(&span.label).is_some()
                        || spec.controller(&span.label).is_some();
                    if component {
                        computed.insert(span.trace_id);
                        activated.insert(span.label);
                    }
                }
                _ => {}
            }
        }
    }
    let errors = orch.drain_errors();
    assert!(errors.is_empty(), "{design}: {errors:?}");
    let mut touched = touched.lock().unwrap().clone();
    for (trace, entity) in emitted {
        if computed.contains(&trace) {
            touched.insert(entity);
        }
    }
    Observed { activated, touched }
}

/// Runs `design` and holds the reachability verdicts to what the run did.
fn witness(design: &str, source: &str) {
    let spec = Arc::new(diaspec_core::compile_str(source).unwrap());
    let report = analyze(&spec);
    let observed = run(design, &spec);
    let reach = &report.reachability;
    for ctx in spec.contexts() {
        let unreachable = reach.unreachable_contexts.contains(&ctx.name);
        let activated = observed.activated.contains(&ctx.name);
        assert_eq!(
            activated, !unreachable,
            "{design}: context `{}` activated: {activated}, W0405: {unreachable}",
            ctx.name
        );
    }
    for ctrl in spec.controllers() {
        let unreachable = reach.unreachable_controllers.contains(&ctrl.name);
        let activated = observed.activated.contains(&ctrl.name);
        assert_eq!(
            activated, !unreachable,
            "{design}: controller `{}` activated: {activated}, W0405: {unreachable}",
            ctrl.name
        );
    }
    for device in spec.devices() {
        // The family: the device and its subtypes, one entity each.
        let used = observed
            .touched
            .iter()
            .any(|ty| spec.device_is_subtype(ty, &device.name));
        let named = reach
            .dead_devices
            .iter()
            .any(|dead| spec.device_is_subtype(&device.name, dead));
        assert_eq!(
            used, !named,
            "{design}: family `{}` sensed or actuated: {used}, W0406 on it or an ancestor: {named}",
            device.name
        );
    }
}

fn spec_files(dir: &str) -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(dir);
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "spec"))
        .collect();
    files.sort();
    files
}

#[test]
fn bundled_designs_reach_what_the_pass_says() {
    let files = spec_files("specs");
    assert!(files.len() >= 6);
    for path in files {
        let design = path.display().to_string();
        witness(&design, &std::fs::read_to_string(&path).unwrap());
    }
}

#[test]
fn lint_fixtures_reach_what_the_pass_says() {
    let files = spec_files("specs/lint");
    assert!(files.len() >= 11);
    for path in files {
        let design = path.display().to_string();
        witness(&design, &std::fs::read_to_string(&path).unwrap());
    }
}

/// Liveness through `get`: a `when required` context is live exactly
/// when a live context reads it, and a device family read only by a
/// `get` is sensed. (A `when required` clause declares no `get`, so a
/// family is never read only by a dead context.)
#[test]
fn get_reads_carry_liveness() {
    let live_reader = "
        device Probe { source level as Float; }
        device Gauge { source reading as Float; }
        device Lamp { action lit; }
        context Stored as Float { when required; }
        context Check as Float {
          when provided level from Probe
            get Stored
            get reading from Gauge
            always publish;
        }
        controller Light { when provided Check do lit on Lamp; }
    ";
    witness("read", live_reader);
    // Nothing reads `Stored` (W0405).
    let dead_reader = live_reader.replace("get Stored", "");
    witness("unread", &dead_reader);
}
