//! The simulator oracle of the one static load model
//! (`diaspec_core::analysis::rates`).
//!
//! On the deterministic sim clock the model's prediction for a periodic
//! edge is exact. Each design below runs for 48 simulated hours with
//! tracing on; the trace is counted per edge and compared with the
//! model's rate × 48 h, each edge scaled by the entities the run bound
//! of its family (the one scaling rule, `EdgeCapacity::msgs_per_hour`):
//!
//! - periodic edges exactly: the readings polled per device source,
//!   summed over the edges that share it;
//! - publish edges out of contexts on `always publish` chains exactly:
//!   the activations of the subscribing controller (or context);
//! - other publish edges and `do` edges: the count is at most the
//!   prediction (`maybe publish`, or a controller that actuates fewer
//!   devices than it may);
//! - event edges without a `@qos(periodMs)` hint: unknown to the model,
//!   and not compared.

use diaspec_apps::{cooker, homeassist, parking};
use diaspec_core::analysis::{analyze, EdgeCapacity, LoadKind};
use diaspec_core::model::{ActivationTrigger, CheckedSpec, Device, PublishMode};
use diaspec_integration::register_all;
use diaspec_runtime::entity::{AttributeMap, DeviceInstance, EntityId};
use diaspec_runtime::error::DeviceError;
use diaspec_runtime::trace::TraceKind;
use diaspec_runtime::value::Value;
use diaspec_runtime::Orchestrator;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const HOURS: u64 = 48;
const HOUR_MS: u64 = 60 * 60 * 1000;

/// What one run delivered, counted from its trace under the model's
/// endpoint names.
#[derive(Default)]
struct Delivered {
    /// Readings polled per `Device.source`.
    readings: BTreeMap<String, u64>,
    /// Activations per `[Context]`.
    contexts: BTreeMap<String, u64>,
    /// Activations per (`[Context]`, `(Controller)`) subscription.
    controllers: BTreeMap<(String, String), u64>,
    /// Actuations per (entity, action).
    actuations: BTreeMap<(String, String), u64>,
}

/// Runs `orch` for 48 simulated hours in one-hour slices, draining the
/// bounded trace buffer after each so that it never drops an event.
fn deliver(orch: &mut Orchestrator) -> Delivered {
    orch.set_tracing(true);
    let mut seen = Delivered::default();
    for hour in 1..=HOURS {
        orch.run_until(hour * HOUR_MS);
        assert_eq!(
            orch.trace_dropped(),
            0,
            "trace dropped events in hour {hour}"
        );
        for event in orch.take_trace() {
            match event.kind {
                TraceKind::PeriodicPoll {
                    device,
                    source,
                    readings,
                } => {
                    *seen
                        .readings
                        .entry(format!("{device}.{source}"))
                        .or_default() += readings as u64;
                }
                TraceKind::ContextActivation { context } => {
                    *seen.contexts.entry(format!("[{context}]")).or_default() += 1;
                }
                TraceKind::ControllerActivation { controller, from } => {
                    *seen
                        .controllers
                        .entry((format!("[{from}]"), format!("({controller})")))
                        .or_default() += 1;
                }
                TraceKind::Actuation { entity, action } => {
                    *seen.actuations.entry((entity, action)).or_default() += 1;
                }
                _ => {}
            }
        }
    }
    seen
}

/// `[Context]`s whose every publication is certain at the model's rate:
/// each activation is `always publish` on a periodic trigger or on a
/// context in this set (`no publish` and on-demand activations publish
/// nothing to subscribers).
fn certain_publishers(spec: &CheckedSpec) -> BTreeSet<String> {
    let mut certain = BTreeSet::new();
    for ctx in spec.context_topo_order() {
        let all = ctx
            .activations
            .iter()
            .all(|a| match (&a.trigger, a.publish) {
                (ActivationTrigger::OnDemand, _) | (_, PublishMode::No) => true,
                (ActivationTrigger::Periodic { .. }, PublishMode::Always) => true,
                (ActivationTrigger::Context(from), PublishMode::Always) => {
                    certain.contains(&format!("[{from}]"))
                }
                _ => false,
            });
        if all {
            certain.insert(format!("[{}]", ctx.name));
        }
    }
    certain
}

/// Compares a predicted count with a delivered one: equal when the
/// prediction is exact, at most the prediction otherwise.
fn compare(design: &str, what: &str, predicted: f64, delivered: u64, exact: bool) {
    let delivered = delivered as f64;
    if exact {
        assert_eq!(delivered, predicted, "{design}: {what}");
    } else {
        assert!(
            delivered <= predicted,
            "{design}: {what} delivered {delivered}, more than the predicted {predicted}"
        );
    }
}

/// Runs the launched `orch` for 48 hours and checks every edge of its
/// design's load model against the trace. Returns how many edges were
/// compared.
fn check(design: &str, orch: &mut Orchestrator) -> usize {
    let spec = orch.spec().clone();
    let edges = analyze(&spec).capacity.edges;
    let seen = deliver(orch);
    let registry = orch.registry();
    let predicted = |edge: &EdgeCapacity| {
        edge.msgs_per_hour(|family| registry.discover(family).count() as u64)
            .map(|rate| rate * HOURS as f64)
    };
    let certain = certain_publishers(&spec);
    let mut compared = 0;

    // Periodic edges, per polled source.
    let mut polled: BTreeMap<&str, f64> = BTreeMap::new();
    for edge in edges.iter().filter(|e| e.kind == LoadKind::Periodic) {
        *polled.entry(&edge.from).or_default() +=
            predicted(edge).expect("periodic edges are rated");
    }
    for (source, want) in polled {
        let got = seen.readings.get(source).copied().unwrap_or(0);
        compare(design, &format!("readings of {source}"), want, got, true);
        compared += 1;
    }

    // Publish edges into controllers, per subscription.
    for ctrl in spec.controllers() {
        for binding in &ctrl.bindings {
            let key = (format!("[{}]", binding.context), format!("({})", ctrl.name));
            let edge = edges
                .iter()
                .find(|e| e.kind == LoadKind::Publish && (&e.from, &e.to) == (&key.0, &key.1))
                .expect("every subscription is an edge");
            if let Some(want) = predicted(edge) {
                let got = seen.controllers.get(&key).copied().unwrap_or(0);
                let what = format!("{} -> {}", key.0, key.1);
                compare(design, &what, want, got, certain.contains(&key.0));
                compared += 1;
            }
        }
    }

    // Publish edges into contexts that only other contexts activate.
    for ctx in spec.contexts() {
        let context_triggered = ctx
            .activations
            .iter()
            .all(|a| matches!(a.trigger, ActivationTrigger::Context(_)));
        if !context_triggered {
            continue;
        }
        let to = format!("[{}]", ctx.name);
        let into: Vec<&EdgeCapacity> = edges
            .iter()
            .filter(|e| e.kind == LoadKind::Publish && e.to == to)
            .collect();
        let want: Option<f64> = into.iter().map(|e| predicted(e)).sum();
        if let Some(want) = want {
            let exact = into.iter().all(|e| certain.contains(&e.from));
            let got = seen.contexts.get(&to).copied().unwrap_or(0);
            compare(design, &format!("activations of {to}"), want, got, exact);
            compared += 1;
        }
    }

    // `do` edges, per actuated family and action (several controllers
    // may perform one). The family is the design's, not the edge's.
    let declared: BTreeMap<String, (&str, &str)> = spec
        .controllers()
        .flat_map(|c| &c.bindings)
        .flat_map(|b| &b.actions)
        .map(|(action, device)| {
            let to = format!("{device}.{action}()");
            (to, (device.as_str(), action.as_str()))
        })
        .collect();
    let mut actuated: BTreeMap<&str, Option<f64>> = BTreeMap::new();
    for edge in edges.iter().filter(|e| e.kind == LoadKind::Do) {
        let want = actuated.entry(&edge.to).or_insert(Some(0.0));
        *want = want.zip(predicted(edge)).map(|(a, b)| a + b);
    }
    for (to, want) in actuated {
        let Some(want) = want else { continue };
        let (family, declared_action) = declared[to];
        let got: u64 = seen
            .actuations
            .iter()
            .filter(|((entity, action), _)| {
                let device_type = &registry
                    .entity(&EntityId::from(entity.as_str()))
                    .expect("actuated entities are bound")
                    .device_type;
                action == declared_action && spec.device_is_subtype(device_type, family)
            })
            .map(|(_, count)| count)
            .sum();
        compare(design, &format!("actuations {to}"), want, got, false);
        compared += 1;
    }

    // Event edges without a hint: the model does not guess.
    for edge in edges.iter().filter(|e| e.kind == LoadKind::Event) {
        let family = edge.family.as_deref().expect("event edges have a family");
        if spec
            .device(family)
            .and_then(Device::qos_period_ms)
            .is_none()
        {
            assert_eq!(edge.msgs_per_device_hour, None, "{design}: {}", edge.from);
        }
    }
    compared
}

#[test]
fn parking_delivers_what_the_model_predicts() {
    let mut app = parking::build(parking::ParkingAppConfig {
        sensors_per_lot: 10,
        ..parking::ParkingAppConfig::default()
    })
    .unwrap();
    // 1 source, 3 controller subscriptions, ParkingSuggestion, 3 `do`s.
    assert_eq!(check("parking", &mut app.orchestrator), 8);
    assert!(app.orchestrator.drain_errors().is_empty());
}

#[test]
fn homeassist_delivers_what_the_model_predicts() {
    let mut app = homeassist::build(homeassist::HomeAssistConfig::default()).unwrap();
    // 1 source, 2 known subscriptions, InactivityAlert, 2 Light actions;
    // the NightDoorAlert chain and the `say` it shares are unknown.
    assert_eq!(check("homeassist", &mut app.orchestrator), 6);
}

#[test]
fn cooker_is_event_driven_and_unknown_to_the_model() {
    let mut app = cooker::build(cooker::CookerConfig::default()).unwrap();
    app.start_cooking();
    assert_eq!(check("cooker", &mut app.orchestrator), 0);
    let report = analyze(app.orchestrator.spec()).capacity;
    assert_eq!(report.unknown_edges, report.edges.len());
    // The traffic is there — one `Alert` activation per clock tick — but
    // only the environment knows its rate.
    assert!(app.orchestrator.metrics().context_activations >= HOURS * 3600);
}

/// A meter that always reads 1.0 and a display that accepts anything.
struct Fixed;
impl DeviceInstance for Fixed {
    fn query(&mut self, _source: &str, _now: u64) -> Result<Value, DeviceError> {
        Ok(Value::Float(1.0))
    }
    fn invoke(&mut self, _action: &str, _args: &[Value], _now: u64) -> Result<(), DeviceError> {
        Ok(())
    }
}

/// Runs a `Meter` → windowed context → `Dashboard` design through the
/// generic components with three meters and two dashboards.
fn check_window_fixture(design: &str, source: &str) -> usize {
    let spec = Arc::new(diaspec_core::compile_str(source).unwrap());
    let mut orch = Orchestrator::new(Arc::clone(&spec));
    register_all(&mut orch, &spec).unwrap();
    orch.begin_deployment();
    for i in 0..3 {
        let mut attrs = AttributeMap::new();
        attrs.insert("home".to_owned(), Value::from(format!("home-{i}").as_str()));
        orch.bind_entity(format!("meter-{i}").into(), "Meter", attrs, Box::new(Fixed))
            .unwrap();
    }
    for i in 0..2 {
        orch.bind_entity(
            format!("dashboard-{i}").into(),
            "Dashboard",
            AttributeMap::new(),
            Box::new(Fixed),
        )
        .unwrap();
    }
    orch.launch().unwrap();
    let compared = check(design, &mut orch);
    assert!(orch.drain_errors().is_empty(), "{design}");
    compared
}

/// A one-minute window over hourly polls (W0404): the engine closes it at
/// the next poll, once an hour — not 60 times.
#[test]
fn short_window_fires_once_per_poll() {
    let source = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../specs/lint/rate_window.spec"),
    )
    .unwrap();
    assert_eq!(check_window_fixture("rate_window", &source), 3);
}

/// A 25-minute window over 10-minute polls (W0305) closes every 30
/// minutes, and a zero window (W0404) at every poll.
#[test]
fn windows_stretch_to_whole_periods() {
    for (period, window) in [("10 min", "25 min"), ("1 min", "0 min")] {
        let source = format!(
            "device Meter {{ attribute home as String; source reading as Float; }}
             device Dashboard {{ action render(summary as String); }}
             context Usage as Float[] {{
               when periodic reading from Meter <{period}>
                 grouped by home every <{window}>
                 always publish;
             }}
             controller Refresh {{ when provided Usage do render on Dashboard; }}"
        );
        assert_eq!(
            check_window_fixture(&format!("every <{window}> over <{period}>"), &source),
            3
        );
    }
}

/// The simulator witness of the one budget pass on a single design
/// (`specs/lint/capacity_overload.spec`): W0407 is reported exactly when
/// the readings the engine polls from one `Meter` in a whole simulated
/// hour exceed its `@qos(capacityPerHour)`. The fixture asks 720 an hour
/// of a 500 budget; 20-second polls ask 360; a 720 budget is met, not
/// exceeded.
#[test]
fn w0407_is_reported_exactly_when_a_device_is_polled_over_its_budget() {
    const METERS: u64 = 3;
    let fixture = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../specs/lint/capacity_overload.spec"),
    )
    .unwrap();
    let variants = [
        ("capacity_overload", fixture.clone(), true),
        ("20 s polls", fixture.replace("<10 s>", "<20 s>"), false),
        (
            "a 720 budget",
            fixture.replace("capacityPerHour = 500", "capacityPerHour = 720"),
            false,
        ),
    ];
    for (variant, source, over) in variants {
        let spec = Arc::new(diaspec_core::compile_str(&source).unwrap());
        let reported = analyze(&spec).diagnostics.find("W0407").is_some();
        let mut orch = Orchestrator::new(Arc::clone(&spec));
        register_all(&mut orch, &spec).unwrap();
        orch.begin_deployment();
        for i in 0..METERS {
            orch.bind_entity(
                format!("meter-{i}").into(),
                "Meter",
                AttributeMap::new(),
                Box::new(Fixed),
            )
            .unwrap();
        }
        for device in ["Gauge", "Logger"] {
            orch.bind_entity(device.into(), device, AttributeMap::new(), Box::new(Fixed))
                .unwrap();
        }
        orch.launch().unwrap();
        let polled = deliver(&mut orch).readings["Meter.reading"];
        assert!(orch.drain_errors().is_empty(), "{variant}");
        let per_device_hour = polled as f64 / (METERS * HOURS) as f64;
        let budget = spec
            .device("Meter")
            .and_then(Device::qos_capacity_per_hour)
            .unwrap();
        assert_eq!(per_device_hour > budget as f64, over, "{variant}");
        assert_eq!(
            reported, over,
            "{variant}: {per_device_hour} readings a Meter an hour against {budget}"
        );
    }
}
