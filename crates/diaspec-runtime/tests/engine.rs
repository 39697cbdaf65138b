//! End-to-end tests of the orchestration engine: the three delivery
//! models, grouping/windows/MapReduce, SCC enforcement, transport effects,
//! runtime binding, and determinism.

use diaspec_core::compile_str;
use diaspec_runtime::component::{ContextActivation, MapReduceLogic};
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator, Phase, ProcessingMode};
use diaspec_runtime::entity::{AttributeMap, DeviceInstance, EntityId};
use diaspec_runtime::error::{ComponentError, DeviceError, RuntimeError};
use diaspec_runtime::transport::{LatencyModel, TransportConfig};
use diaspec_runtime::value::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------- shared fixtures ---------------------------------------------------

/// A driver returning a fixed value for every source; actuations recorded
/// in a shared counter.
struct FixedDriver {
    value: Value,
    actuations: Arc<AtomicU64>,
}

impl FixedDriver {
    fn boxed(value: Value) -> Box<dyn DeviceInstance> {
        Box::new(FixedDriver {
            value,
            actuations: Arc::new(AtomicU64::new(0)),
        })
    }

    fn with_counter(value: Value, counter: Arc<AtomicU64>) -> Box<dyn DeviceInstance> {
        Box::new(FixedDriver {
            value,
            actuations: counter,
        })
    }
}

impl DeviceInstance for FixedDriver {
    fn query(&mut self, _source: &str, _now: u64) -> Result<Value, DeviceError> {
        Ok(self.value.clone())
    }

    fn invoke(&mut self, _action: &str, _args: &[Value], _now: u64) -> Result<(), DeviceError> {
        self.actuations.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

const COOKER_SPEC: &str = r#"
    device Clock { source tickSecond as Integer; }
    device Cooker { source consumption as Float; action On; action Off; }
    device TvPrompter {
      source answer as String indexed by questionId as String;
      action askQuestion(question as String);
    }
    context Alert as Integer {
      when provided tickSecond from Clock
        get consumption from Cooker
        maybe publish;
    }
    controller Notify { when provided Alert do askQuestion on TvPrompter; }
    context RemoteTurnOff as Boolean {
      when provided answer from TvPrompter
        get consumption from Cooker
        maybe publish;
    }
    controller TurnOff { when provided RemoteTurnOff do Off on Cooker; }
"#;

const PARKING_SPEC: &str = r#"
    device PresenceSensor {
      attribute parkingLot as ParkingLotEnum;
      source presence as Boolean;
    }
    device DisplayPanel { action update(status as String); }
    device ParkingEntrancePanel extends DisplayPanel {
      attribute location as ParkingLotEnum;
    }
    context ParkingAvailability as Availability[] {
      when periodic presence from PresenceSensor <10 min>
        grouped by parkingLot
        with map as Boolean reduce as Integer
        always publish;
    }
    controller ParkingEntrancePanelController {
      when provided ParkingAvailability
        do update on ParkingEntrancePanel;
    }
    structure Availability {
      parkingLot as ParkingLotEnum;
      count as Integer;
    }
    enumeration ParkingLotEnum { A22, B16, D6 }
"#;

/// MapReduce phases of Figure 10: emit a record per free space, count per
/// lot.
struct AvailabilityMr;

impl MapReduceLogic for AvailabilityMr {
    fn map(&self, group: &Value, reading: &Value, emit: &mut dyn FnMut(Value, Value)) {
        if reading.as_bool() == Some(false) {
            emit(group.clone(), Value::Bool(true));
        }
    }

    fn reduce(&self, _key: &Value, values: &[Value]) -> Value {
        Value::Int(values.len() as i64)
    }
}

fn availability_struct(lot: &Value, count: i64) -> Value {
    Value::structure(
        "Availability",
        [
            ("parkingLot".to_owned(), lot.clone()),
            ("count".to_owned(), Value::Int(count)),
        ],
    )
}

fn parking_orchestrator(transport: TransportConfig, sensors_per_lot: usize) -> Orchestrator {
    let spec = Arc::new(compile_str(PARKING_SPEC).unwrap());
    let mut orch = Orchestrator::with_transport(spec, transport);
    orch.register_context(
        "ParkingAvailability",
        |_api: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::Batch(batch) => {
                let reduced = batch.reduced.as_ref().expect("map/reduce declared");
                let list: Vec<Value> = reduced
                    .iter()
                    .map(|(lot, count)| availability_struct(lot, count.as_int().unwrap_or(0)))
                    .collect();
                Ok(Some(Value::Array(list)))
            }
            _ => Err(ComponentError::new(
                "ParkingAvailability",
                "unexpected activation",
            )),
        },
    )
    .unwrap();
    orch.register_map_reduce("ParkingAvailability", AvailabilityMr)
        .unwrap();
    orch.register_controller(
        "ParkingEntrancePanelController",
        |api: &mut ControllerApi<'_>, _from: &str, value: &Value| {
            for availability in value.as_array().unwrap_or(&[]) {
                let lot = availability.field("parkingLot").expect("struct field");
                let count = availability
                    .field("count")
                    .and_then(Value::as_int)
                    .unwrap_or(0);
                let panels = api
                    .discover("ParkingEntrancePanel")?
                    .with_attribute("location", lot)
                    .ids();
                for panel in panels {
                    api.invoke(&panel, "update", &[Value::from(format!("free: {count}"))])?;
                }
            }
            Ok(())
        },
    )
    .unwrap();

    orch.begin_deployment();
    let lots = ["A22", "B16", "D6"];
    for lot in lots {
        for i in 0..sensors_per_lot {
            // Odd sensors occupied, even sensors free.
            let occupied = i % 2 == 1;
            let mut attrs = AttributeMap::new();
            attrs.insert(
                "parkingLot".to_owned(),
                Value::enum_value("ParkingLotEnum", lot),
            );
            orch.bind_entity(
                format!("sensor-{lot}-{i}").into(),
                "PresenceSensor",
                attrs,
                FixedDriver::boxed(Value::Bool(occupied)),
            )
            .unwrap();
        }
        let mut attrs = AttributeMap::new();
        attrs.insert(
            "location".to_owned(),
            Value::enum_value("ParkingLotEnum", lot),
        );
        orch.bind_entity(
            format!("panel-{lot}").into(),
            "ParkingEntrancePanel",
            attrs,
            FixedDriver::boxed(Value::Bool(false)),
        )
        .unwrap();
    }
    orch
}

// ---------- event-driven + query-driven (cooker, Figure 7) --------------------

#[test]
fn cooker_functional_chains_end_to_end() {
    let spec = Arc::new(compile_str(COOKER_SPEC).unwrap());
    let mut orch = Orchestrator::new(spec);

    // Alert fires when the cooker has been on >= 3 consecutive seconds.
    let mut seconds_on = 0i64;
    orch.register_context(
        "Alert",
        move |api: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::SourceEvent { .. } => {
                let consumption = api
                    .get_device_source("Cooker", "consumption")?
                    .first()
                    .and_then(|(_, v)| v.as_float())
                    .unwrap_or(0.0);
                if consumption > 0.5 {
                    seconds_on += 1;
                } else {
                    seconds_on = 0;
                }
                if seconds_on >= 3 {
                    Ok(Some(Value::Int(seconds_on)))
                } else {
                    Ok(None)
                }
            }
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_controller(
        "Notify",
        |api: &mut ControllerApi<'_>, _from: &str, _value: &Value| {
            for prompter in api.discover("TvPrompter")?.ids() {
                api.invoke(
                    &prompter,
                    "askQuestion",
                    &[Value::from("Cooker still on. Turn it off?")],
                )?;
            }
            Ok(())
        },
    )
    .unwrap();
    orch.register_context(
        "RemoteTurnOff",
        |api: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::SourceEvent { value, .. } => {
                if value.as_str() == Some("yes") {
                    let still_on = api
                        .get_device_source("Cooker", "consumption")?
                        .first()
                        .and_then(|(_, v)| v.as_float())
                        .unwrap_or(0.0)
                        > 0.5;
                    if still_on {
                        return Ok(Some(Value::Bool(true)));
                    }
                }
                Ok(None)
            }
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_controller(
        "TurnOff",
        |api: &mut ControllerApi<'_>, _from: &str, _value: &Value| {
            for cooker in api.discover("Cooker")?.ids() {
                api.invoke(&cooker, "Off", &[])?;
            }
            Ok(())
        },
    )
    .unwrap();

    let cooker_offs = Arc::new(AtomicU64::new(0));
    let prompter_questions = Arc::new(AtomicU64::new(0));
    orch.bind_entity(
        "clock-1".into(),
        "Clock",
        AttributeMap::new(),
        FixedDriver::boxed(Value::Int(0)),
    )
    .unwrap();
    orch.bind_entity(
        "cooker-1".into(),
        "Cooker",
        AttributeMap::new(),
        FixedDriver::with_counter(Value::Float(1.8), Arc::clone(&cooker_offs)),
    )
    .unwrap();
    orch.bind_entity(
        "tv-1".into(),
        "TvPrompter",
        AttributeMap::new(),
        FixedDriver::with_counter(Value::from("yes"), Arc::clone(&prompter_questions)),
    )
    .unwrap();
    orch.launch().unwrap();

    // Five clock ticks, one per second.
    let clock: EntityId = "clock-1".into();
    for s in 1..=5u64 {
        orch.emit_at(s * 1000, &clock, "tickSecond", Value::Int(s as i64), None)
            .unwrap();
    }
    orch.run_until(6_000);

    // The alert fired on ticks 3, 4, 5 -> three questions asked.
    assert_eq!(prompter_questions.load(Ordering::SeqCst), 3);
    assert_eq!(orch.last_value("Alert"), Some(&Value::Int(5)));

    // The user answers "yes" (indexed by the question id).
    let tv: EntityId = "tv-1".into();
    orch.emit_at(
        7_000,
        &tv,
        "answer",
        Value::from("yes"),
        Some(Value::from("q-1")),
    )
    .unwrap();
    orch.run_until(8_000);

    assert_eq!(cooker_offs.load(Ordering::SeqCst), 1, "cooker turned off");
    assert!(orch.drain_errors().is_empty());
    let m = orch.metrics();
    assert_eq!(m.emissions, 6);
    assert!(m.component_queries >= 6, "gets were issued");
    assert_eq!(m.actuations, 4); // 3 askQuestion + 1 Off
    assert_eq!(m.publications, 4); // Alert x3 + RemoteTurnOff x1
    assert_eq!(m.publications_declined, 2); // Alert stayed silent on ticks 1 and 2
}

// ---------- periodic + grouped + MapReduce (parking, Figures 8/10/11) --------

#[test]
fn parking_periodic_mapreduce_updates_panels() {
    let mut orch = parking_orchestrator(TransportConfig::default(), 10);
    orch.launch().unwrap();

    // One 10-minute period: one poll, one batch, one publication.
    orch.run_until(10 * 60 * 1000);
    assert!(orch.drain_errors().is_empty());

    let m = *orch.metrics();
    assert_eq!(m.periodic_deliveries, 1);
    assert_eq!(m.readings_polled, 30);
    assert_eq!(m.map_reduce_executions, 1);
    assert_eq!(m.publications, 1);
    assert_eq!(m.actuations, 3, "one panel update per lot");

    // 5 free sensors per lot (indices 0,2,4,6,8).
    let value = orch.last_value("ParkingAvailability").unwrap();
    let list = value.as_array().unwrap();
    assert_eq!(list.len(), 3);
    for availability in list {
        assert_eq!(availability.field("count").and_then(Value::as_int), Some(5));
    }

    // Three more periods.
    orch.run_until(40 * 60 * 1000);
    assert_eq!(orch.metrics().periodic_deliveries, 4);
    assert_eq!(orch.metrics().actuations, 12);
}

#[test]
fn parallel_mapreduce_matches_serial() {
    let run = |mode: ProcessingMode| {
        let mut orch = parking_orchestrator(TransportConfig::default(), 50);
        orch.set_processing_mode(mode);
        orch.launch().unwrap();
        orch.run_until(10 * 60 * 1000);
        assert!(orch.drain_errors().is_empty());
        orch.last_value("ParkingAvailability").cloned()
    };
    let serial = run(ProcessingMode::Serial);
    for workers in [1, 2, 4, 8] {
        assert_eq!(serial, run(ProcessingMode::Parallel(workers)));
    }
}

// ---------- aggregation windows (`every <24 hr>`) -----------------------------

#[test]
fn window_aggregates_multiple_periods() {
    let spec = Arc::new(
        compile_str(
            r#"
            device Sensor {
              attribute zone as String;
              source reading as Integer;
            }
            device Sink { action absorb(v as Float); }
            context Hourly as Float {
              when periodic reading from Sensor <10 min>
                grouped by zone every <1 hr>
                always publish;
            }
            controller Out { when provided Hourly do absorb on Sink; }
            "#,
        )
        .unwrap(),
    );
    let mut orch = Orchestrator::new(spec);
    orch.register_context(
        "Hourly",
        |_api: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::Batch(batch) => {
                // Average over the whole window: every reading has a zone,
                // so every reading is a grouped record.
                assert!(batch.readings.is_empty());
                let records = batch.grouped.as_ref().expect("grouping declared").records();
                let n = records.len().max(1);
                let sum: i64 = records.filter_map(|(_, v)| v.as_int()).sum();
                assert_eq!(batch.window_ms, Some(3_600_000));
                Ok(Some(Value::Float(sum as f64 / n as f64)))
            }
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_controller(
        "Out",
        |api: &mut ControllerApi<'_>, _from: &str, value: &Value| {
            for sink in api.discover("Sink")?.ids() {
                api.invoke(&sink, "absorb", std::slice::from_ref(value))?;
            }
            Ok(())
        },
    )
    .unwrap();
    let mut attrs = AttributeMap::new();
    attrs.insert("zone".to_owned(), Value::from("z1"));
    orch.bind_entity(
        "s1".into(),
        "Sensor",
        attrs,
        FixedDriver::boxed(Value::Int(4)),
    )
    .unwrap();
    orch.bind_entity(
        "sink".into(),
        "Sink",
        AttributeMap::new(),
        FixedDriver::boxed(Value::Int(0)),
    )
    .unwrap();
    orch.launch().unwrap();

    // After 59 minutes: five polls buffered, nothing delivered yet.
    orch.run_until(59 * 60 * 1000);
    assert_eq!(orch.metrics().periodic_deliveries, 5);
    assert_eq!(orch.metrics().publications, 0);

    // The 6th poll at exactly 60 min flushes the window: 6 readings.
    orch.run_until(61 * 60 * 1000);
    assert_eq!(orch.metrics().publications, 1);
    assert_eq!(orch.last_value("Hourly"), Some(&Value::Float(4.0)));
    assert!(orch.drain_errors().is_empty());

    // A second window flushes after another hour.
    orch.run_until(2 * 60 * 60 * 1000 + 1000);
    assert_eq!(orch.metrics().publications, 2);
}

// ---------- `when required` / get_context -------------------------------------

#[test]
fn on_demand_context_pulled_via_get() {
    let spec = Arc::new(
        compile_str(
            r#"
            device Sensor { source v as Integer; }
            device Sink { action absorb; }
            context Baseline as Integer {
              when periodic v from Sensor <1 min> no publish;
              when required;
            }
            context Deviation as Integer {
              when provided v from Sensor
                get Baseline
                maybe publish;
            }
            controller Out { when provided Deviation do absorb on Sink; }
            "#,
        )
        .unwrap(),
    );
    let mut orch = Orchestrator::new(spec);
    // Baseline accumulates the max seen; serves it on demand.
    let mut max_seen = 0i64;
    orch.register_context(
        "Baseline",
        move |_api: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::Batch(batch) => {
                for r in &batch.readings {
                    max_seen = max_seen.max(r.value.as_int().unwrap_or(0));
                }
                Ok(None) // `no publish`
            }
            ContextActivation::OnDemand => Ok(Some(Value::Int(max_seen))),
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_context(
        "Deviation",
        |api: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::SourceEvent { value, .. } => {
                let baseline = api.get_context("Baseline")?.as_int().unwrap_or(0);
                let v = value.as_int().unwrap_or(0);
                if v > baseline {
                    Ok(Some(Value::Int(v - baseline)))
                } else {
                    Ok(None)
                }
            }
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_controller(
        "Out",
        |_api: &mut ControllerApi<'_>, _from: &str, _v: &Value| Ok(()),
    )
    .unwrap();
    orch.bind_entity(
        "s1".into(),
        "Sensor",
        AttributeMap::new(),
        FixedDriver::boxed(Value::Int(10)),
    )
    .unwrap();
    orch.bind_entity(
        "sink".into(),
        "Sink",
        AttributeMap::new(),
        FixedDriver::boxed(Value::Int(0)),
    )
    .unwrap();
    orch.launch().unwrap();

    // Let two periodic polls feed the baseline (value 10).
    orch.run_until(2 * 60 * 1000);
    // Emit a spike of 17: deviation = 7 over the baseline of 10.
    let s1: EntityId = "s1".into();
    orch.emit_at(130_000, &s1, "v", Value::Int(17), None)
        .unwrap();
    orch.run_until(140_000);

    assert!(orch.drain_errors().is_empty());
    assert_eq!(orch.last_value("Deviation"), Some(&Value::Int(7)));
    assert!(orch.metrics().on_demand_computations >= 1);
}

// ---------- SCC and contract enforcement --------------------------------------

#[test]
fn undeclared_get_is_rejected() {
    let spec = Arc::new(compile_str(COOKER_SPEC).unwrap());
    let mut orch = Orchestrator::new(spec);
    orch.register_context(
        "Alert",
        |api: &mut ContextApi<'_>, activation: ContextActivation<'_>| {
            if let ContextActivation::SourceEvent { .. } = activation {
                // The design declares `get consumption from Cooker`, not
                // `get answer from TvPrompter`.
                let result = api.get_device_source("TvPrompter", "answer");
                assert!(
                    matches!(result, Err(RuntimeError::ContractViolation { .. })),
                    "undeclared get must be rejected: {result:?}"
                );
            }
            Ok(None)
        },
    )
    .unwrap();
    orch.register_context(
        "RemoteTurnOff",
        |_: &mut ContextApi<'_>, _: ContextActivation<'_>| Ok(None),
    )
    .unwrap();
    orch.register_controller("Notify", |_: &mut ControllerApi<'_>, _: &str, _: &Value| {
        Ok(())
    })
    .unwrap();
    orch.register_controller(
        "TurnOff",
        |_: &mut ControllerApi<'_>, _: &str, _: &Value| Ok(()),
    )
    .unwrap();
    orch.bind_entity(
        "clock-1".into(),
        "Clock",
        AttributeMap::new(),
        FixedDriver::boxed(Value::Int(0)),
    )
    .unwrap();
    orch.launch().unwrap();
    let clock: EntityId = "clock-1".into();
    orch.emit_at(1000, &clock, "tickSecond", Value::Int(1), None)
        .unwrap();
    orch.run_until(2000);
    // The assertion inside the context verified rejection; no contained
    // errors because the logic handled it.
    assert!(orch.drain_errors().is_empty());
}

#[test]
fn undeclared_actuation_is_rejected() {
    let spec = Arc::new(compile_str(COOKER_SPEC).unwrap());
    let mut orch = Orchestrator::new(spec);
    orch.register_context(
        "Alert",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::SourceEvent { .. } => Ok(Some(Value::Int(1))),
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_context(
        "RemoteTurnOff",
        |_: &mut ContextApi<'_>, _: ContextActivation<'_>| Ok(None),
    )
    .unwrap();
    // Notify declares `do askQuestion on TvPrompter`, not `Off on Cooker`.
    orch.register_controller(
        "Notify",
        |api: &mut ControllerApi<'_>, _: &str, _: &Value| {
            let cooker: EntityId = "cooker-1".into();
            let result = api.invoke(&cooker, "Off", &[]);
            assert!(
                matches!(result, Err(RuntimeError::ContractViolation { .. })),
                "undeclared actuation must be rejected: {result:?}"
            );
            // Discovery of an undeclared device family is rejected too.
            assert!(api.discover("Cooker").is_err());
            Ok(())
        },
    )
    .unwrap();
    orch.register_controller(
        "TurnOff",
        |_: &mut ControllerApi<'_>, _: &str, _: &Value| Ok(()),
    )
    .unwrap();
    orch.bind_entity(
        "clock-1".into(),
        "Clock",
        AttributeMap::new(),
        FixedDriver::boxed(Value::Int(0)),
    )
    .unwrap();
    orch.bind_entity(
        "cooker-1".into(),
        "Cooker",
        AttributeMap::new(),
        FixedDriver::boxed(Value::Float(0.0)),
    )
    .unwrap();
    orch.bind_entity(
        "tv-1".into(),
        "TvPrompter",
        AttributeMap::new(),
        FixedDriver::boxed(Value::from("")),
    )
    .unwrap();
    orch.launch().unwrap();
    let clock: EntityId = "clock-1".into();
    orch.emit_at(1000, &clock, "tickSecond", Value::Int(1), None)
        .unwrap();
    orch.run_until(2000);
    assert_eq!(orch.metrics().actuations, 0);
}

#[test]
fn publish_contract_violations_are_contained() {
    let spec = Arc::new(
        compile_str(
            r#"
            device Sensor { source v as Integer; }
            device Sink { action absorb; }
            context Always as Integer { when provided v from Sensor always publish; }
            controller Out { when provided Always do absorb on Sink; }
            "#,
        )
        .unwrap(),
    );
    let mut orch = Orchestrator::new(spec);
    // Violates `always publish` by returning None.
    orch.register_context(
        "Always",
        |_: &mut ContextApi<'_>, _: ContextActivation<'_>| Ok(None),
    )
    .unwrap();
    orch.register_controller(
        "Out",
        |_: &mut ControllerApi<'_>, _: &str, _: &Value| Ok(()),
    )
    .unwrap();
    orch.bind_entity(
        "s1".into(),
        "Sensor",
        AttributeMap::new(),
        FixedDriver::boxed(Value::Int(1)),
    )
    .unwrap();
    orch.launch().unwrap();
    let s1: EntityId = "s1".into();
    orch.emit_at(10, &s1, "v", Value::Int(1), None).unwrap();
    orch.run_until(20);
    let errors = orch.drain_errors();
    assert_eq!(errors.len(), 1);
    assert!(
        matches!(errors[0].error, RuntimeError::ContractViolation { .. }),
        "{errors:?}"
    );
}

#[test]
fn published_value_type_checked() {
    let spec = Arc::new(
        compile_str(
            r#"
            device Sensor { source v as Integer; }
            device Sink { action absorb; }
            context C as Integer { when provided v from Sensor always publish; }
            controller Out { when provided C do absorb on Sink; }
            "#,
        )
        .unwrap(),
    );
    let mut orch = Orchestrator::new(spec);
    // Publishes a Float where Integer is declared.
    orch.register_context("C", |_: &mut ContextApi<'_>, _: ContextActivation<'_>| {
        Ok(Some(Value::Float(1.5)))
    })
    .unwrap();
    orch.register_controller(
        "Out",
        |_: &mut ControllerApi<'_>, _: &str, _: &Value| Ok(()),
    )
    .unwrap();
    orch.bind_entity(
        "s1".into(),
        "Sensor",
        AttributeMap::new(),
        FixedDriver::boxed(Value::Int(1)),
    )
    .unwrap();
    orch.launch().unwrap();
    let s1: EntityId = "s1".into();
    orch.emit_at(10, &s1, "v", Value::Int(1), None).unwrap();
    orch.run_until(20);
    let errors = orch.drain_errors();
    assert_eq!(errors.len(), 1);
    assert!(matches!(errors[0].error, RuntimeError::TypeMismatch { .. }));
    assert_eq!(orch.metrics().publications, 0, "bad value not routed");
}

// ---------- transport effects --------------------------------------------------

#[test]
fn transport_latency_delays_delivery() {
    let transport = TransportConfig {
        latency: LatencyModel::Fixed(500),
        ..TransportConfig::default()
    };
    let spec = Arc::new(
        compile_str(
            r#"
            device Sensor { source v as Integer; }
            device Sink { action absorb; }
            context C as Integer { when provided v from Sensor always publish; }
            controller Out { when provided C do absorb on Sink; }
            "#,
        )
        .unwrap(),
    );
    let mut orch = Orchestrator::with_transport(spec, transport);
    orch.register_context("C", |_: &mut ContextApi<'_>, _: ContextActivation<'_>| {
        Ok(Some(Value::Int(1)))
    })
    .unwrap();
    let actuations = Arc::new(AtomicU64::new(0));
    orch.register_controller("Out", |api: &mut ControllerApi<'_>, _: &str, _: &Value| {
        for sink in api.discover("Sink")?.ids() {
            api.invoke(&sink, "absorb", &[])?;
        }
        Ok(())
    })
    .unwrap();
    orch.bind_entity(
        "s1".into(),
        "Sensor",
        AttributeMap::new(),
        FixedDriver::boxed(Value::Int(1)),
    )
    .unwrap();
    orch.bind_entity(
        "sink".into(),
        "Sink",
        AttributeMap::new(),
        FixedDriver::with_counter(Value::Int(0), Arc::clone(&actuations)),
    )
    .unwrap();
    orch.launch().unwrap();
    let s1: EntityId = "s1".into();
    orch.emit_at(0, &s1, "v", Value::Int(1), None).unwrap();

    // Emission at t=0, source->context hop lands at 500, context->controller
    // hop at 1000.
    orch.run_until(999);
    assert_eq!(actuations.load(Ordering::SeqCst), 0);
    orch.run_until(1000);
    assert_eq!(actuations.load(Ordering::SeqCst), 1);
    assert_eq!(orch.metrics().mean_transport_latency_ms(), 500.0);
}

#[test]
fn lossy_transport_drops_messages() {
    let transport = TransportConfig {
        loss_probability: 1.0,
        seed: 3,
        ..TransportConfig::default()
    };
    let spec = Arc::new(
        compile_str(
            r#"
            device Sensor { source v as Integer; }
            device Sink { action absorb; }
            context C as Integer { when provided v from Sensor always publish; }
            controller Out { when provided C do absorb on Sink; }
            "#,
        )
        .unwrap(),
    );
    let mut orch = Orchestrator::with_transport(spec, transport);
    orch.register_context("C", |_: &mut ContextApi<'_>, _: ContextActivation<'_>| {
        Ok(Some(Value::Int(1)))
    })
    .unwrap();
    orch.register_controller(
        "Out",
        |_: &mut ControllerApi<'_>, _: &str, _: &Value| Ok(()),
    )
    .unwrap();
    orch.bind_entity(
        "s1".into(),
        "Sensor",
        AttributeMap::new(),
        FixedDriver::boxed(Value::Int(1)),
    )
    .unwrap();
    orch.launch().unwrap();
    let s1: EntityId = "s1".into();
    for t in 0..10 {
        orch.emit_at(t * 100, &s1, "v", Value::Int(1), None)
            .unwrap();
    }
    orch.run_until(10_000);
    assert_eq!(orch.metrics().messages_lost, 10);
    assert_eq!(orch.metrics().context_activations, 0);
}

// ---------- processes and runtime binding --------------------------------------

#[test]
fn process_drives_emissions_and_runtime_binding() {
    let spec = Arc::new(
        compile_str(
            r#"
            device Sensor { source v as Integer; }
            device Sink { action absorb; }
            context C as Integer { when provided v from Sensor always publish; }
            controller Out { when provided C do absorb on Sink; }
            "#,
        )
        .unwrap(),
    );
    let mut orch = Orchestrator::new(spec);
    orch.register_context(
        "C",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::SourceEvent { value, .. } => Ok(Some((*value).clone())),
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_controller(
        "Out",
        |_: &mut ControllerApi<'_>, _: &str, _: &Value| Ok(()),
    )
    .unwrap();
    orch.bind_entity(
        "sink".into(),
        "Sink",
        AttributeMap::new(),
        FixedDriver::boxed(Value::Int(0)),
    )
    .unwrap();
    orch.launch().unwrap();
    assert_eq!(orch.phase(), Phase::Launched);

    // A process that binds a sensor at its first wake, then emits an
    // increasing value every 100 ms, unbinding at the end.
    let mut tick = 0i64;
    orch.spawn_process_at(
        "generator",
        move |api: &mut diaspec_runtime::engine::ProcessApi<'_>| {
            let sensor: EntityId = "proc-sensor".into();
            if tick == 0 {
                api.bind_entity(
                    sensor.clone(),
                    "Sensor",
                    AttributeMap::new(),
                    FixedDriver::boxed(Value::Int(0)),
                )
                .unwrap();
            }
            if tick == 5 {
                api.unbind_entity(&sensor).unwrap();
                return None;
            }
            api.emit(&sensor, "v", Value::Int(tick), None).unwrap();
            tick += 1;
            Some(api.now() + 100)
        },
        50,
    );
    orch.run_until(10_000);
    assert!(orch.drain_errors().is_empty());
    assert_eq!(orch.metrics().emissions, 5);
    assert_eq!(orch.last_value("C"), Some(&Value::Int(4)));
    // The runtime-bound entity is gone again.
    assert!(!orch.registry().contains(&"proc-sensor".into()));
    assert!(orch.registry().contains(&"sink".into()));
}

// ---------- launch validation ---------------------------------------------------

#[test]
fn launch_requires_all_logic() {
    let spec = Arc::new(compile_str(PARKING_SPEC).unwrap());
    let mut orch = Orchestrator::new(Arc::clone(&spec));
    // Nothing registered at all.
    let err = orch.launch().unwrap_err();
    assert!(matches!(err, RuntimeError::Configuration(_)), "{err}");

    // Context logic but no MapReduce phases.
    orch.register_context(
        "ParkingAvailability",
        |_: &mut ContextApi<'_>, _: ContextActivation<'_>| Ok(None),
    )
    .unwrap();
    orch.register_controller(
        "ParkingEntrancePanelController",
        |_: &mut ControllerApi<'_>, _: &str, _: &Value| Ok(()),
    )
    .unwrap();
    let err = orch.launch().unwrap_err();
    assert!(
        err.to_string().contains("MapReduce"),
        "missing MapReduce must be reported: {err}"
    );

    orch.register_map_reduce("ParkingAvailability", AvailabilityMr)
        .unwrap();
    orch.launch().unwrap();
    // Double launch rejected.
    assert!(orch.launch().is_err());
}

#[test]
fn registration_validates_names_and_duplicates() {
    let spec = Arc::new(compile_str(PARKING_SPEC).unwrap());
    let mut orch = Orchestrator::new(spec);
    let nop_ctx = |_: &mut ContextApi<'_>, _: ContextActivation<'_>| Ok(None);
    assert!(matches!(
        orch.register_context("Ghost", nop_ctx).unwrap_err(),
        RuntimeError::Unknown { .. }
    ));
    orch.register_context("ParkingAvailability", nop_ctx)
        .unwrap();
    assert!(
        orch.register_context("ParkingAvailability", nop_ctx)
            .is_err(),
        "duplicate logic registration must be rejected"
    );
    // ParkingAvailability declares map/reduce: first registration is fine,
    // the second is a duplicate.
    orch.register_map_reduce("ParkingAvailability", AvailabilityMr)
        .unwrap();
    assert!(orch
        .register_map_reduce("ParkingAvailability", AvailabilityMr)
        .is_err());
    // Controllers validate names too.
    let nop_ctl = |_: &mut ControllerApi<'_>, _: &str, _: &Value| Ok(());
    assert!(orch.register_controller("Ghost", nop_ctl).is_err());
    orch.register_controller("ParkingEntrancePanelController", nop_ctl)
        .unwrap();
    assert!(orch
        .register_controller("ParkingEntrancePanelController", nop_ctl)
        .is_err());
}

#[test]
fn map_reduce_registration_requires_declaration() {
    let spec = Arc::new(
        compile_str(
            r#"
            device Sensor { source v as Integer; }
            device Sink { action absorb; }
            context Plain as Integer { when provided v from Sensor always publish; }
            controller Out { when provided Plain do absorb on Sink; }
            "#,
        )
        .unwrap(),
    );
    let mut orch = Orchestrator::new(spec);
    let err = orch
        .register_map_reduce("Plain", AvailabilityMr)
        .unwrap_err();
    assert!(
        err.to_string().contains("map"),
        "must explain the missing declaration: {err}"
    );
}

// ---------- determinism ----------------------------------------------------------

#[test]
fn identical_seeds_produce_identical_runs() {
    let transport = TransportConfig {
        latency: LatencyModel::Uniform {
            min_ms: 1,
            max_ms: 300,
        },
        loss_probability: 0.1,
        seed: 1234,
    };
    let run = || {
        let mut orch = parking_orchestrator(transport, 20);
        orch.launch().unwrap();
        orch.run_until(60 * 60 * 1000);
        (
            *orch.metrics(),
            orch.last_value("ParkingAvailability").cloned(),
        )
    };
    let (m1, v1) = run();
    let (m2, v2) = run();
    assert_eq!(m1, m2);
    assert_eq!(v1, v2);
    assert!(m1.messages_lost > 0, "losses occurred in this config");
}

// ---------- binding churn during periodic delivery -----------------------------

#[test]
fn entities_bound_and_unbound_mid_run_affect_subsequent_polls() {
    let spec = Arc::new(
        compile_str(
            r#"
            device Sensor { attribute zone as String; source v as Integer; }
            device Sink { action absorb; }
            context Count as Integer {
              when periodic v from Sensor <1 min> always publish;
            }
            controller Out { when provided Count do absorb on Sink; }
            "#,
        )
        .unwrap(),
    );
    let mut orch = Orchestrator::new(spec);
    orch.register_context(
        "Count",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::Batch(batch) => Ok(Some(Value::Int(batch.readings.len() as i64))),
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_controller(
        "Out",
        |_: &mut ControllerApi<'_>, _: &str, _: &Value| Ok(()),
    )
    .unwrap();
    let bind = |orch: &mut Orchestrator, id: &str| {
        let mut attrs = AttributeMap::new();
        attrs.insert("zone".to_owned(), Value::from("z"));
        orch.bind_entity(
            id.into(),
            "Sensor",
            attrs,
            FixedDriver::boxed(Value::Int(1)),
        )
        .unwrap();
    };
    bind(&mut orch, "s-1");
    bind(&mut orch, "s-2");
    orch.bind_entity(
        "sink".into(),
        "Sink",
        AttributeMap::new(),
        FixedDriver::boxed(Value::Int(0)),
    )
    .unwrap();
    orch.launch().unwrap();

    // First period: two sensors.
    orch.run_until(60_000);
    assert_eq!(orch.last_value("Count"), Some(&Value::Int(2)));

    // A third sensor joins at runtime; next poll sees three.
    bind(&mut orch, "s-3");
    orch.run_until(120_000);
    assert_eq!(orch.last_value("Count"), Some(&Value::Int(3)));

    // Two leave; next poll sees one.
    orch.unbind_entity(&"s-1".into()).unwrap();
    orch.unbind_entity(&"s-2".into()).unwrap();
    orch.run_until(180_000);
    assert_eq!(orch.last_value("Count"), Some(&Value::Int(1)));
    assert!(orch.drain_errors().is_empty());
}

// ---------- batch order and window contents -------------------------------------

/// What one delivered batch held: its grouped records in batch order,
/// as (key, reading), and the `grouped by` partition. The `n`-th panel
/// bound (`p-{n + 1}`) reports `10 × minute + n`, so a reading names its
/// entity.
#[derive(Debug, Clone, PartialEq)]
struct SeenBatch {
    records: Vec<(Value, Value)>,
    grouped: Vec<(Value, Vec<Value>)>,
}

impl SeenBatch {
    /// The entity behind each record, in batch order.
    fn entities(&self) -> Vec<String> {
        self.records
            .iter()
            .map(|(_, v)| format!("p-{}", v.as_int().unwrap() % 10 + 1))
            .collect()
    }
}

/// Polls the `level` source of the `Panel` family every 10 minutes,
/// grouped by `zone`, with `window` (e.g. `"every <1 hr>"`, or `""`)
/// spliced into the activation; returns every batch the context was
/// handed during `minutes` of simulated time. Bindings: two plain
/// `Panel`s (`p-2`, `p-4`) and two `EntrancePanel`s (`p-1`, `p-3`), each
/// reporting a value that differs per entity and per poll.
fn panel_batches(window: &str, faults: Option<u64>, minutes: u64) -> Vec<SeenBatch> {
    use diaspec_runtime::fault::FaultPlan;
    use std::sync::Mutex;

    let spec = Arc::new(
        compile_str(&format!(
            r#"
            device Panel {{ attribute zone as String; source level as Integer; }}
            device EntrancePanel extends Panel {{ action update(status as String); }}
            context Levels as Integer {{
              when periodic level from Panel <10 min>
                grouped by zone {window}
                maybe publish;
            }}
            controller Show {{ when provided Levels do update on EntrancePanel; }}
            "#
        ))
        .unwrap(),
    );
    let seen: Arc<Mutex<Vec<SeenBatch>>> = Arc::default();
    let mut orch = Orchestrator::new(spec);
    let sink = Arc::clone(&seen);
    orch.register_context(
        "Levels",
        move |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| {
            if let ContextActivation::Batch(batch) = activation {
                // Every panel has a zone: no reading is ungrouped.
                assert!(batch.readings.is_empty());
                let grouped = batch.grouped.as_ref().expect("grouping declared");
                sink.lock().unwrap().push(SeenBatch {
                    records: grouped
                        .records()
                        .map(|(k, v)| (k.value().clone(), v.value().clone()))
                        .collect(),
                    grouped: grouped
                        .iter()
                        .map(|(k, vs)| {
                            (
                                k.value().clone(),
                                vs.iter().map(|v| v.value().clone()).collect(),
                            )
                        })
                        .collect(),
                });
            }
            // Never publishing keeps the fault injector's sample sequence
            // identical between the windowed and the unwindowed design.
            Ok(None)
        },
    )
    .unwrap();
    orch.register_controller("Show", |_: &mut ControllerApi<'_>, _: &str, _: &Value| {
        Ok(())
    })
    .unwrap();
    for (n, (id, ty, zone)) in [
        ("p-1", "EntrancePanel", "north"),
        ("p-2", "Panel", "south"),
        ("p-3", "EntrancePanel", "south"),
        ("p-4", "Panel", "north"),
    ]
    .into_iter()
    .enumerate()
    {
        let mut attrs = AttributeMap::new();
        attrs.insert("zone".to_owned(), Value::from(zone));
        let driver = move |_: &str, now: u64| Ok(Value::Int((now / 60_000 * 10) as i64 + n as i64));
        orch.bind_entity(id.into(), ty, attrs, Box::new(driver))
            .unwrap();
    }
    if let Some(seed) = faults {
        orch.enable_faults(
            FaultPlan::seeded(seed)
                .drop_messages(0.25)
                .duplicate_messages(0.25),
        )
        .unwrap();
    }
    orch.launch().unwrap();
    orch.run_until(minutes * 60_000);
    assert!(orch.drain_errors().is_empty());
    let batches = seen.lock().unwrap().clone();
    batches
}

#[test]
fn batch_order_is_member_type_then_id_and_a_window_concatenates_polls() {
    // One poll: the family's exact types in name order (`EntrancePanel`
    // before `Panel`), ids in order within each — not global id order.
    let polls = panel_batches("", None, 25);
    assert_eq!(polls.len(), 2);
    assert_eq!(polls[0].entities(), ["p-1", "p-3", "p-2", "p-4"]);
    assert_eq!(polls[1].entities(), polls[0].entities());

    // A window holds its polls back to back, in poll order.
    let windows = panel_batches("every <20 min>", None, 25);
    assert_eq!(windows.len(), 1);
    assert_eq!(
        windows[0].entities(),
        ["p-1", "p-3", "p-2", "p-4", "p-1", "p-3", "p-2", "p-4"]
    );
    assert_eq!(
        windows[0].records,
        [polls[0].records.clone(), polls[1].records.clone()].concat()
    );
}

#[test]
fn window_batch_equals_the_concatenation_of_its_polls_under_drops_and_duplicates() {
    for seed in [3, 17, 4242] {
        // Two one-hour windows of six polls each.
        let polls = panel_batches("", Some(seed), 125);
        let windows = panel_batches("every <1 hr>", Some(seed), 125);
        assert_eq!(polls.len(), 12, "seed {seed}");
        assert_eq!(windows.len(), 2, "seed {seed}");
        let clean = 12 * 4;
        let delivered: usize = polls.iter().map(|p| p.records.len()).sum();
        assert_ne!(delivered, clean, "seed {seed}: the plan injected faults");

        for (w, window) in windows.iter().enumerate() {
            let its_polls = &polls[w * 6..(w + 1) * 6];
            let mut expected = SeenBatch {
                records: Vec::new(),
                grouped: Vec::new(),
            };
            let mut groups: std::collections::BTreeMap<Value, Vec<Value>> = Default::default();
            for poll in its_polls {
                expected.records.extend(poll.records.iter().cloned());
                for (key, values) in &poll.grouped {
                    groups
                        .entry(key.clone())
                        .or_default()
                        .extend(values.iter().cloned());
                }
            }
            expected.grouped = groups.into_iter().collect();
            assert_eq!(window, &expected, "seed {seed}, window {w}");
        }
    }
}
