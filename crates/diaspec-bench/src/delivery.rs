//! E11 — the three data-delivery models (paper §IV, after the WSN
//! taxonomy of Tilak et al. \[16\]).
//!
//! The same simulated world — `sensors` integer sensors whose values
//! change stochastically — is orchestrated three ways:
//!
//! - **periodic**: a context receives a batched poll of every sensor once
//!   a minute;
//! - **event-driven**: every value change is pushed as it happens;
//! - **query-driven**: a once-a-minute clock tick triggers the context,
//!   which `get`s all sensors on demand.
//!
//! The interesting output is the *message economy*: event-driven volume
//! scales with the change rate, periodic/query volume with sensor count —
//! so the crossover sits where the change rate passes one change per
//! sensor per period, exactly the WSN folklore the paper leans on.

use diaspec_devices::common::{CellSensor, SharedCell};
use diaspec_runtime::component::ContextActivation;
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator, ProcessApi};
use diaspec_runtime::entity::EntityId;
use diaspec_runtime::transport::TransportConfig;
use diaspec_runtime::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Which delivery model a run exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Model {
    /// Batched periodic polling.
    Periodic,
    /// Push on every change.
    EventDriven,
    /// Pull on demand.
    QueryDriven,
}

impl Model {
    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Model::Periodic => "periodic",
            Model::EventDriven => "event-driven",
            Model::QueryDriven => "query-driven",
        }
    }
}

/// One row of the delivery-model experiment.
#[derive(Debug, Clone, Serialize)]
pub struct DeliveryRow {
    /// The delivery model.
    pub model: Model,
    /// Number of sensors.
    pub sensors: usize,
    /// Expected value changes per sensor per minute.
    pub change_rate: f64,
    /// Simulated minutes.
    pub minutes: u64,
    /// Messages that crossed the (simulated) network.
    pub network_messages: u64,
    /// Synchronous component queries issued.
    pub queries: u64,
    /// Context activations.
    pub activations: u64,
    /// Wall-clock milliseconds for the whole run.
    pub wall_ms: f64,
}

const PERIODIC_SPEC: &str = r#"
    device Sensor { attribute zone as String; source v as Integer; }
    device Sink { action absorb; }
    context Agg as Integer {
      when periodic v from Sensor <1 min> always publish;
    }
    controller Out { when provided Agg do absorb on Sink; }
"#;

const EVENT_SPEC: &str = r#"
    device Sensor { attribute zone as String; source v as Integer; }
    device Sink { action absorb; }
    context Agg as Integer {
      when provided v from Sensor always publish;
    }
    controller Out { when provided Agg do absorb on Sink; }
"#;

const QUERY_SPEC: &str = r#"
    device Clock { source tick as Integer; }
    device Sensor { attribute zone as String; source v as Integer; }
    device Sink { action absorb; }
    context Agg as Integer {
      when provided tick from Clock
        get v from Sensor
        always publish;
    }
    controller Out { when provided Agg do absorb on Sink; }
"#;

struct World {
    cells: Vec<SharedCell<i64>>,
    rng: StdRng,
    change_probability_per_step: f64,
    step_ms: u64,
    /// Emit change events (event-driven model only).
    emit: bool,
    until_ms: u64,
}

impl diaspec_runtime::process::Process for World {
    fn wake(&mut self, api: &mut ProcessApi<'_>) -> Option<u64> {
        let now = api.now();
        if now >= self.until_ms {
            return None;
        }
        for (i, cell) in self.cells.iter().enumerate() {
            if self.rng.gen::<f64>() < self.change_probability_per_step {
                let value = self.rng.gen_range(0..1000);
                cell.set(value);
                if self.emit {
                    let id: EntityId = format!("sensor-{i}").into();
                    let _ = api.emit(&id, "v", Value::Int(value), None);
                }
            }
        }
        Some(now + self.step_ms)
    }
}

fn absorb_all() -> impl diaspec_runtime::component::ControllerLogic {
    |_: &mut ControllerApi<'_>, _: &str, _: &Value| Ok(())
}

/// Runs one delivery-model configuration.
fn run(model: Model, sensors: usize, change_rate_per_min: f64, minutes: u64) -> DeliveryRow {
    let spec_src = match model {
        Model::Periodic => PERIODIC_SPEC,
        Model::EventDriven => EVENT_SPEC,
        Model::QueryDriven => QUERY_SPEC,
    };
    let spec = Arc::new(diaspec_core::compile_str(spec_src).expect("delivery spec compiles"));
    let mut orch = Orchestrator::with_transport(spec, TransportConfig::default());

    match model {
        Model::Periodic => {
            orch.register_context(
                "Agg",
                |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
                    ContextActivation::Batch(batch) => Ok(Some(Value::Int(
                        batch.readings.iter().filter_map(|r| r.value.as_int()).sum(),
                    ))),
                    _ => Ok(None),
                },
            )
            .unwrap();
        }
        Model::EventDriven => {
            orch.register_context(
                "Agg",
                |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
                    ContextActivation::SourceEvent { value, .. } => Ok(Some((*value).clone())),
                    _ => Ok(None),
                },
            )
            .unwrap();
        }
        Model::QueryDriven => {
            orch.register_context(
                "Agg",
                |api: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
                    ContextActivation::SourceEvent { .. } => {
                        let sum: i64 = api
                            .get_device_source("Sensor", "v")?
                            .iter()
                            .filter_map(|(_, v)| v.as_int())
                            .sum();
                        Ok(Some(Value::Int(sum)))
                    }
                    _ => Ok(None),
                },
            )
            .unwrap();
        }
    }
    orch.register_controller("Out", absorb_all()).unwrap();

    // Bind the world.
    let mut cells = Vec::with_capacity(sensors);
    for i in 0..sensors {
        let cell = SharedCell::new(0i64);
        let mut attrs = diaspec_runtime::entity::AttributeMap::new();
        attrs.insert("zone".to_owned(), Value::from("z"));
        orch.bind_entity(
            format!("sensor-{i}").into(),
            "Sensor",
            attrs,
            Box::new(CellSensor::new("v", cell.clone(), |v| Value::Int(*v))),
        )
        .unwrap();
        cells.push(cell);
    }
    struct Absorb;
    impl diaspec_runtime::entity::DeviceInstance for Absorb {
        fn query(
            &mut self,
            s: &str,
            _n: u64,
        ) -> Result<Value, diaspec_runtime::error::DeviceError> {
            Err(diaspec_runtime::error::DeviceError::new(
                "sink",
                s,
                "no sources",
            ))
        }
        fn invoke(
            &mut self,
            _a: &str,
            _args: &[Value],
            _n: u64,
        ) -> Result<(), diaspec_runtime::error::DeviceError> {
            Ok(())
        }
    }
    orch.bind_entity("sink".into(), "Sink", Default::default(), Box::new(Absorb))
        .unwrap();
    if model == Model::QueryDriven {
        orch.bind_entity(
            "clock".into(),
            "Clock",
            Default::default(),
            Box::new(|_: &str, now: u64| Ok(Value::Int((now / 60_000) as i64))),
        )
        .unwrap();
        // A once-a-minute tick driving the pull.
        orch.spawn_process_at(
            "ticker",
            move |api: &mut ProcessApi<'_>| {
                let clock: EntityId = "clock".into();
                let now = api.now();
                if now > minutes * 60_000 {
                    return None;
                }
                let _ = api.emit(&clock, "tick", Value::Int((now / 60_000) as i64), None);
                Some(now + 60_000)
            },
            60_000,
        );
    }

    // The changing world: 6 steps per minute.
    let step_ms = 10_000;
    let steps_per_minute = 60_000 / step_ms;
    let world = World {
        cells,
        rng: StdRng::seed_from_u64(11),
        change_probability_per_step: (change_rate_per_min / steps_per_minute as f64).min(1.0),
        step_ms,
        emit: model == Model::EventDriven,
        until_ms: minutes * 60_000,
    };
    orch.spawn_process_at("world", world, step_ms);
    orch.launch().unwrap();

    let start = Instant::now();
    orch.run_until(minutes * 60_000);
    let wall = start.elapsed();
    let m = *orch.metrics();
    let errors = orch.drain_errors();
    assert!(errors.is_empty(), "delivery run must be clean: {errors:?}");
    DeliveryRow {
        model,
        sensors,
        change_rate: change_rate_per_min,
        minutes,
        network_messages: m.messages_sent(),
        queries: m.component_queries,
        activations: m.context_activations,
        wall_ms: wall.as_secs_f64() * 1e3,
    }
}

/// The full delivery comparison at one `(sensors, change_rate)` point.
#[must_use]
pub fn compare(sensors: usize, change_rate_per_min: f64, minutes: u64) -> Vec<DeliveryRow> {
    [Model::Periodic, Model::EventDriven, Model::QueryDriven]
        .into_iter()
        .map(|m| run(m, sensors, change_rate_per_min, minutes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_volume_scales_with_sensors_not_changes() {
        let slow = run(Model::Periodic, 50, 0.1, 10);
        let busy = run(Model::Periodic, 50, 10.0, 10);
        // Same sensor count, same period: identical message volume.
        assert_eq!(slow.network_messages, busy.network_messages);
        // 50 sensors x 10 polls (+ publications to the controller).
        assert!(slow.network_messages >= 500);
    }

    #[test]
    fn event_volume_scales_with_change_rate() {
        let slow = run(Model::EventDriven, 50, 0.2, 10);
        let busy = run(Model::EventDriven, 50, 6.0, 10);
        assert!(
            busy.network_messages > 5 * slow.network_messages,
            "slow {} vs busy {}",
            slow.network_messages,
            busy.network_messages
        );
    }

    #[test]
    fn query_model_pulls_instead_of_pushing() {
        let row = run(Model::QueryDriven, 50, 5.0, 10);
        // 10 pulls x 50 sensors queried.
        assert!(row.queries >= 450, "{row:?}");
        // Activated once per tick, independent of the change rate.
        assert_eq!(row.activations, 10);
    }

    #[test]
    fn crossover_between_event_and_periodic() {
        // Below one change/sensor/period, event-driven sends fewer
        // messages; above, periodic wins — the E11 crossover.
        let quiet_event = run(Model::EventDriven, 100, 0.2, 10);
        let quiet_periodic = run(Model::Periodic, 100, 0.2, 10);
        assert!(quiet_event.network_messages < quiet_periodic.network_messages);
        let busy_event = run(Model::EventDriven, 100, 8.0, 10);
        let busy_periodic = run(Model::Periodic, 100, 8.0, 10);
        assert!(busy_event.network_messages > busy_periodic.network_messages);
    }
}
