//! E18 — subscriber fan-out cost of one publication (zero-copy payloads).
//!
//! One button-like source feeds one context whose publication fans out to
//! N subscribed controllers (N = 1, 10, 100, 1 000), swept against payload
//! size (an 8-byte integer, a 1 KiB string, a 4 KiB array). The engine's
//! delivery pipeline clones the payload once per subscriber, so this
//! experiment measures exactly what the zero-copy refactor changed: before,
//! each delivery deep-copied `deep_size` bytes; after, each delivery is one
//! `Payload` (`Arc<Value>`) pointer bump.
//!
//! Reported per row: deliveries/second of simulated fan-out and the bytes
//! the payload clones actually moved (`copied`), next to the bytes a
//! deep-copying pipeline would have moved (`deep copy`).

use diaspec_runtime::component::ContextActivation;
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
use diaspec_runtime::value::Value;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// A payload-size point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PayloadKind {
    /// `Value::Int` — the smallest payload (8 data bytes).
    Int,
    /// A 1 KiB `Value::Str`.
    Str1K,
    /// A `Value::Array` of 512 integers (~4 KiB deep).
    Array4K,
}

impl PayloadKind {
    /// Display label.
    fn name(self) -> &'static str {
        match self {
            PayloadKind::Int => "int",
            PayloadKind::Str1K => "str-1KiB",
            PayloadKind::Array4K => "array-4KiB",
        }
    }

    /// The declared output type of the relay context for this payload.
    fn spec_type(self) -> &'static str {
        match self {
            PayloadKind::Int => "Integer",
            PayloadKind::Str1K => "String",
            PayloadKind::Array4K => "Integer[]",
        }
    }

    /// Builds one payload value of this kind.
    fn value(self) -> Value {
        match self {
            PayloadKind::Int => Value::Int(42),
            PayloadKind::Str1K => Value::Str("x".repeat(1024)),
            PayloadKind::Array4K => Value::Array((0..512).map(Value::Int).collect()),
        }
    }

    /// Every payload kind of the sweep.
    fn all() -> [PayloadKind; 3] {
        [PayloadKind::Int, PayloadKind::Str1K, PayloadKind::Array4K]
    }
}

/// Bytes one delivery clone moves in the current pipeline: a [`Payload`]
/// is an `Arc<Value>`, so fan-out costs one pointer copy per subscriber
/// regardless of payload size.
///
/// [`Payload`]: diaspec_runtime::payload::Payload
fn copied_bytes_per_delivery(_payload: &Value) -> u64 {
    std::mem::size_of::<diaspec_runtime::payload::Payload>() as u64
}

/// One row of the E18 sweep.
#[derive(Debug, Clone, Serialize)]
pub struct FanoutRow {
    /// Subscribed controllers receiving each publication.
    pub fanout: usize,
    /// Payload label (`int`, `str-1KiB`, `array-4KiB`).
    pub payload: &'static str,
    /// Deep size of one payload value in bytes.
    pub payload_bytes: u64,
    /// Source emissions driven through the engine.
    pub emissions: u64,
    /// Transport deliveries performed (≈ emissions × (fanout + 1)).
    pub deliveries: u64,
    /// Bytes the pipeline's payload clones actually moved.
    pub copied_bytes: u64,
    /// Bytes a deep-copying pipeline would have moved for the same run.
    pub deep_copy_bytes: u64,
    /// Wall-clock milliseconds for the simulated run.
    pub wall_ms: f64,
    /// Deliveries per wall-clock second.
    pub deliveries_per_sec: f64,
}

/// Generates the fan-out design: one source device, one relay context,
/// `fanout` subscribed controllers (each declaring an actuation contract
/// on a shared sink family, never exercised — the experiment isolates
/// delivery cost).
fn fanout_spec(fanout: usize, payload: PayloadKind) -> String {
    let mut spec = format!(
        "device Button {{ source press as Integer; }}\n\
         device Sink {{ action absorb; }}\n\
         context Relay as {} {{ when provided press from Button always publish; }}\n",
        payload.spec_type()
    );
    for i in 0..fanout {
        spec.push_str(&format!(
            "controller Fan{i} {{ when provided Relay do absorb on Sink; }}\n"
        ));
    }
    spec
}

/// Runs one (fan-out, payload) point: `emissions` source events, each
/// published once and delivered to every subscriber.
fn run_point(fanout: usize, payload: PayloadKind, emissions: u64) -> FanoutRow {
    let spec = Arc::new(diaspec_core::compile_str(&fanout_spec(fanout, payload)).expect("spec"));
    let mut orch = Orchestrator::new(spec);
    let template = payload.value();
    let payload_bytes = template.deep_size();
    let published = template.clone();
    orch.register_context(
        "Relay",
        move |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::SourceEvent { .. } => Ok(Some(published.clone())),
            _ => Ok(None),
        },
    )
    .expect("context registers");
    for i in 0..fanout {
        orch.register_controller(
            &format!("Fan{i}"),
            |_: &mut ControllerApi<'_>, _: &str, _: &Value| Ok(()),
        )
        .expect("controller registers");
    }
    orch.bind_entity(
        "button-1".into(),
        "Button",
        Default::default(),
        Box::new(|_: &str, _: u64| Ok(Value::Int(0))),
    )
    .expect("button binds");
    orch.bind_entity(
        "sink-1".into(),
        "Sink",
        Default::default(),
        Box::new(diaspec_devices::common::RecordingActuator::new(
            diaspec_devices::common::ActuationLog::new(),
        )),
    )
    .expect("sink binds");
    orch.launch().expect("launches");

    let button = "button-1".into();
    for t in 0..emissions {
        orch.emit_at(t + 1, &button, "press", Value::Int(0), None)
            .expect("emit");
    }
    let start = Instant::now();
    orch.run_until(emissions + 10);
    let wall = start.elapsed();

    let m = orch.metrics();
    assert_eq!(m.emissions, emissions, "every emission dispatched");
    assert_eq!(m.publications, emissions, "every emission published");
    let deliveries = m.messages_delivered;
    let copied = copied_bytes_per_delivery(&template);
    let wall_ms = wall.as_secs_f64() * 1e3;
    FanoutRow {
        fanout,
        payload: payload.name(),
        payload_bytes,
        emissions,
        deliveries,
        copied_bytes: deliveries * copied,
        deep_copy_bytes: deliveries * payload_bytes,
        wall_ms,
        deliveries_per_sec: deliveries as f64 / wall.as_secs_f64().max(1e-9),
    }
}

/// The full E18 sweep: fan-out × payload size. `emissions_at_1k` scales
/// the event count so each row performs comparable delivery work.
#[must_use]
pub fn sweep(fanouts: &[usize], emissions_at_1k: u64) -> Vec<FanoutRow> {
    let mut rows = Vec::new();
    for &fanout in fanouts {
        // Keep deliveries per row roughly constant: ~1k × emissions_at_1k.
        let emissions = (emissions_at_1k * 1_000 / fanout.max(1) as u64).clamp(50, 50_000);
        for payload in PayloadKind::all() {
            rows.push(run_point(fanout, payload, emissions));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_delivers_to_every_subscriber() {
        let row = run_point(10, PayloadKind::Int, 20);
        assert_eq!(row.fanout, 10);
        assert_eq!(row.emissions, 20);
        // Each emission crosses once to the context, then fans out.
        assert_eq!(row.deliveries, 20 * 11);
        assert!(row.deliveries_per_sec > 0.0);
        assert!(row.deep_copy_bytes >= row.deliveries * 8);
    }

    #[test]
    fn payload_sizes_are_ordered() {
        let int = PayloadKind::Int.value().deep_size();
        let s = PayloadKind::Str1K.value().deep_size();
        let a = PayloadKind::Array4K.value().deep_size();
        assert!(int < s && s < a, "{int} {s} {a}");
        assert!(s >= 1024);
        assert!(a >= 4096);
    }
}
