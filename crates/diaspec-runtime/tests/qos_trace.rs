//! Tests of the non-functional extensions: `@qos(latencyMs = N)` budgets
//! (paper \[15\]) and execution tracing.

use diaspec_core::compile_str;
use diaspec_runtime::component::ContextActivation;
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
use diaspec_runtime::entity::DeviceInstance;
use diaspec_runtime::error::DeviceError;
use diaspec_runtime::trace::TraceKind;
use diaspec_runtime::transport::{LatencyModel, TransportConfig};
use diaspec_runtime::value::Value;
use std::sync::Arc;

const SPEC: &str = r#"
    device Sensor { source v as Integer; }
    device Sink { action absorb; }
    @qos(latencyMs = 100)
    context Fast as Integer { when provided v from Sensor always publish; }
    controller Out { when provided Fast do absorb on Sink; }
"#;

struct Sink;
impl DeviceInstance for Sink {
    fn query(&mut self, s: &str, _n: u64) -> Result<Value, DeviceError> {
        Err(DeviceError::new("sink", s, "no sources"))
    }
    fn invoke(&mut self, _a: &str, _args: &[Value], _n: u64) -> Result<(), DeviceError> {
        Ok(())
    }
}

fn build(transport: TransportConfig) -> Orchestrator {
    let spec = Arc::new(compile_str(SPEC).unwrap());
    let mut orch = Orchestrator::with_transport(spec, transport);
    orch.register_context(
        "Fast",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::SourceEvent { value, .. } => Ok(Some((*value).clone())),
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_controller("Out", |api: &mut ControllerApi<'_>, _: &str, _: &Value| {
        for sink in api.discover("Sink")?.ids() {
            api.invoke(&sink, "absorb", &[])?;
        }
        Ok(())
    })
    .unwrap();
    orch.bind_entity(
        "s-1".into(),
        "Sensor",
        Default::default(),
        Box::new(|_: &str, _: u64| Ok(Value::Int(0))),
    )
    .unwrap();
    orch.bind_entity("sink-1".into(), "Sink", Default::default(), Box::new(Sink))
        .unwrap();
    orch.launch().unwrap();
    orch
}

#[test]
fn fast_transport_respects_the_qos_budget() {
    let mut orch = build(TransportConfig {
        latency: LatencyModel::Fixed(50), // within the 100 ms budget
        ..TransportConfig::default()
    });
    let sensor = "s-1".into();
    for t in 0..10 {
        orch.emit_at(t * 1000, &sensor, "v", Value::Int(1), None)
            .unwrap();
    }
    orch.run_until(20_000);
    assert_eq!(orch.metrics().qos_violations, 0);
}

#[test]
fn slow_transport_counts_qos_violations() {
    let mut orch = build(TransportConfig {
        latency: LatencyModel::Fixed(250), // over the 100 ms budget
        ..TransportConfig::default()
    });
    let sensor = "s-1".into();
    for t in 0..10 {
        orch.emit_at(t * 1000, &sensor, "v", Value::Int(1), None)
            .unwrap();
    }
    orch.run_until(20_000);
    // Every source->context delivery violates; publications to the
    // controller carry no context budget.
    assert_eq!(orch.metrics().qos_violations, 10);
    // The chain still completes: QoS violations are observations, not
    // failures.
    assert_eq!(orch.metrics().actuations, 10);
    assert!(orch.drain_errors().is_empty());
}

#[test]
fn trace_records_the_full_chain_in_order() {
    let mut orch = build(TransportConfig::default());
    orch.set_tracing(true);
    let sensor = "s-1".into();
    orch.emit_at(100, &sensor, "v", Value::Int(7), None)
        .unwrap();
    orch.run_until(1_000);
    let trace = orch.take_trace();
    let kinds: Vec<&'static str> = trace
        .iter()
        .map(|e| match &e.kind {
            TraceKind::Emission { .. } => "emit",
            TraceKind::PeriodicPoll { .. } => "poll",
            TraceKind::ContextActivation { .. } => "context",
            TraceKind::Publication { .. } => "publish",
            TraceKind::ControllerActivation { .. } => "controller",
            TraceKind::Actuation { .. } => "actuate",
            TraceKind::Error { .. } => "error",
            TraceKind::FaultInjected { .. }
            | TraceKind::LeaseExpired { .. }
            | TraceKind::Rebound { .. }
            | TraceKind::DeliveryRetry { .. }
            | TraceKind::FallbackActuation { .. }
            | TraceKind::TaskFailed { .. }
            | TraceKind::BatchDegraded { .. } => "recovery",
        })
        .collect();
    assert_eq!(
        kinds,
        vec!["emit", "context", "publish", "controller", "actuate"],
        "{trace:#?}"
    );
    // Timestamps are monotone and the rendered lines are readable.
    assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
    assert!(trace[1].to_string().contains("[Fast]"), "{}", trace[1]);
    // Draining empties the buffer.
    assert!(orch.take_trace().is_empty());
}

#[test]
fn tracing_off_records_nothing() {
    let mut orch = build(TransportConfig::default());
    let sensor = "s-1".into();
    orch.emit_at(100, &sensor, "v", Value::Int(7), None)
        .unwrap();
    orch.run_until(1_000);
    assert!(orch.take_trace().is_empty());
    assert!(orch.metrics().actuations > 0, "the run itself happened");
}

#[test]
fn qos_violation_appears_in_trace() {
    let mut orch = build(TransportConfig {
        latency: LatencyModel::Fixed(500),
        ..TransportConfig::default()
    });
    orch.set_tracing(true);
    let sensor = "s-1".into();
    orch.emit_at(100, &sensor, "v", Value::Int(7), None)
        .unwrap();
    orch.run_until(2_000);
    let trace = orch.take_trace();
    // The exact line: it reaches the trace buffer and every observer.
    assert!(
        trace.iter().any(|e| matches!(
            &e.kind,
            TraceKind::Error { message }
                if message == "QoS violation: delivery to `Fast` took 500 ms (budget 100 ms)"
        )),
        "{trace:#?}"
    );
}

#[test]
fn realtime_pacing_respects_the_wall_clock() {
    let mut orch = build(TransportConfig::default());
    let sensor = "s-1".into();
    for t in 1..=5u64 {
        orch.emit_at(t * 100, &sensor, "v", Value::Int(t as i64), None)
            .unwrap();
    }
    // 500 sim ms at 10x compression ≈ 50 wall ms.
    let start = std::time::Instant::now();
    orch.run_realtime_for(500, 10.0);
    let wall = start.elapsed();
    assert!(wall >= std::time::Duration::from_millis(45), "{wall:?}");
    assert!(wall < std::time::Duration::from_millis(500), "{wall:?}");
    // All five chains completed despite the pacing.
    assert_eq!(orch.metrics().actuations, 5);
    assert_eq!(orch.now(), 500);
}

#[test]
#[should_panic(expected = "time_scale must be finite and positive")]
fn realtime_rejects_bad_time_scale() {
    let mut orch = build(TransportConfig::default());
    orch.run_realtime_for(100, 0.0);
}
