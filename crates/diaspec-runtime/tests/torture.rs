//! Torture property test: arbitrary interleavings of emissions, binds,
//! unbinds, and stepping never panic the engine, never violate metric
//! invariants, and stay deterministic.

use diaspec_core::compile_str;
use diaspec_runtime::component::{ContextActivation, MapReduceLogic};
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator, ProcessingMode};
use diaspec_runtime::entity::AttributeMap;
use diaspec_runtime::error::RuntimeError;
use diaspec_runtime::fault::{FaultPlan, RecoveryConfig, TaskFaultPlan};
use diaspec_runtime::metrics::RuntimeMetrics;
use diaspec_runtime::transport::{LatencyModel, TransportConfig};
use diaspec_runtime::value::Value;
use proptest::prelude::*;
use std::sync::Arc;

const SPEC: &str = r#"
    device Sensor { attribute zone as String; source v as Integer; }
    device Sink { action absorb(level as Integer); }
    context Batch as Integer {
      when periodic v from Sensor <1 min>
        grouped by zone
        always publish;
    }
    context Live as Integer {
      when provided v from Sensor
        maybe publish;
    }
    controller Out {
      when provided Batch do absorb on Sink;
      when provided Live do absorb on Sink;
    }
"#;

/// One random operation applied to a running orchestrator.
#[derive(Debug, Clone)]
enum Op {
    /// Emit value `v` from sensor `idx` at +`delay` ms.
    Emit { idx: u8, v: i64, delay: u16 },
    /// Bind a new sensor with this discriminator.
    Bind(u8),
    /// Unbind sensor `idx` (no-op if unbound).
    Unbind(u8),
    /// Run the engine forward `ms` milliseconds.
    Run(u16),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<i64>(), any::<u16>()).prop_map(|(idx, v, delay)| Op::Emit {
            idx,
            v,
            delay
        }),
        any::<u8>().prop_map(Op::Bind),
        any::<u8>().prop_map(Op::Unbind),
        any::<u16>().prop_map(Op::Run),
    ]
}

fn build(transport: TransportConfig) -> Orchestrator {
    let spec = Arc::new(compile_str(SPEC).unwrap());
    let mut orch = Orchestrator::with_transport(spec, transport);
    orch.register_context(
        "Batch",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            // Readings delivered: the grouped records and any without a zone.
            ContextActivation::Batch(batch) => Ok(Some(Value::Int(
                (batch.readings.len() + batch.grouped.as_ref().map_or(0, |g| g.records().len()))
                    as i64,
            ))),
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_context(
        "Live",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::SourceEvent { value, .. } => {
                // Sometimes decline (exercises `maybe publish`).
                if value.as_int().unwrap_or(0) % 3 == 0 {
                    Ok(None)
                } else {
                    Ok(Some((*value).clone()))
                }
            }
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_controller(
        "Out",
        |api: &mut ControllerApi<'_>, _: &str, value: &Value| {
            let level = value.as_int().unwrap_or(0);
            for sink in api.discover("Sink")?.ids() {
                api.invoke(&sink, "absorb", &[Value::Int(level)])?;
            }
            Ok(())
        },
    )
    .unwrap();
    orch.bind_entity(
        "sink".into(),
        "Sink",
        AttributeMap::new(),
        Box::new(SinkDriver),
    )
    .unwrap();
    orch.launch().unwrap();
    orch
}

struct SinkDriver;
impl diaspec_runtime::entity::DeviceInstance for SinkDriver {
    fn query(&mut self, s: &str, _n: u64) -> Result<Value, diaspec_runtime::error::DeviceError> {
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

fn apply(orch: &mut Orchestrator, ops: &[Op]) -> RuntimeMetrics {
    let mut bound: Vec<u8> = Vec::new();
    for op in ops {
        match op {
            Op::Bind(idx) => {
                if !bound.contains(idx) {
                    let mut attrs = AttributeMap::new();
                    attrs.insert("zone".to_owned(), Value::from(format!("z{}", idx % 4)));
                    let v = i64::from(*idx);
                    orch.bind_entity(
                        format!("sensor-{idx}").into(),
                        "Sensor",
                        attrs,
                        Box::new(move |_: &str, _: u64| Ok(Value::Int(v))),
                    )
                    .expect("bind fresh sensor");
                    bound.push(*idx);
                }
            }
            Op::Unbind(idx) => {
                if let Some(pos) = bound.iter().position(|b| b == idx) {
                    bound.remove(pos);
                    orch.unbind_entity(&format!("sensor-{idx}").into())
                        .expect("unbind bound sensor");
                }
            }
            Op::Emit { idx, v, delay } => {
                if bound.contains(idx) {
                    let at = orch.now() + u64::from(*delay);
                    orch.emit_at(
                        at,
                        &format!("sensor-{idx}").into(),
                        "v",
                        Value::Int(*v),
                        None,
                    )
                    .expect("emit from bound sensor");
                }
            }
            Op::Run(ms) => {
                orch.run_for(u64::from(*ms));
            }
        }
    }
    orch.run_for(10 * 60_000); // drain
    *orch.metrics()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_interleavings_never_panic_and_keep_invariants(
        ops in proptest::collection::vec(op(), 0..60),
        loss in 0u8..3,
    ) {
        let transport = TransportConfig {
            latency: LatencyModel::Uniform { min_ms: 0, max_ms: 250 },
            loss_probability: f64::from(loss) * 0.15,
            seed: 12345,
        };
        let mut orch = build(transport);
        let m = apply(&mut orch, &ops);

        // Metric invariants.
        prop_assert!(m.publications <= m.context_activations,
            "publications bounded by activations: {m:?}");
        prop_assert!(m.publications_declined <= m.context_activations);
        prop_assert!(m.controller_activations <= m.publications,
            "controllers only run on publications: {m:?}");
        prop_assert!(m.actuations <= m.controller_activations,
            "one sink, one absorb per controller run: {m:?}");
        prop_assert_eq!(m.messages_sent(), m.messages_delivered + m.messages_lost);
        // The only error source in this setup would be engine bugs.
        let errors = orch.drain_errors();
        prop_assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn runs_are_deterministic_for_any_op_sequence(
        ops in proptest::collection::vec(op(), 0..40),
    ) {
        let transport = TransportConfig {
            latency: LatencyModel::Uniform { min_ms: 0, max_ms: 100 },
            loss_probability: 0.1,
            seed: 777,
        };
        let run = || {
            let mut orch = build(transport);
            apply(&mut orch, &ops)
        };
        prop_assert_eq!(run(), run());
    }
}

// ---- MapReduce torture: sometimes-panicking phases -------------------------

const MR_SPEC: &str = r#"
    device Sensor { attribute zone as String; source v as Integer; }
    device Sink { action absorb(level as Integer); }
    @quality(coverage = 60)
    context Stats as Integer {
      when periodic v from Sensor <1 min>
        grouped by zone
        with map as Integer reduce as Integer
        always publish;
    }
    context Live as Integer {
      when provided v from Sensor
        maybe publish;
    }
    controller Out {
      when provided Stats do absorb on Sink;
      when provided Live do absorb on Sink;
    }
"#;

/// Map phase that panics on every multiple of seven — a deterministic user
/// bug the engine must isolate per task, not die from.
struct FlakyMr;

impl MapReduceLogic for FlakyMr {
    fn map(&self, _group: &Value, reading: &Value, emit: &mut dyn FnMut(Value, Value)) {
        let v = reading.as_int().unwrap_or(0);
        assert!(v % 7 != 0, "flaky map chokes on multiples of seven");
        emit(Value::Int(v.rem_euclid(4)), Value::Int(v));
    }

    fn reduce(&self, _key: &Value, values: &[Value]) -> Value {
        Value::Int(values.iter().filter_map(Value::as_int).sum())
    }
}

fn build_mr(seed: u64, transport: TransportConfig) -> Orchestrator {
    let spec = Arc::new(compile_str(MR_SPEC).unwrap());
    let mut orch = Orchestrator::with_transport(spec, transport);
    orch.set_processing_mode(ProcessingMode::Parallel(3));
    orch.enable_recovery(RecoveryConfig::default().with_task_retries(1))
        .unwrap();
    orch.enable_faults(
        FaultPlan::seeded(seed).fault_tasks(
            TaskFaultPlan::seeded(seed)
                .panic_tasks(0.1)
                .delay_tasks(0.05, 1),
        ),
    )
    .unwrap();
    orch.register_context(
        "Stats",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::Batch(batch) => {
                let total = batch
                    .reduced
                    .as_ref()
                    .map_or(0, |r| r.values().filter_map(Value::as_int).sum());
                Ok(Some(Value::Int(total)))
            }
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_map_reduce("Stats", FlakyMr).unwrap();
    orch.register_context(
        "Live",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::SourceEvent { value, .. } => Ok(Some((*value).clone())),
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_controller(
        "Out",
        |api: &mut ControllerApi<'_>, _: &str, value: &Value| {
            let level = value.as_int().unwrap_or(0);
            for sink in api.discover("Sink")?.ids() {
                api.invoke(&sink, "absorb", &[Value::Int(level)])?;
            }
            Ok(())
        },
    )
    .unwrap();
    orch.bind_entity(
        "sink".into(),
        "Sink",
        AttributeMap::new(),
        Box::new(SinkDriver),
    )
    .unwrap();
    orch.launch().unwrap();
    orch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn panicking_map_reduce_never_kills_the_engine(
        ops in proptest::collection::vec(op(), 0..40),
        seed in 0u64..4,
    ) {
        let transport = TransportConfig {
            latency: LatencyModel::Uniform { min_ms: 0, max_ms: 100 },
            loss_probability: 0.05,
            seed: 4242,
        };
        let mut orch = build_mr(seed, transport);
        let m = apply(&mut orch, &ops);

        // Standard invariants still hold with panicking phases in the mix.
        prop_assert!(m.publications <= m.context_activations, "{m:?}");
        prop_assert!(m.controller_activations <= m.publications, "{m:?}");
        prop_assert_eq!(m.messages_sent(), m.messages_delivered + m.messages_lost);
        // Task-fault accounting: degraded batches are bounded by executions,
        // and retries count as recovery work.
        prop_assert!(m.batches_degraded <= m.map_reduce_executions, "{m:?}");
        prop_assert!(m.recovery_actions() >= m.task_retries, "{m:?}");
        // Every contained error is a coverage degradation — user panics are
        // isolated into task failures, never component errors or engine
        // aborts.
        let errors = orch.drain_errors();
        prop_assert!(
            errors
                .iter()
                .all(|e| matches!(e.error, RuntimeError::DegradedBatch { .. })),
            "{errors:?}"
        );
        prop_assert_eq!(errors.len() as u64, m.batches_degraded);
    }

    #[test]
    fn panicking_map_reduce_runs_are_deterministic_per_seed(
        ops in proptest::collection::vec(op(), 0..30),
        seed in 0u64..4,
    ) {
        let transport = TransportConfig {
            latency: LatencyModel::Uniform { min_ms: 0, max_ms: 100 },
            loss_probability: 0.1,
            seed: 777,
        };
        let run = || {
            let mut orch = build_mr(seed, transport);
            apply(&mut orch, &ops)
        };
        prop_assert_eq!(run(), run());
    }
}
