//! E17: fault-tolerant large-scale processing (paper §VI: coping with
//! errors at scale).
//!
//! A seeded task-fault plan injects panics into the MapReduce path of a
//! `grouped by ... with map ... reduce ...` context and the observable
//! behaviour is asserted end-to-end: healed retries are byte-identical to
//! the fault-free run, exhausted retries degrade the batch with exact
//! coverage accounting, and a fault-free run pays nothing.

use diaspec_devices::common::{ActuationLog, RecordingActuator};
use diaspec_mapreduce::CoverageReport;
use diaspec_runtime::component::{ContextActivation, MapReduceLogic};
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator, ProcessingMode};
use diaspec_runtime::error::RuntimeError;
use diaspec_runtime::fault::{FaultPlan, RecoveryConfig, TaskFaultPlan, TaskPhase};
use diaspec_runtime::obs::Activity;
use diaspec_runtime::trace::TraceKind;
use diaspec_runtime::value::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Eight sensors over four zones; the design demands 80 % batch coverage.
const SPEC: &str = r#"
    device Sensor { attribute zone as String; source v as Integer; }
    device Sink { action absorb(level as Integer); }
    @quality(coverage = 80)
    context Stats as Integer {
      when periodic v from Sensor <1 min>
        grouped by zone
        with map as Integer reduce as Integer
        always publish;
    }
    controller Out { when provided Stats do absorb on Sink; }
"#;

/// Pass-through map, summing reduce: per-zone totals.
struct SumMr;

impl MapReduceLogic for SumMr {
    fn map(&self, group: &Value, reading: &Value, emit: &mut dyn FnMut(Value, Value)) {
        emit(group.clone(), reading.clone());
    }

    fn reduce(&self, _key: &Value, values: &[Value]) -> Value {
        Value::Int(values.iter().filter_map(Value::as_int).sum())
    }
}

type BatchLog = Arc<Mutex<Vec<(Option<BTreeMap<Value, Value>>, Option<CoverageReport>)>>>;

fn build(faults: Option<TaskFaultPlan>, task_retries: u32) -> (Orchestrator, BatchLog) {
    let spec = Arc::new(diaspec_core::compile_str(SPEC).unwrap());
    let mut orch = Orchestrator::new(spec);
    orch.set_processing_mode(ProcessingMode::Parallel(4));
    orch.enable_recovery(RecoveryConfig::default().with_task_retries(task_retries))
        .unwrap();
    if let Some(plan) = faults {
        orch.enable_faults(FaultPlan::seeded(9).fault_tasks(plan))
            .unwrap();
    }
    let log: BatchLog = Arc::new(Mutex::new(Vec::new()));
    let batches = Arc::clone(&log);
    orch.register_context(
        "Stats",
        move |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::Batch(batch) => {
                batches
                    .lock()
                    .unwrap()
                    .push((batch.reduced.clone(), batch.coverage));
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
    orch.register_map_reduce("Stats", SumMr).unwrap();
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
    // Sensors s-0..s-7: zone z{i % 4}, fixed value 10 * i + 1. Readings are
    // polled in entity-id order, so with 4 workers map task k processes
    // sensors 2k and 2k + 1.
    for i in 0..8i64 {
        let mut attrs = diaspec_runtime::entity::AttributeMap::new();
        attrs.insert("zone".to_owned(), Value::from(format!("z{}", i % 4)));
        let value = 10 * i + 1;
        orch.bind_entity(
            format!("s-{i}").into(),
            "Sensor",
            attrs,
            Box::new(move |_: &str, _: u64| Ok(Value::Int(value))),
        )
        .unwrap();
    }
    orch.bind_entity(
        "sink".into(),
        "Sink",
        Default::default(),
        Box::new(RecordingActuator::new(ActuationLog::new())),
    )
    .unwrap();
    orch.set_tracing(true);
    orch.set_observability(true);
    orch.launch().unwrap();
    (orch, log)
}

/// Runs one periodic batch (poll at t = 60 s plus delivery slack).
fn run_one_batch(orch: &mut Orchestrator) {
    orch.run_until(90_000);
}

#[test]
fn injected_panic_is_retried_and_heals_byte_identically() {
    // Map task 1 panics on attempts 1 and 2; the third attempt succeeds
    // within the retry budget of 2.
    let plan = TaskFaultPlan::seeded(1).panic_task(TaskPhase::Map, 1, 2);
    let (mut faulty, faulty_log) = build(Some(plan), 2);
    let (mut clean, clean_log) = build(None, 2);
    run_one_batch(&mut faulty);
    run_one_batch(&mut clean);

    // Byte-identical reduced output and published value.
    let faulty_batches = faulty_log.lock().unwrap();
    let clean_batches = clean_log.lock().unwrap();
    assert_eq!(faulty_batches.len(), 1, "one batch each");
    assert_eq!(faulty_batches[0].0, clean_batches[0].0, "healed output");
    assert_eq!(faulty.last_value("Stats"), clean.last_value("Stats"));

    // The recovery is visible: two injected panics, two retries, no loss.
    let m = faulty.metrics();
    assert_eq!(m.task_retries, 2, "{m:?}");
    assert_eq!(m.faults_injected, 2, "{m:?}");
    assert_eq!(m.tasks_failed, 0, "{m:?}");
    assert_eq!(m.batches_degraded, 0, "{m:?}");
    let coverage = faulty_batches[0].1.expect("coverage reported");
    assert!(coverage.is_complete(), "{coverage:?}");
    assert_eq!(coverage.task_retries, 2, "{coverage:?}");
    assert_eq!(coverage.injected_faults, 2, "{coverage:?}");
    let recovering = faulty.observation();
    let recovering = recovering.activity(Activity::Recovering).unwrap();
    assert!(recovering.latency.count > 0, "retry work is observable");
    assert!(faulty.drain_errors().is_empty(), "healed, not degraded");
}

#[test]
fn exhausted_retries_degrade_the_batch_with_exact_coverage() {
    // Map task 0 panics on every attempt; with a budget of 1 retry it
    // fails after 2 attempts and its quarter of the readings is lost.
    let plan = TaskFaultPlan::seeded(1).panic_task(TaskPhase::Map, 0, 10);
    let (mut orch, log) = build(Some(plan), 1);
    run_one_batch(&mut orch);

    // The coverage report matches the injected plan exactly: 4 map tasks
    // of 2 records each, task 0 lost, every emitted value reduced.
    let batches = log.lock().unwrap();
    let coverage = batches[0].1.expect("coverage reported");
    let expected = CoverageReport {
        map_tasks: 4,
        reduce_tasks: 4,
        task_retries: 1,
        injected_faults: 2,
        map_tasks_failed: 1,
        reduce_tasks_failed: 0,
        map_records_total: 8,
        map_records_lost: 2,
        group_values_total: 6,
        group_values_lost: 0,
    };
    assert_eq!(coverage, expected);
    assert_eq!(coverage.percent_covered(), 75);

    // The partial result still flows: zones z2/z3 keep both sensors,
    // z0/z1 lose s-0 and s-1 (values 1 and 11).
    let reduced = batches[0].0.as_ref().expect("partial result delivered");
    assert_eq!(reduced[&Value::from("z0")], Value::Int(41));
    assert_eq!(reduced[&Value::from("z1")], Value::Int(51));
    assert_eq!(reduced[&Value::from("z2")], Value::Int(21 + 61));
    assert_eq!(reduced[&Value::from("z3")], Value::Int(31 + 71));

    // 75 % < the declared 80 % threshold: traced, counted, contained.
    let trace = orch.take_trace();
    assert!(
        trace.iter().any(|e| matches!(
            &e.kind,
            TraceKind::TaskFailed { context, phase, task: 0, attempts: 2 }
                if context == "Stats" && phase == "map"
        )),
        "task failure traced: {trace:#?}"
    );
    assert!(
        trace.iter().any(|e| matches!(
            &e.kind,
            TraceKind::BatchDegraded {
                context,
                coverage_pct: 75,
                threshold_pct: 80,
                failed_tasks: 1,
            } if context == "Stats"
        )),
        "degradation traced: {trace:#?}"
    );
    let m = orch.metrics();
    assert_eq!(m.batches_degraded, 1, "{m:?}");
    assert_eq!(m.tasks_failed, 1, "{m:?}");
    assert_eq!(m.task_retries, 1, "{m:?}");
    let errors = orch.drain_errors();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(
        matches!(
            &errors[0].error,
            RuntimeError::DegradedBatch { context, coverage_pct: 75, threshold_pct: 80 }
                if context == "Stats"
        ),
        "{errors:?}"
    );
}

#[test]
fn fault_free_run_has_full_coverage_and_zero_recovery_events() {
    let (mut orch, log) = build(None, 2);
    run_one_batch(&mut orch);

    let batches = log.lock().unwrap();
    let coverage = batches[0].1.expect("coverage reported");
    assert!(coverage.is_complete(), "{coverage:?}");
    assert_eq!(coverage.percent_covered(), 100);
    assert_eq!(coverage.task_retries, 0);
    assert_eq!(coverage.injected_faults, 0);

    let m = orch.metrics();
    assert_eq!(m.recovery_actions(), 0, "{m:?}");
    assert_eq!(m.tasks_failed, 0, "{m:?}");
    assert_eq!(m.batches_degraded, 0, "{m:?}");
    assert_eq!(m.faults_injected, 0, "{m:?}");
    let snapshot = orch.observation();
    let recovering = snapshot.activity(Activity::Recovering).unwrap();
    assert_eq!(recovering.latency.count, 0, "no recovery work to observe");
    assert!(orch.drain_errors().is_empty());

    // Full per-zone sums.
    let reduced = batches[0].0.as_ref().unwrap();
    assert_eq!(reduced[&Value::from("z0")], Value::Int(1 + 41));
    assert_eq!(reduced[&Value::from("z3")], Value::Int(31 + 71));
}
