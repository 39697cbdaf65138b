//! Pipeline-equivalence goldens: the staged delivery pipeline must be
//! *observably identical* to the pre-refactor monolithic engine.
//!
//! Each scenario renders its full trace-event sequence (plus the final
//! metrics snapshot) to a string and compares it against a golden recorded
//! from the engine **before** the `deliver::{admit, route, schedule,
//! dispatch}` decomposition. Any reordering, re-timing, or RNG drift in
//! delivery introduced by the refactor shows up as a byte-level diff.
//!
//! Re-bless with `UPDATE_GOLDENS=1 cargo test -p diaspec-integration
//! --test pipeline_equivalence` — but only when a behaviour change is
//! intended and reviewed.
//!
//! The `sweep_seed*` goldens are younger: they were blessed on the serial
//! path at the last commit that still carried the shard pool, so that
//! deleting the pool (and collapsing the component APIs onto
//! `&mut Orchestrator`) is pinned by the one scenario that combines
//! contained-error order, `maybe publish` declines, no-actuation
//! controller activations and a lossy transport.

use diaspec_apps::parking::{build as build_parking, ParkingAppConfig};
use diaspec_devices::common::{ActuationLog, RecordingActuator};
use diaspec_runtime::component::ContextActivation;
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
use diaspec_runtime::fault::{FaultPlan, RecoveryConfig, RetryConfig};
use diaspec_runtime::transport::{LatencyModel, TransportConfig};
use diaspec_runtime::value::Value;
use diaspec_runtime::ProcessingMode;
use std::path::PathBuf;
use std::sync::Arc;

/// Renders the complete observable state of a finished run: every trace
/// event (Display form, one per line) followed by the metrics snapshot.
fn render(orch: &mut Orchestrator) -> String {
    let mut out = String::new();
    for event in orch.take_trace() {
        out.push_str(&event.to_string());
        out.push('\n');
    }
    out.push_str(&format!("metrics: {:?}\n", orch.metrics()));
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(name)
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden {} unreadable ({e}); bless with UPDATE_GOLDENS=1",
            name
        )
    });
    assert_eq!(
        expected, actual,
        "trace sequence diverged from pre-refactor golden {name}"
    );
}

/// E1 at a small scale with a lossy-latency transport: periodic polls,
/// windowed batches, grouped MapReduce processing, and actuations all
/// flow through the pipeline and must trace identically.
#[test]
fn e1_parking_trace_is_identical_to_pre_refactor_golden() {
    let mut app = build_parking(ParkingAppConfig {
        sensors_per_lot: 3,
        processing: ProcessingMode::Serial,
        transport: TransportConfig {
            latency: LatencyModel::Uniform {
                min_ms: 20,
                max_ms: 200,
            },
            loss_probability: 0.0,
            seed: 1,
        },
        ..ParkingAppConfig::default()
    })
    .expect("parking app builds");
    app.orchestrator.set_tracing(true);
    app.orchestrator.run_until(10 * 60 * 1000 + 1_000);
    assert!(app.orchestrator.drain_errors().is_empty());
    assert_matches_golden("e1_parking_trace.txt", &render(&mut app.orchestrator));
}

const CHURN_SPEC: &str = r#"
    @error(policy = "ignore")
    device Sensor { attribute zone as String; source v as Integer; }
    device Sink { action absorb(total as Integer); }
    context Relay as Integer {
      when periodic v from Sensor <1 sec> maybe publish;
    }
    controller Out { when provided Relay do absorb on Sink; }
"#;

/// Mirrors `build_churn` from `failure_injection.rs`: one leased sensor,
/// a standby, seeded drops, and a crash at t = 5.5 s.
fn build_churn(faults: bool) -> Orchestrator {
    let spec = Arc::new(diaspec_core::compile_str(CHURN_SPEC).unwrap());
    let mut orch = Orchestrator::new(spec);
    orch.register_context(
        "Relay",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::Batch(batch) if !batch.readings.is_empty() => Ok(Some(Value::Int(
                batch.readings.iter().filter_map(|r| r.value.as_int()).sum(),
            ))),
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_controller(
        "Out",
        move |api: &mut ControllerApi<'_>, _: &str, value: &Value| {
            for sink in api.discover("Sink")?.ids() {
                api.invoke(&sink, "absorb", std::slice::from_ref(value))?;
            }
            Ok(())
        },
    )
    .unwrap();
    let mut attrs = diaspec_runtime::entity::AttributeMap::new();
    attrs.insert("zone".to_owned(), Value::Str("east".into()));
    orch.bind_entity(
        "sensor-a".into(),
        "Sensor",
        attrs.clone(),
        Box::new(|_: &str, _: u64| Ok(Value::Int(5))),
    )
    .unwrap();
    orch.bind_entity(
        "sink-1".into(),
        "Sink",
        Default::default(),
        Box::new(RecordingActuator::new(ActuationLog::new())),
    )
    .unwrap();
    orch.register_standby(
        "sensor-b".into(),
        "Sensor",
        attrs,
        Box::new(|_: &str, _: u64| Ok(Value::Int(7))),
    )
    .unwrap();
    if faults {
        orch.enable_faults(
            FaultPlan::seeded(42)
                .drop_messages(0.3)
                .crash_at(5_500, "sensor-a"),
        )
        .unwrap();
    }
    orch.enable_recovery(
        RecoveryConfig::default()
            .with_leases(2_000)
            .with_retry(RetryConfig::default()),
    )
    .unwrap();
    orch.set_tracing(true);
    orch.launch().unwrap();
    orch
}

/// The seeded fault scenario of `failure_injection.rs`: crash → lease
/// expiry → standby rebind → retried drops. Fault fates and retry
/// backoffs must replay byte-identically through the staged pipeline.
#[test]
fn seeded_churn_trace_is_identical_to_pre_refactor_golden() {
    let mut orch = build_churn(true);
    orch.run_until(20_000);
    assert_matches_golden("churn_faulty_trace.txt", &render(&mut orch));
}

/// The fault-free control run: recovery machinery armed but idle.
#[test]
fn fault_free_churn_trace_is_identical_to_pre_refactor_golden() {
    let mut orch = build_churn(false);
    orch.run_until(20_000);
    assert_matches_golden("churn_clean_trace.txt", &render(&mut orch));
}

/// Builds the seeded duplicate/delay scenario, runs it, and renders the
/// observable state.
fn run_event_duplicates() -> String {
    let spec = Arc::new(
        diaspec_core::compile_str(
            r#"
            device Button { source press as Integer; }
            device Bell { action ring(n as Integer); }
            context Chime as Integer { when provided press from Button always publish; }
            controller Ring { when provided Chime do ring on Bell; }
            "#,
        )
        .unwrap(),
    );
    let mut orch = Orchestrator::with_transport(
        spec,
        TransportConfig {
            latency: LatencyModel::Fixed(5),
            loss_probability: 0.0,
            seed: 9,
        },
    );
    orch.register_context(
        "Chime",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::SourceEvent { value, .. } => Ok(Some(value.clone())),
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_controller(
        "Ring",
        move |api: &mut ControllerApi<'_>, _: &str, value: &Value| {
            for bell in api.discover("Bell")?.ids() {
                api.invoke(&bell, "ring", std::slice::from_ref(value))?;
            }
            Ok(())
        },
    )
    .unwrap();
    orch.bind_entity(
        "button-1".into(),
        "Button",
        Default::default(),
        Box::new(|_: &str, _: u64| Ok(Value::Int(0))),
    )
    .unwrap();
    orch.bind_entity(
        "bell-1".into(),
        "Bell",
        Default::default(),
        Box::new(RecordingActuator::new(ActuationLog::new())),
    )
    .unwrap();
    orch.enable_faults(
        FaultPlan::seeded(7)
            .duplicate_messages(0.25)
            .delay_messages(0.25, 40),
    )
    .unwrap();
    orch.set_tracing(true);
    orch.launch().unwrap();
    let button = "button-1".into();
    for i in 0..50i64 {
        orch.emit_at(10 + i as u64 * 100, &button, "press", Value::Int(i), None)
            .unwrap();
    }
    orch.run_until(10_000);
    render(&mut orch)
}

/// Event-driven delivery under seeded duplicates and delays: exercises the
/// emit → admit → route → schedule(duplicate/delay fates) → dispatch path
/// that the batch scenarios above do not.
#[test]
fn event_driven_duplicates_trace_is_identical_to_pre_refactor_golden() {
    assert_matches_golden("event_duplicates_trace.txt", &run_event_duplicates());
}

// ---- same-instant fan-out sweep -------------------------------------------

/// A wide fan-out design: every probe reading activates four contexts at
/// the same instant, two of which feed
/// controllers, one errors periodically (contained-error ordering), one
/// declines periodically (`maybe publish` accounting).
const SWEEP_SPEC: &str = r#"
    device Probe { source tick as Integer; }
    device Horn { action blare(n as Integer); }
    context Double as Integer { when provided tick from Probe always publish; }
    context Echo as Integer { when provided tick from Probe always publish; }
    context Quiet as Integer { when provided tick from Probe maybe publish; }
    context Flaky as Integer { when provided tick from Probe always publish; }
    controller Blare { when provided Double do blare on Horn; }
    controller EchoBlare { when provided Echo do blare on Horn; }
"#;

/// Renders trace + metrics + the contained-error sequence (order and
/// formatting included).
fn render_with_errors(orch: &mut Orchestrator) -> String {
    let mut out = render(orch);
    for err in orch.drain_errors() {
        out.push_str(&format!("error@{}: {}\n", err.at, err.error));
    }
    out
}

fn run_sweep_scenario(seed: u64, tracing: bool) -> String {
    use diaspec_runtime::error::ComponentError;
    let spec = Arc::new(diaspec_core::compile_str(SWEEP_SPEC).unwrap());
    let mut orch = Orchestrator::with_transport(
        spec,
        TransportConfig {
            latency: LatencyModel::Uniform {
                min_ms: 1,
                max_ms: 30,
            },
            loss_probability: 0.05,
            seed,
        },
    );
    for (name, f) in [
        (
            "Double",
            (|v: i64| Ok(Some(Value::Int(v * 2)))) as fn(i64) -> _,
        ),
        ("Echo", |v: i64| Ok(Some(Value::Int(v)))),
        ("Quiet", |v: i64| Ok((v % 3 == 0).then_some(Value::Int(v)))),
        ("Flaky", |v: i64| {
            if v % 7 == 3 {
                Err(ComponentError::new("Flaky", format!("refusing {v}")))
            } else {
                Ok(Some(Value::Int(v + 1)))
            }
        }),
    ] {
        orch.register_context(
            name,
            move |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
                ContextActivation::SourceEvent { value, .. } => {
                    f(value.as_int().expect("integer tick"))
                }
                _ => Ok(None),
            },
        )
        .unwrap();
    }
    for name in ["Blare", "EchoBlare"] {
        orch.register_controller(
            name,
            move |api: &mut ControllerApi<'_>, _: &str, value: &Value| {
                if name == "EchoBlare" && value.as_int().is_some_and(|v| v % 2 == 1) {
                    return Ok(()); // a trivial activation: no actuation
                }
                for horn in api.discover("Horn")?.ids() {
                    api.invoke(&horn, "blare", std::slice::from_ref(value))?;
                }
                Ok(())
            },
        )
        .unwrap();
    }
    for i in 0..3 {
        orch.bind_entity(
            format!("probe-{i}").into(),
            "Probe",
            Default::default(),
            Box::new(|_: &str, _: u64| Ok(Value::Int(0))),
        )
        .unwrap();
    }
    orch.bind_entity(
        "horn-1".into(),
        "Horn",
        Default::default(),
        Box::new(RecordingActuator::new(ActuationLog::new())),
    )
    .unwrap();
    orch.set_tracing(tracing);
    orch.launch().unwrap();
    for step in 0..40i64 {
        // All probes fire at the same instant: same-time fan-out rounds.
        for probe in 0..3 {
            let id = format!("probe-{probe}").into();
            orch.emit_at(
                10 + step as u64 * 50,
                &id,
                "tick",
                Value::Int(step * 3 + probe),
                None,
            )
            .unwrap();
        }
    }
    orch.run_until(5_000);
    render_with_errors(&mut orch)
}

/// Seeds × tracing on/off: with tracing off the trace section is empty
/// and the golden pins metrics and contained-error order alone.
#[test]
fn sweep_scenario_matches_serial_goldens() {
    for seed in [1, 7, 42] {
        for (tracing, suffix) in [(true, "traced"), (false, "untraced")] {
            assert_matches_golden(
                &format!("sweep_seed{seed}_{suffix}.txt"),
                &run_sweep_scenario(seed, tracing),
            );
        }
    }
}
