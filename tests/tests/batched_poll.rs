//! One exchange per sweep, and exactly the calls of the in-process run.
//!
//! A periodic poll of remote devices crosses each link as one
//! `QueryBatch` / `Values` pair. The rule that keeps this invisible to
//! the design: each sweep member's batched entry answers that member's
//! *first* query in the sweep, and every later query of it (an `@error`
//! retry, or a failover to it) goes out as a single `Query`; crashed
//! members are never sent. Here one design runs twice from the same
//! seed — every device bound in process, then every device on one edge
//! behind a `SimTransport` link — and each device's driver logs every
//! `(source, now, result)` it serves. The family polled holds:
//!
//! - a member crashed at 0.5 s and restarted at 4.5 s;
//! - an `@error(retry)` member whose first call fails;
//! - a `failover` pair whose target comes later in family order, the
//!   source failing in the 2 s sweep;
//! - a member unbound between the 2 s and 3 s sweeps.
//!
//! The call logs and the orchestration summaries must be equal, a clean
//! sweep must cost exactly one `QueryBatch` frame, and a `get` read
//! (`get_device_source`) must still cross as one `Query` per member.

use diaspec_devices::common::{ActuationLog, RecordingActuator};
use diaspec_runtime::component::ContextActivation;
use diaspec_runtime::deploy::{EdgeRuntime, Link, RemoteDeviceProxy};
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
use diaspec_runtime::entity::{AttributeMap, DeviceInstance};
use diaspec_runtime::error::DeviceError;
use diaspec_runtime::fault::FaultPlan;
use diaspec_runtime::transport::{
    Envelope, MessageKind, SimTransport, Transport, TransportConfig, TransportError, TransportStats,
};
use diaspec_runtime::value::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// `Base` is the polled family; its subtypes carry the `@error`
/// policies. Family order is `Base`, `Flaky`, `Twin`, ids within each.
const SPEC: &str = r#"
    device Base { attribute zone as String; source v as Integer; }
    @error(policy = "retry", attempts = 3)
    device Flaky extends Base { }
    @error(policy = "failover")
    device Twin extends Base { }
    device Sink { action absorb(total as Integer); }
    context Sum as Integer {
      when periodic v from Base <1 sec> maybe publish;
    }
    controller Out { when provided Sum do absorb on Sink; }
"#;

/// `SPEC` plus a context that reads the family with `get` on every sum.
const SPEC_WITH_GET: &str = r#"
    device Base { attribute zone as String; source v as Integer; }
    device Sink { action absorb(total as Integer); }
    context Sum as Integer {
      when periodic v from Base <1 sec> maybe publish;
    }
    context Probe as Integer {
      when provided Sum
        get v from Base
        maybe publish;
    }
    controller Out { when provided Sum do absorb on Sink; }
"#;

const SEED: u64 = 7;
const UNBIND_AT_MS: u64 = 2_500;
const RUN_UNTIL_MS: u64 = 6_000;

/// Every call each device served: `(source, now, result)`.
type CallLog = Arc<Mutex<BTreeMap<String, Vec<(String, u64, String)>>>>;

/// When a driver fails.
#[derive(Clone, Copy)]
enum Fails {
    Never,
    /// Its first call ever.
    FirstCall,
    /// Every call at this sim time.
    At(u64),
}

/// A driver that logs every query it serves.
struct Logged {
    name: &'static str,
    reading: i64,
    fails: Fails,
    calls: u64,
    log: CallLog,
}

impl DeviceInstance for Logged {
    fn query(&mut self, source: &str, now_ms: u64) -> Result<Value, DeviceError> {
        let fail = match self.fails {
            Fails::Never => false,
            Fails::FirstCall => self.calls == 0,
            Fails::At(at) => now_ms == at,
        };
        self.calls += 1;
        let result = if fail {
            Err(DeviceError::new(self.name, source, "sensor fault"))
        } else {
            Ok(Value::Int(
                self.reading + i64::try_from(now_ms / 1_000).expect("small"),
            ))
        };
        self.log
            .lock()
            .expect("log lock")
            .entry(self.name.to_owned())
            .or_default()
            .push((
                source.to_owned(),
                now_ms,
                match &result {
                    Ok(value) => value.to_string(),
                    Err(_) => "fault".to_owned(),
                },
            ));
        result
    }

    fn invoke(&mut self, action: &str, _: &[Value], _: u64) -> Result<(), DeviceError> {
        Err(DeviceError::new(self.name, action, "read-only"))
    }
}

/// The polled members: (id, type, failure schedule), in bind order.
const MEMBERS: [(&str, &str, Fails); 7] = [
    ("base-0", "Base", Fails::Never),
    ("base-1", "Base", Fails::Never),
    ("base-crashed", "Base", Fails::Never),
    ("base-gone", "Base", Fails::Never),
    ("flaky-0", "Flaky", Fails::FirstCall),
    ("twin-a", "Twin", Fails::At(2_000)),
    ("twin-b", "Twin", Fails::Never),
];

/// Where the members' drivers run.
#[derive(Clone, Copy, PartialEq)]
enum Placement {
    InProcess,
    Edge,
}

/// What one run observed.
#[derive(Debug)]
struct Outcome {
    calls: BTreeMap<String, Vec<(String, u64, String)>>,
    summary: String,
    /// `(kind, sim time)` of every request frame the link sent.
    frames: Vec<(MessageKind, u64)>,
}

/// A transport that records each request's kind and sim time.
struct Recording<T> {
    inner: T,
    frames: Arc<Mutex<Vec<(MessageKind, u64)>>>,
}

impl<T: Transport> Transport for Recording<T> {
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }
    fn peer(&self) -> &str {
        self.inner.peer()
    }
    fn exchange(&mut self, envelope: &Envelope) -> Result<Envelope, TransportError> {
        self.frames
            .lock()
            .expect("frames lock")
            .push((envelope.kind, envelope.now));
        self.inner.exchange(envelope)
    }
    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

fn run(spec: &str, placement: Placement) -> Outcome {
    let spec = Arc::new(diaspec_core::compile_str(spec).expect("spec compiles"));
    let families: Vec<_> = MEMBERS
        .iter()
        .filter(|(_, family, _)| spec.device(family).is_some())
        .collect();
    let mut orch = Orchestrator::new(Arc::clone(&spec));
    orch.register_context(
        "Sum",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::Batch(batch) => Ok(Some(Value::Int(
                batch.readings.iter().filter_map(|r| r.value.as_int()).sum(),
            ))),
            _ => Ok(None),
        },
    )
    .expect("Sum registers");
    if spec.context("Probe").is_some() {
        orch.register_context(
            "Probe",
            |api: &mut ContextApi<'_>, _: ContextActivation<'_>| {
                let read = api.get_device_source("Base", "v")?;
                Ok(Some(Value::Int(i64::try_from(read.len()).expect("small"))))
            },
        )
        .expect("Probe registers");
    }
    orch.register_controller(
        "Out",
        |api: &mut ControllerApi<'_>, _: &str, value: &Value| {
            for sink in api.discover("Sink")?.ids() {
                api.invoke(&sink, "absorb", std::slice::from_ref(value))?;
            }
            Ok(())
        },
    )
    .expect("Out registers");
    orch.enable_faults(
        FaultPlan::seeded(SEED)
            .crash_at(500, "base-crashed")
            .restart_at(4_500, "base-crashed"),
    )
    .expect("faults enable");

    let log = CallLog::default();
    let driver = |name: &'static str, reading: i64, fails: Fails| Logged {
        name,
        reading,
        fails,
        calls: 0,
        log: Arc::clone(&log),
    };
    let frames = Arc::new(Mutex::new(Vec::new()));
    let link = (placement == Placement::Edge).then(|| {
        let mut edge = EdgeRuntime::new("edge0");
        for (reading, (name, _, fails)) in (10..).zip(&families) {
            edge.add_device(*name, Box::new(driver(name, reading, *fails)));
        }
        let edge = Arc::new(Mutex::new(edge));
        let mut sim = SimTransport::new(TransportConfig::default());
        sim.connect_handler(Box::new(move |envelope| {
            edge.lock().expect("edge lock").handle(envelope)
        }));
        Link::new(Recording {
            inner: sim,
            frames: Arc::clone(&frames),
        })
    });
    let mut zone = AttributeMap::new();
    zone.insert("zone".to_owned(), Value::Str("east".into()));
    for (reading, (name, family, fails)) in (10..).zip(&families) {
        let instance: Box<dyn DeviceInstance> = match &link {
            Some(link) => Box::new(RemoteDeviceProxy::new(*name, Arc::clone(link))),
            None => Box::new(driver(name, reading, *fails)),
        };
        orch.bind_entity((*name).into(), family, zone.clone(), instance)
            .expect("member binds");
    }
    let sink_log = ActuationLog::new();
    orch.bind_entity(
        "sink".into(),
        "Sink",
        AttributeMap::new(),
        Box::new(RecordingActuator::new(sink_log.clone())),
    )
    .expect("sink binds");

    orch.set_tracing(true);
    orch.launch().expect("launch");
    orch.run_until(UNBIND_AT_MS);
    orch.unbind_entity(&"base-gone".into()).expect("unbinds");
    orch.run_until(RUN_UNTIL_MS);

    let absorbed: Vec<String> = sink_log
        .entries()
        .iter()
        .map(|a| a.args[0].to_string())
        .collect();
    let trace: Vec<String> = orch.take_trace().iter().map(ToString::to_string).collect();
    let summary = format!(
        "absorbed {absorbed:?}\nregistry {:?}\ntrace\n{}",
        orch.registry().stats(),
        trace.join("\n")
    );
    let calls = log.lock().expect("log lock").clone();
    let frames = frames.lock().expect("frames lock").clone();
    Outcome {
        calls,
        summary,
        frames,
    }
}

#[test]
fn a_batched_sweep_serves_every_edge_driver_its_in_process_calls() {
    let local = run(SPEC, Placement::InProcess);
    let edge = run(SPEC, Placement::Edge);
    assert_eq!(edge.calls, local.calls, "per-device call logs diverged");
    assert_eq!(
        edge.summary, local.summary,
        "orchestration summaries diverged"
    );

    // The scenario happened: the crashed member served nothing between
    // its crash and its restart, the retry and the failover re-asked
    // their member in the same sweep, and the unbound member left.
    let at = |name: &str, now: u64| {
        local.calls[name]
            .iter()
            .filter(|(_, t, _)| *t == now)
            .count()
    };
    assert_eq!(
        (1..=4)
            .map(|s| at("base-crashed", s * 1_000))
            .sum::<usize>(),
        0
    );
    assert_eq!(at("base-crashed", 5_000), 1, "restarted members rejoin");
    assert_eq!(at("flaky-0", 1_000), 2, "first call fails, the retry heals");
    assert_eq!(at("twin-b", 2_000), 2, "failover target, then its own turn");
    assert_eq!(at("base-gone", 3_000), 0);

    // A clean sweep is one QueryBatch frame; a retry or a failover adds
    // one single Query for the member asked again.
    let sweep = |now: u64| -> Vec<MessageKind> {
        edge.frames
            .iter()
            .filter(|(_, t)| *t == now)
            .map(|(kind, _)| *kind)
            .collect()
    };
    use MessageKind::{Query, QueryBatch};
    assert_eq!(sweep(1_000), [QueryBatch, Query], "flaky-0's retry");
    assert_eq!(sweep(2_000), [QueryBatch, Query], "twin-b asked again");
    for clean in [3_000, 4_000, 5_000, 6_000] {
        assert_eq!(sweep(clean), [QueryBatch], "sweep at {clean} ms");
    }
}

#[test]
fn a_get_read_still_crosses_as_one_query_per_member() {
    let local = run(SPEC_WITH_GET, Placement::InProcess);
    let edge = run(SPEC_WITH_GET, Placement::Edge);
    assert_eq!(edge.calls, local.calls, "per-device call logs diverged");
    assert_eq!(
        edge.summary, local.summary,
        "orchestration summaries diverged"
    );
    // In the 3 s sweep the family is base-0 and base-1 (base-crashed is
    // down, base-gone unbound): one batch for the poll, then Probe's
    // `get` reads each member with its own Query.
    let frames: Vec<MessageKind> = edge
        .frames
        .iter()
        .filter(|(_, t)| *t == 3_000)
        .map(|(kind, _)| *kind)
        .collect();
    assert_eq!(
        frames,
        [
            MessageKind::QueryBatch,
            MessageKind::Query,
            MessageKind::Query
        ]
    );
}
