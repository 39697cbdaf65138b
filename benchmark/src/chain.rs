//! The two workloads on the bare delivery layer: `event_chain` (many
//! sensors, fan-out 1, trivial compute) and `fanout_wide` (one
//! publication to 1 000 controllers that each fold the payload).

use crate::rng::Rng;
use crate::stats::Tail;
use crate::tracer::{self, Site};
use crate::workload::{Finish, Scale, Workload};
use diaspec_runtime::component::ContextActivation;
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
use diaspec_runtime::entity::{AttributeMap, DeviceInstance, EntityId};
use diaspec_runtime::error::DeviceError;
use diaspec_runtime::value::Value;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// What the sink was told: how often, and the wrapping sum of the
/// arguments. The oracle recomputes both from the inputs alone.
#[derive(Default)]
pub struct Absorbed {
    count: AtomicU64,
    sum: AtomicU64,
}

/// The one actuator of both designs. `absorb(v)` adds `v` to the sum.
struct Sink {
    absorbed: Arc<Absorbed>,
}

impl DeviceInstance for Sink {
    fn query(&mut self, source: &str, _now_ms: u64) -> Result<Value, DeviceError> {
        Err(DeviceError::new("sink", source, "the sink has no sources"))
    }

    fn invoke(&mut self, action: &str, args: &[Value], _now_ms: u64) -> Result<(), DeviceError> {
        let _span = tracer::span(Site::Device);
        match args {
            [Value::Int(v)] => {
                self.absorbed.count.fetch_add(1, Relaxed);
                self.absorbed.sum.fetch_add(*v as u64, Relaxed);
                Ok(())
            }
            _ => Err(DeviceError::new("sink", action, "expected one Integer")),
        }
    }
}

fn bind_sink(orch: &mut Orchestrator, absorbed: &Arc<Absorbed>) {
    orch.bind_entity(
        "sink".into(),
        "Sink",
        AttributeMap::new(),
        Box::new(Sink {
            absorbed: Arc::clone(absorbed),
        }),
    )
    .expect("the sink binds");
}

/// Compares the engine's counters and the sink's tally with what the
/// inputs imply.
fn check_chain(
    orch: &mut Orchestrator,
    absorbed: &Absorbed,
    emissions: u64,
    fan_out: u64,
    expected_sum: u64,
) -> Finish {
    let errors = orch.drain_errors();
    let m = *orch.metrics();
    let mut mismatches = Vec::new();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            mismatches.push(format!("{what}: got {got}, expected {want}"));
        }
    };
    expect("emissions", m.emissions, emissions);
    expect("publications", m.publications, emissions);
    expect("actuations", m.actuations, emissions * fan_out);
    expect(
        "absorb calls",
        absorbed.count.load(Relaxed),
        emissions * fan_out,
    );
    expect("absorb checksum", absorbed.sum.load(Relaxed), expected_sum);
    Finish {
        attempted: emissions,
        failed: errors.len() as u64 + orch.errors_dropped(),
        mismatches,
        ..Finish::default()
    }
}

// ---- event_chain ---------------------------------------------------------

const CHAIN_SPEC: &str = r#"
    device Sensor { attribute zone as String; source v as Integer; }
    device Sink { action absorb(v as Integer); }
    context Agg as Integer { when provided v from Sensor always publish; }
    controller Out { when provided Agg do absorb on Sink; }
"#;

/// `event_chain`: sensor emission → `Agg` → `Out` → `absorb`.
pub struct EventChain {
    orch: Orchestrator,
    ids: Vec<EntityId>,
    absorbed: Arc<Absorbed>,
    /// Simulated ms of the next emission; one emission per ms.
    at: u64,
    emitted: u64,
    expected_sum: u64,
}

/// The seeded emission schedule of one slice, replayed every slice.
pub struct ChainInputs {
    sensors: usize,
    /// Which sensor emits, per message.
    order: Vec<u32>,
    /// What it emits.
    values: Vec<i64>,
    warm_up: usize,
}

impl EventChain {
    fn emit(&mut self, sensor: u32, value: i64) {
        let _emit = tracer::span(Site::Emit);
        self.orch
            .emit_at(
                self.at,
                &self.ids[sensor as usize],
                "v",
                Value::Int(value),
                None,
            )
            .expect("a bound sensor emits");
        self.emitted += 1;
        self.expected_sum = self.expected_sum.wrapping_add(value as u64);
    }

    fn request(&mut self, sensor: u32, value: i64) {
        let _request = tracer::span(Site::Request);
        self.emit(sensor, value);
        let _run = tracer::span(Site::RunUntil);
        self.orch.run_until(self.at);
        self.at += 1;
    }

    /// The first `count` requests of the schedule, timed only as a whole
    /// by the caller.
    pub fn run_requests(&mut self, inputs: &ChainInputs, count: usize) {
        for (sensor, value) in inputs.order.iter().zip(&inputs.values).take(count) {
            self.request(*sensor, *value);
        }
    }

    /// Admits `batch` emissions at one instant and drains them in one
    /// `run_until`: the saturated figure next to the one-at-a-time loop.
    pub fn drain_batch(&mut self, inputs: &ChainInputs, batch: usize) -> u64 {
        let before = self.emitted;
        for (sensor, value) in inputs.order.iter().zip(&inputs.values).take(batch) {
            self.emit(*sensor, *value);
        }
        self.orch.run_until(self.at);
        self.at += 1;
        self.emitted - before
    }

    /// Turns the engine's own span tracing on (the cost row; never on in
    /// an end-to-end figure).
    pub fn set_engine_span_tracing(&mut self, on: bool) {
        self.orch.set_span_tracing(on);
        self.orch.set_span_buffering(false);
    }
}

impl Workload for EventChain {
    const NAME: &'static str = "event_chain";
    const ITEMS: &'static str = "messages";
    const TAIL: Tail = Tail::P99;
    const FIXED_SLICES: usize = 3;
    type Inputs = ChainInputs;

    fn inputs(seed: u64, scale: Scale) -> ChainInputs {
        let (sensors, messages, warm_up) = match scale {
            Scale::Full => (8_192, 500_000, 100_000),
            Scale::Toy => (64, 2_000, 200),
        };
        let mut rng = Rng::new(seed, 1);
        ChainInputs {
            sensors,
            order: (0..messages)
                .map(|_| rng.below(sensors as u64) as u32)
                .collect(),
            values: (0..messages).map(|_| rng.next_u64() as i64 >> 16).collect(),
            warm_up,
        }
    }

    fn requests_per_slice(inputs: &ChainInputs) -> usize {
        inputs.order.len()
    }

    fn set_up(inputs: &ChainInputs, _traced: bool) -> EventChain {
        let spec = Arc::new(diaspec_core::compile_str(CHAIN_SPEC).expect("the design compiles"));
        let mut orch = Orchestrator::new(spec);
        orch.register_context(
            "Agg",
            move |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| {
                let _span = tracer::span(Site::Context);
                match activation {
                    ContextActivation::SourceEvent { value, .. } => Ok(Some(value.clone())),
                    _ => Ok(None),
                }
            },
        )
        .expect("Agg registers");
        let sink: EntityId = "sink".into();
        orch.register_controller(
            "Out",
            move |api: &mut ControllerApi<'_>, _: &str, value: &Value| {
                let _span = tracer::span(Site::Controller);
                let _actuate = tracer::span(Site::Actuate);
                api.invoke(&sink, "absorb", std::slice::from_ref(value))?;
                Ok(())
            },
        )
        .expect("Out registers");
        let zone = Value::from("chain");
        let ids: Vec<EntityId> = (0..inputs.sensors)
            .map(|i| EntityId::from(format!("s{i}")))
            .collect();
        for id in &ids {
            let mut attrs = AttributeMap::new();
            attrs.insert("zone".to_owned(), zone.clone());
            orch.bind_entity(
                id.clone(),
                "Sensor",
                attrs,
                Box::new(|_: &str, _: u64| Ok(Value::Int(0))),
            )
            .expect("a sensor binds");
        }
        let absorbed = Arc::new(Absorbed::default());
        bind_sink(&mut orch, &absorbed);
        orch.launch().expect("the design launches");
        EventChain {
            orch,
            ids,
            absorbed,
            at: 1,
            emitted: 0,
            expected_sum: 0,
        }
    }

    fn warm_up(&mut self, inputs: &ChainInputs) {
        self.run_requests(inputs, inputs.warm_up);
    }

    fn slice(&mut self, inputs: &ChainInputs, request_ns: &mut Vec<u64>) -> u64 {
        for (sensor, value) in inputs.order.iter().zip(&inputs.values) {
            let started = Instant::now();
            self.request(*sensor, *value);
            request_ns.push(started.elapsed().as_nanos() as u64);
        }
        inputs.order.len() as u64
    }

    fn finish(mut self, _: &ChainInputs) -> Finish {
        check_chain(
            &mut self.orch,
            &self.absorbed,
            self.emitted,
            1,
            self.expected_sum,
        )
    }
}

// ---- fanout_wide ---------------------------------------------------------

/// Elements of the published `Integer[]` (4 KiB of integers).
const PAYLOAD_LEN: usize = 512;
/// Distinct seeded payloads, published round-robin.
const PAYLOADS: usize = 16;

/// `fanout_wide`: one button press → `Relay` publishes an `Integer[]` →
/// every `Fan<i>` controller folds it and calls `absorb(sum)`.
pub struct FanoutWide {
    orch: Orchestrator,
    button: EntityId,
    absorbed: Arc<Absorbed>,
    at: u64,
    published: u64,
    expected_sum: u64,
}

/// Seeded payloads and the sizes.
pub struct FanoutInputs {
    fan_out: usize,
    publications: usize,
    warm_up: usize,
    payloads: Arc<Vec<Value>>,
    /// Fold of each payload, computed here and not by the engine.
    folds: Vec<i64>,
}

fn fold(payload: &Value) -> i64 {
    match payload {
        Value::Array(items) => items.iter().fold(0i64, |acc, item| match item {
            Value::Int(v) => acc.wrapping_add(*v),
            _ => acc,
        }),
        _ => 0,
    }
}

impl FanoutWide {
    fn request(&mut self, inputs: &FanoutInputs) {
        let _request = tracer::span(Site::Request);
        {
            let _emit = tracer::span(Site::Emit);
            self.orch
                .emit_at(
                    self.at,
                    &self.button,
                    "press",
                    Value::Int(self.published as i64),
                    None,
                )
                .expect("the button emits");
        }
        let _run = tracer::span(Site::RunUntil);
        self.orch.run_until(self.at);
        self.at += 1;
        let fold = inputs.folds[self.published as usize % PAYLOADS];
        self.expected_sum = self
            .expected_sum
            .wrapping_add((fold as u64).wrapping_mul(inputs.fan_out as u64));
        self.published += 1;
    }
}

impl Workload for FanoutWide {
    const NAME: &'static str = "fanout_wide";
    const ITEMS: &'static str = "deliveries";
    const TAIL: Tail = Tail::P99;
    const FIXED_SLICES: usize = 3;
    type Inputs = FanoutInputs;

    fn inputs(seed: u64, scale: Scale) -> FanoutInputs {
        let (fan_out, publications, warm_up) = match scale {
            Scale::Full => (1_000, 1_000, 200),
            Scale::Toy => (20, 50, 5),
        };
        let mut rng = Rng::new(seed, 2);
        let payloads: Vec<Value> = (0..PAYLOADS)
            .map(|_| {
                Value::Array(
                    (0..PAYLOAD_LEN)
                        .map(|_| Value::Int(rng.next_u64() as i64 >> 24))
                        .collect(),
                )
            })
            .collect();
        FanoutInputs {
            fan_out,
            publications,
            warm_up,
            folds: payloads.iter().map(fold).collect(),
            payloads: Arc::new(payloads),
        }
    }

    fn requests_per_slice(inputs: &FanoutInputs) -> usize {
        inputs.publications
    }

    fn set_up(inputs: &FanoutInputs, _traced: bool) -> FanoutWide {
        let mut design = String::from(
            "device Button { source press as Integer; }\n\
             device Sink { action absorb(v as Integer); }\n\
             context Relay as Integer[] { when provided press from Button always publish; }\n",
        );
        for i in 0..inputs.fan_out {
            design.push_str(&format!(
                "controller Fan{i} {{ when provided Relay do absorb on Sink; }}\n"
            ));
        }
        let spec = Arc::new(diaspec_core::compile_str(&design).expect("the design compiles"));
        let mut orch = Orchestrator::new(spec);
        let payloads = Arc::clone(&inputs.payloads);
        orch.register_context(
            "Relay",
            move |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| {
                let _span = tracer::span(Site::Context);
                match activation {
                    ContextActivation::SourceEvent {
                        value: Value::Int(n),
                        ..
                    } => Ok(Some(payloads[*n as usize % PAYLOADS].clone())),
                    _ => Ok(None),
                }
            },
        )
        .expect("Relay registers");
        for i in 0..inputs.fan_out {
            let sink: EntityId = "sink".into();
            orch.register_controller(
                &format!("Fan{i}"),
                move |api: &mut ControllerApi<'_>, _: &str, value: &Value| {
                    let _span = tracer::span(Site::Controller);
                    let sum = Value::Int(fold(value));
                    let _actuate = tracer::span(Site::Actuate);
                    api.invoke(&sink, "absorb", &[sum])?;
                    Ok(())
                },
            )
            .expect("a Fan registers");
        }
        orch.bind_entity(
            "button".into(),
            "Button",
            AttributeMap::new(),
            Box::new(|_: &str, _: u64| Ok(Value::Int(0))),
        )
        .expect("the button binds");
        let absorbed = Arc::new(Absorbed::default());
        bind_sink(&mut orch, &absorbed);
        orch.launch().expect("the design launches");
        FanoutWide {
            orch,
            button: "button".into(),
            absorbed,
            at: 1,
            published: 0,
            expected_sum: 0,
        }
    }

    fn warm_up(&mut self, inputs: &FanoutInputs) {
        for _ in 0..inputs.warm_up {
            self.request(inputs);
        }
    }

    fn slice(&mut self, inputs: &FanoutInputs, request_ns: &mut Vec<u64>) -> u64 {
        for _ in 0..inputs.publications {
            let started = Instant::now();
            self.request(inputs);
            request_ns.push(started.elapsed().as_nanos() as u64);
        }
        // One delivery to the context and one to every controller.
        (inputs.publications * (inputs.fan_out + 1)) as u64
    }

    fn finish(mut self, inputs: &FanoutInputs) -> Finish {
        check_chain(
            &mut self.orch,
            &self.absorbed,
            self.published,
            inputs.fan_out as u64,
            self.expected_sum,
        )
    }
}
