//! Allocation guards for the delivery paths.
//!
//! Periodic delivery (poll → `every <T>` window): a polled reading is
//! three shared handles — the entity id, the canonical handle of its
//! grouping attribute value, and the interned `Boolean` — so a poll sweep
//! makes a constant number of allocator calls, not one (or five) per
//! reading. A grouped window buffers each reading as one 16-byte record
//! (a group id and the value handle), and its flush indexes the records
//! with a constant number of allocator calls.
//!
//! A sweep walks the registry's entity slab by slot: its allocator calls
//! do not grow with the fleet, and unbind/rebind churn reuses freed
//! slots instead of growing the slab.
//!
//! Event-driven delivery (sensor → context → controller → actuation):
//! with every telemetry switch off no site builds a trace event, so a
//! message costs only the allocations the pipeline itself needs.
//!
//! A periodic batch is grouped into one flat layout and read by the
//! Map phase in place: the engine's batch path also makes a constant
//! number of allocator calls, whatever the batch size.
//!
//! This file has its own counting allocator; its tests take [`SERIAL`]
//! so nothing else allocates while one of them counts.

use diaspec_core::compile_str;
use diaspec_runtime::component::{ContextActivation, Record};
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
use diaspec_runtime::entity::{AttributeMap, BindingTime, DeviceInstance, EntityId};
use diaspec_runtime::error::DeviceError;
use diaspec_runtime::registry::Registry;
use diaspec_runtime::trace::TraceKind;
use diaspec_runtime::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counts allocator calls (`alloc` and `realloc`) and live heap bytes.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates two statistics counters around the call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held by each test while it runs: the counters are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

const SENSORS: u64 = 1_000;
const GROUPS: u64 = 8;
const POLLS: u64 = 10;
const PERIOD_MS: u64 = 600_000;

#[test]
fn a_polled_reading_costs_handles_not_allocations() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let spec = Arc::new(
        compile_str(
            r#"
            device PresenceSensor {
              attribute parkingLot as ParkingLotEnum;
              source presence as Boolean;
            }
            device Messenger { action send(text as String); }
            context Occupancy as Integer {
              when periodic presence from PresenceSensor <10 min>
                grouped by parkingLot every <110 min>
                always publish;
            }
            controller Report { when provided Occupancy do send on Messenger; }
            enumeration ParkingLotEnum { L0, L1, L2, L3, L4, L5, L6, L7 }
            "#,
        )
        .unwrap(),
    );
    let mut orch = Orchestrator::new(spec);
    orch.register_context(
        "Occupancy",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::Batch(batch) => Ok(Some(Value::Int(
                batch.grouped.as_ref().map_or(0, |g| g.records().len()) as i64,
            ))),
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_controller("Report", |_: &mut ControllerApi<'_>, _: &str, _: &Value| {
        Ok(())
    })
    .unwrap();
    for i in 0..SENSORS {
        let mut attrs = AttributeMap::new();
        attrs.insert(
            "parkingLot".to_owned(),
            Value::enum_value("ParkingLotEnum", format!("L{}", i % GROUPS)),
        );
        let driver = move |_: &str, now: u64| Ok(Value::Bool((now / PERIOD_MS + i) % 3 == 1));
        orch.bind_entity(
            format!("presence-{i:04}").into(),
            "PresenceSensor",
            attrs,
            Box::new(driver),
        )
        .unwrap();
    }
    orch.launch().unwrap();

    let calls_before = CALLS.load(Ordering::Relaxed);
    let live_before = LIVE.load(Ordering::Relaxed);
    orch.run_until(POLLS * PERIOD_MS);
    let calls = CALLS.load(Ordering::Relaxed) - calls_before;
    let grown = LIVE.load(Ordering::Relaxed).saturating_sub(live_before);

    let readings = SENSORS * POLLS;
    assert_eq!(orch.metrics().readings_polled, readings);
    assert_eq!(orch.metrics().periodic_deliveries, POLLS);
    assert_eq!(orch.metrics().publications, 0, "the window is still open");
    assert!(orch.drain_errors().is_empty());

    // Parent commit: about 6.5 calls and 249 B per reading.
    let calls_per_reading = calls as f64 / readings as f64;
    assert!(
        calls_per_reading <= 1.0,
        "{calls} allocator calls for {readings} polled readings ({calls_per_reading:.2} each)"
    );
    // The 110-minute window is sized once, for 12 polls; 10 are in it.
    // A buffered reading was a 32-byte `PolledReading` (38.4 B each with
    // the two reserved polls); it is a 16-byte record (19.2 B).
    let bytes_per_reading = grown as f64 / readings as f64;
    assert!(
        bytes_per_reading <= 20.0,
        "{grown} B of live heap for {readings} buffered readings ({bytes_per_reading:.1} B each)"
    );
}

#[test]
fn a_buffered_grouped_reading_is_one_16_byte_record() {
    assert!(std::mem::size_of::<Record>() <= 16);
}

/// A registry of `sensors` grouped Boolean presence sensors, `GROUPS`
/// parking lots, bound as `presence-0000`, `presence-0001`, ….
fn presence_fleet(sensors: u64) -> Registry {
    let spec = compile_str(
        r#"
        device PresenceSensor {
          attribute parkingLot as ParkingLotEnum;
          source presence as Boolean;
        }
        enumeration ParkingLotEnum { L0, L1, L2, L3, L4, L5, L6, L7 }
        "#,
    )
    .unwrap();
    let mut registry = Registry::new(Arc::new(spec));
    registry.set_lease_ttl(Some(PERIOD_MS), 0);
    for i in 0..sensors {
        bind_presence(&mut registry, i, 0);
    }
    registry
}

fn bind_presence(registry: &mut Registry, i: u64, now: u64) {
    let mut attrs = AttributeMap::new();
    attrs.insert(
        "parkingLot".to_owned(),
        Value::enum_value("ParkingLotEnum", format!("L{}", i % GROUPS)),
    );
    let driver = move |_: &str, now: u64| Ok(Value::Bool((now / PERIOD_MS + i) % 3 == 1));
    registry
        .bind(
            format!("presence-{i:04}").into(),
            "PresenceSensor",
            attrs,
            Box::new(driver),
            BindingTime::Runtime,
            now,
        )
        .unwrap();
}

/// The fewest allocator calls one grouped sweep of `registry` made, over
/// a few sweeps (the fewest is the sweep's own count: a stray call of
/// the test harness's threads can only add).
fn sweep_calls(registry: &mut Registry) -> u64 {
    (1..=5)
        .map(|poll| {
            let before = CALLS.load(Ordering::Relaxed);
            let readings = registry.poll(
                "PresenceSensor",
                "presence",
                Some("parkingLot"),
                poll * PERIOD_MS,
            );
            let calls = CALLS.load(Ordering::Relaxed) - before;
            assert_eq!(readings.len(), registry.len());
            assert!(readings.iter().all(|r| r.group.is_some()));
            calls
        })
        .min()
        .expect("five sweeps")
}

#[test]
fn a_sweep_costs_the_same_allocator_calls_at_100_and_at_4000_sensors() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut small = presence_fleet(100);
    let mut large = presence_fleet(4_000);
    let (calls_small, calls_large) = (sweep_calls(&mut small), sweep_calls(&mut large));
    // The result vector and the slot buffer, each sized once: no call
    // per reading and none for a lookup.
    assert_eq!(
        calls_small, calls_large,
        "a sweep of 100 sensors made {calls_small} allocator calls, of 4 000 {calls_large}"
    );
    assert!(
        calls_large <= 2,
        "{calls_large} allocator calls for one sweep"
    );
}

/// A Map phase that emits nothing: the executor's own calls then do not
/// grow with the batch, and what grows is the engine's.
struct Silent;

impl diaspec_runtime::component::MapReduceLogic for Silent {
    fn map(&self, _group: &Value, _reading: &Value, _emit: &mut dyn FnMut(Value, Value)) {}

    fn reduce(&self, _key: &Value, _values: &[Value]) -> Value {
        Value::Int(0)
    }
}

/// The fewest allocator calls one poll period of an engine with
/// `sensors` presence sensors made, over a few periods. Each period is a
/// poll, a grouped MapReduce batch (grouping, the Map input, an empty
/// Map) and the context's activation.
fn batch_calls(sensors: u64) -> u64 {
    let spec = Arc::new(
        compile_str(
            r#"
            device PresenceSensor {
              attribute parkingLot as ParkingLotEnum;
              source presence as Boolean;
            }
            context Free as Integer {
              when periodic presence from PresenceSensor <10 min>
                grouped by parkingLot with map as Boolean reduce as Integer
                no publish;
            }
            enumeration ParkingLotEnum { L0, L1, L2, L3, L4, L5, L6, L7 }
            "#,
        )
        .unwrap(),
    );
    let mut orch = Orchestrator::new(spec);
    orch.register_context(
        "Free",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::Batch(batch) => {
                let grouped = batch.grouped.as_ref().expect("grouping declared");
                assert_eq!(grouped.len() as u64, GROUPS);
                Ok(None)
            }
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_map_reduce("Free", Silent).unwrap();
    for i in 0..sensors {
        let mut attrs = AttributeMap::new();
        attrs.insert(
            "parkingLot".to_owned(),
            Value::enum_value("ParkingLotEnum", format!("L{}", i % GROUPS)),
        );
        let driver = move |_: &str, now: u64| Ok(Value::Bool((now / PERIOD_MS + i) % 3 == 1));
        orch.bind_entity(
            format!("presence-{i:04}").into(),
            "PresenceSensor",
            attrs,
            Box::new(driver),
        )
        .unwrap();
    }
    orch.launch().unwrap();
    let calls = (1..=5)
        .map(|period| {
            let before = CALLS.load(Ordering::Relaxed);
            orch.run_until(period * PERIOD_MS);
            CALLS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("five periods");
    assert_eq!(orch.metrics().map_reduce_executions, 5);
    assert_eq!(orch.metrics().readings_polled, 5 * sensors);
    assert!(orch.drain_errors().is_empty());
    calls
}

#[test]
fn an_engine_batch_costs_the_same_allocator_calls_at_100_and_at_4000_sensors() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (calls_small, calls_large) = (batch_calls(100), batch_calls(4_000));
    // Grouping sizes two reading-sized vectors and a few group-sized
    // tables once, and the executor collects the Map input once: no call
    // grows with the batch (19 calls a period at both sizes). A map of
    // per-group vectors grows each of them logarithmically, and a
    // collected input without a length does too (39 and 84 calls).
    assert_eq!(
        calls_small, calls_large,
        "a batch of 100 sensors made {calls_small} allocator calls, of 4 000 {calls_large}"
    );
}

/// The fewest allocator calls one 30-minute window (three polls, the
/// flush, the seal, the handler and the drop of the delivered batch) of
/// an engine with `sensors` grouped presence sensors made, over a few
/// windows.
fn window_calls(sensors: u64) -> u64 {
    let spec = Arc::new(
        compile_str(
            r#"
            device PresenceSensor {
              attribute parkingLot as ParkingLotEnum;
              source presence as Boolean;
            }
            context Occupancy as Integer {
              when periodic presence from PresenceSensor <10 min>
                grouped by parkingLot every <30 min>
                no publish;
            }
            enumeration ParkingLotEnum { L0, L1, L2, L3, L4, L5, L6, L7 }
            "#,
        )
        .unwrap(),
    );
    let mut orch = Orchestrator::new(spec);
    orch.register_context(
        "Occupancy",
        move |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::Batch(batch) => {
                let grouped = batch.grouped.as_ref().expect("grouping declared");
                assert_eq!(grouped.len() as u64, GROUPS);
                assert_eq!(grouped.records().len() as u64, 3 * sensors);
                let occupied = grouped
                    .iter()
                    .flat_map(|(_, readings)| readings.iter())
                    .filter(|r| r.as_bool() == Some(true))
                    .count();
                assert!(occupied > 0);
                Ok(None)
            }
            _ => Ok(None),
        },
    )
    .unwrap();
    for i in 0..sensors {
        let mut attrs = AttributeMap::new();
        attrs.insert(
            "parkingLot".to_owned(),
            Value::enum_value("ParkingLotEnum", format!("L{}", i % GROUPS)),
        );
        let driver = move |_: &str, now: u64| Ok(Value::Bool((now / PERIOD_MS + i) % 3 == 1));
        orch.bind_entity(
            format!("presence-{i:04}").into(),
            "PresenceSensor",
            attrs,
            Box::new(driver),
        )
        .unwrap();
    }
    orch.launch().unwrap();
    // The first window flushes at minute 30; each later one 30 minutes on.
    orch.run_until(3 * PERIOD_MS);
    let calls = (2..=5)
        .map(|window| {
            let before = CALLS.load(Ordering::Relaxed);
            orch.run_until(3 * window * PERIOD_MS);
            CALLS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("four windows");
    assert_eq!(orch.metrics().context_activations, 5);
    assert!(orch.drain_errors().is_empty());
    calls
}

#[test]
fn a_window_flush_costs_the_same_allocator_calls_at_100_and_at_4000_sensors() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (calls_small, calls_large) = (window_calls(100), window_calls(4_000));
    // Each poll sizes its sweep once, the window's first poll sizes the
    // window once, and the flush indexes the records with one position
    // vector and a few group-sized tables.
    assert_eq!(
        calls_small, calls_large,
        "a window of 100 sensors made {calls_small} allocator calls, of 4 000 {calls_large}"
    );
}

#[test]
fn unbind_rebind_churn_reuses_freed_slots() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const SENSORS: u64 = 1_000;
    const CHURNED: u64 = 100;
    let mut registry = presence_fleet(SENSORS);
    // One cycle: a tenth of the fleet leaves and is replaced under fresh
    // ids, so nothing but a freed slot can take a new record's place.
    let mut next = SENSORS;
    let mut cycle = |registry: &mut Registry| {
        for i in next - SENSORS..next - SENSORS + CHURNED {
            registry.unbind(&format!("presence-{i:04}").into()).unwrap();
        }
        for _ in 0..CHURNED {
            bind_presence(registry, next, 0);
            next += 1;
        }
        assert_eq!(registry.len() as u64, SENSORS);
    };
    cycle(&mut registry);
    let live_before = LIVE.load(Ordering::Relaxed);
    for _ in 0..50 {
        cycle(&mut registry);
    }
    let grown = LIVE.load(Ordering::Relaxed).saturating_sub(live_before);
    // 5 000 records bound over the churn: a slab that did not reuse its
    // freed slots would have grown by thousands of records (~0.8 MB).
    assert!(
        grown <= 16 * 1024,
        "{grown} B of live heap grown over 5 000 unbind/rebind pairs at {SENSORS} live"
    );
    let readings = registry.poll("PresenceSensor", "presence", None, PERIOD_MS);
    assert_eq!(readings.len() as u64, SENSORS);
}

/// A sink that accepts `absorb` and serves no sources.
struct Sink;

impl DeviceInstance for Sink {
    fn query(&mut self, source: &str, _now: u64) -> Result<Value, DeviceError> {
        Err(DeviceError::new("sink", source, "sinks have no sources"))
    }

    fn invoke(&mut self, _action: &str, _args: &[Value], _now: u64) -> Result<(), DeviceError> {
        Ok(())
    }
}

/// The benchmark's `event_chain` design: emission → `Agg` → `Out` →
/// `absorb`, one sensor. With `controllers` > 1, `Out1`, `Out2`, … also
/// subscribe to `Agg` and actuate the same sink.
fn chain(controllers: usize) -> Orchestrator {
    let names: Vec<String> = (0..controllers)
        .map(|i| match i {
            0 => "Out".to_owned(),
            i => format!("Out{i}"),
        })
        .collect();
    let mut source = String::from(
        r#"
        device Sensor { source v as Integer; }
        device Sink { action absorb(v as Integer); }
        context Agg as Integer { when provided v from Sensor always publish; }
        "#,
    );
    for name in &names {
        source.push_str(&format!(
            "controller {name} {{ when provided Agg do absorb on Sink; }}\n"
        ));
    }
    let spec = Arc::new(compile_str(&source).unwrap());
    let mut orch = Orchestrator::new(spec);
    orch.register_context(
        "Agg",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::SourceEvent { value, .. } => Ok(Some(value.clone())),
            _ => Ok(None),
        },
    )
    .unwrap();
    let sink: EntityId = "sink".into();
    for name in &names {
        let sink = sink.clone();
        orch.register_controller(
            name,
            move |api: &mut ControllerApi<'_>, _: &str, value: &Value| {
                api.invoke(&sink, "absorb", std::slice::from_ref(value))?;
                Ok(())
            },
        )
        .unwrap();
    }
    let sensor = |_: &str, _: u64| Ok(Value::Int(0));
    orch.bind_entity("s0".into(), "Sensor", AttributeMap::new(), Box::new(sensor))
        .unwrap();
    orch.bind_entity("sink".into(), "Sink", AttributeMap::new(), Box::new(Sink))
        .unwrap();
    orch.launch().unwrap();
    orch
}

/// Drives messages `from..=to` through the chain, one per simulated ms.
fn drive(orch: &mut Orchestrator, from: u64, to: u64) {
    let sensor: EntityId = "s0".into();
    for at in from..=to {
        orch.emit_at(at, &sensor, "v", Value::Int(at as i64), None)
            .unwrap();
        orch.run_until(at);
    }
}

/// Allocator calls made while `messages` messages run through `orch`,
/// after `warm_up` un-counted ones.
fn count_calls(orch: &mut Orchestrator, warm_up: u64, messages: u64) -> u64 {
    drive(orch, 1, warm_up);
    let before = CALLS.load(Ordering::Relaxed);
    drive(orch, warm_up + 1, warm_up + messages);
    CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn an_untraced_message_builds_no_trace_event() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const WARM_UP: u64 = 100;
    const MESSAGES: u64 = 10_000;

    // Every switch off: tracing, observability, span tracing, observers.
    let mut orch = chain(1);
    let calls = count_calls(&mut orch, WARM_UP, MESSAGES);
    assert_eq!(orch.metrics().actuations, WARM_UP + MESSAGES);
    assert!(orch.drain_errors().is_empty());
    // 14.0 calls per message before the lazy `note` (an `Actuation`
    // event built and thrown away), then 12.0 while events carried
    // names: the emission's source, the device type at admission, two
    // for the route key, three for a `SourceDeliver`, two for a
    // `ControllerDeliver` and the device type at actuation. Now 2.0:
    // the emission's and the publication's `Payload`, give or take a
    // few calls by the test harness's own threads.
    let per_message = calls as f64 / MESSAGES as f64;
    assert!(
        per_message <= 2.05,
        "{calls} allocator calls for {MESSAGES} untraced messages ({per_message:.2} each)"
    );

    // Tracing on: the same five events per message, in pipeline order.
    let mut orch = chain(1);
    orch.set_tracing(true);
    drive(&mut orch, 1, MESSAGES);
    let trace = orch.take_trace();
    assert_eq!(trace.len() as u64, 5 * MESSAGES);
    for (message, events) in trace.chunks(5).enumerate() {
        assert!(events.iter().all(|e| e.at == message as u64 + 1));
        assert!(
            matches!(
                [
                    &events[0].kind,
                    &events[1].kind,
                    &events[2].kind,
                    &events[3].kind,
                    &events[4].kind,
                ],
                [
                    TraceKind::Emission { .. },
                    TraceKind::ContextActivation { .. },
                    TraceKind::Publication { .. },
                    TraceKind::ControllerActivation { .. },
                    TraceKind::Actuation { .. },
                ]
            ),
            "message {message}: {events:?}"
        );
    }
}

#[test]
fn a_publication_costs_the_same_for_one_or_a_hundred_subscribers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const WARM_UP: u64 = 100;
    const MESSAGES: u64 = 2_000;

    let mut one = chain(1);
    let calls_one = count_calls(&mut one, WARM_UP, MESSAGES);
    let mut hundred = chain(100);
    let calls_hundred = count_calls(&mut hundred, WARM_UP, MESSAGES);
    assert_eq!(hundred.metrics().actuations, 100 * (WARM_UP + MESSAGES));
    assert!(hundred.drain_errors().is_empty());
    // A delivery is a handful of ids, an entity handle and a payload
    // handle: the 99 extra deliveries of each publication allocate
    // nothing. Before dense ids each one cost two names (3.0 calls per
    // delivery on the benchmark's `fanout_wide`).
    let extra = (calls_hundred as f64 - calls_one as f64) / MESSAGES as f64;
    assert!(
        extra < 1.0,
        "{calls_one} calls with 1 subscriber, {calls_hundred} with 100, over {MESSAGES} \
         publications ({extra:.2} extra per publication)"
    );
}
