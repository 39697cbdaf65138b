//! The two workloads on the paper's parking design: `parking_city` (the
//! whole application in one process) and `parking_edge` (the same
//! design with every sensor and lot panel on an edge thread behind a
//! TCP link).

use crate::pin::{self, Pinned};
use crate::stats::Tail;
use crate::tracer::{self, Recording, Site};
use crate::workload::{Finish, Scale, Workload};
use diaspec_apps::parking::generated::{Availability, CityEntranceEnum, ParkingLotEnum};
use diaspec_apps::parking::{
    build, register_components, ParkingApp, ParkingAppConfig, ENVIRONMENT_FIRST_STEP_MS, SPEC,
};
use diaspec_devices::common::{ActuationLog, RecordingActuator, SharedCell};
use diaspec_devices::parking::{ParkingCityModel, ParkingConfig, PresenceSensorDriver, UsageCurve};
use diaspec_runtime::deploy::{
    serve_edge, EdgeRuntime, Link, RemoteDeviceProxy, SessionConfig, TickPump,
};
use diaspec_runtime::entity::{AttributeMap, DeviceInstance};
use diaspec_runtime::error::DeviceError;
use diaspec_runtime::transport::{
    serve_connection, Envelope, MessageKind, Transport, TransportError, TransportStats,
};
use diaspec_runtime::value::{Value, ValueCodec};
use diaspec_runtime::{Activity, Orchestrator, RetryConfig, SpanCtx, TcpTransport};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The 10-minute delivery period of the design, in simulated ms.
const REFRESH_MS: u64 = 10 * 60 * 1000;
const DAY_MS: u64 = 24 * 60 * 60 * 1000;
/// City-model step cadence pumped to the edge: one simulated minute.
const TICK_MS: u64 = 60_000;

/// Sizes and seed of a parking run.
pub struct ParkingInputs {
    seed: u64,
    sensors_per_lot: usize,
    /// Refreshes per slice.
    slice_refreshes: u64,
    /// Un-measured refreshes before the first slice.
    warm_up_refreshes: u64,
}

impl ParkingInputs {
    /// Remote calls `refreshes` delivery periods make at most: two
    /// 10-minute contexts poll every sensor each refresh, the hourly one
    /// once an hour; one panel update per lot and refresh.
    fn calls_in(&self, refreshes: u64) -> usize {
        let lots = ParkingLotEnum::ALL.len();
        let sensors = self.sensors_per_lot * lots;
        let refreshes = refreshes as usize;
        refreshes * (2 * sensors + lots) + (refreshes / 6 + 1) * sensors
    }
}

fn app_config(inputs: &ParkingInputs) -> ParkingAppConfig {
    ParkingAppConfig {
        sensors_per_lot: inputs.sensors_per_lot,
        environment: ParkingConfig {
            seed: inputs.seed,
            ..ParkingConfig::default()
        },
        ..ParkingAppConfig::default()
    }
}

/// The availability oracle: recounts the free spaces of every lot from
/// the simulated city itself and compares with what the application
/// published. `None` when they agree.
pub fn availability_mismatch(
    lots: &BTreeMap<String, SharedCell<Vec<bool>>>,
    published: Option<&[Availability]>,
) -> Option<String> {
    let Some(published) = published else {
        return Some("no availability published".to_owned());
    };
    if published.len() != lots.len() {
        return Some(format!(
            "{} lots published, the city has {}",
            published.len(),
            lots.len()
        ));
    }
    for a in published {
        let lot = a.parking_lot.name();
        let free = lots
            .get(lot)
            .map(|cell| cell.update(|spaces| spaces.iter().filter(|occupied| !**occupied).count()));
        if free != Some(a.count as usize) {
            return Some(format!(
                "lot {lot}: published {}, counted {free:?}",
                a.count
            ));
        }
    }
    None
}

/// Wall time the engine's activity recorder has attributed to component
/// logic so far: `processing` (context and controller logic, MapReduce
/// phases, process wakes) minus `actuating` (the device calls nested in
/// controller logic). Zero unless `set_observability(true)`.
fn component_ns(orch: &Orchestrator) -> u64 {
    let snapshot = orch.observation();
    let sum_us = |activity| snapshot.activity(activity).map_or(0, |a| a.latency.sum);
    sum_us(Activity::Processing).saturating_sub(sum_us(Activity::Actuating)) * 1_000
}

/// The orchestration-level outcome a distributed run must share with an
/// in-process run of the same size, seed and simulated time.
fn summary(orch: &mut Orchestrator, digests: usize) -> (String, u64) {
    let availability: Option<Vec<Availability>> = orch
        .last_value("ParkingAvailability")
        .and_then(ValueCodec::from_value);
    let suggestions: Option<Vec<ParkingLotEnum>> = orch
        .last_value("ParkingSuggestion")
        .and_then(ValueCodec::from_value);
    let m = *orch.metrics();
    let errors = orch.drain_errors().len() as u64 + orch.errors_dropped();
    let text = format!(
        "availability {:?} suggestions {:?} digests {digests} periodic {} polled {} mapreduce {} \
         publications {} actuations {} errors {errors}",
        availability.map(|list| list
            .iter()
            .map(|a| (a.parking_lot.name(), a.count))
            .collect::<Vec<_>>()),
        suggestions.map(|lots| lots.iter().map(|l| l.name()).collect::<Vec<_>>()),
        m.periodic_deliveries,
        m.readings_polled,
        m.map_reduce_executions,
        m.publications,
        m.actuations,
    );
    (text, errors)
}

// ---- parking_city --------------------------------------------------------

/// `parking_city`: `diaspec_apps::parking::build`, refreshed every ten
/// simulated minutes.
pub struct ParkingCity {
    app: ParkingApp,
    next_refresh: u64,
    refreshes: u64,
    mismatches: Vec<String>,
    component_ns_at_start: u64,
}

impl ParkingCity {
    /// One refresh: everything scheduled up to the next poll instant —
    /// the poll sweep, MapReduce, the contexts behind it, the panels.
    fn refresh(&mut self) {
        {
            let _request = tracer::span(Site::Request);
            let _run = tracer::span(Site::RunUntil);
            self.app.orchestrator.run_until(self.next_refresh);
        }
        self.next_refresh += REFRESH_MS;
        self.refreshes += 1;
        // The environment steps between poll instants, so right after a
        // refresh the city still is what the sensors reported.
        let published = self.app.latest_availability();
        if let Some(mismatch) = availability_mismatch(&self.app.lots, published.as_deref()) {
            if self.mismatches.len() < 8 {
                self.mismatches
                    .push(format!("refresh {}: {mismatch}", self.refreshes));
            }
        }
    }
}

impl Workload for ParkingCity {
    const NAME: &'static str = "parking_city";
    const ITEMS: &'static str = "readings";
    const TAIL: Tail = Tail::Max;
    /// Two simulated days: two firings of the 24 h window.
    const FIXED_SLICES: usize = 2;
    type Inputs = ParkingInputs;

    fn inputs(seed: u64, scale: Scale) -> ParkingInputs {
        let refreshes_a_day = DAY_MS / REFRESH_MS;
        ParkingInputs {
            seed,
            sensors_per_lot: match scale {
                Scale::Full => 500,
                Scale::Toy => 3,
            },
            // A slice is one simulated day, and so is the warm-up: it
            // fills the 24 h window, which then stays full.
            slice_refreshes: refreshes_a_day,
            warm_up_refreshes: refreshes_a_day,
        }
    }

    fn requests_per_slice(inputs: &ParkingInputs) -> usize {
        inputs.slice_refreshes as usize
    }

    fn set_up(inputs: &ParkingInputs, traced: bool) -> ParkingCity {
        let mut app = build(app_config(inputs)).expect("the parking application builds");
        if traced {
            // The components are the application's own, so the traced run
            // reads their time from the engine's activity recorder.
            app.orchestrator.set_observability(true);
        }
        ParkingCity {
            app,
            next_refresh: REFRESH_MS,
            refreshes: 0,
            mismatches: Vec::new(),
            component_ns_at_start: 0,
        }
    }

    fn warm_up(&mut self, inputs: &ParkingInputs) {
        for _ in 0..inputs.warm_up_refreshes {
            self.refresh();
        }
    }

    fn begin_measured(&mut self) {
        self.component_ns_at_start = component_ns(&self.app.orchestrator);
    }

    fn slice(&mut self, inputs: &ParkingInputs, request_ns: &mut Vec<u64>) -> u64 {
        let polled_before = self.app.orchestrator.metrics().readings_polled;
        for _ in 0..inputs.slice_refreshes {
            let started = Instant::now();
            self.refresh();
            request_ns.push(started.elapsed().as_nanos() as u64);
        }
        self.app.orchestrator.metrics().readings_polled - polled_before
    }

    fn finish(mut self, _: &ParkingInputs) -> Finish {
        let obs_processing_ns =
            component_ns(&self.app.orchestrator).saturating_sub(self.component_ns_at_start);
        let days = (self.next_refresh - REFRESH_MS) / DAY_MS;
        let digests = self.app.messenger.count("sendMessage") as u64;
        if digests != days {
            self.mismatches
                .push(format!("{digests} daily digests after {days} days"));
        }
        let errors = self.app.orchestrator.drain_errors();
        Finish {
            attempted: self.refreshes,
            failed: errors.len() as u64 + self.app.orchestrator.errors_dropped(),
            mismatches: self.mismatches,
            obs_processing_ns,
            ..Finish::default()
        }
    }
}

// ---- parking_edge --------------------------------------------------------

/// What the coordinator-side device wrappers share: the request-time
/// samples of the running slice and the failure count.
#[derive(Default)]
struct Calls {
    request_ns: Mutex<Vec<u64>>,
    issued: AtomicU64,
    failed: AtomicU64,
}

/// A device driver with a stopwatch (and, traced, a span) around every
/// call. On the coordinator it wraps a `RemoteDeviceProxy` and a call is
/// one request; on the edge it wraps the real driver.
struct Timed<D> {
    inner: D,
    site: Site,
    /// `Some` on the coordinator: where request times go.
    calls: Option<Arc<Calls>>,
}

impl<D> Timed<D> {
    fn call<T>(
        &mut self,
        op: impl FnOnce(&mut D) -> Result<T, DeviceError>,
    ) -> Result<T, DeviceError> {
        let Some(calls) = &self.calls else {
            let _span = tracer::span(self.site);
            return op(&mut self.inner);
        };
        let started = Instant::now();
        let result = {
            let _request = tracer::span(Site::Request);
            let _span = tracer::span(self.site);
            op(&mut self.inner)
        };
        let elapsed = started.elapsed().as_nanos() as u64;
        calls
            .request_ns
            .lock()
            .expect("samples lock poisoned")
            .push(elapsed);
        calls.issued.fetch_add(1, Relaxed);
        if result.is_err() {
            calls.failed.fetch_add(1, Relaxed);
        }
        result
    }
}

impl<D: DeviceInstance> DeviceInstance for Timed<D> {
    fn query(&mut self, source: &str, now_ms: u64) -> Result<Value, DeviceError> {
        self.call(|inner| inner.query(source, now_ms))
    }

    fn invoke(&mut self, action: &str, args: &[Value], now_ms: u64) -> Result<(), DeviceError> {
        self.call(|inner| inner.invoke(action, args, now_ms))
    }
}

/// The TCP transport with a span around every exchange (traced runs
/// only). Tick exchanges get their own site: they belong to the pump,
/// not to a device call.
struct TracedTransport(TcpTransport);

impl Transport for TracedTransport {
    fn backend(&self) -> &'static str {
        self.0.backend()
    }

    fn peer(&self) -> &str {
        self.0.peer()
    }

    fn exchange(&mut self, envelope: &Envelope) -> Result<Envelope, TransportError> {
        let site = if envelope.kind == MessageKind::Tick {
            Site::TickExchange
        } else {
            Site::Exchange
        };
        let _span = tracer::span(site);
        self.0.exchange(envelope)
    }

    fn stats(&self) -> TransportStats {
        self.0.stats()
    }
}

/// The edge node: every lot's sensors and panel over a replica of the
/// seeded city model, stepped on the coordinator's ticks.
fn edge_runtime(inputs: &ParkingInputs, traced: bool) -> EdgeRuntime {
    let lot_names: Vec<&str> = ParkingLotEnum::ALL.iter().map(|l| l.name()).collect();
    let mut model = ParkingCityModel::new(
        lot_names.clone(),
        ParkingConfig {
            spaces_per_lot: inputs.sensors_per_lot,
            seed: inputs.seed,
            ..ParkingConfig::default()
        },
        UsageCurve::default(),
    );
    let mut runtime = EdgeRuntime::new("edge0");
    for lot in lot_names {
        let cell = model.lot(lot).expect("a model lot");
        for space in 0..inputs.sensors_per_lot {
            add_edge_device(
                &mut runtime,
                traced,
                format!("presence-{lot}-{space}"),
                PresenceSensorDriver::new(cell.clone(), space),
            );
        }
        add_edge_device(
            &mut runtime,
            traced,
            format!("panel-{lot}"),
            RecordingActuator::new(ActuationLog::new()),
        );
    }
    runtime.on_tick(move |now| model.step(now));
    runtime
}

/// Adds `device` to the edge, under a span in a traced run.
fn add_edge_device<D: DeviceInstance + 'static>(
    runtime: &mut EdgeRuntime,
    traced: bool,
    name: String,
    device: D,
) {
    if traced {
        runtime.add_device(
            name,
            Box::new(Timed {
                inner: device,
                site: Site::EdgeDevice,
                calls: None,
            }),
        );
    } else {
        runtime.add_device(name, Box::new(device));
    }
}

/// The edge thread's result: the counters of its serving loop, and what
/// it recorded in a traced run.
type Served = (Result<TransportStats, TransportError>, Option<Recording>);

/// The edge thread of a traced run: the loop `serve_edge` runs, with a
/// span around the handler. A heartbeat marks the end of warm-up: the
/// recorder starts afresh, as the coordinator's does.
fn serve_edge_traced(
    listener: &TcpListener,
    runtime: &mut EdgeRuntime,
) -> Result<TransportStats, TransportError> {
    let (mut stream, _) = listener
        .accept()
        .map_err(|e| TransportError::Io(e.to_string()))?;
    serve_connection(&mut stream, |envelope| {
        if envelope.kind == MessageKind::Heartbeat {
            tracer::start();
            return runtime.handle(envelope);
        }
        let _span = tracer::span(if envelope.kind == MessageKind::Tick {
            Site::TickExchange
        } else {
            Site::EdgeHandle
        });
        runtime.handle(envelope)
    })
}

/// `parking_edge`: the coordinator runs the orchestration; every sensor
/// and lot panel is a `RemoteDeviceProxy` over one session link.
pub struct ParkingEdge {
    orch: Orchestrator,
    link: Arc<Link>,
    calls: Arc<Calls>,
    messenger: ActuationLog,
    pump_stop: diaspec_runtime::deploy::TickPumpStop,
    /// The edge thread; `None` once joined.
    edge: Option<JoinHandle<Served>>,
    /// Held for its destructor, which restores the affinity.
    pinned: Option<Pinned>,
    now: u64,
    component_ns_at_start: u64,
}

impl ParkingEdge {
    /// One exchange that touches no device.
    fn heartbeat(&self) {
        self.link
            .request(|seq| {
                Envelope::new(
                    MessageKind::Heartbeat,
                    SpanCtx::NONE,
                    seq,
                    "",
                    "",
                    Vec::new(),
                )
            })
            .expect("the edge answers a heartbeat");
    }

    /// Runs `refreshes` delivery periods; the device wrappers push each
    /// call's time onto `request_ns`. Returns the calls made.
    fn run(&mut self, refreshes: u64, request_ns: &mut Vec<u64>) -> u64 {
        let swap = |calls: &Calls, buffer: &mut Vec<u64>| {
            std::mem::swap(
                &mut *calls.request_ns.lock().expect("samples lock poisoned"),
                buffer,
            );
        };
        swap(&self.calls, request_ns);
        self.now += refreshes * REFRESH_MS;
        {
            let _run = tracer::span(Site::RunUntil);
            self.orch.run_until(self.now);
        }
        swap(&self.calls, request_ns);
        request_ns.len() as u64
    }

    /// Stops the pump, says `Bye` (which ends the edge's serving loop
    /// whether or not a connection was ever made) and joins the edge
    /// thread. Returns what the edge thread reported, once.
    fn shut_down(&mut self) -> Option<Served> {
        let edge = self.edge.take()?;
        self.pump_stop.stop();
        self.link.close();
        Some(edge.join().expect("the edge thread does not panic"))
    }
}

impl Drop for ParkingEdge {
    fn drop(&mut self) {
        let _ = self.shut_down();
    }
}

impl Workload for ParkingEdge {
    const NAME: &'static str = "parking_edge";
    const ITEMS: &'static str = "remote calls";
    const TAIL: Tail = Tail::P99;
    /// One simulated day, and with it one firing of the 24 h window.
    const FIXED_SLICES: usize = 24;
    type Inputs = ParkingInputs;

    fn inputs(seed: u64, scale: Scale) -> ParkingInputs {
        ParkingInputs {
            seed,
            sensors_per_lot: match scale {
                Scale::Full => 125,
                Scale::Toy => 3,
            },
            // One simulated hour a slice: six refreshes and the hourly
            // poll, about 13 000 calls. Short on purpose — on one CPU the
            // hand-off between the two threads flips between a 4.9 µs and
            // a 6.2 µs mode within a second, and a short slice fits inside
            // one mode (README, "Noise").
            slice_refreshes: 6,
            // A day of warm-up fills the 24 h window.
            warm_up_refreshes: DAY_MS / REFRESH_MS,
        }
    }

    fn requests_per_slice(inputs: &ParkingInputs) -> usize {
        inputs.calls_in(inputs.slice_refreshes)
    }

    fn set_up(inputs: &ParkingInputs, traced: bool) -> ParkingEdge {
        // Before the edge thread exists, so that it inherits the mask.
        let pinned = pin::to_last_cpu();

        let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port");
        let addr = listener
            .local_addr()
            .expect("the bound address")
            .to_string();
        let mut runtime = edge_runtime(inputs, traced);
        let edge = std::thread::spawn(move || {
            if traced {
                tracer::start();
                (serve_edge_traced(&listener, &mut runtime), tracer::stop())
            } else {
                // The serving loop users run.
                (serve_edge(&listener, &mut runtime), None)
            }
        });

        let tcp = TcpTransport::new("edge0", addr, RetryConfig::default());
        let link = if traced {
            Link::with_session(TracedTransport(tcp), SessionConfig::default())
        } else {
            Link::with_session(tcp, SessionConfig::default())
        };

        let config = app_config(inputs);
        let spec = Arc::new(diaspec_core::compile_str(SPEC).expect("parking.spec compiles"));
        let mut orch = Orchestrator::new(spec);
        register_components(&mut orch, &config).expect("the components register");
        if traced {
            orch.set_observability(true);
        }
        let calls = Arc::new(Calls::default());
        let proxy = |id: &str| -> Box<dyn DeviceInstance> {
            Box::new(Timed {
                inner: RemoteDeviceProxy::new(id, Arc::clone(&link)),
                site: Site::ProxyCall,
                calls: Some(Arc::clone(&calls)),
            })
        };
        orch.begin_deployment();
        for lot in ParkingLotEnum::ALL {
            let lot = lot.name();
            let lot_value = Value::enum_value("ParkingLotEnum", lot);
            for space in 0..inputs.sensors_per_lot {
                let id = format!("presence-{lot}-{space}");
                let mut attrs = AttributeMap::new();
                attrs.insert("parkingLot".to_owned(), lot_value.clone());
                orch.bind_entity(id.as_str().into(), "PresenceSensor", attrs, proxy(&id))
                    .expect("a sensor proxy binds");
            }
            let id = format!("panel-{lot}");
            let mut attrs = AttributeMap::new();
            attrs.insert("location".to_owned(), lot_value);
            orch.bind_entity(
                id.as_str().into(),
                "ParkingEntrancePanel",
                attrs,
                proxy(&id),
            )
            .expect("a panel proxy binds");
        }
        for entrance in CityEntranceEnum::ALL {
            let mut attrs = AttributeMap::new();
            attrs.insert(
                "location".to_owned(),
                Value::enum_value("CityEntranceEnum", entrance.name()),
            );
            orch.bind_entity(
                format!("city-panel-{}", entrance.name()).into(),
                "CityEntrancePanel",
                attrs,
                Box::new(RecordingActuator::new(ActuationLog::new())),
            )
            .expect("a city panel binds");
        }
        let messenger = ActuationLog::new();
        orch.bind_entity(
            "messenger-mgmt".into(),
            "Messenger",
            AttributeMap::new(),
            Box::new(RecordingActuator::new(messenger.clone())),
        )
        .expect("the messenger binds");
        let pump = TickPump::new(vec![Arc::clone(&link)], TICK_MS);
        let pump_stop = pump.stop_handle();
        orch.spawn_process_at("tick-pump", pump, ENVIRONMENT_FIRST_STEP_MS);
        orch.launch().expect("the coordinator launches");
        let edge = ParkingEdge {
            orch,
            link,
            calls,
            messenger,
            pump_stop,
            edge: Some(edge),
            pinned,
            now: 0,
            component_ns_at_start: 0,
        };
        // The transport connects on first use: a heartbeat makes the
        // connection part of set-up, where a user's first request pays it.
        edge.heartbeat();
        edge
    }

    fn warm_up(&mut self, inputs: &ParkingInputs) {
        let mut unused = Vec::with_capacity(inputs.calls_in(inputs.warm_up_refreshes));
        self.run(inputs.warm_up_refreshes, &mut unused);
    }

    fn begin_measured(&mut self) {
        self.component_ns_at_start = component_ns(&self.orch);
        if tracer::recording() {
            // Tells the traced edge that warm-up is over.
            self.heartbeat();
        }
    }

    fn slice(&mut self, inputs: &ParkingInputs, request_ns: &mut Vec<u64>) -> u64 {
        self.run(inputs.slice_refreshes, request_ns)
    }

    fn finish(mut self, inputs: &ParkingInputs) -> Finish {
        let mut mismatches = Vec::new();
        let obs_processing_ns = component_ns(&self.orch).saturating_sub(self.component_ns_at_start);
        let mut failed = self.calls.failed.load(Relaxed);

        let session = self.link.session_stats().unwrap_or_default();
        if session.resends + session.abandoned > 0 {
            mismatches.push(format!(
                "loopback session resent {} and abandoned {} requests",
                session.resends, session.abandoned
            ));
        }
        let sent = self.link.stats();
        let (served, edge_recording) = self
            .shut_down()
            .unwrap_or((Err(TransportError::Closed), None));
        match served {
            Ok(served) => {
                // The edge saw one more frame pair than `sent`: the `Bye`.
                if served.frames_received != sent.frames_sent + 1
                    || served.bytes_received < sent.bytes_sent
                {
                    mismatches.push(format!("edge served {served:?}, coordinator sent {sent:?}"));
                }
            }
            Err(e) => {
                failed += 1;
                mismatches.push(format!("edge serving loop failed: {e}"));
            }
        }

        let digests = self.messenger.count("sendMessage");
        let (distributed, errors) = summary(&mut self.orch, digests);
        let mut reference = build(app_config(inputs)).expect("the reference application builds");
        reference.orchestrator.run_until(self.now);
        let digests = reference.messenger.count("sendMessage");
        let (in_process, _) = summary(&mut reference.orchestrator, digests);
        if distributed != in_process {
            mismatches.push(format!(
                "distributed run: {distributed}\n  in-process run: {in_process}"
            ));
        }
        failed += errors;

        Finish {
            attempted: self.calls.issued.load(Relaxed),
            failed,
            mismatches,
            obs_processing_ns,
            notes: vec![format!(
                "pinned: {} (whether coordinator and edge thread share one CPU, see src/pin.rs)",
                self.pinned.is_some()
            )],
            edge: edge_recording,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_oracle_against_a_hand_counted_city() {
        let lots: BTreeMap<String, SharedCell<Vec<bool>>> = [
            ("A22", vec![true, false, false]),
            ("B16", vec![true, true, true]),
        ]
        .into_iter()
        .map(|(lot, spaces)| (lot.to_owned(), SharedCell::new(spaces)))
        .collect();
        let published = |a22, b16| {
            vec![
                Availability {
                    parking_lot: ParkingLotEnum::A22,
                    count: a22,
                },
                Availability {
                    parking_lot: ParkingLotEnum::B16,
                    count: b16,
                },
            ]
        };
        assert_eq!(availability_mismatch(&lots, Some(&published(2, 0))), None);
        let wrong = availability_mismatch(&lots, Some(&published(2, 1))).expect("B16 is full");
        assert!(
            wrong.contains("B16") && wrong.contains("published 1"),
            "{wrong}"
        );
        assert!(availability_mismatch(&lots, Some(&published(2, 0)[..1])).is_some());
        assert!(availability_mismatch(&lots, None).is_some());
        // A car leaves B16: the old publication no longer matches.
        lots["B16"].update(|spaces| spaces[0] = false);
        assert!(availability_mismatch(&lots, Some(&published(2, 0))).is_some());
    }
}
