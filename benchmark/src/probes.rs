//! Direct probes of single layers: public functions of the program,
//! timed from outside. They do not depend on `--workload`; every traced
//! run takes them, so that each layer has a row next to the ledger of
//! the workload that ran.

use crate::alloc;
use crate::chain::EventChain;
use crate::pin;
use crate::rng::Rng;
use crate::stats::median;
use crate::workload::{Scale, Workload};
use diaspec_apps::parking::{build, ParkingAppConfig};
use diaspec_codegen::deploy::{plan_deployment, DeployOptions};
use diaspec_core::CheckedSpec;
use diaspec_mapreduce::{Job, MapCollector, MapReduce, ReduceCollector};
use diaspec_runtime::deploy::{serve_edge, EdgeRuntime, Link, RemoteDeviceProxy, SessionConfig};
use diaspec_runtime::entity::{AttributeMap, BindingTime, DeviceInstance, EntityId};
use diaspec_runtime::registry::Registry;
use diaspec_runtime::transport::{ChaosConfig, ChaosTransport, SimTransport, TransportConfig};
use diaspec_runtime::value::Value;
use diaspec_runtime::{Envelope, RetryConfig, SpanCtx, TcpTransport};
use std::fmt::Write as _;
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One per-layer figure: name, value, unit.
pub type Row = (&'static str, f64, &'static str);

/// How much work the probes do.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    compile_reps: usize,
    registry_entities: usize,
    registry_reps: usize,
    map_reduce_readings: usize,
    map_reduce_reps: usize,
    wire_reps: usize,
    link_calls: usize,
    chain_scale: Scale,
    chain_messages: usize,
    window_sensors_per_lot: usize,
}

impl Sizes {
    /// The sizes the README states.
    pub fn full() -> Sizes {
        Sizes {
            compile_reps: 40,
            registry_entities: 50_000,
            registry_reps: 200,
            // One day's 24 h window at 4 000 sensors: 144 polls of each.
            map_reduce_readings: 576_000,
            map_reduce_reps: 9,
            wire_reps: 20_000,
            link_calls: 20_000,
            chain_scale: Scale::Full,
            chain_messages: 100_000,
            window_sensors_per_lot: 125,
        }
    }

    /// Small enough for a debug build.
    pub fn toy() -> Sizes {
        Sizes {
            compile_reps: 2,
            registry_entities: 200,
            registry_reps: 5,
            map_reduce_readings: 2_000,
            map_reduce_reps: 3,
            wire_reps: 50,
            link_calls: 50,
            chain_scale: Scale::Toy,
            chain_messages: 500,
            window_sensors_per_lot: 2,
        }
    }
}

fn seconds(run: impl FnOnce()) -> f64 {
    let started = Instant::now();
    run();
    started.elapsed().as_secs_f64()
}

/// Median seconds of `reps` runs of `run`.
fn median_seconds(reps: usize, mut run: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| seconds(&mut run)).collect();
    median(&samples)
}

/// Every probe, in ledger order.
pub fn all(seed: u64, sizes: Sizes) -> Vec<Row> {
    let mut rows = Vec::with_capacity(32);
    rows.extend(compile_path(sizes));
    rows.extend(registry(sizes));
    rows.extend(engine(seed, sizes));
    rows.extend(window(seed, sizes));
    rows.extend(map_reduce(seed, sizes));
    rows.extend(wire(sizes));
    rows.extend(link(sizes));
    rows
}

// ---- compile path --------------------------------------------------------

/// A well-formed design of `triples` device/context/controller triples.
fn synthetic_design(triples: usize) -> String {
    let mut out = String::new();
    for i in 0..triples {
        let _ = writeln!(
            out,
            "device Dev{i} {{ attribute zone as String; source v{i} as Integer; \
             action act{i}(level as Integer); }}\n\
             context Ctx{i} as Integer {{ when periodic v{i} from Dev{i} <1 min> \
             grouped by zone always publish; }}\n\
             controller Ctl{i} {{ when provided Ctx{i} do act{i} on Dev{i}; }}"
        );
    }
    out
}

/// Each compiler stage over a synthetic 150-component design plus
/// `parking.spec` (the sum over both), median of the repetitions. The
/// deployment planner runs on `parking.spec` alone: it needs an
/// enumeration to shard by.
fn compile_path(sizes: Sizes) -> Vec<Row> {
    let sources = [synthetic_design(50), diaspec_apps::parking::SPEC.to_owned()];
    let asts: Vec<_> = sources
        .iter()
        .map(|s| diaspec_core::parser::parse(s).0)
        .collect();
    let specs: Vec<CheckedSpec> = sources
        .iter()
        .map(|s| diaspec_core::compile_str(s).expect("a probe design compiles"))
        .collect();
    let reps = sizes.compile_reps;
    let us = |secs: f64| secs * 1e6;
    vec![
        (
            "lexer.lex_us",
            us(median_seconds(reps, || {
                for s in &sources {
                    black_box(diaspec_core::lexer::lex(black_box(s)));
                }
            })),
            "us",
        ),
        (
            "parser.parse_us",
            us(median_seconds(reps, || {
                for s in &sources {
                    black_box(diaspec_core::parser::parse(black_box(s)));
                }
            })),
            "us",
        ),
        (
            "check.check_us",
            us(median_seconds(reps, || {
                for ast in &asts {
                    black_box(diaspec_core::check::check(black_box(ast)));
                }
            })),
            "us",
        ),
        (
            "analysis.analyze_us",
            us(median_seconds(reps, || {
                for spec in &specs {
                    black_box(diaspec_core::analysis::analyze(black_box(spec)));
                }
            })),
            "us",
        ),
        (
            "codegen.rust_us",
            us(median_seconds(reps, || {
                for spec in &specs {
                    black_box(diaspec_codegen::generate_rust(black_box(spec)));
                }
            })),
            "us",
        ),
        (
            "codegen.java_us",
            us(median_seconds(reps, || {
                for spec in &specs {
                    black_box(diaspec_codegen::generate_java(black_box(spec)));
                }
            })),
            "us",
        ),
        (
            "codegen.deploy_plan_us",
            us(median_seconds(reps, || {
                black_box(
                    plan_deployment(black_box(&specs[1]), &DeployOptions::default())
                        .expect("parking.spec has a deployment plan"),
                );
            })),
            "us",
        ),
    ]
}

// ---- registry ------------------------------------------------------------

const PANEL_SPEC: &str = r#"
    device Panel {
      attribute zone as String;
      attribute serial as Integer;
      action update(status as String);
    }
"#;
/// Ten zones: a zone filter selects 10 % of the registry.
const ZONES: usize = 10;

fn bind_panel(registry: &mut Registry, i: usize) {
    let mut attrs = AttributeMap::new();
    attrs.insert(
        "zone".to_owned(),
        Value::from(format!("zone-{}", i % ZONES)),
    );
    attrs.insert("serial".to_owned(), Value::Int(i as i64));
    registry
        .bind(
            format!("panel-{i}").into(),
            "Panel",
            attrs,
            Box::new(|_: &str, _: u64| Ok(Value::Bool(false))),
            BindingTime::Deployment,
            0,
        )
        .expect("a panel binds");
}

fn registry(sizes: Sizes) -> Vec<Row> {
    let n = sizes.registry_entities;
    let churn = n / 10;
    let spec = Arc::new(diaspec_core::compile_str(PANEL_SPEC).expect("the panel design compiles"));
    let mut registry = Registry::new(spec);
    let bind_s = seconds(|| (0..n).for_each(|i| bind_panel(&mut registry, i)));

    let zone = Value::from("zone-0");
    let serial = Value::Int((n / 2) as i64);
    let exact_s = median_seconds(sizes.registry_reps, || {
        let found = registry
            .discover("Panel")
            .with_attribute("serial", &serial)
            .ids();
        assert_eq!(black_box(found).len(), 1, "serials are unique");
    });
    let filtered = |registry: &Registry| {
        let found = registry
            .discover("Panel")
            .with_attribute("zone", &zone)
            .ids();
        assert_eq!(black_box(found).len(), n / ZONES, "one zone in ten");
    };
    let filtered_s = median_seconds(sizes.registry_reps, || filtered(&registry));

    // Reads beside writes: every read follows an unbind and a re-bind,
    // so it never sees the index as the previous read left it.
    let ids: Vec<EntityId> = (0..churn).map(|i| format!("panel-{i}").into()).collect();
    let mut unbind_s = 0.0;
    let mut rebind_s = 0.0;
    let mut reads = Vec::with_capacity(churn);
    for (i, id) in ids.iter().enumerate() {
        unbind_s += seconds(|| {
            registry.unbind(id).expect("a bound panel unbinds");
        });
        rebind_s += seconds(|| bind_panel(&mut registry, i));
        if i % (churn / sizes.registry_reps.min(churn)).max(1) == 0 {
            reads.push(seconds(|| filtered(&registry)));
        }
    }
    assert_eq!(registry.len(), n, "churn leaves the registry as it was");
    vec![
        (
            "registry.bind_us",
            (bind_s + rebind_s) * 1e6 / (n + churn) as f64,
            "us",
        ),
        ("registry.unbind_us", unbind_s * 1e6 / churn as f64, "us"),
        ("registry.discover_exact_us", exact_s * 1e6, "us"),
        ("registry.discover_filtered_us", filtered_s * 1e6, "us"),
        (
            "registry.discover_during_churn_us",
            median(&reads) * 1e6,
            "us",
        ),
    ]
}

// ---- engine and its own tracer -------------------------------------------

/// The saturated drain of the event chain (4 096 emissions admitted at
/// one instant, one `run_until`), and what the engine's own span tracing
/// costs on the one-at-a-time loop.
fn engine(seed: u64, sizes: Sizes) -> Vec<Row> {
    const BATCH: usize = 4096;
    let inputs = EventChain::inputs(seed, sizes.chain_scale);
    let mut chain = EventChain::set_up(&inputs, false);
    chain.warm_up(&inputs);
    let batches = (sizes.chain_messages / BATCH).max(3);
    let batch_rates: Vec<f64> = (0..batches)
        .map(|_| {
            let mut drained = 0;
            let secs = seconds(|| drained = chain.drain_batch(&inputs, BATCH));
            drained as f64 / secs
        })
        .collect();

    let one_at_a_time = |chain: &mut EventChain| {
        sizes.chain_messages as f64 / seconds(|| chain.run_requests(&inputs, sizes.chain_messages))
    };
    let mut slowdowns = Vec::with_capacity(3);
    for _ in 0..3 {
        let off = one_at_a_time(&mut chain);
        chain.set_engine_span_tracing(true);
        let on = one_at_a_time(&mut chain);
        chain.set_engine_span_tracing(false);
        slowdowns.push(off / on);
    }
    let finish = chain.finish(&inputs);
    assert!(
        finish.mismatches.is_empty() && finish.failed == 0,
        "the probe chain stays correct: {finish:?}"
    );
    vec![
        ("engine.batch4096_msgs_per_s", median(&batch_rates), "1/s"),
        ("obs.span_tracing_slowdown", median(&slowdowns), "ratio"),
    ]
}

// ---- the 24 h window -----------------------------------------------------

/// What the `AverageOccupancy` window holds per buffered reading, and
/// what the refresh that fires it costs, on a 1 000-sensor city.
fn window(seed: u64, sizes: Sizes) -> Vec<Row> {
    const REFRESH_MS: u64 = 600_000;
    const REFRESHES_A_DAY: u64 = 144;
    let mut config = ParkingAppConfig {
        sensors_per_lot: sizes.window_sensors_per_lot,
        ..ParkingAppConfig::default()
    };
    config.environment.seed = seed;
    let mut app = build(config).expect("the parking application builds");
    app.orchestrator.run_until(REFRESH_MS);
    let live_after_first = alloc::live();
    app.orchestrator
        .run_until((REFRESHES_A_DAY - 1) * REFRESH_MS);
    let grown = alloc::live().saturating_sub(live_after_first);
    let buffered = (REFRESHES_A_DAY - 2) * 8 * sizes.window_sensors_per_lot as u64;
    let digest_s = seconds(|| app.orchestrator.run_until(REFRESHES_A_DAY * REFRESH_MS));
    assert_eq!(app.messenger.count("sendMessage"), 1, "the window fired");
    vec![
        (
            "window.bytes_per_buffered_reading",
            grown as f64 / buffered as f64,
            "B",
        ),
        ("window.digest_ms", digest_s * 1e3, "ms"),
    ]
}

// ---- MapReduce -----------------------------------------------------------

/// The availability job of the parking design (Figure 10) on plain
/// types: one record per free space, counted per lot.
struct FreeSpaces;

impl MapReduce<u8, bool, u8, bool, u8, i64> for FreeSpaces {
    fn map(&self, lot: &u8, occupied: &bool, out: &mut MapCollector<u8, bool>) {
        if !occupied {
            out.emit_map(*lot, true);
        }
    }

    fn reduce(&self, lot: &u8, free: &[bool], out: &mut ReduceCollector<u8, i64>) {
        out.emit_reduce(*lot, free.len() as i64);
    }
}

fn map_reduce(seed: u64, sizes: Sizes) -> Vec<Row> {
    let mut rng = Rng::new(seed, 3);
    let readings: Vec<(u8, bool)> = (0..sizes.map_reduce_readings)
        .map(|i| ((i % 8) as u8, rng.below(2) == 1))
        .collect();
    let mut expected = [0i64; 8];
    for (lot, occupied) in &readings {
        expected[*lot as usize] += i64::from(!occupied);
    }
    let expected: Vec<(u8, i64)> = (0..8).map(|lot| (lot, expected[lot as usize])).collect();

    let reps = sizes.map_reduce_reps;
    let mut phases = [Vec::new(), Vec::new(), Vec::new()];
    let mut serial_s = Vec::with_capacity(reps);
    let mut peaks = Vec::with_capacity(reps);
    for _ in 0..reps {
        let input = readings.clone();
        let live_before = alloc::live();
        alloc::reset_peak();
        let mut result = None;
        serial_s.push(seconds(|| {
            result = Some(Job::serial().run(&FreeSpaces, input));
        }));
        peaks.push(alloc::peak().saturating_sub(live_before) as f64);
        let result = result.expect("the job ran");
        assert_eq!(result.output, expected, "serial output");
        for (samples, time) in phases.iter_mut().zip([
            result.stats.map_time,
            result.stats.shuffle_time,
            result.stats.reduce_time,
        ]) {
            samples.push(time.as_secs_f64());
        }
    }
    let parallel_s = median_seconds(reps, || {
        let result = Job::parallel(2).run(&FreeSpaces, readings.clone());
        assert_eq!(result.output, expected, "parallel output equals serial");
    });
    // Both timings include one clone of the input, the same for each.
    let serial = median(&serial_s);
    vec![
        ("mapreduce.map_ms", median(&phases[0]) * 1e3, "ms"),
        ("mapreduce.shuffle_ms", median(&phases[1]) * 1e3, "ms"),
        ("mapreduce.reduce_ms", median(&phases[2]) * 1e3, "ms"),
        (
            "mapreduce.records_per_s",
            readings.len() as f64 / serial,
            "1/s",
        ),
        (
            "mapreduce.peak_alloc_mib",
            median(&peaks) / (1 << 20) as f64,
            "MiB",
        ),
        ("mapreduce.parallel2_speedup", serial / parallel_s, "ratio"),
    ]
}

// ---- wire codec ----------------------------------------------------------

/// The envelopes of a deployment: a query and its Boolean reply, an
/// invoke carrying a 32-byte string and its `Ok`, and a tick.
fn envelope_corpus() -> [Envelope; 5] {
    let query = Envelope::query(SpanCtx::NONE, 1, "presence-A22-17", "presence", 600_000);
    let reply = query.reply_value(&Value::Bool(true));
    let invoke = Envelope::invoke(
        SpanCtx::NONE,
        2,
        "panel-A22",
        "update",
        &[Value::from("free: 117 of 125 spaces, lot A22")],
        600_000,
    );
    let ok = invoke.reply_ok();
    [query, reply, invoke, ok, Envelope::tick(3, 661_000)]
}

fn wire(sizes: Sizes) -> Vec<Row> {
    let corpus = envelope_corpus();
    let frames: Vec<Vec<u8>> = corpus
        .iter()
        .map(|e| e.encode_frame().expect("a corpus envelope encodes"))
        .collect();
    for (envelope, frame) in corpus.iter().zip(&frames) {
        let decoded = Envelope::decode_frame(frame).expect("a corpus frame decodes");
        assert_eq!(&decoded, envelope, "the codec round-trips");
    }
    let per_envelope = (sizes.wire_reps * corpus.len()) as f64;
    let encode_s = seconds(|| {
        for _ in 0..sizes.wire_reps {
            for envelope in &corpus {
                black_box(black_box(envelope).encode_frame().expect("encodes"));
            }
        }
    });
    let decode_s = seconds(|| {
        for _ in 0..sizes.wire_reps {
            for frame in &frames {
                black_box(Envelope::decode_frame(black_box(frame)).expect("decodes"));
            }
        }
    });
    vec![
        ("wire.encode_ns", encode_s * 1e9 / per_envelope, "ns"),
        ("wire.decode_ns", decode_s * 1e9 / per_envelope, "ns"),
        (
            "wire.bytes_per_call",
            (frames[0].len() + frames[1].len()) as f64,
            "B",
        ),
    ]
}

// ---- link round trips ----------------------------------------------------

/// An edge with one presence-like device.
fn echo_edge() -> EdgeRuntime {
    let mut edge = EdgeRuntime::new("edge0");
    edge.add_device(
        "presence-0",
        Box::new(|_: &str, _: u64| Ok(Value::Bool(true))),
    );
    edge
}

/// Mean seconds per query over `link`, after a tenth as many warm-up
/// queries.
fn round_trip_s(link: &Arc<Link>, calls: usize) -> f64 {
    let mut proxy = RemoteDeviceProxy::new("presence-0", Arc::clone(link));
    let mut query = |n: usize| {
        for i in 0..n {
            let reply = proxy.query("presence", i as u64).expect("the edge answers");
            assert_eq!(black_box(reply), Value::Bool(true));
        }
    };
    query(calls / 10);
    seconds(|| query(calls)) / calls as f64
}

/// A TCP echo edge on its own thread for the duration of `with_link`.
fn over_tcp<T>(
    make_link: impl FnOnce(TcpTransport) -> Arc<Link>,
    with_link: impl FnOnce(&Arc<Link>) -> T,
) -> T {
    let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port");
    let addr = listener
        .local_addr()
        .expect("the bound address")
        .to_string();
    let server = std::thread::spawn(move || serve_edge(&listener, &mut echo_edge()));
    let link = make_link(TcpTransport::new("edge0", addr, RetryConfig::default()));
    let out = with_link(&link);
    link.close();
    server
        .join()
        .expect("the echo edge does not panic")
        .expect("the echo edge serves to the end");
    out
}

/// Round trips of one query over each kind of link: in process, bare
/// TCP, TCP under the session layer, and the same under a chaos
/// middleware that injects nothing.
fn link(sizes: Sizes) -> Vec<Row> {
    // See `pin`: both ends of the socket on one CPU.
    let _pinned = pin::to_last_cpu();
    let calls = sizes.link_calls;
    let us = |secs: f64| secs * 1e6;

    let edge = Arc::new(Mutex::new(echo_edge()));
    let mut sim = SimTransport::new(TransportConfig::default());
    sim.connect_handler(Box::new(move |envelope| {
        edge.lock().expect("edge lock poisoned").handle(envelope)
    }));
    let in_process = round_trip_s(&Link::new(sim), calls);

    let bare = over_tcp(Link::new, |link| round_trip_s(link, calls));
    let mut resends = 0;
    let mut sessioned = |make: &dyn Fn(TcpTransport) -> Arc<Link>| {
        over_tcp(make, |link| {
            let secs = round_trip_s(link, calls);
            resends += link.session_stats().map_or(0, |s| s.resends);
            secs
        })
    };
    let session = sessioned(&|tcp| Link::with_session(tcp, SessionConfig::default()));
    let chaos0 = sessioned(&|tcp| {
        Link::with_session(
            ChaosTransport::new(tcp, ChaosConfig::default()),
            SessionConfig::default(),
        )
    });
    vec![
        ("link.inproc_rtt_us", us(in_process), "us"),
        ("link.bare_rtt_us", us(bare), "us"),
        ("link.session_rtt_us", us(session), "us"),
        ("link.chaos0_rtt_us", us(chaos0), "us"),
        ("session.resends", resends as f64, "count"),
    ]
}

/// How long the probes may take at full size; the traced workload gets
/// the rest of `--seconds`.
pub const FULL_BUDGET: Duration = Duration::from_secs(6);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_finite_positive_figure() {
        let rows = all(7, Sizes::toy());
        let mut names: Vec<&str> = rows.iter().map(|r| r.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rows.len(), "names are unique");
        for (name, value, unit) in rows {
            let zero_is_right = name == "session.resends";
            assert!(
                value.is_finite() && (value > 0.0 || zero_is_right),
                "{name} = {value} {unit}"
            );
        }
    }
}
