//! The parking case study deployed across processes: one coordinator
//! running the full orchestration (contexts, controllers, MapReduce)
//! plus edge nodes hosting the per-lot device slices, bridged by the
//! socket transport. The split comes from the deployment manifest
//! emitted by `diaspec-gen deploy specs/parking.spec`, the deployment
//! unit: every role is this binary plus its slice of the manifest, which
//! is loaded (`NodeManifest::from_json`) and held against the design
//! (`check_against`) before anything is wired.
//!
//! ```text
//! # one process per node, socket backend:
//! parking_distributed --role edge --node edge0 --manifest m.json &
//! parking_distributed --role edge --node edge1 --manifest m.json &
//! parking_distributed --role coordinator --manifest m.json
//!
//! # same wiring, in-process backend (the golden for the smoke diff):
//! parking_distributed --role inprocess --manifest m.json
//! ```
//!
//! Both roles print the same orchestration-level summary: the backends
//! must be observationally identical. Every edge replicates the whole
//! deterministic city model (same seed) and steps it on coordinator
//! `Tick`s, so lot trajectories match the single-process run exactly.
//!
//! `--die-at MS` makes an edge play dead from that sim time; with
//! `--recover`, the coordinator runs leases plus coordinator-local
//! standby drivers, so the kill shows up as `lease ... expired` and
//! `rebind ...` lines in its trace.
//!
//! Coordinator↔edge links run the manifest's per-link session policy
//! (at-least-once delivery with replay and a circuit breaker); edges
//! serve under a [`Supervisor`] that survives coordinator reconnects
//! and rebuilds a crashed runtime within its restart budget. A
//! repeatable `--chaos-partition FROM:UNTIL` flag cuts every link both
//! ways over the given sim window via [`ChaosTransport`]; placed
//! between poll instants, the orchestration summary must still be
//! byte-identical to the fault-free run — ticks queue in the session's
//! replay queue and land, in order, once the window closes.

use diaspec_apps::parking::remote::{bind_coordinator, city_replica, edge_runtime};
use diaspec_apps::parking::{
    register_components, render_summary, ParkingAppConfig, ENVIRONMENT_FIRST_STEP_MS, SPEC,
};
use diaspec_codegen::deploy::{EdgeManifest, NodeManifest};
use diaspec_core::model::CheckedSpec;
use diaspec_devices::common::{ActuationLog, RecordingActuator};
use diaspec_devices::parking::PresenceSensorDriver;
use diaspec_runtime::deploy::{
    BreakerConfig, EdgeRuntime, Link, RestartPolicy, SessionConfig, Supervisor, TickPump,
};
use diaspec_runtime::entity::AttributeMap;
use diaspec_runtime::obs::render_prometheus;
use diaspec_runtime::transport::{
    ChaosConfig, ChaosTransport, Direction, SimTransport, Transport, TransportConfig,
};
use diaspec_runtime::value::Value;
use diaspec_runtime::{Orchestrator, RecoveryConfig, RetryConfig, TcpTransport, TransportSample};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// City-model step cadence: one simulated minute, pumped to the edges.
const TICK_MS: u64 = 60_000;
/// Lease TTL for `--recover`: 2.5 missed 10-minute polls.
const LEASE_TTL_MS: u64 = 1_500_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = Options::parse(std::env::args().skip(1))?;
    let manifest = NodeManifest::from_json(&std::fs::read_to_string(&options.manifest)?)?;
    let spec = diaspec_core::compile_str(SPEC)?;
    manifest.check_against(&spec)?;
    match options.role.as_str() {
        "edge" => run_edge(&manifest, &options),
        "coordinator" => run_coordinator(spec, &manifest, &options, Backend::Tcp),
        "inprocess" => run_coordinator(spec, &manifest, &options, Backend::InProcess),
        other => {
            Err(format!("unknown role `{other}` (expected coordinator, edge, inprocess)").into())
        }
    }
}

/// Which transport backend the coordinator bridges edges over.
#[derive(Clone, Copy, PartialEq)]
enum Backend {
    /// Real sockets to separately launched edge processes.
    Tcp,
    /// Loopback `SimTransport` handlers onto in-process edge runtimes.
    InProcess,
}

struct Options {
    role: String,
    manifest: String,
    node: String,
    sensors: usize,
    hours: u64,
    die_at: Option<u64>,
    recover: bool,
    /// Bidirectional link partitions, as `(from_ms, until_ms)` sim
    /// windows, injected by wrapping every link in a `ChaosTransport`.
    chaos_partitions: Vec<(u64, u64)>,
}

impl Options {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut options = Options {
            role: String::new(),
            manifest: String::new(),
            node: String::new(),
            sensors: 4,
            hours: 1,
            die_at: None,
            recover: false,
            chaos_partitions: Vec::new(),
        };
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
            match arg.as_str() {
                "--role" => options.role = value("--role")?,
                "--manifest" => options.manifest = value("--manifest")?,
                "--node" => options.node = value("--node")?,
                "--sensors" => {
                    options.sensors = value("--sensors")?
                        .parse()
                        .map_err(|e| format!("--sensors: {e}"))?;
                }
                "--hours" => {
                    options.hours = value("--hours")?
                        .parse()
                        .map_err(|e| format!("--hours: {e}"))?;
                }
                "--die-at" => {
                    options.die_at = Some(
                        value("--die-at")?
                            .parse()
                            .map_err(|e| format!("--die-at: {e}"))?,
                    );
                }
                "--recover" => options.recover = true,
                "--chaos-partition" => {
                    let window = value("--chaos-partition")?;
                    let (from, until) = window
                        .split_once(':')
                        .ok_or(format!("--chaos-partition `{window}`: expected FROM:UNTIL"))?;
                    let from: u64 = from
                        .parse()
                        .map_err(|e| format!("--chaos-partition: {e}"))?;
                    let until: u64 = until
                        .parse()
                        .map_err(|e| format!("--chaos-partition: {e}"))?;
                    if from >= until {
                        return Err(format!("--chaos-partition `{window}`: empty window"));
                    }
                    options.chaos_partitions.push((from, until));
                }
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        if options.role.is_empty() || options.manifest.is_empty() {
            return Err(
                "usage: parking_distributed --role coordinator|edge|inprocess \
                        --manifest <manifest.json> [--node NAME] [--sensors N] [--hours H] \
                        [--die-at MS] [--recover] [--chaos-partition FROM:UNTIL]..."
                    .to_owned(),
            );
        }
        Ok(options)
    }
}

/// One edge node's runtime, with the `--die-at` schedule armed.
fn edge_node(edge: &EdgeManifest, options: &Options) -> Result<EdgeRuntime, String> {
    let mut runtime = edge_runtime(edge, options.sensors)?;
    if let Some(die_at) = options.die_at {
        runtime.set_die_at(die_at);
    }
    Ok(runtime)
}

/// Edge role: serve the coordinator under a [`Supervisor`] — the node
/// survives coordinator reconnects with its dedup cache intact, crashed
/// runtimes are rebuilt within the restart budget, and an absent
/// coordinator ends the process instead of leaking it.
fn run_edge(manifest: &NodeManifest, options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let edge = manifest
        .edges
        .iter()
        .find(|e| e.name == options.node)
        .ok_or_else(|| format!("manifest has no edge node `{}`", options.node))?;
    let listener = TcpListener::bind(&edge.listen)?;
    eprintln!("{}: listening on {}", edge.name, edge.listen);
    let supervisor = Supervisor::new(RestartPolicy {
        // Generous first-join window: the coordinator process may be
        // launched after the edges.
        rejoin_window_ms: 5_000,
        ..RestartPolicy::default()
    });
    // The death schedule stays armed across rebuilds: a node killed on
    // schedule stays dead, so the coordinator's lease/standby recovery
    // is what brings the lots back, exactly as in the in-process run.
    let report = supervisor.serve(&listener, |_generation| {
        edge_node(edge, options).expect("check_against: every shard is a lot of the model")
    })?;
    if report.restarts > 0 {
        eprintln!(
            "{}: {} restart(s) over {} connection(s){}",
            edge.name,
            report.restarts,
            report.connections,
            if report.gave_up {
                ", crash budget exhausted"
            } else {
                ""
            }
        );
    }
    println!(
        "{}: served {} request(s), {} bytes in / {} bytes out{}",
        edge.name,
        report.requests,
        report.stats.bytes_received,
        report.stats.bytes_sent,
        if report.died_on_schedule {
            " (died on schedule)"
        } else {
            ""
        }
    );
    Ok(())
}

/// Builds the coordinator's link to one edge: the manifest's session
/// policy decides between an at-least-once session link and a
/// best-effort one, and any `--chaos-partition` windows wrap the
/// backend in a [`ChaosTransport`] first. This is the one place a manifest
/// `LinkPolicy` becomes a `SessionConfig`; `NodeManifest::from_json` has
/// already refused a policy no session can run with.
fn build_link(
    transport: impl Transport + 'static,
    edge: &EdgeManifest,
    options: &Options,
) -> Arc<Link> {
    let policy = &edge.link;
    let session = SessionConfig {
        retry: RetryConfig {
            max_attempts: policy.max_attempts,
            base_backoff_ms: policy.base_backoff_ms,
            timeout_ms: policy.timeout_ms,
        },
        resend_queue: policy.resend_queue,
        breaker: BreakerConfig {
            failure_threshold: policy.breaker_failures,
            cooldown_ms: policy.breaker_cooldown_ms,
        },
    };
    if options.chaos_partitions.is_empty() {
        if policy.session {
            Link::with_session(transport, session)
        } else {
            Link::new(transport)
        }
    } else {
        let mut config = ChaosConfig::default();
        for &(from_ms, until_ms) in &options.chaos_partitions {
            config = config.window(from_ms, until_ms, Direction::Both);
        }
        let chaos = ChaosTransport::new(transport, config);
        if policy.session {
            Link::with_session(chaos, session)
        } else {
            Link::new(chaos)
        }
    }
}

/// Coordinator (or whole-run in-process) role: run the orchestration
/// with every sharded device bridged over the chosen backend.
fn run_coordinator(
    spec: CheckedSpec,
    manifest: &NodeManifest,
    options: &Options,
    backend: Backend,
) -> Result<(), Box<dyn std::error::Error>> {
    let config = ParkingAppConfig {
        sensors_per_lot: options.sensors,
        ..ParkingAppConfig::default()
    };
    let mut orch = Orchestrator::with_transport(Arc::new(spec), config.transport);
    register_components(&mut orch, &config)?;

    // One link per edge node. In-process: the very same EdgeRuntime
    // wiring, looped back through a SimTransport handler.
    let retry = RetryConfig {
        max_attempts: 1,
        base_backoff_ms: 5,
        timeout_ms: 1_000,
    };
    let mut links: BTreeMap<String, Arc<Link>> = BTreeMap::new();
    for edge in &manifest.edges {
        let link = match backend {
            Backend::Tcp => build_link(
                TcpTransport::new(edge.name.clone(), edge.listen.clone(), retry),
                edge,
                options,
            ),
            Backend::InProcess => {
                let runtime = Arc::new(Mutex::new(edge_node(edge, options)?));
                let mut sim = SimTransport::new(TransportConfig::default());
                sim.connect_handler(Box::new(move |envelope| {
                    runtime.lock().expect("edge runtime lock").handle(envelope)
                }));
                build_link(sim, edge, options)
            }
        };
        links.insert(edge.name.clone(), link);
    }

    if options.recover {
        orch.set_tracing(true);
        orch.enable_recovery(RecoveryConfig::default().with_leases(LEASE_TTL_MS))?;
    }

    // Stop handles for the tick sources, flipped before the links say
    // `Bye` so no tick races the orderly shutdown.
    let mut pump_stop = None;
    let step_stop = Arc::new(AtomicBool::new(false));

    let messenger = bind_coordinator(&mut orch, manifest, &links, options.sensors)?;

    if options.recover {
        // Coordinator-local standbys over yet another model replica:
        // when an edge dies and leases expire, the registry promotes
        // these and the orchestration continues on identical data.
        let standby_model = city_replica(options.sensors);
        for lot in manifest.edges.iter().flat_map(|edge| &edge.shards) {
            let cell = standby_model
                .lot(lot)
                .ok_or_else(|| format!("manifest shard `{lot}` is not a lot"))?;
            let lot_value = Value::enum_value("ParkingLotEnum", lot);
            for space in 0..options.sensors {
                let mut attrs = AttributeMap::new();
                attrs.insert("parkingLot".to_owned(), lot_value.clone());
                orch.register_standby(
                    format!("standby-presence-{lot}-{space}").into(),
                    "PresenceSensor",
                    attrs,
                    Box::new(PresenceSensorDriver::new(cell.clone(), space)),
                )?;
            }
            let mut attrs = AttributeMap::new();
            attrs.insert("location".to_owned(), lot_value.clone());
            orch.register_standby(
                format!("standby-panel-{lot}").into(),
                "ParkingEntrancePanel",
                attrs,
                Box::new(RecordingActuator::new(ActuationLog::new())),
            )?;
        }
        let mut hook_model = standby_model;
        let pump_links: Vec<Arc<Link>> = links.values().map(Arc::clone).collect();
        orch.spawn_process_at(
            "standby-city",
            StepAnd {
                step: Box::new(move |now| hook_model.step(now)),
                links: pump_links,
                period_ms: TICK_MS,
                stopped: Arc::clone(&step_stop),
            },
            ENVIRONMENT_FIRST_STEP_MS,
        );
    } else {
        let pump = TickPump::new(links.values().map(Arc::clone).collect(), TICK_MS);
        pump_stop = Some(pump.stop_handle());
        orch.spawn_process_at("tick-pump", pump, ENVIRONMENT_FIRST_STEP_MS);
    }
    orch.launch()?;

    eprintln!(
        "coordinator: {} entities bound, {} edge link(s) over {} backend",
        orch.registry().len(),
        links.len(),
        links.values().next().map_or("?", |l| l.backend()),
    );
    orch.run_until(options.hours * 3_600_000);
    if let Some(stop) = &pump_stop {
        stop.stop();
    }
    step_stop.store(true, Ordering::Relaxed);

    print_summary(&mut orch, &messenger, options);
    let mut snapshot = orch.observation();
    for (name, link) in &links {
        let stats = link.stats();
        eprintln!(
            "link {name}: {} frames / {} bytes out, {} frames / {} bytes in, {} reconnect(s)",
            stats.frames_sent,
            stats.bytes_sent,
            stats.frames_received,
            stats.bytes_received,
            stats.reconnects
        );
        snapshot
            .transports
            .push(TransportSample::from_stats(name, link.backend(), &stats));
        if let Some(session) = link.session_stats() {
            eprintln!(
                "link {name}: diaspec_session_replays {} diaspec_session_resends {} \
                 diaspec_session_abandoned {} diaspec_session_probes {} \
                 diaspec_session_breaker_trips {}",
                session.replays,
                session.resends,
                session.abandoned,
                session.probes,
                session.breaker_trips
            );
        }
        link.close();
    }
    for line in render_prometheus(&snapshot)
        .lines()
        .filter(|l| l.contains("diaspec_transport_"))
    {
        eprintln!("{line}");
    }
    Ok(())
}

/// A process stepping the coordinator's standby replica *and* pumping
/// ticks, keeping both environments on exactly the same grid.
struct StepAnd {
    step: Box<dyn FnMut(u64) + Send>,
    links: Vec<Arc<Link>>,
    period_ms: u64,
    stopped: Arc<AtomicBool>,
}

impl diaspec_runtime::process::Process for StepAnd {
    fn wake(&mut self, api: &mut diaspec_runtime::engine::ProcessApi<'_>) -> Option<u64> {
        if self.stopped.load(Ordering::Relaxed) {
            return None;
        }
        let now = api.now();
        (self.step)(now);
        for link in &self.links {
            let _ = link.request(|seq| diaspec_runtime::Envelope::tick(seq, now));
        }
        Some(now + self.period_ms)
    }
}

/// Prints the orchestration-level summary both backends must agree on,
/// then (with `--recover`) the lease/rebind lines of the trace.
fn print_summary(orch: &mut Orchestrator, messenger: &ActuationLog, options: &Options) {
    print!("{}", render_summary(orch, messenger));

    if options.recover {
        let mut lease_lines = 0usize;
        for event in orch.take_trace() {
            let line = event.to_string();
            if line.contains("lease ") || line.contains("rebind ") {
                println!("trace: {}", line.trim());
                lease_lines += 1;
            }
        }
        println!("recovery events: {lease_lines}");
    }
}
