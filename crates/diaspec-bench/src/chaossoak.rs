//! E21 — chaos soak: orchestration correctness under link faults.
//!
//! Runs the generated one-edge deployment of the parking design
//! (`plan_deployment`, `edges: 1`, wired by
//! [`diaspec_apps::parking::remote`] exactly as the distributed demo
//! wires a manifest) with its edge bridged over a
//! [`ChaosTransport`] that drops, duplicates, delays, reorders, and
//! corrupts envelopes at a swept rate and cuts the link over two
//! partition windows — against an at-least-once session link (inline
//! resends, parked-effect replay behind a path probe, receiver-side
//! dedup). The claim under test is the strongest one the resilience
//! stack makes: the orchestration-level summary (published contexts,
//! local actuations, engine metrics, surfaced errors) must be
//! **byte-identical** to the fault-free run — faults cost resends and
//! replay lateness, never observable behavior. Each row records what
//! the recovery machinery paid: inline resends, replays and their
//! lateness percentiles, path probes, absorbed duplicates, and the
//! faults the chaos layer actually injected.
//!
//! Three runs back each row: the deployment over a bare link, over a
//! zero-fault `ChaosTransport` (the middleware must be transparent),
//! and over the faulty one. All three summaries must agree.

use diaspec_apps::parking::remote::{bind_coordinator, edge_runtime};
use diaspec_apps::parking::{
    register_components, render_summary, ParkingAppConfig, ENVIRONMENT_FIRST_STEP_MS, SPEC,
};
use diaspec_codegen::deploy::{plan_deployment, DeployOptions};
use diaspec_runtime::deploy::{BreakerConfig, Link, SessionConfig, SessionStats, TickPump};
use diaspec_runtime::transport::{
    ChaosConfig, ChaosStats, ChaosTransport, Direction, SimTransport, TransportConfig,
};
use diaspec_runtime::{Orchestrator, RetryConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// City-model step cadence (one simulated minute), as in the
/// distributed parking demo.
const TICK_MS: u64 = 60_000;

/// Parameters of one chaos soak run.
#[derive(Debug, Clone)]
pub struct ChaosSoakConfig {
    /// Presence sensors per parking lot.
    pub sensors: usize,
    /// Simulated duration in hours.
    pub hours: u64,
    /// Seed of the chaos fate hash.
    pub seed: u64,
    /// Per-message probability of each fault class (drop, duplicate,
    /// delay, reorder, corrupt-frame).
    pub fault_rate: f64,
    /// How long delay-faulted envelopes are held, in sim-ms.
    pub delay_ms: u64,
    /// Bidirectional partition windows `(from_ms, until_ms)`, placed
    /// between the 600,000-ms availability polls so they cut ticks.
    pub partitions: Vec<(u64, u64)>,
}

impl Default for ChaosSoakConfig {
    fn default() -> Self {
        ChaosSoakConfig {
            sensors: 4,
            hours: 1,
            seed: 42,
            fault_rate: 0.05,
            delay_ms: 30_000,
            partitions: vec![(1_210_000, 1_330_000), (2_410_000, 2_530_000)],
        }
    }
}

/// One row of the chaos soak experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosSoakRow {
    /// Per-fault-class probability of this run.
    pub fault_rate: f64,
    /// Partition windows applied.
    pub partitions: usize,
    /// Faults the chaos layer injected (all classes).
    pub faults_injected: u64,
    /// Envelopes dropped inside partition windows.
    pub partition_drops: u64,
    /// Inline same-sequence resends the session layer paid.
    pub resends: u64,
    /// Requests that succeeded only after a resend.
    pub recovered: u64,
    /// Requests that exhausted their retry budget (effects parked).
    pub abandoned: u64,
    /// Parked effects replayed after the link healed.
    pub replays: u64,
    /// Heartbeat path probes sent ahead of replays.
    pub probes: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Duplicate deliveries absorbed by the edge's dedup cache.
    pub duplicates_absorbed: u64,
    /// Median replay lateness (sim-ms an effect landed late).
    pub replay_p50_ms: u64,
    /// Tail replay lateness.
    pub replay_p99_ms: u64,
    /// Worst replay lateness.
    pub replay_max_ms: u64,
    /// Whether bare-link, zero-chaos, and faulty summaries were all
    /// byte-identical — the headline correctness claim.
    pub identical: bool,
    /// Wall-clock milliseconds for all three runs.
    pub wall_ms: f64,
}

/// How one soak run is bridged.
enum LinkMode {
    /// Session link straight over the loopback transport.
    Bare,
    /// Session link through a `ChaosTransport` with zero fault rates —
    /// must be fully transparent.
    CleanChaos,
    /// Session link through the configured chaos scenario.
    Faulty,
}

/// Everything one run produces.
struct SoakOutcome {
    summary: String,
    session: SessionStats,
    chaos: ChaosStats,
    duplicates_absorbed: u64,
}

/// Runs the parking deployment once over the given link mode and
/// renders its orchestration-level summary.
fn run_once(config: &ChaosSoakConfig, mode: &LinkMode) -> SoakOutcome {
    let app = ParkingAppConfig {
        sensors_per_lot: config.sensors,
        ..ParkingAppConfig::default()
    };
    let spec = diaspec_core::compile_str(SPEC).expect("parking spec compiles");
    let options = DeployOptions {
        edges: 1,
        ..DeployOptions::default()
    };
    let manifest = plan_deployment(&spec, &options)
        .expect("parking deploys onto one edge")
        .manifest;
    let mut orch = Orchestrator::with_transport(Arc::new(spec), app.transport);
    register_components(&mut orch, &app).expect("components register");

    // The manifest's one edge hosts every lot; its runtime is looped
    // back through a SimTransport handler, as the distributed demo's
    // in-process backend does.
    let edge = &manifest.edges[0];
    let runtime = edge_runtime(edge, config.sensors).expect("every shard is a lot");
    let runtime = Arc::new(Mutex::new(runtime));
    let handler = Arc::clone(&runtime);
    let mut sim = SimTransport::new(TransportConfig::default());
    sim.connect_handler(Box::new(move |envelope| {
        handler.lock().expect("edge runtime lock").handle(envelope)
    }));

    // Enough inline attempts that probabilistic faults never exhaust a
    // request at the swept rates — only deterministic partition windows
    // do, and those park + replay. Zero backoff: resends are free in
    // wall time, lateness is measured in sim time.
    let session = SessionConfig {
        retry: RetryConfig {
            max_attempts: 8,
            base_backoff_ms: 0,
            timeout_ms: 0,
        },
        resend_queue: 64,
        breaker: BreakerConfig::default(),
    };
    let mut chaos_config = ChaosConfig {
        seed: config.seed,
        ..ChaosConfig::default()
    };
    if matches!(mode, LinkMode::Faulty) {
        chaos_config.drop_probability = config.fault_rate;
        chaos_config.duplicate_probability = config.fault_rate;
        chaos_config.delay_probability = config.fault_rate;
        chaos_config.delay_ms = config.delay_ms;
        chaos_config.reorder_probability = config.fault_rate;
        chaos_config.corrupt_probability = config.fault_rate;
        for &(from_ms, until_ms) in &config.partitions {
            chaos_config = chaos_config.window(from_ms, until_ms, Direction::Both);
        }
    }
    let (link, chaos_stats) = match mode {
        LinkMode::Bare => (Link::with_session(sim, session), None),
        LinkMode::CleanChaos | LinkMode::Faulty => {
            let chaos = ChaosTransport::new(sim, chaos_config);
            let handle = chaos.stats_handle();
            (Link::with_session(chaos, session), Some(handle))
        }
    };

    let links = BTreeMap::from([(edge.name.clone(), Arc::clone(&link))]);
    let messenger =
        bind_coordinator(&mut orch, &manifest, &links, config.sensors).expect("entities bind");

    let pump = TickPump::new(vec![Arc::clone(&link)], TICK_MS);
    let stop = pump.stop_handle();
    orch.spawn_process_at("tick-pump", pump, ENVIRONMENT_FIRST_STEP_MS);
    orch.launch().expect("launches");
    orch.run_until(config.hours * 3_600_000);
    stop.stop();

    let summary = render_summary(&mut orch, &messenger);
    let session = link.session_stats().expect("session link");
    let duplicates_absorbed = runtime.lock().expect("edge runtime lock").duplicates();
    link.close();
    SoakOutcome {
        summary,
        session,
        chaos: chaos_stats.map(|h| h.get()).unwrap_or_default(),
        duplicates_absorbed,
    }
}

/// Runs one soak scenario: bare link, zero-fault chaos, faulty chaos —
/// and checks all three summaries byte-for-byte.
///
/// # Panics
///
/// Panics if the bundled parking design fails to compile or wire —
/// neither happens for valid configs.
#[must_use]
pub fn run(config: &ChaosSoakConfig) -> ChaosSoakRow {
    let start = Instant::now();
    let bare = run_once(config, &LinkMode::Bare);
    let clean = run_once(config, &LinkMode::CleanChaos);
    let faulty = run_once(config, &LinkMode::Faulty);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let identical = bare.summary == clean.summary && clean.summary == faulty.summary;
    let lateness = &faulty.session.replay_lateness;
    ChaosSoakRow {
        fault_rate: config.fault_rate,
        partitions: config.partitions.len(),
        faults_injected: faulty.chaos.injected(),
        partition_drops: faulty.chaos.partition_drops,
        resends: faulty.session.resends,
        recovered: faulty.session.recovered,
        abandoned: faulty.session.abandoned,
        replays: faulty.session.replays,
        probes: faulty.session.probes,
        breaker_trips: faulty.session.breaker_trips,
        duplicates_absorbed: faulty.duplicates_absorbed,
        replay_p50_ms: lateness.quantile(0.5),
        replay_p99_ms: lateness.quantile(0.99),
        replay_max_ms: lateness.max(),
        identical,
        wall_ms,
    }
}

/// The default fault-rate sweep of experiment E21.
#[must_use]
pub fn sweep(rates: &[f64]) -> Vec<ChaosSoakRow> {
    rates
        .iter()
        .map(|&fault_rate| {
            run(&ChaosSoakConfig {
                fault_rate,
                ..ChaosSoakConfig::default()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_cost_resends_never_observable_behavior() {
        let row = run(&ChaosSoakConfig::default());
        assert!(row.identical, "summaries diverged: {row:?}");
        assert!(row.faults_injected > 0, "{row:?}");
        assert!(row.partition_drops > 0, "both windows must cut: {row:?}");
        assert!(row.resends > 0, "{row:?}");
        assert!(
            row.replays >= 4,
            "two ticks parked per window must replay: {row:?}"
        );
        assert!(row.probes > 0, "{row:?}");
        assert!(row.replay_max_ms > 0, "{row:?}");
    }

    #[test]
    fn same_seed_reproduces_the_same_recovery_trace() {
        let config = ChaosSoakConfig {
            hours: 1,
            ..ChaosSoakConfig::default()
        };
        let a = run(&config);
        let b = run(&config);
        assert_eq!(
            strip_wall(serde_json::to_string(&a).unwrap()),
            strip_wall(serde_json::to_string(&b).unwrap())
        );
    }

    fn strip_wall(json: String) -> String {
        // Wall-clock time is the one legitimately nondeterministic field.
        json.split(",\"wall_ms\"").next().unwrap().to_owned()
    }
}
