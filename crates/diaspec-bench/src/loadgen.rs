//! E20 — open-loop load harness: latency under load for the delivery
//! pipeline.
//!
//! The harness drives the event-driven delivery chain (source emission →
//! admit → route → schedule → dispatch → context compute → controller →
//! actuation) at a *scheduled* offered rate. Send deadlines are fixed up
//! front from the rate alone — never from when the previous send
//! completed — so a slow pipeline cannot slow the arrival process down
//! and hide its own queueing delay (the coordinated-omission trap of
//! closed-loop harnesses). End-to-end latency is measured as
//! `completion − scheduled deadline`: when the engine falls behind, the
//! backlog shows up as latency, exactly as it would for real clients.
//!
//! A sweep runs the same workload at increasing offered rates and
//! locates the throughput **knee**: the highest offered rate the engine
//! still sustains (achieved ≥ 95% of offered). Per-stage latency comes
//! from causal span tracing running in its cheap mode (stage histograms
//! on, span materialization off).

use diaspec_runtime::component::ContextActivation;
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
use diaspec_runtime::entity::EntityId;
use diaspec_runtime::obs::{HistogramSummary, LatencyHistogram, StageSnapshot};
use diaspec_runtime::value::Value;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema tag of the machine-readable report (`BENCH_delivery.json`).
/// v3 is v2 without the retired shard-count axis, plus the host and
/// checkout it ran on (`rev`, `nproc`, `cpu_model`, as in
/// `BENCH_ledger.json`); older reports are rejected by the guard and
/// must be regenerated.
pub const SCHEMA: &str = "diaspec-bench/delivery/v3";

/// Sustained-throughput threshold for the knee: achieved ≥ 95% of
/// offered.
const KNEE_THRESHOLD: f64 = 0.95;

/// Emissions admitted per engine drain under backlog. Bounds queue
/// growth when the offered rate exceeds capacity; deadlines are fixed
/// before the run, so batching never distorts the latency accounting.
const MAX_BATCH: usize = 4096;

const SPEC: &str = r#"
    device Sensor { attribute zone as String; source v as Integer; }
    device Sink { action absorb; }
    context Agg as Integer {
      when provided v from Sensor always publish;
    }
    controller Out { when provided Agg do absorb on Sink; }
"#;

/// Parameters of one sweep.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Offered rates to sweep, in messages per second.
    pub rates: Vec<u64>,
    /// Open-loop window per rate (wall clock).
    pub window: Duration,
    /// Emitting sensor entities (round-robin).
    pub sensors: usize,
    /// Hard cap on messages per rate; shortens the window at high rates
    /// so a sweep stays bounded.
    pub max_messages: u64,
}

impl LoadConfig {
    /// The full sweep: six offered rates bracketing the expected knee
    /// (the traced chain sustains a few hundred k msgs/s).
    #[must_use]
    pub fn full() -> Self {
        LoadConfig {
            rates: vec![50_000, 100_000, 200_000, 400_000, 1_000_000, 2_000_000],
            window: Duration::from_millis(400),
            sensors: 64,
            max_messages: 800_000,
        }
    }

    /// A short sweep for CI smoke runs (still ≥ 4 offered rates).
    #[must_use]
    pub fn quick() -> Self {
        LoadConfig {
            rates: vec![50_000, 150_000, 400_000, 1_000_000],
            window: Duration::from_millis(150),
            sensors: 16,
            max_messages: 150_000,
        }
    }
}

/// Measurements at one offered rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateReport {
    /// Scheduled arrival rate, messages per second.
    pub offered_msgs_per_sec: u64,
    /// Messages completed divided by wall time from the first scheduled
    /// deadline to the last completion.
    pub achieved_msgs_per_sec: u64,
    /// Messages driven through the pipeline.
    pub messages: u64,
    /// Sends that began ≥ 1 ms after their scheduled deadline — the
    /// size of the backlog the open loop accumulated.
    pub late_starts: u64,
    /// End-to-end latency (scheduled deadline → delivery chain drained),
    /// in microseconds.
    pub end_to_end_us: HistogramSummary,
    /// Per-stage latency breakdown from span tracing (occupied stages
    /// only; wall stages in µs, transport stages in simulated ms).
    pub stages: Vec<StageSnapshot>,
}

/// The machine-readable sweep report written to `BENCH_delivery.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// The checkout the report was taken from (`git describe --always
    /// --dirty --abbrev=7`, as `BENCH_ledger.json` rows record it;
    /// `unknown` outside a git checkout).
    pub rev: String,
    /// Logical CPUs available to the run.
    pub nproc: u64,
    /// The host's CPU model (`/proc/cpuinfo`; `unknown` elsewhere).
    pub cpu_model: String,
    /// Whether the quick (CI smoke) configuration ran.
    pub quick: bool,
    /// Open-loop window per rate, milliseconds.
    pub window_ms: u64,
    /// Emitting sensor entities.
    pub sensors: u64,
    /// Highest offered rate with achieved ≥ 95% of offered; 0 when even
    /// the lowest rate was not sustained.
    pub knee_msgs_per_sec: u64,
    /// One entry per offered rate, in sweep order.
    pub rates: Vec<RateReport>,
    /// E21 chaos soak rows (one per swept fault rate), merged in by
    /// `experiments --only e21`. Defaults to empty for pre-E21 reports.
    #[serde(default)]
    pub chaos: Vec<crate::chaossoak::ChaosSoakRow>,
}

fn build(sensors: usize) -> (Orchestrator, Vec<EntityId>) {
    let spec = Arc::new(diaspec_core::compile_str(SPEC).expect("load spec compiles"));
    let mut orch = Orchestrator::new(spec);
    orch.register_context(
        "Agg",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::SourceEvent { value, .. } => Ok(Some((*value).clone())),
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_controller("Out", |api: &mut ControllerApi<'_>, _: &str, _: &Value| {
        let sink: EntityId = "sink".into();
        api.invoke(&sink, "absorb", &[])?;
        Ok(())
    })
    .unwrap();
    struct Absorb;
    impl diaspec_runtime::entity::DeviceInstance for Absorb {
        fn query(
            &mut self,
            s: &str,
            _n: u64,
        ) -> Result<Value, diaspec_runtime::error::DeviceError> {
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
    let mut ids = Vec::with_capacity(sensors);
    for i in 0..sensors {
        let id: EntityId = format!("s{i}").into();
        let mut attrs = diaspec_runtime::entity::AttributeMap::new();
        attrs.insert("zone".to_owned(), Value::from("load"));
        orch.bind_entity(
            id.clone(),
            "Sensor",
            attrs,
            Box::new(|_: &str, _: u64| Ok(Value::Int(0))),
        )
        .unwrap();
        ids.push(id);
    }
    orch.bind_entity("sink".into(), "Sink", Default::default(), Box::new(Absorb))
        .unwrap();
    (orch, ids)
}

/// Drives one offered rate through a fresh orchestrator and reports
/// latency under that load.
#[must_use]
fn run_rate(offered: u64, config: &LoadConfig) -> RateReport {
    assert!(offered > 0, "offered rate must be positive");
    let (mut orch, ids) = build(config.sensors);
    // Cheap-mode tracing: stage histograms accumulate, no span records
    // materialize (buffering stays off, no observers attached).
    orch.set_span_tracing(true);
    orch.launch().unwrap();

    let total =
        (((offered as f64) * config.window.as_secs_f64()) as u64).clamp(1, config.max_messages);
    let period_ns = 1e9 / offered as f64;
    let deadline_ns = |i: u64| (i as f64 * period_ns) as u64;

    let mut e2e = LatencyHistogram::new();
    let mut batch: Vec<u64> = Vec::with_capacity(MAX_BATCH);
    let mut sent: u64 = 0;
    let mut late_starts: u64 = 0;
    let start = Instant::now();
    let mut last_done_ns: u64 = 0;
    while sent < total {
        let now_ns = start.elapsed().as_nanos() as u64;
        if deadline_ns(sent) > now_ns {
            // Ahead of schedule: spin until the next scheduled send.
            // Waits are sub-millisecond at every rate in the sweep, so
            // spinning beats the scheduler-granularity error of sleep.
            std::hint::spin_loop();
            continue;
        }
        batch.clear();
        while sent < total && batch.len() < MAX_BATCH {
            let d = deadline_ns(sent);
            if d > start.elapsed().as_nanos() as u64 {
                break;
            }
            if start.elapsed().as_nanos() as u64 >= d + 1_000_000 {
                late_starts += 1;
            }
            let at = orch.now();
            orch.emit_at(
                at,
                &ids[(sent as usize) % ids.len()],
                "v",
                Value::Int(sent as i64),
                None,
            )
            .expect("load sensor emits");
            batch.push(d);
            sent += 1;
        }
        // Drain the whole delivery chain the batch triggered (ideal
        // transport: everything lands at the current sim instant).
        while orch.step().is_some() {}
        let done_ns = start.elapsed().as_nanos() as u64;
        last_done_ns = done_ns;
        for &d in &batch {
            e2e.record(done_ns.saturating_sub(d) / 1_000);
        }
    }
    let errors = orch.drain_errors();
    assert!(errors.is_empty(), "load run must be clean: {errors:?}");
    assert_eq!(orch.open_spans(), 0, "quiescent engine leaks open spans");

    let elapsed_secs = (last_done_ns.max(1)) as f64 / 1e9;
    let snapshot = orch.observation();
    RateReport {
        offered_msgs_per_sec: offered,
        achieved_msgs_per_sec: (total as f64 / elapsed_secs).round() as u64,
        messages: total,
        late_starts,
        end_to_end_us: e2e.summary(),
        stages: snapshot
            .stages
            .into_iter()
            .filter(|s| s.latency.count > 0)
            .collect(),
    }
}

/// Highest offered rate the engine sustained (achieved ≥ 95% of
/// offered); 0 when none qualified.
#[must_use]
pub fn knee(rates: &[RateReport]) -> u64 {
    rates
        .iter()
        .filter(|r| {
            r.achieved_msgs_per_sec as f64 >= KNEE_THRESHOLD * r.offered_msgs_per_sec as f64
        })
        .map(|r| r.offered_msgs_per_sec)
        .max()
        .unwrap_or(0)
}

/// Runs the whole sweep and assembles the report.
#[must_use]
pub fn sweep(config: &LoadConfig, quick: bool) -> LoadReport {
    let rates: Vec<RateReport> = config.rates.iter().map(|&r| run_rate(r, config)).collect();
    LoadReport {
        schema: SCHEMA.to_owned(),
        rev: rev(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        cpu_model: cpu_model(),
        quick,
        window_ms: config.window.as_millis() as u64,
        sensors: config.sensors as u64,
        knee_msgs_per_sec: knee(&rates),
        rates,
        chaos: Vec::new(),
    }
}

/// The checkout's revision as `BENCH_ledger.json` records it.
fn rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The first `model name` of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .filter(|model| !model.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Parses a `BENCH_delivery.json` payload and checks the invariants the
/// schema guard enforces in CI. Deserialization itself rejects any
/// payload missing a required field.
///
/// # Errors
///
/// A human-readable description of the first violated invariant.
pub fn check_report(payload: &str) -> Result<LoadReport, String> {
    let report: LoadReport =
        serde_json::from_str(payload).map_err(|e| format!("malformed report: {e}"))?;
    if report.schema != SCHEMA {
        return Err(format!(
            "schema mismatch: expected {SCHEMA:?}, found {:?}; regenerate with full \
             `experiments --only e20` then `--only e21` runs",
            report.schema
        ));
    }
    if report.nproc == 0 || report.rev.is_empty() || report.cpu_model.is_empty() {
        return Err(
            "no host on record: `nproc`, `rev` and `cpu_model` must name the host and \
             checkout the report ran on"
                .to_owned(),
        );
    }
    if report.rates.len() < 4 {
        return Err(format!(
            "rate sweep too small: {} offered rates, need >= 4",
            report.rates.len()
        ));
    }
    for rate in &report.rates {
        if rate.messages == 0 || rate.end_to_end_us.count == 0 {
            return Err(format!(
                "empty measurement at offered rate {}",
                rate.offered_msgs_per_sec
            ));
        }
        if rate.stages.is_empty() {
            return Err(format!(
                "no per-stage breakdown at offered rate {}",
                rate.offered_msgs_per_sec
            ));
        }
    }
    for row in &report.chaos {
        if !row.identical {
            return Err(format!(
                "chaos soak at fault rate {} diverged from the fault-free run",
                row.fault_rate
            ));
        }
        if row.partitions > 0 && row.replays == 0 {
            return Err(format!(
                "chaos soak at fault rate {}: {} partition window(s) but no replays",
                row.fault_rate, row.partitions
            ));
        }
    }
    Ok(report)
}

/// Runs a short fully-traced slice of the load workload and returns its
/// spans serialized as a Chrome/Perfetto `trace_event` JSON document
/// (the sample trace CI uploads next to the bench report).
#[must_use]
pub fn perfetto_sample(messages: u64, sensors: usize) -> String {
    let (mut orch, ids) = build(sensors);
    orch.set_span_tracing(true);
    orch.set_span_buffering(true);
    orch.launch().unwrap();
    for i in 0..messages {
        let at = orch.now();
        orch.emit_at(
            at,
            &ids[(i as usize) % ids.len()],
            "v",
            Value::Int(i as i64),
            None,
        )
        .expect("load sensor emits");
        while orch.step().is_some() {}
    }
    let spans = orch.take_spans();
    diaspec_runtime::spans::validate_span_forest(&spans).expect("sample trace is well-formed");
    diaspec_runtime::spans::chrome_trace(&spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LoadConfig {
        LoadConfig {
            rates: vec![5_000, 20_000],
            window: Duration::from_millis(20),
            sensors: 4,
            max_messages: 2_000,
        }
    }

    #[test]
    fn run_rate_measures_every_scheduled_message() {
        let config = tiny();
        let report = run_rate(5_000, &config);
        assert_eq!(report.offered_msgs_per_sec, 5_000);
        assert_eq!(report.messages, 100);
        assert_eq!(report.end_to_end_us.count, 100);
        assert!(report.achieved_msgs_per_sec > 0);
        // The traced chain touches at least admit/route/dispatch/compute.
        assert!(report.stages.len() >= 4, "{:?}", report.stages);
    }

    #[test]
    fn knee_is_highest_sustained_offered_rate() {
        let mk = |offered: u64, achieved: u64| RateReport {
            offered_msgs_per_sec: offered,
            achieved_msgs_per_sec: achieved,
            messages: 1,
            late_starts: 0,
            end_to_end_us: LatencyHistogram::new().summary(),
            stages: Vec::new(),
        };
        let rows = vec![mk(100, 100), mk(200, 199), mk(400, 250)];
        assert_eq!(knee(&rows), 200);
        assert_eq!(knee(&[mk(100, 10)]), 0);
        assert_eq!(knee(&[]), 0);
    }

    #[test]
    fn report_round_trips_and_passes_the_schema_guard() {
        let report = sweep(
            &LoadConfig {
                rates: vec![2_000, 4_000, 8_000, 16_000],
                window: Duration::from_millis(10),
                sensors: 2,
                max_messages: 500,
            },
            true,
        );
        let payload = serde_json::to_string(&report).unwrap();
        let parsed = check_report(&payload).expect("generated report passes its own guard");
        assert_eq!(parsed.rates.len(), 4);
        assert_eq!(parsed.schema, SCHEMA);
    }

    #[test]
    fn schema_guard_rejects_missing_fields_and_small_sweeps() {
        assert!(check_report("{}").is_err());
        assert!(check_report("not json").is_err());
        let mut report = sweep(
            &LoadConfig {
                rates: vec![2_000, 4_000, 8_000, 16_000],
                window: Duration::from_millis(5),
                sensors: 2,
                max_messages: 200,
            },
            true,
        );
        // A report from before the shard axis was retired is told to regenerate.
        let v2 = serde_json::to_string(&report)
            .unwrap()
            .replace(SCHEMA, "diaspec-bench/delivery/v2");
        let err = check_report(&v2).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
        let mut hostless = report.clone();
        report.rates.truncate(2);
        let payload = serde_json::to_string(&report).unwrap();
        let err = check_report(&payload).unwrap_err();
        assert!(err.contains("rate sweep too small"), "{err}");
        // A payload that drops a required field fails deserialization.
        let stripped = payload.replace("\"schema\":", "\"schema_was\":");
        assert!(check_report(&stripped).is_err());
        // The host fields are required, as in BENCH_ledger.json rows.
        for field in ["rev", "nproc", "cpu_model"] {
            let stripped = payload.replace(&format!("\"{field}\":"), "\"dropped\":");
            assert!(check_report(&stripped).is_err(), "{field} is required");
        }
        hostless.nproc = 0;
        let err = check_report(&serde_json::to_string(&hostless).unwrap()).unwrap_err();
        assert!(err.contains("no host on record"), "{err}");
    }

    #[test]
    fn perfetto_sample_is_loadable_json_with_events() {
        let trace = perfetto_sample(8, 2);
        let parsed: serde_json::Value = serde_json::from_str(&trace).unwrap();
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert!(!events.is_empty());
    }
}
