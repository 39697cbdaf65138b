//! E1 — the orchestration continuum (paper Figure 1).
//!
//! Runs the *same* parking design at increasing infrastructure sizes and
//! records wiring cost, simulation throughput, and orchestration volume.
//! The paper's claim is qualitative — one design methodology spans the
//! continuum — so the measured series shows cost growing smoothly with
//! scale while the application code stays byte-identical.

use diaspec_apps::parking::{build, ParkingAppConfig};
use diaspec_runtime::obs::{JsonlSink, SharedSink};
use diaspec_runtime::{ObsSnapshot, ProcessingMode};
use serde::Serialize;
use std::time::Instant;

/// One row of the continuum experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ContinuumRow {
    /// Total presence sensors bound city-wide.
    pub sensors: usize,
    /// Wall-clock milliseconds to build and bind the application.
    pub build_ms: f64,
    /// Wall-clock milliseconds to simulate one 10-minute delivery period.
    pub period_wall_ms: f64,
    /// Readings gathered in that period.
    pub readings: u64,
    /// Context publications in that period.
    pub publications: u64,
    /// Device actuations in that period.
    pub actuations: u64,
    /// Sensor readings processed per wall-clock second.
    pub readings_per_sec: f64,
}

/// Runs one scale point: `sensors_per_lot` sensors in each of the 8 lots.
fn run_scale(sensors_per_lot: usize, processing: ProcessingMode) -> ContinuumRow {
    let build_start = Instant::now();
    let mut app = build(ParkingAppConfig {
        sensors_per_lot,
        processing,
        ..ParkingAppConfig::default()
    })
    .expect("parking app builds");
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;

    let sim_start = Instant::now();
    app.orchestrator.run_until(10 * 60 * 1000);
    let period_wall = sim_start.elapsed();

    let m = *app.orchestrator.metrics();
    let errors = app.orchestrator.drain_errors();
    assert!(errors.is_empty(), "continuum run must be clean: {errors:?}");
    ContinuumRow {
        sensors: sensors_per_lot * 8,
        build_ms,
        period_wall_ms: period_wall.as_secs_f64() * 1e3,
        readings: m.readings_polled,
        publications: m.publications,
        actuations: m.actuations,
        readings_per_sec: m.readings_polled as f64 / period_wall.as_secs_f64().max(1e-9),
    }
}

/// The default scale sweep of experiment E1.
#[must_use]
pub fn sweep(scales: &[usize]) -> Vec<ContinuumRow> {
    scales
        .iter()
        .map(|s| run_scale(*s, ProcessingMode::Serial))
        .collect()
}

/// Result of the observed E1 run: the usual row plus the per-activity
/// latency breakdown and the size of the JSONL trace written.
#[derive(Debug)]
pub struct ObservedRun {
    /// The continuum measurements of the run.
    pub row: ContinuumRow,
    /// Activity-labeled latency histograms and counters.
    pub snapshot: ObsSnapshot,
    /// JSON Lines written to the trace file.
    pub trace_lines: u64,
}

/// Runs one E1 scale point with full observability: activity-duration
/// recording on and a JSONL observer streaming every trace event (plus
/// the final snapshot) to `trace_path`.
///
/// The transport models a city-scale low-power WAN (uniform 20–200 ms
/// per hop) so the delivery histogram exercises a realistic spread
/// rather than the ideal zero-latency default.
///
/// # Errors
///
/// Propagates trace-file creation errors.
pub fn observed_run(
    sensors_per_lot: usize,
    trace_path: &std::path::Path,
) -> std::io::Result<ObservedRun> {
    use diaspec_runtime::transport::{LatencyModel, TransportConfig};
    let build_start = Instant::now();
    let mut app = build(ParkingAppConfig {
        sensors_per_lot,
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
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;

    let file = std::fs::File::create(trace_path)?;
    let sink = SharedSink::new(JsonlSink::new(std::io::BufWriter::new(file)));
    app.orchestrator.attach_observer(Box::new(sink.clone()));
    app.orchestrator.set_observability(true);

    let sim_start = Instant::now();
    // One second of drain slack past the 10-minute period: with 20-200 ms
    // hops, batches polled at the period boundary are still in flight at
    // exactly 10 min and the processing/actuation tail would be cut off.
    app.orchestrator.run_until(10 * 60 * 1000 + 1_000);
    let period_wall = sim_start.elapsed();

    let snapshot = app.orchestrator.publish_observation();
    let trace_lines = sink.with(|s| {
        let _ = s.flush();
        s.lines()
    });

    let m = *app.orchestrator.metrics();
    let errors = app.orchestrator.drain_errors();
    assert!(errors.is_empty(), "observed run must be clean: {errors:?}");
    Ok(ObservedRun {
        row: ContinuumRow {
            sensors: sensors_per_lot * 8,
            build_ms,
            period_wall_ms: period_wall.as_secs_f64() * 1e3,
            readings: m.readings_polled,
            publications: m.publications,
            actuations: m.actuations,
            readings_per_sec: m.readings_polled as f64 / period_wall.as_secs_f64().max(1e-9),
        },
        snapshot,
        trace_lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_points_produce_consistent_volumes() {
        let small = run_scale(5, ProcessingMode::Serial);
        assert_eq!(small.sensors, 40);
        // Two 10-minute contexts poll every sensor once each.
        assert_eq!(small.readings, 80);
        assert!(small.publications >= 2, "{small:?}");
        assert!(small.readings_per_sec > 0.0);
        let larger = run_scale(50, ProcessingMode::Serial);
        assert_eq!(larger.readings, 800);
        assert!(larger.readings >= small.readings * 10);
    }

    #[test]
    fn observed_run_breaks_down_activities_and_writes_a_trace() {
        let path = std::env::temp_dir().join("diaspec_e1_trace_test.jsonl");
        let observed = observed_run(5, &path).expect("trace file writable");
        assert_eq!(observed.row.readings, 80);

        let delivering = observed
            .snapshot
            .activity(diaspec_runtime::Activity::Delivering)
            .expect("delivering snapshot");
        assert!(delivering.latency.count > 0);
        assert!(delivering.latency.p50 >= 20 && delivering.latency.max <= 200);
        assert!(delivering.latency.p50 <= delivering.latency.p90);
        assert!(delivering.latency.p90 <= delivering.latency.p99);

        let processing = observed
            .snapshot
            .activity(diaspec_runtime::Activity::Processing)
            .expect("processing snapshot");
        assert!(processing.latency.count > 0, "contexts ran");

        assert!(observed.trace_lines > 0);
        let text = std::fs::read_to_string(&path).expect("trace file exists");
        assert_eq!(text.lines().count() as u64, observed.trace_lines);
        let _ = std::fs::remove_file(&path);
    }
}
