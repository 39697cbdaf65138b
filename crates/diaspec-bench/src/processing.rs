//! E10 — serial vs. parallel MapReduce over mass sensor data
//! (paper §IV.2; DiaSwarm \[11, 17\]).
//!
//! The workload mirrors the parking availability computation at city
//! scale, with a configurable per-record processing cost (the paper's
//! motivation is *expensive* processing of masses of readings — a free
//! counting loop would be memory-bound and hide the parallelism).

use diaspec_mapreduce::{ExecutionStats, Job, MapCollector, MapReduce, ReduceCollector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// Serial/parallel pairs behind every speedup figure. The two
/// invocations of a pair run back to back, so a slow phase of the host
/// hits both sides alike; the spread over the pairs shows the phases in
/// which a second core was not available.
pub const ROUNDS: usize = 5;

/// A synthetic presence dataset: `(lot index, occupied)` records.
pub(crate) fn presence_dataset(readings: usize, lots: u32, seed: u64) -> Vec<(u32, bool)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..readings)
        .map(|_| (rng.gen_range(0..lots), rng.gen::<f64>() < 0.55))
        .collect()
}

/// Burns deterministic CPU work, returning a value the optimizer cannot
/// discard. Each unit is a short integer-hash loop (~1 ns scale).
#[inline]
fn burn(units: u32, seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..units {
        x ^= x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = x.rotate_left(17);
    }
    x
}

/// The availability MapReduce with `work` units of synthetic processing
/// per record (e.g. de-noising a raw sensor signal before counting).
pub(crate) struct CostedAvailability {
    /// Synthetic work units per Map record.
    pub(crate) work: u32,
}

impl MapReduce<u32, bool, u32, u64, u32, i64> for CostedAvailability {
    fn map(&self, lot: &u32, presence: &bool, out: &mut MapCollector<u32, u64>) {
        let token = burn(self.work, u64::from(*lot));
        if !presence {
            out.emit_map(*lot, token);
        }
    }

    fn reduce(&self, lot: &u32, values: &[u64], out: &mut ReduceCollector<u32, i64>) {
        // Fold the tokens so the work cannot be elided, but report counts.
        let _fold = values.iter().fold(0u64, |a, b| a ^ b);
        out.emit_reduce(*lot, values.len() as i64);
    }
}

/// One row of the processing experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ProcessingRow {
    /// Input readings.
    pub readings: usize,
    /// Worker threads (0 = the serial baseline).
    pub workers: usize,
    /// Synthetic work units per record.
    pub work: u32,
    /// Median wall-clock milliseconds of the execution.
    pub wall_ms: f64,
    /// Median over the [`ROUNDS`] pairs of serial ÷ parallel wall time at
    /// the same `(readings, work)`; 1.0 for the baseline itself.
    pub speedup: f64,
    /// Lowest speedup of a pair.
    pub speedup_min: f64,
    /// Highest speedup of a pair.
    pub speedup_max: f64,
    /// Distinct groups after the shuffle.
    pub groups: u64,
}

/// Executes one configuration over a copy of `data`, returning its
/// wall-clock milliseconds and raw stats.
fn run_once(data: &[(u32, bool)], workers: usize, work: u32) -> (f64, ExecutionStats) {
    let mr = CostedAvailability { work };
    let input = data.to_vec();
    let start = Instant::now();
    let result = if workers == 0 {
        Job::serial().run(&mr, input)
    } else {
        Job::parallel(workers).run(&mr, input)
    };
    let wall = start.elapsed().as_secs_f64() * 1e3;
    (wall, result.stats)
}

/// Sorts `values` ascending and returns the middle one.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The E10 sweep: for each worker count, [`ROUNDS`] alternating
/// serial/parallel invocations; the baseline row is the median of every
/// serial invocation made.
#[must_use]
pub fn sweep(readings: usize, worker_counts: &[usize], work: u32) -> Vec<ProcessingRow> {
    let data = presence_dataset(readings, 64, 42);
    let mut serial_walls = Vec::new();
    let mut groups = 0;
    let mut rows = Vec::new();
    for &workers in worker_counts {
        let mut walls = Vec::with_capacity(ROUNDS);
        let mut speedups = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let (serial, _) = run_once(&data, 0, work);
            let (parallel, stats) = run_once(&data, workers, work);
            serial_walls.push(serial);
            walls.push(parallel);
            speedups.push(serial / parallel.max(1e-9));
            groups = stats.groups;
        }
        let speedup = median(&mut speedups);
        rows.push(ProcessingRow {
            readings,
            workers,
            work,
            wall_ms: median(&mut walls),
            speedup,
            speedup_min: speedups[0],
            speedup_max: speedups[ROUNDS - 1],
            groups,
        });
    }
    rows.insert(
        0,
        ProcessingRow {
            readings,
            workers: 0,
            work,
            wall_ms: median(&mut serial_walls),
            speedup: 1.0,
            speedup_min: 1.0,
            speedup_max: 1.0,
            groups,
        },
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_deterministic_and_covers_lots() {
        let a = presence_dataset(10_000, 16, 1);
        let b = presence_dataset(10_000, 16, 1);
        assert_eq!(a, b);
        let lots: std::collections::BTreeSet<u32> = a.iter().map(|(l, _)| *l).collect();
        assert_eq!(lots.len(), 16);
        assert_ne!(a, presence_dataset(10_000, 16, 2));
    }

    #[test]
    fn burn_depends_on_units() {
        assert_eq!(burn(100, 7), burn(100, 7));
        assert_ne!(burn(100, 7), burn(101, 7));
        assert_eq!(burn(0, 7), 7);
    }

    #[test]
    fn serial_and_parallel_agree_on_output_counts() {
        let data = presence_dataset(20_000, 64, 42);
        let (_, serial) = run_once(&data, 0, 8);
        let (_, parallel) = run_once(&data, 4, 8);
        assert_eq!(serial.groups, parallel.groups);
        assert_eq!(serial.reduce_output_records, parallel.reduce_output_records);
        assert_eq!(serial.map_output_records, parallel.map_output_records);
    }

    #[test]
    fn parallel_speeds_up_costly_processing() {
        if std::thread::available_parallelism().map_or(1, usize::from) < 4 {
            return; // the 1.5x bar needs more cores than a 2-vCPU runner has
        }
        let rows = sweep(60_000, &[4], 200);
        let parallel = rows.iter().find(|r| r.workers == 4).unwrap();
        assert!(
            parallel.speedup > 1.5,
            "4 workers on costly records must beat serial: {rows:?}"
        );
    }
}
