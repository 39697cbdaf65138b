//! E17 — fault-tolerant processing: coverage and wall-clock vs injected
//! task-failure rate (paper §VI: coping with errors at large scale).
//!
//! One periodic batch of presence readings is processed through the
//! MapReduce substrate while a seeded [`TaskFaultPlan`] panics a fraction
//! of the task attempts. With a bounded retry budget the executor heals
//! most failures; the table reports what the healing costs (retries,
//! wall-clock) and what coverage survives when it runs out.

use crate::processing::{presence_dataset, CostedAvailability};
use diaspec_mapreduce::{Job, TaskFaultPlan};
use serde::Serialize;
use std::time::Instant;

/// Task granularity of every configuration: failures cost 1/16th of a
/// phase, independent of the worker count.
const TASKS: usize = 16;

/// Retry budget per task.
const RETRIES: u32 = 2;

/// Synthetic per-record work units (de-noising before counting).
const WORK: u32 = 50;

/// One row of the task-fault experiment.
#[derive(Debug, Clone, Serialize)]
pub struct TaskFaultRow {
    /// Simulated sensors (one reading each).
    pub sensors: usize,
    /// Worker threads (0 = serial).
    pub workers: usize,
    /// Per-attempt panic probability injected into each task.
    pub failure_rate: f64,
    /// Wall-clock milliseconds of the execution.
    pub wall_ms: f64,
    /// Whole-percent input coverage of the result (floored).
    pub coverage_pct: u32,
    /// Failed attempts that were re-executed.
    pub task_retries: u32,
    /// Tasks that exhausted the retry budget.
    pub tasks_failed: u32,
    /// Faults the plan injected.
    pub injected_faults: u32,
}

/// Executes one configuration.
fn run_once(sensors: usize, workers: usize, failure_rate: f64, seed: u64) -> TaskFaultRow {
    let data = presence_dataset(sensors, 64, 42);
    let mr = CostedAvailability { work: WORK };
    let mut job = if workers == 0 {
        Job::serial()
    } else {
        Job::parallel(workers)
    }
    .tasks(TASKS)
    .task_retries(RETRIES)
    .allow_partial(true);
    if failure_rate > 0.0 {
        job = job
            .fault_plan(TaskFaultPlan::seeded(seed).panic_tasks(failure_rate))
            .expect("sweep rates are probabilities");
    }
    let start = Instant::now();
    let result = job.try_run(&mr, data).expect("partial results allowed");
    let wall = start.elapsed().as_secs_f64() * 1e3;
    let coverage = result.stats.coverage;
    TaskFaultRow {
        sensors,
        workers,
        failure_rate,
        wall_ms: wall,
        coverage_pct: coverage.percent_covered(),
        task_retries: coverage.task_retries,
        tasks_failed: coverage.tasks_failed(),
        injected_faults: coverage.injected_faults,
    }
}

/// The E17 sweep: each scale × failure rate, serial and parallel.
#[must_use]
pub fn sweep(scales: &[usize], rates: &[f64], parallel_workers: usize) -> Vec<TaskFaultRow> {
    let mut rows = Vec::new();
    for &sensors in scales {
        for &rate in rates {
            rows.push(run_once(sensors, 0, rate, 7));
            rows.push(run_once(sensors, parallel_workers, rate, 7));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaspec_mapreduce::TaskPhase;

    /// Whether the seeded plan panics this map task's first attempt.
    fn planned_fate(seed: u64, rate: f64, task: usize) -> bool {
        TaskFaultPlan::seeded(seed)
            .panic_tasks(rate)
            .fate(TaskPhase::Map, task, 1)
            .is_some()
    }

    #[test]
    fn fault_free_row_is_complete_and_free() {
        let row = run_once(2_000, 4, 0.0, 7);
        assert_eq!(row.coverage_pct, 100);
        assert_eq!(row.task_retries, 0);
        assert_eq!(row.injected_faults, 0);
        assert_eq!(row.tasks_failed, 0);
    }

    #[test]
    fn injected_rate_is_deterministic_and_visible() {
        let a = run_once(2_000, 4, 0.3, 7);
        let b = run_once(2_000, 4, 0.3, 7);
        assert_eq!(a.injected_faults, b.injected_faults);
        assert_eq!(a.coverage_pct, b.coverage_pct);
        assert_eq!(a.task_retries, b.task_retries);
        assert!(a.injected_faults > 0, "{a:?}");
    }

    #[test]
    fn serial_and_parallel_see_the_same_faults() {
        let serial = run_once(2_000, 0, 0.3, 7);
        let parallel = run_once(2_000, 8, 0.3, 7);
        // Same task granularity, same seed: identical fate sequence.
        assert_eq!(serial.injected_faults, parallel.injected_faults);
        assert_eq!(serial.coverage_pct, parallel.coverage_pct);
        assert_eq!(serial.tasks_failed, parallel.tasks_failed);
    }

    #[test]
    fn fate_helper_matches_plan() {
        let hits = (0..TASKS).filter(|&t| planned_fate(7, 0.3, t)).count();
        assert!(hits > 0, "rate 0.3 over 16 tasks must hit at least once");
        assert_eq!(
            hits,
            (0..TASKS).filter(|&t| planned_fate(7, 0.3, t)).count()
        );
    }
}
