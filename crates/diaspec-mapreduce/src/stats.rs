//! Per-execution statistics and coverage accounting.

use std::time::Duration;

/// Record counts and phase timings of one MapReduce execution.
///
/// Timings use the monotonic wall clock of the executing machine; record
/// counts are exact and deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Input records fed to the Map phase.
    pub map_input_records: u64,
    /// Intermediate records emitted by the Map phase (after combining,
    /// when a combiner is configured).
    pub map_output_records: u64,
    /// Distinct intermediate keys after the shuffle.
    pub groups: u64,
    /// Final records emitted by the Reduce phase.
    pub reduce_output_records: u64,
    /// Workers used: the larger of the two phases' worker counts, each
    /// capped at the phase's task count so small jobs never pay for idle
    /// threads. 1 is the calling thread itself (the serial executor, or a
    /// one-task job); more are scoped threads.
    pub workers: usize,
    /// Wall-clock time of the Map phase (including combining).
    pub map_time: Duration,
    /// Wall-clock time of the shuffle (grouping by intermediate key).
    pub shuffle_time: Duration,
    /// Wall-clock time of the Reduce phase.
    pub reduce_time: Duration,
    /// Wall-clock time burnt on attempts whose result was discarded:
    /// failed attempts that were retried or abandoned. Zero on a
    /// fault-free run.
    pub recovery_time: Duration,
    /// Task-level fault-tolerance accounting for this execution.
    pub coverage: CoverageReport,
}

impl ExecutionStats {
    /// Total wall-clock time across all phases.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.map_time + self.shuffle_time + self.reduce_time
    }
}

/// Coverage accounting for one execution: how many tasks ran, were
/// retried, or permanently failed, and what fraction of the input the
/// surviving tasks covered.
///
/// A fault-free run reports every `*_failed`/`*_lost` field as zero and
/// [`CoverageReport::fraction_covered`] as exactly `1.0`. Every field is
/// a function of the seed and the task layout alone: the same for any
/// worker count, and from run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageReport {
    /// Map tasks in the job (contiguous input chunks).
    pub map_tasks: u32,
    /// Reduce tasks in the job (contiguous key-range partitions).
    pub reduce_tasks: u32,
    /// Failed attempts that were retried within the retry budget.
    pub task_retries: u32,
    /// Attempts into which the fault plan injected a fault.
    pub injected_faults: u32,
    /// Map tasks that exhausted their retry budget.
    pub map_tasks_failed: u32,
    /// Reduce tasks that exhausted their retry budget.
    pub reduce_tasks_failed: u32,
    /// Input records assigned to map tasks (all of them).
    pub map_records_total: u64,
    /// Input records assigned to permanently failed map tasks.
    pub map_records_lost: u64,
    /// Grouped intermediate values entering the Reduce phase (counted
    /// before combining, so combiners do not distort coverage).
    pub group_values_total: u64,
    /// Grouped intermediate values assigned to permanently failed reduce
    /// tasks (counted before combining).
    pub group_values_lost: u64,
}

impl CoverageReport {
    /// Whether every task ultimately succeeded.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.map_tasks_failed == 0 && self.reduce_tasks_failed == 0
    }

    /// Tasks that exhausted their retry budget, across both phases.
    #[must_use]
    pub fn tasks_failed(&self) -> u32 {
        self.map_tasks_failed + self.reduce_tasks_failed
    }

    /// `(surviving, total)` per phase — input records for Map, grouped
    /// values for Reduce — with `lost` clamped to `total` and an empty
    /// phase counting as fully covered, `(1, 1)`.
    fn surviving(&self) -> [(u64, u64); 2] {
        [
            (self.map_records_total, self.map_records_lost),
            (self.group_values_total, self.group_values_lost),
        ]
        .map(|(total, lost)| match total {
            0 => (1, 1),
            _ => (total - total.min(lost), total),
        })
    }

    /// Fraction of the input the final output covers, in `[0, 1]`.
    ///
    /// The product of the surviving map fraction (input records whose map
    /// task succeeded) and the surviving reduce fraction (grouped values
    /// whose reduce task succeeded); an empty phase counts as fully
    /// covered. `1.0` exactly when [`CoverageReport::is_complete`].
    #[must_use]
    pub fn fraction_covered(&self) -> f64 {
        let [map, reduce] = self
            .surviving()
            .map(|(kept, total)| kept as f64 / total as f64);
        map * reduce
    }

    /// [`CoverageReport::fraction_covered`] as a whole percentage,
    /// rounded down so a lossy run never rounds up to 100. Computed in
    /// integers, so a run that covers exactly 58 % reports 58 (the
    /// floating-point product `0.58 * 100.0` is `57.99…`).
    #[must_use]
    pub fn percent_covered(&self) -> u32 {
        let [(map_kept, map_total), (reduce_kept, reduce_total)] = self
            .surviving()
            .map(|(kept, total)| (u128::from(kept), u128::from(total)));
        // The counts are records held in memory, far below 2^60 each, so
        // the numerator fits u128; the quotient is at most 100.
        (100 * map_kept * reduce_kept / (map_total * reduce_total)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_time_sums_phases() {
        let stats = ExecutionStats {
            map_time: Duration::from_millis(5),
            shuffle_time: Duration::from_millis(3),
            reduce_time: Duration::from_millis(2),
            ..ExecutionStats::default()
        };
        assert_eq!(stats.total_time(), Duration::from_millis(10));
    }

    #[test]
    fn default_coverage_is_complete() {
        let coverage = CoverageReport::default();
        assert!(coverage.is_complete());
        assert_eq!(coverage.fraction_covered(), 1.0);
        assert_eq!(coverage.percent_covered(), 100);
    }

    #[test]
    fn coverage_fraction_multiplies_phase_survival() {
        let coverage = CoverageReport {
            map_tasks: 4,
            reduce_tasks: 2,
            map_tasks_failed: 1,
            reduce_tasks_failed: 1,
            map_records_total: 100,
            map_records_lost: 25,
            group_values_total: 60,
            group_values_lost: 30,
            ..CoverageReport::default()
        };
        assert!(!coverage.is_complete());
        assert_eq!(coverage.tasks_failed(), 2);
        let expected = 0.75 * 0.5;
        assert!((coverage.fraction_covered() - expected).abs() < 1e-12);
        assert_eq!(coverage.percent_covered(), 37);
    }

    #[test]
    fn percent_is_the_exact_integer_floor() {
        let single = |total: u64, lost: u64| CoverageReport {
            map_records_total: total,
            map_records_lost: lost,
            ..CoverageReport::default()
        };
        // `0.58 * 100.0`, `0.57 * 100.0` and `0.29 * 100.0` all land just
        // under the whole number in f64.
        assert_eq!(single(100, 42).percent_covered(), 58);
        assert_eq!(single(100, 43).percent_covered(), 57);
        assert_eq!(single(100, 71).percent_covered(), 29);
        for total in 1..=200u64 {
            for lost in 0..=total {
                assert_eq!(
                    u64::from(single(total, lost).percent_covered()),
                    (total - lost) * 100 / total,
                    "{lost} of {total} lost"
                );
            }
        }
        // Two phases multiply before the floor: 58/100 * 2/3 = 38.66 %.
        let both = CoverageReport {
            group_values_total: 3,
            group_values_lost: 1,
            ..single(100, 42)
        };
        assert_eq!(both.percent_covered(), 38);
        // `lost` beyond `total` clamps to nothing covered.
        assert_eq!(single(10, 11).percent_covered(), 0);
    }

    #[test]
    fn percent_rounds_down() {
        let coverage = CoverageReport {
            map_records_total: 3,
            map_records_lost: 1,
            ..CoverageReport::default()
        };
        // 2/3 = 66.66 % floors to 66, never 67.
        assert_eq!(coverage.percent_covered(), 66);
    }
}
