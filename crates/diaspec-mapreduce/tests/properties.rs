//! Property-based tests: the parallel executor is observationally
//! identical to the serial baseline for arbitrary datasets, worker
//! counts, and (for associative folds) with combiners.

use diaspec_mapreduce::{FnCombiner, Job, MapCollector, MapReduce, ReduceCollector};
use proptest::prelude::*;

/// Sums values per key.
struct Sum;

impl MapReduce<u16, i64, u16, i64, u16, i64> for Sum {
    fn map(&self, key: &u16, value: &i64, out: &mut MapCollector<u16, i64>) {
        out.emit_map(*key, *value);
    }

    fn reduce(&self, key: &u16, values: &[i64], out: &mut ReduceCollector<u16, i64>) {
        out.emit_reduce(*key, values.iter().sum());
    }
}

/// Concatenates stringified values per key — order-sensitive, so it
/// detects any reordering introduced by parallel execution.
struct Concat;

impl MapReduce<u16, i64, u16, String, u16, String> for Concat {
    fn map(&self, key: &u16, value: &i64, out: &mut MapCollector<u16, String>) {
        out.emit_map(*key, value.to_string());
    }

    fn reduce(&self, key: &u16, values: &[String], out: &mut ReduceCollector<u16, String>) {
        out.emit_reduce(*key, values.join(","));
    }
}

/// A filtering, fan-out map: emits 0..3 records per input.
struct FanOut;

impl MapReduce<u16, i64, u16, i64, u16, i64> for FanOut {
    fn map(&self, key: &u16, value: &i64, out: &mut MapCollector<u16, i64>) {
        for offset in 0..(value.unsigned_abs() % 3) {
            out.emit_map(key.wrapping_add(offset as u16), *value);
        }
    }

    fn reduce(&self, key: &u16, values: &[i64], out: &mut ReduceCollector<u16, i64>) {
        out.emit_reduce(*key, values.len() as i64);
    }
}

fn dataset() -> impl Strategy<Value = Vec<(u16, i64)>> {
    proptest::collection::vec((0u16..32, -1000i64..1000), 0..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn parallel_equals_serial_for_sums(data in dataset(), workers in 1usize..9) {
        let serial = Job::serial().run(&Sum, data.clone());
        let parallel = Job::parallel(workers).run(&Sum, data);
        prop_assert_eq!(serial.output, parallel.output);
        prop_assert_eq!(serial.stats.groups, parallel.stats.groups);
        prop_assert_eq!(
            serial.stats.map_output_records,
            parallel.stats.map_output_records
        );
    }

    #[test]
    fn parallel_preserves_per_key_order(data in dataset(), workers in 1usize..9) {
        let serial = Job::serial().run(&Concat, data.clone());
        let parallel = Job::parallel(workers).run(&Concat, data);
        prop_assert_eq!(serial.output, parallel.output);
    }

    #[test]
    fn parallel_equals_serial_with_fan_out(data in dataset(), workers in 1usize..9) {
        let serial = Job::serial().run(&FanOut, data.clone());
        let parallel = Job::parallel(workers).run(&FanOut, data);
        prop_assert_eq!(serial.output, parallel.output);
    }

    #[test]
    fn sum_combiner_is_semantics_preserving(data in dataset(), workers in 1usize..9) {
        let plain = Job::serial().run(&Sum, data.clone());
        let combined = Job::parallel(workers)
            .combiner(FnCombiner(|_k: &u16, vs: Vec<i64>| {
                vec![vs.iter().sum::<i64>()]
            }))
            .run(&Sum, data);
        prop_assert_eq!(plain.output, combined.output);
    }

    #[test]
    fn output_totals_are_conserved(data in dataset()) {
        let result = Job::serial().run(&Sum, data.clone());
        let expected: i64 = data.iter().map(|(_, v)| *v).sum();
        let got: i64 = result.output.iter().map(|(_, v)| *v).sum();
        prop_assert_eq!(expected, got, "group sums conserve the grand total");
        prop_assert_eq!(
            result.stats.map_input_records as usize,
            data.len()
        );
    }
}

// ---------------------------------------------------------------------
// Fault-tolerance properties: injected task faults that stay within the
// retry budget are invisible in the output, and seeded fault plans are
// fully deterministic.
// ---------------------------------------------------------------------

use diaspec_mapreduce::{TaskFault, TaskFaultPlan, TaskPhase};

fn targeted_faults() -> impl Strategy<Value = Vec<(TaskPhase, usize, TaskFault, u32)>> {
    let phase = prop_oneof![Just(TaskPhase::Map), Just(TaskPhase::Reduce)];
    let fault = prop_oneof![Just(TaskFault::Panic), Just(TaskFault::WorkerLost)];
    // Attempts <= 2 with a retry budget of 2: every task ultimately
    // succeeds.
    proptest::collection::vec((phase, 0usize..16, fault, 1u32..3), 0..6)
}

fn plan_from(seed: u64, faults: &[(TaskPhase, usize, TaskFault, u32)]) -> TaskFaultPlan {
    let mut plan = TaskFaultPlan::seeded(seed);
    for (phase, task, fault, attempts) in faults {
        plan = match fault {
            TaskFault::Panic => plan.panic_task(*phase, *task, *attempts),
            TaskFault::WorkerLost => plan.lose_task(*phase, *task, *attempts),
            TaskFault::Delay { ms } => plan.delay_task(*phase, *task, *ms, *attempts),
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fault_injected_parallel_is_byte_identical_when_all_tasks_heal(
        data in dataset(),
        workers in 2usize..9,
        seed in 0u64..1000,
        faults in targeted_faults(),
    ) {
        let serial = Job::serial().run(&Concat, data.clone());
        let injected = Job::parallel(workers)
            .fault_plan(plan_from(seed, &faults))
            .expect("probabilities in range")
            .task_retries(2)
            .run(&Concat, data);
        // Every fault window (<= 2 attempts) fits in the retry budget, so
        // the job heals completely and the order-sensitive output is
        // byte-identical to the fault-free serial baseline.
        prop_assert_eq!(serial.output, injected.output);
        prop_assert!(injected.failed_tasks.is_empty());
        prop_assert!(injected.stats.coverage.is_complete());
        prop_assert_eq!(injected.stats.coverage.fraction_covered(), 1.0);
    }

    /// Everything a faulty run reports that is not a clock is a function
    /// of the seed and the task layout: the same on one inline worker as
    /// on any number of threads, and from run to run.
    #[test]
    fn probabilistic_fault_runs_are_deterministic_per_seed(
        data in dataset(),
        workers in 2usize..9,
        retries in 0u32..4,
        seed in 0u64..1000,
    ) {
        let run = |job: Job| job
            .tasks(8)
            .fault_plan(TaskFaultPlan::seeded(seed).panic_tasks(0.3).lose_workers(0.2))
            .expect("probabilities in range")
            .task_retries(retries)
            .allow_partial(true)
            .run(&Sum, data.clone());
        let serial = run(Job::serial());
        for parallel in [run(Job::parallel(workers)), run(Job::parallel(workers))] {
            prop_assert_eq!(&serial.output, &parallel.output);
            prop_assert_eq!(&serial.failed_tasks, &parallel.failed_tasks);
            prop_assert_eq!(serial.stats.coverage, parallel.stats.coverage);
        }
    }

    #[test]
    fn degraded_coverage_never_exceeds_complete(
        data in dataset(),
        seed in 0u64..1000,
    ) {
        let result = Job::parallel(4)
            .fault_plan(TaskFaultPlan::seeded(seed).panic_tasks(0.5))
            .expect("probabilities in range")
            .allow_partial(true)
            .run(&Sum, data);
        let coverage = result.stats.coverage;
        let fraction = coverage.fraction_covered();
        prop_assert!((0.0..=1.0).contains(&fraction));
        prop_assert_eq!(coverage.is_complete(), fraction == 1.0);
        prop_assert_eq!(
            coverage.tasks_failed() as usize,
            result.failed_tasks.len()
        );
    }
}
