//! The MapReduce executor: one task loop, run by one worker or many,
//! with task-level fault tolerance.
//!
//! A phase is a list of tasks (input chunks for Map, key-range partitions
//! for Reduce). Workers claim task indices from a shared counter and run
//! each task to its conclusion; one worker — the serial executor, the
//! measurement baseline — runs that loop inline on the calling thread,
//! more workers are scoped threads running the same loop. Results are
//! assembled by task index, never by arrival order, so every worker count
//! produces byte-identical output (final records sorted by intermediate
//! key, with per-key emission order preserved) and experiments compare
//! *time*, never correctness.
//!
//! Fault tolerance follows the original MapReduce design (Dean &
//! Ghemawat, OSDI'04):
//!
//! - every task attempt runs under `catch_unwind`, so a panicking user
//!   function becomes a structured [`TaskError`] instead of tearing down
//!   the process;
//! - failed attempts are retried up to [`Job::task_retries`] times;
//! - with [`Job::allow_partial`], tasks that exhaust their budget are
//!   *dropped* rather than fatal: the job completes degraded and the
//!   [`CoverageReport`] in its stats accounts for exactly what was lost.

use crate::collector::{MapCollector, ReduceCollector};
use crate::fault::{JobError, TaskError, TaskFailure, TaskFault, TaskFaultPlan, TaskPhase};
use crate::stats::{CoverageReport, ExecutionStats};
use crate::{Combiner, MapReduce};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;
use std::time::{Duration, Instant};

/// A pass-through combiner used when none is configured.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCombiner;

impl<K2, V2> Combiner<K2, V2> for NoCombiner {
    fn combine(&self, _key: &K2, values: Vec<V2>) -> Vec<V2> {
        values
    }
}

/// Result of a MapReduce execution: final records in deterministic order
/// (ascending intermediate key, per-key emission order) plus statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapReduceResult<K3, V3> {
    /// The final records. In a degraded run ([`Job::allow_partial`]),
    /// records belonging to permanently failed tasks are absent.
    pub output: Vec<(K3, V3)>,
    /// Execution statistics, including the [`CoverageReport`].
    pub stats: ExecutionStats,
    /// Tasks that exhausted their retry budget (empty unless the job ran
    /// with [`Job::allow_partial`]).
    pub failed_tasks: Vec<TaskError>,
}

/// Result shaped as a map, for the common one-record-per-key case — the
/// form the generated `onPeriodicPresence(Map<...>)` callback of Figure 10
/// receives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappedResult<K3, V3> {
    /// Final records keyed by `K3`. Later emissions for the same key win.
    pub output: BTreeMap<K3, V3>,
    /// Execution statistics, including the [`CoverageReport`].
    pub stats: ExecutionStats,
    /// Tasks that exhausted their retry budget (empty unless the job ran
    /// with [`Job::allow_partial`]).
    pub failed_tasks: Vec<TaskError>,
}

/// A configured MapReduce execution: worker count, optional combiner, and
/// fault-tolerance knobs.
///
/// Construct with [`Job::serial`] or [`Job::parallel`], optionally add a
/// [`Combiner`] with [`Job::combiner`] and fault tolerance with
/// [`Job::task_retries`] / [`Job::fault_plan`] / [`Job::allow_partial`],
/// then call [`Job::run`] ([`Job::try_run`] for structured errors) or
/// [`Job::run_to_map`] ([`Job::try_run_to_map`]).
#[derive(Debug, Clone)]
pub struct Job<C = NoCombiner> {
    workers: usize,
    combiner: C,
    faults: Option<TaskFaultPlan>,
    max_retries: u32,
    allow_partial: bool,
    tasks: Option<usize>,
}

impl Job<NoCombiner> {
    /// A single-threaded job (the experiment baseline): one worker, which
    /// runs on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Job::parallel(1)
    }

    /// A job over `workers` workers (clamped to at least 1, and capped per
    /// phase at the phase's task count). More than one worker means that
    /// many scoped threads.
    #[must_use]
    pub fn parallel(workers: usize) -> Self {
        Job {
            workers: workers.max(1),
            combiner: NoCombiner,
            faults: None,
            max_retries: 0,
            allow_partial: false,
            tasks: None,
        }
    }
}

impl<C> Job<C> {
    /// Replaces the combiner, keeping every other setting.
    #[must_use]
    pub fn combiner<C2>(self, combiner: C2) -> Job<C2> {
        Job {
            workers: self.workers,
            combiner,
            faults: self.faults,
            max_retries: self.max_retries,
            allow_partial: self.allow_partial,
            tasks: self.tasks,
        }
    }

    /// Injects the given seeded [`TaskFaultPlan`] into task attempts.
    ///
    /// # Errors
    ///
    /// The message of [`TaskFaultPlan::validate`] if the plan holds a
    /// probability outside `[0, 1]`.
    pub fn fault_plan(mut self, plan: TaskFaultPlan) -> Result<Self, String> {
        plan.validate()?;
        self.faults = Some(plan);
        Ok(self)
    }

    /// Retries each failed task up to `retries` times (default 0).
    #[must_use]
    pub fn task_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Lets the job complete in degraded mode when tasks exhaust their
    /// retry budget, instead of failing outright: lost tasks are dropped
    /// from the output and accounted in the [`CoverageReport`].
    #[must_use]
    pub fn allow_partial(mut self, allow: bool) -> Self {
        self.allow_partial = allow;
        self
    }

    /// Overrides the number of tasks per phase (input chunks for Map,
    /// key-range partitions for Reduce). Defaults to the worker count —
    /// override it to decouple fault granularity from parallelism, e.g.
    /// to give the serial executor task-level fault isolation.
    #[must_use]
    pub fn tasks(mut self, tasks: usize) -> Self {
        self.tasks = Some(tasks.max(1));
        self
    }

    /// Runs the job, returning final records in deterministic order.
    ///
    /// Output order is: ascending intermediate key (`K2`), then the order
    /// in which the Reduce invocation emitted — identical for the serial
    /// and parallel executors.
    ///
    /// # Panics
    ///
    /// Panics with the [`JobError`] message if a task exhausts its retry
    /// budget and [`Job::allow_partial`] is off; use [`Job::try_run`] to
    /// handle that structurally.
    pub fn run<K1, V1, K2, V2, K3, V3, MR, I>(&self, mr: &MR, input: I) -> MapReduceResult<K3, V3>
    where
        MR: MapReduce<K1, V1, K2, V2, K3, V3>,
        I: IntoIterator<Item = (K1, V1)>,
        K1: Send + Sync,
        V1: Send + Sync,
        K2: Ord + Send + Sync,
        V2: Send + Sync,
        K3: Send,
        V3: Send,
        C: Combiner<K2, V2>,
    {
        self.try_run(mr, input)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Runs the job, collapsing the output into a `BTreeMap` (later
    /// emissions for the same final key overwrite earlier ones).
    ///
    /// # Panics
    ///
    /// As [`Job::run`]; use [`Job::try_run_to_map`] to handle task
    /// failure structurally.
    pub fn run_to_map<K1, V1, K2, V2, K3, V3, MR, I>(
        &self,
        mr: &MR,
        input: I,
    ) -> MappedResult<K3, V3>
    where
        MR: MapReduce<K1, V1, K2, V2, K3, V3>,
        I: IntoIterator<Item = (K1, V1)>,
        K1: Send + Sync,
        V1: Send + Sync,
        K2: Ord + Send + Sync,
        V2: Send + Sync,
        K3: Ord + Send,
        V3: Send,
        C: Combiner<K2, V2>,
    {
        self.try_run_to_map(mr, input)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// As [`Job::run_to_map`], but task failure beyond the retry budget
    /// surfaces as a [`JobError`] instead of a panic.
    pub fn try_run_to_map<K1, V1, K2, V2, K3, V3, MR, I>(
        &self,
        mr: &MR,
        input: I,
    ) -> Result<MappedResult<K3, V3>, JobError>
    where
        MR: MapReduce<K1, V1, K2, V2, K3, V3>,
        I: IntoIterator<Item = (K1, V1)>,
        K1: Send + Sync,
        V1: Send + Sync,
        K2: Ord + Send + Sync,
        V2: Send + Sync,
        K3: Ord + Send,
        V3: Send,
        C: Combiner<K2, V2>,
    {
        let result = self.try_run(mr, input)?;
        Ok(MappedResult {
            output: result.output.into_iter().collect(),
            stats: result.stats,
            failed_tasks: result.failed_tasks,
        })
    }

    /// As [`Job::run`], but task failure beyond the retry budget surfaces
    /// as a [`JobError`] instead of a panic. With [`Job::allow_partial`],
    /// the job never errs: it completes degraded and reports the damage
    /// in `failed_tasks` and the [`CoverageReport`].
    pub fn try_run<K1, V1, K2, V2, K3, V3, MR, I>(
        &self,
        mr: &MR,
        input: I,
    ) -> Result<MapReduceResult<K3, V3>, JobError>
    where
        MR: MapReduce<K1, V1, K2, V2, K3, V3>,
        I: IntoIterator<Item = (K1, V1)>,
        K1: Send + Sync,
        V1: Send + Sync,
        K2: Ord + Send + Sync,
        V2: Send + Sync,
        K3: Send,
        V3: Send,
        C: Combiner<K2, V2>,
    {
        let input: Vec<(K1, V1)> = input.into_iter().collect();
        let n_tasks = self.tasks.unwrap_or(self.workers);
        let faults = self.faults.as_ref().filter(|plan| !plan.is_empty());

        let mut stats = ExecutionStats {
            map_input_records: input.len() as u64,
            ..ExecutionStats::default()
        };
        let mut coverage = CoverageReport {
            map_records_total: input.len() as u64,
            ..CoverageReport::default()
        };
        let mut failed_tasks: Vec<TaskError> = Vec::new();
        let combiner = &self.combiner;

        // Map phase: each task maps a contiguous chunk and pre-groups
        // locally (running the combiner on its partial groups, tracking
        // the pre-combine value count per key for coverage accounting).
        let map_start = Instant::now();
        let chunk_size = input.len().div_ceil(n_tasks).max(1);
        let chunks: Vec<&[(K1, V1)]> = input.chunks(chunk_size).collect();
        coverage.map_tasks = chunks.len() as u32;
        let map_work = |task: usize| -> BTreeMap<K2, (Vec<V2>, u64)> {
            let mut collector = MapCollector::new();
            for (k, v) in chunks[task] {
                mr.map(k, v, &mut collector);
            }
            let mut local: BTreeMap<K2, Vec<V2>> = BTreeMap::new();
            for (k, v) in collector.into_items() {
                local.entry(k).or_default().push(v);
            }
            local
                .into_iter()
                .map(|(k, vs)| {
                    let raw = vs.len() as u64;
                    let combined = combiner.combine(&k, vs);
                    (k, (combined, raw))
                })
                .collect()
        };
        let (map_out, map_workers) = run_phase(
            chunks.len(),
            self.workers,
            TaskPhase::Map,
            faults,
            self.max_retries,
            &map_work,
        );
        stats.map_time = map_start.elapsed();
        let mut partials: Vec<BTreeMap<K2, (Vec<V2>, u64)>> = Vec::with_capacity(chunks.len());
        for (task, out) in map_out {
            match absorb_task(&mut coverage, &mut stats, out) {
                Ok(partial) => partials.push(partial),
                Err(err) => {
                    coverage.map_tasks_failed += 1;
                    coverage.map_records_lost += chunks[task].len() as u64;
                    failed_tasks.push(err);
                }
            }
        }
        if !self.allow_partial && !failed_tasks.is_empty() {
            return Err(JobError {
                failed: failed_tasks,
            });
        }

        // Shuffle: merge the per-task partial groups. Tasks are merged in
        // chunk order, so per-key value order equals the serial
        // executor's input order.
        let shuffle_start = Instant::now();
        let mut groups: BTreeMap<K2, (Vec<V2>, u64)> = BTreeMap::new();
        for partial in partials {
            for (k, (vs, raw)) in partial {
                let entry = groups.entry(k).or_insert_with(|| (Vec::new(), 0));
                entry.0.extend(vs);
                entry.1 += raw;
            }
        }
        stats.map_output_records = groups.values().map(|(vs, _)| vs.len() as u64).sum();
        stats.groups = groups.len() as u64;
        coverage.group_values_total = groups.values().map(|(_, raw)| *raw).sum();
        stats.shuffle_time = shuffle_start.elapsed();

        // Reduce phase: partition the key space contiguously, reduce each
        // partition as one task, concatenate in partition order.
        let reduce_start = Instant::now();
        let entries: Vec<(&K2, &Vec<V2>, u64)> =
            groups.iter().map(|(k, (vs, raw))| (k, vs, *raw)).collect();
        let chunk_size = entries.len().div_ceil(n_tasks).max(1);
        let partitions: Vec<&[(&K2, &Vec<V2>, u64)]> = entries.chunks(chunk_size).collect();
        coverage.reduce_tasks = partitions.len() as u32;
        let reduce_work = |task: usize| -> Vec<(K3, V3)> {
            let mut out = ReduceCollector::new();
            for (k, vs, _) in partitions[task] {
                mr.reduce(k, vs, &mut out);
            }
            out.into_items()
        };
        let (reduce_out, reduce_workers) = run_phase(
            partitions.len(),
            self.workers,
            TaskPhase::Reduce,
            faults,
            self.max_retries,
            &reduce_work,
        );
        let mut output: Vec<(K3, V3)> = Vec::new();
        for (task, out) in reduce_out {
            match absorb_task(&mut coverage, &mut stats, out) {
                Ok(records) => output.extend(records),
                Err(err) => {
                    coverage.reduce_tasks_failed += 1;
                    coverage.group_values_lost +=
                        partitions[task].iter().map(|(_, _, raw)| raw).sum::<u64>();
                    failed_tasks.push(err);
                }
            }
        }
        stats.reduce_output_records = output.len() as u64;
        stats.reduce_time = reduce_start.elapsed();
        stats.workers = map_workers.max(reduce_workers).max(1);
        stats.coverage = coverage;

        if !self.allow_partial && coverage.reduce_tasks_failed > 0 {
            return Err(JobError {
                failed: failed_tasks,
            });
        }
        Ok(MapReduceResult {
            output,
            stats,
            failed_tasks,
        })
    }
}

/// What running one task to its conclusion produced.
struct TaskOutcome<T> {
    /// The first successful attempt's value, or the error of the attempt
    /// that spent the budget.
    result: Result<T, TaskError>,
    /// Failed attempts that were followed by another attempt.
    retries: u32,
    /// Attempts the fault plan injected into.
    injected: u32,
    /// Wall time of the failed attempts.
    recovery: Duration,
}

/// Folds one task's fault-tolerance counters into the job totals and
/// hands back its result.
fn absorb_task<T>(
    coverage: &mut CoverageReport,
    stats: &mut ExecutionStats,
    out: TaskOutcome<T>,
) -> Result<T, TaskError> {
    coverage.task_retries += out.retries;
    coverage.injected_faults += out.injected;
    stats.recovery_time += out.recovery;
    out.result
}

/// Runs `n_tasks` tasks on up to `requested_workers` workers and returns
/// every `(task, outcome)` in task order, plus the number of workers used
/// (0 when the phase had no tasks).
///
/// Every worker runs the same loop: claim the next unclaimed task index,
/// [`run_task`] it, repeat until none is left. One worker runs that loop
/// on the calling thread and spawns nothing; more workers are scoped
/// threads. Which worker ran a task is not observable: its fates are keyed
/// by `(seed, phase, task, attempt)` and its outcome is filed under its
/// index.
fn run_phase<T, F>(
    n_tasks: usize,
    requested_workers: usize,
    phase: TaskPhase,
    faults: Option<&TaskFaultPlan>,
    max_retries: u32,
    work: &F,
) -> (Vec<(usize, TaskOutcome<T>)>, usize)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // A task runs on exactly one worker, so workers beyond the task count
    // would only pay spawn/join cost.
    let workers = requested_workers.min(n_tasks);
    // `Relaxed`: the counter only hands out indices and publishes no data;
    // outcomes reach the caller through the scope's joins.
    let next = AtomicUsize::new(0);
    let claim_loop = || {
        let mut done = Vec::new();
        loop {
            let task = next.fetch_add(1, Ordering::Relaxed);
            if task >= n_tasks {
                return done;
            }
            done.push((task, run_task(phase, task, faults, max_retries, work)));
        }
    };
    let mut done = if workers <= 1 {
        claim_loop()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim_loop)).collect();
            let mut done = Vec::with_capacity(n_tasks);
            for worker in handles {
                let claimed = worker.join();
                done.extend(claimed.expect("task attempts run under catch_unwind"));
            }
            done
        })
    };
    done.sort_unstable_by_key(|(task, _)| *task);
    (done, workers)
}

/// Runs attempt 1, 2, … of one task until the first success or until
/// `max_retries` retries are spent.
///
/// A failed attempt is retried at once, on the worker that claimed the
/// task, rather than queued behind other tasks: nothing a job reports
/// depends on when an attempt ran, only on its coordinates.
fn run_task<T>(
    phase: TaskPhase,
    task: usize,
    faults: Option<&TaskFaultPlan>,
    max_retries: u32,
    work: impl Fn(usize) -> T,
) -> TaskOutcome<T> {
    let mut failures = 0u32;
    let mut injected = 0u32;
    let mut recovery = Duration::ZERO;
    let result = loop {
        let started = Instant::now();
        let (attempt_result, was_injected) =
            run_attempt(phase, task, failures + 1, faults, || work(task));
        injected += u32::from(was_injected);
        match attempt_result {
            Ok(value) => break Ok(value),
            Err(failure) => {
                failures += 1;
                recovery += started.elapsed();
                if failures > max_retries {
                    break Err(TaskError {
                        phase,
                        task,
                        attempts: failures,
                        failure,
                    });
                }
            }
        }
    };
    TaskOutcome {
        result,
        // Every failure was retried, but for the one that spent the budget.
        retries: failures.min(max_retries),
        injected,
        recovery,
    }
}

thread_local! {
    /// Set while a task attempt executes under `catch_unwind`: its panics
    /// are converted into structured [`TaskError`]s, so the default
    /// "thread panicked" stderr noise would be misleading.
    static SILENCE_PANICS: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once per process) a panic hook that suppresses output for
/// panics the executor catches and converts, delegating every other
/// panic to the previously installed hook.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SILENCE_PANICS.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs one task attempt under `catch_unwind`, applying the injected
/// fate first. Returns the outcome plus whether a fault was injected.
fn run_attempt<T>(
    phase: TaskPhase,
    task: usize,
    attempt: u32,
    faults: Option<&TaskFaultPlan>,
    work: impl FnOnce() -> T,
) -> (Result<T, TaskFailure>, bool) {
    let fate = faults.and_then(|plan| plan.fate(phase, task, attempt));
    if fate == Some(TaskFault::WorkerLost) {
        // The worker vanishes: the attempt never runs and never reports.
        return (Err(TaskFailure::WorkerLost), true);
    }
    let injected = fate.is_some();
    install_quiet_hook();
    SILENCE_PANICS.with(|silence| silence.set(true));
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        match fate {
            Some(TaskFault::Panic) => {
                panic!("injected fault: {phase} task {task} attempt {attempt} panicked")
            }
            Some(TaskFault::Delay { ms }) => std::thread::sleep(Duration::from_millis(ms)),
            _ => {}
        }
        work()
    }));
    SILENCE_PANICS.with(|silence| silence.set(false));
    match caught {
        Ok(value) => (Ok(value), injected),
        Err(payload) => (
            Err(TaskFailure::Panicked {
                // `&*` reaches the payload itself: a bare `&payload`
                // would coerce the Box into `dyn Any` and defeat the
                // downcasts below.
                message: panic_message(&*payload),
            }),
            injected,
        ),
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "<opaque panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sums values per key; emits per-key sums.
    struct SumPerKey;

    impl MapReduce<u32, i64, u32, i64, u32, i64> for SumPerKey {
        fn map(&self, key: &u32, value: &i64, out: &mut MapCollector<u32, i64>) {
            out.emit_map(*key, *value);
        }

        fn reduce(&self, key: &u32, values: &[i64], out: &mut ReduceCollector<u32, i64>) {
            out.emit_reduce(*key, values.iter().sum());
        }
    }

    fn dataset(n: usize, keys: u32) -> Vec<(u32, i64)> {
        (0..n).map(|i| ((i as u32) % keys, i as i64)).collect()
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let result = Job::serial().run(&SumPerKey, Vec::new());
        assert!(result.output.is_empty());
        assert_eq!(result.stats.map_input_records, 0);
        assert_eq!(result.stats.groups, 0);
        assert!(result.stats.coverage.is_complete());
        let result = Job::parallel(4).run(&SumPerKey, Vec::new());
        assert!(result.output.is_empty());
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let data = dataset(10_000, 17);
        let serial = Job::serial().run(&SumPerKey, data.clone());
        for workers in [1, 2, 3, 4, 7, 16] {
            let parallel = Job::parallel(workers).run(&SumPerKey, data.clone());
            assert_eq!(serial.output, parallel.output, "workers = {workers}");
            assert_eq!(parallel.stats.workers, workers);
        }
    }

    #[test]
    fn output_sorted_by_intermediate_key() {
        let data = vec![(3u32, 1i64), (1, 2), (2, 3), (1, 4)];
        let result = Job::serial().run(&SumPerKey, data);
        let keys: Vec<u32> = result.output.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(result.output[0], (1, 6));
    }

    #[test]
    fn stats_count_records() {
        let data = dataset(100, 10);
        let result = Job::parallel(4).run(&SumPerKey, data);
        assert_eq!(result.stats.map_input_records, 100);
        assert_eq!(result.stats.map_output_records, 100);
        assert_eq!(result.stats.groups, 10);
        assert_eq!(result.stats.reduce_output_records, 10);
        assert!(result.stats.total_time() >= result.stats.map_time);
        assert_eq!(result.stats.coverage.map_tasks, 4);
        assert_eq!(result.stats.coverage.map_records_total, 100);
        assert_eq!(result.stats.coverage.group_values_total, 100);
        assert!(result.stats.coverage.is_complete());
        assert_eq!(result.stats.recovery_time, Duration::ZERO);
    }

    #[test]
    fn workers_capped_at_task_count() {
        let data = dataset(3, 3);
        let result = Job::parallel(64).run(&SumPerKey, data);
        assert_eq!(result.output.len(), 3);
        // 3 records -> 3 map chunks, 3 groups -> 3 reduce partitions:
        // only 3 of the 64 requested threads are worth spawning.
        assert_eq!(result.stats.workers, 3);
        assert_eq!(result.stats.coverage.map_tasks, 3);
    }

    #[test]
    fn one_worker_phase_runs_on_the_calling_thread() {
        /// Emits the id of the thread each phase ran on.
        struct WhichThread;
        type Id = std::thread::ThreadId;
        impl MapReduce<u32, i64, u32, Id, Id, Id> for WhichThread {
            fn map(&self, key: &u32, _: &i64, out: &mut MapCollector<u32, Id>) {
                out.emit_map(*key, std::thread::current().id());
            }
            fn reduce(&self, _: &u32, mapped_on: &[Id], out: &mut ReduceCollector<Id, Id>) {
                out.emit_reduce(mapped_on[0], std::thread::current().id());
            }
        }
        let here = std::thread::current().id();
        // One worker by request, and one worker because there is one task.
        for job in [Job::serial().tasks(4), Job::parallel(8).tasks(1)] {
            let result = job.run(&WhichThread, dataset(100, 4));
            assert_eq!(result.stats.workers, 1);
            assert_eq!(result.output, vec![(here, here); 4]);
        }
        let result = Job::parallel(2).run(&WhichThread, dataset(100, 4));
        assert!(result.output.iter().all(|(m, r)| *m != here && *r != here));
    }

    #[test]
    fn per_key_value_order_matches_serial_input_order() {
        /// Emits the concatenation of values per key, exposing ordering.
        struct Concat;
        impl MapReduce<u32, String, u32, String, u32, String> for Concat {
            fn map(&self, key: &u32, value: &String, out: &mut MapCollector<u32, String>) {
                out.emit_map(*key, value.clone());
            }
            fn reduce(&self, key: &u32, values: &[String], out: &mut ReduceCollector<u32, String>) {
                out.emit_reduce(*key, values.join(""));
            }
        }
        let data: Vec<(u32, String)> = (0..26)
            .map(|i| (i % 2, char::from(b'a' + i as u8).to_string()))
            .collect();
        let serial = Job::serial().run(&Concat, data.clone());
        let parallel = Job::parallel(4).run(&Concat, data);
        assert_eq!(serial.output, parallel.output);
        // Even key: a, c, e, ... in input order.
        assert_eq!(serial.output[0].1, "acegikmoqsuwy");
    }

    #[test]
    fn combiner_reduces_shuffle_volume() {
        use crate::FnCombiner;
        let data = dataset(10_000, 5);
        let no_combiner = Job::parallel(4).run(&SumPerKey, data.clone());
        let with_combiner = Job::parallel(4)
            .combiner(FnCombiner(|_k: &u32, vs: Vec<i64>| {
                vec![vs.iter().sum::<i64>()]
            }))
            .run(&SumPerKey, data);
        assert_eq!(no_combiner.output, with_combiner.output);
        assert!(
            with_combiner.stats.map_output_records < no_combiner.stats.map_output_records,
            "combiner must shrink intermediate volume: {} vs {}",
            with_combiner.stats.map_output_records,
            no_combiner.stats.map_output_records
        );
        // At most workers * keys intermediate records after combining.
        assert!(with_combiner.stats.map_output_records <= 4 * 5);
        // Coverage accounting sees through the combiner: raw counts.
        assert_eq!(with_combiner.stats.coverage.group_values_total, 10_000);
    }

    #[test]
    fn run_to_map_collapses_keys() {
        let data = dataset(50, 7);
        let result = Job::serial().run_to_map(&SumPerKey, data);
        assert_eq!(result.output.len(), 7);
        let total: i64 = result.output.values().sum();
        assert_eq!(total, (0..50).sum::<i64>());
    }

    #[test]
    fn filtering_map_phase() {
        /// Drops odd values entirely in Map (some keys vanish).
        struct EvensOnly;
        impl MapReduce<u32, i64, u32, i64, u32, i64> for EvensOnly {
            fn map(&self, key: &u32, value: &i64, out: &mut MapCollector<u32, i64>) {
                if value % 2 == 0 {
                    out.emit_map(*key, *value);
                }
            }
            fn reduce(&self, key: &u32, values: &[i64], out: &mut ReduceCollector<u32, i64>) {
                out.emit_reduce(*key, values.len() as i64);
            }
        }
        let data = vec![(1u32, 1i64), (1, 3), (2, 2), (2, 4)];
        let result = Job::parallel(2).run(&EvensOnly, data);
        assert_eq!(result.output, vec![(2, 2)]);
        assert_eq!(result.stats.groups, 1);
    }

    // ------------------------------------------------------------------
    // Fault tolerance.
    // ------------------------------------------------------------------

    /// Panics while mapping any record whose value is divisible by 97.
    struct PanicsOn97;
    impl MapReduce<u32, i64, u32, i64, u32, i64> for PanicsOn97 {
        fn map(&self, key: &u32, value: &i64, out: &mut MapCollector<u32, i64>) {
            assert!(
                value % 97 != 0 || *value == 0,
                "user map panicked on {value}"
            );
            out.emit_map(*key, *value);
        }
        fn reduce(&self, key: &u32, values: &[i64], out: &mut ReduceCollector<u32, i64>) {
            out.emit_reduce(*key, values.iter().sum());
        }
    }

    #[test]
    fn injected_panic_is_retried_and_heals_byte_identically() {
        let data = dataset(1_000, 13);
        let clean = Job::parallel(4).run(&SumPerKey, data.clone());
        let plan = TaskFaultPlan::seeded(11).panic_task(TaskPhase::Map, 1, 2);
        let healed = Job::parallel(4)
            .fault_plan(plan)
            .expect("probabilities in range")
            .task_retries(2)
            .run(&SumPerKey, data);
        assert_eq!(clean.output, healed.output);
        assert!(healed.failed_tasks.is_empty());
        let coverage = healed.stats.coverage;
        assert!(coverage.is_complete());
        assert_eq!(coverage.task_retries, 2);
        assert_eq!(coverage.injected_faults, 2);
        assert_eq!(coverage.fraction_covered(), 1.0);
    }

    #[test]
    fn user_panic_surfaces_as_structured_job_error() {
        // No injected faults at all: a genuinely panicking user function
        // must yield a JobError, not abort the process (old behavior was
        // `h.join().expect("map worker panicked")`).
        let data = dataset(1_000, 13); // contains 97, 194, ...
        let err = Job::parallel(4)
            .try_run(&PanicsOn97, data)
            .expect_err("map panics must fail the job");
        assert!(!err.failed.is_empty());
        let first = &err.failed[0];
        assert_eq!(first.phase, TaskPhase::Map);
        assert_eq!(first.attempts, 1);
        match &first.failure {
            TaskFailure::Panicked { message } => {
                assert!(message.contains("user map panicked"), "{message}")
            }
            other => panic!("expected panic failure, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_plan_is_an_error_not_a_panic() {
        let err = Job::serial()
            .fault_plan(TaskFaultPlan::seeded(0).panic_tasks(1.5))
            .err();
        assert_eq!(
            err.as_deref(),
            Some("task panic probability 1.5 outside [0, 1]")
        );
    }

    #[test]
    #[should_panic(expected = "map task 0 failed")]
    fn run_still_panics_when_partial_results_not_allowed() {
        let plan = TaskFaultPlan::seeded(1).panic_task(TaskPhase::Map, 0, 10);
        let _ = Job::parallel(2)
            .fault_plan(plan)
            .expect("probabilities in range")
            .run(&SumPerKey, dataset(100, 5));
    }

    #[test]
    fn exhausted_retries_complete_degraded_with_exact_coverage() {
        let data = dataset(100, 4);
        let plan = TaskFaultPlan::seeded(5).panic_task(TaskPhase::Map, 0, 10);
        let result = Job::parallel(4)
            .fault_plan(plan)
            .expect("probabilities in range")
            .task_retries(1)
            .allow_partial(true)
            .run(&SumPerKey, data.clone());
        assert_eq!(result.failed_tasks.len(), 1);
        let failed = &result.failed_tasks[0];
        assert_eq!(
            (failed.phase, failed.task, failed.attempts),
            (TaskPhase::Map, 0, 2)
        );
        let coverage = result.stats.coverage;
        assert_eq!(coverage.map_tasks, 4);
        assert_eq!(coverage.map_tasks_failed, 1);
        assert_eq!(coverage.map_records_total, 100);
        assert_eq!(coverage.map_records_lost, 25);
        assert_eq!(coverage.task_retries, 1);
        assert_eq!(coverage.percent_covered(), 75);
        // The output is exactly the fault-free output of the surviving
        // three chunks.
        let surviving: Vec<(u32, i64)> = data[25..].to_vec();
        let expected = Job::serial().run(&SumPerKey, surviving);
        assert_eq!(result.output, expected.output);
    }

    #[test]
    fn lost_reduce_worker_drops_exactly_its_partition() {
        let data = dataset(100, 8);
        let plan = TaskFaultPlan::seeded(3).lose_task(TaskPhase::Reduce, 0, 10);
        let result = Job::parallel(4)
            .fault_plan(plan)
            .expect("probabilities in range")
            .allow_partial(true)
            .run(&SumPerKey, data);
        let coverage = result.stats.coverage;
        assert_eq!(coverage.reduce_tasks, 4);
        assert_eq!(coverage.reduce_tasks_failed, 1);
        // 8 groups over 4 partitions: the first partition held keys 0-1,
        // which got 13 values each (100 records over 8 keys).
        assert_eq!(coverage.group_values_total, 100);
        assert_eq!(coverage.group_values_lost, 26);
        assert_eq!(result.failed_tasks[0].failure, TaskFailure::WorkerLost);
        let keys: Vec<u32> = result.output.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn serial_executor_gets_task_isolation_via_tasks_override() {
        let data = dataset(100, 4);
        let plan = TaskFaultPlan::seeded(2).panic_task(TaskPhase::Map, 3, 10);
        let result = Job::serial()
            .tasks(4)
            .fault_plan(plan)
            .expect("probabilities in range")
            .allow_partial(true)
            .run(&SumPerKey, data);
        assert_eq!(result.stats.workers, 1);
        let coverage = result.stats.coverage;
        assert_eq!(coverage.map_tasks, 4);
        assert_eq!(coverage.map_tasks_failed, 1);
        assert_eq!(coverage.percent_covered(), 75);
    }

    #[test]
    fn probabilistic_faults_are_deterministic_per_seed() {
        let data = dataset(2_000, 11);
        let job = || {
            Job::parallel(4)
                .tasks(16)
                .fault_plan(TaskFaultPlan::seeded(99).panic_tasks(0.4).lose_workers(0.2))
                .expect("probabilities in range")
                .task_retries(3)
                .allow_partial(true)
                .run(&SumPerKey, data.clone())
        };
        let first = job();
        let second = job();
        assert_eq!(first.output, second.output);
        assert_eq!(first.failed_tasks, second.failed_tasks);
        assert_eq!(
            first.stats.coverage.task_retries,
            second.stats.coverage.task_retries
        );
        assert_eq!(
            first.stats.coverage.injected_faults,
            second.stats.coverage.injected_faults
        );
    }
}
