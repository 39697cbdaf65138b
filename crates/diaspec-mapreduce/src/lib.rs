//! # diaspec-mapreduce — design-level MapReduce for sensor orchestration
//!
//! Paper §IV.2 introduces MapReduce \[Dean & Ghemawat\] *at the design
//! level*: the `grouped by` construct partitions mass sensor data, and the
//! optional `with map as X reduce as Y` clause declares the types of a Map
//! and a Reduce phase. The generated framework then "parallelizes the Map
//! and Reduce phases" while the application only implements the
//! `MapReduce` interface of the paper's Figure 10.
//!
//! This crate is that execution substrate, reproduced in Rust:
//!
//! - [`MapReduce`] — the six-type-parameter interface of Figure 10
//!   (`MapReduce<K1, V1, K2, V2, K3, V3>`), with [`MapCollector`] /
//!   [`ReduceCollector`] mirroring `emitMap` / `emitReduce`;
//! - [`Job`] — one task loop run by one worker on the calling thread (the
//!   **serial** baseline) or by several under `std::thread::scope` (the
//!   **parallel** mode), so experiments can compare the two (experiment
//!   E10);
//! - optional [`Combiner`] — per-worker local pre-aggregation, the classic
//!   MapReduce optimization (shuffle volume N → ≤ workers × keys, pinned by
//!   the `combiner_reduces_shuffle_volume` test);
//! - [`ExecutionStats`] — per-phase record counts and wall-clock timings,
//!   including a [`CoverageReport`] of task-level fault tolerance;
//! - task fault tolerance in the spirit of the original MapReduce paper:
//!   panic isolation via `catch_unwind`, bounded per-task retries, degraded
//!   partial results, and a seeded, deterministic [`TaskFaultPlan`] for
//!   injecting panics, stalls, and lost workers into task attempts.
//!
//! ## Example: parking availability (paper Figure 10)
//!
//! ```
//! use diaspec_mapreduce::{Job, MapCollector, MapReduce, ReduceCollector};
//!
//! /// Counts free parking spaces per lot from raw presence readings.
//! struct Availability;
//!
//! impl MapReduce<String, bool, String, bool, String, i64> for Availability {
//!     fn map(&self, lot: &String, presence: &bool, out: &mut MapCollector<String, bool>) {
//!         if !presence {
//!             out.emit_map(lot.clone(), true); // a free space
//!         }
//!     }
//!     fn reduce(&self, lot: &String, frees: &[bool], out: &mut ReduceCollector<String, i64>) {
//!         out.emit_reduce(lot.clone(), frees.len() as i64);
//!     }
//! }
//!
//! let readings = vec![
//!     ("A22".to_owned(), true),
//!     ("A22".to_owned(), false),
//!     ("B16".to_owned(), false),
//!     ("B16".to_owned(), false),
//! ];
//! let result = Job::serial().run_to_map(&Availability, readings);
//! assert_eq!(result.output[&"A22".to_owned()], 1);
//! assert_eq!(result.output[&"B16".to_owned()], 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod collector;
mod executor;
pub mod fault;
mod stats;

pub use collector::{MapCollector, ReduceCollector};
pub use executor::{Job, MapReduceResult, MappedResult};
pub use fault::{
    check_probabilities, fate, fate_bits, JobError, TaskError, TaskFailure, TaskFault,
    TaskFaultPlan, TaskPhase,
};
pub use stats::{CoverageReport, ExecutionStats};

/// The application-facing MapReduce interface, mirroring the generated
/// `MapReduce<K1, V1, K2, V2, K3, V3>` interface of the paper's Figure 10.
///
/// - `(K1, V1)`: input records — for sensor orchestration, the grouping
///   attribute value and one raw reading;
/// - `(K2, V2)`: intermediate records emitted by [`map`](Self::map),
///   grouped by `K2` by the framework;
/// - `(K3, V3)`: final records emitted by [`reduce`](Self::reduce).
///
/// Implementations must be [`Sync`] so the parallel executor can share
/// them across worker threads; they should therefore not carry mutable
/// per-record state (accumulate through the collectors instead).
pub trait MapReduce<K1, V1, K2, V2, K3, V3>: Sync {
    /// Processes one input record, emitting zero or more intermediate
    /// records through `collector`.
    fn map(&self, key: &K1, value: &V1, collector: &mut MapCollector<K2, V2>);

    /// Folds all intermediate values sharing `key` into zero or more final
    /// records.
    fn reduce(&self, key: &K2, values: &[V2], collector: &mut ReduceCollector<K3, V3>);
}

/// Optional per-worker local aggregation between Map and the shuffle.
///
/// When the reduction is associative and commutative, a combiner shrinks
/// the intermediate data each worker ships to the shuffle, trading a little
/// CPU for a lot of shuffle volume — the classic MapReduce optimization.
/// Supply one via [`Job::combiner`].
pub trait Combiner<K2, V2>: Sync {
    /// Collapses the intermediate `values` for `key` into a smaller set.
    fn combine(&self, key: &K2, values: Vec<V2>) -> Vec<V2>;
}

/// A combiner defined by a plain function.
pub struct FnCombiner<F>(pub F);

impl<K2, V2, F> Combiner<K2, V2> for FnCombiner<F>
where
    F: Fn(&K2, Vec<V2>) -> Vec<V2> + Sync,
{
    fn combine(&self, key: &K2, values: Vec<V2>) -> Vec<V2> {
        (self.0)(key, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct WordCount;

    impl MapReduce<usize, String, String, u64, String, u64> for WordCount {
        fn map(&self, _line_no: &usize, line: &String, out: &mut MapCollector<String, u64>) {
            for word in line.split_whitespace() {
                out.emit_map(word.to_owned(), 1);
            }
        }

        fn reduce(&self, word: &String, counts: &[u64], out: &mut ReduceCollector<String, u64>) {
            out.emit_reduce(word.clone(), counts.iter().sum());
        }
    }

    fn corpus() -> Vec<(usize, String)> {
        vec![
            (0, "the quick brown fox".to_owned()),
            (1, "the lazy dog".to_owned()),
            (2, "the quick dog".to_owned()),
        ]
    }

    #[test]
    fn word_count_serial() {
        let result = Job::serial().run_to_map(&WordCount, corpus());
        assert_eq!(result.output[&"the".to_owned()], 3);
        assert_eq!(result.output[&"quick".to_owned()], 2);
        assert_eq!(result.output[&"dog".to_owned()], 2);
        assert_eq!(result.output[&"fox".to_owned()], 1);
        assert_eq!(result.stats.map_input_records, 3);
        assert_eq!(result.stats.map_output_records, 10);
        assert_eq!(result.stats.groups, 6);
    }

    #[test]
    fn word_count_parallel_matches_serial() {
        let serial = Job::serial().run_to_map(&WordCount, corpus());
        for workers in [1, 2, 4, 8] {
            let parallel = Job::parallel(workers).run_to_map(&WordCount, corpus());
            assert_eq!(serial.output, parallel.output, "workers = {workers}");
        }
    }

    #[test]
    fn combiner_preserves_result() {
        let without = Job::serial().run_to_map(&WordCount, corpus());
        let job = Job::parallel(4).combiner(FnCombiner(|_word: &String, counts: Vec<u64>| {
            vec![counts.iter().sum::<u64>()]
        }));
        let with = job.run_to_map(&WordCount, corpus());
        assert_eq!(without.output, with.output);
    }
}
