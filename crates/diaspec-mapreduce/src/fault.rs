//! Seeded task-level fault injection for the MapReduce executors.
//!
//! The original MapReduce design (Dean & Ghemawat, OSDI'04) assumes that
//! *task* failure is the common case at scale: a map or reduce task can
//! panic, stall, or lose its worker, and the framework — not the
//! application — re-executes it. This module supplies the deterministic
//! fault side of that story for experiments and acceptance tests:
//!
//! - [`TaskFaultPlan`] — a seeded plan of per-attempt faults
//!   ([`TaskFault::Panic`], [`TaskFault::WorkerLost`],
//!   [`TaskFault::Delay`]), either *targeted* at an exact task for its
//!   first N attempts or sampled probabilistically;
//! - determinism by construction: the fate of an attempt is a **pure
//!   function** of `(seed, phase, task, attempt)` — [`fate`], not a
//!   shared RNG — so the injected fault sequence is byte-identical no
//!   matter how worker threads interleave, and identical between the
//!   serial and parallel executors at the same task granularity;
//! - [`fate`] / [`fate_bits`] themselves: the one seeded sampler every
//!   fault plane of the workspace draws from (the runtime's message
//!   injector and chaos transport key the same function on their own
//!   coordinates), with [`check_probabilities`] as the one `[0, 1]`
//!   validator beside it.
//!
//! The recovery half (bounded retries, coverage accounting) lives in the
//! executor; see [`Job`](crate::Job).

/// Which executor phase a task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaskPhase {
    /// A map task (one contiguous input chunk).
    Map,
    /// A reduce task (one contiguous run of shuffled groups).
    Reduce,
}

impl std::fmt::Display for TaskPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskPhase::Map => write!(f, "map"),
            TaskPhase::Reduce => write!(f, "reduce"),
        }
    }
}

/// What an injected fault does to one task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFault {
    /// The attempt panics mid-task (exercises the executor's
    /// `catch_unwind` isolation; the panic is real, not simulated).
    Panic,
    /// The worker executing the attempt is lost: the attempt produces no
    /// result and no panic — it simply never reports back.
    WorkerLost,
    /// The attempt stalls for this long before doing its work, turning
    /// the task into a straggler (deadline bait for `@quality(deadlineMs)`).
    Delay {
        /// Extra latency injected before the attempt runs.
        ms: u64,
    },
}

impl std::fmt::Display for TaskFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskFault::Panic => write!(f, "panic"),
            TaskFault::WorkerLost => write!(f, "lost worker"),
            TaskFault::Delay { ms } => write!(f, "delay +{ms} ms"),
        }
    }
}

/// A fault targeted at one exact task: its first `attempts` attempts
/// suffer `fault`, later attempts run clean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetedTaskFault {
    /// The phase of the targeted task.
    pub phase: TaskPhase,
    /// The task index within the phase (0-based).
    pub task: usize,
    /// The fault injected into each targeted attempt.
    pub fault: TaskFault,
    /// How many attempts (1-based, from the first) are faulted.
    pub attempts: u32,
}

/// A seeded plan of task-level faults, consulted once per task attempt.
///
/// Probabilities apply independently per attempt, so a probabilistically
/// faulted task heals itself under retry with probability
/// `1 - p^(retries + 1)`. Targeted faults take precedence over sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskFaultPlan {
    /// Seed of the per-attempt hash (independent of any other RNG).
    pub seed: u64,
    /// Probability in `[0, 1]` that an attempt panics.
    pub panic_probability: f64,
    /// Probability in `[0, 1]` that an attempt's worker is lost.
    pub lost_probability: f64,
    /// Probability in `[0, 1]` that an attempt is delayed by
    /// [`TaskFaultPlan::delay_ms`].
    pub delay_probability: f64,
    /// Stall applied to delayed attempts.
    pub delay_ms: u64,
    /// Exact-task faults, checked before any sampling.
    pub targeted: Vec<TargetedTaskFault>,
}

impl Default for TaskFaultPlan {
    fn default() -> Self {
        TaskFaultPlan {
            seed: 0,
            panic_probability: 0.0,
            lost_probability: 0.0,
            delay_probability: 0.0,
            delay_ms: 0,
            targeted: Vec::new(),
        }
    }
}

impl TaskFaultPlan {
    /// A plan with no faults and the given seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        TaskFaultPlan {
            seed,
            ..TaskFaultPlan::default()
        }
    }

    /// Sets the per-attempt panic probability.
    #[must_use]
    pub fn panic_tasks(mut self, probability: f64) -> Self {
        self.panic_probability = probability;
        self
    }

    /// Sets the per-attempt lost-worker probability.
    #[must_use]
    pub fn lose_workers(mut self, probability: f64) -> Self {
        self.lost_probability = probability;
        self
    }

    /// Delays each attempt by `delay_ms` with the given probability.
    #[must_use]
    pub fn delay_tasks(mut self, probability: f64, delay_ms: u64) -> Self {
        self.delay_probability = probability;
        self.delay_ms = delay_ms;
        self
    }

    /// Panics the first `attempts` attempts of one exact task.
    #[must_use]
    pub fn panic_task(self, phase: TaskPhase, task: usize, attempts: u32) -> Self {
        self.target(phase, task, TaskFault::Panic, attempts)
    }

    /// Loses the worker of the first `attempts` attempts of one task.
    #[must_use]
    pub fn lose_task(self, phase: TaskPhase, task: usize, attempts: u32) -> Self {
        self.target(phase, task, TaskFault::WorkerLost, attempts)
    }

    /// Delays the first `attempts` attempts of one task by `ms`.
    #[must_use]
    pub fn delay_task(self, phase: TaskPhase, task: usize, ms: u64, attempts: u32) -> Self {
        self.target(phase, task, TaskFault::Delay { ms }, attempts)
    }

    fn target(mut self, phase: TaskPhase, task: usize, fault: TaskFault, attempts: u32) -> Self {
        self.targeted.push(TargetedTaskFault {
            phase,
            task,
            fault,
            attempts,
        });
        self
    }

    /// Whether the plan can inject anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.targeted.is_empty()
            && self.panic_probability == 0.0
            && self.lost_probability == 0.0
            && self.delay_probability == 0.0
    }

    /// Validates all probabilities.
    ///
    /// # Errors
    ///
    /// The message of [`check_probabilities`], naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        check_probabilities(&[
            ("task panic", self.panic_probability),
            ("task lost", self.lost_probability),
            ("task delay", self.delay_probability),
        ])
    }

    /// The fate of one attempt — a pure function of
    /// `(seed, phase, task, attempt)` (`attempt` is 1-based), so the
    /// injected sequence is independent of thread interleaving.
    #[must_use]
    pub fn fate(&self, phase: TaskPhase, task: usize, attempt: u32) -> Option<TaskFault> {
        for t in &self.targeted {
            if t.phase == phase && t.task == task && attempt <= t.attempts {
                return Some(t.fault);
            }
        }
        let plane = match phase {
            TaskPhase::Map => 0x4d41_5054,
            TaskPhase::Reduce => 0x5245_4455,
        };
        let draw = |stream| fate(self.seed, plane, task as u64, attempt, stream);
        if self.panic_probability > 0.0 && draw(1) < self.panic_probability {
            return Some(TaskFault::Panic);
        }
        if self.lost_probability > 0.0 && draw(2) < self.lost_probability {
            return Some(TaskFault::WorkerLost);
        }
        if self.delay_probability > 0.0 && draw(3) < self.delay_probability {
            return Some(TaskFault::Delay { ms: self.delay_ms });
        }
        None
    }
}

/// The one fault sampler of the workspace, as 64 raw bits: the SplitMix64
/// finalizer over a weighted sum of named coordinates. Every seeded fault
/// decision — a MapReduce task attempt, an engine message, a chaos
/// envelope — is this function of `seed` and where the decision sits:
///
/// - `plane` tells fault domains apart (a phase tag, a peer hash);
/// - `index` is the item within the plane (task, sequence number);
/// - `attempt` is the retry ordinal, so a resend samples afresh;
/// - `stream` separates the independent draws one item needs.
///
/// `index` and `stream` enter the sum with the same weight — that is what
/// makes `fate_bits(seed, 0, 0, 0, k)` the `k`-th output of a SplitMix64
/// generator seeded with `seed` — so a plane with dense indices must
/// space its streams further apart than its indices reach.
#[must_use]
pub fn fate_bits(seed: u64, plane: u64, index: u64, attempt: u32, stream: u64) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    const MIX: u64 = 0xBF58_476D_1CE4_E5B9;
    let mut z = seed
        .wrapping_add(plane)
        .wrapping_add(index.wrapping_mul(GOLDEN))
        .wrapping_add(u64::from(attempt).wrapping_mul(MIX))
        .wrapping_add(stream.wrapping_mul(GOLDEN));
    z = (z ^ (z >> 30)).wrapping_mul(MIX);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`fate_bits`] as a uniform draw in `[0, 1)` (53 mantissa bits), to be
/// compared against a fault probability.
#[must_use]
pub fn fate(seed: u64, plane: u64, index: u64, attempt: u32, stream: u64) -> f64 {
    (fate_bits(seed, plane, index, attempt, stream) >> 11) as f64 / (1u64 << 53) as f64
}

/// Checks that every named probability lies in `[0, 1]` (NaN does not).
///
/// # Errors
///
/// `"<name> probability <p> outside [0, 1]"` for the first field that
/// does not.
pub fn check_probabilities(fields: &[(&str, f64)]) -> Result<(), String> {
    match fields.iter().find(|(_, p)| !(0.0..=1.0).contains(p)) {
        Some((name, p)) => Err(format!("{name} probability {p} outside [0, 1]")),
        None => Ok(()),
    }
}

/// Why a task permanently failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskFailure {
    /// Every attempt panicked; the message is from the last panic payload.
    Panicked {
        /// The panic message of the final attempt (`<opaque panic
        /// payload>` for non-string payloads).
        message: String,
    },
    /// Every attempt's worker was lost before reporting a result.
    WorkerLost,
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskFailure::Panicked { message } => write!(f, "panicked: {message}"),
            TaskFailure::WorkerLost => write!(f, "worker lost"),
        }
    }
}

/// A task that exhausted its retry budget: the structured record the
/// executor returns instead of poisoning the orchestrator with a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// The phase of the failed task.
    pub phase: TaskPhase,
    /// The task index within the phase (0-based).
    pub task: usize,
    /// Total attempts made (initial execution + retries).
    pub attempts: u32,
    /// Why the final attempt failed.
    pub failure: TaskFailure,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} task {} failed after {} attempt{}: {}",
            self.phase,
            self.task,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.failure
        )
    }
}

impl std::error::Error for TaskError {}

/// A job that could not produce a complete result and was not allowed to
/// return a partial one (see [`Job::allow_partial`](crate::Job::allow_partial)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Every task that exhausted its retry budget.
    pub failed: Vec<TaskError>,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MapReduce job failed ({} task", self.failed.len())?;
        if self.failed.len() != 1 {
            write!(f, "s")?;
        }
        write!(f, "): ")?;
        for (i, task) in self.failed.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{task}")?;
        }
        Ok(())
    }
}

impl std::error::Error for JobError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults() {
        let plan = TaskFaultPlan::seeded(9);
        assert!(plan.is_empty());
        for task in 0..100 {
            for attempt in 1..4 {
                assert_eq!(plan.fate(TaskPhase::Map, task, attempt), None);
                assert_eq!(plan.fate(TaskPhase::Reduce, task, attempt), None);
            }
        }
    }

    #[test]
    fn fate_is_a_pure_function_of_coordinates() {
        let plan = TaskFaultPlan::seeded(42)
            .panic_tasks(0.3)
            .lose_workers(0.1)
            .delay_tasks(0.2, 50);
        let other = plan.clone();
        for task in 0..200 {
            for attempt in 1..5 {
                assert_eq!(
                    plan.fate(TaskPhase::Map, task, attempt),
                    other.fate(TaskPhase::Map, task, attempt)
                );
            }
        }
    }

    /// The property the parallel executor leans on for serial ≡ parallel
    /// results under faults: because a fate is a pure hash with no RNG
    /// stream, it is identical no matter which worker thread asks, in
    /// what order, or how tasks are striped across workers — unlike the
    /// runtime's message fates, which consume a sequential RNG.
    #[test]
    fn fate_is_invariant_under_query_order_and_sharding() {
        let plan = std::sync::Arc::new(
            TaskFaultPlan::seeded(17)
                .panic_tasks(0.3)
                .lose_workers(0.15)
                .delay_tasks(0.2, 40),
        );
        let serial: Vec<_> = (0..128).map(|t| plan.fate(TaskPhase::Map, t, 1)).collect();
        // Reverse query order on the same plan instance.
        let reversed: Vec<_> = (0..128)
            .rev()
            .map(|t| plan.fate(TaskPhase::Map, t, 1))
            .collect();
        assert!(serial.iter().eq(reversed.iter().rev()));
        // Shard-partitioned concurrent queries: each worker sees exactly
        // the serial fates for its stripe.
        let handles: Vec<_> = (0..4usize)
            .map(|shard| {
                let plan = std::sync::Arc::clone(&plan);
                std::thread::spawn(move || {
                    (0..128)
                        .filter(|t| t % 4 == shard)
                        .map(|t| (t, plan.fate(TaskPhase::Map, t, 1)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (task, fate) in handle.join().unwrap() {
                assert_eq!(fate, serial[task], "task {task} fate diverged");
            }
        }
    }

    #[test]
    fn probabilistic_rates_roughly_match() {
        let plan = TaskFaultPlan::seeded(7).panic_tasks(0.25);
        let panics = (0..10_000)
            .filter(|task| plan.fate(TaskPhase::Map, *task, 1) == Some(TaskFault::Panic))
            .count();
        let rate = panics as f64 / 10_000.0;
        assert!((0.22..0.28).contains(&rate), "panic rate {rate}");
    }

    #[test]
    fn phases_and_attempts_sample_independently() {
        let plan = TaskFaultPlan::seeded(1).panic_tasks(0.5);
        let map: Vec<bool> = (0..64)
            .map(|t| plan.fate(TaskPhase::Map, t, 1).is_some())
            .collect();
        let reduce: Vec<bool> = (0..64)
            .map(|t| plan.fate(TaskPhase::Reduce, t, 1).is_some())
            .collect();
        let second: Vec<bool> = (0..64)
            .map(|t| plan.fate(TaskPhase::Map, t, 2).is_some())
            .collect();
        assert_ne!(map, reduce, "phase feeds the hash");
        assert_ne!(map, second, "attempt feeds the hash");
    }

    #[test]
    fn targeted_fault_hits_exact_attempts_then_clears() {
        let plan = TaskFaultPlan::seeded(3).panic_task(TaskPhase::Map, 2, 2);
        assert_eq!(plan.fate(TaskPhase::Map, 2, 1), Some(TaskFault::Panic));
        assert_eq!(plan.fate(TaskPhase::Map, 2, 2), Some(TaskFault::Panic));
        assert_eq!(plan.fate(TaskPhase::Map, 2, 3), None);
        assert_eq!(plan.fate(TaskPhase::Map, 1, 1), None);
        assert_eq!(plan.fate(TaskPhase::Reduce, 2, 1), None);
    }

    /// Literal vectors, computed outside this code base: the first is the
    /// published first output of SplitMix64 seeded with 0. Every golden
    /// that involves a fault rests on these bits.
    #[test]
    fn fate_bits_match_literal_vectors() {
        let m = u64::MAX;
        for ((seed, plane, index, attempt, stream), bits) in [
            ((0, 0, 0, 0, 1), 0xE220_A839_7B1D_CDAF_u64),
            ((42, 0, 0, 0, 1), 0xBDD7_3226_2FEB_6E95),
            ((42, 0, 0, 0, 2), 0x28EF_E333_B266_F103),
            ((9, 0x4d41_5054, 3, 1, 1), 0xE072_3FB1_E928_2D8E),
            ((9, 0x5245_4455, 3, 2, 3), 0xEFFD_1376_6679_9DBA),
            (
                (7, 0xCBF2_9CE4_8422_2325, 12, 2, 5 << 32),
                0xEF29_1FF9_8DB1_145A,
            ),
            ((m, m, m, u32::MAX, m), 0x4DF6_CEFD_1E3B_201B),
        ] {
            assert_eq!(fate_bits(seed, plane, index, attempt, stream), bits);
            assert_eq!(
                fate(seed, plane, index, attempt, stream),
                (bits >> 11) as f64 / (1u64 << 53) as f64
            );
        }
        assert_eq!(
            fate(42, 0, 0, 0, 2).to_bits(),
            0.159_910_392_876_920_1_f64.to_bits()
        );
    }

    #[test]
    fn probability_check_names_the_first_offender() {
        assert_eq!(check_probabilities(&[("a", 0.0), ("b", 1.0)]), Ok(()));
        assert_eq!(
            check_probabilities(&[("a", 0.5), ("b", -0.1), ("c", 2.0)]),
            Err("b probability -0.1 outside [0, 1]".to_owned())
        );
        assert!(check_probabilities(&[("a", f64::NAN)]).is_err());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_probability_rejected() {
        TaskFaultPlan::seeded(0)
            .panic_tasks(1.5)
            .validate()
            .unwrap();
    }

    #[test]
    fn display_forms_are_readable() {
        let err = TaskError {
            phase: TaskPhase::Map,
            task: 3,
            attempts: 3,
            failure: TaskFailure::Panicked {
                message: "boom".into(),
            },
        };
        assert_eq!(
            err.to_string(),
            "map task 3 failed after 3 attempts: panicked: boom"
        );
        let job = JobError {
            failed: vec![
                err,
                TaskError {
                    phase: TaskPhase::Reduce,
                    task: 0,
                    attempts: 1,
                    failure: TaskFailure::WorkerLost,
                },
            ],
        };
        let text = job.to_string();
        assert!(text.contains("2 tasks"), "{text}");
        assert!(
            text.contains("reduce task 0 failed after 1 attempt"),
            "{text}"
        );
        assert_eq!(TaskFault::Delay { ms: 40 }.to_string(), "delay +40 ms");
        assert_eq!(TaskFault::WorkerLost.to_string(), "lost worker");
    }
}
