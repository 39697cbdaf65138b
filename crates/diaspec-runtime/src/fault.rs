//! Fault injection and recovery configuration (paper §VI: error handling
//! as a design-level concern).
//!
//! The paper's §VI names error handling and QoS as the extensions that
//! turn the DiaSpec methodology into a dependable orchestration stack; at
//! city scale, device churn and lossy links are the normal case, not the
//! exception. This module supplies both halves of experiment E14's
//! failure story:
//!
//! - [`FaultPlan`] / [`FaultInjector`] — a *deterministic, clock-driven*
//!   fault injector. Scheduled faults (device crash/restart) fire at
//!   exact simulation times; per-message faults (drop, duplication,
//!   extra delay) are [`fate`] draws keyed on the plan's seed and the
//!   draw's ordinal in the engine's serial send order — independent of
//!   the transport's generator, so adding faults never perturbs the
//!   healthy-path event sequence of a run with the same seed. (Link
//!   partitions are a property of the wire: see
//!   [`ChaosConfig::window`](crate::transport::ChaosConfig::window).)
//! - [`RecoveryConfig`] / [`RetryConfig`] — the recovery machinery the
//!   engine executes against those faults: lease-based bindings with
//!   expiry and automatic standby promotion (see
//!   [`Registry`](crate::registry::Registry)), and per-delivery retry
//!   with exponential backoff and a timeout.
//!
//! Both sides flow through the observability layer: every injected fault
//! and every recovery action is traced (see
//! [`TraceKind`](crate::trace::TraceKind)) and recovery cost is recorded
//! under [`Activity::Recovering`](crate::obs::Activity::Recovering).

use crate::clock::SimTime;
use crate::entity::EntityId;

pub use diaspec_mapreduce::{
    check_probabilities, fate, fate_bits, TaskFault, TaskFaultPlan, TaskPhase,
};

// ---- faults ----------------------------------------------------------------

/// A deterministic fault applied at a scheduled simulation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The entity stops serving queries/invocations and stops renewing
    /// its lease (it stays bound until the lease expires).
    DeviceCrash {
        /// The crashing entity.
        entity: EntityId,
    },
    /// A previously crashed entity resumes service (if it is still
    /// bound; an entity whose lease already expired stays gone).
    DeviceRestart {
        /// The restarting entity.
        entity: EntityId,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::DeviceCrash { entity } => write!(f, "crash {entity}"),
            FaultKind::DeviceRestart { entity } => write!(f, "restart {entity}"),
        }
    }
}

/// One scheduled fault: what happens, and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Absolute simulation time at which the fault fires.
    pub at_ms: SimTime,
    /// The fault.
    pub kind: FaultKind,
}

/// The full fault scenario of a run: scheduled faults plus per-message
/// fault probabilities. All sampling is seeded — two runs with equal
/// plans inject byte-identical fault sequences.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injector's [`fate`] draws (independent of the
    /// transport seed).
    pub seed: u64,
    /// Probability in `[0, 1]` that a message is dropped by a fault
    /// (on top of the transport's own loss model).
    pub drop_probability: f64,
    /// Probability in `[0, 1]` that a delivered message is duplicated.
    pub duplicate_probability: f64,
    /// Probability in `[0, 1]` that a delivered message is delayed by
    /// [`FaultPlan::delay_ms`] extra milliseconds.
    pub delay_probability: f64,
    /// Extra delay applied to delayed messages.
    pub delay_ms: SimTime,
    /// Clock-driven faults, fired by the engine at their exact times.
    pub scheduled: Vec<ScheduledFault>,
    /// Task-level faults injected into the MapReduce processing activity
    /// (panicking, stalled, and lost map/reduce task attempts). Unlike
    /// the message faults above, task fates are a pure hash of
    /// `(seed, phase, task, attempt)`, so they are deterministic even
    /// across worker-thread interleavings.
    pub tasks: Option<TaskFaultPlan>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            delay_probability: 0.0,
            delay_ms: 0,
            scheduled: Vec::new(),
            tasks: None,
        }
    }
}

impl FaultPlan {
    /// A plan with no faults and the given seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the per-message drop probability.
    #[must_use]
    pub fn drop_messages(mut self, probability: f64) -> Self {
        self.drop_probability = probability;
        self
    }

    /// Sets the per-message duplication probability.
    #[must_use]
    pub fn duplicate_messages(mut self, probability: f64) -> Self {
        self.duplicate_probability = probability;
        self
    }

    /// Delays each message by `delay_ms` extra with the given probability.
    #[must_use]
    pub fn delay_messages(mut self, probability: f64, delay_ms: SimTime) -> Self {
        self.delay_probability = probability;
        self.delay_ms = delay_ms;
        self
    }

    /// Crashes `entity` at `at_ms`.
    #[must_use]
    pub fn crash_at(mut self, at_ms: SimTime, entity: impl Into<EntityId>) -> Self {
        self.scheduled.push(ScheduledFault {
            at_ms,
            kind: FaultKind::DeviceCrash {
                entity: entity.into(),
            },
        });
        self
    }

    /// Restarts `entity` at `at_ms`.
    #[must_use]
    pub fn restart_at(mut self, at_ms: SimTime, entity: impl Into<EntityId>) -> Self {
        self.scheduled.push(ScheduledFault {
            at_ms,
            kind: FaultKind::DeviceRestart {
                entity: entity.into(),
            },
        });
        self
    }

    /// Injects the given task-level fault plan into the MapReduce
    /// processing path (map/reduce task panics, stalls, lost workers).
    #[must_use]
    pub fn fault_tasks(mut self, tasks: TaskFaultPlan) -> Self {
        self.tasks = Some(tasks);
        self
    }
}

/// The fate of one message after fault sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Delivered, possibly with extra delay and/or a duplicate copy.
    Deliver {
        /// Extra latency injected on top of the transport's sample.
        extra_delay_ms: SimTime,
        /// Whether a duplicate copy also arrives.
        duplicated: bool,
    },
    /// Dropped by an injected fault.
    Drop,
}

/// The seeded fault sampler consulted by the engine on every send.
///
/// Its coordinate is the draw ordinal: the `k`-th draw of a run is
/// `fate(seed, 0, 0, 0, k)`, and the engine's delivery path is serial, so
/// `k` is as stable a name for a decision as a message id would be.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    draws: u64,
    injected: u64,
}

impl FaultInjector {
    /// Creates an injector from a plan.
    ///
    /// # Panics
    ///
    /// Panics if a probability of the plan — message faults or embedded
    /// task plan — is outside `[0, 1]` ([`check_probabilities`]).
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self::try_new(plan).unwrap_or_else(|message| panic!("{message}"))
    }

    /// [`FaultInjector::new`], with the [`check_probabilities`] message
    /// (naming the offending field) in place of the panic.
    pub(crate) fn try_new(plan: FaultPlan) -> Result<Self, String> {
        check_probabilities(&[
            ("message drop", plan.drop_probability),
            ("message duplicate", plan.duplicate_probability),
            ("message delay", plan.delay_probability),
        ])?;
        if let Some(tasks) = &plan.tasks {
            tasks.validate()?;
        }
        Ok(FaultInjector {
            plan,
            draws: 0,
            injected: 0,
        })
    }

    /// The scheduled faults of the plan (in declaration order; the engine
    /// schedules each at its `at_ms`).
    #[must_use]
    pub fn scheduled(&self) -> &[ScheduledFault] {
        &self.plan.scheduled
    }

    /// The task-level fault plan for the processing activity, if any.
    #[must_use]
    pub fn task_plan(&self) -> Option<&TaskFaultPlan> {
        self.plan.tasks.as_ref()
    }

    /// Counts one injected fault (crash/restart applied by the engine).
    pub fn count_injection(&mut self) {
        self.injected += 1;
    }

    /// Total faults injected so far (messages affected + scheduled
    /// faults applied).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// One draw against `probability`: the next ordinal of the plan's
    /// [`fate`] sequence, consumed only when the fault class is enabled.
    fn draw(&mut self, probability: f64) -> bool {
        if probability <= 0.0 {
            return false;
        }
        self.draws += 1;
        fate(self.plan.seed, 0, 0, 0, self.draws) < probability
    }

    /// Samples the fate of one message: one draw per enabled fault class
    /// (drop, then delay, then duplicate). Deterministic per seed and
    /// call sequence.
    pub fn message_fate(&mut self) -> MessageFate {
        if self.draw(self.plan.drop_probability) {
            self.injected += 1;
            return MessageFate::Drop;
        }
        let extra_delay_ms = if self.draw(self.plan.delay_probability) {
            self.injected += 1;
            self.plan.delay_ms
        } else {
            0
        };
        let duplicated = self.draw(self.plan.duplicate_probability);
        if duplicated {
            self.injected += 1;
        }
        MessageFate::Deliver {
            extra_delay_ms,
            duplicated,
        }
    }
}

// ---- recovery ---------------------------------------------------------------

/// Per-delivery retry with exponential backoff and a timeout: a dropped
/// delivery is re-sent after `base_backoff_ms`, then twice that, and so
/// on, until it is delivered, `max_attempts` retries have failed, or the
/// message has been in flight longer than `timeout_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Maximum number of retry attempts after the initial send.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff_ms: SimTime,
    /// Total in-flight budget: no retry is scheduled past this.
    pub timeout_ms: SimTime,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 3,
            base_backoff_ms: 100,
            timeout_ms: 10_000,
        }
    }
}

impl RetryConfig {
    /// Backoff before retry `attempt` (1-based): `base * 2^(attempt-1)`.
    #[must_use]
    pub fn backoff_ms(&self, attempt: u32) -> SimTime {
        self.base_backoff_ms.saturating_mul(
            1u64.checked_shl(attempt.saturating_sub(1))
                .unwrap_or(u64::MAX),
        )
    }
}

/// The recovery machinery the engine runs: lease-based bindings,
/// delivery retry, and task-level re-execution in the processing
/// activity. Disabled by default — a run without recovery behaves
/// exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryConfig {
    /// When set, every bound entity holds a lease of this many
    /// milliseconds, renewed on each successful query/poll/invocation.
    /// An expired lease unbinds the entity and promotes a standby (see
    /// [`Registry::register_standby`](crate::registry::Registry::register_standby)).
    pub lease_ttl_ms: Option<SimTime>,
    /// Delivery retry policy for dropped messages.
    pub retry: Option<RetryConfig>,
    /// How many times a failed map/reduce task is re-executed before the
    /// batch completes degraded (0 = a single failure loses the task).
    pub task_retries: u32,
}

impl RecoveryConfig {
    /// Enables leases with the given TTL.
    #[must_use]
    pub fn with_leases(mut self, ttl_ms: SimTime) -> Self {
        assert!(ttl_ms > 0, "zero lease TTL");
        self.lease_ttl_ms = Some(ttl_ms);
        self
    }

    /// Enables delivery retry.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryConfig) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Re-executes each failed map/reduce task up to `retries` times.
    #[must_use]
    pub fn with_task_retries(mut self, retries: u32) -> Self {
        self.task_retries = retries;
        self
    }

    /// Interval at which the engine checks for expired leases: half the
    /// TTL, at least 1 ms.
    #[must_use]
    pub fn lease_check_interval_ms(&self) -> Option<SimTime> {
        self.lease_ttl_ms.map(|ttl| (ttl / 2).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults() {
        let mut inj = FaultInjector::new(FaultPlan::default());
        for _ in 0..1000 {
            assert_eq!(
                inj.message_fate(),
                MessageFate::Deliver {
                    extra_delay_ms: 0,
                    duplicated: false
                }
            );
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let plan = FaultPlan::seeded(42)
            .drop_messages(0.2)
            .duplicate_messages(0.1)
            .delay_messages(0.3, 500);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for _ in 0..500 {
            assert_eq!(a.message_fate(), b.message_fate());
        }
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0);
    }

    #[test]
    fn drop_rate_roughly_matches_probability() {
        let mut inj = FaultInjector::new(FaultPlan::seeded(7).drop_messages(0.25));
        let drops = (0..10_000)
            .filter(|_| inj.message_fate() == MessageFate::Drop)
            .count();
        let rate = drops as f64 / 10_000.0;
        assert!((0.22..0.28).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn plan_builder_schedules_faults_in_order() {
        let plan = FaultPlan::seeded(1)
            .crash_at(5_000, "altimeter-NOSE")
            .restart_at(20_000, "altimeter-NOSE");
        assert_eq!(plan.scheduled.len(), 2);
        assert_eq!(
            plan.scheduled[0].kind,
            FaultKind::DeviceCrash {
                entity: "altimeter-NOSE".into()
            }
        );
        assert_eq!(plan.scheduled[1].at_ms, 20_000);
        assert_eq!(plan.scheduled[1].kind.to_string(), "restart altimeter-NOSE");
        assert_eq!(plan.scheduled[0].kind.to_string(), "crash altimeter-NOSE");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_probability_rejected() {
        let _ = FaultInjector::new(FaultPlan::default().drop_messages(1.5));
    }

    #[test]
    fn backoff_is_exponential_and_saturating() {
        let retry = RetryConfig {
            max_attempts: 5,
            base_backoff_ms: 100,
            timeout_ms: 60_000,
        };
        assert_eq!(retry.backoff_ms(1), 100);
        assert_eq!(retry.backoff_ms(2), 200);
        assert_eq!(retry.backoff_ms(3), 400);
        assert_eq!(retry.backoff_ms(64), u64::MAX, "saturates, no overflow");
    }

    #[test]
    fn recovery_config_defaults_to_disabled() {
        let config = RecoveryConfig::default();
        assert!(config.lease_ttl_ms.is_none());
        assert!(config.retry.is_none());
        assert_eq!(config.task_retries, 0);
        assert_eq!(config.lease_check_interval_ms(), None);
        let config = config.with_leases(5_000).with_retry(RetryConfig::default());
        assert_eq!(config.lease_check_interval_ms(), Some(2_500));
        let config = config.with_task_retries(2);
        assert_eq!(config.task_retries, 2);
    }

    #[test]
    fn fault_plan_embeds_task_plan() {
        let plan = FaultPlan::seeded(4).fault_tasks(TaskFaultPlan::seeded(4).panic_task(
            TaskPhase::Map,
            0,
            2,
        ));
        let injector = FaultInjector::new(plan);
        let tasks = injector.task_plan().expect("task plan embedded");
        assert_eq!(tasks.fate(TaskPhase::Map, 0, 1), Some(TaskFault::Panic));
        assert_eq!(tasks.fate(TaskPhase::Map, 0, 3), None);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_task_probability_rejected() {
        let _ = FaultInjector::new(
            FaultPlan::default().fault_tasks(TaskFaultPlan::seeded(0).panic_tasks(-0.5)),
        );
    }
}
