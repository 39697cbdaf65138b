//! Execution tracing: the vocabulary of timestamped orchestration-level
//! events.
//!
//! Tracing is off by default (it allocates per event); switch it on with
//! [`Orchestrator::set_tracing`](crate::engine::Orchestrator::set_tracing)
//! to debug a design or to render a timeline of a scenario run, and drain
//! the recorded events with
//! [`Orchestrator::take_trace`](crate::engine::Orchestrator::take_trace).
//! An event is built once, and only while the engine's bounded buffer is
//! enabled or an [`Observer`](crate::obs::Observer) is attached.

use crate::clock::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What kind of orchestration event a trace entry records.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A device source emission (event-driven delivery).
    Emission {
        /// Emitting entity.
        entity: String,
        /// Emitting source.
        source: String,
    },
    /// A periodic poll gathered a batch.
    PeriodicPoll {
        /// Polled device type.
        device: String,
        /// Polled source.
        source: String,
        /// Readings gathered.
        readings: usize,
    },
    /// A context activation started.
    ContextActivation {
        /// The activated context.
        context: String,
    },
    /// A context published a value.
    Publication {
        /// The publishing context.
        context: String,
        /// Rendered value.
        value: String,
    },
    /// A controller activation started.
    ControllerActivation {
        /// The activated controller.
        controller: String,
        /// The triggering context.
        from: String,
    },
    /// A device action was invoked.
    Actuation {
        /// Target entity.
        entity: String,
        /// Invoked action.
        action: String,
    },
    /// An error was contained.
    Error {
        /// Rendered error.
        message: String,
    },
    /// The fault injector applied a fault (see
    /// [`fault`](crate::fault)).
    FaultInjected {
        /// Rendered fault (e.g. `crash altimeter-NOSE`).
        fault: String,
    },
    /// A bound entity's lease ran out without renewal.
    LeaseExpired {
        /// The entity whose lease expired.
        entity: String,
    },
    /// The registry re-bound a replacement for a lost entity.
    Rebound {
        /// The entity that was lost.
        lost: String,
        /// The standby promoted in its place.
        replacement: String,
    },
    /// A dropped delivery was re-sent with backoff.
    DeliveryRetry {
        /// The receiving component.
        to: String,
        /// Retry attempt number (1-based).
        attempt: u32,
    },
    /// A failed actuation was masked by its declared fallback action.
    FallbackActuation {
        /// Target entity.
        entity: String,
        /// The fallback action invoked.
        action: String,
    },
    /// A map/reduce task exhausted its retry budget during batch
    /// processing (the batch continued with partial results).
    TaskFailed {
        /// The processing context.
        context: String,
        /// `map` or `reduce`.
        phase: String,
        /// Task index within the phase.
        task: u32,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A processed batch landed below its `@quality` coverage threshold
    /// (or a fault-free completeness expectation when undeclared).
    BatchDegraded {
        /// The processing context.
        context: String,
        /// Whole-percent input coverage achieved (floored).
        coverage_pct: u32,
        /// The coverage threshold that was missed.
        threshold_pct: u32,
        /// Tasks that permanently failed in this batch.
        failed_tasks: u32,
    },
}

/// One trace entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulation time of the event, in milliseconds.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>8} ms] ", self.at)?;
        match &self.kind {
            TraceKind::Emission { entity, source } => {
                write!(f, "emit      {entity}.{source}")
            }
            TraceKind::PeriodicPoll {
                device,
                source,
                readings,
            } => write!(f, "poll      {device}.{source} ({readings} readings)"),
            TraceKind::ContextActivation { context } => {
                write!(f, "activate  [{context}]")
            }
            TraceKind::Publication { context, value } => {
                write!(f, "publish   [{context}] = {value}")
            }
            TraceKind::ControllerActivation { controller, from } => {
                write!(f, "control   ({controller}) <- [{from}]")
            }
            TraceKind::Actuation { entity, action } => {
                write!(f, "actuate   {entity}.{action}()")
            }
            TraceKind::Error { message } => write!(f, "ERROR     {message}"),
            TraceKind::FaultInjected { fault } => write!(f, "FAULT     {fault}"),
            TraceKind::LeaseExpired { entity } => {
                write!(f, "lease     {entity} expired")
            }
            TraceKind::Rebound { lost, replacement } => {
                write!(f, "rebind    {lost} -> {replacement}")
            }
            TraceKind::DeliveryRetry { to, attempt } => {
                write!(f, "retry     -> {to} (attempt {attempt})")
            }
            TraceKind::FallbackActuation { entity, action } => {
                write!(f, "fallback  {entity}.{action}()")
            }
            TraceKind::TaskFailed {
                context,
                phase,
                task,
                attempts,
            } => write!(
                f,
                "task      [{context}] {phase} task {task} failed after {attempts} attempts"
            ),
            TraceKind::BatchDegraded {
                context,
                coverage_pct,
                threshold_pct,
                failed_tasks,
            } => write!(
                f,
                "degraded  [{context}] coverage {coverage_pct}% < {threshold_pct}% \
                 ({failed_tasks} tasks lost)"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms_are_readable() {
        let samples = [
            TraceKind::Emission {
                entity: "sensor-1".into(),
                source: "v".into(),
            },
            TraceKind::PeriodicPoll {
                device: "PresenceSensor".into(),
                source: "presence".into(),
                readings: 12,
            },
            TraceKind::ContextActivation {
                context: "Alert".into(),
            },
            TraceKind::Publication {
                context: "Alert".into(),
                value: "3".into(),
            },
            TraceKind::ControllerActivation {
                controller: "Notify".into(),
                from: "Alert".into(),
            },
            TraceKind::Actuation {
                entity: "tv".into(),
                action: "askQuestion".into(),
            },
            TraceKind::Error {
                message: "boom".into(),
            },
            TraceKind::FaultInjected {
                fault: "crash altimeter-NOSE".into(),
            },
            TraceKind::LeaseExpired {
                entity: "altimeter-NOSE".into(),
            },
            TraceKind::Rebound {
                lost: "altimeter-NOSE".into(),
                replacement: "altimeter-SPARE".into(),
            },
            TraceKind::DeliveryRetry {
                to: "FlightState".into(),
                attempt: 2,
            },
            TraceKind::FallbackActuation {
                entity: "elevator-1".into(),
                action: "neutral".into(),
            },
            TraceKind::TaskFailed {
                context: "ParkingAvailability".into(),
                phase: "map".into(),
                task: 3,
                attempts: 4,
            },
            TraceKind::BatchDegraded {
                context: "ParkingAvailability".into(),
                coverage_pct: 66,
                threshold_pct: 80,
                failed_tasks: 1,
            },
        ];
        for kind in samples {
            let event = TraceEvent { at: 1500, kind };
            let text = event.to_string();
            assert!(text.contains("1500"), "{text}");
            assert!(text.len() > 15);
        }
    }

    #[test]
    fn trace_events_serialize() {
        let event = TraceEvent {
            at: 10,
            kind: TraceKind::Actuation {
                entity: "e".into(),
                action: "a".into(),
            },
        };
        let json = serde_json::to_string(&event).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(event, back);
    }
}
