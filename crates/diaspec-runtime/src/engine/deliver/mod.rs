//! The staged delivery pipeline.
//!
//! Every message the orchestrator moves — source emissions, context
//! publications, periodic batches, retries — flows through four explicit
//! stages, mirroring the paper's §IV *delivering data* activity:
//!
//! 1. [`admit`] — a value enters the pipeline: it is validated against
//!    the design (declared source, output type, publish mode), counted,
//!    traced, and wrapped **exactly once** into a shared
//!    [`Payload`](crate::payload::Payload) handle;
//! 2. [`route`] — the admitted payload is resolved to its subscribers
//!    through the precomputed [`RouteTable`] (built from the immutable
//!    spec at construction), yielding one delivery event per subscriber —
//!    fan-out to N subscribers is N handle clones, never N deep copies;
//! 3. [`schedule`] — each delivery event crosses the simulated transport:
//!    latency is sampled, injected faults (drop / delay / duplicate) are
//!    applied and traced, QoS budgets are checked, and
//!    retry-with-backoff is arranged for dropped deliveries;
//! 4. [`dispatch`] — a due event leaves the queue and activates its
//!    target component (context, controller, process, or the engine's own
//!    periodic / fault / lease machinery).
//!
//! The stages communicate through the [`Event`] vocabulary below. Stage
//! order is load-bearing: admission side effects (metrics, traces) happen
//! before routing, and scheduling decisions (duplicate before primary)
//! are part of the engine's deterministic event order — the
//! pipeline-equivalence golden tests pin both.

pub(crate) mod admit;
pub(crate) mod dispatch;
pub(crate) mod route;
pub(crate) mod schedule;

pub(crate) use route::RouteTable;

use crate::clock::SimTime;
use crate::component::Gathered;
use crate::entity::EntityId;
use crate::payload::Payload;
use crate::spans::SpanCtx;

use super::design::Target;

/// A scheduled pipeline event. Delivery events carry their value as a
/// shared [`Payload`] handle and name components, device types and
/// sources by their compiled-design ids, so building or cloning an event
/// (fan-out, injected duplicates, retry re-sends) allocates nothing.
#[derive(Clone)]
pub(crate) enum Event {
    /// A process emitted a source value (event-driven delivery).
    Emit {
        entity: EntityId,
        source: u32,
        value: Payload,
        index: Option<Payload>,
    },
    /// A source emission arrives at a subscribed context. The activation
    /// index was resolved at route time (the route predicate equals the
    /// activation-lookup predicate, so the resolution cannot diverge).
    SourceDeliver {
        context: u32,
        entity: EntityId,
        device_type: u32,
        source: u32,
        value: Payload,
        index: Option<Payload>,
        activation_idx: usize,
        /// Causal-tracing correlation IDs ([`SpanCtx::NONE`] when span
        /// tracing was off at admission).
        span: SpanCtx,
    },
    /// A context publication arrives at a subscribed context.
    ContextDeliver {
        context: u32,
        from: u32,
        value: Payload,
        activation_idx: usize,
        span: SpanCtx,
    },
    /// A context publication arrives at a subscribed controller.
    ControllerDeliver {
        controller: u32,
        from: u32,
        value: Payload,
        span: SpanCtx,
    },
    /// Time to poll a periodic activation.
    PeriodicPoll { context: u32, activation_idx: usize },
    /// A gathered periodic batch arrives at its context. Boxed, so a
    /// batch does not widen every event in the queue.
    BatchDeliver {
        context: u32,
        activation_idx: usize,
        batch: Box<Gathered>,
        window_ms: Option<u64>,
        span: SpanCtx,
    },
    /// A simulation process wakes.
    ProcessWake { idx: usize },
    /// A scheduled fault fires (index into the fault plan).
    Fault { idx: usize },
    /// Periodic lease sweep (scheduled when leases are enabled).
    LeaseCheck,
    /// A delivery dropped by an injected fault is re-sent with backoff.
    Redeliver {
        event: Box<Event>,
        /// The send attempt this resend constitutes (initial send = 1).
        attempt: u32,
        /// When the initial send happened, for the retry timeout.
        first_sent_at: SimTime,
    },
}

impl Event {
    /// The component a delivery event is addressed to (`None` for
    /// non-delivery events). Contexts are QoS-budgeted; controllers not.
    pub(crate) fn target(&self) -> Option<Target> {
        match self {
            Event::SourceDeliver { context, .. }
            | Event::ContextDeliver { context, .. }
            | Event::BatchDeliver { context, .. } => Some(Target::Context(*context)),
            Event::ControllerDeliver { controller, .. } => Some(Target::Controller(*controller)),
            _ => None,
        }
    }

    /// The causal-tracing context the event carries
    /// ([`SpanCtx::NONE`] for non-delivery events).
    pub(crate) fn span(&self) -> SpanCtx {
        match self {
            Event::SourceDeliver { span, .. }
            | Event::ContextDeliver { span, .. }
            | Event::ControllerDeliver { span, .. }
            | Event::BatchDeliver { span, .. } => *span,
            Event::Redeliver { event, .. } => event.span(),
            _ => SpanCtx::NONE,
        }
    }

    /// Re-parents the event under a new span (used by the schedule stage
    /// so each scheduled copy parents under its own transport span).
    pub(crate) fn set_span(&mut self, ctx: SpanCtx) {
        match self {
            Event::SourceDeliver { span, .. }
            | Event::ContextDeliver { span, .. }
            | Event::ControllerDeliver { span, .. }
            | Event::BatchDeliver { span, .. } => *span = ctx,
            Event::Redeliver { event, .. } => event.set_span(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn delivery_events_name_their_target() {
        let ev = Event::ContextDeliver {
            context: 2,
            from: 1,
            value: Payload::new(Value::Bool(true)),
            activation_idx: 0,
            span: SpanCtx::NONE,
        };
        assert_eq!(ev.target(), Some(Target::Context(2)));
        let ev = Event::ControllerDeliver {
            controller: 0,
            from: 2,
            value: Payload::new(Value::Int(3)),
            span: SpanCtx::NONE,
        };
        assert_eq!(ev.target(), Some(Target::Controller(0)));
        assert_eq!(Event::LeaseCheck.target(), None);
    }

    #[test]
    fn contained_errors_are_bounded_under_sustained_failure() {
        use crate::engine::{Orchestrator, ERRORS_CAP};
        use crate::error::RuntimeError;
        use diaspec_core::compile_str;
        use std::sync::Arc;

        let spec = Arc::new(compile_str("device D { source s as Integer; }").unwrap());
        let mut orch = Orchestrator::new(spec);
        // A pathological run: one million contained failures. The buffer
        // must stop growing at the cap while the counters stay honest.
        const TOTAL: u64 = 1_000_000;
        for _ in 0..TOTAL {
            orch.contain(RuntimeError::Configuration("boom".to_owned()));
        }
        assert_eq!(orch.metrics().component_errors, TOTAL);
        assert_eq!(
            orch.errors_dropped(),
            TOTAL - u64::try_from(ERRORS_CAP).unwrap()
        );
        let buffered = orch.drain_errors();
        assert_eq!(buffered.len(), ERRORS_CAP);
        // Draining resets the overflow window.
        assert_eq!(orch.errors_dropped(), 0);
        orch.contain(RuntimeError::Configuration("boom".to_owned()));
        assert_eq!(orch.errors_dropped(), 0);
        assert_eq!(orch.drain_errors().len(), 1);
    }

    #[test]
    fn an_event_is_72_bytes() {
        // Every queued event is as wide as the widest variant: a batch
        // type that grew inline here would widen each event the
        // event-driven path queues.
        assert_eq!(std::mem::size_of::<Event>(), 72);
    }

    #[test]
    fn cloning_an_event_shares_its_payload() {
        let value = Payload::new(Value::Str("big".into()));
        let ev = Event::Emit {
            entity: "s1".into(),
            source: 0,
            value: value.clone(),
            index: None,
        };
        let copy = ev.clone();
        // Original handle + event + clone = 3 handles, one value.
        assert_eq!(value.handle_count(), 3);
        drop(copy);
        assert_eq!(value.handle_count(), 2);
    }
}
