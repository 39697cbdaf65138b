//! Stage 3 — **schedule**: a routed event crosses the simulated
//! transport.
//!
//! Scheduling samples one transport hop per delivery event: latency, the
//! fault injector's message faults (drop / extra delay / duplicate), QoS
//! budget checks, and retry-with-backoff for dropped deliveries. Two
//! orderings here are part of the deterministic event order the golden
//! traces pin:
//!
//! - an injected **duplicate is scheduled before the primary** copy;
//! - the fault injector's RNG is consulted exactly once per send, in
//!   send order, so the fault sequence of a seeded run is reproducible.
//!
//! Because events carry [`Payload`](crate::payload::Payload) handles,
//! scheduling a duplicate or boxing an event for retry clones pointers,
//! never values.

use crate::clock::SimTime;
use crate::engine::Orchestrator;
use crate::obs::Activity;
use crate::spans::SpanStage;
use crate::trace::TraceKind;
use crate::transport::SendOutcome;
use std::sync::Arc;

use super::super::design::{Design, Target};
use super::Event;

impl Orchestrator {
    /// Checks a sampled delivery latency against the receiving context's
    /// declared `@qos(latencyMs = N)` budget (paper \[15\]).
    pub(crate) fn check_qos(&mut self, context: u32, latency: SimTime) {
        let Some(budget) = self.design.context(context).qos_ms else {
            return;
        };
        if latency > budget {
            self.metrics.qos_violations += 1;
            let design = Arc::clone(&self.design);
            let context = design.contexts.name(context);
            self.note(|| TraceKind::Error {
                message: format!(
                    "QoS violation: delivery to `{context}` took {latency} ms \
                     (budget {budget} ms)"
                ),
            });
        }
    }

    /// Samples one message across the transport, applying the fault
    /// injector when enabled; injected message faults are counted and
    /// traced here.
    pub(crate) fn sample_send(&mut self) -> SendOutcome {
        let Some(injector) = self.faults.as_mut() else {
            return SendOutcome::without_faults(self.transport.send());
        };
        let outcome = self.transport.send_through(injector);
        if outcome.fault_dropped {
            self.metrics.faults_injected += 1;
            self.note(|| TraceKind::FaultInjected {
                fault: "message drop".to_owned(),
            });
        }
        if outcome.extra_delay_ms > 0 {
            self.metrics.faults_injected += 1;
            self.note(|| TraceKind::FaultInjected {
                fault: format!("message delay +{} ms", outcome.extra_delay_ms),
            });
        }
        if outcome.duplicate.is_some() {
            self.metrics.faults_injected += 1;
            self.note(|| TraceKind::FaultInjected {
                fault: "message duplicate".to_owned(),
            });
        }
        outcome
    }

    /// Sends `event` across the transport (and the fault injector when
    /// enabled): schedules it on delivery, schedules the injected
    /// duplicate copy too, and arranges retry-with-backoff when the fault
    /// injector dropped the message. `attempt` numbers the send (initial
    /// send = 1) and `first_sent_at` anchors the retry timeout.
    pub(crate) fn send_event(
        &mut self,
        design: &Design,
        mut event: Event,
        attempt: u32,
        first_sent_at: SimTime,
    ) {
        let to = event.target();
        let target = to.map_or("", |to| design.target_name(to));
        let outcome = self.sample_send();
        // The schedule span covers the simulated transport hop — sim-time
        // extent, recorded as a sibling per scheduled copy. The base
        // context deliberately keeps the *route* parent so a retried
        // send's schedule span is a sibling of the failed one; each copy
        // carries its own hop's context so its dispatch parents under it.
        let base = event.span();
        let now = self.queue.now();
        let hop = |engine: &mut Self, latency: SimTime| {
            engine.point(
                base,
                SpanStage::Schedule,
                || target.into(),
                now,
                now + latency,
            )
        };
        if let Some(latency) = outcome.duplicate {
            self.metrics.messages_delivered += 1;
            self.metrics.total_transport_latency_ms += latency;
            self.obs.record(Activity::Delivering, target, latency);
            let mut copy = event.clone();
            copy.set_span(hop(self, latency));
            self.queue.schedule_in(latency, copy);
        }
        match outcome.delivery {
            Some(latency) => {
                self.metrics.messages_delivered += 1;
                self.metrics.total_transport_latency_ms += latency;
                self.obs.record(Activity::Delivering, target, latency);
                if let Some(Target::Context(context)) = to {
                    self.check_qos(context, latency);
                }
                event.set_span(hop(self, latency));
                self.queue.schedule_in(latency, event);
            }
            None if outcome.fault_dropped => {
                self.schedule_retry(target, event, attempt, first_sent_at);
            }
            None => self.metrics.messages_lost += 1,
        }
    }

    /// Arranges a backoff resend after the fault injector dropped a
    /// delivery. `failed_attempt` is the send attempt that just failed
    /// (initial send = 1); the delivery is abandoned once the configured
    /// retry budget or timeout is exhausted — or immediately when no
    /// retry is configured.
    fn schedule_retry(
        &mut self,
        target: &str,
        event: Event,
        failed_attempt: u32,
        first_sent_at: SimTime,
    ) {
        let Some(retry) = self.recovery.retry else {
            self.metrics.messages_lost += 1;
            return;
        };
        let now = self.queue.now();
        let backoff = retry.backoff_ms(failed_attempt);
        let retries_exhausted = failed_attempt > retry.max_attempts;
        let timed_out =
            now.saturating_add(backoff).saturating_sub(first_sent_at) > retry.timeout_ms;
        if retries_exhausted || timed_out {
            self.metrics.deliveries_abandoned += 1;
            self.metrics.messages_lost += 1;
            return;
        }
        self.metrics.delivery_retries += 1;
        self.note(|| TraceKind::DeliveryRetry {
            to: target.to_owned(),
            attempt: failed_attempt,
        });
        // Recovery cost: the backoff this delivery now waits out.
        self.obs.record(Activity::Recovering, target, backoff);
        // The retry span covers the backoff wait, a sibling of the failed
        // hop's schedule span (the boxed event keeps its route parent, so
        // the resend's schedule span lands beside this one too).
        self.point(
            event.span(),
            SpanStage::Retry,
            || target.into(),
            now,
            now + backoff,
        );
        self.queue.schedule_in(
            backoff,
            Event::Redeliver {
                event: Box::new(event),
                attempt: failed_attempt + 1,
                first_sent_at,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SpanCtx;
    use crate::value::Value;
    use diaspec_core::compile_str;
    use std::sync::Arc;

    fn orchestrator() -> Orchestrator {
        let spec = Arc::new(
            compile_str(
                r#"
                device Sensor { source reading as Integer; }
                @qos(latencyMs = 1)
                context Tight as Integer {
                  when provided reading from Sensor maybe publish;
                }
                context Untimed as Integer {
                  when provided reading from Sensor maybe publish;
                }
                "#,
            )
            .unwrap(),
        );
        Orchestrator::new(spec)
    }

    #[test]
    fn qos_budget_violations_are_counted_and_traced() {
        let mut orch = orchestrator();
        orch.set_tracing(true);
        let (tight, loose) = (0, 1);
        orch.check_qos(tight, 5);
        assert_eq!(orch.metrics().qos_violations, 1);
        let trace = orch.take_trace();
        assert_eq!(trace.len(), 1);
        assert!(matches!(&trace[0].kind, TraceKind::Error { message }
            if message.contains("QoS violation") && message.contains("budget 1 ms")));
        // Within budget, and contexts without a budget, never violate.
        orch.check_qos(tight, 1);
        orch.check_qos(loose, 1_000_000);
        assert_eq!(orch.metrics().qos_violations, 1);
    }

    #[test]
    fn ideal_transport_delivers_immediately_without_faults() {
        let mut orch = orchestrator();
        let event = Event::ContextDeliver {
            context: 0,
            from: 1,
            value: crate::payload::Payload::new(Value::Int(1)),
            activation_idx: 0,
            span: SpanCtx::NONE,
        };
        let design = Arc::clone(&orch.design);
        orch.send_event(&design, event, 1, 0);
        assert_eq!(orch.metrics().messages_delivered, 1);
        assert_eq!(orch.metrics().messages_lost, 0);
        assert_eq!(orch.metrics().qos_violations, 0);
    }
}
