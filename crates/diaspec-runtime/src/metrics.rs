//! Runtime metrics.
//!
//! The engine counts every orchestration-level event so experiments can
//! report message volumes, activation counts and delivery latencies per
//! configuration (see `EXPERIMENTS.md`, experiments E1 and E11).

use serde::{Deserialize, Serialize};

/// Counters accumulated by the orchestration engine during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RuntimeMetrics {
    /// Source values emitted by entities (event-driven deliveries).
    pub emissions: u64,
    /// Periodic batch deliveries performed.
    pub periodic_deliveries: u64,
    /// Individual readings gathered by periodic polls.
    pub readings_polled: u64,
    /// Context activations executed.
    pub context_activations: u64,
    /// Context publications routed to subscribers.
    pub publications: u64,
    /// Values a `maybe publish` context declined to publish.
    pub publications_declined: u64,
    /// Controller activations executed.
    pub controller_activations: u64,
    /// Device actions invoked by controllers.
    pub actuations: u64,
    /// Query-driven reads issued by components (`get` clauses).
    pub component_queries: u64,
    /// On-demand (`when required`) context computations.
    pub on_demand_computations: u64,
    /// Messages lost in the simulated transport.
    pub messages_lost: u64,
    /// Sum of transport latencies over delivered messages, in ms.
    pub total_transport_latency_ms: u64,
    /// Messages that crossed the simulated transport.
    pub messages_delivered: u64,
    /// MapReduce executions triggered by `grouped by ... with map ... reduce`.
    pub map_reduce_executions: u64,
    /// Component-logic errors observed (and contained) by the engine.
    pub component_errors: u64,
    /// Deliveries whose transport latency exceeded the receiving
    /// context's declared `@qos(latencyMs = N)` budget.
    pub qos_violations: u64,
    /// Faults applied by the fault injector (crashes, restarts, drops,
    /// duplicates, delays, partition windows).
    pub faults_injected: u64,
    /// Dropped deliveries re-sent with backoff (per retry attempt).
    pub delivery_retries: u64,
    /// Deliveries abandoned after exhausting their retry budget.
    pub deliveries_abandoned: u64,
    /// Leases that expired without renewal.
    pub lease_expiries: u64,
    /// Expired entities for which a standby was promoted and re-bound.
    pub rebinds: u64,
    /// Failed actuations masked by a declared `@error(fallback = ...)`.
    pub fallback_actuations: u64,
    /// Failed map/reduce task attempts re-executed during batch
    /// processing.
    pub task_retries: u64,
    /// Map/reduce tasks that exhausted their retry budget (their share
    /// of the batch was lost).
    pub tasks_failed: u64,
    /// Processed batches that landed below their `@quality` coverage
    /// threshold.
    pub batches_degraded: u64,
}

impl RuntimeMetrics {
    /// Mean transport latency over delivered messages, in milliseconds.
    #[must_use]
    pub fn mean_transport_latency_ms(&self) -> f64 {
        if self.messages_delivered == 0 {
            0.0
        } else {
            self.total_transport_latency_ms as f64 / self.messages_delivered as f64
        }
    }

    /// Total messages that entered the transport (delivered + lost).
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.messages_delivered + self.messages_lost
    }

    /// Total recovery actions taken by the engine (delivery retries,
    /// lease expiries, rebinds, fallback actuations, task retries). Zero
    /// in a run with faults disabled.
    #[must_use]
    pub fn recovery_actions(&self) -> u64 {
        self.delivery_retries
            + self.lease_expiries
            + self.rebinds
            + self.fallback_actuations
            + self.task_retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let mut m = RuntimeMetrics::default();
        assert_eq!(m.mean_transport_latency_ms(), 0.0);
        assert_eq!(m.messages_sent(), 0);
        m.messages_delivered = 4;
        m.total_transport_latency_ms = 100;
        m.messages_lost = 1;
        assert_eq!(m.mean_transport_latency_ms(), 25.0);
        assert_eq!(m.messages_sent(), 5);
    }

    #[test]
    fn serializes_for_experiment_reports() {
        let m = RuntimeMetrics {
            emissions: 3,
            ..RuntimeMetrics::default()
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: RuntimeMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
