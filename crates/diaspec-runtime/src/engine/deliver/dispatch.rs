//! Stage 4 — **dispatch**: a due event leaves the queue and activates
//! its target.
//!
//! Dispatch is the pipeline's consumer end: it pattern-matches the due
//! [`Event`] and drives the paper's activities — component activation
//! (contexts and controllers, with Sense-Compute-Control conformance
//! enforced), periodic polling with window accumulation, batch
//! processing on the MapReduce substrate, scheduled faults, lease
//! sweeps, and recovery notification. Payload-carrying events hand the
//! borrowed value straight to component logic (`&Payload` dereferences
//! to [`Value`]) — the pipeline never deep-copies a value between
//! admission and activation.

use crate::component::{
    BatchData, ContextActivation, ContextLogic, ControllerLogic, Gathered, Groups, MapReduceLogic,
};
use crate::engine::design::{Design, Periodic};
use crate::engine::{ContextApi, ControllerApi, Orchestrator, ProcessApi, ProcessingMode};
use crate::error::RuntimeError;
use crate::fault::{FaultInjector, FaultKind};
use crate::obs::Activity;
use crate::payload::Payload;
use crate::spans::{SpanCtx, SpanStage};
use crate::trace::TraceKind;
use crate::value::Value;
use diaspec_mapreduce::{
    CoverageReport, ExecutionStats, Job, MapCollector, MapReduce, ReduceCollector, TaskError,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use super::Event;

impl Orchestrator {
    /// Consumes one due event.
    pub(crate) fn dispatch(&mut self, event: Event) {
        // Names are borrowed from the compiled design, held by a handle
        // while the engine is mutated.
        let design = Arc::clone(&self.design);
        match event {
            Event::Emit {
                entity,
                source,
                value,
                index,
            } => self.dispatch_emit(&design, &entity, source, &value, index.as_ref()),
            Event::SourceDeliver {
                context,
                entity,
                device_type,
                source,
                value,
                index,
                activation_idx,
                span,
            } => {
                let arrival = self.begin(span, SpanStage::Dispatch, None, || {
                    design.contexts.name(context).into()
                });
                let input = ContextActivation::SourceEvent {
                    device_type: design.types.name(device_type),
                    entity: &entity,
                    source: design.sources.name(source),
                    value: &value,
                    index: index.as_deref(),
                };
                self.activate_context(&design, context, activation_idx, input, arrival.ctx());
                self.end(arrival);
            }
            Event::ContextDeliver {
                context,
                from,
                value,
                activation_idx,
                span,
            } => {
                let arrival = self.begin(span, SpanStage::Dispatch, None, || {
                    design.contexts.name(context).into()
                });
                let input = ContextActivation::ContextEvent {
                    context: design.contexts.name(from),
                    value: &value,
                };
                self.activate_context(&design, context, activation_idx, input, arrival.ctx());
                self.end(arrival);
            }
            Event::ControllerDeliver {
                controller,
                from,
                value,
                span,
            } => {
                let arrival = self.begin(span, SpanStage::Dispatch, None, || {
                    design.controllers.name(controller).into()
                });
                let from = design.contexts.name(from);
                self.activate_controller(&design, controller, from, &value, arrival.ctx());
                self.end(arrival);
            }
            Event::PeriodicPoll {
                context,
                activation_idx,
            } => self.dispatch_periodic_poll(&design, context, activation_idx),
            Event::BatchDeliver {
                context,
                activation_idx,
                batch,
                window_ms,
                span,
            } => self.dispatch_batch(&design, context, activation_idx, *batch, window_ms, span),
            Event::ProcessWake { idx } => {
                let Some(mut process) = self.processes[idx].process.take() else {
                    return;
                };
                // A wake belongs to no flow: it is timed as processing but
                // opens no span.
                let name = Arc::clone(&self.processes[idx].name);
                let wake = self.begin(
                    SpanCtx::NONE,
                    SpanStage::Compute,
                    Some(Activity::Processing),
                    || format!("process:{name}").into(),
                );
                let next = {
                    let mut api = ProcessApi { engine: self };
                    process.wake(&mut api)
                };
                self.end(wake);
                self.processes[idx].process = Some(process);
                if let Some(at) = next {
                    self.queue.schedule(at, Event::ProcessWake { idx });
                }
            }
            Event::Fault { idx } => self.dispatch_fault(idx),
            Event::LeaseCheck => self.dispatch_lease_check(),
            Event::Redeliver {
                event,
                attempt,
                first_sent_at,
            } => self.send_event(&design, *event, attempt, first_sent_at),
        }
    }

    /// Applies a scheduled fault (crash, restart).
    fn dispatch_fault(&mut self, idx: usize) {
        let Some(kind) = self
            .faults
            .as_ref()
            .and_then(|injector| injector.scheduled().get(idx))
            .map(|fault| fault.kind.clone())
        else {
            return;
        };
        let (entity, crashed) = match &kind {
            FaultKind::DeviceCrash { entity } => (entity, true),
            FaultKind::DeviceRestart { entity } => (entity, false),
        };
        if self.registry.set_crashed(entity, crashed).is_ok() {
            self.faults
                .as_mut()
                .expect("fault injector enabled")
                .count_injection();
            self.metrics.faults_injected += 1;
            self.note(|| TraceKind::FaultInjected {
                fault: kind.to_string(),
            });
        }
    }

    /// Periodic lease sweep: expires silent bindings, promotes standbys,
    /// traces the transitions, and notifies interested components.
    fn dispatch_lease_check(&mut self) {
        let Some(interval) = self.recovery.lease_check_interval_ms() else {
            return;
        };
        let now = self.queue.now();
        let transitions = self.registry.expire_leases(now);
        for transition in &transitions {
            self.metrics.lease_expiries += 1;
            self.note(|| TraceKind::LeaseExpired {
                entity: transition.lost.id.to_string(),
            });
            // Recovery cost: how long the loss went undetected (bounded
            // by the sweep interval).
            self.obs.record(
                Activity::Recovering,
                &transition.lost.device_type,
                now.saturating_sub(transition.deadline),
            );
            // Each recovery episode is its own trace: a root recover span
            // spanning the undetected-loss window.
            let episode = self.flow(SpanCtx::NONE);
            self.point(
                episode,
                SpanStage::Recover,
                || (&*transition.lost.device_type).into(),
                transition.deadline.min(now),
                now,
            );
            if let Some(replacement) = &transition.replacement {
                self.metrics.rebinds += 1;
                self.note(|| TraceKind::Rebound {
                    lost: transition.lost.id.to_string(),
                    replacement: replacement.to_string(),
                });
            }
        }
        for transition in transitions {
            if let Some(replacement) = transition.replacement {
                self.notify_recovery(
                    &transition.lost.id,
                    &transition.lost.device_type,
                    &replacement,
                );
            }
        }
        self.queue.schedule(now + interval, Event::LeaseCheck);
    }

    /// Invokes the `on_recovery` hook of every component whose design
    /// references the lost device's family, controllers first, each in
    /// name order.
    fn notify_recovery(
        &mut self,
        lost: &crate::entity::EntityId,
        device_type: &str,
        replacement: &crate::entity::EntityId,
    ) {
        let design = Arc::clone(&self.design);
        for id in design.controllers.ids() {
            if !design.addresses(id, device_type) {
                continue;
            }
            let slot = id as usize;
            let Some(mut logic) = self.controllers[slot].logic.take() else {
                continue;
            };
            let result = {
                let mut api = ControllerApi {
                    engine: self,
                    design: &design,
                    id,
                    controller: design.controllers.name(id),
                };
                logic.on_recovery(&mut api, lost, replacement)
            };
            self.controllers[slot].logic = Some(logic);
            if let Err(e) = result {
                self.contain(e.into());
            }
        }
        for id in design.contexts.ids() {
            if !design.references(id, device_type) {
                continue;
            }
            let name = design.contexts.name(id);
            let slot = id as usize;
            let Some(mut logic) = self.contexts[slot].logic.take() else {
                continue;
            };
            let result = {
                let mut api = ContextApi {
                    engine: self,
                    context: name,
                };
                logic.on_recovery(&mut api, lost, replacement)
            };
            self.contexts[slot].logic = Some(logic);
            if let Err(e) = result {
                self.contain(e.into());
            }
        }
    }

    fn dispatch_periodic_poll(&mut self, design: &Design, id: u32, activation_idx: usize) {
        let context = design.contexts.name(id);
        let Some(Some(periodic)) = design.context(id).periodic.get(activation_idx) else {
            return;
        };
        let &Periodic {
            device,
            source,
            period_ms,
            window_ms,
            ..
        } = periodic;
        let (device, source) = (design.types.name(device), design.sources.name(source));

        // Poll the whole device family (query-driven under the hood; the
        // paper requires drivers to support all three delivery modes).
        // Each poll mints one trace; its admit span covers the poll and
        // the per-reading transport sampling (individual readings are not
        // traced — one span per reading would dwarf the data).
        let now = self.queue.now();
        let root = self.flow(SpanCtx::NONE);
        let admit = self.begin(root, SpanStage::Admit, None, || {
            format!("{context}/poll").into()
        });
        let group_by = periodic.group_by.as_deref();
        let readings = self.registry.poll(device, source, group_by, now);
        self.metrics.periodic_deliveries += 1;
        self.metrics.readings_polled += readings.len() as u64;
        self.note(|| TraceKind::PeriodicPoll {
            device: device.to_owned(),
            source: source.to_owned(),
            readings: readings.len(),
        });

        // The activation's pending batch: a window's polls so far, or
        // nothing before this poll. A window flushes at the first poll at
        // or after its deadline; without `every`, every poll flushes.
        let window = &mut self.contexts[id as usize].windows[activation_idx];
        let flush = match window_ms {
            Some(window_ms) if now >= window.deadline => {
                window.deadline = now + window_ms;
                true
            }
            Some(_) => false,
            None => true,
        };
        let mut batch = window.batch.take();
        // The first poll sizes the batch for every poll it will hold.
        let polls = window_ms.map_or(1, |window_ms| {
            (window_ms / period_ms.max(1)).saturating_add(1)
        });
        batch.reserve_once(
            usize::try_from(polls)
                .unwrap_or(usize::MAX)
                .saturating_mul(readings.len()),
        );

        // Each reading crosses the transport and is appended as it
        // arrives; the batch arrives when its slowest delivered reading
        // does. An injected duplicate appends a second copy (handle
        // clones); a lost reading appends nothing.
        let mut max_latency = 0;
        for reading in readings {
            let outcome = self.sample_send();
            if let Some(latency) = outcome.duplicate {
                // At-least-once delivery: the injected duplicate shows up
                // as a second copy of the reading in the batch.
                self.metrics.messages_delivered += 1;
                self.metrics.total_transport_latency_ms += latency;
                self.obs.record(Activity::Delivering, context, latency);
                max_latency = max_latency.max(latency);
                batch.push(reading.clone());
            }
            match outcome.delivery {
                Some(latency) => {
                    self.metrics.messages_delivered += 1;
                    self.metrics.total_transport_latency_ms += latency;
                    self.obs.record(Activity::Delivering, context, latency);
                    max_latency = max_latency.max(latency);
                    batch.push(reading);
                }
                // Dropped poll readings are not retried: the next poll
                // supersedes them.
                None => self.metrics.messages_lost += 1,
            }
        }
        let span = admit.ctx();
        self.end(admit);

        if flush {
            self.check_qos(id, max_latency);
            // One schedule span stands for the whole batch hop (the batch
            // arrives with its slowest delivered reading). A window flush
            // is attributed to the poll that flushed it.
            let batch_span = self.point(
                span,
                SpanStage::Schedule,
                || context.into(),
                now,
                now + max_latency,
            );
            self.queue.schedule_in(
                max_latency,
                Event::BatchDeliver {
                    context: id,
                    activation_idx,
                    batch: Box::new(batch),
                    window_ms,
                    span: batch_span,
                },
            );
        } else {
            self.contexts[id as usize].windows[activation_idx].batch = batch;
        }

        // Keep the cadence anchored to the poll time, not delivery time.
        self.queue.schedule(
            now + period_ms,
            Event::PeriodicPoll {
                context: id,
                activation_idx,
            },
        );
    }

    fn dispatch_batch(
        &mut self,
        design: &Design,
        id: u32,
        activation_idx: usize,
        batch: Gathered,
        window_ms: Option<u64>,
        span: SpanCtx,
    ) {
        let context = design.contexts.name(id);
        let Some(Some(periodic)) = design.context(id).periodic.get(activation_idx) else {
            return;
        };
        let arrival = self.begin(span, SpanStage::Dispatch, None, || context.into());
        let ctx = arrival.ctx();

        // The grouped records are indexed in group order by one counting
        // pass over their positions; no reading is cloned or re-hashed.
        let (readings, grouped) = batch.seal();

        // A MapReduce activation always groups (`grouped by ... with map`).
        let (reduced, coverage) = match grouped.as_ref().filter(|_| periodic.map_reduce) {
            None => (None, None),
            Some(groups) => match self.contexts[id as usize].map_reduce.clone() {
                Some(mr) => self.process_batch(design, id, mr.as_ref(), groups, ctx),
                None => {
                    self.contain(RuntimeError::Configuration(format!(
                        "context `{context}` reached a MapReduce batch without phases"
                    )));
                    (None, None)
                }
            },
        };

        let batch = BatchData {
            device_type: design.types.name(periodic.device).to_owned(),
            source: design.sources.name(periodic.source).to_owned(),
            readings,
            grouped,
            reduced,
            coverage,
            window_ms,
        };
        let batch = ContextActivation::Batch(&batch);
        self.activate_context(design, id, activation_idx, batch, ctx);
        self.end(arrival);
    }

    /// Runs a batch through the context's MapReduce phases. The Map
    /// phase reads the grouped records in batch order, so the task
    /// chunks (and with them every seeded task fate and coverage report)
    /// do not depend on the grouping layout.
    fn process_batch(
        &mut self,
        design: &Design,
        id: u32,
        mr: &dyn MapReduceLogic,
        groups: &Groups,
        ctx: SpanCtx,
    ) -> (Option<BTreeMap<Value, Value>>, Option<CoverageReport>) {
        let context = design.contexts.name(id);
        self.metrics.map_reduce_executions += 1;
        // Batch ingestion into the MapReduce substrate is its own span;
        // the per-phase wall times become compute spans nested under it.
        let ingest = self.begin(ctx, SpanStage::Ingest, None, || context.into());
        // The records know their length, so the executor collects the
        // Map input with one allocation.
        let input = groups.records();
        let job = match self.processing {
            ProcessingMode::Serial => Job::serial(),
            ProcessingMode::Parallel(workers) => Job::parallel(workers),
        }
        .task_retries(self.recovery.task_retries)
        .allow_partial(true);
        let job = match self.faults.as_ref().and_then(FaultInjector::task_plan) {
            Some(plan) => job.fault_plan(plan.clone()),
            None => Ok(job),
        };
        let run = job.and_then(|job| {
            job.try_run_to_map(&LogicAdapter(mr), input)
                .map_err(|err| err.to_string())
        });
        let outcome = match run {
            Ok(result) => {
                // Surface the executor's per-phase wall times as
                // processing durations and compute spans.
                for (phase, time) in [
                    ("map", result.stats.map_time),
                    ("shuffle", result.stats.shuffle_time),
                    ("reduce", result.stats.reduce_time),
                ] {
                    let scope =
                        self.leaf(ingest.ctx(), SpanStage::Compute, Some(Activity::Processing));
                    let us = u64::try_from(time.as_micros()).unwrap_or(u64::MAX);
                    self.end_measured(scope, us, || format!("{context}/{phase}").into());
                }
                self.account_batch_processing(design, id, &result.stats, &result.failed_tasks);
                (Some(result.output), Some(result.stats.coverage))
            }
            Err(err) => {
                // Unreachable while `allow_partial` is set and
                // `enable_faults` validated the plan, but contained rather
                // than trusted.
                self.contain(RuntimeError::Configuration(format!(
                    "context `{context}` batch processing failed: {err}"
                )));
                (None, None)
            }
        };
        self.end(ingest);
        outcome
    }

    /// Folds one batch execution's fault-tolerance outcome into metrics,
    /// traces, observability, and the context's `@quality` verdict.
    fn account_batch_processing(
        &mut self,
        design: &Design,
        id: u32,
        stats: &ExecutionStats,
        failed_tasks: &[TaskError],
    ) {
        let context = design.contexts.name(id);
        let coverage = stats.coverage;
        self.metrics.task_retries += u64::from(coverage.task_retries);
        self.metrics.tasks_failed += failed_tasks.len() as u64;
        if coverage.injected_faults > 0 {
            self.metrics.faults_injected += u64::from(coverage.injected_faults);
            if let Some(injector) = self.faults.as_mut() {
                for _ in 0..coverage.injected_faults {
                    injector.count_injection();
                }
            }
        }
        for failed in failed_tasks {
            self.note(|| TraceKind::TaskFailed {
                context: context.to_owned(),
                phase: failed.phase.to_string(),
                task: u32::try_from(failed.task).unwrap_or(u32::MAX),
                attempts: failed.attempts,
            });
        }
        if self.obs.is_enabled() && !stats.recovery_time.is_zero() {
            let us = u64::try_from(stats.recovery_time.as_micros()).unwrap_or(u64::MAX);
            self.obs
                .record(Activity::Recovering, &format!("{context}/tasks"), us);
        }
        let budget = design.context(id).quality;
        // A missed processing deadline is a QoS violation, not lost
        // coverage: the results are complete, just late.
        if budget
            .deadline_ms
            .is_some_and(|ms| stats.total_time() > Duration::from_millis(ms))
        {
            self.metrics.qos_violations += 1;
        }
        let coverage_pct = coverage.percent_covered();
        if coverage_pct < budget.coverage_pct {
            self.metrics.batches_degraded += 1;
            self.note(|| TraceKind::BatchDegraded {
                context: context.to_owned(),
                coverage_pct,
                threshold_pct: budget.coverage_pct,
                failed_tasks: u32::try_from(failed_tasks.len()).unwrap_or(u32::MAX),
            });
            self.contain(RuntimeError::DegradedBatch {
                context: context.to_owned(),
                coverage_pct,
                threshold_pct: budget.coverage_pct,
            });
        }
    }

    // ---- component activation ---------------------------------------------

    /// The one activation body: takes the component's logic out of its
    /// slot, runs it under a compute scope with the span cursor pointing
    /// at that scope — so actuations and query-driven computations nest
    /// under it — then restores the cursor and puts the logic back.
    /// `started` runs once the logic is in hand (the activation's own
    /// counters and trace event). Returns the logic's result and the
    /// compute context, or `None` when the slot is empty: the component
    /// is already running (re-entrancy).
    fn run_component<L, R>(
        &mut self,
        (id, name): (u32, &str),
        span: SpanCtx,
        slot: fn(&mut Self, u32) -> &mut Option<L>,
        started: impl FnOnce(&mut Self),
        run: impl FnOnce(&mut Self, &mut L) -> R,
    ) -> Option<(R, SpanCtx)> {
        let mut logic = slot(self, id).take()?;
        started(self);
        // The compute span closes before a resulting publication is
        // admitted.
        let compute = self.begin(span, SpanStage::Compute, Some(Activity::Processing), || {
            name.into()
        });
        let ctx = compute.ctx();
        let prev = std::mem::replace(&mut self.span_cursor, ctx);
        let result = run(self, &mut logic);
        self.span_cursor = prev;
        self.end(compute);
        *slot(self, id) = Some(logic);
        Some((result, ctx))
    }

    fn context_slot(&mut self, id: u32) -> &mut Option<Box<dyn ContextLogic>> {
        &mut self.contexts[id as usize].logic
    }

    fn controller_slot(&mut self, id: u32) -> &mut Option<Box<dyn ControllerLogic>> {
        &mut self.controllers[id as usize].logic
    }

    fn activate_context(
        &mut self,
        design: &Design,
        id: u32,
        activation_idx: usize,
        input: ContextActivation<'_>,
        span: SpanCtx,
    ) {
        let name = design.contexts.name(id);
        let Some(&publish_mode) = design.context(id).publish.get(activation_idx) else {
            return;
        };
        let Some((result, ctx)) = self.run_component(
            (id, name),
            span,
            Self::context_slot,
            |engine| {
                engine.metrics.context_activations += 1;
                engine.note(|| TraceKind::ContextActivation {
                    context: name.to_owned(),
                });
            },
            |engine, logic| {
                let mut api = ContextApi {
                    engine,
                    context: name,
                };
                logic.activate(&mut api, input)
            },
        ) else {
            self.contain(RuntimeError::ContractViolation {
                component: name.to_owned(),
                message: "re-entrant activation (a `get` cycle at runtime?)".to_owned(),
            });
            return;
        };
        match result {
            Err(e) => self.contain(e.into()),
            Ok(maybe_value) => {
                self.handle_publication(design, id, publish_mode, maybe_value, ctx);
            }
        }
    }

    fn activate_controller(
        &mut self,
        design: &Design,
        id: u32,
        from: &str,
        value: &Value,
        span: SpanCtx,
    ) {
        let name = design.controllers.name(id);
        let Some((result, _)) = self.run_component(
            (id, name),
            span,
            Self::controller_slot,
            |engine| {
                engine.metrics.controller_activations += 1;
                engine.note(|| TraceKind::ControllerActivation {
                    controller: name.to_owned(),
                    from: from.to_owned(),
                });
            },
            |engine, logic| {
                let mut api = ControllerApi {
                    engine,
                    design,
                    id,
                    controller: name,
                };
                logic.on_context(&mut api, from, value)
            },
        ) else {
            self.contain(RuntimeError::ContractViolation {
                component: name.to_owned(),
                message: "re-entrant controller activation".to_owned(),
            });
            return;
        };
        if let Err(e) = result {
            self.contain(e.into());
        }
    }

    /// Computes the on-demand value of a `when required` context.
    pub(crate) fn compute_on_demand(&mut self, name: &str) -> Result<Value, RuntimeError> {
        let unknown = || RuntimeError::Unknown {
            kind: "context",
            name: name.to_owned(),
        };
        let id = self.design.contexts.id(name).ok_or_else(unknown)?;
        if !self.design.context(id).required {
            return Err(RuntimeError::ContractViolation {
                component: name.to_owned(),
                message: "context does not declare `when required`".to_owned(),
            });
        }
        // Query-driven computation nests under whatever activation asked
        // for it (the span cursor), forming a compute-inside-compute
        // chain for `get` cascades.
        let (result, _) = self
            .run_component(
                (id, name),
                self.span_cursor,
                Self::context_slot,
                |engine| {
                    engine.metrics.on_demand_computations += 1;
                    engine.metrics.context_activations += 1;
                },
                |engine, logic| {
                    let mut api = ContextApi {
                        engine,
                        context: name,
                    };
                    logic.activate(&mut api, ContextActivation::OnDemand)
                },
            )
            .ok_or_else(|| RuntimeError::ContractViolation {
                component: name.to_owned(),
                message: "re-entrant on-demand computation (a `get` cycle?)".to_owned(),
            })?;

        let slot = &mut self.contexts[id as usize];
        match result.map_err(RuntimeError::from)? {
            Some(value) => {
                let output_ty = &self.design.context(id).output;
                if !value.conforms_to(output_ty, &self.spec) {
                    return Err(RuntimeError::TypeMismatch {
                        at: format!("on-demand value of context `{name}`"),
                        expected: output_ty.to_string(),
                        found: value.to_string(),
                    });
                }
                slot.last_value = Some(Payload::new(value.clone()));
                Ok(value)
            }
            // Fall back to the most recent value when the logic has
            // nothing fresher (e.g. it accumulates from periodic polls).
            None => {
                slot.last_value
                    .as_deref()
                    .cloned()
                    .ok_or_else(|| RuntimeError::ContractViolation {
                        component: name.to_owned(),
                        message: "on-demand computation produced no value and none is cached"
                            .to_owned(),
                    })
            }
        }
    }
}

/// Adapts a dynamic [`MapReduceLogic`] to the typed
/// [`diaspec_mapreduce::MapReduce`] interface. Input records borrow the
/// batch's payload handles; `&Payload` dereferences to [`Value`] at the
/// trait boundary.
struct LogicAdapter<'a>(&'a dyn MapReduceLogic);

impl<'r> MapReduce<&'r Payload, &'r Payload, Value, Value, Value, Value> for LogicAdapter<'_> {
    fn map(
        &self,
        key: &&'r Payload,
        value: &&'r Payload,
        collector: &mut MapCollector<Value, Value>,
    ) {
        self.0.map(key, value, &mut |k, v| collector.emit_map(k, v));
    }

    fn reduce(&self, key: &Value, values: &[Value], collector: &mut ReduceCollector<Value, Value>) {
        collector.emit_reduce(key.clone(), self.0.reduce(key, values));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaspec_core::compile_str;
    use std::sync::Arc;

    /// A driver that accepts any actuation and serves no sources.
    struct AcceptAllDriver;

    impl crate::entity::DeviceInstance for AcceptAllDriver {
        fn query(&mut self, source: &str, _now: u64) -> Result<Value, crate::error::DeviceError> {
            Err(crate::error::DeviceError::new("test", source, "no sources"))
        }

        fn invoke(
            &mut self,
            _action: &str,
            _args: &[Value],
            _now: u64,
        ) -> Result<(), crate::error::DeviceError> {
            Ok(())
        }
    }

    #[test]
    fn end_to_end_chain_activates_each_stage_once() {
        let spec = Arc::new(
            compile_str(
                r#"
                device Button { source pressed as Boolean; }
                device Bell { action ring; }
                context Pressed as Boolean {
                  when provided pressed from Button always publish;
                }
                controller Ring { when provided Pressed do ring on Bell; }
                "#,
            )
            .unwrap(),
        );
        let mut orch = Orchestrator::new(spec);
        orch.register_context(
            "Pressed",
            |_: &mut ContextApi<'_>, _: ContextActivation<'_>| Ok(Some(Value::Bool(true))),
        )
        .unwrap();
        orch.register_controller("Ring", |api: &mut ControllerApi<'_>, _: &str, _: &Value| {
            for bell in api.discover("Bell")?.ids() {
                api.invoke(&bell, "ring", &[])?;
            }
            Ok(())
        })
        .unwrap();
        orch.bind_entity(
            "b1".into(),
            "Button",
            Default::default(),
            Box::new(|_: &str, _: u64| Ok(Value::Bool(false))),
        )
        .unwrap();
        orch.bind_entity(
            "bell-1".into(),
            "Bell",
            Default::default(),
            Box::new(AcceptAllDriver),
        )
        .unwrap();
        orch.launch().unwrap();
        orch.emit_at(5, &"b1".into(), "pressed", Value::Bool(true), None)
            .unwrap();
        orch.run_until(10);
        assert_eq!(orch.metrics().emissions, 1);
        assert_eq!(orch.metrics().context_activations, 1);
        assert_eq!(orch.metrics().publications, 1);
        assert_eq!(orch.metrics().controller_activations, 1);
        assert_eq!(orch.metrics().actuations, 1);
    }

    #[test]
    fn fan_out_shares_one_payload_across_all_deliveries() {
        let spec = Arc::new(
            compile_str(
                r#"
                device Sensor { source reading as Integer; }
                context A as Integer { when provided reading from Sensor maybe publish; }
                context B as Integer { when provided reading from Sensor maybe publish; }
                context C as Integer { when provided reading from Sensor maybe publish; }
                "#,
            )
            .unwrap(),
        );
        let mut orch = Orchestrator::new(spec);
        for name in ["A", "B", "C"] {
            orch.register_context(
                name,
                |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| {
                    if let ContextActivation::SourceEvent { value, .. } = activation {
                        assert_eq!(value.as_int(), Some(42));
                    }
                    Ok(None)
                },
            )
            .unwrap();
        }
        orch.bind_entity(
            "s1".into(),
            "Sensor",
            Default::default(),
            Box::new(|_: &str, _: u64| Ok(Value::Int(42))),
        )
        .unwrap();
        orch.launch().unwrap();
        orch.emit_at(1, &"s1".into(), "reading", Value::Int(42), None)
            .unwrap();
        orch.run_until(5);
        assert_eq!(orch.metrics().emissions, 1);
        assert_eq!(orch.metrics().context_activations, 3);
        assert_eq!(orch.metrics().messages_delivered, 3);
    }
}
