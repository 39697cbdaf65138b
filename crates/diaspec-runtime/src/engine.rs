//! The orchestration engine.
//!
//! [`Orchestrator`] executes a checked DiaSpec design: it owns the entity
//! [`Registry`], the deterministic event queue, the simulated transport,
//! and the registered component logic, and it implements the paper's four
//! IoT activities end to end:
//!
//! 1. **Binding entities** — [`Orchestrator::bind_entity`] at any
//!    lifecycle phase; discovery through the registry.
//! 2. **Delivering data** — all three models: *event-driven* (processes
//!    emit source values, routed to `when provided` subscribers),
//!    *periodic* (the engine polls device families on the declared period,
//!    batches, groups, and delivers), and *query-driven* (`get` clauses
//!    through [`ContextApi`]).
//! 3. **Processing data** — `grouped by` partitioning, optional windows
//!    (`every <T>`), and MapReduce execution on the `diaspec-mapreduce`
//!    substrate.
//! 4. **Actuating entities** — controllers invoke device actions through a
//!    discover facade that enforces the declared `do ... on ...` contracts.
//!
//! Delivery itself is organized as an explicit four-stage pipeline —
//! *admit → route → schedule → dispatch* — in the `engine/deliver`
//! submodules (see `docs/ARCHITECTURE.md` for the stage-to-paper
//! mapping). Values travel the pipeline as shared
//! [`Payload`] handles: wrapped once at admission, cloned by handle
//! everywhere else.
//!
//! The engine also enforces Sense-Compute-Control conformance at runtime:
//! a component can only read what its declaration says it reads and only
//! actuate what it declares, publish modes are honored (`always` must
//! publish, `no` must not), and every value crossing a boundary is checked
//! against its declared type. Violations are contained and recorded (see
//! [`Orchestrator::drain_errors`]) so a faulty component cannot silently
//! corrupt an experiment.

mod api;
mod deliver;
mod design;
mod telemetry;

pub use api::{ContextApi, ControllerApi, ProcessApi};

use self::deliver::Event;
use self::design::Design;
use crate::clock::{EventQueue, SimTime};
use crate::component::{ContainedError, ContextLogic, ControllerLogic, Gathered, MapReduceLogic};
use crate::entity::{AttributeMap, BindingTime, DeviceInstance, EntityId};
use crate::error::RuntimeError;
use crate::fault::{FaultInjector, FaultPlan, RecoveryConfig};
use crate::metrics::RuntimeMetrics;
use crate::obs::{self, Activity, ObsHub, Ring};
use crate::payload::Payload;
use crate::registry::Registry;
use crate::spans::{SpanCtx, SpanEvent};
use crate::trace::{TraceEvent, TraceKind};
use crate::transport::{SimTransport, TransportConfig};
use crate::value::Value;
use diaspec_core::model::CheckedSpec;
use std::sync::Arc;

/// Hard cap on buffered contained errors. A pathological run (millions of
/// contract violations) stops growing the error buffer here; further
/// errors are counted in [`Orchestrator::errors_dropped`] instead of
/// buffered, so memory stays bounded while the count stays honest.
const ERRORS_CAP: usize = 100_000;

/// Cap on buffered trace events (oldest dropped, counted in
/// [`Orchestrator::trace_dropped`]).
const TRACE_CAP: usize = 100_000;

/// How MapReduce phases declared in the design are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProcessingMode {
    /// Single-threaded (the baseline of experiment E10).
    #[default]
    Serial,
    /// Parallel over this many worker threads.
    Parallel(usize),
}

/// Lifecycle phase of the orchestrator, determining the [`BindingTime`]
/// recorded for newly bound entities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Assembling the application: registering logic, binding
    /// configuration-time entities.
    Configuration,
    /// Infrastructure roll-out: binding deployment-time entities.
    Deployment,
    /// Running: periodic deliveries are scheduled; new bindings are
    /// runtime bindings.
    Launched,
}

/// A context's mutable slot, indexed by its id in the compiled design.
#[derive(Default)]
struct ContextRuntime {
    logic: Option<Box<dyn ContextLogic>>,
    map_reduce: Option<Arc<dyn MapReduceLogic>>,
    /// The most recent published/computed value, cached as a shared
    /// handle (it is also in flight to subscribers).
    last_value: Option<Payload>,
    /// One pending batch per activation, by activation index, built at
    /// launch (a periodic activation without `every` gathers one poll).
    windows: Vec<WindowBuffer>,
}

#[derive(Default)]
struct WindowBuffer {
    batch: Gathered,
    /// When an `every` window flushes next.
    deadline: SimTime,
}

/// A controller's mutable slot, indexed by its id.
#[derive(Default)]
struct ControllerRuntime {
    logic: Option<Box<dyn ControllerLogic>>,
}

struct ProcessSlot {
    /// Shared so a wake can label its scope while the engine is borrowed.
    name: Arc<str>,
    process: Option<Box<dyn crate::process::Process>>,
}

/// The orchestration engine. See the [module docs](self) for an overview.
///
/// # Examples
///
/// A minimal event-driven chain (sensor → context → controller → actuator):
///
/// ```
/// use diaspec_core::compile_str;
/// use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
/// use diaspec_runtime::component::ContextActivation;
/// use diaspec_runtime::entity::DeviceInstance;
/// use diaspec_runtime::error::{ComponentError, DeviceError};
/// use diaspec_runtime::value::Value;
/// use std::sync::Arc;
///
/// /// A bell that accepts any `ring` actuation.
/// struct BellDriver;
/// impl DeviceInstance for BellDriver {
///     fn query(&mut self, source: &str, _now: u64) -> Result<Value, DeviceError> {
///         Err(DeviceError::new("bell-1", source, "bells have no sources"))
///     }
///     fn invoke(&mut self, _action: &str, _args: &[Value], _now: u64) -> Result<(), DeviceError> {
///         Ok(())
///     }
/// }
///
/// fn pressed(
///     _api: &mut ContextApi<'_>,
///     activation: ContextActivation<'_>,
/// ) -> Result<Option<Value>, ComponentError> {
///     match activation {
///         ContextActivation::SourceEvent { value, .. } if value.as_bool() == Some(true) => {
///             Ok(Some(Value::Bool(true)))
///         }
///         _ => Ok(None),
///     }
/// }
///
/// fn ring(
///     api: &mut ControllerApi<'_>,
///     _context: &str,
///     _value: &Value,
/// ) -> Result<(), ComponentError> {
///     for bell in api.discover("Bell")?.ids() {
///         api.invoke(&bell, "ring", &[])?;
///     }
///     Ok(())
/// }
///
/// let spec = Arc::new(compile_str(r#"
///     device Button { source pressed as Boolean; }
///     device Bell { action ring; }
///     context Pressed as Boolean { when provided pressed from Button maybe publish; }
///     controller Ring { when provided Pressed do ring on Bell; }
/// "#)?);
/// let mut orch = Orchestrator::new(spec);
/// orch.register_context("Pressed", pressed)?;
/// orch.register_controller("Ring", ring)?;
/// orch.bind_entity("button-1".into(), "Button", Default::default(),
///     Box::new(|_: &str, _: u64| Ok(Value::Bool(false))))?;
/// orch.bind_entity("bell-1".into(), "Bell", Default::default(), Box::new(BellDriver))?;
/// orch.launch()?;
/// orch.emit_at(5, &"button-1".into(), "pressed", Value::Bool(true), None)?;
/// orch.run_until(10);
/// assert_eq!(orch.metrics().actuations, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Orchestrator {
    spec: Arc<CheckedSpec>,
    registry: Registry,
    queue: EventQueue<Event>,
    transport: SimTransport,
    metrics: RuntimeMetrics,
    /// The checked spec compiled to dense ids and tables, shared so a
    /// stage can borrow names and routes while it mutates the engine.
    design: Arc<Design>,
    contexts: Vec<ContextRuntime>,
    controllers: Vec<ControllerRuntime>,
    processes: Vec<ProcessSlot>,
    phase: Phase,
    processing: ProcessingMode,
    errors: Vec<ContainedError>,
    /// Errors discarded after [`ERRORS_CAP`] buffered entries; reset by
    /// [`Orchestrator::drain_errors`].
    errors_dropped: u64,
    /// The bounded trace buffer; enabled by [`Orchestrator::set_tracing`].
    trace: Ring<TraceEvent>,
    obs: ObsHub,
    /// Seeded fault injector, when fault injection is enabled.
    faults: Option<FaultInjector>,
    /// Recovery machinery configuration (leases, delivery retry).
    recovery: RecoveryConfig,
    /// The span under which in-flight component logic runs, so actuations
    /// and query-driven computations nest under the activating compute
    /// span. [`SpanCtx::NONE`] outside an activation or with tracing off.
    span_cursor: SpanCtx,
}

impl Orchestrator {
    /// Creates an orchestrator for a checked specification with an ideal
    /// (zero-latency, lossless) transport.
    #[must_use]
    pub fn new(spec: Arc<CheckedSpec>) -> Self {
        Orchestrator::with_transport(spec, TransportConfig::default())
    }

    /// Creates an orchestrator with a configured simulated transport.
    #[must_use]
    pub fn with_transport(spec: Arc<CheckedSpec>, transport: TransportConfig) -> Self {
        let registry = Registry::new(Arc::clone(&spec));
        let design = Design::build(&spec, registry.device_types().clone());
        Orchestrator {
            contexts: design.contexts.ids().map(|_| Default::default()).collect(),
            controllers: design
                .controllers
                .ids()
                .map(|_| Default::default())
                .collect(),
            design: Arc::new(design),
            registry,
            spec,
            queue: EventQueue::new(),
            transport: SimTransport::new(transport),
            metrics: RuntimeMetrics::default(),
            processes: Vec::new(),
            phase: Phase::Configuration,
            processing: ProcessingMode::default(),
            errors: Vec::new(),
            errors_dropped: 0,
            trace: Ring::new(TRACE_CAP, false),
            obs: ObsHub::new(),
            faults: None,
            recovery: RecoveryConfig::default(),
            span_cursor: SpanCtx::NONE,
        }
    }

    /// Enables seeded fault injection for this run. Must be called before
    /// [`Orchestrator::launch`] so the plan's scheduled faults (crashes,
    /// restarts) are installed in the event queue.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Configuration`] if already launched, or if a
    /// probability of the plan (message faults or the embedded task
    /// plan) is outside `[0, 1]` — the message names the field.
    pub fn enable_faults(&mut self, plan: FaultPlan) -> Result<(), RuntimeError> {
        if self.phase == Phase::Launched {
            return Err(RuntimeError::Configuration(
                "enable_faults must be called before launch".to_owned(),
            ));
        }
        self.faults = Some(FaultInjector::try_new(plan).map_err(RuntimeError::Configuration)?);
        Ok(())
    }

    /// Enables the recovery machinery: lease-based bindings (stamped onto
    /// already-bound entities immediately) and/or per-delivery retry with
    /// exponential backoff. Must be called before
    /// [`Orchestrator::launch`] so the periodic lease sweep is scheduled.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Configuration`] if already launched.
    pub fn enable_recovery(&mut self, config: RecoveryConfig) -> Result<(), RuntimeError> {
        if self.phase == Phase::Launched {
            return Err(RuntimeError::Configuration(
                "enable_recovery must be called before launch".to_owned(),
            ));
        }
        self.registry
            .set_lease_ttl(config.lease_ttl_ms, self.queue.now());
        self.recovery = config;
        Ok(())
    }

    /// Registers a standby entity that `Registry::expire_leases` can
    /// promote when a lease expires (automatic re-discovery).
    ///
    /// # Errors
    ///
    /// See [`Registry::register_standby`].
    pub fn register_standby(
        &mut self,
        id: EntityId,
        device_type: &str,
        attributes: AttributeMap,
        driver: Box<dyn DeviceInstance>,
    ) -> Result<(), RuntimeError> {
        self.registry
            .register_standby(id, device_type, attributes, driver)
    }

    /// Enables or disables execution tracing (off by default).
    pub fn set_tracing(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// Removes and returns all trace events recorded since the last call.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.drain()
    }

    /// Number of trace events dropped because the bounded trace buffer
    /// overflowed since the last [`Orchestrator::take_trace`] (draining
    /// resets the counter, so each drain reports a fresh window).
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// Enables or disables activity-duration recording (off by default).
    ///
    /// While enabled, the engine attributes durations to the paper's four
    /// activities — binding, delivering, processing, actuating — labeled
    /// with the component or device family involved, and the simulated
    /// transport keeps a per-hop latency histogram. Read the results with
    /// [`Orchestrator::observation`]. While disabled, the per-event cost
    /// is a single branch.
    pub fn set_observability(&mut self, enabled: bool) {
        self.obs.set_enabled(enabled);
        if enabled {
            self.transport.enable_latency_histogram();
        }
    }

    /// Attaches an observability sink: it is streamed every trace event
    /// the engine produces (independently of the bounded trace buffer)
    /// and receives each snapshot published with
    /// [`Orchestrator::publish_observation`].
    pub fn attach_observer(&mut self, observer: Box<dyn obs::Observer>) {
        self.obs.attach(observer);
    }

    /// Enables or disables causal span tracing (off by default).
    ///
    /// While enabled, the engine mints a trace at every publication and
    /// threads parent/child span IDs through admit → route → schedule →
    /// dispatch, context/controller activations, actuations, retries, and
    /// recovery episodes. Enabling also turns on span buffering (drain
    /// with [`Orchestrator::take_spans`]). While disabled, the per-site
    /// cost is a single branch.
    pub fn set_span_tracing(&mut self, enabled: bool) {
        self.obs.set_spans_enabled(enabled);
    }

    /// Controls whether completed spans are buffered for
    /// [`Orchestrator::take_spans`]. Turning buffering off while tracing
    /// stays on keeps the IDs and per-stage histograms (the load-harness
    /// configuration) without materializing span events.
    pub fn set_span_buffering(&mut self, enabled: bool) {
        self.obs.set_span_buffering(enabled);
    }

    /// Removes and returns all spans completed since the last call.
    pub fn take_spans(&mut self) -> Vec<SpanEvent> {
        self.obs.take_spans()
    }

    /// Spans dropped because the bounded span buffer overflowed since the
    /// last [`Orchestrator::take_spans`] (draining resets the counter).
    #[must_use]
    pub fn spans_dropped(&self) -> u64 {
        self.obs.spans_dropped()
    }

    /// Number of currently open (unclosed) spans. Zero whenever the
    /// engine is quiescent — every span the pipeline opens is closed
    /// before control returns to the caller.
    #[must_use]
    pub fn open_spans(&self) -> usize {
        self.obs.open_span_count()
    }

    /// Samples the engine's occupancy gauges: event-queue composition,
    /// contained-error buffer fill, and open spans.
    fn sample_gauges(&self) -> Vec<obs::GaugeSample> {
        let mut pending_emit = 0u64;
        let mut pending_delivery = 0u64;
        let mut pending_poll = 0u64;
        let mut pending_retry = 0u64;
        for event in self.queue.iter() {
            match event {
                Event::Emit { .. } => pending_emit += 1,
                Event::SourceDeliver { .. }
                | Event::ContextDeliver { .. }
                | Event::ControllerDeliver { .. }
                | Event::BatchDeliver { .. } => pending_delivery += 1,
                Event::PeriodicPoll { .. } => pending_poll += 1,
                Event::Redeliver { .. } => pending_retry += 1,
                _ => {}
            }
        }
        let gauge = |name: &str, value: u64| obs::GaugeSample {
            name: name.to_owned(),
            value,
        };
        vec![
            gauge("queue_depth", self.queue.len() as u64),
            gauge("queue_pending_emits", pending_emit),
            gauge("queue_pending_deliveries", pending_delivery),
            gauge("queue_pending_polls", pending_poll),
            gauge("queue_pending_retries", pending_retry),
            gauge("error_buffer_fill", self.errors.len() as u64),
            gauge("error_buffer_capacity", ERRORS_CAP as u64),
            gauge("open_spans", self.obs.open_span_count() as u64),
        ]
    }

    /// A point-in-time snapshot of the activity-labeled measurements,
    /// per-stage latency breakdowns, and occupancy gauges.
    #[must_use]
    pub fn observation(&self) -> obs::ObsSnapshot {
        let mut snapshot = self.obs.snapshot(self.queue.now());
        snapshot.gauges = self.sample_gauges();
        snapshot
    }

    /// Builds a snapshot and pushes it to every attached observer.
    pub fn publish_observation(&mut self) -> obs::ObsSnapshot {
        let snapshot = self.observation();
        self.obs.publish_snapshot(&snapshot);
        snapshot
    }

    /// Read access to the activity-duration histograms.
    #[must_use]
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// Read access to the simulated transport (delivery counters and the
    /// optional per-hop latency histogram).
    #[must_use]
    pub fn transport(&self) -> &SimTransport {
        &self.transport
    }

    /// Selects how declared MapReduce phases execute.
    pub fn set_processing_mode(&mut self, mode: ProcessingMode) {
        self.processing = mode;
    }

    /// The specification being orchestrated.
    #[must_use]
    pub fn spec(&self) -> &CheckedSpec {
        &self.spec
    }

    /// Current simulation time in milliseconds.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Engine metrics accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &RuntimeMetrics {
        &self.metrics
    }

    /// Read access to the entity registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The current lifecycle phase.
    #[must_use]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The last value published or computed by `context`, if any.
    #[must_use]
    pub fn last_value(&self, context: &str) -> Option<&Value> {
        let id = self.design.contexts.id(context)?;
        self.contexts[id as usize].last_value.as_deref()
    }

    /// Removes and returns all errors contained since the last call.
    ///
    /// The engine never aborts a run on a component or device failure; it
    /// records the error here and keeps orchestrating, so experiments with
    /// failure injection can observe exactly what went wrong and when.
    /// At most 100 000 errors are buffered between drains; the overflow
    /// count is reported by [`Orchestrator::errors_dropped`].
    pub fn drain_errors(&mut self) -> Vec<ContainedError> {
        self.errors_dropped = 0;
        std::mem::take(&mut self.errors)
    }

    /// Number of contained errors discarded because the bounded error
    /// buffer was full since the last [`Orchestrator::drain_errors`]
    /// (draining resets the counter). Every discarded error was still
    /// counted in [`RuntimeMetrics::component_errors`] and traced.
    #[must_use]
    pub fn errors_dropped(&self) -> u64 {
        self.errors_dropped
    }

    fn contain(&mut self, error: RuntimeError) {
        let at = self.queue.now();
        self.note(|| TraceKind::Error {
            message: error.to_string(),
        });
        if self.errors.len() < ERRORS_CAP {
            self.errors.push(ContainedError { at, error });
        } else {
            self.errors_dropped += 1;
        }
        self.metrics.component_errors += 1;
    }

    // ---- binding ----------------------------------------------------------

    /// Binds an entity at the current lifecycle phase.
    ///
    /// # Errors
    ///
    /// See [`Registry::bind`].
    pub fn bind_entity(
        &mut self,
        id: EntityId,
        device_type: &str,
        attributes: AttributeMap,
        driver: Box<dyn DeviceInstance>,
    ) -> Result<(), RuntimeError> {
        let binding_time = match self.phase {
            Phase::Configuration => BindingTime::Configuration,
            Phase::Deployment => BindingTime::Deployment,
            Phase::Launched => BindingTime::Runtime,
        };
        let now = self.queue.now();
        let started = self.obs.is_enabled().then(std::time::Instant::now);
        let result = self
            .registry
            .bind(id, device_type, attributes, driver, binding_time, now);
        if let (Some(t0), Ok(())) = (started, &result) {
            self.obs
                .record(Activity::Binding, device_type, obs::elapsed_us(t0));
        }
        result
    }

    /// Unbinds an entity (e.g. a failed or departing device).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unknown`] if the entity is not bound.
    pub fn unbind_entity(&mut self, id: &EntityId) -> Result<(), RuntimeError> {
        self.registry.unbind(id).map(|_| ())
    }

    /// Advances the lifecycle from configuration to deployment.
    pub fn begin_deployment(&mut self) {
        if self.phase == Phase::Configuration {
            self.phase = Phase::Deployment;
        }
    }

    /// Spawns a simulation process, first waking at absolute time `at`.
    pub fn spawn_process_at(
        &mut self,
        name: impl Into<String>,
        process: impl crate::process::Process + 'static,
        at: SimTime,
    ) {
        let idx = self.processes.len();
        self.processes.push(ProcessSlot {
            name: name.into().into(),
            process: Some(Box::new(process)),
        });
        self.queue.schedule(at, Event::ProcessWake { idx });
    }

    // ---- launch -----------------------------------------------------------

    /// Launches the application: validates that every declared component
    /// has logic and schedules the periodic deliveries.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Configuration`] naming the first component missing
    /// its logic (or MapReduce phases).
    pub fn launch(&mut self) -> Result<(), RuntimeError> {
        if self.phase == Phase::Launched {
            return Err(RuntimeError::Configuration(
                "application is already launched".to_owned(),
            ));
        }
        let design = Arc::clone(&self.design);
        for (id, runtime) in design.contexts.ids().zip(&self.contexts) {
            let name = design.contexts.name(id);
            if runtime.logic.is_none() {
                return Err(RuntimeError::Configuration(format!(
                    "context `{name}` has no logic registered"
                )));
            }
            if design.context(id).map_reduce && runtime.map_reduce.is_none() {
                return Err(RuntimeError::Configuration(format!(
                    "context `{name}` declares MapReduce phases but none were registered"
                )));
            }
        }
        for (id, runtime) in design.controllers.ids().zip(&self.controllers) {
            if runtime.logic.is_none() {
                return Err(RuntimeError::Configuration(format!(
                    "controller `{}` has no logic registered",
                    design.controllers.name(id)
                )));
            }
        }

        // Schedule periodic polls and initialize aggregation windows.
        let now = self.queue.now();
        for context in design.contexts.ids() {
            let periodic = &design.context(context).periodic;
            for (idx, periodic) in periodic.iter().enumerate() {
                let Some(periodic) = periodic else {
                    continue;
                };
                // Slots up to the last periodic activation: a context that
                // never polls allocates none.
                let windows = &mut self.contexts[context as usize].windows;
                windows.resize_with(idx + 1, WindowBuffer::default);
                windows[idx].batch = Gathered::new(periodic.group_by.is_some());
                windows[idx].deadline = now + periodic.window_ms.unwrap_or(0);
                self.queue.schedule(
                    now + periodic.period_ms,
                    Event::PeriodicPoll {
                        context,
                        activation_idx: idx,
                    },
                );
            }
        }

        // Install the fault plan's clock-driven faults and the lease sweep.
        if let Some(injector) = &self.faults {
            let scheduled: Vec<(usize, SimTime)> = injector
                .scheduled()
                .iter()
                .enumerate()
                .map(|(idx, fault)| (idx, fault.at_ms))
                .collect();
            for (idx, at_ms) in scheduled {
                self.queue.schedule(at_ms, Event::Fault { idx });
            }
        }
        if let Some(interval) = self.recovery.lease_check_interval_ms() {
            self.queue.schedule(now + interval, Event::LeaseCheck);
        }
        self.phase = Phase::Launched;
        Ok(())
    }

    // ---- driving the simulation --------------------------------------------

    /// Processes a single event, if any is pending. Returns its timestamp.
    pub fn step(&mut self) -> Option<SimTime> {
        let (time, event) = self.queue.pop()?;
        self.dispatch(event);
        Some(time)
    }

    /// Runs every event scheduled up to and including `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.queue.peek_time().is_some_and(|t| t <= deadline) {
            self.step();
        }
    }

    /// Runs for `duration` milliseconds of simulation time from now.
    pub fn run_for(&mut self, duration: SimTime) {
        let deadline = self.queue.now().saturating_add(duration);
        self.run_until(deadline);
    }

    /// Runs for `duration` milliseconds of simulation time, pacing event
    /// execution against the wall clock: one simulated millisecond takes
    /// `1 / time_scale` real milliseconds (`time_scale = 1.0` is real
    /// time; `60.0` compresses a minute into a second).
    ///
    /// Deterministic event *order* is unchanged — only when events
    /// execute in wall-clock terms. Useful for demos and for driving real
    /// device drivers that expect wall-clock pacing.
    ///
    /// # Panics
    ///
    /// Panics if `time_scale` is not finite and positive.
    pub fn run_realtime_for(&mut self, duration: SimTime, time_scale: f64) {
        assert!(
            time_scale.is_finite() && time_scale > 0.0,
            "time_scale must be finite and positive, got {time_scale}"
        );
        let sim_start = self.queue.now();
        let deadline = sim_start.saturating_add(duration);
        let wall_start = std::time::Instant::now();
        while let Some(next) = self.queue.peek_time() {
            if next > deadline {
                break;
            }
            let target_wall =
                std::time::Duration::from_secs_f64((next - sim_start) as f64 / 1e3 / time_scale);
            let elapsed = wall_start.elapsed();
            if target_wall > elapsed {
                std::thread::sleep(target_wall - elapsed);
            }
            self.step();
        }
    }
}

impl std::fmt::Debug for Orchestrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orchestrator")
            .field("phase", &self.phase)
            .field("now", &self.queue.now())
            .field("entities", &self.registry.len())
            .field("contexts", &self.contexts.len())
            .field("controllers", &self.controllers.len())
            .field(
                "processes",
                &self.processes.iter().map(|p| &*p.name).collect::<Vec<_>>(),
            )
            .field("pending_events", &self.queue.len())
            .finish()
    }
}
