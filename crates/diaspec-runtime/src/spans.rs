//! Causal span tracing: a correlation-ID span tree per end-to-end flow.
//!
//! Where [`crate::trace`] records *what happened* as a flat event log,
//! this module records *where each individual reading spent its time*: a
//! `trace_id` is minted when a value enters the delivery pipeline (an
//! emission or a periodic poll), carried on the pipeline's event
//! envelope through all four stages (admit → route → schedule →
//! dispatch), and propagated into context activations, controller
//! invocations, actuations, delivery retries, recovery episodes, and
//! MapReduce batch ingestion. Every stage contributes one [`SpanEvent`]
//! with its parent span, so each flow yields a well-formed span tree.
//!
//! ## Unit semantics
//!
//! Spans follow the repository's established unit convention (see
//! `docs/OBSERVABILITY.md`): stages that model the *simulated* network
//! ([`SpanStage::Schedule`] — one transport hop — plus
//! [`SpanStage::Retry`] backoff and [`SpanStage::Recover`] episodes)
//! span simulated milliseconds (`end_ms - begin_ms`); stages that run
//! engine or component code ([`SpanStage::Admit`], [`SpanStage::Route`],
//! [`SpanStage::Dispatch`], [`SpanStage::Compute`],
//! [`SpanStage::Actuate`], [`SpanStage::Ingest`]) do not advance
//! simulated time, so their duration is the wall-clock `wall_us` field.
//!
//! ## Cost
//!
//! Span tracing is off by default. Disabled, every candidate site is a
//! single branch and allocates nothing. Enabled without a buffer or
//! observers (the load-harness configuration), spans are not
//! materialized at all: only IDs are minted and per-stage histograms
//! updated — no per-span allocation.

use crate::clock::SimTime;
use crate::obs::{LatencyHistogram, Ring};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fmt::Write as _;

/// The pipeline or component stage one span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanStage {
    /// Stage 1 — a value enters the pipeline (emission, publication, or
    /// periodic poll). Root of its flow's tree unless published from
    /// within an activation.
    Admit,
    /// Stage 2 — subscriber resolution and fan-out.
    Route,
    /// Stage 3 — one copy crossing the simulated transport.
    Schedule,
    /// Stage 4 — a due event leaving the queue and being handled.
    Dispatch,
    /// Component logic: a context or controller activation, or one
    /// MapReduce phase.
    Compute,
    /// A device action invocation.
    Actuate,
    /// Backoff of a dropped delivery's re-send (sibling of the schedule
    /// spans it sits between).
    Retry,
    /// A recovery episode (lease expiry to rebind, fallback actuation).
    Recover,
    /// MapReduce batch ingestion (the whole executor run).
    Ingest,
}

impl SpanStage {
    /// All stages, in pipeline order.
    pub const ALL: [SpanStage; 9] = [
        SpanStage::Admit,
        SpanStage::Route,
        SpanStage::Schedule,
        SpanStage::Dispatch,
        SpanStage::Compute,
        SpanStage::Actuate,
        SpanStage::Retry,
        SpanStage::Recover,
        SpanStage::Ingest,
    ];

    /// Stable lower-case label (used in exports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanStage::Admit => "admit",
            SpanStage::Route => "route",
            SpanStage::Schedule => "schedule",
            SpanStage::Dispatch => "dispatch",
            SpanStage::Compute => "compute",
            SpanStage::Actuate => "actuate",
            SpanStage::Retry => "retry",
            SpanStage::Recover => "recover",
            SpanStage::Ingest => "ingest",
        }
    }

    /// Unit of this stage's duration: `ms` (simulated) for transport and
    /// recovery time, `us` (wall) for engine and component code.
    #[must_use]
    pub fn unit(self) -> &'static str {
        match self {
            SpanStage::Schedule | SpanStage::Retry | SpanStage::Recover => "ms",
            _ => "us",
        }
    }

    /// Dense index in `0..9`, for array-backed storage.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            SpanStage::Admit => 0,
            SpanStage::Route => 1,
            SpanStage::Schedule => 2,
            SpanStage::Dispatch => 3,
            SpanStage::Compute => 4,
            SpanStage::Actuate => 5,
            SpanStage::Retry => 6,
            SpanStage::Recover => 7,
            SpanStage::Ingest => 8,
        }
    }
}

/// The correlation IDs carried on a pipeline event: which flow the event
/// belongs to and which span to parent the next stage under.
///
/// `Copy`-sized on purpose — it rides the event envelope, never the
/// [`Payload`](crate::payload::Payload) (payloads stay pointer-sized and
/// value-keyed). A zero `trace_id` means span tracing was off when the
/// event was admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanCtx {
    /// The flow this event belongs to (0 = none).
    pub trace_id: u64,
    /// The span the next stage parents under (0 = root).
    pub parent: u64,
}

impl SpanCtx {
    /// The inactive context: span tracing was off at admission.
    pub const NONE: SpanCtx = SpanCtx {
        trace_id: 0,
        parent: 0,
    };

    /// Whether this context belongs to a live trace.
    #[must_use]
    pub fn is_active(self) -> bool {
        self.trace_id != 0
    }

    /// The root context of a freshly minted trace.
    pub(crate) fn root(trace_id: u64) -> SpanCtx {
        SpanCtx {
            trace_id,
            parent: 0,
        }
    }

    /// The context of this flow's events caused under span `span_id`.
    pub(crate) fn child(self, span_id: u64) -> SpanCtx {
        SpanCtx {
            trace_id: self.trace_id,
            parent: span_id,
        }
    }
}

/// One completed span: a stage of one flow, with its tree position and
/// both clock domains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// The flow this span belongs to. Trace IDs start at 1.
    pub trace_id: u64,
    /// This span's ID, unique per orchestrator and strictly increasing
    /// in open order (so `parent < span_id` always holds).
    pub span_id: u64,
    /// The enclosing span's ID (0 = a root span).
    pub parent: u64,
    /// Which stage the span covers.
    pub stage: SpanStage,
    /// The component, entity, or device involved (empty when spans are
    /// recorded without materialization).
    pub label: String,
    /// Simulation time the span opened, in milliseconds.
    pub begin_ms: SimTime,
    /// Simulation time the span closed, in milliseconds (`>= begin_ms`).
    pub end_ms: SimTime,
    /// Wall-clock duration, in microseconds (0 for pure sim-time spans).
    pub wall_us: u64,
}

impl SpanEvent {
    /// The span's duration in its stage's unit: simulated
    /// `end_ms - begin_ms` for `ms` stages, `wall_us` for `us` stages.
    #[must_use]
    pub fn duration(&self) -> u64 {
        if self.stage.unit() == "ms" {
            self.end_ms - self.begin_ms
        } else {
            self.wall_us
        }
    }
}

impl fmt::Display for SpanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[trace {:>4} span {:>5} <- {:>5}] {:<8} {} ({} {})",
            self.trace_id,
            self.span_id,
            self.parent,
            self.stage.label(),
            self.label,
            self.duration(),
            self.stage.unit(),
        )
    }
}

// ---- the tracer -----------------------------------------------------------

/// Cap on buffered completed spans (mirrors the trace buffer's bound).
const SPAN_BUFFER_CAP: usize = 100_000;

struct OpenSpan {
    span_id: u64,
    trace_id: u64,
    parent: u64,
    stage: SpanStage,
    begin_ms: SimTime,
    /// Only populated when spans are being materialized.
    label: Option<String>,
}

/// The engine-side span recorder: ID minting, the open-span stack,
/// per-stage latency histograms, and the bounded completed-span buffer.
///
/// Lives inside the [`ObsHub`](crate::obs::ObsHub); the engine drives it
/// through the hub so completed spans also reach attached observers.
pub(crate) struct SpanTracer {
    enabled: bool,
    next_trace: u64,
    next_span: u64,
    open: Vec<OpenSpan>,
    /// Completed spans; enabled while buffering is on.
    buffer: Ring<SpanEvent>,
    stages: Vec<LatencyHistogram>,
}

impl SpanTracer {
    pub(crate) fn new() -> Self {
        SpanTracer {
            enabled: false,
            next_trace: 1,
            next_span: 1,
            open: Vec::new(),
            buffer: Ring::new(SPAN_BUFFER_CAP, false),
            stages: SpanStage::ALL
                .iter()
                .map(|_| LatencyHistogram::new())
                .collect(),
        }
    }

    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.buffer.set_enabled(enabled);
    }

    pub(crate) fn set_buffering(&mut self, buffering: bool) {
        self.buffer.set_enabled(buffering);
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn is_buffering(&self) -> bool {
        self.buffer.is_enabled()
    }

    pub(crate) fn mint_trace(&mut self) -> u64 {
        let id = self.next_trace;
        self.next_trace += 1;
        id
    }

    pub(crate) fn open(
        &mut self,
        trace_id: u64,
        parent: u64,
        stage: SpanStage,
        label: &str,
        begin_ms: SimTime,
        materialize: bool,
    ) -> u64 {
        let span_id = self.next_span;
        self.next_span += 1;
        self.open.push(OpenSpan {
            span_id,
            trace_id,
            parent,
            stage,
            begin_ms,
            label: materialize.then(|| label.to_owned()),
        });
        span_id
    }

    /// Closes an open span, recording its duration in the stage
    /// histogram. Returns the completed event when materializing (for
    /// observer broadcast); buffers it when buffering is on.
    ///
    /// Closure is stack-disciplined: wall-clock spans nest strictly
    /// (dispatch contains compute contains the next flow's admit), and
    /// sim-time spans open and close in one call — so the span being
    /// closed is always the most recently opened one still open.
    pub(crate) fn close(
        &mut self,
        span_id: u64,
        end_ms: SimTime,
        wall_us: u64,
    ) -> Option<SpanEvent> {
        debug_assert_eq!(
            self.open.last().map(|s| s.span_id),
            Some(span_id),
            "span closure must be LIFO"
        );
        let idx = self.open.iter().rposition(|s| s.span_id == span_id)?;
        let open = self.open.remove(idx);
        let end_ms = end_ms.max(open.begin_ms);
        let duration = if open.stage.unit() == "ms" {
            end_ms - open.begin_ms
        } else {
            wall_us
        };
        self.stages[open.stage.index()].record(duration);
        let label = open.label?;
        let event = SpanEvent {
            trace_id: open.trace_id,
            span_id: open.span_id,
            parent: open.parent,
            stage: open.stage,
            label,
            begin_ms: open.begin_ms,
            end_ms,
            wall_us,
        };
        if self.buffer.is_enabled() {
            self.buffer.push(event.clone());
        }
        Some(event)
    }

    pub(crate) fn open_count(&self) -> usize {
        self.open.len()
    }

    pub(crate) fn take(&mut self) -> Vec<SpanEvent> {
        // Spans land in the buffer when they close, but consumers (the
        // validator, the canonical rendering) want open order — IDs are
        // minted at open, so sorting restores it.
        let mut spans = self.buffer.drain();
        spans.sort_unstable_by_key(|s| s.span_id);
        spans
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.buffer.dropped()
    }

    pub(crate) fn stage_histogram(&self, stage: SpanStage) -> &LatencyHistogram {
        &self.stages[stage.index()]
    }
}

// ---- validation -----------------------------------------------------------

/// Aggregate facts about a validated span forest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanForestStats {
    /// Total spans checked.
    pub spans: usize,
    /// Distinct traces seen.
    pub traces: usize,
    /// Root spans (parent = 0).
    pub roots: usize,
    /// Spans per stage, in [`SpanStage::ALL`] order.
    pub per_stage: [usize; 9],
}

/// Checks the well-formedness of a drained span buffer: every span
/// closed with `begin <= end`, span IDs unique and strictly increasing
/// (recording order = open order), every non-root parent present in the
/// same trace, parents opened before their children (`parent < span_id`
/// and `parent.begin_ms <= child.begin_ms`), and children of a sim-time
/// span beginning within their parent's extent.
///
/// # Errors
///
/// A description of the first violated invariant.
pub fn validate_span_forest(spans: &[SpanEvent]) -> Result<SpanForestStats, String> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut stats = SpanForestStats::default();
    let mut by_id: BTreeMap<u64, &SpanEvent> = BTreeMap::new();
    let mut traces: BTreeSet<u64> = BTreeSet::new();
    let mut last_id = 0u64;
    for span in spans {
        if span.trace_id == 0 {
            return Err(format!("span {} has no trace", span.span_id));
        }
        if span.span_id <= last_id {
            return Err(format!(
                "span IDs must be unique and increasing: {} after {}",
                span.span_id, last_id
            ));
        }
        last_id = span.span_id;
        if span.end_ms < span.begin_ms {
            return Err(format!(
                "span {} closed before it opened ({} < {})",
                span.span_id, span.end_ms, span.begin_ms
            ));
        }
        if span.parent != 0 {
            let parent = by_id.get(&span.parent).ok_or_else(|| {
                format!("span {} parents unknown span {}", span.span_id, span.parent)
            })?;
            if parent.trace_id != span.trace_id {
                return Err(format!(
                    "span {} (trace {}) parents span {} of trace {}",
                    span.span_id, span.trace_id, parent.span_id, parent.trace_id
                ));
            }
            if parent.begin_ms > span.begin_ms {
                return Err(format!(
                    "span {} opened at {} before its parent {} at {}",
                    span.span_id, span.begin_ms, parent.span_id, parent.begin_ms
                ));
            }
            if parent.stage.unit() == "ms" && span.begin_ms > parent.end_ms {
                return Err(format!(
                    "span {} opened at {} after its sim-time parent {} closed at {}",
                    span.span_id, span.begin_ms, parent.span_id, parent.end_ms
                ));
            }
        } else {
            stats.roots += 1;
        }
        traces.insert(span.trace_id);
        stats.per_stage[span.stage.index()] += 1;
        by_id.insert(span.span_id, span);
        stats.spans += 1;
    }
    stats.traces = traces.len();
    Ok(stats)
}

/// Canonical, deterministic rendering of a span forest: one line per
/// span, simulation-domain fields only (wall-clock durations vary run to
/// run and are excluded). Two fault-free runs of the same seeded design
/// produce byte-identical output.
#[must_use]
pub fn canonical_span_lines(spans: &[SpanEvent]) -> String {
    let mut out = String::new();
    for span in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            span.trace_id,
            span.span_id,
            span.parent,
            span.stage.label(),
            span.label,
            span.begin_ms,
            span.end_ms,
        );
    }
    out
}

// ---- Chrome / Perfetto export ---------------------------------------------

#[derive(Serialize)]
struct ChromeEvent {
    name: String,
    cat: String,
    ph: String,
    ts: u64,
    dur: u64,
    pid: u64,
    tid: u64,
    args: ChromeArgs,
}

#[derive(Serialize)]
struct ChromeArgs {
    trace: u64,
    span: u64,
    parent: u64,
    unit: String,
    wall_us: u64,
}

#[derive(Serialize)]
#[allow(non_snake_case)]
struct ChromeTrace {
    traceEvents: Vec<ChromeEvent>,
    displayTimeUnit: String,
}

/// Converts a span forest to Chrome `trace_event` JSON, loadable in
/// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
///
/// Each span becomes one complete (`"X"`) event on the track of its
/// trace (`tid = trace_id`), so one flow reads as one horizontal lane.
/// Timestamps are simulation milliseconds scaled to microseconds;
/// durations use the span's own domain — simulated extent for `ms`
/// stages, wall microseconds for `us` stages.
#[must_use]
pub fn chrome_trace(spans: &[SpanEvent]) -> String {
    let events = spans
        .iter()
        .map(|span| ChromeEvent {
            name: if span.label.is_empty() {
                span.stage.label().to_owned()
            } else {
                format!("{} {}", span.stage.label(), span.label)
            },
            cat: span.stage.label().to_owned(),
            ph: "X".to_owned(),
            ts: span.begin_ms.saturating_mul(1_000),
            dur: if span.stage.unit() == "ms" {
                (span.end_ms - span.begin_ms).saturating_mul(1_000)
            } else {
                span.wall_us
            },
            pid: 1,
            tid: span.trace_id,
            args: ChromeArgs {
                trace: span.trace_id,
                span: span.span_id,
                parent: span.parent,
                unit: span.stage.unit().to_owned(),
                wall_us: span.wall_us,
            },
        })
        .collect();
    let trace = ChromeTrace {
        traceEvents: events,
        displayTimeUnit: "ms".to_owned(),
    };
    serde_json::to_string(&trace).expect("chrome trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, stage: SpanStage, begin: u64, end: u64) -> SpanEvent {
        SpanEvent {
            trace_id: trace,
            span_id: id,
            parent,
            stage,
            label: format!("s{id}"),
            begin_ms: begin,
            end_ms: end,
            wall_us: 3,
        }
    }

    #[test]
    fn stage_metadata_is_consistent() {
        for (i, stage) in SpanStage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert!(!stage.label().is_empty());
            assert!(matches!(stage.unit(), "ms" | "us"));
        }
        assert_eq!(SpanStage::Schedule.unit(), "ms");
        assert_eq!(SpanStage::Compute.unit(), "us");
    }

    #[test]
    fn duration_follows_the_stage_domain() {
        let sim = span(1, 1, 0, SpanStage::Schedule, 10, 60);
        assert_eq!(sim.duration(), 50);
        let wall = span(1, 2, 1, SpanStage::Compute, 60, 60);
        assert_eq!(wall.duration(), 3);
    }

    #[test]
    fn tracer_disabled_by_default_and_ids_are_minted_in_order() {
        let mut tracer = SpanTracer::new();
        assert!(!tracer.is_enabled());
        tracer.set_enabled(true);
        assert!(tracer.is_buffering());
        assert_eq!(tracer.mint_trace(), 1);
        assert_eq!(tracer.mint_trace(), 2);
        let a = tracer.open(1, 0, SpanStage::Admit, "a", 5, true);
        let b = tracer.open(1, a, SpanStage::Route, "b", 5, true);
        assert!(b > a);
        assert_eq!(tracer.open_count(), 2);
        tracer.close(b, 5, 7);
        tracer.close(a, 5, 9);
        assert_eq!(tracer.open_count(), 0);
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        // `b` closed first but `a` opened first: draining restores open
        // (span-ID) order.
        assert_eq!(spans[0].span_id, a, "drain order is open order");
        assert_eq!(spans[0].wall_us, 9);
        assert_eq!(spans[1].span_id, b);
        assert_eq!(tracer.stage_histogram(SpanStage::Admit).count(), 1);
    }

    #[test]
    fn unmaterialized_spans_update_histograms_only() {
        let mut tracer = SpanTracer::new();
        tracer.set_enabled(true);
        tracer.set_buffering(false);
        let id = tracer.open(1, 0, SpanStage::Schedule, "x", 0, false);
        assert!(tracer.close(id, 40, 0).is_none(), "no event materialized");
        assert!(tracer.take().is_empty());
        assert_eq!(tracer.stage_histogram(SpanStage::Schedule).count(), 1);
        assert_eq!(tracer.stage_histogram(SpanStage::Schedule).max(), 40);
    }

    #[test]
    fn buffer_is_bounded_with_a_drop_counter() {
        let mut tracer = SpanTracer::new();
        tracer.set_enabled(true);
        for i in 0..(SPAN_BUFFER_CAP + 3) {
            let id = tracer.open(1, 0, SpanStage::Admit, "x", i as u64, true);
            tracer.close(id, i as u64, 0);
        }
        assert_eq!(tracer.dropped(), 3);
        assert_eq!(tracer.take().len(), SPAN_BUFFER_CAP);
        assert_eq!(tracer.dropped(), 0, "drain resets the window");
    }

    #[test]
    fn validator_accepts_a_well_formed_forest() {
        let spans = [
            span(1, 1, 0, SpanStage::Admit, 0, 0),
            span(1, 2, 1, SpanStage::Route, 0, 0),
            span(1, 3, 2, SpanStage::Schedule, 0, 50),
            span(1, 4, 3, SpanStage::Dispatch, 50, 50),
            span(2, 5, 0, SpanStage::Recover, 10, 30),
        ];
        let stats = validate_span_forest(&spans).unwrap();
        assert_eq!(stats.spans, 5);
        assert_eq!(stats.traces, 2);
        assert_eq!(stats.roots, 2);
        assert_eq!(stats.per_stage[SpanStage::Schedule.index()], 1);
    }

    #[test]
    fn validator_rejects_malformed_forests() {
        // Unknown parent.
        let orphan = [span(1, 2, 1, SpanStage::Route, 0, 0)];
        assert!(validate_span_forest(&orphan)
            .unwrap_err()
            .contains("unknown span"));
        // Cross-trace parent.
        let crossed = [
            span(1, 1, 0, SpanStage::Admit, 0, 0),
            span(2, 2, 1, SpanStage::Route, 0, 0),
        ];
        assert!(validate_span_forest(&crossed)
            .unwrap_err()
            .contains("trace"));
        // Child opening before its parent.
        let early = [
            span(1, 1, 0, SpanStage::Admit, 10, 10),
            span(1, 2, 1, SpanStage::Route, 5, 5),
        ];
        assert!(validate_span_forest(&early)
            .unwrap_err()
            .contains("before its parent"));
        // Closing before opening.
        let inverted = [span(1, 1, 0, SpanStage::Schedule, 10, 5)];
        assert!(validate_span_forest(&inverted)
            .unwrap_err()
            .contains("closed before"));
        // Duplicate IDs.
        let dup = [
            span(1, 1, 0, SpanStage::Admit, 0, 0),
            span(1, 1, 0, SpanStage::Admit, 0, 0),
        ];
        assert!(validate_span_forest(&dup).unwrap_err().contains("unique"));
        // Child beginning after a sim-time parent closed.
        let late = [
            span(1, 1, 0, SpanStage::Schedule, 0, 10),
            span(1, 2, 1, SpanStage::Dispatch, 20, 20),
        ];
        assert!(validate_span_forest(&late)
            .unwrap_err()
            .contains("sim-time parent"));
    }

    #[test]
    fn canonical_lines_exclude_wall_clock() {
        let mut a = span(1, 1, 0, SpanStage::Admit, 0, 0);
        let mut b = a.clone();
        a.wall_us = 10;
        b.wall_us = 99_999;
        assert_eq!(
            canonical_span_lines(&[a]),
            canonical_span_lines(&[b]),
            "wall-clock jitter must not break determinism"
        );
    }

    #[test]
    fn chrome_trace_is_parseable_and_complete() {
        let spans = [
            span(1, 1, 0, SpanStage::Admit, 0, 0),
            span(1, 2, 1, SpanStage::Schedule, 0, 50),
        ];
        let json = chrome_trace(&spans);
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = value["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["ph"].as_str(), Some("X"));
        assert_eq!(events[1]["ts"].as_u64(), Some(0));
        assert_eq!(events[1]["dur"].as_u64(), Some(50_000), "sim ms -> us");
        assert_eq!(events[0]["dur"].as_u64(), Some(3), "wall us verbatim");
        assert_eq!(events[0]["tid"].as_u64(), Some(1), "track per trace");
    }

    #[test]
    fn span_events_serialize_and_display() {
        let event = span(3, 7, 2, SpanStage::Actuate, 100, 100);
        let json = serde_json::to_string(&event).unwrap();
        let back: SpanEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(event, back);
        let text = event.to_string();
        assert!(text.contains("actuate") && text.contains("s7"), "{text}");
    }
}
