//! The engine's three telemetry verbs.
//!
//! An instrumented site states *what happened*; only the verbs know
//! which switches are on. Every switch query
//! (`trace.is_enabled()`, `has_observers()`, `spans_materializing()`)
//! and every wall-clock read of the delivery pipeline lives in this
//! file (`scripts/pipeline_guard.sh` holds the counts):
//!
//! - [`Orchestrator::note`] — one trace event, built lazily, for the
//!   bounded buffer and the attached observers;
//! - [`Orchestrator::begin`] → [`Orchestrator::end`] (or
//!   [`Orchestrator::leaf`] → [`Orchestrator::end_leaf`]) — one
//!   wall-clock [`Scope`]: a span under the caller's context, an activity
//!   duration, or both, from one `Instant` reading and one lazily built
//!   label;
//! - [`Orchestrator::point`] — one span whose simulated extent is known
//!   up front (a transport hop, a backoff, a recovery episode).
//!
//! [`Orchestrator::flow`] picks the trace a new admission belongs to.
//! With every switch off each verb is one predictable branch and
//! allocates nothing: closures are not run, labels are not built.

use crate::clock::SimTime;
use crate::engine::Orchestrator;
use crate::obs::{self, Activity};
use crate::spans::{SpanCtx, SpanStage};
use crate::trace::{TraceEvent, TraceKind};
use std::borrow::Cow;
use std::time::Instant;

/// One open wall-clock scope, from [`Orchestrator::begin`] to
/// [`Orchestrator::end`] (or from [`Orchestrator::leaf`] to
/// [`Orchestrator::end_leaf`]). Dropping a leaf scope without ending it
/// records nothing.
pub(crate) struct Scope<'l> {
    /// Where the scope's span hangs ([`SpanCtx::NONE`]: no span).
    parent: SpanCtx,
    stage: SpanStage,
    /// The span opened at `begin`; 0 for a leaf scope (and with span
    /// tracing off), whose span opens and closes at `end`.
    span_id: u64,
    /// The one wall-clock reading, taken only when a span or an activity
    /// duration will be recorded.
    started: Option<Instant>,
    /// The activity the duration is attributed to, while recording is on.
    activity: Option<Activity>,
    label: Cow<'l, str>,
}

impl Scope<'_> {
    /// The context spans caused inside this scope parent under.
    pub(crate) fn ctx(&self) -> SpanCtx {
        if self.span_id == 0 {
            SpanCtx::NONE
        } else {
            self.parent.child(self.span_id)
        }
    }
}

impl Orchestrator {
    /// Records one trace event at the current simulation time. `kind`
    /// runs only when the bounded buffer is enabled or an observer is
    /// attached; the event is built once, lent to the observers, then
    /// moved into the buffer.
    pub(crate) fn note(&mut self, kind: impl FnOnce() -> TraceKind) {
        if !self.trace.is_enabled() && !self.obs.has_observers() {
            return;
        }
        let event = TraceEvent {
            at: self.queue.now(),
            kind: kind(),
        };
        self.obs.broadcast(&event);
        self.trace.push(event);
    }

    /// The trace a value entering the pipeline belongs to: `inherited`
    /// when it carries a live trace (a publication made inside an
    /// activation), else a freshly minted root; [`SpanCtx::NONE`] while
    /// span tracing is off.
    pub(crate) fn flow(&mut self, inherited: SpanCtx) -> SpanCtx {
        if !self.obs.spans_enabled() {
            SpanCtx::NONE
        } else if inherited.is_active() {
            inherited
        } else {
            SpanCtx::root(self.obs.mint_trace())
        }
    }

    /// Builds a label only when something retains it: a materialized
    /// span (`spanned`) or an activity counter (`counted`).
    fn label_for<'l>(
        &self,
        spanned: bool,
        counted: bool,
        label: impl FnOnce() -> Cow<'l, str>,
    ) -> Cow<'l, str> {
        if counted || (spanned && self.obs.spans_materializing()) {
            label()
        } else {
            Cow::Borrowed("")
        }
    }

    fn open_span(
        &mut self,
        parent: SpanCtx,
        stage: SpanStage,
        label: &str,
        begin_ms: SimTime,
    ) -> u64 {
        self.obs
            .open_span(parent.trace_id, parent.parent, stage, label, begin_ms)
    }

    fn scope<'l>(
        &mut self,
        parent: SpanCtx,
        stage: SpanStage,
        activity: Option<Activity>,
        label: impl FnOnce() -> Cow<'l, str>,
        nests: bool,
    ) -> Scope<'l> {
        let activity = activity.filter(|_| self.obs.is_enabled());
        let spanned = parent.is_active();
        let label = self.label_for(spanned, activity.is_some(), label);
        let span_id = if spanned && nests {
            let now = self.queue.now();
            self.open_span(parent, stage, &label, now)
        } else {
            0
        };
        Scope {
            parent,
            stage,
            span_id,
            started: (spanned || activity.is_some()).then(Instant::now),
            activity,
            label,
        }
    }

    /// Begins a wall-clock scope and opens its span under `parent` now,
    /// so what happens inside nests under [`Scope::ctx`]. The duration
    /// also feeds `activity` when given; `label` names both and is built
    /// only when something retains it.
    pub(crate) fn begin<'l>(
        &mut self,
        parent: SpanCtx,
        stage: SpanStage,
        activity: Option<Activity>,
        label: impl FnOnce() -> Cow<'l, str>,
    ) -> Scope<'l> {
        self.scope(parent, stage, activity, label, true)
    }

    /// Begins a wall-clock scope nothing nests under (an actuation, a
    /// MapReduce phase): its span opens and closes at
    /// [`end_leaf`](Self::end_leaf), which also names it — what a leaf
    /// did is known once it is done — so a scope abandoned on an error
    /// path leaves nothing behind and builds no label.
    pub(crate) fn leaf(
        &mut self,
        parent: SpanCtx,
        stage: SpanStage,
        activity: Option<Activity>,
    ) -> Scope<'static> {
        self.scope(parent, stage, activity, || Cow::Borrowed(""), false)
    }

    /// Ends a scope: its one wall-clock reading closes the span and feeds
    /// the activity histogram.
    pub(crate) fn end(&mut self, scope: Scope<'_>) {
        if let Some(t0) = scope.started {
            self.record_scope(scope, obs::elapsed_us(t0));
        }
    }

    /// Ends a leaf scope under the label `label` builds (only when
    /// something retains it).
    pub(crate) fn end_leaf<'l>(&mut self, scope: Scope<'_>, label: impl FnOnce() -> Cow<'l, str>) {
        if let Some(t0) = scope.started {
            self.end_measured(scope, obs::elapsed_us(t0), label);
        }
    }

    /// Ends a leaf scope whose duration was measured elsewhere (the
    /// MapReduce executor times its own phases).
    pub(crate) fn end_measured<'l>(
        &mut self,
        scope: Scope<'_>,
        wall_us: u64,
        label: impl FnOnce() -> Cow<'l, str>,
    ) {
        let label = self.label_for(scope.parent.is_active(), scope.activity.is_some(), label);
        self.record_scope(Scope { label, ..scope }, wall_us);
    }

    fn record_scope(&mut self, scope: Scope<'_>, wall_us: u64) {
        if let Some(activity) = scope.activity {
            self.obs.record(activity, &scope.label, wall_us);
        }
        if scope.parent.is_active() {
            let now = self.queue.now();
            let span_id = match scope.span_id {
                0 => self.open_span(scope.parent, scope.stage, &scope.label, now),
                id => id,
            };
            self.obs.close_span(span_id, now, wall_us);
        }
    }

    /// Records a span covering `[begin_ms, end_ms]` of simulated time
    /// under `parent` and returns the context of what it causes
    /// ([`SpanCtx::NONE`] when `parent` carries no trace).
    pub(crate) fn point<'l>(
        &mut self,
        parent: SpanCtx,
        stage: SpanStage,
        label: impl FnOnce() -> Cow<'l, str>,
        begin_ms: SimTime,
        end_ms: SimTime,
    ) -> SpanCtx {
        if !parent.is_active() {
            return SpanCtx::NONE;
        }
        let label = self.label_for(true, false, label);
        let span_id = self.open_span(parent, stage, &label, begin_ms);
        self.obs.close_span(span_id, end_ms, 0);
        parent.child(span_id)
    }
}
