//! Observability: activity-labeled metrics, latency histograms, and a
//! pluggable observer/export layer.
//!
//! The paper organizes IoT orchestration into four activities — *binding
//! entities*, *delivering data*, *processing data*, and *actuating
//! entities* (§IV). Where [`crate::metrics::RuntimeMetrics`] counts
//! orchestration events globally, this module attributes **durations** to
//! those activities, labeled by the component or device family
//! involved:
//!
//! - [`Activity`] names the four paper activities, plus *recovering* —
//!   the cost of the §VI error-handling extension (lease expiry to
//!   rebind, retry backoff, fallback actuation; see [`crate::fault`]);
//! - [`LatencyHistogram`] is a zero-dependency log-bucketed histogram
//!   (mergeable, with p50/p90/p99/max readouts);
//! - [`Observer`] is the pluggable sink interface: attached observers
//!   receive every [`TraceEvent`] as it happens plus on-demand
//!   [`ObsSnapshot`]s — [`BufferSink`] keeps a bounded in-memory window,
//!   [`JsonlSink`] streams JSON Lines to any writer, and
//!   [`render_prometheus`] renders a snapshot in the Prometheus text
//!   exposition style;
//! - [`ObsHub`] ties it together inside the
//!   [`Orchestrator`](crate::engine::Orchestrator).
//!
//! Delivery durations are *simulation* milliseconds (transport latency);
//! binding, processing, and actuation durations are *wall-clock*
//! microseconds (simulation time does not advance while component logic
//! runs). Each activity snapshot carries its unit.
//!
//! Everything is **off by default**: with observability disabled and no
//! observers attached, the engine's hot path pays a single branch per
//! candidate record site (bounded by `diaspec-bench`'s `obs_overhead` test).

use crate::clock::SimTime;
use crate::spans::{SpanEvent, SpanStage, SpanTracer};
use crate::trace::TraceEvent;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

// ---- activities -----------------------------------------------------------

/// The four orchestration activities of the paper (§IV), plus recovery
/// (the §VI error-handling extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// Binding entities: attribute-based discovery and registration.
    Binding,
    /// Delivering data: a value crossing the (simulated) network.
    Delivering,
    /// Processing data: component logic, windows, MapReduce phases.
    Processing,
    /// Actuating entities: invoking a declared device action.
    Actuating,
    /// Recovering from injected faults: lease expiry to rebind, delivery
    /// retry backoff, fallback actuations, and map/reduce task
    /// re-execution time (see [`crate::fault`]).
    Recovering,
}

impl Activity {
    /// All activities: the paper's four in paper order, then recovery.
    pub const ALL: [Activity; 5] = [
        Activity::Binding,
        Activity::Delivering,
        Activity::Processing,
        Activity::Actuating,
        Activity::Recovering,
    ];

    /// Stable lower-case label (used in exports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Activity::Binding => "binding",
            Activity::Delivering => "delivering",
            Activity::Processing => "processing",
            Activity::Actuating => "actuating",
            Activity::Recovering => "recovering",
        }
    }

    /// Unit of the durations recorded under this activity.
    ///
    /// Delivery and recovery are measured on the simulation clock
    /// (milliseconds — recovery cost is dominated by backoff delays and
    /// lease timeouts, which are simulated time); the other three do not
    /// advance simulated time, so they are measured on the wall clock
    /// (microseconds).
    #[must_use]
    pub fn unit(self) -> &'static str {
        match self {
            Activity::Delivering | Activity::Recovering => "ms",
            _ => "us",
        }
    }

    /// Dense index in `0..5`, for array-backed storage.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Activity::Binding => 0,
            Activity::Delivering => 1,
            Activity::Processing => 2,
            Activity::Actuating => 3,
            Activity::Recovering => 4,
        }
    }
}

/// Wall-clock microseconds elapsed since `start`, saturated to `u64`.
#[must_use]
pub fn elapsed_us(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

// ---- histogram ------------------------------------------------------------

/// Values below this resolve to exact single-value buckets.
const LINEAR_LIMIT: u64 = 16;
/// Sub-buckets per power of two above the linear region (3 mantissa bits:
/// relative quantization error is at most 1/8).
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count: 16 exact buckets + 8 per power of two for
/// exponents 4..=63.
const BUCKETS: usize = LINEAR_LIMIT as usize + (63 - 3) * SUB;

/// A log-bucketed latency histogram.
///
/// Values up to 15 land in exact buckets; larger values are bucketed
/// log-linearly (8 sub-buckets per power of two, ≤ 12.5% relative
/// error). Recording is O(1) with no allocation; histograms merge
/// exactly (merging two histograms yields the same buckets as recording
/// the union of their streams).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of a value.
    fn bucket_of(value: u64) -> usize {
        if value < LINEAR_LIMIT {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros(); // >= 4
        let sub = ((value >> (exp - SUB_BITS)) as usize) & (SUB - 1);
        LINEAR_LIMIT as usize + (exp as usize - 4) * SUB + sub
    }

    /// Smallest value that maps to bucket `i`.
    fn bucket_lower(i: usize) -> u64 {
        if i < LINEAR_LIMIT as usize {
            return i as u64;
        }
        let j = i - LINEAR_LIMIT as usize;
        let exp = 4 + (j / SUB) as u32;
        let sub = (j % SUB) as u64;
        (SUB as u64 + sub) << (exp - SUB_BITS)
    }

    /// Largest value that maps to bucket `i`.
    fn bucket_upper(i: usize) -> u64 {
        if i + 1 >= BUCKETS {
            u64::MAX
        } else {
            Self::bucket_lower(i + 1) - 1
        }
    }

    /// Records one duration.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded durations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded durations (saturated to `u64`).
    #[must_use]
    pub fn sum(&self) -> u64 {
        u64::try_from(self.sum).unwrap_or(u64::MAX)
    }

    /// Smallest recorded duration (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded duration (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean recorded duration (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`) of the recorded
    /// durations, up to bucket resolution. Exact for values below 16 and
    /// for the extremes: `quantile(0.0)` and `quantile(1.0)` never fall
    /// outside `[min, max]`. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Self::bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one. Equivalent to having
    /// recorded both underlying streams into a single histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// A serializable summary (count, sum, extremes, mean,
    /// p50/p90/p99/p99.9).
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }

    /// Cumulative bucket counts in Prometheus histogram style: one
    /// `(le, cumulative count)` pair per occupied bucket, ordered by
    /// bucket upper bound. The final unbounded bucket is omitted — its
    /// samples are only reachable through the implicit `+Inf` bucket
    /// (whose cumulative count is [`LatencyHistogram::count`]).
    fn cumulative_buckets(&self) -> Vec<BucketCount> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if c == 0 {
                continue;
            }
            let le = Self::bucket_upper(i);
            if le == u64::MAX {
                continue;
            }
            out.push(BucketCount {
                le,
                count: cumulative,
            });
        }
        out
    }
}

/// One cumulative histogram bucket: the number of samples `<= le`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket, in the histogram's unit.
    pub le: u64,
    /// Cumulative sample count at or below `le`.
    pub count: u64,
}

/// Serializable summary of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of recorded durations.
    pub sum: u64,
    /// Smallest recorded duration.
    pub min: u64,
    /// Largest recorded duration.
    pub max: u64,
    /// Mean recorded duration.
    pub mean: f64,
    /// Median (up to bucket resolution).
    pub p50: u64,
    /// 90th percentile (up to bucket resolution).
    pub p90: u64,
    /// 99th percentile (up to bucket resolution).
    pub p99: u64,
    /// 99.9th percentile (up to bucket resolution).
    #[serde(default)]
    pub p999: u64,
}

// ---- snapshots ------------------------------------------------------------

/// Point-in-time export of everything the hub has measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Simulation time of the snapshot, in milliseconds.
    pub at: SimTime,
    /// One entry per [`Activity`], in [`Activity::ALL`] order.
    pub activities: Vec<ActivitySnapshot>,
    /// Per-pipeline-stage latency breakdowns from causal span tracing,
    /// one entry per [`SpanStage`], in [`SpanStage::ALL`] order. Empty
    /// when span tracing never ran.
    #[serde(default)]
    pub stages: Vec<StageSnapshot>,
    /// Queue-depth / occupancy gauges sampled at snapshot time (filled
    /// by the orchestrator; see `Orchestrator::observation`).
    #[serde(default)]
    pub gauges: Vec<GaugeSample>,
    /// Per-peer transport link counters, one entry per deployment link
    /// (filled by coordinators from
    /// [`Transport::stats`](crate::transport::Transport::stats); empty
    /// for single-process runs that never sampled a link).
    #[serde(default)]
    pub transports: Vec<TransportSample>,
}

impl ObsSnapshot {
    /// The snapshot of one activity, by its label.
    #[must_use]
    pub fn activity(&self, activity: Activity) -> Option<&ActivitySnapshot> {
        self.activities
            .iter()
            .find(|a| a.activity == activity.label())
    }

    /// The breakdown of one pipeline stage, by its label.
    #[must_use]
    pub fn stage(&self, stage: SpanStage) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.stage == stage.label())
    }

    /// The value of one gauge, by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The counters of one transport link, by peer name.
    #[must_use]
    pub fn transport(&self, peer: &str) -> Option<&TransportSample> {
        self.transports.iter().find(|t| t.peer == peer)
    }
}

/// Measurements attributed to one activity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivitySnapshot {
    /// Activity label (`binding`, `delivering`, `processing`,
    /// `actuating`, `recovering`).
    pub activity: String,
    /// Unit of the recorded durations (`ms` simulated or `us` wall).
    pub unit: String,
    /// Latency distribution of the activity.
    pub latency: HistogramSummary,
    /// Operation counts per component / device-family label.
    pub labels: BTreeMap<String, u64>,
    /// Cumulative latency buckets (occupied buckets only; the unbounded
    /// tail is implicit in `latency.count`).
    #[serde(default)]
    pub buckets: Vec<BucketCount>,
}

/// Latency breakdown of one pipeline stage, measured by span tracing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Stage label (`admit`, `route`, `schedule`, `dispatch`, `compute`,
    /// `actuate`, `retry`, `recover`, `ingest`).
    pub stage: String,
    /// Unit of the recorded durations (`ms` simulated or `us` wall).
    pub unit: String,
    /// Latency distribution of the stage.
    pub latency: HistogramSummary,
    /// Cumulative latency buckets (occupied buckets only).
    #[serde(default)]
    pub buckets: Vec<BucketCount>,
}

/// One occupancy gauge, sampled at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Gauge name (e.g. `queue_depth`, `inflight_deliveries`,
    /// `error_buffer_fill`).
    pub name: String,
    /// Sampled value.
    pub value: u64,
}

/// Counters of one transport link, sampled at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportSample {
    /// Peer node name (e.g. `edge0`).
    pub peer: String,
    /// Backend name (`in-process` or `tcp`).
    pub backend: String,
    /// Payload-frame bytes written to the peer.
    pub bytes_sent: u64,
    /// Payload-frame bytes read from the peer.
    pub bytes_received: u64,
    /// Envelopes written to the peer.
    pub frames_sent: u64,
    /// Envelopes read from the peer.
    pub frames_received: u64,
    /// Times the link was re-established after a failure.
    pub reconnects: u64,
}

impl TransportSample {
    /// Labels one link's [`TransportStats`](crate::transport::TransportStats)
    /// readout with its peer and backend names.
    #[must_use]
    pub fn from_stats(peer: &str, backend: &str, stats: &crate::transport::TransportStats) -> Self {
        TransportSample {
            peer: peer.to_owned(),
            backend: backend.to_owned(),
            bytes_sent: stats.bytes_sent,
            bytes_received: stats.bytes_received,
            frames_sent: stats.frames_sent,
            frames_received: stats.frames_received,
            reconnects: stats.reconnects,
        }
    }
}

// ---- the bounded ring ------------------------------------------------------

/// A bounded drop-oldest queue with a drop counter: the one buffer under
/// every telemetry surface that could otherwise grow without limit — the
/// engine's trace buffer, the completed-span buffer, and the three
/// [`BufferSink`] queues. Pushing to a disabled ring is a no-op; draining
/// resets the drop counter, so each drain reports a fresh window.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    items: std::collections::VecDeque<T>,
    capacity: usize,
    enabled: bool,
    dropped: u64,
}

impl<T> Ring<T> {
    pub(crate) fn new(capacity: usize, enabled: bool) -> Self {
        Ring {
            items: std::collections::VecDeque::new(),
            capacity: capacity.max(1),
            enabled,
            dropped: 0,
        }
    }

    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn push(&mut self, item: T) {
        if !self.enabled {
            return;
        }
        if self.items.len() >= self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    pub(crate) fn drain(&mut self) -> Vec<T> {
        self.dropped = 0;
        self.items.drain(..).collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

// ---- observers ------------------------------------------------------------

/// A pluggable observability sink.
///
/// Attached to an [`Orchestrator`](crate::engine::Orchestrator) via
/// [`attach_observer`](crate::engine::Orchestrator::attach_observer), an
/// observer is streamed every [`TraceEvent`] the engine produces
/// (regardless of whether the bounded internal trace buffer is enabled)
/// and receives an [`ObsSnapshot`] whenever one is published.
pub trait Observer {
    /// Called for each orchestration-level trace event, as it happens.
    fn on_event(&mut self, _event: &TraceEvent) {}

    /// Called for each completed causal span, as it closes. Only fires
    /// while span tracing is enabled (see
    /// `Orchestrator::set_span_tracing`).
    fn on_span(&mut self, _span: &SpanEvent) {}

    /// Called when a metrics snapshot is published.
    fn on_snapshot(&mut self, _snapshot: &ObsSnapshot) {}
}

/// A bounded in-memory sink: the observer counterpart of the engine's
/// internal trace buffer. Oldest events, spans and snapshots are dropped
/// past the capacity; a drop counter resets when its queue is drained.
#[derive(Debug)]
pub struct BufferSink {
    events: Ring<TraceEvent>,
    spans: Ring<SpanEvent>,
    snapshots: Ring<ObsSnapshot>,
}

impl BufferSink {
    /// Creates a sink holding at most `capacity` events (and, likewise,
    /// at most `capacity` spans and `capacity` snapshots).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BufferSink {
            events: Ring::new(capacity, true),
            spans: Ring::new(capacity, true),
            snapshots: Ring::new(capacity, true),
        }
    }

    /// Drains the buffered events, resetting the drop counter.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        self.events.drain()
    }

    /// Drains the buffered spans, resetting the span drop counter.
    pub fn take_spans(&mut self) -> Vec<SpanEvent> {
        self.spans.drain()
    }

    /// Drains the buffered snapshots.
    pub fn take_snapshots(&mut self) -> Vec<ObsSnapshot> {
        self.snapshots.drain()
    }

    /// Events dropped since the last [`BufferSink::take`].
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.events.dropped()
    }

    /// Spans dropped since the last [`BufferSink::take_spans`].
    #[must_use]
    pub fn spans_dropped(&self) -> u64 {
        self.spans.dropped()
    }
}

impl Observer for BufferSink {
    fn on_event(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }

    fn on_span(&mut self, span: &SpanEvent) {
        self.spans.push(span.clone());
    }

    fn on_snapshot(&mut self, snapshot: &ObsSnapshot) {
        self.snapshots.push(snapshot.clone());
    }
}

/// A JSON Lines sink: one JSON object per line, `{"trace": ...}` for
/// events, `{"span": ...}` for completed spans and `{"snapshot": ...}`
/// for snapshots.
///
/// Write errors do not disturb the orchestration; a line that fails to
/// write is not counted in [`JsonlSink::lines`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    lines: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, lines: 0 }
    }

    /// Lines successfully written so far.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the writer's flush error.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Unwraps the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }

    /// Read access to the underlying writer (e.g. to inspect an
    /// in-memory buffer through a [`SharedSink`]).
    pub fn writer(&self) -> &W {
        &self.writer
    }

    fn write_line(&mut self, line: &str) {
        if writeln!(self.writer, "{line}").is_ok() {
            self.lines += 1;
        }
    }
}

impl<W: Write> Observer for JsonlSink<W> {
    fn on_event(&mut self, event: &TraceEvent) {
        if let Ok(json) = serde_json::to_string(event) {
            self.write_line(&format!("{{\"trace\":{json}}}"));
        }
    }

    fn on_span(&mut self, span: &SpanEvent) {
        if let Ok(json) = serde_json::to_string(span) {
            self.write_line(&format!("{{\"span\":{json}}}"));
        }
    }

    fn on_snapshot(&mut self, snapshot: &ObsSnapshot) {
        if let Ok(json) = serde_json::to_string(snapshot) {
            self.write_line(&format!("{{\"snapshot\":{json}}}"));
        }
        let _ = self.flush();
    }
}

/// A cloneable handle that shares one sink between the orchestrator and
/// the caller: attach a clone, keep the original to inspect the sink
/// after (or during) the run.
#[derive(Debug)]
pub struct SharedSink<S>(Arc<Mutex<S>>);

impl<S> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink(Arc::clone(&self.0))
    }
}

impl<S> SharedSink<S> {
    /// Wraps a sink in a shared handle.
    pub fn new(sink: S) -> Self {
        SharedSink(Arc::new(Mutex::new(sink)))
    }

    /// Runs `f` with exclusive access to the sink.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let mut guard = self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard)
    }
}

impl<S: Observer> Observer for SharedSink<S> {
    fn on_event(&mut self, event: &TraceEvent) {
        self.with(|s| s.on_event(event));
    }

    fn on_span(&mut self, span: &SpanEvent) {
        self.with(|s| s.on_span(span));
    }

    fn on_snapshot(&mut self, snapshot: &ObsSnapshot) {
        self.with(|s| s.on_snapshot(snapshot));
    }
}

// ---- Prometheus text exposition -------------------------------------------

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote, and line feed.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// One row of a latency family: the value of its key label, its unit,
/// and the distribution.
type LatencyRow<'a> = (&'a str, &'a str, &'a HistogramSummary, &'a [BucketCount]);

/// Appends the two families that describe one set of latency
/// distributions: `<family>` as a `summary` (p50/p90/p99/p99.9 + `_sum` +
/// `_count`) and `<family>_hist` as a cumulative `histogram`
/// (`_bucket{le=...}`/`_sum`/`_count`), one row per `key` label value.
fn render_latency_families(
    out: &mut String,
    family: &str,
    key: &str,
    summary_help: &str,
    hist_help: &str,
    rows: &[LatencyRow<'_>],
) {
    let base = |name: &str, unit: &str| format!("{key}=\"{name}\",unit=\"{unit}\"");
    out.push_str(&format!("# HELP {family} {summary_help}\n"));
    out.push_str(&format!("# TYPE {family} summary\n"));
    for &(name, unit, latency, _) in rows {
        let base = base(name, unit);
        for (q, v) in [
            ("0.5", latency.p50),
            ("0.9", latency.p90),
            ("0.99", latency.p99),
            ("0.999", latency.p999),
        ] {
            out.push_str(&format!("{family}{{{base},quantile=\"{q}\"}} {v}\n"));
        }
        out.push_str(&format!("{family}_sum{{{base}}} {}\n", latency.sum));
        out.push_str(&format!("{family}_count{{{base}}} {}\n", latency.count));
    }
    out.push_str(&format!("# HELP {family}_hist {hist_help}\n"));
    out.push_str(&format!("# TYPE {family}_hist histogram\n"));
    for &(name, unit, latency, buckets) in rows {
        let base = base(name, unit);
        for bucket in buckets {
            out.push_str(&format!(
                "{family}_hist_bucket{{{base},le=\"{}\"}} {}\n",
                bucket.le, bucket.count
            ));
        }
        out.push_str(&format!(
            "{family}_hist_bucket{{{base},le=\"+Inf\"}} {}\n",
            latency.count
        ));
        out.push_str(&format!("{family}_hist_sum{{{base}}} {}\n", latency.sum));
        out.push_str(&format!(
            "{family}_hist_count{{{base}}} {}\n",
            latency.count
        ));
    }
}

/// Renders a snapshot in the Prometheus text exposition style:
///
/// - `diaspec_activity_operations_total` — counter per activity/label
///   pair;
/// - `diaspec_activity_latency` — summary (p50/p90/p99/p99.9 + sum +
///   count) per activity;
/// - `diaspec_activity_latency_hist` — full cumulative histogram
///   (`_bucket{le=...}`/`_sum`/`_count`) per activity;
/// - `diaspec_stage_latency` / `diaspec_stage_latency_hist` — the same
///   pair per causal-tracing pipeline stage, when spans were recorded;
/// - `diaspec_transport_bytes_sent_total` /
///   `diaspec_transport_bytes_received_total` /
///   `diaspec_transport_frames_sent_total` /
///   `diaspec_transport_frames_received_total` /
///   `diaspec_transport_reconnects_total` — per-peer link counters, when
///   the snapshot carries transport samples;
/// - one `diaspec_<name>` gauge per occupancy sample in the snapshot.
#[must_use]
pub fn render_prometheus(snapshot: &ObsSnapshot) -> String {
    let mut out = String::new();
    out.push_str(
        "# HELP diaspec_activity_operations_total Operations observed per activity and component.\n",
    );
    out.push_str("# TYPE diaspec_activity_operations_total counter\n");
    for act in &snapshot.activities {
        for (label, count) in &act.labels {
            out.push_str(&format!(
                "diaspec_activity_operations_total{{activity=\"{}\",component=\"{}\"}} {}\n",
                act.activity,
                escape_label(label),
                count
            ));
        }
    }
    let activities: Vec<LatencyRow<'_>> = snapshot
        .activities
        .iter()
        .map(|a| (&*a.activity, &*a.unit, &a.latency, &*a.buckets))
        .collect();
    render_latency_families(
        &mut out,
        "diaspec_activity_latency",
        "activity",
        "Duration distribution per activity (ms simulated for delivering, us wall otherwise).",
        "Cumulative duration histogram per activity.",
        &activities,
    );
    if !snapshot.stages.is_empty() {
        let stages: Vec<LatencyRow<'_>> = snapshot
            .stages
            .iter()
            .map(|s| (&*s.stage, &*s.unit, &s.latency, &*s.buckets))
            .collect();
        render_latency_families(
            &mut out,
            "diaspec_stage_latency",
            "stage",
            "Per-pipeline-stage duration from causal span tracing.",
            "Cumulative duration histogram per pipeline stage.",
            &stages,
        );
    }
    if !snapshot.transports.is_empty() {
        type CounterOf = fn(&TransportSample) -> u64;
        let families: [(&str, &str, CounterOf); 5] = [
            (
                "diaspec_transport_bytes_sent_total",
                "Payload-frame bytes written per transport link.",
                |t| t.bytes_sent,
            ),
            (
                "diaspec_transport_bytes_received_total",
                "Payload-frame bytes read per transport link.",
                |t| t.bytes_received,
            ),
            (
                "diaspec_transport_frames_sent_total",
                "Envelopes written per transport link.",
                |t| t.frames_sent,
            ),
            (
                "diaspec_transport_frames_received_total",
                "Envelopes read per transport link.",
                |t| t.frames_received,
            ),
            (
                "diaspec_transport_reconnects_total",
                "Times a transport link was re-established after a failure.",
                |t| t.reconnects,
            ),
        ];
        for (family, help, value) in families {
            out.push_str(&format!("# HELP {family} {help}\n"));
            out.push_str(&format!("# TYPE {family} counter\n"));
            for t in &snapshot.transports {
                out.push_str(&format!(
                    "{family}{{peer=\"{}\",backend=\"{}\"}} {}\n",
                    escape_label(&t.peer),
                    escape_label(&t.backend),
                    value(t)
                ));
            }
        }
    }
    for gauge in &snapshot.gauges {
        let name = format!("diaspec_{}", gauge.name);
        out.push_str(&format!(
            "# HELP {name} Occupancy gauge sampled at snapshot time.\n"
        ));
        out.push_str(&format!("# TYPE {name} gauge\n"));
        out.push_str(&format!("{name} {}\n", gauge.value));
    }
    out
}

// ---- the hub --------------------------------------------------------------

struct ActivityStats {
    hist: LatencyHistogram,
    labels: BTreeMap<String, u64>,
}

impl ActivityStats {
    fn new() -> Self {
        ActivityStats {
            hist: LatencyHistogram::new(),
            labels: BTreeMap::new(),
        }
    }
}

/// The engine-side aggregation point: per-activity histograms, labeled
/// operation counters, and the list of attached [`Observer`]s.
///
/// Duration recording is off by default ([`ObsHub::set_enabled`]); trace
/// events flow to observers whenever any are attached.
pub struct ObsHub {
    enabled: bool,
    activities: [ActivityStats; 5],
    observers: Vec<Box<dyn Observer>>,
    spans: SpanTracer,
}

impl std::fmt::Debug for ObsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHub")
            .field("enabled", &self.enabled)
            .field("observers", &self.observers.len())
            .field("spans_enabled", &self.spans.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Default for ObsHub {
    fn default() -> Self {
        ObsHub::new()
    }
}

impl ObsHub {
    /// Creates a hub with recording disabled and no observers.
    #[must_use]
    pub fn new() -> Self {
        ObsHub {
            enabled: false,
            activities: [
                ActivityStats::new(),
                ActivityStats::new(),
                ActivityStats::new(),
                ActivityStats::new(),
                ActivityStats::new(),
            ],
            observers: Vec::new(),
            spans: SpanTracer::new(),
        }
    }

    /// Enables or disables duration recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether duration recording is on. This is the only check on the
    /// disabled hot path.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attaches an observer sink.
    pub fn attach(&mut self, observer: Box<dyn Observer>) {
        self.observers.push(observer);
    }

    /// Whether any observer is attached.
    #[must_use]
    pub fn has_observers(&self) -> bool {
        !self.observers.is_empty()
    }

    /// Records one duration under `activity`, labeled with the component
    /// or device-family name. No-op while disabled.
    pub fn record(&mut self, activity: Activity, label: &str, value: u64) {
        if !self.enabled {
            return;
        }
        let stats = &mut self.activities[activity.index()];
        stats.hist.record(value);
        match stats.labels.get_mut(label) {
            Some(count) => *count += 1,
            None => {
                stats.labels.insert(label.to_owned(), 1);
            }
        }
    }

    /// Read access to one activity's histogram.
    #[must_use]
    pub fn histogram(&self, activity: Activity) -> &LatencyHistogram {
        &self.activities[activity.index()].hist
    }

    /// Streams a trace event to every attached observer.
    pub fn broadcast(&mut self, event: &TraceEvent) {
        for observer in &mut self.observers {
            observer.on_event(event);
        }
    }

    // ---- causal spans ----

    /// Enables or disables causal span tracing (implies span buffering
    /// when enabling).
    pub fn set_spans_enabled(&mut self, enabled: bool) {
        self.spans.set_enabled(enabled);
    }

    /// Whether span tracing is on. This is the only check on the
    /// disabled span hot path.
    #[must_use]
    pub fn spans_enabled(&self) -> bool {
        self.spans.is_enabled()
    }

    /// Turns the in-memory completed-span buffer on or off independently
    /// of span tracing itself. With buffering off and no observers
    /// attached, spans are not materialized at all — only IDs are minted
    /// and the per-stage histograms updated (the load-harness
    /// configuration).
    pub fn set_span_buffering(&mut self, buffering: bool) {
        self.spans.set_buffering(buffering);
    }

    /// Whether closed spans need a materialized [`SpanEvent`] (buffered
    /// or streamed to an observer) — callers use this to skip building
    /// label strings.
    #[must_use]
    pub fn spans_materializing(&self) -> bool {
        self.spans.is_buffering() || !self.observers.is_empty()
    }

    /// Mints a fresh trace ID (flows start at 1).
    pub fn mint_trace(&mut self) -> u64 {
        self.spans.mint_trace()
    }

    /// Opens a span and returns its ID. `label` is only retained when
    /// [`ObsHub::spans_materializing`] — pass `""` otherwise.
    pub fn open_span(
        &mut self,
        trace_id: u64,
        parent: u64,
        stage: SpanStage,
        label: &str,
        begin_ms: SimTime,
    ) -> u64 {
        let materialize = self.spans_materializing();
        self.spans
            .open(trace_id, parent, stage, label, begin_ms, materialize)
    }

    /// Closes an open span: records the stage histogram and, when
    /// materializing, buffers the completed span and streams it to every
    /// attached observer.
    pub fn close_span(&mut self, span_id: u64, end_ms: SimTime, wall_us: u64) {
        if let Some(event) = self.spans.close(span_id, end_ms, wall_us) {
            for observer in &mut self.observers {
                observer.on_span(&event);
            }
        }
    }

    /// Drains the completed-span buffer, resetting its drop counter.
    pub fn take_spans(&mut self) -> Vec<SpanEvent> {
        self.spans.take()
    }

    /// Spans dropped from the bounded buffer since the last drain.
    #[must_use]
    pub fn spans_dropped(&self) -> u64 {
        self.spans.dropped()
    }

    /// Number of currently open (unclosed) spans.
    #[must_use]
    pub fn open_span_count(&self) -> usize {
        self.spans.open_count()
    }

    /// Read access to one pipeline stage's latency histogram.
    #[must_use]
    pub fn stage_histogram(&self, stage: SpanStage) -> &LatencyHistogram {
        self.spans.stage_histogram(stage)
    }

    // ---- snapshots ----

    /// Builds a snapshot of everything recorded so far. Stage breakdowns
    /// are included once span tracing has ever been enabled; gauges are
    /// filled in by the orchestrator, which owns the queues being
    /// sampled.
    #[must_use]
    pub fn snapshot(&self, at: SimTime) -> ObsSnapshot {
        let include_stages = self.spans.is_enabled()
            || SpanStage::ALL
                .iter()
                .any(|&s| !self.spans.stage_histogram(s).is_empty());
        ObsSnapshot {
            at,
            activities: Activity::ALL
                .iter()
                .map(|&activity| {
                    let stats = &self.activities[activity.index()];
                    ActivitySnapshot {
                        activity: activity.label().to_owned(),
                        unit: activity.unit().to_owned(),
                        latency: stats.hist.summary(),
                        labels: stats.labels.clone(),
                        buckets: stats.hist.cumulative_buckets(),
                    }
                })
                .collect(),
            stages: if include_stages {
                SpanStage::ALL
                    .iter()
                    .map(|&stage| {
                        let hist = self.spans.stage_histogram(stage);
                        StageSnapshot {
                            stage: stage.label().to_owned(),
                            unit: stage.unit().to_owned(),
                            latency: hist.summary(),
                            buckets: hist.cumulative_buckets(),
                        }
                    })
                    .collect()
            } else {
                Vec::new()
            },
            gauges: Vec::new(),
            transports: Vec::new(),
        }
    }

    /// Builds a snapshot and pushes it to every attached observer.
    pub fn publish(&mut self, at: SimTime) -> ObsSnapshot {
        let snapshot = self.snapshot(at);
        self.publish_snapshot(&snapshot);
        snapshot
    }

    /// Pushes an already-built snapshot (e.g. one augmented with gauges)
    /// to every attached observer.
    pub fn publish_snapshot(&mut self, snapshot: &ObsSnapshot) {
        for observer in &mut self.observers {
            observer.on_snapshot(snapshot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;

    #[test]
    fn small_values_have_exact_buckets() {
        let mut h = LatencyHistogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        // Below LINEAR_LIMIT every value is its own bucket, so quantiles
        // are exact.
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn bucket_boundaries_round_trip() {
        // The lower bound of every bucket maps back to that bucket, and
        // so does its upper bound.
        for i in 0..BUCKETS {
            let lo = LatencyHistogram::bucket_lower(i);
            assert_eq!(LatencyHistogram::bucket_of(lo), i, "lower of bucket {i}");
            let hi = LatencyHistogram::bucket_upper(i);
            assert_eq!(LatencyHistogram::bucket_of(hi), i, "upper of bucket {i}");
        }
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        h.record(1000);
        let q = h.quantile(0.5);
        // One sample: any quantile must return a value within bucket
        // resolution (12.5%) of it — and clamping makes it exact here.
        assert_eq!(q, 1000);
        h.record(2000);
        let p99 = h.quantile(0.99);
        assert!(p99 <= 2000 && p99 as f64 >= 2000.0 * 0.875, "{p99}");
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        let mut state = 0x1234_5678_u64;
        for _ in 0..1000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(state >> 40);
        }
        let mut prev = 0;
        for i in 0..=100 {
            let q = h.quantile(f64::from(i) / 100.0);
            assert!(q >= prev, "quantile regressed at {i}%: {q} < {prev}");
            prev = q;
        }
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut union = LatencyHistogram::new();
        for v in [0u64, 3, 17, 999, 1_000_000] {
            a.record(v);
            union.record(v);
        }
        for v in [5u64, 17, 40_000] {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        let s = h.summary();
        assert_eq!(s.count, 0);
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let mut hub = ObsHub::new();
        hub.record(Activity::Delivering, "Ctx", 5);
        assert!(hub.histogram(Activity::Delivering).is_empty());
        hub.set_enabled(true);
        hub.record(Activity::Delivering, "Ctx", 5);
        hub.record(Activity::Delivering, "Ctx", 7);
        let snap = hub.snapshot(42);
        let delivering = snap.activity(Activity::Delivering).unwrap();
        assert_eq!(delivering.latency.count, 2);
        assert_eq!(delivering.labels["Ctx"], 2);
        assert_eq!(delivering.unit, "ms");
        assert_eq!(snap.at, 42);
    }

    #[test]
    fn buffer_sink_is_bounded_and_resets_dropped_on_take() {
        let mut sink = BufferSink::new(2);
        for at in 0..5 {
            sink.on_event(&TraceEvent {
                at,
                kind: TraceKind::ContextActivation {
                    context: "C".into(),
                },
            });
        }
        assert_eq!(sink.dropped(), 3);
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at, 3, "oldest dropped");
        assert_eq!(sink.dropped(), 0, "drained buffers start a fresh window");
    }

    #[test]
    fn ring_is_gated_bounded_and_drains_to_a_fresh_window() {
        let mut ring = Ring::new(3, false);
        ring.push(0);
        assert!(!ring.is_enabled());
        assert!(ring.drain().is_empty(), "a disabled ring records nothing");
        ring.set_enabled(true);
        for i in 1..=5 {
            ring.push(i);
        }
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.drain(), [3, 4, 5], "oldest dropped");
        assert_eq!(ring.dropped(), 0, "drain resets the drop counter");
        assert!(ring.drain().is_empty(), "drained");
    }

    #[test]
    fn buffer_sink_bounds_its_snapshots_too() {
        const CAPACITY: usize = 4;
        let mut sink = BufferSink::new(CAPACITY);
        let hub = ObsHub::new();
        for at in 0..(CAPACITY as u64 + 3) {
            sink.on_snapshot(&hub.snapshot(at));
        }
        let kept = sink.take_snapshots();
        assert_eq!(kept.len(), CAPACITY);
        assert_eq!(kept[0].at, 3, "the newest `capacity` are kept");
        assert!(sink.take_snapshots().is_empty(), "drained");
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.on_event(&TraceEvent {
            at: 7,
            kind: TraceKind::Actuation {
                entity: "tv".into(),
                action: "on".into(),
            },
        });
        let mut hub = ObsHub::new();
        hub.set_enabled(true);
        hub.record(Activity::Actuating, "Tv.on", 12);
        sink.on_snapshot(&hub.snapshot(9));
        assert_eq!(sink.lines(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let trace: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert!(!trace["trace"].is_null());
        let snap: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(snap["snapshot"]["at"].as_u64(), Some(9));
    }

    #[test]
    fn shared_sink_exposes_contents_after_attachment() {
        let shared = SharedSink::new(BufferSink::new(10));
        let mut hub = ObsHub::new();
        hub.attach(Box::new(shared.clone()));
        assert!(hub.has_observers());
        hub.broadcast(&TraceEvent {
            at: 1,
            kind: TraceKind::Error {
                message: "x".into(),
            },
        });
        assert_eq!(shared.with(|s| s.take().len()), 1);
    }

    #[test]
    fn prometheus_rendering_has_counters_and_summaries() {
        let mut hub = ObsHub::new();
        hub.set_enabled(true);
        hub.record(Activity::Delivering, "AvgTemp", 10);
        hub.record(Activity::Delivering, "AvgTemp", 30);
        hub.record(Activity::Processing, "AvgTemp", 250);
        let text = render_prometheus(&hub.snapshot(0));
        assert!(text.contains(
            "diaspec_activity_operations_total{activity=\"delivering\",component=\"AvgTemp\"} 2"
        ));
        assert!(text.contains("# TYPE diaspec_activity_latency summary"));
        assert!(
            text.contains("diaspec_activity_latency_count{activity=\"delivering\",unit=\"ms\"} 2")
        );
        assert!(text.contains("quantile=\"0.99\""));
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let mut hub = ObsHub::new();
        hub.set_enabled(true);
        hub.record(Activity::Processing, "weird\\label\"with\nnewline", 1);
        let text = render_prometheus(&hub.snapshot(0));
        assert!(
            text.contains("component=\"weird\\\\label\\\"with\\nnewline\""),
            "{text}"
        );
        // The raw newline must not split the sample line in two.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.starts_with("diaspec_"),
                "malformed exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn prometheus_renders_a_fully_empty_snapshot() {
        let hub = ObsHub::new();
        let text = render_prometheus(&hub.snapshot(0));
        // No counters (no labels recorded), but every activity still gets
        // a well-formed summary with zero counts.
        assert!(text.contains("# TYPE diaspec_activity_operations_total counter"));
        for activity in Activity::ALL {
            assert!(
                text.contains(&format!(
                    "diaspec_activity_latency_count{{activity=\"{}\",unit=\"{}\"}} 0",
                    activity.label(),
                    activity.unit()
                )),
                "{text}"
            );
        }
        for line in text.lines() {
            assert!(!line.trim_end().is_empty(), "blank exposition line");
        }
    }

    #[test]
    fn recovering_activity_is_exported() {
        let mut hub = ObsHub::new();
        hub.set_enabled(true);
        hub.record(Activity::Recovering, "Altimeter", 5_000);
        let snap = hub.snapshot(1);
        let rec = snap.activity(Activity::Recovering).unwrap();
        assert_eq!(rec.unit, "ms");
        assert_eq!(rec.latency.count, 1);
        assert_eq!(rec.labels["Altimeter"], 1);
        assert_eq!(snap.activities.len(), Activity::ALL.len());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut hub = ObsHub::new();
        hub.set_enabled(true);
        hub.record(Activity::Binding, "PresenceSensor", 90);
        let snap = hub.snapshot(123);
        let json = serde_json::to_string(&snap).unwrap();
        let back: ObsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn cumulative_buckets_cover_every_sample_and_stay_cumulative() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 0, 3, 17, 17, 999, 40_000] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        let mut prev_le = 0;
        let mut prev_count = 0;
        for b in &buckets {
            assert!(b.le >= prev_le, "le must be non-decreasing");
            assert!(b.count > prev_count, "counts must be cumulative");
            prev_le = b.le;
            prev_count = b.count;
        }
        assert_eq!(
            buckets.last().unwrap().count,
            h.count(),
            "final finite bucket covers every sample here"
        );
        // The unbounded tail bucket is excluded even when occupied.
        let mut tail = LatencyHistogram::new();
        tail.record(u64::MAX);
        assert!(tail.cumulative_buckets().is_empty());
        assert_eq!(tail.count(), 1, "still visible via count / +Inf");
    }

    #[test]
    fn prometheus_renders_cumulative_histograms_and_gauges() {
        let mut hub = ObsHub::new();
        hub.set_enabled(true);
        hub.record(Activity::Delivering, "AvgTemp", 10);
        hub.record(Activity::Delivering, "AvgTemp", 3_000);
        let mut snap = hub.snapshot(0);
        snap.gauges.push(GaugeSample {
            name: "queue_depth".into(),
            value: 7,
        });
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE diaspec_activity_latency_hist histogram"));
        assert!(text.contains(
            "diaspec_activity_latency_hist_bucket{activity=\"delivering\",unit=\"ms\",le=\"10\"} 1"
        ));
        assert!(text.contains(
            "diaspec_activity_latency_hist_bucket{activity=\"delivering\",unit=\"ms\",le=\"+Inf\"} 2"
        ));
        assert!(text.contains(
            "diaspec_activity_latency_hist_count{activity=\"delivering\",unit=\"ms\"} 2"
        ));
        assert!(text.contains("quantile=\"0.999\""));
        assert!(text.contains("# TYPE diaspec_queue_depth gauge"));
        assert!(text.contains("diaspec_queue_depth 7"));
        // No spans recorded: the stage families are absent entirely.
        assert!(!text.contains("diaspec_stage_latency"));
    }

    #[test]
    fn prometheus_renders_per_peer_transport_counters() {
        let hub = ObsHub::new();
        let mut snap = hub.snapshot(0);
        // No links sampled: the transport families are absent entirely.
        assert!(!render_prometheus(&snap).contains("diaspec_transport_"));

        let stats = crate::transport::TransportStats {
            bytes_sent: 1_234,
            bytes_received: 567,
            frames_sent: 21,
            frames_received: 20,
            reconnects: 0,
        };
        snap.transports
            .push(TransportSample::from_stats("edge0", "tcp", &stats));
        snap.transports.push(TransportSample {
            reconnects: 3,
            ..TransportSample::from_stats("edge1", "tcp", &stats)
        });
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE diaspec_transport_bytes_sent_total counter"));
        assert!(text
            .contains("diaspec_transport_bytes_sent_total{peer=\"edge0\",backend=\"tcp\"} 1234"));
        assert!(text.contains(
            "diaspec_transport_bytes_received_total{peer=\"edge0\",backend=\"tcp\"} 567"
        ));
        assert!(
            text.contains("diaspec_transport_frames_sent_total{peer=\"edge1\",backend=\"tcp\"} 21")
        );
        assert!(
            text.contains("diaspec_transport_reconnects_total{peer=\"edge0\",backend=\"tcp\"} 0")
        );
        assert!(
            text.contains("diaspec_transport_reconnects_total{peer=\"edge1\",backend=\"tcp\"} 3")
        );
        assert_eq!(snap.transport("edge1").unwrap().reconnects, 3);
        assert!(snap.transport("edge9").is_none());
        // The section survives a JSON round-trip, and old snapshots
        // without it still deserialize.
        let json = serde_json::to_string(&snap).unwrap();
        let back: ObsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.transports, snap.transports);
    }

    #[test]
    fn prometheus_renders_stage_breakdowns_when_spans_ran() {
        let mut hub = ObsHub::new();
        hub.set_spans_enabled(true);
        let trace = hub.mint_trace();
        let span = hub.open_span(trace, 0, SpanStage::Schedule, "Ctx", 0);
        hub.close_span(span, 40, 0);
        let snap = hub.snapshot(40);
        assert_eq!(snap.stages.len(), SpanStage::ALL.len());
        let sched = snap.stage(SpanStage::Schedule).unwrap();
        assert_eq!(sched.latency.count, 1);
        assert_eq!(sched.unit, "ms");
        let text = render_prometheus(&snap);
        assert!(text
            .contains("diaspec_stage_latency{stage=\"schedule\",unit=\"ms\",quantile=\"0.5\"} 40"));
        assert!(text.contains(
            "diaspec_stage_latency_hist_bucket{stage=\"schedule\",unit=\"ms\",le=\"+Inf\"} 1"
        ));
    }

    #[test]
    fn hub_spans_stream_to_observers_and_buffer() {
        let shared = SharedSink::new(BufferSink::new(10));
        let mut hub = ObsHub::new();
        hub.attach(Box::new(shared.clone()));
        hub.set_spans_enabled(true);
        assert!(hub.spans_materializing());
        let trace = hub.mint_trace();
        let admit = hub.open_span(trace, 0, SpanStage::Admit, "s.v", 5);
        hub.close_span(admit, 5, 12);
        let streamed = shared.with(BufferSink::take_spans);
        assert_eq!(streamed.len(), 1);
        assert_eq!(streamed[0].label, "s.v");
        assert_eq!(streamed[0].wall_us, 12);
        let buffered = hub.take_spans();
        assert_eq!(buffered, streamed);
        assert_eq!(hub.open_span_count(), 0);
        assert_eq!(hub.stage_histogram(SpanStage::Admit).count(), 1);
    }

    #[test]
    fn hub_spans_without_buffer_or_observers_keep_histograms_only() {
        let mut hub = ObsHub::new();
        hub.set_spans_enabled(true);
        hub.set_span_buffering(false);
        assert!(!hub.spans_materializing());
        let trace = hub.mint_trace();
        let id = hub.open_span(trace, 0, SpanStage::Dispatch, "", 0);
        hub.close_span(id, 0, 99);
        assert!(hub.take_spans().is_empty());
        assert_eq!(hub.stage_histogram(SpanStage::Dispatch).count(), 1);
    }
}
