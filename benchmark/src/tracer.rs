//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer: the request loop, `emit_at`, `run_until`, the
//! component closures, and the `DeviceInstance` / `Transport` /
//! `serve_connection` wrappers. Each thread records into its own
//! recorder, and only after [`start`]: in an untraced run a span site
//! costs one thread-local read. Spans on one thread nest, so a stack
//! gives each span its parent, and a span's *self time* — its duration
//! minus what its direct children cover — is summed per site as spans
//! close. The first [`KEPT`] spans are also kept whole (site, start,
//! end, parent, request) for the `trace_event` file.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Spans kept whole for the trace file; the sums cover every span.
pub const KEPT: usize = 60_000;

const NO_PARENT: u32 = u32::MAX;

/// A layer boundary the benchmark wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// One request, as the workload defines it.
    Request,
    /// `Orchestrator::emit_at`.
    Emit,
    /// `Orchestrator::run_until`.
    RunUntil,
    /// A context closure of the benchmark.
    Context,
    /// A controller closure of the benchmark.
    Controller,
    /// `ControllerApi::invoke`, called from a controller closure: the
    /// engine's actuation path around the device call.
    Actuate,
    /// A device driver called in this process.
    Device,
    /// A `RemoteDeviceProxy` call: link, session, wire codec, socket.
    ProxyCall,
    /// `Transport::exchange` under the link: socket and peer.
    Exchange,
    /// The exchange of a `Tick` envelope (the pump's, not a device call).
    TickExchange,
    /// The edge's handler for one envelope (edge thread).
    EdgeHandle,
    /// A device driver called by the edge runtime (edge thread).
    EdgeDevice,
}

impl Site {
    /// Every site, in ledger order.
    pub const ALL: [Site; 12] = [
        Site::Request,
        Site::Emit,
        Site::RunUntil,
        Site::Context,
        Site::Controller,
        Site::Actuate,
        Site::Device,
        Site::ProxyCall,
        Site::Exchange,
        Site::TickExchange,
        Site::EdgeHandle,
        Site::EdgeDevice,
    ];

    /// The span name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Site::Request => "request",
            Site::Emit => "engine.emit_at",
            Site::RunUntil => "engine.run_until",
            Site::Context => "component.context",
            Site::Controller => "component.controller",
            Site::Actuate => "engine.actuate",
            Site::Device => "device.call",
            Site::ProxyCall => "link.proxy_call",
            Site::Exchange => "socket.exchange",
            Site::TickExchange => "socket.tick_exchange",
            Site::EdgeHandle => "edge.handle",
            Site::EdgeDevice => "edge.device",
        }
    }
}

/// One span kept whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Where it was recorded.
    pub site: Site,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused it among the kept spans.
    pub parent: Option<u32>,
    /// The request it belongs to (requests count from 1).
    pub request: u32,
}

/// Sums over every span of one site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteTotal {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

#[derive(Debug)]
struct Frame {
    site: Site,
    start_ns: u64,
    child_ns: u64,
    kept: u32,
}

/// What one thread recorded: the sums over every span, and the first
/// [`KEPT`] spans whole.
#[derive(Debug, Default)]
pub struct Recording {
    stack: Vec<Frame>,
    totals: [SiteTotal; Site::ALL.len()],
    kept: Vec<Span>,
    request: u32,
}

impl Recording {
    fn new() -> Recording {
        Recording {
            kept: Vec::with_capacity(KEPT),
            stack: Vec::with_capacity(16),
            ..Recording::default()
        }
    }

    fn enter_at(&mut self, site: Site, now_ns: u64) {
        if site == Site::Request {
            self.request += 1;
        }
        let kept = if self.kept.len() < KEPT {
            self.kept.push(Span {
                site,
                start_ns: now_ns,
                end_ns: now_ns,
                parent: self
                    .stack
                    .last()
                    .map(|f| f.kept)
                    .filter(|k| *k != NO_PARENT),
                request: self.request,
            });
            self.kept.len() as u32 - 1
        } else {
            NO_PARENT
        };
        self.stack.push(Frame {
            site,
            start_ns: now_ns,
            child_ns: 0,
            kept,
        });
    }

    fn exit_at(&mut self, now_ns: u64) {
        let frame = self.stack.pop().expect("a span closes after it opened");
        let duration = now_ns.saturating_sub(frame.start_ns);
        let total = &mut self.totals[frame.site as usize];
        total.count += 1;
        total.total_ns += duration;
        total.self_ns += duration.saturating_sub(frame.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        if frame.kept != NO_PARENT {
            self.kept[frame.kept as usize].end_ns = now_ns;
        }
    }

    /// The sums of `site`.
    pub fn total(&self, site: Site) -> SiteTotal {
        self.totals[site as usize]
    }

    /// The spans kept whole, in opening order.
    pub fn kept(&self) -> &[Span] {
        &self.kept
    }
}

thread_local! {
    static RECORDING: RefCell<Option<Recording>> = const { RefCell::new(None) };
}

/// The one clock of every thread's spans, so that they line up in the
/// trace file.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Starts recording on the calling thread, forgetting anything it had
/// recorded (so also: the reset after warm-up).
pub fn start() {
    RECORDING.with(|r| {
        let mut recording = r.borrow_mut();
        assert!(
            recording.as_ref().is_none_or(|r| r.stack.is_empty()),
            "start between requests only"
        );
        *recording = Some(Recording::new());
    });
}

/// Stops recording on the calling thread and hands over what it
/// recorded; `None` if it was not recording.
pub fn stop() -> Option<Recording> {
    RECORDING.with(|r| r.borrow_mut().take())
}

/// Whether the calling thread is recording.
pub fn recording() -> bool {
    RECORDING.with(|r| r.borrow().is_some())
}

/// Closes its span when dropped.
pub struct Open {
    recorded: bool,
}

/// Opens a span at `site` on the calling thread's recorder, if it has
/// one; the span closes when the guard drops.
pub fn span(site: Site) -> Open {
    let recorded = RECORDING.with(|r| match r.borrow_mut().as_mut() {
        Some(recording) => {
            recording.enter_at(site, now_ns());
            true
        }
        None => false,
    });
    Open { recorded }
}

impl Drop for Open {
    fn drop(&mut self) {
        if self.recorded {
            RECORDING.with(|r| {
                // Gone only if `stop` ran inside the span; then there is
                // nothing left to close it in.
                if let Some(recording) = r.borrow_mut().as_mut() {
                    recording.exit_at(now_ns());
                }
            });
        }
    }
}

/// Renders spans as Chrome / Perfetto `trace_event` JSON: one complete
/// (`"ph":"X"`) event per span, one `tid` per recorder.
pub fn trace_event_json(threads: &[(&str, &[Span])]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for (tid, (thread, spans)) in threads.iter().enumerate() {
        let tid = tid + 1;
        let _ = write!(
            out,
            "{}{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{thread}\"}}}}",
            if first { "" } else { "," }
        );
        first = false;
        for (index, span) in spans.iter().enumerate() {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{index},\"request\":{}",
                span.site.name(),
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.request,
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            out.push_str("}}");
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// request 0..100 ─┬─ emit 5..15
    ///                 └─ run 20..90 ─┬─ context 30..40
    ///                                └─ controller 50..80 ── device 60..70
    /// then a second, childless request 200..230.
    fn forest() -> Recording {
        let mut t = Recording::new();
        t.enter_at(Site::Request, 0);
        t.enter_at(Site::Emit, 5);
        t.exit_at(15);
        t.enter_at(Site::RunUntil, 20);
        t.enter_at(Site::Context, 30);
        t.exit_at(40);
        t.enter_at(Site::Controller, 50);
        t.enter_at(Site::Device, 60);
        t.exit_at(70);
        t.exit_at(80);
        t.exit_at(90);
        t.exit_at(100);
        t.enter_at(Site::Request, 200);
        t.exit_at(230);
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = forest();
        let of = |site| {
            let s = t.total(site);
            (s.count, s.total_ns, s.self_ns)
        };
        // 100 - (10 + 70) for the first request, 30 for the second.
        assert_eq!(of(Site::Request), (2, 130, 50));
        assert_eq!(of(Site::Emit), (1, 10, 10));
        // 70 - (10 + 30): the device is the controller's child, not run's.
        assert_eq!(of(Site::RunUntil), (1, 70, 30));
        assert_eq!(of(Site::Context), (1, 10, 10));
        assert_eq!(of(Site::Controller), (1, 30, 20));
        assert_eq!(of(Site::Device), (1, 10, 10));
        let selves: u64 = Site::ALL.iter().map(|s| t.total(*s).self_ns).sum();
        assert_eq!(selves, 130, "self times add up to the request time");
    }

    #[test]
    fn kept_spans_carry_parent_and_request() {
        let forest = forest();
        let kept = forest.kept();
        assert_eq!(kept.len(), 7);
        let device = kept[5];
        assert_eq!(
            (device.site, device.start_ns, device.end_ns),
            (Site::Device, 60, 70)
        );
        assert_eq!(device.parent, Some(4), "the controller span");
        assert_eq!(kept[4].parent, Some(2), "the run_until span");
        assert_eq!(kept[0].parent, None);
        assert_eq!((kept[5].request, kept[6].request), (1, 2));
    }

    #[test]
    fn trace_file_is_one_complete_event_per_span() {
        let json = trace_event_json(&[("coordinator", forest().kept())]);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents");
        assert_eq!(events.len(), 1 + 7, "thread name + spans");
        let device = &events[6];
        assert_eq!(
            device.get("name").and_then(|n| n.as_str()),
            Some("device.call")
        );
        assert_eq!(device.get("dur").and_then(|d| d.as_f64()), Some(0.01));
    }

    #[test]
    fn a_thread_records_only_between_start_and_stop() {
        drop(span(Site::Request));
        assert!(stop().is_none(), "nothing recorded before start");
        start();
        {
            let _request = span(Site::Request);
            let _run = span(Site::RunUntil);
        }
        start(); // the reset after warm-up
        drop(span(Site::Request));
        let recording = stop().expect("recording since start");
        assert_eq!(recording.total(Site::Request).count, 1);
        assert_eq!(recording.total(Site::RunUntil).count, 0);
        assert_eq!(recording.kept().len(), 1);
        assert!(!super::recording());
    }
}
