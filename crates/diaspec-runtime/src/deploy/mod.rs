//! Deployment units: running one design as several processes.
//!
//! The paper's large-scale orchestration spans a city, not a process.
//! This module is the runtime half of the deployment subsystem (the
//! compiler half — partitioning a design and emitting a node manifest —
//! lives in `diaspec-codegen`): it lets a *coordinator* node run the
//! orchestration engine unchanged while some of the design's devices
//! physically live on *edge* nodes, reached over a
//! [`Transport`] backend.
//!
//! The pieces:
//!
//! - [`Link`] — a shared, sequence-numbering handle on one transport
//!   link, cloned across every proxy that talks to the same peer;
//! - [`RemoteDeviceProxy`] — a [`DeviceInstance`] whose `query`/`invoke`
//!   cross the link as [`Envelope`]s, so the engine binds and polls a
//!   remote device exactly like a local one (and lease renewal,
//!   expiry, and standby promotion apply unchanged when the remote
//!   node stops answering); inside a registry poll sweep, the members
//!   on one link are read by one `QueryBatch` exchange (`sweep`);
//! - [`EdgeRuntime`] — the edge side: owns the node's device drivers
//!   and environment-stepping hooks and answers envelopes, either over
//!   a real socket ([`serve_edge`]) or as an in-process handler on the
//!   simulated backend (which is how deployment wiring is unit-tested
//!   without opening sockets);
//! - [`TickPump`] — a coordinator-side [`Process`] that forwards sim
//!   time to edge environments at a fixed cadence, keeping the whole
//!   distributed run a single discrete-event simulation driven by the
//!   coordinator's clock (stoppable via [`TickPump::stop_handle`] when
//!   the deployment shuts down);
//! - [`session`] — the at-least-once session layer a link can opt into
//!   ([`Link::with_session`]): cumulative acks, inline resends, a
//!   bounded replay queue for effects parked across partitions, and a
//!   per-link circuit breaker. The receiver side lives here in
//!   [`EdgeRuntime`]: an ack-pruned idempotency cache that answers
//!   duplicate `Invoke`/`Tick` envelopes from cached replies, turning
//!   at-least-once delivery into exactly-once effects;
//! - [`supervisor`] — the edge-side [`Supervisor`] that replaces
//!   fire-and-forget [`serve_edge`]: it re-accepts after coordinator
//!   disconnects (session resumption) and rebuilds a crashed runtime
//!   under a bounded restart policy.

pub mod session;
pub mod supervisor;
mod sweep;

pub use session::{BreakerConfig, SessionConfig, SessionStats};
pub use supervisor::{RestartPolicy, Supervisor, SupervisorReport};

use crate::clock::SimTime;
use crate::engine::ProcessApi;
use crate::entity::{DeviceInstance, EntityId};
use crate::error::DeviceError;
use crate::process::Process;
use crate::transport::{
    decode_query_batch, Envelope, MessageKind, Transport, TransportError, TransportStats,
};
use crate::value::Value;
use session::SessionState;
use std::collections::{BTreeMap, HashMap};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

pub(crate) use sweep::Scope as SweepScope;

/// Remote device proxies alive in the process: a poll opens no sweep
/// scope while there are none.
static LIVE_PROXIES: AtomicUsize = AtomicUsize::new(0);

/// Most replies the edge-side idempotency cache retains when the
/// sender never acks (best-effort links); ack-pruning keeps sessioned
/// links far below this.
const DEDUP_CAP: usize = 1024;

/// A shared handle on one transport link.
///
/// Every proxy bound to devices on the same peer clones one `Arc<Link>`;
/// the link serializes exchanges (one request/reply in flight per peer)
/// and assigns monotonically increasing sequence numbers.
pub struct Link {
    transport: Mutex<Box<dyn Transport>>,
    seq: AtomicU64,
    session: Option<Mutex<SessionState>>,
    /// The device names of the live proxies built on this link: the
    /// members a sweep batches here.
    devices: Mutex<DeviceNames>,
}

/// The device names of a link's live proxies (shared with them), with
/// how many proxies carry each. A new proxy's name waits in `pending`
/// and is counted in at the next sweep or drop, so building a
/// deployment's proxies costs a push each, not a hash-map insert.
#[derive(Default)]
struct DeviceNames {
    counts: HashMap<Arc<str>, usize>,
    pending: Vec<Arc<str>>,
}

impl DeviceNames {
    fn settled(&mut self) -> &mut HashMap<Arc<str>, usize> {
        for name in self.pending.drain(..) {
            *self.counts.entry(name).or_default() += 1;
        }
        &mut self.counts
    }
}

impl Link {
    /// Wraps a transport backend in a best-effort link: no resends, no
    /// replay queue, failures surface directly to the caller.
    #[must_use]
    pub fn new(transport: impl Transport + 'static) -> Arc<Link> {
        Arc::new(Link {
            transport: Mutex::new(Box::new(transport)),
            seq: AtomicU64::new(0),
            session: None,
            devices: Mutex::default(),
        })
    }

    /// Wraps a transport backend in an at-least-once session link:
    /// requests carry cumulative acks, failures are resent inline per
    /// `config.retry`, exhausted effects are parked for in-order replay
    /// once the link heals, and a circuit breaker fails fast on a dead
    /// peer (see [`session`]).
    ///
    /// # Panics
    ///
    /// If `config` fails [`SessionConfig::validate`]; validate a
    /// configuration read from a manifest first.
    #[must_use]
    pub fn with_session(transport: impl Transport + 'static, config: SessionConfig) -> Arc<Link> {
        Arc::new(Link {
            transport: Mutex::new(Box::new(transport)),
            seq: AtomicU64::new(0),
            session: Some(Mutex::new(SessionState::new(config))),
            devices: Mutex::default(),
        })
    }

    /// The session-layer counters, or `None` on a best-effort link.
    #[must_use]
    pub fn session_stats(&self) -> Option<SessionStats> {
        self.session
            .as_ref()
            .map(|s| s.lock().expect("session lock poisoned").stats())
    }

    /// The next sequence number for a request on this link.
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Sends one request envelope (built by `make` from the assigned
    /// sequence number) and returns the reply.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`TransportError`].
    pub fn request(&self, make: impl FnOnce(u64) -> Envelope) -> Result<Envelope, TransportError> {
        let envelope = make(self.next_seq());
        let mut transport = self.transport.lock().expect("transport lock poisoned");
        match &self.session {
            Some(session) => session
                .lock()
                .expect("session lock poisoned")
                .request(transport.as_mut(), envelope),
            None => transport.exchange(&envelope),
        }
    }

    /// The index of every sweep member a proxy on this link is named
    /// after (and whose name fits a batch entry), in order.
    fn covered(&self, members: &[EntityId]) -> Vec<usize> {
        let mut names = self.devices.lock().expect("device names lock poisoned");
        let devices = names.settled();
        members
            .iter()
            .enumerate()
            .filter(|(_, id)| id.as_str().len() <= usize::from(u16::MAX))
            .filter(|(_, id)| devices.contains_key(id.as_str()))
            .map(|(at, _)| at)
            .collect()
    }

    /// The backend's byte/frame/reconnect counters.
    #[must_use]
    pub fn stats(&self) -> TransportStats {
        self.transport
            .lock()
            .expect("transport lock poisoned")
            .stats()
    }

    /// The peer label of the underlying backend.
    #[must_use]
    pub fn peer(&self) -> String {
        self.transport
            .lock()
            .expect("transport lock poisoned")
            .peer()
            .to_string()
    }

    /// The backend name of the underlying backend (`"sim"`, `"tcp"`).
    #[must_use]
    pub fn backend(&self) -> &'static str {
        self.transport
            .lock()
            .expect("transport lock poisoned")
            .backend()
    }

    /// Sends an orderly `Bye`, ignoring failures (the peer may already
    /// be gone).
    pub fn close(&self) {
        let _ = self.request(|seq| {
            Envelope::new(
                MessageKind::Bye,
                crate::spans::SpanCtx::NONE,
                seq,
                "",
                "",
                Vec::new(),
            )
        });
    }
}

/// A device that lives on another node.
///
/// Registered with the engine like any local driver; each `query` and
/// `invoke` crosses the link as an envelope. Transport failures surface
/// as [`DeviceError`]s, so the engine's `@error` policies, lease
/// non-renewal, and standby promotion handle a dead edge node exactly
/// like a crashed local device.
///
/// Bind the proxy under its device name: inside a registry poll sweep,
/// the members named after a proxy on a link are read by one
/// `QueryBatch` exchange on that link, and each member's first query in
/// the sweep is answered from it.
pub struct RemoteDeviceProxy {
    device: Arc<str>,
    link: Arc<Link>,
}

impl RemoteDeviceProxy {
    /// A proxy for `device` reached over `link`.
    #[must_use]
    pub fn new(device: impl Into<String>, link: Arc<Link>) -> Self {
        let device: Arc<str> = device.into().into();
        link.devices
            .lock()
            .expect("device names lock poisoned")
            .pending
            .push(Arc::clone(&device));
        LIVE_PROXIES.fetch_add(1, Ordering::Relaxed);
        RemoteDeviceProxy { device, link }
    }
}

impl Drop for RemoteDeviceProxy {
    fn drop(&mut self) {
        LIVE_PROXIES.fetch_sub(1, Ordering::Relaxed);
        let mut names = self
            .link
            .devices
            .lock()
            .expect("device names lock poisoned");
        let devices = names.settled();
        if let Some(count) = devices.get_mut(&*self.device) {
            *count -= 1;
            if *count == 0 {
                devices.remove(&*self.device);
            }
        }
    }
}

impl DeviceInstance for RemoteDeviceProxy {
    fn query(&mut self, source: &str, now_ms: u64) -> Result<Value, DeviceError> {
        if let Some(reply) = sweep::take(&self.link, &self.device, source, now_ms) {
            return reply.map_err(|message| DeviceError::new(&*self.device, source, message));
        }
        let reply = self
            .link
            .request(|seq| {
                Envelope::query(
                    crate::spans::SpanCtx::NONE,
                    seq,
                    &self.device,
                    source,
                    now_ms,
                )
            })
            .map_err(|e| DeviceError::new(&*self.device, source, e.to_string()))?;
        match reply.kind {
            MessageKind::Value => reply
                .value()
                .map_err(|e| DeviceError::new(&*self.device, source, e.to_string())),
            other => Err(DeviceError::new(
                &*self.device,
                source,
                format!("unexpected reply kind {other:?}"),
            )),
        }
    }

    fn invoke(&mut self, action: &str, args: &[Value], now_ms: u64) -> Result<(), DeviceError> {
        let reply = self
            .link
            .request(|seq| {
                Envelope::invoke(
                    crate::spans::SpanCtx::NONE,
                    seq,
                    &self.device,
                    action,
                    args,
                    now_ms,
                )
            })
            .map_err(|e| DeviceError::new(&*self.device, action, e.to_string()))?;
        match reply.kind {
            MessageKind::Ok => Ok(()),
            other => Err(DeviceError::new(
                &*self.device,
                action,
                format!("unexpected reply kind {other:?}"),
            )),
        }
    }
}

/// An environment-stepping hook run when a `Tick` arrives.
pub type TickHook = Box<dyn FnMut(SimTime) + Send>;

/// The edge side of a deployment: the node's slice of the design.
///
/// Owns local device drivers and environment hooks, and answers the
/// coordinator's envelopes. The same runtime serves a real socket
/// ([`serve_edge`]) or acts as the in-process peer of a
/// [`SimTransport`](crate::transport::SimTransport) handler — the
/// deployment wiring is identical either way.
pub struct EdgeRuntime {
    node: String,
    devices: BTreeMap<String, Box<dyn DeviceInstance>>,
    ticks: Vec<TickHook>,
    /// Sim time at (or after) which this node plays dead: requests
    /// stamped `now >= die_at` get no reply and the connection drops,
    /// so the coordinator sees the node exactly as a crashed process.
    die_at: Option<SimTime>,
    dead: bool,
    requests: u64,
    duplicates: u64,
    /// Cached replies to effectful envelopes (`Invoke`/`Tick`), keyed
    /// by sequence number: a resend of an executed request replays the
    /// cached reply instead of re-running the effect.
    replies: BTreeMap<u64, Envelope>,
    /// The sender's cumulative-ack watermark: every effectful sequence
    /// number at or below it is settled, so its cache entry is pruned
    /// and any late duplicate is rejected without execution.
    acked: u64,
}

impl EdgeRuntime {
    /// An empty runtime for the node called `node`.
    #[must_use]
    pub fn new(node: impl Into<String>) -> Self {
        EdgeRuntime {
            node: node.into(),
            devices: BTreeMap::new(),
            ticks: Vec::new(),
            die_at: None,
            dead: false,
            requests: 0,
            duplicates: 0,
            replies: BTreeMap::new(),
            acked: 0,
        }
    }

    /// The node name this runtime serves.
    #[must_use]
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Adds a local device driver addressable as `name`.
    pub fn add_device(&mut self, name: impl Into<String>, device: Box<dyn DeviceInstance>) {
        self.devices.insert(name.into(), device);
    }

    /// Adds an environment hook run on every `Tick` with the
    /// coordinator's sim time.
    pub fn on_tick(&mut self, hook: impl FnMut(SimTime) + Send + 'static) {
        self.ticks.push(Box::new(hook));
    }

    /// Schedules simulated death: no request stamped at or after
    /// `die_at_ms` is answered.
    pub fn set_die_at(&mut self, die_at_ms: SimTime) {
        self.die_at = Some(die_at_ms);
    }

    /// Whether the death schedule has triggered.
    #[must_use]
    pub fn dead(&self) -> bool {
        self.dead
    }

    /// Fresh requests executed so far (duplicates excluded).
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Duplicate effectful envelopes answered from the idempotency
    /// cache (or rejected as already settled) without re-execution.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Answers one envelope, or `None` when the node is (now) dead.
    ///
    /// Effectful envelopes (`Invoke`/`Tick`) are deduplicated by
    /// sequence number: a resend of an already-executed request gets
    /// the cached reply, and a ghost duplicate at or below the sender's
    /// cumulative-ack watermark is rejected without execution — the
    /// receiver half of the session layer's exactly-once-effects
    /// contract. The cache is pruned by the ack carried on each
    /// request and bounded (at `DEDUP_CAP` entries) for best-effort
    /// senders that never ack.
    pub fn handle(&mut self, envelope: &Envelope) -> Option<Envelope> {
        if self.dead {
            return None;
        }
        if let Some(die_at) = self.die_at {
            if envelope.now >= die_at {
                self.dead = true;
                return None;
            }
        }
        let effectful = matches!(envelope.kind, MessageKind::Invoke | MessageKind::Tick);
        if effectful {
            if envelope.ack > self.acked {
                self.acked = envelope.ack;
                self.replies = self.replies.split_off(&(self.acked + 1));
            }
            if let Some(cached) = self.replies.get(&envelope.seq) {
                self.duplicates += 1;
                return Some(cached.clone());
            }
            if envelope.seq <= self.acked {
                // A duplicate of a request the sender already settled:
                // its effect must not run twice, and there is no cached
                // reply left to repeat.
                self.duplicates += 1;
                return Some(envelope.reply_error("duplicate of an acknowledged request"));
            }
        }
        self.requests += 1;
        let reply = self.answer(envelope);
        if effectful {
            if self.replies.len() >= DEDUP_CAP {
                self.replies.pop_first();
            }
            self.replies.insert(envelope.seq, reply.clone());
        }
        Some(reply)
    }

    /// Executes one fresh (non-duplicate) envelope.
    fn answer(&mut self, envelope: &Envelope) -> Envelope {
        match envelope.kind {
            MessageKind::Hello | MessageKind::Heartbeat => envelope.reply_ok(),
            MessageKind::Tick => {
                for hook in &mut self.ticks {
                    hook(envelope.now);
                }
                envelope.reply_ok()
            }
            MessageKind::Query => match self.devices.get_mut(&envelope.target) {
                Some(device) => match device.query(&envelope.member, envelope.now) {
                    Ok(value) => envelope.reply_value(&value),
                    Err(e) => envelope.reply_error(&e.to_string()),
                },
                None => envelope.reply_error(&no_device(&self.node, &envelope.target)),
            },
            MessageKind::QueryBatch => match decode_query_batch(&envelope.payload) {
                Ok(names) => {
                    let entries: Vec<Result<Value, String>> = names
                        .into_iter()
                        .map(|name| match self.devices.get_mut(name) {
                            Some(device) => device
                                .query(&envelope.member, envelope.now)
                                .map_err(|e| e.to_string()),
                            None => Err(no_device(&self.node, name)),
                        })
                        .collect();
                    envelope.reply_values(&entries)
                }
                Err(e) => envelope.reply_error(&format!(
                    "node {}: malformed QueryBatch of `{}`: {e}",
                    self.node, envelope.member
                )),
            },
            MessageKind::Invoke => match self.devices.get_mut(&envelope.target) {
                Some(device) => match serde_json::from_slice::<Vec<Value>>(&envelope.payload) {
                    Ok(args) => match device.invoke(&envelope.member, &args, envelope.now) {
                        Ok(()) => envelope.reply_ok(),
                        Err(e) => envelope.reply_error(&e.to_string()),
                    },
                    Err(_) => envelope.reply_error(&format!(
                        "node {}: malformed arguments for `{}` on `{}`",
                        self.node, envelope.member, envelope.target
                    )),
                },
                None => envelope.reply_error(&no_device(&self.node, &envelope.target)),
            },
            MessageKind::Bye
            | MessageKind::Ok
            | MessageKind::Value
            | MessageKind::Values
            | MessageKind::Error => {
                envelope.reply_error(&format!("unexpected request kind {:?}", envelope.kind))
            }
        }
    }
}

/// The error text for a request naming a device `node` does not host.
fn no_device(node: &str, device: &str) -> String {
    format!("node {node} hosts no device `{device}`")
}

/// Serves one coordinator connection on `listener` to completion:
/// accepts, answers envelopes through `runtime`, and returns when the
/// coordinator disconnects, says `Bye`, or the runtime's death schedule
/// triggers (the connection is dropped without a reply, like a killed
/// process).
///
/// # Errors
///
/// Returns [`TransportError::Io`] on accept/read/write failures and
/// [`TransportError::Frame`] on malformed frames.
pub fn serve_edge(
    listener: &TcpListener,
    runtime: &mut EdgeRuntime,
) -> Result<TransportStats, TransportError> {
    let (mut stream, _addr) = listener
        .accept()
        .map_err(|e| TransportError::Io(e.to_string()))?;
    crate::transport::serve_connection(&mut stream, |envelope| runtime.handle(envelope))
}

/// A coordinator-side [`Process`] that forwards sim time to edge
/// environments: every `period_ms` it sends one `Tick` envelope down
/// each link, so remote environment models step on the coordinator's
/// clock. Send failures are ignored — a dead edge is discovered (and
/// recovered from) through the device-polling path, not the pump.
pub struct TickPump {
    links: Vec<Arc<Link>>,
    period_ms: SimTime,
    stopped: Arc<AtomicBool>,
}

/// A handle that stops a [`TickPump`]: after [`TickPumpStop::stop`],
/// the pump's next wake sends nothing and unschedules itself. Used at
/// deployment shutdown so no tick races the links' orderly `Bye`.
#[derive(Clone)]
pub struct TickPumpStop(Arc<AtomicBool>);

impl TickPumpStop {
    /// Stops the pump at its next wake.
    pub fn stop(&self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

impl TickPump {
    /// A pump ticking `links` every `period_ms` of sim time.
    #[must_use]
    pub fn new(links: Vec<Arc<Link>>, period_ms: SimTime) -> Self {
        assert!(period_ms > 0, "tick period must be positive");
        TickPump {
            links,
            period_ms,
            stopped: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A handle that stops this pump (usable after the pump is handed
    /// to the engine).
    #[must_use]
    pub fn stop_handle(&self) -> TickPumpStop {
        TickPumpStop(Arc::clone(&self.stopped))
    }
}

impl Process for TickPump {
    fn wake(&mut self, api: &mut ProcessApi<'_>) -> Option<SimTime> {
        if self.stopped.load(Ordering::Relaxed) {
            return None;
        }
        let now = api.now();
        for link in &self.links {
            let _ = link.request(|seq| Envelope::tick(seq, now));
        }
        Some(now + self.period_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{SimTransport, TransportConfig};

    struct FixedDevice {
        reading: i64,
        invoked: Vec<(String, usize)>,
    }

    impl DeviceInstance for FixedDevice {
        fn query(&mut self, source: &str, _now_ms: u64) -> Result<Value, DeviceError> {
            if source == "broken" {
                return Err(DeviceError::new("fixed", source, "sensor fault"));
            }
            Ok(Value::Int(self.reading))
        }

        fn invoke(
            &mut self,
            action: &str,
            args: &[Value],
            _now_ms: u64,
        ) -> Result<(), DeviceError> {
            self.invoked.push((action.to_string(), args.len()));
            Ok(())
        }
    }

    fn looped_edge(runtime: EdgeRuntime) -> Arc<Link> {
        let mut sim = SimTransport::new(TransportConfig::default());
        let shared = Arc::new(Mutex::new(runtime));
        let peer = Arc::clone(&shared);
        sim.connect_handler(Box::new(move |env| {
            peer.lock().expect("edge lock").handle(env)
        }));
        Link::new(sim)
    }

    #[test]
    fn remote_proxy_queries_and_invokes_through_the_link() {
        let mut edge = EdgeRuntime::new("edge0");
        edge.add_device(
            "presence-A22-0",
            Box::new(FixedDevice {
                reading: 7,
                invoked: Vec::new(),
            }),
        );
        let link = looped_edge(edge);
        let mut proxy = RemoteDeviceProxy::new("presence-A22-0", Arc::clone(&link));
        assert_eq!(proxy.query("presence", 600_000).unwrap(), Value::Int(7));
        proxy
            .invoke("display", &[Value::Str("12 free".into())], 600_000)
            .unwrap();
        let err = proxy.query("broken", 600_000).expect_err("driver error");
        assert!(err.message.contains("sensor fault"), "{}", err.message);
        let stats = link.stats();
        assert_eq!(stats.frames_sent, 3);
        assert_eq!(stats.frames_received, 3);
        assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
    }

    /// An edge hosting one device, `gate-0`, whose driver calls are
    /// counted in the returned handle.
    fn counted_edge() -> (EdgeRuntime, Arc<Mutex<u32>>) {
        struct Counted(Arc<Mutex<u32>>);
        impl DeviceInstance for Counted {
            fn query(&mut self, _: &str, _: u64) -> Result<Value, DeviceError> {
                *self.0.lock().expect("calls lock") += 1;
                Ok(Value::Int(1))
            }
            fn invoke(&mut self, _: &str, _: &[Value], _: u64) -> Result<(), DeviceError> {
                *self.0.lock().expect("calls lock") += 1;
                Ok(())
            }
        }
        let calls = Arc::new(Mutex::new(0));
        let mut edge = EdgeRuntime::new("edge0");
        edge.add_device("gate-0", Box::new(Counted(Arc::clone(&calls))));
        (edge, calls)
    }

    #[test]
    fn a_garbage_invoke_payload_is_an_error_and_calls_no_driver() {
        let (mut edge, calls) = counted_edge();
        let garbage = Envelope::new(
            MessageKind::Invoke,
            crate::spans::SpanCtx::NONE,
            1,
            "gate-0",
            "open",
            b"{not json".to_vec(),
        );
        let reply = edge.handle(&garbage).expect("answered");
        assert_eq!(reply.kind, MessageKind::Error);
        let message = String::from_utf8_lossy(&reply.payload);
        for named in ["edge0", "gate-0", "open"] {
            assert!(message.contains(named), "{message} names {named}");
        }
        assert_eq!(*calls.lock().expect("calls lock"), 0, "no driver call");
        let args = Envelope::invoke(crate::spans::SpanCtx::NONE, 2, "gate-0", "open", &[], 0);
        assert_eq!(edge.handle(&args).expect("answered").kind, MessageKind::Ok);
        assert_eq!(
            *calls.lock().expect("calls lock"),
            1,
            "a well-formed one runs"
        );
    }

    #[test]
    fn a_malformed_query_batch_is_an_error_and_calls_no_driver() {
        let (mut edge, calls) = counted_edge();
        let mut payload = crate::transport::encode_query_batch(["gate-0", "gate-0"]).unwrap();
        payload.truncate(payload.len() - 1);
        let batch = |seq, payload| {
            Envelope::new(
                MessageKind::QueryBatch,
                crate::spans::SpanCtx::NONE,
                seq,
                "",
                "presence",
                payload,
            )
        };
        let reply = edge.handle(&batch(1, payload)).expect("answered");
        assert_eq!(reply.kind, MessageKind::Error);
        assert!(String::from_utf8_lossy(&reply.payload).contains("edge0"));
        assert_eq!(*calls.lock().expect("calls lock"), 0, "no driver call");
        // A well-formed batch answers each name in order; an unknown one
        // gets the text a single `Query` of it would get.
        let payload = crate::transport::encode_query_batch(["gate-0", "ghost"]).unwrap();
        let reply = edge.handle(&batch(2, payload)).expect("answered");
        assert_eq!(reply.kind, MessageKind::Values);
        let single = Envelope::query(crate::spans::SpanCtx::NONE, 3, "ghost", "presence", 0);
        let single = edge.handle(&single).expect("answered");
        assert_eq!(
            crate::transport::decode_values(&reply.payload).unwrap(),
            vec![
                Ok(Value::Int(1)),
                Err(String::from_utf8_lossy(&single.payload).into_owned())
            ]
        );
        assert_eq!(*calls.lock().expect("calls lock"), 1);
    }

    #[test]
    fn unknown_device_is_a_device_error_not_a_panic() {
        let link = looped_edge(EdgeRuntime::new("edge0"));
        let mut proxy = RemoteDeviceProxy::new("missing", link);
        let err = proxy.query("presence", 0).expect_err("unknown device");
        assert!(err.message.contains("hosts no device"), "{}", err.message);
    }

    #[test]
    fn death_schedule_stops_replies_at_the_given_sim_time() {
        let mut edge = EdgeRuntime::new("edge1");
        edge.add_device(
            "presence-F9-0",
            Box::new(FixedDevice {
                reading: 1,
                invoked: Vec::new(),
            }),
        );
        edge.set_die_at(1_200_000);
        let link = looped_edge(edge);
        let mut proxy = RemoteDeviceProxy::new("presence-F9-0", link);
        assert!(proxy.query("presence", 600_000).is_ok(), "alive before");
        let err = proxy.query("presence", 1_200_000).expect_err("dead at");
        assert!(err.message.contains("closed"), "{}", err.message);
        // Dead stays dead, even for earlier-stamped requests.
        assert!(proxy.query("presence", 0).is_err());
    }

    /// Executes the edge runtime but loses every first reply per
    /// sequence number: the effect runs, the sender never hears it.
    struct ReplyLossy {
        edge: Arc<Mutex<EdgeRuntime>>,
        delivered: std::collections::BTreeSet<u64>,
    }

    impl Transport for ReplyLossy {
        fn backend(&self) -> &'static str {
            "reply-lossy"
        }
        fn peer(&self) -> &str {
            "edge0"
        }
        fn exchange(&mut self, envelope: &Envelope) -> Result<Envelope, TransportError> {
            let reply = self
                .edge
                .lock()
                .expect("edge lock")
                .handle(envelope)
                .ok_or(TransportError::Closed)?;
            if self.delivered.insert(envelope.seq) {
                return Err(TransportError::Dropped);
            }
            if reply.kind == MessageKind::Error {
                return Err(TransportError::Remote(
                    String::from_utf8_lossy(&reply.payload).into_owned(),
                ));
            }
            Ok(reply)
        }
        fn stats(&self) -> TransportStats {
            TransportStats::default()
        }
    }

    #[test]
    fn lost_reply_resend_does_not_double_invoke() {
        let mut edge = EdgeRuntime::new("edge0");
        edge.add_device(
            "gate-0",
            Box::new(FixedDevice {
                reading: 0,
                invoked: Vec::new(),
            }),
        );
        let shared = Arc::new(Mutex::new(edge));
        let link = Link::with_session(
            ReplyLossy {
                edge: Arc::clone(&shared),
                delivered: std::collections::BTreeSet::new(),
            },
            SessionConfig {
                retry: crate::fault::RetryConfig {
                    max_attempts: 2,
                    base_backoff_ms: 0,
                    timeout_ms: 0,
                },
                ..SessionConfig::default()
            },
        );
        let mut proxy = RemoteDeviceProxy::new("gate-0", link);
        proxy
            .invoke("open", &[], 600_000)
            .expect("resend replays the cached reply");
        let edge = shared.lock().expect("edge lock");
        assert_eq!(edge.requests(), 1, "the invoke executed exactly once");
        assert_eq!(edge.duplicates(), 1, "the resend hit the dedup cache");
    }

    #[test]
    fn duplicate_ticks_do_not_restep_the_environment() {
        let steps = Arc::new(Mutex::new(0u32));
        let mut edge = EdgeRuntime::new("edge0");
        let sink = Arc::clone(&steps);
        edge.on_tick(move |_| *sink.lock().expect("steps lock") += 1);
        let tick = Envelope::tick(1, 61_000);
        assert_eq!(edge.handle(&tick).unwrap().kind, MessageKind::Ok);
        assert_eq!(
            edge.handle(&tick).unwrap().kind,
            MessageKind::Ok,
            "the duplicate replays the cached Ok"
        );
        assert_eq!(*steps.lock().expect("steps lock"), 1, "stepped once");
        assert_eq!((edge.requests(), edge.duplicates()), (1, 1));
        // An ack past seq 1 prunes the cache; a ghost duplicate of the
        // settled tick is rejected without stepping.
        edge.handle(&Envelope::tick(2, 121_000).with_ack(1));
        let ghost = edge.handle(&tick).expect("answered");
        assert_eq!(ghost.kind, MessageKind::Error);
        assert_eq!(*steps.lock().expect("steps lock"), 2, "no third step");
    }

    #[test]
    fn tick_pump_stops_on_its_handle() {
        let spec =
            Arc::new(diaspec_core::compile_str("device D { source s as Integer; }").unwrap());
        let mut orch = crate::engine::Orchestrator::new(spec);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut edge = EdgeRuntime::new("edge0");
        let sink = Arc::clone(&seen);
        edge.on_tick(move |now| sink.lock().expect("seen lock").push(now));
        let pump = TickPump::new(vec![looped_edge(edge)], 60_000);
        let stop = pump.stop_handle();
        orch.spawn_process_at("pump", pump, 60_000);
        orch.launch().expect("launch");
        orch.run_until(180_000);
        assert_eq!(
            *seen.lock().expect("seen lock"),
            vec![60_000, 120_000, 180_000]
        );
        stop.stop();
        orch.run_until(600_000);
        assert_eq!(
            seen.lock().expect("seen lock").len(),
            3,
            "no ticks after stop"
        );
    }

    #[test]
    fn ticks_step_environment_hooks_with_coordinator_time() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut edge = EdgeRuntime::new("edge0");
        let sink = Arc::clone(&seen);
        edge.on_tick(move |now| sink.lock().expect("seen lock").push(now));
        let link = looped_edge(edge);
        for now in [61_000, 121_000, 181_000] {
            link.request(|seq| Envelope::tick(seq, now)).expect("tick");
        }
        assert_eq!(
            *seen.lock().expect("seen lock"),
            vec![61_000, 121_000, 181_000]
        );
    }
}
