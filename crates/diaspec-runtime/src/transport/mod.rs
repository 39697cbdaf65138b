//! Message transport between components and deployment nodes.
//!
//! The paper's infrastructures range from a home LAN to city-wide
//! low-power WANs (Sigfox, LoRa). This module abstracts how messages
//! move across component boundaries behind the [`Transport`] trait, with
//! two backends:
//!
//! - [`SimTransport`] — the in-process simulated backend (the default):
//!   per-message latency samples plus an independent loss probability,
//!   seeded and deterministic. This is *one backend*, not "the"
//!   transport: the engine drives it directly for every in-process
//!   delivery, so all existing goldens and determinism guarantees are
//!   unchanged.
//! - [`TcpTransport`] — a real socket backend: envelopes framed by the
//!   [`wire`] format (length-prefixed, carrying the [`crate::spans::SpanCtx`]
//!   trace context) over TCP, with connect/retry/backoff driven by
//!   [`crate::fault::RetryConfig`].
//!
//! A third implementation, [`ChaosTransport`], is middleware rather
//! than a backend: it wraps either of the above and injects
//! deterministic envelope-level faults (drops, delays, duplicates,
//! reorders, corrupt frames, partition windows) whose fate is a pure
//! hash of seed·peer·seq·attempt — the wire-path half of the fault
//! story, complementing the engine-side
//! [`FaultInjector`](crate::fault::FaultInjector).
//!
//! The [`wire`] submodule defines the [`Envelope`] both backends carry;
//! the deployment layer ([`crate::deploy`]) builds remote device proxies
//! and edge-node serving loops on top of whichever backend a node
//! manifest selects.

pub mod chaos;
pub mod sim;
pub mod socket;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosStats, ChaosStatsHandle, ChaosTransport, Direction};
pub use sim::{LatencyModel, SendOutcome, SimTransport, TransportConfig};
pub use socket::{serve_connection, TcpTransport};
pub use wire::{
    decode_query_batch, decode_values, encode_query_batch, encode_values, Envelope, FrameError,
    MessageKind, TransportError, MAX_FRAME,
};

/// Byte and frame counters for one transport link.
///
/// Rendered by the Prometheus exposition as
/// `diaspec_transport_bytes_{sent,received}_total` and
/// `diaspec_transport_reconnects_total`, labelled by peer and backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
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

/// Moves [`Envelope`]s between deployment nodes.
///
/// A transport is a request/response link to one peer: [`Transport::exchange`]
/// delivers an envelope and returns the peer's reply. Backends differ in
/// what "delivering" means — the simulated backend samples a fate and
/// hands the envelope to an in-process handler, the socket backend
/// writes a frame to a TCP stream — but callers (remote device proxies,
/// tick pumps, heartbeats) are backend-agnostic.
pub trait Transport: Send {
    /// Short backend name for observability labels (`"sim"`, `"tcp"`).
    fn backend(&self) -> &'static str;

    /// The peer this link talks to, for observability labels.
    fn peer(&self) -> &str;

    /// Delivers `envelope` to the peer and returns its reply.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] when the message is lost
    /// ([`TransportError::Dropped`]), the link fails after retries
    /// ([`TransportError::Io`]), the peer reports a failure
    /// ([`TransportError::Remote`]), or the peer closed the connection
    /// ([`TransportError::Closed`]).
    fn exchange(&mut self, envelope: &Envelope) -> Result<Envelope, TransportError>;

    /// Byte/frame/reconnect counters for this link.
    fn stats(&self) -> TransportStats;
}
