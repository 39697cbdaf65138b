//! The TCP socket backend.
//!
//! Moves [`Envelope`]s between processes as length-prefixed frames (see
//! [`super::wire`]) over a TCP connection. [`TcpTransport`] is the
//! client side of one link: it connects lazily, retries failed connects
//! with the exponential backoff declared by a
//! [`RetryConfig`] (the same policy object
//! the delivery retry machinery uses, here over wall-clock
//! milliseconds), and counts bytes, frames, and reconnects for the
//! Prometheus exposition. [`serve_connection`] is the server side: a
//! frame-at-a-time request/reply loop an edge node runs over an
//! accepted connection.

use super::wire::{Envelope, MessageKind, TransportError};
use super::TransportStats;
use crate::fault::RetryConfig;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The client side of one TCP link to a peer node.
///
/// Implements [`Transport`](super::Transport) by writing each envelope
/// as a frame and blocking on the peer's reply frame. The connection is
/// established on first use and re-established (counted in
/// [`TransportStats::reconnects`]) when an exchange hits an I/O error,
/// with backoff between attempts per the configured retry policy.
#[derive(Debug)]
pub struct TcpTransport {
    peer: String,
    addr: String,
    retry: RetryConfig,
    stream: Option<TcpStream>,
    connected_before: bool,
    stats: TransportStats,
}

impl TcpTransport {
    /// Creates a link to `addr` labelled `peer`. No connection is made
    /// until the first exchange.
    #[must_use]
    pub fn new(peer: impl Into<String>, addr: impl Into<String>, retry: RetryConfig) -> Self {
        TcpTransport {
            peer: peer.into(),
            addr: addr.into(),
            retry,
            stream: None,
            connected_before: false,
            stats: TransportStats::default(),
        }
    }

    /// The address this link connects to.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Connects (or reconnects), retrying with exponential backoff per
    /// the configured [`RetryConfig`]: `max_attempts` tries after the
    /// first, sleeping `backoff_ms(attempt)` wall milliseconds between
    /// them.
    fn ensure_connected(&mut self) -> Result<&mut TcpStream, TransportError> {
        if self.stream.is_none() {
            let mut last_error = String::new();
            let mut connected = None;
            for attempt in 0..=self.retry.max_attempts {
                if attempt > 0 {
                    std::thread::sleep(Duration::from_millis(self.retry.backoff_ms(attempt)));
                }
                match connect_once(&self.addr) {
                    Ok(stream) => {
                        connected = Some(stream);
                        break;
                    }
                    Err(e) => last_error = e,
                }
            }
            match connected {
                Some(stream) => {
                    // Request deadline: a peer that dies between connect
                    // and reply must not block the caller forever.
                    if self.retry.timeout_ms > 0 {
                        let deadline = Duration::from_millis(self.retry.timeout_ms);
                        stream
                            .set_read_timeout(Some(deadline))
                            .map_err(|e| TransportError::Io(e.to_string()))?;
                        stream
                            .set_write_timeout(Some(deadline))
                            .map_err(|e| TransportError::Io(e.to_string()))?;
                    }
                    if self.connected_before {
                        self.stats.reconnects += 1;
                    }
                    self.connected_before = true;
                    self.stream = Some(stream);
                }
                None => {
                    return Err(TransportError::Io(format!(
                        "connect to {} failed after {} attempts: {last_error}",
                        self.addr,
                        self.retry.max_attempts + 1,
                    )))
                }
            }
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// One write-frame/read-reply round trip over the current
    /// connection.
    fn try_exchange(&mut self, envelope: &Envelope) -> Result<Envelope, TransportError> {
        let stream = self.ensure_connected()?;
        let sent = envelope.write_to(stream)?;
        let (reply, received) = Envelope::read_from(stream)?.ok_or(TransportError::Closed)?;
        self.stats.bytes_sent += sent as u64;
        self.stats.frames_sent += 1;
        self.stats.bytes_received += received as u64;
        self.stats.frames_received += 1;
        Ok(reply)
    }
}

fn connect_once(addr: &str) -> Result<TcpStream, String> {
    let resolved = addr
        .to_socket_addrs()
        .map_err(|e| e.to_string())?
        .next()
        .ok_or_else(|| format!("{addr} resolves to no address"))?;
    let stream = TcpStream::connect(resolved).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(stream)
}

impl super::Transport for TcpTransport {
    fn backend(&self) -> &'static str {
        "tcp"
    }

    fn peer(&self) -> &str {
        &self.peer
    }

    /// Writes `envelope` as one frame and blocks on the reply frame,
    /// bounded by the retry policy's `timeout_ms` (a stalled peer
    /// surfaces as [`TransportError::Timeout`], never an infinite
    /// block). An I/O failure drops the connection and retries the
    /// whole exchange once over a fresh one (the peer may simply have
    /// restarted); a second failure — and any timeout — is returned to
    /// the caller, who owns request-level retry policy.
    fn exchange(&mut self, envelope: &Envelope) -> Result<Envelope, TransportError> {
        let reply = match self.try_exchange(envelope) {
            Ok(reply) => reply,
            Err(TransportError::Timeout) => {
                // The stream may be stalled mid-frame: drop it so the
                // next exchange starts clean, but do not re-send — the
                // request may still be executing on the peer.
                self.stream = None;
                return Err(TransportError::Timeout);
            }
            Err(TransportError::Io(_) | TransportError::Closed) => {
                self.stream = None;
                match self.try_exchange(envelope) {
                    Ok(reply) => reply,
                    Err(e) => {
                        self.stream = None;
                        return Err(e);
                    }
                }
            }
            Err(e) => return Err(e),
        };
        if reply.kind == MessageKind::Error {
            return Err(TransportError::Remote(
                String::from_utf8_lossy(&reply.payload).into_owned(),
            ));
        }
        Ok(reply)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

/// Serves one accepted connection: reads a frame, hands it to
/// `handler`, writes the reply; repeats until the peer disconnects,
/// sends [`MessageKind::Bye`] (acknowledged before returning), or the
/// handler returns `None` (the simulated-death hook: the connection is
/// dropped without a reply).
///
/// Returns the accumulated byte/frame counters for the connection.
///
/// # Errors
///
/// Returns [`TransportError::Io`] on a read/write failure and
/// [`TransportError::Frame`] on a malformed frame.
pub fn serve_connection(
    stream: &mut TcpStream,
    handler: impl FnMut(&Envelope) -> Option<Envelope>,
) -> Result<TransportStats, TransportError> {
    let mut stats = TransportStats::default();
    serve_frames(stream, &mut stats, handler)?;
    Ok(stats)
}

/// Why a served connection ended.
pub(crate) enum ConnectionEnd {
    /// The peer said [`MessageKind::Bye`] (acknowledged).
    Bye,
    /// The peer closed the connection without a `Bye`.
    Disconnected,
    /// The handler returned `None`: the connection was dropped without a
    /// reply.
    Dropped,
}

/// The frame loop under [`serve_connection`] and the edge
/// [`Supervisor`](crate::deploy::supervisor::Supervisor): reads a frame,
/// hands it to `handler`, writes the reply, and says why it stopped.
/// Counters accumulate into `stats` as frames move, so what was served
/// before a failure stays counted.
pub(crate) fn serve_frames(
    stream: &mut TcpStream,
    stats: &mut TransportStats,
    mut handler: impl FnMut(&Envelope) -> Option<Envelope>,
) -> Result<ConnectionEnd, TransportError> {
    loop {
        let Some((envelope, received)) = Envelope::read_from(stream)? else {
            return Ok(ConnectionEnd::Disconnected);
        };
        stats.bytes_received += received as u64;
        stats.frames_received += 1;
        let (reply, end) = if envelope.kind == MessageKind::Bye {
            (envelope.reply_ok(), Some(ConnectionEnd::Bye))
        } else {
            match handler(&envelope) {
                Some(reply) => (reply, None),
                None => return Ok(ConnectionEnd::Dropped),
            }
        };
        let sent = reply.write_to(stream)?;
        stats.bytes_sent += sent as u64;
        stats.frames_sent += 1;
        if let Some(end) = end {
            return Ok(end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::Transport;
    use super::*;
    use crate::spans::SpanCtx;
    use crate::value::Value;
    use std::net::TcpListener;

    fn echo_server() -> (String, std::thread::JoinHandle<TransportStats>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            serve_connection(&mut stream, |env| {
                Some(env.reply_value(&Value::Str(env.member.clone())))
            })
            .expect("serve")
        });
        (addr, handle)
    }

    #[test]
    fn exchange_round_trips_over_a_real_socket() {
        let (addr, server) = echo_server();
        let mut link = TcpTransport::new("edge0", addr, RetryConfig::default());
        let span = SpanCtx {
            trace_id: 9,
            parent: 3,
        };
        let reply = link
            .exchange(&Envelope::query(
                span,
                1,
                "presence-A22-0",
                "presence",
                600_000,
            ))
            .expect("exchange");
        assert_eq!(reply.kind, MessageKind::Value);
        assert_eq!(reply.span, span, "SpanCtx survives the wire");
        assert_eq!(reply.seq, 1);
        assert_eq!(reply.value().unwrap(), Value::Str("presence".into()));
        let bye = link
            .exchange(&Envelope::new(
                MessageKind::Bye,
                SpanCtx::NONE,
                2,
                "",
                "",
                Vec::new(),
            ))
            .expect("bye");
        assert_eq!(bye.kind, MessageKind::Ok);
        let server_stats = server.join().expect("server thread");
        let client_stats = link.stats();
        assert_eq!(client_stats.frames_sent, 2);
        assert_eq!(client_stats.frames_received, 2);
        assert_eq!(client_stats.bytes_sent, server_stats.bytes_received);
        assert_eq!(client_stats.bytes_received, server_stats.bytes_sent);
        assert_eq!(client_stats.reconnects, 0);
    }

    #[test]
    fn remote_error_reply_surfaces_as_remote() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            serve_connection(&mut stream, |env| Some(env.reply_error("sensor offline")))
                .expect("serve")
        });
        let mut link = TcpTransport::new("edge0", addr, RetryConfig::default());
        let err = link
            .exchange(&Envelope::query(SpanCtx::NONE, 1, "d", "s", 0))
            .expect_err("error reply");
        assert_eq!(err, TransportError::Remote("sensor offline".into()));
        drop(link);
        server.join().expect("server thread");
    }

    #[test]
    fn connect_failure_exhausts_retries() {
        // A port nothing listens on: bind, learn the address, drop.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let retry = RetryConfig {
            max_attempts: 2,
            base_backoff_ms: 1,
            timeout_ms: 1_000,
        };
        let mut link = TcpTransport::new("gone", addr, retry);
        let err = link
            .exchange(&Envelope::query(SpanCtx::NONE, 1, "d", "s", 0))
            .expect_err("no listener");
        match err {
            TransportError::Io(msg) => assert!(msg.contains("after 3 attempts"), "{msg}"),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn stalled_peer_surfaces_as_timeout_not_a_hang() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            // Read the request, then stall: never write a reply. The
            // connection stays open until the client has timed out.
            let _ = Envelope::read_from(&mut stream);
            let _ = done_rx.recv();
        });
        let retry = RetryConfig {
            max_attempts: 0,
            base_backoff_ms: 1,
            timeout_ms: 100,
        };
        let mut link = TcpTransport::new("stalled", addr, retry);
        let start = std::time::Instant::now();
        let err = link
            .exchange(&Envelope::query(SpanCtx::NONE, 1, "d", "s", 0))
            .expect_err("stalled peer");
        assert_eq!(err, TransportError::Timeout);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline bounded the wait: {:?}",
            start.elapsed()
        );
        done_tx.send(()).ok();
        server.join().expect("server thread");
    }

    #[test]
    fn reconnect_after_peer_restart_is_counted() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        // First connection serves exactly one exchange, then closes;
        // second connection keeps serving.
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept 1");
            let mut answered = false;
            let _ = serve_connection(&mut stream, |env| {
                if answered {
                    None
                } else {
                    answered = true;
                    Some(env.reply_ok())
                }
            });
            drop(stream);
            let (mut stream, _) = listener.accept().expect("accept 2");
            serve_connection(&mut stream, |env| Some(env.reply_ok())).expect("serve 2");
        });
        let retry = RetryConfig {
            max_attempts: 5,
            base_backoff_ms: 1,
            timeout_ms: 1_000,
        };
        let mut link = TcpTransport::new("edge0", addr, retry);
        link.exchange(&Envelope::query(SpanCtx::NONE, 1, "d", "s", 0))
            .expect("first exchange");
        // The server dropped the connection after the first reply; the
        // next exchange reconnects transparently.
        link.exchange(&Envelope::query(SpanCtx::NONE, 2, "d", "s", 0))
            .expect("second exchange after restart");
        assert_eq!(link.stats().reconnects, 1);
        let bye = Envelope::new(MessageKind::Bye, SpanCtx::NONE, 3, "", "", Vec::new());
        link.exchange(&bye).expect("bye");
        server.join().expect("server thread");
    }
}
