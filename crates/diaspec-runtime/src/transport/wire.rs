//! Wire format for envelopes crossing a deployment cut.
//!
//! Every message between deployment nodes travels as a length-prefixed
//! frame: a 4-byte big-endian body length followed by the body. The body
//! carries the message kind, the [`SpanCtx`] trace context (so causal
//! traces survive process boundaries), a sender-assigned sequence number,
//! a cumulative acknowledgement (the session layer's "everything up to
//! here answered" watermark; `0` on best-effort links), the target
//! entity, the member (source or action) addressed on it, and an opaque
//! payload (values are JSON-encoded [`crate::value::Value`]s).
//!
//! A periodic poll of many remote devices crosses as one
//! [`MessageKind::QueryBatch`] / [`MessageKind::Values`] pair whose
//! payloads [`encode_query_batch`] / [`decode_query_batch`] and
//! [`encode_values`] / [`decode_values`] read and write: a 4-byte count,
//! then per device a 2-byte-length name, or per reply entry a tag byte
//! (`0` value, `1` error) and a 4-byte-length JSON value or UTF-8
//! message, in request order.
//!
//! The format is deliberately simple — fixed-width integers big-endian,
//! strings UTF-8 with a 2-byte length, payload with a 4-byte length — so
//! that both ends can be implemented without a serialization framework
//! and malformed input is rejected with a precise [`FrameError`].
//!
//! Frames larger than [`MAX_FRAME`] are rejected on both encode and
//! decode: a corrupt length prefix must not make a reader allocate
//! gigabytes.

use crate::spans::SpanCtx;
use crate::value::Value;
use std::fmt;
use std::io::{Read, Write};

/// Upper bound on a frame body, in bytes (16 MiB). Guards readers
/// against corrupt or hostile length prefixes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// What a message asks of (or reports to) its peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MessageKind {
    /// Connection opener: `target` is the sender's node name.
    Hello = 0,
    /// Read a source: `target` = device, `member` = source name.
    Query = 1,
    /// Perform an action: `target` = device, `member` = action,
    /// payload = JSON array of argument values.
    Invoke = 2,
    /// Advance the peer's environment to the sim time in the payload.
    Tick = 3,
    /// Liveness probe; the peer answers [`MessageKind::Ok`].
    Heartbeat = 4,
    /// Positive acknowledgement with no payload.
    Ok = 5,
    /// A reading or return value: payload = JSON-encoded `Value`.
    Value = 6,
    /// The peer failed: payload = UTF-8 error message.
    Error = 7,
    /// Orderly shutdown of the connection.
    Bye = 8,
    /// Read one source on many devices: `member` = source name, payload
    /// = device names ([`encode_query_batch`]), queried in order.
    QueryBatch = 9,
    /// The reply to a `QueryBatch`: one value or error message per
    /// device, in request order ([`encode_values`]).
    Values = 10,
}

impl MessageKind {
    fn from_u8(byte: u8) -> Option<MessageKind> {
        Some(match byte {
            0 => MessageKind::Hello,
            1 => MessageKind::Query,
            2 => MessageKind::Invoke,
            3 => MessageKind::Tick,
            4 => MessageKind::Heartbeat,
            5 => MessageKind::Ok,
            6 => MessageKind::Value,
            7 => MessageKind::Error,
            8 => MessageKind::Bye,
            9 => MessageKind::QueryBatch,
            10 => MessageKind::Values,
            _ => return None,
        })
    }
}

/// One message between deployment nodes.
///
/// The envelope is transport-independent: the in-process backend hands it
/// to a local handler, the socket backend frames it with
/// [`Envelope::encode_frame`] and writes it to a TCP stream. Either way
/// the [`SpanCtx`] rides along, so a span opened on the coordinator
/// parents work performed on an edge node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// What this message asks of the peer.
    pub kind: MessageKind,
    /// Causal trace context, propagated across the wire.
    pub span: SpanCtx,
    /// Sender-assigned sequence number; replies echo it.
    pub seq: u64,
    /// Cumulative acknowledgement: every request sequence number at or
    /// below this value has been answered (or abandoned), so the
    /// receiver may prune its idempotency cache up to here. Always `0`
    /// on best-effort links and in replies.
    pub ack: u64,
    /// Sim time at the sender (ms). Distributed runs stay discrete-event
    /// simulations: the coordinator's clock rides on every message, so
    /// edge-side drivers and death schedules see coordinator time.
    pub now: u64,
    /// The entity addressed (device name, or node name for `Hello`).
    pub target: String,
    /// The member addressed on the target (source or action name).
    pub member: String,
    /// Opaque payload bytes (JSON for values, UTF-8 for errors).
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Builds an envelope from its parts.
    #[must_use]
    pub fn new(
        kind: MessageKind,
        span: SpanCtx,
        seq: u64,
        target: impl Into<String>,
        member: impl Into<String>,
        payload: Vec<u8>,
    ) -> Self {
        Envelope {
            kind,
            span,
            seq,
            ack: 0,
            now: 0,
            target: target.into(),
            member: member.into(),
            payload,
        }
    }

    /// Stamps the sender's sim time onto the envelope.
    #[must_use]
    pub fn at(mut self, now_ms: u64) -> Self {
        self.now = now_ms;
        self
    }

    /// Stamps the sender's cumulative acknowledgement onto the envelope.
    #[must_use]
    pub fn with_ack(mut self, ack: u64) -> Self {
        self.ack = ack;
        self
    }

    /// A `Query` for `source` on `device` at sim time `now_ms`.
    #[must_use]
    pub fn query(span: SpanCtx, seq: u64, device: &str, source: &str, now_ms: u64) -> Self {
        Envelope::new(MessageKind::Query, span, seq, device, source, Vec::new()).at(now_ms)
    }

    /// An `Invoke` of `action` on `device` with JSON-encoded `args` at
    /// sim time `now_ms`.
    #[must_use]
    pub fn invoke(
        span: SpanCtx,
        seq: u64,
        device: &str,
        action: &str,
        args: &[Value],
        now_ms: u64,
    ) -> Self {
        let payload = serde_json::to_vec(&args.to_vec()).unwrap_or_default();
        Envelope::new(MessageKind::Invoke, span, seq, device, action, payload).at(now_ms)
    }

    /// A `Tick` advancing the peer's environment to sim time `now_ms`.
    #[must_use]
    pub fn tick(seq: u64, now_ms: u64) -> Self {
        Envelope::new(MessageKind::Tick, SpanCtx::NONE, seq, "", "", Vec::new()).at(now_ms)
    }

    /// A positive reply to `self`, echoing span, sequence number, and
    /// sim time.
    #[must_use]
    pub fn reply_ok(&self) -> Self {
        Envelope::new(MessageKind::Ok, self.span, self.seq, "", "", Vec::new()).at(self.now)
    }

    /// A value reply to `self` carrying a JSON-encoded `value`.
    #[must_use]
    pub fn reply_value(&self, value: &Value) -> Self {
        let payload = serde_json::to_vec(value).unwrap_or_default();
        Envelope::new(MessageKind::Value, self.span, self.seq, "", "", payload).at(self.now)
    }

    /// A `Values` reply to `self` (a `QueryBatch`) carrying one entry
    /// per queried device, in request order.
    #[must_use]
    pub fn reply_values(&self, entries: &[Result<Value, String>]) -> Self {
        Envelope::new(
            MessageKind::Values,
            self.span,
            self.seq,
            "",
            "",
            encode_values(entries),
        )
        .at(self.now)
    }

    /// An error reply to `self` carrying `message`.
    #[must_use]
    pub fn reply_error(&self, message: &str) -> Self {
        Envelope::new(
            MessageKind::Error,
            self.span,
            self.seq,
            "",
            "",
            message.as_bytes().to_vec(),
        )
        .at(self.now)
    }

    /// Decodes the payload as a JSON [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Frame`] when the payload is not valid
    /// JSON for a `Value`.
    pub fn value(&self) -> Result<Value, TransportError> {
        serde_json::from_slice(&self.payload)
            .map_err(|_| TransportError::Frame(FrameError::BadPayload))
    }

    /// Encoded body length in bytes (without the 4-byte frame prefix).
    #[must_use]
    pub fn body_len(&self) -> usize {
        1 + 8
            + 8
            + 8
            + 8
            + 8
            + 2
            + self.target.len()
            + 2
            + self.member.len()
            + 4
            + self.payload.len()
    }

    /// Encodes `self` as a length-prefixed frame.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Oversized`] when the body exceeds
    /// [`MAX_FRAME`] or a string exceeds its 2-byte length field.
    pub fn encode_frame(&self) -> Result<Vec<u8>, FrameError> {
        let body_len = self.body_len();
        if body_len > MAX_FRAME {
            return Err(FrameError::Oversized {
                len: body_len,
                max: MAX_FRAME,
            });
        }
        if self.target.len() > usize::from(u16::MAX) || self.member.len() > usize::from(u16::MAX) {
            return Err(FrameError::Oversized {
                len: self.target.len().max(self.member.len()),
                max: usize::from(u16::MAX),
            });
        }
        let mut out = Vec::with_capacity(4 + body_len);
        out.extend_from_slice(
            &u32::try_from(body_len)
                .expect("bounded by MAX_FRAME")
                .to_be_bytes(),
        );
        out.push(self.kind as u8);
        out.extend_from_slice(&self.span.trace_id.to_be_bytes());
        out.extend_from_slice(&self.span.parent.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.extend_from_slice(&self.now.to_be_bytes());
        out.extend_from_slice(
            &u16::try_from(self.target.len())
                .expect("checked")
                .to_be_bytes(),
        );
        out.extend_from_slice(self.target.as_bytes());
        out.extend_from_slice(
            &u16::try_from(self.member.len())
                .expect("checked")
                .to_be_bytes(),
        );
        out.extend_from_slice(self.member.as_bytes());
        out.extend_from_slice(
            &u32::try_from(self.payload.len())
                .expect("bounded by MAX_FRAME")
                .to_be_bytes(),
        );
        out.extend_from_slice(&self.payload);
        Ok(out)
    }

    /// Decodes one frame from `buf` (prefix + body, nothing after).
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] when the buffer is shorter than the
    /// declared length ([`FrameError::Truncated`]), the declared body
    /// exceeds [`MAX_FRAME`] ([`FrameError::Oversized`]), the kind byte
    /// is unknown, strings are not UTF-8, or bytes remain after the
    /// declared body ([`FrameError::TrailingBytes`]).
    pub fn decode_frame(buf: &[u8]) -> Result<Envelope, FrameError> {
        if buf.len() < 4 {
            return Err(FrameError::Truncated {
                expected: 4,
                got: buf.len(),
            });
        }
        let body_len = u32::from_be_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
        if body_len > MAX_FRAME {
            return Err(FrameError::Oversized {
                len: body_len,
                max: MAX_FRAME,
            });
        }
        if buf.len() < 4 + body_len {
            return Err(FrameError::Truncated {
                expected: 4 + body_len,
                got: buf.len(),
            });
        }
        if buf.len() > 4 + body_len {
            return Err(FrameError::TrailingBytes(buf.len() - 4 - body_len));
        }
        Envelope::decode_body(&buf[4..])
    }

    /// Decodes a frame body (everything after the length prefix).
    fn decode_body(body: &[u8]) -> Result<Envelope, FrameError> {
        let mut cursor = Cursor { body, at: 0 };
        let kind_byte = cursor.u8()?;
        let kind = MessageKind::from_u8(kind_byte).ok_or(FrameError::UnknownKind(kind_byte))?;
        let trace_id = cursor.u64()?;
        let parent = cursor.u64()?;
        let seq = cursor.u64()?;
        let ack = cursor.u64()?;
        let now = cursor.u64()?;
        let target = cursor.string()?;
        let member = cursor.string()?;
        let payload_len = cursor.u32()? as usize;
        let payload = cursor.bytes(payload_len)?.to_vec();
        if cursor.at != body.len() {
            return Err(FrameError::TrailingBytes(body.len() - cursor.at));
        }
        Ok(Envelope {
            kind,
            span: SpanCtx { trace_id, parent },
            seq,
            ack,
            now,
            target,
            member,
            payload,
        })
    }

    /// Writes `self` to `writer` as one frame.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Frame`] on encoding failure or
    /// [`TransportError::Io`] on a write failure.
    pub fn write_to(&self, writer: &mut impl Write) -> Result<usize, TransportError> {
        let frame = self.encode_frame().map_err(TransportError::Frame)?;
        writer
            .write_all(&frame)
            .and_then(|()| writer.flush())
            .map_err(io_to_transport)?;
        Ok(frame.len())
    }

    /// Reads one frame from `reader`.
    ///
    /// Returns `Ok(None)` on clean end-of-stream before any byte of the
    /// next frame (the peer closed between messages).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] on a read failure (including
    /// end-of-stream mid-frame), [`TransportError::Timeout`] when the
    /// reader has a deadline and it passes, and
    /// [`TransportError::Frame`] on a malformed body.
    pub fn read_from(reader: &mut impl Read) -> Result<Option<(Envelope, usize)>, TransportError> {
        let mut prefix = [0u8; 4];
        match reader.read_exact(&mut prefix) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(io_to_transport(e)),
        }
        let body_len = u32::from_be_bytes(prefix) as usize;
        if body_len > MAX_FRAME {
            return Err(TransportError::Frame(FrameError::Oversized {
                len: body_len,
                max: MAX_FRAME,
            }));
        }
        let mut body = vec![0u8; body_len];
        reader.read_exact(&mut body).map_err(io_to_transport)?;
        let envelope = Envelope::decode_body(&body).map_err(TransportError::Frame)?;
        Ok(Some((envelope, 4 + body_len)))
    }
}

/// Encodes the device names of a `QueryBatch` payload: a 4-byte count,
/// then each name with a 2-byte length.
///
/// # Errors
///
/// Returns [`FrameError::Oversized`] when a name exceeds its 2-byte
/// length field.
pub fn encode_query_batch<'a>(
    devices: impl IntoIterator<Item = &'a str>,
) -> Result<Vec<u8>, FrameError> {
    let mut out = vec![0; 4];
    let mut count: u32 = 0;
    for device in devices {
        let len = u16::try_from(device.len()).map_err(|_| FrameError::Oversized {
            len: device.len(),
            max: usize::from(u16::MAX),
        })?;
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(device.as_bytes());
        count += 1;
    }
    out[..4].copy_from_slice(&count.to_be_bytes());
    Ok(out)
}

/// Encoded size of one device name in a `QueryBatch` payload.
pub(crate) fn query_batch_entry_len(device: &str) -> usize {
    2 + device.len()
}

/// Decodes the device names of a `QueryBatch` payload, borrowing them
/// from `payload`.
///
/// # Errors
///
/// Returns [`FrameError::Truncated`] when the payload ends early,
/// [`FrameError::BadString`] on a name that is not UTF-8, and
/// [`FrameError::TrailingBytes`] when bytes follow the last name.
pub fn decode_query_batch(payload: &[u8]) -> Result<Vec<&str>, FrameError> {
    let mut cursor = Cursor {
        body: payload,
        at: 0,
    };
    let count = cursor.u32()? as usize;
    // A forged count must not size the allocation: each name is at
    // least its 2-byte length.
    let mut devices = Vec::with_capacity(count.min(payload.len() / 2));
    for _ in 0..count {
        let len = usize::from(u16::from_be_bytes(
            cursor.bytes(2)?.try_into().expect("2 bytes"),
        ));
        let name = std::str::from_utf8(cursor.bytes(len)?).map_err(|_| FrameError::BadString)?;
        devices.push(name);
    }
    cursor.finish()?;
    Ok(devices)
}

/// Encodes the entries of a `Values` payload: a 4-byte count, then per
/// entry a tag byte (`0` value, `1` error) and a 4-byte-length body —
/// the JSON-encoded value or the UTF-8 error message.
#[must_use]
pub fn encode_values(entries: &[Result<Value, String>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + entries.len() * 10);
    out.extend_from_slice(
        &u32::try_from(entries.len())
            .unwrap_or(u32::MAX)
            .to_be_bytes(),
    );
    for entry in entries {
        let encoded;
        let (tag, body) = match entry {
            Ok(value) => match serde_json::to_string(value) {
                Ok(json) => {
                    encoded = json;
                    (0, encoded.as_bytes())
                }
                // A value JSON cannot carry becomes that entry's error.
                Err(e) => {
                    encoded = e.to_string();
                    (1, encoded.as_bytes())
                }
            },
            Err(message) => (1, message.as_bytes()),
        };
        out.push(tag);
        out.extend_from_slice(&u32::try_from(body.len()).unwrap_or(u32::MAX).to_be_bytes());
        out.extend_from_slice(body);
    }
    out
}

/// Decodes the entries of a `Values` payload.
///
/// # Errors
///
/// Returns [`FrameError::Truncated`] when the payload ends early,
/// [`FrameError::BadPayload`] on an unknown tag or a value that is not
/// JSON for a `Value`, [`FrameError::BadString`] on an error message
/// that is not UTF-8, and [`FrameError::TrailingBytes`] when bytes
/// follow the last entry.
pub fn decode_values(payload: &[u8]) -> Result<Vec<Result<Value, String>>, FrameError> {
    let mut cursor = Cursor {
        body: payload,
        at: 0,
    };
    let count = cursor.u32()? as usize;
    // Each entry is at least its tag and its 4-byte length.
    let mut entries = Vec::with_capacity(count.min(payload.len() / 5));
    for _ in 0..count {
        let tag = cursor.u8()?;
        let len = cursor.u32()? as usize;
        let body = cursor.bytes(len)?;
        entries.push(match tag {
            0 => Ok(serde_json::from_slice(body).map_err(|_| FrameError::BadPayload)?),
            1 => Err(std::str::from_utf8(body)
                .map_err(|_| FrameError::BadString)?
                .to_owned()),
            _ => return Err(FrameError::BadPayload),
        });
    }
    cursor.finish()?;
    Ok(entries)
}

/// Maps an I/O error to the transport vocabulary: a passed read/write
/// deadline (a stalled peer) is [`TransportError::Timeout`], everything
/// else [`TransportError::Io`].
fn io_to_transport(e: std::io::Error) -> TransportError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => TransportError::Timeout,
        _ => TransportError::Io(e.to_string()),
    }
}

/// Bounds-checked reader over a frame body.
struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.at.checked_add(n).ok_or(FrameError::Truncated {
            expected: usize::MAX,
            got: self.body.len(),
        })?;
        if end > self.body.len() {
            return Err(FrameError::Truncated {
                expected: end,
                got: self.body.len(),
            });
        }
        let slice = &self.body[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_be_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_be_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn finish(&self) -> Result<(), FrameError> {
        match self.body.len() - self.at {
            0 => Ok(()),
            extra => Err(FrameError::TrailingBytes(extra)),
        }
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let len = usize::from(u16::from_be_bytes(
            self.bytes(2)?.try_into().expect("2 bytes"),
        ));
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadString)
    }
}

/// A malformed frame, detected on encode or decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The input ends before the declared length.
    Truncated {
        /// Bytes the frame declared.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The declared length exceeds the allowed maximum.
    Oversized {
        /// Declared length.
        len: usize,
        /// The maximum allowed.
        max: usize,
    },
    /// The kind byte does not name a [`MessageKind`].
    UnknownKind(u8),
    /// Bytes remain after the declared frame body.
    TrailingBytes(usize),
    /// A string field is not valid UTF-8.
    BadString,
    /// The payload does not decode as the expected content.
    BadPayload,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds maximum {max}")
            }
            FrameError::UnknownKind(byte) => write!(f, "unknown message kind {byte:#04x}"),
            FrameError::TrailingBytes(extra) => {
                write!(f, "{extra} trailing bytes after frame body")
            }
            FrameError::BadString => write!(f, "string field is not valid UTF-8"),
            FrameError::BadPayload => write!(f, "payload does not decode as expected content"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A failure moving an envelope across a transport backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The simulated loss model dropped the message.
    Dropped,
    /// The frame was malformed on encode or decode.
    Frame(FrameError),
    /// A socket operation failed (after any configured retries).
    Io(String),
    /// The peer answered with an [`MessageKind::Error`] envelope.
    Remote(String),
    /// The peer closed the connection (or said `Bye`).
    Closed,
    /// The peer did not answer within the request deadline
    /// ([`crate::fault::RetryConfig::timeout_ms`]).
    Timeout,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Dropped => write!(f, "message dropped by loss model"),
            TransportError::Frame(e) => write!(f, "frame error: {e}"),
            TransportError::Io(e) => write!(f, "i/o error: {e}"),
            TransportError::Remote(msg) => write!(f, "remote error: {msg}"),
            TransportError::Closed => write!(f, "peer closed the connection"),
            TransportError::Timeout => write!(f, "request timed out waiting for the peer"),
        }
    }
}

impl std::error::Error for TransportError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Envelope {
        Envelope::new(
            MessageKind::Query,
            SpanCtx {
                trace_id: 0xDEAD_BEEF,
                parent: 42,
            },
            7,
            "presence-A22-3",
            "presence",
            vec![1, 2, 3],
        )
        .at(600_000)
        .with_ack(5)
    }

    #[test]
    fn ack_watermark_survives_the_wire() {
        let env = sample();
        assert_eq!(env.ack, 5);
        let frame = env.encode_frame().unwrap();
        assert_eq!(Envelope::decode_frame(&frame).unwrap().ack, 5);
        assert_eq!(env.reply_ok().ack, 0, "replies carry no ack");
    }

    #[test]
    fn frame_round_trips() {
        let env = sample();
        let frame = env.encode_frame().unwrap();
        assert_eq!(Envelope::decode_frame(&frame).unwrap(), env);
    }

    #[test]
    fn empty_fields_round_trip() {
        let env = Envelope::new(MessageKind::Ok, SpanCtx::NONE, 0, "", "", Vec::new());
        let frame = env.encode_frame().unwrap();
        assert_eq!(frame.len(), 4 + env.body_len());
        assert_eq!(Envelope::decode_frame(&frame).unwrap(), env);
    }

    #[test]
    fn truncated_frames_rejected_at_every_length() {
        let frame = sample().encode_frame().unwrap();
        for cut in 0..frame.len() {
            match Envelope::decode_frame(&frame[..cut]) {
                Err(FrameError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut frame = vec![0u8; 8];
        frame[0..4].copy_from_slice(&u32::try_from(MAX_FRAME + 1).unwrap().to_be_bytes());
        assert!(matches!(
            Envelope::decode_frame(&frame),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn oversized_payload_rejected_on_encode() {
        let env = Envelope::new(
            MessageKind::Value,
            SpanCtx::NONE,
            0,
            "",
            "",
            vec![0u8; MAX_FRAME],
        );
        assert!(matches!(
            env.encode_frame(),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut frame = sample().encode_frame().unwrap();
        frame[4] = 200;
        assert_eq!(
            Envelope::decode_frame(&frame),
            Err(FrameError::UnknownKind(200))
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = sample().encode_frame().unwrap();
        frame.push(0);
        assert!(matches!(
            Envelope::decode_frame(&frame),
            Err(FrameError::TrailingBytes(_))
        ));
    }

    #[test]
    fn read_write_round_trip_over_a_stream() {
        let env = sample();
        let mut buf = Vec::new();
        let written = env.write_to(&mut buf).unwrap();
        let mut reader = &buf[..];
        let (decoded, read) = Envelope::read_from(&mut reader).unwrap().unwrap();
        assert_eq!(decoded, env);
        assert_eq!(written, read);
        assert!(Envelope::read_from(&mut reader).unwrap().is_none());
    }

    #[test]
    fn value_payload_round_trips() {
        let value = Value::structure(
            "LotAvailability",
            [
                ("lot".to_string(), Value::Str("A22".into())),
                ("free".to_string(), Value::Int(12)),
            ],
        );
        let env = sample().reply_value(&value);
        assert_eq!(env.value().unwrap(), value);
    }

    #[test]
    fn tick_carries_sim_time() {
        let env = Envelope::tick(3, 61_000);
        assert_eq!(env.now, 61_000);
        assert_eq!(env.reply_ok().now, 61_000, "replies echo the sim time");
        let frame = env.encode_frame().unwrap();
        assert_eq!(Envelope::decode_frame(&frame).unwrap().now, 61_000);
    }
}
