//! Property-based tests of the length-prefixed wire format.
//!
//! Invariants:
//! 1. `encode_frame` → `decode_frame` round-trips every encodable
//!    envelope — kind, span context, sequence number, sim time, names,
//!    and payload (including the empty payload and a 1 MiB one).
//! 2. Every strict prefix of a valid frame is rejected as truncated,
//!    and trailing garbage is rejected — a frame boundary can never be
//!    misread.
//! 3. Oversized frames are rejected on encode, and a forged oversized
//!    length prefix is rejected on decode before any body is read.
//! 4. The `SpanCtx` survives the stream path (`write_to`/`read_from`),
//!    so spans opened on the coordinator parent edge-side work.
//! 5. `decode_frame` never panics on corrupted input — any single bit
//!    flip yields a clean `Ok`/`Err`, and a stream cut mid-frame
//!    surfaces as an error, never a silent clean-EOF.
//! 6. The batch payloads (`QueryBatch` names, `Values` entries)
//!    round-trip — the empty list, error entries and non-ASCII names
//!    included — and arbitrary bytes decode to a clean `Err` or `Ok`,
//!    never a panic.
//! 7. A poll sweep whose names outgrow one frame splits into several
//!    `QueryBatch` exchanges, each within `MAX_FRAME`, and every member
//!    is still answered, in order.

use diaspec_runtime::deploy::{EdgeRuntime, Link, RemoteDeviceProxy};
use diaspec_runtime::entity::{AttributeMap, BindingTime, DeviceInstance};
use diaspec_runtime::error::DeviceError;
use diaspec_runtime::registry::Registry;
use diaspec_runtime::transport::{
    decode_query_batch, decode_values, encode_query_batch, encode_values, Envelope, FrameError,
    MessageKind, Transport, TransportError, TransportStats, MAX_FRAME,
};
use diaspec_runtime::value::Value;
use diaspec_runtime::SpanCtx;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

// ---- generators ---------------------------------------------------------------

const KINDS: [MessageKind; 11] = [
    MessageKind::Hello,
    MessageKind::Query,
    MessageKind::Invoke,
    MessageKind::Tick,
    MessageKind::Heartbeat,
    MessageKind::Ok,
    MessageKind::Value,
    MessageKind::Error,
    MessageKind::Bye,
    MessageKind::QueryBatch,
    MessageKind::Values,
];

fn envelope() -> impl Strategy<Value = Envelope> {
    (
        (
            0..KINDS.len(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (
            // Arbitrary printable text, not just identifiers: the format
            // must carry any device / member name the registry can hold.
            ".{0,40}",
            ".{0,40}",
            proptest::collection::vec(any::<u8>(), 0..1024),
            any::<u64>(),
        ),
    )
        .prop_map(
            |((kind, trace_id, parent, seq, now), (target, member, payload, ack))| {
                let mut env = Envelope::new(
                    KINDS[kind],
                    SpanCtx { trace_id, parent },
                    seq,
                    target,
                    member,
                    payload,
                )
                .at(now);
                env.ack = ack;
                env
            },
        )
}

// ---- round-trip ---------------------------------------------------------------

proptest! {
    #[test]
    fn frames_round_trip(env in envelope()) {
        let frame = env.encode_frame().expect("within bounds");
        prop_assert_eq!(frame.len(), 4 + env.body_len());
        let back = Envelope::decode_frame(&frame).expect("own encoding decodes");
        prop_assert_eq!(back, env);
    }

    #[test]
    fn span_ctx_survives_the_stream_path(env in envelope()) {
        let mut stream = Vec::new();
        let written = env.write_to(&mut stream).expect("in-memory write");
        let mut reader = stream.as_slice();
        let (back, read) = Envelope::read_from(&mut reader)
            .expect("in-memory read")
            .expect("one frame present");
        prop_assert_eq!(written, read);
        prop_assert_eq!(back.span, env.span);
        prop_assert_eq!(back, env);
        // The stream is fully consumed: a second read sees clean EOF.
        prop_assert!(Envelope::read_from(&mut reader).expect("clean eof").is_none());
    }

    // ---- malformed input ------------------------------------------------------

    #[test]
    fn every_strict_prefix_is_rejected(env in envelope(), cut in any::<usize>()) {
        let frame = env.encode_frame().expect("within bounds");
        let cut = cut % frame.len();
        prop_assert!(
            Envelope::decode_frame(&frame[..cut]).is_err(),
            "prefix of {cut}/{} bytes decoded",
            frame.len()
        );
    }

    #[test]
    fn trailing_bytes_are_rejected(env in envelope(), extra in 1usize..16) {
        let mut frame = env.encode_frame().expect("within bounds");
        frame.extend(vec![0xAB; extra]);
        prop_assert_eq!(
            Envelope::decode_frame(&frame),
            Err(FrameError::TrailingBytes(extra))
        );
    }

    #[test]
    fn unknown_kind_bytes_are_rejected(env in envelope(), kind in 11u8..255) {
        let mut frame = env.encode_frame().expect("within bounds");
        frame[4] = kind;
        prop_assert_eq!(
            Envelope::decode_frame(&frame),
            Err(FrameError::UnknownKind(kind))
        );
    }

    // ---- corruption -----------------------------------------------------------

    #[test]
    fn a_single_bit_flip_never_panics_the_decoder(
        env in envelope(),
        position in any::<usize>(),
        bit in 0u8..8,
    ) {
        // A chaos link (or a bad NIC) can hand the decoder any mutation
        // of a valid frame. Whatever comes back — a misread that still
        // parses, or any FrameError — it must be a return, not a panic.
        let mut frame = env.encode_frame().expect("within bounds");
        let position = position % frame.len();
        frame[position] ^= 1 << bit;
        let _ = Envelope::decode_frame(&frame);
    }

    #[test]
    fn a_stream_cut_mid_frame_is_an_error_not_a_clean_eof(
        env in envelope(),
        cut in any::<usize>(),
    ) {
        // A peer dying mid-write leaves a partial frame on the wire.
        // Once the length prefix has fully arrived, the missing body
        // must surface as an I/O error — never as `Ok(None)` (which
        // callers treat as an orderly close) and never as an envelope.
        let mut stream = Vec::new();
        env.write_to(&mut stream).expect("in-memory write");
        let cut = 4 + cut % (stream.len() - 4);
        let mut reader = &stream[..cut];
        prop_assert!(matches!(
            Envelope::read_from(&mut reader),
            Err(TransportError::Io(_))
        ));
    }
}

// ---- batch payloads -----------------------------------------------------------

/// A `Values` entry: a reading or an error message.
fn reply_entry() -> impl Strategy<Value = Result<Value, String>> {
    (any::<bool>(), any::<i64>(), ".{0,24}").prop_map(|(ok, n, message)| {
        if ok {
            Ok(Value::Int(n))
        } else {
            Err(message)
        }
    })
}

proptest! {
    #[test]
    fn query_batch_names_round_trip(names in proptest::collection::vec(".{0,24}", 0..40)) {
        let payload = encode_query_batch(names.iter().map(String::as_str))
            .expect("short names fit");
        let back = decode_query_batch(&payload).expect("own encoding decodes");
        prop_assert_eq!(back, names.iter().map(String::as_str).collect::<Vec<_>>());
    }

    #[test]
    fn values_entries_round_trip(entries in proptest::collection::vec(reply_entry(), 0..40)) {
        let payload = encode_values(&entries);
        prop_assert_eq!(decode_values(&payload).expect("own encoding decodes"), entries);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_batch_decoders(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Whatever a peer (or a corrupting link) puts in a batch payload
        // comes back as a return value.
        let _ = decode_query_batch(&bytes);
        let _ = decode_values(&bytes);
    }
}

#[test]
fn batch_payload_edge_cases_round_trip() {
    let empty = encode_query_batch([]).expect("empty list");
    assert_eq!(decode_query_batch(&empty), Ok(Vec::new()));
    let names = ["présence-Ä22-0", "パネル-1", ""];
    let payload = encode_query_batch(names).expect("fits");
    assert_eq!(decode_query_batch(&payload), Ok(names.to_vec()));
    let entries = vec![
        Ok(Value::Bool(true)),
        Err("node edge0 hosts no device `x`".to_owned()),
        Ok(Value::Str("Lüneburg".into())),
    ];
    assert_eq!(decode_values(&encode_values(&entries)), Ok(entries));
    assert_eq!(decode_values(&encode_values(&[])), Ok(Vec::new()));
    // A forged count is refused without sizing an allocation by it.
    assert!(decode_query_batch(&u32::MAX.to_be_bytes()).is_err());
    assert!(decode_values(&u32::MAX.to_be_bytes()).is_err());
    // An unknown entry tag and a trailing byte are refused.
    let mut bad_tag = encode_values(&[Ok(Value::Int(1))]);
    bad_tag[4] = 7;
    assert_eq!(decode_values(&bad_tag), Err(FrameError::BadPayload));
    let mut trailing = encode_query_batch(["a"]).expect("fits");
    trailing.push(0);
    assert_eq!(
        decode_query_batch(&trailing),
        Err(FrameError::TrailingBytes(1))
    );
}

/// Loops a link into an edge runtime and records every frame's encoded
/// size and kind.
struct Recorded {
    edge: Arc<Mutex<EdgeRuntime>>,
    frames: Arc<Mutex<Vec<(MessageKind, usize)>>>,
}

impl Transport for Recorded {
    fn backend(&self) -> &'static str {
        "recorded"
    }
    fn peer(&self) -> &str {
        "edge0"
    }
    fn exchange(&mut self, envelope: &Envelope) -> Result<Envelope, TransportError> {
        let frame = envelope.encode_frame().map_err(TransportError::Frame)?;
        self.frames
            .lock()
            .expect("frames lock")
            .push((envelope.kind, frame.len() - 4));
        let reply = self
            .edge
            .lock()
            .expect("edge lock")
            .handle(&Envelope::decode_frame(&frame).map_err(TransportError::Frame)?)
            .ok_or(TransportError::Closed)?;
        reply.encode_frame().map_err(TransportError::Frame)?;
        Ok(reply)
    }
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

#[test]
fn a_sweep_of_long_names_splits_into_frames_within_max_frame() {
    const MEMBERS: usize = 300;
    const NAME_BYTES: usize = 60 * 1024;
    let spec = Arc::new(
        diaspec_core::compile_str("device D { source s as Integer; }").expect("spec compiles"),
    );
    let name = |i: usize| format!("{i:05}-{}", "n".repeat(NAME_BYTES - 6));
    let mut edge = EdgeRuntime::new("edge0");
    for i in 0..MEMBERS {
        let reading = i64::try_from(i).expect("small");
        edge.add_device(
            name(i),
            Box::new(move |_: &str, _: u64| Ok::<_, DeviceError>(Value::Int(reading))),
        );
    }
    let frames = Arc::new(Mutex::new(Vec::new()));
    let link = Link::new(Recorded {
        edge: Arc::new(Mutex::new(edge)),
        frames: Arc::clone(&frames),
    });
    let mut registry = Registry::new(spec);
    for i in 0..MEMBERS {
        let proxy: Box<dyn DeviceInstance> =
            Box::new(RemoteDeviceProxy::new(name(i), Arc::clone(&link)));
        registry
            .bind(
                name(i).into(),
                "D",
                AttributeMap::new(),
                proxy,
                BindingTime::Deployment,
                0,
            )
            .expect("binds");
    }
    let readings = registry.poll("D", "s", None, 1_000);
    let values: Vec<i64> = readings
        .iter()
        .map(|r| r.value.as_int().expect("an integer"))
        .collect();
    assert_eq!(
        values,
        (0..300).collect::<Vec<i64>>(),
        "every member, in order"
    );
    let frames = frames.lock().expect("frames lock");
    assert!(
        frames.len() > 1,
        "{} names of 60 KB need several frames",
        MEMBERS
    );
    assert!(frames
        .iter()
        .all(|&(kind, len)| kind == MessageKind::QueryBatch && len <= MAX_FRAME));
    // A frame only ends where the next name would not have fitted.
    let fitting = MAX_FRAME / (NAME_BYTES + 2);
    assert_eq!(frames.len(), MEMBERS.div_ceil(fitting));
}

// ---- size extremes ------------------------------------------------------------

#[test]
fn a_one_mebibyte_payload_round_trips() {
    let payload: Vec<u8> = (0..1024 * 1024).map(|i| (i % 251) as u8).collect();
    let env = Envelope::new(
        MessageKind::Value,
        SpanCtx {
            trace_id: 7,
            parent: 3,
        },
        42,
        "presence-A22-0",
        "presence",
        payload,
    )
    .at(61_000);
    let frame = env.encode_frame().expect("1 MiB is well under MAX_FRAME");
    assert_eq!(Envelope::decode_frame(&frame).expect("decodes"), env);
}

#[test]
fn oversized_bodies_are_rejected_on_encode() {
    let env = Envelope::new(
        MessageKind::Value,
        SpanCtx::NONE,
        0,
        "d",
        "s",
        vec![0u8; MAX_FRAME + 1],
    );
    assert!(matches!(
        env.encode_frame(),
        Err(FrameError::Oversized { .. })
    ));
}

#[test]
fn a_forged_oversized_length_prefix_is_rejected() {
    // decode_frame: a 4-byte buffer whose prefix declares > MAX_FRAME.
    let len = u32::try_from(MAX_FRAME + 1).expect("fits");
    let forged = len.to_be_bytes().to_vec();
    assert!(matches!(
        Envelope::decode_frame(&forged),
        Err(FrameError::Oversized { .. })
    ));
    // read_from: the same forged prefix must fail before any body read.
    let mut reader = forged.as_slice();
    assert!(matches!(
        Envelope::read_from(&mut reader),
        Err(TransportError::Frame(FrameError::Oversized { .. }))
    ));
}
