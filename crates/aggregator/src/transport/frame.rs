//! The length-prefixed frame codec for the probe→aggregator wire.
//!
//! Every message on the wire is one frame: a fixed 28-byte big-endian
//! header followed by a length-prefixed payload whose FNV-1a checksum
//! is carried in the header. The codec is zero-dependency and fully
//! classified: any malformed input — truncation, bit flips, garbage
//! prefixes, oversized length fields — decodes to a [`FrameError`]
//! variant, never a panic, and never an allocation sized by an
//! unvalidated length field.
//!
//! ```text
//! magic        u16   0x5243 ("RC")
//! version      u8    1
//! frame type   u8    Hello | HelloAck | Batch | WindowEnd | Heartbeat | Ack | Reject | Bye
//! session      u64   session id (0 before assignment)
//! seq          u64   sequence number (sequenced frames) or ack cursor
//! payload len  u32   bytes following the header
//! checksum     u32   FNV-1a over the payload bytes
//! ```
//!
//! Only [`FrameType::Batch`] and [`FrameType::WindowEnd`] are
//! *sequenced*: they carry consecutive `seq` numbers, are acknowledged
//! cumulatively ([`FrameType::Ack`]'s `seq` is the next expected
//! number), and are retransmitted until acknowledged. Everything else
//! is fire-and-forget control traffic.

use flow::{FlowError, FlowRecord};
use std::io::{self, Read};

/// Frame magic: "RC", big-endian.
pub const MAGIC: u16 = 0x5243;
/// Protocol version this codec speaks.
pub const VERSION: u8 = 1;
/// Encoded header size in bytes.
pub const HEADER_LEN: usize = 28;

/// What a frame is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameType {
    /// Probe→aggregator: opens or resumes a session. Payload:
    /// probe name + the session id being resumed (0 for a new session).
    Hello = 1,
    /// Aggregator→probe: accepts a session. `session` is the assigned
    /// id, `seq` the next sequence number the listener expects (the
    /// resume point).
    HelloAck = 2,
    /// Probe→aggregator, sequenced: one window's records (or a slice of
    /// them). Payload: window bounds + a `flow::wirefmt` batch.
    Batch = 3,
    /// Probe→aggregator, sequenced: closes one window. Payload: window
    /// bounds + the total record count sent for it (integrity check).
    WindowEnd = 4,
    /// Probe→aggregator: liveness signal, empty payload, `seq` 0. The
    /// listener accepts and counts it; the in-repo sender never sends one.
    Heartbeat = 5,
    /// Aggregator→probe: cumulative acknowledgement; `seq` is the next
    /// sequence number expected.
    Ack = 6,
    /// Aggregator→probe: the session cannot be opened or resumed.
    /// Payload: a reason string. Terminal for the sender.
    Reject = 7,
    /// Probe→aggregator: orderly end of stream; the probe will send
    /// nothing further in this session.
    Bye = 8,
}

impl FrameType {
    /// Maps a wire byte back to a frame type; `None` for unknown bytes.
    pub fn from_u8(v: u8) -> Option<FrameType> {
        Some(match v {
            1 => FrameType::Hello,
            2 => FrameType::HelloAck,
            3 => FrameType::Batch,
            4 => FrameType::WindowEnd,
            5 => FrameType::Heartbeat,
            6 => FrameType::Ack,
            7 => FrameType::Reject,
            8 => FrameType::Bye,
            _ => return None,
        })
    }
}

/// Why a frame failed to decode. Every variant is a classified protocol
/// error except [`FrameError::Io`], which wraps transport-level read
/// failures (timeouts included) so stream readers have a single error
/// channel.
#[derive(Debug)]
pub enum FrameError {
    /// The buffer ends before the header or declared payload does.
    Truncated {
        /// What was being read.
        context: &'static str,
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// The first two bytes are not [`MAGIC`] — garbage prefix or a
    /// desynchronized stream.
    BadMagic(u16),
    /// A version this codec does not speak.
    BadVersion(u8),
    /// An unknown frame type byte.
    BadType(u8),
    /// The declared payload length exceeds the configured maximum.
    Oversized {
        /// Declared payload length.
        len: u32,
        /// Configured maximum.
        max: u32,
    },
    /// The payload checksum does not match the header's.
    ChecksumMismatch {
        /// Checksum the header declared.
        expected: u32,
        /// Checksum of the bytes received.
        actual: u32,
    },
    /// The payload of a typed frame failed structural decoding.
    BadPayload {
        /// Which frame type's payload.
        context: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// An underlying read failure (includes read-deadline timeouts).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated {context}: needed {needed} bytes, had {available}"
            ),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::BadType(t) => write!(f, "unknown frame type {t}"),
            FrameError::Oversized { len, max } => {
                write!(f, "payload of {len} bytes exceeds maximum {max}")
            }
            FrameError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload checksum mismatch: header {expected:#010x}, body {actual:#010x}"
            ),
            FrameError::BadPayload { context, detail } => {
                write!(f, "bad {context} payload: {detail}")
            }
            FrameError::Io(e) => write!(f, "frame read failed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// FNV-1a over `bytes`, the payload checksum. Not cryptographic — it
/// catches the bit flips and truncations a hostile-free transport can
/// produce, inside the standard library.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Frame type.
    pub kind: FrameType,
    /// Session id (0 before assignment).
    pub session: u64,
    /// Sequence number (sequenced frames), ack cursor ([`FrameType::Ack`]
    /// / [`FrameType::HelloAck`]), or 0.
    pub seq: u64,
    /// Raw payload bytes (already checksum-verified on decode).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a control frame with an empty payload.
    pub fn control(kind: FrameType, session: u64, seq: u64) -> Frame {
        Frame {
            kind,
            session,
            seq,
            payload: Vec::new(),
        }
    }

    /// Encodes the frame: header plus payload, ready to write.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&MAGIC.to_be_bytes());
        out.push(VERSION);
        out.push(self.kind as u8);
        out.extend_from_slice(&self.session.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&checksum(&self.payload).to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes one frame from the front of `buf`, returning it and the
    /// number of bytes consumed. `max_payload` bounds the allocation a
    /// length field can demand. Classified errors on anything malformed.
    pub fn decode(buf: &[u8], max_payload: u32) -> Result<(Frame, usize), FrameError> {
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Truncated {
                context: "frame header",
                needed: HEADER_LEN,
                available: buf.len(),
            });
        }
        let magic = u16::from_be_bytes([buf[0], buf[1]]);
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        if buf[2] != VERSION {
            return Err(FrameError::BadVersion(buf[2]));
        }
        let Some(kind) = FrameType::from_u8(buf[3]) else {
            return Err(FrameError::BadType(buf[3]));
        };
        let session = u64::from_be_bytes(buf[4..12].try_into().expect("slice length 8"));
        let seq = u64::from_be_bytes(buf[12..20].try_into().expect("slice length 8"));
        let len = u32::from_be_bytes(buf[20..24].try_into().expect("slice length 4"));
        let expected = u32::from_be_bytes(buf[24..28].try_into().expect("slice length 4"));
        if len > max_payload {
            return Err(FrameError::Oversized {
                len,
                max: max_payload,
            });
        }
        let len = len as usize;
        let Some(payload) = buf.get(HEADER_LEN..HEADER_LEN + len) else {
            return Err(FrameError::Truncated {
                context: "frame payload",
                needed: len,
                available: buf.len() - HEADER_LEN,
            });
        };
        let actual = checksum(payload);
        if actual != expected {
            return Err(FrameError::ChecksumMismatch { expected, actual });
        }
        Ok((
            Frame {
                kind,
                session,
                seq,
                payload: payload.to_vec(),
            },
            HEADER_LEN + len,
        ))
    }
}

/// Reads exactly one frame from a stream. Timeouts and disconnects
/// surface as [`FrameError::Io`]; everything else is a classified
/// protocol error, after which the stream must be considered
/// desynchronized and dropped.
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    // Validate the header alone first (payload length 0): every header
    // field error is reported before any payload allocation.
    match Frame::decode(&header, max_payload) {
        Ok(_) => {}
        Err(FrameError::Truncated {
            context: "frame payload",
            ..
        }) => {}
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(header[20..24].try_into().expect("slice length 4")) as usize;
    let mut buf = Vec::with_capacity(HEADER_LEN + len);
    buf.extend_from_slice(&header);
    buf.resize(HEADER_LEN + len, 0);
    r.read_exact(&mut buf[HEADER_LEN..])?;
    Frame::decode(&buf, max_payload).map(|(f, _)| f)
}

// ---- typed payloads -------------------------------------------------

/// The [`FrameType::Hello`] payload: who is connecting, and which
/// session (if any) it is trying to resume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Probe name, the session key on the listener.
    pub probe: String,
    /// Session id to resume, or 0 to open a fresh session.
    pub resume_session: u64,
}

impl Hello {
    /// Encodes into a [`FrameType::Hello`] frame.
    pub fn into_frame(self) -> Frame {
        let name = self.probe.as_bytes();
        let mut payload = Vec::with_capacity(2 + name.len() + 8);
        payload.extend_from_slice(&(name.len() as u16).to_be_bytes());
        payload.extend_from_slice(name);
        payload.extend_from_slice(&self.resume_session.to_be_bytes());
        Frame {
            kind: FrameType::Hello,
            session: 0,
            seq: 0,
            payload,
        }
    }

    /// Decodes from a [`FrameType::Hello`] frame payload.
    pub fn from_payload(payload: &[u8]) -> Result<Hello, FrameError> {
        let bad = |detail: String| FrameError::BadPayload {
            context: "hello",
            detail,
        };
        if payload.len() < 2 {
            return Err(bad("missing name length".into()));
        }
        let name_len = u16::from_be_bytes([payload[0], payload[1]]) as usize;
        let Some(name) = payload.get(2..2 + name_len) else {
            return Err(bad(format!(
                "name of {name_len} bytes exceeds payload of {}",
                payload.len()
            )));
        };
        let probe = std::str::from_utf8(name)
            .map_err(|_| bad("probe name is not UTF-8".into()))?
            .to_string();
        let rest = &payload[2 + name_len..];
        if rest.len() != 8 {
            return Err(bad(format!(
                "expected 8 trailing bytes, got {}",
                rest.len()
            )));
        }
        let resume_session = u64::from_be_bytes(rest.try_into().expect("slice length 8"));
        Ok(Hello {
            probe,
            resume_session,
        })
    }
}

/// The payload shared by [`FrameType::Batch`] and
/// [`FrameType::WindowEnd`]: which window the frame belongs to, plus
/// either the records (batch) or the expected total (window end).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowPayload {
    /// Window start (inclusive), ms.
    pub window_start_ms: u64,
    /// Window end (exclusive), ms.
    pub window_end_ms: u64,
    /// Batch: the records in this slice. WindowEnd: empty.
    pub records: Vec<FlowRecord>,
    /// WindowEnd: total records the window was sent with. Batch: 0.
    pub records_total: u64,
}

impl WindowPayload {
    /// Encodes a [`FrameType::Batch`] payload.
    pub fn encode_batch(
        window_start_ms: u64,
        window_end_ms: u64,
        records: &[FlowRecord],
    ) -> Vec<u8> {
        let body = flow::wirefmt::encode_batch(records);
        let mut payload = Vec::with_capacity(16 + body.len());
        payload.extend_from_slice(&window_start_ms.to_be_bytes());
        payload.extend_from_slice(&window_end_ms.to_be_bytes());
        payload.extend_from_slice(&body);
        payload
    }

    /// Encodes a [`FrameType::WindowEnd`] payload.
    pub fn encode_end(window_start_ms: u64, window_end_ms: u64, records_total: u64) -> Vec<u8> {
        let mut payload = Vec::with_capacity(24);
        payload.extend_from_slice(&window_start_ms.to_be_bytes());
        payload.extend_from_slice(&window_end_ms.to_be_bytes());
        payload.extend_from_slice(&records_total.to_be_bytes());
        payload
    }

    /// Decodes a [`FrameType::Batch`] payload.
    pub fn decode_batch(payload: &[u8]) -> Result<WindowPayload, FrameError> {
        if payload.len() < 16 {
            return Err(FrameError::BadPayload {
                context: "batch",
                detail: format!("window header needs 16 bytes, got {}", payload.len()),
            });
        }
        let window_start_ms = u64::from_be_bytes(payload[..8].try_into().expect("slice length 8"));
        let window_end_ms = u64::from_be_bytes(payload[8..16].try_into().expect("slice length 8"));
        let records = flow::wirefmt::decode_batch(&payload[16..]).map_err(|e: FlowError| {
            FrameError::BadPayload {
                context: "batch",
                detail: e.to_string(),
            }
        })?;
        Ok(WindowPayload {
            window_start_ms,
            window_end_ms,
            records,
            records_total: 0,
        })
    }

    /// Decodes a [`FrameType::WindowEnd`] payload.
    pub fn decode_end(payload: &[u8]) -> Result<WindowPayload, FrameError> {
        if payload.len() != 24 {
            return Err(FrameError::BadPayload {
                context: "window end",
                detail: format!("expected 24 bytes, got {}", payload.len()),
            });
        }
        let window_start_ms = u64::from_be_bytes(payload[..8].try_into().expect("slice length 8"));
        let window_end_ms = u64::from_be_bytes(payload[8..16].try_into().expect("slice length 8"));
        let records_total = u64::from_be_bytes(payload[16..24].try_into().expect("slice length 8"));
        Ok(WindowPayload {
            window_start_ms,
            window_end_ms,
            records: Vec::new(),
            records_total,
        })
    }
}

/// Encodes a [`FrameType::Reject`] payload (a reason string).
pub fn encode_reject(reason: &str) -> Vec<u8> {
    reason.as_bytes().to_vec()
}

/// Decodes a [`FrameType::Reject`] payload.
pub fn decode_reject(payload: &[u8]) -> String {
    String::from_utf8_lossy(payload).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow::HostAddr;

    fn records() -> Vec<FlowRecord> {
        (0..5)
            .map(|i| {
                let mut f = FlowRecord::pair(HostAddr::v4(i), HostAddr::v4(i + 100));
                f.start_ms = u64::from(i) * 10;
                f
            })
            .collect()
    }

    #[test]
    fn frame_round_trips() {
        let frame = Frame {
            kind: FrameType::Batch,
            session: 7,
            seq: 42,
            payload: WindowPayload::encode_batch(0, 1000, &records()),
        };
        let bytes = frame.encode();
        let (back, used) = Frame::decode(&bytes, 1 << 20).unwrap();
        assert_eq!(back, frame);
        assert_eq!(used, bytes.len());
        let wp = WindowPayload::decode_batch(&back.payload).unwrap();
        assert_eq!(wp.records, records());
        assert_eq!((wp.window_start_ms, wp.window_end_ms), (0, 1000));
    }

    #[test]
    fn stream_reader_round_trips_multiple_frames() {
        let a = Hello {
            probe: "edge-1".into(),
            resume_session: 0,
        }
        .into_frame();
        let b = Frame::control(FrameType::Heartbeat, 3, 0);
        let mut bytes = a.encode();
        bytes.extend_from_slice(&b.encode());
        let mut cursor = io::Cursor::new(bytes);
        let got_a = read_frame(&mut cursor, 1 << 20).unwrap();
        assert_eq!(Hello::from_payload(&got_a.payload).unwrap().probe, "edge-1");
        let got_b = read_frame(&mut cursor, 1 << 20).unwrap();
        assert_eq!(got_b, b);
        // Stream exhausted: io error, not a protocol error.
        assert!(matches!(
            read_frame(&mut cursor, 1 << 20),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn header_corruptions_are_classified() {
        let frame = Frame::control(FrameType::Heartbeat, 1, 0);
        let good = frame.encode();

        let mut bad = good.clone();
        bad[0] = 0xff;
        assert!(matches!(
            Frame::decode(&bad, 1 << 20),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[2] = 9;
        assert!(matches!(
            Frame::decode(&bad, 1 << 20),
            Err(FrameError::BadVersion(9))
        ));

        let mut bad = good.clone();
        bad[3] = 0;
        assert!(matches!(
            Frame::decode(&bad, 1 << 20),
            Err(FrameError::BadType(0))
        ));

        assert!(matches!(
            Frame::decode(&good[..10], 1 << 20),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_payload_is_rejected_before_allocation() {
        let frame = Frame {
            kind: FrameType::Batch,
            session: 1,
            seq: 1,
            payload: vec![0; 64],
        };
        let bytes = frame.encode();
        assert!(matches!(
            Frame::decode(&bytes, 16),
            Err(FrameError::Oversized { len: 64, max: 16 })
        ));
        let mut cursor = io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor, 16),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn payload_bit_flip_fails_checksum() {
        let frame = Frame {
            kind: FrameType::Batch,
            session: 1,
            seq: 1,
            payload: WindowPayload::encode_batch(0, 1000, &records()),
        };
        let mut bytes = frame.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        assert!(matches!(
            Frame::decode(&bytes, 1 << 20),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn hello_payload_rejects_malformed_input() {
        assert!(Hello::from_payload(&[]).is_err());
        assert!(Hello::from_payload(&[0, 200, 1, 2]).is_err());
        let mut p = Hello {
            probe: "p".into(),
            resume_session: 5,
        }
        .into_frame()
        .payload;
        assert_eq!(Hello::from_payload(&p).unwrap().resume_session, 5);
        p.push(0);
        assert!(Hello::from_payload(&p).is_err());
    }

    #[test]
    fn window_end_payload_round_trips() {
        let p = WindowPayload::encode_end(500, 1500, 77);
        let wp = WindowPayload::decode_end(&p).unwrap();
        assert_eq!(
            (wp.window_start_ms, wp.window_end_ms, wp.records_total),
            (500, 1500, 77)
        );
        assert!(WindowPayload::decode_end(&p[..20]).is_err());
        assert!(WindowPayload::decode_batch(&[1, 2, 3]).is_err());
    }

    #[test]
    fn reject_payload_round_trips() {
        let p = encode_reject("unknown session");
        assert_eq!(decode_reject(&p), "unknown session");
    }

    #[test]
    fn checksum_is_fnv1a() {
        // Reference vectors for 32-bit FNV-1a.
        assert_eq!(checksum(b""), 0x811c_9dc5);
        assert_eq!(checksum(b"a"), 0xe40c_292c);
        assert_eq!(checksum(b"foobar"), 0xbf9c_f968);
    }
}
