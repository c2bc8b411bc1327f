//! The probe side of the wire: windowed streaming with cumulative
//! acks, go-back-N retransmission, and reconnect-with-resume.
//!
//! A [`ProbeSender`] owns the delivery state the listener's session
//! mirrors: the next sequence number to assign and the queue of
//! sent-but-unacked frames. Because a frame leaves the queue only when
//! the listener's cumulative ack covers it, the sender can always
//! replay exactly the suffix the listener has not accepted — after an
//! ack timeout (go-back-N retransmission) or after a reconnect (the
//! [`HelloAck`](super::FrameType::HelloAck) carries the listener's
//! resume point). A sender that has lost this state cannot make that
//! guarantee, which is why the listener rejects fresh Hellos over live
//! sessions instead of guessing.

use super::frame::{self, decode_reject, Frame, FrameError, FrameType, Hello, WindowPayload};
use super::TransportConfig;
use flow::FlowRecord;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Why the sender gave up.
#[derive(Debug)]
pub enum TransportError {
    /// A socket-level failure that outlived every reconnect attempt.
    Io(io::Error),
    /// The listener sent something unintelligible.
    Frame(FrameError),
    /// The listener refused the session (cannot resume, unknown id).
    Rejected(String),
    /// Retransmission rounds were exhausted without ack progress —
    /// the permanent-loss outcome.
    Exhausted {
        /// Sequenced frames still unacknowledged.
        unacked: usize,
        /// What was being waited for.
        detail: String,
    },
    /// The listener violated the protocol (e.g. an unexpected frame
    /// type during handshake).
    Protocol(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o failed: {e}"),
            TransportError::Frame(e) => write!(f, "transport frame error: {e}"),
            TransportError::Rejected(r) => write!(f, "session rejected: {r}"),
            TransportError::Exhausted { unacked, detail } => {
                write!(
                    f,
                    "retransmission exhausted with {unacked} unacked frames: {detail}"
                )
            }
            TransportError::Protocol(d) => write!(f, "protocol violation: {d}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// Lifetime counters for one sender, returned by
/// [`ProbeSender::finish`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Sequenced frames sent at least once.
    pub frames_sent: u64,
    /// Frame (re)writes beyond the first send.
    pub retransmits: u64,
    /// Successful reconnect-and-resume cycles.
    pub reconnects: u64,
    /// Windows fully sent and closed.
    pub windows_sent: u64,
    /// Records shipped across all windows.
    pub records_sent: u64,
    /// Encoded bytes written (including retransmissions).
    pub bytes_sent: u64,
}

/// One in-flight sequenced frame: its number and encoded bytes, kept
/// until the cumulative ack covers it.
struct Unacked {
    seq: u64,
    bytes: Vec<u8>,
}

/// The probe-side streaming endpoint. See the module docs for the
/// delivery discipline.
pub struct ProbeSender {
    addr: SocketAddr,
    probe: String,
    config: TransportConfig,
    stream: TcpStream,
    session: u64,
    /// Next sequence number to assign to a sequenced frame.
    next_seq: u64,
    /// Listener's cumulative ack: everything below is accepted.
    acked: u64,
    unacked: VecDeque<Unacked>,
    stats: SenderStats,
}

impl ProbeSender {
    /// Connects to a listener and opens a fresh session for `probe`.
    pub fn connect(
        addr: SocketAddr,
        probe: &str,
        config: TransportConfig,
    ) -> Result<ProbeSender, TransportError> {
        let stream = open_stream(addr, &config)?;
        let mut sender = ProbeSender {
            addr,
            probe: probe.to_string(),
            config,
            stream,
            session: 0,
            next_seq: 0,
            acked: 0,
            unacked: VecDeque::new(),
            stats: SenderStats::default(),
        };
        sender.hello(0)?;
        Ok(sender)
    }

    /// The session id the listener assigned.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Counters so far.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// Streams one window: the records in batches, then the window-end
    /// marker. Returns once every frame of the window is *sent*;
    /// acknowledgement is pipelined (bounded by `ack_window`) and fully
    /// settled in [`ProbeSender::finish`].
    pub fn send_window(
        &mut self,
        window_start_ms: u64,
        window_end_ms: u64,
        records: &[FlowRecord],
    ) -> Result<(), TransportError> {
        let chunk = self.config.batch_records.max(1);
        for slice in records.chunks(chunk) {
            let payload = WindowPayload::encode_batch(window_start_ms, window_end_ms, slice);
            self.send_sequenced(FrameType::Batch, payload)?;
        }
        let payload =
            WindowPayload::encode_end(window_start_ms, window_end_ms, records.len() as u64);
        self.send_sequenced(FrameType::WindowEnd, payload)?;
        self.stats.windows_sent += 1;
        self.stats.records_sent += records.len() as u64;
        Ok(())
    }

    /// Waits for every outstanding frame to be acknowledged, sends the
    /// orderly end-of-stream marker, and returns the final counters.
    pub fn finish(mut self) -> Result<SenderStats, TransportError> {
        self.drain_to(0)?;
        let bye = Frame::control(FrameType::Bye, self.session, 0).encode();
        self.stream.write_all(&bye)?;
        self.stats.bytes_sent += bye.len() as u64;
        Ok(self.stats)
    }

    fn send_sequenced(&mut self, kind: FrameType, payload: Vec<u8>) -> Result<(), TransportError> {
        self.drain_to(self.config.ack_window.saturating_sub(1))?;
        let seq = self.next_seq;
        self.next_seq += 1;
        let bytes = Frame {
            kind,
            session: self.session,
            seq,
            payload,
        }
        .encode();
        self.stats.frames_sent += 1;
        let write_failed = self.stream.write_all(&bytes).is_err();
        self.stats.bytes_sent += bytes.len() as u64;
        self.unacked.push_back(Unacked { seq, bytes });
        if write_failed {
            // The frame is queued; reconnect-and-resume replays it.
            self.reconnect()?;
        }
        Ok(())
    }

    /// Blocks until at most `max_unacked` sequenced frames remain
    /// outstanding, driving acks, retransmission, and reconnects.
    fn drain_to(&mut self, max_unacked: usize) -> Result<(), TransportError> {
        let mut idle_rounds: u32 = 0;
        let mut round_started = Instant::now();
        while self.unacked.len() > max_unacked {
            match frame::read_frame(&mut self.stream, self.config.max_payload) {
                Ok(f) if f.kind == FrameType::Ack => {
                    if f.seq > self.acked {
                        self.acked = f.seq;
                        while self.unacked.front().is_some_and(|u| u.seq < self.acked) {
                            self.unacked.pop_front();
                        }
                        idle_rounds = 0;
                        round_started = Instant::now();
                    }
                }
                Ok(f) if f.kind == FrameType::Reject => {
                    return Err(TransportError::Rejected(decode_reject(&f.payload)));
                }
                Ok(f) => {
                    return Err(TransportError::Protocol(format!(
                        "unexpected {:?} while waiting for acks",
                        f.kind
                    )));
                }
                Err(FrameError::Io(e))
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if round_started.elapsed() >= self.config.retransmit_timeout {
                        idle_rounds += 1;
                        if idle_rounds > self.config.max_retransmits {
                            return Err(TransportError::Exhausted {
                                unacked: self.unacked.len(),
                                detail: format!(
                                    "no ack progress past seq {} after {} rounds",
                                    self.acked,
                                    idle_rounds - 1
                                ),
                            });
                        }
                        self.retransmit()?;
                        round_started = Instant::now();
                    }
                }
                Err(FrameError::Io(_)) => {
                    self.reconnect()?;
                    round_started = Instant::now();
                }
                Err(e) => return Err(TransportError::Frame(e)),
            }
        }
        Ok(())
    }

    /// Go-back-N: rewrites every unacked frame in order.
    fn retransmit(&mut self) -> Result<(), TransportError> {
        for i in 0..self.unacked.len() {
            let bytes = self.unacked[i].bytes.clone();
            self.stats.retransmits += 1;
            self.stats.bytes_sent += bytes.len() as u64;
            if self.stream.write_all(&bytes).is_err() {
                return self.reconnect();
            }
        }
        Ok(())
    }

    /// Re-dials the listener and resumes the session: the `HelloAck`
    /// names the listener's next expected seq, acked frames below it
    /// are dropped, and the remaining suffix is replayed.
    fn reconnect(&mut self) -> Result<(), TransportError> {
        let mut last_err: Option<TransportError> = None;
        for _ in 0..self.config.max_reconnects.max(1) {
            std::thread::sleep(Duration::from_millis(10));
            let stream = match open_stream(self.addr, &self.config) {
                Ok(s) => s,
                Err(e) => {
                    last_err = Some(e);
                    continue;
                }
            };
            self.stream = stream;
            match self.hello(self.session) {
                Ok(()) => {
                    self.stats.reconnects += 1;
                    // Replay everything the listener has not accepted.
                    return self.retransmit();
                }
                Err(e @ TransportError::Rejected(_)) => return Err(e),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            TransportError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                "reconnect attempts exhausted",
            ))
        }))
    }

    /// Performs the Hello handshake on the current stream; on success
    /// the session id is (re)learned and the ack cursor advanced to the
    /// listener's resume point.
    fn hello(&mut self, resume_session: u64) -> Result<(), TransportError> {
        let hello = Hello {
            probe: self.probe.clone(),
            resume_session,
        }
        .into_frame()
        .encode();
        self.stream.write_all(&hello)?;
        self.stats.bytes_sent += hello.len() as u64;
        let deadline = Instant::now() + self.config.retransmit_timeout.max(Duration::from_secs(1));
        loop {
            match frame::read_frame(&mut self.stream, self.config.max_payload) {
                Ok(f) if f.kind == FrameType::HelloAck => {
                    self.session = f.session;
                    if f.seq > self.acked {
                        self.acked = f.seq;
                        while self.unacked.front().is_some_and(|u| u.seq < self.acked) {
                            self.unacked.pop_front();
                        }
                    }
                    return Ok(());
                }
                Ok(f) if f.kind == FrameType::Reject => {
                    return Err(TransportError::Rejected(decode_reject(&f.payload)));
                }
                Ok(f) => {
                    return Err(TransportError::Protocol(format!(
                        "expected HelloAck, got {:?}",
                        f.kind
                    )));
                }
                Err(FrameError::Io(e))
                    if (e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut)
                        && Instant::now() < deadline =>
                {
                    continue;
                }
                Err(FrameError::Io(e)) => return Err(TransportError::Io(e)),
                Err(e) => return Err(TransportError::Frame(e)),
            }
        }
    }
}

fn open_stream(addr: SocketAddr, config: &TransportConfig) -> Result<TcpStream, TransportError> {
    let stream =
        TcpStream::connect_timeout(&addr, config.write_timeout.max(Duration::from_secs(1)))?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Convenience for `rcctl probe send` and tests: connects, streams
/// `records` window by window (fixed width from `origin_ms`), and
/// finishes the session. Records are windowed by `start_ms`, matching
/// [`ReplayProbe`](crate::probe::ReplayProbe) semantics, so a wire run
/// ingests exactly what an in-process replay would: records that start
/// before `origin_ms` belong to no window and are not sent.
pub fn stream_records(
    addr: SocketAddr,
    probe: &str,
    records: &[FlowRecord],
    origin_ms: u64,
    window_ms: u64,
    config: TransportConfig,
) -> Result<SenderStats, TransportError> {
    let window_ms = window_ms.max(1);
    let mut sorted: Vec<FlowRecord> = records.to_vec();
    sorted.sort_by_key(|r| r.start_ms);
    let mut sender = ProbeSender::connect(addr, probe, config)?;
    let mut start = origin_ms;
    let mut idx = sorted.partition_point(|r| r.start_ms < origin_ms);
    while idx < sorted.len() {
        let end = start + window_ms;
        let hi = sorted.partition_point(|r| r.start_ms < end);
        // Empty leading windows still get their end marker, so the
        // listener can classify them as empty instead of timing out.
        sender.send_window(start, end, &sorted[idx..hi])?;
        idx = hi;
        start = end;
    }
    sender.finish()
}

#[cfg(test)]
mod tests {
    use super::super::listener::WireListener;
    use super::*;
    use crate::probe::Probe;
    use flow::HostAddr;

    fn trace(n: u64) -> Vec<FlowRecord> {
        (0..n)
            .map(|i| {
                let mut f = FlowRecord::pair(HostAddr::v4(i as u32), HostAddr::v4(1000));
                f.start_ms = i * 100;
                f.end_ms = i * 100 + 50;
                f
            })
            .collect()
    }

    #[test]
    fn sender_streams_windows_end_to_end() {
        let cfg = TransportConfig::fast();
        let listener = WireListener::bind("127.0.0.1:0", cfg.clone(), None, None).unwrap();
        let mut probe = listener.probe("edge-1");
        let records = trace(25);

        let addr = listener.local_addr();
        let send_cfg = cfg.clone();
        let send_records = records.clone();
        let sender = std::thread::spawn(move || {
            stream_records(addr, "edge-1", &send_records, 0, 1000, send_cfg).unwrap()
        });

        let mut got = Vec::new();
        for w in 0..3 {
            got.extend(probe.poll(w * 1000, (w + 1) * 1000).unwrap());
        }
        assert_eq!(got, records);
        let stats = sender.join().unwrap();
        assert_eq!(stats.windows_sent, 3);
        assert_eq!(stats.records_sent, 25);
        assert_eq!(stats.retransmits, 0);
        // Bye is fire-and-forget; wait for the horizon to land.
        let t0 = std::time::Instant::now();
        while probe.horizon_ms().is_none() && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(probe.horizon_ms(), Some(3000));
    }

    #[test]
    fn records_before_the_origin_are_not_sent() {
        let cfg = TransportConfig::fast();
        let listener = WireListener::bind("127.0.0.1:0", cfg.clone(), None, None).unwrap();
        let mut probe = listener.probe("edge-1");
        // Records start every 100 ms from 0; the origin drops the first 5.
        let records = trace(15);
        let addr = listener.local_addr();
        let send_records = records.clone();
        let sender = std::thread::spawn(move || {
            stream_records(addr, "edge-1", &send_records, 500, 1000, cfg).unwrap()
        });
        assert_eq!(probe.poll(500, 1500).unwrap(), records[5..]);
        let stats = sender.join().unwrap();
        assert_eq!(stats.records_sent, 10);
        assert_eq!(stats.windows_sent, 1);
    }

    #[test]
    fn small_batches_pipeline_through_the_ack_window() {
        let mut cfg = TransportConfig::fast();
        cfg.batch_records = 2; // force many sequenced frames per window
        cfg.ack_window = 3;
        let listener = WireListener::bind("127.0.0.1:0", cfg.clone(), None, None).unwrap();
        let mut probe = listener.probe("edge-1");
        let records = trace(9); // all inside one window

        let addr = listener.local_addr();
        let send_records = records.clone();
        let sender = std::thread::spawn(move || {
            stream_records(addr, "edge-1", &send_records, 0, 10_000, cfg).unwrap()
        });
        assert_eq!(probe.poll(0, 10_000).unwrap(), records);
        let stats = sender.join().unwrap();
        // 9 records / 2 per batch = 5 batches + 1 window end.
        assert_eq!(stats.frames_sent, 6);
    }

    #[test]
    fn exhaustion_is_reported_when_nothing_acks() {
        // A raw TCP sink that never acks: the sender must give up with
        // Exhausted, not hang.
        let sink = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = sink.local_addr().unwrap();
        let sink_thread = std::thread::spawn(move || {
            // Accept and read the hello, answer it, then go silent.
            let (mut s, _) = sink.accept().unwrap();
            let hello = frame::read_frame(&mut s, 4 << 20).unwrap();
            assert_eq!(hello.kind, FrameType::Hello);
            s.write_all(&Frame::control(FrameType::HelloAck, 1, 0).encode())
                .unwrap();
            // Swallow everything else until the peer gives up.
            let mut buf = [0u8; 4096];
            use std::io::Read;
            while matches!(s.read(&mut buf), Ok(n) if n > 0) {}
        });

        let mut cfg = TransportConfig::fast();
        cfg.retransmit_timeout = Duration::from_millis(30);
        cfg.max_retransmits = 2;
        cfg.max_reconnects = 1;
        let mut sender = ProbeSender::connect(addr, "edge-1", cfg).unwrap();
        let err = sender
            .send_window(0, 1000, &trace(3))
            .and_then(|()| sender.finish().map(|_| ()))
            .unwrap_err();
        assert!(
            matches!(err, TransportError::Exhausted { .. }),
            "expected Exhausted, got {err:?}"
        );
        drop(sink_thread); // detached: the sink exits when the socket closes
    }
}
