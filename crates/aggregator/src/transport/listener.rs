//! The aggregator side of the wire: sessions, liveness, resume, and the
//! [`WireProbe`] bridge into supervised ingestion.
//!
//! A [`WireListener`] accepts TCP connections from probe senders. Each
//! connection is handshaken ([`FrameType::Hello`] → [`FrameType::HelloAck`]
//! or [`FrameType::Reject`]) onto a per-probe *session*: the unit of
//! exactly-once delivery. Sessions survive connection death — a sender
//! that reconnects with its session id resumes from the listener's next
//! expected sequence number, so nothing already accepted is re-counted
//! and nothing in flight is lost. A sender that *cannot* resume (it
//! lost its state, or names an unknown session) is rejected, and the
//! session is marked failed: the corresponding [`WireProbe`] reports a
//! fatal poll error, which sends the probe down the supervisor's
//! existing quarantine path while the window classifies degraded.
//!
//! Frame handling is deliberately go-back-N: a duplicate (seq below the
//! cursor) is dropped and re-acked; a gap (seq above the cursor) is
//! dropped and the cumulative ack repeated, prompting the sender to
//! retransmit from the cursor. Out-of-order delivery therefore costs
//! retransmission, never correctness.

use super::frame::{self, encode_reject, Frame, FrameError, FrameType, Hello, WindowPayload};
use super::TransportConfig;
use crate::flight::{FlightRecorder, Observer};
use crate::probe::{Probe, ProbeError};
use flow::FlowRecord;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::{FieldValue, Recorder};

/// One window's accumulating records on the listener.
#[derive(Debug, Default)]
struct WindowBuf {
    records: Vec<FlowRecord>,
    complete: bool,
}

/// One probe's session: the exactly-once delivery state.
#[derive(Debug)]
struct Session {
    id: u64,
    /// Next sequence number expected; everything below is accepted.
    next_seq: u64,
    /// Per-window record buffers, keyed by `(start_ms, end_ms)`.
    windows: BTreeMap<(u64, u64), WindowBuf>,
    /// Sequenced frames accepted over the session's lifetime.
    frames_accepted: u64,
    /// Set on orderly [`FrameType::Bye`]: no more data will arrive.
    ended: bool,
    /// One past the last completed window's end; the probe's horizon
    /// once the session has ended.
    horizon_ms: u64,
    /// Set when the session is unrecoverable (failed resume, protocol
    /// violation). [`WireProbe::poll`] converts it to a fatal error.
    failed: Option<String>,
}

/// Listener-wide shared state, behind one mutex + condvar so
/// [`WireProbe::poll`] can block until its window lands.
struct State {
    sessions: HashMap<String, Session>,
    next_session_id: u64,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    config: TransportConfig,
    observer: Observer,
    shutdown: AtomicBool,
}

fn lock<'a>(m: &'a Mutex<State>) -> MutexGuard<'a, State> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    /// Journals one `transport`-layer event to the attached observers.
    fn emit(&self, name: &'static str, fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>) {
        self.observer.event("transport", name, fields);
    }

    fn count(&self, name: &'static str, n: u64) {
        if let Some(r) = &self.observer.recorder {
            r.registry().counter(name).add(n);
        }
    }
}

/// The aggregator-side listener. Binding spawns an accept thread; each
/// connection gets its own handler thread with read/write deadlines.
/// Attach one [`WireProbe`] per expected probe name to an
/// [`Aggregator`](crate::Aggregator) and the rest of the pipeline —
/// supervision, quarantine, `WindowHealth`, provenance — works
/// unchanged.
pub struct WireListener {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl WireListener {
    /// Binds `addr` (port 0 picks an ephemeral port) and starts
    /// accepting probe connections. The recorder/flight pair is
    /// optional, as everywhere else: detached listeners do no
    /// observability work.
    pub fn bind(
        addr: &str,
        config: TransportConfig,
        recorder: Option<Arc<Recorder>>,
        flight: Option<Arc<FlightRecorder>>,
    ) -> io::Result<WireListener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                sessions: HashMap::new(),
                next_session_id: 1,
            }),
            cv: Condvar::new(),
            config,
            observer: Observer { recorder, flight },
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(WireListener {
            shared,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The actually-bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A [`Probe`] view of one probe name's session, ready to attach to
    /// an aggregator. May be created before the probe ever connects;
    /// polls wait (bounded by `poll_timeout`) for data to arrive.
    pub fn probe(&self, name: &str) -> WireProbe {
        WireProbe {
            name: name.to_string(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops accepting and wakes every blocked poll. Handler threads
    /// notice within one read deadline and exit.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
    }
}

impl Drop for WireListener {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &conn_shared);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Outcome of the Hello handshake.
enum Handshake {
    /// Session opened or resumed: `(session id, next expected seq)`.
    Accepted(u64, u64),
    /// Rejected with a reason (already emitted/counted).
    Rejected(String),
}

fn handshake(shared: &Shared, hello: &Hello) -> Handshake {
    let mut state = lock(&shared.state);
    let existing = state.sessions.get_mut(&hello.probe);
    match (hello.resume_session, existing) {
        // Fresh session, none (or only a cleanly-ended one) in place.
        (0, None) => {}
        (0, Some(s)) if s.ended || s.failed.is_some() => {}
        // A live session exists but the sender starts from scratch: it
        // lost its delivery state, so accepted-exactly-once can no
        // longer be guaranteed. Fail the session; quarantine follows.
        (0, Some(s)) => {
            let reason = "probe restarted without session state; cannot resume".to_string();
            s.failed = Some(reason.clone());
            drop(state);
            shared.cv.notify_all();
            return Handshake::Rejected(reason);
        }
        // Resume of the session this listener is holding open.
        (id, Some(s)) if s.id == id && s.failed.is_none() && !s.ended => {
            let next = s.next_seq;
            drop(state);
            return Handshake::Accepted(id, next);
        }
        // Resume of something else: unknown id, ended, or failed.
        (_, _) => {
            return Handshake::Rejected("unknown or unresumable session".to_string());
        }
    }
    let id = state.next_session_id;
    state.next_session_id += 1;
    state.sessions.insert(
        hello.probe.clone(),
        Session {
            id,
            next_seq: 0,
            windows: BTreeMap::new(),
            frames_accepted: 0,
            ended: false,
            horizon_ms: 0,
            failed: None,
        },
    );
    Handshake::Accepted(id, 0)
}

fn write_frame(stream: &mut TcpStream, frame: &Frame) -> io::Result<()> {
    stream.write_all(&frame.encode())
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_read_timeout(Some(shared.config.read_timeout))?;
    stream.set_write_timeout(Some(shared.config.write_timeout))?;
    stream.set_nodelay(true)?;

    // The first frame must be a Hello; anything else desynchronizes the
    // connection and it is dropped without a session.
    let hello = loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match frame::read_frame(&mut stream, shared.config.max_payload) {
            Ok(f) if f.kind == FrameType::Hello => match Hello::from_payload(&f.payload) {
                Ok(h) => break h,
                Err(_) => {
                    shared.count("roleclass_transport_decode_errors_total", 1);
                    return Ok(());
                }
            },
            Ok(_) => return Ok(()),
            Err(FrameError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(FrameError::Io(_)) => return Ok(()),
            Err(_) => {
                shared.count("roleclass_transport_decode_errors_total", 1);
                return Ok(());
            }
        }
    };

    let probe = hello.probe.clone();
    let (session_id, next_seq) = match handshake(shared, &hello) {
        Handshake::Accepted(id, next) => {
            if hello.resume_session == 0 {
                shared.count("roleclass_transport_sessions_opened_total", 1);
                shared.emit("roleclass_transport_probe_session_opened", || {
                    vec![("probe", probe.as_str().into()), ("session", id.into())]
                });
            } else {
                shared.count("roleclass_transport_sessions_resumed_total", 1);
                shared.emit("roleclass_transport_probe_session_resumed", || {
                    vec![
                        ("probe", probe.as_str().into()),
                        ("session", id.into()),
                        ("resume_seq", next.into()),
                    ]
                });
            }
            (id, next)
        }
        Handshake::Rejected(reason) => {
            shared.count("roleclass_transport_sessions_rejected_total", 1);
            shared.emit("roleclass_transport_probe_session_rejected", || {
                vec![
                    ("probe", probe.as_str().into()),
                    ("reason", reason.as_str().into()),
                ]
            });
            let mut reject = Frame::control(FrameType::Reject, hello.resume_session, 0);
            reject.payload = encode_reject(&reason);
            let _ = write_frame(&mut stream, &reject);
            return Ok(());
        }
    };
    write_frame(
        &mut stream,
        &Frame::control(FrameType::HelloAck, session_id, next_seq),
    )?;

    let mut last_frame_at = Instant::now();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let frame = match frame::read_frame(&mut stream, shared.config.max_payload) {
            Ok(f) => f,
            Err(FrameError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if last_frame_at.elapsed() > shared.config.liveness_timeout {
                    // Dead air past the liveness budget: drop the
                    // connection. The session stays resumable.
                    return Ok(());
                }
                continue;
            }
            Err(FrameError::Io(_)) => return Ok(()),
            Err(_) => {
                // Protocol-level garbage (bad magic, checksum, torn
                // frame): the stream is desynchronized. Drop the
                // connection; the sender reconnects and resumes.
                shared.count("roleclass_transport_decode_errors_total", 1);
                return Ok(());
            }
        };
        last_frame_at = Instant::now();
        shared.count("roleclass_transport_frames_received_total", 1);
        shared.count(
            "roleclass_transport_bytes_received_total",
            (frame::HEADER_LEN + frame.payload.len()) as u64,
        );

        match frame.kind {
            FrameType::Heartbeat => {
                shared.count("roleclass_transport_heartbeats_received_total", 1);
            }
            FrameType::Bye => {
                let mut state = lock(&shared.state);
                let frames = if let Some(s) = state.sessions.get_mut(&probe) {
                    s.ended = true;
                    s.frames_accepted
                } else {
                    0
                };
                drop(state);
                shared.cv.notify_all();
                shared.emit("roleclass_transport_probe_session_closed", || {
                    vec![
                        ("probe", probe.as_str().into()),
                        ("session", session_id.into()),
                        ("frames", frames.into()),
                    ]
                });
                return Ok(());
            }
            FrameType::Batch | FrameType::WindowEnd => {
                match accept_sequenced(shared, &probe, &frame) {
                    Sequenced::Accepted(ack) | Sequenced::Duplicate(ack) | Sequenced::Gap(ack) => {
                        shared.count("roleclass_transport_acks_sent_total", 1);
                        write_frame(
                            &mut stream,
                            &Frame::control(FrameType::Ack, session_id, ack),
                        )?;
                    }
                    Sequenced::Failed => return Ok(()),
                }
            }
            // Client-side frame types have no business arriving here;
            // treat them as desynchronization.
            FrameType::Hello | FrameType::HelloAck | FrameType::Ack | FrameType::Reject => {
                shared.count("roleclass_transport_decode_errors_total", 1);
                return Ok(());
            }
        }
    }
}

enum Sequenced {
    /// Frame applied; ack cursor to send.
    Accepted(u64),
    /// Already-accepted seq re-delivered; re-ack.
    Duplicate(u64),
    /// Future seq arrived early; dropped, cumulative ack repeated.
    Gap(u64),
    /// The session failed (protocol violation); drop the connection.
    Failed,
}

/// Applies one sequenced frame to its session under the go-back-N
/// discipline, emitting events outside the lock via collected work.
fn accept_sequenced(shared: &Shared, probe: &str, frame: &Frame) -> Sequenced {
    // Decode before taking the lock; a bad payload is a session-fatal
    // protocol violation (the checksum already passed, so this is a
    // sender bug, not line noise).
    let payload = match frame.kind {
        FrameType::Batch => WindowPayload::decode_batch(&frame.payload),
        _ => WindowPayload::decode_end(&frame.payload),
    };

    let mut state = lock(&shared.state);
    let Some(sess) = state.sessions.get_mut(probe) else {
        return Sequenced::Failed;
    };
    if frame.seq < sess.next_seq {
        let ack = sess.next_seq;
        drop(state);
        shared.count("roleclass_transport_duplicate_frames_total", 1);
        return Sequenced::Duplicate(ack);
    }
    if frame.seq > sess.next_seq {
        let (expected, ack) = (sess.next_seq, sess.next_seq);
        drop(state);
        shared.count("roleclass_transport_gap_frames_total", 1);
        shared.emit("roleclass_transport_sequence_gap", || {
            vec![
                ("probe", probe.into()),
                ("expected", expected.into()),
                ("got", frame.seq.into()),
            ]
        });
        return Sequenced::Gap(ack);
    }
    let wp = match payload {
        Ok(wp) => wp,
        Err(e) => {
            sess.failed = Some(format!("protocol violation: {e}"));
            drop(state);
            shared.cv.notify_all();
            return Sequenced::Failed;
        }
    };
    sess.next_seq += 1;
    sess.frames_accepted += 1;
    let key = (wp.window_start_ms, wp.window_end_ms);
    let buf = sess.windows.entry(key).or_default();
    let mut completed = None;
    match frame.kind {
        FrameType::Batch => buf.records.extend(wp.records),
        _ => {
            if buf.records.len() as u64 != wp.records_total {
                let msg = format!(
                    "window [{}, {}) closed with {} records, {} delivered",
                    key.0,
                    key.1,
                    wp.records_total,
                    buf.records.len()
                );
                sess.failed = Some(msg);
                drop(state);
                shared.cv.notify_all();
                return Sequenced::Failed;
            }
            buf.complete = true;
            completed = Some(buf.records.len() as u64);
            sess.horizon_ms = sess.horizon_ms.max(key.1);
        }
    }
    let ack = sess.next_seq;
    drop(state);
    if let Some(records) = completed {
        shared.count("roleclass_transport_windows_completed_total", 1);
        shared.emit("roleclass_transport_window_received", || {
            vec![
                ("probe", probe.into()),
                ("window_start_ms", key.0.into()),
                ("window_end_ms", key.1.into()),
                ("records", records.into()),
            ]
        });
        shared.cv.notify_all();
    }
    Sequenced::Accepted(ack)
}

/// A [`Probe`] backed by one wire session. Polls block (bounded by
/// `poll_timeout`) until the sender has delivered and closed the
/// requested window, then hand the records to the supervisor exactly
/// as an in-process probe would:
///
/// * window complete → `Ok(records)` — delivered exactly once;
/// * deadline passed → [`ProbeError::Transient`], retried/degraded by
///   the supervisor like any flaky device;
/// * session failed (resume rejected, protocol violation) →
///   [`ProbeError::Fatal`] — the existing quarantine path.
pub struct WireProbe {
    name: String,
    shared: Arc<Shared>,
}

impl Probe for WireProbe {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, from_ms: u64, to_ms: u64) -> Result<Vec<FlowRecord>, ProbeError> {
        let deadline = Instant::now() + self.shared.config.poll_timeout;
        let mut state = lock(&self.shared.state);
        loop {
            if let Some(sess) = state.sessions.get_mut(&self.name) {
                if let Some(msg) = &sess.failed {
                    return Err(ProbeError::Fatal(msg.clone()));
                }
                if sess
                    .windows
                    .get(&(from_ms, to_ms))
                    .is_some_and(|b| b.complete)
                {
                    let buf = sess.windows.remove(&(from_ms, to_ms)).unwrap_or_default();
                    return Ok(buf.records);
                }
                if sess.ended {
                    // No more frames will ever arrive. An absent window
                    // simply had no records; a partial one means the
                    // sender died mid-window and ended anyway.
                    return match sess.windows.get(&(from_ms, to_ms)) {
                        None => Ok(Vec::new()),
                        Some(_) => Err(ProbeError::Fatal(format!(
                            "session ended with window [{from_ms}, {to_ms}) incomplete"
                        ))),
                    };
                }
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Err(ProbeError::Fatal("listener shut down".to_string()));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ProbeError::Transient(format!(
                    "window [{from_ms}, {to_ms}) not delivered within {:?}",
                    self.shared.config.poll_timeout
                )));
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }

    fn horizon_ms(&self) -> Option<u64> {
        let state = lock(&self.shared.state);
        state
            .sessions
            .get(&self.name)
            .and_then(|s| s.ended.then_some(s.horizon_ms))
    }

    /// Waits (bounded by `poll_timeout`) until the open session settles
    /// it: a window at or past `from_ms` has arrived (pending), or the
    /// session ended (pending only below its final horizon). No session
    /// yet, a failed one, a shutdown or the deadline count as pending,
    /// so the window's poll waits for the sender or reports the failure
    /// as it always has.
    fn pending_from(&self, from_ms: u64) -> bool {
        let deadline = Instant::now() + self.shared.config.poll_timeout;
        let mut state = lock(&self.shared.state);
        loop {
            let Some(sess) = state.sessions.get(&self.name) else {
                return true;
            };
            if sess.failed.is_some() {
                return true;
            }
            if sess.ended {
                return sess.horizon_ms > from_ms;
            }
            if sess.windows.range((from_ms, 0)..).next().is_some() {
                return true;
            }
            let now = Instant::now();
            if self.shared.shutdown.load(Ordering::SeqCst) || now >= deadline {
                return true;
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Handshake + window delivery + poll, all in-process over loopback,
    /// driving the socket by hand (the full sender has its own tests).
    #[test]
    fn listener_accepts_a_hand_driven_session() {
        let cfg = TransportConfig::fast();
        let listener = WireListener::bind("127.0.0.1:0", cfg.clone(), None, None).unwrap();
        let addr = listener.local_addr();
        let mut probe = listener.probe("edge-1");

        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let hello = Hello {
            probe: "edge-1".into(),
            resume_session: 0,
        };
        s.write_all(&hello.into_frame().encode()).unwrap();
        let ack = frame::read_frame(&mut s, cfg.max_payload).unwrap();
        assert_eq!(ack.kind, FrameType::HelloAck);
        assert_eq!(ack.seq, 0);
        let session = ack.session;

        let records: Vec<FlowRecord> = (0..4)
            .map(|i| {
                let mut f = FlowRecord::pair(flow::HostAddr::v4(i), flow::HostAddr::v4(i + 10));
                f.start_ms = u64::from(i);
                f
            })
            .collect();
        let batch = Frame {
            kind: FrameType::Batch,
            session,
            seq: 0,
            payload: WindowPayload::encode_batch(0, 1000, &records),
        };
        s.write_all(&batch.encode()).unwrap();
        assert_eq!(frame::read_frame(&mut s, cfg.max_payload).unwrap().seq, 1);
        // Duplicate delivery of the same seq: re-acked, not re-counted.
        s.write_all(&batch.encode()).unwrap();
        assert_eq!(frame::read_frame(&mut s, cfg.max_payload).unwrap().seq, 1);
        let end = Frame {
            kind: FrameType::WindowEnd,
            session,
            seq: 1,
            payload: WindowPayload::encode_end(0, 1000, 4),
        };
        s.write_all(&end.encode()).unwrap();
        assert_eq!(frame::read_frame(&mut s, cfg.max_payload).unwrap().seq, 2);

        let got = probe.poll(0, 1000).unwrap();
        assert_eq!(got, records);

        assert_eq!(probe.horizon_ms(), None);
        s.write_all(&Frame::control(FrameType::Bye, session, 0).encode())
            .unwrap();
        // Bye is fire-and-forget; wait for the horizon to land.
        let t0 = Instant::now();
        while probe.horizon_ms().is_none() && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(probe.horizon_ms(), Some(1000));
        // Windows past the horizon were never sent: empty, not an error.
        assert_eq!(probe.poll(1000, 2000).unwrap(), Vec::new());
    }

    /// The drain loop decides whether another window exists before it
    /// runs one. Here the sender ends its session only after the first
    /// window has been classified: the loop must wait for that end, not
    /// poll — and persist — a window the sender never sent.
    #[test]
    fn session_end_decides_whether_another_window_runs() {
        use crate::store::TempStack;
        use crate::{Aggregator, AggregatorConfig, SupervisorConfig};

        let cfg = TransportConfig::fast();
        let listener = WireListener::bind("127.0.0.1:0", cfg.clone(), None, None).unwrap();
        let stack = TempStack::open("listener-session-end");
        let runs = Arc::clone(stack.runs());
        let mut agg = Aggregator::new(AggregatorConfig {
            window_ms: 1000,
            min_flows: 1,
            supervisor: SupervisorConfig::immediate(),
            ..AggregatorConfig::default()
        })
        .with_run_store(Arc::clone(&runs));
        agg.attach(Box::new(listener.probe("edge-1")));

        let mut s = TcpStream::connect(listener.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let hello = Hello {
            probe: "edge-1".into(),
            resume_session: 0,
        };
        s.write_all(&hello.into_frame().encode()).unwrap();
        let session = frame::read_frame(&mut s, cfg.max_payload).unwrap().session;
        let records: Vec<FlowRecord> = (0..4)
            .map(|i| FlowRecord::pair(flow::HostAddr::v4(i), flow::HostAddr::v4(i + 10)))
            .collect();
        for (seq, kind, payload) in [
            (
                0,
                FrameType::Batch,
                WindowPayload::encode_batch(0, 1000, &records),
            ),
            (
                1,
                FrameType::WindowEnd,
                WindowPayload::encode_end(0, 1000, 4),
            ),
        ] {
            let frame = Frame {
                kind,
                session,
                seq,
                payload,
            };
            s.write_all(&frame.encode()).unwrap();
            assert_eq!(
                frame::read_frame(&mut s, cfg.max_payload).unwrap().seq,
                seq + 1
            );
        }

        // `cli::pipeline`'s loop, with the end of the session held back
        // until its first window is done.
        assert!(agg.has_pending_data());
        agg.run_cycle();
        let bye = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            s.write_all(&Frame::control(FrameType::Bye, session, 0).encode())
                .unwrap();
            s
        });
        while agg.has_pending_data() {
            agg.run_cycle();
        }
        drop(bye.join().unwrap());

        assert_eq!(agg.history().read().len(), 1);
        assert_eq!(runs.len().unwrap(), 1);
    }

    #[test]
    fn poll_times_out_transient_without_a_sender() {
        let mut cfg = TransportConfig::fast();
        cfg.poll_timeout = Duration::from_millis(50);
        let listener = WireListener::bind("127.0.0.1:0", cfg, None, None).unwrap();
        let mut probe = listener.probe("never-connects");
        let err = probe.poll(0, 1000).unwrap_err();
        assert!(err.is_transient(), "expected transient, got {err:?}");
    }

    #[test]
    fn fresh_hello_over_live_session_fails_it() {
        let cfg = TransportConfig::fast();
        let listener = WireListener::bind("127.0.0.1:0", cfg.clone(), None, None).unwrap();
        let addr = listener.local_addr();
        let mut probe = listener.probe("edge-1");

        let mut s1 = TcpStream::connect(addr).unwrap();
        s1.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let hello = Hello {
            probe: "edge-1".into(),
            resume_session: 0,
        };
        s1.write_all(&hello.clone().into_frame().encode()).unwrap();
        assert_eq!(
            frame::read_frame(&mut s1, cfg.max_payload).unwrap().kind,
            FrameType::HelloAck
        );

        // The "same" probe reconnects with no session state: rejected,
        // and the live session is failed → fatal poll → quarantine path.
        let mut s2 = TcpStream::connect(addr).unwrap();
        s2.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s2.write_all(&hello.into_frame().encode()).unwrap();
        let reply = frame::read_frame(&mut s2, cfg.max_payload).unwrap();
        assert_eq!(reply.kind, FrameType::Reject);
        assert!(frame::decode_reject(&reply.payload).contains("cannot resume"));

        let err = probe.poll(0, 1000).unwrap_err();
        assert!(!err.is_transient(), "expected fatal, got {err:?}");
    }

    #[test]
    fn resume_continues_at_next_expected_seq() {
        let cfg = TransportConfig::fast();
        let listener = WireListener::bind("127.0.0.1:0", cfg.clone(), None, None).unwrap();
        let addr = listener.local_addr();

        let mut s1 = TcpStream::connect(addr).unwrap();
        s1.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s1.write_all(
            &Hello {
                probe: "edge-1".into(),
                resume_session: 0,
            }
            .into_frame()
            .encode(),
        )
        .unwrap();
        let ack = frame::read_frame(&mut s1, cfg.max_payload).unwrap();
        let session = ack.session;
        let batch = Frame {
            kind: FrameType::Batch,
            session,
            seq: 0,
            payload: WindowPayload::encode_batch(0, 1000, &[]),
        };
        s1.write_all(&batch.encode()).unwrap();
        assert_eq!(frame::read_frame(&mut s1, cfg.max_payload).unwrap().seq, 1);
        drop(s1); // connection dies mid-window

        let mut s2 = TcpStream::connect(addr).unwrap();
        s2.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s2.write_all(
            &Hello {
                probe: "edge-1".into(),
                resume_session: session,
            }
            .into_frame()
            .encode(),
        )
        .unwrap();
        let ack = frame::read_frame(&mut s2, cfg.max_payload).unwrap();
        assert_eq!(ack.kind, FrameType::HelloAck);
        assert_eq!(ack.session, session);
        assert_eq!(ack.seq, 1, "resume point is the next expected seq");

        // Resuming an unknown session is rejected.
        let mut s3 = TcpStream::connect(addr).unwrap();
        s3.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s3.write_all(
            &Hello {
                probe: "other".into(),
                resume_session: 99,
            }
            .into_frame()
            .encode(),
        )
        .unwrap();
        let reply = frame::read_frame(&mut s3, cfg.max_payload).unwrap();
        assert_eq!(reply.kind, FrameType::Reject);
    }
}
