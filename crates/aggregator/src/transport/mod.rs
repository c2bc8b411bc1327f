//! The probe→aggregator wire transport.
//!
//! Turns the in-process [`Probe`](crate::Probe) edge into a real
//! network boundary with the same fault-tolerance discipline the
//! supervisor applies to polling. Three pieces:
//!
//! * [`frame`] — the zero-dependency, length-prefixed frame codec
//!   (versioned header, frame types, u64 session + sequence numbers,
//!   FNV-1a payload checksum).
//! * [`listener`] — the aggregator side: a [`WireListener`] accepts
//!   probe connections, runs per-probe sessions with read/write
//!   deadlines, a liveness timeout, duplicate/sequence-gap handling
//!   and resume-from-last-acked-seq on reconnect, and exposes each
//!   session as a [`WireProbe`] that plugs into the existing
//!   supervisor/quarantine/`WindowHealth` machinery unchanged.
//! * [`sender`] — the probe side: a [`ProbeSender`] streams window
//!   batches with cumulative acks, go-back-N retransmission, and
//!   reconnect-with-resume, so a transport fault never loses or
//!   double-counts an accepted record.
//!
//! The degradation ladder (documented in DESIGN.md §9, "Wire fault
//! model"): retransmission absorbs transient loss; reconnect + resume
//! absorbs connection death; a session that cannot resume is failed,
//! which the [`WireProbe`] reports as a fatal poll error, sending the
//! probe down the existing quarantine path while the window classifies
//! degraded instead of aborting.

pub mod frame;
pub mod listener;
pub mod sender;

pub use frame::{Frame, FrameError, FrameType, Hello, WindowPayload};
pub use listener::{WireListener, WireProbe};
pub use sender::{stream_records, ProbeSender, SenderStats, TransportError};

use std::time::Duration;

/// Every metric the transport layer registers, in sorted order; checked
/// by the workspace metric-name lint.
pub const TRANSPORT_METRIC_NAMES: &[&str] = &[
    "roleclass_transport_acks_sent_total",
    "roleclass_transport_bytes_received_total",
    "roleclass_transport_decode_errors_total",
    "roleclass_transport_duplicate_frames_total",
    "roleclass_transport_frames_received_total",
    "roleclass_transport_gap_frames_total",
    "roleclass_transport_heartbeats_received_total",
    "roleclass_transport_sessions_opened_total",
    "roleclass_transport_sessions_rejected_total",
    "roleclass_transport_sessions_resumed_total",
    "roleclass_transport_windows_completed_total",
];

/// Every structured event the transport layer emits (`transport`
/// layer in the journal), in sorted order; checked by the workspace
/// event-name lint.
pub const TRANSPORT_EVENT_NAMES: &[&str] = &[
    "roleclass_transport_probe_session_closed",
    "roleclass_transport_probe_session_opened",
    "roleclass_transport_probe_session_rejected",
    "roleclass_transport_probe_session_resumed",
    "roleclass_transport_sequence_gap",
    "roleclass_transport_window_received",
];

/// Tuning knobs shared by both ends of the wire. The defaults suit a
/// LAN deployment; tests shrink the timeouts to keep chaos runs fast.
#[derive(Clone, Debug)]
pub struct TransportConfig {
    /// Largest accepted frame payload; bigger length fields are
    /// rejected before any allocation.
    pub max_payload: u32,
    /// Per-read deadline on sockets (both ends). Bounds how long any
    /// blocking read can stall.
    pub read_timeout: Duration,
    /// Per-write deadline on sockets (both ends).
    pub write_timeout: Duration,
    /// Listener: a connection silent for longer than this (no frame of
    /// any type) is dropped; the session stays resumable.
    pub liveness_timeout: Duration,
    /// Listener: how long a [`WireProbe`]'s
    /// [`poll`](crate::probe::Probe::poll) waits for its window to
    /// complete before reporting a transient failure to the supervisor.
    pub poll_timeout: Duration,
    /// Sender: records per [`FrameType::Batch`] frame.
    pub batch_records: usize,
    /// Sender: max sequenced frames in flight before waiting for acks.
    pub ack_window: usize,
    /// Sender: interval of ack silence after which every unacked frame
    /// is retransmitted (go-back-N).
    pub retransmit_timeout: Duration,
    /// Sender: consecutive no-progress retransmission rounds tolerated
    /// before the sender gives up on the session.
    pub max_retransmits: u32,
    /// Sender: reconnect attempts (with resume) before giving up.
    pub max_reconnects: u32,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            max_payload: 4 << 20,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            liveness_timeout: Duration::from_secs(30),
            poll_timeout: Duration::from_secs(30),
            batch_records: 4096,
            ack_window: 8,
            retransmit_timeout: Duration::from_millis(500),
            max_retransmits: 10,
            max_reconnects: 4,
        }
    }
}

impl TransportConfig {
    /// A configuration with short deadlines for tests and loopback
    /// benches: failures surface in tens of milliseconds instead of
    /// seconds, without changing any protocol behavior.
    pub fn fast() -> Self {
        TransportConfig {
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_millis(500),
            liveness_timeout: Duration::from_secs(5),
            poll_timeout: Duration::from_secs(5),
            retransmit_timeout: Duration::from_millis(100),
            ..TransportConfig::default()
        }
    }
}
