//! Probes: sources of flow observations.
//!
//! In the paper's deployment, probes are devices "attached to" network
//! links that "analyze packets ... and send relevant information
//! (including IP address/port tuples) to the aggregator". Here a probe
//! is anything that can deliver batches of [`FlowRecord`]s in time
//! order; [`ReplayProbe`] adapts a recorded (or synthesized) trace.
//!
//! Real capture devices fail: links flap, export sockets reset, devices
//! reboot mid-window. [`Probe::poll`] is therefore fallible, and the
//! error type distinguishes transient conditions (worth retrying) from
//! fatal ones (the probe is gone). Retry/backoff and health tracking
//! live in [`crate::supervisor`], not in probe implementations.

use flow::FlowRecord;
use std::fmt;

/// Why a poll failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProbeError {
    /// A transient condition — timeout, connection reset, device busy.
    /// Retrying the same window may succeed.
    Transient(String),
    /// The probe is permanently unusable — device decommissioned,
    /// unrecoverable protocol error. Retrying cannot help.
    Fatal(String),
}

impl ProbeError {
    /// Returns `true` for errors where a retry may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, ProbeError::Transient(_))
    }
}

impl fmt::Display for ProbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeError::Transient(msg) => write!(f, "transient probe failure: {msg}"),
            ProbeError::Fatal(msg) => write!(f, "fatal probe failure: {msg}"),
        }
    }
}

impl std::error::Error for ProbeError {}

/// A source of flow observations.
pub trait Probe {
    /// Stable name, for attribution in logs and alerts.
    fn name(&self) -> &str;

    /// Delivers all records with `start_ms` in `[from_ms, to_ms)`, or an
    /// error if the window could not be (fully) captured. Implementations
    /// must not return partial data alongside an error — a failed poll
    /// delivers nothing, so the supervisor can retry the whole window.
    fn poll(&mut self, from_ms: u64, to_ms: u64) -> Result<Vec<FlowRecord>, ProbeError>;

    /// Timestamp one past the last record this probe can ever deliver,
    /// or `None` if unknown/unbounded.
    fn horizon_ms(&self) -> Option<u64>;

    /// Whether a poll from `from_ms` on may still deliver records: the
    /// drain loop's decision to run another window. The default reads
    /// [`horizon_ms`](Probe::horizon_ms), an unknown horizon counting as
    /// pending. A probe whose horizon a live peer decides later may wait
    /// here, bounded, until it knows.
    fn pending_from(&self, from_ms: u64) -> bool {
        self.horizon_ms().is_none_or(|h| h > from_ms)
    }
}

/// A probe that replays a pre-recorded trace.
#[derive(Clone, Debug)]
pub struct ReplayProbe {
    name: String,
    /// Records sorted by `start_ms`.
    records: Vec<FlowRecord>,
}

impl ReplayProbe {
    /// Builds a replay probe; records are sorted by start time.
    pub fn new(name: &str, mut records: Vec<FlowRecord>) -> Self {
        records.sort_by_key(|r| r.start_ms);
        ReplayProbe {
            name: name.to_string(),
            records,
        }
    }

    /// Number of records in the trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl Probe for ReplayProbe {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, from_ms: u64, to_ms: u64) -> Result<Vec<FlowRecord>, ProbeError> {
        let lo = self.records.partition_point(|r| r.start_ms < from_ms);
        let hi = self.records.partition_point(|r| r.start_ms < to_ms);
        Ok(self.records[lo..hi].to_vec())
    }

    fn horizon_ms(&self) -> Option<u64> {
        self.records.last().map(|r| r.start_ms + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow::HostAddr;

    fn rec(t: u64) -> FlowRecord {
        let mut f = FlowRecord::pair(HostAddr::v4(1), HostAddr::v4(2));
        f.start_ms = t;
        f
    }

    #[test]
    fn poll_returns_window_slice() {
        let mut p = ReplayProbe::new("p0", vec![rec(300), rec(100), rec(200)]);
        assert_eq!(p.len(), 3);
        let w = p.poll(100, 250).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].start_ms, 100);
        assert_eq!(w[1].start_ms, 200);
    }

    #[test]
    fn poll_is_half_open() {
        let mut p = ReplayProbe::new("p0", vec![rec(100), rec(200)]);
        assert_eq!(p.poll(100, 200).unwrap().len(), 1);
        assert_eq!(p.poll(0, 100).unwrap().len(), 0);
    }

    #[test]
    fn horizon_is_one_past_last() {
        let p = ReplayProbe::new("p0", vec![rec(500)]);
        assert_eq!(p.horizon_ms(), Some(501));
        let empty = ReplayProbe::new("p1", vec![]);
        assert_eq!(empty.horizon_ms(), None);
        assert!(empty.is_empty());
    }

    #[test]
    fn repeated_polls_are_idempotent() {
        let mut p = ReplayProbe::new("p0", vec![rec(100)]);
        assert_eq!(p.poll(0, 1000).unwrap().len(), 1);
        assert_eq!(p.poll(0, 1000).unwrap().len(), 1);
    }

    #[test]
    fn error_classification() {
        assert!(ProbeError::Transient("timeout".into()).is_transient());
        assert!(!ProbeError::Fatal("gone".into()).is_transient());
        let msg = ProbeError::Transient("socket reset".into()).to_string();
        assert!(msg.contains("transient"));
        assert!(msg.contains("socket reset"));
    }
}
