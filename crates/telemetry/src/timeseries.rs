//! The metric timeseries: a bounded per-window ring of named metric
//! snapshots.
//!
//! The [`Registry`](crate::Registry) answers "what is the value *now*";
//! the [`EventJournal`](crate::EventJournal) answers "what happened, one
//! decision at a time". Neither answers "how did this window-level
//! quantity evolve" without replaying everything. A [`TimeseriesRing`]
//! fills that gap: after every cycle the aggregator appends one
//! [`MetricFrame`] — a timestamped, sequenced set of `(name, value)`
//! pairs keyed by the window index it describes — and the ring retains
//! the most recent `capacity` frames, evicting oldest-first, so a
//! long-running pipeline keeps a bounded trail of per-window stability
//! and throughput figures.
//!
//! It is the same [`Ring`] as the event journal, and value names follow
//! the `roleclass_<layer>_<name>` convention so the workspace
//! `metric_names` lint covers them.
//!
//! Export is JSONL — one self-contained JSON object per line:
//!
//! ```text
//! {"seq":0,"ts_ns":1234,"window":7,"values":{"roleclass_stability_backbone_mean":0.96}}
//! ```

use crate::ring::{Ring, RingEntry};

/// Default frame capacity of a [`TimeseriesRing`]: one frame per window,
/// so this covers weeks of hour-long windows at well under a megabyte.
pub const DEFAULT_TIMESERIES_CAPACITY: usize = 4_096;

/// One per-window snapshot of named metric values.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricFrame {
    /// Sequence number, dense and strictly increasing per ring.
    pub seq: u64,
    /// Nanoseconds since ring creation (monotonic clock).
    pub ts_ns: u64,
    /// The window index this frame describes (the aggregator's cycle
    /// counter), so frames stay attributable after eviction.
    pub window: u64,
    /// Named values, in emission order. Names follow the
    /// `roleclass_<layer>_<name>` metric convention.
    pub values: Vec<(&'static str, f64)>,
}

impl MetricFrame {
    /// Renders the frame as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.values.len() * 32);
        self.write_json(&mut out);
        out
    }

    /// Appends the JSON rendering of the frame to `out`.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"seq\":{},\"ts_ns\":{},\"window\":{},\"values\":{{",
            self.seq, self.ts_ns, self.window
        );
        for (i, (name, value)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            out.push_str(&crate::registry::fmt_f64(*value));
        }
        out.push_str("}}");
    }
}

/// A bounded ring of [`MetricFrame`]s — the per-window timeseries.
/// Oldest frames are evicted first once its capacity is reached; see
/// [`Ring`].
pub type TimeseriesRing = Ring<MetricFrame>;

impl RingEntry for MetricFrame {
    const DEFAULT_CAPACITY: usize = DEFAULT_TIMESERIES_CAPACITY;

    fn write_json(&self, out: &mut String) {
        MetricFrame::write_json(self, out);
    }
}

impl Ring<MetricFrame> {
    /// Appends one frame for `window`, stamping it with the ring's
    /// monotonic clock and the next sequence number. Evicts the oldest
    /// frame when full.
    pub fn record(&self, window: u64, values: Vec<(&'static str, f64)>) {
        debug_assert!(
            values.iter().all(|(n, _)| crate::registry::valid_name(n)),
            "timeseries value names follow the metric convention: [a-z][a-z0-9_]*"
        );
        self.push(|seq, ts_ns| MetricFrame {
            seq,
            ts_ns,
            window,
            values,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_whole_and_fractional_values() {
        let frame = MetricFrame {
            seq: 3,
            ts_ns: 7,
            window: 2,
            values: vec![
                ("roleclass_stability_groups_tracked", 4.0),
                ("roleclass_stability_backbone_min", 0.25),
            ],
        };
        let expected = concat!(
            "{\"seq\":3,\"ts_ns\":7,\"window\":2,\"values\":{",
            "\"roleclass_stability_groups_tracked\":4.0,",
            "\"roleclass_stability_backbone_min\":0.25}}"
        );
        assert_eq!(frame.to_json(), expected);
        let empty = MetricFrame {
            seq: 0,
            ts_ns: 0,
            window: 0,
            values: vec![],
        };
        assert!(empty.to_json().ends_with("\"values\":{}}"));
    }
}
