//! The structured event journal: a bounded, lock-light flight recorder
//! for typed decision events.
//!
//! Metrics aggregate and spans time; neither can answer *why one host*
//! landed in a group. Events carry that per-decision provenance: each
//! [`Event`] is a timestamped, sequenced, named record with typed
//! fields, appended to a fixed-capacity [`Ring`] ([`EventJournal`]) that
//! evicts oldest-first under overflow, so a long-running pipeline keeps
//! a recent window of decisions at bounded memory.
//!
//! There is no global state; the
//! journal lives on the [`Recorder`](crate::Recorder), and instrumented
//! code only touches it behind `Option<&Recorder>` — detached runs never
//! allocate a field value or read a clock.
//!
//! Event names follow the same `roleclass_<layer>_<name>` convention as
//! metrics and are linted by the workspace `metric_names` test.
//!
//! Export is JSONL — one self-contained JSON object per line:
//!
//! ```text
//! {"seq":0,"ts_ns":1234,"layer":"engine","name":"roleclass_engine_host_grouped","fields":{"host":"10.0.0.1","k":3}}
//! ```

use crate::ring::{Ring, RingEntry};

/// Default ring capacity of a [`Recorder`](crate::Recorder)'s journal:
/// roomy enough for every decision of a mid-size window, small enough
/// (tens of MB worst case) to forget about.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// A typed field value. `From` impls cover the types call sites emit, so
/// field lists read as `("k", k.into())`.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, ids, sizes, timestamps).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (similarities, scores, seconds).
    F64(f64),
    /// Boolean (verdicts, flags).
    Bool(bool),
    /// Free-form text (host addresses, reasons). JSON-escaped on export.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Timestamp in nanoseconds. Journal-recorded events use a monotonic
    /// clock relative to journal creation; durable journals (the
    /// aggregator flight recorder) stamp wall-clock nanoseconds since
    /// the UNIX epoch instead. Either way `ts_ns` is non-decreasing
    /// within one journal.
    pub ts_ns: u64,
    /// Sequence number, dense and strictly increasing per journal —
    /// the total order of decisions, even when `ts_ns` ties.
    pub seq: u64,
    /// The emitting layer (`engine`, `aggregator`, ...).
    pub layer: &'static str,
    /// Full event name, `roleclass_<layer>_<name>`.
    pub name: &'static str,
    /// Typed fields, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 + self.fields.len() * 24);
        self.write_json(&mut out);
        out
    }

    /// Appends the JSON rendering of the event to `out`.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"seq\":{},\"ts_ns\":{},\"layer\":\"{}\",\"name\":\"{}\",\"fields\":{{",
            self.seq, self.ts_ns, self.layer, self.name
        );
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{key}\":");
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::I64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::F64(v) => out.push_str(&crate::registry::fmt_f64(*v)),
                FieldValue::Bool(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::Str(v) => {
                    out.push('"');
                    escape_json_into(out, v);
                    out.push('"');
                }
            }
        }
        out.push_str("}}");
    }
}

/// JSON string escaping: quotes, backslashes, and control characters.
/// Unlike metric names, field values are arbitrary text (host addresses,
/// probe error messages), so escaping is not optional here.
pub(crate) fn escape_json_into(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A bounded ring of [`Event`]s — the in-memory journal. Oldest events
/// are evicted first once its capacity is reached; see [`Ring`].
pub type EventJournal = Ring<Event>;

impl RingEntry for Event {
    const DEFAULT_CAPACITY: usize = DEFAULT_EVENT_CAPACITY;

    fn write_json(&self, out: &mut String) {
        Event::write_json(self, out);
    }
}

impl Ring<Event> {
    /// Records one event, stamping it with the journal's monotonic clock
    /// and the next sequence number. Evicts the oldest event when full.
    pub fn record(
        &self,
        layer: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        debug_assert!(
            crate::registry::valid_name(name) && crate::registry::valid_name(layer),
            "event names follow the metric convention: [a-z][a-z0-9_]*"
        );
        self.push(|seq, ts_ns| Event {
            ts_ns,
            seq,
            layer,
            name,
            fields,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_strings() {
        let j = EventJournal::new(4);
        j.record(
            "engine",
            "roleclass_engine_note",
            vec![("msg", "a\"b\\c\nd\u{1}".into())],
        );
        let line = j.to_jsonl();
        assert!(line.contains("\\\"b"));
        assert!(line.contains("\\\\c"));
        assert!(line.contains("\\n"));
        assert!(line.contains("\\u0001"));
        assert!(line.ends_with('\n'));
    }

    #[test]
    fn json_field_types_render() {
        let mut ev = Event {
            ts_ns: 7,
            seq: 3,
            layer: "engine",
            name: "roleclass_engine_all_types",
            fields: vec![
                ("u", FieldValue::U64(42)),
                ("i", FieldValue::I64(-5)),
                ("f", FieldValue::F64(1.5)),
                ("whole", FieldValue::F64(2.0)),
                ("b", FieldValue::Bool(true)),
                ("s", FieldValue::Str("x".into())),
            ],
        };
        let json = ev.to_json();
        let expected = concat!(
            "{\"seq\":3,\"ts_ns\":7,\"layer\":\"engine\",\"name\":\"roleclass_engine_all_types\",",
            "\"fields\":{\"u\":42,\"i\":-5,\"f\":1.5,\"whole\":2.0,\"b\":true,\"s\":\"x\"}}"
        );
        assert_eq!(json, expected);
        ev.fields.clear();
        assert!(ev.to_json().ends_with("\"fields\":{}}"));
    }
}
