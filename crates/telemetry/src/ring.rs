//! The bounded ring behind the event journal and the metric timeseries.
//!
//! A [`Ring`] retains the most recent `capacity` entries, evicting
//! oldest-first, so a long-running pipeline keeps a recent trail at
//! bounded memory. Recording takes one short, uncontended mutex
//! acquisition (push + possible pop), and the sequence counter and the
//! drop counter live inside the same critical section, so `seq` order
//! always matches ring order. Timestamps come from a monotonic clock
//! relative to ring creation.
//!
//! The two instances are [`EventJournal`](crate::EventJournal) (typed
//! decision [`Event`](crate::Event)s) and
//! [`TimeseriesRing`](crate::TimeseriesRing) (per-window
//! [`MetricFrame`](crate::MetricFrame)s); each adds its own `record`.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// An entry a [`Ring`] can hold: it renders itself as one JSON object.
pub trait RingEntry: Clone {
    /// Capacity of a `Ring::default()`.
    const DEFAULT_CAPACITY: usize;

    /// Appends the JSON rendering of the entry to `out` (no newline).
    fn write_json(&self, out: &mut String);
}

/// The mutable ring state, all under one mutex so sequence numbers, ring
/// order, and the drop counter can never disagree.
#[derive(Debug)]
struct RingState<T> {
    ring: VecDeque<T>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded ring of entries, evicting oldest-first once `capacity` is
/// reached; [`Ring::dropped`] counts evictions so consumers can tell a
/// short history from a truncated one.
#[derive(Debug)]
pub struct Ring<T> {
    epoch: Instant,
    capacity: usize,
    state: Mutex<RingState<T>>,
}

impl<T: RingEntry> Ring<T> {
    /// A ring holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        Ring {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            state: Mutex::new(RingState {
                ring: VecDeque::new(),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// Appends `make(seq, ts_ns)`, stamped with the ring's monotonic
    /// clock and the next sequence number. Evicts the oldest entry when
    /// full.
    pub(crate) fn push(&self, make: impl FnOnce(u64, u64) -> T) {
        let ts_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut st = self.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.ring.push_back(make(seq, ts_ns));
        if st.ring.len() > self.capacity {
            st.ring.pop_front();
            st.dropped += 1;
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained entries.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// `true` when nothing has been recorded (or everything was taken).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted by overflow so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Snapshot of the retained entries, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.lock().ring.iter().cloned().collect()
    }

    /// Takes (and clears) the retained entries, oldest first. Sequence
    /// numbering continues where it left off.
    pub fn take(&self) -> Vec<T> {
        std::mem::take(&mut self.lock().ring).into()
    }

    /// The most recent `n` retained entries, oldest of those first.
    pub fn tail(&self, n: usize) -> Vec<T> {
        let st = self.lock();
        let skip = st.ring.len().saturating_sub(n);
        st.ring.iter().skip(skip).cloned().collect()
    }

    /// Renders the retained entries as JSONL, one entry per line, oldest
    /// first. An empty ring renders as the empty string.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in self.snapshot() {
            entry.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

impl<T: RingEntry> Default for Ring<T> {
    fn default() -> Self {
        Ring::new(T::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use crate::TimeseriesRing;

    #[test]
    fn records_in_order_with_dense_seq() {
        let r = TimeseriesRing::new(16);
        r.record(0, vec![("roleclass_stability_backbone_mean", 1.0)]);
        r.record(1, vec![("roleclass_stability_backbone_mean", 0.5)]);
        let frames = r.snapshot();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].seq, 0);
        assert_eq!(frames[1].seq, 1);
        assert!(frames[0].ts_ns <= frames[1].ts_ns);
        assert_eq!(frames[1].window, 1);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn overflow_evicts_oldest_first() {
        let r = TimeseriesRing::new(3);
        for w in 0..5u64 {
            r.record(w, vec![("roleclass_stability_windows_total", w as f64)]);
        }
        let frames = r.snapshot();
        assert_eq!(frames.len(), 3);
        assert_eq!(r.dropped(), 2);
        let seqs: Vec<u64> = frames.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
        assert_eq!(frames[0].window, 2);
    }

    #[test]
    fn take_clears_but_seq_continues() {
        let r = TimeseriesRing::new(8);
        r.record(0, vec![]);
        assert_eq!(r.take().len(), 1);
        assert!(r.is_empty());
        r.record(1, vec![]);
        assert_eq!(r.snapshot()[0].seq, 1);
    }

    #[test]
    fn tail_returns_newest() {
        let r = TimeseriesRing::new(8);
        for w in 0..5u64 {
            r.record(w, vec![]);
        }
        let t = r.tail(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].seq, 3);
        assert_eq!(t[1].seq, 4);
        assert_eq!(r.tail(100).len(), 5);
    }

    #[test]
    fn capacity_floor_is_one() {
        let r = TimeseriesRing::new(0);
        assert_eq!(r.capacity(), 1);
        r.record(0, vec![]);
        r.record(1, vec![]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
    }
}
