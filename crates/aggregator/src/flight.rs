//! The durable flight recorder: a crash-safe journal of operational
//! events, written alongside the checkpoint.
//!
//! The in-memory [`EventJournal`](telemetry::EventJournal) on the
//! recorder answers "what happened recently" while the process lives;
//! this module answers it after a crash. Every window-lifecycle, probe,
//! alert, and checkpoint event the aggregator emits is appended here as
//! one self-contained JSON payload, flushed before the call returns.
//!
//! Persistence goes through a [`StorageBackend`] log namespace keyed by
//! sequence number, which supplies the crash contract: appends are
//! flushed per record, so a crash can only tear the *final* record,
//! which the backend drops on reopen. Sequence numbers resume from the
//! newest surviving record, so post-restart events extend the same
//! sequence.
//!
//! Write errors never propagate into the pipeline — losing a journal
//! line must not fail a classification cycle — but they are counted
//! ([`FlightRecorder::write_errors`]) so an operator can tell a quiet
//! journal from a broken one. Unbounded growth is handled by
//! [`FlightRecorder::prune`], which applies the namespace's retention
//! policy and reports exactly what was dropped.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};
use storage::{NamespaceProfile, Pruned, Retention, StorageBackend};
use telemetry::{Event, FieldValue, Recorder};

/// The two observers a pipeline component may carry: the in-memory
/// [`Recorder`] (registry, spans, and the `/events` journal) and the
/// durable [`FlightRecorder`]. Either, both, or neither is attached.
/// The aggregator holds one, and so does the wire listener, which
/// usually shares the aggregator's flight recorder.
#[derive(Default)]
pub(crate) struct Observer {
    pub(crate) recorder: Option<Arc<Recorder>>,
    pub(crate) flight: Option<Arc<FlightRecorder>>,
}

impl Observer {
    /// Journals one event to every attached observer, flight recorder
    /// first. `fields` runs only when an observer is attached, so a
    /// detached pipeline builds no field vectors at all.
    pub(crate) fn event(
        &self,
        layer: &'static str,
        name: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) {
        match (self.recorder.as_deref(), self.flight.as_deref()) {
            (Some(r), Some(f)) => {
                let fields = fields();
                f.append_in_layer(layer, name, fields.clone());
                r.events().record(layer, name, fields);
            }
            (Some(r), None) => r.events().record(layer, name, fields()),
            (None, Some(f)) => f.append_in_layer(layer, name, fields()),
            (None, None) => {}
        }
    }
}

/// Appends aggregator events to a durable journal. All methods take
/// `&self` (the backend is internally synchronized, counters are
/// atomic), so the recorder can be used from `&self` contexts like
/// [`Aggregator::checkpoint`](crate::Aggregator::checkpoint).
#[derive(Debug)]
pub struct FlightRecorder {
    backend: Arc<dyn StorageBackend>,
    ns: String,
    next_seq: AtomicU64,
    errors: AtomicU64,
}

impl FlightRecorder {
    /// A recorder journaling into namespace `ns` of a shared backend,
    /// pruned by `retention` (the [`StorageStack`](crate::store)
    /// wiring). Sequence numbering resumes after the records already
    /// present, so a restarted pipeline extends the journal instead of
    /// restarting it.
    pub fn with_backend(
        backend: Arc<dyn StorageBackend>,
        ns: impl Into<String>,
        retention: Retention,
    ) -> io::Result<FlightRecorder> {
        let ns = ns.into();
        backend
            .define(&ns, NamespaceProfile::log(retention))
            .map_err(|e| e.into_io())?;
        let next = backend
            .latest(&ns)
            .map_err(|e| e.into_io())?
            .map_or(0, |rec| rec.key + 1);
        Ok(FlightRecorder {
            backend,
            ns,
            next_seq: AtomicU64::new(next),
            errors: AtomicU64::new(0),
        })
    }

    /// Appends one event in the `aggregator` layer. See
    /// [`FlightRecorder::append_in_layer`].
    pub fn append(&self, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        self.append_in_layer("aggregator", name, fields);
    }

    /// Appends one event (wall-clock `ts_ns` since the UNIX epoch) under
    /// an explicit layer — the transport listener journals its
    /// `probe_session_*` provenance here as layer `transport`, storage
    /// retention journals as layer `storage` — and flushes. IO errors
    /// are swallowed and counted: journaling must never fail the
    /// pipeline.
    pub fn append_in_layer(
        &self,
        layer: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        let ts_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let ev = Event {
            ts_ns,
            seq,
            layer,
            name,
            fields,
        };
        if self
            .backend
            .append(&self.ns, seq, ev.to_json().as_bytes())
            .is_err()
        {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Applies the journal's retention policy now, dropping the oldest
    /// records past the configured bounds. Returns exactly what was
    /// dropped so callers can count (and journal) the prune itself.
    pub fn prune(&self) -> storage::Result<Pruned> {
        self.backend.retain(&self.ns)
    }

    /// Number of journal records lost to IO errors so far.
    pub fn write_errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// The sequence number the next event will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use crate::store::{StorageStack, JOURNAL_NS};
    use std::fs;
    use std::path::PathBuf;
    use storage::StorageConfig;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("roleclass-flight-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The journal payloads, one JSON string per event, oldest first.
    fn journal_lines(stack: &StorageStack) -> Vec<String> {
        stack
            .backend()
            .scan(JOURNAL_NS, 0, u64::MAX)
            .unwrap()
            .into_iter()
            .map(|rec| String::from_utf8(rec.value).unwrap())
            .collect()
    }

    #[test]
    fn appends_sequenced_jsonl() {
        let stack = StorageStack::open(&StorageConfig::memory()).unwrap();
        let fr = stack.recorder();
        fr.append(
            "roleclass_aggregator_window_started",
            vec![("window_start_ms", 0u64.into())],
        );
        fr.append("roleclass_aggregator_window_classified", vec![]);
        assert_eq!(fr.write_errors(), 0);
        let lines = journal_lines(&stack);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[1].contains("\"seq\":1"));
        assert!(lines[0].contains("\"layer\":\"aggregator\""));
    }

    #[test]
    fn seq_resumes_across_reopen() {
        let root = temp_root("resume");
        let config = StorageConfig::new(root.to_string_lossy());
        {
            let stack = StorageStack::open(&config).unwrap();
            let fr = stack.recorder();
            fr.append("roleclass_aggregator_window_started", vec![]);
            fr.append("roleclass_aggregator_window_classified", vec![]);
        }
        let stack = StorageStack::open(&config).unwrap();
        let fr = stack.recorder();
        assert_eq!(fr.next_seq(), 2);
        fr.append("roleclass_aggregator_window_started", vec![]);
        let lines = journal_lines(&stack);
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains("\"seq\":2"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_final_line_is_skipped_and_seq_continues() {
        let root = temp_root("torn");
        let config = StorageConfig::new(root.to_string_lossy());
        {
            let stack = StorageStack::open(&config).unwrap();
            let fr = stack.recorder();
            fr.append("roleclass_aggregator_window_started", vec![]);
            fr.append("roleclass_aggregator_window_classified", vec![]);
            fr.append("roleclass_aggregator_window_started", vec![]);
        }
        // Simulate a crash mid-append: tear the tail off the newest
        // segment file, destroying the third record.
        let newest = fs::read_dir(root.join(JOURNAL_NS))
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .max()
            .unwrap();
        let len = fs::metadata(&newest).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&newest)
            .unwrap()
            .set_len(len - 2)
            .unwrap();
        // Reopening resumes from the complete records only.
        let stack = StorageStack::open(&config).unwrap();
        assert_eq!(journal_lines(&stack).len(), 2);
        assert_eq!(stack.recorder().next_seq(), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn layers_share_one_sequence() {
        let stack = StorageStack::open(&StorageConfig::memory()).unwrap();
        let fr = stack.recorder();
        fr.append("roleclass_aggregator_window_started", vec![]);
        fr.append_in_layer(
            "transport",
            "roleclass_transport_probe_session_opened",
            vec![("session", 1u64.into())],
        );
        let lines = journal_lines(&stack);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"layer\":\"aggregator\""));
        assert!(lines[1].contains("\"layer\":\"transport\""));
        assert!(lines[1].contains("\"seq\":1"));
    }

    #[test]
    fn prune_bounds_journal_growth() {
        let config = StorageConfig::memory().with_journal_retention(Some(3), None);
        let stack = StorageStack::open(&config).unwrap();
        let fr = stack.recorder();
        for _ in 0..8 {
            fr.append("roleclass_aggregator_window_started", vec![]);
        }
        let pruned = fr.prune().unwrap();
        assert_eq!(pruned.records, 5);
        assert!(pruned.bytes > 0);
        let lines = journal_lines(&stack);
        assert_eq!(lines.len(), 3);
        // The newest events survive, and the sequence keeps climbing.
        assert!(lines[2].contains("\"seq\":7"));
        assert_eq!(fr.next_seq(), 8);
    }
}
