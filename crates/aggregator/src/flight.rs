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
//! sequence. The path-based constructor opens an [`AppendLogBackend`]
//! whose line format is a superset of the historical bare-JSONL layout:
//! journals written by older builds are still read (and resumed) in
//! place.
//!
//! Write errors never propagate into the pipeline — losing a journal
//! line must not fail a classification cycle — but they are counted
//! ([`FlightRecorder::write_errors`]) so an operator can tell a quiet
//! journal from a broken one. Unbounded growth is handled by
//! [`FlightRecorder::prune`], which applies the namespace's retention
//! policy and reports exactly what was dropped.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};
use storage::{
    decode_line_payload, AppendLogBackend, NamespaceProfile, Pruned, Retention, StorageBackend,
};
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
    path: PathBuf,
    backend: Arc<dyn StorageBackend>,
    ns: String,
    next_seq: AtomicU64,
    errors: AtomicU64,
}

impl FlightRecorder {
    /// Opens (or creates) the journal at `path` in append mode. Sequence
    /// numbering resumes after the records already present, so a
    /// restarted pipeline extends the journal instead of restarting it.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<FlightRecorder> {
        let path = path.into();
        let parent = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        let ns = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "events.journal".to_string());
        let backend: Arc<dyn StorageBackend> =
            Arc::new(AppendLogBackend::new(parent).map_err(|e| e.into_io())?);
        Self::with_backend_at(backend, ns, Retention::unbounded(), path)
    }

    /// A recorder journaling into namespace `ns` of a shared backend,
    /// pruned by `retention` (the [`StorageStack`](crate::store)
    /// wiring).
    pub fn with_backend(
        backend: Arc<dyn StorageBackend>,
        ns: impl Into<String>,
        retention: Retention,
    ) -> io::Result<FlightRecorder> {
        let ns = ns.into();
        let path = PathBuf::from(&ns);
        Self::with_backend_at(backend, ns, retention, path)
    }

    fn with_backend_at(
        backend: Arc<dyn StorageBackend>,
        ns: String,
        retention: Retention,
        path: PathBuf,
    ) -> io::Result<FlightRecorder> {
        backend
            .define(&ns, NamespaceProfile::log(retention))
            .map_err(|e| e.into_io())?;
        let next = backend
            .latest(&ns)
            .map_err(|e| e.into_io())?
            .map_or(0, |rec| rec.key + 1);
        Ok(FlightRecorder {
            path,
            backend,
            ns,
            next_seq: AtomicU64::new(next),
            errors: AtomicU64::new(0),
        })
    }

    /// The journal file path (the namespace name for shared-backend
    /// recorders).
    pub fn path(&self) -> &Path {
        &self.path
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

/// Reads the complete journal payloads at `path`, one JSON string per
/// event, skipping a torn final line (the only artifact a crash
/// mid-append can leave). Both the keyed backend format and legacy
/// bare-JSONL journals decode; a missing journal reads as empty. This
/// is a pure read: the file is never modified.
pub fn read_journal_lines(path: impl AsRef<Path>) -> io::Result<Vec<String>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let end = text.rfind('\n').map_or(0, |i| i + 1);
    Ok(text[..end]
        .lines()
        .filter(|l| !l.is_empty())
        .filter_map(decode_line_payload)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_journal(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("roleclass-flight-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("events.journal")
    }

    #[test]
    fn appends_sequenced_jsonl() {
        let path = temp_journal("seq");
        let fr = FlightRecorder::open(&path).unwrap();
        fr.append(
            "roleclass_aggregator_window_started",
            vec![("window_start_ms", 0u64.into())],
        );
        fr.append("roleclass_aggregator_window_classified", vec![]);
        assert_eq!(fr.write_errors(), 0);
        let lines = read_journal_lines(&path).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[1].contains("\"seq\":1"));
        assert!(lines[0].contains("\"layer\":\"aggregator\""));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn seq_resumes_across_reopen() {
        let path = temp_journal("resume");
        {
            let fr = FlightRecorder::open(&path).unwrap();
            fr.append("roleclass_aggregator_window_started", vec![]);
            fr.append("roleclass_aggregator_window_classified", vec![]);
        }
        let fr = FlightRecorder::open(&path).unwrap();
        assert_eq!(fr.next_seq(), 2);
        fr.append("roleclass_aggregator_window_started", vec![]);
        let lines = read_journal_lines(&path).unwrap();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains("\"seq\":2"));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_final_line_is_skipped_and_seq_continues() {
        let path = temp_journal("torn");
        {
            let fr = FlightRecorder::open(&path).unwrap();
            fr.append("roleclass_aggregator_window_started", vec![]);
            fr.append("roleclass_aggregator_window_classified", vec![]);
        }
        // Simulate a crash mid-append: a partial line with no newline.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("k=2 c=00000000 {\"seq\":2,\"ts_ns\":12");
        fs::write(&path, &text).unwrap();
        assert_eq!(read_journal_lines(&path).unwrap().len(), 2);
        // Reopening resumes from the complete records only.
        let fr = FlightRecorder::open(&path).unwrap();
        assert_eq!(fr.next_seq(), 2);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn legacy_bare_jsonl_journal_resumes_in_place() {
        let path = temp_journal("legacy");
        // A journal written by a pre-storage build: bare JSON lines.
        fs::write(
            &path,
            "{\"ts_ns\":1,\"seq\":0,\"layer\":\"aggregator\",\"name\":\"a\"}\n\
             {\"ts_ns\":2,\"seq\":1,\"layer\":\"aggregator\",\"name\":\"b\"}\n",
        )
        .unwrap();
        let fr = FlightRecorder::open(&path).unwrap();
        assert_eq!(fr.next_seq(), 2);
        fr.append("roleclass_aggregator_window_started", vec![]);
        let lines = read_journal_lines(&path).unwrap();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\":\"a\""));
        assert!(lines[2].contains("\"seq\":2"));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn layers_share_one_sequence() {
        let path = temp_journal("layers");
        let fr = FlightRecorder::open(&path).unwrap();
        fr.append("roleclass_aggregator_window_started", vec![]);
        fr.append_in_layer(
            "transport",
            "roleclass_transport_probe_session_opened",
            vec![("session", 1u64.into())],
        );
        let lines = read_journal_lines(&path).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"layer\":\"aggregator\""));
        assert!(lines[1].contains("\"layer\":\"transport\""));
        assert!(lines[1].contains("\"seq\":1"));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn prune_bounds_journal_growth() {
        let path = temp_journal("prune");
        let backend: Arc<dyn StorageBackend> =
            Arc::new(AppendLogBackend::new(path.parent().unwrap()).unwrap());
        let fr = FlightRecorder::with_backend(
            backend,
            "events.journal",
            Retention::unbounded().keep_records(3),
        )
        .unwrap();
        for _ in 0..8 {
            fr.append("roleclass_aggregator_window_started", vec![]);
        }
        let pruned = fr.prune().unwrap();
        assert_eq!(pruned.records, 5);
        assert!(pruned.bytes > 0);
        let lines = read_journal_lines(&path).unwrap();
        assert_eq!(lines.len(), 3);
        // The newest events survive, and the sequence keeps climbing.
        assert!(lines[2].contains("\"seq\":7"));
        assert_eq!(fr.next_seq(), 8);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn missing_journal_reads_empty() {
        let path = temp_journal("missing");
        assert!(read_journal_lines(path.join("nope")).unwrap().is_empty());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
