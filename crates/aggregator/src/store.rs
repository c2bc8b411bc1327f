//! The pluggable storage stack: one shared [`StorageBackend`] serving
//! the checkpointer, the flight recorder, and the per-window run
//! history.
//!
//! The [`RunStore`] is what makes time travel possible: every completed
//! window's [`RunRecord`] is appended to a log namespace keyed by the
//! window's start timestamp, so `rcctl explain --host X --at <window>`
//! can replay any retained window and `rcctl serve` can answer
//! `/history` queries — with disk bounded by the configured retention
//! rather than growing forever.
//!
//! [`StorageStack::open`] wires all three consumers onto one backend
//! chosen by [`StorageConfig`]: `memory` for tests and one-shot runs,
//! `segment` for indexed segments with compaction and retention.

use crate::checkpoint::Checkpointer;
use crate::flight::FlightRecorder;
use crate::pipeline::RunRecord;
use std::io;
use std::sync::Arc;
use storage::{NamespaceProfile, Pruned, StorageBackend, StorageConfig};

pub use storage::{STORAGE_EVENT_NAMES, STORAGE_METRIC_NAMES};

/// Namespace holding one record per classified window, keyed by
/// `window.start_ms`.
pub const RUNS_NS: &str = "runs";
/// Namespace holding checkpoint generations.
pub const CHECKPOINT_NS: &str = "checkpoint";
/// Namespace holding the flight-recorder journal.
pub const JOURNAL_NS: &str = "journal";

/// One line of `/history` output: the shape of a retained window
/// without its full connection sets.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct RunSummary {
    pub window_start_ms: u64,
    pub window_end_ms: u64,
    pub hosts: usize,
    pub groups: usize,
    pub degraded: bool,
}

/// Per-window run history on a [`StorageBackend`] log namespace.
///
/// Keys are window start timestamps (strictly ascending by
/// construction, which is exactly the log-namespace contract), values
/// are JSON-encoded [`RunRecord`]s. All methods take `&self`.
#[derive(Clone, Debug)]
pub struct RunStore {
    backend: Arc<dyn StorageBackend>,
    ns: String,
}

impl RunStore {
    /// Opens the run history in namespace `ns` of `backend` with the
    /// given retention profile.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        ns: impl Into<String>,
        profile: NamespaceProfile,
    ) -> storage::Result<RunStore> {
        let ns = ns.into();
        backend.define(&ns, profile)?;
        Ok(RunStore { backend, ns })
    }

    /// The backend serving this store.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Persists one completed window. Returns the encoded size in
    /// bytes, or `None` if the window was already recorded (replays
    /// after a restore re-observe old windows; the first write wins).
    pub fn record(&self, run: &RunRecord) -> storage::Result<Option<u64>> {
        let key = run.window.start_ms;
        if let Some(latest) = self.backend.latest(&self.ns)? {
            if key <= latest.key {
                return Ok(None);
            }
        }
        let payload = serde_json::to_string(run)
            .map_err(|e| storage::StorageError::Corrupt(format!("encode failed: {e}")))?
            .into_bytes();
        self.backend.append(&self.ns, key, &payload)?;
        Ok(Some(payload.len() as u64))
    }

    /// The run whose window starts exactly at `start_ms`, if retained.
    pub fn at(&self, start_ms: u64) -> storage::Result<Option<RunRecord>> {
        match self.backend.get(&self.ns, start_ms)? {
            Some(bytes) => Self::decode(&bytes).map(Some),
            None => Ok(None),
        }
    }

    /// The newest retained run whose window starts at or before
    /// `at_ms` — the window that was current at that instant.
    pub fn at_or_before(&self, at_ms: u64) -> storage::Result<Option<RunRecord>> {
        match self.backend.scan(&self.ns, 0, at_ms)?.pop() {
            Some(rec) => Self::decode(&rec.value).map(Some),
            None => Ok(None),
        }
    }

    /// All retained runs, oldest first.
    pub fn all(&self) -> storage::Result<Vec<RunRecord>> {
        self.backend
            .scan(&self.ns, 0, u64::MAX)?
            .iter()
            .map(|r| Self::decode(&r.value))
            .collect()
    }

    /// One [`RunSummary`] per retained window, oldest first.
    pub fn summaries(&self) -> storage::Result<Vec<RunSummary>> {
        Ok(self
            .all()?
            .iter()
            .map(|run| RunSummary {
                window_start_ms: run.window.start_ms,
                window_end_ms: run.window.end_ms,
                hosts: run.grouping.host_count(),
                groups: run.grouping.group_count(),
                degraded: run.health.degraded(),
            })
            .collect())
    }

    /// Number of retained windows.
    pub fn len(&self) -> storage::Result<u64> {
        self.backend.len(&self.ns)
    }

    /// True when no window is retained.
    pub fn is_empty(&self) -> storage::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Applies the retention policy now, returning what was dropped.
    pub fn prune(&self) -> storage::Result<Pruned> {
        self.backend.retain(&self.ns)
    }

    fn decode(bytes: &[u8]) -> storage::Result<RunRecord> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| storage::StorageError::Corrupt("run record is not UTF-8".to_string()))?;
        serde_json::from_str(text)
            .map_err(|e| storage::StorageError::Corrupt(format!("run record rejected: {e}")))
    }
}

/// Every persistence consumer wired onto one shared backend.
#[derive(Debug)]
pub struct StorageStack {
    backend: Arc<dyn StorageBackend>,
    checkpointer: Checkpointer,
    recorder: Arc<FlightRecorder>,
    runs: Arc<RunStore>,
}

impl StorageStack {
    /// Opens the configured backend and defines the three namespaces:
    /// `checkpoint` (snapshot generations), `journal` (flight events),
    /// and `runs` (per-window history).
    pub fn open(config: &StorageConfig) -> io::Result<StorageStack> {
        let backend = config.open().map_err(|e| e.into_io())?;
        let checkpointer = Checkpointer::with_backend(Arc::clone(&backend), CHECKPOINT_NS)
            .with_generations(config.checkpoint_generations);
        let recorder = Arc::new(FlightRecorder::with_backend(
            Arc::clone(&backend),
            JOURNAL_NS,
            config.journal_profile().retention,
        )?);
        let runs = Arc::new(
            RunStore::open(Arc::clone(&backend), RUNS_NS, config.history_profile())
                .map_err(|e| e.into_io())?,
        );
        Ok(StorageStack {
            backend,
            checkpointer,
            recorder,
            runs,
        })
    }

    /// The shared backend.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// The checkpointer persisting into the shared backend.
    pub fn checkpointer(&self) -> &Checkpointer {
        &self.checkpointer
    }

    /// The flight recorder journaling into the shared backend.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The per-window run store.
    pub fn runs(&self) -> &Arc<RunStore> {
        &self.runs
    }

    /// Hardens everything appended so far (fsyncs files and
    /// directories across all namespaces).
    pub fn flush(&self) -> io::Result<()> {
        self.backend.flush().map_err(|e| e.into_io())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Aggregator, AggregatorConfig};
    use crate::probe::ReplayProbe;
    use flow::{FlowRecord, HostAddr};
    use storage::BackendKind;

    fn sample_runs(windows: u64) -> Vec<RunRecord> {
        let mut agg = Aggregator::new(AggregatorConfig {
            window_ms: 1000,
            origin_ms: 0,
            min_flows: 1,
            ..AggregatorConfig::default()
        });
        let mut trace = Vec::new();
        for d in 0..windows {
            for n in 2..5u32 {
                let mut f = FlowRecord::pair(HostAddr::v4(1), HostAddr::v4(n));
                f.start_ms = d * 1000;
                trace.push(f);
            }
        }
        agg.attach(Box::new(ReplayProbe::new("p0", trace)));
        agg.drain();
        agg.history().read().clone()
    }

    #[test]
    fn run_store_round_trips_and_time_travels() {
        let stack = StorageStack::open(&StorageConfig::memory()).unwrap();
        let runs = sample_runs(3);
        for run in &runs {
            assert!(stack.runs().record(run).unwrap().is_some());
        }
        // Re-recording an old window is a no-op, not an error.
        assert!(stack.runs().record(&runs[0]).unwrap().is_none());
        assert_eq!(stack.runs().len().unwrap(), 3);
        let at = stack.runs().at(1000).unwrap().unwrap();
        assert_eq!(at.window.start_ms, 1000);
        assert_eq!(
            at.grouping.group_of(HostAddr::v4(1)),
            runs[1].grouping.group_of(HostAddr::v4(1))
        );
        // `at_or_before` finds the window current at an instant.
        let mid = stack.runs().at_or_before(1500).unwrap().unwrap();
        assert_eq!(mid.window.start_ms, 1000);
        assert!(stack.runs().at(999).unwrap().is_none());
        let summaries = stack.runs().summaries().unwrap();
        assert_eq!(summaries.len(), 3);
        assert_eq!(summaries[2].window_start_ms, 2000);
        assert!(summaries.iter().all(|s| s.hosts > 0));
    }

    #[test]
    fn stack_checkpoint_and_journal_share_the_backend() {
        let dir = std::env::temp_dir().join(format!("roleclass-stack-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StorageConfig::new(dir.to_string_lossy().into_owned())
            .with_backend(BackendKind::Segment)
            .with_history_retention(Some(2), None);
        let runs = sample_runs(3);
        {
            let stack = StorageStack::open(&config).unwrap();
            stack.checkpointer().save(&runs).unwrap();
            stack
                .recorder()
                .append("roleclass_aggregator_window_started", vec![]);
            for run in &runs {
                stack.runs().record(run).unwrap();
            }
            stack.flush().unwrap();
        }
        // Reopen: every consumer sees its state.
        let stack = StorageStack::open(&config).unwrap();
        assert_eq!(stack.checkpointer().load().unwrap().len(), 3);
        assert_eq!(stack.recorder().next_seq(), 1);
        assert_eq!(stack.runs().len().unwrap(), 3);
        let pruned = stack.runs().prune().unwrap();
        // Segment retention is segment-granular; with tiny volumes the
        // records may share the active segment and survive. The call
        // must still be accurate about what it dropped.
        assert_eq!(stack.runs().len().unwrap(), 3 - pruned.records);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
