//! Crash-safe persistence for the run history.
//!
//! The run history is the anchor for group-id correlation: lose it and
//! every group gets renumbered on restart, which invalidates labels,
//! policies, and operator intuition. This module persists it as a
//! *checkpoint file* with:
//!
//! * a **versioned header** (`roleclass-checkpoint v2`) so format drift
//!   is detected instead of misparsed — v1 files (runs only, no identity
//!   table) are still read, with the table rebuilt deterministically;
//! * **atomic writes**: the new checkpoint is written to a temp file and
//!   renamed over the old one, so a crash mid-write can never leave a
//!   half-written primary;
//! * a **backup generation**: the previous checkpoint survives as
//!   `<path>.bak`, so even external corruption of the primary (disk
//!   error, truncation) recovers to the last good state;
//! * **corruption detection**: a truncated or garbage file is reported
//!   as [`CheckpointError::Corrupt`], never a panic.

use crate::pipeline::{intern_hosts, RunRecord};
use flow::HostTable;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use storage::{AppendLogBackend, NamespaceProfile, StorageBackend, StorageError};

/// First header token; anything else is not a checkpoint file.
const MAGIC: &str = "roleclass-checkpoint";
/// Current format version: v2 adds the master [`HostTable`] so dense
/// host ids survive restarts.
const VERSION: u32 = 2;
/// Oldest version this build still reads. v1 payloads are a bare run
/// array; the identity table is rebuilt by re-interning run hosts in
/// order, which reproduces the ids live ingestion assigned.
const MIN_VERSION: u32 = 1;

/// The v2 on-disk payload: the run history plus the master identity
/// table that assigned each host its dense id.
#[derive(Serialize, Deserialize)]
struct CheckpointDoc {
    table: HostTable,
    runs: Vec<RunRecord>,
}

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// The file exists but its contents are not a valid checkpoint
    /// (missing/garbled header, truncated or malformed payload).
    Corrupt(String),
    /// The header is valid but the version is one this build can't read.
    BadVersion(u32),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {VERSION})")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<StorageError> for CheckpointError {
    fn from(e: StorageError) -> Self {
        match e {
            StorageError::Io(e) => CheckpointError::Io(e),
            StorageError::Corrupt(why) => CheckpointError::Corrupt(why),
            other => CheckpointError::Corrupt(other.to_string()),
        }
    }
}

/// Where a recovered history came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoverySource {
    /// The primary checkpoint was intact.
    Primary,
    /// The primary was missing or corrupt; the backup was used.
    Backup,
    /// Neither file was usable; starting with an empty history.
    Fresh,
}

impl RecoverySource {
    /// Stable lowercase name, used in alerts and telemetry labels.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoverySource::Primary => "primary",
            RecoverySource::Backup => "backup",
            RecoverySource::Fresh => "fresh",
        }
    }
}

/// Result of [`Checkpointer::load_or_recover`].
#[derive(Debug)]
pub struct Recovery {
    /// The recovered run history (empty for [`RecoverySource::Fresh`]).
    pub runs: Vec<RunRecord>,
    /// The recovered master identity table (empty for
    /// [`RecoverySource::Fresh`]; rebuilt from the runs for v1 files).
    pub table: HostTable,
    /// Which generation supplied it.
    pub source: RecoverySource,
    /// Human-readable notes about anything that went wrong on the way
    /// (e.g. why the primary was rejected). Empty on a clean load.
    pub notes: Vec<String>,
}

/// Writes and reads checkpoint generations for a run history.
///
/// Persistence goes through a [`StorageBackend`] snapshot namespace:
/// each save appends one generation (encoded header + payload), the
/// backend keeps the newest `generations` of them, and recovery scans
/// newest → oldest for the first parseable one. The path-based
/// constructor opens an [`AppendLogBackend`] rooted at the path's
/// parent, which reproduces the historical on-disk layout exactly:
/// primary at `<path>`, previous generation at `<path>.bak`, in-flight
/// writes at `<path>.tmp`.
#[derive(Clone, Debug)]
pub struct Checkpointer {
    path: PathBuf,
    ns: String,
    backend: Option<Arc<dyn StorageBackend>>,
    generations: u64,
}

impl Checkpointer {
    /// A checkpointer rooted at `path` (e.g. `state/history.ckpt`).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let ns = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "history.ckpt".to_string());
        Checkpointer {
            path,
            ns,
            backend: None,
            generations: 2,
        }
    }

    /// A checkpointer storing generations in namespace `ns` of a shared
    /// backend (the [`StorageStack`](crate::store::StorageStack) wiring).
    pub fn with_backend(backend: Arc<dyn StorageBackend>, ns: impl Into<String>) -> Self {
        let ns = ns.into();
        Checkpointer {
            path: PathBuf::from(&ns),
            ns,
            backend: Some(backend),
            generations: 2,
        }
    }

    /// Overrides how many generations the backend retains (minimum 1;
    /// the default 2 is the historical primary + `.bak` pair).
    pub fn with_generations(mut self, generations: u64) -> Self {
        self.generations = generations.max(1);
        self
    }

    /// The backend handle serving this checkpointer. The path-based
    /// constructor opens a fresh [`AppendLogBackend`] per operation so
    /// files modified behind its back (crash simulations, external
    /// corruption) are re-discovered, exactly as the direct-fs
    /// implementation behaved.
    fn store(&self) -> Result<Arc<dyn StorageBackend>, CheckpointError> {
        if let Some(b) = &self.backend {
            return Ok(Arc::clone(b));
        }
        let parent = match self.path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        Ok(Arc::new(AppendLogBackend::new(parent)?))
    }

    /// Opens the namespace and returns the backend, defining the
    /// snapshot profile idempotently.
    fn open_ns(&self) -> Result<Arc<dyn StorageBackend>, CheckpointError> {
        let b = self.store()?;
        b.define(&self.ns, NamespaceProfile::snapshot(self.generations))?;
        Ok(b)
    }

    /// The primary checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The backup generation's path (`<path>.bak`).
    pub fn backup_path(&self) -> PathBuf {
        let mut os = self.path.as_os_str().to_os_string();
        os.push(".bak");
        PathBuf::from(os)
    }

    /// The event-journal path (`<path>.journal`) — where a
    /// [`FlightRecorder`](crate::flight::FlightRecorder) co-located with
    /// this checkpoint appends its JSONL event stream.
    pub fn journal_path(&self) -> PathBuf {
        let mut os = self.path.as_os_str().to_os_string();
        os.push(".journal");
        PathBuf::from(os)
    }

    /// Atomically persists `runs` as a new checkpoint generation. The
    /// backend's snapshot contract does the heavy lifting: the payload
    /// is staged, fsynced, and renamed into place (parent directory
    /// fsynced too), the previous generation is demoted rather than
    /// destroyed, and a crash at any point leaves at least one intact
    /// generation on disk.
    ///
    /// The identity table is derived from the runs (each run's hosts
    /// interned in order); use [`Checkpointer::save_with_table`] to
    /// persist an aggregator's live master table, which may hold hosts
    /// no retained run mentions.
    pub fn save(&self, runs: &[RunRecord]) -> Result<(), CheckpointError> {
        self.save_with_table(runs, &intern_hosts(runs))
    }

    /// [`Checkpointer::save`] with an explicit master identity table.
    pub fn save_with_table(
        &self,
        runs: &[RunRecord],
        table: &HostTable,
    ) -> Result<(), CheckpointError> {
        let doc = CheckpointDoc {
            table: table.clone(),
            runs: runs.to_vec(),
        };
        let payload = serde_json::to_string(&doc)
            .map_err(|e| CheckpointError::Corrupt(format!("encode failed: {e}")))?;
        let bytes = format!("{MAGIC} v{VERSION}\n{payload}").into_bytes();
        let b = self.open_ns()?;
        b.append(&self.ns, 0, &bytes)?;
        Ok(())
    }

    /// Strictly loads the newest (primary) checkpoint generation.
    /// Errors on a missing generation, a bad header, an unsupported
    /// version, or a malformed payload.
    pub fn load(&self) -> Result<Vec<RunRecord>, CheckpointError> {
        self.load_full().map(|(runs, _)| runs)
    }

    /// Like [`Checkpointer::load`], but also returns the master identity
    /// table (rebuilt from the runs when the file predates v2).
    pub fn load_full(&self) -> Result<(Vec<RunRecord>, HostTable), CheckpointError> {
        let b = self.open_ns()?;
        match b.latest(&self.ns)? {
            Some(rec) => Self::parse_payload(&rec.value),
            None => Err(CheckpointError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "no checkpoint generation",
            ))),
        }
    }

    /// Parses one raw checkpoint file (used directly by tests that poke
    /// at a specific generation on disk).
    #[cfg_attr(not(test), allow(dead_code))]
    fn load_file(path: &Path) -> Result<(Vec<RunRecord>, HostTable), CheckpointError> {
        Self::parse_payload(&fs::read(path)?)
    }

    /// Decodes header + payload bytes into runs and identity table.
    fn parse_payload(bytes: &[u8]) -> Result<(Vec<RunRecord>, HostTable), CheckpointError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| CheckpointError::Corrupt("checkpoint is not UTF-8".to_string()))?;
        let Some((header, payload)) = text.split_once('\n') else {
            return Err(CheckpointError::Corrupt("missing header line".to_string()));
        };
        let Some(version_tag) = header.strip_prefix(MAGIC) else {
            return Err(CheckpointError::Corrupt(format!(
                "bad magic in header {header:?}"
            )));
        };
        let version: u32 = version_tag
            .trim()
            .strip_prefix('v')
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| {
                CheckpointError::Corrupt(format!("unparsable version in header {header:?}"))
            })?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(CheckpointError::BadVersion(version));
        }
        if version == 1 {
            // v1: bare run array, no persisted table. Re-interning each
            // run's hosts in order replays the intern sequence live
            // ingestion performed, so the rebuilt ids match.
            let runs: Vec<RunRecord> = serde_json::from_str(payload)
                .map_err(|e| CheckpointError::Corrupt(format!("payload rejected: {e}")))?;
            let table = intern_hosts(&runs);
            return Ok((runs, table));
        }
        let doc: CheckpointDoc = serde_json::from_str(payload)
            .map_err(|e| CheckpointError::Corrupt(format!("payload rejected: {e}")))?;
        // Integrity: every host a run mentions must be in the table —
        // a table/runs mismatch means the file was hand-edited or mixed
        // from different generations.
        for run in &doc.runs {
            for h in run.connsets.hosts() {
                if doc.table.get(h).is_none() {
                    return Err(CheckpointError::Corrupt(format!(
                        "host {h} missing from identity table"
                    )));
                }
            }
        }
        Ok((doc.runs, doc.table))
    }

    /// Loads the best available generation, never failing: the newest
    /// intact one wins (primary), older ones are fallbacks (backup),
    /// and with none usable the history starts empty. Corruption is
    /// reported in [`Recovery::notes`] rather than as an error, so a
    /// restarting aggregator always comes up.
    pub fn load_or_recover(&self) -> Recovery {
        let mut notes = Vec::new();
        let gens = match self
            .open_ns()
            .and_then(|b| b.scan(&self.ns, 0, u64::MAX).map_err(CheckpointError::from))
        {
            Ok(gens) => gens,
            Err(e) => {
                notes.push(format!("checkpoint store unreadable: {e}"));
                Vec::new()
            }
        };
        if gens.is_empty() {
            notes.push("primary checkpoint missing".to_string());
        }
        // Newest generation first: index 0 is the primary, everything
        // older is a backup.
        for (i, rec) in gens.iter().rev().enumerate() {
            let tier = if i == 0 { "primary" } else { "backup" };
            match Self::parse_payload(&rec.value) {
                Ok((runs, table)) => {
                    return Recovery {
                        runs,
                        table,
                        source: if i == 0 {
                            RecoverySource::Primary
                        } else {
                            RecoverySource::Backup
                        },
                        notes,
                    }
                }
                Err(e) => notes.push(format!("{tier} checkpoint unusable: {e}")),
            }
        }
        Recovery {
            runs: Vec::new(),
            table: HostTable::new(),
            source: RecoverySource::Fresh,
            notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Aggregator, AggregatorConfig, WindowHealth};
    use crate::probe::ReplayProbe;
    use flow::{FlowRecord, HostAddr};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("roleclass-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_runs() -> Vec<RunRecord> {
        let mut agg = Aggregator::new(AggregatorConfig {
            window_ms: 1000,
            origin_ms: 0,
            min_flows: 1,
            ..AggregatorConfig::default()
        });
        let mut trace = Vec::new();
        for d in 0..2u64 {
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
    fn save_load_round_trip() {
        let dir = temp_dir("round");
        let ck = Checkpointer::new(dir.join("history.ckpt"));
        let runs = sample_runs();
        ck.save(&runs).unwrap();
        let back = ck.load().unwrap();
        assert_eq!(back.len(), runs.len());
        assert_eq!(back[0].window, runs[0].window);
        assert_eq!(
            back[1].grouping.group_of(HostAddr::v4(1)),
            runs[1].grouping.group_of(HostAddr::v4(1))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_save_keeps_backup_generation() {
        let dir = temp_dir("backup");
        let ck = Checkpointer::new(dir.join("history.ckpt"));
        let runs = sample_runs();
        ck.save(&runs[..1]).unwrap();
        ck.save(&runs).unwrap();
        assert!(ck.backup_path().exists());
        let (backup, _) = Checkpointer::load_file(&ck.backup_path()).unwrap();
        assert_eq!(backup.len(), 1);
        assert_eq!(ck.load().unwrap().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_primary_recovers_from_backup() {
        let dir = temp_dir("trunc");
        let ck = Checkpointer::new(dir.join("history.ckpt"));
        let runs = sample_runs();
        ck.save(&runs[..1]).unwrap();
        ck.save(&runs).unwrap();
        // Simulate a crash/disk fault: chop the primary mid-payload.
        let text = fs::read_to_string(ck.path()).unwrap();
        fs::write(ck.path(), &text[..text.len() / 2]).unwrap();
        assert!(matches!(ck.load(), Err(CheckpointError::Corrupt(_))));
        let rec = ck.load_or_recover();
        assert_eq!(rec.source, RecoverySource::Backup);
        assert_eq!(rec.runs.len(), 1);
        assert!(!rec.notes.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_and_missing_files_never_panic() {
        let dir = temp_dir("garbage");
        let ck = Checkpointer::new(dir.join("history.ckpt"));
        // Missing: fresh start.
        let rec = ck.load_or_recover();
        assert_eq!(rec.source, RecoverySource::Fresh);
        assert!(rec.runs.is_empty());
        // Garbage bytes in both generations: still a fresh start.
        fs::write(ck.path(), b"\x00\xffnot a checkpoint").unwrap();
        fs::write(ck.backup_path(), b"roleclass-checkpoint v1\n{oops").unwrap();
        let rec = ck.load_or_recover();
        assert_eq!(rec.source, RecoverySource::Fresh);
        assert_eq!(rec.notes.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_version_is_rejected_not_misparsed() {
        let dir = temp_dir("version");
        let ck = Checkpointer::new(dir.join("history.ckpt"));
        fs::write(ck.path(), "roleclass-checkpoint v99\n[]").unwrap();
        assert!(matches!(ck.load(), Err(CheckpointError::BadVersion(99))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn host_table_round_trips_through_checkpoint() {
        let dir = temp_dir("table");
        let ck = Checkpointer::new(dir.join("history.ckpt"));
        let runs = sample_runs();
        // A live master table may know hosts no retained run mentions.
        let mut master = flow::HostTable::new();
        for run in &runs {
            for h in run.connsets.hosts() {
                master.intern(h);
            }
        }
        let retired = master.intern(HostAddr::v4(0xDEAD));
        ck.save_with_table(&runs, &master).unwrap();
        let (back_runs, back_table) = ck.load_full().unwrap();
        assert_eq!(back_runs.len(), runs.len());
        assert_eq!(back_table.len(), master.len());
        assert_eq!(back_table.get(HostAddr::v4(0xDEAD)), Some(retired));
        for (id, addr) in master.iter() {
            assert_eq!(back_table.get(addr), Some(id));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_checkpoints_still_load_with_rebuilt_table() {
        let dir = temp_dir("v1");
        let ck = Checkpointer::new(dir.join("history.ckpt"));
        let runs = sample_runs();
        // Hand-write a v1 file: bare run array, no table.
        let payload = serde_json::to_string(&runs).unwrap();
        fs::write(ck.path(), format!("roleclass-checkpoint v1\n{payload}")).unwrap();
        let (back_runs, table) = ck.load_full().unwrap();
        assert_eq!(back_runs.len(), runs.len());
        // The rebuilt table covers every host the runs mention, densely.
        let mut expected = flow::HostTable::new();
        for run in &runs {
            for h in run.connsets.hosts() {
                expected.intern(h);
            }
        }
        assert_eq!(table.len(), expected.len());
        for (id, addr) in expected.iter() {
            assert_eq!(table.get(addr), Some(id));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_runs_mismatch_is_corrupt() {
        let dir = temp_dir("mismatch");
        let ck = Checkpointer::new(dir.join("history.ckpt"));
        let runs = sample_runs();
        // A table that misses hosts the runs mention: rejected.
        let empty = flow::HostTable::new();
        ck.save_with_table(&runs, &empty).unwrap();
        assert!(matches!(ck.load(), Err(CheckpointError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_field_round_trips_through_checkpoint() {
        let dir = temp_dir("health");
        let ck = Checkpointer::new(dir.join("history.ckpt"));
        let mut runs = sample_runs();
        runs[0].health = WindowHealth {
            probes_total: 3,
            probes_failed: 1,
            probes_skipped: 1,
            records_accepted: 42,
            records_dropped: 7,
            retries: 2,
            errors: vec!["transient probe failure: timeout".to_string()],
        };
        ck.save(&runs).unwrap();
        let back = ck.load().unwrap();
        assert!(back[0].health.degraded());
        assert_eq!(back[0].health.records_dropped, 7);
        assert_eq!(back[0].health.errors.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
