//! Crash-safe persistence of the aggregator's resume state.
//!
//! Past windows live once, in the [`RunStore`]. The checkpoint holds
//! what the store cannot supply — the master [`HostTable`] and the
//! resume cursor — so its size does not grow with the window count.
//! Restore reads the runs before the cursor back from the store. The
//! state is stored as *checkpoint generations* in a [`StorageBackend`]
//! snapshot namespace, with:
//!
//! * a **versioned header** (`roleclass-checkpoint v3`) so format drift
//!   is detected instead of misparsed;
//! * **atomic generations**: each save appends one generation under the
//!   backend's snapshot contract, so a crash mid-write can never leave a
//!   half-written newest generation;
//! * a **backup generation**: the previous checkpoint survives as an
//!   older generation, so even external corruption of the newest one
//!   recovers to the last good state;
//! * **corruption detection**: a truncated or garbage generation, or
//!   one whose table lacks a host its runs name, is rejected with a
//!   [`Recovery`] note, never a panic.

use crate::pipeline::RunRecord;
use crate::store::RunStore;
use flow::HostTable;
use serde::ser::to_value;
use serde::value::Value;
use serde::{Deserialize, Serialize, Serializer};
use std::fmt;
use std::sync::Arc;
use storage::{NamespaceProfile, StorageBackend, StorageError, CHECKPOINT_GENERATIONS};

/// First header token; anything else is not a checkpoint file.
const MAGIC: &str = "roleclass-checkpoint";
/// Current format version: v3 drops the run history (the run store
/// keeps it) and records the resume cursor instead.
const VERSION: u32 = 3;

/// The v3 payload: what a checkpoint generation holds. It covers the
/// stored runs that start before `resume_ms`.
#[derive(Debug, Default, Deserialize)]
pub struct ResumeState {
    /// The master identity table that assigned each host its dense id.
    pub table: HostTable,
    /// Window end of the newest covered run (`None` before any run):
    /// the next window starts here.
    pub resume_ms: Option<u64>,
}

impl ResumeState {
    /// How many of `runs` (oldest first) this state covers: those that
    /// start before the cursor. Every host they name must be in the
    /// table — a mismatch means the generation was hand-edited or
    /// belongs to a different store.
    fn covered(&self, runs: &[RunRecord]) -> Result<usize, CheckpointError> {
        let n = self
            .resume_ms
            .map_or(0, |t| runs.partition_point(|r| r.window.start_ms < t));
        let mut hosts = runs[..n].iter().flat_map(|run| run.connsets.hosts());
        match hosts.find(|&h| self.table.get(h).is_none()) {
            Some(h) => Err(CheckpointError::Corrupt(format!(
                "host {h} missing from identity table"
            ))),
            None => Ok(n),
        }
    }
}

/// [`ResumeState`] as written, borrowing the table (the derive cannot
/// carry a lifetime).
struct ResumeDoc<'a> {
    table: &'a HostTable,
    resume_ms: Option<u64>,
}

impl Serialize for ResumeDoc<'_> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(Value::Map(vec![
            ("table".to_string(), to_value(self.table)),
            ("resume_ms".to_string(), to_value(&self.resume_ms)),
        ]))
    }
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

/// Where a recovered state came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoverySource {
    /// The primary checkpoint was intact.
    Primary,
    /// The primary was missing or corrupt; the backup was used.
    Backup,
    /// No generation was usable; starting with an empty history.
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
    /// The stored runs the recovered generation covers, oldest first.
    pub runs: Vec<RunRecord>,
    /// The recovered table and cursor (empty for
    /// [`RecoverySource::Fresh`]).
    pub state: ResumeState,
    /// Which generation supplied it.
    pub source: RecoverySource,
    /// Human-readable notes about anything that went wrong on the way
    /// (why the primary was rejected, a gap in the stored runs). Empty
    /// on a clean load.
    pub notes: Vec<String>,
}

/// Writes and reads checkpoint generations of an aggregator's resume
/// state.
///
/// Persistence goes through a [`StorageBackend`] snapshot namespace:
/// each save appends one generation (encoded header + payload), the
/// backend keeps the newest [`CHECKPOINT_GENERATIONS`] of them (a
/// primary plus one backup), and recovery scans newest → oldest for the
/// first usable one.
#[derive(Clone, Debug)]
pub struct Checkpointer {
    ns: String,
    backend: Arc<dyn StorageBackend>,
}

impl Checkpointer {
    /// A checkpointer storing generations in namespace `ns` of a shared
    /// backend (the [`StorageStack`](crate::store::StorageStack) wiring).
    pub fn new(backend: Arc<dyn StorageBackend>, ns: impl Into<String>) -> Self {
        Checkpointer {
            ns: ns.into(),
            backend,
        }
    }

    /// Defines the snapshot namespace (idempotently) and returns the
    /// backend serving it.
    fn open_ns(&self) -> Result<&dyn StorageBackend, CheckpointError> {
        self.backend
            .define(&self.ns, NamespaceProfile::snapshot(CHECKPOINT_GENERATIONS))?;
        Ok(self.backend.as_ref())
    }

    /// Atomically persists `table` and the resume cursor of `runs` (the
    /// window end of `runs.last()`) as a new checkpoint generation. The
    /// runs themselves are not written: the run store holds them. The
    /// backend's snapshot contract does the heavy lifting: the
    /// generation is fsynced before the call returns, the previous one
    /// is kept as a backup rather than destroyed, and a crash at any
    /// point leaves at least one intact generation on disk.
    pub fn save_with_table(
        &self,
        runs: &[RunRecord],
        table: &HostTable,
    ) -> Result<(), CheckpointError> {
        let doc = ResumeDoc {
            table,
            resume_ms: runs.last().map(|r| r.window.end_ms),
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
    pub fn load(&self) -> Result<ResumeState, CheckpointError> {
        let b = self.open_ns()?;
        match b.latest(&self.ns)? {
            Some(rec) => Self::parse_payload(&rec.value),
            None => Err(CheckpointError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "no checkpoint generation",
            ))),
        }
    }

    /// Decodes header + payload bytes into the resume state.
    fn parse_payload(bytes: &[u8]) -> Result<ResumeState, CheckpointError> {
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
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        serde_json::from_str(payload)
            .map_err(|e| CheckpointError::Corrupt(format!("payload rejected: {e}")))
    }

    /// Loads the best available generation, never failing: the newest
    /// usable one wins (primary), older ones are fallbacks (backup),
    /// and with none usable the history starts empty. The runs are the
    /// ones in `store` that the generation covers (see
    /// [`ResumeState`]). Corruption, and a cursor those runs do not
    /// reach, are reported in [`Recovery::notes`] rather than as
    /// errors, so a restarting aggregator always comes up.
    pub fn load_or_recover(&self, store: Option<&RunStore>) -> Recovery {
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
        let mut runs = store
            .map_or(Ok(Vec::new()), RunStore::all)
            .unwrap_or_else(|e| {
                notes.push(format!("run store unreadable: {e}"));
                Vec::new()
            });
        // Newest generation first: index 0 is the primary, everything
        // older is a backup.
        for (i, rec) in gens.iter().rev().enumerate() {
            let tier = if i == 0 { "primary" } else { "backup" };
            let parsed = Self::parse_payload(&rec.value)
                .and_then(|state| Ok((state.covered(&runs)?, state)));
            match parsed {
                Ok((covered, state)) => {
                    runs.truncate(covered);
                    notes.extend(gap_note(store.is_some(), &runs, state.resume_ms));
                    return Recovery {
                        runs,
                        state,
                        source: if i == 0 {
                            RecoverySource::Primary
                        } else {
                            RecoverySource::Backup
                        },
                        notes,
                    };
                }
                Err(e) => notes.push(format!("{tier} checkpoint unusable: {e}")),
            }
        }
        Recovery {
            runs: Vec::new(),
            state: ResumeState::default(),
            source: RecoverySource::Fresh,
            notes,
        }
    }
}

/// Why the adopted `runs` do not reach the cursor, if they don't (a
/// failed append, or no store): correlation then anchors on an older
/// window, or none.
fn gap_note(has_store: bool, runs: &[RunRecord], resume_ms: Option<u64>) -> Option<String> {
    let resume_ms = resume_ms?;
    match runs.last().map(|r| r.window.end_ms) {
        _ if !has_store => Some(format!(
            "no run store attached: resuming at {resume_ms} without run history"
        )),
        Some(end) if end == resume_ms => None,
        Some(end) => Some(format!(
            "run history gap: the newest stored run before {resume_ms} ends at {end}"
        )),
        None => Some(format!("run history gap: no stored run before {resume_ms}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Aggregator, AggregatorConfig, WindowHealth};
    use crate::probe::ReplayProbe;
    use crate::store::{StorageStack, TempStack, CHECKPOINT_NS};
    use flow::{FlowRecord, HostAddr};

    /// Appends raw bytes as the newest checkpoint generation.
    fn append_generation(ck: &Checkpointer, bytes: &[u8]) {
        ck.open_ns().unwrap().append(&ck.ns, 0, bytes).unwrap();
    }

    /// Two windows of a three-host star, recorded into `stack`'s run
    /// store; returns the runs and the aggregator's master table.
    fn sample_runs(stack: &StorageStack) -> (Vec<RunRecord>, HostTable) {
        let mut agg = Aggregator::new(AggregatorConfig {
            window_ms: 1000,
            origin_ms: 0,
            min_flows: 1,
            ..AggregatorConfig::default()
        })
        .with_run_store(Arc::clone(stack.runs()));
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
        let runs = agg.history().read().clone();
        (runs, agg.host_table().clone())
    }

    #[test]
    fn save_load_round_trip() {
        let stack = TempStack::open("ckpt-round-trip");
        let ck = stack.checkpointer();
        let (runs, table) = sample_runs(&stack);
        ck.save_with_table(&runs, &table).unwrap();
        let back = ck.load().unwrap();
        assert_eq!(back.resume_ms, Some(runs[1].window.end_ms));
        assert_eq!(back.table.len(), table.len());
        // Restore reads the covered runs back from the store.
        let rec = ck.load_or_recover(Some(stack.runs()));
        assert_eq!(rec.source, RecoverySource::Primary);
        assert!(rec.notes.is_empty());
        assert_eq!(rec.runs.len(), runs.len());
        assert_eq!(rec.runs[0].window, runs[0].window);
        assert_eq!(
            rec.runs[1].grouping.group_of(HostAddr::v4(1)),
            runs[1].grouping.group_of(HostAddr::v4(1))
        );
    }

    #[test]
    fn second_save_keeps_backup_generation() {
        let stack = TempStack::open("ckpt-backup");
        let ck = stack.checkpointer();
        let (runs, table) = sample_runs(&stack);
        ck.save_with_table(&runs[..1], &table).unwrap();
        ck.save_with_table(&runs, &table).unwrap();
        let gens = stack.backend().scan(CHECKPOINT_NS, 0, u64::MAX).unwrap();
        assert_eq!(gens.len(), 2);
        let backup = Checkpointer::parse_payload(&gens[0].value).unwrap();
        assert_eq!(backup.resume_ms, Some(runs[0].window.end_ms));
        assert_eq!(ck.load().unwrap().resume_ms, Some(runs[1].window.end_ms));
    }

    #[test]
    fn truncated_primary_recovers_from_backup() {
        let stack = TempStack::open("ckpt-truncated");
        let ck = stack.checkpointer();
        let (runs, table) = sample_runs(&stack);
        ck.save_with_table(&runs[..1], &table).unwrap();
        // Simulate a crash/disk fault: the newest generation is the
        // full checkpoint chopped mid-payload.
        let scratch = TempStack::open("ckpt-truncated-full");
        scratch
            .checkpointer()
            .save_with_table(&runs, &table)
            .unwrap();
        let full = scratch
            .backend()
            .latest(CHECKPOINT_NS)
            .unwrap()
            .unwrap()
            .value;
        append_generation(ck, &full[..full.len() / 2]);
        assert!(matches!(ck.load(), Err(CheckpointError::Corrupt(_))));
        let rec = ck.load_or_recover(Some(stack.runs()));
        assert_eq!(rec.source, RecoverySource::Backup);
        assert_eq!(rec.runs.len(), 1);
        assert!(!rec.notes.is_empty());
    }

    #[test]
    fn garbage_and_missing_files_never_panic() {
        let stack = TempStack::open("ckpt-garbage");
        let ck = stack.checkpointer();
        // Missing: fresh start.
        let rec = ck.load_or_recover(Some(stack.runs()));
        assert_eq!(rec.source, RecoverySource::Fresh);
        assert!(rec.runs.is_empty());
        // Garbage bytes in both generations: still a fresh start.
        append_generation(ck, b"roleclass-checkpoint v3\n{oops");
        append_generation(ck, b"\x00\xffnot a checkpoint");
        let rec = ck.load_or_recover(Some(stack.runs()));
        assert_eq!(rec.source, RecoverySource::Fresh);
        assert_eq!(rec.notes.len(), 2);
    }

    #[test]
    fn future_version_is_rejected_not_misparsed() {
        let stack = TempStack::open("ckpt-version");
        let ck = stack.checkpointer();
        // v1 (runs only) and v2 (table + the whole run history) are no
        // longer read either: recovery starts fresh.
        for version in [99u32, 1, 2] {
            append_generation(
                ck,
                format!("roleclass-checkpoint v{version}\n{{\"table\":[],\"runs\":[]}}").as_bytes(),
            );
            assert!(matches!(
                ck.load(),
                Err(CheckpointError::BadVersion(v)) if v == version
            ));
        }
        assert_eq!(ck.load_or_recover(None).source, RecoverySource::Fresh);
    }

    #[test]
    fn host_table_round_trips_through_checkpoint() {
        let stack = TempStack::open("ckpt-table");
        let ck = stack.checkpointer();
        let (runs, mut master) = sample_runs(&stack);
        // A live master table may know hosts no retained run mentions.
        let retired = master.intern(HostAddr::v4(0xDEAD));
        ck.save_with_table(&runs, &master).unwrap();
        let back = ck.load().unwrap();
        assert_eq!(back.resume_ms, Some(runs[1].window.end_ms));
        assert_eq!(back.table.len(), master.len());
        assert_eq!(back.table.get(HostAddr::v4(0xDEAD)), Some(retired));
        for (id, addr) in master.iter() {
            assert_eq!(back.table.get(addr), Some(id));
        }
    }

    #[test]
    fn table_runs_mismatch_is_corrupt() {
        let stack = TempStack::open("ckpt-mismatch");
        let ck = stack.checkpointer();
        let (runs, _) = sample_runs(&stack);
        // The store holds runs, but the checkpoint's table misses the
        // hosts they mention: that generation is rejected.
        ck.save_with_table(&runs, &HostTable::new()).unwrap();
        let rec = ck.load_or_recover(Some(stack.runs()));
        assert_eq!(rec.source, RecoverySource::Fresh);
        assert!(rec.runs.is_empty());
        assert!(rec
            .notes
            .iter()
            .any(|n| n.contains("missing from identity table")));
    }

    #[test]
    fn missing_run_store_is_noted() {
        let stack = TempStack::open("ckpt-no-store");
        let ck = stack.checkpointer();
        let (runs, table) = sample_runs(&stack);
        ck.save_with_table(&runs, &table).unwrap();
        // No store: the table and cursor restore, the runs cannot.
        let rec = ck.load_or_recover(None);
        assert_eq!(rec.source, RecoverySource::Primary);
        assert!(rec.runs.is_empty());
        assert_eq!(rec.state.resume_ms, Some(runs[1].window.end_ms));
        assert!(rec.notes[0].contains("no run store attached"));
    }

    #[test]
    fn health_field_round_trips_through_restore() {
        let stack = TempStack::open("ckpt-health");
        let ck = stack.checkpointer();
        let (mut runs, table) = sample_runs(&TempStack::open("ckpt-health-runs"));
        runs[0].health = WindowHealth {
            probes_total: 3,
            probes_failed: 1,
            probes_skipped: 1,
            records_accepted: 42,
            records_dropped: 7,
            retries: 2,
            errors: vec!["transient probe failure: timeout".to_string()],
        };
        for run in &runs {
            stack.runs().record(run).unwrap();
        }
        ck.save_with_table(&runs, &table).unwrap();
        let back = ck.load_or_recover(Some(stack.runs())).runs;
        assert!(back[0].health.degraded());
        assert_eq!(back[0].health.records_dropped, 7);
        assert_eq!(back[0].health.errors.len(), 1);
    }
}
