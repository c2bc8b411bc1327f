//! Durable storage for the role-classification history plane.
//!
//! Checkpoints, the flight-recorder journal, and per-window run history
//! are *keyed record namespaces* behind one [`StorageBackend`] trait,
//! implemented by [`SegmentBackend`]: indexed, write-once segments with
//! exact retention. The trait is also the seam test fakes plug into (a
//! backend whose appends fail, like a full disk).
//!
//! # Data model
//!
//! A backend holds named **namespaces**. Every namespace is declared
//! with [`StorageBackend::define`] before use and carries a
//! [`NamespaceProfile`] — its [`NamespaceKind`] plus a [`Retention`]
//! policy. Records are `(u64 key, bytes)` pairs:
//!
//! * **Log** namespaces are append-only sequences with caller-chosen,
//!   strictly ascending keys (flight-recorder sequence numbers, window
//!   start timestamps). Keys are part of the durable contract: point
//!   lookup, range scan, and retention all address them.
//! * **Snapshot** namespaces are generation stacks (checkpoint
//!   primary/backup). The backend assigns each generation the next key
//!   itself and [`StorageBackend::append`] returns it; the durable
//!   contract is *ordering and values*, not key numerals.
//!   The generation cap in the profile's retention is applied on every
//!   append.
//!
//! # Durability contract
//!
//! * `append` on a **log** namespace is *flushed* (stream-buffered data
//!   reaches the OS) before returning, but not fsynced — a process
//!   crash can tear at most the final record, which readers drop; an OS
//!   crash may lose recently appended records.
//! * `append` on a **snapshot** namespace is *committed*: the new
//!   generation is fsynced before the call returns, so a crash at any
//!   point leaves the previous generation intact. The directory entry
//!   of a segment file created by the append is hardened by the next
//!   rotation or [`StorageBackend::flush`].
//! * [`StorageBackend::flush`] hardens everything: open log files and
//!   their directories are fsynced.
//!
//! # The backend
//!
//! [`SegmentBackend`] keeps append-only segment files with a sparse
//! in-segment index. A sealed segment is never rewritten, and retention
//! by record count and bytes is exact.

mod segment;

pub use segment::{SegmentBackend, SegmentOptions};

use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::sync::Arc;

/// Metric names the storage layer increments on the pipeline recorder.
/// Declared here (next to the code that defines their meaning) and
/// linted workspace-wide in `tests/metric_names.rs`.
pub const STORAGE_METRIC_NAMES: &[&str] = &[
    "roleclass_storage_appends_total",
    "roleclass_storage_bytes_appended_total",
    "roleclass_storage_errors_total",
    "roleclass_storage_prune_bytes_total",
    "roleclass_storage_prune_records_total",
    "roleclass_storage_prunes_total",
    "roleclass_storage_windows_skipped_total",
];

/// Event names the storage layer journals (layer `storage`).
pub const STORAGE_EVENT_NAMES: &[&str] = &[
    "roleclass_storage_history_recorded",
    "roleclass_storage_retention_pruned",
];

/// Why a storage operation failed.
#[derive(Debug)]
pub enum StorageError {
    /// Filesystem-level failure.
    Io(io::Error),
    /// On-disk state exists but cannot be parsed as this backend's
    /// format (bad magic, failed checksum, truncated non-final record).
    Corrupt(String),
    /// The namespace was never [`StorageBackend::define`]d.
    UnknownNamespace(String),
    /// The namespace name is malformed, or a redefinition conflicts
    /// with the existing profile's kind.
    InvalidNamespace(String),
    /// A log append's key is not strictly greater than the last key —
    /// the newest stored one, or the last one below the retention
    /// cutoff when that is higher.
    NonMonotonicKey { ns: String, key: u64, last: u64 },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage io error: {e}"),
            StorageError::Corrupt(why) => write!(f, "corrupt storage: {why}"),
            StorageError::UnknownNamespace(ns) => write!(f, "unknown namespace {ns:?}"),
            StorageError::InvalidNamespace(why) => write!(f, "invalid namespace: {why}"),
            StorageError::NonMonotonicKey { ns, key, last } => write!(
                f,
                "non-monotonic key {key} in log namespace {ns:?} (last key {last})"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl StorageError {
    /// Converts into an `io::Error` for call sites with io signatures.
    pub fn into_io(self) -> io::Error {
        match self {
            StorageError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Shorthand result type for storage operations. The error parameter
/// defaults to [`StorageError`] but stays overridable so derive-macro
/// expansions that spell out `Result<T, E>` still resolve.
pub type Result<T, E = StorageError> = std::result::Result<T, E>;

/// How records in a namespace are laid out and made durable. See the
/// crate-level durability contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NamespaceKind {
    /// Generation stack: backend-assigned keys, committed (fsynced)
    /// writes, automatic generation cap.
    Snapshot,
    /// Append-only sequence: caller-chosen strictly ascending keys,
    /// flushed (not fsynced) writes, explicit retention.
    Log,
}

/// What a namespace keeps. `None` means unbounded on that axis; a
/// record is pruned when it violates *any* bound. Retention is exact:
/// it keeps the longest run of newest records within every bound, and
/// always at least the newest record, even under a bound of zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Retention {
    /// Keep at most this many (newest) records.
    pub max_records: Option<u64>,
    /// Keep at most this many payload bytes (newest records first).
    pub max_bytes: Option<u64>,
}

impl Retention {
    /// Keeps everything forever.
    pub fn unbounded() -> Retention {
        Retention::default()
    }

    /// Bounds the namespace to the newest `n` records.
    pub fn keep_records(mut self, n: u64) -> Retention {
        self.max_records = Some(n);
        self
    }

    /// Bounds the namespace to the newest records whose payloads fit
    /// in `n` bytes.
    pub fn keep_bytes(mut self, n: u64) -> Retention {
        self.max_bytes = Some(n);
        self
    }
}

/// A namespace's declared layout and retention policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NamespaceProfile {
    pub kind: NamespaceKind,
    pub retention: Retention,
}

impl NamespaceProfile {
    /// A snapshot (generation-stack) namespace keeping `generations`
    /// newest generations.
    pub fn snapshot(generations: u64) -> NamespaceProfile {
        NamespaceProfile {
            kind: NamespaceKind::Snapshot,
            retention: Retention::unbounded().keep_records(generations),
        }
    }

    /// An append-only log namespace with the given retention.
    pub fn log(retention: Retention) -> NamespaceProfile {
        NamespaceProfile {
            kind: NamespaceKind::Log,
            retention,
        }
    }
}

/// One stored record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    pub key: u64,
    pub value: Vec<u8>,
}

/// What a retention pass removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pruned {
    pub records: u64,
    pub bytes: u64,
}

impl Pruned {
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    pub fn merge(self, other: Pruned) -> Pruned {
        Pruned {
            records: self.records + other.records,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// A keyed-record store. All methods take `&self` (backends are
/// internally synchronized) so one `Arc<dyn StorageBackend>` can be
/// shared by the checkpointer, the flight recorder, and the run store.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Stable backend name (`segment`), printed by `explain --state`
    /// and carried by the `roleclass_storage_history_recorded` event.
    fn name(&self) -> &'static str;

    /// Declares `ns` with `profile`. Idempotent; redefinition updates
    /// the retention policy but must not change the kind. Defining a
    /// persistent namespace also loads any state already on disk.
    fn define(&self, ns: &str, profile: NamespaceProfile) -> Result<()>;

    /// Appends one record; see [`NamespaceKind`] for the key and
    /// durability semantics. Returns the effective key (the caller's
    /// for logs, the assigned generation for snapshots).
    fn append(&self, ns: &str, key: u64, value: &[u8]) -> Result<u64>;

    /// Point lookup by key.
    fn get(&self, ns: &str, key: u64) -> Result<Option<Vec<u8>>>;

    /// All retained records with `lo <= key <= hi`, ascending.
    fn scan(&self, ns: &str, lo: u64, hi: u64) -> Result<Vec<Record>>;

    /// The newest retained record, if any.
    fn latest(&self, ns: &str) -> Result<Option<Record>>;

    /// Number of retained records.
    fn len(&self, ns: &str) -> Result<u64>;

    /// Applies the namespace profile's retention policy now, returning
    /// what was dropped. Log namespaces only prune here (and the
    /// newest record always survives); snapshot namespaces also apply
    /// their generation cap automatically on append.
    fn retain(&self, ns: &str) -> Result<Pruned>;

    /// Hardens everything appended so far: fsyncs open files and their
    /// directories. The durability point for log namespaces.
    fn flush(&self) -> Result<()>;
}

/// Validates a namespace name: path-safe, one component, no `..`.
pub(crate) fn validate_ns(ns: &str) -> Result<()> {
    let ok = !ns.is_empty()
        && ns != ".."
        && !ns.starts_with('.')
        && ns
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(StorageError::InvalidNamespace(format!(
            "bad namespace name {ns:?}"
        )))
    }
}

/// Checkpoint generations kept: the primary plus one backup, so a
/// corrupt newest generation still recovers to the one before it.
pub const CHECKPOINT_GENERATIONS: u64 = 2;

/// Typed storage configuration: where the segment store lives and how
/// much history each namespace class retains. Serde-able,
/// builder-style `with_*`, opened into a live backend with
/// [`StorageConfig::open`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StorageConfig {
    /// Root directory of the segment store.
    pub root: String,
    /// Flight-journal retention: newest records kept.
    pub journal_keep_records: Option<u64>,
    /// Flight-journal retention: newest payload bytes kept.
    pub journal_keep_bytes: Option<u64>,
    /// Run-history retention: newest windows kept.
    pub history_keep_windows: Option<u64>,
    /// Run-history retention: newest payload bytes kept.
    pub history_keep_bytes: Option<u64>,
}

impl StorageConfig {
    /// Segment-backed storage rooted at `root`, with the default
    /// bounded-disk retention (4096 journal records / 1024 windows).
    pub fn new(root: impl Into<String>) -> StorageConfig {
        StorageConfig {
            root: root.into(),
            journal_keep_records: Some(4096),
            journal_keep_bytes: None,
            history_keep_windows: Some(1024),
            history_keep_bytes: None,
        }
    }

    pub fn with_journal_retention(mut self, records: Option<u64>, bytes: Option<u64>) -> Self {
        self.journal_keep_records = records;
        self.journal_keep_bytes = bytes;
        self
    }

    pub fn with_history_retention(mut self, windows: Option<u64>, bytes: Option<u64>) -> Self {
        self.history_keep_windows = windows;
        self.history_keep_bytes = bytes;
        self
    }

    /// The retention profile for the flight journal namespace.
    pub fn journal_profile(&self) -> NamespaceProfile {
        NamespaceProfile::log(Retention {
            max_records: self.journal_keep_records,
            max_bytes: self.journal_keep_bytes,
        })
    }

    /// The retention profile for the run-history namespace.
    pub fn history_profile(&self) -> NamespaceProfile {
        NamespaceProfile::log(Retention {
            max_records: self.history_keep_windows,
            max_bytes: self.history_keep_bytes,
        })
    }

    /// The generation profile for the checkpoint namespace.
    pub fn checkpoint_profile(&self) -> NamespaceProfile {
        NamespaceProfile::snapshot(CHECKPOINT_GENERATIONS)
    }

    /// Opens the segment backend at `root`, creating the directory.
    pub fn open(&self) -> Result<Arc<dyn StorageBackend>> {
        Ok(Arc::new(SegmentBackend::new(&self.root)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lowest key that survives `retain` under `policy` on a log
    /// holding `records` (ascending `(key, payload bytes)` pairs), or
    /// `None` when the log is within every bound.
    fn cutoff(policy: Retention, records: &[(u64, u64)]) -> Option<u64> {
        static RUN: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "roleclass-retention-{}-{}",
            std::process::id(),
            RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let b = SegmentBackend::new(&dir).unwrap();
        b.define("log", NamespaceProfile::log(policy)).unwrap();
        for &(key, bytes) in records {
            b.append("log", key, &vec![0; bytes as usize]).unwrap();
        }
        b.retain("log").unwrap();
        let first = b.scan("log", 0, u64::MAX).unwrap()[0].key;
        drop(b);
        let _ = std::fs::remove_dir_all(&dir);
        let bytes: u64 = records.iter().map(|&(_, n)| n).sum();
        let over = policy.max_records.is_some_and(|m| records.len() as u64 > m)
            || policy.max_bytes.is_some_and(|m| bytes > m);
        over.then_some(first)
    }

    #[test]
    fn retention_cutoff_combines_axes() {
        let recs: Vec<(u64, u64)> = (0..10).map(|k| (k * 10, 100)).collect();
        assert_eq!(cutoff(Retention::unbounded(), &recs), None);
        assert_eq!(
            cutoff(Retention::unbounded().keep_records(3), &recs),
            Some(70)
        );
        assert_eq!(
            cutoff(Retention::unbounded().keep_bytes(250), &recs),
            Some(80)
        );
        assert_eq!(
            cutoff(Retention::unbounded().keep_records(0), &recs),
            Some(90)
        );
        // Strictest axis wins.
        let r = Retention {
            max_records: Some(8),
            max_bytes: Some(250),
        };
        assert_eq!(cutoff(r, &recs), Some(80));
        // A single over-budget record survives: never prune to empty.
        let big = vec![(5u64, 1000u64)];
        assert_eq!(cutoff(Retention::unbounded().keep_bytes(10), &big), Some(5));
    }

    #[test]
    fn namespace_names_are_validated() {
        assert!(validate_ns("history.ckpt").is_ok());
        assert!(validate_ns("events-journal_2").is_ok());
        assert!(validate_ns("").is_err());
        assert!(validate_ns("..").is_err());
        assert!(validate_ns(".hidden").is_err());
        assert!(validate_ns("a/b").is_err());
    }

    #[test]
    fn storage_config_round_trips() {
        let cfg = StorageConfig::new("/tmp/state")
            .with_journal_retention(Some(10), Some(1 << 20))
            .with_history_retention(None, Some(4096));
        let json = serde_json::to_string(&cfg).unwrap();
        let back: StorageConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
