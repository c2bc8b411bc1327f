//! The shared backend conformance suite.
//!
//! Every [`StorageBackend`] must pass the same observable-behavior
//! checks; `crates/storage/tests/conformance.rs` runs them against both
//! in-tree backends, and out-of-tree backends can reuse the suite the
//! same way. A [`Fixture`] describes how to (re)open one backend over
//! one root; reopening through the fixture is the suite's stand-in for
//! a process restart (the memory backend shares state between handles,
//! so it participates in the restart checks unchanged).
//!
//! Two classes of checks:
//!
//! * **Exact** semantics every backend must match bit-for-bit: key
//!   ordering, point lookup, scans, snapshot generation ordering and
//!   caps, `min_key` retention, monotonic-key rejection.
//! * **Granular** semantics where the contract allows backend-shaped
//!   slack: count/byte retention may keep more than the bound (the
//!   segment backend prunes whole segments), but may never reorder,
//!   drop a suffix record, or prune the namespace empty.

use crate::{
    MemoryBackend, NamespaceProfile, Record, Retention, SegmentBackend, SegmentOptions,
    StorageBackend, StorageError,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Reopens a backend over the fixture's persistent root.
type Opener = Box<dyn Fn() -> Arc<dyn StorageBackend> + Send>;

/// Tears the tail off a namespace's newest data file by name.
type TearTail = Box<dyn Fn(&str) + Send>;

/// Opens one backend implementation over one persistent root.
pub struct Fixture {
    pub name: &'static str,
    opener: Opener,
    /// Truncates the tail of the namespace's newest data file,
    /// simulating a crash mid-append. `None` for backends with no
    /// crash surface (memory).
    tear_tail: Option<TearTail>,
}

impl Fixture {
    /// A fresh handle over the fixture's root — the "restarted
    /// process" in reopen checks.
    pub fn open(&self) -> Arc<dyn StorageBackend> {
        (self.opener)()
    }

    pub fn can_tear(&self) -> bool {
        self.tear_tail.is_some()
    }

    pub fn tear_tail(&self, ns: &str) {
        (self.tear_tail.as_ref().expect("fixture cannot tear"))(ns)
    }
}

/// Chops `n` bytes off the end of `path`, tearing its final record.
fn truncate_file(path: &Path, n: u64) {
    let len = std::fs::metadata(path).expect("stat data file").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open data file");
    f.set_len(len.saturating_sub(n)).expect("truncate");
}

/// Deliberately small segment tuning so the suite exercises rotation
/// and compaction with a handful of records.
pub fn small_segment_options() -> SegmentOptions {
    SegmentOptions {
        max_segment_bytes: 1 << 20,
        max_segment_records: 4,
        compact_sealed_segments: 3,
        index_every: 2,
    }
}

/// The two in-tree backends, the segment one rooted under `base`.
pub fn fixtures(base: &Path) -> Vec<Fixture> {
    let shared = MemoryBackend::new();
    let seg_root = base.join("segment");
    let seg_tear = seg_root.clone();
    vec![
        Fixture {
            name: "memory",
            opener: Box::new(move || Arc::new(shared.clone())),
            tear_tail: None,
        },
        Fixture {
            name: "segment",
            opener: Box::new(move || {
                Arc::new(
                    SegmentBackend::with_options(&seg_root, small_segment_options())
                        .expect("open segment"),
                )
            }),
            tear_tail: Some(Box::new(move |ns| {
                let dir = seg_tear.join(ns);
                let newest = std::fs::read_dir(&dir)
                    .expect("list segments")
                    .filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|x| x == "seg"))
                    .max()
                    .expect("no segment file to tear");
                truncate_file(&newest, 2);
            })),
        },
    ]
}

fn payload(tag: &str, i: u64) -> Vec<u8> {
    // Exercise escaping and binary-safety: backslashes, newlines, CR,
    // and a non-UTF8 byte.
    let mut v = format!("{{\"tag\":\"{tag}\",\"i\":{i},\"path\":\"a\\\\b\"}}\n\r").into_bytes();
    v.push(0xFF);
    v
}

fn keys(records: &[Record]) -> Vec<u64> {
    records.iter().map(|r| r.key).collect()
}

fn values(records: &[Record]) -> Vec<Vec<u8>> {
    records.iter().map(|r| r.value.clone()).collect()
}

/// Runs every conformance check against the fixture.
pub fn run_full_suite(fix: &Fixture) {
    log_basics(fix);
    log_rejects_non_monotonic_keys(fix);
    log_state_survives_reopen(fix);
    snapshot_generations_are_ordered_and_capped(fix);
    snapshot_state_survives_reopen(fix);
    retention_by_min_key_is_exact(fix);
    retention_by_count_is_safe(fix);
    namespace_errors_are_typed(fix);
    torn_final_record_is_dropped_on_reopen(fix);
}

/// Append / get / scan / latest / len over a log namespace.
pub fn log_basics(fix: &Fixture) {
    let b = fix.open();
    b.define("conf-basics", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    for key in [10u64, 20, 30] {
        let assigned = b
            .append("conf-basics", key, &payload("basics", key))
            .unwrap();
        assert_eq!(assigned, key, "{}: log keys are caller-chosen", fix.name);
    }
    assert_eq!(b.len("conf-basics").unwrap(), 3, "{}", fix.name);
    assert_eq!(
        b.get("conf-basics", 20).unwrap(),
        Some(payload("basics", 20)),
        "{}",
        fix.name
    );
    assert_eq!(b.get("conf-basics", 15).unwrap(), None, "{}", fix.name);
    let mid = b.scan("conf-basics", 15, 30).unwrap();
    assert_eq!(keys(&mid), vec![20, 30], "{}", fix.name);
    assert_eq!(
        values(&mid),
        vec![payload("basics", 20), payload("basics", 30)],
        "{}",
        fix.name
    );
    let latest = b.latest("conf-basics").unwrap().unwrap();
    assert_eq!(
        (latest.key, latest.value),
        (30, payload("basics", 30)),
        "{}",
        fix.name
    );
    assert!(b.scan("conf-basics", 31, u64::MAX).unwrap().is_empty());
    b.flush().unwrap();
}

/// Keys must be strictly ascending in a log namespace.
pub fn log_rejects_non_monotonic_keys(fix: &Fixture) {
    let b = fix.open();
    b.define("conf-mono", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    b.append("conf-mono", 5, b"five").unwrap();
    for bad in [5u64, 4, 0] {
        match b.append("conf-mono", bad, b"stale") {
            Err(StorageError::NonMonotonicKey { key, last, .. }) => {
                assert_eq!((key, last), (bad, 5), "{}", fix.name);
            }
            other => panic!("{}: expected NonMonotonicKey, got {other:?}", fix.name),
        }
    }
    assert_eq!(b.len("conf-mono").unwrap(), 1, "{}", fix.name);
}

/// A reopened backend sees everything a flushed handle wrote, and
/// appends continue the key sequence.
pub fn log_state_survives_reopen(fix: &Fixture) {
    {
        let b = fix.open();
        b.define("conf-reopen", NamespaceProfile::log(Retention::unbounded()))
            .unwrap();
        for key in 0..10u64 {
            b.append("conf-reopen", key * 100, &payload("reopen", key))
                .unwrap();
        }
        b.flush().unwrap();
    }
    let b = fix.open();
    b.define("conf-reopen", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    assert_eq!(b.len("conf-reopen").unwrap(), 10, "{}", fix.name);
    let all = b.scan("conf-reopen", 0, u64::MAX).unwrap();
    assert_eq!(keys(&all), (0..10u64).map(|k| k * 100).collect::<Vec<_>>());
    assert_eq!(values(&all)[7], payload("reopen", 7), "{}", fix.name);
    assert_eq!(b.latest("conf-reopen").unwrap().unwrap().key, 900);
    // Continuation past the restored tail.
    b.append("conf-reopen", 901, b"after-restart").unwrap();
    assert!(matches!(
        b.append("conf-reopen", 900, b"stale"),
        Err(StorageError::NonMonotonicKey { .. })
    ));
}

/// Snapshot namespaces assign their own ascending keys, keep newest
/// values in order, and honor the generation cap on every append.
pub fn snapshot_generations_are_ordered_and_capped(fix: &Fixture) {
    let b = fix.open();
    b.define("conf-snap", NamespaceProfile::snapshot(2))
        .unwrap();
    let mut assigned = Vec::new();
    for i in 0..4u64 {
        // The caller's key is ignored for snapshots — pass garbage.
        assigned.push(b.append("conf-snap", 9999, &payload("snap", i)).unwrap());
    }
    assert!(
        assigned.windows(2).all(|w| w[0] < w[1]),
        "{}: snapshot keys ascend, got {assigned:?}",
        fix.name
    );
    assert_eq!(b.len("conf-snap").unwrap(), 2, "{}: cap of 2", fix.name);
    let retained = b.scan("conf-snap", 0, u64::MAX).unwrap();
    assert_eq!(
        values(&retained),
        vec![payload("snap", 2), payload("snap", 3)],
        "{}: newest two generations in order",
        fix.name
    );
    assert_eq!(
        b.latest("conf-snap").unwrap().unwrap().value,
        payload("snap", 3),
        "{}",
        fix.name
    );
}

/// Generation order and values survive reopen; key numerals need not.
pub fn snapshot_state_survives_reopen(fix: &Fixture) {
    {
        let b = fix.open();
        b.define("conf-snap-reopen", NamespaceProfile::snapshot(2))
            .unwrap();
        for i in 0..3u64 {
            b.append("conf-snap-reopen", 0, &payload("snapro", i))
                .unwrap();
        }
        b.flush().unwrap();
    }
    let b = fix.open();
    b.define("conf-snap-reopen", NamespaceProfile::snapshot(2))
        .unwrap();
    assert_eq!(b.len("conf-snap-reopen").unwrap(), 2, "{}", fix.name);
    let retained = b.scan("conf-snap-reopen", 0, u64::MAX).unwrap();
    assert_eq!(
        values(&retained),
        vec![payload("snapro", 1), payload("snapro", 2)],
        "{}: generation order survives restart",
        fix.name
    );
    // A post-restart append demotes the restored primary.
    b.append("conf-snap-reopen", 0, &payload("snapro", 3))
        .unwrap();
    let retained = b.scan("conf-snap-reopen", 0, u64::MAX).unwrap();
    assert_eq!(
        values(&retained),
        vec![payload("snapro", 2), payload("snapro", 3)],
        "{}",
        fix.name
    );
}

/// `min_key` retention is exact on every backend: records below the
/// cutoff disappear from every read path, and the pruned counts match.
pub fn retention_by_min_key_is_exact(fix: &Fixture) {
    let b = fix.open();
    b.define(
        "conf-minkey",
        NamespaceProfile::log(Retention::unbounded().keep_from(25)),
    )
    .unwrap();
    let mut expect_bytes = 0u64;
    for key in [10u64, 20, 30, 40] {
        let v = payload("minkey", key);
        if key < 25 {
            expect_bytes += v.len() as u64;
        }
        b.append("conf-minkey", key, &v).unwrap();
    }
    let pruned = b.retain("conf-minkey").unwrap();
    assert_eq!(pruned.records, 2, "{}", fix.name);
    assert_eq!(pruned.bytes, expect_bytes, "{}", fix.name);
    assert_eq!(b.len("conf-minkey").unwrap(), 2, "{}", fix.name);
    assert_eq!(b.get("conf-minkey", 10).unwrap(), None, "{}", fix.name);
    assert_eq!(
        keys(&b.scan("conf-minkey", 0, u64::MAX).unwrap()),
        vec![30, 40]
    );
    // Idempotent.
    assert!(b.retain("conf-minkey").unwrap().is_empty(), "{}", fix.name);
}

/// Count-bound retention may be granular (the segment backend prunes
/// whole segments) but must only ever drop a *prefix*, keep at least
/// one record — even under a bound of zero — and report exactly what it
/// dropped.
pub fn retention_by_count_is_safe(fix: &Fixture) {
    let b = fix.open();
    for bound in [3u64, 0] {
        let ns = format!("conf-count-{bound}");
        b.define(
            &ns,
            NamespaceProfile::log(Retention::unbounded().keep_records(bound)),
        )
        .unwrap();
        for key in 0..10u64 {
            b.append(&ns, key, &payload("count", key)).unwrap();
        }
        let before = b.scan(&ns, 0, u64::MAX).unwrap();
        let pruned = b.retain(&ns).unwrap();
        let after = b.scan(&ns, 0, u64::MAX).unwrap();
        assert!(
            !after.is_empty(),
            "{}: retention to {bound} pruned everything",
            fix.name
        );
        assert_eq!(
            pruned.records,
            (before.len() - after.len()) as u64,
            "{}: keep_records({bound})",
            fix.name
        );
        assert_eq!(
            &after[..],
            &before[before.len() - after.len()..],
            "{}: survivors must be a suffix under keep_records({bound})",
            fix.name
        );
        assert_eq!(
            b.latest(&ns).unwrap().unwrap().key,
            9,
            "{}: the newest record always survives keep_records({bound})",
            fix.name
        );
    }
}

/// Namespace misuse is reported as typed errors, not panics.
pub fn namespace_errors_are_typed(fix: &Fixture) {
    let b = fix.open();
    assert!(matches!(
        b.append("conf-undefined", 0, b"x"),
        Err(StorageError::UnknownNamespace(_))
    ));
    assert!(matches!(
        b.scan("conf-undefined", 0, u64::MAX),
        Err(StorageError::UnknownNamespace(_))
    ));
    assert!(matches!(
        b.define("bad/ns", NamespaceProfile::log(Retention::unbounded())),
        Err(StorageError::InvalidNamespace(_))
    ));
    b.define("conf-kind", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    assert!(matches!(
        b.define("conf-kind", NamespaceProfile::snapshot(2)),
        Err(StorageError::InvalidNamespace(_))
    ));
    // Redefining with the same kind updates retention, no error.
    b.define(
        "conf-kind",
        NamespaceProfile::log(Retention::unbounded().keep_records(5)),
    )
    .unwrap();
}

/// A crash mid-append tears at most the final record, which reopen
/// drops; the sequence then continues from the surviving tail.
pub fn torn_final_record_is_dropped_on_reopen(fix: &Fixture) {
    if !fix.can_tear() {
        return; // no crash surface (memory backend)
    }
    {
        let b = fix.open();
        b.define("conf-torn", NamespaceProfile::log(Retention::unbounded()))
            .unwrap();
        for key in [1u64, 2, 3] {
            b.append("conf-torn", key, &payload("torn", key)).unwrap();
        }
        b.flush().unwrap();
    }
    fix.tear_tail("conf-torn");
    let b = fix.open();
    b.define("conf-torn", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    assert_eq!(b.len("conf-torn").unwrap(), 2, "{}", fix.name);
    let latest = b.latest("conf-torn").unwrap().unwrap();
    assert_eq!(
        (latest.key, latest.value),
        (2, payload("torn", 2)),
        "{}",
        fix.name
    );
    // The torn key is reusable — it never durably existed.
    b.append("conf-torn", 3, &payload("torn", 33)).unwrap();
    assert_eq!(b.len("conf-torn").unwrap(), 3, "{}", fix.name);
}

/// Spawns a temp directory for a conformance run.
pub fn temp_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("roleclass-storage-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}
