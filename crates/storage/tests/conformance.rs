//! The storage contract, checked on the segment backend: key ordering,
//! point lookup, scans, snapshot generation ordering and caps, retention
//! accounting, typed namespace errors, and torn-tail recovery. Reopening
//! a root is the suite's stand-in for a process restart.
//!
//! Every check is exact: key ordering, point lookup, scans, snapshot
//! generation ordering and caps, monotonic-key rejection, and count
//! retention, which keeps exactly the bound (at least one record) and
//! never reorders or drops a suffix record.

mod support;

use std::path::Path;
use storage::{NamespaceProfile, Record, Retention, StorageBackend, StorageError};
use support::{open, tear_tail, temp_base};

#[test]
fn segment_backend_conforms() {
    let root = temp_base("conf-segment");
    log_basics(&root);
    log_rejects_non_monotonic_keys(&root);
    log_state_survives_reopen(&root);
    snapshot_generations_are_ordered_and_capped(&root);
    snapshot_state_survives_reopen(&root);
    retention_by_count_is_safe(&root);
    namespace_errors_are_typed(&root);
    torn_final_record_is_dropped_on_reopen(&root);
    let _ = std::fs::remove_dir_all(&root);
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

/// Append / get / scan / latest / len over a log namespace.
fn log_basics(root: &Path) {
    let b = open(root);
    b.define("conf-basics", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    for key in [10u64, 20, 30] {
        let assigned = b
            .append("conf-basics", key, &payload("basics", key))
            .unwrap();
        assert_eq!(assigned, key, "log keys are caller-chosen");
    }
    assert_eq!(b.len("conf-basics").unwrap(), 3);
    assert_eq!(
        b.get("conf-basics", 20).unwrap(),
        Some(payload("basics", 20))
    );
    assert_eq!(b.get("conf-basics", 15).unwrap(), None);
    let mid = b.scan("conf-basics", 15, 30).unwrap();
    assert_eq!(keys(&mid), vec![20, 30]);
    assert_eq!(
        values(&mid),
        vec![payload("basics", 20), payload("basics", 30)]
    );
    let latest = b.latest("conf-basics").unwrap().unwrap();
    assert_eq!((latest.key, latest.value), (30, payload("basics", 30)));
    assert!(b.scan("conf-basics", 31, u64::MAX).unwrap().is_empty());
    b.flush().unwrap();
}

/// Keys must be strictly ascending in a log namespace.
fn log_rejects_non_monotonic_keys(root: &Path) {
    let b = open(root);
    b.define("conf-mono", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    b.append("conf-mono", 5, b"five").unwrap();
    for bad in [5u64, 4, 0] {
        match b.append("conf-mono", bad, b"stale") {
            Err(StorageError::NonMonotonicKey { key, last, .. }) => {
                assert_eq!((key, last), (bad, 5));
            }
            other => panic!("expected NonMonotonicKey, got {other:?}"),
        }
    }
    assert_eq!(b.len("conf-mono").unwrap(), 1);
}

/// A reopened backend sees everything a flushed handle wrote, and
/// appends continue the key sequence.
fn log_state_survives_reopen(root: &Path) {
    {
        let b = open(root);
        b.define("conf-reopen", NamespaceProfile::log(Retention::unbounded()))
            .unwrap();
        for key in 0..10u64 {
            b.append("conf-reopen", key * 100, &payload("reopen", key))
                .unwrap();
        }
        b.flush().unwrap();
    }
    let b = open(root);
    b.define("conf-reopen", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    assert_eq!(b.len("conf-reopen").unwrap(), 10);
    let all = b.scan("conf-reopen", 0, u64::MAX).unwrap();
    assert_eq!(keys(&all), (0..10u64).map(|k| k * 100).collect::<Vec<_>>());
    assert_eq!(values(&all)[7], payload("reopen", 7));
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
fn snapshot_generations_are_ordered_and_capped(root: &Path) {
    let b = open(root);
    b.define("conf-snap", NamespaceProfile::snapshot(2))
        .unwrap();
    let mut assigned = Vec::new();
    for i in 0..4u64 {
        // The caller's key is ignored for snapshots — pass garbage.
        assigned.push(b.append("conf-snap", 9999, &payload("snap", i)).unwrap());
    }
    assert!(
        assigned.windows(2).all(|w| w[0] < w[1]),
        "snapshot keys ascend, got {assigned:?}"
    );
    assert_eq!(b.len("conf-snap").unwrap(), 2, "cap of 2");
    let retained = b.scan("conf-snap", 0, u64::MAX).unwrap();
    assert_eq!(
        values(&retained),
        vec![payload("snap", 2), payload("snap", 3)],
        "newest two generations in order"
    );
    assert_eq!(
        b.latest("conf-snap").unwrap().unwrap().value,
        payload("snap", 3)
    );
}

/// Generation order and values survive reopen; key numerals need not.
fn snapshot_state_survives_reopen(root: &Path) {
    {
        let b = open(root);
        b.define("conf-snap-reopen", NamespaceProfile::snapshot(2))
            .unwrap();
        for i in 0..3u64 {
            b.append("conf-snap-reopen", 0, &payload("snapro", i))
                .unwrap();
        }
        b.flush().unwrap();
    }
    let b = open(root);
    b.define("conf-snap-reopen", NamespaceProfile::snapshot(2))
        .unwrap();
    assert_eq!(b.len("conf-snap-reopen").unwrap(), 2);
    let retained = b.scan("conf-snap-reopen", 0, u64::MAX).unwrap();
    assert_eq!(
        values(&retained),
        vec![payload("snapro", 1), payload("snapro", 2)],
        "generation order survives restart"
    );
    // A post-restart append demotes the restored primary.
    b.append("conf-snap-reopen", 0, &payload("snapro", 3))
        .unwrap();
    let retained = b.scan("conf-snap-reopen", 0, u64::MAX).unwrap();
    assert_eq!(
        values(&retained),
        vec![payload("snapro", 2), payload("snapro", 3)]
    );
}

/// Count-bound retention keeps exactly the newest `bound` records —
/// one under a bound of zero — drops only a *prefix*, and reports
/// exactly what it dropped.
fn retention_by_count_is_safe(root: &Path) {
    let b = open(root);
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
        assert!(!after.is_empty(), "retention to {bound} pruned everything");
        assert_eq!(
            after.len() as u64,
            bound.max(1),
            "keep_records({bound}) keeps exactly that many"
        );
        assert_eq!(
            pruned.records,
            (before.len() - after.len()) as u64,
            "keep_records({bound})"
        );
        assert_eq!(
            &after[..],
            &before[before.len() - after.len()..],
            "survivors must be a suffix under keep_records({bound})"
        );
        assert_eq!(
            b.latest(&ns).unwrap().unwrap().key,
            9,
            "the newest record always survives keep_records({bound})"
        );
    }
}

/// Namespace misuse is reported as typed errors, not panics.
fn namespace_errors_are_typed(root: &Path) {
    let b = open(root);
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
fn torn_final_record_is_dropped_on_reopen(root: &Path) {
    {
        let b = open(root);
        b.define("conf-torn", NamespaceProfile::log(Retention::unbounded()))
            .unwrap();
        for key in [1u64, 2, 3] {
            b.append("conf-torn", key, &payload("torn", key)).unwrap();
        }
        b.flush().unwrap();
    }
    tear_tail(root, "conf-torn");
    let b = open(root);
    b.define("conf-torn", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    assert_eq!(b.len("conf-torn").unwrap(), 2);
    let latest = b.latest("conf-torn").unwrap().unwrap();
    assert_eq!((latest.key, latest.value), (2, payload("torn", 2)));
    // The torn key is reusable — it never durably existed.
    b.append("conf-torn", 3, &payload("torn", 33)).unwrap();
    assert_eq!(b.len("conf-torn").unwrap(), 3);
}
