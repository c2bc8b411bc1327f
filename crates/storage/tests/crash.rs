//! Crash-recovery behavior below the conformance suite's level: the
//! segment files themselves. Corruption detection in sealed segments,
//! retention across restarts, and directories left by older versions,
//! which merged sealed segments into covering ones, at every point of an
//! interrupted merge.

mod support;

use std::fs;
use std::path::Path;
use storage::{NamespaceProfile, Retention, StorageBackend, StorageError};
use support::{open, tear_tail, temp_base};

/// The segment file header.
const MAGIC: &[u8] = b"RCSEG1\0\0";

/// Writes 12 records (three sealed segments of four), then merges
/// segments 1 and 2 by hand into the covering segment older versions'
/// compaction wrote: `seg-000001-000002.seg`, one header followed by
/// both inputs' records, with the inputs removed.
fn build_compacted(dir: &Path) -> Vec<(u64, Vec<u8>)> {
    let b = open(dir);
    b.define("log", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    let mut expect = Vec::new();
    for key in 0..12u64 {
        let value = format!("record-{key}").into_bytes();
        b.append("log", key, &value).unwrap();
        expect.push((key, value));
    }
    b.flush().unwrap();
    drop(b);
    let log = dir.join("log");
    let mut covering = MAGIC.to_vec();
    for n in [1, 2] {
        let input = log.join(format!("seg-{n:06}-{n:06}.seg"));
        let bytes = fs::read(&input).unwrap();
        assert_eq!(&bytes[..MAGIC.len()], MAGIC);
        covering.extend_from_slice(&bytes[MAGIC.len()..]);
        fs::remove_file(input).unwrap();
    }
    fs::write(log.join("seg-000001-000002.seg"), covering).unwrap();
    expect
}

fn scan_all(b: &dyn StorageBackend) -> Vec<(u64, Vec<u8>)> {
    b.scan("log", 0, u64::MAX)
        .unwrap()
        .into_iter()
        .map(|r| (r.key, r.value))
        .collect()
}

#[test]
fn segment_crash_before_compaction_rename_discards_tmp() {
    let dir = temp_base("seg-tmp");
    let expect = build_compacted(&dir);
    // Crash window: a compaction output existed only as a temp file.
    fs::write(
        dir.join("log").join("seg-000900-000901.seg.tmp"),
        b"half-written merge",
    )
    .unwrap();
    let b = open(&dir);
    b.define("log", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    assert_eq!(scan_all(&b), expect, "data is bit-identical after recovery");
    assert!(!dir.join("log").join("seg-000900-000901.seg.tmp").exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn segment_crash_after_compaction_rename_sweeps_superseded_inputs() {
    // Build two identical histories; A keeps its segments as written,
    // B has its oldest two merged into a covering segment. Copying B's
    // covering segment into A reproduces the crash window where the
    // merge committed but the inputs were never deleted.
    let dir_a = temp_base("seg-covered-a");
    let dir_b = temp_base("seg-covered-b");
    let pre = {
        let b = open(&dir_a);
        b.define("log", NamespaceProfile::log(Retention::unbounded()))
            .unwrap();
        let mut expect = Vec::new();
        // 11 records: two sealed segments (0-3, 4-7) + active.
        for key in 0..11u64 {
            let value = format!("record-{key}").into_bytes();
            b.append("log", key, &value).unwrap();
            expect.push((key, value));
        }
        b.flush().unwrap();
        expect
    };
    let expect = build_compacted(&dir_b);
    assert_eq!(pre, expect[..11].to_vec());
    let covering = fs::read_dir(dir_b.join("log"))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .find(|n| {
            n.starts_with("seg-")
                && n.trim_start_matches("seg-")
                    .trim_end_matches(".seg")
                    .split_once('-')
                    .is_some_and(|(lo, hi)| lo != hi)
        })
        .expect("covering segment");
    fs::copy(
        dir_b.join("log").join(&covering),
        dir_a.join("log").join(&covering),
    )
    .unwrap();
    let inputs_before = fs::read_dir(dir_a.join("log")).unwrap().count();
    let b = open(&dir_a);
    b.define("log", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    // Every record is present exactly once despite the duplicate files.
    assert_eq!(scan_all(&b), pre);
    let files_after = fs::read_dir(dir_a.join("log")).unwrap().count();
    assert!(
        files_after < inputs_before,
        "superseded input segments must be swept ({inputs_before} -> {files_after})"
    );
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

#[test]
fn segment_corruption_in_sealed_segment_is_detected() {
    let dir = temp_base("seg-corrupt");
    build_compacted(&dir);
    // Corrupt a payload byte in the OLDEST segment (sealed, so open
    // must refuse rather than silently truncate history).
    let oldest = fs::read_dir(dir.join("log"))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .min()
        .unwrap();
    let mut bytes = fs::read(&oldest).unwrap();
    let n = bytes.len();
    bytes[n / 2] ^= 0x01;
    fs::write(&oldest, &bytes).unwrap();
    let b = open(&dir);
    match b.define("log", NamespaceProfile::log(Retention::unbounded())) {
        Err(StorageError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn segment_retention_drops_whole_old_segments_with_accurate_counts() {
    let dir = temp_base("seg-retain");
    let b = open(&dir);
    b.define(
        "log",
        NamespaceProfile::log(Retention::unbounded().keep_records(5)),
    )
    .unwrap();
    for key in 0..16u64 {
        b.append("log", key, format!("record-{key}").as_bytes())
            .unwrap();
    }
    let before = b.len("log").unwrap();
    let pruned = b.retain("log").unwrap();
    let after = b.len("log").unwrap();
    assert_eq!(pruned.records, before - after);
    assert!(after <= 5 || pruned.records > 0);
    assert_eq!(b.latest("log").unwrap().unwrap().key, 15);
    // The cut survives a restart (persisted min_key + deleted files).
    drop(b);
    let b = open(&dir);
    b.define("log", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    assert_eq!(b.len("log").unwrap(), after);
    assert_eq!(b.latest("log").unwrap().unwrap().key, 15);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn segment_append_below_the_retention_cutoff_is_refused_after_a_tear() {
    let dir = temp_base("seg-cut-floor");
    let keep_one = NamespaceProfile::log(Retention::unbounded().keep_records(1));
    let b = open(&dir);
    b.define("log", keep_one).unwrap();
    for key in 0..5u64 {
        b.append("log", key, format!("record-{key}").as_bytes())
            .unwrap();
    }
    // Keeps only key 4, alone in the active segment; the sealed one
    // holding keys 0..=3 is deleted.
    assert_eq!(b.retain("log").unwrap().records, 4);
    b.flush().unwrap();
    drop(b);
    tear_tail(&dir, "log");
    let b = open(&dir);
    b.define("log", keep_one).unwrap();
    assert_eq!(b.len("log").unwrap(), 0);
    // A key below the persisted cutoff would be hidden by it: the
    // append is refused instead of silently lost.
    match b.append("log", 2, b"hidden") {
        Err(StorageError::NonMonotonicKey { key, last, .. }) => assert_eq!((key, last), (2, 3)),
        other => panic!("expected NonMonotonicKey, got {other:?}"),
    }
    // The torn key itself never durably existed and is reusable.
    b.append("log", 4, b"again").unwrap();
    assert_eq!(
        scan_all(&b),
        vec![(4, b"again".to_vec())],
        "the re-appended record is visible"
    );
    let _ = fs::remove_dir_all(&dir);
}
