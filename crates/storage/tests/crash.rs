//! Crash-recovery behavior below the conformance suite's level: the
//! segment files themselves. Corruption detection in sealed segments,
//! retention across restarts, and every window of an interrupted
//! segment compaction.

mod support;

use std::fs;
use std::path::Path;
use storage::{NamespaceProfile, Retention, StorageBackend, StorageError};
use support::{open, temp_base};

/// Drives enough appends through a segment namespace that at least one
/// compaction has produced a covering segment.
fn build_compacted(dir: &Path) -> Vec<(u64, Vec<u8>)> {
    let b = open(dir);
    b.define("log", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    let mut expect = Vec::new();
    // 12 records = three seals, which triggers exactly ONE compaction:
    // the covering segment holds keys 0..=7 and nothing newer.
    for key in 0..12u64 {
        let value = format!("record-{key}").into_bytes();
        b.append("log", key, &value).unwrap();
        expect.push((key, value));
    }
    b.flush().unwrap();
    let covering = fs::read_dir(dir.join("log"))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("seg-") && {
                let body = name.trim_start_matches("seg-").trim_end_matches(".seg");
                let (lo, hi) = body.split_once('-').unwrap();
                lo != hi
            }
        })
        .count();
    assert!(covering >= 1, "the workload must trigger a compaction");
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
    // Build two identical histories; A stops before the compaction,
    // B runs past it. Copying B's covering segment into A reproduces
    // the crash window where the merge committed but the inputs were
    // never deleted.
    let dir_a = temp_base("seg-covered-a");
    let dir_b = temp_base("seg-covered-b");
    let pre = {
        let b = open(&dir_a);
        b.define("log", NamespaceProfile::log(Retention::unbounded()))
            .unwrap();
        let mut expect = Vec::new();
        // 11 records: two sealed segments (0-3, 4-7) + active, one
        // append short of the third seal that triggers compaction.
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
