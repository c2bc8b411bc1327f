//! The segment store under its default options with records about the
//! size of a run record: each record is written once, into a file that
//! is never rewritten after it is sealed, and count retention keeps
//! exactly its bound however the records fall into segments.

mod support;

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use storage::{NamespaceProfile, Retention, SegmentBackend, SegmentOptions, StorageBackend};
use support::temp_base;

/// Larger than the default `max_segment_bytes`, so every append seals
/// the segment it lands in.
const RECORD: usize = 300 << 10;

fn payload(key: u64) -> Vec<u8> {
    vec![key as u8; RECORD]
}

/// `(file name, length)` of every segment file of `ns`, by name.
fn segment_files(root: &Path, ns: &str) -> BTreeMap<String, u64> {
    fs::read_dir(root.join(ns))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".seg"))
        .map(|name| {
            let len = fs::metadata(root.join(ns).join(&name)).unwrap().len();
            (name, len)
        })
        .collect()
}

#[test]
fn sealed_segments_are_written_once_under_default_options() {
    let root = temp_base("write-once");
    let b = SegmentBackend::new(&root).unwrap();
    b.define("log", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    // File header, record header, one payload.
    let max_file = SegmentOptions::default().max_segment_bytes + 8 + 16 + RECORD as u64;
    let mut sealed: BTreeMap<String, u64> = BTreeMap::new();
    for key in 0..40u64 {
        b.append("log", key, &payload(key)).unwrap();
        let files = segment_files(&root, "log");
        for (name, &len) in &files {
            let body = name.trim_start_matches("seg-").trim_end_matches(".seg");
            let (lo, hi) = body.split_once('-').unwrap();
            assert_eq!(lo, hi, "covering segment {name} after append {key}");
            assert!(len <= max_file, "{name} holds {len} bytes");
        }
        for (name, len) in &sealed {
            assert_eq!(files.get(name), Some(len), "sealed {name} changed");
        }
        // Every file but the newest is sealed.
        let newest = files.keys().next_back().cloned();
        for (name, len) in files {
            if Some(&name) != newest.as_ref() {
                sealed.entry(name).or_insert(len);
            }
        }
    }
    assert_eq!(b.len("log").unwrap(), 40);
    let all = b.scan("log", 0, u64::MAX).unwrap();
    assert!(all
        .iter()
        .enumerate()
        .all(|(i, r)| r.key == i as u64 && r.value == payload(r.key)));
    drop(b);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn keep_records_is_exact_when_every_record_fills_a_segment() {
    let root = temp_base("exact-retention");
    let b = SegmentBackend::new(&root).unwrap();
    b.define(
        "log",
        NamespaceProfile::log(Retention::unbounded().keep_records(20)),
    )
    .unwrap();
    for key in 0..60u64 {
        b.append("log", key, &payload(key)).unwrap();
        b.retain("log").unwrap();
        let kept = (key + 1).min(20);
        assert_eq!(b.len("log").unwrap(), kept, "after append {key}");
        let oldest = key + 1 - kept;
        assert_eq!(b.get("log", oldest).unwrap(), Some(payload(oldest)));
        if oldest > 0 {
            assert_eq!(b.get("log", oldest - 1).unwrap(), None);
        }
        // Disk holds the kept records plus at most one cut segment.
        assert!(segment_files(&root, "log").len() as u64 <= kept + 1);
    }
    let keys: Vec<u64> = b
        .scan("log", 0, u64::MAX)
        .unwrap()
        .iter()
        .map(|r| r.key)
        .collect();
    assert_eq!(keys, (40..60).collect::<Vec<_>>());
    drop(b);
    let _ = fs::remove_dir_all(&root);
}
