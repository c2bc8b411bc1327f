//! Shared fixtures for the storage suites: a fresh temp root per test,
//! the small segment tuning that exercises rotation within a handful of
//! records, and a tail tear that simulates a crash mid-append.

#![allow(dead_code)] // each suite uses its own subset

use std::fs;
use std::path::{Path, PathBuf};
use storage::{SegmentBackend, SegmentOptions};

/// Deliberately small segment tuning: four records per segment.
pub fn small() -> SegmentOptions {
    SegmentOptions {
        max_segment_bytes: 1 << 20,
        max_segment_records: 4,
        index_every: 2,
    }
}

/// A fresh, empty temp directory named by `tag` and the process id.
pub fn temp_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("roleclass-storage-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A segment backend over `root` with the [`small`] tuning. Opening
/// the same root again is the suites' stand-in for a process restart.
pub fn open(root: &Path) -> SegmentBackend {
    SegmentBackend::with_options(root, small()).expect("open segment")
}

/// Chops two bytes off the newest segment file of namespace `ns`,
/// tearing its final record as a crash mid-append would.
pub fn tear_tail(root: &Path, ns: &str) {
    let newest = fs::read_dir(root.join(ns))
        .expect("list segments")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .max()
        .expect("no segment file to tear");
    let len = fs::metadata(&newest).expect("stat data file").len();
    fs::OpenOptions::new()
        .write(true)
        .open(&newest)
        .expect("open data file")
        .set_len(len.saturating_sub(2))
        .expect("truncate");
}
