//! The indexed-segment backend: months of history in bounded disk.
//!
//! Each namespace is a directory of append-only segment files named
//! `seg-<lo>-<hi>.seg`, where `lo..=hi` is the range of *file sequence
//! numbers* the segment covers — a freshly written segment covers just
//! its own number; a compacted segment covers every input it merged,
//! which is what makes crash recovery deterministic (see below). A
//! segment holds length-prefixed, checksummed records:
//!
//! ```text
//! "RCSEG1\0\0"                      8-byte file header
//! [u32 len][u64 key][u32 fnv1a][payload]   repeated, big-endian
//! ```
//!
//! * **Appends** go to the active (newest) segment, flushed per record;
//!   a crash can tear only the final record of the active segment,
//!   which open-time validation truncates away. A torn or corrupt
//!   record anywhere else is reported as [`StorageError::Corrupt`].
//! * **Rotation** seals the active segment (fsync) once it exceeds the
//!   configured size or record count and starts a new one.
//! * **Compaction** is background-free: after a rotation, if enough
//!   sealed segments have piled up, the two oldest are merged into a
//!   covering segment (written to a temp file, fsynced, renamed, then
//!   the inputs deleted and the directory fsynced). A crash at any
//!   point self-heals on open: a leftover `.tmp` is deleted, and a
//!   completed covering segment supersedes any file whose range it
//!   contains, so surviving inputs are swept then.
//! * **Retention** drops whole oldest segments (count/byte bounds are
//!   therefore segment-granular) and maintains a logical `min_key`
//!   cutoff — persisted in the namespace's `meta` file — for the exact
//!   key-based cut, including inside the active segment.
//! * A **sparse in-segment index** (every Nth record's key and offset)
//!   keeps point lookups and range scans from replaying whole
//!   segments.

use crate::{
    validate_ns, NamespaceKind, NamespaceProfile, Pruned, Record, Result, StorageBackend,
    StorageError,
};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const MAGIC: [u8; 8] = *b"RCSEG1\0\0";
const REC_HEADER: usize = 4 + 8 + 4;

/// Tuning knobs for [`SegmentBackend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentOptions {
    /// Seal the active segment once its file exceeds this many bytes.
    pub max_segment_bytes: u64,
    /// Seal the active segment once it holds this many records.
    pub max_segment_records: u64,
    /// Merge the two oldest sealed segments once this many are sealed.
    pub compact_sealed_segments: usize,
    /// Index every Nth record inside a segment.
    pub index_every: u32,
}

impl Default for SegmentOptions {
    fn default() -> Self {
        SegmentOptions {
            max_segment_bytes: 256 << 10,
            max_segment_records: 4096,
            compact_sealed_segments: 8,
            index_every: 16,
        }
    }
}

#[derive(Debug)]
struct SegMeta {
    lo: u32,
    hi: u32,
    path: PathBuf,
    first_key: u64,
    last_key: u64,
    records: u64,
    bytes: u64,
    /// Records/bytes of this segment below the namespace `min_key`.
    cut_records: u64,
    cut_bytes: u64,
    /// Sparse `(key, file offset)` pairs, always including the first
    /// and last record.
    index: Vec<(u64, u64)>,
    file_len: u64,
    last_off: u64,
}

impl SegMeta {
    fn live_records(&self) -> u64 {
        self.records - self.cut_records
    }
    fn live_bytes(&self) -> u64 {
        self.bytes - self.cut_bytes
    }
}

#[derive(Debug)]
struct SegNs {
    profile: NamespaceProfile,
    dir: PathBuf,
    /// Keys below this are logically pruned (0 = none).
    min_key: u64,
    sealed: Vec<SegMeta>,
    active: Option<(SegMeta, File)>,
    next_file: u32,
    next_snap_key: u64,
}

/// The indexed-segment [`StorageBackend`]. See the module docs.
#[derive(Debug)]
pub struct SegmentBackend {
    root: PathBuf,
    options: SegmentOptions,
    spaces: Mutex<BTreeMap<String, SegNs>>,
}

/// FNV-1a over `bytes`, the per-record checksum.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x01000193);
    }
    h
}

/// Fsyncs the directory at `dir` so renames/creates inside it are
/// durable. Directory handles can't be fsynced on some filesystems;
/// that is reported as an error only if the open itself fails.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    let d = std::fs::File::open(dir)?;
    // A few filesystems reject fsync on directory handles; losing the
    // sync there is the platform's durability floor, not an API error.
    let _ = d.sync_all();
    Ok(())
}

fn seg_name(lo: u32, hi: u32) -> String {
    format!("seg-{lo:06}-{hi:06}.seg")
}

fn parse_seg_name(name: &str) -> Option<(u32, u32)> {
    let body = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    let (lo, hi) = body.split_once('-')?;
    if lo.len() != 6 || hi.len() != 6 {
        return None;
    }
    let (lo, hi) = (lo.parse().ok()?, hi.parse().ok()?);
    (lo <= hi).then_some((lo, hi))
}

fn encode_record(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(REC_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&key.to_be_bytes());
    out.extend_from_slice(&fnv1a(payload).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Walks the records of segment bytes starting at `offset`, calling
/// `visit(key, offset, payload)` until it returns `false`. Returns the
/// offset of the first byte that does *not* parse as a complete, valid
/// record (== `bytes.len()` when the file is clean).
fn walk(bytes: &[u8], mut offset: usize, mut visit: impl FnMut(u64, u64, &[u8]) -> bool) -> usize {
    loop {
        if bytes.len() < offset + REC_HEADER {
            return offset;
        }
        let len = u32::from_be_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        let key = u64::from_be_bytes(bytes[offset + 4..offset + 12].try_into().unwrap());
        let crc = u32::from_be_bytes(bytes[offset + 12..offset + 16].try_into().unwrap());
        let end = offset + REC_HEADER + len;
        if bytes.len() < end {
            return offset;
        }
        let payload = &bytes[offset + REC_HEADER..end];
        if fnv1a(payload) != crc {
            return offset;
        }
        if !visit(key, offset as u64, payload) {
            return end;
        }
        offset = end;
    }
}

impl SegmentBackend {
    /// Opens (creating) the backend rooted at `dir` with default
    /// [`SegmentOptions`].
    pub fn new(dir: impl Into<PathBuf>) -> Result<SegmentBackend> {
        SegmentBackend::with_options(dir, SegmentOptions::default())
    }

    /// Opens with explicit tuning options.
    pub fn with_options(
        dir: impl Into<PathBuf>,
        options: SegmentOptions,
    ) -> Result<SegmentBackend> {
        let root = dir.into();
        fs::create_dir_all(&root)?;
        Ok(SegmentBackend {
            root,
            options,
            spaces: Mutex::new(BTreeMap::new()),
        })
    }

    /// The backing directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn meta_path(dir: &Path) -> PathBuf {
        dir.join("meta")
    }

    fn read_min_key(dir: &Path) -> Result<u64> {
        match fs::read_to_string(Self::meta_path(dir)) {
            Ok(text) => text
                .trim()
                .strip_prefix("min_key=")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| StorageError::Corrupt(format!("bad meta file in {dir:?}"))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    fn write_min_key(dir: &Path, min_key: u64) -> Result<()> {
        let tmp = dir.join("meta.tmp");
        {
            let mut f = File::create(&tmp)?;
            writeln!(f, "min_key={min_key}")?;
            f.sync_all()?;
        }
        fs::rename(&tmp, Self::meta_path(dir))?;
        sync_dir(dir)?;
        Ok(())
    }

    /// Validates one segment file and builds its metadata. `tolerant`
    /// (active segment) truncates a torn tail instead of erroring, and
    /// returns `None` after discarding a file too short to hold the
    /// magic — a crash during segment creation leaves a partial magic
    /// behind, and such a file never held a committed record.
    fn open_segment(
        &self,
        path: &Path,
        lo: u32,
        hi: u32,
        min_key: u64,
        tolerant: bool,
    ) -> Result<Option<SegMeta>> {
        let bytes = fs::read(path)?;
        if tolerant && bytes.len() < MAGIC.len() {
            fs::remove_file(path)?;
            return Ok(None);
        }
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(StorageError::Corrupt(format!(
                "{path:?}: bad segment magic"
            )));
        }
        let mut meta = SegMeta {
            lo,
            hi,
            path: path.to_path_buf(),
            first_key: 0,
            last_key: 0,
            records: 0,
            bytes: 0,
            cut_records: 0,
            cut_bytes: 0,
            index: Vec::new(),
            file_len: 0,
            last_off: 0,
        };
        let every = self.options.index_every.max(1);
        let end = walk(&bytes, MAGIC.len(), |key, off, payload| {
            if meta.records == 0 {
                meta.first_key = key;
            }
            if meta.records.is_multiple_of(u64::from(every)) {
                meta.index.push((key, off));
            }
            meta.last_key = key;
            meta.last_off = off;
            meta.records += 1;
            meta.bytes += payload.len() as u64;
            if key < min_key {
                meta.cut_records += 1;
                meta.cut_bytes += payload.len() as u64;
            }
            true
        });
        if end != bytes.len() {
            if !tolerant {
                return Err(StorageError::Corrupt(format!(
                    "{path:?}: invalid record at byte {end}"
                )));
            }
            // Torn tail on the active segment: truncate to the last
            // complete record.
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(end as u64)?;
            f.sync_all()?;
        }
        meta.file_len = end as u64;
        Ok(Some(meta))
    }

    fn open_ns(&self, ns: &str, profile: NamespaceProfile) -> Result<SegNs> {
        let dir = self.root.join(ns);
        fs::create_dir_all(&dir)?;
        let min_key = Self::read_min_key(&dir)?;
        let mut files: Vec<(u32, u32, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                // Crash leftover: never renamed, never committed.
                let _ = fs::remove_file(entry.path());
            } else if let Some((lo, hi)) = parse_seg_name(&name) {
                files.push((lo, hi, entry.path()));
            }
        }
        // Widest range first for equal `lo`, so a covering (compacted)
        // segment is visited before any file it contains.
        files.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        // A covering segment supersedes any file whose range it
        // contains — the surviving inputs of an interrupted compaction
        // are swept here.
        let mut keep: Vec<(u32, u32, PathBuf)> = Vec::new();
        for (lo, hi, path) in files {
            let superseded = keep
                .iter()
                .any(|&(klo, khi, _)| klo <= lo && hi <= khi && (klo, khi) != (lo, hi));
            if superseded {
                let _ = fs::remove_file(&path);
                continue;
            }
            // A covering segment always precedes its contained files,
            // so anything still overlapping the kept tail is real
            // corruption, not compaction leftovers.
            if let Some(&(_, phi, _)) = keep.last() {
                if lo <= phi {
                    return Err(StorageError::Corrupt(format!(
                        "{dir:?}: overlapping segments ..{phi:06} and {lo:06}.."
                    )));
                }
            }
            keep.push((lo, hi, path));
        }
        let mut sealed = Vec::new();
        let count = keep.len();
        let mut active = None;
        let mut next_file = 1u32;
        let mut last_key_overall = None;
        for (i, (lo, hi, path)) in keep.into_iter().enumerate() {
            let tolerant = i + 1 == count;
            let Some(meta) = self.open_segment(&path, lo, hi, min_key, tolerant)? else {
                next_file = hi + 1;
                continue;
            };
            if let Some(last) = last_key_overall {
                if meta.records > 0 && meta.first_key <= last {
                    return Err(StorageError::Corrupt(format!(
                        "{path:?}: keys regress across segments"
                    )));
                }
            }
            if meta.records > 0 {
                last_key_overall = Some(meta.last_key);
            }
            next_file = hi + 1;
            if tolerant {
                let mut f = OpenOptions::new().write(true).open(&path)?;
                f.seek(SeekFrom::End(0))?;
                active = Some((meta, f));
            } else {
                sealed.push(meta);
            }
        }
        let next_snap_key = last_key_overall.map_or(0, |k| k + 1);
        Ok(SegNs {
            profile,
            dir,
            min_key,
            sealed,
            active,
            next_file,
            next_snap_key,
        })
    }

    fn with_ns<T>(&self, ns: &str, f: impl FnOnce(&mut SegNs) -> Result<T>) -> Result<T> {
        let mut spaces = self.spaces.lock().unwrap_or_else(|e| e.into_inner());
        let space = spaces
            .get_mut(ns)
            .ok_or_else(|| StorageError::UnknownNamespace(ns.to_string()))?;
        f(space)
    }

    fn start_segment(space: &mut SegNs) -> Result<()> {
        let n = space.next_file;
        space.next_file += 1;
        let path = space.dir.join(seg_name(n, n));
        let mut f = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)?;
        f.write_all(&MAGIC)?;
        f.flush()?;
        space.active = Some((
            SegMeta {
                lo: n,
                hi: n,
                path,
                first_key: 0,
                last_key: 0,
                records: 0,
                bytes: 0,
                cut_records: 0,
                cut_bytes: 0,
                index: Vec::new(),
                file_len: MAGIC.len() as u64,
                last_off: 0,
            },
            f,
        ));
        Ok(())
    }

    fn last_key(space: &SegNs) -> Option<u64> {
        space
            .active
            .as_ref()
            .filter(|(m, _)| m.records > 0)
            .map(|(m, _)| m.last_key)
            .or_else(|| {
                space
                    .sealed
                    .iter()
                    .rev()
                    .find(|m| m.records > 0)
                    .map(|m| m.last_key)
            })
    }

    fn append_locked(&self, ns: &str, space: &mut SegNs, key: u64, value: &[u8]) -> Result<u64> {
        let key = match space.profile.kind {
            NamespaceKind::Log => {
                if let Some(last) = Self::last_key(space) {
                    if key <= last {
                        return Err(StorageError::NonMonotonicKey {
                            ns: ns.to_string(),
                            key,
                            last,
                        });
                    }
                }
                key
            }
            NamespaceKind::Snapshot => {
                let k = space.next_snap_key;
                space.next_snap_key += 1;
                k
            }
        };
        if space.active.is_none() {
            Self::start_segment(space)?;
        }
        let every = u64::from(self.options.index_every.max(1));
        {
            let (meta, file) = space.active.as_mut().unwrap();
            let rec = encode_record(key, value);
            file.write_all(&rec)?;
            file.flush()?;
            if meta.records == 0 {
                meta.first_key = key;
            }
            if meta.records % every == 0 {
                meta.index.push((key, meta.file_len));
            }
            meta.last_key = key;
            meta.last_off = meta.file_len;
            meta.records += 1;
            meta.bytes += value.len() as u64;
            meta.file_len += rec.len() as u64;
        }
        if space.profile.kind == NamespaceKind::Snapshot {
            // Snapshot generations are fsynced per append (the commit
            // contract) and auto-capped via the logical cutoff.
            space.active.as_mut().unwrap().1.sync_all()?;
            if let Some(cap) = space.profile.retention.max_records {
                let cut = key + 1 - cap.max(1).min(key + 1);
                if cut > space.min_key {
                    self.set_min_key(space, cut)?;
                    self.drop_dead_segments(space)?;
                }
            }
        }
        self.maybe_rotate(space)?;
        Ok(key)
    }

    fn maybe_rotate(&self, space: &mut SegNs) -> Result<()> {
        let rotate = space.active.as_ref().is_some_and(|(m, _)| {
            m.records >= self.options.max_segment_records
                || m.file_len >= self.options.max_segment_bytes + MAGIC.len() as u64
        });
        if !rotate {
            return Ok(());
        }
        let (meta, file) = space.active.take().unwrap();
        file.sync_all()?;
        sync_dir(&space.dir)?;
        space.sealed.push(meta);
        if space.sealed.len() >= self.options.compact_sealed_segments.max(2) {
            self.compact_oldest(space)?;
        }
        Ok(())
    }

    /// Merges the two oldest sealed segments into one covering segment.
    fn compact_oldest(&self, space: &mut SegNs) -> Result<()> {
        if space.sealed.len() < 2 {
            return Ok(());
        }
        let a = &space.sealed[0];
        let b = &space.sealed[1];
        let (lo, hi) = (a.lo, b.hi);
        let out_path = space.dir.join(seg_name(lo, hi));
        let tmp = space.dir.join(format!("{}.tmp", seg_name(lo, hi)));
        let every = u64::from(self.options.index_every.max(1));
        let min_key = space.min_key;
        let mut merged = SegMeta {
            lo,
            hi,
            path: out_path.clone(),
            first_key: 0,
            last_key: 0,
            records: 0,
            bytes: 0,
            cut_records: 0,
            cut_bytes: 0,
            index: Vec::new(),
            file_len: MAGIC.len() as u64,
            last_off: 0,
        };
        {
            let mut out = File::create(&tmp)?;
            out.write_all(&MAGIC)?;
            for seg in &space.sealed[..2] {
                let bytes = fs::read(&seg.path)?;
                let end = walk(&bytes, MAGIC.len(), |key, _, payload| {
                    if key < min_key {
                        return true; // logically pruned: drop physically
                    }
                    let rec = encode_record(key, payload);
                    out.write_all(&rec).expect("compaction write");
                    if merged.records == 0 {
                        merged.first_key = key;
                    }
                    if merged.records.is_multiple_of(every) {
                        merged.index.push((key, merged.file_len));
                    }
                    merged.last_key = key;
                    merged.last_off = merged.file_len;
                    merged.records += 1;
                    merged.bytes += payload.len() as u64;
                    merged.file_len += rec.len() as u64;
                    true
                });
                if end != bytes.len() {
                    return Err(StorageError::Corrupt(format!(
                        "{:?}: invalid record at byte {end} during compaction",
                        seg.path
                    )));
                }
            }
            out.sync_all()?;
        }
        // Commit point: once the covering name exists, the inputs are
        // superseded even if we crash before deleting them.
        fs::rename(&tmp, &out_path)?;
        sync_dir(&space.dir)?;
        let a = space.sealed.remove(0);
        let b = space.sealed.remove(0);
        let _ = fs::remove_file(&a.path);
        let _ = fs::remove_file(&b.path);
        sync_dir(&space.dir)?;
        space.sealed.insert(0, merged);
        Ok(())
    }

    fn set_min_key(&self, space: &mut SegNs, min_key: u64) -> Result<()> {
        if min_key <= space.min_key {
            return Ok(());
        }
        Self::write_min_key(&space.dir, min_key)?;
        space.min_key = min_key;
        for meta in space
            .sealed
            .iter_mut()
            .chain(space.active.as_mut().map(|(m, _)| m))
        {
            if meta.records == 0 || meta.first_key >= min_key {
                continue;
            }
            if meta.last_key < min_key {
                meta.cut_records = meta.records;
                meta.cut_bytes = meta.bytes;
                continue;
            }
            // The cutoff falls inside this segment: count exactly.
            let bytes = fs::read(&meta.path)?;
            let (mut cr, mut cb) = (0u64, 0u64);
            walk(&bytes, MAGIC.len(), |key, _, payload| {
                if key < min_key {
                    cr += 1;
                    cb += payload.len() as u64;
                    true
                } else {
                    false
                }
            });
            meta.cut_records = cr;
            meta.cut_bytes = cb;
        }
        Ok(())
    }

    /// Deletes sealed segments that are entirely below the cutoff.
    fn drop_dead_segments(&self, space: &mut SegNs) -> Result<()> {
        let mut changed = false;
        while let Some(first) = space.sealed.first() {
            if first.records > 0 && first.cut_records < first.records {
                break;
            }
            let dead = space.sealed.remove(0);
            let _ = fs::remove_file(&dead.path);
            changed = true;
        }
        if changed {
            sync_dir(&space.dir)?;
        }
        Ok(())
    }

    fn read_range(
        &self,
        meta: &SegMeta,
        min_key: u64,
        lo: u64,
        hi: u64,
        out: &mut Vec<Record>,
    ) -> Result<()> {
        if meta.records == 0 || meta.last_key < lo || meta.first_key > hi {
            return Ok(());
        }
        // Sparse index: start at the last indexed record <= lo.
        let start = match meta.index.partition_point(|&(k, _)| k <= lo) {
            0 => MAGIC.len() as u64,
            n => meta.index[n - 1].1,
        };
        let mut f = File::open(&meta.path)?;
        f.seek(SeekFrom::Start(start))?;
        let mut bytes = Vec::new();
        f.take(meta.file_len - start).read_to_end(&mut bytes)?;
        walk(&bytes, 0, |key, _, payload| {
            if key > hi {
                return false;
            }
            if key >= lo && key >= min_key {
                out.push(Record {
                    key,
                    value: payload.to_vec(),
                });
            }
            true
        });
        Ok(())
    }

    fn all_segments(space: &SegNs) -> impl DoubleEndedIterator<Item = &SegMeta> {
        space
            .sealed
            .iter()
            .chain(space.active.as_ref().map(|(m, _)| m))
    }
}

impl StorageBackend for SegmentBackend {
    fn name(&self) -> &'static str {
        "segment"
    }

    fn define(&self, ns: &str, profile: NamespaceProfile) -> Result<()> {
        validate_ns(ns)?;
        let mut spaces = self.spaces.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(space) = spaces.get_mut(ns) {
            if space.profile.kind != profile.kind {
                return Err(StorageError::InvalidNamespace(format!(
                    "{ns:?} is {:?}, redefined as {:?}",
                    space.profile.kind, profile.kind
                )));
            }
            space.profile = profile;
            return Ok(());
        }
        let space = self.open_ns(ns, profile)?;
        spaces.insert(ns.to_string(), space);
        Ok(())
    }

    fn append(&self, ns: &str, key: u64, value: &[u8]) -> Result<u64> {
        self.with_ns(ns, |space| self.append_locked(ns, space, key, value))
    }

    fn get(&self, ns: &str, key: u64) -> Result<Option<Vec<u8>>> {
        Ok(self.scan(ns, key, key)?.pop().map(|r| r.value))
    }

    fn scan(&self, ns: &str, lo: u64, hi: u64) -> Result<Vec<Record>> {
        self.with_ns(ns, |space| {
            let lo = lo.max(space.min_key);
            if lo > hi {
                return Ok(Vec::new());
            }
            let mut out = Vec::new();
            let metas: Vec<&SegMeta> = Self::all_segments(space).collect();
            for meta in metas {
                self.read_range(meta, space.min_key, lo, hi, &mut out)?;
            }
            Ok(out)
        })
    }

    fn latest(&self, ns: &str) -> Result<Option<Record>> {
        self.with_ns(ns, |space| {
            let candidate =
                Self::all_segments(space).rfind(|m| m.records > 0 && m.last_key >= space.min_key);
            let Some(meta) = candidate else {
                return Ok(None);
            };
            let mut f = File::open(&meta.path)?;
            f.seek(SeekFrom::Start(meta.last_off))?;
            let mut bytes = Vec::new();
            f.take(meta.file_len - meta.last_off)
                .read_to_end(&mut bytes)?;
            let mut rec = None;
            walk(&bytes, 0, |key, _, payload| {
                rec = Some(Record {
                    key,
                    value: payload.to_vec(),
                });
                false
            });
            Ok(rec)
        })
    }

    fn len(&self, ns: &str) -> Result<u64> {
        self.with_ns(ns, |space| {
            Ok(Self::all_segments(space).map(SegMeta::live_records).sum())
        })
    }

    fn retain(&self, ns: &str) -> Result<Pruned> {
        let mut spaces = self.spaces.lock().unwrap_or_else(|e| e.into_inner());
        let space = spaces
            .get_mut(ns)
            .ok_or_else(|| StorageError::UnknownNamespace(ns.to_string()))?;
        let policy = space.profile.retention;
        let before_records: u64 = Self::all_segments(space).map(SegMeta::live_records).sum();
        let before_bytes: u64 = Self::all_segments(space).map(SegMeta::live_bytes).sum();
        // Exact key-based cut first.
        if let Some(min_key) = policy.min_key {
            self.set_min_key(space, min_key)?;
        }
        // Count/byte bounds: drop whole oldest sealed segments while
        // over budget. The active segment never drops, so these bounds
        // are segment-granular (documented).
        loop {
            let live_records: u64 = Self::all_segments(space).map(SegMeta::live_records).sum();
            let live_bytes: u64 = Self::all_segments(space).map(SegMeta::live_bytes).sum();
            let over_records = policy.max_records.is_some_and(|m| live_records > m);
            let over_bytes = policy.max_bytes.is_some_and(|m| live_bytes > m);
            if !(over_records || over_bytes) {
                break;
            }
            let Some(first) = space.sealed.first() else {
                break;
            };
            if live_records <= first.live_records() {
                break; // never prune the namespace empty
            }
            let first_last = first.last_key;
            self.set_min_key(space, first_last + 1)?;
            self.drop_dead_segments(space)?;
            if space.sealed.first().map(|m| m.last_key) == Some(first_last) {
                break; // defensive: no progress
            }
        }
        self.drop_dead_segments(space)?;
        let after_records: u64 = Self::all_segments(space).map(SegMeta::live_records).sum();
        let after_bytes: u64 = Self::all_segments(space).map(SegMeta::live_bytes).sum();
        Ok(Pruned {
            records: before_records - after_records,
            bytes: before_bytes - after_bytes,
        })
    }

    fn flush(&self) -> Result<()> {
        let mut spaces = self.spaces.lock().unwrap_or_else(|e| e.into_inner());
        for space in spaces.values_mut() {
            if let Some((_, file)) = space.active.as_mut() {
                file.flush()?;
                file.sync_all()?;
            }
            sync_dir(&space.dir)?;
        }
        sync_dir(&self.root)?;
        Ok(())
    }
}
