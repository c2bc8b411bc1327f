//! Crash-safe checkpointing: a restarted aggregator resumes correlation
//! with stable group ids, even when the primary checkpoint was corrupted
//! mid-crash. The checkpoint holds the host table and the resume
//! cursor; the runs themselves come back from the run store.

use aggregator::store::CHECKPOINT_NS;
use aggregator::{
    Aggregator, AggregatorConfig, RecoverySource, ReplayProbe, RunRecord, RunStore, StorageStack,
    SupervisorConfig,
};
use flow::{FlowRecord, HostAddr};
use roleclass::{EngineConfig, Params};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use storage::{NamespaceProfile, Retention, SegmentBackend, StorageConfig};

const WINDOW_MS: u64 = 1000;

fn h(x: u32) -> HostAddr {
    HostAddr::v4(x)
}

/// One window of stable two-pod structure, shifted to window `w`.
fn window_trace(w: u64) -> Vec<FlowRecord> {
    let mut out = Vec::new();
    for (i, c) in [11u32, 12, 13].into_iter().enumerate() {
        for (j, s) in [1u32, 2, 3].into_iter().enumerate() {
            let mut f = FlowRecord::pair(h(c), h(s));
            f.start_ms = w * WINDOW_MS + (i * 3 + j) as u64;
            out.push(f);
        }
    }
    for (i, c) in [21u32, 22, 23].into_iter().enumerate() {
        for (j, s) in [1u32, 2, 4].into_iter().enumerate() {
            let mut f = FlowRecord::pair(h(c), h(s));
            f.start_ms = w * WINDOW_MS + 100 + (i * 3 + j) as u64;
            out.push(f);
        }
    }
    out
}

fn config() -> AggregatorConfig {
    AggregatorConfig {
        window_ms: WINDOW_MS,
        origin_ms: 0,
        engine: EngineConfig::new(Params::default().with_s_lo(90.0).with_s_hi(95.0)),
        min_flows: 1,
        supervisor: SupervisorConfig::immediate(),
        ..AggregatorConfig::default()
    }
}

/// Segment-backed storage on a fresh temp root: a restart drops the
/// stack and reopens it on the same root.
fn segment_storage(tag: &str) -> (PathBuf, StorageConfig) {
    let dir = std::env::temp_dir().join(format!("roleclass-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let config = StorageConfig::new(dir.to_string_lossy());
    (dir, config)
}

#[test]
fn restart_resumes_correlation_with_stable_ids() {
    let (dir, storage) = segment_storage("resume");
    let stack = StorageStack::open(&storage).unwrap();
    let ck = stack.checkpointer();

    // First process: two windows, checkpoint after each run (as a
    // deployment would).
    let mut agg = Aggregator::new(config()).with_run_store(Arc::clone(stack.runs()));
    let trace: Vec<FlowRecord> = (0..2).flat_map(window_trace).collect();
    agg.attach(Box::new(ReplayProbe::new("p0", trace)));
    agg.run_cycle();
    agg.checkpoint(ck).unwrap();
    agg.run_cycle();
    agg.checkpoint(ck).unwrap();
    let before = agg.current_grouping().unwrap();

    // "Crash": drop the aggregator and its storage. Restart from the
    // checkpoint.
    drop(agg);
    drop(stack);
    let stack = StorageStack::open(&storage).unwrap();
    let mut agg2 = Aggregator::new(config()).with_run_store(Arc::clone(stack.runs()));
    agg2.attach(Box::new(ReplayProbe::new("p0", window_trace(2))));
    let recovery = agg2.restore_from(stack.checkpointer());
    assert_eq!(recovery.source, RecoverySource::Primary);
    assert!(recovery.notes.is_empty());
    assert_eq!(agg2.history().read().len(), 2);

    // The next window continues the chain: same window numbering, same
    // group ids for every host.
    let run3 = agg2.run_cycle();
    assert_eq!(run3.window.start_ms, 2 * WINDOW_MS);
    assert!(run3.correlation.is_some());
    for host in [11u32, 21, 1, 2, 3, 4] {
        assert_eq!(
            before.group_of(h(host)),
            run3.grouping.group_of(h(host)),
            "host {host} lost its group id across the restart"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_checkpoint_recovers_to_last_good_state() {
    let (dir, storage) = segment_storage("truncated");
    let stack = StorageStack::open(&storage).unwrap();
    let ck = stack.checkpointer();

    let mut agg = Aggregator::new(config()).with_run_store(Arc::clone(stack.runs()));
    let trace: Vec<FlowRecord> = (0..2).flat_map(window_trace).collect();
    agg.attach(Box::new(ReplayProbe::new("p0", trace)));
    agg.run_cycle();
    agg.checkpoint(ck).unwrap();
    let after_first = agg.current_grouping().unwrap();
    agg.run_cycle();
    agg.checkpoint(ck).unwrap();

    // Crash mid-write (or disk fault): the newest generation is
    // truncated, the previous generation survives as the backup.
    // Re-appending the one-run generation ahead of a truncated copy of
    // the two-run one leaves exactly that pair under the two-generation
    // cap. The run store still holds both runs; the backup's cursor
    // covers only the first.
    let gens = stack.backend().scan(CHECKPOINT_NS, 0, u64::MAX).unwrap();
    let (older, newest) = (&gens[0].value, &gens[1].value);
    stack.backend().append(CHECKPOINT_NS, 0, older).unwrap();
    stack
        .backend()
        .append(CHECKPOINT_NS, 0, &newest[..newest.len() * 2 / 3])
        .unwrap();

    drop(agg);
    drop(stack);
    let stack = StorageStack::open(&storage).unwrap();
    let mut agg2 = Aggregator::new(config()).with_run_store(Arc::clone(stack.runs()));
    agg2.attach(Box::new(ReplayProbe::new("p0", window_trace(1))));
    let recovery = agg2.restore_from(stack.checkpointer());
    assert_eq!(recovery.source, RecoverySource::Backup);
    assert!(recovery.notes.iter().any(|n| n.contains("primary")));
    // Last good state = the one-run checkpoint.
    assert_eq!(agg2.history().read().len(), 1);

    // Ingestion resumes from window 1 (after the recovered run) and the
    // correlation chain holds.
    let run2 = agg2.run_cycle();
    assert_eq!(run2.window.start_ms, WINDOW_MS);
    assert!(run2.correlation.is_some());
    for host in [11u32, 21, 1, 4] {
        assert_eq!(
            after_first.group_of(h(host)),
            run2.grouping.group_of(h(host)),
            "host {host} lost its group id after corrupt-checkpoint recovery"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn total_corruption_falls_back_to_fresh_start() {
    let (dir, storage) = segment_storage("garbage");
    let stack = StorageStack::open(&storage).unwrap();
    // Both generations are garbage.
    let backend = stack.backend();
    backend
        .define(CHECKPOINT_NS, storage.checkpoint_profile())
        .unwrap();
    backend
        .append(CHECKPOINT_NS, 0, b"roleclass-checkpoint v2\n[{\"window\"")
        .unwrap();
    backend
        .append(CHECKPOINT_NS, 0, b"\x7f\x45\x4c\x46 definitely not json")
        .unwrap();

    let mut agg = Aggregator::new(config()).with_run_store(Arc::clone(stack.runs()));
    agg.attach(Box::new(ReplayProbe::new("p0", window_trace(0))));
    let recovery = agg.restore_from(stack.checkpointer());
    assert_eq!(recovery.source, RecoverySource::Fresh);
    assert_eq!(recovery.notes.len(), 2);
    assert!(agg.history().read().is_empty());

    // Still fully operational: classification starts over from window 0.
    let run = agg.run_cycle();
    assert_eq!(run.window.start_ms, 0);
    assert!(run.correlation.is_none());
    assert_eq!(run.grouping.host_count(), 10);
    let _ = fs::remove_dir_all(&dir);
}

/// [`window_trace`] with churn: from window 3 on, client 13 leaves the
/// first pod for the second, and server 5 joins the first pod's set.
fn churn_trace(w: u64) -> Vec<FlowRecord> {
    let mut out = window_trace(w);
    if w >= 3 {
        for f in &mut out {
            if f.src == h(13) && f.dst == h(3) {
                f.dst = h(4);
            }
        }
        for (i, c) in [11u32, 12].into_iter().enumerate() {
            let mut f = FlowRecord::pair(h(c), h(5));
            f.start_ms = w * WINDOW_MS + 200 + i as u64;
            out.push(f);
        }
    }
    out
}

/// What a run publishes: its grouping and correlation, ids included.
fn fingerprint(run: &RunRecord) -> String {
    format!("{:?}|{:?}", run.grouping, run.correlation)
}

/// A run store at `root` keeping the newest `keep` windows.
fn small_store(root: &Path, keep: u64) -> Arc<RunStore> {
    Arc::new(
        RunStore::open(
            Arc::new(SegmentBackend::new(root).unwrap()),
            "runs",
            NamespaceProfile::log(Retention::unbounded().keep_records(keep)),
        )
        .unwrap(),
    )
}

#[test]
fn checkpoint_generations_stay_flat_as_windows_accumulate() {
    // Epoch-scale timestamps keep every cursor at 13 digits, so only a
    // payload that grows with the history could change the length.
    const ORIGIN: u64 = 1_700_000_000_000;
    let (dir, storage) = segment_storage("flat");
    let stack = StorageStack::open(&storage).unwrap();
    let mut agg = Aggregator::new(AggregatorConfig {
        origin_ms: ORIGIN,
        ..config()
    })
    .with_run_store(Arc::clone(stack.runs()));
    let trace: Vec<FlowRecord> = (0..40)
        .flat_map(window_trace)
        .map(|mut f| {
            f.start_ms += ORIGIN;
            f
        })
        .collect();
    agg.attach(Box::new(ReplayProbe::new("p0", trace)));
    let mut sizes = Vec::new();
    while agg.has_pending_data() {
        agg.run_cycle();
        agg.checkpoint(stack.checkpointer()).unwrap();
        let newest = stack.backend().latest(CHECKPOINT_NS).unwrap().unwrap();
        sizes.push(newest.value.len());
    }
    assert_eq!(sizes.len(), 40);
    assert!(
        sizes[1..].iter().all(|&n| n == sizes[1]),
        "checkpoint size grew with the window count: {sizes:?}"
    );
    // The runs live once, in the store.
    assert_eq!(stack.runs().len().unwrap(), 40);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_between_append_and_checkpoint_reruns_the_window() {
    const WINDOWS: u64 = 6;
    let trace: Vec<FlowRecord> = (0..WINDOWS).flat_map(churn_trace).collect();

    // The uninterrupted reference run.
    let (reference_dir, reference_storage) = segment_storage("rerun-reference");
    let reference = StorageStack::open(&reference_storage).unwrap();
    let mut live = Aggregator::new(config()).with_run_store(Arc::clone(reference.runs()));
    live.attach(Box::new(ReplayProbe::new("p0", trace.clone())));
    let expected: Vec<String> = (0..WINDOWS)
        .map(|_| fingerprint(&live.run_cycle()))
        .collect();

    // First process: windows 0-2 checkpointed; window 3 reaches the
    // store, then the process dies before its checkpoint.
    let (dir, storage) = segment_storage("rerun");
    let stack = StorageStack::open(&storage).unwrap();
    let mut agg = Aggregator::new(config()).with_run_store(Arc::clone(stack.runs()));
    agg.attach(Box::new(ReplayProbe::new("p0", trace.clone())));
    for _ in 0..3 {
        agg.run_cycle();
        agg.checkpoint(stack.checkpointer()).unwrap();
    }
    agg.run_cycle();
    drop(agg);
    drop(stack);

    let stack = StorageStack::open(&storage).unwrap();
    assert_eq!(stack.runs().len().unwrap(), 4);
    let mut agg2 = Aggregator::new(config()).with_run_store(Arc::clone(stack.runs()));
    agg2.attach(Box::new(ReplayProbe::new("p0", trace)));
    let recovery = agg2.restore_from(stack.checkpointer());
    assert_eq!(recovery.source, RecoverySource::Primary);
    assert!(recovery.notes.is_empty(), "{:?}", recovery.notes);
    // Restore resumes at the cursor, not after the newest stored run.
    assert_eq!(agg2.history().read().len(), 3);
    let rerun = agg2.run_cycle();
    assert_eq!(rerun.window.start_ms, 3 * WINDOW_MS);
    // The store keeps its first copy of the re-run window.
    assert_eq!(stack.runs().len().unwrap(), 4);
    let stored = stack.runs().at(3 * WINDOW_MS).unwrap().unwrap();
    assert_eq!(fingerprint(&stored), expected[3]);
    // The re-run and every following window publish exactly what the
    // uninterrupted run did.
    let mut resumed = vec![fingerprint(&rerun)];
    while agg2.has_pending_data() {
        resumed.push(fingerprint(&agg2.run_cycle()));
    }
    assert_eq!(resumed, expected[3..]);
    assert_eq!(agg2.stability_history(), live.stability_history());
    assert_eq!(agg2.churn_table(), live.churn_table());
    drop(agg2);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&reference_dir);
}

#[test]
fn small_retention_restores_stable_ids_and_notes_gaps() {
    const WINDOWS: u64 = 5;
    let trace: Vec<FlowRecord> = (0..WINDOWS).flat_map(churn_trace).collect();
    let mut live = Aggregator::new(config());
    live.attach(Box::new(ReplayProbe::new("p0", trace.clone())));
    let expected: Vec<String> = (0..WINDOWS)
        .map(|_| fingerprint(&live.run_cycle()))
        .collect();

    // First process: four windows, checkpoint per window, a run store
    // that keeps only the newest two.
    let (dir, storage) = segment_storage("small-retention");
    let stack = StorageStack::open(&storage).unwrap();
    let runs = small_store(&dir.join("kept"), 2);
    let mut agg = Aggregator::new(config()).with_run_store(Arc::clone(&runs));
    agg.attach(Box::new(ReplayProbe::new("p0", trace.clone())));
    for _ in 0..4 {
        agg.run_cycle();
        agg.checkpoint(stack.checkpointer()).unwrap();
    }
    drop(agg);
    // A second store holding only window 2: the cursor's window is
    // missing, as after a failed append.
    let gappy = small_store(&dir.join("gappy"), 2);
    gappy
        .record(&runs.at(2 * WINDOW_MS).unwrap().unwrap())
        .unwrap();

    // Restart: the two retained runs are enough to anchor correlation.
    let mut agg2 = Aggregator::new(config()).with_run_store(Arc::clone(&runs));
    agg2.attach(Box::new(ReplayProbe::new("p0", trace.clone())));
    let recovery = agg2.restore_from(stack.checkpointer());
    assert_eq!(recovery.source, RecoverySource::Primary);
    assert!(recovery.notes.is_empty(), "{:?}", recovery.notes);
    assert_eq!(agg2.history().read().len(), 2);
    let next = agg2.run_cycle();
    assert_eq!(next.window.start_ms, 4 * WINDOW_MS);
    assert_eq!(fingerprint(&next), expected[4]);

    // With the gappy store, restore still resumes at the cursor,
    // anchors on the older window, and says so.
    let mut agg3 = Aggregator::new(config()).with_run_store(gappy);
    agg3.attach(Box::new(ReplayProbe::new("p0", trace)));
    let recovery = agg3.restore_from(stack.checkpointer());
    assert_eq!(recovery.source, RecoverySource::Primary);
    assert!(
        recovery.notes.iter().any(|n| n.contains("run history gap")),
        "{:?}",
        recovery.notes
    );
    assert_eq!(agg3.history().read().len(), 1);
    let run = agg3.run_cycle();
    assert_eq!(run.window.start_ms, 4 * WINDOW_MS);
    assert!(run.correlation.is_some());
    let _ = fs::remove_dir_all(&dir);
}
