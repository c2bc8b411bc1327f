//! Crash-safe checkpointing: a restarted aggregator resumes correlation
//! with stable group ids, even when the primary checkpoint was corrupted
//! mid-crash.

use aggregator::store::CHECKPOINT_NS;
use aggregator::{
    Aggregator, AggregatorConfig, RecoverySource, ReplayProbe, StorageStack, SupervisorConfig,
};
use flow::{FlowRecord, HostAddr};
use roleclass::{EngineConfig, Params};
use std::fs;
use std::path::PathBuf;
use storage::StorageConfig;

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
    let mut agg = Aggregator::new(config());
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
    let mut agg2 = Aggregator::new(config());
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

    let mut agg = Aggregator::new(config());
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
    // cap.
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
    let mut agg2 = Aggregator::new(config());
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
    let storage = StorageConfig::memory();
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

    let mut agg = Aggregator::new(config());
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
}
