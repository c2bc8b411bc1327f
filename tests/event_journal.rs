//! End-to-end decision provenance: one degraded, multi-window pipeline
//! run with churn must produce every declared event type, in both the
//! in-memory journal and the durable flight-recorder journal, and every
//! journal line must parse as JSON carrying a declared name.

use role_classification::aggregator::store::JOURNAL_NS;
use role_classification::aggregator::{
    Aggregator, AggregatorConfig, Probe, ProbeError, RecoverySource, ReplayProbe, RunStore,
    StorageStack, SupervisorConfig, AGGREGATOR_EVENT_NAMES, STORAGE_EVENT_NAMES,
};
use role_classification::flow::{FlowRecord, HostAddr};
use role_classification::roleclass::{
    EngineConfig, Params, ENGINE_EVENT_NAMES, STABILITY_EVENT_NAMES,
};
use role_classification::storage::{MemoryBackend, NamespaceProfile, Retention, StorageConfig};
use role_classification::telemetry::Recorder;
use serde::value::Value;
use std::collections::BTreeSet;
use std::sync::Arc;

fn h(x: u32) -> HostAddr {
    HostAddr::v4(x)
}

/// One window of figure-1-style traffic. From window 2 on, the pod-B
/// source-control server (host 4) disappears — its group id retires —
/// and a brand-new isolated pair 31↔32 appears, minting a fresh id.
fn window_trace(window: u64) -> Vec<FlowRecord> {
    let base = window * 1000;
    let mut out = Vec::new();
    let mut push = |a: u32, b: u32, off: u64| {
        let mut f = FlowRecord::pair(h(a), h(b));
        f.start_ms = base + off;
        out.push(f);
    };
    for (i, s) in [11, 12, 13].into_iter().enumerate() {
        push(s, 1, i as u64);
        push(s, 2, 10 + i as u64);
        push(s, 3, 20 + i as u64);
    }
    for (i, e) in [21, 22, 23].into_iter().enumerate() {
        push(e, 1, 30 + i as u64);
        push(e, 2, 40 + i as u64);
        if window < 2 {
            push(e, 4, 50 + i as u64);
        }
    }
    if window >= 2 {
        push(31, 32, 60);
    }
    out
}

/// A probe that dies fatally on its first poll: the first window fails,
/// every later window skips it (quarantined) — both probe event types.
struct FatalProbe;

impl Probe for FatalProbe {
    fn name(&self) -> &str {
        "flaky"
    }
    fn poll(&mut self, _: u64, _: u64) -> Result<Vec<FlowRecord>, ProbeError> {
        Err(ProbeError::Fatal("device gone".into()))
    }
    fn horizon_ms(&self) -> Option<u64> {
        Some(0)
    }
}

/// Segment-backed storage on a fresh temp root: a restart drops the
/// stack and reopens it on the same root.
fn segment_storage(tag: &str) -> (std::path::PathBuf, StorageConfig) {
    let dir = std::env::temp_dir().join(format!("roleclass-events-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StorageConfig::new(dir.to_string_lossy());
    (dir, config)
}

/// The durable journal payloads, one JSON string per event.
fn journal_lines(stack: &StorageStack) -> Vec<String> {
    stack
        .backend()
        .scan(JOURNAL_NS, 0, u64::MAX)
        .unwrap()
        .into_iter()
        .map(|rec| String::from_utf8(rec.value).unwrap())
        .collect()
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(m) => &m.iter().find(|(k, _)| k == key).expect("missing field").1,
        other => panic!("expected object, got {}", other.kind()),
    }
}

#[test]
fn degraded_pipeline_produces_every_declared_event_type() {
    let (dir, storage) = segment_storage("e2e");
    let stack = StorageStack::open(&storage).unwrap();

    let recorder = Arc::new(Recorder::new());
    let mut agg = Aggregator::try_new(AggregatorConfig {
        window_ms: 1000,
        origin_ms: 0,
        engine: EngineConfig::new(Params::default().with_s_lo(90.0).with_s_hi(95.0)),
        min_flows: 1,
        supervisor: SupervisorConfig::immediate(),
        ..AggregatorConfig::default()
    })
    .unwrap()
    .with_recorder(Arc::clone(&recorder))
    .with_shared_flight_recorder(Arc::clone(stack.recorder()))
    // Run history with a two-window retention cap: over four windows,
    // both storage event types (history_recorded + retention_pruned)
    // must fire.
    .with_run_store(Arc::new(
        RunStore::open(
            Arc::new(MemoryBackend::new()),
            "runs",
            NamespaceProfile::log(Retention::unbounded().keep_records(2)),
        )
        .unwrap(),
    ));

    // Four windows; the structure churns after window 1, so correlation
    // carries, mints, and retires ids.
    let trace: Vec<FlowRecord> = (0..4).flat_map(window_trace).collect();
    agg.attach(Box::new(ReplayProbe::new("good", trace)));
    agg.attach(Box::new(FatalProbe));
    let cycles = agg.drain();
    assert_eq!(cycles, 4);
    agg.checkpoint(stack.checkpointer()).unwrap();

    // Restart: restore is journaled too (checkpoint_restored).
    drop(agg);
    drop(stack);
    let stack = StorageStack::open(&storage).unwrap();
    let mut fresh = Aggregator::try_new(AggregatorConfig {
        window_ms: 1000,
        origin_ms: 0,
        engine: EngineConfig::new(Params::default().with_s_lo(90.0).with_s_hi(95.0)),
        min_flows: 1,
        supervisor: SupervisorConfig::immediate(),
        ..AggregatorConfig::default()
    })
    .unwrap()
    .with_recorder(Arc::clone(&recorder))
    .with_shared_flight_recorder(Arc::clone(stack.recorder()));
    let recovery = fresh.restore_from(stack.checkpointer());
    assert_eq!(recovery.source, RecoverySource::Primary);

    // Every declared event type — engine, aggregator, and stability
    // alike — occurred.
    let events = recorder.events().snapshot();
    let seen: BTreeSet<&str> = events.iter().map(|e| e.name).collect();
    for name in ENGINE_EVENT_NAMES
        .iter()
        .chain(AGGREGATOR_EVENT_NAMES)
        .chain(STABILITY_EVENT_NAMES)
        .chain(STORAGE_EVENT_NAMES)
    {
        assert!(seen.contains(name), "event type {name} never emitted");
    }
    // And nothing undeclared was emitted.
    for ev in &events {
        let declared = match ev.layer {
            "engine" => ENGINE_EVENT_NAMES.contains(&ev.name),
            "aggregator" => AGGREGATOR_EVENT_NAMES.contains(&ev.name),
            "stability" => STABILITY_EVENT_NAMES.contains(&ev.name),
            "storage" => STORAGE_EVENT_NAMES.contains(&ev.name),
            other => panic!("unexpected layer {other}"),
        };
        assert!(declared, "{} not declared for layer {}", ev.name, ev.layer);
    }

    // Every durable journal line parses as JSON with a declared
    // aggregator or stability event name and a dense sequence.
    let lines = journal_lines(&stack);
    assert!(!lines.is_empty());
    for (i, line) in lines.iter().enumerate() {
        let v: Value = serde_json::from_str(line).expect("journal line must parse");
        assert_eq!(field(&v, "seq"), &Value::U64(i as u64));
        let Value::Str(layer) = field(&v, "layer") else {
            panic!("layer must be a string");
        };
        let Value::Str(name) = field(&v, "name") else {
            panic!("name must be a string");
        };
        let declared = match layer.as_str() {
            "aggregator" => AGGREGATOR_EVENT_NAMES.contains(&name.as_str()),
            "stability" => STABILITY_EVENT_NAMES.contains(&name.as_str()),
            "storage" => STORAGE_EVENT_NAMES.contains(&name.as_str()),
            other => panic!("unexpected journal layer {other}"),
        };
        assert!(declared, "{name} not declared for journal layer {layer}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the degraded four-window scenario above (drain, checkpoint,
/// restore) with a flight recorder and, optionally, an in-memory
/// recorder. Returns the durable journal with `ts_ns` stripped.
fn journal_without_timestamps(tag: &str, recorder: Option<Arc<Recorder>>) -> Vec<Value> {
    let (dir, storage) = segment_storage(tag);
    let aggregator = |stack: &StorageStack| {
        let agg = Aggregator::try_new(AggregatorConfig {
            window_ms: 1000,
            origin_ms: 0,
            engine: EngineConfig::new(Params::default().with_s_lo(90.0).with_s_hi(95.0)),
            min_flows: 1,
            supervisor: SupervisorConfig::immediate(),
            ..AggregatorConfig::default()
        })
        .unwrap()
        .with_shared_flight_recorder(Arc::clone(stack.recorder()));
        match &recorder {
            Some(r) => agg.with_recorder(Arc::clone(r)),
            None => agg,
        }
    };
    let stack = StorageStack::open(&storage).unwrap();
    let mut agg = aggregator(&stack).with_run_store(Arc::new(
        RunStore::open(
            Arc::new(MemoryBackend::new()),
            "runs",
            NamespaceProfile::log(Retention::unbounded().keep_records(2)),
        )
        .unwrap(),
    ));
    agg.attach(Box::new(ReplayProbe::new(
        "good",
        (0..4).flat_map(window_trace).collect(),
    )));
    agg.attach(Box::new(FatalProbe));
    assert_eq!(agg.drain(), 4);
    agg.checkpoint(stack.checkpointer()).unwrap();
    drop(agg);
    drop(stack);
    let stack = StorageStack::open(&storage).unwrap();
    aggregator(&stack).restore_from(stack.checkpointer());

    let lines = journal_lines(&stack);
    let _ = std::fs::remove_dir_all(&dir);
    lines
        .iter()
        .map(|line| match serde_json::from_str(line).unwrap() {
            Value::Map(m) => Value::Map(m.into_iter().filter(|(k, _)| k != "ts_ns").collect()),
            other => panic!("expected object, got {}", other.kind()),
        })
        .collect()
}

#[test]
fn flight_only_journal_matches_recorder_attached_journal() {
    // A flight recorder without a `Recorder` is how long-running
    // deployments journal; it must record exactly what an attached
    // recorder would see, event for event.
    let attached = journal_without_timestamps("attached", Some(Arc::new(Recorder::new())));
    let flight_only = journal_without_timestamps("flight-only", None);
    assert!(flight_only.len() > 20, "{} lines", flight_only.len());
    assert_eq!(flight_only, attached);
}
