//! The traced run: the same cycle composed from the layers' public
//! calls, each timed from the outside with allocation deltas around it.
//!
//! Input side: the probe's `poll`, then `ConnsetBuilder` against the
//! benchmark's own `HostTable`. Engine: `Engine::form` →
//! `Formed::merge` → `Merged::correlate_with` → `apply_correlation` →
//! `StabilityTracker::observe`. Persistence: `RunStore::record` →
//! `Checkpointer::save_with_table`. Work counts the engine already keeps
//! (similarity evals, heap pops, merges) are read from an attached
//! `telemetry::Recorder`; nothing is added inside the program.

use crate::inputs::DAY_MS;
use crate::pipeline::{self, fingerprint, Prepared};
use crate::serve_load::{self, Route};
use crate::stats::median;
use role_classification::aggregator::store::CHECKPOINT_NS;
use role_classification::aggregator::{ChurnPolicy, RunRecord, WindowHealth};
use role_classification::flow::{ConnsetBuilder, HostTable, TimeWindow};
use role_classification::roleclass::{
    apply_correlation, Engine, EngineConfig, EngineSnapshot, StabilityTracker,
};
use role_classification::serve::ServerState;
use role_classification::telemetry::{self, Recorder, TimeseriesRing};
use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric the traced run prints, with its unit. Layers
/// a workload does not exercise read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("correlate.correlate_s", "s"),
    ("correlate.candidates", "count"),
    ("correlate.evals", "count"),
    ("correlate.ns_per_eval", "ns"),
    ("correlate.carried", "count"),
    ("correlate.minted", "count"),
    ("correlate.retired", "count"),
    ("correlate.carried_per_candidate", "ratio"),
    ("correlate.alloc_bytes", "bytes"),
    ("merging.merge_s", "s"),
    ("merging.merges", "count"),
    ("merging.heap_pops", "count"),
    ("merging.merges_per_pop", "ratio"),
    ("merging.ns_per_pop", "ns"),
    ("merging.alloc_bytes", "bytes"),
    ("formation.form_s", "s"),
    ("formation.groups", "count"),
    ("formation.alloc_bytes", "bytes"),
    ("flow.build_s", "s"),
    ("flow.records", "count"),
    ("flow.hosts", "count"),
    ("flow.pairs", "count"),
    ("flow.ns_per_record", "ns"),
    ("flow.alloc_bytes", "bytes"),
    ("transport.send_s", "s"),
    ("transport.poll_wait_s", "s"),
    ("transport.frames", "count"),
    ("transport.bytes", "bytes"),
    ("transport.retransmits", "count"),
    ("store.record_s", "s"),
    ("store.record_bytes", "bytes"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.save_growth", "ratio"),
    ("store.at_s", "s"),
    ("serve.history_at_ms", "ms"),
    ("serve.history_tail_ms", "ms"),
    ("serve.healthz_ms", "ms"),
    ("serve.response_bytes", "bytes"),
    ("stability.observe_s", "s"),
    ("window.traced_p50_s", "s"),
    ("trace_overhead_pct", "%"),
];

/// One window's layer timings and counts. Times are seconds, allocation
/// figures bytes allocated on the calling thread.
#[derive(Clone, Copy, Default)]
struct Sample {
    send_s: f64,
    poll_s: f64,
    build_s: f64,
    build_alloc: f64,
    records: f64,
    hosts: f64,
    pairs: f64,
    form_s: f64,
    form_alloc: f64,
    groups: f64,
    merge_s: f64,
    merge_alloc: f64,
    merges: f64,
    pops: f64,
    corr_s: f64,
    corr_alloc: f64,
    candidates: f64,
    evals: f64,
    carried: f64,
    minted: f64,
    retired: f64,
    observe_s: f64,
    record_s: f64,
    record_bytes: f64,
    save_s: f64,
    save_bytes: f64,
    window_s: f64,
}

/// What the traced pass measured.
pub struct TracedOutcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Fingerprint of every published window, warm-up included.
    pub published: Vec<u64>,
    /// Traced hand-in to publish per measured window, seconds.
    pub latencies: Vec<f64>,
    /// Failed requests in the query phase.
    pub failed: u64,
}

/// Runs `f`, returning its value, wall seconds, and bytes allocated on
/// this thread meanwhile.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let a0 = telemetry::alloc_counters().0;
    let t0 = Instant::now();
    let value = f();
    let secs = t0.elapsed().as_secs_f64();
    (
        value,
        secs,
        telemetry::alloc_counters().0.wrapping_sub(a0) as f64,
    )
}

const COUNTERS: [&str; 4] = [
    "roleclass_engine_merges_total",
    "roleclass_engine_merge_heap_pops_total",
    "roleclass_engine_correlate_candidates_total",
    "roleclass_engine_correlate_similarity_evals_total",
];

fn counters(rec: &Recorder) -> [f64; 4] {
    COUNTERS.map(|name| rec.registry().counter(name).get() as f64)
}

pub fn run_traced(p: Prepared) -> io::Result<TracedOutcome> {
    let rec = Arc::new(Recorder::new());
    let engine = Engine::from_config(EngineConfig::default())
        .map_err(io::Error::other)?
        .with_recorder(Arc::clone(&rec));
    let mut probe = p.probe;
    let ops = p.ops;
    let inputs = p.inputs;
    let mut table = HostTable::new();
    let mut tracker = StabilityTracker::new(ChurnPolicy::default().horizon);
    let mut stability = Vec::new();
    let mut prev: Option<EngineSnapshot> = None;
    let mut history: Vec<RunRecord> = Vec::new();
    let mut samples = Vec::new();
    let mut published = Vec::new();

    for (w, window) in inputs.windows.iter().enumerate() {
        let mut s = Sample::default();
        let hand_in = match &ops {
            Some(rig) => {
                let sent = rig.sender.send(w)?;
                s.send_s = (sent.done - sent.started).as_secs_f64();
                sent.done
            }
            None => Instant::now(),
        };
        let span = TimeWindow::new(window.start_ms, window.start_ms + DAY_MS);
        let (records, poll_s, _) = timed(|| probe.poll(span.start_ms, span.end_ms));
        let records = records.map_err(io::Error::other)?;
        if ops.is_some() {
            s.poll_s = poll_s;
        }

        let ((cs, build), build_s, build_alloc) = timed(|| {
            let mut builder = ConnsetBuilder::new().min_flows(1);
            builder.add_records(records.iter());
            builder.build_with_stats_into(&mut table)
        });
        (s.build_s, s.build_alloc) = (build_s, build_alloc);
        s.records = records.len() as f64;
        s.hosts = cs.host_count() as f64;
        s.pairs = cs.connection_count() as f64;

        let c0 = counters(&rec);
        let (formed, form_s, form_alloc) = timed(|| engine.form(&cs));
        (s.form_s, s.form_alloc) = (form_s, form_alloc);
        s.groups = formed.result().groups.len() as f64;
        let (merged, merge_s, merge_alloc) = timed(|| formed.merge());
        (s.merge_s, s.merge_alloc) = (merge_s, merge_alloc);
        let c1 = counters(&rec);
        let (grouping, correlation) = match &prev {
            None => (merged.classification().grouping.clone(), None),
            Some(prev) => {
                let ((grouping, corr), corr_s, corr_alloc) = timed(|| {
                    let corr = merged.correlate_with(prev);
                    (
                        apply_correlation(&corr, &merged.classification().grouping),
                        corr,
                    )
                });
                (s.corr_s, s.corr_alloc) = (corr_s, corr_alloc);
                s.carried = corr.id_map.len() as f64;
                s.minted = corr.new_groups.len() as f64;
                s.retired = corr.vanished_groups.len() as f64;
                (grouping, Some(corr))
            }
        };
        let c2 = counters(&rec);
        drop(merged);
        (s.merges, s.pops) = (c1[0] - c0[0], c1[1] - c0[1]);
        (s.candidates, s.evals) = (c2[2] - c1[2], c2[3] - c1[3]);

        let (row, observe_s, _) = timed(|| tracker.observe(&grouping));
        s.observe_s = observe_s;
        stability.push(row);
        published.push(fingerprint(&grouping, &correlation));
        let record = RunRecord {
            window: span,
            connsets: cs,
            grouping,
            correlation,
            health: WindowHealth {
                probes_total: 1,
                records_accepted: build.kept_flows,
                records_dropped: build.dropped_flows,
                ..WindowHealth::default()
            },
        };
        prev = Some(EngineSnapshot {
            connsets: record.connsets.clone(),
            grouping: record.grouping.clone(),
        });
        if let Some(rig) = &ops {
            let runs = rig.stack.runs();
            let (bytes, record_s, _) = timed(|| -> io::Result<u64> {
                let bytes = runs.record(&record).map_err(|e| e.into_io())?;
                runs.prune().map_err(|e| e.into_io())?;
                Ok(bytes.unwrap_or(0))
            });
            (s.record_bytes, s.record_s) = (bytes? as f64, record_s);
            history.push(record);
            let (saved, save_s, _) =
                timed(|| rig.stack.checkpointer().save_with_table(&history, &table));
            saved.map_err(io::Error::other)?;
            s.save_s = save_s;
        } else {
            history.push(record);
        }
        s.window_s = hand_in.elapsed().as_secs_f64();
        if let Some(rig) = &ops {
            let latest = rig
                .stack
                .backend()
                .latest(CHECKPOINT_NS)
                .map_err(|e| e.into_io())?;
            s.save_bytes = latest.map_or(0, |r| r.value.len()) as f64;
        }
        // Spans are not read; keep the recorder from growing.
        rec.take_spans();
        if w > 0 {
            samples.push(s);
        }
    }

    let mut metrics = layer_metrics(&samples);
    let mut failed = 0;
    if let Some(rig) = ops {
        let windows = inputs.windows.len() as f64;
        let stats = rig.sender.finish()?;
        metrics.insert("transport.frames", stats.frames_sent as f64 / windows);
        metrics.insert("transport.bytes", stats.bytes_sent as f64 / windows);
        metrics.insert("transport.retransmits", stats.retransmits as f64 / windows);
        rig.stack.flush()?;

        let state = ServerState {
            recorder: Arc::new(Recorder::new()),
            windows: history.len(),
            health: history.last().map(|r| r.health.clone()),
            stability,
            timeseries: Arc::new(TimeseriesRing::default()),
            history: Some(Arc::clone(rig.stack.runs())),
        };
        let routes = serve_load::mix(history.len(), pipeline::query_extra(p.scale), p.seed);
        let responses = serve_load::serve_and_query(state, &routes)?;
        failed = pipeline::check_responses(&responses, &published) as u64;
        let by_route = |want: fn(&Route) -> bool| -> Vec<f64> {
            responses
                .iter()
                .filter(|r| want(&r.route))
                .map(|r| r.ms)
                .collect()
        };
        metrics.insert(
            "serve.history_at_ms",
            median(&by_route(|r| matches!(r, Route::At { .. }))),
        );
        metrics.insert(
            "serve.history_tail_ms",
            median(&by_route(|r| matches!(r, Route::Tail(_)))),
        );
        metrics.insert(
            "serve.healthz_ms",
            median(&by_route(|r| matches!(r, Route::Healthz))),
        );
        let body_bytes: usize = responses.iter().map(|r| r.body.len()).sum();
        metrics.insert(
            "serve.response_bytes",
            body_bytes as f64 / responses.len().max(1) as f64,
        );
        let mut at_s = Vec::new();
        for route in &routes {
            if let Route::At { at_ms, .. } = route {
                let (found, secs, _) = timed(|| rig.stack.runs().at_or_before(*at_ms));
                found.map_err(|e| e.into_io())?;
                at_s.push(secs);
            }
        }
        metrics.insert("store.at_s", median(&at_s));
        drop(rig.stack);
        drop(rig.listener);
        std::fs::remove_dir_all(&rig.root)?;
    }
    Ok(TracedOutcome {
        metrics,
        published,
        latencies: samples.iter().map(|s| s.window_s).collect(),
        failed,
    })
}

/// Per-window medians for times, per-window means for counts, and
/// ratios of totals for unit costs.
fn layer_metrics(samples: &[Sample]) -> BTreeMap<&'static str, f64> {
    let n = samples.len().max(1) as f64;
    let col = |f: fn(&Sample) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
    let med = |f: fn(&Sample) -> f64| median(&col(f));
    let mean = |f: fn(&Sample) -> f64| col(f).iter().sum::<f64>() / n;
    let total = |f: fn(&Sample) -> f64| col(f).iter().sum::<f64>();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let saves = col(|s| s.save_s);
    let k = saves.len().min(5);
    let head = saves[..k].iter().sum::<f64>();
    let tail = saves[saves.len() - k..].iter().sum::<f64>();
    BTreeMap::from([
        ("correlate.correlate_s", med(|s| s.corr_s)),
        ("correlate.candidates", mean(|s| s.candidates)),
        ("correlate.evals", mean(|s| s.evals)),
        (
            "correlate.ns_per_eval",
            ratio(total(|s| s.corr_s) * 1e9, total(|s| s.evals)),
        ),
        ("correlate.carried", mean(|s| s.carried)),
        ("correlate.minted", mean(|s| s.minted)),
        ("correlate.retired", mean(|s| s.retired)),
        (
            "correlate.carried_per_candidate",
            ratio(total(|s| s.carried), total(|s| s.candidates)),
        ),
        ("correlate.alloc_bytes", mean(|s| s.corr_alloc)),
        ("merging.merge_s", med(|s| s.merge_s)),
        ("merging.merges", mean(|s| s.merges)),
        ("merging.heap_pops", mean(|s| s.pops)),
        (
            "merging.merges_per_pop",
            ratio(total(|s| s.merges), total(|s| s.pops)),
        ),
        (
            "merging.ns_per_pop",
            ratio(total(|s| s.merge_s) * 1e9, total(|s| s.pops)),
        ),
        ("merging.alloc_bytes", mean(|s| s.merge_alloc)),
        ("formation.form_s", med(|s| s.form_s)),
        ("formation.groups", mean(|s| s.groups)),
        ("formation.alloc_bytes", mean(|s| s.form_alloc)),
        ("flow.build_s", med(|s| s.build_s)),
        ("flow.records", mean(|s| s.records)),
        ("flow.hosts", mean(|s| s.hosts)),
        ("flow.pairs", mean(|s| s.pairs)),
        (
            "flow.ns_per_record",
            ratio(total(|s| s.build_s) * 1e9, total(|s| s.records)),
        ),
        ("flow.alloc_bytes", mean(|s| s.build_alloc)),
        ("transport.send_s", med(|s| s.send_s)),
        ("transport.poll_wait_s", med(|s| s.poll_s)),
        ("store.record_s", med(|s| s.record_s)),
        ("store.record_bytes", mean(|s| s.record_bytes)),
        ("checkpoint.save_s", med(|s| s.save_s)),
        ("checkpoint.bytes", mean(|s| s.save_bytes)),
        ("checkpoint.save_growth", ratio(tail, head)),
        ("stability.observe_s", med(|s| s.observe_s)),
        ("window.traced_p50_s", med(|s| s.window_s)),
    ])
}
