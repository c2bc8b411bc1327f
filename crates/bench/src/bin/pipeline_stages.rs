//! Experiment `pipeline_stages` — per-stage wall-clock breakdown of the
//! full probe → classify → correlate pipeline, measured through the
//! telemetry registry rather than ad-hoc stopwatches.
//!
//! Replays a multi-window department-network trace through an
//! [`Aggregator`] with a recorder attached, then prints:
//!
//! 1. the span tree of the last window (where the time goes, nested),
//! 2. a per-stage table aggregated across all windows,
//! 3. after a `===BENCH_PIPELINE_JSON===` marker, a JSON document with
//!    the stage totals and the full registry snapshot —
//!    `scripts/bench.sh` stores it as `BENCH_pipeline.json`.

use aggregator::transport::{stream_records, TransportConfig, WireListener};
use aggregator::{Aggregator, AggregatorConfig, ReplayProbe, StorageStack, SupervisorConfig};
use bench::{banner, quick_mode, render_table, workers_from_env};
use roleclass::{EngineConfig, Params};
use std::collections::BTreeMap;
use std::sync::Arc;
use storage::{BackendKind, StorageConfig};
use synthnet::{trace, ConnRule, Fanout, NetworkModel, RoleSpec};
use telemetry::Recorder;

// Bench binaries install the counting allocator so span trees carry
// allocation tallies; library code never does.
#[global_allocator]
static ALLOC: telemetry::CountingAlloc = telemetry::CountingAlloc::new();

const WINDOW_MS: u64 = 86_400_000; // one day, like the paper's traces

/// A department-structured network with ~n hosts: 46-host departments
/// around a small shared server core. Deliberately *not*
/// `scenarios::department` (whose core scales with n): this local shape
/// is pinned so the committed BENCH_pipeline.json stays comparable
/// run over run.
fn department_network(n: usize) -> flow::ConnectionSets {
    let mut m = NetworkModel::new();
    let core = m.role(RoleSpec::servers("core", 4));
    let dept_size = 46; // 43 workstations + 3 servers
    let depts = (n / dept_size).max(1);
    for d in 0..depts {
        let ws = m.role(RoleSpec::clients(&format!("d{d}_ws"), 43));
        let srv = m.role(RoleSpec::servers(&format!("d{d}_srv"), 3));
        m.rule(ConnRule::new(ws, srv, Fanout::All));
        m.rule(ConnRule::new(ws, core, Fanout::Exactly(2)));
    }
    m.generate(7).connsets
}

/// Expands the network into `windows` day-long trace segments so the
/// pipeline exercises correlation between consecutive runs.
fn multi_window_trace(cs: &flow::ConnectionSets, windows: u64) -> Vec<flow::FlowRecord> {
    let mut records = Vec::new();
    for w in 0..windows {
        let opts = trace::TraceOptions {
            start_ms: w * WINDOW_MS,
            span_ms: WINDOW_MS,
            ..trace::TraceOptions::default()
        };
        records.extend(trace::expand(cs, opts, 7 + w));
    }
    records
}

fn main() {
    banner(
        "pipeline_stages",
        "per-stage pipeline breakdown via the telemetry registry",
    );
    let (hosts, windows) = if quick_mode() { (500, 2) } else { (5_000, 3) };
    let engine_cfg = EngineConfig::new(Params::default()).with_workers(workers_from_env());
    let workers = engine_cfg.resolved_kernel_workers();
    println!("engine: {workers} worker(s)");
    let cs = department_network(hosts);
    let records = multi_window_trace(&cs, windows);
    println!(
        "department network: {} hosts, {} connections, {} windows, {} records\n",
        cs.host_count(),
        cs.connection_count(),
        windows,
        records.len()
    );

    let recorder = Arc::new(Recorder::new());
    let mut agg = Aggregator::new(AggregatorConfig {
        window_ms: WINDOW_MS,
        origin_ms: 0,
        engine: engine_cfg.clone(),
        min_flows: 1,
        supervisor: SupervisorConfig::immediate(),
        ..AggregatorConfig::default()
    })
    .with_recorder(Arc::clone(&recorder));
    agg.attach(Box::new(ReplayProbe::new("replay", records.clone())));
    let cycles = agg.drain();
    assert_eq!(cycles as u64, windows, "trace must fill every window");

    // Where the time went in the last window, nested.
    let spans = recorder.spans();
    println!("last window, span tree:");
    print!(
        "{}",
        telemetry::render_span_tree(std::slice::from_ref(spans.last().expect("ran windows")))
    );

    // Aggregate every span name across all windows.
    let mut totals: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for root in &spans {
        root.visit(&mut |n| {
            let e = totals.entry(n.name.clone()).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += n.secs();
        });
    }
    let rows: Vec<Vec<String>> = totals
        .iter()
        .map(|(name, (count, secs))| {
            vec![
                name.clone(),
                count.to_string(),
                format!("{:.3}", secs * 1e3),
                format!("{:.3}", secs * 1e3 / *count as f64),
            ]
        })
        .collect();
    println!("\nall {windows} windows, aggregated:");
    println!(
        "{}",
        render_table(&["stage", "count", "total ms", "mean ms"], &rows)
    );

    // Decision-provenance overhead: the same connection sets through a
    // detached engine and a recorder-attached one. Attaching must not
    // perturb the outcomes and should cost a few percent at most.
    let mut plain = roleclass::Engine::from_config(engine_cfg.clone()).unwrap();
    let prov_rec = Arc::new(Recorder::new());
    let mut traced = roleclass::Engine::from_config(engine_cfg.clone())
        .unwrap()
        .with_recorder(Arc::clone(&prov_rec));
    // One untimed window each warms caches and seeds correlation, then
    // the timed windows interleave so allocator/cache drift hits both.
    assert_eq!(
        plain.run_window(&cs).grouping,
        traced.run_window(&cs).grouping,
        "provenance must not perturb outcomes"
    );
    let (mut detached_secs, mut attached_secs) = (0.0, 0.0);
    for _ in 0..windows {
        let t0 = std::time::Instant::now();
        let a = plain.run_window(&cs).grouping;
        detached_secs += t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let b = traced.run_window(&cs).grouping;
        attached_secs += t1.elapsed().as_secs_f64();
        assert_eq!(a, b, "provenance must not perturb outcomes");
    }
    let overhead_pct = (attached_secs / detached_secs - 1.0) * 100.0;
    let events_recorded = prov_rec.events().snapshot().len() as u64 + prov_rec.events().dropped();
    println!(
        "provenance overhead over {windows} windows: detached {:.3}s, attached {:.3}s ({overhead_pct:+.1}%), {events_recorded} events",
        detached_secs, attached_secs
    );

    // Profiler overhead: the recorder attached above carries the full
    // profiling subsystem — span self-time accounting plus allocation
    // attribution (this binary installs the counting allocator) — so
    // the interleaved detached/attached timing above *is* the
    // profiler-attached cost, with outcomes asserted identical window
    // for window. Hold it to the ≤5% budget (at the full 5k-host size;
    // quick mode's sub-ms windows are too noisy to gate on) and export
    // the aggregated profile facts.
    let profile = prov_rec.profile();
    let profile_stages = profile.entries.len();
    let profile_alloc_bytes: u64 = profile.entries.iter().map(|e| e.alloc_bytes).sum();
    let profile_allocs: u64 = profile.entries.iter().map(|e| e.allocs).sum();
    assert!(
        profile.get("engine.run_window").is_some(),
        "profile table must cover the window stage"
    );
    for e in &profile.entries {
        assert!(e.self_time <= e.total, "{}: self exceeds total", e.name);
    }
    if !quick_mode() {
        assert!(
            overhead_pct <= 5.0,
            "profiler-attached overhead must stay within 5%, got {overhead_pct:+.1}%"
        );
    }
    println!(
        "profiler overhead over {windows} windows: {overhead_pct:+.1}% (budget 5%), \
{profile_stages} stage(s) profiled, {profile_alloc_bytes} byte(s) in {profile_allocs} alloc(s) attributed"
    );

    // Wire transport overhead: the same trace replayed once in-process
    // and once over loopback TCP through the frame protocol. The wire
    // run is allowed to cost time, never correctness — outcomes must be
    // identical window for window.
    let config = AggregatorConfig {
        window_ms: WINDOW_MS,
        origin_ms: 0,
        engine: engine_cfg.clone(),
        min_flows: 1,
        supervisor: SupervisorConfig::immediate(),
        ..AggregatorConfig::default()
    };
    let fingerprint = |agg: &Aggregator| -> Vec<String> {
        let history = agg.history();
        let history = history.read();
        history
            .iter()
            .map(|r| format!("{:?}|{:?}|{:?}", r.window, r.grouping, r.correlation))
            .collect()
    };
    let t0 = std::time::Instant::now();
    let mut in_process = Aggregator::new(config.clone());
    in_process.attach(Box::new(ReplayProbe::new("probe", records.clone())));
    assert_eq!(in_process.drain() as u64, windows);
    let in_process_secs = t0.elapsed().as_secs_f64();

    let t1 = std::time::Instant::now();
    let listener = WireListener::bind("127.0.0.1:0", TransportConfig::default(), None, None)
        .expect("bind loopback listener");
    let addr = listener.local_addr();
    let wire_records = records.clone();
    let sender = std::thread::spawn(move || {
        stream_records(
            addr,
            "probe",
            &wire_records,
            0,
            WINDOW_MS,
            TransportConfig::default(),
        )
    });
    let mut wire = Aggregator::new(config.clone());
    wire.attach(Box::new(listener.probe("probe")));
    for _ in 0..windows {
        let run = wire.run_cycle();
        assert!(
            !run.health.degraded(),
            "loopback wire run must stay healthy"
        );
    }
    let stats = sender
        .join()
        .expect("sender thread")
        .expect("clean loopback stream");
    let wire_secs = t1.elapsed().as_secs_f64();
    assert_eq!(
        fingerprint(&in_process),
        fingerprint(&wire),
        "wire outcomes must be identical to the in-process run"
    );
    let wire_overhead_pct = (wire_secs / in_process_secs - 1.0) * 100.0;
    println!(
        "transport overhead over {windows} windows: in-process {in_process_secs:.3}s, \
loopback TCP {wire_secs:.3}s ({wire_overhead_pct:+.1}%), {} frame(s), {} byte(s), {} retransmit(s)",
        stats.frames_sent, stats.bytes_sent, stats.retransmits
    );

    // Stability observatory overhead: the tracker scores every cycle
    // whether or not a recorder is attached, so the detached in-process
    // run above must have produced bit-identical stability rows, and
    // the per-cycle update must stay marginal next to the window time.
    assert_eq!(
        fingerprint(&in_process),
        fingerprint(&agg),
        "stability scoring must not perturb outcomes"
    );
    assert_eq!(
        in_process.stability_history(),
        agg.stability_history(),
        "stability rows must be identical detached vs attached"
    );
    let stability_secs = recorder
        .registry()
        .histogram(
            "roleclass_stability_update_seconds",
            telemetry::DURATION_BUCKETS,
        )
        .sum();
    let window_total_secs = totals
        .get("engine.run_window")
        .map(|(_, secs)| *secs)
        .expect("window spans recorded");
    let stability_overhead_pct = stability_secs / window_total_secs * 100.0;
    let stability_rows = agg.stability_history().len();
    assert!(
        stability_overhead_pct <= 3.0,
        "stability update must stay within 3% of window time, got {stability_overhead_pct:.2}%"
    );
    println!(
        "stability overhead over {stability_rows} window(s): update {stability_secs:.6}s \
vs window {window_total_secs:.3}s ({stability_overhead_pct:.2}%), rows identical detached vs attached"
    );

    // Storage-stack overhead: the same trace with the full persistence
    // stack attached (per-window run history, durable flight journal,
    // end-of-run checkpoint), once per backend. Persistence may cost
    // time, never correctness — every backend's run history and
    // groupings must be bit-identical to the plain in-process run.
    let base_fp = fingerprint(&in_process);
    let mut storage_json = String::new();
    for kind in [BackendKind::Memory, BackendKind::Segment] {
        let dir = std::env::temp_dir().join(format!(
            "roleclass-bench-store-{:?}-{}",
            kind,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store_cfg = StorageConfig::new(dir.to_string_lossy().into_owned()).with_backend(kind);
        let stack = StorageStack::open(&store_cfg).expect("open storage stack");
        let t2 = std::time::Instant::now();
        let mut stored = Aggregator::new(config.clone())
            .with_shared_flight_recorder(Arc::clone(stack.recorder()))
            .with_run_store(Arc::clone(stack.runs()));
        stored.attach(Box::new(ReplayProbe::new("probe", records.clone())));
        assert_eq!(stored.drain() as u64, windows);
        stored
            .checkpoint(stack.checkpointer())
            .expect("cut checkpoint");
        stack.flush().expect("flush storage");
        let stored_secs = t2.elapsed().as_secs_f64();
        assert_eq!(
            base_fp,
            fingerprint(&stored),
            "storage backend {kind:?} must not perturb outcomes"
        );
        let retained = stack.runs().len().expect("count retained windows");
        assert_eq!(retained, windows, "every window must be retained");
        let name = stack.backend().name();
        let store_overhead_pct = (stored_secs / in_process_secs - 1.0) * 100.0;
        println!(
            "storage overhead ({name}): plain {in_process_secs:.3}s, with stack \
{stored_secs:.3}s ({store_overhead_pct:+.1}%), {retained} window(s) retained, outcomes identical"
        );
        if !storage_json.is_empty() {
            storage_json.push(',');
        }
        storage_json.push_str(&format!(
            "\"{name}\":{{\"secs\":{stored_secs:.9},\"overhead_pct\":{store_overhead_pct:.3},\
\"retained_windows\":{retained},\"outcomes_identical\":true}}"
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Machine-readable tail for scripts/bench.sh.
    let mut stages = String::new();
    for (name, (count, secs)) in &totals {
        if !stages.is_empty() {
            stages.push(',');
        }
        stages.push_str(&format!(
            "\"{name}\":{{\"count\":{count},\"total_secs\":{secs:.9}}}"
        ));
    }
    println!("===BENCH_PIPELINE_JSON===");
    println!(
        "{{\"hosts\":{},\"windows\":{windows},\"workers\":{workers},\"stages\":{{{stages}}},\
\"provenance\":{{\"detached_secs\":{detached_secs:.9},\"attached_secs\":{attached_secs:.9},\
\"overhead_pct\":{overhead_pct:.3},\"events_recorded\":{events_recorded}}},\
\"profile\":{{\"overhead_pct\":{overhead_pct:.3},\"budget_pct\":5.0,\"stages\":{profile_stages},\
\"alloc_bytes\":{profile_alloc_bytes},\"allocs\":{profile_allocs},\"outcomes_identical\":true}},\
\"transport\":{{\"in_process_secs\":{in_process_secs:.9},\"wire_secs\":{wire_secs:.9},\
\"overhead_pct\":{wire_overhead_pct:.3},\"frames_sent\":{},\"bytes_sent\":{},\
\"retransmits\":{},\"outcomes_identical\":true}},\
\"stability\":{{\"update_secs\":{stability_secs:.9},\"window_secs\":{window_total_secs:.9},\
\"overhead_pct\":{stability_overhead_pct:.3},\"rows\":{stability_rows},\
\"outcomes_identical\":true}},\"storage\":{{{storage_json}}},\"metrics\":{}}}",
        cs.host_count(),
        stats.frames_sent,
        stats.bytes_sent,
        stats.retransmits,
        recorder.registry().json_snapshot()
    );
}
