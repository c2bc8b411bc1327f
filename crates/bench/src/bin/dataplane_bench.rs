//! Experiment `dataplane_bench` — data-plane cost of one pipeline window.
//!
//! Measures the two phases the dense host-ID refactor targets, at 1k,
//! 5k, 10k and 100k hosts:
//!
//! 1. **build** — turning one window of raw flow records into
//!    [`flow::ConnectionSets`] through [`flow::ConnsetBuilder`];
//! 2. **window** — one steady-state `Engine::run_window` over the built
//!    sets (formation + merging + correlation against the previous
//!    window), with a telemetry recorder attached so every row carries
//!    its per-stage breakdown.
//!
//! The 100k-host window runs end to end since pruned neighbor counting
//! landed; before that it did not finish within an hour (see
//! [`PRE_REFACTOR_BASELINE`]).
//!
//! Prints a table, then after a `===BENCH_DATAPLANE_JSON===` marker a
//! JSON document with the current numbers *and* the pre-refactor
//! baseline recorded below — `scripts/bench.sh` stores it as
//! `BENCH_dataplane.json`.

use bench::{banner, quick_mode, render_table, workers_from_env};
use flow::ConnsetBuilder;
use roleclass::{Engine, EngineConfig, Params, PruneMode};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use synthnet::{scenarios, trace};
use telemetry::Recorder;

// Bench binaries install the counting allocator so span trees carry
// allocation tallies; library code never does.
#[global_allocator]
static ALLOC: telemetry::CountingAlloc = telemetry::CountingAlloc::new();

const WINDOW_MS: u64 = 86_400_000; // one day, like the paper's traces

/// Pre-refactor times, `(hosts, build_secs, window_secs)`, measured on
/// this machine against the map-based `BTreeMap<HostAddr, BTreeSet<_>>`
/// `ConnectionSets` (commit fa7a763, the parent of the dense data-plane
/// refactor) with the same scenario shapes and seeds. Kept here so the
/// improvement ships in the same PR as the refactor it measures.
///
/// Only the populations the pre-refactor build could finish are listed:
/// its 100k-host window did not complete within an hour (the cost being
/// the unpruned common-neighbor count over every host pair), so there
/// is no baseline row — current 100k rows print `-` in the comparison
/// column rather than a fake speedup against 0.0.
const PRE_REFACTOR_BASELINE: [(usize, f64, f64); 2] =
    [(1_000, 0.0051, 0.0506), (10_000, 0.0798, 8.3346)];

/// A department-structured network with ~n hosts (see
/// [`scenarios::department`]), seeded as every revision of this bench
/// has been.
fn department_network(n: usize) -> flow::ConnectionSets {
    scenarios::department(n, 7).connsets
}

/// One day-long trace window for `cs`, seeded per window index.
fn window_records(cs: &flow::ConnectionSets, w: u64) -> Vec<flow::FlowRecord> {
    let opts = trace::TraceOptions {
        start_ms: w * WINDOW_MS,
        span_ms: WINDOW_MS,
        ..trace::TraceOptions::default()
    };
    trace::expand(cs, opts, 7 + w)
}

struct Measurement {
    hosts: usize,
    records: usize,
    build_secs: f64,
    window_secs: f64,
    /// Per-stage seconds inside the timed window (span name -> secs),
    /// from the telemetry recorder of the fastest rep.
    stages: BTreeMap<String, f64>,
    /// Work counters for the timed window (name -> value), from the
    /// same rep: what each stage's time divides by to get a unit cost.
    counters: BTreeMap<&'static str, u64>,
}

/// Flattens the last `engine.run_window` span tree into name -> secs.
fn window_stages(rec: &Recorder) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(root) = rec.spans().last() {
        root.visit(&mut |n| {
            *out.entry(n.name.clone()).or_insert(0.0) += n.secs();
        });
    }
    out
}

/// The entries of [`work_counters`] read from gauges (latest value) rather
/// than cumulative counters, so a warm-up window has no share to remove.
const GAUGES: [&str; 2] = ["kernel_base_pairs", "merge_candidates_peak"];

/// Work counters on `rec`, keyed by the short names the bench JSON uses.
/// `scripts/bench_check.sh` joins these against the matching stage
/// times to compare ns-per-unit costs across runs.
fn work_counters(rec: &Recorder) -> BTreeMap<&'static str, u64> {
    let reg = rec.registry();
    BTreeMap::from([
        (
            "correlate_candidates",
            reg.counter("roleclass_engine_correlate_candidates_total")
                .get(),
        ),
        (
            "correlate_similarity_evals",
            reg.counter("roleclass_engine_correlate_similarity_evals_total")
                .get(),
        ),
        (
            "merge_heap_pops",
            reg.counter("roleclass_engine_merge_heap_pops_total").get(),
        ),
        (
            "kernel_base_pairs",
            reg.gauge("roleclass_kernel_base_pairs").get().max(0) as u64,
        ),
        (
            "kernel_two_paths",
            reg.counter("roleclass_kernel_two_paths_total").get(),
        ),
        (
            "merge_candidates_peak",
            reg.gauge("roleclass_engine_merge_candidates_peak")
                .get()
                .max(0) as u64,
        ),
    ])
}

fn measure(n: usize, reps: usize, cfg: &EngineConfig) -> Measurement {
    let t = Instant::now();
    let cs_model = department_network(n);
    eprintln!(
        "[{n}] model generated in {:.1}s ({} hosts, {} connections)",
        t.elapsed().as_secs_f64(),
        cs_model.host_count(),
        cs_model.connection_count()
    );
    let t = Instant::now();
    let warm = window_records(&cs_model, 0);
    let records = window_records(&cs_model, 1);
    eprintln!(
        "[{n}] traces expanded in {:.1}s ({} records/window)",
        t.elapsed().as_secs_f64(),
        records.len()
    );

    // Build phase: records -> ConnectionSets, best of `reps`.
    let mut build_secs = f64::INFINITY;
    let mut built = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let mut b = ConnsetBuilder::new();
        b.add_records(records.iter());
        let cs = b.build();
        build_secs = build_secs.min(t0.elapsed().as_secs_f64());
        built = Some(cs);
    }
    let cs = built.expect("at least one build rep");

    // Steady-state window: classify + correlate against a previous
    // window (built untimed from the warm-up trace), recorder attached
    // for the per-stage breakdown. Best of `reps`.
    let mut prev_b = ConnsetBuilder::new();
    prev_b.add_records(warm.iter());
    let prev_cs = prev_b.build();
    let mut window_secs = f64::INFINITY;
    let mut stages = BTreeMap::new();
    let mut counters = BTreeMap::new();
    for _ in 0..reps.max(1) {
        let rec = Arc::new(Recorder::new());
        let mut engine = Engine::from_config(cfg.clone())
            .expect("bench config is valid")
            .with_recorder(Arc::clone(&rec));
        engine.run_window(&prev_cs);
        // The warm-up window bumped the work counters too; subtract its
        // share so the emitted counters cover exactly the timed window.
        let warm_counters = work_counters(&rec);
        let t0 = Instant::now();
        engine.run_window(&cs);
        let secs = t0.elapsed().as_secs_f64();
        if secs < window_secs {
            window_secs = secs;
            stages = window_stages(&rec);
            counters = work_counters(&rec);
            for (name, v) in &mut counters {
                if !GAUGES.contains(name) {
                    *v -= warm_counters[name];
                }
            }
        }
        eprintln!("[{n}] window in {secs:.1}s");
    }

    Measurement {
        hosts: cs.host_count(),
        records: records.len(),
        build_secs,
        window_secs,
        stages,
        counters,
    }
}

fn main() {
    banner(
        "dataplane_bench",
        "connset build + end-to-end window times across population sizes",
    );
    let cfg = EngineConfig::new(Params::default()).with_workers(workers_from_env());
    let workers = cfg.resolved_kernel_workers();
    let prune = match cfg.prune {
        PruneMode::Auto => "auto",
        PruneMode::Off => "off",
    };
    println!("engine: {workers} worker(s), prune {prune}\n");
    let sizes: &[(usize, usize)] = if quick_mode() {
        &[(1_000, 3), (5_000, 2), (10_000, 2)]
    } else {
        &[(1_000, 3), (5_000, 2), (10_000, 2), (100_000, 1)]
    };

    let mut results = Vec::new();
    for &(n, reps) in sizes {
        let m = measure(n, reps, &cfg);
        println!(
            "{} hosts: build {:.1} ms, window {:.1} ms ({} records, merge candidates peak {})",
            m.hosts,
            m.build_secs * 1e3,
            m.window_secs * 1e3,
            m.records,
            m.counters["merge_candidates_peak"]
        );
        results.push(m);
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|m| {
            // Populations land slightly under their nominal size (46-host
            // departments), so match the nearest baseline row — but only
            // within half the nominal population, so sizes the baseline
            // never measured (100k) print `-` instead of a cross-scale
            // fiction.
            let baseline = PRE_REFACTOR_BASELINE
                .iter()
                .min_by_key(|(h, _, _)| h.abs_diff(m.hosts))
                .filter(|(h, _, _)| h.abs_diff(m.hosts) <= h / 2);
            let speedup = match baseline {
                Some(&(_, _, w)) if w > 0.0 && m.window_secs > 0.0 => {
                    format!("{:.2}x", w / m.window_secs)
                }
                _ => "-".to_string(),
            };
            vec![
                m.hosts.to_string(),
                m.records.to_string(),
                format!("{:.3}", m.build_secs * 1e3),
                format!("{:.3}", m.window_secs * 1e3),
                m.counters["merge_candidates_peak"].to_string(),
                speedup,
            ]
        })
        .collect();
    println!();
    println!(
        "{}",
        render_table(
            &[
                "hosts",
                "records",
                "build ms",
                "window ms",
                "merge candidates peak",
                "vs baseline"
            ],
            &rows
        )
    );

    let baseline_json = PRE_REFACTOR_BASELINE
        .iter()
        .map(|(h, b, w)| format!("{{\"hosts\":{h},\"build_secs\":{b:.6},\"window_secs\":{w:.6}}}"))
        .collect::<Vec<_>>()
        .join(",");
    let current_json = results
        .iter()
        .map(|m| {
            let stages = m
                .stages
                .iter()
                .map(|(name, secs)| format!("\"{name}\":{secs:.9}"))
                .collect::<Vec<_>>()
                .join(",");
            let counters = m
                .counters
                .iter()
                .map(|(name, v)| format!("\"{name}\":{v}"))
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"hosts\":{},\"build_secs\":{:.6},\"window_secs\":{:.6},\
\"workers\":{workers},\"prune\":\"{prune}\",\"stages\":{{{stages}}},\
\"counters\":{{{counters}}}}}",
                m.hosts, m.build_secs, m.window_secs
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!("===BENCH_DATAPLANE_JSON===");
    println!("{{\"pre_refactor_baseline\":[{baseline_json}],\"current\":[{current_json}]}}");
}
