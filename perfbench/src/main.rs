//! Repository benchmark for the probe → aggregator → storage → HTTP
//! path one observation window travels.
//!
//! ```text
//! perfbench --workload <enterprise-steady|hub-churn|ops-longrun> --seed N
//!           --seconds S --trace <0|1> [--ari-floor F] [--scale full|smoke]
//!           [--state-dir DIR] [--rev REV] [--source-sha HASH]
//!           [--corrupt-readback]
//! ```
//!
//! `--trace 0` runs the untraced pipeline in closed loop (the next
//! window goes in once the previous one is published) for about
//! `--seconds`, then prints the end-to-end metrics. `--trace 1` runs
//! one untraced pass and then the traced composition of the same seed,
//! requires both to publish identical groupings, and prints the
//! per-layer metrics. The last line of standard output is the result
//! object; the line before it is a report with every metric and the
//! run's provenance. See `README.md` next to this file for the
//! rationale.

mod inputs;
mod pipeline;
mod serve_load;
mod stats;
mod traced;

use inputs::{Scale, Workload};
use pipeline::{PassOutcome, Prepared};
use role_classification::cluster::metrics::adjusted_rand_index;
use role_classification::roleclass::EngineConfig;
use role_classification::telemetry::CountingAlloc;
use stats::{median, metric_json, number, percentile, string, tail_percentile};
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

// Installed for the traced run's allocation deltas; untraced runs carry
// the same (thread-local counter) cost so both measure one binary.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The end-to-end metrics of `BENCHMARK.json`, printed on every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("window_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ari", "ratio"),
];

/// Set-ups per run: at least `SETUP_MIN_REPEATS`, and more while together
/// they have taken under `SETUP_MIN_SECONDS` (short set-ups are noisy);
/// `setup_s` is their median.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 20;
const SETUP_MIN_SECONDS: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    ari_floor: f64,
    state_dir: PathBuf,
    rev: String,
    source_sha: String,
    corrupt_readback: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::EnterpriseSteady,
        seed: 1,
        seconds: 20.0,
        trace: false,
        scale: Scale::Full,
        ari_floor: 0.0,
        state_dir: PathBuf::from(".bench_state"),
        rev: "unknown".to_string(),
        source_sha: "unknown".to_string(),
        corrupt_readback: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-readback" {
            args.corrupt_readback = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                }
            }
            "--ari-floor" => args.ari_floor = value.parse::<f64>().map_err(|_| bad())?,
            "--state-dir" => args.state_dir = PathBuf::from(value),
            "--rev" => args.rev = value,
            "--source-sha" => args.source_sha = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args)
    };
    let cleanup = std::fs::remove_dir_all(&args.state_dir);
    match result {
        Ok(()) => {
            if let Err(e) = cleanup.or_else(|e| match e.kind() {
                io::ErrorKind::NotFound => Ok(()),
                _ => Err(e),
            }) {
                eprintln!("perfbench: removing {}: {e}", args.state_dir.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds a fresh [`Prepared`] under its own storage directory.
struct Preparer<'a> {
    args: &'a Args,
    next_dir: usize,
}

impl Preparer<'_> {
    fn prepare(&mut self) -> io::Result<Prepared> {
        self.next_dir += 1;
        let root = self.args.state_dir.join(format!("root-{}", self.next_dir));
        pipeline::prepare(self.args.workload, self.args.scale, self.args.seed, &root)
    }
}

/// Tears a prepared pass down without running it: joins the sender
/// thread and removes its storage root.
fn discard(p: Prepared) -> io::Result<()> {
    if let Some(rig) = p.ops {
        rig.sender.finish()?;
        drop(rig.stack);
        drop(rig.listener);
        std::fs::remove_dir_all(&rig.root)?;
    }
    Ok(())
}

fn untraced_run(args: &Args) -> io::Result<()> {
    let mut preparer = Preparer { args, next_dir: 0 };
    let mut setups = Vec::new();
    let mut prepared = None;
    while setups.len() < SETUP_MIN_REPEATS
        || (setups.len() < SETUP_MAX_REPEATS && setups.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        if let Some(p) = prepared.take() {
            discard(p)?;
        }
        let t0 = Instant::now();
        prepared = Some(preparer.prepare()?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut next = prepared.expect("at least one set-up");
    let truth = next.inputs.truth.clone();
    let hosts = next.inputs.hosts;
    let records_per_pass = next.inputs.measured_records();
    let windows_per_pass = next.inputs.windows.len();

    // Whole passes until the next one would overrun `--seconds`. Freed
    // memory is not always returned between passes, so the high-water
    // mark is read after the first pass, whatever the pass count.
    let started = Instant::now();
    let mut passes: Vec<PassOutcome> = Vec::new();
    let mut peak_rss = None;
    loop {
        let t0 = Instant::now();
        passes.push(pipeline::run_untraced(next, args.corrupt_readback)?);
        let pass_s = t0.elapsed().as_secs_f64();
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }
        if started.elapsed().as_secs_f64() + pass_s > args.seconds {
            break;
        }
        next = preparer.prepare()?;
    }

    let latencies: Vec<f64> = passes.iter().flat_map(|p| p.latencies.clone()).collect();
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let ari = adjusted_rand_index(&truth, &passes[0].last_grouping.as_partition());
    let correct = failed == 0 && ari >= args.ari_floor;

    let mut all = vec![
        ("setup_s", median(&setups), "s"),
        (
            "records_per_s",
            records_per_pass as f64 * passes.len() as f64 / wall,
            "1/s",
        ),
        ("window_p50_s", median(&latencies), "s"),
        ("peak_rss_mb", peak_rss.expect("one pass ran"), "MB"),
        ("ari", ari, "ratio"),
        ("error_rate", failed as f64 / attempted as f64, "ratio"),
    ];
    let mut tails = Vec::new();
    if args.workload.is_ops() {
        let per_pass = windows_per_pass - 1;
        let p = tail_percentile(per_pass).expect("ops-longrun measures at least 11 windows");
        all.push(("window_tail_s", percentile(&latencies, p), "s"));
        tails.push(("window_tail_s", p, latencies.len()));
        let query_ms: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.responses.iter().map(|r| r.ms))
            .collect();
        let per_pass = passes[0].responses.len();
        let p = tail_percentile(per_pass).expect("the query mix has at least 11 requests");
        all.push(("query_p50_ms", median(&query_ms), "ms"));
        all.push(("query_tail_ms", percentile(&query_ms, p), "ms"));
        tails.push(("query_tail_ms", p, query_ms.len()));
        let state: Vec<f64> = passes.iter().map(|p| p.state_bytes as f64).collect();
        all.push(("state_bytes", median(&state), "bytes"));
    }

    for (name, value, unit) in &all {
        println!("{name:<16} {value:>16.6} {unit}");
    }
    let provenance = provenance(
        args,
        hosts,
        records_per_pass,
        windows_per_pass,
        passes.len(),
    );
    let tails = tails
        .iter()
        .map(|(name, p, n)| format!("\"{name}\":{{\"percentile\":{p},\"samples\":{n}}}"))
        .collect::<Vec<_>>()
        .join(",");
    let every = all
        .iter()
        .map(|(n, v, u)| metric_json(n, *v, u))
        .collect::<Vec<_>>()
        .join(",");
    let samples = |v: &[f64]| v.iter().map(|s| number(*s)).collect::<Vec<_>>().join(",");
    println!(
        "{{\"report\":{{{provenance},\"setup_samples_s\":[{}],\"window_samples_s\":[{}],\"tails\":{{{tails}}},\"metrics\":{{{every}}}}}}}",
        samples(&setups),
        samples(&latencies),
    );
    let result = END_TO_END
        .iter()
        .map(|(name, unit)| {
            let value = all.iter().find(|(n, _, _)| n == name).map_or(0.0, |m| m.1);
            metric_json(name, value, unit)
        })
        .collect::<Vec<_>>()
        .join(",");
    print_result(correct, attempted, failed, &result);
    Ok(())
}

fn traced_run(args: &Args) -> io::Result<()> {
    let mut preparer = Preparer { args, next_dir: 0 };
    let untraced_input = preparer.prepare()?;
    let truth = untraced_input.inputs.truth.clone();
    let hosts = untraced_input.inputs.hosts;
    let records_per_pass = untraced_input.inputs.measured_records();
    let windows = untraced_input.inputs.windows.len();
    let untraced = pipeline::run_untraced(untraced_input, args.corrupt_readback)?;
    let traced = traced::run_traced(preparer.prepare()?)?;

    // Fidelity: the traced composition must publish what the pipeline
    // published, window for window.
    let mismatched = traced
        .published
        .iter()
        .zip(&untraced.published)
        .filter(|(a, b)| a != b)
        .count()
        + traced.published.len().abs_diff(untraced.published.len());
    let ari = adjusted_rand_index(&truth, &untraced.last_grouping.as_partition());
    let attempted = untraced.attempted + windows as u64;
    let failed = untraced.failed + traced.failed + mismatched as u64;
    let correct = failed == 0 && ari >= args.ari_floor;

    let mut metrics = traced.metrics;
    let overhead = (median(&traced.latencies) / median(&untraced.latencies) - 1.0) * 100.0;
    metrics.insert("trace_overhead_pct", overhead);
    for (name, unit) in traced::PER_LAYER {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<32} {value:>16.6} {unit}");
    }
    println!(
        "{{\"report\":{{{},\"untraced_window_p50_s\":{},\"fidelity_mismatches\":{mismatched},\"ari\":{}}}}}",
        provenance(args, hosts, records_per_pass, windows, 1),
        number(median(&untraced.latencies)),
        number(ari),
    );
    let result = traced::PER_LAYER
        .iter()
        .map(|(name, unit)| metric_json(name, metrics.get(name).copied().unwrap_or(0.0), unit))
        .collect::<Vec<_>>()
        .join(",");
    print_result(correct, attempted, failed, &result);
    Ok(())
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &str) {
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}"
    );
}

/// Revision, worker count, seed, and the run's size.
fn provenance(args: &Args, hosts: usize, records: u64, windows: usize, passes: usize) -> String {
    let engine = EngineConfig::default();
    format!(
        "\"workload\":{},\"seed\":{},\"trace\":{},\"scale\":{},\"git_rev\":{},\"source_sha256\":{},\
\"kernel_workers\":{},\"merge_workers\":{},\"available_parallelism\":{},\"hosts\":{hosts},\
\"measured_records_per_pass\":{records},\"windows_per_pass\":{windows},\"measured_windows_per_pass\":{},\
\"passes\":{passes}",
        string(args.workload.name()),
        args.seed,
        args.trace,
        string(match args.scale {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }),
        string(&args.rev),
        string(&args.source_sha),
        engine.resolved_kernel_workers(),
        engine.resolved_merge_workers(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        windows - 1,
    )
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}
