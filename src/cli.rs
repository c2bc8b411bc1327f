//! The `rcctl` command-line interface.
//!
//! A thin, dependency-free front end over the workspace: classify a flow
//! trace into role groups, correlate a new trace against a saved
//! snapshot, diff snapshots, and inspect traces. All logic lives here
//! (the binary is a two-liner) so integration tests can drive the exact
//! code paths users run.
//!
//! ```text
//! rcctl info      --input flows.txt
//! rcctl classify  --input flows.txt --snapshot today.json --dot groups.dot
//! rcctl correlate --prev today.json --input tomorrow.txt --snapshot tomorrow.json
//! rcctl diff      --prev today.json --curr tomorrow.json
//! rcctl metrics   --input flows.txt --window-ms 86400000
//! ```
//!
//! `classify` and `correlate` accept `--trace` to print the span tree
//! of the run (per-stage wall-clock timings); `metrics` replays the
//! trace through the full aggregator pipeline and prints the telemetry
//! registry in Prometheus text format (or JSON with `--json`);
//! `explain` replays a capture and prints the full decision chain for
//! one host; `stability` prints the role-stability observatory
//! (per-group persistence/backbone, per-host churn); `serve` replays
//! and then exposes `/metrics`, `/events`, `/stability`, and
//! `/healthz` over HTTP:
//!
//! ```text
//! rcctl explain   --input flows.txt --host 10.0.0.11 --window-ms 86400000
//! rcctl stability --input flows.txt --window-ms 86400000 --host 10.0.0.11
//! rcctl serve     --input flows.txt --addr 127.0.0.1:7878
//! ```
//!
//! `ingest listen` and `probe send` split the same pipeline across a
//! TCP wire: the listener classifies windows streamed to it over the
//! framed transport, the sender replays a capture into a listener:
//!
//! ```text
//! rcctl ingest listen --addr 127.0.0.1:7879 --probe edge --window-ms 1000
//! rcctl probe send    --input flows.txt --to 127.0.0.1:7879 --probe edge --window-ms 1000
//! ```

use crate::aggregator::{
    transport::stream_records, Aggregator, AggregatorConfig, ProbeReport, ReplayProbe, RunStore,
    StorageStack, SupervisorConfig, TransportConfig, WindowHealth, WireListener,
};
use crate::explain::{explain_host, explain_host_labeled};
use crate::flow::{
    netflow, pcap, rmon, textlog, ConnectionSets, ConnsetBuilder, FlowRecord, HostAddr,
};
use crate::roleclass::{
    auto_k_hi_otsu, diff_groupings, Engine, EngineConfig, EngineSnapshot, GroupId, Grouping,
    HostChurn, Params, WindowStability,
};
use crate::serve::{Server, ServerState};
use crate::stability_report;
use crate::storage::{BackendKind, StorageConfig};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;
use telemetry::{Recorder, TimeseriesRing};

/// A saved classification snapshot: what `correlate` needs from the past.
#[derive(Serialize, Deserialize)]
pub struct Snapshot {
    /// The connection sets the grouping was computed from.
    pub connsets: ConnectionSets,
    /// The grouping (ids already correlated if this snapshot descends
    /// from an earlier one).
    pub grouping: Grouping,
}

/// CLI error: a message for stderr plus the intended exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    fn runtime(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 1,
        }
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
rcctl — role classification of hosts from connection patterns

USAGE:
  rcctl info      --input <FILE> [--format <FMT>]
  rcctl classify  --input <FILE> [--format <FMT>] [--snapshot <OUT.json>]
                  [--dot <OUT.dot>] [--s-lo N] [--s-hi N] [--k-hi N]
                  [--alpha N] [--beta N] [--auto-k-hi] [--min-flows N]
                  [--workers N] [--trace]
  rcctl correlate --prev <SNAP.json> --input <FILE> [--format <FMT>]
                  [--snapshot <OUT.json>] [--trace]
                  [same tuning flags as classify]
  rcctl diff      --prev <SNAP.json> --curr <SNAP.json>
  rcctl metrics   --input <FILE> [--format <FMT>] [--window-ms N]
                  [--json] [--trace] [--state <DIR>] [--store <BACKEND>]
                  [same tuning flags as classify]
  rcctl explain   --input <FILE> --host <ADDR> [--format <FMT>]
                  [--window-ms N] [same tuning flags as classify]
  rcctl explain   --host <ADDR> --state <DIR> [--store <BACKEND>]
                  [--at <MS>] [same tuning flags as classify]
  rcctl stability --input <FILE> [--format <FMT>] [--window-ms N]
                  [--host <ADDR>] [--group <ID>] [--json]
                  [same tuning flags as classify]
  rcctl profile   [--input <FILE> [--format <FMT>] [--window-ms N]]
                  [--hosts N] [--windows N] [--collapsed <OUT.folded>]
                  [--json] [same tuning flags as classify]
  rcctl serve     --input <FILE> [--format <FMT>] [--window-ms N]
                  [--addr <IP:PORT>] [--addr-file <FILE>]
                  [--max-requests N] [--state <DIR>] [--store <BACKEND>]
                  [same tuning flags as classify]
  rcctl ingest listen --probe <NAME> [--addr <IP:PORT>] [--addr-file <FILE>]
                  [--window-ms N] [--origin-ms N] [--max-windows N]
                  [same tuning flags as classify]
  rcctl probe send --input <FILE> --to <IP:PORT> [--probe <NAME>]
                  [--format <FMT>] [--window-ms N] [--origin-ms N]

FORMATS (default: by file extension, falling back to text):
  text     whitespace/CSV flow log        (.txt, .log, .csv)
  netflow  NetFlow v5 binary export       (.nf, .netflow)
  pcap     libpcap capture                (.pcap, .cap)
  rmon     RMON2 matrix table dump        (.rmon)

OBSERVABILITY:
  --trace      print the span tree of the run with per-stage durations
  metrics      replay the trace through the aggregator pipeline and print
               the telemetry registry (Prometheus text; --json for JSON
               including metrics, spans, and probe reports)
  explain      replay the capture and print the full decision chain for
               one host: formation (k and mechanism), every merge its
               group was considered for (score, S^hi/S^lo gate verdict,
               connection requirement), and group-id lineage per window
  stability    replay the capture windowed and print the stability
               observatory: per-window churn summary, per-group
               persistence/backbone (--group narrows to one id and adds
               its trajectory), and per-host group-id flips (--host
               narrows to one host); --json for machine-readable rows
  profile      run a workload with the profiler attached and print the
               aggregated span profile: per-stage call counts, total and
               self (exclusive) wall time, min/max, and — in binaries
               built with the counting allocator, like rcctl — bytes and
               allocations attributed to each stage. The workload is
               --input replayed window by window, or, without --input, a
               synthetic department-structured network of --hosts hosts
               (default 5000) over --windows windows (default 3).
               --collapsed FILE writes flamegraph-ready collapsed-stack
               lines (stage;stage;... self-microseconds); --json prints
               the table as JSON
  serve        replay the capture, then serve GET /metrics (Prometheus
               text), /events (journal as JSONL; ?tail=N), /stability
               (per-window stability rows; ?follow streams the metric
               ring as NDJSON), /history (retained window summaries;
               ?at=MS returns the full run current at that instant;
               requires --state), /profile (aggregated span profile as
               JSON; ?collapsed for flamegraph-ready stack lines), and
               /healthz (last window's health) until --max-requests is
               reached
  --window-ms  window length for replay commands (default: whole trace)

DURABLE STORAGE AND TIME TRAVEL:
  --state      root directory of the storage stack. metrics/serve
               persist every classified window there (run history,
               flight journal, checkpoint), with disk bounded by the
               backend's retention policy; explain replays windows back
               out of it instead of reading a capture
  --store      backend serving --state: memory | segment
               (default segment: indexed append-only segments with
               compaction and retention)
  --at         explain only: time-travel target in ms. Replays the
               retained windows up to the one current at that instant
               and prints the decision chain as it stood then
  --addr       listen address for serve (default 127.0.0.1:7878; port 0
               picks an ephemeral port)
  --addr-file  write the actually-bound address to a file (for scripts)

ENGINE TUNING (results are bit-identical across all settings):
  --workers N  worker threads for the kernel and merge phases (default:
               the ROLECLASS_THREADS environment variable, else one per
               CPU core)

WIRE INGESTION (the probe→aggregator transport):
  ingest listen  accept framed flow-record streams over TCP, classify
                 each completed window, and print the run summary; stops
                 when every probe session ends (or after --max-windows)
  probe send     replay a capture into a listener, window by window,
                 with acknowledged go-back-N delivery
  --probe        probe/session name (must match on both ends; default
                 \"probe\")
  --to           listener address for probe send
  --origin-ms    start of the first window (default 0; must match on
                 both ends)
  --max-windows  listener hard stop after N windows (guards against a
                 sender that never finishes its session)
";

/// Parsed common options.
struct Options {
    input: Option<String>,
    format: Option<String>,
    snapshot: Option<String>,
    dot: Option<String>,
    prev: Option<String>,
    curr: Option<String>,
    min_flows: u64,
    auto_k_hi: bool,
    trace: bool,
    json: bool,
    window_ms: Option<u64>,
    host: Option<String>,
    group: Option<String>,
    /// `--state <DIR>`: root of the durable storage stack (run history,
    /// flight journal, checkpoints). Absent, nothing is persisted.
    state: Option<String>,
    /// `--store <BACKEND>`: which [`BackendKind`] serves `--state`.
    store: Option<String>,
    /// `--at <MS>`: the instant to time-travel to (explain replays the
    /// retained windows up to the one current at this timestamp).
    at: Option<u64>,
    addr: Option<String>,
    addr_file: Option<String>,
    max_requests: Option<u64>,
    to: Option<String>,
    probe_name: Option<String>,
    origin_ms: Option<u64>,
    max_windows: Option<u64>,
    /// `--hosts N`: population of the synthetic profiling workload
    /// (profile only, when no `--input` capture is given).
    hosts: Option<usize>,
    /// `--windows N`: how many windows the profiling workload runs.
    windows: Option<u64>,
    /// `--collapsed <FILE>`: write the span forest as collapsed-stack
    /// lines (flamegraph input) to this file.
    collapsed: Option<String>,
    params: Params,
    /// Worker threads for the kernel and merge phases. `--workers` wins;
    /// absent that, the `ROLECLASS_THREADS` environment variable is
    /// consulted **here, once** (libraries never read the environment);
    /// absent both, the machine decides.
    workers: Option<usize>,
}

impl Options {
    /// The engine configuration every subcommand runs with: tuning
    /// parameters plus execution knobs, resolved from flags and the
    /// `ROLECLASS_THREADS` fallback.
    fn engine_config(&self) -> EngineConfig {
        EngineConfig::new(self.params).with_workers(self.workers.unwrap_or(0))
    }
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut o = Options {
        input: None,
        format: None,
        snapshot: None,
        dot: None,
        prev: None,
        curr: None,
        min_flows: 1,
        auto_k_hi: false,
        trace: false,
        json: false,
        window_ms: None,
        host: None,
        group: None,
        state: None,
        store: None,
        at: None,
        addr: None,
        addr_file: None,
        max_requests: None,
        to: None,
        probe_name: None,
        origin_ms: None,
        max_windows: None,
        hosts: None,
        windows: None,
        collapsed: None,
        params: Params::default(),
        workers: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::usage(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--input" => o.input = Some(value("--input")?),
            "--format" => o.format = Some(value("--format")?),
            "--snapshot" => o.snapshot = Some(value("--snapshot")?),
            "--dot" => o.dot = Some(value("--dot")?),
            "--prev" => o.prev = Some(value("--prev")?),
            "--curr" => o.curr = Some(value("--curr")?),
            "--auto-k-hi" => o.auto_k_hi = true,
            "--trace" => o.trace = true,
            "--json" => o.json = true,
            "--host" => o.host = Some(value("--host")?),
            "--group" => o.group = Some(value("--group")?),
            "--state" => o.state = Some(value("--state")?),
            "--store" => o.store = Some(value("--store")?),
            "--at" => {
                o.at = Some(
                    value("--at")?
                        .parse()
                        .map_err(|_| CliError::usage("--at expects a timestamp in ms"))?,
                )
            }
            "--addr" => o.addr = Some(value("--addr")?),
            "--addr-file" => o.addr_file = Some(value("--addr-file")?),
            "--to" => o.to = Some(value("--to")?),
            "--probe" => o.probe_name = Some(value("--probe")?),
            "--origin-ms" => {
                o.origin_ms = Some(
                    value("--origin-ms")?
                        .parse()
                        .map_err(|_| CliError::usage("--origin-ms expects an integer"))?,
                )
            }
            "--max-windows" => {
                o.max_windows = Some(
                    value("--max-windows")?
                        .parse()
                        .map_err(|_| CliError::usage("--max-windows expects an integer"))?,
                )
            }
            "--max-requests" => {
                o.max_requests = Some(
                    value("--max-requests")?
                        .parse()
                        .map_err(|_| CliError::usage("--max-requests expects an integer"))?,
                )
            }
            "--window-ms" => {
                o.window_ms = Some(
                    value("--window-ms")?
                        .parse()
                        .map_err(|_| CliError::usage("--window-ms expects an integer"))?,
                )
            }
            "--min-flows" => {
                o.min_flows = value("--min-flows")?
                    .parse()
                    .map_err(|_| CliError::usage("--min-flows expects an integer"))?
            }
            "--s-lo" => {
                o.params.s_lo = value("--s-lo")?
                    .parse()
                    .map_err(|_| CliError::usage("--s-lo expects a number"))?
            }
            "--s-hi" => {
                o.params.s_hi = value("--s-hi")?
                    .parse()
                    .map_err(|_| CliError::usage("--s-hi expects a number"))?
            }
            "--k-hi" => {
                o.params.k_hi = value("--k-hi")?
                    .parse()
                    .map_err(|_| CliError::usage("--k-hi expects an integer"))?
            }
            "--alpha" => {
                o.params.alpha = value("--alpha")?
                    .parse()
                    .map_err(|_| CliError::usage("--alpha expects a number"))?
            }
            "--beta" => {
                o.params.beta = value("--beta")?
                    .parse()
                    .map_err(|_| CliError::usage("--beta expects a number"))?
            }
            "--hosts" => {
                o.hosts = Some(
                    value("--hosts")?
                        .parse()
                        .map_err(|_| CliError::usage("--hosts expects an integer"))?,
                )
            }
            "--windows" => {
                o.windows = Some(
                    value("--windows")?
                        .parse()
                        .map_err(|_| CliError::usage("--windows expects an integer"))?,
                )
            }
            "--collapsed" => o.collapsed = Some(value("--collapsed")?),
            "--workers" => {
                o.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|_| CliError::usage("--workers expects an integer"))?,
                )
            }
            other => return Err(CliError::usage(format!("unknown flag {other:?}"))),
        }
    }
    if o.workers.is_none() {
        // The env var survives as a CLI-layer fallback only; nothing in
        // the libraries reads the environment.
        if let Ok(v) = std::env::var("ROLECLASS_THREADS") {
            o.workers = Some(
                v.parse()
                    .map_err(|_| CliError::usage("ROLECLASS_THREADS must be an integer"))?,
            );
        }
    }
    o.params
        .validate()
        .map_err(|e| CliError::usage(e.to_string()))?;
    Ok(o)
}

/// Infers the input format from an explicit flag or the file extension.
fn resolve_format(path: &str, explicit: Option<&str>) -> String {
    if let Some(f) = explicit {
        return f.to_string();
    }
    match Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
        .to_ascii_lowercase()
        .as_str()
    {
        "nf" | "netflow" => "netflow".into(),
        "pcap" | "cap" => "pcap".into(),
        "rmon" => "rmon".into(),
        _ => "text".into(),
    }
}

/// Loads flow records from a file in the given format.
fn load_records(path: &str, format: &str) -> Result<Vec<FlowRecord>, CliError> {
    let fail = |e: &dyn std::fmt::Display| CliError::runtime(format!("{path}: {e}"));
    match format {
        "text" => {
            let text = std::fs::read_to_string(path).map_err(|e| fail(&e))?;
            textlog::parse(&text).map_err(|e| fail(&e))
        }
        "rmon" => {
            let text = std::fs::read_to_string(path).map_err(|e| fail(&e))?;
            rmon::parse(&text).map_err(|e| fail(&e))
        }
        "netflow" => {
            let bytes = std::fs::read(path).map_err(|e| fail(&e))?;
            netflow::parse_stream(&bytes).map_err(|e| fail(&e))
        }
        "pcap" => {
            let bytes = std::fs::read(path).map_err(|e| fail(&e))?;
            Ok(pcap::parse_file(&bytes).map_err(|e| fail(&e))?.records)
        }
        other => Err(CliError::usage(format!(
            "unknown format {other:?} (expected text|netflow|pcap|rmon)"
        ))),
    }
}

/// A capture loaded through the shared `--input`/`--format` surface,
/// with the time bounds every windowed subcommand derives.
struct LoadedTrace {
    input: String,
    records: Vec<FlowRecord>,
    /// Start of the earliest record (0 on an empty trace).
    origin_ms: u64,
    /// Start of the latest record (0 on an empty trace).
    last_ms: u64,
}

impl LoadedTrace {
    /// `--window-ms`, defaulting to one window spanning the whole trace.
    fn window_ms(&self, o: &Options) -> u64 {
        o.window_ms
            .unwrap_or(self.last_ms - self.origin_ms + 1)
            .max(1)
    }
}

/// Loads `--input` in its (resolved) format — the parsing block every
/// record-consuming subcommand shares. `require_records` distinguishes
/// the replay commands (which cannot window an empty trace) from plain
/// `info`/`classify`.
fn load_trace(o: &Options, require_records: bool) -> Result<LoadedTrace, CliError> {
    let input = o
        .input
        .as_deref()
        .ok_or_else(|| CliError::usage("--input is required"))?
        .to_string();
    let format = resolve_format(&input, o.format.as_deref());
    let records = load_records(&input, &format)?;
    if require_records && records.is_empty() {
        return Err(CliError::runtime(format!("{input}: no flow records")));
    }
    let origin_ms = records.iter().map(|r| r.start_ms).min().unwrap_or(0);
    let last_ms = records.iter().map(|r| r.start_ms).max().unwrap_or(0);
    Ok(LoadedTrace {
        input,
        records,
        origin_ms,
        last_ms,
    })
}

fn load_connsets(o: &Options) -> Result<ConnectionSets, CliError> {
    Ok(build_connsets(o, &load_trace(o, false)?.records))
}

/// Connection sets from `records`, noise-filtered by `--min-flows`.
fn build_connsets<'a>(
    o: &Options,
    records: impl IntoIterator<Item = &'a FlowRecord>,
) -> ConnectionSets {
    let mut builder = ConnsetBuilder::new().min_flows(o.min_flows);
    builder.add_records(records);
    builder.build()
}

fn load_snapshot(path: &str) -> Result<Snapshot, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    serde_json::from_str(&text).map_err(|e| CliError::runtime(format!("{path}: {e}")))
}

fn save_snapshot(path: &str, snap: &Snapshot) -> Result<(), CliError> {
    let json = serde_json::to_string_pretty(snap).map_err(|e| CliError::runtime(e.to_string()))?;
    std::fs::write(path, json).map_err(|e| CliError::runtime(format!("{path}: {e}")))
}

fn render_grouping(out: &mut String, grouping: &Grouping) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "{} hosts in {} groups:",
        grouping.host_count(),
        grouping.group_count()
    );
    for g in grouping.largest(usize::MAX) {
        let preview: Vec<String> = g.members.iter().take(5).map(|m| m.to_string()).collect();
        let ellipsis = if g.len() > 5 { ", ..." } else { "" };
        let _ = writeln!(
            out,
            "  group {:>4}  K={:<4} {:>5} host(s): {}{}",
            g.id.to_string(),
            g.k,
            g.len(),
            preview.join(", "),
            ellipsis
        );
    }
}

/// Builds the classification engine, with a recorder attached when the
/// user asked for `--trace`.
fn build_engine(o: &Options) -> Result<(Engine, Option<Arc<Recorder>>), CliError> {
    let mut engine =
        Engine::from_config(o.engine_config()).map_err(|e| CliError::usage(e.to_string()))?;
    let recorder = o.trace.then(|| Arc::new(Recorder::new()));
    if let Some(r) = &recorder {
        engine.set_recorder(Some(Arc::clone(r)));
    }
    Ok((engine, recorder))
}

/// Appends the recorded span tree (if any) to the command output.
fn append_trace(out: &mut String, recorder: Option<&Recorder>) {
    if let Some(r) = recorder {
        out.push_str("\ntrace:\n");
        out.push_str(&r.render_spans());
    }
}

/// The [`StorageConfig`] described by `--state`/`--store`, if any.
/// `--store` alone is a usage error: a backend choice without a root
/// directory persists nothing, which is never what the user meant.
fn storage_config(o: &Options) -> Result<Option<StorageConfig>, CliError> {
    let Some(state) = o.state.as_deref() else {
        if o.store.is_some() {
            return Err(CliError::usage("--store requires --state <DIR>"));
        }
        return Ok(None);
    };
    let mut config = StorageConfig::new(state);
    if let Some(name) = o.store.as_deref() {
        let kind = BackendKind::parse(name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown storage backend {name:?} (expected memory|segment)"
            ))
        })?;
        config = config.with_backend(kind);
    }
    Ok(Some(config))
}

/// Opens the storage stack at `--state` (creating the directory tree).
fn open_stack(config: &StorageConfig) -> Result<StorageStack, CliError> {
    StorageStack::open(config)
        .map_err(|e| CliError::runtime(format!("storage at {}: {e}", config.root)))
}

/// An aggregator configured from the classifying options, windowed
/// from `origin_ms` by `window_ms`, with `recorder` attached.
fn build_aggregator(
    o: &Options,
    window_ms: u64,
    origin_ms: u64,
    recorder: &Arc<Recorder>,
) -> Result<Aggregator, CliError> {
    Ok(Aggregator::try_new(AggregatorConfig {
        window_ms,
        origin_ms,
        engine: o.engine_config(),
        min_flows: o.min_flows,
        supervisor: SupervisorConfig::immediate(),
        ..AggregatorConfig::default()
    })
    .map_err(|e| CliError::usage(e.to_string()))?
    .with_recorder(Arc::clone(recorder)))
}

/// Result of replaying a capture through the full aggregator pipeline
/// with a recorder attached — shared by `metrics` and `serve`.
struct Replay {
    recorder: Arc<Recorder>,
    windows: usize,
    reports: Vec<ProbeReport>,
    health: Option<WindowHealth>,
    /// One stability row per completed window, in window order.
    stability: Vec<WindowStability>,
    /// Per-host churn table, most churned first.
    churn: Vec<HostChurn>,
    /// The aggregator's stability timeseries ring (shared handle).
    timeseries: Arc<TimeseriesRing>,
    /// The durable run history, when `--state` was given — what serve's
    /// `/history` endpoint answers from.
    runs: Option<Arc<RunStore>>,
}

/// Replays `--input` through the aggregator, windowed by `--window-ms`
/// (default: the whole trace as one window). With `--state`, the full
/// storage stack rides along: every window lands in the run history,
/// every event in the durable flight journal, and a checkpoint is cut
/// at the end, so later `explain --at` / `serve` invocations can time
/// travel into this run.
fn replay_pipeline(o: &Options) -> Result<Replay, CliError> {
    let trace = load_trace(o, true)?;
    let window_ms = trace.window_ms(o);
    let recorder = Arc::new(Recorder::new());
    let stack = match storage_config(o)? {
        Some(config) => Some(open_stack(&config)?),
        None => None,
    };
    let mut agg = build_aggregator(o, window_ms, trace.origin_ms, &recorder)?;
    if let Some(stack) = &stack {
        agg = agg
            .with_shared_flight_recorder(Arc::clone(stack.recorder()))
            .with_run_store(Arc::clone(stack.runs()));
    }
    agg.attach(Box::new(ReplayProbe::new(&trace.input, trace.records)));
    let windows = agg.drain();
    let reports = agg.probe_reports();
    let health = agg.history().read().last().map(|r| r.health.clone());
    let runs = match &stack {
        Some(stack) => {
            agg.checkpoint(stack.checkpointer())
                .map_err(|e| CliError::runtime(format!("checkpoint: {e}")))?;
            stack
                .flush()
                .map_err(|e| CliError::runtime(format!("storage flush: {e}")))?;
            Some(Arc::clone(stack.runs()))
        }
        None => None,
    };
    Ok(Replay {
        recorder,
        windows,
        reports,
        health,
        stability: agg.stability_history().to_vec(),
        churn: agg.churn_table(),
        timeseries: agg.timeseries(),
        runs,
    })
}

/// The windows `rcctl profile` runs: the `--input` capture split by
/// `--window-ms`, or, without one, a synthetic department-structured
/// network sized by `--hosts` traced over `--windows` day-long windows.
fn profile_windows(o: &Options) -> Result<Vec<ConnectionSets>, CliError> {
    if o.input.is_some() {
        if o.hosts.is_some() {
            return Err(CliError::usage(
                "--hosts sizes the synthetic workload and conflicts with --input",
            ));
        }
        return window_connsets(o);
    }
    const DAY_MS: u64 = 86_400_000;
    let hosts = o.hosts.unwrap_or(5_000);
    let windows = o.windows.unwrap_or(3).max(1);
    let model = crate::synthnet::scenarios::department(hosts, 7).connsets;
    Ok((0..windows)
        .map(|w| {
            let opts = crate::synthnet::trace::TraceOptions {
                start_ms: w * DAY_MS,
                span_ms: DAY_MS,
                ..crate::synthnet::trace::TraceOptions::default()
            };
            build_connsets(o, &crate::synthnet::trace::expand(&model, opts, 7 + w))
        })
        .collect())
}

/// Splits a capture into per-window connection sets for `explain`.
fn window_connsets(o: &Options) -> Result<Vec<ConnectionSets>, CliError> {
    let trace = load_trace(o, true)?;
    let window_ms = trace.window_ms(o);
    let origin_ms = trace.origin_ms;
    let count = ((trace.last_ms - origin_ms) / window_ms + 1) as usize;
    let mut buckets: Vec<Vec<&FlowRecord>> = vec![Vec::new(); count];
    for r in &trace.records {
        buckets[((r.start_ms - origin_ms) / window_ms) as usize].push(r);
    }
    Ok(buckets
        .into_iter()
        .map(|bucket| build_connsets(o, bucket))
        .collect())
}

/// Runs the CLI. Returns the text to print on stdout.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::usage(USAGE));
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        "info" => {
            let o = parse_options(rest)?;
            let cs = load_connsets(&o)?;
            let mut out = String::new();
            use std::fmt::Write as _;
            let _ = writeln!(out, "hosts:       {}", cs.host_count());
            let _ = writeln!(out, "connections: {}", cs.connection_count());
            let _ = writeln!(out, "max degree:  {}", cs.max_degree());
            let _ = writeln!(out, "suggested K^hi (otsu): {}", auto_k_hi_otsu(&cs));
            Ok(out)
        }
        "classify" => {
            let mut o = parse_options(rest)?;
            let cs = load_connsets(&o)?;
            if o.auto_k_hi {
                o.params.k_hi = auto_k_hi_otsu(&cs).max(1);
            }
            let (engine, recorder) = build_engine(&o)?;
            let result = engine.classify(&cs);
            let mut out = String::new();
            render_grouping(&mut out, &result.grouping);
            if let Some(dot) = &o.dot {
                std::fs::write(dot, result.to_dot("role-groups"))
                    .map_err(|e| CliError::runtime(format!("{dot}: {e}")))?;
                out.push_str(&format!("wrote {dot}\n"));
            }
            if let Some(path) = &o.snapshot {
                save_snapshot(
                    path,
                    &Snapshot {
                        connsets: cs,
                        grouping: result.grouping,
                    },
                )?;
                out.push_str(&format!("wrote {path}\n"));
            }
            append_trace(&mut out, recorder.as_deref());
            Ok(out)
        }
        "correlate" => {
            let mut o = parse_options(rest)?;
            let prev_path = o
                .prev
                .as_deref()
                .ok_or_else(|| CliError::usage("--prev is required"))?
                .to_string();
            let prev = load_snapshot(&prev_path)?;
            let cs = load_connsets(&o)?;
            if o.auto_k_hi {
                o.params.k_hi = auto_k_hi_otsu(&cs).max(1);
            }
            let (mut engine, recorder) = build_engine(&o)?;
            engine.set_previous(Some(EngineSnapshot {
                connsets: prev.connsets,
                grouping: prev.grouping.clone(),
            }));
            let outcome = engine.run_window(&cs);
            let corr = outcome
                .correlation
                .expect("previous snapshot was set, so run_window correlates");
            let renamed = outcome.grouping;
            let mut out = String::new();
            use std::fmt::Write as _;
            let _ = writeln!(
                out,
                "correlated {} of {} groups ({} new, {} vanished)",
                corr.id_map.len(),
                renamed.group_count(),
                corr.new_groups.len(),
                corr.vanished_groups.len()
            );
            render_grouping(&mut out, &renamed);
            out.push_str(&diff_groupings(&prev.grouping, &renamed).render());
            if let Some(path) = &o.snapshot {
                save_snapshot(
                    path,
                    &Snapshot {
                        connsets: cs,
                        grouping: renamed,
                    },
                )?;
                out.push_str(&format!("wrote {path}\n"));
            }
            append_trace(&mut out, recorder.as_deref());
            Ok(out)
        }
        "metrics" => {
            let o = parse_options(rest)?;
            let replay = replay_pipeline(&o)?;
            let Replay {
                recorder,
                windows,
                reports,
                ..
            } = replay;
            if o.json {
                let probes = serde_json::to_string(&reports)
                    .map_err(|e| CliError::runtime(e.to_string()))?;
                return Ok(format!(
                    "{{\"windows\":{windows},\"metrics\":{},\"spans\":{},\"probes\":{probes}}}\n",
                    recorder.registry().json_snapshot(),
                    telemetry::span_tree_json(&recorder.spans()),
                ));
            }
            let mut out = String::new();
            use std::fmt::Write as _;
            let _ = writeln!(out, "windows: {windows}");
            for r in &reports {
                let _ = writeln!(
                    out,
                    "probe {:<20} {:?}: polled={} failed={} skipped={} retries={} records={}",
                    r.name,
                    r.health,
                    r.stats.windows_polled,
                    r.stats.windows_failed,
                    r.stats.windows_skipped,
                    r.stats.retries,
                    r.stats.records_delivered
                );
            }
            out.push('\n');
            out.push_str(&recorder.registry().prometheus_text());
            if o.trace {
                append_trace(&mut out, Some(&recorder));
            }
            Ok(out)
        }
        "explain" => {
            let mut o = parse_options(rest)?;
            let host: HostAddr = o
                .host
                .as_deref()
                .ok_or_else(|| CliError::usage("--host is required"))?
                .parse()
                .map_err(|e| CliError::usage(format!("--host: {e}")))?;
            // Time travel: with --state the windows come from the
            // retained run history, not a fresh capture. The replay
            // includes every retained window up to the target so the
            // id-lineage chain is the one the store actually observed.
            if let Some(config) = storage_config(&o)? {
                let stack = open_stack(&config)?;
                let cutoff = o.at.unwrap_or(u64::MAX);
                let runs = stack
                    .runs()
                    .all()
                    .map_err(|e| CliError::runtime(format!("run history: {e}")))?;
                let total = runs.len();
                let runs: Vec<_> = runs
                    .into_iter()
                    .filter(|r| r.window.start_ms <= cutoff)
                    .collect();
                if runs.is_empty() {
                    return Err(CliError::runtime(match o.at {
                        Some(at) if total > 0 => {
                            format!("no retained window starts at or before {at} ms")
                        }
                        _ => format!("{}: run history is empty", config.root),
                    }));
                }
                if o.auto_k_hi {
                    o.params.k_hi = auto_k_hi_otsu(&runs[0].connsets).max(1);
                }
                let labeled: Vec<(String, &ConnectionSets)> = runs
                    .iter()
                    .map(|r| {
                        (
                            format!("window [{}, {})", r.window.start_ms, r.window.end_ms),
                            &r.connsets,
                        )
                    })
                    .collect();
                let header = format!(
                    "replaying {} retained window(s) from the {} store at {}\n",
                    labeled.len(),
                    stack.backend().name(),
                    config.root
                );
                return explain_host_labeled(&labeled, host, o.params)
                    .map(|out| format!("{header}{out}"))
                    .map_err(|e| CliError::usage(e.to_string()));
            }
            if o.at.is_some() {
                return Err(CliError::usage("--at requires --state <DIR>"));
            }
            let windows = window_connsets(&o)?;
            if o.auto_k_hi {
                o.params.k_hi = auto_k_hi_otsu(&windows[0]).max(1);
            }
            explain_host(&windows, host, o.params).map_err(|e| CliError::usage(e.to_string()))
        }
        "stability" => {
            let o = parse_options(rest)?;
            let host: Option<HostAddr> = o
                .host
                .as_deref()
                .map(|h| h.parse())
                .transpose()
                .map_err(|e| CliError::usage(format!("--host: {e}")))?;
            let group: Option<GroupId> = o
                .group
                .as_deref()
                .map(|g| g.parse::<u32>().map(GroupId))
                .transpose()
                .map_err(|_| CliError::usage("--group expects a numeric group id"))?;
            let replay = replay_pipeline(&o)?;
            if o.json {
                let rows = serde_json::to_string(&replay.stability)
                    .map_err(|e| CliError::runtime(e.to_string()))?;
                let churn = serde_json::to_string(&replay.churn)
                    .map_err(|e| CliError::runtime(e.to_string()))?;
                return Ok(format!(
                    "{{\"windows\":{},\"rows\":{rows},\"churn\":{churn}}}\n",
                    replay.windows
                ));
            }
            let mut out = String::new();
            stability_report::render_windows(&mut out, &replay.stability);
            stability_report::render_groups(&mut out, &replay.stability, group);
            if let Some(id) = group {
                stability_report::render_group_trajectory(&mut out, &replay.stability, id);
            }
            stability_report::render_churn(&mut out, &replay.churn, host);
            Ok(out)
        }
        "profile" => {
            let o = parse_options(rest)?;
            let windows = profile_windows(&o)?;
            let recorder = Arc::new(Recorder::new());
            let mut engine = Engine::from_config(o.engine_config())
                .map_err(|e| CliError::usage(e.to_string()))?;
            engine.set_recorder(Some(Arc::clone(&recorder)));
            let mut hosts = 0;
            for cs in &windows {
                hosts = hosts.max(cs.host_count());
                engine.run_window(cs);
            }
            let profile = recorder.profile();
            let mut wrote = None;
            if let Some(path) = &o.collapsed {
                let folded = recorder.collapsed_spans();
                std::fs::write(path, &folded)
                    .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
                wrote = Some((path.clone(), folded.lines().count()));
            }
            if o.json {
                return Ok(format!(
                    "{{\"windows\":{},\"hosts\":{hosts},\"profile\":{}}}\n",
                    windows.len(),
                    profile.to_json()
                ));
            }
            let mut out = String::new();
            use std::fmt::Write as _;
            let _ = writeln!(
                out,
                "profiled {} window(s) over {hosts} host(s)\n",
                windows.len()
            );
            out.push_str(&profile.render());
            if let Some((path, lines)) = wrote {
                let _ = writeln!(out, "\nwrote {lines} collapsed stack line(s) to {path}");
            }
            Ok(out)
        }
        "serve" => {
            let o = parse_options(rest)?;
            let replay = replay_pipeline(&o)?;
            let state = ServerState {
                recorder: replay.recorder,
                windows: replay.windows,
                health: replay.health,
                stability: replay.stability,
                timeseries: replay.timeseries,
                history: replay.runs,
            };
            let addr = o.addr.as_deref().unwrap_or("127.0.0.1:7878");
            let server = Server::bind(addr, state)
                .map_err(|e| CliError::runtime(format!("bind {addr}: {e}")))?;
            let bound = server
                .local_addr()
                .map_err(|e| CliError::runtime(e.to_string()))?;
            if let Some(path) = &o.addr_file {
                std::fs::write(path, bound.to_string())
                    .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
            }
            // Announce before blocking in the accept loop; the final
            // return value only prints after the server stops.
            println!(
                "serving http://{bound} (/metrics /events /stability /history /profile /healthz)"
            );
            let served = server
                .run(o.max_requests)
                .map_err(|e| CliError::runtime(e.to_string()))?;
            Ok(format!("served {served} request(s)\n"))
        }
        "probe" => match rest.split_first() {
            Some((sub, rest)) if sub == "send" => {
                let o = parse_options(rest)?;
                let trace = load_trace(&o, true)?;
                let to =
                    o.to.as_deref()
                        .ok_or_else(|| CliError::usage("--to is required"))?;
                use std::net::ToSocketAddrs as _;
                let addr = to
                    .to_socket_addrs()
                    .map_err(|e| CliError::usage(format!("--to {to}: {e}")))?
                    .next()
                    .ok_or_else(|| CliError::usage(format!("--to {to}: no address")))?;
                let probe = o.probe_name.as_deref().unwrap_or("probe");
                let origin_ms = o.origin_ms.unwrap_or(0);
                let window_ms = o.window_ms.unwrap_or(86_400_000).max(1);
                let stats = stream_records(
                    addr,
                    probe,
                    &trace.records,
                    origin_ms,
                    window_ms,
                    TransportConfig::default(),
                )
                .map_err(|e| CliError::runtime(format!("send to {to}: {e}")))?;
                Ok(format!(
                    "sent {} record(s) in {} window(s) as probe {probe:?}: \
                     {} frame(s), {} retransmit(s), {} reconnect(s), {} byte(s)\n",
                    stats.records_sent,
                    stats.windows_sent,
                    stats.frames_sent,
                    stats.retransmits,
                    stats.reconnects,
                    stats.bytes_sent
                ))
            }
            _ => Err(CliError::usage(format!(
                "probe requires the send subcommand\n\n{USAGE}"
            ))),
        },
        "ingest" => match rest.split_first() {
            Some((sub, rest)) if sub == "listen" => {
                let o = parse_options(rest)?;
                let probe = o.probe_name.as_deref().unwrap_or("probe").to_string();
                let addr = o.addr.as_deref().unwrap_or("127.0.0.1:7879");
                let window_ms = o.window_ms.unwrap_or(86_400_000).max(1);
                let recorder = Arc::new(Recorder::new());
                let listener = WireListener::bind(
                    addr,
                    TransportConfig::default(),
                    Some(Arc::clone(&recorder)),
                    None,
                )
                .map_err(|e| CliError::runtime(format!("bind {addr}: {e}")))?;
                let bound = listener.local_addr();
                if let Some(path) = &o.addr_file {
                    std::fs::write(path, bound.to_string())
                        .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
                }
                // Announce before blocking on the first window.
                println!("ingesting on {bound} (probe {probe:?})");
                let mut agg = build_aggregator(&o, window_ms, o.origin_ms.unwrap_or(0), &recorder)?;
                agg.attach(Box::new(listener.probe(&probe)));
                let cap = o.max_windows.unwrap_or(u64::MAX);
                let mut windows: u64 = 0;
                while windows < cap && agg.has_pending_data() {
                    agg.run_cycle();
                    windows += 1;
                }
                let mut out = String::new();
                use std::fmt::Write as _;
                let _ = writeln!(out, "windows: {windows}");
                {
                    let history = agg.history();
                    let history = history.read();
                    for run in history.iter() {
                        let _ = writeln!(
                            out,
                            "window [{}, {}): {} host(s) in {} group(s), {} record(s), {}",
                            run.window.start_ms,
                            run.window.end_ms,
                            run.grouping.host_count(),
                            run.grouping.group_count(),
                            run.health.records_accepted,
                            if run.health.degraded() {
                                "degraded"
                            } else {
                                "healthy"
                            }
                        );
                    }
                }
                for r in &agg.probe_reports() {
                    let _ = writeln!(
                        out,
                        "probe {:<20} {:?}: polled={} failed={} records={}",
                        r.name,
                        r.health,
                        r.stats.windows_polled,
                        r.stats.windows_failed,
                        r.stats.records_delivered
                    );
                }
                Ok(out)
            }
            _ => Err(CliError::usage(format!(
                "ingest requires the listen subcommand\n\n{USAGE}"
            ))),
        },
        "diff" => {
            let o = parse_options(rest)?;
            let prev = load_snapshot(
                o.prev
                    .as_deref()
                    .ok_or_else(|| CliError::usage("--prev is required"))?,
            )?;
            let curr = load_snapshot(
                o.curr
                    .as_deref()
                    .ok_or_else(|| CliError::usage("--curr is required"))?,
            )?;
            Ok(diff_groupings(&prev.grouping, &curr.grouping).render())
        }
        other => Err(CliError::usage(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&args(&["help"])).unwrap();
        assert!(out.contains("rcctl"));
        assert!(out.contains("classify"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn missing_input_is_usage_error() {
        let err = run(&args(&["classify"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--input"));
    }

    #[test]
    fn bad_flag_values_are_usage_errors() {
        let err = run(&args(&["classify", "--s-lo", "abc"])).unwrap_err();
        assert!(err.message.contains("--s-lo"));
        let err = run(&args(&["classify", "--s-lo"])).unwrap_err();
        assert!(err.message.contains("requires a value"));
        let err = run(&args(&["classify", "--wat"])).unwrap_err();
        assert!(err.message.contains("unknown flag"));
    }

    #[test]
    fn invalid_params_rejected() {
        // s_lo above s_hi violates the paper's constraint.
        let err = run(&args(&["classify", "--s-lo", "90", "--s-hi", "80"])).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn profile_renders_table_collapsed_and_json() {
        let dir = std::env::temp_dir().join(format!("rcctl-profile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let folded = dir.join("out.folded");
        let out = run(&args(&[
            "profile",
            "--hosts",
            "300",
            "--windows",
            "2",
            "--collapsed",
            folded.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("profiled 2 window(s)"), "{out}");
        for col in ["stage", "self ms", "alloc bytes", "allocs"] {
            assert!(out.contains(col), "missing column {col:?} in {out}");
        }
        for stage in ["engine.run_window", "engine.classify", "engine.correlate"] {
            assert!(out.contains(stage), "missing stage {stage:?} in {out}");
        }
        let text = std::fs::read_to_string(&folded).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            let (frames, _) = telemetry::parse_collapsed_line(line).expect(line);
            assert_eq!(frames[0], "roleclass");
        }

        let json = run(&args(&["profile", "--hosts", "300", "--json"])).unwrap();
        assert!(json.contains("\"windows\":3"), "{json}");
        assert!(json.contains("\"name\":\"engine.run_window\""), "{json}");
        assert!(json.contains("\"self_secs\""), "{json}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn profile_hosts_conflicts_with_input() {
        let err = run(&args(&["profile", "--input", "x.txt", "--hosts", "10"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--hosts"), "{}", err.message);
    }

    #[test]
    fn format_resolution() {
        assert_eq!(resolve_format("a.pcap", None), "pcap");
        assert_eq!(resolve_format("a.cap", None), "pcap");
        assert_eq!(resolve_format("a.nf", None), "netflow");
        assert_eq!(resolve_format("a.rmon", None), "rmon");
        assert_eq!(resolve_format("a.txt", None), "text");
        assert_eq!(resolve_format("noext", None), "text");
        assert_eq!(resolve_format("a.pcap", Some("text")), "text");
    }
}
