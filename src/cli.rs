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
//!
//! Every windowed command — `metrics`, `stability`, `serve` over a
//! replayed capture, `ingest listen` over the wire — runs the one
//! aggregator loop, `pipeline`; `explain` and `profile` cut their
//! windows with [`WindowedFlows::bucket`]. Both bound the window count
//! by [`MAX_WINDOWS`].

use crate::aggregator::{
    transport::stream_records, Aggregator, AggregatorConfig, Probe, ReplayProbe, StorageStack,
    SupervisorConfig, TransportConfig, WireListener,
};
use crate::explain::explain_host;
use crate::flow::window::MAX_WINDOWS;
use crate::flow::{
    netflow, pcap, rmon, textlog, ConnectionSets, ConnsetBuilder, FlowRecord, HostAddr,
    WindowedFlows,
};
use crate::roleclass::{
    auto_k_hi_otsu, diff_groupings, Engine, EngineConfig, EngineSnapshot, GroupId, Grouping, Params,
};
use crate::serve::{Server, ServerState};
use crate::stability_report;
use crate::storage::StorageConfig;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use telemetry::Recorder;

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
                  [--json] [--trace] [--state <DIR>]
                  [same tuning flags as classify]
  rcctl explain   --input <FILE> --host <ADDR> [--format <FMT>]
                  [--window-ms N] [same tuning flags as classify]
  rcctl explain   --host <ADDR> --state <DIR>
                  [--at <MS>] [same tuning flags as classify]
  rcctl stability --input <FILE> [--format <FMT>] [--window-ms N]
                  [--host <ADDR>] [--group <ID>] [--json]
                  [same tuning flags as classify]
  rcctl profile   [--input <FILE> [--format <FMT>] [--window-ms N]]
                  [--hosts N] [--windows N] [--collapsed <OUT.folded>]
                  [--json] [same tuning flags as classify]
  rcctl serve     --input <FILE> [--format <FMT>] [--window-ms N]
                  [--addr <IP:PORT>] [--addr-file <FILE>]
                  [--max-requests N] [--state <DIR>]
                  [same tuning flags as classify]
  rcctl ingest listen --probe <NAME> [--addr <IP:PORT>] [--addr-file <FILE>]
                  [--window-ms N] [--origin-ms N] [--max-windows N]
                  [--state <DIR>] [same tuning flags as classify]
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
  --window-ms  window length for replay commands (default: whole trace);
               at most 16000000 windows per trace

DURABLE STORAGE AND TIME TRAVEL:
  --state      root directory of the storage stack: indexed append-only
               segments, each record written once, with exact
               retention. metrics, stability, serve and ingest listen
               persist every classified window there (run history,
               flight journal, checkpoint), with disk bounded by the
               retention policy;
               explain replays windows back out of it instead of
               reading a capture
  --at         explain only: time-travel target in ms. Replays the
               retained windows up to the one current at that instant
               and prints the decision chain as it stood then
  --addr       listen address for serve (default 127.0.0.1:7878; port 0
               picks an ephemeral port)
  --addr-file  write the actually-bound address to a file (for scripts)

ENGINE TUNING (results are bit-identical across all settings):
  --workers N  worker threads for the common-neighbor kernel (default:
               the ROLECLASS_THREADS environment variable, else one per
               CPU core)
  --auto-k-hi  classify, correlate and explain only: pick K^hi by Otsu's
               split of the (first window's) degree distribution

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
                 both ends); probe send skips records before it
  --max-windows  listener hard stop after N windows (guards against a
                 sender that never finishes its session)
";

/// Window length the wire commands default to: one day, like the
/// paper's traces.
const DAY_MS: u64 = 86_400_000;

/// Parsed common options.
#[derive(Default)]
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
    /// Worker threads for the common-neighbor kernel. `--workers` wins;
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

    /// Resolves `--auto-k-hi` against `cs` (the first window): K^hi
    /// becomes the Otsu split of its degree distribution.
    fn resolve_auto_k_hi(&mut self, cs: &ConnectionSets) {
        if self.auto_k_hi {
            self.params.k_hi = auto_k_hi_otsu(cs).max(1);
        }
    }
}

/// Parses the value of a numeric flag; the error names the flag and
/// what it `expects`.
fn number<T: std::str::FromStr>(flag: &str, value: String, expects: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| CliError::usage(format!("{flag} expects {expects}")))
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    const INT: &str = "an integer";
    const NUM: &str = "a number";
    let mut o = Options {
        min_flows: 1,
        ..Options::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::usage(format!("{flag} requires a value")))
        };
        match flag {
            "--input" => o.input = Some(value()?),
            "--format" => o.format = Some(value()?),
            "--snapshot" => o.snapshot = Some(value()?),
            "--dot" => o.dot = Some(value()?),
            "--prev" => o.prev = Some(value()?),
            "--curr" => o.curr = Some(value()?),
            "--auto-k-hi" => o.auto_k_hi = true,
            "--trace" => o.trace = true,
            "--json" => o.json = true,
            "--host" => o.host = Some(value()?),
            "--group" => o.group = Some(value()?),
            "--state" => o.state = Some(value()?),
            "--at" => o.at = Some(number(flag, value()?, "a timestamp in ms")?),
            "--addr" => o.addr = Some(value()?),
            "--addr-file" => o.addr_file = Some(value()?),
            "--to" => o.to = Some(value()?),
            "--probe" => o.probe_name = Some(value()?),
            "--origin-ms" => o.origin_ms = Some(number(flag, value()?, INT)?),
            "--max-windows" => o.max_windows = Some(number(flag, value()?, INT)?),
            "--max-requests" => o.max_requests = Some(number(flag, value()?, INT)?),
            "--window-ms" => o.window_ms = Some(number(flag, value()?, INT)?),
            "--min-flows" => o.min_flows = number(flag, value()?, INT)?,
            "--s-lo" => o.params.s_lo = number(flag, value()?, NUM)?,
            "--s-hi" => o.params.s_hi = number(flag, value()?, NUM)?,
            "--k-hi" => o.params.k_hi = number(flag, value()?, INT)?,
            "--alpha" => o.params.alpha = number(flag, value()?, NUM)?,
            "--beta" => o.params.beta = number(flag, value()?, NUM)?,
            "--hosts" => o.hosts = Some(number(flag, value()?, INT)?),
            "--windows" => o.windows = Some(number(flag, value()?, INT)?),
            "--collapsed" => o.collapsed = Some(value()?),
            "--workers" => o.workers = Some(number(flag, value()?, INT)?),
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

/// The value of a flag the command cannot run without.
fn required<'a>(value: &'a Option<String>, flag: &str) -> Result<&'a str, CliError> {
    value
        .as_deref()
        .ok_or_else(|| CliError::usage(format!("{flag} is required")))
}

/// Writes `contents` to `path`; a failure is a runtime error naming the
/// path.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError::runtime(format!("{path}: {e}")))
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
    let text = || std::fs::read_to_string(path).map_err(|e| fail(&e));
    let bytes = || std::fs::read(path).map_err(|e| fail(&e));
    match format {
        "text" => textlog::parse(&text()?).map_err(|e| fail(&e)),
        "rmon" => rmon::parse(&text()?).map_err(|e| fail(&e)),
        "netflow" => netflow::parse_stream(&bytes()?).map_err(|e| fail(&e)),
        "pcap" => Ok(pcap::parse_file(&bytes()?).map_err(|e| fail(&e))?.records),
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
    /// The window length for cutting this trace from `origin_ms`:
    /// `window_ms` when given, else one window spanning the whole
    /// trace. A length that cuts more than [`MAX_WINDOWS`] windows is a
    /// usage error — the one windowing bound every trace-reading
    /// command shares, checked before any window is cut or sent.
    fn window_ms(&self, window_ms: Option<u64>, origin_ms: u64) -> Result<u64, CliError> {
        let span = self.last_ms.saturating_sub(origin_ms);
        let window_ms = window_ms.unwrap_or(span.saturating_add(1)).max(1);
        let windows = span / window_ms + 1;
        if windows > MAX_WINDOWS {
            return Err(CliError::usage(format!(
                "--window-ms {window_ms} cuts {} into {windows} windows (limit {MAX_WINDOWS})",
                self.input
            )));
        }
        Ok(window_ms)
    }
}

/// Loads `--input` in its (resolved) format — the parsing block every
/// record-consuming subcommand shares. `require_records` distinguishes
/// the replay commands (which cannot window an empty trace) from plain
/// `info`/`classify`.
fn load_trace(o: &Options, require_records: bool) -> Result<LoadedTrace, CliError> {
    let input = required(&o.input, "--input")?.to_string();
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
fn build_connsets(o: &Options, records: &[FlowRecord]) -> ConnectionSets {
    let mut builder = ConnsetBuilder::new().min_flows(o.min_flows);
    builder.add_records(records);
    builder.build()
}

/// Splits `--input` into per-window connection sets — the windows
/// `explain` and `profile` replay — cut from the first record by
/// `--window-ms`.
fn capture_windows(o: &Options) -> Result<Vec<ConnectionSets>, CliError> {
    let trace = load_trace(o, true)?;
    let window_ms = trace.window_ms(o.window_ms, trace.origin_ms)?;
    Ok(
        WindowedFlows::bucket(&trace.records, trace.origin_ms, window_ms)
            .windows
            .iter()
            .map(|(_, records)| build_connsets(o, records))
            .collect(),
    )
}

fn load_snapshot(path: &str) -> Result<Snapshot, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    serde_json::from_str(&text).map_err(|e| CliError::runtime(format!("{path}: {e}")))
}

/// Saves `snap` to `path` and notes the write in `out`.
fn save_snapshot(out: &mut String, path: &str, snap: &Snapshot) -> Result<(), CliError> {
    let json = serde_json::to_string_pretty(snap).map_err(|e| CliError::runtime(e.to_string()))?;
    write_file(path, json)?;
    let _ = writeln!(out, "wrote {path}");
    Ok(())
}

fn render_grouping(out: &mut String, grouping: &Grouping) {
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

/// Builds the classification engine from the options, with `recorder`
/// attached when given.
fn build_engine(o: &Options, recorder: Option<&Arc<Recorder>>) -> Result<Engine, CliError> {
    let mut engine =
        Engine::from_config(o.engine_config()).map_err(|e| CliError::usage(e.to_string()))?;
    engine.set_recorder(recorder.cloned());
    Ok(engine)
}

/// Appends the recorded span tree (if any) to the command output.
fn append_trace(out: &mut String, recorder: Option<&Recorder>) {
    if let Some(r) = recorder {
        out.push_str("\ntrace:\n");
        out.push_str(&r.render_spans());
    }
}

/// Opens the storage stack rooted at `root` (the `--state` directory),
/// creating the directory tree.
fn open_stack(root: &str) -> Result<StorageStack, CliError> {
    StorageStack::open(&StorageConfig::new(root))
        .map_err(|e| CliError::runtime(format!("storage at {root}: {e}")))
}

/// The one aggregator loop every windowed command runs: an aggregator
/// configured from the classifying options, windowed from `origin_ms`
/// by `window_ms`, with `recorder` attached, polling `probe`. Cycles
/// run while the probe has data, at most `--max-windows` of them.
///
/// With a storage `stack` (opened from `--state`), it rides along:
/// every window lands in the run history, every event in the durable
/// flight journal, and a checkpoint is cut at the end, so later
/// `explain --state` / `serve` invocations can time travel into this
/// run. The caller opens the stack, so a wire listener bound before the
/// loop can journal into the same flight recorder.
fn pipeline(
    o: &Options,
    probe: Box<dyn Probe + Send>,
    origin_ms: u64,
    window_ms: u64,
    recorder: &Arc<Recorder>,
    stack: Option<StorageStack>,
) -> Result<(Aggregator, Option<StorageStack>), CliError> {
    let mut agg = Aggregator::try_new(AggregatorConfig {
        window_ms,
        origin_ms,
        engine: o.engine_config(),
        min_flows: o.min_flows,
        supervisor: SupervisorConfig::immediate(),
        ..AggregatorConfig::default()
    })
    .map_err(|e| CliError::usage(e.to_string()))?
    .with_recorder(Arc::clone(recorder));
    if let Some(stack) = &stack {
        agg = agg
            .with_shared_flight_recorder(Arc::clone(stack.recorder()))
            .with_run_store(Arc::clone(stack.runs()));
    }
    agg.attach(probe);
    let cap = o.max_windows.unwrap_or(u64::MAX);
    let mut windows: u64 = 0;
    while windows < cap && agg.has_pending_data() {
        agg.run_cycle();
        windows += 1;
    }
    if let Some(stack) = &stack {
        agg.checkpoint(stack.checkpointer())
            .map_err(|e| CliError::runtime(format!("checkpoint: {e}")))?;
        stack
            .flush()
            .map_err(|e| CliError::runtime(format!("storage flush: {e}")))?;
    }
    Ok((agg, stack))
}

/// Replays `--input` through [`pipeline`], windowed by `--window-ms`
/// from the first record (default: the whole trace as one window).
fn replay(
    o: &Options,
    recorder: &Arc<Recorder>,
) -> Result<(Aggregator, Option<StorageStack>), CliError> {
    let trace = load_trace(o, true)?;
    let window_ms = trace.window_ms(o.window_ms, trace.origin_ms)?;
    let probe = Box::new(ReplayProbe::new(&trace.input, trace.records));
    let stack = o.state.as_deref().map(open_stack).transpose()?;
    pipeline(o, probe, trace.origin_ms, window_ms, recorder, stack)
}

/// Binds `--addr` (default `default_addr`) with `bind`, which returns
/// the bound value and its actual address; writes that address to
/// `--addr-file`; and prints `announce(address)` before the caller
/// blocks. The startup `serve` and `ingest listen` share.
fn bind_and_announce<T>(
    o: &Options,
    default_addr: &str,
    bind: impl FnOnce(&str) -> std::io::Result<(T, SocketAddr)>,
    announce: impl FnOnce(SocketAddr) -> String,
) -> Result<T, CliError> {
    let addr = o.addr.as_deref().unwrap_or(default_addr);
    let (bound, local) = bind(addr).map_err(|e| CliError::runtime(format!("bind {addr}: {e}")))?;
    if let Some(path) = &o.addr_file {
        write_file(path, local.to_string())?;
    }
    // Announce before blocking; the command's return value only prints
    // after it stops.
    println!("{}", announce(local));
    Ok(bound)
}

/// Runs the CLI. Returns the text to print on stdout.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::usage(USAGE));
    };
    type Command = fn(Options) -> Result<String, CliError>;
    // (handler, its arguments, whether it reads --auto-k-hi)
    let (command, rest, auto_k_hi): (Command, &[String], bool) =
        match (cmd.as_str(), rest.first().map(String::as_str)) {
            ("help" | "--help" | "-h", _) => return Ok(USAGE.to_string()),
            ("info", _) => (cmd_info, rest, false),
            ("classify", _) => (cmd_classify, rest, true),
            ("correlate", _) => (cmd_correlate, rest, true),
            ("diff", _) => (cmd_diff, rest, false),
            ("metrics", _) => (cmd_metrics, rest, false),
            ("explain", _) => (cmd_explain, rest, true),
            ("stability", _) => (cmd_stability, rest, false),
            ("profile", _) => (cmd_profile, rest, false),
            ("serve", _) => (cmd_serve, rest, false),
            ("probe", Some("send")) => (cmd_probe_send, &rest[1..], false),
            ("ingest", Some("listen")) => (cmd_ingest_listen, &rest[1..], false),
            (group @ ("probe" | "ingest"), _) => {
                let sub = if group == "probe" { "send" } else { "listen" };
                let msg = format!("{group} requires the {sub} subcommand\n\n{USAGE}");
                return Err(CliError::usage(msg));
            }
            (other, _) => {
                let msg = format!("unknown command {other:?}\n\n{USAGE}");
                return Err(CliError::usage(msg));
            }
        };
    let o = parse_options(rest)?;
    if o.auto_k_hi && !auto_k_hi {
        return Err(CliError::usage(format!(
            "--auto-k-hi is read only by classify, correlate and explain, not by {cmd}"
        )));
    }
    command(o)
}

fn cmd_info(o: Options) -> Result<String, CliError> {
    let cs = load_connsets(&o)?;
    let mut out = String::new();
    let _ = writeln!(out, "hosts:       {}", cs.host_count());
    let _ = writeln!(out, "connections: {}", cs.connection_count());
    let _ = writeln!(out, "max degree:  {}", cs.max_degree());
    let _ = writeln!(out, "suggested K^hi (otsu): {}", auto_k_hi_otsu(&cs));
    Ok(out)
}

fn cmd_classify(mut o: Options) -> Result<String, CliError> {
    let cs = load_connsets(&o)?;
    o.resolve_auto_k_hi(&cs);
    let recorder = o.trace.then(|| Arc::new(Recorder::new()));
    let result = build_engine(&o, recorder.as_ref())?.classify(&cs);
    let mut out = String::new();
    render_grouping(&mut out, &result.grouping);
    if let Some(dot) = &o.dot {
        write_file(dot, result.to_dot("role-groups"))?;
        let _ = writeln!(out, "wrote {dot}");
    }
    if let Some(path) = &o.snapshot {
        let snap = Snapshot {
            connsets: cs,
            grouping: result.grouping,
        };
        save_snapshot(&mut out, path, &snap)?;
    }
    append_trace(&mut out, recorder.as_deref());
    Ok(out)
}

fn cmd_correlate(mut o: Options) -> Result<String, CliError> {
    let prev = load_snapshot(required(&o.prev, "--prev")?)?;
    let cs = load_connsets(&o)?;
    o.resolve_auto_k_hi(&cs);
    let recorder = o.trace.then(|| Arc::new(Recorder::new()));
    let mut engine = build_engine(&o, recorder.as_ref())?;
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
        let snap = Snapshot {
            connsets: cs,
            grouping: renamed,
        };
        save_snapshot(&mut out, path, &snap)?;
    }
    append_trace(&mut out, recorder.as_deref());
    Ok(out)
}

fn cmd_diff(o: Options) -> Result<String, CliError> {
    let prev = load_snapshot(required(&o.prev, "--prev")?)?;
    let curr = load_snapshot(required(&o.curr, "--curr")?)?;
    Ok(diff_groupings(&prev.grouping, &curr.grouping).render())
}

fn cmd_metrics(o: Options) -> Result<String, CliError> {
    let recorder = Arc::new(Recorder::new());
    let (agg, _) = replay(&o, &recorder)?;
    let windows = agg.stability_history().len();
    let reports = agg.probe_reports();
    if o.json {
        let probes =
            serde_json::to_string(&reports).map_err(|e| CliError::runtime(e.to_string()))?;
        return Ok(format!(
            "{{\"windows\":{windows},\"metrics\":{},\"spans\":{},\"probes\":{probes}}}\n",
            recorder.registry().json_snapshot(),
            telemetry::span_tree_json(&recorder.spans()),
        ));
    }
    let mut out = String::new();
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

fn cmd_explain(mut o: Options) -> Result<String, CliError> {
    let host: HostAddr = required(&o.host, "--host")?
        .parse()
        .map_err(|e| CliError::usage(format!("--host: {e}")))?;
    // Time travel: with --state the windows come from the retained run
    // history, not a fresh capture. The replay includes every retained
    // window up to the target so the id-lineage chain is the one the
    // store actually observed.
    let (header, windows) = match o.state.as_deref() {
        Some(root) => {
            let stack = open_stack(root)?;
            let cutoff = o.at.unwrap_or(u64::MAX);
            let runs = stack
                .runs()
                .all()
                .map_err(|e| CliError::runtime(format!("run history: {e}")))?;
            let total = runs.len();
            let windows: Vec<(String, ConnectionSets)> = runs
                .into_iter()
                .filter(|r| r.window.start_ms <= cutoff)
                .map(|r| {
                    let label = format!("window [{}, {})", r.window.start_ms, r.window.end_ms);
                    (label, r.connsets)
                })
                .collect();
            if windows.is_empty() {
                return Err(CliError::runtime(match o.at {
                    Some(at) if total > 0 => {
                        format!("no retained window starts at or before {at} ms")
                    }
                    _ => format!("{root}: run history is empty"),
                }));
            }
            let header = format!(
                "replaying {} retained window(s) from the {} store at {root}\n",
                windows.len(),
                stack.backend().name(),
            );
            (header, windows)
        }
        None if o.at.is_some() => return Err(CliError::usage("--at requires --state <DIR>")),
        None => {
            let windows = capture_windows(&o)?.into_iter().enumerate();
            let windows = windows.map(|(w, cs)| (format!("window {w}"), cs));
            (String::new(), windows.collect())
        }
    };
    o.resolve_auto_k_hi(&windows[0].1);
    explain_host(&windows, host, &o.engine_config())
        .map(|out| format!("{header}{out}"))
        .map_err(|e| CliError::usage(e.to_string()))
}

fn cmd_stability(o: Options) -> Result<String, CliError> {
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
    let (agg, _) = replay(&o, &Arc::new(Recorder::new()))?;
    let rows = agg.stability_history();
    let churn = agg.churn_table();
    if o.json {
        let rows_json =
            serde_json::to_string(rows).map_err(|e| CliError::runtime(e.to_string()))?;
        let churn_json =
            serde_json::to_string(&churn).map_err(|e| CliError::runtime(e.to_string()))?;
        return Ok(format!(
            "{{\"windows\":{},\"rows\":{rows_json},\"churn\":{churn_json}}}\n",
            rows.len()
        ));
    }
    let mut out = String::new();
    stability_report::render_windows(&mut out, rows);
    stability_report::render_groups(&mut out, rows, group);
    if let Some(id) = group {
        stability_report::render_group_trajectory(&mut out, rows, id);
    }
    stability_report::render_churn(&mut out, &churn, host);
    Ok(out)
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
        return capture_windows(o);
    }
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

fn cmd_profile(o: Options) -> Result<String, CliError> {
    let windows = profile_windows(&o)?;
    let recorder = Arc::new(Recorder::new());
    let mut engine = build_engine(&o, Some(&recorder))?;
    let mut hosts = 0;
    for cs in &windows {
        hosts = hosts.max(cs.host_count());
        engine.run_window(cs);
    }
    let profile = recorder.profile();
    let mut wrote = None;
    if let Some(path) = &o.collapsed {
        let folded = recorder.collapsed_spans();
        write_file(path, &folded)?;
        wrote = Some((path, folded.lines().count()));
    }
    if o.json {
        return Ok(format!(
            "{{\"windows\":{},\"hosts\":{hosts},\"profile\":{}}}\n",
            windows.len(),
            profile.to_json()
        ));
    }
    let mut out = String::new();
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

fn cmd_serve(o: Options) -> Result<String, CliError> {
    let recorder = Arc::new(Recorder::new());
    let (agg, stack) = replay(&o, &recorder)?;
    let state = ServerState {
        recorder,
        windows: agg.stability_history().len(),
        health: agg.history().read().last().map(|r| r.health.clone()),
        stability: agg.stability_history().to_vec(),
        timeseries: agg.timeseries(),
        history: stack.map(|stack| Arc::clone(stack.runs())),
    };
    let bind = |addr: &str| {
        let server = Server::bind(addr, state)?;
        let local = server.local_addr()?;
        Ok((server, local))
    };
    let server = bind_and_announce(&o, "127.0.0.1:7878", bind, |local| {
        format!("serving http://{local} (/metrics /events /stability /history /profile /healthz)")
    })?;
    let served = server
        .run(o.max_requests)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    Ok(format!("served {served} request(s)\n"))
}

fn cmd_probe_send(o: Options) -> Result<String, CliError> {
    let trace = load_trace(&o, true)?;
    let to = required(&o.to, "--to")?;
    use std::net::ToSocketAddrs as _;
    let addr = to
        .to_socket_addrs()
        .map_err(|e| CliError::usage(format!("--to {to}: {e}")))?
        .next()
        .ok_or_else(|| CliError::usage(format!("--to {to}: no address")))?;
    let probe = o.probe_name.as_deref().unwrap_or("probe");
    let origin_ms = o.origin_ms.unwrap_or(0);
    let window_ms = trace.window_ms(Some(o.window_ms.unwrap_or(DAY_MS)), origin_ms)?;
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

fn cmd_ingest_listen(o: Options) -> Result<String, CliError> {
    let probe = o.probe_name.as_deref().unwrap_or("probe");
    let recorder = Arc::new(Recorder::new());
    // Opened before the listener binds, so transport provenance reaches
    // the durable flight journal too.
    let stack = o.state.as_deref().map(open_stack).transpose()?;
    let flight = stack.as_ref().map(|s| Arc::clone(s.recorder()));
    let bind = |addr: &str| {
        let config = TransportConfig::default();
        let listener =
            WireListener::bind(addr, config, Some(Arc::clone(&recorder)), flight.clone())?;
        let local = listener.local_addr();
        Ok((listener, local))
    };
    let listener = bind_and_announce(&o, "127.0.0.1:7879", bind, |local| {
        format!("ingesting on {local} (probe {probe:?})")
    })?;
    let window_ms = o.window_ms.unwrap_or(DAY_MS).max(1);
    let origin_ms = o.origin_ms.unwrap_or(0);
    let wire = Box::new(listener.probe(probe));
    let (agg, _) = pipeline(&o, wire, origin_ms, window_ms, &recorder, stack)?;
    let history = agg.history();
    let history = history.read();
    let mut out = String::new();
    let _ = writeln!(out, "windows: {}", history.len());
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
