//! Set-up, the untraced pipeline pass, and the correctness gate.
//!
//! The untraced pass drives the program exactly as an operator would:
//! `Aggregator::run_cycle` per window (plus `Aggregator::checkpoint` and
//! the HTTP query phase on `ops-longrun`). Nothing in it is timed
//! except from the outside, around whole windows and whole requests.

use crate::inputs::{self, Inputs, Scale, Workload, DAY_MS};
use crate::serve_load::{self, Response, Route};
use role_classification::aggregator::transport::{
    ProbeSender, SenderStats, TransportConfig, WireListener,
};
use role_classification::aggregator::{
    Aggregator, AggregatorConfig, Probe, ReplayProbe, RunRecord, StorageStack,
};
use role_classification::roleclass::{Correlation, Grouping};
use role_classification::serve::ServerState;
use role_classification::storage::StorageConfig;
use role_classification::telemetry::Recorder;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Name the single wire probe registers under.
pub const PROBE: &str = "probe-0";

/// Tail and health requests in the query mix, each (the mix also holds
/// one `/history?at=` request per window). At least eleven tail requests
/// keep `query_tail_ms` inside the tail class.
pub fn query_extra(scale: Scale) -> usize {
    match scale {
        Scale::Full => 12,
        Scale::Smoke => 3,
    }
}

pub fn aggregator_config() -> AggregatorConfig {
    AggregatorConfig {
        window_ms: DAY_MS,
        origin_ms: 0,
        ..AggregatorConfig::default()
    }
}

/// Fingerprint of one published window: its grouping and correlation.
pub fn fingerprint(grouping: &Grouping, correlation: &Option<Correlation>) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(format!("{:?}|{correlation:?}", grouping.groups()).as_bytes());
    h.finish()
}

fn run_fingerprint(run: &RunRecord) -> u64 {
    fingerprint(&run.grouping, &run.correlation)
}

/// Everything a pass needs, built by [`prepare`] (the timed set-up).
pub struct Prepared {
    pub scale: Scale,
    pub seed: u64,
    pub inputs: Arc<Inputs>,
    /// The probe the pipeline polls: a replay of every window, or the
    /// wire session of `ops-longrun`.
    pub probe: Box<dyn Probe + Send>,
    pub ops: Option<OpsRig>,
}

/// The `ops-longrun` surroundings: storage, listener, and the probe-side
/// sender thread.
pub struct OpsRig {
    pub root: PathBuf,
    pub stack: StorageStack,
    pub listener: WireListener,
    pub sender: SenderThread,
}

/// Generates the inputs and builds the probe (and, on `ops-longrun`, a
/// fresh segment storage stack under `root`, a loopback listener, and a
/// connected sender thread).
pub fn prepare(workload: Workload, scale: Scale, seed: u64, root: &Path) -> io::Result<Prepared> {
    let inputs = Arc::new(inputs::generate(workload, scale, seed));
    let (probe, ops): (Box<dyn Probe + Send>, _) = if workload.is_ops() {
        if root.exists() {
            std::fs::remove_dir_all(root)?;
        }
        let stack = StorageStack::open(&StorageConfig::new(root.to_string_lossy()))?;
        let listener = WireListener::bind("127.0.0.1:0", TransportConfig::default(), None, None)?;
        let sender = ProbeSender::connect(listener.local_addr(), PROBE, TransportConfig::default())
            .map_err(io::Error::other)?;
        let rig = OpsRig {
            root: root.to_path_buf(),
            stack,
            sender: SenderThread::spawn(sender, Arc::clone(&inputs)),
            listener,
        };
        (Box::new(rig.listener.probe(PROBE)), Some(rig))
    } else {
        let records = inputs
            .windows
            .iter()
            .flat_map(|w| w.records.iter().copied())
            .collect();
        (Box::new(ReplayProbe::new("replay", records)), None)
    };
    Ok(Prepared {
        scale,
        seed,
        inputs,
        probe,
        ops,
    })
}

/// When one window went onto the wire.
#[derive(Clone, Copy)]
pub struct Sent {
    /// `send_window` called.
    pub started: Instant,
    /// `send_window` returned: the `WindowEnd` frame is written.
    pub done: Instant,
}

/// The probe side of `ops-longrun`: a thread that streams window `w`
/// with `ProbeSender::send_window` each time it is told to.
pub struct SenderThread {
    cmd: mpsc::Sender<usize>,
    sent: mpsc::Receiver<Result<Sent, String>>,
    thread: JoinHandle<Result<SenderStats, String>>,
}

impl SenderThread {
    fn spawn(mut sender: ProbeSender, inputs: Arc<Inputs>) -> SenderThread {
        let (cmd, cmd_rx) = mpsc::channel::<usize>();
        let (sent_tx, sent) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            // The loop ends when the command channel closes.
            for w in cmd_rx {
                let window = &inputs.windows[w];
                let started = Instant::now();
                let result = sender
                    .send_window(window.start_ms, window.start_ms + DAY_MS, &window.records)
                    .map(|()| Sent {
                        started,
                        done: Instant::now(),
                    })
                    .map_err(|e| e.to_string());
                let failed = result.is_err();
                if sent_tx.send(result).is_err() || failed {
                    break;
                }
            }
            sender.finish().map_err(|e| e.to_string())
        });
        SenderThread { cmd, sent, thread }
    }

    /// Streams window `w` and waits until its last frame is written.
    pub fn send(&self, w: usize) -> io::Result<Sent> {
        self.cmd
            .send(w)
            .map_err(|_| io::Error::other("sender thread gone"))?;
        self.sent
            .recv()
            .map_err(|_| io::Error::other("sender thread gone"))?
            .map_err(io::Error::other)
    }

    /// Settles every ack, closes the session, and joins the thread.
    pub fn finish(self) -> io::Result<SenderStats> {
        drop(self.cmd);
        self.thread
            .join()
            .map_err(|_| io::Error::other("sender thread panicked"))?
            .map_err(io::Error::other)
    }
}

/// What one untraced pass measured and published.
#[derive(Default)]
pub struct PassOutcome {
    /// Per measured window: last record handed in to grouping published
    /// (and checkpointed, when storage is attached), seconds.
    pub latencies: Vec<f64>,
    /// First measured hand-in to last publish, seconds.
    pub wall_s: f64,
    /// Fingerprint of every published window, warm-up included.
    pub published: Vec<u64>,
    /// The last window's published grouping.
    pub last_grouping: Grouping,
    pub attempted: u64,
    pub failed: u64,
    /// The query phase (`ops-longrun` only).
    pub responses: Vec<Response>,
    /// On-disk size of the storage root after the run.
    pub state_bytes: u64,
}

/// Runs the untraced pipeline over every window of `p`.
pub fn run_untraced(p: Prepared, corrupt_readback: bool) -> io::Result<PassOutcome> {
    let mut agg = Aggregator::new(aggregator_config());
    agg.attach(p.probe);
    let windows = p.inputs.windows.len();
    let mut out = PassOutcome {
        attempted: windows as u64,
        ..PassOutcome::default()
    };
    let Some(rig) = p.ops else {
        agg.run_cycle();
        let first = Instant::now();
        for _ in 1..windows {
            let t0 = Instant::now();
            agg.run_cycle();
            out.latencies.push(t0.elapsed().as_secs_f64());
        }
        out.wall_s = first.elapsed().as_secs_f64();
        finish_publication(&agg, &mut out);
        return Ok(out);
    };

    let OpsRig {
        root,
        stack,
        listener,
        sender,
    } = rig;
    let mut agg = agg
        .with_shared_flight_recorder(Arc::clone(stack.recorder()))
        .with_run_store(Arc::clone(stack.runs()));
    let mut first_hand_in = None;
    for w in 0..windows {
        let sent = sender.send(w)?;
        agg.run_cycle();
        if agg.checkpoint(stack.checkpointer()).is_err() {
            out.failed += 1;
        }
        let published = Instant::now();
        if w > 0 {
            let first = *first_hand_in.get_or_insert(sent.started);
            out.latencies.push((published - sent.done).as_secs_f64());
            out.wall_s = (published - first).as_secs_f64();
        }
    }
    sender.finish()?;
    stack.flush()?;
    finish_publication(&agg, &mut out);

    // Query phase: one client, a fixed seeded mix, the live run store.
    let history = agg.history();
    let health = history.read().last().map(|r| r.health.clone());
    let state = ServerState {
        recorder: Arc::new(Recorder::new()),
        windows,
        health,
        stability: agg.stability_history().to_vec(),
        timeseries: agg.timeseries(),
        history: Some(Arc::clone(stack.runs())),
    };
    let routes = serve_load::mix(windows, query_extra(p.scale), p.seed);
    out.responses = serve_load::serve_and_query(state, &routes)?;
    if corrupt_readback {
        corrupt_first_at(&mut out.responses);
    }
    out.attempted += out.responses.len() as u64;
    out.failed += check_responses(&out.responses, &out.published) as u64;

    // Stored copies, then the in-process reference for the wire copies.
    for (w, &expected) in out.published.iter().enumerate() {
        let stored = stack.runs().at(w as u64 * DAY_MS);
        if !matches!(stored, Ok(Some(ref run)) if run_fingerprint(run) == expected) {
            out.failed += 1;
        }
    }
    let reference = in_process_reference(&p.inputs);
    out.failed += reference
        .iter()
        .zip(&out.published)
        .filter(|(a, b)| a != b)
        .count() as u64
        + reference.len().abs_diff(out.published.len()) as u64;
    out.attempted += 2 * windows as u64;

    out.state_bytes = dir_bytes(&root)?;
    drop(stack);
    drop(listener);
    std::fs::remove_dir_all(&root)?;
    Ok(out)
}

/// Records fingerprints, degraded windows, and the last grouping from
/// the aggregator's in-memory history.
fn finish_publication(agg: &Aggregator, out: &mut PassOutcome) {
    let history = agg.history();
    let runs = history.read();
    out.published = runs.iter().map(run_fingerprint).collect();
    out.failed += runs.iter().filter(|r| r.health.degraded()).count() as u64;
    if let Some(last) = runs.last() {
        out.last_grouping = last.grouping.clone();
    }
}

/// The same windows replayed in process, without wire or storage: what
/// the wire-delivered windows must publish.
fn in_process_reference(inputs: &Inputs) -> Vec<u64> {
    let records = inputs
        .windows
        .iter()
        .flat_map(|w| w.records.iter().copied())
        .collect();
    let mut agg = Aggregator::new(aggregator_config());
    agg.attach(Box::new(ReplayProbe::new("reference", records)));
    for _ in &inputs.windows {
        agg.run_cycle();
    }
    let history = agg.history();
    let runs = history.read();
    runs.iter().map(run_fingerprint).collect()
}

/// Counts failed requests: a non-200 answer, an `at` read-back whose
/// grouping or correlation differs from the published window, a tail
/// answer that does not list every window, or an unhealthy `/healthz`.
pub fn check_responses(responses: &[Response], published: &[u64]) -> usize {
    responses
        .iter()
        .filter(|r| {
            let body = String::from_utf8_lossy(&r.body);
            let ok = r.status == 200
                && match r.route {
                    Route::At { window, .. } => serde_json_run(&body)
                        .is_some_and(|run| Some(&run_fingerprint(&run)) == published.get(window)),
                    Route::Tail(_) => body.contains(&format!("\"retained\":{}", published.len())),
                    Route::Healthz => body.contains("\"status\":\"ok\""),
                };
            !ok
        })
        .count()
}

fn serde_json_run(body: &str) -> Option<RunRecord> {
    serde_json::from_str(body.trim_end()).ok()
}

/// Flips one digit inside the first `/history?at=` answer's grouping —
/// the deliberately corrupted read-back the gate must catch.
fn corrupt_first_at(responses: &mut [Response]) {
    let Some(r) = responses
        .iter_mut()
        .find(|r| matches!(r.route, Route::At { .. }))
    else {
        return;
    };
    let start = r
        .body
        .windows(10)
        .position(|w| w == b"\"grouping\"")
        .unwrap_or(0);
    if let Some(b) = r.body[start..].iter_mut().find(|b| b.is_ascii_digit()) {
        *b = if *b == b'9' { b'1' } else { *b + 1 };
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
