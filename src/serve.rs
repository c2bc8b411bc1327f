//! The `rcctl serve` HTTP endpoint: metrics, events, and health over a
//! zero-dependency `std::net` listener.
//!
//! Serves four read-only views of one pipeline run:
//!
//! * `GET /metrics` — the telemetry registry in Prometheus exposition
//!   format (`text/plain; version=0.0.4`), scrapeable as-is.
//! * `GET /events` — the in-memory event journal as JSONL
//!   (`application/x-ndjson`), one structured event per line;
//!   `?tail=N` limits the response to the newest `N` events.
//! * `GET /stability` — the stability observatory: a JSON snapshot of
//!   per-window [`WindowStability`] rows (`?tail=N` keeps the newest
//!   `N`), or with `?follow` the bounded timeseries ring as NDJSON,
//!   one metric frame per completed window.
//! * `GET /history` — the durable run history: one [`RunSummary`] per
//!   retained window (`?tail=N` keeps the newest `N`), or with `?at=MS`
//!   the full run record current at that instant — the time-travel
//!   query. Answers `503` unless the pipeline ran with `--state`.
//! * `GET /profile` — the aggregated span profile of the replayed run
//!   (per-stage call counts, total/self wall time, allocation tallies)
//!   as JSON, or with `?collapsed` the same spans as collapsed-stack
//!   lines (`text/plain`) ready for flamegraph tooling.
//! * `GET /healthz` — the [`WindowHealth`] of the last completed cycle
//!   as JSON, `503` until a cycle has completed.
//!
//! `/events`, `/stability`, `/history`, and `/profile` share one
//! query-string parser and one table of the parameters each accepts: a
//! malformed `tail`, an unknown parameter, or a parameter the route
//! cannot honor (`follow` on an endpoint that cannot stream) is an
//! explicit `400` naming the route that does answer it, never silently
//! ignored.
//!
//! The server is deliberately minimal: blocking accept loop, one
//! request per connection (`Connection: close`), request line plus
//! drained headers, GET only. That keeps it inside the standard
//! library while still being a conformant scrape target.
//!
//! It is also defensive: every connection gets a read *and* write
//! deadline (a half-open client cannot park the accept loop), and the
//! request line plus headers are capped at
//! [`ServerConfig::max_header_bytes`] — an oversized request is
//! answered `431` instead of buffered without bound. GETs carry no
//! body, so the header cap bounds the whole request.

use crate::aggregator::{RunStore, RunSummary, WindowHealth};
use crate::roleclass::WindowStability;
use std::io::{self, BufRead, BufReader, Read as _, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use telemetry::{Recorder, TimeseriesRing};

/// Per-connection limits for the HTTP listener.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Deadline for reading the request (request line + headers). A
    /// client that connects and goes silent is dropped when it expires.
    pub read_timeout: Duration,
    /// Deadline for writing the response.
    pub write_timeout: Duration,
    /// Upper bound on request line + headers; beyond it the request is
    /// answered `431 Request Header Fields Too Large`.
    pub max_header_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_header_bytes: 8192,
        }
    }
}

/// What the server exposes: a recorder (metrics registry + event
/// journal) and the outcome of the replayed pipeline.
pub struct ServerState {
    /// Recorder whose registry backs `/metrics` and whose journal backs
    /// `/events`.
    pub recorder: Arc<Recorder>,
    /// Number of completed classification windows.
    pub windows: usize,
    /// Input health of the last completed window, if any.
    pub health: Option<WindowHealth>,
    /// One stability row per completed window, in window order — the
    /// `/stability` snapshot body.
    pub stability: Vec<WindowStability>,
    /// The aggregator's bounded stability timeseries ring — the
    /// `/stability?follow` NDJSON stream.
    pub timeseries: Arc<TimeseriesRing>,
    /// The durable run history behind `/history`, when the pipeline ran
    /// with a storage stack attached; `None` answers `503`.
    pub history: Option<Arc<RunStore>>,
}

/// A bound listener ready to serve [`ServerState`].
pub struct Server {
    listener: TcpListener,
    state: ServerState,
    config: ServerConfig,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`; port `0` picks an ephemeral
    /// port, readable back via [`Server::local_addr`]) with default
    /// [`ServerConfig`] limits.
    pub fn bind(addr: &str, state: ServerState) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            state,
            config: ServerConfig::default(),
        })
    }

    /// Replaces the per-connection limits.
    pub fn with_config(mut self, config: ServerConfig) -> Server {
        self.config = config;
        self
    }

    /// The actually-bound address (resolves an ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves requests until `max_requests` have been answered (forever
    /// when `None`). Returns the number of requests served. Per-request
    /// IO errors are counted as served-but-failed rather than aborting
    /// the loop: a malformed client must not take the endpoint down.
    pub fn run(self, max_requests: Option<u64>) -> io::Result<u64> {
        let mut served = 0u64;
        for stream in self.listener.incoming() {
            if let Ok(s) = stream {
                let _ = handle(s, &self.state, &self.config);
                served += 1;
            }
            if max_requests.is_some_and(|max| served >= max) {
                break;
            }
        }
        Ok(served)
    }
}

/// Query parameters understood by `/events`, `/stability`, and
/// `/history`.
#[derive(Debug, Default, PartialEq, Eq)]
struct QueryParams {
    /// `tail=N`: keep only the newest `N` items.
    tail: Option<usize>,
    /// `follow` (or `follow=1`/`follow=true`): stream the timeseries
    /// ring as NDJSON instead of the JSON snapshot.
    follow: bool,
    /// `at=MS`: time-travel target for `/history` — return the full
    /// run record current at that instant.
    at: Option<u64>,
    /// `collapsed` (or `collapsed=1`/`collapsed=true`): answer
    /// `/profile` with collapsed-stack lines instead of the JSON table.
    collapsed: bool,
}

/// Parses the shared query-string surface. Anything malformed — a
/// non-numeric `tail`, a `follow` with an unrecognized value, an unknown
/// parameter — is an `Err` the caller answers with an explicit `400`,
/// so a typo'd scrape fails loudly instead of silently returning the
/// un-filtered body.
fn query_params(query: Option<&str>) -> Result<QueryParams, String> {
    let mut p = QueryParams::default();
    let Some(query) = query else { return Ok(p) };
    for kv in query.split('&').filter(|kv| !kv.is_empty()) {
        let (key, value) = match kv.split_once('=') {
            Some((k, v)) => (k, Some(v)),
            None => (kv, None),
        };
        match key {
            "tail" => {
                let v = value.ok_or("tail requires a value, e.g. tail=100")?;
                p.tail = Some(
                    v.parse()
                        .map_err(|_| format!("tail={v:?} is not an unsigned integer"))?,
                );
            }
            "follow" => match value {
                None | Some("") | Some("1") | Some("true") => p.follow = true,
                Some(other) => {
                    return Err(format!("follow={other:?} (expected follow, 1, or true)"))
                }
            },
            "at" => {
                let v = value.ok_or("at requires a timestamp, e.g. at=86400000")?;
                p.at = Some(
                    v.parse()
                        .map_err(|_| format!("at={v:?} is not a millisecond timestamp"))?,
                );
            }
            "collapsed" => match value {
                None | Some("") | Some("1") | Some("true") => p.collapsed = true,
                Some(other) => {
                    return Err(format!(
                        "collapsed={other:?} (expected collapsed, 1, or true)"
                    ))
                }
            },
            other => return Err(format!("unknown query parameter {other:?}")),
        }
    }
    Ok(p)
}

/// One HTTP answer: status line, content type, body.
type Response = (&'static str, &'static str, String);

/// The shared query parameters in the order they are checked, each
/// with the hint a route that does not accept it answers with.
const PARAM_HINTS: [(&str, &str); 4] = [
    ("follow", "; use /stability?follow"),
    ("at", "; use /history?at=MS"),
    ("collapsed", "; use /profile?collapsed"),
    ("tail", " (the table is aggregated)"),
];

/// The shared query parameters each route accepts; `None` for the
/// routes that read no query string at all.
fn accepted_params(path: &str) -> Option<&'static [&'static str]> {
    match path {
        "/events" => Some(&["tail"]),
        "/stability" => Some(&["tail", "follow"]),
        "/history" => Some(&["tail", "at"]),
        "/profile" => Some(&["collapsed"]),
        _ => None,
    }
}

/// Parses `query` for `path` and rejects the first given parameter
/// (in [`PARAM_HINTS`] order) outside `accepted`: a request the route
/// cannot honor is an explicit `400`, never silently ignored.
fn route_params(path: &str, accepted: &[&str], query: Option<&str>) -> Result<QueryParams, String> {
    let p = query_params(query)?;
    let given = [p.follow, p.at.is_some(), p.collapsed, p.tail.is_some()];
    for ((name, hint), given) in PARAM_HINTS.into_iter().zip(given) {
        if given && !accepted.contains(&name) {
            return Err(format!("{name} is not supported on {path}{hint}"));
        }
    }
    Ok(p)
}

/// The `/history` body: run summaries (optionally tailed), or with
/// `at=MS` the full run record current at that instant. A pipeline run
/// without `--state` has no durable history, which is a `503` (the
/// endpoint exists, the storage stack just isn't attached), and a
/// backend read error is surfaced the same way rather than masked as
/// an empty history.
fn history_response(state: &ServerState, p: &QueryParams) -> Response {
    let unavailable = |msg: String| {
        (
            "503 Service Unavailable",
            "application/json",
            format!(
                "{{\"error\":{}}}\n",
                serde_json::to_string(&msg).unwrap_or_else(|_| "\"\"".to_string())
            ),
        )
    };
    let Some(history) = &state.history else {
        return unavailable("no storage stack attached; run with --state <DIR>".to_string());
    };
    if let Some(at) = p.at {
        return match history.at_or_before(at) {
            Err(e) => unavailable(format!("run history: {e}")),
            Ok(None) => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                format!("no retained window starts at or before {at} ms\n"),
            ),
            Ok(Some(run)) => match serde_json::to_string(&run) {
                Err(e) => unavailable(format!("run history: {e}")),
                Ok(body) => ("200 OK", "application/json", format!("{body}\n")),
            },
        };
    }
    match history.summaries() {
        Err(e) => unavailable(format!("run history: {e}")),
        Ok(all) => {
            let retained = all.len();
            let kept: &[RunSummary] = match p.tail {
                Some(n) => &all[retained.saturating_sub(n)..],
                None => &all[..],
            };
            let rows = serde_json::to_string(kept).unwrap_or_else(|_| "[]".to_string());
            (
                "200 OK",
                "application/json",
                format!("{{\"retained\":{retained},\"history\":{rows}}}\n"),
            )
        }
    }
}

/// Answers one GET for `target` (path plus optional query string).
fn route(state: &ServerState, target: &str) -> Response {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let p = match accepted_params(path) {
        Some(accepted) => match route_params(path, accepted, query) {
            Ok(p) => p,
            // The `400` every malformed query is answered with.
            Err(msg) => return ("400 Bad Request", "text/plain; charset=utf-8", msg + "\n"),
        },
        None => QueryParams::default(),
    };
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            state.recorder.registry().prometheus_text(),
        ),
        "/events" => {
            let events = match p.tail {
                Some(n) => state.recorder.events().tail(n),
                None => state.recorder.events().snapshot(),
            };
            let mut body = String::new();
            for e in &events {
                body.push_str(&e.to_json());
                body.push('\n');
            }
            ("200 OK", "application/x-ndjson", body)
        }
        "/stability" if p.follow => {
            let frames = match p.tail {
                Some(n) => state.timeseries.tail(n),
                None => state.timeseries.snapshot(),
            };
            let mut body = String::new();
            for f in &frames {
                f.write_json(&mut body);
                body.push('\n');
            }
            ("200 OK", "application/x-ndjson", body)
        }
        "/stability" => {
            let rows = &state.stability;
            let rows = match p.tail {
                Some(n) => &rows[rows.len().saturating_sub(n)..],
                None => &rows[..],
            };
            let rows = serde_json::to_string(rows).unwrap_or_else(|_| "[]".to_string());
            (
                "200 OK",
                "application/json",
                format!("{{\"windows\":{},\"rows\":{rows}}}\n", state.windows),
            )
        }
        "/history" => history_response(state, &p),
        "/profile" if p.collapsed => (
            "200 OK",
            "text/plain; charset=utf-8",
            state.recorder.collapsed_spans(),
        ),
        "/profile" => (
            "200 OK",
            "application/json",
            format!("{}\n", state.recorder.profile().to_json()),
        ),
        "/healthz" => match &state.health {
            Some(h) => {
                let health = serde_json::to_string(h).unwrap_or_else(|_| "{}".to_string());
                let status_word = if h.degraded() { "degraded" } else { "ok" };
                (
                    "200 OK",
                    "application/json",
                    format!(
                        "{{\"status\":\"{status_word}\",\"windows\":{},\"health\":{health}}}\n",
                        state.windows
                    ),
                )
            }
            None => (
                "503 Service Unavailable",
                "application/json",
                "{\"status\":\"no completed cycles\"}\n".to_string(),
            ),
        },
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try /metrics, /events, /stability, /history, /profile, /healthz\n"
                .to_string(),
        ),
    }
}

/// The request line of one request, read under the header cap.
struct Request {
    method: String,
    target: String,
    /// The request line plus headers hit the cap (or the client
    /// half-closed mid-headers): answered `431`, never routed.
    truncated: bool,
}

/// Reads the request line and drains the headers; routing only needs
/// the request line. `None` is a half-open client: connected, sent
/// nothing, closed (or the read deadline fired as an error before
/// this) — nothing to answer.
fn read_request(stream: &TcpStream, max_header_bytes: u64) -> io::Result<Option<Request>> {
    // The cap rides on the reader itself, so no single header line (or
    // an endless header stream) can buffer more than max_header_bytes.
    let mut reader = BufReader::new(stream.take(max_header_bytes));
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.is_empty() {
        return Ok(None);
    }
    let mut truncated = !line.ends_with('\n');
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 {
            // EOF before the blank line: either the client half-closed
            // mid-headers or the size cap swallowed the rest.
            truncated = reader.get_ref().limit() == 0;
            break;
        }
        if h == "\r\n" || h == "\n" {
            break;
        }
    }
    let mut parts = line.split_whitespace();
    Ok(Some(Request {
        method: parts.next().unwrap_or("").to_string(),
        target: parts.next().unwrap_or("/").to_string(),
        truncated,
    }))
}

fn handle(stream: TcpStream, state: &ServerState, config: &ServerConfig) -> io::Result<()> {
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    let Some(request) = read_request(&stream, config.max_header_bytes)? else {
        return Ok(());
    };
    let (status, content_type, body) = if request.truncated {
        (
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            format!(
                "request line + headers exceed {} bytes\n",
                config.max_header_bytes
            ),
        )
    } else if request.method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else {
        route(state, &request.target)
    };

    let mut out = &stream;
    write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    out.write_all(body.as_bytes())?;
    out.flush()?;
    if request.truncated {
        // Closing with unread request bytes in the receive buffer turns
        // into an RST that can eat the 431 before the client reads it.
        // Drain what the client already sent — bounded, and still under
        // the read deadline — so the close is orderly.
        let mut scratch = [0u8; 4096];
        let mut budget: u64 = 1 << 20;
        let mut r = &stream;
        while budget > 0 {
            match r.read(&mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(n) => budget = budget.saturating_sub(n as u64),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn request(addr: SocketAddr, target: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        resp
    }

    fn test_state() -> ServerState {
        let recorder = Arc::new(Recorder::new());
        {
            let outer = recorder.span("engine.run_window");
            drop(recorder.span("engine.classify"));
            drop(outer);
        }
        recorder.registry().counter("roleclass_test_total").inc();
        recorder
            .events()
            .record("engine", "roleclass_engine_host_grouped", vec![]);
        recorder
            .events()
            .record("aggregator", "roleclass_aggregator_window_started", vec![]);
        let timeseries = Arc::new(TimeseriesRing::default());
        timeseries.record(0, vec![("roleclass_stability_hosts", 10.0)]);
        ServerState {
            recorder,
            windows: 1,
            health: Some(WindowHealth {
                probes_total: 1,
                ..WindowHealth::default()
            }),
            stability: vec![WindowStability {
                window: 0,
                hosts: 10,
                churned_hosts: 0,
                new_groups: 3,
                retired_groups: 0,
                backbone_min: 1.0,
                backbone_mean: 1.0,
                groups: Vec::new(),
            }],
            timeseries,
            history: None,
        }
    }

    /// A run store holding three one-second windows of real pipeline
    /// output, in a segment store at `root`.
    fn test_history(root: &std::path::Path) -> Arc<RunStore> {
        use crate::aggregator::{Aggregator, AggregatorConfig, ReplayProbe, StorageStack};
        use crate::flow::{FlowRecord, HostAddr};
        use crate::storage::StorageConfig;
        let stack = StorageStack::open(&StorageConfig::new(root.to_string_lossy())).unwrap();
        let mut agg = Aggregator::new(AggregatorConfig {
            window_ms: 1000,
            origin_ms: 1000,
            min_flows: 1,
            ..AggregatorConfig::default()
        })
        .with_run_store(Arc::clone(stack.runs()));
        let mut trace = Vec::new();
        for w in 0..3u64 {
            for n in 2..5u32 {
                let mut f = FlowRecord::pair(HostAddr::v4(1), HostAddr::v4(n));
                f.start_ms = 1000 + w * 1000;
                trace.push(f);
            }
        }
        agg.attach(Box::new(ReplayProbe::new("p0", trace)));
        agg.drain();
        Arc::clone(stack.runs())
    }

    #[test]
    fn serves_metrics_events_health_and_404() {
        let server = Server::bind("127.0.0.1:0", test_state()).unwrap();
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || server.run(Some(5)).unwrap());

        let metrics = request(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("roleclass_test_total 1"));

        let events = request(addr, "/events");
        assert!(events.contains("application/x-ndjson"));
        assert!(events.contains("\"name\":\"roleclass_engine_host_grouped\""));
        assert!(events.contains("\"name\":\"roleclass_aggregator_window_started\""));

        let tail = request(addr, "/events?tail=1");
        assert!(!tail.contains("roleclass_engine_host_grouped"));
        assert!(tail.contains("roleclass_aggregator_window_started"));

        let health = request(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"));
        assert!(health.contains("\"status\":\"ok\""));
        assert!(health.contains("\"windows\":1"));
        assert!(health.contains("\"probes_total\":1"));

        let missing = request(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));
        assert!(missing.contains("/stability"));

        assert_eq!(t.join().unwrap(), 5);
    }

    #[test]
    fn stability_snapshot_follow_and_explicit_400s() {
        let server = Server::bind("127.0.0.1:0", test_state()).unwrap();
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || server.run(Some(7)).unwrap());

        let snap = request(addr, "/stability");
        assert!(snap.starts_with("HTTP/1.1 200 OK"), "{snap}");
        assert!(snap.contains("application/json"));
        assert!(snap.contains("\"windows\":1"));
        assert!(snap.contains("\"backbone_mean\":1.0"));

        // tail=0 keeps no rows but still answers with the envelope.
        let empty = request(addr, "/stability?tail=0");
        assert!(empty.contains("\"rows\":[]"));

        let follow = request(addr, "/stability?follow");
        assert!(follow.starts_with("HTTP/1.1 200 OK"), "{follow}");
        assert!(follow.contains("application/x-ndjson"));
        assert!(follow.contains("\"roleclass_stability_hosts\":10.0"));

        // The shared parser rejects malformed queries on both endpoints.
        let bad = request(addr, "/stability?tail=abc");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        let bad = request(addr, "/events?tail=");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        let bad = request(addr, "/events?follow");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        let bad = request(addr, "/stability?wat=1");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        t.join().unwrap();
    }

    #[test]
    fn history_answers_summaries_time_travel_and_503() {
        // Without a storage stack, /history is explicitly unavailable.
        let server = Server::bind("127.0.0.1:0", test_state()).unwrap();
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || server.run(Some(1)).unwrap());
        let resp = request(addr, "/history");
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        assert!(resp.contains("--state"), "{resp}");
        t.join().unwrap();

        let root =
            std::env::temp_dir().join(format!("roleclass-serve-history-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let state = ServerState {
            history: Some(test_history(&root)),
            ..test_state()
        };
        let server = Server::bind("127.0.0.1:0", state).unwrap();
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || server.run(Some(7)).unwrap());

        let list = request(addr, "/history");
        assert!(list.starts_with("HTTP/1.1 200 OK"), "{list}");
        assert!(list.contains("\"retained\":3"), "{list}");
        assert!(list.contains("\"window_start_ms\":3000"), "{list}");

        // tail trims the list but reports the full retained count.
        let tail = request(addr, "/history?tail=1");
        assert!(!tail.contains("\"window_start_ms\":1000"), "{tail}");
        assert!(tail.contains("\"retained\":3"), "{tail}");
        assert!(tail.contains("\"window_start_ms\":3000"), "{tail}");

        // at=MS time-travels to the run current at that instant.
        let at = request(addr, "/history?at=1500");
        assert!(at.starts_with("HTTP/1.1 200 OK"), "{at}");
        assert!(at.contains("\"start_ms\":1000"), "{at}");
        assert!(at.contains("\"grouping\""), "{at}");

        // Before the first retained window: an explicit 404.
        let missing = request(addr, "/history?at=500");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let bad = request(addr, "/history?follow");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        let bad = request(addr, "/events?at=5");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        let bad = request(addr, "/stability?at=5");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        t.join().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn profile_answers_table_collapsed_and_explicit_400s() {
        let server = Server::bind("127.0.0.1:0", test_state()).unwrap();
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || server.run(Some(6)).unwrap());

        let table = request(addr, "/profile");
        assert!(table.starts_with("HTTP/1.1 200 OK"), "{table}");
        assert!(table.contains("application/json"));
        assert!(table.contains("\"name\":\"engine.run_window\""), "{table}");
        assert!(table.contains("\"self_secs\""), "{table}");
        assert!(table.contains("\"alloc_bytes\""), "{table}");

        let collapsed = request(addr, "/profile?collapsed");
        assert!(collapsed.starts_with("HTTP/1.1 200 OK"), "{collapsed}");
        assert!(collapsed.contains("text/plain"));
        let body = collapsed.split("\r\n\r\n").nth(1).unwrap();
        for line in body.lines() {
            let (frames, _) = telemetry::parse_collapsed_line(line).expect(line);
            assert_eq!(frames[0], "roleclass");
        }
        assert!(body.contains("roleclass;engine.run_window"), "{body}");

        // The shared strict parser rejects what /profile cannot answer.
        let bad = request(addr, "/profile?follow");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        let bad = request(addr, "/profile?tail=3");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        let bad = request(addr, "/profile?at=5");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        let bad = request(addr, "/events?collapsed");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        t.join().unwrap();
    }

    #[test]
    fn query_params_parse_and_reject() {
        assert_eq!(query_params(None).unwrap(), QueryParams::default());
        assert_eq!(query_params(Some("")).unwrap(), QueryParams::default());
        assert_eq!(
            query_params(Some("tail=5&follow")).unwrap(),
            QueryParams {
                tail: Some(5),
                follow: true,
                at: None,
                collapsed: false,
            }
        );
        assert!(query_params(Some("follow=true")).unwrap().follow);
        assert!(query_params(Some("follow=1")).unwrap().follow);
        assert!(query_params(Some("collapsed")).unwrap().collapsed);
        assert!(query_params(Some("collapsed=true")).unwrap().collapsed);
        assert!(query_params(Some("collapsed=no")).is_err());
        assert_eq!(query_params(Some("at=1500")).unwrap().at, Some(1500));
        assert!(query_params(Some("tail=-1")).is_err());
        assert!(query_params(Some("tail")).is_err());
        assert!(query_params(Some("follow=no")).is_err());
        assert!(query_params(Some("at")).is_err());
        assert!(query_params(Some("at=noon")).is_err());
        assert!(query_params(Some("depth=2")).is_err());
    }

    #[test]
    fn half_open_connection_cannot_park_the_listener() {
        let server = Server::bind("127.0.0.1:0", test_state())
            .unwrap()
            .with_config(ServerConfig {
                read_timeout: Duration::from_millis(100),
                ..ServerConfig::default()
            });
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || server.run(Some(3)).unwrap());

        // Two hostile clients: one connects and goes silent, one sends
        // half a request line and stalls. Each costs the server at most
        // the read deadline.
        let silent = TcpStream::connect(addr).unwrap();
        let mut stalled = TcpStream::connect(addr).unwrap();
        write!(stalled, "GET /met").unwrap();

        // A well-behaved request still gets served afterwards.
        let metrics = request(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        drop(silent);
        drop(stalled);
        assert_eq!(t.join().unwrap(), 3);
    }

    #[test]
    fn oversized_headers_are_431_not_buffered() {
        let server = Server::bind("127.0.0.1:0", test_state())
            .unwrap()
            .with_config(ServerConfig {
                max_header_bytes: 256,
                ..ServerConfig::default()
            });
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || server.run(Some(2)).unwrap());

        // One huge header line blowing straight past the cap. Half-close
        // after writing so the server's drain sees EOF promptly.
        let mut s = TcpStream::connect(addr).unwrap();
        write!(
            s,
            "GET /metrics HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "a".repeat(4096)
        )
        .unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 431"), "{resp}");

        // An endless stream of small headers is cut off the same way.
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET /metrics HTTP/1.1\r\n").unwrap();
        for i in 0..200 {
            if write!(s, "X-H{i}: v\r\n").is_err() {
                break; // server already hung up on us
            }
        }
        let _ = write!(s, "\r\n");
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut resp = String::new();
        let _ = s.read_to_string(&mut resp);
        assert!(resp.starts_with("HTTP/1.1 431"), "{resp}");
        t.join().unwrap();
    }

    #[test]
    fn healthz_is_503_before_first_cycle() {
        let state = ServerState {
            recorder: Arc::new(Recorder::new()),
            windows: 0,
            health: None,
            stability: Vec::new(),
            timeseries: Arc::new(TimeseriesRing::default()),
            history: None,
        };
        let server = Server::bind("127.0.0.1:0", state).unwrap();
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || server.run(Some(2)).unwrap());
        let health = request(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 503"));
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 405"));
        t.join().unwrap();
    }
}
