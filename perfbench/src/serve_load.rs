//! The query phase of `ops-longrun`: one closed-loop client sends a
//! fixed, seeded mix of requests to `serve::Server`, which answers from
//! the live run store.

use crate::inputs::DAY_MS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use role_classification::serve::{Server, ServerState};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request of the mix.
#[derive(Clone, Copy, Debug)]
pub enum Route {
    /// `/history?at=MS` for an instant inside `window`.
    At { window: usize, at_ms: u64 },
    /// `/history?tail=N`.
    Tail(usize),
    /// `/healthz`.
    Healthz,
}

impl Route {
    pub fn path(&self) -> String {
        match self {
            Route::At { at_ms, .. } => format!("/history?at={at_ms}"),
            Route::Tail(n) => format!("/history?tail={n}"),
            Route::Healthz => "/healthz".to_string(),
        }
    }
}

/// The request mix for a run of `windows` windows: one `at` query per
/// window, plus `extra` tail and `extra` health queries, shuffled.
/// Fixed counts per route keep the median inside the `at` class and the
/// tail percentile inside the `tail` class on every seed.
pub fn mix(windows: usize, extra: usize, seed: u64) -> Vec<Route> {
    let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
    let mut routes: Vec<Route> = (0..windows)
        .map(|w| Route::At {
            window: w,
            at_ms: w as u64 * DAY_MS + rng.gen_range(0..DAY_MS),
        })
        .collect();
    routes.extend((0..extra).map(|_| Route::Tail(rng.gen_range(1..=10))));
    routes.extend((0..extra).map(|_| Route::Healthz));
    for i in (1..routes.len()).rev() {
        routes.swap(i, rng.gen_range(0..=i));
    }
    routes
}

/// One answered (or failed) request.
pub struct Response {
    pub route: Route,
    /// HTTP status; 0 when the exchange itself failed.
    pub status: u16,
    pub body: Vec<u8>,
    /// Connect to last response byte.
    pub ms: f64,
}

/// Serves `state` on an ephemeral loopback port, sends `routes` one at
/// a time, and returns when the server has answered them all and its
/// thread has ended.
pub fn serve_and_query(state: ServerState, routes: &[Route]) -> io::Result<Vec<Response>> {
    let server = Server::bind("127.0.0.1:0", state)?;
    let addr = server.local_addr()?;
    let expected = routes.len() as u64;
    let handle = std::thread::spawn(move || server.run(Some(expected)));
    let mut out = Vec::with_capacity(routes.len());
    for &route in routes {
        let t0 = Instant::now();
        let (status, body) = get(addr, &route.path()).unwrap_or((0, Vec::new()));
        out.push(Response {
            route,
            status,
            body,
            ms: t0.elapsed().as_secs_f64() * 1e3,
        });
    }
    // The server stops after as many accepted connections as there are
    // routes; a failed exchange may never have been accepted, so top the
    // count up until the server thread has ended.
    while !handle.is_finished() {
        let _ = TcpStream::connect(addr);
        std::thread::sleep(Duration::from_millis(10));
    }
    handle
        .join()
        .map_err(|_| io::Error::other("server thread panicked"))??;
    Ok(out)
}

fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::other("response without header end"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| io::Error::other("response without status"))?;
    Ok((status, raw[split + 4..].to_vec()))
}
