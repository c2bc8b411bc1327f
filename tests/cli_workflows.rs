//! Integration tests for the `rcctl` CLI: classify → snapshot →
//! correlate → diff, over real files in all four input formats.

use role_classification::aggregator::store::{StorageStack, JOURNAL_NS};
use role_classification::cli::{run, Snapshot};
use role_classification::flow::{netflow, pcap, rmon, textlog};
use role_classification::storage::StorageConfig;
use role_classification::synthnet::{scenarios, trace};
use serde::value::Value;
use std::path::{Path, PathBuf};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcctl-test-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Fabricates Figure-1 flow files in every supported format.
fn write_inputs(dir: &Path) -> Vec<(String, &'static str)> {
    let net = scenarios::figure1(3, 3);
    let records = trace::expand(&net.connsets, trace::TraceOptions::default(), 5);
    let mut out = Vec::new();

    let text_path = dir.join("flows.txt");
    std::fs::write(&text_path, textlog::render(&records)).unwrap();
    out.push((text_path.to_string_lossy().into_owned(), "text"));

    let nf_path = dir.join("flows.nf");
    std::fs::write(&nf_path, netflow::write_stream(&records, 0)).unwrap();
    out.push((nf_path.to_string_lossy().into_owned(), "netflow"));

    let pcap_path = dir.join("flows.pcap");
    std::fs::write(&pcap_path, pcap::write_file(&records)).unwrap();
    out.push((pcap_path.to_string_lossy().into_owned(), "pcap"));

    let rmon_path = dir.join("flows.rmon");
    std::fs::write(&rmon_path, rmon::render(&records)).unwrap();
    out.push((rmon_path.to_string_lossy().into_owned(), "rmon"));

    out
}

#[test]
fn info_reports_population() {
    let dir = workdir("info");
    let inputs = write_inputs(&dir);
    let (path, _) = &inputs[0];
    let out = run(&args(&["info", "--input", path])).unwrap();
    assert!(out.contains("hosts:       10"));
    assert!(out.contains("connections: 18"));
}

#[test]
fn classify_agrees_across_all_formats() {
    let dir = workdir("formats");
    let mut group_counts = Vec::new();
    for (path, _format) in write_inputs(&dir) {
        // Extension-based detection: no --format flag passed.
        let out = run(&args(&[
            "classify", "--input", &path, "--s-lo", "90", "--s-hi", "95",
        ]))
        .unwrap();
        let line = out.lines().next().unwrap().to_string();
        group_counts.push(line);
    }
    // All four parsers see the same structure.
    assert!(group_counts.iter().all(|l| l == &group_counts[0]));
    assert!(group_counts[0].contains("10 hosts in 5 groups"));
}

#[test]
fn classify_correlate_diff_workflow() {
    let dir = workdir("workflow");
    let inputs = write_inputs(&dir);
    let (flows, _) = &inputs[0];
    let snap1 = dir.join("day1.json").to_string_lossy().into_owned();
    let snap2 = dir.join("day2.json").to_string_lossy().into_owned();
    let dot = dir.join("groups.dot").to_string_lossy().into_owned();

    // Day 1: classify and snapshot.
    let out = run(&args(&[
        "classify",
        "--input",
        flows,
        "--snapshot",
        &snap1,
        "--dot",
        &dot,
        "--s-lo",
        "90",
        "--s-hi",
        "95",
    ]))
    .unwrap();
    assert!(out.contains("wrote"));
    let dot_text = std::fs::read_to_string(&dot).unwrap();
    assert!(dot_text.starts_with("graph"));
    let snapshot: Snapshot =
        serde_json::from_str(&std::fs::read_to_string(&snap1).unwrap()).unwrap();
    assert_eq!(snapshot.grouping.host_count(), 10);

    // Day 2: identical traffic correlates 1:1 with day 1.
    let out = run(&args(&[
        "correlate",
        "--prev",
        &snap1,
        "--input",
        flows,
        "--snapshot",
        &snap2,
        "--s-lo",
        "90",
        "--s-hi",
        "95",
    ]))
    .unwrap();
    assert!(out.contains("correlated 5 of 5 groups"));
    assert!(out.contains("(no changes)"));

    // Diff of the two snapshots is empty.
    let out = run(&args(&["diff", "--prev", &snap1, "--curr", &snap2])).unwrap();
    assert!(out.contains("no changes"));
}

#[test]
fn auto_k_hi_flag_works() {
    let dir = workdir("autok");
    let inputs = write_inputs(&dir);
    let (flows, _) = &inputs[0];
    let out = run(&args(&["classify", "--input", flows, "--auto-k-hi"])).unwrap();
    assert!(out.contains("groups"));
}

#[test]
fn trace_flag_appends_span_tree() {
    let dir = workdir("trace");
    let inputs = write_inputs(&dir);
    let (flows, _) = &inputs[0];
    let snap = dir.join("day1.json").to_string_lossy().into_owned();
    let out = run(&args(&[
        "classify",
        "--input",
        flows,
        "--snapshot",
        &snap,
        "--trace",
    ]))
    .unwrap();
    assert!(out.contains("trace:"));
    assert!(out.contains("engine.form"));
    assert!(out.contains("kernel.build"));
    assert!(out.contains("ms"));

    let out = run(&args(&[
        "correlate",
        "--prev",
        &snap,
        "--input",
        flows,
        "--trace",
    ]))
    .unwrap();
    assert!(out.contains("engine.run_window"));
    assert!(out.contains("engine.correlate"));
}

#[test]
fn classify_output_is_identical_with_and_without_trace() {
    let dir = workdir("traceparity");
    let inputs = write_inputs(&dir);
    let (flows, _) = &inputs[0];
    let plain = run(&args(&["classify", "--input", flows])).unwrap();
    let traced = run(&args(&["classify", "--input", flows, "--trace"])).unwrap();
    // The grouping itself is bit-identical; --trace only appends.
    assert!(traced.starts_with(&plain));
    assert_ne!(plain, traced);
}

#[test]
fn metrics_prints_registry_and_probe_reports() {
    let dir = workdir("metrics");
    let inputs = write_inputs(&dir);
    let (flows, _) = &inputs[0];
    let out = run(&args(&["metrics", "--input", flows])).unwrap();
    assert!(out.contains("windows: 1"));
    assert!(out.contains("Open"));
    assert!(out.contains("roleclass_aggregator_cycles_total 1"));
    assert!(out.contains("roleclass_engine_windows_total 1"));
    assert!(out.contains("roleclass_kernel_builds_total"));
    // Prometheus framing.
    assert!(out.contains("# TYPE roleclass_aggregator_cycles_total counter"));

    // Splitting into windows yields more cycles, and --trace adds spans.
    let out = run(&args(&[
        "metrics",
        "--input",
        flows,
        "--window-ms",
        "1000",
        "--trace",
    ]))
    .unwrap();
    assert!(!out.contains("windows: 1\n"));
    assert!(out.contains("aggregator.run_cycle"));
    assert!(out.contains("aggregator.poll"));
}

#[test]
fn metrics_json_composes_registry_and_probes() {
    let dir = workdir("metricsjson");
    let inputs = write_inputs(&dir);
    let (flows, _) = &inputs[0];
    let out = run(&args(&["metrics", "--input", flows, "--json"])).unwrap();
    let parsed: Value = serde_json::from_str(&out).unwrap();
    let Value::Map(entries) = parsed else {
        panic!("top level must be an object");
    };
    let get = |k: &str| &entries.iter().find(|(n, _)| n == k).unwrap().1;
    assert!(matches!(get("windows"), Value::U64(1)));
    // The registry snapshot groups metrics by kind.
    let Value::Map(metrics) = get("metrics") else {
        panic!("metrics must be an object");
    };
    assert!(metrics.iter().any(|(k, _)| k == "counters"));
    assert!(metrics.iter().any(|(k, _)| k == "histograms"));
    let Value::Seq(probes) = get("probes") else {
        panic!("probes must be an array");
    };
    assert_eq!(probes.len(), 1);
    let Value::Map(probe) = &probes[0] else {
        panic!("probe report must be an object");
    };
    assert!(probe
        .iter()
        .any(|(k, v)| k == "health" && matches!(v, Value::Str(s) if s == "Open")));
}

#[test]
fn explain_prints_decision_chain_across_windows() {
    let dir = workdir("explain");
    let inputs = write_inputs(&dir);
    let (flows, _) = &inputs[0];
    // Same deterministic scenario as write_inputs: look up a real host.
    let net = scenarios::figure1(3, 3);
    let host = net.role_hosts("sales")[0].to_string();
    let out = run(&args(&[
        "explain",
        "--input",
        flows,
        "--host",
        &host,
        "--window-ms",
        "43200000",
        "--s-lo",
        "90",
        "--s-hi",
        "95",
    ]))
    .unwrap();
    assert!(out.contains(&format!("decision chain for host {host}")));
    assert!(out.contains("window 0:"));
    assert!(out.contains("window 1:"));
    assert!(out.contains("formation: grouped at k="));
    assert!(out.contains("merge vs group of"));
    assert!(out.contains("assigned fresh"));
    assert!(out.contains("result: group"));

    let err = run(&args(&["explain", "--input", flows])).unwrap_err();
    assert_eq!(err.code, 2);
    assert!(err.message.contains("--host"));
    let err = run(&args(&[
        "explain",
        "--input",
        flows,
        "--host",
        "not-an-addr",
    ]))
    .unwrap_err();
    assert_eq!(err.code, 2);
}

#[test]
fn serve_answers_metrics_events_and_health() {
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    let dir = workdir("serve");
    let inputs = write_inputs(&dir);
    let flows = inputs[0].0.clone();
    let addr_file = dir.join("addr.txt");
    let addr_file_arg = addr_file.to_string_lossy().into_owned();
    let t = std::thread::spawn(move || {
        run(&args(&[
            "serve",
            "--input",
            &flows,
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            &addr_file_arg,
            "--max-requests",
            "5",
        ]))
        .unwrap()
    });
    // The server writes its ephemeral address before accepting.
    let mut addr = String::new();
    for _ in 0..500 {
        if let Ok(s) = std::fs::read_to_string(&addr_file) {
            if !s.is_empty() {
                addr = s;
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(!addr.is_empty(), "server never wrote its address");

    let get = |path: &str| {
        let mut s = TcpStream::connect(addr.trim()).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        resp
    };
    let metrics = get("/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"));
    assert!(metrics.contains("roleclass_aggregator_cycles_total 1"));
    let events = get("/events");
    assert!(events.contains("application/x-ndjson"));
    assert!(events.contains("\"name\":\"roleclass_aggregator_window_started\""));
    assert!(events.contains("\"name\":\"roleclass_engine_host_grouped\""));
    let health = get("/healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"));
    assert!(health.contains("\"status\":\"ok\""));
    assert!(health.contains("\"windows\":1"));
    let stability = get("/stability");
    assert!(stability.starts_with("HTTP/1.1 200 OK"));
    assert!(stability.contains("\"windows\":1"));
    assert!(stability.contains("\"backbone_mean\""));
    let follow = get("/stability?follow");
    assert!(follow.contains("application/x-ndjson"));
    assert!(follow.contains("roleclass_stability_hosts"));

    let summary = t.join().unwrap();
    assert!(summary.contains("served 5 request(s)"));
}

#[test]
fn stability_reports_persistence_and_churn() {
    let dir = workdir("stability");
    let inputs = write_inputs(&dir);
    let (flows, _) = &inputs[0];
    let common = ["--window-ms", "1000", "--s-lo", "90", "--s-hi", "95"];

    let mut full = vec!["stability", "--input", flows.as_str()];
    full.extend_from_slice(&common);
    let out = run(&args(&full)).unwrap();
    // A structurally stable replay: per-window summary, per-group
    // persistence table, and an all-zero churn table.
    assert!(out.contains("backbone_mean"), "{out}");
    assert!(out.contains("persistence"), "{out}");
    assert!(out.contains("host churn"), "{out}");

    // --host narrows the churn table to one host.
    let net = scenarios::figure1(3, 3);
    let host = net.role_hosts("sales")[0].to_string();
    let mut by_host = vec!["stability", "--input", flows.as_str(), "--host", &host];
    by_host.extend_from_slice(&common);
    let out = run(&args(&by_host)).unwrap();
    assert!(out.contains(&host), "{out}");

    // --group narrows the group table and adds the id's trajectory.
    let mut by_group = vec!["stability", "--input", flows.as_str(), "--group", "0"];
    by_group.extend_from_slice(&common);
    let out = run(&args(&by_group)).unwrap();
    assert!(out.contains("group 0 across windows"), "{out}");

    // A malformed --group is a usage error, and --json parses.
    let err = run(&args(&["stability", "--input", flows, "--group", "pod"])).unwrap_err();
    assert_eq!(err.code, 2);
    let mut json_args = vec!["stability", "--input", flows.as_str(), "--json"];
    json_args.extend_from_slice(&common);
    let out = run(&args(&json_args)).unwrap();
    let parsed: Value = serde_json::from_str(out.trim()).unwrap();
    let Value::Map(entries) = parsed else {
        panic!("expected a JSON object");
    };
    let get = |k: &str| &entries.iter().find(|(key, _)| key == k).unwrap().1;
    let Value::Seq(rows) = get("rows") else {
        panic!("rows must be an array");
    };
    assert!(matches!(get("windows"), Value::U64(n) if *n as usize == rows.len()));
    let Value::Seq(churn) = get("churn") else {
        panic!("churn must be an array");
    };
    assert_eq!(churn.len(), 10);
}

#[test]
fn missing_file_is_runtime_error() {
    let err = run(&args(&["classify", "--input", "/nonexistent/flows.txt"])).unwrap_err();
    assert_eq!(err.code, 1);
    assert!(err.message.contains("/nonexistent/flows.txt"));
}

#[test]
fn malformed_snapshot_is_runtime_error() {
    let dir = workdir("badsnap");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{not json").unwrap();
    let inputs = write_inputs(&dir);
    let (flows, _) = &inputs[0];
    let err = run(&args(&[
        "correlate",
        "--prev",
        &bad.to_string_lossy(),
        "--input",
        flows,
    ]))
    .unwrap_err();
    assert_eq!(err.code, 1);
}

#[test]
fn probe_send_streams_into_ingest_listen() {
    let dir = workdir("wire");
    let inputs = write_inputs(&dir);
    let (flows, _) = &inputs[0];
    let addr_file = dir.join("listener.addr");
    let store = dir.join("store").to_string_lossy().into_owned();

    // The listener blocks until the probe session ends, so it runs in a
    // thread; --addr-file hands the ephemeral port back to the sender.
    let af = addr_file.to_string_lossy().into_owned();
    let listener_store = store.clone();
    let listener = std::thread::spawn(move || {
        run(&args(&[
            "ingest",
            "listen",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            &af,
            "--probe",
            "edge",
            "--max-windows",
            "3",
            "--state",
            &listener_store,
        ]))
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !addr_file.exists() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let addr = std::fs::read_to_string(&addr_file).expect("listener never wrote its address");

    let sent = run(&args(&[
        "probe", "send", "--input", flows, "--to", &addr, "--probe", "edge",
    ]))
    .unwrap();
    assert!(sent.contains("window(s) as probe \"edge\""), "{sent}");
    assert!(sent.contains("0 retransmit(s)"), "{sent}");

    let out = listener.join().unwrap().unwrap();
    // Figure-1 population, classified from the wire exactly as
    // `classify` would from the file: all 10 hosts, healthy window.
    assert!(out.contains("10 host(s)"), "{out}");
    assert!(out.contains("healthy"), "{out}");
    assert!(!out.contains("degraded"), "{out}");
    assert!(out.contains("probe edge"), "{out}");

    // --state persisted the wire-ingested window: explain replays it
    // back out of the store with its real bounds.
    let host = scenarios::figure1(3, 3).role_hosts("sales")[0].to_string();
    let replayed = run(&args(&["explain", "--host", &host, "--state", &store])).unwrap();
    assert!(
        replayed.contains("replaying 1 retained window(s) from the segment store"),
        "{replayed}"
    );
    assert!(replayed.contains("window [0, 86400000):"), "{replayed}");
    assert!(replayed.contains("result: group"), "{replayed}");

    // The transport layer's provenance reached the durable flight
    // journal, not only the in-memory one.
    let stack = StorageStack::open(&StorageConfig::new(&store)).unwrap();
    let journal: Vec<String> = stack
        .backend()
        .scan(JOURNAL_NS, 0, u64::MAX)
        .unwrap()
        .into_iter()
        .map(|rec| String::from_utf8(rec.value).unwrap())
        .collect();
    for name in [
        "roleclass_transport_probe_session_opened",
        "roleclass_transport_window_received",
    ] {
        let quoted = format!("\"name\":\"{name}\"");
        assert!(
            journal.iter().any(|line| line.contains(&quoted)),
            "{name} missing from the flight journal"
        );
    }
}

#[test]
fn window_count_over_the_limit_is_a_prompt_usage_error() {
    use role_classification::flow::{FlowRecord, HostAddr};
    let dir = workdir("hugespan");
    // Two records 2^40 ms apart: at --window-ms 1 that is ~10^12 windows.
    let records: Vec<FlowRecord> = [0u64, 1 << 40]
        .iter()
        .map(|&t| {
            let mut f = FlowRecord::pair(HostAddr::v4(1), HostAddr::v4(2));
            f.start_ms = t;
            f.end_ms = t + 1;
            f
        })
        .collect();
    let flows = dir.join("flows.txt").to_string_lossy().into_owned();
    std::fs::write(&flows, textlog::render(&records)).unwrap();
    let t0 = std::time::Instant::now();
    for argv in [
        vec!["explain", "--host", "0.0.0.1"],
        vec!["metrics"],
        vec!["stability"],
        vec!["probe", "send", "--to", "127.0.0.1:9"],
    ] {
        let mut argv = argv;
        argv.extend_from_slice(&["--input", &flows, "--window-ms", "1"]);
        let err = run(&args(&argv)).unwrap_err();
        assert_eq!(err.code, 2, "{argv:?}: {}", err.message);
        assert!(err.message.contains("windows (limit"), "{}", err.message);
    }
    assert!(t0.elapsed() < std::time::Duration::from_secs(10));
    // The default (one window spanning the trace) still runs.
    let out = run(&args(&["metrics", "--input", &flows])).unwrap();
    assert!(out.contains("windows: 1"), "{out}");
}

#[test]
fn auto_k_hi_is_rejected_where_it_is_not_read() {
    let dir = workdir("autok-reject");
    let inputs = write_inputs(&dir);
    let (flows, _) = &inputs[0];
    for cmd in [
        &["metrics"][..],
        &["stability"],
        &["serve"],
        &["profile"],
        &["ingest", "listen"],
    ] {
        let mut argv = cmd.to_vec();
        argv.extend_from_slice(&["--input", flows, "--auto-k-hi"]);
        let err = run(&args(&argv)).unwrap_err();
        assert_eq!(err.code, 2, "{argv:?}");
        assert!(
            err.message.contains("classify, correlate and explain"),
            "{}",
            err.message
        );
    }
    let host = scenarios::figure1(3, 3).role_hosts("sales")[0].to_string();
    let out = run(&args(&[
        "explain",
        "--input",
        flows,
        "--host",
        &host,
        "--auto-k-hi",
    ]))
    .unwrap();
    assert!(out.contains("result: group"), "{out}");
}

#[test]
fn worker_flags_do_not_change_results() {
    let dir = workdir("tuning");
    let inputs = write_inputs(&dir);
    let (path, _) = &inputs[0];
    let baseline = run(&args(&[
        "classify", "--input", path, "--s-lo", "90", "--s-hi", "95",
    ]))
    .unwrap();
    // The engine guarantees bit-identical output for any worker count;
    // the CLI must only route the knob.
    for workers in ["1", "2", "8"] {
        let argv = args(&[
            "classify",
            "--input",
            path,
            "--s-lo",
            "90",
            "--s-hi",
            "95",
            "--workers",
            workers,
        ]);
        assert_eq!(run(&argv).unwrap(), baseline, "--workers {workers}");
    }
}

#[test]
fn workers_flag_rejects_non_integers() {
    let dir = workdir("badworkers");
    let inputs = write_inputs(&dir);
    let (path, _) = &inputs[0];
    let err = run(&args(&["classify", "--input", path, "--workers", "many"])).unwrap_err();
    assert_eq!(err.code, 2);
    assert!(err.message.contains("--workers"), "{}", err.message);
}

#[test]
fn tuning_flags_parse_on_every_subcommand() {
    let dir = workdir("tuning-all");
    let inputs = write_inputs(&dir);
    let (path, _) = &inputs[0];
    let snap = dir.join("snap.json").to_string_lossy().into_owned();
    run(&args(&[
        "classify",
        "--input",
        path,
        "--snapshot",
        &snap,
        "--workers",
        "2",
    ]))
    .unwrap();
    run(&args(&[
        "correlate",
        "--prev",
        &snap,
        "--input",
        path,
        "--workers",
        "2",
    ]))
    .unwrap();
    run(&args(&["metrics", "--input", path, "--workers", "2"])).unwrap();
}

#[test]
fn usage_documents_engine_tuning() {
    let usage = run(&args(&["help"])).unwrap();
    assert!(usage.contains("--workers"), "{usage}");
    // Kernel pruning is not a knob: the flag is gone, and using it is a
    // usage error like any unknown flag.
    assert!(!usage.contains("--no-prune"), "{usage}");
    let err = run(&args(&["classify", "--input", "x.txt", "--no-prune"])).unwrap_err();
    assert_eq!(err.code, 2);
    assert!(err.message.contains("--no-prune"), "{}", err.message);
}

#[test]
fn usage_documents_storage_and_time_travel() {
    let usage = run(&args(&["help"])).unwrap();
    assert!(usage.contains("--state"), "{usage}");
    // --state has one backend (segments); there is no --store knob.
    assert!(!usage.contains("--store"), "{usage}");
    assert!(usage.contains("--at"), "{usage}");
    assert!(usage.contains("/history"), "{usage}");
}

#[test]
fn explain_time_travels_from_segment_store() {
    let dir = workdir("timetravel");
    let inputs = write_inputs(&dir);
    let (flows, _) = &inputs[0];
    let store = dir.join("store").to_string_lossy().into_owned();
    let net = scenarios::figure1(3, 3);
    let host = net.role_hosts("sales")[0].to_string();

    // Populate the store: a windowed metrics replay persists every
    // classified window into the segment backend.
    let out = run(&args(&[
        "metrics",
        "--input",
        flows,
        "--window-ms",
        "43200000",
        "--state",
        &store,
        "--s-lo",
        "90",
        "--s-hi",
        "95",
    ]))
    .unwrap();
    assert!(!out.contains("windows: 0"), "{out}");

    // Time travel: no capture file at all — the windows come back out
    // of the store, labeled with their real bounds.
    let replayed = run(&args(&[
        "explain",
        "--host",
        &host,
        "--state",
        &store,
        "--at",
        "999999999999",
        "--s-lo",
        "90",
        "--s-hi",
        "95",
    ]))
    .unwrap();
    assert!(
        replayed.contains("retained window(s) from the segment store"),
        "{replayed}"
    );
    assert!(
        replayed.contains(&format!("decision chain for host {host}")),
        "{replayed}"
    );
    assert!(replayed.contains("window ["), "{replayed}");
    assert!(replayed.contains("formation: grouped at k="), "{replayed}");
    assert!(replayed.contains("result: group"), "{replayed}");

    // Without --at the full retained history replays identically.
    let full = run(&args(&[
        "explain", "--host", &host, "--state", &store, "--s-lo", "90", "--s-hi", "95",
    ]))
    .unwrap();
    assert_eq!(full, replayed);

    // A cutoff before the first retained window is a runtime error.
    let err = run(&args(&[
        "explain", "--host", &host, "--state", &store, "--at", "0",
    ]))
    .unwrap_err();
    assert_eq!(err.code, 1);
    assert!(
        err.message.contains("no retained window"),
        "{}",
        err.message
    );
}

#[test]
fn storage_flag_misuse_is_a_usage_error() {
    let dir = workdir("storeflags");
    let inputs = write_inputs(&dir);
    let (flows, _) = &inputs[0];

    // --at outside a store-backed explain: rejected.
    let err = run(&args(&[
        "explain", "--input", flows, "--host", "0.0.0.1", "--at", "5",
    ]))
    .unwrap_err();
    assert_eq!(err.code, 2);
    assert!(err.message.contains("--state"), "{}", err.message);

    // There is no --store flag (--state always means the segment
    // store): passing one is an unknown-flag usage error.
    let store = dir.join("store").to_string_lossy().into_owned();
    let err = run(&args(&[
        "metrics", "--input", flows, "--state", &store, "--store", "segment",
    ]))
    .unwrap_err();
    assert_eq!(err.code, 2);
    assert!(
        err.message.contains("unknown flag \"--store\""),
        "{}",
        err.message
    );
}

#[test]
fn serve_exposes_history_from_the_store() {
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    let dir = workdir("servehistory");
    let inputs = write_inputs(&dir);
    let flows = inputs[0].0.clone();
    let store = dir.join("store").to_string_lossy().into_owned();
    let addr_file = dir.join("addr.txt");
    let addr_file_arg = addr_file.to_string_lossy().into_owned();
    let t = std::thread::spawn(move || {
        run(&args(&[
            "serve",
            "--input",
            &flows,
            "--window-ms",
            "43200000",
            "--state",
            &store,
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            &addr_file_arg,
            "--max-requests",
            "2",
        ]))
        .unwrap()
    });
    let mut addr = String::new();
    for _ in 0..500 {
        if let Ok(s) = std::fs::read_to_string(&addr_file) {
            if !s.is_empty() {
                addr = s;
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(!addr.is_empty(), "server never wrote its address");

    let get = |path: &str| {
        let mut s = TcpStream::connect(addr.trim()).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        resp
    };
    let history = get("/history");
    assert!(history.starts_with("HTTP/1.1 200 OK"), "{history}");
    assert!(history.contains("\"retained\":"), "{history}");
    assert!(history.contains("\"window_start_ms\":"), "{history}");
    let at = get("/history?at=999999999999");
    assert!(at.starts_with("HTTP/1.1 200 OK"), "{at}");
    assert!(at.contains("\"grouping\""), "{at}");
    t.join().unwrap();
}
