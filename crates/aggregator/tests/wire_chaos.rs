//! Wire chaos: the probe→aggregator transport under injected faults.
//!
//! Two properties of the framed transport, proved end to end through
//! synthnet's [`WireFaultProxy`]:
//!
//! 1. **Equivalence under recoverable faults.** With drops, duplicates,
//!    reorders, delays, split writes, and truncate-then-close cuts on
//!    the wire — but eventual delivery — a wire-fed aggregator produces
//!    classification runs *bit-identical* (groupings, correlated group
//!    ids, connection sets) to an in-process replay of the same records.
//!    No record is lost, none is double-counted.
//!
//! 2. **Permanent loss degrades, never hangs.** When the wire goes
//!    permanently dark mid-stream, the sender errors out bounded, the
//!    affected window classifies degraded with a `DegradedWindow`
//!    alert, the probe is quarantined, and the flight recorder journals
//!    the `probe_session_*` provenance — no panic, no hang.

use aggregator::store::JOURNAL_NS;
use aggregator::{
    Aggregator, AggregatorConfig, AlertKind, ProbeHealth, ReplayProbe, StorageStack,
    SupervisorConfig, TransportConfig, TransportError, WireListener,
};
use flow::{FlowRecord, HostAddr};
use roleclass::{EngineConfig, Params};
use std::sync::Arc;
use std::time::Duration;
use storage::StorageConfig;
use synthnet::{WireFaultPlan, WireFaultProxy};

const WINDOWS: u64 = 4;
const WINDOW_MS: u64 = 1000;
/// The chaos-suite seed matrix; ci.sh runs this test as its chaos
/// step, so keep the seeds fixed for reproducibility.
const SEEDS: [u64; 3] = [11, 23, 47];

fn h(x: u32) -> HostAddr {
    HostAddr::v4(x)
}

/// Two pods of clients × servers per window — enough structure for a
/// multi-group classification, repeated so correlation has work to do.
fn trace() -> Vec<FlowRecord> {
    let mut out = Vec::new();
    for w in 0..WINDOWS {
        for (clients, servers) in [([11u32, 12, 13], [1u32, 2, 3]), ([21, 22, 23], [1, 2, 4])] {
            for (i, c) in clients.into_iter().enumerate() {
                for (j, s) in servers.into_iter().enumerate() {
                    let mut f = FlowRecord::pair(h(c), h(s));
                    f.start_ms = w * WINDOW_MS + (i * 3 + j) as u64;
                    f.end_ms = f.start_ms + 1;
                    out.push(f);
                }
            }
        }
    }
    out
}

fn config() -> AggregatorConfig {
    AggregatorConfig {
        window_ms: WINDOW_MS,
        origin_ms: 0,
        engine: EngineConfig::new(Params::default().with_s_lo(90.0).with_s_hi(95.0)),
        min_flows: 1,
        supervisor: SupervisorConfig::immediate(),
        ..AggregatorConfig::default()
    }
}

/// The comparable portion of a run: everything except `health`
/// (retries and timing differ across transports by design).
fn outcome_fingerprint(agg: &Aggregator) -> Vec<String> {
    let history = agg.history();
    let history = history.read();
    history
        .iter()
        .map(|r| {
            let grouping = serde_json::to_string(&r.grouping).unwrap();
            let correlation = serde_json::to_string(&r.correlation).unwrap();
            let connsets = serde_json::to_string(&r.connsets).unwrap();
            format!("{:?}|{grouping}|{correlation}|{connsets}", r.window)
        })
        .collect()
}

#[test]
fn chaos_wire_runs_are_bit_identical_to_in_process() {
    let records = trace();

    // Baseline: the same records ingested in-process.
    let mut baseline = Aggregator::new(config());
    baseline.attach(Box::new(ReplayProbe::new("edge", records.clone())));
    for _ in 0..WINDOWS {
        baseline.run_cycle();
    }
    let expected = outcome_fingerprint(&baseline);
    assert_eq!(expected.len(), WINDOWS as usize);

    let mut total_faults = 0u64;
    for seed in SEEDS {
        let mut cfg = TransportConfig::fast();
        cfg.batch_records = 4; // many frames per window: more fault targets
        cfg.poll_timeout = Duration::from_secs(20);

        let listener = WireListener::bind("127.0.0.1:0", cfg.clone(), None, None).unwrap();
        let proxy =
            WireFaultProxy::spawn(listener.local_addr(), WireFaultPlan::chaos(seed)).unwrap();

        let sender_records = records.clone();
        let sender_addr = proxy.local_addr();
        let sender_cfg = cfg.clone();
        let sender = std::thread::spawn(move || {
            aggregator::transport::sender::stream_records(
                sender_addr,
                "edge",
                &sender_records,
                0,
                WINDOW_MS,
                sender_cfg,
            )
        });

        let mut agg = Aggregator::new(config());
        agg.attach(Box::new(listener.probe("edge")));
        for _ in 0..WINDOWS {
            agg.run_cycle();
        }

        let stats = sender
            .join()
            .unwrap()
            .unwrap_or_else(|e| panic!("seed {seed}: sender failed: {e}"));
        assert_eq!(stats.records_sent, records.len() as u64, "seed {seed}");

        let got = outcome_fingerprint(&agg);
        assert_eq!(
            got, expected,
            "seed {seed}: wire run diverged from in-process run"
        );
        let history = agg.history();
        assert!(
            history.read().iter().all(|r| !r.health.degraded()),
            "seed {seed}: recoverable faults must not degrade windows"
        );

        let c = proxy.counters();
        total_faults += c.dropped.load(std::sync::atomic::Ordering::Relaxed)
            + c.duplicated.load(std::sync::atomic::Ordering::Relaxed)
            + c.reordered.load(std::sync::atomic::Ordering::Relaxed)
            + c.truncated.load(std::sync::atomic::Ordering::Relaxed)
            + c.split.load(std::sync::atomic::Ordering::Relaxed);
    }
    assert!(
        total_faults > 0,
        "the seed matrix must actually inject faults, or this test proves nothing"
    );
}

#[test]
fn permanent_loss_degrades_the_window_and_journals_provenance() {
    let records = trace();
    let dir = std::env::temp_dir().join(format!("roleclass-chaos-loss-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stack = StorageStack::open(&StorageConfig::new(dir.to_string_lossy())).unwrap();

    let mut cfg = TransportConfig::fast();
    cfg.poll_timeout = Duration::from_millis(300); // fail fast, not hang
    cfg.retransmit_timeout = Duration::from_millis(50);
    cfg.max_retransmits = 3;
    cfg.max_reconnects = 1;

    let flight = Arc::clone(stack.recorder());
    let listener =
        WireListener::bind("127.0.0.1:0", cfg.clone(), None, Some(Arc::clone(&flight))).unwrap();
    // Window 0 is one batch + one end marker = 2 sequenced frames; after
    // that the wire goes permanently dark.
    let proxy =
        WireFaultProxy::spawn(listener.local_addr(), WireFaultPlan::blackhole(9, 2)).unwrap();

    let sender_records = records.clone();
    let sender_addr = proxy.local_addr();
    let sender_cfg = cfg.clone();
    let sender = std::thread::spawn(move || {
        aggregator::transport::sender::stream_records(
            sender_addr,
            "edge",
            &sender_records,
            0,
            WINDOW_MS,
            sender_cfg,
        )
    });

    let mut agg_config = config();
    agg_config.supervisor = SupervisorConfig {
        max_retries: 0,
        error_budget: 1,
        quarantine_windows: 100,
        ..SupervisorConfig::immediate()
    };
    let mut agg = Aggregator::new(agg_config);
    agg.attach(Box::new(listener.probe("edge")));

    // Window 0 arrived before the black hole: healthy.
    let run0 = agg.run_cycle();
    assert!(!run0.health.degraded(), "window 0 was fully delivered");

    // Window 1 never completes: degraded, alerted, then quarantined.
    let run1 = agg.run_cycle();
    assert!(run1.health.degraded());
    assert_eq!(run1.health.probes_failed, 1);
    let alerts = agg.take_alerts();
    assert!(
        alerts
            .iter()
            .any(|a| matches!(a.kind, AlertKind::DegradedWindow { .. })),
        "degraded window must raise its alert, got {alerts:?}"
    );
    let run2 = agg.run_cycle();
    assert!(run2.health.degraded());
    let reports = agg.probe_reports();
    assert_eq!(reports[0].health, ProbeHealth::Quarantined);

    // The sender gave up bounded — no hang, no panic.
    let err = sender.join().unwrap().unwrap_err();
    assert!(
        matches!(
            err,
            TransportError::Exhausted { .. } | TransportError::Io(_)
        ),
        "expected bounded failure, got {err:?}"
    );

    // Session provenance survived into the flight journal.
    let lines: Vec<String> = stack
        .backend()
        .scan(JOURNAL_NS, 0, u64::MAX)
        .unwrap()
        .into_iter()
        .map(|rec| String::from_utf8(rec.value).unwrap())
        .collect();
    assert!(
        lines
            .iter()
            .any(|l| l.contains("roleclass_transport_probe_session_opened")),
        "journal must carry probe_session_* provenance: {lines:?}"
    );
    assert!(lines.iter().any(|l| l.contains("\"layer\":\"transport\"")));
    let _ = std::fs::remove_dir_all(&dir);
}
