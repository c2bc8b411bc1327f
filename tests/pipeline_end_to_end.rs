//! End-to-end integration: synthetic network → fabricated flows → wire
//! formats → parsers → aggregator → classification → correlation →
//! policies/alerts. Exercises every crate in one pipeline.

use role_classification::aggregator::{
    Aggregator, AggregatorConfig, LabelStore, NewNeighborDetector, Policy, PolicyEngine,
    ReplayProbe, Selector,
};
use role_classification::flow::{netflow, pcap, ConnsetBuilder, FlowRecord};
use role_classification::roleclass::{try_classify, EngineConfig, Params};
use role_classification::synthnet::{scenarios, trace};

/// Formation-preserving parameters (more groups, more structure).
fn params() -> Params {
    Params::default().with_s_lo(90.0).with_s_hi(95.0)
}

#[test]
fn wire_formats_reconstruct_connection_sets() {
    let net = scenarios::figure1(4, 5);
    let records = trace::expand(&net.connsets, trace::TraceOptions::default(), 11);

    // NetFlow v5 round trip.
    let nf = netflow::write_stream(&records, 0);
    let from_nf = netflow::parse_stream(&nf).expect("valid netflow");
    assert_eq!(from_nf.len(), records.len());

    // pcap round trip (TCP/UDP only, which expand() always emits).
    let pc = pcap::write_file(&records);
    let from_pc = pcap::parse_file(&pc).expect("valid pcap");
    assert_eq!(from_pc.skipped, 0);

    let build = |rs: &[FlowRecord]| {
        let mut b = ConnsetBuilder::new();
        b.add_records(rs.iter());
        b.build()
    };
    assert_eq!(build(&from_nf).edges(), net.connsets.edges());
    assert_eq!(build(&from_pc.records).edges(), net.connsets.edges());
}

#[test]
fn aggregator_produces_stable_grouping_over_days() {
    let net = scenarios::mazu(42);
    // Two identical days of traffic.
    let mut all = Vec::new();
    for day in 0..2u64 {
        let opts = trace::TraceOptions {
            start_ms: day * 86_400_000,
            span_ms: 86_400_000,
            ..trace::TraceOptions::default()
        };
        all.extend(trace::expand(&net.connsets, opts, 5 + day));
    }
    let mut agg = Aggregator::new(AggregatorConfig {
        window_ms: 86_400_000,
        origin_ms: 0,
        engine: EngineConfig::new(params()),
        min_flows: 1,
        ..AggregatorConfig::default()
    });
    agg.attach(Box::new(ReplayProbe::new("p", all)));
    let cycles = agg.drain();
    assert_eq!(cycles, 2);

    let history = agg.history();
    let history = history.read();
    let day0 = &history[0];
    let day1 = &history[1];
    assert!(day1.correlation.is_some());
    // Same network, same structure: every host keeps its group id.
    let mut stable = 0;
    let mut total = 0;
    for (h, g0) in day0.grouping.assignments() {
        if let Some(g1) = day1.grouping.group_of(h) {
            total += 1;
            if g0 == g1 {
                stable += 1;
            }
        }
    }
    assert!(total > 100);
    assert!(
        stable as f64 / total as f64 > 0.95,
        "only {stable}/{total} hosts kept their group id"
    );
}

#[test]
fn policy_and_anomaly_detection_fire_on_role_deviation() {
    let net = scenarios::mazu(42);
    let c = try_classify(&net.connsets, &params()).unwrap();

    let eng = net.role_hosts("eng")[0];
    let exch = net.host("ms_exchange");
    let eng_group = c.grouping.group_of(eng).expect("grouped");
    let exch_group = c.grouping.group_of(exch).expect("grouped");
    assert_ne!(eng_group, exch_group);

    let mut labels = LabelStore::new();
    labels.set(eng_group, "eng");
    labels.set(exch_group, "exchange");
    let mut engine = PolicyEngine::new();
    engine.add(Policy::Forbid {
        name: "eng-off-exchange".into(),
        from: Selector::Label("eng".into()),
        to: Selector::Label("exchange".into()),
    });

    let bad = FlowRecord::pair(eng, exch);
    assert_eq!(engine.check(&c.grouping, &labels, &bad).len(), 1);

    // The anomaly detector agrees, from structure alone. (In the Mazu
    // scenario no eng host talks to the Exchange server.)
    assert!(!net.connsets.connected(eng, exch));
    let det = NewNeighborDetector::new(c.grouping.clone(), &net.connsets);
    let alerts = det.check_flow(&bad);
    assert_eq!(alerts.len(), 1);
}
