//! Policy monitoring: the paper's Section 2 deployment end to end.
//!
//! Probes replay a day of traffic into the aggregator; the aggregator
//! classifies hosts into role groups; an administrator labels the groups
//! and installs a group-level policy ("engineering must not touch the
//! sales database"); the policy engine and the new-neighbor detector
//! then flag a compromised engineering host.
//!
//! Run with: `cargo run --release --example policy_monitoring`

use role_classification::aggregator::LabelStore;
use role_classification::aggregator::{
    Aggregator, AggregatorConfig, NewNeighborDetector, Policy, PolicyEngine, ReplayProbe, Selector,
};
use role_classification::flow::FlowRecord;
use role_classification::roleclass::{EngineConfig, Params};
use role_classification::synthnet::{scenarios, trace};

fn main() {
    // Day 0: normal traffic from the Mazu-like network.
    let net = scenarios::mazu(42);
    let opts = trace::TraceOptions {
        span_ms: 86_400_000,
        ..trace::TraceOptions::default()
    };
    let day0 = trace::expand(&net.connsets, opts, 1);
    println!("replaying {} flows through the aggregator...", day0.len());

    let mut agg = Aggregator::new(AggregatorConfig {
        window_ms: 86_400_000,
        origin_ms: 0,
        engine: EngineConfig::new(Params::default()),
        min_flows: 1,
        ..AggregatorConfig::default()
    });
    agg.attach(Box::new(ReplayProbe::new("core-switch", day0)));
    let run = agg.run_cycle();
    println!(
        "baseline run: {} hosts -> {} groups\n",
        run.grouping.host_count(),
        run.grouping.group_count()
    );

    // The administrator reviews the groups and labels the two that
    // matter for the policy (using ground truth as the stand-in for
    // human knowledge).
    let mut labels = LabelStore::new();
    let eng_host = net.role_hosts("eng")[0];
    let eng_group = run.grouping.group_of(eng_host).expect("eng host grouped");
    labels.set(eng_group, "engineering");
    let exch = net.host("ms_exchange");
    let exch_group = run.grouping.group_of(exch).expect("exchange grouped");
    labels.set(exch_group, "exchange-servers");
    println!(
        "labeled group {} as 'engineering', group {} as 'exchange-servers'",
        eng_group, exch_group
    );

    let mut engine = PolicyEngine::new();
    engine.add(Policy::Forbid {
        name: "eng-keeps-off-exchange".into(),
        from: Selector::Label("engineering".into()),
        to: Selector::Label("exchange-servers".into()),
    });

    // Day 1: the same network, plus a compromised engineering host that
    // starts talking to the Exchange server pool.
    let naughty = FlowRecord::pair(eng_host, exch);
    let verdicts = engine.check(&run.grouping, &labels, &naughty);
    println!("\npolicy check on eng -> exchange flow:");
    for v in &verdicts {
        println!(
            "  VIOLATION of '{}': group {} -> group {} ({} -> {})",
            v.policy, v.src_group, v.dst_group, v.flow.src, v.flow.dst
        );
    }
    assert!(!verdicts.is_empty(), "expected a policy violation");

    // Independently, the anomaly detector flags the flow because the
    // engineering group never talked to the Exchange group before.
    let detector = NewNeighborDetector::new(run.grouping.clone(), &run.connsets);
    let alerts = detector.check_flow(&naughty);
    println!("\nanomaly detector on the same flow:");
    for a in &alerts {
        println!("  [{:?}] {:?}", a.severity, a.kind);
    }
}
