//! End-to-end equivalence: the kernel-backed [`Engine`] must reproduce
//! the recounting reference sweep bit for bit on every synthetic
//! scenario, at every worker count. The worker matrix runs in-process
//! here via [`EngineConfig`] (CI invokes this file once; no environment
//! variables involved).

use roleclass::prelude::*;
use roleclass::FormationResult;
use roleclass_spec::formation::{form_groups, Step, Sweep};
use synthnet::scenarios;

fn scenario_connsets() -> Vec<(&'static str, flow::ConnectionSets)> {
    vec![
        ("figure1", scenarios::figure1(8, 6).connsets),
        ("mazu", scenarios::mazu(42).connsets),
        ("small_office", scenarios::small_office(7).connsets),
        ("datacenter", scenarios::datacenter(11).connsets),
    ]
}

fn param_grid() -> Vec<Params> {
    vec![
        Params::default(),
        Params::default().with_s_lo(90.0).with_s_hi(95.0),
        Params::default().with_alpha(0.3).with_k_hi(3),
    ]
}

fn trace_key(r: &FormationResult) -> Vec<Step> {
    r.trace
        .iter()
        .map(|e| (e.members.clone(), e.k, e.kind))
        .collect()
}

/// The kernel-backed formation sweep reproduces the recounting reference
/// sweep exactly: the same groups, formed at the same levels, the same
/// way, in the same order.
#[test]
fn kernel_formation_matches_reference_on_scenarios() {
    for (name, cs) in scenario_connsets() {
        for params in param_grid() {
            let fast = try_form_groups(&cs, &params).unwrap();
            let slow = form_groups(&cs, &params, Sweep::Jump);
            assert_eq!(trace_key(&fast), slow, "{name} trace");
            assert_eq!(fast.graph.node_count(), slow.len(), "{name} graph");
        }
    }
}

/// Runs the kernel-backed sweep on `cs` with a recorder attached, checks
/// its trace against the recounting reference, and returns the kernel's
/// `(pairs below floor at build, pairs stored at build, recounts)`.
fn floor_counters_after_matching_reference(
    name: &str,
    cs: &flow::ConnectionSets,
) -> (u64, u64, u64) {
    let rec = std::sync::Arc::new(telemetry::Recorder::new());
    let engine = Engine::new(Params::default())
        .unwrap()
        .with_recorder(rec.clone());
    let fast = trace_key(engine.form(cs).result());
    assert_eq!(
        fast,
        form_groups(cs, &Params::default(), Sweep::Jump),
        "{name} trace"
    );
    let reg = rec.registry();
    let below = reg
        .counter("roleclass_kernel_below_floor_pairs_total")
        .get();
    let stored = reg
        .histogram("roleclass_kernel_worker_entries", telemetry::SIZE_BUCKETS)
        .sum() as u64;
    let recounts = reg.counter("roleclass_kernel_recounts_total").get();
    let updates = reg
        .counter("roleclass_kernel_contract_pair_updates_total")
        .get();
    println!(
        "{name}: {below} pairs below floor at build, {stored} stored, \
         {recounts} recounts, {updates} contraction pair updates"
    );
    (below, stored, recounts)
}

/// The kernel stores a pair only once its count reaches the larger
/// endpoint floor, and recounts a pair it does not hold when a
/// contraction touches it. The sweep still matches the recounting
/// reference on the shapes that lean on that rule: on `big_company(1)`
/// contractions recount unstored pairs, and on `department(2000, 1)`
/// most counted pairs are below their floor at build. Release only: the
/// reference sweep on BigCompany takes ~20 s even optimized.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs the recounting sweep on BigCompany; run with --release (scripts/ci.sh does)"
)]
fn kernel_formation_matches_reference_below_floor() {
    let big = scenarios::big_company(1).connsets;
    let (_, _, recounts) = floor_counters_after_matching_reference("big_company(1)", &big);
    assert!(
        recounts > 0,
        "big_company(1) must exercise the recount path"
    );

    let dept = scenarios::department(2000, 1).connsets;
    let (below, stored, _) = floor_counters_after_matching_reference("department(2000, 1)", &dept);
    assert!(
        below > stored,
        "department(2000, 1): most pairs must be below floor"
    );
}

/// A flow-log-shaped hub network: 24 departments of 40 clients and 3
/// department servers, plus 4 core servers every client uses (1,036
/// hosts). Formation contracts the core servers into one group node
/// shared by all 960 clients.
fn hub_network() -> flow::ConnectionSets {
    let mut cs = flow::ConnectionSets::new();
    let host = |a, b, c| flow::HostAddr::from_octets(10, a, b, c);
    for d in 0..24 {
        for c in 1..=40 {
            let client = host(d, 0, c);
            for s in 1..=3 {
                cs.add_pair(client, host(d, 1, s));
            }
            for s in 1..=4 {
                cs.add_pair(client, host(255, 0, s));
            }
        }
    }
    cs
}

/// On the hub network every client has the same profile into the core
/// servers and into its department's servers, so formation's
/// contractions change no pair count: the sweep matches the recounting
/// reference while the kernel writes no pair.
#[test]
fn hub_contractions_write_no_pair() {
    let cs = hub_network();
    assert_eq!(cs.host_count(), 1036);
    let rec = std::sync::Arc::new(telemetry::Recorder::new());
    let engine = Engine::new(Params::default())
        .unwrap()
        .with_recorder(rec.clone());
    let fast = trace_key(engine.form(&cs).result());
    assert_eq!(
        fast,
        form_groups(&cs, &Params::default(), Sweep::Jump),
        "hub trace"
    );
    let reg = rec.registry();
    let updates = reg
        .counter("roleclass_kernel_contract_pair_updates_total")
        .get();
    let recounts = reg.counter("roleclass_kernel_recounts_total").get();
    println!("hub: {updates} contraction pair updates, {recounts} recounts");
    assert_eq!(updates, 0);
}

/// Engine classification equals the legacy `classify` free function.
#[test]
fn engine_classify_matches_legacy_classify() {
    for (name, cs) in scenario_connsets() {
        for params in param_grid() {
            let engine = Engine::new(params).unwrap();
            let via_engine = engine.classify(&cs);
            let via_stages = engine.form(&cs).merge().finish();
            let legacy = try_classify(&cs, &params).unwrap();
            assert_eq!(via_engine.grouping, legacy.grouping, "{name} grouping");
            assert_eq!(
                via_stages.grouping, legacy.grouping,
                "{name} staged grouping"
            );
            assert_eq!(
                via_engine.neighborhoods.len(),
                legacy.neighborhoods.len(),
                "{name} neighborhoods"
            );
            assert_eq!(
                via_engine.merge_trace.len(),
                legacy.merge_trace.len(),
                "{name} merge trace"
            );
        }
    }
}

/// `Engine::run_window` across two windows equals the manual
/// classify → correlate → apply_correlation chain.
#[test]
fn run_window_matches_manual_correlation_path() {
    for (name, cs) in scenario_connsets() {
        let params = Params::default().with_s_lo(90.0).with_s_hi(95.0);
        let mut engine = Engine::new(params).unwrap();
        let first = engine.run_window(&cs);
        assert!(first.correlation.is_none(), "{name} first window");
        let second = engine.run_window(&cs);

        // Manual path: classify both windows, correlate, rename.
        let c1 = try_classify(&cs, &params).unwrap();
        let c2 = try_classify(&cs, &params).unwrap();
        let corr = try_correlate(&cs, &c1.grouping, &cs, &c2.grouping, &params).unwrap();
        let renamed = apply_correlation(&corr, &c2.grouping);
        assert_eq!(first.grouping, c1.grouping, "{name} window 1");
        assert_eq!(second.grouping, renamed, "{name} window 2");
        assert_eq!(
            second.correlation.as_ref().map(|c| &c.id_map),
            Some(&corr.id_map),
            "{name} id map"
        );
    }
}

/// The worker matrix: classification is bit-identical at 1, 2 and 8
/// workers, for both the kernel and merge phases. This is the
/// determinism guarantee `EngineConfig` documents — worker count is a
/// performance knob, never semantics.
#[test]
fn classification_is_bit_identical_across_worker_matrix() {
    for (name, cs) in scenario_connsets() {
        for params in param_grid() {
            let baseline = Engine::new(params).unwrap().classify(&cs);
            for workers in [1usize, 2, 8] {
                let cfg = EngineConfig::new(params).with_workers(workers);
                let c = Engine::from_config(cfg).unwrap().classify(&cs);
                assert_eq!(
                    c.grouping, baseline.grouping,
                    "{name} grouping @ workers={workers}"
                );
                assert_eq!(
                    c.merge_trace, baseline.merge_trace,
                    "{name} merge trace @ workers={workers}"
                );
                assert_eq!(
                    c.neighborhoods, baseline.neighborhoods,
                    "{name} neighborhoods @ workers={workers}"
                );
            }
        }
    }
}

/// Everything a correlation decides, with scores as bit patterns so a
/// summation-order change shows up as a difference.
type CorrelationKey = (
    Vec<(GroupId, GroupId)>,
    Vec<((GroupId, GroupId), u64)>,
    Vec<GroupId>,
    Vec<GroupId>,
    Vec<flow::HostAddr>,
    Vec<flow::HostAddr>,
    Vec<flow::HostAddr>,
);

fn correlation_key(c: &Correlation) -> CorrelationKey {
    (
        c.id_map.iter().map(|(&a, &b)| (a, b)).collect(),
        c.scores.iter().map(|(&k, v)| (k, v.to_bits())).collect(),
        c.new_groups.clone(),
        c.vanished_groups.clone(),
        c.added_hosts.iter().copied().collect(),
        c.removed_hosts.iter().copied().collect(),
        c.h_same.iter().copied().collect(),
    )
}

/// Correlations across windows are also invariant under the worker
/// matrix: two engines configured differently must produce the same
/// whole correlation — ids, scores to the bit, `H_same`, new and
/// vanished groups — window after window.
#[test]
fn correlation_ids_are_stable_across_worker_matrix() {
    let params = Params::default().with_s_lo(90.0).with_s_hi(95.0);
    for (name, cs) in scenario_connsets() {
        let mut baseline = Engine::new(params).unwrap();
        let b1 = baseline.run_window(&cs);
        let b2 = baseline.run_window(&cs);
        for workers in [2usize, 8] {
            let cfg = EngineConfig::new(params).with_workers(workers);
            let mut engine = Engine::from_config(cfg).unwrap();
            let w1 = engine.run_window(&cs);
            let w2 = engine.run_window(&cs);
            assert_eq!(w1.grouping, b1.grouping, "{name} window 1 @ {workers}");
            assert_eq!(w2.grouping, b2.grouping, "{name} window 2 @ {workers}");
            assert_eq!(
                w2.correlation.as_ref().map(correlation_key),
                b2.correlation.as_ref().map(correlation_key),
                "{name} correlation @ {workers}"
            );
        }
    }
}

/// Every fallible entry point rejects the same invalid parameters.
#[test]
fn fallible_endpoints_agree_on_rejection() {
    let cs = scenarios::figure1(4, 4).connsets;
    let bad = Params {
        s_lo: 90.0,
        s_hi: 80.0,
        ..Params::default()
    };
    assert!(Engine::new(bad).is_err());
    assert!(try_classify(&cs, &bad).is_err());
    assert!(try_form_groups(&cs, &bad).is_err());
    let good = try_form_groups(&cs, &Params::default()).unwrap();
    assert!(try_merge_groups(&cs, good, &bad).is_err());
}
