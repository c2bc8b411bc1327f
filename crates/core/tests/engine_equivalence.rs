//! End-to-end equivalence: the kernel-backed [`Engine`] must reproduce
//! the recompute-per-level reference pipeline bit for bit on every
//! synthetic scenario, at every worker count and prune setting. The
//! worker matrix runs in-process here via [`EngineConfig`] (CI invokes
//! this file once; no environment variables involved).

use roleclass::prelude::*;
use roleclass::{form_groups_reference, FormationKind, FormationResult};
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

fn trace_key(r: &FormationResult) -> Vec<(u32, FormationKind, Vec<flow::HostAddr>)> {
    r.trace
        .iter()
        .map(|e| (e.k, e.kind, e.members.clone()))
        .collect()
}

/// The kernel-backed formation sweep reproduces the recompute-per-level
/// reference implementation exactly: same trace, same groups, same
/// contracted graph shape.
#[test]
fn kernel_formation_matches_reference_on_scenarios() {
    for (name, cs) in scenario_connsets() {
        for params in param_grid() {
            let fast = try_form_groups(&cs, &params).unwrap();
            let slow = form_groups_reference(&cs, &params);
            assert_eq!(trace_key(&fast), trace_key(&slow), "{name} trace");
            assert_eq!(
                fast.to_grouping(),
                slow.to_grouping(),
                "{name} grouping mismatch"
            );
        }
    }
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
/// workers, for both the kernel and merge phases, with pruning on or
/// off. This is the determinism guarantee `EngineConfig` documents —
/// worker count and prune mode are performance knobs, never semantics.
#[test]
fn classification_is_bit_identical_across_worker_matrix() {
    for (name, cs) in scenario_connsets() {
        for params in param_grid() {
            let baseline = Engine::new(params).unwrap().classify(&cs);
            for workers in [1usize, 2, 8] {
                for prune in [PruneMode::Auto, PruneMode::Off] {
                    let cfg = EngineConfig::new(params)
                        .with_workers(workers)
                        .with_prune(prune);
                    let c = Engine::from_config(cfg).unwrap().classify(&cs);
                    assert_eq!(
                        c.grouping, baseline.grouping,
                        "{name} grouping @ workers={workers} prune={prune:?}"
                    );
                    assert_eq!(
                        c.merge_trace, baseline.merge_trace,
                        "{name} merge trace @ workers={workers} prune={prune:?}"
                    );
                    assert_eq!(
                        c.neighborhoods, baseline.neighborhoods,
                        "{name} neighborhoods @ workers={workers} prune={prune:?}"
                    );
                }
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
