//! Differential test: the production merging phase (incremental
//! similarity maintenance after each merge, with only pairs at or above
//! `θ = min(S^lo, S^hi)` stored and queued) against a naive reference
//! that recomputes every pair similarity from scratch each round and
//! scans all of them for the best eligible pair.
//!
//! The incremental path only refreshes pairs touching the merged node or
//! its neighbors, and drops pairs that cannot pass the similarity gate;
//! if the dirty set is ever too small or the filter ever drops a pair
//! that could merge, greedy order diverges and this test catches it.
//! Every check compares the whole merge trace — members of both sides
//! and the similarity by `to_bits` — not only the final groups.

use flow::{ConnectionSets, HostAddr};
use proptest::prelude::*;
use roleclass::{try_form_groups, try_merge_groups, Params};
use roleclass_spec::merging::{merge_groups, Run, Similarity};
use synthnet::{churn, scenarios, SyntheticNetwork};

/// The naive reference under the engine's reading of `SIMILARITY`.
fn reference_merge(cs: &ConnectionSets, params: &Params) -> Run {
    merge_groups(cs, params, Similarity::Normalized)
}

/// The production merging phase, reduced to the same shape.
fn production_merge(cs: &ConnectionSets, params: &Params) -> Run {
    let out = try_merge_groups(cs, try_form_groups(cs, params).unwrap(), params).unwrap();
    Run {
        groups: out
            .grouping
            .groups()
            .iter()
            .map(|g| g.members.clone())
            .collect(),
        trace: out
            .merges
            .into_iter()
            .map(|m| (m.left, m.right, m.similarity.to_bits()))
            .collect(),
    }
}

/// Asserts production equals the reference, trace first (a divergence
/// there explains any difference in the groups), and returns the
/// number of merges.
fn check(ctx: &str, cs: &ConnectionSets, params: &Params) -> usize {
    let fast = production_merge(cs, params);
    let slow = reference_merge(cs, params);
    assert_eq!(fast.trace.len(), slow.trace.len(), "{ctx}: merge count");
    for (i, (f, s)) in fast.trace.iter().zip(&slow.trace).enumerate() {
        assert_eq!(f, s, "{ctx}: merge {i} differs");
    }
    assert_eq!(fast.groups, slow.groups, "{ctx}: final groups");
    println!(
        "{ctx}: {} merges, {} final groups",
        fast.trace.len(),
        fast.groups.len()
    );
    fast.trace.len()
}

fn arb_connsets(max_hosts: u32, max_edges: usize) -> impl Strategy<Value = ConnectionSets> {
    prop::collection::vec((0..max_hosts, 0..max_hosts), 0..max_edges).prop_map(|pairs| {
        let mut cs = ConnectionSets::new();
        for (a, b) in pairs {
            if a != b {
                cs.add_pair(HostAddr::v4(a), HostAddr::v4(b));
            }
        }
        cs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_merging_matches_naive(cs in arb_connsets(28, 60)) {
        let params = Params::default();
        prop_assert_eq!(production_merge(&cs, &params), reference_merge(&cs, &params));
    }

    #[test]
    fn incremental_merging_matches_naive_low_thresholds(cs in arb_connsets(22, 45)) {
        // Low thresholds force many merges, stressing the dirty-set
        // bookkeeping through long merge chains.
        let params = Params::default().with_s_lo(10.0).with_s_hi(20.0);
        prop_assert_eq!(production_merge(&cs, &params), reference_merge(&cs, &params));
    }

    #[test]
    fn incremental_merging_matches_naive_close_thresholds(
        cs in arb_connsets(26, 60),
        s_hi in 1.0f64..95.0,
        gap in 0.0f64..=0.5,
        k_hi in 1u32..6,
    ) {
        // `S^lo` within 0.5 of `S^hi`: `θ` sits on both gates at once, so
        // pairs hover at the filter boundary and cross it as merges
        // shift their similarities, under either `K^hi` gate.
        let params = Params {
            k_hi,
            ..Params::default().with_s_lo(s_hi - gap).with_s_hi(s_hi)
        };
        prop_assert_eq!(production_merge(&cs, &params), reference_merge(&cs, &params));
    }

    #[test]
    fn incremental_merging_matches_naive_zero_s_lo(
        cs in arb_connsets(22, 45),
        s_hi in 0.0f64..60.0,
    ) {
        // `θ = 0`: the keep rule admits every similarity, so a stored
        // zero-similarity pair would merge here while the reference
        // skips it. None is stored: every scored pair shares a via.
        let params = Params::default().with_s_lo(0.0).with_s_hi(s_hi);
        prop_assert_eq!(production_merge(&cs, &params), reference_merge(&cs, &params));
    }
}

/// The paper's Mazu network at default and low thresholds.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the naive reference is slow in debug builds; run with --release (scripts/ci.sh does)"
)]
fn mazu_merges_match_reference() {
    let cs = scenarios::mazu(42).connsets;
    let mut merges = 0;
    for params in [
        Params::default(),
        Params::default().with_s_lo(20.0).with_s_hi(40.0),
    ] {
        merges += check("mazu(42)", &cs, &params);
    }
    assert!(merges > 0, "the scenario must merge");
}

/// Replaces `replacements` hosts by fresh addresses that inherit their
/// connections and swaps `swaps` pairs of survivors' roles, picking
/// hosts by a fixed stride walk.
fn churn_window(net: &mut SyntheticNetwork, replacements: usize, swaps: usize) {
    // 172.16.0.0/12 — unused by the synthetic scenarios.
    const FRESH_BASE: u32 = 0xAC10_0000;
    let mut hosts: Vec<HostAddr> = net.connsets.hosts().collect();
    let pick = |hosts: &mut Vec<HostAddr>, k: usize| hosts.swap_remove((k * 7919) % hosts.len());
    for k in 0..replacements {
        let old = pick(&mut hosts, k);
        churn::replace_host(net, old, HostAddr::v4(FRESH_BASE + k as u32));
    }
    for k in 0..swaps {
        let a = pick(&mut hosts, 2 * k + replacements);
        let b = pick(&mut hosts, 2 * k + replacements + 1);
        churn::swap_hosts(net, a, b);
    }
}

/// A churned ~2k-host department window: 2% of hosts replaced and
/// three role swaps, the `hub-churn` benchmark's per-window change.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the naive reference is slow in debug builds; run with --release (scripts/ci.sh does)"
)]
fn churned_department_window_merges_match_reference() {
    let mut net = scenarios::department(2_000, 3);
    churn_window(&mut net, 40, 3);
    let merges = check(
        "department(2000), churned",
        &net.connsets,
        &Params::default(),
    );
    assert!(merges > 0, "the scenario must merge");
}
