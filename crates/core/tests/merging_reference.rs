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
use netgraph::{NodeId, WGraph};
use proptest::prelude::*;
use roleclass::{try_form_groups, try_merge_groups, Params, SimilarityVariant};
use synthnet::{churn, scenarios, SyntheticNetwork};

use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One merge: left members, right members, similarity bits.
type TraceStep = (Vec<HostAddr>, Vec<HostAddr>, u64);

/// What a merging run produced: final member sets and the merge trace.
#[derive(Debug, PartialEq)]
struct Run {
    groups: BTreeSet<Vec<HostAddr>>,
    trace: Vec<TraceStep>,
}

/// Naive reference for the merging phase. Mirrors the Figure 3
/// requirements but recomputes all pair similarities every iteration.
fn reference_merge(cs: &ConnectionSets, params: &Params) -> Run {
    #[derive(Clone)]
    struct Info {
        members: Vec<HostAddr>,
        k: u32,
        sum_deg: u64,
        min_deg: u32,
    }
    let formation = try_form_groups(cs, params).unwrap();
    let mut g: WGraph = formation.graph;
    let mut info: HashMap<NodeId, Info> = HashMap::new();
    for (idx, pg) in formation.groups.iter().enumerate() {
        let degs: Vec<u32> = pg
            .members
            .iter()
            .map(|h| cs.degree(*h).unwrap_or(0) as u32)
            .collect();
        info.insert(
            formation.node_of_group[idx],
            Info {
                members: pg.members.clone(),
                k: pg.k,
                sum_deg: degs.iter().map(|&d| d as u64).sum(),
                min_deg: degs.iter().copied().min().unwrap_or(0),
            },
        );
    }

    let similarity = |nbrs: &HashMap<NodeId, BTreeMap<NodeId, u64>>,
                      info: &HashMap<NodeId, Info>,
                      x: NodeId,
                      y: NodeId|
     -> f64 {
        let (nx, ny) = (&nbrs[&x], &nbrs[&y]);
        let tx = nx.values().sum::<u64>() as f64;
        let ty = ny.values().sum::<u64>() as f64;
        if tx == 0.0 || ty == 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (v, wx) in nx {
            if *v == x || *v == y {
                continue;
            }
            if let Some(wy) = ny.get(v) {
                acc += match params.similarity {
                    SimilarityVariant::Normalized => (*wx as f64 / tx).min(*wy as f64 / ty),
                    SimilarityVariant::Literal => {
                        (*wx as f64 / nx.len() as f64).min(*wy as f64 / ny.len() as f64)
                    }
                };
            }
        }
        let sim = match params.similarity {
            SimilarityVariant::Normalized => 100.0 * acc,
            SimilarityVariant::Literal => {
                let cx = tx / info[&x].members.len() as f64;
                let cy = ty / info[&y].members.len() as f64;
                50.0 * (acc / cx + acc / cy)
            }
        };
        sim.clamp(0.0, 100.0)
    };

    let mut trace = Vec::new();
    loop {
        let nodes: Vec<NodeId> = g.nodes().collect();
        let nbrs: HashMap<NodeId, BTreeMap<NodeId, u64>> = nodes
            .iter()
            .map(|&x| (x, g.neighbors(x).collect()))
            .collect();
        let mut best: Option<(f64, NodeId, NodeId)> = None;
        for (i, &x) in nodes.iter().enumerate() {
            for &y in &nodes[i + 1..] {
                let s = similarity(&nbrs, &info, x, y);
                if s <= 0.0 {
                    continue;
                }
                let (ix, iy) = (&info[&x], &info[&y]);
                let a1 = ix.sum_deg as f64 / ix.members.len() as f64;
                let a2 = iy.sum_deg as f64 / iy.members.len() as f64;
                let hi = a1.max(a2);
                if hi > 0.0 && (a1 - a2).abs() > params.beta * hi {
                    continue;
                }
                let kmax = ix.k.max(iy.k);
                let thresh = if kmax >= params.k_hi {
                    params.s_hi
                } else {
                    params.s_lo
                };
                if s < thresh {
                    continue;
                }
                if best.is_none_or(|(bs, _, _)| s > bs) {
                    best = Some((s, x, y));
                }
            }
        }
        let Some((s, x, y)) = best else { break };
        let ix = info.remove(&x).expect("alive");
        let iy = info.remove(&y).expect("alive");
        trace.push((ix.members.clone(), iy.members.clone(), s.to_bits()));
        let (m, _) = g.contract(&[x, y]);
        let mut members = ix.members;
        members.extend(iy.members);
        members.sort_unstable();
        let min_deg = ix.min_deg.min(iy.min_deg);
        info.insert(
            m,
            Info {
                members,
                k: min_deg,
                sum_deg: ix.sum_deg + iy.sum_deg,
                min_deg,
            },
        );
    }
    Run {
        groups: info.into_values().map(|i| i.members).collect(),
        trace,
    }
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

fn variant(literal: bool) -> SimilarityVariant {
    if literal {
        SimilarityVariant::Literal
    } else {
        SimilarityVariant::Normalized
    }
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
        literal in 0u32..2,
    ) {
        // `S^lo` within 0.5 of `S^hi`: `θ` sits on both gates at once, so
        // pairs hover at the filter boundary and cross it as merges
        // shift their similarities, under either `K^hi` gate.
        let params = Params {
            k_hi,
            similarity: variant(literal == 1),
            ..Params::default().with_s_lo(s_hi - gap).with_s_hi(s_hi)
        };
        prop_assert_eq!(production_merge(&cs, &params), reference_merge(&cs, &params));
    }

    #[test]
    fn incremental_merging_matches_naive_zero_s_lo(
        cs in arb_connsets(22, 45),
        s_hi in 0.0f64..60.0,
        literal in 0u32..2,
    ) {
        // `θ = 0`: the `sim > 0` half of the keep rule is the only
        // filter, and every pair sharing a neighbor is a candidate.
        let params = Params {
            similarity: variant(literal == 1),
            ..Params::default().with_s_lo(0.0).with_s_hi(s_hi)
        };
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
