//! Property-based tests of the grouping algorithm's formal guarantees
//! (the Section 3 model) on random and structured networks.

use flow::{ConnectionSets, HostAddr};
use proptest::prelude::*;
use roleclass::{try_classify, try_form_groups, try_merge_groups, Grouping, Params};

fn h(x: u32) -> HostAddr {
    HostAddr::v4(x)
}

/// Strategy: a random network.
fn arb_connsets(max_hosts: u32, max_edges: usize) -> impl Strategy<Value = ConnectionSets> {
    prop::collection::vec((0..max_hosts, 0..max_hosts), 0..max_edges).prop_map(|pairs| {
        let mut cs = ConnectionSets::new();
        for (a, b) in pairs {
            if a != b {
                cs.add_pair(h(a), h(b));
            }
        }
        cs
    })
}

/// Strategy: a clean two-tier client/server network where every client
/// role has an unambiguous habit.
fn arb_clean_network() -> impl Strategy<Value = (ConnectionSets, Vec<Vec<HostAddr>>)> {
    (2usize..5, 3usize..8).prop_map(|(pods, clients_per_pod)| {
        let mut cs = ConnectionSets::new();
        let mut truth: Vec<Vec<HostAddr>> = Vec::new();
        for p in 0..pods {
            let s1 = h(10_000 + 2 * p as u32);
            let s2 = h(10_000 + 2 * p as u32 + 1);
            truth.push(vec![s1, s2]);
            let mut pod = Vec::new();
            for c in 0..clients_per_pod {
                let client = h((p * 100 + c) as u32);
                cs.add_pair(client, s1);
                cs.add_pair(client, s2);
                pod.push(client);
            }
            truth.push(pod);
        }
        (cs, truth)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On clean pod networks the algorithm recovers the exact ground
    /// truth: each pod's clients in one group, each pod's server pair in
    /// one group (with formation-preserving thresholds).
    #[test]
    fn clean_networks_are_recovered_exactly((cs, truth) in arb_clean_network()) {
        let params = Params::default().with_s_lo(90.0).with_s_hi(95.0);
        let c = try_classify(&cs, &params).unwrap();
        for group in &truth {
            let gid = c.grouping.group_of(group[0]);
            prop_assert!(gid.is_some());
            for &m in group {
                prop_assert_eq!(c.grouping.group_of(m), gid, "pod split");
            }
            // And nothing else joined.
            prop_assert_eq!(
                c.grouping.group(gid.unwrap()).unwrap().len(),
                group.len(),
                "pod polluted"
            );
        }
    }

    /// Merging is a coarsening of formation: every formation group's
    /// members stay together through the merge phase.
    #[test]
    fn merging_only_coarsens(cs in arb_connsets(50, 100)) {
        let params = Params::default();
        let formation = try_form_groups(&cs, &params).unwrap();
        let formed: Vec<Vec<HostAddr>> =
            formation.groups.iter().map(|g| g.members.clone()).collect();
        let out = try_merge_groups(&cs, formation, &params).unwrap();
        for members in formed {
            let gid = out.grouping.group_of(members[0]);
            for &m in &members {
                prop_assert_eq!(out.grouping.group_of(m), gid);
            }
        }
    }

    /// Raising S^lo (with S^hi pinned) never decreases the group count —
    /// the Figure 6 monotonicity, as a law.
    #[test]
    fn s_lo_monotonicity(cs in arb_connsets(35, 70)) {
        let mut last = 0usize;
        for s_lo in [0.0, 30.0, 60.0, 90.0] {
            let p = Params::default().with_s_lo(s_lo).with_s_hi(99.0);
            let c = try_classify(&cs, &p).unwrap();
            prop_assert!(
                c.grouping.group_count() >= last,
                "count dropped at s_lo={}", s_lo
            );
            last = c.grouping.group_count();
        }
    }

    /// No group mixes in a complete stranger: every member of a
    /// multi-host group relates to some other member — directly, through
    /// a shared neighbor host, or through a shared *neighbor group* (the
    /// paper's group-node mechanism, which is how hosts with disjoint
    /// concrete neighbor sets legitimately end up together).
    #[test]
    fn no_stranger_in_any_group(cs in arb_connsets(40, 80)) {
        let c = try_classify(&cs, &Params::default()).unwrap();
        let neighbor_groups = |m: HostAddr| -> std::collections::BTreeSet<_> {
            cs.neighbors(m)
                .map(|nbrs| {
                    nbrs.iter()
                        .filter_map(|n| c.grouping.group_of(n))
                        .collect()
                })
                .unwrap_or_default()
        };
        for g in c.grouping.groups() {
            if g.len() < 2 {
                continue;
            }
            for &m in &g.members {
                let ngm = neighbor_groups(m);
                let related = g.members.iter().any(|&o| {
                    o != m
                        && (cs.similarity(m, o) > 0
                            || cs.connected(m, o)
                            || !ngm.is_disjoint(&neighbor_groups(o)))
                });
                prop_assert!(related, "host {} is a stranger in its group", m);
            }
        }
    }

    /// Classification is deterministic under the default tie-break.
    #[test]
    fn classification_is_deterministic(cs in arb_connsets(40, 80)) {
        let a = try_classify(&cs, &Params::default()).unwrap().grouping;
        let b = try_classify(&cs, &Params::default()).unwrap().grouping;
        prop_assert_eq!(a, b);
    }

    /// Group ids are unique and every host resolves back to its group.
    #[test]
    fn grouping_index_is_consistent(cs in arb_connsets(40, 80)) {
        let g: Grouping = try_classify(&cs, &Params::default()).unwrap().grouping;
        for group in g.groups() {
            for &m in &group.members {
                prop_assert_eq!(g.group_of(m), Some(group.id));
            }
            prop_assert_eq!(g.group(group.id).map(|x| x.id), Some(group.id));
        }
    }
}
