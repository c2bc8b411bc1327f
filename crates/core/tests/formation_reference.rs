//! Differential test: the production formation phase (kernel counts,
//! level jumping) against the recounting reference sweep of
//! `roleclass-spec`, walking k down one level at a time exactly as
//! Section 4.1 states the algorithm.
//!
//! If the jumping optimization ever skips a level where a BCC or a
//! bootstrap could fire, or the kernel's counts ever drift from a fresh
//! recount, this test catches it. Every check compares the whole
//! ordered trace: members, level and kind of each group.

use flow::{ConnectionSets, HostAddr};
use proptest::prelude::*;
use roleclass::{try_form_groups, FormationKind, Params, TieBreak};
use roleclass_spec::formation::{form_groups, Step, Sweep};

fn production(cs: &ConnectionSets, params: &Params) -> Vec<Step> {
    try_form_groups(cs, params)
        .unwrap()
        .trace
        .into_iter()
        .map(|e| (e.members, e.k, e.kind))
        .collect()
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jumping_matches_literal_sweep(cs in arb_connsets(30, 70)) {
        let params = Params::default();
        prop_assert_eq!(production(&cs, &params), form_groups(&cs, &params, Sweep::EveryLevel));
    }

    /// Same check under a different alpha (bootstrap interacts with the
    /// jump target computation), for the reference's own jump too.
    #[test]
    fn jumping_matches_literal_sweep_alpha(cs in arb_connsets(25, 50), alpha in 0.0f64..=1.0) {
        let params = Params {
            alpha,
            ..Params::default()
        };
        let literal = form_groups(&cs, &params, Sweep::EveryLevel);
        prop_assert_eq!(&form_groups(&cs, &params, Sweep::Jump), &literal);
        prop_assert_eq!(production(&cs, &params), literal);
    }
}

fn h(x: u32) -> HostAddr {
    HostAddr::v4(x)
}

/// The Figure 1 network with M = N = 3: mail = 1, web = 2, salesdb = 3,
/// srcctl = 4, sales = 11..13, eng = 21..23.
fn figure1() -> ConnectionSets {
    let mut cs = ConnectionSets::new();
    for s in [11u32, 12, 13] {
        cs.add_pair(h(s), h(1));
        cs.add_pair(h(s), h(2));
        cs.add_pair(h(s), h(3));
    }
    for e in [21u32, 22, 23] {
        cs.add_pair(h(e), h(1));
        cs.add_pair(h(e), h(2));
        cs.add_pair(h(e), h(4));
    }
    cs
}

/// Keep the reference honest on the Figure 2 walk-through too.
#[test]
fn reference_agrees_on_figure1() {
    let slow = form_groups(&figure1(), &Params::default(), Sweep::EveryLevel);
    assert_eq!(slow.len(), 5);
    let find = |m: &[u32]| {
        let m: Vec<HostAddr> = m.iter().map(|&x| h(x)).collect();
        slow.iter()
            .find(|(g, _, _)| g == &m)
            .map(|&(_, k, kind)| (k, kind))
    };
    assert_eq!(find(&[1, 2]), Some((6, FormationKind::Bcc)));
    assert_eq!(find(&[11, 12, 13]), Some((3, FormationKind::Bcc)));
    assert_eq!(find(&[3]), Some((1, FormationKind::Bootstrap)));
}

/// Leftovers, bootstraps, a hub with idle spokes, and both tie-breaks:
/// the kernel sweep and both reference sweeps agree step for step.
#[test]
fn kernel_sweep_matches_reference() {
    for params in [
        Params::default(),
        Params::default().with_alpha(0.0),
        Params {
            tie_break: TieBreak::Seeded(7),
            ..Params::default()
        },
    ] {
        let mut cs = figure1();
        cs.add_host(h(99)); // leftover path
        for i in 1..=20 {
            cs.add_pair(h(50), h(100 + i)); // hub + idle spokes
        }
        let fast = production(&cs, &params);
        assert_eq!(fast, form_groups(&cs, &params, Sweep::Jump), "{params:?}");
        assert_eq!(
            fast,
            form_groups(&cs, &params, Sweep::EveryLevel),
            "{params:?}"
        );
    }
}
