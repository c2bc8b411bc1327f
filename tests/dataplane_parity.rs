//! Parity suite: the columnar data plane against the map-based
//! executable spec (`roleclass_spec::connsets`).
//!
//! The contract (see DESIGN.md "Data plane"): for any sequence of
//! mutations, `flow::ConnectionSets` and `roleclass_spec::connsets::ConnectionSets`
//! agree on every accessor, and classification built on the columnar
//! plane produces bit-identical groupings and correlations to one built
//! from the reference representation. Synthetic scenarios provide the
//! workloads; a seeded op script exercises the mutators.

use flow::{ConnectionSets, HostAddr, PairStats};
use roleclass::{try_classify, try_correlate, Params};
use roleclass_spec::connsets::{self as reference, from_reference, to_reference};
use std::collections::BTreeSet;
use synthnet::{churn, scenarios, SyntheticNetwork};

/// Asserts every accessor agrees between the two representations.
/// `pair_sample` bounds the quadratic similarity sweep on big networks.
fn assert_accessor_parity(cs: &ConnectionSets, r: &reference::ConnectionSets, pair_sample: usize) {
    assert_eq!(cs.host_count(), r.host_count());
    assert_eq!(cs.connection_count(), r.connection_count());
    assert_eq!(cs.is_empty(), r.is_empty());
    assert_eq!(cs.max_degree(), r.max_degree());

    let hosts: Vec<HostAddr> = cs.hosts().collect();
    let ref_hosts: Vec<HostAddr> = r.hosts().collect();
    assert_eq!(hosts, ref_hosts, "host iteration order must match");

    for &h in &hosts {
        assert!(r.contains(h));
        assert_eq!(cs.degree(h), r.degree(h));
        let nbrs: Vec<HostAddr> = cs.neighbors(h).expect("listed host").iter().collect();
        let ref_nbrs: Vec<HostAddr> = r
            .neighbors(h)
            .expect("listed host")
            .iter()
            .copied()
            .collect();
        assert_eq!(nbrs, ref_nbrs, "neighbors of {h}");
        assert_eq!(cs.initiated_flows(h), r.initiated_flows(h));
        assert_eq!(cs.accepted_flows(h), r.accepted_flows(h));
        assert_eq!(cs.server_ratio(h), r.server_ratio(h));
    }
    // A host neither side knows.
    let ghost = HostAddr::v6(u128::MAX);
    assert_eq!(cs.contains(ghost), r.contains(ghost));
    assert_eq!(cs.degree(ghost), r.degree(ghost));
    assert!(cs.neighbors(ghost).is_none() && r.neighbors(ghost).is_none());

    let pairs: Vec<((HostAddr, HostAddr), PairStats)> = cs.pairs().collect();
    let ref_pairs: Vec<((HostAddr, HostAddr), PairStats)> = r.pairs().collect();
    assert_eq!(pairs, ref_pairs, "pair enumeration must match");
    assert_eq!(cs.edges(), r.edges());
    for &((a, b), stats) in pairs.iter().take(pair_sample) {
        assert!(cs.connected(a, b) && r.connected(a, b));
        assert_eq!(cs.pair_stats(a, b), Some(stats));
        assert_eq!(r.pair_stats(a, b), Some(stats));
    }
    for (i, &a) in hosts.iter().take(pair_sample).enumerate() {
        for &b in hosts.iter().take(pair_sample).skip(i) {
            assert_eq!(
                cs.similarity(a, b),
                r.similarity(a, b),
                "similarity({a},{b})"
            );
            assert_eq!(cs.connected(a, b), r.connected(a, b));
        }
    }
}

fn scenario_suite() -> Vec<(&'static str, SyntheticNetwork)> {
    vec![
        ("figure1", scenarios::figure1(3, 3)),
        ("small_office", scenarios::small_office(11)),
        ("mazu", scenarios::mazu(7)),
        ("datacenter", scenarios::datacenter(3)),
        ("big_company", scenarios::big_company(5)),
    ]
}

#[test]
fn accessors_agree_on_synth_scenarios() {
    for (name, net) in scenario_suite() {
        let r = to_reference(&net.connsets);
        assert_accessor_parity(&net.connsets, &r, 60);
        // Round-tripping through the spec is lossless.
        let back = from_reference(&r);
        assert_eq!(back, net.connsets, "{name}: reference round trip");
        assert_eq!(to_reference(&back), r, "{name}: to_reference");
    }
}

#[test]
fn mutators_agree_under_seeded_op_script() {
    // A deterministic LCG drives the same mutation script through both
    // representations; parity is checked after every batch.
    let mut state = 0x5DEECE66Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut cs = ConnectionSets::new();
    let mut r = reference::ConnectionSets::new();
    for round in 0..6 {
        for _ in 0..120 {
            let (a, b) = (next() % 64, next() % 64);
            if a == b {
                continue;
            }
            match next() % 4 {
                0 => {
                    cs.add_pair(HostAddr::v4(a), HostAddr::v4(b));
                    r.add_pair(HostAddr::v4(a), HostAddr::v4(b));
                }
                1 => {
                    let stats = PairStats {
                        flows: u64::from(next() % 9 + 1),
                        packets: u64::from(next() % 100),
                        bytes: u64::from(next()),
                    };
                    cs.add_connection(HostAddr::v4(a), HostAddr::v4(b), stats);
                    r.add_connection(HostAddr::v4(a), HostAddr::v4(b), stats);
                }
                2 => {
                    cs.add_host(HostAddr::v6(u128::from(a)));
                    r.add_host(HostAddr::v6(u128::from(a)));
                }
                _ => {
                    let (i, acc) = (u64::from(next() % 50), u64::from(next() % 50));
                    cs.add_direction_counts(HostAddr::v4(a), i, acc);
                    r.add_direction_counts(HostAddr::v4(a), i, acc);
                }
            }
        }
        // Removals and a retain pass.
        let victim = HostAddr::v4(next() % 64);
        assert_eq!(cs.remove_host(victim), r.remove_host(victim));
        if round % 2 == 1 {
            let keep: BTreeSet<HostAddr> =
                cs.hosts().filter(|h| h.as_u32() % 5 != round % 5).collect();
            cs.retain_hosts(&keep);
            r.retain_hosts(&keep);
        }
        assert_accessor_parity(&cs, &r, usize::MAX);
        // hosts_not_in agrees in both directions against a shifted copy.
        let mut other = cs.clone();
        other.add_host(HostAddr::v4(9_999));
        other.remove_host(HostAddr::v4(next() % 64));
        let other_ref = to_reference(&other);
        assert_eq!(cs.hosts_not_in(&other), {
            // The reference signature takes its own type; compare sets.
            r.hosts_not_in(&other_ref)
        });
        assert_eq!(other.hosts_not_in(&cs), other_ref.hosts_not_in(&r));
    }
}

fn assert_grouping_parity(name: &str, net: &SyntheticNetwork) {
    let params = Params::default();
    let fast = try_classify(&net.connsets, &params).unwrap();
    let round_tripped = from_reference(&to_reference(&net.connsets));
    let spec = try_classify(&round_tripped, &params).unwrap();
    assert_eq!(
        fast.grouping, spec.grouping,
        "{name}: grouping must be bit-identical across data planes"
    );
}

#[test]
fn groupings_are_bit_identical_via_reference_round_trip() {
    for (name, net) in scenario_suite() {
        if name == "big_company" {
            continue; // minutes of debug-build classify; see the ignored test below
        }
        assert_grouping_parity(name, &net);
    }
}

/// The same grouping-parity check on the 3638-host scenario. Ignored by
/// default (two debug-build classifications take minutes); run with
/// `cargo test --release -- --ignored` before touching the data plane.
#[test]
#[ignore = "classifies big_company twice; minutes in a debug build"]
fn groupings_are_bit_identical_on_big_company() {
    assert_grouping_parity("big_company", &scenarios::big_company(5));
}

/// Satellite regression for the merged-pass `retain_hosts` /
/// `hosts_not_in`: on a 10k-host synthetic trace, the single sorted
/// sweep must agree with the map-based spec exactly.
#[test]
fn retain_and_diff_agree_on_10k_host_trace() {
    use synthnet::{ConnRule, Fanout, NetworkModel, RoleSpec};

    let mut m = NetworkModel::new();
    let clients = m.role(RoleSpec::clients("client", 9_900));
    let servers = m.role(RoleSpec::servers("server", 100));
    m.rule(ConnRule::new(clients, servers, Fanout::Exactly(3)));
    let net = m.generate(42);
    assert_eq!(net.host_count(), 10_000);

    // retain_hosts: keep roughly half, in one merged pass.
    let keep: BTreeSet<HostAddr> = net
        .connsets
        .hosts()
        .filter(|h| h.as_u32() % 2 == 0)
        .collect();
    let mut fast = net.connsets.clone();
    let mut spec = to_reference(&net.connsets);
    fast.retain_hosts(&keep);
    spec.retain_hosts(&keep);
    assert_eq!(fast.host_count(), keep.len());
    assert_accessor_parity(&fast, &spec, 40);

    // hosts_not_in: two-pointer merge over the sorted representations.
    let departed = net.connsets.hosts_not_in(&fast);
    let expected: BTreeSet<HostAddr> = net.connsets.hosts().filter(|h| !keep.contains(h)).collect();
    assert_eq!(departed, expected);
    assert!(fast.hosts_not_in(&net.connsets).is_empty());
}

#[test]
fn correlations_are_bit_identical_via_reference_round_trip() {
    let params = Params::default();
    for (name, mut net) in scenario_suite() {
        if name == "big_company" {
            continue; // covered by the grouping test; correlation doubles the cost
        }
        let prev = net.connsets.clone();
        // A churned next window: one host replaced, one cloned.
        let hosts: Vec<HostAddr> = prev.hosts().collect();
        churn::replace_host(&mut net, hosts[0], HostAddr::v4(0xFFFF_0001));
        if hosts.len() > 2 {
            churn::add_host_like(&mut net, hosts[2], HostAddr::v4(0xFFFF_0002));
        }
        let curr = net.connsets.clone();

        let run = |p: &ConnectionSets, c: &ConnectionSets| {
            let pg = try_classify(p, &params).unwrap().grouping;
            let cg = try_classify(c, &params).unwrap().grouping;
            let corr = try_correlate(p, &pg, c, &cg, &params).unwrap();
            serde_json::to_string(&(pg, cg, corr)).expect("serializable")
        };
        let fast = run(&prev, &curr);
        let spec = run(
            &from_reference(&to_reference(&prev)),
            &from_reference(&to_reference(&curr)),
        );
        assert_eq!(fast, spec, "{name}: correlation must be bit-identical");
    }
}
