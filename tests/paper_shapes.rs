//! Assertions on the paper's headline result *shapes* (see
//! EXPERIMENTS.md for the measured-vs-paper numbers), plus the pinned
//! fingerprint of what the experiment binaries print: Figure 4 on Mazu
//! (`exp_fig4`), and the BigCompany group count and Table 1 server row
//! (`exp_table2 --quick`, `exp_table1`). A change that moves any of
//! these numbers fails here instead of drifting away from EXPERIMENTS.md.

use role_classification::cluster::metrics;
use role_classification::roleclass::{try_classify, try_form_groups, FormationKind, Params};

use role_classification::synthnet::scenarios;

#[test]
fn figure2_formation_walkthrough() {
    let net = scenarios::figure1(3, 3);
    let r = try_form_groups(&net.connsets, &Params::default()).unwrap();
    assert_eq!(r.groups.len(), 5);
    // {Mail, Web} at k = 6.
    let mw = r
        .trace
        .iter()
        .find(|e| e.members.contains(&net.host("mail")))
        .expect("mail grouped");
    assert_eq!(mw.k, 6);
    assert_eq!(mw.kind, FormationKind::Bcc);
    // Client cliques at k = 3.
    let sales = r
        .trace
        .iter()
        .find(|e| e.members.contains(&net.role_hosts("sales")[0]))
        .expect("sales grouped");
    assert_eq!(sales.k, 3);
    assert_eq!(sales.members.len(), 3);
    // Database singletons via bootstrap at k = 1.
    let db = r
        .trace
        .iter()
        .find(|e| e.members == vec![net.host("sales_db")])
        .expect("db grouped");
    assert_eq!(db.k, 1);
    assert_eq!(db.kind, FormationKind::Bootstrap);
}

#[test]
fn mazu_grouping_reflects_logical_structure() {
    let net = scenarios::mazu(42);
    let c = try_classify(&net.connsets, &Params::default()).unwrap();

    // One-to-two orders of magnitude reduction (paper: 110 -> 25).
    let groups = c.grouping.group_count();
    assert!(
        (5..=40).contains(&groups),
        "expected a big reduction, got {groups} groups"
    );

    // Engineering hosts share a group with other engineering hosts.
    let eng = net.role_hosts("eng");
    let g0 = c.grouping.group_of(eng[0]).unwrap();
    let eng_together = eng
        .iter()
        .filter(|&&e| c.grouping.group_of(e) == Some(g0))
        .count();
    assert!(eng_together * 2 > eng.len(), "eng hosts scattered");

    // The paper's signature observation: engineering *managers* (who use
    // Exchange) are grouped with sales, not with engineering.
    let mgr = net.role_hosts("eng_mgr")[0];
    let sales = net.role_hosts("sales")[0];
    assert_eq!(c.grouping.group_of(mgr), c.grouping.group_of(sales));
    assert_ne!(c.grouping.group_of(mgr), Some(g0));

    // Exchange and the NT server share a group (the paper's group 71);
    // the Unix mail server is elsewhere.
    let exch = net.host("ms_exchange");
    let nt = net.host("nt_server");
    let unix_mail = net.host("unix_mail");
    assert_eq!(c.grouping.group_of(exch), c.grouping.group_of(nt));
    assert_ne!(c.grouping.group_of(exch), c.grouping.group_of(unix_mail));

    // Lab machines land in one group (the paper's group 80).
    let lab = net.role_hosts("lab");
    let lab_group = c.grouping.group_of(lab[0]).unwrap();
    let lab_together = lab
        .iter()
        .filter(|&&l| c.grouping.group_of(l) == Some(lab_group))
        .count();
    assert_eq!(lab_together, lab.len());

    // Rand statistic against ground truth in the paper's ballpark
    // (paper: 0.8363 against the admin's partitioning).
    let r = metrics::rand_statistic(&net.truth.partition(), &c.grouping.as_partition());
    assert!(r > 0.80, "Rand statistic {r} below the paper's ballpark");
}

#[test]
fn slo_sweep_is_monotone_and_khi_stabilizes() {
    let net = scenarios::mazu(42);

    // Figure 6 shape: group count non-decreasing in S^lo.
    let mut last = 0usize;
    for s_lo in [0.0, 25.0, 55.0, 75.0, 95.0] {
        let p = Params::default().with_s_lo(s_lo).with_s_hi(99.0);
        let c = try_classify(&net.connsets, &p).unwrap();
        assert!(
            c.grouping.group_count() >= last,
            "figure 6 monotonicity violated at S^lo = {s_lo}"
        );
        last = c.grouping.group_count();
    }

    // Figure 7 shape: group count stabilizes for K^hi above a small
    // threshold (the paper: unchanged for K^hi >= 4 on Mazu).
    let count_at = |k_hi: u32| {
        try_classify(&net.connsets, &Params::default().with_k_hi(k_hi))
            .unwrap()
            .grouping
            .group_count()
    };
    let at8 = count_at(8);
    for k_hi in 9..=14 {
        assert_eq!(
            count_at(k_hi),
            at8,
            "figure 7 plateau violated at K^hi={k_hi}"
        );
    }
    // And K^hi = 0 (always strict) yields at least as many groups.
    assert!(count_at(0) >= at8);
}

#[test]
fn grouping_beats_naive_baselines_on_mazu() {
    use role_classification::cluster::{similarity_components, SimilarityComponentsConfig};
    let net = scenarios::mazu(42);
    let truth = net.truth.partition();
    let c = try_classify(&net.connsets, &Params::default()).unwrap();
    let ours = metrics::adjusted_rand_index(&truth, &c.grouping.as_partition());

    for min_common in [1, 2] {
        let cc = similarity_components(&net.connsets, &SimilarityComponentsConfig { min_common });
        let theirs = metrics::adjusted_rand_index(&truth, &cc);
        assert!(
            ours > theirs,
            "cc-threshold({min_common}) ARI {theirs} >= ours {ours}"
        );
    }
}

/// Figure 4 / §6.1 on Mazu, computed the way `exp_fig4` computes it.
#[test]
fn figure4_mazu_fingerprint_is_pinned() {
    let net = scenarios::mazu(42);
    let c = try_classify(&net.connsets, &Params::default()).unwrap();
    assert_eq!(c.grouping.group_count(), 17);
    let truth = net.truth.partition();
    let ours = c.grouping.as_partition();
    let pc = metrics::pair_counts(&truth, &ours);
    assert_eq!((pc.ss, pc.sd, pc.ds, pc.dd), (653, 2, 412, 4928));
    assert_eq!(format!("{:.4}", pc.rand()), "0.9309");
    assert_eq!(
        format!("{:.4}", metrics::adjusted_rand_index(&truth, &ours)),
        "0.7216"
    );
}

/// Table 2's BigCompany group count (`exp_table2 --quick`) and Table 1's
/// five largest groups with their dominant true role (`exp_table1`).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "classifies BigCompany; run with --release (scripts/ci.sh does)"
)]
fn big_company_fingerprint_is_pinned() {
    let net = scenarios::big_company(1);
    let c = try_classify(&net.connsets, &Params::default()).unwrap();
    assert_eq!(c.grouping.group_count(), 78);
    let table1: Vec<(usize, &str)> = c
        .grouping
        .largest(5)
        .into_iter()
        .map(|g| {
            let mut roles = std::collections::BTreeMap::new();
            for &m in &g.members {
                *roles
                    .entry(net.truth.role_of(m).unwrap_or("?"))
                    .or_insert(0) += 1;
            }
            let dominant = roles.into_iter().max_by_key(|&(_, n)| n).map(|(r, _)| r);
            (g.len(), dominant.unwrap_or("?"))
        })
        .collect();
    assert_eq!(
        table1,
        [
            (1490, "idle"),
            (297, "servers"),
            (167, "ip_phones"),
            (158, "dhcp_desktops"),
            (156, "static_desktops"),
        ]
    );
}
