//! Property-based tests of the pipeline's invariants, over randomly
//! generated networks and flow records.

use proptest::prelude::*;
use role_classification::flow::{
    netflow, pcap, textlog, ConnectionSets, FlowRecord, HostAddr, Proto,
};
use role_classification::roleclass::{try_classify, try_correlate, try_form_groups, Params};

/// Strategy: an arbitrary small connection-set structure.
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

/// Strategy: an arbitrary flow record with bounded fields.
fn arb_record() -> impl Strategy<Value = FlowRecord> {
    (
        0u32..5000,
        0u32..5000,
        0u8..4,
        any::<u16>(),
        any::<u16>(),
        1u32..10_000,
        1u64..1_000_000,
        0u64..1_000_000,
        0u64..1_000_000,
    )
        .prop_map(|(s, d, p, sp, dp, pk, by, t0, dt)| FlowRecord {
            src: HostAddr::v4(s),
            dst: HostAddr::v4(d),
            proto: match p {
                0 => Proto::Tcp,
                1 => Proto::Udp,
                2 => Proto::Icmp,
                _ => Proto::Other(89),
            },
            src_port: sp,
            dst_port: dp,
            packets: pk,
            bytes: by,
            start_ms: t0,
            end_ms: t0 + dt,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The grouping is always a total partition of the host set.
    #[test]
    fn classification_is_a_partition(cs in arb_connsets(60, 120)) {
        let c = try_classify(&cs, &Params::default()).unwrap();
        prop_assert_eq!(c.grouping.host_count(), cs.host_count());
        let mut seen = std::collections::BTreeSet::new();
        for g in c.grouping.groups() {
            prop_assert!(!g.members.is_empty());
            for &m in &g.members {
                prop_assert!(seen.insert(m), "host in two groups");
                prop_assert!(cs.contains(m));
            }
        }
    }

    /// Formation alone is also a total partition, and every K_G is at
    /// most the host's own connection count bound (k cannot exceed the
    /// maximum degree).
    #[test]
    fn formation_is_total_and_k_bounded(cs in arb_connsets(40, 80)) {
        let r = try_form_groups(&cs, &Params::default()).unwrap();
        let total: usize = r.groups.iter().map(|g| g.members.len()).sum();
        prop_assert_eq!(total, cs.host_count());
        let kmax = cs.max_degree() as u32;
        for g in &r.groups {
            prop_assert!(g.k <= kmax);
        }
    }

    /// Merging never leaves the similarity scale: every merge event's
    /// similarity is in [0, 100] and at least S^lo.
    #[test]
    fn merge_similarities_within_thresholds(cs in arb_connsets(40, 80)) {
        let params = Params::default();
        let c = try_classify(&cs, &params).unwrap();
        for ev in &c.merge_trace {
            prop_assert!(ev.similarity >= params.s_lo - 1e-9);
            prop_assert!(ev.similarity <= 100.0 + 1e-9);
        }
    }

    /// Correlating a snapshot against itself is the identity mapping.
    #[test]
    fn self_correlation_is_identity(cs in arb_connsets(40, 80)) {
        let params = Params::default();
        let c = try_classify(&cs, &params).unwrap();
        let corr = try_correlate(&cs, &c.grouping, &cs, &c.grouping, &params).unwrap();
        for (a, b) in &corr.id_map {
            prop_assert_eq!(a, b);
        }
        prop_assert!(corr.new_groups.is_empty());
        prop_assert!(corr.vanished_groups.is_empty());
    }

    /// NetFlow v5 serialization round-trips every record exactly.
    #[test]
    fn netflow_round_trip(records in prop::collection::vec(arb_record(), 0..100)) {
        // The writer clamps times below base; normalize inputs the same way.
        let base = 0;
        let bytes = netflow::write_stream(&records, base);
        let parsed = netflow::parse_stream(&bytes).expect("writer output parses");
        prop_assert_eq!(parsed.len(), records.len());
        for (orig, got) in records.iter().zip(&parsed) {
            prop_assert_eq!(got.src, orig.src);
            prop_assert_eq!(got.dst, orig.dst);
            prop_assert_eq!(got.proto, orig.proto);
            prop_assert_eq!(got.src_port, orig.src_port);
            prop_assert_eq!(got.dst_port, orig.dst_port);
            prop_assert_eq!(got.packets, orig.packets);
            prop_assert_eq!(got.start_ms, orig.start_ms);
            prop_assert_eq!(got.end_ms, orig.end_ms);
        }
    }

    /// pcap serialization round-trips TCP/UDP endpoint tuples.
    #[test]
    fn pcap_round_trip(records in prop::collection::vec(arb_record(), 0..100)) {
        let bytes = pcap::write_file(&records);
        let parsed = pcap::parse_file(&bytes).expect("writer output parses");
        let transportable: Vec<&FlowRecord> = records
            .iter()
            .filter(|r| matches!(r.proto, Proto::Tcp | Proto::Udp))
            .collect();
        prop_assert_eq!(parsed.records.len(), transportable.len());
        prop_assert_eq!(parsed.skipped, records.len() - transportable.len());
        for (orig, got) in transportable.iter().zip(&parsed.records) {
            prop_assert_eq!(got.src, orig.src);
            prop_assert_eq!(got.dst, orig.dst);
            prop_assert_eq!(got.src_port, orig.src_port);
            prop_assert_eq!(got.dst_port, orig.dst_port);
        }
    }

    /// The text log round-trips every record exactly.
    #[test]
    fn textlog_round_trip(records in prop::collection::vec(arb_record(), 0..50)) {
        let text = textlog::render(&records);
        let parsed = textlog::parse(&text).expect("renderer output parses");
        prop_assert_eq!(parsed, records);
    }

    /// Building connection sets is direction- and order-insensitive.
    #[test]
    fn connset_building_is_order_insensitive(
        records in prop::collection::vec(arb_record(), 0..60),
        seed in any::<u64>(),
    ) {
        use role_classification::flow::ConnsetBuilder;
        let mut b1 = ConnsetBuilder::new();
        b1.add_records(records.iter());
        let cs1 = b1.build();

        // Shuffle deterministically and reverse some directions.
        let mut shuffled = records.clone();
        let mut state = seed;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let flipped: Vec<FlowRecord> = shuffled
            .iter()
            .map(|r| if r.start_ms % 2 == 0 { r.reversed() } else { *r })
            .collect();
        let mut b2 = ConnsetBuilder::new();
        b2.add_records(flipped.iter());
        let cs2 = b2.build();
        prop_assert_eq!(cs1.edges(), cs2.edges());
    }
}
