//! Property-based tests of the flow substrate.

use flow::{Cidr, ConnsetBuilder, FlowRecord, HostAddr, HostId, HostTable, Proto, WindowedFlows};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = HostAddr> {
    any::<u32>().prop_map(HostAddr::v4)
}

/// Either family, so interning properties cover the full address space.
fn arb_any_addr() -> impl Strategy<Value = HostAddr> {
    (any::<bool>(), any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(v4, lo, hi1, hi2)| {
        if v4 {
            HostAddr::v4(lo)
        } else {
            HostAddr::v6(((hi1 as u128) << 64) | hi2 as u128)
        }
    })
}

fn arb_record() -> impl Strategy<Value = FlowRecord> {
    (arb_addr(), arb_addr(), 0u64..100_000).prop_map(|(src, dst, t)| {
        let mut f = FlowRecord::pair(src, dst);
        f.start_ms = t;
        f.end_ms = t + 10;
        f
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Address strings round-trip.
    #[test]
    fn addr_display_parse_round_trip(a in arb_addr()) {
        let s = a.to_string();
        let back: HostAddr = s.parse().expect("display output parses");
        prop_assert_eq!(a, back);
    }

    /// CIDR membership is equivalent to prefix equality.
    #[test]
    fn cidr_contains_matches_prefix(a in arb_addr(), b in arb_addr(), len in 0u8..=32) {
        let block = Cidr::new(a, len);
        let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
        prop_assert_eq!(
            block.contains(b),
            (a.as_u32() & mask) == (b.as_u32() & mask)
        );
    }

    /// Windowing places every in-range record in exactly one window,
    /// and that window contains its start time.
    #[test]
    fn windowing_is_a_partition_of_time(
        records in prop::collection::vec(arb_record(), 0..80),
        origin in 0u64..1000,
        window in 1u64..10_000,
    ) {
        let w = WindowedFlows::bucket(&records, origin, window);
        let bucketed: usize = w.windows.iter().map(|(_, v)| v.len()).sum();
        let in_range = records.iter().filter(|r| r.start_ms >= origin).count();
        prop_assert_eq!(bucketed, in_range);
        for (tw, recs) in &w.windows {
            for r in recs {
                prop_assert!(tw.contains(r.start_ms));
            }
        }
        // Windows tile time contiguously.
        for pair in w.windows.windows(2) {
            prop_assert_eq!(pair[0].0.end_ms, pair[1].0.start_ms);
        }
    }

    /// Connection-set similarity is symmetric and bounded by min degree.
    #[test]
    fn similarity_symmetry_and_bound(records in prop::collection::vec(arb_record(), 0..60)) {
        let mut b = ConnsetBuilder::new();
        b.add_records(records.iter());
        let cs = b.build();
        let hosts: Vec<HostAddr> = cs.hosts().take(12).collect();
        for &a in &hosts {
            for &bb in &hosts {
                let s1 = cs.similarity(a, bb);
                let s2 = cs.similarity(bb, a);
                prop_assert_eq!(s1, s2);
                let bound = cs.degree(a).unwrap_or(0).min(cs.degree(bb).unwrap_or(0));
                prop_assert!(s1 <= bound);
            }
        }
    }

    /// Proto conversion is a bijection on the u8 space.
    #[test]
    fn proto_u8_round_trip(p in any::<u8>()) {
        prop_assert_eq!(Proto::from_ip_proto(p).ip_proto(), p);
    }

    /// Interning round-trips arbitrary IPv4/IPv6 addresses: every id maps
    /// back to the address that produced it, ids are dense (0..n for n
    /// distinct addresses), and the id space matches the distinct count.
    #[test]
    fn interning_round_trips_and_is_dense(
        addrs in prop::collection::vec(arb_any_addr(), 0..120),
    ) {
        let mut table = HostTable::new();
        let ids: Vec<HostId> = addrs.iter().map(|&a| table.intern(a)).collect();
        for (&a, &id) in addrs.iter().zip(&ids) {
            prop_assert_eq!(table.addr(id), a);
            prop_assert_eq!(table.get(a), Some(id));
        }
        let distinct: std::collections::BTreeSet<HostAddr> = addrs.iter().copied().collect();
        prop_assert_eq!(table.len(), distinct.len());
        let mut seen: Vec<u32> = table.iter().map(|(id, _)| id.0).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..distinct.len() as u32).collect::<Vec<_>>());
    }

    /// Re-interning any permutation of already-known addresses returns the
    /// originally issued ids and allocates nothing.
    #[test]
    fn interning_is_stable_under_reinsertion(
        addrs in prop::collection::vec(arb_any_addr(), 1..80),
        salt in any::<u64>(),
    ) {
        let mut table = HostTable::new();
        let first: Vec<HostId> = addrs.iter().map(|&a| table.intern(a)).collect();
        let before = table.len();
        // Re-intern in a scrambled order.
        let mut shuffled: Vec<(HostAddr, HostId)> =
            addrs.iter().copied().zip(first.iter().copied()).collect();
        shuffled.sort_by_key(|(a, _)| {
            let mut x = match *a {
                HostAddr::V4(v) => v as u128,
                HostAddr::V6(v) => v,
            };
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left((salt % 128) as u32);
            x
        });
        for (a, id) in shuffled {
            prop_assert_eq!(table.intern(a), id);
        }
        prop_assert_eq!(table.len(), before);
    }

    /// Checkpoint serialization is safe: a serde round trip reproduces
    /// every issued id exactly.
    #[test]
    fn interning_survives_serialization(
        addrs in prop::collection::vec(arb_any_addr(), 0..80),
    ) {
        let mut table = HostTable::new();
        let ids: Vec<HostId> = addrs.iter().map(|&a| table.intern(a)).collect();
        let json = serde_json::to_string(&table).expect("tables serialize");
        let back: HostTable = serde_json::from_str(&json).expect("tables deserialize");
        prop_assert_eq!(back.len(), table.len());
        for (&a, &id) in addrs.iter().zip(&ids) {
            prop_assert_eq!(back.get(a), Some(id));
            prop_assert_eq!(back.addr(id), a);
        }
    }
}
