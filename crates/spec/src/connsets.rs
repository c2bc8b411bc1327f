//! The map-based connection sets.
//!
//! This is the original `BTreeMap<HostAddr, BTreeSet<HostAddr>>`
//! implementation of [`flow::ConnectionSets`], kept so the dense
//! columnar data plane has a simple, obviously-correct twin to be pinned
//! against. Parity tests build both representations from identical
//! inputs and assert accessor-by-accessor agreement.
//!
//! This file is the one place outside the report-boundary types allowed
//! to key containers by `HostAddr`: `scripts/ci.sh` lints new
//! `BTreeMap<HostAddr` / `BTreeSet<HostAddr>` usage elsewhere.

use flow::{HostAddr, PairStats};
use std::collections::{BTreeMap, BTreeSet};

/// The connection sets of a host population, map-based.
///
/// See [`flow::ConnectionSets`] for the production representation and
/// the semantics both implementations share.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConnectionSets {
    sets: BTreeMap<HostAddr, BTreeSet<HostAddr>>,
    pairs: BTreeMap<(HostAddr, HostAddr), PairStats>,
    initiated: BTreeMap<HostAddr, u64>,
    accepted: BTreeMap<HostAddr, u64>,
}

impl ConnectionSets {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures `h` is present (with a possibly empty neighbor set).
    pub fn add_host(&mut self, h: HostAddr) {
        self.sets.entry(h).or_default();
    }

    /// Records an undirected connection between `a` and `b`, accumulating
    /// `stats` onto the pair. Self-pairs are ignored.
    pub fn add_connection(&mut self, a: HostAddr, b: HostAddr, stats: PairStats) {
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.sets.entry(lo).or_default().insert(hi);
        self.sets.entry(hi).or_default().insert(lo);
        let e = self.pairs.entry((lo, hi)).or_default();
        e.flows += stats.flows;
        e.packets += stats.packets;
        e.bytes += stats.bytes;
    }

    /// Records a plain connection with unit flow stats.
    pub fn add_pair(&mut self, a: HostAddr, b: HostAddr) {
        self.add_connection(
            a,
            b,
            PairStats {
                flows: 1,
                packets: 1,
                bytes: 64,
            },
        );
    }

    /// Number of hosts (`|I|`).
    pub fn host_count(&self) -> usize {
        self.sets.len()
    }

    /// Number of undirected connections (host pairs).
    pub fn connection_count(&self) -> usize {
        self.pairs.len()
    }

    /// Returns `true` if no hosts are present.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Returns `true` if `h` is a known host.
    pub fn contains(&self, h: HostAddr) -> bool {
        self.sets.contains_key(&h)
    }

    /// Iterates over all hosts in address order.
    pub fn hosts(&self) -> impl Iterator<Item = HostAddr> + '_ {
        self.sets.keys().copied()
    }

    /// The connection set `C(h)`, or `None` if `h` is unknown.
    pub fn neighbors(&self, h: HostAddr) -> Option<&BTreeSet<HostAddr>> {
        self.sets.get(&h)
    }

    /// `|C(h)|`, or `None` if `h` is unknown.
    pub fn degree(&self, h: HostAddr) -> Option<usize> {
        self.sets.get(&h).map(BTreeSet::len)
    }

    /// Returns `true` if `a` and `b` are connected.
    pub fn connected(&self, a: HostAddr, b: HostAddr) -> bool {
        self.pair_stats(a, b).is_some()
    }

    /// Traffic totals between `a` and `b`, if connected.
    pub fn pair_stats(&self, a: HostAddr, b: HostAddr) -> Option<PairStats> {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.pairs.get(&(lo, hi)).copied()
    }

    /// Iterates over all undirected pairs with their stats, in order.
    pub fn pairs(&self) -> impl Iterator<Item = ((HostAddr, HostAddr), PairStats)> + '_ {
        self.pairs.iter().map(|(&k, &v)| (k, v))
    }

    /// Collects the undirected edge list.
    pub fn edges(&self) -> Vec<(HostAddr, HostAddr)> {
        self.pairs.keys().copied().collect()
    }

    /// The number of common neighbors `|C(a) ∩ C(b)|`.
    pub fn similarity(&self, a: HostAddr, b: HostAddr) -> usize {
        match (self.sets.get(&a), self.sets.get(&b)) {
            (Some(ca), Some(cb)) => ca.intersection(cb).count(),
            _ => 0,
        }
    }

    /// Removes host `h` and all its connections. Returns `true` if the
    /// host existed.
    pub fn remove_host(&mut self, h: HostAddr) -> bool {
        let Some(nbrs) = self.sets.remove(&h) else {
            return false;
        };
        for n in nbrs {
            if let Some(set) = self.sets.get_mut(&n) {
                set.remove(&h);
            }
            let (lo, hi) = if h < n { (h, n) } else { (n, h) };
            self.pairs.remove(&(lo, hi));
        }
        true
    }

    /// Restricts the host population to `keep`, dropping all other hosts
    /// and their connections.
    pub fn retain_hosts(&mut self, keep: &BTreeSet<HostAddr>) {
        let to_remove: Vec<HostAddr> = self.hosts().filter(|h| !keep.contains(h)).collect();
        for h in to_remove {
            self.remove_host(h);
        }
    }

    /// Hosts present here but not in `other`.
    pub fn hosts_not_in(&self, other: &ConnectionSets) -> BTreeSet<HostAddr> {
        self.hosts().filter(|h| !other.contains(*h)).collect()
    }

    /// Maximum connection-set size over all hosts, or 0 when empty.
    pub fn max_degree(&self) -> usize {
        self.sets.values().map(BTreeSet::len).max().unwrap_or(0)
    }

    /// Records directional flow counts for a host.
    pub fn add_direction_counts(&mut self, h: HostAddr, initiated: u64, accepted: u64) {
        if initiated > 0 {
            *self.initiated.entry(h).or_insert(0) += initiated;
        }
        if accepted > 0 {
            *self.accepted.entry(h).or_insert(0) += accepted;
        }
    }

    /// Number of flows this host initiated.
    pub fn initiated_flows(&self, h: HostAddr) -> u64 {
        self.initiated.get(&h).copied().unwrap_or(0)
    }

    /// Number of flows this host accepted.
    pub fn accepted_flows(&self, h: HostAddr) -> u64 {
        self.accepted.get(&h).copied().unwrap_or(0)
    }

    /// Fraction of this host's flows that it accepted, in `[0, 1]`, or
    /// `None` when no directional data was recorded.
    pub fn server_ratio(&self, h: HostAddr) -> Option<f64> {
        let i = self.initiated_flows(h);
        let a = self.accepted_flows(h);
        if i + a == 0 {
            None
        } else {
            Some(a as f64 / (i + a) as f64)
        }
    }

    /// Every host with directional counts, in address order.
    fn direction_hosts(&self) -> BTreeSet<HostAddr> {
        self.initiated
            .keys()
            .chain(self.accepted.keys())
            .copied()
            .collect()
    }
}

/// Rebuilds `cs` as the map-based spec, through `flow`'s public
/// accessors only, so the two representations share their logical
/// content and nothing of their construction path.
pub fn to_reference(cs: &flow::ConnectionSets) -> ConnectionSets {
    let mut out = ConnectionSets::new();
    for h in cs.hosts() {
        out.add_host(h);
        out.add_direction_counts(h, cs.initiated_flows(h), cs.accepted_flows(h));
    }
    for ((a, b), stats) in cs.pairs() {
        out.add_connection(a, b, stats);
    }
    out
}

/// Builds the columnar [`flow::ConnectionSets`] holding the content of
/// `r`, through `flow`'s public mutators only. Hosts and pairs go in
/// ascending order, so every insertion lands at the end of its column.
pub fn from_reference(r: &ConnectionSets) -> flow::ConnectionSets {
    let mut out = flow::ConnectionSets::new();
    for h in r.hosts() {
        out.add_host(h);
    }
    for ((a, b), stats) in r.pairs() {
        out.add_connection(a, b, stats);
    }
    for h in r.direction_hosts() {
        out.add_direction_counts(h, r.initiated_flows(h), r.accepted_flows(h));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    #[test]
    fn spec_basics_still_hold() {
        let mut cs = ConnectionSets::new();
        cs.add_pair(h(1), h(2));
        cs.add_pair(h(2), h(1));
        assert!(cs.connected(h(1), h(2)));
        assert_eq!(cs.pair_stats(h(1), h(2)).unwrap().flows, 2);
        assert_eq!(cs.degree(h(1)), Some(1));
        assert_eq!(cs.host_count(), 2);
    }

    #[test]
    fn direction_counts_merge_both_maps() {
        let mut cs = ConnectionSets::new();
        cs.add_direction_counts(h(1), 3, 0);
        cs.add_direction_counts(h(2), 0, 5);
        cs.add_direction_counts(h(1), 0, 1);
        assert_eq!(
            cs.direction_hosts().into_iter().collect::<Vec<_>>(),
            [h(1), h(2)]
        );
        assert_eq!((cs.initiated_flows(h(1)), cs.accepted_flows(h(1))), (3, 1));
        assert_eq!(cs.server_ratio(h(2)), Some(1.0));
    }

    #[test]
    fn reference_round_trip_is_lossless() {
        let mut cs = flow::ConnectionSets::new();
        cs.add_pair(h(1), h(2));
        cs.add_pair(h(2), h(3));
        cs.add_host(h(8));
        cs.add_direction_counts(h(1), 4, 1);
        let r = to_reference(&cs);
        assert_eq!(r.degree(h(2)), Some(2));
        assert_eq!(from_reference(&r), cs);
    }
}
