//! Long-period connection profiling.
//!
//! Property 3 of the paper (Section 1): the algorithms "deal with
//! transient changes in connection patterns by analyzing the profiled
//! data over long periods". A one-off connection (a stray scan, a
//! mistyped address) should not define a host's role. The
//! [`ProfileBuilder`] accumulates per-window connection sets and emits a
//! *stable profile*: the connections seen in at least `min_windows` of
//! the last `horizon` windows.

use flow::{ConnectionSets, HostAddr, PairStats};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Sliding-window connection profiler.
#[derive(Clone, Debug)]
pub struct ProfileBuilder {
    horizon: usize,
    min_windows: usize,
    windows: VecDeque<ConnectionSets>,
}

impl ProfileBuilder {
    /// Creates a profiler over the last `horizon` windows requiring each
    /// connection to appear in at least `min_windows` of them.
    ///
    /// # Panics
    ///
    /// Panics if `horizon == 0` or `min_windows` is 0 or exceeds
    /// `horizon`.
    pub fn new(horizon: usize, min_windows: usize) -> Self {
        assert!(horizon > 0, "horizon must be positive");
        assert!(
            (1..=horizon).contains(&min_windows),
            "min_windows must be in 1..=horizon"
        );
        ProfileBuilder {
            horizon,
            min_windows,
            windows: VecDeque::new(),
        }
    }

    /// Pushes the connection sets observed in the next window, evicting
    /// the oldest window beyond the horizon.
    pub fn push_window(&mut self, cs: ConnectionSets) {
        self.windows.push_back(cs);
        while self.windows.len() > self.horizon {
            self.windows.pop_front();
        }
    }

    /// Builds the stable profile over the held windows.
    ///
    /// Hosts seen in *any* window are part of the population; pairs must
    /// recur in `min_windows` windows. Pair stats are summed over the
    /// windows that contained the pair.
    pub fn profile(&self) -> ConnectionSets {
        let mut out = ConnectionSets::new();
        let mut hosts: BTreeSet<HostAddr> = BTreeSet::new();
        let mut counts: BTreeMap<(HostAddr, HostAddr), (usize, PairStats)> = BTreeMap::new();
        for w in &self.windows {
            hosts.extend(w.hosts());
            for (pair, stats) in w.pairs() {
                let e = counts.entry(pair).or_insert((0, PairStats::default()));
                e.0 += 1;
                e.1.flows += stats.flows;
                e.1.packets += stats.packets;
                e.1.bytes += stats.bytes;
            }
        }
        for h in hosts {
            out.add_host(h);
        }
        for ((a, b), (seen, stats)) in counts {
            if seen >= self.min_windows {
                out.add_connection(a, b, stats);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    fn window(pairs: &[(u32, u32)]) -> ConnectionSets {
        let mut cs = ConnectionSets::new();
        for &(a, b) in pairs {
            cs.add_pair(h(a), h(b));
        }
        cs
    }

    #[test]
    fn transient_connections_filtered() {
        let mut p = ProfileBuilder::new(3, 2);
        p.push_window(window(&[(1, 2), (9, 10)])); // (9,10) is one-off
        p.push_window(window(&[(1, 2)]));
        p.push_window(window(&[(1, 2), (3, 4)]));
        let profile = p.profile();
        assert!(profile.connected(h(1), h(2)));
        assert!(!profile.connected(h(9), h(10)));
        assert!(!profile.connected(h(3), h(4)));
        // One-off hosts stay in the population with empty sets.
        assert!(profile.contains(h(9)));
        assert_eq!(profile.degree(h(9)), Some(0));
    }

    #[test]
    fn horizon_evicts_old_windows() {
        let mut p = ProfileBuilder::new(2, 2);
        p.push_window(window(&[(1, 2)]));
        p.push_window(window(&[(1, 2)]));
        assert!(p.profile().connected(h(1), h(2)));
        // Two new windows without the pair push it out entirely.
        p.push_window(window(&[(5, 6)]));
        p.push_window(window(&[(5, 6)]));
        let profile = p.profile();
        assert!(!profile.connected(h(1), h(2)));
        assert!(profile.connected(h(5), h(6)));
    }

    #[test]
    fn stats_sum_over_windows() {
        let mut p = ProfileBuilder::new(3, 1);
        p.push_window(window(&[(1, 2)]));
        p.push_window(window(&[(1, 2)]));
        let profile = p.profile();
        assert_eq!(profile.pair_stats(h(1), h(2)).unwrap().flows, 2);
    }

    #[test]
    fn min_windows_one_is_union() {
        let mut p = ProfileBuilder::new(4, 1);
        p.push_window(window(&[(1, 2)]));
        p.push_window(window(&[(3, 4)]));
        let profile = p.profile();
        assert!(profile.connected(h(1), h(2)));
        assert!(profile.connected(h(3), h(4)));
    }

    #[test]
    #[should_panic(expected = "min_windows")]
    fn invalid_thresholds_rejected() {
        ProfileBuilder::new(2, 3);
    }

    #[test]
    fn empty_profiler_yields_empty_profile() {
        let p = ProfileBuilder::new(3, 1);
        assert!(p.profile().is_empty());
    }
}
