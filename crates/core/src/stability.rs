//! Cross-window role-stability scoring: persistence, membership
//! backbone, and per-host churn.
//!
//! The correlation algorithm (Section 5) exists so that a logical role
//! keeps a stable group id across windows. This module measures how well
//! that promise holds, in the vocabulary of the clustering-stability
//! literature:
//!
//! * **persistence** — the number of consecutive windows a published
//!   group id has survived (1 for a freshly minted group);
//! * **membership backbone** — the fraction of a group's previous-window
//!   members still present this window (`|prev ∩ curr| / |prev|`), the
//!   window-over-window analogue of the "backbone" of a recurring
//!   cluster. A fresh group has no previous membership and scores 1.0;
//! * **per-host churn** — how many times a host's published group id
//!   flipped across its recent assignments, over a bounded sliding
//!   horizon.
//!
//! The [`StabilityTracker`] consumes one *published* [`Grouping`] per
//! window (ids already rewritten by
//! [`apply_correlation`](crate::correlate::apply_correlation)) and
//! returns a [`WindowStability`] row. Everything is computed from
//! set cardinalities over `BTree` collections, so results are
//! deterministic, independent of worker count, and invariant under
//! host-address relabeling (scores depend only on the partition
//! structure, never on address values) — the `stability_properties`
//! integration test pins both. The tracker holds no clock, no
//! randomness, and no recorder: attached and detached pipelines run the
//! identical code path.
//!
//! The aggregator feeds every row into its
//! [`TimeseriesRing`](telemetry::TimeseriesRing), publishes the
//! `roleclass_stability_*` metrics declared here, and raises
//! `AlertKind::RoleChurn` when a persistent group's backbone collapses.

use crate::group::{GroupId, Grouping};
use flow::HostAddr;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Every `roleclass_stability_*` metric the aggregator publishes, sorted.
/// Registered by the aggregator's cycle loop; declared here next to the
/// math so the workspace `metric_names` lint covers the layer.
pub const STABILITY_METRIC_NAMES: &[&str] = &[
    "roleclass_stability_backbone_mean",
    "roleclass_stability_backbone_min",
    "roleclass_stability_backbone_score",
    "roleclass_stability_churned_hosts",
    "roleclass_stability_groups_new",
    "roleclass_stability_groups_retired",
    "roleclass_stability_groups_tracked",
    "roleclass_stability_hosts",
    "roleclass_stability_persistence_windows",
    "roleclass_stability_role_churn_alerts_total",
    "roleclass_stability_update_seconds",
    "roleclass_stability_windows_total",
];

/// Every stability event name, sorted. Emitted by the aggregator under
/// the `stability` journal layer, dual-journaled to the flight recorder.
pub const STABILITY_EVENT_NAMES: &[&str] = &[
    "roleclass_stability_group_scored",
    "roleclass_stability_window_scored",
];

/// Default sliding horizon (in observed windows) for per-host churn.
pub const DEFAULT_CHURN_HORIZON: usize = 8;

/// Stability scores for one group in one window.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GroupStability {
    /// The published group id.
    pub group: GroupId,
    /// Consecutive windows this id has been published, including this
    /// one. 1 means freshly minted.
    pub persistence: u64,
    /// Member count this window.
    pub members: usize,
    /// Members shared with the previous window (`|prev ∩ curr|`).
    /// For a fresh group this equals `members`.
    pub retained: usize,
    /// Member count in the previous window; 0 for a fresh group.
    pub prev_members: usize,
    /// `retained / prev_members` — the membership backbone. 1.0 for a
    /// fresh group (no previous membership to lose).
    pub backbone: f64,
}

/// Per-host churn over the tracker's sliding horizon.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HostChurn {
    /// The host.
    pub host: HostAddr,
    /// Group-id flips between consecutive observed assignments within
    /// the horizon.
    pub flips: u32,
    /// Observed assignments retained in the horizon (windows where the
    /// host was absent do not count).
    pub windows: usize,
    /// The host's most recent published group id.
    pub group: GroupId,
}

/// One window's stability row — what the aggregator journals, serves on
/// `/stability`, and feeds to the timeseries ring.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowStability {
    /// Tracker window index (0-based observation count).
    pub window: u64,
    /// Hosts assigned this window.
    pub hosts: usize,
    /// Hosts whose published group id differs from their previous
    /// observed assignment.
    pub churned_hosts: usize,
    /// Group ids published this window but not the previous one.
    pub new_groups: usize,
    /// Group ids published the previous window but not this one.
    pub retired_groups: usize,
    /// Minimum backbone over surviving groups (persistence ≥ 2);
    /// 1.0 when no group survived into this window.
    pub backbone_min: f64,
    /// Mean backbone over surviving groups; 1.0 when none survived.
    pub backbone_mean: f64,
    /// Per-group scores, sorted by group id.
    pub groups: Vec<GroupStability>,
}

/// Tracks published groupings window over window and scores stability.
///
/// ```
/// use roleclass::stability::StabilityTracker;
/// use roleclass::{try_classify, Params};
/// use flow::{ConnectionSets, HostAddr};
///
/// let mut cs = ConnectionSets::new();
/// for ws in [10u32, 11] {
///     for srv in [1u32, 2] {
///         cs.add_pair(HostAddr::v4(ws), HostAddr::v4(srv));
///     }
/// }
/// let grouping = try_classify(&cs, &Params::default()).unwrap().grouping;
/// let mut tracker = StabilityTracker::default();
/// let first = tracker.observe(&grouping);
/// assert_eq!(first.window, 0);
/// let second = tracker.observe(&grouping);
/// // An unchanged partition is perfectly stable.
/// assert!(second.groups.iter().all(|g| g.backbone == 1.0 && g.persistence == 2));
/// assert_eq!(second.churned_hosts, 0);
/// ```
#[derive(Clone, Debug)]
pub struct StabilityTracker {
    horizon: usize,
    next_window: u64,
    prev: BTreeMap<GroupId, BTreeSet<HostAddr>>,
    persistence: BTreeMap<GroupId, u64>,
    assignments: BTreeMap<HostAddr, VecDeque<GroupId>>,
}

impl Default for StabilityTracker {
    fn default() -> Self {
        StabilityTracker::new(DEFAULT_CHURN_HORIZON)
    }
}

impl StabilityTracker {
    /// A tracker with a per-host churn horizon of `horizon` observed
    /// assignments (min 2 — churn needs at least one consecutive pair).
    pub fn new(horizon: usize) -> Self {
        StabilityTracker {
            horizon: horizon.max(2),
            next_window: 0,
            prev: BTreeMap::new(),
            persistence: BTreeMap::new(),
            assignments: BTreeMap::new(),
        }
    }

    /// The configured churn horizon.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Scores one published grouping against the previous window and
    /// advances the tracker state.
    pub fn observe(&mut self, grouping: &Grouping) -> WindowStability {
        let window = self.next_window;
        self.next_window += 1;

        let curr: BTreeMap<GroupId, BTreeSet<HostAddr>> = grouping
            .groups()
            .iter()
            .map(|g| (g.id, g.members.iter().copied().collect()))
            .collect();

        let mut groups = Vec::with_capacity(curr.len());
        let mut new_groups = 0usize;
        for (id, members) in &curr {
            match self.prev.get(id) {
                Some(prev_members) if !prev_members.is_empty() => {
                    let retained = members.intersection(prev_members).count();
                    groups.push(GroupStability {
                        group: *id,
                        persistence: self.persistence.get(id).copied().unwrap_or(0) + 1,
                        members: members.len(),
                        retained,
                        prev_members: prev_members.len(),
                        backbone: retained as f64 / prev_members.len() as f64,
                    });
                }
                _ => {
                    new_groups += 1;
                    groups.push(GroupStability {
                        group: *id,
                        persistence: 1,
                        members: members.len(),
                        retained: members.len(),
                        prev_members: 0,
                        backbone: 1.0,
                    });
                }
            }
        }
        let retired_groups = self.prev.keys().filter(|id| !curr.contains_key(id)).count();
        self.persistence = groups.iter().map(|g| (g.group, g.persistence)).collect();

        let mut churned_hosts = 0usize;
        for (host, gid) in grouping.assignments() {
            let history = self.assignments.entry(host).or_default();
            if history.back().is_some_and(|last| *last != gid) {
                churned_hosts += 1;
            }
            history.push_back(gid);
            while history.len() > self.horizon {
                history.pop_front();
            }
        }

        let surviving: Vec<f64> = groups
            .iter()
            .filter(|g| g.persistence >= 2)
            .map(|g| g.backbone)
            .collect();
        let (backbone_min, backbone_mean) = if surviving.is_empty() {
            (1.0, 1.0)
        } else {
            (
                surviving.iter().copied().fold(f64::INFINITY, f64::min),
                surviving.iter().sum::<f64>() / surviving.len() as f64,
            )
        };

        self.prev = curr;
        WindowStability {
            window,
            hosts: grouping.host_count(),
            churned_hosts,
            new_groups,
            retired_groups,
            backbone_min,
            backbone_mean,
            groups,
        }
    }

    /// Churn for one host, if it has ever been assigned.
    pub fn host_churn(&self, host: HostAddr) -> Option<HostChurn> {
        self.assignments.get(&host).map(|history| HostChurn {
            host,
            flips: flips(history),
            windows: history.len(),
            group: *history.back().expect("assignment history is never empty"),
        })
    }

    /// Churn for every host ever assigned, most churned first (ties
    /// broken by address for determinism).
    pub fn churn_table(&self) -> Vec<HostChurn> {
        let mut table: Vec<HostChurn> = self
            .assignments
            .keys()
            .map(|h| self.host_churn(*h).expect("key exists"))
            .collect();
        table.sort_by(|a, b| b.flips.cmp(&a.flips).then(a.host.cmp(&b.host)));
        table
    }
}

fn flips(history: &VecDeque<GroupId>) -> u32 {
    let mut n = 0u32;
    let mut it = history.iter();
    if let Some(mut last) = it.next() {
        for g in it {
            if g != last {
                n += 1;
            }
            last = g;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::Group;

    fn grouping(spec: &[(u32, &[u32])]) -> Grouping {
        Grouping::new(
            spec.iter()
                .map(|(id, members)| Group {
                    id: GroupId(*id),
                    k: 1,
                    members: members.iter().map(|m| HostAddr::v4(*m)).collect(),
                })
                .collect(),
        )
    }

    #[test]
    fn first_window_is_all_fresh() {
        let mut t = StabilityTracker::default();
        let ws = t.observe(&grouping(&[(1, &[10, 11]), (2, &[20, 21, 22])]));
        assert_eq!(ws.window, 0);
        assert_eq!(ws.hosts, 5);
        assert_eq!(ws.new_groups, 2);
        assert_eq!(ws.retired_groups, 0);
        assert_eq!(ws.churned_hosts, 0);
        assert_eq!(ws.backbone_min, 1.0);
        assert!(ws.groups.iter().all(|g| g.persistence == 1));
    }

    #[test]
    fn persistence_counts_consecutive_windows() {
        let mut t = StabilityTracker::default();
        t.observe(&grouping(&[(1, &[10, 11])]));
        t.observe(&grouping(&[(1, &[10, 11])]));
        let ws = t.observe(&grouping(&[(1, &[10, 11])]));
        assert_eq!(ws.groups[0].persistence, 3);
        // A retired id restarts at 1 if it ever comes back.
        t.observe(&grouping(&[(2, &[10, 11])]));
        let ws = t.observe(&grouping(&[(1, &[10, 11])]));
        assert_eq!(ws.groups[0].persistence, 1);
    }

    #[test]
    fn backbone_is_fraction_of_previous_members_retained() {
        let mut t = StabilityTracker::default();
        t.observe(&grouping(&[(1, &[10, 11, 12, 13])]));
        let ws = t.observe(&grouping(&[(1, &[10, 11, 14])]));
        let g = &ws.groups[0];
        assert_eq!(g.retained, 2);
        assert_eq!(g.prev_members, 4);
        assert_eq!(g.backbone, 0.5);
        assert_eq!(ws.backbone_min, 0.5);
        assert_eq!(ws.backbone_mean, 0.5);
    }

    #[test]
    fn fresh_groups_do_not_dilute_backbone_aggregates() {
        let mut t = StabilityTracker::default();
        t.observe(&grouping(&[(1, &[10, 11, 12, 13])]));
        let ws = t.observe(&grouping(&[(1, &[10]), (9, &[50, 51])]));
        // Only the surviving group (id 1, backbone 0.25) aggregates.
        assert_eq!(ws.backbone_min, 0.25);
        assert_eq!(ws.backbone_mean, 0.25);
        assert_eq!(ws.new_groups, 1);
    }

    #[test]
    fn churn_counts_flips_over_bounded_horizon() {
        let mut t = StabilityTracker::new(3);
        let a = grouping(&[(1, &[10]), (2, &[20])]);
        let b = grouping(&[(1, &[20]), (2, &[10])]);
        let ws = t.observe(&a);
        assert_eq!(ws.churned_hosts, 0);
        let ws = t.observe(&b);
        assert_eq!(ws.churned_hosts, 2);
        t.observe(&a);
        t.observe(&a);
        let churn = t.host_churn(HostAddr::v4(10)).unwrap();
        // Horizon 3 keeps [2, 1, 1]: one flip, not the full lifetime's 2.
        assert_eq!(churn.windows, 3);
        assert_eq!(churn.flips, 1);
        assert_eq!(churn.group, GroupId(1));
        assert!(t.host_churn(HostAddr::v4(99)).is_none());
    }

    #[test]
    fn churn_table_sorts_most_churned_first() {
        let mut t = StabilityTracker::default();
        t.observe(&grouping(&[(1, &[10, 11])]));
        t.observe(&grouping(&[(1, &[10]), (2, &[11])]));
        let table = t.churn_table();
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].host, HostAddr::v4(11));
        assert_eq!(table[0].flips, 1);
        assert_eq!(table[1].flips, 0);
    }

    #[test]
    fn absent_windows_do_not_count_as_flips() {
        let mut t = StabilityTracker::default();
        t.observe(&grouping(&[(1, &[10, 11])]));
        t.observe(&grouping(&[(1, &[11])])); // host 10 absent
        let ws = t.observe(&grouping(&[(1, &[10, 11])]));
        // Host 10 returned to the same group: no churn.
        assert_eq!(ws.churned_hosts, 0);
        assert_eq!(t.host_churn(HostAddr::v4(10)).unwrap().windows, 2);
    }

    #[test]
    fn name_lists_are_sorted_and_prefixed() {
        for list in [STABILITY_METRIC_NAMES, STABILITY_EVENT_NAMES] {
            let mut sorted = list.to_vec();
            sorted.sort_unstable();
            assert_eq!(list, &sorted[..]);
            assert!(list.iter().all(|n| n.starts_with("roleclass_stability_")));
        }
    }
}
