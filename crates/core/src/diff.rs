//! Partition difference reports.
//!
//! Property 4 of the paper (Section 1): the algorithms "respond to
//! non-transient changes in connection patterns by producing a new
//! partitioning and describing the differences between the new
//! partitioning and the previous partitioning". This module produces
//! that description for two groupings whose ids have already been
//! correlated (see [`crate::try_correlate()`][crate::correlate::try_correlate]).

use crate::group::{GroupId, Grouping};
use flow::HostAddr;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A host that changed group between runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostMove {
    /// The host.
    pub host: HostAddr,
    /// Its group in the previous run.
    pub from: GroupId,
    /// Its group in the current run.
    pub to: GroupId,
}

/// The differences between two (id-correlated) groupings.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct GroupingDiff {
    /// Hosts present only in the current grouping.
    pub added_hosts: Vec<(HostAddr, GroupId)>,
    /// Hosts present only in the previous grouping.
    pub removed_hosts: Vec<(HostAddr, GroupId)>,
    /// Hosts that switched groups.
    pub moved_hosts: Vec<HostMove>,
    /// Group ids that exist only in the current grouping.
    pub new_groups: Vec<GroupId>,
    /// Group ids that exist only in the previous grouping.
    pub deleted_groups: Vec<GroupId>,
    /// Group ids present in both runs with identical membership.
    pub unchanged_groups: Vec<GroupId>,
}

impl GroupingDiff {
    /// Returns `true` when the two groupings are identical.
    pub fn is_empty(&self) -> bool {
        self.added_hosts.is_empty()
            && self.removed_hosts.is_empty()
            && self.moved_hosts.is_empty()
            && self.new_groups.is_empty()
            && self.deleted_groups.is_empty()
    }

    /// Human-readable one-line-per-change summary, the form a network
    /// administrator would review.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (h, g) in &self.added_hosts {
            let _ = writeln!(out, "+ host {h} joined group {g}");
        }
        for (h, g) in &self.removed_hosts {
            let _ = writeln!(out, "- host {h} left group {g}");
        }
        for m in &self.moved_hosts {
            let _ = writeln!(out, "~ host {} moved {} -> {}", m.host, m.from, m.to);
        }
        for g in &self.new_groups {
            let _ = writeln!(out, "+ group {g} is new");
        }
        for g in &self.deleted_groups {
            let _ = writeln!(out, "- group {g} disappeared");
        }
        if self.is_empty() {
            out.push_str("(no changes)\n");
        }
        out
    }
}

/// Computes the difference between `prev` and `curr`.
///
/// Meaningful when `curr`'s ids were rewritten by
/// [`crate::apply_correlation`] first; without correlation every group
/// id is naturally reported as new/deleted.
pub fn diff_groupings(prev: &Grouping, curr: &Grouping) -> GroupingDiff {
    let prev_assign: BTreeMap<HostAddr, GroupId> = prev.assignments().collect();
    let curr_assign: BTreeMap<HostAddr, GroupId> = curr.assignments().collect();
    let mut diff = GroupingDiff::default();

    for (&h, &g) in &curr_assign {
        match prev_assign.get(&h) {
            None => diff.added_hosts.push((h, g)),
            Some(&pg) if pg != g => diff.moved_hosts.push(HostMove {
                host: h,
                from: pg,
                to: g,
            }),
            _ => {}
        }
    }
    for (&h, &g) in &prev_assign {
        if !curr_assign.contains_key(&h) {
            diff.removed_hosts.push((h, g));
        }
    }

    let prev_ids: BTreeSet<GroupId> = prev.groups().iter().map(|g| g.id).collect();
    let curr_ids: BTreeSet<GroupId> = curr.groups().iter().map(|g| g.id).collect();
    diff.new_groups = curr_ids.difference(&prev_ids).copied().collect();
    diff.deleted_groups = prev_ids.difference(&curr_ids).copied().collect();
    for &id in prev_ids.intersection(&curr_ids) {
        let same = prev.group(id).map(|g| &g.members) == curr.group(id).map(|g| &g.members);
        if same {
            diff.unchanged_groups.push(id);
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::Group;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    fn grouping(spec: &[(u32, &[u32])]) -> Grouping {
        Grouping::new(
            spec.iter()
                .map(|&(id, members)| Group {
                    id: GroupId(id),
                    k: 1,
                    members: members.iter().map(|&m| h(m)).collect(),
                })
                .collect(),
        )
    }

    #[test]
    fn identical_groupings_diff_empty() {
        let a = grouping(&[(1, &[1, 2]), (2, &[3])]);
        let d = diff_groupings(&a, &a.clone());
        assert!(d.is_empty());
        assert_eq!(d.unchanged_groups, vec![GroupId(1), GroupId(2)]);
        assert!(d.render().contains("no changes"));
    }

    #[test]
    fn detects_moves_adds_removes() {
        let prev = grouping(&[(1, &[1, 2]), (2, &[3])]);
        let curr = grouping(&[(1, &[1]), (2, &[3, 2]), (5, &[9])]);
        let d = diff_groupings(&prev, &curr);
        assert_eq!(
            d.moved_hosts,
            vec![HostMove {
                host: h(2),
                from: GroupId(1),
                to: GroupId(2)
            }]
        );
        assert_eq!(d.added_hosts, vec![(h(9), GroupId(5))]);
        assert!(d.removed_hosts.is_empty());
        assert_eq!(d.new_groups, vec![GroupId(5)]);
        assert!(d.deleted_groups.is_empty());
        let text = d.render();
        assert!(text.contains("moved 1 -> 2"));
        assert!(text.contains("group 5 is new"));
    }

    #[test]
    fn detects_deleted_groups_and_removed_hosts() {
        let prev = grouping(&[(1, &[1, 2]), (2, &[3])]);
        let curr = grouping(&[(1, &[1, 2])]);
        let d = diff_groupings(&prev, &curr);
        assert_eq!(d.removed_hosts, vec![(h(3), GroupId(2))]);
        assert_eq!(d.deleted_groups, vec![GroupId(2)]);
        assert_eq!(d.unchanged_groups, vec![GroupId(1)]);
    }
}
