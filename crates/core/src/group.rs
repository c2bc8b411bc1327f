//! Groups and groupings (partitionings of the host set).

use flow::HostAddr;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A stable identifier for a role group.
///
/// Ids are assigned by the grouping algorithm and rewritten by the
/// correlation algorithm so that the same logical role keeps the same id
/// across runs (Section 5).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GroupId(pub u32);

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::fmt::Debug for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One role group.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Group {
    /// Group identifier (`ID_G`).
    pub id: GroupId,
    /// The `K_G` label: the `k` at which the group's BCC formed, updated
    /// on merge to the minimum connection count of any member
    /// (Section 4.2).
    pub k: u32,
    /// Member hosts, sorted by address.
    pub members: Vec<HostAddr>,
}

impl Group {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` for an empty group (never produced by the
    /// algorithms).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Returns `true` if `h` is a member.
    pub fn contains(&self, h: HostAddr) -> bool {
        self.members.binary_search(&h).is_ok()
    }
}

/// A complete partitioning of the host set into role groups.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Grouping {
    groups: Vec<Group>,
    by_host: BTreeMap<HostAddr, GroupId>,
}

impl Grouping {
    /// Builds a grouping from groups.
    ///
    /// # Panics
    ///
    /// Panics if two groups share an id or a host appears in two groups —
    /// both would violate the partition invariant.
    pub fn new(mut groups: Vec<Group>) -> Self {
        groups.sort_by_key(|g| g.id);
        let mut by_host = BTreeMap::new();
        let mut seen_ids = std::collections::BTreeSet::new();
        for g in &mut groups {
            assert!(seen_ids.insert(g.id), "duplicate group id {:?}", g.id);
            g.members.sort_unstable();
            for &h in &g.members {
                let prev = by_host.insert(h, g.id);
                assert!(prev.is_none(), "host {h} appears in two groups");
            }
        }
        Grouping { groups, by_host }
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of hosts across all groups.
    pub fn host_count(&self) -> usize {
        self.by_host.len()
    }

    /// Returns `true` when there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// All groups, ordered by id.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Looks up a group by id.
    pub fn group(&self, id: GroupId) -> Option<&Group> {
        self.groups
            .binary_search_by_key(&id, |g| g.id)
            .ok()
            .map(|i| &self.groups[i])
    }

    /// The group a host belongs to, if any.
    pub fn group_of(&self, h: HostAddr) -> Option<GroupId> {
        self.by_host.get(&h).copied()
    }

    /// Iterates over `(host, group)` assignments in address order.
    pub fn assignments(&self) -> impl Iterator<Item = (HostAddr, GroupId)> + '_ {
        self.by_host.iter().map(|(&h, &g)| (h, g))
    }

    /// The `n` largest groups (by member count, ties by id).
    pub fn largest(&self, n: usize) -> Vec<&Group> {
        let mut refs: Vec<&Group> = self.groups.iter().collect();
        refs.sort_by(|a, b| b.len().cmp(&a.len()).then(a.id.cmp(&b.id)));
        refs.truncate(n);
        refs
    }

    /// Rewrites group ids via `map`, leaving ids without a mapping
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the rewrite produces duplicate ids.
    pub fn renumber(self, map: &BTreeMap<GroupId, GroupId>) -> Grouping {
        let groups = self
            .groups
            .into_iter()
            .map(|mut g| {
                if let Some(&new) = map.get(&g.id) {
                    g.id = new;
                }
                g
            })
            .collect();
        Grouping::new(groups)
    }

    /// The member lists alone, for metric computations.
    pub fn as_partition(&self) -> Vec<Vec<HostAddr>> {
        self.groups.iter().map(|g| g.members.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    fn grouping() -> Grouping {
        Grouping::new(vec![
            Group {
                id: GroupId(2),
                k: 3,
                members: vec![h(5), h(1)],
            },
            Group {
                id: GroupId(1),
                k: 1,
                members: vec![h(2), h(3), h(4)],
            },
        ])
    }

    #[test]
    fn construction_sorts_and_indexes() {
        let g = grouping();
        assert_eq!(g.group_count(), 2);
        assert_eq!(g.host_count(), 5);
        assert_eq!(g.group_of(h(5)), Some(GroupId(2)));
        assert_eq!(g.group_of(h(9)), None);
        assert_eq!(g.group(GroupId(1)).unwrap().members, vec![h(2), h(3), h(4)]);
        assert_eq!(g.groups()[0].id, GroupId(1)); // sorted by id
    }

    #[test]
    #[should_panic(expected = "appears in two groups")]
    fn overlapping_groups_rejected() {
        Grouping::new(vec![
            Group {
                id: GroupId(1),
                k: 1,
                members: vec![h(1)],
            },
            Group {
                id: GroupId(2),
                k: 1,
                members: vec![h(1)],
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "duplicate group id")]
    fn duplicate_ids_rejected() {
        Grouping::new(vec![
            Group {
                id: GroupId(1),
                k: 1,
                members: vec![h(1)],
            },
            Group {
                id: GroupId(1),
                k: 1,
                members: vec![h(2)],
            },
        ]);
    }

    #[test]
    fn largest_orders_by_size() {
        let g = grouping();
        let top = g.largest(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].id, GroupId(1));
    }

    #[test]
    fn renumber_rewrites_ids() {
        let g = grouping();
        let map: BTreeMap<GroupId, GroupId> = [(GroupId(1), GroupId(100))].into_iter().collect();
        let g2 = g.renumber(&map);
        assert_eq!(g2.group_of(h(2)), Some(GroupId(100)));
        assert_eq!(g2.group_of(h(5)), Some(GroupId(2)));
    }

    #[test]
    fn group_contains_uses_sorted_members() {
        let g = grouping();
        let grp = g.group(GroupId(2)).unwrap();
        assert!(grp.contains(h(1)));
        assert!(grp.contains(h(5)));
        assert!(!grp.contains(h(2)));
    }

    #[test]
    fn empty_grouping() {
        let g = Grouping::new(vec![]);
        assert!(g.is_empty());
        assert!(g.largest(3).is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let g = grouping();
        let json = serde_json::to_string(&g).unwrap();
        let back: Grouping = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
