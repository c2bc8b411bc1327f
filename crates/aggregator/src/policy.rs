//! Group-level communication policies.
//!
//! "The system allows a network manager to ... set policies per group"
//! and "decides whether a host's behavior matches the expected policy
//! setting, partly based on the history of the host's group membership"
//! (Section 2). A policy here constrains which group pairs may
//! communicate; the engine evaluates observed flows against the current
//! grouping and label store and emits verdicts.

use crate::labels::LabelStore;
use flow::FlowRecord;
use roleclass::{GroupId, Grouping};
use serde::{Deserialize, Serialize};

/// Selects a set of groups.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Selector {
    /// A specific group id.
    Id(GroupId),
    /// Every group whose label equals this string.
    Label(String),
    /// Every group.
    Any,
}

impl Selector {
    /// Returns `true` if the selector covers `id` under `labels`.
    pub fn matches(&self, id: GroupId, labels: &LabelStore) -> bool {
        match self {
            Selector::Id(sel) => *sel == id,
            Selector::Label(l) => labels.get(id) == Some(l.as_str()),
            Selector::Any => true,
        }
    }
}

/// A group-level communication policy.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// Communication between the two selected group sets is forbidden
    /// (in either direction).
    Forbid {
        /// Policy name, used in verdicts.
        name: String,
        /// One side.
        from: Selector,
        /// Other side.
        to: Selector,
    },
    /// Communication is allowed *only* between `from` and `to`; any flow
    /// involving a `from` group member to a group outside `to` violates.
    AllowOnly {
        /// Policy name.
        name: String,
        /// The constrained group set.
        from: Selector,
        /// The permitted peer set.
        to: Selector,
    },
}

impl Policy {
    /// The policy's name.
    pub fn name(&self) -> &str {
        match self {
            Policy::Forbid { name, .. } | Policy::AllowOnly { name, .. } => name,
        }
    }
}

/// Outcome of evaluating one flow against one policy.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyVerdict {
    /// The violated policy's name.
    pub policy: String,
    /// The offending flow's source and destination groups.
    pub src_group: GroupId,
    /// Destination group.
    pub dst_group: GroupId,
    /// The flow (for forensics).
    pub flow: FlowRecord,
}

/// Evaluates policies over flows, given the current grouping and labels.
#[derive(Clone, Debug, Default)]
pub struct PolicyEngine {
    policies: Vec<Policy>,
}

impl PolicyEngine {
    /// Creates an engine with no policies.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a policy.
    pub fn add(&mut self, p: Policy) -> &mut Self {
        self.policies.push(p);
        self
    }

    /// Number of installed policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// Returns `true` with no policies installed.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// Checks one flow; returns every violated policy.
    ///
    /// Flows whose endpoints are not in the grouping produce no
    /// verdicts — ungrouped hosts are the anomaly detector's business
    /// (see [`crate::alerts`]), not the policy engine's.
    pub fn check(
        &self,
        grouping: &Grouping,
        labels: &LabelStore,
        flow: &FlowRecord,
    ) -> Vec<PolicyVerdict> {
        let (Some(sg), Some(dg)) = (grouping.group_of(flow.src), grouping.group_of(flow.dst))
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for p in &self.policies {
            let violated = match p {
                Policy::Forbid { from, to, .. } => {
                    (from.matches(sg, labels) && to.matches(dg, labels))
                        || (from.matches(dg, labels) && to.matches(sg, labels))
                }
                Policy::AllowOnly { from, to, .. } => {
                    let src_constrained = from.matches(sg, labels);
                    let dst_constrained = from.matches(dg, labels);
                    (src_constrained && !to.matches(dg, labels) && sg != dg)
                        || (dst_constrained && !to.matches(sg, labels) && sg != dg)
                }
            };
            if violated {
                out.push(PolicyVerdict {
                    policy: p.name().to_string(),
                    src_group: sg,
                    dst_group: dg,
                    flow: *flow,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow::HostAddr;
    use roleclass::Group;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    /// Groups: 1 = eng {11, 12}, 2 = sales-db {3}, 3 = mail {1}.
    fn setup() -> (Grouping, LabelStore) {
        let grouping = Grouping::new(vec![
            Group {
                id: GroupId(1),
                k: 3,
                members: vec![h(11), h(12)],
            },
            Group {
                id: GroupId(2),
                k: 1,
                members: vec![h(3)],
            },
            Group {
                id: GroupId(3),
                k: 1,
                members: vec![h(1)],
            },
        ]);
        let mut labels = LabelStore::new();
        labels.set(GroupId(1), "eng");
        labels.set(GroupId(2), "sales-db");
        labels.set(GroupId(3), "mail");
        (grouping, labels)
    }

    #[test]
    fn forbid_matches_both_directions() {
        let (grouping, labels) = setup();
        let mut engine = PolicyEngine::new();
        engine.add(Policy::Forbid {
            name: "eng-no-salesdb".into(),
            from: Selector::Label("eng".into()),
            to: Selector::Label("sales-db".into()),
        });
        // The paper's example alarm: an eng host opening a connection to
        // the SalesDatabase server.
        let bad = FlowRecord::pair(h(11), h(3));
        let v = engine.check(&grouping, &labels, &bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].policy, "eng-no-salesdb");
        // Reverse direction also trips.
        assert_eq!(engine.check(&grouping, &labels, &bad.reversed()).len(), 1);
        // Eng to mail is fine.
        let ok = FlowRecord::pair(h(11), h(1));
        assert!(engine.check(&grouping, &labels, &ok).is_empty());
    }

    #[test]
    fn allow_only_constrains_peers() {
        let (grouping, labels) = setup();
        let mut engine = PolicyEngine::new();
        engine.add(Policy::AllowOnly {
            name: "eng-mail-only".into(),
            from: Selector::Label("eng".into()),
            to: Selector::Label("mail".into()),
        });
        let ok = FlowRecord::pair(h(11), h(1));
        assert!(engine.check(&grouping, &labels, &ok).is_empty());
        let bad = FlowRecord::pair(h(11), h(3));
        assert_eq!(engine.check(&grouping, &labels, &bad).len(), 1);
        // Intra-group flows never violate AllowOnly.
        let intra = FlowRecord::pair(h(11), h(12));
        assert!(engine.check(&grouping, &labels, &intra).is_empty());
    }

    #[test]
    fn selector_kinds() {
        let (_, labels) = setup();
        assert!(Selector::Any.matches(GroupId(9), &labels));
        assert!(Selector::Id(GroupId(1)).matches(GroupId(1), &labels));
        assert!(!Selector::Id(GroupId(1)).matches(GroupId(2), &labels));
        assert!(Selector::Label("eng".into()).matches(GroupId(1), &labels));
        assert!(!Selector::Label("eng".into()).matches(GroupId(2), &labels));
        assert!(!Selector::Label("eng".into()).matches(GroupId(99), &labels));
    }

    #[test]
    fn ungrouped_hosts_produce_no_verdicts() {
        let (grouping, labels) = setup();
        let mut engine = PolicyEngine::new();
        engine.add(Policy::Forbid {
            name: "all".into(),
            from: Selector::Any,
            to: Selector::Any,
        });
        let unknown = FlowRecord::pair(h(99), h(3));
        assert!(engine.check(&grouping, &labels, &unknown).is_empty());
    }

    #[test]
    fn policies_serialize() {
        let p = Policy::Forbid {
            name: "x".into(),
            from: Selector::Label("a".into()),
            to: Selector::Id(GroupId(3)),
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: Policy = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
