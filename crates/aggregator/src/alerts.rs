//! Alerts and the new-neighbor anomaly detector.
//!
//! The Mazu system "raises alerts about potential security violations"
//! at group granularity (Section 2). Beyond explicit policy violations,
//! the most valuable signal role grouping enables is *deviation from
//! role*: a host opening connections to a group its own group has never
//! talked to. [`NewNeighborDetector`] implements that check against a
//! baseline grouping and its connection sets.

use crate::checkpoint::{Recovery, RecoverySource};
use crate::pipeline::RunRecord;
use crate::policy::PolicyVerdict;
use flow::{ConnectionSets, FlowRecord, HostAddr, TimeWindow};
use roleclass::stability::GroupStability;
use roleclass::{GroupId, Grouping};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Alert severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational: new but structurally plausible behavior.
    Info,
    /// Suspicious: behavior outside the host's role history.
    Warning,
    /// Policy violation or clearly hostile pattern.
    Critical,
}

/// What an alert is about.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertKind {
    /// A configured policy was violated.
    PolicyViolation(PolicyVerdict),
    /// A host contacted a group its group never communicated with in
    /// the baseline window.
    NewGroupNeighbor {
        /// The deviating host.
        host: HostAddr,
        /// Its group.
        host_group: GroupId,
        /// The group it newly contacted.
        peer_group: GroupId,
        /// The triggering flow.
        flow: FlowRecord,
    },
    /// A host appeared that no baseline group contains.
    UnknownHost {
        /// The unknown host.
        host: HostAddr,
        /// The triggering flow.
        flow: FlowRecord,
    },
    /// A classification window ran on incomplete input (probe failures
    /// or quarantines). Group changes observed in such a window are
    /// likely artifacts of the missing data, not real role churn.
    DegradedWindow {
        /// The affected window.
        window: TimeWindow,
        /// Probes that delivered data.
        probes_delivered: usize,
        /// Probes attached when the window ran.
        probes_total: usize,
    },
    /// A restart could not read the primary checkpoint and fell back to
    /// an older generation (or a fresh, empty history). Group ids may
    /// have lost their anchor: labels and policies keyed on them deserve
    /// a review.
    CheckpointFallback {
        /// The generation actually restored (`"backup"` or `"fresh"`).
        source: String,
        /// Why earlier generations were rejected, as recorded by
        /// recovery.
        notes: Vec<String>,
    },
    /// A persistent role group's membership backbone collapsed: most of
    /// its previous members left in one window. Either the role really
    /// is dissolving (server migration, pod re-platform) or the
    /// correlation carried the id onto the wrong group — both deserve an
    /// operator's eye before group-keyed policies misfire.
    ///
    /// Ratios are carried in permille (`u32`) so the alert stays `Eq`
    /// and hashable like every other kind; divide by 1000 for the score.
    RoleChurn {
        /// The affected window.
        window: TimeWindow,
        /// The collapsing group id.
        group: GroupId,
        /// Consecutive windows the id had survived, including this one.
        persistence: u64,
        /// Previous-window members still present.
        retained: usize,
        /// Previous-window member count.
        prev_members: usize,
        /// Backbone score in permille (`retained / prev_members`).
        backbone_permille: u32,
        /// The policy threshold that was crossed, in permille.
        threshold_permille: u32,
    },
}

impl Severity {
    /// Stable lowercase label, for event fields and log lines.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

impl AlertKind {
    /// Stable snake_case label of the variant, for event fields and log
    /// lines (the structured payload stays in the serialized alert).
    pub fn label(&self) -> &'static str {
        match self {
            AlertKind::PolicyViolation(_) => "policy_violation",
            AlertKind::NewGroupNeighbor { .. } => "new_group_neighbor",
            AlertKind::UnknownHost { .. } => "unknown_host",
            AlertKind::DegradedWindow { .. } => "degraded_window",
            AlertKind::CheckpointFallback { .. } => "checkpoint_fallback",
            AlertKind::RoleChurn { .. } => "role_churn",
        }
    }
}

/// A full alert.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Alert {
    /// Severity class.
    pub severity: Severity,
    /// The specifics.
    pub kind: AlertKind,
}

/// Surfaces a degraded window as a single informational alert, so the
/// operator learns "this grouping ran on partial input" *instead of*
/// being flooded with phantom role-churn warnings. Returns `None` for a
/// healthy run. Callers evaluating group changes should check
/// [`crate::WindowHealth::degraded`] first and downgrade or suppress
/// churn-based alerting for such windows.
pub fn degraded_window_alert(run: &RunRecord) -> Option<Alert> {
    if !run.health.degraded() {
        return None;
    }
    Some(Alert {
        severity: Severity::Info,
        kind: AlertKind::DegradedWindow {
            window: run.window,
            probes_delivered: run.health.probes_delivered(),
            probes_total: run.health.probes_total,
        },
    })
}

/// Surfaces a checkpoint-recovery fallback as an alert: restoring from
/// the backup generation is a warning (the most recent window or two may
/// be missing), restoring fresh is critical (the whole correlation
/// anchor is gone — every group will be renumbered). Returns `None` for
/// a clean primary load.
pub fn checkpoint_fallback_alert(recovery: &Recovery) -> Option<Alert> {
    let severity = match recovery.source {
        RecoverySource::Primary => return None,
        RecoverySource::Backup => Severity::Warning,
        RecoverySource::Fresh => Severity::Critical,
    };
    Some(Alert {
        severity,
        kind: AlertKind::CheckpointFallback {
            source: recovery.source.as_str().to_string(),
            notes: recovery.notes.clone(),
        },
    })
}

/// Policy for [`AlertKind::RoleChurn`]: when does a group's backbone
/// score count as collapsed, and how far back does per-host churn look.
///
/// Lives on [`AggregatorConfig`](crate::AggregatorConfig); the
/// aggregator evaluates it against every window's
/// [`WindowStability`](roleclass::stability::WindowStability) row with
/// hysteresis — one alert per collapse episode, re-armed once the
/// group's backbone recovers above the threshold.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnPolicy {
    /// Alert when a qualifying group's backbone drops *below* this
    /// fraction of previous members retained.
    pub backbone_alert_threshold: f64,
    /// Only groups that have persisted at least this many consecutive
    /// windows qualify (fresh groups have no backbone to lose).
    pub min_persistence: u64,
    /// Only groups with at least this many previous-window members
    /// qualify — a two-host group losing one member is not a collapse.
    pub min_prev_members: usize,
    /// Sliding horizon (observed windows) for per-host churn counting.
    pub horizon: usize,
}

impl Default for ChurnPolicy {
    fn default() -> Self {
        ChurnPolicy {
            backbone_alert_threshold: 0.5,
            min_persistence: 2,
            min_prev_members: 3,
            horizon: roleclass::DEFAULT_CHURN_HORIZON,
        }
    }
}

impl ChurnPolicy {
    /// `true` when `g` qualifies and its backbone is below the
    /// threshold — the raw per-window condition, before hysteresis.
    pub fn collapsed(&self, g: &GroupStability) -> bool {
        g.persistence >= self.min_persistence
            && g.prev_members >= self.min_prev_members
            && g.backbone < self.backbone_alert_threshold
    }
}

/// Surfaces a collapsed backbone score as a warning alert. Returns
/// `None` when the group does not qualify or its backbone holds. The
/// aggregator adds hysteresis on top (one alert per collapse episode);
/// calling this directly re-alerts every window the condition holds.
pub fn role_churn_alert(
    policy: &ChurnPolicy,
    window: TimeWindow,
    g: &GroupStability,
) -> Option<Alert> {
    if !policy.collapsed(g) {
        return None;
    }
    Some(Alert {
        severity: Severity::Warning,
        kind: AlertKind::RoleChurn {
            window,
            group: g.group,
            persistence: g.persistence,
            retained: g.retained,
            prev_members: g.prev_members,
            backbone_permille: (g.backbone * 1000.0).round() as u32,
            threshold_permille: (policy.backbone_alert_threshold * 1000.0).round() as u32,
        },
    })
}

/// Detects flows that step outside the baseline role structure.
pub struct NewNeighborDetector {
    baseline_grouping: Grouping,
    /// Group pairs that communicated in the baseline (unordered, as
    /// (min, max)).
    known_pairs: BTreeSet<(GroupId, GroupId)>,
}

impl NewNeighborDetector {
    /// Builds a detector from a baseline run.
    pub fn new(grouping: Grouping, connsets: &ConnectionSets) -> Self {
        let mut known_pairs = BTreeSet::new();
        for (a, b) in connsets.edges() {
            if let (Some(ga), Some(gb)) = (grouping.group_of(a), grouping.group_of(b)) {
                let key = if ga < gb { (ga, gb) } else { (gb, ga) };
                known_pairs.insert(key);
            }
        }
        NewNeighborDetector {
            baseline_grouping: grouping,
            known_pairs,
        }
    }

    /// Checks one flow against the baseline structure.
    pub fn check_flow(&self, flow: &FlowRecord) -> Vec<Alert> {
        let mut out = Vec::new();
        let sg = self.baseline_grouping.group_of(flow.src);
        let dg = self.baseline_grouping.group_of(flow.dst);
        match (sg, dg) {
            (Some(sg), Some(dg)) => {
                let key = if sg < dg { (sg, dg) } else { (dg, sg) };
                if sg != dg && !self.known_pairs.contains(&key) {
                    out.push(Alert {
                        severity: Severity::Warning,
                        kind: AlertKind::NewGroupNeighbor {
                            host: flow.src,
                            host_group: sg,
                            peer_group: dg,
                            flow: *flow,
                        },
                    });
                }
            }
            (None, _) => out.push(Alert {
                severity: Severity::Info,
                kind: AlertKind::UnknownHost {
                    host: flow.src,
                    flow: *flow,
                },
            }),
            (_, None) => out.push(Alert {
                severity: Severity::Info,
                kind: AlertKind::UnknownHost {
                    host: flow.dst,
                    flow: *flow,
                },
            }),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roleclass::Group;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    /// Baseline: eng {11,12} talks to mail {1}; sales-db {3} talks to
    /// sales {21}.
    fn detector() -> NewNeighborDetector {
        let grouping = Grouping::new(vec![
            Group {
                id: GroupId(1),
                k: 2,
                members: vec![h(11), h(12)],
            },
            Group {
                id: GroupId(2),
                k: 1,
                members: vec![h(1)],
            },
            Group {
                id: GroupId(3),
                k: 1,
                members: vec![h(3)],
            },
            Group {
                id: GroupId(4),
                k: 1,
                members: vec![h(21)],
            },
        ]);
        let mut cs = ConnectionSets::new();
        cs.add_pair(h(11), h(1));
        cs.add_pair(h(12), h(1));
        cs.add_pair(h(21), h(3));
        NewNeighborDetector::new(grouping, &cs)
    }

    #[test]
    fn known_structure_is_quiet() {
        let d = detector();
        let ok = FlowRecord::pair(h(11), h(1));
        assert!(d.check_flow(&ok).is_empty());
    }

    #[test]
    fn new_group_pair_raises_warning() {
        let d = detector();
        // The paper's canonical alarm: eng host contacts the sales DB.
        let bad = FlowRecord::pair(h(11), h(3));
        let alerts = d.check_flow(&bad);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].severity, Severity::Warning);
        match &alerts[0].kind {
            AlertKind::NewGroupNeighbor {
                host,
                host_group,
                peer_group,
                ..
            } => {
                assert_eq!(*host, h(11));
                assert_eq!(*host_group, GroupId(1));
                assert_eq!(*peer_group, GroupId(3));
            }
            other => panic!("unexpected alert {other:?}"),
        }
    }

    #[test]
    fn intra_group_flows_never_alert() {
        let d = detector();
        let intra = FlowRecord::pair(h(11), h(12));
        assert!(d.check_flow(&intra).is_empty());
    }

    #[test]
    fn unknown_hosts_are_flagged_info() {
        let d = detector();
        let f = FlowRecord::pair(h(99), h(1));
        let alerts = d.check_flow(&f);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].severity, Severity::Info);
        assert!(matches!(alerts[0].kind, AlertKind::UnknownHost { host, .. } if host == h(99)));
    }

    #[test]
    fn degraded_window_produces_single_info_alert() {
        let mut run = RunRecord {
            window: flow::TimeWindow::new(0, 1000),
            connsets: ConnectionSets::new(),
            grouping: Grouping::new(vec![]),
            correlation: None,
            health: Default::default(),
        };
        run.health.probes_total = 3;
        assert!(degraded_window_alert(&run).is_none());
        run.health.probes_skipped = 1;
        let a = degraded_window_alert(&run).expect("degraded run alerts");
        assert_eq!(a.severity, Severity::Info);
        assert!(matches!(
            a.kind,
            AlertKind::DegradedWindow {
                probes_delivered: 2,
                probes_total: 3,
                ..
            }
        ));
    }

    #[test]
    fn checkpoint_fallback_alert_grades_by_source() {
        let clean = Recovery {
            runs: vec![],
            state: Default::default(),
            source: RecoverySource::Primary,
            notes: vec![],
        };
        assert!(checkpoint_fallback_alert(&clean).is_none());

        let backup = Recovery {
            runs: vec![],
            state: Default::default(),
            source: RecoverySource::Backup,
            notes: vec!["primary checkpoint unusable: corrupt".to_string()],
        };
        let a = checkpoint_fallback_alert(&backup).expect("backup fallback alerts");
        assert_eq!(a.severity, Severity::Warning);
        match &a.kind {
            AlertKind::CheckpointFallback { source, notes } => {
                assert_eq!(source, "backup");
                assert_eq!(notes.len(), 1);
            }
            other => panic!("unexpected alert {other:?}"),
        }

        let fresh = Recovery {
            runs: vec![],
            state: Default::default(),
            source: RecoverySource::Fresh,
            notes: vec![],
        };
        let a = checkpoint_fallback_alert(&fresh).unwrap();
        assert_eq!(a.severity, Severity::Critical);
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Critical);
    }

    #[test]
    fn role_churn_alert_fires_only_on_qualified_collapse() {
        let policy = ChurnPolicy::default();
        let window = TimeWindow::new(0, 1000);
        let mut g = GroupStability {
            group: GroupId(7),
            persistence: 3,
            members: 4,
            retained: 1,
            prev_members: 10,
            backbone: 0.1,
        };
        let a = role_churn_alert(&policy, window, &g).expect("collapse alerts");
        assert_eq!(a.severity, Severity::Warning);
        assert_eq!(a.kind.label(), "role_churn");
        match a.kind {
            AlertKind::RoleChurn {
                group,
                backbone_permille,
                threshold_permille,
                ..
            } => {
                assert_eq!(group, GroupId(7));
                assert_eq!(backbone_permille, 100);
                assert_eq!(threshold_permille, 500);
            }
            _ => unreachable!(),
        }
        // A healthy backbone, a fresh group, and a tiny group are quiet.
        g.backbone = 0.9;
        assert!(role_churn_alert(&policy, window, &g).is_none());
        g.backbone = 0.1;
        g.persistence = 1;
        assert!(role_churn_alert(&policy, window, &g).is_none());
        g.persistence = 3;
        g.prev_members = 2;
        assert!(role_churn_alert(&policy, window, &g).is_none());
    }
}
