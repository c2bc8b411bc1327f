//! The `rcctl explain` decision-chain replay: why one host ended up in
//! its role group.
//!
//! Replays a capture window by window through the [`Engine`] with a
//! telemetry recorder attached, then reconstructs the full provenance
//! of one host from the typed decision events the engine emitted:
//!
//! * **formation** — the `k` level and mechanism (biconnected
//!   component, bootstrap, or leftover) that first grouped the host;
//! * **merging** — every merge the host's group was *considered* for,
//!   accepted and rejected alike, with the similarity score, which
//!   threshold gated it (`S^hi` when either side has `K ≥ K^hi`, else
//!   `S^lo`), and the connection-requirement verdict. The engine only
//!   considers pairs at or above `θ = min(S^lo, S^hi)`; a group that
//!   never met one is explained by its most similar final group, whose
//!   similarity is below `θ`;
//! * **correlation** — where the window's published group id came from:
//!   carried from the previous window (with the matching rule and
//!   score), or minted fresh.
//!
//! The replay is the real pipeline — the same `run_window` calls a
//! monitoring deployment makes — so the explanation can never drift
//! from what the engine actually did.

use crate::flow::{ConnectionSets, HostAddr};
use crate::roleclass::{nearest_group, Engine, FormationKind, ParamError, Params};
use std::fmt::Write as _;
use std::sync::Arc;
use telemetry::{Event, FieldValue, Recorder};

/// Looks up a field on an event by key.
fn field<'a>(ev: &'a Event, key: &str) -> Option<&'a FieldValue> {
    ev.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn field_f64(ev: &Event, key: &str) -> f64 {
    match field(ev, key) {
        Some(FieldValue::F64(x)) => *x,
        Some(FieldValue::U64(x)) => *x as f64,
        _ => f64::NAN,
    }
}

fn field_u64(ev: &Event, key: &str) -> u64 {
    match field(ev, key) {
        Some(FieldValue::U64(x)) => *x,
        _ => 0,
    }
}

fn field_str<'a>(ev: &'a Event, key: &str) -> &'a str {
    match field(ev, key) {
        Some(FieldValue::Str(s)) => s,
        _ => "",
    }
}

/// One merge decision the host's group took part in, reconstructed from
/// a `roleclass_engine_merge_considered` event.
struct MergeLine {
    other_rep: String,
    other_size: u64,
    similarity: f64,
    gate: String,
    threshold: f64,
    verdict: String,
}

/// Walks the window's merge events, tracking group membership as merges
/// land, and returns the decisions that involved `host`'s group.
///
/// Groups are tracked as member sets seeded from the formation trace.
/// Each event names one representative member per side, so sides are
/// resolved by membership — the partition stays disjoint as merges
/// coarsen it, making the lookup unambiguous.
fn merge_chain(
    host: HostAddr,
    formation: &[crate::roleclass::FormationEvent],
    events: &[Event],
) -> Vec<MergeLine> {
    let mut groups: Vec<Vec<HostAddr>> = formation
        .iter()
        .map(|ev| {
            let mut m = ev.members.clone();
            m.sort();
            m
        })
        .collect();
    let mut out = Vec::new();
    for ev in events {
        if ev.name != "roleclass_engine_merge_considered" {
            continue;
        }
        let Ok(left) = field_str(ev, "left").parse::<HostAddr>() else {
            continue;
        };
        let Ok(right) = field_str(ev, "right").parse::<HostAddr>() else {
            continue;
        };
        let li = groups.iter().position(|g| g.binary_search(&left).is_ok());
        let ri = groups.iter().position(|g| g.binary_search(&right).is_ok());
        let (Some(li), Some(ri)) = (li, ri) else {
            continue;
        };
        let host_in_left = groups[li].binary_search(&host).is_ok();
        let host_in_right = groups[ri].binary_search(&host).is_ok();
        if host_in_left || host_in_right {
            let (other_rep, other_size) = if host_in_left {
                (right.to_string(), field_u64(ev, "right_size"))
            } else {
                (left.to_string(), field_u64(ev, "left_size"))
            };
            out.push(MergeLine {
                other_rep,
                other_size,
                similarity: field_f64(ev, "similarity"),
                gate: field_str(ev, "gate").to_string(),
                threshold: field_f64(ev, "threshold"),
                verdict: field_str(ev, "verdict").to_string(),
            });
        }
        if field_str(ev, "verdict") == "merged" {
            let merged = groups.remove(ri.max(li));
            let keep = ri.min(li);
            groups[keep].extend(merged);
            groups[keep].sort();
        }
    }
    out
}

/// Replays `windows` through the engine and renders the decision chain
/// for `host`: formation, every merge consideration, and group-id
/// lineage, per window. Invalid `params` are reported as the error
/// text, not a panic, so callers that skipped validation still get a
/// classified failure.
pub fn explain_host(
    windows: &[ConnectionSets],
    host: HostAddr,
    params: Params,
) -> Result<String, ParamError> {
    let labeled: Vec<(String, &ConnectionSets)> = windows
        .iter()
        .enumerate()
        .map(|(w, cs)| (format!("window {w}"), cs))
        .collect();
    explain_host_labeled(&labeled, host, params)
}

/// [`explain_host`] with caller-chosen window labels — what the
/// time-travel path uses to print real window bounds (`window
/// [0, 1000)`) instead of replay indices when the windows come from a
/// retained run history rather than a fresh capture split.
pub fn explain_host_labeled(
    windows: &[(String, &ConnectionSets)],
    host: HostAddr,
    params: Params,
) -> Result<String, ParamError> {
    let recorder = Arc::new(Recorder::new());
    let mut engine = Engine::new(params)?;
    engine.set_recorder(Some(Arc::clone(&recorder)));

    let mut out = String::new();
    let _ = writeln!(out, "decision chain for host {host}:");
    for (label, cs) in windows.iter() {
        let outcome = engine.run_window(cs);
        let events = recorder.events().take();
        let _ = writeln!(out, "\n{label}:");
        let raw = outcome.classification.grouping.group_of(host);
        let published = outcome.grouping.group_of(host);
        let (Some(raw), Some(published)) = (raw, published) else {
            let _ = writeln!(out, "  not observed in this window");
            continue;
        };

        // Formation: the group the host was first placed in.
        let formed = outcome
            .classification
            .formation_trace
            .iter()
            .find(|ev| ev.members.contains(&host));
        if let Some(ev) = formed {
            let how = match ev.kind {
                FormationKind::Bcc => "a biconnected component",
                FormationKind::Bootstrap => "the bootstrap rule (step 2e)",
                FormationKind::Leftover => "the leftover sweep (k=0)",
            };
            let _ = writeln!(
                out,
                "  formation: grouped at k={} by {} ({} member(s))",
                ev.k,
                how,
                ev.members.len()
            );
        }

        // Merging: every pair decision the host's group took part in.
        let chain = merge_chain(host, &outcome.classification.formation_trace, &events);
        if chain.is_empty() {
            // No pair at or above θ ever involved the host's group: name
            // the closest final group instead.
            let grouping = &outcome.classification.grouping;
            let theta = params.s_lo.min(params.s_hi);
            match nearest_group(cs, grouping, raw) {
                Some((near, sim)) if sim < theta => {
                    let members = &grouping.group(near).expect("nearest group exists").members;
                    let _ = writeln!(
                        out,
                        "  merge vs group of {} ({} host(s)): similarity {sim:.2} < θ={theta:.2} \
                         -> below θ, never considered",
                        members[0],
                        members.len()
                    );
                }
                _ => {
                    let _ = writeln!(out, "  merging: no merges considered for this host's group");
                }
            }
        }
        for m in &chain {
            let gate = if m.gate == "s_hi" { "S^hi" } else { "S^lo" };
            let decision = match m.verdict.as_str() {
                "merged" => format!(
                    "similarity {:.2} >= {gate}={:.2} -> merged",
                    m.similarity, m.threshold
                ),
                "rejected_similarity" => format!(
                    "similarity {:.2} < {gate}={:.2} -> kept separate",
                    m.similarity, m.threshold
                ),
                _ => "connection requirement failed -> kept separate".to_string(),
            };
            let _ = writeln!(
                out,
                "  merge vs group of {} ({} host(s)): {decision}",
                m.other_rep, m.other_size
            );
        }

        // Correlation: where the published id came from.
        if outcome.correlation.is_none() {
            let _ = writeln!(
                out,
                "  identity: first window -> group id {published} assigned fresh"
            );
        } else if let Some(carried) = events.iter().find(|ev| {
            ev.name == "roleclass_engine_id_carried" && field_u64(ev, "curr") == u64::from(raw.0)
        }) {
            let _ = writeln!(
                out,
                "  identity: carried group id {published} from previous window (rule={}, score={:.2})",
                field_str(carried, "rule"),
                field_f64(carried, "score")
            );
        } else {
            let _ = writeln!(
                out,
                "  identity: no previous group matched -> minted fresh id {published}"
            );
        }
        let k = outcome
            .grouping
            .groups()
            .iter()
            .find(|g| g.id == published)
            .map_or(0, |g| g.k);
        let _ = writeln!(out, "  result: group {published} (K={k})");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    /// Figure 1 network: two 3-client pods sharing two servers.
    fn figure1() -> ConnectionSets {
        let mut cs = ConnectionSets::new();
        for s in [11, 12, 13] {
            cs.add_pair(h(s), h(1));
            cs.add_pair(h(s), h(2));
            cs.add_pair(h(s), h(3));
        }
        for e in [21, 22, 23] {
            cs.add_pair(h(e), h(1));
            cs.add_pair(h(e), h(2));
            cs.add_pair(h(e), h(4));
        }
        cs
    }

    fn params() -> Params {
        Params::default().with_s_lo(90.0).with_s_hi(95.0)
    }

    #[test]
    fn explains_formation_merges_and_lineage_across_windows() {
        let windows = vec![figure1(), figure1()];
        let out = explain_host(&windows, h(11), params()).unwrap();
        assert!(out.contains("decision chain for host 0.0.0.11"));
        assert!(out.contains("window 0:"));
        assert!(out.contains("window 1:"));
        assert!(out.contains("formation: grouped at k="));
        assert!(out.contains("merge vs group of"));
        assert!(out.contains("assigned fresh"));
        assert!(out.contains("carried group id"));
        assert!(out.contains("result: group"));
    }

    #[test]
    fn unobserved_host_is_reported_per_window() {
        let windows = vec![figure1()];
        let out = explain_host(&windows, h(99), params()).unwrap();
        assert!(out.contains("not observed in this window"));
    }

    #[test]
    fn merge_chain_includes_rejections() {
        // Default thresholds: the two pods' client groups are similar
        // enough to be considered but the figure-1 defaults merge them;
        // raising S^lo/S^hi forces a rejected_similarity verdict.
        let windows = vec![figure1()];
        let out = explain_host(
            &windows,
            h(11),
            Params::default().with_s_lo(99.0).with_s_hi(99.5),
        )
        .unwrap();
        // Either the host's group had merges rejected, or no merge was
        // considered at all — both must render without panicking.
        assert!(out.contains("window 0:"));
    }
}
