//! Role correlation across grouping runs (Section 5).
//!
//! Two runs of the grouping algorithm assign unrelated ids; this module
//! matches the groups of the *current* run to those of a *previous* run
//! so that a stable logical role keeps a stable id, surviving host
//! arrivals and removals, role swaps (the paper's unix_mail/ms_exchange
//! IP exchange), and server replacement.
//!
//! The algorithm never consults a change log; like the paper, it works
//! from the same connection sets the grouping algorithm saw:
//!
//! 1. strip hosts present in only one snapshot, so connection-set
//!    differences reflect behavior changes, not population changes;
//! 2. compute `H_same`, the hosts whose connection sets are bitwise
//!    identical across snapshots — they anchor neighbor matching;
//! 3. **step 1** — for each current group, score every plausible previous
//!    group with a *time-varying similarity* built from matched neighbor
//!    pairs (identity for `H_same` neighbors, otherwise nearest
//!    connection-set size within `T^hi`), require the groups' average
//!    connection counts to be within `T^hi`, and greedily take the best
//!    one-to-one matches;
//! 4. **step 2** — for groups still uncorrelated, compare their
//!    connection patterns *to already-correlated neighbor groups* and
//!    accept sufficiently similar pairs.

use crate::group::{GroupId, Grouping};
use crate::params::{ParamError, Params};
use flow::{ConnectionSets, HostAddr};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Result of correlating a current grouping against a previous one.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Correlation {
    /// Current-group → previous-group id matches.
    pub id_map: BTreeMap<GroupId, GroupId>,
    /// Current groups with no previous counterpart.
    pub new_groups: Vec<GroupId>,
    /// Previous groups with no current counterpart.
    pub vanished_groups: Vec<GroupId>,
    /// Hosts only present in the current snapshot.
    pub added_hosts: BTreeSet<HostAddr>,
    /// Hosts only present in the previous snapshot.
    pub removed_hosts: BTreeSet<HostAddr>,
    /// Hosts whose connection sets did not change at all.
    pub h_same: BTreeSet<HostAddr>,
    /// The similarity score behind each accepted match.
    #[serde(with = "score_map")]
    pub scores: BTreeMap<(GroupId, GroupId), f64>,
}

/// Serde adapter: tuple-keyed maps are not representable in JSON, so the
/// score map round-trips as a vector of `(curr, prev, score)` entries.
mod score_map {
    use super::{BTreeMap, GroupId};
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(
        map: &BTreeMap<(GroupId, GroupId), f64>,
        s: S,
    ) -> Result<S::Ok, S::Error> {
        let entries: Vec<(GroupId, GroupId, f64)> =
            map.iter().map(|(&(a, b), &v)| (a, b, v)).collect();
        entries.serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        d: D,
    ) -> Result<BTreeMap<(GroupId, GroupId), f64>, D::Error> {
        let entries: Vec<(GroupId, GroupId, f64)> = Vec::deserialize(d)?;
        Ok(entries.into_iter().map(|(a, b, v)| ((a, b), v)).collect())
    }
}

/// Per-group view over the *restricted* (common-host) connection sets.
struct GroupView {
    id: GroupId,
    /// Surviving members.
    members: BTreeSet<HostAddr>,
    /// Neighbor host → number of members it connects to (`CP(h, G)`).
    nbr_conns: BTreeMap<HostAddr, u64>,
    /// Σ of `nbr_conns` values.
    total: u64,
    /// Average member connection count.
    avg_conns: f64,
}

/// Builds per-group views from the *full* snapshot, with neighbors
/// restricted to the common host population.
///
/// Members are kept even when they are arrivals/departures (only their
/// connections to the common population count), so a group whose entire
/// membership was replaced — the paper's load-sharing server split — can
/// still correlate through its unchanged client side.
fn build_views(
    cs: &ConnectionSets,
    common: &BTreeSet<HostAddr>,
    grouping: &Grouping,
) -> Vec<GroupView> {
    let mut views = Vec::new();
    for g in grouping.groups() {
        let members: BTreeSet<HostAddr> = g.members.iter().copied().collect();
        let mut nbr_conns: BTreeMap<HostAddr, u64> = BTreeMap::new();
        let mut deg_sum = 0usize;
        for &m in &members {
            let Some(nbrs) = cs.neighbors(m) else {
                continue;
            };
            for n in nbrs {
                if !common.contains(&n) {
                    continue;
                }
                deg_sum += 1;
                if !members.contains(&n) {
                    *nbr_conns.entry(n).or_insert(0) += 1;
                }
            }
        }
        let total = nbr_conns.values().sum();
        let avg_conns = deg_sum as f64 / members.len().max(1) as f64;
        views.push(GroupView {
            id: g.id,
            members,
            nbr_conns,
            total,
            avg_conns,
        });
    }
    views
}

/// `a` and `b` within fraction `tol` of each other.
fn within(tol: f64, a: f64, b: f64) -> bool {
    let hi = a.max(b);
    if hi == 0.0 {
        return true;
    }
    (a - b).abs() <= tol * hi
}

/// The time-varying similarity between a current and a previous group
/// view, in `[0, 100]`.
fn time_varying_similarity(
    curr: &GroupView,
    prev: &GroupView,
    curr_cs: &ConnectionSets,
    prev_cs: &ConnectionSets,
    h_same: &BTreeSet<HostAddr>,
    t_hi: f64,
) -> f64 {
    let inter = curr.members.intersection(&prev.members).count();
    let union = curr.members.len() + prev.members.len() - inter;
    let member_jaccard = if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    };
    if curr.total == 0 && prev.total == 0 {
        // Neither group has external neighbors (e.g., the whole network
        // collapsed into one group): the connection-pattern signal is
        // empty, so identity is all there is.
        return (100.0 * member_jaccard).clamp(0.0, 100.0);
    }
    if curr.total == 0 || prev.total == 0 {
        return 0.0;
    }
    // Matched neighbor pairs contribute at a confidence weight that
    // prefers stronger evidence: an identical host with an unchanged
    // connection set (H_same) counts fully; the same identifier with a
    // changed set counts slightly less; a pure size match (the paper's
    // fallback rule) less still. The discounts act only as tie-breakers —
    // the paper leaves "strongest similarity" ties unspecified, and
    // without them a clean role swap scores its true predecessor and an
    // unrelated same-shape group identically.
    const W_IDENTITY_SAME: f64 = 1.0;
    const W_IDENTITY: f64 = 0.95;
    const W_SIZE_MATCH: f64 = 0.85;
    // A small bonus for member overlap. Kept well below the identity/
    // size-match discounts' spread so that behavior still beats identity
    // when the two disagree outright (the paper's server role swap must
    // follow behavior), while identical member sets win genuine ties
    // (two client populations distinguishable only through the swapped
    // servers).
    const MEMBER_BONUS: f64 = 5.0;

    let mut acc = 0.0f64;
    // Pass 1: identity matches. A neighbor with the same identifier
    // matches itself outright; full weight if its whole connection set
    // is unchanged (h ∈ H_same).
    let mut unmatched_curr: Vec<HostAddr> = Vec::new();
    let mut unmatched_prev: BTreeSet<HostAddr> = prev.nbr_conns.keys().copied().collect();
    for (&h, &w_curr) in &curr.nbr_conns {
        if prev.nbr_conns.contains_key(&h) {
            let d_t = curr_cs.degree(h).unwrap_or(0);
            let d_p = prev_cs.degree(h).unwrap_or(0);
            let weight = if h_same.contains(&h) {
                W_IDENTITY_SAME
            } else if within(t_hi, d_t as f64, d_p as f64) {
                W_IDENTITY
            } else {
                // The host changed beyond tolerance: treat as unmatched.
                unmatched_curr.push(h);
                continue;
            };
            let w_prev = prev.nbr_conns[&h];
            acc +=
                weight * (w_curr as f64 / curr.total as f64).min(w_prev as f64 / prev.total as f64);
            unmatched_prev.remove(&h);
        } else {
            unmatched_curr.push(h);
        }
    }
    // Pass 2: size matching. "The connection set size of h_{t-1} is
    // within T^hi percent of that of h_t and no other neighbor of
    // G_{t-1} has the connection set size closer to that of h_t."
    let mut prev_by_deg: BTreeMap<(usize, HostAddr), HostAddr> = unmatched_prev
        .iter()
        .map(|&h| ((prev_cs.degree(h).unwrap_or(0), h), h))
        .collect();
    for h_t in unmatched_curr {
        if prev_by_deg.is_empty() {
            break;
        }
        let d_t = curr_cs.degree(h_t).unwrap_or(0);
        // Closest previous-neighbor degree: inspect the nearest entries
        // on both sides of d_t.
        let above = prev_by_deg
            .range((d_t, HostAddr::v4(0))..)
            .next()
            .map(|(&k, &v)| (k, v));
        let below = prev_by_deg
            .range(..(d_t, HostAddr::v4(0)))
            .next_back()
            .map(|(&k, &v)| (k, v));
        let pick = match (below, above) {
            (None, None) => None,
            (Some(x), None) => Some(x),
            (None, Some(y)) => Some(y),
            (Some(x), Some(y)) => {
                if d_t.abs_diff(x.0 .0) <= d_t.abs_diff(y.0 .0) {
                    Some(x)
                } else {
                    Some(y)
                }
            }
        };
        let Some(((d_p, _), h_p)) = pick else {
            continue;
        };
        if !within(t_hi, d_t as f64, d_p as f64) {
            continue;
        }
        let w_curr = curr.nbr_conns[&h_t];
        let w_prev = prev.nbr_conns[&h_p];
        acc += W_SIZE_MATCH
            * (w_curr as f64 / curr.total as f64).min(w_prev as f64 / prev.total as f64);
        prev_by_deg.remove(&(d_p, h_p));
    }
    (100.0 * acc + MEMBER_BONUS * member_jaccard).clamp(0.0, 100.0)
}

/// Group-level neighbor-pattern similarity for step 2: compares how the
/// two groups connect to *already-correlated* neighbor groups.
fn neighbor_group_similarity(
    curr: &GroupView,
    prev: &GroupView,
    curr_grouping: &Grouping,
    prev_grouping: &Grouping,
    id_map: &BTreeMap<GroupId, GroupId>,
) -> f64 {
    if curr.total == 0 || prev.total == 0 {
        return 0.0;
    }
    // Collapse neighbor hosts to their group ids.
    let mut curr_by_group: BTreeMap<GroupId, u64> = BTreeMap::new();
    for (&h, &w) in &curr.nbr_conns {
        if let Some(gid) = curr_grouping.group_of(h) {
            *curr_by_group.entry(gid).or_insert(0) += w;
        }
    }
    let mut prev_by_group: BTreeMap<GroupId, u64> = BTreeMap::new();
    for (&h, &w) in &prev.nbr_conns {
        if let Some(gid) = prev_grouping.group_of(h) {
            *prev_by_group.entry(gid).or_insert(0) += w;
        }
    }
    let mut acc = 0.0f64;
    for (gid_t, &w_t) in &curr_by_group {
        let Some(gid_p) = id_map.get(gid_t) else {
            continue;
        };
        let Some(&w_p) = prev_by_group.get(gid_p) else {
            continue;
        };
        acc += (w_t as f64 / curr.total as f64).min(w_p as f64 / prev.total as f64);
    }
    (100.0 * acc).clamp(0.0, 100.0)
}

/// Correlates `curr` against `prev`.
///
/// `prev_cs`/`curr_cs` must be the connection sets the respective
/// groupings were computed from.
///
/// Validates `params`, then correlates;
/// [`Engine::run_window`](crate::engine::Engine::run_window) validates
/// once and correlates each window automatically.
pub fn try_correlate(
    prev_cs: &ConnectionSets,
    prev_grouping: &Grouping,
    curr_cs: &ConnectionSets,
    curr_grouping: &Grouping,
    params: &Params,
) -> Result<Correlation, ParamError> {
    params.validate()?;
    Ok(correlate_validated(
        prev_cs,
        prev_grouping,
        curr_cs,
        curr_grouping,
        params,
    ))
}

/// Correlation proper. Callers must have validated `params`.
pub(crate) fn correlate_validated(
    prev_cs: &ConnectionSets,
    prev_grouping: &Grouping,
    curr_cs: &ConnectionSets,
    curr_grouping: &Grouping,
    params: &Params,
) -> Correlation {
    correlate_with_events(prev_cs, prev_grouping, curr_cs, curr_grouping, params, None)
}

/// [`correlate_validated`] with an optional recorder: emits one
/// provenance event per id decision — `id_carried` (with the matching
/// rule that fired and its score), `id_minted` for new groups, and
/// `id_retired` for vanished ones — plus per-phase introspection: spans
/// for each internal phase (`correlate.restrict`, `.h_same`, `.views`,
/// `.step1`, `.step2`, `.finalize`, nested under the caller's
/// `engine.correlate` span) and counters for candidate pairs examined,
/// similarity evaluations run, and ids carried/minted/retired. With
/// `None` the phase is exactly the uninstrumented one.
pub(crate) fn correlate_with_events(
    prev_cs: &ConnectionSets,
    prev_grouping: &Grouping,
    curr_cs: &ConnectionSets,
    curr_grouping: &Grouping,
    params: &Params,
    rec: Option<&telemetry::Recorder>,
) -> Correlation {
    let mut out = Correlation {
        added_hosts: curr_cs.hosts_not_in(prev_cs),
        removed_hosts: prev_cs.hosts_not_in(curr_cs),
        ..Correlation::default()
    };

    // Phase counters, folded into the registry once at the end so the
    // hot loops stay branch-light. They tally regardless of attachment
    // (plain integer adds) — outcomes are identical either way.
    let mut candidate_pairs = 0u64;
    let mut similarity_evals = 0u64;

    // 1. Restrict both snapshots to the common host population.
    let restrict_span = telemetry::span(rec, "correlate.restrict");
    let common: BTreeSet<HostAddr> = curr_cs.hosts().filter(|h| prev_cs.contains(*h)).collect();
    let mut prev_r = prev_cs.clone();
    prev_r.retain_hosts(&common);
    let mut curr_r = curr_cs.clone();
    curr_r.retain_hosts(&common);
    drop(restrict_span);

    // 2. H_same: identical restricted connection sets.
    let h_same_span = telemetry::span(rec, "correlate.h_same");
    for &h in &common {
        if prev_r.neighbors(h) == curr_r.neighbors(h) {
            out.h_same.insert(h);
        }
    }
    drop(h_same_span);

    let views_span = telemetry::span(rec, "correlate.views");
    let curr_views = build_views(curr_cs, &common, curr_grouping);
    let prev_views = build_views(prev_cs, &common, prev_grouping);

    // Candidate pre-filter: groups sharing a member identifier or a
    // neighbor identifier. (Scoring everything would be quadratic in the
    // group count with a heavy constant; sharing no host at all in
    // either capacity means the time-varying similarity is zero anyway.)
    let mut prev_index: BTreeMap<HostAddr, BTreeSet<usize>> = BTreeMap::new();
    for (i, v) in prev_views.iter().enumerate() {
        for &m in &v.members {
            prev_index.entry(m).or_default().insert(i);
        }
        for &n in v.nbr_conns.keys() {
            prev_index.entry(n).or_default().insert(i);
        }
    }
    drop(views_span);

    // 3. Step 1: greedy best-first matching on time-varying similarity.
    let step1_span = telemetry::span(rec, "correlate.step1");
    let mut scored: Vec<(f64, usize, usize)> = Vec::new();
    for (ci, cv) in curr_views.iter().enumerate() {
        let mut cand: BTreeSet<usize> = BTreeSet::new();
        for &m in cv.members.iter().chain(cv.nbr_conns.keys()) {
            if let Some(set) = prev_index.get(&m) {
                cand.extend(set.iter().copied());
            }
        }
        for pi in cand {
            candidate_pairs += 1;
            let pv = &prev_views[pi];
            if !within(params.t_hi, cv.avg_conns, pv.avg_conns) {
                continue;
            }
            similarity_evals += 1;
            let s = time_varying_similarity(cv, pv, &curr_r, &prev_r, &out.h_same, params.t_hi);
            if s >= params.s_corr {
                scored.push((s, ci, pi));
            }
        }
    }
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut curr_taken = vec![false; curr_views.len()];
    let mut prev_taken = vec![false; prev_views.len()];
    for (s, ci, pi) in scored {
        if curr_taken[ci] || prev_taken[pi] {
            continue;
        }
        curr_taken[ci] = true;
        prev_taken[pi] = true;
        out.id_map.insert(curr_views[ci].id, prev_views[pi].id);
        out.scores.insert((curr_views[ci].id, prev_views[pi].id), s);
        if let Some(r) = rec {
            r.events().record(
                "engine",
                "roleclass_engine_id_carried",
                vec![
                    ("curr", u64::from(curr_views[ci].id.0).into()),
                    ("prev", u64::from(prev_views[pi].id.0).into()),
                    ("score", s.into()),
                    ("rule", "time_varying".into()),
                ],
            );
        }
    }
    drop(step1_span);

    // 4. Step 2: leftover groups correlate through their (already
    // correlated) neighbor groups.
    let step2_span = telemetry::span(rec, "correlate.step2");
    let mut scored2: Vec<(f64, usize, usize)> = Vec::new();
    for (ci, cv) in curr_views.iter().enumerate() {
        if curr_taken[ci] {
            continue;
        }
        for (pi, pv) in prev_views.iter().enumerate() {
            if prev_taken[pi] {
                continue;
            }
            candidate_pairs += 1;
            if !within(params.t_hi, cv.avg_conns, pv.avg_conns) {
                continue;
            }
            similarity_evals += 1;
            let s = neighbor_group_similarity(cv, pv, curr_grouping, prev_grouping, &out.id_map);
            if s >= params.s_corr {
                scored2.push((s, ci, pi));
            }
        }
    }
    scored2.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (s, ci, pi) in scored2 {
        if curr_taken[ci] || prev_taken[pi] {
            continue;
        }
        curr_taken[ci] = true;
        prev_taken[pi] = true;
        out.id_map.insert(curr_views[ci].id, prev_views[pi].id);
        out.scores.insert((curr_views[ci].id, prev_views[pi].id), s);
        if let Some(r) = rec {
            r.events().record(
                "engine",
                "roleclass_engine_id_carried",
                vec![
                    ("curr", u64::from(curr_views[ci].id.0).into()),
                    ("prev", u64::from(prev_views[pi].id.0).into()),
                    ("score", s.into()),
                    ("rule", "neighbor_groups".into()),
                ],
            );
        }
    }

    drop(step2_span);

    // 5. Leftovers. (Current groups whose every member is a new host
    // never made it into `curr_views` and are new by definition; viewed
    // but unmatched groups are new as well.)
    let finalize_span = telemetry::span(rec, "correlate.finalize");
    for g in curr_grouping.groups() {
        if !out.id_map.contains_key(&g.id) {
            out.new_groups.push(g.id);
            if let Some(r) = rec {
                r.events().record(
                    "engine",
                    "roleclass_engine_id_minted",
                    vec![
                        ("group", u64::from(g.id.0).into()),
                        ("members", g.members.len().into()),
                    ],
                );
            }
        }
    }
    let matched_prev: BTreeSet<GroupId> = out.id_map.values().copied().collect();
    for g in prev_grouping.groups() {
        if !matched_prev.contains(&g.id) {
            out.vanished_groups.push(g.id);
            if let Some(r) = rec {
                r.events().record(
                    "engine",
                    "roleclass_engine_id_retired",
                    vec![
                        ("group", u64::from(g.id.0).into()),
                        ("members", g.members.len().into()),
                    ],
                );
            }
        }
    }
    drop(finalize_span);

    if let Some(r) = rec {
        let reg = r.registry();
        reg.counter("roleclass_engine_correlate_candidates_total")
            .add(candidate_pairs);
        reg.counter("roleclass_engine_correlate_similarity_evals_total")
            .add(similarity_evals);
        reg.counter("roleclass_engine_ids_carried_total")
            .add(out.id_map.len() as u64);
        reg.counter("roleclass_engine_ids_minted_total")
            .add(out.new_groups.len() as u64);
        reg.counter("roleclass_engine_ids_retired_total")
            .add(out.vanished_groups.len() as u64);
    }
    out
}

/// Applies a correlation to the current grouping: correlated groups take
/// their previous ids; genuinely new groups get fresh ids above every id
/// either run used.
pub fn apply_correlation(corr: &Correlation, curr: &Grouping) -> Grouping {
    let mut next_fresh = corr
        .id_map
        .values()
        .map(|g| g.0)
        .chain(corr.vanished_groups.iter().map(|g| g.0))
        .chain(curr.groups().iter().map(|g| g.id.0))
        .max()
        .map_or(0, |m| m + 1);
    let mut map: BTreeMap<GroupId, GroupId> = corr.id_map.clone();
    for g in curr.groups() {
        map.entry(g.id).or_insert_with(|| {
            let fresh = GroupId(next_fresh);
            next_fresh += 1;
            fresh
        });
    }
    curr.clone().renumber(&map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::try_classify;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    /// Figure 1 network (M = N = 3), same layout as the other modules.
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
        // Keep formation-phase groups so there is structure to correlate.
        Params::default().with_s_lo(90.0).with_s_hi(95.0)
    }

    #[test]
    fn self_correlation_is_identity() {
        let cs = figure1();
        let c = try_classify(&cs, &params()).unwrap();
        let corr = try_correlate(&cs, &c.grouping, &cs, &c.grouping, &params()).unwrap();
        assert_eq!(corr.id_map.len(), c.grouping.group_count());
        for (a, b) in &corr.id_map {
            assert_eq!(a, b);
        }
        assert!(corr.new_groups.is_empty());
        assert!(corr.vanished_groups.is_empty());
        assert_eq!(corr.h_same.len(), cs.host_count());
        let renamed = apply_correlation(&corr, &c.grouping);
        assert_eq!(&renamed, &c.grouping);
    }

    #[test]
    fn detects_added_and_removed_hosts() {
        let prev = figure1();
        let mut curr = figure1();
        curr.remove_host(h(13));
        curr.add_pair(h(99), h(1));
        let gp = try_classify(&prev, &params()).unwrap().grouping;
        let gc = try_classify(&curr, &params()).unwrap().grouping;
        let corr = try_correlate(&prev, &gp, &curr, &gc, &params()).unwrap();
        assert!(corr.removed_hosts.contains(&h(13)));
        assert!(corr.added_hosts.contains(&h(99)));
    }

    #[test]
    fn role_swap_correlates_by_behavior_not_identity() {
        // Swap the "IP addresses" of the sales database (3) and the
        // source-control server (4): host 3 now serves eng, host 4 serves
        // sales. The group that *behaves* like the old sales-db group —
        // now containing host 4 — must inherit its id.
        let prev = figure1();
        let mut curr = ConnectionSets::new();
        for s in [11, 12, 13] {
            curr.add_pair(h(s), h(1));
            curr.add_pair(h(s), h(2));
            curr.add_pair(h(s), h(4)); // db is now host 4
        }
        for e in [21, 22, 23] {
            curr.add_pair(h(e), h(1));
            curr.add_pair(h(e), h(2));
            curr.add_pair(h(e), h(3)); // src-ctl is now host 3
        }
        let gp = try_classify(&prev, &params()).unwrap().grouping;
        let gc = try_classify(&curr, &params()).unwrap().grouping;
        let corr = try_correlate(&prev, &gp, &curr, &gc, &params()).unwrap();

        let prev_db = gp.group_of(h(3)).unwrap(); // db group at t-1
        let curr_db = gc.group_of(h(4)).unwrap(); // db group (by role) at t
        assert_eq!(corr.id_map.get(&curr_db), Some(&prev_db));
        let prev_src = gp.group_of(h(4)).unwrap();
        let curr_src = gc.group_of(h(3)).unwrap();
        assert_eq!(corr.id_map.get(&curr_src), Some(&prev_src));
        // The stable groups correlate to themselves.
        let prev_mw = gp.group_of(h(1)).unwrap();
        let curr_mw = gc.group_of(h(1)).unwrap();
        assert_eq!(corr.id_map.get(&curr_mw), Some(&prev_mw));
    }

    #[test]
    fn server_replacement_correlates_new_host() {
        // Replace the web server (2) with a brand-new machine (9).
        let prev = figure1();
        let mut curr = ConnectionSets::new();
        for s in [11, 12, 13] {
            curr.add_pair(h(s), h(1));
            curr.add_pair(h(s), h(9));
            curr.add_pair(h(s), h(3));
        }
        for e in [21, 22, 23] {
            curr.add_pair(h(e), h(1));
            curr.add_pair(h(e), h(9));
            curr.add_pair(h(e), h(4));
        }
        let gp = try_classify(&prev, &params()).unwrap().grouping;
        let gc = try_classify(&curr, &params()).unwrap().grouping;
        let corr = try_correlate(&prev, &gp, &curr, &gc, &params()).unwrap();
        // {mail, new-web} inherits the {mail, web} id.
        let prev_mw = gp.group_of(h(1)).unwrap();
        let curr_mw = gc.group_of(h(9)).unwrap();
        assert_eq!(gc.group_of(h(1)), Some(curr_mw));
        assert_eq!(corr.id_map.get(&curr_mw), Some(&prev_mw));
    }

    #[test]
    fn fresh_groups_get_fresh_ids() {
        // An entirely new, disconnected cluster appears at time t.
        let prev = figure1();
        let mut curr = figure1();
        for c in [31, 32, 33] {
            curr.add_pair(h(c), h(40));
            curr.add_pair(h(c), h(41));
        }
        let gp = try_classify(&prev, &params()).unwrap().grouping;
        let gc = try_classify(&curr, &params()).unwrap().grouping;
        let corr = try_correlate(&prev, &gp, &curr, &gc, &params()).unwrap();
        assert!(!corr.new_groups.is_empty());
        let renamed = apply_correlation(&corr, &gc);
        // Fresh ids must not collide with any previous id.
        let prev_ids: BTreeSet<GroupId> = gp.groups().iter().map(|g| g.id).collect();
        for gid in &corr.new_groups {
            let new_id = renamed.group_of(gc.group(*gid).unwrap().members[0]);
            assert!(new_id.is_some());
            assert!(
                !prev_ids.contains(&new_id.unwrap())
                    || corr.id_map.values().any(|v| Some(*v) == new_id)
            );
        }
    }

    #[test]
    fn within_tolerance_math() {
        assert!(within(0.3, 10.0, 8.0));
        assert!(!within(0.3, 10.0, 6.0));
        assert!(within(0.3, 0.0, 0.0));
        assert!(within(1.0, 100.0, 1.0));
    }

    #[test]
    fn empty_snapshots_correlate_trivially() {
        let cs = ConnectionSets::new();
        let g = Grouping::new(vec![]);
        let corr = try_correlate(&cs, &g, &cs, &g, &Params::default()).unwrap();
        assert!(corr.id_map.is_empty());
        assert!(corr.new_groups.is_empty());
        assert!(corr.vanished_groups.is_empty());
    }
}
