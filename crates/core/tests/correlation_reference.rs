//! Differential test: production correlation (dense common-row views,
//! merged neighbor slices, a prebuilt degree order for pass 2) against
//! the map-based implementation it replaced, kept below as the oracle.
//!
//! The reference is the `BTreeMap/BTreeSet<HostAddr>` formulation
//! verbatim: it rebuilds the unmatched-neighbor set and the degree map
//! for every candidate pair, which is exactly what makes it a readable
//! spec and a slow production path. Every check asserts the *whole*
//! [`Correlation`] equal — scores compared by `to_bits` — plus equal
//! candidate/evaluation counters and the same `id_*` event sequence,
//! read from a [`Recorder`] attached to each side.
//!
//! The reference also runs with [`Candidates::Exhaustive`]: the
//! paper-literal step 1, scoring every pair that passes the
//! average-connection gate instead of only pairs sharing a host. That
//! comparison is a measurement, not an assertion — the pre-filter is a
//! documented deviation (DESIGN §5 note 10) and the scenario tests print
//! how many ids it changes.

use flow::{ConnectionSets, HostAddr};
use proptest::prelude::*;
use roleclass::{
    apply_correlation, Correlation, Engine, EngineSnapshot, GroupId, Grouping, Params,
};
use roleclass_spec::connsets::{self as spec, to_reference};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use synthnet::{churn, scenarios, SyntheticNetwork};
use telemetry::{FieldValue, Recorder};

/// Step-1 candidate selection of the reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Candidates {
    /// Groups sharing a member or neighbor identifier (production).
    Prefilter,
    /// Every previous group (the paper's step 1 read literally).
    Exhaustive,
}

// ---------------------------------------------------------------------
// The reference implementation.
// ---------------------------------------------------------------------

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
    curr_cs: &spec::ConnectionSets,
    prev_cs: &spec::ConnectionSets,
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

/// The reference entry point: the map-based correlation as it shipped, with
/// one addition — `candidates` selects the shared-host pre-filter or the
/// paper-literal exhaustive pairing.
fn reference_correlate(
    prev_cs: &ConnectionSets,
    prev_grouping: &Grouping,
    curr_cs: &ConnectionSets,
    curr_grouping: &Grouping,
    params: &Params,
    candidates: Candidates,
    rec: Option<&telemetry::Recorder>,
) -> Correlation {
    // The host-set steps run on the map-based twins of both snapshots.
    let (prev_s, curr_s) = (to_reference(prev_cs), to_reference(curr_cs));
    let mut out = Correlation {
        added_hosts: curr_s.hosts_not_in(&prev_s),
        removed_hosts: prev_s.hosts_not_in(&curr_s),
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
    let mut prev_r = prev_s;
    prev_r.retain_hosts(&common);
    let mut curr_r = curr_s;
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
        if candidates == Candidates::Exhaustive {
            cand = (0..prev_views.len()).collect();
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

// ---------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------

/// The first field on which two correlations differ, if any. Scores
/// compare by bits, so a summation-order change fails too.
fn correlation_diff(fast: &Correlation, slow: &Correlation) -> Option<String> {
    let bits = |c: &Correlation| -> Vec<((GroupId, GroupId), u64)> {
        c.scores.iter().map(|(&k, v)| (k, v.to_bits())).collect()
    };
    let fields = [
        ("id_map", fast.id_map == slow.id_map),
        ("new_groups", fast.new_groups == slow.new_groups),
        (
            "vanished_groups",
            fast.vanished_groups == slow.vanished_groups,
        ),
        ("added_hosts", fast.added_hosts == slow.added_hosts),
        ("removed_hosts", fast.removed_hosts == slow.removed_hosts),
        ("h_same", fast.h_same == slow.h_same),
        ("scores", bits(fast) == bits(slow)),
        ("debug", format!("{fast:?}") == format!("{slow:?}")),
    ];
    fields
        .iter()
        .find(|(_, same)| !same)
        .map(|(name, _)| format!("{name} differs:\n  fast: {fast:?}\n  slow: {slow:?}"))
}

/// What a recorder saw of one correlation: its counters and its id
/// decisions in emission order.
#[derive(Debug, PartialEq)]
struct Observed {
    counters: Vec<u64>,
    id_events: Vec<(&'static str, Vec<(&'static str, FieldValue)>)>,
}

fn observed(rec: &Recorder) -> Observed {
    let counters = [
        "roleclass_engine_correlate_candidates_total",
        "roleclass_engine_correlate_similarity_evals_total",
        "roleclass_engine_ids_carried_total",
        "roleclass_engine_ids_minted_total",
        "roleclass_engine_ids_retired_total",
    ]
    .iter()
    .map(|name| rec.registry().counter(name).get())
    .collect();
    let id_events = rec
        .events()
        .snapshot()
        .into_iter()
        .filter(|e| e.name.starts_with("roleclass_engine_id_"))
        .map(|e| (e.name, e.fields))
        .collect();
    Observed {
        counters,
        id_events,
    }
}

/// One correlation step checked both ways.
struct Step {
    /// The current window's raw (uncorrelated) grouping.
    raw: Grouping,
    /// Production's correlation.
    corr: Correlation,
    /// Entries of the production id map the exhaustive scorer does not
    /// reproduce, plus entries only it produces.
    exhaustive_diff: usize,
}

/// Classifies `curr` and correlates it against `prev` through an engine
/// with an attached recorder, then asserts the reference reproduces the
/// whole correlation, its counters and its id events. Also scores the
/// step exhaustively and counts how far that id map lands from
/// production's.
fn check_step(ctx: &str, prev: &EngineSnapshot, curr: &ConnectionSets, params: Params) -> Step {
    let rec = Arc::new(Recorder::new());
    let engine = Engine::new(params).unwrap().with_recorder(rec.clone());
    let merged = engine.form(curr).merge();
    let corr = merged.correlate_with(prev);
    let raw = merged.finish().grouping;

    let ref_rec = Recorder::new();
    let slow = reference_correlate(
        &prev.connsets,
        &prev.grouping,
        curr,
        &raw,
        &params,
        Candidates::Prefilter,
        Some(&ref_rec),
    );
    if let Some(diff) = correlation_diff(&corr, &slow) {
        panic!("{ctx}: {diff}");
    }
    assert_eq!(observed(&rec), observed(&ref_rec), "{ctx}: counters/events");

    let exhaustive = reference_correlate(
        &prev.connsets,
        &prev.grouping,
        curr,
        &raw,
        &params,
        Candidates::Exhaustive,
        None,
    );
    let exhaustive_diff = corr
        .id_map
        .iter()
        .filter(|(c, p)| exhaustive.id_map.get(c) != Some(p))
        .count()
        + exhaustive
            .id_map
            .iter()
            .filter(|(c, p)| corr.id_map.get(c) != Some(p))
            .count();
    Step {
        raw,
        corr,
        exhaustive_diff,
    }
}

/// Runs `windows` through [`check_step`] as the engine would — each
/// window correlated against the previous one's *published* grouping —
/// and prints the exhaustive scorer's deviation. Returns the number of
/// ids production carried over all steps.
fn check_windows(name: &str, windows: &[ConnectionSets], params: Params) -> usize {
    let first = Engine::new(params).unwrap().classify(&windows[0]);
    let mut prev = EngineSnapshot {
        connsets: windows[0].clone(),
        grouping: first.grouping,
    };
    let (mut carried, mut deviation) = (0, 0);
    for (w, curr) in windows.iter().enumerate().skip(1) {
        let step = check_step(&format!("{name} window {w}"), &prev, curr, params);
        carried += step.corr.id_map.len();
        deviation += step.exhaustive_diff;
        prev = EngineSnapshot {
            connsets: curr.clone(),
            grouping: apply_correlation(&step.corr, &step.raw),
        };
    }
    println!(
        "prefilter deviation on {name}: {deviation} id-map entries differ from the \
         exhaustive scorer over {} steps ({carried} ids carried)",
        windows.len() - 1
    );
    carried
}

/// One window of churn on a synthetic network: `replacements` hosts
/// replaced by fresh addresses that inherit their connections, and
/// `swaps` role swaps between surviving hosts. Host choice is a fixed
/// stride walk, so the test needs no RNG.
fn churn_window(net: &mut SyntheticNetwork, fresh: &mut u32, replacements: usize, swaps: usize) {
    let mut hosts: Vec<HostAddr> = net.connsets.hosts().collect();
    let pick = |hosts: &mut Vec<HostAddr>, k: usize| hosts.swap_remove((k * 7919) % hosts.len());
    for k in 0..replacements {
        let old = pick(&mut hosts, k);
        *fresh += 1;
        churn::replace_host(net, old, HostAddr::v4(*fresh));
    }
    for k in 0..swaps {
        let a = pick(&mut hosts, 2 * k + replacements);
        let b = pick(&mut hosts, 2 * k + replacements + 1);
        churn::swap_hosts(net, a, b);
    }
}

/// 172.16.0.0/12 — unused by the synthetic scenarios.
const FRESH_BASE: u32 = 0xAC10_0000;

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

/// A ~2k-host department network over four steps: an unchanged
/// window, two with 2% of hosts replaced and three role swaps, then one
/// with 10% replaced and ten swaps.
#[test]
fn department_windows_match_reference() {
    let mut net = scenarios::department(2_000, 3);
    let mut fresh = FRESH_BASE;
    let mut windows = vec![net.connsets.clone(), net.connsets.clone()];
    for (replacements, swaps) in [(40, 3), (40, 3), (200, 10)] {
        churn_window(&mut net, &mut fresh, replacements, swaps);
        windows.push(net.connsets.clone());
    }
    let carried = check_windows("department(2000)", &windows, Params::default());
    assert!(carried > 0, "the scenario must carry ids");
}

/// One churned BigCompany step: the scanner hub, dense file-sharing
/// pools and long departmental tail give pass 2 large neighbor lists.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "classifies BigCompany twice; run with --release (scripts/ci.sh does)"
)]
fn churned_big_company_step_matches_reference() {
    let mut net = scenarios::big_company(1);
    let before = net.connsets.clone();
    let mut fresh = FRESH_BASE;
    churn_window(&mut net, &mut fresh, before.host_count() / 50, 3);
    let carried = check_windows(
        "big_company(1), churned",
        &[before, net.connsets.clone()],
        Params::default(),
    );
    assert!(carried > 0, "the scenario must carry ids");
}

/// The paper's Figure 5 changes on the Mazu network: a role swap by
/// address exchange, a replaced server, a removed and an added host.
#[test]
fn figure5_changes_match_reference() {
    let original = scenarios::mazu(42);
    let mut changed = original.clone();
    churn::swap_hosts(
        &mut changed,
        original.host("unix_mail"),
        original.host("ms_exchange"),
    );
    churn::replace_host(
        &mut changed,
        original.host("nt_server"),
        HostAddr::from_octets(10, 0, 1, 18),
    );
    churn::remove_host(&mut changed, original.role_hosts("admin")[0]);
    churn::add_host_like(
        &mut changed,
        original.role_hosts("eng")[0],
        HostAddr::from_octets(10, 0, 0, 200),
    );
    let windows = [original.connsets.clone(), changed.connsets.clone()];
    for params in [
        Params::default(),
        Params::default().with_s_lo(90.0).with_s_hi(95.0),
    ] {
        check_windows("figure5", &windows, params);
    }
}

/// A window pair over hosts `0..24`: the previous window's edges, then
/// the next window's — departures dropped, arrivals (`24..30`) wired in,
/// address swaps between survivors (role swaps), and a few edges added.
fn arb_window_pair() -> impl Strategy<Value = (ConnectionSets, ConnectionSets)> {
    (
        prop::collection::vec((0..24u32, 0..24u32), 0..70),
        prop::collection::btree_set(0..24u32, 0..4),
        prop::collection::vec((24..30u32, 0..30u32), 0..14),
        prop::collection::vec((0..24u32, 0..24u32), 0..3),
        prop::collection::vec((0..24u32, 0..24u32), 0..6),
    )
        .prop_map(|(edges, departed, arrivals, swaps, drift)| {
            let build = |pairs: &mut dyn Iterator<Item = (u32, u32)>| {
                let mut cs = ConnectionSets::new();
                for (a, b) in pairs {
                    if a != b {
                        cs.add_pair(HostAddr::v4(a), HostAddr::v4(b));
                    }
                }
                cs
            };
            let prev = build(&mut edges.iter().copied());
            let swap = |h: u32| {
                swaps.iter().fold(h, |h, &(a, b)| {
                    if h == a {
                        b
                    } else if h == b {
                        a
                    } else {
                        h
                    }
                })
            };
            let curr = build(
                &mut edges
                    .iter()
                    .chain(&drift)
                    .map(|&(a, b)| (swap(a), swap(b)))
                    .chain(arrivals.iter().copied())
                    .filter(|(a, b)| !departed.contains(a) && !departed.contains(b)),
            );
            (prev, curr)
        })
}

fn param_grid() -> Vec<Params> {
    vec![
        Params::default(),
        Params::default().with_s_lo(90.0).with_s_hi(95.0),
        Params {
            t_hi: 0.0,
            s_corr: 0.0,
            ..Params::default()
        },
        Params {
            t_hi: 1.0,
            s_corr: 20.0,
            ..Params::default().with_s_lo(10.0).with_s_hi(20.0)
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_window_pairs_match_reference(
        (prev, curr) in arb_window_pair(),
        p in 0..4usize,
    ) {
        let params = param_grid()[p];
        let first = Engine::new(params).unwrap().classify(&prev);
        let snapshot = EngineSnapshot { connsets: prev, grouping: first.grouping };
        check_step("random window pair", &snapshot, &curr, params);
        // Correlating a window against itself must match as well.
        check_step("self", &snapshot, &snapshot.connsets, params);
    }
}
