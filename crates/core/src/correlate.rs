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
//!    one-to-one matches. Pairs are scored lazily, in the order of a
//!    cheap upper bound, so only pairs that could still win are scored;
//! 4. **step 2** — for groups still uncorrelated, compare their
//!    connection patterns *to already-correlated neighbor groups* and
//!    accept sufficiently similar pairs.

use crate::group::{Group, GroupId, Grouping};
use crate::merging::OrdSim;
use crate::params::{ParamError, Params};
use flow::{ConnectionSets, HostAddr};
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

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

/// Marks "no such row / group" in the dense indexes below.
const NONE: u32 = u32::MAX;

/// The common host population — hosts present in both snapshots — as one
/// dense row space, found by a single merge of the two sorted member
/// vectors.
///
/// Common rows are numbered in address order, so every walk over them
/// (neighbor slices, degree orders, candidate lists) visits hosts in
/// address order: sums, tie-breaks and greedy acceptance see exactly the
/// sequence an address-keyed formulation would.
struct CommonRows {
    /// Previous-snapshot row → common row (`NONE` for departures).
    prev: Vec<u32>,
    /// Current-snapshot row → common row (`NONE` for arrivals).
    curr: Vec<u32>,
    /// Common row → `(previous row, current row)`.
    rows: Vec<(u32, u32)>,
}

impl CommonRows {
    /// Merges the two member vectors, recording arrivals and departures
    /// in `out` on the way.
    fn merge(prev: &[HostAddr], curr: &[HostAddr], out: &mut Correlation) -> Self {
        let mut common = CommonRows {
            prev: vec![NONE; prev.len()],
            curr: vec![NONE; curr.len()],
            rows: Vec::with_capacity(prev.len().min(curr.len())),
        };
        let (mut removed, mut added) = (Vec::new(), Vec::new());
        let (mut i, mut j) = (0, 0);
        loop {
            let ord = match (prev.get(i), curr.get(j)) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(p), Some(c)) => p.cmp(c),
            };
            match ord {
                Ordering::Less => {
                    removed.push(prev[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    added.push(curr[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    let c = common.rows.len() as u32;
                    common.prev[i] = c;
                    common.curr[j] = c;
                    common.rows.push((i as u32, j as u32));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.removed_hosts = removed.into_iter().collect();
        out.added_hosts = added.into_iter().collect();
        common
    }

    fn len(&self) -> usize {
        self.rows.len()
    }
}

/// The restricted connection set of `row` (a row of `cs`): its neighbors
/// that are common hosts, as ascending common rows.
fn restricted<'a>(
    cs: &'a ConnectionSets,
    to_common: &'a [u32],
    row: u32,
) -> impl Iterator<Item = u32> + 'a {
    let (off, nbrs) = cs.csr();
    nbrs[off[row as usize] as usize..off[row as usize + 1] as usize]
        .iter()
        .map(|&n| to_common[n as usize])
        .filter(|&c| c != NONE)
}

/// Per-group views over the *restricted* (common-host) connection sets,
/// one per group in id order, flattened: view `v` owns
/// `members[member_start[v]..member_start[v + 1]]` and likewise for
/// `nbrs`.
#[derive(Default)]
struct Views {
    /// Surviving (common) member rows, ascending.
    members: Vec<u32>,
    member_start: Vec<usize>,
    /// `(common row, CP(h, G))`: each non-member neighbor and the number
    /// of members it connects to, ascending by row.
    nbrs: Vec<(u32, u32)>,
    nbr_start: Vec<usize>,
    /// Σ CP over the view's neighbors.
    total: Vec<u64>,
    /// Average member connection count.
    avg_conns: Vec<f64>,
    /// Members absent from the view's own snapshot (none when the
    /// grouping was computed from it). Only these can be shared by two
    /// groups without being a common row, so step 1's member-overlap
    /// bound adds them.
    stray: Vec<u32>,
}

/// One group's view, borrowed from [`Views`].
#[derive(Clone, Copy)]
struct View<'a> {
    /// Every member address (the group's own sorted list, arrivals and
    /// departures included) — member Jaccard merges these.
    addrs: &'a [HostAddr],
    nbrs: &'a [(u32, u32)],
    total: u64,
    avg_conns: f64,
    stray: u32,
}

impl Views {
    /// Builds per-group views from the *full* snapshot, with neighbors
    /// restricted to the common host population.
    ///
    /// Members are kept even when they are arrivals/departures (only their
    /// connections to the common population count), so a group whose
    /// entire membership was replaced — the paper's load-sharing server
    /// split — can still correlate through its unchanged client side.
    ///
    /// Also returns each common row's group index (`NONE` if ungrouped).
    fn build(
        cs: &ConnectionSets,
        to_common: &[u32],
        n_common: usize,
        groups: &[Group],
    ) -> (Views, Vec<u32>) {
        let addrs = cs.member_addrs();
        let (off, adj) = cs.csr();
        // Snapshot row → group index, and each group's member rows.
        let mut group_of_row = vec![NONE; addrs.len()];
        let mut member_rows: Vec<u32> = Vec::new();
        let mut member_rows_start = vec![0];
        let mut stray = Vec::with_capacity(groups.len());
        for (v, g) in groups.iter().enumerate() {
            for m in &g.members {
                if let Ok(r) = addrs.binary_search(m) {
                    group_of_row[r] = v as u32;
                    member_rows.push(r as u32);
                }
            }
            member_rows_start.push(member_rows.len());
            let found = member_rows_start[v + 1] - member_rows_start[v];
            stray.push((g.members.len() - found) as u32);
        }
        let mut group_of = vec![NONE; n_common];
        for (r, &c) in to_common.iter().enumerate() {
            if c != NONE {
                group_of[c as usize] = group_of_row[r];
            }
        }

        let mut views = Views {
            member_start: vec![0],
            nbr_start: vec![0],
            stray,
            ..Views::default()
        };
        let mut cp = vec![0u32; n_common];
        let mut touched: Vec<u32> = Vec::new();
        for (v, g) in groups.iter().enumerate() {
            let mut deg_sum = 0usize;
            for &r in &member_rows[member_rows_start[v]..member_rows_start[v + 1]] {
                if to_common[r as usize] != NONE {
                    views.members.push(to_common[r as usize]);
                }
                for &n in &adj[off[r as usize] as usize..off[r as usize + 1] as usize] {
                    let c = to_common[n as usize];
                    if c == NONE {
                        continue;
                    }
                    deg_sum += 1;
                    if group_of_row[n as usize] != v as u32 {
                        if cp[c as usize] == 0 {
                            touched.push(c);
                        }
                        cp[c as usize] += 1;
                    }
                }
            }
            touched.sort_unstable();
            let mut total = 0u64;
            for &c in &touched {
                let w = std::mem::take(&mut cp[c as usize]);
                total += u64::from(w);
                views.nbrs.push((c, w));
            }
            touched.clear();
            views.member_start.push(views.members.len());
            views.nbr_start.push(views.nbrs.len());
            views.total.push(total);
            views
                .avg_conns
                .push(deg_sum as f64 / g.members.len().max(1) as f64);
        }
        (views, group_of)
    }

    fn len(&self) -> usize {
        self.total.len()
    }

    fn neighbors(&self, v: usize) -> &[(u32, u32)] {
        &self.nbrs[self.nbr_start[v]..self.nbr_start[v + 1]]
    }

    /// View `v`'s surviving (common) member rows, ascending.
    fn members(&self, v: usize) -> &[u32] {
        &self.members[self.member_start[v]..self.member_start[v + 1]]
    }

    fn view<'a>(&'a self, groups: &'a [Group], v: usize) -> View<'a> {
        View {
            addrs: &groups[v].members,
            nbrs: self.neighbors(v),
            total: self.total[v],
            avg_conns: self.avg_conns[v],
            stray: self.stray[v],
        }
    }
}

/// Pass 2's search order over the previous views' neighbors, built once
/// instead of per pair: each view's neighbor positions sorted by
/// `(restricted degree, row)` — the `(degree, address)` order — and each
/// position's rank in that order. Both are parallel to [`Views::nbrs`].
struct DegreeOrder {
    /// `(restricted degree, position in the view's neighbor slice)`.
    by_degree: Vec<(u32, u32)>,
    /// Position → rank in `by_degree`.
    rank: Vec<u32>,
}

impl DegreeOrder {
    fn build(views: &Views, degree: &[u32]) -> Self {
        let mut order = DegreeOrder {
            by_degree: Vec::with_capacity(views.nbrs.len()),
            rank: vec![0; views.nbrs.len()],
        };
        let mut positions: Vec<u32> = Vec::new();
        for v in 0..views.len() {
            let start = views.nbr_start[v];
            let nbrs = &views.nbrs[start..views.nbr_start[v + 1]];
            positions.clear();
            positions.extend(0..nbrs.len() as u32);
            // Stable: rows are ascending, so equal degrees stay in row order.
            positions.sort_by_key(|&p| degree[nbrs[p as usize].0 as usize]);
            for (r, &p) in positions.iter().enumerate() {
                order
                    .by_degree
                    .push((degree[nbrs[p as usize].0 as usize], p));
                order.rank[start + p as usize] = r as u32;
            }
        }
        order
    }

    fn of(&self, views: &Views, v: usize) -> (&[(u32, u32)], &[u32]) {
        let span = views.nbr_start[v]..views.nbr_start[v + 1];
        (&self.by_degree[span.clone()], &self.rank[span])
    }
}

/// The `share` of a member [`Posting`].
const MEMBER: f64 = -1.0;

/// One previous view holding a common row.
#[derive(Clone, Copy)]
struct Posting {
    view: u32,
    /// `b_h = CP(h, G)/total` when the row is one of the view's
    /// neighbors — the exact value pass 1 reads — or [`MEMBER`] when it
    /// is one of its members.
    share: f64,
}

/// Common row → the previous views holding it as a member or as a
/// neighbor, ascending by view (CSR). Step 1's one index: the views a
/// walk over a current view's rows reaches are its candidates (the
/// pre-filter), and what the walk accumulates on the way is each
/// candidate's score bound ([`BoundWalk`]).
struct Postings {
    start: Vec<usize>,
    list: Vec<Posting>,
}

impl Postings {
    fn build(views: &Views, n_common: usize) -> Self {
        let mut start = vec![0usize; n_common + 1];
        for v in 0..views.len() {
            for &c in views.members(v) {
                start[c as usize + 1] += 1;
            }
            for &(c, _) in views.neighbors(v) {
                start[c as usize + 1] += 1;
            }
        }
        for c in 0..n_common {
            start[c + 1] += start[c];
        }
        let mut fill = start[..n_common].to_vec();
        let placeholder = Posting {
            view: NONE,
            share: MEMBER,
        };
        let mut list = vec![placeholder; start[n_common]];
        let mut put = |c: u32, posting: Posting| {
            list[fill[c as usize]] = posting;
            fill[c as usize] += 1;
        };
        for v in 0..views.len() {
            let view = v as u32;
            for &c in views.members(v) {
                put(
                    c,
                    Posting {
                        view,
                        share: MEMBER,
                    },
                );
            }
            let total = views.total[v] as f64;
            for &(c, w) in views.neighbors(v) {
                let share = w as f64 / total;
                put(c, Posting { view, share });
            }
        }
        Postings { start, list }
    }

    fn of(&self, c: u32) -> &[Posting] {
        &self.list[self.start[c as usize]..self.start[c as usize + 1]]
    }
}

/// Relative and absolute slack added to every step-1 bound, far above
/// the rounding that summing the same terms in another order can cause,
/// so a bound is never below the exact score it bounds.
const BOUND_MARGIN: f64 = 1e-9;

/// One current view's walk over [`Postings`]: the candidate previous
/// views it reaches and, per candidate, the sums its score bound needs.
/// The dense per-view arrays are stamp-guarded, so one walker serves
/// every current view without clearing.
#[derive(Default)]
struct BoundWalk {
    /// Current view that last reset each previous view's slots.
    stamp: Vec<u32>,
    /// `Σ max(min(a_h, b_h), 0.85·a_h)` over shared neighbor rows.
    matched: Vec<f64>,
    /// `Σ a_h` over shared neighbor rows.
    shared: Vec<f64>,
    /// Shared member rows.
    inter: Vec<u32>,
    /// The candidates, in first-touch order.
    touched: Vec<u32>,
    /// Posting entries visited, over every walk.
    visits: u64,
}

impl BoundWalk {
    fn new(prev_views: usize) -> Self {
        BoundWalk {
            stamp: vec![NONE; prev_views],
            matched: vec![0.0; prev_views],
            shared: vec![0.0; prev_views],
            inter: vec![0; prev_views],
            ..BoundWalk::default()
        }
    }

    /// Walks current view `ci`'s member rows, then its neighbor rows,
    /// through the postings of the previous views.
    fn run(&mut self, postings: &Postings, curr: &Views, ci: usize) {
        let stamp = ci as u32;
        self.touched.clear();
        for &c in curr.members(ci) {
            let list = postings.of(c);
            self.visits += list.len() as u64;
            for p in list {
                let v = self.touch(p.view, stamp);
                if p.share == MEMBER {
                    self.inter[v] += 1;
                }
            }
        }
        let total = curr.total[ci] as f64;
        for &(c, w) in curr.neighbors(ci) {
            let a = w as f64 / total;
            let list = postings.of(c);
            self.visits += list.len() as u64;
            for p in list {
                let v = self.touch(p.view, stamp);
                if p.share != MEMBER {
                    self.matched[v] += a.min(p.share).max(W_SIZE_MATCH * a);
                    self.shared[v] += a;
                }
            }
        }
    }

    fn touch(&mut self, view: u32, stamp: u32) -> usize {
        let v = view as usize;
        if self.stamp[v] != stamp {
            self.stamp[v] = stamp;
            self.matched[v] = 0.0;
            self.shared[v] = 0.0;
            self.inter[v] = 0;
            self.touched.push(view);
        }
        v
    }

    /// An upper bound on [`time_varying_similarity`] of the walked
    /// current view and candidate `pi`.
    ///
    /// Pass 1 credits a shared neighbor row at most `min(a_h, b_h)`; a
    /// shared row pass 1 rejects, and every unshared one, earns at most
    /// `0.85·a_h` in pass 2; and the `a_h` sum to 1. So the neighbor
    /// term is at most `Σ_shared max(min(a_h, b_h), 0.85·a_h) +
    /// 0.85·(1 − Σ_shared a_h)`. A member of both groups is a common row
    /// of both views unless it is a stray, so the member overlap is at
    /// most the shared member rows plus both sides' strays.
    fn bound(&self, curr: View<'_>, prev: View<'_>, pi: usize) -> f64 {
        let inter = ((self.inter[pi] + curr.stray + prev.stray) as usize)
            .min(curr.addrs.len().min(prev.addrs.len()));
        let union = curr.addrs.len() + prev.addrs.len() - inter;
        let jaccard = if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        };
        let raw = match (curr.total, prev.total) {
            (0, 0) => 100.0 * jaccard,
            (0, _) | (_, 0) => 0.0,
            _ => {
                let neighbors = self.matched[pi] + W_SIZE_MATCH * (1.0 - self.shared[pi]);
                100.0 * neighbors + MEMBER_BONUS * jaccard
            }
        };
        (raw + raw * BOUND_MARGIN + BOUND_MARGIN).min(100.0)
    }
}

/// A step-1 heap entry: pair `(ci, pi)` keyed by its bound, or by its
/// exact score once evaluated (`true`).
///
/// Max-heap order: key descending; at equal keys a bound before an
/// exact score; then `(ci, pi)` ascending. A pair is only accepted from
/// an exact entry, and every pair that would sort before it — a higher
/// score, or an equal one with a smaller `(ci, pi)` — has a bound at
/// least that key, so it was evaluated first. The pairs are therefore
/// accepted in the order of a stable sort of all exact scores
/// ([`Matching::accept_greedy`]).
type Entry = (OrdSim, Reverse<bool>, Reverse<(u32, u32)>);

fn entry(key: f64, exact: bool, ci: usize, pi: usize) -> Entry {
    (
        OrdSim::new(key),
        Reverse(exact),
        Reverse((ci as u32, pi as u32)),
    )
}

/// `a` and `b` within fraction `tol` of each other.
fn within(tol: f64, a: f64, b: f64) -> bool {
    let hi = a.max(b);
    if hi == 0.0 {
        return true;
    }
    (a - b).abs() <= tol * hi
}

/// `|a ∩ b|` of two ascending slices.
fn intersection_len<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Union-find "nearest alive" lookup with path halving: follows `next`
/// from `x` to a fixed point.
fn find_alive(next: &mut [u32], mut x: usize) -> usize {
    while next[x] as usize != x {
        let up = next[next[x] as usize];
        next[x] = up;
        x = up as usize;
    }
    x
}

/// Marks rank `r` of a [`DegreeOrder`] slice as taken in pass 2's
/// `right`/`left` lookups (see [`Scratch`]).
fn take_rank(right: &mut [u32], left: &mut [u32], r: usize) {
    right[r] = r as u32 + 1;
    left[r + 1] = r as u32;
}

/// What time-varying similarity reads besides the two views: restricted
/// degrees and `H_same`, all indexed by common row.
struct Restricted<'a> {
    curr_degree: &'a [u32],
    prev_degree: &'a [u32],
    h_same: &'a [bool],
    t_hi: f64,
}

// Matched neighbor pairs contribute at a confidence weight that prefers
// stronger evidence: an identical host with an unchanged connection set
// (H_same) counts fully; the same identifier with a changed set counts
// slightly less; a pure size match (the paper's fallback rule) less
// still. The discounts act only as tie-breakers — the paper leaves
// "strongest similarity" ties unspecified, and without them a clean role
// swap scores its true predecessor and an unrelated same-shape group
// identically.
const W_IDENTITY_SAME: f64 = 1.0;
const W_IDENTITY: f64 = 0.95;
const W_SIZE_MATCH: f64 = 0.85;
// A small bonus for member overlap. Kept well below the identity/
// size-match discounts' spread so that behavior still beats identity
// when the two disagree outright (the paper's server role swap must
// follow behavior), while identical member sets win genuine ties (two
// client populations distinguishable only through the swapped servers).
const MEMBER_BONUS: f64 = 5.0;

/// Buffers [`time_varying_similarity`] reuses, so an evaluation
/// allocates nothing once they have grown.
#[derive(Default)]
struct Scratch {
    /// Current-neighbor positions pass 1 left unmatched, ascending.
    unmatched: Vec<u32>,
    /// Previous-neighbor positions pass 1 matched.
    matched: Vec<u32>,
    /// `right[r]` leads to the first still-available rank `≥ r`;
    /// `right[len]` is the "none" sentinel.
    right: Vec<u32>,
    /// `left[x]` leads to `y` where rank `y - 1` is the last
    /// still-available rank `< x`; `left[0]` is the "none" sentinel.
    left: Vec<u32>,
}

/// The time-varying similarity between a current and a previous group
/// view, in `[0, 100]`. `(by_degree, rank)` is the previous view's
/// [`DegreeOrder`].
fn time_varying_similarity(
    curr: View<'_>,
    prev: View<'_>,
    (by_degree, rank): (&[(u32, u32)], &[u32]),
    ctx: &Restricted<'_>,
    scratch: &mut Scratch,
) -> f64 {
    let inter = intersection_len(curr.addrs, prev.addrs);
    let union = curr.addrs.len() + prev.addrs.len() - inter;
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
    let (curr_total, prev_total) = (curr.total as f64, prev.total as f64);
    let mut acc = 0.0f64;
    // Pass 1: identity matches, one merge of the two neighbor slices. A
    // neighbor with the same identifier matches itself outright; full
    // weight if its whole connection set is unchanged (h ∈ H_same).
    scratch.unmatched.clear();
    scratch.matched.clear();
    let mut j = 0;
    for (i, &(h, w_curr)) in curr.nbrs.iter().enumerate() {
        while j < prev.nbrs.len() && prev.nbrs[j].0 < h {
            j += 1;
        }
        if j == prev.nbrs.len() || prev.nbrs[j].0 != h {
            scratch.unmatched.push(i as u32);
            continue;
        }
        let d_t = ctx.curr_degree[h as usize];
        let d_p = ctx.prev_degree[h as usize];
        let weight = if ctx.h_same[h as usize] {
            W_IDENTITY_SAME
        } else if within(ctx.t_hi, d_t as f64, d_p as f64) {
            W_IDENTITY
        } else {
            // The host changed beyond tolerance: treat as unmatched.
            scratch.unmatched.push(i as u32);
            continue;
        };
        let w_prev = prev.nbrs[j].1;
        acc += weight * (w_curr as f64 / curr_total).min(w_prev as f64 / prev_total);
        scratch.matched.push(j as u32);
    }
    // Pass 2: size matching. "The connection set size of h_{t-1} is
    // within T^hi percent of that of h_t and no other neighbor of
    // G_{t-1} has the connection set size closer to that of h_t." The
    // still-available previous neighbors are the ranks of `by_degree`
    // not yet taken; `right`/`left` jump over taken ones.
    let len = prev.nbrs.len();
    let mut alive = len - scratch.matched.len();
    if alive > 0 && !scratch.unmatched.is_empty() {
        let Scratch {
            unmatched,
            matched,
            right,
            left,
        } = scratch;
        right.clear();
        right.extend(0..=len as u32);
        left.clear();
        left.extend(0..=len as u32);
        for &p in matched.iter() {
            take_rank(right, left, rank[p as usize] as usize);
        }
        for &i in unmatched.iter() {
            if alive == 0 {
                break;
            }
            let (h_t, w_curr) = curr.nbrs[i as usize];
            let d_t = ctx.curr_degree[h_t as usize];
            // Closest previous-neighbor degree: the nearest available
            // ranks on both sides of d_t; ties go to the lower degree.
            let split = by_degree.partition_point(|&(d, _)| d < d_t);
            let above = Some(find_alive(right, split)).filter(|&r| r < len);
            let below = Some(find_alive(left, split))
                .filter(|&x| x > 0)
                .map(|x| x - 1);
            let pick = match (below, above) {
                (None, None) => None,
                (Some(x), None) => Some(x),
                (None, Some(y)) => Some(y),
                (Some(x), Some(y)) => {
                    if d_t.abs_diff(by_degree[x].0) <= d_t.abs_diff(by_degree[y].0) {
                        Some(x)
                    } else {
                        Some(y)
                    }
                }
            };
            let Some(r) = pick else {
                continue;
            };
            let (d_p, p) = by_degree[r];
            if !within(ctx.t_hi, d_t as f64, d_p as f64) {
                continue;
            }
            let w_prev = prev.nbrs[p as usize].1;
            acc += W_SIZE_MATCH * (w_curr as f64 / curr_total).min(w_prev as f64 / prev_total);
            take_rank(right, left, r);
            alive -= 1;
        }
    }
    (100.0 * acc + MEMBER_BONUS * member_jaccard).clamp(0.0, 100.0)
}

/// A view's neighbor weight per neighbor group: `(group id, Σ CP)`,
/// ascending by id. `group_of` maps common rows to indexes into
/// `groups`; `sums` is an all-zero scratch of one slot per group.
fn group_tally(
    nbrs: &[(u32, u32)],
    group_of: &[u32],
    groups: &[Group],
    sums: &mut [u64],
) -> Vec<(GroupId, u64)> {
    let mut touched: Vec<u32> = Vec::new();
    for &(c, w) in nbrs {
        let g = group_of[c as usize];
        if g == NONE {
            continue;
        }
        if sums[g as usize] == 0 {
            touched.push(g);
        }
        sums[g as usize] += u64::from(w);
    }
    touched.sort_unstable();
    touched
        .into_iter()
        .map(|g| (groups[g as usize].id, std::mem::take(&mut sums[g as usize])))
        .collect()
}

/// Group-level neighbor-pattern similarity for step 2: compares how the
/// two groups connect to *already-correlated* neighbor groups. `curr` is
/// the current group's tally with each group id replaced by its
/// correlated previous id (uncorrelated groups dropped), in current-id
/// order; `prev` is the previous group's tally.
fn neighbor_group_similarity(
    (curr, curr_total): (&[(GroupId, u64)], u64),
    (prev, prev_total): (&[(GroupId, u64)], u64),
) -> f64 {
    if curr_total == 0 || prev_total == 0 {
        return 0.0;
    }
    let mut acc = 0.0f64;
    for &(gid_p, w_t) in curr {
        let Ok(k) = prev.binary_search_by_key(&gid_p, |&(g, _)| g) else {
            continue;
        };
        let w_p = prev[k].1;
        acc += (w_t as f64 / curr_total as f64).min(w_p as f64 / prev_total as f64);
    }
    (100.0 * acc).clamp(0.0, 100.0)
}

/// Both steps' matching state: each side's groups and taken flags, and
/// the correlation being built.
struct Matching<'a> {
    curr_groups: &'a [Group],
    prev_groups: &'a [Group],
    curr_taken: Vec<bool>,
    prev_taken: Vec<bool>,
    out: Correlation,
    rec: Option<&'a telemetry::Recorder>,
}

impl Matching<'_> {
    fn free(&self, ci: usize, pi: usize) -> bool {
        !self.curr_taken[ci] && !self.prev_taken[pi]
    }

    /// Takes both groups and records the match at score `s`, journaled
    /// under the matching `rule`.
    fn carry(&mut self, ci: usize, pi: usize, s: f64, rule: &'static str) {
        self.curr_taken[ci] = true;
        self.prev_taken[pi] = true;
        let (curr, prev) = (self.curr_groups[ci].id, self.prev_groups[pi].id);
        self.out.id_map.insert(curr, prev);
        self.out.scores.insert((curr, prev), s);
        if let Some(r) = self.rec {
            r.events().record(
                "engine",
                "roleclass_engine_id_carried",
                vec![
                    ("curr", u64::from(curr.0).into()),
                    ("prev", u64::from(prev.0).into()),
                    ("score", s.into()),
                    ("rule", rule.into()),
                ],
            );
        }
    }

    /// Greedy best-first acceptance: walks `scored` by descending score
    /// (stable, so equal scores keep scoring order) and takes every pair
    /// whose two groups are both still free.
    fn accept_greedy(&mut self, mut scored: Vec<(f64, usize, usize)>, rule: &'static str) {
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        for (s, ci, pi) in scored {
            if self.free(ci, pi) {
                self.carry(ci, pi, s, rule);
            }
        }
    }
}

/// What a correlation counts, folded into the registry once at the end
/// so the hot loops stay branch-light. They tally regardless of
/// attachment (plain integer adds) — outcomes are identical either way.
#[derive(Default)]
struct Tally {
    /// Pairs examined by either step.
    candidates: u64,
    /// Pairs past the avg-conns gate: scored in step 2, bounded in
    /// step 1.
    gated: u64,
    /// Step-1 pairs scored exactly.
    exact: u64,
    /// Posting entries step 1's candidate walks visited.
    postings: u64,
}

/// What both steps read, built once per correlation: restricted
/// degrees, `H_same`, both sides' views, pass 2's degree order and
/// step 1's postings.
struct Prepared {
    curr_degree: Vec<u32>,
    prev_degree: Vec<u32>,
    h_same: Vec<bool>,
    curr_views: Views,
    curr_group_of: Vec<u32>,
    prev_views: Views,
    prev_group_of: Vec<u32>,
    prev_order: DegreeOrder,
    postings: Postings,
}

impl Prepared {
    /// Restricts both snapshots to their common hosts, recording
    /// arrivals, departures and `H_same` in `out`, then builds the
    /// views.
    fn build(
        (prev_cs, prev_groups): (&ConnectionSets, &[Group]),
        (curr_cs, curr_groups): (&ConnectionSets, &[Group]),
        out: &mut Correlation,
        rec: Option<&telemetry::Recorder>,
    ) -> Self {
        // 1. Restrict both snapshots to the common host population: one
        // merge of the member vectors maps each side's rows to common
        // rows.
        let restrict_span = telemetry::span(rec, "correlate.restrict");
        let common = CommonRows::merge(prev_cs.member_addrs(), curr_cs.member_addrs(), out);
        drop(restrict_span);

        // 2. Restricted degrees, and H_same: identical restricted
        // connection sets.
        let h_same_span = telemetry::span(rec, "correlate.h_same");
        let mut prev_degree = vec![0u32; common.len()];
        let mut curr_degree = vec![0u32; common.len()];
        let mut h_same = vec![false; common.len()];
        for (c, &(pr, cr)) in common.rows.iter().enumerate() {
            prev_degree[c] = restricted(prev_cs, &common.prev, pr).count() as u32;
            curr_degree[c] = restricted(curr_cs, &common.curr, cr).count() as u32;
            h_same[c] = prev_degree[c] == curr_degree[c]
                && restricted(prev_cs, &common.prev, pr).eq(restricted(curr_cs, &common.curr, cr));
        }
        out.h_same = common
            .rows
            .iter()
            .zip(&h_same)
            .filter(|(_, &same)| same)
            .map(|(&(_, cr), _)| curr_cs.member_addrs()[cr as usize])
            .collect();
        drop(h_same_span);

        let views_span = telemetry::span(rec, "correlate.views");
        let (curr_views, curr_group_of) =
            Views::build(curr_cs, &common.curr, common.len(), curr_groups);
        let (prev_views, prev_group_of) =
            Views::build(prev_cs, &common.prev, common.len(), prev_groups);
        let prev_order = DegreeOrder::build(&prev_views, &prev_degree);
        // Candidate pre-filter: groups sharing a member identifier or a
        // neighbor identifier. Scoring everything would be quadratic in
        // the group count with a heavy constant. This is a deviation
        // from the paper, not a shortcut it licenses: pass 2
        // size-matches *different* neighbors, so two groups sharing no
        // host can still score above `S_corr` — DESIGN §5 note 10
        // measures how often the ids differ.
        let postings = Postings::build(&prev_views, common.len());
        drop(views_span);
        Prepared {
            curr_degree,
            prev_degree,
            h_same,
            curr_views,
            curr_group_of,
            prev_views,
            prev_group_of,
            prev_order,
            postings,
        }
    }

    fn restricted(&self, t_hi: f64) -> Restricted<'_> {
        Restricted {
            curr_degree: &self.curr_degree,
            prev_degree: &self.prev_degree,
            h_same: &self.h_same,
            t_hi,
        }
    }

    /// Calls `f(ci, pi, bound)` for every step-1 candidate pair — the
    /// previous views sharing a member or neighbor row with current
    /// view `ci` — that passes the avg-conns gate, with its score bound
    /// ([`BoundWalk::bound`]).
    fn gated_bounds(
        &self,
        (curr_groups, prev_groups): (&[Group], &[Group]),
        t_hi: f64,
        tally: &mut Tally,
        mut f: impl FnMut(usize, usize, f64),
    ) {
        let mut walk = BoundWalk::new(self.prev_views.len());
        for ci in 0..self.curr_views.len() {
            let cv = self.curr_views.view(curr_groups, ci);
            walk.run(&self.postings, &self.curr_views, ci);
            for &pi in &walk.touched {
                let pi = pi as usize;
                tally.candidates += 1;
                let pv = self.prev_views.view(prev_groups, pi);
                if !within(t_hi, cv.avg_conns, pv.avg_conns) {
                    continue;
                }
                tally.gated += 1;
                f(ci, pi, walk.bound(cv, pv, pi));
            }
        }
        tally.postings += walk.visits;
    }
}

/// Step 1: greedy best-first matching on time-varying similarity, scored
/// lazily. Every gated candidate enters one max-heap keyed by its bound
/// ([`Entry`]). A popped bound whose groups are both free is scored and
/// re-queued under its exact score; a popped exact score whose groups
/// are both free is accepted. Bounds never fall below their exact
/// scores, so this accepts exactly what [`Matching::accept_greedy`]
/// would over every exact score, while scoring only the pairs that rise
/// to the top while both their groups are free.
fn step1(prep: &Prepared, m: &mut Matching<'_>, params: &Params, tally: &mut Tally) {
    let groups = (m.curr_groups, m.prev_groups);
    let mut entries = Vec::new();
    prep.gated_bounds(groups, params.t_hi, tally, |ci, pi, bound| {
        if bound >= params.s_corr {
            entries.push(entry(bound, false, ci, pi));
        }
    });
    let mut heap = BinaryHeap::from(entries);
    let ctx = prep.restricted(params.t_hi);
    let mut scratch = Scratch::default();
    // Every acceptance takes one group of each side, so once the smaller
    // side is used up nothing more can match.
    let mut open = m.curr_groups.len().min(m.prev_groups.len());
    while open > 0 {
        let Some((key, Reverse(exact), Reverse((ci, pi)))) = heap.pop() else {
            break;
        };
        let (key, ci, pi) = (key.get(), ci as usize, pi as usize);
        if !m.free(ci, pi) {
            continue;
        }
        if exact {
            m.carry(ci, pi, key, "time_varying");
            open -= 1;
            continue;
        }
        tally.exact += 1;
        let cv = prep.curr_views.view(m.curr_groups, ci);
        let pv = prep.prev_views.view(m.prev_groups, pi);
        let order = prep.prev_order.of(&prep.prev_views, pi);
        let s = time_varying_similarity(cv, pv, order, &ctx, &mut scratch);
        debug_assert!(s <= key, "score {s} above its bound {key}");
        if s >= params.s_corr {
            heap.push(entry(s, true, ci, pi));
        }
    }
}

/// Step 2: leftover groups correlate through their (already correlated)
/// neighbor groups. Each leftover view's neighbor-group tally is
/// computed once, the current side's already translated to previous ids.
fn step2(prep: &Prepared, m: &mut Matching<'_>, params: &Params, tally: &mut Tally) {
    let (curr_views, prev_views) = (&prep.curr_views, &prep.prev_views);
    let mut sums = vec![0u64; m.curr_groups.len().max(m.prev_groups.len())];
    let curr_tallies: Vec<Vec<(GroupId, u64)>> = (0..curr_views.len())
        .map(|ci| {
            if m.curr_taken[ci] {
                return Vec::new();
            }
            group_tally(
                curr_views.neighbors(ci),
                &prep.curr_group_of,
                m.curr_groups,
                &mut sums,
            )
            .into_iter()
            .filter_map(|(g, w)| m.out.id_map.get(&g).map(|&p| (p, w)))
            .collect()
        })
        .collect();
    let prev_tallies: Vec<Vec<(GroupId, u64)>> = (0..prev_views.len())
        .map(|pi| {
            if m.prev_taken[pi] {
                return Vec::new();
            }
            group_tally(
                prev_views.neighbors(pi),
                &prep.prev_group_of,
                m.prev_groups,
                &mut sums,
            )
        })
        .collect();
    let mut scored: Vec<(f64, usize, usize)> = Vec::new();
    for (ci, curr_tally) in curr_tallies.iter().enumerate() {
        if m.curr_taken[ci] {
            continue;
        }
        for (pi, prev_tally) in prev_tallies.iter().enumerate() {
            if m.prev_taken[pi] {
                continue;
            }
            tally.candidates += 1;
            if !within(
                params.t_hi,
                curr_views.avg_conns[ci],
                prev_views.avg_conns[pi],
            ) {
                continue;
            }
            tally.gated += 1;
            let s = neighbor_group_similarity(
                (curr_tally, curr_views.total[ci]),
                (prev_tally, prev_views.total[pi]),
            );
            if s >= params.s_corr {
                scored.push((s, ci, pi));
            }
        }
    }
    m.accept_greedy(scored, "neighbor_groups");
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
    Ok(correlate_with_events(
        prev_cs,
        prev_grouping,
        curr_cs,
        curr_grouping,
        params,
        None,
    ))
}

/// Correlation proper, with an optional recorder: emits one
/// provenance event per id decision — `id_carried` (with the matching
/// rule that fired and its score), `id_minted` for new groups, and
/// `id_retired` for vanished ones — plus per-phase introspection: spans
/// for each internal phase (`correlate.restrict`, `.h_same`, `.views`,
/// `.step1`, `.step2`, `.finalize`, nested under the caller's
/// `engine.correlate` span) and counters for candidate pairs examined,
/// pairs past the avg-conns gate, step-1 exact evaluations, step-1
/// posting visits, and ids carried/minted/retired. With `None` the
/// phase is exactly the uninstrumented one.
pub(crate) fn correlate_with_events(
    prev_cs: &ConnectionSets,
    prev_grouping: &Grouping,
    curr_cs: &ConnectionSets,
    curr_grouping: &Grouping,
    params: &Params,
    rec: Option<&telemetry::Recorder>,
) -> Correlation {
    let (prev_groups, curr_groups) = (prev_grouping.groups(), curr_grouping.groups());
    let mut out = Correlation::default();
    let prep = Prepared::build(
        (prev_cs, prev_groups),
        (curr_cs, curr_groups),
        &mut out,
        rec,
    );
    let mut m = Matching {
        curr_groups,
        prev_groups,
        curr_taken: vec![false; curr_groups.len()],
        prev_taken: vec![false; prev_groups.len()],
        out,
        rec,
    };
    let mut tally = Tally::default();

    // 3. Step 1: greedy best-first matching on time-varying similarity.
    let step1_span = telemetry::span(rec, "correlate.step1");
    step1(&prep, &mut m, params, &mut tally);
    drop(step1_span);

    // 4. Step 2: leftover groups correlate through their neighbor groups.
    let step2_span = telemetry::span(rec, "correlate.step2");
    step2(&prep, &mut m, params, &mut tally);
    drop(step2_span);

    // 5. Leftovers: every group still free is new (current side) or
    // vanished (previous side).
    let finalize_span = telemetry::span(rec, "correlate.finalize");
    let mut out = m.out;
    for (g, _) in curr_groups.iter().zip(&m.curr_taken).filter(|(_, &t)| !t) {
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
    for (g, _) in prev_groups.iter().zip(&m.prev_taken).filter(|(_, &t)| !t) {
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
    drop(finalize_span);

    if let Some(r) = rec {
        let reg = r.registry();
        reg.counter("roleclass_engine_correlate_candidates_total")
            .add(tally.candidates);
        reg.counter("roleclass_engine_correlate_similarity_evals_total")
            .add(tally.gated);
        reg.counter("roleclass_engine_correlate_exact_evals_total")
            .add(tally.exact);
        reg.counter("roleclass_engine_correlate_postings_total")
            .add(tally.postings);
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
    use proptest::prelude::*;

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

    /// Scores every gated step-1 candidate exactly and asserts its bound
    /// is not below the score. Returns how many pairs of each kind were
    /// checked: both neighbor totals zero, one zero, exact score at the
    /// 100 clamp, any other.
    fn check_bounds(
        (prev_cs, prev): (&ConnectionSets, &Grouping),
        (curr_cs, curr): (&ConnectionSets, &Grouping),
        params: &Params,
    ) -> [usize; 4] {
        let (pg, cg) = (prev.groups(), curr.groups());
        let mut out = Correlation::default();
        let prep = Prepared::build((prev_cs, pg), (curr_cs, cg), &mut out, None);
        let ctx = prep.restricted(params.t_hi);
        let mut scratch = Scratch::default();
        let mut kinds = [0; 4];
        let mut tally = Tally::default();
        prep.gated_bounds((cg, pg), params.t_hi, &mut tally, |ci, pi, bound| {
            let (cv, pv) = (prep.curr_views.view(cg, ci), prep.prev_views.view(pg, pi));
            let order = prep.prev_order.of(&prep.prev_views, pi);
            let s = time_varying_similarity(cv, pv, order, &ctx, &mut scratch);
            assert!(
                s <= bound,
                "pair ({ci}, {pi}): score {s} above bound {bound}"
            );
            let kind = match (cv.total, pv.total) {
                (0, 0) => 0,
                (0, _) | (_, 0) => 1,
                _ if s == 100.0 => 2,
                _ => 3,
            };
            kinds[kind] += 1;
        });
        kinds
    }

    #[test]
    fn heap_pops_bounds_before_exact_scores_at_equal_keys() {
        let mut heap = BinaryHeap::from(vec![
            entry(90.0, true, 0, 0),
            entry(90.0, false, 3, 3),
            entry(90.0, false, 1, 2),
            entry(95.0, true, 4, 4),
            entry(90.0, true, 0, 1),
        ]);
        let order: Vec<(f64, bool, u32, u32)> = std::iter::from_fn(|| heap.pop())
            .map(|(key, Reverse(exact), Reverse((ci, pi)))| (key.get(), exact, ci, pi))
            .collect();
        assert_eq!(
            order,
            [
                (95.0, true, 4, 4),
                (90.0, false, 1, 2),
                (90.0, false, 3, 3),
                (90.0, true, 0, 0),
                (90.0, true, 0, 1),
            ]
        );
    }

    fn group(id: u32, members: &[u32]) -> Group {
        Group {
            id: GroupId(id),
            k: 1,
            members: members.iter().map(|&m| h(m)).collect(),
        }
    }

    #[test]
    fn bound_covers_zero_totals_strays_and_the_clamp() {
        let params = Params {
            t_hi: 1.0,
            ..params()
        };
        // Figure 1 against itself: every group's score clamps at 100.
        let cs = figure1();
        let g = try_classify(&cs, &params).unwrap().grouping;
        let kinds = check_bounds((&cs, &g), (&cs, &g), &params);
        assert!(kinds[2] > 0, "{kinds:?}");

        // {1, 2} and {3, 4} talk only among themselves at t-1, so both
        // previous groups have no neighbors; at t host 1 also reaches 3,
        // giving both current groups one. The groups also share host 99,
        // which neither snapshot holds: a stray the member overlap must
        // still count.
        let mut prev_cs = ConnectionSets::new();
        prev_cs.add_pair(h(1), h(2));
        prev_cs.add_pair(h(3), h(4));
        let mut curr_cs = prev_cs.clone();
        curr_cs.add_pair(h(1), h(3));
        let grouping = Grouping::new(vec![group(0, &[1, 2, 99]), group(1, &[3, 4])]);
        let kinds = check_bounds((&prev_cs, &grouping), (&prev_cs, &grouping), &params);
        assert!(kinds[0] > 0, "{kinds:?}");
        let kinds = check_bounds((&prev_cs, &grouping), (&curr_cs, &grouping), &params);
        assert!(kinds[1] > 0, "{kinds:?}");
    }

    /// A window pair over hosts `0..24` (the shapes of
    /// `correlation_reference`'s random pairs): the previous window's
    /// edges, then the next window's — departures dropped, arrivals
    /// (`24..30`) wired in, address swaps between survivors, and a few
    /// edges added.
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
                    for (a, b) in pairs.filter(|(a, b)| a != b) {
                        cs.add_pair(h(a), h(b));
                    }
                    cs
                };
                let prev = build(&mut edges.iter().copied());
                let swap = |x: u32| {
                    swaps.iter().fold(x, |x, &(a, b)| {
                        if x == a {
                            b
                        } else if x == b {
                            a
                        } else {
                            x
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bound_is_never_below_the_exact_score(
            (prev, curr) in arb_window_pair(),
            p in 0..4usize,
        ) {
            let params = [
                Params::default(),
                params(),
                Params { t_hi: 0.0, s_corr: 0.0, ..Params::default() },
                Params { t_hi: 1.0, s_corr: 20.0, ..Params::default().with_s_lo(10.0).with_s_hi(20.0) },
            ][p];
            let gp = try_classify(&prev, &params).unwrap().grouping;
            let gc = try_classify(&curr, &params).unwrap().grouping;
            check_bounds((&prev, &gp), (&curr, &gc), &params);
            check_bounds((&prev, &gp), (&prev, &gp), &params);
        }
    }
}
