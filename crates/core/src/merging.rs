//! Group merging (Section 4.2): similarity-gated agglomeration.
//!
//! The formation phase deliberately over-partitions; this phase merges
//! groups whose *group-level* connection patterns are similar. Two
//! requirements gate every merge (Figure 3):
//!
//! * **Connection requirement** — the average per-member connection
//!   counts of the two groups are within β of each other, keeping
//!   heavily-connected groups away from lightly-connected ones.
//! * **Similarity requirement** — the group similarity (0–100) clears
//!   `S^hi` when either group formed at `K_G ≥ K^hi`, else `S^lo`.
//!   High-`K_G` groups formed from strong evidence; merging them can
//!   cascade into undesirable merges (the paper's Mail/Web vs.
//!   SalesDatabase example), hence the stricter threshold.
//!
//! Eligible pairs merge greedily, highest similarity first, until no
//! pair qualifies. The merged group's `K` becomes the minimum connection
//! count over its members.
//!
//! Only pairs that can pass the similarity requirement are ever stored
//! or queued: a pair below `θ = min(S^lo, S^hi)` fails it whichever
//! threshold applies, so it could only pop as a rejection. Dropping such
//! pairs leaves the merge sequence unchanged (see `CandidateStore`).

use crate::formation::FormationResult;
use crate::group::{Group, GroupId, Grouping};
use crate::params::{ParamError, Params};
use flow::{ConnectionSets, HostAddr};
use netgraph::{NodeId, WGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Total order over non-negative similarities via the IEEE-754 bit
/// trick (monotone for non-negative floats), for heap keying here and in
/// correlation step 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct OrdSim(u64);

impl OrdSim {
    pub(crate) fn new(sim: f64) -> Self {
        debug_assert!(sim >= 0.0, "similarities are non-negative");
        OrdSim(sim.to_bits())
    }

    pub(crate) fn get(self) -> f64 {
        f64::from_bits(self.0)
    }
}

/// A heap entry: the similarity a pair had when it was queued, then the
/// pair itself (lower endpoint first). Ties break toward the smallest
/// pair, the order a full ascending scan would produce.
type HeapEntry = (OrdSim, Reverse<(NodeId, NodeId)>);

fn heap_entry(a: NodeId, b: NodeId, sim: f64) -> HeapEntry {
    (OrdSim::new(sim), Reverse((a, b)))
}

/// Mutable per-group bookkeeping during merging.
#[derive(Clone, Debug)]
struct GroupInfo {
    members: Vec<HostAddr>,
    /// `K_G` — formation level, or after a merge the minimum member
    /// connection count.
    k: u32,
    /// Sum of original connection-set sizes over members.
    sum_deg: u64,
    /// Minimum original connection-set size over members.
    min_deg: u32,
}

impl GroupInfo {
    /// The bookkeeping for a group of `members` labeled `k`, with
    /// connection counts read from the original connection sets.
    fn new(cs: &ConnectionSets, members: &[HostAddr], k: u32) -> Self {
        let degs = || members.iter().map(|h| cs.degree(*h).unwrap_or(0) as u32);
        GroupInfo {
            members: members.to_vec(),
            k,
            sum_deg: degs().map(u64::from).sum(),
            min_deg: degs().min().unwrap_or(0),
        }
    }

    fn avg_conns(&self) -> f64 {
        if self.members.is_empty() {
            0.0
        } else {
            self.sum_deg as f64 / self.members.len() as f64
        }
    }
}

/// The live groups, indexed by [`NodeId::index`]; dead slots are `None`.
type GroupTable = Vec<Option<GroupInfo>>;

fn group(info: &[Option<GroupInfo>], n: NodeId) -> &GroupInfo {
    info[n.index()].as_ref().expect("group of a live node")
}

/// One merge performed by the algorithm, for tracing and ablation.
#[derive(Clone, Debug, PartialEq)]
pub struct MergeEvent {
    /// Members of the first group at merge time.
    pub left: Vec<HostAddr>,
    /// Members of the second group at merge time.
    pub right: Vec<HostAddr>,
    /// The similarity that justified the merge.
    pub similarity: f64,
}

/// Final outcome of formation + merging.
pub struct MergeOutcome {
    /// The final partitioning, ids assigned sequentially by descending
    /// group size (purely cosmetic; correlation renames them anyway).
    pub grouping: Grouping,
    /// Merge trace in execution order.
    pub merges: Vec<MergeEvent>,
    /// The final contracted group graph (node per final group; edge
    /// weights are inter-group connection counts `CP`).
    pub graph: WGraph,
    /// Graph node per final group, aligned with
    /// [`MergeOutcome::grouping`] group order.
    pub node_of_group: Vec<NodeId>,
}

/// Figure 3's `SIMILARITY(G1, G2)` on the current group graph: the sum
/// over common neighbors `G'` of `min(CP(G', G1)/t_1, CP(G', G2)/t_2)`,
/// where `t_i` is group `Gi`'s total connection count, scaled to
/// `[0, 100]`. The pseudo-code is ambiguous about this normalization
/// (`DESIGN.md` §5, note 2); the literal reading lives in the
/// `roleclass-spec` crate.
///
/// This is the phase's only SIMILARITY code. One sweep from `x` scores
/// `x` against every group that shares a neighbor with it: walking
/// `via ∈ N(x)` in ascending id order and crediting each `y ∈ N(via)`
/// adds every `y`'s terms in ascending common-neighbor order, the same
/// `f64` sequence a per-pair intersection of the two adjacency lists
/// adds. The node-indexed accumulator is guarded by a generation stamp
/// (one bump per sweep clears it in O(1)).
#[derive(Default)]
struct Sweep {
    stamp: u32,
    acc: Vec<f64>,
    seen: Vec<u32>,
    /// The nodes the last sweep credited, in first-touch order.
    touched: Vec<NodeId>,
}

impl Sweep {
    fn grow(&mut self, bound: usize) {
        if self.acc.len() < bound {
            self.acc.resize(bound, 0.0);
            self.seen.resize(bound, 0);
        }
    }

    /// Scores `x` against every node two hops away, listing them in
    /// [`Sweep::touched`]. `wdeg` holds each node's weighted degree.
    fn run(&mut self, g: &WGraph, wdeg: &[u64], x: NodeId) {
        self.stamp += 1;
        self.touched.clear();
        let tx = wdeg[x.index()] as f64;
        for &(via, wx) in g.neighbor_slice(x) {
            let rx = wx as f64 / tx;
            for &(y, wy) in g.neighbor_slice(via) {
                if y == x {
                    continue;
                }
                let yi = y.index();
                if self.seen[yi] != self.stamp {
                    self.seen[yi] = self.stamp;
                    self.acc[yi] = 0.0;
                    self.touched.push(y);
                }
                self.acc[yi] += rx.min(wy as f64 / wdeg[yi] as f64);
            }
        }
    }

    /// `SIMILARITY(x, y)` for the last sweep's `x` and a `y` it touched.
    fn sim(&self, y: NodeId) -> f64 {
        (100.0 * self.acc[y.index()]).clamp(0.0, 100.0)
    }
}

/// `MEETCONNECTIONREQ`: average member connection counts within β.
fn meets_connection_req(beta: f64, a1: f64, a2: f64) -> bool {
    let hi = a1.max(a2);
    if hi == 0.0 {
        return true;
    }
    (a1 - a2).abs() <= beta * hi
}

/// `MEETSIMILARITYREQ`: the `K^hi`-gated threshold test.
fn meets_similarity_req(params: &Params, k1: u32, k2: u32, sim: f64) -> bool {
    let kmax = k1.max(k2);
    if kmax >= params.k_hi {
        sim >= params.s_hi
    } else {
        sim >= params.s_lo
    }
}

/// The merge candidates: every live pair whose current similarity
/// could pass `MEETSIMILARITYREQ`, i.e. `sim ≥ θ = min(S^lo, S^hi)`. It
/// is the source of truth the lazy heap is checked against.
///
/// The filter is exact. A pair below `θ` fails the similarity gate
/// under either threshold, so in an unfiltered heap it could only pop
/// as a rejection, which changes no state. Every pair whose similarity
/// changes is rescored after each merge, so a pair that rises to `θ` is
/// inserted and queued then, and one that drops below is removed. The
/// pairs at or above `θ` therefore queue and pop in the same order as
/// without the filter, and the merge sequence is the same to the bit.
///
/// Pairs live in one row per lower endpoint, indexed by
/// [`NodeId::index`], sorted by the higher endpoint. Rows of contracted
/// nodes are freed, and entries pointing at dead nodes are pruned when
/// their row is next walked; every such row is walked in the same merge
/// step (see [`Agglomeration::rescore`]), so the store holds exactly the
/// live candidate pairs between merges.
struct CandidateStore {
    theta: f64,
    rows: Vec<Vec<(NodeId, f64)>>,
    /// Entries across all rows.
    len: usize,
    /// The largest `len` seen between merges.
    peak: usize,
    /// A recycled row buffer for [`CandidateStore::rewrite_row`].
    spare: Vec<(NodeId, f64)>,
}

impl CandidateStore {
    /// An empty store over `bound` node ids.
    fn new(theta: f64, bound: usize) -> Self {
        CandidateStore {
            theta,
            rows: vec![Vec::new(); bound],
            len: 0,
            peak: 0,
            spare: Vec::new(),
        }
    }

    /// The keep rule: can a pair at `sim` ever pass the similarity gate?
    ///
    /// No `sim > 0` test is needed even at `θ = 0`: every pair this
    /// phase scores shares a via other than its endpoints (a [`Sweep`]
    /// credits only two-hop nodes, the triangle pairs share `m`), and
    /// every edge weight is at least 1, so every scored similarity is
    /// positive.
    fn keeps(&self, sim: f64) -> bool {
        sim >= self.theta
    }

    fn grow(&mut self, bound: usize) {
        if self.rows.len() < bound {
            self.rows.resize_with(bound, Vec::new);
        }
    }

    fn note_peak(&mut self) {
        self.peak = self.peak.max(self.len);
    }

    /// The stored similarity of pair `(a, b)`, `a < b`.
    fn get(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let row = &self.rows[a.index()];
        row.binary_search_by_key(&b, |&(p, _)| p)
            .ok()
            .map(|i| row[i].1)
    }

    /// Stores `(a, b, sim)` for a `b` above every partner in row `a`,
    /// so the row stays sorted.
    fn append(&mut self, a: NodeId, b: NodeId, sim: f64) {
        debug_assert!(self.rows[a.index()].last().is_none_or(|&(p, _)| p < b));
        self.rows[a.index()].push((b, sim));
        self.len += 1;
    }

    /// Drops row `n` (a contracted node).
    fn free(&mut self, n: NodeId) {
        let row = std::mem::take(&mut self.rows[n.index()]);
        self.len -= row.len();
    }

    /// Drops the entries of row `n` whose partner is no longer live.
    fn prune_dead(&mut self, g: &WGraph, n: NodeId) {
        let row = &mut self.rows[n.index()];
        if !row.is_empty() {
            let before = row.len();
            row.retain(|&(p, _)| g.contains_node(p));
            self.len -= before - row.len();
        }
    }

    /// Rewrites row `x` against `fresh` — new similarities for partners
    /// above `x`, ascending — in one walk of both sorted lists. Partners
    /// not in `fresh` keep their entry unless dead. A fresh value is
    /// stored when kept and passed to `queue` when it is also new or
    /// changed; a pair below the keep rule is dropped. Pairs that were
    /// never stored and stay below `θ` cost no lookup at all.
    fn rewrite_row(
        &mut self,
        g: &WGraph,
        x: NodeId,
        fresh: impl Iterator<Item = (NodeId, f64)>,
        mut queue: impl FnMut(NodeId, f64),
    ) {
        let old = std::mem::take(&mut self.rows[x.index()]);
        let mut row = std::mem::take(&mut self.spare);
        row.clear();
        let mut rest = old.iter().copied().peekable();
        for (y, s) in fresh {
            let mut prev = None;
            while let Some((p, sp)) = rest.next_if(|&(p, _)| p <= y) {
                if p == y {
                    prev = Some(sp);
                } else if g.contains_node(p) {
                    row.push((p, sp));
                }
            }
            if self.keeps(s) {
                row.push((y, s));
                if prev != Some(s) {
                    queue(y, s);
                }
            }
        }
        row.extend(rest.filter(|&(p, _)| g.contains_node(p)));
        self.len = self.len + row.len() - old.len();
        self.rows[x.index()] = row;
        self.spare = old;
    }
}

/// Runs the merging phase on a formation result.
///
/// `cs` must be the same connection sets the formation ran on (original
/// per-host connection counts feed the connection requirement and merged
/// `K` values).
///
/// Validates `params`, then merges.
pub fn try_merge_groups(
    cs: &ConnectionSets,
    formation: FormationResult,
    params: &Params,
) -> Result<MergeOutcome, ParamError> {
    params.validate()?;
    Ok(merge_groups_with(cs, formation, params, None))
}

/// Reused per-merge scratch for the neighbor-pair rescore. The
/// node-indexed arrays are guarded by a generation stamp (one bump per
/// use clears them in O(1)).
#[derive(Default)]
struct Scratch {
    stamp: u32,
    /// `N(m)` ascending, then per via its stamp, the
    /// number of `N(m)` members adjacent to it, and its bucket cursor.
    nbrs: Vec<NodeId>,
    via_stamp: Vec<u32>,
    via_count: Vec<u32>,
    via_pos: Vec<u32>,
    /// Vias adjacent to two or more members of `N(m)`, ascending.
    shared: Vec<NodeId>,
    /// `(member position, w / t_member)` per shared via, contiguous in
    /// `shared` order and ascending by position within each via.
    bucket: Vec<(u32, f64)>,
    /// The `|N(m)|²` accumulator, row-major by member position.
    mat: Vec<f64>,
}

impl Scratch {
    fn grow(&mut self, bound: usize) {
        if self.via_stamp.len() < bound {
            self.via_stamp.resize(bound, 0);
            self.via_count.resize(bound, 0);
            self.via_pos.resize(bound, 0);
        }
    }
}

/// The agglomeration loop's state: the shrinking group graph, the live
/// group table, the candidate store and its lazy max-heap.
///
/// The heap is lazy: a rescore pushes a fresh entry and leaves the old
/// one behind, and a pop discards entries whose endpoints died or whose
/// value no longer matches the store. Each merge therefore costs near
/// O(affected · log) instead of a full rescan.
struct Agglomeration<'a> {
    params: &'a Params,
    rec: Option<&'a telemetry::Recorder>,
    g: WGraph,
    info: GroupTable,
    /// Weighted degrees, extended per merge: contraction leaves every
    /// survivor's weighted degree intact (parallel edges into the merged
    /// node sum), so only the merged node ever needs a fresh entry.
    wdeg: Vec<u64>,
    store: CandidateStore,
    heap: BinaryHeap<HeapEntry>,
    /// Heap size that triggers the next compaction.
    compact_at: usize,
    /// Heap pops — live, stale, and dead alike — the work measure of
    /// the loop (the profile layer divides merge time by it). Tallied
    /// locally and folded into the registry once at the end.
    heap_pops: u64,
    /// The pops that merged nothing, by why: an endpoint already merged
    /// away (dead), a pair no longer stored or stored at another value
    /// (stale), or a current pair failing a Figure 3 requirement
    /// (rejected).
    dead_pops: u64,
    stale_pops: u64,
    rejected_pops: u64,
    /// Rejected pops blocked only by `K^hi`: the connection requirement
    /// holds and `S^lo ≤ sim < S^hi`, but a group formed at `K ≥ K^hi`
    /// demands `S^hi` (the paper's §6.4 caveat).
    near_miss_pops: u64,
    /// `|N(m)|` per merge, the side of `rescore_triangle`'s matrix;
    /// tallied only with a recorder attached.
    neighborhoods: Vec<u32>,
    merges: Vec<MergeEvent>,
    sweep: Sweep,
    scratch: Scratch,
}

/// Bucket bounds of `roleclass_engine_merge_neighborhood_size`:
/// powers of four, so the `|N(m)|²` rescoring cost grows sixteenfold
/// per bucket.
const NEIGHBORHOOD_BUCKETS: &[f64] = &[
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
];

/// Runs the merging phase with an optional recorder: emits one
/// `merge_considered` provenance event per considered pair, accepted
/// *and* rejected, with the Figure 3 gate that decided it. Only pairs
/// at or above `θ` are considered (see [`CandidateStore`]); pops that
/// die on liveness or staleness (the lazy-heap bookkeeping, not the
/// algorithm) emit nothing. With `None` the phase is exactly the
/// uninstrumented one.
pub(crate) fn merge_groups_with(
    cs: &ConnectionSets,
    formation: FormationResult,
    params: &Params,
    rec: Option<&telemetry::Recorder>,
) -> MergeOutcome {
    let mut agg = Agglomeration::start(cs, formation, params, rec);
    let agglomerate = telemetry::span(rec, "merge.agglomerate");
    while let Some((a, b, sim)) = agg.pop() {
        let m = agg.contract(a, b, sim);
        agg.rescore(m);
    }
    drop(agglomerate);
    if let Some(r) = rec {
        let reg = r.registry();
        reg.counter("roleclass_engine_merge_heap_pops_total")
            .add(agg.heap_pops);
        reg.counter("roleclass_engine_merge_dead_pops_total")
            .add(agg.dead_pops);
        reg.counter("roleclass_engine_merge_stale_pops_total")
            .add(agg.stale_pops);
        reg.counter("roleclass_engine_merge_rejected_pops_total")
            .add(agg.rejected_pops);
        reg.counter("roleclass_engine_merge_near_miss_pops_total")
            .add(agg.near_miss_pops);
        let sizes = reg.histogram(
            "roleclass_engine_merge_neighborhood_size",
            NEIGHBORHOOD_BUCKETS,
        );
        for &n in &agg.neighborhoods {
            sizes.observe(f64::from(n));
        }
        reg.gauge("roleclass_engine_merge_candidates_peak")
            .set(agg.store.peak as i64);
    }
    agg.assemble()
}

impl<'a> Agglomeration<'a> {
    /// The loop over a formation result, seeded by the `score` stage:
    /// one [`Sweep`] from each live node `x` stores, in ascending `y`,
    /// every pair `(x, y > x)` the store keeps. Heapify runs in one pass;
    /// pop order is fully determined by the entries' total order, so
    /// construction strategy cannot change the merge sequence.
    fn start(
        cs: &ConnectionSets,
        formation: FormationResult,
        params: &'a Params,
        rec: Option<&'a telemetry::Recorder>,
    ) -> Self {
        let g = formation.graph;
        let bound = g.id_bound();
        let mut info: GroupTable = vec![None; bound];
        for (pg, &n) in formation.groups.iter().zip(&formation.node_of_group) {
            info[n.index()] = Some(GroupInfo::new(cs, &pg.members, pg.k));
        }
        let mut wdeg = vec![0u64; bound];
        for n in g.nodes() {
            wdeg[n.index()] = g.weighted_degree(n);
        }
        let mut store = CandidateStore::new(params.s_lo.min(params.s_hi), bound);
        let mut sweep = Sweep::default();
        sweep.grow(bound);
        let mut entries = Vec::new();
        let score = telemetry::span(rec, "merge.score");
        for x in g.nodes() {
            sweep.run(&g, &wdeg, x);
            sweep.touched.retain(|&y| y > x);
            sweep.touched.sort_unstable();
            for &y in &sweep.touched {
                let s = sweep.sim(y);
                if store.keeps(s) {
                    store.append(x, y, s);
                    entries.push(heap_entry(x, y, s));
                }
            }
        }
        drop(score);
        store.note_peak();
        let heap = BinaryHeap::from(entries);
        let mut scratch = Scratch::default();
        scratch.grow(bound);
        Agglomeration {
            params,
            rec,
            g,
            info,
            wdeg,
            store,
            compact_at: compaction_point(heap.len()),
            heap,
            heap_pops: 0,
            dead_pops: 0,
            stale_pops: 0,
            rejected_pops: 0,
            near_miss_pops: 0,
            neighborhoods: Vec::new(),
            merges: Vec::new(),
            sweep,
            scratch,
        }
    }

    /// Lazy invalidation piles superseded entries up in the heap. When
    /// it outgrows twice its size after the last compaction, one linear
    /// pass keeps exactly the entries a pop would act on — live
    /// endpoints, value still current — and re-heapifies. The survivors
    /// pop in the same total order, and a pair's current value always
    /// has the entry pushed at its latest change, so no dropped entry
    /// was needed and compaction cannot change the merge sequence; it
    /// converts many cache-hostile `O(log n)` discard pops into an
    /// amortized linear scan.
    fn compact(&mut self) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|&(osim, Reverse((a, b)))| {
            self.g.contains_node(a)
                && self.g.contains_node(b)
                && self.store.get(a, b).map(OrdSim::new) == Some(osim)
        });
        self.heap = BinaryHeap::from(entries);
        self.compact_at = compaction_point(self.heap.len());
    }

    /// Stage `pop`: pops until a live, current pair passes both Figure 3
    /// requirements, journaling every pair it considers. Discarding a
    /// rejected pair is sound: while both endpoints live and the
    /// similarity is unchanged, both eligibility inputs (average member
    /// connections and the K labels) are immutable — any change replaces
    /// a node id and thus invalidates by liveness.
    fn pop(&mut self) -> Option<(NodeId, NodeId, f64)> {
        if self.heap.len() > self.compact_at {
            self.compact();
        }
        let params = self.params;
        while let Some((osim, Reverse((a, b)))) = self.heap.pop() {
            self.heap_pops += 1;
            if !self.g.contains_node(a) || !self.g.contains_node(b) {
                self.dead_pops += 1;
                continue;
            }
            let current = match self.store.get(a, b) {
                Some(current) if OrdSim::new(current) == osim => current,
                // Dropped below θ, or rescored: a fresher entry, if any,
                // is in the heap.
                _ => {
                    self.stale_pops += 1;
                    continue;
                }
            };
            let (ia, ib) = (group(&self.info, a), group(&self.info, b));
            let conn_ok = meets_connection_req(params.beta, ia.avg_conns(), ib.avg_conns());
            let sim_ok = meets_similarity_req(params, ia.k, ib.k, current);
            let k_gate_hi = ia.k.max(ib.k) >= params.k_hi;
            if let Some(r) = self.rec {
                let verdict = if !conn_ok {
                    "rejected_connection"
                } else if !sim_ok {
                    "rejected_similarity"
                } else {
                    "merged"
                };
                r.events().record(
                    "engine",
                    "roleclass_engine_merge_considered",
                    vec![
                        ("left", ia.members[0].to_string().into()),
                        ("right", ib.members[0].to_string().into()),
                        ("left_size", ia.members.len().into()),
                        ("right_size", ib.members.len().into()),
                        ("left_k", ia.k.into()),
                        ("right_k", ib.k.into()),
                        ("similarity", current.into()),
                        ("gate", if k_gate_hi { "s_hi" } else { "s_lo" }.into()),
                        (
                            "threshold",
                            if k_gate_hi { params.s_hi } else { params.s_lo }.into(),
                        ),
                        ("connection_req", conn_ok.into()),
                        ("verdict", verdict.into()),
                    ],
                );
            }
            if conn_ok && sim_ok {
                return Some((a, b, current));
            }
            self.rejected_pops += 1;
            if conn_ok && k_gate_hi && current >= params.s_lo {
                self.near_miss_pops += 1;
            }
        }
        None
    }

    /// Merges groups `a` and `b` into a fresh node `m` and returns it.
    fn contract(&mut self, a: NodeId, b: NodeId, sim: f64) -> NodeId {
        let ia = self.info[a.index()].take().expect("merge endpoint alive");
        let ib = self.info[b.index()].take().expect("merge endpoint alive");
        self.merges.push(MergeEvent {
            left: ia.members.clone(),
            right: ib.members.clone(),
            similarity: sim,
        });
        let (m, _internal) = self.g.contract(&[a, b]);
        self.store.free(a);
        self.store.free(b);
        let bound = self.g.id_bound();
        self.wdeg.resize(bound, 0);
        self.info.resize(bound, None);
        self.store.grow(bound);
        self.sweep.grow(bound);
        self.scratch.grow(bound);
        self.wdeg[m.index()] = self.g.weighted_degree(m);
        let mut members = ia.members;
        members.extend(ib.members);
        members.sort_unstable();
        // "The K value of a newly merged group is set to the minimum
        // number of connections a host in the group has."
        let min_deg = ia.min_deg.min(ib.min_deg);
        self.info[m.index()] = Some(GroupInfo {
            members,
            k: min_deg,
            sum_deg: ia.sum_deg + ib.sum_deg,
            min_deg,
        });
        m
    }

    /// Stage `rescore`: recomputes every pair whose similarity the merge
    /// into `m` can have changed, and prunes every store entry that
    /// points at the two contracted nodes. Such an entry `(y, a)` means
    /// `y` and `a` shared a via `v ≠ a`: either `v` is now adjacent to
    /// `m`, so the walks below reach `y` through it, or `v = b` and `y`
    /// is itself in `N(m)`.
    ///
    /// Contraction leaves every survivor's weighted degree intact, so a
    /// similarity only moves when a contribution routed *via* the merged
    /// node appears or changes: the dirty set is exactly the pairs
    /// involving `m` plus the pairs with both endpoints in `N(m)`.
    fn rescore(&mut self, m: NodeId) {
        if self.rec.is_some() {
            self.neighborhoods
                .push(self.g.neighbor_slice(m).len() as u32);
        }
        self.rescore_sweep(m);
        self.rescore_triangle(m);
        self.store.note_peak();
    }

    /// All `(m, y)` similarities from one [`Sweep`] from `m`. Every
    /// touched row is pruned of dead partners.
    fn rescore_sweep(&mut self, m: NodeId) {
        let Agglomeration {
            g,
            wdeg,
            store,
            heap,
            sweep,
            ..
        } = self;
        sweep.run(g, wdeg, m);
        for &y in &sweep.touched {
            let s = sweep.sim(y);
            store.prune_dead(g, y);
            // `m` is the newest id, so `(y, m)` is new and sorts last.
            if store.keeps(s) {
                store.append(y, m, s);
                heap.push(heap_entry(y, m, s));
            }
        }
    }

    /// Pairs with both endpoints in `N(m)`: every one has `m` as a
    /// common neighbor, so all need fresh values. Rather than
    /// re-intersecting adjacency lists per pair, invert by common
    /// neighbor into the `|N(m)|²` matrix. A counting pass finds the
    /// vias adjacent to two or more members of `N(m)`; only those are
    /// sorted and bucketed, members in ascending position. Walking the
    /// buckets in ascending via order adds each pair's terms in
    /// ascending common-neighbor order — the addition sequence of a
    /// [`Sweep`] — so the values are bit-identical to one. Each member's
    /// store row is then rewritten against its row of the matrix.
    fn rescore_triangle(&mut self, m: NodeId) {
        let Agglomeration {
            g,
            wdeg,
            store,
            heap,
            scratch: sc,
            ..
        } = self;
        sc.nbrs.clear();
        sc.nbrs.extend(g.neighbor_slice(m).iter().map(|&(x, _)| x));
        let n = sc.nbrs.len();

        sc.stamp += 1;
        let stamp = sc.stamp;
        sc.shared.clear();
        for &x in &sc.nbrs {
            for &(via, _) in g.neighbor_slice(x) {
                let vi = via.index();
                if sc.via_stamp[vi] != stamp {
                    sc.via_stamp[vi] = stamp;
                    sc.via_count[vi] = 0;
                }
                sc.via_count[vi] += 1;
                if sc.via_count[vi] == 2 {
                    sc.shared.push(via);
                }
            }
        }
        sc.shared.sort_unstable();
        let mut total = 0u32;
        for &v in &sc.shared {
            sc.via_pos[v.index()] = total;
            total += sc.via_count[v.index()];
        }
        sc.bucket.clear();
        sc.bucket.resize(total as usize, (0, 0.0));
        for (xi, &x) in sc.nbrs.iter().enumerate() {
            let tx = wdeg[x.index()] as f64;
            for &(via, w) in g.neighbor_slice(x) {
                let vi = via.index();
                // Every via here was stamped by the counting pass.
                if sc.via_count[vi] >= 2 {
                    sc.bucket[sc.via_pos[vi] as usize] = (xi as u32, w as f64 / tx);
                    sc.via_pos[vi] += 1;
                }
            }
        }
        sc.mat.clear();
        sc.mat.resize(n * n, 0.0);
        let mut start = 0;
        for &v in &sc.shared {
            let end = sc.via_pos[v.index()] as usize;
            let members = &sc.bucket[start..end];
            for (p, &(xi, rx)) in members.iter().enumerate() {
                let row = xi as usize * n;
                for &(yi, ry) in &members[p + 1..] {
                    sc.mat[row + yi as usize] += rx.min(ry);
                }
            }
            start = end;
        }

        for (xi, &x) in sc.nbrs.iter().enumerate() {
            let fresh = (xi + 1..n).map(|yi| {
                let s = (100.0 * sc.mat[xi * n + yi]).clamp(0.0, 100.0);
                (sc.nbrs[yi], s)
            });
            store.rewrite_row(g, x, fresh, |y, s| heap.push(heap_entry(x, y, s)));
        }
    }

    /// Stage `assemble`: the final grouping, ids by descending size then
    /// members.
    fn assemble(self) -> MergeOutcome {
        let Agglomeration {
            g,
            mut info,
            merges,
            ..
        } = self;
        let mut final_nodes: Vec<NodeId> = g.nodes().collect();
        final_nodes.sort_by(|&x, &y| {
            let (gx, gy) = (group(&info, x), group(&info, y));
            gy.members
                .len()
                .cmp(&gx.members.len())
                .then_with(|| gx.members.cmp(&gy.members))
        });
        let groups = final_nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let gi = info[n.index()].take().expect("final group alive");
                Group {
                    id: GroupId(i as u32),
                    k: gi.k,
                    members: gi.members,
                }
            })
            .collect();
        MergeOutcome {
            grouping: Grouping::new(groups),
            merges,
            graph: g,
            node_of_group: final_nodes,
        }
    }
}

/// Heap size above which [`Agglomeration::compact`] runs next.
fn compaction_point(heap_len: usize) -> usize {
    (2 * heap_len).max(1 << 20)
}

/// The group most similar to group `id` of `grouping`, by the merge
/// phase's `SIMILARITY(G1, G2)` on the grouping's contracted graph (one
/// node per group, edge weights the inter-group connection counts). For
/// a final grouping this names the pair that came closest to merging
/// with `id`. Ties go to the smaller id; `None` when `id` is unknown or
/// shares no neighbor with any group.
pub fn nearest_group(
    cs: &ConnectionSets,
    grouping: &Grouping,
    id: GroupId,
) -> Option<(GroupId, f64)> {
    let groups = grouping.groups();
    let node = |gid: GroupId| {
        let i = groups.binary_search_by_key(&gid, |g| g.id).ok()?;
        Some(NodeId::from_index(i))
    };
    let x = node(id)?;
    let mut g = WGraph::with_capacity(groups.len());
    g.add_nodes(groups.len());
    for (i, gr) in groups.iter().enumerate() {
        for &h in &gr.members {
            for n in cs.neighbors(h).into_iter().flatten() {
                match grouping.group_of(n).and_then(node) {
                    Some(y) if h < n && y.index() != i => {
                        g.add_edge(NodeId::from_index(i), y, 1);
                    }
                    _ => {}
                }
            }
        }
    }
    let wdeg: Vec<u64> = (0..groups.len())
        .map(|i| g.weighted_degree(NodeId::from_index(i)))
        .collect();
    let mut sweep = Sweep::default();
    sweep.grow(groups.len());
    sweep.run(&g, &wdeg, x);
    sweep
        .touched
        .iter()
        .map(|&y| (groups[y.index()].id, sweep.sim(y)))
        .min_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formation::try_form_groups;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    /// Figure 1 network, M = N = 3 (see formation tests for the layout).
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

    fn run(cs: &ConnectionSets, params: &Params) -> MergeOutcome {
        try_merge_groups(cs, try_form_groups(cs, params).unwrap(), params).unwrap()
    }

    #[test]
    fn connection_requirement_math() {
        assert!(meets_connection_req(0.5, 4.0, 4.0));
        assert!(meets_connection_req(0.5, 4.0, 2.0)); // diff 2 <= 0.5*4
        assert!(!meets_connection_req(0.5, 10.0, 4.0)); // diff 6 > 5
        assert!(meets_connection_req(0.5, 0.0, 0.0));
        assert!(!meets_connection_req(0.0, 3.0, 2.0));
    }

    #[test]
    fn similarity_requirement_gating() {
        let p = Params::default(); // s_hi=80, s_lo=55, k_hi=7
        assert!(meets_similarity_req(&p, 3, 2, 60.0)); // low K -> s_lo
        assert!(!meets_similarity_req(&p, 3, 2, 50.0));
        assert!(meets_similarity_req(&p, 9, 2, 85.0)); // high K -> s_hi
        assert!(!meets_similarity_req(&p, 9, 2, 60.0)); // 60 < s_hi
    }

    #[test]
    fn figure1_collapses_to_two_groups_at_default_slo() {
        // Section 6.4: "If S^lo is too low, Mail, Web, SalesDatabase, and
        // SourceRevisionControl will all be placed in one group, whereas
        // all sales and engineering machines will be placed in another."
        // On the toy network the default S^lo = 55 sits on that side of
        // the knee.
        let out = run(&figure1(), &Params::default());
        assert_eq!(out.grouping.group_count(), 2);
        let mut sizes: Vec<usize> = out.grouping.groups().iter().map(|g| g.len()).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(sizes, vec![6, 4]); // 6 clients, 4 servers
        let servers = out.grouping.groups().iter().find(|g| g.len() == 4).unwrap();
        assert_eq!(servers.members, vec![h(1), h(2), h(3), h(4)]);
    }

    #[test]
    fn figure1_keeps_five_groups_at_high_slo() {
        // On the other side of the knee the formation-phase structure
        // survives verbatim.
        let p = Params::default().with_s_lo(90.0).with_s_hi(95.0);
        let out = run(&figure1(), &p);
        assert_eq!(out.grouping.group_count(), 5);
        assert!(out.merges.is_empty());
    }

    #[test]
    fn slo_sweep_is_monotone_on_figure1() {
        let mut last = 0;
        for s_lo in [0.0, 20.0, 40.0, 55.0, 70.0, 90.0, 99.0] {
            let p = Params::default().with_s_lo(s_lo).with_s_hi(99.5);
            let out = run(&figure1(), &p);
            assert!(
                out.grouping.group_count() >= last,
                "group count decreased at s_lo={s_lo}"
            );
            last = out.grouping.group_count();
        }
    }

    #[test]
    fn connection_requirement_blocks_mismatched_merges() {
        // Two hub-and-spoke stars that share spokes: the hubs have very
        // different connection counts from the spokes, and beta = 0
        // forbids merging anything whose averages differ at all.
        let cs = figure1();
        let p = Params::default()
            .with_beta(0.0)
            .with_s_lo(1.0)
            .with_s_hi(99.0);
        let out = run(&cs, &p);
        // Sales (3 conns each) and eng (3 conns each) can still merge,
        // but the 6-connection servers cannot merge with 3-connection
        // databases.
        for ev in &out.merges {
            let avg = |ms: &Vec<HostAddr>| {
                ms.iter().map(|&m| cs.degree(m).unwrap()).sum::<usize>() as f64 / ms.len() as f64
            };
            assert_eq!(avg(&ev.left), avg(&ev.right));
        }
    }

    #[test]
    fn merged_k_is_min_member_connections() {
        let out = run(&figure1(), &Params::default());
        let servers = out
            .grouping
            .groups()
            .iter()
            .find(|g| g.contains(h(1)))
            .unwrap();
        // Server group contains the 3-connection databases: K = 3.
        assert_eq!(servers.k, 3);
    }

    #[test]
    fn partition_stays_total_after_merging() {
        let cs = figure1();
        let out = run(&cs, &Params::default());
        assert_eq!(out.grouping.host_count(), cs.host_count());
        assert_eq!(out.graph.node_count(), out.grouping.group_count());
        assert_eq!(out.node_of_group.len(), out.grouping.group_count());
    }

    #[test]
    fn merge_trace_matches_group_count_delta() {
        let cs = figure1();
        let formation = try_form_groups(&cs, &Params::default()).unwrap();
        let before = formation.groups.len();
        let out = try_merge_groups(&cs, formation, &Params::default()).unwrap();
        assert_eq!(before - out.merges.len(), out.grouping.group_count());
    }

    /// Near-miss pops are the rejections `K^hi` alone decided: none
    /// while every Figure 1 group sits below `K^hi`, some once
    /// `K^hi = 1` holds its pairs in `[S^lo, S^hi)` to `S^hi`. The
    /// neighborhood histogram observes once per merge.
    #[test]
    fn near_misses_and_neighborhoods_are_counted() {
        let cs = figure1();
        for (k_hi, blocked) in [(7, false), (1, true)] {
            let params = Params::default().with_k_hi(k_hi);
            let rec = telemetry::Recorder::new();
            let formation = try_form_groups(&cs, &params).unwrap();
            let out = merge_groups_with(&cs, formation, &params, Some(&rec));
            let reg = rec.registry();
            let near = reg
                .counter("roleclass_engine_merge_near_miss_pops_total")
                .get();
            let rejected = reg
                .counter("roleclass_engine_merge_rejected_pops_total")
                .get();
            assert_eq!(near > 0, blocked, "K^hi = {k_hi}");
            assert!(near <= rejected);
            let sizes = reg.histogram(
                "roleclass_engine_merge_neighborhood_size",
                NEIGHBORHOOD_BUCKETS,
            );
            assert_eq!(sizes.count(), out.merges.len() as u64);
        }
    }

    /// From-scratch `SIMILARITY(x, y)`: intersects the two sorted
    /// adjacency lists, reading the weighted degrees off the graph.
    fn pairwise(g: &WGraph, x: NodeId, y: NodeId) -> f64 {
        let tx = g.weighted_degree(x) as f64;
        let ty = g.weighted_degree(y) as f64;
        let sy = g.neighbor_slice(y);
        let acc = g
            .neighbor_slice(x)
            .iter()
            .filter_map(|&(via, wx)| {
                let i = sy.binary_search_by_key(&via, |&(n, _)| n).ok()?;
                Some((wx as f64 / tx).min(sy[i].1 as f64 / ty))
            })
            .fold(0.0, |acc, t| acc + t);
        (100.0 * acc).clamp(0.0, 100.0)
    }

    /// Every pair a sweep scores, as `(x, y, sim)`.
    fn sweep_all(g: &WGraph) -> Vec<(NodeId, NodeId, f64)> {
        let mut wdeg = vec![0u64; g.id_bound()];
        for n in g.nodes() {
            wdeg[n.index()] = g.weighted_degree(n);
        }
        let mut sweep = Sweep::default();
        sweep.grow(g.id_bound());
        let mut out = Vec::new();
        for x in g.nodes() {
            sweep.run(g, &wdeg, x);
            out.extend(sweep.touched.iter().map(|&y| (x, y, sweep.sim(y))));
        }
        out
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let cs = figure1();
        let formation = try_form_groups(&cs, &Params::default()).unwrap();
        let scored = sweep_all(&formation.graph);
        assert!(!scored.is_empty());
        for &(x, y, sxy) in &scored {
            let &(_, _, syx) = scored
                .iter()
                .find(|&&(a, b, _)| (a, b) == (y, x))
                .expect("sweeps are symmetric");
            assert!((sxy - syx).abs() < 1e-9, "asymmetric similarity");
            assert!((0.0..=100.0).contains(&sxy));
        }
    }

    /// A sweep scores exactly the pairs sharing a neighbor, each at the
    /// pairwise intersection's value to the bit.
    #[test]
    fn sweep_equals_pairwise_to_the_bit() {
        let cs = synthnet::scenarios::mazu(42).connsets;
        let formation = try_form_groups(&cs, &Params::default()).unwrap();
        let g = &formation.graph;
        let mut got: Vec<(NodeId, NodeId, u64)> = sweep_all(g)
            .into_iter()
            .map(|(x, y, s)| (x, y, s.to_bits()))
            .collect();
        got.sort_unstable();
        let mut expected = Vec::new();
        for x in g.nodes() {
            for y in g.nodes() {
                let s = pairwise(g, x, y);
                if x != y && s > 0.0 {
                    expected.push((x, y, s.to_bits()));
                }
            }
        }
        assert!(expected.len() > 100, "{} pairs", expected.len());
        assert_eq!(got, expected);
    }

    /// [`nearest_group`] on the final grouping's graph, relabeled so
    /// node `i` is group `i`: the highest pairwise similarity, the
    /// smaller id on ties.
    fn nearest_from_scratch(out: &MergeOutcome, id: GroupId) -> Option<(GroupId, u64)> {
        let groups = out.grouping.groups();
        let index_of = |n: NodeId| out.node_of_group.iter().position(|&m| m == n).unwrap();
        let mut g = WGraph::with_capacity(groups.len());
        g.add_nodes(groups.len());
        for (i, &n) in out.node_of_group.iter().enumerate() {
            for (nbr, w) in out.graph.neighbors(n) {
                let j = index_of(nbr);
                if i < j {
                    g.add_edge(NodeId::from_index(i), NodeId::from_index(j), w);
                }
            }
        }
        let x = groups.iter().position(|gr| gr.id == id)?;
        let mut best: Option<(GroupId, f64)> = None;
        for (j, gr) in groups.iter().enumerate() {
            let s = pairwise(&g, NodeId::from_index(x), NodeId::from_index(j));
            if j != x && s > 0.0 && best.is_none_or(|(b, bs)| s > bs || (s == bs && gr.id < b)) {
                best = Some((gr.id, s));
            }
        }
        best.map(|(gid, s)| (gid, s.to_bits()))
    }

    #[test]
    fn nearest_group_matches_from_scratch_on_mazu() {
        let cs = synthnet::scenarios::mazu(42).connsets;
        let out = run(&cs, &Params::default());
        let groups = out.grouping.groups();
        assert!(groups.len() > 10);
        let mut answered = 0;
        for gr in groups.iter().step_by(3) {
            let got = nearest_group(&cs, &out.grouping, gr.id).map(|(g, s)| (g, s.to_bits()));
            assert_eq!(got, nearest_from_scratch(&out, gr.id), "group {:?}", gr.id);
            answered += usize::from(got.is_some());
        }
        assert!(answered > 3, "{answered} groups have a nearest group");
        assert_eq!(nearest_group(&cs, &out.grouping, GroupId(u32::MAX)), None);
    }

    #[test]
    fn nearest_group_ties_go_to_the_smaller_id() {
        // At S^lo = 90 Figure 1 keeps {1, 2}, {3} and {4} apart. {3} and
        // {4} each share one client group with {1, 2}, and score the
        // same against it.
        let cs = figure1();
        let out = run(&cs, &Params::default().with_s_lo(90.0).with_s_hi(95.0));
        let of = |x| out.grouping.group_of(h(x)).unwrap();
        let (pair, three, four) = (of(1), of(3), of(4));
        assert_eq!(of(2), pair);
        assert!(three < four);
        let (nearest, sim) = nearest_group(&cs, &out.grouping, pair).unwrap();
        assert_eq!((nearest, sim), (three, 50.0));
        assert_eq!(
            nearest_from_scratch(&out, pair),
            Some((three, sim.to_bits()))
        );
    }

    /// After seeding and after every merge, the store holds exactly the
    /// live pairs whose from-scratch similarity passes the keep rule, at
    /// that similarity to the bit, and nothing pointing at a dead node.
    #[test]
    fn store_holds_exactly_the_live_pairs_at_or_above_theta() {
        let cs = synthnet::scenarios::mazu(42).connsets;
        let params = Params::default().with_s_lo(20.0).with_s_hi(40.0);
        let formation = try_form_groups(&cs, &params).unwrap();
        let mut agg = Agglomeration::start(&cs, formation, &params, None);
        let check = |agg: &Agglomeration| {
            let live: Vec<NodeId> = agg.g.nodes().collect();
            let mut expected = Vec::new();
            for (i, &x) in live.iter().enumerate() {
                for &y in &live[i + 1..] {
                    let s = pairwise(&agg.g, x, y);
                    if agg.store.keeps(s) {
                        expected.push((x, y, s.to_bits()));
                    }
                }
            }
            let stored: Vec<(NodeId, NodeId, u64)> = (0..agg.store.rows.len())
                .flat_map(|a| {
                    agg.store.rows[a]
                        .iter()
                        .map(move |&(b, s)| (NodeId::from_index(a), b, s.to_bits()))
                })
                .collect();
            assert_eq!(stored, expected);
            assert_eq!(agg.store.len, stored.len());
        };
        check(&agg);
        let mut merges = 0;
        while let Some((a, b, sim)) = agg.pop() {
            let m = agg.contract(a, b, sim);
            agg.rescore(m);
            check(&agg);
            merges += 1;
        }
        assert!(merges > 10, "{merges} merges");
        assert!(agg.store.peak >= agg.store.len);
    }

    #[test]
    fn try_merge_groups_rejects_invalid_params() {
        let cs = figure1();
        let formation = try_form_groups(&cs, &Params::default()).unwrap();
        let bad = Params {
            beta: -1.0,
            ..Params::default()
        };
        assert!(try_merge_groups(&cs, formation, &bad).is_err());
    }

    #[test]
    fn disconnected_components_never_merge() {
        // Two disjoint client-server stars: no common neighbors across
        // components, hence zero similarity, hence no merge even at
        // S^lo = 0-ish.
        let mut cs = ConnectionSets::new();
        for c in [11, 12, 13] {
            cs.add_pair(h(c), h(1));
        }
        for c in [21, 22, 23] {
            cs.add_pair(h(c), h(2));
        }
        let p = Params::default().with_s_lo(0.0).with_s_hi(0.5);
        let out = run(&cs, &p);
        let left = out.grouping.group_of(h(11));
        let right = out.grouping.group_of(h(21));
        assert_ne!(left, right);
    }
}
