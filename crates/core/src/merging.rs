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

use crate::config::EngineConfig;
use crate::formation::FormationResult;
use crate::group::{Group, GroupId, Grouping};
use crate::params::{ParamError, Params};
use flow::{ConnectionSets, HostAddr};
use netgraph::{NodeId, WGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Total order over non-negative similarities via the IEEE-754 bit
/// trick (monotone for non-negative floats), for heap keying.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OrdSim(u64);

impl OrdSim {
    fn new(sim: f64) -> Self {
        debug_assert!(sim >= 0.0, "similarities are non-negative");
        OrdSim(sim.to_bits())
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

/// Computes the Figure 3 `SIMILARITY(G1, G2)` on the current group graph:
/// the sum over common neighbors `G'` of `min(CP(G', G1)/t_1,
/// CP(G', G2)/t_2)`, where `t_i` is group `Gi`'s total connection count,
/// scaled to `[0, 100]`. The pseudo-code is ambiguous about this
/// normalization (`DESIGN.md` §5, note 2); the literal reading lives in
/// the `roleclass-spec` crate.
fn similarity(g: &WGraph, wdeg: &[u64], x: NodeId, y: NodeId) -> f64 {
    let tx = wdeg[x.index()] as f64;
    let ty = wdeg[y.index()] as f64;
    if tx == 0.0 || ty == 0.0 {
        return 0.0;
    }
    let sx = g.neighbor_slice(x);
    let sy = g.neighbor_slice(y);
    let term = |wa: u64, wb: u64| -> f64 { (wa as f64 / tx).min(wb as f64 / ty) };
    // Intersect the sorted adjacency lists. Either strategy visits the
    // common neighbors in ascending id order, so the floating-point
    // accumulation sequence — and hence the result, to the last bit —
    // is the same; the choice is purely a cost model (a linear merge
    // for comparable degrees, probing the larger list for lopsided
    // ones, e.g. a small group against a hub).
    let mut acc = 0.0f64;
    let (small, big, small_is_x) = if sx.len() <= sy.len() {
        (sx, sy, true)
    } else {
        (sy, sx, false)
    };
    if small.len() * 8 < big.len() {
        for &(via, ws) in small {
            if via == x || via == y {
                continue;
            }
            if let Ok(i) = big.binary_search_by_key(&via, |&(n, _)| n) {
                let wb = big[i].1;
                acc += if small_is_x {
                    term(ws, wb)
                } else {
                    term(wb, ws)
                };
            }
        }
    } else {
        let (mut i, mut j) = (0, 0);
        while i < small.len() && j < big.len() {
            let (a, ws) = small[i];
            let (b, wb) = big[j];
            match a.cmp(&b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if a != x && a != y {
                        acc += if small_is_x {
                            term(ws, wb)
                        } else {
                            term(wb, ws)
                        };
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    (100.0 * acc).clamp(0.0, 100.0)
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

    /// Stores the `(a, b, sim)` triples of `kept`, which must be sorted
    /// by pair with `a < b`, above every stored pair, and already
    /// filtered by [`CandidateStore::keeps`].
    fn extend(&mut self, kept: &[(NodeId, NodeId, f64)]) {
        for &(a, b, s) in kept {
            self.rows[a.index()].push((b, s));
        }
        self.len += kept.len();
        self.note_peak();
    }

    /// The keep rule: can a pair at `sim` ever pass the similarity gate?
    ///
    /// No `sim > 0` test is needed even at `θ = 0`: every pair this
    /// phase scores shares a via other than its endpoints (the
    /// candidates are two-hop pairs, the sweep walks `m`'s vias, the
    /// triangle pairs share `m`), and every edge weight is at least 1,
    /// so every scored similarity is positive.
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

    /// Stores `(y, m, sim)` for an `m` above every id already stored
    /// anywhere (a freshly contracted node), so the row stays sorted.
    fn append(&mut self, y: NodeId, m: NodeId, sim: f64) {
        debug_assert!(self.rows[y.index()].last().is_none_or(|&(p, _)| p < m));
        self.rows[y.index()].push((m, sim));
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
    Ok(merge_groups_validated(cs, formation, params))
}

/// The merging phase proper, with default execution knobs. Callers must
/// have validated `params`.
pub(crate) fn merge_groups_validated(
    cs: &ConnectionSets,
    formation: FormationResult,
    params: &Params,
) -> MergeOutcome {
    merge_groups_with(cs, formation, &EngineConfig::new(*params), None)
}

/// Stage `candidates`: every pair of groups sharing a neighbor, sorted
/// and deduplicated, lower endpoint first. Pairs sharing nothing have
/// similarity 0 and can never merge.
fn candidates(g: &WGraph) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for x in g.nodes() {
        for &(via, _) in g.neighbor_slice(x) {
            for &(y, _) in g.neighbor_slice(via) {
                if y > x {
                    pairs.push((x, y));
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Stage `score`: the similarity of every candidate pair, keeping the
/// `(a, b, sim)` triples `keep` accepts, in pair order. The sorted pair
/// list is split into contiguous chunks across scoped worker threads.
/// Each score is a pure function of the shared immutable graph and
/// group table, and chunk results are concatenated in chunk order, so
/// the output is bit-identical at any worker count.
fn score_pairs(
    g: &WGraph,
    wdeg: &[u64],
    pairs: &[(NodeId, NodeId)],
    keep: impl Fn(f64) -> bool + Sync,
    workers: usize,
) -> Vec<(NodeId, NodeId, f64)> {
    let score = |part: &[(NodeId, NodeId)]| -> Vec<(NodeId, NodeId, f64)> {
        part.iter()
            .map(|&(x, y)| (x, y, similarity(g, wdeg, x, y)))
            .filter(|&(_, _, s)| keep(s))
            .collect()
    };
    // Don't spin up threads for workloads where the spawn overhead
    // dominates; the cutoff cannot change the result, only the split.
    const MIN_PAIRS_PER_WORKER: usize = 128;
    let workers = workers.clamp(1, (pairs.len() / MIN_PAIRS_PER_WORKER).max(1));
    if workers == 1 {
        return score(pairs);
    }
    let chunk = pairs.len().div_ceil(workers);
    let score = &score;
    std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|part| s.spawn(move || score(part)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("merge scoring worker panicked"))
            .collect()
    })
}

/// Reused per-merge scratch for the rescore stages. The node-indexed
/// arrays are guarded by a generation stamp (one bump per use clears
/// them in O(1)).
#[derive(Default)]
struct Scratch {
    stamp: u32,
    /// `(m, y)` sweep: per-`y` accumulator, its stamp, and the `y`s
    /// touched this generation.
    sweep_acc: Vec<f64>,
    sweep_stamp: Vec<u32>,
    touched: Vec<NodeId>,
    /// Neighbor-pair pass: `N(m)` ascending, then per via its stamp, the
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
        if self.sweep_acc.len() < bound {
            self.sweep_acc.resize(bound, 0.0);
            self.sweep_stamp.resize(bound, 0);
            self.via_stamp.resize(bound, 0);
            self.via_count.resize(bound, 0);
            self.via_pos.resize(bound, 0);
        }
    }

    fn next_stamp(&mut self) -> u32 {
        self.stamp += 1;
        self.stamp
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
    merges: Vec<MergeEvent>,
    scratch: Scratch,
}

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
    cfg: &EngineConfig,
    rec: Option<&telemetry::Recorder>,
) -> MergeOutcome {
    let mut agg = Agglomeration::start(cs, formation, cfg, rec);
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
        reg.gauge("roleclass_engine_merge_candidates_peak")
            .set(agg.store.peak as i64);
    }
    agg.assemble()
}

impl<'a> Agglomeration<'a> {
    /// The loop over a formation result, seeded by the `candidates` and
    /// `score` stages with every pair the store keeps. Heapify runs in
    /// one pass; pop order is fully determined by the entries' total
    /// order, so construction strategy cannot change the merge sequence.
    fn start(
        cs: &ConnectionSets,
        formation: FormationResult,
        cfg: &'a EngineConfig,
        rec: Option<&'a telemetry::Recorder>,
    ) -> Self {
        let params = &cfg.params;
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
        let pairs = {
            let _s = telemetry::span(rec, "merge.candidates");
            candidates(&g)
        };
        let kept = {
            let _s = telemetry::span(rec, "merge.score");
            score_pairs(
                &g,
                &wdeg,
                &pairs,
                |s| store.keeps(s),
                cfg.resolved_merge_workers(),
            )
        };
        drop(pairs);
        store.extend(&kept);
        let heap: BinaryHeap<HeapEntry> =
            kept.iter().map(|&(a, b, s)| heap_entry(a, b, s)).collect();
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
            merges: Vec::new(),
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
                continue;
            }
            let Some(current) = self.store.get(a, b) else {
                continue;
            };
            if OrdSim::new(current) != osim {
                continue; // stale entry; a fresher one is in the heap
            }
            let (ia, ib) = (group(&self.info, a), group(&self.info, b));
            let conn_ok = meets_connection_req(params.beta, ia.avg_conns(), ib.avg_conns());
            let sim_ok = meets_similarity_req(params, ia.k, ib.k, current);
            if let Some(r) = self.rec {
                let k_gate_hi = ia.k.max(ib.k) >= params.k_hi;
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
        self.rescore_sweep(m);
        self.rescore_triangle(m);
        self.store.note_peak();
    }

    /// All `(m, y)` similarities from one sweep over the two-hop
    /// neighborhood of `m`. Walking `via ∈ N(m)` in ascending id order
    /// and crediting each `y ∈ N(via)` accumulates every `y`'s terms in
    /// ascending common-neighbor order — the exact addition sequence
    /// [`similarity`] performs — so the values are bit-identical to
    /// per-pair recomputation. Every touched row is pruned of dead
    /// partners.
    fn rescore_sweep(&mut self, m: NodeId) {
        let Agglomeration {
            g,
            wdeg,
            store,
            heap,
            scratch,
            ..
        } = self;
        let stamp = scratch.next_stamp();
        let tm = wdeg[m.index()] as f64;
        scratch.touched.clear();
        for &(via, wm) in g.neighbor_slice(m) {
            let rm = wm as f64 / tm;
            for &(y, wy) in g.neighbor_slice(via) {
                if y == m {
                    continue;
                }
                let yi = y.index();
                if scratch.sweep_stamp[yi] != stamp {
                    scratch.sweep_stamp[yi] = stamp;
                    scratch.sweep_acc[yi] = 0.0;
                    scratch.touched.push(y);
                }
                scratch.sweep_acc[yi] += rm.min(wy as f64 / wdeg[yi] as f64);
            }
        }
        for &y in &scratch.touched {
            let s = (100.0 * scratch.sweep_acc[y.index()]).clamp(0.0, 100.0);
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
    /// ascending common-neighbor order — again the exact [`similarity`]
    /// addition sequence. Each member's store row is then rewritten
    /// against its row of the matrix.
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

        let stamp = sc.next_stamp();
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
    let mut ys: Vec<NodeId> = g
        .neighbor_slice(x)
        .iter()
        .flat_map(|&(via, _)| g.neighbor_slice(via).iter().map(|&(y, _)| y))
        .filter(|&y| y != x)
        .collect();
    ys.sort_unstable();
    ys.dedup();
    ys.into_iter()
        .map(|y| (groups[y.index()].id, similarity(&g, &wdeg, x, y)))
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
        let sizes = out.grouping.sizes_desc();
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

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let cs = figure1();
        let formation = try_form_groups(&cs, &Params::default()).unwrap();
        let g = &formation.graph;
        let nodes: Vec<NodeId> = g.nodes().collect();
        let mut wdeg = vec![0u64; g.id_bound()];
        for &n in &nodes {
            wdeg[n.index()] = g.weighted_degree(n);
        }
        for &x in &nodes {
            for &y in &nodes {
                if x == y {
                    continue;
                }
                let sxy = similarity(g, &wdeg, x, y);
                let syx = similarity(g, &wdeg, y, x);
                assert!((sxy - syx).abs() < 1e-9, "asymmetric similarity");
                assert!((0.0..=100.0).contains(&sxy));
            }
        }
    }

    /// After seeding and after every merge, the store holds exactly the
    /// live pairs whose from-scratch similarity passes the keep rule, at
    /// that similarity to the bit, and nothing pointing at a dead node.
    #[test]
    fn store_holds_exactly_the_live_pairs_at_or_above_theta() {
        let cs = synthnet::scenarios::mazu(42).connsets;
        let params = Params::default().with_s_lo(20.0).with_s_hi(40.0);
        let cfg = EngineConfig::new(params);
        let formation = try_form_groups(&cs, &params).unwrap();
        let mut agg = Agglomeration::start(&cs, formation, &cfg, None);
        let check = |agg: &Agglomeration| {
            let live: Vec<NodeId> = agg.g.nodes().collect();
            let mut expected = Vec::new();
            for (i, &x) in live.iter().enumerate() {
                for &y in &live[i + 1..] {
                    let s = similarity(&agg.g, &agg.wdeg, x, y);
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
