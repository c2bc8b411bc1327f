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

use crate::config::EngineConfig;
use crate::formation::FormationResult;
use crate::group::{Group, GroupId, Grouping};
use crate::params::{ParamError, Params, SimilarityVariant};
use flow::{ConnectionSets, HostAddr};
use netgraph::{NodeId, WGraph};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Multiply-xor hasher for the node-id-keyed maps on the merge hot
/// path. The maps' iteration order is never observed (heap pop order is
/// a total order over the entries themselves), so hash quality affects
/// only speed — and for 4-byte ids the default SipHash costs more than
/// the lookup it guards.
#[derive(Default)]
struct NodeHasher(u64);

impl std::hash::Hasher for NodeHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

impl NodeHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type NodeMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<NodeHasher>>;

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
    fn avg_conns(&self) -> f64 {
        if self.members.is_empty() {
            0.0
        } else {
            self.sum_deg as f64 / self.members.len() as f64
        }
    }
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

/// Computes the Figure 3 `SIMILARITY(G1, G2)` on the current group graph.
///
/// Returns a value in `[0, 100]`. See [`SimilarityVariant`] for the two
/// normalizations.
fn similarity(
    g: &WGraph,
    info: &NodeMap<NodeId, GroupInfo>,
    wdeg: &[u64],
    variant: SimilarityVariant,
    x: NodeId,
    y: NodeId,
) -> f64 {
    let tx = wdeg[x.index()] as f64;
    let ty = wdeg[y.index()] as f64;
    if tx == 0.0 || ty == 0.0 {
        return 0.0;
    }
    let sx = g.neighbor_slice(x);
    let sy = g.neighbor_slice(y);
    let (nx, ny) = (sx.len() as f64, sy.len() as f64);
    let term = |wa: u64, wb: u64| -> f64 {
        let (wa, wb) = (wa as f64, wb as f64);
        match variant {
            SimilarityVariant::Normalized => (wa / tx).min(wb / ty),
            SimilarityVariant::Literal => (wa / nx).min(wb / ny),
        }
    };
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
    let sim = match variant {
        SimilarityVariant::Normalized => 100.0 * acc,
        SimilarityVariant::Literal => {
            let cx = tx / info[&x].members.len() as f64;
            let cy = ty / info[&y].members.len() as f64;
            50.0 * (acc / cx + acc / cy)
        }
    };
    sim.clamp(0.0, 100.0)
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

fn pair_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
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

/// Scores every pair's similarity, splitting the (sorted, deduplicated)
/// pair list into contiguous chunks across scoped worker threads.
/// Each score is a pure function of the shared immutable graph and
/// group table, and chunk results are concatenated in chunk order, so
/// the output is bit-identical at any worker count.
fn score_pairs(
    g: &WGraph,
    info: &NodeMap<NodeId, GroupInfo>,
    wdeg: &[u64],
    variant: SimilarityVariant,
    pairs: &[(NodeId, NodeId)],
    workers: usize,
) -> Vec<f64> {
    // Don't spin up threads for workloads where the spawn overhead
    // dominates; the cutoff cannot change the result, only the split.
    const MIN_PAIRS_PER_WORKER: usize = 128;
    let workers = workers.clamp(1, (pairs.len() / MIN_PAIRS_PER_WORKER).max(1));
    if workers == 1 {
        return pairs
            .iter()
            .map(|&(x, y)| similarity(g, info, wdeg, variant, x, y))
            .collect();
    }
    let chunk = pairs.len().div_ceil(workers);
    let mut out = Vec::with_capacity(pairs.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&(x, y)| similarity(g, info, wdeg, variant, x, y))
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("merge scoring worker panicked"));
        }
    });
    out
}

/// [`merge_groups_validated`] with an optional recorder: emits one
/// `merge_considered` provenance event per genuinely considered pair —
/// accepted *and* rejected, with the Figure 3 gate that decided it. Pops
/// that die on liveness or staleness (the lazy-heap bookkeeping, not the
/// algorithm) emit nothing. With `None` the phase is exactly the
/// uninstrumented one.
pub(crate) fn merge_groups_with(
    cs: &ConnectionSets,
    formation: FormationResult,
    cfg: &EngineConfig,
    rec: Option<&telemetry::Recorder>,
) -> MergeOutcome {
    let params = &cfg.params;
    let mut g = formation.graph;
    let mut info: NodeMap<NodeId, GroupInfo> = NodeMap::default();
    for (idx, pg) in formation.groups.iter().enumerate() {
        let degs: Vec<u32> = pg
            .members
            .iter()
            .map(|h| cs.degree(*h).unwrap_or(0) as u32)
            .collect();
        info.insert(
            formation.node_of_group[idx],
            GroupInfo {
                members: pg.members.clone(),
                k: pg.k,
                sum_deg: degs.iter().map(|&d| d as u64).sum(),
                min_deg: degs.iter().copied().min().unwrap_or(0),
            },
        );
    }

    // All candidate similarities, computed once and then maintained
    // incrementally: a merge only perturbs pairs involving the merged
    // node or its neighbors. The initial pass — by far the largest
    // batch — is scored across worker threads over the deduplicated,
    // sorted pair list. Selection runs through a lazy max-heap —
    // entries are invalidated by value mismatch against `sims` (the
    // source of truth) rather than removed, keeping each merge near
    // O(affected · log). Ties break toward the smallest node pair, the
    // same order a full ascending scan would produce.
    let pairs: Vec<(NodeId, NodeId)> = {
        let _s = telemetry::span(rec, "merge.candidates");
        let mut pairs = Vec::new();
        for x in g.nodes() {
            for (via, _) in g.neighbors(x) {
                for (y, _) in g.neighbors(via) {
                    if y > x {
                        pairs.push((x, y));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    };
    // Weighted degrees, computed once and extended per merge:
    // contraction leaves every survivor's weighted degree intact
    // (parallel edges into the merged node sum), so only the merged
    // node itself ever needs a fresh entry. Node ids are dense u32
    // indices, so a flat vector (dead slots simply unread) beats any
    // map on this path.
    let mut wdeg: Vec<u64> = {
        let cap = g.nodes().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut w = vec![0u64; cap];
        for n in g.nodes() {
            w[n.index()] = g.weighted_degree(n);
        }
        w
    };
    let scores = {
        let _s = telemetry::span(rec, "merge.score");
        score_pairs(
            &g,
            &info,
            &wdeg,
            params.similarity,
            &pairs,
            cfg.resolved_merge_workers(),
        )
    };
    let mut sims: NodeMap<(NodeId, NodeId), f64> =
        NodeMap::with_capacity_and_hasher(pairs.len(), Default::default());
    let mut heap_init: Vec<(OrdSim, Reverse<(NodeId, NodeId)>)> = Vec::with_capacity(pairs.len());
    for (&pair, &s) in pairs.iter().zip(scores.iter()) {
        sims.insert(pair, s);
        if s > 0.0 {
            heap_init.push((OrdSim::new(s), Reverse(pair)));
        }
    }
    // Heapify in one pass; pop order is fully determined by the
    // `(OrdSim, Reverse(pair))` total order, so construction strategy
    // cannot change the merge sequence.
    let mut heap: BinaryHeap<(OrdSim, Reverse<(NodeId, NodeId)>)> = BinaryHeap::from(heap_init);

    let mut merges = Vec::new();
    // Reused per-merge scratch. The `(m, y)` sweep accumulates into a
    // node-indexed array guarded by a generation stamp (one bump per
    // merge clears it in O(1)); `touched` remembers which slots to
    // read back. The neighbor-pair pass accumulates into a dense
    // `|N(m)|²` matrix keyed by each endpoint's position in the sorted
    // neighbor list, via (via, position, weight) incidence triples.
    let mut sweep_acc: Vec<f64> = vec![0.0; wdeg.len()];
    let mut sweep_stamp: Vec<u32> = vec![0; wdeg.len()];
    let mut stamp: u32 = 0;
    let mut touched: Vec<NodeId> = Vec::new();
    let mut byvia: Vec<(NodeId, u32, u64)> = Vec::new();
    let mut mat: Vec<f64> = Vec::new();
    let mut ts: Vec<f64> = Vec::new();
    let _agglomerate_span = telemetry::span(rec, "merge.agglomerate");
    // Heap pops — live, stale, and dead alike — are the work measure of
    // the agglomeration loop: the profile layer divides merge wall time
    // by this to get a ns/pop unit cost that stays comparable across
    // window sizes. Tallied locally (one register add, no branch on the
    // recorder) and folded into the registry once at the end.
    let mut heap_pops: u64 = 0;
    // Lazy invalidation piles dead and superseded entries up in the
    // heap (every rescore pushes, nothing removes). When the heap
    // outgrows twice its size after the last sweep, compact: one linear
    // pass keeps exactly the entries a pop would act on — live
    // endpoints, value still current — and re-heapifies. The survivors
    // pop in the same total order as before, and the dropped entries
    // would have been silently discarded at pop time, so compaction is
    // invisible to both the merge sequence and the provenance stream;
    // it only converts millions of cache-hostile `O(log n)` discard
    // pops into an amortized linear scan.
    let mut compact_at = (2 * heap.len()).max(1 << 20);
    loop {
        if heap.len() > compact_at {
            let mut entries = heap.into_vec();
            entries.retain(|&(osim, Reverse((a, b)))| {
                g.contains_node(a)
                    && g.contains_node(b)
                    && sims.get(&(a, b)).map(|&s| OrdSim::new(s)) == Some(osim)
            });
            heap = BinaryHeap::from(entries);
            compact_at = (2 * heap.len()).max(1 << 20);
        }
        // Pop until a live, current, eligible pair surfaces. Discarding
        // ineligible entries is sound: for a surviving pair with an
        // unchanged similarity, both eligibility inputs (average member
        // connections and the K labels) are immutable — any change
        // replaces a node id and thus invalidates by liveness.
        let mut best: Option<((NodeId, NodeId), f64)> = None;
        while let Some((osim, Reverse((a, b)))) = heap.pop() {
            heap_pops += 1;
            if !g.contains_node(a) || !g.contains_node(b) {
                continue;
            }
            let Some(&current) = sims.get(&(a, b)) else {
                continue;
            };
            if OrdSim::new(current) != osim {
                continue; // stale entry; a fresher one is in the heap
            }
            if current <= 0.0 {
                continue;
            }
            let (ia, ib) = (&info[&a], &info[&b]);
            let conn_ok = meets_connection_req(params.beta, ia.avg_conns(), ib.avg_conns());
            let sim_ok = meets_similarity_req(params, ia.k, ib.k, current);
            if let Some(r) = rec {
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
            if !conn_ok {
                continue;
            }
            if !sim_ok {
                continue;
            }
            best = Some(((a, b), current));
            break;
        }
        let Some(((a, b), sim)) = best else { break };

        let ia = info.remove(&a).expect("merge endpoint alive");
        let ib = info.remove(&b).expect("merge endpoint alive");
        merges.push(MergeEvent {
            left: ia.members.clone(),
            right: ib.members.clone(),
            similarity: sim,
        });
        let (m, _internal) = g.contract(&[a, b]);
        if wdeg.len() <= m.index() {
            wdeg.resize(m.index() + 1, 0);
            sweep_acc.resize(m.index() + 1, 0.0);
            sweep_stamp.resize(m.index() + 1, 0);
        }
        wdeg[m.index()] = g.weighted_degree(m);
        let mut members = ia.members;
        members.extend(ib.members);
        members.sort_unstable();
        // "The K value of a newly merged group is set to the minimum
        // number of connections a host in the group has."
        let min_deg = ia.min_deg.min(ib.min_deg);
        info.insert(
            m,
            GroupInfo {
                members,
                k: min_deg,
                sum_deg: ia.sum_deg + ib.sum_deg,
                min_deg,
            },
        );

        // Entries for pairs touching the contracted nodes stay in
        // `sims` but are unreachable: every heap pop checks liveness
        // first, and `WGraph::contract` allocates fresh node ids (never
        // reused), so a dead key can never alias a future pair. Leaving
        // them avoids a full-map sweep per merge — the sweep made the
        // loop quadratic in the candidate count and dominated large
        // windows. Recompute everything that can have changed; heap
        // entries for changed pairs die lazily on pop.
        match params.similarity {
            SimilarityVariant::Normalized => {
                // Contraction leaves every survivor's weighted degree
                // intact (parallel edges into the merged node sum), so a
                // normalized similarity only moves when a contribution
                // routed *via* the merged node appears or changes: the
                // dirty set is exactly pairs involving `m` plus pairs
                // with both endpoints adjacent to `m`.
                //
                // All `(m, y)` similarities come from one sweep over the
                // two-hop neighborhood of `m`: walking `via ∈ N(m)` in
                // ascending id order and crediting each `y ∈ N(via)`
                // accumulates every `y`'s terms in ascending
                // common-neighbor order — the exact addition sequence
                // `similarity` performs — so the values are
                // bit-identical to per-pair recomputation at a fraction
                // of the cost (the sweep touches each two-hop edge
                // once instead of re-merging adjacency lists per pair).
                let tm = wdeg[m.index()] as f64;
                stamp += 1;
                touched.clear();
                for &(via, wm) in g.neighbor_slice(m) {
                    let rm = wm as f64 / tm;
                    for &(y, wy) in g.neighbor_slice(via) {
                        if y == m {
                            continue;
                        }
                        let yi = y.index();
                        if sweep_stamp[yi] != stamp {
                            sweep_stamp[yi] = stamp;
                            sweep_acc[yi] = 0.0;
                            touched.push(y);
                        }
                        sweep_acc[yi] += rm.min(wy as f64 / wdeg[yi] as f64);
                    }
                }
                for &y in &touched {
                    let pair = pair_key(m, y);
                    let s = (100.0 * sweep_acc[y.index()]).clamp(0.0, 100.0);
                    // `pair` involves the freshly allocated `m`, so it
                    // cannot already be in `sims`: always push.
                    sims.insert(pair, s);
                    if s > 0.0 {
                        heap.push((OrdSim::new(s), Reverse(pair)));
                    }
                }
                // Pairs with both endpoints in `N(m)` — every one has
                // `m` as a common neighbor, so all of them need fresh
                // values. Rather than re-intersecting adjacency lists
                // per pair (ruinous when `N(m)` holds hub groups that
                // every merge touches again), invert by common
                // neighbor: each `via` adjacent to two or more members
                // of `N(m)` credits all of its pairs in one pass,
                // accumulating into the `|N(m)|²` matrix (a hot few
                // kilobytes for typical merges, versus a hash lookup
                // per term). Triples carry each endpoint's position in
                // the ascending neighbor list, so sorting by
                // (via, position) and walking via groups in ascending
                // id order accumulates each pair's terms in ascending
                // common-neighbor order — again the exact `similarity`
                // addition sequence.
                let nbrs: Vec<NodeId> = g.neighbors(m).map(|(n, _)| n).collect();
                let n = nbrs.len();
                ts.clear();
                ts.extend(nbrs.iter().map(|&x| wdeg[x.index()] as f64));
                mat.clear();
                mat.resize(n * n, 0.0);
                byvia.clear();
                for (xi, &x) in nbrs.iter().enumerate() {
                    for &(via, w) in g.neighbor_slice(x) {
                        byvia.push((via, xi as u32, w));
                    }
                }
                byvia.sort_unstable_by_key(|&(v, xi, _)| (v, xi));
                let mut i = 0;
                while i < byvia.len() {
                    let v = byvia[i].0;
                    let mut j = i;
                    while j < byvia.len() && byvia[j].0 == v {
                        j += 1;
                    }
                    for p in i..j {
                        let (_, xi, wx) = byvia[p];
                        let rx = wx as f64 / ts[xi as usize];
                        let row = xi as usize * n;
                        for &(_, yi, wy) in byvia.iter().take(j).skip(p + 1) {
                            mat[row + yi as usize] += rx.min(wy as f64 / ts[yi as usize]);
                        }
                    }
                    i = j;
                }
                // Every pair shares at least `m` itself, so the whole
                // upper triangle holds fresh values.
                for xi in 0..n {
                    for yi in xi + 1..n {
                        let pair = (nbrs[xi], nbrs[yi]);
                        let s = (100.0 * mat[xi * n + yi]).clamp(0.0, 100.0);
                        let changed = sims.get(&pair) != Some(&s);
                        sims.insert(pair, s);
                        if s > 0.0 && changed {
                            heap.push((OrdSim::new(s), Reverse(pair)));
                        }
                    }
                }
            }
            SimilarityVariant::Literal => {
                // The literal variant divides by unweighted degrees and
                // per-member connection counts, which shift for every
                // neighbor of the merged node — recompute the full
                // two-hop neighborhood.
                let mut dirty_nodes: Vec<NodeId> = g.neighbors(m).map(|(n, _)| n).collect();
                dirty_nodes.push(m);
                let mut dp: Vec<(NodeId, NodeId)> = Vec::new();
                for &x in &dirty_nodes {
                    for (via, _) in g.neighbors(x) {
                        for (y, _) in g.neighbors(via) {
                            if y != x {
                                dp.push(pair_key(x, y));
                            }
                        }
                    }
                }
                dp.sort_unstable();
                dp.dedup();
                for pair in dp {
                    let s = similarity(&g, &info, &wdeg, params.similarity, pair.0, pair.1);
                    let changed = sims.get(&pair) != Some(&s);
                    sims.insert(pair, s);
                    if s > 0.0 && changed {
                        heap.push((OrdSim::new(s), Reverse(pair)));
                    }
                }
            }
        }
    }

    drop(_agglomerate_span);
    if let Some(r) = rec {
        r.registry()
            .counter("roleclass_engine_merge_heap_pops_total")
            .add(heap_pops);
    }

    // Assemble the final grouping: ids by descending size then members.
    let mut final_nodes: Vec<NodeId> = g.nodes().collect();
    final_nodes.sort_by(|&x, &y| {
        info[&y]
            .members
            .len()
            .cmp(&info[&x].members.len())
            .then_with(|| info[&x].members.cmp(&info[&y].members))
    });
    let mut groups = Vec::with_capacity(final_nodes.len());
    let mut node_of_group = Vec::with_capacity(final_nodes.len());
    for (i, &n) in final_nodes.iter().enumerate() {
        let gi = &info[&n];
        groups.push(Group {
            id: GroupId(i as u32),
            k: gi.k,
            members: gi.members.clone(),
        });
        node_of_group.push(n);
    }
    MergeOutcome {
        grouping: Grouping::new(groups),
        merges,
        graph: g,
        node_of_group,
    }
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
        let mut info: NodeMap<NodeId, GroupInfo> = NodeMap::default();
        for (idx, pg) in formation.groups.iter().enumerate() {
            let degs: Vec<u32> = pg
                .members
                .iter()
                .map(|h| cs.degree(*h).unwrap_or(0) as u32)
                .collect();
            info.insert(
                formation.node_of_group[idx],
                GroupInfo {
                    members: pg.members.clone(),
                    k: pg.k,
                    sum_deg: degs.iter().map(|&d| d as u64).sum(),
                    min_deg: degs.iter().copied().min().unwrap_or(0),
                },
            );
        }
        let nodes: Vec<NodeId> = g.nodes().collect();
        let mut wdeg = vec![0u64; nodes.iter().map(|n| n.index() + 1).max().unwrap_or(0)];
        for &n in &nodes {
            wdeg[n.index()] = g.weighted_degree(n);
        }
        for variant in [SimilarityVariant::Normalized, SimilarityVariant::Literal] {
            for &x in &nodes {
                for &y in &nodes {
                    if x == y {
                        continue;
                    }
                    let sxy = similarity(g, &info, &wdeg, variant, x, y);
                    let syx = similarity(g, &info, &wdeg, variant, y, x);
                    assert!((sxy - syx).abs() < 1e-9, "asymmetric similarity");
                    assert!((0.0..=100.0).contains(&sxy));
                }
            }
        }
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
    fn literal_variant_also_runs_to_completion() {
        let p = Params {
            similarity: SimilarityVariant::Literal,
            ..Params::default()
        };
        let out = run(&figure1(), &p);
        assert_eq!(out.grouping.host_count(), 10);
        assert!(out.grouping.group_count() >= 2);
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
