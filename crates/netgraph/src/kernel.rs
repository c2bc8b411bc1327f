//! The common-neighbor kernel: count every pair **once**, serve every
//! similarity level by thresholding, and patch the counts locally when
//! the graph contracts.
//!
//! The grouping algorithm's inner loop needs, at each level `k`, every
//! pair of eligible nodes whose weighted common-neighbor count clears
//! `k`. Recomputing the full count table per level costs
//! `O(levels · Σ deg(v)²)`; this module instead computes the table once,
//! reading the unit-weight connectivity graph in place from the CSR
//! adjacency the connection sets already hold, with a row-centric pass:
//! each worker owns a contiguous ascending range of endpoint rows and,
//! for row `a`, counts every two-path `a–via–b` (`b > a`) into a
//! per-partner accumulator — a fixed-stride `u64` bitset tracks touched
//! partners for high-degree rows (walked in word order, which emits the
//! row already key-sorted), while low-degree rows collect into a small
//! vector that is sort-aggregated. Because row ranges are disjoint and
//! ascending, concatenating the workers' runs yields the globally
//! key-sorted table with no merge and no global sort. With
//! caller-supplied per-endpoint floors, a pair is stored only while its
//! count reaches the larger of its two endpoint floors: each drained row
//! drops its below-floor pairs before the runs are concatenated, and
//! pairs whose count upper bound (the smaller degree) falls short are
//! not even counted. The table is kept in a flat key-sorted vector with
//! a descending-count rank index so each level is answered by a
//! binary-searched prefix walk, and a locality property of contraction
//! keeps the table current through a small mutation overlay:
//!
//! **Invalidation rule.** Contracting a member set `M` into a fresh node
//! `m` changes the via-contribution of exactly two kinds of nodes: the
//! members themselves (their two-paths disappear) and `m` (its two-paths
//! appear). A surviving neighbor `v ∉ M` keeps every edge to every
//! surviving node, so its contribution `min(w(v,a), w(v,b))` to any
//! surviving pair is untouched. Pairs with an endpoint in `M` die, which
//! the kernel realizes by marking those endpoints ineligible and
//! filtering at query time. A surviving pair `a, b ∈ N(m)` therefore
//! moves by one net delta, `min(W_a, W_b) − Σ_{v ∈ M} min(w_av, w_bv)`
//! with `W_a = Σ_{v ∈ M} w_av`, which depends only on the two nodes'
//! *profiles* — their `(member, weight)` edge lists. Neighbors with
//! identical profiles form a class; the delta is computed once per class
//! pair, is 0 inside a class, and only class pairs with a nonzero delta
//! touch the table. A department's clients contracting their servers
//! all share one profile, so that contraction writes nothing. The
//! update costs `O(Σ_{v ∈ M} deg(v))` to classify plus
//! `O(Σ_{v ∈ M} K_v² + K²)` for `K` classes (`K_v` of them adjacent to
//! `v`), plus one table write per pair whose count changes — never more
//! than the pair walk over the mutated neighborhoods — and contracting a
//! *singleton* is free: the replacement node inherits the member's edges
//! verbatim, so no count changes at all. Contraction is where weights
//! enter: edges to a group node carry the summed member weights. A
//! changed pair the table does not hold (its count was below its floor)
//! is recounted exactly from its two endpoints' adjacencies on the
//! contracted graph.
//!
//! Counts are kept as exact `u64` sums of per-via contributions (each
//! clamped at `u32::MAX`, matching the saturating arithmetic of the
//! recounting oracle in `roleclass_spec::formation`), so a net delta is
//! exact and the incremental table is bit-identical
//! to a from-scratch recount — regardless of worker count, because
//! integer addition commutes.

use crate::id::NodeId;
use crate::wgraph::WGraph;
use std::collections::HashMap;
use std::time::Instant;
use telemetry::{Recorder, Registry};

/// One weighted edge of the neighborhood graph: endpoints `a < b` share
/// `count` common neighbors (`|C(a) ∩ C(b)|`, Section 3.1), each shared
/// group node counting with the smaller of its two edge weights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommonNeighborEdge {
    /// Smaller endpoint.
    pub a: NodeId,
    /// Larger endpoint.
    pub b: NodeId,
    /// Weighted common-neighbor count.
    pub count: u32,
}

/// Packs the pair `a < b` into one sortable key.
#[inline]
fn key(a: NodeId, b: NodeId) -> u64 {
    debug_assert!(a < b);
    ((a.0 as u64) << 32) | b.0 as u64
}

#[inline]
fn unkey(k: u64) -> (NodeId, NodeId) {
    (NodeId((k >> 32) as u32), NodeId(k as u32))
}

/// Every metric the kernel registers, in export (sorted) order. The
/// workspace metric-name lint checks uniqueness and prefixing against
/// this list.
pub const KERNEL_METRIC_NAMES: &[&str] = &[
    "roleclass_kernel_base_pairs",
    "roleclass_kernel_below_floor_pairs_total",
    "roleclass_kernel_build_seconds",
    "roleclass_kernel_builds_total",
    "roleclass_kernel_compactions_total",
    "roleclass_kernel_contract_pair_updates_total",
    "roleclass_kernel_contract_seconds",
    "roleclass_kernel_contractions_total",
    "roleclass_kernel_overlay_entries",
    "roleclass_kernel_pruned_paths_total",
    "roleclass_kernel_recounts_total",
    "roleclass_kernel_singleton_contractions_total",
    "roleclass_kernel_threshold_queries_total",
    "roleclass_kernel_threshold_seconds",
    "roleclass_kernel_two_paths_total",
    "roleclass_kernel_worker_entries",
    "roleclass_kernel_workers",
];

/// Pre-fetched handles for the kernel's metrics. Fetched once at build
/// time and stored inside the kernel, so the hot query/contract paths
/// touch only `Arc`-backed atomics — never the registry lock.
#[derive(Clone, Debug)]
struct KernelMetrics {
    /// Kernel builds completed.
    builds_total: telemetry::Counter,
    /// Wall-clock seconds per full build (count + merge + rank).
    build_seconds: telemetry::Histogram,
    /// Entries in the base pair table after the latest build/compaction.
    base_pairs: telemetry::Gauge,
    /// Worker threads used by the latest build.
    workers: telemetry::Gauge,
    /// Aggregated entries emitted per worker run — the balance of the
    /// Σ deg² partitioning shows up as the spread of this histogram.
    worker_entries: telemetry::Histogram,
    /// Contractions applied to the kernel (any member count).
    contractions_total: telemetry::Counter,
    /// Contractions that took the free singleton fast path.
    singleton_contractions_total: telemetry::Counter,
    /// Live entries in the mutation overlay.
    overlay_entries: telemetry::Gauge,
    /// Two-path contributions suppressed by the prune floors at build.
    pruned_paths: telemetry::Counter,
    /// Counted pairs left unstored at build because their count fell
    /// below the larger endpoint floor.
    below_floor_pairs: telemetry::Counter,
    /// Contraction updates that recounted a pair the table did not hold.
    recounts: telemetry::Counter,
    /// Pair counts a multi-member contraction wrote to the table.
    contract_pair_updates: telemetry::Counter,
    /// Two-paths `a–via–b` enumerated at build — the work measure the
    /// profile layer divides build time by.
    two_paths: telemetry::Counter,
    /// Base/rank rebuilds triggered by overlay bloat or endpoint decay.
    compactions_total: telemetry::Counter,
    /// `edges_at_least` calls answered.
    threshold_queries_total: telemetry::Counter,
    /// Seconds per threshold query.
    threshold_seconds: telemetry::Histogram,
    /// Seconds per contraction (profiles + graph contract + net deltas).
    contract_seconds: telemetry::Histogram,
}

impl KernelMetrics {
    /// Registers (or re-fetches) the kernel's metrics on `reg`.
    fn register(reg: &Registry) -> Self {
        KernelMetrics {
            builds_total: reg.counter("roleclass_kernel_builds_total"),
            build_seconds: reg.histogram(
                "roleclass_kernel_build_seconds",
                telemetry::DURATION_BUCKETS,
            ),
            base_pairs: reg.gauge("roleclass_kernel_base_pairs"),
            workers: reg.gauge("roleclass_kernel_workers"),
            worker_entries: reg
                .histogram("roleclass_kernel_worker_entries", telemetry::SIZE_BUCKETS),
            contractions_total: reg.counter("roleclass_kernel_contractions_total"),
            singleton_contractions_total: reg
                .counter("roleclass_kernel_singleton_contractions_total"),
            overlay_entries: reg.gauge("roleclass_kernel_overlay_entries"),
            pruned_paths: reg.counter("roleclass_kernel_pruned_paths_total"),
            below_floor_pairs: reg.counter("roleclass_kernel_below_floor_pairs_total"),
            recounts: reg.counter("roleclass_kernel_recounts_total"),
            contract_pair_updates: reg.counter("roleclass_kernel_contract_pair_updates_total"),
            two_paths: reg.counter("roleclass_kernel_two_paths_total"),
            compactions_total: reg.counter("roleclass_kernel_compactions_total"),
            threshold_queries_total: reg.counter("roleclass_kernel_threshold_queries_total"),
            threshold_seconds: reg.histogram(
                "roleclass_kernel_threshold_seconds",
                telemetry::DURATION_BUCKETS,
            ),
            contract_seconds: reg.histogram(
                "roleclass_kernel_contract_seconds",
                telemetry::DURATION_BUCKETS,
            ),
        }
    }
}

/// Upper bound on worker threads — beyond this the coordination cost
/// dominates any conceivable speedup on the per-row pass.
const MAX_WORKERS: usize = 64;

/// The machine's available parallelism, clamped to `[1, 64]`.
///
/// This is a hardware query only; worker-count *policy* (environment
/// overrides, configuration) lives with the caller — typically a
/// `roleclass::EngineConfig` resolved at the CLI layer.
pub fn default_worker_count() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, MAX_WORKERS)
}

/// A fixed-stride bitset over node ids — the kernel's endpoint
/// eligibility mask. Membership tests sit on the innermost counting
/// loops, so this is a plain `Vec<u64>` with no branching beyond the
/// bounds check.
#[derive(Clone, Debug, Default)]
struct NodeBitSet {
    bits: Vec<u64>,
}

impl NodeBitSet {
    /// Creates an empty set able to hold ids below `bound`.
    fn with_bound(bound: usize) -> Self {
        NodeBitSet {
            bits: vec![0; bound.div_ceil(64)],
        }
    }

    /// Ensures ids below `bound` are representable.
    fn grow(&mut self, bound: usize) {
        let words = bound.div_ceil(64);
        if words > self.bits.len() {
            self.bits.resize(words, 0);
        }
    }

    /// Inserts `n` (grows as needed).
    fn insert(&mut self, n: NodeId) {
        self.grow(n.index() + 1);
        self.bits[n.index() / 64] |= 1u64 << (n.index() % 64);
    }

    /// Removes `n` if present.
    fn remove(&mut self, n: NodeId) {
        if let Some(w) = self.bits.get_mut(n.index() / 64) {
            *w &= !(1u64 << (n.index() % 64));
        }
    }

    /// Returns `true` if `n` is in the set.
    #[inline]
    fn contains(&self, n: NodeId) -> bool {
        self.bits
            .get(n.index() / 64)
            .is_some_and(|w| w & (1u64 << (n.index() % 64)) != 0)
    }

    /// Number of set bits.
    fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Row `i` of the unit CSR `offsets`/`nbrs`: its neighbor ids, ascending.
#[inline]
fn row<'a>(offsets: &[u32], nbrs: &'a [u32], i: usize) -> &'a [u32] {
    &nbrs[offsets[i] as usize..offsets[i + 1] as usize]
}

/// Degree of row `i`. With unit weights this is also its weighted
/// degree: the upper bound on any pair count with `i` as an endpoint.
#[inline]
fn degree(offsets: &[u32], i: usize) -> usize {
    (offsets[i + 1] - offsets[i]) as usize
}

/// Cost model of the per-row counting pass: row `i` walks every
/// neighbor's full row, `Σ_{via ∈ N(i)} deg(via)` two-paths.
fn neighbor_degree_sum(offsets: &[u32], nbrs: &[u32], i: usize) -> usize {
    row(offsets, nbrs, i)
        .iter()
        .map(|&v| degree(offsets, v as usize))
        .sum()
}

/// Per-pair floor inputs, fixed at build time: one floor and one
/// weighted degree per node row.
///
/// The kernel stores a pair `(a, b)` only while its count is at least
/// its [`pair_floor`][Self::pair_floor], `max(floor(a), floor(b))`: the
/// lowest level at which both endpoints are still queried. A pair is
/// moreover *pruned* — never counted, at build or on contraction — when
/// its count upper bound already falls short,
/// `min(wdeg(a), wdeg(b)) < max(floor(a), floor(b))`. That bound is
/// stable under contraction because a surviving node's weighted degree
/// is invariant (edges to merged members re-attach to the group node
/// with their weights summed) and group nodes are never eligible
/// endpoints.
#[derive(Clone, Debug)]
struct PruneTable {
    floors: Vec<u32>,
    wdeg: Vec<u64>,
}

impl PruneTable {
    /// Builds the table from caller floors + the CSR's row degrees, or
    /// `None` when no floor exceeds 1 (floors of 0/1 can never prune:
    /// any pair sharing a neighbor has both degrees ≥ 1).
    fn new(floors: &[u32], offsets: &[u32]) -> Option<PruneTable> {
        if floors.iter().all(|&f| f <= 1) {
            return None;
        }
        let rows = offsets.len().saturating_sub(1);
        Some(PruneTable {
            floors: floors.to_vec(),
            wdeg: (0..rows).map(|i| degree(offsets, i) as u64).collect(),
        })
    }

    #[inline]
    fn floor(&self, i: usize) -> u32 {
        self.floors.get(i).copied().unwrap_or(0)
    }

    #[inline]
    fn wdeg_of(&self, i: usize) -> u64 {
        self.wdeg.get(i).copied().unwrap_or(u64::MAX)
    }

    /// The larger of the two endpoint floors: the smallest count at
    /// which the table stores the pair.
    #[inline]
    fn pair_floor(&self, a: usize, b: usize) -> u64 {
        self.floor(a).max(self.floor(b)) as u64
    }

    #[inline]
    fn pruned(&self, a: usize, b: usize) -> bool {
        self.wdeg_of(a).min(self.wdeg_of(b)) < self.pair_floor(a, b)
    }

    /// The row-hoisted half of [`pruned`][Self::pruned]: with row `a`
    /// fixed, pair `(a, b)` is pruned iff
    /// `min(wda, wdeg(b)) < max(fa, floor(b))`.
    #[inline]
    fn pruned_vs(&self, wda: u64, fa: u32, b: usize) -> bool {
        self.wdeg_of(b).min(wda) < fa.max(self.floor(b)) as u64
    }
}

/// Splits CSR rows into at most `workers` contiguous chunks of roughly
/// equal counting work ([`neighbor_degree_sum`] per row).
fn partition_rows(offsets: &[u32], nbrs: &[u32], workers: usize) -> Vec<std::ops::Range<usize>> {
    let rows = offsets.len().saturating_sub(1);
    let work_of = |i: usize| neighbor_degree_sum(offsets, nbrs, i);
    let total: usize = (0..rows).map(work_of).sum();
    let target = total.div_ceil(workers.max(1)).max(1);
    let mut chunks = Vec::with_capacity(workers);
    let mut start = 0;
    let mut acc = 0;
    for i in 0..rows {
        acc += work_of(i);
        if acc >= target {
            chunks.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < rows {
        chunks.push(start..rows);
    }
    chunks
}

/// Per-via contribution of one shared neighbor to a pair whose two edges
/// to it weigh `wa` and `wb`: the smaller weight, clamped at `u32::MAX`.
#[inline]
fn contribution(wa: u64, wb: u64) -> u64 {
    wa.min(wb).min(u32::MAX as u64)
}

/// Per-worker scratch for the row-centric counting pass: a dense
/// count accumulator plus a fixed-stride `u64` bitset of touched
/// partners (high-degree rows), and a small sort-aggregate vector
/// (low-degree rows). Reused across the worker's rows, so the only
/// per-row cost is what the row actually touches.
struct RowScratch {
    acc: Vec<u64>,
    touched: Vec<u64>,
    sparse: Vec<(u32, u64)>,
}

impl RowScratch {
    fn new(bound: usize) -> RowScratch {
        RowScratch {
            acc: vec![0; bound],
            touched: vec![0; bound.div_ceil(64)],
            sparse: Vec::new(),
        }
    }

    /// Walks the touched bitset in word order — ascending partner id —
    /// emitting `(key(a, b), sum)` entries already key-sorted, and
    /// clears the scratch behind itself. Partners are always `> a`, so
    /// the walk starts at `a`'s word.
    fn drain_dense(&mut self, a: usize, out: &mut Vec<(u64, u64)>) {
        let an = NodeId::from_index(a);
        for wi in (a / 64)..self.touched.len() {
            let mut w = self.touched[wi];
            if w == 0 {
                continue;
            }
            self.touched[wi] = 0;
            while w != 0 {
                let b = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                out.push((key(an, NodeId::from_index(b)), self.acc[b]));
                self.acc[b] = 0;
            }
        }
    }

    /// Sort-aggregates the sparse scratch and emits it key-sorted.
    fn drain_sparse(&mut self, a: usize, out: &mut Vec<(u64, u64)>) {
        let an = NodeId::from_index(a);
        self.sparse.sort_unstable_by_key(|&(b, _)| b);
        for (b, c) in self.sparse.drain(..) {
            let k = key(an, NodeId::from_index(b as usize));
            match out.last_mut() {
                Some((lk, lc)) if *lk == k => *lc += c,
                _ => out.push((k, c)),
            }
        }
    }
}

/// Drops the entries of `out[start..]` — one drained row `a` with floor
/// `fa` — whose count is below their pair floor, keeping the rest in
/// order. Returns how many it dropped.
fn drop_below_floor(out: &mut Vec<(u64, u64)>, start: usize, fa: u32, p: &PruneTable) -> u64 {
    let mut kept = start;
    for i in start..out.len() {
        let (pk, c) = out[i];
        if c >= p.floor(unkey(pk).1.index()).max(fa) as u64 {
            out[kept] = (pk, c);
            kept += 1;
        }
    }
    let dropped = (out.len() - kept) as u64;
    out.truncate(kept);
    dropped
}

/// One worker's output from [`count_chunk`].
struct ChunkCount {
    /// The key-sorted `(pair key, count)` run.
    run: Vec<(u64, u64)>,
    /// Contributions the prune floors suppressed.
    pruned_paths: u64,
    /// Counted pairs dropped because their count is below their floor.
    below_floor: u64,
    /// Two-paths enumerated: `Σ_via |N(via)|` over the chunk's rows.
    two_paths: u64,
}

/// One worker's pass over a contiguous ascending range of endpoint rows.
/// For each row `a`, every two-path `a–via–b` with `b > a` adds 1 to
/// the pair `(a, b)` (at build every row is eligible); per-row emission is
/// key-sorted, and rows ascend, so the returned run is key-sorted as a
/// whole. With floors, each drained row keeps only the pairs whose
/// count reaches their pair floor.
fn count_chunk(
    offsets: &[u32],
    nbrs: &[u32],
    prune: Option<&PruneTable>,
    rows: std::ops::Range<usize>,
) -> ChunkCount {
    let mut scratch = RowScratch::new(offsets.len().saturating_sub(1));
    let mut out: Vec<(u64, u64)> = Vec::new();
    let mut pruned_paths = 0u64;
    let mut below_floor = 0u64;
    let mut two_paths = 0u64;
    for a in rows {
        let (fa, wda) = match prune {
            Some(p) => (p.floor(a), p.wdeg_of(a)),
            None => (0, u64::MAX),
        };
        let work = neighbor_degree_sum(offsets, nbrs, a);
        two_paths += work as u64;
        let dense = work >= scratch.touched.len().saturating_sub(a / 64);
        for &via in row(offsets, nbrs, a) {
            for &b in row(offsets, nbrs, via as usize) {
                let bi = b as usize;
                if bi <= a {
                    continue;
                }
                if let Some(p) = prune {
                    if p.pruned_vs(wda, fa, bi) {
                        pruned_paths += 1;
                        continue;
                    }
                }
                // Unit weights: each shared neighbor contributes exactly
                // 1, so the sum is the plain common-neighbor count.
                if dense {
                    scratch.acc[bi] += 1;
                    scratch.touched[bi / 64] |= 1u64 << (bi % 64);
                } else {
                    scratch.sparse.push((b, 1));
                }
            }
        }
        let start = out.len();
        if dense {
            scratch.drain_dense(a, &mut out);
        } else {
            scratch.drain_sparse(a, &mut out);
        }
        if let Some(p) = prune {
            below_floor += drop_below_floor(&mut out, start, fa, p);
        }
    }
    ChunkCount {
        run: out,
        pruned_paths,
        below_floor,
        two_paths,
    }
}

/// Concatenates the workers' runs into the base table. Row ranges are
/// disjoint and ascending and every run is key-sorted, so this is pure
/// sequential memory traffic — the key order is global by construction.
fn concat_runs(runs: Vec<Vec<(u64, u64)>>) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    for run in runs {
        out.extend(run);
    }
    debug_assert!(
        out.windows(2).all(|w| w[0].0 < w[1].0),
        "worker runs must concatenate key-sorted"
    );
    out
}

/// Builds the descending-count rank index over `base`: a counting sort
/// by clamped count (ties keep `base`'s ascending key order), falling
/// back to a comparison sort if the count range dwarfs the table.
fn rank_of(base: &[(u64, u64)]) -> Vec<u32> {
    assert!(
        base.len() <= u32::MAX as usize,
        "common-neighbor pair table exceeds u32 index range"
    );
    let max_c = base.iter().map(|&(_, c)| clamp32(c)).max().unwrap_or(0) as usize;
    if max_c > (4 * base.len()).max(1 << 20) {
        let mut rank: Vec<u32> = (0..base.len() as u32).collect();
        rank.sort_unstable_by_key(|&i| {
            let (k, c) = base[i as usize];
            (std::cmp::Reverse(clamp32(c)), k)
        });
        return rank;
    }
    let mut hist = vec![0usize; max_c + 1];
    for &(_, c) in base {
        hist[clamp32(c) as usize] += 1;
    }
    // Start offsets for a descending layout: larger counts first.
    let mut starts = vec![0usize; max_c + 1];
    let mut acc = 0usize;
    for c in (0..=max_c).rev() {
        starts[c] = acc;
        acc += hist[c];
    }
    let mut rank = vec![0u32; base.len()];
    for (i, &(_, c)) in base.iter().enumerate() {
        let slot = &mut starts[clamp32(c) as usize];
        rank[*slot] = i as u32;
        *slot += 1;
    }
    rank
}

/// Calls `f(a, b, add, sub)` for every pair `a < b` of a contraction's
/// eligible non-member neighbors whose count changes: the contracted
/// node adds `add = min(W_a, W_b)` and the members take back
/// `sub = Σ_v min(w_av, w_bv)`. `touches` lists each neighbor's edges
/// into the members as `(neighbor, member index, weight)`, sorted by
/// neighbor then member; `members` is the member count.
///
/// Neighbors with identical edge lists (*profiles*) form one class, and
/// all pairs across two classes (or inside one) share one delta. The
/// members' shares come from a class-level two-path walk, one row per
/// class, so the work is `Σ_v (classes adjacent to v)²` plus one step
/// per class pair — never more than the node pairs they stand for — and
/// a class pair whose `add` equals its `sub` costs nothing more.
fn net_deltas(
    touches: &[(NodeId, u32, u64)],
    members: usize,
    mut f: impl FnMut(NodeId, NodeId, u64, u64),
) {
    let edges: Vec<(u32, u64)> = touches.iter().map(|&(_, i, w)| (i, w)).collect();
    // Per class: its profile (a range of `edges`) and its neighbors,
    // ascending.
    let mut classes: Vec<(std::ops::Range<usize>, Vec<NodeId>)> = Vec::new();
    let mut ids: HashMap<&[(u32, u64)], usize> = HashMap::new();
    let mut start = 0;
    for run in touches.chunk_by(|x, y| x.0 == y.0) {
        let profile = start..start + run.len();
        start = profile.end;
        let c = *ids.entry(&edges[profile.clone()]).or_insert_with(|| {
            classes.push((profile, Vec::new()));
            classes.len() - 1
        });
        classes[c].1.push(run[0].0);
    }
    let totals: Vec<u64> = classes
        .iter()
        .map(|(p, _)| edges[p.clone()].iter().map(|&(_, w)| w).sum())
        .collect();
    // Per member: its adjacent classes `(class, weight)`, ascending.
    let mut by_member: Vec<Vec<(usize, u64)>> = vec![Vec::new(); members];
    for (c, (p, _)) in classes.iter().enumerate() {
        for &(i, w) in &edges[p.clone()] {
            by_member[i as usize].push((c, w));
        }
    }
    let mut shared = vec![0u64; classes.len()];
    for (a, (pa, na)) in classes.iter().enumerate() {
        for &(i, wa) in &edges[pa.clone()] {
            let row = &by_member[i as usize];
            for &(b, wb) in &row[row.partition_point(|&(c, _)| c < a)..] {
                shared[b] += contribution(wa, wb);
            }
        }
        for (b, (_, nb)) in classes.iter().enumerate().skip(a) {
            let add = contribution(totals[a], totals[b]);
            let sub = std::mem::take(&mut shared[b]);
            if add == sub {
                continue;
            }
            for (x, &p) in na.iter().enumerate() {
                let partners = if a == b { &nb[x + 1..] } else { &nb[..] };
                for &q in partners {
                    f(p.min(q), p.max(q), add, sub);
                }
            }
        }
    }
}

/// The cached, incrementally-maintained common-neighbor count table.
///
/// Build it once per connectivity graph with [`CommonNeighborKernel::build`],
/// query any similarity level with [`edges_at_least`][Self::edges_at_least],
/// and keep it current through graph contractions with
/// [`contract`][Self::contract]. Semantics match the recounting oracle
/// `roleclass_spec::formation::common_neighbor_min_weights`: every live
/// node acts as a potential shared neighbor, only *eligible*
/// nodes appear as pair endpoints, and a via node's contribution to a
/// pair is the minimum of the two edge weights.
#[derive(Clone, Debug)]
pub struct CommonNeighborKernel {
    /// The pair table: packed key → exact contribution sum, sorted by
    /// key. Immutable between compactions — contractions never touch it
    /// (their deltas land in `overlay`), so it can live in a flat sorted
    /// vector instead of a hash map, which is what makes the build a
    /// merge of presorted worker runs rather than tens of millions of
    /// random-access inserts. Holds only pairs whose count reaches their
    /// pair floor. May retain entries for retired endpoints; queries
    /// filter, and compaction rebuilds.
    base: Vec<(u64, u64)>,
    /// Rank index: positions into `base` ordered by descending clamped
    /// count (ties in ascending key order). Lets every threshold query
    /// binary-search its cutoff and walk only qualifying entries.
    /// Entries whose key appears in `overlay` are skipped at query time;
    /// rebuilt together with `base` on compaction.
    rank: Vec<u32>,
    /// Current exact counts for the pairs contraction has touched
    /// (masking `base`; 0 marks a dead pair). Stays small — only
    /// multi-member contractions mutate counts, and only within the
    /// contracted neighborhoods. May hold counts below their pair
    /// floor; queries skip those, and compaction drops them.
    overlay: HashMap<u64, u64>,
    eligible: NodeBitSet,
    /// Build-time floors, if any: a pair the table does not hold has a
    /// count below its pair floor, and a pair the floors prune is never
    /// counted, at build or on contraction.
    prune: Option<PruneTable>,
    workers: usize,
    /// Eligible-endpoint count at the last rebuild; a halving means most
    /// cached pairs died, which triggers a compaction so scans stay
    /// proportional to the live table.
    eligible_watermark: usize,
    /// Pre-fetched metric handles when the kernel was built with a
    /// recorder attached; `None` keeps every instrumentation site a
    /// branch-and-skip with no clock reads.
    metrics: Option<KernelMetrics>,
}

impl CommonNeighborKernel {
    /// Builds the full count table from a borrowed unit-weight CSR
    /// (`offsets`/`nbrs` over dense row ids, each row sorted ascending,
    /// as produced by `flow::ConnectionSets::csr()`), with row `i` acting
    /// as node id `i` — the adjacency of
    /// [`WGraph::from_unit_csr`]`(offsets, nbrs)`, the graph
    /// [`contract`][Self::contract] later mutates. The adjacency is read
    /// in place; no snapshot is taken.
    ///
    /// Every row starts as an eligible pair endpoint. `workers` threads
    /// (clamped to `[1, 64]`) count disjoint row ranges; the table is
    /// identical for every worker count.
    ///
    /// `floors[i]` is the lowest level at which node `i` will ever be
    /// queried as a pair endpoint (0 or 1 = no floor; empty `floors`
    /// drop nothing). The table holds a pair only while its count is at
    /// least the larger of the two endpoint floors: pairs below it are
    /// dropped as each row is counted, never appear in any
    /// [`edges_at_least`][Self::edges_at_least] answer or in
    /// [`max_count`][Self::max_count], and are recounted exactly if a
    /// contraction touches them. Pairs whose count upper bound — the
    /// smaller degree — cannot reach that floor are not even counted.
    /// Sound for callers (like the formation sweep) that honor the floor
    /// contract.
    ///
    /// With `Some(rec)`, the build emits a `kernel.build` span
    /// (count/merge/rank phases) and the kernel keeps pre-fetched metric
    /// handles so queries, contractions, and compactions record into the
    /// same registry for the rest of its life. The table is
    /// bit-identical either way.
    pub fn build(
        offsets: &[u32],
        nbrs: &[u32],
        workers: usize,
        floors: &[u32],
        rec: Option<&Recorder>,
    ) -> Self {
        let _build_span = telemetry::span(rec, "kernel.build");
        let metrics = rec.map(|r| KernelMetrics::register(r.registry()));
        let started = metrics.as_ref().map(|_| Instant::now());

        let rows = offsets.len().saturating_sub(1);
        let mut eligible = NodeBitSet::with_bound(rows);
        for i in 0..rows {
            eligible.insert(NodeId::from_index(i));
        }
        let prune = PruneTable::new(floors, offsets);
        let workers = workers.clamp(1, MAX_WORKERS);
        let chunks = partition_rows(offsets, nbrs, workers);

        let count_span = telemetry::span(rec, "kernel.count");
        let prune_ref = prune.as_ref();
        let count = |r| count_chunk(offsets, nbrs, prune_ref, r);
        let partials: Vec<ChunkCount> = if chunks.len() <= 1 {
            chunks.into_iter().map(count).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .map(|r| scope.spawn(move || count(r)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("kernel worker panicked"))
                    .collect()
            })
        };
        drop(count_span);
        if let Some(m) = &metrics {
            m.workers.set(partials.len() as i64);
            for p in &partials {
                m.worker_entries.observe(p.run.len() as f64);
                m.pruned_paths.add(p.pruned_paths);
                m.below_floor_pairs.add(p.below_floor);
                m.two_paths.add(p.two_paths);
            }
        }

        let base = {
            let _s = telemetry::span(rec, "kernel.merge");
            concat_runs(partials.into_iter().map(|p| p.run).collect())
        };
        let rank = {
            let _s = telemetry::span(rec, "kernel.rank");
            rank_of(&base)
        };
        if let (Some(m), Some(t0)) = (&metrics, started) {
            m.builds_total.inc();
            m.base_pairs.set(base.len() as i64);
            m.build_seconds.observe(t0.elapsed().as_secs_f64());
        }
        let eligible_watermark = eligible.len();
        CommonNeighborKernel {
            base,
            rank,
            overlay: HashMap::new(),
            eligible,
            prune,
            workers,
            eligible_watermark,
            metrics,
        }
    }

    /// The worker count this kernel was built with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Returns `true` if `n` is an eligible pair endpoint.
    pub fn is_eligible(&self, n: NodeId) -> bool {
        self.eligible.contains(n)
    }

    /// The exact count of a packed pair key the table holds, overlay
    /// first; `None` when the table does not hold it.
    #[inline]
    fn held(&self, pk: u64) -> Option<u64> {
        if let Some(&c) = self.overlay.get(&pk) {
            return Some(c);
        }
        self.base
            .binary_search_by_key(&pk, |&(k, _)| k)
            .ok()
            .map(|i| self.base[i].1)
    }

    /// The pair floor of a packed pair key; 0 without floors.
    #[inline]
    fn pair_floor(&self, pk: u64) -> u64 {
        self.prune.as_ref().map_or(0, |p| {
            let (a, b) = unkey(pk);
            p.pair_floor(a.index(), b.index())
        })
    }

    /// The exact count of pair `pk` in `g`, recounted from the two
    /// endpoints' adjacencies, for a pair the table does not hold.
    fn recount(&self, g: &WGraph, pk: u64) -> u64 {
        if let Some(m) = &self.metrics {
            m.recounts.inc();
        }
        let (a, b) = unkey(pk);
        let (na, nb) = (g.neighbor_slice(a), g.neighbor_slice(b));
        let (mut i, mut j) = (0, 0);
        let mut count = 0;
        while i < na.len() && j < nb.len() {
            match na[i].0.cmp(&nb[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += contribution(na[i].1, nb[j].1);
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Every eligible pair with a positive count that reaches its pair
    /// floor, sorted by `(a, b)`. With trivial floors (empty, or all
    /// ≤ 1) this is the kernel's answer to a full recount.
    pub fn edges(&self) -> Vec<CommonNeighborEdge> {
        self.edges_at_least(1)
    }

    /// The level-`k` view: every eligible pair whose count clears both
    /// `k` and its pair floor, sorted by `(a, b)`. A binary search on the
    /// rank index finds the cutoff, so only qualifying (plus overlaid)
    /// entries are visited; nothing is recounted.
    pub fn edges_at_least(&self, k: u32) -> Vec<CommonNeighborEdge> {
        let started = self.metrics.as_ref().map(|_| Instant::now());
        let k = k.max(1);
        let cut = self
            .rank
            .partition_point(|&i| clamp32(self.base[i as usize].1) >= k);
        // Full-table fast path: every base entry qualifies and nothing is
        // overlaid, so walking `base` in storage order already yields the
        // `(a, b)`-sorted answer — no rank indirection, no output sort.
        // This is the k=1 materialization the formation sweep starts
        // from, which on large graphs is most of the query volume.
        if self.overlay.is_empty() && cut == self.rank.len() {
            let mut out: Vec<CommonNeighborEdge> = Vec::with_capacity(self.base.len());
            for &(pk, c) in &self.base {
                let (a, b) = unkey(pk);
                if self.eligible.contains(a) && self.eligible.contains(b) {
                    out.push(CommonNeighborEdge {
                        a,
                        b,
                        count: clamp32(c),
                    });
                }
            }
            if let (Some(m), Some(t0)) = (&self.metrics, started) {
                m.threshold_queries_total.inc();
                m.threshold_seconds.observe(t0.elapsed().as_secs_f64());
            }
            return out;
        }
        let mut out: Vec<CommonNeighborEdge> = Vec::new();
        for &i in &self.rank[..cut] {
            let (pk, c) = self.base[i as usize];
            if self.overlay.contains_key(&pk) {
                continue; // current value handled from the overlay below
            }
            let (a, b) = unkey(pk);
            if self.eligible.contains(a) && self.eligible.contains(b) {
                out.push(CommonNeighborEdge {
                    a,
                    b,
                    count: clamp32(c),
                });
            }
        }
        for (&pk, &c) in &self.overlay {
            let count = clamp32(c);
            if count < k || c < self.pair_floor(pk) {
                continue;
            }
            let (a, b) = unkey(pk);
            if self.eligible.contains(a) && self.eligible.contains(b) {
                out.push(CommonNeighborEdge { a, b, count });
            }
        }
        out.sort_unstable_by_key(|e| (e.a, e.b));
        if let (Some(m), Some(t0)) = (&self.metrics, started) {
            m.threshold_queries_total.inc();
            m.threshold_seconds.observe(t0.elapsed().as_secs_f64());
        }
        out
    }

    /// Largest count over eligible pairs that reach their pair floor, or
    /// 0 if none remain — the level-jump oracle of the formation sweep.
    /// Walks the rank index in descending count order and stops at the
    /// first live entry.
    pub fn max_count(&self) -> u32 {
        if self.eligible.len() < 2 {
            return 0;
        }
        let mut best = 0u32;
        for (&pk, &c) in &self.overlay {
            let count = clamp32(c);
            if count > best && c >= self.pair_floor(pk) {
                let (a, b) = unkey(pk);
                if self.eligible.contains(a) && self.eligible.contains(b) {
                    best = count;
                }
            }
        }
        for &i in &self.rank {
            let (pk, c) = self.base[i as usize];
            let count = clamp32(c);
            if count <= best {
                break; // descending order: nothing better follows
            }
            if self.overlay.contains_key(&pk) {
                continue;
            }
            let (a, b) = unkey(pk);
            if self.eligible.contains(a) && self.eligible.contains(b) {
                best = count;
                break;
            }
        }
        best
    }

    /// Contracts `members` of `g` into a fresh node (see
    /// [`WGraph::contract`]) while keeping the count table exact.
    ///
    /// Members stop being eligible endpoints; the replacement node is
    /// *not* an eligible endpoint (it still contributes as a shared
    /// neighbor, which is the grouping algorithm's contract for group
    /// nodes). Returns the contraction result `(new_id, internal_weight)`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`WGraph::contract`].
    pub fn contract(&mut self, g: &mut WGraph, members: &[NodeId]) -> (NodeId, u64) {
        let started = self.metrics.as_ref().map(|_| Instant::now());
        // Singleton fast path: the replacement node inherits the
        // member's edges verbatim, so its via-contribution to every
        // surviving pair is *identical* to the member's — the count
        // table does not change at all. Only eligibility moves. This
        // matters: the bootstrap step contracts high-degree loners one
        // by one, and the general path would classify every neighbor of
        // each loner only to find every delta 0.
        if let [v] = *members {
            self.eligible.remove(v);
            let (m, internal) = g.contract(members);
            self.eligible.grow(g.id_bound());
            self.maybe_compact();
            self.note_contract(started, true);
            return (m, internal);
        }

        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        let in_members = |n: NodeId| sorted.binary_search(&n).is_ok();

        // Each eligible non-member neighbor's profile: its edges into
        // the members, `(member index, weight)` in member order. Pairs
        // with a member endpoint die wholesale (eligibility flips
        // below), so only these neighbors' pairs can change.
        let mut touches: Vec<(NodeId, u32, u64)> = Vec::new();
        for (i, &v) in sorted.iter().enumerate() {
            touches.extend(
                g.neighbor_slice(v)
                    .iter()
                    .filter(|&&(n, _)| self.eligible.contains(n) && !in_members(n))
                    .map(|&(n, w)| (n, i as u32, w)),
            );
        }
        touches.sort_unstable_by_key(|&(n, i, _)| (n, i));

        for &v in &sorted {
            self.eligible.remove(v);
        }
        let (m, internal) = g.contract(members);
        self.eligible.grow(g.id_bound());

        // Only pairs whose count changes reach the closure.
        let mut writes = 0u64;
        net_deltas(&touches, sorted.len(), |a, b, add, sub| {
            if !self.is_pruned(a, b) {
                self.apply_delta(g, key(a, b), add, sub);
                writes += 1;
            }
        });
        if let Some(met) = &self.metrics {
            met.contract_pair_updates.add(writes);
        }

        self.maybe_compact();
        self.note_contract(started, false);
        (m, internal)
    }

    /// Whether the pair `(a, b)` is suppressed by the build-time prune
    /// floors. Always `false` on unpruned kernels.
    #[inline]
    fn is_pruned(&self, a: NodeId, b: NodeId) -> bool {
        self.prune
            .as_ref()
            .is_some_and(|p| p.pruned(a.index(), b.index()))
    }

    /// Records a finished contraction on the attached metrics, if any.
    fn note_contract(&self, started: Option<Instant>, singleton: bool) {
        if let (Some(m), Some(t0)) = (&self.metrics, started) {
            m.contractions_total.inc();
            if singleton {
                m.singleton_contractions_total.inc();
            }
            m.overlay_entries.set(self.overlay.len() as i64);
            m.contract_seconds.observe(t0.elapsed().as_secs_f64());
        }
    }

    /// Moves pair `k`'s count by `add − sub`, where `sub` is the
    /// members' share of the old count. A pair the table does not hold
    /// is recounted on the already contracted `g`.
    #[inline]
    fn apply_delta(&mut self, g: &WGraph, k: u64, add: u64, sub: u64) {
        let next = match self.held(k) {
            Some(cur) => {
                debug_assert!(cur >= sub, "kernel count underflow");
                (cur + add).saturating_sub(sub)
            }
            // Unheld below a floor of at most 1: the count was 0, so
            // no member contributed to it.
            None if self.pair_floor(k) <= 1 => {
                debug_assert_eq!(sub, 0, "unheld pair with a member share");
                add
            }
            None => self.recount(g, k),
        };
        self.overlay.insert(k, next);
    }

    /// Rebuilds `base`/`rank` — folding the overlay in and dropping
    /// retired and below-floor pairs — once the overlay rivals the base
    /// or most eligible endpoints have died, keeping query scans
    /// proportional to the live table.
    fn maybe_compact(&mut self) {
        let bloated = self.overlay.len() * 2 >= self.base.len().max(2048);
        let decimated =
            self.base.len() >= 2048 && self.eligible.len() * 2 <= self.eligible_watermark;
        if !bloated && !decimated {
            return;
        }
        // Every patch masks its base entry, so below-floor patches are
        // filtered at emission, not here.
        let mut patches: Vec<(u64, u64)> = std::mem::take(&mut self.overlay).into_iter().collect();
        patches.sort_unstable_by_key(|&(k, _)| k);
        let eligible = &self.eligible;
        let live = |pk: u64| {
            let (a, b) = unkey(pk);
            eligible.contains(a) && eligible.contains(b)
        };
        let keep = |(pk, c): (u64, u64)| c > 0 && c >= self.pair_floor(pk) && live(pk);
        // Merge the key-sorted base (minus overlaid keys) with the
        // overlay patches; both streams are sorted, the result stays
        // sorted.
        let mut next: Vec<(u64, u64)> = Vec::with_capacity(self.base.len());
        let mut pi = 0usize;
        for &(pk, c) in &self.base {
            while pi < patches.len() && patches[pi].0 < pk {
                if keep(patches[pi]) {
                    next.push(patches[pi]);
                }
                pi += 1;
            }
            if pi < patches.len() && patches[pi].0 == pk {
                continue; // patched entry is emitted by the loop above
            }
            if c > 0 && live(pk) {
                next.push((pk, c));
            }
        }
        for &p in &patches[pi..] {
            if keep(p) {
                next.push(p);
            }
        }
        self.base = next;
        self.rank = rank_of(&self.base);
        self.eligible_watermark = self.eligible.len();
        if let Some(m) = &self.metrics {
            m.compactions_total.inc();
            m.base_pairs.set(self.base.len() as i64);
        }
    }
}

#[inline]
fn clamp32(c: u64) -> u32 {
    c.min(u32::MAX as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Hub 0 → {1, 2, 3} with an extra 1–2 edge, as a unit CSR.
    const STAR_PLUS_PAIR: (&[u32], &[u32]) = (&[0, 3, 5, 7, 8], &[1, 2, 3, 0, 2, 0, 1, 0]);

    #[test]
    fn bitset_round_trip() {
        let mut s = NodeBitSet::with_bound(10);
        assert_eq!(s.len(), 0);
        s.insert(n(3));
        s.insert(n(200)); // forces growth
        assert!(s.contains(n(3)));
        assert!(s.contains(n(200)));
        assert!(!s.contains(n(4)));
        assert_eq!(s.len(), 2);
        s.remove(n(3));
        assert!(!s.contains(n(3)));
        s.remove(n(9999)); // out of range: no-op
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn build_handles_empty_inputs() {
        let empty = CommonNeighborKernel::build(&[], &[], 2, &[], None);
        assert!(empty.edges().is_empty());
        assert_eq!(empty.max_count(), 0);
        let isolated = CommonNeighborKernel::build(&[0, 0, 0], &[], 2, &[], None);
        assert!(isolated.edges().is_empty());
    }

    #[test]
    fn default_worker_count_is_positive() {
        assert!(default_worker_count() >= 1);
        assert!(default_worker_count() <= MAX_WORKERS);
    }

    #[test]
    fn pruned_build_counts_pruned_paths() {
        // Hub 0 → spokes 1..=6: every spoke pair shares the hub, and
        // every spoke has degree 1. Spokes 1 and 2 floor at 2, so every
        // pair touching them is pruned; pairs among spokes 3..=6 stay.
        let offsets = [0, 6, 7, 8, 9, 10, 11, 12];
        let nbrs = [1, 2, 3, 4, 5, 6, 0, 0, 0, 0, 0, 0];
        let rec = Recorder::new();
        let floors = [0, 2, 2, 1, 1, 1, 1];
        let kernel = CommonNeighborKernel::build(&offsets, &nbrs, 2, &floors, Some(&rec));
        let pruned = rec
            .registry()
            .counter("roleclass_kernel_pruned_paths_total")
            .get();
        // Pairs {1,2}×{1..6} minus the (1,2) double-count: each pruned
        // pair is one suppressed two-path through the hub.
        assert_eq!(pruned, 9);
        let kept: Vec<(u32, u32, u32)> = kernel
            .edges()
            .iter()
            .map(|e| (e.a.0, e.b.0, e.count))
            .collect();
        let expect: Vec<(u32, u32, u32)> = (3..7)
            .flat_map(|a| (a + 1..7).map(move |b| (a, b, 1)))
            .collect();
        assert_eq!(kept, expect);
    }

    #[test]
    fn telemetry_build_is_bit_identical_and_records() {
        let (offsets, nbrs) = STAR_PLUS_PAIR;
        let mut g = WGraph::from_unit_csr(offsets, nbrs);
        let rec = Recorder::new();
        let plain = CommonNeighborKernel::build(offsets, nbrs, 2, &[], None);
        let mut traced = CommonNeighborKernel::build(offsets, nbrs, 2, &[], Some(&rec));
        assert_eq!(plain.edges(), traced.edges());
        // Every node is an endpoint, so the build walks each via once
        // from each of its neighbors: Σ_v deg(v)² two-paths.
        let two_paths: usize = g.nodes().map(|v| g.degree(v) * g.degree(v)).sum();
        assert_eq!(
            rec.registry()
                .counter("roleclass_kernel_two_paths_total")
                .get(),
            two_paths as u64
        );

        traced.contract(&mut g, &[n(3)]);
        let _ = traced.edges_at_least(1);

        let reg = rec.registry();
        assert_eq!(reg.counter("roleclass_kernel_builds_total").get(), 1);
        assert_eq!(reg.counter("roleclass_kernel_contractions_total").get(), 1);
        assert_eq!(
            reg.counter("roleclass_kernel_singleton_contractions_total")
                .get(),
            1
        );
        assert!(
            reg.counter("roleclass_kernel_threshold_queries_total")
                .get()
                >= 1
        );
        // Every registered name is declared in the lint list.
        for name in reg.names() {
            assert!(KERNEL_METRIC_NAMES.contains(&name.as_str()), "{name}");
        }
        // The build span tree has the phase children.
        let spans = rec.spans();
        assert_eq!(spans[0].name, "kernel.build");
        let phases: Vec<&str> = spans[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(phases, ["kernel.count", "kernel.merge", "kernel.rank"]);
    }
}
