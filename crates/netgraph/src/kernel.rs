//! The common-neighbor kernel: count every pair **once**, serve every
//! similarity level by thresholding, and patch the counts locally when
//! the graph contracts.
//!
//! The grouping algorithm's inner loop needs, at each level `k`, every
//! pair of eligible nodes whose weighted common-neighbor count clears
//! `k`. Recomputing the full count table per level costs
//! `O(levels · Σ deg(v)²)`; this module instead computes the table once
//! with a row-centric pass: each worker owns a contiguous ascending
//! range of endpoint rows and, for row `a`, accumulates the
//! contributions of every two-path `a–via–b` (`b > a`) into a
//! per-partner accumulator — a fixed-stride `u64` bitset tracks touched
//! partners for high-degree rows (walked in word order, which emits the
//! row already key-sorted), while low-degree rows collect into a small
//! vector that is sort-aggregated. Because row ranges are disjoint and
//! ascending, concatenating the workers' runs yields the globally
//! key-sorted table with no merge and no global sort. Pairs whose
//! count upper bound (the smaller weighted degree) falls below a
//! caller-supplied per-endpoint prune floor are never materialized at
//! all. The table is kept in a flat key-sorted vector with a
//! descending-count rank index so each level is answered by a
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
//! filtering at query time. The update is therefore
//! `O(Σ_{v ∈ M} deg(v)² + deg(m)²)` — proportional to the mutated
//! neighborhoods, not the graph — and contracting a *singleton* is free:
//! the replacement node inherits the member's edges verbatim, so no
//! count changes at all.
//!
//! Counts are kept as exact `u64` sums of per-via contributions (each
//! clamped at `u32::MAX`, matching
//! [`common_neighbor_min_weights`][crate::common_neighbor_min_weights]'s
//! saturating arithmetic), so subtraction inverts addition exactly and
//! the incremental table is bit-identical to a from-scratch recount —
//! regardless of worker count, because integer addition commutes.

use crate::common::{key, unkey, CommonNeighborEdge};
use crate::id::NodeId;
use crate::wgraph::WGraph;
use std::collections::HashMap;
use std::time::Instant;
use telemetry::{Recorder, Registry};

/// Every metric the kernel registers, in export (sorted) order. The
/// workspace metric-name lint checks uniqueness and prefixing against
/// this list.
pub const KERNEL_METRIC_NAMES: &[&str] = &[
    "roleclass_kernel_base_pairs",
    "roleclass_kernel_build_seconds",
    "roleclass_kernel_builds_total",
    "roleclass_kernel_compactions_total",
    "roleclass_kernel_contract_seconds",
    "roleclass_kernel_contractions_total",
    "roleclass_kernel_overlay_entries",
    "roleclass_kernel_pruned_paths_total",
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
pub struct KernelMetrics {
    /// Kernel builds completed.
    builds_total: telemetry::Counter,
    /// Wall-clock seconds per full build (CSR + count + merge + rank).
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
    /// Two-paths `a–via–b` enumerated at build — the work measure the
    /// profile layer divides build time by.
    two_paths: telemetry::Counter,
    /// Base/rank rebuilds triggered by overlay bloat or endpoint decay.
    compactions_total: telemetry::Counter,
    /// `edges_at_least` calls answered.
    threshold_queries_total: telemetry::Counter,
    /// Seconds per threshold query.
    threshold_seconds: telemetry::Histogram,
    /// Seconds per contraction (subtract + graph contract + re-add).
    contract_seconds: telemetry::Histogram,
}

impl KernelMetrics {
    /// Registers (or re-fetches) the kernel's metrics on `reg`.
    pub fn register(reg: &Registry) -> Self {
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
pub struct NodeBitSet {
    bits: Vec<u64>,
}

impl NodeBitSet {
    /// Creates an empty set able to hold ids below `bound`.
    pub fn with_bound(bound: usize) -> Self {
        NodeBitSet {
            bits: vec![0; bound.div_ceil(64)],
        }
    }

    /// Ensures ids below `bound` are representable.
    pub fn grow(&mut self, bound: usize) {
        let words = bound.div_ceil(64);
        if words > self.bits.len() {
            self.bits.resize(words, 0);
        }
    }

    /// Inserts `n` (grows as needed).
    pub fn insert(&mut self, n: NodeId) {
        self.grow(n.index() + 1);
        self.bits[n.index() / 64] |= 1u64 << (n.index() % 64);
    }

    /// Removes `n` if present.
    pub fn remove(&mut self, n: NodeId) {
        if let Some(w) = self.bits.get_mut(n.index() / 64) {
            *w &= !(1u64 << (n.index() % 64));
        }
    }

    /// Returns `true` if `n` is in the set.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        self.bits
            .get(n.index() / 64)
            .is_some_and(|w| w & (1u64 << (n.index() % 64)) != 0)
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

/// Immutable CSR snapshot of a [`WGraph`]'s adjacency, indexed by raw
/// node id (dead ids get empty rows). Built once per kernel build so the
/// parallel pass reads two flat arrays instead of chasing per-node
/// `Vec`s.
struct Csr {
    offsets: Vec<usize>,
    nbrs: Vec<NodeId>,
    weights: Vec<u64>,
}

impl Csr {
    fn snapshot(g: &WGraph) -> Csr {
        let bound = g.id_bound();
        let mut offsets = Vec::with_capacity(bound + 1);
        let mut nbrs = Vec::with_capacity(2 * g.edge_count());
        let mut weights = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for i in 0..bound {
            let id = NodeId::from_index(i);
            if g.contains_node(id) {
                for &(n, w) in g.neighbor_slice(id) {
                    nbrs.push(n);
                    weights.push(w);
                }
            }
            offsets.push(nbrs.len());
        }
        Csr {
            offsets,
            nbrs,
            weights,
        }
    }

    #[inline]
    fn row(&self, i: usize) -> (&[NodeId], &[u64]) {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        (&self.nbrs[lo..hi], &self.weights[lo..hi])
    }

    fn row_count(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// The adjacency the counting pass runs over: either the owned weighted
/// snapshot of a [`WGraph`], or a caller-provided unit-weight CSR (such
/// as `flow::ConnectionSets::csr()`) borrowed directly with no copy.
#[derive(Clone, Copy)]
enum CsrSource<'a> {
    Weighted(&'a Csr),
    Unit { offsets: &'a [u32], nbrs: &'a [u32] },
}

impl CsrSource<'_> {
    fn row_count(&self) -> usize {
        match *self {
            CsrSource::Weighted(c) => c.row_count(),
            CsrSource::Unit { offsets, .. } => offsets.len().saturating_sub(1),
        }
    }

    #[inline]
    fn degree(&self, i: usize) -> usize {
        match *self {
            CsrSource::Weighted(c) => c.offsets[i + 1] - c.offsets[i],
            CsrSource::Unit { offsets, .. } => (offsets[i + 1] - offsets[i]) as usize,
        }
    }

    /// Sum of row `i`'s edge weights — the upper bound on any pair
    /// count with `i` as an endpoint. Saturating: an overflowed sum only
    /// weakens the bound, never breaks it.
    fn weighted_degree(&self, i: usize) -> u64 {
        match *self {
            CsrSource::Weighted(c) => {
                let (lo, hi) = (c.offsets[i], c.offsets[i + 1]);
                c.weights[lo..hi]
                    .iter()
                    .fold(0u64, |acc, &w| acc.saturating_add(w))
            }
            CsrSource::Unit { offsets, .. } => (offsets[i + 1] - offsets[i]) as u64,
        }
    }

    /// Cost model of the per-row counting pass: row `i` walks every
    /// neighbor's full row.
    fn neighbor_degree_sum(&self, i: usize) -> usize {
        match *self {
            CsrSource::Weighted(c) => c.row(i).0.iter().map(|v| self.degree(v.index())).sum(),
            CsrSource::Unit { offsets, nbrs } => nbrs[offsets[i] as usize..offsets[i + 1] as usize]
                .iter()
                .map(|&v| self.degree(v as usize))
                .sum(),
        }
    }
}

/// Per-pair prune inputs, fixed at build time: one floor and one
/// weighted degree per node row.
///
/// A pair `(a, b)` is *pruned* — never materialized, at build or on
/// contraction — when `min(wdeg(a), wdeg(b)) < max(floor(a), floor(b))`:
/// the pair's count can never reach the lowest level at which both
/// endpoints are still queried. The bound is stable under contraction
/// because a surviving node's weighted degree is invariant (edges to
/// merged members re-attach to the group node with their weights
/// summed) and group nodes are never eligible endpoints.
#[derive(Clone, Debug)]
struct PruneTable {
    floors: Vec<u32>,
    wdeg: Vec<u64>,
}

impl PruneTable {
    /// Builds the table from caller floors + the CSR's weighted degrees,
    /// or `None` when no floor exceeds 1 (floors of 0/1 can never prune:
    /// any pair sharing a neighbor has both weighted degrees ≥ 1).
    fn new(floors: &[u32], csr: &CsrSource<'_>) -> Option<PruneTable> {
        if floors.iter().all(|&f| f <= 1) {
            return None;
        }
        let wdeg = (0..csr.row_count())
            .map(|i| csr.weighted_degree(i))
            .collect();
        Some(PruneTable {
            floors: floors.to_vec(),
            wdeg,
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

    #[inline]
    fn pruned(&self, a: usize, b: usize) -> bool {
        let floor = self.floor(a).max(self.floor(b)) as u64;
        self.wdeg_of(a).min(self.wdeg_of(b)) < floor
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
/// equal counting work. The pass for row `a` visits every neighbor of
/// every neighbor, so its cost is `Σ_{via ∈ N(a)} deg(via)`.
fn partition_rows(csr: &CsrSource<'_>, workers: usize) -> Vec<std::ops::Range<usize>> {
    let work_of = |i: usize| csr.neighbor_degree_sum(i);
    let total: usize = (0..csr.row_count()).map(work_of).sum();
    let target = total.div_ceil(workers.max(1)).max(1);
    let mut chunks = Vec::with_capacity(workers);
    let mut start = 0;
    let mut acc = 0;
    for i in 0..csr.row_count() {
        acc += work_of(i);
        if acc >= target {
            chunks.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < csr.row_count() {
        chunks.push(start..csr.row_count());
    }
    chunks
}

/// Per-via contribution of one shared neighbor, clamped exactly like
/// [`common_neighbor_min_weights`][crate::common_neighbor_min_weights].
#[inline]
fn contribution(wa: u64, wb: u64) -> u64 {
    wa.min(wb).min(u32::MAX as u64)
}

/// Per-worker scratch for the row-centric counting pass: a dense
/// contribution accumulator plus a fixed-stride `u64` bitset of touched
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

/// One worker's output from [`count_chunk`].
struct ChunkCount {
    /// The key-sorted `(pair key, count)` run.
    run: Vec<(u64, u64)>,
    /// Contributions the prune floors suppressed.
    pruned_paths: u64,
    /// Two-paths enumerated: `Σ_via |N(via)|` over the eligible rows.
    two_paths: u64,
}

/// One worker's pass over a contiguous ascending range of endpoint rows.
/// For each eligible row `a`, every two-path `a–via–b` with `b > a` and
/// `b` eligible contributes `min(w(a,via), w(via,b))` to the pair
/// `(a, b)`; per-row emission is key-sorted, and rows ascend, so the
/// returned run is key-sorted as a whole. Dispatches once
/// per chunk to a weight-specialized loop — the unit path carries no
/// per-element weight reads at all.
fn count_chunk(
    csr: &CsrSource<'_>,
    eligible: &NodeBitSet,
    prune: Option<&PruneTable>,
    rows: std::ops::Range<usize>,
) -> ChunkCount {
    match *csr {
        CsrSource::Weighted(c) => count_chunk_weighted(c, eligible, prune, rows),
        CsrSource::Unit { offsets, nbrs } => count_chunk_unit(offsets, nbrs, eligible, prune, rows),
    }
}

fn count_chunk_weighted(
    csr: &Csr,
    eligible: &NodeBitSet,
    prune: Option<&PruneTable>,
    rows: std::ops::Range<usize>,
) -> ChunkCount {
    let mut scratch = RowScratch::new(csr.row_count());
    let mut out: Vec<(u64, u64)> = Vec::new();
    let mut pruned_paths = 0u64;
    let mut two_paths = 0u64;
    for a in rows {
        if !eligible.contains(NodeId::from_index(a)) {
            continue;
        }
        let (fa, wda) = match prune {
            Some(p) => (p.floor(a), p.wdeg_of(a)),
            None => (0, u64::MAX),
        };
        let (a_nbrs, a_weights) = csr.row(a);
        let work: usize = a_nbrs
            .iter()
            .map(|v| csr.offsets[v.index() + 1] - csr.offsets[v.index()])
            .sum();
        two_paths += work as u64;
        let dense = work >= scratch.touched.len().saturating_sub(a / 64);
        for (&via, &wa) in a_nbrs.iter().zip(a_weights) {
            let (v_nbrs, v_weights) = csr.row(via.index());
            for (&b, &wb) in v_nbrs.iter().zip(v_weights) {
                if b.index() <= a || !eligible.contains(b) {
                    continue;
                }
                if let Some(p) = prune {
                    if p.pruned_vs(wda, fa, b.index()) {
                        pruned_paths += 1;
                        continue;
                    }
                }
                let c = contribution(wa, wb);
                if dense {
                    scratch.acc[b.index()] += c;
                    scratch.touched[b.index() / 64] |= 1u64 << (b.index() % 64);
                } else {
                    scratch.sparse.push((b.0, c));
                }
            }
        }
        if dense {
            scratch.drain_dense(a, &mut out);
        } else {
            scratch.drain_sparse(a, &mut out);
        }
    }
    ChunkCount {
        run: out,
        pruned_paths,
        two_paths,
    }
}

fn count_chunk_unit(
    offsets: &[u32],
    nbrs: &[u32],
    eligible: &NodeBitSet,
    prune: Option<&PruneTable>,
    rows: std::ops::Range<usize>,
) -> ChunkCount {
    let bound = offsets.len().saturating_sub(1);
    let mut scratch = RowScratch::new(bound);
    let mut out: Vec<(u64, u64)> = Vec::new();
    let mut pruned_paths = 0u64;
    let mut two_paths = 0u64;
    let row = |i: usize| &nbrs[offsets[i] as usize..offsets[i + 1] as usize];
    for a in rows {
        if !eligible.contains(NodeId::from_index(a)) {
            continue;
        }
        let (fa, wda) = match prune {
            Some(p) => (p.floor(a), p.wdeg_of(a)),
            None => (0, u64::MAX),
        };
        let a_row = row(a);
        let work: usize = a_row.iter().map(|&v| row(v as usize).len()).sum();
        two_paths += work as u64;
        let dense = work >= scratch.touched.len().saturating_sub(a / 64);
        for &via in a_row {
            for &b in row(via as usize) {
                let bi = b as usize;
                if bi <= a || !eligible.contains(NodeId::from_index(bi)) {
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
        if dense {
            scratch.drain_dense(a, &mut out);
        } else {
            scratch.drain_sparse(a, &mut out);
        }
    }
    ChunkCount {
        run: out,
        pruned_paths,
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

/// The cached, incrementally-maintained common-neighbor count table.
///
/// Build it once per connectivity graph with [`CommonNeighborKernel::build`],
/// query any similarity level with [`edges_at_least`][Self::edges_at_least],
/// and keep it current through graph contractions with
/// [`contract`][Self::contract]. Semantics match
/// [`common_neighbor_min_weights`][crate::common_neighbor_min_weights]:
/// every live node acts as a potential shared neighbor, only *eligible*
/// nodes appear as pair endpoints, and a via node's contribution to a
/// pair is the minimum of the two edge weights.
#[derive(Clone, Debug)]
pub struct CommonNeighborKernel {
    /// The pair table: packed key → exact contribution sum, sorted by
    /// key. Immutable between compactions — contractions never touch it
    /// (their deltas land in `overlay`), so it can live in a flat sorted
    /// vector instead of a hash map, which is what makes the build a
    /// merge of presorted worker runs rather than tens of millions of
    /// random-access inserts. May retain entries for retired endpoints;
    /// queries filter, and compaction rebuilds.
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
    /// contracted neighborhoods.
    overlay: HashMap<u64, u64>,
    eligible: NodeBitSet,
    /// Build-time prune floors, if any: pairs this table prunes were
    /// never materialized and must stay unmaterialized on contraction.
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
    /// Builds the full count table for `g`, with endpoint eligibility
    /// given by `endpoint_ok`, using [`default_worker_count`] threads.
    pub fn build<F>(g: &WGraph, endpoint_ok: F) -> Self
    where
        F: Fn(NodeId) -> bool,
    {
        Self::build_with_workers(g, endpoint_ok, default_worker_count())
    }

    /// [`build`][Self::build] with an explicit worker count (clamped to
    /// at least 1). The result is identical for every worker count.
    pub fn build_with_workers<F>(g: &WGraph, endpoint_ok: F, workers: usize) -> Self
    where
        F: Fn(NodeId) -> bool,
    {
        Self::build_with_telemetry(g, endpoint_ok, workers, None)
    }

    /// [`build_with_workers`][Self::build_with_workers] with an optional
    /// recorder. With `Some`, the build emits `kernel.build` spans
    /// (csr/count/merge/rank phases) and the resulting kernel keeps
    /// pre-fetched metric handles so queries, contractions, and
    /// compactions record into the same registry for the rest of its
    /// life. With `None` this is exactly `build_with_workers` — the
    /// returned table is bit-identical either way.
    pub fn build_with_telemetry<F>(
        g: &WGraph,
        endpoint_ok: F,
        workers: usize,
        rec: Option<&Recorder>,
    ) -> Self
    where
        F: Fn(NodeId) -> bool,
    {
        Self::build_pruned(g, endpoint_ok, workers, &[], rec)
    }

    /// [`build_with_telemetry`][Self::build_with_telemetry] with
    /// per-node prune floors: `floors[i]` is the lowest level at which
    /// node `i` will ever be queried as a pair endpoint (0 or 1 = no
    /// floor). Pairs whose count upper bound — the smaller weighted
    /// degree — cannot reach the larger of the two endpoint floors are
    /// never materialized, at build or on contraction, and never appear
    /// in any [`edges_at_least`][Self::edges_at_least] answer. Sound for
    /// callers (like the formation sweep) that honor the floor contract;
    /// with empty floors this is exactly `build_with_telemetry`.
    pub fn build_pruned<F>(
        g: &WGraph,
        endpoint_ok: F,
        workers: usize,
        floors: &[u32],
        rec: Option<&Recorder>,
    ) -> Self
    where
        F: Fn(NodeId) -> bool,
    {
        let _build_span = telemetry::span(rec, "kernel.build");
        let metrics = rec.map(|r| KernelMetrics::register(r.registry()));
        let started = metrics.as_ref().map(|_| Instant::now());

        let mut eligible = NodeBitSet::with_bound(g.id_bound());
        for n in g.nodes().filter(|&n| endpoint_ok(n)) {
            eligible.insert(n);
        }
        let csr = {
            let _s = telemetry::span(rec, "kernel.csr");
            Csr::snapshot(g)
        };
        let source = CsrSource::Weighted(&csr);
        let prune = PruneTable::new(floors, &source);
        Self::finish_build(source, eligible, prune, workers, rec, metrics, started)
    }

    /// Builds the count table directly from a borrowed unit-weight CSR
    /// (`offsets`/`nbrs` over dense row ids, as produced by
    /// `flow::ConnectionSets::csr()`), with row `i` acting as node id
    /// `i`. No graph snapshot is taken — the adjacency is read in place.
    /// Equivalent to [`build_pruned`][Self::build_pruned] on a
    /// [`WGraph`] holding the same edges with weight 1 everywhere; see
    /// there for the floor contract (empty `floors` prune nothing).
    pub fn build_from_unit_csr_pruned<F>(
        offsets: &[u32],
        nbrs: &[u32],
        endpoint_ok: F,
        workers: usize,
        floors: &[u32],
        rec: Option<&Recorder>,
    ) -> Self
    where
        F: Fn(NodeId) -> bool,
    {
        let _build_span = telemetry::span(rec, "kernel.build");
        let metrics = rec.map(|r| KernelMetrics::register(r.registry()));
        let started = metrics.as_ref().map(|_| Instant::now());

        let rows = offsets.len().saturating_sub(1);
        let mut eligible = NodeBitSet::with_bound(rows);
        for i in 0..rows {
            let n = NodeId::from_index(i);
            if endpoint_ok(n) {
                eligible.insert(n);
            }
        }
        let source = CsrSource::Unit { offsets, nbrs };
        let prune = PruneTable::new(floors, &source);
        Self::finish_build(source, eligible, prune, workers, rec, metrics, started)
    }

    /// The shared tail of every build entry: partition, count,
    /// concatenate, rank, and record build metrics.
    fn finish_build(
        csr: CsrSource<'_>,
        eligible: NodeBitSet,
        prune: Option<PruneTable>,
        workers: usize,
        rec: Option<&Recorder>,
        metrics: Option<KernelMetrics>,
        started: Option<Instant>,
    ) -> Self {
        let workers = workers.clamp(1, MAX_WORKERS);
        let chunks = partition_rows(&csr, workers);

        let count_span = telemetry::span(rec, "kernel.count");
        let prune_ref = prune.as_ref();
        let partials: Vec<ChunkCount> = if chunks.len() <= 1 {
            chunks
                .into_iter()
                .map(|r| count_chunk(&csr, &eligible, prune_ref, r))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .map(|r| scope.spawn(|| count_chunk(&csr, &eligible, prune_ref, r)))
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

    /// Number of eligible endpoints remaining.
    pub fn eligible_count(&self) -> usize {
        self.eligible.len()
    }

    /// Current exact count for a packed pair key, overlay first.
    #[inline]
    fn current(&self, pk: u64) -> u64 {
        if let Some(&c) = self.overlay.get(&pk) {
            return c;
        }
        match self.base.binary_search_by_key(&pk, |&(k, _)| k) {
            Ok(i) => self.base[i].1,
            Err(_) => 0,
        }
    }

    /// The cached count for the pair `(a, b)` (order-insensitive), or 0
    /// if either endpoint is ineligible or the pair shares no neighbor.
    pub fn pair_count(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b || !self.eligible.contains(a) || !self.eligible.contains(b) {
            return 0;
        }
        let k = if a < b { key(a, b) } else { key(b, a) };
        clamp32(self.current(k))
    }

    /// All eligible pairs with a positive count, sorted by `(a, b)` —
    /// the kernel's answer to a full
    /// [`common_neighbor_min_weights`][crate::common_neighbor_min_weights]
    /// call.
    pub fn edges(&self) -> Vec<CommonNeighborEdge> {
        self.edges_at_least(1)
    }

    /// The level-`k` view: every eligible pair whose count clears `k`,
    /// sorted by `(a, b)`. A binary search on the rank index finds the
    /// cutoff, so only qualifying (plus overlaid) entries are visited;
    /// nothing is recounted.
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
            if count < k {
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

    /// Largest count over eligible pairs, or 0 if none remain — the
    /// level-jump oracle of the formation sweep. Walks the rank index in
    /// descending count order and stops at the first live entry.
    pub fn max_count(&self) -> u32 {
        if self.eligible.len() < 2 {
            return 0;
        }
        let mut best = 0u32;
        for (&pk, &c) in &self.overlay {
            let count = clamp32(c);
            if count > best {
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
        // by one, and the general subtract-then-re-add path would spend
        // `O(deg²)` per loner cancelling itself out exactly.
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

        // Subtract the members' via-contributions to surviving pairs.
        // Pairs with a member endpoint die wholesale (eligibility flips
        // below), so only eligible non-member neighbors matter here.
        // Pruned pairs were never materialized, so their contributions
        // must not be subtracted (or re-added below) either.
        let mut scratch: Vec<(NodeId, u64)> = Vec::new();
        for &v in &sorted {
            scratch.clear();
            scratch.extend(
                g.neighbor_slice(v)
                    .iter()
                    .filter(|&&(n, _)| self.eligible.contains(n) && !in_members(n))
                    .copied(),
            );
            for i in 0..scratch.len() {
                let (a, wa) = scratch[i];
                for &(b, wb) in &scratch[i + 1..] {
                    if self.is_pruned(a, b) {
                        continue;
                    }
                    self.subtract(key(a, b), contribution(wa, wb));
                }
            }
        }
        for &v in &sorted {
            self.eligible.remove(v);
        }

        let (m, internal) = g.contract(members);
        self.eligible.grow(g.id_bound());

        // Add the replacement node's via-contributions.
        scratch.clear();
        scratch.extend(
            g.neighbor_slice(m)
                .iter()
                .filter(|&&(n, _)| self.eligible.contains(n))
                .copied(),
        );
        for i in 0..scratch.len() {
            let (a, wa) = scratch[i];
            for &(b, wb) in &scratch[i + 1..] {
                if self.is_pruned(a, b) {
                    continue;
                }
                self.add(key(a, b), contribution(wa, wb));
            }
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

    #[inline]
    fn subtract(&mut self, k: u64, w: u64) {
        if w == 0 {
            return;
        }
        let cur = self.current(k);
        debug_assert!(cur >= w, "kernel count underflow");
        self.overlay.insert(k, cur.saturating_sub(w));
    }

    #[inline]
    fn add(&mut self, k: u64, w: u64) {
        if w == 0 {
            return;
        }
        let cur = self.current(k);
        self.overlay.insert(k, cur + w);
    }

    /// Rebuilds `base`/`rank` — folding the overlay in and dropping
    /// retired pairs — once the overlay rivals the base or most eligible
    /// endpoints have died, keeping query scans proportional to the live
    /// table.
    fn maybe_compact(&mut self) {
        let bloated = self.overlay.len() * 2 >= self.base.len().max(2048);
        let decimated =
            self.base.len() >= 2048 && self.eligible.len() * 2 <= self.eligible_watermark;
        if !bloated && !decimated {
            return;
        }
        let mut patches: Vec<(u64, u64)> = self.overlay.drain().filter(|&(_, c)| c > 0).collect();
        patches.sort_unstable_by_key(|&(k, _)| k);
        let eligible = &self.eligible;
        let live = |pk: u64| {
            let (a, b) = unkey(pk);
            eligible.contains(a) && eligible.contains(b)
        };
        // Merge the key-sorted base (minus overlaid keys) with the
        // overlay patches; both streams are sorted, the result stays
        // sorted.
        let mut next: Vec<(u64, u64)> = Vec::with_capacity(self.base.len());
        let mut pi = 0usize;
        for &(pk, c) in &self.base {
            while pi < patches.len() && patches[pi].0 < pk {
                if live(patches[pi].0) {
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
            if live(p.0) {
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
    use crate::common::common_neighbor_min_weights;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Hub 0 → {1, 2, 3} with an extra 1–2 edge, weights 1.
    fn star_plus_pair() -> WGraph {
        let mut g = WGraph::new();
        for _ in 0..4 {
            g.add_node();
        }
        g.add_edge(n(0), n(1), 1);
        g.add_edge(n(0), n(2), 1);
        g.add_edge(n(0), n(3), 1);
        g.add_edge(n(1), n(2), 1);
        g
    }

    #[test]
    fn bitset_round_trip() {
        let mut s = NodeBitSet::with_bound(10);
        assert!(s.is_empty());
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
    fn build_matches_reference_counts() {
        let g = star_plus_pair();
        let kernel = CommonNeighborKernel::build_with_workers(&g, |_| true, 1);
        assert_eq!(kernel.edges(), common_neighbor_min_weights(&g, |_| true));
    }

    #[test]
    fn unit_csr_build_matches_graph_build() {
        // star_plus_pair as a CSR: rows 0..4, sorted neighbor ids.
        let offsets: &[u32] = &[0, 3, 5, 7, 8];
        let nbrs: &[u32] = &[1, 2, 3, 0, 2, 0, 1, 0];
        let g = star_plus_pair();
        for workers in [1, 3] {
            let from_csr = CommonNeighborKernel::build_from_unit_csr_pruned(
                offsets,
                nbrs,
                |_| true,
                workers,
                &[],
                None,
            );
            let from_graph = CommonNeighborKernel::build_with_workers(&g, |_| true, workers);
            assert_eq!(from_csr.edges(), from_graph.edges());
        }
        // Endpoint filtering applies to the CSR path too.
        let filtered = CommonNeighborKernel::build_from_unit_csr_pruned(
            offsets,
            nbrs,
            |x| x != n(0),
            2,
            &[],
            None,
        );
        assert_eq!(
            filtered.edges(),
            common_neighbor_min_weights(&g, |x| x != n(0))
        );
    }

    #[test]
    fn unit_csr_build_handles_empty_inputs() {
        let empty =
            CommonNeighborKernel::build_from_unit_csr_pruned(&[], &[], |_| true, 2, &[], None);
        assert!(empty.edges().is_empty());
        let isolated = CommonNeighborKernel::build_from_unit_csr_pruned(
            &[0, 0, 0],
            &[],
            |_| true,
            2,
            &[],
            None,
        );
        assert!(isolated.edges().is_empty());
    }

    #[test]
    fn build_respects_endpoint_filter() {
        let g = star_plus_pair();
        let kernel = CommonNeighborKernel::build_with_workers(&g, |x| x != n(0), 2);
        assert_eq!(
            kernel.edges(),
            common_neighbor_min_weights(&g, |x| x != n(0))
        );
        assert!(!kernel.is_eligible(n(0)));
        assert_eq!(kernel.pair_count(n(0), n(1)), 0);
    }

    #[test]
    fn worker_counts_agree() {
        let mut g = WGraph::new();
        for _ in 0..40 {
            g.add_node();
        }
        for i in 0..40u32 {
            for j in (i + 1)..40 {
                if (i * 31 + j * 17) % 5 == 0 {
                    g.add_edge(n(i), n(j), 1 + ((i + j) % 3) as u64);
                }
            }
        }
        let one = CommonNeighborKernel::build_with_workers(&g, |_| true, 1);
        let four = CommonNeighborKernel::build_with_workers(&g, |_| true, 4);
        let many = CommonNeighborKernel::build_with_workers(&g, |_| true, 16);
        assert_eq!(one.edges(), four.edges());
        assert_eq!(one.edges(), many.edges());
        assert_eq!(one.edges(), common_neighbor_min_weights(&g, |_| true));
    }

    #[test]
    fn threshold_view_matches_filtered_recount() {
        let g = star_plus_pair();
        let kernel = CommonNeighborKernel::build(&g, |_| true);
        for k in 1..4 {
            let mut expect = common_neighbor_min_weights(&g, |_| true);
            expect.retain(|e| e.count >= k);
            assert_eq!(kernel.edges_at_least(k), expect, "level {k}");
        }
        assert_eq!(kernel.max_count(), 1);
    }

    #[test]
    fn contract_keeps_counts_exact() {
        // Figure-2 shape: two servers with three shared clients; after
        // contracting the servers, the clients share a weight-2 group
        // node.
        let mut g = WGraph::new();
        for _ in 0..5 {
            g.add_node();
        }
        for c in 2..5 {
            g.add_edge(n(0), n(c), 1);
            g.add_edge(n(1), n(c), 1);
        }
        let mut kernel = CommonNeighborKernel::build(&g, |_| true);
        assert_eq!(kernel.pair_count(n(2), n(3)), 2);

        let (m, _) = kernel.contract(&mut g, &[n(0), n(1)]);
        assert!(!kernel.is_eligible(m));
        // Fresh recount on the mutated graph, with the same eligibility.
        let fresh = common_neighbor_min_weights(&g, |x| x != m);
        assert_eq!(kernel.edges(), fresh);
        assert_eq!(kernel.pair_count(n(2), n(3)), 2);
        assert_eq!(kernel.max_count(), 2);
    }

    #[test]
    fn contract_singleton_preserves_surviving_counts() {
        let mut g = star_plus_pair();
        let mut kernel = CommonNeighborKernel::build(&g, |_| true);
        let before = kernel.pair_count(n(1), n(2));
        let (m, _) = kernel.contract(&mut g, &[n(3)]);
        // Node 3 was a spoke; the surviving pair counts are unchanged
        // because the replacement node carries identical edges.
        assert_eq!(kernel.pair_count(n(1), n(2)), before);
        let fresh = common_neighbor_min_weights(&g, |x| x != m);
        assert_eq!(kernel.edges(), fresh);
    }

    #[test]
    fn compaction_preserves_view() {
        // Hub-heavy graph large enough to cross both compaction
        // triggers: the pair table exceeds the 2048-entry floor, and
        // batched contractions first bloat the overlay, then halve the
        // eligible population.
        let mut g = WGraph::new();
        for _ in 0..80 {
            g.add_node();
        }
        for h in 0..4u32 {
            for v in 4..80u32 {
                g.add_edge(n(h), n(v), 1 + ((h + v) % 3) as u64);
            }
        }
        let mut kernel = CommonNeighborKernel::build_with_workers(&g, |_| true, 2);
        assert!(kernel.edges().len() > 2048);

        for batch in 0..12u32 {
            let members: Vec<NodeId> = (0..5).map(|i| n(4 + batch * 5 + i)).collect();
            kernel.contract(&mut g, &members);
            let fresh = common_neighbor_min_weights(&g, |x| kernel.is_eligible(x));
            assert_eq!(kernel.edges(), fresh, "after batch {batch}");
            for k in 1..=kernel.max_count() + 1 {
                let mut expect = fresh.clone();
                expect.retain(|e| e.count >= k);
                assert_eq!(kernel.edges_at_least(k), expect, "batch {batch} level {k}");
            }
        }
    }

    /// Hub 0 → spokes 1..=6 with weight(0,i) = i, so pair (i, j) has
    /// count min(i, j) and spoke i has weighted degree i.
    fn weighted_star() -> WGraph {
        let mut g = WGraph::new();
        for _ in 0..7 {
            g.add_node();
        }
        for i in 1..7u32 {
            g.add_edge(n(0), n(i), i as u64);
        }
        g
    }

    #[test]
    fn trivial_floors_never_prune() {
        let g = weighted_star();
        let plain = CommonNeighborKernel::build_with_workers(&g, |_| true, 2);
        let pruned =
            CommonNeighborKernel::build_pruned(&g, |_| true, 2, &[1, 0, 1, 1, 1, 1, 1], None);
        assert_eq!(plain.edges(), pruned.edges());
    }

    #[test]
    fn pruned_build_suppresses_only_unreachable_pairs() {
        let g = weighted_star();
        // Every spoke floors at 3: pair (i, j) can count at most
        // min(i, j), so pairs touching spokes 1 or 2 are pruned.
        let floors = [0, 3, 3, 3, 3, 3, 3];
        let kernel = CommonNeighborKernel::build_pruned(&g, |x| x != n(0), 2, &floors, None);
        let reference = common_neighbor_min_weights(&g, |x| x != n(0));
        // Below the floor the pruned view is a subset...
        let surviving: Vec<_> = reference
            .iter()
            .filter(|e| e.a.0 >= 3 && e.b.0 >= 3)
            .cloned()
            .collect();
        assert_eq!(kernel.edges(), surviving);
        // ...and at any level the floors admit, the answers agree exactly:
        // a pruned pair's count is below every such level by construction.
        for k in 3..=7 {
            let mut expect = reference.clone();
            expect.retain(|e| e.count >= k);
            assert_eq!(kernel.edges_at_least(k), expect, "level {k}");
        }
    }

    #[test]
    fn pruned_kernel_counts_pruned_paths() {
        let g = weighted_star();
        let rec = Recorder::new();
        let floors = [0, 3, 3, 3, 3, 3, 3];
        let _kernel = CommonNeighborKernel::build_pruned(&g, |x| x != n(0), 2, &floors, Some(&rec));
        let pruned = rec
            .registry()
            .counter("roleclass_kernel_pruned_paths_total")
            .get();
        // Pairs {1,2}×{1..6} minus the (1,2) double-count: each pruned
        // pair is one suppressed two-path through the hub.
        assert_eq!(pruned, 9);
    }

    #[test]
    fn pruned_kernel_stays_consistent_through_contraction() {
        // Two servers sharing three clients, plus a leaf hanging off one
        // client. The leaf's weighted degree is 1, so with floor 2
        // everywhere its pairs are pruned — including pairs with the
        // servers that a contraction later subtracts and re-adds.
        let mut g = WGraph::new();
        for _ in 0..6 {
            g.add_node();
        }
        for c in 2..5 {
            g.add_edge(n(0), n(c), 1);
            g.add_edge(n(1), n(c), 1);
        }
        g.add_edge(n(2), n(5), 1);
        let floors = [2u32; 6];
        let mut kernel = CommonNeighborKernel::build_pruned(&g, |_| true, 2, &floors, None);

        let (m, _) = kernel.contract(&mut g, &[n(0), n(1)]);
        assert!(!kernel.is_eligible(m));
        let fresh = common_neighbor_min_weights(&g, |x| kernel.is_eligible(x));
        for k in 2..=3 {
            let mut expect = fresh.clone();
            expect.retain(|e| e.count >= k);
            assert_eq!(kernel.edges_at_least(k), expect, "level {k}");
        }
    }

    #[test]
    fn empty_graph_builds_empty_kernel() {
        let g = WGraph::new();
        let kernel = CommonNeighborKernel::build(&g, |_| true);
        assert!(kernel.edges().is_empty());
        assert_eq!(kernel.max_count(), 0);
        assert_eq!(kernel.eligible_count(), 0);
    }

    #[test]
    fn default_worker_count_is_positive() {
        assert!(default_worker_count() >= 1);
        assert!(default_worker_count() <= MAX_WORKERS);
    }

    #[test]
    fn telemetry_build_is_bit_identical_and_records() {
        let mut g = star_plus_pair();
        let rec = Recorder::new();
        let plain = CommonNeighborKernel::build_with_workers(&g, |_| true, 2);
        let mut traced = CommonNeighborKernel::build_with_telemetry(&g, |_| true, 2, Some(&rec));
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
        assert_eq!(
            phases,
            ["kernel.csr", "kernel.count", "kernel.merge", "kernel.rank"]
        );
    }
}
