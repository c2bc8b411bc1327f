//! Property-based tests of the common-neighbor kernel: on arbitrary
//! unit-weight CSR graphs, and through arbitrary contraction sequences
//! (the only place weights enter), the cached, parallel,
//! incrementally-updated kernel must be indistinguishable from the
//! straightforward recount in `roleclass_spec::formation`.

use netgraph::{CommonNeighborEdge, CommonNeighborKernel, NodeId, WGraph};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use roleclass_spec::formation::common_neighbor_min_weights;

const N: u32 = 20;

/// A unit-weight adjacency in the CSR form `ConnectionSets::csr()`
/// hands the kernel: `offsets` over rows `0..N`, each row sorted.
struct Csr {
    offsets: Vec<u32>,
    nbrs: Vec<u32>,
}

impl Csr {
    /// Builds the CSR of an undirected edge list over `n` nodes;
    /// duplicates and self-loops are dropped.
    fn of(n: u32, edges: &[(u32, u32)]) -> Csr {
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        for &(a, b) in edges {
            if a != b {
                rows[a as usize].push(b);
                rows[b as usize].push(a);
            }
        }
        let mut offsets = vec![0];
        let mut nbrs = Vec::new();
        for mut row in rows {
            row.sort_unstable();
            row.dedup();
            nbrs.extend(row);
            offsets.push(nbrs.len() as u32);
        }
        Csr { offsets, nbrs }
    }

    fn graph(&self) -> WGraph {
        WGraph::from_unit_csr(&self.offsets, &self.nbrs)
    }

    fn build(&self, workers: usize, floors: &[u32]) -> CommonNeighborKernel {
        CommonNeighborKernel::build(&self.offsets, &self.nbrs, workers, floors, None)
    }
}

/// Strategy: a random undirected edge list over `N` nodes.
fn arb_edges(max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..N, 0..N), 0..max_edges)
}

fn arb_floors() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..5, N as usize)
}

/// Strategy: one to three contraction steps, each a small node set.
fn arb_steps() -> impl Strategy<Value = Vec<std::collections::BTreeSet<u32>>> {
    prop::collection::vec(prop::collection::btree_set(0u32..N, 1..5), 1..=3)
}

/// Strategy: one to three random bicliques (every node of one side
/// linked to every node of the other) plus a few noise edges. Most
/// neighbors of a contracted set then share one profile, the case the
/// net-delta contraction skips.
fn arb_biclique_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    let side = || prop::collection::btree_set(0..N, 1..6);
    (prop::collection::vec((side(), side()), 1..=3), arb_edges(8)).prop_map(|(bicliques, noise)| {
        let mut edges = noise;
        for (left, right) in bicliques {
            for &a in &left {
                edges.extend(right.iter().map(|&b| (a, b)));
            }
        }
        edges
    })
}

/// Strategy: two or three contraction steps, so the later steps see
/// group nodes whose edges weigh more than 1.
fn arb_weighted_steps() -> impl Strategy<Value = Vec<std::collections::BTreeSet<u32>>> {
    prop::collection::vec(prop::collection::btree_set(0u32..N, 1..6), 2..=3)
}

/// `edges` restricted to level `k`.
fn at_least(edges: &[CommonNeighborEdge], k: u32) -> Vec<CommonNeighborEdge> {
    edges.iter().filter(|e| e.count >= k).copied().collect()
}

/// Node `v`'s floor; nodes past the end of `floors` have none.
fn floor(floors: &[u32], v: NodeId) -> u32 {
    floors.get(v.index()).copied().unwrap_or(0)
}

/// Whether a kernel built with `floors` omits `e`: its count is below
/// the larger endpoint floor.
fn below_floor(floors: &[u32], e: &CommonNeighborEdge) -> bool {
    e.count < floor(floors, e.a).max(floor(floors, e.b))
}

/// The pairs of `edges` the formation sweep can still query at level
/// `k`: both endpoint floors are at most `k`.
fn queried_at(floors: &[u32], k: u32, edges: &[CommonNeighborEdge]) -> Vec<CommonNeighborEdge> {
    edges
        .iter()
        .filter(|e| floor(floors, e.a) <= k && floor(floors, e.b) <= k)
        .copied()
        .collect()
}

/// Runs `steps` against `kernel` (built with `floors`) and `g`: each
/// step contracts the members that are still uncontracted original
/// nodes (a step left empty is skipped). After every step, every level
/// of the kernel must equal the spec recount of the contracted graph
/// over the kernel's eligible endpoints, minus the pairs whose count is
/// below the larger endpoint floor; and the pairs both of whose floors
/// are at most the level must be answered exactly as the recount does.
fn check_contractions(
    mut kernel: CommonNeighborKernel,
    mut g: WGraph,
    steps: &[std::collections::BTreeSet<u32>],
    floors: &[u32],
) -> Result<(), TestCaseError> {
    let mut gone = std::collections::BTreeSet::new();
    for (i, step) in steps.iter().enumerate() {
        let members: Vec<NodeId> = step
            .iter()
            .filter(|v| !gone.contains(*v))
            .map(|&v| NodeId(v))
            .collect();
        if members.is_empty() {
            continue;
        }
        gone.extend(step.iter().copied());
        let (m, _) = kernel.contract(&mut g, &members);
        prop_assert!(!kernel.is_eligible(m));
        for v in &members {
            prop_assert!(!kernel.is_eligible(*v));
        }
        let recount = common_neighbor_min_weights(&g, |x| kernel.is_eligible(x));
        let mut expect = recount.clone();
        expect.retain(|e| !below_floor(floors, e));
        let top = expect.iter().map(|e| e.count).max().unwrap_or(0);
        prop_assert_eq!(kernel.max_count(), top, "step {}", i);
        for k in 1..=top + 1 {
            let got = kernel.edges_at_least(k);
            prop_assert_eq!(&got, &at_least(&expect, k), "step {} level {}", i, k);
            prop_assert_eq!(
                queried_at(floors, k, &got),
                queried_at(floors, k, &at_least(&recount, k)),
                "step {} level {} (queried pairs)",
                i,
                k
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The kernel's full view equals the reference recount.
    #[test]
    fn kernel_matches_reference_counts(edges in arb_edges(60)) {
        let csr = Csr::of(N, &edges);
        let kernel = csr.build(1, &[]);
        prop_assert_eq!(kernel.edges(), common_neighbor_min_weights(&csr.graph(), |_| true));
    }

    /// Every thresholded view equals recomputing that level from
    /// scratch — the property that lets the formation sweep serve all
    /// k-levels from one build.
    #[test]
    fn threshold_views_match_per_level_recount(edges in arb_edges(60)) {
        let csr = Csr::of(N, &edges);
        let kernel = csr.build(1, &[]);
        let reference = common_neighbor_min_weights(&csr.graph(), |_| true);
        for k in 1..=kernel.max_count().saturating_add(1) {
            prop_assert_eq!(kernel.edges_at_least(k), at_least(&reference, k), "level {}", k);
        }
    }

    /// Worker count is a throughput knob, never an output knob: 1, 2
    /// and 8 workers produce identical tables.
    #[test]
    fn worker_count_never_changes_output(edges in arb_edges(80)) {
        let csr = Csr::of(N, &edges);
        let serial = csr.build(1, &[]);
        for workers in [2, 8] {
            let parallel = csr.build(workers, &[]);
            prop_assert_eq!(serial.edges(), parallel.edges(), "{} workers", workers);
            prop_assert_eq!(parallel.workers(), workers);
        }
    }

    /// The pruned build is the unpruned build minus exactly the pairs
    /// whose count is below the larger endpoint floor — at every
    /// threshold level, for arbitrary floors. In particular, any pair
    /// queried at a level reaching both endpoint floors is answered
    /// identically, which is the soundness the formation sweep relies on.
    #[test]
    fn pruned_build_drops_exactly_the_contracted_pairs(
        edges in arb_edges(60),
        floors in arb_floors(),
    ) {
        let csr = Csr::of(N, &edges);
        let full = csr.build(1, &[]);
        let pruned = csr.build(1, &floors);
        for k in 1..=full.max_count().saturating_add(1) {
            let all = full.edges_at_least(k);
            let got = pruned.edges_at_least(k);
            let mut expect = all.clone();
            expect.retain(|e| !below_floor(&floors, e));
            prop_assert_eq!(&got, &expect, "level {}", k);
            prop_assert_eq!(
                queried_at(&floors, k, &got),
                queried_at(&floors, k, &all),
                "level {} (queried pairs)",
                k
            );
        }
    }

    /// Floors of 0 and 1 can never prune anything: the pruned build is
    /// bit-identical to the plain build.
    #[test]
    fn trivial_floors_prune_nothing(edges in arb_edges(60), floors in prop::collection::vec(0u32..2, N as usize)) {
        let csr = Csr::of(N, &edges);
        prop_assert_eq!(csr.build(1, &floors).edges(), csr.build(1, &[]).edges());
    }

    /// Worker count never changes a pruned build either.
    #[test]
    fn pruned_worker_count_never_changes_output(
        edges in arb_edges(80),
        floors in arb_floors(),
    ) {
        let csr = Csr::of(N, &edges);
        let serial = csr.build(1, &floors);
        for workers in [2, 8] {
            let parallel = csr.build(workers, &floors);
            prop_assert_eq!(serial.edges(), parallel.edges(), "{} workers", workers);
        }
    }

    /// Incremental contraction equals recounting the contracted graph
    /// from scratch, at every level, after every step of a 1–3-step
    /// contraction sequence — the mode the formation sweep exercises.
    #[test]
    fn contraction_matches_fresh_rebuild(
        edges in arb_edges(60),
        workers in 1usize..4,
        steps in arb_steps(),
    ) {
        let csr = Csr::of(N, &edges);
        check_contractions(csr.build(workers, &[]), csr.graph(), &steps, &[])?;
    }

    /// The floor rule holds through contraction: after every step the
    /// pruned kernel equals the recount of the contracted graph minus
    /// exactly the pairs whose current count is below the larger
    /// endpoint floor, including pairs a contraction lifted to their
    /// floor after the build left them out.
    #[test]
    fn pruned_contraction_matches_pruned_rebuild(
        edges in arb_edges(60),
        floors in arb_floors(),
        workers in 1usize..4,
        steps in arb_steps(),
    ) {
        let csr = Csr::of(N, &edges);
        let kernel = csr.build(workers, &floors);
        check_contractions(kernel, csr.graph(), &steps, &floors)?;
    }

    /// Contraction stays exact on graphs where most neighbors of a
    /// contracted set share a profile, so most class pairs have a net
    /// delta of 0 and are skipped, while the rest (noise edges, weights
    /// above 1 from earlier steps, floors) still move.
    #[test]
    fn shared_profile_contraction_matches_fresh_rebuild(
        edges in arb_biclique_edges(),
        floors in arb_floors(),
        workers in 1usize..3,
        steps in arb_weighted_steps(),
    ) {
        let csr = Csr::of(N, &edges);
        check_contractions(csr.build(workers, &[]), csr.graph(), &steps, &[])?;
        check_contractions(csr.build(workers, &floors), csr.graph(), &steps, &floors)?;
    }
}

/// Hub 0 → {1, 2, 3} with an extra 1–2 edge.
fn star_plus_pair() -> Csr {
    Csr::of(4, &[(0, 1), (0, 2), (0, 3), (1, 2)])
}

#[test]
fn build_matches_reference_counts() {
    let csr = star_plus_pair();
    let kernel = csr.build(1, &[]);
    assert_eq!(
        kernel.edges(),
        common_neighbor_min_weights(&csr.graph(), |_| true)
    );
}

#[test]
fn contract_keeps_counts_exact() {
    // Figure-2 shape: two servers with three shared clients; after
    // contracting the servers, the clients share a weight-2 group node.
    let csr = Csr::of(5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]);
    let mut g = csr.graph();
    let mut kernel = csr.build(2, &[]);
    let client_pair = CommonNeighborEdge {
        a: NodeId(2),
        b: NodeId(3),
        count: 2,
    };
    assert!(kernel.edges().contains(&client_pair));

    let (m, _) = kernel.contract(&mut g, &[NodeId(0), NodeId(1)]);
    assert!(!kernel.is_eligible(m));
    assert_eq!(g.edge_weight(m, NodeId(2)), Some(2));
    let fresh = common_neighbor_min_weights(&g, |x| x != m);
    assert_eq!(kernel.edges(), fresh);
    assert!(kernel.edges().contains(&client_pair));
    assert_eq!(kernel.max_count(), 2);
}

#[test]
fn contract_singleton_preserves_surviving_counts() {
    let csr = star_plus_pair();
    let mut g = csr.graph();
    let mut kernel = csr.build(1, &[]);
    let before: Vec<_> = kernel
        .edges()
        .into_iter()
        .filter(|e| e.a != NodeId(3) && e.b != NodeId(3))
        .collect();
    let (m, _) = kernel.contract(&mut g, &[NodeId(3)]);
    // Node 3 was a spoke; the surviving pair counts are unchanged
    // because the replacement node carries identical edges.
    assert_eq!(kernel.edges(), before);
    assert_eq!(kernel.edges(), common_neighbor_min_weights(&g, |x| x != m));
}

#[test]
fn compaction_preserves_view() {
    // Hub-heavy graph large enough to cross both compaction triggers:
    // the pair table exceeds the 2048-entry floor, and batched
    // contractions first bloat the overlay, then halve the eligible
    // population.
    let edges: Vec<(u32, u32)> = (0..4u32)
        .flat_map(|h| (4..80u32).map(move |v| (h, v)))
        .collect();
    let csr = Csr::of(80, &edges);
    let mut g = csr.graph();
    let mut kernel = csr.build(2, &[]);
    assert!(kernel.edges().len() > 2048);

    for batch in 0..12u32 {
        let members: Vec<NodeId> = (0..5).map(|i| NodeId(4 + batch * 5 + i)).collect();
        kernel.contract(&mut g, &members);
        let fresh = common_neighbor_min_weights(&g, |x| kernel.is_eligible(x));
        assert_eq!(kernel.edges(), fresh, "after batch {batch}");
        for k in 1..=kernel.max_count() + 1 {
            assert_eq!(
                kernel.edges_at_least(k),
                at_least(&fresh, k),
                "batch {batch} level {k}"
            );
        }
    }
}

#[test]
fn pruned_kernel_stays_consistent_through_contraction() {
    // Two servers sharing three clients, plus a leaf hanging off one
    // client. The leaf's degree is 1, so with floor 2 everywhere its
    // pairs are pruned, and contracting the servers must leave them
    // uncounted.
    let csr = Csr::of(6, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 5)]);
    let mut g = csr.graph();
    let mut kernel = csr.build(2, &[2; 6]);

    let (m, _) = kernel.contract(&mut g, &[NodeId(0), NodeId(1)]);
    assert!(!kernel.is_eligible(m));
    let fresh = common_neighbor_min_weights(&g, |x| kernel.is_eligible(x));
    for k in 2..=3 {
        assert_eq!(kernel.edges_at_least(k), at_least(&fresh, k), "level {k}");
    }
}

#[test]
fn contraction_lifts_unstored_pair_to_its_floor() {
    // Hosts 0 and 1 share only node 4, a count of 1 below their floor
    // of 2, so the build leaves the pair out. Contracting their other
    // neighbors 2 and 3 gives them a second shared neighbor: the pair is
    // recounted and reaches its floor.
    let csr = Csr::of(5, &[(0, 2), (0, 4), (1, 3), (1, 4)]);
    let floors = [2, 2, 0, 0, 0];
    let rec = telemetry::Recorder::new();
    let mut kernel = CommonNeighborKernel::build(&csr.offsets, &csr.nbrs, 1, &floors, Some(&rec));
    let pair = |count| CommonNeighborEdge {
        a: NodeId(0),
        b: NodeId(1),
        count,
    };
    assert!(!kernel.edges().contains(&pair(1)));
    let below = rec
        .registry()
        .counter("roleclass_kernel_below_floor_pairs_total");
    assert_eq!(below.get(), 1);

    let mut g = csr.graph();
    kernel.contract(&mut g, &[NodeId(2), NodeId(3)]);
    let mut fresh = common_neighbor_min_weights(&g, |x| kernel.is_eligible(x));
    fresh.retain(|e| !below_floor(&floors, e));
    assert!(fresh.contains(&pair(2)));
    assert_eq!(kernel.edges(), fresh);
    for k in 1..=3 {
        assert_eq!(kernel.edges_at_least(k), at_least(&fresh, k), "level {k}");
    }
    assert_eq!(kernel.max_count(), 2);
    let recounts = rec.registry().counter("roleclass_kernel_recounts_total");
    assert!(recounts.get() >= 1);
}

#[test]
fn shared_profile_contraction_writes_nothing() {
    // Three servers 0..3, each linked to all of clients 3..9: every
    // client has the same profile into the servers, so contracting them
    // moves no client pair (each loses 3 and gains min(3, 3)).
    let edges: Vec<(u32, u32)> = (0..3u32)
        .flat_map(|s| (3..9u32).map(move |c| (s, c)))
        .collect();
    let csr = Csr::of(9, &edges);
    let rec = telemetry::Recorder::new();
    let mut kernel = CommonNeighborKernel::build(&csr.offsets, &csr.nbrs, 1, &[], Some(&rec));
    let mut g = csr.graph();
    kernel.contract(&mut g, &[NodeId(0), NodeId(1), NodeId(2)]);
    let reg = rec.registry();
    assert_eq!(
        reg.counter("roleclass_kernel_contract_pair_updates_total")
            .get(),
        0
    );
    assert_eq!(reg.gauge("roleclass_kernel_overlay_entries").get(), 0);
    let fresh = common_neighbor_min_weights(&g, |x| kernel.is_eligible(x));
    assert_eq!(fresh.len(), 15);
    assert!(fresh.iter().all(|e| e.count == 3));
    for k in 1..=4 {
        assert_eq!(kernel.edges_at_least(k), at_least(&fresh, k), "level {k}");
    }
}

#[test]
fn contracting_group_nodes_keeps_weighted_counts_exact() {
    // Clients 0 and 1, servers 2..=5. Contracting {2, 3} and {4, 5}
    // gives group nodes whose edges weigh 2 and 1, so client 0's profile
    // into them is [(g1, 2), (g2, 1)] and client 1's is [(g1, 1),
    // (g2, 2)]: the same members with different weights. Contracting
    // the two group nodes lifts the clients' count from 2 to 3.
    let csr = Csr::of(6, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5)]);
    let mut g = csr.graph();
    let mut kernel = csr.build(1, &[]);
    let (g1, _) = kernel.contract(&mut g, &[NodeId(2), NodeId(3)]);
    let (g2, _) = kernel.contract(&mut g, &[NodeId(4), NodeId(5)]);
    let clients = |count| CommonNeighborEdge {
        a: NodeId(0),
        b: NodeId(1),
        count,
    };
    assert_eq!(kernel.edges(), [clients(2)]);
    kernel.contract(&mut g, &[g1, g2]);
    assert_eq!(kernel.edges(), [clients(3)]);
    assert_eq!(
        kernel.edges(),
        common_neighbor_min_weights(&g, |x| kernel.is_eligible(x))
    );
}
