//! Property-based tests of the graph substrate's invariants.

use netgraph::{
    biconnected_components, connected_components, NodeId, SimpleGraph, UnionFind, WGraph,
};
use proptest::prelude::*;

/// Strategy: a random undirected edge list over up to `n` nodes.
fn arb_edges(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
        .prop_map(|v| v.into_iter().filter(|(a, b)| a != b).collect())
}

fn simple(edges: &[(u32, u32)]) -> SimpleGraph {
    SimpleGraph::from_edges([], edges.iter().map(|&(a, b)| (NodeId(a), NodeId(b))))
}

fn weighted(edges: &[(u32, u32)], n: u32) -> WGraph {
    let mut g = WGraph::new();
    for _ in 0..n {
        g.add_node();
    }
    for &(a, b) in edges {
        g.add_edge(NodeId(a), NodeId(b), 1);
    }
    g
}

/// Total weight over all edges: each undirected edge appears in both
/// endpoints' rows.
fn total_weight(g: &WGraph) -> u64 {
    g.nodes()
        .flat_map(|n| g.neighbors(n).map(|(_, w)| w))
        .sum::<u64>()
        / 2
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every edge of the graph lies in exactly one biconnected component.
    #[test]
    fn bcc_edges_partition_the_edge_set(edges in arb_edges(30, 80)) {
        let g = simple(&edges);
        let bccs = biconnected_components(&g);
        let total: usize = bccs.iter().map(|b| b.edge_count).sum();
        prop_assert_eq!(total, g.edge_count());
        // Every BCC has at least one edge and therefore >= 2 nodes.
        for b in &bccs {
            prop_assert!(b.edge_count >= 1);
            prop_assert!(b.len() >= 2);
        }
    }

    /// A node lies in two or more BCCs exactly when removing it raises
    /// the number of connected components — i.e. when it is a cut
    /// vertex.
    #[test]
    fn bcc_overlap_nodes_are_articulation_points(edges in arb_edges(25, 60)) {
        let g = simple(&edges);
        let bccs = biconnected_components(&g);
        let before = connected_components(&g).len();
        for n in g.nodes() {
            let memberships = bccs.iter().filter(|b| b.nodes.contains(&n)).count();
            // The node set minus `n`, with every edge not touching it.
            let g2 = SimpleGraph::from_edges(
                g.nodes().filter(|&x| x != n),
                edges
                    .iter()
                    .filter(|&&(x, y)| NodeId(x) != n && NodeId(y) != n)
                    .map(|&(x, y)| (NodeId(x), NodeId(y))),
            );
            // Removing `n` drops its own component if it was isolated.
            let isolated = usize::from(g.degree(n) == Some(0));
            let is_cut = connected_components(&g2).len() + isolated > before;
            prop_assert_eq!(
                memberships >= 2,
                is_cut,
                "node {:?} in {} BCCs, cut = {}",
                n,
                memberships,
                is_cut
            );
        }
    }

    /// The edge of every two-node BCC is a bridge: removing it
    /// disconnects its endpoints.
    #[test]
    fn bridges_disconnect(edges in arb_edges(20, 40)) {
        let g = simple(&edges);
        for bcc in biconnected_components(&g).iter().filter(|b| b.len() == 2) {
            let (a, b) = (bcc.nodes[0], bcc.nodes[1]);
            let reduced = edges
                .iter()
                .copied()
                .filter(|&(x, y)| (NodeId(x.min(y)), NodeId(x.max(y))) != (a, b))
                .map(|(x, y)| (NodeId(x), NodeId(y)));
            // Keep the node set identical by listing all original nodes.
            let g2 = SimpleGraph::from_edges(g.nodes(), reduced);
            let together = connected_components(&g2)
                .iter()
                .any(|c| c.contains(&a) && c.contains(&b));
            prop_assert!(!together, "removing bridge {:?}-{:?}", a, b);
        }
    }

    /// Union-find components equal graph components.
    #[test]
    fn union_find_matches_components(edges in arb_edges(30, 60)) {
        let g = simple(&edges);
        let comps = connected_components(&g);
        let ids: Vec<NodeId> = g.nodes().collect();
        let pos = |n: NodeId| ids.binary_search(&n).expect("node exists");
        let mut uf = UnionFind::new(ids.len());
        for &(a, b) in &edges {
            uf.union(pos(NodeId(a)), pos(NodeId(b)));
        }
        prop_assert_eq!(comps.len(), uf.set_count());
        for comp in &comps {
            for w in comp.windows(2) {
                prop_assert!(uf.same(pos(w[0]), pos(w[1])));
            }
        }
    }

    /// Contraction conserves total edge weight (external + internal).
    #[test]
    fn contraction_conserves_weight(
        edges in arb_edges(15, 40),
        pick in prop::collection::btree_set(0u32..15, 1..6),
    ) {
        let mut g = weighted(&edges, 15);
        let before = total_weight(&g);
        let members: Vec<NodeId> = pick.into_iter().map(NodeId).collect();
        let (_, internal) = g.contract(&members);
        prop_assert_eq!(total_weight(&g) + internal, before);
    }

    /// Degrees sum to twice the edge count.
    #[test]
    fn handshake_lemma(edges in arb_edges(30, 80)) {
        let g = simple(&edges);
        let degree_sum: usize = (0..g.node_count()).map(|p| g.degree_at(p)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }
}
