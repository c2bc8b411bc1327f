//! Immutable unweighted adjacency snapshot.

use crate::id::NodeId;

/// An immutable, unweighted, undirected graph in compressed sparse row
/// form.
///
/// A [`SimpleGraph`] is built from a node set and an edge list (for
/// example, the edges of a *k-neighborhood graph* whose common-neighbor
/// count reached `k`). Node ids are arbitrary [`NodeId`]s — they need not
/// be dense — and are preserved, so results of algorithms running on the
/// snapshot can be mapped straight back to the originating [`crate::WGraph`].
#[derive(Clone, Debug, Default)]
pub struct SimpleGraph {
    /// Sorted list of node ids present in the graph.
    ids: Vec<NodeId>,
    /// CSR row offsets into `adj`, one per node plus a terminator.
    offsets: Vec<usize>,
    /// Concatenated, per-node-sorted adjacency (as positions into `ids`).
    adj: Vec<u32>,
}

impl SimpleGraph {
    /// Builds a graph from `nodes` and undirected `edges`.
    ///
    /// Endpoints of edges are added to the node set automatically, so
    /// passing an empty `nodes` iterator with a non-empty edge list is
    /// fine. Duplicate and reversed edges collapse to one; self-loops are
    /// dropped.
    ///
    /// Ids map to positions through a table indexed by id, which stays
    /// small because ids are graph indexes in practice; when the largest
    /// id far exceeds the input's size, positions come from a binary
    /// search instead. A `Vec` of edges passed by value is normalized in
    /// its own buffer, so the edge list is held at most twice: as input
    /// and as adjacency.
    pub fn from_edges<N, E>(nodes: N, edges: E) -> Self
    where
        N: IntoIterator<Item = NodeId>,
        E: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let nodes: Vec<NodeId> = nodes.into_iter().collect();
        let edges: Vec<(NodeId, NodeId)> = edges
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        let bound = nodes
            .iter()
            .chain(edges.iter().map(|(_, b)| b))
            .map(|n| n.index() + 1)
            .max()
            .unwrap_or(0);
        let dense = bound <= 2 * (nodes.len() + 2 * edges.len()) + 4096;
        let (ids, table) = if dense {
            const ABSENT: u32 = u32::MAX;
            let mut table = vec![ABSENT; bound];
            for n in nodes.iter().chain(edges.iter().flat_map(|(a, b)| [a, b])) {
                table[n.index()] = 0;
            }
            let mut ids = Vec::new();
            for (i, slot) in table.iter_mut().enumerate() {
                if *slot != ABSENT {
                    *slot = ids.len() as u32;
                    ids.push(NodeId(i as u32));
                }
            }
            (ids, table)
        } else {
            let mut ids: Vec<NodeId> = nodes
                .iter()
                .chain(edges.iter().flat_map(|(a, b)| [a, b]))
                .copied()
                .collect();
            ids.sort_unstable();
            ids.dedup();
            (ids, Vec::new())
        };
        let pos = |n: NodeId| -> u32 {
            if dense {
                table[n.index()]
            } else {
                ids.binary_search(&n).expect("id collected above") as u32
            }
        };
        // Positions follow id order, so every pair stays `(low, high)`.
        let mut edges: Vec<(u32, u32)> = edges.into_iter().map(|(a, b)| (pos(a), pos(b))).collect();
        edges.sort_unstable();
        edges.dedup();

        let n = ids.len();
        let mut offsets = vec![0usize; n + 1];
        for &(a, b) in &edges {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Sorted `(low, high)` pairs fill each row in ascending order:
        // first its lower neighbors (as `high`, by ascending `low`), then
        // its higher ones (as `low`, by ascending `high`).
        let mut cursor = offsets.clone();
        let mut adj = vec![0u32; offsets[n]];
        for &(a, b) in &edges {
            adj[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            adj[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        SimpleGraph { ids, offsets, adj }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates over all node ids in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids.iter().copied()
    }

    /// Returns the dense position of `n` inside this snapshot, if present.
    #[inline]
    pub fn position(&self, n: NodeId) -> Option<usize> {
        self.ids.binary_search(&n).ok()
    }

    /// Returns the node id at dense position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.node_count()`.
    #[inline]
    pub fn id_at(&self, pos: usize) -> NodeId {
        self.ids[pos]
    }

    /// Returns `true` if node `n` is part of this snapshot.
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.position(n).is_some()
    }

    /// Returns `true` if the undirected edge `(a, b)` exists.
    pub fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        match (self.position(a), self.position(b)) {
            (Some(pa), Some(pb)) => self.row(pa).binary_search(&(pb as u32)).is_ok(),
            _ => false,
        }
    }

    #[inline]
    fn row(&self, pos: usize) -> &[u32] {
        &self.adj[self.offsets[pos]..self.offsets[pos + 1]]
    }

    /// Neighbors of the node at dense position `pos`, as a slice of dense
    /// positions. This is the zero-cost accessor the BCC, component and
    /// core-number passes use.
    #[inline]
    pub fn neighbor_positions(&self, pos: usize) -> &[u32] {
        self.row(pos)
    }

    /// Degree of the node at dense position `pos`.
    #[inline]
    pub fn degree_at(&self, pos: usize) -> usize {
        self.row(pos).len()
    }

    /// Degree of node `n`, or `None` if absent.
    pub fn degree(&self, n: NodeId) -> Option<usize> {
        self.position(n).map(|p| self.degree_at(p))
    }

    /// Iterates over neighbors of node `n` as [`NodeId`]s.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in this snapshot.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let pos = self
            .position(n)
            .expect("node id is not part of this snapshot");
        self.row(pos).iter().map(|&p| self.ids[p as usize])
    }

    /// Collects the full edge list as `(a, b)` pairs with `a < b`.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for pa in 0..self.node_count() {
            for &pb in self.row(pa) {
                if pa < pb as usize {
                    out.push((self.ids[pa], self.ids[pb as usize]));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn builds_from_edge_list_with_sparse_ids() {
        let g = SimpleGraph::from_edges([n(100)], [(n(5), n(9)), (n(9), n(2)), (n(2), n(5))]);
        assert_eq!(g.node_count(), 4); // 2, 5, 9 and the isolated 100
        assert_eq!(g.edge_count(), 3);
        assert!(g.contains_edge(n(5), n(9)));
        assert!(g.contains_edge(n(9), n(5)));
        assert!(!g.contains_edge(n(100), n(5)));
        assert_eq!(g.degree(n(100)), Some(0));
        assert_eq!(g.degree(n(2)), Some(2));
        assert_eq!(g.degree(n(77)), None);
    }

    #[test]
    fn duplicate_and_reversed_edges_collapse() {
        let g = SimpleGraph::from_edges([], [(n(1), n(2)), (n(2), n(1)), (n(1), n(2))]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(n(1)), Some(1));
    }

    #[test]
    fn self_loops_dropped() {
        let g = SimpleGraph::from_edges([], [(n(1), n(1)), (n(1), n(2))]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(n(1)), Some(1));
    }

    #[test]
    fn neighbors_map_back_to_ids() {
        let g = SimpleGraph::from_edges([], [(n(10), n(20)), (n(10), n(30))]);
        let nbrs: Vec<_> = g.neighbors(n(10)).collect();
        assert_eq!(nbrs, vec![n(20), n(30)]);
    }

    #[test]
    fn edges_round_trip() {
        let mut input = vec![(n(1), n(2)), (n(2), n(3)), (n(1), n(3))];
        let g = SimpleGraph::from_edges([], input.clone());
        let mut edges = g.edges();
        edges.sort_unstable();
        input.sort_unstable();
        assert_eq!(edges, input);
    }

    #[test]
    fn ids_far_above_the_input_size_map_by_search() {
        let top = n(u32::MAX - 1);
        let g = SimpleGraph::from_edges([n(7)], [(top, n(3)), (n(3), n(5)), (n(5), top)]);
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![n(3), n(5), n(7), top]);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.neighbors(top).collect::<Vec<_>>(), vec![n(3), n(5)]);
        assert_eq!(g.degree(n(7)), Some(0));
    }

    #[test]
    fn rows_come_out_sorted() {
        let g = SimpleGraph::from_edges(
            [],
            [
                (n(4), n(2)),
                (n(0), n(4)),
                (n(4), n(9)),
                (n(6), n(4)),
                (n(2), n(0)),
            ],
        );
        assert_eq!(
            g.neighbors(n(4)).collect::<Vec<_>>(),
            vec![n(0), n(2), n(6), n(9)]
        );
        assert_eq!(g.neighbors(n(0)).collect::<Vec<_>>(), vec![n(2), n(4)]);
    }

    #[test]
    fn empty_graph() {
        let g = SimpleGraph::from_edges([], []);
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
