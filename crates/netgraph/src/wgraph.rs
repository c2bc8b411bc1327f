//! Mutable weighted undirected graph with stable ids and contraction.

use crate::id::NodeId;

/// Adjacency for one live node: neighbor ids with edge weights, kept
/// sorted by neighbor id so lookups are `O(log deg)`.
#[derive(Clone, Debug, Default)]
struct Adjacency {
    nbrs: Vec<(NodeId, u64)>,
}

impl Adjacency {
    #[inline]
    fn position(&self, n: NodeId) -> Result<usize, usize> {
        self.nbrs.binary_search_by_key(&n, |&(id, _)| id)
    }
}

/// A mutable, weighted, undirected graph.
///
/// Node ids are dense indices that are never reused, so contracting
/// nodes does not invalidate ids of surviving nodes. Edge
/// weights are additive: [`WGraph::add_edge`] accumulates onto an
/// existing edge, which is how connection *counts* between contracted
/// group nodes are maintained by the role-classification pipeline.
///
/// Self-loops are rejected; parallel edges are represented by weight.
#[derive(Clone, Debug, Default)]
pub struct WGraph {
    nodes: Vec<Option<Adjacency>>,
    live_nodes: usize,
    edges: usize,
}

impl WGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        WGraph {
            nodes: Vec::with_capacity(n),
            live_nodes: 0,
            edges: 0,
        }
    }

    /// Builds a unit-weight graph from a borrowed CSR adjacency
    /// (`offsets`/`nbrs` over dense row ids with each row sorted
    /// ascending, as produced by `flow::ConnectionSets::csr()`): row `i`
    /// becomes node id `i`. Bulk path — no per-edge binary searches.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a row is unsorted or contains a
    /// self-reference.
    pub fn from_unit_csr(offsets: &[u32], nbrs: &[u32]) -> WGraph {
        let n = offsets.len().saturating_sub(1);
        let mut nodes = Vec::with_capacity(n);
        for r in 0..n {
            let row = &nbrs[offsets[r] as usize..offsets[r + 1] as usize];
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "CSR row unsorted");
            debug_assert!(!row.contains(&(r as u32)), "self-loop in CSR row");
            nodes.push(Some(Adjacency {
                nbrs: row
                    .iter()
                    .map(|&x| (NodeId::from_index(x as usize), 1))
                    .collect(),
            }));
        }
        WGraph {
            nodes,
            live_nodes: n,
            edges: nbrs.len() / 2,
        }
    }

    /// Adds a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Some(Adjacency::default()));
        self.live_nodes += 1;
        id
    }

    /// Adds `n` new isolated nodes and returns the id of the first one;
    /// the ids are consecutive.
    pub fn add_nodes(&mut self, n: usize) -> NodeId {
        let first = NodeId::from_index(self.nodes.len());
        for _ in 0..n {
            self.add_node();
        }
        first
    }

    /// Returns `true` if `n` is a live node of this graph.
    #[inline]
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.nodes.get(n.index()).is_some_and(Option::is_some)
    }

    /// Number of live nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of edges (each undirected edge counted once).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Returns `true` if the graph has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.live_nodes == 0
    }

    /// One past the largest id ever allocated (including contracted nodes).
    #[inline]
    pub fn id_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over the ids of all live nodes in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.as_ref().map(|_| NodeId::from_index(i)))
    }

    #[inline]
    fn adj(&self, n: NodeId) -> &Adjacency {
        self.nodes[n.index()]
            .as_ref()
            .expect("node id refers to a contracted or unknown node")
    }

    #[inline]
    fn adj_mut(&mut self, n: NodeId) -> &mut Adjacency {
        self.nodes[n.index()]
            .as_mut()
            .expect("node id refers to a contracted or unknown node")
    }

    /// Adds `weight` to the undirected edge `(a, b)`, creating it if
    /// absent. Returns the new total weight of the edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a live node, if `a == b`
    /// (self-loops are not representable), or if `weight == 0`.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: u64) -> u64 {
        assert!(a != b, "self-loops are not supported");
        assert!(weight > 0, "edge weight must be positive");
        assert!(self.contains_node(a) && self.contains_node(b));
        let total = {
            let adj = self.adj_mut(a);
            match adj.position(b) {
                Ok(i) => {
                    adj.nbrs[i].1 += weight;
                    adj.nbrs[i].1
                }
                Err(i) => {
                    adj.nbrs.insert(i, (b, weight));
                    self.edges += 1;
                    weight
                }
            }
        };
        let adj = self.adj_mut(b);
        match adj.position(a) {
            Ok(i) => adj.nbrs[i].1 = total,
            Err(i) => adj.nbrs.insert(i, (a, total)),
        }
        total
    }

    /// Returns the weight of edge `(a, b)`, or `None` if absent.
    pub fn edge_weight(&self, a: NodeId, b: NodeId) -> Option<u64> {
        if !self.contains_node(a) || !self.contains_node(b) {
            return None;
        }
        self.adj(a).position(b).ok().map(|i| self.adj(a).nbrs[i].1)
    }

    /// Returns `true` if the edge `(a, b)` exists.
    pub fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.edge_weight(a, b).is_some()
    }

    /// Iterates over the neighbors of `n` with edge weights, in
    /// increasing neighbor-id order.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a live node.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.adj(n).nbrs.iter().copied()
    }

    /// Borrows the adjacency of `n` as a slice of `(neighbor, weight)`
    /// pairs sorted by neighbor id — the zero-cost form of
    /// [`WGraph::neighbors`] for hot paths (CSR snapshots, the
    /// common-neighbor kernel) that would otherwise pay per-item iterator
    /// overhead.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a live node.
    #[inline]
    pub fn neighbor_slice(&self, n: NodeId) -> &[(NodeId, u64)] {
        &self.adj(n).nbrs
    }

    /// Degree (number of distinct neighbors) of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a live node.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj(n).nbrs.len()
    }

    /// Sum of edge weights incident to `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a live node.
    pub fn weighted_degree(&self, n: NodeId) -> u64 {
        self.adj(n).nbrs.iter().map(|&(_, w)| w).sum()
    }

    /// Largest degree over live nodes, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|a| a.as_ref().map(|a| a.nbrs.len()))
            .max()
            .unwrap_or(0)
    }

    /// Contracts the node set `members` into one fresh node and returns
    /// `(new_id, internal_weight)`.
    ///
    /// The new node inherits one edge per outside neighbor of any member,
    /// with weight equal to the sum of member→neighbor weights. Edges
    /// internal to `members` disappear; their total weight is returned as
    /// `internal_weight` so callers can keep intra-group connection
    /// counts.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty, contains duplicates, or names a
    /// non-live node.
    pub fn contract(&mut self, members: &[NodeId]) -> (NodeId, u64) {
        assert!(!members.is_empty(), "cannot contract an empty node set");
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            members.len(),
            "duplicate members in contraction"
        );

        let in_set = |n: NodeId| sorted.binary_search(&n).is_ok();
        let mut outside: Vec<(NodeId, u64)> = Vec::new();
        let mut internal = 0u64;
        for &m in &sorted {
            let adj = self.nodes[m.index()]
                .take()
                .expect("node id refers to a contracted or unknown node");
            self.edges -= adj.nbrs.len();
            self.live_nodes -= 1;
            for (nbr, w) in adj.nbrs {
                // Detach `m` from its neighbor's row.
                let nadj = self.nodes[nbr.index()]
                    .as_mut()
                    .expect("neighbor of a live node must be live");
                if let Ok(i) = nadj.position(m) {
                    nadj.nbrs.remove(i);
                }
                if in_set(nbr) {
                    // Each internal edge is seen once: removing `m` also
                    // detaches it from the not-yet-removed other endpoint.
                    internal += w;
                } else {
                    outside.push((nbr, w));
                }
            }
        }
        let new = self.add_node();
        for (nbr, w) in outside {
            self.add_edge(new, nbr, w);
        }
        (new, internal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> (WGraph, Vec<NodeId>) {
        let mut g = WGraph::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node()).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 1);
        }
        (g, ids)
    }

    #[test]
    fn from_unit_csr_matches_incremental_construction() {
        // Triangle 0-1-2 plus isolated node 3.
        let offsets: &[u32] = &[0, 2, 4, 6, 6];
        let nbrs: &[u32] = &[1, 2, 0, 2, 0, 1];
        let g = WGraph::from_unit_csr(offsets, nbrs);
        let mut inc = WGraph::new();
        let ids: Vec<_> = (0..4).map(|_| inc.add_node()).collect();
        inc.add_edge(ids[0], ids[1], 1);
        inc.add_edge(ids[0], ids[2], 1);
        inc.add_edge(ids[1], ids[2], 1);
        assert_eq!(g.node_count(), inc.node_count());
        assert_eq!(g.edge_count(), inc.edge_count());
        for i in 0..4 {
            let id = NodeId::from_index(i);
            assert_eq!(g.neighbor_slice(id), inc.neighbor_slice(id));
        }
        let empty = WGraph::from_unit_csr(&[], &[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn add_nodes_and_edges() {
        let (g, ids) = path(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert!(g.contains_edge(ids[0], ids[1]));
        assert!(g.contains_edge(ids[1], ids[0]));
        assert!(!g.contains_edge(ids[0], ids[2]));
        assert_eq!(g.degree(ids[1]), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn edge_weights_accumulate_symmetrically() {
        let mut g = WGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert_eq!(g.add_edge(a, b, 2), 2);
        assert_eq!(g.add_edge(b, a, 3), 5);
        assert_eq!(g.edge_weight(a, b), Some(5));
        assert_eq!(g.edge_weight(b, a), Some(5));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn contract_merges_edges_and_reports_internal_weight() {
        // Triangle a-b-c plus spokes a-x (w=2) and b-x (w=3).
        let mut g = WGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let x = g.add_node();
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 4);
        g.add_edge(a, c, 2);
        g.add_edge(a, x, 2);
        g.add_edge(b, x, 3);

        let (grp, internal) = g.contract(&[a, b, c]);
        assert_eq!(internal, 1 + 4 + 2);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_weight(grp, x), Some(5));
        assert_eq!(g.degree(grp), 1);
        assert!(!g.contains_node(a));
    }

    #[test]
    fn contract_singleton_keeps_edges() {
        let (mut g, ids) = path(3);
        let (grp, internal) = g.contract(&[ids[1]]);
        assert_eq!(internal, 0);
        assert_eq!(g.edge_weight(grp, ids[0]), Some(1));
        assert_eq!(g.edge_weight(grp, ids[2]), Some(1));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g = WGraph::new();
        let a = g.add_node();
        g.add_edge(a, a, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate members")]
    fn contract_rejects_duplicates() {
        let (mut g, ids) = path(2);
        g.contract(&[ids[0], ids[0]]);
    }

    #[test]
    fn nodes_iterator_skips_contracted() {
        let (mut g, ids) = path(3);
        let (grp, _) = g.contract(&[ids[0]]);
        // Surviving ids stay valid; the replacement gets a fresh id.
        let live: Vec<_> = g.nodes().collect();
        assert_eq!(live, vec![ids[1], ids[2], grp]);
        assert!(!g.contains_node(ids[0]));
    }

    #[test]
    fn weighted_degree_sums_incident_weights() {
        let mut g = WGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b, 2);
        g.add_edge(a, c, 3);
        assert_eq!(g.weighted_degree(a), 5);
        assert_eq!(g.weighted_degree(b), 2);
    }
}
