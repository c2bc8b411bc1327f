//! Biconnected components.
//!
//! The grouping algorithm of the paper turns each biconnected component
//! (BCC) of the k-neighborhood graph into a candidate role group: any two
//! nodes of a BCC are joined by two vertex-disjoint paths, i.e., they
//! demonstrate similarity of connection habits "in at least two different
//! ways" (Section 4.1). The implementation is the classical
//! Hopcroft–Tarjan edge-stack algorithm, made iterative so that long
//! paths (tens of thousands of hosts) cannot overflow the call stack.

use crate::id::NodeId;
use crate::simple::SimpleGraph;

/// One biconnected component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bcc {
    /// Nodes of the component, sorted by id. A node can belong to several
    /// components if it is an articulation point (a cut vertex).
    pub nodes: Vec<NodeId>,
    /// Number of edges in the component.
    pub edge_count: usize,
}

impl Bcc {
    /// Number of nodes in the component.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the component has no nodes (never produced by
    /// [`biconnected_components`], but useful for default values).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

const UNVISITED: u32 = u32::MAX;

/// State for the iterative Hopcroft–Tarjan traversal.
struct Dfs<'g> {
    g: &'g SimpleGraph,
    disc: Vec<u32>,
    low: Vec<u32>,
    parent: Vec<u32>,
    clock: u32,
    /// Edge stack of `(u, v)` dense positions.
    estack: Vec<(u32, u32)>,
}

impl<'g> Dfs<'g> {
    fn new(g: &'g SimpleGraph) -> Self {
        let n = g.node_count();
        Dfs {
            g,
            disc: vec![UNVISITED; n],
            low: vec![0; n],
            parent: vec![UNVISITED; n],
            clock: 0,
            estack: Vec::new(),
        }
    }

    /// Runs a DFS from `root`, invoking `on_bcc` with the edge slice of
    /// each completed biconnected component.
    fn run<F>(&mut self, root: usize, on_bcc: &mut F)
    where
        F: FnMut(&[(u32, u32)]),
    {
        debug_assert_eq!(self.disc[root], UNVISITED);
        self.disc[root] = self.clock;
        self.low[root] = self.clock;
        self.clock += 1;

        // Work stack: (node position, index of next neighbor to examine).
        let mut stack: Vec<(u32, u32)> = vec![(root as u32, 0)];
        while let Some(top) = stack.last().copied() {
            let (u, next) = (top.0 as usize, top.1 as usize);
            let row = self.g.neighbor_positions(u);
            if next < row.len() {
                let v = row[next] as usize;
                stack.last_mut().expect("stack is non-empty").1 += 1;
                if self.disc[v] == UNVISITED {
                    self.parent[v] = u as u32;
                    self.disc[v] = self.clock;
                    self.low[v] = self.clock;
                    self.clock += 1;
                    self.estack.push((u as u32, v as u32));
                    stack.push((v as u32, 0));
                } else if v as u32 != self.parent[u] && self.disc[v] < self.disc[u] {
                    // Back edge to an ancestor.
                    self.estack.push((u as u32, v as u32));
                    self.low[u] = self.low[u].min(self.disc[v]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    let p = p as usize;
                    self.low[p] = self.low[p].min(self.low[u]);
                    if self.low[u] >= self.disc[p] {
                        // Pop one component off the edge stack.
                        let mut cut = self.estack.len();
                        while cut > 0 {
                            let (a, b) = self.estack[cut - 1];
                            cut -= 1;
                            if a as usize == p && b as usize == u {
                                break;
                            }
                        }
                        on_bcc(&self.estack[cut..]);
                        self.estack.truncate(cut);
                    }
                }
            }
        }
    }
}

/// Computes all biconnected components of `g`.
///
/// Every edge belongs to exactly one component; isolated nodes belong to
/// none. A component may be as small as a single edge (two nodes), which
/// the grouping algorithm deliberately accepts as a group.
pub fn biconnected_components(g: &SimpleGraph) -> Vec<Bcc> {
    let mut out = Vec::new();
    let mut dfs = Dfs::new(g);
    let mut collect = |edges: &[(u32, u32)]| {
        if edges.is_empty() {
            return;
        }
        let mut nodes: Vec<NodeId> = edges
            .iter()
            .flat_map(|&(a, b)| [g.id_at(a as usize), g.id_at(b as usize)])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        out.push(Bcc {
            nodes,
            edge_count: edges.len(),
        });
    };
    for root in 0..g.node_count() {
        if dfs.disc[root] != UNVISITED {
            continue;
        }
        dfs.run(root, &mut collect);
        // Remaining edges (if any) form the component containing the root.
        let rest: Vec<(u32, u32)> = dfs.estack.drain(..).collect();
        collect(&rest);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn graph(edges: &[(u32, u32)]) -> SimpleGraph {
        SimpleGraph::from_edges([], edges.iter().map(|&(a, b)| (n(a), n(b))))
    }

    fn sorted_bccs(g: &SimpleGraph) -> Vec<Vec<u32>> {
        let mut v: Vec<Vec<u32>> = biconnected_components(g)
            .into_iter()
            .map(|b| b.nodes.iter().map(|id| id.0).collect())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn single_edge_is_one_bcc() {
        let g = graph(&[(1, 2)]);
        assert_eq!(sorted_bccs(&g), vec![vec![1, 2]]);
    }

    #[test]
    fn triangle_is_one_bcc() {
        let g = graph(&[(1, 2), (2, 3), (1, 3)]);
        let bccs = biconnected_components(&g);
        assert_eq!(bccs.len(), 1);
        assert_eq!(bccs[0].edge_count, 3);
        assert_eq!(bccs[0].len(), 3);
    }

    #[test]
    fn path_decomposes_into_single_edges() {
        let g = graph(&[(1, 2), (2, 3), (3, 4)]);
        assert_eq!(sorted_bccs(&g), vec![vec![1, 2], vec![2, 3], vec![3, 4]]);
    }

    #[test]
    fn two_triangles_sharing_a_vertex() {
        // 1-2-3 triangle and 3-4-5 triangle share articulation point 3.
        let g = graph(&[(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)]);
        assert_eq!(sorted_bccs(&g), vec![vec![1, 2, 3], vec![3, 4, 5]]);
    }

    #[test]
    fn barbell_has_bridge() {
        // Triangle 1-2-3, bridge 3-4, triangle 4-5-6.
        let g = graph(&[(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)]);
        assert_eq!(
            sorted_bccs(&g),
            vec![vec![1, 2, 3], vec![3, 4], vec![4, 5, 6]]
        );
    }

    #[test]
    fn cycle_is_single_bcc_no_cuts() {
        let g = graph(&[(1, 2), (2, 3), (3, 4), (4, 1)]);
        assert_eq!(sorted_bccs(&g), vec![vec![1, 2, 3, 4]]);
    }

    #[test]
    fn disconnected_components_handled() {
        let g = graph(&[(1, 2), (3, 4), (4, 5), (3, 5)]);
        assert_eq!(sorted_bccs(&g), vec![vec![1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn isolated_nodes_form_no_bcc() {
        let g = SimpleGraph::from_edges([n(9)], [(n(1), n(2))]);
        assert_eq!(sorted_bccs(&g), vec![vec![1, 2]]);
    }

    #[test]
    fn star_splits_into_its_edges() {
        let g = graph(&[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(sorted_bccs(&g), vec![vec![0, 1], vec![0, 2], vec![0, 3]]);
    }

    #[test]
    fn every_edge_in_exactly_one_bcc() {
        let g = graph(&[
            (1, 2),
            (2, 3),
            (1, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (4, 6),
            (6, 7),
            (0, 1),
        ]);
        let total_edges: usize = biconnected_components(&g)
            .iter()
            .map(|b| b.edge_count)
            .sum();
        assert_eq!(total_edges, g.edge_count());
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        let edges: Vec<(u32, u32)> = (0..200_000u32).map(|i| (i, i + 1)).collect();
        let g = graph(&edges);
        let bccs = biconnected_components(&g);
        assert_eq!(bccs.len(), 200_000);
    }

    #[test]
    fn complete_graph_is_one_bcc() {
        let mut edges = Vec::new();
        for i in 0..8u32 {
            for j in (i + 1)..8 {
                edges.push((i, j));
            }
        }
        let g = graph(&edges);
        let bccs = biconnected_components(&g);
        assert_eq!(bccs.len(), 1);
        assert_eq!(bccs[0].len(), 8);
    }
}
