//! k-core decomposition.
//!
//! The *k-core* of a graph is its maximal subgraph in which every node
//! has degree at least `k`; a node's *core number* is the largest `k`
//! for which it is in the k-core. Core numbers separate densely embedded
//! nodes (servers, hubs) from peripheral ones (clients, leaf hosts) and
//! feed the automatic `K^hi` selection in the role-classification crate
//! (the paper's Section 6.4 future-work item).
//!
//! Implemented with the linear-time bucket algorithm of Batagelj &
//! Zaversnik.

use crate::id::NodeId;
use crate::simple::SimpleGraph;

/// Computes the core number of every node, returned as `(node, core)`
/// pairs in node order.
pub fn core_numbers(g: &SimpleGraph) -> Vec<(NodeId, usize)> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<usize> = (0..n).map(|p| g.degree_at(p)).collect();
    let max_degree = degree.iter().copied().max().unwrap_or(0);

    // Bucket sort nodes by degree.
    let mut bin = vec![0usize; max_degree + 1];
    for &d in &degree {
        bin[d] += 1;
    }
    let mut start = 0usize;
    for b in bin.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut pos = vec![0usize; n];
    let mut vert = vec![0usize; n];
    {
        let mut cursor = bin.clone();
        for v in 0..n {
            pos[v] = cursor[degree[v]];
            vert[pos[v]] = v;
            cursor[degree[v]] += 1;
        }
    }

    // Peel nodes in increasing-degree order.
    let mut core = degree.clone();
    for i in 0..n {
        let v = vert[i];
        core[v] = degree[v];
        for &u in g.neighbor_positions(v) {
            let u = u as usize;
            if degree[u] > degree[v] {
                // Move u one bucket down: swap it with the first node of
                // its current bucket.
                let du = degree[u];
                let pu = pos[u];
                let pw = bin[du];
                let w = vert[pw];
                if u != w {
                    vert[pu] = w;
                    vert[pw] = u;
                    pos[u] = pw;
                    pos[w] = pu;
                }
                bin[du] += 1;
                degree[u] -= 1;
            }
        }
    }
    (0..n).map(|p| (g.id_at(p), core[p])).collect()
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

    #[test]
    fn triangle_with_tail() {
        // Triangle 1-2-3 (core 2) with tail 3-4 (core 1).
        let g = graph(&[(1, 2), (2, 3), (1, 3), (3, 4)]);
        let cores: std::collections::BTreeMap<NodeId, usize> =
            core_numbers(&g).into_iter().collect();
        assert_eq!(cores[&n(1)], 2);
        assert_eq!(cores[&n(2)], 2);
        assert_eq!(cores[&n(3)], 2);
        assert_eq!(cores[&n(4)], 1);
    }

    #[test]
    fn star_is_one_core() {
        let g = graph(&[(0, 1), (0, 2), (0, 3), (0, 4)]);
        for (_, c) in core_numbers(&g) {
            assert_eq!(c, 1);
        }
    }

    #[test]
    fn complete_graph_core_is_n_minus_1() {
        let mut edges = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                edges.push((i, j));
            }
        }
        let g = graph(&edges);
        for (_, c) in core_numbers(&g) {
            assert_eq!(c, 5);
        }
    }

    #[test]
    fn isolated_nodes_have_core_zero() {
        let g = SimpleGraph::from_edges([n(9)], [(n(1), n(2))]);
        let cores: std::collections::BTreeMap<NodeId, usize> =
            core_numbers(&g).into_iter().collect();
        assert_eq!(cores[&n(9)], 0);
        assert_eq!(cores[&n(1)], 1);
    }

    #[test]
    fn empty_graph() {
        let g = SimpleGraph::from_edges([], []);
        assert!(core_numbers(&g).is_empty());
    }

    #[test]
    fn peeling_matches_naive_definition() {
        // Randomish fixed graph; check against iterative peeling.
        let edges = [
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 3),
            (5, 6),
            (0, 3),
        ];
        let g = graph(&edges);
        let cores: std::collections::BTreeMap<NodeId, usize> =
            core_numbers(&g).into_iter().collect();
        // Naive: for each k, repeatedly strip nodes with degree < k.
        for k in 0..=3usize {
            let mut alive: std::collections::BTreeSet<u32> = (0..7).collect();
            loop {
                let mut removed = false;
                let deg = |v: u32, alive: &std::collections::BTreeSet<u32>| {
                    edges
                        .iter()
                        .filter(|&&(a, b)| {
                            (a == v && alive.contains(&b)) || (b == v && alive.contains(&a))
                        })
                        .count()
                };
                let victims: Vec<u32> = alive
                    .iter()
                    .copied()
                    .filter(|&v| deg(v, &alive) < k)
                    .collect();
                for v in victims {
                    alive.remove(&v);
                    removed = true;
                }
                if !removed {
                    break;
                }
            }
            for v in 0..7u32 {
                assert_eq!(alive.contains(&v), cores[&n(v)] >= k, "node {v} at k={k}");
            }
        }
    }
}
