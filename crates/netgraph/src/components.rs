//! Connected components of a [`SimpleGraph`].

use crate::id::NodeId;
use crate::simple::SimpleGraph;
use crate::unionfind::UnionFind;

/// Computes the connected components of `g`, each as a sorted vector of
/// node ids. Components are ordered by their smallest member.
pub fn connected_components(g: &SimpleGraph) -> Vec<Vec<NodeId>> {
    let mut uf = UnionFind::new(g.node_count());
    for pa in 0..g.node_count() {
        for pb in g.neighbor_positions(pa) {
            uf.union(pa, *pb as usize);
        }
    }
    uf.sets()
        .into_iter()
        .map(|set| set.into_iter().map(|p| g.id_at(p)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn splits_into_components() {
        let g = SimpleGraph::from_edges([n(9)], [(n(1), n(2)), (n(2), n(3)), (n(5), n(6))]);
        let cc = connected_components(&g);
        assert_eq!(
            cc,
            vec![vec![n(1), n(2), n(3)], vec![n(5), n(6)], vec![n(9)]]
        );
    }

    #[test]
    fn empty_graph_has_no_components() {
        let g = SimpleGraph::from_edges([], []);
        assert!(connected_components(&g).is_empty());
    }

    #[test]
    fn single_node_is_its_own_component() {
        let g = SimpleGraph::from_edges([n(7)], []);
        assert_eq!(connected_components(&g), vec![vec![n(7)]]);
    }
}
