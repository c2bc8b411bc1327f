//! The formation phase (Section 4.1), recounting from scratch.
//!
//! Every round of every level recomputes the full common-neighbor table
//! of the current graph, `O(rounds · Σ deg²)`, with no count kernel and
//! no incremental state. It is what
//! [`roleclass::try_form_groups`] must reproduce, trace event for trace
//! event.
//!
//! [`Sweep::EveryLevel`] walks `k` down one level at a time exactly as
//! the paper states the algorithm; [`Sweep::Jump`] drops straight to the
//! next level at which a BCC or a bootstrap can fire, reading that level
//! off its own recount. Both produce the same trace; comparing them
//! checks the jump rule itself, and the jumping one is fast enough for
//! the thousand-host scenarios.
//!
//! [`common_neighbor_min_weights`] is the recount both sweeps run, and
//! the oracle `netgraph::CommonNeighborKernel` is tested against.

use flow::{ConnectionSets, HostAddr};
use netgraph::{biconnected_components, CommonNeighborEdge, NodeId, SimpleGraph, WGraph};
use roleclass::{FormationKind, Params};
use std::collections::HashSet;

/// How the sweep walks the levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// `k` from `k_max` down to 1, one level at a time.
    EveryLevel,
    /// After each level, `k` drops to the strongest surviving pair count
    /// or the largest pending bootstrap trigger, whichever is higher.
    Jump,
}

/// One formed group, in formation order: members (sorted), the level
/// `k` it formed at (0 for leftovers), and how it formed.
pub type Step = (Vec<HostAddr>, u32, FormationKind);

/// The formation trace of `cs` under `params`.
///
/// # Panics
///
/// Panics if `params` fail validation.
pub fn form_groups(cs: &ConnectionSets, params: &Params, sweep: Sweep) -> Vec<Step> {
    params.validate().expect("invalid parameters");
    let mut st = State::new(cs);
    let mut k = cs.max_degree() as u32;
    while k >= 1 && !st.ungrouped().is_empty() {
        let mut counts: Vec<CommonNeighborEdge>;
        loop {
            counts = common_neighbor_min_weights(&st.g, |n| st.is_host(n));
            let strong: Vec<(NodeId, NodeId)> = counts
                .iter()
                .filter(|e| e.count >= k)
                .map(|e| (e.a, e.b))
                .collect();
            if strong.is_empty() || !st.assign_bccs(strong, k) {
                break;
            }
        }

        // Bootstrap (step 2e).
        for n in st.ungrouped() {
            if (k as f64) < params.alpha * st.degree[n.index()] as f64 {
                st.group(&[n], k, FormationKind::Bootstrap);
            }
        }

        k = match sweep {
            Sweep::EveryLevel => k - 1,
            Sweep::Jump => {
                let below = k - 1;
                let strongest = counts
                    .iter()
                    .filter(|e| st.is_host(e.a) && st.is_host(e.b))
                    .map(|e| e.count.min(below))
                    .max()
                    .unwrap_or(0);
                let trigger = st
                    .ungrouped()
                    .into_iter()
                    .filter_map(|n| bootstrap_trigger(params.alpha, st.degree[n.index()]))
                    .map(|t| t.min(below))
                    .max()
                    .unwrap_or(0);
                strongest.max(trigger)
            }
        };
    }
    for n in st.ungrouped() {
        st.group(&[n], 0, FormationKind::Leftover);
    }
    st.trace
}

/// Largest integer `k ≥ 1` satisfying `k < α·deg`, or `None`.
fn bootstrap_trigger(alpha: f64, deg: usize) -> Option<u32> {
    let t = alpha * deg as f64;
    let k = if t.fract() == 0.0 { t - 1.0 } else { t.floor() };
    (k >= 1.0).then_some(k as u32)
}

#[inline]
fn key(a: NodeId, b: NodeId) -> u64 {
    debug_assert!(a < b);
    ((a.0 as u64) << 32) | b.0 as u64
}

#[inline]
fn unkey(k: u64) -> (NodeId, NodeId) {
    (NodeId((k >> 32) as u32), NodeId(k as u32))
}

/// Weighted common-neighbor counting: the shared-neighbor contribution
/// of a via node `v` to the pair `(u, w)` is `min(weight(u,v), weight(w,v))`
/// instead of 1.
///
/// This is the semantics the grouping algorithm needs once biconnected
/// components have been contracted into group nodes: a group node that
/// stands for two servers, reached by `weight = 2` edges from two hosts,
/// must count as *two* shared neighbors — exactly how Figure 2 of the
/// paper has the sales hosts sharing three common neighbors (SalesDB
/// plus the two-server {Mail, Web} group) at `k = 3`. For plain
/// unit-weight host edges this is the plain common-neighbor count.
///
/// All nodes of `g` act as potential shared neighbors ("via" nodes), but
/// only pairs where both endpoints satisfy `endpoint_ok` are reported,
/// sorted by `(a, b)`. Sort-based; peak memory is `12 × Σ deg(v)²/2`
/// bytes. Per-pair sums saturate at `u32::MAX`.
pub fn common_neighbor_min_weights<F>(g: &WGraph, endpoint_ok: F) -> Vec<CommonNeighborEdge>
where
    F: Fn(NodeId) -> bool,
{
    let mut entries: Vec<(u64, u32)> = Vec::new();
    let mut eligible: Vec<(NodeId, u64)> = Vec::new();
    for via in g.nodes() {
        eligible.clear();
        eligible.extend(g.neighbors(via).filter(|&(n, _)| endpoint_ok(n)));
        for i in 0..eligible.len() {
            for j in (i + 1)..eligible.len() {
                let (a, wa) = eligible[i];
                let (b, wb) = eligible[j];
                let w = wa.min(wb).min(u32::MAX as u64) as u32;
                entries.push((key(a, b), w));
            }
        }
    }
    entries.sort_unstable_by_key(|&(k, _)| k);
    let mut out = Vec::new();
    let mut i = 0;
    while i < entries.len() {
        let k = entries[i].0;
        let mut sum: u32 = 0;
        let mut j = i;
        while j < entries.len() && entries[j].0 == k {
            sum = sum.saturating_add(entries[j].1);
            j += 1;
        }
        let (a, b) = unkey(k);
        out.push(CommonNeighborEdge { a, b, count: sum });
        i = j;
    }
    out
}

struct State {
    g: WGraph,
    /// Host of each node; `None` for group nodes.
    host_of_node: Vec<Option<HostAddr>>,
    /// `|C(h)|` per host node, by initial node id.
    degree: Vec<usize>,
    trace: Vec<Step>,
}

impl State {
    /// One unit-weight node per host, numbered in address order.
    fn new(cs: &ConnectionSets) -> Self {
        let hosts: Vec<HostAddr> = cs.hosts().collect();
        let mut g = WGraph::new();
        g.add_nodes(hosts.len());
        let node = |h: HostAddr| NodeId::from_index(hosts.binary_search(&h).expect("member"));
        for (a, b) in cs.edges() {
            g.add_edge(node(a), node(b), 1);
        }
        State {
            g,
            degree: hosts.iter().map(|&h| cs.degree(h).unwrap_or(0)).collect(),
            host_of_node: hosts.into_iter().map(Some).collect(),
            trace: Vec::new(),
        }
    }

    fn is_host(&self, n: NodeId) -> bool {
        self.g.contains_node(n)
            && self
                .host_of_node
                .get(n.index())
                .is_some_and(Option::is_some)
    }

    fn ungrouped(&self) -> Vec<NodeId> {
        self.g.nodes().filter(|&n| self.is_host(n)).collect()
    }

    /// Contracts host nodes `nodes` into a group node.
    fn group(&mut self, nodes: &[NodeId], k: u32, kind: FormationKind) {
        let mut members: Vec<HostAddr> = nodes
            .iter()
            .map(|&n| self.host_of_node[n.index()].expect("host node"))
            .collect();
        members.sort_unstable();
        self.g.contract(nodes);
        self.host_of_node.resize(self.g.id_bound(), None);
        self.trace.push((members, k, kind));
    }

    /// Contracts each BCC of the strong-pair graph, largest first; a
    /// node on several BCCs joins the first (largest) one. Returns
    /// whether any group formed.
    fn assign_bccs(&mut self, strong: Vec<(NodeId, NodeId)>, k: u32) -> bool {
        let sg = SimpleGraph::from_edges([], strong);
        let mut bccs: Vec<Vec<NodeId>> = biconnected_components(&sg)
            .into_iter()
            .map(|b| b.nodes)
            .collect();
        bccs.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
        let mut assigned: HashSet<NodeId> = HashSet::new();
        let mut formed = false;
        for bcc in bccs {
            let avail: Vec<NodeId> = bcc.into_iter().filter(|n| !assigned.contains(n)).collect();
            if avail.len() >= 2 {
                assigned.extend(avail.iter().copied());
                self.group(&avail, k, FormationKind::Bcc);
                formed = true;
            }
        }
        formed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_weights_count_shared_neighbors() {
        // Hub 0 → {1, 2, 3} plus an extra 1–2 edge.
        let mut g = WGraph::new();
        let ids: Vec<_> = (0..4).map(|_| g.add_node()).collect();
        for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 2)] {
            g.add_edge(ids[a], ids[b], 1);
        }
        let pairs = |f: &dyn Fn(NodeId) -> bool| -> Vec<(u32, u32, u32)> {
            common_neighbor_min_weights(&g, f)
                .iter()
                .map(|e| (e.a.0, e.b.0, e.count))
                .collect()
        };
        // (0,1) via 2, (0,2) via 1, the spoke pairs via the hub.
        assert_eq!(
            pairs(&|_| true),
            [(0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
        );
        // An ineligible hub still counts as a shared neighbor.
        assert_eq!(pairs(&|n| n != ids[0]), [(1, 2, 1), (1, 3, 1), (2, 3, 1)]);
    }

    #[test]
    fn min_weights_respect_edge_weights() {
        // u and w reach via v with weights 2 and 3: contribution 2.
        let mut g = WGraph::new();
        let u = g.add_node();
        let w = g.add_node();
        let v = g.add_node();
        g.add_edge(u, v, 2);
        g.add_edge(w, v, 3);
        let edges = common_neighbor_min_weights(&g, |_| true);
        assert_eq!(
            edges,
            [CommonNeighborEdge {
                a: u,
                b: w,
                count: 2
            }]
        );
    }
}
