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

use flow::{ConnectionSets, HostAddr};
use netgraph::{
    biconnected_components, common_neighbor_min_weights, CommonNeighborEdge, NodeId, SimpleGraph,
    WGraph,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roleclass::{FormationKind, Params, TieBreak};
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
            if strong.is_empty() || !st.assign_bccs(strong, k, params.tie_break) {
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
    fn assign_bccs(&mut self, strong: Vec<(NodeId, NodeId)>, k: u32, tie_break: TieBreak) -> bool {
        let sg = SimpleGraph::from_edges([], strong);
        let mut bccs: Vec<Vec<NodeId>> = biconnected_components(&sg)
            .into_iter()
            .map(|b| b.nodes)
            .collect();
        match tie_break {
            TieBreak::Deterministic => {
                bccs.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
            }
            TieBreak::Seeded(seed) => {
                // A seeded Fisher-Yates shuffle, then a stable sort by
                // size: equal-size components keep a random order.
                let mut rng = StdRng::seed_from_u64(seed);
                for i in (1..bccs.len()).rev() {
                    bccs.swap(i, rng.gen_range(0..=i));
                }
                bccs.sort_by_key(|b| std::cmp::Reverse(b.len()));
            }
        }
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
