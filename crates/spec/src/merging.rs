//! The merging phase (Section 4.2, Figure 3), rescoring from scratch.
//!
//! Every round recomputes the similarity of every pair of live groups
//! and scans all of them for the most similar pair that passes both
//! Figure 3 requirements. [`roleclass::try_merge_groups`] must reproduce
//! its merge trace to the last bit under [`Similarity::Normalized`].
//!
//! The Figure 3 `SIMILARITY` pseudo-code is ambiguous about its
//! normalization (`DESIGN.md` §5, note 2). The engine ships the
//! normalized reading; [`Similarity::Literal`] keeps the other one here,
//! for the ablation that compares the two.

use flow::{ConnectionSets, HostAddr};
use netgraph::{NodeId, WGraph};
use roleclass::{try_form_groups, Params};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The two readings of Figure 3's `SIMILARITY(G1, G2)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Similarity {
    /// Normalize each `CP(G', Gi)` by group `Gi`'s *total* connection
    /// count: a `[0, 100]` fraction of traffic shared. The engine's
    /// reading.
    Normalized,
    /// The literal pseudo-code: normalize `CP(G', Gi)` by the *neighbor
    /// count* `|C(Gi)|` and divide by the per-member connection average
    /// `c_i`, clamped to `[0, 100]`.
    Literal,
}

/// One merge: left members, right members, similarity bits.
pub type TraceStep = (Vec<HostAddr>, Vec<HostAddr>, u64);

/// What a merging run produced: final member sets and the merge trace.
#[derive(Debug, PartialEq)]
pub struct Run {
    /// The final groups' member lists.
    pub groups: BTreeSet<Vec<HostAddr>>,
    /// The merges in execution order.
    pub trace: Vec<TraceStep>,
}

struct Info {
    members: Vec<HostAddr>,
    k: u32,
    sum_deg: u64,
    min_deg: u32,
}

/// Runs the engine's formation phase on `cs`, then merges naively under
/// `similarity`.
///
/// # Panics
///
/// Panics if `params` fail validation.
pub fn merge_groups(cs: &ConnectionSets, params: &Params, similarity: Similarity) -> Run {
    let formation = try_form_groups(cs, params).expect("invalid parameters");
    let mut g: WGraph = formation.graph;
    let mut info: HashMap<NodeId, Info> = HashMap::new();
    for (pg, &n) in formation.groups.iter().zip(&formation.node_of_group) {
        let degs: Vec<u32> = pg
            .members
            .iter()
            .map(|h| cs.degree(*h).unwrap_or(0) as u32)
            .collect();
        info.insert(
            n,
            Info {
                members: pg.members.clone(),
                k: pg.k,
                sum_deg: degs.iter().map(|&d| u64::from(d)).sum(),
                min_deg: degs.iter().copied().min().unwrap_or(0),
            },
        );
    }

    let mut trace = Vec::new();
    loop {
        let nodes: Vec<NodeId> = g.nodes().collect();
        let nbrs: HashMap<NodeId, BTreeMap<NodeId, u64>> = nodes
            .iter()
            .map(|&x| (x, g.neighbors(x).collect()))
            .collect();
        let mut best: Option<(f64, NodeId, NodeId)> = None;
        for (i, &x) in nodes.iter().enumerate() {
            for &y in &nodes[i + 1..] {
                let s = score(similarity, &nbrs, &info, x, y);
                if s <= 0.0 {
                    continue;
                }
                let (ix, iy) = (&info[&x], &info[&y]);
                // MEETCONNECTIONREQ
                let a1 = ix.sum_deg as f64 / ix.members.len() as f64;
                let a2 = iy.sum_deg as f64 / iy.members.len() as f64;
                let hi = a1.max(a2);
                if hi > 0.0 && (a1 - a2).abs() > params.beta * hi {
                    continue;
                }
                // MEETSIMILARITYREQ
                let thresh = if ix.k.max(iy.k) >= params.k_hi {
                    params.s_hi
                } else {
                    params.s_lo
                };
                if s >= thresh && best.is_none_or(|(bs, _, _)| s > bs) {
                    best = Some((s, x, y));
                }
            }
        }
        let Some((s, x, y)) = best else { break };
        let ix = info.remove(&x).expect("alive");
        let iy = info.remove(&y).expect("alive");
        trace.push((ix.members.clone(), iy.members.clone(), s.to_bits()));
        let (m, _) = g.contract(&[x, y]);
        let mut members = ix.members;
        members.extend(iy.members);
        members.sort_unstable();
        // "The K value of a newly merged group is set to the minimum
        // number of connections a host in the group has."
        let min_deg = ix.min_deg.min(iy.min_deg);
        info.insert(
            m,
            Info {
                members,
                k: min_deg,
                sum_deg: ix.sum_deg + iy.sum_deg,
                min_deg,
            },
        );
    }
    Run {
        groups: info.into_values().map(|i| i.members).collect(),
        trace,
    }
}

/// `SIMILARITY(x, y)` in `[0, 100]`, summing over common neighbors in
/// ascending id order (the engine's addition order).
fn score(
    similarity: Similarity,
    nbrs: &HashMap<NodeId, BTreeMap<NodeId, u64>>,
    info: &HashMap<NodeId, Info>,
    x: NodeId,
    y: NodeId,
) -> f64 {
    let (nx, ny) = (&nbrs[&x], &nbrs[&y]);
    let tx = nx.values().sum::<u64>() as f64;
    let ty = ny.values().sum::<u64>() as f64;
    if tx == 0.0 || ty == 0.0 {
        return 0.0;
    }
    let mut acc = 0.0;
    for (v, &wx) in nx {
        if *v == x || *v == y {
            continue;
        }
        if let Some(&wy) = ny.get(v) {
            let (wx, wy) = (wx as f64, wy as f64);
            acc += match similarity {
                Similarity::Normalized => (wx / tx).min(wy / ty),
                Similarity::Literal => (wx / nx.len() as f64).min(wy / ny.len() as f64),
            };
        }
    }
    let sim = match similarity {
        Similarity::Normalized => 100.0 * acc,
        Similarity::Literal => {
            let cx = tx / info[&x].members.len() as f64;
            let cy = ty / info[&y].members.len() as f64;
            50.0 * (acc / cx + acc / cy)
        }
    };
    sim.clamp(0.0, 100.0)
}
