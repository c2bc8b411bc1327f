//! Compact undirected graph substrate for network-structure analysis.
//!
//! This crate provides exactly the graph machinery the role
//! classification engine of Tan et al. (USENIX 2003) runs:
//!
//! * [`WGraph`] — a mutable, weighted, undirected graph with stable node
//!   ids and *node contraction* (collapsing a set of nodes into a single
//!   replacement node, as the grouping algorithm does when it turns a
//!   biconnected component into a group node).
//! * [`SimpleGraph`] — an immutable, unweighted adjacency snapshot built
//!   from an edge list; the algorithms below run on it.
//! * [`bcc`] — biconnected components (iterative Hopcroft–Tarjan, no
//!   recursion, safe for deep graphs).
//! * [`components`] — connected components.
//! * [`kcore`] — core numbers, for automatic `K^hi` selection.
//! * [`kernel`] — the [`CommonNeighborKernel`]: the common-neighbor
//!   counts of the paper's *neighborhood graph*, computed **once** in
//!   parallel straight off the connection sets' CSR adjacency, served
//!   per similarity level by thresholding, and maintained incrementally
//!   through graph contractions.
//! * [`unionfind`] — a union-find used by components and by callers.
//!
//! The crate is dependency-light by design and written from scratch; it
//! is not a general-purpose graph library. The recounting oracle the
//! kernel is tested against lives in the dev-only `roleclass-spec`
//! crate.

pub mod bcc;
pub mod components;
pub mod id;
pub mod kcore;
pub mod kernel;
pub mod simple;
pub mod unionfind;
pub mod wgraph;

pub use bcc::{biconnected_components, Bcc};
pub use components::connected_components;
pub use id::NodeId;
pub use kcore::core_numbers;
pub use kernel::{
    default_worker_count, CommonNeighborEdge, CommonNeighborKernel, KERNEL_METRIC_NAMES,
};
pub use simple::SimpleGraph;
pub use unionfind::UnionFind;
pub use wgraph::WGraph;
