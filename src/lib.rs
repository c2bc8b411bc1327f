//! Umbrella crate for the role-classification workspace.
//!
//! Re-exports the public API of every member crate so examples and
//! downstream users can depend on a single package. See the individual
//! crates for detailed documentation:
//!
//! * [`roleclass`] — the grouping and correlation algorithms (the paper's
//!   contribution).
//! * [`flow`] — flow records, connection sets, and parsers.
//! * [`netgraph`] — the graph substrate.
//! * [`synthnet`] — synthetic enterprise networks with ground truth.
//! * [`cluster`] — baselines and cluster-validation metrics.
//! * [`aggregator`] — the probe/aggregator monitoring system.
//! * [`storage`] — the segment store behind checkpoints, the flight
//!   journal, and time-travel run history.

pub mod cli;
pub mod explain;
pub mod serve;
pub mod stability_report;

pub use aggregator;
pub use cluster;
pub use flow;
pub use netgraph;
pub use roleclass;
pub use storage;
pub use synthnet;
pub use telemetry;
