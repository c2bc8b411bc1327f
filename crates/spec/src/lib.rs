//! Executable specifications of the role-classification pipeline.
//!
//! The shipped crates carry one implementation of each algorithm, tuned
//! for speed: a columnar connection-set store, a kernel-backed
//! formation sweep with level jumping, and an incremental merge loop.
//! This crate holds the slow, obviously-correct twins they are pinned
//! against. It is a dev-dependency of the test suites; only the
//! experiment harness (`bench`) links it into binaries, for the
//! ablation table and the formation speedup baseline.
//!
//! * [`connsets`] — the map-based connection sets (ordered maps of
//!   neighbor sets keyed by address), with conversions to and from
//!   [`flow::ConnectionSets`] built on its public API only.
//! * [`formation`] — the Section 4.1 sweep recounting the common-neighbor
//!   table on every round, either at every level `k` or jumping to the
//!   next productive one.
//! * [`merging`] — the Figure 3 merge loop rescoring every pair from
//!   scratch each round, under either reading of `SIMILARITY`.

pub mod connsets;
pub mod formation;
pub mod merging;
