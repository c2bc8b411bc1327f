//! The probe/aggregator monitoring system around the algorithms.
//!
//! Section 2 of the paper: probes watch links and forward address
//! tuples; a central aggregator periodically runs the role
//! classification algorithms, lets administrators label groups and
//! attach group-level policies, monitors communication against those
//! policies, and raises alerts — all at group granularity so a human can
//! keep up. This crate is that system:
//!
//! * [`probe`] — probes that replay flow records into the aggregator
//!   (the workspace stand-in for link-attached capture devices).
//! * [`pipeline`] — the aggregator: windowed ingestion, periodic
//!   classification runs, correlation-linked run history.
//! * [`labels`] — persistent role labels attached to (correlated) group
//!   ids.
//! * [`policy`] — group-level communication policies and their
//!   evaluation over observed flows.
//! * [`alerts`] — alert types plus the new-neighbor anomaly detector
//!   ("if a host in the engineering group were to suddenly start opening
//!   connections to the SalesDatabase server, it might be a cause for
//!   alarm").
//! * [`supervisor`] — retry/backoff/quarantine supervision so one
//!   flapping probe cannot stall or crash a classification cycle.
//! * [`checkpoint`] — crash-safe, versioned persistence of the run
//!   history, so correlation (and thus group ids) survives restarts.
//! * [`store`] — the pluggable storage stack: checkpointer, flight
//!   recorder, and per-window run history sharing one
//!   [`storage::StorageBackend`], which is what powers time-travel
//!   queries (`rcctl explain --at`) and the `/history` endpoint.
//! * [`transport`] — the probe→aggregator wire: a length-prefixed frame
//!   protocol with per-probe sessions, heartbeat liveness, and
//!   resume-from-last-acked-seq, feeding the same supervisor machinery.

pub mod alerts;
pub mod checkpoint;
pub mod flight;
pub mod labels;
pub mod pipeline;
pub mod policy;
pub mod probe;
pub mod profile;
pub mod report;
pub mod store;
pub mod supervisor;
pub mod transport;

pub use alerts::{
    checkpoint_fallback_alert, degraded_window_alert, role_churn_alert, Alert, AlertKind,
    ChurnPolicy, NewNeighborDetector, Severity,
};
pub use checkpoint::{CheckpointError, Checkpointer, Recovery, RecoverySource};
pub use flight::FlightRecorder;
pub use labels::LabelStore;
pub use pipeline::{
    Aggregator, AggregatorConfig, RunRecord, WindowHealth, AGGREGATOR_EVENT_NAMES,
    AGGREGATOR_METRIC_NAMES,
};
pub use policy::{Policy, PolicyEngine, PolicyVerdict, Selector};
pub use probe::{Probe, ProbeError, ReplayProbe};
pub use profile::ProfileBuilder;
pub use store::{RunStore, RunSummary, StorageStack, STORAGE_EVENT_NAMES, STORAGE_METRIC_NAMES};
pub use supervisor::{
    PollOutcome, ProbeHealth, ProbeReport, ProbeStats, ProbeSupervisor, SupervisorConfig,
};
pub use transport::{
    ProbeSender, SenderStats, TransportConfig, TransportError, WireListener, WireProbe,
    TRANSPORT_EVENT_NAMES, TRANSPORT_METRIC_NAMES,
};
