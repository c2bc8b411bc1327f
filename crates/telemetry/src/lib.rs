//! First-class telemetry for the role-classification pipeline.
//!
//! The paper's system ran continuously inside an enterprise monitor;
//! operators needed to know *why* a window degraded or a grouping
//! shifted, not just what the final partition was. This crate is the
//! substrate for that visibility, built to the workspace's offline
//! constraints: **no dependencies**, no global state, and a disabled
//! path that is a no-op.
//!
//! Two halves:
//!
//! * [`Registry`] — a named collection of [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s. Handles are cheap `Arc`-backed atomics
//!   you fetch once and hammer from hot paths without locking; the
//!   registry itself is only locked at (de)registration and export
//!   time. Exports are a Prometheus text-format dump
//!   ([`Registry::prometheus_text`]) and a JSON snapshot
//!   ([`Registry::json_snapshot`]), both in stable (sorted) name order.
//! * **Spans** — lightweight hierarchical timers over
//!   [`std::time::Instant`]. Open one with [`Recorder::span`] (or
//!   [`span`] on an `Option<&Recorder>`); dropping the guard closes it
//!   and attaches it to the enclosing span, producing a tree that
//!   [`Recorder::render_spans`] prints with per-node durations.
//!
//! Instrumented code takes an `Option<&Recorder>` (or stores pre-fetched
//! metric handles). With `None`, every entry point returns immediately —
//! no clock reads, no allocation, no atomics — so the uninstrumented
//! pipeline is bit-identical to and as fast as the pre-telemetry one.
//!
//! Metric naming convention: `roleclass_<layer>_<name>`, snake_case
//! (`[a-z][a-z0-9_]*`), enforced at registration and linted across the
//! workspace by the `metric_names` integration test.
//!
//! ```
//! use telemetry::Recorder;
//!
//! let rec = Recorder::new();
//! let builds = rec.registry().counter("roleclass_kernel_builds_total");
//! {
//!     let _outer = rec.span("engine.form");
//!     let _inner = rec.span("kernel.build");
//!     builds.inc();
//! } // guards drop: the tree is recorded
//! assert_eq!(builds.get(), 1);
//! assert!(rec.render_spans().contains("kernel.build"));
//! assert!(rec.registry().prometheus_text().contains("roleclass_kernel_builds_total 1"));
//! ```

mod alloc;
mod events;
mod profile;
mod registry;
mod ring;
mod span;
mod timeseries;

pub use alloc::{alloc_counters, CountingAlloc};
pub use events::{Event, EventJournal, FieldValue, DEFAULT_EVENT_CAPACITY};
pub use profile::{
    collapsed_stacks, parse_collapsed_line, ProfileEntry, ProfileTable, PROFILE_METRIC_NAMES,
};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use ring::{Ring, RingEntry};
pub use span::{render_span_tree, span_tree_json, Span, SpanNode};
pub use timeseries::{MetricFrame, TimeseriesRing, DEFAULT_TIMESERIES_CAPACITY};

use std::sync::Mutex;

/// Default duration buckets (seconds) for latency histograms, spanning
/// sub-millisecond kernel phases to multi-second full-trace windows.
pub const DURATION_BUCKETS: &[f64] = &[
    0.000_1, 0.000_5, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
];

/// Default size buckets for count-valued histograms (table sizes,
/// per-worker entry counts): decades from 100 to 10M.
pub const SIZE_BUCKETS: &[f64] = &[1e2, 1e3, 1e4, 1e5, 1e6, 1e7];

/// The handle instrumented layers share: one metrics [`Registry`] plus
/// one span log. A pipeline creates a `Recorder` (usually behind an
/// `Arc`), hands the same instance to every layer, and the nested span
/// guards of aggregator → engine → kernel assemble into a single tree.
pub struct Recorder {
    registry: Registry,
    spans: Mutex<span::SpanLog>,
    events: EventJournal,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

impl Recorder {
    /// A fresh recorder with an empty registry, no spans, and an event
    /// journal of [`DEFAULT_EVENT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A fresh recorder whose event journal retains at most `capacity`
    /// events (oldest evicted first).
    pub fn with_event_capacity(capacity: usize) -> Self {
        Recorder {
            registry: Registry::new(),
            spans: Mutex::new(span::SpanLog::default()),
            events: EventJournal::new(capacity),
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The structured event journal — the in-memory flight recorder.
    pub fn events(&self) -> &EventJournal {
        &self.events
    }

    /// Opens a span as a child of the innermost span still open on this
    /// recorder. Dropping the returned guard closes it. Guards must drop
    /// in LIFO order (the natural shape of lexical scoping); spans are
    /// meant for the single-threaded orchestration path, not for
    /// per-worker timing inside parallel sections.
    pub fn span(&self, name: impl Into<String>) -> Span<'_> {
        span::open(self, &self.spans, name.into())
    }

    /// Snapshot of the completed span trees, in completion order of the
    /// roots. Open spans are not included.
    pub fn spans(&self) -> Vec<SpanNode> {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .roots
            .clone()
    }

    /// Takes (and clears) the completed span trees.
    pub fn take_spans(&self) -> Vec<SpanNode> {
        std::mem::take(&mut self.spans.lock().unwrap_or_else(|e| e.into_inner()).roots)
    }

    /// Renders the completed span trees as an indented text block with
    /// per-span durations — the `rcctl --trace` output.
    pub fn render_spans(&self) -> String {
        render_span_tree(&self.spans())
    }

    /// Folds the completed span trees into an aggregated
    /// [`ProfileTable`] (call counts, total/self wall time, min/max,
    /// allocation columns).
    pub fn profile(&self) -> ProfileTable {
        ProfileTable::from_spans(&self.spans())
    }

    /// Renders the completed span trees as collapsed-stack lines rooted
    /// at `roleclass`, ready for flamegraph tooling. See
    /// [`collapsed_stacks`].
    pub fn collapsed_spans(&self) -> String {
        collapsed_stacks(&self.spans(), "roleclass")
    }

    pub(crate) fn span_log(&self) -> &Mutex<span::SpanLog> {
        &self.spans
    }
}

/// Opens a span on `rec` when one is attached; with `None` this is a
/// complete no-op (no clock read, no allocation). The standard entry
/// point for instrumented library code:
///
/// ```
/// fn phase(rec: Option<&telemetry::Recorder>) {
///     let _span = telemetry::span(rec, "phase");
///     // ... work ...
/// }
/// phase(None); // free
/// phase(Some(&telemetry::Recorder::new()));
/// ```
pub fn span<'r>(rec: Option<&'r Recorder>, name: impl Into<String>) -> Span<'r> {
    match rec {
        Some(r) => r.span(name),
        None => Span::disabled(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_a_noop() {
        let s = span(None, "anything");
        drop(s);
    }

    #[test]
    fn spans_nest_into_a_tree() {
        let rec = Recorder::new();
        {
            let _a = rec.span("a");
            {
                let _b = rec.span("b");
                let _c = rec.span("c");
            }
            let _d = rec.span("d");
        }
        let roots = rec.spans();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "a");
        let kids: Vec<&str> = roots[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(kids, ["b", "d"]);
        assert_eq!(roots[0].children[0].children[0].name, "c");
        // Parents cover their children.
        assert!(roots[0].duration >= roots[0].children[0].duration);
    }

    #[test]
    fn take_spans_clears() {
        let rec = Recorder::new();
        drop(rec.span("x"));
        assert_eq!(rec.take_spans().len(), 1);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn render_shows_durations() {
        let rec = Recorder::new();
        {
            let _a = rec.span("outer");
            let _b = rec.span("inner");
        }
        let text = rec.render_spans();
        assert!(text.contains("outer"));
        assert!(text.contains("  inner"));
        assert!(text.contains("ms"));
    }

    #[test]
    fn sequential_roots_accumulate() {
        let rec = Recorder::new();
        drop(rec.span("first"));
        drop(rec.span("second"));
        let names: Vec<String> = rec.spans().into_iter().map(|n| n.name).collect();
        assert_eq!(names, ["first", "second"]);
    }
}
