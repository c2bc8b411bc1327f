//! The reusable classification engine: validate once, stage the phases,
//! keep warm state across observation windows.
//!
//! The free functions ([`try_classify`](crate::classify::try_classify),
//! [`try_form_groups`](crate::formation::try_form_groups), …)
//! re-validate parameters on every call and forget everything between
//! calls. A
//! long-running pipeline classifying one window per day wants the
//! opposite shape, which is what [`Engine`] provides:
//!
//! * **Fallible construction** — [`Engine::new`] validates [`Params`]
//!   exactly once and returns `Err(ParamError)` instead of panicking;
//!   every method past that point is infallible by construction.
//! * **Staged execution** — [`Engine::form`] runs the kernel-backed
//!   formation sweep and hands back a [`Formed`] stage whose
//!   intermediate result can be inspected (the Figure 2 trace) before
//!   [`Formed::merge`] completes the classification; [`Merged`] then
//!   exposes correlation against any previous snapshot.
//! * **Warm cross-window state** — [`Engine::run_window`] classifies a
//!   window, correlates it against the engine's retained snapshot of the
//!   previous window so group ids stay stable, and retains the new
//!   snapshot, exactly the loop the aggregator runs per window.
//!
//! ```
//! use flow::{ConnectionSets, HostAddr};
//! use roleclass::prelude::*;
//!
//! let mut cs = ConnectionSets::new();
//! for ws in [10u32, 11] {
//!     for srv in [1u32, 2] {
//!         cs.add_pair(HostAddr::v4(ws), HostAddr::v4(srv));
//!     }
//! }
//! let mut engine = Engine::new(Params::default()).expect("defaults are valid");
//! let first = engine.run_window(&cs);
//! let second = engine.run_window(&cs); // correlated: same ids
//! assert!(second.correlation.is_some());
//! assert_eq!(
//!     first.grouping.group_of(HostAddr::v4(10)),
//!     second.grouping.group_of(HostAddr::v4(10)),
//! );
//! ```

use crate::classify::{classify_with, finish_classification_with, Classification};
use crate::config::EngineConfig;
use crate::correlate::{apply_correlation, correlate_with_events, Correlation};
use crate::formation::{form_groups_with, FormationResult};
use crate::group::Grouping;
use crate::merging::merge_groups_with;
use crate::params::{ParamError, Params};
use flow::ConnectionSets;
use std::sync::Arc;
use telemetry::Recorder;

/// Every metric the engine registers, in export (sorted) order. The
/// workspace metric-name lint checks uniqueness and prefixing against
/// this list.
pub const ENGINE_METRIC_NAMES: &[&str] = &[
    "roleclass_engine_correlate_candidates_total",
    "roleclass_engine_correlate_seconds",
    "roleclass_engine_correlate_similarity_evals_total",
    "roleclass_engine_form_seconds",
    "roleclass_engine_groups_final",
    "roleclass_engine_groups_formed",
    "roleclass_engine_ids_carried_total",
    "roleclass_engine_ids_minted_total",
    "roleclass_engine_ids_retired_total",
    "roleclass_engine_merge_candidates_peak",
    "roleclass_engine_merge_heap_pops_total",
    "roleclass_engine_merge_seconds",
    "roleclass_engine_merges_total",
    "roleclass_engine_sweep_levels_total",
    "roleclass_engine_sweep_rounds_total",
    "roleclass_engine_windows_total",
];

/// Every provenance event the engine emits, in sorted order. Same
/// `roleclass_<layer>_<name>` convention and workspace lint as the
/// metric names.
pub const ENGINE_EVENT_NAMES: &[&str] = &[
    "roleclass_engine_host_grouped",
    "roleclass_engine_id_carried",
    "roleclass_engine_id_minted",
    "roleclass_engine_id_retired",
    "roleclass_engine_merge_considered",
];

/// What the engine remembers of a completed window: the connection sets
/// it classified and the (correlated) grouping it produced. This is the
/// anchor the next window's correlation runs against.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    /// Connection sets of the window.
    pub connsets: ConnectionSets,
    /// The grouping, with ids as published (i.e. after correlation).
    pub grouping: Grouping,
}

/// One window's outcome from [`Engine::run_window`].
#[derive(Clone, Debug)]
pub struct WindowOutcome {
    /// The full classification (traces, neighborhoods). Its grouping
    /// carries *raw* ids, as `classify` would assign them.
    pub classification: Classification,
    /// The published grouping: raw ids renamed through `correlation` so
    /// stable roles keep stable ids across windows.
    pub grouping: Grouping,
    /// Correlation against the previous window (`None` for the first).
    pub correlation: Option<Correlation>,
}

/// A reusable, validated classification engine. See the [module
/// docs](self) for the design.
#[derive(Clone, Debug)]
pub struct Engine {
    config: EngineConfig,
    prev: Option<EngineSnapshot>,
    recorder: Option<Arc<Recorder>>,
}

impl Engine {
    /// Creates an engine with default execution knobs, validating
    /// `params` once and for all.
    pub fn new(params: Params) -> Result<Self, ParamError> {
        Engine::from_config(EngineConfig::new(params))
    }

    /// Creates an engine from a full [`EngineConfig`] (parameters plus
    /// worker counts and recorder attachment), validating
    /// once and for all.
    pub fn from_config(mut config: EngineConfig) -> Result<Self, ParamError> {
        config.validate()?;
        let recorder = config.take_recorder();
        Ok(Engine {
            config,
            prev: None,
            recorder,
        })
    }

    /// Attaches a telemetry recorder (builder style). Every subsequent
    /// phase records spans (`engine.run_window` → `engine.classify` →
    /// `engine.form`/`engine.merge`, plus `engine.correlate`) and metrics
    /// into it; sharing one recorder between the engine and its caller
    /// nests the engine's spans under the caller's.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches or detaches the telemetry recorder.
    pub fn set_recorder(&mut self, recorder: Option<Arc<Recorder>>) {
        self.recorder = recorder;
    }

    /// The attached telemetry recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// The validated parameters this engine runs with.
    pub fn params(&self) -> &Params {
        &self.config.params
    }

    /// The full configuration this engine runs with (the recorder
    /// attachment lives on the engine itself; see [`Engine::recorder`]).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs the formation phase over `cs`, returning the staged result.
    pub fn form<'e>(&'e self, cs: &'e ConnectionSets) -> Formed<'e> {
        Formed {
            engine: self,
            cs,
            result: form_groups_with(cs, &self.config, self.recorder.as_deref()),
        }
    }

    /// Full two-phase classification of one window, without touching the
    /// engine's cross-window state. Equivalent to
    /// [`try_classify`](crate::classify::try_classify) minus the
    /// re-validation.
    pub fn classify(&self, cs: &ConnectionSets) -> Classification {
        classify_with(cs, &self.config, self.recorder.as_deref())
    }

    /// Classifies `cs`, correlates against the previous window's
    /// snapshot (if any) so group ids stay stable, and retains the new
    /// snapshot for the next call.
    pub fn run_window(&mut self, cs: &ConnectionSets) -> WindowOutcome {
        let recorder = self.recorder.clone();
        let rec = recorder.as_deref();
        let _window_span = telemetry::span(rec, "engine.run_window");
        let classification = {
            let _s = telemetry::span(rec, "engine.classify");
            self.classify(cs)
        };
        let (grouping, correlation) = match &self.prev {
            None => (classification.grouping.clone(), None),
            Some(prev) => {
                let _s = telemetry::span(rec, "engine.correlate");
                let started = rec.map(|_| std::time::Instant::now());
                let corr = correlate_with_events(
                    &prev.connsets,
                    &prev.grouping,
                    cs,
                    &classification.grouping,
                    &self.config.params,
                    rec,
                );
                if let (Some(r), Some(t0)) = (rec, started) {
                    r.registry()
                        .histogram(
                            "roleclass_engine_correlate_seconds",
                            telemetry::DURATION_BUCKETS,
                        )
                        .observe(t0.elapsed().as_secs_f64());
                }
                (
                    apply_correlation(&corr, &classification.grouping),
                    Some(corr),
                )
            }
        };
        if let Some(r) = rec {
            r.registry().counter("roleclass_engine_windows_total").inc();
        }
        self.prev = Some(EngineSnapshot {
            connsets: cs.clone(),
            grouping: grouping.clone(),
        });
        WindowOutcome {
            classification,
            grouping,
            correlation,
        }
    }

    /// The retained snapshot of the last completed window, if any.
    pub fn previous(&self) -> Option<&EngineSnapshot> {
        self.prev.as_ref()
    }

    /// Replaces the retained snapshot — how a pipeline restored from a
    /// checkpoint re-anchors correlation on imported history.
    pub fn set_previous(&mut self, snapshot: Option<EngineSnapshot>) {
        self.prev = snapshot;
    }

    /// Drops the retained snapshot; the next [`Engine::run_window`]
    /// starts a fresh id space.
    pub fn reset(&mut self) {
        self.prev = None;
    }
}

/// The formation stage: groups are formed, merging has not run. Borrow
/// the trace for inspection, or [`merge`](Formed::merge) to continue.
pub struct Formed<'e> {
    engine: &'e Engine,
    cs: &'e ConnectionSets,
    result: FormationResult,
}

impl<'e> Formed<'e> {
    /// The formation result (groups, contracted graph, Figure 2 trace).
    pub fn result(&self) -> &FormationResult {
        &self.result
    }

    /// Abandons staging and takes the formation result.
    pub fn into_result(self) -> FormationResult {
        self.result
    }

    /// Runs the merging phase, completing the classification.
    pub fn merge(self) -> Merged<'e> {
        Merged {
            engine: self.engine,
            cs: self.cs,
            classification: finish_classification_with(
                self.cs,
                self.result,
                &self.engine.config,
                self.engine.recorder.as_deref(),
            ),
        }
    }

    /// Runs merging but keeps only the [`MergeOutcome`-level] data —
    /// for callers that need the final contracted graph rather than the
    /// full classification.
    ///
    /// [`MergeOutcome`-level]: crate::merging::MergeOutcome
    pub fn merge_outcome(self) -> crate::merging::MergeOutcome {
        merge_groups_with(self.cs, self.result, &self.engine.config, None)
    }
}

/// The merged stage: a complete classification, plus correlation
/// against any previous snapshot.
pub struct Merged<'e> {
    engine: &'e Engine,
    cs: &'e ConnectionSets,
    classification: Classification,
}

impl Merged<'_> {
    /// The completed classification.
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// Correlates this window's grouping against an earlier snapshot
    /// (use [`Engine::run_window`] when the engine should manage the
    /// snapshot itself).
    pub fn correlate_with(&self, prev: &EngineSnapshot) -> Correlation {
        correlate_with_events(
            &prev.connsets,
            &prev.grouping,
            self.cs,
            &self.classification.grouping,
            &self.engine.config.params,
            self.engine.recorder.as_deref(),
        )
    }

    /// Takes the completed classification.
    pub fn finish(self) -> Classification {
        self.classification
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow::HostAddr;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    fn figure1() -> ConnectionSets {
        let mut cs = ConnectionSets::new();
        for s in [11, 12, 13] {
            cs.add_pair(h(s), h(1));
            cs.add_pair(h(s), h(2));
            cs.add_pair(h(s), h(3));
        }
        for e in [21, 22, 23] {
            cs.add_pair(h(e), h(1));
            cs.add_pair(h(e), h(2));
            cs.add_pair(h(e), h(4));
        }
        cs
    }

    #[test]
    fn new_rejects_invalid_params() {
        let bad = Params {
            alpha: f64::NAN,
            ..Params::default()
        };
        assert!(Engine::new(bad).is_err());
        assert!(Engine::new(Params::default()).is_ok());
    }

    #[test]
    fn staged_pipeline_matches_free_function() {
        let cs = figure1();
        let engine = Engine::new(Params::default()).unwrap();
        let staged = engine.form(&cs);
        assert!(!staged.result().trace.is_empty());
        let c = staged.merge().finish();
        let legacy = crate::classify::try_classify(&cs, &Params::default()).unwrap();
        assert_eq!(c.grouping.groups(), legacy.grouping.groups());
        assert_eq!(c.formation_trace.len(), legacy.formation_trace.len());
    }

    #[test]
    fn run_window_keeps_ids_stable() {
        let cs = figure1();
        let mut engine = Engine::new(Params::default().with_s_lo(90.0).with_s_hi(95.0)).unwrap();
        let first = engine.run_window(&cs);
        assert!(first.correlation.is_none());
        let second = engine.run_window(&cs);
        assert!(second.correlation.is_some());
        assert_eq!(
            first.grouping.group_of(h(11)),
            second.grouping.group_of(h(11))
        );
        assert!(engine.previous().is_some());
        engine.reset();
        assert!(engine.previous().is_none());
    }

    #[test]
    fn recorder_captures_window_span_tree_and_metrics() {
        let cs = figure1();
        let rec = Arc::new(Recorder::new());
        let mut engine = Engine::new(Params::default())
            .unwrap()
            .with_recorder(Arc::clone(&rec));
        engine.run_window(&cs);
        engine.run_window(&cs);

        let reg = rec.registry();
        assert_eq!(reg.counter("roleclass_engine_windows_total").get(), 2);
        assert!(reg.counter("roleclass_engine_sweep_levels_total").get() >= 2);
        assert!(reg.gauge("roleclass_engine_groups_final").get() >= 1);
        // Both engine and kernel metrics land on the shared registry,
        // and every name is declared for the lint.
        for name in reg.names() {
            assert!(
                ENGINE_METRIC_NAMES.contains(&name.as_str())
                    || netgraph::KERNEL_METRIC_NAMES.contains(&name.as_str()),
                "{name} not declared"
            );
        }

        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "engine.run_window");
        let first: Vec<&str> = spans[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(first, ["engine.classify"]);
        // The second window correlates against the first.
        let second: Vec<&str> = spans[1].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(second, ["engine.classify", "engine.correlate"]);
        // classify nests form (with the kernel build inside) and merge.
        let classify: Vec<&str> = spans[0].children[0]
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(classify, ["engine.form", "engine.merge"]);
        assert_eq!(
            spans[0].children[0].children[0].children[0].name,
            "kernel.build"
        );
    }

    #[test]
    fn recorder_captures_decision_events() {
        let cs = figure1();
        let rec = Arc::new(Recorder::new());
        let mut engine = Engine::new(Params::default())
            .unwrap()
            .with_recorder(Arc::clone(&rec));
        engine.run_window(&cs);
        engine.run_window(&cs);

        let events = rec.events().snapshot();
        assert!(!events.is_empty());
        for ev in &events {
            assert!(
                ENGINE_EVENT_NAMES.contains(&ev.name),
                "{} not declared in ENGINE_EVENT_NAMES",
                ev.name
            );
            assert_eq!(ev.layer, "engine");
        }
        // Every host gets a host_grouped event per window.
        let grouped = events
            .iter()
            .filter(|e| e.name == "roleclass_engine_host_grouped")
            .count();
        assert_eq!(grouped, 2 * cs.host_count());
        // The default params merge figure1 down to two groups, so the
        // merge phase considered at least one pair...
        assert!(events
            .iter()
            .any(|e| e.name == "roleclass_engine_merge_considered"));
        // ...and the identical second window carries every id.
        assert!(events
            .iter()
            .any(|e| e.name == "roleclass_engine_id_carried"));
    }

    #[test]
    fn recorder_does_not_change_results() {
        let cs = figure1();
        let params = Params::default().with_s_lo(90.0).with_s_hi(95.0);
        let mut plain = Engine::new(params).unwrap();
        let mut traced = Engine::new(params)
            .unwrap()
            .with_recorder(Arc::new(Recorder::new()));
        for _ in 0..2 {
            let a = plain.run_window(&cs);
            let b = traced.run_window(&cs);
            assert_eq!(a.grouping.groups(), b.grouping.groups());
        }
    }

    #[test]
    fn staged_correlation_matches_run_window() {
        let cs = figure1();
        let params = Params::default().with_s_lo(90.0).with_s_hi(95.0);
        let mut managed = Engine::new(params).unwrap();
        let first = managed.run_window(&cs);
        let auto = managed.run_window(&cs);

        let manual_engine = Engine::new(params).unwrap();
        let prev = EngineSnapshot {
            connsets: cs.clone(),
            grouping: first.grouping.clone(),
        };
        let merged = manual_engine.form(&cs).merge();
        let corr = merged.correlate_with(&prev);
        assert_eq!(
            corr.id_map,
            auto.correlation.expect("second window correlates").id_map
        );
    }
}
