//! The aggregator: windowed ingestion and periodic classification.
//!
//! The aggregator pulls flow records from its probes, accumulates one
//! observation window (the paper profiles "data gathered over a day"),
//! runs the role classification algorithm, correlates the result with
//! the previous run so group ids stay stable, and appends the run to its
//! history. Shared state is lock-protected so a UI or policy engine can
//! inspect history while ingestion continues.
//!
//! Ingestion is fault tolerant: every probe is wrapped in a
//! [`ProbeSupervisor`], so transient failures are retried, flapping
//! probes are quarantined, and a window still classifies on whatever
//! data arrived. Each [`RunRecord`] carries a [`WindowHealth`] that says
//! how complete its input was — downstream consumers (reports, alerts)
//! use it to distinguish real role churn from artifacts of missing data.

use crate::alerts::{
    checkpoint_fallback_alert, degraded_window_alert, role_churn_alert, Alert, ChurnPolicy,
};
use crate::checkpoint::{CheckpointError, Checkpointer, Recovery, RecoverySource};
use crate::flight::{FlightRecorder, Observer};
use crate::probe::Probe;
use crate::store::RunStore;
use crate::supervisor::{PollOutcome, ProbeHealth, ProbeReport, ProbeSupervisor, SupervisorConfig};
use flow::{ConnectionSets, ConnsetBuilder, FlowRecord, HostTable, TimeWindow};
use parking_lot::RwLock;
use roleclass::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;
use telemetry::{Recorder, Registry, TimeseriesRing};

/// Every metric the aggregator registers, in export (sorted) order. The
/// workspace metric-name lint checks uniqueness and prefixing against
/// this list.
pub const AGGREGATOR_METRIC_NAMES: &[&str] = &[
    "roleclass_aggregator_checkpoint_fallbacks_total",
    "roleclass_aggregator_checkpoint_write_seconds",
    "roleclass_aggregator_checkpoint_writes_total",
    "roleclass_aggregator_cycles_total",
    "roleclass_aggregator_degraded_windows_total",
    "roleclass_aggregator_poll_failures_total",
    "roleclass_aggregator_poll_seconds",
    "roleclass_aggregator_poll_skips_total",
    "roleclass_aggregator_probes_attached",
    "roleclass_aggregator_quarantined_probes",
    "roleclass_aggregator_records_accepted_total",
    "roleclass_aggregator_records_dropped_total",
    "roleclass_aggregator_recoveries_total",
    "roleclass_aggregator_retries_total",
];

/// Every structured event the aggregator emits, in sorted order. The
/// workspace event-name lint checks uniqueness and prefixing against
/// this list; the same names appear in the in-memory journal and the
/// durable flight-recorder journal.
pub const AGGREGATOR_EVENT_NAMES: &[&str] = &[
    "roleclass_aggregator_alert_raised",
    "roleclass_aggregator_checkpoint_restored",
    "roleclass_aggregator_checkpoint_written",
    "roleclass_aggregator_probe_poll_failed",
    "roleclass_aggregator_probe_poll_skipped",
    "roleclass_aggregator_window_classified",
    "roleclass_aggregator_window_started",
];

/// Buckets for backbone scores (fractions in `[0, 1]`).
const SCORE_BUCKETS: &[f64] = &[0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];

/// Buckets for persistence streaks (windows survived).
const PERSISTENCE_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Aggregator configuration.
#[derive(Clone, Debug)]
pub struct AggregatorConfig {
    /// Observation window length per classification run.
    pub window_ms: u64,
    /// Time of the first window's start.
    pub origin_ms: u64,
    /// Engine configuration: algorithm parameters plus execution
    /// knobs (worker counts, kernel pruning). The recorder attachment
    /// is managed by [`Aggregator::with_recorder`], not through this
    /// config.
    pub engine: EngineConfig,
    /// Minimum flow count per pair (noise filter) applied when building
    /// connection sets.
    pub min_flows: u64,
    /// Probe supervision policy applied to every attached probe. The
    /// default retries without sleeping, which suits replay pipelines;
    /// deployments polling live devices should set a real backoff.
    pub supervisor: SupervisorConfig,
    /// Role-churn alerting policy: when a persistent group's membership
    /// backbone collapses below the threshold, the cycle queues an
    /// [`AlertKind::RoleChurn`](crate::alerts::AlertKind::RoleChurn).
    pub churn: ChurnPolicy,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        AggregatorConfig {
            window_ms: 86_400_000, // one day, like the paper's traces
            origin_ms: 0,
            engine: EngineConfig::default(),
            min_flows: 1,
            supervisor: SupervisorConfig::immediate(),
            churn: ChurnPolicy::default(),
        }
    }
}

/// How complete one window's input was.
///
/// Attached to every [`RunRecord`]; `#[serde(default)]` keeps runs
/// stored before this field existed readable (they read back as fully
/// healthy, which is what the old code assumed).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowHealth {
    /// Probes attached when the window ran.
    pub probes_total: usize,
    /// Probes whose poll failed after retries.
    pub probes_failed: usize,
    /// Probes skipped because they were quarantined.
    pub probes_skipped: usize,
    /// Flow records that survived the noise filter into connection sets.
    pub records_accepted: u64,
    /// Flow records dropped by the noise filter (`min_flows`).
    pub records_dropped: u64,
    /// Retry attempts spent across all probes.
    pub retries: u64,
    /// Probe error messages, attributed by probe name.
    pub errors: Vec<String>,
}

impl WindowHealth {
    /// Returns `true` when the window classified on incomplete input —
    /// at least one probe contributed nothing. Groupings from degraded
    /// windows can show phantom churn (hosts "vanish" with their probe),
    /// so consumers should present them with that caveat.
    pub fn degraded(&self) -> bool {
        self.probes_failed > 0 || self.probes_skipped > 0
    }

    /// Number of probes that delivered data for the window.
    pub fn probes_delivered(&self) -> usize {
        self.probes_total
            .saturating_sub(self.probes_failed + self.probes_skipped)
    }
}

/// One completed classification run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunRecord {
    /// The window the run covered.
    pub window: TimeWindow,
    /// Connection sets observed in the window.
    pub connsets: ConnectionSets,
    /// The grouping, with ids already correlated to the previous run.
    pub grouping: Grouping,
    /// Correlation against the previous run (`None` for the first run).
    pub correlation: Option<Correlation>,
    /// Input completeness for the window (absent in old stored runs:
    /// then assumed healthy).
    #[serde(default)]
    pub health: WindowHealth,
}

/// The aggregator.
pub struct Aggregator {
    config: AggregatorConfig,
    engine: Engine,
    probes: Vec<ProbeSupervisor>,
    history: Arc<RwLock<Vec<RunRecord>>>,
    /// Master identity table: every host ever observed, interned once.
    /// Each window's connection sets are built against it, so a host
    /// keeps one dense [`flow::HostId`] across windows, checkpoints, and
    /// restarts.
    host_table: HostTable,
    next_window_start: u64,
    /// The telemetry recorder (shared with the engine) and the durable
    /// flight journal. With neither attached the pipeline does no
    /// observability work: no clock reads, no event allocation, no IO.
    observer: Observer,
    /// Operational alerts raised by the aggregator itself (degraded
    /// windows, checkpoint fallbacks, role churn), queued until a
    /// consumer drains them with [`Aggregator::take_alerts`].
    pending_alerts: Vec<Alert>,
    /// Cross-window stability scoring over the published groupings.
    /// Runs every cycle, attached or detached — it feeds alerts and the
    /// CLI, not just telemetry — so outcomes stay bit-identical.
    stability: StabilityTracker,
    /// One [`WindowStability`] row per completed cycle, in window order.
    stability_history: Vec<WindowStability>,
    /// Bounded per-window ring of stability metric snapshots, fed after
    /// every cycle; `rcctl serve` streams it on `/stability?follow`.
    timeseries: Arc<TimeseriesRing>,
    /// Groups currently in the collapsed state — the hysteresis that
    /// makes [`AlertKind::RoleChurn`](crate::alerts::AlertKind::RoleChurn)
    /// fire once per collapse episode instead of every window the
    /// backbone stays low.
    churn_alerted: BTreeSet<GroupId>,
    /// Durable per-window run history; `None` keeps cycles free of any
    /// storage IO. When attached, every classified window is appended
    /// (keyed by its start timestamp) and the store's retention policy
    /// runs after each append, so disk stays bounded.
    run_store: Option<Arc<RunStore>>,
    /// Previous-cycle cumulative work/time totals behind the
    /// `roleclass_profile_*` unit-cost series. Only advances on attached
    /// cycles; detached cycles never read it.
    profile_base: ProfileBaseline,
}

/// Cumulative registry totals as of the last attached cycle. The
/// per-cycle work-normalized unit costs (`ns_per_candidate`,
/// `ns_per_eval`, `ns_per_pop`, `ns_per_pair`) are deltas of stage
/// seconds divided by deltas of the matching work counters; keeping the
/// previous totals here makes each cycle one subtraction instead of a
/// history scan.
#[derive(Clone, Copy, Debug, Default)]
struct ProfileBaseline {
    correlate_secs: f64,
    candidates: u64,
    /// Exact similarity evaluations: step 1 scores only the gated pairs
    /// whose bound reaches the top of its heap, so the gated-pair count
    /// (`similarity_evals_total`) overstates the work by orders of
    /// magnitude.
    exact_evals: u64,
    merge_secs: f64,
    heap_pops: u64,
    kernel_secs: f64,
    two_paths: u64,
}

impl ProfileBaseline {
    /// This cycle's `roleclass_profile_*` values: stage seconds (from
    /// the `_seconds` histograms the stages observe) over work counters,
    /// both as deltas since the previous attached cycle, plus the
    /// cycle's allocation delta since `alloc0`. Advances the baseline to
    /// the current totals.
    fn advance(&mut self, reg: &Registry, alloc0: (u64, u64)) -> [(&'static str, f64); 6] {
        let seconds = |name: &str| reg.histogram(name, telemetry::DURATION_BUCKETS).sum();
        let now = ProfileBaseline {
            correlate_secs: seconds("roleclass_engine_correlate_seconds"),
            candidates: reg
                .counter("roleclass_engine_correlate_candidates_total")
                .get(),
            exact_evals: reg
                .counter("roleclass_engine_correlate_exact_evals_total")
                .get(),
            merge_secs: seconds("roleclass_engine_merge_seconds"),
            heap_pops: reg.counter("roleclass_engine_merge_heap_pops_total").get(),
            kernel_secs: seconds("roleclass_kernel_build_seconds"),
            two_paths: reg.counter("roleclass_kernel_two_paths_total").get(),
        };
        let base = std::mem::replace(self, now);
        let (bytes_now, allocs_now) = telemetry::alloc_counters();
        let correlate_secs = now.correlate_secs - base.correlate_secs;
        [
            (
                "roleclass_profile_correlate_ns_per_candidate",
                unit_ns(correlate_secs, now.candidates - base.candidates),
            ),
            (
                "roleclass_profile_correlate_ns_per_eval",
                unit_ns(correlate_secs, now.exact_evals - base.exact_evals),
            ),
            (
                "roleclass_profile_cycle_alloc_bytes",
                bytes_now.wrapping_sub(alloc0.0) as f64,
            ),
            (
                "roleclass_profile_cycle_allocs",
                allocs_now.wrapping_sub(alloc0.1) as f64,
            ),
            // Per two-path the build enumerated: the pairs surviving in
            // the base table are the build's output, not its work.
            (
                "roleclass_profile_kernel_ns_per_pair",
                unit_ns(
                    now.kernel_secs - base.kernel_secs,
                    now.two_paths - base.two_paths,
                ),
            ),
            (
                "roleclass_profile_merge_ns_per_pop",
                unit_ns(
                    now.merge_secs - base.merge_secs,
                    now.heap_pops - base.heap_pops,
                ),
            ),
        ]
    }
}

/// `delta_secs / delta_work` in nanoseconds per unit; zero when the
/// cycle did no work of this kind (no correlation on the first window,
/// say) so the series stays dense and plottable.
fn unit_ns(delta_secs: f64, delta_work: u64) -> f64 {
    if delta_work == 0 || delta_secs <= 0.0 {
        0.0
    } else {
        delta_secs * 1e9 / delta_work as f64
    }
}

impl Aggregator {
    /// Creates an aggregator with no probes.
    ///
    /// # Panics
    ///
    /// Panics if the configured parameters fail validation; use
    /// [`Aggregator::try_new`] when the parameters come from user
    /// configuration.
    pub fn new(config: AggregatorConfig) -> Self {
        Self::try_new(config).expect("invalid parameters")
    }

    /// Creates an aggregator with no probes, rejecting invalid
    /// [`Params`] instead of panicking later mid-cycle.
    pub fn try_new(config: AggregatorConfig) -> Result<Self, ParamError> {
        let engine = Engine::from_config(config.engine.clone())?;
        let next = config.origin_ms;
        let stability = StabilityTracker::new(config.churn.horizon);
        Ok(Aggregator {
            config,
            engine,
            probes: Vec::new(),
            history: Arc::new(RwLock::new(Vec::new())),
            host_table: HostTable::new(),
            next_window_start: next,
            observer: Observer::default(),
            pending_alerts: Vec::new(),
            stability,
            stability_history: Vec::new(),
            timeseries: Arc::new(TimeseriesRing::default()),
            churn_alerted: BTreeSet::new(),
            run_store: None,
            profile_base: ProfileBaseline::default(),
        })
    }

    /// Attaches a telemetry recorder (builder style). The same recorder
    /// is handed to the engine, so one cycle produces a single span tree
    /// (`aggregator.run_cycle` → `engine.run_window` → `engine.form` →
    /// `kernel.build`, …) and one registry covers every layer.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.engine.set_recorder(Some(Arc::clone(&recorder)));
        self.observer.recorder = Some(recorder);
        self
    }

    /// The attached telemetry recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.observer.recorder.as_ref()
    }

    /// Attaches a durable flight recorder (builder style). Every event
    /// the aggregator emits is also appended to its journal, so the
    /// decision trail survives a crash. The handle is shared so the
    /// aggregator and a [`transport::WireListener`](crate::transport::WireListener)
    /// journal into one namespace with a single sequence;
    /// [`StorageStack::recorder`](crate::store::StorageStack::recorder)
    /// supplies one on the checkpoint's backend.
    pub fn with_shared_flight_recorder(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.observer.flight = Some(flight);
        self
    }

    /// Attaches a durable per-window run store (builder style). Every
    /// classified window is appended to it, keyed by the window's start
    /// timestamp, and its retention policy is applied after each append
    /// — the storage behind `rcctl explain --at` and `/history`.
    pub fn with_run_store(mut self, store: Arc<RunStore>) -> Self {
        self.run_store = Some(store);
        self
    }

    /// Operational alerts raised so far and not yet taken.
    pub fn pending_alerts(&self) -> &[Alert] {
        &self.pending_alerts
    }

    /// Takes (and clears) the queued operational alerts.
    pub fn take_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.pending_alerts)
    }

    /// One [`WindowStability`] row per completed cycle, in window order —
    /// the replayable record behind `rcctl stability` and `/stability`.
    pub fn stability_history(&self) -> &[WindowStability] {
        &self.stability_history
    }

    /// Per-host churn table (group-id flips over the sliding horizon),
    /// sorted most-churned first.
    pub fn churn_table(&self) -> Vec<HostChurn> {
        self.stability.churn_table()
    }

    /// Churn summary for one host, if it has ever been observed.
    pub fn host_churn(&self, h: flow::HostAddr) -> Option<HostChurn> {
        self.stability.host_churn(h)
    }

    /// Shared handle to the bounded stability timeseries ring — one
    /// [`telemetry::MetricFrame`] per completed cycle. `rcctl serve`
    /// streams it on `/stability?follow`.
    pub fn timeseries(&self) -> Arc<TimeseriesRing> {
        Arc::clone(&self.timeseries)
    }

    /// Attaches a probe, wrapping it in the configured supervision.
    pub fn attach(&mut self, probe: Box<dyn Probe + Send>) {
        self.probes
            .push(ProbeSupervisor::new(probe, self.config.supervisor.clone()));
    }

    /// Per-probe supervision snapshot: name, circuit-breaker health, and
    /// lifetime counters for every attached probe, in attach order.
    pub fn probe_reports(&self) -> Vec<ProbeReport> {
        self.probes
            .iter()
            .map(|s| ProbeReport {
                name: s.name().to_string(),
                health: s.health(),
                stats: s.stats(),
            })
            .collect()
    }

    /// Shared handle to the run history (cheap to clone; read-locked on
    /// access).
    pub fn history(&self) -> Arc<RwLock<Vec<RunRecord>>> {
        Arc::clone(&self.history)
    }

    /// The latest grouping, if any run has completed.
    pub fn current_grouping(&self) -> Option<Grouping> {
        self.history.read().last().map(|r| r.grouping.clone())
    }

    /// The master identity table: every host observed in any window so
    /// far, with the dense [`flow::HostId`] it will keep for the life of
    /// this aggregator (and across checkpoint/restore).
    pub fn host_table(&self) -> &HostTable {
        &self.host_table
    }

    /// Returns `true` while any probe still has data at or beyond the
    /// next window ([`Probe::pending_from`]), decided before that window
    /// runs: a wire probe whose sender has not yet said whether more
    /// windows follow waits, bounded, until it does. Probes retired by a
    /// fatal error report nothing pending, so a dead probe can never
    /// keep this `true` forever.
    pub fn has_pending_data(&self) -> bool {
        let next = self.next_window_start;
        self.probes.iter().any(|p| p.pending_from(next))
    }

    /// Runs one classification cycle over the next window: polls every
    /// probe (through its supervisor), builds connection sets,
    /// classifies, correlates with the previous run, scores stability,
    /// and records the result.
    ///
    /// A probe failure does not abort the cycle: classification runs on
    /// the data that did arrive, and the run's [`WindowHealth`] records
    /// exactly what was missing.
    ///
    /// Returns the completed [`RunRecord`] (also appended to history).
    pub fn run_cycle(&mut self) -> RunRecord {
        // An owned handle, so the cycle span stays open across the
        // `&mut self` stages that nest their own spans under it.
        let recorder = self.observer.recorder.clone();
        let _cycle_span = telemetry::span(recorder.as_deref(), "aggregator.run_cycle");
        // Allocation tallies at cycle start, for the per-cycle
        // `roleclass_profile_cycle_alloc_*` delta. Attached cycles only:
        // the detached path performs no profiling reads at all.
        let alloc0 = recorder.as_ref().map(|_| telemetry::alloc_counters());
        let window = TimeWindow::new(
            self.next_window_start,
            self.next_window_start + self.config.window_ms,
        );
        self.next_window_start = window.end_ms;

        let (records, mut health) = self.poll(window);
        let connsets = self.build(records, &mut health);
        let outcome = self.classify(&connsets);
        self.score_stability(window, &outcome.grouping, alloc0);
        let record = self.publish(window, connsets, outcome, health);
        self.persist_run(&record);
        record
    }

    /// Poll stage: journals `window_started`, then polls every probe for
    /// the window through its supervisor. Failed and skipped probes are
    /// tallied in the returned [`WindowHealth`], never fatal.
    fn poll(&mut self, window: TimeWindow) -> (Vec<FlowRecord>, WindowHealth) {
        let obs = &self.observer;
        obs.event("aggregator", "roleclass_aggregator_window_started", || {
            vec![
                ("window_start_ms", window.start_ms.into()),
                ("window_end_ms", window.end_ms.into()),
                ("probes", self.probes.len().into()),
            ]
        });
        let mut health = WindowHealth {
            probes_total: self.probes.len(),
            ..WindowHealth::default()
        };
        let mut records: Vec<FlowRecord> = Vec::new();
        let rec = obs.recorder.as_deref();
        let _span = telemetry::span(rec, "aggregator.poll");
        for s in &mut self.probes {
            let started = rec.map(|_| std::time::Instant::now());
            match s.poll_window(window.start_ms, window.end_ms) {
                PollOutcome::Delivered {
                    records: delivered,
                    retries,
                } => {
                    health.retries += retries as u64;
                    records.extend(delivered);
                }
                PollOutcome::Failed { error, retries } => {
                    health.retries += retries as u64;
                    health.probes_failed += 1;
                    obs.event(
                        "aggregator",
                        "roleclass_aggregator_probe_poll_failed",
                        || {
                            vec![
                                ("probe", s.name().into()),
                                ("error", error.to_string().into()),
                                ("retries", (retries as u64).into()),
                            ]
                        },
                    );
                    health.errors.push(format!("{}: {error}", s.name()));
                }
                PollOutcome::Skipped => {
                    health.probes_skipped += 1;
                    obs.event(
                        "aggregator",
                        "roleclass_aggregator_probe_poll_skipped",
                        || vec![("probe", s.name().into())],
                    );
                }
            }
            if let (Some(r), Some(t0)) = (rec, started) {
                r.registry()
                    .histogram(
                        "roleclass_aggregator_poll_seconds",
                        telemetry::DURATION_BUCKETS,
                    )
                    .observe(t0.elapsed().as_secs_f64());
            }
        }
        (records, health)
    }

    /// Build stage: connection sets built against the master table, so
    /// hosts keep the dense id they were first assigned, across every
    /// window.
    fn build(&mut self, records: Vec<FlowRecord>, health: &mut WindowHealth) -> ConnectionSets {
        let rec = self.observer.recorder.as_deref();
        let _span = telemetry::span(rec, "aggregator.build");
        let mut builder = ConnsetBuilder::new().min_flows(self.config.min_flows);
        builder.add_records(records.iter());
        let (connsets, build_stats) = builder.build_into(&mut self.host_table, rec);
        health.records_accepted = build_stats.kept_flows;
        health.records_dropped = build_stats.dropped_flows;
        connsets
    }

    /// Classify stage: the engine classifies, correlates against its
    /// retained snapshot of the previous window, and keeps the new
    /// snapshot warm for the next cycle ([`Aggregator::restore_from`]
    /// re-anchors it on the newest restored run). It shares this
    /// aggregator's recorder, so its spans nest under
    /// `aggregator.run_cycle`.
    fn classify(&mut self, connsets: &ConnectionSets) -> WindowOutcome {
        self.engine.run_window(connsets)
    }

    /// Score stage: cross-window stability over the published grouping,
    /// the RoleChurn latch and its alerts, and the window's timeseries
    /// frame. It runs every cycle, attached or detached: it feeds the
    /// churn alerts and the CLI/HTTP surfaces, not just telemetry, and
    /// running it unconditionally keeps detached and attached pipelines
    /// bit-identical by construction. It opens no span — the cycle's
    /// child-span shape is pinned by tests — so its cost is tracked on
    /// `roleclass_stability_update_seconds` instead.
    fn score_stability(
        &mut self,
        window: TimeWindow,
        grouping: &Grouping,
        alloc0: Option<(u64, u64)>,
    ) {
        let t0 = std::time::Instant::now();
        let stab = self.stability.observe(grouping);
        let elapsed = t0.elapsed();
        let churn_alerts: Vec<Alert> = self
            .latch_churn(&stab)
            .into_iter()
            .filter_map(|g| role_churn_alert(&self.config.churn, window, g))
            .collect();

        let obs = &self.observer;
        if let Some(r) = obs.recorder.as_deref() {
            let reg = r.registry();
            reg.counter("roleclass_stability_windows_total").inc();
            reg.counter("roleclass_stability_role_churn_alerts_total")
                .add(churn_alerts.len() as u64);
            reg.gauge("roleclass_stability_churned_hosts")
                .set(stab.churned_hosts as i64);
            reg.gauge("roleclass_stability_groups_new")
                .set(stab.new_groups as i64);
            reg.gauge("roleclass_stability_groups_retired")
                .set(stab.retired_groups as i64);
            reg.gauge("roleclass_stability_groups_tracked")
                .set(stab.groups.len() as i64);
            let backbone = reg.histogram("roleclass_stability_backbone_score", SCORE_BUCKETS);
            let persistence = reg.histogram(
                "roleclass_stability_persistence_windows",
                PERSISTENCE_BUCKETS,
            );
            for g in &stab.groups {
                persistence.observe(g.persistence as f64);
                if g.persistence >= 2 {
                    backbone.observe(g.backbone);
                }
            }
            reg.histogram(
                "roleclass_stability_update_seconds",
                telemetry::DURATION_BUCKETS,
            )
            .observe(elapsed.as_secs_f64());
        }
        obs.event("stability", "roleclass_stability_window_scored", || {
            vec![
                ("window_start_ms", window.start_ms.into()),
                ("hosts", stab.hosts.into()),
                ("churned_hosts", stab.churned_hosts.into()),
                ("groups_new", stab.new_groups.into()),
                ("groups_retired", stab.retired_groups.into()),
                ("backbone_min", stab.backbone_min.into()),
                ("backbone_mean", stab.backbone_mean.into()),
            ]
        });
        for g in stab.groups.iter().filter(|g| g.persistence >= 2) {
            obs.event("stability", "roleclass_stability_group_scored", || {
                vec![
                    ("group", u64::from(g.group.0).into()),
                    ("persistence", g.persistence.into()),
                    ("members", g.members.into()),
                    ("retained", g.retained.into()),
                    ("backbone", g.backbone.into()),
                ]
            });
        }
        // The ring is always fed — it is bounded, cheap, and what the
        // live `/stability?follow` stream replays.
        let mut frame_values = vec![
            ("roleclass_stability_backbone_mean", stab.backbone_mean),
            ("roleclass_stability_backbone_min", stab.backbone_min),
            (
                "roleclass_stability_churned_hosts",
                stab.churned_hosts as f64,
            ),
            ("roleclass_stability_groups_new", stab.new_groups as f64),
            (
                "roleclass_stability_groups_retired",
                stab.retired_groups as f64,
            ),
            (
                "roleclass_stability_groups_tracked",
                stab.groups.len() as f64,
            ),
            ("roleclass_stability_hosts", stab.hosts as f64),
        ];
        // Work-normalized unit costs exist only on attached cycles —
        // detached runs take no timings to normalize — so the parity
        // tests compare frames modulo the `roleclass_profile_` prefix.
        if let (Some(r), Some(alloc0)) = (obs.recorder.as_deref(), alloc0) {
            let reg = r.registry();
            for (name, v) in self.profile_base.advance(reg, alloc0) {
                reg.gauge(name).set(v as i64);
                frame_values.push((name, v));
            }
        }
        self.timeseries.record(stab.window, frame_values);
        self.stability_history.push(stab);
        for alert in churn_alerts {
            self.raise(alert);
        }
    }

    /// Publish stage: the cycle's aggregator counters, the
    /// `window_classified` event, a degraded-window alert when input was
    /// missing, and the run appended to the shared history.
    fn publish(
        &mut self,
        window: TimeWindow,
        connsets: ConnectionSets,
        outcome: WindowOutcome,
        health: WindowHealth,
    ) -> RunRecord {
        if let Some(r) = self.observer.recorder.as_deref() {
            let reg = r.registry();
            reg.counter("roleclass_aggregator_cycles_total").inc();
            reg.counter("roleclass_aggregator_poll_failures_total")
                .add(health.probes_failed as u64);
            reg.counter("roleclass_aggregator_poll_skips_total")
                .add(health.probes_skipped as u64);
            reg.counter("roleclass_aggregator_retries_total")
                .add(health.retries);
            reg.counter("roleclass_aggregator_records_accepted_total")
                .add(health.records_accepted);
            reg.counter("roleclass_aggregator_records_dropped_total")
                .add(health.records_dropped);
            if health.degraded() {
                reg.counter("roleclass_aggregator_degraded_windows_total")
                    .inc();
            }
            reg.gauge("roleclass_aggregator_probes_attached")
                .set(self.probes.len() as i64);
            reg.gauge("roleclass_aggregator_quarantined_probes").set(
                self.probes
                    .iter()
                    .filter(|p| p.health() == ProbeHealth::Quarantined)
                    .count() as i64,
            );
        }

        let record = RunRecord {
            window,
            connsets,
            grouping: outcome.grouping,
            correlation: outcome.correlation,
            health,
        };
        self.observer.event(
            "aggregator",
            "roleclass_aggregator_window_classified",
            || {
                vec![
                    ("window_start_ms", record.window.start_ms.into()),
                    ("window_end_ms", record.window.end_ms.into()),
                    ("hosts", record.grouping.host_count().into()),
                    ("groups", record.grouping.group_count().into()),
                    ("records_accepted", record.health.records_accepted.into()),
                    ("records_dropped", record.health.records_dropped.into()),
                    ("degraded", record.health.degraded().into()),
                    ("correlated", record.correlation.is_some().into()),
                ]
            },
        );
        if let Some(alert) = degraded_window_alert(&record) {
            self.raise(alert);
        }
        self.history.write().push(record.clone());
        record
    }

    /// Persist stage: appends the window to the attached run store (if
    /// any), applies its retention policy, and threads both through
    /// telemetry: `roleclass_storage_*` counters on the registry plus
    /// `storage`-layer events in the journals. A window the store
    /// already holds (a replay from an older origin) is kept as stored
    /// and counted on `roleclass_storage_windows_skipped_total`, which
    /// is registered on its first skip. A failed append or prune never
    /// fails the cycle — durability problems must not stop
    /// classification — but each one is counted on
    /// `roleclass_storage_errors_total` when a recorder is attached.
    /// Nothing retries it: the checkpoint writes a different namespace.
    /// With a store attached, the stage runs under an
    /// `aggregator.persist` span.
    fn persist_run(&self, record: &RunRecord) {
        let Some(store) = self.run_store.as_ref() else {
            return;
        };
        let _span = telemetry::span(self.observer.recorder.as_deref(), "aggregator.persist");
        match store.record(record) {
            Ok(Some(bytes)) => {
                if let Some(r) = self.observer.recorder.as_deref() {
                    let reg = r.registry();
                    reg.counter("roleclass_storage_appends_total").inc();
                    reg.counter("roleclass_storage_bytes_appended_total")
                        .add(bytes);
                }
                self.observer
                    .event("storage", "roleclass_storage_history_recorded", || {
                        vec![
                            ("window_start_ms", record.window.start_ms.into()),
                            ("bytes", bytes.into()),
                            ("backend", store.backend().name().into()),
                        ]
                    });
            }
            Ok(None) => {
                if let Some(r) = self.observer.recorder.as_deref() {
                    r.registry()
                        .counter("roleclass_storage_windows_skipped_total")
                        .inc();
                }
            }
            Err(_) => self.observer.count_storage_error(),
        }
        self.note_prune("runs", store.prune());
    }

    /// Counts and journals one retention prune (of the run store or the
    /// flight journal). A failed prune counts as a storage error.
    fn note_prune(&self, target: &'static str, pruned: storage::Result<storage::Pruned>) {
        let pruned = match pruned {
            Ok(p) if p.is_empty() => return,
            Ok(p) => p,
            Err(_) => return self.observer.count_storage_error(),
        };
        if let Some(r) = self.observer.recorder.as_deref() {
            let reg = r.registry();
            reg.counter("roleclass_storage_prunes_total").inc();
            reg.counter("roleclass_storage_prune_records_total")
                .add(pruned.records);
            reg.counter("roleclass_storage_prune_bytes_total")
                .add(pruned.bytes);
        }
        self.observer
            .event("storage", "roleclass_storage_retention_pruned", || {
                vec![
                    ("target", target.into()),
                    ("records", pruned.records.into()),
                    ("bytes", pruned.bytes.into()),
                ]
            });
    }

    /// Queues an operational alert and journals its `alert_raised`
    /// event.
    fn raise(&mut self, alert: Alert) {
        self.observer
            .event("aggregator", "roleclass_aggregator_alert_raised", || {
                vec![
                    ("severity", alert.severity.label().into()),
                    ("kind", alert.kind.label().into()),
                ]
            });
        self.pending_alerts.push(alert);
    }

    /// Advances the RoleChurn hysteresis latch over one window's
    /// stability row and returns the groups that newly collapsed. A
    /// collapsed group alerts once per episode: its id stays latched
    /// while the backbone remains below the threshold and re-arms when
    /// the group recovers or retires.
    fn latch_churn<'s>(&mut self, stab: &'s WindowStability) -> Vec<&'s GroupStability> {
        let mut collapsed = Vec::new();
        for g in &stab.groups {
            if self.config.churn.collapsed(g) {
                if self.churn_alerted.insert(g.group) {
                    collapsed.push(g);
                }
            } else {
                self.churn_alerted.remove(&g.group);
            }
        }
        let current: BTreeSet<GroupId> = stab.groups.iter().map(|g| g.group).collect();
        self.churn_alerted.retain(|g| current.contains(g));
        collapsed
    }

    /// Runs cycles until no probe has pending data; returns the number
    /// of cycles executed.
    pub fn drain(&mut self) -> usize {
        let mut cycles = 0;
        while self.has_pending_data() {
            self.run_cycle();
            cycles += 1;
        }
        cycles
    }

    /// Writes a checkpoint generation through `ck`: the master host
    /// table plus the resume cursor (the window end of the newest run).
    /// The runs are not written — the attached run store holds them —
    /// and the previous generation survives as the backup.
    pub fn checkpoint(&self, ck: &Checkpointer) -> Result<(), CheckpointError> {
        let obs = &self.observer;
        let rec = obs.recorder.as_deref();
        let _span = telemetry::span(rec, "aggregator.checkpoint");
        let started = rec.map(|_| std::time::Instant::now());
        let result = ck.save_with_table(&self.history.read(), &self.host_table);
        if let (Some(r), Some(t0)) = (rec, started) {
            let reg = r.registry();
            if result.is_ok() {
                reg.counter("roleclass_aggregator_checkpoint_writes_total")
                    .inc();
            }
            reg.histogram(
                "roleclass_aggregator_checkpoint_write_seconds",
                telemetry::DURATION_BUCKETS,
            )
            .observe(t0.elapsed().as_secs_f64());
        }
        obs.event(
            "aggregator",
            "roleclass_aggregator_checkpoint_written",
            || {
                vec![
                    ("runs", self.history.read().len().into()),
                    ("ok", result.is_ok().into()),
                ]
            },
        );
        // The checkpoint is the natural durability beat: bound the
        // flight journal's growth here, counting what was dropped.
        if let Some(f) = obs.flight.as_deref() {
            self.note_prune("journal", f.prune());
        }
        result
    }

    /// Restores from the best available checkpoint generation —
    /// primary, else backup, else an empty fresh start — reading the
    /// runs it covers from the store attached with
    /// [`Aggregator::with_run_store`]. Windowing resumes at the
    /// checkpoint's cursor and correlation anchors on the newest
    /// restored run, so group ids stay stable across the restart; a
    /// window stored after the cursor is re-run (the store keeps its
    /// first copy). Never fails: the returned [`Recovery`] says which
    /// generation was used and notes what went wrong; its runs and
    /// table have moved into this aggregator.
    ///
    /// A fallback past the primary generation is surfaced twice: as a
    /// queued [`Alert`] (see [`Aggregator::take_alerts`]) and, when a
    /// recorder is attached, on the
    /// `roleclass_aggregator_checkpoint_fallbacks_total` counter.
    pub fn restore_from(&mut self, ck: &Checkpointer) -> Recovery {
        let recorder = self.observer.recorder.clone();
        let rec = recorder.as_deref();
        let _span = telemetry::span(rec, "aggregator.restore");
        let mut recovery = ck.load_or_recover(self.run_store.as_deref());
        if let Some(r) = rec {
            let reg = r.registry();
            reg.counter("roleclass_aggregator_recoveries_total").inc();
            if recovery.source != RecoverySource::Primary {
                reg.counter("roleclass_aggregator_checkpoint_fallbacks_total")
                    .inc();
            }
        }
        self.observer.event(
            "aggregator",
            "roleclass_aggregator_checkpoint_restored",
            || {
                vec![
                    ("source", recovery.source.as_str().into()),
                    ("runs", recovery.runs.len().into()),
                ]
            },
        );
        if let Some(alert) = checkpoint_fallback_alert(&recovery) {
            self.raise(alert);
        }
        // Move the restored runs and table into place, resume at the
        // cursor, and re-anchor correlation on the newest run.
        if let Some(resume_ms) = recovery.state.resume_ms {
            self.next_window_start = resume_ms;
        }
        let runs = std::mem::take(&mut recovery.runs);
        self.engine
            .set_previous(runs.last().map(|r| EngineSnapshot {
                connsets: r.connsets.clone(),
                grouping: r.grouping.clone(),
            }));
        self.host_table = std::mem::take(&mut recovery.state.table);
        // Rebuild the stability state by replaying the adopted groupings
        // in order — the same observations live ingestion would have
        // made. The replay is silent: no alerts are queued and nothing
        // is journaled (the original run already did both), but the
        // hysteresis latch is reconstructed so a group that was already
        // collapsed at checkpoint time does not re-alert on restore.
        self.stability = StabilityTracker::new(self.config.churn.horizon);
        self.stability_history.clear();
        self.timeseries.take();
        self.churn_alerted.clear();
        for run in &runs {
            let stab = self.stability.observe(&run.grouping);
            self.latch_churn(&stab);
            self.stability_history.push(stab);
        }
        *self.history.write() = runs;
        recovery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{ProbeError, ReplayProbe};
    use crate::store::{StorageStack, TempStack};
    use flow::HostAddr;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    /// Builds a day of identical-structure flows for two client pods.
    fn day_trace(day: u64, db_host: u32) -> Vec<FlowRecord> {
        let base = day * 1000;
        let mut out = Vec::new();
        let mut push = |a: u32, b: u32, off: u64| {
            let mut f = FlowRecord::pair(h(a), h(b));
            f.start_ms = base + off;
            out.push(f);
        };
        for (i, s) in [11, 12, 13].into_iter().enumerate() {
            push(s, 1, i as u64);
            push(s, 2, 10 + i as u64);
            push(s, db_host, 20 + i as u64);
        }
        for (i, e) in [21, 22, 23].into_iter().enumerate() {
            push(e, 1, 30 + i as u64);
            push(e, 2, 40 + i as u64);
            push(e, 4, 50 + i as u64);
        }
        out
    }

    fn config() -> AggregatorConfig {
        AggregatorConfig {
            window_ms: 1000,
            origin_ms: 0,
            // Keep formation-phase groups: more structure to correlate.
            engine: EngineConfig::new(Params::default().with_s_lo(90.0).with_s_hi(95.0)),
            min_flows: 1,
            supervisor: SupervisorConfig::immediate(),
            ..AggregatorConfig::default()
        }
    }

    #[test]
    fn try_new_rejects_invalid_params() {
        let mut cfg = config();
        cfg.engine.params = Params {
            s_lo: 90.0,
            s_hi: 80.0,
            ..Params::default()
        };
        assert!(Aggregator::try_new(cfg).is_err());
        assert!(Aggregator::try_new(config()).is_ok());
    }

    #[test]
    fn single_cycle_produces_grouping() {
        let mut agg = Aggregator::new(config());
        agg.attach(Box::new(ReplayProbe::new("p0", day_trace(0, 3))));
        assert_eq!(agg.probe_reports().len(), 1);
        assert!(agg.has_pending_data());
        let run = agg.run_cycle();
        assert_eq!(run.window, TimeWindow::new(0, 1000));
        assert_eq!(run.grouping.host_count(), 10);
        assert!(run.correlation.is_none());
        assert!(agg.current_grouping().is_some());
        assert!(!run.health.degraded());
        assert_eq!(run.health.probes_delivered(), 1);
        assert_eq!(run.health.records_accepted, 18);
    }

    #[test]
    fn stable_network_keeps_ids_across_cycles() {
        let mut agg = Aggregator::new(config());
        let trace: Vec<FlowRecord> = day_trace(0, 3).into_iter().chain(day_trace(1, 3)).collect();
        agg.attach(Box::new(ReplayProbe::new("p0", trace)));
        let first = agg.run_cycle();
        let second = agg.run_cycle();
        assert!(second.correlation.is_some());
        // Identical structure: every group id survives.
        assert_eq!(
            first.grouping.group_of(h(11)),
            second.grouping.group_of(h(11))
        );
        assert_eq!(
            first.grouping.group_of(h(1)),
            second.grouping.group_of(h(1))
        );
        assert_eq!(first.grouping.group_count(), second.grouping.group_count());
    }

    #[test]
    fn drain_runs_until_horizon() {
        let mut agg = Aggregator::new(config());
        let trace: Vec<FlowRecord> = (0..3).flat_map(|d| day_trace(d, 3)).collect();
        agg.attach(Box::new(ReplayProbe::new("p0", trace)));
        let cycles = agg.drain();
        assert_eq!(cycles, 3);
        assert!(!agg.has_pending_data());
        assert_eq!(agg.history().read().len(), 3);
    }

    #[test]
    fn multiple_probes_merge_views() {
        // Each probe sees one pod; the aggregator sees both.
        let mut agg = Aggregator::new(config());
        let (pod_a, pod_b): (Vec<FlowRecord>, Vec<FlowRecord>) = day_trace(0, 3)
            .into_iter()
            .partition(|r| r.src.as_u32() < 20 && r.dst.as_u32() < 20);
        agg.attach(Box::new(ReplayProbe::new("probe-a", pod_a)));
        agg.attach(Box::new(ReplayProbe::new("probe-b", pod_b)));
        let run = agg.run_cycle();
        assert_eq!(run.grouping.host_count(), 10);
    }

    #[test]
    fn restore_from_run_store_anchors_next_window() {
        let stack = TempStack::open("agg-anchor");
        let mut agg = Aggregator::new(config()).with_run_store(Arc::clone(stack.runs()));
        let trace: Vec<FlowRecord> = day_trace(0, 3).into_iter().chain(day_trace(1, 3)).collect();
        agg.attach(Box::new(ReplayProbe::new("p0", trace)));
        agg.drain();
        agg.checkpoint(stack.checkpointer()).unwrap();

        // A fresh aggregator resumes from the checkpoint and the runs
        // it covers: the same group ids survive into the next cycle.
        let mut agg2 = Aggregator::new(config()).with_run_store(Arc::clone(stack.runs()));
        let day2: Vec<FlowRecord> = day_trace(2, 3);
        agg2.attach(Box::new(ReplayProbe::new("p0", day2)));
        agg2.restore_from(stack.checkpointer());
        assert_eq!(agg2.history().read().len(), 2);
        let run3 = agg2.run_cycle();
        assert_eq!(run3.window.start_ms, 2000);
        assert!(run3.correlation.is_some());
        let prev = agg.current_grouping().unwrap();
        assert_eq!(
            prev.group_of(h(11)),
            run3.grouping.group_of(h(11)),
            "restored history must anchor correlation"
        );
    }

    #[test]
    fn min_flows_filters_noise() {
        let mut cfg = config();
        cfg.min_flows = 2;
        let mut agg = Aggregator::new(cfg);
        // One stray flow: should be filtered, leaving the pair isolated.
        let mut stray = FlowRecord::pair(h(77), h(78));
        stray.start_ms = 5;
        let mut trace = day_trace(0, 3);
        trace.push(stray);
        // Double every legitimate flow so it clears the filter.
        let doubled: Vec<FlowRecord> = trace
            .iter()
            .flat_map(|r| {
                if r.src == h(77) {
                    vec![*r]
                } else {
                    vec![*r, *r]
                }
            })
            .collect();
        agg.attach(Box::new(ReplayProbe::new("p0", doubled)));
        let run = agg.run_cycle();
        assert!(!run.connsets.connected(h(77), h(78)));
        assert!(run.connsets.connected(h(11), h(1)));
        assert_eq!(run.health.records_dropped, 1);
        assert!(run.health.records_accepted >= 36);
    }

    /// A probe that always fails with a transient error.
    struct DownProbe;

    impl Probe for DownProbe {
        fn name(&self) -> &str {
            "down"
        }
        fn poll(&mut self, _: u64, _: u64) -> Result<Vec<FlowRecord>, ProbeError> {
            Err(ProbeError::Transient("link down".into()))
        }
        fn horizon_ms(&self) -> Option<u64> {
            Some(0)
        }
    }

    #[test]
    fn failed_probe_degrades_but_does_not_abort() {
        let mut agg = Aggregator::new(config());
        agg.attach(Box::new(ReplayProbe::new("good", day_trace(0, 3))));
        agg.attach(Box::new(DownProbe));
        let run = agg.run_cycle();
        // Classification still ran on the healthy probe's data.
        assert_eq!(run.grouping.host_count(), 10);
        assert!(run.health.degraded());
        assert_eq!(run.health.probes_total, 2);
        assert_eq!(run.health.probes_failed, 1);
        assert_eq!(run.health.probes_delivered(), 1);
        assert!(run.health.errors[0].contains("down"));
        assert!(run.health.retries > 0);
    }

    /// A probe that dies fatally on first poll but claims an unbounded
    /// horizon — the pathological case that used to hang `drain`.
    struct LyingDeadProbe;

    impl Probe for LyingDeadProbe {
        fn name(&self) -> &str {
            "liar"
        }
        fn poll(&mut self, _: u64, _: u64) -> Result<Vec<FlowRecord>, ProbeError> {
            Err(ProbeError::Fatal("device decommissioned".into()))
        }
        fn horizon_ms(&self) -> Option<u64> {
            None
        }
    }

    #[test]
    fn fatal_probe_cannot_stall_drain() {
        let mut agg = Aggregator::new(config());
        agg.attach(Box::new(ReplayProbe::new("good", day_trace(0, 3))));
        agg.attach(Box::new(LyingDeadProbe));
        // drain() must terminate: the supervisor clamps the dead probe's
        // horizon, and the replay probe is exhausted after one window.
        let cycles = agg.drain();
        assert_eq!(cycles, 1);
        let reports = agg.probe_reports();
        assert!(reports
            .iter()
            .any(|r| r.name == "liar" && r.health == ProbeHealth::Quarantined));
        assert!(reports
            .iter()
            .any(|r| r.name == "good" && r.health == ProbeHealth::Open));
    }

    #[test]
    fn recorder_captures_cycle_spans_and_window_counters() {
        let rec = Arc::new(telemetry::Recorder::new());
        let mut agg = Aggregator::new(config()).with_recorder(Arc::clone(&rec));
        let trace: Vec<FlowRecord> = day_trace(0, 3).into_iter().chain(day_trace(1, 3)).collect();
        agg.attach(Box::new(ReplayProbe::new("p0", trace)));
        let cycles = agg.drain();
        assert_eq!(cycles, 2);

        let reg = rec.registry();
        assert_eq!(reg.counter("roleclass_aggregator_cycles_total").get(), 2);
        assert_eq!(
            reg.counter("roleclass_aggregator_records_accepted_total")
                .get(),
            36
        );
        assert_eq!(
            reg.counter("roleclass_aggregator_poll_failures_total")
                .get(),
            0
        );
        assert_eq!(reg.gauge("roleclass_aggregator_probes_attached").get(), 1);
        assert_eq!(
            reg.gauge("roleclass_aggregator_quarantined_probes").get(),
            0
        );

        // Every aggregator metric name used above is declared in the lint list.
        for line in reg.prometheus_text().lines() {
            if let Some(name) = line.split([' ', '{']).next() {
                if name.starts_with("roleclass_aggregator_") {
                    let base = name
                        .trim_end_matches("_bucket")
                        .trim_end_matches("_sum")
                        .trim_end_matches("_count");
                    assert!(
                        AGGREGATOR_METRIC_NAMES.contains(&base),
                        "{base} not declared"
                    );
                }
            }
        }

        // Each cycle is one root span; the engine nests under it.
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        for cycle in &spans {
            assert_eq!(cycle.name, "aggregator.run_cycle");
            let kids: Vec<&str> = cycle.children.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(
                kids,
                ["aggregator.poll", "aggregator.build", "engine.run_window"]
            );
        }
        // No degraded windows, so no degraded alerts were queued.
        assert!(agg.pending_alerts().is_empty());
    }

    /// `ns_per_eval` divides correlate time by the exact similarity
    /// evaluations, not by the gated pairs step 1 never scores.
    #[test]
    fn correlate_unit_cost_is_per_exact_evaluation() {
        let rec = Arc::new(telemetry::Recorder::new());
        let mut agg = Aggregator::new(config()).with_recorder(Arc::clone(&rec));
        let trace: Vec<FlowRecord> = day_trace(0, 3).into_iter().chain(day_trace(1, 3)).collect();
        agg.attach(Box::new(ReplayProbe::new("p0", trace)));
        let reg = rec.registry();
        let totals = || {
            (
                reg.histogram(
                    "roleclass_engine_correlate_seconds",
                    telemetry::DURATION_BUCKETS,
                )
                .sum(),
                reg.counter("roleclass_engine_correlate_exact_evals_total")
                    .get(),
                reg.counter("roleclass_engine_correlate_similarity_evals_total")
                    .get(),
            )
        };
        agg.run_cycle();
        let (secs0, exact0, gated0) = totals();
        agg.run_cycle();
        let (secs1, exact1, gated1) = totals();
        let exact = exact1 - exact0;
        assert!(exact > 0);
        assert!(
            gated1 - gated0 > exact,
            "the window must gate more pairs than it scores"
        );
        let frames = agg.timeseries().snapshot();
        let ns_per_eval = frames[1]
            .values
            .iter()
            .find(|(n, _)| *n == "roleclass_profile_correlate_ns_per_eval")
            .unwrap()
            .1;
        assert_eq!(ns_per_eval, (secs1 - secs0) * 1e9 / exact as f64);
    }

    /// Object-field lookup on the vendored JSON value model.
    fn field<'a>(v: &'a serde::value::Value, key: &str) -> &'a serde::value::Value {
        match v {
            serde::value::Value::Map(m) => {
                &m.iter().find(|(k, _)| k == key).expect("missing field").1
            }
            other => panic!("expected object, got {}", other.kind()),
        }
    }

    /// A segment-backed storage config on a fresh temp root, for tests
    /// that restart the process by reopening the stack.
    fn segment_storage(tag: &str) -> (std::path::PathBuf, storage::StorageConfig) {
        let dir = std::env::temp_dir().join(format!("roleclass-agg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = storage::StorageConfig::new(dir.to_string_lossy());
        (dir, config)
    }

    /// The flight-journal payloads in `stack`, oldest first.
    fn journal_lines(stack: &StorageStack) -> Vec<String> {
        stack
            .backend()
            .scan(crate::store::JOURNAL_NS, 0, u64::MAX)
            .unwrap()
            .into_iter()
            .map(|rec| String::from_utf8(rec.value).unwrap())
            .collect()
    }

    #[test]
    fn cycle_events_are_declared_and_dual_journaled() {
        use serde::value::Value;

        let (dir, storage) = segment_storage("events");
        let stack = StorageStack::open(&storage).unwrap();
        let ck = stack.checkpointer();

        let rec = Arc::new(telemetry::Recorder::new());
        let mut agg = Aggregator::new(config())
            .with_recorder(Arc::clone(&rec))
            .with_shared_flight_recorder(Arc::clone(stack.recorder()));
        agg.attach(Box::new(ReplayProbe::new("good", day_trace(0, 3))));
        agg.attach(Box::new(DownProbe));
        agg.run_cycle();
        agg.checkpoint(ck).unwrap();

        // The shared journal carries engine-layer decision events too;
        // the aggregator's own events are the `aggregator` layer, the
        // stability observatory's the `stability` layer — both are
        // dual-journaled.
        let events: Vec<_> = rec
            .events()
            .snapshot()
            .into_iter()
            .filter(|e| e.layer == "aggregator" || e.layer == "stability")
            .collect();
        assert!(!events.is_empty());
        for ev in &events {
            let declared: &[&str] = match ev.layer {
                "aggregator" => AGGREGATOR_EVENT_NAMES,
                "stability" => roleclass::STABILITY_EVENT_NAMES,
                other => panic!("unexpected layer {other}"),
            };
            assert!(declared.contains(&ev.name), "{} not declared", ev.name);
        }
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"roleclass_aggregator_window_started"));
        assert!(names.contains(&"roleclass_aggregator_probe_poll_failed"));
        assert!(names.contains(&"roleclass_aggregator_window_classified"));
        assert!(names.contains(&"roleclass_aggregator_alert_raised"));
        assert!(names.contains(&"roleclass_aggregator_checkpoint_written"));
        assert!(names.contains(&"roleclass_stability_window_scored"));

        // The durable journal carries the same events, as parseable
        // JSONL, alongside the checkpoint.
        let lines = journal_lines(&stack);
        assert_eq!(lines.len(), events.len());
        for (line, ev) in lines.iter().zip(&events) {
            let v: Value = serde_json::from_str(line).unwrap();
            assert_eq!(field(&v, "name"), &Value::Str(ev.name.to_string()));
            assert_eq!(field(&v, "layer"), &Value::Str(ev.layer.to_string()));
        }
        assert_eq!(
            rec.registry()
                .counter("roleclass_storage_errors_total")
                .get(),
            0
        );

        // A restarted aggregator reopens the journal and extends it;
        // the restore itself is journaled.
        drop(agg);
        drop(stack);
        let stack = StorageStack::open(&storage).unwrap();
        let mut fresh =
            Aggregator::new(config()).with_shared_flight_recorder(Arc::clone(stack.recorder()));
        let recovery = fresh.restore_from(stack.checkpointer());
        assert_eq!(recovery.source, RecoverySource::Primary);
        let lines = journal_lines(&stack);
        assert_eq!(lines.len(), events.len() + 1);
        let last: Value = serde_json::from_str(lines.last().unwrap()).unwrap();
        assert_eq!(
            field(&last, "name"),
            &Value::Str("roleclass_aggregator_checkpoint_restored".to_string())
        );
        assert_eq!(
            field(field(&last, "fields"), "source"),
            &Value::Str("primary".to_string())
        );
        assert_eq!(field(&last, "seq"), &Value::U64(events.len() as u64));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn detached_cycle_emits_no_events() {
        let mut agg = Aggregator::new(config());
        agg.attach(Box::new(ReplayProbe::new("p0", day_trace(0, 3))));
        agg.run_cycle();
        assert!(agg.recorder().is_none());
    }

    /// A backend whose appends fail, like a full disk; it never holds
    /// a record, so every read is empty.
    #[derive(Debug)]
    struct FullDisk;

    impl storage::StorageBackend for FullDisk {
        fn name(&self) -> &'static str {
            "full-disk"
        }
        fn define(&self, _: &str, _: storage::NamespaceProfile) -> storage::Result<()> {
            Ok(())
        }
        fn append(&self, _: &str, _: u64, _: &[u8]) -> storage::Result<u64> {
            Err(storage::StorageError::Io(std::io::Error::other(
                "disk full",
            )))
        }
        fn get(&self, _: &str, _: u64) -> storage::Result<Option<Vec<u8>>> {
            Ok(None)
        }
        fn scan(&self, _: &str, _: u64, _: u64) -> storage::Result<Vec<storage::Record>> {
            Ok(Vec::new())
        }
        fn latest(&self, _: &str) -> storage::Result<Option<storage::Record>> {
            Ok(None)
        }
        fn len(&self, _: &str) -> storage::Result<u64> {
            Ok(0)
        }
        fn retain(&self, _: &str) -> storage::Result<storage::Pruned> {
            Ok(storage::Pruned::default())
        }
        fn flush(&self) -> storage::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failed_run_store_append_is_counted_not_fatal() {
        let store = RunStore::open(
            Arc::new(FullDisk),
            "runs",
            storage::NamespaceProfile::log(storage::Retention::unbounded()),
        )
        .unwrap();
        let rec = Arc::new(telemetry::Recorder::new());
        let mut agg = Aggregator::new(config())
            .with_recorder(Arc::clone(&rec))
            .with_run_store(Arc::new(store));
        agg.attach(Box::new(ReplayProbe::new("p0", day_trace(0, 3))));
        let run = agg.run_cycle();
        assert_eq!(run.grouping.host_count(), 10);
        assert_eq!(agg.history().read().len(), 1);
        let reg = rec.registry();
        assert_eq!(reg.counter("roleclass_storage_errors_total").get(), 1);
        assert_eq!(reg.counter("roleclass_storage_appends_total").get(), 0);
    }

    #[test]
    fn failed_journal_appends_are_counted() {
        let flight = FlightRecorder::open(
            Arc::new(FullDisk),
            crate::store::JOURNAL_NS,
            storage::Retention::unbounded(),
        )
        .unwrap();
        let rec = Arc::new(telemetry::Recorder::new());
        let mut agg = Aggregator::new(config())
            .with_recorder(Arc::clone(&rec))
            .with_shared_flight_recorder(Arc::new(flight));
        let trace: Vec<FlowRecord> = day_trace(0, 3).into_iter().chain(day_trace(1, 3)).collect();
        agg.attach(Box::new(ReplayProbe::new("p0", trace)));
        // Engine-layer decisions go to the in-memory journal only; every
        // other event is also written to the flight journal, and each of
        // those writes fails on the full disk.
        let journaled = || {
            rec.events()
                .snapshot()
                .iter()
                .filter(|e| e.layer != "engine")
                .count() as u64
        };
        let errors = || {
            rec.registry()
                .counter("roleclass_storage_errors_total")
                .get()
        };
        let run = agg.run_cycle();
        assert_eq!(run.grouping.host_count(), 10);
        assert!(journaled() > 0);
        assert_eq!(errors(), journaled());
        agg.run_cycle();
        assert_eq!(errors(), journaled());
    }

    #[test]
    fn host_ids_are_stable_across_cycles() {
        let mut agg = Aggregator::new(config());
        // Day 0 uses db host 3; day 1 swaps in db host 5 and a new pod
        // member — old hosts must keep their ids, new hosts extend.
        let trace: Vec<FlowRecord> = day_trace(0, 3).into_iter().chain(day_trace(1, 5)).collect();
        agg.attach(Box::new(ReplayProbe::new("p0", trace)));
        let first = agg.run_cycle();
        let ids_before: Vec<_> = agg.host_table().iter().collect();
        agg.run_cycle();
        // Every previously-assigned id is unchanged.
        for (id, addr) in ids_before {
            assert_eq!(agg.host_table().get(addr), Some(id));
        }
        // The new host got a fresh id past the old population.
        assert!(agg.host_table().len() > first.connsets.host_count());
        assert!(agg.host_table().get(h(5)).is_some());
    }

    #[test]
    fn host_ids_survive_checkpoint_restore() {
        let (dir, storage) = segment_storage("ids");
        let stack = StorageStack::open(&storage).unwrap();

        let mut agg = Aggregator::new(config()).with_run_store(Arc::clone(stack.runs()));
        let trace: Vec<FlowRecord> = day_trace(0, 3).into_iter().chain(day_trace(1, 3)).collect();
        agg.attach(Box::new(ReplayProbe::new("p0", trace)));
        agg.drain();
        agg.checkpoint(stack.checkpointer()).unwrap();
        let ids_before: Vec<_> = agg.host_table().iter().collect();

        drop(agg);
        drop(stack);
        let stack = StorageStack::open(&storage).unwrap();
        let mut fresh = Aggregator::new(config()).with_run_store(Arc::clone(stack.runs()));
        fresh.attach(Box::new(ReplayProbe::new("p0", day_trace(2, 3))));
        let recovery = fresh.restore_from(stack.checkpointer());
        assert_eq!(recovery.source, RecoverySource::Primary);
        // The restored table is the persisted one, verbatim.
        for &(id, addr) in &ids_before {
            assert_eq!(fresh.host_table().get(addr), Some(id));
        }
        // And the next cycle keeps extending it without renumbering.
        fresh.run_cycle();
        for (id, addr) in ids_before {
            assert_eq!(fresh.host_table().get(addr), Some(id));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stability_rows_accumulate_with_history() {
        let mut agg = Aggregator::new(config());
        let trace: Vec<FlowRecord> = (0..3).flat_map(|d| day_trace(d, 3)).collect();
        agg.attach(Box::new(ReplayProbe::new("p0", trace)));
        agg.drain();
        let rows = agg.stability_history();
        assert_eq!(rows.len(), 3);
        // A structurally stable network: every surviving group keeps its
        // full backbone and persistence counts up each window.
        let last = rows.last().unwrap();
        assert_eq!(last.churned_hosts, 0);
        assert_eq!(last.backbone_min, 1.0);
        assert!(last.groups.iter().all(|g| g.persistence == 3));
        // The churn table covers every host, with zero flips.
        let table = agg.churn_table();
        assert_eq!(table.len(), 10);
        assert!(table.iter().all(|c| c.flips == 0));
        assert_eq!(agg.host_churn(h(11)).unwrap().windows, 3);
        assert!(agg.host_churn(h(99)).is_none());
        // The timeseries ring has one frame per cycle, in window order.
        let frames = agg.timeseries().snapshot();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[2].window, 2);
        let hosts = frames[2]
            .values
            .iter()
            .find(|(n, _)| *n == "roleclass_stability_hosts")
            .unwrap()
            .1;
        assert_eq!(hosts, 10.0);
        // No churn on a stable network: no RoleChurn alert queued.
        assert!(agg.pending_alerts().is_empty());
    }

    #[test]
    fn already_stored_windows_are_counted_as_skipped() {
        let stack = TempStack::open("agg-skip");
        let trace: Vec<FlowRecord> = (0..3).flat_map(|d| day_trace(d, 3)).collect();
        let rec = Arc::new(telemetry::Recorder::new());
        let mut first = Aggregator::new(config())
            .with_recorder(Arc::clone(&rec))
            .with_run_store(Arc::clone(stack.runs()));
        first.attach(Box::new(ReplayProbe::new("p0", trace.clone())));
        first.drain();
        let stored = stack.runs().len().unwrap();
        assert_eq!(stored, 3);
        // Nothing skipped yet: the counter is not even registered.
        assert!(!rec
            .registry()
            .names()
            .iter()
            .any(|n| n == "roleclass_storage_windows_skipped_total"));

        // A second run from the same origin re-observes every window.
        let rec = Arc::new(telemetry::Recorder::new());
        let mut second = Aggregator::new(config())
            .with_recorder(Arc::clone(&rec))
            .with_run_store(Arc::clone(stack.runs()));
        second.attach(Box::new(ReplayProbe::new("p0", trace)));
        let windows = second.drain() as u64;
        assert_eq!(
            rec.registry()
                .counter("roleclass_storage_windows_skipped_total")
                .get(),
            windows
        );
        assert_eq!(stack.runs().len().unwrap(), stored);
    }

    #[test]
    fn cycle_with_a_run_store_ends_in_a_persist_span() {
        let stack = TempStack::open("agg-persist-span");
        let rec = Arc::new(telemetry::Recorder::new());
        let mut agg = Aggregator::new(config())
            .with_recorder(Arc::clone(&rec))
            .with_run_store(Arc::clone(stack.runs()));
        agg.attach(Box::new(ReplayProbe::new("p0", day_trace(0, 3))));
        agg.run_cycle();
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        let kids: Vec<&str> = spans[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            kids,
            [
                "aggregator.poll",
                "aggregator.build",
                "engine.run_window",
                "aggregator.persist"
            ]
        );
    }

    #[test]
    fn restore_replays_stability_silently() {
        let stack = TempStack::open("agg-replay");
        let mut agg = Aggregator::new(config()).with_run_store(Arc::clone(stack.runs()));
        let trace: Vec<FlowRecord> = (0..3).flat_map(|d| day_trace(d, 3)).collect();
        agg.attach(Box::new(ReplayProbe::new("p0", trace)));
        agg.drain();
        agg.checkpoint(stack.checkpointer()).unwrap();

        let mut agg2 = Aggregator::new(config()).with_run_store(Arc::clone(stack.runs()));
        agg2.restore_from(stack.checkpointer());
        assert_eq!(agg2.history().read().len(), 3);
        // The rebuilt stability history matches the live one row for row,
        // and the silent replay queued no alerts.
        assert_eq!(agg2.stability_history(), agg.stability_history());
        assert_eq!(agg2.churn_table(), agg.churn_table());
        assert!(agg2.pending_alerts().is_empty());
    }

    #[test]
    fn restore_fallback_is_counted_and_alerted() {
        use crate::alerts::{AlertKind, Severity};
        use crate::store::CHECKPOINT_NS;

        let (dir, storage) = segment_storage("restore");
        let stack = StorageStack::open(&storage).unwrap();
        let ck = stack.checkpointer();

        let mut agg = Aggregator::new(config()).with_run_store(Arc::clone(stack.runs()));
        agg.attach(Box::new(ReplayProbe::new("p0", day_trace(0, 3))));
        agg.run_cycle();
        agg.checkpoint(ck).unwrap();
        agg.run_cycle();
        agg.checkpoint(ck).unwrap();
        // A newer generation chopped mid-payload: recovery must fall
        // back to the intact one before it.
        let newest = stack
            .backend()
            .latest(CHECKPOINT_NS)
            .unwrap()
            .unwrap()
            .value;
        stack
            .backend()
            .append(CHECKPOINT_NS, 0, &newest[..newest.len() / 2])
            .unwrap();

        drop(agg);
        drop(stack);
        let stack = StorageStack::open(&storage).unwrap();
        let rec = Arc::new(telemetry::Recorder::new());
        let mut fresh = Aggregator::new(config())
            .with_recorder(Arc::clone(&rec))
            .with_run_store(Arc::clone(stack.runs()));
        let recovery = fresh.restore_from(stack.checkpointer());
        assert_eq!(recovery.source, RecoverySource::Backup);

        let reg = rec.registry();
        assert_eq!(
            reg.counter("roleclass_aggregator_recoveries_total").get(),
            1
        );
        assert_eq!(
            reg.counter("roleclass_aggregator_checkpoint_fallbacks_total")
                .get(),
            1
        );
        let alerts = fresh.take_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].severity, Severity::Warning);
        assert!(matches!(
            &alerts[0].kind,
            AlertKind::CheckpointFallback { source, .. } if source == "backup"
        ));
        // The queue drains exactly once.
        assert!(fresh.pending_alerts().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
