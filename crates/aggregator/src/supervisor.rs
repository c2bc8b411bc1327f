//! Probe supervision: retry, backoff, error budgets, and health.
//!
//! The aggregator is the single point the whole monitoring system
//! funnels through, so one flapping capture device must not stall or
//! crash a classification cycle. [`ProbeSupervisor`] wraps each probe
//! with:
//!
//! * **bounded retry with exponential backoff** for transient failures
//!   within one window poll;
//! * a **per-probe error budget**: consecutive failed windows consume
//!   it, any success refills it;
//! * a **circuit-breaker health state machine**
//!   ([`ProbeHealth::Open`] → [`ProbeHealth::Degraded`] →
//!   [`ProbeHealth::Quarantined`]): a quarantined probe is skipped for a
//!   cool-down number of windows, then given a single trial poll. Fatal
//!   errors quarantine a probe permanently.
//!
//! The supervisor never panics and never blocks beyond its configured
//! backoff; every outcome is reported to the caller so window health
//! can be recorded alongside the classification results.

use crate::probe::{Probe, ProbeError};
use flow::FlowRecord;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Circuit-breaker state of a supervised probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeHealth {
    /// Healthy: recent polls succeeded.
    Open,
    /// Recently failed (or recovering from quarantine); still polled,
    /// but its windows are flagged until a clean streak rebuilds trust.
    Degraded,
    /// Error budget exhausted (or fatal error): skipped for a cool-down
    /// period, then given one trial poll. Permanent after a fatal error.
    Quarantined,
}

/// Supervision policy knobs.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Extra poll attempts after a transient failure, within one window.
    pub max_retries: u32,
    /// First retry backoff; doubles per attempt. Zero disables sleeping
    /// (useful in tests and replay pipelines).
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Consecutive failed windows tolerated before quarantine.
    pub error_budget: u32,
    /// Windows a quarantined probe sits out before a trial poll.
    pub quarantine_windows: u32,
    /// Consecutive clean windows needed to go from Degraded back to Open.
    pub recovery_streak: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(2),
            error_budget: 3,
            quarantine_windows: 2,
            recovery_streak: 2,
        }
    }
}

impl SupervisorConfig {
    /// Config with no backoff sleeps — retries are immediate. The right
    /// choice for replay/offline pipelines where waiting buys nothing.
    pub fn immediate() -> Self {
        SupervisorConfig {
            backoff_base: Duration::ZERO,
            ..SupervisorConfig::default()
        }
    }
}

/// Lifetime counters for one supervised probe.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeStats {
    /// Windows in which the probe was polled (trial polls included).
    pub windows_polled: u64,
    /// Windows that ultimately failed after retries.
    pub windows_failed: u64,
    /// Windows skipped while quarantined.
    pub windows_skipped: u64,
    /// Individual retry attempts across all windows.
    pub retries: u64,
    /// Records delivered across all windows.
    pub records_delivered: u64,
}

/// Snapshot of one supervised probe: its name, circuit-breaker health,
/// and lifetime counters, bundled so callers (reports, `rcctl`, the
/// telemetry export) get one named record per probe instead of parallel
/// tuple lists.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeReport {
    /// The probe's name.
    pub name: String,
    /// Current circuit-breaker state.
    pub health: ProbeHealth,
    /// Lifetime supervision counters.
    pub stats: ProbeStats,
}

/// What happened when the supervisor was asked for one window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PollOutcome {
    /// Records were delivered (possibly after retries).
    Delivered {
        /// The window's records.
        records: Vec<FlowRecord>,
        /// Retries spent getting them.
        retries: u32,
    },
    /// All attempts failed; the window has no data from this probe.
    Failed {
        /// The last error observed.
        error: ProbeError,
        /// Retries spent before giving up.
        retries: u32,
    },
    /// The probe is quarantined and sat this window out.
    Skipped,
}

/// A probe wrapped with retry, budget, and health tracking.
pub struct ProbeSupervisor {
    probe: Box<dyn Probe + Send>,
    config: SupervisorConfig,
    health: ProbeHealth,
    /// Consecutive failed windows (drives the error budget).
    consecutive_failures: u32,
    /// Consecutive clean windows (drives Degraded → Open recovery).
    clean_streak: u32,
    /// Windows left to sit out while quarantined.
    cooldown_remaining: u32,
    /// Set by a fatal error: the probe never leaves quarantine.
    dead: bool,
    stats: ProbeStats,
}

impl ProbeSupervisor {
    /// Wraps a probe under the given policy.
    pub fn new(probe: Box<dyn Probe + Send>, config: SupervisorConfig) -> Self {
        ProbeSupervisor {
            probe,
            config,
            health: ProbeHealth::Open,
            consecutive_failures: 0,
            clean_streak: 0,
            cooldown_remaining: 0,
            dead: false,
            stats: ProbeStats::default(),
        }
    }

    /// The wrapped probe's name.
    pub fn name(&self) -> &str {
        self.probe.name()
    }

    /// Current health state.
    pub fn health(&self) -> ProbeHealth {
        self.health
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ProbeStats {
        self.stats
    }

    /// Whether the underlying probe may still deliver records from
    /// `from_ms` on ([`Probe::pending_from`]). Never for a dead probe —
    /// it will never deliver anything again — so drain loops terminate
    /// even when the device vanished mid-trace.
    pub fn pending_from(&self, from_ms: u64) -> bool {
        !self.dead && self.probe.pending_from(from_ms)
    }

    /// Polls one window through the retry/budget/health machinery.
    pub fn poll_window(&mut self, from_ms: u64, to_ms: u64) -> PollOutcome {
        if self.health == ProbeHealth::Quarantined && (self.dead || self.cooldown_remaining > 0) {
            self.cooldown_remaining = self.cooldown_remaining.saturating_sub(1);
            self.stats.windows_skipped += 1;
            return PollOutcome::Skipped;
        }
        // A quarantined probe past its cool-down falls through to a trial
        // poll; a failure below re-quarantines with a fresh cool-down.

        self.stats.windows_polled += 1;
        let mut retries: u32 = 0;
        // A quarantined probe on trial gets exactly one attempt; healthy
        // and degraded probes get the configured retry budget.
        let attempts = if self.health == ProbeHealth::Quarantined {
            1
        } else {
            self.config.max_retries + 1
        };
        let mut last_error = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                retries += 1;
                self.stats.retries += 1;
                self.sleep_backoff(attempt - 1);
            }
            match self.probe.poll(from_ms, to_ms) {
                Ok(records) => {
                    self.stats.records_delivered += records.len() as u64;
                    self.note_success();
                    return PollOutcome::Delivered { records, retries };
                }
                Err(e @ ProbeError::Transient(_)) => {
                    last_error = Some(e);
                }
                Err(e @ ProbeError::Fatal(_)) => {
                    // Retrying a fatal error is pointless; retire now.
                    self.note_fatal();
                    self.stats.windows_failed += 1;
                    return PollOutcome::Failed { error: e, retries };
                }
            }
        }
        let error = last_error.unwrap_or_else(|| {
            // Unreachable: attempts >= 1 and every iteration either
            // returns or records an error. Kept non-panicking anyway.
            ProbeError::Transient("no attempt recorded".to_string())
        });
        self.note_failure();
        self.stats.windows_failed += 1;
        PollOutcome::Failed { error, retries }
    }

    fn sleep_backoff(&self, exponent: u32) {
        if self.config.backoff_base.is_zero() {
            return;
        }
        let backoff = self
            .config
            .backoff_base
            .saturating_mul(1u32 << exponent.min(16))
            .min(self.config.backoff_cap);
        std::thread::sleep(backoff);
    }

    fn note_success(&mut self) {
        self.consecutive_failures = 0;
        self.clean_streak += 1;
        self.health = match self.health {
            ProbeHealth::Open => ProbeHealth::Open,
            // A quarantined probe that passes its trial is not trusted
            // straight away: it re-enters service as Degraded.
            ProbeHealth::Quarantined | ProbeHealth::Degraded => {
                if self.clean_streak >= self.config.recovery_streak {
                    ProbeHealth::Open
                } else {
                    ProbeHealth::Degraded
                }
            }
        };
    }

    fn note_failure(&mut self) {
        self.clean_streak = 0;
        self.consecutive_failures += 1;
        if self.health == ProbeHealth::Quarantined
            || self.consecutive_failures >= self.config.error_budget
        {
            self.health = ProbeHealth::Quarantined;
            self.cooldown_remaining = self.config.quarantine_windows;
        } else {
            self.health = ProbeHealth::Degraded;
        }
    }

    fn note_fatal(&mut self) {
        self.clean_streak = 0;
        self.consecutive_failures += 1;
        self.health = ProbeHealth::Quarantined;
        self.dead = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow::{FlowRecord, HostAddr};

    /// A probe driven by a script of per-poll outcomes.
    struct ScriptedProbe {
        script: Vec<Result<usize, ProbeError>>,
        cursor: usize,
    }

    impl ScriptedProbe {
        fn new(script: Vec<Result<usize, ProbeError>>) -> Self {
            ScriptedProbe { script, cursor: 0 }
        }
    }

    impl Probe for ScriptedProbe {
        fn name(&self) -> &str {
            "scripted"
        }

        fn poll(&mut self, _: u64, _: u64) -> Result<Vec<FlowRecord>, ProbeError> {
            let step = self.script.get(self.cursor).cloned().unwrap_or(Ok(0));
            self.cursor += 1;
            step.map(|n| vec![FlowRecord::pair(HostAddr::v4(1), HostAddr::v4(2)); n])
        }

        fn horizon_ms(&self) -> Option<u64> {
            None
        }
    }

    fn supervise(script: Vec<Result<usize, ProbeError>>) -> ProbeSupervisor {
        ProbeSupervisor::new(
            Box::new(ScriptedProbe::new(script)),
            SupervisorConfig::immediate(),
        )
    }

    fn transient() -> Result<usize, ProbeError> {
        Err(ProbeError::Transient("timeout".into()))
    }

    #[test]
    fn healthy_probe_stays_open() {
        let mut s = supervise(vec![Ok(3), Ok(2)]);
        match s.poll_window(0, 100) {
            PollOutcome::Delivered { records, retries } => {
                assert_eq!(records.len(), 3);
                assert_eq!(retries, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.health(), ProbeHealth::Open);
        assert_eq!(s.stats().records_delivered, 3);
    }

    #[test]
    fn transient_failure_is_retried_within_window() {
        // Fails twice, succeeds on the third attempt — all one window.
        let mut s = supervise(vec![transient(), transient(), Ok(5)]);
        match s.poll_window(0, 100) {
            PollOutcome::Delivered { records, retries } => {
                assert_eq!(records.len(), 5);
                assert_eq!(retries, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.health(), ProbeHealth::Open);
        assert_eq!(s.stats().retries, 2);
    }

    #[test]
    fn exhausted_retries_degrade_then_budget_quarantines() {
        // Every poll fails; default budget is 3 failed windows.
        let mut s = supervise(vec![transient(); 64]);
        assert!(matches!(s.poll_window(0, 100), PollOutcome::Failed { .. }));
        assert_eq!(s.health(), ProbeHealth::Degraded);
        assert!(matches!(
            s.poll_window(100, 200),
            PollOutcome::Failed { .. }
        ));
        assert_eq!(s.health(), ProbeHealth::Degraded);
        assert!(matches!(
            s.poll_window(200, 300),
            PollOutcome::Failed { .. }
        ));
        assert_eq!(s.health(), ProbeHealth::Quarantined);
        // Quarantined: sits out the cool-down windows without polling.
        assert_eq!(s.poll_window(300, 400), PollOutcome::Skipped);
        assert_eq!(s.poll_window(400, 500), PollOutcome::Skipped);
        assert_eq!(s.stats().windows_skipped, 2);
        // Trial poll happens (and fails) after the cool-down.
        assert!(matches!(
            s.poll_window(500, 600),
            PollOutcome::Failed { .. }
        ));
        assert_eq!(s.health(), ProbeHealth::Quarantined);
    }

    #[test]
    fn quarantine_recovers_through_degraded() {
        // max_retries: 0 so each scripted entry is one whole window.
        let cfg = SupervisorConfig {
            max_retries: 0,
            ..SupervisorConfig::immediate()
        };
        let script = vec![
            transient(),
            transient(),
            transient(), // three failed windows -> quarantine
            Ok(1),       // trial success -> degraded
            Ok(1),       // clean streak -> open
        ];
        let mut s = ProbeSupervisor::new(Box::new(ScriptedProbe::new(script)), cfg);
        for w in 0..3u64 {
            let _ = s.poll_window(w * 100, (w + 1) * 100);
        }
        assert_eq!(s.health(), ProbeHealth::Quarantined);
        assert_eq!(s.poll_window(300, 400), PollOutcome::Skipped);
        assert_eq!(s.poll_window(400, 500), PollOutcome::Skipped);
        // Trial succeeds -> Degraded, not yet Open.
        assert!(matches!(
            s.poll_window(500, 600),
            PollOutcome::Delivered { .. }
        ));
        assert_eq!(s.health(), ProbeHealth::Degraded);
        // One more clean window completes the recovery streak.
        assert!(matches!(
            s.poll_window(600, 700),
            PollOutcome::Delivered { .. }
        ));
        assert_eq!(s.health(), ProbeHealth::Open);
    }

    #[test]
    fn fatal_error_retires_the_probe() {
        let mut s = supervise(vec![Err(ProbeError::Fatal("device gone".into())), Ok(9)]);
        assert!(matches!(s.poll_window(0, 100), PollOutcome::Failed { .. }));
        assert_eq!(s.health(), ProbeHealth::Quarantined);
        assert!(!s.pending_from(0));
        // Never polled again, no matter how many windows pass.
        for w in 1..10u64 {
            assert_eq!(s.poll_window(w * 100, (w + 1) * 100), PollOutcome::Skipped);
        }
        assert_eq!(s.stats().windows_polled, 1);
    }

    #[test]
    fn success_refills_the_error_budget() {
        let cfg = SupervisorConfig {
            max_retries: 0,
            ..SupervisorConfig::immediate()
        };
        let script = vec![transient(), transient(), Ok(1), transient(), transient()];
        let mut s = ProbeSupervisor::new(Box::new(ScriptedProbe::new(script)), cfg);
        let _ = s.poll_window(0, 100);
        let _ = s.poll_window(100, 200);
        assert_eq!(s.health(), ProbeHealth::Degraded);
        // Success resets consecutive failures...
        let _ = s.poll_window(200, 300);
        // ...so two more failures only reach Degraded, not Quarantined.
        let _ = s.poll_window(300, 400);
        let _ = s.poll_window(400, 500);
        assert_eq!(s.health(), ProbeHealth::Degraded);
    }
}
