//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms, exported as Prometheus text or a JSON snapshot.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-backed
//! atomics: fetch them once (the only locking point) and update from hot
//! paths lock-free. Registering the same name twice returns the same
//! underlying metric, so independent layers can share a registry without
//! coordination — but a name registered as one kind and requested as
//! another is a programming error and panics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64` metric.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed instantaneous value.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the finite buckets, strictly increasing; an
    /// implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries,
    /// non-cumulative; export cumulates).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values as `f64` bits, updated by CAS.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram of `f64` observations (durations in
/// seconds, sizes, ...). Buckets are chosen at first registration;
/// see [`crate::DURATION_BUCKETS`] and [`crate::SIZE_BUCKETS`].
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let i = self.0.bounds.partition_point(|&b| v > b);
        self.0.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// `(upper_bound, cumulative_count)` per bucket, ending with the
    /// `+Inf` bucket reported as `f64::INFINITY`.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.0.buckets.len());
        for (i, b) in self.0.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            let le = self.0.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((le, acc));
        }
        out
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A global-free, thread-safe collection of named metrics.
///
/// `BTreeMap`-backed, so every export walks names in sorted order —
/// byte-stable output run over run (pinned by the golden test).
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    help: Mutex<BTreeMap<String, String>>,
}

/// Returns `true` for names matching the workspace convention
/// `[a-z][a-z0-9_]*` (a strict subset of the Prometheus charset).
pub(crate) fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_lowercase())
        && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> Metric,
        unwrap: impl FnOnce(&Metric) -> Option<T>,
    ) -> T {
        assert!(
            valid_name(name),
            "invalid metric name {name:?}: expected [a-z][a-z0-9_]*"
        );
        let mut metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let m = metrics.entry(name.to_string()).or_insert_with(make);
        unwrap(m).unwrap_or_else(|| panic!("metric {name:?} already registered as a {}", m.kind()))
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or if `name` is already a gauge or
    /// histogram.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_insert(
            name,
            || Metric::Counter(Counter::default()),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or kind mismatch.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or_insert(
            name,
            || Metric::Gauge(Gauge::default()),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// The histogram named `name`, registering it with `bounds` on first
    /// use (later calls reuse the first registration's buckets).
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or kind mismatch.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.get_or_insert(
            name,
            || Metric::Histogram(Histogram::new(bounds)),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Attaches Prometheus `# HELP` text to `name`. Optional: metrics
    /// without help text export exactly as before (no `# HELP` line), so
    /// existing byte-pinned output is unaffected until a caller opts in.
    pub fn set_help(&self, name: &str, help: &str) {
        assert!(
            valid_name(name),
            "invalid metric name {name:?}: expected [a-z][a-z0-9_]*"
        );
        self.help
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), help.to_string());
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    fn snapshot(&self) -> BTreeMap<String, Metric> {
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Prometheus text exposition of every metric, in sorted name order:
    /// a `# TYPE` line per metric, `_bucket`/`_sum`/`_count` series for
    /// histograms.
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let help = self.help.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut out = String::new();
        for (name, metric) in self.snapshot() {
            if let Some(h) = help.get(&name) {
                let _ = writeln!(out, "# HELP {name} {}", escape_help_text(h));
            }
            let _ = writeln!(out, "# TYPE {name} {}", metric.kind());
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    for (le, cum) in h.cumulative_buckets() {
                        let le = if le.is_infinite() {
                            "+Inf".to_string()
                        } else {
                            format!("{le}")
                        };
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{le=\"{}\"}} {cum}",
                            escape_label_value(&le)
                        );
                    }
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }

    /// JSON snapshot of every metric, grouped by kind, names sorted:
    ///
    /// ```json
    /// {"counters":{...},"gauges":{...},
    ///  "histograms":{"n":{"count":2,"sum":0.5,
    ///                     "buckets":[{"le":0.1,"count":1},
    ///                                {"le":"+Inf","count":2}]}}}
    /// ```
    ///
    /// Hand-rolled (this crate has no serde): names are charset-checked
    /// at registration, so no escaping is needed.
    pub fn json_snapshot(&self) -> String {
        use std::fmt::Write as _;
        let snap = self.snapshot();
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut hists = String::new();
        for (name, metric) in &snap {
            match metric {
                Metric::Counter(c) => {
                    let _ = write!(
                        counters,
                        "{}\"{name}\":{}",
                        if counters.is_empty() { "" } else { "," },
                        c.get()
                    );
                }
                Metric::Gauge(g) => {
                    let _ = write!(
                        gauges,
                        "{}\"{name}\":{}",
                        if gauges.is_empty() { "" } else { "," },
                        g.get()
                    );
                }
                Metric::Histogram(h) => {
                    let mut buckets = String::new();
                    for (le, cum) in h.cumulative_buckets() {
                        let le = if le.is_infinite() {
                            "\"+Inf\"".to_string()
                        } else {
                            fmt_f64(le)
                        };
                        let _ = write!(
                            buckets,
                            "{}{{\"le\":{le},\"count\":{cum}}}",
                            if buckets.is_empty() { "" } else { "," },
                        );
                    }
                    let _ = write!(
                        hists,
                        "{}\"{name}\":{{\"count\":{},\"sum\":{},\"buckets\":[{buckets}]}}",
                        if hists.is_empty() { "" } else { "," },
                        h.count(),
                        fmt_f64(h.sum()),
                    );
                }
            }
        }
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{hists}}}}}"
        )
    }
}

/// Escapes metric help text per the Prometheus exposition format:
/// backslash and line feed only (`\\` and `\n`).
fn escape_help_text(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value per the Prometheus exposition format:
/// backslash, double quote, and line feed. Our only label today is `le`
/// (numeric, never escaped in practice), but the export goes through
/// this unconditionally so new labels can't silently ship unescaped.
fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats an `f64` so the output is valid JSON and stable: plain `{}`
/// display, with a `.0` appended to integral values so they stay floats
/// on the way back in.
pub(crate) fn fmt_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("test_counter_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registering returns the same underlying metric.
        assert_eq!(reg.counter("test_counter_total").get(), 5);
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = Registry::new();
        let g = reg.gauge("test_gauge");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_cumulate() {
        let reg = Registry::new();
        let h = reg.histogram("test_hist", &[1.0, 10.0]);
        for v in [0.5, 1.0, 2.0, 20.0] {
            h.observe(v);
        }
        // le="1" catches 0.5 and the boundary value 1.0.
        assert_eq!(
            h.cumulative_buckets(),
            vec![(1.0, 2), (10.0, 3), (f64::INFINITY, 4)]
        );
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 23.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        Registry::new().counter("Bad-Name");
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("name_taken");
        reg.gauge("name_taken");
    }

    #[test]
    fn name_charset() {
        assert!(valid_name("roleclass_kernel_builds_total"));
        assert!(valid_name("a1_b2"));
        assert!(!valid_name(""));
        assert!(!valid_name("1abc"));
        assert!(!valid_name("_abc"));
        assert!(!valid_name("camelCase"));
        assert!(!valid_name("with-dash"));
        assert!(!valid_name("with space"));
    }

    #[test]
    fn json_is_stable_and_sorted() {
        let reg = Registry::new();
        reg.counter("b_total").inc();
        reg.counter("a_total");
        reg.gauge("z_gauge").set(-2);
        let json = reg.json_snapshot();
        assert!(json.find("\"a_total\"").unwrap() < json.find("\"b_total\"").unwrap());
        assert!(json.contains("\"z_gauge\":-2"));
        assert_eq!(json, reg.json_snapshot());
    }

    #[test]
    fn help_lines_appear_only_when_set() {
        let reg = Registry::new();
        reg.counter("with_help_total").inc();
        reg.counter("without_help_total");
        reg.set_help("with_help_total", "counts things\nacross \\ lines");
        let text = reg.prometheus_text();
        assert!(text.contains("# HELP with_help_total counts things\\nacross \\\\ lines\n"));
        assert!(!text.contains("# HELP without_help_total"));
        // HELP precedes TYPE for the annotated metric.
        assert!(
            text.find("# HELP with_help_total").unwrap()
                < text.find("# TYPE with_help_total").unwrap()
        );
    }

    #[test]
    fn label_value_escaping() {
        assert_eq!(escape_label_value("+Inf"), "+Inf");
        assert_eq!(escape_label_value("0.5"), "0.5");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_help_text("a\\b\nc"), "a\\\\b\\nc");
    }

    #[test]
    fn fmt_f64_keeps_floats_floaty() {
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(0.0), "0.0");
        assert_eq!(fmt_f64(1e-7), "0.0000001");
    }
}
