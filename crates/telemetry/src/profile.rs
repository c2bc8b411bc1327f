//! Aggregated span profiles: self-time rollups, allocation columns, and
//! collapsed-stack export for flamegraph tooling.
//!
//! [`SpanNode`] trees record *inclusive* wall time per span. This
//! module folds a forest of them into a [`ProfileTable`] — one row per
//! span name with call count, total/self wall time, min/max, and
//! self-attributed allocation tallies — and renders the same forest as
//! collapsed-stack lines (`roleclass;engine.correlate;correlate.step1
//! 12345`), the interchange format of Brendan Gregg's flamegraph tools
//! (`flamegraph.pl`, `inferno-flamegraph`, speedscope).
//!
//! Self time is inclusive time minus the inclusive time of direct
//! children, clamped at zero; allocation self-attribution follows the
//! same rule. The collapsed value is **self time in microseconds**, so
//! summing every line reproduces the forest's total inclusive time.

use crate::span::SpanNode;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Derived profile series the aggregator emits into the timeseries ring
/// (and mirrors as gauges) every attached cycle, in export (sorted)
/// order. Work-normalized unit costs join stage wall times against the
/// work counters the stages already maintain; the `cycle_alloc_*` pair
/// is the cycle's allocation delta on the orchestration thread. The
/// workspace metric-name lint checks uniqueness and prefixing against
/// this list.
pub const PROFILE_METRIC_NAMES: &[&str] = &[
    "roleclass_profile_correlate_ns_per_candidate",
    "roleclass_profile_correlate_ns_per_eval",
    "roleclass_profile_cycle_alloc_bytes",
    "roleclass_profile_cycle_allocs",
    "roleclass_profile_kernel_ns_per_pair",
    "roleclass_profile_merge_ns_per_pop",
];

/// One aggregated row of a [`ProfileTable`]: every span with this name,
/// folded together.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Span name (`engine.correlate`, `merge.score`, ...).
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Summed inclusive wall time.
    pub total: Duration,
    /// Summed exclusive wall time (inclusive minus direct children).
    pub self_time: Duration,
    /// Fastest single call (inclusive).
    pub min: Duration,
    /// Slowest single call (inclusive).
    pub max: Duration,
    /// Self-attributed bytes allocated (zero without a counting
    /// allocator installed in the binary).
    pub alloc_bytes: u64,
    /// Self-attributed allocation count.
    pub allocs: u64,
}

/// An aggregated profile over a span forest, sorted by self time
/// descending (the flamegraph question: *where does time actually
/// go?*), ties broken by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileTable {
    /// The rows, sorted by descending self time then name.
    pub entries: Vec<ProfileEntry>,
}

impl ProfileTable {
    /// Folds a span forest into one row per span name.
    pub fn from_spans(roots: &[SpanNode]) -> Self {
        let mut rows: BTreeMap<String, ProfileEntry> = BTreeMap::new();
        for root in roots {
            root.visit(&mut |n| {
                let e = rows.entry(n.name.clone()).or_insert_with(|| ProfileEntry {
                    name: n.name.clone(),
                    count: 0,
                    total: Duration::ZERO,
                    self_time: Duration::ZERO,
                    min: Duration::MAX,
                    max: Duration::ZERO,
                    alloc_bytes: 0,
                    allocs: 0,
                });
                e.count += 1;
                e.total += n.duration;
                e.self_time += n.self_duration();
                e.min = e.min.min(n.duration);
                e.max = e.max.max(n.duration);
                e.alloc_bytes += n.self_alloc_bytes();
                e.allocs += n.self_allocs();
            });
        }
        let mut entries: Vec<ProfileEntry> = rows.into_values().collect();
        entries.sort_by(|a, b| {
            b.self_time
                .cmp(&a.self_time)
                .then_with(|| a.name.cmp(&b.name))
        });
        ProfileTable { entries }
    }

    /// The row for `name`, if any span carried it.
    pub fn get(&self, name: &str) -> Option<&ProfileEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Renders the profile as an aligned text table:
    ///
    /// ```text
    /// stage             calls   total ms    self ms     min ms     max ms  alloc bytes   allocs
    /// engine.correlate      3    120.001     20.110     30.000     50.000      1048576      312
    /// ```
    pub fn render(&self) -> String {
        let name_w = self
            .entries
            .iter()
            .map(|e| e.name.chars().count())
            .chain(["stage".len()])
            .max()
            .unwrap_or(5);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_w$} {:>6} {:>11} {:>11} {:>10} {:>10} {:>12} {:>8}",
            "stage", "calls", "total ms", "self ms", "min ms", "max ms", "alloc bytes", "allocs"
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{:<name_w$} {:>6} {:>11.3} {:>11.3} {:>10.3} {:>10.3} {:>12} {:>8}",
                e.name,
                e.count,
                e.total.as_secs_f64() * 1e3,
                e.self_time.as_secs_f64() * 1e3,
                e.min.as_secs_f64() * 1e3,
                e.max.as_secs_f64() * 1e3,
                e.alloc_bytes,
                e.allocs,
            );
        }
        out
    }

    /// Renders the profile as a JSON array, one object per row.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            crate::events::escape_json_into(&mut out, &e.name);
            let _ = write!(
                out,
                "\",\"count\":{},\"total_secs\":{},\"self_secs\":{},\"min_secs\":{},\
\"max_secs\":{},\"alloc_bytes\":{},\"allocs\":{}}}",
                e.count,
                crate::registry::fmt_f64(e.total.as_secs_f64()),
                crate::registry::fmt_f64(e.self_time.as_secs_f64()),
                crate::registry::fmt_f64(e.min.as_secs_f64()),
                crate::registry::fmt_f64(e.max.as_secs_f64()),
                e.alloc_bytes,
                e.allocs,
            );
        }
        out.push(']');
        out
    }
}

/// Escapes one stack frame for the collapsed format. `;` (the frame
/// separator), space (the value separator), and `\` (the escape lead-in)
/// are backslash-escaped; control characters — which would break the
/// line-oriented format — become `\u{XXXX}`. Everything else, including
/// non-ASCII unicode, passes through verbatim (the format is plain
/// UTF-8 text).
fn escape_frame_into(out: &mut String, frame: &str) {
    for c in frame.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ';' => out.push_str("\\;"),
            ' ' => out.push_str("\\ "),
            c if c.is_control() => {
                let _ = write!(out, "\\u{{{:x}}}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders a span forest as collapsed-stack lines, one per distinct
/// root-to-span path, with **self time in microseconds** as the value:
///
/// ```text
/// roleclass;engine.run_window;engine.correlate;correlate.step1 12345
/// ```
///
/// `root_frame` (conventionally `"roleclass"`) prefixes every stack so
/// multiple trees share one flamegraph base. Identical paths from
/// repeated spans are summed. Every span produces a line (zero values
/// included, which flamegraph tools accept), so the output is a
/// lossless self-time account of the forest. Frames backslash-escape
/// `;`, space, and `\`, write control characters as `\u{XXXX}`, and
/// parse back with [`parse_collapsed_line`].
pub fn collapsed_stacks(roots: &[SpanNode], root_frame: &str) -> String {
    fn walk(n: &SpanNode, path: &mut Vec<String>, agg: &mut BTreeMap<Vec<String>, u64>) {
        path.push(n.name.clone());
        let micros = n.self_duration().as_micros().min(u64::MAX as u128) as u64;
        let slot = agg.entry(path.clone()).or_insert(0);
        *slot = slot.saturating_add(micros);
        for c in &n.children {
            walk(c, path, agg);
        }
        path.pop();
    }
    let mut agg: BTreeMap<Vec<String>, u64> = BTreeMap::new();
    for root in roots {
        walk(root, &mut vec![root_frame.to_string()], &mut agg);
    }
    let mut out = String::new();
    for (path, micros) in &agg {
        for (i, frame) in path.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            escape_frame_into(&mut out, frame);
        }
        let _ = writeln!(out, " {micros}");
    }
    out
}

/// Parses one collapsed-stack line back into `(frames, value)`,
/// reversing [`collapsed_stacks`]' escaping. Returns `None` on a
/// malformed line (no value, non-numeric value, dangling escape, bad
/// `\u{...}`): the strictness is what the round-trip property tests
/// lean on.
pub fn parse_collapsed_line(line: &str) -> Option<(Vec<String>, u64)> {
    // The value separator is the last *unescaped* space. Scan once,
    // tracking escape state, so frame-embedded `\ ` never splits.
    let chars: Vec<char> = line.chars().collect();
    let mut split = None;
    let mut escaped = false;
    for (i, &c) in chars.iter().enumerate() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == ' ' {
            split = Some(i);
        }
    }
    if escaped {
        return None; // dangling escape at end of line
    }
    let split = split?;
    let value: u64 = chars[split + 1..].iter().collect::<String>().parse().ok()?;

    let mut frames = Vec::new();
    let mut cur = String::new();
    let mut it = chars[..split].iter().copied().peekable();
    while let Some(c) = it.next() {
        match c {
            '\\' => match it.next()? {
                '\\' => cur.push('\\'),
                ';' => cur.push(';'),
                ' ' => cur.push(' '),
                'u' => {
                    if it.next()? != '{' {
                        return None;
                    }
                    let mut hex = String::new();
                    loop {
                        match it.next()? {
                            '}' => break,
                            h => hex.push(h),
                        }
                    }
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    cur.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            ';' => frames.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    frames.push(cur);
    Some((frames, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::tests::node;

    fn forest() -> Vec<SpanNode> {
        vec![node(
            "engine.run_window",
            100,
            vec![
                node("engine.classify", 60, vec![node("engine.form", 40, vec![])]),
                node("engine.correlate", 30, vec![]),
            ],
        )]
    }

    #[test]
    fn table_rolls_up_self_time() {
        let t = ProfileTable::from_spans(&forest());
        let run = t.get("engine.run_window").unwrap();
        assert_eq!(run.count, 1);
        assert_eq!(run.total, Duration::from_millis(100));
        assert_eq!(run.self_time, Duration::from_millis(10)); // 100 - 60 - 30
        let classify = t.get("engine.classify").unwrap();
        assert_eq!(classify.self_time, Duration::from_millis(20)); // 60 - 40
                                                                   // Leaves: self == total.
        assert_eq!(
            t.get("engine.form").unwrap().self_time,
            Duration::from_millis(40)
        );
        // Self times sum to the forest's inclusive total.
        let sum: Duration = t.entries.iter().map(|e| e.self_time).sum();
        assert_eq!(sum, Duration::from_millis(100));
    }

    #[test]
    fn table_aggregates_repeated_names() {
        let roots = vec![node("w", 10, vec![]), node("w", 30, vec![])];
        let t = ProfileTable::from_spans(&roots);
        let w = t.get("w").unwrap();
        assert_eq!(w.count, 2);
        assert_eq!(w.total, Duration::from_millis(40));
        assert_eq!(w.min, Duration::from_millis(10));
        assert_eq!(w.max, Duration::from_millis(30));
    }

    #[test]
    fn table_sorted_by_self_time_desc() {
        let t = ProfileTable::from_spans(&forest());
        let selfs: Vec<Duration> = t.entries.iter().map(|e| e.self_time).collect();
        let mut sorted = selfs.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(selfs, sorted);
    }

    #[test]
    fn render_has_alloc_columns() {
        let text = ProfileTable::from_spans(&forest()).render();
        let header = text.lines().next().unwrap();
        assert!(header.contains("self ms"));
        assert!(header.contains("alloc bytes"));
        assert!(header.contains("allocs"));
        assert_eq!(text.lines().count(), 1 + 4);
    }

    #[test]
    fn json_rows_carry_all_fields() {
        let json = ProfileTable::from_spans(&forest()).to_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"name\":\"engine.form\""));
        assert!(json.contains("\"self_secs\":0.04"));
        assert!(json.contains("\"alloc_bytes\":0"));
    }

    #[test]
    fn collapsed_lines_use_self_micros_and_full_paths() {
        let text = collapsed_stacks(&forest(), "roleclass");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.contains(&"roleclass;engine.run_window;engine.classify;engine.form 40000"));
        assert!(lines.contains(&"roleclass;engine.run_window;engine.correlate 30000"));
        assert!(lines.contains(&"roleclass;engine.run_window 10000"));
        // Values sum to the forest's inclusive total, in micros.
        let sum: u64 = lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(sum, 100_000);
    }

    #[test]
    fn collapsed_aggregates_identical_paths() {
        let roots = vec![
            node("w", 10, vec![node("x", 4, vec![])]),
            node("w", 20, vec![node("x", 6, vec![])]),
        ];
        let text = collapsed_stacks(&roots, "r");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.contains(&"r;w 20000"));
        assert!(lines.contains(&"r;w;x 10000"));
    }

    #[test]
    fn escaping_round_trips_hostile_names() {
        let hostile = [
            "a;b",
            "with space",
            "back\\slash",
            "tab\there",
            "new\nline",
            "unicode-😀-é",
            "",
            "; \\ mix;; ",
        ];
        let roots: Vec<SpanNode> = hostile.iter().map(|n| node(n, 1, vec![])).collect();
        let text = collapsed_stacks(&roots, "root");
        for line in text.lines() {
            let (frames, value) = parse_collapsed_line(line).expect(line);
            assert_eq!(frames[0], "root");
            assert_eq!(frames.len(), 2);
            assert!(hostile.contains(&frames[1].as_str()), "{:?}", frames[1]);
            assert_eq!(value, 1000);
        }
        assert_eq!(text.lines().count(), hostile.len());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert_eq!(parse_collapsed_line("no-value"), None);
        assert_eq!(parse_collapsed_line("a;b notanumber"), None);
        assert_eq!(parse_collapsed_line("dangling\\ 5"), None); // escaped space eats the separator
        assert_eq!(parse_collapsed_line("bad\\u{zz} 5"), None);
        assert_eq!(parse_collapsed_line("trail\\"), None);
        assert!(parse_collapsed_line("a;b 5").is_some());
    }
}
