//! Order statistics and the JSON fragments the result lines are built
//! from.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (1..=100) of `values`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return 0.0;
    }
    s[rank(s.len(), p) - 1]
}

/// The highest whole percentile that leaves at least ten samples above
/// it, or `None` with fewer than eleven samples.
pub fn tail_percentile(samples: usize) -> Option<u32> {
    (1..100)
        .rev()
        .find(|&p| samples >= 11 && samples - rank(samples, p) >= 10)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    ((p as usize * n).div_ceil(100)).max(1)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `"name":{"value":v,"unit":"u"}` with every digit of `v`.
pub fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
        number(value)
    )
}

/// A JSON number; non-finite values (a ratio over zero work) become 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string with the escapes result lines can need.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(30), Some(66));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(61), Some(83));
        for n in 11..500 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(n, p) >= 10);
            assert!(p == 99 || n - rank(n, p + 1) < 10);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&v, 75), 30.0);
        assert_eq!(percentile(&v, 100), 40.0);
    }
}
