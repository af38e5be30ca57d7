//! Sample summaries, metric naming and the result line.
//!
//! Percentiles follow one rule everywhere: nearest rank, and a percentile
//! is *reported* only when at least [`MIN_BEYOND`] samples lie strictly
//! beyond it — fewer than that and the figure is one or two outliers
//! wearing a percentile's name.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty. Used for per-run medians of a handful of repeats, where
/// the percentile rule does not apply.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// A latency sample set, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Collect and sort.
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile under the ten-beyond rule.
    pub fn pct(&self, p: f64) -> Option<f64> {
        percentile(&self.sorted, p)
    }

    /// `p50=… p99=… n=…` for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.1}{unit}"));
        format!("p50={} p99={} n={}", show(self.pct(50.0)), show(self.pct(99.0)), self.len())
    }
}

/// True when `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters of letters, digits, `_`, `.`
/// and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True when `unit` is a valid unit: 1 to 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
}

/// The metric set one run reports, in insertion order.
#[derive(Debug, Default)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    /// Record one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// The recorded metrics.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    /// Check the set against the names it must report: every name valid
    /// and used once, every unit valid, every value finite, and the names
    /// exactly `expected`.
    pub fn validate(&self, expected: &[String]) -> Result<(), String> {
        let mut seen = BTreeSet::new();
        for m in &self.metrics {
            if !valid_name(&m.name) {
                return Err(format!("invalid metric name {:?}", m.name));
            }
            if !valid_unit(m.unit) {
                return Err(format!("invalid unit {:?} for {}", m.unit, m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not a finite number", m.name));
            }
            if !seen.insert(m.name.as_str()) {
                return Err(format!("metric {} reported twice", m.name));
            }
        }
        let want: BTreeSet<&str> = expected.iter().map(String::as_str).collect();
        let missing: Vec<_> = want.difference(&seen).collect();
        let extra: Vec<_> = seen.difference(&want).collect();
        if !missing.is_empty() || !extra.is_empty() {
            return Err(format!("metric set mismatch: missing {missing:?}, undeclared {extra:?}"));
        }
        Ok(())
    }

    /// The one-line JSON result object.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite f64 as a JSON number with all its digits.
pub fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Escape a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // 999 samples: rank 990 leaves nine beyond — not reportable.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // The median needs twenty samples.
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = Samples::new([5.0, 1.0, 4.0, 2.0, 3.0].repeat(10));
        assert_eq!(s.pct(50.0), Some(3.0));
        assert_eq!(s.len(), 50);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in ["p50_us", "executor.execute_us.core", "9lives", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "has space", "semi;colon", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["us", "1/s", "%", "count", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "micro seconds", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn validate_catches_mismatch_duplicates_and_bad_values() {
        let expected = vec!["a".to_string(), "b".to_string()];
        let mut set = MetricSet::default();
        set.put("a", 1.0, "us");
        assert!(set.validate(&expected).unwrap_err().contains("missing"));
        set.put("b", 2.0, "us");
        assert!(set.validate(&expected).is_ok());
        set.put("b", 2.0, "us");
        assert!(set.validate(&expected).unwrap_err().contains("twice"));

        let mut nan = MetricSet::default();
        nan.put("a", f64::NAN, "us");
        nan.put("b", 1.0, "us");
        assert!(nan.validate(&expected).is_err());

        let mut undeclared = MetricSet::default();
        for name in ["a", "b", "c"] {
            undeclared.put(name, 1.0, "us");
        }
        assert!(undeclared.validate(&expected).unwrap_err().contains("undeclared"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut set = MetricSet::default();
        set.put("p50_us", 12.5, "us");
        set.put("setup_s", 2.0, "s");
        assert_eq!(
            set.result_line(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"p50_us\": \
             {\"value\": 12.5, \"unit\": \"us\"}, \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
