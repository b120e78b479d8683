//! Summary statistics, the peak-RSS reader and the one-line JSON result.

use std::fmt::Write as _;

/// The median of `values` (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The `p`-quantile of `values` (`0 ≤ p ≤ 1`) by linear interpolation
/// between the closest ranks.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest of the percentiles 50, 90, 95, 99 and 99.9 that still has
/// at least ten of `n` samples beyond it, or `None` when even the median
/// has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Percentiles in tenths, so the test is exact integer arithmetic.
    [999, 990, 950, 900, 500]
        .into_iter()
        .find(|&p| n * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Consecutive blocks of `block` items; a trailing partial block is kept
/// only when there is no full one.
pub fn blocks<T>(items: &[T], block: usize) -> Vec<&[T]> {
    let mut out: Vec<&[T]> = items.chunks(block.max(1)).collect();
    if out.len() > 1 && out.last().is_some_and(|b| b.len() < block) {
        out.pop();
    }
    out
}

/// The median over [`blocks`] of `(work, seconds)` samples of each block's
/// `Σ work / Σ seconds`: a rate that one disturbed block cannot move.
pub fn block_rate_median(samples: &[(f64, f64)], block: usize) -> f64 {
    let rates: Vec<f64> = blocks(samples, block)
        .iter()
        .map(|b| b.iter().map(|s| s.0).sum::<f64>() / b.iter().map(|s| s.1).sum::<f64>())
        .collect();
    median(&rates)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Metrics in the order they were recorded, each with its unit.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    /// Record `name = value unit`; a name recorded twice keeps the last value.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        let entry = (name.to_string(), value, unit.to_string());
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = entry,
            None => self.0.push(entry),
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Every recorded metric, in recording order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
    }
}

/// The benchmark's result: the last line of its standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// One JSON object with the keys `correct`, `attempted`, `failed` and
    /// `metrics`; every value keeps all its digits (Rust's shortest
    /// round-trip form).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Parse a line written by [`Outcome::to_json`] back (the self-test of the
/// output format; not a general JSON parser).
#[cfg(test)]
pub fn parse_outcome(line: &str) -> Result<Outcome, String> {
    let field = |key: &str| -> Result<&str, String> {
        let start = line
            .find(&format!("\"{key}\": "))
            .ok_or_else(|| format!("missing key {key}"))?
            + key.len()
            + 4;
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Ok(rest[..end].trim())
    };
    let correct = match field("correct")? {
        "true" => true,
        "false" => false,
        other => return Err(format!("correct is not a boolean: {other}")),
    };
    let attempted = field("attempted")?
        .parse()
        .map_err(|e| format!("attempted: {e}"))?;
    let failed = field("failed")?
        .parse()
        .map_err(|e| format!("failed: {e}"))?;
    let body_start = line.find("\"metrics\": {").ok_or("missing metrics")? + 12;
    let body = line[body_start..]
        .strip_suffix("}}")
        .ok_or("unterminated metrics object")?;
    let mut metrics = Metrics::default();
    for entry in body.split("}, ").filter(|e| !e.is_empty()) {
        let (name, rest) = entry
            .split_once(": {\"value\": ")
            .ok_or_else(|| format!("malformed metric {entry}"))?;
        let (value, unit) = rest
            .split_once(", \"unit\": ")
            .ok_or_else(|| format!("malformed metric {entry}"))?;
        let name = name.trim_matches('"');
        let value: f64 = value.parse().map_err(|e| format!("{name}: {e}"))?;
        let unit = unit.trim_end_matches('}').trim_matches('"');
        metrics.set(name, value, unit);
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn block_rates_ignore_one_disturbed_block() {
        assert_eq!(blocks(&[1, 2, 3, 4, 5], 2), vec![&[1, 2][..], &[3, 4][..]]);
        assert_eq!(blocks(&[1, 2, 3], 5), vec![&[1, 2, 3][..]]);
        // Three blocks at 10 units/s, one stalled block at 1 unit/s.
        let samples = [
            (10.0, 1.0),
            (10.0, 1.0),
            (10.0, 1.0),
            (10.0, 1.0),
            (10.0, 10.0),
            (10.0, 10.0),
            (10.0, 1.0),
            (10.0, 1.0),
        ];
        assert_eq!(block_rate_median(&samples, 2), 10.0);
    }

    #[test]
    fn peak_rss_reader_parses_proc_status() {
        let status = "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        let own = peak_rss_mib().expect("this process has a VmHWM line");
        assert!(own > 0.0);
    }

    #[test]
    fn output_line_round_trips() {
        let mut metrics = Metrics::default();
        metrics.set("train_tokens_per_s", 1234567.891, "tokens/s");
        metrics.set("setup_s", 0.000123, "s");
        metrics.set("sync.shards", 4.0, "count");
        metrics.set("setup_s", 0.5, "s");
        let outcome = Outcome {
            correct: true,
            attempted: 1000,
            failed: 2,
            metrics,
        };
        let line = outcome.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 2"));
        assert_eq!(parse_outcome(&line), Ok(outcome));
        assert!(parse_outcome("{\"correct\": maybe}").is_err());
    }
}
