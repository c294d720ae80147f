//! Metric values, summary statistics and the machine-readable result line.

use std::time::Duration;

/// One named measurement. `None` marks a value with no base to measure it
/// against (a ratio over zero attempts), printed as `null`.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, or `None` when undefined on this run.
    pub value: Option<f64>,
    /// Unit label.
    pub unit: &'static str,
}

/// A metric with a defined value.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: Some(value),
        unit,
    }
}

/// A metric that may be undefined.
pub fn maybe(name: &'static str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `num / den`, or `None` when the base is zero — an empty ratio is not 1.0.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values` (`None` when empty).
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Looks a metric up by name.
pub fn find<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a Metric> {
    metrics.iter().find(|m| m.name == name)
}

fn json_number(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

/// A human-readable `kind name value unit` line.
pub fn text_line(kind: &str, m: &Metric) -> String {
    format!("{kind} {} {} {}", m.name, json_number(m.value), m.unit)
}

/// The result object the benchmark prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The process's peak resident set (`VmHWM`) in MiB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Jiffies the hypervisor stole from this machine's CPUs, and all
/// jiffies, since boot (from `/proc/stat`; `None` where unreadable).
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn empty_ratios_are_null() {
        assert_eq!(ratio(1.0, 0.0), None);
        assert_eq!(ratio(1.0, 4.0), Some(0.25));
        let line = result_line(true, 2, 0, &[maybe("x", None, "ratio")]);
        assert!(line.contains("\"x\": {\"value\": null"), "{line}");
    }
}
