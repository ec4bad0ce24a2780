//! Result plumbing shared by the workloads: metric lists, the
//! correctness tally, share tables, order statistics and the final JSON
//! line.

use std::fmt::Write as _;

/// Runs `setup` `n` times (at least once); returns each wall time and
/// the last result. Earlier results are dropped outside the timing.
pub fn repeat_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (times, last.expect("at least one setup"))
}

/// Wall seconds of one `setup`; its result is dropped after the clock
/// stops.
pub fn time_setup<T>(setup: impl FnOnce() -> T) -> f64 {
    let t = std::time::Instant::now();
    let built = setup();
    let s = t.elapsed().as_secs_f64();
    drop(built);
    s
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// An ordered metric list.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Correctness tally: operations attempted and operations whose output
/// failed a check, with a note per failed check.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records `n` operations of which `bad` failed; `what` describes the
    /// check and is kept only when something failed.
    pub fn record(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.notes.push(what());
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// A split of one workload's wall time into named rows. The last row is
/// always the remainder, so the rows sum to the total by construction;
/// what matters is that no measured row is negative and the remainder is
/// small.
#[derive(Debug, Clone)]
pub struct ShareTable {
    /// Table heading.
    pub title: String,
    /// The wall time being split, in seconds.
    pub total_s: f64,
    /// `(row, seconds)`, remainder last.
    pub rows: Vec<(String, f64)>,
}

impl ShareTable {
    /// Builds a table from measured rows; appends `remainder` as total
    /// minus the measured rows.
    pub fn new(title: &str, total_s: f64, measured: Vec<(String, f64)>, remainder: &str) -> Self {
        let used: f64 = measured.iter().map(|(_, s)| s).sum();
        let mut rows = measured;
        rows.push((remainder.to_string(), total_s - used));
        ShareTable {
            title: title.to_string(),
            total_s,
            rows,
        }
    }

    /// Sum of every row, remainder included.
    pub fn sum_s(&self) -> f64 {
        self.rows.iter().map(|(_, s)| s).sum()
    }

    /// Renders the table with per-row shares of the total.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} (wall {:.3} s)", self.title, self.total_s);
        for (name, s) in &self.rows {
            let _ = writeln!(
                out,
                "  {name:<32} {s:>10.4} s  {:>6.2}%",
                100.0 * s / self.total_s.max(1e-12)
            );
        }
        let _ = writeln!(out, "  {:<32} {:>10.4} s", "sum", self.sum_s());
        out
    }
}

/// Sorts `v` and returns the `p`-th percentile (linear interpolation
/// between ranks); 0 for an empty slice.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    simnet::stats::percentile_sorted(v, p)
}

/// The median of `v`; 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    percentile(&mut v.to_vec(), 50.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set size in MiB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn json_line(tally: &Tally, metrics: &Metrics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_table_rows_sum_to_total() {
        let t = ShareTable::new(
            "t",
            2.0,
            vec![("a".into(), 0.5), ("b".into(), 1.25)],
            "rest",
        );
        assert_eq!(t.rows.last().unwrap(), &("rest".to_string(), 0.25));
        assert!((t.sum_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_line_shape() {
        let mut m = Metrics::default();
        m.push("a_ms", 1.5, "ms");
        m.push("b", 2.0, "count");
        let mut t = Tally::default();
        t.record(3, 0, String::new);
        assert_eq!(
            json_line(&t, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn percentiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 100.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
