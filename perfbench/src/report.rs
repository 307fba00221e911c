//! Result bookkeeping: correctness checks, metric summaries and the output
//! format (a human-readable table, then one JSON object as the last line).

use std::fmt::Write as _;

/// The end-to-end metrics every workload reports with tracing off, in
/// output order (`BENCHMARK.json` lists the same names).
pub const END_TO_END: [&str; 10] = [
    "sim_ips",
    "sim_ips.IQ_64_64",
    "sim_ips.IF_distr",
    "sim_ips.MB_distr",
    "sim_ips.IQ_64_64_adapt",
    "points_per_s",
    "job_rtt_p50_ms",
    "resume_ms",
    "peak_rss_mb",
    "setup_s",
];

/// Failed checks over attempted points, jobs and run-level checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// Items checked.
    pub attempted: u64,
    /// Items that failed a check.
    pub failed: u64,
}

impl Checks {
    /// Records one checked item; prints `what` to stderr when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
        ok
    }
}

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(n=4)` (exclusive method) computes them.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// Summarises `values` (at least one).
#[must_use]
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "summary of an empty sample");
    if n == 1 {
        return Summary {
            q1: v[0],
            median: v[0],
            q3: v[0],
            n,
        };
    }
    let q = |i: usize| {
        let m = (n + 1) as f64 * i as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let frac = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Summary {
        q1: q(1),
        median,
        q3: q(3),
        n,
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Reported value (for sampled metrics, the median; for estimated
    /// ones, the run-wide estimate).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Spread of the underlying samples, when there were several.
    pub summary: Option<Summary>,
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Correctness checks.
    pub checks: Checks,
    /// Metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Deterministic work counts, printed for cross-run comparison.
    pub counts: Vec<(String, u64)>,
    /// How much slower than nominal the host gauge ran, when the timings
    /// were scaled by it.
    pub host_slowdown: Option<f64>,
}

impl Report {
    /// Adds a metric reported as the median of `samples`.
    pub fn sampled(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64]) {
        let s = summarize(samples);
        self.metrics.push(Metric {
            name: name.into(),
            value: s.median,
            unit,
            summary: Some(s),
        });
    }

    /// Adds a metric whose value is estimated from the whole run (not a
    /// median of `samples`); the per-iteration `samples` are summarised
    /// alongside it in the table.
    pub fn estimated(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: &[f64],
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            summary: Some(summarize(samples)),
        });
    }

    /// Adds a single-valued metric.
    pub fn value(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            summary: None,
        });
    }

    /// Adds a deterministic count.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counts.push((name.into(), value));
    }

    /// Prints the table and the counts, then the result JSON as the last
    /// line of standard output.
    pub fn print(&mut self, workload: &str) {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.checks
                    .check(false, || format!("metric {} is not finite", m.name));
            }
        }
        println!("# workload {workload}");
        println!(
            "{:<34} {:>16} {:<6} {:>16} {:>16} {:>16} {:>5}",
            "metric", "value", "unit", "q1", "median", "q3", "n"
        );
        for m in &self.metrics {
            let [q1, med, q3] = m
                .summary
                .map_or([String::new(), String::new(), String::new()], |s| {
                    [s.q1, s.median, s.q3].map(|v| format!("{v:.6}"))
                });
            let n = m.summary.map_or(1, |s| s.n);
            println!(
                "{:<34} {:>16.6} {:<6} {q1:>16} {med:>16} {q3:>16} {n:>5}",
                m.name, m.value, m.unit
            );
        }
        let mut counts = String::new();
        for (i, (k, v)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(counts, "{sep}\"{k}\":{v}");
        }
        println!("counts {{{counts}}}");
        if let Some(slow) = self.host_slowdown {
            println!("host slowdown {slow:.6} (timings scaled to nominal host speed)");
        }
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.checks.failed == 0 && self.checks.attempted > 0,
            self.checks.attempted.max(1),
            self.checks.failed,
        );
    }
}

/// The process's peak resident set, in MB (`VmHWM`).
///
/// # Errors
///
/// Hosts without `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM line in /proc/self/status".to_string())
}
