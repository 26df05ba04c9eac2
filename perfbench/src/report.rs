//! Order statistics and the result line.

/// Nearest-rank percentile (`p` in `(0, 1]`) of `samples`; zero when
/// there are none.
pub fn percentile<T: Copy + Ord + Default>(samples: &[T], p: f64) -> T {
    if samples.is_empty() {
        return T::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of float samples (setup times, slice rates); `0.0` when empty.
pub fn median_f64(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `a / b`, or `0.0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A latency distribution line: `name p50 .. p99 .. n=..` in microseconds.
pub fn dist_line(name: &str, ns: &[u64]) -> String {
    format!(
        "{name:<22} p50 {:>10.2} us   p99 {:>10.2} us   n={}",
        percentile(ns, 0.5) as f64 / 1e3,
        percentile(ns, 0.99) as f64 / 1e3,
        ns.len()
    )
}

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Whether every checked answer matched the oracle.
    pub correct: bool,
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that returned an error in the measured phase.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub report: Vec<String>,
}

impl Outcome {
    /// The metric called `name`, if the run produced it.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values are not JSON; every metric is a ratio
                // guarded against empty denominators, so this never fires
                // on a completed run.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
