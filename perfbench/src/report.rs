//! What one run reports: named metrics with units and sample counts,
//! workload parameters, and the attempted/failed operation counts.

use strudel::obs::json::escape;

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Timings carry the number of samples they rest on.
    pub samples: Option<usize>,
}

/// Everything a workload run produces besides its spans.
#[derive(Default)]
pub struct Report {
    /// Workload parameters, as `(key, JSON value)`.
    pub params: Vec<(String, String)>,
    /// Metrics under the names documented in the README (end-to-end ones
    /// in an untraced run, per-layer ones in a traced run).
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed (wrong output, error or no answer).
    pub attempted: u64,
    pub failed: u64,
    /// Reasons a run's figures should not be trusted (generator fell
    /// behind, a tail had too few samples, ...). Correctness failures go
    /// to `failed` instead.
    pub warnings: Vec<String>,
}

impl Report {
    pub fn param(&mut self, key: &str, json: impl ToString) {
        self.params.push((key.to_string(), json.to_string()));
    }

    pub fn param_str(&mut self, key: &str, text: &str) {
        self.param(key, format!("\"{}\"", escape(text)));
    }

    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// A timing: `value` resting on `samples` samples.
    pub fn timing(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metric(name, unit, value, Some(samples));
    }

    pub fn count(&mut self, name: &str, value: f64) {
        self.metric(name, "count", value, None);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn warn(&mut self, text: String) {
        eprintln!("perfbench: warning: {text}");
        self.warnings.push(text);
    }

    /// Counts `attempted` operations of which `failed` went wrong.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// A JSON number with all its digits (`null` if not finite).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": u[, "samples": n]}, ...}`.
pub fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = match (with_samples, m.samples) {
                (true, Some(n)) => format!(r#", "samples": {n}"#),
                _ => String::new(),
            };
            format!(
                r#""{}": {{"value": {}, "unit": "{}"{samples}}}"#,
                escape(&m.name),
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Median of a sample in the given scale (e.g. `1e-6` for ns → ms), or
/// `None` when empty.
pub fn median_scaled(ns: &[u64], scale: f64) -> Option<f64> {
    let v = crate::stats::sorted(ns.iter().map(|&x| x as f64 * scale).collect());
    crate::stats::median(&v)
}

/// Set-up repetitions, timed in CPU seconds (`setup_s`, which a shared
/// host's neighbours barely move) and in wall seconds (`setup_wall_s`).
#[derive(Default)]
pub struct SetupTimes {
    cpu: Vec<f64>,
    wall: Vec<f64>,
}

/// The start of one set-up repetition.
pub struct SetupStart(std::time::Instant, u64);

impl SetupTimes {
    pub fn start() -> SetupStart {
        SetupStart(std::time::Instant::now(), crate::cputime::process_ns())
    }

    pub fn record(&mut self, start: &SetupStart) {
        self.wall.push(start.0.elapsed().as_secs_f64());
        self.cpu
            .push((crate::cputime::process_ns() - start.1) as f64 / 1e9);
    }

    /// Reports the medians over the repetitions.
    pub fn report(self, rep: &mut Report) {
        let n = self.cpu.len();
        let med = |v: Vec<f64>| crate::stats::median(&crate::stats::sorted(v)).expect("set-up ran");
        rep.timing("setup_s", "s", med(self.cpu), n);
        rep.timing("setup_wall_s", "s", med(self.wall), n);
    }
}
