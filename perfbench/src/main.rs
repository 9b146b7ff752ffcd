//! End-to-end and per-layer benchmark for STRUDEL.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload click-hot|click-churn|build|update --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload drives the system through its public API only. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it is the full
//! report: the run envelope (host, build, seed, workload parameters) and
//! every metric under its documented name, with unit and sample count.
//! See `perfbench/README.md`.

mod build;
mod click;
mod cputime;
mod load;
mod report;
mod rng;
mod spans;
mod stats;
mod update;

use report::{metrics_json, Metric, Report};
use std::path::Path;
use std::time::Instant;

/// The end-to-end metrics, identical for every workload (see the README
/// for what each one is on each workload).
const END_TO_END: &[(&str, &str)] = &[
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics. A layer a workload does not reach reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.self_us", "us"),
    ("serve.requests", "count"),
    ("serve.errors", "count"),
    ("serve.keepalive_reuses", "count"),
    ("serve.admission_rejected", "count"),
    ("serve.connections_aborted", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.expand_hit_us", "us"),
    ("cache.evictions", "count"),
    ("cache.invalidated", "count"),
    ("cache.invalidate_us", "us"),
    ("cache.bytes", "bytes"),
    ("eval.expand_miss_p50_us", "us"),
    ("eval.expand_miss_p99_us", "us"),
    ("eval.clause_queries", "count"),
    ("eval.plan_cache_hit_ratio", "ratio"),
    ("eval.path_cache_hit_ratio", "ratio"),
    ("eval.build_site_ms", "ms"),
    ("eval.dynamic_site_ms", "ms"),
    ("eval.expand_edited_ms", "ms"),
    ("render.generate_ms", "ms"),
    ("render.pages", "count"),
    ("render.bytes", "bytes"),
    ("write.publish_ms", "ms"),
    ("write.files", "count"),
    ("write.bytes", "bytes"),
    ("wrappers.refresh_ms", "ms"),
    ("wrappers.data_nodes", "count"),
    ("store.open_ms", "ms"),
    ("store.commit_ms", "ms"),
    ("store.wal_bytes_per_edit", "bytes"),
    ("store.fsyncs_per_edit", "count"),
    ("store.checkpoints", "count"),
    ("store.page_reads", "count"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.layer_sum_ratio", "ratio"),
];

/// Tolerance within which a traced build's or edit's per-layer self-time
/// medians plus `unattributed` must match the untraced end-to-end median.
const LAYER_SUM_TOLERANCE: f64 = 0.10;

const WORKLOADS: &[&str] = &["click-hot", "click-churn", "build", "update"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Peak resident set size of this process (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Output of a command we start and wait for, or `unknown`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The run envelope: host, build, seed and the workload's parameters.
fn envelope(args: &Args, rep: &Report) -> String {
    use strudel::obs::json::escape;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_output("rustc", &["--version"]);
    // Only a checkout that is itself a git work tree has a revision; the
    // lookup must not wander into an enclosing repository.
    let git = if Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let params: Vec<String> = rep
        .params
        .iter()
        .map(|(k, v)| format!(r#""{}": {v}"#, escape(k)))
        .collect();
    format!(
        r#"{{"host": {{"nproc": {nproc}, "rustc": "{}"}}, "git_rev": "{}", "build_profile": "{profile}", "workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "layer_sum_tolerance": {LAYER_SUM_TOLERANCE}, "params": {{{}}}}}"#,
        escape(&rustc),
        escape(&git),
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        params.join(", ")
    )
}

/// The end-to-end metrics under their shared names, taken from the
/// workload's own metrics.
fn headline(workload: &str, rep: &Report) -> Result<Vec<Metric>, String> {
    let cpu = match workload {
        "build" => "build_cpu_ms",
        "update" => "edit_cpu_ms",
        _ => "click_server_cpu_us",
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let source = if name == "cpu_ms_per_op" { cpu } else { name };
            let m = rep
                .get(source)
                .ok_or(format!("{workload} did not report {source}"))?;
            let value = if m.unit == "us" {
                m.value / 1e3
            } else {
                m.value
            };
            Ok(Metric {
                name: name.into(),
                unit,
                value,
                samples: m.samples,
            })
        })
        .collect()
}

/// The per-layer metrics in the published order, 0 for layers the
/// workload does not reach.
fn layers(rep: &Report) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| match rep.get(name) {
            Some(m) => Metric { unit, ..m.clone() },
            None => Metric {
                name: name.into(),
                unit,
                value: 0.0,
                samples: None,
            },
        })
        .collect()
}

fn run(args: &Args) -> Result<(), String> {
    let out_dir = Path::new("perfbench").join("out");
    let mut rep = Report::default();
    let mut tracer = spans::Tracer::new(Instant::now());
    let secs = args.seconds;
    match args.workload.as_str() {
        "click-hot" => click::run(
            &click::hot(),
            args.seed,
            secs,
            args.trace,
            &mut rep,
            &mut tracer,
        )?,
        "click-churn" => click::run(
            &click::churn(),
            args.seed,
            secs,
            args.trace,
            &mut rep,
            &mut tracer,
        )?,
        "build" => build::run(args.seed, secs, args.trace, &out_dir, &mut rep, &mut tracer)?,
        "update" => update::run(args.seed, secs, args.trace, &out_dir, &mut rep, &mut tracer)?,
        w => unreachable!("workload {w} was validated"),
    }
    rep.metric("peak_rss_mb", "MB", peak_rss_mb(), None);
    let fail_ratio = rep.failed as f64 / rep.attempted.max(1) as f64;
    rep.metric("fail_ratio", "ratio", fail_ratio, None);

    let published = if args.trace {
        if let Some(r) = rep.get("trace.layer_sum_ratio").map(|m| m.value) {
            if (r - 1.0).abs() > LAYER_SUM_TOLERANCE {
                rep.warn(format!(
                    "layer self times add up to {r:.3} × the end-to-end median"
                ));
            }
        }
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        spans::write_jsonl(tracer.spans(), &path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        rep.param_str("spans_file", &path.display().to_string());
        layers(&rep)
    } else {
        headline(&args.workload, &rep)?
    };
    if rep.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let warnings: Vec<String> = rep
        .warnings
        .iter()
        .map(|w| format!("\"{}\"", strudel::obs::json::escape(w)))
        .collect();
    println!(
        r#"{{"report": {{"envelope": {}, "metrics": {}, "warnings": [{}]}}}}"#,
        envelope(args, &rep),
        metrics_json(&rep.metrics, true),
        warnings.join(", ")
    );
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        rep.failed == 0,
        rep.attempted,
        rep.failed,
        metrics_json(&published, false)
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel::obs::json::{parse, Value};

    /// BENCHMARK.json at the repository root declares exactly the metric
    /// names and units this program prints, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let Value::Object(top) = parse(text).unwrap() else {
            panic!("not an object")
        };
        let field = |k: &str| {
            top.iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        let names = |k: &str, with_unit: bool| -> Vec<(String, String)> {
            let Value::Array(items) = field(k) else {
                panic!("{k} not an array")
            };
            items
                .iter()
                .map(|it| {
                    let Value::Object(kv) = it else {
                        panic!("entry not an object")
                    };
                    let get = |f: &str| match kv.iter().find(|(n, _)| n == f) {
                        Some((_, Value::String(s))) => s.clone(),
                        _ => String::new(),
                    };
                    (
                        get("name"),
                        if with_unit {
                            get("unit")
                        } else {
                            String::new()
                        },
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end", true), own(END_TO_END));
        assert_eq!(names("per_layer", true), own(PER_LAYER));
        let workloads: Vec<String> = names("workloads", false).into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
