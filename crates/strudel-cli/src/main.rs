//! `strudel-cli` — the command-line interface to the STRUDEL web-site
//! management system.
//!
//! ```text
//! strudel-cli build   <site.spec> [--jobs N] [--timings] [--data FILE]
//!                     [--page-cache N]            generate the browsable site
//! strudel-cli schema  <site.spec>                 print the site schema (DOT)
//! strudel-cli explain <site.spec> [--profile [--json]]  optimizer plans per block
//! strudel-cli verify  <site.spec> <constraint>    check a structural constraint
//! strudel-cli query   <data.(ddl|bin|pdb)> <q.struql> [--profile [--json]]
//!                                                 run an ad-hoc query, print DDL
//! strudel-cli serve   <site.spec> [addr]          click-time evaluation over HTTP
//!     [--threads N] [--cache-entries N] [--cache-bytes N] [--data FILE]
//!     [--page-cache N] [--group-commit-window MS]
//!     [--trace-sample-rate F] [--trace-slow-ms N]
//! strudel-cli trace   <http://host:port/page/...>  fetch a page from a traced
//!                     | <site.spec> [page-path]    server (or serve one in
//!                                                  process) and print its span
//!                                                  tree with per-layer self-times
//! strudel-cli loadtest <site.spec>                zipfian load against the server
//!     [--conns A,B] [--duration-ms N] [--zipf S] [--threads N] [--max-urls N]
//!     [--pipeline-depth N] [--seed N] [--out FILE]
//! strudel-cli store   import <data.(ddl|bin)> <store.pdb>   seed a paged store
//! strudel-cli store   info <store.pdb>            revision, pages, WAL, contents
//! strudel-cli store   compact <store.pdb>         checkpoint + rewrite minimal
//! strudel-cli demo    <dir>                       write a ready-to-build demo site
//! ```
//!
//! `--data FILE` registers a paged graph store (crash-recovered on open) as
//! an extra data source named `store` alongside the spec's sources.
//! `--page-cache N` caps that store's page cache at N pages and
//! `--group-commit-window MS` sets how long a group-commit leader waits for
//! followers before flushing the batch (0 = flush immediately).
//!
//! Observability flags:
//!
//! * `--profile` records one line per applied condition (rows in/out, the
//!   physical strategy, path-cache hits/misses, per-worker chunk timings).
//!   `query` prints the table to stderr so stdout stays pipeable DDL;
//!   `explain` appends it to the plans. With `--json` the profile is
//!   printed to stdout as a JSON document instead.
//! * `--timings` makes `build` print a phase-breakdown JSON object
//!   (refresh → evaluate → render → write, microseconds) with the slowest
//!   pages, instead of the human summary line.
//!
//! Constraint syntax for `verify`:
//!
//! ```text
//! reachable-from Root
//! every MemberPage -Department-> DeptPage
//! none-reachable Root SecretPage
//! ```

mod loadtest;
mod spec;

use std::path::Path;
use std::process::ExitCode;
use strudel::site::Constraint;
use strudel::{Strudel, StrudelError};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") if args.len() >= 2 => cmd_build(Path::new(&args[1]), &args[2..]),
        Some("schema") if args.len() == 2 => cmd_schema(Path::new(&args[1])),
        Some("explain") if args.len() >= 2 => cmd_explain(Path::new(&args[1]), &args[2..]),
        Some("verify") if args.len() >= 3 => cmd_verify(Path::new(&args[1]), &args[2..].join(" ")),
        Some("query") if args.len() >= 3 => {
            cmd_query(Path::new(&args[1]), Path::new(&args[2]), &args[3..])
        }
        Some("serve") if args.len() >= 2 => cmd_serve(Path::new(&args[1]), &args[2..]),
        Some("trace") if args.len() >= 2 => cmd_trace(&args[1], &args[2..]),
        Some("loadtest") if args.len() >= 2 => loadtest::run(Path::new(&args[1]), &args[2..]),
        Some("store") if args.len() >= 2 => cmd_store(&args[1], &args[2..]),
        Some("demo") if args.len() == 2 => cmd_demo(Path::new(&args[1])),
        _ => {
            eprintln!("usage:\n  strudel-cli build   <site.spec> [--jobs N] [--timings] [--data FILE] [--page-cache N]\n  strudel-cli schema  <site.spec>\n  strudel-cli explain <site.spec> [--profile [--json]]\n  strudel-cli verify  <site.spec> <constraint>\n  strudel-cli query   <data.(ddl|bin|pdb)> <query.struql> [--profile [--json]]\n  strudel-cli serve   <site.spec> [addr] [--threads N] [--cache-entries N] [--cache-bytes N]\n                       [--data FILE] [--page-cache N] [--group-commit-window MS]\n                       [--trace-sample-rate F] [--trace-slow-ms N]\n  strudel-cli trace   <http://host:port/page/...> | <site.spec> [page-path]\n  strudel-cli loadtest <site.spec> [--conns A,B] [--duration-ms N] [--zipf S] [--threads N]\n                       [--max-urls N] [--pipeline-depth N] [--seed N] [--out FILE]\n  strudel-cli store   import <data.(ddl|bin)> <store.pdb> | info <store.pdb> | compact <store.pdb>\n  strudel-cli demo    <dir>");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

/// How `--profile [--json]` asks for the per-condition execution profile.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ProfileMode {
    Off,
    Table,
    Json,
}

fn parse_profile_flags(rest: &[String]) -> Result<ProfileMode, AnyError> {
    let (mut profile, mut json) = (false, false);
    for arg in rest {
        match arg.as_str() {
            "--profile" => profile = true,
            "--json" => json = true,
            s => return Err(format!("unknown argument {s}").into()),
        }
    }
    match (profile, json) {
        (false, false) => Ok(ProfileMode::Off),
        (true, false) => Ok(ProfileMode::Table),
        (true, true) => Ok(ProfileMode::Json),
        (false, true) => Err("--json requires --profile".into()),
    }
}

fn read(path: &Path) -> Result<String, AnyError> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()).into())
}

/// Wires a [`Strudel`] system from a spec file.
fn load_system(spec_path: &Path) -> Result<(Strudel, spec::Spec), AnyError> {
    let base = spec_path.parent().unwrap_or(Path::new("."));
    let sp = spec::parse(&read(spec_path)?, base)?;
    let mut s = Strudel::new();

    for (kind, name, path) in &sp.sources {
        match kind.as_str() {
            "bibtex" => s.add_bibtex_source(name, &read(path)?),
            "ddl" => s.add_ddl_source(name, &read(path)?),
            "csv" => {
                let table = strudel::wrappers::relational::Table::from_csv(name, &read(path)?)
                    .map_err(StrudelError::Graph)?;
                let fks = sp
                    .fks
                    .iter()
                    .map(|(t, c, tt, tk)| strudel::wrappers::relational::ForeignKey {
                        table: t.clone(),
                        column: c.clone(),
                        target_table: tt.clone(),
                        target_key: tk.clone(),
                    })
                    .collect();
                s.add_csv_source(name, vec![table], fks);
            }
            "html" => {
                let html = read(path)?;
                s.add_html_source(name, vec![(path.display().to_string(), html)]);
            }
            "xml" => s.add_xml_source(name, &read(path)?),
            "store" => s.add_store_source(name, path),
            _ => unreachable!("validated by spec parser"),
        }
    }
    for (source, path) in &sp.mappings {
        s.add_mapping(source, &read(path)?)?;
    }
    for q in &sp.queries {
        s.add_site_query(&read(q)?)?;
    }
    for (name, path) in &sp.templates {
        s.templates_mut()
            .set_collection_template(name, &read(path)?)
            .map_err(StrudelError::Template)?;
    }
    for (name, path) in &sp.named_templates {
        s.templates_mut()
            .set_named(name, &read(path)?)
            .map_err(StrudelError::Template)?;
    }
    if let Some(path) = &sp.default_template {
        s.templates_mut()
            .set_default(&read(path)?)
            .map_err(StrudelError::Template)?;
    }
    Ok((s, sp))
}

/// `rest` holds everything after the spec path: an optional `--jobs N`
/// flag (worker threads for evaluation, construction and rendering;
/// defaults to the machine's available parallelism), `--timings`
/// (print a phase-breakdown JSON object instead of the summary line),
/// `--data FILE` (mount a paged graph store as an extra source) and
/// `--page-cache N` (cap that store's page cache at N pages).
fn cmd_build(spec_path: &Path, rest: &[String]) -> Result<(), AnyError> {
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut timings = false;
    let mut data: Option<String> = None;
    let mut tune = strudel::StoreTuning::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = v
                    .parse::<usize>()
                    .map_err(|e| format!("--jobs {v}: {e}"))?
                    .max(1);
            }
            "--timings" => timings = true,
            "--data" => data = Some(it.next().ok_or("--data needs a file")?.clone()),
            "--page-cache" => {
                let v = it.next().ok_or("--page-cache needs a value")?;
                tune.page_cache = Some(v.parse().map_err(|e| format!("--page-cache {v}: {e}"))?);
            }
            s => return Err(format!("unknown argument {s}").into()),
        }
    }
    let (mut s, sp) = load_system(spec_path)?;
    if let Some(store_path) = &data {
        s.add_store_source_with("store", Path::new(store_path), tune);
    }
    s.set_jobs(jobs);
    let roots: Vec<&str> = sp.roots.iter().map(String::as_str).collect();
    let out = sp
        .output
        .clone()
        .unwrap_or_else(|| Path::new("site-out").to_path_buf());
    if timings {
        let (site, phases) = s.publish_timed(&roots, &out)?;
        let mut slow: Vec<(String, u64)> = site.render_us.clone();
        slow.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        slow.truncate(5);
        let slow_json = slow
            .iter()
            .map(|(f, us)| {
                format!(
                    "{{\"file\":\"{}\",\"us\":{us}}}",
                    strudel::obs::json::escape(f)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "{{\"phases\":{},\"total_us\":{},\"jobs\":{jobs},\"pages\":{},\"bytes\":{},\"slowest_pages\":[{slow_json}]}}",
            phases.to_json(),
            phases.total_us(),
            site.pages.len(),
            site.total_bytes(),
        );
        for w in &site.warnings {
            eprintln!("warning: {w}");
        }
        return Ok(());
    }
    let t = std::time::Instant::now();
    let site = s.publish(&roots, &out)?;
    println!(
        "built {} pages ({} bytes) in {:?} with {} jobs -> {}",
        site.pages.len(),
        site.total_bytes(),
        t.elapsed(),
        jobs,
        out.display()
    );
    for w in &site.warnings {
        eprintln!("warning: {w}");
    }
    Ok(())
}

fn cmd_schema(spec_path: &Path) -> Result<(), AnyError> {
    let (s, _) = load_system(spec_path)?;
    print!("{}", s.site_schema().to_dot());
    Ok(())
}

fn cmd_explain(spec_path: &Path, rest: &[String]) -> Result<(), AnyError> {
    let mode = parse_profile_flags(rest)?;
    let (mut s, _) = load_system(spec_path)?;
    let merged = s.merged_query();
    let mut opts = s.options_mut().clone();
    let data = s.data_graph()?;
    let plans = merged.explain(data, &opts).map_err(StrudelError::Struql)?;
    if mode == ProfileMode::Off {
        println!("{plans}");
        return Ok(());
    }
    // The static plans say what the optimizer *chose*; executing with
    // explain + profile shows the plan as run (observed rows per node,
    // adaptive re-optimizations included) plus the operator-level profile.
    opts.profile = true;
    opts.explain = true;
    let out = merged.evaluate(data, &opts).map_err(StrudelError::Struql)?;
    match mode {
        ProfileMode::Table => {
            for plan in &out.stats.plans {
                println!("{plan}");
            }
            if out.stats.plan_replans > 0 {
                println!("adaptive re-optimizations: {}", out.stats.plan_replans);
            }
            print!("{}", strudel::obs::render_profile_table(&out.stats.profile));
        }
        _ => println!(
            "{{\"profile\":{}}}",
            strudel::obs::render_profile_json(&out.stats.profile)
        ),
    }
    Ok(())
}

fn parse_constraint(text: &str) -> Result<Constraint, AnyError> {
    let words: Vec<&str> = text.split_whitespace().collect();
    match words.as_slice() {
        ["reachable-from", root] => Ok(Constraint::AllReachableFrom {
            root: root.to_string(),
        }),
        ["none-reachable", from, forbidden] => Ok(Constraint::NoneReachable {
            from: from.to_string(),
            forbidden: forbidden.to_string(),
        }),
        ["every", from, edge, to] => {
            let label = edge
                .strip_prefix('-')
                .and_then(|e| e.strip_suffix("->"))
                .ok_or("edge must look like -Label->")?;
            Ok(Constraint::EveryHasEdge {
                from: from.to_string(),
                label: label.to_string(),
                to: to.to_string(),
            })
        }
        _ => Err(format!("cannot parse constraint `{text}`").into()),
    }
}

fn cmd_verify(spec_path: &Path, constraint_text: &str) -> Result<(), AnyError> {
    let (mut s, _) = load_system(spec_path)?;
    let constraint = parse_constraint(constraint_text)?;
    let (schema_verdict, exact) = s.verify(&constraint)?;
    println!("schema check: {schema_verdict:?}");
    if let Some(exact) = exact {
        println!("exact check:  {exact:?}");
        if matches!(exact, strudel::site::Verdict::Violated(_)) {
            return Err("constraint violated".into());
        }
    } else if matches!(schema_verdict, strudel::site::Verdict::Violated(_)) {
        return Err("constraint violated".into());
    }
    Ok(())
}

fn cmd_query(data_path: &Path, query_path: &Path, rest: &[String]) -> Result<(), AnyError> {
    let mode = parse_profile_flags(rest)?;
    let data = if data_path.extension().is_some_and(|e| e == "bin") {
        strudel::graph::store::load_from_file(data_path)?
    } else if data_path.extension().is_some_and(|e| e == "pdb") {
        // A paged store: open (running crash recovery if the last writer
        // died) and query its current revision.
        let mut store = strudel::graph::store::PagedStore::open(data_path)?;
        let bytes = store.serialize()?;
        strudel::graph::store::load_slice(&bytes)?
    } else {
        strudel::graph::ddl::parse(&read(data_path)?)?
    };
    let q = strudel::struql::parse_query(&read(query_path)?)?;
    let opts = strudel::struql::EvalOptions {
        profile: mode != ProfileMode::Off,
        ..Default::default()
    };
    let t = std::time::Instant::now();
    let out = q.evaluate(&data, &opts)?;
    eprintln!(
        "evaluated in {:?}: {} nodes, {} edges, {} rows examined",
        t.elapsed(),
        out.graph.node_count(),
        out.graph.edge_count(),
        out.stats.intermediate_rows
    );
    match mode {
        // Stdout stays pipeable DDL; the table rides the diagnostics stream.
        ProfileMode::Off => print!("{}", strudel::graph::ddl::print(&out.graph)),
        ProfileMode::Table => {
            print!("{}", strudel::graph::ddl::print(&out.graph));
            eprint!("{}", strudel::obs::render_profile_table(&out.stats.profile));
        }
        ProfileMode::Json => println!(
            "{{\"profile\":{}}}",
            strudel::obs::render_profile_json(&out.stats.profile)
        ),
    }
    Ok(())
}

/// Writes a small ready-to-run demo site (spec + sources + query +
/// templates) into `dir`, so `strudel-cli build <dir>/demo.site` works.
/// Serves the site with click-time evaluation: nothing is materialized up
/// front; each page runs its governing StruQL sub-queries on request.
///
/// `rest` holds everything after the spec path: an optional bind address
/// plus `--threads N`, `--cache-entries N` and `--cache-bytes N` flags.
fn cmd_serve(spec_path: &Path, rest: &[String]) -> Result<(), AnyError> {
    let mut addr = "127.0.0.1:8017".to_string();
    let mut config = strudel::serve::ServerConfig::default();
    let mut cache = strudel::site::CacheConfig::default();
    let mut data: Option<String> = None;
    let mut tune = strudel::StoreTuning::default();
    let mut trace_cfg = strudel::obs::trace::TraceConfig::default();

    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<usize, AnyError> {
            let v = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            v.parse().map_err(|e| format!("{name} {v}: {e}").into())
        };
        match arg.as_str() {
            "--threads" => config.threads = flag_value("--threads")?.max(1),
            "--cache-entries" => cache.max_entries = flag_value("--cache-entries")?,
            "--cache-bytes" => cache.max_bytes = flag_value("--cache-bytes")?,
            "--data" => data = Some(it.next().ok_or("--data needs a file")?.clone()),
            "--page-cache" => tune.page_cache = Some(flag_value("--page-cache")?),
            "--group-commit-window" => {
                let ms = flag_value("--group-commit-window")?;
                tune.group_commit_window = Some(std::time::Duration::from_millis(ms as u64));
            }
            "--trace-sample-rate" => {
                let v = it.next().ok_or("--trace-sample-rate needs a value")?;
                trace_cfg.sample_rate = v
                    .parse()
                    .map_err(|e| format!("--trace-sample-rate {v}: {e}"))?;
            }
            "--trace-slow-ms" => trace_cfg.slow_ms = flag_value("--trace-slow-ms")? as u64,
            s if s.starts_with("--") => return Err(format!("unknown flag {s}").into()),
            s => addr = s.to_string(),
        }
    }

    let (mut s, _) = load_system(spec_path)?;
    if let Some(store_path) = &data {
        s.add_store_source_with("store", Path::new(store_path), tune);
    }
    strudel::obs::trace::enable(trace_cfg);
    let dynamic = s.dynamic_site_with(cache)?;
    let server = strudel::serve::Server::bind_with(dynamic, &addr, config)?;
    println!(
        "serving dynamically evaluated site on http://{}/ with {} worker threads (GET /quit to stop, GET /stats for metrics, GET /debug/traces for the flight recorder)",
        server.addr()?,
        server.config().threads,
    );
    server.serve(None)?;
    print_trace_summary();
    Ok(())
}

/// The serve-shutdown trace summary: recorder totals plus the worst
/// promoted traces with their per-layer self-time breakdowns.
fn print_trace_summary() {
    use strudel::obs::trace;
    let t = trace::stats();
    if t.traces_started == 0 {
        return;
    }
    eprintln!(
        "traces: {} started, {} sampled, {} slow-promoted; ring {}/{} spans ({} overwritten)",
        t.traces_started,
        t.traces_sampled,
        t.traces_slow_promoted,
        t.ring_live,
        t.ring_capacity,
        t.spans_dropped,
    );
    let worst = trace::worst_traces();
    if worst.is_empty() {
        return;
    }
    eprintln!("slowest requests:");
    for w in &worst {
        let breakdown = trace::LAYER_NAMES
            .iter()
            .zip(w.layer_self_ns.iter())
            .filter(|(_, ns)| **ns > 0)
            .map(|(name, ns)| format!("{name} {}us", ns / 1_000))
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!(
            "  {:>8}us  {} ({} spans; {breakdown})",
            w.dur_ns / 1_000,
            if w.path.is_empty() { "?" } else { &w.path },
            w.spans,
        );
    }
}

/// `strudel-cli trace` — fetch one page through the traced click path and
/// print its span tree with per-layer self-times.
///
/// * `trace http://host:port/page/...` — remote: fetch the page from a
///   running server (started with tracing on), then pull its trace from
///   `/debug/traces`.
/// * `trace <site.spec> [page-path]` — in-process: bind an ephemeral
///   traced server over the spec, fetch the page (default: the first
///   `/page/…` link off `/`), and print its trace. Exercises the real
///   click path end to end.
fn cmd_trace(target: &str, rest: &[String]) -> Result<(), AnyError> {
    if let Some(stripped) = target.strip_prefix("http://") {
        let (host, path) = match stripped.split_once('/') {
            Some((h, p)) => (h.to_string(), format!("/{p}")),
            None => (stripped.to_string(), "/".to_string()),
        };
        return trace_via_server(&host, &path);
    }
    // In-process: serve the spec on an ephemeral port with tracing fully
    // on, then run the same remote flow against it.
    let (mut s, _) = load_system(Path::new(target))?;
    strudel::obs::trace::enable(strudel::obs::trace::TraceConfig {
        sample_rate: 1.0,
        ..Default::default()
    });
    let dynamic = s.dynamic_site_with(strudel::site::CacheConfig::default())?;
    let server = strudel::serve::Server::bind(dynamic, "127.0.0.1:0")?;
    let host = server.addr()?.to_string();
    let mut result = Err("trace did not run".into());
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(None));
        result = (|| -> Result<(), AnyError> {
            let path = match rest.first() {
                Some(p) => p.clone(),
                None => {
                    // Follow the first page link off the roots listing.
                    let roots = http_get(&host, "/")?;
                    roots
                        .split("href=\"")
                        .nth(1)
                        .and_then(|part| part.find('"').map(|end| part[..end].to_string()))
                        .ok_or("no page links under /")?
                }
            };
            trace_via_server(&host, &path)
        })();
        let _ = http_get(&host, "/quit");
        let _ = serving.join().expect("server thread");
    });
    result
}

/// Fetches `path` from a traced server at `host`, then prints the span
/// tree `/debug/traces` recorded for that request. When the event loop
/// answered it from a rendered response kept in the page cache, the tree
/// holds only the serve phases; the page's most recent render still in
/// the recent list follows it, to show how the page was computed.
fn trace_via_server(host: &str, path: &str) -> Result<(), AnyError> {
    let page = http_get(host, path)?;
    let status = page
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .unwrap_or("???");
    if !status.starts_with('2') {
        return Err(format!("GET {path} answered {status}").into());
    }
    let resp = http_get(host, "/debug/traces")?;
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .ok_or("unframed /debug/traces response")?;
    let doc = strudel::obs::json::parse(body).map_err(|e| format!("/debug/traces: {e}"))?;
    let traces = doc
        .get("traces")
        .and_then(|t| t.as_array())
        .ok_or("no traces array (is tracing enabled on the server?)")?;
    // Newest first; ours is the most recent trace for this path.
    let mut for_path = traces
        .iter()
        .filter(|t| t.get("path").and_then(|p| p.as_str()) == Some(path));
    let trace = for_path.next().ok_or_else(|| {
        format!("no trace for {path} (sampled out, or evicted from the recent ring?)")
    })?;
    print_trace(trace);
    if served_hit(trace) {
        match for_path.find(|t| !served_hit(t)) {
            Some(render) => {
                println!("answered from the page cache; the page's last render:");
                print_trace(render);
            }
            None => println!("answered from the page cache; its render is no longer recorded"),
        }
    }
    Ok(())
}

/// Whether a `/debug/traces` entry is a request the event loop answered
/// from a rendered response kept in the page cache (`serve.handle` with
/// `hit=1`).
fn served_hit(trace: &strudel::obs::json::Value) -> bool {
    let spans = trace.get("spans").and_then(|s| s.as_array()).unwrap_or(&[]);
    spans.iter().any(|s| {
        s.get("name").and_then(|n| n.as_str()) == Some("serve.handle")
            && s.get("attrs")
                .and_then(|a| a.get("hit"))
                .and_then(|h| h.as_f64())
                == Some(1.0)
    })
}

/// Renders one `/debug/traces` entry as an indented span tree plus the
/// per-layer self-time breakdown.
fn print_trace(trace: &strudel::obs::json::Value) {
    let num = |v: &strudel::obs::json::Value, key: &str| -> u64 {
        v.get(key).and_then(|n| n.as_f64()).unwrap_or(0.0) as u64
    };
    println!(
        "trace {} {} — {}us total, {} spans",
        num(trace, "trace_id"),
        trace.get("path").and_then(|p| p.as_str()).unwrap_or("?"),
        num(trace, "duration_us"),
        num(trace, "span_count"),
    );
    let spans = trace.get("spans").and_then(|s| s.as_array()).unwrap_or(&[]);
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| num(s, "span_id")).collect();
    // Roots: spans whose parent is outside this trace (the request root,
    // plus any orphans whose parent was overwritten by ring wrap-around).
    let mut roots: Vec<&strudel::obs::json::Value> = spans
        .iter()
        .filter(|s| !ids.contains(&num(s, "parent_id")))
        .collect();
    roots.sort_by_key(|s| num(s, "start_us"));
    for root in roots {
        print_span_subtree(root, spans, 1, &num);
    }
    if let Some(strudel::obs::json::Value::Object(fields)) = trace.get("layers_self_us") {
        let breakdown = fields
            .iter()
            .filter(|(_, v)| v.as_f64().unwrap_or(0.0) > 0.0)
            .map(|(k, v)| format!("{k} {}us", v.as_f64().unwrap_or(0.0) as u64))
            .collect::<Vec<_>>()
            .join(", ");
        println!("per-layer self-time: {breakdown}");
    }
}

/// Prints one span and, recursively, its children (by start time).
fn print_span_subtree(
    span: &strudel::obs::json::Value,
    all: &[strudel::obs::json::Value],
    depth: usize,
    num: &dyn Fn(&strudel::obs::json::Value, &str) -> u64,
) {
    let id = num(span, "span_id");
    let mut children: Vec<&strudel::obs::json::Value> =
        all.iter().filter(|s| num(s, "parent_id") == id).collect();
    children.sort_by_key(|s| num(s, "start_us"));
    let dur = num(span, "dur_us");
    let child_us: u64 = children.iter().map(|c| num(c, "dur_us")).sum();
    let mut attrs = String::new();
    if let Some(strudel::obs::json::Value::Object(fields)) = span.get("attrs") {
        for (k, v) in fields {
            let rendered = match v {
                strudel::obs::json::Value::String(s) => s.clone(),
                other => format!("{}", other.as_f64().unwrap_or(0.0) as u64),
            };
            attrs.push_str(&format!(" {k}={rendered}"));
        }
    }
    println!(
        "{:indent$}{} [{}] {dur}us (self {}us){attrs}",
        "",
        span.get("name").and_then(|n| n.as_str()).unwrap_or("?"),
        span.get("cat").and_then(|c| c.as_str()).unwrap_or("?"),
        dur.saturating_sub(child_us),
        indent = depth * 2,
    );
    for child in children {
        print_span_subtree(child, all, depth + 1, num);
    }
}

/// A one-shot `Connection: close` GET against `host` (`ip:port`).
fn http_get(host: &str, path: &str) -> Result<String, AnyError> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(host)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut buf = String::new();
    stream.read_to_string(&mut buf)?;
    Ok(buf)
}

/// `strudel-cli store import|info|compact` — manage paged graph stores.
fn cmd_store(verb: &str, rest: &[String]) -> Result<(), AnyError> {
    use strudel::graph::store::PagedStore;
    match (verb, rest) {
        ("import", [data, dest]) => {
            let data_path = Path::new(data);
            let graph = if data_path.extension().is_some_and(|e| e == "bin") {
                strudel::graph::store::load_from_file(data_path)?
            } else {
                strudel::graph::ddl::parse(&read(data_path)?)?
            };
            let store = PagedStore::import(Path::new(dest), &graph)?;
            println!(
                "imported {} nodes / {} edges into {} (revision {}, {} pages)",
                graph.node_count(),
                graph.edge_count(),
                dest,
                store.revision(),
                store.page_count(),
            );
            Ok(())
        }
        ("info", [path]) => {
            let mut store = PagedStore::open(Path::new(path))?;
            let (nodes, edges, collections) = {
                let g = store.graph()?;
                (g.node_count(), g.edge_count(), g.collection_names().len())
            };
            println!(
                "revision {}: {} nodes, {} edges, {} collections",
                store.revision(),
                nodes,
                edges,
                collections,
            );
            println!(
                "pages {} ({} bytes), {} free, {} leaked; dirty since checkpoint: {} pages in {} segments",
                store.page_count(),
                store.page_count() as u64 * 4096,
                store.freelist_len(),
                store.leaked_pages(),
                store.dirty_pages(),
                store.dirty_segments(),
            );
            println!(
                "wal {} bytes, age {}s; group-commit window {:?}",
                store.wal_size(),
                store.wal_age_seconds(),
                store.group_commit_window(),
            );
            Ok(())
        }
        ("compact", [path]) => {
            let mut store = PagedStore::open(Path::new(path))?;
            let report = store.compact()?;
            println!(
                "compacted {}: {} -> {} pages",
                path, report.pages_before, report.pages_after
            );
            Ok(())
        }
        _ => Err("usage: strudel-cli store import <data.(ddl|bin)> <store.pdb> | info <store.pdb> | compact <store.pdb>".into()),
    }
}

fn cmd_demo(dir: &Path) -> Result<(), AnyError> {
    std::fs::create_dir_all(dir)?;
    // Atomic per-file publication (same helper the site generator uses):
    // an interrupted demo write never leaves a torn file behind.
    let write = |name: &str, contents: &str| {
        strudel::graph::fsio::atomic_write_in(dir, name, contents.as_bytes())
    };
    write(
        "papers.bib",
        r#"@article{toplas97,
  title = {Specifying Representations of Machine Instructions},
  author = {Norman Ramsey and Mary Fernandez},
  year = 1997,
  journal = {TOPLAS},
  postscript = {papers/toplas97.ps.gz}
}
@inproceedings{icde98,
  title = {Optimizing Regular Path Expressions},
  author = {Mary Fernandez and Dan Suciu},
  year = 1998,
  booktitle = {Proc. of ICDE},
  postscript = {papers/icde98.ps.gz}
}
"#,
    )?;
    write(
        "site.struql",
        r#"CREATE HomePage()
COLLECT Roots(HomePage())
{
  WHERE Publications(x), x -> l -> v
  CREATE Paper(x)
  LINK Paper(x) -> l -> v,
       HomePage() -> "Paper" -> Paper(x)
}
"#,
    )?;
    write(
        "home.tmpl",
        r#"<html><body><h1>Publications</h1>
<SFOR p IN @Paper ORDER=descend KEY=@year LIST=ul><SFMT @p LINK=@p.title></SFOR>
</body></html>"#,
    )?;
    write(
        "paper.tmpl",
        r#"<html><body><h1><SFMT @title></h1>
<p>By <SFMT @author ALL DELIM=", "> (<SFMT @year>).</p>
<p><SFMT @postscript LINK="PostScript"></p>
</body></html>"#,
    )?;
    write(
        "demo.site",
        "source bibtex bibliography papers.bib\nquery site.struql\ntemplate HomePage home.tmpl\ntemplate Paper paper.tmpl\nroot HomePage\noutput out/\n",
    )?;
    strudel::graph::fsio::fsync_dir(dir)?;
    println!(
        "demo written; try: strudel-cli build {}",
        dir.join("demo.site").display()
    );
    Ok(())
}
