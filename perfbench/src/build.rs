//! `build`: a whole-site build of the organization site at paper scale.
//!
//! Each iteration builds a fresh system from the same generated sources
//! and times `Strudel::generate_site`. Every few iterations the site is
//! also published with `GeneratedSite::write_to_dir` into a fresh
//! directory, and the files are read back and compared with the pages in
//! memory. Durable writes (one fsync per page) are too unsteady to gate,
//! so publication is timed only in the traced run.

use crate::cputime;
use crate::report::{median_scaled, Report, SetupTimes};
use crate::spans::{breakdown, median_band, Tracer, UNATTRIBUTED};
use crate::stats::{sorted, Summary};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use strudel::synth::org;
use strudel::template::{GeneratedSite, Generator};
use strudel::Strudel;

/// Organization site size: the paper's ~400 members.
const MEMBERS: usize = 400;
/// Evaluation and rendering jobs, pinned so the environment cannot change
/// them.
const JOBS: usize = 1;
const SETUP_REPS: usize = 9;
/// Publish and check the files on every `WRITE_EVERY`-th iteration (each
/// publication fsyncs every page and takes about a second).
const WRITE_EVERY: usize = 64;
const ROOTS: &[&str] = &["RootPage"];

/// Tail percentile reported for build times.
pub const TAIL_Q: f64 = 0.9;

fn system(src: &org::OrgSource) -> Result<Strudel, String> {
    let mut s = org::system(src).map_err(|e| e.to_string())?;
    s.set_jobs(JOBS);
    Ok(s)
}

/// `generate_site` taken apart into the steps it blocks on, each in its
/// own span: warehouse refresh, site-query evaluation, rendering. Same
/// public calls, same output.
fn generate_traced(
    s: &mut Strudel,
    roots: &[&str],
    t: &mut Tracer,
) -> Result<GeneratedSite, String> {
    let root = t.enter("build");
    t.span("wrappers.refresh", || {
        s.mediator_mut().mark_stale();
        s.data_graph().map(|_| ())
    })
    .map_err(|e| e.to_string())?;
    let build = t
        .span("eval.build_site", || s.build_site())
        .map_err(|e| e.to_string())?;
    let ids: Vec<_> = roots.iter().flat_map(|r| build.pages_of(r)).collect();
    let templates = &*s.templates_mut();
    let site = t
        .span("render.generate", || {
            Generator::new(&build.graph, templates).generate(&ids)
        })
        .map_err(|e| e.to_string())?;
    // `generate_site` frees the site graph before it returns; so does the
    // traced build, inside its root span (the time shows as unattributed).
    drop(build);
    t.exit(root);
    Ok(site)
}

/// Checks that `dir` holds exactly the site's pages, byte for byte.
pub fn dir_matches(dir: &Path, pages: &BTreeMap<String, String>) -> Result<(), String> {
    let mut on_disk = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))? {
            let path = e.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                on_disk += 1;
            }
        }
    }
    if on_disk != pages.len() {
        return Err(format!("{on_disk} files on disk, {} pages", pages.len()));
    }
    for (name, html) in pages {
        let bytes = std::fs::read(dir.join(name)).map_err(|e| format!("{name}: {e}"))?;
        if bytes != html.as_bytes() {
            return Err(format!("{name} differs from the page in memory"));
        }
    }
    Ok(())
}

/// Checks that two builds produced the same page set and bytes.
pub fn pages_match(
    reference: &BTreeMap<String, String>,
    got: &BTreeMap<String, String>,
) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err(format!("{} pages, expected {}", got.len(), reference.len()));
    }
    for ((rn, rp), (gn, gp)) in reference.iter().zip(got) {
        if rn != gn {
            return Err(format!("page {gn} where {rn} was expected"));
        }
        if rp != gp {
            return Err(format!("page {rn} differs"));
        }
    }
    Ok(())
}

/// Publishes `site` into a fresh directory under `out`, checks the files
/// and removes them. Returns the write time in nanoseconds.
fn publish_and_check(
    site: &GeneratedSite,
    out: &Path,
    i: usize,
    t: &mut Tracer,
) -> Result<u64, String> {
    let dir = out.join(format!("build-{}-{i}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let start = Instant::now();
    t.span("write.publish", || site.write_to_dir(&dir))
        .map_err(|e| format!("write_to_dir: {e}"))?;
    let ns = start.elapsed().as_nanos() as u64;
    let checked = dir_matches(&dir, &site.pages);
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    checked.map(|()| ns)
}

pub fn run(
    seed: u64,
    secs: f64,
    traced: bool,
    out: &Path,
    rep: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    rep.param("members", MEMBERS);
    rep.param("jobs", JOBS);
    rep.param("setup_reps", SETUP_REPS);
    rep.param("write_every", WRITE_EVERY);

    // Set-up: generate the sources, wire the system, one warm-up build.
    let mut setup = SetupTimes::default();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t0 = SetupTimes::start();
        let src = org::generate(MEMBERS, seed);
        let mut s = system(&src)?;
        let site = s.generate_site(ROOTS).map_err(|e| e.to_string())?;
        setup.record(&t0);
        prepared = Some((src, site));
    }
    let (src, reference) = prepared.expect("at least one set-up");
    rep.param("pages", reference.pages.len());
    rep.param("site_bytes", reference.total_bytes());

    let mut plain_ms = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut pages_built = 0usize;
    let mut write_ns = Vec::new();
    let mut data_nodes = 0;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(secs);
    let mut i = 0;
    while Instant::now() < deadline || i < 2 {
        let mut s = system(&src)?;
        let trace_this = traced && i % 2 == 1;
        let site = if trace_this {
            tracer.set_enabled(true);
            let site = generate_traced(&mut s, ROOTS, tracer)?;
            data_nodes = s.data_graph().map_err(|e| e.to_string())?.node_count();
            site
        } else {
            let (t, cpu) = (Instant::now(), cputime::process_ns());
            let site = s.generate_site(ROOTS).map_err(|e| e.to_string())?;
            plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
            cpu_ms.push((cputime::process_ns() - cpu) as f64 / 1e6);
            pages_built += site.pages.len();
            site
        };
        let mut ok = pages_match(&reference.pages, &site.pages);
        if ok.is_ok() && i % WRITE_EVERY == 0 {
            tracer.set_enabled(traced);
            ok = publish_and_check(&site, out, i, tracer).map(|ns| write_ns.push(ns));
        }
        tracer.set_enabled(false);
        if let Err(e) = &ok {
            eprintln!("perfbench: build iteration {i}: {e}");
        }
        rep.ops(1, u64::from(ok.is_err()));
        i += 1;
    }

    setup.report(rep);
    let total_ms: f64 = plain_ms.iter().sum();
    let build = Summary::of(plain_ms, TAIL_Q).expect("at least one untraced build");
    if traced {
        let ops = breakdown(tracer.spans());
        let builds: Vec<_> = ops.iter().filter(|o| o.root == "build").collect();
        let (band_ns, parts) = median_band(&builds).expect("traced operations ran");
        for (name, metric) in [
            ("wrappers.refresh", "wrappers.refresh_ms"),
            ("eval.build_site", "eval.build_site_ms"),
            ("render.generate", "render.generate_ms"),
            (UNATTRIBUTED, "trace.unattributed_ms"),
        ] {
            let v = parts.get(name).copied().unwrap_or(0.0) / 1e6;
            rep.timing(metric, "ms", v, builds.len());
        }
        let roots: Vec<u64> = builds.iter().map(|o| o.dur_ns).collect();
        let traced_ms = median_scaled(&roots, 1e-6).unwrap_or(0.0);
        rep.timing(
            "trace.overhead_ms",
            "ms",
            traced_ms - build.p50,
            roots.len(),
        );
        rep.metric(
            "trace.layer_sum_ratio",
            "ratio",
            band_ns / 1e6 / build.p50,
            None,
        );
        rep.count("render.pages", reference.pages.len() as f64);
        rep.metric(
            "render.bytes",
            "bytes",
            reference.total_bytes() as f64,
            None,
        );
        rep.timing(
            "write.publish_ms",
            "ms",
            median_scaled(&write_ns, 1e-6).unwrap_or(0.0),
            write_ns.len(),
        );
        rep.count("write.files", reference.pages.len() as f64);
        rep.metric("write.bytes", "bytes", reference.total_bytes() as f64, None);
        rep.count("wrappers.data_nodes", data_nodes as f64);
    } else {
        rep.timing("build_s", "s", build.p50 / 1e3, build.n);
        match build.tail {
            Some(t) => rep.timing("build_p90_s", "s", t / 1e3, build.n),
            None => rep.warn(format!("{} builds are too few for a p90", build.n)),
        }
        rep.metric(
            "build_pages_per_s",
            "1/s",
            pages_built as f64 / (total_ms / 1e3),
            None,
        );
        let cpu = sorted(cpu_ms);
        rep.timing(
            "build_cpu_ms",
            "ms",
            crate::stats::median(&cpu).expect("builds ran"),
            cpu.len(),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages() -> BTreeMap<String, String> {
        [("index.html", "<p>root</p>"), ("a.html", "<p>a</p>")]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn page_check_catches_a_one_byte_change() {
        let a = pages();
        assert!(pages_match(&a, &a.clone()).is_ok());
        let mut b = a.clone();
        b.insert("a.html".into(), "<p>b</p>".into());
        assert!(pages_match(&a, &b).is_err());
        let mut c = a.clone();
        c.remove("index.html");
        assert!(pages_match(&a, &c).is_err());
    }

    #[test]
    fn disk_check_catches_a_one_byte_change_and_extra_files() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("dircheck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let site = GeneratedSite {
            pages: pages(),
            ..GeneratedSite::default()
        };
        site.write_to_dir(&dir).unwrap();
        assert!(dir_matches(&dir, &site.pages).is_ok());
        std::fs::write(dir.join("a.html"), "<p>A</p>").unwrap();
        assert!(dir_matches(&dir, &site.pages).is_err());
        std::fs::write(dir.join("a.html"), "<p>a</p>").unwrap();
        std::fs::write(dir.join("stray.html"), "").unwrap();
        assert!(dir_matches(&dir, &site.pages).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
