//! `update`: data owners editing the news site through its paged store.
//!
//! The news data graph is imported into a `PagedStore` and registered as a
//! store source. Each edit commits one changed article headline through
//! `PagedStore::open` → `begin` → `commit`, then makes it visible the way
//! the system can today: mark the warehouse stale, refresh it, build a
//! click-time site over the new data graph and expand the edited article's
//! page (found by object name, since node ids change on every refresh).
//! Edit-to-visible time runs from the start of the commit until that
//! expansion returns the new value.
//!
//! The number of edits is fixed, and they are spread evenly over the run:
//! every refresh re-adopts all store nodes into the never-shrinking
//! universe and the write-ahead log grows until a checkpoint, so both the
//! latency and the memory drift with the number of edits.

use crate::cputime;
use crate::report::{median_scaled, Report, SetupTimes};
use crate::rng::Rng;
use crate::spans::{breakdown, median_band, Tracer, UNATTRIBUTED};
use crate::stats::{sorted, Summary};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use strudel::graph::graph::Universe;
use strudel::graph::store::{PagedStore, WireValue};
use strudel::graph::{storage_stats, Graph, Value};
use strudel::site::{CacheConfig, DynamicSite, OutLink, PageRef, Target};
use strudel::synth::news;
use strudel::wrappers::mediator::node_named;
use strudel::Strudel;

/// News site size: the paper's ~300 articles.
const ARTICLES: usize = 300;
/// Edits per run, whatever its length, so runs compare despite the drift
/// with edit count. A p95 with ten samples beyond needs 200; 240 leave 12.
const EDITS: usize = 240;
/// Evaluation jobs, pinned so the environment cannot change them.
const JOBS: usize = 1;
const SETUP_REPS: usize = 9;

/// Tail percentile reported for edit-to-visible times.
pub const TAIL_Q: f64 = 0.95;

const LABEL: &str = "headline";
const PAGE: &str = "ArticlePage";

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The store-backed system plus what edits need to address articles.
struct Prepared {
    path: PathBuf,
    system: Strudel,
    /// Article object names, with their dense store index and current
    /// headline.
    articles: Vec<(String, u32, String)>,
}

fn prepare(seed: u64, dir: &Path) -> Result<Prepared, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(err)?;
    let path = dir.join("news.pdb");
    let graph = strudel::graph::ddl::parse(&news::generate_ddl(ARTICLES, seed)).map_err(err)?;
    let mut store = PagedStore::import(&path, &graph).map_err(err)?;
    let g = store.graph().map_err(err)?;
    let label = g.sym(LABEL);
    let mut articles = Vec::new();
    for (i, &n) in g.nodes().iter().enumerate() {
        let Some(name) = g.node_name(n) else { continue };
        let headline = g.out_edges(n).into_iter().find_map(|(l, v)| match v {
            Value::Str(s) if l == label => Some(s.to_string()),
            _ => None,
        });
        if let Some(h) = headline {
            articles.push((name.to_string(), i as u32, h));
        }
    }
    drop(store);
    if articles.len() != ARTICLES {
        return Err(format!(
            "{} articles with a headline, expected {}",
            articles.len(),
            ARTICLES
        ));
    }
    let mut system = Strudel::new();
    system.set_jobs(JOBS);
    system.add_store_source("articles", &path);
    system.add_site_query(news::SITE_QUERY).map_err(err)?;
    // Warm-up: one refresh and one expansion.
    let site = system
        .dynamic_site_with(CacheConfig::default())
        .map_err(err)?;
    site.expand(&site.roots()[0]).map_err(err)?;
    drop(site);
    Ok(Prepared {
        path,
        system,
        articles,
    })
}

/// A page's links with node ids replaced by object names, so pages from
/// systems with different universes compare.
fn canonical(
    site: &DynamicSite<'_>,
    universe: &Universe,
    page: &PageRef,
) -> Result<Vec<String>, String> {
    let name = |v: &Value| match v {
        Value::Node(n) => format!("node:{}", universe.node_name(*n).as_deref().unwrap_or("?")),
        other => format!("{other:?}"),
    };
    Ok(site
        .expand(page)
        .map_err(err)?
        .iter()
        .map(|OutLink { label, target }| match target {
            Target::Page(p) => {
                let args: Vec<String> = p.args.iter().map(name).collect();
                format!("{label} -> {}({})", p.skolem, args.join(","))
            }
            Target::Value(v) => format!("{label} -> {}", name(v)),
        })
        .collect())
}

/// The output check for one edit: the expanded page shows the new
/// headline and not the old one.
pub fn shows_edit(links: &[OutLink], new: &str, old: &str) -> bool {
    let has = |s: &str| {
        links.iter().any(|l| {
            l.label == LABEL && matches!(&l.target, Target::Value(Value::Str(v)) if &**v == s)
        })
    };
    has(new) && (new == old || !has(old))
}

fn article_page(data: &Graph, name: &str) -> Result<PageRef, String> {
    let n = node_named(data, name).ok_or_else(|| format!("no object named {name}"))?;
    Ok(PageRef {
        skolem: PAGE.into(),
        args: vec![Value::Node(n)],
    })
}

/// One edit, timed from the start of the commit until the edited page
/// shows the new value. Each step runs in its own span.
fn edit(
    s: &mut Strudel,
    path: &Path,
    article: &(String, u32, String),
    new: &str,
    t: &mut Tracer,
    clause_queries: &mut u64,
) -> Result<bool, String> {
    let (name, idx, old) = article;
    let root = t.enter("edit");
    let mut store = t
        .span("store.open", || PagedStore::open(path))
        .map_err(err)?;
    t.span("store.commit", || {
        let mut txn = store.begin();
        txn.remove_edge(*idx, LABEL, WireValue::Str(old.clone()));
        txn.add_edge(*idx, LABEL, WireValue::Str(new.to_string()));
        let rev = txn.commit();
        drop(store);
        rev
    })
    .map_err(err)?;
    t.span("wrappers.refresh", || {
        s.mediator_mut().mark_stale();
        s.data_graph().map(|_| ())
    })
    .map_err(err)?;
    let page = article_page(s.data_graph().map_err(err)?, name)?;
    let site = t
        .span("eval.dynamic_site", || {
            s.dynamic_site_with(CacheConfig::default())
        })
        .map_err(err)?;
    let links = t
        .span("eval.expand_edited", || site.expand(&page))
        .map_err(err)?;
    t.exit(root);
    *clause_queries += site.stats().clause_queries;
    Ok(shows_edit(&links, new, old))
}

pub fn run(
    seed: u64,
    secs: f64,
    traced: bool,
    out: &Path,
    rep: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    rep.param("articles", ARTICLES);
    rep.param("edits", EDITS);
    rep.param("jobs", JOBS);
    rep.param("setup_reps", SETUP_REPS);
    rep.param_str("edited_attribute", LABEL);

    let base = out.join(format!("update-{}", std::process::id()));
    let mut setup = SetupTimes::default();
    let mut prepared = None;
    for k in 0..SETUP_REPS {
        drop(prepared.take());
        let t0 = SetupTimes::start();
        prepared = Some(prepare(seed, &base.join(format!("rep{k}")))?);
        setup.record(&t0);
    }
    let Prepared {
        path,
        system: mut s,
        mut articles,
    } = prepared.expect("at least one set-up");

    let mut rng = Rng::new(seed, 500);
    let stats0 = storage_stats();
    let pace = Duration::from_secs_f64(secs / EDITS as f64);
    let start = Instant::now();
    let mut plain_ms = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut edited = BTreeSet::new();
    let mut clause_queries = 0;
    for i in 0..EDITS {
        let due = start + pace * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let a = rng.below(articles.len());
        let new = format!("Edited headline {i} (seed {seed})");
        tracer.set_enabled(traced && i % 2 == 1);
        let (t, cpu) = (Instant::now(), cputime::process_ns());
        let ok = edit(
            &mut s,
            &path,
            &articles[a],
            &new,
            tracer,
            &mut clause_queries,
        )?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu = (cputime::process_ns() - cpu) as f64 / 1e6;
        tracer.set_enabled(false);
        if !(traced && i % 2 == 1) {
            plain_ms.push(ms);
            cpu_ms.push(cpu);
        }
        if !ok {
            eprintln!("perfbench: edit {i} of {} not visible", articles[a].0);
        }
        rep.ops(1, u64::from(!ok));
        articles[a].2 = new;
        edited.insert(a);
    }
    let busy_ms: f64 = plain_ms.iter().sum();
    let stats1 = storage_stats();
    let wal_bytes = PagedStore::open(&path).map_err(err)?.wal_size();

    // Final check: the edited pages equal those of a cold system built
    // over the store's final revision, and show the last value written.
    let mut cold = Strudel::new();
    cold.set_jobs(JOBS);
    cold.add_store_source("articles", &path);
    cold.add_site_query(news::SITE_QUERY).map_err(err)?;
    let mut mismatched = 0;
    let mut pages = Vec::new();
    for &a in &edited {
        let name = &articles[a].0;
        let warm = article_page(s.data_graph().map_err(err)?, name)?;
        let cold = article_page(cold.data_graph().map_err(err)?, name)?;
        pages.push((a, warm, cold));
    }
    let (warm_universe, cold_universe) = (s.universe().clone(), cold.universe().clone());
    let warm_nodes = s.data_graph().map_err(err)?.node_count();
    let cold_site = cold
        .dynamic_site_with(CacheConfig::default())
        .map_err(err)?;
    let warm_site = s.dynamic_site_with(CacheConfig::default()).map_err(err)?;
    for (a, warm_page, cold_page) in &pages {
        let (name, _, last) = &articles[*a];
        let w = canonical(&warm_site, &warm_universe, warm_page)?;
        let c = canonical(&cold_site, &cold_universe, cold_page)?;
        let shows = shows_edit(&cold_site.expand(cold_page).map_err(err)?, last, last);
        if w != c || !shows {
            eprintln!("perfbench: {name} differs from a cold build of the final revision");
            mismatched += 1;
        }
    }
    rep.ops(edited.len() as u64, mismatched);
    rep.param("pages_checked_cold", edited.len());

    setup.report(rep);
    let n_plain = plain_ms.len();
    let vis = Summary::of(plain_ms, TAIL_Q).expect("edits ran");
    if traced {
        let ops = breakdown(tracer.spans());
        let edits: Vec<_> = ops.iter().filter(|o| o.root == "edit").collect();
        let (band_ns, parts) = median_band(&edits).expect("traced operations ran");
        for (name, metric) in [
            ("store.open", "store.open_ms"),
            ("store.commit", "store.commit_ms"),
            ("wrappers.refresh", "wrappers.refresh_ms"),
            ("eval.dynamic_site", "eval.dynamic_site_ms"),
            ("eval.expand_edited", "eval.expand_edited_ms"),
            (UNATTRIBUTED, "trace.unattributed_ms"),
        ] {
            let v = parts.get(name).copied().unwrap_or(0.0) / 1e6;
            rep.timing(metric, "ms", v, edits.len());
        }
        let roots: Vec<u64> = edits.iter().map(|o| o.dur_ns).collect();
        let traced_ms = median_scaled(&roots, 1e-6).unwrap_or(0.0);
        rep.timing("trace.overhead_ms", "ms", traced_ms - vis.p50, roots.len());
        rep.metric(
            "trace.layer_sum_ratio",
            "ratio",
            band_ns / 1e6 / vis.p50,
            None,
        );
        let per_edit = |a: u64, b: u64| (b - a) as f64 / EDITS as f64;
        rep.metric(
            "store.wal_bytes_per_edit",
            "bytes",
            per_edit(stats0.wal_bytes, stats1.wal_bytes),
            None,
        );
        rep.count(
            "store.fsyncs_per_edit",
            per_edit(stats0.wal_fsyncs, stats1.wal_fsyncs),
        );
        rep.count(
            "store.checkpoints",
            (stats1.wal_checkpoints - stats0.wal_checkpoints) as f64,
        );
        rep.count(
            "store.page_reads",
            (stats1.page_reads - stats0.page_reads) as f64,
        );
        rep.count("wrappers.data_nodes", warm_nodes as f64);
        rep.count("eval.clause_queries", clause_queries as f64);
        let plan = warm_site.plan_cache_stats();
        let path_stats = warm_site.path_cache_stats();
        let ratio = |h: u64, m: u64| {
            if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            }
        };
        rep.metric(
            "eval.plan_cache_hit_ratio",
            "ratio",
            ratio(plan.hits, plan.misses),
            None,
        );
        rep.metric(
            "eval.path_cache_hit_ratio",
            "ratio",
            ratio(path_stats.hits, path_stats.misses),
            None,
        );
    } else {
        rep.timing("edit_visible_p50_ms", "ms", vis.p50, vis.n);
        match vis.tail {
            Some(t) => rep.timing("edit_visible_p95_ms", "ms", t, vis.n),
            None => rep.warn(format!("{} edits are too few for a p95", vis.n)),
        }
        rep.metric(
            "edits_per_busy_s",
            "1/s",
            n_plain as f64 / (busy_ms / 1e3),
            None,
        );
        let cpu = sorted(cpu_ms);
        rep.timing(
            "edit_cpu_ms",
            "ms",
            crate::stats::median(&cpu).expect("edits ran"),
            cpu.len(),
        );
    }
    rep.param("wal_bytes_at_end", wal_bytes);
    drop(warm_site);
    drop(cold_site);
    std::fs::remove_dir_all(&base).map_err(err)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(label: &str, v: &str) -> OutLink {
        OutLink {
            label: label.into(),
            target: Target::Value(Value::str(v)),
        }
    }

    #[test]
    fn the_edit_count_supports_the_reported_tail() {
        assert!(EDITS >= crate::stats::min_samples_for(TAIL_Q));
    }

    #[test]
    fn edit_check_catches_a_one_byte_change() {
        let links = vec![link("byline", "x"), link(LABEL, "New title")];
        assert!(shows_edit(&links, "New title", "Old title"));
        assert!(!shows_edit(&links, "New titlf", "Old title"));
        let stale = vec![link(LABEL, "New title"), link(LABEL, "Old title")];
        assert!(!shows_edit(&stale, "New title", "Old title"));
        assert!(!shows_edit(
            &[link("summary", "New title")],
            "New title",
            "Old title"
        ));
    }
}
