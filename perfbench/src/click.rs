//! `click-hot` and `click-churn`: visitors clicking click-time pages of
//! the news site over HTTP.
//!
//! The server runs as `strudel-cli serve` does by default: event mode,
//! the flight recorder on with its default configuration. The benchmark
//! pins the worker count and the evaluation jobs explicitly. Traffic is
//! zipfian over every page reachable from the roots, ranked by link depth
//! from the front page with seeded tie-breaks, and arrives open-loop on
//! two keep-alive connections.

use crate::cputime;
use crate::load::{backlog_grows, fixed_rate, poisson_schedule, Conns, PhaseResult, SideAction};
use crate::report::{median_scaled, Report, SetupTimes};
use crate::rng::{fnv1a, Rng, Zipf};
use crate::spans::{breakdown, median_band, Tracer, UNATTRIBUTED};
use crate::stats::{median, sorted, tail_percentile, Summary};
use std::collections::{HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use strudel::graph::Value;
use strudel::serve::{page_url, ServeMode, Server, ServerConfig};
use strudel::site::{CacheConfig, Delta, DynStats, DynamicSite, PageRef, Target};

/// What sets `click-churn` apart from `click-hot`.
pub struct Params {
    pub cache: CacheConfig,
    /// `Server::notify` invalidations per second (0 = none).
    pub invalidate_rate: f64,
    /// How many of the most-clicked articles the invalidations rotate over.
    pub hot_articles: usize,
}

/// News site size: the paper's ~300 articles.
const ARTICLES: usize = 300;
/// Server worker threads and evaluation jobs, pinned so the environment
/// cannot change them.
const SERVER_THREADS: usize = 2;
const JOBS: usize = 1;
/// Keep-alive connections the clicks travel on.
const CONNS: usize = 2;
/// Zipf exponent of page popularity.
const ZIPF_S: f64 = 1.1;
/// Fixed-rate phase, requests/s.
const RATE: f64 = 2000.0;
/// p99 limit of the capacity search.
const P99_LIMIT_US: f64 = 5000.0;
/// Requests kept in flight per connection in the saturation phase.
const WINDOW: usize = 16;
/// Windows of the fixed-rate phase; server CPU per click is their median.
const FIXED_WINDOWS: usize = 10;
/// Ladder rungs probed after the fixed-rate phase.
const LADDER_PROBES: usize = 4;
const SETUP_REPS: usize = 7;
/// Direct `expand` calls per replay in the traced run (warm, then cold).
const REPLAY: usize = 2000;

/// The capacity ladder: `RATE × 1.08^k`, adjacent rungs 8 % apart.
fn ladder() -> Vec<f64> {
    (-9..27).map(|k| (RATE * 1.08f64.powi(k)).round()).collect()
}

pub fn hot() -> Params {
    Params {
        cache: CacheConfig::default(),
        invalidate_rate: 0.0,
        hot_articles: 0,
    }
}

pub fn churn() -> Params {
    Params {
        cache: CacheConfig {
            max_entries: 128,
            ..CacheConfig::default()
        },
        invalidate_rate: 100.0,
        hot_articles: 8,
    }
}

/// Every page reachable from the roots, breadth first, with its link depth.
fn reachable(site: &DynamicSite<'_>) -> Result<Vec<(PageRef, u32)>, String> {
    let mut seen: HashSet<PageRef> = HashSet::new();
    let mut queue: VecDeque<(PageRef, u32)> = VecDeque::new();
    let mut out = Vec::new();
    for r in site.roots() {
        if seen.insert(r.clone()) {
            queue.push_back((r, 0));
        }
    }
    while let Some((page, depth)) = queue.pop_front() {
        for link in site
            .expand(&page)
            .map_err(|e| format!("expand {page}: {e}"))?
        {
            if let Target::Page(t) = link.target {
                if seen.insert(t.clone()) {
                    queue.push_back((t, depth + 1));
                }
            }
        }
        out.push((page, depth));
    }
    Ok(out)
}

/// Ranks pages by link depth, breaking ties by a seeded hash of the URL.
pub fn rank_pages(pages: Vec<(PageRef, u32)>, seed: u64) -> Vec<PageRef> {
    let mut keyed: Vec<(u32, u64, String, PageRef)> = pages
        .into_iter()
        .map(|(p, d)| {
            let url = page_url(&p);
            (
                d,
                fnv1a(url.as_bytes()) ^ Rng::new(seed, 11).next_u64(),
                url,
                p,
            )
        })
        .collect();
    keyed.sort_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
    keyed.into_iter().map(|k| k.3).collect()
}

/// Stops the server at `addr` when dropped, also while a panic unwinds,
/// so its thread always ends.
struct QuitOnDrop(SocketAddr);

impl Drop for QuitOnDrop {
    fn drop(&mut self) {
        if let Ok(mut s) = TcpStream::connect(self.0) {
            let _ = s.write_all(b"GET /quit HTTP/1.1\r\nConnection: close\r\n\r\n");
            let mut sink = Vec::new();
            let _ = s.read_to_end(&mut sink);
        }
    }
}

/// Summary of one HTTP phase against the latency limit.
struct Rung {
    rate: f64,
    p99_us: f64,
    failed: usize,
    grows: bool,
    achieved: f64,
}

impl Rung {
    fn of(rate: f64, dur: Duration, r: &PhaseResult, limit_us: f64) -> Self {
        let lat = sorted(r.latencies_or_inf_us());
        let p99_us = crate::stats::percentile(&lat, 0.99).unwrap_or(f64::INFINITY);
        let slack = (rate * limit_us / 1e6).max(4.0);
        let ok = r.outcomes.len() - r.failed();
        Rung {
            rate,
            p99_us,
            failed: r.failed(),
            grows: backlog_grows(&r.outcomes, dur.as_nanos() as u64, slack),
            achieved: ok as f64 / dur.as_secs_f64(),
        }
    }

    fn passes(&self, limit_us: f64) -> bool {
        self.p99_us < limit_us && self.failed == 0 && !self.grows
    }

    fn json(&self) -> String {
        format!(
            r#"{{"rate": {}, "p99_us": {}, "failed": {}, "backlog_grows": {}, "achieved_rps": {}}}"#,
            self.rate,
            crate::report::num(self.p99_us),
            self.failed,
            self.grows,
            self.achieved
        )
    }
}

fn dyn_delta(before: DynStats, after: DynStats) -> DynStats {
    DynStats {
        expansions: after.expansions - before.expansions,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        clause_queries: after.clause_queries - before.clause_queries,
        evictions: after.evictions - before.evictions,
        invalidated: after.invalidated - before.invalidated,
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Runs one click workload. `secs` is the measured duration.
pub fn run(
    p: &Params,
    seed: u64,
    secs: f64,
    traced: bool,
    rep: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    strudel::obs::trace::enable(strudel::obs::trace::TraceConfig::default());
    rep.param("articles", ARTICLES);
    rep.param("cache_max_entries", p.cache.max_entries);
    rep.param("cache_max_bytes", p.cache.max_bytes);
    rep.param("server_threads", SERVER_THREADS);
    rep.param_str("serve_mode", "event");
    rep.param("jobs", JOBS);
    rep.param("connections", CONNS);
    rep.param("zipf_s", ZIPF_S);
    rep.param("fixed_rate_rps", RATE);
    rep.param(
        "ladder_rps",
        format!(
            "[{}]",
            ladder()
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    rep.param("p99_limit_us", P99_LIMIT_US);
    rep.param("invalidate_rate_per_s", p.invalidate_rate);
    rep.param("setup_reps", SETUP_REPS);

    let mut setup = SetupTimes::default();
    let mut refresh_ns = Vec::new();
    let mut dynsite_ns = Vec::new();
    for k in 0..SETUP_REPS {
        let last = k + 1 == SETUP_REPS;
        let t0 = SetupTimes::start();
        let mut s =
            strudel::synth::news::system(ARTICLES, seed, false).map_err(|e| e.to_string())?;
        s.set_jobs(JOBS);
        let t = Instant::now();
        let data = s.data_graph().map_err(|e| e.to_string())?;
        refresh_ns.push(t.elapsed().as_nanos() as u64);
        let data_nodes = data.node_count();
        // Headline edges of every article, for invalidation deltas later
        // (the universe and its node ids stay fixed: the data never
        // changes in these workloads).
        let headline = data.sym("headline");
        let headlines: Vec<(strudel::graph::Oid, Value)> = data
            .nodes()
            .iter()
            .filter_map(|&n| {
                let v = data
                    .out_edges(n)
                    .into_iter()
                    .find(|(l, _)| *l == headline)?
                    .1;
                Some((n, v))
            })
            .collect();
        let t = Instant::now();
        let site = s.dynamic_site_with(p.cache).map_err(|e| e.to_string())?;
        dynsite_ns.push(t.elapsed().as_nanos() as u64);
        let config = ServerConfig {
            threads: SERVER_THREADS,
            mode: ServeMode::Event,
            ..ServerConfig::default()
        };
        let server = Server::bind_with(site, "127.0.0.1:0", config).map_err(|e| e.to_string())?;
        let addr = server.addr().map_err(|e| e.to_string())?;
        std::thread::scope(|sc| {
            let serving = sc.spawn(|| server.serve(None));
            let quit = QuitOnDrop(addr);
            let result = (|| -> Result<(), String> {
                let ranked = rank_pages(reachable(server.site())?, seed);
                let urls: Vec<String> = ranked.iter().map(page_url).collect();
                let zipf = Zipf::new(urls.len(), ZIPF_S);
                let mut conns = Conns::open(addr, CONNS).map_err(|e| e.to_string())?;
                // Reference bodies, fetched in order on one connection;
                // this also warms the connection and every page.
                let mut refs = Vec::with_capacity(urls.len());
                for (u, (status, body)) in urls
                    .iter()
                    .zip(conns.get_all(&urls).map_err(|e| e.to_string())?)
                {
                    if status != 200 {
                        return Err(format!("GET {u}: status {status}"));
                    }
                    refs.push(body);
                }
                setup.record(&t0);
                if !last {
                    return Ok(());
                }
                rep.param("pages", urls.len());
                rep.param("data_nodes", data_nodes);
                let hot: Vec<Delta> = ranked
                    .iter()
                    .filter(|pg| pg.skolem == "ArticlePage")
                    .filter_map(|pg| match pg.args.first() {
                        Some(Value::Node(n)) => headlines.iter().find(|(h, _)| h == n),
                        _ => None,
                    })
                    .take(p.hot_articles)
                    .map(|(n, v)| Delta::EdgeAdded {
                        from: *n,
                        label: headline,
                        to: v.clone(),
                    })
                    .collect();
                let ctx = Ctx {
                    p,
                    server: &server,
                    urls: &urls,
                    refs: &refs,
                    zipf: &zipf,
                    hot: &hot,
                    seed,
                    secs,
                };
                if traced {
                    measure_layers(&ctx, &mut conns, rep, tracer, data_nodes)?;
                } else {
                    measure_end_to_end(&ctx, &mut conns, rep)?;
                }
                Ok(())
            })();
            drop(quit);
            let served = serving.join().expect("server thread panicked");
            result.and(served.map_err(|e| e.to_string()))
        })?;
    }
    if traced {
        let refresh = median_scaled(&refresh_ns, 1e-6).expect("setup ran");
        rep.timing("wrappers.refresh_ms", "ms", refresh, refresh_ns.len());
        let dynsite = median_scaled(&dynsite_ns, 1e-6).expect("setup ran");
        rep.timing("eval.dynamic_site_ms", "ms", dynsite, dynsite_ns.len());
    }
    setup.report(rep);
    Ok(())
}

struct Ctx<'a, 'g> {
    p: &'a Params,
    server: &'a Server<'g>,
    urls: &'a [String],
    refs: &'a [Vec<u8>],
    zipf: &'a Zipf,
    hot: &'a [Delta],
    seed: u64,
    secs: f64,
}

impl Ctx<'_, '_> {
    /// One open-loop phase at `rate` for `dur`, with the workload's
    /// invalidations interleaved on connection 0.
    fn phase(&self, conns: &mut Conns, rate: f64, dur: Duration, stream: u64) -> PhaseResult {
        let mut rng = Rng::new(self.seed, stream);
        let sched = poisson_schedule(&mut rng, rate, dur, self.zipf, conns.len());
        let side_due = if self.hot.is_empty() {
            Vec::new()
        } else {
            fixed_rate(self.p.invalidate_rate, dur)
        };
        let server = self.server;
        let hot = self.hot;
        let notify = move |k: usize| {
            server.notify(&hot[k % hot.len()]);
        };
        let side: Option<SideAction<'_>> =
            (!side_due.is_empty()).then_some((&side_due[..], &notify));
        conns.run(&sched, self.urls, self.refs, side)
    }
}

fn measure_end_to_end(
    ctx: &Ctx<'_, '_>,
    conns: &mut Conns,
    rep: &mut Report,
) -> Result<(), String> {
    let fixed_dur = Duration::from_secs_f64(ctx.secs * 0.5);
    let sat_dur = Duration::from_secs_f64(ctx.secs * 0.25);
    let rung_dur = Duration::from_secs_f64(ctx.secs * 0.25 / LADDER_PROBES as f64);

    // Open loop at the fixed rate, in back-to-back windows. The server's
    // CPU time per click is the process's CPU time minus the load
    // generator's own threads, per window; the median over the windows
    // keeps a burst of interference from the host out of it.
    let win_dur = fixed_dur / FIXED_WINDOWS as u32;
    let mut per_click = Vec::with_capacity(FIXED_WINDOWS);
    let mut fixed: Option<PhaseResult> = None;
    for w in 0..FIXED_WINDOWS {
        let cpu0 = cputime::process_ns();
        let r = ctx.phase(conns, RATE, win_dur, 1000 + w as u64);
        let server_cpu = cputime::process_ns() - cpu0 - r.client_cpu_ns;
        let answered = r.outcomes.len() - r.failed();
        per_click.push(server_cpu as f64 / 1e3 / answered.max(1) as f64);
        match &mut fixed {
            Some(f) => f.append(r, w as u64 * win_dur.as_nanos() as u64),
            None => fixed = Some(r),
        }
    }
    let fixed = fixed.expect("at least one window");
    rep.ops(fixed.outcomes.len() as u64, fixed.failed() as u64);
    let per_click = sorted(per_click);
    rep.timing(
        "click_server_cpu_us",
        "us",
        median(&per_click).expect("windows ran"),
        per_click.len(),
    );
    let lat = Summary::of(fixed.latencies_us(), 0.99).ok_or("no click succeeded")?;
    rep.timing("click_p50_us", "us", lat.p50, lat.n);
    match lat.tail {
        Some(t) => rep.timing("click_p99_us", "us", t, lat.n),
        None => rep.warn(format!("{} clicks are too few for a p99", lat.n)),
    }
    let lag = sorted(fixed.lag_us());
    let lag_p99 = tail_percentile(&lag, 0.99).unwrap_or(f64::NAN);
    rep.timing(
        "click_gen_lag_p50_us",
        "us",
        median(&lag).unwrap_or(f64::NAN),
        lag.len(),
    );
    rep.timing("click_gen_lag_p99_us", "us", lag_p99, lag.len());
    if lag_p99 > P99_LIMIT_US {
        rep.warn(format!("generator ran late: lag p99 {lag_p99:.0} µs"));
    }
    if !fixed.side_ns.is_empty() {
        let inv = median_scaled(&fixed.side_ns, 1e-3).expect("non-empty");
        rep.timing("click_invalidate_us", "us", inv, fixed.side_ns.len());
    }

    // Closed loop at saturation: the most clicks per second the server
    // answers with WINDOW requests waiting on each connection.
    let mut rng = Rng::new(ctx.seed, 150);
    let seq: Vec<u32> = (0..65_536)
        .map(|_| ctx.zipf.sample(&mut rng) as u32)
        .collect();
    let cpu0 = cputime::process_ns();
    let (in_time, attempted, failed, client_cpu) =
        conns.saturate(&seq, ctx.urls, ctx.refs, WINDOW, sat_dur);
    let server_cpu = cputime::process_ns() - cpu0 - client_cpu;
    rep.ops(attempted, failed);
    rep.metric(
        "click_saturated_rps",
        "1/s",
        in_time as f64 / sat_dur.as_secs_f64(),
        None,
    );
    rep.timing(
        "click_saturated_server_cpu_us",
        "us",
        server_cpu as f64 / 1e3 / (attempted - failed).max(1) as f64,
        (attempted - failed) as usize,
    );

    // Capacity: bisect the fixed ladder for the highest rung whose p99 is
    // under the limit with no failure and no growing backlog. The fixed
    // phase is the probe of its own rung.
    let ladder = ladder();
    let home = ladder
        .iter()
        .position(|&r| r == RATE)
        .expect("ladder holds the fixed rate");
    let first = Rung::of(RATE, fixed_dur, &fixed, P99_LIMIT_US);
    let (mut lo, mut hi) = if first.passes(P99_LIMIT_US) {
        (Some((home, first.achieved)), ladder.len())
    } else {
        (None, home)
    };
    let mut rungs = vec![first.json()];
    for probe in 0..LADDER_PROBES {
        let below = lo.map_or(0, |(i, _)| i + 1);
        if below >= hi {
            break;
        }
        let mid = (below + hi - 1) / 2;
        let r = ctx.phase(conns, ladder[mid], rung_dur, 200 + probe as u64);
        rep.ops(r.outcomes.len() as u64, r.failed() as u64);
        let rung = Rung::of(ladder[mid], rung_dur, &r, P99_LIMIT_US);
        rungs.push(rung.json());
        if rung.passes(P99_LIMIT_US) {
            lo = Some((mid, rung.achieved));
        } else {
            hi = mid;
        }
    }
    rep.param("capacity_probes", format!("[{}]", rungs.join(", ")));
    match lo {
        Some((_, capacity)) => rep.metric("click_capacity_rps", "1/s", capacity, None),
        None => {
            rep.warn("no ladder rung met the latency limit".into());
            rep.metric("click_capacity_rps", "1/s", 0.0, None);
        }
    }
    Ok(())
}

fn measure_layers(
    ctx: &Ctx<'_, '_>,
    conns: &mut Conns,
    rep: &mut Report,
    tracer: &mut Tracer,
    data_nodes: usize,
) -> Result<(), String> {
    let site = ctx.server.site();
    let half = Duration::from_secs_f64(ctx.secs * 0.4);
    let serve0 = ctx.server.stats();
    let dyn0 = site.stats();
    let plan0 = site.plan_cache_stats();
    let path0 = site.path_cache_stats();

    // The same fixed-rate phase twice: untraced, then with a span per click.
    let plain = ctx.phase(conns, RATE, half, 100);
    let traced = ctx.phase(conns, RATE, half, 101);
    for r in [&plain, &traced] {
        rep.ops(r.outcomes.len() as u64, r.failed() as u64);
    }
    for o in &traced.outcomes {
        if let Some(done) = o.done_ns {
            tracer.push_root("click", o.due_ns, done);
        }
    }
    let serve1 = ctx.server.stats();
    let dyn1 = site.stats();
    let plan1 = site.plan_cache_stats();
    let path1 = site.path_cache_stats();
    let cache_bytes = site.cache_bytes();

    // Direct replay of a sample of the same URL mix: warm, then each
    // after `cache_clear`.
    let mut rng = Rng::new(ctx.seed, 300);
    let sample: Vec<PageRef> = (0..REPLAY)
        .map(|_| {
            strudel::serve::parse_page_url(&ctx.urls[ctx.zipf.sample(&mut rng)]).expect("own URL")
        })
        .collect();
    let mut warm = Vec::with_capacity(sample.len());
    tracer.set_enabled(true);
    for page in &sample {
        let t = Instant::now();
        let links = tracer.span("cache.expand", || site.expand(page));
        warm.push(t.elapsed().as_nanos() as f64 / 1e3);
        links.map_err(|e| e.to_string())?;
    }
    let mut cold = Vec::with_capacity(sample.len());
    for page in &sample {
        site.cache_clear();
        let t = Instant::now();
        let links = tracer.span("eval.expand_miss", || site.expand(page));
        cold.push(t.elapsed().as_nanos() as f64 / 1e3);
        links.map_err(|e| e.to_string())?;
    }
    tracer.set_enabled(false);
    rep.ops(2 * sample.len() as u64, 0);

    let click_plain = Summary::of(plain.latencies_us(), 0.99).ok_or("no click succeeded")?;
    let click = Summary::of(traced.latencies_us(), 0.99).ok_or("no click succeeded")?;
    let hit = Summary::of(warm, 0.99).expect("replayed");
    let miss = Summary::of(cold, 0.99).expect("replayed");
    rep.timing("serve.self_us", "us", click.p50 - hit.p50, click.n);
    let d = |a: u64, b: u64| (b - a) as f64;
    rep.count("serve.requests", d(serve0.requests, serve1.requests));
    rep.count("serve.errors", d(serve0.errors, serve1.errors));
    rep.count(
        "serve.keepalive_reuses",
        d(serve0.keepalive_reuses, serve1.keepalive_reuses),
    );
    rep.count(
        "serve.admission_rejected",
        d(serve0.admission_rejected, serve1.admission_rejected),
    );
    rep.count(
        "serve.connections_aborted",
        d(serve0.connections_aborted, serve1.connections_aborted),
    );
    let lag = sorted(traced.lag_us());
    rep.timing(
        "serve.gen_lag_ms",
        "ms",
        tail_percentile(&lag, 0.99).unwrap_or(f64::NAN) / 1e3,
        lag.len(),
    );

    let dd = dyn_delta(dyn0, dyn1);
    rep.metric(
        "cache.hit_ratio",
        "ratio",
        ratio(dd.cache_hits, dd.cache_misses),
        None,
    );
    rep.timing("cache.expand_hit_us", "us", hit.p50, hit.n);
    rep.count("cache.evictions", dd.evictions as f64);
    rep.count("cache.invalidated", dd.invalidated as f64);
    let side: Vec<u64> = plain
        .side_ns
        .iter()
        .chain(&traced.side_ns)
        .copied()
        .collect();
    rep.timing(
        "cache.invalidate_us",
        "us",
        median_scaled(&side, 1e-3).unwrap_or(0.0),
        side.len(),
    );
    rep.metric("cache.bytes", "bytes", cache_bytes as f64, None);

    rep.timing("eval.expand_miss_p50_us", "us", miss.p50, miss.n);
    rep.timing(
        "eval.expand_miss_p99_us",
        "us",
        miss.tail.unwrap_or(f64::NAN),
        miss.n,
    );
    rep.count("eval.clause_queries", dd.clause_queries as f64);
    rep.metric(
        "eval.plan_cache_hit_ratio",
        "ratio",
        ratio(plan1.hits - plan0.hits, plan1.misses - plan0.misses),
        None,
    );
    rep.metric(
        "eval.path_cache_hit_ratio",
        "ratio",
        ratio(path1.hits - path0.hits, path1.misses - path0.misses),
        None,
    );
    rep.count("wrappers.data_nodes", data_nodes as f64);
    // Clicks have no child spans from outside the server, so a click's
    // whole duration is unattributed; the replay above splits it.
    rep.timing(
        "trace.overhead_ms",
        "ms",
        (click.p50 - click_plain.p50) / 1e3,
        click.n,
    );
    let ops = breakdown(tracer.spans());
    let clicks: Vec<_> = ops.iter().filter(|o| o.root == "click").collect();
    let (_, parts) = median_band(&clicks).ok_or("no click was traced")?;
    rep.timing(
        "trace.unattributed_ms",
        "ms",
        parts[UNATTRIBUTED] / 1e6,
        clicks.len(),
    );
    Ok(())
}
