//! Serving a dynamically evaluated site over HTTP (§6).
//!
//! "In practice, dynamic generation is supported by often large groups of
//! loosely related CGI programs. Supporting dynamic evaluation would
//! eliminate writing such programs by hand." This module is that support: a
//! dependency-free HTTP/1.1 server whose pages are computed at click time
//! by [`DynamicSite::expand`] — only the roots are precomputed, and the
//! evaluator's shared cache answers repeat clicks from any worker thread.
//!
//! One readiness loop (`event`) owns every socket through a vendored epoll
//! stand-in (a portable condvar fallback off x86_64 Linux), driving
//! non-blocking connections with HTTP/1.1 keep-alive, request pipelining,
//! whole-request deadlines, a write timeout for peers that stop reading,
//! and admission control; page expansion runs on a scoped worker pool over
//! the shared [`DynamicSite`]. The loop uses the HTTP framing (`http`), the
//! router (`router`), the URL scheme (`url`), and the metrics (`metrics`).

mod conn;
mod event;
mod http;
mod metrics;
mod router;
mod url;

pub use self::metrics::ServeStats;
pub use self::url::{decode_value, encode_value, page_url, parse_page_url};

use crate::error::Result;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use strudel_site::{Delta, DynamicSite, PageRef};

/// How the server drives its connections. The event loop is the only
/// mode; the type remains because existing callers (the benchmark harness)
/// name it in their [`ServerConfig`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServeMode {
    /// Event-driven: one readiness loop multiplexes every socket with
    /// keep-alive, pipelining, and admission control; workers only expand
    /// pages.
    #[default]
    Event,
}

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads answering requests (minimum 1).
    pub threads: usize,
    /// Whole-request deadline: the time allowed from a request's first
    /// byte until its head completes. Also the write timeout: a connection
    /// whose queued response makes no write progress for this long (the
    /// peer stopped reading) is closed.
    pub request_timeout: Duration,
    /// How long an idle keep-alive connection may rest between requests
    /// before the server closes it.
    pub keepalive_timeout: Duration,
    /// Maximum accepted request-head size in bytes.
    pub max_request_bytes: usize,
    /// Admission control: connections beyond this many already open are
    /// answered with a static 503 and closed.
    pub max_connections: usize,
    /// Connection-handling mode; [`ServeMode::Event`] is the only one. Kept
    /// so existing configurations that set it still compile.
    pub mode: ServeMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            request_timeout: Duration::from_secs(5),
            keepalive_timeout: Duration::from_secs(5),
            max_request_bytes: 16 * 1024,
            max_connections: 1024,
            mode: ServeMode::Event,
        }
    }
}

/// A running click-time server over one shared [`DynamicSite`].
pub struct Server<'g> {
    site: DynamicSite<'g>,
    listener: TcpListener,
    roots: Vec<PageRef>,
    config: ServerConfig,
    metrics: metrics::Metrics,
    started: Instant,
    /// Readiness for `/healthz`: flips true once [`Server::serve`] enters
    /// its accept loop (site built, store open, listener bound). Liveness
    /// is implied by answering at all.
    ready: AtomicBool,
}

impl<'g> Server<'g> {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) with the
    /// default configuration.
    pub fn bind(site: DynamicSite<'g>, addr: &str) -> std::io::Result<Self> {
        Self::bind_with(site, addr, ServerConfig::default())
    }

    /// Binds `addr` with an explicit configuration.
    pub fn bind_with(
        site: DynamicSite<'g>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let roots = site.roots();
        Ok(Server {
            site,
            listener,
            roots,
            config,
            metrics: metrics::Metrics::default(),
            started: Instant::now(),
            ready: AtomicBool::new(false),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared evaluator (for cache configuration checks and stats).
    pub fn site(&self) -> &DynamicSite<'g> {
        &self.site
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Request counters so far.
    pub fn stats(&self) -> ServeStats {
        self.metrics.snapshot()
    }

    /// Notifies the server of a data-graph change: forwards `delta` to the
    /// shared evaluator's cache invalidation and returns the number of
    /// cached expansions dropped. Insertions and removals are handled
    /// symmetrically; a removal delta may be delivered before or after the
    /// underlying graph mutation (seed matching needs only the interner,
    /// not the edge's presence). The next request for an affected page
    /// recomputes it; untouched entries keep answering from the warm cache
    /// (the `invalidated` counter is visible under `/stats`).
    pub fn notify(&self, delta: &Delta) -> u64 {
        self.site.invalidate(delta)
    }

    /// Serves until `max_conns` connections have been accepted (`None` =
    /// forever) or a request for `/quit` arrives (always honored, so tests
    /// and scripts can stop the server remotely). In-flight requests
    /// finish before this returns, or are cut by the write timeout. One
    /// accepted keep-alive connection may carry many requests. Every caller
    /// passes `None`; the parameter remains only because the benchmark
    /// harness's call names it, and goes when that call changes (see
    /// ROADMAP.md).
    pub fn serve(&self, max_conns: Option<usize>) -> Result<()> {
        self.ready.store(true, Ordering::Release);
        let result = event::run(self, max_conns);
        self.ready.store(false, Ordering::Release);
        result
    }

    /// Whether the server is ready to answer page requests (the accept
    /// loop is running). `/healthz` reports this.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use strudel_graph::Value;
    use strudel_site::CacheConfig;
    use strudel_struql::EvalOptions;

    fn demo_site() -> (strudel_graph::Graph, strudel_struql::Query) {
        let data = strudel_graph::ddl::parse(
            r#"
object a1 in Articles { headline "one" section "world" }
object a2 in Articles { headline "two" section "world" }
"#,
        )
        .unwrap();
        let query = strudel_struql::parse_query(
            r#"CREATE FrontPage()
               { WHERE Articles(a), a -> l -> v
                 CREATE Page(a)
                 LINK Page(a) -> l -> v, FrontPage() -> "Story" -> Page(a) }"#,
        )
        .unwrap();
        (data, query)
    }

    fn fetch(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(
            format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        buf
    }

    /// Sends `/quit` when dropped, so a client that panics mid-test still
    /// stops the server and the test fails instead of hanging.
    struct QuitOnDrop(SocketAddr);

    impl Drop for QuitOnDrop {
        fn drop(&mut self) {
            if let Ok(mut s) = TcpStream::connect(self.0) {
                let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
                let _ = s.write_all(b"GET /quit HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
                let mut sink = Vec::new();
                let _ = s.read_to_end(&mut sink);
            }
        }
    }

    /// Serves `server` while `client` runs on its own thread; the server
    /// stops when the client returns or panics, and a client panic fails
    /// the test.
    fn serve_client(server: &Server<'_>, client: impl FnOnce(SocketAddr) + Send + 'static) {
        let addr = server.addr().unwrap();
        let handle = std::thread::spawn(move || {
            let _quit = QuitOnDrop(addr);
            client(addr);
        });
        server.serve(None).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn serves_roots_pages_and_errors_over_tcp() {
        let (data, query) = demo_site();
        let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
        let server = Server::bind(site, "127.0.0.1:0").unwrap();

        serve_client(&server, move |addr| {
            let root = fetch(addr, "/");
            assert!(root.contains("FrontPage"), "{root}");
            let front = fetch(addr, "/page/FrontPage");
            assert!(front.contains("Story"), "{front}");
            assert!(front.contains("/page/Page/n"), "{front}");
            // Follow a story link.
            let href = front
                .split("href=\"/page/Page/")
                .nth(1)
                .map(|s| format!("/page/Page/{}", &s[..s.find('"').unwrap()]))
                .expect("a story href");
            let story = fetch(addr, &href);
            assert!(story.contains("headline"), "{story}");
            assert!(fetch(addr, "/page/Bad/%%%").contains("400"));
            assert!(fetch(addr, "/nope").contains("404"));
            let stats = fetch(addr, "/stats");
            assert!(stats.contains("\"requests\""), "{stats}");
            assert!(stats.contains("\"p50\""), "{stats}");
            assert!(stats.contains("\"hits\""), "{stats}");
        });
        let stats = server.stats();
        assert!(stats.requests >= 7, "{stats:?}");
        assert!(stats.errors >= 2, "{stats:?}"); // the 400 and the 404
    }

    /// `/metrics` over a live server: well-formed Prometheus text
    /// exposition whose counters agree with the traffic just sent.
    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let (data, query) = demo_site();
        let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
        let server = Server::bind(site, "127.0.0.1:0").unwrap();

        serve_client(&server, move |addr| {
            assert!(fetch(addr, "/page/FrontPage").contains("Story"));
            assert!(fetch(addr, "/page/FrontPage").contains("Story")); // cache hit
            assert!(fetch(addr, "/nope").contains("404"));

            let resp = fetch(addr, "/metrics");
            let (head, body) = resp.split_once("\r\n\r\n").expect("framed response");
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
            assert!(
                head.contains("Content-Type: text/plain; version=0.0.4"),
                "{head}"
            );

            // Every family the endpoint promises is declared with HELP+TYPE.
            for (name, kind) in [
                ("strudel_requests_total", "counter"),
                ("strudel_request_errors_total", "counter"),
                ("strudel_request_duration_seconds", "histogram"),
                ("strudel_uptime_seconds", "gauge"),
                ("strudel_worker_threads", "gauge"),
                ("strudel_eval_jobs", "gauge"),
                ("strudel_accept_errors_total", "counter"),
                ("strudel_connections_aborted_total", "counter"),
                ("strudel_admission_rejected_total", "counter"),
                ("strudel_keepalive_reuses_total", "counter"),
                ("strudel_connections_open", "gauge"),
                ("strudel_connections_idle", "gauge"),
                ("strudel_connections_reading", "gauge"),
                ("strudel_connections_writing", "gauge"),
                ("strudel_page_cache_hits_total", "counter"),
                ("strudel_page_cache_misses_total", "counter"),
                ("strudel_page_cache_entries", "gauge"),
                ("strudel_path_cache_hits_total", "counter"),
                ("strudel_store_page_reads_total", "counter"),
                ("strudel_store_page_writes_total", "counter"),
                ("strudel_store_page_cache_hits_total", "counter"),
                ("strudel_store_page_cache_misses_total", "counter"),
                ("strudel_store_pages_leaked_total", "counter"),
                ("strudel_store_compactions_total", "counter"),
                ("strudel_wal_frames_total", "counter"),
                ("strudel_wal_commits_total", "counter"),
                ("strudel_wal_bytes_total", "counter"),
                ("strudel_wal_checkpoints_total", "counter"),
                ("strudel_wal_recoveries_total", "counter"),
                ("strudel_wal_recovered_frames_total", "counter"),
                ("strudel_wal_torn_tails_total", "counter"),
                ("strudel_wal_fsyncs_total", "counter"),
                ("strudel_wal_group_commits_total", "counter"),
                ("strudel_wal_group_commit_txns_total", "counter"),
                ("strudel_store_page_cache_evictions_total", "counter"),
                ("strudel_checkpoint_pages_written_total", "counter"),
                ("strudel_checkpoint_pages_reused_total", "counter"),
                ("strudel_store_dirty_pages", "gauge"),
                ("strudel_store_freelist_pages", "gauge"),
                ("strudel_build_info", "gauge"),
                ("strudel_trace_enabled", "gauge"),
                ("strudel_trace_spans_recorded_total", "counter"),
                ("strudel_trace_spans_dropped_total", "counter"),
                ("strudel_trace_traces_started_total", "counter"),
                ("strudel_trace_traces_sampled_total", "counter"),
                ("strudel_trace_traces_slow_promoted_total", "counter"),
                ("strudel_trace_ring_occupancy", "gauge"),
                ("strudel_trace_ring_capacity", "gauge"),
            ] {
                assert!(body.contains(&format!("# HELP {name} ")), "{name}");
                assert!(body.contains(&format!("# TYPE {name} {kind}\n")), "{name}");
            }

            // Exposition is line-structured: every non-comment line is
            // `name[{labels}] value` with a legal metric name and a value
            // that parses.
            for line in body.lines().filter(|l| !l.starts_with('#')) {
                let (lhs, value) = line.rsplit_once(' ').expect(line);
                let name = lhs.split('{').next().unwrap();
                assert!(strudel_obs::valid_metric_name(name), "{line}");
                value.parse::<f64>().expect(line);
            }

            // Histogram shape: cumulative buckets ending at +Inf, matching
            // the _count; at least the four requests above are in it.
            let inf: u64 = body
                .lines()
                .find(|l| l.contains("_bucket{le=\"+Inf\"}"))
                .and_then(|l| l.rsplit(' ').next())
                .unwrap()
                .parse()
                .unwrap();
            let count: u64 = body
                .lines()
                .find(|l| l.starts_with("strudel_request_duration_seconds_count"))
                .and_then(|l| l.rsplit(' ').next())
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(inf, count);
            assert!(count >= 3, "{count}");

            // Counters agree with the traffic: 2 expansions of the same
            // page → ≥1 page-cache hit; the 404 shows as an error.
            let value_of = |name: &str| -> f64 {
                body.lines()
                    .find(|l| l.starts_with(name) && !l.starts_with('#'))
                    .and_then(|l| l.rsplit(' ').next())
                    .unwrap()
                    .parse()
                    .unwrap()
            };
            assert!(value_of("strudel_page_cache_hits_total") >= 1.0);
            assert!(value_of("strudel_request_errors_total") >= 1.0);

            // /stats carries the vitals and connection block as JSON.
            let stats = fetch(addr, "/stats");
            assert!(stats.contains("Content-Type: application/json"), "{stats}");
            for key in [
                "\"uptime_seconds\":",
                "\"threads\":",
                "\"jobs\":",
                "\"connections\":",
                "\"keepalive_reuses\":",
                "\"admission_rejected\":",
                "\"accept_errors\":",
                "\"traces\":",
            ] {
                assert!(stats.contains(key), "{stats}");
            }
        });
    }

    /// End-to-end live update with a *deletion*: serve and warm the cache,
    /// deliver a removal delta through [`Server::notify`], carry the
    /// surviving cache entries across a rebind with snapshot/restore, and
    /// check the served HTML reflects the deletion while untouched pages
    /// still answer from the warm cache.
    #[test]
    fn deletion_notify_invalidates_served_pages_across_rebind() {
        let (mut data, query) = demo_site();
        let find = |g: &strudel_graph::Graph, name: &str| {
            g.nodes()
                .iter()
                .copied()
                .find(|n| g.node_name(*n).as_deref() == Some(name))
                .unwrap()
        };
        let a1 = find(&data, "a1");
        let a2 = find(&data, "a2");
        let headline = data.sym("headline");
        let url1 = page_url(&PageRef {
            skolem: "Page".into(),
            args: vec![Value::Node(a1)],
        });
        let url2 = page_url(&PageRef {
            skolem: "Page".into(),
            args: vec![Value::Node(a2)],
        });

        // Phase 1: warm both story pages, then notify the removal.
        let snap = {
            let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
            let server = Server::bind(site, "127.0.0.1:0").unwrap();
            let (u1, u2) = (url1.clone(), url2.clone());
            serve_client(&server, move |addr| {
                assert!(fetch(addr, &u1).contains("one"));
                assert!(fetch(addr, &u2).contains("two"));
            });

            let dropped = server.notify(&Delta::EdgeRemoved {
                from: a1,
                label: headline,
                to: Value::str("one"),
            });
            assert!(dropped >= 1, "removal delta dropped {dropped} entries");
            server.site().cache_snapshot()
        };

        // The server is gone; apply the mutation the delta described.
        assert!(data.remove_edge(a1, headline, &Value::str("one")).unwrap());

        // Phase 2: rebind over the mutated graph with the surviving cache.
        let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
        site.cache_restore(snap);
        let server = Server::bind(site, "127.0.0.1:0").unwrap();
        let (u1, u2) = (url1.clone(), url2.clone());
        serve_client(&server, move |addr| {
            let story1 = fetch(addr, &u1);
            assert!(!story1.contains("one"), "{story1}");
            assert!(story1.contains("world"), "{story1}"); // section edge intact
            assert!(fetch(addr, &u2).contains("two"));
        });
        let d = server.site().stats();
        assert!(d.cache_hits >= 1, "untouched page should stay warm: {d:?}");
        assert!(
            d.cache_misses >= 1,
            "invalidated page must recompute: {d:?}"
        );
    }

    /// Regression test: a request head arriving in several TCP segments
    /// must be reassembled, not served from the first partial read (which
    /// used to fall back to the `/` roots page).
    #[test]
    fn split_request_is_reassembled_before_routing() {
        let (data, query) = demo_site();
        let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
        let server = Server::bind(site, "127.0.0.1:0").unwrap();

        serve_client(&server, move |addr| {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            // First flush stops mid-request-line: no terminator, and even
            // the path is incomplete.
            s.write_all(b"GET /page/Fro").unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(80));
            s.write_all(b"ntPage HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut buf = String::new();
            s.read_to_string(&mut buf).unwrap();
            assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
            // The FrontPage expansion, not the roots listing.
            assert!(buf.contains("Story"), "{buf}");
            assert!(!buf.contains("Site roots"), "{buf}");
        });
    }

    #[test]
    fn oversized_and_silent_requests_are_rejected() {
        let (data, query) = demo_site();
        let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
        let config = ServerConfig {
            threads: 2,
            request_timeout: Duration::from_millis(150),
            max_request_bytes: 512,
            ..ServerConfig::default()
        };
        let server = Server::bind_with(site, "127.0.0.1:0", config).unwrap();

        serve_client(&server, move |addr| {
            // Head larger than the cap.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(1024));
            s.write_all(huge.as_bytes()).unwrap();
            let mut buf = String::new();
            s.read_to_string(&mut buf).unwrap();
            assert!(buf.contains("431"), "{buf}");

            // A client that connects and never speaks: per-request timeout.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut buf = String::new();
            s.read_to_string(&mut buf).unwrap();
            assert!(buf.contains("408"), "{buf}");

            // Non-GET/HEAD methods are refused after full framing.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(b"DELETE / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut buf = String::new();
            s.read_to_string(&mut buf).unwrap();
            assert!(buf.contains("405"), "{buf}");
        });
        assert!(server.stats().errors >= 3);
    }

    /// `/healthz` answers ready once the accept loop is running, and the
    /// server reports not-ready before and after.
    #[test]
    fn healthz_reports_readiness() {
        let (data, query) = demo_site();
        let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
        let server = Server::bind(site, "127.0.0.1:0").unwrap();
        assert!(!server.is_ready(), "not ready before serve()");
        serve_client(&server, move |addr| {
            let resp = fetch(addr, "/healthz");
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
            assert!(resp.contains("text/plain"), "{resp}");
            assert!(resp.ends_with("ok\n"), "{resp}");
        });
        assert!(!server.is_ready(), "not ready after serve() returns");
    }

    /// `/debug/traces` over a live traced server: the JSON form carries a
    /// trace for the page just fetched with spans from several layers, and
    /// the chrome form is a JSON array of complete events.
    ///
    /// The recorder is process-wide, so every server test running at the
    /// same time records into it too: some of them fetch `/page/FrontPage`
    /// as well (often as a cache hit, whose trace has no eval spans), and
    /// their traffic can push this request's trace off the recent list
    /// before it is read. A query string unique to this test and attempt
    /// names the trace, and the page cache is cleared before each attempt
    /// so that the page is evaluated and rendered afresh.
    #[test]
    fn debug_traces_exposes_request_spans() {
        strudel_obs::trace::enable(strudel_obs::trace::TraceConfig::default());
        let (data, query) = demo_site();
        let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
        let server = Server::bind(site, "127.0.0.1:0").unwrap();
        let addr = server.addr().unwrap();
        std::thread::scope(|scope| {
            let client = scope.spawn(|| {
                let _quit = QuitOnDrop(addr);
                let spans = (0..8)
                    .find_map(|attempt| {
                        server.site().cache_clear();
                        let path = format!("/page/FrontPage?dt{attempt}");
                        assert!(fetch(addr, &path).contains("Story"));
                        let resp = fetch(addr, "/debug/traces");
                        let (_, body) = resp.split_once("\r\n\r\n").unwrap();
                        let v = strudel_obs::json::parse(body).expect("valid JSON");
                        let traces = v.get("traces").and_then(|t| t.as_array()).unwrap();
                        let ours = traces
                            .iter()
                            .find(|t| t.get("path").and_then(|p| p.as_str()) == Some(&path))?;
                        ours.get("spans")
                            .and_then(|s| s.as_array())
                            .map(<[_]>::to_vec)
                    })
                    .expect("a trace for the fetched page");
                let cats: std::collections::BTreeSet<&str> = spans
                    .iter()
                    .filter_map(|s| s.get("cat").and_then(|c| c.as_str()))
                    .collect();
                assert!(cats.contains("serve"), "{cats:?}");
                assert!(cats.contains("cache"), "{cats:?}");
                assert!(cats.contains("eval"), "{cats:?}");
                assert!(cats.contains("render"), "{cats:?}");

                let resp = fetch(addr, "/debug/traces?format=chrome");
                let (_, body) = resp.split_once("\r\n\r\n").unwrap();
                let v = strudel_obs::json::parse(body).expect("valid chrome JSON");
                let events = v.as_array().expect("array of events");
                assert!(!events.is_empty());
                for e in events {
                    assert_eq!(e.get("ph").and_then(|p| p.as_str()), Some("X"));
                    assert!(e.get("ts").and_then(|t| t.as_f64()).is_some());
                }
            });
            server.serve(None).unwrap();
            client.join().unwrap();
        });
    }

    /// The concurrency smoke test: many threads hammer the pool and every
    /// response must be well-formed and byte-identical to the serial
    /// answer for the same path.
    #[test]
    fn concurrent_requests_match_serial_answers() {
        let (data, query) = demo_site();
        // A small cache so eviction churn happens under load too.
        let site = DynamicSite::with_cache(
            &data,
            &query,
            EvalOptions::default(),
            CacheConfig {
                max_entries: 2,
                max_bytes: usize::MAX,
            },
        )
        .unwrap();
        let config = ServerConfig {
            threads: 4,
            ..ServerConfig::default()
        };
        let server = Server::bind_with(site, "127.0.0.1:0", config).unwrap();

        serve_client(&server, move |addr| {
            let front = fetch(addr, "/page/FrontPage");
            let mut paths = vec!["/".to_string(), "/page/FrontPage".to_string()];
            for part in front.split("href=\"/page/Page/").skip(1) {
                paths.push(format!("/page/Page/{}", &part[..part.find('"').unwrap()]));
            }
            assert!(paths.len() >= 4, "{paths:?}");
            // Serial reference answers.
            let expected: Vec<String> = paths.iter().map(|p| fetch(addr, p)).collect();

            const THREADS: usize = 8;
            const ROUNDS: usize = 12;
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let paths = paths.clone();
                let expected = expected.clone();
                handles.push(std::thread::spawn(move || {
                    for r in 0..ROUNDS {
                        let i = (t + r) % paths.len();
                        let got = fetch(addr, &paths[i]);
                        assert_eq!(got, expected[i], "thread {t} round {r} path {}", paths[i]);
                        // Well-formed: status line + framed body length.
                        let (head, body) = got.split_once("\r\n\r\n").expect("framed response");
                        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
                        let len: usize = head
                            .lines()
                            .find_map(|l| l.strip_prefix("Content-Length: "))
                            .unwrap()
                            .parse()
                            .unwrap();
                        assert_eq!(body.len(), len);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let stats = fetch(addr, "/stats");
            assert!(stats.contains("\"hits\""), "{stats}");
        });

        let stats = server.stats();
        assert!(stats.requests >= 8 * 12, "{stats:?}");
        assert_eq!(stats.errors, 0, "{stats:?}");
        // The shared cache was exercised and stayed within its bound.
        let dyn_stats = server.site().stats();
        assert!(dyn_stats.cache_hits > 0, "{dyn_stats:?}");
        assert!(dyn_stats.evictions > 0, "{dyn_stats:?}");
        assert!(server.site().cache_len() <= 2);
    }
}
