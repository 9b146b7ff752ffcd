//! Regression tests for the event-driven serving tier: keep-alive reuse,
//! pipelining order, connection-layer bugfixes (slow-loris deadline, HEAD
//! answers, zero-byte aborts, admission control), in both serving modes
//! where the behavior is mode-independent; and differential tests of the
//! two request paths: page cache hits answered on the event loop must be
//! byte-identical to what a worker renders and to a cold server's answer.

use std::collections::{HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use strudel::graph::Value;
use strudel::serve::{page_url, ServeMode, Server, ServerConfig};
use strudel::site::{Delta, DynamicSite, PageRef, Target};
use strudel::struql::EvalOptions;

fn demo_site() -> (strudel::graph::Graph, strudel::struql::Query) {
    let data = strudel::graph::ddl::parse(
        r#"
object a1 in Articles { headline "one" section "world" }
object a2 in Articles { headline "two" section "world" }
"#,
    )
    .unwrap();
    let query = strudel::struql::parse_query(
        r#"CREATE FrontPage()
           { WHERE Articles(a), a -> l -> v
             CREATE Page(a)
             LINK Page(a) -> l -> v, FrontPage() -> "Story" -> Page(a) }"#,
    )
    .unwrap();
    (data, query)
}

/// One-shot `Connection: close` fetch; returns the whole response text.
fn fetch(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes())
        .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    buf
}

/// Reads one response head off a keep-alive socket, leaving whatever
/// follows it in `carry`.
fn read_head(stream: &mut TcpStream, carry: &mut Vec<u8>) -> String {
    let mut chunk = [0u8; 8192];
    loop {
        if let Some(end) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&carry[..end]).into_owned();
            carry.drain(..end + 4);
            return head;
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "eof mid head");
        carry.extend_from_slice(&chunk[..n]);
    }
}

/// Reads one `Content-Length`-framed response off a keep-alive socket.
/// Leftover bytes (pipelined successors) stay in `carry`.
fn read_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (String, String) {
    let head = read_head(stream, carry);
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("framed response")
        .parse()
        .unwrap();
    let mut chunk = [0u8; 8192];
    while carry.len() < len {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "eof mid body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&carry[..len]).into_owned();
    carry.drain(..len);
    (head, body)
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

/// Runs `client` against `server` while it serves; the server stops when
/// the client returns or panics.
fn serve_while<R>(server: &Server<'_>, client: impl FnOnce(SocketAddr) -> R) -> R {
    let addr = server.addr().unwrap();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(None).unwrap());
        let quit = QuitOnDrop(addr);
        let out = client(addr);
        drop(quit);
        serving.join().unwrap();
        out
    })
}

/// Binds a server with `config`, runs `client` against it, returns the
/// server's final [`strudel::serve::ServeStats`]. The server is stopped
/// with `/quit` once the client returns (or panics).
fn with_server(
    config: ServerConfig,
    client: impl FnOnce(SocketAddr) + Send,
) -> strudel::serve::ServeStats {
    let (data, query) = demo_site();
    let site = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
    let server = Server::bind_with(site, "127.0.0.1:0", config).unwrap();
    serve_while(&server, client);
    server.stats()
}

fn both_modes(test: impl Fn(ServeMode)) {
    test(ServeMode::Event);
    test(ServeMode::Threaded);
}

#[test]
fn keepalive_connection_serves_many_requests() {
    const N: usize = 6;
    let stats = with_server(ServerConfig::default(), |addr| {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut carry = Vec::new();
        let mut first_body = None;
        for _ in 0..N {
            s.write_all(b"GET /page/FrontPage HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            let (head, body) = read_response(&mut s, &mut carry);
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
            assert!(head.contains("Connection: keep-alive"), "{head}");
            // Every answer over the reused connection is identical.
            assert_eq!(*first_body.get_or_insert_with(|| body.clone()), body);
        }
    });
    assert!(
        stats.keepalive_reuses >= (N - 1) as u64,
        "expected ≥{} reuses: {stats:?}",
        N - 1
    );
    assert!(stats.requests >= N as u64, "{stats:?}");
    assert_eq!(stats.errors, 0, "{stats:?}");
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    // Mixed statuses prove ordering: a shuffled or dropped response would
    // put a 404 where a 200 belongs or change a body.
    let paths = ["/page/FrontPage", "/nope", "/", "/page/FrontPage", "/stats"];
    with_server(ServerConfig::default(), |addr| {
        let expected: Vec<String> = paths.iter().map(|p| fetch(addr, p)).collect();

        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let burst: String = paths
            .iter()
            .map(|p| format!("GET {p} HTTP/1.1\r\nHost: x\r\n\r\n"))
            .collect();
        // One write: all five requests land in the server's buffers
        // together, well before the first response is computed.
        s.write_all(burst.as_bytes()).unwrap();

        let mut carry = Vec::new();
        for (p, exp) in paths.iter().zip(&expected) {
            let (head, body) = read_response(&mut s, &mut carry);
            let exp_status = exp.lines().next().unwrap();
            assert!(head.starts_with(exp_status), "{p}: {head}");
            if *p != "/stats" {
                // Stats bodies move between fetches; everything else is
                // byte-identical to its serial answer.
                let exp_body = exp.split_once("\r\n\r\n").unwrap().1;
                assert_eq!(body, exp_body, "{p}");
            }
        }
    });
}

#[test]
fn malformed_request_on_kept_alive_connection_fails_closed() {
    let stats = with_server(ServerConfig::default(), |addr| {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut carry = Vec::new();
        for _ in 0..2 {
            s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let (head, _) = read_response(&mut s, &mut carry);
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        }

        // Garbage on the same connection: 400, then the server closes it
        // (the stream cannot be re-synchronized after a framing error).
        s.write_all(b"total garbage\r\n\r\n").unwrap();
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        let rest = String::from_utf8_lossy(&rest);
        assert!(rest.starts_with("HTTP/1.1 400"), "{rest}");
        assert!(rest.contains("Connection: close"), "{rest}");
    });
    assert!(stats.errors >= 1, "{stats:?}");
    assert!(stats.keepalive_reuses >= 1, "{stats:?}");
}

#[test]
fn admission_control_rejects_with_503_when_full() {
    let config = ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    };
    let stats = with_server(config, |addr| {
        let mut hold = Vec::new();
        let mut carry = Vec::new();
        for _ in 0..2 {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            // One answered request pins the connection as admitted+idle.
            s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let (head, _) = read_response(&mut s, &mut carry);
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
            hold.push(s);
        }
        // The third connection is over the cap: a static 503, then close.
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        assert!(resp.contains("Connection: close"), "{resp}");
        drop(hold); // frees slots so `/quit` can get in
        std::thread::sleep(Duration::from_millis(100));
    });
    assert!(stats.admission_rejected >= 1, "{stats:?}");
    // Admission rejections never reach the router: the two held requests
    // and `/quit` are the only requests, and the 503 is not an error.
    assert_eq!(stats.requests, 3, "{stats:?}");
    assert_eq!(stats.errors, 0, "{stats:?}");
}

#[test]
fn slow_loris_is_cut_by_the_whole_request_deadline() {
    both_modes(|mode| {
        let config = ServerConfig {
            threads: 2,
            request_timeout: Duration::from_millis(300),
            mode,
            ..ServerConfig::default()
        };
        with_server(config, |addr| {
            let s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let started = Instant::now();
            // One byte per 100ms: each read succeeds well inside any
            // per-read timeout, but the head never completes. The old
            // server reset its clock on every byte and dribbling kept a
            // worker forever; the whole-request deadline cuts at ~300ms.
            let writer = std::thread::spawn(move || {
                let mut w = s;
                for b in b"GET /page/FrontPage HT" {
                    if w.write_all(&[*b]).is_err() {
                        break; // server hung up: exactly what we want
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                let mut resp = String::new();
                let _ = w.read_to_string(&mut resp);
                resp
            });
            let resp = writer.join().unwrap();
            let elapsed = started.elapsed();
            assert!(resp.contains("408"), "{mode:?}: {resp}");
            assert!(
                elapsed < Duration::from_millis(1500),
                "{mode:?}: dribbling held the connection {elapsed:?}"
            );
        });
    });
}

#[test]
fn head_requests_get_get_headers_without_body() {
    both_modes(|mode| {
        let config = ServerConfig {
            mode,
            ..ServerConfig::default()
        };
        with_server(config, |addr| {
            let get = fetch(addr, "/page/FrontPage");
            let (get_head, get_body) = get.split_once("\r\n\r\n").unwrap();
            let get_len: usize = get_head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(get_body.len(), get_len);

            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(b"HEAD /page/FrontPage HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            // The GET headers — status, type, and the GET body's length —
            // with no body following (it was a 405 before this fix).
            let (head, body) = resp.split_once("\r\n\r\n").unwrap();
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{mode:?}: {head}");
            assert!(
                head.contains(&format!("Content-Length: {get_len}")),
                "{mode:?}: {head}"
            );
            assert!(body.is_empty(), "{mode:?}: HEAD must carry no body");
        });
    });
}

#[test]
fn zero_byte_connections_are_aborts_not_errors() {
    both_modes(|mode| {
        let config = ServerConfig {
            threads: 2,
            mode,
            ..ServerConfig::default()
        };
        let stats = with_server(config, |addr| {
            // Warm request so the error counter has a baseline of zero
            // alongside real traffic.
            assert!(fetch(addr, "/").contains("200 OK"));
            for _ in 0..3 {
                // Connect and close without sending a byte: the port-scan
                // shape. These used to be answered 400 and counted as
                // errors, skewing the error rate.
                let s = TcpStream::connect(addr).unwrap();
                drop(s);
            }
            std::thread::sleep(Duration::from_millis(200));
        });
        assert!(
            stats.connections_aborted >= 3,
            "{mode:?}: {stats:?} should count the silent closes"
        );
        assert_eq!(stats.errors, 0, "{mode:?}: aborts are not errors {stats:?}");
        assert_eq!(stats.requests, 2, "{mode:?}: only `/` and `/quit` routed");
        assert_eq!(stats.accept_errors, 0, "{mode:?}: {stats:?}");
    });
}

// ---- loop hits vs. worker renders vs. cold servers -------------------------

/// A keep-alive client connection.
struct Client {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Client {
            stream,
            carry: Vec::new(),
        }
    }

    /// One keep-alive `GET`; returns the whole response (head and body).
    fn get(&mut self, path: &str) -> String {
        self.stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let (head, body) = read_response(&mut self.stream, &mut self.carry);
        format!("{head}\r\n\r\n{body}")
    }

    /// One keep-alive `HEAD`; returns the response head.
    fn head(&mut self, path: &str) -> String {
        self.stream
            .write_all(format!("HEAD {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        read_head(&mut self.stream, &mut self.carry)
    }
}

/// Every page reachable from the roots, breadth first, as URLs.
fn reachable_urls(site: &DynamicSite<'_>) -> Vec<String> {
    let mut seen: HashSet<PageRef> = site.roots().into_iter().collect();
    let mut queue: VecDeque<PageRef> = site.roots().into_iter().collect();
    let mut out = Vec::new();
    while let Some(page) = queue.pop_front() {
        for link in site.expand(&page).unwrap() {
            if let Target::Page(t) = link.target {
                if seen.insert(t.clone()) {
                    queue.push_back(t);
                }
            }
        }
        out.push(page_url(&page));
    }
    out
}

fn event_config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    }
}

/// Each page's response from a server that has never seen a request.
fn cold_responses(site: DynamicSite<'_>, urls: &[String]) -> Vec<String> {
    let server = Server::bind_with(site, "127.0.0.1:0", event_config()).unwrap();
    serve_while(&server, |addr| {
        let mut c = Client::connect(addr);
        urls.iter().map(|u| c.get(u)).collect()
    })
}

/// For every reachable page: the response a worker renders, the one the
/// event loop answers from the page cache on the next request, and a cold
/// server's must be byte-identical, for keep-alive `GET`, keep-alive
/// `HEAD` and `Connection: close`. Every page answer is either a loop hit
/// or a worker render (the conservation law of the two paths).
fn loop_hits_match_worker_and_cold(warm: DynamicSite<'_>, cold: DynamicSite<'_>) {
    let urls = reachable_urls(&warm);
    assert!(urls.len() > 1, "{urls:?}");
    let cold = cold_responses(cold, &urls);
    let server = Server::bind_with(warm, "127.0.0.1:0", event_config()).unwrap();
    let n = urls.len() as u64;
    serve_while(&server, |addr| {
        let site = server.site();
        let mut c = Client::connect(addr);
        let r0 = site.render_stats();
        let worker: Vec<String> = urls.iter().map(|u| c.get(u)).collect();
        let r1 = site.render_stats();
        assert_eq!(r1.renders - r0.renders, n, "first requests render");
        assert_eq!(r1.rendered_hits, r0.rendered_hits);
        let hits: Vec<String> = urls.iter().map(|u| c.get(u)).collect();
        let r2 = site.render_stats();
        assert_eq!(
            r2.rendered_hits - r1.rendered_hits,
            n,
            "repeats are loop hits"
        );
        assert_eq!(r2.renders, r1.renders);
        for (i, u) in urls.iter().enumerate() {
            assert!(worker[i].starts_with("HTTP/1.1 200 OK\r\n"), "{u}");
            assert_eq!(worker[i], hits[i], "{u}: loop hit vs worker render");
            assert_eq!(worker[i], cold[i], "{u}: warm vs cold server");
            let (get_head, body) = hits[i].split_once("\r\n\r\n").unwrap();
            assert_eq!(c.head(u), get_head, "{u}: HEAD");
            let closed = fetch(addr, u);
            assert_eq!(closed.split_once("\r\n\r\n").unwrap().1, body, "{u}: close");
            assert!(closed.contains("Connection: close\r\n"), "{u}");
        }
        let r3 = site.render_stats();
        assert_eq!(
            r3.rendered_hits - r2.rendered_hits,
            2 * n,
            "HEAD and close hit"
        );
        assert_eq!(r3.renders, r2.renders);
        // Answered page requests = loop hits + worker renders.
        assert_eq!(r3.rendered_hits + r3.renders, 4 * n);
    });
    let stats = server.stats();
    assert_eq!(stats.errors, 0, "{stats:?}");
}

#[test]
fn news_loop_hits_match_worker_renders_and_a_cold_server() {
    let mut warm_sys = strudel::synth::news::system(300, 7, false).unwrap();
    let mut cold_sys = strudel::synth::news::system(300, 7, false).unwrap();
    let warm = warm_sys.dynamic_site().unwrap();
    let cold = cold_sys.dynamic_site().unwrap();
    loop_hits_match_worker_and_cold(warm, cold);
}

#[test]
fn demo_loop_hits_match_worker_renders_and_a_cold_server() {
    let (data, query) = demo_site();
    let warm = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
    let cold = DynamicSite::new(&data, &query, EvalOptions::default()).unwrap();
    loop_hits_match_worker_and_cold(warm, cold);
}

/// A pipelined batch mixing loop hits, worker misses, a `HEAD` and a
/// non-page path is answered in request order, each answer identical to
/// its one-at-a-time reference.
#[test]
fn pipelined_hits_and_misses_answer_in_order() {
    let mut sys = strudel::synth::news::system(60, 3, false).unwrap();
    let mut cold_sys = strudel::synth::news::system(60, 3, false).unwrap();
    let site = sys.dynamic_site().unwrap();
    let urls: Vec<String> = reachable_urls(&site).into_iter().take(12).collect();
    let reference = cold_responses(cold_sys.dynamic_site().unwrap(), &urls);
    let server = Server::bind_with(site, "127.0.0.1:0", event_config()).unwrap();
    serve_while(&server, |addr| {
        let mut c = Client::connect(addr);
        // Warm every other page: those become loop hits.
        for u in urls.iter().step_by(2) {
            c.get(u);
        }
        let r0 = server.site().render_stats();
        let mut burst = String::new();
        for u in &urls {
            burst.push_str(&format!("GET {u} HTTP/1.1\r\nHost: x\r\n\r\n"));
        }
        burst.push_str(&format!("HEAD {} HTTP/1.1\r\nHost: x\r\n\r\n", urls[0]));
        burst.push_str("GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        burst.push_str(&format!("GET {} HTTP/1.1\r\nHost: x\r\n\r\n", urls[1]));
        c.stream.write_all(burst.as_bytes()).unwrap();
        for (u, exp) in urls.iter().zip(&reference) {
            let (head, body) = read_response(&mut c.stream, &mut c.carry);
            assert_eq!(&format!("{head}\r\n\r\n{body}"), exp, "{u}");
        }
        let head = read_head(&mut c.stream, &mut c.carry);
        assert_eq!(head, reference[0].split_once("\r\n\r\n").unwrap().0);
        let (head, _) = read_response(&mut c.stream, &mut c.carry);
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let (head, body) = read_response(&mut c.stream, &mut c.carry);
        assert_eq!(format!("{head}\r\n\r\n{body}"), reference[1]);
        let r1 = server.site().render_stats();
        let half = urls.len().div_ceil(2) as u64;
        // Warmed pages, the HEAD and the page rendered mid-batch hit;
        // the other half rendered once each.
        assert_eq!(r1.rendered_hits - r0.rendered_hits, half + 2);
        assert_eq!(r1.renders - r0.renders, urls.len() as u64 - half);

        // A long run of pipelined hits is answered on the loop in one pass
        // (written from another thread: the answers flow back meanwhile).
        const ROUNDS: usize = 40;
        let mut writer = c.stream.try_clone().unwrap();
        let burst: String = (0..ROUNDS)
            .flat_map(|_| urls.iter())
            .map(|u| format!("GET {u} HTTP/1.1\r\nHost: x\r\n\r\n"))
            .collect();
        let sender = std::thread::spawn(move || writer.write_all(burst.as_bytes()).unwrap());
        for _ in 0..ROUNDS {
            for (u, exp) in urls.iter().zip(&reference) {
                let (head, body) = read_response(&mut c.stream, &mut c.carry);
                assert_eq!(&format!("{head}\r\n\r\n{body}"), exp, "{u}");
            }
        }
        sender.join().unwrap();
        let r2 = server.site().render_stats();
        assert_eq!(
            r2.rendered_hits - r1.rendered_hits,
            (ROUNDS * urls.len()) as u64
        );
        assert_eq!(r2.renders, r1.renders);
    });
}

/// `Server::notify` with a delta touching an article: the next request
/// for its page is a miss, re-rendered by a worker (to the same bytes: the
/// data itself did not change), while every other article's page stays a
/// loop hit.
#[test]
fn notify_turns_touched_pages_into_misses_and_keeps_the_rest() {
    let mut sys = strudel::synth::news::system(60, 5, false).unwrap();
    let data = sys.data_graph().unwrap();
    let headline = data.sym("headline");
    let articles: Vec<(strudel::graph::Oid, Value)> = data
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
    let article_url = |n: strudel::graph::Oid| {
        page_url(&PageRef {
            skolem: "ArticlePage".into(),
            args: vec![Value::Node(n)],
        })
    };
    let site = sys.dynamic_site().unwrap();
    let server = Server::bind_with(site, "127.0.0.1:0", event_config()).unwrap();
    serve_while(&server, |addr| {
        let site = server.site();
        let mut c = Client::connect(addr);
        let before: Vec<String> = articles
            .iter()
            .map(|(n, _)| c.get(&article_url(*n)))
            .collect();
        let (touched, value) = articles[0].clone();
        let dropped = server.notify(&Delta::EdgeRemoved {
            from: touched,
            label: headline,
            to: value,
        });
        assert!(dropped > 0);
        let r0 = site.render_stats();
        assert_eq!(c.get(&article_url(touched)), before[0]);
        let r1 = site.render_stats();
        assert_eq!(r1.renders - r0.renders, 1, "touched page re-rendered");
        assert_eq!(r1.rendered_hits, r0.rendered_hits, "touched page missed");
        for (i, (n, _)) in articles.iter().enumerate().skip(1) {
            assert_eq!(c.get(&article_url(*n)), before[i]);
        }
        let r2 = site.render_stats();
        assert_eq!(r2.renders, r1.renders, "untouched pages not re-rendered");
        assert_eq!(
            r2.rendered_hits - r1.rendered_hits,
            articles.len() as u64 - 1,
            "untouched pages stay loop hits"
        );
    });
}
