//! Open-loop HTTP load over keep-alive connections.
//!
//! Requests arrive on a seeded Poisson schedule, independent of how fast
//! the server answers, and are pipelined onto a fixed set of connections.
//! Each request's latency runs from the instant it was *due* to the last
//! byte of its response, so a stalled response also charges the wait to
//! every request queued behind it. How late the sender itself ran (sent −
//! due) is kept beside it.
//!
//! Per connection one sender thread sleeps until the next due time and
//! writes every request that is due; one receiver thread reads responses
//! in order and checks each body byte for byte against a reference.

use crate::cputime;
use crate::rng::{Rng, Zipf};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Due time, nanoseconds after the phase starts.
    pub due_ns: u64,
    /// Index into the URL list.
    pub url: u32,
    /// Connection it travels on.
    pub conn: u8,
}

/// A Poisson schedule at `rate` requests/s over `dur`: URLs drawn from
/// `zipf` (rank = URL index), connections uniformly among `conns`.
pub fn poisson_schedule(
    rng: &mut Rng,
    rate: f64,
    dur: Duration,
    zipf: &Zipf,
    conns: usize,
) -> Vec<Arrival> {
    let end = dur.as_secs_f64();
    let mut t = rng.exp_gap(rate);
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    while t < end {
        out.push(Arrival {
            due_ns: (t * 1e9) as u64,
            url: zipf.sample(rng) as u32,
            conn: rng.below(conns) as u8,
        });
        t += rng.exp_gap(rate);
    }
    out
}

/// Evenly spaced due times at `rate` per second over `dur` (side actions
/// such as cache invalidations).
pub fn fixed_rate(rate: f64, dur: Duration) -> Vec<u64> {
    let n = (rate * dur.as_secs_f64()).floor() as u64;
    (0..n)
        .map(|i| ((i as f64 + 0.5) / rate * 1e9) as u64)
        .collect()
}

/// Side actions run inline by one sender: their due times (ns after the
/// phase starts) and the action, called with the action's index.
pub type SideAction<'a> = (&'a [u64], &'a (dyn Fn(usize) + Sync));

/// What happened to one request. `done_ns` is `None` if no response came.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: Option<u64>,
    /// A 200 whose body equals the reference byte for byte.
    pub ok: bool,
}

impl Outcome {
    /// Latency from due time to last byte, if the request succeeded.
    pub fn latency_ns(&self) -> Option<u64> {
        self.done_ns
            .filter(|_| self.ok)
            .map(|d| d.saturating_sub(self.due_ns))
    }
}

/// The result of one phase.
pub struct PhaseResult {
    /// Same order as the schedule.
    pub outcomes: Vec<Outcome>,
    /// Duration of each side action, nanoseconds.
    pub side_ns: Vec<u64>,
    /// CPU time of the load generator's own threads, side actions
    /// excluded (they are the server's work).
    pub client_cpu_ns: u64,
}

impl PhaseResult {
    /// Appends a phase that ran right after this one and lasted
    /// `offset_ns` later on the same timeline.
    pub fn append(&mut self, next: PhaseResult, offset_ns: u64) {
        self.outcomes
            .extend(next.outcomes.into_iter().map(|o| Outcome {
                due_ns: o.due_ns + offset_ns,
                sent_ns: o.sent_ns + offset_ns,
                done_ns: o.done_ns.map(|d| d + offset_ns),
                ok: o.ok,
            }));
        self.side_ns.extend(next.side_ns);
        self.client_cpu_ns += next.client_cpu_ns;
    }

    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.latency_ns().is_none())
            .count()
    }

    /// Latencies in microseconds of the successful requests.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(Outcome::latency_ns)
            .map(|ns| ns as f64 / 1e3)
            .collect()
    }

    /// Latencies in microseconds with failed requests as `+∞`, so a
    /// failure misses every latency limit.
    pub fn latencies_or_inf_us(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .map(|o| o.latency_ns().map_or(f64::INFINITY, |ns| ns as f64 / 1e3))
            .collect()
    }

    /// Sender lateness (sent − due) in microseconds.
    pub fn lag_us(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .map(|o| o.sent_ns.saturating_sub(o.due_ns) as f64 / 1e3)
            .collect()
    }
}

/// Requests due but not yet answered at time `t_ns`.
pub fn backlog_at(outcomes: &[Outcome], t_ns: u64) -> usize {
    let due = outcomes.iter().filter(|o| o.due_ns <= t_ns).count();
    let done = outcomes
        .iter()
        .filter(|o| o.done_ns.is_some_and(|d| d <= t_ns))
        .count();
    due.saturating_sub(done)
}

/// Whether the backlog grew over a phase of length `dur_ns`: sampled at
/// ten evenly spaced instants, the mean of the later five exceeds the
/// mean of the earlier five by more than `slack` requests.
pub fn backlog_grows(outcomes: &[Outcome], dur_ns: u64, slack: f64) -> bool {
    let b: Vec<f64> = (1..=10)
        .map(|k| backlog_at(outcomes, dur_ns / 10 * k) as f64)
        .collect();
    let early = b[..5].iter().sum::<f64>() / 5.0;
    let late = b[5..].iter().sum::<f64>() / 5.0;
    late > early + slack
}

/// The client's keep-alive connections to one server.
pub struct Conns {
    addr: SocketAddr,
    streams: Vec<TcpStream>,
}

/// How long a receiver waits for a missing response before giving up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

impl Conns {
    pub fn open(addr: SocketAddr, n: usize) -> std::io::Result<Self> {
        let mut c = Conns {
            addr,
            streams: Vec::new(),
        };
        c.reconnect(n)?;
        Ok(c)
    }

    /// Replaces every connection (after a phase lost responses, so no
    /// stale bytes can be matched to the next phase's requests).
    pub fn reconnect(&mut self, n: usize) -> std::io::Result<()> {
        self.streams.clear();
        for _ in 0..n {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
            self.streams.push(s);
        }
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Fetches `urls` pipelined on connection 0 and waits for every
    /// answer: `(status, body)` in order.
    pub fn get_all(&self, urls: &[String]) -> std::io::Result<Vec<(u16, Vec<u8>)>> {
        let mut s = &self.streams[0];
        let req: String = urls.iter().map(|u| request_bytes(u)).collect();
        let mut out = Vec::with_capacity(urls.len());
        std::thread::scope(|sc| {
            // Written from a second thread so a long pipeline cannot
            // deadlock against unread responses.
            let writer = sc.spawn(move || (&self.streams[0]).write_all(req.as_bytes()));
            let mut buf = Vec::new();
            let mut chunk = vec![0u8; 64 * 1024];
            while out.len() < urls.len() {
                let n = s.read(&mut chunk)?;
                if n == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                buf.extend_from_slice(&chunk[..n]);
                let mut pos = 0;
                while let Some(r) = parse_response(&buf[pos..]) {
                    out.push((r.status, buf[pos + r.body.start..pos + r.body.end].to_vec()));
                    pos += r.body.end;
                }
                buf.drain(..pos);
            }
            writer.join().expect("writer thread panicked")
        })?;
        Ok(out)
    }

    /// Runs one open-loop phase. `side` is an optional schedule of side
    /// actions run inline by connection 0's sender (their durations are
    /// returned; lateness they cause shows up as sender lag). `refs[i]` is
    /// the expected body of `urls[i]`.
    pub fn run(
        &mut self,
        sched: &[Arrival],
        urls: &[String],
        refs: &[Vec<u8>],
        side: Option<SideAction<'_>>,
    ) -> PhaseResult {
        let start = Instant::now() + Duration::from_millis(2);
        let mut outcomes: Vec<Outcome> = sched
            .iter()
            .map(|a| Outcome {
                due_ns: a.due_ns,
                sent_ns: a.due_ns,
                done_ns: None,
                ok: false,
            })
            .collect();
        let mut side_ns = Vec::new();
        let mut client_cpu_ns = 0;
        std::thread::scope(|sc| {
            let mut handles = Vec::new();
            for (c, stream) in self.streams.iter().enumerate() {
                let mine: Vec<usize> = (0..sched.len())
                    .filter(|&i| usize::from(sched[i].conn) == c)
                    .collect();
                let fifo = Mutex::new(VecDeque::with_capacity(mine.len()));
                let side = if c == 0 { side } else { None };
                handles.push(sc.spawn(move || {
                    let fifo = &fifo;
                    std::thread::scope(|inner| {
                        let rx =
                            inner.spawn(|| receive(stream, start, mine.len(), fifo, sched, refs));
                        let cpu0 = cputime::thread_ns();
                        let (sent, side_ns, side_cpu) =
                            send(stream, start, &mine, fifo, sched, urls, side);
                        let send_cpu = cputime::thread_ns() - cpu0 - side_cpu;
                        let (got, recv_cpu) = rx.join().expect("receiver thread panicked");
                        (sent, got, side_ns, send_cpu + recv_cpu)
                    })
                }));
            }
            for h in handles {
                let (sent, got, s, c_cpu) = h.join().expect("connection thread panicked");
                client_cpu_ns += c_cpu;
                for (i, t) in sent {
                    outcomes[i].sent_ns = t;
                }
                for (i, t, ok) in got {
                    outcomes[i].done_ns = Some(t);
                    outcomes[i].ok = ok;
                }
                side_ns.extend(s);
            }
        });
        if outcomes.iter().any(|o| o.done_ns.is_none()) {
            let n = self.len();
            if let Err(e) = self.reconnect(n) {
                eprintln!("perfbench: reconnect failed: {e}");
            }
        }
        PhaseResult {
            outcomes,
            side_ns,
            client_cpu_ns,
        }
    }

    /// Closed loop at saturation: keeps `window` requests in flight on
    /// every connection for `dur`, cycling through `seq` (URL indices).
    /// Returns `(requests answered correctly within dur, attempted,
    /// failed, CPU time of the load generator's threads)`.
    pub fn saturate(
        &mut self,
        seq: &[u32],
        urls: &[String],
        refs: &[Vec<u8>],
        window: usize,
        dur: Duration,
    ) -> (u64, u64, u64, u64) {
        let deadline = Instant::now() + dur;
        let conns = self.streams.len();
        let per_conn: Vec<(u64, u64, u64, u64)> = std::thread::scope(|sc| {
            let handles: Vec<_> = self
                .streams
                .iter()
                .enumerate()
                .map(|(c, stream)| {
                    let mine: Vec<u32> = seq.iter().skip(c).step_by(conns).copied().collect();
                    sc.spawn(move || closed_loop(stream, &mine, urls, refs, window, deadline))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop thread panicked"))
                .collect()
        });
        let sum = per_conn.iter().fold((0, 0, 0, 0), |a, b| {
            (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3)
        });
        if sum.2 > 0 {
            let n = self.len();
            if let Err(e) = self.reconnect(n) {
                eprintln!("perfbench: reconnect failed: {e}");
            }
        }
        sum
    }
}

/// One connection of [`Conns::saturate`].
fn closed_loop(
    mut stream: &TcpStream,
    seq: &[u32],
    urls: &[String],
    refs: &[Vec<u8>],
    window: usize,
    deadline: Instant,
) -> (u64, u64, u64, u64) {
    let cpu0 = cputime::thread_ns();
    let (mut in_time, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    let mut pending: VecDeque<u32> = VecDeque::with_capacity(window);
    let mut next = 0usize;
    let mut out = String::new();
    let mut refill = |pending: &mut VecDeque<u32>, n: usize, out: &mut String| {
        out.clear();
        for _ in 0..n {
            let u = seq[next % seq.len()];
            next += 1;
            pending.push_back(u);
            out.push_str(&request_bytes(&urls[u as usize]));
        }
    };
    refill(&mut pending, window, &mut out);
    attempted += window as u64;
    if stream.write_all(out.as_bytes()).is_err() {
        return (0, attempted, attempted, cputime::thread_ns() - cpu0);
    }
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    while !pending.is_empty() {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let now = Instant::now();
        buf.extend_from_slice(&chunk[..n]);
        let mut pos = 0;
        let mut answered = 0;
        while let Some(r) = parse_response(&buf[pos..]) {
            let Some(u) = pending.pop_front() else { break };
            let body = &buf[pos + r.body.start..pos + r.body.end];
            let ok = r.status == 200 && body_matches(&refs[u as usize], body);
            failed += u64::from(!ok);
            in_time += u64::from(ok && now <= deadline);
            answered += 1;
            pos += r.body.end;
        }
        buf.drain(..pos);
        if now < deadline && answered > 0 {
            refill(&mut pending, answered, &mut out);
            attempted += answered as u64;
            if stream.write_all(out.as_bytes()).is_err() {
                break;
            }
        }
    }
    let failed = failed + pending.len() as u64;
    (in_time, attempted, failed, cputime::thread_ns() - cpu0)
}

fn request_bytes(url: &str) -> String {
    format!("GET {url} HTTP/1.1\r\nHost: bench\r\n\r\n")
}

fn since_ns(start: Instant) -> u64 {
    Instant::now().saturating_duration_since(start).as_nanos() as u64
}

fn sleep_until(start: Instant, due_ns: u64) {
    let at = start + Duration::from_nanos(due_ns);
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Sends `mine` (schedule indices, ascending due time) on `stream`,
/// pushing each index onto `fifo` before its bytes go out. Returns the
/// send instant of each request and the durations of side actions.
fn send(
    mut stream: &TcpStream,
    start: Instant,
    mine: &[usize],
    fifo: &Mutex<VecDeque<usize>>,
    sched: &[Arrival],
    urls: &[String],
    side: Option<SideAction<'_>>,
) -> (Vec<(usize, u64)>, Vec<u64>, u64) {
    let (side_due, side_fn): (&[u64], Option<&(dyn Fn(usize) + Sync)>) = match side {
        Some((due, f)) => (due, Some(f)),
        None => (&[], None),
    };
    let mut sent = Vec::with_capacity(mine.len());
    let mut side_ns = Vec::with_capacity(side_due.len());
    let mut side_cpu = 0;
    let (mut i, mut k) = (0, 0);
    let mut buf = String::new();
    while i < mine.len() || k < side_due.len() {
        let next_req = mine.get(i).map(|&j| sched[j].due_ns);
        let next_side = side_due.get(k).copied();
        let side_first = match (next_req, next_side) {
            (Some(r), Some(s)) => s < r,
            (None, s) => s.is_some(),
            (Some(_), None) => false,
        };
        if side_first {
            sleep_until(start, side_due[k]);
            let (t, cpu) = (Instant::now(), cputime::thread_ns());
            side_fn.expect("side schedule without action")(k);
            side_ns.push(t.elapsed().as_nanos() as u64);
            side_cpu += cputime::thread_ns() - cpu;
            k += 1;
            continue;
        }
        sleep_until(start, sched[mine[i]].due_ns);
        let now = since_ns(start);
        buf.clear();
        let mut q = fifo.lock().expect("fifo lock poisoned");
        while let Some(&j) = mine.get(i).filter(|&&j| sched[j].due_ns <= now) {
            q.push_back(j);
            buf.push_str(&request_bytes(&urls[sched[j].url as usize]));
            sent.push((j, now));
            i += 1;
        }
        drop(q);
        if stream.write_all(buf.as_bytes()).is_err() {
            // The receiver times out on what never arrives.
            break;
        }
    }
    (sent, side_ns, side_cpu)
}

/// Reads `expected` responses from `stream`, matching each to the index at
/// the front of `fifo`. Returns `(index, done instant, ok)` per response.
fn receive(
    mut stream: &TcpStream,
    start: Instant,
    expected: usize,
    fifo: &Mutex<VecDeque<usize>>,
    sched: &[Arrival],
    refs: &[Vec<u8>],
) -> (Vec<(usize, u64, bool)>, u64) {
    let cpu0 = cputime::thread_ns();
    let mut got = Vec::with_capacity(expected);
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    while got.len() < expected {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let t = since_ns(start);
        buf.extend_from_slice(&chunk[..n]);
        let mut pos = 0;
        while let Some(r) = parse_response(&buf[pos..]) {
            let Some(j) = fifo.lock().expect("fifo lock poisoned").pop_front() else {
                // A response nobody asked for: the stream is out of step.
                return (got, cputime::thread_ns() - cpu0);
            };
            let body = &buf[pos + r.body.start..pos + r.body.end];
            let ok = r.status == 200 && body_matches(&refs[sched[j].url as usize], body);
            got.push((j, t, ok));
            pos += r.body.end;
        }
        buf.drain(..pos);
    }
    (got, cputime::thread_ns() - cpu0)
}

/// The output check for one click: the body equals the reference exactly.
pub fn body_matches(reference: &[u8], body: &[u8]) -> bool {
    reference == body
}

/// A complete response at the start of a buffer.
pub struct Parsed {
    pub status: u16,
    /// Body byte range; its end is the response's total length.
    pub body: std::ops::Range<usize>,
}

/// Parses one complete HTTP/1.1 response (head plus `Content-Length`
/// body) from the start of `buf`; `None` until all of it has arrived.
pub fn parse_response(buf: &[u8]) -> Option<Parsed> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.get(9..12)?.parse().ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    (buf.len() >= head_end + len).then_some(Parsed {
        status,
        body: head_end..head_end + len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_seed_gives_the_same_request_sequence() {
        let z = Zipf::new(50, 1.1);
        let make = |seed| {
            poisson_schedule(
                &mut Rng::new(seed, 3),
                2000.0,
                Duration::from_millis(500),
                &z,
                2,
            )
        };
        let a = make(42);
        assert_eq!(a, make(42));
        assert_ne!(a, make(43));
        // Roughly the asked-for rate, on both connections, due-ordered.
        assert!((800..1200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.iter().any(|x| x.conn == 0) && a.iter().any(|x| x.conn == 1));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }

    #[test]
    fn responses_parse_only_when_complete() {
        let r = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\ncontent-length: 5\r\n\r\nhello";
        let p = parse_response(r).unwrap();
        assert_eq!((p.status, &r[p.body.clone()]), (200, &b"hello"[..]));
        assert!(parse_response(&r[..r.len() - 1]).is_none());
        assert!(parse_response(b"HTTP/1.1 404 Not Found\r\n").is_none());
    }

    #[test]
    fn the_body_check_catches_a_one_byte_change() {
        let reference = b"<html><body>page 7</body></html>".to_vec();
        assert!(body_matches(&reference, &reference.clone()));
        for i in 0..reference.len() {
            let mut changed = reference.clone();
            changed[i] ^= 1;
            assert!(
                !body_matches(&reference, &changed),
                "flip at byte {i} missed"
            );
        }
        assert!(!body_matches(&reference, &reference[1..]));
    }

    #[test]
    fn backlog_counts_due_but_unanswered() {
        let o = |due_ns, done_ns| Outcome {
            due_ns,
            sent_ns: due_ns,
            done_ns,
            ok: true,
        };
        let steady: Vec<Outcome> = (0..100).map(|i| o(i * 10, Some(i * 10 + 5))).collect();
        assert_eq!(backlog_at(&steady, 503), 1);
        assert!(!backlog_grows(&steady, 1000, 1.0));
        // The server answers every other request late: the queue builds.
        let growing: Vec<Outcome> = (0..100).map(|i| o(i * 10, Some(i * 20))).collect();
        assert!(backlog_grows(&growing, 1000, 1.0));
    }

    /// A server that answers each request in order after `delay(i)`.
    fn slow_server(delays: Vec<Duration>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (mut s, _) = l.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            for d in delays {
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = s.read(&mut chunk).unwrap();
                    buf.extend_from_slice(&chunk[..n]);
                }
                let end = buf.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
                buf.drain(..end);
                std::thread::sleep(d);
                s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .unwrap();
            }
        });
        (addr, h)
    }

    #[test]
    fn a_stalled_response_charges_latency_to_the_requests_behind_it() {
        // Four requests due 10 ms apart on one connection; the server
        // stalls 60 ms on the first and answers the rest at once. Measured
        // from the send instant, the later requests would look fast; from
        // their due times they waited behind the stall.
        let ms = Duration::from_millis;
        let (addr, server) = slow_server(vec![ms(60), ms(0), ms(0), ms(0)]);
        let mut conns = Conns::open(addr, 1).unwrap();
        let sched: Vec<Arrival> = (0..4)
            .map(|i| Arrival {
                due_ns: i * 10_000_000,
                url: 0,
                conn: 0,
            })
            .collect();
        let urls = vec!["/x".to_string()];
        let refs = vec![b"ok".to_vec()];
        let r = conns.run(&sched, &urls, &refs, None);
        server.join().unwrap();
        assert_eq!(r.failed(), 0);
        let lat = r.latencies_us();
        // Request 1 was due at 10 ms and answered after ~60 ms: ≥ 45 ms.
        assert!(lat[0] >= 60_000.0, "{lat:?}");
        for (i, l) in lat.iter().enumerate().skip(1) {
            let waited_us = 60_000.0 - (i as f64) * 10_000.0;
            assert!(
                *l >= waited_us - 1_000.0,
                "request {i}: {l} µs < {waited_us} µs"
            );
        }
        // The sender itself was on time: the wait is the server's.
        let lag = r.lag_us();
        assert!(lag.iter().all(|&l| l < 10_000.0), "{lag:?}");
    }

    #[test]
    fn a_wrong_body_is_a_failed_request() {
        let (addr, server) = slow_server(vec![Duration::ZERO; 2]);
        let mut conns = Conns::open(addr, 1).unwrap();
        let sched = [
            Arrival {
                due_ns: 0,
                url: 0,
                conn: 0,
            },
            Arrival {
                due_ns: 1_000_000,
                url: 1,
                conn: 0,
            },
        ];
        let urls = vec!["/a".to_string(), "/b".to_string()];
        let refs = vec![b"ok".to_vec(), b"oK".to_vec()];
        let r = conns.run(&sched, &urls, &refs, None);
        server.join().unwrap();
        assert!(r.outcomes[0].ok && !r.outcomes[1].ok);
        assert_eq!(r.failed(), 1);
    }
}
