//! The event-driven serving mode: one readiness loop owning every socket,
//! a worker pool owning every page expansion and render.
//!
//! The loop (this module) runs on the thread that called
//! [`Server::serve`]; it accepts connections, pumps non-blocking reads
//! and writes through each [`Conn`] state machine, and enforces
//! whole-request deadlines, the write timeout and admission control. A
//! complete request takes one of two paths:
//!
//! * **Hit**: a `GET`/`HEAD` of a page whose rendered response the shared
//!   [`DynamicSite`] cache still holds ([`DynamicSite::rendered`]) is
//!   answered on the loop itself: one lookup, then the cached bytes are
//!   queued on the connection without a copy. The loop never expands,
//!   evaluates or renders a page.
//! * **Miss**: everything else goes to the worker pool over a channel;
//!   workers run the router (which expands and renders pages through the
//!   cache, keeping each rendered response for later hits), encode the
//!   response, and hand the bytes back with [`Poller::notify`] as the
//!   doorbell.
//!
//! One request is in flight per connection at a time, so pipelined
//! requests are answered strictly in arrival order; their bytes simply
//! wait in the connection's read buffer (and the kernel's) until the
//! previous response has drained. A run of pipelined hits is answered in
//! one pass over the buffer.
//!
//! [`DynamicSite`]: strudel_site::DynamicSite
//! [`DynamicSite::rendered`]: strudel_site::DynamicSite::rendered

use super::conn::{Conn, ConnState, Fill, Flush};
use super::http::{self, AcceptBackoff, Method, Parsed, Request, Wire};
use super::Server;
use parking_lot::Mutex;
use polling::{Event, Poller};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use strudel_obs::trace;

/// Poller key of the listening socket; connections use `slot + 1`.
const KEY_LISTENER: usize = 0;

/// Ends a connection's in-flight root span (if any): records the
/// `serve.write` phase when a response was queued, then finishes the
/// trace (promoting it if sampled or slow).
fn finish_trace(conn: &mut Conn) {
    if let Some(root) = conn.trace.take() {
        if conn.trace_write_ns > 0 {
            let ctx = root.ctx();
            trace::record_span(
                &ctx,
                "serve.write",
                trace::Layer::Serve,
                conn.trace_write_ns,
                trace::now_ns(),
                &[("bytes", trace::AttrValue::U64(conn.wbuf.len() as u64))],
            );
        }
        root.finish();
        conn.trace_write_ns = 0;
    }
}

/// Fallback poll period when nothing imposes a deadline. Completions
/// arrive via [`Poller::notify`], so this only bounds recovery from lost
/// wakeups.
const IDLE_TICK: Duration = Duration::from_millis(500);

/// A parsed request on its way to the worker pool.
struct Job {
    slot: usize,
    generation: u64,
    req: Request,
    /// Trace context of the connection's root span, adopted by whichever
    /// worker picks the job up so expansion spans parent correctly.
    trace: Option<trace::Ctx>,
}

/// An encoded response on its way back from a worker.
struct Completion {
    slot: usize,
    generation: u64,
    bytes: Wire,
    is_error: bool,
    close_after: bool,
    /// Numeric HTTP status, recorded on the request's root span.
    status: u64,
}

/// Runs the event-driven serving mode. See [`Server::serve`] for the
/// `max_conns` contract.
pub(super) fn run(server: &Server<'_>, max_conns: Option<usize>) -> crate::error::Result<()> {
    let io_err = crate::error::StrudelError::Io;
    server.listener.set_nonblocking(true).map_err(io_err)?;
    let poller = Poller::new().map_err(io_err)?;
    poller
        .add(&server.listener, Event::readable(KEY_LISTENER))
        .map_err(io_err)?;

    let shutdown = AtomicBool::new(false);
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Mutex::new(job_rx);
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let workers = server.config.threads.max(1);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let done_tx = done_tx.clone();
            let (shutdown, job_rx, poller) = (&shutdown, &job_rx, &poller);
            scope.spawn(move || {
                // Take the receiver lock only to pull one job.
                while let Ok(job) = { job_rx.lock().recv() } {
                    // Adopt the request's trace for the expansion phase:
                    // cache/eval/render/store spans recorded below attach
                    // to the serve.handle span, and the gap between
                    // dispatch and here surfaces as queue time on the root.
                    let trace_guard = job.trace.as_ref().map(trace::enter);
                    let mut hspan = trace::span("serve.handle", trace::Layer::Serve);
                    let reply = server.route_request(&job.req, shutdown);
                    let status_code = reply.status_code();
                    let keep = job.req.keep_alive && !shutdown.load(Ordering::Acquire);
                    let bytes = reply.encode(keep, job.req.method == Method::Head);
                    let is_error = reply.is_error();
                    hspan.attr_u64("hit", 0);
                    hspan.attr_u64("status", status_code);
                    hspan.attr_u64("bytes", bytes.len() as u64);
                    drop(hspan);
                    // Flush the handle span's time into the root's child
                    // accounting BEFORE the completion is visible to the
                    // loop: otherwise the loop can finish the root first and
                    // compute a self-time that still contains serve.handle.
                    drop(trace_guard);
                    if done_tx
                        .send(Completion {
                            slot: job.slot,
                            generation: job.generation,
                            bytes,
                            is_error,
                            close_after: !keep,
                            status: status_code,
                        })
                        .is_err()
                    {
                        break; // loop gone
                    }
                    let _ = poller.notify();
                }
            });
        }
        drop(done_tx);

        EventLoop {
            server,
            poller: &poller,
            shutdown: &shutdown,
            job_tx,
            done_rx,
            conns: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            accepted: 0,
            accept_limit: max_conns,
            draining: false,
            accepting: true,
            accept_resume_at: None,
            backoff: AcceptBackoff::new(),
        }
        .run();
    });

    server.listener.set_nonblocking(false).map_err(io_err)?;
    Ok(())
}

struct EventLoop<'s, 'g> {
    server: &'s Server<'g>,
    poller: &'s Poller,
    shutdown: &'s AtomicBool,
    job_tx: mpsc::Sender<Job>,
    done_rx: mpsc::Receiver<Completion>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    accepted: usize,
    accept_limit: Option<usize>,
    /// Stop accepting, close idle connections, finish in-flight work, exit.
    draining: bool,
    /// Whether the listener is currently registered with the poller.
    accepting: bool,
    /// When accept-error backoff ends and the listener re-registers.
    accept_resume_at: Option<Instant>,
    backoff: AcceptBackoff,
}

impl EventLoop<'_, '_> {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                self.enter_drain();
            }
            if self.draining && self.open_count() == 0 {
                break;
            }
            events.clear();
            let _ = self.poller.wait(&mut events, Some(self.next_timeout()));

            // Worker completions first: they free connections for the
            // readiness events processed right after.
            while let Ok(done) = self.done_rx.try_recv() {
                self.complete(done);
            }
            for &ev in &events {
                if ev.key == KEY_LISTENER {
                    self.accept_ready();
                } else {
                    self.conn_ready(ev.key - 1, ev);
                }
            }
            let now = Instant::now();
            self.sweep_deadlines(now);
            self.resume_accept(now);
            if self.shutdown.load(Ordering::Acquire) {
                self.enter_drain();
            }
            self.publish_gauges();
        }
        // Close whatever drain left behind (nothing, unless a worker died).
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close(slot);
            }
        }
        self.publish_gauges();
        if self.accepting {
            let _ = self.poller.delete(&self.server.listener);
        }
    }

    // ---- accept path -------------------------------------------------------

    fn accept_ready(&mut self) {
        while self.accepting {
            match self.server.listener.accept() {
                Ok((stream, _)) => {
                    self.backoff.on_success();
                    self.accepted += 1;
                    self.admit(stream);
                    if self.accept_limit.is_some_and(|m| self.accepted >= m) {
                        self.enter_drain();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE and friends: re-entering accept immediately
                    // would busy-spin at 100% CPU. Unregister the listener
                    // and come back after an exponentially growing pause.
                    self.server.metrics.accept_errors.inc();
                    let pause = self.backoff.on_error();
                    self.accept_resume_at = Some(Instant::now() + pause);
                    self.unregister_listener();
                    break;
                }
            }
        }
    }

    fn admit(&mut self, stream: std::net::TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        let generation = self.next_generation;
        self.next_generation += 1;
        let mut conn = Conn::new(stream, generation, self.server.config.request_timeout);
        let overloaded = self.open_count() >= self.server.config.max_connections.max(1);
        if overloaded {
            self.server.metrics.admission_rejected.inc();
            conn.rejected = true;
            conn.queue_response(Wire::Owned(http::overload_response()), true, true);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.conns[s] = Some(conn);
                s
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        if self
            .poller
            .add(
                &self.conns[slot].as_ref().unwrap().stream,
                Event::none(slot + 1),
            )
            .is_err()
        {
            self.conns[slot] = None;
            self.free.push(slot);
            return;
        }
        if overloaded {
            self.pump_write(slot);
        } else {
            self.set_interest(slot, Event::readable(slot + 1));
        }
    }

    fn unregister_listener(&mut self) {
        if self.accepting {
            let _ = self.poller.delete(&self.server.listener);
            self.accepting = false;
        }
    }

    fn resume_accept(&mut self, now: Instant) {
        if let Some(at) = self.accept_resume_at {
            if now >= at && !self.draining {
                self.accept_resume_at = None;
                if !self.accepting
                    && self
                        .poller
                        .add(&self.server.listener, Event::readable(KEY_LISTENER))
                        .is_ok()
                {
                    self.accepting = true;
                }
                // The pause may have swallowed the readiness edge.
                self.accept_ready();
            }
        }
    }

    // ---- connection I/O ----------------------------------------------------

    fn conn_ready(&mut self, slot: usize, ev: Event) {
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return; // already closed this tick
        };
        match conn.state {
            ConnState::Idle | ConnState::Reading if ev.readable => self.read_ready(slot),
            ConnState::Writing if ev.writable => self.pump_write(slot),
            _ => {} // Dispatched, or a spurious direction: nothing to do
        }
    }

    fn read_ready(&mut self, slot: usize) {
        let cap = self.server.config.max_request_bytes + 65536;
        let conn = self.conns[slot].as_mut().unwrap();
        match conn.fill(cap) {
            Fill::Progress => {
                if conn.state == ConnState::Idle {
                    // First byte of a request: arm the whole-request
                    // deadline exactly once. Later reads do NOT re-arm it.
                    conn.state = ConnState::Reading;
                    conn.req_started = Instant::now();
                    conn.deadline = Some(conn.req_started + self.server.config.request_timeout);
                    conn.trace = trace::begin_request("request");
                }
                self.advance(slot);
            }
            Fill::Blocked => {}
            Fill::PeerClosed => {
                if conn.has_partial() {
                    // Peer half-closed mid-head; it can still read our 400.
                    self.respond_inline(
                        slot,
                        "400 Bad Request",
                        "<html><body>malformed request</body></html>",
                    );
                } else {
                    // A connection that opened and closed without a byte
                    // (port scan, health probe): silent, separate counter,
                    // never an "error" — the old 400-per-probe skewed the
                    // error rate. Reused keep-alive connections closing
                    // between requests are plain lifecycle, not aborts.
                    if conn.served == 0 {
                        self.server.metrics.aborted.inc();
                    }
                    self.close(slot);
                }
            }
            Fill::Broken => {
                if self.conns[slot].as_ref().unwrap().served == 0 {
                    self.server.metrics.aborted.inc();
                }
                self.close(slot);
            }
        }
    }

    /// Parses and answers requests from the read buffer: page cache hits
    /// on the spot, one after another while pipelined hits keep arriving
    /// complete; the first miss goes to the worker pool. Callable only in
    /// `Idle`/`Reading`.
    fn advance(&mut self, slot: usize) {
        let max_head = self.server.config.max_request_bytes;
        loop {
            let conn = self.conns[slot].as_mut().unwrap();
            let (req, consumed) = match http::parse_request(&conn.rbuf) {
                Parsed::Incomplete => {
                    if conn.rbuf.len() > max_head {
                        self.respond_inline(
                            slot,
                            "431 Request Header Fields Too Large",
                            "<html><body>request too large</body></html>",
                        );
                    } else {
                        self.set_interest(slot, Event::readable(slot + 1));
                    }
                    return;
                }
                Parsed::Malformed => {
                    self.respond_inline(
                        slot,
                        "400 Bad Request",
                        "<html><body>malformed request line</body></html>",
                    );
                    return;
                }
                Parsed::Request(_, consumed) if consumed > max_head => {
                    self.respond_inline(
                        slot,
                        "431 Request Header Fields Too Large",
                        "<html><body>request too large</body></html>",
                    );
                    return;
                }
                Parsed::Request(req, consumed) => (req, consumed),
            };
            conn.rbuf.drain(..consumed);
            if req.has_body {
                self.respond_inline(
                    slot,
                    "400 Bad Request",
                    "<html><body>request bodies are not supported</body></html>",
                );
                return;
            }
            if conn.served > 0 {
                self.server.metrics.keepalive_reuses.inc();
            }
            conn.deadline = None;
            // Close the parse phase: first byte → complete head.
            let trace_ctx = conn.trace.as_mut().map(|root| {
                root.attr_text("path", &req.path);
                let ctx = root.ctx();
                trace::record_span(
                    &ctx,
                    "serve.parse",
                    trace::Layer::Serve,
                    root.start_ns(),
                    trace::now_ns(),
                    &[("bytes", trace::AttrValue::U64(consumed as u64))],
                );
                ctx
            });
            if let Some(stored) = self.server.cached_page(&req) {
                self.answer_hit(slot, &req, &stored, trace_ctx);
                if self.write_out(slot) {
                    continue; // a pipelined successor is buffered
                }
                return;
            }
            conn.state = ConnState::Dispatched;
            let job = Job {
                slot,
                generation: conn.generation,
                req,
                trace: trace_ctx,
            };
            self.set_interest(slot, Event::none(slot + 1));
            if self.job_tx.send(job).is_err() {
                self.close(slot); // workers gone (only after a panic)
            }
            return;
        }
    }

    /// Queues a page cache hit's response: the stored bytes framed for
    /// this request, with a `serve.handle` span marked `hit`.
    fn answer_hit(
        &mut self,
        slot: usize,
        req: &Request,
        stored: &Arc<[u8]>,
        trace_ctx: Option<trace::Ctx>,
    ) {
        let handle_start = if trace_ctx.is_some() {
            trace::now_ns()
        } else {
            0
        };
        let keep = req.keep_alive && !self.shutdown.load(Ordering::Acquire);
        let bytes = http::page_wire(stored, keep, req.method == Method::Head);
        let conn = self.conns[slot].as_mut().unwrap();
        if let Some(ctx) = trace_ctx {
            trace::record_span(
                &ctx,
                "serve.handle",
                trace::Layer::Serve,
                handle_start,
                trace::now_ns(),
                &[
                    ("hit", trace::AttrValue::U64(1)),
                    ("status", trace::AttrValue::U64(200)),
                    ("bytes", trace::AttrValue::U64(bytes.len() as u64)),
                ],
            );
            if let Some(root) = conn.trace.as_mut() {
                root.attr_u64("status", 200);
            }
        }
        conn.queue_response(bytes, false, !keep);
    }

    /// Queues a loop-generated error response (4xx) and starts flushing.
    /// The connection always closes afterwards: the request stream is not
    /// trustworthy past a framing error.
    fn respond_inline(&mut self, slot: usize, status: &str, body: &str) {
        let bytes = http::encode_response(status, http::CT_HTML, body.as_bytes(), false, false);
        let conn = self.conns[slot].as_mut().unwrap();
        conn.queue_response(Wire::Owned(bytes), true, true);
        self.pump_write(slot);
    }

    fn complete(&mut self, done: Completion) {
        let Some(conn) = self.conns.get_mut(done.slot).and_then(Option::as_mut) else {
            return; // connection died while the worker computed
        };
        if conn.generation != done.generation || conn.state != ConnState::Dispatched {
            return; // slot was recycled; response belongs to a dead conn
        }
        if let Some(root) = conn.trace.as_mut() {
            root.attr_u64("status", done.status);
        }
        conn.queue_response(done.bytes, done.is_error, done.close_after);
        self.pump_write(done.slot);
    }

    /// Flushes the queued response and, once it is out, parses whatever
    /// the client pipelined behind it.
    fn pump_write(&mut self, slot: usize) {
        if self.write_out(slot) {
            self.advance(slot);
        }
    }

    /// Flushes the queued response; finishes it when fully written.
    /// Returns true when the connection is left `Reading` with a
    /// pipelined request buffered, for the caller to parse.
    fn write_out(&mut self, slot: usize) -> bool {
        let conn = self.conns[slot].as_mut().unwrap();
        let before = conn.wpos;
        match conn.flush() {
            Flush::Done => self.finish_response(slot),
            // The kernel buffer is full: only now is writability worth
            // polling for (the common case flushes in one call with no
            // interest churn).
            Flush::Blocked => {
                // Write timeout with socket-timeout semantics: the clock
                // restarts whenever bytes move.
                if conn.wpos > before || conn.deadline.is_none() {
                    conn.deadline = Some(Instant::now() + self.server.config.request_timeout);
                }
                self.set_interest(slot, Event::writable(slot + 1));
                false
            }
            Flush::Broken => {
                self.abandon_write(slot);
                false
            }
        }
    }

    /// Closes a connection whose response will never finish (the peer
    /// vanished, or stopped reading past the write timeout). The request
    /// was processed even if its bytes never landed; keep the counters
    /// honest.
    fn abandon_write(&mut self, slot: usize) {
        let conn = self.conns[slot].as_mut().unwrap();
        finish_trace(conn);
        if !conn.rejected {
            self.server
                .metrics
                .record(conn.req_started.elapsed(), conn.pending_is_error);
        }
        self.close(slot);
    }

    /// Accounts a fully written response and readies the connection for
    /// its next request. Returns true when that request is already
    /// buffered (the connection is then `Reading`).
    fn finish_response(&mut self, slot: usize) -> bool {
        let conn = self.conns[slot].as_mut().unwrap();
        finish_trace(conn);
        if !conn.rejected {
            self.server
                .metrics
                .record(conn.req_started.elapsed(), conn.pending_is_error);
        }
        conn.served += 1;
        if conn.close_after_write || self.draining {
            self.close(slot);
            return false;
        }
        conn.state = ConnState::Idle;
        conn.req_started = Instant::now();
        conn.deadline = Some(conn.req_started + self.server.config.keepalive_timeout);
        if conn.has_partial() {
            // Pipelined successor already buffered: it began "arriving"
            // now for deadline purposes.
            conn.state = ConnState::Reading;
            conn.deadline = Some(conn.req_started + self.server.config.request_timeout);
            conn.trace = trace::begin_request("request");
            true
        } else {
            self.set_interest(slot, Event::readable(slot + 1));
            false
        }
    }

    // ---- deadlines and drain -----------------------------------------------

    fn sweep_deadlines(&mut self, now: Instant) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            let Some(deadline) = conn.deadline else {
                continue;
            };
            if now < deadline {
                continue;
            }
            match conn.state {
                // Keep-alive connection resting between requests: expiry
                // is normal lifecycle, close silently.
                ConnState::Idle if conn.served > 0 => self.close(slot),
                // Never spoke, or dribbled a partial head past the
                // whole-request deadline (the slow-loris cut): 408.
                ConnState::Idle | ConnState::Reading => {
                    self.respond_inline(
                        slot,
                        "408 Request Timeout",
                        "<html><body>request timeout</body></html>",
                    );
                }
                // The peer stopped reading: no write progress for the
                // whole write timeout. Also ends a drain it would stall.
                ConnState::Writing => self.abandon_write(slot),
                ConnState::Dispatched => {}
            }
        }
    }

    fn enter_drain(&mut self) {
        if !self.draining {
            self.draining = true;
            self.accept_resume_at = None;
            self.unregister_listener();
        }
        // In-flight requests (Dispatched/Writing) finish, or meet the write
        // timeout if the peer stopped reading; waiting connections are cut
        // loose.
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].as_ref() {
                if matches!(conn.state, ConnState::Idle | ConnState::Reading) {
                    self.close(slot);
                }
            }
        }
    }

    // ---- bookkeeping -------------------------------------------------------

    fn set_interest(&self, slot: usize, interest: Event) {
        if let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) {
            let _ = self.poller.modify(&conn.stream, interest);
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(mut conn) = self.conns[slot].take() {
            // A request cut short (deadline, drain, dead worker) still
            // finishes its trace so slow/parked requests stay visible.
            finish_trace(&mut conn);
            let _ = self.poller.delete(&conn.stream);
            self.free.push(slot);
        }
    }

    fn open_count(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut next: Option<Instant> = self.accept_resume_at;
        for conn in self.conns.iter().flatten() {
            if let Some(d) = conn.deadline {
                next = Some(next.map_or(d, |n| n.min(d)));
            }
        }
        match next {
            Some(at) => at.saturating_duration_since(now).min(IDLE_TICK),
            None => IDLE_TICK,
        }
    }

    fn publish_gauges(&self) {
        let (mut open, mut idle, mut reading, mut writing) = (0u64, 0u64, 0u64, 0u64);
        for conn in self.conns.iter().flatten() {
            open += 1;
            match conn.state {
                ConnState::Idle => idle += 1,
                ConnState::Reading => reading += 1,
                ConnState::Writing => writing += 1,
                ConnState::Dispatched => {}
            }
        }
        self.server
            .metrics
            .set_conn_gauges(open, idle, reading, writing);
    }
}
