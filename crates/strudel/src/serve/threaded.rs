//! The threaded serving mode: the original blocking worker pool, kept as a
//! fallback (`--threaded`, [`ServeMode::Threaded`]) and as the simplest
//! possible reference for the event-driven mode's behavior.
//!
//! One connection is one request: the handler reads a head under a
//! *whole-request* deadline, answers, and closes. The deadline is computed
//! once per connection and each socket read gets only the remaining slice
//! of it — the old per-read timeout reset let a client dribbling one byte
//! per almost-timeout hold a worker for hours (slow loris); now the total
//! wait from first byte to head completion is bounded by
//! [`ServerConfig::request_timeout`] no matter how the bytes arrive.
//!
//! [`ServeMode::Threaded`]: super::ServeMode::Threaded
//! [`ServerConfig::request_timeout`]: super::ServerConfig::request_timeout

use super::http::{self, AcceptBackoff, Method, Parsed};
use super::Server;
use parking_lot::Mutex;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use strudel_obs::trace;

/// Runs the threaded serving mode. See [`Server::serve`] for the
/// `max_conns` contract.
pub(super) fn run(server: &Server<'_>, max_conns: Option<usize>) -> crate::error::Result<()> {
    let io_err = crate::error::StrudelError::Io;
    // Poll accept so the acceptor can notice `/quit` promptly.
    server.listener.set_nonblocking(true).map_err(io_err)?;
    let shutdown = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Mutex::new(rx);
    let workers = server.config.threads.max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Take the receiver lock only to pull one connection.
                let next = rx.lock().recv();
                match next {
                    Ok(stream) => handle_connection(server, stream, &shutdown),
                    Err(_) => break, // acceptor gone, queue drained
                }
            });
        }
        let mut dispatched = 0usize;
        let mut backoff = AcceptBackoff::new();
        while !shutdown.load(Ordering::Acquire) && max_conns.is_none_or(|m| dispatched < m) {
            match server.listener.accept() {
                Ok((stream, _)) => {
                    backoff.on_success();
                    dispatched += 1;
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    // The old `Err(_) => {}` re-entered accept immediately:
                    // under persistent errors (EMFILE) that busy-spins at
                    // 100% CPU. Count it and back off exponentially.
                    server.metrics.accept_errors.inc();
                    std::thread::sleep(backoff.on_error());
                }
            }
        }
        drop(tx); // lets idle workers exit once the queue drains
    });
    server.listener.set_nonblocking(false).map_err(io_err)?;
    Ok(())
}

/// Outcome of reading one request head off a blocking socket.
enum HeadRead {
    Request(http::Request),
    /// The peer sent garbage, or closed mid-head.
    Malformed,
    /// The head exceeded the configured size cap.
    TooLarge,
    /// The whole-request deadline passed before the head completed.
    TimedOut,
    /// The peer opened and closed without sending a byte, or the socket
    /// broke before any byte arrived: nothing to answer.
    Silent,
    /// The socket broke mid-request; no point responding.
    Broken,
}

/// Reads until a complete head parses, a size cap, EOF, or the
/// whole-request deadline. A request is never acted upon from a partial
/// read; short reads keep going, but only within the one deadline.
fn read_request_head(stream: &mut TcpStream, deadline: Instant, max_bytes: usize) -> HeadRead {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        match http::parse_request(&buf) {
            Parsed::Request(_, consumed) if consumed > max_bytes => return HeadRead::TooLarge,
            Parsed::Request(req, _) => return HeadRead::Request(req),
            Parsed::Malformed => return HeadRead::Malformed,
            Parsed::Incomplete => {}
        }
        if buf.len() > max_bytes {
            return HeadRead::TooLarge;
        }
        // Only the remaining slice of the deadline, never a fresh timeout.
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() || stream.set_read_timeout(Some(remaining)).is_err() {
            return HeadRead::TimedOut;
        }
        match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return HeadRead::Silent,
            Ok(0) => return HeadRead::Malformed,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return HeadRead::TimedOut;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) if buf.is_empty() => return HeadRead::Silent,
            Err(_) => return HeadRead::Broken,
        }
    }
}

/// Finishes an errored connection without a TCP reset: half-closes the
/// write side, then drains whatever the peer already sent so the kernel
/// does not turn our close into RST while response bytes are in flight.
fn linger_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str, head_only: bool) {
    let bytes = http::encode_response(status, content_type, body.as_bytes(), false, head_only);
    let _ = stream.write_all(&bytes);
}

fn handle_connection(server: &Server<'_>, mut stream: TcpStream, shutdown: &AtomicBool) {
    let start = Instant::now();
    let deadline = start + server.config.request_timeout;
    // The stream may inherit the listener's non-blocking mode on some
    // platforms; request handling is blocking with socket timeouts.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(server.config.request_timeout));

    let mut root = trace::begin_request("request");
    let req = match read_request_head(&mut stream, deadline, server.config.max_request_bytes) {
        HeadRead::Request(req) => req,
        HeadRead::Malformed => {
            respond(
                &mut stream,
                "400 Bad Request",
                http::CT_HTML,
                "<html><body>malformed request</body></html>",
                false,
            );
            server.metrics.record(start.elapsed(), true);
            if let Some(mut r) = root.take() {
                r.attr_u64("status", 400);
                r.finish();
            }
            return;
        }
        HeadRead::TooLarge => {
            respond(
                &mut stream,
                "431 Request Header Fields Too Large",
                http::CT_HTML,
                "<html><body>request too large</body></html>",
                false,
            );
            linger_close(&mut stream);
            server.metrics.record(start.elapsed(), true);
            if let Some(mut r) = root.take() {
                r.attr_u64("status", 431);
                r.finish();
            }
            return;
        }
        HeadRead::TimedOut => {
            respond(
                &mut stream,
                "408 Request Timeout",
                http::CT_HTML,
                "<html><body>request timeout</body></html>",
                false,
            );
            server.metrics.record(start.elapsed(), true);
            if let Some(mut r) = root.take() {
                r.attr_u64("status", 408);
                r.finish();
            }
            return;
        }
        HeadRead::Silent => {
            // Port scans and health probes open and close without a byte;
            // answering 400 and counting an error skewed the error rate.
            server.metrics.aborted.inc();
            return;
        }
        HeadRead::Broken => return,
    };

    if req.has_body {
        respond(
            &mut stream,
            "400 Bad Request",
            http::CT_HTML,
            "<html><body>request bodies are not supported</body></html>",
            false,
        );
        server.metrics.record(start.elapsed(), true);
        if let Some(mut r) = root.take() {
            r.attr_text("path", &req.path);
            r.attr_u64("status", 400);
            r.finish();
        }
        return;
    }
    let trace_ctx = root.as_mut().map(|r| {
        r.attr_text("path", &req.path);
        let ctx = r.ctx();
        trace::record_span(
            &ctx,
            "serve.parse",
            trace::Layer::Serve,
            r.start_ns(),
            trace::now_ns(),
            &[],
        );
        ctx
    });
    let _enter = trace_ctx.as_ref().map(trace::enter);
    let mut hspan = trace::span("serve.handle", trace::Layer::Serve);
    let reply = server.route_request(&req, shutdown);
    let bytes = reply.encode(false, req.method == Method::Head);
    if hspan.is_live() {
        let code = reply.status_code();
        hspan.attr_u64("status", code);
        hspan.attr_u64("bytes", bytes.len() as u64);
        if let Some(r) = root.as_mut() {
            r.attr_u64("status", code);
        }
    }
    drop(hspan);
    let write_start = if root.is_some() { trace::now_ns() } else { 0 };
    let _ = stream.write_all(&bytes);
    server.metrics.record(start.elapsed(), reply.is_error());
    drop(_enter);
    if let Some(r) = root.take() {
        let ctx = r.ctx();
        trace::record_span(
            &ctx,
            "serve.write",
            trace::Layer::Serve,
            write_start,
            trace::now_ns(),
            &[("bytes", trace::AttrValue::U64(bytes.len() as u64))],
        );
        r.finish();
    }
}
