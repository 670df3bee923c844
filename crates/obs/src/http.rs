//! A dependency-free loopback HTTP scrape endpoint over the live bus.
//!
//! `std::net::TcpListener` only: binds `127.0.0.1:0` by default (an
//! explicit `ADDR` is supported so CI can curl a fixed port) and serves
//!
//! * `/metrics`  — Prometheus text exposition rendered from the latest
//!   [`LiveSnapshot`](crate::LiveSnapshot) (the same conformant format
//!   the end-of-run [`PrometheusSink`](crate::PrometheusSink) writes),
//! * `/status`   — the snapshot as one JSON object, rendered by the
//!   archive writer ([`archive::render_status`](crate::archive::render_status))
//!   and read back by `rd-inspect watch` with the archive reader,
//! * `/healthz`  — liveness (`200 ok` as soon as the listener is up).
//!
//! The accept loop runs nonblocking on a named thread, polling a stop
//! flag; each connection is served on its own short-lived thread so
//! concurrent scrapes never queue behind each other. [`LiveServer::
//! shutdown`] joins everything, which is what makes "no leaked thread,
//! port released" a testable property rather than a hope.

use crate::live::LiveBus;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Per-connection socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The loopback scrape server. Dropping it shuts it down.
pub struct LiveServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl LiveServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `bus`. Refuses non-loopback addresses: the
    /// endpoint exposes run internals and authenticates nobody.
    pub fn start(addr: &str, bus: Arc<LiveBus>) -> std::io::Result<LiveServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        if !local.ip().is_loopback() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("rd-live binds loopback only, got {local}"),
            ));
        }
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("rd-live-http".into())
            .spawn(move || accept_loop(listener, bus, flag))?;
        Ok(LiveServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it (and, transitively, every
    /// connection thread it spawned). After this returns the port is
    /// released and can be rebound.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, bus: Arc<LiveBus>, stop: Arc<AtomicBool>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let bus = bus.clone();
                // Thread-per-connection keeps concurrent scrapes from
                // queueing; handles are reaped so shutdown can join
                // every straggler.
                if let Ok(handle) = std::thread::Builder::new()
                    .name("rd-live-conn".into())
                    .spawn(move || serve_connection(stream, &bus))
                {
                    conns.push(handle);
                }
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
    for handle in conns {
        let _ = handle.join();
    }
}

/// Reads one request, writes one response, closes. HTTP/1.0-simple on
/// purpose: every scraper sends `GET <path> HTTP/1.x` and none of the
/// endpoints take a body.
fn serve_connection(mut stream: TcpStream, bus: &LiveBus) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut buf = [0u8; 1024];
    let mut read = 0;
    // Read until the header terminator (or the cap): request lines are
    // tiny, but a scraper may deliver them across packets.
    while read < buf.len() {
        match stream.read(&mut buf[read..]) {
            Ok(0) => break,
            Ok(k) => {
                read += k;
                if buf[..read].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&buf[..read]);
    let path = request
        .lines()
        .next()
        .and_then(|line| {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("GET"), Some(path)) => Some(path.to_string()),
                _ => None,
            }
        })
        .unwrap_or_default();
    let (status, content_type, body) = match path.as_str() {
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        "/status" => match bus.read() {
            Some(snap) => (
                "200 OK",
                "application/json",
                crate::archive::render_status(&snap),
            ),
            None => (
                "503 Service Unavailable",
                "application/json",
                "{\"error\":\"no snapshot published yet\"}".to_string(),
            ),
        },
        "/metrics" => match bus.read() {
            Some(snap) => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                snap.render_metrics(),
            ),
            None => (
                "503 Service Unavailable",
                "text/plain; charset=utf-8",
                "no snapshot published yet\n".to_string(),
            ),
        },
        "" => (
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "malformed request\n".to_string(),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "unknown path; try /metrics /status /healthz\n".to_string(),
        ),
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Minimal HTTP GET against a live endpoint: returns `(status code,
/// body)`. This is the whole client `rd-inspect watch` (and the test
/// suite) needs — one request per poll, `Connection: close`.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response")
        })?;
    let body = match response.split_once("\r\n\r\n") {
        Some((_, body)) => body.to_string(),
        None => String::new(),
    };
    Ok((status, body))
}
