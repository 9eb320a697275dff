//! A minimal scrape endpoint: `GET /metrics` and `GET /state` over plain
//! `std::net`.
//!
//! There is no async runtime in this workspace, and a metrics endpoint
//! does not need one: scrapes are rare (seconds apart), tiny (one
//! request line in, one document out), and tolerant of milliseconds of
//! latency. The server is a single thread around a non-blocking
//! [`TcpListener`]: it polls `accept` with a short sleep, serves one
//! connection at a time, and round-trips each request to the owning
//! reactor as a job over its [`Plane`] (single node or fleet — the route is
//! the same), so a scrape costs the reactor one rendered string between
//! quanta and can never race the control plane.
//!
//! Unknown paths get 404, non-GET methods 405, and a request that
//! arrives while the reactor is shutting down gets 503. One deadline
//! ([`IO_TIMEOUT`]) bounds the whole request head, however slowly its
//! bytes trickle in: the endpoint has one thread, and a peer must not be
//! able to hold it against the scrapers queued behind.
//!
//! This file (with `reactor.rs`) is the service's thread boundary: each
//! carries one `#[allow(clippy::disallowed_methods)]` over the thread ban
//! in `crates/clippy.toml`; the deterministic stack below the service
//! crate never spawns.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::bus::Bus;
use crate::pacing::Ticker;
use crate::reactor::{call, scrape, Job, Plane};

/// How long the accept loop sleeps when no connection is pending.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Deadline for reading a request head, and again for writing the
/// response: a stalled scraper cannot wedge the endpoint (the next poll
/// iteration serves the next connection).
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// The metrics endpoint thread and its shutdown flag.
pub(crate) struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving.
    ///
    /// # Errors
    ///
    /// Returns the bind error verbatim.
    #[allow(
        clippy::disallowed_methods,
        reason = "the scrape endpoint owns one of the service's two long-lived threads; it renders what the reactor decided and decides nothing"
    )]
    pub(crate) fn spawn<P: Plane>(
        addr: &str,
        jobs: SyncSender<Job<P>>,
        bus: Bus<P::Event>,
    ) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cuttlesys-metrics-http".into())
            .spawn(move || accept_loop(&listener, &jobs, &bus, &stop_flag))?;
        Ok(HttpServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop<P: Plane>(
    listener: &TcpListener,
    jobs: &SyncSender<Job<P>>,
    bus: &Bus<P::Event>,
    stop: &AtomicBool,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => serve(stream, jobs, bus),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            // Transient accept errors (e.g. ECONNABORTED) are not fatal to
            // the endpoint; back off and keep listening.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Reads the request line, routes it, writes the response. Any I/O error
/// just drops the connection — the scraper retries on its next interval.
fn serve<P: Plane>(mut stream: TcpStream, jobs: &SyncSender<Job<P>>, bus: &Bus<P::Event>) {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let deadline = Ticker::new(IO_TIMEOUT);
    let mut buf = [0u8; 1024];
    let mut n = 0;
    // Read until the request line is complete (or the buffer fills — a
    // longer request line than 1 KiB is not one we route anyway). Each read
    // waits only for what is left of the one deadline.
    while !buf[..n].contains(&b'\n') && n < buf.len() {
        let left = deadline.remaining();
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(m) => n += m,
            Err(_) => return,
        }
    }
    // Only the request line must be text: header values may carry obs-text
    // bytes (RFC 9110 §5.5), and no header is routed on.
    let line = buf[..n].split(|&b| b == b'\n').next().unwrap_or_default();
    let Ok(request_line) = std::str::from_utf8(line) else {
        return;
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "GET only\n",
        );
        return;
    }
    match path {
        "/metrics" => match scrape(jobs, bus) {
            Ok(body) => respond(&mut stream, "200 OK", "text/plain; version=0.0.4", &body),
            Err(_) => unavailable(&mut stream),
        },
        "/state" => match call(jobs, |plane: &mut P| plane.state_json() + "\n") {
            Ok(body) => respond(&mut stream, "200 OK", "application/json", &body),
            Err(_) => unavailable(&mut stream),
        },
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain",
            "try /metrics or /state\n",
        ),
    }
}

fn unavailable(stream: &mut TcpStream) {
    respond(
        stream,
        "503 Service Unavailable",
        "text/plain",
        "control plane stopped\n",
    );
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{Service, ServiceBuilder};
    use cuttlesys::types::Scenario;
    use std::net::Shutdown;
    use std::time::Instant;
    use util::rng64::mix_stream;

    fn endpoint() -> (Service, SocketAddr) {
        let service = ServiceBuilder::new(&Scenario::quick_demo())
            .metrics_addr("127.0.0.1:0")
            .start()
            .unwrap();
        let addr = service.metrics_addr().unwrap();
        (service, addr)
    }

    /// A well-formed scrape: the full response, once the server closes.
    fn get(addr: SocketAddr, path: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "the test plays a hostile client: a raw thread trickles bytes against a wall-clock deadline"
    )]
    fn a_trickling_client_cannot_starve_the_scrape_behind_it() {
        let (service, addr) = endpoint();
        // Connected first, so first in the accept queue.
        let mut slow = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        // One byte every 100 ms never trips a per-read timeout; only a
        // deadline on the whole request head ends it.
        let trickler = std::thread::spawn(move || {
            for byte in b"GET /metrics-but-very-slowly-spelled-out".iter().cycle() {
                if slow.write_all(&[*byte]).is_err() || started.elapsed() > 4 * IO_TIMEOUT {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            started.elapsed()
        });
        // The acceptor is held; the reactor is not.
        service.step_quantum().unwrap();
        let stepped = started.elapsed();
        assert!(stepped < IO_TIMEOUT, "a quantum waited on the endpoint");
        // Queued behind the trickler on the endpoint's one thread.
        let response = get(addr, "/metrics");
        let answered = started.elapsed();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(
            answered < 2 * IO_TIMEOUT,
            "the scrape behind a trickler took {answered:?} (quantum done at {stepped:?})"
        );
        assert!(trickler.join().unwrap() < 4 * IO_TIMEOUT, "never dropped");
    }

    #[test]
    fn malformed_request_heads_leave_the_endpoint_serving() {
        let (service, addr) = endpoint();
        let hostile: [&[u8]; 3] = [
            // A request line four times the head buffer.
            &[b'A'; 4096],
            // Not UTF-8.
            b"GET /\xff\xfe\xfd HTTP/1.1\r\n\r\n",
            // Closed before the newline.
            b"GET /metr",
        ];
        for head in hostile {
            let mut conn = TcpStream::connect(addr).unwrap();
            // The server may reset the connection under an oversized write.
            let _ = conn.write_all(head);
            drop(conn);
            service.step_quantum().unwrap();
            let response = get(addr, "/state");
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        }
    }

    #[test]
    fn a_valid_request_line_with_a_non_utf8_header_is_served() {
        let (_service, addr) = endpoint();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nUser-Agent: caf\xe9\r\n\r\n")
            .unwrap();
        let mut response = Vec::new();
        conn.read_to_end(&mut response).unwrap();
        let response = String::from_utf8_lossy(&response);
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response:?}");
    }

    /// Seeded hostile request heads: random bytes, a valid head cut short,
    /// a head past the 1 KiB buffer, and a peer that leaves before the
    /// response. Each client shuts its write half, so no case waits out
    /// [`IO_TIMEOUT`].
    #[test]
    fn generated_hostile_heads_leave_the_endpoint_serving() {
        const SEED: u64 = 0x4854_5450;
        const CASES: u64 = 64;
        let (service, addr) = endpoint();
        let valid = b"GET /metrics HTTP/1.1\r\nHost: x\r\nUser-Agent: probe\r\n\r\n";
        for case in 0..CASES {
            let mut index = 0;
            let mut draw = |bound: usize| {
                index += 1;
                (mix_stream(SEED, case, index) % bound as u64) as usize
            };
            let kind = case % 4;
            let head: Vec<u8> = match kind {
                0 => (0..draw(2048)).map(|_| draw(256) as u8).collect(),
                1 => valid[..draw(valid.len())].to_vec(),
                2 => {
                    let mut head = b"GET /".to_vec();
                    head.resize(1024 + draw(3072), b'a');
                    head.extend_from_slice(b" HTTP/1.1\r\n\r\n");
                    head
                }
                _ => valid.to_vec(),
            };
            let mut conn = TcpStream::connect(addr).unwrap();
            // The server may reset the connection under an oversized write.
            let _ = conn.write_all(&head);
            let _ = conn.shutdown(Shutdown::Write);
            if kind != 3 {
                let _ = conn.read_to_end(&mut Vec::new());
            }
            drop(conn);
            assert!(service.step_quantum().is_ok(), "case {case}");
            let response = get(addr, "/state");
            assert!(
                response.starts_with("HTTP/1.1 200 OK"),
                "case {case}: {response}"
            );
        }
    }
}
