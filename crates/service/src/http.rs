//! A std-only HTTP/1.1 surface over the daemon state.
//!
//! No hyper/axum — this environment has no registry access, so the
//! server is a hand-rolled `TcpListener`: one accept thread feeds
//! connections into a [`BoundedQueue`] drained by a pool of worker
//! threads (so ≥ 8 concurrent clients are served in parallel while the
//! accept loop never blocks on a slow client). Every response is
//! `Connection: close` JSON; report bodies are served straight from the
//! immutable `Arc<String>` cache — zero re-rendering, identical bytes
//! for every client.
//!
//! Routes:
//!
//! | Route | Body |
//! |---|---|
//! | `GET /health` | phase, readiness, bin counters |
//! | `GET /bins` | reported bins with headline counters |
//! | `GET /bins/{id}/report` | the cached full report of one bin |
//! | `GET /bins/{id}/events` | the cached event deltas of one bin |
//! | `GET /events` | ranked fleet events as of the latest bin |
//! | `GET /events/{id}` | current state of one event |
//! | `GET /asn/{id}/timeline` | per-bin severity/magnitude series of one AS |
//! | `GET /alarms/graph[?bin=N]` | the cached alarm graph (default: latest bin) |
//! | `GET /stats` | ingest + sanitize counters, queue gauges, latencies |
//! | `POST /shutdown` | request graceful drain |

use crate::queue::BoundedQueue;
use crate::state::{QueueGauge, ServiceState};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything a worker needs to answer a request.
pub(crate) struct Router {
    pub state: Arc<ServiceState>,
    /// Live (collect, report) queue gauges.
    pub gauges: Box<dyn Fn() -> (QueueGauge, QueueGauge) + Send + Sync>,
    /// Invoked on `POST /shutdown` (stops the collector; the pipeline
    /// then drains on its own).
    pub on_shutdown: Box<dyn Fn() + Send + Sync>,
    /// Total wall-clock budget for reading one request head. A client
    /// trickling bytes (slow loris) is answered `408` when the budget
    /// runs out, freeing the worker — per-read timeouts alone would let
    /// one byte every few seconds hold a worker forever.
    pub read_deadline: Duration,
}

/// Largest accepted request head; beyond this the reply is `431`.
const MAX_HEAD_BYTES: usize = 8192;

pub(crate) struct HttpServer {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<BoundedQueue<TcpStream>>,
    stopping: Arc<AtomicBool>,
}

impl HttpServer {
    pub(crate) fn spawn(addr: &str, workers: usize, router: Router) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let workers = workers.max(1);
        let conns = Arc::new(BoundedQueue::new(workers * 2));
        let stopping = Arc::new(AtomicBool::new(false));
        let router = Arc::new(router);

        let mut pool = Vec::with_capacity(workers);
        for _ in 0..workers {
            let conns = Arc::clone(&conns);
            let router = Arc::clone(&router);
            pool.push(std::thread::spawn(move || {
                while let Ok(stream) = conns.pop() {
                    // A broken client connection only affects that client.
                    let _ = serve_one(stream, &router);
                }
            }));
        }

        let accept = {
            let conns = Arc::clone(&conns);
            let stopping = Arc::clone(&stopping);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if conns.push(stream).is_err() {
                        break;
                    }
                }
            })
        };

        Ok(HttpServer {
            addr,
            accept: Some(accept),
            workers: pool,
            conns,
            stopping,
        })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain queued connections, join every thread.
    pub(crate) fn stop(&mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.conns.close();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Read one request (first line + headers), route it, write the reply.
fn serve_one(mut stream: TcpStream, router: &Router) -> std::io::Result<()> {
    let started = std::time::Instant::now();
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() > MAX_HEAD_BYTES {
            return respond(&mut stream, 431, "{\"error\":\"headers too large\"}");
        }
        // Per-read timeout = whatever is left of the TOTAL budget, so a
        // byte-at-a-time client cannot reset the clock with each byte.
        let remaining = router.read_deadline.saturating_sub(started.elapsed());
        if remaining.is_zero() {
            return respond(
                &mut stream,
                408,
                "{\"error\":\"request head read timed out\"}",
            );
        }
        stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return respond(
                    &mut stream,
                    408,
                    "{\"error\":\"request head read timed out\"}",
                );
            }
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return respond(&mut stream, 400, "{\"error\":\"malformed request\"}");
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let (status, body) = route(router, method, path, query);
    respond(&mut stream, status, body.as_str())
}

/// A response body: a cached render shared with every other client, or
/// text built for this request.
enum Body {
    Cached(Arc<String>),
    Built(String),
}

impl Body {
    fn as_str(&self) -> &str {
        match self {
            Body::Cached(body) => body,
            Body::Built(body) => body,
        }
    }
}

impl From<Arc<String>> for Body {
    fn from(body: Arc<String>) -> Self {
        Body::Cached(body)
    }
}

impl From<String> for Body {
    fn from(body: String) -> Self {
        Body::Built(body)
    }
}

impl From<&str> for Body {
    fn from(body: &str) -> Self {
        Body::Built(body.to_string())
    }
}

fn route(router: &Router, method: &str, path: &str, query: Option<&str>) -> (u16, Body) {
    const BAD_BIN: &str = "{\"error\":\"bin id must be an integer\"}";
    let bin_not_reported = |bin: u64| format!("{{\"error\":\"bin {bin} not reported\"}}").into();
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segments.as_slice()) {
        ("GET", []) => (
            200,
            concat!(
                "{\"service\":\"pinpointd\",\"endpoints\":[\"/health\",\"/bins\",",
                "\"/bins/{id}/report\",\"/bins/{id}/events\",\"/events\",",
                "\"/events/{id}\",\"/asn/{id}/timeline\",\"/alarms/graph\",",
                "\"/stats\",\"POST /shutdown\"]}"
            )
            .into(),
        ),
        ("GET", ["health"]) => (200, router.state.health_json().into()),
        ("GET", ["bins"]) => (200, router.state.bins_json().into()),
        ("GET", ["bins", id, "report"]) => match id.parse::<u64>() {
            Ok(bin) => match router.state.report(bin) {
                Some(report) => (200, report.into()),
                None => (404, bin_not_reported(bin)),
            },
            Err(_) => (400, BAD_BIN.into()),
        },
        ("GET", ["bins", id, "events"]) => match id.parse::<u64>() {
            Ok(bin) => match router.state.bin_events(bin) {
                Some(events) => (200, events.into()),
                None => (404, bin_not_reported(bin)),
            },
            Err(_) => (400, BAD_BIN.into()),
        },
        ("GET", ["events"]) => (200, router.state.events_json().into()),
        ("GET", ["events", id]) => match id.parse::<u64>() {
            Ok(event) => match router.state.event_json(event) {
                Some(body) => (200, body.into()),
                None => (
                    404,
                    format!("{{\"error\":\"event {event} not reported\"}}").into(),
                ),
            },
            Err(_) => (400, "{\"error\":\"event id must be an integer\"}".into()),
        },
        ("GET", ["asn", id, "timeline"]) => match id.parse::<u32>() {
            Ok(asn) => match router.state.timeline_json(asn) {
                Some(body) => (200, body.into()),
                None => (404, format!("{{\"error\":\"AS{asn} not tracked\"}}").into()),
            },
            Err(_) => (400, "{\"error\":\"asn must be an integer\"}".into()),
        },
        ("GET", ["alarms", "graph"]) => {
            let bin = query
                .and_then(|q| q.split('&').find_map(|kv| kv.strip_prefix("bin=")))
                .map(str::parse::<u64>)
                .transpose();
            let Ok(bin) = bin else {
                return (400, BAD_BIN.into());
            };
            match (router.state.graph(bin), bin) {
                (Some(graph), _) => (200, graph.into()),
                (None, Some(bin)) => (404, bin_not_reported(bin)),
                (None, None) => (404, "{\"error\":\"no bin reported yet\"}".into()),
            }
        }
        ("GET", ["stats"]) => {
            let (collect, report) = (router.gauges)();
            (200, router.state.stats_json(collect, report).into())
        }
        ("POST", ["shutdown"]) => {
            (router.on_shutdown)();
            (200, "{\"ok\":true,\"phase\":\"draining\"}".into())
        }
        _ => (404, "{\"error\":\"not found\"}".into()),
    }
}

/// Head and body leave in ONE write: two small writes would invite a
/// Nagle / delayed-ACK stall between them.
fn respond(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    let mut response = String::with_capacity(128 + body.len());
    let _ = write!(
        response,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}
