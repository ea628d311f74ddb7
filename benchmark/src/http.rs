//! The read side: a minimal HTTP/1.1 client that verifies what it reads,
//! a closed-loop reader (zero think time) and an open-loop reader (one
//! request per interval, timed from its due time).

use crate::live::Newest;
use crate::trace::Tracer;
use pinpoint_core::snapshot::crc32;
use pinpoint_service::ServiceState;
use pinpoint_stats::SplitMix64;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The routes the benchmark reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `/bins/{id}/report`
    Report,
    /// `/bins/{id}/events`
    BinEvents,
    /// `/alarms/graph?bin=`
    Graph,
    /// `/events`
    Events,
    /// `/bins`
    Bins,
    /// `/asn/{id}/timeline`
    Timeline,
    /// `/health`
    Health,
    /// `/bins/{id}/report` of a bin never fed: expects 404.
    Missing,
}

impl Route {
    /// Every route, in the order per-route metrics are listed.
    pub const ALL: [Route; 8] = [
        Route::Report,
        Route::BinEvents,
        Route::Graph,
        Route::Events,
        Route::Bins,
        Route::Timeline,
        Route::Health,
        Route::Missing,
    ];

    /// Span and metric name.
    pub fn name(self) -> &'static str {
        match self {
            Route::Report => "service.http.report",
            Route::BinEvents => "service.http.bin_events",
            Route::Graph => "service.http.graph",
            Route::Events => "service.http.events",
            Route::Bins => "service.http.bins",
            Route::Timeline => "service.http.timeline",
            Route::Health => "service.http.health",
            Route::Missing => "service.http.missing",
        }
    }

    fn path(self, bin: u64, asn: u32) -> String {
        match self {
            Route::Report | Route::Missing => format!("/bins/{bin}/report"),
            Route::BinEvents => format!("/bins/{bin}/events"),
            Route::Graph => format!("/alarms/graph?bin={bin}"),
            Route::Events => "/events".to_string(),
            Route::Bins => "/bins".to_string(),
            Route::Timeline => format!("/asn/{asn}/timeline"),
            Route::Health => "/health".to_string(),
        }
    }

    fn expected_status(self) -> u16 {
        if self == Route::Missing {
            404
        } else {
            200
        }
    }
}

/// The fixed `read_heavy` mix, in percent.
pub const READ_MIX: [(Route, u32); 8] = [
    (Route::Report, 50),
    (Route::BinEvents, 10),
    (Route::Graph, 10),
    (Route::Events, 10),
    (Route::Bins, 10),
    (Route::Timeline, 5),
    (Route::Health, 4),
    (Route::Missing, 1),
];

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// What was asked.
    pub route: Route,
    /// Seconds since the reader began when the last body byte arrived.
    pub done_s: f64,
    /// Start (closed loop) or due time (open loop) → last body byte.
    pub ms: f64,
    /// Body bytes.
    pub bytes: usize,
    /// Status, length and (when sampled) checksum were as expected.
    pub ok: bool,
    /// The status was neither 200 nor the 404 a missing bin expects.
    pub status_other: bool,
    /// How late the request started after its due time (open loop).
    pub late_ms: f64,
    /// Connect time.
    pub connect_us: f64,
    /// Request start → first response byte.
    pub ttfb_us: f64,
}

/// What a reader measured.
#[derive(Debug, Default)]
pub struct ReadSide {
    /// Every request, in completion order per client.
    pub samples: Vec<Sample>,
}

impl ReadSide {
    /// Requests that failed a check.
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }
}

struct Client {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    buf: Vec<u8>,
    requests: u64,
    /// Request ids are `lane << 32 | n`, unique per run.
    lane: u64,
}

impl Client {
    /// One `Connection: close` request, read to the end and verified.
    /// `due` backdates the latency for an open-loop caller.
    fn get(
        &mut self,
        route: Route,
        bin: u64,
        asn: u32,
        due: Option<Instant>,
        began: Instant,
        tracer: &mut Tracer,
    ) -> Sample {
        let start = Instant::now();
        let id = self.lane << 32 | self.requests;
        self.requests += 1;
        let mut stamps = (start, start);
        let result = (|| -> std::io::Result<(u16, usize, usize)> {
            let mut conn = TcpStream::connect(self.addr)?;
            conn.set_nodelay(true)?;
            conn.set_read_timeout(Some(Duration::from_secs(10)))?;
            stamps.0 = Instant::now();
            conn.write_all(
                format!(
                    "GET {} HTTP/1.1\r\nHost: pinpointd\r\nConnection: close\r\n\r\n",
                    route.path(bin, asn)
                )
                .as_bytes(),
            )?;
            self.buf.clear();
            self.buf.resize(4096, 0);
            let n = conn.read(&mut self.buf)?;
            stamps.1 = Instant::now();
            self.buf.truncate(n);
            conn.read_to_end(&mut self.buf)?;
            parse_response(&self.buf)
        })();
        let done = Instant::now();
        let (ok, status_other, bytes) = match result {
            Ok((status, declared, body_at)) => {
                let body = &self.buf[body_at..];
                let mut ok = status == route.expected_status() && declared == body.len();
                // One report body in 64 is compared with the cache.
                if ok && route == Route::Report && id.is_multiple_of(64) {
                    ok = self
                        .state
                        .report(bin)
                        .is_some_and(|cached| crc32(cached.as_bytes()) == crc32(body));
                }
                (ok, status != 200 && status != 404, body.len())
            }
            Err(_) => (false, true, 0),
        };
        let from = due.unwrap_or(start);
        let root = tracer.record(route.name(), id, None, from, done);
        tracer.record("service.http.connect", id, root, start, stamps.0);
        tracer.record("service.http.ttfb", id, root, stamps.0, stamps.1);
        tracer.record("service.http.body", id, root, stamps.1, done);
        Sample {
            route,
            done_s: (done - began).as_secs_f64(),
            ms: (done - from).as_secs_f64() * 1e3,
            bytes,
            ok,
            status_other,
            late_ms: (start - from).as_secs_f64() * 1e3,
            connect_us: (stamps.0 - start).as_secs_f64() * 1e6,
            ttfb_us: (stamps.1 - stamps.0).as_secs_f64() * 1e6,
        }
    }
}

/// `(status, Content-Length, offset of the body)` of a whole response.
fn parse_response(raw: &[u8]) -> std::io::Result<(u16, usize, usize)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no end of head"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status"))?;
    let length = lines
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("no Content-Length"))?;
    Ok((status, length, head_end + 4))
}

/// What the readers aim at.
#[derive(Clone)]
pub struct Target {
    /// The daemon's HTTP address.
    pub addr: SocketAddr,
    /// Its state, for the sampled checksum comparison.
    pub state: Arc<ServiceState>,
    /// Published bins to draw ids from.
    pub bins: std::ops::Range<u64>,
    /// ASes with a timeline.
    pub ases: Vec<u32>,
}

/// Closed loop: `clients` threads, each sending its next request the
/// moment the previous one completed, drawing routes from [`READ_MIX`]
/// and bin ids uniformly, for `duration`.
pub fn closed_loop(
    target: &Target,
    clients: u32,
    duration: Duration,
    seed: u64,
    tracer: &mut Tracer,
) -> ReadSide {
    let began = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let target = target.clone();
            let mut tracer = tracer.fork(16 + c);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(seed ^ 0xC11E ^ u64::from(c) << 32);
                let mut client = Client {
                    addr: target.addr,
                    state: Arc::clone(&target.state),
                    buf: Vec::new(),
                    requests: 0,
                    lane: u64::from(16 + c),
                };
                let mut samples = Vec::new();
                while began.elapsed() < duration {
                    let mut draw = rng.next_below(100) as u32;
                    let route = READ_MIX
                        .iter()
                        .find(|(_, share)| {
                            let hit = draw < *share;
                            draw = draw.saturating_sub(*share);
                            hit
                        })
                        .map_or(Route::Health, |(r, _)| *r);
                    let bin = if route == Route::Missing {
                        target.bins.end + 1_000_000
                    } else {
                        target.bins.start + rng.next_below(target.bins.end - target.bins.start)
                    };
                    let asn = *rng.choose(&target.ases);
                    samples.push(client.get(route, bin, asn, None, began, &mut tracer));
                }
                (samples, tracer)
            })
        })
        .collect();
    let mut side = ReadSide::default();
    for handle in handles {
        let (samples, lane) = handle.join().expect("a reader does not panic");
        side.samples.extend(samples);
        tracer.merge(lane);
    }
    side
}

/// Open loop: one thread sends requests at due times fixed in advance,
/// whatever the daemon does — the newest report, `/events`, `/bins`,
/// `/health` in rotation — until `duration` has passed. The gaps between
/// due times are exponential with mean `interval` (independent users),
/// so requests do not keep a fixed phase to the paced bins. Latency
/// counts from the due time, so a stall is charged to every request it
/// delays.
pub fn open_loop(
    target: Target,
    newest: Newest,
    interval: Duration,
    duration: Duration,
    seed: u64,
    mut tracer: Tracer,
) -> std::thread::JoinHandle<(ReadSide, Tracer)> {
    std::thread::spawn(move || {
        const ROTATION: [Route; 4] = [Route::Report, Route::Events, Route::Bins, Route::Health];
        let began = Instant::now();
        let mut client = Client {
            addr: target.addr,
            state: target.state,
            buf: Vec::new(),
            requests: 0,
            lane: 15,
        };
        let mut samples = Vec::new();
        let mut rng = SplitMix64::new(seed ^ 0x0BE4);
        let mut due = began;
        for k in 0usize.. {
            due += interval.mul_f64(-(1.0 - rng.next_f64()).ln());
            if due >= began + duration {
                break;
            }
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            // Before the first report is visible there is no newest
            // report to ask for.
            let (route, bin) = match (ROTATION[k % 4], newest.load(Ordering::SeqCst)) {
                (Route::Report, 0) => (Route::Health, 0),
                (route, next) => (route, next.saturating_sub(1)),
            };
            samples.push(client.get(route, bin, 0, Some(due), began, &mut tracer));
        }
        (ReadSide { samples }, tracer)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_parsed_and_short_bodies_show() {
        let raw = b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 7\r\nConnection: close\r\n\r\n{\"a\":1}";
        let (status, length, at) = parse_response(raw).unwrap();
        assert_eq!((status, length, &raw[at..]), (404, 7, &b"{\"a\":1}"[..]));
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 7\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\nbody").is_err());
    }

    #[test]
    fn the_mix_sums_to_a_hundred() {
        assert_eq!(READ_MIX.iter().map(|(_, share)| share).sum::<u32>(), 100);
    }
}
