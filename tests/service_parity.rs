//! Live-service parity: the daemon (collector → executor → reporter with
//! bounded queues and the HTTP surface) is the *same pipeline* as the
//! offline `scenarios::run` — so its cached, HTTP-served reports must be
//! byte-for-byte identical to the offline render, each report must be
//! published (with `/stats` describing that same bin) before the next bin
//! arrives, its queues must stay bounded under a stalled consumer, and a
//! graceful shutdown must drain every collected bin. The CI matrix
//! re-runs this file under `PINPOINT_THREADS` via
//! `common::parity_config`.

#[allow(dead_code)]
mod common;

use common::parity_config;
use pinpoint::core::render;
use pinpoint::model::json;
use pinpoint::model::records::{Hop, Reply, TracerouteRecord};
use pinpoint::model::{Asn, BinId, MeasurementId, ProbeId, SimTime};
use pinpoint::scenarios::{ixp, runner, Scale};
use pinpoint::service::{Daemon, Phase, ServiceConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Issue one HTTP/1.1 request and return `(status, body)`.
fn http(addr: SocketAddr, method: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .write_all(format!("{method} {path} HTTP/1.1\r\nHost: pinpointd\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, "GET", path)
}

/// Poll `cond` until it holds; five seconds without it is a failure.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// `n` well-formed two-hop traceroutes.
fn records(n: usize) -> Vec<TracerouteRecord> {
    (0..n as u32)
        .map(|i| TracerouteRecord {
            msm_id: MeasurementId(1),
            probe_id: ProbeId(i),
            probe_asn: Asn(64500),
            dst: Ipv4Addr::new(198, 51, 100, 1),
            timestamp: SimTime(u64::from(i)),
            paris_id: 0,
            hops: vec![
                Hop::new(1, vec![Reply::new(Ipv4Addr::new(10, 0, 0, 1), 1.0); 3]),
                Hop::new(2, vec![Reply::new(Ipv4Addr::new(10, 0, 0, 2), 2.0); 3]),
            ],
            destination_reached: false,
        })
        .collect()
}

fn empty_analyzer() -> pinpoint::core::Analyzer {
    pinpoint::core::Analyzer::new(parity_config(), pinpoint::core::aggregate::AsMapper::new())
}

/// The daemon serving the AMS-IX outage window must publish, for every
/// bin, the exact bytes the offline `run` + `render` path
/// produces — over the HTTP surface and the in-process cache alike.
#[test]
fn daemon_replay_is_byte_identical_to_offline_pipelined() {
    let mut case = ixp::case_study(7, Scale::Small);
    case.cfg = parity_config();
    let (outage_start, outage_end) = ixp::outage_bins();
    case.start_bin = BinId(outage_start - 3);
    case.end_bin = BinId(outage_end + 2);

    // Offline reference: the unified session API over the same window,
    // folding the incremental event channel as the reporter does.
    let mut offline: BTreeMap<u64, String> = BTreeMap::new();
    let mut table = pinpoint::core::EventTable::new();
    let mut analyzer = case.analyzer();
    runner::run(&case, &mut analyzer, |report| {
        table.absorb(&report.events);
        offline.insert(report.bin.0, render::bin_report(report).to_string());
    });
    assert!(
        offline.values().any(|r| r.contains("\"router\"")),
        "the outage fired no forwarding alarms — parity would only be proven on quiet bins"
    );

    // Live replay of the identical feed.
    let feed = case.platform.collect_bins(case.start_bin, case.end_bin);
    let daemon = Daemon::spawn(ServiceConfig::default(), case.analyzer(), feed.into_iter())
        .expect("daemon spawns");
    let addr = daemon.local_addr();
    daemon.state().wait_done();

    assert_eq!(
        daemon.state().bin_ids(),
        offline.keys().copied().collect::<Vec<_>>(),
        "daemon reported a different set of bins"
    );
    for (bin, want) in &offline {
        let cached = daemon.state().report(*bin).expect("bin cached");
        assert_eq!(cached.as_str(), want, "cache diverged on bin {bin}");
        let (status, body) = get(addr, &format!("/bins/{bin}/report"));
        assert_eq!(status, 200);
        assert_eq!(&body, want, "HTTP body diverged on bin {bin}");
    }
    let (status, graph) = get(addr, "/alarms/graph");
    assert_eq!(status, 200);
    assert!(graph.starts_with(&format!("{{\"bin\":{}", case.end_bin.0 - 1)));
    // `?bin=N` names one bin's cached graph; a bad or unknown N is an
    // error, never a silent fall-back to the latest bin.
    let first = *offline.keys().next().expect("bins reported");
    let (status, body) = get(addr, &format!("/alarms/graph?bin={first}"));
    assert_eq!(status, 200);
    let cached = daemon.state().graph(Some(first)).expect("graph cached");
    assert_eq!(body, *cached);
    assert_ne!(body, graph, "?bin= must not serve the latest bin's graph");
    let (status, body) = get(addr, "/alarms/graph?bin=abc");
    assert_eq!(status, 400);
    assert_eq!(body, "{\"error\":\"bin id must be an integer\"}");
    let (status, body) = get(addr, "/alarms/graph?bin=999999");
    assert_eq!(status, 404);
    assert_eq!(body, "{\"error\":\"bin 999999 not reported\"}");

    // The event channel: the live /events listing is the same fold.
    let (status, events_body) = get(addr, "/events");
    assert_eq!(status, 200);
    assert_eq!(
        events_body,
        render::events(&table.ranked()).to_string(),
        "live /events diverged from the offline event fold"
    );
    for event in table.ranked() {
        let (status, body) = get(addr, &format!("/events/{}", event.id));
        assert_eq!(status, 200);
        assert_eq!(
            body,
            render::event(&event).to_string(),
            "live /events/{} diverged",
            event.id
        );
    }
    for bin in offline.keys() {
        let (status, body) = get(addr, &format!("/bins/{bin}/events"));
        assert_eq!(status, 200);
        assert!(body.starts_with(&format!("{{\"bin\":{bin},\"events\":[")));
    }
    daemon.join().expect("clean join");
}

/// A bin's report leaves the push that fed it: over a feed that yields
/// bin 0 and then blocks, bin 0 must be published while bin 1 does not
/// exist yet.
#[test]
fn report_is_published_before_the_next_bin_arrives() {
    let (tx, rx) = mpsc::channel::<(BinId, Vec<TracerouteRecord>)>();
    let daemon = Daemon::spawn(ServiceConfig::default(), empty_analyzer(), rx.into_iter())
        .expect("daemon spawns");
    tx.send((BinId(0), records(3))).expect("feed bin 0");
    wait_until("bin 0's report while bin 1 is withheld", || {
        daemon.state().bins_reported() == 1
    });
    assert!(daemon.state().report(0).is_some());
    assert_eq!(daemon.state().bins_collected(), 1);

    tx.send((BinId(1), records(3))).expect("feed bin 1");
    drop(tx);
    daemon.state().wait_done();
    assert_eq!(daemon.state().bins_reported(), 2);
    daemon.join().expect("clean join");
}

/// `/stats` must describe the bin just published, not one the reports
/// have not reached yet: bin `b` carries `b + 1` records and the reporter
/// publishes one bin per permit, so after each publish
/// `sanitize.bin_records` must read that bin's own count.
#[test]
fn stats_describe_the_published_bin() {
    let total = 5u64;
    let feed = (0..total).map(|b| (BinId(b), records(b as usize + 1)));
    let permits = Arc::new((Mutex::new(0u64), Condvar::new()));
    let hook = {
        let permits = Arc::clone(&permits);
        Box::new(move |_bin: u64| {
            let (count, granted) = &*permits;
            let mut count = count.lock().unwrap();
            while *count == 0 {
                count = granted.wait(count).unwrap();
            }
            *count -= 1;
        })
    };
    let daemon =
        Daemon::spawn_with_report_hook(ServiceConfig::default(), empty_analyzer(), feed, hook)
            .expect("daemon spawns");
    let addr = daemon.local_addr();
    for bin in 0..total {
        {
            let (count, granted) = &*permits;
            *count.lock().unwrap() += 1;
            granted.notify_all();
        }
        wait_until("the next publish", || {
            daemon.state().bins_reported() == bin + 1
        });
        let (status, body) = get(addr, "/stats");
        assert_eq!(status, 200);
        let stats = json::parse(&body).expect("/stats is JSON");
        let bin_records = stats
            .get("sanitize")
            .and_then(|s| s.get("bin_records"))
            .and_then(json::Value::as_u64);
        assert_eq!(
            bin_records,
            Some(bin + 1),
            "/stats after publishing bin {bin} describes another bin: {body}"
        );
    }
    daemon.state().wait_done();
    daemon.join().expect("clean join");
}

/// A deliberately stalled reporter must stall the whole pipeline through
/// the bounded queues: while the first report is held, the collector can
/// run at most `collect + report capacity + in-flight slack` bins ahead,
/// and no queue ever exceeds its bound — on a 64-bin feed.
#[test]
fn stalled_reporter_backpressures_the_collector() {
    let total = 64u64;
    let feed = (0..total).map(|b| (BinId(b), Vec::<TracerouteRecord>::new()));
    let cfg = ServiceConfig {
        collect_capacity: 2,
        report_capacity: 1,
        ..ServiceConfig::default()
    };
    // A gate the reporter blocks on before publishing each bin.
    let gate = Arc::new((Mutex::new(true), Condvar::new()));
    let hook = {
        let gate = Arc::clone(&gate);
        Box::new(move |_bin: u64| {
            let (closed, open) = &*gate;
            let mut closed = closed.lock().unwrap();
            while *closed {
                closed = open.wait(closed).unwrap();
            }
        })
    };
    let mut analyzer = empty_analyzer();
    analyzer.register_ases([Asn(64500)]);
    let daemon = Daemon::spawn_with_report_hook(cfg, analyzer, feed, hook).expect("daemon spawns");

    // Let the pipeline saturate against the closed gate.
    let mut last = 0;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        let now = daemon.state().bins_collected();
        if now == last && now > 0 {
            break;
        }
        last = now;
    }
    let collected = daemon.state().bins_collected();
    assert_eq!(
        daemon.state().bins_reported(),
        0,
        "gate held no report back"
    );
    // 2 queued + 1 in the collector's blocked push + 1 in the executor's
    // blocked emit + 1 queued report + 1 in the reporter's hook.
    assert!(
        collected <= 6,
        "collector ran {collected} bins ahead of a stalled reporter — \
         backpressure is broken"
    );
    let (collect_q, report_q) = daemon.queue_gauges();
    assert!(
        collect_q.peak <= collect_q.capacity,
        "collect queue grew past its bound"
    );
    assert!(
        report_q.peak <= report_q.capacity,
        "report queue grew past its bound"
    );

    // Open the gate: everything drains, the bounds still hold.
    {
        let (closed, open) = &*gate;
        *closed.lock().unwrap() = false;
        open.notify_all();
    }
    daemon.state().wait_done();
    assert_eq!(daemon.state().bins_reported(), total);
    let (collect_q, report_q) = daemon.queue_gauges();
    assert!(collect_q.peak <= collect_q.capacity);
    assert!(report_q.peak <= report_q.capacity);
    daemon.join().expect("clean join");
}

/// An endless, slow feed: `POST /shutdown` must stop the collector only,
/// and every bin collected before the stop must still be reported before
/// the phase flips to done.
#[test]
fn graceful_shutdown_drains_every_collected_bin() {
    struct SlowFeed {
        next: u64,
    }
    impl Iterator for SlowFeed {
        type Item = (BinId, Vec<TracerouteRecord>);
        fn next(&mut self) -> Option<Self::Item> {
            std::thread::sleep(Duration::from_millis(2));
            let bin = BinId(self.next);
            self.next += 1;
            Some((bin, Vec::new()))
        }
    }

    let daemon = Daemon::spawn(
        ServiceConfig::default(),
        empty_analyzer(),
        SlowFeed { next: 0 },
    )
    .expect("daemon spawns");
    let addr = daemon.local_addr();

    while daemon.state().bins_reported() < 3 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, body) = http(addr, "POST", "/shutdown");
    assert_eq!(status, 200);
    assert!(body.contains("\"draining\""));
    daemon.state().wait_done();

    let collected = daemon.state().bins_collected();
    let reported = daemon.state().bins_reported();
    assert_eq!(
        collected,
        reported,
        "graceful shutdown left {} collected bin(s) unreported",
        collected - reported
    );
    assert!(reported >= 3);
    assert_eq!(daemon.state().phase(), Phase::Done);
    let (_, health) = get(addr, "/health");
    assert!(health.contains("\"phase\":\"done\""));
    daemon.join().expect("clean join");
}

/// Twelve concurrent clients hammering the cached report must each get
/// the identical bytes (the immutable-cache contract), and the daemon
/// must still shut down cleanly afterwards.
#[test]
fn concurrent_clients_get_identical_bytes() {
    let feed = (0..4u64).map(|b| (BinId(b), Vec::<TracerouteRecord>::new()));
    let daemon =
        Daemon::spawn(ServiceConfig::default(), empty_analyzer(), feed).expect("daemon spawns");
    let addr = daemon.local_addr();
    daemon.state().wait_done();
    let want = daemon.state().report(3).expect("bin 3 cached");

    let clients: Vec<_> = (0..12)
        .map(|_| {
            std::thread::spawn(move || {
                let (status, body) = get(addr, "/bins/3/report");
                assert_eq!(status, 200);
                body
            })
        })
        .collect();
    for client in clients {
        let body = client.join().expect("client thread");
        assert_eq!(&body, want.as_str(), "a client saw different bytes");
    }
    daemon.join().expect("clean join");
}
