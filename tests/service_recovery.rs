//! Crash-safety and self-healing: a panicking stage must fail fast into
//! a degraded-but-serving daemon (never a deadlock), the HTTP surface
//! must survive hostile clients (slow loris, oversized headers), a
//! daemon over a *faulty* feed must byte-match the offline run over the
//! recovered feed (the collector's monotonicity rule IS
//! `netsim::RecoveredFeed`'s), and a checkpoint → restore → resume
//! sequence must reproduce the uninterrupted run byte-for-byte.

#[allow(dead_code)]
mod common;

use common::parity_config;
use pinpoint::core::render;
use pinpoint::core::session::drive;
use pinpoint::core::{Analyzer, EventTable};
use pinpoint::model::records::TracerouteRecord;
use pinpoint::model::BinId;
use pinpoint::netsim::{FaultModel, FaultyFeed, FeedEvent, RecoveredFeed};
use pinpoint::scenarios::{ixp, Scale};
use pinpoint::service::{CheckpointStore, Daemon, FeedSignal, Phase, ServiceConfig, SignalFeed};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// Issue one HTTP/1.1 request and return `(status, body)`.
fn http(addr: SocketAddr, method: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .write_all(format!("{method} {path} HTTP/1.1\r\nHost: pinpointd\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &str) -> (u16, String) {
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

fn bare_analyzer() -> Analyzer {
    let mut analyzer = Analyzer::new(parity_config(), pinpoint::core::aggregate::AsMapper::new());
    analyzer.register_ases([pinpoint::model::Asn(64500)]);
    analyzer
}

/// The outage-window case the parity tests use: a feed with real alarms
/// and events, so byte-comparisons prove more than quiet bins.
fn outage_case() -> pinpoint::scenarios::CaseStudy {
    let mut case = ixp::case_study(7, Scale::Small);
    case.cfg = parity_config();
    let (outage_start, outage_end) = ixp::outage_bins();
    case.start_bin = BinId(outage_start - 3);
    case.end_bin = BinId(outage_end + 2);
    case
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pinpoint-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The supervisor regression: a reporter that panics mid-stream used to
/// leave the executor blocked on a full report queue and the collector
/// blocked behind it — forever. Now the panic poisons both queues, the
/// phase flips to the sticky `Failed`, `/health` reports the fault, and
/// `join()` completes (no deadlock, no abort).
#[test]
fn panicked_stage_degrades_instead_of_deadlocking() {
    let feed = (0..32u64).map(|b| (BinId(b), Vec::<TracerouteRecord>::new()));
    let cfg = ServiceConfig {
        collect_capacity: 2,
        report_capacity: 1,
        ..ServiceConfig::default()
    };
    let hook = Box::new(|bin: u64| {
        if bin == 2 {
            panic!("synthetic reporter crash at bin {bin}");
        }
    });
    let daemon =
        Daemon::spawn_with_report_hook(cfg, bare_analyzer(), feed, hook).expect("daemon spawns");
    let addr = daemon.local_addr();

    // wait_done returns on Failed too — if poisoning were broken this
    // would hang (the harness would time the test binary out).
    daemon.state().wait_done();
    assert_eq!(daemon.state().phase(), Phase::Failed);
    let fault = daemon.state().last_fault().expect("fault recorded");
    assert!(
        fault.contains("reporter stage panicked") && fault.contains("synthetic reporter crash"),
        "unhelpful fault message: {fault}"
    );

    // Degraded, not dead: already-published bins stay servable and
    // /health says exactly what happened.
    let (status, health) = get(addr, "/health");
    assert_eq!(status, 200);
    assert!(health.contains("\"phase\":\"failed\""), "health: {health}");
    assert!(health.contains("\"degraded\":true"), "health: {health}");
    assert!(
        health.contains("reporter stage panicked"),
        "health: {health}"
    );
    for bin in daemon.state().bin_ids() {
        let (status, _) = get(addr, &format!("/bins/{bin}/report"));
        assert_eq!(status, 200, "published bin {bin} vanished after the fault");
    }

    // The phase is sticky: a later graceful-drain request cannot demote
    // Failed back to Draining or let anything claim Done.
    daemon.shutdown();
    assert_eq!(daemon.state().phase(), Phase::Failed);
    daemon
        .join()
        .expect("supervised panic must not poison join");
}

/// A byte-at-a-time client (slow loris) must be answered `408` when the
/// *total* head-read budget runs out — per-read timeouts alone would let
/// one byte every few seconds hold a worker forever.
#[test]
fn slow_loris_client_is_cut_off_with_408() {
    let feed = (0..1u64).map(|b| (BinId(b), Vec::<TracerouteRecord>::new()));
    let cfg = ServiceConfig {
        http_read_deadline_ms: 250,
        ..ServiceConfig::default()
    };
    let daemon = Daemon::spawn(cfg, bare_analyzer(), feed).expect("daemon spawns");
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    let started = std::time::Instant::now();
    // Trickle a valid-looking request one byte at a time, never sending
    // the terminating blank line.
    for byte in b"GET /health HTTP/1.1\r\nX-Drip: " {
        if stream.write_all(&[*byte]).is_err() {
            break; // server already gave up on us — that's the point
        }
        std::thread::sleep(Duration::from_millis(20));
        if started.elapsed() > Duration::from_secs(2) {
            break;
        }
    }
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (status, body) = parse_response(&raw);
    assert_eq!(status, 408, "slow loris got: {raw}");
    assert!(body.contains("timed out"));
    // The worker is free again: a normal request still round-trips.
    let (status, _) = get(daemon.local_addr(), "/health");
    assert_eq!(status, 200);
    daemon.join().expect("clean join");
}

/// A request head larger than the 8 KiB cap is rejected with `431`
/// instead of being buffered without bound.
#[test]
fn oversized_request_head_is_rejected_with_431() {
    let feed = (0..1u64).map(|b| (BinId(b), Vec::<TracerouteRecord>::new()));
    let daemon =
        Daemon::spawn(ServiceConfig::default(), bare_analyzer(), feed).expect("daemon spawns");
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    let huge = format!(
        "GET /health HTTP/1.1\r\nX-Padding: {}\r\n\r\n",
        "a".repeat(16 * 1024)
    );
    // The server may reply (and reset) before we finish writing.
    let _ = stream.write_all(huge.as_bytes());
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    let (status, _) = parse_response(&raw);
    assert_eq!(status, 431, "oversized head got: {raw}");
    daemon.join().expect("clean join");
}

/// The fault-recovery parity claim: a daemon fed through the hostile
/// netsim fault injector (stalls, disconnects, duplicates, reordering,
/// truncation) must publish byte-for-byte the reports of an offline
/// session over `RecoveredFeed` of the *same* fault stream — because the
/// collector's monotonicity rule is the same recovery rule.
#[test]
fn daemon_over_faulty_feed_matches_offline_recovered_run() {
    let case = outage_case();
    let model = FaultModel::hostile(5);
    let feed: Vec<(BinId, Vec<TracerouteRecord>)> = case
        .platform
        .collect_bins(case.start_bin, case.end_bin)
        .into_iter()
        .collect();

    // Offline reference: client-side recovery over the identical fault
    // stream, driven through the unified session API.
    let mut offline: BTreeMap<u64, String> = BTreeMap::new();
    let mut table = EventTable::new();
    let mut analyzer = case.analyzer();
    {
        let mut session = analyzer.session(0);
        let recovered =
            RecoveredFeed::new(FaultyFeed::new(feed.clone().into_iter(), model.clone()));
        drive(&mut session, recovered, |report| {
            table.absorb(&report.events);
            offline.insert(report.bin.0, render::bin_report(&report).to_string());
        });
    }
    assert!(
        !offline.is_empty(),
        "the recovered feed delivered nothing — the fault model ate the window"
    );

    // Live: the same fault stream through the recovering daemon, with a
    // fast retry clock so the hostile disconnects don't slow the test.
    let cfg = ServiceConfig {
        retry_base_ms: 1,
        retry_cap_ms: 4,
        ..ServiceConfig::default()
    };
    let signals = FaultyFeed::new(feed.into_iter(), model).map(|event| match event {
        FeedEvent::Bin(bin, records) => FeedSignal::Bin(bin, records),
        FeedEvent::Stall(n) => FeedSignal::Stall(n),
        FeedEvent::Disconnect => FeedSignal::Disconnect,
    });
    let daemon =
        Daemon::spawn_recovering(cfg, case.analyzer(), SignalFeed(signals)).expect("daemon spawns");
    daemon.state().wait_done();
    assert_eq!(daemon.state().phase(), Phase::Done);

    assert_eq!(
        daemon.state().bin_ids(),
        offline.keys().copied().collect::<Vec<_>>(),
        "the daemon accepted a different bin set than client-side recovery"
    );
    for (bin, want) in &offline {
        let got = daemon.state().report(*bin).expect("bin cached");
        assert_eq!(got.as_str(), want, "faulty-feed parity broke on bin {bin}");
    }
    assert_eq!(
        daemon.state().events_json().as_str(),
        &render::events(&table.ranked()).to_string(),
        "the live /events fold diverged under faults"
    );

    // The degraded-mode accounting saw the faults the model injected.
    assert!(daemon.state().feed_retries() > 0, "no disconnect retried");
    assert!(daemon.state().feed_rejected() > 0, "no duplicate rejected");
    assert!(daemon.state().last_fault().is_some(), "no fault recorded");
    daemon.join().expect("clean join");
}

/// The crash-resume acceptance sequence, in process: run with periodic
/// checkpoints, stop mid-window ("crash"), restore the newest checkpoint
/// into a fresh daemon with `resume_from`, replay the remainder — every
/// post-resume report and the final `/events` listing byte-match the
/// uninterrupted reference run.
#[test]
fn checkpoint_resume_reports_are_byte_identical() {
    let case = outage_case();
    let dir = scratch("resume");
    let feed: Vec<(BinId, Vec<TracerouteRecord>)> = case
        .platform
        .collect_bins(case.start_bin, case.end_bin)
        .into_iter()
        .collect();

    // Uninterrupted reference.
    let mut reference: BTreeMap<u64, String> = BTreeMap::new();
    let mut table = EventTable::new();
    let mut analyzer = case.analyzer();
    {
        let mut session = analyzer.session(0);
        let bins = feed.iter().map(|(bin, records)| (*bin, records.as_slice()));
        drive(&mut session, bins, |report| {
            table.absorb(&report.events);
            reference.insert(report.bin.0, render::bin_report(&report).to_string());
        });
    }

    // Phase 1: checkpoint every 2 bins, then "crash" after a partial
    // window (the feed simply ends — the checkpoints on disk are what a
    // kill -9 would have left, thanks to the atomic rename).
    let cut = case.start_bin.0 + 5;
    let cfg = ServiceConfig {
        checkpoint_every: 2,
        checkpoint_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let partial: Vec<_> = feed.iter().filter(|(b, _)| b.0 < cut).cloned().collect();
    let daemon = Daemon::spawn(cfg, case.analyzer(), partial.into_iter()).expect("daemon spawns");
    daemon.state().wait_done();
    assert!(
        daemon.state().last_checkpoint().is_some(),
        "no checkpoint was recorded"
    );
    let (_, health) = get(daemon.local_addr(), "/health");
    assert!(
        health.contains("\"checkpoint\":{\"lag_bins\":"),
        "health lacks checkpoint lag: {health}"
    );
    daemon.join().expect("clean join");

    // Phase 2: restore from bytes on disk ONLY (a new process would hold
    // nothing else), re-pinning the normalized thread count.
    let store = CheckpointStore::new(&dir);
    let (last_bin, snapshot) = store.load_latest().expect("a valid checkpoint on disk");
    assert!(last_bin < cut);
    let restored = Analyzer::restore_with(&snapshot, |c| c.threads = case.cfg.threads)
        .expect("checkpoint restores");

    let cfg = ServiceConfig {
        resume_from: Some(last_bin),
        ..ServiceConfig::default()
    };
    // Replay overlaps the checkpoint on purpose: the collector must
    // reject the already-covered bins by monotonicity, not re-analyze
    // them.
    let rest: Vec<_> = feed
        .iter()
        .filter(|(b, _)| b.0 >= last_bin.saturating_sub(1))
        .cloned()
        .collect();
    let daemon = Daemon::spawn(cfg, restored, rest.into_iter()).expect("daemon spawns");
    let addr = daemon.local_addr();
    daemon.state().wait_done();
    assert_eq!(daemon.state().phase(), Phase::Done);
    assert!(
        daemon.state().feed_rejected() > 0,
        "the overlapping replay bins were not rejected"
    );

    let resumed_bins: Vec<u64> = (last_bin + 1..case.end_bin.0).collect();
    assert_eq!(daemon.state().bin_ids(), resumed_bins);
    for bin in &resumed_bins {
        let want = reference.get(bin).expect("reference bin");
        let (status, body) = get(addr, &format!("/bins/{bin}/report"));
        assert_eq!(status, 200);
        assert_eq!(&body, want, "resume diverged on bin {bin}");
    }
    // The event surface survives the restart: the reporter's fold was
    // seeded from the restored analyzer, so the final listing equals the
    // uninterrupted fold — including events opened before the crash.
    let (status, events_body) = get(addr, "/events");
    assert_eq!(status, 200);
    assert_eq!(
        events_body,
        render::events(&table.ranked()).to_string(),
        "post-resume /events forgot pre-crash history"
    );
    daemon.join().expect("clean join");
    let _ = std::fs::remove_dir_all(&dir);
}
