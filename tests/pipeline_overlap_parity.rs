//! Bin-executor parity tests: the one schedule of `session(..)` — compaction
//! sweep, scatter wave, merge fence, shard wave, absorb — must be
//! *byte-for-byte* equivalent to the paper-literal oracle
//! (`pinpoint_bench::oracle`) for any thread count and the chunk cut the
//! engine derives from it, for a solo [`Analyzer`] and for a multi-stream
//! [`StreamRouter`] fleet alike, and must agree with itself on the
//! intern-epoch and sanitizer counters across that matrix. The sweeps here
//! cover alarm-firing event bins (the AMS-IX outage; a delay surge; a route
//! flip), empty bins, and epoch-compaction bins mid-stream. The file also
//! pins the session's bin-clock contract.
//!
//! Like the other parity suites, the CI matrix re-runs this file under
//! `PINPOINT_THREADS`; the tests additionally sweep threads internally, so
//! every matrix point proves several schedules. (The file keeps its
//! historical name: the test ids are pinned by the tier-1 floor list.)

mod common;

use common::{assert_reports_identical, padded, parity_config};
use pinpoint::core::aggregate::AsMapper;
use pinpoint::core::ingest::resolve_chunk_for;
use pinpoint::core::{
    AnalysisSession, Analyzer, BinReport, DetectorConfig, FleetReport, StreamRouter,
};
use pinpoint::model::records::{Hop, Reply, TracerouteRecord};
use pinpoint::model::{Asn, BinId, MeasurementId, ProbeId, SimTime};
use pinpoint::scenarios::{ixp, Scale};
use pinpoint_bench::oracle::{FleetOracle, Oracle};
use std::net::Ipv4Addr;

fn mapper() -> AsMapper {
    AsMapper::from_prefixes([
        ("10.0.0.0/8".parse().unwrap(), Asn(64500)),
        ("198.51.0.0/16".parse().unwrap(), Asn(64501)),
    ])
}

/// Drive a bin stream through a session and collect the in-order
/// reports.
fn drive(analyzer: &mut Analyzer, bins: &[(BinId, Vec<TracerouteRecord>)]) -> Vec<BinReport> {
    let mut out = Vec::new();
    let mut session = analyzer.session(0);
    for (bin, records) in bins {
        out.extend(session.push_bin(*bin, records));
    }
    out
}

/// Demand two report streams be byte-for-byte identical, bin by bin.
fn assert_streams_identical(got: &[BinReport], want: &[BinReport], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: report count");
    for (a, b) in got.iter().zip(want) {
        assert_reports_identical(a, b, &format!("{ctx} bin {:?}", a.bin));
    }
}

/// Three probes in three ASes traverse one link with a controllable
/// delay; `surge` fires a delay alarm once references are warm.
fn delay_records(bin: u64, surge: bool) -> Vec<TracerouteRecord> {
    let (near, far, dst) = (
        Ipv4Addr::new(10, 1, 0, 1),
        Ipv4Addr::new(10, 1, 0, 2),
        Ipv4Addr::new(198, 51, 100, 1),
    );
    let link_delay = if surge { 34.0 } else { 2.0 };
    let mut out = Vec::new();
    for (probe, asn, eps) in [(1u32, 100u32, 0.4), (2, 200, -0.8), (3, 300, 1.3)] {
        for shot in 0..2u64 {
            let base = 10.0 + eps + 0.05 * shot as f64;
            out.push(TracerouteRecord {
                msm_id: MeasurementId(1),
                probe_id: ProbeId(probe),
                probe_asn: Asn(asn),
                dst,
                timestamp: SimTime(bin * 3600 + shot * 1800),
                paris_id: 0,
                hops: vec![
                    Hop::new(
                        1,
                        (0..3)
                            .map(|k| Reply::new(near, base + 0.01 * f64::from(k)))
                            .collect(),
                    ),
                    Hop::new(
                        2,
                        (0..3)
                            .map(|k| Reply::new(far, base + link_delay + 0.01 * f64::from(k)))
                            .collect(),
                    ),
                    Hop::new(3, vec![Reply::new(dst, base + link_delay + 2.0); 3]),
                ],
                destination_reached: true,
            });
        }
    }
    out
}

/// One churn traceroute over a link (and router/destination pair) unique
/// to `bin` — it interns fresh keys every bin and lets the old ones
/// expire, forcing epoch-compaction sweeps mid-stream.
fn churn_records(bin: u64) -> Vec<TracerouteRecord> {
    let near = Ipv4Addr::new(10, 9, (bin % 250) as u8, 1);
    let far = Ipv4Addr::new(10, 9, (bin % 250) as u8, 2);
    vec![TracerouteRecord {
        msm_id: MeasurementId(9),
        probe_id: ProbeId(9_000 + bin as u32),
        probe_asn: Asn(64900),
        dst: Ipv4Addr::new(198, 51, 200, (bin % 250) as u8),
        timestamp: SimTime(bin * 3600 + 7),
        paris_id: 0,
        hops: vec![
            Hop::new(1, vec![Reply::new(near, 3.0); 3]),
            Hop::new(2, vec![Reply::new(far, 5.0); 3]),
        ],
        destination_reached: true,
    }]
}

/// A route flip through a per-stream router (fires a forwarding alarm).
fn forwarding_records(stream: u8, bin: u64, flipped: bool) -> Vec<TracerouteRecord> {
    let router = Ipv4Addr::new(10, 2, stream, 1);
    let next = if flipped {
        Ipv4Addr::new(10, 2, stream, 99)
    } else {
        Ipv4Addr::new(10, 2, stream, 2)
    };
    (1u32..=3)
        .map(|probe| TracerouteRecord {
            msm_id: MeasurementId(100 + u32::from(stream)),
            probe_id: ProbeId(probe),
            probe_asn: Asn(64000 + probe),
            dst: Ipv4Addr::new(198, 51, 210, stream + 1),
            timestamp: SimTime(bin * 3600 + u64::from(probe) * 60),
            paris_id: 0,
            hops: vec![
                Hop::new(1, vec![Reply::new(router, 1.0); 4]),
                Hop::new(2, vec![Reply::new(next, 2.0); 4]),
            ],
            destination_reached: true,
        })
        .collect()
}

/// Full-pipeline parity through the AMS-IX outage: the scenario where
/// real forwarding alarms fire. The session at the env-selected matrix
/// point must reproduce the oracle byte for byte,
/// report by report, in bin order.
#[test]
fn pipelined_analyzer_matches_serial_through_ixp_outage() {
    let case = ixp::case_study(7, Scale::Small);
    let (outage_start, outage_end) = ixp::outage_bins();
    let bins: Vec<(BinId, Vec<TracerouteRecord>)> = (outage_start - 3..outage_end + 2)
        .map(|b| (BinId(b), case.platform.collect_bin(BinId(b))))
        .collect();

    let mut oracle = Oracle::new(DetectorConfig::fast_test(), case.mapper.clone());
    let want: Vec<BinReport> = bins
        .iter()
        .map(|(bin, records)| oracle.process_bin(*bin, records))
        .collect();
    let fired: usize = want.iter().map(|r| r.forwarding_alarms.len()).sum();
    assert!(
        fired > 0,
        "the outage fired no alarms — parity would only be proven on quiet bins"
    );

    // The CI PINPOINT_THREADS axis lands exactly here.
    let mut engine = Analyzer::new(parity_config(), case.mapper.clone());
    let got = drive(&mut engine, &bins);
    assert_streams_identical(&got, &want, "ixp");
    assert_eq!(engine.tracked_links(), oracle.tracked_links());
    assert_eq!(engine.tracked_patterns(), oracle.tracked_patterns());
    assert_eq!(engine.sanitize_stats(), oracle.sanitize_stats());
}

/// The bin schedule of the churn sweep: steady delay traffic + per-bin
/// unique churn keys, an empty bin, a delay surge, and enough quiet bins
/// after the churn stops for compaction sweeps to fire mid-stream.
fn churn_schedule() -> Vec<(BinId, Vec<TracerouteRecord>)> {
    (0..14u64)
        .map(|b| {
            let mut records = if b == 5 {
                Vec::new() // an empty bin mid-stream is a valid bin
            } else {
                delay_records(b, b == 11)
            };
            if b < 4 {
                records.extend(churn_records(b));
            }
            (BinId(b), records)
        })
        .collect()
}

/// Epoch-compaction bins mid-stream: with a 2-bin expiry the churn keys of
/// bins 0–3 die while the stream is still flowing, so the sweep at bin
/// open renumbers dense ids under a live stream — and the session must
/// stay byte-identical to the oracle (which interns nothing),
/// including the delay surge fired *after* the sweeps.
#[test]
fn pipelined_compaction_fence_mid_stream_parity() {
    let mut cfg = parity_config();
    cfg.reference_expiry_bins = 2;
    let mut oracle_cfg = DetectorConfig::fast_test();
    oracle_cfg.reference_expiry_bins = 2;
    let bins = churn_schedule();

    let mut oracle = Oracle::new(oracle_cfg.clone(), mapper());
    let want: Vec<BinReport> = bins
        .iter()
        .map(|(bin, records)| oracle.process_bin(*bin, records))
        .collect();
    assert!(
        want.iter().any(|r| !r.delay_alarms.is_empty()),
        "the surge fired no delay alarm through the compaction schedule"
    );

    let mut engine = Analyzer::new(cfg, mapper());
    let got = drive(&mut engine, &bins);
    assert_streams_identical(&got, &want, "churn");
    assert!(
        engine.ingest_stats().evictions > 0,
        "no compaction sweep ran — the schedule never exercised one"
    );
    assert_eq!(engine.tracked_links(), oracle.tracked_links());
    assert_eq!(engine.sanitize_stats(), oracle.sanitize_stats());

    // The same keys must die on every schedule: the intern-epoch counters
    // of the matrix point equal those of the one-worker, auto-chunk run.
    let mut one_worker_cfg = oracle_cfg;
    one_worker_cfg.threads = 1;
    let mut one_worker = Analyzer::new(one_worker_cfg, mapper());
    drive(&mut one_worker, &bins);
    assert_eq!(
        engine.ingest_stats(),
        one_worker.ingest_stats(),
        "intern-epoch counters diverged between schedules"
    );
}

/// Demand two fleet reports be byte-for-byte identical.
fn assert_fleets_identical(a: &FleetReport, b: &FleetReport, ctx: &str) {
    assert_eq!(a.bin, b.bin, "{ctx}: bin");
    assert_eq!(a.streams.len(), b.streams.len(), "{ctx}: stream count");
    for (i, (ra, rb)) in a.streams.iter().zip(&b.streams).enumerate() {
        assert_reports_identical(ra, rb, &format!("{ctx} stream {i}"));
    }
    assert_eq!(a.magnitudes, b.magnitudes, "{ctx}: merged magnitudes");
}

/// Three-stream fleet feeds: a delay stream, a forwarding stream, and a
/// churn stream whose keys rotate every bin. `bin` 9 is the event bin
/// (delay surge + route flip).
fn fleet_feeds(bin: u64) -> Vec<Vec<TracerouteRecord>> {
    vec![
        delay_records(bin, bin == 9),
        forwarding_records(1, bin, bin == 9),
        if bin == 6 {
            Vec::new()
        } else if bin < 4 {
            churn_records(bin)
        } else {
            delay_records(bin, false)
        },
    ]
}

fn fleet(cfg: &DetectorConfig) -> StreamRouter {
    let mut router = StreamRouter::with_magnitude_window(cfg.magnitude_window_bins);
    for label in ["delay-stream", "forwarding-stream", "churn-stream"] {
        router.add_stream(label, Analyzer::new(cfg.clone(), mapper()));
    }
    router.set_threads(cfg.threads);
    router.register_ases([Asn(64500)]);
    router
}

/// Fleet parity: a 3-stream [`StreamRouter`] driven through a fleet
/// session — each wave carrying every stream's jobs — must match the
/// oracle fleet byte for byte through an alarm-firing event bin,
/// an empty bin, and a churn stream whose keys compact mid-stream.
#[test]
fn pipelined_fleet_matches_serial() {
    let mut cfg = parity_config();
    cfg.reference_expiry_bins = 3;
    let mut oracle_cfg = DetectorConfig::fast_test();
    oracle_cfg.reference_expiry_bins = 3;
    let bins: Vec<(BinId, Vec<Vec<TracerouteRecord>>)> =
        (0..12u64).map(|b| (BinId(b), fleet_feeds(b))).collect();

    let mut oracle = FleetOracle::new(oracle_cfg.magnitude_window_bins);
    for _ in 0..3 {
        oracle.add_stream(Oracle::new(oracle_cfg.clone(), mapper()));
    }
    oracle.register_ases([Asn(64500)]);
    let want: Vec<FleetReport> = bins
        .iter()
        .map(|(bin, feeds)| oracle.process_bin(*bin, feeds))
        .collect();
    assert!(
        want.iter().any(|r| r.delay_alarms() > 0),
        "no delay alarm in the fleet schedule"
    );
    assert!(
        want.iter().any(|r| r.forwarding_alarms() > 0),
        "no forwarding alarm in the fleet schedule"
    );

    // The CI matrix axes reach the fleet path here.
    let mut router = fleet(&cfg);
    let mut got = Vec::new();
    {
        let mut session = router.session(0);
        for (bin, feeds) in &bins {
            got.extend(session.push_bin(*bin, feeds));
        }
    }
    assert_eq!(got.len(), want.len(), "report count");
    for (a, b) in got.iter().zip(&want) {
        assert_fleets_identical(a, b, &format!("fleet bin {:?}", a.bin));
    }
    assert_eq!(router.tracked_links(), oracle.tracked_links());
    assert_eq!(router.tracked_patterns(), oracle.tracked_patterns());
    assert_eq!(router.sanitize_stats(), oracle.sanitize_stats());
    assert!(
        router.ingest_stats().evictions > 0,
        "no fleet compaction sweep was ever exercised"
    );
}

/// The session must stay byte-identical across a *local* thread sweep
/// too — both auto chunk cuts, and counts that don't divide the shard
/// count — so parity holds even on matrix points the CI grid never
/// visits, and every point must land on the same intern-epoch and
/// sanitizer counters. The churn schedule's records repeat past two
/// chunks, so every non-empty bin (and every churn key) crosses several
/// chunks at every swept point.
#[test]
fn pipelined_parity_across_local_thread_and_chunk_sweep() {
    let bins: Vec<(BinId, Vec<TracerouteRecord>)> = churn_schedule()
        .into_iter()
        .map(|(bin, records)| (bin, padded(&records)))
        .collect();
    let mut oracle_cfg = DetectorConfig::fast_test();
    oracle_cfg.reference_expiry_bins = 2;
    let mut oracle = Oracle::new(oracle_cfg, mapper());
    let want: Vec<BinReport> = bins
        .iter()
        .map(|(bin, records)| oracle.process_bin(*bin, records))
        .collect();

    let mut ingest_stats = None;
    for threads in [1usize, 2, 3, 5] {
        let ctx = format!("threads {threads}");
        for (bin, records) in &bins {
            let chunks = records.len().div_ceil(resolve_chunk_for(threads));
            assert!(
                records.is_empty() || chunks >= 2,
                "{ctx} {bin:?}: {chunks} chunk(s)"
            );
        }
        let mut cfg = DetectorConfig::fast_test();
        cfg.reference_expiry_bins = 2;
        cfg.threads = threads;
        let mut engine = Analyzer::new(cfg, mapper());
        let got = drive(&mut engine, &bins);
        assert_streams_identical(&got, &want, &ctx);
        assert_eq!(engine.sanitize_stats(), oracle.sanitize_stats(), "{ctx}");
        let stats = engine.ingest_stats();
        assert_eq!(*ingest_stats.get_or_insert(stats), stats, "{ctx}");
    }
}

/// A solo analyzer and a one-stream fleet whose herds have two workers
/// on any host.
fn two_worker_pair() -> (Analyzer, StreamRouter) {
    let mut cfg = DetectorConfig::fast_test();
    cfg.threads = 2;
    let mut router = StreamRouter::new();
    router.add_stream("only", Analyzer::new(cfg.clone(), mapper()));
    router.set_threads(2);
    (Analyzer::new(cfg, mapper()), router)
}

/// A labelled scenario that feeds a session a non-increasing bin.
type RewindCase = (&'static str, Box<dyn FnOnce()>);

/// Every case must panic with the increasing-order message; the last
/// payload is re-raised so the calling `#[should_panic]` test sees it.
fn assert_each_rewind_panics(cases: Vec<RewindCase>) -> ! {
    let mut last = None;
    for (label, case) in cases {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(case))
            .expect_err(&format!("{label}: a rewound bin clock must panic"));
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("increasing order"),
            "{label}: panicked with {msg:?}"
        );
        last = Some(payload);
    }
    std::panic::resume_unwind(last.expect("at least one case"))
}

/// The increasing-order contract holds although no bin is ever pending:
/// a regressed or repeated bin clock must panic, not silently rewind the
/// references — on a solo session (a rewound and a repeated bin) and on
/// a fleet session alike.
#[test]
#[should_panic(expected = "increasing order")]
fn regressed_bin_clock_panics_even_at_depth_1() {
    assert_each_rewind_panics(vec![
        (
            "solo push",
            Box::new(|| {
                let (mut analyzer, _) = two_worker_pair();
                let mut session = analyzer.session(0);
                session.push_bin(BinId(5), &delay_records(5, false));
                session.push_bin(BinId(3), &delay_records(3, false));
            }),
        ),
        (
            "solo repeated bin",
            Box::new(|| {
                let (mut analyzer, _) = two_worker_pair();
                let mut session = analyzer.session(0);
                session.push_bin(BinId(5), &delay_records(5, false));
                session.push_bin(BinId(5), &delay_records(5, false));
            }),
        ),
        (
            "fleet push",
            Box::new(|| {
                let (_, mut router) = two_worker_pair();
                let mut session = router.session(0);
                session.push_bin(BinId(5), &[delay_records(5, false)]);
                session.push_bin(BinId(3), &[delay_records(3, false)]);
            }),
        ),
    ])
}

/// Same contract across a `flush()` and a `checkpoint()`: neither may
/// let the clock rewind.
#[test]
#[should_panic(expected = "increasing order")]
fn regressed_bin_clock_panics_after_finish() {
    assert_each_rewind_panics(vec![
        (
            "solo after flush",
            Box::new(|| {
                let (mut analyzer, _) = two_worker_pair();
                let mut session = analyzer.session(0);
                session.push_bin(BinId(5), &delay_records(5, false));
                session.flush();
                session.push_bin(BinId(4), &delay_records(4, false));
            }),
        ),
        (
            "solo after checkpoint",
            Box::new(|| {
                let (mut analyzer, _) = two_worker_pair();
                let mut session = analyzer.session(0);
                session.push_bin(BinId(5), &delay_records(5, false));
                session.checkpoint();
                session.push_bin(BinId(4), &delay_records(4, false));
            }),
        ),
        (
            "fleet after flush",
            Box::new(|| {
                let (_, mut router) = two_worker_pair();
                let mut session = router.session(0);
                session.push_bin(BinId(5), &[delay_records(5, false)]);
                session.flush();
                session.push_bin(BinId(4), &[delay_records(4, false)]);
            }),
        ),
        (
            "fleet after checkpoint",
            Box::new(|| {
                let (_, mut router) = two_worker_pair();
                let mut session = router.session(0);
                session.push_bin(BinId(5), &[delay_records(5, false)]);
                session.checkpoint();
                session.push_bin(BinId(5), &[delay_records(5, false)]);
            }),
        ),
    ])
}
