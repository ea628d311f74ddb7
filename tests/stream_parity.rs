//! Fleet parity tests: a [`StreamRouter`] fleet on the shared engine pool
//! must be *byte-for-byte* equivalent to the paper-literal oracle fleet
//! (`pinpoint_bench::oracle`) for any thread count, its merge must be
//! lossless (a fleet over disjoint streams equals running each analyzer
//! alone), and the delay side's reference eviction must agree between the
//! engine and the oracle under link churn.
//!
//! Like the other parity suites, the CI thread matrix re-runs this file
//! with `PINPOINT_THREADS` ∈ {1, 2, 4, 8} on a multi-core runner.

#[allow(dead_code)]
mod common;

use common::{assert_reports_identical, parity_config, threads_from_env};
use pinpoint::core::aggregate::AsMapper;
use pinpoint::core::{
    AnalysisSession, Analyzer, BinReport, DetectorConfig, FleetReport, StreamRouter,
};
use pinpoint::model::records::{Hop, Reply, TracerouteRecord};
use pinpoint::model::{Asn, BinId, MeasurementId, ProbeId, SimTime};
use pinpoint::scenarios::{ixp, multi, Scale};
use pinpoint_bench::oracle::{FleetOracle, Oracle};
use std::net::Ipv4Addr;

fn mapper() -> AsMapper {
    AsMapper::from_prefixes([
        ("10.0.0.0/8".parse().unwrap(), Asn(64500)),
        ("198.51.0.0/16".parse().unwrap(), Asn(64501)),
    ])
}

/// Demand two fleet reports be byte-for-byte identical: same per-stream
/// reports in the same stream order, same merged magnitudes.
fn assert_fleets_identical(a: &FleetReport, b: &FleetReport, ctx: &str) {
    assert_eq!(a.bin, b.bin, "{ctx}: bin");
    assert_eq!(a.streams.len(), b.streams.len(), "{ctx}: stream count");
    for (i, (ra, rb)) in a.streams.iter().zip(&b.streams).enumerate() {
        assert_reports_identical(ra, rb, &format!("{ctx} stream {i}"));
    }
    assert_eq!(a.magnitudes, b.magnitudes, "{ctx}: merged magnitudes");
}

/// A delay-heavy feed: three probes in three ASes traverse a per-stream
/// link with a controllable delay (alarms when `surge`).
fn delay_feed(stream: u8, bin: u64, surge: bool) -> Vec<TracerouteRecord> {
    let near = Ipv4Addr::new(10, 1, stream, 1);
    let far = Ipv4Addr::new(10, 1, stream, 2);
    let dst = Ipv4Addr::new(198, 51, 100, stream + 1);
    let link_delay = if surge { 34.0 } else { 2.0 };
    let mut out = Vec::new();
    for (probe, asn, eps) in [(1u32, 100u32, 0.4), (2, 200, -0.8), (3, 300, 1.3)] {
        for shot in 0..2u64 {
            let base = 10.0 + eps + 0.05 * shot as f64;
            out.push(TracerouteRecord {
                msm_id: MeasurementId(u32::from(stream)),
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

/// A forwarding-heavy feed: one probe through a per-stream router whose
/// next hop flips when `flipped` (fires a forwarding alarm).
fn forwarding_feed(stream: u8, bin: u64, flipped: bool) -> Vec<TracerouteRecord> {
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
            dst: Ipv4Addr::new(198, 51, 200, stream + 1),
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

/// Three-stream fleet feeds: a delay stream, a forwarding stream, and a
/// mixed stream. `event` turns on the delay surge and the route flip.
fn fleet_feeds(bin: u64, event: bool) -> Vec<Vec<TracerouteRecord>> {
    let mut mixed = delay_feed(7, bin, event);
    mixed.extend(forwarding_feed(7, bin, false));
    vec![
        delay_feed(0, bin, event),
        forwarding_feed(1, bin, event),
        mixed,
    ]
}

fn fleet(cfg: &DetectorConfig, threads: usize) -> StreamRouter {
    let mut router = StreamRouter::with_magnitude_window(cfg.magnitude_window_bins);
    for label in ["delay-stream", "forwarding-stream", "mixed-stream"] {
        router.add_stream(label, Analyzer::new(cfg.clone(), mapper()));
    }
    router.set_threads(threads);
    router.register_ases([Asn(64500), Asn(64501)]);
    router
}

#[test]
fn fleet_parity_across_thread_counts() {
    // The event bin must fire real alarms in every stream — parity proven
    // only on quiet bins would never exercise alarm ordering or the merged
    // severity math.
    let cfg = DetectorConfig::fast_test();
    let mut oracle = FleetOracle::new(cfg.magnitude_window_bins);
    for _ in 0..3 {
        oracle.add_stream(Oracle::new(cfg.clone(), mapper()));
    }
    oracle.register_ases([Asn(64500), Asn(64501)]);
    let mut want = Vec::new();
    for b in 0..10u64 {
        want.push(oracle.process_bin(BinId(b), &fleet_feeds(b, false)));
    }
    let final_want = oracle.process_bin(BinId(10), &fleet_feeds(10, true));
    assert!(final_want.delay_alarms() >= 2, "delay surge must alarm");
    assert!(final_want.forwarding_alarms() >= 1, "route flip must alarm");

    // 3 and 5 don't divide a wave's job count (64 shard jobs per stream):
    // the claim race ends ragged, a placement the CI matrix points
    // {1, 2, 4, 8} rarely hit.
    for threads in [1usize, 2, 3, 4, 5, 8] {
        let mut engine = fleet(&cfg, threads);
        for b in 0..10u64 {
            let got = engine.process_bin(BinId(b), &fleet_feeds(b, false));
            assert_fleets_identical(&got, &want[b as usize], &format!("threads={threads}"));
        }
        let got = engine.process_bin(BinId(10), &fleet_feeds(10, true));
        assert_fleets_identical(&got, &final_want, &format!("threads={threads} event bin"));
        assert_eq!(engine.tracked_links(), oracle.tracked_links());
        assert_eq!(engine.tracked_patterns(), oracle.tracked_patterns());
    }
}

#[test]
fn fleet_merge_is_lossless_over_disjoint_streams() {
    // A fleet over disjoint streams must equal running each analyzer
    // alone: same per-stream reports, merged severities = the sums — on
    // the matrix-selected point and on a two-worker herd, so "the fleet
    // and the solo analyzer run the same schedule" is asserted on any
    // host. The last case is a fleet of ONE stream, which must equal the
    // solo analyzer byte for byte, merged view and event deltas included.
    let mut two_workers = parity_config();
    two_workers.threads = 2;
    for (cfg, threads, streams) in [
        (parity_config(), threads_from_env(), 3usize),
        (two_workers.clone(), 2, 3),
        (two_workers, 2, 1),
    ] {
        let ctx = format!("threads {threads} streams {streams}");
        let mut router = StreamRouter::with_magnitude_window(cfg.magnitude_window_bins);
        let mut solo: Vec<Analyzer> = Vec::new();
        for i in 0..streams {
            router.add_stream(format!("stream-{i}"), Analyzer::new(cfg.clone(), mapper()));
            solo.push(Analyzer::new(cfg.clone(), mapper()));
        }
        router.set_threads(threads);
        router.register_ases([Asn(64500), Asn(64501)]);
        for analyzer in &mut solo {
            analyzer.register_ases([Asn(64500), Asn(64501)]);
        }

        let mut fleet_reports: Vec<FleetReport> = Vec::new();
        let mut solo_reports: Vec<Vec<BinReport>> = (0..streams).map(|_| Vec::new()).collect();
        {
            let mut fleet_session = router.session(0);
            let mut solo_sessions: Vec<_> = solo.iter_mut().map(|a| a.session(0)).collect();
            for b in 0..12u64 {
                let mut feeds = fleet_feeds(b, b == 11);
                feeds.truncate(streams);
                fleet_reports.extend(fleet_session.push_bin(BinId(b), &feeds));
                for ((session, out), feed) in
                    solo_sessions.iter_mut().zip(&mut solo_reports).zip(&feeds)
                {
                    out.extend(session.push_bin(BinId(b), feed));
                }
            }
        }

        assert_eq!(fleet_reports.len(), 12, "{ctx}: report count");
        for (b, fleet_report) in fleet_reports.iter().enumerate() {
            for (i, reports) in solo_reports.iter().enumerate() {
                assert_reports_identical(
                    &fleet_report.streams[i],
                    &reports[b],
                    &format!("{ctx} bin {b} stream {i}"),
                );
            }
            if streams == 1 {
                let solo_report = &solo_reports[0][b];
                assert_eq!(
                    fleet_report.magnitudes, solo_report.magnitudes,
                    "{ctx} bin {b}"
                );
                assert_eq!(fleet_report.events, solo_report.events, "{ctx} bin {b}");
            }
            // Merged raw severities are exactly the per-stream sums.
            for (asn, merged) in &fleet_report.magnitudes {
                let dsum: f64 = fleet_report
                    .streams
                    .iter()
                    .filter_map(|r| r.magnitude(*asn))
                    .map(|m| m.delay_severity)
                    .sum();
                let fsum: f64 = fleet_report
                    .streams
                    .iter()
                    .filter_map(|r| r.magnitude(*asn))
                    .map(|m| m.forwarding_severity)
                    .sum();
                assert!(
                    (merged.delay_severity - dsum).abs() < 1e-12,
                    "{ctx} bin {b} {asn}"
                );
                assert!(
                    (merged.forwarding_severity - fsum).abs() < 1e-12,
                    "{ctx} bin {b} {asn}"
                );
            }
        }
        let solo_links: usize = solo.iter().map(Analyzer::tracked_links).sum();
        assert_eq!(router.tracked_links(), solo_links, "{ctx}");
    }
}

/// Link-churn feed: each bin, a fresh set of links appears (three probes
/// each, so they pass the diversity filter) and old ones vanish.
fn churn_feed(bin: u64) -> Vec<TracerouteRecord> {
    let gen = (bin % 50) as u8; // a new link family every bin
    delay_feed(200 + gen, bin, false)
}

#[test]
fn delay_reference_eviction_parity_under_churn() {
    let mut cfg = DetectorConfig::fast_test();
    cfg.reference_expiry_bins = 3;
    cfg.threads = threads_from_env();
    let mut engine = Analyzer::new(cfg.clone(), mapper());
    let mut oracle = Oracle::new(cfg.clone(), mapper());
    let mut peak = 0usize;
    for b in 0..20u64 {
        let records = churn_feed(b);
        let a = engine.process_bin(BinId(b), &records);
        let s = oracle.process_bin(BinId(b), &records);
        assert_reports_identical(&a, &s, &format!("churn bin {b}"));
        assert_eq!(
            engine.tracked_links(),
            oracle.tracked_links(),
            "tracked links diverged at bin {b}"
        );
        peak = peak.max(engine.tracked_links());
    }
    // 20 bins × 2 fresh links each = 40 links seen, but only the expiry
    // window's worth may stay resident: the leak is fixed.
    let window_links = 2 * (cfg.reference_expiry_bins + 1);
    assert!(
        peak <= window_links,
        "delay references leak: peak {peak} > window {window_links}"
    );
    assert!(
        engine.tracked_links() <= window_links,
        "final {} > window {window_links}",
        engine.tracked_links()
    );
}

#[test]
fn delay_eviction_frees_midwarmup_links() {
    // A link that dies during warm-up must not hold its warm-up buffer
    // forever — eviction drops the whole entry.
    let mut cfg = DetectorConfig::fast_test();
    cfg.reference_expiry_bins = 2;
    cfg.threads = threads_from_env();
    let mut analyzer = Analyzer::new(cfg, mapper());
    // One bin of a link (warm-up needs 3) — then silence.
    analyzer.process_bin(BinId(0), &delay_feed(9, 0, false));
    assert!(analyzer.tracked_links() > 0);
    for b in 1..=3u64 {
        analyzer.process_bin(BinId(b), &[]);
    }
    assert_eq!(
        analyzer.tracked_links(),
        0,
        "mid-warm-up links must be evicted"
    );
}

/// Full-scenario fleet parity through the AMS-IX outage: the pooled
/// engine and the oracle fleet must agree on every stream AND the
/// merged view, with real forwarding alarms firing.
#[test]
fn multi_scenario_fleet_parity_through_the_outage() {
    let mut case = multi::case_study(2015, Scale::Small);
    case.cfg = parity_config();
    let mut engine = case.router();
    let mut oracle = FleetOracle::for_case(&case);
    let (outage_start, outage_end) = ixp::outage_bins();
    let mut forwarding_alarms = 0usize;
    for bin in outage_start - 4..outage_end + 2 {
        let feeds = case.collect_bin(BinId(bin));
        let a = engine.process_bin(BinId(bin), &feeds);
        let s = oracle.process_bin(BinId(bin), &feeds);
        assert_fleets_identical(&a, &s, &format!("ixp fleet bin {bin}"));
        forwarding_alarms += a.forwarding_alarms();
    }
    assert!(
        forwarding_alarms > 0,
        "the outage fired no forwarding alarms — parity was only proven on quiet bins"
    );
    assert_eq!(engine.tracked_links(), oracle.tracked_links());
    assert_eq!(engine.tracked_patterns(), oracle.tracked_patterns());
}
