//! Failure-injection and adversarial-input integration tests: the detector
//! must never panic on malformed, hostile, or degenerate measurement data —
//! real Atlas feeds contain all of it — and the session must sanitize it
//! exactly as the filter-then-feed oracle (`pinpoint_bench::oracle`)
//! does, on both auto
//! chunk cuts: the CI matrix re-runs this file under `PINPOINT_THREADS`
//! like the parity suites.

#[allow(dead_code)]
mod common;

use common::{assert_reports_identical, parity_config};
use pinpoint::core::aggregate::AsMapper;
use pinpoint::core::ingest::resolve_chunk_for;
use pinpoint::core::{
    render, AnalysisSession, Analyzer, BinReport, DetectorConfig, SanitizeStats, StreamId,
    StreamRouter,
};
use pinpoint::model::records::{Hop, Reply, TracerouteRecord};
use pinpoint::model::{Asn, BinId, MeasurementId, ProbeId, SimTime};
use pinpoint::netsim::ArtifactModel;
use pinpoint_bench::oracle::{FleetOracle, Oracle};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn mapper() -> AsMapper {
    AsMapper::from_prefixes([("10.0.0.0/8".parse().unwrap(), Asn(64500))])
}

fn analyzer() -> Analyzer {
    Analyzer::new(DetectorConfig::fast_test(), mapper())
}

fn analyzer_with(cfg: &DetectorConfig) -> Analyzer {
    Analyzer::new(cfg.clone(), mapper())
}

/// The worker counts every stream is swept over: one worker cuts a bin
/// into 128-record chunks, two and three into 512-record chunks (three
/// also does not divide the 64 shard jobs of a wave).
const SWEPT_THREADS: [usize; 3] = [1, 2, 3];

/// Records per hostile bin: past 512, so every swept thread count — both
/// auto cuts — scatters each bin as several chunks.
const HOSTILE_BIN: usize = 640;

/// Feed a bin stream through the oracle — the filter-then-feed
/// reference.
fn run_oracle(
    cfg: &DetectorConfig,
    bins: &[Vec<TracerouteRecord>],
) -> (Vec<BinReport>, SanitizeStats) {
    let mut oracle = Oracle::new(cfg.clone(), mapper());
    let reports = bins
        .iter()
        .enumerate()
        .map(|(i, records)| oracle.process_bin(BinId(i as u64), records))
        .collect();
    (reports, oracle.sanitize_stats())
}

/// Feed the same stream through a session, whole bins via `push_bin`.
fn run_session(
    cfg: &DetectorConfig,
    bins: &[Vec<TracerouteRecord>],
) -> (Vec<BinReport>, SanitizeStats) {
    let mut a = analyzer_with(cfg);
    let mut reports = Vec::new();
    {
        let mut session = a.session(0);
        for (i, records) in bins.iter().enumerate() {
            reports.extend(session.push_bin(BinId(i as u64), records));
        }
    }
    (reports, a.sanitize_stats())
}

/// The session, at every swept thread count, must produce byte-identical
/// reports AND identical cumulative sanitizer counters to the oracle for
/// the same record stream.
fn assert_all_paths_agree(cfg: &DetectorConfig, bins: &[Vec<TracerouteRecord>], ctx: &str) {
    let (want, want_stats) = run_oracle(cfg, bins);
    for threads in SWEPT_THREADS {
        let label = format!("threads {threads}");
        let swept = DetectorConfig {
            threads,
            ..cfg.clone()
        };
        let (got, got_stats) = run_session(&swept, bins);
        assert_eq!(got.len(), want.len(), "{ctx}/{label}: report count");
        for (a, b) in got.iter().zip(&want) {
            assert_reports_identical(a, b, &format!("{ctx}/{label} bin {:?}", a.bin));
        }
        assert_eq!(got_stats, want_stats, "{ctx}/{label}: sanitize stats");
    }
}

/// A bin of well-formed multi-hop traceroutes from a few probes — the
/// clean substrate the artifact model then corrupts.
fn clean_bin(bin: u64, records: usize) -> Vec<TracerouteRecord> {
    let mut out = Vec::with_capacity(records);
    for r in 0..records {
        let mut rec = base_record();
        rec.probe_id = ProbeId(r as u32 % 6);
        rec.probe_asn = Asn(64500);
        rec.timestamp = SimTime(bin * 3600 + (r as u64 % 6) * 540);
        rec.paris_id = (r % 4) as u16;
        rec.hops = (0..8u8)
            .map(|h| {
                let addr = Ipv4Addr::new(10, 0, h + 1, 1 + (r as u8 % 2) * (h % 2));
                let rtt = 3.0 * f64::from(h) + 2.0 + 0.1 * (r % 5) as f64;
                Hop::new(h + 1, vec![Reply::new(addr, rtt); 3])
            })
            .collect();
        out.push(rec);
    }
    out
}

#[test]
fn hostile_artifacts_sanitize_identically_on_every_path() {
    let model = ArtifactModel::hostile(0x5EED);
    for threads in SWEPT_THREADS {
        let chunks = HOSTILE_BIN.div_ceil(resolve_chunk_for(threads));
        assert!(chunks >= 2, "threads {threads}: {chunks} chunk(s) per bin");
    }
    let bins: Vec<Vec<TracerouteRecord>> = (0..6u64)
        .map(|b| {
            let mut records = clean_bin(b, HOSTILE_BIN);
            for rec in &mut records {
                model.corrupt(rec);
            }
            records
        })
        .collect();
    let cfg = parity_config();
    assert_all_paths_agree(&cfg, &bins, "hostile artifacts");

    // The corruption must actually have exercised the sanitizer — a
    // parity proof over a no-op pass would be vacuous.
    let (_, stats) = run_oracle(&cfg, &bins);
    assert!(
        stats.quarantined() > 0 && stats.repaired > 0,
        "hostile feed neither quarantined nor repaired: {stats:?}"
    );

    // A fleet whose streams disagree about every record: stream 0 is fed
    // the hostile bins, stream 1 the same bins with a loop painted into
    // every record (nothing survives — every one of its scatter chunks is
    // empty), except for one bin where the roles flip and stream 0 gets a
    // wholly quarantined bin beside a clean one. The fleet session must
    // match the oracle fleet in rendered bytes and in
    // per-stream and merged sanitizer counters after every bin.
    let mut looped_hops = clean_bin(0, 1).remove(0).hops;
    looped_hops.push(looped_hops[0].clone());
    let doomed = |records: &[TracerouteRecord]| -> Vec<TracerouteRecord> {
        let looped = |rec: &TracerouteRecord| TracerouteRecord {
            hops: looped_hops.clone(),
            ..rec.clone()
        };
        records.iter().map(looped).collect()
    };
    let mut engine = StreamRouter::new();
    engine.add_stream("hostile", analyzer_with(&cfg));
    engine.add_stream("doomed", analyzer_with(&cfg));
    engine.set_threads(cfg.threads);
    let mut oracle = FleetOracle::new(DetectorConfig::default().magnitude_window_bins);
    oracle.add_stream(Oracle::new(cfg.clone(), mapper()));
    oracle.add_stream(Oracle::new(cfg.clone(), mapper()));
    let mut session = engine.session(0);
    for (b, records) in bins.iter().enumerate() {
        let mut feeds = vec![records.clone(), doomed(records)];
        if b == 3 {
            feeds = vec![doomed(records), clean_bin(b as u64, HOSTILE_BIN)];
        }
        let bin = BinId(b as u64);
        let got = session.push_bin(bin, &feeds).expect("every push reports");
        let want = oracle.process_bin(bin, &feeds);
        assert_eq!(
            render::fleet_report(&got).to_string(),
            render::fleet_report(&want).to_string(),
            "fleet bin {b}: rendered report"
        );
        let (got, want) = (session.inner(), &oracle);
        for id in [StreamId(0), StreamId(1)] {
            assert_eq!(
                got.analyzer(id).sanitize_stats(),
                want.stream(id.0).sanitize_stats(),
                "fleet bin {b}: stream {id:?} sanitize stats"
            );
        }
        assert_eq!(got.sanitize_stats(), want.sanitize_stats(), "fleet bin {b}");
        let doomed_stream = got.analyzer(StreamId(usize::from(b != 3))).sanitize_stats();
        let all = HOSTILE_BIN as u64;
        assert_eq!(
            (doomed_stream.bin_records, doomed_stream.bin_quarantined),
            (all, all),
            "fleet bin {b}: every record quarantined"
        );
        if b == 3 {
            let clean_stream = got.analyzer(StreamId(1)).sanitize_stats();
            assert_eq!(
                (clean_stream.bin_quarantined, clean_stream.bin_repaired),
                (0, 0),
                "fleet bin {b}: the clean stream"
            );
        }
    }
}

fn base_record() -> TracerouteRecord {
    TracerouteRecord {
        msm_id: MeasurementId(1),
        probe_id: ProbeId(1),
        probe_asn: Asn(64500),
        dst: "10.9.9.9".parse().unwrap(),
        timestamp: SimTime(0),
        paris_id: 0,
        hops: vec![],
        destination_reached: false,
    }
}

#[test]
fn empty_bin_and_empty_records() {
    let mut a = analyzer();
    let report = a.process_bin(BinId(0), &[]);
    assert!(report.delay_alarms.is_empty());
    assert!(report.forwarding_alarms.is_empty());

    let report = a.process_bin(BinId(1), &[base_record()]);
    assert_eq!(report.records, 1);
    assert!(report.link_stats.is_empty());
}

#[test]
fn all_timeout_traceroutes() {
    let mut rec = base_record();
    rec.hops = (1..=10)
        .map(|ttl| Hop::new(ttl, vec![Reply::TIMEOUT; 3]))
        .collect();
    let mut a = analyzer();
    let report = a.process_bin(BinId(0), &[rec]);
    assert!(report.link_stats.is_empty());
}

#[test]
fn hostile_rtt_values() {
    // NaN / infinite / negative / enormous RTTs must not poison medians or
    // panic sorting.
    let ip = |s: &str| -> Ipv4Addr { s.parse().unwrap() };
    let mut records = Vec::new();
    for (probe, asn) in [(1u32, 100u32), (2, 200), (3, 300)] {
        let mut rec = base_record();
        rec.probe_id = ProbeId(probe);
        rec.probe_asn = Asn(asn);
        rec.hops = vec![
            Hop::new(
                1,
                vec![
                    Reply::new(ip("10.0.0.1"), f64::NAN),
                    Reply::new(ip("10.0.0.1"), -5.0),
                    Reply::new(ip("10.0.0.1"), 1.0),
                ],
            ),
            Hop::new(
                2,
                vec![
                    Reply::new(ip("10.0.0.2"), f64::INFINITY),
                    Reply::new(ip("10.0.0.2"), 1e300),
                    Reply::new(ip("10.0.0.2"), 2.0),
                ],
            ),
        ];
        records.push(rec);
    }
    let mut a = analyzer();
    for bin in 0..8 {
        let report = a.process_bin(BinId(bin), &records);
        for alarm in &report.delay_alarms {
            assert!(alarm.deviation.is_finite());
        }
    }
}

#[test]
fn duplicate_and_contradictory_hops() {
    let ip = |s: &str| -> Ipv4Addr { s.parse().unwrap() };
    let mut rec = base_record();
    // The same address at several TTLs plus two different responders within
    // one hop (mid-measurement path change).
    rec.hops = vec![
        Hop::new(1, vec![Reply::new(ip("10.0.0.1"), 1.0); 3]),
        Hop::new(
            2,
            vec![
                Reply::new(ip("10.0.0.2"), 2.0),
                Reply::new(ip("10.0.0.3"), 2.5),
                Reply::TIMEOUT,
            ],
        ),
        Hop::new(3, vec![Reply::new(ip("10.0.0.1"), 3.0); 3]),
    ];
    let mut a = analyzer();
    let report = a.process_bin(BinId(0), &[rec]);
    // No self-links.
    for link in report.link_stats.keys() {
        assert_ne!(link.near, link.far);
    }
}

#[test]
fn enormous_single_bin_is_handled() {
    // 20k identical traceroutes in one bin: just slow, never wrong.
    let ip = |s: &str| -> Ipv4Addr { s.parse().unwrap() };
    let mut records = Vec::with_capacity(20_000);
    for i in 0..20_000u32 {
        let mut rec = base_record();
        rec.probe_id = ProbeId(i % 50);
        rec.probe_asn = Asn(100 + (i % 7));
        rec.hops = vec![
            Hop::new(
                1,
                vec![Reply::new(ip("10.0.0.1"), 1.0 + f64::from(i % 10) * 0.01); 3],
            ),
            Hop::new(
                2,
                vec![Reply::new(ip("10.0.0.2"), 3.0 + f64::from(i % 10) * 0.01); 3],
            ),
        ];
        records.push(rec);
    }
    let mut a = analyzer();
    let report = a.process_bin(BinId(0), &records);
    assert_eq!(report.records, 20_000);
    assert_eq!(report.link_stats.len(), 1);
}

/// Generate an arbitrary (structurally valid, content-hostile) record set
/// from a seed: random hop counts, timeouts, and RTTs.
fn arbitrary_records(seed: u64, n_hops: usize, n_records: usize) -> Vec<TracerouteRecord> {
    let mut rng = pinpoint::stats::SplitMix64::new(seed);
    let mut records = Vec::new();
    for r in 0..n_records {
        let mut rec = base_record();
        rec.probe_id = ProbeId(r as u32 % 5);
        rec.probe_asn = Asn(100 + (r as u32 % 4) * 100);
        rec.hops = (0..n_hops)
            .map(|ttl| {
                let replies = (0..3)
                    .map(|_| {
                        if rng.next_bool(0.25) {
                            Reply::TIMEOUT
                        } else {
                            let octet = (rng.next_below(5) + 1) as u8;
                            Reply::new(Ipv4Addr::new(10, 0, 0, octet), rng.next_f64() * 100.0)
                        }
                    })
                    .collect();
                Hop::new(ttl as u8 + 1, replies)
            })
            .collect();
        records.push(rec);
    }
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary well-formed record structure never panics the pipeline.
    #[test]
    fn prop_arbitrary_records_never_panic(
        seed in 0u64..1000,
        n_hops in 0usize..12,
        n_records in 0usize..20,
    ) {
        let records = arbitrary_records(seed, n_hops, n_records);
        let mut a = analyzer();
        for bin in 0..3 {
            let report = a.process_bin(BinId(bin), &records);
            prop_assert!(report.delay_alarms.iter().all(|al| al.deviation.is_finite()));
            prop_assert!(report
                .forwarding_alarms
                .iter()
                .all(|al| al.rho.is_finite() && (-1.0..=1.0).contains(&al.rho)));
        }
    }

    /// Arbitrary records — further mangled by the artifact model — reach
    /// the same verdicts and reports through the session, at every swept
    /// thread count, as through the oracle.
    #[test]
    fn prop_ingestion_paths_agree_on_arbitrary_artifacts(
        seed in 0u64..500,
        n_hops in 0usize..12,
        n_records in 0usize..16,
        corrupt in 0u8..2,
    ) {
        let model = ArtifactModel::hostile(seed ^ 0xA17F);
        let bins: Vec<Vec<TracerouteRecord>> = (0..3u64)
            .map(|b| {
                let mut records = arbitrary_records(seed ^ b, n_hops, n_records);
                if corrupt == 1 {
                    for rec in &mut records {
                        model.corrupt(rec);
                    }
                }
                records
            })
            .collect();
        assert_all_paths_agree(&parity_config(), &bins, "prop artifacts");
    }
}
