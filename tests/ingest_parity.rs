//! Ingestion-parity tests: the chunked, parallel, epoch-interned scatter
//! front-end must be *byte-for-byte* equivalent to the single-threaded
//! nested-map reference path — for any chunk size, any thread count, any
//! feed slicing, and through intern-table compaction under key churn.
//!
//! The CI matrix re-runs this file with `PINPOINT_THREADS` ∈ {1, 2, 4, 8}
//! × `PINPOINT_CHUNK` ∈ {3 records, default} on a multi-core runner; the
//! tests below additionally sweep chunk sizes internally, so every matrix
//! point proves parity for several chunkings.

mod common;

use common::{assert_reports_identical, parity_config};
use pinpoint::core::aggregate::AsMapper;
use pinpoint::core::{AnalysisSession, Analyzer, DetectorConfig};
use pinpoint::model::records::{Hop, Reply, TracerouteRecord};
use pinpoint::model::{Asn, BinId, MeasurementId, ProbeId, SimTime};
use pinpoint::scenarios::{steady, Scale};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn mapper() -> AsMapper {
    AsMapper::from_prefixes([
        ("10.0.0.0/8".parse().unwrap(), Asn(64500)),
        ("198.51.100.0/24".parse().unwrap(), Asn(64501)),
    ])
}

/// Decode a generated spec into a traceroute record that feeds BOTH
/// arenas: responsive hops with varying RTT multisets produce
/// differential-RTT rows, successor replies produce pattern rows. Reply
/// code 0 is a timeout; other codes map into a tiny address space so
/// collisions (shared routers, repeated addresses, next hop == router)
/// and probe-ASN conflicts are the common case, not the exception.
fn record_from_spec(probe: u32, asn: u32, dst: u32, hops: &[Vec<u32>]) -> TracerouteRecord {
    TracerouteRecord {
        msm_id: MeasurementId(1),
        probe_id: ProbeId(probe % 5),
        probe_asn: Asn(64000 + (asn % 4)),
        dst: Ipv4Addr::new(198, 51, 100, (dst % 3) as u8),
        timestamp: SimTime(0),
        paris_id: 0,
        hops: hops
            .iter()
            .enumerate()
            .map(|(ttl, replies)| {
                Hop::new(
                    ttl as u8 + 1,
                    replies
                        .iter()
                        .map(|&code| {
                            if code == 0 {
                                Reply::TIMEOUT
                            } else {
                                Reply::new(
                                    Ipv4Addr::new(10, 0, (code % 3) as u8, (code % 7) as u8),
                                    f64::from(code % 11) * 0.7 + f64::from(ttl as u32) * 0.1,
                                )
                            }
                        })
                        .collect(),
                )
            })
            .collect(),
        destination_reached: true,
    }
}

/// An analyzer on the matrix-selected thread count with an explicit
/// scatter chunk size.
fn chunked_analyzer(chunk_records: usize) -> Analyzer {
    let mut cfg = parity_config();
    cfg.ingest_chunk_records = chunk_records;
    Analyzer::new(cfg, mapper())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chunked parallel scatter == monolithic scatter == the nested-map
    /// reference path, for both arenas at once, on arbitrary record sets
    /// — bin over bin, so the persistent intern epoch (ids assigned in
    /// earlier bins, per-bin probe-ASN re-pinning) is exercised too.
    /// Chunk size 1 puts every record in its own scatter job; the
    /// `usize::MAX` entry is the monolithic single-chunk scatter.
    #[test]
    fn prop_chunked_scatter_matches_monolithic_and_reference(
        probes in prop::collection::vec(0u32..7, 1..9),
        asns in prop::collection::vec(0u32..5, 1..9),
        dsts in prop::collection::vec(0u32..4, 1..9),
        hop_specs in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u32..9, 0..5), 0..5),
            1..9,
        ),
    ) {
        let records: Vec<TracerouteRecord> = hop_specs
            .iter()
            .enumerate()
            .map(|(i, hops)| {
                record_from_spec(
                    probes[i % probes.len()],
                    asns[i % asns.len()],
                    dsts[i % dsts.len()],
                    hops,
                )
            })
            .collect();
        let chunk_sizes = [1usize, 2, 3, usize::MAX];
        let mut sequential = Analyzer::new(DetectorConfig::fast_test(), mapper());
        let mut engines: Vec<Analyzer> =
            chunk_sizes.iter().map(|&c| chunked_analyzer(c)).collect();
        for bin in 0..3u64 {
            let want = sequential.process_bin_sequential(BinId(bin), &records);
            for (engine, &chunk) in engines.iter_mut().zip(&chunk_sizes) {
                let got = engine.process_bin(BinId(bin), &records);
                assert_reports_identical(&got, &want, &format!("bin {bin} chunk {chunk}"));
            }
        }
        // Steady state: bins 2+ replayed the same keys — zero insertions.
        for (engine, &chunk) in engines.iter_mut().zip(&chunk_sizes) {
            prop_assert_eq!(engine.ingest_stats().bin_insertions, 0, "chunk {}", chunk);
        }
    }

    /// Incremental ingestion — the bin fed as arbitrary successive slices
    /// through a session's `begin_bin` / `ingest` / `finish_bin` (at the
    /// matrix-selected depth) — produces the exact report of a batch
    /// `process_bin` over the concatenation.
    #[test]
    fn prop_incremental_ingest_matches_batch(
        cut_a in 0u32..12,
        cut_b in 0u32..12,
        hop_specs in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u32..9, 0..5), 0..5),
            1..12,
        ),
    ) {
        let records: Vec<TracerouteRecord> = hop_specs
            .iter()
            .enumerate()
            .map(|(i, hops)| record_from_spec(i as u32, i as u32 / 2, i as u32 / 3, hops))
            .collect();
        let mut cuts = [
            (cut_a as usize) % (records.len() + 1),
            (cut_b as usize) % (records.len() + 1),
        ];
        cuts.sort_unstable();
        let mut batch = chunked_analyzer(2);
        let mut streamed = chunked_analyzer(2);
        let mut session = streamed.session(0);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for bin in 0..2u64 {
            want.push(batch.process_bin(BinId(bin), &records));
            session.begin_bin(BinId(bin));
            session.ingest(&records[..cuts[0]]);
            session.ingest(&records[cuts[0]..cuts[1]]);
            session.ingest(&records[cuts[1]..]);
            got.extend(session.finish_bin());
        }
        prop_assert_eq!(got.len(), want.len());
        for (got, want) in got.iter().zip(&want) {
            assert_reports_identical(got, want, &format!("bin {:?} cuts {cuts:?}", want.bin));
        }
    }
}

/// The full thread-count × chunk-size cross on a faithful simulator
/// stream: every point must reproduce the sequential reference bytes.
/// 3 and 5 threads don't divide the 32-shard count (uneven round-robin
/// bundles); chunk 1 maximizes chunk count, chunk 7 leaves a ragged tail,
/// chunk 0 is the auto default (one chunk for these small bins — the
/// monolithic scatter).
#[test]
fn parity_across_thread_and_chunk_cross() {
    let case = steady::case_study(11, Scale::Small);
    let bins: Vec<Vec<TracerouteRecord>> = (0..3)
        .map(|b| case.platform.collect_bin(BinId(b)))
        .collect();
    let mut sequential = Analyzer::new(DetectorConfig::fast_test(), case.mapper.clone());
    let want: Vec<_> = bins
        .iter()
        .enumerate()
        .map(|(b, records)| sequential.process_bin_sequential(BinId(b as u64), records))
        .collect();
    for threads in [1usize, 2, 3, 4, 5, 8] {
        for chunk in [1usize, 7, 64, 0] {
            let mut cfg = DetectorConfig::fast_test();
            cfg.threads = threads;
            cfg.ingest_chunk_records = chunk;
            let mut engine = Analyzer::new(cfg, case.mapper.clone());
            for (b, records) in bins.iter().enumerate() {
                let got = engine.process_bin(BinId(b as u64), records);
                assert_reports_identical(
                    &got,
                    &want[b],
                    &format!("threads={threads} chunk={chunk} bin={b}"),
                );
            }
        }
    }
}

/// Acceptance gate for the interning epoch: a steady-state bin — every
/// link, probe, pattern, and next hop already interned by earlier bins —
/// performs ZERO intern-table insertions, while first-contact bins
/// insert plenty.
#[test]
fn steady_state_bins_perform_zero_intern_insertions() {
    let case = steady::case_study(7, Scale::Small);
    let records = case.platform.collect_bin(BinId(0));
    let mut analyzer = Analyzer::new(parity_config(), case.mapper.clone());
    analyzer.process_bin(BinId(0), &records);
    let first = analyzer.ingest_stats();
    assert!(
        first.bin_insertions > 100,
        "first bin should intern the world: {first:?}"
    );
    for bin in 1..4u64 {
        analyzer.process_bin(BinId(bin), &records);
        let stats = analyzer.ingest_stats();
        assert_eq!(
            stats.bin_insertions, 0,
            "bin {bin} re-interned known keys: {stats:?}"
        );
        assert_eq!(stats.insertions, first.insertions, "bin {bin}");
    }
    assert_eq!(analyzer.ingest_stats().interned as u64, first.insertions);
}

/// Intern-epoch lifecycle under key churn: every bin retires one cohort
/// of links/patterns and introduces a new one. The tables must stay
/// bounded (compaction on the `reference_expiry_bins` clock), evictions
/// must actually happen, and — the real contract — compaction must be
/// byte-for-byte invisible in the reports, proven against the sequential
/// reference path every single bin.
#[test]
fn intern_tables_stay_bounded_under_churn_and_compaction_is_invisible() {
    // Three probes in distinct ASes traverse a per-cohort link towards a
    // per-cohort destination; cohorts rotate every bin.
    fn churn_bin(bin: u64) -> Vec<TracerouteRecord> {
        let cohort = (bin % 50) as u8;
        let near = Ipv4Addr::new(10, 1, cohort, 1);
        let far = Ipv4Addr::new(10, 1, cohort, 2);
        let dst = Ipv4Addr::new(198, 51, 100, cohort);
        let mut out = Vec::new();
        for (probe, asn) in [(1u32, 100u32), (2, 200), (3, 300)] {
            out.push(TracerouteRecord {
                msm_id: MeasurementId(1),
                probe_id: ProbeId(1000 + bin as u32 * 10 + probe),
                probe_asn: Asn(asn),
                dst,
                timestamp: SimTime(bin * 3600),
                paris_id: 0,
                hops: vec![
                    Hop::new(1, vec![Reply::new(near, 1.0 + f64::from(probe) * 0.1); 3]),
                    Hop::new(2, vec![Reply::new(far, 3.0 + f64::from(probe) * 0.1); 3]),
                ],
                destination_reached: true,
            });
        }
        out
    }

    let mut cfg = parity_config();
    cfg.ingest_chunk_records = 2; // several chunks per bin
    cfg.reference_expiry_bins = 3;
    let mut engine = Analyzer::new(cfg.clone(), mapper());
    let mut seq_cfg = DetectorConfig::fast_test();
    seq_cfg.reference_expiry_bins = 3;
    let mut sequential = Analyzer::new(seq_cfg, mapper());

    let mut peak_interned = 0usize;
    for bin in 0..40u64 {
        let records = churn_bin(bin);
        let got = engine.process_bin(BinId(bin), &records);
        let want = sequential.process_bin_sequential(BinId(bin), &records);
        assert_reports_identical(&got, &want, &format!("churn bin {bin}"));
        peak_interned = peak_interned.max(engine.ingest_stats().interned);
    }
    let stats = engine.ingest_stats();
    // Every bin interns a fresh cohort (1 link key is 1 entry in the link
    // table; plus probes, patterns, hops) — without compaction the tables
    // would hold ~40 cohorts. With expiry 3, at most ~expiry+2 cohorts
    // are ever live at once.
    assert!(
        stats.evictions > 0,
        "churn never triggered compaction: {stats:?}"
    );
    let one_cohort = 2 /* links */ + 3 /* probes */ + 2 /* patterns */ + 3 /* hops, approx */;
    let bound = one_cohort * 8;
    assert!(
        peak_interned < bound,
        "intern tables grew with the epoch: peak {peak_interned} >= bound {bound} ({stats:?})"
    );
    assert!(
        stats.insertions > stats.interned as u64,
        "churn should have inserted far more keys than stay live: {stats:?}"
    );
}

/// `PINPOINT_THREADS`/`PINPOINT_CHUNK` misconfiguration must fail with an
/// actionable message, not a bare parse panic (satellite regression).
#[test]
fn matrix_env_misconfiguration_panics_with_contract() {
    for (name, value) in [("PINPOINT_THREADS", "many"), ("PINPOINT_CHUNK", "1k")] {
        let result =
            std::panic::catch_unwind(|| common::parse_matrix_var(name, value, "thread count"));
        let err = result.expect_err("garbage matrix value must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(
            msg.contains(name) && msg.contains(value) && msg.contains("cargo test"),
            "panic message not actionable: {msg:?}"
        );
    }
    // Valid values parse, including surrounding whitespace.
    assert_eq!(common::parse_matrix_var("PINPOINT_THREADS", " 4 ", "x"), 4);
    assert_eq!(common::parse_matrix_var("PINPOINT_CHUNK", "0", "x"), 0);
}
