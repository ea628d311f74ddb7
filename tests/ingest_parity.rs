//! Ingestion-parity tests: the chunked, parallel, epoch-interned scatter
//! front-end must be *byte-for-byte* equivalent to the paper-literal
//! oracle (`pinpoint_bench::oracle`) — for any thread count, for both chunk cuts
//! the engine derives from it (one worker: 128 records; more: 512), and
//! through intern-table compaction under key churn. Bins here are sized
//! so those cuts really split them: several chunks per bin, asserted.
//!
//! The CI matrix re-runs this file with `PINPOINT_THREADS` ∈ {1, 2, 4, 8}
//! on a multi-core runner; the tests below additionally sweep thread
//! counts internally, so every matrix point proves parity for both cuts.
//! Arbitrary chunk sizes (1, 3, 7, one chunk) are proven where the cut is
//! made: `ingest.rs::prop_chunk_order_is_invisible_for_both_specs`.

mod common;

use common::{assert_reports_identical, padded, parity_config};
use pinpoint::core::aggregate::AsMapper;
use pinpoint::core::ingest::{resolve_chunk_for, DEFAULT_CHUNK_RECORDS};
use pinpoint::core::{Analyzer, DetectorConfig};
use pinpoint::model::records::{Hop, Reply, TracerouteRecord};
use pinpoint::model::{Asn, BinId, MeasurementId, ProbeId, SimTime};
use pinpoint::scenarios::{steady, Scale};
use pinpoint_bench::oracle::Oracle;
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

/// The auto chunk count of a `records`-long bin on `threads` workers.
fn auto_chunks(records: usize, threads: usize) -> usize {
    records.div_ceil(resolve_chunk_for(threads))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chunked parallel scatter == monolithic scatter == the oracle, for
    /// both arenas at once, on arbitrary record sets — bin over bin, so the persistent intern epoch (ids assigned in
    /// earlier bins, per-bin probe-ASN re-pinning) is exercised too. Bin
    /// 0 is the generated set itself (fewer records than any cut: one
    /// monolithic chunk); bins 1 and 2 repeat it past two chunks, so on
    /// every swept thread count they scatter as several chunks.
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
        let bins = [records.clone(), padded(&records), padded(&records)];
        let thread_counts = [1usize, 2, 3];
        let mut oracle = Oracle::new(DetectorConfig::fast_test(), mapper());
        for threads in thread_counts {
            prop_assert_eq!(auto_chunks(bins[0].len(), threads), 1);
            prop_assert!(auto_chunks(bins[1].len(), threads) >= 3);
        }
        let mut engines: Vec<Analyzer> = thread_counts
            .iter()
            .map(|&threads| {
                let cfg = DetectorConfig {
                    threads,
                    ..DetectorConfig::fast_test()
                };
                Analyzer::new(cfg, mapper())
            })
            .collect();
        for (bin, records) in bins.iter().enumerate() {
            let want = oracle.process_bin(BinId(bin as u64), records);
            for (engine, &threads) in engines.iter_mut().zip(&thread_counts) {
                let got = engine.process_bin(BinId(bin as u64), records);
                assert_reports_identical(&got, &want, &format!("bin {bin} threads {threads}"));
            }
        }
        // Steady state: bins 1+ replayed bin 0's keys — zero insertions.
        for (engine, &threads) in engines.iter_mut().zip(&thread_counts) {
            prop_assert_eq!(engine.ingest_stats().bin_insertions, 0, "threads {}", threads);
        }
    }
}

/// The full thread-count cross on a faithful simulator stream: every
/// point must reproduce the oracle's bytes. 3 and 5 threads
/// don't divide a wave's job count (64 shard jobs; 7 scatter chunks), so
/// the claim race ends ragged. A steady
/// Small bin carries ~3 000 records (3 080 at seed 2015: 7 chunks at 512
/// records, 25 at the one-worker 128), so every bin spans several auto
/// chunks at every point — asserted below.
#[test]
fn parity_across_thread_and_chunk_cross() {
    let case = steady::case_study(11, Scale::Small);
    let bins: Vec<Vec<TracerouteRecord>> = (0..3)
        .map(|b| case.platform.collect_bin(BinId(b)))
        .collect();
    let mut oracle = Oracle::new(DetectorConfig::fast_test(), case.mapper.clone());
    let want: Vec<_> = bins
        .iter()
        .enumerate()
        .map(|(b, records)| oracle.process_bin(BinId(b as u64), records))
        .collect();
    for threads in [1usize, 2, 3, 4, 5, 8] {
        let mut cfg = DetectorConfig::fast_test();
        cfg.threads = threads;
        let mut engine = Analyzer::new(cfg, case.mapper.clone());
        for (b, records) in bins.iter().enumerate() {
            let chunks = auto_chunks(records.len(), threads);
            assert!(chunks >= 2, "threads={threads} bin={b}: {chunks} chunk(s)");
            let got = engine.process_bin(BinId(b as u64), records);
            assert_reports_identical(&got, &want[b], &format!("threads={threads} bin={b}"));
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
/// byte-for-byte invisible in the reports, proven against the oracle
/// every single bin.
#[test]
fn intern_tables_stay_bounded_under_churn_and_compaction_is_invisible() {
    // Three probes in distinct ASes traverse a per-cohort link towards a
    // per-cohort destination; cohorts rotate every bin.
    // Each cohort's three records repeat past two chunks (`padded`), so
    // every bin's new keys are met by several chunks and merged across
    // them.
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
        padded(&out)
    }

    let mut cfg = parity_config();
    cfg.reference_expiry_bins = 3;
    let mut engine = Analyzer::new(cfg.clone(), mapper());
    let mut oracle_cfg = DetectorConfig::fast_test();
    oracle_cfg.reference_expiry_bins = 3;
    let mut oracle = Oracle::new(oracle_cfg, mapper());

    let mut peak_interned = 0usize;
    for bin in 0..40u64 {
        let records = churn_bin(bin);
        // Several chunks on any worker count: the largest cut is 512.
        assert!(records.len() > 2 * DEFAULT_CHUNK_RECORDS);
        let got = engine.process_bin(BinId(bin), &records);
        let want = oracle.process_bin(BinId(bin), &records);
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

/// `PINPOINT_THREADS` misconfiguration must fail with an actionable
/// message, not a bare parse panic (satellite regression).
#[test]
fn matrix_env_misconfiguration_panics_with_contract() {
    for (name, value) in [("PINPOINT_THREADS", "many"), ("PINPOINT_THREADS", "4x")] {
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
    assert_eq!(common::parse_matrix_var("PINPOINT_THREADS", "0", "x"), 0);
}
