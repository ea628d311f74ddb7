//! Forwarding-engine parity tests: the sharded pattern engine must be
//! *byte-for-byte* equivalent to the paper-literal oracle
//! (`pinpoint_bench::oracle`) — same alarms in the same order, same
//! tracked references, same evictions — on quiet bins, through a route
//! change that actually fires alarms, through the AMS-IX outage scenario,
//! and (by property) on arbitrary record sets.
//!
//! Like `engine_parity.rs`, the CI thread matrix re-runs this file with
//! `PINPOINT_THREADS` ∈ {1, 2, 4, 8} on a multi-core runner.

#[allow(dead_code)]
mod common;

use common::{assert_reports_identical, parity_config};
use pinpoint::core::aggregate::AsMapper;
use pinpoint::core::{Analyzer, DetectorConfig, ForwardingDetector};
use pinpoint::model::records::{Hop, Reply, TracerouteRecord};
use pinpoint::model::{Asn, BinId, MeasurementId, ProbeId, SimTime};
use pinpoint::scenarios::{ixp, Scale};
use pinpoint_bench::oracle::Oracle;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

/// Three probes traceroute through router 10.0.0.1; `flipped` moves every
/// packet from the usual next hop B to a new hop C (the paper's Fig. 4
/// route change).
fn route_change_records(bin: u64, flipped: bool) -> Vec<TracerouteRecord> {
    let next = if flipped { "10.0.2.9" } else { "10.0.1.1" };
    let mut out = Vec::new();
    for probe in 1u32..=3 {
        out.push(TracerouteRecord {
            msm_id: MeasurementId(1),
            probe_id: ProbeId(probe),
            probe_asn: Asn(64000 + probe),
            dst: ip("198.51.100.1"),
            timestamp: SimTime(bin * 3600 + u64::from(probe) * 60),
            paris_id: 0,
            hops: vec![
                Hop::new(1, vec![Reply::new(ip("10.0.0.1"), 1.0); 4]),
                Hop::new(2, vec![Reply::new(ip(next), 2.0); 4]),
            ],
            destination_reached: true,
        });
    }
    out
}

#[test]
fn route_change_parity_across_thread_counts() {
    // The flip bin must fire a real forwarding alarm — parity on quiet
    // bins alone would never exercise alarm construction and ordering —
    // and every thread count must produce the identical alarm bytes.
    let mut oracle = Oracle::new(DetectorConfig::fast_test(), AsMapper::new());
    for b in 0..8u64 {
        assert!(oracle
            .forwarding_bin(BinId(b), &route_change_records(b, false))
            .is_empty());
    }
    let want = oracle.forwarding_bin(BinId(8), &route_change_records(8, true));
    assert!(!want.is_empty(), "route change must alarm");
    assert!(want[0].rho < -0.25);

    // 3 and 5 don't divide the 32 shard jobs of a wave: the claim race
    // ends ragged, a placement the CI matrix points {1, 2, 4, 8} rarely hit.
    for threads in [1usize, 2, 3, 4, 5, 8] {
        let mut cfg = DetectorConfig::fast_test();
        cfg.threads = threads;
        let mut engine = ForwardingDetector::new(&cfg);
        for b in 0..8u64 {
            let got = engine.process_bin(BinId(b), &route_change_records(b, false));
            assert!(got.is_empty(), "threads={threads} bin {b}: {got:?}");
        }
        let got = engine.process_bin(BinId(8), &route_change_records(8, true));
        assert_eq!(got, want, "threads={threads}");
        assert_eq!(engine.tracked_patterns(), oracle.tracked_patterns());
    }
}

/// Full-pipeline parity through the AMS-IX outage (§7.3) — the scenario
/// whose ground truth is forwarding-only: routes stay up while the peering
/// LAN blackholes packets, so this is where real forwarding alarms (and
/// the references they mutate) get exercised end to end.
fn ixp_outage_parity(seed: u64) {
    let case = ixp::case_study(seed, Scale::Small);
    let mut parallel = Analyzer::new(parity_config(), case.mapper.clone());
    let mut oracle = Oracle::new(DetectorConfig::fast_test(), case.mapper.clone());
    // Zoom into the outage (10:20–12:00 on day 5): a few warm bins, the
    // outage bins themselves, and the recovery.
    let (outage_start, outage_end) = ixp::outage_bins();
    let mut forwarding_alarms = 0usize;
    for bin in outage_start - 4..outage_end + 2 {
        let records = case.platform.collect_bin(BinId(bin));
        let a = parallel.process_bin(BinId(bin), &records);
        let b = oracle.process_bin(BinId(bin), &records);
        assert_reports_identical(&a, &b, &format!("ixp seed {seed} bin {bin}"));
        forwarding_alarms += a.forwarding_alarms.len();
    }
    assert!(
        forwarding_alarms > 0,
        "seed {seed}: the outage fired no forwarding alarms — parity was only proven on quiet bins"
    );
    assert_eq!(
        parallel.tracked_patterns(),
        oracle.tracked_patterns(),
        "seed {seed}: tracked patterns diverged"
    );
}

#[test]
fn ixp_outage_parity_seed_1() {
    ixp_outage_parity(1);
}

#[test]
fn ixp_outage_parity_seed_7() {
    ixp_outage_parity(7);
}

#[test]
fn ixp_outage_parity_seed_2015() {
    ixp_outage_parity(2015);
}

/// Decode a generated spec into a traceroute record. Reply codes: 0 is a
/// timeout, anything else a small-address-space IP — collisions (repeated
/// routers, next hop == router, shared destinations) are the point.
fn record_from_spec(dst: u32, hops: &[Vec<u32>]) -> TracerouteRecord {
    TracerouteRecord {
        msm_id: MeasurementId(1),
        probe_id: ProbeId(1),
        probe_asn: Asn(64500),
        dst: Ipv4Addr::new(198, 51, 100, (dst % 4) as u8),
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
                                Reply::new(Ipv4Addr::new(10, 0, 0, (code % 6) as u8), 1.0)
                            }
                        })
                        .collect(),
                )
            })
            .collect(),
        destination_reached: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The engine and the oracle must build the same patterns from
    /// arbitrary record sets — including degenerate ones (all-timeout
    /// hops, empty reply lists, repeated addresses, next hop == router) —
    /// and agree bin over bin on the alarms and the tracked patterns. The
    /// second config puts τ above 1 and drops the packet floor, so every
    /// pattern with a defined ρ alarms and its per-hop counts surface in
    /// the responsibilities; the middle bin replays half the records, so
    /// the counts move against the reference.
    #[test]
    fn prop_sharded_patterns_match_nested_maps(
        dsts in prop::collection::vec(0u32..4, 1..8),
        hop_specs in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u32..8, 0..4), 0..5),
            1..8,
        ),
    ) {
        let records: Vec<TracerouteRecord> = dsts
            .iter()
            .zip(hop_specs.iter())
            .map(|(&dst, hops)| record_from_spec(dst, hops))
            .collect();
        let half = &records[..records.len().div_ceil(2)];
        let every_pattern_alarms = DetectorConfig {
            forwarding_tau: 2.0,
            min_pattern_packets: 0.0,
            ..DetectorConfig::fast_test()
        };
        for cfg in [DetectorConfig::fast_test(), every_pattern_alarms] {
            let mut engine = ForwardingDetector::new(&cfg);
            let mut oracle = Oracle::new(cfg, AsMapper::new());
            for (b, bin) in [&records[..], half, &records[..]].into_iter().enumerate() {
                let a = engine.process_bin(BinId(b as u64), bin);
                let s = oracle.forwarding_bin(BinId(b as u64), bin);
                prop_assert_eq!(a, s);
                prop_assert_eq!(engine.tracked_patterns(), oracle.tracked_patterns());
            }
        }
    }
}
