//! Engine-parity tests: the sharded, parallel, allocation-lean bin engine
//! must be *byte-for-byte* equivalent to the paper-literal oracle
//! (`pinpoint_bench::oracle`) — same alarms in the same order, same link
//! statistics, same AS magnitudes — across scenarios and seeds. This is
//! the contract that lets every future scaling PR treat the engine as a
//! drop-in.
//!
//! The CI thread matrix re-runs this file with `PINPOINT_THREADS` ∈
//! {1, 2, 4, 8} on a multi-core runner — the only place real interleavings
//! exist — via [`common::parity_config`]. The scenario comparisons also
//! run under [`all_extreme_config`], every analytic knob pushed out at once.

#[allow(dead_code)]
mod common;

use common::{assert_reports_identical, parity_config, threads_from_env};
use pinpoint::core::{Analyzer, DetectorConfig};
use pinpoint::model::BinId;
use pinpoint::scenarios::{steady, Scale};
use pinpoint_bench::oracle::Oracle;

/// Every analytic knob pushed out at once: a narrow Wilson interval, no
/// AS-diversity floor (every link is characterized), an entropy bar that
/// rebalances most links, no median gap, no smoothing memory, one warm-up
/// bin, a lax τ, a one-packet floor, fast expiry, a short magnitude
/// window, a low event threshold and a strict empathy overlap.
fn all_extreme_config() -> DetectorConfig {
    DetectorConfig {
        wilson_z: 0.6,
        min_as_diversity: 1,
        entropy_threshold: 0.95,
        min_median_gap_ms: 0.0,
        alpha: 1.0,
        warmup_bins: 1,
        forwarding_tau: 0.6,
        min_pattern_packets: 1.0,
        reference_expiry_bins: 2,
        magnitude_window_bins: 3,
        event_threshold: 0.5,
        empathy_min_shared: 3,
        ..DetectorConfig::fast_test()
    }
}

/// Drive the parallel engine and the oracle over the same scenario stream
/// and demand identical reports every bin, both under `cfg`'s analytic
/// knobs (the engine at the matrix thread count). Returns how many link
/// statistics the run reported.
fn parity_over_scenario_with(cfg: DetectorConfig, seed: u64, bins: u64) -> usize {
    let case = steady::case_study(seed, Scale::Small);
    let engine_cfg = DetectorConfig {
        threads: threads_from_env(),
        ..cfg.clone()
    };
    let mut parallel = Analyzer::new(engine_cfg, case.mapper.clone());
    let mut oracle = Oracle::new(cfg, case.mapper.clone());
    let mut link_stats = 0;
    for bin in 0..bins {
        let records = case.platform.collect_bin(BinId(bin));
        let a = parallel.process_bin(BinId(bin), &records);
        let b = oracle.process_bin(BinId(bin), &records);
        assert_reports_identical(&a, &b, &format!("seed {seed} bin {bin}"));
        link_stats += a.link_stats.len();
    }
    assert_eq!(
        parallel.tracked_links(),
        oracle.tracked_links(),
        "seed {seed}: tracked links diverged"
    );
    assert_eq!(
        parallel.tracked_patterns(),
        oracle.tracked_patterns(),
        "seed {seed}: tracked patterns diverged"
    );
    link_stats
}

fn parity_over_scenario(seed: u64, bins: u64) {
    parity_over_scenario_with(DetectorConfig::fast_test(), seed, bins);
}

#[test]
fn parallel_engine_matches_sequential_seed_1() {
    parity_over_scenario(1, 5);
}

#[test]
fn parallel_engine_matches_sequential_seed_7() {
    parity_over_scenario(7, 5);
}

#[test]
fn parallel_engine_matches_sequential_seed_2015() {
    parity_over_scenario(2015, 5);
}

#[test]
fn parity_holds_under_the_all_extreme_config() {
    for seed in [1, 7, 2015] {
        let extreme = parity_over_scenario_with(all_extreme_config(), seed, 5);
        // No diversity floor: links the default discards are characterized.
        let floored = parity_over_scenario_with(DetectorConfig::fast_test(), seed, 5);
        println!("seed {seed}: {extreme} link statistics, {floored} under fast_test");
        assert!(extreme > floored, "seed {seed}: {extreme} ≤ {floored}");
    }
}

#[test]
fn parity_holds_for_any_thread_count() {
    // 1, 2, and many workers must all match the oracle — the
    // engine's determinism cannot depend on the core count of the machine
    // that happens to run it. 3 and 5 stay in the list because they do
    // NOT divide a wave's job count (64 shard jobs per analyzer): the
    // claim race ends ragged, with workers running unequal job counts —
    // a placement the CI matrix points {1, 2, 4, 8} rarely produce.
    let case = steady::case_study(42, Scale::Small);
    let records = case.platform.collect_bin(BinId(0));
    let mut oracle = Oracle::new(DetectorConfig::fast_test(), case.mapper.clone());
    let want = oracle.process_bin(BinId(0), &records);
    for threads in [1usize, 2, 3, 4, 5, 8] {
        let mut cfg = DetectorConfig::fast_test();
        cfg.threads = threads;
        let mut analyzer = Analyzer::new(cfg, case.mapper.clone());
        let got = analyzer.process_bin(BinId(0), &records);
        assert_reports_identical(&got, &want, &format!("threads={threads}"));
    }
}

#[test]
fn parity_through_a_delay_event() {
    // Parity is easiest to fake on quiet data; assert it through an actual
    // anomaly so alarm construction and ordering are exercised. Drive a
    // hand-built three-probe world (same shape as the pipeline unit tests)
    // into a surge bin.
    use pinpoint::model::records::{Hop, Reply, TracerouteRecord};
    use pinpoint::model::{Asn, MeasurementId, ProbeId, SimTime};
    use std::net::Ipv4Addr;

    let ip = |s: &str| s.parse::<Ipv4Addr>().unwrap();
    let records = |bin: u64, link_delay: f64| -> Vec<TracerouteRecord> {
        let mut out = Vec::new();
        for (probe, asn, eps) in [(1u32, 100u32, 0.4), (2, 200, -0.8), (3, 300, 1.3)] {
            for shot in 0..2 {
                let base = 10.0 + eps;
                out.push(TracerouteRecord {
                    msm_id: MeasurementId(1),
                    probe_id: ProbeId(probe),
                    probe_asn: Asn(asn),
                    dst: ip("198.51.100.1"),
                    timestamp: SimTime(bin * 3600 + shot * 1800),
                    paris_id: 0,
                    hops: vec![
                        Hop::new(
                            1,
                            (0..3)
                                .map(|k| Reply::new(ip("10.0.0.1"), base + 0.01 * f64::from(k)))
                                .collect(),
                        ),
                        Hop::new(
                            2,
                            (0..3)
                                .map(|k| {
                                    Reply::new(
                                        ip("10.0.0.2"),
                                        base + link_delay + 0.01 * f64::from(k),
                                    )
                                })
                                .collect(),
                        ),
                    ],
                    destination_reached: true,
                });
            }
        }
        out
    };
    let mapper = pinpoint::core::aggregate::AsMapper::from_prefixes([(
        "10.0.0.0/16".parse().unwrap(),
        Asn(64500),
    )]);
    let mut parallel = Analyzer::new(parity_config(), mapper.clone());
    let mut oracle = Oracle::new(DetectorConfig::fast_test(), mapper);
    for b in 0..24u64 {
        let recs = records(b, 2.0);
        let a = parallel.process_bin(BinId(b), &recs);
        let r = oracle.process_bin(BinId(b), &recs);
        assert_reports_identical(&a, &r, &format!("warmup bin {b}"));
    }
    let recs = records(24, 32.0);
    let a = parallel.process_bin(BinId(24), &recs);
    let r = oracle.process_bin(BinId(24), &recs);
    assert!(!a.delay_alarms.is_empty(), "surge must alarm");
    assert_reports_identical(&a, &r, "surge bin");
}
