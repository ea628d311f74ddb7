//! The engine's building blocks against the oracle's formulas: the Wilson
//! characterizer, the §4.3 rebalancing draw, and forwarding
//! reference eviction. The scenario-level parity suites compare whole
//! reports; these pin each piece on inputs built to hit its corner cases
//! (memoized ranks across sample counts and `z`, non-finite samples, an
//! unbalanced link under many seeds, a pattern that expires and returns).

use pinpoint_bench::oracle::{self, Oracle};
use pinpoint_core::aggregate::AsMapper;
use pinpoint_core::diffrtt::characterize::{characterize_in_place_cached, RankCache};
use pinpoint_core::{DelayDetector, DetectorConfig, ForwardingDetector};
use pinpoint_model::records::{Hop, Reply, TracerouteRecord};
use pinpoint_model::{Asn, BinId, MeasurementId, ProbeId, SimTime};
use pinpoint_stats::SplitMix64;
use std::net::Ipv4Addr;

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

fn record(probe: u32, asn: u32, hops: Vec<Hop>) -> TracerouteRecord {
    TracerouteRecord {
        msm_id: MeasurementId(1),
        probe_id: ProbeId(probe),
        probe_asn: Asn(asn),
        dst: ip("198.51.100.1"),
        timestamp: SimTime(0),
        paris_id: 0,
        hops,
        destination_reached: true,
    }
}

/// The engine's characterizer, sharing one rank memo across sample
/// counts (repeats hit the memo), non-finite injections (dropped before
/// selection) and a `z` sweep (the memo resets), must equal the oracle's
/// sort-based median and Wilson CI.
#[test]
fn characterizers_match_the_oracle() {
    let mut rng = SplitMix64::new(4242);
    let mut cache = RankCache::default();
    for z in [1.96, 0.0, 3.0, 1.96] {
        let cfg = DetectorConfig {
            wilson_z: z,
            ..DetectorConfig::default()
        };
        for n in [0usize, 1, 2, 3, 7, 24, 24, 64, 100, 7, 257, 313, 100] {
            let mut samples: Vec<f64> = (0..n).map(|_| rng.next_f64() * 60.0 - 20.0).collect();
            // Every third size poisons a sample.
            if n > 2 && n % 3 == 1 {
                let k = (rng.next_raw() as usize) % n;
                samples[k] = if n % 2 == 0 { f64::NAN } else { f64::INFINITY };
            }
            let ctx = format!("z={z} n={n}");
            let want = oracle::characterize(samples.clone(), &cfg);
            let in_place = characterize_in_place_cached(&mut samples, &cfg, &mut cache);
            assert_eq!(in_place, want, "in place {ctx}");
        }
    }
}

/// An unbalanced link — 20 probes in AS 100, one each in AS 200 and
/// AS 300 — is rebalanced by a random draw. The engine must drop the same
/// probes as the oracle for every seed and bin: each probe's samples are
/// distinct, so a different draw moves the median or the CI.
#[test]
fn rebalanced_link_matches_the_oracle() {
    let records: Vec<TracerouteRecord> = (0..22u32)
        .map(|p| {
            let asn = match p {
                20 => 200,
                21 => 300,
                _ => 100,
            };
            let rtt = 1.0 + f64::from(p);
            record(
                p,
                asn,
                vec![
                    Hop::new(1, vec![Reply::new(ip("10.0.0.1"), rtt); 2]),
                    Hop::new(
                        2,
                        vec![Reply::new(ip("10.0.1.1"), rtt + 0.1 * f64::from(p * p)); 2],
                    ),
                ],
            )
        })
        .collect();
    let mut medians = std::collections::BTreeSet::new();
    for seed in 0..16u64 {
        let cfg = DetectorConfig {
            seed,
            ..DetectorConfig::fast_test()
        };
        let mut engine = DelayDetector::new(&cfg);
        let mut oracle = Oracle::new(cfg, AsMapper::new());
        for b in 0..4 {
            let (alarms, stats) = engine.process_bin(BinId(b), &records);
            let (want_alarms, want_stats) = oracle.delay_bin(BinId(b), &records);
            assert_eq!(stats, want_stats, "seed {seed} bin {b}");
            assert_eq!(alarms, want_alarms, "seed {seed} bin {b}");
            medians.extend(stats.values().map(|s| s.median().to_bits()));
        }
    }
    assert!(medians.len() > 1, "every draw kept the same probes");
}

/// One probe's traceroute through router R whose next hop is `next`.
fn through(next: &str) -> TracerouteRecord {
    record(
        1,
        64500,
        vec![
            Hop::new(1, vec![Reply::new(ip("10.0.0.1"), 1.0); 12]),
            Hop::new(2, vec![Reply::new(ip(next), 2.0); 12]),
        ],
    )
}

/// A pattern unseen past `reference_expiry_bins` is evicted on both
/// sides, so the route change after the gap meets a fresh reference and
/// alarms nowhere.
#[test]
fn forwarding_eviction_matches_the_oracle() {
    let cfg = DetectorConfig {
        reference_expiry_bins: 2,
        ..DetectorConfig::fast_test()
    };
    let mut engine = ForwardingDetector::new(&cfg);
    let mut oracle = Oracle::new(cfg, AsMapper::new());
    let bins = [
        vec![through("10.0.1.1")],
        vec![],
        vec![],
        vec![],
        vec![through("10.0.9.9")],
    ];
    for (b, records) in bins.iter().enumerate() {
        let bin = BinId(b as u64);
        let alarms = engine.process_bin(bin, records);
        assert_eq!(alarms, oracle.forwarding_bin(bin, records), "bin {b}");
        assert!(alarms.is_empty(), "bin {b}: {alarms:?}");
        assert_eq!(
            engine.tracked_patterns(),
            oracle.tracked_patterns(),
            "bin {b}"
        );
    }
    assert_eq!(engine.tracked_patterns(), 1);
}
