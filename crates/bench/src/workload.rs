//! Synthetic engine workloads.
//!
//! The scenario simulators produce *faithful* bins, but their volume is
//! bounded by simulated probe counts. Engine parity
//! (`tests/workload_parity.rs`) also has to hold on a bin that looks like
//! the full Atlas stream — thousands of links, each
//! monitored by enough probes in enough ASes to survive the §4.3 diversity
//! filter — without paying simulator cost. This module fabricates such a
//! bin directly at the record level, deterministically from a seed.

use pinpoint_core::aggregate::AsMapper;
use pinpoint_model::records::{Hop, Reply, TracerouteRecord};
use pinpoint_model::{Asn, MeasurementId, ProbeId, SimTime};
use pinpoint_stats::SplitMix64;
use std::net::Ipv4Addr;

/// Shape of a synthetic bin.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Number of distinct IP links.
    pub links: usize,
    /// Probes monitoring each link (spread over 5 ASes).
    pub probes_per_link: usize,
    /// Traceroutes each probe launches across the link per bin.
    pub shots: usize,
}

impl WorkloadSpec {
    /// A large bin: ~`links × probes × shots` records, nine differential
    /// RTT samples each.
    pub fn large() -> Self {
        WorkloadSpec {
            links: 400,
            probes_per_link: 12,
            shots: 2,
        }
    }

    /// A small smoke-test bin.
    pub fn small() -> Self {
        WorkloadSpec {
            links: 40,
            probes_per_link: 8,
            shots: 2,
        }
    }

    /// Total records this spec produces.
    pub fn records(&self) -> usize {
        self.links * self.probes_per_link * self.shots
    }

    /// A characterization-bound bin: few links, each sampled densely by
    /// probes across all five ASes — grouping is tiny (hundreds of runs
    /// per shard) but every link carries ~1.1k differential-RTT samples,
    /// so the per-link math (median/CI rank selection + Wilson bounds +
    /// the diversity verdict) is the bill. Exercises the batched
    /// shard-level characterization pass.
    pub fn characterize_heavy() -> Self {
        WorkloadSpec {
            links: 48,
            probes_per_link: 32,
            shots: 4,
        }
    }
}

fn link_ips(i: usize) -> (Ipv4Addr, Ipv4Addr, Ipv4Addr) {
    let hi = (i / 250) as u8;
    let lo = (i % 250) as u8;
    (
        Ipv4Addr::new(10, hi, lo, 1),
        Ipv4Addr::new(10, hi, lo, 2),
        Ipv4Addr::new(198, 51, hi, lo.saturating_add(1)),
    )
}

/// Build one synthetic bin of traceroute records.
///
/// Per link, `probes_per_link` probes (ASNs cycling over five values, so
/// the diversity filter passes) each fire `shots` traceroutes of three
/// responsive hops with three replies per hop — nine RTT combinations per
/// record, like a fully responsive Atlas traceroute pair. `bin` shifts the
/// timestamps and jitters the RTTs so successive bins look like a steady
/// stream.
pub fn synthetic_bin(spec: &WorkloadSpec, seed: u64, bin: u64) -> Vec<TracerouteRecord> {
    let mut rng = SplitMix64::new(seed ^ (bin.wrapping_mul(0x9E37_79B9)));
    let mut out = Vec::with_capacity(spec.records());
    for li in 0..spec.links {
        let (near, far, dst) = link_ips(li);
        let link_base = 5.0 + (li % 17) as f64;
        for p in 0..spec.probes_per_link {
            let probe = ProbeId((li * spec.probes_per_link + p) as u32);
            let asn = Asn(64000 + (p % 5) as u32);
            let eps = rng.next_range_f64(-1.0, 1.0);
            for shot in 0..spec.shots {
                let base = 10.0 + eps + rng.next_range_f64(0.0, 0.3);
                let reply3 = |addr: Ipv4Addr, rtt: f64, rng: &mut SplitMix64| {
                    Hop::new(
                        0,
                        (0..3)
                            .map(|_| Reply::new(addr, rtt + rng.next_range_f64(0.0, 0.25)))
                            .collect(),
                    )
                };
                let near_hop = reply3(near, base, &mut rng);
                let far_hop = reply3(far, base + link_base, &mut rng);
                let dst_hop = reply3(dst, base + link_base + 2.0, &mut rng);
                out.push(TracerouteRecord {
                    msm_id: MeasurementId(5000 + li as u32),
                    probe_id: probe,
                    probe_asn: asn,
                    dst,
                    timestamp: SimTime(bin * 3600 + (shot as u64) * 1200),
                    paris_id: shot as u16,
                    hops: vec![near_hop, far_hop, dst_hop],
                    destination_reached: true,
                });
            }
        }
    }
    out
}

/// Shape of a grouping-bound bin.
///
/// The inverse of [`WorkloadSpec::characterize_heavy`]: a horde of probes
/// each contributes a *single* RTT sample per link (one shot, one reply
/// per hop), so the per-shard run buffers are long — hundreds to
/// thousands of `(link, probe)` sort keys — while every run carries one
/// sample and the per-link math stays shallow. The cost center is
/// `finalize`'s key sort: exactly the path the LSD radix sort replaces.
#[derive(Debug, Clone, Copy)]
pub struct GroupingSpec {
    /// Number of distinct IP links.
    pub links: usize,
    /// Probes tracing each link once per bin (spread over 5 ASes).
    pub probes_per_link: usize,
}

impl GroupingSpec {
    /// A large grouping-bound bin (~900 sort keys per shard).
    pub fn large() -> Self {
        GroupingSpec {
            links: 64,
            probes_per_link: 220,
        }
    }

    /// A small smoke-test bin.
    pub fn small() -> Self {
        GroupingSpec {
            links: 8,
            probes_per_link: 24,
        }
    }

    /// Total records this spec produces.
    pub fn records(&self) -> usize {
        self.links * self.probes_per_link
    }
}

/// Build one grouping-bound bin (see [`GroupingSpec`]).
///
/// One record per (link, probe): three responsive hops with a single
/// reply each, so every record contributes exactly one differential-RTT
/// sample to each of its two links. ASNs cycle over five values so the
/// links survive the §4.3 diversity floor and the grouped rows flow all
/// the way through characterization. The key universe is identical
/// across bins (steady state for the intern epoch).
pub fn grouping_bin(spec: &GroupingSpec, seed: u64, bin: u64) -> Vec<TracerouteRecord> {
    let mut rng = SplitMix64::new(seed ^ 0x6E0F ^ (bin.wrapping_mul(0x9E37_79B9)));
    let mut out = Vec::with_capacity(spec.records());
    // Probe-major emission: consecutive records cycle through every link,
    // so each shard's gathered run keys arrive thoroughly out of order —
    // the shape that actually exercises the radix grouping path (a
    // link-major sweep would hand the sorter already-ascending keys).
    for p in 0..spec.probes_per_link {
        for li in 0..spec.links {
            let (near, far, dst) = link_ips(li);
            let link_base = 4.0 + (li % 13) as f64;
            let probe = ProbeId(9_000_000 + (li * spec.probes_per_link + p) as u32);
            let base = 9.0 + rng.next_range_f64(-1.0, 1.0);
            let one = |addr: Ipv4Addr, rtt: f64| Hop::new(0, vec![Reply::new(addr, rtt)]);
            out.push(TracerouteRecord {
                msm_id: MeasurementId(21_000 + li as u32),
                probe_id: probe,
                probe_asn: Asn(64000 + (p % 5) as u32),
                dst,
                timestamp: SimTime(bin * 3600 + (p as u64 % 1800)),
                paris_id: 0,
                hops: vec![
                    one(near, base),
                    one(far, base + link_base),
                    one(dst, base + link_base + 2.0),
                ],
                destination_reached: true,
            });
        }
    }
    out
}

/// Ground-truth mapper covering the synthetic address plan.
pub fn synthetic_mapper() -> AsMapper {
    AsMapper::from_prefixes([
        ("10.0.0.0/8".parse().unwrap(), Asn(65000)),
        ("198.51.0.0/16".parse().unwrap(), Asn(65001)),
    ])
}

/// Shape of a synthetic forwarding-heavy bin.
///
/// The delay workload above exercises the §4 path (dense RTT samples per
/// link); this one stresses §5: many (router, destination) patterns, each
/// spraying packets over an ECMP-like next-hop fan-out, while keeping the
/// probe set per link below the §4.3 AS-diversity floor so the delay
/// detector drops the links early and the forwarding engine dominates the
/// bin's cost.
#[derive(Debug, Clone, Copy)]
pub struct ForwardingSpec {
    /// Distinct routers whose forwarding is modeled.
    pub routers: usize,
    /// Destinations traced through each router (patterns = routers × this).
    pub dsts_per_router: usize,
    /// Next hops each pattern spreads its packets over.
    pub next_hops: usize,
    /// Traceroutes per (router, destination) per bin.
    pub shots: usize,
}

impl ForwardingSpec {
    /// A large bin: ~`routers × dsts` patterns with a realistic (~4-hop)
    /// fan-out each.
    pub fn large() -> Self {
        ForwardingSpec {
            routers: 300,
            dsts_per_router: 4,
            next_hops: 4,
            shots: 3,
        }
    }

    /// A small smoke-test bin.
    pub fn small() -> Self {
        ForwardingSpec {
            routers: 30,
            dsts_per_router: 2,
            next_hops: 3,
            shots: 2,
        }
    }

    /// Total records this spec produces.
    pub fn records(&self) -> usize {
        self.routers * self.dsts_per_router * self.shots
    }

    /// Total (router, destination) patterns this spec produces.
    pub fn patterns(&self) -> usize {
        self.routers * self.dsts_per_router
    }
}

/// Build one synthetic forwarding-heavy bin.
///
/// Per (router, destination), `shots` single-probe traceroutes each send
/// three packets past the router; every packet picks one of `next_hops`
/// successors pseudo-randomly (a timeout once in a while, so the
/// unresponsive bucket Z stays populated). Packet spread is seeded per
/// `(seed, bin)`, so successive bins wander enough to exercise the
/// reference smoothing without (usually) tripping τ.
pub fn forwarding_bin(spec: &ForwardingSpec, seed: u64, bin: u64) -> Vec<TracerouteRecord> {
    let mut rng = SplitMix64::new(seed ^ 0xF0_0D ^ (bin.wrapping_mul(0x9E37_79B9)));
    let mut out = Vec::with_capacity(spec.records());
    for r in 0..spec.routers {
        let router = Ipv4Addr::new(10, 200, (r / 250) as u8, (r % 250) as u8);
        for d in 0..spec.dsts_per_router {
            let dst = Ipv4Addr::new(198, 51, 200 + d as u8, (r % 250) as u8);
            for shot in 0..spec.shots {
                let probe = (r * spec.dsts_per_router + d) * spec.shots + shot;
                let base = 8.0 + rng.next_range_f64(0.0, 2.0);
                let next_replies = (0..3)
                    .map(|_| {
                        // ~6% timeouts keep the Z bucket in the patterns.
                        if rng.next_range_f64(0.0, 1.0) < 0.06 {
                            Reply::TIMEOUT
                        } else {
                            let h = (rng.next_raw() % spec.next_hops as u64) as u8;
                            Reply::new(
                                Ipv4Addr::new(10, 210 + h, (r / 250) as u8, (r % 250) as u8),
                                base + 1.0 + rng.next_range_f64(0.0, 0.5),
                            )
                        }
                    })
                    .collect();
                out.push(TracerouteRecord {
                    msm_id: MeasurementId(9000 + r as u32),
                    probe_id: ProbeId(7_000_000 + probe as u32),
                    // Two ASes < the 3-AS diversity floor: the delay path
                    // discards these links right after grouping.
                    probe_asn: Asn(64900 + (probe % 2) as u32),
                    dst,
                    timestamp: SimTime(bin * 3600 + (shot as u64) * 1100),
                    paris_id: shot as u16,
                    hops: vec![
                        Hop::new(1, vec![Reply::new(router, base); 3]),
                        Hop::new(2, next_replies),
                    ],
                    destination_reached: false,
                });
            }
        }
    }
    out
}

/// Shape of a synthetic ingestion-heavy bin.
///
/// The record→row scatter pass is the front door of every bin; this
/// workload makes it the bill. Long fully-responsive paths (three replies
/// per hop) explode into ~9 differential-RTT rows per link per record —
/// tens of rows per record — while the per-key analysis work stays small:
/// every probe sits in one of two ASes, so the §4.3 diversity floor
/// discards each link right after grouping, and the §5 patterns are few
/// (one per (path hop, destination)) with a single dominant next hop.
/// What remains is almost pure scatter + group — the layer the chunked
/// parallel front-end and the persistent intern epochs accelerate.
#[derive(Debug, Clone, Copy)]
pub struct IngestSpec {
    /// Distinct hop chains (each chain is one destination).
    pub paths: usize,
    /// Responsive hops per chain.
    pub hops_per_path: usize,
    /// Probes tracing each chain per bin.
    pub probes_per_path: usize,
    /// Traceroutes per probe per bin.
    pub shots: usize,
}

impl IngestSpec {
    /// A large scatter-dominated bin (~200k delay rows).
    pub fn large() -> Self {
        IngestSpec {
            paths: 60,
            hops_per_path: 10,
            probes_per_path: 20,
            shots: 2,
        }
    }

    /// A small smoke-test bin.
    pub fn small() -> Self {
        IngestSpec {
            paths: 8,
            hops_per_path: 5,
            probes_per_path: 4,
            shots: 1,
        }
    }

    /// Total records this spec produces.
    pub fn records(&self) -> usize {
        self.paths * self.probes_per_path * self.shots
    }
}

/// Build one synthetic ingestion-heavy bin (see [`IngestSpec`]).
///
/// The key universe (links, probes, patterns, next hops) is identical
/// for every `bin`, so bins after the first are steady state for the
/// intern epoch: `tests/workload_parity.rs` asserts zero intern-table
/// insertions there.
pub fn ingest_bin(spec: &IngestSpec, seed: u64, bin: u64) -> Vec<TracerouteRecord> {
    let mut rng = SplitMix64::new(seed ^ 0x1_4E57 ^ (bin.wrapping_mul(0x9E37_79B9)));
    let hop_ip =
        |p: usize, h: usize| Ipv4Addr::new(10, 100 + (p / 250) as u8, h as u8, (p % 250) as u8);
    let mut out = Vec::with_capacity(spec.records());
    for p in 0..spec.paths {
        let dst = Ipv4Addr::new(198, 51, 150, (p % 250) as u8);
        for probe in 0..spec.probes_per_path {
            let probe_id = ProbeId(8_000_000 + (p * spec.probes_per_path + probe) as u32);
            let eps = rng.next_range_f64(-0.5, 0.5);
            for shot in 0..spec.shots {
                let base = 12.0 + eps + rng.next_range_f64(0.0, 0.2);
                let hops = (0..spec.hops_per_path)
                    .map(|h| {
                        let rtt = base + h as f64 * 1.5;
                        Hop::new(
                            h as u8 + 1,
                            (0..3)
                                .map(|_| {
                                    Reply::new(hop_ip(p, h), rtt + rng.next_range_f64(0.0, 0.3))
                                })
                                .collect(),
                        )
                    })
                    .collect();
                out.push(TracerouteRecord {
                    msm_id: MeasurementId(11_000 + p as u32),
                    probe_id,
                    // Two ASes < the 3-AS diversity floor: grouping runs,
                    // per-link analysis doesn't — scatter dominates.
                    probe_asn: Asn(64800 + (probe % 2) as u32),
                    dst,
                    timestamp: SimTime(bin * 3600 + (shot as u64) * 900),
                    paris_id: shot as u16,
                    hops,
                    destination_reached: true,
                });
            }
        }
    }
    out
}

/// Per-stream feeds for the multi-stream fleet workload: `streams` mixed
/// bins (delay + forwarding work in each), seeded per stream so the RTT
/// and packet-spread jitter differ across streams. Sized so the whole
/// fleet bin is comparable to `mixed_full` while loading the shared pool
/// with `2 × streams` detector stages at once.
pub fn multi_stream_feeds(streams: usize, seed: u64, bin: u64) -> Vec<Vec<TracerouteRecord>> {
    let delay = WorkloadSpec {
        links: 150,
        probes_per_link: 12,
        shots: 2,
    };
    let forwarding = ForwardingSpec {
        routers: 100,
        dsts_per_router: 4,
        next_hops: 4,
        shots: 3,
    };
    (0..streams)
        .map(|s| {
            mixed_bin(
                &delay,
                &forwarding,
                seed ^ 0xA5A5u64.wrapping_mul(s as u64 + 1),
                bin,
            )
        })
        .collect()
}

/// A mixed Atlas-like bin: the delay-heavy and forwarding-heavy workloads
/// interleaved, so the combined engine runs both detectors' shard
/// pipelines (§4 ∥ §5) with real work on each side.
pub fn mixed_bin(
    delay_spec: &WorkloadSpec,
    forwarding_spec: &ForwardingSpec,
    seed: u64,
    bin: u64,
) -> Vec<TracerouteRecord> {
    let mut out = synthetic_bin(delay_spec, seed, bin);
    out.extend(forwarding_bin(forwarding_spec, seed, bin));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_core::{Analyzer, DetectorConfig};
    use pinpoint_model::BinId;

    #[test]
    fn synthetic_bin_has_expected_shape() {
        let spec = WorkloadSpec::small();
        let records = synthetic_bin(&spec, 7, 0);
        assert_eq!(records.len(), spec.records());
        // Deterministic per seed.
        assert_eq!(records, synthetic_bin(&spec, 7, 0));
        assert_ne!(records, synthetic_bin(&spec, 8, 0));
    }

    #[test]
    fn forwarding_bin_feeds_the_forwarding_detector() {
        let spec = ForwardingSpec::small();
        let records = forwarding_bin(&spec, 7, 0);
        assert_eq!(records.len(), spec.records());
        // Deterministic per seed.
        assert_eq!(records, forwarding_bin(&spec, 7, 0));
        assert_ne!(records, forwarding_bin(&spec, 8, 0));
        let mut analyzer = Analyzer::new(DetectorConfig::default(), synthetic_mapper());
        let report = analyzer.process_bin(BinId(0), &records);
        // Every (router, dst) produces a forwarding model; the sub-floor
        // AS diversity keeps the delay path out of the picture.
        assert_eq!(analyzer.tracked_patterns(), spec.patterns());
        assert!(report.link_stats.is_empty());
    }

    #[test]
    fn mixed_bin_drives_both_detectors() {
        let d = WorkloadSpec::small();
        let f = ForwardingSpec::small();
        let records = mixed_bin(&d, &f, 7, 0);
        assert_eq!(records.len(), d.records() + f.records());
        let mut analyzer = Analyzer::new(DetectorConfig::default(), synthetic_mapper());
        let report = analyzer.process_bin(BinId(0), &records);
        assert_eq!(report.link_stats.len(), 2 * d.links);
        assert!(analyzer.tracked_patterns() >= f.patterns());
    }

    #[test]
    fn ingest_bin_is_scatter_dominated_and_steady() {
        let spec = IngestSpec::small();
        let records = ingest_bin(&spec, 7, 0);
        assert_eq!(records.len(), spec.records());
        // Deterministic per seed.
        assert_eq!(records, ingest_bin(&spec, 7, 0));
        assert_ne!(records, ingest_bin(&spec, 7, 1));
        let mut analyzer = Analyzer::new(DetectorConfig::default(), synthetic_mapper());
        let report = analyzer.process_bin(BinId(0), &records);
        // Sub-floor AS diversity: the delay path keeps no link…
        assert!(report.link_stats.is_empty());
        // …but every (path hop, destination) pattern is modeled.
        assert_eq!(
            analyzer.tracked_patterns(),
            spec.paths * (spec.hops_per_path - 1)
        );
        // Bin 1 replays the same key universe: zero intern insertions.
        analyzer.process_bin(BinId(1), &ingest_bin(&spec, 7, 1));
        assert_eq!(analyzer.ingest_stats().bin_insertions, 0);
    }

    #[test]
    fn multi_stream_feeds_drive_a_fleet() {
        use pinpoint_core::StreamRouter;
        let feeds = multi_stream_feeds(3, 7, 0);
        assert_eq!(feeds.len(), 3);
        assert!(feeds.iter().all(|f| !f.is_empty()));
        // Deterministic per seed, distinct across streams.
        assert_eq!(feeds, multi_stream_feeds(3, 7, 0));
        assert_ne!(feeds[0], feeds[1]);
        let mut router = StreamRouter::new();
        for i in 0..3 {
            router.add_stream(
                format!("stream-{i}"),
                Analyzer::new(DetectorConfig::default(), synthetic_mapper()),
            );
        }
        let report = router.process_bin(BinId(0), &feeds);
        assert_eq!(report.records(), feeds.iter().map(Vec::len).sum::<usize>());
        assert!(report.streams.iter().all(|r| !r.link_stats.is_empty()));
        assert!(router.tracked_patterns() > 0);
    }

    #[test]
    fn grouping_bin_is_sort_bound_but_fully_characterized() {
        let spec = GroupingSpec::small();
        let records = grouping_bin(&spec, 7, 0);
        assert_eq!(records.len(), spec.records());
        // Deterministic per seed; bins jitter but share one key universe.
        assert_eq!(records, grouping_bin(&spec, 7, 0));
        assert_ne!(records, grouping_bin(&spec, 8, 0));
        let mut analyzer = Analyzer::new(DetectorConfig::default(), synthetic_mapper());
        let report = analyzer.process_bin(BinId(0), &records);
        // Five ASes per link: everything survives the diversity floor, so
        // the sorted runs flow all the way through characterization.
        assert_eq!(report.link_stats.len(), 2 * spec.links);
        // Steady state: bin 1 replays the same keys, zero insertions.
        analyzer.process_bin(BinId(1), &grouping_bin(&spec, 7, 1));
        assert_eq!(analyzer.ingest_stats().bin_insertions, 0);
    }

    #[test]
    fn characterize_heavy_spec_carries_dense_per_link_pools() {
        let spec = WorkloadSpec::characterize_heavy();
        let records = synthetic_bin(&spec, 7, 0);
        assert_eq!(records.len(), spec.records());
        let mut analyzer = Analyzer::new(DetectorConfig::default(), synthetic_mapper());
        let report = analyzer.process_bin(BinId(0), &records);
        assert_eq!(report.link_stats.len(), 2 * spec.links);
        // The point of the spec: every link's sample pool is deep enough
        // that rank selection, not grouping, is the dominant cost.
        let samples_per_link = spec.probes_per_link * spec.shots * 9;
        assert!(
            samples_per_link > 1000,
            "characterize_heavy pools are too shallow ({samples_per_link})"
        );
    }

    #[test]
    fn synthetic_bin_survives_the_diversity_filter() {
        // All links must make it through §4.3 — otherwise the parity test
        // would compare engines that discard their input.
        let spec = WorkloadSpec::small();
        let mut analyzer = Analyzer::new(DetectorConfig::default(), synthetic_mapper());
        let report = analyzer.process_bin(BinId(0), &synthetic_bin(&spec, 7, 0));
        // Each record contributes two IP-adjacent links: (near, far) and
        // (far, dst).
        assert_eq!(report.link_stats.len(), 2 * spec.links);
    }
}
