//! Appendix B: theoretical detectability limits.
//!
//! The paper derives the shortest detectable event for a link watched by
//! `n` vantage points probing `r` times per hour with bin length `T`:
//!
//! ```text
//! minimum usable bin  T_min = m / (3 r n)          (m = 9 packets)
//! shortest event      1/(3 r n) + T/2
//! ```
//!
//! builtin rates (r = 2, n = 3, T = 1 h) → 33 min; anchoring rates
//! (r = 4, n = 3, T = 15 min) → 9.2 min. This harness sweeps ground-truth
//! congestion bursts of increasing duration on the Cogent link, watched by
//! exactly three probes from three ASes, and reports the detection
//! transition against the theory.

use super::{Claim, Cx};
use pinpoint_atlas::{deploy_probes, Measurement, MeasurementKind, Platform};
use pinpoint_core::pipeline::Analyzer;
use pinpoint_core::DetectorConfig;
use pinpoint_model::{BinId, MeasurementId, SimTime};
use pinpoint_netsim::events::{EventSchedule, LinkSelector, NetworkEvent};
use pinpoint_netsim::Network;
use pinpoint_scenarios::world::World;

struct SweepOutcome {
    duration_min: u64,
    detected: bool,
}

fn sweep(
    seed: u64,
    kind: MeasurementKind,
    bin_secs: u64,
    durations_min: &[u64],
) -> (f64, Vec<SweepOutcome>) {
    let world = World::build(seed, pinpoint_scenarios::Scale::Small);
    let link = world.landmarks.cogent_link;
    let anchor = world.landmarks.anchor_muc;
    let mapper = world.mapper();

    // Ground-truth events: one burst per day at 12:00, increasing duration.
    let link_id = {
        let a = world.topology.router_by_ip[&link.near];
        let b = world.topology.router_by_ip[&link.far];
        world.topology.link_between_routers(a, b).unwrap().id
    };
    let warmup_days = 2u64;
    let mut schedule = EventSchedule::new();
    for (i, &d) in durations_min.iter().enumerate() {
        let start = SimTime((warmup_days + i as u64) * 86_400 + 12 * 3600);
        schedule = schedule.with(NetworkEvent::Congestion {
            selector: LinkSelector::Link(link_id),
            start,
            end: SimTime(start.0 + d * 60),
            extra_util: 0.62,
        });
    }

    let net = Network::new(world.topology, seed, &schedule);
    let probes = deploy_probes(net.topology(), 120, seed);
    // Exactly three probes from three different ASes *whose forward path
    // to the anchor actually crosses the monitored link* — vantage points
    // elsewhere satisfy the diversity rule but never observe the link.
    let mut chosen = Vec::new();
    let mut seen_as = std::collections::BTreeSet::new();
    for p in &probes.probes {
        if seen_as.contains(&p.asn) {
            continue;
        }
        let crosses = (0..4u64).all(|flow| {
            net.forward_path(&pinpoint_netsim::network::TraceQuery {
                src: p.gateway,
                dst: anchor,
                t: SimTime::ZERO,
                flow,
                packets_per_hop: 3,
            })
            .map(|path| {
                path.windows(2).any(|w| {
                    let a = net.topology().router(w[0]).ip;
                    let b = net.topology().router(w[1]).ip;
                    (a, b) == (link.near, link.far)
                })
            })
            .unwrap_or(false)
        });
        if crosses {
            seen_as.insert(p.asn);
            chosen.push(p.id);
        }
        if chosen.len() == 3 {
            break;
        }
    }
    assert_eq!(chosen.len(), 3, "not enough probes crossing the link");
    let mut platform = Platform::new(net, probes);
    platform.bin_secs = bin_secs;
    platform.add_measurement(Measurement::new(MeasurementId(9000), kind, anchor, chosen));

    let cfg = DetectorConfig {
        bin_secs,
        ..DetectorConfig::default()
    };
    let mut analyzer = Analyzer::new(cfg, mapper);
    let total_bins = (warmup_days + durations_min.len() as u64 + 1) * 86_400 / bin_secs;
    let mut detected_bins: Vec<u64> = Vec::new();
    for (bin, records) in platform.stream(BinId(0), BinId(total_bins)) {
        let report = analyzer.process_bin(bin, &records);
        if report.delay_alarms.iter().any(|a| a.link == link) {
            detected_bins.push(bin.0);
        }
    }

    let r = kind.rate_per_hour();
    let n = 3.0;
    let theory_min = (1.0 / (3.0 * r * n) + (bin_secs as f64 / 3600.0) / 2.0) * 60.0;
    let outcomes = durations_min
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let event_start = (warmup_days + i as u64) * 86_400 + 12 * 3600;
            let event_end = event_start + d * 60;
            let bins = event_start / bin_secs..=event_end / bin_secs;
            SweepOutcome {
                duration_min: d,
                detected: detected_bins.iter().any(|b| bins.contains(b)),
            }
        })
        .collect();
    (theory_min, outcomes)
}

pub(super) fn appendix_b(cx: &mut Cx) -> Claim {
    cx.header(
        "Appendix B — shortest detectable event",
        "builtin (r=2, n=3, T=1 h) → 33 min; anchoring (r=4, n=3, T=15 min) → 9.2 min",
    );
    let mut all_consistent = true;
    for (label, kind, bin_secs, durations) in [
        (
            "builtin, T = 1 h",
            MeasurementKind::Builtin,
            3600u64,
            vec![10u64, 20, 30, 40, 50, 60],
        ),
        (
            "anchoring, T = 15 min",
            MeasurementKind::Anchoring,
            900,
            vec![3, 6, 9, 12, 15],
        ),
    ] {
        let (theory, outcomes) = sweep(cx.seed, kind, bin_secs, &durations);
        say!(cx, "{label}: theoretical threshold ≈ {theory:.1} min");
        for o in &outcomes {
            let expect = o.duration_min as f64 >= theory;
            let consistent = o.detected == expect
                // Allow fuzz right at the threshold (phase quantization).
                || (o.duration_min as f64 - theory).abs() < theory * 0.35;
            if !consistent {
                all_consistent = false;
            }
            say!(
                cx,
                "    {:>3} min burst: detected={} (theory says {}) {}",
                o.duration_min,
                o.detected,
                expect,
                if consistent { "✓" } else { "✗" }
            );
        }
        say!(cx);
    }
    cx.verdict(
        all_consistent,
        "detection transitions bracket the Appendix-B thresholds (±35 % phase fuzz)",
    )
}
