//! Telekom Malaysia BGP route leak (§7.2, Fig. 9–12).
//!
//! On 2015-06-12 08:43 UTC, AS4788 announced routes for "numerous IP
//! prefixes" to its provider Level3 Global Crossing (AS3549), which
//! accepted and propagated them. Traffic worldwide was drawn through the
//! leaker, congesting the TM–GC interconnects and both Level3 ASes; delays
//! rose by hundreds of milliseconds and "routers from both ASs dropped a
//! lot of packets".
//!
//! The scenario scripts the routing change itself (a [`NetworkEvent::RouteLeak`]
//! recomputes policy routes with the leak edge) *plus* the congestion the
//! attracted traffic causes — the simulator does not model traffic volume
//! endogenously, so the utilization surge is applied to the affected ASes
//! directly (a deliberate substitution).

use crate::runner::CaseStudy;
use crate::world::{Landmarks, Scale};
use pinpoint_core::DetectorConfig;
use pinpoint_model::SimTime;
use pinpoint_netsim::events::{EventSchedule, LeakScope, LinkSelector, NetworkEvent};

/// Day of June 12th relative to the epoch (2015-06-08).
const LEAK_DAY: u64 = 4;

/// Leak window: June 12th 08:43–11:00 UTC (alarms reported 09:00–11:00).
pub fn leak_window() -> (SimTime, SimTime) {
    (
        SimTime(LEAK_DAY * 86_400 + 8 * 3600 + 43 * 60),
        SimTime(LEAK_DAY * 86_400 + 11 * 3600),
    )
}

/// Analysis window in bins. Bin 0 = 2015-06-08 00:00 UTC.
pub fn window(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Small => (0, 7 * 24),
        // Fig. 9/10: June 8th – 30th.
        Scale::Paper => (0, 22 * 24),
    }
}

/// Build the leak schedule.
pub fn schedule(landmarks: &Landmarks) -> EventSchedule {
    let (start, end) = leak_window();
    EventSchedule::new()
        .with(NetworkEvent::RouteLeak {
            leaker: landmarks.tm_asn,
            upstream: landmarks.gc_asn,
            // The incident leaked a large subset of the table, not all of
            // it — scope to ~35% of destinations.
            scope: LeakScope::SampleDests {
                permille: 350,
                salt: 0x4788,
            },
            start,
            end,
        })
        // Leak-attracted traffic saturates the TM↔GC interconnects…
        .with(NetworkEvent::Congestion {
            selector: LinkSelector::Between(landmarks.tm_asn, landmarks.gc_asn),
            start,
            end,
            extra_util: 0.8,
        })
        // …and the leaker's own backbone…
        .with(NetworkEvent::Congestion {
            selector: LinkSelector::WithinAs(landmarks.tm_asn),
            start,
            end,
            extra_util: 0.55,
        })
        // …and floods both Level3 ASes (AS3549 worst).
        .with(NetworkEvent::Congestion {
            selector: LinkSelector::WithinAs(landmarks.gc_asn),
            start,
            end,
            extra_util: 0.62,
        })
        .with(NetworkEvent::Congestion {
            selector: LinkSelector::WithinAs(landmarks.level3_asn),
            start,
            end,
            extra_util: 0.5,
        })
        // Saturated routers shed traffic outright ("numerous routers from
        // both ASs dropped a lot of packets") — scripted loss on top of the
        // AQM response.
        .with(NetworkEvent::PacketLoss {
            selector: LinkSelector::Between(landmarks.tm_asn, landmarks.gc_asn),
            start,
            end,
            loss: 0.5,
        })
        .with(NetworkEvent::PacketLoss {
            selector: LinkSelector::SampleWithinAs {
                asn: landmarks.gc_asn,
                permille: 250,
                salt: 0x6C3A,
            },
            start,
            end,
            loss: 0.55,
        })
        .with(NetworkEvent::PacketLoss {
            selector: LinkSelector::SampleWithinAs {
                asn: landmarks.level3_asn,
                permille: 150,
                salt: 0x6C3B,
            },
            start,
            end,
            loss: 0.5,
        })
}

/// Build the route-leak case study.
pub fn case_study(seed: u64, scale: Scale) -> CaseStudy {
    let world = crate::world::World::build(seed, scale);
    let schedule = schedule(&world.landmarks);
    CaseStudy::assemble(
        seed,
        scale,
        schedule,
        DetectorConfig::default(),
        window(scale),
        "2015-06-08T00:00Z",
        2,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;
    use pinpoint_model::BinId;

    #[test]
    fn leak_raises_level3_delay_and_depresses_forwarding() {
        let case = case_study(2015, Scale::Small);
        let (ls, le) = leak_window();
        let leak_bins: Vec<u64> = (ls.0 / 3600..le.0 / 3600 + 1).collect();
        let gc = case.landmarks.gc_asn;
        let l3 = case.landmarks.level3_asn;
        let mut analyzer = case.analyzer();
        let short = CaseStudy {
            end_bin: BinId(leak_bins[leak_bins.len() - 1] + 2),
            ..case
        };
        let mut gc_delay_peak = f64::NEG_INFINITY;
        let mut gc_fwd_min = f64::INFINITY;
        let mut l3_delay_peak = f64::NEG_INFINITY;
        run(&short, &mut analyzer, |report| {
            if leak_bins.contains(&report.bin.0) {
                if let Some(m) = report.magnitude(gc) {
                    gc_delay_peak = gc_delay_peak.max(m.delay_magnitude);
                    gc_fwd_min = gc_fwd_min.min(m.forwarding_magnitude);
                }
                if let Some(m) = report.magnitude(l3) {
                    l3_delay_peak = l3_delay_peak.max(m.delay_magnitude);
                }
            }
        });
        assert!(gc_delay_peak > 3.0, "AS3549 delay peak {gc_delay_peak}");
        assert!(l3_delay_peak > 1.0, "AS3356 delay peak {l3_delay_peak}");
        assert!(
            gc_fwd_min < -0.5,
            "AS3549 forwarding magnitude never went negative: {gc_fwd_min}"
        );
    }

    #[test]
    fn window_covers_leak() {
        let (s, e) = leak_window();
        assert!(s < e);
        for scale in [Scale::Small, Scale::Paper] {
            let (b0, b1) = window(scale);
            assert_eq!(b0, 0);
            assert!(b1 * 3600 > e.0);
        }
    }
}
