//! Multi-stream AMS-IX outage: one event, three vantage streams.
//!
//! The §8 deployment never sees "the" traceroute feed — it sees many
//! concurrent measurement streams (anchor meshes, builtins, user-defined
//! measurements), each a partial view of the same network. This scenario
//! replays the §7.3 AMS-IX outage through a [`StreamRouter`] fleet of
//! three streams sharing one platform and one engine pool:
//!
//! * `anchor-mesh-a` / `anchor-mesh-b` — the anchoring measurements split
//!   into two disjoint meshes (even/odd measurement ids), like two
//!   independently-scheduled anchor campaigns;
//! * `user-defined` — one user-defined traceroute measurement from a thin
//!   probe subset towards the K-root service.
//!
//! Each stream alone sees only a slice of the vanished peering-LAN
//! next-hop pairs, so its own AS1200 forwarding magnitude dips weakly; the
//! merged fleet view sums the per-stream severities first and is the only
//! one to cross the reporting threshold cleanly — the cross-stream
//! corroboration the fleet exists for.

use crate::ixp;
use crate::world::{Landmarks, Scale, World};
use pinpoint_atlas::{deploy_probes, Measurement, MeasurementKind, Platform};
use pinpoint_core::aggregate::AsMapper;
use pinpoint_core::{Analyzer, DetectorConfig, StreamRouter};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::{BinId, MeasurementId};
use pinpoint_netsim::Network;
use std::collections::BTreeSet;

/// One stream of the fleet: a label and the measurement ids it analyzes.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Stream name (becomes the router label).
    pub label: &'static str,
    /// The measurements whose records feed this stream.
    pub msm_ids: BTreeSet<MeasurementId>,
}

/// The assembled multi-stream case: one platform, one event, a fleet of
/// disjoint measurement streams over it.
#[derive(Debug)]
pub struct MultiStreamCase {
    /// The measurement platform (owns the network engine).
    pub platform: Platform,
    /// The stream partition, in fleet order.
    pub streams: Vec<StreamSpec>,
    /// Ground-truth IP→AS mapper.
    pub mapper: AsMapper,
    /// Detector configuration (shared by every stream's analyzer).
    pub cfg: DetectorConfig,
    /// Landmarks of the shared world.
    pub landmarks: Landmarks,
    /// First analysis bin (inclusive).
    pub start_bin: BinId,
    /// Last analysis bin (exclusive).
    pub end_bin: BinId,
}

impl MultiStreamCase {
    /// A fresh fleet router for this case: one analyzer per stream, the
    /// world's named ASes pre-registered everywhere, threads taken from
    /// the configuration.
    pub fn router(&self) -> StreamRouter {
        let mut router = StreamRouter::with_magnitude_window(self.cfg.magnitude_window_bins);
        for spec in &self.streams {
            router.add_stream(
                spec.label,
                Analyzer::new(self.cfg.clone(), self.mapper.clone()),
            );
        }
        router.set_threads(self.cfg.threads);
        router.register_ases(self.landmarks.named_asns());
        router
    }

    /// Collect one bin, partitioned into per-stream feeds (fleet order).
    pub fn collect_bin(&self, bin: BinId) -> Vec<Vec<TracerouteRecord>> {
        self.streams
            .iter()
            .map(|spec| {
                self.platform
                    .collect_bin_where(bin, |m| spec.msm_ids.contains(&m.id))
            })
            .collect()
    }
}

/// Build the three-stream AMS-IX outage case.
pub fn case_study(seed: u64, scale: Scale) -> MultiStreamCase {
    let world = World::build(seed, scale);
    let mapper = world.mapper();
    let landmarks = world.landmarks.clone();
    let schedule = ixp::schedule(landmarks.amsix_asn);
    let net = Network::new(world.topology, seed, &schedule);
    let probes = deploy_probes(net.topology(), scale.probes(), seed);
    let mut platform = Platform::new(net, probes);

    // The anchoring campaign: every 2nd probe towards every anchor.
    platform.add_anchoring(&landmarks.anchors, 2);
    // One user-defined measurement: every 5th probe towards K-root.
    let user_probes: Vec<_> = platform
        .probes()
        .probes
        .iter()
        .step_by(5)
        .map(|p| p.id)
        .collect();
    platform.add_measurement(Measurement::new(
        MeasurementId(9000),
        MeasurementKind::UserDefined,
        landmarks.kroot_addr,
        user_probes,
    ));

    // Partition: anchoring splits into two meshes by id parity, the
    // user-defined measurement is its own stream.
    let (mesh_a, mesh_b): (BTreeSet<_>, BTreeSet<_>) = platform
        .measurements()
        .iter()
        .filter(|m| m.kind == MeasurementKind::Anchoring)
        .map(|m| m.id)
        .partition(|id| id.0 % 2 == 0);
    let streams = vec![
        StreamSpec {
            label: "anchor-mesh-a",
            msm_ids: mesh_a,
        },
        StreamSpec {
            label: "anchor-mesh-b",
            msm_ids: mesh_b,
        },
        StreamSpec {
            label: "user-defined",
            msm_ids: BTreeSet::from([MeasurementId(9000)]),
        },
    ];

    let bins = ixp::window(scale);
    MultiStreamCase {
        platform,
        streams,
        mapper,
        cfg: DetectorConfig::default(),
        landmarks,
        start_bin: BinId(bins.0),
        end_bin: BinId(bins.1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_core::aggregate::Element;
    use pinpoint_core::{AnalysisSession, EventTable};

    #[test]
    fn streams_partition_the_measurement_set() {
        let case = case_study(2015, Scale::Small);
        assert_eq!(case.streams.len(), 3);
        let mut seen = BTreeSet::new();
        let mut total = 0usize;
        for spec in &case.streams {
            assert!(!spec.msm_ids.is_empty(), "{} is empty", spec.label);
            total += spec.msm_ids.len();
            seen.extend(spec.msm_ids.iter().copied());
        }
        assert_eq!(seen.len(), total, "streams overlap");
        assert_eq!(
            seen.len(),
            case.platform.measurements().len(),
            "streams must cover every measurement"
        );
        // And the partitioned bin loses no records.
        let feeds = case.collect_bin(BinId(1));
        let merged: usize = feeds.iter().map(Vec::len).sum();
        assert_eq!(merged, case.platform.collect_bin(BinId(1)).len());
        assert!(feeds.iter().all(|f| !f.is_empty()));
    }

    #[test]
    fn only_the_merged_view_crosses_the_threshold() {
        // The scenario's reason to exist: each stream sees a slice of the
        // outage, only the fleet view crosses the alarm threshold cleanly.
        let mut case = case_study(2015, Scale::Small);
        case.cfg = DetectorConfig::fast_test();
        let amsix = case.landmarks.amsix_asn;
        let mut router = case.router();
        let (outage_start, outage_end) = ixp::outage_bins();

        let mut merged_min = f64::INFINITY;
        let mut stream_min = vec![f64::INFINITY; case.streams.len()];
        let mut session = router.session(0);
        for bin in outage_start - 4..outage_end + 2 {
            let feeds = case.collect_bin(BinId(bin));
            let report = session
                .push_bin(BinId(bin), &feeds)
                .expect("every push reports its own bin");
            if bin < outage_start {
                continue;
            }
            if let Some(m) = report.magnitude(amsix) {
                merged_min = merged_min.min(m.forwarding_magnitude);
            }
            for (i, sr) in report.streams.iter().enumerate() {
                if let Some(m) = sr.magnitude(amsix) {
                    stream_min[i] = stream_min[i].min(m.forwarding_magnitude);
                }
            }
        }

        const THRESHOLD: f64 = -4.0;
        assert!(
            merged_min < THRESHOLD,
            "merged view must cross {THRESHOLD}: {merged_min}"
        );
        for (i, &m) in stream_min.iter().enumerate() {
            assert!(
                merged_min < m,
                "merged ({merged_min}) must dip below stream {} ({m})",
                case.streams[i].label
            );
            assert!(
                m > THRESHOLD,
                "stream {} alone must NOT cross the threshold: {m}",
                case.streams[i].label
            );
        }
    }

    #[test]
    fn outage_becomes_one_fleet_event_blaming_the_ixp() {
        // The tentpole acceptance: the three partial views of the AMS-IX
        // outage collapse into exactly ONE fleet event, blamed on the
        // IXP's AS, emitted incrementally while the outage is live.
        let mut case = case_study(2015, Scale::Small);
        case.cfg = DetectorConfig::fast_test();
        let amsix = case.landmarks.amsix_asn;
        let mut router = case.router();
        let (outage_start, outage_end) = ixp::outage_bins();

        let mut table = EventTable::new();
        let mut first_emission = None;
        let mut session = router.session(0);
        for bin in outage_start - 4..outage_end + 2 {
            let feeds = case.collect_bin(BinId(bin));
            let report = session
                .push_bin(BinId(bin), &feeds)
                .expect("every push reports its own bin");
            if !report.events.is_empty() && first_emission.is_none() {
                first_emission = Some(bin);
            }
            table.absorb(&report.events);
        }

        let events = table.ranked();
        assert_eq!(
            events.len(),
            1,
            "the outage must collapse into exactly one fleet event: {events:#?}"
        );
        let event = &events[0];
        assert_eq!(
            event.blamed,
            Element::As(amsix),
            "the IXP must be the blamed element: {event}"
        );
        assert!(event.asns.contains(&amsix));
        assert!(
            event.streams.len() >= 2,
            "the event must be corroborated across streams: {:?}",
            event.streams
        );
        let first = first_emission.expect("the event must be emitted incrementally");
        assert!(
            (outage_start..=outage_end).contains(&first),
            "first emission at bin {first}, outage is {outage_start}..={outage_end}"
        );
        // The session's cumulative `events()` is the same ranked table.
        assert_eq!(session.events(), events);
    }
}
