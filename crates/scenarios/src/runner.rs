//! Case-study assembly and execution.
//!
//! A [`CaseStudy`] bundles the platform (simulator + probes + measurement
//! schedules), the §6 IP→AS mapper, the detector configuration, and the
//! analysis window. [`run`] drives the full pipeline bin by bin and
//! collects the per-bin reports.

use crate::world::{Landmarks, Scale, World};
use pinpoint_atlas::{deploy_probes, Platform};
use pinpoint_core::aggregate::AsMapper;
use pinpoint_core::pipeline::{Analyzer, BinReport};
use pinpoint_core::session::drive;
use pinpoint_core::DetectorConfig;
use pinpoint_model::{Asn, BinId};
use pinpoint_netsim::{EventSchedule, Network};

/// A fully assembled scenario.
#[derive(Debug)]
pub struct CaseStudy {
    /// The measurement platform (owns the network engine).
    pub platform: Platform,
    /// Ground-truth IP→AS mapper.
    pub mapper: AsMapper,
    /// Detector configuration to use.
    pub cfg: DetectorConfig,
    /// Landmarks of the shared world.
    pub landmarks: Landmarks,
    /// First analysis bin (inclusive).
    pub start_bin: BinId,
    /// Last analysis bin (exclusive).
    pub end_bin: BinId,
    /// Human-readable label of what bin 0 corresponds to.
    pub epoch_label: &'static str,
}

impl CaseStudy {
    /// Assemble a case study over the shared world.
    ///
    /// `anchor_strides` controls how many probes participate in anchoring
    /// measurements (1 = all probes, n = every n-th probe).
    pub fn assemble(
        seed: u64,
        scale: Scale,
        schedule: EventSchedule,
        cfg: DetectorConfig,
        bins: (u64, u64),
        epoch_label: &'static str,
        anchor_stride: usize,
    ) -> CaseStudy {
        let world = World::build(seed, scale);
        let mapper = world.mapper();
        let landmarks = world.landmarks.clone();
        let net = Network::new(world.topology, seed, &schedule);
        let probes = deploy_probes(net.topology(), scale.probes(), seed);
        let mut platform = Platform::new(net, probes);
        platform.add_builtin_mesh();
        let anchors = landmarks.anchors.clone();
        platform.add_anchoring(&anchors, anchor_stride);
        CaseStudy {
            platform,
            mapper,
            cfg,
            landmarks,
            start_bin: BinId(bins.0),
            end_bin: BinId(bins.1),
            epoch_label,
        }
    }

    /// A fresh analyzer for this case study, with the world's named ASes
    /// pre-registered for magnitude tracking.
    pub fn analyzer(&self) -> Analyzer {
        let mut a = Analyzer::new(self.cfg.clone(), self.mapper.clone());
        a.register_ases(self.landmarks.named_asns());
        a
    }
}

/// Summary counters of a run (Table A inputs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Bins processed.
    pub bins: usize,
    /// Traceroutes consumed.
    pub records: usize,
    /// Total delay alarms.
    pub delay_alarms: usize,
    /// Total forwarding alarms.
    pub forwarding_alarms: usize,
    /// Links tracked at the end.
    pub tracked_links: usize,
    /// Forwarding models tracked at the end.
    pub tracked_patterns: usize,
    /// Mean next hops per forwarding model at the end.
    pub mean_next_hops: f64,
}

/// Run the full pipeline over the case study's window: one
/// [`drive`] of the platform's bin stream through the analyzer's session.
///
/// `observer` is called with each bin's report, strictly in bin order
/// (figure harnesses extract series there); pass `|_|{}` when only the
/// summary matters.
pub fn run(
    case: &CaseStudy,
    analyzer: &mut Analyzer,
    mut observer: impl FnMut(&BinReport),
) -> RunSummary {
    let mut summary = RunSummary::default();
    {
        let mut session = analyzer.session(0);
        drive(
            &mut session,
            case.platform.stream(case.start_bin, case.end_bin),
            |report| {
                summary.bins += 1;
                summary.records += report.records;
                summary.delay_alarms += report.delay_alarms.len();
                summary.forwarding_alarms += report.forwarding_alarms.len();
                observer(&report);
            },
        );
    }
    summary.tracked_links = analyzer.tracked_links();
    summary.tracked_patterns = analyzer.tracked_patterns();
    summary.mean_next_hops = analyzer.mean_next_hops();
    summary
}

/// Convenience: the ASes whose magnitudes the figures plot.
pub fn figure_ases(landmarks: &Landmarks) -> Vec<Asn> {
    vec![
        landmarks.kroot_asn,
        landmarks.amsix_asn,
        landmarks.level3_asn,
        landmarks.gc_asn,
        landmarks.tm_asn,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_and_run_one_bin() {
        let case = CaseStudy::assemble(
            3,
            Scale::Small,
            EventSchedule::new(),
            DetectorConfig::fast_test(),
            (0, 2),
            "test-epoch",
            4,
        );
        let mut analyzer = case.analyzer();
        let mut seen = 0;
        let summary = run(&case, &mut analyzer, |r| {
            assert!(r.records > 0);
            seen += 1;
        });
        assert_eq!(seen, 2);
        assert_eq!(summary.bins, 2);
        assert!(summary.records > 100, "records {}", summary.records);
        assert!(
            summary.tracked_links > 10,
            "links {}",
            summary.tracked_links
        );
        assert!(summary.tracked_patterns > 10);
    }

    #[test]
    fn builtin_mesh_targets_all_services() {
        let case = CaseStudy::assemble(
            3,
            Scale::Small,
            EventSchedule::new(),
            DetectorConfig::fast_test(),
            (0, 1),
            "test-epoch",
            4,
        );
        // 4 services + anchors.
        let n_builtin = case
            .platform
            .measurements()
            .iter()
            .filter(|m| m.kind == pinpoint_atlas::MeasurementKind::Builtin)
            .count();
        assert_eq!(n_builtin, 4);
        let n_anchoring = case
            .platform
            .measurements()
            .iter()
            .filter(|m| m.kind == pinpoint_atlas::MeasurementKind::Anchoring)
            .count();
        assert_eq!(n_anchoring, case.landmarks.anchors.len());
    }
}
