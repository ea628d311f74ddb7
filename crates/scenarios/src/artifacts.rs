//! Graded measurement-artifact robustness: the AMS-IX outage replayed
//! under increasing feed corruption.
//!
//! The paper's deployment consumes raw RIPE Atlas data, which is riddled
//! with measurement artifacts — false links and loops from per-flow load
//! balancing, wrong-hop ICMP reply attribution, duplicated hops, probe
//! clock skew. The detectors' robust statistics and the core sanitizer
//! are supposed to absorb this; this module turns "supposed to" into a
//! measured, gated property.
//!
//! The same ground-truth event — an IXP fabric outage blackholing the
//! AMS-IX peering LAN, the [`crate::ixp`] case study moved to hour 30 so
//! three full replays stay unit-test cheap — runs under each
//! [`NoiseGrade`]: a clean feed, a mildly dirty one (~10% of records
//! touched), and a hostile one (roughly half of all records corrupted).
//! [`evaluate`] scores each run against the known truth bins:
//!
//! * **recall** — the fraction of outage bins detected: the AMS-IX
//!   forwarding magnitude crosses [`MAGNITUDE_THRESHOLD`], or at least
//!   [`PAIRS_THRESHOLD`] distinct (router, LAN next-hop) pairs turn
//!   unresponsive (the paper's own §7.3 framing — "770 IP pairs related
//!   to the AMS-IX peering LAN became unresponsive");
//! * **false-alarm rate** — the fraction of settled non-outage bins
//!   where the same criterion fires for any watched AS.
//!
//! CI runs [`NoiseGrade::recall_gate`] / [`NoiseGrade::false_alarm_gate`]
//! as a robustness gate: a change that makes the pipeline brittle under
//! noise fails the build exactly like a parity or throughput regression.

use crate::runner::{self, CaseStudy, RunSummary};
use crate::world::{Scale, World};
use pinpoint_core::aggregate::AsMapper;
use pinpoint_core::{DetectorConfig, NextHop, SanitizeStats};
use pinpoint_model::{Asn, SimTime};
use pinpoint_netsim::{ArtifactModel, EventSchedule, NetworkEvent};

/// Forwarding-magnitude detection threshold, as in the §7.3 case study.
pub const MAGNITUDE_THRESHOLD: f64 = -2.0;

/// Distinct unresponsive (router, LAN next-hop) pairs that count as a
/// detection on their own — structural noise dilutes per-pattern
/// responsibilities (and with them the summed magnitude) long before it
/// erases the pairs themselves, so dirty grades are scored the way §7.3
/// reports the event: by how much of the peering LAN went dark.
pub const PAIRS_THRESHOLD: usize = 3;

/// Bins before which magnitudes are still settling and are not scored
/// for false alarms (references warm up, magnitude windows fill).
pub const SETTLE_BINS: u64 = 12;

/// How much measurement-artifact noise the feed carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseGrade {
    /// The pristine simulator feed.
    Clean,
    /// A few percent of records corrupted — a healthy Atlas day.
    Mild,
    /// Heavy corruption on every artifact axis — a broken vantage fleet.
    Hostile,
}

impl NoiseGrade {
    /// All grades, mildest first.
    pub const ALL: [NoiseGrade; 3] = [NoiseGrade::Clean, NoiseGrade::Mild, NoiseGrade::Hostile];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            NoiseGrade::Clean => "clean",
            NoiseGrade::Mild => "mild",
            NoiseGrade::Hostile => "hostile",
        }
    }

    /// The artifact model injecting this grade's corruption (`None` for
    /// a clean feed).
    pub fn artifact_model(self, seed: u64) -> Option<ArtifactModel> {
        match self {
            NoiseGrade::Clean => None,
            NoiseGrade::Mild => Some(ArtifactModel::mild(seed)),
            NoiseGrade::Hostile => Some(ArtifactModel::hostile(seed)),
        }
    }

    /// Minimum acceptable outage-bin recall at this grade. The truth
    /// window is two bins — the first covers only the outage's last 40
    /// minutes — so the gates quantize to halves: a clean feed must
    /// catch both outage bins; a dirty feed must still catch the
    /// fully-covered bin but may lose the partial one to dilution.
    pub fn recall_gate(self) -> f64 {
        match self {
            NoiseGrade::Clean => 0.99,
            NoiseGrade::Mild | NoiseGrade::Hostile => 0.49,
        }
    }

    /// Maximum acceptable false-alarm rate at this grade.
    pub fn false_alarm_gate(self) -> f64 {
        match self {
            NoiseGrade::Clean => 0.01,
            NoiseGrade::Mild => 0.10,
            NoiseGrade::Hostile => 0.25,
        }
    }
}

/// Outage window: hour 30:20–32:00 of the scenario — the same fault as
/// [`crate::ixp::outage_window`], moved early so a three-grade sweep
/// replays ~34 bins per grade instead of ~134.
pub fn outage_window() -> (SimTime, SimTime) {
    (SimTime(30 * 3600 + 20 * 60), SimTime(32 * 3600))
}

/// Truth bins of the outage, inclusive.
pub fn outage_bins() -> (u64, u64) {
    let (start, end) = outage_window();
    (start.0 / 3600, (end.0 - 1) / 3600)
}

/// Analysis window in bins: warm-up, the outage, and a recovery tail.
pub fn window() -> (u64, u64) {
    (0, 36)
}

/// Build the case study at one noise grade: the shared world, the early
/// IXP outage, and the grade's artifact model injected at the platform.
pub fn case_study(seed: u64, grade: NoiseGrade) -> CaseStudy {
    let world = World::build(seed, Scale::Small);
    let (start, end) = outage_window();
    let schedule = EventSchedule::new().with(NetworkEvent::IxpOutage {
        ixp: world.landmarks.amsix_asn,
        start,
        end,
    });
    let mut case = CaseStudy::assemble(
        seed,
        Scale::Small,
        schedule,
        DetectorConfig::fast_test(),
        window(),
        "artifact-noise epoch",
        2,
    );
    case.platform.set_artifact_model(grade.artifact_model(seed));
    case
}

/// What one graded replay measured.
#[derive(Debug, Clone)]
pub struct RobustnessOutcome {
    /// The grade evaluated.
    pub grade: NoiseGrade,
    /// Fraction of outage bins where the AMS-IX forwarding magnitude
    /// crossed [`MAGNITUDE_THRESHOLD`].
    pub recall: f64,
    /// Fraction of settled non-outage bins where any watched AS
    /// magnitude crossed the threshold (either direction, either
    /// detector).
    pub false_alarm_rate: f64,
    /// Sanitizer counters over the whole run.
    pub sanitize: SanitizeStats,
    /// The run's summary counters.
    pub summary: RunSummary,
}

impl RobustnessOutcome {
    /// Whether this outcome clears its grade's CI gates.
    pub fn passes(&self) -> bool {
        self.recall >= self.grade.recall_gate()
            && self.false_alarm_rate <= self.grade.false_alarm_gate()
    }
}

/// Count the distinct (router, next-hop) pairs inside `asn` that a bin's
/// forwarding alarms mark as losing traffic (responsibility < −0.05) —
/// the §7.3 "IP pairs related to the peering LAN became unresponsive"
/// measure.
pub fn lan_pairs(report: &pinpoint_core::BinReport, mapper: &AsMapper, asn: Asn) -> usize {
    let mut pairs = std::collections::BTreeSet::new();
    for alarm in &report.forwarding_alarms {
        for (hop, r) in &alarm.responsibilities {
            if let NextHop::Ip(ip) = hop {
                if *r < -0.05 && mapper.asn_of(*ip) == Some(asn) {
                    pairs.insert((alarm.router, *ip));
                }
            }
        }
    }
    pairs.len()
}

/// Replay the outage at one grade (through the session executor — the
/// deployment shape) and score it against the ground truth.
pub fn evaluate(seed: u64, grade: NoiseGrade) -> RobustnessOutcome {
    let case = case_study(seed, grade);
    let mut analyzer = case.analyzer();
    let amsix = case.landmarks.amsix_asn;
    let mapper = case.mapper.clone();
    let watched = runner::figure_ases(&case.landmarks);
    let (first, last) = outage_bins();
    let mut truth_bins = 0u64;
    let mut hits = 0u64;
    let mut eligible = 0u64;
    let mut false_alarms = 0u64;
    let summary = runner::run(&case, &mut analyzer, |report| {
        let b = report.bin.0;
        let detected = |asn: Asn| {
            report
                .magnitude(asn)
                .is_some_and(|m| m.forwarding_magnitude < MAGNITUDE_THRESHOLD)
                || lan_pairs(report, &mapper, asn) >= PAIRS_THRESHOLD
        };
        if (first..=last).contains(&b) {
            truth_bins += 1;
            if detected(amsix) {
                hits += 1;
            }
        } else if b >= SETTLE_BINS && (b < first || b > last + 2) {
            // Outside the outage and its two-bin recovery tail.
            eligible += 1;
            let alarmed = watched.iter().any(|asn| {
                detected(*asn)
                    || report
                        .magnitude(*asn)
                        .is_some_and(|m| m.delay_magnitude.abs() > MAGNITUDE_THRESHOLD.abs())
            });
            if alarmed {
                false_alarms += 1;
            }
        }
    });
    RobustnessOutcome {
        grade,
        recall: hits as f64 / truth_bins.max(1) as f64,
        false_alarm_rate: false_alarms as f64 / eligible.max(1) as f64,
        sanitize: analyzer.sanitize_stats(),
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robustness_gates_hold_at_every_grade() {
        let mut quarantined = Vec::new();
        for grade in NoiseGrade::ALL {
            let outcome = evaluate(2015, grade);
            println!(
                "{}: recall {:.2} (gate {:.2}), false alarms {:.3} (gate {:.2}), \
                 quarantined {} / {} records, repaired {}",
                grade.label(),
                outcome.recall,
                grade.recall_gate(),
                outcome.false_alarm_rate,
                grade.false_alarm_gate(),
                outcome.sanitize.quarantined(),
                outcome.sanitize.records,
                outcome.sanitize.repaired,
            );
            assert!(
                outcome.recall >= grade.recall_gate(),
                "{}: recall {} under gate {}",
                grade.label(),
                outcome.recall,
                grade.recall_gate()
            );
            assert!(
                outcome.false_alarm_rate <= grade.false_alarm_gate(),
                "{}: false-alarm rate {} over gate {}",
                grade.label(),
                outcome.false_alarm_rate,
                grade.false_alarm_gate()
            );
            assert!(outcome.passes());
            quarantined.push((outcome.sanitize.quarantined(), outcome.sanitize.repaired));
        }
        // The sanitizer's view must track the injected noise: a clean
        // feed touches nothing, dirty feeds both repair (duplicated
        // hops) and quarantine (painted loops), and the hostile grade
        // does more of both than the mild one.
        assert_eq!(quarantined[0], (0, 0), "clean feed must pass untouched");
        assert!(
            quarantined[1].0 > 0 && quarantined[1].1 > 0,
            "mild grade must both quarantine and repair, got {:?}",
            quarantined[1]
        );
        assert!(
            quarantined[2].0 > quarantined[1].0 && quarantined[2].1 > quarantined[1].1,
            "hostile {:?} must out-sanitize mild {:?}",
            quarantined[2],
            quarantined[1]
        );
    }

    #[test]
    fn outage_bins_bracket_the_window() {
        let (first, last) = outage_bins();
        assert_eq!((first, last), (30, 31));
        let (_, end) = window();
        assert!(last + 2 < end);
    }
}
