//! Ablations: quantify the design choices the paper argues for.
//!
//! 1. **median vs mean CLT** — replace the median+Wilson estimator with the
//!    classical mean ± z·σ/√n: false alarms on a quiet link explode
//!    (Fig. 3's rationale).
//! 2. **probe-diversity filter on/off** — without the ≥3-AS rule the
//!    detector monitors more links, but the extras are single-AS views
//!    whose "delay changes" are indistinguishable from return-path noise.
//! 3. **α sweep** — large smoothing factors poison the reference during
//!    events and cause post-event echo alarms.
//! 4. **τ sweep** — looser (higher) correlation thresholds multiply
//!    forwarding alarms; the paper's −0.25 sits at the distribution knee.
//!
//! Each study reads a `Small` pass of its scenario. The mean detector
//! scores the links the default analyzer characterized; the diversity, α
//! and τ variants run their own analyzers on the pass's records.

use super::{Claim, Cx};
use crate::oracle::link_samples;
use pinpoint_core::pipeline::Analyzer;
use pinpoint_core::{BinReport, DetectorConfig};
use pinpoint_model::IpLink;
use pinpoint_scenarios::{ixp, leak};
use pinpoint_stats::descriptive::Summary;
use pinpoint_stats::smoothing::Ewma;
use std::collections::{BTreeSet, HashMap};

/// The classical-CLT delay detector the paper argues against (Fig. 3b):
/// a smoothed reference of each link's arithmetic mean, and an alarm when
/// the bin's mean misses it by more than z·σ/√n and by at least
/// `min_median_gap_ms`.
struct MeanDetector {
    cfg: DetectorConfig,
    references: HashMap<IpLink, Ewma>,
}

impl MeanDetector {
    fn new(cfg: &DetectorConfig) -> Self {
        MeanDetector {
            cfg: cfg.clone(),
            references: HashMap::new(),
        }
    }

    /// Score one link's samples for one bin; `true` when it alarms.
    fn alarms(&mut self, link: IpLink, samples: &[f64]) -> bool {
        if samples.is_empty() {
            return false;
        }
        let s = Summary::from_slice(samples);
        let mean = s.mean();
        let half_width = self.cfg.wilson_z * s.std_dev() / (s.count() as f64).sqrt();
        let reference = self
            .references
            .entry(link)
            .or_insert_with(|| Ewma::with_initial(self.cfg.alpha, mean));
        let gap = (mean - reference.value().unwrap_or(mean)).abs();
        reference.update(mean);
        gap > half_width && gap >= self.cfg.min_median_gap_ms
    }
}

/// The four studies, in order, on the steady, leak and IXP passes.
pub(super) fn ablations(cx: &mut Cx) -> Claim {
    cx.header(
        "Ablations — the cost of each design choice",
        "median beats mean; diversity filter removes ambiguous links; small α avoids echo; τ at the knee",
    );

    // 1. Event-free fortnight: every alarm on ANY link is a false alarm.
    // The mean baseline scores the same per-link samples behind the same
    // diversity gate: only links the paper detector characterized.
    // 2. Monitored links with and without the diversity filter over the
    // first three bins.
    let (steady, _) = cx.pass();
    let mut mean_det = MeanDetector::new(&DetectorConfig::default());
    let (mut median, mut mean) = (0usize, 0usize);
    let mut diversity = [(3, 0.5), (1, 0.0)].map(|(min_as_diversity, entropy_threshold)| {
        let cfg = DetectorConfig {
            min_as_diversity,
            entropy_threshold,
            ..DetectorConfig::default()
        };
        (Analyzer::new(cfg, steady.mapper.clone()), BTreeSet::new())
    });
    cx.each(|records, report| {
        median += report.delay_alarms.len();
        for (link, probes) in link_samples(records) {
            if !report.link_stats.contains_key(&link) {
                continue;
            }
            let samples: Vec<f64> = probes
                .values()
                .flat_map(|(_, s)| s.iter().copied())
                .collect();
            if mean_det.alarms(link, &samples) {
                mean += 1;
            }
        }
        if report.bin.0 < 3 {
            for (analyzer, links) in &mut diversity {
                let report = analyzer.process_bin(report.bin, records);
                links.extend(report.link_stats.keys().copied());
            }
        }
    });
    say!(
        cx,
        "1. quiet-fortnight alarms on the Fig. 2 link: median+Wilson {median}, mean±σ {mean}{}",
        if mean > median {
            "  → the mean misfires"
        } else {
            ""
        }
    );
    let (with, without) = (diversity[0].1.len(), diversity[1].1.len());
    say!(
        cx,
        "2. monitored links: {with} with the ≥3-AS+entropy filter, {without} without (+{} ambiguous single-view links admitted)",
        without.saturating_sub(with)
    );

    // 3. (α, alarms inside the leak window, echo alarms in the twelve
    // bins after it).
    let (ls, le) = leak::leak_window();
    let (first, last) = (ls.0 / 3600, le.0 / 3600);
    let alpha = |alpha| DetectorConfig {
        alpha,
        ..DetectorConfig::default()
    };
    let rows = sweep(cx, last + 13, [0.01, 0.1, 0.5], alpha, |r| match r.bin.0 {
        b if (first..=last).contains(&b) => (r.delay_alarms.len(), 0),
        b if b > last => (0, r.delay_alarms.len()),
        _ => (0, 0),
    });
    say!(
        cx,
        "3. α sweep on the leak (alarms in-window / echo after):"
    );
    for (a, inside, after) in rows {
        say!(cx, "     α={a:<5} in={inside:<4} echo={after}");
    }

    // 4. (τ, alarms inside the outage window, alarms outside = false
    // alarms) over the IXP week.
    let (os, oe) = ixp::outage_window();
    let outage = os.0 / 3600..=oe.0 / 3600;
    let tau = |forwarding_tau| DetectorConfig {
        forwarding_tau,
        ..DetectorConfig::default()
    };
    let rows = sweep(cx, 7 * 24, [-0.05, -0.25, -0.6], tau, |r| {
        if outage.contains(&r.bin.0) {
            (r.forwarding_alarms.len(), 0)
        } else {
            (0, r.forwarding_alarms.len())
        }
    });
    say!(
        cx,
        "4. τ sweep on the IXP week (alarms in-outage / false alarms):"
    );
    for (t, inside, outside) in rows {
        say!(cx, "     τ={t:<6} in={inside:<4} false={outside}");
    }

    cx.verdict(
        mean > median,
        "ablation directions match the paper's design rationale",
    )
}

/// One analyzer per setting over the first `bins` bins of the claim's
/// next pass, each counting what `tally` reads off its reports as
/// (inside, outside) the event.
fn sweep(
    cx: &Cx,
    bins: u64,
    settings: [f64; 3],
    cfg: impl Fn(f64) -> DetectorConfig,
    tally: impl Fn(&BinReport) -> (usize, usize),
) -> Vec<(f64, usize, usize)> {
    let (case, _) = cx.pass();
    let mut runs = settings.map(|v| (v, Analyzer::new(cfg(v), case.mapper.clone()), 0, 0));
    cx.each(|records, report| {
        if report.bin.0 < bins {
            for (_, analyzer, inside, outside) in &mut runs {
                let (i, o) = tally(&analyzer.process_bin(report.bin, records));
                *inside += i;
                *outside += o;
            }
        }
    });
    runs.into_iter().map(|(v, _, i, o)| (v, i, o)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_stats::distributions::{Normal, Pareto};
    use pinpoint_stats::rng::SplitMix64;

    fn link() -> IpLink {
        IpLink::new("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
    }

    #[test]
    fn mean_detector_catches_clean_shift() {
        let mut d = MeanDetector::new(&DetectorConfig::fast_test());
        let mut rng = SplitMix64::new(1);
        let quiet = Normal::new(5.0, 0.5);
        for _ in 0..20 {
            let samples: Vec<f64> = (0..100).map(|_| quiet.sample(&mut rng)).collect();
            assert!(!d.alarms(link(), &samples));
        }
        let shifted = Normal::new(25.0, 0.5);
        let samples: Vec<f64> = (0..100).map(|_| shifted.sample(&mut rng)).collect();
        assert!(d.alarms(link(), &samples));
    }

    #[test]
    fn mean_detector_false_alarms_on_outliers_where_median_holds() {
        // The ablation claim: Pareto outliers in a stable series make the
        // mean detector fire where the paper's median detector does not.
        let mut d = MeanDetector::new(&DetectorConfig::fast_test());
        let mut rng = SplitMix64::new(7);
        let body = Normal::new(5.0, 0.3);
        let tail = Pareto::new(200.0, 1.1);
        let mut false_alarms = 0;
        for _ in 0..200 {
            let samples: Vec<f64> = (0..60)
                .map(|_| {
                    let mut v = body.sample(&mut rng);
                    if rng.next_bool(0.03) {
                        v += tail.sample(&mut rng);
                    }
                    v
                })
                .collect();
            if d.alarms(link(), &samples) {
                false_alarms += 1;
            }
        }
        assert!(
            false_alarms > 5,
            "expected the mean detector to misfire, got {false_alarms}"
        );
    }
}
