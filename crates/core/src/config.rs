//! Detector parameters, with the paper's defaults.

use crate::snapshot::{Reader, SnapshotError, Writer};

/// All tunable parameters of the detection pipeline.
///
/// Defaults reproduce the paper's configuration (each field names the
/// value it takes from §4–§6). Everything is plain data so experiments
/// can sweep any knob.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Analysis bin length in seconds (paper: 1 hour).
    pub bin_secs: u64,
    /// Normal critical value for the Wilson score (paper: 1.96 → 95 %).
    pub wilson_z: f64,
    /// Minimum number of distinct probe ASes per link (paper: 3).
    pub min_as_diversity: usize,
    /// Normalized-entropy threshold for probe-per-AS balance (paper: 0.5).
    pub entropy_threshold: f64,
    /// Minimum gap between observed and reference median to report (paper:
    /// 1 ms — "although statistically meaningful, these small anomalies are
    /// less relevant").
    pub min_median_gap_ms: f64,
    /// Exponential smoothing factor for references (paper: "a small α";
    /// 0.01 matches the published implementation's order of magnitude).
    pub alpha: f64,
    /// Number of warm-up bins before a link's reference is trusted
    /// (paper: m̄₀ = median of the first three medians).
    pub warmup_bins: usize,
    /// Correlation threshold τ for forwarding anomalies (paper: −0.25).
    pub forwarding_tau: f64,
    /// Minimum packets per (router, destination) pattern before it is
    /// compared (guards against correlating two packets).
    pub min_pattern_packets: f64,
    /// Bins a forwarding reference may go unseen before it is evicted —
    /// (router, destination) pairs churn constantly in real traceroute
    /// feeds (targets retire, paths move), and without eviction the
    /// reference maps grow without bound. One week of hourly bins by
    /// default, matching the magnitude window.
    pub reference_expiry_bins: usize,
    /// Sliding window length for the magnitude metric, in bins (paper: one
    /// week of hourly bins).
    pub magnitude_window_bins: usize,
    /// Seed for the (rare) random choices, e.g. entropy rebalancing.
    pub seed: u64,
    /// Worker threads for the per-bin link engine: `0` means "use all
    /// available cores". Results are byte-identical for any value — the
    /// engine's randomness is derived per (seed, link, bin) and its output
    /// totally ordered — so this is purely a throughput knob.
    pub threads: usize,
    /// Run the record sanitizer in front of ingestion (default `true`).
    /// Disabling it feeds raw records — including structurally broken
    /// ones — straight to the detectors; useful only for measuring the
    /// sanitizer's own effect.
    pub sanitize: bool,
    /// Largest RTT the sanitizer accepts as physically possible, in
    /// milliseconds. Anything above (or non-finite, or negative)
    /// quarantines the record. 10 s is far beyond any real path RTT yet
    /// below the garbage values broken firmware emits.
    pub sanitize_max_rtt_ms: f64,
    /// Largest *decrease* in adjacent min-RTTs the sanitizer tolerates,
    /// in milliseconds. Mild inversions are legitimate — return paths
    /// differ per hop (the paper's Challenge 1), ICMP generation on the
    /// near router can be slow, and a noise spike on the near hop's min
    /// shifts the difference — so this is a gross-error bound, not a
    /// monotonicity requirement. 100 ms sits above anything those benign
    /// causes produce while catching wrong-hop reply attribution that
    /// swaps RTTs across a long-haul link.
    pub sanitize_max_inversion_ms: f64,
    /// Most hops a record may carry before it is quarantined as
    /// structurally bogus (real traceroutes stop at a TTL of 32–64).
    pub sanitize_max_hops: usize,
    /// Magnitude threshold for event extraction: an AS enters an event
    /// when |delay magnitude| or |forwarding magnitude| crosses this
    /// value (§6's "peaks in either of the two time series"), read by
    /// the empathy extractor (`aggregate::EmpathyExtractor`); 4.0 keeps
    /// the historical reporting default (well past the ±3σ-equivalent
    /// band of the magnitude deviation score).
    pub event_threshold: f64,
    /// Most consecutive quiet bins an open event bridges before it is
    /// closed. `1` (the default) keeps the extractor's historical
    /// one-bin gap bridge: evidence at bin *b* extends an event whose
    /// last evidence was at bin *b − gap − 1* or later.
    pub event_gap_bins: u64,
    /// Minimum number of shared elements (interfaces or ASes) for two
    /// simultaneous alarms to be considered empathic and clustered into
    /// one event. `1` is the plain connected-component relation; higher
    /// values demand stronger overlap before merging.
    pub empathy_min_shared: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            bin_secs: 3600,
            wilson_z: 1.96,
            min_as_diversity: 3,
            entropy_threshold: 0.5,
            min_median_gap_ms: 1.0,
            alpha: 0.01,
            warmup_bins: 3,
            forwarding_tau: -0.25,
            min_pattern_packets: 9.0,
            reference_expiry_bins: 7 * 24,
            magnitude_window_bins: 7 * 24,
            seed: 0xF0_07,
            threads: 0,
            sanitize: true,
            sanitize_max_rtt_ms: 10_000.0,
            sanitize_max_inversion_ms: 100.0,
            sanitize_max_hops: 64,
            event_threshold: 4.0,
            event_gap_bins: 1,
            empathy_min_shared: 1,
        }
    }
}

impl DetectorConfig {
    /// A configuration suited to short unit-test scenarios: faster-moving
    /// references and a short magnitude window.
    pub fn fast_test() -> Self {
        DetectorConfig {
            alpha: 0.1,
            magnitude_window_bins: 24,
            ..Default::default()
        }
    }

    /// Serialize every field in declaration order — with two
    /// exceptions. The throughput knob `threads` is written as `0`
    /// ("auto"): it never affects output bytes, only scheduling, so
    /// normalizing it is what makes snapshots byte-identical across
    /// every thread count (callers who want a pinned count after a
    /// restore set it on the restored config). And the slot before it is
    /// reserved: it held a retired chunk-size knob, is always written as
    /// `0` so the version-2 layout does not move, and must read back as
    /// `0`.
    pub(crate) fn snapshot_into(&self, w: &mut Writer) {
        w.u64(self.bin_secs);
        w.f64(self.wilson_z);
        w.usize(self.min_as_diversity);
        w.f64(self.entropy_threshold);
        w.f64(self.min_median_gap_ms);
        w.f64(self.alpha);
        w.usize(self.warmup_bins);
        w.f64(self.forwarding_tau);
        w.f64(self.min_pattern_packets);
        w.usize(self.reference_expiry_bins);
        w.usize(self.magnitude_window_bins);
        w.u64(self.seed);
        w.usize(0); // reserved: the retired `ingest_chunk_records` slot
        w.usize(0); // threads: throughput knob, normalized
        w.bool(self.sanitize);
        w.f64(self.sanitize_max_rtt_ms);
        w.f64(self.sanitize_max_inversion_ms);
        w.usize(self.sanitize_max_hops);
        w.f64(self.event_threshold);
        w.u64(self.event_gap_bins);
        w.usize(self.empathy_min_shared);
    }

    /// Rebuild a config from [`DetectorConfig::snapshot_into`] bytes; a
    /// non-zero reserved slot is corruption — no writer ever put one
    /// there.
    pub(crate) fn restore_from(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(DetectorConfig {
            bin_secs: r.u64()?,
            wilson_z: r.f64()?,
            min_as_diversity: r.usize()?,
            entropy_threshold: r.f64()?,
            min_median_gap_ms: r.f64()?,
            alpha: r.f64()?,
            warmup_bins: r.usize()?,
            forwarding_tau: r.f64()?,
            min_pattern_packets: r.f64()?,
            reference_expiry_bins: r.usize()?,
            magnitude_window_bins: r.usize()?,
            seed: r.u64()?,
            threads: {
                // The reserved slot precedes `threads`.
                if r.usize()? != 0 {
                    return Err(SnapshotError::Corrupt("reserved config slot"));
                }
                r.usize()?
            },
            sanitize: r.bool()?,
            sanitize_max_rtt_ms: r.f64()?,
            sanitize_max_inversion_ms: r.f64()?,
            sanitize_max_hops: r.usize()?,
            event_threshold: r.f64()?,
            event_gap_bins: r.u64()?,
            empathy_min_shared: r.usize()?,
        })
    }

    /// Reject degenerate knob values with an actionable message.
    ///
    /// Every error names the offending knob, the value it carried, and
    /// the accepted range, so a sweep harness that fat-fingers one
    /// parameter fails loudly at construction instead of silently
    /// producing garbage (a `reference_expiry_bins` of 0 would evict
    /// every reference every bin; a NaN threshold never fires). The
    /// throughput knob `threads` accepts 0 — its documented "auto"
    /// value. Called by `Analyzer::new`.
    pub fn validate(&self) -> Result<(), String> {
        fn finite_in(name: &str, v: f64, lo: f64, hi: f64) -> Result<(), String> {
            if !v.is_finite() || v < lo || v > hi {
                return Err(format!(
                    "DetectorConfig::{name} is {v}, expected a finite value in [{lo}, {hi}]"
                ));
            }
            Ok(())
        }
        fn at_least(name: &str, v: usize, lo: usize, why: &str) -> Result<(), String> {
            if v < lo {
                return Err(format!(
                    "DetectorConfig::{name} is {v}, expected >= {lo}: {why}"
                ));
            }
            Ok(())
        }
        at_least(
            "bin_secs",
            self.bin_secs as usize,
            1,
            "a bin must span time",
        )?;
        finite_in("wilson_z", self.wilson_z, f64::MIN_POSITIVE, 100.0)?;
        at_least(
            "min_as_diversity",
            self.min_as_diversity,
            1,
            "at least one probe AS must witness a link",
        )?;
        finite_in("entropy_threshold", self.entropy_threshold, 0.0, 1.0)?;
        finite_in("min_median_gap_ms", self.min_median_gap_ms, 0.0, f64::MAX)?;
        finite_in("alpha", self.alpha, f64::MIN_POSITIVE, 1.0)?;
        at_least(
            "warmup_bins",
            self.warmup_bins,
            1,
            "the first reference needs at least one observed median",
        )?;
        finite_in("forwarding_tau", self.forwarding_tau, -1.0, 1.0)?;
        finite_in(
            "min_pattern_packets",
            self.min_pattern_packets,
            f64::MIN_POSITIVE,
            f64::MAX,
        )?;
        at_least(
            "reference_expiry_bins",
            self.reference_expiry_bins,
            1,
            "0 would evict every reference on every bin",
        )?;
        at_least(
            "magnitude_window_bins",
            self.magnitude_window_bins,
            1,
            "the magnitude metric needs a window",
        )?;
        finite_in(
            "sanitize_max_rtt_ms",
            self.sanitize_max_rtt_ms,
            f64::MIN_POSITIVE,
            f64::MAX,
        )?;
        finite_in(
            "sanitize_max_inversion_ms",
            self.sanitize_max_inversion_ms,
            f64::MIN_POSITIVE,
            f64::MAX,
        )?;
        at_least(
            "sanitize_max_hops",
            self.sanitize_max_hops,
            1,
            "every record with hops would be quarantined",
        )?;
        finite_in(
            "event_threshold",
            self.event_threshold,
            f64::MIN_POSITIVE,
            f64::MAX,
        )?;
        if self.event_gap_bins as usize > self.magnitude_window_bins {
            return Err(format!(
                "DetectorConfig::event_gap_bins is {}, expected <= magnitude_window_bins ({}): \
                 bridging a gap longer than the scoring window would glue unrelated incidents \
                 into one event",
                self.event_gap_bins, self.magnitude_window_bins
            ));
        }
        at_least(
            "empathy_min_shared",
            self.empathy_min_shared,
            1,
            "alarms sharing no element are never empathic",
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DetectorConfig::default();
        assert_eq!(c.bin_secs, 3600);
        assert_eq!(c.wilson_z, 1.96);
        assert_eq!(c.min_as_diversity, 3);
        assert_eq!(c.entropy_threshold, 0.5);
        assert_eq!(c.min_median_gap_ms, 1.0);
        assert_eq!(c.forwarding_tau, -0.25);
        assert_eq!(c.reference_expiry_bins, 168);
        assert_eq!(c.magnitude_window_bins, 168);
        assert_eq!(c.warmup_bins, 3);
        assert_eq!(c.threads, 0, "default engine uses every core");
        assert!(c.sanitize, "sanitizer on by default");
        assert_eq!(c.sanitize_max_hops, 64);
        assert_eq!(c.event_threshold, 4.0);
        assert_eq!(c.event_gap_bins, 1, "historical one-bin gap bridge");
        assert_eq!(c.empathy_min_shared, 1, "plain connected components");
    }

    #[test]
    fn default_and_fast_test_configs_validate() {
        DetectorConfig::default().validate().unwrap();
        DetectorConfig::fast_test().validate().unwrap();
    }

    #[test]
    fn degenerate_knobs_are_rejected_with_the_knob_named() {
        let cases: Vec<(&str, DetectorConfig)> = vec![
            (
                "reference_expiry_bins",
                DetectorConfig {
                    reference_expiry_bins: 0,
                    ..Default::default()
                },
            ),
            (
                "alpha",
                DetectorConfig {
                    alpha: f64::NAN,
                    ..Default::default()
                },
            ),
            (
                "alpha",
                DetectorConfig {
                    alpha: 0.0,
                    ..Default::default()
                },
            ),
            (
                "wilson_z",
                DetectorConfig {
                    wilson_z: -1.96,
                    ..Default::default()
                },
            ),
            (
                "entropy_threshold",
                DetectorConfig {
                    entropy_threshold: 1.5,
                    ..Default::default()
                },
            ),
            (
                "forwarding_tau",
                DetectorConfig {
                    forwarding_tau: f64::INFINITY,
                    ..Default::default()
                },
            ),
            (
                "warmup_bins",
                DetectorConfig {
                    warmup_bins: 0,
                    ..Default::default()
                },
            ),
            (
                "bin_secs",
                DetectorConfig {
                    bin_secs: 0,
                    ..Default::default()
                },
            ),
            (
                "min_pattern_packets",
                DetectorConfig {
                    min_pattern_packets: f64::NAN,
                    ..Default::default()
                },
            ),
            (
                "magnitude_window_bins",
                DetectorConfig {
                    magnitude_window_bins: 0,
                    ..Default::default()
                },
            ),
            (
                "sanitize_max_rtt_ms",
                DetectorConfig {
                    sanitize_max_rtt_ms: 0.0,
                    ..Default::default()
                },
            ),
            (
                "sanitize_max_inversion_ms",
                DetectorConfig {
                    sanitize_max_inversion_ms: f64::NAN,
                    ..Default::default()
                },
            ),
            (
                "sanitize_max_hops",
                DetectorConfig {
                    sanitize_max_hops: 0,
                    ..Default::default()
                },
            ),
            (
                "event_threshold",
                DetectorConfig {
                    event_threshold: f64::NAN,
                    ..Default::default()
                },
            ),
            (
                "event_threshold",
                DetectorConfig {
                    event_threshold: 0.0,
                    ..Default::default()
                },
            ),
            (
                "event_gap_bins",
                DetectorConfig {
                    event_gap_bins: 1000,
                    magnitude_window_bins: 24,
                    ..Default::default()
                },
            ),
            (
                "empathy_min_shared",
                DetectorConfig {
                    empathy_min_shared: 0,
                    ..Default::default()
                },
            ),
        ];
        for (knob, cfg) in cases {
            let err = cfg.validate().expect_err(knob);
            assert!(
                err.contains(knob),
                "error for {knob} must name the knob, got: {err}"
            );
            assert!(
                err.contains("expected"),
                "error for {knob} must state the accepted range, got: {err}"
            );
        }
    }

    #[test]
    fn auto_throughput_knobs_are_accepted() {
        // 0 is the documented "auto" thread count.
        let cfg = DetectorConfig {
            threads: 0,
            ..Default::default()
        };
        cfg.validate().unwrap();
    }
}
