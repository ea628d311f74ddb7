//! Step 3: robust characterization (§4.2.2).
//!
//! The bin's differential RTTs are summarized by their median and the
//! Wilson-score 95 % confidence interval on the median — the median-CLT
//! variant that stays normally distributed where the arithmetic mean is
//! destroyed by outliers (Fig. 3).

use crate::config::DetectorConfig;
use pinpoint_model::FxHashMap;
use pinpoint_stats::wilson::{median_ci_select_ranks, wilson_rank_bounds, ConfidenceInterval};

/// Robust summary of one link in one bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkStat {
    /// Median and Wilson CI of the differential RTTs.
    pub ci: ConfidenceInterval,
}

impl LinkStat {
    /// Median differential RTT.
    pub fn median(&self) -> f64 {
        self.ci.median
    }
}

/// Memo of the Wilson CI rank bounds per distinct sample count.
///
/// [`wilson_rank_bounds`] depends only on `(n, z)`, and a bin's links
/// cluster around a handful of sample counts (probes × replies), so the
/// engine's batched shard pass computes each count's ranks once and
/// replays them from this table — the transcendental work (sqrt inside
/// the Wilson score) drops out of the per-link loop. `z` is a config
/// constant in practice; the cache resets if it ever changes. Keyed by
/// the counts actually met, not indexed by count: every shard keeps its
/// own memo across bins, and a dense table would hold a slot for every
/// count up to the shard's largest link in each of them.
#[derive(Debug, Default)]
pub struct RankCache {
    z: f64,
    by_n: FxHashMap<usize, (u32, u32)>,
}

impl RankCache {
    /// `(li, ui)` for `n` samples at critical value `z` — identical to
    /// `wilson_rank_bounds(n, z)`, computed once per distinct `n`.
    fn ranks(&mut self, n: usize, z: f64) -> (usize, usize) {
        if self.z != z {
            self.z = z;
            self.by_n.clear();
        }
        let (li, ui) = *self.by_n.entry(n).or_insert_with(|| {
            let (li, ui) = wilson_rank_bounds(n, z);
            (li as u32, ui as u32)
        });
        (li as usize, ui as usize)
    }
}

/// Characterize `buf` itself: non-finite values are dropped in place,
/// then `buf` is permuted by order-statistic selection — O(n), no full
/// sort. The engine hands in a kept link's samples, gathered once from
/// the chunk pools into its shard's `surviving` buffer, so they are
/// characterized with no further copy. Bit-identical to
/// `median_ci_sorted` of a `f64::total_cmp`-sorted copy, the oracle's
/// path. `None` when no sample is finite.
pub fn characterize_in_place_cached(
    buf: &mut Vec<f64>,
    cfg: &DetectorConfig,
    cache: &mut RankCache,
) -> Option<LinkStat> {
    buf.retain(|x| x.is_finite());
    if buf.is_empty() {
        return None;
    }
    let (li, ui) = cache.ranks(buf.len(), cfg.wilson_z);
    let ci = median_ci_select_ranks(buf, li, ui)?;
    Some(LinkStat { ci })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_stats::distributions::{LogNormal, Normal};
    use pinpoint_stats::rng::SplitMix64;

    fn characterize(samples: &[f64], cfg: &DetectorConfig) -> Option<LinkStat> {
        characterize_in_place_cached(&mut samples.to_vec(), cfg, &mut RankCache::default())
    }

    #[test]
    fn characterization_brackets_median() {
        let cfg = DetectorConfig::default();
        let samples: Vec<f64> = (0..101).map(|i| f64::from(i) * 0.1).collect();
        let stat = characterize(&samples, &cfg).unwrap();
        assert!((stat.median() - 5.0).abs() < 1e-9);
        assert!(stat.ci.lower < 5.0 && 5.0 < stat.ci.upper);
        assert_eq!(stat.ci.n, 101);
    }

    #[test]
    fn empty_or_nan_yields_none() {
        let cfg = DetectorConfig::default();
        assert!(characterize(&[], &cfg).is_none());
        assert!(characterize(&[f64::NAN, f64::INFINITY], &cfg).is_none());
        assert!(characterize(&[f64::NAN; 4], &cfg).is_none());
    }

    #[test]
    fn figure2_style_stability() {
        // Reproduces the Fig. 2 phenomenon in miniature: noisy samples whose
        // raw σ is ~3× the mean, yet per-bin medians stay within a fraction
        // of a millisecond of each other.
        let cfg = DetectorConfig::default();
        let mut rng = SplitMix64::new(2015);
        let body = Normal::new(5.3, 0.3);
        let tail = LogNormal::from_median(8.0, 1.2);
        let mut medians = Vec::new();
        for _bin in 0..14 * 24 {
            let samples: Vec<f64> = (0..200)
                .map(|_| {
                    let mut v = body.sample(&mut rng);
                    if rng.next_bool(0.05) {
                        v += tail.sample(&mut rng); // sparse large outliers
                    }
                    v
                })
                .collect();
            medians.push(characterize(&samples, &cfg).unwrap().median());
        }
        let lo = medians.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = medians.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            hi - lo < 0.5,
            "median differential RTT unstable: spread {}",
            hi - lo
        );
    }
}
