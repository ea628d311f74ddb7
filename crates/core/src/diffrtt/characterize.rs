//! Step 3: robust characterization (§4.2.2).
//!
//! The bin's differential RTTs are summarized by their median and the
//! Wilson-score 95 % confidence interval on the median — the median-CLT
//! variant that stays normally distributed where the arithmetic mean is
//! destroyed by outliers (Fig. 3).

use crate::config::DetectorConfig;
use pinpoint_model::FxHashMap;
use pinpoint_stats::wilson::{
    median_ci_select, median_ci_select_ranks, median_ci_sorted, wilson_rank_bounds,
    ConfidenceInterval,
};

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

/// Shared tail of the cached paths: filter already done, `buf` holds the
/// finite samples. Bit-identical to `median_ci_select(buf, cfg.wilson_z)`.
fn finish_cached(buf: &mut [f64], cfg: &DetectorConfig, cache: &mut RankCache) -> Option<LinkStat> {
    if buf.is_empty() {
        return None;
    }
    let (li, ui) = cache.ranks(buf.len(), cfg.wilson_z);
    let ci = median_ci_select_ranks(buf, li, ui)?;
    Some(LinkStat { ci })
}

/// [`characterize_into`] with the Wilson ranks memoized in `cache`.
pub fn characterize_into_cached(
    samples: &[f64],
    scratch: &mut Vec<f64>,
    cfg: &DetectorConfig,
    cache: &mut RankCache,
) -> Option<LinkStat> {
    scratch.clear();
    scratch.extend(samples.iter().copied().filter(|x| x.is_finite()));
    finish_cached(scratch, cfg, cache)
}

/// [`characterize_in_place`] with the Wilson ranks memoized in `cache`.
pub fn characterize_in_place_cached(
    buf: &mut Vec<f64>,
    cfg: &DetectorConfig,
    cache: &mut RankCache,
) -> Option<LinkStat> {
    buf.retain(|x| x.is_finite());
    finish_cached(buf, cfg, cache)
}

/// [`characterize_region`] with the Wilson ranks memoized in `cache`:
/// the engine's hot path for balanced links. Non-finite samples still
/// fall back to the copying path (dropping them in place would disturb
/// the pool layout).
pub fn characterize_region_cached(
    region: &mut [f64],
    scratch: &mut Vec<f64>,
    cfg: &DetectorConfig,
    cache: &mut RankCache,
) -> Option<LinkStat> {
    if region.iter().any(|x| !x.is_finite()) {
        return characterize_into_cached(region, scratch, cfg, cache);
    }
    finish_cached(region, cfg, cache)
}

/// Characterize filtered samples; `None` when empty or non-finite.
pub fn characterize(samples: &[f64], cfg: &DetectorConfig) -> Option<LinkStat> {
    let mut scratch = Vec::new();
    characterize_into(samples, &mut scratch, cfg)
}

/// Engine variant of [`characterize`]: the finite samples are copied into
/// `scratch` (cleared first) and characterized via order-statistic
/// selection — expected O(n), no full sort, no allocation once `scratch`
/// has grown to bin size. Bit-identical to [`characterize`] and
/// [`characterize_full_sort`].
pub fn characterize_into(
    samples: &[f64],
    scratch: &mut Vec<f64>,
    cfg: &DetectorConfig,
) -> Option<LinkStat> {
    scratch.clear();
    scratch.extend(samples.iter().copied().filter(|x| x.is_finite()));
    if scratch.is_empty() {
        return None;
    }
    let ci = median_ci_select(scratch, cfg.wilson_z)?;
    Some(LinkStat { ci })
}

/// Zero-copy engine variant: drops non-finite values from `buf` in place,
/// then characterizes by permuting `buf` itself. The hot path hands in the
/// diversity filter's surviving-samples buffer, so a link is characterized
/// with no copies at all. Bit-identical to [`characterize_full_sort`].
pub fn characterize_in_place(buf: &mut Vec<f64>, cfg: &DetectorConfig) -> Option<LinkStat> {
    buf.retain(|x| x.is_finite());
    if buf.is_empty() {
        return None;
    }
    let ci = median_ci_select(buf, cfg.wilson_z)?;
    Some(LinkStat { ci })
}

/// Zero-copy arena variant: characterize a link by quickselect-permuting
/// its *contiguous shard-pool region* in place. After `finalize` a link's
/// samples sit back to back in the shard pool (span order), so a balanced
/// link — one the diversity filter keeps whole — never needs its samples
/// copied into a scratch buffer at all. Non-finite samples are the rare
/// exception (they must be dropped before selection, and dropping would
/// disturb the pool layout), so that case falls back to the copying path
/// through `scratch`. Bit-identical to [`characterize_in_place`] on a
/// copy of the region: the region holds the same sample sequence the copy
/// would, and `median_ci_select` returns exact order statistics either
/// way.
pub fn characterize_region(
    region: &mut [f64],
    scratch: &mut Vec<f64>,
    cfg: &DetectorConfig,
) -> Option<LinkStat> {
    if region.iter().any(|x| !x.is_finite()) {
        return characterize_into(region, scratch, cfg);
    }
    if region.is_empty() {
        return None;
    }
    let ci = median_ci_select(region, cfg.wilson_z)?;
    Some(LinkStat { ci })
}

/// The original full-sort implementation, retained as the reference the
/// engine-parity tests (and the sequential baseline bench) compare against.
pub fn characterize_full_sort(samples: &[f64], cfg: &DetectorConfig) -> Option<LinkStat> {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let ci = median_ci_sorted(&sorted, cfg.wilson_z)?;
    Some(LinkStat { ci })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_stats::distributions::{LogNormal, Normal};
    use pinpoint_stats::rng::SplitMix64;

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
    }

    #[test]
    fn select_path_matches_full_sort() {
        let cfg = DetectorConfig::default();
        let mut rng = SplitMix64::new(99);
        let mut scratch = Vec::new();
        for n in [1usize, 2, 3, 10, 101, 500] {
            let samples: Vec<f64> = (0..n).map(|_| rng.next_f64() * 50.0 - 10.0).collect();
            assert_eq!(
                characterize_into(&samples, &mut scratch, &cfg),
                characterize_full_sort(&samples, &cfg),
                "n={n}"
            );
        }
        // NaN/∞ filtering matches too.
        let weird = [1.0, f64::NAN, 3.0, f64::INFINITY, 2.0, -1.0];
        assert_eq!(
            characterize_into(&weird, &mut scratch, &cfg),
            characterize_full_sort(&weird, &cfg)
        );
    }

    #[test]
    fn region_path_matches_copy_paths() {
        let cfg = DetectorConfig::default();
        let mut rng = SplitMix64::new(41);
        let mut scratch = Vec::new();
        for n in [1usize, 2, 5, 64, 257] {
            let samples: Vec<f64> = (0..n).map(|_| rng.next_f64() * 40.0 - 15.0).collect();
            let mut region = samples.clone();
            assert_eq!(
                characterize_region(&mut region, &mut scratch, &cfg),
                characterize_full_sort(&samples, &cfg),
                "n={n}"
            );
            // The in-place path only permutes: same multiset afterwards.
            let mut got = region;
            let mut want = samples;
            got.sort_by(|a, b| a.partial_cmp(b).unwrap());
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(got, want, "n={n}");
        }
        // Non-finite samples fall back to the copying path and agree.
        let weird = [2.0, f64::NAN, 1.0, f64::INFINITY, 0.5];
        let mut region = weird.to_vec();
        assert_eq!(
            characterize_region(&mut region, &mut scratch, &cfg),
            characterize_full_sort(&weird, &cfg)
        );
        assert!(characterize_region(&mut [], &mut scratch, &cfg).is_none());
    }

    #[test]
    fn cached_paths_match_uncached_and_full_sort() {
        // One shared cache across links of many sizes — including repeat
        // sizes (the memo-hit case) and non-finite injections (the
        // region fallback case) — must stay bit-identical to the direct
        // and full-sort paths.
        let cfg = DetectorConfig::default();
        let mut rng = SplitMix64::new(4242);
        let mut cache = RankCache::default();
        let mut scratch = Vec::new();
        for n in [1usize, 2, 3, 7, 24, 24, 100, 7, 313, 100] {
            let mut samples: Vec<f64> = (0..n).map(|_| rng.next_f64() * 60.0 - 20.0).collect();
            // Every third round poisons a sample to force the fallback.
            if n > 2 && n % 3 == 1 {
                let k = (rng.next_raw() as usize) % n;
                samples[k] = if n % 2 == 0 { f64::NAN } else { f64::INFINITY };
            }
            let want = characterize_full_sort(&samples, &cfg);
            let mut region = samples.clone();
            assert_eq!(
                characterize_region_cached(&mut region, &mut scratch, &cfg, &mut cache),
                want,
                "region n={n}"
            );
            assert_eq!(
                characterize_into_cached(&samples, &mut scratch, &cfg, &mut cache),
                want,
                "into n={n}"
            );
            let mut buf = samples.clone();
            assert_eq!(
                characterize_in_place_cached(&mut buf, &cfg, &mut cache),
                want,
                "in_place n={n}"
            );
        }
        // All-non-finite and empty inputs yield None through the cache too.
        assert!(characterize_into_cached(&[f64::NAN; 4], &mut scratch, &cfg, &mut cache).is_none());
        assert!(characterize_region_cached(&mut [], &mut scratch, &cfg, &mut cache).is_none());
    }

    #[test]
    fn rank_cache_survives_z_change() {
        let mut a = DetectorConfig::default();
        let mut cache = RankCache::default();
        let mut scratch = Vec::new();
        let samples: Vec<f64> = (0..50).map(|i| f64::from(i) * 0.3).collect();
        for z in [1.96, 0.0, 3.0, 1.96] {
            a.wilson_z = z;
            assert_eq!(
                characterize_into_cached(&samples, &mut scratch, &a, &mut cache),
                characterize_full_sort(&samples, &a),
                "z={z}"
            );
        }
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
