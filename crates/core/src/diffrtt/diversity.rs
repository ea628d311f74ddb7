//! Step 2: probe-diversity filtering (§4.3).
//!
//! Differential RTTs only isolate the monitored link's delay when the
//! contributing probes have *diverse return paths*. Two criteria:
//!
//! 1. links monitored by probes from fewer than `min_as_diversity` (3)
//!    distinct ASes are discarded outright;
//! 2. if the probe-per-AS counts are unbalanced — normalized entropy
//!    H(A) ≤ 0.5 — probes are randomly removed from the most-represented AS
//!    until H(A) exceeds the threshold ("the link is not discarded.
//!    Instead, a probe from the most represented AS is randomly selected
//!    and discarded").
//!
//! Both the nested-map reference path ([`filter`]) and the arena engine
//! path ([`filter_slice`]) funnel into one rebalancing core, so the two
//! representations make byte-identical keep/drop decisions (and consume
//! the per-link RNG identically).

use super::compute::{LinkSamples, LinkSlice};
use crate::config::DetectorConfig;
use pinpoint_model::{Asn, ProbeId};
use pinpoint_stats::entropy::normalized_entropy;
use pinpoint_stats::rng::SplitMix64;
use std::collections::HashMap;

/// The shared §4.3 rebalancing core: given each probe and its AS, decide
/// which probes to discard. Probe order does not matter — the per-AS lists
/// are sorted before any random choice is made.
fn rebalance_removals(
    probes: impl Iterator<Item = (ProbeId, Asn)>,
    cfg: &DetectorConfig,
    rng: &mut SplitMix64,
) -> Vec<ProbeId> {
    // Probe lists per AS, deterministically ordered.
    let mut by_as: HashMap<Asn, Vec<ProbeId>> = HashMap::new();
    for (probe, asn) in probes {
        by_as.entry(asn).or_default().push(probe);
    }
    for probes in by_as.values_mut() {
        probes.sort_unstable();
    }
    let mut ases: Vec<Asn> = by_as.keys().copied().collect();
    ases.sort_unstable();

    let mut removed: Vec<ProbeId> = Vec::new();
    let mut counts: Vec<u32> = Vec::with_capacity(ases.len());
    loop {
        counts.clear();
        counts.extend(ases.iter().map(|a| by_as[a].len() as u32));
        let Some(h) = normalized_entropy(&counts) else {
            break;
        };
        if h > cfg.entropy_threshold {
            break;
        }
        // Drop a random probe from the most-represented AS (deterministic
        // tie-break on ASN order).
        let Some((max_as, _)) = ases
            .iter()
            .map(|a| (*a, by_as[a].len()))
            .max_by_key(|&(a, n)| (n, std::cmp::Reverse(a)))
        else {
            break;
        };
        let Some(probes) = by_as.get_mut(&max_as) else {
            break;
        };
        if probes.len() <= 1 {
            // Cannot rebalance further; entropy can no longer change.
            break;
        }
        let idx = rng.next_below(probes.len() as u64) as usize;
        removed.push(probes.swap_remove(idx));
    }
    removed
}

/// Apply both criteria; returns the surviving flattened samples, or `None`
/// if the link must be discarded.
pub fn filter(obs: &LinkSamples, cfg: &DetectorConfig, rng: &mut SplitMix64) -> Option<Vec<f64>> {
    if obs.as_count() < cfg.min_as_diversity {
        return None;
    }
    let removed = rebalance_removals(obs.per_probe().iter().map(|(&p, (a, _))| (p, *a)), cfg, rng);
    let surviving: Vec<f64> = obs
        .per_probe()
        .iter()
        .filter(|(probe, _)| !removed.contains(probe))
        .flat_map(|(_, (_, samples))| samples.iter().copied())
        .collect();
    if surviving.is_empty() {
        None
    } else {
        Some(surviving)
    }
}

/// Reusable buffers for the balanced-link fast path of [`decide`].
#[derive(Debug, Default)]
pub struct Scratch {
    by_as: Vec<(Asn, u32)>,
    counts: Vec<u32>,
}

/// The §4.3 verdict for one link, *without* materializing the surviving
/// samples — so the balanced case (the overwhelming majority) can be
/// characterized zero-copy, directly on the link's contiguous region of
/// the shard pool, instead of copying every sample into a scratch buffer
/// first.
#[derive(Debug, PartialEq, Eq)]
pub enum Keep {
    /// Below the AS-diversity floor: discard the link.
    Discard,
    /// Already balanced: every probe's samples survive. No RNG is drawn.
    All,
    /// Rebalanced: drop the listed probes' samples, keep the rest.
    Without(Vec<ProbeId>),
}

/// Arena-path twin of [`filter`]: decide a link's fate using the same
/// rebalancing core and RNG stream, so the kept multiset is exactly what
/// [`filter`] keeps.
///
/// Most links are already balanced, so the common case is handled without
/// touching the rebalancing core: probe-per-AS counts are accumulated in
/// `scratch` (sorted by ASN — the same summation order the core uses, so
/// the entropy value is bit-identical), and if H(A) already clears the
/// threshold no per-probe lists are ever built and the RNG is never drawn
/// from — exactly like a rebalancing loop that exits on its first check.
pub fn decide(
    slice: &LinkSlice<'_>,
    cfg: &DetectorConfig,
    rng: &mut SplitMix64,
    scratch: &mut Scratch,
) -> Keep {
    if slice.as_count < cfg.min_as_diversity {
        return Keep::Discard;
    }
    // Fast path: probe counts per AS, kept sorted by ASN.
    scratch.by_as.clear();
    for (_, asn, _) in slice.probes() {
        match scratch.by_as.binary_search_by_key(&asn, |&(a, _)| a) {
            Ok(i) => scratch.by_as[i].1 += 1,
            Err(i) => scratch.by_as.insert(i, (asn, 1)),
        }
    }
    scratch.counts.clear();
    scratch.counts.extend(scratch.by_as.iter().map(|&(_, c)| c));
    let balanced = match normalized_entropy(&scratch.counts) {
        Some(h) => h > cfg.entropy_threshold,
        None => true, // unreachable post-as_count check; treat as no-op
    };
    if balanced {
        return Keep::All;
    }
    // Unbalanced link: defer to the shared core. Its first loop iteration
    // recomputes the entropy just checked — accepted redundancy, so the
    // slow path stays byte-identical to [`filter`] by construction.
    Keep::Without(rebalance_removals(
        slice.probes().map(|(p, a, _)| (p, a)),
        cfg,
        rng,
    ))
}

/// Sample-materializing wrapper around [`decide`]: appends the surviving
/// samples to `out` (cleared first) and returns whether the link
/// survives. The engine's hot path uses [`decide`] directly (zero-copy
/// for balanced links); this wrapper serves the equivalence tests.
pub fn filter_slice(
    slice: &LinkSlice<'_>,
    cfg: &DetectorConfig,
    rng: &mut SplitMix64,
    out: &mut Vec<f64>,
    scratch: &mut Scratch,
) -> bool {
    out.clear();
    match decide(slice, cfg, rng, scratch) {
        Keep::Discard => return false,
        Keep::All => {
            for (_, _, samples) in slice.probes() {
                out.extend_from_slice(samples);
            }
        }
        Keep::Without(removed) => {
            for (probe, _, samples) in slice.probes() {
                if !removed.contains(&probe) {
                    out.extend_from_slice(samples);
                }
            }
        }
    }
    !out.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffrtt::compute::SampleArena;
    use pinpoint_model::records::{Hop, Reply, TracerouteRecord};
    use pinpoint_model::{MeasurementId, SimTime};

    fn obs(spec: &[(u32, u32, usize)]) -> LinkSamples {
        // (probe id, asn, n samples)
        let mut per_probe = HashMap::new();
        for &(p, a, n) in spec {
            per_probe.insert(
                ProbeId(p),
                (Asn(a), (0..n).map(|i| i as f64).collect::<Vec<_>>()),
            );
        }
        LinkSamples::from_per_probe(per_probe)
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig::default()
    }

    #[test]
    fn fewer_than_three_ases_discarded() {
        let mut rng = SplitMix64::new(1);
        let two = obs(&[(1, 100, 3), (2, 100, 3), (3, 200, 3)]);
        assert!(filter(&two, &cfg(), &mut rng).is_none());
        let three = obs(&[(1, 100, 3), (2, 200, 3), (3, 300, 3)]);
        assert!(filter(&three, &cfg(), &mut rng).is_some());
    }

    #[test]
    fn balanced_probes_keep_all_samples() {
        let mut rng = SplitMix64::new(1);
        let o = obs(&[(1, 100, 4), (2, 200, 4), (3, 300, 4)]);
        let kept = filter(&o, &cfg(), &mut rng).unwrap();
        assert_eq!(kept.len(), 12);
    }

    #[test]
    fn paper_example_rebalances_dominant_as() {
        // §4.3's example: 100 probes in 5 ASes, 90 in one AS. The dominant
        // AS must lose probes until entropy exceeds 0.5.
        let mut spec: Vec<(u32, u32, usize)> = Vec::new();
        for p in 0..90 {
            spec.push((p, 100, 1));
        }
        for (i, asn) in [200, 300, 400, 500].iter().enumerate() {
            // A couple probes each in the other ASes.
            spec.push((100 + 2 * i as u32, *asn, 1));
            spec.push((101 + 2 * i as u32, *asn, 1));
        }
        let o = obs(&spec);
        let mut rng = SplitMix64::new(5);
        let kept = filter(&o, &cfg(), &mut rng).unwrap();
        // The dominant AS had 90 of 98 probes; a balanced outcome keeps far
        // fewer samples.
        assert!(kept.len() < 50, "kept {}", kept.len());
        assert!(kept.len() >= 8, "kept too few: {}", kept.len());
    }

    #[test]
    fn rebalancing_is_deterministic_per_seed() {
        let spec: Vec<(u32, u32, usize)> = (0..40)
            .map(|p| (p, if p < 30 { 100 } else { 200 + p % 3 * 100 }, 2))
            .collect();
        let o = obs(&spec);
        let a = filter(&o, &cfg(), &mut SplitMix64::new(9)).unwrap();
        let b = filter(&o, &cfg(), &mut SplitMix64::new(9)).unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn single_probe_per_as_cannot_rebalance_but_passes() {
        // 3 ASes, one probe each: entropy is 1.0 > 0.5 → pass untouched.
        let o = obs(&[(1, 100, 2), (2, 200, 2), (3, 300, 2)]);
        let mut rng = SplitMix64::new(3);
        assert_eq!(filter(&o, &cfg(), &mut rng).unwrap().len(), 6);
    }

    #[test]
    fn stuck_rebalancing_terminates() {
        // Pathological: every AS has exactly one probe except one with two;
        // if entropy still can't clear the bar the loop must exit rather
        // than spin.
        let mut c = cfg();
        c.entropy_threshold = 1.1; // unattainable
        let o = obs(&[(1, 100, 2), (2, 200, 2), (3, 300, 2), (4, 300, 2)]);
        let mut rng = SplitMix64::new(3);
        // Must terminate (result content is secondary).
        let _ = filter(&o, &c, &mut rng);
    }

    #[test]
    fn slice_and_map_paths_agree() {
        // Build the same unbalanced bin through records, run both filter
        // paths with the same seed, and compare the kept sample multisets.
        let ip = |s: &str| s.parse::<std::net::Ipv4Addr>().unwrap();
        let mut records = Vec::new();
        for p in 0..12u32 {
            let asn = if p < 8 { 100 } else { 200 + (p % 2) * 100 };
            records.push(TracerouteRecord {
                msm_id: MeasurementId(1),
                probe_id: ProbeId(p),
                probe_asn: Asn(asn),
                dst: ip("198.51.100.1"),
                timestamp: SimTime(0),
                paris_id: 0,
                hops: vec![
                    Hop::new(1, vec![Reply::new(ip("10.0.0.1"), 1.0 + f64::from(p))]),
                    Hop::new(2, vec![Reply::new(ip("10.0.1.1"), 3.0 + f64::from(p))]),
                ],
                destination_reached: true,
            });
        }
        let reference = super::super::compute::collect_link_samples(&records);
        let (link, obs) = reference.iter().next().unwrap();
        let mut arena = SampleArena::default();
        arena.build(&records);
        let slice = (0..arena.link_count())
            .map(|i| arena.link(i))
            .find(|s| s.link == *link)
            .unwrap();

        let mut kept_map = filter(obs, &cfg(), &mut SplitMix64::new(77)).unwrap();
        let mut kept_slice = Vec::new();
        assert!(filter_slice(
            &slice,
            &cfg(),
            &mut SplitMix64::new(77),
            &mut kept_slice,
            &mut Scratch::default(),
        ));
        kept_map.sort_by(|a, b| a.partial_cmp(b).unwrap());
        kept_slice.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(kept_map, kept_slice);
    }
}
