//! A paper-literal reference for the §4–§5 detectors and the bin report.
//!
//! `pinpoint-core` runs the paper's detectors as a sharded, interned,
//! allocation-lean engine. This module computes the same reports the
//! plain way: one thread, ordered maps (`BTreeMap`), and every step
//! written out from the paper's formulas. It calls none of the engine's
//! detector code. It shares only the model types, `pinpoint-stats`
//! (Wilson ranks, entropy, Pearson, the median, `SplitMix64`),
//! [`DetectorConfig`] and the output types, the record sanitizer, and
//! the §6 aggregation API. So a change to the engine's §4–§5 math moves
//! the engine's reports and not these, and the parity suites catch it.
//!
//! * [`link_samples`] — differential RTTs per link and probe (§4.2.1);
//! * [`diverse_samples`] — the probe-diversity filter (§4.3);
//! * [`characterize`] — the median and its Wilson CI (§4.2.2);
//! * [`LinkReference`] and [`delay_alarm`] — Eq. 7 and Eq. 6;
//! * [`patterns`], [`PatternReference`] and [`forwarding_alarm`] — the
//!   forwarding patterns, Eq. 8 and Eq. 9 (§5);
//! * [`Oracle`] — a solo analyzer's bin report, [`FleetOracle`] — a
//!   fleet's: N solo oracles plus the fleet merge.
//!
//! ## What the oracle does not rewrite
//!
//! The events each report carries come from the engine's own
//! [`EmpathyExtractor`], called here on the oracle's alarms and
//! magnitudes. The paper stops at "identifying peaks in either of the
//! two time series" (§6); clustering alarms into incidents is this
//! repo's extension (traceroute empathy, Di Bartolomeo et al.,
//! PAPERS.md), so there is no formula to write a second copy from.
//! Hand-computed unit tests pin it instead: the magnitude-only tests in
//! `pinpoint-core`'s `aggregate/empathy.rs` (one event per maximal
//! over-threshold run of an AS, gaps bridged, kind and rank by the
//! peaks), its alarm-clustering tests beside them, and
//! `pinpoint-stats`'s `mad::tests::magnitude_matches_eq10_by_hand` for
//! the Eq. 10 scores that feed it.
//!
//! ## Rules the paper does not fix
//!
//! The engine makes a few choices the paper leaves open. The oracle
//! follows each of them, so the bytes match, and states each one once,
//! in a comment that begins `Rule:`. They are: the first probe ASN seen
//! in a bin, non-finite samples dropped before the median, how the §4.3
//! draw names a probe, the 0.1 ms floor on a reference arm,
//! `warmup_bins.max(1)`, the clamp of the smoothed reference CI around
//! its median, the first pattern taken whole as a forwarding reference,
//! the 0.05 prune floor of a forwarding reference, "a repeated address
//! is not a next hop", the total order of the alarms, and eviction after
//! `reference_expiry_bins` unseen bins.

use pinpoint_core::aggregate::{
    delay_severity, forwarding_severity, merge_severities, AsMapper, EmpathyExtractor,
    MagnitudeTracker, StreamEvidence,
};
use pinpoint_core::diffrtt::{DelayAlarm, Direction, LinkStat};
use pinpoint_core::forwarding::{ForwardingAlarm, NextHop, PatternKey};
use pinpoint_core::sanitize::{sanitize_records, SanitizeStats};
use pinpoint_core::{BinReport, DetectorConfig, FleetReport};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::{Asn, BinId, IpLink, ProbeId};
use pinpoint_scenarios::multi::MultiStreamCase;
use pinpoint_stats::correlation::pearson;
use pinpoint_stats::entropy::normalized_entropy;
use pinpoint_stats::quantile::median;
use pinpoint_stats::rng::{derive_seed, SplitMix64};
use pinpoint_stats::wilson::{median_ci_sorted, ConfidenceInterval};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One link's differential RTTs in one bin: probe → (the probe's AS, its
/// samples).
pub type LinkSamples = BTreeMap<ProbeId, (Asn, Vec<f64>)>;

/// One bin's forwarding pattern: packets per next hop.
pub type Pattern = BTreeMap<NextHop, f64>;

/// §4.2.1: for adjacent responsive routers X, Y in a traceroute from
/// probe P, every `RTT(P, Y) − RTT(P, X)` is a sample of the link (X, Y),
/// kept per probe because §4.3 filters probes, not samples.
pub fn link_samples(records: &[TracerouteRecord]) -> BTreeMap<IpLink, LinkSamples> {
    let mut out: BTreeMap<IpLink, LinkSamples> = BTreeMap::new();
    // Rule: a probe belongs to the first AS it reports in the bin, in
    // record order, whatever its later records say.
    let mut asn_of: BTreeMap<ProbeId, Asn> = BTreeMap::new();
    for rec in records {
        let asn = *asn_of.entry(rec.probe_id).or_insert(rec.probe_asn);
        rec.for_each_link(|link, near, far| {
            let x: Vec<f64> = rec.hops[near].rtts_from(link.near).collect();
            let diffs: Vec<f64> = rec.hops[far]
                .rtts_from(link.far)
                .flat_map(|y| x.iter().map(move |x| y - x))
                .collect();
            if !diffs.is_empty() {
                let probes = out.entry(link).or_default();
                let (_, samples) = probes.entry(rec.probe_id).or_insert((asn, Vec::new()));
                samples.extend(diffs);
            }
        });
    }
    out
}

/// The per-link RNG of the §4.3 draw, derived from (seed, link, bin) so a
/// link's draw depends on nothing else.
fn link_rng(seed: u64, link: &IpLink, bin: BinId) -> SplitMix64 {
    SplitMix64::new(derive_seed(
        seed ^ (u64::from(u32::from(link.near)) << 17)
            ^ u64::from(u32::from(link.far))
            ^ (bin.0 << 40),
        "diversity-rebalance",
    ))
}

/// §4.3: links seen from fewer than `min_as_diversity` probe ASes are
/// discarded (`None`). While the normalized entropy of the probes-per-AS
/// counts is at most `entropy_threshold`, "a probe from the most
/// represented AS is randomly selected and discarded". Returns the
/// samples of the probes that remain.
pub fn diverse_samples(
    samples: &LinkSamples,
    cfg: &DetectorConfig,
    rng: &mut SplitMix64,
) -> Option<Vec<f64>> {
    let mut by_as: BTreeMap<Asn, Vec<ProbeId>> = BTreeMap::new();
    for (&probe, &(asn, _)) in samples {
        by_as.entry(asn).or_default().push(probe);
    }
    if by_as.len() < cfg.min_as_diversity {
        return None;
    }
    loop {
        let counts: Vec<u32> = by_as.values().map(|p| p.len() as u32).collect();
        match normalized_entropy(&counts) {
            Some(h) if h <= cfg.entropy_threshold => {}
            _ => break,
        }
        // The most represented AS; on a tie, the lowest ASN.
        let most = by_as.values().map(Vec::len).max().unwrap_or(0);
        let Some(probes) = by_as.values_mut().find(|p| p.len() == most) else {
            break;
        };
        if probes.len() <= 1 {
            break; // every AS is down to one probe: nothing left to drop
        }
        // Rule: the draw is an index into the AS's probes, ascending by
        // id when the loop starts, and each drop moves the AS's last
        // probe into the gap (`swap_remove`).
        let pick = rng.next_below(probes.len() as u64) as usize;
        probes.swap_remove(pick);
    }
    let kept: Vec<f64> = by_as
        .values()
        .flatten()
        .flat_map(|probe| samples[probe].1.iter().copied())
        .collect();
    (!kept.is_empty()).then_some(kept)
}

/// §4.2.2: the median of the samples and its Wilson-score CI: the order
/// statistics at the ranks `n·w_l` and `n·w_u`. `None` when no sample is
/// finite.
pub fn characterize(mut samples: Vec<f64>, cfg: &DetectorConfig) -> Option<LinkStat> {
    // Rule: non-finite differential RTTs are dropped before the median.
    samples.retain(|x| x.is_finite());
    samples.sort_by(f64::total_cmp);
    median_ci_sorted(&samples, cfg.wilson_z).map(|ci| LinkStat { ci })
}

/// Rule: a reference unseen for more than `reference_expiry_bins` bins
/// is evicted, on both sides; a link or pattern that comes back starts a
/// fresh reference.
fn expired(bin: BinId, last_seen: BinId, cfg: &DetectorConfig) -> bool {
    bin.0.saturating_sub(last_seen.0) > cfg.reference_expiry_bins as u64
}

/// Eq. 7: a link's normal reference — the first `warmup_bins` CIs, then
/// their per-bound medians smoothed bin by bin with `m̄ ← α m + (1 − α) m̄`.
#[derive(Debug, Clone, Default)]
pub struct LinkReference {
    warmup: Vec<ConfidenceInterval>,
    /// The smoothed (lower, median, upper), once warmed up.
    smoothed: Option<[f64; 3]>,
    last_seen: BinId,
}

impl LinkReference {
    /// The reference interval, once warmed up.
    pub fn interval(&self) -> Option<ConfidenceInterval> {
        let [l, m, u] = self.smoothed?;
        // Rule: smoothing each bound alone can cross them, so the
        // reference CI is clamped around its median.
        Some(ConfidenceInterval::new(l.min(m), m, u.max(m), 0))
    }

    /// Fold one bin's CI into the reference.
    pub fn update(&mut self, ci: ConfidenceInterval, cfg: &DetectorConfig) {
        let bounds = [ci.lower, ci.median, ci.upper];
        match &mut self.smoothed {
            Some(smoothed) => {
                for (s, x) in smoothed.iter_mut().zip(bounds) {
                    *s = cfg.alpha * x + (1.0 - cfg.alpha) * *s;
                }
            }
            None => {
                self.warmup.push(ci);
                // Rule: a warm-up takes at least one bin.
                if self.warmup.len() >= cfg.warmup_bins.max(1) {
                    let med = |f: fn(&ConfidenceInterval) -> f64| {
                        let values: Vec<f64> = self.warmup.iter().map(f).collect();
                        median(&values).expect("a warm-up holds at least one bin")
                    };
                    self.smoothed = Some([med(|c| c.lower), med(|c| c.median), med(|c| c.upper)]);
                    self.warmup.clear();
                }
            }
        }
    }
}

/// Rule: the 0.1 ms floor on a reference arm in Eq. 6, so a zero-width
/// reference still yields a finite deviation.
const MIN_ARM_MS: f64 = 0.1;

/// Eq. 6: an alarm when the bin's CI and the reference CI do not overlap
/// and the medians are at least `min_median_gap_ms` apart. The deviation
/// is the gap between the CIs over the reference's arm on that side.
pub fn delay_alarm(
    link: IpLink,
    bin: BinId,
    stat: &LinkStat,
    reference: &ConfidenceInterval,
    cfg: &DetectorConfig,
) -> Option<DelayAlarm> {
    let (obs, r) = (stat.ci, reference);
    if obs.lower <= r.upper && r.lower <= obs.upper {
        return None;
    }
    if (obs.median - r.median).abs() < cfg.min_median_gap_ms {
        return None;
    }
    let deviation = if r.upper < obs.lower {
        (obs.lower - r.upper) / (r.upper - r.median).max(MIN_ARM_MS)
    } else {
        (r.lower - obs.upper) / (r.median - r.lower).max(MIN_ARM_MS)
    };
    Some(DelayAlarm {
        link,
        bin,
        observed: obs,
        reference: *r,
        deviation,
        direction: if obs.median > r.median {
            Direction::Increase
        } else {
            Direction::Decrease
        },
    })
}

/// §5.1: per (router, destination), the packets of the next TTL counted
/// by where they went: each reply from B counts for B, each timeout for
/// the unresponsive bucket Z. A responsive router gets a pattern even
/// when no packet of its next TTL counts.
pub fn patterns(records: &[TracerouteRecord]) -> BTreeMap<PatternKey, Pattern> {
    let mut out: BTreeMap<PatternKey, Pattern> = BTreeMap::new();
    for rec in records {
        for pair in rec.hops.windows(2) {
            let Some(router) = pair[0].first_responder() else {
                continue;
            };
            let counts = out
                .entry(PatternKey {
                    router,
                    dst: rec.dst,
                })
                .or_default();
            for reply in &pair[1].replies {
                let hop = match reply.from {
                    None => NextHop::Unresponsive,
                    // Rule: a repeated address is not a next hop.
                    Some(ip) if ip == router => continue,
                    Some(ip) => NextHop::Ip(ip),
                };
                *counts.entry(hop).or_insert(0.0) += 1.0;
            }
        }
    }
    out
}

/// Rule: a next hop whose smoothed count falls below this is dropped
/// from the forwarding reference.
const PRUNE_BELOW: f64 = 0.05;

/// Eq. 8: a pattern's reference, `F̄ ← α F + (1 − α) F̄` over the union
/// of next hops, an unseen hop counting 0.
#[derive(Debug, Clone, Default)]
pub struct PatternReference {
    smoothed: Pattern,
    last_seen: BinId,
}

impl PatternReference {
    /// Fold one bin's pattern into the reference.
    pub fn update(&mut self, observed: &Pattern, cfg: &DetectorConfig) {
        // Rule: an empty reference — new, or pruned to nothing — takes the
        // bin's pattern whole; there is no warm-up.
        if self.smoothed.is_empty() {
            self.smoothed = observed.clone();
            return;
        }
        for hop in union(observed, &self.smoothed) {
            let (p, old) = (count(observed, &hop), count(&self.smoothed, &hop));
            let smoothed = cfg.alpha * p + (1.0 - cfg.alpha) * old;
            if smoothed < PRUNE_BELOW {
                self.smoothed.remove(&hop);
            } else {
                self.smoothed.insert(hop, smoothed);
            }
        }
    }
}

fn count(pattern: &Pattern, hop: &NextHop) -> f64 {
    pattern.get(hop).copied().unwrap_or(0.0)
}

fn union(a: &Pattern, b: &Pattern) -> BTreeSet<NextHop> {
    a.keys().chain(b.keys()).copied().collect()
}

/// §5.2: an alarm when the Pearson correlation ρ of the bin's pattern
/// with its reference, over the union of next hops, falls below τ, with
/// Eq. 9's responsibility `rᵢ = −ρ (pᵢ − p̄ᵢ) / Σⱼ |pⱼ − p̄ⱼ|` per hop,
/// most negative first (ties in next-hop order).
pub fn forwarding_alarm(
    key: PatternKey,
    bin: BinId,
    observed: &Pattern,
    reference: &Pattern,
    cfg: &DetectorConfig,
) -> Option<ForwardingAlarm> {
    if reference.is_empty() || observed.values().sum::<f64>() < cfg.min_pattern_packets {
        return None;
    }
    let hops: Vec<NextHop> = union(observed, reference).into_iter().collect();
    if hops.len() < 2 {
        return None;
    }
    let p: Vec<f64> = hops.iter().map(|h| count(observed, h)).collect();
    let pbar: Vec<f64> = hops.iter().map(|h| count(reference, h)).collect();
    let rho = pearson(&p, &pbar)?;
    if rho >= cfg.forwarding_tau {
        return None;
    }
    let total: f64 = p.iter().zip(&pbar).map(|(p, pbar)| (p - pbar).abs()).sum();
    let mut responsibilities: Vec<(NextHop, f64)> = if total > 0.0 {
        hops.iter()
            .zip(p.iter().zip(&pbar))
            .map(|(hop, (p, pbar))| (*hop, -rho * (p - pbar) / total))
            .collect()
    } else {
        Vec::new()
    };
    responsibilities.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal));
    Some(ForwardingAlarm {
        router: key.router,
        dst: key.dst,
        bin,
        rho,
        responsibilities,
    })
}

// Rule: the alarms' total order — delay alarms strongest |d(Δ)| first,
// then by link; forwarding alarms lowest ρ first, then by (router,
// destination).

fn sort_delay_alarms(alarms: &mut [DelayAlarm]) {
    alarms.sort_by(|a, b| {
        b.deviation
            .abs()
            .partial_cmp(&a.deviation.abs())
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.link.cmp(&b.link))
    });
}

fn sort_forwarding_alarms(alarms: &mut [ForwardingAlarm]) {
    alarms.sort_by(|a, b| {
        a.rho
            .partial_cmp(&b.rho)
            .unwrap_or(Ordering::Equal)
            .then_with(|| (a.router, a.dst).cmp(&(b.router, b.dst)))
    });
}

/// A solo analyzer, computed the plain way: [`Oracle::process_bin`]
/// returns the [`BinReport`] the engine's `Analyzer::process_bin` must
/// produce for the same configuration, mapper and bins.
#[derive(Debug)]
pub struct Oracle {
    cfg: DetectorConfig,
    mapper: AsMapper,
    links: BTreeMap<IpLink, LinkReference>,
    patterns: BTreeMap<PatternKey, PatternReference>,
    sanitize: SanitizeStats,
    magnitudes: MagnitudeTracker,
    events: EmpathyExtractor,
}

impl Oracle {
    /// A fresh oracle.
    pub fn new(cfg: DetectorConfig, mapper: AsMapper) -> Self {
        Oracle {
            links: BTreeMap::new(),
            patterns: BTreeMap::new(),
            sanitize: SanitizeStats::default(),
            magnitudes: MagnitudeTracker::new(cfg.magnitude_window_bins),
            events: EmpathyExtractor::new(&cfg),
            cfg,
            mapper,
        }
    }

    /// Track these ASes' magnitudes from the first bin.
    pub fn register_ases<I: IntoIterator<Item = Asn>>(&mut self, ases: I) {
        self.magnitudes.register(ases);
    }

    /// One bin: sanitize the records, run both detectors, aggregate (§6).
    pub fn process_bin(&mut self, bin: BinId, records: &[TracerouteRecord]) -> BinReport {
        let (clean, counts) = sanitize_records(records, &self.cfg);
        let carried = SanitizeStats {
            bin_records: 0,
            bin_quarantined: 0,
            bin_repaired: 0,
            ..self.sanitize
        };
        self.sanitize = carried.merged(counts);
        let (delay_alarms, link_stats) = self.delay_bin(bin, &clean);
        let forwarding_alarms = self.forwarding_bin(bin, &clean);
        let magnitudes = self.magnitudes.score_bin(
            &delay_severity(&delay_alarms, &self.mapper),
            &forwarding_severity(&forwarding_alarms, &self.mapper),
        );
        let events = self.events.observe(
            bin,
            &[StreamEvidence {
                delay: &delay_alarms,
                forwarding: &forwarding_alarms,
                mapper: &self.mapper,
            }],
            &magnitudes,
        );
        BinReport {
            bin,
            delay_alarms,
            forwarding_alarms,
            link_stats,
            magnitudes,
            records: records.len(),
            events,
        }
    }

    /// §4 over one bin of (already sanitized) records: the delay alarms
    /// and every characterized link's statistics.
    pub fn delay_bin(
        &mut self,
        bin: BinId,
        records: &[TracerouteRecord],
    ) -> (Vec<DelayAlarm>, HashMap<IpLink, LinkStat>) {
        let cfg = &self.cfg;
        let mut alarms = Vec::new();
        let mut stats = HashMap::new();
        for (link, samples) in link_samples(records) {
            let mut rng = link_rng(cfg.seed, &link, bin);
            let Some(stat) =
                diverse_samples(&samples, cfg, &mut rng).and_then(|kept| characterize(kept, cfg))
            else {
                continue;
            };
            let reference = self.links.entry(link).or_default();
            if let Some(ci) = reference.interval() {
                alarms.extend(delay_alarm(link, bin, &stat, &ci, cfg));
            }
            reference.update(stat.ci, cfg);
            reference.last_seen = bin;
            stats.insert(link, stat);
        }
        self.links.retain(|_, r| !expired(bin, r.last_seen, cfg));
        sort_delay_alarms(&mut alarms);
        (alarms, stats)
    }

    /// §5 over one bin of (already sanitized) records.
    pub fn forwarding_bin(
        &mut self,
        bin: BinId,
        records: &[TracerouteRecord],
    ) -> Vec<ForwardingAlarm> {
        let cfg = &self.cfg;
        let mut alarms = Vec::new();
        for (key, observed) in patterns(records) {
            let reference = self.patterns.entry(key).or_default();
            alarms.extend(forwarding_alarm(
                key,
                bin,
                &observed,
                &reference.smoothed,
                cfg,
            ));
            reference.update(&observed, cfg);
            reference.last_seen = bin;
        }
        self.patterns.retain(|_, r| !expired(bin, r.last_seen, cfg));
        sort_forwarding_alarms(&mut alarms);
        alarms
    }

    /// Links with a delay reference.
    pub fn tracked_links(&self) -> usize {
        self.links.len()
    }

    /// (router, destination) pairs with a forwarding reference.
    pub fn tracked_patterns(&self) -> usize {
        self.patterns.len()
    }

    /// The sanitizer's counters, as the engine keeps them.
    pub fn sanitize_stats(&self) -> SanitizeStats {
        self.sanitize
    }
}

/// A fleet: one [`Oracle`] per stream, then the fleet merge — per-AS
/// severities summed across streams, scored against a fleet magnitude
/// baseline, and run through a fleet event channel.
#[derive(Debug)]
pub struct FleetOracle {
    streams: Vec<Oracle>,
    magnitudes: MagnitudeTracker,
    /// Built from the first stream's config at the first bin.
    events: Option<EmpathyExtractor>,
}

impl FleetOracle {
    /// An empty fleet with a fleet magnitude window of `window_bins`.
    pub fn new(window_bins: usize) -> Self {
        FleetOracle {
            streams: Vec::new(),
            magnitudes: MagnitudeTracker::new(window_bins),
            events: None,
        }
    }

    /// The oracle twin of `case.router()`.
    pub fn for_case(case: &MultiStreamCase) -> Self {
        let mut fleet = FleetOracle::new(case.cfg.magnitude_window_bins);
        for _ in &case.streams {
            fleet.add_stream(Oracle::new(case.cfg.clone(), case.mapper.clone()));
        }
        fleet.register_ases(case.landmarks.named_asns());
        fleet
    }

    /// Append a stream.
    pub fn add_stream(&mut self, oracle: Oracle) {
        self.streams.push(oracle);
    }

    /// Track these ASes in the fleet view and in every current stream.
    pub fn register_ases<I: IntoIterator<Item = Asn>>(&mut self, ases: I) {
        let ases: Vec<Asn> = ases.into_iter().collect();
        self.magnitudes.register(ases.iter().copied());
        for stream in &mut self.streams {
            stream.register_ases(ases.iter().copied());
        }
    }

    /// Stream `i`.
    pub fn stream(&self, i: usize) -> &Oracle {
        &self.streams[i]
    }

    /// One fleet bin; `feeds[i]` is stream `i`'s records.
    ///
    /// # Panics
    /// When `feeds.len()` differs from the number of streams.
    pub fn process_bin(&mut self, bin: BinId, feeds: &[Vec<TracerouteRecord>]) -> FleetReport {
        assert_eq!(feeds.len(), self.streams.len(), "one feed per stream");
        let reports: Vec<BinReport> = self
            .streams
            .iter_mut()
            .zip(feeds)
            .map(|(stream, records)| stream.process_bin(bin, records))
            .collect();
        let (dsev, fsev) = merge_severities(reports.iter().map(|r| &r.magnitudes));
        let magnitudes = self.magnitudes.score_bin(&dsev, &fsev);
        if self.events.is_none() {
            self.events = self.streams.first().map(|s| EmpathyExtractor::new(&s.cfg));
        }
        let events = match &mut self.events {
            Some(extractor) => {
                let evidence: Vec<StreamEvidence<'_>> = reports
                    .iter()
                    .zip(&self.streams)
                    .map(|(r, s)| StreamEvidence {
                        delay: &r.delay_alarms,
                        forwarding: &r.forwarding_alarms,
                        mapper: &s.mapper,
                    })
                    .collect();
                extractor.observe(bin, &evidence, &magnitudes)
            }
            None => Vec::new(),
        };
        FleetReport {
            bin,
            streams: reports,
            magnitudes,
            events,
        }
    }

    /// Links with a delay reference, over the fleet.
    pub fn tracked_links(&self) -> usize {
        self.streams.iter().map(Oracle::tracked_links).sum()
    }

    /// Forwarding references, over the fleet.
    pub fn tracked_patterns(&self) -> usize {
        self.streams.iter().map(Oracle::tracked_patterns).sum()
    }

    /// Sanitizer counters summed over the streams.
    pub fn sanitize_stats(&self) -> SanitizeStats {
        self.streams
            .iter()
            .map(Oracle::sanitize_stats)
            .fold(SanitizeStats::default(), SanitizeStats::merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_model::records::{Hop, Reply};
    use pinpoint_model::{MeasurementId, SimTime};
    use std::net::Ipv4Addr;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn ci(l: f64, m: f64, u: f64) -> ConfidenceInterval {
        ConfidenceInterval::new(l, m, u, 50)
    }

    fn link() -> IpLink {
        IpLink::new(ip("10.0.0.1"), ip("10.0.1.1"))
    }

    fn deviation(observed: ConfidenceInterval, reference: ConfidenceInterval) -> Option<f64> {
        let stat = LinkStat { ci: observed };
        let cfg = DetectorConfig::default();
        delay_alarm(link(), BinId(5), &stat, &reference, &cfg).map(|a| a.deviation)
    }

    #[test]
    fn eq6_divides_the_gap_by_the_reference_arm_on_its_side() {
        // Above: d = (Δ(l) − Δ̄(u)) / (Δ̄(u) − Δ̄(m)) = (20 − 6) / (6 − 5).
        assert_eq!(
            deviation(ci(20.0, 25.0, 30.0), ci(4.0, 5.0, 6.0)),
            Some(14.0)
        );
        // Below: d = (Δ̄(l) − Δ(u)) / (Δ̄(m) − Δ̄(l)) = (10 − 3) / (11 − 10).
        assert_eq!(
            deviation(ci(1.0, 2.0, 3.0), ci(10.0, 11.0, 12.0)),
            Some(7.0)
        );
        // Asymmetric references pin which arm divides: (20 − 8) / (8 − 5)
        // and (7 − 3) / (11 − 7) — not the CI's full width.
        assert_eq!(
            deviation(ci(20.0, 25.0, 30.0), ci(4.0, 5.0, 8.0)),
            Some(4.0)
        );
        assert_eq!(deviation(ci(1.0, 2.0, 3.0), ci(7.0, 11.0, 12.0)), Some(1.0));
        // A zero-width reference arm is floored at 0.1 ms: 5 / 0.1.
        let d = deviation(ci(10.0, 11.0, 12.0), ci(5.0, 5.0, 5.0)).unwrap();
        assert!((d - 50.0).abs() < 1e-9, "{d}");
    }

    #[test]
    fn eq6_needs_disjoint_intervals_and_a_one_ms_gap() {
        // Overlapping and touching intervals never alarm.
        assert_eq!(deviation(ci(5.5, 6.5, 7.5), ci(4.0, 5.0, 6.0)), None);
        assert_eq!(deviation(ci(6.0, 7.0, 8.0), ci(4.0, 5.0, 6.0)), None);
        // Disjoint but |5.80 − 5.01| < 1 ms.
        assert_eq!(deviation(ci(5.75, 5.80, 5.85), ci(5.00, 5.01, 5.02)), None);
        let stat = LinkStat {
            ci: ci(1.0, 2.0, 3.0),
        };
        let alarm = delay_alarm(
            link(),
            BinId(1),
            &stat,
            &ci(10.0, 11.0, 12.0),
            &DetectorConfig::default(),
        )
        .unwrap();
        assert_eq!(alarm.direction, Direction::Decrease);
        assert_eq!(alarm.median_shift_ms(), 9.0);
    }

    #[test]
    fn eq7_warms_up_on_the_median_of_the_first_bins_then_smooths() {
        let cfg = DetectorConfig::default();
        let mut r = LinkReference::default();
        for (i, bin) in [ci(4.0, 5.0, 6.0), ci(4.4, 5.4, 6.4), ci(4.2, 5.2, 6.2)]
            .into_iter()
            .enumerate()
        {
            assert!(r.interval().is_none(), "ready after {i} bins");
            r.update(bin, &cfg);
        }
        assert_eq!(
            r.interval(),
            Some(ConfidenceInterval::new(4.2, 5.2, 6.2, 0))
        );
        // m̄ ← α m + (1 − α) m̄ with α = 0.01.
        r.update(ci(100.0, 150.0, 200.0), &cfg);
        let m = r.interval().unwrap().median;
        assert_eq!(m, 0.01 * 150.0 + 0.99 * 5.2);
        // One anomalous warm-up bin does not poison the median.
        let mut r = LinkReference::default();
        for bin in [
            ci(4.0, 5.0, 6.0),
            ci(200.0, 250.0, 300.0),
            ci(4.2, 5.1, 6.1),
        ] {
            r.update(bin, &cfg);
        }
        assert_eq!(r.interval().unwrap().median, 5.1);
        // A zero-bin warm-up takes one bin.
        let zero = DetectorConfig {
            warmup_bins: 0,
            ..cfg
        };
        let mut r = LinkReference::default();
        r.update(ci(1.0, 2.0, 3.0), &zero);
        assert_eq!(r.interval().unwrap().median, 2.0);
    }

    /// One link seen by probes `(probe, asn)`, one sample each.
    fn probes(spec: &[(u32, u32)]) -> LinkSamples {
        spec.iter()
            .map(|&(p, a)| (ProbeId(p), (Asn(a), vec![f64::from(p)])))
            .collect()
    }

    #[test]
    fn section_4_3_paper_example_rebalances_the_dominant_as() {
        // 98 probes in 5 ASes, 90 of them in AS 100: H = 0.246 ≤ 0.5. The
        // dominant AS loses probes until its count n gives H > 0.5, which
        // first holds at n = 30 (H = 0.5011) — so 30 + 4 × 2 probes stay.
        let mut spec: Vec<(u32, u32)> = (0..90).map(|p| (p, 100)).collect();
        for (i, asn) in [200, 300, 400, 500].into_iter().enumerate() {
            spec.push((100 + 2 * i as u32, asn));
            spec.push((101 + 2 * i as u32, asn));
        }
        let cfg = DetectorConfig::default();
        let kept = diverse_samples(&probes(&spec), &cfg, &mut SplitMix64::new(5)).unwrap();
        assert_eq!(kept.len(), 38);
        assert_eq!(kept.iter().filter(|&&s| s >= 100.0).count(), 8);
        // Fewer than three ASes: discarded. Balanced: everything stays.
        let two = probes(&[(1, 100), (2, 100), (3, 200)]);
        assert_eq!(diverse_samples(&two, &cfg, &mut SplitMix64::new(1)), None);
        let three = probes(&[(1, 100), (2, 200), (3, 300)]);
        assert_eq!(
            diverse_samples(&three, &cfg, &mut SplitMix64::new(1)),
            Some(vec![1.0, 2.0, 3.0])
        );
    }

    fn pattern(spec: &[(Option<&str>, f64)]) -> Pattern {
        spec.iter()
            .map(|&(hop, n)| (hop.map_or(NextHop::Unresponsive, |a| NextHop::Ip(ip(a))), n))
            .collect()
    }

    #[test]
    fn eq8_smooths_over_the_union_of_next_hops() {
        let cfg = DetectorConfig {
            alpha: 0.5,
            ..DetectorConfig::default()
        };
        let mut r = PatternReference::default();
        // The first pattern is the first reference.
        r.update(&pattern(&[(Some("10.0.0.1"), 100.0)]), &cfg);
        assert_eq!(r.smoothed, pattern(&[(Some("10.0.0.1"), 100.0)]));
        // An unseen hop decays from its count, a new one enters from 0.
        r.update(&pattern(&[(Some("10.0.0.2"), 40.0)]), &cfg);
        assert_eq!(
            r.smoothed,
            pattern(&[(Some("10.0.0.1"), 50.0), (Some("10.0.0.2"), 20.0)])
        );
        // A hop decayed below 0.05 packets is dropped.
        let mut r = PatternReference::default();
        r.update(
            &pattern(&[(Some("10.0.0.1"), 1.0), (Some("10.0.0.2"), 50.0)]),
            &cfg,
        );
        for n in 1..=5 {
            r.update(&pattern(&[(Some("10.0.0.2"), 50.0)]), &cfg);
            let a = count(&r.smoothed, &NextHop::Ip(ip("10.0.0.1")));
            assert_eq!(a, if n < 5 { 0.5f64.powi(n) } else { 0.0 }, "after {n}");
        }
    }

    fn key() -> PatternKey {
        PatternKey {
            router: ip("10.0.0.1"),
            dst: ip("198.51.100.1"),
        }
    }

    #[test]
    fn eq9_attributes_the_figure_4_route_change() {
        // Reference A = 10, B = 100, Z = 5; the bin moves B's traffic to a
        // new hop C: A = 10, C = 50, Z = 15. Over [A, B, C, Z]:
        // F = [10, 0, 50, 15], F̄ = [10, 100, 0, 5]; the centred cross
        // product is −1981.25, the sums of squares 1418.75 and 6818.75,
        // and Σ|pⱼ − p̄ⱼ| = 160.
        let (a, b, c) = ("10.0.1.1", "10.0.1.2", "10.0.1.3");
        let reference = pattern(&[(Some(a), 10.0), (Some(b), 100.0), (None, 5.0)]);
        let observed = pattern(&[(Some(a), 10.0), (Some(c), 50.0), (None, 15.0)]);
        let cfg = DetectorConfig::default();
        let alarm = forwarding_alarm(key(), BinId(2), &observed, &reference, &cfg).unwrap();
        let rho = -1981.25 / (1418.75f64 * 6818.75).sqrt();
        assert!((alarm.rho - rho).abs() < 1e-12, "ρ = {}", alarm.rho);
        let want = [
            (NextHop::Ip(ip(b)), -rho * -100.0 / 160.0),
            (NextHop::Ip(ip(a)), 0.0),
            (NextHop::Unresponsive, -rho * 10.0 / 160.0),
            (NextHop::Ip(ip(c)), -rho * 50.0 / 160.0),
        ];
        assert_eq!(alarm.responsibilities.len(), want.len());
        for ((hop, r), (want_hop, want_r)) in alarm.responsibilities.iter().zip(want) {
            assert_eq!(*hop, want_hop);
            assert!((r - want_r).abs() < 1e-12, "{hop}: {r} vs {want_r}");
        }
    }

    #[test]
    fn eq9_alarms_only_below_tau_with_enough_packets() {
        let (a, b) = ("10.0.1.1", "10.0.1.2");
        let cfg = DetectorConfig::default();
        let reference = pattern(&[(Some(a), 60.0), (Some(b), 40.0)]);
        // Swapped shares: ρ = −1 < τ.
        let swapped = pattern(&[(Some(a), 40.0), (Some(b), 60.0)]);
        let alarm = forwarding_alarm(key(), BinId(1), &swapped, &reference, &cfg).unwrap();
        assert!((alarm.rho + 1.0).abs() < 1e-12, "ρ = {}", alarm.rho);
        // A mild shift keeps ρ = +1 ≥ τ.
        let mild = pattern(&[(Some(a), 55.0), (Some(b), 45.0)]);
        assert!(forwarding_alarm(key(), BinId(1), &mild, &reference, &cfg).is_none());
        // Entirely flipped, but 3 packets < min_pattern_packets.
        let few = pattern(&[(Some("10.0.1.9"), 3.0)]);
        assert!(forwarding_alarm(key(), BinId(1), &few, &reference, &cfg).is_none());
        // No reference yet: no alarm.
        assert!(forwarding_alarm(key(), BinId(0), &swapped, &Pattern::new(), &cfg).is_none());
    }

    fn record(probe: u32, asn: u32, hops: Vec<Hop>) -> TracerouteRecord {
        TracerouteRecord {
            msm_id: MeasurementId(1),
            probe_id: ProbeId(probe),
            probe_asn: Asn(asn),
            dst: ip("198.51.100.1"),
            timestamp: SimTime(0),
            paris_id: 0,
            hops,
            destination_reached: true,
        }
    }

    fn hop(ttl: u8, replies: &[(Option<&str>, f64)]) -> Hop {
        Hop::new(
            ttl,
            replies
                .iter()
                .map(|&(from, rtt)| from.map_or(Reply::TIMEOUT, |a| Reply::new(ip(a), rtt)))
                .collect(),
        )
    }

    #[test]
    fn collectors_follow_sections_4_2_1_and_5_1() {
        let (x, y) = (Some("10.0.0.1"), Some("10.0.1.1"));
        let records = [
            // Every Y − X: 2 × 2 samples, one negative.
            record(
                1,
                100,
                vec![hop(1, &[(x, 1.0), (x, 3.0)]), hop(2, &[(y, 2.0), (y, 5.0)])],
            ),
            // The same probe under another AS stays in AS 100; the router
            // repeating itself is not a next hop, a timeout counts for Z.
            record(
                1,
                200,
                vec![
                    hop(1, &[(x, 1.0)]),
                    hop(2, &[(y, 4.0), (x, 9.0), (None, 0.0)]),
                ],
            ),
        ];
        let samples = link_samples(&records);
        let mut got = samples[&link()][&ProbeId(1)].clone();
        got.1.sort_by(f64::total_cmp);
        assert_eq!(got, (Asn(100), vec![-1.0, 1.0, 2.0, 3.0, 4.0]));
        assert_eq!(
            patterns(&records),
            BTreeMap::from([(key(), pattern(&[(y, 3.0), (None, 1.0)]))])
        );
    }
}
