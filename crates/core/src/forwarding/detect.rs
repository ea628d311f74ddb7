//! Forwarding-anomaly detection and next-hop identification (§5.2).
//!
//! A pattern F is anomalous when its Pearson correlation with the reference
//! F̄ (aligned over the union of next hops) falls below τ = −0.25. The per-
//! hop responsibility score (Eq. 9) then attributes the change:
//!
//! ```text
//! rᵢ = −ρ_{F,F̄} · (pᵢ − p̄ᵢ) / Σⱼ |pⱼ − p̄ⱼ|
//! ```
//!
//! positive rᵢ → hop newly receiving traffic; negative rᵢ → hop starved of
//! its usual packets (or dropping them).
//!
//! [`check_with`] reads a bin's pattern straight from the engine's arena
//! ([`PatternSlice`]); the oracle in `pinpoint-bench` recomputes the same
//! alarms from its own ordered maps.

use super::pattern::{NextHop, PatternKey, PatternSlice};
use super::reference::PatternReference;
use crate::config::DetectorConfig;
use pinpoint_model::BinId;
use pinpoint_stats::correlation::pearson;
use std::fmt;

/// A reported forwarding anomaly.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardingAlarm {
    /// The router whose forwarding changed.
    pub router: std::net::Ipv4Addr,
    /// The traceroute destination the model is specific to.
    pub dst: std::net::Ipv4Addr,
    /// The bin of the anomaly.
    pub bin: BinId,
    /// Pearson correlation ρ(F, F̄) — below τ by construction.
    pub rho: f64,
    /// Responsibility per next hop, most negative first.
    pub responsibilities: Vec<(NextHop, f64)>,
}

impl ForwardingAlarm {
    /// The hop with the most negative responsibility (the vanished /
    /// dropping hop), if any.
    pub fn most_devalued(&self) -> Option<&(NextHop, f64)> {
        self.responsibilities.first()
    }
}

impl fmt::Display for ForwardingAlarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "router {} → {} @{}: ρ={:.2}",
            self.router, self.dst, self.bin, self.rho
        )?;
        for (hop, r) in self.responsibilities.iter().take(4) {
            write!(f, " [{hop}: {r:+.2}]")?;
        }
        Ok(())
    }
}

/// Reusable alignment buffers: one per engine shard, so steady-state bins
/// run the check loop without allocating.
#[derive(Debug, Default)]
pub struct AlignScratch {
    hops: Vec<NextHop>,
    f: Vec<f64>,
    fbar: Vec<f64>,
}

impl AlignScratch {
    /// Align observed and reference over the sorted union of their hops.
    /// Sort + dedup of a `Vec` produces the identical hop order the
    /// original `BTreeSet` alignment did (ascending by `Ord`).
    fn align(&mut self, observed: &PatternSlice<'_>, reference: &PatternReference) {
        self.hops.clear();
        self.hops.extend(observed.iter().map(|(h, _)| h));
        self.hops.extend(reference.iter().map(|(h, _)| *h));
        self.hops.sort_unstable();
        self.hops.dedup();
        self.f.clear();
        self.fbar.clear();
        for h in &self.hops {
            self.f.push(observed.get(h));
            self.fbar.push(reference.get(h));
        }
    }
}

/// Eq. 9 responsibility scores for an anomalous pattern.
pub fn responsibilities(
    hops: &[NextHop],
    f: &[f64],
    fbar: &[f64],
    rho: f64,
) -> Vec<(NextHop, f64)> {
    let denom: f64 = f.iter().zip(fbar).map(|(p, pb)| (p - pb).abs()).sum();
    if denom <= 0.0 {
        return Vec::new();
    }
    let mut out: Vec<(NextHop, f64)> = hops
        .iter()
        .zip(f.iter().zip(fbar))
        .map(|(h, (p, pb))| (*h, -rho * (p - pb) / denom))
        .collect();
    out.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    out
}

/// Compare one bin's pattern against its reference, in caller-owned
/// alignment buffers (the engine keeps one [`AlignScratch`] per shard,
/// so a steady bin allocates nothing here).
pub fn check_with(
    scratch: &mut AlignScratch,
    key: &PatternKey,
    bin: BinId,
    observed: &PatternSlice<'_>,
    reference: &PatternReference,
    cfg: &DetectorConfig,
) -> Option<ForwardingAlarm> {
    if !reference.is_ready() {
        return None;
    }
    if observed.total() < cfg.min_pattern_packets {
        return None;
    }
    scratch.align(observed, reference);
    if scratch.hops.len() < 2 {
        return None; // correlation undefined on a single hop
    }
    let rho = pearson(&scratch.f, &scratch.fbar)?;
    if rho >= cfg.forwarding_tau {
        return None;
    }
    let responsibilities = responsibilities(&scratch.hops, &scratch.f, &scratch.fbar, rho);
    Some(ForwardingAlarm {
        router: key.router,
        dst: key.dst,
        bin,
        rho,
        responsibilities,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// A hand-made bin pattern, viewed as the engine's [`PatternSlice`].
    #[derive(Default)]
    struct Pattern {
        hops: Vec<NextHop>,
        counts: Vec<(u32, f64)>,
    }

    impl Pattern {
        fn add(&mut self, hop: NextHop, packets: f64) {
            self.counts.push((self.hops.len() as u32, packets));
            self.hops.push(hop);
        }

        fn slice(&self) -> PatternSlice<'_> {
            PatternSlice::from_parts(key(), &self.counts, &self.hops)
        }
    }

    fn pattern(spec: &[(&str, f64)], unresp: f64) -> Pattern {
        let mut p = Pattern::default();
        for (a, c) in spec {
            p.add(NextHop::Ip(ip(a)), *c);
        }
        if unresp > 0.0 {
            p.add(NextHop::Unresponsive, unresp);
        }
        p
    }

    fn reference(spec: &[(&str, f64)], unresp: f64) -> PatternReference {
        let mut r = PatternReference::new(&DetectorConfig::default());
        r.update_from(pattern(spec, unresp).slice().iter());
        r
    }

    fn key() -> PatternKey {
        PatternKey {
            router: ip("10.0.0.1"),
            dst: ip("198.51.100.1"),
        }
    }

    fn check(
        key: &PatternKey,
        bin: BinId,
        observed: &Pattern,
        reference: &PatternReference,
        cfg: &DetectorConfig,
    ) -> Option<ForwardingAlarm> {
        let mut scratch = AlignScratch::default();
        check_with(&mut scratch, key, bin, &observed.slice(), reference, cfg)
    }

    #[test]
    fn stable_pattern_no_alarm() {
        let cfg = DetectorConfig::default();
        let r = reference(&[("10.0.1.1", 10.0), ("10.0.1.2", 100.0)], 5.0);
        let obs = pattern(&[("10.0.1.1", 11.0), ("10.0.1.2", 95.0)], 6.0);
        assert!(check(&key(), BinId(1), &obs, &r, &cfg).is_none());
    }

    #[test]
    fn figure4_scenario_detected_with_correct_attribution() {
        // Reference: A=10, B=100, Z=5. Anomalous: traffic leaves B for a
        // new hop C (paper Fig. 4).
        let cfg = DetectorConfig::default();
        let r = reference(&[("10.0.1.1", 10.0), ("10.0.1.2", 100.0)], 5.0);
        let obs = pattern(&[("10.0.1.1", 10.0), ("10.0.1.3", 50.0)], 15.0);
        let alarm = check(&key(), BinId(2), &obs, &r, &cfg).expect("anomaly");
        assert!(alarm.rho < -0.25);
        // B most devalued; C strongly positive; A near zero.
        let get = |a: &str| {
            alarm
                .responsibilities
                .iter()
                .find(|(h, _)| *h == NextHop::Ip(ip(a)))
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(
            get("10.0.1.2") < -0.1,
            "B not devalued: {}",
            get("10.0.1.2")
        );
        assert!(get("10.0.1.3") > 0.1, "C not promoted: {}", get("10.0.1.3"));
        assert!(
            get("10.0.1.1").abs() < 0.05,
            "A blamed: {}",
            get("10.0.1.1")
        );
        assert_eq!(
            alarm.most_devalued().unwrap().0,
            NextHop::Ip(ip("10.0.1.2"))
        );
    }

    #[test]
    fn packet_loss_blames_vanished_hop_and_credits_z() {
        // The AMS-IX signature: next hop B disappears, packets black-holed
        // (Z explodes). B gets negative responsibility, Z positive.
        let cfg = DetectorConfig::default();
        let r = reference(&[("80.81.192.1", 100.0)], 3.0);
        let obs = {
            let mut p = Pattern::default();
            p.add(NextHop::Unresponsive, 100.0);
            p.add(NextHop::Ip(ip("80.81.192.1")), 2.0);
            p
        };
        let alarm = check(&key(), BinId(3), &obs, &r, &cfg).expect("anomaly");
        let (hop, score) = alarm.most_devalued().unwrap();
        assert_eq!(*hop, NextHop::Ip(ip("80.81.192.1")));
        assert!(*score < -0.2);
        let z = alarm
            .responsibilities
            .iter()
            .find(|(h, _)| *h == NextHop::Unresponsive)
            .unwrap()
            .1;
        assert!(z > 0.2, "Z not credited: {z}");
    }

    #[test]
    fn responsibilities_sum_bounded() {
        // |Σ rᵢ| ≤ |ρ| and each |rᵢ| ≤ 1.
        let cfg = DetectorConfig::default();
        let r = reference(&[("10.0.1.1", 50.0), ("10.0.1.2", 50.0)], 0.0);
        let obs = pattern(&[("10.0.1.3", 80.0)], 20.0);
        let alarm = check(&key(), BinId(1), &obs, &r, &cfg).expect("anomaly");
        let total: f64 = alarm.responsibilities.iter().map(|(_, v)| v).sum();
        assert!(total.abs() <= alarm.rho.abs() + 1e-9);
        for (_, v) in &alarm.responsibilities {
            assert!(v.abs() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn too_few_packets_suppressed() {
        let cfg = DetectorConfig::default();
        let r = reference(&[("10.0.1.1", 100.0)], 0.0);
        // Entirely flipped, but only 3 packets — below min_pattern_packets.
        let obs = pattern(&[("10.0.1.9", 3.0)], 0.0);
        assert!(check(&key(), BinId(1), &obs, &r, &cfg).is_none());
    }

    #[test]
    fn unwarmed_reference_never_alarms() {
        let cfg = DetectorConfig::default();
        let r = PatternReference::new(&cfg);
        let obs = pattern(&[("10.0.1.9", 100.0)], 0.0);
        assert!(check(&key(), BinId(0), &obs, &r, &cfg).is_none());
    }

    #[test]
    fn weak_anticorrelation_below_tau_required() {
        let cfg = DetectorConfig::default();
        // Mild shift: correlation stays positive → no alarm.
        let r = reference(&[("10.0.1.1", 60.0), ("10.0.1.2", 40.0)], 0.0);
        let obs = pattern(&[("10.0.1.1", 40.0), ("10.0.1.2", 60.0)], 0.0);
        let out = check(&key(), BinId(1), &obs, &r, &cfg);
        // Perfectly swapped two-hop pattern is ρ = −1 — that IS an alarm;
        // verify the detector honours τ with a milder case.
        assert!(out.is_some());
        let r2 = reference(&[("10.0.1.1", 60.0), ("10.0.1.2", 40.0)], 0.0);
        let obs2 = pattern(&[("10.0.1.1", 55.0), ("10.0.1.2", 45.0)], 0.0);
        assert!(check(&key(), BinId(1), &obs2, &r2, &cfg).is_none());
    }
}
