//! Smoothed forwarding-pattern references (Eq. 8).
//!
//! `F̄_t = α F_t + (1 − α) F̄_{t−1}` with hop alignment: hops unseen in the
//! new pattern decay towards zero; first-seen hops enter from zero. Decayed
//! hops are pruned below a small floor so long-gone next hops don't bloat
//! the model (the paper reports ~4 next hops per model on average).

use super::pattern::NextHop;
use crate::config::DetectorConfig;
use crate::engine::SnapshotKey;
use crate::snapshot::{Reader, SnapshotError, Writer};
use pinpoint_stats::smoothing::VectorEwma;

/// Count floor below which a next hop is dropped from the reference.
const PRUNE_BELOW: f64 = 0.05;

/// The learned reference pattern of one (router, destination).
#[derive(Debug, Clone)]
pub struct PatternReference {
    ewma: VectorEwma<NextHop>,
}

impl PatternReference {
    /// Fresh reference.
    pub fn new(cfg: &DetectorConfig) -> Self {
        PatternReference {
            ewma: VectorEwma::new(cfg.alpha),
        }
    }

    /// Whether at least one bin has been folded in.
    pub fn is_ready(&self) -> bool {
        !self.ewma.is_empty()
    }

    /// Smoothed count for a next hop.
    pub fn get(&self, hop: &NextHop) -> f64 {
        self.ewma.get(hop)
    }

    /// Number of next hops in the reference.
    pub fn len(&self) -> usize {
        self.ewma.len()
    }

    /// Whether the reference is empty.
    pub fn is_empty(&self) -> bool {
        self.ewma.is_empty()
    }

    /// All `(hop, smoothed count)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&NextHop, f64)> {
        self.ewma.iter()
    }

    /// Serialize the smoothed `(hop, count)` vector. The smoother's
    /// `BTreeMap` already iterates in key order, so the bytes are stable.
    /// α is derived from the config on restore, not repeated per pattern.
    pub(crate) fn snapshot_into(&self, w: &mut Writer) {
        w.seq(self.ewma.len());
        for (hop, count) in self.ewma.iter() {
            hop.write(w);
            w.f64(count);
        }
    }

    /// Rebuild a reference from [`PatternReference::snapshot_into`] bytes.
    pub(crate) fn restore_from(
        r: &mut Reader<'_>,
        cfg: &DetectorConfig,
    ) -> Result<Self, SnapshotError> {
        let n = r.seq()?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push((NextHop::read(r)?, r.f64()?));
        }
        Ok(PatternReference {
            ewma: VectorEwma::from_parts(cfg.alpha, values),
        })
    }

    /// Fold an observed `(hop, packets)` vector into the reference, fed
    /// straight from a [`PatternSlice`](super::pattern::PatternSlice)
    /// without building a map. The smoother collects into a `BTreeMap`
    /// internally, so the result is independent of iteration order.
    pub fn update_from<I: IntoIterator<Item = (NextHop, f64)>>(&mut self, observed: I) {
        self.ewma.update(observed, PRUNE_BELOW);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn pattern(spec: &[(&str, f64)], unresp: f64) -> Vec<(NextHop, f64)> {
        let mut p: Vec<(NextHop, f64)> =
            spec.iter().map(|(a, c)| (NextHop::Ip(ip(a)), *c)).collect();
        if unresp > 0.0 {
            p.push((NextHop::Unresponsive, unresp));
        }
        p
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig::default()
    }

    #[test]
    fn first_observation_becomes_reference() {
        let mut r = PatternReference::new(&cfg());
        assert!(!r.is_ready());
        r.update_from(pattern(&[("10.0.0.1", 10.0), ("10.0.0.2", 100.0)], 5.0));
        assert!(r.is_ready());
        assert_eq!(r.get(&NextHop::Ip(ip("10.0.0.1"))), 10.0);
        assert_eq!(r.get(&NextHop::Unresponsive), 5.0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn missing_hop_decays_new_hop_grows() {
        let mut c = cfg();
        c.alpha = 0.5;
        let mut r = PatternReference::new(&c);
        r.update_from(pattern(&[("10.0.0.1", 100.0)], 0.0));
        r.update_from(pattern(&[("10.0.0.2", 40.0)], 0.0));
        assert_eq!(r.get(&NextHop::Ip(ip("10.0.0.1"))), 50.0);
        assert_eq!(r.get(&NextHop::Ip(ip("10.0.0.2"))), 20.0);
    }

    #[test]
    fn long_gone_hops_are_pruned() {
        let mut c = cfg();
        c.alpha = 0.5;
        let mut r = PatternReference::new(&c);
        r.update_from(pattern(&[("10.0.0.1", 1.0), ("10.0.0.2", 50.0)], 0.0));
        for _ in 0..30 {
            r.update_from(pattern(&[("10.0.0.2", 50.0)], 0.0));
        }
        assert_eq!(r.get(&NextHop::Ip(ip("10.0.0.1"))), 0.0);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn small_alpha_resists_transient_shift() {
        let mut r = PatternReference::new(&cfg());
        r.update_from(pattern(&[("10.0.0.1", 100.0)], 0.0));
        // One anomalous bin: everything shifted to a new hop.
        r.update_from(pattern(&[("10.0.0.9", 100.0)], 0.0));
        // Reference still overwhelmingly favours the original hop.
        assert!(r.get(&NextHop::Ip(ip("10.0.0.1"))) > 90.0);
        assert!(r.get(&NextHop::Ip(ip("10.0.0.9"))) < 2.0);
    }
}
