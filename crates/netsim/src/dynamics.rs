//! Link dynamics: utilization, queueing delay, loss, and per-packet noise.
//!
//! The model reproduces the statistical texture that motivates the paper's
//! robust estimators (§3, Challenge 2):
//!
//! * **Queueing** — each link has a stable base utilization, a gentle
//!   diurnal swing, and per-hour jitter; queueing delay follows the
//!   M/M/1-shaped `u/(1−u)` curve scaled by capacity class. Events add
//!   `extra_util`, which is how DDoS congestion and leak-attracted traffic
//!   surface as tens-to-hundreds of milliseconds.
//! * **Loss** — negligible below a utilization knee, then rising steeply
//!   (REDish AQM): heavy congestion mostly *delays* packets and only drops
//!   a few, matching the K-root observation that "packet loss at root
//!   servers has been negligible" while delays soared. Events can also
//!   force loss outright (IXP fabric outage → loss = 1).
//! * **Per-packet noise** — a log-normal body, occasional Pareto slow-path
//!   spikes (ICMP generation on the router CPU, \[28\]), and rare gross
//!   outliers. The outliers are what break the arithmetic mean in Fig. 3b
//!   while leaving the median untouched.
//!
//! Everything is a pure function of `(seed, link, bin | packet identity)` —
//! no hidden state — so traceroute results are reproducible and
//! time-travel queries are allowed.

use crate::ids::{LinkId, RouterId};
use crate::topology::{CapacityClass, Link};
use pinpoint_model::records::{Hop, TracerouteRecord};
use pinpoint_model::SimTime;
use pinpoint_stats::distributions::{LogNormal, Pareto};
use pinpoint_stats::rng::SplitMix64;

fn mix(a: u64, b: u64, c: u64, d: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x
        .rotate_left(27)
        .wrapping_add(c)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = x
        .rotate_left(31)
        .wrapping_add(d)
        .wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 30)
}

/// Parameters of the delay/queueing model.
#[derive(Debug, Clone)]
pub struct DelayModel {
    seed: u64,
    /// Base utilization is drawn uniformly from this range per link.
    pub base_util: (f64, f64),
    /// Peak-to-mean amplitude of the diurnal utilization swing.
    pub diurnal_amplitude: f64,
    /// Std-dev of per-hour utilization jitter.
    pub hourly_jitter: f64,
    /// Queue delay at u = 0.5 for a [`CapacityClass::Standard`] link (ms).
    pub queue_scale_ms: f64,
}

impl DelayModel {
    /// Model with the defaults used by the scenarios.
    pub fn new(seed: u64) -> Self {
        DelayModel {
            seed,
            base_util: (0.15, 0.45),
            diurnal_amplitude: 0.04,
            hourly_jitter: 0.01,
            queue_scale_ms: 1.0,
        }
    }

    fn capacity_factor(c: CapacityClass) -> f64 {
        match c {
            // Big pipes queue less at a given utilization.
            CapacityClass::Backbone => 0.5,
            CapacityClass::Standard => 1.0,
            CapacityClass::Edge => 1.6,
        }
    }

    /// Stable per-link base utilization.
    pub fn base_utilization(&self, link: LinkId) -> f64 {
        let mut r = SplitMix64::new(mix(self.seed, 0xBA5E, link.0 as u64, 0));
        r.next_range_f64(self.base_util.0, self.base_util.1)
    }

    /// Utilization of a link at time `t`, including `extra` from events.
    ///
    /// Clamped to `[0.01, 0.98]`: the cap keeps the `u/(1−u)` queue finite
    /// and bounds single-link event deltas at realistic levels (tens of
    /// milliseconds; the paper's largest per-link shifts come from several
    /// congested links stacking along a path).
    pub fn utilization(&self, link: LinkId, t: SimTime, extra: f64) -> f64 {
        let base = self.base_utilization(link);
        let hour_of_day = (t.secs() % 86_400) as f64 / 3600.0;
        // Per-link phase so the world is not synchronized.
        let phase = (mix(self.seed, 0x0D1A, link.0 as u64, 1) % 24) as f64;
        let diurnal = self.diurnal_amplitude
            * (2.0 * std::f64::consts::PI * (hour_of_day + phase) / 24.0).sin();
        let bin = t.secs() / 3600;
        let mut r = SplitMix64::new(mix(self.seed, 0x7177, link.0 as u64, bin));
        let jitter = (r.next_f64() - 0.5) * 2.0 * self.hourly_jitter;
        (base + diurnal + jitter + extra).clamp(0.01, 0.98)
    }

    /// One-way delay contribution of a link at time `t` (ms): propagation
    /// plus queueing.
    pub fn link_delay_ms(&self, link: &Link, t: SimTime, extra_util: f64) -> f64 {
        let u = self.utilization(link.id, t, extra_util);
        let queue = self.queue_scale_ms * Self::capacity_factor(link.capacity) * u / (1.0 - u);
        link.base_delay_ms + queue
    }
}

/// Parameters of the loss model.
#[derive(Debug, Clone)]
pub struct LossModel {
    seed: u64,
    /// Utilization above which AQM starts dropping.
    pub knee: f64,
    /// Loss probability as utilization reaches 1.0.
    pub max_loss: f64,
    /// Background random loss floor (transmission errors etc.).
    pub floor: f64,
}

impl LossModel {
    /// Model with the defaults used by the scenarios.
    ///
    /// The knee sits high: AQM keeps loss negligible until links approach
    /// saturation (§3 Challenge 3 — "routers implementing active queue
    /// management … drop packets to avoid significant delay increase", yet
    /// the root-server DDoS showed huge delays with negligible loss).
    pub fn new(seed: u64) -> Self {
        LossModel {
            seed,
            knee: 0.95,
            max_loss: 0.5,
            floor: 2e-4,
        }
    }

    /// Loss probability on a link at utilization `u`, with `forced` loss
    /// from events (e.g. a fabric outage) overriding upward.
    pub fn loss_probability(&self, u: f64, forced: f64) -> f64 {
        let congestion = if u <= self.knee {
            0.0
        } else {
            let x = (u - self.knee) / (1.0 - self.knee);
            x * x * self.max_loss
        };
        (self.floor + congestion).max(forced).clamp(0.0, 1.0)
    }

    /// Deterministic per-packet drop decision.
    ///
    /// The packet identity `(link, t, flow, salt)` seeds the draw, so
    /// repeating a query replays the same fate.
    pub fn drops(&self, link: LinkId, t: SimTime, flow: u64, salt: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let mut r = SplitMix64::new(mix(self.seed ^ salt, link.0 as u64, t.secs(), flow));
        r.next_bool(p)
    }
}

/// Parameters of the per-packet noise model.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    seed: u64,
    body: LogNormal,
    /// Probability of an ICMP slow-path spike.
    pub spike_prob: f64,
    spike: Pareto,
    /// Probability of a gross measurement outlier.
    pub outlier_prob: f64,
    outlier: Pareto,
    /// Cap applied to any single noise draw (ms).
    pub cap_ms: f64,
    icmp_gen: LogNormal,
}

impl NoiseModel {
    /// Model with the defaults used by the scenarios.
    ///
    /// Tuned so a well-observed link's hourly Wilson CI spans a few hundred
    /// microseconds to a few milliseconds — matching Fig. 2, where raw
    /// differential RTTs have σ ≈ 12 ms yet medians move less than 0.2 ms.
    pub fn new(seed: u64) -> Self {
        NoiseModel {
            seed,
            body: LogNormal::from_median(0.25, 0.7),
            spike_prob: 0.03,
            spike: Pareto::new(2.5, 1.4),
            outlier_prob: 4e-4,
            outlier: Pareto::new(80.0, 1.2),
            cap_ms: 3000.0,
            icmp_gen: LogNormal::from_median(0.35, 0.7),
        }
    }

    /// Per-packet additive RTT noise for a reply from `router` (ms).
    ///
    /// Includes the router's ICMP generation time (slow path) and the
    /// stochastic components described in the module docs.
    pub fn rtt_noise_ms(&self, router: RouterId, t: SimTime, flow: u64, packet: u64) -> f64 {
        let mut r = SplitMix64::new(mix(
            self.seed,
            router.0 as u64,
            t.secs().wrapping_mul(3).wrapping_add(packet),
            flow,
        ));
        let mut total = self.body.sample(&mut r) + self.icmp_gen.sample(&mut r);
        if r.next_bool(self.spike_prob) {
            total += self.spike.sample(&mut r);
        }
        if r.next_bool(self.outlier_prob) {
            total += self.outlier.sample(&mut r);
        }
        total.min(self.cap_ms)
    }
}

/// Measurement-artifact injection: corrupts *emitted* traceroute records
/// the way real Atlas feeds are corrupted, while the network engine itself
/// stays clean and pure.
///
/// The noise models above perturb what the network genuinely did; this
/// model perturbs what the *measurement* claims the network did — the
/// artifact classes the traceroute-artifact literature catalogs and the
/// paper's deployment has to survive:
///
/// * **Per-flow load-balancer path divergence** — some probe packets take
///   a sibling ECMP branch, so one TTL's responses come from a router
///   that is not on the path the adjacent TTLs saw, fabricating IP links
///   that do not exist. A quarter of diverged hops instead replay a
///   router from two TTLs earlier — the measured-routing-loop shape that
///   load balancing paints into records, which a sanitizer must
///   quarantine rather than repair.
/// * **Wrong-hop reply attribution** — ICMP responses matched to the
///   wrong probe (netpoke measured 56 % mis-attributed replies in the
///   wild), modeled as adjacent TTLs swapping their reply sets: reversed
///   false links plus non-monotone RTTs.
/// * **Missing hops** — a TTL's responses are lost in collection, so the
///   hops on either side appear adjacent (another false link).
/// * **Duplicated hops** — the same router reported at two consecutive
///   TTLs (firmware off-by-one; loop-like records).
/// * **Probe clock skew** — a skewed probe inflates every RTT it reports
///   by a slowly drifting offset. Differential RTTs subtract near-hop
///   from far-hop times measured by the *same* probe, so a constant
///   offset cancels — injecting it proves that robustness.
///
/// Every decision is a pure function of `(seed, record identity)` — same
/// record, same corruption — so corrupted runs stay exactly reproducible
/// and chunking/streaming/pipelining cannot change what the detectors see.
/// Each artifact class has an independent `0.0–1.0` rate knob; a rate of
/// `0.0` disables the class, and [`ArtifactModel::new`] starts with every
/// class disabled.
#[derive(Debug, Clone)]
pub struct ArtifactModel {
    seed: u64,
    /// Per-hop probability that a middle hop's responses come from a
    /// divergent load-balancer sibling (same /24, different router),
    /// fabricating two false links around it; a quarter of the diverged
    /// hops instead repeat the router two TTLs back, painting a loop.
    pub false_link_rate: f64,
    /// Per-adjacent-pair probability that two TTLs swap their reply sets
    /// (wrong-hop ICMP attribution).
    pub wrong_hop_rate: f64,
    /// Per-hop probability that a middle hop vanishes from the record.
    pub missing_hop_rate: f64,
    /// Per-hop probability that a hop is duplicated at the next TTL.
    pub duplicate_hop_rate: f64,
    /// Fraction of probes whose clock is skewed.
    pub clock_skew_rate: f64,
    /// Largest per-probe clock-skew offset (ms); the actual offset drifts
    /// per hour within `[0.2, 1.0] ×` this.
    pub max_skew_ms: f64,
}

impl ArtifactModel {
    /// A clean model: every artifact class disabled.
    pub fn new(seed: u64) -> Self {
        ArtifactModel {
            seed,
            false_link_rate: 0.0,
            wrong_hop_rate: 0.0,
            missing_hop_rate: 0.0,
            duplicate_hop_rate: 0.0,
            clock_skew_rate: 0.0,
            max_skew_ms: 250.0,
        }
    }

    /// Mild corruption: a few percent of hops affected — the texture of a
    /// well-behaved production feed.
    pub fn mild(seed: u64) -> Self {
        ArtifactModel {
            false_link_rate: 0.02,
            wrong_hop_rate: 0.01,
            missing_hop_rate: 0.02,
            duplicate_hop_rate: 0.02,
            clock_skew_rate: 0.05,
            ..ArtifactModel::new(seed)
        }
    }

    /// Hostile corruption: every class an order of magnitude above mild —
    /// a feed no sane operator would ship, kept as the stress grade.
    pub fn hostile(seed: u64) -> Self {
        ArtifactModel {
            false_link_rate: 0.10,
            wrong_hop_rate: 0.06,
            missing_hop_rate: 0.08,
            duplicate_hop_rate: 0.08,
            clock_skew_rate: 0.25,
            ..ArtifactModel::new(seed)
        }
    }

    /// Whether any artifact class is enabled.
    pub fn is_active(&self) -> bool {
        self.false_link_rate > 0.0
            || self.wrong_hop_rate > 0.0
            || self.missing_hop_rate > 0.0
            || self.duplicate_hop_rate > 0.0
            || self.clock_skew_rate > 0.0
    }

    /// Stable per-record identity hash — every artifact class derives its
    /// own RNG from this, so tuning one class never shifts another's draws.
    fn record_ident(&self, rec: &TracerouteRecord) -> u64 {
        mix(
            self.seed,
            u64::from(rec.probe_id.0),
            rec.timestamp.secs(),
            (u64::from(rec.msm_id.0) << 16) ^ u64::from(rec.paris_id),
        )
    }

    /// Corrupt one emitted record in place (deterministically; see the
    /// type docs for the artifact classes and their application order:
    /// clock skew, wrong-hop swaps, load-balancer divergence, missing
    /// hops, duplicated hops).
    pub fn corrupt(&self, rec: &mut TracerouteRecord) {
        if !self.is_active() || rec.hops.is_empty() {
            return;
        }
        let ident = self.record_ident(rec);
        self.apply_clock_skew(rec);
        self.apply_wrong_hop(rec, ident);
        self.apply_false_links(rec, ident);
        self.apply_missing_hops(rec, ident);
        self.apply_duplicate_hops(rec, ident);
    }

    /// Clock skew: probe selection is persistent (a skewed probe stays
    /// skewed), the offset drifts per hour, and every responsive reply of
    /// the record shifts by the same amount — which differential RTTs
    /// cancel.
    fn apply_clock_skew(&self, rec: &mut TracerouteRecord) {
        if self.clock_skew_rate <= 0.0 {
            return;
        }
        let probe = u64::from(rec.probe_id.0);
        let mut sel = SplitMix64::new(mix(self.seed, 0x5E3A, probe, 0));
        if !sel.next_bool(self.clock_skew_rate) {
            return;
        }
        let hour = rec.timestamp.secs() / 3600;
        let mut drift = SplitMix64::new(mix(self.seed, 0x5E3B, probe, hour));
        let skew = drift.next_range_f64(0.2, 1.0) * self.max_skew_ms;
        for hop in &mut rec.hops {
            for reply in &mut hop.replies {
                if let Some(ms) = reply.rtt_ms {
                    reply.rtt_ms = Some(ms + skew);
                }
            }
        }
    }

    /// Wrong-hop attribution: adjacent TTLs swap their reply sets (the
    /// addresses AND the RTTs — the replies really arrived, they were
    /// just matched to the wrong probe packet).
    fn apply_wrong_hop(&self, rec: &mut TracerouteRecord, ident: u64) {
        if self.wrong_hop_rate <= 0.0 || rec.hops.len() < 2 {
            return;
        }
        let mut r = SplitMix64::new(mix(ident, 0x3209, 1, 0));
        for i in 0..rec.hops.len() - 1 {
            if r.next_bool(self.wrong_hop_rate) {
                let (a, b) = rec.hops.split_at_mut(i + 1);
                std::mem::swap(&mut a[i].replies, &mut b[0].replies);
            }
        }
    }

    /// Load-balancer path divergence: a middle hop's responses are
    /// rewritten to a sibling address in the same /24 (the parallel ECMP
    /// branch), fabricating `near → sibling` and `sibling → far` links.
    /// A quarter of the diverged hops instead repeat the responder from
    /// two TTLs back — the measured-routing-loop artifact, which is not
    /// repairable and must be quarantined downstream.
    fn apply_false_links(&self, rec: &mut TracerouteRecord, ident: u64) {
        if self.false_link_rate <= 0.0 || rec.hops.len() < 3 {
            return;
        }
        let mut r = SplitMix64::new(mix(ident, 0x71A8, 2, 0));
        let last = rec.hops.len() - 1;
        for i in 1..last {
            if !r.next_bool(self.false_link_rate) {
                continue;
            }
            let paint_loop = r.next_bool(0.25);
            let loop_target = if paint_loop && i >= 2 {
                rec.hops[i - 2].first_responder()
            } else {
                None
            };
            for reply in &mut rec.hops[i].replies {
                if let Some(ip) = reply.from {
                    reply.from = Some(loop_target.unwrap_or_else(|| {
                        let o = ip.octets();
                        std::net::Ipv4Addr::new(o[0], o[1], o[2], o[3] ^ 0x40)
                    }));
                }
            }
        }
    }

    /// Missing hops: middle hops vanish from the record entirely, so the
    /// hops on either side look adjacent.
    fn apply_missing_hops(&self, rec: &mut TracerouteRecord, ident: u64) {
        if self.missing_hop_rate <= 0.0 || rec.hops.len() < 3 {
            return;
        }
        let mut r = SplitMix64::new(mix(ident, 0x90F1, 3, 0));
        let last = rec.hops.len() - 1;
        let mut i = 0;
        rec.hops.retain(|_| {
            let middle = i > 0 && i < last;
            i += 1;
            !(middle && r.next_bool(self.missing_hop_rate))
        });
    }

    /// Duplicated hops: a hop reappears at the next TTL with jittered
    /// RTTs — the loop-shaped firmware artifact the sanitizer collapses.
    fn apply_duplicate_hops(&self, rec: &mut TracerouteRecord, ident: u64) {
        if self.duplicate_hop_rate <= 0.0 || rec.hops.is_empty() {
            return;
        }
        let mut r = SplitMix64::new(mix(ident, 0xD0B7, 4, 0));
        let mut out: Vec<Hop> = Vec::with_capacity(rec.hops.len() + 1);
        for hop in rec.hops.drain(..) {
            let duplicate = out.len() < 62 && r.next_bool(self.duplicate_hop_rate);
            if duplicate {
                let mut dup = hop.clone();
                for reply in &mut dup.replies {
                    if let Some(ms) = reply.rtt_ms {
                        reply.rtt_ms = Some(ms + r.next_range_f64(0.0, 0.4));
                    }
                }
                dup.ttl = dup.ttl.saturating_add(1);
                out.push(hop);
                out.push(dup);
            } else {
                out.push(hop);
            }
        }
        rec.hops = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkKind;
    use pinpoint_stats::quantile::median;

    fn link(id: u32, base: f64, cap: CapacityClass) -> Link {
        Link {
            id: LinkId(id),
            a: RouterId(0),
            b: RouterId(1),
            kind: LinkKind::IntraAs,
            capacity: cap,
            base_delay_ms: base,
        }
    }

    #[test]
    fn utilization_bounded_and_stable_per_bin() {
        let m = DelayModel::new(9);
        for lid in 0..50u32 {
            for h in 0..48u64 {
                let t = SimTime::from_hours(h);
                let u = m.utilization(LinkId(lid), t, 0.0);
                assert!((0.01..=0.98).contains(&u));
                // Same bin, same value.
                let u2 = m.utilization(LinkId(lid), t + SimTime(100), 0.0);
                // Jitter is per-hour; within-hour values share the bin seed
                // but differ by diurnal position — tolerance covers that.
                assert!((u - u2).abs() < 0.01, "{u} vs {u2}");
            }
        }
    }

    #[test]
    fn extra_utilization_raises_delay() {
        let m = DelayModel::new(9);
        let l = link(3, 5.0, CapacityClass::Standard);
        let t = SimTime::from_hours(7);
        let quiet = m.link_delay_ms(&l, t, 0.0);
        let congested = m.link_delay_ms(&l, t, 0.55);
        assert!(quiet >= 5.0);
        assert!(
            congested > quiet + 2.0,
            "congestion invisible: {quiet} → {congested}"
        );
        // Saturated link queues dramatically.
        let saturated = m.link_delay_ms(&l, t, 2.0);
        assert!(saturated > quiet + 35.0, "saturated {saturated}");
    }

    #[test]
    fn capacity_class_orders_queueing() {
        let m = DelayModel::new(1);
        let t = SimTime::from_hours(3);
        // Same link id so the base utilization matches across classes.
        let q = |cap| m.link_delay_ms(&link(7, 1.0, cap), t, 0.4) - 1.0;
        assert!(q(CapacityClass::Backbone) < q(CapacityClass::Standard));
        assert!(q(CapacityClass::Standard) < q(CapacityClass::Edge));
    }

    #[test]
    fn loss_curve_shape() {
        let m = LossModel::new(4);
        assert_eq!(m.loss_probability(0.5, 0.0), m.floor);
        assert_eq!(m.loss_probability(0.9, 0.0), m.floor);
        let near = m.loss_probability(0.97, 0.0);
        let at_full = m.loss_probability(1.0, 0.0);
        assert!(near > m.floor && near < at_full);
        assert!((at_full - (m.floor + m.max_loss)).abs() < 1e-12);
        // Forced loss dominates.
        assert_eq!(m.loss_probability(0.1, 1.0), 1.0);
    }

    #[test]
    fn drops_deterministic_and_rate_accurate() {
        let m = LossModel::new(8);
        let p = 0.2;
        let mut dropped = 0;
        for flow in 0..20_000u64 {
            let d1 = m.drops(LinkId(1), SimTime(500), flow, 0, p);
            let d2 = m.drops(LinkId(1), SimTime(500), flow, 0, p);
            assert_eq!(d1, d2, "non-deterministic drop");
            if d1 {
                dropped += 1;
            }
        }
        let rate = f64::from(dropped) / 20_000.0;
        assert!((rate - p).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn noise_is_positive_and_median_small() {
        let m = NoiseModel::new(3);
        let samples: Vec<f64> = (0..20_000)
            .map(|i| m.rtt_noise_ms(RouterId(5), SimTime(i), i, 0))
            .collect();
        assert!(samples.iter().all(|&x| x > 0.0 && x <= 3000.0));
        let med = median(&samples).unwrap();
        assert!(med < 1.5, "median noise {med} ms");
        // Heavy tail exists (some samples far above the median) — this is
        // what defeats the mean-based detector.
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(max > 30.0 * med, "no heavy tail: max {max}, med {med}");
    }

    #[test]
    fn noise_deterministic_per_packet_identity() {
        let m = NoiseModel::new(3);
        let a = m.rtt_noise_ms(RouterId(1), SimTime(9), 7, 2);
        let b = m.rtt_noise_ms(RouterId(1), SimTime(9), 7, 2);
        assert_eq!(a, b);
        let c = m.rtt_noise_ms(RouterId(1), SimTime(9), 7, 3);
        assert_ne!(a, c, "packet index ignored");
    }

    use pinpoint_model::records::Reply;
    use pinpoint_model::{Asn, MeasurementId, ProbeId};
    use std::net::Ipv4Addr;

    fn trace(probe: u32, hops: usize) -> TracerouteRecord {
        TracerouteRecord {
            msm_id: MeasurementId(5),
            probe_id: ProbeId(probe),
            probe_asn: Asn(64500),
            dst: Ipv4Addr::new(198, 51, 100, 1),
            timestamp: SimTime(7 * 3600 + 120),
            paris_id: 2,
            hops: (0..hops)
                .map(|i| {
                    Hop::new(
                        i as u8 + 1,
                        (0..3)
                            .map(|k| {
                                Reply::new(
                                    Ipv4Addr::new(10, 0, i as u8, 1),
                                    5.0 * (i as f64 + 1.0) + 0.1 * f64::from(k),
                                )
                            })
                            .collect(),
                    )
                })
                .collect(),
            destination_reached: true,
        }
    }

    #[test]
    fn artifact_model_inactive_is_identity() {
        let m = ArtifactModel::new(7);
        assert!(!m.is_active());
        let want = trace(1, 6);
        let mut got = want.clone();
        m.corrupt(&mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn artifact_corruption_is_deterministic_per_record() {
        let m = ArtifactModel::hostile(7);
        assert!(m.is_active());
        let mut a = trace(1, 8);
        let mut b = trace(1, 8);
        m.corrupt(&mut a);
        m.corrupt(&mut b);
        assert_eq!(a, b, "same record identity must corrupt identically");
        // A different record identity draws an independent fate (this
        // particular seed/probe pair demonstrably differs — deterministic).
        let mut c = trace(2, 8);
        m.corrupt(&mut c);
        assert_ne!(c.hops, a.hops, "corruption ignored record identity");
    }

    #[test]
    fn artifact_classes_do_what_they_say() {
        // Drive each class at rate 1.0 in isolation over a known record.
        let base = trace(3, 6);

        let mut m = ArtifactModel::new(11);
        m.missing_hop_rate = 1.0;
        let mut r = base.clone();
        m.corrupt(&mut r);
        assert_eq!(r.hops.len(), 2, "every middle hop must vanish");

        let mut m = ArtifactModel::new(11);
        m.duplicate_hop_rate = 1.0;
        let mut r = base.clone();
        m.corrupt(&mut r);
        assert_eq!(r.hops.len(), 12, "every hop must duplicate");
        assert_eq!(r.hops[0].first_responder(), r.hops[1].first_responder());

        let mut m = ArtifactModel::new(11);
        m.false_link_rate = 1.0;
        let mut r = base.clone();
        m.corrupt(&mut r);
        for (i, hop) in r.hops.iter().enumerate() {
            let diverged = hop.first_responder() != base.hops[i].first_responder();
            let middle = i > 0 && i + 1 < base.hops.len();
            assert_eq!(
                diverged, middle,
                "hop {i}: divergence must hit middles only"
            );
        }

        let mut m = ArtifactModel::new(11);
        m.clock_skew_rate = 1.0;
        let mut r = base.clone();
        m.corrupt(&mut r);
        let shift = r.hops[0].replies[0].rtt_ms.unwrap() - base.hops[0].replies[0].rtt_ms.unwrap();
        assert!(shift >= 0.2 * m.max_skew_ms && shift <= m.max_skew_ms);
        for (h, hop) in r.hops.iter().enumerate() {
            for (k, reply) in hop.replies.iter().enumerate() {
                let d = reply.rtt_ms.unwrap() - base.hops[h].replies[k].rtt_ms.unwrap();
                assert!((d - shift).abs() < 1e-9, "skew must be a constant offset");
            }
        }

        let mut m = ArtifactModel::new(11);
        m.wrong_hop_rate = 1.0;
        let mut r = base.clone();
        m.corrupt(&mut r);
        assert_ne!(
            r.hops[0].first_responder(),
            base.hops[0].first_responder(),
            "rate-1.0 wrong-hop attribution must move the first hop's replies"
        );
    }

    #[test]
    fn false_links_sometimes_paint_loops() {
        let mut m = ArtifactModel::new(11);
        m.false_link_rate = 1.0;
        let mut looped = 0usize;
        for p in 0..50 {
            let mut r = trace(p, 8);
            m.corrupt(&mut r);
            // A loop is a responder that reappears after an intervening
            // different responder (adjacent repeats would be dup-shaped).
            let mut seen = std::collections::BTreeSet::new();
            let mut prev = None;
            for ip in r.hops.iter().filter_map(|h| h.first_responder()) {
                if Some(ip) == prev {
                    continue;
                }
                if !seen.insert(ip) {
                    looped += 1;
                    break;
                }
                prev = Some(ip);
            }
        }
        assert!(
            looped > 10,
            "rate-1.0 false links painted loops in only {looped}/50 records"
        );
    }

    #[test]
    fn artifact_rates_scale_with_knobs() {
        let mut m = ArtifactModel::new(5);
        m.missing_hop_rate = 0.25;
        let mut removed = 0usize;
        let n = 2000;
        for p in 0..n {
            let mut r = trace(p, 10);
            m.corrupt(&mut r);
            removed += 10 - r.hops.len();
        }
        // 8 middle hops per record at 25 %.
        let rate = removed as f64 / (n as f64 * 8.0);
        assert!((rate - 0.25).abs() < 0.03, "missing-hop rate {rate}");
    }
}
