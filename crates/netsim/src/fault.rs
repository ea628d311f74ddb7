//! Feed-fault injection: corrupts the *delivery* of a bin stream the way
//! real measurement feeds fail, while the bins themselves stay pure.
//!
//! The artifact model ([`crate::dynamics::ArtifactModel`]) corrupts
//! *records*; this module corrupts the *transport*: feeds stall, TCP
//! connections drop mid-stream, retransmissions deliver the same bin
//! twice, buffering reorders adjacent bins, and a cut connection
//! truncates a bin's records. A consumer that survives eight months of a
//! live Atlas stream (§8) has to survive all of these.
//!
//! [`FaultModel`] is the seeded decision function — every fault is a pure
//! function of `(seed, bin)`, so two iterations over the same schedule
//! produce byte-identical fault streams, and a restarted consumer faces
//! exactly the faults it would have faced before the crash.
//! [`FaultyFeed`] applies it as an iterator adapter over any
//! `(BinId, Vec<R>)` source, which makes it a `BinSource` at the analysis
//! boundary (every iterator of bin pairs is one) — so batch, streamed,
//! and service entry paths all see the *same* faulty feed.
//!
//! Fault classes split by visibility:
//!
//! * **Bin-stream faults** — duplicated bins, reordered bins, truncated
//!   bins — change which `(BinId, records)` pairs come out of the
//!   iterator. Every entry path sees them; a robust consumer rejects
//!   duplicates and out-of-order bins ([`RecoveredFeed`] is the
//!   canonical client-side recovery, and the live collector implements
//!   the same rule).
//! * **Transport markers** — [`FeedEvent::Stall`] and
//!   [`FeedEvent::Disconnect`] — carry no data. Offline consumers skip
//!   them ([`RecoveredFeed`] does); the live service's collector
//!   interprets them as wall-clock stalls and connection drops, driving
//!   its retry/backoff machinery.

use pinpoint_model::BinId;
use pinpoint_stats::rng::SplitMix64;
use std::collections::VecDeque;

/// Domain-separation mix for per-(class, bin) decision RNGs (same shape
/// as the dynamics module's).
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

/// One delivery event of a faulty feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedEvent<F> {
    /// A bin arrived — possibly a duplicate, out of order, or truncated.
    Bin(BinId, F),
    /// The feed went quiet for roughly this many poll intervals before
    /// the next delivery. Carries no data; offline consumers skip it.
    Stall(u64),
    /// The connection dropped. The next event is what a reconnected
    /// client sees; a live collector counts a retry here.
    Disconnect,
}

/// Deterministic seeded feed-fault injection (see the module docs).
///
/// Like [`crate::dynamics::ArtifactModel`]: [`FaultModel::new`] disables
/// every class, [`FaultModel::mild`] / [`FaultModel::hostile`] are the
/// graded presets, rates are per-bin probabilities in `[0, 1]`, and every
/// decision derives from `(seed, bin)` alone.
#[derive(Debug, Clone)]
pub struct FaultModel {
    seed: u64,
    /// Per-bin probability that a stall marker precedes the bin.
    pub stall_rate: f64,
    /// Largest stall length (poll intervals); actual lengths are seeded
    /// in `[1, max_stall]`.
    pub max_stall: u64,
    /// Emit a [`FeedEvent::Disconnect`] after every `n` delivered bins
    /// (`0` disables). "Disconnect after N bins" with a reconnecting
    /// client becomes "disconnect every N bins" on a long stream.
    pub disconnect_every: u64,
    /// Per-bin probability that the bin is delivered twice.
    pub duplicate_rate: f64,
    /// Per-bin probability that the bin is held back and delivered after
    /// its successors, within [`FaultModel::reorder_window`].
    pub reorder_rate: f64,
    /// How many successor bins may overtake a held-back bin (≥ 1 for
    /// reordering to be possible).
    pub reorder_window: usize,
    /// Per-bin probability that the bin's records are truncated to a
    /// seeded fraction (a connection cut mid-bin).
    pub truncate_rate: f64,
}

impl FaultModel {
    /// A clean feed: every fault class disabled.
    pub fn new(seed: u64) -> Self {
        FaultModel {
            seed,
            stall_rate: 0.0,
            max_stall: 3,
            disconnect_every: 0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            reorder_window: 1,
            truncate_rate: 0.0,
        }
    }

    /// Mild faults: the occasional stall, duplicate, and reorder of a
    /// production feed, plus a disconnect roughly daily on hour bins.
    pub fn mild(seed: u64) -> Self {
        FaultModel {
            stall_rate: 0.05,
            disconnect_every: 24,
            duplicate_rate: 0.04,
            reorder_rate: 0.04,
            truncate_rate: 0.02,
            ..FaultModel::new(seed)
        }
    }

    /// Hostile faults: every class an order of magnitude above mild — a
    /// feed falling apart, kept as the stress grade.
    pub fn hostile(seed: u64) -> Self {
        FaultModel {
            stall_rate: 0.30,
            max_stall: 5,
            disconnect_every: 5,
            duplicate_rate: 0.25,
            reorder_rate: 0.25,
            reorder_window: 2,
            truncate_rate: 0.15,
            ..FaultModel::new(seed)
        }
    }

    /// Whether any fault class is enabled.
    pub fn is_active(&self) -> bool {
        self.stall_rate > 0.0
            || self.disconnect_every > 0
            || self.duplicate_rate > 0.0
            || self.reorder_rate > 0.0
            || self.truncate_rate > 0.0
    }

    fn decide(&self, class: u64, bin: BinId, rate: f64) -> bool {
        rate > 0.0 && SplitMix64::new(mix(self.seed, class, bin.0, 0)).next_bool(rate)
    }

    /// Seeded stall length before `bin`, or `None`.
    pub fn stall_before(&self, bin: BinId) -> Option<u64> {
        if !self.decide(0x57A1, bin, self.stall_rate) {
            return None;
        }
        let mut r = SplitMix64::new(mix(self.seed, 0x57A2, bin.0, 1));
        Some(1 + r.next_below(self.max_stall.max(1)))
    }

    /// Whether `bin` is delivered twice.
    pub fn duplicates(&self, bin: BinId) -> bool {
        self.decide(0xD0B1, bin, self.duplicate_rate)
    }

    /// Whether `bin` is held back behind its successors.
    pub fn reorders(&self, bin: BinId) -> bool {
        self.reorder_window > 0 && self.decide(0x2E0D, bin, self.reorder_rate)
    }

    /// Truncated record count for a `bin` holding `len` records (`len`
    /// when the bin is delivered whole).
    pub fn truncated_len(&self, bin: BinId, len: usize) -> usize {
        if !self.decide(0x7259, bin, self.truncate_rate) {
            return len;
        }
        let mut r = SplitMix64::new(mix(self.seed, 0x725A, bin.0, 1));
        // Keep a seeded prefix in [0, 90%] — a cut never delivers more.
        ((len as f64) * r.next_f64() * 0.9) as usize
    }
}

/// Iterator adapter applying a [`FaultModel`] to a `(BinId, Vec<R>)`
/// source, yielding [`FeedEvent`]s (see the module docs). Being an
/// iterator of events, it composes with [`RecoveredFeed`] to become a
/// clean `BinSource` again for offline entry paths.
#[derive(Debug)]
pub struct FaultyFeed<I, R>
where
    I: Iterator<Item = (BinId, Vec<R>)>,
    R: Clone,
{
    inner: I,
    model: FaultModel,
    /// Events decided but not yet yielded (duplicates, flushed holds).
    queue: VecDeque<FeedEvent<Vec<R>>>,
    /// Bins held back by reordering, waiting for successors to overtake.
    held: VecDeque<(BinId, Vec<R>, usize)>,
    /// Bins delivered since the last disconnect marker.
    since_disconnect: u64,
    exhausted: bool,
}

impl<I, R> FaultyFeed<I, R>
where
    I: Iterator<Item = (BinId, Vec<R>)>,
    R: Clone,
{
    /// Wrap a bin source with a fault model.
    pub fn new(inner: I, model: FaultModel) -> Self {
        FaultyFeed {
            inner,
            model,
            queue: VecDeque::new(),
            held: VecDeque::new(),
            since_disconnect: 0,
            exhausted: false,
        }
    }

    /// Queue the delivery events of one bin (stall marker, the bin, its
    /// duplicate, a disconnect marker), applying truncation.
    fn deliver(&mut self, bin: BinId, mut records: Vec<R>) {
        if let Some(stall) = self.model.stall_before(bin) {
            self.queue.push_back(FeedEvent::Stall(stall));
        }
        let keep = self.model.truncated_len(bin, records.len());
        records.truncate(keep);
        let dup = self.model.duplicates(bin);
        if dup {
            self.queue.push_back(FeedEvent::Bin(bin, records.clone()));
        }
        self.queue.push_back(FeedEvent::Bin(bin, records));
        self.since_disconnect += 1;
        if self.model.disconnect_every > 0 && self.since_disconnect >= self.model.disconnect_every {
            self.since_disconnect = 0;
            self.queue.push_back(FeedEvent::Disconnect);
        }
    }

    /// Age the held bins by one delivered successor; deliver those whose
    /// window expired.
    fn age_held(&mut self) {
        for held in &mut self.held {
            held.2 += 1;
        }
        while let Some(&(_, _, age)) = self.held.front() {
            if age >= self.model.reorder_window.max(1) {
                let (bin, records, _) = self.held.pop_front().unwrap();
                self.deliver(bin, records);
            } else {
                break;
            }
        }
    }
}

impl<I, R> Iterator for FaultyFeed<I, R>
where
    I: Iterator<Item = (BinId, Vec<R>)>,
    R: Clone,
{
    type Item = FeedEvent<Vec<R>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(event) = self.queue.pop_front() {
                return Some(event);
            }
            if self.exhausted {
                // Flush any bins still held back by reordering.
                let (bin, records, _) = self.held.pop_front()?;
                self.deliver(bin, records);
                continue;
            }
            match self.inner.next() {
                Some((bin, records)) => {
                    if self.model.reorders(bin) {
                        self.held.push_back((bin, records, 0));
                    } else {
                        self.deliver(bin, records);
                        self.age_held();
                    }
                }
                None => self.exhausted = true,
            }
        }
    }
}

/// The canonical client-side recovery over a [`FeedEvent`] stream: skip
/// transport markers, drop duplicate and out-of-order bins (a bin ≤ the
/// last accepted one), yield a strictly increasing `(BinId, F)` stream —
/// which is exactly what every analysis entry path requires, and the
/// same rejection rule the live collector applies.
#[derive(Debug)]
pub struct RecoveredFeed<I, F>
where
    I: Iterator<Item = FeedEvent<F>>,
{
    inner: I,
    last: Option<BinId>,
    /// Bins dropped as duplicate or out-of-order so far.
    pub rejected: usize,
    /// Transport markers (stalls + disconnects) skipped so far.
    pub markers: usize,
}

impl<I, F> RecoveredFeed<I, F>
where
    I: Iterator<Item = FeedEvent<F>>,
{
    /// Wrap a fault-event stream.
    pub fn new(inner: I) -> Self {
        RecoveredFeed {
            inner,
            last: None,
            rejected: 0,
            markers: 0,
        }
    }
}

impl<I, F> Iterator for RecoveredFeed<I, F>
where
    I: Iterator<Item = FeedEvent<F>>,
{
    type Item = (BinId, F);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.inner.next()? {
                FeedEvent::Bin(bin, feed) => {
                    if self.last.is_some_and(|last| bin.0 <= last.0) {
                        self.rejected += 1;
                        continue;
                    }
                    self.last = Some(bin);
                    return Some((bin, feed));
                }
                FeedEvent::Stall(_) | FeedEvent::Disconnect => {
                    self.markers += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bins(n: u64) -> Vec<(BinId, Vec<u32>)> {
        (0..n).map(|b| (BinId(b), vec![b as u32; 10])).collect()
    }

    #[test]
    fn clean_model_is_passthrough() {
        let model = FaultModel::new(7);
        assert!(!model.is_active());
        let events: Vec<_> = FaultyFeed::new(bins(5).into_iter(), model).collect();
        assert_eq!(events.len(), 5);
        for (i, event) in events.iter().enumerate() {
            assert_eq!(*event, FeedEvent::Bin(BinId(i as u64), vec![i as u32; 10]));
        }
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let a: Vec<_> = FaultyFeed::new(bins(60).into_iter(), FaultModel::hostile(42)).collect();
        let b: Vec<_> = FaultyFeed::new(bins(60).into_iter(), FaultModel::hostile(42)).collect();
        assert_eq!(a, b, "fault injection is not deterministic");
        let c: Vec<_> = FaultyFeed::new(bins(60).into_iter(), FaultModel::hostile(43)).collect();
        assert_ne!(a, c, "seed has no effect");
    }

    #[test]
    fn hostile_feed_exhibits_every_fault_class() {
        let events: Vec<_> =
            FaultyFeed::new(bins(200).into_iter(), FaultModel::hostile(11)).collect();
        let stalls = events
            .iter()
            .filter(|e| matches!(e, FeedEvent::Stall(_)))
            .count();
        let disconnects = events
            .iter()
            .filter(|e| matches!(e, FeedEvent::Disconnect))
            .count();
        let bins_seen: Vec<BinId> = events
            .iter()
            .filter_map(|e| match e {
                FeedEvent::Bin(b, _) => Some(*b),
                _ => None,
            })
            .collect();
        assert!(stalls > 0, "no stalls");
        assert!(disconnects > 0, "no disconnects");
        assert!(bins_seen.len() > 200, "no duplicates: {}", bins_seen.len());
        assert!(
            bins_seen.windows(2).any(|w| w[1].0 <= w[0].0),
            "no reordering/duplication visible in bin order"
        );
        let truncated = events
            .iter()
            .any(|e| matches!(e, FeedEvent::Bin(_, r) if r.len() < 10));
        assert!(truncated, "no truncation");
    }

    #[test]
    fn every_bin_is_eventually_delivered() {
        for seed in [1u64, 7, 99] {
            let events: Vec<_> =
                FaultyFeed::new(bins(80).into_iter(), FaultModel::hostile(seed)).collect();
            let mut seen: Vec<u64> = events
                .iter()
                .filter_map(|e| match e {
                    FeedEvent::Bin(b, _) => Some(b.0),
                    _ => None,
                })
                .collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen, (0..80).collect::<Vec<_>>(), "seed {seed}: bins lost");
        }
    }

    #[test]
    fn recovery_yields_strictly_increasing_bins() {
        let faulty = FaultyFeed::new(bins(100).into_iter(), FaultModel::hostile(5));
        let mut recovered = RecoveredFeed::new(faulty);
        let mut last = None;
        let mut count = 0usize;
        for (bin, records) in &mut recovered {
            if let Some(last) = last {
                assert!(bin.0 > last, "bin {} after {last}", bin.0);
            }
            last = Some(bin.0);
            assert!(records.len() <= 10);
            count += 1;
        }
        assert!(count <= 100);
        // Reordering means a held-back bin arriving late is rejected, so
        // some loss is expected under hostile faults — but most bins land.
        assert!(count > 50, "recovery kept only {count}/100 bins");
        assert!(recovered.rejected > 0, "hostile feed produced no rejects");
        assert!(recovered.markers > 0, "hostile feed produced no markers");
    }

    #[test]
    fn truncation_never_grows_a_bin() {
        let model = FaultModel {
            truncate_rate: 1.0,
            ..FaultModel::new(3)
        };
        for b in 0..50u64 {
            let n = model.truncated_len(BinId(b), 10);
            assert!(n < 10, "bin {b}: truncated to {n}");
        }
        // A truncated empty bin stays empty.
        assert_eq!(model.truncated_len(BinId(0), 0), 0);
    }
}
