//! Forwarding-anomaly detection (§5).
//!
//! Delay analysis goes blind exactly when things are worst — rerouted or
//! dropped packets leave no RTT samples. The forwarding detector fills that
//! gap: it learns, per (router IP, traceroute destination), the usual
//! distribution of packets over next hops ([`pattern`]), keeps an
//! exponentially smoothed reference ([`mod@reference`]), and reports patterns
//! whose Pearson correlation with the reference falls below τ = −0.25,
//! attributing the change to specific next hops via responsibility scores
//! ([`detect`], Eq. 9).
//!
//! ## The sharded pattern engine
//!
//! Like the delay path, [`ForwardingDetector::process_bin`] runs on the
//! shared sharded engine (`crate::engine`):
//!
//! * packets live in a flat `PatternArena` — the shared
//!   `crate::ingest::EpochArena` under `pattern::PatternSpec` — whose
//!   buffers are reused across bins: 16-byte `(pattern, hop, packets)`
//!   rows scattered into per-(chunk, shard) buffers against
//!   epoch-persistent pattern/hop intern tables (zero insertions in
//!   steady state; a record's replies are counted by next hop first, so
//!   each distinct next hop is resolved once and becomes one accumulated
//!   row), concatenated per shard in chunk order so output never depends
//!   on the chunking;
//! * patterns — and their smoothed references — are sharded by a *stable*
//!   `FxHash` of the [`PatternKey`] (its pre-finish state, so shards never
//!   moved when `finish` began to rotate), and each shard is one engine job that
//!   owns its shard's reference map, so the check → alarm →
//!   reference-update pipeline needs no locks;
//! * references track the last bin their pattern appeared in and are
//!   evicted once unseen for `cfg.reference_expiry_bins`, so churned
//!   (router, destination) pairs cannot grow the maps without bound;
//! * alarms get a final total-order sort, so the output is byte-for-byte
//!   identical for any thread count. The parity tests compare it with a
//!   paper-literal oracle kept outside this crate
//!   (`pinpoint_bench::oracle`).

pub mod detect;
pub mod pattern;
pub mod reference;

pub use detect::ForwardingAlarm;
pub use pattern::{NextHop, PatternKey};
pub use reference::PatternReference;

use crate::config::DetectorConfig;
use crate::engine::{self, ReferenceEntry};
use crate::ingest::{self, ShardTask, Wave};
use crate::snapshot::{Reader, SnapshotError, Writer};
use pattern::{PatternArena, PatternSpec};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::BinId;

/// One shard's slice of detector state: its patterns' references.
type FwdShard = engine::ReferenceShard<PatternKey, PatternReference>;

/// One shard's check buffers and output, kept in its row workspace
/// (`PatternShardRows::work`) so they live as long as the shard and a
/// steady bin regrows neither: the hop-alignment scratch and the shard's
/// alarms, which the stage drains in shard order.
#[derive(Debug, Default)]
pub(crate) struct FwdShardWork {
    align: detect::AlignScratch,
    alarms: Vec<ForwardingAlarm>,
}

/// Stateful forwarding-anomaly detector.
#[derive(Debug)]
pub struct ForwardingDetector {
    cfg: DetectorConfig,
    shards: Vec<FwdShard>,
    /// The intern-epoch staging store; `Analyzer` drives its bin steps
    /// (compact → scatter → merge → stage → stamp) directly.
    pub(crate) arena: PatternArena,
}

impl ForwardingDetector {
    /// Create a detector with the given configuration.
    pub fn new(cfg: &DetectorConfig) -> Self {
        ForwardingDetector {
            cfg: cfg.clone(),
            shards: (0..engine::NUM_SHARDS)
                .map(|_| FwdShard::default())
                .collect(),
            arena: PatternArena::default(),
        }
    }

    /// Serialize the resumable state: every shard's references and the
    /// intern-epoch arena. The config is written once at the analyzer
    /// level, not here.
    pub(crate) fn snapshot_into(&self, w: &mut Writer) {
        for shard in &self.shards {
            shard.snapshot_into(w, PatternReference::snapshot_into);
        }
        self.arena.snapshot_into(w);
    }

    /// Rebuild a detector from [`ForwardingDetector::snapshot_into`] bytes.
    pub(crate) fn restore_from(
        r: &mut Reader<'_>,
        cfg: &DetectorConfig,
    ) -> Result<Self, SnapshotError> {
        let shards = (0..engine::NUM_SHARDS)
            .map(|idx| FwdShard::restore_from(r, idx, |r| PatternReference::restore_from(r, cfg)))
            .collect::<Result<_, _>>()?;
        let arena = PatternArena::restore_from(r)?;
        Ok(ForwardingDetector {
            cfg: cfg.clone(),
            shards,
            arena,
        })
    }

    /// Process one bin of traceroutes; returns forwarding alarms — the
    /// parallel, arena-backed engine: a scatter wave (chunk jobs), the
    /// sequential chunk-ordered intern merge, then the shard wave.
    pub fn process_bin(
        &mut self,
        bin: BinId,
        records: &[TracerouteRecord],
    ) -> Vec<ForwardingAlarm> {
        let threads = engine::resolve_threads(self.cfg.threads);
        let chunk = ingest::resolve_chunk_for(threads);
        self.arena.compact(bin, self.cfg.reference_expiry_bins);
        engine::run_jobs(self.arena.scatter_jobs(records, chunk), threads);
        self.arena.merge(bin);
        let alarms = {
            let mut stage = self.stage(bin, threads);
            engine::run_jobs(stage.jobs(), threads);
            stage.finish()
        };
        self.arena.stamp_bin(bin);
        alarms
    }

    /// Interning-epoch counters (patterns + next hops).
    pub fn ingest_stats(&self) -> ingest::IngestStats {
        self.arena.stats()
    }

    /// Stage one bin for the shared engine: one task per arena shard of
    /// the scattered-and-merged bin (the session pools both detectors'
    /// jobs on one set of `workers`). Callers must have run the bin's
    /// scatter jobs and the arena's merge first.
    pub(crate) fn stage(&mut self, bin: BinId, workers: usize) -> ForwardingStage<'_> {
        let (tasks, wave) = self.arena.tasks(&mut self.shards, workers);
        ForwardingStage {
            inner: engine::ShardStage::new(tasks),
            cfg: &self.cfg,
            bin,
            wave,
        }
    }

    /// Number of (router, destination) patterns tracked.
    pub fn tracked_patterns(&self) -> usize {
        self.shards.iter().map(|s| s.references.len()).sum()
    }

    /// Mean number of next hops per tracked pattern (Table A statistic:
    /// "on average forwarding models contain four different next hops").
    pub fn mean_next_hops(&self) -> f64 {
        let tracked = self.tracked_patterns();
        if tracked == 0 {
            return 0.0;
        }
        let total: usize = self
            .shards
            .iter()
            .flat_map(|s| s.references.values())
            .map(|e| e.reference.len())
            .sum();
        total as f64 / tracked as f64
    }
}

/// One shard's slice of a staged bin, for one job.
type FwdTask<'a> = ShardTask<'a, PatternSpec, FwdShard>;

/// A bin staged for the shared engine: an [`engine::ShardStage`] of shard
/// tasks plus the per-bin inputs every job reads, merged in job order by
/// [`ForwardingStage::finish`].
pub(crate) struct ForwardingStage<'a> {
    inner: engine::ShardStage<FwdTask<'a>, &'a mut Vec<ForwardingAlarm>>,
    cfg: &'a DetectorConfig,
    bin: BinId,
    wave: Wave<'a, PatternSpec>,
}

impl<'a> ForwardingStage<'a> {
    /// One boxed job per shard, each writing into its own output slot.
    pub(crate) fn jobs<'s>(&'s mut self) -> Vec<engine::Job<'s>> {
        let (cfg, bin, wave) = (self.cfg, self.bin, self.wave);
        self.inner
            .jobs(move |task| run_forwarding_shard(task, cfg, bin, wave))
    }

    /// Deterministic merge of the executed jobs' outputs, drained in shard
    /// order (the buffers keep their capacity for the next bin).
    pub(crate) fn finish(self) -> Vec<ForwardingAlarm> {
        let mut alarms = Vec::new();
        for out in self.inner.into_outputs() {
            alarms.append(out);
        }
        sort_alarms(&mut alarms);
        alarms
    }
}

/// One shard's job: group its chunk rows ([`Wave::group`]) and hand the
/// lent row buffers straight back, then check → alarm → reference-update
/// every pattern, then evict expired references. Shard state arrives by
/// `&mut` — no locks but the free list's — and every per-pattern
/// decision depends only on `(cfg, key, bin)`, so the alarms left in the
/// shard's workspace are the same whichever worker claimed the job.
fn run_forwarding_shard<'a>(
    task: FwdTask<'a>,
    cfg: &DetectorConfig,
    bin: BinId,
    wave: Wave<'_, PatternSpec>,
) -> &'a mut Vec<ForwardingAlarm> {
    let ShardTask {
        idx,
        rows,
        keys,
        state: shard,
    } = task;
    wave.group(idx, rows);
    wave.give_back(rows);
    // Lent out for the loop, which also borrows the grouped layout.
    let mut work = std::mem::take(&mut rows.work);
    work.alarms.clear();
    for j in 0..rows.pattern_count() {
        let slice = rows.pattern_in(j, keys, wave.sides());
        let entry = shard
            .references
            .entry(slice.key)
            .or_insert_with(|| ReferenceEntry {
                reference: PatternReference::new(cfg),
                last_seen: bin,
            });
        if let Some(alarm) = detect::check_with(
            &mut work.align,
            &slice.key,
            bin,
            &slice,
            &entry.reference,
            cfg,
        ) {
            work.alarms.push(alarm);
        }
        entry.reference.update_from(slice.iter());
        entry.last_seen = bin;
    }
    shard.evict(bin, cfg);
    rows.work = work;
    &mut rows.work.alarms
}

/// Most anti-correlated first; ties broken totally so output order is
/// deterministic regardless of hash-map iteration or shard interleaving.
fn sort_alarms(alarms: &mut [ForwardingAlarm]) {
    alarms.sort_by(|a, b| {
        a.rho
            .partial_cmp(&b.rho)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.router, a.dst).cmp(&(b.router, b.dst)))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_model::records::{Hop, Reply};
    use pinpoint_model::{Asn, MeasurementId, ProbeId, SimTime};
    use std::net::Ipv4Addr;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// One probe's traceroute through router R whose next hop is `next`.
    fn rec(next: &str) -> TracerouteRecord {
        TracerouteRecord {
            msm_id: MeasurementId(1),
            probe_id: ProbeId(1),
            probe_asn: Asn(64500),
            dst: ip("198.51.100.1"),
            timestamp: SimTime(0),
            paris_id: 0,
            hops: vec![
                Hop::new(1, vec![Reply::new(ip("10.0.0.1"), 1.0); 12]),
                Hop::new(2, vec![Reply::new(ip(next), 2.0); 12]),
            ],
            destination_reached: true,
        }
    }

    #[test]
    fn route_change_fires_one_alarm() {
        let cfg = DetectorConfig::fast_test();
        let mut detector = ForwardingDetector::new(&cfg);
        for b in 0..6 {
            assert!(detector
                .process_bin(BinId(b), &[rec("10.0.1.1")])
                .is_empty());
        }
        // All 12 packets move from B to a new next hop C. Aligned over
        // [B, C]: F = [0, 12] against F̄ = [12, 0], so ρ = −1, and Eq. 9
        // splits the 24 moved packets: r_B = −0.5, r_C = +0.5.
        let alarms = detector.process_bin(BinId(6), &[rec("10.0.9.9")]);
        assert_eq!(
            alarms,
            [ForwardingAlarm {
                router: ip("10.0.0.1"),
                dst: ip("198.51.100.1"),
                bin: BinId(6),
                rho: -1.0,
                responsibilities: vec![
                    (NextHop::Ip(ip("10.0.1.1")), -0.5),
                    (NextHop::Ip(ip("10.0.9.9")), 0.5),
                ],
            }]
        );
    }

    #[test]
    fn unseen_references_are_evicted_after_expiry() {
        let mut cfg = DetectorConfig::fast_test();
        cfg.reference_expiry_bins = 4;
        let mut detector = ForwardingDetector::new(&cfg);
        detector.process_bin(BinId(0), &[rec("10.0.1.1")]);
        assert_eq!(detector.tracked_patterns(), 1);
        // Quiet bins: the pattern stops appearing but survives the window…
        for b in 1..=4 {
            detector.process_bin(BinId(b), &[]);
            assert_eq!(detector.tracked_patterns(), 1, "evicted early at bin {b}");
        }
        // …and is evicted one bin past it.
        detector.process_bin(BinId(5), &[]);
        assert_eq!(detector.tracked_patterns(), 0);
    }

    #[test]
    fn reappearing_pattern_restarts_its_reference() {
        let mut cfg = DetectorConfig::fast_test();
        cfg.reference_expiry_bins = 1;
        let mut detector = ForwardingDetector::new(&cfg);
        for b in 0..3 {
            detector.process_bin(BinId(b), &[rec("10.0.1.1")]);
        }
        for b in 3..6 {
            detector.process_bin(BinId(b), &[]);
        }
        assert_eq!(detector.tracked_patterns(), 0);
        // A completely different next hop right after re-learning must not
        // alarm against the long-gone old reference.
        detector.process_bin(BinId(6), &[rec("10.0.9.9")]);
        let alarms = detector.process_bin(BinId(7), &[rec("10.0.9.9")]);
        assert!(alarms.is_empty());
    }
}
