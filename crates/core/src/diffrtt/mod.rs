//! Delay-change detection via differential RTTs (§4).
//!
//! Per 1-hour bin, the detector runs the paper's five steps:
//!
//! 1. [`compute`] — differential RTT samples per IP link, all RTT
//!    combinations per probe (1–9 per traceroute);
//! 2. [`diversity`] — drop links seen from < 3 probe ASes; rebalance
//!    over-represented ASes until the probe-count entropy exceeds 0.5;
//! 3. [`characterize`] — median + Wilson-score 95 % CI of the surviving
//!    samples;
//! 4. [`detect`] — compare against the link's smoothed normal reference:
//!    non-overlapping CIs and ≥ 1 ms median gap raise a [`DelayAlarm`] with
//!    deviation d(Δ) (Eq. 6);
//! 5. [`mod@reference`] — fold the bin's median/CI into the reference
//!    (exponential smoothing, Eq. 7; warm-up median of the first 3 bins).
//!
//! ## The sharded bin engine
//!
//! [`DelayDetector::process_bin`] is the §4–§6 hot path, so it is built as
//! a parallel, allocation-lean engine:
//!
//! * samples live in a flat `SampleArena` — the shared
//!   `crate::ingest::EpochArena` under `compute::DelaySpec` — whose
//!   buffers are reused across bins (no per-probe maps rebuilt each
//!   hour): record chunks scatter on the worker pool against
//!   epoch-persistent link/probe intern tables (zero insertions in
//!   steady state), and per-shard rows concatenate in chunk order so
//!   output never depends on the chunking;
//! * links — and their smoothed references — are sharded by a *stable*
//!   hash of the link, and each shard is one engine job that owns its
//!   references by `&mut`, so reference mutation needs no locks;
//! * references track the last bin their link was characterized in and are
//!   evicted once unseen for `cfg.reference_expiry_bins` (the same clock
//!   the forwarding side uses), so link churn cannot grow the per-shard
//!   maps without bound;
//! * per-link randomness comes from a `(seed, link, bin)`-derived RNG and
//!   alarms get a final total-order sort, so the output is byte-for-byte
//!   identical for any thread count. The parity tests compare it with a
//!   paper-literal oracle kept outside this crate
//!   (`pinpoint_bench::oracle`).

pub mod characterize;
pub mod compute;
pub mod detect;
pub mod diversity;
pub mod reference;

pub use characterize::LinkStat;
pub use detect::{DelayAlarm, Direction};
pub use reference::LinkReference;

use crate::config::DetectorConfig;
use crate::engine::{self, ReferenceEntry, NUM_SHARDS};
use crate::ingest::{self, ShardTask, Wave};
use crate::snapshot::{Reader, SnapshotError, Writer};
use compute::{shard_of, DelaySpec, SampleArena, ShardRows};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::{BinId, IpLink};
use pinpoint_stats::rng::{derive_seed, SplitMix64};
use std::collections::HashMap;

/// Per-link RNG for the §4.3 rebalancing, derived from (seed, link, bin) —
/// never shared across links, so results do not depend on iteration order.
fn link_rng(cfg_seed: u64, link: &IpLink, bin: BinId) -> SplitMix64 {
    SplitMix64::new(derive_seed(
        cfg_seed
            ^ (u64::from(u32::from(link.near)) << 17)
            ^ u64::from(u32::from(link.far))
            ^ (bin.0 << 40),
        "diversity-rebalance",
    ))
}

/// One shard's slice of detector state: its links' references.
type Shard = engine::ReferenceShard<IpLink, LinkReference>;

/// What one shard produced for one bin.
#[derive(Debug, Default)]
struct ShardOutput {
    alarms: Vec<DelayAlarm>,
    stats: Vec<(IpLink, LinkStat)>,
    new_links: usize,
}

/// One shard's steps 2–5 buffers, kept in its row workspace
/// (`ShardRows::work`) so they live as long as the shard and a steady bin
/// regrows none of them: surviving samples, diversity scratch, the
/// batched passes' decision rows, the Wilson rank memo, and the shard's
/// output, which the stage drains in shard order.
#[derive(Debug, Default)]
pub(crate) struct ShardWork {
    surviving: Vec<f64>,
    diversity: diversity::Scratch,
    decisions: Vec<diversity::Keep>,
    ranks: characterize::RankCache,
    out: ShardOutput,
}

/// Stateful delay-change detector (one instance per analysis stream).
#[derive(Debug)]
pub struct DelayDetector {
    cfg: DetectorConfig,
    shards: Vec<Shard>,
    /// The intern-epoch staging store; `Analyzer` drives its bin steps
    /// (compact → scatter → merge → stage → stamp) directly.
    pub(crate) arena: SampleArena,
    /// Total reference warm-ups started (for Table A reporting). Under
    /// link churn this counts a link again when it reappears after its
    /// reference was evicted — tracking exact unique links forever would
    /// need the unbounded memory eviction exists to avoid.
    pub links_seen: usize,
}

impl DelayDetector {
    /// Create a detector with the given configuration.
    pub fn new(cfg: &DetectorConfig) -> Self {
        DelayDetector {
            cfg: cfg.clone(),
            shards: (0..NUM_SHARDS).map(|_| Shard::default()).collect(),
            arena: SampleArena::default(),
            links_seen: 0,
        }
    }

    /// Run the five steps over one bin of traceroutes — the parallel,
    /// arena-backed engine: a scatter wave (chunk jobs), the sequential
    /// chunk-ordered intern merge, then the shard wave.
    ///
    /// Also returns the per-link statistics (used by the figure harnesses
    /// to plot median series even when no alarm fires).
    pub fn process_bin(
        &mut self,
        bin: BinId,
        records: &[TracerouteRecord],
    ) -> (Vec<DelayAlarm>, HashMap<IpLink, LinkStat>) {
        let threads = engine::resolve_threads(self.cfg.threads);
        let chunk = ingest::resolve_chunk_for(threads);
        self.arena.compact(bin, self.cfg.reference_expiry_bins);
        engine::run_jobs(self.arena.scatter_jobs(records, chunk), threads);
        self.arena.merge(bin);
        let (alarms, stats, new_links) = {
            let mut stage = self.stage(bin, threads);
            engine::run_jobs(stage.jobs(), threads);
            stage.finish()
        };
        self.arena.stamp_bin(bin);
        self.links_seen += new_links;
        (alarms, stats)
    }

    /// Interning-epoch counters (links + probes).
    pub fn ingest_stats(&self) -> ingest::IngestStats {
        self.arena.stats()
    }

    /// Stage one bin for the shared engine: one task per arena shard of
    /// the scattered-and-merged bin. The returned [`DelayStage`] hands out
    /// one boxed job per shard via [`DelayStage::jobs`] so the caller
    /// ([`DelayDetector::process_bin`] standalone, or the session pooling
    /// every member's detectors) decides which pool executes them, on
    /// `workers` workers. Callers must have run the bin's scatter jobs and
    /// the arena's merge first.
    pub(crate) fn stage(&mut self, bin: BinId, workers: usize) -> DelayStage<'_> {
        let (tasks, wave) = self.arena.tasks(&mut self.shards, workers);
        DelayStage {
            inner: engine::ShardStage::new(tasks),
            cfg: &self.cfg,
            bin,
            wave,
        }
    }

    /// Serialize the resumable state: every shard's references, the
    /// intern-epoch arena, and the warm-up counter. The config is written
    /// once at the analyzer level, not here.
    pub(crate) fn snapshot_into(&self, w: &mut Writer) {
        for shard in &self.shards {
            shard.snapshot_into(w, LinkReference::snapshot_into);
        }
        self.arena.snapshot_into(w);
        w.usize(self.links_seen);
    }

    /// Rebuild a detector from [`DelayDetector::snapshot_into`] bytes.
    pub(crate) fn restore_from(
        r: &mut Reader<'_>,
        cfg: &DetectorConfig,
    ) -> Result<Self, SnapshotError> {
        let shards = (0..NUM_SHARDS)
            .map(|idx| Shard::restore_from(r, idx, |r| LinkReference::restore_from(r, cfg)))
            .collect::<Result<_, _>>()?;
        let arena = SampleArena::restore_from(r)?;
        let links_seen = r.usize()?;
        Ok(DelayDetector {
            cfg: cfg.clone(),
            shards,
            arena,
            links_seen,
        })
    }

    /// Reference for a link, if it exists yet (and has not been evicted).
    pub fn reference(&self, link: &IpLink) -> Option<&LinkReference> {
        self.shards[shard_of(link)]
            .references
            .get(link)
            .map(|e| &e.reference)
    }

    /// Number of links currently tracked.
    pub fn tracked_links(&self) -> usize {
        self.shards.iter().map(|s| s.references.len()).sum()
    }
}

/// One shard's slice of a staged bin, for one job.
type DelayTask<'a> = ShardTask<'a, DelaySpec, Shard>;

/// A bin staged for the shared engine: an [`engine::ShardStage`] of shard
/// tasks plus the per-bin inputs every job reads. Produce jobs with
/// [`DelayStage::jobs`], execute them on any pool ([`engine::run_jobs`]),
/// then collect with [`DelayStage::finish`].
pub(crate) struct DelayStage<'a> {
    inner: engine::ShardStage<DelayTask<'a>, &'a mut ShardOutput>,
    cfg: &'a DetectorConfig,
    bin: BinId,
    wave: Wave<'a, DelaySpec>,
}

impl<'a> DelayStage<'a> {
    /// One boxed job per shard, each writing into its own output slot.
    pub(crate) fn jobs<'s>(&'s mut self) -> Vec<engine::Job<'s>> {
        let (cfg, bin, wave) = (self.cfg, self.bin, self.wave);
        self.inner
            .jobs(move |task| run_delay_shard(task, cfg, bin, wave))
    }

    /// Deterministic merge of the executed jobs' outputs, drained in shard
    /// order (the buffers keep their capacity for the next bin):
    /// `(alarms, stats, newly seen links)`.
    pub(crate) fn finish(self) -> (Vec<DelayAlarm>, HashMap<IpLink, LinkStat>, usize) {
        let outputs: Vec<&mut ShardOutput> = self.inner.into_outputs().collect();
        let mut alarms = Vec::with_capacity(outputs.iter().map(|o| o.alarms.len()).sum());
        let mut stats = HashMap::with_capacity(outputs.iter().map(|o| o.stats.len()).sum());
        let mut new_links = 0;
        for out in outputs {
            new_links += out.new_links;
            alarms.append(&mut out.alarms);
            stats.extend(out.stats.drain(..));
        }
        sort_alarms(&mut alarms);
        (alarms, stats, new_links)
    }
}

/// One shard's job: group its chunk runs ([`Wave::group`]), run steps 2–5
/// over its links as three batched passes ([`characterize_shard`]), hand
/// the lent run buffers back, then evict expired references. Shard state
/// arrives by `&mut` — no locks but the free list's — and every per-link
/// decision depends only on `(cfg, link, bin)`, so the output left in the
/// shard's workspace is the same whichever worker claimed the job.
/// Nothing here writes the epoch tables (stamping is the caller's
/// post-wave fence).
fn run_delay_shard<'a>(
    task: DelayTask<'a>,
    cfg: &DetectorConfig,
    bin: BinId,
    wave: Wave<'_, DelaySpec>,
) -> &'a mut ShardOutput {
    let ShardTask {
        idx,
        rows,
        keys: links,
        state: shard,
    } = task;
    wave.group(idx, rows);
    // Lent out for the passes, which also borrow the grouped layout.
    let mut work = std::mem::take(&mut rows.work);
    characterize_shard(rows, links, shard, cfg, bin, wave, &mut work);
    wave.give_back(rows);
    shard.evict(bin, cfg);
    rows.work = work;
    &mut rows.work.out
}

/// Steps 2–5 for one finalized shard, batched into three link-order
/// passes instead of one interleaved per-link loop:
///
/// * **pass A** draws every link's §4.3 diversity verdict;
/// * **pass B** characterizes the survivors in entry order: it gathers a
///   kept link's samples — every probe's, or only the rebalanced
///   survivors' — from the chunk pools into the shard's one `surviving`
///   buffer and selects there, with the Wilson rank bounds memoized per
///   distinct sample count ([`characterize::RankCache`]). A discarded
///   link's samples are never copied, and the selection-heavy inner loop
///   runs back to back, with no reference hash-map traffic between links;
/// * **pass C** runs detection and the reference update.
///
/// Bit-identical to the interleaved loop: each link's RNG is derived
/// independently from `(cfg.seed, link, bin)` (pass A consumes no shared
/// stream), characterization depends only on the link's samples and
/// `cfg`, and pass C touches the references in the same entry order the
/// single loop did.
fn characterize_shard(
    rows: &ShardRows,
    links: &[IpLink],
    shard: &mut Shard,
    cfg: &DetectorConfig,
    bin: BinId,
    wave: Wave<'_, DelaySpec>,
    scratch: &mut ShardWork,
) {
    let out = &mut scratch.out;
    out.alarms.clear();
    out.stats.clear();
    out.new_links = 0;
    let n = rows.link_count();
    // Pass A: probe-diversity verdicts (step 2).
    scratch.decisions.clear();
    for j in 0..n {
        let slice = rows.link_in(j, links, wave);
        let mut rng = link_rng(cfg.seed, &slice.link, bin);
        let decision = diversity::decide(&slice, cfg, &mut rng, &mut scratch.diversity);
        scratch.decisions.push(decision);
    }
    // Pass B: robust characterization (step 3) of the kept links, each
    // gathered once into `surviving`. Characterized links land straight
    // in the output rows, in entry order.
    for j in 0..n {
        let removed = match &scratch.decisions[j] {
            diversity::Keep::Discard => continue,
            diversity::Keep::All => &[][..],
            diversity::Keep::Without(removed) => removed,
        };
        let slice = rows.link_in(j, links, wave);
        slice.gather_into(&mut scratch.surviving, removed);
        let stat = characterize::characterize_in_place_cached(
            &mut scratch.surviving,
            cfg,
            &mut scratch.ranks,
        );
        if let Some(stat) = stat {
            out.stats.push((slice.link, stat));
        }
    }
    // Pass C: detection + reference update (steps 4 + 5), in entry order.
    for &(link, stat) in &out.stats {
        let entry = shard.references.entry(link).or_insert_with(|| {
            out.new_links += 1;
            ReferenceEntry {
                reference: LinkReference::new(cfg),
                last_seen: bin,
            }
        });
        if let Some(alarm) = detect::check(link, bin, &stat, &entry.reference, cfg) {
            out.alarms.push(alarm);
        }
        entry.reference.update(&stat);
        entry.last_seen = bin;
    }
}

/// Strongest first; ties broken totally so output order is deterministic
/// regardless of hash-map iteration or shard interleaving.
fn sort_alarms(alarms: &mut [DelayAlarm]) {
    alarms.sort_by(|a, b| {
        b.deviation
            .abs()
            .partial_cmp(&a.deviation.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.link.cmp(&b.link))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_model::records::{Hop, Reply};
    use pinpoint_model::{Asn, MeasurementId, ProbeId, SimTime};
    use pinpoint_stats::wilson::median_ci_sorted;
    use std::net::Ipv4Addr;

    /// `pinpoint_bench::oracle::characterize`, restated: drop non-finite
    /// samples, sort, read the median and Wilson CI off the sorted copy.
    fn oracle_characterize(mut samples: Vec<f64>, cfg: &DetectorConfig) -> Option<LinkStat> {
        samples.retain(|x| x.is_finite());
        samples.sort_by(f64::total_cmp);
        median_ci_sorted(&samples, cfg.wilson_z).map(|ci| LinkStat { ci })
    }

    const ROUNDS: u32 = 150;

    /// Probes 1 and 2 (AS 100), 3 (AS 200) and 4 (AS 300) trace one link
    /// in turn for `ROUNDS` rounds, three replies a hop, so each probe's
    /// records fall in every scatter chunk. Probes 1 and 2 send identical
    /// RTTs, so dropping either leaves the same samples.
    fn round_robin() -> Vec<TracerouteRecord> {
        let ip = |s: &str| s.parse::<Ipv4Addr>().unwrap();
        let mut records = Vec::new();
        for round in 0..ROUNDS {
            for (probe, asn) in [(1, 100), (2, 100), (3, 200), (4, 300)] {
                let own = if probe <= 2 { 0.0 } else { f64::from(probe) };
                let rtts = |base: f64| -> Vec<f64> {
                    (0..3)
                        .map(|k| base + own + 0.01 * f64::from(round % 17) + 0.1 * f64::from(k))
                        .collect()
                };
                let hop = |ttl: u8, addr: &str, rtts: Vec<f64>| {
                    Hop::new(
                        ttl,
                        rtts.into_iter().map(|r| Reply::new(ip(addr), r)).collect(),
                    )
                };
                records.push(TracerouteRecord {
                    msm_id: MeasurementId(1),
                    probe_id: ProbeId(probe),
                    probe_asn: Asn(asn),
                    dst: ip("198.51.100.1"),
                    timestamp: SimTime(0),
                    paris_id: 0,
                    hops: vec![
                        hop(1, "10.0.0.1", rtts(1.0)),
                        hop(2, "10.0.1.1", rtts(4.0 + own)),
                    ],
                    destination_reached: true,
                });
            }
        }
        records
    }

    /// A probe's span covers runs from several chunks, and the shard job
    /// gathers them from the chunk pools: the link's statistic equals the
    /// oracle's on the same samples, whether the link is kept whole
    /// (`Keep::All`) or rebalanced (`Keep::Without`, one of AS 100's two
    /// probes dropped), at one and at two workers.
    #[test]
    fn spans_across_chunks_characterize_like_the_oracle() {
        let records = round_robin();
        let link = records[0].links()[0].0;
        let samples = |probes: &[u32]| -> Vec<f64> {
            let mut out = Vec::new();
            for rec in records.iter().filter(|r| probes.contains(&r.probe_id.0)) {
                rec.for_each_link(|_, near, far| {
                    for y in rec.hops[far].replies.iter().filter_map(|r| r.rtt_ms) {
                        for x in rec.hops[near].replies.iter().filter_map(|r| r.rtt_ms) {
                            out.push(y - x);
                        }
                    }
                });
            }
            out
        };
        // AS counts 2 : 1 : 1 — normalized entropy ≈ 0.946.
        for (entropy_threshold, kept) in [(0.5, &[1, 2, 3, 4][..]), (0.95, &[1, 3, 4][..])] {
            for threads in [1, 2] {
                let cfg = DetectorConfig {
                    entropy_threshold,
                    threads,
                    ..DetectorConfig::default()
                };
                let chunk = ingest::resolve_chunk_for(threads);
                assert!(
                    records.len() > chunk,
                    "one chunk holds the bin at {threads} threads"
                );
                let (_, stats) = DelayDetector::new(&cfg).process_bin(BinId(0), &records);
                let want = oracle_characterize(samples(kept), &cfg);
                assert_eq!(want.map(|s| s.ci.n), Some(kept.len() * ROUNDS as usize * 9));
                assert_eq!(
                    stats.get(&link),
                    want.as_ref(),
                    "entropy threshold {entropy_threshold}, {threads} threads"
                );
            }
        }
    }
}
