//! Step 1: differential RTT computation (§4.2.1).
//!
//! For adjacent responsive routers X, Y in a traceroute from probe P, every
//! combination `RTT(P,Y) − RTT(P,X)` is a differential RTT sample — one to
//! nine samples per traceroute, keyed by the ordered IP pair (X, Y). Samples
//! stay attributed to their probe (and the probe's AS) because the
//! diversity filter of §4.3 operates on probes, not raw samples.
//!
//! Two representations are provided:
//!
//! * [`LinkSamples`] / [`collect_link_samples`] — the readable nested-map
//!   reference layout, one `HashMap` per link keyed by probe. This is the
//!   *reference path* the engine-parity tests compare against.
//! * [`SampleArena`] — the engine's flat layout: one contiguous sample pool
//!   plus per-link/per-probe index spans, with every buffer reused across
//!   bins. A bin is ingested through the chunked, parallel scatter
//!   front-end (`crate::ingest`): engine workers scatter record chunks into
//!   per-(chunk, shard) *run* buffers — one `(key, start, len)` run per
//!   (record, link) over a per-shard value pool, since an observation's
//!   1–9 differential RTTs share one key — against epoch-persistent
//!   link/probe intern tables. Per-shard runs concatenate in chunk order
//!   and one cache-friendly sort over the (small) run index groups them —
//!   no per-probe maps, no re-interning of known keys, an order of
//!   magnitude fewer sorted elements than row-by-row staging, and
//!   byte-identical output for any chunking.

use crate::ingest::{ChunkPool, Interner, PENDING};
use crate::snapshot::{Reader, SnapshotError, Writer};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::{Asn, BinId, FxHashMap, IpLink, ProbeId};
use std::collections::HashMap;

/// All differential RTT samples for one link in one bin, per probe.
///
/// Construct via [`LinkSamples::insert`] or [`LinkSamples::from_per_probe`]
/// so the distinct-AS count stays consistent with the probe map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkSamples {
    /// probe → (probe AS, samples).
    per_probe: HashMap<ProbeId, (Asn, Vec<f64>)>,
    /// Distinct probe ASes, kept sorted — maintained incrementally so the
    /// diversity filter's `as_count` query is O(1) instead of re-sorting a
    /// fresh `Vec<Asn>` on every call.
    ases: Vec<Asn>,
}

impl LinkSamples {
    /// Build from a ready-made probe map (test helper / conversions).
    pub fn from_per_probe(per_probe: HashMap<ProbeId, (Asn, Vec<f64>)>) -> Self {
        let mut ases: Vec<Asn> = per_probe.values().map(|(a, _)| *a).collect();
        ases.sort_unstable();
        ases.dedup();
        LinkSamples { per_probe, ases }
    }

    /// Append one sample for `probe` (attributed to `asn`).
    ///
    /// A probe's AS is fixed by its first insertion: should later samples
    /// arrive under a different ASN (malformed feed), they stay attributed
    /// to the first-seen AS, and the distinct-AS count follows the stored
    /// attribution — the same rule the arena's probe interning applies.
    pub fn insert(&mut self, probe: ProbeId, asn: Asn, sample: f64) {
        let entry = self
            .per_probe
            .entry(probe)
            .or_insert_with(|| (asn, Vec::new()));
        entry.1.push(sample);
        let stored = entry.0;
        if let Err(pos) = self.ases.binary_search(&stored) {
            self.ases.insert(pos, stored);
        }
    }

    /// Bulk variant of [`LinkSamples::insert`]: one probe-map lookup and
    /// one AS-list update for a whole batch of samples, so the reference
    /// collection path pays per-(record, link) map costs — as the original
    /// implementation did — rather than per-sample.
    pub fn insert_many(&mut self, probe: ProbeId, asn: Asn, samples: &[f64]) {
        if samples.is_empty() {
            return;
        }
        let entry = self
            .per_probe
            .entry(probe)
            .or_insert_with(|| (asn, Vec::new()));
        entry.1.extend_from_slice(samples);
        let stored = entry.0;
        if let Err(pos) = self.ases.binary_search(&stored) {
            self.ases.insert(pos, stored);
        }
    }

    /// The probe → (AS, samples) map.
    pub fn per_probe(&self) -> &HashMap<ProbeId, (Asn, Vec<f64>)> {
        &self.per_probe
    }

    /// Total sample count across probes.
    pub fn sample_count(&self) -> usize {
        self.per_probe.values().map(|(_, v)| v.len()).sum()
    }

    /// Number of contributing probes.
    pub fn probe_count(&self) -> usize {
        self.per_probe.len()
    }

    /// Number of distinct probe ASes (O(1): tracked incrementally).
    pub fn as_count(&self) -> usize {
        self.ases.len()
    }

    /// Flatten all samples (order: unspecified).
    pub fn all_samples(&self) -> Vec<f64> {
        self.per_probe
            .values()
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }
}

/// Extract per-link differential RTT samples from a bin of traceroutes
/// (reference path; the engine uses [`SampleArena::build`]).
///
/// A probe's AS is pinned to the first `probe_asn` it reports in the bin
/// (across all links, in record order) — the identical rule the arena's
/// per-bin ASN re-pinning uses, so a malformed feed that flips a probe's
/// ASN mid-bin cannot break engine parity.
pub fn collect_link_samples(records: &[TracerouteRecord]) -> HashMap<IpLink, LinkSamples> {
    let mut out: HashMap<IpLink, LinkSamples> = HashMap::new();
    let mut probe_asns: HashMap<ProbeId, Asn> = HashMap::new();
    let mut near_rtts: Vec<f64> = Vec::new();
    let mut diffs: Vec<f64> = Vec::new();
    for rec in records {
        let asn = *probe_asns.entry(rec.probe_id).or_insert(rec.probe_asn);
        rec.for_each_link(|link, near_idx, far_idx| {
            let near_hop = &rec.hops[near_idx];
            let far_hop = &rec.hops[far_idx];
            near_rtts.clear();
            near_rtts.extend(near_hop.rtts_from(link.near));
            if near_rtts.is_empty() {
                return;
            }
            diffs.clear();
            for fy in far_hop.rtts_from(link.far) {
                for &fx in near_rtts.iter() {
                    diffs.push(fy - fx);
                }
            }
            if diffs.is_empty() {
                return;
            }
            out.entry(link)
                .or_default()
                .insert_many(rec.probe_id, asn, &diffs);
        });
    }
    out
}

pub(crate) use crate::engine::NUM_SHARDS;

/// Stable shard assignment: one SplitMix64 round over the packed address
/// pair (see [`crate::engine`] for the determinism contract).
pub(crate) fn shard_of(link: &IpLink) -> usize {
    let key = (u64::from(u32::from(link.near)) << 32) | u64::from(u32::from(link.far));
    crate::engine::shard_of_u64(key)
}

/// One probe's contiguous run of samples for one link.
#[derive(Debug, Clone, Copy)]
struct ProbeSpan {
    /// Index into the arena's probe tables.
    slot: u32,
    start: u32,
    len: u32,
}

#[derive(Debug, Clone, Copy)]
struct LinkEntry {
    /// Shard-local intern id — resolved to the [`IpLink`] against the
    /// shard's epoch table at view time ([`ShardRows::link_in`]) and used
    /// by the post-wave stamp fence ([`SampleArena::stamp_bin`]).
    local: u32,
    spans_start: u32,
    spans_len: u32,
    as_count: u32,
}

/// One link's view into the arena.
#[derive(Debug, Clone, Copy)]
pub struct LinkSlice<'a> {
    /// The link (ordered IP pair).
    pub link: IpLink,
    /// Distinct probe ASes contributing to this link.
    pub as_count: usize,
    spans: &'a [ProbeSpan],
    pool: &'a [f64],
    probe_ids: &'a [ProbeId],
    probe_asns: &'a [Asn],
}

impl<'a> LinkSlice<'a> {
    /// Number of contributing probes.
    pub fn probe_count(&self) -> usize {
        self.spans.len()
    }

    /// Total samples for this link.
    pub fn sample_count(&self) -> usize {
        self.spans.iter().map(|s| s.len as usize).sum()
    }

    /// Iterate `(probe, asn, samples)` — deterministic order (probes in
    /// intern-epoch slot order).
    pub fn probes(&self) -> impl Iterator<Item = (ProbeId, Asn, &'a [f64])> + '_ {
        self.spans.iter().map(move |s| {
            (
                self.probe_ids[s.slot as usize],
                self.probe_asns[s.slot as usize],
                &self.pool[s.start as usize..(s.start + s.len) as usize],
            )
        })
    }
}

/// One scatter chunk's private output: per-shard row buffers plus the
/// chunk-local queues of keys not yet in the persistent intern tables.
/// Written by exactly one scatter job (no sharing, no locks), then read by
/// the sequential merge and the per-shard gather. All buffers are reused
/// across bins.
#[derive(Debug, Default)]
pub(crate) struct DelayChunk {
    /// Per-shard run index: `(link_local << 32 | probe_slot, start, len)`
    /// with `start` addressing this chunk's per-shard `vals` pool, in
    /// record order within the chunk. One (record, link) observation is
    /// ONE run (its 1–9 differential RTTs are consecutive in `vals`), and
    /// adjacent same-key runs merge at push — so the sort that groups a
    /// shard handles ~an order of magnitude fewer elements than it would
    /// row-by-row. Ids may carry [`PENDING`].
    runs: Vec<Vec<(u64, u32, u32)>>,
    /// Per-shard sample values, in record order (runs index into this).
    vals: Vec<Vec<f64>>,
    /// Links first seen by this chunk, in encounter order; pending id `i`
    /// is `new_links[i]`.
    new_links: Vec<IpLink>,
    /// Chunk-local dedup for `new_links`.
    new_link_ids: FxHashMap<IpLink, u32>,
    /// Filled by the merge: pending link id → final shard-local id.
    link_patch: Vec<u32>,
    /// Probes first seen by this chunk, in encounter order.
    new_probes: Vec<ProbeId>,
    /// Chunk-local probe dedup: probe → encoded slot (table slot, or
    /// `PENDING | new_probes index`).
    probe_seen: FxHashMap<ProbeId, u32>,
    /// Every probe this chunk touched — `(encoded slot, first-seen ASN)`
    /// in encounter order; drives per-bin ASN pinning and stamps.
    touched_probes: Vec<(u32, Asn)>,
    /// Filled by the merge: pending probe id → final table slot.
    probe_patch: Vec<u32>,
    /// Scratch for near-side RTTs.
    near_rtts: Vec<f64>,
}

/// The read-only arena state a scatter job shares with every other job:
/// the per-shard link tables and the probe table. Lookups are lock-free;
/// known keys resolve without any insertion.
#[derive(Clone, Copy)]
pub(crate) struct DelayScatterView<'a> {
    pub(crate) links: &'a [Interner<IpLink>],
    pub(crate) probes: &'a Interner<ProbeId>,
}

impl DelayChunk {
    fn clear(&mut self) {
        if self.runs.len() < NUM_SHARDS {
            self.runs.resize_with(NUM_SHARDS, Vec::new);
            self.vals.resize_with(NUM_SHARDS, Vec::new);
        }
        for runs in &mut self.runs {
            runs.clear();
        }
        for vals in &mut self.vals {
            vals.clear();
        }
        self.new_links.clear();
        self.new_link_ids.clear();
        self.new_probes.clear();
        self.probe_seen.clear();
        self.touched_probes.clear();
        // `link_patch` / `probe_patch` are NOT cleared here: the merge
        // owns their lifecycle — it clears and refills both before any
        // `gather` reads them, so wiping them per wave is wasted work.
    }

    /// Scatter one record chunk into this chunk's per-shard row buffers,
    /// resolving keys against the shared persistent tables (`view`) and
    /// queueing unknown ones chunk-locally. Pure per-chunk work: the
    /// output depends only on `(records, table state at bin start)`, never
    /// on the thread that ran it or on any other chunk.
    pub(crate) fn scatter(&mut self, records: &[TracerouteRecord], view: DelayScatterView<'_>) {
        for rec in records {
            let probe_enc = match self.probe_seen.get(&rec.probe_id) {
                Some(&enc) => enc,
                None => {
                    let enc = match view.probes.get(&rec.probe_id) {
                        Some(slot) => slot,
                        None => {
                            self.new_probes.push(rec.probe_id);
                            PENDING | (self.new_probes.len() as u32 - 1)
                        }
                    };
                    self.probe_seen.insert(rec.probe_id, enc);
                    self.touched_probes.push((enc, rec.probe_asn));
                    enc
                }
            };
            let runs = &mut self.runs;
            let vals = &mut self.vals;
            let new_links = &mut self.new_links;
            let new_link_ids = &mut self.new_link_ids;
            let near_rtts = &mut self.near_rtts;
            rec.for_each_link(|link, near_idx, far_idx| {
                let near_hop = &rec.hops[near_idx];
                let far_hop = &rec.hops[far_idx];
                near_rtts.clear();
                near_rtts.extend(near_hop.rtts_from(link.near));
                if near_rtts.is_empty() {
                    return;
                }
                // (shard, row key, run start) — resolved once per
                // (record, link), on the first responsive far reply.
                let mut key: Option<(usize, u64, u32)> = None;
                for fy in far_hop.rtts_from(link.far) {
                    if key.is_none() {
                        let s = shard_of(&link);
                        let local = match view.links[s].get(&link) {
                            Some(local) => local,
                            None => match new_link_ids.get(&link) {
                                Some(&pending) => pending,
                                None => {
                                    new_links.push(link);
                                    let pending = PENDING | (new_links.len() as u32 - 1);
                                    new_link_ids.insert(link, pending);
                                    pending
                                }
                            },
                        };
                        let row_key = (u64::from(local) << 32) | u64::from(probe_enc);
                        key = Some((s, row_key, vals[s].len() as u32));
                    }
                    let (s, _, _) = key.expect("just set");
                    let vals = &mut vals[s];
                    for &fx in near_rtts.iter() {
                        vals.push(fy - fx);
                    }
                }
                // One run per observation; a same-key run ending exactly
                // where this one starts (same probe re-tracing the link)
                // extends in place instead.
                if let Some((s, row_key, start)) = key {
                    let len = vals[s].len() as u32 - start;
                    debug_assert!(len > 0, "a resolved key implies pushed samples");
                    match runs[s].last_mut() {
                        Some(run) if run.0 == row_key => run.2 += len,
                        _ => runs[s].push((row_key, start, len)),
                    }
                }
            });
        }
    }
}

/// One staged (record, link) observation of a shard's bin.
#[derive(Debug, Clone, Copy)]
struct SampleRun {
    /// `link_local << 32 | probe_slot` (patched — never [`PENDING`]).
    key: u64,
    /// Which chunk's `vals` pool the run's samples live in.
    chunk: u32,
    /// Offset and length of the run in that pool.
    start: u32,
    len: u32,
}

/// One shard's per-wave row workspace: the bin's rows and their grouped
/// layout. `gather` concatenates the bin's chunk buffers in chunk order
/// (patching pending ids); `finalize` (run by the shard's worker thread)
/// sorts and groups into `pool`/`spans`/`entries`. Holds no epoch state —
/// the shard's link intern table lives in [`SampleArena::links`] — and is
/// consumed within one wave: its content is dead once the wave's outputs
/// are merged and the observed entries are stamped.
#[derive(Debug, Default)]
pub(crate) struct ShardRows {
    /// The bin's gathered runs, sorted by `(key, chunk, start)` at
    /// finalize — equal keys keep gather (= record) order, so the pool
    /// layout is exactly what a row-by-row sort would produce while the
    /// sort itself handles ~an order of magnitude fewer elements (one
    /// run per (record, link), not one row per sample).
    runs: Vec<SampleRun>,
    pool: Vec<f64>,
    spans: Vec<ProbeSpan>,
    entries: Vec<LinkEntry>,
    as_scratch: Vec<Asn>,
    /// Radix ping-pong buffer, recycled across bins so steady-state
    /// finalize passes allocate nothing.
    sort_scratch: Vec<SampleRun>,
}

impl ShardRows {
    /// Concatenate this shard's runs from every chunk **in chunk order**
    /// (= record order, whatever the chunk size), patching pending ids to
    /// their merged table slots. Safe to run concurrently across shards:
    /// each shard reads only its own `chunk.runs[idx]` buffers.
    pub(crate) fn gather(&mut self, idx: usize, chunks: &[DelayChunk]) {
        self.runs.clear();
        for (c, chunk) in chunks.iter().enumerate() {
            let source = &chunk.runs[idx];
            // Steady-state fast path: a chunk that discovered no new keys
            // wrote no pending ids anywhere — its runs are final.
            if chunk.new_links.is_empty() && chunk.new_probes.is_empty() {
                self.runs
                    .extend(source.iter().map(|&(key, start, len)| SampleRun {
                        key,
                        chunk: c as u32,
                        start,
                        len,
                    }));
                continue;
            }
            for &(key, start, len) in source {
                let mut link = (key >> 32) as u32;
                if link & PENDING != 0 {
                    link = chunk.link_patch[(link ^ PENDING) as usize];
                }
                let mut slot = key as u32;
                if slot & PENDING != 0 {
                    slot = chunk.probe_patch[(slot ^ PENDING) as usize];
                }
                self.runs.push(SampleRun {
                    key: (u64::from(link) << 32) | u64::from(slot),
                    chunk: c as u32,
                    start,
                    len,
                });
            }
        }
    }

    /// Sort this shard's runs and lay out the grouped pool/span/entry
    /// indexes, copying each run's samples out of its chunk's value pool.
    /// Safe to run concurrently across shards: it never touches the
    /// epoch tables (observed links are stamped by the caller's serial
    /// fence, [`SampleArena::stamp_bin`], from the entry list this lays
    /// out).
    pub(crate) fn finalize(&mut self, idx: usize, probe_asns: &[Asn], chunks: &[DelayChunk]) {
        self.pool.clear();
        self.spans.clear();
        self.entries.clear();
        // One sort over a small, cache-resident run index. `gather`
        // appends runs in (chunk, start) order, so the stable radix sort
        // by key alone reproduces the comparison sort's explicit
        // (chunk, start) tiebreak — same pool layout, O(n · live_digits)
        // instead of O(n log n). Below `RADIX_MIN_KEYS` runs, the
        // histogram pre-pass costs more than it saves.
        if self.runs.len() >= pinpoint_stats::RADIX_MIN_KEYS {
            pinpoint_stats::sort_by_u64_key(&mut self.runs, &mut self.sort_scratch, |r| r.key);
        } else {
            self.runs
                .sort_unstable_by_key(|r| (r.key, r.chunk, r.start));
        }
        let mut i = 0;
        while i < self.runs.len() {
            let link_local = (self.runs[i].key >> 32) as u32;
            let spans_start = self.spans.len() as u32;
            self.as_scratch.clear();
            while i < self.runs.len() && (self.runs[i].key >> 32) as u32 == link_local {
                let key = self.runs[i].key;
                let slot = key as u32;
                let start = self.pool.len() as u32;
                while i < self.runs.len() && self.runs[i].key == key {
                    let run = self.runs[i];
                    let vals = &chunks[run.chunk as usize].vals[idx];
                    self.pool.extend_from_slice(
                        &vals[run.start as usize..(run.start + run.len) as usize],
                    );
                    i += 1;
                }
                self.spans.push(ProbeSpan {
                    slot,
                    start,
                    len: self.pool.len() as u32 - start,
                });
                self.as_scratch.push(probe_asns[slot as usize]);
            }
            self.as_scratch.sort_unstable();
            self.as_scratch.dedup();
            self.entries.push(LinkEntry {
                local: link_local,
                spans_start,
                spans_len: self.spans.len() as u32 - spans_start,
                as_count: self.as_scratch.len() as u32,
            });
        }
    }

    /// Links in this shard's current bin (after `finalize`).
    pub(crate) fn link_count(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn link_in<'a>(
        &'a self,
        j: usize,
        links: &'a [IpLink],
        probe_ids: &'a [ProbeId],
        probe_asns: &'a [Asn],
    ) -> LinkSlice<'a> {
        let e = self.entries[j];
        LinkSlice {
            link: links[e.local as usize],
            as_count: e.as_count as usize,
            spans: &self.spans[e.spans_start as usize..(e.spans_start + e.spans_len) as usize],
            pool: &self.pool,
            probe_ids,
            probe_asns,
        }
    }

    /// The contiguous pool region holding link `j`'s samples, in the same
    /// span order [`LinkSlice::probes`] iterates — `finalize` lays every
    /// link's spans out back to back, which is what makes the zero-copy
    /// characterization of balanced links possible: the caller may
    /// permute `pool_mut()[entry_pool_range(j)]` in place instead of
    /// copying the samples out.
    pub(crate) fn entry_pool_range(&self, j: usize) -> std::ops::Range<usize> {
        let e = self.entries[j];
        debug_assert!(e.spans_len > 0, "a bin entry has at least one span");
        let first = self.spans[e.spans_start as usize];
        let last = self.spans[(e.spans_start + e.spans_len - 1) as usize];
        first.start as usize..(last.start + last.len) as usize
    }

    /// The sample pool, mutably (quickselect permutation target).
    pub(crate) fn pool_mut(&mut self) -> &mut [f64] {
        &mut self.pool
    }
}

/// The engine's flat, sharded, bin-reusable sample store, fed by the
/// chunked parallel ingestion front-end (`crate::ingest`).
///
/// Per bin: scatter jobs stage each (record, link) observation as one
/// run — its differential RTTs pushed onto a per-(chunk, shard) value
/// pool, indexed by a 16-byte `(key, start, len)` run entry — resolving
/// links and probes through *epoch-persistent* intern tables
/// (steady-state bins perform zero insertions); a short sequential merge
/// assigns dense ids to the bin's new keys in chunk order (= record
/// order); then `ShardRows::gather` + `ShardRows::finalize` — run
/// per shard, in parallel — concatenate each shard's runs in chunk order
/// and group them with one composite-keyed sort over the run index
/// (equal keys keep gather order, so the grouped pool is exactly the
/// row-by-row layout at a fraction of the sort cost). Every buffer and
/// every table is retained across bins, and a compaction sweep on the
/// shared `reference_expiry_bins` clock evicts keys that stopped
/// appearing, so neither allocation nor key churn grows with the epoch.
#[derive(Debug)]
pub struct SampleArena {
    /// Epoch-persistent per-shard link → shard-local id tables, shared
    /// read-only by every scatter job.
    links: Vec<Interner<IpLink>>,
    /// Per-shard per-wave row workspace (consumed within one shard wave).
    rows: Vec<ShardRows>,
    /// Epoch-persistent probe → slot table.
    probes: Interner<ProbeId>,
    /// Probe slot → ASN, re-pinned each bin to the first ASN the probe
    /// reported that bin (record order) — the reference path's rule.
    probe_asns: Vec<Asn>,
    /// Probe slot → scatter session in which `probe_asns` was last pinned.
    probe_pins: Vec<u64>,
    /// Monotonic scatter-session counter (bumped per bin open).
    session: u64,
    /// The open bin's scatter chunks. The chunk buffers (run indexes,
    /// value pools, dedup maps) are retained and recycled across bins —
    /// a steady stream allocates nothing here.
    chunks: ChunkPool<DelayChunk>,
    insertions_at_bin_start: u64,
}

impl Default for SampleArena {
    fn default() -> Self {
        SampleArena {
            links: (0..NUM_SHARDS).map(|_| Interner::default()).collect(),
            rows: (0..NUM_SHARDS).map(|_| ShardRows::default()).collect(),
            probes: Interner::default(),
            probe_asns: Vec::new(),
            probe_pins: Vec::new(),
            session: 0,
            chunks: ChunkPool::default(),
            insertions_at_bin_start: 0,
        }
    }
}

/// Split borrow of an arena for the shard wave: mutable per-shard row
/// workspaces alongside the bin's chunk outputs and the shared (read-only)
/// intern tables, so stage construction can hand shards to workers while
/// chunk rows, link keys, and probe id/ASN slices stay readable from every
/// job.
pub(crate) struct SampleArenaParts<'a> {
    pub(crate) rows: &'a mut [ShardRows],
    pub(crate) links: &'a [Interner<IpLink>],
    pub(crate) chunks: &'a [DelayChunk],
    pub(crate) probe_ids: &'a [ProbeId],
    pub(crate) probe_asns: &'a [Asn],
}

impl SampleArena {
    /// Fresh arena (buffers grow on first use).
    pub fn new() -> Self {
        SampleArena::default()
    }

    fn total_insertions(&self) -> u64 {
        self.probes.insertions() + self.links.iter().map(Interner::insertions).sum::<u64>()
    }

    /// Interning-epoch counters for this arena (links + probes).
    pub(crate) fn stats(&self) -> crate::ingest::IngestStats {
        crate::ingest::IngestStats {
            interned: self.probes.len() + self.links.iter().map(Interner::len).sum::<usize>(),
            bin_insertions: self.total_insertions() - self.insertions_at_bin_start,
            insertions: self.total_insertions(),
            evictions: self.probes.evictions()
                + self.links.iter().map(Interner::evictions).sum::<u64>(),
        }
    }

    /// Serialize the epoch-persistent state: the per-shard link tables and
    /// the probe table (keys in dense-id order — restore reproduces the
    /// identical id assignment), the probe ASN pins, and the session
    /// counters. Per-wave state (shard rows, scatter chunks) is scratch the
    /// next bin rebuilds, so it is not written.
    pub(crate) fn snapshot_into(&self, w: &mut Writer) {
        for table in &self.links {
            let (keys, seen, insertions, evictions) = table.snapshot_parts();
            w.seq(keys.len());
            for (link, bin) in keys.iter().zip(seen) {
                w.ip(link.near);
                w.ip(link.far);
                w.u64(bin.0);
            }
            w.u64(insertions);
            w.u64(evictions);
        }
        let (keys, seen, insertions, evictions) = self.probes.snapshot_parts();
        w.seq(keys.len());
        for (probe, bin) in keys.iter().zip(seen) {
            w.u32(probe.0);
            w.u64(bin.0);
        }
        w.u64(insertions);
        w.u64(evictions);
        debug_assert_eq!(self.probe_asns.len(), keys.len());
        debug_assert_eq!(self.probe_pins.len(), keys.len());
        for (asn, pin) in self.probe_asns.iter().zip(&self.probe_pins) {
            w.u32(asn.0);
            w.u64(*pin);
        }
        w.u64(self.session);
        w.u64(self.insertions_at_bin_start);
    }

    /// Rebuild an arena from [`SampleArena::snapshot_into`] bytes, with
    /// fresh (empty) per-wave scratch.
    pub(crate) fn restore_from(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut arena = SampleArena::default();
        for table in &mut arena.links {
            let n = r.seq()?;
            let mut keys = Vec::with_capacity(n);
            let mut seen = Vec::with_capacity(n);
            for _ in 0..n {
                let near = r.ip()?;
                let far = r.ip()?;
                keys.push(IpLink::new(near, far));
                seen.push(BinId(r.u64()?));
            }
            *table = Interner::from_parts(keys, seen, r.u64()?, r.u64()?);
        }
        let n = r.seq()?;
        let mut keys = Vec::with_capacity(n);
        let mut seen = Vec::with_capacity(n);
        for _ in 0..n {
            keys.push(ProbeId(r.u32()?));
            seen.push(BinId(r.u64()?));
        }
        arena.probes = Interner::from_parts(keys, seen, r.u64()?, r.u64()?);
        arena.probe_asns = Vec::with_capacity(n);
        arena.probe_pins = Vec::with_capacity(n);
        for _ in 0..n {
            arena.probe_asns.push(Asn(r.u32()?));
            arena.probe_pins.push(r.u64()?);
        }
        arena.session = r.u64()?;
        arena.insertions_at_bin_start = r.u64()?;
        Ok(arena)
    }

    /// Start a new scatter session: the next bin's chunks overwrite the
    /// pool from the beginning and the bin-insertion counter resets.
    pub(crate) fn begin_bin(&mut self) {
        self.session += 1;
        self.chunks.begin_bin();
        self.insertions_at_bin_start = self.total_insertions();
    }

    /// Evict links and probes unseen for more than `expiry_bins` bins and
    /// renumber the survivors. Dense ids never reach reports, so a sweep
    /// is byte-for-byte invisible downstream. Must run between bins: after
    /// the previous bin's shard wave (and its [`Self::stamp_bin`]) and
    /// before the next bin's chunks scatter — renumbering under scattered
    /// rows would corrupt their packed ids.
    pub(crate) fn compact(&mut self, now: BinId, expiry_bins: usize) {
        for table in &mut self.links {
            table.compact(now, expiry_bins);
        }
        if let Some(kept) = self.probes.compact(now, expiry_bins) {
            for (new, &old) in kept.iter().enumerate() {
                self.probe_asns[new] = self.probe_asns[old as usize];
                self.probe_pins[new] = self.probe_pins[old as usize];
            }
            self.probe_asns.truncate(kept.len());
            self.probe_pins.truncate(kept.len());
        }
    }

    /// Reserve `n` cleared chunk buffers for the current session and
    /// return them alongside the shared scatter view. The buffers extend
    /// the session's chunk sequence (incremental feeding appends).
    pub(crate) fn scatter_parts(&mut self, n: usize) -> (&mut [DelayChunk], DelayScatterView<'_>) {
        let SampleArena {
            chunks,
            links,
            probes,
            ..
        } = self;
        (
            chunks.reserve(n, DelayChunk::clear),
            DelayScatterView { links, probes },
        )
    }

    /// The sequential chunk-ordered merge between the scatter wave and the
    /// shard wave: assign dense ids to keys first seen this bin (chunk
    /// order = record order, so the assignment is identical for every
    /// chunk size and thread count), re-pin each touched probe's ASN to
    /// its first record of the bin, and stamp probe last-seen clocks.
    pub(crate) fn merge(&mut self, bin: BinId) {
        let SampleArena {
            chunks,
            links,
            probes,
            probe_asns,
            probe_pins,
            session,
            ..
        } = self;
        for chunk in chunks.active_mut() {
            chunk.link_patch.clear();
            for &link in &chunk.new_links {
                let s = shard_of(&link);
                let local = match links[s].get(&link) {
                    Some(local) => local,
                    None => links[s].insert(link, bin),
                };
                chunk.link_patch.push(local);
            }
            chunk.probe_patch.clear();
            for &(enc, asn) in &chunk.touched_probes {
                let slot = if enc & PENDING != 0 {
                    debug_assert_eq!((enc ^ PENDING) as usize, chunk.probe_patch.len());
                    let probe = chunk.new_probes[(enc ^ PENDING) as usize];
                    let slot = match probes.get(&probe) {
                        Some(slot) => slot,
                        None => {
                            let slot = probes.insert(probe, bin);
                            probe_asns.push(asn);
                            probe_pins.push(0);
                            slot
                        }
                    };
                    chunk.probe_patch.push(slot);
                    slot
                } else {
                    enc
                };
                if probe_pins[slot as usize] != *session {
                    probe_pins[slot as usize] = *session;
                    probe_asns[slot as usize] = asn;
                }
                probes.stamp(slot, bin);
            }
        }
    }

    /// Stamp every link observed by the just-finished shard wave with
    /// `bin` — the serial fence closing a bin's epoch bookkeeping. Split
    /// out of `finalize` so shard jobs never write the epoch tables; must
    /// run after the wave and before the next bin's compaction sweep.
    pub(crate) fn stamp_bin(&mut self, bin: BinId) {
        for (table, shard) in self.links.iter_mut().zip(&self.rows) {
            for e in &shard.entries {
                table.stamp(e.local, bin);
            }
        }
    }

    /// Disjoint views for the engine's shard wave (after [`Self::merge`]).
    pub(crate) fn parts_mut(&mut self) -> SampleArenaParts<'_> {
        let SampleArena {
            links,
            rows,
            chunks,
            probes,
            probe_asns,
            ..
        } = self;
        SampleArenaParts {
            rows,
            links,
            chunks: chunks.active(),
            probe_ids: probes.keys(),
            probe_asns,
        }
    }

    /// Scatter + merge + gather + finalize inline, as a single chunk (the
    /// single-threaded convenience entry; the engine runs chunks and
    /// shards on its workers). No compaction — callers with an expiry
    /// policy drive `compact` themselves.
    pub fn build(&mut self, records: &[TracerouteRecord]) {
        let bin = BinId(0);
        self.begin_bin();
        {
            let (chunks, view) = self.scatter_parts(1);
            chunks[0].scatter(records, view);
        }
        self.merge(bin);
        let parts = self.parts_mut();
        for (i, shard) in parts.rows.iter_mut().enumerate() {
            shard.gather(i, parts.chunks);
            shard.finalize(i, parts.probe_asns, parts.chunks);
        }
        self.stamp_bin(bin);
    }

    /// Number of links with at least one sample in the current bin
    /// (after finalize).
    pub fn link_count(&self) -> usize {
        self.rows.iter().map(ShardRows::link_count).sum()
    }

    /// Total differential RTT samples in the current bin (after finalize).
    pub fn total_samples(&self) -> usize {
        self.rows.iter().map(|s| s.pool.len()).sum()
    }

    /// View of the `i`-th link of the current bin, counting across shards
    /// (arbitrary but deterministic order; after finalize).
    pub fn link(&self, i: usize) -> LinkSlice<'_> {
        let mut i = i;
        for (s, shard) in self.rows.iter().enumerate() {
            if i < shard.link_count() {
                return shard.link_in(
                    i,
                    self.links[s].keys(),
                    self.probes.keys(),
                    &self.probe_asns,
                );
            }
            i -= shard.link_count();
        }
        panic!("link index {i} out of bounds");
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

    fn hop(ttl: u8, addr: &str, rtts: &[f64]) -> Hop {
        Hop::new(ttl, rtts.iter().map(|&r| Reply::new(ip(addr), r)).collect())
    }

    #[test]
    fn all_combinations_are_produced() {
        // 3 RTTs at X and 2 at Y → 6 samples.
        let rec = record(
            1,
            64500,
            vec![
                hop(1, "10.0.0.1", &[1.0, 1.1, 1.2]),
                hop(2, "10.0.1.1", &[5.0, 5.5]),
            ],
        );
        let out = collect_link_samples(&[rec]);
        let link = IpLink::new(ip("10.0.0.1"), ip("10.0.1.1"));
        let samples = &out[&link];
        assert_eq!(samples.sample_count(), 6);
        let all = samples.all_samples();
        assert!(all.iter().any(|&d| (d - (5.0 - 1.0)).abs() < 1e-9));
        assert!(all.iter().any(|&d| (d - (5.5 - 1.2)).abs() < 1e-9));
    }

    #[test]
    fn negative_differentials_are_kept() {
        // Y answering faster than X (asymmetric return paths) is real data,
        // not an error (§4.1: "we observe negative differential RTTs").
        let rec = record(
            1,
            64500,
            vec![hop(1, "10.0.0.1", &[9.0]), hop(2, "10.0.1.1", &[4.0])],
        );
        let out = collect_link_samples(&[rec]);
        let link = IpLink::new(ip("10.0.0.1"), ip("10.0.1.1"));
        assert_eq!(out[&link].all_samples(), vec![-5.0]);
    }

    #[test]
    fn samples_group_by_probe_and_as() {
        let recs = vec![
            record(
                1,
                100,
                vec![hop(1, "10.0.0.1", &[1.0]), hop(2, "10.0.1.1", &[2.0])],
            ),
            record(
                2,
                100,
                vec![hop(1, "10.0.0.1", &[1.0]), hop(2, "10.0.1.1", &[3.0])],
            ),
            record(
                3,
                200,
                vec![hop(1, "10.0.0.1", &[1.0]), hop(2, "10.0.1.1", &[4.0])],
            ),
        ];
        let out = collect_link_samples(&recs);
        let link = IpLink::new(ip("10.0.0.1"), ip("10.0.1.1"));
        let s = &out[&link];
        assert_eq!(s.probe_count(), 3);
        assert_eq!(s.as_count(), 2);
        assert_eq!(s.per_probe()[&ProbeId(3)].0, Asn(200));
    }

    #[test]
    fn conflicting_probe_asn_attributed_to_first_seen_in_both_paths() {
        // A malformed feed reports probe 1 under AS 100, then AS 200 — on
        // the same link and on a second link it only visits under AS 200.
        // Both representations must pin the probe to its first-seen AS
        // (AS 100) everywhere, or engine parity would break on the
        // diversity filter's AS count.
        let recs = vec![
            record(
                1,
                100,
                vec![hop(1, "10.0.0.1", &[1.0]), hop(2, "10.0.1.1", &[2.0])],
            ),
            record(
                1,
                200,
                vec![hop(1, "10.0.0.1", &[1.0]), hop(2, "10.0.1.1", &[3.0])],
            ),
            record(
                1,
                200,
                vec![hop(1, "10.0.9.1", &[1.0]), hop(2, "10.0.9.2", &[3.0])],
            ),
            record(
                2,
                300,
                vec![hop(1, "10.0.0.1", &[1.0]), hop(2, "10.0.1.1", &[4.0])],
            ),
        ];
        let reference = collect_link_samples(&recs);
        let mut arena = SampleArena::new();
        arena.build(&recs);
        for i in 0..arena.link_count() {
            let slice = arena.link(i);
            let expect = &reference[&slice.link];
            assert_eq!(slice.as_count, expect.as_count(), "link {}", slice.link);
            for (probe, asn, _) in slice.probes() {
                assert_eq!(asn, expect.per_probe()[&probe].0, "probe {probe:?}");
            }
        }
        // Probe 1 is AS 100 everywhere, including the link it never
        // visited under AS 100.
        let second = IpLink::new(ip("10.0.9.1"), ip("10.0.9.2"));
        assert_eq!(reference[&second].per_probe()[&ProbeId(1)].0, Asn(100));
        // And LinkSamples' incremental AS list matches a rebuild.
        let first = IpLink::new(ip("10.0.0.1"), ip("10.0.1.1"));
        let rebuilt = LinkSamples::from_per_probe(reference[&first].per_probe().clone());
        assert_eq!(reference[&first].as_count(), rebuilt.as_count());
        assert_eq!(reference[&first].as_count(), 2); // AS 100 + AS 300
    }

    #[test]
    fn probe_asn_repins_per_bin_like_the_reference_path() {
        // Bin 1: probe 1 reports AS 100. Bin 2: the same probe reports
        // AS 900 from its first record. The reference path pins per bin,
        // so the persistent probe table must re-pin — not freeze the
        // epoch-first ASN.
        let mk = |asn: u32| {
            record(
                1,
                asn,
                vec![hop(1, "10.0.0.1", &[1.0]), hop(2, "10.0.1.1", &[2.0])],
            )
        };
        let mut arena = SampleArena::new();
        arena.build(&[mk(100)]);
        assert_eq!(arena.link(0).probes().next().unwrap().1, Asn(100));
        arena.build(&[mk(900)]);
        assert_eq!(arena.link(0).probes().next().unwrap().1, Asn(900));
    }

    #[test]
    fn as_count_tracks_insertions_incrementally() {
        let mut s = LinkSamples::default();
        assert_eq!(s.as_count(), 0);
        s.insert(ProbeId(1), Asn(100), 1.0);
        s.insert(ProbeId(2), Asn(100), 2.0);
        assert_eq!(s.as_count(), 1);
        s.insert(ProbeId(3), Asn(300), 3.0);
        s.insert(ProbeId(4), Asn(200), 4.0);
        assert_eq!(s.as_count(), 3);
        // Agrees with a from-scratch reconstruction.
        let rebuilt = LinkSamples::from_per_probe(s.per_probe().clone());
        assert_eq!(rebuilt.as_count(), 3);
    }

    #[test]
    fn unresponsive_hop_breaks_the_chain() {
        let rec = record(
            1,
            64500,
            vec![
                hop(1, "10.0.0.1", &[1.0]),
                Hop::new(2, vec![Reply::TIMEOUT; 3]),
                hop(3, "10.0.2.1", &[9.0]),
            ],
        );
        let out = collect_link_samples(&[rec]);
        assert!(out.is_empty());
    }

    #[test]
    fn multiple_traceroutes_accumulate() {
        let mk = |rtt: f64| {
            record(
                1,
                64500,
                vec![hop(1, "10.0.0.1", &[1.0]), hop(2, "10.0.1.1", &[rtt])],
            )
        };
        let out = collect_link_samples(&[mk(2.0), mk(3.0)]);
        let link = IpLink::new(ip("10.0.0.1"), ip("10.0.1.1"));
        assert_eq!(out[&link].sample_count(), 2);
        assert_eq!(out[&link].probe_count(), 1);
    }

    #[test]
    fn arena_matches_reference_collection() {
        // Interleaved records across two links and three probes: the arena
        // must regroup them identically to the nested-map path. Those
        // shards stay below `RADIX_MIN_KEYS` runs (comparison sort); the
        // busy link appended below puts one run per probe into a single
        // shard, pushing it over the threshold (radix sort).
        let mut recs = vec![
            record(
                2,
                200,
                vec![hop(1, "10.0.0.1", &[1.0, 1.2]), hop(2, "10.0.1.1", &[5.0])],
            ),
            record(
                1,
                100,
                vec![hop(1, "10.0.0.1", &[1.1]), hop(2, "10.0.1.1", &[4.0, 4.5])],
            ),
            record(
                3,
                300,
                vec![hop(1, "10.0.9.1", &[2.0]), hop(2, "10.0.9.2", &[3.0])],
            ),
            record(
                2,
                200,
                vec![hop(1, "10.0.0.1", &[0.9]), hop(2, "10.0.1.1", &[6.0])],
            ),
        ];
        let busy = pinpoint_stats::RADIX_MIN_KEYS as u32 + 6;
        // Descending probe ids, so the packed run keys arrive unsorted.
        recs.extend((0..busy).rev().map(|p| {
            let rtt = 3.0 + f64::from(p % 7);
            record(
                100 + p,
                400 + p % 5,
                vec![hop(1, "10.0.7.1", &[1.0]), hop(2, "10.0.7.2", &[rtt])],
            )
        }));
        let reference = collect_link_samples(&recs);
        let mut arena = SampleArena::new();
        arena.build(&recs);
        assert!(
            arena
                .rows
                .iter()
                .any(|shard| shard.runs.len() >= busy as usize),
            "no shard crossed the radix threshold"
        );

        assert_eq!(arena.link_count(), reference.len());
        assert_eq!(
            arena.total_samples(),
            reference.values().map(|s| s.sample_count()).sum::<usize>()
        );
        for i in 0..arena.link_count() {
            let slice = arena.link(i);
            let expect = &reference[&slice.link];
            assert_eq!(slice.probe_count(), expect.probe_count());
            assert_eq!(slice.as_count, expect.as_count());
            assert_eq!(slice.sample_count(), expect.sample_count());
            for (probe, asn, samples) in slice.probes() {
                let (easn, esamples) = &expect.per_probe()[&probe];
                assert_eq!(asn, *easn);
                let mut got: Vec<f64> = samples.to_vec();
                let mut want = esamples.clone();
                got.sort_by(|a, b| a.partial_cmp(b).unwrap());
                want.sort_by(|a, b| a.partial_cmp(b).unwrap());
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn arena_is_reusable_across_bins() {
        let mk = |rtt: f64| {
            record(
                1,
                64500,
                vec![hop(1, "10.0.0.1", &[1.0]), hop(2, "10.0.1.1", &[rtt])],
            )
        };
        let mut arena = SampleArena::new();
        arena.build(&[mk(2.0), mk(3.0)]);
        assert_eq!(arena.link_count(), 1);
        assert_eq!(arena.total_samples(), 2);
        // Rebuild with a different (smaller) bin: no stale state.
        arena.build(&[mk(7.0)]);
        assert_eq!(arena.link_count(), 1);
        assert_eq!(arena.total_samples(), 1);
        let slice = arena.link(0);
        assert_eq!(slice.probes().next().unwrap().2, &[6.0]);
        // And an empty bin empties the arena.
        arena.build(&[]);
        assert_eq!(arena.link_count(), 0);
        assert_eq!(arena.total_samples(), 0);
        // The intern epoch persisted: rebuilding the first bin's shape
        // performs zero new insertions.
        let before = arena.stats();
        arena.build(&[mk(2.0), mk(3.0)]);
        let after = arena.stats();
        assert_eq!(after.bin_insertions, 0, "steady-state bin re-interned");
        assert_eq!(after.insertions, before.insertions);
    }
}
