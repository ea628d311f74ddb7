//! Step 1: differential RTT computation (§4.2.1).
//!
//! For adjacent responsive routers X, Y in a traceroute from probe P, every
//! combination `RTT(P,Y) − RTT(P,X)` is a differential RTT sample — one to
//! nine samples per traceroute, keyed by the ordered IP pair (X, Y). Samples
//! stay attributed to their probe (and the probe's AS) because the
//! diversity filter of §4.3 operates on probes, not raw samples.
//!
//! The engine's layout is `SampleArena`, the shared
//! `crate::ingest::EpochArena` under `DelaySpec` (links × probes). The
//! spec stages each (record, link) observation as ONE `(key, start,
//! len)` run over a per-(chunk, shard) value pool — an observation's 1–9
//! differential RTTs share one key — and groups a shard with one
//! cache-friendly sort over that (small) run index into one contiguous
//! sample pool plus per-link/per-probe index spans: no per-probe maps, an
//! order of magnitude fewer sorted elements than row-by-row staging, and
//! byte-identical output for any chunking. A probe's AS is the first one
//! it reports in the bin.

use crate::engine::{ShardKey, SnapshotKey};
use crate::ingest::{pack, ArenaSpec, Chunk, EpochArena, Interner, SidePayload, Wave};
use crate::snapshot::{Reader, SnapshotError, Writer};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::{Asn, IpLink, ProbeId};

/// Stable shard assignment: one SplitMix64 round over the packed address
/// pair (see [`crate::engine`] for the determinism contract).
pub(crate) fn shard_of(link: &IpLink) -> usize {
    let key = (u64::from(u32::from(link.near)) << 32) | u64::from(u32::from(link.far));
    crate::engine::shard_of_u64(key)
}

impl SnapshotKey for IpLink {
    fn write(&self, w: &mut Writer) {
        w.ip(self.near);
        w.ip(self.far);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(IpLink::new(r.ip()?, r.ip()?))
    }
}

impl ShardKey for IpLink {
    #[inline]
    fn shard(&self) -> usize {
        shard_of(self)
    }
}

impl SnapshotKey for ProbeId {
    fn write(&self, w: &mut Writer) {
        w.u32(self.0);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(ProbeId(r.u32()?))
    }
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
    /// by the arena's post-wave stamp fence.
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

/// The delay side's per-chunk staging beside the run index: a staged row
/// is `(pack(link id, probe slot), (start, len))` with `start` addressing
/// the chunk's per-shard `vals` pool, in record order within the chunk.
/// One (record, link) observation is ONE run (its 1–9 differential RTTs
/// are consecutive in `vals`), and adjacent same-key runs merge at push —
/// so the sort that groups a shard handles ~an order of magnitude fewer
/// elements than it would row-by-row.
#[derive(Debug, Default)]
pub(crate) struct DelayStaged {
    /// Per-shard sample values, in record order (runs index into this).
    vals: Vec<Vec<f64>>,
    /// Scratch for near-side RTTs.
    near_rtts: Vec<f64>,
}

/// Probe slot → ASN, re-pinned each bin to the first ASN the probe
/// reported that bin (record order).
#[derive(Debug, Default)]
pub(crate) struct ProbePins {
    asns: Vec<Asn>,
    /// Probe slot → the bin-open count at which `asns` was last pinned.
    pins: Vec<u64>,
    /// Monotonic bin-open counter.
    session: u64,
}

impl ProbePins {
    /// Probe slot → the ASN pinned for the current bin.
    pub(crate) fn asns(&self) -> &[Asn] {
        &self.asns
    }
}

impl SidePayload for ProbePins {
    type Note = Asn;

    fn open_bin(&mut self) {
        self.session += 1;
    }

    #[inline]
    fn pin(&mut self, slot: u32, asn: Asn) {
        let slot = slot as usize;
        if slot == self.asns.len() {
            self.asns.push(asn);
            self.pins.push(self.session);
        } else if self.pins[slot] != self.session {
            self.pins[slot] = self.session;
            self.asns[slot] = asn;
        }
    }

    fn renumber(&mut self, kept: &[u32]) {
        for (new, &old) in kept.iter().enumerate() {
            self.asns[new] = self.asns[old as usize];
            self.pins[new] = self.pins[old as usize];
        }
        self.asns.truncate(kept.len());
        self.pins.truncate(kept.len());
    }

    fn write(&self, w: &mut Writer) {
        for (asn, pin) in self.asns.iter().zip(&self.pins) {
            w.u32(asn.0);
            w.u64(*pin);
        }
        w.u64(self.session);
    }

    fn read(r: &mut Reader<'_>, probes: usize) -> Result<Self, SnapshotError> {
        let mut payload = ProbePins::default();
        for _ in 0..probes {
            payload.asns.push(Asn(r.u32()?));
            payload.pins.push(r.u64()?);
        }
        payload.session = r.u64()?;
        Ok(payload)
    }
}

/// The delay side of the shared arena: IP links (sharded) × probes, with
/// the probes' per-bin ASN pins as side payload.
#[derive(Debug)]
pub(crate) struct DelaySpec;

/// The engine's flat, sharded, bin-reusable sample store.
pub(crate) type SampleArena = EpochArena<DelaySpec>;

impl ArenaSpec for DelaySpec {
    type Key = IpLink;
    type Side = ProbeId;
    type Payload = ProbePins;
    type Tail = (u32, u32);
    type Staged = DelayStaged;
    type Row = SampleRun;
    type Rows = ShardRows;

    fn reset(staged: &mut DelayStaged) {
        staged.vals.resize_with(crate::engine::NUM_SHARDS, Vec::new);
        for vals in &mut staged.vals {
            vals.clear();
        }
    }

    fn scatter(
        chunk: &mut Chunk<Self>,
        rec: &TracerouteRecord,
        links: &[Interner<IpLink>],
        probes: &Interner<ProbeId>,
    ) {
        let Chunk { rows, staged, ids } = chunk;
        let DelayStaged { vals, near_rtts } = staged;
        let probe = ids.resolve_side(probes, rec.probe_id, rec.probe_asn);
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
                let (s, _, _) = *key.get_or_insert_with(|| {
                    let (s, local) = ids.resolve_key(links, link);
                    (s, pack(local, probe), vals[s].len() as u32)
                });
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
                match rows[s].last_mut() {
                    Some((last, (_, run_len))) if *last == row_key => *run_len += len,
                    _ => rows[s].push((row_key, (start, len))),
                }
            }
        });
    }

    #[inline]
    fn row(key: u64, chunk: u32, (start, len): (u32, u32)) -> SampleRun {
        SampleRun {
            key,
            chunk,
            start,
            len,
        }
    }

    #[inline]
    fn gathered(rows: &mut ShardRows) -> &mut Vec<SampleRun> {
        &mut rows.runs
    }

    #[inline]
    fn finalize(rows: &mut ShardRows, shard: usize, wave: Wave<'_, Self>) {
        rows.finalize(shard, wave.payload.asns(), wave.chunks);
    }

    #[inline]
    fn observed(rows: &ShardRows) -> impl Iterator<Item = u32> + '_ {
        rows.entries.iter().map(|e| e.local)
    }
}

/// One staged (record, link) observation of a shard's bin.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SampleRun {
    /// `link_local << 32 | probe_slot` (patched — never a pending id).
    key: u64,
    /// Which chunk's `vals` pool the run's samples live in.
    chunk: u32,
    /// Offset and length of the run in that pool.
    start: u32,
    len: u32,
}

/// One shard's row workspace: the bin's rows and their grouped layout,
/// plus the shard job's steps 2–5 buffers (`work`). The arena's gather
/// concatenates the bin's chunk runs into `runs` in chunk order;
/// `finalize` (run in the shard's job) sorts and groups into
/// `pool`/`spans`/`entries`. Holds no epoch state — the shard's link
/// intern table lives in the arena — and its content is dead once the
/// wave's outputs are merged and the observed entries are stamped; only
/// the capacity carries over to the next bin.
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
    /// The shard job's scratch and output, reused bin after bin.
    pub(super) work: super::ShardWork,
}

impl ShardRows {
    /// Sort this shard's runs and lay out the grouped pool/span/entry
    /// indexes, copying each run's samples out of its chunk's value pool.
    /// Safe to run concurrently across shards: it never touches the
    /// epoch tables (observed links are stamped by the arena's serial
    /// fence from the entry list this lays out).
    fn finalize(&mut self, idx: usize, probe_asns: &[Asn], chunks: &[Chunk<DelaySpec>]) {
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
                    let vals = &chunks[run.chunk as usize].staged.vals[idx];
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

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_model::records::{Hop, Reply};
    use pinpoint_model::{MeasurementId, SimTime};
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    impl SampleArena {
        /// Iterate every link of the current bin (after the shard wave;
        /// arbitrary but deterministic order).
        pub(crate) fn links(&self) -> impl Iterator<Item = LinkSlice<'_>> {
            let wave = self.wave();
            self.shards().flat_map(move |(shard, links)| {
                (0..shard.link_count())
                    .map(move |j| shard.link_in(j, links, wave.sides, wave.payload.asns()))
            })
        }

        /// Number of links with at least one sample in the current bin.
        pub(crate) fn link_count(&self) -> usize {
            self.links().count()
        }

        /// Total differential RTT samples in the current bin.
        pub(crate) fn total_samples(&self) -> usize {
            self.links().map(|l| l.sample_count()).sum()
        }

        /// The `i`-th link of the current bin, counting across shards.
        pub(crate) fn link(&self, i: usize) -> LinkSlice<'_> {
            self.links().nth(i).expect("link index in bounds")
        }
    }

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

    /// Per link, per probe: (the probe's AS, its samples in ascending
    /// order).
    type Grouped = BTreeMap<IpLink, BTreeMap<ProbeId, (Asn, Vec<f64>)>>;

    /// One bin through a fresh arena, regrouped as [`Grouped`].
    fn arena_samples(records: &[TracerouteRecord]) -> Grouped {
        let mut arena = SampleArena::default();
        arena.build(records);
        let mut out = Grouped::new();
        for slice in arena.links() {
            let probes = out.entry(slice.link).or_default();
            for (probe, asn, samples) in slice.probes() {
                let mut samples = samples.to_vec();
                samples.sort_by(f64::total_cmp);
                probes.insert(probe, (asn, samples));
            }
        }
        out
    }

    fn link(near: &str, far: &str) -> IpLink {
        IpLink::new(ip(near), ip(far))
    }

    #[test]
    fn all_combinations_are_produced() {
        // 3 RTTs at X and 2 at Y → 6 samples, every Y − X.
        let rec = record(
            1,
            64500,
            vec![
                hop(1, "10.0.0.1", &[1.0, 1.1, 1.2]),
                hop(2, "10.0.1.1", &[5.0, 5.5]),
            ],
        );
        let mut want: Vec<f64> = [5.0, 5.5]
            .iter()
            .flat_map(|y| [1.0, 1.1, 1.2].map(|x| y - x))
            .collect();
        want.sort_by(f64::total_cmp);
        assert_eq!(
            arena_samples(&[rec]),
            Grouped::from([(
                link("10.0.0.1", "10.0.1.1"),
                BTreeMap::from([(ProbeId(1), (Asn(64500), want))])
            )])
        );
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
        let got = arena_samples(&[rec]);
        assert_eq!(got[&link("10.0.0.1", "10.0.1.1")][&ProbeId(1)].1, [-5.0]);
    }

    #[test]
    fn samples_group_by_probe_and_as() {
        let recs: Vec<TracerouteRecord> = [(1, 100, 2.0), (2, 100, 3.0), (3, 200, 4.0)]
            .iter()
            .map(|&(probe, asn, rtt)| {
                record(
                    probe,
                    asn,
                    vec![hop(1, "10.0.0.1", &[1.0]), hop(2, "10.0.1.1", &[rtt])],
                )
            })
            .collect();
        let mut arena = SampleArena::default();
        arena.build(&recs);
        assert_eq!(arena.link_count(), 1);
        let slice = arena.link(0);
        assert_eq!(slice.probe_count(), 3);
        assert_eq!(slice.as_count, 2);
        let probes = &arena_samples(&recs)[&link("10.0.0.1", "10.0.1.1")];
        assert_eq!(probes[&ProbeId(3)], (Asn(200), vec![3.0]));
    }

    #[test]
    fn conflicting_probe_asn_attributed_to_first_seen() {
        // A malformed feed reports probe 1 under AS 100, then AS 200 — on
        // the same link and on a second link it only visits under AS 200.
        // The probe belongs to its first-seen AS (AS 100) everywhere, so
        // the diversity filter's AS count sees AS 100 + AS 300.
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
        let got = arena_samples(&recs);
        assert_eq!(
            got[&link("10.0.0.1", "10.0.1.1")],
            BTreeMap::from([
                (ProbeId(1), (Asn(100), vec![1.0, 2.0])),
                (ProbeId(2), (Asn(300), vec![3.0])),
            ])
        );
        assert_eq!(got[&link("10.0.9.1", "10.0.9.2")][&ProbeId(1)].0, Asn(100));
        let mut arena = SampleArena::default();
        arena.build(&recs);
        let first = arena
            .links()
            .find(|l| l.link == link("10.0.0.1", "10.0.1.1"));
        assert_eq!(first.map(|l| l.as_count), Some(2));
    }

    #[test]
    fn probe_asn_repins_per_bin() {
        // Bin 1: probe 1 reports AS 100. Bin 2: the same probe reports
        // AS 900 from its first record. The AS is pinned per bin, so the
        // persistent probe table must re-pin — not freeze the epoch-first
        // ASN.
        let mk = |asn: u32| {
            record(
                1,
                asn,
                vec![hop(1, "10.0.0.1", &[1.0]), hop(2, "10.0.1.1", &[2.0])],
            )
        };
        let mut arena = SampleArena::default();
        arena.build(&[mk(100)]);
        assert_eq!(arena.link(0).probes().next().unwrap().1, Asn(100));
        arena.build(&[mk(900)]);
        assert_eq!(arena.link(0).probes().next().unwrap().1, Asn(900));
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
        assert!(arena_samples(&[rec]).is_empty());
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
        let got = arena_samples(&[mk(2.0), mk(3.0)]);
        assert_eq!(
            got[&link("10.0.0.1", "10.0.1.1")],
            BTreeMap::from([(ProbeId(1), (Asn(64500), vec![1.0, 2.0]))])
        );
    }

    #[test]
    fn arena_groups_interleaved_records_exactly() {
        // Interleaved records across two links and three probes regroup
        // into the hand-computed per-probe samples. Those shards stay
        // below `RADIX_MIN_KEYS` runs (comparison sort); the busy link
        // appended below puts one run per probe into a single shard,
        // pushing it over the threshold (radix sort).
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
        let busy_rtt = |p: u32| 3.0 + f64::from(p % 7);
        // Descending probe ids, so the packed run keys arrive unsorted.
        recs.extend((0..busy).rev().map(|p| {
            record(
                100 + p,
                400 + p % 5,
                vec![
                    hop(1, "10.0.7.1", &[1.0]),
                    hop(2, "10.0.7.2", &[busy_rtt(p)]),
                ],
            )
        }));
        let sorted = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v
        };
        let want = Grouped::from([
            (
                link("10.0.0.1", "10.0.1.1"),
                BTreeMap::from([
                    (ProbeId(1), (Asn(100), sorted(vec![4.0 - 1.1, 4.5 - 1.1]))),
                    (
                        ProbeId(2),
                        (Asn(200), sorted(vec![5.0 - 1.0, 5.0 - 1.2, 6.0 - 0.9])),
                    ),
                ]),
            ),
            (
                link("10.0.9.1", "10.0.9.2"),
                BTreeMap::from([(ProbeId(3), (Asn(300), vec![1.0]))]),
            ),
            (
                link("10.0.7.1", "10.0.7.2"),
                (0..busy)
                    .map(|p| {
                        (
                            ProbeId(100 + p),
                            (Asn(400 + p % 5), vec![busy_rtt(p) - 1.0]),
                        )
                    })
                    .collect(),
            ),
        ]);
        assert_eq!(arena_samples(&recs), want);
        let mut arena = SampleArena::default();
        arena.build(&recs);
        assert!(
            arena
                .shards()
                .any(|(shard, _)| shard.runs.len() >= busy as usize),
            "no shard crossed the radix threshold"
        );
        // Each link's AS count is its distinct probe ASes.
        let as_counts: BTreeMap<IpLink, usize> =
            arena.links().map(|l| (l.link, l.as_count)).collect();
        assert_eq!(as_counts[&link("10.0.0.1", "10.0.1.1")], 2);
        assert_eq!(as_counts[&link("10.0.7.1", "10.0.7.2")], 5);
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
        let mut arena = SampleArena::default();
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
