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
//! len)` run over its chunk's value pool — an observation's 1–9
//! differential RTTs share one key — and groups a shard with one
//! cache-friendly sort over that (small) run index, laying out
//! per-link/per-probe spans as ranges of the sorted runs: no per-probe
//! maps, no sample copied to group a shard, an order of magnitude fewer
//! sorted elements than row-by-row staging, and byte-identical output
//! for any chunking. Samples stay in the chunk pools until the shard
//! job gathers a kept link's samples to characterize them (see
//! `characterize_shard`). A probe's AS is the first one it reports in
//! the bin.

use crate::engine::{ShardKey, SnapshotKey};
use crate::ingest::{pack, ArenaSpec, Chunk, EpochArena, Interner, Lent, SidePayload, Wave};
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

/// One probe's samples for one link: a range of the shard's sorted runs.
#[derive(Debug, Clone, Copy)]
struct ProbeSpan {
    /// Index into the arena's probe tables.
    slot: u32,
    /// First run and run count in the sorted run index.
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

/// One link's view into the arena: its probe spans over the shard's
/// sorted runs, whose samples stay where the scatter put them — in the
/// chunks' value pools.
#[derive(Debug, Clone, Copy)]
pub struct LinkSlice<'a> {
    /// The link (ordered IP pair).
    pub link: IpLink,
    /// Distinct probe ASes contributing to this link.
    pub as_count: usize,
    spans: &'a [ProbeSpan],
    runs: &'a [SampleRun],
    wave: Wave<'a, DelaySpec>,
}

impl<'a> LinkSlice<'a> {
    /// Number of contributing probes.
    pub fn probe_count(&self) -> usize {
        self.spans.len()
    }

    /// Iterate `(probe, asn, samples)` — deterministic order (probes in
    /// intern-epoch slot order); a probe's samples come as one slice per
    /// run, in record order.
    pub fn probes(
        &self,
    ) -> impl Iterator<Item = (ProbeId, Asn, impl Iterator<Item = &'a [f64]> + 'a)> + '_ {
        let (runs, chunks) = (self.runs, self.wave.chunks);
        let (probe_ids, probe_asns) = (self.wave.sides(), self.wave.payload.asns());
        self.spans.iter().map(move |s| {
            let span = &runs[s.start as usize..(s.start + s.len) as usize];
            (
                probe_ids[s.slot as usize],
                probe_asns[s.slot as usize],
                span.iter().map(move |run| {
                    &chunks[run.chunk as usize].staged.vals
                        [run.start as usize..(run.start + run.len) as usize]
                }),
            )
        })
    }

    /// Clear `out` and copy into it the samples of every probe not in
    /// `removed`, straight from the chunk pools.
    pub(crate) fn gather_into(&self, out: &mut Vec<f64>, removed: &[ProbeId]) {
        out.clear();
        for (probe, _, samples) in self.probes() {
            if !removed.contains(&probe) {
                for samples in samples {
                    out.extend_from_slice(samples);
                }
            }
        }
    }
}

/// The delay side's per-chunk staging beside the run index: a staged row
/// is `(pack(link id, probe slot), (start, len))` with `start` addressing
/// the chunk's `vals` pool, in record order within the chunk. One
/// (record, link) observation is ONE run (its 1–9 differential RTTs are
/// consecutive in `vals`), and a same-key run that ends exactly where the
/// next one starts merges with it at push — so the sort that groups a
/// shard handles ~an order of magnitude fewer elements than it would
/// row-by-row.
#[derive(Debug, Default)]
pub(crate) struct DelayStaged {
    /// The chunk's sample values, every shard's interleaved in record
    /// order (runs index into this).
    vals: Vec<f64>,
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
        staged.vals.clear();
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
            let start = vals.len() as u32;
            for fy in far_hop.rtts_from(link.far) {
                for &fx in near_rtts.iter() {
                    vals.push(fy - fx);
                }
            }
            let len = vals.len() as u32 - start;
            if len == 0 {
                return;
            }
            // One run per observation, resolved once per (record, link).
            // A same-key run ending exactly where this one starts (the
            // same probe re-tracing the link, no other link's samples in
            // between) extends in place instead.
            let (s, local) = ids.resolve_key(links, link);
            let row_key = pack(local, probe);
            match rows[s].last_mut() {
                Some((last, (prev, run_len))) if *last == row_key && *prev + *run_len == start => {
                    *run_len += len
                }
                _ => rows[s].push((row_key, (start, len))),
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
    fn lent(rows: &mut ShardRows) -> &mut Lent<SampleRun> {
        &mut rows.lent
    }

    #[inline]
    fn finalize(rows: &mut ShardRows, wave: Wave<'_, Self>) {
        rows.finalize(wave.payload.asns());
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

/// One shard's row workspace: the grouped layout of its bin, the buffers
/// lent to its job, and the job's steps 2–5 buffers (`work`). The
/// arena's gather concatenates the bin's chunk runs into the lent `rows`
/// in chunk order; `finalize` (run in the shard's job) sorts them and
/// lays out `spans`/`entries` over the sorted runs, copying no sample:
/// pass B reads each kept link's samples from the chunk pools. Holds no
/// epoch state — the shard's link intern table lives in the arena — and
/// its content is dead once the wave's outputs are merged and the
/// observed entries are stamped; only `spans`, `entries` and `work` keep
/// their capacity for the next bin.
#[derive(Debug, Default)]
pub(crate) struct ShardRows {
    /// The bin's gathered runs, sorted by `(key, chunk, start)` at
    /// finalize — equal keys keep gather (= record) order, so a probe's
    /// samples read in record order — and the radix ping-pong scratch;
    /// both lent from the arena for the job and empty outside it.
    lent: Lent<SampleRun>,
    spans: Vec<ProbeSpan>,
    entries: Vec<LinkEntry>,
    as_scratch: Vec<Asn>,
    /// The shard job's scratch and output, reused bin after bin.
    pub(super) work: super::ShardWork,
}

impl ShardRows {
    /// Sort this shard's runs and lay out the grouped span/entry indexes
    /// over them. Safe to run concurrently across shards: it never
    /// touches the epoch tables (observed links are stamped by the
    /// arena's serial fence from the entry list this lays out).
    fn finalize(&mut self, probe_asns: &[Asn]) {
        self.spans.clear();
        self.entries.clear();
        let Lent {
            rows: runs,
            scratch,
        } = &mut self.lent;
        // One sort over a small, cache-resident run index. `gather`
        // appends runs in (chunk, start) order, so the stable radix sort
        // by key alone reproduces the comparison sort's explicit
        // (chunk, start) tiebreak — O(n · live_digits) instead of
        // O(n log n). Below `RADIX_MIN_KEYS` runs, the histogram pre-pass
        // costs more than it saves.
        if runs.len() >= pinpoint_stats::RADIX_MIN_KEYS {
            pinpoint_stats::sort_by_u64_key(runs, scratch, |r| r.key);
        } else {
            runs.sort_unstable_by_key(|r| (r.key, r.chunk, r.start));
        }
        let mut i = 0;
        while i < runs.len() {
            let link_local = (runs[i].key >> 32) as u32;
            let spans_start = self.spans.len() as u32;
            self.as_scratch.clear();
            while i < runs.len() && (runs[i].key >> 32) as u32 == link_local {
                let (key, start) = (runs[i].key, i);
                while i < runs.len() && runs[i].key == key {
                    i += 1;
                }
                let slot = key as u32;
                self.spans.push(ProbeSpan {
                    slot,
                    start: start as u32,
                    len: (i - start) as u32,
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

    /// Link `j` of the bin, while the job still holds its lent runs.
    pub(crate) fn link_in<'a>(
        &'a self,
        j: usize,
        links: &'a [IpLink],
        wave: Wave<'a, DelaySpec>,
    ) -> LinkSlice<'a> {
        let e = self.entries[j];
        LinkSlice {
            link: links[e.local as usize],
            as_count: e.as_count as usize,
            spans: &self.spans[e.spans_start as usize..(e.spans_start + e.spans_len) as usize],
            runs: &self.lent.rows,
            wave,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_model::records::{Hop, Reply};
    use pinpoint_model::{MeasurementId, SimTime};
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    impl LinkSlice<'_> {
        /// Total samples for this link.
        pub(crate) fn sample_count(&self) -> usize {
            let span_runs =
                |s: &ProbeSpan| &self.runs[s.start as usize..(s.start + s.len) as usize];
            self.spans
                .iter()
                .flat_map(span_runs)
                .map(|r| r.len as usize)
                .sum()
        }

        /// Each probe's samples, concatenated in record order.
        pub(crate) fn samples(&self) -> Vec<(ProbeId, Asn, Vec<f64>)> {
            self.probes()
                .map(|(probe, asn, runs)| (probe, asn, runs.flatten().copied().collect()))
                .collect()
        }
    }

    impl SampleArena {
        /// Iterate every link of the current bin (after the shard wave;
        /// arbitrary but deterministic order).
        pub(crate) fn links(&self) -> impl Iterator<Item = LinkSlice<'_>> {
            let wave = self.wave();
            self.shards().flat_map(move |(shard, links)| {
                (0..shard.link_count()).map(move |j| shard.link_in(j, links, wave))
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
            for (probe, asn, mut samples) in slice.samples() {
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
        assert_eq!(arena.link(0).samples()[0].1, Asn(100));
        arena.build(&[mk(900)]);
        assert_eq!(arena.link(0).samples()[0].1, Asn(900));
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
                .any(|(shard, _)| shard.lent.rows.len() >= busy as usize),
            "no shard crossed the radix threshold"
        );
        // Each link's AS count is its distinct probe ASes.
        let as_counts: BTreeMap<IpLink, usize> =
            arena.links().map(|l| (l.link, l.as_count)).collect();
        assert_eq!(as_counts[&link("10.0.0.1", "10.0.1.1")], 2);
        assert_eq!(as_counts[&link("10.0.7.1", "10.0.7.2")], 5);
    }

    #[test]
    fn a_run_never_takes_in_another_shards_samples() {
        // Probe 1 traces link A, then link B of another shard, then A
        // again, all in one chunk. The chunk's one value pool then holds
        // A's samples, B's, then A's: A's two observations are adjacent in
        // A's shard rows but not in the pool, so they must stay two runs.
        let near = "10.0.0.1";
        let a = link(near, "10.0.1.1");
        let b_far = (2..=255)
            .map(|d| format!("10.0.2.{d}"))
            .find(|far| shard_of(&link(near, far)) != shard_of(&a))
            .expect("some far address hashes to another shard");
        let trace =
            |far: &str, rtt: f64| record(1, 100, vec![hop(1, near, &[1.0]), hop(2, far, &[rtt])]);
        let recs = [
            trace("10.0.1.1", 3.0),
            trace(&b_far, 10.0),
            trace("10.0.1.1", 5.0),
        ];

        let links: Vec<Interner<IpLink>> = (0..crate::engine::NUM_SHARDS)
            .map(|_| Interner::default())
            .collect();
        let mut chunk = Chunk::<DelaySpec> {
            rows: vec![Vec::new(); crate::engine::NUM_SHARDS],
            ..Chunk::default()
        };
        for rec in &recs {
            DelaySpec::scatter(&mut chunk, rec, &links, &Interner::default());
        }
        let runs: Vec<&[f64]> = chunk.rows[shard_of(&a)]
            .iter()
            .map(|&(_, (start, len))| &chunk.staged.vals[start as usize..(start + len) as usize])
            .collect();
        assert_eq!(runs, [[2.0], [4.0]]);
        assert_eq!(chunk.staged.vals, [2.0, 9.0, 4.0]);
        // Grouped, the probe's samples are its own, in record order.
        let mut arena = SampleArena::default();
        arena.build(&recs);
        let grouped = arena.links().find(|l| l.link == a).expect("link A grouped");
        assert_eq!(grouped.samples(), [(ProbeId(1), Asn(100), vec![2.0, 4.0])]);
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
        assert_eq!(arena.link(0).samples()[0].2, [6.0]);
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
