//! Packet-forwarding patterns (§5.1).
//!
//! For every responsive hop in a traceroute, the packets probing the *next*
//! TTL reveal where that router forwarded them: each reply from address B
//! adds one packet to B's count; each timeout adds one packet to the
//! aggregated unresponsive bucket Z ("next hops that do not send back ICMP
//! packets to the probes or drop packets are said to be unresponsive and
//! are indissociable in traceroutes"). Patterns are per (router IP,
//! traceroute destination) because forwarding is destination-dependent.

use crate::engine;
use crate::ingest::{ChunkPool, Interner, PENDING, SENTINEL};
use crate::snapshot::{Reader, SnapshotError, Writer};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::{BinId, FxHashMap};
use std::net::Ipv4Addr;

/// A next-hop slot in a forwarding pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NextHop {
    /// A responsive next hop.
    Ip(Ipv4Addr),
    /// The aggregated unresponsive bucket (the paper's Z).
    Unresponsive,
}

impl std::fmt::Display for NextHop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NextHop::Ip(ip) => write!(f, "{ip}"),
            NextHop::Unresponsive => write!(f, "*"),
        }
    }
}

/// Key of a forwarding pattern: the router and the traceroute target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternKey {
    /// The router whose forwarding is modeled.
    pub router: Ipv4Addr,
    /// The traceroute destination the model is specific to.
    pub dst: Ipv4Addr,
}

/// Observed packet counts per next hop in one bin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pattern {
    counts: FxHashMap<NextHop, f64>,
}

impl Pattern {
    /// Packet count for a hop (0 if absent).
    pub fn get(&self, hop: &NextHop) -> f64 {
        self.counts.get(hop).copied().unwrap_or(0.0)
    }

    /// Add packets to a hop's count.
    pub fn add(&mut self, hop: NextHop, packets: f64) {
        *self.counts.entry(hop).or_insert(0.0) += packets;
    }

    /// Iterate `(hop, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (&NextHop, f64)> {
        self.counts.iter().map(|(k, v)| (k, *v))
    }

    /// Number of distinct next hops (including Z if present).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no packets were recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total packets.
    pub fn total(&self) -> f64 {
        self.counts.values().sum()
    }
}

/// Build forwarding patterns from one bin of traceroutes (reference path;
/// the engine uses [`PatternArena::build`]).
pub fn collect_patterns(records: &[TracerouteRecord]) -> FxHashMap<PatternKey, Pattern> {
    let mut out: FxHashMap<PatternKey, Pattern> = FxHashMap::default();
    for rec in records {
        for i in 0..rec.hops.len().saturating_sub(1) {
            let Some(router) = rec.hops[i].first_responder() else {
                continue;
            };
            let key = PatternKey {
                router,
                dst: rec.dst,
            };
            let pattern = out.entry(key).or_default();
            for reply in &rec.hops[i + 1].replies {
                match reply.from {
                    Some(ip) if ip != router => pattern.add(NextHop::Ip(ip), 1.0),
                    // A repeated address (TTL quirk) is not a next hop.
                    Some(_) => {}
                    None => pattern.add(NextHop::Unresponsive, 1.0),
                }
            }
        }
    }
    out
}

/// Stable shard assignment for a pattern key (FxHash — see
/// [`crate::engine`] for the determinism contract).
pub(crate) fn shard_of_pattern(key: &PatternKey) -> usize {
    engine::shard_of_hashed(key)
}

/// One pattern's view into the arena: the key plus its `(hop, packets)`
/// rows, resolved against the arena's hop intern table.
#[derive(Debug, Clone, Copy)]
pub struct PatternSlice<'a> {
    /// The (router, destination) this pattern belongs to.
    pub key: PatternKey,
    counts: &'a [(u32, f64)],
    hops: &'a [NextHop],
}

impl<'a> PatternSlice<'a> {
    /// Packet count for a hop (0 if absent). Linear scan — the paper
    /// reports ~4 next hops per model on average.
    pub fn get(&self, hop: &NextHop) -> f64 {
        self.counts
            .iter()
            .find(|(slot, _)| self.hops[*slot as usize] == *hop)
            .map_or(0.0, |(_, c)| *c)
    }

    /// Iterate `(hop, packets)`.
    pub fn iter(&self) -> impl Iterator<Item = (NextHop, f64)> + 'a {
        let hops = self.hops;
        self.counts
            .iter()
            .map(move |(slot, c)| (hops[*slot as usize], *c))
    }

    /// Number of distinct next hops (including Z if present).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no packets were recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total packets.
    pub fn total(&self) -> f64 {
        self.counts.iter().map(|(_, c)| *c).sum()
    }
}

/// One scatter chunk's private output for the forwarding side: per-shard
/// pattern rows plus chunk-local queues of pattern keys and next hops not
/// yet in the persistent tables. Written by exactly one scatter job, read
/// by the merge and the per-shard gather; all buffers bin-reused.
#[derive(Debug, Default)]
pub(crate) struct PatternChunk {
    /// Per-shard `(pattern_local << 32 | hop_slot, packets)` rows, in
    /// record order within the chunk. Ids may carry [`PENDING`]; the hop
    /// part may be [`SENTINEL`] (presence-only row).
    rows: Vec<Vec<(u64, f64)>>,
    /// Pattern keys first seen by this chunk, in encounter order.
    new_patterns: Vec<PatternKey>,
    /// Chunk-local dedup for `new_patterns`.
    new_pattern_ids: FxHashMap<PatternKey, u32>,
    /// Filled by the merge: pending pattern id → final shard-local id.
    pattern_patch: Vec<u32>,
    /// Next hops first seen by this chunk, in encounter order.
    new_hops: Vec<NextHop>,
    /// Chunk-local hop dedup: hop → encoded slot.
    hop_seen: FxHashMap<NextHop, u32>,
    /// Every hop this chunk touched (encoded slots, encounter order) —
    /// drives last-seen stamps for the hop table.
    touched_hops: Vec<u32>,
    /// Filled by the merge: pending hop id → final table slot.
    hop_patch: Vec<u32>,
    /// Per-(record, router-hop) accumulation scratch: identical
    /// `(pattern, hop)` packets collapse into one row before pushing.
    acc: Vec<(u32, f64)>,
}

/// The read-only arena state a scatter job shares with every other job:
/// the epoch tables — see `crate::diffrtt::compute` for the twin.
#[derive(Clone, Copy)]
pub(crate) struct PatternScatterView<'a> {
    pub(crate) patterns: &'a [Interner<PatternKey>],
    pub(crate) hops: &'a Interner<NextHop>,
}

impl PatternChunk {
    fn clear(&mut self) {
        if self.rows.len() < engine::NUM_SHARDS {
            self.rows.resize_with(engine::NUM_SHARDS, Vec::new);
        }
        for rows in &mut self.rows {
            rows.clear();
        }
        self.new_patterns.clear();
        self.new_pattern_ids.clear();
        self.new_hops.clear();
        self.hop_seen.clear();
        self.touched_hops.clear();
        // `pattern_patch` / `hop_patch` are NOT cleared here: the merge
        // owns their lifecycle — it clears and refills both before any
        // `gather` reads them, so wiping them per wave is wasted work.
    }

    /// Scatter one record chunk into this chunk's per-shard row buffers.
    ///
    /// Replies landing on the same next hop within one (record, router)
    /// observation are accumulated into a single `(key, n)` row before
    /// pushing — reply-heavy hops produce one row per *distinct* next hop
    /// instead of one per packet. A router observed with no next-hop
    /// packets at all (empty or all-repeated successor replies) pushes one
    /// [`SENTINEL`] presence row, so the pattern still exists this bin and
    /// its reference still decays, exactly like the nested-map path.
    pub(crate) fn scatter(&mut self, records: &[TracerouteRecord], view: PatternScatterView<'_>) {
        for rec in records {
            for i in 0..rec.hops.len().saturating_sub(1) {
                let Some(router) = rec.hops[i].first_responder() else {
                    continue;
                };
                let key = PatternKey {
                    router,
                    dst: rec.dst,
                };
                let s = shard_of_pattern(&key);
                let local = match view.patterns[s].get(&key) {
                    Some(local) => local,
                    None => match self.new_pattern_ids.get(&key) {
                        Some(&pending) => pending,
                        None => {
                            self.new_patterns.push(key);
                            let pending = PENDING | (self.new_patterns.len() as u32 - 1);
                            self.new_pattern_ids.insert(key, pending);
                            pending
                        }
                    },
                };
                self.acc.clear();
                for reply in &rec.hops[i + 1].replies {
                    let hop = match reply.from {
                        Some(ip) if ip != router => NextHop::Ip(ip),
                        // A repeated address (TTL quirk) is not a next hop.
                        Some(_) => continue,
                        None => NextHop::Unresponsive,
                    };
                    let enc = match self.hop_seen.get(&hop) {
                        Some(&enc) => enc,
                        None => {
                            let enc = match view.hops.get(&hop) {
                                Some(slot) => slot,
                                None => {
                                    self.new_hops.push(hop);
                                    PENDING | (self.new_hops.len() as u32 - 1)
                                }
                            };
                            self.hop_seen.insert(hop, enc);
                            self.touched_hops.push(enc);
                            enc
                        }
                    };
                    match self.acc.iter_mut().find(|(slot, _)| *slot == enc) {
                        Some((_, packets)) => *packets += 1.0,
                        None => self.acc.push((enc, 1.0)),
                    }
                }
                let hi = u64::from(local) << 32;
                let rows = &mut self.rows[s];
                if self.acc.is_empty() {
                    rows.push((hi | u64::from(SENTINEL), 0.0));
                } else {
                    for &(slot, packets) in &self.acc {
                        rows.push((hi | u64::from(slot), packets));
                    }
                }
            }
        }
    }
}

/// One shard's per-wave row workspace: the bin's pattern rows and their
/// grouped layout. `gather` concatenates the bin's chunk buffers in chunk
/// order (patching pending ids); `finalize` (run by the shard's worker
/// thread) sorts and groups into `pool`/`entries`. Holds no epoch state —
/// the shard's pattern intern table lives in [`PatternArena::patterns`].
#[derive(Debug, Default)]
pub(crate) struct PatternShardRows {
    /// `(pattern_local << 32 | hop_slot, packets)` — 16 bytes, sorted by
    /// key at finalize.
    rows: Vec<(u64, f64)>,
    /// Grouped `(hop_slot, packets)` per observed pattern.
    pool: Vec<(u32, f64)>,
    /// `(pattern_local, pool start, pool len)` per observed pattern, in
    /// local-id order. Presence-only patterns have `len == 0`. Doubles as
    /// the observed-pattern list the post-wave stamp fence
    /// ([`PatternArena::stamp_bin`]) walks.
    entries: Vec<(u32, u32, u32)>,
    /// Radix ping-pong buffer, recycled across bins so steady-state
    /// finalize passes allocate nothing.
    sort_scratch: Vec<(u64, f64)>,
}

impl PatternShardRows {
    /// Concatenate this shard's rows from every chunk **in chunk order**
    /// (= record order), patching pending ids. Safe to run concurrently
    /// across shards.
    pub(crate) fn gather(&mut self, idx: usize, chunks: &[PatternChunk]) {
        self.rows.clear();
        for chunk in chunks {
            // Steady-state fast path: a chunk that discovered no new keys
            // wrote no pending ids anywhere — its buffer is final and can
            // be copied wholesale (SENTINEL rows need no patching either).
            if chunk.new_patterns.is_empty() && chunk.new_hops.is_empty() {
                self.rows.extend_from_slice(&chunk.rows[idx]);
                continue;
            }
            for &(key, packets) in &chunk.rows[idx] {
                let mut local = (key >> 32) as u32;
                if local & PENDING != 0 {
                    local = chunk.pattern_patch[(local ^ PENDING) as usize];
                }
                let mut slot = key as u32;
                if slot != SENTINEL && slot & PENDING != 0 {
                    slot = chunk.hop_patch[(slot ^ PENDING) as usize];
                }
                self.rows
                    .push(((u64::from(local) << 32) | u64::from(slot), packets));
            }
        }
    }

    /// Sort this shard's rows and lay out the grouped pool/entry indexes.
    /// Every pattern with at least one row this bin gets an entry —
    /// including presence-only ones (a hop whose successor sent no
    /// packets), whose empty observation must still decay its reference
    /// exactly as the nested-map path does. Safe to run concurrently
    /// across shards: observed patterns are stamped by the caller's
    /// serial fence from the entry list this lays out.
    pub(crate) fn finalize(&mut self) {
        self.pool.clear();
        self.entries.clear();
        // One u64-keyed sort over a small, cache-resident shard. Equal keys
        // are summed; the addends are whole packets, so the sum is exact
        // and independent of row order — which is also why the stable
        // radix path and the unstable comparison path yield identical
        // pools. SENTINEL sorts after every real hop slot, so presence
        // rows are consumed at the end of a group.
        if self.rows.len() >= pinpoint_stats::RADIX_MIN_KEYS {
            pinpoint_stats::sort_by_u64_key(&mut self.rows, &mut self.sort_scratch, |r| r.0);
        } else {
            self.rows.sort_unstable_by_key(|r| r.0);
        }
        let mut i = 0;
        while i < self.rows.len() {
            let local = (self.rows[i].0 >> 32) as u32;
            let start = self.pool.len() as u32;
            while i < self.rows.len() && (self.rows[i].0 >> 32) as u32 == local {
                let key = self.rows[i].0;
                let slot = key as u32;
                let mut packets = 0.0;
                while i < self.rows.len() && self.rows[i].0 == key {
                    packets += self.rows[i].1;
                    i += 1;
                }
                if slot != SENTINEL {
                    self.pool.push((slot, packets));
                }
            }
            self.entries
                .push((local, start, self.pool.len() as u32 - start));
        }
    }

    /// Patterns observed in this shard's current bin (after `finalize`).
    pub(crate) fn pattern_count(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn pattern_in<'a>(
        &'a self,
        j: usize,
        keys: &'a [PatternKey],
        hops: &'a [NextHop],
    ) -> PatternSlice<'a> {
        let (local, start, len) = self.entries[j];
        PatternSlice {
            key: keys[local as usize],
            counts: &self.pool[start as usize..(start + len) as usize],
            hops,
        }
    }
}

/// Split borrow of an arena for the shard wave: mutable per-shard row
/// workspaces alongside the bin's chunk outputs and the shared
/// (read-only) intern tables, so stage construction can hand shards to
/// workers while chunk rows, pattern keys, and the hop slice stay
/// readable from every job.
pub(crate) struct PatternArenaParts<'a> {
    pub(crate) rows: &'a mut [PatternShardRows],
    pub(crate) patterns: &'a [Interner<PatternKey>],
    pub(crate) chunks: &'a [PatternChunk],
    pub(crate) hops: &'a [NextHop],
}

/// The engine's flat, sharded, bin-reusable forwarding-pattern store —
/// the forwarding twin of [`crate::diffrtt::SampleArena`], fed by the
/// same chunked parallel ingestion front-end (`crate::ingest`).
///
/// Per bin: scatter jobs stage next-hop packets as 16-byte
/// `(pattern, hop, packets)` rows in private per-(chunk, shard) buffers
/// (patterns are sharded by a stable `FxHash` of their [`PatternKey`];
/// keys and hops resolve through *epoch-persistent* intern tables, so
/// steady-state bins perform zero insertions); a short sequential merge
/// assigns dense ids to the bin's new keys in chunk order (= record
/// order); then `PatternShardRows::gather` +
/// `PatternShardRows::finalize` — run per shard, in parallel —
/// concatenate each shard's rows in chunk order and sum them into
/// per-pattern `(hop, packets)` runs. Buffers and tables persist across
/// bins; compaction on the shared `reference_expiry_bins` clock bounds
/// the tables under key churn.
#[derive(Debug)]
pub struct PatternArena {
    /// Epoch-persistent per-shard pattern key → shard-local id tables,
    /// shared read-only by every scatter job.
    patterns: Vec<Interner<PatternKey>>,
    /// Per-shard per-wave row workspace (consumed within one shard wave).
    rows: Vec<PatternShardRows>,
    /// Epoch-persistent next-hop → slot table.
    hops: Interner<NextHop>,
    /// The open bin's scatter chunks (see `SampleArena::chunks`).
    chunks: ChunkPool<PatternChunk>,
    insertions_at_bin_start: u64,
}

impl Default for PatternArena {
    fn default() -> Self {
        PatternArena {
            patterns: (0..engine::NUM_SHARDS)
                .map(|_| Interner::default())
                .collect(),
            rows: (0..engine::NUM_SHARDS)
                .map(|_| PatternShardRows::default())
                .collect(),
            hops: Interner::default(),
            chunks: ChunkPool::default(),
            insertions_at_bin_start: 0,
        }
    }
}

impl PatternArena {
    /// Fresh arena (buffers grow on first use).
    pub fn new() -> Self {
        PatternArena::default()
    }

    fn total_insertions(&self) -> u64 {
        self.hops.insertions() + self.patterns.iter().map(Interner::insertions).sum::<u64>()
    }

    /// Interning-epoch counters for this arena (patterns + next hops).
    pub(crate) fn stats(&self) -> crate::ingest::IngestStats {
        crate::ingest::IngestStats {
            interned: self.hops.len() + self.patterns.iter().map(Interner::len).sum::<usize>(),
            bin_insertions: self.total_insertions() - self.insertions_at_bin_start,
            insertions: self.total_insertions(),
            evictions: self.hops.evictions()
                + self.patterns.iter().map(Interner::evictions).sum::<u64>(),
        }
    }

    /// Serialize the epoch-persistent state: per-shard pattern tables and
    /// the next-hop table (keys in dense-id order, so restore reproduces
    /// the identical id assignment) plus the bin-insertion watermark.
    /// Per-wave state (shard rows, scatter chunks) is scratch — not written.
    pub(crate) fn snapshot_into(&self, w: &mut Writer) {
        for table in &self.patterns {
            let (keys, seen, insertions, evictions) = table.snapshot_parts();
            w.seq(keys.len());
            for (key, bin) in keys.iter().zip(seen) {
                w.ip(key.router);
                w.ip(key.dst);
                w.u64(bin.0);
            }
            w.u64(insertions);
            w.u64(evictions);
        }
        let (keys, seen, insertions, evictions) = self.hops.snapshot_parts();
        w.seq(keys.len());
        for (hop, bin) in keys.iter().zip(seen) {
            match hop {
                NextHop::Ip(ip) => {
                    w.u8(0);
                    w.ip(*ip);
                }
                NextHop::Unresponsive => w.u8(1),
            }
            w.u64(bin.0);
        }
        w.u64(insertions);
        w.u64(evictions);
        w.u64(self.insertions_at_bin_start);
    }

    /// Rebuild an arena from [`PatternArena::snapshot_into`] bytes, with
    /// fresh (empty) per-wave scratch.
    pub(crate) fn restore_from(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut arena = PatternArena::default();
        for table in &mut arena.patterns {
            let n = r.seq()?;
            let mut keys = Vec::with_capacity(n);
            let mut seen = Vec::with_capacity(n);
            for _ in 0..n {
                let router = r.ip()?;
                let dst = r.ip()?;
                keys.push(PatternKey { router, dst });
                seen.push(BinId(r.u64()?));
            }
            *table = Interner::from_parts(keys, seen, r.u64()?, r.u64()?);
        }
        let n = r.seq()?;
        let mut keys = Vec::with_capacity(n);
        let mut seen = Vec::with_capacity(n);
        for _ in 0..n {
            let hop = match r.u8()? {
                0 => NextHop::Ip(r.ip()?),
                1 => NextHop::Unresponsive,
                _ => return Err(SnapshotError::Corrupt("next-hop tag")),
            };
            keys.push(hop);
            seen.push(BinId(r.u64()?));
        }
        arena.hops = Interner::from_parts(keys, seen, r.u64()?, r.u64()?);
        arena.insertions_at_bin_start = r.u64()?;
        Ok(arena)
    }

    /// Start a new scatter session (see
    /// [`crate::diffrtt::SampleArena::begin_bin`]).
    pub(crate) fn begin_bin(&mut self) {
        self.chunks.begin_bin();
        self.insertions_at_bin_start = self.total_insertions();
    }

    /// Evict patterns and hops unseen for more than `expiry_bins` bins.
    /// Byte-for-byte invisible in reports; must run between bins — never
    /// under a bin's scattered rows.
    pub(crate) fn compact(&mut self, now: BinId, expiry_bins: usize) {
        for table in &mut self.patterns {
            table.compact(now, expiry_bins);
        }
        self.hops.compact(now, expiry_bins);
    }

    /// Reserve `n` cleared chunk buffers for the current session and
    /// return them alongside the shared scatter view (appends, so
    /// incremental feeding extends the same bin).
    pub(crate) fn scatter_parts(
        &mut self,
        n: usize,
    ) -> (&mut [PatternChunk], PatternScatterView<'_>) {
        let PatternArena {
            chunks,
            patterns,
            hops,
            ..
        } = self;
        (
            chunks.reserve(n, PatternChunk::clear),
            PatternScatterView { patterns, hops },
        )
    }

    /// The sequential chunk-ordered merge between the scatter wave and
    /// the shard wave: assign dense ids to the bin's new pattern keys and
    /// next hops in chunk order (= record order) and stamp touched hops.
    /// Observed patterns are stamped by the post-wave fence
    /// ([`Self::stamp_bin`]).
    pub(crate) fn merge(&mut self, bin: BinId) {
        let PatternArena {
            chunks,
            patterns,
            hops,
            ..
        } = self;
        for chunk in chunks.active_mut() {
            chunk.pattern_patch.clear();
            for &key in &chunk.new_patterns {
                let s = shard_of_pattern(&key);
                let local = match patterns[s].get(&key) {
                    Some(local) => local,
                    None => patterns[s].insert(key, bin),
                };
                chunk.pattern_patch.push(local);
            }
            chunk.hop_patch.clear();
            for &enc in &chunk.touched_hops {
                let slot = if enc & PENDING != 0 {
                    debug_assert_eq!((enc ^ PENDING) as usize, chunk.hop_patch.len());
                    let hop = chunk.new_hops[(enc ^ PENDING) as usize];
                    let slot = match hops.get(&hop) {
                        Some(slot) => slot,
                        None => hops.insert(hop, bin),
                    };
                    chunk.hop_patch.push(slot);
                    slot
                } else {
                    enc
                };
                hops.stamp(slot, bin);
            }
        }
    }

    /// Stamp every pattern observed by the just-finished shard wave with
    /// `bin` — the forwarding half of the serial epoch fence. Must run
    /// after the wave and before the next bin's compaction sweep.
    pub(crate) fn stamp_bin(&mut self, bin: BinId) {
        for (table, shard) in self.patterns.iter_mut().zip(&self.rows) {
            for &(local, _, _) in &shard.entries {
                table.stamp(local, bin);
            }
        }
    }

    /// Scatter + merge + gather + finalize inline, as a single chunk (the
    /// single-threaded convenience entry; the engine runs chunks and
    /// shards on its workers).
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
            shard.finalize();
        }
        self.stamp_bin(bin);
    }

    /// Disjoint views for the engine's shard wave (after [`Self::merge`]).
    pub(crate) fn parts_mut(&mut self) -> PatternArenaParts<'_> {
        let PatternArena {
            patterns,
            rows,
            chunks,
            hops,
            ..
        } = self;
        PatternArenaParts {
            rows,
            patterns,
            chunks: chunks.active(),
            hops: hops.keys(),
        }
    }

    /// Number of patterns observed in the current bin (after finalize).
    pub fn pattern_count(&self) -> usize {
        self.rows.iter().map(PatternShardRows::pattern_count).sum()
    }

    /// Iterate every pattern of the current bin (after finalize; arbitrary
    /// but deterministic order).
    pub fn patterns(&self) -> impl Iterator<Item = PatternSlice<'_>> {
        let hops = self.hops.keys();
        self.rows.iter().enumerate().flat_map(move |(s, shard)| {
            (0..shard.pattern_count())
                .map(move |j| shard.pattern_in(j, self.patterns[s].keys(), hops))
        })
    }
}

/// Build one bin's patterns through the sharded arena and return them in
/// the reference path's nested-map representation. Exists so tests (and
/// the proptest in `tests/forwarding_parity.rs`) can demand equality with
/// [`collect_patterns`] on arbitrary record sets.
pub fn collect_patterns_sharded(records: &[TracerouteRecord]) -> FxHashMap<PatternKey, Pattern> {
    let mut arena = PatternArena::new();
    arena.build(records);
    let mut out = FxHashMap::default();
    for slice in arena.patterns() {
        let mut pattern = Pattern::default();
        for (hop, packets) in slice.iter() {
            pattern.add(hop, packets);
        }
        out.insert(slice.key, pattern);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_model::records::{Hop, Reply};
    use pinpoint_model::{Asn, MeasurementId, ProbeId, SimTime};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn rec(dst: &str, hops: Vec<Hop>) -> TracerouteRecord {
        TracerouteRecord {
            msm_id: MeasurementId(1),
            probe_id: ProbeId(1),
            probe_asn: Asn(64500),
            dst: ip(dst),
            timestamp: SimTime(0),
            paris_id: 0,
            hops,
            destination_reached: true,
        }
    }

    fn hop(ttl: u8, replies: &[Option<&str>]) -> Hop {
        Hop::new(
            ttl,
            replies
                .iter()
                .map(|r| match r {
                    Some(a) => Reply::new(ip(a), 1.0),
                    None => Reply::TIMEOUT,
                })
                .collect(),
        )
    }

    #[test]
    fn counts_responsive_and_unresponsive_packets() {
        // Router R forwards 3 packets: two reach B, one is lost.
        let r = rec(
            "198.51.100.1",
            vec![
                hop(1, &[Some("10.0.0.1"); 3]),
                hop(2, &[Some("10.0.1.1"), Some("10.0.1.1"), None]),
            ],
        );
        let patterns = collect_patterns(&[r]);
        let key = PatternKey {
            router: ip("10.0.0.1"),
            dst: ip("198.51.100.1"),
        };
        let p = &patterns[&key];
        assert_eq!(p.get(&NextHop::Ip(ip("10.0.1.1"))), 2.0);
        assert_eq!(p.get(&NextHop::Unresponsive), 1.0);
        assert_eq!(p.total(), 3.0);
    }

    #[test]
    fn patterns_are_destination_specific() {
        let r1 = rec(
            "198.51.100.1",
            vec![hop(1, &[Some("10.0.0.1")]), hop(2, &[Some("10.0.1.1")])],
        );
        let r2 = rec(
            "198.51.100.2",
            vec![hop(1, &[Some("10.0.0.1")]), hop(2, &[Some("10.0.2.1")])],
        );
        let patterns = collect_patterns(&[r1, r2]);
        assert_eq!(patterns.len(), 2);
        let k1 = PatternKey {
            router: ip("10.0.0.1"),
            dst: ip("198.51.100.1"),
        };
        assert_eq!(patterns[&k1].get(&NextHop::Ip(ip("10.0.1.1"))), 1.0);
        assert_eq!(patterns[&k1].get(&NextHop::Ip(ip("10.0.2.1"))), 0.0);
    }

    #[test]
    fn silent_hop_contributes_counts_but_no_model() {
        // Hop 2 is fully silent: hop 1's model counts 3 unresponsive
        // packets; no model is created for the silent hop itself.
        let r = rec(
            "198.51.100.1",
            vec![
                hop(1, &[Some("10.0.0.1"); 3]),
                hop(2, &[None, None, None]),
                hop(3, &[Some("10.0.2.1"); 3]),
            ],
        );
        let patterns = collect_patterns(&[r]);
        assert_eq!(patterns.len(), 1);
        let key = PatternKey {
            router: ip("10.0.0.1"),
            dst: ip("198.51.100.1"),
        };
        assert_eq!(patterns[&key].get(&NextHop::Unresponsive), 3.0);
    }

    #[test]
    fn accumulates_over_traceroutes() {
        let mk = || {
            rec(
                "198.51.100.1",
                vec![
                    hop(1, &[Some("10.0.0.1"); 3]),
                    hop(2, &[Some("10.0.1.1"); 3]),
                ],
            )
        };
        let patterns = collect_patterns(&[mk(), mk()]);
        let key = PatternKey {
            router: ip("10.0.0.1"),
            dst: ip("198.51.100.1"),
        };
        assert_eq!(patterns[&key].get(&NextHop::Ip(ip("10.0.1.1"))), 6.0);
    }

    #[test]
    fn last_hop_has_no_pattern() {
        let r = rec("198.51.100.1", vec![hop(1, &[Some("10.0.0.1"); 3])]);
        assert!(collect_patterns(&[r]).is_empty());
    }

    #[test]
    fn arena_matches_reference_collection() {
        // Interleaved records across several routers, destinations, and
        // reply mixes (responsive, unresponsive, repeated-address quirks):
        // the arena must regroup them identically to the nested-map path.
        // Those shards stay below `RADIX_MIN_KEYS` rows (comparison sort);
        // the fan-out appended below gives ONE (router, destination)
        // pattern more distinct next hops than the threshold, so its
        // shard takes the radix sort.
        let mut recs = vec![
            rec(
                "198.51.100.1",
                vec![
                    hop(1, &[Some("10.0.0.1"); 3]),
                    hop(2, &[Some("10.0.1.1"), Some("10.0.1.2"), None]),
                    hop(3, &[Some("10.0.2.1"); 3]),
                ],
            ),
            rec(
                "198.51.100.2",
                vec![
                    hop(1, &[Some("10.0.0.1"); 3]),
                    // Repeated address: not a next hop.
                    hop(2, &[Some("10.0.0.1"), Some("10.0.1.9"), None]),
                ],
            ),
            rec(
                "198.51.100.1",
                vec![
                    hop(1, &[Some("10.0.0.1"); 3]),
                    hop(2, &[Some("10.0.1.1"); 2]),
                ],
            ),
        ];
        // Descending next hops, so the packed row keys arrive unsorted.
        recs.extend((0..pinpoint_stats::RADIX_MIN_KEYS + 6).rev().map(|k| {
            let next = format!("10.0.6.{k}");
            rec(
                "198.51.100.9",
                vec![
                    hop(1, &[Some("10.0.5.1"); 3]),
                    hop(2, &[Some(next.as_str()); 3]),
                ],
            )
        }));
        assert_eq!(collect_patterns_sharded(&recs), collect_patterns(&recs));
        let mut arena = PatternArena::new();
        arena.build(&recs);
        assert!(
            arena
                .rows
                .iter()
                .any(|shard| shard.rows.len() >= pinpoint_stats::RADIX_MIN_KEYS),
            "no shard crossed the radix threshold"
        );
    }

    #[test]
    fn arena_keeps_packet_less_patterns() {
        // Hop 2 exists but its replies resolve to no next-hop packets at
        // all (empty reply list). Both paths must still produce the empty
        // pattern — its reference decays on empty observations.
        let r = rec(
            "198.51.100.1",
            vec![hop(1, &[Some("10.0.0.1"); 3]), Hop::new(2, Vec::new())],
        );
        let reference = collect_patterns(std::slice::from_ref(&r));
        let sharded = collect_patterns_sharded(&[r]);
        assert_eq!(sharded, reference);
        assert_eq!(sharded.len(), 1);
        let key = PatternKey {
            router: ip("10.0.0.1"),
            dst: ip("198.51.100.1"),
        };
        assert!(sharded[&key].is_empty());
    }

    #[test]
    fn packet_less_pattern_stays_when_interned_in_an_earlier_bin() {
        // Bin 1 observes the pattern with packets; bin 2 observes it with
        // an empty successor hop. With persistent interning, presence this
        // bin must come from this bin's rows — not from the epoch table —
        // so bin 2 must still yield exactly one (empty) pattern.
        let with_packets = rec(
            "198.51.100.1",
            vec![hop(1, &[Some("10.0.0.1"); 3]), hop(2, &[Some("10.0.1.1")])],
        );
        let empty_successor = rec(
            "198.51.100.1",
            vec![hop(1, &[Some("10.0.0.1"); 3]), Hop::new(2, Vec::new())],
        );
        let mut arena = PatternArena::new();
        arena.build(std::slice::from_ref(&with_packets));
        assert_eq!(arena.pattern_count(), 1);
        arena.build(std::slice::from_ref(&empty_successor));
        assert_eq!(arena.pattern_count(), 1);
        let slice = arena.patterns().next().unwrap();
        assert!(slice.is_empty());
        // A bin where the router never appears yields no pattern at all,
        // even though the key stays interned.
        arena.build(&[]);
        assert_eq!(arena.pattern_count(), 0);
    }

    #[test]
    fn replies_to_one_hop_collapse_into_one_row_with_exact_counts() {
        // 5 replies to the same next hop + 2 timeouts: the scatter-time
        // accumulation must produce the same packet counts the per-reply
        // reference path does.
        let r = rec(
            "198.51.100.1",
            vec![
                hop(1, &[Some("10.0.0.1"); 3]),
                hop(
                    2,
                    &[
                        Some("10.0.1.1"),
                        Some("10.0.1.1"),
                        None,
                        Some("10.0.1.1"),
                        Some("10.0.1.1"),
                        None,
                        Some("10.0.1.1"),
                    ],
                ),
            ],
        );
        let reference = collect_patterns(std::slice::from_ref(&r));
        let sharded = collect_patterns_sharded(&[r]);
        assert_eq!(sharded, reference);
        let key = PatternKey {
            router: ip("10.0.0.1"),
            dst: ip("198.51.100.1"),
        };
        assert_eq!(sharded[&key].get(&NextHop::Ip(ip("10.0.1.1"))), 5.0);
        assert_eq!(sharded[&key].get(&NextHop::Unresponsive), 2.0);
    }

    #[test]
    fn arena_is_reusable_across_bins() {
        let mk = |next: &str| {
            rec(
                "198.51.100.1",
                vec![hop(1, &[Some("10.0.0.1"); 3]), hop(2, &[Some(next); 3])],
            )
        };
        let mut arena = PatternArena::new();
        arena.build(&[mk("10.0.1.1"), mk("10.0.1.2")]);
        assert_eq!(arena.pattern_count(), 1);
        let slice = arena.patterns().next().unwrap();
        assert_eq!(slice.len(), 2);
        assert_eq!(slice.total(), 6.0);
        // Rebuild with a different bin: no stale state.
        arena.build(&[mk("10.0.9.9")]);
        assert_eq!(arena.pattern_count(), 1);
        let slice = arena.patterns().next().unwrap();
        assert_eq!(slice.len(), 1);
        assert_eq!(slice.get(&NextHop::Ip(ip("10.0.9.9"))), 3.0);
        assert_eq!(slice.get(&NextHop::Ip(ip("10.0.1.1"))), 0.0);
        // And an empty bin empties the arena.
        arena.build(&[]);
        assert_eq!(arena.pattern_count(), 0);
        // The intern epoch persisted: rebuilding a known shape performs
        // zero new insertions.
        arena.build(&[mk("10.0.1.1"), mk("10.0.1.2")]);
        assert_eq!(arena.stats().bin_insertions, 0);
    }
}
