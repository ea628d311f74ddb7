//! The shared, chunked, parallel ingestion front-end.
//!
//! Both detectors' record→row scatter passes — the front door of every
//! bin — are one piece of machinery, `EpochArena`, written once and
//! instantiated twice (`diffrtt::compute::DelaySpec`: links × probes;
//! `forwarding::pattern::PatternSpec`: pattern keys × next hops):
//!
//! * **Chunked parallel scatter.** A bin's records are split into
//!   fixed-size chunks ([`resolve_chunk_for`]); engine workers scatter
//!   each chunk, record by record, into private per-(chunk, shard) row
//!   buffers, reading the persistent intern tables lock-free. A job may
//!   skip or substitute records on the way (the sanitizer's gate does):
//!   a chunk with fewer, or no, surviving records is still a chunk.
//!   Per-shard rows are then concatenated **in chunk order**, so the row
//!   sequence every shard sorts is exactly the sequence a
//!   single-threaded scatter would have produced — grouped output, and
//!   therefore every report, is byte-identical across thread counts and
//!   chunk sizes.
//! * **Persistent interning epochs.** Links, probes, pattern keys, and
//!   next hops are interned into dense ids once and kept across bins
//!   (`Interner`): a steady-state bin whose keys are all known performs
//!   zero intern-table insertions and zero re-hashing. Keys first seen
//!   mid-bin are queued per chunk and merged *in chunk order* (= record
//!   order) by a short sequential pass between the scatter wave and the
//!   shard wave, so id assignment is independent of the chunking.
//! * **Compaction.** Every interned key carries the last bin it was
//!   observed in; a sweep driven by the same
//!   `DetectorConfig::reference_expiry_bins` clock the detectors' own
//!   reference eviction uses drops dead keys and renumbers the survivors,
//!   so key churn cannot grow the tables without bound. Dense ids are
//!   never visible in reports, which makes compaction byte-for-byte
//!   invisible — `tests/ingest_parity.rs` proves it.
//!
//! The two-wave protocol per bin (scatter-chunk jobs, then one job per
//! shard) is what `engine::run_jobs` executes: one worker herd claims the
//! scatter chunks of *every* detector — and, in a fleet, every stream —
//! at once, then every shard job.
//!
//! What the arena owns and what an `ArenaSpec` supplies:
//!
//! | the arena, once | a spec, per detector |
//! |---|---|
//! | per-shard primary tables + the one side table, their epoch counters | key and side types with their shard hash and byte codec |
//! | chunk buffers, chunk-local pending-id queues, the `PENDING` patch | the per-record scatter body and its staging scratch |
//! | bin open, one writer per record chunk, chunk-ordered merge and gather, the free list lending shard jobs their row buffers | the gathered row type and the per-shard grouped layout (`finalize`) |
//! | stamp fence, compaction, stats, the snapshot codec, inline `build` | the per-side payload hooks (`()` unless a side slot carries data) |

use crate::engine::{self, ShardKey, SnapshotKey, NUM_SHARDS};
use crate::snapshot::{Reader, SnapshotError, Writer};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::{BinId, FxHashMap};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Mutex;

/// Records per scatter chunk on a multi-worker pool. Small enough that a
/// realistic bin yields more chunks than workers, large enough that
/// per-chunk bookkeeping stays noise.
pub const DEFAULT_CHUNK_RECORDS: usize = 512;

/// Auto chunk size when the pool has a single worker. With no cores to
/// spread chunks over, chunking is purely a cache-blocking knob: a
/// chunk's run/value buffers and dedup maps should stay resident while
/// the next chunk scatters. On a scatter-dominated bin (`pinpoint-bench`'s
/// `IngestSpec::large`, ~200k delay rows) smaller blocks were measured
/// beating [`DEFAULT_CHUNK_RECORDS`] by ~5% on one core (and the
/// whole-bin single chunk losing ~40% — its per-shard buffers outgrow
/// the cache).
pub const SINGLE_WORKER_CHUNK_RECORDS: usize = 128;

/// The scatter chunk size for a pool of `threads` resolved workers — the
/// one cut of a bin, derived by the engine alone: [`DEFAULT_CHUNK_RECORDS`],
/// except on a single-worker pool — where `engine::run_jobs` already takes
/// its no-thread inline path, no scoped workers spawned — where chunks
/// shrink to the cache-blocking size ([`SINGLE_WORKER_CHUNK_RECORDS`]).
/// Output is byte-identical for every chunking (the chunk-order rule,
/// proven by `prop_chunk_order_is_invisible_for_both_specs`), so the cut
/// only moves throughput.
pub fn resolve_chunk_for(threads: usize) -> usize {
    if threads <= 1 {
        SINGLE_WORKER_CHUNK_RECORDS
    } else {
        DEFAULT_CHUNK_RECORDS
    }
}

/// Bit marking a row id as *pending*: a chunk-local index into the
/// chunk's new-key queue rather than a table slot. Patched to the final
/// dense id during the chunk-ordered gather ([`ChunkIds::patch`]) —
/// nothing outside this module ever sees or tests the bit.
const PENDING: u32 = 1 << 31;

/// Reserved side id for presence-only rows (a primary key observed with
/// no side at all — a pattern with no next-hop packets). Sorts after
/// every real id; never patched.
pub(crate) const SENTINEL: u32 = u32::MAX;

/// Pack a row key: primary-key id (shard-local) high, side slot low.
#[inline]
pub(crate) fn pack(key: u32, side: u32) -> u64 {
    (u64::from(key) << 32) | u64::from(side)
}

/// Counters describing one arena's interning epoch. Aggregated over all
/// of an arena's tables (links + probes, or patterns + next hops) by
/// `DelayDetector::ingest_stats` / `ForwardingDetector::ingest_stats`,
/// and over both arenas by `Analyzer::ingest_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IngestStats {
    /// Keys currently interned (live table size).
    pub interned: usize,
    /// Intern-table insertions during the most recent bin. A steady-state
    /// bin — every key already known — performs **zero**.
    pub bin_insertions: u64,
    /// Cumulative intern-table insertions over the epoch.
    pub insertions: u64,
    /// Cumulative keys evicted by compaction.
    pub evictions: u64,
}

impl IngestStats {
    /// Sum two stat sets (e.g. both arenas of an analyzer).
    pub fn merged(self, other: IngestStats) -> IngestStats {
        IngestStats {
            interned: self.interned + other.interned,
            bin_insertions: self.bin_insertions + other.bin_insertions,
            insertions: self.insertions + other.insertions,
            evictions: self.evictions + other.evictions,
        }
    }
}

/// An epoch-persistent intern table: key → dense id, with a last-seen
/// bin per id driving compaction.
///
/// Read path (`get`) takes `&self` and is what scatter workers share —
/// known keys resolve with one hash lookup, no lock, no insertion. The
/// write path (`insert`, `stamp`, `compact`) runs only on the sequential
/// merge between waves or on the serial stamp fence, so the table is
/// read-mostly by construction.
#[derive(Debug)]
pub(crate) struct Interner<K> {
    index: FxHashMap<K, u32>,
    keys: Vec<K>,
    last_seen: Vec<BinId>,
    insertions: u64,
    evictions: u64,
}

impl<K> Default for Interner<K> {
    fn default() -> Self {
        Interner {
            index: FxHashMap::default(),
            keys: Vec::new(),
            last_seen: Vec::new(),
            insertions: 0,
            evictions: 0,
        }
    }
}

impl<K: Copy + Eq + Hash> Interner<K> {
    /// Dense id of `key`, if interned.
    pub(crate) fn get(&self, key: &K) -> Option<u32> {
        self.index.get(key).copied()
    }

    /// Intern a new key (must be absent) and stamp it with `bin`.
    pub(crate) fn insert(&mut self, key: K, bin: BinId) -> u32 {
        debug_assert!(!self.index.contains_key(&key));
        let id = self.keys.len() as u32;
        // Dense ids share their 32-bit space with the PENDING flag and the
        // SENTINEL marker; growth anywhere near that range must fail loud,
        // not corrupt packed row keys.
        assert!(
            id & PENDING == 0,
            "intern table overflow: dense id space exhausted"
        );
        self.keys.push(key);
        self.last_seen.push(bin);
        self.index.insert(key, id);
        self.insertions += 1;
        id
    }

    /// Dense id of `key`, interning it (stamped `bin`) when absent.
    fn get_or_insert(&mut self, key: K, bin: BinId) -> u32 {
        match self.get(&key) {
            Some(id) => id,
            None => self.insert(key, bin),
        }
    }

    /// Mark `id` as observed in `bin`.
    pub(crate) fn stamp(&mut self, id: u32, bin: BinId) {
        self.last_seen[id as usize] = bin;
    }

    /// All interned keys, dense-id order (id `i` is `keys()[i]`).
    pub(crate) fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Live interned keys.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Cumulative insertions.
    pub(crate) fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Cumulative evictions.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Rebuild a table from its snapshotted parts: key `i` gets dense id
    /// `i`, exactly as the original insertion order did.
    /// The parts come from outside bytes, so the table's own invariants
    /// are checked, not assumed: one stamp per key, and no key twice (a
    /// duplicate would leave the index pointing at one copy and panic the
    /// first compaction sweep that evicts it and keeps the other).
    pub(crate) fn from_parts(
        keys: Vec<K>,
        last_seen: Vec<BinId>,
        insertions: u64,
        evictions: u64,
    ) -> Result<Self, SnapshotError> {
        if keys.len() != last_seen.len() {
            return Err(SnapshotError::Corrupt("intern table stamp count"));
        }
        let mut index = FxHashMap::default();
        index.reserve(keys.len());
        for (i, key) in keys.iter().enumerate() {
            if index.insert(*key, i as u32).is_some() {
                return Err(SnapshotError::Corrupt("duplicate interned key"));
            }
        }
        Ok(Interner {
            index,
            keys,
            last_seen,
            insertions,
            evictions,
        })
    }

    /// Whether any key has gone unseen for more than `expiry_bins` bins —
    /// the fast path of [`Interner::compact`].
    fn any_expired(&self, now: BinId, expiry_bins: usize) -> bool {
        self.last_seen
            .iter()
            .any(|&seen| engine::reference_expired(now, seen, expiry_bins))
    }

    /// Drop every key unseen for more than `expiry_bins` bins (the
    /// shared [`engine::reference_expired`] clock) and renumber the
    /// survivors in their existing order. Returns the old ids kept, in
    /// new-id order, when anything was evicted — callers with parallel
    /// per-id payloads compact them with the same list — or `None` when
    /// the table is untouched (the steady-state fast path: one linear
    /// scan of the stamp vector, no moves, no re-hash).
    pub(crate) fn compact(&mut self, now: BinId, expiry_bins: usize) -> Option<Vec<u32>> {
        if !self.any_expired(now, expiry_bins) {
            return None;
        }
        let mut kept: Vec<u32> = Vec::with_capacity(self.keys.len());
        let mut w = 0usize;
        for old in 0..self.keys.len() {
            if engine::reference_expired(now, self.last_seen[old], expiry_bins) {
                self.index.remove(&self.keys[old]);
                self.evictions += 1;
                continue;
            }
            self.keys[w] = self.keys[old];
            self.last_seen[w] = self.last_seen[old];
            *self
                .index
                .get_mut(&self.keys[w])
                .expect("surviving key is indexed") = w as u32;
            kept.push(old as u32);
            w += 1;
        }
        self.keys.truncate(w);
        self.last_seen.truncate(w);
        Some(kept)
    }
}

impl<K: SnapshotKey> Interner<K> {
    /// Write the table: keys with their stamps in dense-id order (which
    /// is what lets restore reproduce the identical id assignment), then
    /// the two cumulative counters.
    fn snapshot_into(&self, w: &mut Writer) {
        w.seq(self.keys.len());
        for (key, bin) in self.keys.iter().zip(&self.last_seen) {
            key.write(w);
            w.u64(bin.0);
        }
        w.u64(self.insertions);
        w.u64(self.evictions);
    }

    /// Read a table back ([`Interner::from_parts`] validates it).
    fn restore_from(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let n = r.seq()?;
        let mut keys = Vec::with_capacity(n);
        let mut seen = Vec::with_capacity(n);
        for _ in 0..n {
            keys.push(K::read(r)?);
            seen.push(BinId(r.u64()?));
        }
        Interner::from_parts(keys, seen, r.u64()?, r.u64()?)
    }
}

/// What differs between the two detectors' arenas — everything else
/// ([`EpochArena`], [`Chunk`], [`Wave`]) is written once over it. Specs
/// are zero-sized markers resolved at compile time: every hook below is
/// a static call the per-record and per-row loops inline.
pub(crate) trait ArenaSpec: Sized + Debug + Send + Sync + 'static {
    /// Primary key, sharded by its own hash: one intern table per shard
    /// (IP links / pattern keys). Groups a shard's rows.
    type Key: ShardKey + Debug;
    /// Secondary key, one shared table (probes / next hops). Splits a
    /// group into its rows.
    type Side: SnapshotKey + Debug;
    /// Per-side-slot data riding beside the side table (`()` for none).
    type Payload: SidePayload;
    /// What a staged row carries besides its packed key.
    type Tail: Copy + Debug + Send + Sync;
    /// Per-chunk staging beside the rows (value pools, scratch).
    type Staged: Default + Debug + Send + Sync;
    /// A gathered row: key (patched), tail, and whatever of the chunk
    /// index the grouping needs.
    type Row: Copy + Debug + Send;
    /// One shard's workspace: the grouped layout and the buffers lent to
    /// its job, plus the scratch and output buffers the detector's shard
    /// job reuses bin after bin.
    type Rows: Default + Debug + Send;

    /// Empty `staged` for a new bin (buffers keep their capacity).
    fn reset(_staged: &mut Self::Staged) {}

    /// Scatter one record into `chunk.rows` / `chunk.staged`, resolving
    /// ids through `chunk.ids` against the shared read-only tables. Pure
    /// per-chunk work: a chunk's output depends only on `(its records,
    /// table state at bin start)`, never on the thread that ran it or on
    /// any other chunk.
    fn scatter(
        chunk: &mut Chunk<Self>,
        rec: &TracerouteRecord,
        keys: &[Interner<Self::Key>],
        sides: &Interner<Self::Side>,
    );

    /// The gathered form of a staged row of chunk number `chunk`.
    fn row(key: u64, chunk: u32, tail: Self::Tail) -> Self::Row;

    /// Where a shard's job holds the buffers [`Wave::group`] lends it.
    fn lent(rows: &mut Self::Rows) -> &mut Lent<Self::Row>;

    /// Sort the shard's gathered rows and lay out its groups. Runs in the
    /// shard's job; must not touch the epoch tables.
    fn finalize(rows: &mut Self::Rows, wave: Wave<'_, Self>);

    /// Shard-local ids of the primary keys `finalize` found this bin.
    fn observed(rows: &Self::Rows) -> impl Iterator<Item = u32> + '_;
}

/// Per-side-slot data an arena keeps parallel to its side table, and the
/// points where the arena must tell it something. Every hook defaults to
/// nothing, which is the whole impl for `()`.
pub(crate) trait SidePayload: Default + Debug + Send + Sync {
    /// What a scatter chunk records about a side at first touch.
    type Note: Copy + Debug + Send + Sync;

    /// A new bin opens (also an empty one).
    fn open_bin(&mut self) {}

    /// The merge met `slot` — in record order, once per chunk that
    /// touched it; `slot == len` means it was interned just now.
    fn pin(&mut self, _slot: u32, _note: Self::Note) {}

    /// Compaction kept exactly the old slots `kept`, in new-slot order.
    fn renumber(&mut self, _kept: &[u32]) {}

    /// Snapshot bytes, written right after the side table.
    fn write(&self, _w: &mut Writer) {}

    /// Read [`SidePayload::write`] bytes for a side table of `sides` slots.
    fn read(_r: &mut Reader<'_>, _sides: usize) -> Result<Self, SnapshotError> {
        Ok(Self::default())
    }
}

impl SidePayload for () {
    type Note = ();
}

/// One scatter chunk's intern bookkeeping: the keys it met that the
/// persistent tables did not know at bin start, queued in encounter
/// order under *pending* ids, and the patch tables the merge fills.
#[derive(Debug)]
pub(crate) struct ChunkIds<S: ArenaSpec> {
    /// Primary keys first seen by this chunk; pending id `i` is
    /// `new_keys[i]`.
    new_keys: Vec<S::Key>,
    /// Chunk-local dedup for `new_keys`: key → `PENDING | index`.
    key_ids: FxHashMap<S::Key, u32>,
    /// Filled by the merge: pending key id → final shard-local id.
    key_patch: Vec<u32>,
    /// Sides first seen by this chunk, in encounter order.
    new_sides: Vec<S::Side>,
    /// Chunk-local side dedup: side → encoded slot (table slot, or
    /// `PENDING | new_sides index`).
    side_seen: FxHashMap<S::Side, u32>,
    /// Every side this chunk touched — `(encoded slot, first-touch note)`
    /// in encounter order; drives last-seen stamps and payload pins.
    touched_sides: Vec<(u32, <S::Payload as SidePayload>::Note)>,
    /// Filled by the merge: pending side id → final table slot.
    side_patch: Vec<u32>,
}

impl<S: ArenaSpec> Default for ChunkIds<S> {
    fn default() -> Self {
        ChunkIds {
            new_keys: Vec::new(),
            key_ids: FxHashMap::default(),
            key_patch: Vec::new(),
            new_sides: Vec::new(),
            side_seen: FxHashMap::default(),
            touched_sides: Vec::new(),
            side_patch: Vec::new(),
        }
    }
}

impl<S: ArenaSpec> ChunkIds<S> {
    fn clear(&mut self) {
        self.new_keys.clear();
        self.key_ids.clear();
        self.new_sides.clear();
        self.side_seen.clear();
        self.touched_sides.clear();
        // `key_patch` / `side_patch` are NOT cleared here: the merge owns
        // their lifecycle — it clears and refills both before any gather
        // reads them, so wiping them per wave is wasted work.
    }

    /// `(shard, id)` of a primary key: its shard-local table id when
    /// interned, else a pending id (queueing the key on first sight).
    #[inline]
    pub(crate) fn resolve_key(&mut self, tables: &[Interner<S::Key>], key: S::Key) -> (usize, u32) {
        let shard = key.shard();
        let id = match tables[shard].get(&key) {
            Some(id) => id,
            None => match self.key_ids.get(&key) {
                Some(&pending) => pending,
                None => {
                    self.new_keys.push(key);
                    let pending = PENDING | (self.new_keys.len() as u32 - 1);
                    self.key_ids.insert(key, pending);
                    pending
                }
            },
        };
        (shard, id)
    }

    /// Encoded slot of a side: its table slot when interned, else a
    /// pending id. The first touch per chunk records `note`.
    #[inline]
    pub(crate) fn resolve_side(
        &mut self,
        table: &Interner<S::Side>,
        side: S::Side,
        note: <S::Payload as SidePayload>::Note,
    ) -> u32 {
        if let Some(&enc) = self.side_seen.get(&side) {
            return enc;
        }
        let enc = match table.get(&side) {
            Some(slot) => slot,
            None => {
                self.new_sides.push(side);
                PENDING | (self.new_sides.len() as u32 - 1)
            }
        };
        self.side_seen.insert(side, enc);
        self.touched_sides.push((enc, note));
        enc
    }

    /// The pending queues as the merge will read them: new keys, new
    /// sides, and every touched side in first-touch order.
    #[cfg(test)]
    #[allow(clippy::type_complexity)]
    pub(crate) fn pending(
        &self,
    ) -> (
        &[S::Key],
        &[S::Side],
        &[(u32, <S::Payload as SidePayload>::Note)],
    ) {
        (&self.new_keys, &self.new_sides, &self.touched_sides)
    }

    /// Whether this chunk wrote no pending id anywhere.
    fn nothing_new(&self) -> bool {
        self.new_keys.is_empty() && self.new_sides.is_empty()
    }

    /// A packed row key with its pending halves replaced by the merged
    /// ids ([`SENTINEL`] sides pass through).
    #[inline]
    fn patch(&self, packed: u64) -> u64 {
        let mut key = (packed >> 32) as u32;
        if key & PENDING != 0 {
            key = self.key_patch[(key ^ PENDING) as usize];
        }
        let mut side = packed as u32;
        if side != SENTINEL && side & PENDING != 0 {
            side = self.side_patch[(side ^ PENDING) as usize];
        }
        pack(key, side)
    }
}

/// One scatter chunk's private output. Written by exactly one scatter
/// job (no sharing, no locks), then read by the sequential merge and the
/// per-shard gather. All buffers are reused across bins.
#[derive(Debug)]
pub(crate) struct Chunk<S: ArenaSpec> {
    /// Per-shard staged rows `(pack(key id, side slot), tail)`, in record
    /// order within the chunk. Ids may be pending; the side half may be
    /// [`SENTINEL`].
    pub(crate) rows: Vec<Vec<(u64, S::Tail)>>,
    /// The spec's own staging beside the rows.
    pub(crate) staged: S::Staged,
    /// The chunk-local intern queues.
    pub(crate) ids: ChunkIds<S>,
}

impl<S: ArenaSpec> Default for Chunk<S> {
    fn default() -> Self {
        Chunk {
            rows: Vec::new(),
            staged: S::Staged::default(),
            ids: ChunkIds::default(),
        }
    }
}

impl<S: ArenaSpec> Chunk<S> {
    fn clear(&mut self) {
        self.rows.resize_with(NUM_SHARDS, Vec::new);
        for rows in &mut self.rows {
            rows.clear();
        }
        S::reset(&mut self.staged);
        self.ids.clear();
    }
}

/// One chunk of the open bin, as the scatter job that owns it sees it:
/// the chunk's private buffers plus the shared read-only tables.
pub(crate) struct ChunkWriter<'a, S: ArenaSpec> {
    chunk: &'a mut Chunk<S>,
    keys: &'a [Interner<S::Key>],
    sides: &'a Interner<S::Side>,
}

impl<S: ArenaSpec> ChunkWriter<'_, S> {
    /// Empty the chunk's buffers — the job's first step, so the clearing
    /// runs on the worker too.
    pub(crate) fn begin(&mut self) {
        self.chunk.clear();
    }

    /// Scatter one record of the chunk, in record order.
    #[inline]
    pub(crate) fn record(&mut self, rec: &TracerouteRecord) {
        S::scatter(self.chunk, rec, self.keys, self.sides);
    }
}

/// The two buffers a shard job borrows from its arena's free list: the
/// shard's gathered rows and the radix sort's ping-pong scratch. Outside
/// a job both are empty — the arena, not the shard, keeps the capacity.
#[derive(Debug)]
pub(crate) struct Lent<T> {
    pub(crate) rows: Vec<T>,
    pub(crate) scratch: Vec<T>,
}

impl<T> Default for Lent<T> {
    fn default() -> Self {
        Lent {
            rows: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

/// An arena's free list of row buffers. A shard job holds two of them
/// between [`Wave::group`] and [`Wave::give_back`], so an arena needs two
/// per worker, not two per shard. The lock is held only to pop or push a
/// buffer, which cannot panic, so it is never poisoned.
type FreeList<T> = Mutex<Vec<Vec<T>>>;

/// What every shard job of a wave reads: the bin's chunk outputs and the
/// side table's keys and payload, all frozen since the merge, and the
/// arena's free list its row buffers come from.
#[derive(Debug)]
pub(crate) struct Wave<'a, S: ArenaSpec> {
    pub(crate) chunks: &'a [Chunk<S>],
    sides: &'a Interner<S::Side>,
    pub(crate) payload: &'a S::Payload,
    free: &'a FreeList<S::Row>,
}

impl<S: ArenaSpec> Clone for Wave<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: ArenaSpec> Copy for Wave<'_, S> {}

/// One shard's slice of a staged wave: its row workspace (which also
/// holds the shard's scratch and output buffers, so they live as long as
/// the shard), its epoch keys (read-only, dense-id order), and the
/// detector's state for the shard — handed to exactly one job by `&mut`,
/// so no locks beyond the free list's.
pub(crate) struct ShardTask<'a, S: ArenaSpec, D> {
    pub(crate) idx: usize,
    pub(crate) rows: &'a mut S::Rows,
    pub(crate) keys: &'a [S::Key],
    pub(crate) state: &'a mut D,
}

impl<'a, S: ArenaSpec> Wave<'a, S> {
    /// The side keys, dense-id order (slot `i` is `sides()[i]`).
    pub(crate) fn sides(self) -> &'a [S::Side] {
        self.sides.keys()
    }

    /// Group shard `shard`: borrow two buffers from the free list,
    /// concatenate the shard's rows from every chunk into one **in chunk
    /// order** (= record order, whatever the chunk size), patching pending
    /// ids to their merged table slots, then `finalize`. Safe to run
    /// concurrently across shards: each reads only its own
    /// `chunk.rows[shard]` buffers. The job hands the buffers back with
    /// [`Wave::give_back`] once nothing reads the gathered rows.
    pub(crate) fn group(self, shard: usize, rows: &mut S::Rows) {
        let lent = S::lent(rows);
        {
            let mut free = self
                .free
                .lock()
                .expect("free list poisoned: a thread panicked while popping or pushing a buffer");
            for buf in [&mut lent.rows, &mut lent.scratch] {
                *buf = free.pop().unwrap_or_default();
            }
        }
        let out = &mut lent.rows;
        out.clear();
        for (c, chunk) in self.chunks.iter().enumerate() {
            let (c, source) = (c as u32, &chunk.rows[shard]);
            // Steady-state fast path: a chunk that discovered no new keys
            // wrote no pending ids anywhere — its rows are final and copy
            // wholesale.
            if chunk.ids.nothing_new() {
                out.extend(source.iter().map(|&(key, tail)| S::row(key, c, tail)));
            } else {
                let ids = &chunk.ids;
                out.extend(
                    source
                        .iter()
                        .map(|&(key, tail)| S::row(ids.patch(key), c, tail)),
                );
            }
        }
        S::finalize(rows, self);
    }

    /// Return the buffers [`Wave::group`] lent to `rows`' job.
    pub(crate) fn give_back(self, rows: &mut S::Rows) {
        let lent = S::lent(rows);
        let mut free = self
            .free
            .lock()
            .expect("free list poisoned: a thread panicked while popping or pushing a buffer");
        for buf in [&mut lent.rows, &mut lent.scratch] {
            free.push(std::mem::take(buf));
        }
    }
}

/// A detector's flat, sharded, bin-reusable staging store with its
/// epoch-persistent intern tables — `SampleArena` and `PatternArena` are
/// this type under their spec.
///
/// Per bin: [`EpochArena::open_bin`] opens the bin and hands out one
/// [`ChunkWriter`] per record chunk; the scatter job that owns it stages
/// rows in private per-(chunk, shard) buffers, resolving keys through the
/// intern tables (steady-state bins perform zero insertions).
/// [`EpochArena::merge`] — short, sequential — assigns dense ids to the
/// bin's new keys in chunk order (= record order). Then [`Wave::group`], run per shard in parallel, concatenates
/// each shard's rows in chunk order and groups them, and
/// [`EpochArena::stamp_bin`] closes the bin. Every buffer and every table
/// is retained across bins, and [`EpochArena::compact`] on the shared
/// `reference_expiry_bins` clock evicts keys that stopped appearing, so
/// neither allocation nor key churn grows with the epoch.
#[derive(Debug)]
pub(crate) struct EpochArena<S: ArenaSpec> {
    /// Epoch-persistent per-shard primary key → shard-local id tables,
    /// shared read-only by every scatter job.
    keys: Vec<Interner<S::Key>>,
    /// Per-shard per-wave workspace (consumed within one shard wave).
    rows: Vec<S::Rows>,
    /// Row buffers lent to the running shard jobs, sized by
    /// [`EpochArena::tasks`] for the wave's workers.
    free: FreeList<S::Row>,
    /// Epoch-persistent side → slot table.
    sides: Interner<S::Side>,
    /// Side slot → the spec's per-slot data.
    payload: S::Payload,
    /// Scatter chunk buffers, retained and recycled across bins — a
    /// steady stream allocates nothing here. The open bin's are
    /// `chunks[..active]`.
    chunks: Vec<Chunk<S>>,
    active: usize,
    insertions_at_bin_start: u64,
}

impl<S: ArenaSpec> Default for EpochArena<S> {
    fn default() -> Self {
        EpochArena {
            keys: (0..NUM_SHARDS).map(|_| Interner::default()).collect(),
            rows: (0..NUM_SHARDS).map(|_| S::Rows::default()).collect(),
            free: Mutex::default(),
            sides: Interner::default(),
            payload: S::Payload::default(),
            chunks: Vec::new(),
            active: 0,
            insertions_at_bin_start: 0,
        }
    }
}

impl<S: ArenaSpec> EpochArena<S> {
    fn total_insertions(&self) -> u64 {
        self.sides.insertions() + self.keys.iter().map(Interner::insertions).sum::<u64>()
    }

    /// Interning-epoch counters over all of this arena's tables.
    pub(crate) fn stats(&self) -> IngestStats {
        IngestStats {
            interned: self.sides.len() + self.keys.iter().map(Interner::len).sum::<usize>(),
            bin_insertions: self.total_insertions() - self.insertions_at_bin_start,
            insertions: self.total_insertions(),
            evictions: self.sides.evictions()
                + self.keys.iter().map(Interner::evictions).sum::<u64>(),
        }
    }

    /// Serialize the epoch-persistent state: the per-shard key tables,
    /// the side table (keys in dense-id order — restore reproduces the
    /// identical id assignment), the side payload, and the bin-insertion
    /// watermark. Per-wave state (shard rows, scatter chunks) is scratch
    /// the next bin rebuilds, so it is not written.
    pub(crate) fn snapshot_into(&self, w: &mut Writer) {
        for table in &self.keys {
            table.snapshot_into(w);
        }
        self.sides.snapshot_into(w);
        self.payload.write(w);
        w.u64(self.insertions_at_bin_start);
    }

    /// Rebuild an arena from [`EpochArena::snapshot_into`] bytes, with
    /// fresh (empty) per-wave scratch. The bytes come from outside, so
    /// what the arena relies on is checked: no key twice in a table
    /// ([`Interner::from_parts`]), every primary key in its own shard's
    /// table, and a watermark the counters can have passed.
    pub(crate) fn restore_from(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut arena = EpochArena::default();
        for (shard, table) in arena.keys.iter_mut().enumerate() {
            *table = Interner::restore_from(r)?;
            if table.keys().iter().any(|key: &S::Key| key.shard() != shard) {
                return Err(SnapshotError::Corrupt("interned key in wrong shard"));
            }
        }
        arena.sides = Interner::restore_from(r)?;
        arena.payload = S::Payload::read(r, arena.sides.len())?;
        arena.insertions_at_bin_start = r.u64()?;
        if arena.insertions_at_bin_start > arena.total_insertions() {
            return Err(SnapshotError::Corrupt("insertion watermark above total"));
        }
        Ok(arena)
    }

    /// Evict keys and sides unseen for more than `expiry_bins` bins and
    /// renumber the survivors. Dense ids never reach reports, so a sweep
    /// is byte-for-byte invisible downstream. Must run between bins: after
    /// the previous bin's shard wave (and its [`Self::stamp_bin`]) and
    /// before the next bin's chunks scatter — renumbering under scattered
    /// rows would corrupt their packed ids.
    pub(crate) fn compact(&mut self, now: BinId, expiry_bins: usize) {
        for table in &mut self.keys {
            table.compact(now, expiry_bins);
        }
        if let Some(kept) = self.sides.compact(now, expiry_bins) {
            self.payload.renumber(&kept);
        }
    }

    /// Open a bin of `chunks` scatter chunks and return one writer per
    /// chunk, in chunk order — each to be owned by the one scatter job
    /// that feeds it that chunk's records. Exactly one call per bin, also
    /// for an empty bin (no writers, but the bin still opens: the
    /// bin-insertion counter resets and the payload hears of it).
    pub(crate) fn open_bin(&mut self, chunks: usize) -> impl Iterator<Item = ChunkWriter<'_, S>> {
        self.payload.open_bin();
        self.insertions_at_bin_start = self.total_insertions();
        self.active = chunks;
        if self.chunks.len() < chunks {
            self.chunks.resize_with(chunks, Chunk::default);
        }
        let (keys, sides) = (&self.keys[..], &self.sides);
        self.chunks[..chunks]
            .iter_mut()
            .map(move |chunk| ChunkWriter { chunk, keys, sides })
    }

    /// Open a bin over `records` and return its scatter wave: one boxed
    /// job per fixed-size record chunk (chunk `i` gets records
    /// `[i·c, (i+1)·c)`), to be executed on the engine pool. This is a
    /// detector scattering on its own; an analyzer pairs both arenas'
    /// writers per chunk instead (`Analyzer::open_scatter`).
    pub(crate) fn scatter_jobs<'a>(
        &'a mut self,
        records: &'a [TracerouteRecord],
        chunk_records: usize,
    ) -> Vec<engine::Job<'a>> {
        let chunk_records = chunk_records.max(1);
        self.open_bin(records.len().div_ceil(chunk_records))
            .zip(records.chunks(chunk_records))
            .map(|(mut writer, records)| {
                Box::new(move || {
                    writer.begin();
                    for rec in records {
                        writer.record(rec);
                    }
                }) as engine::Job<'a>
            })
            .collect()
    }

    /// The sequential chunk-ordered merge between the scatter wave and the
    /// shard wave: assign dense ids to keys first seen this bin (chunk
    /// order = record order, so the assignment is identical for every
    /// chunk size and thread count), stamp every touched side's last-seen
    /// clock and pass its note to the payload. Observed primary keys are
    /// stamped by the post-wave fence ([`Self::stamp_bin`]).
    pub(crate) fn merge(&mut self, bin: BinId) {
        for chunk in &mut self.chunks[..self.active] {
            let ids = &mut chunk.ids;
            ids.key_patch.clear();
            for &key in &ids.new_keys {
                let id = self.keys[key.shard()].get_or_insert(key, bin);
                ids.key_patch.push(id);
            }
            ids.side_patch.clear();
            for &(enc, note) in &ids.touched_sides {
                let slot = if enc & PENDING != 0 {
                    debug_assert_eq!((enc ^ PENDING) as usize, ids.side_patch.len());
                    let side = ids.new_sides[(enc ^ PENDING) as usize];
                    let slot = self.sides.get_or_insert(side, bin);
                    ids.side_patch.push(slot);
                    slot
                } else {
                    enc
                };
                self.payload.pin(slot, note);
                self.sides.stamp(slot, bin);
            }
        }
    }

    /// Stage the shard wave (after [`Self::merge`]): one [`ShardTask`] per
    /// shard — its row workspace and key table paired with its slice
    /// `state[shard]` of the detector's own state — in shard order, each
    /// to become one engine job, alongside the [`Wave`] every job reads.
    ///
    /// The free list is sized here for a wave on `workers` workers: a
    /// worker runs one job at a time, so two buffers per worker (capped at
    /// two per shard) are all the jobs can hold at once, and each gets
    /// room for the bin's largest shard. No job then grows a buffer, and
    /// what the arena retains depends on the bin and the worker count,
    /// never on which worker claimed which shard.
    pub(crate) fn tasks<'a, D>(
        &'a mut self,
        state: &'a mut [D],
        workers: usize,
    ) -> (Vec<ShardTask<'a, S, D>>, Wave<'a, S>) {
        let chunks = &self.chunks[..self.active];
        let largest = (0..NUM_SHARDS)
            .map(|s| chunks.iter().map(|c| c.rows[s].len()).sum::<usize>())
            .max()
            .unwrap_or(0);
        let free = self
            .free
            .get_mut()
            .expect("free list poisoned: a thread panicked while popping or pushing a buffer");
        free.resize_with(2 * workers.clamp(1, NUM_SHARDS), Vec::new);
        for buf in free.iter_mut().filter(|buf| buf.capacity() < largest) {
            *buf = Vec::with_capacity(largest);
        }
        let wave = Wave {
            chunks,
            sides: &self.sides,
            payload: &self.payload,
            free: &self.free,
        };
        let tasks = (self.rows.iter_mut().zip(&self.keys).zip(state).enumerate())
            .map(|(idx, ((rows, keys), state))| ShardTask {
                idx,
                rows,
                keys: keys.keys(),
                state,
            })
            .collect();
        (tasks, wave)
    }

    /// Stamp every primary key observed by the just-finished shard wave
    /// with `bin` — the serial fence closing a bin's epoch bookkeeping.
    /// Split out of `finalize` so shard jobs never write the epoch
    /// tables; must run after the wave and before the next bin's
    /// compaction sweep.
    pub(crate) fn stamp_bin(&mut self, bin: BinId) {
        for (table, shard) in self.keys.iter_mut().zip(&self.rows) {
            for id in S::observed(shard) {
                table.stamp(id, bin);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use crate::diffrtt::compute::{DelaySpec, SampleArena};
    use crate::forwarding::pattern::{PatternArena, PatternSpec};
    use crate::sanitize::{sanitize_records, Gate, Sanitizer};
    use crate::snapshot::KIND_ANALYZER;
    use pinpoint_model::records::{Hop, Reply};
    use pinpoint_model::{Asn, IpLink, MeasurementId, ProbeId, SimTime};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    impl<S: ArenaSpec> EpochArena<S> {
        /// A finished bin shard by shard: its grouped rows and the shard's
        /// keys (dense-id order).
        pub(crate) fn shards(&self) -> impl Iterator<Item = (&S::Rows, &[S::Key])> {
            (self.rows.iter().zip(&self.keys)).map(|(rows, keys)| (rows, keys.keys()))
        }

        /// The side keys and payload a finished bin's rows resolve against.
        pub(crate) fn wave(&self) -> Wave<'_, S> {
            Wave {
                chunks: &self.chunks[..self.active],
                sides: &self.sides,
                payload: &self.payload,
                free: &self.free,
            }
        }

        /// Scatter + merge + group inline, as a single chunk (the
        /// single-threaded convenience entry; the engine runs chunks and
        /// shards on its workers). No compaction — callers with an expiry
        /// policy drive `compact` themselves.
        pub(crate) fn build(&mut self, records: &[TracerouteRecord]) {
            self.run_inline(BinId(0), records, records.len());
        }

        /// One bin through every step on the calling thread, scattered as
        /// chunks of `chunk_records`.
        fn run_inline(&mut self, bin: BinId, records: &[TracerouteRecord], chunk_records: usize) {
            for job in self.scatter_jobs(records, chunk_records) {
                job();
            }
            self.finish_inline(bin);
        }

        /// Everything after the scatter wave, on the calling thread: merge,
        /// group every shard, stamp. Each shard keeps its lent buffers
        /// until the next bin, so the finished bin stays readable.
        fn finish_inline(&mut self, bin: BinId) {
            let free = self
                .free
                .get_mut()
                .expect("free list poisoned: a thread panicked while popping or pushing a buffer");
            for lent in self.rows.iter_mut().map(S::lent) {
                free.extend([
                    std::mem::take(&mut lent.rows),
                    std::mem::take(&mut lent.scratch),
                ]);
            }
            self.merge(bin);
            let mut stateless = [(); NUM_SHARDS];
            let (tasks, wave) = self.tasks(&mut stateless, 1);
            for task in tasks {
                wave.group(task.idx, task.rows);
            }
            self.stamp_bin(bin);
        }
    }

    #[test]
    fn interner_assigns_dense_ids_in_insert_order() {
        let mut t: Interner<u64> = Interner::default();
        assert_eq!(t.get(&7), None);
        assert_eq!(t.insert(7, BinId(0)), 0);
        assert_eq!(t.insert(9, BinId(0)), 1);
        assert_eq!(t.get(&7), Some(0));
        assert_eq!(t.get(&9), Some(1));
        assert_eq!(t.keys()[1], 9);
        assert_eq!(t.keys(), &[7, 9]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.insertions(), 2);
    }

    #[test]
    fn compact_is_a_noop_while_keys_stay_fresh() {
        let mut t: Interner<u64> = Interner::default();
        t.insert(1, BinId(0));
        t.insert(2, BinId(0));
        assert!(t.compact(BinId(2), 2).is_none());
        assert_eq!(t.len(), 2);
        assert_eq!(t.evictions(), 0);
    }

    #[test]
    fn compact_evicts_expired_keys_and_renumbers_survivors() {
        let mut t: Interner<u64> = Interner::default();
        t.insert(10, BinId(0));
        t.insert(20, BinId(0));
        t.insert(30, BinId(0));
        t.stamp(1, BinId(5));
        // Keys 10 and 30 expired (last seen bin 0, expiry 2, now bin 5).
        let kept = t.compact(BinId(5), 2).expect("something must be evicted");
        assert_eq!(kept, vec![1]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&20), Some(0), "survivor renumbered to id 0");
        assert_eq!(t.get(&10), None);
        assert_eq!(t.get(&30), None);
        assert_eq!(t.evictions(), 2);
        // A re-appearing key is a fresh insertion.
        assert_eq!(t.insert(10, BinId(6)), 1);
        assert_eq!(t.insertions(), 4);
    }

    #[test]
    fn single_worker_auto_chunk_shrinks_to_cache_blocks() {
        // One worker: the cache-blocking size; more: the default.
        assert_eq!(resolve_chunk_for(1), SINGLE_WORKER_CHUNK_RECORDS);
        assert_eq!(resolve_chunk_for(4), DEFAULT_CHUNK_RECORDS);
    }

    #[test]
    fn any_expired_matches_compact_fast_path() {
        let mut t: Interner<u64> = Interner::default();
        t.insert(1, BinId(0));
        assert!(!t.any_expired(BinId(2), 2));
        assert!(t.any_expired(BinId(3), 2));
    }

    /// A table holding one key twice used to restore "fine" and then panic
    /// in the first compaction sweep that evicted one copy and kept the
    /// other (`expect("surviving key is indexed")`); now it cannot be
    /// constructed at all.
    #[test]
    fn from_parts_refuses_tables_that_break_the_index_invariant() {
        let twice = Interner::from_parts(vec![7u64, 7], vec![BinId(0), BinId(15)], 2, 0);
        assert_eq!(
            twice.unwrap_err(),
            SnapshotError::Corrupt("duplicate interned key")
        );
        let short = Interner::from_parts(vec![7u64, 8], vec![BinId(0)], 2, 0);
        assert_eq!(
            short.unwrap_err(),
            SnapshotError::Corrupt("intern table stamp count")
        );
        let mut ok = Interner::from_parts(vec![7u64, 8], vec![BinId(0), BinId(15)], 2, 0).unwrap();
        assert_eq!(ok.compact(BinId(20), 10), Some(vec![1]));
        assert_eq!(ok.get(&8), Some(0));
    }

    /// Hand-written arena snapshot bytes (the `snapshot_into` layout): one
    /// key list per shard table, the side table, the payload bytes, the
    /// watermark. Every table claims one insertion per key, no evictions.
    fn arena_bytes<S: ArenaSpec>(
        tables: &[Vec<S::Key>],
        sides: &[S::Side],
        payload: fn(&mut Writer, usize),
        watermark: u64,
    ) -> Vec<u8> {
        fn table<K: SnapshotKey>(w: &mut Writer, keys: &[K]) {
            w.seq(keys.len());
            for key in keys {
                key.write(w);
                w.u64(3);
            }
            w.u64(keys.len() as u64);
            w.u64(0);
        }
        let mut w = Writer::with_header(KIND_ANALYZER);
        for keys in tables {
            table(&mut w, keys);
        }
        table(&mut w, sides);
        payload(&mut w, sides.len());
        w.u64(watermark);
        w.into_bytes()
    }

    fn restore<S: ArenaSpec>(bytes: &[u8]) -> Result<EpochArena<S>, SnapshotError> {
        let (_, mut r) = Reader::open(bytes).expect("header");
        let arena = EpochArena::restore_from(&mut r)?;
        assert!(r.is_exhausted(), "crafted bytes fully consumed");
        Ok(arena)
    }

    /// Well-formed bytes that describe a table the arena's own invariants
    /// forbid are refused — for either spec, since there is one codec.
    fn restore_refuses_forbidden_tables<S: ArenaSpec>(
        key: S::Key,
        side: S::Side,
        payload: fn(&mut Writer, usize),
    ) {
        let home = key.shard();
        let tables = |shard: usize, keys: Vec<S::Key>| {
            let mut tables = vec![Vec::new(); NUM_SHARDS];
            tables[shard] = keys;
            tables
        };
        let bytes = |tables: &[Vec<S::Key>], sides: &[S::Side], watermark: u64| {
            arena_bytes::<S>(tables, sides, payload, watermark)
        };

        // The honest file restores, and compacts without incident.
        let mut arena = restore::<S>(&bytes(&tables(home, vec![key]), &[side], 2)).expect("valid");
        assert_eq!(arena.stats().interned, 2);
        assert_eq!(arena.stats().bin_insertions, 0);
        arena.compact(BinId(100), 10);
        assert_eq!(arena.stats().interned, 0);

        let refused = |bytes: Vec<u8>| restore::<S>(&bytes).map(|_| ()).unwrap_err();
        assert_eq!(
            refused(bytes(&tables(home, vec![key, key]), &[side], 0)),
            SnapshotError::Corrupt("duplicate interned key"),
            "primary key twice"
        );
        assert_eq!(
            refused(bytes(&tables(home, vec![key]), &[side, side], 0)),
            SnapshotError::Corrupt("duplicate interned key"),
            "side twice"
        );
        assert_eq!(
            refused(bytes(
                &tables((home + 1) % NUM_SHARDS, vec![key]),
                &[side],
                0
            )),
            SnapshotError::Corrupt("interned key in wrong shard")
        );
        assert_eq!(
            refused(bytes(&tables(home, vec![key]), &[side], 3)),
            SnapshotError::Corrupt("insertion watermark above total")
        );
    }

    #[test]
    fn restore_refuses_forbidden_tables_for_both_specs() {
        let ip = |d: u8| Ipv4Addr::new(10, 0, 0, d);
        restore_refuses_forbidden_tables::<DelaySpec>(
            IpLink::new(ip(1), ip(2)),
            ProbeId(9),
            |w, probes| {
                for _ in 0..probes {
                    w.u32(64500);
                    w.u64(1);
                }
                w.u64(1);
            },
        );
        restore_refuses_forbidden_tables::<PatternSpec>(
            crate::forwarding::PatternKey {
                router: ip(1),
                dst: ip(9),
            },
            crate::forwarding::NextHop::Unresponsive,
            |_, _| {},
        );
    }

    /// Decode a generated spec into a traceroute record over a tiny
    /// address space, so links, probes, patterns and next hops collide
    /// across records, chunks and bins (and probe 0–4 × ASN 0–3 cycles
    /// make probes change ASN mid-bin). RTTs vary with `i`, so the order
    /// of a probe's samples within a link is visible in the output.
    fn record(i: usize, hops: &[Vec<u32>]) -> TracerouteRecord {
        TracerouteRecord {
            msm_id: MeasurementId(1),
            probe_id: ProbeId((i % 5) as u32),
            probe_asn: Asn(64000 + (i % 4) as u32),
            dst: Ipv4Addr::new(198, 51, 100, (i % 3) as u8),
            timestamp: SimTime(0),
            paris_id: 0,
            hops: hops
                .iter()
                .enumerate()
                .map(|(ttl, replies)| {
                    let reply = |&code: &u32| match code {
                        0 => Reply::TIMEOUT,
                        _ => Reply::new(
                            Ipv4Addr::new(10, 0, (code % 3) as u8, (code % 7) as u8),
                            f64::from(code % 11) * 0.7 + ttl as f64 * 0.1 + (i % 13) as f64 * 0.01,
                        ),
                    };
                    Hop::new(ttl as u8 + 1, replies.iter().map(reply).collect())
                })
                .collect(),
            destination_reached: true,
        }
    }

    /// Everything a chunking must leave untouched: the grouped output
    /// (`dump`, shard by shard in layout order), the intern tables — the
    /// snapshot bytes hold every key in dense-id order with its last-seen
    /// stamp, the counters and the side payload — and the stats.
    fn fingerprint<S: ArenaSpec>(
        arena: &EpochArena<S>,
        dump: fn(&EpochArena<S>) -> Vec<String>,
    ) -> (Vec<String>, Vec<u8>, IngestStats) {
        let mut w = Writer::default();
        arena.snapshot_into(&mut w);
        (dump(arena), w.into_bytes(), arena.stats())
    }

    /// Sanitize knobs tight enough that the tiny generated records trip
    /// every check.
    fn gate_cfg() -> DetectorConfig {
        DetectorConfig {
            sanitize_max_hops: 4,
            sanitize_max_inversion_ms: 20.0,
            ..DetectorConfig::default()
        }
    }

    /// One record per verdict the gate can reach besides `Clean`: loop,
    /// impossible RTT, hop overflow (three quarantines in a row — whole
    /// chunks of them at chunk sizes 1 and 3), duplicated hop (repaired),
    /// gross inversion.
    fn dirty_records() -> Vec<TracerouteRecord> {
        let looped = record(0, &[vec![1], vec![2], vec![1]]);
        let mut bad_rtt = record(1, &[vec![1], vec![2]]);
        bad_rtt.hops[1].replies[0].rtt_ms = Some(-1.0);
        let too_long = record(2, &[vec![1], vec![2], vec![3], vec![4], vec![5]]);
        let duplicated = record(3, &[vec![1, 1], vec![1], vec![2, 0]]);
        let mut inverted = record(4, &[vec![1], vec![2]]);
        inverted.hops[0].replies[0].rtt_ms = Some(50.0);
        let dirty = vec![looped, bad_rtt, too_long, duplicated, inverted];
        let mut gate = Gate::default();
        let admitted = |rec| gate.admit(rec, &gate_cfg()).map(|r| r.hops.len());
        let verdicts: Vec<_> = dirty.iter().map(admitted).collect();
        assert_eq!(verdicts, [None, None, None, Some(2), None]);
        dirty
    }

    /// The fused pass as `Analyzer::open_scatter` runs it, for one arena:
    /// per raw chunk of `chunk_records`, every record through the chunk's
    /// gate and the survivor into the chunk's writer; then both merges.
    fn run_gated<S: ArenaSpec>(
        arena: &mut EpochArena<S>,
        sanitizer: &mut Sanitizer,
        bin: BinId,
        records: &[TracerouteRecord],
        chunk_records: usize,
    ) {
        let (cfg, chunk_records) = (gate_cfg(), chunk_records.max(1));
        let chunks = records.len().div_ceil(chunk_records);
        let gated = arena.open_bin(chunks).zip(sanitizer.gates(chunks));
        for ((mut writer, gate), records) in gated.zip(records.chunks(chunk_records)) {
            writer.begin();
            for rec in records {
                if let Some(rec) = gate.admit(rec, &cfg) {
                    writer.record(rec);
                }
            }
        }
        sanitizer.merge();
        arena.finish_inline(bin);
    }

    /// The reference: filter the bin with the same gate, then scatter the
    /// survivors as one chunk.
    fn run_filtered<S: ArenaSpec>(
        arena: &mut EpochArena<S>,
        sanitizer: &mut Sanitizer,
        bin: BinId,
        records: &[TracerouteRecord],
    ) {
        let (clean, counts) = sanitize_records(records, &gate_cfg());
        sanitizer.close_bin(counts);
        arena.run_inline(bin, &clean, clean.len());
    }

    /// The chunk-order rule for one spec, sanitizer included: with tables
    /// warmed by `prefix`, running the dirty `bin` and then the
    /// all-quarantined `doomed` through the fused pass as raw chunks of
    /// 1, 3, 7 or everything is indistinguishable — grouped output, arena
    /// bytes, `IngestStats`, per-bin and cumulative `SanitizeStats` after
    /// each bin — from filtering first and scattering the survivors as
    /// one chunk. The warm-up bin as one chunk is what `build` does.
    fn chunk_order_is_invisible<S: ArenaSpec>(
        prefix: &[TracerouteRecord],
        bin: &[TracerouteRecord],
        doomed: &[TracerouteRecord],
        dump: fn(&EpochArena<S>) -> Vec<String>,
        case: &str,
    ) {
        let run = |chunk: Option<usize>| {
            let (mut arena, mut sanitizer) = (EpochArena::<S>::default(), Sanitizer::default());
            arena.run_inline(BinId(0), prefix, prefix.len());
            let mut seen = vec![(fingerprint(&arena, dump), sanitizer.stats())];
            for (b, records) in [(1, bin), (2, doomed)] {
                match chunk {
                    Some(chunk) => run_gated(&mut arena, &mut sanitizer, BinId(b), records, chunk),
                    None => run_filtered(&mut arena, &mut sanitizer, BinId(b), records),
                }
                seen.push((fingerprint(&arena, dump), sanitizer.stats()));
            }
            seen
        };
        let want = run(None);
        let mut built = EpochArena::<S>::default();
        built.build(prefix);
        assert_eq!(
            fingerprint(&built, dump),
            want[0].0,
            "build ≠ one chunk: {case}"
        );
        let (after_bin, after_doomed) = (want[1].1, want[2].1);
        assert!(after_bin.bin_quarantined >= 4 && after_bin.bin_repaired >= 1);
        assert_eq!(after_doomed.bin_quarantined, doomed.len() as u64);
        assert_eq!(after_doomed.records, (bin.len() + doomed.len()) as u64);
        for chunk in [1, 3, 7, bin.len()] {
            assert_eq!(run(Some(chunk)), want, "chunk={chunk}: {case}");
        }
    }

    fn dump_links(arena: &SampleArena) -> Vec<String> {
        arena
            .links()
            .map(|l| format!("{} {} {:?}", l.link, l.as_count, l.samples()))
            .collect()
    }

    fn dump_patterns(arena: &PatternArena) -> Vec<String> {
        arena
            .patterns()
            .map(|p| format!("{:?} {:?}", p.key, p.iter().collect::<Vec<_>>()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The chunk-order determinism rule, at the level it is
        /// implemented: one arena, both specs. (The shim does not shrink;
        /// a failure prints the generated specs, which reproduce it.)
        #[test]
        fn prop_chunk_order_is_invisible_for_both_specs(
            prefix in prop::collection::vec(
                prop::collection::vec(prop::collection::vec(0u32..9, 0..5), 0..5),
                0..8,
            ),
            bin in prop::collection::vec(
                prop::collection::vec(prop::collection::vec(0u32..9, 0..5), 0..5),
                0..24,
            ),
            hot in 0usize..2 * pinpoint_stats::RADIX_MIN_KEYS,
        ) {
            let case = format!("prefix={prefix:?} bin={bin:?} hot={hot}");
            let records = |specs: &[Vec<Vec<u32>>], offset: usize| -> Vec<TracerouteRecord> {
                specs.iter().enumerate().map(|(i, hops)| record(i + offset, hops)).collect()
            };
            // `hot` more records re-trace one link: enough of them and its
            // shard groups with the stable radix sort, where only gather
            // order keeps a probe's samples in record order.
            // The bin opens on the dirty records — loops, duplicated hops
            // and more arise among the generated ones too (eight addresses)
            // — and is followed by a bin with no survivor at all.
            let (prefix, mut bin) = (records(&prefix, 0), [dirty_records(), records(&bin, 2)].concat());
            bin.extend((0..hot).map(|i| record(i, &[vec![1, 1], vec![5]])));
            let doomed = vec![dirty_records().swap_remove(0); 4];
            chunk_order_is_invisible::<DelaySpec>(&prefix, &bin, &doomed, dump_links, &case);
            chunk_order_is_invisible::<PatternSpec>(&prefix, &bin, &doomed, dump_patterns, &case);
        }
    }
}
