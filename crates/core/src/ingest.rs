//! The shared, chunked, parallel ingestion front-end.
//!
//! Both detectors' record→row scatter passes — the front door of every
//! bin — run through the machinery in this module:
//!
//! * **Chunked parallel scatter.** A bin's records are split into
//!   fixed-size chunks ([`resolve_chunk`]); engine workers scatter each
//!   chunk into private per-(chunk, shard) row buffers, reading the
//!   persistent intern tables lock-free. Per-shard rows are then
//!   concatenated **in chunk order**, so the row sequence every shard
//!   sorts is exactly the sequence a single-threaded scatter would have
//!   produced — grouped output, and therefore every report, is
//!   byte-identical across thread counts and chunk sizes.
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
//! The two-wave protocol per bin (scatter-chunk jobs, then shard jobs)
//! is what `engine::run_jobs` executes: one worker herd serves the
//! scatter chunks of *every* detector — and, in a fleet, every stream —
//! at once, then every shard job.

use crate::engine;
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::{BinId, FxHashMap};
use std::hash::Hash;

/// Records per scatter chunk when `DetectorConfig::ingest_chunk_records`
/// is 0 ("auto"). Small enough that a realistic bin yields more chunks
/// than workers, large enough that per-chunk bookkeeping stays noise.
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

/// Resolve the `ingest_chunk_records` knob (0 = auto) into a chunk size.
pub fn resolve_chunk(chunk_records: usize) -> usize {
    if chunk_records == 0 {
        DEFAULT_CHUNK_RECORDS
    } else {
        chunk_records
    }
}

/// Chunk-size resolution with the worker count in hand: when the knob is
/// auto (`0`) and the pool has a single worker — where `engine::run_jobs`
/// already takes its no-thread inline path, no scoped workers spawned —
/// chunks shrink to the cache-blocking size
/// ([`SINGLE_WORKER_CHUNK_RECORDS`]). An explicitly pinned chunk size is
/// always honored, so the parity matrix's pathological chunkings still
/// exercise the same machinery on any machine. Purely a throughput knob:
/// output is byte-identical for every chunking.
pub fn resolve_chunk_for(chunk_records: usize, threads: usize) -> usize {
    if chunk_records == 0 && threads <= 1 {
        SINGLE_WORKER_CHUNK_RECORDS
    } else {
        resolve_chunk(chunk_records)
    }
}

/// Bit marking a row id as *pending*: a chunk-local index into the
/// chunk's new-key queue rather than a table slot. Patched to the final
/// dense id during the chunk-ordered gather.
pub(crate) const PENDING: u32 = 1 << 31;

/// Reserved row id for presence-only pattern rows (a pattern observed
/// with no next-hop packets). Sorts after every real id; never patched.
pub(crate) const SENTINEL: u32 = u32::MAX;

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
/// merge between waves or inside the id-owning shard's job, so the table
/// is read-mostly by construction.
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

    /// The epoch state a snapshot must carry: keys in dense-id order,
    /// their last-seen stamps, and the cumulative counters. Serializing
    /// the keys in this order is what lets [`Interner::from_parts`]
    /// reproduce identical dense-id assignment on restore.
    pub(crate) fn snapshot_parts(&self) -> (&[K], &[BinId], u64, u64) {
        (&self.keys, &self.last_seen, self.insertions, self.evictions)
    }

    /// Rebuild a table from [`Interner::snapshot_parts`] output: key `i`
    /// gets dense id `i`, exactly as the original insertion order did.
    pub(crate) fn from_parts(
        keys: Vec<K>,
        last_seen: Vec<BinId>,
        insertions: u64,
        evictions: u64,
    ) -> Self {
        debug_assert_eq!(keys.len(), last_seen.len());
        let index = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, i as u32))
            .collect();
        Interner {
            index,
            keys,
            last_seen,
            insertions,
            evictions,
        }
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

/// One arena's reusable scatter-chunk buffers plus the active count of
/// the current bin — the per-bin session bookkeeping both arenas share.
/// `reserve` appends (incremental feeding extends the same bin), reusing
/// buffers retained from earlier bins.
#[derive(Debug)]
pub(crate) struct ChunkPool<C> {
    chunks: Vec<C>,
    active: usize,
}

impl<C> Default for ChunkPool<C> {
    fn default() -> Self {
        ChunkPool {
            chunks: Vec::new(),
            active: 0,
        }
    }
}

impl<C: Default> ChunkPool<C> {
    /// Start a new bin: the next `reserve` overwrites from the start.
    pub(crate) fn begin_bin(&mut self) {
        self.active = 0;
    }

    /// Reserve `n` buffers for the current bin (appending to any already
    /// reserved), resetting each through `reset` before handing it out.
    pub(crate) fn reserve(&mut self, n: usize, mut reset: impl FnMut(&mut C)) -> &mut [C] {
        let start = self.active;
        self.active += n;
        if self.chunks.len() < self.active {
            self.chunks.resize_with(self.active, C::default);
        }
        let chunks = &mut self.chunks[start..start + n];
        for chunk in chunks.iter_mut() {
            reset(chunk);
        }
        chunks
    }

    /// The current bin's chunks, in scatter order.
    pub(crate) fn active(&self) -> &[C] {
        &self.chunks[..self.active]
    }

    /// The current bin's chunks, mutably (for the merge's patch tables).
    pub(crate) fn active_mut(&mut self) -> &mut [C] {
        &mut self.chunks[..self.active]
    }
}

/// Number of scatter chunks a record slice splits into.
pub(crate) fn chunk_count(records: usize, chunk_records: usize) -> usize {
    records.div_ceil(chunk_records.max(1))
}

/// Build one boxed scatter job per fixed-size record chunk: chunk `i`
/// gets records `[i·c, (i+1)·c)` and scatters them through `scatter`
/// against the shared read-only `view`. `chunks` must come from a
/// `ChunkPool::reserve` of [`chunk_count`] buffers.
pub(crate) fn chunk_jobs<'a, C: Send, V: Copy + Send + 'a>(
    chunks: &'a mut [C],
    records: &'a [TracerouteRecord],
    chunk_records: usize,
    view: V,
    scatter: fn(&mut C, &[TracerouteRecord], V),
) -> Vec<engine::Job<'a>> {
    let chunk_records = chunk_records.max(1);
    debug_assert_eq!(chunks.len(), chunk_count(records.len(), chunk_records));
    chunks
        .iter_mut()
        .zip(records.chunks(chunk_records))
        .map(|(chunk, records)| Box::new(move || scatter(chunk, records, view)) as engine::Job<'a>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn chunk_resolution_defaults_on_zero() {
        assert_eq!(resolve_chunk(0), DEFAULT_CHUNK_RECORDS);
        assert_eq!(resolve_chunk(7), 7);
    }

    #[test]
    fn single_worker_auto_chunk_shrinks_to_cache_blocks() {
        // Auto chunking on one worker: the cache-blocking size.
        assert_eq!(resolve_chunk_for(0, 1), SINGLE_WORKER_CHUNK_RECORDS);
        // Multi-worker auto keeps the default; pinned sizes are honored
        // everywhere (the parity matrix depends on it).
        assert_eq!(resolve_chunk_for(0, 4), DEFAULT_CHUNK_RECORDS);
        assert_eq!(resolve_chunk_for(7, 1), 7);
        assert_eq!(resolve_chunk_for(7, 4), 7);
    }

    #[test]
    fn any_expired_matches_compact_fast_path() {
        let mut t: Interner<u64> = Interner::default();
        t.insert(1, BinId(0));
        assert!(!t.any_expired(BinId(2), 2));
        assert!(t.any_expired(BinId(3), 2));
    }
}
