//! The shared sharded-execution engine both detectors run on.
//!
//! The pieces of the sharded, allocation-lean, deterministic parallel
//! engine that are not specific to delay analysis, so both detectors (and
//! whole per-stream analyzers) ride the same machinery:
//!
//! * a fixed shard count ([`NUM_SHARDS`]) with *stable* shard assignment —
//!   [`shard_of_u64`] for keys that pack into a word (IP links),
//!   [`shard_of_hashed`] for arbitrary `Hash` keys (forwarding pattern
//!   keys) via the workspace's deterministic `FxHasher` — and the one
//!   [`ShardKey`] trait both sharded layers (intern tables, reference
//!   maps) are keyed through;
//! * the per-shard reference map with its last-seen eviction clock and
//!   snapshot codec ([`ReferenceShard`]), generic over key and reference;
//! * deterministic round-robin work splitting ([`round_robin`]);
//! * a scoped-thread job pool ([`run_jobs`]) that executes boxed shard
//!   jobs from *multiple* detectors on one set of workers, so the delay
//!   and forwarding shards of a bin interleave on the same cores instead
//!   of running as two separate thread herds.
//!
//! Determinism contract: a job must depend only on the state it owns plus
//! `(cfg, bin)`-derived inputs, and callers must merge job outputs in job
//! order (never completion order). Under that contract the thread count is
//! purely a throughput knob — the engine-parity tests prove it.

use crate::config::DetectorConfig;
use crate::snapshot::{Reader, SnapshotError, Writer};
use pinpoint_model::{BinId, FxHashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hash};

/// Number of state shards per detector. Fixed (not tied to the thread
/// count) so a key lives in the same shard no matter how many workers run,
/// and high enough to keep any realistic core count busy.
pub(crate) const NUM_SHARDS: usize = 32;

/// Resolve a `threads` knob (`0` = all available cores) into a worker
/// count, clamped to the range useful for shard-granular work. Every
/// consumer of the engine (both detectors, the analyzer, the stream
/// router) resolves through this one function so the fleet can never
/// silently run a different worker count than a solo analyzer configured
/// the same way.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    threads.clamp(1, NUM_SHARDS)
}

/// The shared reference-expiry clock: true when `last_seen` is more than
/// `expiry_bins` bins behind `now`. Both detectors' eviction sweeps use
/// this one boundary predicate so their aging semantics cannot drift.
pub(crate) fn reference_expired(now: BinId, last_seen: BinId, expiry_bins: usize) -> bool {
    now.0.saturating_sub(last_seen.0) > expiry_bins as u64
}

/// Stable shard assignment for word-packable keys: one SplitMix64 round.
/// Must not involve `RandomState` or anything process-seeded — determinism
/// across runs and thread counts depends on it.
pub(crate) fn shard_of_u64(key: u64) -> usize {
    (pinpoint_stats::SplitMix64::new(key).next_raw() % NUM_SHARDS as u64) as usize
}

/// Stable shard assignment for arbitrary hashable keys, via the
/// workspace's deterministic [`FxHasher`](pinpoint_model::hash::FxHasher).
pub(crate) fn shard_of_hashed<T: std::hash::Hash>(key: &T) -> usize {
    let h = BuildHasherDefault::<pinpoint_model::hash::FxHasher>::default().hash_one(key);
    (h % NUM_SHARDS as u64) as usize
}

/// A key with one fixed snapshot layout — the single codec every table
/// or map holding the key serializes it through.
pub(crate) trait SnapshotKey: Copy + Eq + Hash + Send + Sync {
    /// Append the key's bytes.
    fn write(&self, w: &mut Writer);
    /// Read one key back.
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapshotError>;
}

/// A snapshot key with a stable home shard: what the per-shard intern
/// tables and the per-shard reference maps are both keyed by.
pub(crate) trait ShardKey: SnapshotKey + Ord {
    /// The shard this key lives in, on every run and thread count.
    fn shard(&self) -> usize;
}

/// One key's smoothed reference plus the last bin it was observed in —
/// the eviction clock.
#[derive(Debug)]
pub(crate) struct ReferenceEntry<R> {
    pub(crate) reference: R,
    pub(crate) last_seen: BinId,
}

/// One shard's slice of a detector's reference state.
#[derive(Debug)]
pub(crate) struct ReferenceShard<K, R> {
    pub(crate) references: FxHashMap<K, ReferenceEntry<R>>,
}

impl<K, R> Default for ReferenceShard<K, R> {
    fn default() -> Self {
        ReferenceShard {
            references: FxHashMap::default(),
        }
    }
}

impl<K: ShardKey, R> ReferenceShard<K, R> {
    /// Drop references whose key has not been observed for longer than
    /// the configured expiry. Keys churn constantly in real traceroute
    /// feeds (paths move, targets retire); without eviction the per-shard
    /// maps grow without bound — and a link that died mid-warm-up would
    /// hold its warm-up buffer forever. Runs once per bin per shard, on
    /// the shard's own worker — deterministic for any thread count.
    pub(crate) fn evict(&mut self, bin: BinId, cfg: &DetectorConfig) {
        self.references
            .retain(|_, e| !reference_expired(bin, e.last_seen, cfg.reference_expiry_bins));
    }

    /// Serialize the shard sorted by key (the map iterates in hash
    /// order, which is not stable): key, last-seen bin, then the
    /// reference through `write`.
    pub(crate) fn snapshot_into(&self, w: &mut Writer, write: impl Fn(&R, &mut Writer)) {
        let mut entries: Vec<(&K, &ReferenceEntry<R>)> = self.references.iter().collect();
        entries.sort_by_key(|(key, _)| **key);
        w.seq(entries.len());
        for (key, e) in entries {
            key.write(w);
            w.u64(e.last_seen.0);
            write(&e.reference, w);
        }
    }

    /// Rebuild shard `idx` from [`ReferenceShard::snapshot_into`] bytes,
    /// refusing a key whose home is another shard.
    pub(crate) fn restore_from(
        r: &mut Reader<'_>,
        idx: usize,
        read: impl Fn(&mut Reader<'_>) -> Result<R, SnapshotError>,
    ) -> Result<Self, SnapshotError> {
        let mut shard = ReferenceShard::default();
        for _ in 0..r.seq()? {
            let key = K::read(r)?;
            if key.shard() != idx {
                return Err(SnapshotError::Corrupt("reference in wrong shard"));
            }
            let last_seen = BinId(r.u64()?);
            let reference = read(r)?;
            shard.references.insert(
                key,
                ReferenceEntry {
                    reference,
                    last_seen,
                },
            );
        }
        Ok(shard)
    }
}

/// Deal `items` into `ways` buckets round-robin, preserving order within
/// each bucket. Deterministic: bucket `w` gets items `w, w+ways, …`.
pub(crate) fn round_robin<T>(items: impl IntoIterator<Item = T>, ways: usize) -> Vec<Vec<T>> {
    let ways = ways.max(1);
    let mut out: Vec<Vec<T>> = (0..ways).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        out[i % ways].push(item);
    }
    out
}

/// One unit of shard work: owns its slice of detector state (handed out by
/// `&mut` — no locks) and writes its result into a caller-provided slot.
pub(crate) type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

/// The bundles-and-slots skeleton every staged detector shares: per-worker
/// shard bundles going in, one output slot per bundle coming back. Holds
/// the two invariants of the determinism contract in one place — each
/// bundle becomes exactly one job ([`ShardStage::jobs`] consumes the
/// bundles, so it runs at most once per stage), and outputs are read back
/// in job order, never completion order ([`ShardStage::into_outputs`]).
pub(crate) struct ShardStage<B, O> {
    bundles: Vec<B>,
    outputs: Vec<Option<O>>,
}

impl<B, O> ShardStage<B, O> {
    /// Stage the dealt bundles.
    pub(crate) fn new(bundles: Vec<B>) -> Self {
        ShardStage {
            bundles,
            outputs: Vec::new(),
        }
    }

    /// One boxed job per bundle, each running `run` and writing into its
    /// own output slot.
    pub(crate) fn jobs<'s, F>(&'s mut self, run: F) -> Vec<Job<'s>>
    where
        B: Send + 's,
        O: Send + 's,
        F: Fn(B) -> O + Copy + Send + 's,
    {
        let bundles = std::mem::take(&mut self.bundles);
        self.outputs = (0..bundles.len()).map(|_| None).collect();
        bundles
            .into_iter()
            .zip(self.outputs.iter_mut())
            .map(|(bundle, slot)| {
                Box::new(move || {
                    *slot = Some(run(bundle));
                }) as Job<'s>
            })
            .collect()
    }

    /// The executed jobs' outputs, in job order.
    pub(crate) fn into_outputs(self) -> impl Iterator<Item = O> {
        self.outputs.into_iter().flatten()
    }
}

/// Run `jobs` on `threads` scoped workers.
///
/// Jobs are dealt to workers round-robin by index and each worker runs its
/// share *in order*, so which OS thread executes a job is a pure function
/// of `(job index, thread count)` — nothing is work-stolen, nothing races.
/// With `threads <= 1` everything runs inline on the caller's thread (no
/// spawn overhead, identical results); with fewer jobs than workers only
/// `jobs.len()` threads are spawned (an empty round-robin queue is a
/// spawn+join for nothing).
pub(crate) fn run_jobs(jobs: Vec<Job<'_>>, threads: usize) {
    if threads <= 1 || jobs.len() <= 1 {
        for job in jobs {
            job();
        }
        return;
    }
    let workers = threads.min(jobs.len());
    let queues = round_robin(jobs, workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queues
            .into_iter()
            .map(|queue| {
                scope.spawn(move || {
                    for job in queue {
                        job();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("engine worker panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_deterministic_and_complete() {
        let buckets = round_robin(0..10, 3);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0], vec![0, 3, 6, 9]);
        assert_eq!(buckets[1], vec![1, 4, 7]);
        assert_eq!(buckets[2], vec![2, 5, 8]);
        // Degenerate ways.
        assert_eq!(round_robin(0..3, 0).len(), 1);
    }

    #[test]
    fn shard_assignments_are_stable_and_in_range() {
        for k in 0..1000u64 {
            let s = shard_of_u64(k);
            assert!(s < NUM_SHARDS);
            assert_eq!(s, shard_of_u64(k));
        }
        let key = ("10.0.0.1".parse::<std::net::Ipv4Addr>().unwrap(), 7u32);
        assert_eq!(shard_of_hashed(&key), shard_of_hashed(&key));
        assert!(shard_of_hashed(&key) < NUM_SHARDS);
    }

    #[test]
    fn run_jobs_executes_everything_once_per_thread_count() {
        for threads in [1usize, 2, 3, 8] {
            let slots: Vec<std::sync::Mutex<usize>> =
                (0..10).map(|_| std::sync::Mutex::new(0)).collect();
            let jobs: Vec<Job> = slots
                .iter()
                .map(|slot| Box::new(move || *slot.lock().unwrap() += 1) as Job)
                .collect();
            run_jobs(jobs, threads);
            for slot in &slots {
                assert_eq!(*slot.lock().unwrap(), 1, "threads={threads}");
            }
        }
    }
}
