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
//! * one staged job per shard task with one output slot per job
//!   ([`ShardStage`]);
//! * a scoped-thread job pool ([`run_jobs`]) that executes boxed jobs
//!   from *multiple* detectors on one set of workers — the calling thread
//!   among them — each claiming the next job from one atomic index, so
//!   the delay and forwarding shards of a bin interleave on the same cores
//!   and a wave ends when its work does.
//!
//! Determinism contract: a job must depend only on the state it owns plus
//! `(cfg, bin)`-derived inputs, and callers must merge job outputs in job
//! order (never completion order). Placement is then invisible — which
//! worker claims a job never reaches the output — and the thread count is
//! purely a throughput knob; the engine-parity tests prove it.

use crate::config::DetectorConfig;
use crate::snapshot::{Reader, SnapshotError, Writer};
use pinpoint_model::{BinId, FxHashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hash};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

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
    // `available_parallelism` re-reads the cgroup limits and allocates on
    // every call, and a session opens per `process_bin`: ask once per
    // process.
    static ALL_CORES: OnceLock<usize> = OnceLock::new();
    let threads = if threads == 0 {
        *ALL_CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
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
///
/// Reads the hasher's *pre-finish* state: `FxHasher::finish` rotates the
/// state left by 26 bits so hash tables index on mixed bits, and this
/// rotates it back. Two reasons: every key stays in the shard snapshot
/// format 2 pinned it to, and a shard's own intern table then indexes on
/// bits other than the five that chose the shard.
pub(crate) fn shard_of_hashed<T: std::hash::Hash>(key: &T) -> usize {
    let finished = BuildHasherDefault::<pinpoint_model::hash::FxHasher>::default().hash_one(key);
    (finished.rotate_right(26) % NUM_SHARDS as u64) as usize
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
    /// hold its warm-up buffer forever. Runs once per bin per shard, in
    /// the shard's own job — deterministic for any thread count.
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

/// One unit of shard work: owns its slice of detector state (handed out by
/// `&mut` — no locks) and writes its result into a caller-provided slot.
pub(crate) type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

/// The tasks-and-slots skeleton every staged detector shares: one shard
/// task per job going in, one output slot per job coming back. Holds the
/// two invariants of the determinism contract in one place — each task
/// becomes exactly one job ([`ShardStage::jobs`] consumes the tasks, so it
/// runs at most once per stage), and outputs are read back in job order,
/// never completion order ([`ShardStage::into_outputs`]). Which worker
/// claims which job therefore never reaches the output.
pub(crate) struct ShardStage<T, O> {
    tasks: Vec<T>,
    outputs: Vec<Option<O>>,
}

impl<T, O> ShardStage<T, O> {
    /// Stage one task per job.
    pub(crate) fn new(tasks: Vec<T>) -> Self {
        ShardStage {
            tasks,
            outputs: Vec::new(),
        }
    }

    /// One boxed job per task, each running `run` and writing into its
    /// own output slot.
    pub(crate) fn jobs<'s, F>(&'s mut self, run: F) -> Vec<Job<'s>>
    where
        T: Send + 's,
        O: Send + 's,
        F: Fn(T) -> O + Copy + Send + 's,
    {
        let tasks = std::mem::take(&mut self.tasks);
        self.outputs = (0..tasks.len()).map(|_| None).collect();
        tasks
            .into_iter()
            .zip(self.outputs.iter_mut())
            .map(|(task, slot)| {
                Box::new(move || {
                    *slot = Some(run(task));
                }) as Job<'s>
            })
            .collect()
    }

    /// The executed jobs' outputs, in job order.
    pub(crate) fn into_outputs(self) -> impl Iterator<Item = O> {
        self.outputs.into_iter().flatten()
    }
}

/// Run `jobs` on up to `threads` workers: the calling thread and
/// `min(threads, jobs) − 1` scoped helpers, all claiming jobs from one
/// atomic index over the job vector until it runs out.
///
/// A worker that finishes early claims the next job instead of idling
/// while a slower one works through a fixed share, so a wave lasts as
/// long as its work, and the calling thread — already awake — starts at
/// once. Which thread runs a job is a race, and it is invisible: every
/// job writes only its own slot, and callers read the slots in job order
/// ([`ShardStage::into_outputs`]; the scatter merge walks chunks in chunk
/// order). With one worker, or at most one job, every job runs inline on
/// the calling thread in job order and nothing is spawned. A panicking
/// job makes `run_jobs` panic once every worker has stopped claiming —
/// the service's per-stage `catch_unwind` supervision relies on that.
pub(crate) fn run_jobs(jobs: Vec<Job<'_>>, threads: usize) {
    let workers = threads.min(jobs.len());
    if workers <= 1 {
        for job in jobs {
            job();
        }
        return;
    }
    #[cfg(test)]
    let order = claim_order::current();
    // A claimed index is owned by exactly one worker, so its slot's lock
    // is never contended; it only makes the hand-over safe.
    let slots: Vec<Mutex<Option<Job<'_>>>> =
        jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
    let next = AtomicUsize::new(0);
    let claim = || {
        // Relaxed: the index publishes no data. A job reaches its worker
        // through the slot's mutex, and its output reaches the caller
        // through the scope's join.
        let i = next.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        let i = order.job(i, slots.len());
        let slot = slots.get(i)?;
        let job = slot.lock().expect("a claim slot is never poisoned").take();
        Some(job.expect("every index is claimed once"))
    };
    let work = || {
        while let Some(job) = claim() {
            job();
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        #[cfg(test)]
        order.stall(&next, slots.len());
        work();
    });
}

/// Test-only adversarial claim orders. `run_jobs` reads the calling
/// thread's order once per call; production always claims naturally.
#[cfg(test)]
pub(crate) mod claim_order {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// How the claims of one `run_jobs` call map to jobs.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum ClaimOrder {
        /// Claim `i` runs job `i`.
        Natural,
        /// Claim `i` runs job `n − 1 − i`: the last job starts first.
        Reversed,
        /// The calling thread makes no claim until the helpers have
        /// claimed half the wave.
        Stalled,
    }

    thread_local! {
        static ORDER: Cell<ClaimOrder> = const { Cell::new(ClaimOrder::Natural) };
    }

    /// Run `f` with the calling thread's claim order set to `order`.
    pub(crate) fn with<R>(order: ClaimOrder, f: impl FnOnce() -> R) -> R {
        let outer = ORDER.replace(order);
        let out = f();
        ORDER.set(outer);
        out
    }

    pub(super) fn current() -> ClaimOrder {
        ORDER.get()
    }

    impl ClaimOrder {
        /// The job claim `claim` of `n` runs (past the end stays past it).
        pub(super) fn job(self, claim: usize, n: usize) -> usize {
            match self {
                ClaimOrder::Reversed if claim < n => n - 1 - claim,
                _ => claim,
            }
        }

        /// The calling thread's wait before its first claim.
        pub(super) fn stall(self, next: &AtomicUsize, n: usize) {
            if self == ClaimOrder::Stalled {
                while next.load(Ordering::Relaxed) < n.div_ceil(2) {
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Pattern keys live in the shard snapshot format 2 pinned them to: a
    /// restored snapshot refuses a key found in another shard, so moving
    /// one is a format change. The expected shards are those of the
    /// unrotated FxHash state that format 2 was written with.
    #[test]
    fn pattern_key_shards_are_pinned() {
        use crate::forwarding::PatternKey;
        use std::net::Ipv4Addr;
        const PINNED: [usize; 16] = [2, 25, 2, 25, 18, 20, 17, 23, 15, 18, 15, 18, 31, 1, 13, 16];
        for (i, want) in PINNED.into_iter().enumerate() {
            let (hi, lo) = ((i / 4) as u8, (i * 37 % 250) as u8);
            let key = PatternKey {
                router: Ipv4Addr::new(10, hi, lo, 1 + (i % 2) as u8),
                dst: Ipv4Addr::new(198, 51 + hi, lo, 1),
            };
            assert_eq!(shard_of_hashed(&key), want, "{key:?} left its shard");
        }
    }

    /// Counting jobs: job `i` bumps `counts[i]`; job `panic_at` panics.
    fn counting_jobs(counts: &[AtomicUsize], panic_at: Option<usize>) -> Vec<Job<'_>> {
        counts
            .iter()
            .enumerate()
            .map(|(i, count)| {
                Box::new(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                    assert_ne!(Some(i), panic_at, "job {i} panics");
                }) as Job
            })
            .collect()
    }

    #[test]
    fn run_jobs_runs_every_job_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            for n in [0usize, 1, 2, 5, 64] {
                let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                run_jobs(counting_jobs(&counts, None), threads);
                for (i, count) in counts.iter().enumerate() {
                    let runs = count.load(Ordering::Relaxed);
                    assert_eq!(runs, 1, "threads={threads} jobs={n}: job {i} ran {runs}×");
                }
            }
        }
    }

    /// A job's panic must reach the caller at every thread count — on the
    /// first job (the calling thread's usual first claim) and on the last
    /// (a helper's, whenever helpers run).
    #[test]
    fn run_jobs_propagates_a_job_panic() {
        for threads in [1usize, 2, 3, 8] {
            for panic_at in [0usize, 4] {
                let counts: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
                let jobs = counting_jobs(&counts, Some(panic_at));
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_jobs(jobs, threads)
                }));
                assert!(
                    outcome.is_err(),
                    "threads={threads}: job {panic_at} panicked, run_jobs returned"
                );
            }
        }
    }
}
