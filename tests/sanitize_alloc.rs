//! The sanitizer must not copy a bin, and a verdict must not allocate:
//! the record gate runs inside the scatter wave on reused scratch, so a
//! dirty record costs at most its own repair, never a deep copy of the
//! records around it. And a warm engine must not keep growing: a push of
//! a bin it has seen retains no more heap than the push before it.
//! Counted with a wrapping global allocator, which is why this file is
//! its own test binary and its tests take turns (nothing else may
//! allocate while a push is being counted). The allocation count runs on
//! `threads = 1` (the engine then runs every job inline on the calling
//! thread); the retained heap is checked at `PINPOINT_THREADS`.

#[allow(dead_code)]
mod common;

use pinpoint::core::aggregate::AsMapper;
use pinpoint::core::{Analyzer, DetectorConfig};
use pinpoint::model::records::{Hop, Reply, TracerouteRecord};
use pinpoint::model::{Asn, BinId, MeasurementId, ProbeId, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Heap allocations (fresh or grown) since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap bytes allocated and not yet freed.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Held by each test for its whole run, so no two count at once.
static SERIAL: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics and publish
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const RECORDS: usize = 5_000;
const HOPS: u8 = 8;

/// What a warm push of the clean bin may allocate at one thread: reports,
/// reference updates and sort buffers. Staging, grouping and
/// characterization buffers are all recycled, so a change that adds an
/// allocation here adds it to every bin.
const CLEAN_PUSH_ALLOCATIONS: u64 = 720;

fn clean_bin() -> Vec<TracerouteRecord> {
    (0..RECORDS)
        .map(|r| TracerouteRecord {
            msm_id: MeasurementId(1),
            probe_id: ProbeId(r as u32 % 50),
            probe_asn: Asn(64500 + r as u32 % 5),
            dst: Ipv4Addr::new(198, 51, 100, (r % 4) as u8),
            timestamp: SimTime(0),
            paris_id: 0,
            hops: (0..HOPS)
                .map(|h| {
                    let addr = Ipv4Addr::new(10, 0, h + 1, 1 + (r % 3) as u8);
                    let rtt = 3.0 * f64::from(h) + 2.0 + 0.1 * (r % 7) as f64;
                    Hop::new(h + 1, vec![Reply::new(addr, rtt); 3])
                })
                .collect(),
            destination_reached: true,
        })
        .collect()
}

/// Allocations made by the push of `bin` as bin 2, after two pushes of
/// the clean bin warmed every buffer and intern table.
fn third_push(cfg: &DetectorConfig, clean: &[TracerouteRecord], bin: &[TracerouteRecord]) -> u64 {
    let mapper = AsMapper::from_prefixes([("10.0.0.0/8".parse().unwrap(), Asn(64500))]);
    let mut analyzer = Analyzer::new(cfg.clone(), mapper);
    analyzer.process_bin(BinId(0), clean);
    analyzer.process_bin(BinId(1), clean);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = analyzer.process_bin(BinId(2), bin);
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(report.records, bin.len());
    assert_eq!(analyzer.sanitize_stats().bin_records, bin.len() as u64);
    assert_eq!(analyzer.ingest_stats().bin_insertions, 0, "warm tables");
    spent
}

#[test]
fn one_dirty_record_costs_a_constant_and_a_verdict_costs_nothing() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = DetectorConfig::fast_test();
    cfg.threads = 1;
    let unsanitized = DetectorConfig {
        sanitize: false,
        ..cfg.clone()
    };
    let clean = clean_bin();

    // One quarantined record (its first hop answers again at the end: a
    // loop) and, separately, one repaired record (its first hop
    // re-announced at the next TTL).
    let (mut looped, mut duplicated) = (clean.clone(), clean.clone());
    let first = looped[RECORDS / 2].hops[0].clone();
    looped[RECORDS / 2].hops.push(first.clone());
    duplicated[RECORDS / 2].hops.insert(1, first);

    let clean_cost = third_push(&cfg, &clean, &clean);
    let unsanitized_cost = third_push(&unsanitized, &clean, &clean);
    let looped_cost = third_push(&cfg, &clean, &looped);
    let duplicated_cost = third_push(&cfg, &clean, &duplicated);
    println!(
        "allocations per {RECORDS}-record push: clean {clean_cost}, sanitizer off \
         {unsanitized_cost}, one loop {looped_cost}, one duplicated hop {duplicated_cost}"
    );

    assert!(
        clean_cost <= CLEAN_PUSH_ALLOCATIONS,
        "a warm clean push allocated {clean_cost} times, budget {CLEAN_PUSH_ALLOCATIONS}"
    );
    // The verdict itself is free: judging 5 000 clean records allocates
    // nothing the unsanitized push does not.
    assert_eq!(
        clean_cost, unsanitized_cost,
        "inspecting clean records allocated"
    );
    // A dirty record is dropped, or repaired into one recycled record
    // (first use: its hop vector and one reply vector per hop) — a deep
    // copy of the bin would be RECORDS × (1 + HOPS) allocations.
    let slack = 2 * (1 + u64::from(HOPS));
    for (what, cost) in [("loop", looped_cost), ("duplicate", duplicated_cost)] {
        assert!(
            cost <= clean_cost + slack,
            "one {what} in {RECORDS} records cost {cost} allocations, clean bin {clean_cost}"
        );
    }
}

/// Threads of this process, where the OS lists them.
fn live_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(|tasks| tasks.count())
}

/// Heap bytes still allocated after `analyzer` pushes `bin` as `id`
/// (its report dropped). A scoped worker may still be freeing its
/// thread-locals when the scope that joined it returns, so the count is
/// read once the OS has reaped every worker the push started.
fn retained_after(analyzer: &mut Analyzer, id: u64, bin: &[TracerouteRecord]) -> usize {
    let threads = live_threads();
    drop(analyzer.process_bin(BinId(id), bin));
    let deadline = Instant::now() + Duration::from_secs(5);
    while live_threads() > threads && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    LIVE_BYTES.load(Ordering::Relaxed)
}

#[test]
fn warm_pushes_retain_no_more_heap() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = DetectorConfig::fast_test();
    cfg.threads = common::threads_from_env();
    let clean = clean_bin();
    let mapper = AsMapper::from_prefixes([("10.0.0.0/8".parse().unwrap(), Asn(64500))]);
    let mut analyzer = Analyzer::new(cfg, mapper);
    // Two pushes warm every buffer and intern table, as above. Which
    // worker claims which shard job is a race at more than one thread;
    // what the engine keeps must not depend on it.
    analyzer.process_bin(BinId(0), &clean);
    analyzer.process_bin(BinId(1), &clean);
    let before = retained_after(&mut analyzer, 2, &clean);
    let after = retained_after(&mut analyzer, 3, &clean);
    println!("heap retained after a warm push: {before} B, after the next: {after} B");
    assert!(
        after <= before,
        "a warm push of the same bin grew the retained heap: {before} B → {after} B"
    );
}
