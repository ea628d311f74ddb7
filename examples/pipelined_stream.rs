//! Cross-bin pipelined execution walk-through: overlapping bin *n+1*'s
//! ingestion with bin *n*'s analysis on one worker herd.
//!
//! The deployment analyzes every hour of traceroutes continuously, so
//! wall-clock throughput is set by the serial chain *ingest bin → analyze
//! bin → ingest next bin*. The depth-2 pipelined executor breaks that
//! chain: push bins into `Analyzer::session(2)` and each push runs the
//! *previous* bin's delay + forwarding shard jobs concurrently with the
//! pushed bin's scatter chunks, as one two-lane wave on the shared engine
//! pool. Reports come back strictly in bin order, one bin behind, and the
//! determinism contract extends to the overlap: output is
//! **byte-identical** to the serial schedule for any thread count, chunk
//! size, and pipeline depth — intern epochs only advance at the serial
//! merge fence between waves, and compaction sweeps drain the pipeline
//! first (the epoch fence).
//!
//! ```sh
//! cargo run --release --example pipelined_stream
//! ```

use pinpoint::core::{AnalysisSession, BinReport};
use pinpoint::model::BinId;
use pinpoint::scenarios::{steady, Scale};
use std::time::Instant;

fn main() {
    let case = steady::case_study(2015, Scale::Small);
    let (first, last) = (case.start_bin, BinId(case.start_bin.0 + 6));
    // Pre-materialize the window so the comparison below measures pure
    // engine scheduling, not the simulator re-entered between bins.
    let window = case.platform.collect_bins(first, last);
    println!(
        "steady scenario, Small scale: {} bins × ~{} records\n",
        window.len(),
        window[0].1.len()
    );

    let mut runs: Vec<(usize, f64, Vec<BinReport>)> = Vec::new();
    for depth in [1usize, 2] {
        let mut analyzer = case.analyzer();
        let mut reports = Vec::new();
        let t = Instant::now();
        {
            // Depth 1 = strictly serial bins; depth 2 = the two-lane
            // overlap. Same API either way.
            let mut session = analyzer.session(depth);
            for (bin, records) in &window {
                // At depth 2 this returns the PREVIOUS bin's report: the
                // pushed bin only scatters now and analyzes inside the
                // next push, overlapped with that push's ingestion.
                reports.extend(session.push_bin(*bin, records));
            }
            reports.extend(session.flush()); // the in-flight bin
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        println!(
            "depth {depth}: {:>8.2} ms for {} reports ({} delay + {} forwarding alarms)",
            ms,
            reports.len(),
            reports.iter().map(|r| r.delay_alarms.len()).sum::<usize>(),
            reports
                .iter()
                .map(|r| r.forwarding_alarms.len())
                .sum::<usize>(),
        );
        runs.push((depth, ms, reports));
    }

    // The executor's whole point: depth is a throughput knob, never a
    // semantics knob. Every report byte matches across depths.
    let (serial, overlapped) = (&runs[0].2, &runs[1].2);
    assert_eq!(serial.len(), overlapped.len());
    for (a, b) in serial.iter().zip(overlapped) {
        assert_eq!(a.bin, b.bin, "reports must stay in bin order");
        assert_eq!(a.delay_alarms, b.delay_alarms);
        assert_eq!(a.forwarding_alarms, b.forwarding_alarms);
        assert_eq!(a.link_stats, b.link_stats);
        assert_eq!(a.magnitudes, b.magnitudes);
    }
    println!(
        "\ndepth-2 output is byte-identical to depth-1; overlap speedup {:.2}x \
         (1-core machines overlap nothing — the win appears with real cores, \
         where scatter chunks fill workers idled by skewed shard jobs).",
        runs[0].1 / runs[1].1
    );
}
