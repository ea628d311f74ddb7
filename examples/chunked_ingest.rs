//! Incremental chunked ingestion walk-through: feeding a bin the way the
//! streaming Atlas API delivers it.
//!
//! The §8 deployment never sees a bin as one materialized `Vec` — results
//! trickle in. The session API makes that the native shape: open a bin
//! with `begin_bin`, hand over record slices with `ingest` as they arrive
//! (the session stages them in a reused buffer), and close with
//! `finish_bin`, which pushes the bin through the executor — its scatter
//! chunks run on the engine pool against the persistent intern tables.
//! Because per-shard rows concatenate in chunk (= arrival) order, the
//! report is **byte-identical** to a batch `process_bin` over the
//! concatenated records — slicing and chunking are invisible.
//!
//! The example also shows the interning epoch at work: the first bin
//! interns every link, probe, pattern, and next hop once; steady-state
//! bins perform zero intern-table insertions.
//!
//! ```sh
//! cargo run --release --example chunked_ingest
//! ```

use pinpoint::core::{AnalysisSession, DetectorConfig};
use pinpoint::model::BinId;
use pinpoint::scenarios::{steady, Scale};

fn main() {
    let case = steady::case_study(2015, Scale::Small);
    let mut cfg = DetectorConfig::fast_test();
    // Scatter chunk size: purely a throughput/latency knob — output is
    // byte-identical for any value (0 = auto).
    cfg.ingest_chunk_records = 64;

    println!(
        "steady scenario, Small scale: {} records/bin, chunk = {} records\n",
        case.platform.collect_bin(BinId(0)).len(),
        cfg.ingest_chunk_records
    );

    let mut incremental = pinpoint::core::Analyzer::new(cfg.clone(), case.mapper.clone());
    // Every `finish_bin` reports its own bin.
    let mut session = incremental.session(0);
    let mut batch = pinpoint::core::Analyzer::new(cfg, case.mapper.clone());

    println!(
        "{:>4} {:>7} {:>7} {:>8} {:>8} {:>14} {:>9}",
        "bin", "chunks", "records", "alarms", "links", "intern-inserts", "interned"
    );
    for bin in 0..4u64 {
        // The platform yields the bin as arrival-ordered record chunks —
        // what an async reader would hand the analyzer piece by piece.
        let chunks = case.platform.collect_bin_chunked(BinId(bin), 64);

        session.begin_bin(BinId(bin));
        for chunk in &chunks {
            session.ingest(chunk); // stage now, scatter + analyze at finish
        }
        let report = session.finish_bin().expect("every bin reports on finish");

        let stats = session.inner().ingest_stats();
        println!(
            "{bin:>4} {:>7} {:>7} {:>8} {:>8} {:>14} {:>9}",
            chunks.len(),
            report.records,
            report.delay_alarms.len() + report.forwarding_alarms.len(),
            report.link_stats.len(),
            stats.bin_insertions,
            stats.interned,
        );

        // The batch path over the concatenation must agree byte-for-byte.
        let merged: Vec<_> = chunks.into_iter().flatten().collect();
        let want = batch.process_bin(BinId(bin), &merged);
        assert_eq!(report.delay_alarms, want.delay_alarms);
        assert_eq!(report.forwarding_alarms, want.forwarding_alarms);
        assert_eq!(report.link_stats, want.link_stats);
        assert_eq!(report.magnitudes, want.magnitudes);
    }

    println!(
        "\nincremental == batch for every bin; bins 1+ re-interned nothing \
         (epoch persistence: known keys resolve lock-free, no insertions)."
    );
}
