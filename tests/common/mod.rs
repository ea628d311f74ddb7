//! Helpers shared by the engine-parity integration tests.

use pinpoint::core::ingest::DEFAULT_CHUNK_RECORDS;
use pinpoint::core::{BinReport, DetectorConfig};
use pinpoint::model::records::TracerouteRecord;

/// Parse a parity-matrix environment variable.
///
/// Contract: unset means `0` — "let the engine decide" (all cores); any
/// other value must parse as a non-negative integer, and the engine's
/// output must be byte-for-byte identical for every value. A
/// value that does not parse is a harness misconfiguration (a typo'd CI
/// matrix would silently test nothing), so it fails loudly with the
/// contract instead of a bare `parse` panic.
fn matrix_var(name: &str, meaning: &str) -> usize {
    match std::env::var(name) {
        Ok(v) => parse_matrix_var(name, &v, meaning),
        Err(std::env::VarError::NotPresent) => 0,
        Err(std::env::VarError::NotUnicode(v)) => {
            panic!("{name}={v:?} is not valid unicode — cannot be a {meaning}")
        }
    }
}

/// The value parser behind [`matrix_var`], split out so the failure mode
/// itself is testable without mutating process-global environment state
/// (tests in one binary run concurrently).
pub fn parse_matrix_var(name: &str, value: &str, meaning: &str) -> usize {
    value.trim().parse().unwrap_or_else(|_| {
        panic!(
            "{name}={value:?} is not a valid {meaning}: set {name} to 0 (use all cores) \
             or a positive integer, e.g. `{name}=4 cargo test`"
        )
    })
}

/// Worker-thread count under test: `PINPOINT_THREADS` when set (the CI
/// matrix exports 1/2/4/8 on a real multi-core runner), otherwise 0
/// ("all cores"). Byte-for-byte parity must hold for every value.
pub fn threads_from_env() -> usize {
    matrix_var("PINPOINT_THREADS", "thread count")
}

/// The parity config: `fast_test` with the matrix-selected thread count.
pub fn parity_config() -> DetectorConfig {
    let mut cfg = DetectorConfig::fast_test();
    cfg.threads = threads_from_env();
    cfg
}

/// Repeat `records` cyclically past two multi-worker chunks, so the bin
/// spans several auto chunks on every thread count (3 at 512 records, 9
/// at the one-worker 128). An empty bin stays empty.
pub fn padded(records: &[TracerouteRecord]) -> Vec<TracerouteRecord> {
    records
        .iter()
        .cycle()
        .take(2 * DEFAULT_CHUNK_RECORDS + 1)
        .cloned()
        .collect()
}

/// Demand two bin reports be byte-for-byte identical — same alarms in the
/// same order, same link statistics, same AS magnitudes.
pub fn assert_reports_identical(a: &BinReport, b: &BinReport, ctx: &str) {
    assert_eq!(a.bin, b.bin, "{ctx}: bin");
    assert_eq!(a.records, b.records, "{ctx}: record count");
    assert_eq!(a.delay_alarms, b.delay_alarms, "{ctx}: delay alarms");
    assert_eq!(
        a.forwarding_alarms, b.forwarding_alarms,
        "{ctx}: forwarding alarms"
    );
    assert_eq!(a.link_stats, b.link_stats, "{ctx}: link stats");
    assert_eq!(a.magnitudes, b.magnitudes, "{ctx}: magnitudes");
    assert_eq!(a.events, b.events, "{ctx}: event deltas");
}
