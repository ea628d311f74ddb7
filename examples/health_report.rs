//! §8 "Internet Health Report": streaming near-real-time monitoring.
//!
//! Consumes the measurement platform's bin stream the way the deployed
//! system consumes the RIPE Atlas streaming API, printing a compact status
//! line per hour and full alarm details whenever an AS's magnitude crosses
//! a reporting threshold — the operator-facing view the paper ships.
//! It closes with the consolidated incident list and exits 1 when that
//! list is empty.
//!
//! ```sh
//! cargo run --release --example health_report
//! ```

use pinpoint::core::EventTable;
use pinpoint::scenarios::full;
use pinpoint::scenarios::runner::figure_ases;
use pinpoint::scenarios::Scale;

/// Report an AS when |magnitude| crosses this threshold.
const REPORT_THRESHOLD: f64 = 3.0;

fn main() {
    let mut case = full::case_study(2015, Scale::Small);
    case.cfg.event_threshold = REPORT_THRESHOLD;
    let watched = figure_ases(&case.landmarks);
    println!("Internet Health Report — streaming mode");
    println!("epoch: {} | watching {:?}\n", case.epoch_label, watched);

    let mut analyzer = case.analyzer();
    let mut table = EventTable::new();
    let mut incidents = 0;
    for (bin, records) in case.platform.stream(case.start_bin, case.end_bin) {
        let report = analyzer.process_bin(bin, &records);
        table.absorb(&report.events);

        // One status line per "hour" of stream time.
        let total_mag: f64 = report
            .magnitudes
            .values()
            .map(|m| m.delay_magnitude.abs() + m.forwarding_magnitude.abs())
            .sum();
        if bin.0 % 24 == 0 {
            println!(
                "[{bin}] {} traceroutes, {} links, background |mag| sum {:.1}",
                report.records,
                report.link_stats.len(),
                total_mag
            );
        }

        // Incident reporting.
        for (&asn, m) in &report.magnitudes {
            if !watched.contains(&asn) {
                continue;
            }
            if m.delay_magnitude.abs() > REPORT_THRESHOLD
                || m.forwarding_magnitude.abs() > REPORT_THRESHOLD
            {
                incidents += 1;
                println!(
                    "⚠ [{bin}] {asn}: delay mag {:+.1}, forwarding mag {:+.1} ({} delay / {} fwd alarms this bin)",
                    m.delay_magnitude,
                    m.forwarding_magnitude,
                    report.delay_alarms.len(),
                    report.forwarding_alarms.len()
                );
                for alarm in report.delay_alarms.iter().take(2) {
                    println!("    {alarm}");
                }
                for alarm in report.forwarding_alarms.iter().take(2) {
                    println!("    {alarm}");
                }
            }
        }
    }
    println!("\nstream complete: {incidents} AS-hours crossed the reporting threshold");

    // Consolidated incident report: the analyzer's own event channel,
    // folded bin by bin and ranked by severity (the operator triage
    // list, the same table `/events` serves). Co-incident ASes whose
    // alarms share path elements are one incident.
    println!("\n=== consolidated incidents (threshold {REPORT_THRESHOLD}) ===");
    let ranked = table.ranked();
    for event in ranked.iter().take(10) {
        println!("  {event}");
    }
    if ranked.is_empty() {
        eprintln!("no consolidated incident: the scenario's events went unreported");
        std::process::exit(1);
    }
}
