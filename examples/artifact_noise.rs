//! Measurement-artifact robustness walk-through: the AMS-IX outage
//! replayed under graded feed corruption.
//!
//! Real Atlas feeds are riddled with measurement artifacts — false links
//! and loops painted by per-flow load balancing, wrong-hop ICMP reply
//! attribution, duplicated and missing hops, probe clock skew. This
//! example injects each grade of the `scenarios::artifacts` sweep via
//! the deterministic `ArtifactModel`, replays the same ground-truth IXP
//! outage through the full analyzer, and reads back:
//!
//! * the sanitizer's counters (`Analyzer::sanitize_stats`) — how many
//!   records were quarantined per class vs repaired in place;
//! * the detection scores — outage-bin recall and settled false-alarm
//!   rate against the known truth bins, the same numbers CI gates.
//!
//! ```sh
//! cargo run --release --example artifact_noise
//! ```

use pinpoint::scenarios::artifacts::{self, NoiseGrade};

fn main() {
    let seed = 2015;
    let (first, last) = artifacts::outage_bins();
    println!(
        "AMS-IX outage replay, truth bins {first}–{last}, seed {seed}\n\
         grade    | recall (gate) | false alarms (gate) | quarantined (loops/rtt/invert/hops) | repaired"
    );
    for grade in NoiseGrade::ALL {
        let outcome = artifacts::evaluate(seed, grade);
        let s = &outcome.sanitize;
        println!(
            "{:<8} |  {:.2}  ({:.2}) |     {:.3}  ({:.2})   | {:>6} ({}/{}/{}/{})              | {:>6}",
            grade.label(),
            outcome.recall,
            grade.recall_gate(),
            outcome.false_alarm_rate,
            grade.false_alarm_gate(),
            s.quarantined(),
            s.quarantined_loops,
            s.quarantined_rtt,
            s.quarantined_inversions,
            s.quarantined_hops,
            s.repaired,
        );
        assert!(
            outcome.passes(),
            "{} grade failed its robustness gates",
            grade.label()
        );
    }
    println!("\nevery grade clears its robustness gates");
}
