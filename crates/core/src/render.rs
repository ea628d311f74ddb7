//! Deterministic JSON rendering of reports and counters.
//!
//! The live service's reporter thread renders every emitted
//! [`BinReport`] / [`FleetReport`] **once** into an immutable cached
//! string; the offline scenario harness renders through the same
//! functions, so "daemon output is byte-identical to the offline run"
//! reduces to comparing two strings. Everything funnels through
//! [`pinpoint_model::json::Value`] — objects are `BTreeMap`s, so key
//! order is deterministic by construction; the only map in a report
//! with nondeterministic iteration order ([`BinReport::link_stats`], a
//! `HashMap`) is sorted by canonical link before emission. Sequences
//! that carry a meaningful order (alarms strongest-first, magnitudes in
//! ascending ASN, streams in [`crate::stream::StreamId`] order) render
//! as arrays and keep it.
//!
//! Floats go through Rust's shortest-roundtrip `f64` formatting (stable
//! across platforms and thread counts); non-finite values render as
//! `null` like most JSON encoders.

use crate::aggregate::{AsMagnitude, Element, EventKind, FleetEvent};
use crate::diffrtt::{DelayAlarm, Direction, LinkStat};
use crate::forwarding::ForwardingAlarm;
use crate::graph::{AlarmGraph, Component};
use crate::ingest::IngestStats;
use crate::pipeline::BinReport;
use crate::sanitize::SanitizeStats;
use crate::stream::FleetReport;
use pinpoint_model::json::Value;
use pinpoint_model::{Asn, IpLink};
use pinpoint_stats::ConfidenceInterval;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn num(n: f64) -> Value {
    Value::Number(n)
}

fn count(n: usize) -> Value {
    Value::Number(n as f64)
}

fn ip(addr: Ipv4Addr) -> Value {
    Value::String(addr.to_string())
}

fn interval(ci: &ConfidenceInterval) -> Value {
    Value::object(vec![
        ("lower", num(ci.lower)),
        ("median", num(ci.median)),
        ("upper", num(ci.upper)),
        ("n", count(ci.n)),
    ])
}

fn link(l: IpLink) -> Value {
    Value::object(vec![("near", ip(l.near)), ("far", ip(l.far))])
}

/// One delay-change alarm (§4), CI bounds included.
pub fn delay_alarm(a: &DelayAlarm) -> Value {
    Value::object(vec![
        ("link", link(a.link)),
        ("bin", num(a.bin.0 as f64)),
        ("observed", interval(&a.observed)),
        ("reference", interval(&a.reference)),
        ("deviation", num(a.deviation)),
        ("median_shift_ms", num(a.median_shift_ms())),
        (
            "direction",
            Value::String(
                match a.direction {
                    Direction::Increase => "increase",
                    Direction::Decrease => "decrease",
                }
                .to_string(),
            ),
        ),
    ])
}

/// One forwarding anomaly (§5) with its per-next-hop responsibilities.
pub fn forwarding_alarm(a: &ForwardingAlarm) -> Value {
    Value::object(vec![
        ("router", ip(a.router)),
        ("dst", ip(a.dst)),
        ("bin", num(a.bin.0 as f64)),
        ("rho", num(a.rho)),
        (
            "responsibilities",
            Value::Array(
                a.responsibilities
                    .iter()
                    .map(|(hop, r)| {
                        Value::object(vec![
                            ("next_hop", Value::String(hop.to_string())),
                            ("responsibility", num(*r)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Per-AS severities and magnitudes (§6), ascending ASN.
pub fn magnitudes(map: &BTreeMap<Asn, AsMagnitude>) -> Value {
    Value::Array(
        map.iter()
            .map(|(asn, m)| {
                Value::object(vec![
                    ("asn", num(f64::from(asn.0))),
                    ("delay_severity", num(m.delay_severity)),
                    ("forwarding_severity", num(m.forwarding_severity)),
                    ("delay_magnitude", num(m.delay_magnitude)),
                    ("forwarding_magnitude", num(m.forwarding_magnitude)),
                ])
            })
            .collect(),
    )
}

fn streams(set: &std::collections::BTreeSet<usize>) -> Value {
    Value::Array(set.iter().map(|s| count(*s)).collect())
}

fn component(c: &Component) -> Value {
    Value::object(vec![
        (
            "nodes",
            Value::Array(c.nodes.iter().map(|a| ip(*a)).collect()),
        ),
        ("edges", count(c.edges.len())),
        (
            "forwarding_flagged",
            Value::Array(c.forwarding_flagged.iter().map(|a| ip(*a)).collect()),
        ),
        ("streams", streams(&c.streams)),
    ])
}

/// The alarm graph (Fig. 8 / Fig. 12): every delay edge, every
/// forwarding-flagged router, and the connected components.
pub fn alarm_graph(g: &AlarmGraph) -> Value {
    Value::object(vec![
        (
            "edges",
            Value::Array(
                g.edges()
                    .iter()
                    .map(|e| {
                        Value::object(vec![
                            ("a", ip(e.a)),
                            ("b", ip(e.b)),
                            ("median_shift_ms", num(e.median_shift_ms)),
                            ("deviation", num(e.deviation)),
                            ("streams", streams(&e.streams)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "forwarding_flagged",
            Value::Array(g.forwarding_flagged().map(ip).collect()),
        ),
        (
            "components",
            Value::Array(g.components().iter().map(component).collect()),
        ),
    ])
}

/// One fleet-level event (empathy cluster) — the `/events/{id}` body.
pub fn event(e: &FleetEvent) -> Value {
    let kind = match e.kind {
        EventKind::DelayChange => "delay_change",
        EventKind::ForwardingLoss => "forwarding_loss",
        EventKind::ForwardingGain => "forwarding_gain",
    };
    let (blamed_kind, blamed_value) = match e.blamed {
        Element::As(asn) => ("as", Value::Number(f64::from(asn.0))),
        Element::Interface(addr) => ("interface", ip(addr)),
    };
    Value::object(vec![
        ("id", num(e.id as f64)),
        ("start", num(e.start.0 as f64)),
        ("end", num(e.end.0 as f64)),
        ("duration_bins", num(e.duration() as f64)),
        ("status", Value::String(e.status.as_str().to_string())),
        (
            "blamed",
            Value::object(vec![
                ("kind", Value::String(blamed_kind.to_string())),
                ("value", blamed_value),
                ("shares", count(e.blamed_shares)),
            ]),
        ),
        (
            "asns",
            Value::Array(e.asns.iter().map(|a| num(f64::from(a.0))).collect()),
        ),
        (
            "interfaces",
            Value::Array(e.interfaces.iter().map(|a| ip(*a)).collect()),
        ),
        ("streams", streams(&e.streams)),
        ("delay_alarms", count(e.delay_alarms)),
        ("forwarding_alarms", count(e.forwarding_alarms)),
        ("peak_delay", num(e.peak_delay)),
        ("peak_forwarding", num(e.peak_forwarding)),
        ("severity", num(e.severity)),
        ("kind", Value::String(kind.to_string())),
        (
            "merged_into",
            e.merged_into.map_or(Value::Null, |id| num(id as f64)),
        ),
    ])
}

/// The `/events` listing: ranked events plus open/closed counts.
pub fn events(list: &[FleetEvent]) -> Value {
    let open = list.iter().filter(|e| e.is_open()).count();
    Value::object(vec![
        ("events", Value::Array(list.iter().map(event).collect())),
        ("open", count(open)),
        ("closed", count(list.len() - open)),
        ("total", count(list.len())),
    ])
}

fn link_stats(stats: &std::collections::HashMap<IpLink, LinkStat>) -> Value {
    // The one HashMap in a report: sort by canonical (near, far) so the
    // rendering is byte-stable regardless of hash iteration order.
    let mut rows: Vec<(&IpLink, &LinkStat)> = stats.iter().collect();
    rows.sort_by_key(|(l, _)| (l.near, l.far));
    Value::Array(
        rows.into_iter()
            .map(|(l, s)| {
                Value::object(vec![
                    ("near", ip(l.near)),
                    ("far", ip(l.far)),
                    ("ci", interval(&s.ci)),
                ])
            })
            .collect(),
    )
}

/// Render one [`BinReport`] — the full §4/§5/§6 product of a bin.
pub fn bin_report(r: &BinReport) -> Value {
    Value::object(vec![
        ("bin", num(r.bin.0 as f64)),
        ("records", count(r.records)),
        (
            "delay_alarms",
            Value::Array(r.delay_alarms.iter().map(delay_alarm).collect()),
        ),
        (
            "forwarding_alarms",
            Value::Array(r.forwarding_alarms.iter().map(forwarding_alarm).collect()),
        ),
        ("events", Value::Array(r.events.iter().map(event).collect())),
        ("link_stats", link_stats(&r.link_stats)),
        ("magnitudes", magnitudes(&r.magnitudes)),
    ])
}

/// Render one merged [`FleetReport`]: fleet totals, the per-stream
/// reports in [`crate::stream::StreamId`] order, and the merged
/// magnitude view.
pub fn fleet_report(r: &FleetReport) -> Value {
    Value::object(vec![
        ("bin", num(r.bin.0 as f64)),
        ("records", count(r.records())),
        ("delay_alarm_total", count(r.delay_alarms())),
        ("forwarding_alarm_total", count(r.forwarding_alarms())),
        ("events", Value::Array(r.events.iter().map(event).collect())),
        (
            "streams",
            Value::Array(r.streams.iter().map(bin_report).collect()),
        ),
        ("magnitudes", magnitudes(&r.magnitudes)),
    ])
}

/// Render the sanitizer counters (quarantine reasons + repairs).
pub fn sanitize_stats(s: &SanitizeStats) -> Value {
    Value::object(vec![
        ("bin_records", num(s.bin_records as f64)),
        ("bin_quarantined", num(s.bin_quarantined as f64)),
        ("bin_repaired", num(s.bin_repaired as f64)),
        ("records", num(s.records as f64)),
        ("quarantined", num(s.quarantined() as f64)),
        ("quarantined_loops", num(s.quarantined_loops as f64)),
        ("quarantined_rtt", num(s.quarantined_rtt as f64)),
        (
            "quarantined_inversions",
            num(s.quarantined_inversions as f64),
        ),
        ("quarantined_hops", num(s.quarantined_hops as f64)),
        ("repaired", num(s.repaired as f64)),
    ])
}

/// Render the interning-epoch counters.
pub fn ingest_stats(s: &IngestStats) -> Value {
    Value::object(vec![
        ("interned", count(s.interned)),
        ("bin_insertions", num(s.bin_insertions as f64)),
        ("insertions", num(s.insertions as f64)),
        ("evictions", num(s.evictions as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_model::BinId;
    use std::collections::HashMap;

    #[test]
    fn link_stats_render_sorted_regardless_of_insertion_order() {
        let mk = |a: &str, b: &str| IpLink::new(a.parse().unwrap(), b.parse().unwrap());
        let stat = LinkStat {
            ci: ConfidenceInterval {
                lower: 1.0,
                median: 2.0,
                upper: 3.0,
                n: 9,
            },
        };
        let mut one = HashMap::new();
        one.insert(mk("10.0.0.9", "10.0.0.2"), stat);
        one.insert(mk("10.0.0.1", "10.0.0.2"), stat);
        let mut two = HashMap::new();
        two.insert(mk("10.0.0.1", "10.0.0.2"), stat);
        two.insert(mk("10.0.0.9", "10.0.0.2"), stat);
        assert_eq!(link_stats(&one).to_string(), link_stats(&two).to_string());
        assert!(
            link_stats(&one).to_string().find("10.0.0.1").unwrap()
                < link_stats(&one).to_string().find("10.0.0.9").unwrap()
        );
    }

    #[test]
    fn empty_report_renders_stable_shape() {
        let report = BinReport {
            bin: BinId(7),
            delay_alarms: Vec::new(),
            forwarding_alarms: Vec::new(),
            link_stats: HashMap::new(),
            magnitudes: BTreeMap::new(),
            events: Vec::new(),
            records: 0,
        };
        assert_eq!(
            bin_report(&report).to_string(),
            "{\"bin\":7,\"delay_alarms\":[],\"events\":[],\
             \"forwarding_alarms\":[],\
             \"link_stats\":[],\"magnitudes\":[],\"records\":0}"
        );
    }
}
