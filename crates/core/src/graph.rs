//! The alarm graph and its connected components (Fig. 8 / Fig. 12).
//!
//! "We create a graph, where nodes are IP addresses and links are alarms
//! generated from differential RTTs between these IP addresses. Starting
//! from the K-root server, we see alarms with common IP addresses, and
//! obtain a connected component of all alarms connected to the K-root
//! server" (§7.1). Nodes touched by forwarding anomalies are flagged, as in
//! Fig. 12's red nodes.
//!
//! Components are computed with a union-find over alarm edges.

use crate::diffrtt::DelayAlarm;
use crate::forwarding::{ForwardingAlarm, NextHop};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// An edge of the alarm graph.
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmEdge {
    /// One endpoint.
    pub a: Ipv4Addr,
    /// Other endpoint.
    pub b: Ipv4Addr,
    /// |observed median − reference median| in ms — the Fig. 12 edge label.
    pub median_shift_ms: f64,
    /// The deviation d(Δ) of the strongest alarm on this pair.
    pub deviation: f64,
    /// Streams whose alarms contributed to this edge. A union graph
    /// merges duplicate cross-stream pairs into one edge but must not
    /// lose *who saw it* — the set accumulates across duplicates even
    /// when the weaker alarm's deviation is discarded. Solo graphs
    /// carry `{0}`.
    pub streams: BTreeSet<usize>,
}

/// A connected component of alarms.
#[derive(Debug, Clone, Default)]
pub struct Component {
    /// Member addresses.
    pub nodes: BTreeSet<Ipv4Addr>,
    /// Alarm edges inside the component.
    pub edges: Vec<AlarmEdge>,
    /// Addresses also implicated in forwarding anomalies (Fig. 12's red).
    pub forwarding_flagged: BTreeSet<Ipv4Addr>,
    /// Streams whose alarms contributed to any member edge or flag.
    pub streams: BTreeSet<usize>,
}

impl Component {
    /// Whether the component contains an address.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        self.nodes.contains(&addr)
    }

    /// Node degree within the component.
    pub fn degree(&self, addr: Ipv4Addr) -> usize {
        self.edges
            .iter()
            .filter(|e| e.a == addr || e.b == addr)
            .count()
    }
}

/// Union-find over IP addresses.
#[derive(Debug, Default)]
struct UnionFind {
    parent: HashMap<Ipv4Addr, Ipv4Addr>,
}

impl UnionFind {
    fn find(&mut self, x: Ipv4Addr) -> Ipv4Addr {
        let p = *self.parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.parent.insert(x, root);
        root
    }

    fn union(&mut self, a: Ipv4Addr, b: Ipv4Addr) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

/// The alarm graph of one (or several merged) bins.
#[derive(Debug, Default)]
pub struct AlarmGraph {
    edges: Vec<AlarmEdge>,
    /// Every forwarding-flagged address with the streams that flagged
    /// it (edge provenance lives on the edges themselves).
    flag_streams: BTreeMap<Ipv4Addr, BTreeSet<usize>>,
}

impl AlarmGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one stream's delay alarms as edges (a solo analyzer is
    /// stream `0`). Duplicate pairs keep the strongest alarm's deviation
    /// but accumulate every contributing stream, so a union graph never
    /// silently collapses cross-stream evidence.
    pub fn add_stream_delay_alarms(&mut self, stream: usize, alarms: &[DelayAlarm]) {
        for alarm in alarms {
            let canon = alarm.link.canonical();
            let shift = alarm.median_shift_ms();
            match self
                .edges
                .iter_mut()
                .find(|e| e.a == canon.near && e.b == canon.far)
            {
                Some(existing) => {
                    existing.streams.insert(stream);
                    if existing.deviation < alarm.deviation {
                        existing.deviation = alarm.deviation;
                        existing.median_shift_ms = shift;
                    }
                }
                None => self.edges.push(AlarmEdge {
                    a: canon.near,
                    b: canon.far,
                    median_shift_ms: shift,
                    deviation: alarm.deviation,
                    streams: BTreeSet::from([stream]),
                }),
            }
        }
    }

    /// Flag one stream's forwarding anomalies: the modeled router and
    /// every reported (responsive) next hop, each tagged with the
    /// contributing stream.
    pub fn add_stream_forwarding_alarms(&mut self, stream: usize, alarms: &[ForwardingAlarm]) {
        let mut flag = |addr: Ipv4Addr| {
            self.flag_streams.entry(addr).or_default().insert(stream);
        };
        for alarm in alarms {
            flag(alarm.router);
            for (hop, _) in &alarm.responsibilities {
                if let NextHop::Ip(addr) = hop {
                    flag(*addr);
                }
            }
        }
    }

    /// Streams that forwarding-flagged an address (empty set = never
    /// flagged).
    pub fn flag_streams(&self, addr: Ipv4Addr) -> BTreeSet<usize> {
        self.flag_streams.get(&addr).cloned().unwrap_or_default()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Every delay edge (duplicate pairs already collapsed to the
    /// strongest alarm), in first-seen order.
    pub fn edges(&self) -> &[AlarmEdge] {
        &self.edges
    }

    /// Every forwarding-flagged router, ascending — including ones that
    /// touch no delay edge and therefore appear in no
    /// [`AlarmGraph::components`] entry.
    pub fn forwarding_flagged(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.flag_streams.keys().copied()
    }

    /// All connected components, largest first.
    pub fn components(&self) -> Vec<Component> {
        let mut uf = UnionFind::default();
        for e in &self.edges {
            uf.union(e.a, e.b);
        }
        let mut by_root: BTreeMap<Ipv4Addr, Component> = BTreeMap::new();
        for e in &self.edges {
            let root = uf.find(e.a);
            let comp = by_root.entry(root).or_default();
            comp.nodes.insert(e.a);
            comp.nodes.insert(e.b);
            comp.streams.extend(e.streams.iter().copied());
            comp.edges.push(e.clone());
        }
        let mut comps: Vec<Component> = by_root.into_values().collect();
        for c in &mut comps {
            for addr in &c.nodes {
                if let Some(streams) = self.flag_streams.get(addr) {
                    c.forwarding_flagged.insert(*addr);
                    c.streams.extend(streams.iter().copied());
                }
            }
        }
        comps.sort_by_key(|c| std::cmp::Reverse(c.nodes.len()));
        comps
    }

    /// The component containing `addr`, if any — e.g. "the connected
    /// component involving K-root" of Fig. 8.
    pub fn component_of(&self, addr: Ipv4Addr) -> Option<Component> {
        self.components().into_iter().find(|c| c.contains(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffrtt::detect::Direction;
    use pinpoint_model::{BinId, IpLink};
    use pinpoint_stats::wilson::ConfidenceInterval;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn alarm(a: &str, b: &str, dev: f64, shift: f64) -> DelayAlarm {
        DelayAlarm {
            link: IpLink::new(ip(a), ip(b)),
            bin: BinId(0),
            observed: ConfidenceInterval::new(shift, shift + 1.0, shift + 2.0, 10),
            reference: ConfidenceInterval::new(0.0, 1.0, 2.0, 0),
            deviation: dev,
            direction: Direction::Increase,
        }
    }

    #[test]
    fn components_partition_alarms() {
        let mut g = AlarmGraph::new();
        g.add_stream_delay_alarms(
            0,
            &[
                alarm("10.0.0.1", "10.0.0.2", 5.0, 10.0),
                alarm("10.0.0.2", "10.0.0.3", 3.0, 8.0),
                alarm("10.9.0.1", "10.9.0.2", 2.0, 4.0),
            ],
        );
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].nodes.len(), 3);
        assert_eq!(comps[1].nodes.len(), 2);
        assert!(comps[0].contains(ip("10.0.0.3")));
        assert!(!comps[0].contains(ip("10.9.0.1")));
    }

    #[test]
    fn component_of_follows_kroot_style_query() {
        let mut g = AlarmGraph::new();
        let kroot = "193.0.14.129";
        g.add_stream_delay_alarms(
            0,
            &[
                alarm(kroot, "80.81.192.154", 9.0, 15.0),
                alarm("80.81.192.154", "72.52.92.14", 4.0, 12.0),
                alarm("1.2.3.4", "5.6.7.8", 1.5, 3.0),
            ],
        );
        let comp = g.component_of(ip(kroot)).unwrap();
        assert_eq!(comp.nodes.len(), 3);
        assert_eq!(comp.degree(ip("80.81.192.154")), 2);
        assert!(g.component_of(ip("9.9.9.9")).is_none());
    }

    #[test]
    fn duplicate_edges_keep_strongest() {
        let mut g = AlarmGraph::new();
        g.add_stream_delay_alarms(
            0,
            &[
                alarm("10.0.0.1", "10.0.0.2", 2.0, 5.0),
                // Same pair, reversed direction, stronger.
                alarm("10.0.0.2", "10.0.0.1", 7.0, 20.0),
                // Same pair, weaker — ignored.
                alarm("10.0.0.1", "10.0.0.2", 1.0, 2.0),
            ],
        );
        assert_eq!(g.edge_count(), 1);
        let comps = g.components();
        assert_eq!(comps[0].edges[0].deviation, 7.0);
        assert_eq!(comps[0].edges[0].median_shift_ms, 20.0);
    }

    #[test]
    fn forwarding_flags_intersect_components() {
        let mut g = AlarmGraph::new();
        g.add_stream_delay_alarms(0, &[alarm("10.0.0.1", "10.0.0.2", 5.0, 10.0)]);
        g.add_stream_forwarding_alarms(
            0,
            &[ForwardingAlarm {
                router: ip("10.0.0.2"),
                dst: ip("198.51.100.1"),
                bin: BinId(0),
                rho: -0.5,
                responsibilities: vec![
                    (crate::forwarding::NextHop::Ip(ip("10.0.0.3")), -0.4),
                    (crate::forwarding::NextHop::Unresponsive, 0.4),
                ],
            }],
        );
        let comp = g.component_of(ip("10.0.0.1")).unwrap();
        // 10.0.0.2 is in the component and flagged; 10.0.0.3 is flagged but
        // outside the delay component.
        assert!(comp.forwarding_flagged.contains(&ip("10.0.0.2")));
        assert!(!comp.forwarding_flagged.contains(&ip("10.0.0.3")));
    }

    #[test]
    fn duplicate_cross_stream_edges_keep_per_stream_provenance() {
        // Regression: the union graph used to collapse the same link
        // alarmed by two streams into one edge with no record of who saw
        // it — "affecting whom" membership was silently lossy.
        let mut g = AlarmGraph::new();
        g.add_stream_delay_alarms(0, &[alarm("10.0.0.1", "10.0.0.2", 2.0, 5.0)]);
        g.add_stream_delay_alarms(1, &[alarm("10.0.0.2", "10.0.0.1", 7.0, 20.0)]);
        g.add_stream_delay_alarms(2, &[alarm("10.0.0.1", "10.0.0.2", 1.0, 2.0)]);
        assert_eq!(g.edge_count(), 1);
        let edge = &g.edges()[0];
        // Strongest alarm still wins the metrics…
        assert_eq!(edge.deviation, 7.0);
        assert_eq!(edge.median_shift_ms, 20.0);
        // …but every contributing stream is retained, including the one
        // whose weaker alarm lost the dedup.
        assert_eq!(edge.streams, BTreeSet::from([0, 1, 2]));
        let comps = g.components();
        assert_eq!(comps[0].streams, BTreeSet::from([0, 1, 2]));
    }

    #[test]
    fn forwarding_flags_carry_stream_provenance() {
        let mut g = AlarmGraph::new();
        let fwd = |router: &str| ForwardingAlarm {
            router: ip(router),
            dst: ip("198.51.100.1"),
            bin: BinId(0),
            rho: -0.5,
            responsibilities: vec![(crate::forwarding::NextHop::Ip(ip("10.0.0.3")), -0.4)],
        };
        g.add_stream_forwarding_alarms(0, &[fwd("10.0.0.2")]);
        g.add_stream_forwarding_alarms(1, &[fwd("10.0.0.2")]);
        assert_eq!(g.flag_streams(ip("10.0.0.2")), BTreeSet::from([0, 1]));
        assert_eq!(g.flag_streams(ip("10.0.0.3")), BTreeSet::from([0, 1]));
        assert!(g.flag_streams(ip("9.9.9.9")).is_empty());
    }

    #[test]
    fn empty_graph_behaves() {
        let g = AlarmGraph::new();
        assert!(g.components().is_empty());
        assert!(g.component_of(ip("1.1.1.1")).is_none());
        assert_eq!(g.edge_count(), 0);
    }
}
