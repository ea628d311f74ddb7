//! Router-level forwarding: intra-AS shortest paths and path stitching.
//!
//! Given an AS-level route (from [`super::policy`]), the stitcher walks the
//! router graph: inside each AS, packets follow precomputed shortest paths
//! (Dijkstra over intra-AS links, weighted by propagation delay); at each
//! AS boundary the exit interconnect is chosen hot-potato (closest exit to
//! the current router) with per-flow ECMP among near-equal candidates —
//! Paris traceroute keeps the flow identifier fixed, so one traceroute sees
//! one consistent path, while different probes spread over the alternatives
//! (§2's "Paris traceroute \[mitigates\] issues raised by load balancers").

use crate::ids::{AsId, LinkId, RouterId};
use crate::routing::policy::RouteTable;
use crate::topology::{LinkKind, RouterKind, Topology};
use std::collections::HashMap;

/// Infinite distance marker.
const INF: f64 = f64::INFINITY;

/// All-pairs shortest paths inside one AS.
#[derive(Debug, Clone)]
pub struct IntraMatrix {
    /// Router ids in local order.
    routers: Vec<RouterId>,
    /// RouterId → local index.
    local: HashMap<RouterId, usize>,
    /// `next[f][t]`: next router on the shortest path f→t (`None` when
    /// unreachable — distinct islands of a multi-island AS).
    next: Vec<Vec<Option<RouterId>>>,
    /// `dist[f][t]` in milliseconds.
    dist: Vec<Vec<f64>>,
}

impl IntraMatrix {
    fn build(topo: &Topology, as_id: AsId) -> Self {
        let routers: Vec<RouterId> = topo.asn(as_id).routers.clone();
        let local: HashMap<RouterId, usize> =
            routers.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let n = routers.len();
        let mut next = vec![vec![None; n]; n];
        let mut dist = vec![vec![INF; n]; n];

        // Dijkstra from every router over intra-AS links only.
        for (src_i, _) in routers.iter().enumerate() {
            let mut d = vec![INF; n];
            let mut first_hop: Vec<Option<RouterId>> = vec![None; n];
            let mut done = vec![false; n];
            d[src_i] = 0.0;
            loop {
                // Linear extract-min: per-AS router counts are small (<50).
                let mut u = None;
                let mut best = INF;
                for i in 0..n {
                    if !done[i] && d[i] < best {
                        best = d[i];
                        u = Some(i);
                    }
                }
                let Some(u) = u else { break };
                done[u] = true;
                for &lid in &topo.router(routers[u]).links {
                    let link = topo.link(lid);
                    if link.kind != LinkKind::IntraAs {
                        continue;
                    }
                    let v = link.other(routers[u]);
                    let Some(&v_i) = local.get(&v) else { continue };
                    let nd = d[u] + link.base_delay_ms;
                    // Deterministic tie-break: strictly-better only, with
                    // neighbor order fixed by the topology's link order.
                    if nd < d[v_i] - 1e-12 {
                        d[v_i] = nd;
                        first_hop[v_i] = if u == src_i { Some(v) } else { first_hop[u] };
                    }
                }
            }
            dist[src_i].copy_from_slice(&d);
            next[src_i].copy_from_slice(&first_hop);
        }
        IntraMatrix {
            routers,
            local,
            next,
            dist,
        }
    }

    /// Shortest-path distance between two routers of this AS (ms).
    pub fn distance(&self, from: RouterId, to: RouterId) -> f64 {
        match (self.local.get(&from), self.local.get(&to)) {
            (Some(&f), Some(&t)) => self.dist[f][t],
            _ => INF,
        }
    }

    /// The full router path `from → to`, inclusive. `None` if unreachable.
    pub fn path(&self, from: RouterId, to: RouterId) -> Option<Vec<RouterId>> {
        let (&f, &t) = (self.local.get(&from)?, self.local.get(&to)?);
        if f == t {
            return Some(vec![from]);
        }
        if self.dist[f][t].is_infinite() {
            return None;
        }
        let mut path = vec![from];
        let mut cur = f;
        while cur != t {
            let nxt = self.next[cur][t]?;
            path.push(nxt);
            cur = self.local[&nxt];
            if path.len() > self.routers.len() {
                return None; // defensive: corrupted matrix
            }
        }
        Some(path)
    }
}

/// Precomputed intra-AS matrices for the whole topology.
#[derive(Debug, Clone)]
pub struct Forwarding {
    per_as: Vec<IntraMatrix>,
}

impl Forwarding {
    /// Build matrices for every AS.
    pub fn new(topo: &Topology) -> Self {
        let per_as = (0..topo.ases.len())
            .map(|i| IntraMatrix::build(topo, AsId(i as u32)))
            .collect();
        Forwarding { per_as }
    }

    /// The matrix of one AS.
    pub fn intra(&self, as_id: AsId) -> &IntraMatrix {
        &self.per_as[as_id.idx()]
    }
}

/// ECMP slack: interconnect candidates within this many ms of the best are
/// eligible and chosen per-flow. Wide enough that parallel interconnects in
/// one metro area genuinely load-balance (giving forwarding models their
/// multi-next-hop shape), narrow enough that intercontinental detours never
/// qualify.
const ECMP_SLACK_MS: f64 = 1.2;

fn flow_hash(flow: u64, stage: u64, link: u64) -> u64 {
    let mut x = flow ^ stage.wrapping_mul(0xA24B_AED4_963E_E407);
    x ^= link.wrapping_mul(0x9FB2_1C65_1E98_DF25);
    x ^= x >> 28;
    x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    x ^ (x >> 33)
}

/// Stitches router-level paths along AS-level routes.
#[derive(Debug)]
pub struct PathStitcher<'a> {
    topo: &'a Topology,
    fwd: &'a Forwarding,
}

impl<'a> PathStitcher<'a> {
    /// Create a stitcher over a topology and its forwarding matrices.
    pub fn new(topo: &'a Topology, fwd: &'a Forwarding) -> Self {
        PathStitcher { topo, fwd }
    }

    /// Stitch the full router path from `src_router` to the target.
    ///
    /// `table` must be the route table for the target's AS. For anycast
    /// targets pass `target = None`: the path ends at the server of whichever
    /// instance island the stitching enters; for unicast pass the target
    /// router. Returns the router sequence inclusive of both endpoints, or
    /// `None` when no data-plane path exists.
    pub fn route(
        &self,
        src_router: RouterId,
        table: &RouteTable,
        target: Option<RouterId>,
        flow: u64,
    ) -> Option<Vec<RouterId>> {
        let src_as = self.topo.router(src_router).as_id;
        let as_path = table.as_path(src_as)?;
        let mut path = vec![src_router];
        let mut cur = src_router;

        for (stage, w) in as_path.windows(2).enumerate() {
            let (here, next_as) = (w[0], w[1]);
            let candidates = self.topo.inter_as_links(here, next_as);
            if candidates.is_empty() {
                return None;
            }
            // Hot potato: exit via the interconnect closest to `cur`,
            // per-flow ECMP across near-equal options.
            let mut best_cost = INF;
            let mut scored: Vec<(f64, LinkId, RouterId, RouterId)> = Vec::new();
            for &lid in candidates {
                let link = self.topo.link(lid);
                let (exit, entry) = if self.topo.router(link.a).as_id == here {
                    (link.a, link.b)
                } else {
                    (link.b, link.a)
                };
                let cost = self.fwd.intra(here).distance(cur, exit);
                if cost.is_finite() {
                    best_cost = best_cost.min(cost);
                    scored.push((cost, lid, exit, entry));
                }
            }
            if scored.is_empty() {
                return None;
            }
            let chosen = scored
                .iter()
                .filter(|(c, ..)| *c <= best_cost + ECMP_SLACK_MS)
                .max_by_key(|(_, lid, ..)| flow_hash(flow, stage as u64, lid.0 as u64))
                .copied()?;
            let (_, _, exit, entry) = chosen;
            let hops = self.fwd.intra(here).path(cur, exit)?;
            path.extend(hops.into_iter().skip(1));
            path.push(entry);
            cur = entry;
        }

        // Final AS: deliver to the target router (unicast) or the island
        // server (anycast).
        let final_as = *as_path.last()?;
        match target {
            Some(t) => {
                let hops = self.fwd.intra(final_as).path(cur, t)?;
                path.extend(hops.into_iter().skip(1));
            }
            None => {
                let svc_server = self.topo.services.iter().find_map(|svc| {
                    if svc.operator != final_as {
                        return None;
                    }
                    svc.instances
                        .iter()
                        .find(|inst| inst.entry == cur)
                        .map(|inst| inst.server)
                });
                match svc_server {
                    Some(server) => path.push(server),
                    None => {
                        // Entered an anycast AS at a non-entry router (can
                        // happen if the server is directly attached): only
                        // valid if cur is already a server.
                        if self.topo.router(cur).kind != RouterKind::Server {
                            return None;
                        }
                    }
                }
            }
        }
        Some(path)
    }

    /// One-way propagation distance of a stitched path (ms, base delays
    /// only — dynamics add queueing on top).
    pub fn path_base_delay(&self, path: &[RouterId]) -> f64 {
        path.windows(2)
            .map(|w| {
                self.topo
                    .link_between_routers(w[0], w[1])
                    .map(|l| l.base_delay_ms)
                    .unwrap_or(0.0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::policy::compute_routes;
    use crate::topology::builder::TopologyConfig;

    fn setup() -> (Topology, Forwarding) {
        let topo = TopologyConfig::default().build();
        let fwd = Forwarding::new(&topo);
        (topo, fwd)
    }

    #[test]
    fn intra_matrix_symmetric_and_triangle() {
        let (topo, fwd) = setup();
        // Pick the largest AS for a meaningful check.
        let big = topo.ases.iter().max_by_key(|a| a.routers.len()).unwrap();
        let m = fwd.intra(big.id);
        let rs = &big.routers;
        for &a in rs.iter().take(6) {
            assert_eq!(m.distance(a, a), 0.0);
            for &b in rs.iter().take(6) {
                let dab = m.distance(a, b);
                let dba = m.distance(b, a);
                assert!((dab - dba).abs() < 1e-9, "asymmetric {dab} vs {dba}");
                for &c in rs.iter().take(6) {
                    let dac = m.distance(a, c);
                    let dcb = m.distance(c, b);
                    if dac.is_finite() && dcb.is_finite() {
                        assert!(dab <= dac + dcb + 1e-9, "triangle violated");
                    }
                }
            }
        }
    }

    #[test]
    fn intra_path_is_connected_and_matches_distance() {
        let (topo, fwd) = setup();
        let big = topo.ases.iter().max_by_key(|a| a.routers.len()).unwrap();
        let m = fwd.intra(big.id);
        let rs = &big.routers;
        for &a in rs.iter().take(5) {
            for &b in rs.iter().take(5) {
                let path = m.path(a, b).expect("connected AS");
                assert_eq!(path[0], a);
                assert_eq!(*path.last().unwrap(), b);
                // Each consecutive pair is physically linked.
                let mut total = 0.0;
                for w in path.windows(2) {
                    let l = topo.link_between_routers(w[0], w[1]).expect("adjacent");
                    total += l.base_delay_ms;
                }
                assert!((total - m.distance(a, b)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn stitched_path_crosses_correct_ases() {
        let (topo, fwd) = setup();
        let stitcher = PathStitcher::new(&topo, &fwd);
        let stubs: Vec<_> = topo.stub_ases().collect();
        let (src_as, dst_as) = (stubs[0], stubs[stubs.len() - 1]);
        let src_router = src_as.routers[0];
        let dst_router = dst_as.routers[0];
        let table = compute_routes(&topo, dst_as.id, &[], 3);
        let as_path = table.as_path(src_as.id).unwrap();
        let path = stitcher
            .route(src_router, &table, Some(dst_router), 12345)
            .expect("path");
        assert_eq!(path[0], src_router);
        assert_eq!(*path.last().unwrap(), dst_router);
        // The sequence of distinct ASes along the router path equals the
        // AS-level route.
        let mut as_seq = Vec::new();
        for &r in &path {
            let a = topo.router(r).as_id;
            if as_seq.last() != Some(&a) {
                as_seq.push(a);
            }
        }
        assert_eq!(as_seq, as_path);
        // No repeated routers (loop-free).
        let mut seen = std::collections::HashSet::new();
        assert!(path.iter().all(|r| seen.insert(*r)), "router loop");
    }

    #[test]
    fn same_flow_same_path_different_flow_may_differ() {
        let (topo, fwd) = setup();
        let stitcher = PathStitcher::new(&topo, &fwd);
        let stubs: Vec<_> = topo.stub_ases().collect();
        let table = compute_routes(&topo, stubs[1].id, &[], 3);
        let src = stubs[7].routers[0];
        let dst = stubs[1].routers[0];
        let p1 = stitcher.route(src, &table, Some(dst), 42).unwrap();
        let p2 = stitcher.route(src, &table, Some(dst), 42).unwrap();
        assert_eq!(p1, p2, "Paris invariant broken: same flow, same path");
        // Over many flows, at least the path set is stable & loop-free.
        for flow in 0..20 {
            let p = stitcher.route(src, &table, Some(dst), flow).unwrap();
            assert_eq!(p[0], src);
            assert_eq!(*p.last().unwrap(), dst);
        }
    }

    #[test]
    fn unreachable_island_returns_none() {
        let (topo, fwd) = setup();
        // Distance between routers of different ASes is infinite in an
        // intra matrix. (Skip router-less ASes such as IXP LANs.)
        let first_as = topo.ases.iter().find(|a| !a.routers.is_empty()).unwrap();
        let a = first_as.routers[0];
        let other_as = topo
            .ases
            .iter()
            .find(|x| x.id != topo.router(a).as_id && !x.routers.is_empty())
            .unwrap();
        let b = other_as.routers[0];
        assert!(fwd.intra(topo.router(a).as_id).distance(a, b).is_infinite());
        assert!(fwd.intra(topo.router(a).as_id).path(a, b).is_none());
    }
}
