//! The shared simulated Internet hosting every case study.
//!
//! One topology contains all the paper's protagonists so figures agree on
//! addresses and ASNs:
//!
//! * a tier-1 clique including **Level3** (AS3356) and **Cogent** (AS174 —
//!   whose ZRH→MUC backbone link is the Fig. 2 exemplar);
//! * **Global Crossing** (AS3549) as a large transit under Level3;
//! * **Telekom Malaysia** (AS4788), customer of Global Crossing — the §7.2
//!   leaker;
//! * three IXPs: an AMS-IX stand-in (**AS1200**, the §7.3 outage), a
//!   DE-CIX-like fabric in Frankfurt, and a LINX-like fabric in London;
//! * anycast root services: **K-root** (AS25152) with instances in
//!   Amsterdam, Frankfurt, London, Kansas City, St. Petersburg (via a
//!   Selectel-like host), Poznan, and Tokyo — plus F-root and I-root
//!   co-located at the same European IXPs (the Fig. 8 adjacency) and an
//!   L-root that stays clear of them;
//! * regional transits (including a Hurricane-Electric-like AS6939 peering
//!   widely at the IXPs) and a few dozen stub ASes hosting probes and
//!   anchor targets.

use pinpoint_core::aggregate::AsMapper;
use pinpoint_model::{Asn, IpLink, Prefix};
use pinpoint_netsim::geo::{city_by_code, CityId};
use pinpoint_netsim::ids::RouterId;
use pinpoint_netsim::topology::builder::TopologyBuilder;
use pinpoint_netsim::topology::{AsTier, CapacityClass, Topology};
use std::net::Ipv4Addr;

/// Scenario fidelity: trades probes/duration for runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test scale: few probes, short windows.
    Small,
    /// Figure-regeneration scale (approximates the paper's density).
    Paper,
}

impl Scale {
    /// Number of probes to deploy.
    pub fn probes(self) -> usize {
        match self {
            Scale::Small => 110,
            Scale::Paper => 260,
        }
    }

    /// Number of background stub ASes.
    pub fn stubs(self) -> usize {
        match self {
            Scale::Small => 30,
            Scale::Paper => 60,
        }
    }
}

/// Everything the figure harnesses need to find in the world.
#[derive(Debug, Clone)]
pub struct Landmarks {
    /// K-root service address (the 193.0.14.129 analogue).
    pub kroot_addr: Ipv4Addr,
    /// K-root operator ASN (AS25152).
    pub kroot_asn: Asn,
    /// F-root service address.
    pub froot_addr: Ipv4Addr,
    /// I-root service address.
    pub iroot_addr: Ipv4Addr,
    /// L-root service address (not co-located; control).
    pub lroot_addr: Ipv4Addr,
    /// AMS-IX-like peering LAN ASN (AS1200).
    pub amsix_asn: Asn,
    /// Level3 ASN (AS3356).
    pub level3_asn: Asn,
    /// Global Crossing ASN (AS3549).
    pub gc_asn: Asn,
    /// Telekom Malaysia ASN (AS4788).
    pub tm_asn: Asn,
    /// Cogent ASN (AS174).
    pub cogent_asn: Asn,
    /// The Fig. 2 link: Cogent ZRH → Cogent MUC (forward-path order).
    pub cogent_link: IpLink,
    /// Anchor behind Cogent MUC (steady-scenario target).
    pub anchor_muc: Ipv4Addr,
    /// All anchor addresses (anchoring measurement targets).
    pub anchors: Vec<Ipv4Addr>,
    /// K-root instance entry-router IPs, keyed by city code.
    pub kroot_entries: Vec<(&'static str, Ipv4Addr)>,
}

impl Landmarks {
    /// The world's named ASes, the ones every case study pre-registers
    /// for magnitude tracking.
    pub fn named_asns(&self) -> [Asn; 6] {
        [
            self.kroot_asn,
            self.amsix_asn,
            self.level3_asn,
            self.gc_asn,
            self.tm_asn,
            self.cogent_asn,
        ]
    }
}

/// The built world.
#[derive(Debug)]
pub struct World {
    /// The topology.
    pub topology: Topology,
    /// Landmarks for harnesses.
    pub landmarks: Landmarks,
}

fn city(code: &str) -> CityId {
    city_by_code(code).expect("known city")
}

impl World {
    /// Build the world at a given scale.
    pub fn build(seed: u64, scale: Scale) -> World {
        let mut b = TopologyBuilder::new(seed);

        // ---------------- IXPs ------------------------------------------
        let amsix = b.add_ixp(Asn(1200), "ams-ix", city("AMS"));
        let decix = b.add_ixp(Asn(6695), "de-cix", city("FRA"));
        let linx = b.add_ixp(Asn(5459), "linx", city("LON"));
        let ixps = [(amsix, "AMS"), (decix, "FRA"), (linx, "LON")];

        // ---------------- Tier-1 clique ---------------------------------
        let level3 = b.add_as(Asn(3356), "level3", AsTier::Tier1);
        for c in [
            "LON", "NYC", "WDC", "MIA", "CHI", "DAL", "LAX", "AMS", "FRA", "PAR", "VIE", "DUB",
            "BER",
        ] {
            b.add_router(level3, city(c));
        }
        b.mesh_intra_as(level3, 0.15);

        let cogent = b.add_as(Asn(174), "cogent", AsTier::Tier1);
        for c in ["ZRH", "MUC", "NYC", "SJC", "TYO"] {
            b.add_router(cogent, city(c));
        }
        // Chain by longitude: SJC–NYC–ZRH–MUC–TYO (+ closing ring). No
        // chords, so European/US traffic to anything behind MUC crosses
        // ZRH→MUC — the Fig. 2 link.
        b.mesh_intra_as(cogent, 0.0);

        let gtt = b.add_as(Asn(3257), "gtt", AsTier::Tier1);
        for c in ["FRA", "LON", "NYC", "SEA", "SIN", "GRU"] {
            b.add_router(gtt, city(c));
        }
        b.mesh_intra_as(gtt, 0.2);

        let ntt = b.add_as(Asn(2914), "ntt", AsTier::Tier1);
        for c in ["TYO", "OSA", "HKG", "SIN", "LAX", "LON", "BOM"] {
            b.add_router(ntt, city(c));
        }
        b.mesh_intra_as(ntt, 0.2);

        let tier1s = [level3, cogent, gtt, ntt];
        for i in 0..tier1s.len() {
            for j in (i + 1)..tier1s.len() {
                b.peer_private(tier1s[i], tier1s[j], 2, CapacityClass::Backbone);
            }
        }

        // ---------------- Global Crossing (AS3549) ----------------------
        let gc = b.add_as(Asn(3549), "global-crossing", AsTier::Transit);
        for c in [
            "LON", "AMS", "FRA", "NYC", "WDC", "MIA", "LAX", "HKG", "SIN",
        ] {
            b.add_router(gc, city(c));
        }
        b.mesh_intra_as(gc, 0.2);
        b.provider_customer(level3, gc, 3);
        b.peer_private(gc, gtt, 1, CapacityClass::Standard);
        b.peer_private(gc, ntt, 1, CapacityClass::Standard);

        // ---------------- Regional transits ------------------------------
        let he = b.add_as(Asn(6939), "hurricane", AsTier::Transit);
        for c in ["FRA", "AMS", "LON", "NYC", "SJC", "SEA"] {
            b.add_router(he, city(c));
        }
        b.mesh_intra_as(he, 0.3);
        b.provider_customer(gtt, he, 2);

        let selectel = b.add_as(Asn(49505), "selectel", AsTier::Transit);
        b.add_router(selectel, city("LED"));
        b.add_router(selectel, city("MOW"));
        b.mesh_intra_as(selectel, 0.0);
        b.provider_customer(cogent, selectel, 1);
        b.provider_customer(ntt, selectel, 1);

        let pol = b.add_as(Asn(8501), "pol-transit", AsTier::Transit);
        b.add_router(pol, city("POZ"));
        b.add_router(pol, city("WAW"));
        b.mesh_intra_as(pol, 0.0);
        b.provider_customer(gtt, pol, 1);
        b.provider_customer(level3, pol, 1);

        let tm = b.add_as(Asn(4788), "telekom-malaysia", AsTier::Transit);
        b.add_router(tm, city("KUL"));
        b.add_router(tm, city("SIN"));
        b.mesh_intra_as(tm, 0.0);
        b.provider_customer(gc, tm, 1); // the leak's upstream
        b.provider_customer(ntt, tm, 1);

        let us_transit = b.add_as(Asn(7922), "us-transit", AsTier::Transit);
        for c in ["MKC", "CHI", "DAL", "NYC"] {
            b.add_router(us_transit, city(c));
        }
        b.mesh_intra_as(us_transit, 0.2);
        b.provider_customer(level3, us_transit, 1);
        b.provider_customer(cogent, us_transit, 1);

        let eu_transit = b.add_as(Asn(1299), "eu-transit", AsTier::Transit);
        for c in ["STO", "AMS", "FRA", "LON", "MAD", "MIL"] {
            b.add_router(eu_transit, city(c));
        }
        b.mesh_intra_as(eu_transit, 0.2);
        b.provider_customer(level3, eu_transit, 1);
        b.provider_customer(gtt, eu_transit, 1);

        let ap_transit = b.add_as(Asn(4826), "ap-transit", AsTier::Transit);
        for c in ["SIN", "HKG", "TYO", "SYD"] {
            b.add_router(ap_transit, city(c));
        }
        b.mesh_intra_as(ap_transit, 0.2);
        b.provider_customer(ntt, ap_transit, 1);

        let transits = [he, eu_transit, us_transit, ap_transit, gc];

        // Transit peering at the IXPs.
        for (ixp, code) in ixps {
            let c = city(code);
            for t in [he, eu_transit, gc] {
                b.join_ixp(t, ixp, c);
            }
            b.peer_via_ixp(he, eu_transit, ixp, c);
            b.peer_via_ixp(he, gc, ixp, c);
            b.peer_via_ixp(eu_transit, gc, ixp, c);
        }

        // Dutch ISP cluster: dense bilateral peering at the AMS-IX
        // stand-in, so the §7.3 outage silences many LAN next hops at once
        // (the paper reports 770 unresponsive LAN pairs).
        let ams = city("AMS");
        let mut nl_isps = Vec::new();
        for i in 0..4u32 {
            let isp = b.add_as(Asn(64550 + i), &format!("nl-isp-{i}"), AsTier::Transit);
            b.add_router(isp, ams);
            b.provider_customer(if i % 2 == 0 { level3 } else { gtt }, isp, 1);
            nl_isps.push(isp);
        }
        for i in 0..nl_isps.len() {
            b.join_ixp(nl_isps[i], amsix, ams);
            for j in (i + 1)..nl_isps.len() {
                b.peer_via_ixp(nl_isps[i], nl_isps[j], amsix, ams);
            }
            for t in [he, eu_transit, gc] {
                b.peer_via_ixp(nl_isps[i], t, amsix, ams);
            }
        }

        // ---------------- Anycast root services --------------------------
        let kroot_ops = b.add_as(Asn(25152), "k-root-ops", AsTier::AnycastOp);
        let kroot = b.add_anycast_service(kroot_ops, "K-root");
        let mut kroot_entries = Vec::new();
        // IXP-hosted instances peer with the local members.
        for (ixp, code) in [(amsix, "AMS"), (decix, "FRA"), (linx, "LON")] {
            let (entry, _server) = b.add_anycast_instance(kroot, city(code));
            for member in [he, eu_transit, gc] {
                b.peer_via_ixp(kroot_ops, member, ixp, city(code));
            }
            if ixp == amsix {
                for &isp in &nl_isps {
                    b.peer_via_ixp(kroot_ops, isp, ixp, city(code));
                }
            }
            let ip = b.topology().router(entry).ip;
            kroot_entries.push((leak_city_code(code), ip));
        }
        // Transit-hosted instances.
        for (host, code) in [
            (us_transit, "MKC"),
            (selectel, "LED"),
            (pol, "POZ"),
            (ap_transit, "TYO"),
        ] {
            let (entry, _server) = b.add_anycast_instance(kroot, city(code));
            b.provider_customer(host, kroot_ops, 1);
            let ip = b.topology().router(entry).ip;
            kroot_entries.push((leak_city_code(code), ip));
        }

        let froot_ops = b.add_as(Asn(3557), "f-root-ops", AsTier::AnycastOp);
        let froot = b.add_anycast_service(froot_ops, "F-root");
        for (ixp, code) in [(amsix, "AMS"), (decix, "FRA")] {
            b.add_anycast_instance(froot, city(code));
            for member in [he, eu_transit] {
                b.peer_via_ixp(froot_ops, member, ixp, city(code));
            }
        }
        b.add_anycast_instance(froot, city("SJC"));
        b.provider_customer(cogent, froot_ops, 1);

        let iroot_ops = b.add_as(Asn(29216), "i-root-ops", AsTier::AnycastOp);
        let iroot = b.add_anycast_service(iroot_ops, "I-root");
        for (ixp, code) in [(amsix, "AMS"), (linx, "LON")] {
            b.add_anycast_instance(iroot, city(code));
            for member in [he, gc] {
                b.peer_via_ixp(iroot_ops, member, ixp, city(code));
            }
        }
        b.add_anycast_instance(iroot, city("STO"));
        b.provider_customer(eu_transit, iroot_ops, 1);

        // L-root: away from the attacked IXPs (control group, §7.1 "no
        // significant delay change for root servers A, D, G, L, and M").
        let lroot_ops = b.add_as(Asn(20144), "l-root-ops", AsTier::AnycastOp);
        let lroot = b.add_anycast_service(lroot_ops, "L-root");
        for code in ["LAX", "GRU", "SYD"] {
            b.add_anycast_instance(lroot, city(code));
        }
        b.provider_customer(ntt, lroot_ops, 2);
        b.provider_customer(us_transit, lroot_ops, 1);

        // ---------------- Stubs, probes' homes, anchors ------------------
        let stub_cities = [
            "AMS", "LON", "FRA", "PAR", "ZRH", "VIE", "STO", "WAW", "MOW", "LED", "MAD", "MIL",
            "DUB", "BER", "NYC", "WDC", "MIA", "CHI", "DAL", "LAX", "SJC", "SEA", "YYZ", "GRU",
            "EZE", "TYO", "OSA", "SEL", "HKG", "SIN", "KUL", "SYD", "BOM", "DXB", "JNB", "NBO",
            "CAI", "POZ", "MKC", "MUC",
        ];
        let n_stubs = scale.stubs();
        let mut anchors = Vec::new();
        let mut anchor_muc = None;
        for i in 0..n_stubs {
            let code = stub_cities[i % stub_cities.len()];
            let asn = Asn(64600 + i as u32);
            let stub = b.add_as(asn, &format!("edge-{code}-{i}"), AsTier::Stub);
            let r = b.add_router(stub, city(code));
            // Home transit: regionally plausible, deterministic.
            let provider = transits[i % transits.len()];
            b.provider_customer(provider, stub, 1);
            if i % 3 == 0 {
                let second = transits[(i + 2) % transits.len()];
                if second != provider {
                    b.provider_customer(second, stub, 1);
                }
            }
            // A few stubs host anchors.
            if i % 7 == 3 {
                let host = b.add_host(r, &format!("anchor-{code}-{i}"));
                anchors.push(b.topology().router(host).ip);
            }
            // Eyeball stubs inside the regional instance catchments, so the
            // LED / POZ / TYO instances are observed from ≥3 ASes (BGP
            // prefers customer routes, so only traffic originating under
            // those hosts reaches the regional instances).
            if i < 9 {
                let (host, code) = [
                    (selectel, "LED"),
                    (selectel, "MOW"),
                    (selectel, "LED"),
                    (pol, "POZ"),
                    (pol, "WAW"),
                    (pol, "POZ"),
                    (ap_transit, "TYO"),
                    (ap_transit, "OSA"),
                    (ap_transit, "SEL"),
                ][i];
                let eyeball = b.add_as(
                    Asn(64800 + i as u32),
                    &format!("edge-eye-{i}"),
                    AsTier::Stub,
                );
                b.add_router(eyeball, city(code));
                b.provider_customer(host, eyeball, 1);
            }
            // A handful of stubs homed on the Dutch cluster, so probe
            // traffic actually crosses the AMS-IX LAN.
            if i % 5 == 1 {
                let nl_stub =
                    b.add_as(Asn(64700 + i as u32), &format!("edge-nl-{i}"), AsTier::Stub);
                b.add_router(nl_stub, city("AMS"));
                b.provider_customer(nl_isps[i % nl_isps.len()], nl_stub, 1);
            }
            // The steady-scenario anchor: a stub behind Cogent MUC.
            if i == 0 {
                let muc_stub = b.add_as(Asn(64599), "edge-muc-anchor", AsTier::Stub);
                let mr = b.add_router(muc_stub, city("MUC"));
                b.provider_customer(cogent, muc_stub, 1);
                let host = b.add_host(mr, "anchor-muc");
                let ip = b.topology().router(host).ip;
                anchors.push(ip);
                anchor_muc = Some(ip);
            }
        }

        // Identify the Fig. 2 link before consuming the builder.
        let topo_ref = b.topology();
        let cogent_as = topo_ref.as_id(Asn(174)).unwrap();
        let zrh = topo_ref
            .asn(cogent_as)
            .routers
            .iter()
            .find(|&&r| topo_ref.router(r).city == city("ZRH"))
            .copied()
            .unwrap();
        let muc = topo_ref
            .asn(cogent_as)
            .routers
            .iter()
            .find(|&&r| topo_ref.router(r).city == city("MUC"))
            .copied()
            .unwrap();
        let cogent_link = IpLink::new(topo_ref.router(zrh).ip, topo_ref.router(muc).ip);
        let svc_addr = |idx: usize| topo_ref.services[idx].addr;
        let landmarks = Landmarks {
            kroot_addr: svc_addr(kroot),
            kroot_asn: Asn(25152),
            froot_addr: svc_addr(froot),
            iroot_addr: svc_addr(iroot),
            lroot_addr: svc_addr(lroot),
            amsix_asn: Asn(1200),
            level3_asn: Asn(3356),
            gc_asn: Asn(3549),
            tm_asn: Asn(4788),
            cogent_asn: Asn(174),
            cogent_link,
            anchor_muc: anchor_muc.expect("anchor-muc built"),
            anchors,
            kroot_entries,
        };

        World {
            topology: b.build(),
            landmarks,
        }
    }

    /// Ground-truth IP→AS mapper for §6 aggregation.
    pub fn mapper(&self) -> AsMapper {
        AsMapper::from_prefixes(self.prefix_pairs())
    }

    /// `(prefix, ASN)` pairs from the topology's ground truth.
    pub fn prefix_pairs(&self) -> Vec<(Prefix, Asn)> {
        self.topology
            .prefixes
            .iter()
            .into_iter()
            .map(|(p, as_id)| (p, self.topology.asn(*as_id).asn))
            .collect()
    }

    /// Router owning an entry IP (test helper).
    pub fn router_by_ip(&self, ip: Ipv4Addr) -> Option<RouterId> {
        self.topology.router_by_ip.get(&ip).copied()
    }
}

fn leak_city_code(code: &str) -> &'static str {
    // Map to 'static strs for the landmark table.
    match code {
        "AMS" => "AMS",
        "FRA" => "FRA",
        "LON" => "LON",
        "MKC" => "MKC",
        "LED" => "LED",
        "POZ" => "POZ",
        "TYO" => "TYO",
        other => panic!("unexpected instance city {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_and_validates() {
        let w = World::build(2015, Scale::Small);
        assert!(w.topology.validate().is_empty());
        assert_eq!(w.topology.services.len(), 4);
        assert!(w.landmarks.anchors.len() >= 4);
        assert_eq!(w.landmarks.kroot_entries.len(), 7);
    }

    #[test]
    fn named_protagonists_exist() {
        let w = World::build(2015, Scale::Small);
        for asn in [174, 3356, 3549, 4788, 1200, 25152, 6939, 49505] {
            assert!(
                w.topology.as_id(Asn(asn)).is_some(),
                "AS{asn} missing from world"
            );
        }
    }

    #[test]
    fn cogent_link_is_intra_cogent() {
        let w = World::build(2015, Scale::Small);
        let l = w.landmarks.cogent_link;
        let near = w.topology.owner_of(l.near).unwrap();
        let far = w.topology.owner_of(l.far).unwrap();
        assert_eq!(w.topology.asn(near).asn, Asn(174));
        assert_eq!(w.topology.asn(far).asn, Asn(174));
        assert_ne!(l.near, l.far);
    }

    #[test]
    fn kroot_address_maps_to_operator_as() {
        let w = World::build(2015, Scale::Small);
        let mapper = w.mapper();
        assert_eq!(mapper.asn_of(w.landmarks.kroot_addr), Some(Asn(25152)));
        // The AMS entry router's LAN address belongs to the IXP, its
        // primary address to AS25152 — the §7.3 attribution mechanics.
        let (_, entry_ip) = w
            .landmarks
            .kroot_entries
            .iter()
            .find(|(c, _)| *c == "AMS")
            .unwrap();
        assert_eq!(mapper.asn_of(*entry_ip), Some(Asn(25152)));
    }

    #[test]
    fn world_is_deterministic() {
        let a = World::build(7, Scale::Small);
        let b = World::build(7, Scale::Small);
        assert_eq!(a.landmarks.kroot_addr, b.landmarks.kroot_addr);
        assert_eq!(a.landmarks.cogent_link, b.landmarks.cogent_link);
        assert_eq!(a.topology.routers.len(), b.topology.routers.len());
        assert_eq!(a.topology.links.len(), b.topology.links.len());
    }

    #[test]
    fn paper_scale_is_larger() {
        let s = World::build(1, Scale::Small);
        let p = World::build(1, Scale::Paper);
        assert!(p.topology.ases.len() > s.topology.ases.len());
    }
}
