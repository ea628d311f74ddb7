//! Benchmark-owned input generators.
//!
//! Everything the program under test receives is made here, from
//! `pinpoint-model` types and a seed. Nothing in `crates/bench`,
//! `netsim`, `atlas` or `scenarios` feeds the benchmark, so later
//! changes to those crates cannot move its inputs.
//!
//! A [`Stream`] is a ring of [`RING`] distinct pre-generated bins cycled
//! under increasing bin ids (the engine does not check timestamps). Three
//! things make bin *b* differ from ring slot `b % RING`:
//!
//! * **planted delay shifts** — every [`DELAY_PERIOD`] bins, for
//!   [`DELAY_LEN`] bins, +6 ms on the far side of 5 % of the links;
//! * **planted next-hop flips** — every [`FLIP_PERIOD`] bins, for
//!   [`FLIP_LEN`] bins, 10 % of the routers send every packet to a next
//!   hop never seen before (the same routers in every stream);
//! * **key churn** — a tenth of the (router, destination) patterns trace
//!   a destination that is replaced every [`CHURN_LIFETIME`] bins,
//!   staggered so ~1 % of the pattern keys are new in every bin.
//!
//! The first two are stored as alternate records swapped into the slot
//! for the bins that need them; churn rewrites `dst` in place.

use pinpoint_core::aggregate::AsMapper;
use pinpoint_core::snapshot::crc32;
use pinpoint_model::records::{Hop, Reply, TracerouteRecord};
use pinpoint_model::{Asn, MeasurementId, Prefix, ProbeId, SimTime};
use pinpoint_stats::SplitMix64;
use std::net::Ipv4Addr;

/// Distinct pre-generated bins per stream.
pub const RING: usize = 16;
/// Untimed bins fed before measuring: `DetectorConfig::default().warmup_bins`
/// (3) + 5.
pub const WARMUP_BINS: u64 = 8;

/// A delay shift is planted on bins `b` with `b % DELAY_PERIOD >= DELAY_PERIOD - DELAY_LEN`.
pub const DELAY_PERIOD: u64 = 50;
/// Bins per planted delay shift.
pub const DELAY_LEN: u64 = 3;
/// Size of the planted shift: six times `min_median_gap_ms`, and small
/// enough that the reference recovers. Every shifted bin drags an
/// `alpha = 0.01` reference up by a hundredth of the shift, and at this
/// period only 38 % of that decays before the next window: at 6 ms the
/// drift settles at 0.46 ms, while at 25 ms it settles at 1.9 ms and
/// every link that was ever shifted alarms in every later bin.
pub const DELAY_SHIFT_MS: f64 = 6.0;
/// A next-hop flip is planted on bins `b` with `b % FLIP_PERIOD >= FLIP_PERIOD - FLIP_LEN`.
pub const FLIP_PERIOD: u64 = 60;
/// Bins per planted flip.
pub const FLIP_LEN: u64 = 4;
/// Bins a churned destination lives before it is replaced.
pub const CHURN_LIFETIME: u64 = 10;

/// Which planted schedule an alternate record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planted {
    /// The delay shift.
    Delay = 0,
    /// The next-hop flip.
    Flip = 1,
}

impl Planted {
    /// Whether this schedule is on at `bin`.
    pub fn on_at(self, bin: u64) -> bool {
        let (period, len) = match self {
            Planted::Delay => (DELAY_PERIOD, DELAY_LEN),
            Planted::Flip => (FLIP_PERIOD, FLIP_LEN),
        };
        bin % period >= period - len
    }

    /// Whether `bin` is the first bin after a window: alarms there are
    /// neither required nor counted as false.
    pub fn recovering_at(self, bin: u64) -> bool {
        bin > 0 && self.on_at(bin - 1) && !self.on_at(bin)
    }
}

/// Link pairs monitored for delay: each pair `(near, far, dst)` yields
/// the two IP links `(near, far)` and `(far, dst)`.
#[derive(Debug, Clone, Copy)]
pub struct DelaySpec {
    /// Link pairs (links = 2 × pairs).
    pub pairs: usize,
}

impl DelaySpec {
    /// Probes per shallow pair, spread over five ASes.
    const PROBES: usize = 12;
    /// Probes per deep pair: 56 × 2 shots × 9 = 1 008 samples per link.
    const DEEP_PROBES: usize = 56;
    const SHOTS: usize = 2;

    fn deep(pair: usize) -> bool {
        pair.is_multiple_of(10)
    }

    /// Pairs whose `(near, far)` link carries the planted shift: 10 % of
    /// the pairs, 5 % of the links.
    fn planted(pair: usize) -> bool {
        pair % 10 == 3
    }

    /// Links that pass the §4.3 diversity floor.
    pub fn links(&self) -> usize {
        2 * self.pairs
    }

    /// Links carrying the planted shift.
    pub fn planted_links(&self) -> usize {
        (0..self.pairs).filter(|&p| Self::planted(p)).count()
    }

    /// Records per bin.
    pub fn records(&self) -> usize {
        (0..self.pairs)
            .map(|p| {
                Self::SHOTS
                    * if Self::deep(p) {
                        Self::DEEP_PROBES
                    } else {
                        Self::PROBES
                    }
            })
            .sum()
    }
}

/// Routers whose forwarding is modelled: each sprays packets for
/// [`ForwardingSpec::DSTS`] destinations over a skewed 4-way fan-out.
#[derive(Debug, Clone, Copy)]
pub struct ForwardingSpec {
    /// Routers (patterns = routers × 4).
    pub routers: usize,
}

impl ForwardingSpec {
    const DSTS: usize = 4;
    const SHOTS: usize = 3;
    /// Share of flows per next hop.
    const FANOUT: [f64; 4] = [0.55, 0.25, 0.12, 0.08];
    const TIMEOUT_SHARE: f64 = 0.06;
    /// Share of traceroutes that leave their flow's usual next hop.
    const REROUTE_SHARE: f64 = 0.01;

    fn flipped(router: usize) -> bool {
        router % 10 == 7
    }

    /// A tenth of the patterns trace a churning destination.
    fn churn_slot(router: usize, dst: usize) -> Option<u32> {
        (dst == 3 && router % 10 < 4).then(|| (router / 10 * 4 + router % 10) as u32)
    }

    /// (router, destination) patterns with a 4-way fan-out.
    pub fn patterns(&self) -> usize {
        self.routers * Self::DSTS
    }

    /// Patterns whose router flips in a planted window.
    pub fn planted_patterns(&self) -> usize {
        (0..self.routers).filter(|&r| Self::flipped(r)).count() * Self::DSTS
    }

    /// Records per bin.
    pub fn records(&self) -> usize {
        self.patterns() * Self::SHOTS
    }
}

/// Long fully responsive paths probed from two ASes only: many rows per
/// record for the scatter pass, no link past the diversity floor.
#[derive(Debug, Clone, Copy)]
pub struct PathSpec {
    /// Distinct 10-hop chains.
    pub paths: usize,
}

impl PathSpec {
    const HOPS: usize = 10;
    const PROBES: usize = 20;
    const SHOTS: usize = 2;

    /// Records per bin.
    pub fn records(&self) -> usize {
        self.paths * Self::PROBES * Self::SHOTS
    }
}

/// What one stream's bins are made of.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamSpec {
    /// Diversity-passing delay links.
    pub delay: Option<DelaySpec>,
    /// Fan-out patterns.
    pub forwarding: Option<ForwardingSpec>,
    /// Long sub-floor paths.
    pub paths: Option<PathSpec>,
    /// Corrupt ~3 % of the records (loops, duplicated adjacent hops,
    /// impossible RTTs).
    pub dirty: bool,
}

impl StreamSpec {
    /// `replay_delay`: 13 120 records, 800 links, 80 of them deep.
    pub fn delay_heavy() -> Self {
        StreamSpec {
            delay: Some(DelaySpec { pairs: 400 }),
            ..Default::default()
        }
    }

    /// One stream of `replay_fleet_dirty`: 6 000 records, 1 200 fan-out
    /// patterns, no link past the diversity floor.
    pub fn forwarding_dirty() -> Self {
        StreamSpec {
            forwarding: Some(ForwardingSpec { routers: 300 }),
            paths: Some(PathSpec { paths: 60 }),
            dirty: true,
            ..Default::default()
        }
    }

    /// `live_mixed` / `read_heavy`: 13 112 records, both detectors loaded.
    pub fn mixed() -> Self {
        StreamSpec {
            delay: Some(DelaySpec { pairs: 290 }),
            forwarding: Some(ForwardingSpec { routers: 300 }),
            ..Default::default()
        }
    }

    /// Records per bin.
    pub fn records(&self) -> usize {
        self.delay.map_or(0, |d| d.records())
            + self.forwarding.map_or(0, |f| f.records())
            + self.paths.map_or(0, |p| p.records())
    }
}

/// One record of a slot with what may replace it.
struct Item {
    rec: TracerouteRecord,
    alt: Option<(Planted, TracerouteRecord)>,
    churn: Option<u32>,
}

impl Item {
    fn plain(rec: TracerouteRecord) -> Self {
        Item {
            rec,
            alt: None,
            churn: None,
        }
    }
}

fn ip(a: u8, b: usize, c: usize, d: usize) -> Ipv4Addr {
    Ipv4Addr::new(a, b as u8, c as u8, d as u8)
}

fn replies3(addr: Ipv4Addr, rtt: f64, rng: &mut SplitMix64) -> Vec<Reply> {
    (0..3)
        .map(|_| Reply::new(addr, rtt + rng.next_range_f64(0.0, 0.25)))
        .collect()
}

fn shifted(replies: &[Reply], by: f64) -> Vec<Reply> {
    replies
        .iter()
        .map(|r| Reply {
            from: r.from,
            rtt_ms: r.rtt_ms.map(|v| v + by),
        })
        .collect()
}

fn delay_items(spec: &DelaySpec, seed: u64, slot: u64, rng: &mut SplitMix64, out: &mut Vec<Item>) {
    for pair in 0..spec.pairs {
        let (hi, lo) = (pair / 250, pair % 250);
        let (near, far, dst) = (
            ip(10, hi, lo, 1),
            ip(10, hi, lo, 2),
            ip(198, 51 + hi, lo, 1),
        );
        let link_ms = 5.0 + (pair % 17) as f64;
        let probes = if DelaySpec::deep(pair) {
            DelaySpec::DEEP_PROBES
        } else {
            DelaySpec::PROBES
        };
        for p in 0..probes {
            let probe = (pair * 64 + p) as u32;
            // The return-path asymmetry of a (probe, link) does not change
            // from bin to bin, so it comes from the key, not from `rng`.
            let asym =
                SplitMix64::new(seed ^ 0xA5 ^ (u64::from(probe) << 8)).next_range_f64(-1.0, 1.0);
            for shot in 0..DelaySpec::SHOTS {
                let base = 10.0 + rng.next_range_f64(0.0, 2.0);
                let near_r = replies3(near, base, rng);
                let far_r = replies3(far, base + link_ms + asym, rng);
                let dst_r = replies3(dst, base + link_ms + asym + 2.0, rng);
                let make = |far_r: Vec<Reply>, dst_r: Vec<Reply>| TracerouteRecord {
                    msm_id: MeasurementId(5000 + pair as u32),
                    probe_id: ProbeId(probe),
                    probe_asn: Asn(64000 + (p % 5) as u32),
                    dst,
                    timestamp: SimTime(slot * 3600 + shot as u64 * 1200),
                    paris_id: shot as u16,
                    hops: vec![
                        Hop::new(1, near_r.clone()),
                        Hop::new(2, far_r),
                        Hop::new(3, dst_r),
                    ],
                    destination_reached: true,
                };
                // Shifting the far hop and everything behind it moves
                // the (near, far) link only.
                let alt = DelaySpec::planted(pair).then(|| {
                    (
                        Planted::Delay,
                        make(
                            shifted(&far_r, DELAY_SHIFT_MS),
                            shifted(&dst_r, DELAY_SHIFT_MS),
                        ),
                    )
                });
                out.push(Item {
                    rec: make(far_r, dst_r),
                    alt,
                    churn: None,
                });
            }
        }
    }
}

/// The destination a churn slot traces in the epoch that covers `bin`.
fn churn_dst(slot: u32, bin: u64) -> Ipv4Addr {
    let epoch = (bin + u64::from(slot)) / CHURN_LIFETIME;
    Ipv4Addr::from(0xCB00_0000 | ((epoch * 1024 + u64::from(slot)) & 0x00FF_FFFF) as u32)
}

fn forwarding_items(
    spec: &ForwardingSpec,
    seed: u64,
    slot: u64,
    rng: &mut SplitMix64,
    out: &mut Vec<Item>,
) {
    let pick = |u: f64| {
        let mut acc = 0.0;
        ForwardingSpec::FANOUT
            .iter()
            .position(|w| {
                acc += w;
                u < acc
            })
            .unwrap_or(ForwardingSpec::FANOUT.len() - 1)
    };
    for r in 0..spec.routers {
        let (hi, lo) = (r / 250, r % 250);
        let router = ip(10, 200 + hi, lo, 1);
        let flip_to = ip(10, 214, hi, lo);
        for d in 0..ForwardingSpec::DSTS {
            let dst = ip(198, 60 + d, hi, lo);
            for shot in 0..ForwardingSpec::SHOTS {
                let probe = ((r * ForwardingSpec::DSTS + d) * ForwardingSpec::SHOTS + shot) as u32;
                let base = 8.0 + rng.next_range_f64(0.0, 2.0);
                // Paris traceroute keeps a flow on one next hop: the hop
                // comes from the probe, and only now and then from the bin.
                let usual =
                    pick(SplitMix64::new(seed ^ 0xF10 ^ (u64::from(probe) << 8)).next_f64());
                let h = if rng.next_bool(ForwardingSpec::REROUTE_SHARE) {
                    pick(rng.next_f64())
                } else {
                    usual
                };
                let next: Vec<Reply> = (0..3)
                    .map(|_| {
                        if rng.next_bool(ForwardingSpec::TIMEOUT_SHARE) {
                            Reply::TIMEOUT
                        } else {
                            Reply::new(
                                ip(10, 210 + h, hi, lo),
                                base + 1.0 + rng.next_range_f64(0.0, 0.5),
                            )
                        }
                    })
                    .collect();
                let make = |next: Vec<Reply>| TracerouteRecord {
                    msm_id: MeasurementId(9000 + r as u32),
                    probe_id: ProbeId(7_000_000 + probe),
                    // Two ASes: below the diversity floor, so the delay
                    // path drops these links right after grouping.
                    probe_asn: Asn(64900 + probe % 2),
                    dst,
                    timestamp: SimTime(slot * 3600 + shot as u64 * 1100),
                    paris_id: shot as u16,
                    hops: vec![
                        Hop::new(1, vec![Reply::new(router, base); 3]),
                        Hop::new(2, next),
                    ],
                    destination_reached: false,
                };
                let alt = ForwardingSpec::flipped(r).then(|| {
                    let flipped = next
                        .iter()
                        .map(|reply| Reply {
                            from: reply.from.map(|_| flip_to),
                            rtt_ms: reply.rtt_ms,
                        })
                        .collect();
                    (Planted::Flip, make(flipped))
                });
                out.push(Item {
                    rec: make(next),
                    alt,
                    churn: ForwardingSpec::churn_slot(r, d),
                });
            }
        }
    }
}

fn path_items(spec: &PathSpec, slot: u64, rng: &mut SplitMix64, out: &mut Vec<Item>) {
    for p in 0..spec.paths {
        let dst = ip(198, 70, p / 250, p % 250);
        for probe in 0..PathSpec::PROBES {
            let probe_id = 8_000_000 + (p * PathSpec::PROBES + probe) as u32;
            for shot in 0..PathSpec::SHOTS {
                let base = 12.0 + rng.next_range_f64(0.0, 0.7);
                let hops = (0..PathSpec::HOPS)
                    .map(|h| {
                        Hop::new(
                            h as u8 + 1,
                            replies3(
                                ip(10, 100 + p / 250, h, p % 250),
                                base + h as f64 * 1.5,
                                rng,
                            ),
                        )
                    })
                    .collect();
                out.push(Item::plain(TracerouteRecord {
                    msm_id: MeasurementId(11_000 + p as u32),
                    probe_id: ProbeId(probe_id),
                    probe_asn: Asn(64800 + (probe % 2) as u32),
                    dst,
                    timestamp: SimTime(slot * 3600 + shot as u64 * 900),
                    paris_id: shot as u16,
                    hops,
                    destination_reached: true,
                }));
            }
        }
    }
}

/// Corrupt `rec` the way a real feed does. Loops and impossible RTTs are
/// quarantined by the sanitizer; a duplicated adjacent hop is repaired.
fn corrupt(rec: &mut TracerouteRecord, rng: &mut SplitMix64) {
    let n = rec.hops.len();
    match rng.next_below(3) {
        0 if n >= 4 => {
            let from = rng.next_below(n as u64 - 3) as usize;
            rec.hops[from + 2].replies = rec.hops[from].replies.clone();
        }
        1 if n >= 3 => {
            let at = rng.next_below(n as u64 - 1) as usize;
            let copy = rec.hops[at].clone();
            rec.hops.insert(at + 1, copy);
        }
        _ => {
            let at = rng.next_below(n as u64) as usize;
            rec.hops[at].replies[0].rtt_ms = Some(if rng.next_bool(0.5) {
                86_400_000.0
            } else {
                -1.0
            });
        }
    }
}

/// One ring slot: the feeds of every stream plus what can replace their
/// records.
struct Slot {
    feeds: Vec<Vec<TracerouteRecord>>,
    /// `(stream, index, schedule, the record not currently in the feed)`.
    alts: Vec<(u32, u32, Planted, TracerouteRecord)>,
    /// Which schedules' alternates are currently swapped in.
    swapped: [bool; 2],
    /// `(stream, index, churn slot)`.
    churn: Vec<(u32, u32, u32)>,
}

/// A bin sequence for a solo analyzer (one feed) or a fleet (one feed
/// per member). See the [module docs](self).
pub struct Stream {
    slots: Vec<Slot>,
    spec: StreamSpec,
    members: usize,
    /// CRC-32 over the canonical fields of every generated record.
    pub input_digest: u32,
}

/// Fold the canonical fields of one record into a digest buffer.
fn canonical(rec: &TracerouteRecord, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&rec.msm_id.0.to_le_bytes());
    buf.extend_from_slice(&rec.probe_id.0.to_le_bytes());
    buf.extend_from_slice(&rec.probe_asn.0.to_le_bytes());
    buf.extend_from_slice(&rec.dst.octets());
    buf.extend_from_slice(&rec.timestamp.0.to_le_bytes());
    buf.extend_from_slice(&rec.paris_id.to_le_bytes());
    buf.push(u8::from(rec.destination_reached));
    for hop in &rec.hops {
        buf.push(hop.ttl);
        for reply in &hop.replies {
            buf.extend_from_slice(&reply.from.map_or([0; 4], |a| a.octets()));
            buf.extend_from_slice(&reply.rtt_ms.map_or(u64::MAX, f64::to_bits).to_le_bytes());
        }
    }
}

impl Stream {
    /// Generate `members` feeds of `spec`-shaped bins from `seed`.
    pub fn generate(spec: StreamSpec, members: usize, seed: u64) -> Stream {
        let mut digest_buf = Vec::new();
        let mut digest = 0u32;
        let slots = (0..RING as u64)
            .map(|slot| {
                let mut out = Slot {
                    feeds: Vec::with_capacity(members),
                    alts: Vec::new(),
                    swapped: [false; 2],
                    churn: Vec::new(),
                };
                for member in 0..members {
                    let member_seed = seed ^ 0xA5A5u64.wrapping_mul(member as u64 + 1);
                    let mut rng = SplitMix64::new(member_seed ^ slot.wrapping_mul(0x9E37_79B9));
                    let mut items = Vec::with_capacity(spec.records());
                    if let Some(d) = &spec.delay {
                        delay_items(d, member_seed, slot, &mut rng, &mut items);
                    }
                    if let Some(f) = &spec.forwarding {
                        forwarding_items(f, member_seed, slot, &mut rng, &mut items);
                    }
                    if let Some(p) = &spec.paths {
                        path_items(p, slot, &mut rng, &mut items);
                    }
                    if spec.dirty {
                        for item in items
                            .iter_mut()
                            .filter(|i| i.alt.is_none() && i.churn.is_none())
                        {
                            // Long paths take most of the damage: loops and
                            // duplicated hops need hops to act on.
                            let share = if item.rec.hops.len() > 2 { 0.06 } else { 0.012 };
                            if rng.next_bool(share) {
                                corrupt(&mut item.rec, &mut rng);
                            }
                        }
                    }
                    // Probe-major arrival: a link's records are spread
                    // over the bin, so every shard's keys arrive unsorted.
                    rng.shuffle(&mut items);
                    let mut feed = Vec::with_capacity(items.len());
                    for (i, item) in items.into_iter().enumerate() {
                        canonical(&item.rec, &mut digest_buf);
                        if let Some((planted, alt)) = item.alt {
                            canonical(&alt, &mut digest_buf);
                            out.alts.push((member as u32, i as u32, planted, alt));
                        }
                        if let Some(slot) = item.churn {
                            out.churn.push((member as u32, i as u32, slot));
                        }
                        feed.push(item.rec);
                    }
                    digest = crc32(&digest_buf) ^ digest.rotate_left(1);
                    digest_buf.clear();
                    out.feeds.push(feed);
                }
                out
            })
            .collect();
        Stream {
            slots,
            spec,
            members,
            input_digest: digest,
        }
    }

    /// Feeds per bin (1 for a solo analyzer).
    pub fn members(&self) -> usize {
        self.members
    }

    /// Records per bin over all members.
    pub fn records_per_bin(&self) -> usize {
        self.spec.records() * self.members
    }

    /// Diversity-passing links per bin over all members.
    pub fn links(&self) -> usize {
        self.spec.delay.map_or(0, |d| d.links()) * self.members
    }

    /// Links carrying the planted shift, over all members.
    pub fn planted_links(&self) -> usize {
        self.spec.delay.map_or(0, |d| d.planted_links()) * self.members
    }

    /// Fan-out patterns per bin over all members.
    pub fn patterns(&self) -> usize {
        self.spec.forwarding.map_or(0, |f| f.patterns()) * self.members
    }

    /// Patterns whose router flips in a planted window, over all members.
    pub fn planted_patterns(&self) -> usize {
        self.spec.forwarding.map_or(0, |f| f.planted_patterns()) * self.members
    }

    /// The feeds of bin `bin`, one per member. Swaps planted alternates
    /// in or out and rewrites churned destinations as `bin` requires; the
    /// result depends on `bin` only, not on which bins were asked before.
    pub fn bin(&mut self, bin: u64) -> &[Vec<TracerouteRecord>] {
        let slot = &mut self.slots[(bin % RING as u64) as usize];
        for planted in [Planted::Delay, Planted::Flip] {
            if slot.swapped[planted as usize] != planted.on_at(bin) {
                slot.swapped[planted as usize] = planted.on_at(bin);
                for (member, i, kind, other) in &mut slot.alts {
                    if *kind == planted {
                        std::mem::swap(&mut slot.feeds[*member as usize][*i as usize], other);
                    }
                }
            }
        }
        for &(member, i, churn) in &slot.churn {
            slot.feeds[member as usize][i as usize].dst = churn_dst(churn, bin);
        }
        &slot.feeds
    }

    /// Approximate heap bytes held by the generated records.
    pub fn heap_bytes(&self) -> usize {
        let record = |r: &TracerouteRecord| {
            std::mem::size_of::<TracerouteRecord>()
                + r.hops
                    .iter()
                    .map(|h| {
                        std::mem::size_of::<Hop>() + h.replies.len() * std::mem::size_of::<Reply>()
                    })
                    .sum::<usize>()
        };
        self.slots
            .iter()
            .map(|s| {
                s.feeds.iter().flatten().map(record).sum::<usize>()
                    + s.alts.iter().map(|(.., r)| record(r)).sum::<usize>()
            })
            .sum()
    }
}

/// Origin ASes of the benchmark's address plan.
const PLAN: [(&str, u32); 12] = [
    ("10.0.0.0/16", 65000),
    ("10.1.0.0/16", 65001),
    ("10.100.0.0/16", 65040),
    ("10.200.0.0/15", 65020),
    ("10.210.0.0/16", 65030),
    ("10.211.0.0/16", 65031),
    ("10.212.0.0/16", 65032),
    ("10.213.0.0/16", 65033),
    ("10.214.0.0/16", 65034),
    ("198.51.0.0/16", 65010),
    ("198.52.0.0/16", 65011),
    ("198.60.0.0/14", 65012),
];

/// IP→AS mapper over the benchmark's address plan.
pub fn mapper() -> AsMapper {
    AsMapper::from_prefixes(
        PLAN.iter()
            .map(|(prefix, asn)| (prefix.parse::<Prefix>().expect("static prefix"), Asn(*asn))),
    )
}

/// Every AS of the plan, registered for magnitude tracking from bin 0 so
/// that `/asn/{id}/timeline` exists for each.
pub fn plan_ases() -> Vec<Asn> {
    PLAN.iter().map(|(_, asn)| Asn(*asn)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_core::sanitize::sanitize_records;
    use pinpoint_core::{Analyzer, DetectorConfig};
    use pinpoint_model::BinId;

    fn small(spec: StreamSpec) -> StreamSpec {
        StreamSpec {
            delay: spec.delay.map(|_| DelaySpec { pairs: 20 }),
            forwarding: spec.forwarding.map(|_| ForwardingSpec { routers: 20 }),
            paths: spec.paths.map(|_| PathSpec { paths: 6 }),
            dirty: spec.dirty,
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed_and_differs_across_seeds() {
        let spec = small(StreamSpec::mixed());
        let mut a = Stream::generate(spec, 1, 7);
        let mut b = Stream::generate(spec, 1, 7);
        let mut c = Stream::generate(spec, 1, 8);
        assert_eq!(a.input_digest, b.input_digest);
        assert_ne!(a.input_digest, c.input_digest);
        for bin in [0, 5, 47, 57, 64] {
            assert_eq!(a.bin(bin), b.bin(bin));
            assert_ne!(a.bin(bin), c.bin(bin));
        }
        assert_eq!(a.bin(0)[0].len(), spec.records());
    }

    #[test]
    fn a_bin_depends_on_its_id_only() {
        let spec = small(StreamSpec::mixed());
        let mut walked = Stream::generate(spec, 1, 7);
        for bin in 0..130 {
            walked.bin(bin);
        }
        let mut fresh = Stream::generate(spec, 1, 7);
        // 47 is a shifted bin, 63 = 47 + RING is not; 57 is flipped.
        for bin in [63, 47, 57, 73, 129] {
            assert_eq!(walked.bin(bin), fresh.bin(bin), "bin {bin}");
        }
        let shifted = fresh.bin(47)[0].clone();
        assert_ne!(shifted, fresh.bin(63)[0], "the shift must change the slot");
    }

    #[test]
    fn churn_replaces_a_hundredth_of_the_patterns_per_bin() {
        let spec = StreamSpec::forwarding_dirty();
        let mut s = Stream::generate(spec, 1, 7);
        let dsts = |s: &mut Stream, bin| -> std::collections::BTreeSet<Ipv4Addr> {
            s.bin(bin)[0].iter().map(|r| r.dst).collect()
        };
        let (a, b) = (dsts(&mut s, 100), dsts(&mut s, 101));
        let new = b.difference(&a).count();
        assert_eq!(new, 12, "120 churn slots / lifetime 10");
        assert_eq!(new * 100, spec.forwarding.unwrap().patterns());
    }

    #[test]
    fn delay_links_pass_the_diversity_floor_and_fleet_links_do_not() {
        let cfg = DetectorConfig::default();
        let mut delay = Stream::generate(small(StreamSpec::delay_heavy()), 1, 7);
        let report = Analyzer::new(cfg.clone(), mapper()).process_bin(BinId(0), &delay.bin(0)[0]);
        assert_eq!(report.link_stats.len(), delay.links());

        let mut fleet = Stream::generate(small(StreamSpec::forwarding_dirty()), 3, 7);
        assert_eq!(fleet.members(), 3);
        for feed in fleet.bin(0).to_vec() {
            let mut analyzer = Analyzer::new(cfg.clone(), mapper());
            let report = analyzer.process_bin(BinId(0), &feed);
            assert!(report.link_stats.is_empty());
            assert!(analyzer.tracked_patterns() >= 20 * 4);
        }
    }

    #[test]
    fn artifacts_make_the_sanitizer_quarantine_and_repair() {
        let mut s = Stream::generate(StreamSpec::forwarding_dirty(), 1, 7);
        let feed = &s.bin(0)[0];
        let (clean, stats) = sanitize_records(feed, &DetectorConfig::default());
        assert!(stats.bin_repaired > 0, "duplicated hops are repaired");
        assert!(stats.quarantined_loops > 0 && stats.quarantined_rtt > 0);
        let touched = (stats.bin_quarantined + stats.bin_repaired) as f64 / feed.len() as f64;
        assert!((0.02..0.04).contains(&touched), "dirty share {touched}");
        assert_eq!(
            clean.len() as u64,
            feed.len() as u64 - stats.bin_quarantined
        );
    }

    #[test]
    fn sizes_match_the_documented_shapes() {
        let d = StreamSpec::delay_heavy();
        assert_eq!((d.records(), d.delay.unwrap().links()), (13_120, 800));
        assert_eq!(d.delay.unwrap().planted_links(), 40);
        let f = StreamSpec::forwarding_dirty();
        assert_eq!(
            (f.records(), f.forwarding.unwrap().patterns()),
            (6_000, 1_200)
        );
        assert_eq!(f.forwarding.unwrap().planted_patterns(), 120);
        assert_eq!(StreamSpec::mixed().records(), 13_112);
    }
}
