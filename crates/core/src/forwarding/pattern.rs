//! Packet-forwarding patterns (§5.1).
//!
//! For every responsive hop in a traceroute, the packets probing the *next*
//! TTL reveal where that router forwarded them: each reply from address B
//! adds one packet to B's count; each timeout adds one packet to the
//! aggregated unresponsive bucket Z ("next hops that do not send back ICMP
//! packets to the probes or drop packets are said to be unresponsive and
//! are indissociable in traceroutes"). Patterns are per (router IP,
//! traceroute destination) because forwarding is destination-dependent.

use crate::engine::{self, ShardKey, SnapshotKey};
use crate::ingest::{pack, ArenaSpec, Chunk, EpochArena, Interner, Lent, Wave, SENTINEL};
use crate::snapshot::{Reader, SnapshotError, Writer};
use pinpoint_model::records::TracerouteRecord;
use std::net::Ipv4Addr;

/// A next-hop slot in a forwarding pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NextHop {
    /// A responsive next hop.
    Ip(Ipv4Addr),
    /// The aggregated unresponsive bucket (the paper's Z).
    Unresponsive,
}

impl std::fmt::Display for NextHop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NextHop::Ip(ip) => write!(f, "{ip}"),
            NextHop::Unresponsive => write!(f, "*"),
        }
    }
}

/// Key of a forwarding pattern: the router and the traceroute target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternKey {
    /// The router whose forwarding is modeled.
    pub router: Ipv4Addr,
    /// The traceroute destination the model is specific to.
    pub dst: Ipv4Addr,
}

impl SnapshotKey for PatternKey {
    fn write(&self, w: &mut Writer) {
        w.ip(self.router);
        w.ip(self.dst);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(PatternKey {
            router: r.ip()?,
            dst: r.ip()?,
        })
    }
}

/// Stable shard assignment for a pattern key (FxHash — see
/// [`crate::engine`] for the determinism contract).
impl ShardKey for PatternKey {
    #[inline]
    fn shard(&self) -> usize {
        engine::shard_of_hashed(self)
    }
}

impl SnapshotKey for NextHop {
    fn write(&self, w: &mut Writer) {
        match self {
            NextHop::Ip(ip) => {
                w.u8(0);
                w.ip(*ip);
            }
            NextHop::Unresponsive => w.u8(1),
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(NextHop::Ip(r.ip()?)),
            1 => Ok(NextHop::Unresponsive),
            _ => Err(SnapshotError::Corrupt("next-hop tag")),
        }
    }
}

/// One pattern's view into the arena: the key plus its `(hop, packets)`
/// rows, resolved against the arena's hop intern table.
#[derive(Debug, Clone, Copy)]
pub struct PatternSlice<'a> {
    /// The (router, destination) this pattern belongs to.
    pub key: PatternKey,
    counts: &'a [(u32, f64)],
    hops: &'a [NextHop],
}

impl<'a> PatternSlice<'a> {
    /// Packet count for a hop (0 if absent). Linear scan — the paper
    /// reports ~4 next hops per model on average.
    pub fn get(&self, hop: &NextHop) -> f64 {
        self.counts
            .iter()
            .find(|(slot, _)| self.hops[*slot as usize] == *hop)
            .map_or(0.0, |(_, c)| *c)
    }

    /// Iterate `(hop, packets)`.
    pub fn iter(&self) -> impl Iterator<Item = (NextHop, f64)> + 'a {
        let hops = self.hops;
        self.counts
            .iter()
            .map(move |(slot, c)| (hops[*slot as usize], *c))
    }

    /// Number of distinct next hops (including Z if present).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no packets were recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total packets.
    pub fn total(&self) -> f64 {
        self.counts.iter().map(|(_, c)| *c).sum()
    }
}

/// The forwarding side of the shared arena: (router, destination)
/// pattern keys (sharded) × next hops, no side payload. A staged row is
/// `(pack(pattern id, hop slot), packets)`; the hop half may be
/// [`SENTINEL`] (presence-only row).
#[derive(Debug)]
pub(crate) struct PatternSpec;

/// The engine's flat, sharded, bin-reusable forwarding-pattern store.
pub(crate) type PatternArena = EpochArena<PatternSpec>;

impl ArenaSpec for PatternSpec {
    type Key = PatternKey;
    type Side = NextHop;
    type Payload = ();
    type Tail = f64;
    /// Per-(record, router-hop) accumulation scratch: the observation's
    /// packets counted by next-hop value, in first-touch order, before
    /// any id is resolved.
    type Staged = Vec<(NextHop, f64)>;
    type Row = (u64, f64);
    type Rows = PatternShardRows;

    /// Replies landing on the same next hop within one (record, router)
    /// observation are counted by value first, and only then resolved:
    /// one `resolve_side` per *distinct* next hop and one `(key, n)` row
    /// for it, instead of one lookup per packet. Distinct hops are
    /// resolved in first-touch order — the order the per-reply resolve
    /// met them — so pending ids, the merge's interning order and the
    /// rows are the same as resolving every reply. A router observed with
    /// no next-hop packets at all (empty or all-repeated successor
    /// replies) pushes one [`SENTINEL`] presence row, so the pattern
    /// still exists this bin and its reference still decays.
    fn scatter(
        chunk: &mut Chunk<Self>,
        rec: &TracerouteRecord,
        patterns: &[Interner<PatternKey>],
        hops: &Interner<NextHop>,
    ) {
        let Chunk {
            rows,
            staged: acc,
            ids,
        } = chunk;
        for i in 0..rec.hops.len().saturating_sub(1) {
            let Some(router) = rec.hops[i].first_responder() else {
                continue;
            };
            let key = PatternKey {
                router,
                dst: rec.dst,
            };
            let (s, local) = ids.resolve_key(patterns, key);
            acc.clear();
            for reply in &rec.hops[i + 1].replies {
                let hop = match reply.from {
                    Some(ip) if ip != router => NextHop::Ip(ip),
                    // A repeated address (TTL quirk) is not a next hop.
                    Some(_) => continue,
                    None => NextHop::Unresponsive,
                };
                match acc.iter_mut().find(|(seen, _)| *seen == hop) {
                    Some((_, packets)) => *packets += 1.0,
                    None => acc.push((hop, 1.0)),
                }
            }
            let rows = &mut rows[s];
            if acc.is_empty() {
                rows.push((pack(local, SENTINEL), 0.0));
            } else {
                for &(hop, packets) in acc.iter() {
                    rows.push((pack(local, ids.resolve_side(hops, hop, ())), packets));
                }
            }
        }
    }

    #[inline]
    fn row(key: u64, _chunk: u32, packets: f64) -> (u64, f64) {
        (key, packets)
    }

    #[inline]
    fn lent(rows: &mut PatternShardRows) -> &mut Lent<(u64, f64)> {
        &mut rows.lent
    }

    #[inline]
    fn finalize(rows: &mut PatternShardRows, _wave: Wave<'_, Self>) {
        rows.finalize();
    }

    #[inline]
    fn observed(rows: &PatternShardRows) -> impl Iterator<Item = u32> + '_ {
        rows.entries.iter().map(|&(local, _, _)| local)
    }
}

/// One shard's row workspace: the grouped layout of its bin's pattern
/// rows, the buffers lent to its job, and the job's check buffers
/// (`work`). The arena's gather concatenates the bin's chunk rows into
/// the lent `rows` in chunk order; `finalize` (run in the shard's job)
/// sorts and groups them into `pool`/`entries`, after which the job hands
/// the lent buffers back. Holds no epoch state — the shard's pattern
/// intern table lives in the arena.
#[derive(Debug, Default)]
pub(crate) struct PatternShardRows {
    /// `(pattern_local << 32 | hop_slot, packets)` — 16 bytes, sorted by
    /// key at finalize — and the radix ping-pong scratch; both lent from
    /// the arena for the job and empty outside it.
    lent: Lent<(u64, f64)>,
    /// Grouped `(hop_slot, packets)` per observed pattern.
    pool: Vec<(u32, f64)>,
    /// `(pattern_local, pool start, pool len)` per observed pattern, in
    /// local-id order. Presence-only patterns have `len == 0`. Doubles as
    /// the observed-pattern list the arena's post-wave stamp fence walks.
    entries: Vec<(u32, u32, u32)>,
    /// The shard job's scratch and output, reused bin after bin.
    pub(super) work: super::FwdShardWork,
}

impl PatternShardRows {
    /// Sort this shard's rows and lay out the grouped pool/entry indexes.
    /// Every pattern with at least one row this bin gets an entry —
    /// including presence-only ones (a hop whose successor sent no
    /// packets), whose empty observation must still decay its reference.
    /// Safe to run concurrently
    /// across shards: observed patterns are stamped by the arena's
    /// serial fence from the entry list this lays out.
    fn finalize(&mut self) {
        self.pool.clear();
        self.entries.clear();
        let Lent { rows, scratch } = &mut self.lent;
        // One u64-keyed sort over a small, cache-resident shard. Equal keys
        // are summed; the addends are whole packets, so the sum is exact
        // and independent of row order — which is also why the stable
        // radix path and the unstable comparison path yield identical
        // pools. SENTINEL sorts after every real hop slot, so presence
        // rows are consumed at the end of a group.
        if rows.len() >= pinpoint_stats::RADIX_MIN_KEYS {
            pinpoint_stats::sort_by_u64_key(rows, scratch, |r| r.0);
        } else {
            rows.sort_unstable_by_key(|r| r.0);
        }
        let mut i = 0;
        while i < rows.len() {
            let local = (rows[i].0 >> 32) as u32;
            let start = self.pool.len() as u32;
            while i < rows.len() && (rows[i].0 >> 32) as u32 == local {
                let key = rows[i].0;
                let slot = key as u32;
                let mut packets = 0.0;
                while i < rows.len() && rows[i].0 == key {
                    packets += rows[i].1;
                    i += 1;
                }
                if slot != SENTINEL {
                    self.pool.push((slot, packets));
                }
            }
            self.entries
                .push((local, start, self.pool.len() as u32 - start));
        }
    }

    /// Patterns observed in this shard's current bin (after `finalize`).
    pub(crate) fn pattern_count(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn pattern_in<'a>(
        &'a self,
        j: usize,
        keys: &'a [PatternKey],
        hops: &'a [NextHop],
    ) -> PatternSlice<'a> {
        let (local, start, len) = self.entries[j];
        PatternSlice {
            key: keys[local as usize],
            counts: &self.pool[start as usize..(start + len) as usize],
            hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_model::records::{Hop, Reply};
    use pinpoint_model::{Asn, BinId, MeasurementId, ProbeId, SimTime};
    use std::collections::BTreeMap;

    impl<'a> PatternSlice<'a> {
        /// A slice over hand-made rows: each count's slot indexes `hops`.
        pub(crate) fn from_parts(
            key: PatternKey,
            counts: &'a [(u32, f64)],
            hops: &'a [NextHop],
        ) -> Self {
            PatternSlice { key, counts, hops }
        }
    }

    impl PatternArena {
        /// Iterate every pattern of the current bin (after the shard wave;
        /// arbitrary but deterministic order).
        pub(crate) fn patterns(&self) -> impl Iterator<Item = PatternSlice<'_>> {
            let hops = self.wave().sides();
            self.shards().flat_map(move |(shard, keys)| {
                (0..shard.pattern_count()).map(move |j| shard.pattern_in(j, keys, hops))
            })
        }
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn rec(dst: &str, hops: Vec<Hop>) -> TracerouteRecord {
        TracerouteRecord {
            msm_id: MeasurementId(1),
            probe_id: ProbeId(1),
            probe_asn: Asn(64500),
            dst: ip(dst),
            timestamp: SimTime(0),
            paris_id: 0,
            hops,
            destination_reached: true,
        }
    }

    fn hop(ttl: u8, replies: &[Option<&str>]) -> Hop {
        Hop::new(
            ttl,
            replies
                .iter()
                .map(|r| match r {
                    Some(a) => Reply::new(ip(a), 1.0),
                    None => Reply::TIMEOUT,
                })
                .collect(),
        )
    }

    /// One bin through a fresh arena, as `key → (next hop → packets)`.
    fn arena_patterns(
        records: &[TracerouteRecord],
    ) -> BTreeMap<PatternKey, BTreeMap<NextHop, f64>> {
        let mut arena = PatternArena::default();
        arena.build(records);
        arena
            .patterns()
            .map(|slice| (slice.key, slice.iter().collect()))
            .collect()
    }

    fn key(router: &str, dst: &str) -> PatternKey {
        PatternKey {
            router: ip(router),
            dst: ip(dst),
        }
    }

    /// Packets per next hop; `None` is the unresponsive bucket Z.
    fn counts(spec: &[(Option<&str>, f64)]) -> BTreeMap<NextHop, f64> {
        spec.iter()
            .map(|&(hop, packets)| {
                (
                    hop.map_or(NextHop::Unresponsive, |a| NextHop::Ip(ip(a))),
                    packets,
                )
            })
            .collect()
    }

    #[test]
    fn counts_responsive_and_unresponsive_packets() {
        // Router R forwards 3 packets: two reach B, one is lost.
        let r = rec(
            "198.51.100.1",
            vec![
                hop(1, &[Some("10.0.0.1"); 3]),
                hop(2, &[Some("10.0.1.1"), Some("10.0.1.1"), None]),
            ],
        );
        assert_eq!(
            arena_patterns(&[r]),
            BTreeMap::from([(
                key("10.0.0.1", "198.51.100.1"),
                counts(&[(Some("10.0.1.1"), 2.0), (None, 1.0)])
            )])
        );
    }

    #[test]
    fn patterns_are_destination_specific() {
        let r1 = rec(
            "198.51.100.1",
            vec![hop(1, &[Some("10.0.0.1")]), hop(2, &[Some("10.0.1.1")])],
        );
        let r2 = rec(
            "198.51.100.2",
            vec![hop(1, &[Some("10.0.0.1")]), hop(2, &[Some("10.0.2.1")])],
        );
        assert_eq!(
            arena_patterns(&[r1, r2]),
            BTreeMap::from([
                (
                    key("10.0.0.1", "198.51.100.1"),
                    counts(&[(Some("10.0.1.1"), 1.0)])
                ),
                (
                    key("10.0.0.1", "198.51.100.2"),
                    counts(&[(Some("10.0.2.1"), 1.0)])
                ),
            ])
        );
    }

    #[test]
    fn silent_hop_contributes_counts_but_no_model() {
        // Hop 2 is fully silent: hop 1's model counts 3 unresponsive
        // packets; no model is created for the silent hop itself.
        let r = rec(
            "198.51.100.1",
            vec![
                hop(1, &[Some("10.0.0.1"); 3]),
                hop(2, &[None, None, None]),
                hop(3, &[Some("10.0.2.1"); 3]),
            ],
        );
        assert_eq!(
            arena_patterns(&[r]),
            BTreeMap::from([(key("10.0.0.1", "198.51.100.1"), counts(&[(None, 3.0)]))])
        );
    }

    #[test]
    fn accumulates_over_traceroutes() {
        let mk = || {
            rec(
                "198.51.100.1",
                vec![
                    hop(1, &[Some("10.0.0.1"); 3]),
                    hop(2, &[Some("10.0.1.1"); 3]),
                ],
            )
        };
        assert_eq!(
            arena_patterns(&[mk(), mk()]),
            BTreeMap::from([(
                key("10.0.0.1", "198.51.100.1"),
                counts(&[(Some("10.0.1.1"), 6.0)])
            )])
        );
    }

    #[test]
    fn last_hop_has_no_pattern() {
        let r = rec("198.51.100.1", vec![hop(1, &[Some("10.0.0.1"); 3])]);
        assert!(arena_patterns(&[r]).is_empty());
    }

    #[test]
    fn arena_groups_interleaved_records_exactly() {
        // Interleaved records across several routers, destinations, and
        // reply mixes (responsive, unresponsive, repeated-address quirks)
        // must regroup into the hand-counted patterns. Those shards stay
        // below `RADIX_MIN_KEYS` rows (comparison sort); the fan-out
        // appended below gives ONE (router, destination) pattern more
        // distinct next hops than the threshold, so its shard takes the
        // radix sort.
        let mut recs = vec![
            rec(
                "198.51.100.1",
                vec![
                    hop(1, &[Some("10.0.0.1"); 3]),
                    hop(2, &[Some("10.0.1.1"), Some("10.0.1.2"), None]),
                    hop(3, &[Some("10.0.2.1"); 3]),
                ],
            ),
            rec(
                "198.51.100.2",
                vec![
                    hop(1, &[Some("10.0.0.1"); 3]),
                    // Repeated address: not a next hop.
                    hop(2, &[Some("10.0.0.1"), Some("10.0.1.9"), None]),
                ],
            ),
            rec(
                "198.51.100.1",
                vec![
                    hop(1, &[Some("10.0.0.1"); 3]),
                    hop(2, &[Some("10.0.1.1"); 2]),
                ],
            ),
        ];
        let fan_out = pinpoint_stats::RADIX_MIN_KEYS + 6;
        // Descending next hops, so the packed row keys arrive unsorted.
        let next = |k: usize| format!("10.0.6.{k}");
        recs.extend((0..fan_out).rev().map(|k| {
            rec(
                "198.51.100.9",
                vec![
                    hop(1, &[Some("10.0.5.1"); 3]),
                    hop(2, &[Some(next(k).as_str()); 3]),
                ],
            )
        }));
        let mut want = BTreeMap::from([
            (
                key("10.0.0.1", "198.51.100.1"),
                counts(&[
                    (Some("10.0.1.1"), 3.0),
                    (Some("10.0.1.2"), 1.0),
                    (None, 1.0),
                ]),
            ),
            (
                key("10.0.1.1", "198.51.100.1"),
                counts(&[(Some("10.0.2.1"), 3.0)]),
            ),
            (
                key("10.0.0.1", "198.51.100.2"),
                counts(&[(Some("10.0.1.9"), 1.0), (None, 1.0)]),
            ),
        ]);
        want.insert(
            key("10.0.5.1", "198.51.100.9"),
            (0..fan_out)
                .map(|k| (NextHop::Ip(ip(&next(k))), 3.0))
                .collect(),
        );
        assert_eq!(arena_patterns(&recs), want);
        let mut arena = PatternArena::default();
        arena.build(&recs);
        assert!(
            arena
                .shards()
                .any(|(shard, _)| shard.lent.rows.len() >= pinpoint_stats::RADIX_MIN_KEYS),
            "no shard crossed the radix threshold"
        );
    }

    #[test]
    fn arena_keeps_packet_less_patterns() {
        // Hop 2 exists but its replies resolve to no next-hop packets at
        // all (empty reply list). The arena must still produce the empty
        // pattern — its reference decays on empty observations.
        let r = rec(
            "198.51.100.1",
            vec![hop(1, &[Some("10.0.0.1"); 3]), Hop::new(2, Vec::new())],
        );
        assert_eq!(
            arena_patterns(&[r]),
            BTreeMap::from([(key("10.0.0.1", "198.51.100.1"), BTreeMap::new())])
        );
    }

    #[test]
    fn packet_less_pattern_stays_when_interned_in_an_earlier_bin() {
        // Bin 1 observes the pattern with packets; bin 2 observes it with
        // an empty successor hop. With persistent interning, presence this
        // bin must come from this bin's rows — not from the epoch table —
        // so bin 2 must still yield exactly one (empty) pattern.
        let with_packets = rec(
            "198.51.100.1",
            vec![hop(1, &[Some("10.0.0.1"); 3]), hop(2, &[Some("10.0.1.1")])],
        );
        let empty_successor = rec(
            "198.51.100.1",
            vec![hop(1, &[Some("10.0.0.1"); 3]), Hop::new(2, Vec::new())],
        );
        let mut arena = PatternArena::default();
        arena.build(std::slice::from_ref(&with_packets));
        assert_eq!(arena.patterns().count(), 1);
        arena.build(std::slice::from_ref(&empty_successor));
        assert_eq!(arena.patterns().count(), 1);
        let slice = arena.patterns().next().unwrap();
        assert!(slice.is_empty());
        // A bin where the router never appears yields no pattern at all,
        // even though the key stays interned.
        arena.build(&[]);
        assert_eq!(arena.patterns().count(), 0);
    }

    #[test]
    fn replies_to_one_hop_collapse_into_one_row_with_exact_counts() {
        // 5 replies to the same next hop + 2 timeouts: the scatter-time
        // accumulation must count each packet exactly once.
        let r = rec(
            "198.51.100.1",
            vec![
                hop(1, &[Some("10.0.0.1"); 3]),
                hop(
                    2,
                    &[
                        Some("10.0.1.1"),
                        Some("10.0.1.1"),
                        None,
                        Some("10.0.1.1"),
                        Some("10.0.1.1"),
                        None,
                        Some("10.0.1.1"),
                    ],
                ),
            ],
        );
        assert_eq!(
            arena_patterns(&[r]),
            BTreeMap::from([(
                key("10.0.0.1", "198.51.100.1"),
                counts(&[(Some("10.0.1.1"), 5.0), (None, 2.0)])
            )])
        );
    }

    /// [`PatternSpec`] with the scatter that resolves every reply's next
    /// hop before counting it — the reference for resolving each
    /// distinct next hop once.
    #[derive(Debug)]
    struct PerReplySpec;

    impl ArenaSpec for PerReplySpec {
        type Key = PatternKey;
        type Side = NextHop;
        type Payload = ();
        type Tail = f64;
        type Staged = Vec<(u32, f64)>;
        type Row = (u64, f64);
        type Rows = PatternShardRows;

        fn scatter(
            chunk: &mut Chunk<Self>,
            rec: &TracerouteRecord,
            patterns: &[Interner<PatternKey>],
            hops: &Interner<NextHop>,
        ) {
            let Chunk {
                rows,
                staged: acc,
                ids,
            } = chunk;
            for i in 0..rec.hops.len().saturating_sub(1) {
                let Some(router) = rec.hops[i].first_responder() else {
                    continue;
                };
                let key = PatternKey {
                    router,
                    dst: rec.dst,
                };
                let (s, local) = ids.resolve_key(patterns, key);
                acc.clear();
                for reply in &rec.hops[i + 1].replies {
                    let hop = match reply.from {
                        Some(ip) if ip != router => NextHop::Ip(ip),
                        Some(_) => continue,
                        None => NextHop::Unresponsive,
                    };
                    let enc = ids.resolve_side(hops, hop, ());
                    match acc.iter_mut().find(|(slot, _)| *slot == enc) {
                        Some((_, packets)) => *packets += 1.0,
                        None => acc.push((enc, 1.0)),
                    }
                }
                if acc.is_empty() {
                    rows[s].push((pack(local, SENTINEL), 0.0));
                }
                for &(slot, packets) in acc.iter() {
                    rows[s].push((pack(local, slot), packets));
                }
            }
        }

        fn row(key: u64, chunk: u32, packets: f64) -> (u64, f64) {
            PatternSpec::row(key, chunk, packets)
        }

        fn lent(rows: &mut PatternShardRows) -> &mut Lent<(u64, f64)> {
            &mut rows.lent
        }

        fn finalize(rows: &mut PatternShardRows, _wave: Wave<'_, Self>) {
            rows.finalize();
        }

        fn observed(rows: &PatternShardRows) -> impl Iterator<Item = u32> + '_ {
            rows.entries.iter().map(|&(local, _, _)| local)
        }
    }

    #[test]
    fn one_resolve_per_distinct_next_hop_matches_per_reply_resolve() {
        let (a, b) = (Some("10.0.1.1"), Some("10.0.1.2"));
        // Bin 1 interns B (and its router's pattern); bin 2's replies
        // arrive as A, B, A, *, B: A and * are new, B is a table slot, so
        // first-touch order decides the pending ids and the merge's slots.
        let known = rec(
            "198.51.100.1",
            vec![hop(1, &[Some("10.0.0.1"); 3]), hop(2, &[b; 3])],
        );
        let mixed = rec(
            "198.51.100.1",
            vec![
                hop(1, &[Some("10.0.0.1"); 3]),
                hop(2, &[a, b, a, None, b]),
                hop(3, &[Some("10.0.2.1"), None, Some("10.0.2.1")]),
            ],
        );

        // One chunk, scattered against the tables bin 1 left behind.
        let mut hops = Interner::default();
        hops.insert(NextHop::Ip(ip("10.0.1.2")), BinId(0));
        let patterns: Vec<Interner<PatternKey>> = (0..engine::NUM_SHARDS)
            .map(|_| Interner::default())
            .collect();
        let mut once = Chunk::<PatternSpec>::default();
        let mut per_reply = Chunk::<PerReplySpec>::default();
        once.rows = vec![Vec::new(); engine::NUM_SHARDS];
        per_reply.rows = vec![Vec::new(); engine::NUM_SHARDS];
        PatternSpec::scatter(&mut once, &mixed, &patterns, &hops);
        PerReplySpec::scatter(&mut per_reply, &mixed, &patterns, &hops);
        assert_eq!(once.rows, per_reply.rows);
        assert_eq!(once.ids.pending(), per_reply.ids.pending());
        let (_, new_sides, touched) = once.ids.pending();
        assert_eq!(
            new_sides,
            [
                NextHop::Ip(ip("10.0.1.1")),
                NextHop::Unresponsive,
                NextHop::Ip(ip("10.0.2.1"))
            ]
        );
        assert_eq!(touched.len(), 4, "A, B, *, C: each touched once");

        // Whole bins through both arenas: same groups, same epoch bytes.
        let mut once = PatternArena::default();
        let mut per_reply = EpochArena::<PerReplySpec>::default();
        for bin in [vec![known], vec![mixed]] {
            once.build(&bin);
            per_reply.build(&bin);
            for ((x, x_keys), (y, y_keys)) in once.shards().zip(per_reply.shards()) {
                assert_eq!((&x.pool, &x.entries, x_keys), (&y.pool, &y.entries, y_keys));
            }
        }
        let (mut x, mut y) = (Writer::default(), Writer::default());
        once.snapshot_into(&mut x);
        per_reply.snapshot_into(&mut y);
        assert_eq!(x.into_bytes(), y.into_bytes());
    }

    #[test]
    fn arena_is_reusable_across_bins() {
        let mk = |next: &str| {
            rec(
                "198.51.100.1",
                vec![hop(1, &[Some("10.0.0.1"); 3]), hop(2, &[Some(next); 3])],
            )
        };
        let mut arena = PatternArena::default();
        arena.build(&[mk("10.0.1.1"), mk("10.0.1.2")]);
        assert_eq!(arena.patterns().count(), 1);
        let slice = arena.patterns().next().unwrap();
        assert_eq!(slice.len(), 2);
        assert_eq!(slice.total(), 6.0);
        // Rebuild with a different bin: no stale state.
        arena.build(&[mk("10.0.9.9")]);
        assert_eq!(arena.patterns().count(), 1);
        let slice = arena.patterns().next().unwrap();
        assert_eq!(slice.len(), 1);
        assert_eq!(slice.get(&NextHop::Ip(ip("10.0.9.9"))), 3.0);
        assert_eq!(slice.get(&NextHop::Ip(ip("10.0.1.1"))), 0.0);
        // And an empty bin empties the arena.
        arena.build(&[]);
        assert_eq!(arena.patterns().count(), 0);
        // The intern epoch persisted: rebuilding a known shape performs
        // zero new insertions.
        arena.build(&[mk("10.0.1.1"), mk("10.0.1.2")]);
        assert_eq!(arena.stats().bin_insertions, 0);
    }
}
