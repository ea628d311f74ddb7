//! Event extraction: from per-bin alarms and magnitudes to incidents.
//!
//! §6 closes with "Finding major network disruptions in an AS is done by
//! identifying peaks in either of the two time series". The paper stops
//! at that criterion; how peaks and alarms become consolidated incidents
//! is this repo's extension, after traceroute empathy (Di Bartolomeo et
//! al., PAPERS.md): alarms sharing path segments and time windows are
//! *empathic* and belong to one incident. Operators need "what broke,
//! where, affecting whom", not only "which AS peaked", so this module
//! clusters each bin's simultaneous alarms via connected components
//! over the shared-element relation — two pieces of evidence are
//! empathic when they share at least
//! [`empathy_min_shared`](crate::DetectorConfig::empathy_min_shared)
//! elements (an interface or an AS of the path segment) — blames the
//! most-shared element, and tracks event lifecycle Open→Updated→Closed
//! across bins, bridging up to
//! [`event_gap_bins`](crate::DetectorConfig::event_gap_bins) quiet bins.
//!
//! Three evidence sources feed a cluster:
//!
//! 1. delay-alarm edges (both endpoints + their ASes),
//! 2. forwarding alarms (router + responsive next hops + their ASes),
//! 3. magnitude runs — ASes whose merged magnitude crosses
//!    [`event_threshold`](crate::DetectorConfig::event_threshold), §6's
//!    peak criterion acting as one evidence source beside the alarms.
//!
//! A cluster becomes (or extends) an event only when at least one of
//! its ASes crosses the threshold, and events are ranked by merged
//! cross-stream severity. Fed magnitudes alone, the extractor reduces
//! to §6's per-AS peak runs: one event per maximal over-threshold run
//! of each AS, gaps bridged.
//!
//! **Determinism rule for component ordering:** evidence items are
//! numbered in stream order then alarm order (both deterministic);
//! union-find roots are the *minimum* member item index, so clusters
//! enumerate in first-evidence order; event ids are assigned from a
//! sequential counter in that order; deltas emit in ascending id.
//! Nothing here depends on thread count, chunk size, or pipeline depth
//! — [`EmpathyExtractor::observe`] consumes already-merged per-bin
//! reports, which the executor contract makes byte-identical.

use super::asmap::AsMapper;
use super::magnitude::AsMagnitude;
use crate::config::DetectorConfig;
use crate::diffrtt::DelayAlarm;
use crate::forwarding::{ForwardingAlarm, NextHop};
use crate::snapshot::{Reader, SnapshotError, Writer};
use pinpoint_model::{Asn, BinId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::Ipv4Addr;

/// The reporting criterion: either magnitude series peaking past the
/// configured threshold (§6: "identifying peaks in either of the two
/// time series").
pub(crate) fn over_threshold(m: &AsMagnitude, threshold: f64) -> bool {
    m.delay_magnitude.abs() > threshold || m.forwarding_magnitude.abs() > threshold
}

/// The gap bridge: evidence at `bin` extends an event whose last
/// evidence was at `prev_end`, bridging up to `gap_bins` quiet bins in
/// between.
pub(crate) fn bridges_gap(prev_end: BinId, bin: BinId, gap_bins: u64) -> bool {
    bin.0 <= prev_end.0 + gap_bins + 1
}

/// Classify an event by its signed peaks: delay dominates when its
/// absolute peak is at least the forwarding one, otherwise the
/// forwarding sign decides loss vs attraction.
pub(crate) fn classify(peak_delay: f64, peak_forwarding: f64) -> EventKind {
    if peak_delay.abs() >= peak_forwarding.abs() {
        EventKind::DelayChange
    } else if peak_forwarding < 0.0 {
        EventKind::ForwardingLoss
    } else {
        EventKind::ForwardingGain
    }
}

/// Which detector dominated an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Delay-change magnitude peaked (congestion-style incidents).
    DelayChange,
    /// Forwarding magnitude peaked negative (loss/reroute-style incidents).
    ForwardingLoss,
    /// Forwarding magnitude peaked positive (traffic attraction).
    ForwardingGain,
}

/// A blameable element of the empathy relation: a shared AS or a shared
/// interface of the alarmed path segments.
///
/// The derived order ranks ASes before interfaces (an AS aggregates the
/// evidence of all its interfaces, so it wins blame ties), then by
/// number / address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Element {
    /// An autonomous system of the shared path segment.
    As(Asn),
    /// A shared interface (IP) of the alarmed links / patterns.
    Interface(Ipv4Addr),
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Element::As(asn) => write!(f, "{asn}"),
            Element::Interface(addr) => write!(f, "{addr}"),
        }
    }
}

/// Lifecycle of a [`FleetEvent`] as of the bin it was last emitted for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventStatus {
    /// First emitted this bin.
    Open,
    /// Previously open; extended by this bin's evidence.
    Updated,
    /// No evidence within the gap bridge (or absorbed into another
    /// event) — final.
    Closed,
}

impl EventStatus {
    /// Stable lowercase label (the rendered JSON value).
    pub fn as_str(self) -> &'static str {
        match self {
            EventStatus::Open => "open",
            EventStatus::Updated => "updated",
            EventStatus::Closed => "closed",
        }
    }
}

/// One fleet-level incident: an empathy cluster tracked across bins.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEvent {
    /// Sequential id, assigned in first-evidence order.
    pub id: u64,
    /// First bin with evidence.
    pub start: BinId,
    /// Last bin with evidence (inclusive).
    pub end: BinId,
    /// Lifecycle state as of the last emission.
    pub status: EventStatus,
    /// The most-shared element — the blamed location of the incident.
    pub blamed: Element,
    /// How many member alarms touch the blamed element.
    pub blamed_shares: usize,
    /// Every AS implicated by member evidence.
    pub asns: BTreeSet<Asn>,
    /// Every interface implicated by member evidence.
    pub interfaces: BTreeSet<Ipv4Addr>,
    /// Streams whose alarms contributed (empty for pure magnitude runs).
    pub streams: BTreeSet<usize>,
    /// Member delay alarms folded in so far.
    pub delay_alarms: usize,
    /// Member forwarding alarms folded in so far.
    pub forwarding_alarms: usize,
    /// Extreme delay magnitude among member ASes (signed).
    pub peak_delay: f64,
    /// Extreme forwarding magnitude among member ASes (signed).
    pub peak_forwarding: f64,
    /// Peak per-bin merged severity: Σ over member ASes of the dominant
    /// |magnitude| — the ranking key.
    pub severity: f64,
    /// Dominant signal, from the signed peaks.
    pub kind: EventKind,
    /// When two open events turn out to be one incident (a cluster
    /// matches both), the later-born one closes with a pointer to the
    /// survivor.
    pub merged_into: Option<u64>,
}

impl FleetEvent {
    /// Duration in bins.
    pub fn duration(&self) -> u64 {
        self.end.0 - self.start.0 + 1
    }

    /// Whether the event is still open (may gain evidence).
    pub fn is_open(&self) -> bool {
        self.status != EventStatus::Closed
    }
}

impl fmt::Display for FleetEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event #{} [{}] blamed {}: bins {}..{} ({} h), {} ASes / {} streams, \
             {} delay + {} forwarding alarms, severity {:.1}",
            self.id,
            self.status.as_str(),
            self.blamed,
            self.start,
            self.end,
            self.duration(),
            self.asns.len(),
            self.streams.len(),
            self.delay_alarms,
            self.forwarding_alarms,
            self.severity
        )
    }
}

/// One stream's per-bin evidence, borrowed from its report.
#[derive(Debug, Clone, Copy)]
pub struct StreamEvidence<'a> {
    /// The stream's delay alarms this bin.
    pub delay: &'a [DelayAlarm],
    /// The stream's forwarding alarms this bin.
    pub forwarding: &'a [ForwardingAlarm],
    /// The stream's IP→AS mapper (streams may map differently).
    pub mapper: &'a AsMapper,
}

/// Rank events for reporting: merged cross-stream severity descending,
/// ties by ascending id (older incident first).
fn rank(events: impl IntoIterator<Item = FleetEvent>) -> Vec<FleetEvent> {
    let mut out: Vec<FleetEvent> = events.into_iter().collect();
    out.sort_by(|a, b| {
        b.severity
            .partial_cmp(&a.severity)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id.cmp(&b.id))
    });
    out
}

/// A fold of emitted event deltas back into current-state rows — the
/// exact table the incremental channel's consumer (the service
/// reporter, the offline harness) keeps. Because every delta carries
/// the event's full state, absorbing deltas in emission order
/// reconstructs [`EmpathyExtractor::events`] byte-for-byte.
#[derive(Debug, Clone, Default)]
pub struct EventTable {
    events: BTreeMap<u64, FleetEvent>,
}

impl EventTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one bin's deltas in (later state replaces earlier).
    pub fn absorb(&mut self, deltas: &[FleetEvent]) {
        for e in deltas {
            self.events.insert(e.id, e.clone());
        }
    }

    /// Current state of one event.
    pub fn get(&self, id: u64) -> Option<&FleetEvent> {
        self.events.get(&id)
    }

    /// Every event, ranked by severity (see [`EmpathyExtractor::events`]).
    pub fn ranked(&self) -> Vec<FleetEvent> {
        rank(self.events.values().cloned())
    }

    /// Events still open.
    pub fn open_count(&self) -> usize {
        self.events.values().filter(|e| e.is_open()).count()
    }

    /// Total events ever seen.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event was ever absorbed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

fn write_element(w: &mut Writer, e: &Element) {
    match e {
        Element::As(asn) => {
            w.u8(0);
            w.u32(asn.0);
        }
        Element::Interface(addr) => {
            w.u8(1);
            w.ip(*addr);
        }
    }
}

fn read_element(r: &mut Reader<'_>) -> Result<Element, SnapshotError> {
    match r.u8()? {
        0 => Ok(Element::As(Asn(r.u32()?))),
        1 => Ok(Element::Interface(r.ip()?)),
        _ => Err(SnapshotError::Corrupt("element tag")),
    }
}

fn write_event(w: &mut Writer, e: &FleetEvent) {
    w.u64(e.id);
    w.u64(e.start.0);
    w.u64(e.end.0);
    w.u8(match e.status {
        EventStatus::Open => 0,
        EventStatus::Updated => 1,
        EventStatus::Closed => 2,
    });
    write_element(w, &e.blamed);
    w.usize(e.blamed_shares);
    w.seq(e.asns.len());
    for asn in &e.asns {
        w.u32(asn.0);
    }
    w.seq(e.interfaces.len());
    for addr in &e.interfaces {
        w.ip(*addr);
    }
    w.seq(e.streams.len());
    for s in &e.streams {
        w.usize(*s);
    }
    w.usize(e.delay_alarms);
    w.usize(e.forwarding_alarms);
    w.f64(e.peak_delay);
    w.f64(e.peak_forwarding);
    w.f64(e.severity);
    w.u8(match e.kind {
        EventKind::DelayChange => 0,
        EventKind::ForwardingLoss => 1,
        EventKind::ForwardingGain => 2,
    });
    match e.merged_into {
        Some(id) => {
            w.bool(true);
            w.u64(id);
        }
        None => w.bool(false),
    }
}

fn read_event(r: &mut Reader<'_>) -> Result<FleetEvent, SnapshotError> {
    let id = r.u64()?;
    let start = BinId(r.u64()?);
    let end = BinId(r.u64()?);
    let status = match r.u8()? {
        0 => EventStatus::Open,
        1 => EventStatus::Updated,
        2 => EventStatus::Closed,
        _ => return Err(SnapshotError::Corrupt("event status tag")),
    };
    let blamed = read_element(r)?;
    let blamed_shares = r.usize()?;
    let mut asns = BTreeSet::new();
    for _ in 0..r.seq()? {
        asns.insert(Asn(r.u32()?));
    }
    let mut interfaces = BTreeSet::new();
    for _ in 0..r.seq()? {
        interfaces.insert(r.ip()?);
    }
    let mut streams = BTreeSet::new();
    for _ in 0..r.seq()? {
        streams.insert(r.usize()?);
    }
    let delay_alarms = r.usize()?;
    let forwarding_alarms = r.usize()?;
    let peak_delay = r.f64()?;
    let peak_forwarding = r.f64()?;
    let severity = r.f64()?;
    let kind = match r.u8()? {
        0 => EventKind::DelayChange,
        1 => EventKind::ForwardingLoss,
        2 => EventKind::ForwardingGain,
        _ => return Err(SnapshotError::Corrupt("event kind tag")),
    };
    let merged_into = if r.bool()? { Some(r.u64()?) } else { None };
    Ok(FleetEvent {
        id,
        start,
        end,
        status,
        blamed,
        blamed_shares,
        asns,
        interfaces,
        streams,
        delay_alarms,
        forwarding_alarms,
        peak_delay,
        peak_forwarding,
        severity,
        kind,
        merged_into,
    })
}

/// Cumulative per-element share counts of one open event (kept out of
/// the public [`FleetEvent`]; only the winner and its count surface).
#[derive(Debug, Default)]
struct OpenState {
    shares: BTreeMap<Element, usize>,
}

/// One bin's evidence cluster, before it is matched to events.
#[derive(Debug, Default)]
struct Cluster {
    elements: BTreeSet<Element>,
    shares: BTreeMap<Element, usize>,
    streams: BTreeSet<usize>,
    delay_alarms: usize,
    forwarding_alarms: usize,
}

/// One evidence item: a delay alarm, a forwarding alarm, or a
/// magnitude-run seed, reduced to its element set.
struct Item {
    elements: BTreeSet<Element>,
    stream: Option<usize>,
    delay: usize,
    forwarding: usize,
}

/// The incremental fleet event extractor (see the [module docs](self)).
///
/// Feed it each bin's merged evidence with
/// [`observe`](EmpathyExtractor::observe) — once per bin, in ascending
/// bin order — and it returns the bin's event *deltas*: every event
/// opened, updated, or closed by that bin, in ascending id. State is
/// one [`EventTable`] plus per-open-event share counts, so memory is
/// O(events), not O(bins).
#[derive(Debug, Default)]
pub struct EmpathyExtractor {
    threshold: f64,
    gap_bins: u64,
    min_shared: usize,
    next_id: u64,
    table: EventTable,
    open: BTreeMap<u64, OpenState>,
}

impl EmpathyExtractor {
    /// Extractor with the config's event knobs.
    pub fn new(cfg: &DetectorConfig) -> Self {
        EmpathyExtractor {
            threshold: cfg.event_threshold,
            gap_bins: cfg.event_gap_bins,
            min_shared: cfg.empathy_min_shared.max(1),
            next_id: 0,
            table: EventTable::new(),
            open: BTreeMap::new(),
        }
    }

    /// Serialize the full extractor: knobs, id counter, the event table
    /// (already id-ordered), and the per-open-event share counts. All
    /// containers are B-trees, so the bytes are stable by construction.
    pub(crate) fn snapshot_into(&self, w: &mut Writer) {
        w.f64(self.threshold);
        w.u64(self.gap_bins);
        w.usize(self.min_shared);
        w.u64(self.next_id);
        w.seq(self.table.events.len());
        for event in self.table.events.values() {
            write_event(w, event);
        }
        w.seq(self.open.len());
        for (id, state) in &self.open {
            w.u64(*id);
            w.seq(state.shares.len());
            for (element, count) in &state.shares {
                write_element(w, element);
                w.usize(*count);
            }
        }
    }

    /// Rebuild an extractor from [`EmpathyExtractor::snapshot_into`]
    /// bytes. The knobs come from the snapshot itself (they were captured
    /// from the config at construction), so a restored extractor behaves
    /// identically even mid-event.
    pub(crate) fn restore_from(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let threshold = r.f64()?;
        let gap_bins = r.u64()?;
        let min_shared = r.usize()?;
        let next_id = r.u64()?;
        let mut table = EventTable::new();
        for _ in 0..r.seq()? {
            let event = read_event(r)?;
            table.events.insert(event.id, event);
        }
        let mut open = BTreeMap::new();
        for _ in 0..r.seq()? {
            let id = r.u64()?;
            let mut state = OpenState::default();
            for _ in 0..r.seq()? {
                let element = read_element(r)?;
                let count = r.usize()?;
                state.shares.insert(element, count);
            }
            if !table.events.contains_key(&id) {
                return Err(SnapshotError::Corrupt("open state without event"));
            }
            open.insert(id, state);
        }
        Ok(EmpathyExtractor {
            threshold,
            gap_bins,
            min_shared,
            next_id,
            table,
            open,
        })
    }

    /// Consume one bin's merged evidence and return the event deltas.
    ///
    /// `streams` carries each stream's alarms in
    /// [`StreamId`](crate::stream::StreamId) order (a solo analyzer
    /// passes a single entry); `magnitudes` is the merged (fleet-level)
    /// magnitude map of the same bin. Call once per bin, in ascending
    /// bin order.
    pub fn observe(
        &mut self,
        bin: BinId,
        streams: &[StreamEvidence<'_>],
        magnitudes: &BTreeMap<Asn, AsMagnitude>,
    ) -> Vec<FleetEvent> {
        let mut touched: BTreeSet<u64> = BTreeSet::new();

        // 1. Close events whose last evidence is now out of gap reach.
        let stale: Vec<u64> = self
            .open
            .keys()
            .filter(|id| {
                let e = &self.table.events[id];
                !bridges_gap(e.end, bin, self.gap_bins)
            })
            .copied()
            .collect();
        for id in stale {
            self.open.remove(&id);
            let e = self.table.events.get_mut(&id).expect("open event exists");
            e.status = EventStatus::Closed;
            touched.insert(id);
        }

        // 2. Reduce this bin's evidence to items and cluster them.
        let items = collect_items(streams, magnitudes, self.threshold);
        let clusters = cluster_items(&items, self.min_shared);

        // Clusters only continue events that were open when the bin
        // started: the empathy relation already decided this bin's
        // clusters are separate incidents, so matching must not re-glue
        // them through an event created moments ago.
        let open_at_entry: Vec<u64> = self.open.keys().copied().collect();

        // 3. Fold each reportable cluster into the event table.
        for cluster in clusters {
            let asns: BTreeSet<Asn> = cluster
                .elements
                .iter()
                .filter_map(|el| match el {
                    Element::As(a) => Some(*a),
                    Element::Interface(_) => None,
                })
                .collect();
            let reportable = asns.iter().any(|a| {
                magnitudes
                    .get(a)
                    .is_some_and(|m| over_threshold(m, self.threshold))
            });
            if !reportable {
                continue;
            }
            let interfaces: BTreeSet<Ipv4Addr> = cluster
                .elements
                .iter()
                .filter_map(|el| match el {
                    Element::Interface(a) => Some(*a),
                    Element::As(_) => None,
                })
                .collect();
            let mut severity = 0.0;
            let mut peak_delay = 0.0_f64;
            let mut peak_forwarding = 0.0_f64;
            for a in &asns {
                if let Some(m) = magnitudes.get(a) {
                    severity += m.delay_magnitude.abs().max(m.forwarding_magnitude.abs());
                    if m.delay_magnitude.abs() > peak_delay.abs() {
                        peak_delay = m.delay_magnitude;
                    }
                    if m.forwarding_magnitude.abs() > peak_forwarding.abs() {
                        peak_forwarding = m.forwarding_magnitude;
                    }
                }
            }

            // Which entry-open events is this cluster empathic with?
            // Continuity uses the same `min_shared` requirement as the
            // per-bin relation, capped at the cluster's element count so
            // a single-element magnitude run can still extend its event.
            let need = self.min_shared.min(cluster.elements.len()).max(1);
            let matches: Vec<u64> = open_at_entry
                .iter()
                .filter(|id| {
                    self.open.get(id).is_some_and(|st| {
                        cluster
                            .elements
                            .iter()
                            .filter(|el| st.shares.contains_key(el))
                            .take(need)
                            .count()
                            >= need
                    })
                })
                .copied()
                .collect();

            let winner = match matches.first() {
                Some(&id) => id,
                None => {
                    let id = self.next_id;
                    self.next_id += 1;
                    self.table.events.insert(
                        id,
                        FleetEvent {
                            id,
                            start: bin,
                            end: bin,
                            status: EventStatus::Open,
                            blamed: *cluster
                                .elements
                                .iter()
                                .next()
                                .expect("cluster has elements"),
                            blamed_shares: 0,
                            asns: BTreeSet::new(),
                            interfaces: BTreeSet::new(),
                            streams: BTreeSet::new(),
                            delay_alarms: 0,
                            forwarding_alarms: 0,
                            peak_delay: 0.0,
                            peak_forwarding: 0.0,
                            severity: 0.0,
                            kind: EventKind::DelayChange,
                            merged_into: None,
                        },
                    );
                    self.open.insert(id, OpenState::default());
                    id
                }
            };

            // Two open events matched by one cluster are one incident:
            // the lowest id survives, the others close into it.
            for &loser in matches.iter().skip(1) {
                let state = self.open.remove(&loser).expect("matched event is open");
                let folded = self.table.events.get_mut(&loser).expect("event exists");
                folded.status = EventStatus::Closed;
                folded.merged_into = Some(winner);
                let folded = folded.clone();
                touched.insert(loser);
                let w = self.table.events.get_mut(&winner).expect("winner exists");
                w.start = w.start.min(folded.start);
                w.asns.extend(folded.asns.iter().copied());
                w.interfaces.extend(folded.interfaces.iter().copied());
                w.streams.extend(folded.streams.iter().copied());
                w.delay_alarms += folded.delay_alarms;
                w.forwarding_alarms += folded.forwarding_alarms;
                w.severity = w.severity.max(folded.severity);
                if folded.peak_delay.abs() > w.peak_delay.abs() {
                    w.peak_delay = folded.peak_delay;
                }
                if folded.peak_forwarding.abs() > w.peak_forwarding.abs() {
                    w.peak_forwarding = folded.peak_forwarding;
                }
                let ws = self.open.get_mut(&winner).expect("winner is open");
                for (el, n) in state.shares {
                    *ws.shares.entry(el).or_insert(0) += n;
                }
            }

            // Fold the cluster into the winner.
            let state = self.open.get_mut(&winner).expect("winner is open");
            for (el, n) in &cluster.shares {
                *state.shares.entry(*el).or_insert(0) += n;
            }
            let (blamed, blamed_shares) = blame(&state.shares);
            let e = self.table.events.get_mut(&winner).expect("winner exists");
            // Born this bin → Open; evidence for an older event → Updated.
            if e.start != bin {
                e.status = EventStatus::Updated;
            }
            e.end = bin;
            e.blamed = blamed;
            e.blamed_shares = blamed_shares;
            e.asns.extend(asns.iter().copied());
            e.interfaces.extend(interfaces.iter().copied());
            e.streams.extend(cluster.streams.iter().copied());
            e.delay_alarms += cluster.delay_alarms;
            e.forwarding_alarms += cluster.forwarding_alarms;
            e.severity = e.severity.max(severity);
            if peak_delay.abs() > e.peak_delay.abs() {
                e.peak_delay = peak_delay;
            }
            if peak_forwarding.abs() > e.peak_forwarding.abs() {
                e.peak_forwarding = peak_forwarding;
            }
            e.kind = classify(e.peak_delay, e.peak_forwarding);
            touched.insert(winner);
        }

        touched
            .into_iter()
            .map(|id| self.table.events[&id].clone())
            .collect()
    }

    /// Every event ever extracted (open and closed), ranked by merged
    /// cross-stream severity descending, ties by ascending id.
    pub fn events(&self) -> Vec<FleetEvent> {
        self.table.ranked()
    }

    /// Events still open.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }
}

/// Reduce one bin's evidence to items: each alarm (or magnitude-run
/// seed) with its element set.
fn collect_items(
    streams: &[StreamEvidence<'_>],
    magnitudes: &BTreeMap<Asn, AsMagnitude>,
    threshold: f64,
) -> Vec<Item> {
    let mut items = Vec::new();
    let push_addr = |elements: &mut BTreeSet<Element>, mapper: &AsMapper, addr: Ipv4Addr| {
        elements.insert(Element::Interface(addr));
        if let Some(asn) = mapper.asn_of(addr) {
            elements.insert(Element::As(asn));
        }
    };
    for (idx, s) in streams.iter().enumerate() {
        for a in s.delay {
            let mut elements = BTreeSet::new();
            push_addr(&mut elements, s.mapper, a.link.near);
            push_addr(&mut elements, s.mapper, a.link.far);
            items.push(Item {
                elements,
                stream: Some(idx),
                delay: 1,
                forwarding: 0,
            });
        }
        for a in s.forwarding {
            let mut elements = BTreeSet::new();
            push_addr(&mut elements, s.mapper, a.router);
            for (hop, _) in &a.responsibilities {
                if let NextHop::Ip(addr) = hop {
                    push_addr(&mut elements, s.mapper, *addr);
                }
            }
            items.push(Item {
                elements,
                stream: Some(idx),
                delay: 0,
                forwarding: 1,
            });
        }
    }
    // Magnitude-run seeds: §6's peak criterion as an evidence source —
    // an AS over threshold anchors a cluster even with no surviving
    // alarm this bin (e.g. a pure severity echo).
    for (asn, m) in magnitudes {
        if over_threshold(m, threshold) {
            items.push(Item {
                elements: BTreeSet::from([Element::As(*asn)]),
                stream: None,
                delay: 0,
                forwarding: 0,
            });
        }
    }
    items
}

/// Union-find items into clusters. Two alarms are empathic when they
/// share at least `min_shared` elements. A single-element magnitude
/// seed can never meet a requirement above one, so under a strict
/// relation it instead attaches to the *first* alarm naming its AS —
/// attaching to every match would let one seed transitively bridge
/// clusters the alarm relation keeps apart. Roots are minimum member
/// indexes, so the returned clusters enumerate in first-evidence order.
fn cluster_items(items: &[Item], min_shared: usize) -> Vec<Cluster> {
    let mut parent: Vec<usize> = (0..items.len()).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    fn union(parent: &mut [usize], a: usize, b: usize) {
        let (ra, rb) = (find(parent, a), find(parent, b));
        // Smaller root wins: roots stay minimum member indexes.
        match ra.cmp(&rb) {
            std::cmp::Ordering::Less => parent[rb] = ra,
            std::cmp::Ordering::Greater => parent[ra] = rb,
            std::cmp::Ordering::Equal => {}
        }
    }
    if min_shared <= 1 {
        // Linear pass: any shared element links two items.
        let mut first_seen: BTreeMap<Element, usize> = BTreeMap::new();
        for (i, item) in items.iter().enumerate() {
            for el in &item.elements {
                match first_seen.get(el) {
                    Some(&j) => union(&mut parent, i, j),
                    None => {
                        first_seen.insert(*el, i);
                    }
                }
            }
        }
    } else {
        let is_seed = |it: &Item| it.delay + it.forwarding == 0;
        for i in 0..items.len() {
            if is_seed(&items[i]) {
                continue;
            }
            for j in (i + 1)..items.len() {
                if is_seed(&items[j]) {
                    continue;
                }
                let shared = items[i]
                    .elements
                    .intersection(&items[j].elements)
                    .take(min_shared)
                    .count();
                if shared >= min_shared {
                    union(&mut parent, i, j);
                }
            }
        }
        for i in 0..items.len() {
            if !is_seed(&items[i]) {
                continue;
            }
            let host = (0..items.len()).find(|&j| {
                !is_seed(&items[j]) && !items[i].elements.is_disjoint(&items[j].elements)
            });
            if let Some(j) = host {
                union(&mut parent, i, j);
            }
        }
    }
    let mut by_root: BTreeMap<usize, Cluster> = BTreeMap::new();
    for (i, item) in items.iter().enumerate() {
        let root = find(&mut parent, i);
        let c = by_root.entry(root).or_default();
        for el in &item.elements {
            c.elements.insert(*el);
            let entry = c.shares.entry(*el).or_insert(0);
            // Shares count member *alarms* touching the element; a
            // magnitude seed contributes the element but no share.
            if item.delay + item.forwarding > 0 {
                *entry += 1;
            }
        }
        c.streams.extend(item.stream);
        c.delay_alarms += item.delay;
        c.forwarding_alarms += item.forwarding;
    }
    by_root.into_values().collect()
}

/// The most-shared element; ties break by [`Element`] order (ASes
/// before interfaces, then numerically ascending).
fn blame(shares: &BTreeMap<Element, usize>) -> (Element, usize) {
    let mut best: Option<(Element, usize)> = None;
    for (el, &n) in shares {
        match best {
            Some((_, m)) if m >= n => {}
            _ => best = Some((*el, n)),
        }
    }
    best.expect("an event always has at least one element")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffrtt::detect::Direction;
    use pinpoint_model::IpLink;
    use pinpoint_stats::wilson::ConfidenceInterval;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn mapper() -> AsMapper {
        AsMapper::from_prefixes([
            ("16.0.0.0/16".parse().unwrap(), Asn(100)),
            ("16.1.0.0/16".parse().unwrap(), Asn(200)),
            ("16.2.0.0/16".parse().unwrap(), Asn(300)),
        ])
    }

    fn delay_alarm(near: &str, far: &str, d: f64) -> DelayAlarm {
        DelayAlarm {
            link: IpLink::new(ip(near), ip(far)),
            bin: BinId(0),
            observed: ConfidenceInterval::new(9.0, 10.0, 11.0, 10),
            reference: ConfidenceInterval::new(1.0, 2.0, 3.0, 0),
            deviation: d,
            direction: Direction::Increase,
        }
    }

    fn fwd_alarm(router: &str, hops: &[(&str, f64)]) -> ForwardingAlarm {
        ForwardingAlarm {
            router: ip(router),
            dst: ip("198.51.100.1"),
            bin: BinId(0),
            rho: -0.8,
            responsibilities: hops.iter().map(|(h, r)| (NextHop::Ip(ip(h)), *r)).collect(),
        }
    }

    fn mag(d: f64, f: f64) -> AsMagnitude {
        AsMagnitude {
            delay_severity: 0.0,
            forwarding_severity: 0.0,
            delay_magnitude: d,
            forwarding_magnitude: f,
        }
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            event_threshold: 4.0,
            ..Default::default()
        }
    }

    #[test]
    fn quiet_bin_emits_nothing() {
        let mut ex = EmpathyExtractor::new(&cfg());
        let m = mapper();
        let deltas = ex.observe(
            BinId(0),
            &[StreamEvidence {
                delay: &[],
                forwarding: &[],
                mapper: &m,
            }],
            &BTreeMap::new(),
        );
        assert!(deltas.is_empty());
        assert!(ex.events().is_empty());
    }

    #[test]
    fn alarms_without_a_magnitude_peak_stay_unreported() {
        // Evidence clusters only become events once an AS crosses the
        // threshold — alarms alone are not reportable.
        let mut ex = EmpathyExtractor::new(&cfg());
        let m = mapper();
        let alarms = [delay_alarm("16.0.0.1", "16.0.0.2", 5.0)];
        let mags = BTreeMap::from([(Asn(100), mag(1.0, 0.0))]);
        let deltas = ex.observe(
            BinId(0),
            &[StreamEvidence {
                delay: &alarms,
                forwarding: &[],
                mapper: &m,
            }],
            &mags,
        );
        assert!(deltas.is_empty());
    }

    #[test]
    fn shared_interface_clusters_two_streams_into_one_event() {
        let mut ex = EmpathyExtractor::new(&cfg());
        let m = mapper();
        // Stream 0 and stream 1 alarm different links sharing 16.0.0.2.
        let a0 = [delay_alarm("16.0.0.1", "16.0.0.2", 5.0)];
        let a1 = [delay_alarm("16.0.0.2", "16.1.0.9", 6.0)];
        let mags = BTreeMap::from([(Asn(100), mag(9.0, 0.0)), (Asn(200), mag(0.5, 0.0))]);
        let deltas = ex.observe(
            BinId(3),
            &[
                StreamEvidence {
                    delay: &a0,
                    forwarding: &[],
                    mapper: &m,
                },
                StreamEvidence {
                    delay: &a1,
                    forwarding: &[],
                    mapper: &m,
                },
            ],
            &mags,
        );
        assert_eq!(deltas.len(), 1);
        let e = &deltas[0];
        assert_eq!(e.status, EventStatus::Open);
        assert_eq!(e.streams, BTreeSet::from([0, 1]));
        assert_eq!(e.asns, BTreeSet::from([Asn(100), Asn(200)]));
        assert_eq!(e.delay_alarms, 2);
        // AS100 is touched by both alarms — most shared, blamed.
        assert_eq!(e.blamed, Element::As(Asn(100)));
        assert_eq!(e.blamed_shares, 2);
        assert_eq!(e.kind, EventKind::DelayChange);
    }

    #[test]
    fn disjoint_clusters_become_separate_events() {
        let mut ex = EmpathyExtractor::new(&cfg());
        let m = mapper();
        let alarms = [
            delay_alarm("16.0.0.1", "16.0.0.2", 5.0),
            delay_alarm("16.2.0.1", "16.2.0.2", 6.0),
        ];
        let mags = BTreeMap::from([(Asn(100), mag(9.0, 0.0)), (Asn(300), mag(-7.0, 0.0))]);
        let deltas = ex.observe(
            BinId(0),
            &[StreamEvidence {
                delay: &alarms,
                forwarding: &[],
                mapper: &m,
            }],
            &mags,
        );
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].id, 0);
        assert_eq!(deltas[1].id, 1);
        assert_eq!(deltas[0].asns, BTreeSet::from([Asn(100)]));
        assert_eq!(deltas[1].asns, BTreeSet::from([Asn(300)]));
        // Ranked by severity: AS100's 9.0 beats AS300's 7.0.
        let ranked = ex.events();
        assert_eq!(ranked[0].id, 0);
        assert!(ranked[0].severity > ranked[1].severity);
    }

    #[test]
    fn lifecycle_open_updated_closed_with_gap_bridge() {
        let mut ex = EmpathyExtractor::new(&cfg());
        let m = mapper();
        let alarms = [delay_alarm("16.0.0.1", "16.0.0.2", 5.0)];
        let hot = BTreeMap::from([(Asn(100), mag(9.0, 0.0))]);
        let quiet = BTreeMap::from([(Asn(100), mag(0.1, 0.0))]);
        let d0 = ex.observe(
            BinId(10),
            &[StreamEvidence {
                delay: &alarms,
                forwarding: &[],
                mapper: &m,
            }],
            &hot,
        );
        assert_eq!(d0.len(), 1);
        assert_eq!(d0[0].status, EventStatus::Open);

        // Quiet bin: nothing emitted, event still open (gap bridge).
        let d1 = ex.observe(BinId(11), &[], &quiet);
        assert!(d1.is_empty());
        assert_eq!(ex.open_count(), 1);

        // Evidence one bin later extends the same event.
        let d2 = ex.observe(
            BinId(12),
            &[StreamEvidence {
                delay: &alarms,
                forwarding: &[],
                mapper: &m,
            }],
            &hot,
        );
        assert_eq!(d2.len(), 1);
        assert_eq!(d2[0].id, d0[0].id);
        assert_eq!(d2[0].status, EventStatus::Updated);
        assert_eq!(d2[0].start, BinId(10));
        assert_eq!(d2[0].end, BinId(12));

        // Two quiet bins exceed the gap: the event closes.
        let d3 = ex.observe(BinId(13), &[], &quiet);
        assert!(d3.is_empty());
        let d4 = ex.observe(BinId(15), &[], &quiet);
        assert_eq!(d4.len(), 1);
        assert_eq!(d4[0].status, EventStatus::Closed);
        assert_eq!(d4[0].end, BinId(12));
        assert_eq!(ex.open_count(), 0);

        // New evidence after the close opens a fresh event.
        let d5 = ex.observe(
            BinId(16),
            &[StreamEvidence {
                delay: &alarms,
                forwarding: &[],
                mapper: &m,
            }],
            &hot,
        );
        assert_eq!(d5.len(), 1);
        assert_eq!(d5[0].status, EventStatus::Open);
        assert_ne!(d5[0].id, d0[0].id);
    }

    #[test]
    fn bridged_clusters_merge_into_the_older_event() {
        // Bin 0: two disjoint events. Bin 1: a forwarding alarm spans
        // both clusters' ASes — they are one incident; the younger event
        // closes into the older.
        let mut ex = EmpathyExtractor::new(&cfg());
        let m = mapper();
        let alarms = [
            delay_alarm("16.0.0.1", "16.0.0.2", 5.0),
            delay_alarm("16.2.0.1", "16.2.0.2", 6.0),
        ];
        let mags = BTreeMap::from([(Asn(100), mag(9.0, 0.0)), (Asn(300), mag(-7.0, 0.0))]);
        let d0 = ex.observe(
            BinId(0),
            &[StreamEvidence {
                delay: &alarms,
                forwarding: &[],
                mapper: &m,
            }],
            &mags,
        );
        assert_eq!(d0.len(), 2);
        let bridge = [fwd_alarm("16.0.0.2", &[("16.2.0.1", -0.4)])];
        let d1 = ex.observe(
            BinId(1),
            &[StreamEvidence {
                delay: &[],
                forwarding: &bridge,
                mapper: &m,
            }],
            &mags,
        );
        assert_eq!(d1.len(), 2);
        assert_eq!(d1[0].id, 0);
        assert_eq!(d1[0].status, EventStatus::Updated);
        assert_eq!(d1[1].id, 1);
        assert_eq!(d1[1].status, EventStatus::Closed);
        assert_eq!(d1[1].merged_into, Some(0));
        assert_eq!(d1[0].asns, BTreeSet::from([Asn(100), Asn(300)]));
        assert_eq!(d1[0].delay_alarms, 2);
        assert_eq!(d1[0].forwarding_alarms, 1);
        assert_eq!(ex.open_count(), 1);
    }

    #[test]
    fn min_shared_two_keeps_single_overlap_apart() {
        let strict = DetectorConfig {
            empathy_min_shared: 2,
            ..cfg()
        };
        let m = mapper();
        // The two alarms share only AS100 (one element).
        let alarms = [
            delay_alarm("16.0.0.1", "16.0.0.2", 5.0),
            delay_alarm("16.0.0.9", "16.1.0.1", 6.0),
        ];
        let mags = BTreeMap::from([(Asn(100), mag(9.0, 0.0)), (Asn(200), mag(8.0, 0.0))]);
        let mut ex = EmpathyExtractor::new(&strict);
        let deltas = ex.observe(
            BinId(0),
            &[StreamEvidence {
                delay: &alarms,
                forwarding: &[],
                mapper: &m,
            }],
            &mags,
        );
        assert_eq!(deltas.len(), 2, "single shared element must not merge");
        let mut lax = EmpathyExtractor::new(&cfg());
        let deltas = lax.observe(
            BinId(0),
            &[StreamEvidence {
                delay: &alarms,
                forwarding: &[],
                mapper: &m,
            }],
            &mags,
        );
        assert_eq!(deltas.len(), 1, "default relation merges on one element");
    }

    #[test]
    fn magnitude_run_alone_seeds_an_event() {
        // §6's peak criterion as an evidence source: an AS over
        // threshold with no alarm still opens an event.
        let mut ex = EmpathyExtractor::new(&cfg());
        let mags = BTreeMap::from([(Asn(100), mag(0.0, -11.0))]);
        let deltas = ex.observe(BinId(0), &[], &mags);
        assert_eq!(deltas.len(), 1);
        let e = &deltas[0];
        assert_eq!(e.blamed, Element::As(Asn(100)));
        assert_eq!(e.kind, EventKind::ForwardingLoss);
        assert_eq!(e.severity, 11.0);
        assert!(e.streams.is_empty());
    }

    #[test]
    fn event_table_fold_matches_extractor_state() {
        let mut ex = EmpathyExtractor::new(&cfg());
        let m = mapper();
        let mut table = EventTable::new();
        let alarms = [delay_alarm("16.0.0.1", "16.0.0.2", 5.0)];
        let hot = BTreeMap::from([(Asn(100), mag(9.0, 0.0))]);
        let quiet = BTreeMap::from([(Asn(100), mag(0.1, 0.0))]);
        for bin in 0..8u64 {
            let streams = [StreamEvidence {
                delay: if bin % 3 == 0 { &alarms } else { &[] },
                forwarding: &[],
                mapper: &m,
            }];
            let mags = if bin % 3 == 0 { &hot } else { &quiet };
            let deltas = ex.observe(BinId(bin), &streams, mags);
            table.absorb(&deltas);
        }
        assert_eq!(table.ranked(), ex.events());
        assert_eq!(table.open_count(), ex.open_count());
    }

    // §6's per-AS peak runs, fed magnitudes alone: every bin is observed,
    // quiet bins included, with no alarm evidence.

    fn threshold(t: f64) -> DetectorConfig {
        DetectorConfig {
            event_threshold: t,
            ..Default::default()
        }
    }

    /// Observe one AS's `(bin, delay magnitude, forwarding magnitude)`
    /// series and return the ranked events.
    fn magnitudes_only(
        cfg: &DetectorConfig,
        asn: Asn,
        series: &[(u64, f64, f64)],
    ) -> Vec<FleetEvent> {
        let mut ex = EmpathyExtractor::new(cfg);
        for &(bin, d, f) in series {
            ex.observe(BinId(bin), &[], &BTreeMap::from([(asn, mag(d, f))]));
        }
        ex.events()
    }

    #[test]
    fn quiet_magnitudes_open_no_events() {
        let series: Vec<(u64, f64, f64)> = (0..48).map(|b| (b, 0.3, -0.2)).collect();
        assert!(magnitudes_only(&threshold(3.0), Asn(1), &series).is_empty());
    }

    #[test]
    fn contiguous_magnitude_peak_becomes_one_event() {
        let mut series: Vec<(u64, f64, f64)> = (0..10).map(|b| (b, 0.0, 0.0)).collect();
        series.extend([(10, 40.0, -0.5), (11, 90.0, -1.0), (12, 25.0, -0.2)]);
        series.extend((13..20).map(|b| (b, 0.0, 0.0)));
        let events = magnitudes_only(&threshold(3.0), Asn(25152), &series);
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!((e.start, e.end), (BinId(10), BinId(12)));
        assert_eq!(e.duration(), 3);
        assert_eq!(e.peak_delay, 90.0);
        assert_eq!(e.kind, EventKind::DelayChange);
        assert_eq!(e.asns, BTreeSet::from([Asn(25152)]));
        assert_eq!(e.status, EventStatus::Closed);
    }

    #[test]
    fn separate_magnitude_peaks_become_separate_events() {
        // Fig. 6 structure: two peaks separated by ~20 quiet hours.
        let series: Vec<(u64, f64, f64)> = (0..50)
            .map(|b| {
                let d = if (10..=12).contains(&b) {
                    100.0
                } else if b == 34 {
                    80.0
                } else {
                    0.1
                };
                (b, d, 0.0)
            })
            .collect();
        let events = magnitudes_only(&threshold(5.0), Asn(25152), &series);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].peak_delay, 100.0); // ranked by severity
        assert_eq!(events[1].peak_delay, 80.0);
    }

    #[test]
    fn forwarding_loss_kind_detected_from_magnitudes() {
        let series = [(0, 0.0, 0.0), (1, 0.2, -11.0), (2, 0.1, -0.4)];
        let events = magnitudes_only(&threshold(3.0), Asn(1200), &series);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::ForwardingLoss);
        let rendered = crate::render::event(&events[0]).to_string();
        assert!(rendered.contains("\"forwarding_loss\""), "{rendered}");
    }

    #[test]
    fn one_quiet_magnitude_bin_is_bridged() {
        let series = [(0, 10.0, 0.0), (1, 0.1, 0.0), (2, 12.0, 0.0)];
        let events = magnitudes_only(&threshold(3.0), Asn(7), &series);
        assert_eq!(events.len(), 1, "gap not bridged: {events:?}");
        assert_eq!(events[0].end, BinId(2));
    }

    #[test]
    fn event_gap_bins_controls_magnitude_bridging() {
        // Two quiet bins split the run under the default gap of 1 but
        // merge under a gap of 2.
        let series = [(0, 10.0, 0.0), (1, 0.1, 0.0), (2, 0.1, 0.0), (3, 12.0, 0.0)];
        let gap = |bins: u64| DetectorConfig {
            event_gap_bins: bins,
            ..threshold(3.0)
        };
        assert_eq!(magnitudes_only(&gap(1), Asn(7), &series).len(), 2);
        assert_eq!(magnitudes_only(&gap(2), Asn(7), &series).len(), 1);
    }

    #[test]
    fn magnitude_peaks_of_several_ases_rank_together() {
        let mut ex = EmpathyExtractor::new(&threshold(3.0));
        let mags = BTreeMap::from([(Asn(1), mag(5.0, 0.0)), (Asn(2), mag(0.0, -50.0))]);
        ex.observe(BinId(0), &[], &mags);
        let events = ex.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].asns, BTreeSet::from([Asn(2)]));
        assert!(events[0].severity > events[1].severity);
    }
}
