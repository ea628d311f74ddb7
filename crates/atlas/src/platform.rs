//! The measurement platform: executes schedules against the simulator and
//! emits traceroute records per time bin.
//!
//! [`Platform::collect_bin`] is the batch interface the evaluation harness
//! uses (one call per analysis bin); [`Platform::stream`] is the
//! near-real-time interface mirroring the Atlas streaming API the paper's
//! §8 "Internet Health Report" deployment consumes.

use crate::measurement::{Measurement, MeasurementKind};
use crate::probe::ProbeDeployment;
use pinpoint_model::records::{Hop, Reply, TracerouteRecord};
use pinpoint_model::{BinId, MeasurementId, SimTime};
use pinpoint_netsim::network::TraceQuery;
use pinpoint_netsim::{ArtifactModel, Network};
use std::net::Ipv4Addr;

/// The emulated measurement platform.
#[derive(Debug)]
pub struct Platform {
    net: Network,
    probes: ProbeDeployment,
    measurements: Vec<Measurement>,
    /// Analysis bin length in seconds (1 hour in the paper).
    pub bin_secs: u64,
    /// Measurement-artifact injection applied to every emitted record
    /// (`None` = a clean feed).
    artifacts: Option<ArtifactModel>,
}

impl Platform {
    /// Assemble a platform. Measurements are added with
    /// [`Platform::add_builtin_mesh`] / [`Platform::add_measurement`].
    pub fn new(net: Network, probes: ProbeDeployment) -> Self {
        Platform {
            net,
            probes,
            measurements: Vec::new(),
            bin_secs: 3600,
            artifacts: None,
        }
    }

    /// The underlying network engine.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Corrupt every emitted record with the given
    /// [`ArtifactModel`] (`None` restores a clean feed). Corruption is a
    /// pure function of the record's identity, so batch, filtered, and
    /// streamed collection of the same bin keep emitting identical
    /// records — only *dirtier* ones.
    pub fn set_artifact_model(&mut self, model: Option<ArtifactModel>) {
        self.artifacts = model;
    }

    /// The artifact model in effect, if any.
    pub fn artifact_model(&self) -> Option<&ArtifactModel> {
        self.artifacts.as_ref()
    }

    /// The probe deployment.
    pub fn probes(&self) -> &ProbeDeployment {
        &self.probes
    }

    /// The registered measurements.
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// Register a measurement.
    pub fn add_measurement(&mut self, m: Measurement) {
        self.measurements.push(m);
    }

    /// Register builtin measurements: every probe → every anycast service.
    ///
    /// Mirrors the Atlas builtins towards the 13 root services; our
    /// scenarios typically register 3–6 services.
    pub fn add_builtin_mesh(&mut self) {
        let all_probes: Vec<_> = self.probes.probes.iter().map(|p| p.id).collect();
        let targets: Vec<Ipv4Addr> = self
            .net
            .topology()
            .services
            .iter()
            .map(|s| s.addr)
            .collect();
        for (i, target) in targets.into_iter().enumerate() {
            let id = MeasurementId(5000 + i as u32);
            self.measurements.push(Measurement::new(
                id,
                MeasurementKind::Builtin,
                target,
                all_probes.clone(),
            ));
        }
    }

    /// Register anchoring measurements: the given probes → each target.
    pub fn add_anchoring(&mut self, targets: &[Ipv4Addr], probe_stride: usize) {
        let probes: Vec<_> = self
            .probes
            .probes
            .iter()
            .step_by(probe_stride.max(1))
            .map(|p| p.id)
            .collect();
        for (i, &target) in targets.iter().enumerate() {
            let id = MeasurementId(7000 + i as u32);
            self.measurements.push(Measurement::new(
                id,
                MeasurementKind::Anchoring,
                target,
                probes.clone(),
            ));
        }
    }

    /// Execute every measurement firing inside the bin and return records
    /// sorted by timestamp.
    pub fn collect_bin(&self, bin: BinId) -> Vec<TracerouteRecord> {
        self.collect_bin_where(bin, |_| true)
    }

    /// Like [`Platform::collect_bin`], but only for measurements the
    /// predicate selects — the multi-stream interface: a stream is a
    /// subset of measurements (one mesh, one user-defined measurement, …)
    /// analyzed by its own detector instance, so each stream collects its
    /// own bin from the shared platform.
    pub fn collect_bin_where(
        &self,
        bin: BinId,
        mut include: impl FnMut(&Measurement) -> bool,
    ) -> Vec<TracerouteRecord> {
        let from = bin.start(self.bin_secs);
        let to = bin.end(self.bin_secs);
        let mut records = Vec::new();
        for m in self.measurements.iter().filter(|m| include(m)) {
            for &probe_id in &m.probes {
                let Some(probe) = self.probes.get(probe_id) else {
                    continue;
                };
                for t in m.firings(probe_id, from, to) {
                    let n = t.secs() / m.interval_secs;
                    let paris = m.paris_id(probe_id, n);
                    let flow =
                        (u64::from(probe_id.0) << 20) ^ (u64::from(paris) << 4) ^ u64::from(m.id.0);
                    let outcome = self.net.traceroute(&TraceQuery {
                        src: probe.gateway,
                        dst: m.target,
                        t,
                        flow,
                        packets_per_hop: 3,
                    });
                    let mut record = outcome_to_record(m.id, probe, m.target, t, paris, outcome);
                    if let Some(model) = &self.artifacts {
                        model.corrupt(&mut record);
                    }
                    records.push(record);
                }
            }
        }
        records.sort_by_key(|r| (r.timestamp, r.probe_id, r.msm_id));
        records
    }

    /// Iterate bins `[first, last)` lazily — the streaming interface.
    pub fn stream(
        &self,
        first: BinId,
        last: BinId,
    ) -> impl Iterator<Item = (BinId, Vec<TracerouteRecord>)> + '_ {
        (first.0..last.0).map(move |b| {
            let bin = BinId(b);
            (bin, self.collect_bin(bin))
        })
    }

    /// Pre-materialize a window of bins — the feed shape for replaying
    /// one window several times, or timing the engine without the
    /// simulator in the loop. (The lazy [`Platform::stream`] works too;
    /// it re-enters the simulator between bins.)
    pub fn collect_bins(&self, first: BinId, last: BinId) -> Vec<(BinId, Vec<TracerouteRecord>)> {
        self.stream(first, last).collect()
    }
}

/// Convert an engine outcome into the interchange record format.
fn outcome_to_record(
    msm_id: MeasurementId,
    probe: &crate::probe::Probe,
    dst: Ipv4Addr,
    t: SimTime,
    paris: u16,
    outcome: pinpoint_netsim::TraceOutcome,
) -> TracerouteRecord {
    let hops = outcome
        .hops
        .iter()
        .enumerate()
        .map(|(i, h)| {
            let replies = h
                .rtts
                .iter()
                .map(|rtt| match (h.ip, rtt) {
                    (Some(ip), Some(ms)) => Reply::new(ip, *ms),
                    _ => Reply::TIMEOUT,
                })
                .collect();
            Hop::new((i + 1) as u8, replies)
        })
        .collect();
    TracerouteRecord {
        msm_id,
        probe_id: probe.id,
        probe_asn: probe.asn,
        dst,
        timestamp: t,
        paris_id: paris,
        hops,
        destination_reached: outcome.reached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::deploy_probes;
    use pinpoint_netsim::{EventSchedule, Network, TopologyConfig};

    fn platform() -> Platform {
        let topo = TopologyConfig::default().build();
        // Add a unicast anchor target in some stub.
        let net = Network::new(topo, 31, &EventSchedule::new());
        let probes = deploy_probes(net.topology(), 60, 7);
        let mut p = Platform::new(net, probes);
        // Anchor the last stub's router as a unicast target.
        let target = {
            let stubs: Vec<_> = p.network().topology().stub_ases().collect();
            p.network()
                .topology()
                .router(stubs[stubs.len() - 1].routers[0])
                .ip
        };
        p.add_measurement(Measurement::new(
            MeasurementId(7000),
            MeasurementKind::Anchoring,
            target,
            p.probes().probes.iter().map(|x| x.id).collect(),
        ));
        p
    }

    #[test]
    fn collect_bin_produces_expected_volume() {
        let p = platform();
        let records = p.collect_bin(BinId(3));
        // 60 probes × 4/hour.
        assert_eq!(records.len(), 60 * 4);
        for r in &records {
            assert!(!r.hops.is_empty(), "empty traceroute");
            assert_eq!(r.hops[0].ttl, 1);
            assert!(r.hops.iter().all(|h| h.replies.len() == 3));
            let bin_start = BinId(3).start(3600);
            let bin_end = BinId(3).end(3600);
            assert!(r.timestamp >= bin_start && r.timestamp < bin_end);
        }
    }

    #[test]
    fn most_traceroutes_reach_destination_in_quiet_network() {
        let p = platform();
        let records = p.collect_bin(BinId(0));
        let reached = records.iter().filter(|r| r.destination_reached).count();
        let rate = reached as f64 / records.len() as f64;
        assert!(rate > 0.9, "only {rate} reached");
    }

    #[test]
    fn records_are_deterministic() {
        let p = platform();
        let a = p.collect_bin(BinId(1));
        let b = p.collect_bin(BinId(1));
        assert_eq!(a, b);
    }

    #[test]
    fn links_extractable_from_records() {
        let p = platform();
        let records = p.collect_bin(BinId(0));
        let total_links: usize = records.iter().map(|r| r.links().len()).sum();
        assert!(
            total_links > records.len(),
            "too few adjacent-IP pairs: {total_links}"
        );
    }

    #[test]
    fn filtered_collection_partitions_the_bin() {
        // Splitting the measurement set into streams must lose nothing:
        // the per-stream bins, merged and re-sorted, are exactly the full
        // bin (each stream is a disjoint measurement subset).
        let mut p = platform();
        let target = {
            let topo = p.network().topology();
            topo.router(topo.stub_ases().next().unwrap().routers[0]).ip
        };
        let probes = p.probes().probes.iter().take(10).map(|x| x.id).collect();
        p.add_measurement(Measurement::new(
            MeasurementId(9000),
            MeasurementKind::UserDefined,
            target,
            probes,
        ));
        let full = p.collect_bin(BinId(2));
        let user = p.collect_bin_where(BinId(2), |m| m.kind == MeasurementKind::UserDefined);
        let rest = p.collect_bin_where(BinId(2), |m| m.kind != MeasurementKind::UserDefined);
        assert!(!user.is_empty() && !rest.is_empty());
        assert!(user.iter().all(|r| r.msm_id == MeasurementId(9000)));
        let mut merged = user;
        merged.extend(rest);
        merged.sort_by_key(|r| (r.timestamp, r.probe_id, r.msm_id));
        assert_eq!(merged, full);
    }

    #[test]
    fn stream_yields_bins_in_order() {
        let p = platform();
        let bins: Vec<BinId> = p.stream(BinId(2), BinId(5)).map(|(b, _)| b).collect();
        assert_eq!(bins, vec![BinId(2), BinId(3), BinId(4)]);
    }

    #[test]
    fn collected_window_equals_the_lazy_stream() {
        let p = platform();
        let window = p.collect_bins(BinId(1), BinId(4));
        let lazy: Vec<_> = p.stream(BinId(1), BinId(4)).collect();
        assert_eq!(window, lazy);
        assert!(window.iter().all(|(_, records)| !records.is_empty()));
    }

    #[test]
    fn artifact_model_corrupts_deterministically() {
        use pinpoint_netsim::ArtifactModel;
        let clean = platform().collect_bin(BinId(2));

        let mut p = platform();
        p.set_artifact_model(Some(ArtifactModel::hostile(0xA11)));
        let dirty = p.collect_bin(BinId(2));
        let again = p.collect_bin(BinId(2));

        // Same record count and identities (corruption never drops records),
        // byte-identical across repeated collections, and actually dirty.
        assert_eq!(dirty.len(), clean.len());
        assert_eq!(dirty, again);
        assert_ne!(dirty, clean);
        let changed = clean
            .iter()
            .zip(&dirty)
            .filter(|(c, d)| c.hops != d.hops)
            .count();
        assert!(
            changed > clean.len() / 4,
            "only {changed} records corrupted"
        );

        // Clearing the model restores the clean feed.
        p.set_artifact_model(None);
        assert_eq!(p.collect_bin(BinId(2)), clean);
    }

    #[test]
    fn builtin_mesh_requires_services() {
        let p = platform();
        // The default config has no anycast services; mesh adds nothing.
        let mut p2 = p;
        let before = p2.measurements().len();
        p2.add_builtin_mesh();
        assert_eq!(p2.measurements().len(), before);
    }
}
