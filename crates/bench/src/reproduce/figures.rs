//! Figures 2–13 and Table A, each read off one scenario pass.

use super::{Claim, Cx};
use crate::oracle::link_samples;
use pinpoint_core::forwarding::NextHop;
use pinpoint_core::graph::AlarmGraph;
use pinpoint_model::{IpLink, SimTime};
use pinpoint_scenarios::{ddos, ixp, leak};
use pinpoint_stats::descriptive::Summary;
use pinpoint_stats::ecdf::Ecdf;
use pinpoint_stats::normal::{qq_correlation, qq_points};
use pinpoint_stats::quantile::median;
use std::collections::{BTreeMap, BTreeSet};

/// The hourly bins a ground-truth window touches, both ends included.
fn hours((start, end): (SimTime, SimTime)) -> Vec<u64> {
    (start.0 / 3600..=end.0 / 3600).collect()
}

/// Eight-level ASCII sparkline of a series (`min..max` normalized).
fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|v| {
            let idx = (((v - lo) / span) * 7.0).round() as usize;
            LEVELS[idx.min(7)]
        })
        .collect()
}

/// Render a compact `(x, y)` table, eliding the middle of long series.
fn print_series(cx: &mut Cx, name: &str, series: &[(u64, f64)], max_rows: usize) {
    say!(cx, "{name}: {} points", series.len());
    let values: Vec<f64> = series.iter().map(|(_, v)| *v).collect();
    say!(cx, "  {}", sparkline(&values));
    let show = max_rows.min(series.len());
    let head = show / 2;
    let tail = show - head;
    for (x, y) in series.iter().take(head) {
        say!(cx, "  {x:>6}  {y:>12.3}");
    }
    if series.len() > show {
        say!(cx, "  ... ({} rows elided) ...", series.len() - show);
    }
    for (x, y) in series.iter().skip(series.len().saturating_sub(tail)) {
        say!(cx, "  {x:>6}  {y:>12.3}");
    }
}

/// Figure 2: median differential RTT stability on the Cogent ZRH→MUC link.
///
/// The paper: raw differential RTTs fluctuate heavily (σ = 12.2 vs
/// µ = 4.8), yet all hourly medians stay within a 0.2 ms band (5.2–5.4 ms)
/// and the Wilson CIs intersect the normal reference throughout — zero
/// alarms in two quiet weeks.
pub(super) fn fig02(cx: &mut Cx) -> Claim {
    cx.header(
        "Figure 2 — median differential RTT, Cogent ZRH→MUC",
        "raw Δ noisy (σ ≈ 2.5×µ); hourly medians within a sub-ms band; no alarms",
    );
    let (case, _) = cx.pass();
    let link = case.landmarks.cogent_link;
    say!(cx, "link under study: {link}\n");

    let mut medians: Vec<(u64, f64)> = Vec::new();
    let mut ci_widths: Vec<f64> = Vec::new();
    let mut alarms_on_link = 0usize;
    let mut raw = Summary::new();
    cx.each(|records, report| {
        // Raw sample statistics from one representative bin.
        if report.bin == case.start_bin {
            if let Some(probes) = link_samples(records).get(&link) {
                for &s in probes.values().flat_map(|(_, samples)| samples) {
                    raw.push(s);
                }
            }
        }
        if let Some(stat) = report.link_stats.get(&link) {
            medians.push((report.bin.0, stat.median()));
            ci_widths.push(stat.ci.width());
        }
        alarms_on_link += report
            .delay_alarms
            .iter()
            .filter(|a| a.link == link)
            .count();
    });

    say!(
        cx,
        "raw differential RTTs (bin 0): n={}, mean={:.2} ms, σ={:.2} ms (σ/µ = {:.1})",
        raw.count(),
        raw.mean(),
        raw.std_dev(),
        raw.std_dev() / raw.mean().abs().max(1e-9)
    );
    print_series(cx, "hourly median Δ (ms)", &medians, 12);
    let meds: Vec<f64> = medians.iter().map(|(_, m)| *m).collect();
    let lo = meds.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = meds.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mean_width = ci_widths.iter().sum::<f64>() / ci_widths.len().max(1) as f64;
    say!(
        cx,
        "\nmedian band: [{lo:.3}, {hi:.3}] ms (spread {:.3} ms)",
        hi - lo
    );
    say!(cx, "mean Wilson CI width: {mean_width:.3} ms");
    say!(cx, "alarms on the link: {alarms_on_link}");

    let stable = (hi - lo) < 1.0 && alarms_on_link == 0 && raw.std_dev() > 2.0 * (hi - lo);
    cx.verdict(
        stable,
        &format!(
            "median spread {:.3} ms vs raw σ {:.2} ms, {} alarms (paper: 0.2 ms band, σ 12.2, 0 alarms)",
            hi - lo,
            raw.std_dev(),
            alarms_on_link
        ),
    )
}

/// Figure 3: Q-Q normality of the median vs the mean differential RTT.
///
/// The paper: hourly *medians* of the Cogent link's differential RTTs fit a
/// normal distribution (Q-Q points on the diagonal, Fig. 3a); hourly
/// *means* do not — ~125 gross outliers spread across the fortnight destroy
/// them (Fig. 3b). This is the empirical license for the median-CLT.
pub(super) fn fig03(cx: &mut Cx) -> Claim {
    cx.header(
        "Figure 3 — Q-Q normality: median vs mean differential RTT",
        "medians normally distributed (points on x=y); means wrecked by outliers",
    );
    let (case, _) = cx.pass();
    let link = case.landmarks.cogent_link;

    // Every bin of the steady window: 48 hours at small scale, a
    // fortnight at paper scale.
    let mut medians = Vec::new();
    let mut means = Vec::new();
    cx.each(|records, _| {
        if let Some(probes) = link_samples(records).get(&link) {
            let all: Vec<f64> = probes
                .values()
                .flat_map(|(_, s)| s.iter().copied())
                .collect();
            if let Some(m) = median(&all) {
                medians.push(m);
            }
            means.push(Summary::from_slice(&all).mean());
        }
    });

    let r_median = qq_correlation(&medians).unwrap_or(f64::NAN);
    let r_mean = qq_correlation(&means).unwrap_or(f64::NAN);

    say!(cx, "hourly estimates collected: {}", medians.len());
    say!(cx, "\n(a) median Δ Q-Q vs normal: r = {r_median:.4}");
    for (theo, samp) in qq_points(&medians).iter().step_by(medians.len().max(8) / 8) {
        say!(cx, "    theoretical {theo:>7.2}  sample {samp:>7.2}");
    }
    say!(cx, "\n(b) mean Δ Q-Q vs normal:   r = {r_mean:.4}");
    for (theo, samp) in qq_points(&means).iter().step_by(means.len().max(8) / 8) {
        say!(cx, "    theoretical {theo:>7.2}  sample {samp:>7.2}");
    }

    let ok = r_median > 0.95 && r_median > r_mean;
    cx.verdict(
        ok,
        &format!(
            "median Q-Q r={r_median:.3} vs mean Q-Q r={r_mean:.3} (paper: median on the diagonal, mean far off)"
        ),
    )
}

/// Figure 5: distributions of hourly magnitudes across all ASes.
///
/// The paper: (a) delay-change magnitude CCDF — 97 % of AS-hours below 1,
/// heavy right tail carrying the DDoS events; (b) forwarding-anomaly
/// magnitude CDF — heavy *left* tail, magnitudes below −10 only ~0.001 %
/// of the time (the route leak and AMS-IX live there).
pub(super) fn fig05(cx: &mut Cx) -> Claim {
    cx.header(
        "Figure 5 — hourly magnitude distributions over all ASes",
        "(a) P(delay mag > 1) ≈ 3 %, heavy right tail; (b) heavy left tail in forwarding",
    );
    let mut delay_mags: Vec<f64> = Vec::new();
    let mut fwd_mags: Vec<f64> = Vec::new();
    cx.pass();
    cx.each(|_, report| {
        for m in report.magnitudes.values() {
            delay_mags.push(m.delay_magnitude);
            fwd_mags.push(m.forwarding_magnitude);
        }
    });

    let delay = Ecdf::new(&delay_mags);
    let fwd = Ecdf::new(&fwd_mags);
    say!(cx, "AS-hours scored: {}\n", delay.len());

    say!(cx, "(a) delay-change magnitude CCDF  P(mag > x):");
    for x in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0] {
        say!(cx, "    x = {x:>6.1}: {:>10.6}", delay.ccdf(x));
    }
    say!(cx, "\n(b) forwarding-anomaly magnitude CDF  P(mag ≤ x):");
    for x in [-50.0, -10.0, -5.0, -2.0, -1.0, -0.5, 0.0] {
        say!(cx, "    x = {x:>6.1}: {:>10.6}", fwd.cdf(x));
    }

    let p_above_1 = delay.ccdf(1.0);
    let right_tail = delay.ccdf(50.0);
    let left_tail = fwd.cdf(-5.0);
    say!(cx, "\nP(delay mag > 1)  = {p_above_1:.4}  (paper ≈ 0.03)");
    say!(
        cx,
        "P(delay mag > 50) = {right_tail:.6}  (heavy right tail: > 0)"
    );
    say!(
        cx,
        "P(fwd mag ≤ −5)   = {left_tail:.6}  (heavy left tail: > 0, tiny)"
    );

    let ok = p_above_1 < 0.15 && right_tail > 0.0 && left_tail > 0.0 && left_tail < 0.05;
    cx.verdict(
        ok,
        &format!(
            "P(>1)={p_above_1:.4}, right tail {right_tail:.2e}, left tail {left_tail:.2e} (paper: 0.03 / heavy / 1e-5-ish)"
        ),
    )
}

/// Figure 6: delay-change magnitude of the K-root operator AS reveals the
/// two DDoS attacks.
///
/// The paper: two unmistakable positive peaks on Nov 30 07:00–09:00 and
/// Dec 1 05:00–06:00, against a flat baseline over Nov 17 – Dec 15.
pub(super) fn fig06(cx: &mut Cx) -> Claim {
    cx.header(
        "Figure 6 — K-root operator AS delay-change magnitude",
        "two attack-window peaks of unprecedented level; flat otherwise",
    );
    let (case, scale) = cx.pass();
    let kroot = case.landmarks.kroot_asn;
    let mut attack_bins = hours(ddos::attack1(scale));
    attack_bins.extend(hours(ddos::attack2(scale)));
    say!(cx, "ground-truth attack bins: {attack_bins:?}\n");

    let mut series: Vec<(u64, f64)> = Vec::new();
    cx.each(|_, report| {
        if let Some(m) = report.magnitude(kroot) {
            series.push((report.bin.0, m.delay_magnitude));
        }
    });
    print_series(cx, &format!("{kroot} delay magnitude"), &series, 14);

    // Rank the bins by magnitude: the attack bins must dominate.
    let mut ranked: Vec<(u64, f64)> = series.clone();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    say!(cx, "\ntop bins by magnitude:");
    for (bin, mag) in ranked.iter().take(6) {
        let marker = if attack_bins.contains(bin) {
            "← attack"
        } else {
            ""
        };
        say!(cx, "    bin {bin:>5}: {mag:>10.1} {marker}");
    }
    let top2: Vec<u64> = ranked.iter().take(2).map(|(b, _)| *b).collect();
    let both_peaks_are_attacks = top2.iter().all(|b| attack_bins.contains(b));
    let peak = ranked[0].1;
    let baseline_max = series
        .iter()
        .filter(|(b, _)| !attack_bins.contains(b) && !attack_bins.contains(&(b.saturating_sub(1))))
        .map(|(_, m)| m.abs())
        .fold(0.0f64, f64::max);

    cx.verdict(
        both_peaks_are_attacks && peak > 5.0 * baseline_max.max(1.0),
        &format!(
            "top-2 magnitude bins {top2:?} inside attack windows; peak {peak:.0} vs baseline max {baseline_max:.1}"
        ),
    )
}

/// Figure 7: per-link differential RTT views of the root-server DDoS.
///
/// The paper's six panels show how differently the attacks hit each
/// instance: (a) Kansas City alarmed in both windows; (b) Poznan — flat,
/// narrow, never alarmed during the attacks; (c) an instance hit in one
/// attack; (d) St. Petersburg anomalous for 14 consecutive hours; (e/f)
/// upstream links (HE at DE-CIX, Selectel) alarmed alongside their
/// instance.
pub(super) fn fig07(cx: &mut Cx) -> Claim {
    cx.header(
        "Figure 7 — per-instance differential RTT during the attacks",
        "instances impacted differently: both attacks / one / 14 h / untouched",
    );
    let (case, scale) = cx.pass();
    let kroot_addr = case.landmarks.kroot_addr;
    let a1_bins = hours(ddos::attack1(scale));
    let a2_bins = hours(ddos::attack2(scale));
    let led_bins = hours(ddos::led_window(scale));

    // Map instance entry IPs (primary *and* IXP-LAN interfaces) to cities.
    let topo = case.platform.network().topology();
    let mut entry_city: BTreeMap<std::net::Ipv4Addr, &str> = BTreeMap::new();
    for (code, primary) in &case.landmarks.kroot_entries {
        entry_city.insert(*primary, code);
        if let Some(&rid) = topo.router_by_ip.get(primary) {
            for lan_ip in topo.router(rid).lan_ips.values() {
                entry_city.insert(*lan_ip, code);
            }
        }
    }

    // link → (bin, median, alarmed)
    let mut series: BTreeMap<IpLink, Vec<(u64, f64, bool)>> = BTreeMap::new();
    cx.each(|_, report| {
        for (link, stat) in &report.link_stats {
            if link.far == kroot_addr || link.near == kroot_addr {
                let alarmed = report.delay_alarms.iter().any(|a| a.link == *link);
                series
                    .entry(*link)
                    .or_default()
                    .push((report.bin.0, stat.median(), alarmed));
            }
        }
    });

    say!(
        cx,
        "last-hop links to the anycast address: {}\n",
        series.len()
    );
    let mut both_hit = 0;
    let mut untouched_in_attacks = 0;
    let mut led_hours_max = 0usize;
    for (link, points) in &series {
        let city = entry_city.get(&link.near).copied().unwrap_or("?");
        let meds: Vec<f64> = points.iter().map(|(_, m, _)| *m).collect();
        let alarmed: Vec<u64> = points
            .iter()
            .filter(|(_, _, a)| *a)
            .map(|(b, _, _)| *b)
            .collect();
        let in_a1 = alarmed.iter().any(|b| a1_bins.contains(b));
        let in_a2 = alarmed.iter().any(|b| a2_bins.contains(b));
        let led_hours = alarmed.iter().filter(|b| led_bins.contains(b)).count();
        say!(
            cx,
            "  [{city:>3}] {link}\n        {}\n        alarmed bins: {alarmed:?} (attack1: {in_a1}, attack2: {in_a2})",
            sparkline(&meds)
        );
        if in_a1 && in_a2 {
            both_hit += 1;
        }
        // "Untouched" in the paper's sense: silent during both ground-truth
        // attack windows and the LED extension.
        let attack_alarmed = alarmed
            .iter()
            .any(|b| a1_bins.contains(b) || a2_bins.contains(b) || led_bins.contains(b));
        if !attack_alarmed {
            untouched_in_attacks += 1;
        }
        if city == "LED" {
            led_hours_max = led_hours_max.max(led_hours);
        }
    }

    say!(cx, "\ninstances alarmed in both attacks: {both_hit}");
    say!(
        cx,
        "instances silent through all attack windows (Poznan-style): {untouched_in_attacks}"
    );
    say!(
        cx,
        "St. Petersburg alarmed hours in its 14 h window: {led_hours_max}"
    );
    cx.verdict(
        both_hit >= 2 && untouched_in_attacks >= 1 && led_hours_max >= 4,
        &format!(
            "{both_hit} dual-attack instances, {untouched_in_attacks} untouched, LED {led_hours_max} h (paper: mixed impact, one clean instance, 14 h tail)"
        ),
    )
}

/// Figure 8: the connected component of alarms around K-root at the peak
/// of the first attack.
///
/// The paper: a star-ish component centred on the anycast address (each
/// edge ≈ one instance), adjacent to components of the F- and I-root
/// services through shared exchange points; 129 IPv4 alarms involved root
/// servers during the attack hours.
pub(super) fn fig08(cx: &mut Cx) -> Claim {
    cx.header(
        "Figure 8 — alarm component around K-root (attack peak)",
        "anycast node with high degree; F/I-root alarms adjacent via shared IXPs",
    );
    let (case, scale) = cx.pass();
    let landmarks = &case.landmarks;
    let kroot = landmarks.kroot_addr;
    let froot = landmarks.froot_addr;
    let iroot = landmarks.iroot_addr;
    let lroot = landmarks.lroot_addr;
    let attack_bins = hours(ddos::attack1(scale));

    // Merge the attack-window alarms into one graph (the paper plots one
    // hour; merging the window is equivalent here and more stable at small
    // scale).
    let mut graph = AlarmGraph::new();
    let mut root_alarms = 0usize;
    cx.each(|_, report| {
        if attack_bins.contains(&report.bin.0) {
            graph.add_stream_delay_alarms(0, &report.delay_alarms);
            graph.add_stream_forwarding_alarms(0, &report.forwarding_alarms);
            root_alarms += report
                .delay_alarms
                .iter()
                .filter(|a| [kroot, froot, iroot].iter().any(|r| a.link.touches(*r)))
                .count();
        }
    });

    say!(
        cx,
        "alarm edges during attack window: {}",
        graph.edge_count()
    );
    say!(cx, "alarms touching root addresses: {root_alarms}\n");

    let comp = graph.component_of(kroot);
    match &comp {
        Some(c) => {
            say!(
                cx,
                "K-root component: {} nodes, {} edges, K-root degree {}",
                c.nodes.len(),
                c.edges.len(),
                c.degree(kroot)
            );
            for e in &c.edges {
                say!(
                    cx,
                    "    {} — {}  (+{:.1} ms, d={:.1})",
                    e.a,
                    e.b,
                    e.median_shift_ms,
                    e.deviation
                );
            }
        }
        None => say!(cx, "K-root component: none"),
    }
    let f_in_graph = graph.component_of(froot).is_some();
    let i_in_graph = graph.component_of(iroot).is_some();
    let l_clean = graph.component_of(lroot).is_none();
    say!(
        cx,
        "\nF-root alarmed: {f_in_graph} | I-root alarmed: {i_in_graph} | L-root clean: {l_clean}"
    );

    let kdeg = comp.as_ref().map(|c| c.degree(kroot)).unwrap_or(0);
    cx.verdict(
        kdeg >= 2 && l_clean,
        &format!(
            "K-root degree {kdeg} (≥2 instances reported), F={f_in_graph}/I={i_in_graph} alarmed, L-root clean={l_clean} (paper: multi-edge anycast node, A/D/G/L/M clean)"
        ),
    )
}

/// Figures 9 & 10: Level3 delay-change and forwarding-anomaly magnitudes
/// around the Telekom Malaysia route leak.
///
/// The paper: both Level3 ASes show positive delay-magnitude peaks (Fig. 9)
/// and negative forwarding-magnitude peaks (Fig. 10) on June 12 09:00–11:00
/// — "the most significant forwarding anomalies monitored for Level(3) in
/// our 8-month dataset".
pub(super) fn fig09_10(cx: &mut Cx) -> Claim {
    cx.header(
        "Figures 9/10 — Level3 magnitudes during the route leak",
        "delay peaks up, forwarding peaks down, both ASes, exactly in the leak window",
    );
    let (case, _) = cx.pass();
    let (gc, l3) = (case.landmarks.gc_asn, case.landmarks.level3_asn);
    let leak_bins = hours(leak::leak_window());
    say!(cx, "ground-truth leak bins: {leak_bins:?}\n");

    let mut gc_delay: Vec<(u64, f64)> = Vec::new();
    let mut gc_fwd: Vec<(u64, f64)> = Vec::new();
    let mut l3_delay: Vec<(u64, f64)> = Vec::new();
    let mut l3_fwd: Vec<(u64, f64)> = Vec::new();
    cx.each(|_, report| {
        if let Some(m) = report.magnitude(gc) {
            gc_delay.push((report.bin.0, m.delay_magnitude));
            gc_fwd.push((report.bin.0, m.forwarding_magnitude));
        }
        if let Some(m) = report.magnitude(l3) {
            l3_delay.push((report.bin.0, m.delay_magnitude));
            l3_fwd.push((report.bin.0, m.forwarding_magnitude));
        }
    });

    say!(cx, "— Figure 9 (delay magnitude) —");
    print_series(cx, &format!("{gc} (Global Crossing)"), &gc_delay, 8);
    print_series(cx, &format!("{l3} (Level3)"), &l3_delay, 8);
    say!(cx, "\n— Figure 10 (forwarding magnitude) —");
    print_series(cx, &format!("{gc} (Global Crossing)"), &gc_fwd, 8);
    print_series(cx, &format!("{l3} (Level3)"), &l3_fwd, 8);

    let peak_in = |s: &[(u64, f64)], sign: f64| -> (u64, f64) {
        s.iter()
            .map(|(b, v)| (*b, *v * sign))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .map(|(b, v)| (b, v * sign))
            .unwrap_or((0, 0.0))
    };
    let (gdb, gd) = peak_in(&gc_delay, 1.0);
    let (gfb, gf) = peak_in(&gc_fwd, -1.0);
    let (ldb, ld) = peak_in(&l3_delay, 1.0);
    let (lfb, lf) = peak_in(&l3_fwd, -1.0);
    say!(cx, "\npeaks: GC delay {gd:+.1}@{gdb}, GC fwd {gf:+.1}@{gfb}, L3 delay {ld:+.1}@{ldb}, L3 fwd {lf:+.1}@{lfb}");

    let ok = [gdb, gfb, ldb, lfb].iter().all(|b| leak_bins.contains(b))
        && gd > 0.0
        && gf < 0.0
        && ld > 0.0
        && lf < 0.0;
    cx.verdict(
        ok,
        "all four extreme bins inside the leak window with the paper's signs (+delay / −forwarding)",
    )
}

/// Figure 11: two Level3 link views during the route leak.
///
/// The paper: (a) a London–London link jumps +229 ms and is alarmed
/// 09:00–11:00; (b) a New York–London link is alarmed at 10:00 but its
/// 09:00 bin has *no RTT samples at all* — the IP was dropping probe
/// packets (caught by the forwarding detector instead), showing the two
/// methods' complementarity.
pub(super) fn fig11(cx: &mut Cx) -> Claim {
    cx.header(
        "Figure 11 — per-link views: alarms and sample gaps",
        "links show +100–229 ms shifts; some bins lose all samples to packet loss",
    );
    let (case, _) = cx.pass();
    let gc = case.landmarks.gc_asn;
    let mapper = &case.mapper;
    let leak_bins = hours(leak::leak_window());

    // Track all links attributed to GC: medians per bin + alarm flags.
    let mut series: BTreeMap<IpLink, BTreeMap<u64, (f64, bool)>> = BTreeMap::new();
    let mut fwd_flagged: BTreeSet<std::net::Ipv4Addr> = Default::default();
    cx.each(|_, report| {
        for (link, stat) in &report.link_stats {
            if mapper.groups(&[link.near, link.far]).contains(&gc) {
                let alarmed = report.delay_alarms.iter().any(|a| a.link == *link);
                series
                    .entry(*link)
                    .or_default()
                    .insert(report.bin.0, (stat.median(), alarmed));
            }
        }
        if leak_bins.contains(&report.bin.0) {
            for a in &report.forwarding_alarms {
                fwd_flagged.insert(a.router);
            }
        }
    });

    // Rank links by their leak-window shift and show the two best panels.
    let mut ranked: Vec<(IpLink, f64, Vec<u64>, Vec<u64>)> = Vec::new();
    for (link, points) in &series {
        let normal: Vec<f64> = points
            .iter()
            .filter(|(b, _)| !leak_bins.contains(b))
            .map(|(_, (m, _))| *m)
            .collect();
        let base = median(&normal).unwrap_or(0.0);
        let shift = points
            .iter()
            .filter(|(b, _)| leak_bins.contains(b))
            .map(|(_, (m, _))| (m - base).abs())
            .fold(0.0f64, f64::max);
        let alarmed: Vec<u64> = points
            .iter()
            .filter(|(_, (_, a))| *a)
            .map(|(b, _)| *b)
            .collect();
        let missing: Vec<u64> = leak_bins
            .iter()
            .filter(|b| !points.contains_key(b))
            .copied()
            .collect();
        ranked.push((*link, shift, alarmed, missing));
    }
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    let mut shown = 0;
    let mut max_shift: f64 = 0.0;
    let mut any_missing = false;
    for (link, shift, alarmed, missing) in ranked.iter().take(4) {
        let meds: Vec<f64> = series[link].values().map(|(m, _)| *m).collect();
        say!(cx, "  {link}");
        say!(cx, "      {}", sparkline(&meds));
        say!(cx, "      leak-window shift: +{shift:.1} ms; alarmed bins {alarmed:?}; sample-less leak bins {missing:?}");
        let near_flagged = fwd_flagged.contains(&link.near) || fwd_flagged.contains(&link.far);
        if !missing.is_empty() {
            any_missing = true;
            say!(cx, "      ↳ missing bins coincide with forwarding flags on an endpoint: {near_flagged}");
        }
        max_shift = max_shift.max(*shift);
        shown += 1;
    }

    cx.verdict(
        shown > 0 && max_shift > 10.0,
        &format!(
            "max leak-window median shift +{max_shift:.0} ms across {} GC links; sample-less leak bins observed: {any_missing} (paper: +229 ms / +108 ms, one sample-less bin)"
        , series.len()),
    )
}

/// Figure 12: the Level3 alarm component at the leak's peak hour, with
/// per-edge delay labels and forwarding-flagged nodes.
///
/// The paper: a London-centred component whose edges carry the absolute
/// median shifts (+229 ms, +108 ms, ...) and whose red nodes are IPs also
/// implicated in forwarding anomalies — evidence that even non-rerouted
/// traffic through Level3 suffered.
pub(super) fn fig12(cx: &mut Cx) -> Claim {
    cx.header(
        "Figure 12 — leak-hour alarm component with edge labels",
        "connected component in Level3 with large edge shifts and red (forwarding) nodes",
    );
    let (case, _) = cx.pass();
    let leak_bins = hours(leak::leak_window());
    let gc = case.landmarks.gc_asn;
    let l3 = case.landmarks.level3_asn;
    let mapper = &case.mapper;

    let mut best: Option<(u64, AlarmGraph, usize)> = None;
    cx.each(|_, report| {
        if leak_bins.contains(&report.bin.0) && !report.delay_alarms.is_empty() {
            let g = report.alarm_graph();
            let edges = g.edge_count();
            if best.as_ref().map(|(_, _, e)| edges > *e).unwrap_or(true) {
                best = Some((report.bin.0, g, edges));
            }
        }
    });

    let Some((bin, graph, _)) = best else {
        return cx.verdict(false, "no alarms during the leak window");
    };
    say!(cx, "peak hour: bin {bin}\n");
    let comps = graph.components();
    let mut level3_nodes = 0usize;
    let mut max_label: f64 = 0.0;
    let mut red_nodes = 0usize;
    for (i, c) in comps.iter().enumerate() {
        say!(
            cx,
            "component #{i}: {} nodes, {} edges",
            c.nodes.len(),
            c.edges.len()
        );
        for e in &c.edges {
            let as_of = |ip| mapper.asn_of(ip).map(|a| a.to_string()).unwrap_or_default();
            say!(
                cx,
                "    {} ({}) — {} ({})  +{:.0} ms",
                e.a,
                as_of(e.a),
                e.b,
                as_of(e.b),
                e.median_shift_ms
            );
            max_label = max_label.max(e.median_shift_ms);
        }
        for n in &c.nodes {
            let asn = mapper.asn_of(*n);
            if asn == Some(gc) || asn == Some(l3) {
                level3_nodes += 1;
            }
        }
        red_nodes += c.forwarding_flagged.len();
        if !c.forwarding_flagged.is_empty() {
            say!(
                cx,
                "    forwarding-flagged (red) nodes: {:?}",
                c.forwarding_flagged
            );
        }
    }

    say!(cx, "\nLevel3-family nodes in components: {level3_nodes}");
    say!(cx, "largest edge label: +{max_label:.0} ms");
    say!(cx, "red nodes: {red_nodes}");
    cx.verdict(
        level3_nodes >= 2 && max_label > 10.0,
        &format!(
            "{level3_nodes} Level3 IPs in alarm components, max edge +{max_label:.0} ms, {red_nodes} red nodes (paper: +229/+108 ms, red NY node)"
        ),
    )
}

/// Figure 13: forwarding-anomaly magnitude of the AMS-IX peering LAN.
///
/// The paper: one deep negative spike on May 13 11:00 against a quiet
/// month; 770 LAN IP pairs became unresponsive; the delay method saw
/// nothing conclusive (no samples to measure).
pub(super) fn fig13(cx: &mut Cx) -> Claim {
    cx.header(
        "Figure 13 — AMS-IX forwarding-anomaly magnitude",
        "single deep negative peak at the outage; delay method silent",
    );
    let (case, _) = cx.pass();
    let amsix = case.landmarks.amsix_asn;
    let outage_bins = hours(ixp::outage_window());
    say!(cx, "ground-truth outage bins: {outage_bins:?}\n");
    let mapper = &case.mapper;

    let mut fwd: Vec<(u64, f64)> = Vec::new();
    let mut dly: Vec<(u64, f64)> = Vec::new();
    let mut lan_pairs = BTreeSet::new();
    cx.each(|_, report| {
        if let Some(m) = report.magnitude(amsix) {
            fwd.push((report.bin.0, m.forwarding_magnitude));
            dly.push((report.bin.0, m.delay_magnitude));
        }
        if outage_bins.contains(&report.bin.0) {
            for alarm in &report.forwarding_alarms {
                for (hop, r) in &alarm.responsibilities {
                    if let NextHop::Ip(ip) = hop {
                        if *r < -0.05 && mapper.asn_of(*ip) == Some(amsix) {
                            lan_pairs.insert((alarm.router, *ip));
                        }
                    }
                }
            }
        }
    });

    print_series(cx, &format!("{amsix} forwarding magnitude"), &fwd, 10);
    let (min_bin, min_mag) = fwd
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .copied()
        .unwrap_or((0, 0.0));
    let delay_at_outage = dly
        .iter()
        .filter(|(b, _)| outage_bins.contains(b))
        .map(|(_, m)| m.abs())
        .fold(0.0f64, f64::max);
    say!(cx, "\ndeepest magnitude: {min_mag:.1} at bin {min_bin}");
    say!(
        cx,
        "delay magnitude during the outage: {delay_at_outage:.2} (should stay small)"
    );
    say!(
        cx,
        "unresponsive LAN (router, next-hop) pairs: {}",
        lan_pairs.len()
    );

    cx.verdict(
        outage_bins.contains(&min_bin) && min_mag < -2.0 && min_mag.abs() > delay_at_outage,
        &format!(
            "minimum {min_mag:.1} inside the outage window, forwarding ≫ delay, {} LAN pairs dark (paper: −24, 770 pairs, delay inconclusive)",
            lan_pairs.len()
        ),
    )
}

/// Table A: the paper's in-text aggregate statistics (§7, "Results").
///
/// The paper reports, over 8 months of IPv4 data: 262k monitored links,
/// 147 probes per link on average, 33 % of links with at least one delay
/// alarm, 170k router IPs with forwarding models averaging ~4 next hops,
/// and delay magnitudes below 1 for 97 % of AS-hours. Our world is smaller
/// by construction; the *ratios* are the reproduction target.
pub(super) fn table_a(cx: &mut Cx) -> Claim {
    cx.header(
        "Table A — aggregate monitoring statistics",
        "links monitored / probes per link / % links alarmed / next hops per model / P(mag<1)",
    );
    let (case, _) = cx.pass();
    let start = case.start_bin;
    let mut alarmed_links: BTreeSet<IpLink> = BTreeSet::new();
    let mut seen_links: BTreeSet<IpLink> = BTreeSet::new();
    let mut probes_per_link: BTreeMap<IpLink, BTreeSet<u32>> = BTreeMap::new();
    let mut delay_mags: Vec<f64> = Vec::new();

    let summary = cx.each(|records, report| {
        // Probe coverage from a representative bin (coverage is stable).
        if report.bin == start {
            for (link, probes) in link_samples(records) {
                for probe in probes.keys() {
                    probes_per_link.entry(link).or_default().insert(probe.0);
                }
            }
        }
        for link in report.link_stats.keys() {
            seen_links.insert(*link);
        }
        for alarm in &report.delay_alarms {
            alarmed_links.insert(alarm.link);
        }
        for m in report.magnitudes.values() {
            delay_mags.push(m.delay_magnitude);
        }
    });

    let mean_probes = probes_per_link
        .values()
        .map(|s| s.len() as f64)
        .sum::<f64>()
        / probes_per_link.len().max(1) as f64;
    let pct_alarmed = 100.0 * alarmed_links.len() as f64 / seen_links.len().max(1) as f64;
    let p_below_1 = Ecdf::new(&delay_mags).cdf(1.0);

    say!(
        cx,
        "{:<46} {:>12} {:>14}",
        "metric",
        "measured",
        "paper (8 mo)"
    );
    say!(cx, "{:-<74}", "");
    let rows: Vec<(&str, String, &str)> = vec![
        ("traceroutes consumed", summary.records.to_string(), "2.8 B"),
        (
            "monitored links (≥3-AS diversity)",
            seen_links.len().to_string(),
            "262 k",
        ),
        (
            "mean probes observing a link",
            format!("{mean_probes:.0}"),
            "147",
        ),
        (
            "% links with ≥1 delay alarm",
            format!("{pct_alarmed:.0} %"),
            "33 %",
        ),
        (
            "router IPs with forwarding models",
            summary.tracked_patterns.to_string(),
            "170 k keys",
        ),
        (
            "mean next hops per model",
            format!("{:.1}", summary.mean_next_hops),
            "4",
        ),
        ("P(delay magnitude < 1)", format!("{p_below_1:.3}",), "0.97"),
        ("delay alarms", summary.delay_alarms.to_string(), "—"),
        (
            "forwarding alarms",
            summary.forwarding_alarms.to_string(),
            "—",
        ),
    ];
    for (name, measured, paper) in rows {
        say!(cx, "{name:<46} {measured:>12} {paper:>14}");
    }

    say!(
        cx,
        "\nnote: mean next hops per model is structurally lower than the paper's 4 —\n\
         the simulator's intra-AS forwarding is single-path, so only inter-AS ECMP\n\
         and loss events diversify patterns."
    );
    let ok = mean_probes >= 3.0
        && pct_alarmed > 1.0
        && pct_alarmed < 80.0
        && summary.mean_next_hops >= 1.05
        && p_below_1 > 0.85;
    cx.verdict(
        ok,
        &format!(
            "probes/link {mean_probes:.0}, alarmed {pct_alarmed:.0}%, next hops {:.1}, P(<1) {p_below_1:.3} — same orders as the paper's ratios",
            summary.mean_next_hops
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_spans_levels() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }
}
