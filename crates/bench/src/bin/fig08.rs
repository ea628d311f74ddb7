//! Figure 8: the connected component of alarms around K-root at the peak
//! of the first attack.
//!
//! The paper: a star-ish component centred on the anycast address (each
//! edge ≈ one instance), adjacent to components of the F- and I-root
//! services through shared exchange points; 129 IPv4 alarms involved root
//! servers during the attack hours.

use pinpoint_bench::{header, opts_from_args, verdict};
use pinpoint_core::graph::AlarmGraph;
use pinpoint_scenarios::ddos;
use pinpoint_scenarios::runner::run;

fn main() {
    let opts = opts_from_args();
    header(
        "Figure 8 — alarm component around K-root (attack peak)",
        "anycast node with high degree; F/I-root alarms adjacent via shared IXPs",
        &opts,
    );
    let case = ddos::case_study(opts.seed, opts.scale);
    let kroot = case.landmarks.kroot_addr;
    let froot = case.landmarks.froot_addr;
    let iroot = case.landmarks.iroot_addr;
    let lroot = case.landmarks.lroot_addr;
    let (a1s, a1e) = ddos::attack1(opts.scale);
    let attack_bins: Vec<u64> = (a1s.0 / 3600..=a1e.0 / 3600).collect();

    // Merge the attack-window alarms into one graph (the paper plots one
    // hour; merging the window is equivalent here and more stable at small
    // scale).
    let mut analyzer = case.analyzer();
    let mut graph = AlarmGraph::new();
    let mut root_alarms = 0usize;
    run(&case, &mut analyzer, |report| {
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

    println!("alarm edges during attack window: {}", graph.edge_count());
    println!("alarms touching root addresses: {root_alarms}\n");

    let comp = graph.component_of(kroot);
    match &comp {
        Some(c) => {
            println!(
                "K-root component: {} nodes, {} edges, K-root degree {}",
                c.nodes.len(),
                c.edges.len(),
                c.degree(kroot)
            );
            for e in &c.edges {
                println!(
                    "    {} — {}  (+{:.1} ms, d={:.1})",
                    e.a, e.b, e.median_shift_ms, e.deviation
                );
            }
        }
        None => println!("K-root component: none"),
    }
    let f_in_graph = graph.component_of(froot).is_some();
    let i_in_graph = graph.component_of(iroot).is_some();
    let l_clean = graph.component_of(lroot).is_none();
    println!(
        "\nF-root alarmed: {f_in_graph} | I-root alarmed: {i_in_graph} | L-root clean: {l_clean}"
    );

    let kdeg = comp.as_ref().map(|c| c.degree(kroot)).unwrap_or(0);
    verdict(
        kdeg >= 2 && l_clean,
        &format!(
            "K-root degree {kdeg} (≥2 instances reported), F={f_in_graph}/I={i_in_graph} alarmed, L-root clean={l_clean} (paper: multi-edge anycast node, A/D/G/L/M clean)"
        ),
    );
}
