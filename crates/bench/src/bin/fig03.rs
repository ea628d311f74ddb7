//! Figure 3: Q-Q normality of the median vs the mean differential RTT.
//!
//! The paper: hourly *medians* of the Cogent link's differential RTTs fit a
//! normal distribution (Q-Q points on the diagonal, Fig. 3a); hourly
//! *means* do not — ~125 gross outliers spread across the fortnight destroy
//! them (Fig. 3b). This is the empirical license for the median-CLT.

use pinpoint_bench::oracle::link_samples;
use pinpoint_bench::{header, opts_from_args, verdict};
use pinpoint_scenarios::steady;
use pinpoint_scenarios::Scale;
use pinpoint_stats::descriptive::Summary;
use pinpoint_stats::normal::{qq_correlation, qq_points};
use pinpoint_stats::quantile::median;

fn main() {
    let opts = opts_from_args();
    header(
        "Figure 3 — Q-Q normality: median vs mean differential RTT",
        "medians normally distributed (points on x=y); means wrecked by outliers",
        &opts,
    );
    let case = steady::case_study(opts.seed, opts.scale);
    let link = case.landmarks.cogent_link;
    let bins = match opts.scale {
        Scale::Small => 48,
        Scale::Paper => 14 * 24,
    };

    let mut medians = Vec::new();
    let mut means = Vec::new();
    for b in 0..bins {
        let records = case.platform.collect_bin(pinpoint_model::BinId(b));
        if let Some(probes) = link_samples(&records).get(&link) {
            let all: Vec<f64> = probes
                .values()
                .flat_map(|(_, s)| s.iter().copied())
                .collect();
            if let Some(m) = median(&all) {
                medians.push(m);
            }
            means.push(Summary::from_slice(&all).mean());
        }
    }

    let r_median = qq_correlation(&medians).unwrap_or(f64::NAN);
    let r_mean = qq_correlation(&means).unwrap_or(f64::NAN);

    println!("hourly estimates collected: {}", medians.len());
    println!("\n(a) median Δ Q-Q vs normal: r = {r_median:.4}");
    for (theo, samp) in qq_points(&medians).iter().step_by(medians.len().max(8) / 8) {
        println!("    theoretical {theo:>7.2}  sample {samp:>7.2}");
    }
    println!("\n(b) mean Δ Q-Q vs normal:   r = {r_mean:.4}");
    for (theo, samp) in qq_points(&means).iter().step_by(means.len().max(8) / 8) {
        println!("    theoretical {theo:>7.2}  sample {samp:>7.2}");
    }

    let ok = r_median > 0.95 && r_median > r_mean;
    verdict(
        ok,
        &format!(
            "median Q-Q r={r_median:.3} vs mean Q-Q r={r_mean:.3} (paper: median on the diagonal, mean far off)"
        ),
    );
}
