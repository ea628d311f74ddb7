//! # pinpoint-bench
//!
//! The evaluation harness: one binary per figure/table of the paper,
//! plus the synthetic Atlas-scale workload generators ([`workload`]) and
//! the paper-literal reference the engine is checked against ([`oracle`]).
//!
//! Every `fig*` binary accepts:
//!
//! * `--scale=small|paper` — fidelity (default `small`; `paper`
//!   approximates the published figure's probe counts and windows);
//! * `--seed=<u64>` — scenario seed (default 2015).
//!
//! Binaries print the *series the figure plots* (plus an ASCII sparkline
//! for quick eyeballing) and a `VERDICT:` line summarizing whether the
//! paper's qualitative claim reproduced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod workload;

use pinpoint_scenarios::Scale;

/// Parsed harness options.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOpts {
    /// Scenario fidelity.
    pub scale: Scale,
    /// Scenario seed.
    pub seed: u64,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            scale: Scale::Small,
            seed: 2015,
        }
    }
}

/// Parse `--scale=` / `--seed=` from `std::env::args`.
pub fn opts_from_args() -> HarnessOpts {
    let mut opts = HarnessOpts::default();
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--scale=") {
            opts.scale = match v {
                "paper" => Scale::Paper,
                "small" => Scale::Small,
                other => panic!("unknown scale {other:?} (use small|paper)"),
            };
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            opts.seed = v.parse().expect("--seed must be a u64");
        } else if arg == "--help" || arg == "-h" {
            eprintln!("usage: [--scale=small|paper] [--seed=N]");
            std::process::exit(0);
        }
    }
    opts
}

/// Print the standard experiment header.
pub fn header(experiment: &str, claim: &str, opts: &HarnessOpts) {
    println!("==== {experiment} ====");
    println!("paper claim: {claim}");
    println!(
        "run: scale={:?} seed={} (rerun with --scale=paper for figure fidelity)\n",
        opts.scale, opts.seed
    );
}

/// Eight-level ASCII sparkline of a series (`min..max` normalized).
pub fn sparkline(values: &[f64]) -> String {
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
pub fn print_series(name: &str, series: &[(u64, f64)], max_rows: usize) {
    println!("{name}: {} points", series.len());
    let values: Vec<f64> = series.iter().map(|(_, v)| *v).collect();
    println!("  {}", sparkline(&values));
    let show = max_rows.min(series.len());
    let head = show / 2;
    let tail = show - head;
    for (x, y) in series.iter().take(head) {
        println!("  {x:>6}  {y:>12.3}");
    }
    if series.len() > show {
        println!("  ... ({} rows elided) ...", series.len() - show);
    }
    for (x, y) in series.iter().skip(series.len().saturating_sub(tail)) {
        println!("  {x:>6}  {y:>12.3}");
    }
}

/// Print the final `VERDICT:` line.
pub fn verdict(ok: bool, detail: &str) {
    println!(
        "\nVERDICT: {} — {detail}",
        if ok { "REPRODUCED" } else { "DIVERGED" }
    );
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

    #[test]
    fn default_opts() {
        let o = HarnessOpts::default();
        assert_eq!(o.seed, 2015);
        assert_eq!(o.scale, Scale::Small);
    }
}
