//! The repo's benchmark: four workloads, each run in its own process.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run generates its inputs from the seed, measures for `--seconds`,
//! checks the program's outputs, prints every metric as `name unit
//! value`, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run records spans, writes them to
//! `benchmark/out/trace-<workload>.jsonl`, and prints the per-layer
//! metrics. A failed check ends the run with exit code 1.

mod engine;
mod gen;
mod http;
mod live;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Args, END_TO_END, PER_LAYER, WORKLOADS};

/// Seconds a run measures for unless told otherwise; `BENCHMARK.json`
/// carries the same number.
const DEFAULT_SECONDS: f64 = 25.0;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2015,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut words = std::env::args().skip(1);
    while let Some(word) = words.next() {
        let (key, value) = match word.split_once('=') {
            Some((key, value)) => (key.to_string(), value.to_string()),
            None => {
                let value = words
                    .next()
                    .ok_or_else(|| format!("{word} needs a value"))?;
                (word, value)
            }
        };
        let bad = |what: &str| format!("{key} {value}: expected {what}");
        match key.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad("a number in (0, 120]"));
                }
            }
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad("0 or 1"))? != 0,
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

/// Every workload, untraced then traced, each in a process of its own.
fn run_all(args: &Args) -> std::io::Result<bool> {
    let exe = std::env::current_exe()?;
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            println!("== {workload} --trace {trace}");
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args([
                    "--seed",
                    &args.seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                ])
                .status()?;
            ok &= status.success();
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let out = match workloads::run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let path = PathBuf::from(format!("benchmark/out/trace-{}.jsonl", args.workload));
        if let Err(e) = out.tracer.write_jsonl(&path) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "trace {} spans {}",
            path.display(),
            out.tracer.spans().len()
        );
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        // A metric the workload did not set reads 0: the workload does
        // not exercise that layer.
        let value = out
            .values
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        println!("{name} {unit} {value}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for note in &out.notes {
        println!("{note}");
    }
    for failure in &out.failures {
        println!("FAILED {failure}");
    }
    let correct = out.failed == 0 && out.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
