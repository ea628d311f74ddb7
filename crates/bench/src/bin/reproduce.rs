//! Reproduce the paper's figures and tables: one pass per scenario, one
//! verdict per claim, and a summary table. See
//! [`pinpoint_bench::reproduce`] for the options and the exit codes.

fn main() {
    std::process::exit(pinpoint_bench::reproduce::main(std::env::args().skip(1)));
}
