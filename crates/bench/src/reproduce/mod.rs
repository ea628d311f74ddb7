//! The paper's figures and tables as one table of claims over one
//! simulation per scenario.
//!
//! Each claim is straight-line code on its own thread: print a header,
//! read its scenario passes, print the series its figure plots, end in a
//! `VERDICT:` line. [`reproduce`] assembles each (scenario, seed, scale)
//! case study once and drives one pass over it, sending every bin's
//! records and the default analyzer's report to each claim that reads
//! the scenario. Variant analyzers (the ablations' α, τ and diversity
//! settings) run inside their claim on those records; Appendix B builds
//! its own platform.

use pinpoint_core::BinReport;
use pinpoint_model::records::TracerouteRecord;
use pinpoint_scenarios::runner::run_with_records;
use pinpoint_scenarios::{ddos, full, ixp, leak, steady, CaseStudy, RunSummary, Scale};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;

/// `println!` into a claim's output: `say!(cx, "…")`.
macro_rules! say {
    ($cx:expr) => {
        $cx.out.push('\n')
    };
    ($cx:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($cx.out, $($arg)*).expect("writing to a String cannot fail");
    }};
}

mod ablations;
mod appendix_b;
mod figures;

/// What one paper claim came to on one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Table id (`fig02`, …, `appendix_b`).
    pub id: &'static str,
    /// What the paper claims.
    pub paper: &'static str,
    /// What the run measured: the detail of the `VERDICT:` line.
    pub measured: String,
    /// Whether the claim reproduced.
    pub ok: bool,
}

/// The case studies a pass can simulate, in the order passes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Scenario {
    Steady,
    Full,
    Ddos,
    Leak,
    Ixp,
}

use Scenario::{Ddos, Full, Ixp, Leak, Steady};

impl Scenario {
    fn case_study(self, seed: u64, scale: Scale) -> CaseStudy {
        match self {
            Steady => steady::case_study(seed, scale),
            Full => full::case_study(seed, scale),
            Ddos => ddos::case_study(seed, scale),
            Leak => leak::case_study(seed, scale),
            Ixp => ixp::case_study(seed, scale),
        }
    }
}

/// One row of the claim table: the claim's id, the scenarios whose passes
/// it reads (in pass order), the scale those passes are pinned to
/// whatever `--scale` says, and its code.
type Spec = (
    &'static str,
    &'static [Scenario],
    Option<Scale>,
    fn(&mut Cx) -> Claim,
);

/// Every claim, in print order. The ablations always read `Small` cases.
static CLAIMS: [Spec; 13] = [
    ("fig02", &[Steady], None, figures::fig02),
    ("fig03", &[Steady], None, figures::fig03),
    ("fig05", &[Full], None, figures::fig05),
    ("fig06", &[Ddos], None, figures::fig06),
    ("fig07", &[Ddos], None, figures::fig07),
    ("fig08", &[Ddos], None, figures::fig08),
    ("fig09_10", &[Leak], None, figures::fig09_10),
    ("fig11", &[Leak], None, figures::fig11),
    ("fig12", &[Leak], None, figures::fig12),
    ("fig13", &[Ixp], None, figures::fig13),
    ("table_a", &[Full], None, figures::table_a),
    (
        "ablations",
        &[Steady, Leak, Ixp],
        Some(Scale::Small),
        ablations::ablations,
    ),
    ("appendix_b", &[], None, appendix_b::appendix_b),
];

/// What a claim's channel carries: for each pass it reads, the case
/// study and its scale, every bin, then the pass's counters.
enum Event {
    Case(Arc<CaseStudy>, Scale),
    Bin(Arc<(Vec<TracerouteRecord>, BinReport)>),
    End(RunSummary),
}

/// One claim's run: its passes as they arrive, and what it prints.
struct Cx {
    claim: Claim,
    seed: u64,
    scale: Scale,
    events: Receiver<Event>,
    out: String,
}

impl Cx {
    /// Print the standard experiment header.
    fn header(&mut self, experiment: &str, claim: &'static str) {
        self.claim.paper = claim;
        let (scale, seed) = (self.scale, self.seed);
        say!(self, "==== {experiment} ====\npaper claim: {claim}");
        say!(
            self,
            "run: scale={scale:?} seed={seed} (rerun with --scale=paper for figure fidelity)\n"
        );
    }

    /// The case study (and its scale) of the next pass the claim reads.
    fn pass(&self) -> (Arc<CaseStudy>, Scale) {
        match self.events.recv() {
            Ok(Event::Case(case, scale)) => (case, scale),
            _ => panic!("a pass opens with its case study"),
        }
    }

    /// Hand every bin of the open pass to `watch` in bin order (its records
    /// and the default analyzer's report); return the pass's counters.
    fn each(&self, mut watch: impl FnMut(&[TracerouteRecord], &BinReport)) -> RunSummary {
        for event in &self.events {
            match event {
                Event::Bin(bin) => watch(&bin.0, &bin.1),
                Event::End(summary) => return summary,
                Event::Case(..) => break,
            }
        }
        panic!("a pass ends with its counters")
    }

    /// Print the final `VERDICT:` line.
    fn verdict(&mut self, ok: bool, detail: &str) -> Claim {
        let status = if ok { "REPRODUCED" } else { "DIVERGED" };
        say!(self, "\nVERDICT: {status} — {detail}");
        let measured = detail.to_string();
        Claim {
            measured,
            ok,
            ..self.claim.clone()
        }
    }
}

/// What to reproduce.
#[derive(Debug, PartialEq)]
pub struct Opts {
    /// Scenario fidelity (`--scale=small|paper`).
    pub scale: Scale,
    /// Scenario seed (`--seed=N`).
    pub seed: u64,
    /// Ids of the claims to run (`--only=<id>[,<id>…]`; all by default).
    pub only: Vec<&'static str>,
}

/// Parse the arguments after the program name; `Ok(None)` asks for help.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<Opts>, String> {
    let ids = CLAIMS.map(|(id, ..)| id);
    let (mut scale, mut seed, mut only) = (Scale::Small, 2015, ids.to_vec());
    for arg in args {
        match arg.split_once('=') {
            Some(("--scale", "small")) => scale = Scale::Small,
            Some(("--scale", "paper")) => scale = Scale::Paper,
            Some(("--seed", v)) => seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?,
            Some(("--only", v)) => {
                let known = |id: &str| ids.into_iter().find(|&c| c == id);
                let chosen = v
                    .split(',')
                    .map(|id| known(id).ok_or(format!("unknown claim {id:?}")));
                only = chosen.collect::<Result<_, _>>()?;
            }
            None if arg == "--help" || arg == "-h" => return Ok(None),
            _ => return Err(format!("bad argument {arg:?}")),
        }
    }
    Ok(Some(Opts { scale, seed, only }))
}

/// Reproduce the chosen claims, each pass once, handing each claim's
/// text to `print` in table order as it completes.
pub fn reproduce(opts: &Opts, mut print: impl FnMut(&str)) -> Vec<Claim> {
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        let mut claims = Vec::new();
        for &(id, reads, pin, run) in CLAIMS.iter().filter(|(id, ..)| opts.only.contains(id)) {
            // One event in flight per claim bounds what a slow claim holds.
            let (tx, events) = sync_channel(1);
            let scale = pin.unwrap_or(opts.scale);
            readers.push((reads.iter().map(|&s| (s, scale)).collect::<Vec<_>>(), tx));
            let claim = Claim {
                id,
                paper: "",
                measured: String::new(),
                ok: false,
            };
            let (seed, scale, out) = (opts.seed, opts.scale, String::new());
            let mut cx = Cx {
                claim,
                seed,
                scale,
                events,
                out,
            };
            claims.push(scope.spawn(move || (run(&mut cx), cx.out)));
        }
        // Passes run in scenario order, the order each claim reads its own
        // in, so no claim waits on a pass that waits on it.
        let mut passes: Vec<_> = readers.iter().flat_map(|(p, _)| p.clone()).collect();
        passes.sort_by_key(|&(scenario, scale)| (scenario, scale == Scale::Paper));
        passes.dedup();
        scope.spawn(move || {
            for (scenario, scale) in passes {
                let case = Arc::new(scenario.case_study(opts.seed, scale));
                let to: Vec<_> = readers
                    .iter()
                    .filter(|(p, _)| p.contains(&(scenario, scale)))
                    .collect();
                // A send to a claim that is gone is dropped.
                let send = |event: &dyn Fn() -> Event| {
                    to.iter().for_each(|(_, tx)| drop(tx.send(event())))
                };
                send(&|| Event::Case(Arc::clone(&case), scale));
                let run = run_with_records(&case, &mut case.analyzer(), |records, report| {
                    let bin = Arc::new((records, report));
                    send(&|| Event::Bin(Arc::clone(&bin)));
                });
                send(&|| Event::End(run.clone()));
            }
        });
        let joined = claims
            .into_iter()
            .map(|c| c.join().expect("a claim panicked"));
        joined
            .map(|(claim, text)| {
                print(&text);
                claim
            })
            .collect()
    })
}

/// The `reproduce` binary on `args` (without the program name): every
/// chosen claim, then a summary table. Returns the exit code: 0 when every
/// claim reproduced, 1 when one diverged, 2 on a bad command line.
pub fn main(args: impl IntoIterator<Item = String>) -> i32 {
    let ids = CLAIMS.map(|(id, ..)| id).join(", ");
    let usage = format!(
        "usage: reproduce [--scale=small|paper] [--seed=N] [--only=<id>[,<id>…]]\n  ids: {ids}"
    );
    let opts = match parse(args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{usage}");
            return 0;
        }
        Err(e) => {
            eprintln!("reproduce: {e}\n{usage}");
            return 2;
        }
    };
    let claims = reproduce(&opts, |text| print!("{text}"));
    println!(
        "\n==== reproduce: scale={:?} seed={} ====",
        opts.scale, opts.seed
    );
    for c in &claims {
        let status = if c.ok { "REPRODUCED" } else { "DIVERGED" };
        println!("{:<11} {status:<10}  {}", c.id, c.measured);
    }
    let diverged = claims.iter().filter(|c| !c.ok).count();
    println!(
        "{} of {} claims reproduced, {diverged} diverged",
        claims.len() - diverged,
        claims.len()
    );
    i32::from(diverged > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Option<Opts>, String> {
        super::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_table_lists_thirteen_unique_claims_reading_in_pass_order() {
        let mut ids = CLAIMS.map(|(id, ..)| id);
        let all = "fig02 fig03 fig05 fig06 fig07 fig08 fig09_10 fig11 fig12 fig13 \
                   table_a ablations appendix_b";
        assert_eq!(ids.join(" "), all);
        ids.sort_unstable();
        assert!(
            ids.windows(2).all(|w| w[0] != w[1]),
            "claim ids must be unique"
        );
        assert!(CLAIMS
            .iter()
            .all(|(_, reads, ..)| reads.windows(2).all(|w| w[0] < w[1])));
    }

    #[test]
    fn arguments_parse_or_name_what_is_wrong() {
        let o = parse(&[]).unwrap().unwrap();
        assert_eq!((o.seed, o.scale, o.only.len()), (2015, Scale::Small, 13));
        let o = parse(&["--seed=7", "--scale=paper", "--only=fig13,fig02"])
            .unwrap()
            .unwrap();
        assert_eq!(
            (o.seed, o.scale, o.only),
            (7, Scale::Paper, vec!["fig13", "fig02"])
        );
        assert_eq!(parse(&["-h"]), Ok(None));
        for bad in [
            "--seed=x",
            "--scale=huge",
            "--only=fig04",
            "--only=,",
            "--fast",
        ] {
            assert!(parse(&[bad]).is_err(), "{bad} parsed");
        }
        assert_eq!(main(["--scale=huge".to_string()]), 2);
    }

    #[test]
    fn appendix_b_reproduces() {
        let opts = parse(&["--only=appendix_b"]).unwrap().unwrap();
        let mut printed = String::new();
        let claims = reproduce(&opts, |text| printed.push_str(text));
        assert_eq!(claims.len(), 1);
        assert!(claims[0].ok, "{printed}");
        assert!(printed.ends_with(&format!("VERDICT: REPRODUCED — {}\n", claims[0].measured)));
    }
}
