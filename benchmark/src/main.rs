//! The repo benchmark (see `BENCHMARK.json` and `benchmark/README.md`).
//!
//! ```text
//! fairsched-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run of one workload; the last stdout line is the JSON result
//! fairsched-benchmark run [--seed N] [--seconds S] [--traced]
//!     every workload, one process each, every metric by name
//! fairsched-benchmark aa [--seed N] [--seconds S] [--runs R]
//!     two untraced sets of the same code, compared against the bounds
//! fairsched-benchmark expected
//!     the seed-42 statistics, as committed in expected/seed42.json
//! ```

mod batch;
mod expected;
mod gen;
mod grid;
mod outcome;
mod proc;
mod report;
mod serve;
mod span;
mod stats;

use outcome::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// What every workload needs for one run.
pub struct Ctx {
    /// The workload's name, for messages and the span file.
    pub workload: String,
    /// Drives the input generators and nothing else.
    pub seed: u64,
    /// How long the timed region lasts; a unit of work that has started is
    /// finished, and at least three units run.
    pub seconds: f64,
    /// The release `fairsched` binary, built from this checkout.
    pub cli: PathBuf,
    pub scratch: proc::Scratch,
}

impl Ctx {
    /// Whether the timed region goes on: until `seconds` have passed since
    /// `started`, and for three units whatever they take.
    pub fn goes_on(&self, started: std::time::Instant, units_done: usize) -> bool {
        units_done < 3 || started.elapsed().as_secs_f64() < self.seconds
    }
}

/// The workloads, in the order of `BENCHMARK.json`.
pub const WORKLOADS: [&str; 6] =
    ["ref_k10", "swf_million", "grid_run", "grid_resume", "serve_online", "serve_reopen"];

fn run_workload(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let batch = |case| {
        if trace {
            batch::traced(case, ctx)
        } else {
            batch::untraced(case, ctx)
        }
    };
    // The two grid workloads share one traced pass, as do the two serve ones.
    let grid = |mode| if trace { grid::traced(ctx) } else { grid::untraced(mode, ctx) };
    let serve =
        |mode| if trace { serve::traced(ctx) } else { serve::untraced(mode, ctx) };
    match ctx.workload.as_str() {
        "ref_k10" => batch(batch::Case::RefK10),
        "swf_million" => batch(batch::Case::SwfMillion),
        "grid_run" => grid(grid::Mode::Run),
        "grid_resume" => grid(grid::Mode::Resume),
        "serve_online" => serve(serve::Mode::Online),
        "serve_reopen" => serve(serve::Mode::Reopen),
        other => {
            Err(format!("unknown workload {other:?}; known: {}", WORKLOADS.join(", ")))
        }
    }
}

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(text) => {
                text.parse().map_err(|_| format!("bad value for {key}: {text}"))
            }
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn context(workload: &str, seed: u64, seconds: f64) -> Result<Ctx, String> {
    let cli = proc::build_cli()?;
    let scratch =
        proc::Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    Ok(Ctx { workload: workload.to_string(), seed, seconds, cli, scratch })
}

/// One run of one workload. Prints the metric table, then the result line.
fn single(flags: &Flags) -> Result<bool, String> {
    let workload = flags.value("--workload").ok_or("--workload is required")?;
    let trace = match flags.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let ctx = context(
        workload,
        flags.parsed("--seed", expected::SEED)?,
        flags.parsed("--seconds", 8.0)?,
    )?;
    let outcome = run_workload(&ctx, trace)?;
    let metrics = if trace { PER_LAYER } else { END_TO_END };
    println!("{workload} (seed {}, trace {})", ctx.seed, u8::from(trace));
    let declared = report::declared().unwrap_or_default();
    let bound_of = |name: &str| declared.iter().find(|m| m.name == name).map(|m| m.bound);
    print!("{}", outcome.table(metrics, bound_of));
    println!("{}", outcome.result_line(metrics));
    // A run that printed its result exits 0; failed operations are in it.
    Ok(true)
}

fn expected_views() -> Result<(), String> {
    use serde::Value;
    let ctx = context("expected", expected::SEED, 0.0)?;
    let doc = Value::Object(vec![
        ("ref_k10".to_string(), batch::seed_view(batch::Case::RefK10, &ctx)?),
        ("swf_million".to_string(), batch::seed_view(batch::Case::SwfMillion, &ctx)?),
        ("grid".to_string(), grid::seed_view(&ctx)?),
        ("serve".to_string(), serve::seed_view(&ctx)?),
    ]);
    println!("{}", doc.to_json_pretty());
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first() {
        Some(first) if !first.starts_with("--") => args.remove(0),
        _ => String::new(),
    };
    let flags = Flags(args);
    let done = match command.as_str() {
        "" => single(&flags),
        "run" => report::run(&flags),
        "aa" => report::aa(&flags),
        "expected" => expected_views().map(|()| true),
        other => Err(format!("unknown command {other:?} (run | aa | expected)")),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("fairsched-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
