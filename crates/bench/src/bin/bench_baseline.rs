//! Emits the tracked lattice perf baseline (`BENCH_lattice.json`).
//!
//! ```text
//! cargo run --release -p fairsched-bench --bin bench_baseline -- \
//!     [--scale] [--samples N] [--out PATH] [--compare PATH] [--quiet]
//! ```
//!
//! See `fairsched_bench::baseline` for the report format. The summary
//! (REF `k=8` wall time and speedup against the committed pre-fast-path
//! reference) is printed to stderr; the JSON goes to `--out`
//! (default `BENCH_lattice.json`).
//!
//! `--scale` appends REF at `k` = 10 and 12 (`ref/k=10`, `ref/k=12`) and
//! the million-job tier (`scale/` rows: 10⁶ jobs over 100 organizations,
//! non-lattice schedulers). `--compare PATH` turns the
//! run into a regression gate: every case name shared with the committed
//! report at `PATH` is compared on `wall_ns_min`, and the process exits
//! non-zero if any is slower by more than the tolerance (15% by default;
//! override with the `BENCH_TOLERANCE` environment variable, in percent —
//! the escape hatch for noisy runners). An unknown argument, a missing
//! value, an unparsable number or a `BENCH_TOLERANCE` that is not a
//! finite non-negative percentage exits 2 before anything is measured, so
//! a typo cannot turn the gate off.

use fairsched_bench::baseline::{compare_reports, run_baseline, DEFAULT_TOLERANCE_PCT};

const USAGE: &str =
    "usage: bench_baseline [--scale] [--samples N] [--out PATH] [--compare PATH] [--quiet]";

/// Prints an operator-facing error and exits with a distinct status so CI
/// can tell an environment or usage failure (2) from a perf regression (1).
fn fail(msg: String) -> ! {
    eprintln!("bench_baseline: {msg}");
    std::process::exit(2);
}

/// The parsed command line, with the gate's tolerance in percent.
struct Args {
    scale: bool,
    quiet: bool,
    samples: usize,
    out: String,
    compare: Option<String>,
    tolerance: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: false,
        quiet: false,
        samples: 5,
        out: "BENCH_lattice.json".to_string(),
        compare: None,
        tolerance: DEFAULT_TOLERANCE_PCT,
    };
    let mut tokens = std::env::args().skip(1);
    while let Some(flag) = tokens.next() {
        let mut value = || {
            tokens
                .next()
                .filter(|v| !v.starts_with("--"))
                .unwrap_or_else(|| fail(format!("{flag} needs a value\n{USAGE}")))
        };
        match flag.as_str() {
            "--scale" => args.scale = true,
            "--quiet" => args.quiet = true,
            "--samples" => {
                let v = value();
                args.samples = v.parse().unwrap_or_else(|_| {
                    fail(format!("--samples: {v:?} is not a count\n{USAGE}"))
                });
            }
            "--out" => args.out = value(),
            "--compare" => args.compare = Some(value()),
            _ => fail(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    match std::env::var("BENCH_TOLERANCE") {
        Err(std::env::VarError::NotPresent) => {}
        value => {
            args.tolerance = value
                .ok()
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|t| t.is_finite() && *t >= 0.0)
                .unwrap_or_else(|| {
                    fail("BENCH_TOLERANCE is not a percentage".to_string())
                });
        }
    }
    args
}

fn main() {
    let Args { scale, quiet, samples, out, compare, tolerance } = parse_args();

    let report = run_baseline(scale, samples.max(1));
    let json = serde_json::to_string_pretty(&report)
        .unwrap_or_else(|e| fail(format!("report does not serialize: {e}")));
    fairsched_core::journal::atomic_write(
        std::path::Path::new(&out),
        &format!("{json}\n"),
    )
    .unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));

    if !quiet {
        for c in &report.cases {
            eprintln!(
                "{:<22} min {:>10.3} ms  mean {:>10.3} ms  {:>12.0} events/s",
                c.name,
                c.wall_ns_min as f64 / 1e6,
                c.wall_ns_mean as f64 / 1e6,
                c.events_per_sec,
            );
        }
        eprintln!(
            "ref/k=8: {:.3} ms vs reference {:.3} ms -> {:.2}x ({} written)",
            report.summary.ref_k8_wall_ns_min as f64 / 1e6,
            report.reference.ref_k8_wall_ns_min as f64 / 1e6,
            report.summary.speedup_vs_reference,
            out,
        );
    }

    if let Some(committed_path) = &compare {
        let text = std::fs::read_to_string(committed_path)
            .unwrap_or_else(|e| fail(format!("cannot read {committed_path}: {e}")));
        let committed = serde_json::parse_value(&text)
            .unwrap_or_else(|e| fail(format!("cannot parse {committed_path}: {e}")));
        let comparisons =
            compare_reports(&committed, &report, tolerance).unwrap_or_else(|e| {
                fail(format!("cannot compare against {committed_path}: {e}"))
            });
        let mut regressed = false;
        for c in &comparisons {
            eprintln!(
                "{:<22} committed {:>10.3} ms  fresh {:>10.3} ms  {:>6.2}x{}",
                c.name,
                c.committed_wall_ns_min as f64 / 1e6,
                c.fresh_wall_ns_min as f64 / 1e6,
                c.ratio,
                if c.regressed { "  REGRESSED" } else { "" },
            );
            regressed |= c.regressed;
        }
        if regressed {
            eprintln!(
                "bench regression gate: wall time regressed beyond {tolerance}% \
                 (set BENCH_TOLERANCE to loosen)"
            );
            std::process::exit(1);
        }
        eprintln!(
            "bench regression gate: {} shared case(s) within {tolerance}%",
            comparisons.len()
        );
    }
}
