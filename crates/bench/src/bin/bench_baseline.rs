//! Emits the tracked lattice perf baseline (`BENCH_lattice.json`).
//!
//! ```text
//! cargo run --release -p fairsched-bench --bin bench_baseline -- \
//!     [--paper-scale] [--scale] [--samples N] [--out PATH] \
//!     [--compare PATH] [--quiet]
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
//! the escape hatch for noisy runners).

use fairsched_bench::baseline::{compare_reports, run_baseline, DEFAULT_TOLERANCE_PCT};
use fairsched_bench::cli::Cli;

/// Prints an operator-facing error and exits with a distinct status so CI
/// can tell an environment failure (2) from a perf regression (1).
fn fail(msg: String) -> ! {
    eprintln!("bench_baseline: {msg}");
    std::process::exit(2);
}

fn main() {
    let cli = Cli::parse();
    let paper_scale = cli.has("paper-scale");
    let scale = cli.has("scale");
    let samples = cli.get_or("samples", 5usize).max(1);
    let out = cli.get_or("out", "BENCH_lattice.json".to_string());
    let compare = cli.get("compare");

    let report = run_baseline(paper_scale, scale, samples);
    let json = serde_json::to_string_pretty(&report)
        .unwrap_or_else(|e| fail(format!("report does not serialize: {e}")));
    fairsched_core::journal::atomic_write(
        std::path::Path::new(&out),
        &format!("{json}\n"),
    )
    .unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));

    if !cli.has("quiet") {
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

    if let Some(committed_path) = compare {
        let tolerance = std::env::var("BENCH_TOLERANCE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(DEFAULT_TOLERANCE_PCT);
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
