//! CLI entry point: `fairsched-analyze check [--root DIR] [--report FILE]
//! [--update-ratchet]`.

use std::path::PathBuf;
use std::process::ExitCode;

use fairsched_analyze::{run_check, Options};

const USAGE: &str = "\
usage: fairsched-analyze check [--root DIR] [--report FILE] [--update-ratchet]

Offline static analysis of the fairsched workspace: Time-overflow
widening, spec-literal validity, golden/bench hygiene (with per-lint
ceilings on #[expect(clippy::...)] sites), and schema-version
registration. (Panic-freedom, determinism and durable writes are
clippy's job: see the root Cargo.toml and each crate's clippy.toml.)

  --root DIR        workspace root (default: current directory)
  --report FILE     also write the JSON report here
  --update-ratchet  rewrite lint_ratchet.toml to the current counts

exit status: 0 clean, 1 lint failure (over a ratchet), 2 usage/config error
";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some("check") {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }
    let mut opts = Options { root: PathBuf::from("."), update_ratchet: false };
    let mut report_path: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => opts.root = PathBuf::from(v),
                None => return usage_error("--root needs a value"),
            },
            "--report" => match args.next() {
                Some(v) => report_path = Some(PathBuf::from(v)),
                None => return usage_error("--report needs a value"),
            },
            "--update-ratchet" => opts.update_ratchet = true,
            other => return usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let outcome = match run_check(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fairsched-analyze: error: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &outcome.findings {
        if f.line > 0 {
            println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        } else {
            println!("{}: [{}] {}", f.path, f.rule, f.message);
        }
    }
    for w in &outcome.warnings {
        println!("warning: {w}");
    }
    println!("--");
    for (rule, count) in &outcome.totals {
        let limit = outcome.ratchet.get(rule).copied().unwrap_or(0);
        println!("{rule}: {count} findings (ratchet {limit})");
    }
    if outcome.suppressed > 0 {
        println!("{} findings suppressed by lint_allow.toml", outcome.suppressed);
    }

    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, outcome.report().to_json_pretty()) {
            eprintln!("fairsched-analyze: cannot write report {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("report written to {}", path.display());
    }

    if outcome.ok() {
        println!("OK");
        ExitCode::SUCCESS
    } else {
        for f in &outcome.failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::from(1)
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("fairsched-analyze: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}
