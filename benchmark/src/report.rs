//! The two multi-run commands: `run` (every workload once) and `aa` (two
//! sets of runs of the same code, held against the benchmark's own bounds).

use crate::expected::{number, SEED};
use crate::proc::repo_root;
use crate::stats::{median, spread};
use crate::{Flags, WORKLOADS};
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The end-to-end metrics of `BENCHMARK.json`, where the bounds live.
pub fn declared() -> Result<Vec<Declared>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::parse_value(&text).map_err(|e| e.to_string())?;
    let Some(Value::Array(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json lists no end_to_end metrics".to_string());
    };
    metrics
        .iter()
        .map(|m| {
            let text =
                |key| serde::field::<String>(m, key, "metric").map_err(|e| e.to_string());
            Ok(Declared {
                name: text("name")?,
                lower_is_better: text("better")? == "lower",
                bound: number(m, "bound")?,
            })
        })
        .collect()
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload, "--seed", &seed.to_string()]);
    command.args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    Ok(command)
}

/// `run`: one harness process per workload, each printing its metrics.
pub fn run(flags: &Flags) -> Result<bool, String> {
    let seed = flags.parsed("--seed", SEED)?;
    let seconds = flags.parsed("--seconds", 8.0)?;
    let mut clean = true;
    for workload in WORKLOADS {
        let status = child(workload, seed, seconds, flags.has("--traced"))?
            .status()
            .map_err(|e| e.to_string())?;
        clean &= status.success();
    }
    Ok(clean)
}

/// One untraced run's result: the end-to-end values by metric name, and
/// whether every operation succeeded.
fn measure(
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<(BTreeMap<String, f64>, bool), String> {
    let output = child(workload, seed, seconds, false)?
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line =
        stdout.lines().last().ok_or_else(|| format!("{workload}: no result line"))?;
    let doc = serde_json::parse_value(line).map_err(|e| format!("{workload}: {e}"))?;
    let metrics =
        doc.get("metrics").and_then(Value::as_object).ok_or("result has no metrics")?;
    let values = metrics
        .iter()
        .map(|(name, m)| number(m, "value").map(|v| (name.clone(), v)))
        .collect::<Result<_, _>>()?;
    Ok((values, doc.get("correct") == Some(&Value::Bool(true))))
}

/// `aa`: two sets of `--runs` untraced runs (run `r` of either set uses
/// seed + r). A metric × workload passes when the second set's median is
/// not worse than the first's by more than the bound and, with four runs
/// or more per set, when each set's interquartile spread stays within the
/// bound too (`setup_s` is exempt from the spread rule).
pub fn aa(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.parsed("--seed", SEED)?;
    let seconds = flags.parsed("--seconds", 8.0)?;
    let runs: u64 = flags.parsed("--runs", 1)?;
    let metrics = declared()?;
    // values[workload][metric][set]
    let mut values: BTreeMap<&str, BTreeMap<String, [Vec<f64>; 2]>> = BTreeMap::new();
    let mut pass = true;
    for set in 0..2 {
        for r in 0..runs {
            for workload in WORKLOADS {
                let (measured, correct) = measure(workload, seed + r, seconds)?;
                if !correct {
                    println!("{workload} seed {} set {set}: operations failed", seed + r);
                    pass = false;
                }
                for (name, value) in measured {
                    values.entry(workload).or_default().entry(name).or_default()[set]
                        .push(value);
                }
            }
        }
    }
    println!(
        "{:<13} {:<12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "first", "second", "worse", "spread1", "spread2", "bound"
    );
    for workload in WORKLOADS {
        for metric in &metrics {
            let [first, second] = &values[workload][&metric.name];
            let (a, b) = (median(first), median(second));
            let worse = if metric.lower_is_better { (b - a) / a } else { (a - b) / a };
            let spreads = (runs >= 4).then(|| [spread(first), spread(second)]);
            let steady = metric.name == "setup_s"
                || spreads.is_none_or(|s| s.iter().all(|s| *s <= metric.bound));
            let ok = worse <= metric.bound && steady;
            pass &= ok;
            let show = |s: Option<f64>| {
                s.map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0))
            };
            println!(
                "{workload:<13} {:<12} {a:>12.5} {b:>12.5} {:>7.2}% {:>8} {:>8} {:>5.0}% {}",
                metric.name,
                worse * 100.0,
                show(spreads.map(|s| s[0])),
                show(spreads.map(|s| s[1])),
                metric.bound * 100.0,
                if ok { "PASS" } else { "FAIL" },
            );
        }
    }
    Ok(pass)
}
