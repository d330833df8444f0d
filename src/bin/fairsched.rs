//! `fairsched` — the command-line front end.
//!
//! Replays a workload (a real SWF log or a synthetic preset) against any
//! scheduler in the registry, reports per-organization utilities, the
//! fairness metric Δψ/p_tot against the exact REF reference, resource
//! utilization, and optionally an ASCII Gantt chart or a JSON report.
//!
//! ```text
//! # synthetic preset
//! fairsched --preset lpc --scheduler directcontr --orgs 5 --horizon 20000
//! # any registry spec works, parameters included
//! fairsched --preset lpc --scheduler rand:perms=75
//! fairsched --preset lpc --scheduler general-ref:util=flowtime
//! # workloads are registry specs too — the whole run is pure data
//! fairsched --workload synth:preset=ricc,scale=0.02,orgs=4 --scheduler fairshare
//! fairsched --workload fpt:k=6 --scheduler rand:perms=15 --horizon 2000
//! # real archive log
//! fairsched --swf ./LPC-EGEE-2004-1.2-cln.swf --machines 70 --orgs 5 \
//!           --scheduler fairshare --horizon 50000
//! # metrics are registry specs too (delay runs the REF reference itself)
//! fairsched --workload fpt:k=3 --metrics delay,psi
//! fairsched --workload fpt:k=3 --metrics delay:norm=ideal,ranking,stretch
//! # the time axis: the per-moment fairness trajectory of Definition 3.1
//! fairsched --workload fpt:k=3 --metrics timeline:samples=64
//! fairsched --workload fpt:k=3 --metrics delay,timeline:samples=32,stat=delta_psi
//! # machine-readable output (carries canonical metric_specs)
//! fairsched --preset lpc --scale 0.1 --json
//! # show the schedule
//! fairsched --preset lpc --scale 0.1 --horizon 500 --gantt
//! ```

use fairsched::core::fairness::FairnessReport;
use fairsched::core::scheduler::registry::Registry;
use fairsched::core::spec::{self, SpecKind};
use fairsched::core::Trace;
use fairsched::sim::gantt::render_gantt;
use fairsched::sim::report::{MetricRegistry, MetricSpec, Report};
use fairsched::sim::{Simulation, DEFAULT_REPORT_METRICS};
use fairsched::workloads::spec::swf_replay;
use fairsched::workloads::{
    synth_spec, MachineSplit, PresetName, WorkloadContext, WorkloadRegistry, WorkloadSpec,
};
use serde::Value;
use std::collections::HashMap;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: fairsched [--workload SPEC | --preset NAME | --swf FILE] [options]

workload:
  --workload SPEC      a workload registry spec: NAME or NAME:key=value,...
                       registered workloads:
{workload_help}
  --preset NAME        sugar for a synth: spec — lpc | pik | ricc | sharcnet
                       (default lpc)
  --scale F            preset scale in (0,1] (default 0.1)
  --swf FILE           sugar for an swf: spec — replay a Standard Workload
                       Format log
  --machines M         machine count (SWF mode; default 64)
  --window-start T     SWF submit window start (default 0)

scheduling:
  --scheduler SPEC     a scheduler registry spec: NAME or NAME:key=value,...
                       (default directcontr); registered schedulers:
{registry_help}
  --orgs K             number of organizations (default 5)
  --horizon T          evaluation horizon (default 20000)
  --seed S             RNG seed (default 42)
  --uniform-split      split machines uniformly instead of Zipf

experiments:
  experiment run SPEC.json [--dir DIR] [--resume]
                       durable resumable grid sweep (crash-safe; see
                       `fairsched experiment --help`)
  experiment status SPEC.json [--dir DIR]
                       progress of a run directory

serving:
  serve --dir DIR [--workload SPEC --scheduler SPEC --seed S]
                       online scheduling daemon over a journaled file
                       queue (crash-safe; see `fairsched serve --help`)
  submit --dir DIR ... drop a job / advance / stop message into the queue

output:
  --metrics SPECS      comma-separated metric registry specs to evaluate
                       (default {default_metrics}); registered metrics:
{metric_help}
  --json               print the full report as JSON (schedule omitted;
                       carries the canonical metric_specs)
  --gantt              print an ASCII Gantt chart (small runs)
  --no-reference       skip the exact REF run (reference-based metrics
                       like delay/ranking then fail with a typed error)",
        default_metrics = DEFAULT_REPORT_METRICS.join(","),
        metric_help = indented_help(MetricRegistry::shared()),
        workload_help = indented_help(WorkloadRegistry::shared()),
        registry_help = indented_help(&Registry::default()),
    );
    exit(2)
}

/// A registry's help listing, indented under its option in the usage text.
fn indented_help<K: SpecKind>(registry: &spec::Registry<K>) -> String {
    registry.help().lines().map(|l| format!("     {l}")).collect::<Vec<_>>().join("\n")
}

/// `fairsched experiment run|status` — the durable grid runner.
///
/// Exit statuses: 0 on success, 1 on typed errors, 2 on usage errors, and
/// 137 (the SIGKILL status) when an armed `FAIRSCHED_FAILPOINTS` crash
/// site fires — so CI drives simulated and real kills through one path.
fn experiment_main(args: &[String]) -> ! {
    use fairsched::experiment::{
        ExperimentSpec, FaultPlan, Runner, RunnerError, RunnerOptions,
    };

    fn experiment_usage() -> ! {
        eprintln!(
            "usage: fairsched experiment run SPEC.json [--dir DIR] [--resume]
       fairsched experiment status SPEC.json [--dir DIR]

Runs the (workload x scheduler x metric) grid named by an experiment spec
(schema {schema}), committing each cell to DIR/cells/<hash>.json with an
atomic write and journaling progress to DIR/journal.jsonl. `--resume`
skips every intact committed cell, so an interrupted run continues where
it stopped and emits byte-identical report.{{json,csv,txt}} and
summary.{{json,csv,txt}} (mean ± sd per workload and scheduler).

DIR defaults to the spec file name with its .json/.experiment.json suffix
replaced by .run. Set FAIRSCHED_FAILPOINTS=site@N[:crash|io];... to
inject deterministic faults (see docs/EXPERIMENTS.md).",
            schema = fairsched::experiment::SPEC_SCHEMA,
        );
        exit(2)
    }

    let (Some(verb), Some(spec_path)) = (args.first(), args.get(1)) else {
        experiment_usage();
    };
    if spec_path.starts_with("--") {
        experiment_usage();
    }
    let mut dir: Option<String> = None;
    let mut resume = false;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--resume" => {
                resume = true;
                i += 1;
            }
            "--dir" if i + 1 < args.len() => {
                dir = Some(args[i + 1].clone());
                i += 2;
            }
            _ => experiment_usage(),
        }
    }
    let dir = dir.unwrap_or_else(|| {
        let stem = spec_path
            .strip_suffix(".experiment.json")
            .or_else(|| spec_path.strip_suffix(".json"))
            .unwrap_or(spec_path);
        format!("{stem}.run")
    });
    let text = std::fs::read_to_string(spec_path).unwrap_or_else(|e| {
        eprintln!("cannot read {spec_path}: {e}");
        exit(1)
    });
    let spec = ExperimentSpec::from_json_str(&text).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    match verb.as_str() {
        "run" => {
            let faults = match std::env::var("FAIRSCHED_FAILPOINTS") {
                Ok(text) => FaultPlan::parse(&text).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    exit(1)
                }),
                Err(_) => FaultPlan::none(),
            };
            let mut runner = Runner::new(spec, &dir, RunnerOptions { resume, faults });
            match runner.run() {
                Ok(s) => {
                    println!(
                        "{} cells: {} computed, {} skipped, {} failed ({} retries); reports in {dir}",
                        s.total, s.computed, s.skipped, s.failed, s.retried
                    );
                    exit(if s.failed > 0 { 1 } else { 0 })
                }
                Err(RunnerError::Crash { site }) => {
                    eprintln!("simulated crash at fail point {site}");
                    exit(137)
                }
                Err(e) => {
                    eprintln!("{e}");
                    exit(1)
                }
            }
        }
        "status" => match Runner::status(&spec, std::path::Path::new(&dir)) {
            Ok(s) => {
                println!(
                    "{}: {} cells — {} done, {} failed, {} pending; journal {} entries{}",
                    dir,
                    s.total,
                    s.done,
                    s.failed,
                    s.pending,
                    s.journal_entries,
                    if s.journal_truncated { " (truncated tail)" } else { "" }
                );
                exit(0)
            }
            Err(e) => {
                eprintln!("{e}");
                exit(1)
            }
        },
        _ => experiment_usage(),
    }
}

/// Splits `args` into the `--key value` options named in `values` and the
/// bare `--flag`s named in `flags`. A key in both (`serve --http [ADDR]`)
/// takes a value when one follows. Bails to `usage` on a positional, an
/// unknown key, a value option without its value, or a flag followed by
/// a value, so a misspelled option never falls back to a default.
fn parse_flags(
    args: &[String],
    values: &[&str],
    flags: &[&str],
    usage: fn() -> !,
) -> (HashMap<String, String>, Vec<String>) {
    let mut opts: HashMap<String, String> = HashMap::new();
    let mut set: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            eprintln!("unexpected argument {:?}", args[i]);
            usage();
        };
        let (is_value, is_flag) = (values.contains(&key), flags.contains(&key));
        match args.get(i + 1).filter(|v| !v.starts_with("--")) {
            Some(value) if is_value => {
                opts.insert(key.to_string(), value.clone());
                i += 2;
            }
            None if is_flag => {
                set.push(key.to_string());
                i += 1;
            }
            Some(value) if is_flag => {
                eprintln!("--{key} takes no value, got {value:?}");
                usage();
            }
            None if is_value => {
                eprintln!("--{key} needs a value");
                usage();
            }
            _ => {
                eprintln!("unknown option --{key}");
                usage();
            }
        }
    }
    (opts, set)
}

/// `fairsched serve` — the online scheduling daemon (see docs/SERVE.md).
///
/// Initializes (or verifies) DIR's identity, restores the snapshot,
/// replays the accepted journal tail, and drains the inbox until a
/// `stop` message arrives; then finalizes `trace.json`/`schedule.json`
/// and optionally re-runs the batch engine over the grown trace to prove
/// the incrementally built schedule byte-identical.
fn serve_main(args: &[String]) -> ! {
    use fairsched::serve::{Daemon, HttpServer, ServeConfig};

    fn serve_usage() -> ! {
        eprintln!(
            "usage: fairsched serve --dir DIR [options]

  --dir DIR            the serve directory (created if missing)
  --workload SPEC      workload registry spec seeding the base trace
                       (default fpt:k=4; fixed at first init)
  --scheduler SPEC     scheduler registry spec (default fairshare)
  --seed S             seed for workload and scheduler (default 42)
  --http [ADDR]        serve GET /status /report /series on ADDR
                       (default 127.0.0.1:0; bound address is printed
                       and written to DIR/http.txt)
  --poll-ms N          inbox poll interval (default 50)
  --batch-check        after stopping, re-run the batch engine over the
                       grown trace and exit 1 unless schedules match

The daemon exits when a `fairsched submit --dir DIR --stop` message is
applied. kill -9 at any point is safe: restart with the same command and
the journal replays to the identical state."
        );
        exit(2)
    }

    if args.iter().any(|a| a == "--help" || a == "-h") {
        serve_usage();
    }
    let (opts, flags) = parse_flags(
        args,
        &["dir", "workload", "scheduler", "seed", "http", "poll-ms"],
        &["http", "batch-check"],
        serve_usage,
    );
    let get = |k: &str, d: &str| opts.get(k).cloned().unwrap_or_else(|| d.to_string());
    let has = |k: &str| flags.iter().any(|f| f == k);
    let Some(dir) = opts.get("dir").map(std::path::PathBuf::from) else {
        serve_usage();
    };

    // Identity: defaults come from the existing config when reopening, so
    // `fairsched serve --dir D` resumes without restating the specs; any
    // flag that *is* passed must agree with the stored identity.
    let existing = ServeConfig::path(&dir).exists().then(|| {
        ServeConfig::load(&dir).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(1)
        })
    });
    let base = existing.unwrap_or_else(|| ServeConfig {
        workload: "fpt:k=4".to_string(),
        scheduler: "fairshare".to_string(),
        seed: 42,
    });
    let config = ServeConfig {
        workload: get("workload", &base.workload),
        scheduler: get("scheduler", &base.scheduler),
        seed: get("seed", &base.seed.to_string())
            .parse()
            .unwrap_or_else(|_| serve_usage()),
    };
    config.init(&dir).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });

    let mut daemon = Daemon::open(&dir).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    let server = (has("http") || opts.contains_key("http")).then(|| {
        let server = HttpServer::start(&get("http", "127.0.0.1:0"), daemon.endpoints())
            .unwrap_or_else(|e| {
                eprintln!("cannot bind http listener: {e}");
                exit(1)
            });
        let addr = server.addr().to_string();
        println!("http: listening on {addr}");
        fairsched::core::journal::atomic_write(&dir.join("http.txt"), &addr)
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(1)
            });
        server
    });
    let poll_ms: u64 = get("poll-ms", "50").parse().unwrap_or_else(|_| serve_usage());

    println!(
        "serving {} — workload {}, scheduler {}, seed {} (applied_seq {})",
        dir.display(),
        config.workload,
        config.scheduler,
        config.seed,
        daemon.applied_seq(),
    );
    daemon.run(poll_ms).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    if let Some(server) = server {
        server.stop();
    }
    daemon.finalize().unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    println!(
        "stopped at t={:?}: {} jobs ({} admitted online), {} completed, {} messages applied",
        daemon.session().stepped_to(),
        daemon.session().trace().n_jobs(),
        daemon.session().admissions().len(),
        daemon.session().completed_jobs(),
        daemon.applied_seq(),
    );
    if has("batch-check") {
        match daemon.batch_check() {
            Ok(true) => println!("batch check: schedules byte-identical"),
            Ok(false) => {
                eprintln!("batch check: MISMATCH (see schedule.batch.json)");
                exit(1)
            }
            Err(e) => {
                eprintln!("batch check failed: {e}");
                exit(1)
            }
        }
    }
    exit(0)
}

/// `fairsched submit` — drop one message into a serve directory's inbox.
fn submit_main(args: &[String]) -> ! {
    use fairsched::serve::{Message, SubmissionQueue};

    fn submit_usage() -> ! {
        eprintln!(
            "usage: fairsched submit --dir DIR --org N --release T --proc T [--deadline T]
       fairsched submit --dir DIR --advance T
       fairsched submit --dir DIR --stop

Commits one message into DIR/queue/inbox/ with an atomic write-then-
rename; a running `fairsched serve` daemon picks it up on its next poll."
        );
        exit(2)
    }

    if args.iter().any(|a| a == "--help" || a == "-h") {
        submit_usage();
    }
    let (opts, flags) = parse_flags(
        args,
        &["dir", "org", "release", "proc", "deadline", "advance"],
        &["stop"],
        submit_usage,
    );
    let has = |k: &str| flags.iter().any(|f| f == k);
    let num = |k: &str| -> Option<u64> {
        opts.get(k).map(|v| v.parse().unwrap_or_else(|_| submit_usage()))
    };
    let Some(dir) = opts.get("dir").map(std::path::PathBuf::from) else {
        submit_usage();
    };

    let message = if has("stop") {
        Message::Stop
    } else if let Some(until) = num("advance") {
        Message::Advance { until }
    } else {
        match (opts.get("org"), num("release"), num("proc")) {
            (Some(org), Some(release), Some(proc_time)) => Message::Submit {
                org: org.parse().unwrap_or_else(|_| submit_usage()),
                release,
                proc_time,
                deadline: num("deadline"),
            },
            _ => submit_usage(),
        }
    };
    let queue = SubmissionQueue::open(&dir).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    let path = queue.submit(&message).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    println!("submitted {}", path.display());
    exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("experiment") {
        experiment_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        serve_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("submit") {
        submit_main(&args[1..]);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let (opts, flags) = parse_flags(
        &args,
        &[
            "workload",
            "preset",
            "scale",
            "swf",
            "machines",
            "window-start",
            "scheduler",
            "orgs",
            "horizon",
            "seed",
            "metrics",
        ],
        &["uniform-split", "json", "gantt", "no-reference"],
        usage,
    );
    let get = |k: &str, d: &str| opts.get(k).cloned().unwrap_or_else(|| d.to_string());
    let has = |k: &str| flags.iter().any(|f| f == k);

    let horizon: u64 = get("horizon", "20000").parse().unwrap_or_else(|_| usage());
    let orgs: usize = get("orgs", "5").parse().unwrap_or_else(|_| usage());
    let seed: u64 = get("seed", "42").parse().unwrap_or_else(|_| usage());
    let split = if has("uniform-split") {
        MachineSplit::Uniform
    } else {
        MachineSplit::Zipf(1.0)
    };

    // Resolve the workload flags into one registry spec: `--workload` is
    // used verbatim; `--preset` and `--swf` are sugar for `synth:` /
    // `swf:` specs. The trace is built through the shared workload
    // registry — the same path the bench tables and sessions use — except
    // under `--swf`, which calls the `swf` factory's replay directly for
    // the log summary that comes out of the same single pass.
    let (workload_spec, source, replayed) = if let Some(raw) = opts.get("workload") {
        // The classic workload flags only parameterize the --preset/--swf
        // sugar; with a full spec they would be silently contradicted, so
        // say which ones are being ignored.
        let ignored: Vec<&str> =
            ["preset", "scale", "swf", "machines", "window-start", "orgs"]
                .into_iter()
                .filter(|k| opts.contains_key(*k))
                .chain(has("uniform-split").then_some("uniform-split"))
                .collect();
        if !ignored.is_empty() {
            eprintln!(
                "warning: --workload takes a complete spec; ignoring --{} (set them as spec parameters instead)",
                ignored.join(", --")
            );
        }
        let spec: WorkloadSpec = raw.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(1)
        });
        let source = spec.to_string();
        (spec, source, None)
    } else if let Some(path) = opts.get("swf") {
        let start: u64 = get("window-start", "0").parse().unwrap_or_else(|_| usage());
        let machines: usize = get("machines", "64").parse().unwrap_or_else(|_| usage());
        let Some(end) = start.checked_add(horizon) else {
            eprintln!("--window-start {start} plus --horizon {horizon} overflows the window end");
            exit(1)
        };
        if path.contains([',', '=']) {
            eprintln!("--swf path {path:?} contains ',' or '=' (unrepresentable in a workload spec)");
            exit(1)
        }
        let mut spec = WorkloadSpec::bare("swf")
            .with("path", path)
            .with("start", start)
            .with("end", end)
            .with("machines", machines)
            .with("orgs", orgs);
        if matches!(split, MachineSplit::Uniform) {
            spec = spec.with("split", "uniform");
        }
        let (trace, stats) =
            swf_replay(&spec, &WorkloadContext { seed }).unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(1)
            });
        eprintln!(
            "parsed {} jobs / {} users, span {}, median runtime {}",
            stats.jobs, stats.users, stats.span, stats.runtime_percentiles.1
        );
        (spec, format!("SWF {path}"), Some(trace))
    } else {
        let name = PresetName::parse(&get("preset", "lpc")).unwrap_or_else(|| usage());
        let scale: f64 = get("scale", "0.1").parse().unwrap_or_else(|_| usage());
        (
            synth_spec(name, scale, orgs, split, horizon),
            format!("{} (synthetic, scale {scale})", name.label()),
            None,
        )
    };
    let trace: Trace = replayed.unwrap_or_else(|| {
        WorkloadRegistry::shared()
            .build(&workload_spec, &WorkloadContext { seed })
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(1)
            })
    });

    // The requested fairness metrics: a comma-separated list of metric
    // registry specs (multi-parameter specs survive the outer split).
    let metric_specs: Vec<MetricSpec> =
        MetricSpec::parse_list(&get("metrics", &DEFAULT_REPORT_METRICS.join(",")))
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(1)
            });

    // One session template: trace + horizon + seed, any registry scheduler.
    let spec = get("scheduler", "directcontr").to_lowercase();
    let session = || Simulation::new(&trace).horizon(horizon).seed(seed);
    let result = session().scheduler(&spec).and_then(|s| s.run()).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });

    // The exact REF reference run, serving both the human fairness
    // comparison and reference-based metrics (delay, ranking). Skipped
    // when REF itself is evaluated — its own result is the reference
    // then — or with --no-reference, where reference-based metrics fail
    // with a typed error below.
    let fair = if !has("no-reference") && spec != "ref" {
        Some(session().scheduler("ref").and_then(|s| s.run()).unwrap_or_else(|e| {
            eprintln!("reference run failed: {e}");
            exit(1)
        }))
    } else {
        None
    };
    let unfairness = fair.as_ref().filter(|_| spec != "ref").map(|fair| {
        FairnessReport::from_schedules(&trace, &result.schedule, &fair.schedule, horizon)
    });

    // The typed report: the session's measurement pipeline, shared with
    // bench tables and grid sweeps. REF may serve as its own reference.
    let reference = if spec == "ref" { Some(&result) } else { fair.as_ref() };
    let mut report = Report::evaluate(
        MetricRegistry::shared(),
        &metric_specs,
        &trace,
        &result,
        reference,
    )
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    report.seed = seed;
    report.workload_spec = Some(workload_spec.clone());
    report.scheduler_spec = spec.parse().ok();

    if has("json") {
        let report_value = report.to_json_value();
        let take = |key: &str| report_value.get(key).expect("report field").clone();
        let payload = Value::Object(vec![
            ("workload".into(), Value::String(source)),
            ("workload_spec".into(), Value::String(workload_spec.to_string())),
            ("scheduler_spec".into(), Value::String(spec)),
            ("scheduler".into(), Value::String(result.scheduler.clone())),
            ("n_orgs".into(), Value::Number(trace.n_orgs().to_string())),
            (
                "n_machines".into(),
                Value::Number(trace.cluster_info().n_machines().to_string()),
            ),
            ("n_jobs".into(), Value::Number(trace.n_jobs().to_string())),
            ("horizon".into(), Value::Number(horizon.to_string())),
            ("seed".into(), Value::Number(seed.to_string())),
            ("started_jobs".into(), Value::Number(result.started_jobs.to_string())),
            ("completed_jobs".into(), Value::Number(result.completed_jobs.to_string())),
            ("busy_time".into(), Value::Number(result.busy_time.to_string())),
            ("utilization".into(), serde::Serialize::to_value(&result.utilization)),
            (
                "coalition_value".into(),
                Value::Number(result.coalition_value().to_string()),
            ),
            ("metric_specs".into(), take("metric_specs")),
            ("orgs".into(), take("orgs")),
            ("aggregates".into(), take("aggregates")),
            (
                "unfairness_vs_ref".into(),
                match &unfairness {
                    Some(r) => serde::Serialize::to_value(&r.unfairness()),
                    None => Value::Null,
                },
            ),
        ]);
        // Time-series metrics (the `timeline` family) ride along only
        // when evaluated, keeping scalar-only reports schema-identical to
        // the historical goldens.
        let payload = match report_value.get("series") {
            Some(series) => match payload {
                Value::Object(mut fields) => {
                    fields.push(("series".into(), series.clone()));
                    Value::Object(fields)
                }
                other => other,
            },
            None => payload,
        };
        println!("{}", payload.to_json_pretty());
        return;
    }

    println!(
        "workload: {source} — {} orgs, {} machines, {} jobs, horizon {horizon}",
        trace.n_orgs(),
        trace.cluster_info().n_machines(),
        trace.n_jobs()
    );

    println!(
        "\nscheduler {}: started {}, completed {}, utilization {:.1}%",
        result.scheduler,
        result.started_jobs,
        result.completed_jobs,
        100.0 * result.utilization
    );

    println!("\nper-organization metrics:");
    print!("{}", report.render_table());

    if let Some(report) = &unfairness {
        println!("\nfairness vs exact REF reference:");
        println!("{report}");
    }

    if has("gantt") {
        println!("\n{}", render_gantt(&trace, &result.schedule, horizon, 100));
    }
}
