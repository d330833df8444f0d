//! The two batch workloads: one `fairsched … --json` process per operation.
//!
//! * `ref_k10` — RAND and the exact REF reference at k = 10: the paper's
//!   algorithm at the largest k that stays seconds-long. Nearly all of the
//!   time is `core.scheduler` / `core.lattice`.
//! * `swf_million` — replay of a million-record archive log under
//!   fair-share without a reference: ingest, trace assembly, the engine and
//!   the report sweeps share the time and the lattice does nothing.

use crate::expected::{self, number};
use crate::gen::{instance_seed, swf_log, STRUCTURE_SEED};
use crate::outcome::Outcome;
use crate::proc::{run_cli, Spawned};
use crate::span::{timer_cost_s, Timed, Tracer};
use crate::stats::median;
use crate::Ctx;
use fairsched_core::fairness::FairnessReport;
use fairsched_core::schedule::Schedule;
use fairsched_core::scheduler::lattice::LatticeStats;
use fairsched_core::scheduler::{
    BuildContext, RandScheduler, RefScheduler, Registry, Scheduler,
};
use fairsched_core::Trace;
use fairsched_sim::{
    run_scheduler, MetricRegistry, MetricSpec, Report, SimOptions, SimResult,
};
use fairsched_workloads::spec::write_trace_json;
use fairsched_workloads::{swf, WorkloadContext, WorkloadRegistry, WorkloadSpec};
use serde::Value;
use std::time::Instant;

#[derive(Copy, Clone, PartialEq)]
pub enum Case {
    RefK10,
    SwfMillion,
}

/// The one trace every `ref_k10` run replays, built at [`STRUCTURE_SEED`].
/// What an exact k = 10 run costs swings by ±10 % with the draw of the
/// trace, which no number of draws that fits a run averages away; so the
/// trace is fixed and `--seed` draws RAND's sampled permutations only.
/// Horizon 2 500 keeps the `trace:` loader, whose time grows with the
/// square of the job count, at a twentieth of the run.
const REF_WORKLOAD: &str = "fpt:horizon=2500,k=10";
const REF_TRACE_FILE: &str = "trace.json";
const REF_HORIZON: u64 = 2_500;
const REF_PERMS: usize = 75;
const SWF_MACHINES: usize = 400;
const SWF_ORGS: usize = 100;
const SWF_HORIZON: u64 = 10_000_000;

/// One generated input: what the CLI is given and what it must report.
struct Instance {
    seed: u64,
    args: Vec<String>,
    /// Jobs the run must report (`n_jobs`; every one completed on
    /// `swf_million`, whose horizon outlasts the log).
    n_jobs: usize,
}

impl Case {
    /// Set-ups per run: each draws its own instance.
    fn instances(self) -> u64 {
        match self {
            Case::RefK10 => 5,
            Case::SwfMillion => 3,
        }
    }

    fn horizon(self) -> u64 {
        match self {
            Case::RefK10 => REF_HORIZON,
            Case::SwfMillion => SWF_HORIZON,
        }
    }

    fn metrics(self) -> &'static str {
        match self {
            Case::RefK10 => "psi,delay",
            Case::SwfMillion => "psi,flow,stretch,completed",
        }
    }

    /// The log of instance `i`, relative to the scratch directory (where
    /// the CLI runs, so no spec ever carries the checkout's path).
    fn swf_file(i: u64) -> String {
        format!("log-{i}.swf")
    }

    /// Generates instance `i`: the file the CLI replays and the seed it is
    /// given. On `swf_million` the file is drawn from the instance seed and
    /// the CLI's own seed, which only deals users to organizations, is
    /// structure; on `ref_k10` it is the other way round.
    fn prepare(self, ctx: &Ctx, i: u64) -> Result<Instance, String> {
        let seed = instance_seed(ctx.seed, i);
        let common = |scheduler: &str, seed: u64| {
            [
                "--scheduler",
                scheduler,
                "--horizon",
                &self.horizon().to_string(),
                "--metrics",
                self.metrics(),
                "--seed",
                &seed.to_string(),
                "--json",
            ]
            .map(str::to_string)
        };
        match self {
            Case::RefK10 => {
                let trace = WorkloadRegistry::shared()
                    .build_str(REF_WORKLOAD, &WorkloadContext { seed: STRUCTURE_SEED })
                    .map_err(|e| e.to_string())?;
                write_trace_json(&trace, ctx.scratch.path().join(REF_TRACE_FILE))
                    .map_err(|e| format!("{REF_TRACE_FILE}: {e}"))?;
                let mut args = vec![
                    "--workload".to_string(),
                    format!("trace:path={REF_TRACE_FILE}"),
                ];
                args.extend(common(&format!("rand:perms={REF_PERMS}"), seed));
                Ok(Instance { seed, args, n_jobs: trace.n_jobs() })
            }
            Case::SwfMillion => {
                let (text, records) = swf_log(seed);
                let file = Self::swf_file(i);
                std::fs::write(ctx.scratch.path().join(&file), text)
                    .map_err(|e| format!("{file}: {e}"))?;
                let mut args = ["--swf", &file, "--machines", &SWF_MACHINES.to_string()]
                    .map(str::to_string)
                    .to_vec();
                args.extend(["--orgs".to_string(), SWF_ORGS.to_string()]);
                args.extend(common("fairshare", STRUCTURE_SEED));
                args.push("--no-reference".to_string());
                Ok(Instance { seed, args, n_jobs: records })
            }
        }
    }
}

/// A smallest-possible CLI run: it pages the binary in, so the first timed
/// spawn is not the one that pays for a cold start.
pub fn warm_up(ctx: &Ctx) -> Result<(), String> {
    let args = ["--workload", "fpt:horizon=200,k=2", "--scheduler", "fifo", "--json"]
        .map(str::to_string);
    let run =
        run_cli(&ctx.cli, &args, ctx.scratch.path(), &[]).map_err(|e| e.to_string())?;
    if run.code == 0 {
        Ok(())
    } else {
        Err(format!("warm-up run exited {}: {}", run.code, run.stderr))
    }
}

/// Checks one finished CLI run against its instance and returns the
/// parsed report.
fn check_run(case: Case, inst: &Instance, run: &Spawned) -> Result<Value, String> {
    if run.code != 0 {
        return Err(format!("exit code {}: {}", run.code, run.stderr.trim()));
    }
    let text = std::str::from_utf8(&run.stdout).map_err(|e| e.to_string())?;
    let doc = serde_json::parse_value(text).map_err(|e| format!("stdout: {e}"))?;
    let n_jobs = number(&doc, "n_jobs")?;
    if n_jobs != inst.n_jobs as f64 {
        return Err(format!("n_jobs {n_jobs}, generated {}", inst.n_jobs));
    }
    if case == Case::SwfMillion && number(&doc, "completed_jobs")? != n_jobs {
        return Err(format!("completed {} of {n_jobs}", number(&doc, "completed_jobs")?));
    }
    Ok(doc)
}

/// Sets up every instance, timing each set-up: input generation plus the
/// warm-up run.
fn set_up(
    case: Case,
    ctx: &Ctx,
    count: u64,
) -> Result<(Vec<Instance>, Vec<f64>), String> {
    let mut instances = Vec::new();
    let mut setup_s = Vec::new();
    for i in 0..count {
        let started = Instant::now();
        instances.push(case.prepare(ctx, i)?);
        warm_up(ctx)?;
        setup_s.push(started.elapsed().as_secs_f64());
    }
    Ok((instances, setup_s))
}

/// The untraced pass: real process spawns, cycling over the instances
/// until the time is up. Every instance's stdout must repeat byte for byte.
pub fn untraced(case: Case, ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (instances, setup_s) = set_up(case, ctx, case.instances())?;

    // The untimed first run of instance 0 is the reference its timed
    // repetitions are compared with.
    let mut first_stdout: Vec<Option<Vec<u8>>> = vec![None; instances.len()];
    let spawn = |inst: &Instance| {
        run_cli(&ctx.cli, &inst.args, ctx.scratch.path(), &[]).map_err(|e| e.to_string())
    };
    let reference = spawn(&instances[0])?;
    let checked = check_run(case, &instances[0], &reference);
    if ctx.seed == expected::SEED {
        if let Ok(doc) = &checked {
            outcome.check("seed-42 statistics", expected::matches(&ctx.workload, doc));
        }
    }
    outcome.check("reference run", checked.map(|_| ()));
    first_stdout[0] = Some(reference.stdout);

    let (mut wall_s, mut rss_mb) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for unit in 0.. {
        if !ctx.goes_on(started, unit) {
            break;
        }
        let slot = unit % instances.len();
        let run = spawn(&instances[slot])?;
        let result = check_run(case, &instances[slot], &run).and_then(|_| {
            if first_stdout[slot].get_or_insert_with(|| run.stdout.clone()) == &run.stdout
            {
                Ok(())
            } else {
                Err("stdout differs between repetitions of one run".to_string())
            }
        });
        outcome.check(&format!("spawn {unit} (seed {})", instances[slot].seed), result);
        wall_s.push(run.wall_s);
        rss_mb.push(run.peak_rss_mb);
    }
    outcome.put_median("setup_s", &setup_s);
    outcome.put_median("wall_s", &wall_s);
    outcome.put_median("peak_rss_mb", &rss_mb);
    Ok(outcome)
}

/// What the in-process pipeline produced.
struct Piped {
    wall_s: f64,
    schedule: Schedule,
    /// `started_jobs`, `completed_jobs`, `busy_time`, `coalition_value`.
    stats: [f64; 4],
    n_jobs: usize,
    lattice: LatticeStats,
    unfairness: Option<f64>,
    json_bytes: usize,
}

fn add(a: LatticeStats, b: LatticeStats) -> LatticeStats {
    LatticeStats {
        settles: a.settles + b.settles,
        rounds: a.rounds + b.rounds,
        releases: a.releases + b.releases,
        sim_starts: a.sim_starts + b.sim_starts,
        sim_completions: a.sim_completions + b.sim_completions,
        phi_cache_hits: a.phi_cache_hits + b.phi_cache_hits,
        phi_recomputes: a.phi_recomputes + b.phi_recomputes,
        phi_deltas_applied: a.phi_deltas_applied + b.phi_deltas_applied,
        phi_evictions: a.phi_evictions + b.phi_evictions,
    }
}

/// Runs `scheduler` over `trace` under an engine span. With `timed`, the
/// engine drives it through the [`Timed`] decorator, whose totals become
/// the span's aggregate children.
fn engine_run(
    tracer: &mut Tracer,
    trace: &Trace,
    scheduler: &mut dyn Scheduler,
    options: SimOptions,
    timed: Option<f64>,
) -> Result<SimResult, String> {
    tracer
        .scope("sim.engine.run", |t| match timed {
            Some(timer_cost) => {
                let mut decorated = Timed::new(scheduler);
                let result = run_scheduler(trace, &mut decorated, options);
                decorated.record(t, timer_cost);
                result
            }
            None => run_scheduler(trace, scheduler, options),
        })
        .map_err(|e| e.to_string())
}

/// The CLI's `main`, step for step, in this process: workload build,
/// scheduler run, REF reference run (`ref_k10`), fairness comparison,
/// report evaluation, JSON rendering. Each step is a span on its layer.
fn pipeline(
    case: Case,
    ctx: &Ctx,
    inst: &Instance,
    tracer: &mut Tracer,
    timed: Option<f64>,
) -> Result<Piped, String> {
    let started = Instant::now();
    let seed = match case {
        Case::RefK10 => inst.seed,
        Case::SwfMillion => STRUCTURE_SEED,
    };
    let horizon = case.horizon();
    let options = SimOptions { horizon, validate: false };
    let piped = tracer.scope("cli.pipeline", |t| -> Result<Piped, String> {
        let spec: WorkloadSpec = match case {
            Case::RefK10 => WorkloadSpec::bare("trace")
                .with("path", ctx.scratch.path().join(REF_TRACE_FILE).display()),
            Case::SwfMillion => {
                // `--swf` first reads the whole log for its summary line.
                let path = ctx.scratch.path().join(Case::swf_file(0));
                t.scope("workloads.swf.parse", |_| -> Result<(), String> {
                    let text =
                        std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
                    let records = swf::parse(&text).map_err(|e| e.to_string())?;
                    std::hint::black_box(swf::stats(&records));
                    Ok(())
                })?;
                WorkloadSpec::bare("swf")
                    .with("path", path.display())
                    .with("start", 0)
                    .with("end", horizon)
                    .with("machines", SWF_MACHINES)
                    .with("orgs", SWF_ORGS)
            }
        };
        let trace = t
            .scope("workloads.build", |_| {
                WorkloadRegistry::shared().build(&spec, &WorkloadContext { seed })
            })
            .map_err(|e| e.to_string())?;

        let (result, reference, lattice) = match case {
            Case::RefK10 => {
                // The registry's `rand:` and `ref` factories call these very
                // constructors; naming the types keeps `lattice()` in reach.
                let mut rand = t.scope("core.scheduler.build", |_| {
                    RandScheduler::new(&trace, REF_PERMS, seed)
                });
                let result = engine_run(t, &trace, &mut rand, options, timed)?;
                let rand_stats = rand.lattice().stats();
                drop(rand);
                let mut exact =
                    t.scope("core.scheduler.build", |_| RefScheduler::new(&trace));
                let reference = engine_run(t, &trace, &mut exact, options, timed)?;
                (result, Some(reference), add(rand_stats, exact.lattice().stats()))
            }
            Case::SwfMillion => {
                let mut fairshare = t
                    .scope("core.scheduler.build", |_| {
                        Registry::shared()
                            .build_str("fairshare", &BuildContext { trace: &trace, seed })
                    })
                    .map_err(|e| e.to_string())?;
                let result = engine_run(t, &trace, fairshare.as_mut(), options, timed)?;
                (result, None, LatticeStats::default())
            }
        };

        let unfairness = reference.as_ref().map(|reference| {
            t.scope("core.fairness", |_| {
                FairnessReport::from_schedules(
                    &trace,
                    &result.schedule,
                    &reference.schedule,
                    horizon,
                )
                .unfairness()
            })
        });
        let specs = MetricSpec::parse_list(case.metrics()).map_err(|e| e.to_string())?;
        let report = t
            .scope("sim.report.evaluate", |_| {
                Report::evaluate(
                    MetricRegistry::shared(),
                    &specs,
                    &trace,
                    &result,
                    reference.as_ref(),
                )
            })
            .map_err(|e| e.to_string())?;
        let json = t.scope("sim.report.render_json", |_| report.to_json());
        Ok(Piped {
            wall_s: 0.0,
            stats: [
                result.started_jobs as f64,
                result.completed_jobs as f64,
                result.busy_time as f64,
                result.coalition_value() as f64,
            ],
            schedule: result.schedule,
            n_jobs: trace.n_jobs(),
            lattice,
            unfairness,
            json_bytes: json.len(),
        })
    })?;
    Ok(Piped { wall_s: started.elapsed().as_secs_f64(), ..piped })
}

/// The traced pass over instance 0. Each repetition runs it three ways —
/// through the CLI, through the in-process pipeline with plain schedulers,
/// and through the pipeline with [`Timed`] schedulers — so that the three
/// medians compare like with like on a machine whose speed drifts. The
/// repetitions must agree on every statistic, count and schedule.
pub fn traced(case: Case, ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (instances, _) = set_up(case, ctx, 1)?;
    let inst = &instances[0];
    let started = Instant::now();
    let timer_cost = timer_cost_s();

    let mut tracer = Tracer::new();
    let (mut cli_s, mut plain_s) = (Vec::new(), Vec::new());
    let mut reps: Vec<Piped> = Vec::new();
    loop {
        let cli = run_cli(&ctx.cli, &inst.args, ctx.scratch.path(), &[])
            .map_err(|e| e.to_string())?;
        let doc = check_run(case, inst, &cli);
        // Whichever in-process run follows the spawn finds the core
        // cooled down; alternate which one that is.
        let run_plain = || pipeline(case, ctx, inst, &mut Tracer::off(), None);
        tracer.next_run();
        let (plain, rep) = if reps.len().is_multiple_of(2) {
            let plain = run_plain()?;
            (plain, pipeline(case, ctx, inst, &mut tracer, Some(timer_cost))?)
        } else {
            let rep = pipeline(case, ctx, inst, &mut tracer, Some(timer_cost))?;
            (run_plain()?, rep)
        };

        let agrees = doc.and_then(|doc| {
            let keys = ["started_jobs", "completed_jobs", "busy_time", "coalition_value"];
            for (key, ours) in keys.iter().zip(plain.stats) {
                if number(&doc, key)? != ours {
                    return Err(format!(
                        "{key}: CLI {}, in-process {ours}",
                        number(&doc, key)?
                    ));
                }
            }
            match (doc.get("unfairness_vs_ref"), plain.unfairness) {
                (Some(Value::Null) | None, None) => Ok(()),
                (Some(_), Some(ours)) if number(&doc, "unfairness_vs_ref")? == ours => {
                    Ok(())
                }
                (cli, ours) => {
                    Err(format!("unfairness: CLI {cli:?}, in-process {ours:?}"))
                }
            }
        });
        let same = agrees.and_then(|()| {
            if rep.schedule != plain.schedule {
                Err("traced and untraced schedules differ".to_string())
            } else if reps.first().is_some_and(|first| first.lattice != rep.lattice) {
                Err("lattice counts differ between repetitions".to_string())
            } else {
                Ok(())
            }
        });
        outcome.check(&format!("traced repetition {}", reps.len()), same);
        cli_s.push(cli.wall_s);
        plain_s.push(plain.wall_s);
        reps.push(rep);
        if started.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }

    // The traced repetitions are runs 1.. of the tracer.
    let runs = 1..=reps.len() as u64;
    let n = reps.len();
    let med = |f: &dyn Fn(u64) -> f64| median(&runs.clone().map(f).collect::<Vec<_>>());
    let total = |name: &'static str| med(&|r| tracer.total_s(r, name));
    let own_in =
        |r: u64, name: &str| tracer.self_times(r).get(name).copied().unwrap_or(0.0);
    let first = &reps[0];
    let stream_s = if case == Case::SwfMillion { total("workloads.build") } else { 0.0 };
    outcome.put(
        "workloads.build_s",
        total("workloads.build") + total("workloads.swf.parse"),
        n,
    );
    outcome.put("workloads.jobs", first.n_jobs as f64, 1);
    outcome.put("workloads.swf.stream_s", stream_s, n);
    if stream_s > 0.0 {
        outcome.put("workloads.swf.records_per_s", first.n_jobs as f64 / stream_s, n);
    }
    outcome.put("core.scheduler.build_s", total("core.scheduler.build"), n);
    outcome.put("core.scheduler.select_s", total("core.scheduler.select"), n);
    outcome.put("core.scheduler.hooks_s", total("core.scheduler.hooks"), n);
    let select_calls = tracer.calls(1, "core.scheduler.select") as f64;
    let hooks_calls = tracer.calls(1, "core.scheduler.hooks") as f64;
    outcome.put("core.scheduler.select_calls", select_calls, 1);
    outcome.put("core.scheduler.hooks_calls", hooks_calls, 1);
    let l = first.lattice;
    for (name, count) in [
        ("core.lattice.settles", l.settles),
        ("core.lattice.rounds", l.rounds),
        ("core.lattice.sim_starts", l.sim_starts),
        ("core.lattice.phi_cache_hits", l.phi_cache_hits),
        ("core.lattice.phi_recomputes", l.phi_recomputes),
        ("core.lattice.phi_deltas_applied", l.phi_deltas_applied),
        ("core.lattice.phi_evictions", l.phi_evictions),
    ] {
        outcome.put(name, count as f64, 1);
    }
    let reads = l.phi_cache_hits + l.phi_recomputes;
    if reads > 0 {
        outcome.put(
            "core.lattice.phi_hit_ratio",
            l.phi_cache_hits as f64 / reads as f64,
            1,
        );
    }
    let engine_self = med(&|r| own_in(r, "sim.engine.run"));
    outcome.put("sim.engine.run_s", total("sim.engine.run"), n);
    outcome.put("sim.engine.self_s", engine_self, n);
    outcome.put("sim.engine.events", hooks_calls, 1);
    outcome.put("sim.engine.ns_per_event", engine_self * 1e9 / hooks_calls.max(1.0), n);
    outcome.put("sim.report.evaluate_s", total("sim.report.evaluate"), n);
    outcome.put("sim.report.render_json_s", total("sim.report.render_json"), n);
    outcome.put("sim.report.json_bytes", first.json_bytes as f64, 1);
    let plain_wall = median(&plain_s);
    outcome.put("cli.spawn_overhead_s", median(&cli_s) - plain_wall, n);
    if let Some(unfairness) = first.unfairness {
        outcome.put("cli.rand_unfairness", unfairness, 1);
    }
    let traced_wall = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    outcome.put("trace.overhead_share", (traced_wall - plain_wall) / plain_wall, n);
    outcome.put(
        "trace.self_time_coverage",
        med(&|r| 1.0 - own_in(r, "cli.pipeline") / tracer.total_s(r, "cli.pipeline")),
        n,
    );
    tracer.write(&ctx.workload)?;
    Ok(outcome)
}

/// The statistics of a CLI report that `expected/seed42.json` pins.
pub fn view(doc: &Value) -> Value {
    let keys = [
        "n_jobs",
        "started_jobs",
        "completed_jobs",
        "busy_time",
        "coalition_value",
        "aggregates",
        "orgs",
        "unfairness_vs_ref",
    ];
    Value::Object(
        keys.iter()
            .filter_map(|k| doc.get(k).map(|v| (k.to_string(), v.clone())))
            .collect(),
    )
}

/// Runs instance 0 once and returns its [`view`].
pub fn seed_view(case: Case, ctx: &Ctx) -> Result<Value, String> {
    let inst = case.prepare(ctx, 0)?;
    let run = run_cli(&ctx.cli, &inst.args, ctx.scratch.path(), &[])
        .map_err(|e| e.to_string())?;
    check_run(case, &inst, &run).map(|doc| view(&doc))
}
