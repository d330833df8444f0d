//! The two online workloads, driven in this process through the public
//! `SubmissionQueue` / `Daemon` API: one closed-loop client, because each
//! `fairsched submit` caller waits for its result before sending the next.
//!
//! * `serve_online` — [`MESSAGES`] seeded messages against a `ref` daemon
//!   over `fpt:k=6`, each submitted, drained and read back. The lattice
//!   stays warm across steps; `core.journal` rewrites one growing snapshot
//!   per drain, so latency rises with history.
//! * `serve_reopen` — `Daemon::open` over the directory such a loop leaves
//!   when the daemon is dropped without finalizing: what a restart after
//!   `kill -9` costs.

use crate::expected;
use crate::gen::{
    instance_seed, messages, SERVE_SCHEDULER, SERVE_WORKLOAD, STRUCTURE_SEED,
};
use crate::outcome::Outcome;
use crate::proc::{reset_peak_rss, self_peak_rss_mb};
use crate::span::Tracer;
use crate::stats::{median, tail};
use crate::Ctx;
use fairsched_core::journal::atomic_write;
use fairsched_core::model::OrgId;
use fairsched_core::schedule::Schedule;
use fairsched_serve::{Daemon, HttpServer, Message, ServeConfig, SubmissionQueue};
use fairsched_sim::SimSession;
use serde::Value;
use std::io::{Read, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Copy, Clone, PartialEq)]
pub enum Mode {
    Online,
    Reopen,
}

/// Messages per loop: long enough that the last snapshot is several times
/// the first, short enough that a run fits several loops.
pub const MESSAGES: usize = 400;
/// Set-ups per `serve_reopen` run: each commits its own directory.
const REOPEN_DIRS: usize = 3;
/// The traced loop calls `Daemon::persist` once more after every this many
/// drains, to time it at growing history.
const PERSIST_EVERY: usize = 50;

/// A freshly initialized serve directory with its daemon opened, and the
/// message list instance `seed`'s client will send. The daemon's identity
/// is the same on every seed; the seed draws the messages.
fn open_fresh(
    dir: &Path,
    seed: u64,
) -> Result<(Daemon, SubmissionQueue, Vec<Message>), String> {
    let config = ServeConfig {
        workload: SERVE_WORKLOAD.to_string(),
        scheduler: SERVE_SCHEDULER.to_string(),
        seed: STRUCTURE_SEED,
    };
    config.init(dir).map_err(|e| e.to_string())?;
    let daemon = Daemon::open(dir).map_err(|e| e.to_string())?;
    let queue = SubmissionQueue::open(dir).map_err(|e| e.to_string())?;
    Ok((daemon, queue, messages(seed, MESSAGES)))
}

/// One client round trip: submit, drain, read the result back. `Ok(true)`
/// when the daemon answered `ok: true`.
fn round_trip(
    daemon: &mut Daemon,
    queue: &SubmissionQueue,
    message: &Message,
    tracer: &mut Tracer,
) -> Result<bool, String> {
    tracer
        .scope("serve.queue.submit", |_| queue.submit(message))
        .map_err(|e| e.to_string())?;
    let drained = tracer
        .scope("serve.daemon.drain", |_| daemon.drain())
        .map_err(|e| e.to_string())?;
    if drained != 1 {
        return Err(format!("drain processed {drained} messages, expected 1"));
    }
    let path = queue.result_path(daemon.applied_seq());
    let text = tracer
        .scope("serve.queue.read_result", |_| std::fs::read_to_string(&path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let result = serde_json::parse_value(&text).map_err(|e| e.to_string())?;
    Ok(result.get("ok") == Some(&Value::Bool(true)))
}

/// What one message loop measured.
struct Loop {
    latency_ms: Vec<f64>,
    wall_s: f64,
    rejected: u64,
    /// `Daemon::persist` timings, when asked for (traced pass only).
    persist_ms: Vec<f64>,
}

/// Sends every message through [`round_trip`], one after the other.
fn message_loop(
    daemon: &mut Daemon,
    queue: &SubmissionQueue,
    list: &[Message],
    tracer: &mut Tracer,
    extra_persists: bool,
) -> Result<Loop, String> {
    let mut out =
        Loop { latency_ms: Vec::new(), wall_s: 0.0, rejected: 0, persist_ms: Vec::new() };
    let started = Instant::now();
    for (i, message) in list.iter().enumerate() {
        let sent = Instant::now();
        let ok = tracer
            .scope("serve.round_trip", |t| round_trip(daemon, queue, message, t))?;
        out.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        out.rejected += u64::from(!ok);
        if extra_persists && (i + 1) % PERSIST_EVERY == 0 {
            let mut probes = [0.0; 3];
            for probe in &mut probes {
                let at = Instant::now();
                tracer
                    .scope("serve.daemon.persist", |_| daemon.persist())
                    .map_err(|e| e.to_string())?;
                *probe = at.elapsed().as_secs_f64() * 1e3;
            }
            out.persist_ms.push(median(&probes));
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    Ok(out)
}

/// The end state every loop must reach: all messages applied and
/// accepted, and the batch engine over the grown trace reproducing the
/// incrementally built schedule.
fn check_end_state(daemon: &Daemon, run: &Loop) -> Result<(), String> {
    if daemon.applied_seq() != MESSAGES as u64 {
        return Err(format!("applied_seq {}, sent {MESSAGES}", daemon.applied_seq()));
    }
    if run.rejected != 0 {
        return Err(format!("{} messages were not answered ok", run.rejected));
    }
    match daemon.batch_check() {
        Ok(true) => Ok(()),
        Ok(false) => Err("batch check: schedules differ".to_string()),
        Err(e) => Err(format!("batch check: {e}")),
    }
}

/// Reopens `dir` after an un-finalized drop and checks the restored
/// session against the one that was dropped.
fn reopen(dir: &Path, before: &Schedule) -> Result<(f64, Daemon), String> {
    let started = Instant::now();
    let daemon = Daemon::open(dir).map_err(|e| e.to_string())?;
    let open_s = started.elapsed().as_secs_f64();
    if daemon.applied_seq() != MESSAGES as u64 {
        return Err(format!("reopened at applied_seq {}", daemon.applied_seq()));
    }
    if daemon.session().schedule() != before {
        return Err("reopened schedule differs from the dropped one".to_string());
    }
    Ok((open_s, daemon))
}

/// The untraced pass of either mode.
pub fn untraced(mode: Mode, ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::off();
    let (mut setup_s, mut wall_s) = (Vec::new(), Vec::new());

    match mode {
        Mode::Online => {
            let started = Instant::now();
            for unit in 0.. {
                if !ctx.goes_on(started, unit) {
                    break;
                }
                let dir = ctx.scratch.sub(&format!("serve-{unit}"));
                let at = Instant::now();
                let (mut daemon, queue, list) =
                    open_fresh(&dir, instance_seed(ctx.seed, unit as u64))?;
                setup_s.push(at.elapsed().as_secs_f64());
                if unit == 0 {
                    reset_peak_rss();
                }
                let run = message_loop(&mut daemon, &queue, &list, &mut tracer, false)?;
                wall_s.push(run.wall_s);
                let mut ended = check_end_state(&daemon, &run);
                if unit == 0 && ctx.seed == expected::SEED && ended.is_ok() {
                    ended = expected::matches("serve", &view(&daemon));
                }
                let before = daemon.session().schedule().clone();
                drop(daemon);
                let ended = ended.and_then(|()| reopen(&dir, &before).map(|_| ()));
                outcome.check(&format!("loop {unit}"), ended);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        Mode::Reopen => {
            let mut committed = Vec::new();
            for i in 0..REOPEN_DIRS {
                let dir = ctx.scratch.sub(&format!("serve-{i}"));
                let at = Instant::now();
                let (mut daemon, queue, list) =
                    open_fresh(&dir, instance_seed(ctx.seed, i as u64))?;
                let run = message_loop(&mut daemon, &queue, &list, &mut tracer, false)?;
                setup_s.push(at.elapsed().as_secs_f64());
                outcome
                    .check(&format!("set-up loop {i}"), check_end_state(&daemon, &run));
                committed.push((dir, daemon.session().schedule().clone()));
            }
            reset_peak_rss();
            let started = Instant::now();
            for unit in 0.. {
                if !ctx.goes_on(started, unit) {
                    break;
                }
                let (dir, before) = &committed[unit % REOPEN_DIRS];
                let opened = reopen(dir, before);
                if let Ok((open_s, _)) = &opened {
                    wall_s.push(*open_s);
                }
                outcome.check(&format!("reopen {unit}"), opened.map(|_| ()));
            }
        }
    }
    outcome.put_median("setup_s", &setup_s);
    outcome.put_median("wall_s", &wall_s);
    outcome.put("peak_rss_mb", self_peak_rss_mb(), 1);
    Ok(outcome)
}

/// One `GET /status` on a fresh connection; the body's `applied_seq`.
fn get_status(addr: std::net::SocketAddr) -> Result<f64, String> {
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    write!(stream, "GET /status HTTP/1.1\r\nHost: benchmark\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| e.to_string())?;
    let body = response.split("\r\n\r\n").nth(1).ok_or("response has no body")?;
    let doc = serde_json::parse_value(body).map_err(|e| e.to_string())?;
    expected::number(&doc, "applied_seq")
}

/// The traced pass, the same for both modes: instance 0 through a plain
/// loop, then through a loop under spans with extra `persist` probes; a
/// shadow `SimSession` fed the same messages without files; snapshot,
/// restore and `atomic_write` of the final state; reopen; `GET /status`.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let seed = instance_seed(ctx.seed, 0);
    let mut unrecorded = Tracer::off();

    let plain_dir = ctx.scratch.sub("serve-plain");
    let (mut daemon, queue, list) = open_fresh(&plain_dir, seed)?;
    let plain = message_loop(&mut daemon, &queue, &list, &mut unrecorded, false)?;
    outcome.check("plain loop", check_end_state(&daemon, &plain));
    let plain_schedule = daemon.session().schedule().clone();
    drop(daemon);

    let mut tracer = Tracer::new();
    let dir = ctx.scratch.sub("serve-traced");
    let (mut daemon, queue, _) = open_fresh(&dir, seed)?;
    let run = tracer
        .scope("serve.loop", |t| message_loop(&mut daemon, &queue, &list, t, true))?;
    let same = check_end_state(&daemon, &run).and_then(|()| {
        if *daemon.session().schedule() == plain_schedule {
            Ok(())
        } else {
            Err("traced and untraced schedules differ".to_string())
        }
    });
    outcome.check("traced loop", same);

    // The status endpoint, as a client polling it would see it.
    let mut get_ms = Vec::new();
    match HttpServer::start("127.0.0.1:0", daemon.endpoints()) {
        Ok(server) => {
            for _ in 0..20 {
                let at = Instant::now();
                let seen = get_status(server.addr());
                get_ms.push(at.elapsed().as_secs_f64() * 1e3);
                let fresh = seen.and_then(|seq| {
                    if seq == MESSAGES as f64 {
                        Ok(())
                    } else {
                        Err(format!("/status shows applied_seq {seq}"))
                    }
                });
                outcome.check("GET /status", fresh);
            }
            server.stop();
        }
        Err(e) => eprintln!(
            "note: no loopback listener ({e}); serve.http.get_status_ms not measured"
        ),
    }

    // The session layer on its own: the same messages, no files.
    let mut shadow =
        SimSession::from_workload(SERVE_WORKLOAD, SERVE_SCHEDULER, STRUCTURE_SEED)
            .map_err(|e| e.to_string())?;
    tracer.scope("sim.stepper.shadow", |t| {
        for message in &list {
            match *message {
                Message::Submit { org, release, proc_time, deadline } => t
                    .scope("sim.stepper.admit", |_| {
                        shadow.admit(OrgId(org), release, proc_time, deadline)
                    })
                    .map(|_| ()),
                Message::Advance { until } => {
                    t.scope("sim.stepper.step", |_| shadow.step(until))
                }
                Message::Stop => Ok(()),
            }
            .map_err(|e| e.to_string())?;
        }
        Ok::<(), String>(())
    })?;
    let snapshot = tracer.scope("sim.stepper.snapshot", |_| shadow.snapshot());
    let restored = tracer
        .scope("sim.stepper.restore", |_| SimSession::restore(&snapshot))
        .map_err(|e| e.to_string())?;
    let shadowed = if restored.schedule() == shadow.schedule()
        && shadow.schedule() == daemon.session().schedule()
    {
        Ok(())
    } else {
        Err("shadow, restored and daemon schedules differ".to_string())
    };
    outcome.check("shadow session", shadowed);

    let scratch_file = ctx.scratch.sub("snapshot-probe.json");
    let mut write_s = Vec::new();
    for _ in 0..20 {
        let at = Instant::now();
        tracer
            .scope("core.journal.atomic_write", |_| {
                atomic_write(&scratch_file, &snapshot)
            })
            .map_err(|e| e.to_string())?;
        write_s.push(at.elapsed().as_secs_f64());
    }

    let before = daemon.session().schedule().clone();
    drop(daemon);
    let opened = tracer.scope("serve.daemon.open", |_| reopen(&dir, &before));
    let open_s = opened.as_ref().map_or(0.0, |(s, _)| *s);
    outcome.check("reopen", opened.map(|_| ()));

    let total = |name: &str| tracer.total_s(0, name);
    let drain_s = total("serve.daemon.drain");
    // Every drain persists once, at a cost that grows as the probes do:
    // estimate the drains' persist time by interpolating between probes
    // (the first fifty drains are charged the first probe).
    let earlier = run.persist_ms.first().into_iter().chain(&run.persist_ms);
    let persist_in_drains_s: f64 = earlier
        .zip(&run.persist_ms)
        .map(|(before, after)| (before + after) / 2.0 / 1e3 * PERSIST_EVERY as f64)
        .sum();
    outcome.put("serve.latency_p50_ms", median(&run.latency_ms), run.latency_ms.len());
    outcome.put("serve.latency_tail_ms", tail(&run.latency_ms, 10), run.latency_ms.len());
    outcome.put("serve.queue.submit_s", total("serve.queue.submit"), MESSAGES);
    outcome.put("serve.daemon.drain_s", drain_s, MESSAGES);
    if let (Some(first), Some(last)) = (run.persist_ms.first(), run.persist_ms.last()) {
        outcome.put("serve.daemon.persist_first_ms", *first, 3);
        outcome.put("serve.daemon.persist_last_ms", *last, 3);
        outcome.put("serve.daemon.persist_growth", last / first, 3);
    }
    outcome.put(
        "serve.daemon.drain_minus_persist_s",
        drain_s - persist_in_drains_s,
        MESSAGES,
    );
    outcome.put("serve.daemon.open_s", open_s, 1);
    outcome.put("serve.daemon.rejected", run.rejected as f64, 1);
    outcome.put("serve.http.get_status_ms", median(&get_ms), get_ms.len());
    outcome.put("sim.stepper.step_s", total("sim.stepper.step"), MESSAGES / 4);
    outcome.put(
        "sim.stepper.admit_s",
        total("sim.stepper.admit"),
        MESSAGES - MESSAGES / 4,
    );
    outcome.put("sim.stepper.snapshot_s", total("sim.stepper.snapshot"), 1);
    outcome.put("sim.stepper.snapshot_bytes", snapshot.len() as f64, 1);
    outcome.put("sim.stepper.restore_s", total("sim.stepper.restore"), 1);
    let write_med = median(&write_s);
    outcome.put("core.journal.atomic_write_s", write_med, write_s.len());
    outcome.put(
        "core.journal.atomic_write_mb_per_s",
        snapshot.len() as f64 / 1e6 / write_med,
        write_s.len(),
    );
    outcome.put("workloads.jobs", shadow.trace().n_jobs() as f64, 1);
    outcome.put("trace.overhead_share", (run.wall_s - plain.wall_s) / plain.wall_s, 1);
    let own = tracer.self_times(0);
    let unattributed = own.get("serve.loop").copied().unwrap_or(0.0)
        + own.get("serve.round_trip").copied().unwrap_or(0.0);
    outcome.put("trace.self_time_coverage", 1.0 - unattributed / total("serve.loop"), 1);
    tracer.write(&ctx.workload)?;
    Ok(outcome)
}

/// The end state of a loop that `expected/seed42.json` pins.
pub fn view(daemon: &Daemon) -> Value {
    let session = daemon.session();
    let count = |n: usize| Value::Number(n.to_string());
    Value::Object(vec![
        ("jobs".to_string(), count(session.trace().n_jobs())),
        ("admissions".to_string(), count(session.admissions().len())),
        ("completed".to_string(), count(session.completed_jobs())),
        ("started".to_string(), count(session.schedule().len())),
        (
            "stepped_to".to_string(),
            Value::Number(session.stepped_to().unwrap_or(0).to_string()),
        ),
        ("applied_seq".to_string(), Value::Number(daemon.applied_seq().to_string())),
    ])
}

/// Runs instance 0's loop once and returns its [`view`].
pub fn seed_view(ctx: &Ctx) -> Result<Value, String> {
    let dir = ctx.scratch.sub("serve-view");
    let (mut daemon, queue, list) = open_fresh(&dir, instance_seed(ctx.seed, 0))?;
    let run = message_loop(&mut daemon, &queue, &list, &mut Tracer::off(), false)?;
    check_end_state(&daemon, &run)?;
    Ok(view(&daemon))
}
