//! The tracked lattice perf baseline: `BENCH_lattice.json`.
//!
//! Every later PR needs a perf trajectory to beat, so the `bench_baseline`
//! binary measures the coalition-lattice fast path on fixed workloads and
//! emits one machine-readable JSON report. Run it with
//!
//! ```text
//! cargo run --release -p fairsched-bench --bin bench_baseline -- \
//!     [--paper-scale] [--scale] [--samples N] [--out BENCH_lattice.json]
//! ```
//!
//! # `BENCH_lattice.json` format (schema `fairsched-bench-lattice/v1`)
//!
//! | field | meaning |
//! |---|---|
//! | `schema` | format tag, bump on breaking change |
//! | `mode` | `"quick"` (default), `"paper-scale"`, `"scale"` or `"paper-scale+scale"` |
//! | `reference.label` | provenance of the committed pre-fast-path measurement |
//! | `reference.ref_k8_wall_ns_min` | REF `k=8` lattice bench, min wall ns, **before** the fast path |
//! | `cases[]` | one entry per measured scheduler × workload |
//! | `cases[].wall_ns_min` / `wall_ns_mean` | min / mean wall time over `samples` runs |
//! | `cases[].engine_events` | releases + starts + completions seen by the engine |
//! | `cases[].events_per_sec` | `engine_events / (wall_ns_min / 1e9)` |
//! | `cases[].lattice` | the lattice's own work counters ([`LatticeStats`]): settles, rounds, release fan-out, sim starts/completions, φ row reads / from-scratch reads / row updates / evictions |
//! | `summary.ref_k8_wall_ns_min` | this run's REF `k=8` measurement |
//! | `summary.speedup_vs_reference` | `reference / current` (≥ 3× is the PR-2 acceptance bar) |
//!
//! The *quick* matrix times REF on the FPT growth workloads (`k` = 2, 4,
//! 6, 8 — the same family as `benches/lattice.rs`) plus RAND at `k` = 8;
//! `--paper-scale` appends a smoke matrix at the paper's experiment size
//! (LPC-EGEE at scale 1.0, horizon 5·10⁴, 5 organizations) so the numbers
//! track the configuration Tables 1–2 actually run; `--scale` appends
//! REF at `k` = 10 and 12 (`ref/k=10`, `ref/k=12`) and the million-job
//! tier (`scale/` rows). Beside the lattice
//! rows sit the user paths that have no scheduler of their own: the serve
//! round trip (`serve/`), the `experiment run` grid clean and resumed
//! (`e2e/experiment/`), and the JSON codec (`json/`). The criterion suites
//! (`cargo bench -p fairsched-bench`) complement this file with
//! micro-level numbers; CI's `bench-smoke` job runs both and uploads the
//! JSON as an artifact.

use fairsched_core::journal::atomic_write;
use fairsched_core::scheduler::lattice::LatticeStats;
use fairsched_core::scheduler::{
    FairShareScheduler, FifoScheduler, RandScheduler, RefScheduler, Scheduler,
    SchedulerSpec,
};
use fairsched_core::Trace;
use fairsched_experiment::{ExperimentSpec, Runner, RunnerOptions, SeedPlan};
use fairsched_serve::{Daemon, Message, ServeConfig, SubmissionQueue};
use fairsched_sim::{run_scheduler, MetricSpec, SimOptions, SimResult, SimSession};
use fairsched_workloads::spec::{fpt_spec, WorkloadContext, WorkloadRegistry};
use fairsched_workloads::swf::{self, SwfJob};
use fairsched_workloads::{
    generate, synth_spec, to_trace, MachineSplit, PresetName, SynthConfig,
};
use serde::Serialize;
use std::time::Instant;

/// Schema tag written into the report.
pub const SCHEMA: &str = "fairsched-bench-lattice/v1";

/// The pre-fast-path REF `k=8` measurement this file's speedups are
/// judged against: commit `ecd7721` ("PR 1"), `HashMap` coalition index +
/// from-scratch Shapley at every event time, measured with this same
/// harness (min of 5 samples) immediately before the fast-path rework on
/// the same machine.
pub const PRE_FASTPATH_REF_K8_WALL_NS: u64 = 117_794_892;

/// The lattice work counters, mirrored into the report (serializable).
#[derive(Clone, Debug, Serialize)]
pub struct LatticeCounters {
    /// `settle` calls (decision points).
    pub settles: u64,
    /// Distinct event times processed.
    pub rounds: u64,
    /// Job releases delivered to sims (fan-out).
    pub releases: u64,
    /// Hypothetical job starts across sims.
    pub sim_starts: u64,
    /// Hypothetical completions applied across sims.
    pub sim_completions: u64,
    /// φ reads served from the potential rows.
    pub phi_cache_hits: u64,
    /// φ reads evaluated from scratch (0 on REF's lattice).
    pub phi_recomputes: u64,
    /// Potential rows updated by delta pushes.
    pub phi_deltas_applied: u64,
    /// Always 0 (rows live as long as the lattice); kept for the
    /// benchmark harness until a `[benchmark]` PR retires it.
    pub phi_evictions: u64,
}

impl From<LatticeStats> for LatticeCounters {
    fn from(s: LatticeStats) -> Self {
        LatticeCounters {
            settles: s.settles,
            rounds: s.rounds,
            releases: s.releases,
            sim_starts: s.sim_starts,
            sim_completions: s.sim_completions,
            phi_cache_hits: s.phi_cache_hits,
            phi_recomputes: s.phi_recomputes,
            phi_deltas_applied: s.phi_deltas_applied,
            phi_evictions: s.phi_evictions,
        }
    }
}

/// One measured scheduler × workload cell.
#[derive(Clone, Debug, Serialize)]
pub struct CaseResult {
    /// Case id, e.g. `"ref/k=8"`.
    pub name: String,
    /// Scheduler display name.
    pub scheduler: String,
    /// Number of organizations.
    pub k: usize,
    /// Jobs in the trace.
    pub n_jobs: usize,
    /// Evaluation horizon.
    pub horizon: u64,
    /// Timed runs (after one untimed warmup).
    pub samples: usize,
    /// Fastest run, nanoseconds.
    pub wall_ns_min: u64,
    /// Mean over the timed runs, nanoseconds.
    pub wall_ns_mean: u64,
    /// Engine events: releases + starts + completions.
    pub engine_events: u64,
    /// `engine_events / (wall_ns_min / 1e9)`.
    pub events_per_sec: f64,
    /// The scheduler lattice's own work counters (REF/RAND only).
    pub lattice: Option<LatticeCounters>,
}

/// One measured timeline (streaming-sweep) row: the fairness trajectory
/// evaluator timed against the naive per-sample recompute on the same
/// schedules, at one sample count. Rows at several sample counts
/// demonstrate the sub-quadratic scaling claim: the oracle's wall time
/// grows linearly with `samples` while the streaming sweep's stays nearly
/// flat (one pass over the schedule entries regardless).
#[derive(Clone, Debug, Serialize)]
pub struct TimelineCase {
    /// Case id, e.g. `"timeline/k=8/s=512"`.
    pub name: String,
    /// Requested sample count.
    pub samples: usize,
    /// Points actually emitted (dedup'd grid).
    pub points: usize,
    /// The `timeline:samples=N` metric (one streaming sweep per
    /// schedule), min wall ns.
    pub streaming_wall_ns_min: u64,
    /// Naive per-sample recompute (`FairnessReport::from_schedules` at
    /// every sample time), min wall ns.
    pub oracle_wall_ns_min: u64,
    /// `oracle / streaming`.
    pub speedup_vs_oracle: f64,
    /// The trajectory's final `Δψ/p_tot` (equals the endpoint `delay`).
    pub final_unfairness: f64,
}

/// The committed reference point.
#[derive(Clone, Debug, Serialize)]
pub struct ReferencePoint {
    /// Where the number comes from.
    pub label: String,
    /// Pre-fast-path REF `k=8` min wall ns.
    pub ref_k8_wall_ns_min: u64,
}

/// Headline numbers.
#[derive(Clone, Debug, Serialize)]
pub struct Summary {
    /// This run's REF `k=8` min wall ns.
    pub ref_k8_wall_ns_min: u64,
    /// `reference.ref_k8_wall_ns_min / summary.ref_k8_wall_ns_min`.
    pub speedup_vs_reference: f64,
}

/// The whole report (serialized to `BENCH_lattice.json`).
#[derive(Clone, Debug, Serialize)]
pub struct BaselineReport {
    /// Format tag ([`SCHEMA`]).
    pub schema: String,
    /// `"quick"` or `"paper-scale"`.
    pub mode: String,
    /// The committed pre-change measurement.
    pub reference: ReferencePoint,
    /// All measured cases.
    pub cases: Vec<CaseResult>,
    /// The fairness-trajectory rows: streaming sweep vs naive oracle at
    /// growing sample counts on the `fpt:k=8` baseline workload.
    pub timeline: Vec<TimelineCase>,
    /// Headline comparison.
    pub summary: Summary,
}

/// The canonical lattice-bench workload family (`benches/lattice.rs` uses
/// the same traces): `2k` users on `2k` machines at load 0.8 — the
/// workload registry's `fpt:k=<k>` family, whose defaults reproduce the
/// historical hand-built construction bit for bit, keeping every committed
/// `BENCH_lattice.json` number comparable.
pub fn bench_workload(k: usize, seed: u64) -> Trace {
    WorkloadRegistry::shared()
        .build(&fpt_spec(k), &WorkloadContext { seed })
        .expect("fpt family builds for any k >= 1")
}

/// Organization count of the million-job scale tier.
pub const SCALE_K: usize = 100;

/// Job-count floor the scale-tier workload is tuned to exceed.
pub const SCALE_MIN_JOBS: usize = 1_000_000;

/// The seed the committed `scale/` rows are measured at.
pub const SCALE_SEED: u64 = 7;

/// The million-job scale-tier workload: ≥ 10⁶ short sequential jobs from
/// the synthetic generator, 2 000 Zipf-active users dealt over
/// [`SCALE_K`] = 100 organizations on 400 machines (Zipf split). The
/// parameters are tuned so the deterministic generator emits just over
/// [`SCALE_MIN_JOBS`] jobs at any seed — the tier exercising the columnar
/// trace layout, the streaming ψ sweep, and the O(n + k) per-org index at
/// the scale the quadratic paths they replaced could not reach.
pub fn scale_workload(seed: u64) -> Trace {
    let jobs = generate(&SCALE_CONFIG, seed);
    // lint:allow(panic-free) generator output over a 1-machine-floor split is always valid
    to_trace(&jobs, SCALE_K, SCALE_CONFIG.n_machines, MachineSplit::Zipf(1.0), seed)
        .expect("scale workload builds")
}

/// The generator configuration of [`scale_workload`].
const SCALE_CONFIG: SynthConfig = SynthConfig {
    n_users: 2_000,
    horizon: 26_000,
    n_machines: 4 * SCALE_K,
    load: 0.95,
    duration_median: 6.0,
    duration_sigma: 1.0,
    max_duration: 50,
    user_zipf: 1.1,
    session_jobs: 8.0,
    intra_session_gap: 2.0,
};

/// Times archive-log ingest at the scale tier: [`swf::stream_trace`]
/// replaying the tier's generator output, rendered once with
/// [`swf::write`] (one single-processor record per job) to a temporary
/// file. The replayed trace must equal `expected`, the tier's own trace,
/// so the row times ingest of exactly what the other `scale/` rows
/// schedule. `engine_events` counts records.
fn run_swf_ingest(samples: usize, expected: &Trace) -> CaseResult {
    let records: Vec<SwfJob> = generate(&SCALE_CONFIG, SCALE_SEED)
        .iter()
        .enumerate()
        .map(|(i, j)| SwfJob {
            job_number: i as i64 + 1,
            submit: j.release,
            runtime: j.proc_time,
            processors: 1,
            user: j.user,
        })
        .collect();
    let path = std::env::temp_dir()
        .join(format!("fairsched-bench-swf-ingest-{}.swf", std::process::id()));
    // lint:allow(panic-free) a fresh file in the temp directory; a failure is a bug worth stopping the bench for
    atomic_write(&path, &swf::write(&records)).expect("SWF log writes");
    let path_text = path.to_string_lossy();
    let replay = || {
        let split = MachineSplit::Zipf(1.0);
        let (n_machines, seed) = (SCALE_CONFIG.n_machines, SCALE_SEED);
        swf::stream_trace(&path_text, 0, u64::MAX, SCALE_K, n_machines, split, seed)
    };
    // lint:allow(panic-free) the log was written a line above by the same codec
    let (trace, _) = replay().expect("scale log replays");
    assert_eq!(&trace, expected, "SWF replay diverged from the scale workload");
    let (min, mean) = timed(samples, || {
        std::hint::black_box(replay().ok());
    });
    let _ = std::fs::remove_file(&path);
    let events = records.len() as u64;
    CaseResult {
        name: format!("scale/swf_ingest/k={SCALE_K}"),
        scheduler: "swf-stream".to_string(),
        k: SCALE_K,
        n_jobs: trace.n_jobs(),
        horizon: trace.completion_horizon(),
        samples: samples.max(1),
        wall_ns_min: min,
        wall_ns_mean: mean,
        engine_events: events,
        events_per_sec: events as f64 / (min as f64 / 1e9),
        lattice: None,
    }
}

/// Measures the scale tier: trace construction itself (one `scale/build`
/// row — the columnar assembly is part of what the tier guards), then the
/// non-lattice schedulers end to end. REF/RAND are absent by design: the
/// coalition lattice is 2^k and `k = 100` here.
fn run_scale(samples: usize) -> Vec<CaseResult> {
    // Trace construction is timed like any other case: min over a few
    // builds (a single sample is too noisy for the regression gate).
    let build_samples = samples.clamp(1, 3);
    let mut trace = scale_workload(SCALE_SEED);
    let (build_min, build_mean) = timed(build_samples, || {
        trace = std::hint::black_box(scale_workload(SCALE_SEED));
    });
    let n = trace.n_jobs();
    assert!(
        n >= SCALE_MIN_JOBS,
        "scale workload regressed below {SCALE_MIN_JOBS} jobs: {n}"
    );
    // Event-driven engine: a generous horizon (every job can finish) costs
    // nothing, and completed-schedule rows are what the tier tracks.
    let horizon = trace.completion_horizon();
    let mut out = vec![CaseResult {
        name: format!("scale/build/k={SCALE_K}"),
        scheduler: "trace-builder".to_string(),
        k: SCALE_K,
        n_jobs: n,
        horizon,
        samples: build_samples,
        wall_ns_min: build_min,
        wall_ns_mean: build_mean,
        engine_events: n as u64,
        events_per_sec: n as f64 / (build_min as f64 / 1e9),
        lattice: None,
    }];
    out.push(run_swf_ingest(build_samples, &trace));
    let s = samples.clamp(1, 2);
    out.push(measure(
        &format!("scale/fifo/k={SCALE_K}"),
        &trace,
        SCALE_K,
        horizon,
        s,
        |_| FifoScheduler::new(),
        |_: &FifoScheduler| None,
    ));
    out.push(measure(
        &format!("scale/fairshare/k={SCALE_K}"),
        &trace,
        SCALE_K,
        horizon,
        s,
        |_| FairShareScheduler::new(),
        |_: &FairShareScheduler| None,
    ));
    out
}

/// Runs `run` `samples` times (at least once) and returns the fastest and
/// the mean wall time, nanoseconds.
fn timed(samples: usize, mut run: impl FnMut()) -> (u64, u64) {
    let samples = samples.max(1);
    let mut min = u128::MAX;
    let mut total = 0u128;
    for _ in 0..samples {
        let started = Instant::now();
        run();
        let ns = started.elapsed().as_nanos();
        min = min.min(ns);
        total += ns;
    }
    (min as u64, (total / samples as u128) as u64)
}

/// Bytes each `json/parse` sample pushes through the codec, whatever the
/// document size: small documents are processed more often, so every row
/// clears [`COMPARE_FLOOR_NS`] and `wall_ns_min / engine_events` is ns per
/// byte on each.
const JSON_BYTES_PER_SAMPLE: usize = 8 << 20;

/// Bytes each `json/render_pretty` sample renders: rendering costs about
/// a fifth of parsing per byte, so it needs more bytes to clear
/// [`COMPARE_FLOOR_NS`] by the same margin.
const RENDER_BYTES_PER_SAMPLE: usize = 4 * JSON_BYTES_PER_SAMPLE;

/// A string-heavy document of at least `bytes` bytes of compact JSON, in
/// the shape of what the durable tiers store: an array of small records
/// with multi-byte and escaped text.
fn json_document(bytes: usize) -> serde::Value {
    use serde::Value;
    let record = |i: usize| {
        Value::Object(vec![
            ("name".to_string(), Value::String(format!("org-{i} \"é λ\" a\\b\tend"))),
            ("release".to_string(), Value::Number((i * 37).to_string())),
            ("deadline".to_string(), Value::Null),
            ("tags".to_string(), Value::Array(vec![Value::Bool(i.is_multiple_of(2)); 3])),
        ])
    };
    let per_record = record(100_000).to_json().len() + 1;
    Value::Array((0..bytes / per_record + 1).map(record).collect())
}

/// The codec rows behind every snapshot, cell and report read:
/// `json/parse/64k` and `json/parse/1m` (ns per byte must agree — the
/// parser is linear in document size) and `json/render_pretty/1m`.
/// `engine_events` counts bytes of JSON text processed per sample.
fn run_json_codec(samples: usize) -> Vec<CaseResult> {
    let case = |name: &str, doc_bytes: usize, budget: usize, run: &mut dyn FnMut()| {
        let reps = budget / doc_bytes;
        let (min, mean) = timed(samples, || (0..reps).for_each(|_| run()));
        let bytes = (reps * doc_bytes) as u64;
        CaseResult {
            name: name.to_string(),
            scheduler: "json-codec".to_string(),
            k: 0,
            n_jobs: 0,
            horizon: 0,
            samples: samples.max(1),
            wall_ns_min: min,
            wall_ns_mean: mean,
            engine_events: bytes,
            events_per_sec: bytes as f64 / (min as f64 / 1e9),
            lattice: None,
        }
    };
    let mut out = Vec::new();
    for (label, size) in [("64k", 64 << 10), ("1m", 1 << 20)] {
        let text = json_document(size).to_json();
        let name = format!("json/parse/{label}");
        out.push(case(&name, text.len(), JSON_BYTES_PER_SAMPLE, &mut || {
            // lint:allow(panic-free) the document was rendered by this codec a line above
            std::hint::black_box(serde_json::parse_value(&text).expect("own rendering"));
        }));
    }
    let doc = json_document(1 << 20);
    let pretty_bytes = doc.to_json_pretty().len();
    out.push(case(
        "json/render_pretty/1m",
        pretty_bytes,
        RENDER_BYTES_PER_SAMPLE,
        &mut || {
            std::hint::black_box(doc.to_json_pretty());
        },
    ));
    out
}

/// Messages per `serve/drain` sample.
const DRAIN_MESSAGES: u64 = 400;

/// The online round trip, in process: [`DRAIN_MESSAGES`] messages (three
/// submissions, then an advance of the clock by 5, repeated), each
/// `SubmissionQueue::submit` → `Daemon::drain`, against a `ref` daemon
/// over `fpt:k=6` in a fresh directory per sample. `engine_events` counts
/// messages.
fn run_serve_drain(samples: usize) -> CaseResult {
    let k = 6u64;
    let mut clock = 0u64;
    let messages: Vec<Message> = (0..DRAIN_MESSAGES)
        .map(|i| {
            if i % 4 == 3 {
                clock += 5;
                Message::Advance { until: clock }
            } else {
                Message::Submit {
                    org: (i % k) as u32,
                    release: clock + 1 + i % 3,
                    proc_time: 3 + i % 7,
                    deadline: None,
                }
            }
        })
        .collect();
    let dir = std::env::temp_dir()
        .join(format!("fairsched-bench-serve-drain-{}", std::process::id()));
    let config = ServeConfig {
        workload: "fpt:k=6".to_string(),
        scheduler: "ref".to_string(),
        seed: 42,
    };
    // Only the message loop is timed: a fresh directory and an opened
    // daemon per sample are set-up.
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..samples.max(1) {
        let _ = std::fs::remove_dir_all(&dir);
        // lint:allow(panic-free) a registry workload and scheduler in a fresh temp directory; a failure is a bug worth stopping the bench for
        config.init(&dir).expect("serve directory initializes");
        // lint:allow(panic-free) same contract as init above
        let mut daemon = Daemon::open(&dir).expect("daemon opens");
        // lint:allow(panic-free) same contract as init above
        let queue = SubmissionQueue::open(&dir).expect("queue opens");
        let started = Instant::now();
        for message in &messages {
            // lint:allow(panic-free) same contract as init above
            queue.submit(message).expect("submit");
            // lint:allow(panic-free) same engine contract as the batch rows
            assert_eq!(daemon.drain().expect("drain"), 1);
        }
        walls.push(started.elapsed().as_nanos() as u64);
        last = Some(daemon);
    }
    let _ = std::fs::remove_dir_all(&dir);
    // lint:allow(panic-free) the loop above runs at least once
    let (daemon, min) = last.zip(walls.iter().copied().min()).expect("one sample ran");
    let mean = walls.iter().sum::<u64>() / walls.len() as u64;
    assert_eq!(daemon.applied_seq(), DRAIN_MESSAGES);
    CaseResult {
        name: format!("serve/drain/{DRAIN_MESSAGES}"),
        scheduler: daemon.session().scheduler_name(),
        k: k as usize,
        n_jobs: daemon.session().trace().n_jobs(),
        horizon: clock,
        samples: samples.max(1),
        wall_ns_min: min,
        wall_ns_mean: mean,
        engine_events: DRAIN_MESSAGES,
        events_per_sec: DRAIN_MESSAGES as f64 / (min as f64 / 1e9),
        lattice: None,
    }
}

/// The `experiment run` user path, in process: a Table-1-style grid —
/// `fpt:k=3|4|5|6` at horizon 1000 × five schedulers and a `ref` column ×
/// 20 coupled seeds, with the REF-referenced `delay` — through
/// [`Runner::run`] into a fresh directory (`e2e/experiment/tiny_grid`:
/// per row one trace build and one REF run, per cell one journaled
/// commit), then resumed over the committed directory
/// (`e2e/experiment/tiny_grid_resume`: decode, skip and aggregate every
/// cell). 480 cells, so that the resume too clears [`COMPARE_FLOOR_NS`].
/// `engine_events` counts cells.
fn run_experiment_grid(samples: usize) -> Vec<CaseResult> {
    let mut spec = ExperimentSpec::new(
        "bench-tiny-grid",
        [3, 4, 5, 6].map(|k| fpt_spec(k).with("horizon", 1_000)).to_vec(),
        vec![
            SchedulerSpec::bare("fifo"),
            SchedulerSpec::bare("roundrobin"),
            SchedulerSpec::bare("fairshare"),
            SchedulerSpec::bare("directcontr"),
            SchedulerSpec::bare("rand").with("perms", 15),
            SchedulerSpec::bare("ref"),
        ],
    );
    spec.metrics = vec![MetricSpec::bare("delay"), MetricSpec::bare("psi")];
    spec.horizon = Some(1_000);
    spec.seeds =
        SeedPlan { base: 42, count: 20, workload_stride: 1, scheduler_stride: 1 };
    let cells = spec.n_cells();
    let dir = std::env::temp_dir()
        .join(format!("fairsched-bench-tiny-grid-{}", std::process::id()));
    let run = |resume: bool| {
        let options = RunnerOptions { resume, ..RunnerOptions::default() };
        let started = Instant::now();
        // lint:allow(panic-free) registry specs in a fresh temp directory; a failure is a bug worth stopping the bench for
        let summary = Runner::new(spec.clone(), &dir, options).run().expect("grid runs");
        let wall = started.elapsed().as_nanos() as u64;
        let expected = if resume { (0, cells, 0) } else { (cells, 0, 0) };
        assert_eq!((summary.computed, summary.skipped, summary.failed), expected);
        wall
    };
    let (mut clean, mut resumed) = (Vec::new(), Vec::new());
    for _ in 0..samples.max(1) {
        let _ = std::fs::remove_dir_all(&dir);
        clean.push(run(false));
        resumed.push(run(true));
    }
    let _ = std::fs::remove_dir_all(&dir);
    [("e2e/experiment/tiny_grid", clean), ("e2e/experiment/tiny_grid_resume", resumed)]
        .into_iter()
        .map(|(name, walls)| {
            let min = walls.iter().copied().min().unwrap_or(0);
            CaseResult {
                name: name.to_string(),
                scheduler: "experiment-runner".to_string(),
                k: 6,
                n_jobs: 0,
                horizon: 1_000,
                samples: walls.len(),
                wall_ns_min: min,
                wall_ns_mean: walls.iter().sum::<u64>() / walls.len() as u64,
                engine_events: cells,
                events_per_sec: cells as f64 / (min as f64 / 1e9),
                lattice: None,
            }
        })
        .collect()
}

/// How many `step` calls the stepper overhead row crosses the horizon in
/// (the serving daemon's advance cadence, exaggerated for measurement).
const STEP_CHUNKS: u64 = 100;

/// Measures the resumable stepper against the batch engine on the
/// lattice-bench workload (`fpt:k=8`, seed 5, horizon 2000): the same
/// schedule built via [`SimSession::step`] in [`STEP_CHUNKS`] increments,
/// timed against one `run_scheduler` call. The pair of `serve/step_overhead`
/// rows pins the abstraction cost `fairsched serve` pays for driving the
/// event loop incrementally — both rows replay identical events, so any
/// gap is pure stepper overhead.
fn run_serve_overhead(samples: usize) -> Vec<CaseResult> {
    let horizon: u64 = 2_000;
    let trace = bench_workload(8, 5);
    let batch = measure(
        "serve/step_overhead/batch/k=8",
        &trace,
        8,
        horizon,
        samples,
        RefScheduler::new,
        |s: &RefScheduler| Some(s.lattice().stats().into()),
    );

    // The stepper's advance marks: an even u128 grid over the horizon
    // (widened like timeline_sample_times), ending exactly at it.
    let marks: Vec<u64> = (1..=STEP_CHUNKS)
        .map(|i| ((horizon as u128 * i as u128) / STEP_CHUNKS as u128) as u64)
        .collect();
    let run = || -> SimResult {
        // lint:allow(panic-free) registry scheduler on a registry workload; same contract as measure()
        let mut session = SimSession::new(trace.clone(), "ref", 5).expect("session");
        for mark in &marks {
            // lint:allow(panic-free) same engine contract as the batch row
            session.step(*mark).expect("engine contract");
        }
        // lint:allow(panic-free) same engine contract as the batch row
        session.finish(horizon, true).expect("engine contract")
    };
    let warm: SimResult = run();
    let engine_events = (trace.n_jobs() + warm.started_jobs + warm.completed_jobs) as u64;
    let (min, mean) = timed(samples, || {
        std::hint::black_box(run());
    });
    let stepper = CaseResult {
        name: "serve/step_overhead/stepper/k=8".to_string(),
        scheduler: warm.scheduler,
        k: 8,
        n_jobs: trace.n_jobs(),
        horizon,
        samples: samples.max(1),
        wall_ns_min: min,
        wall_ns_mean: mean,
        engine_events,
        events_per_sec: engine_events as f64 / (min as f64 / 1e9),
        lattice: None,
    };
    vec![batch, stepper]
}

/// Times `build() → run_scheduler(horizon)` over `samples` runs (plus one
/// untimed warmup) and gathers the counters from a final untimed run.
fn measure<S: Scheduler, B: Fn(&Trace) -> S, L: Fn(&S) -> Option<LatticeCounters>>(
    name: &str,
    trace: &Trace,
    k: usize,
    horizon: u64,
    samples: usize,
    build: B,
    lattice_of: L,
) -> CaseResult {
    // Built-in schedulers on registry workloads cannot violate the engine
    // contract; a panic here means a bug worth stopping the bench for
    // (allowlisted for the panic-free-library rule).
    let options = SimOptions { horizon, validate: false };
    let run = |s: &mut S| run_scheduler(trace, s, options).expect("engine contract");
    // Warmup — runs are deterministic, so this run also yields the
    // display name, the event counts, and the lattice counters.
    let mut warm = build(trace);
    let result: SimResult = run(&mut warm);
    let engine_events =
        (trace.n_jobs() + result.started_jobs + result.completed_jobs) as u64;

    let (min, mean) = timed(samples, || {
        let mut s = build(trace);
        std::hint::black_box(run(&mut s));
    });
    CaseResult {
        name: name.to_string(),
        scheduler: result.scheduler,
        k,
        n_jobs: trace.n_jobs(),
        horizon,
        samples,
        wall_ns_min: min,
        wall_ns_mean: mean,
        engine_events,
        events_per_sec: engine_events as f64 / (min as f64 / 1e9),
        lattice: lattice_of(&warm),
    }
}

/// Runs the baseline matrix and assembles the report. `paper_scale`
/// appends the paper-size LPC smoke matrix; `scale` appends the
/// million-job tier ([`run_scale`]).
pub fn run_baseline(paper_scale: bool, scale: bool, samples: usize) -> BaselineReport {
    let mut cases = Vec::new();

    // The FPT growth matrix (same family as benches/lattice.rs).
    for k in [2usize, 4, 6, 8] {
        let trace = bench_workload(k, 5);
        cases.push(measure(
            &format!("ref/k={k}"),
            &trace,
            k,
            2_000,
            samples,
            RefScheduler::new,
            |s: &RefScheduler| Some(s.lattice().stats().into()),
        ));
    }
    let trace8 = bench_workload(8, 5);
    cases.push(measure(
        "rand15/k=8",
        &trace8,
        8,
        2_000,
        samples,
        |t| RandScheduler::new(t, 15, 9),
        |s: &RandScheduler| Some(s.lattice().stats().into()),
    ));
    cases.push(measure(
        "rand75/k=8",
        &trace8,
        8,
        2_000,
        samples,
        |t| RandScheduler::new(t, 75, 9),
        |s: &RandScheduler| Some(s.lattice().stats().into()),
    ));

    cases.extend(run_serve_overhead(samples));
    cases.push(run_serve_drain(samples));
    cases.extend(run_experiment_grid(samples));
    cases.extend(run_json_codec(samples));

    if paper_scale {
        // Smoke matrix at the paper's experiment size: LPC-EGEE, scale
        // 1.0, horizon 5·10⁴, 5 organizations (the Table 1 cell REF
        // actually pays for) — the registry spec for the same trace the
        // hand-built construction used to produce.
        let spec =
            synth_spec(PresetName::LpcEgee, 1.0, 5, MachineSplit::Zipf(1.0), 50_000);
        let trace = WorkloadRegistry::shared()
            .build(&spec, &WorkloadContext { seed: 42 })
            .expect("paper-scale LPC preset builds");
        cases.push(measure(
            "paper/lpc/ref",
            &trace,
            5,
            50_000,
            samples.min(3),
            RefScheduler::new,
            |s: &RefScheduler| Some(s.lattice().stats().into()),
        ));
        cases.push(measure(
            "paper/lpc/rand15",
            &trace,
            5,
            50_000,
            samples.min(3),
            |t| RandScheduler::new(t, 15, 9),
            |s: &RandScheduler| Some(s.lattice().stats().into()),
        ));
    }

    if scale {
        // The exponential core where φ-cache maintenance dominates: the
        // k the benchmark's `ref_k10` workload runs, and k = 12 to tell a
        // constant-factor win from an asymptotic one (horizon halved to
        // keep the row seconds-long).
        for (k, horizon) in [(10usize, 2_000), (12, 1_000)] {
            cases.push(measure(
                &format!("ref/k={k}"),
                &bench_workload(k, 5),
                k,
                horizon,
                samples.min(3),
                RefScheduler::new,
                |s: &RefScheduler| Some(s.lattice().stats().into()),
            ));
        }
        cases.extend(run_scale(samples));
    }

    let timeline = measure_timeline(&trace8, samples);

    let ref_k8 = cases
        .iter()
        .find(|c| c.name == "ref/k=8")
        .expect("ref/k=8 is always measured")
        .wall_ns_min;
    let mode = match (paper_scale, scale) {
        (false, false) => "quick",
        (true, false) => "paper-scale",
        (false, true) => "scale",
        (true, true) => "paper-scale+scale",
    };
    BaselineReport {
        schema: SCHEMA.to_string(),
        mode: mode.to_string(),
        reference: ReferencePoint {
            label: "pre-fastpath @ ecd7721 (HashMap index, from-scratch Shapley), \
                    min of 5, same harness/workload"
                .to_string(),
            ref_k8_wall_ns_min: PRE_FASTPATH_REF_K8_WALL_NS,
        },
        cases,
        timeline,
        summary: Summary {
            ref_k8_wall_ns_min: ref_k8,
            speedup_vs_reference: PRE_FASTPATH_REF_K8_WALL_NS as f64 / ref_k8 as f64,
        },
    }
}

/// Default regression-gate tolerance, percent: a fresh case slower than
/// the committed baseline by more than this fails [`compare_reports`].
pub const DEFAULT_TOLERANCE_PCT: f64 = 15.0;

/// Committed cases faster than this are exempt from the gate —
/// millisecond-scale cells flap by tens of percent run to run on a shared
/// machine, so gating them would be pure noise. The rows the gate exists
/// for (`ref/k=8`, the `scale/` tier) sit well above this.
pub const COMPARE_FLOOR_NS: u64 = 10_000_000;

/// One case compared against the committed baseline.
#[derive(Clone, Debug, Serialize)]
pub struct Comparison {
    /// Case id (present in both reports).
    pub name: String,
    /// Committed `wall_ns_min`.
    pub committed_wall_ns_min: u64,
    /// Fresh `wall_ns_min`.
    pub fresh_wall_ns_min: u64,
    /// `fresh / committed` (> 1 means slower).
    pub ratio: f64,
    /// Whether this case breaches the tolerance.
    pub regressed: bool,
}

/// Compares a fresh report against the committed `BENCH_lattice.json`
/// (parsed as a JSON tree so older files with fewer fields still compare):
/// every case name present in both reports is matched on `wall_ns_min`,
/// and a case is flagged as regressed when the fresh time exceeds the
/// committed one by more than `tolerance_pct` percent — unless the
/// committed time is under [`COMPARE_FLOOR_NS`]. Cases only in one report
/// (new rows, retired rows) are skipped: the gate rachets what both know.
///
/// # Errors
/// Returns a message if the committed tree lacks a well-formed `cases`
/// array.
pub fn compare_reports(
    committed: &serde::Value,
    fresh: &BaselineReport,
    tolerance_pct: f64,
) -> Result<Vec<Comparison>, String> {
    let cases = committed
        .get("cases")
        .and_then(|c| match c {
            serde::Value::Array(items) => Some(items),
            _ => None,
        })
        .ok_or("committed baseline has no `cases` array")?;
    let mut out = Vec::new();
    for case in cases {
        let name = match case.get("name") {
            Some(serde::Value::String(s)) => s.clone(),
            _ => return Err("committed case lacks a string `name`".to_string()),
        };
        let committed_ns = match case.get("wall_ns_min") {
            Some(serde::Value::Number(n)) => n
                .parse::<u64>()
                .map_err(|_| format!("case {name}: bad wall_ns_min {n:?}"))?,
            _ => return Err(format!("committed case {name} lacks wall_ns_min")),
        };
        let Some(fresh_case) = fresh.cases.iter().find(|c| c.name == name) else {
            continue;
        };
        let ratio = fresh_case.wall_ns_min as f64 / committed_ns.max(1) as f64;
        let regressed =
            committed_ns >= COMPARE_FLOOR_NS && ratio > 1.0 + tolerance_pct / 100.0;
        out.push(Comparison {
            name,
            committed_wall_ns_min: committed_ns,
            fresh_wall_ns_min: fresh_case.wall_ns_min,
            ratio,
            regressed,
        });
    }
    Ok(out)
}

/// Times the `timeline` metric against the naive per-sample oracle
/// (a `FairnessReport` per sample time) on the `fpt:k=8` baseline
/// workload (FairShare vs the exact REF reference, the same schedules for
/// both evaluators), at growing sample counts. The streaming rows should
/// stay nearly flat while the oracle's wall time grows with `samples` —
/// the sub-quadratic scaling evidence.
fn measure_timeline(trace: &Trace, runs: usize) -> Vec<TimelineCase> {
    use fairsched_core::fairness::{timeline_sample_times, FairnessReport};
    use fairsched_core::scheduler::FairShareScheduler;
    use fairsched_sim::{MetricRegistry, Report};

    let horizon = 2_000;
    let options = SimOptions { horizon, validate: false };
    let run = |s: &mut dyn Scheduler| {
        run_scheduler(trace, s, options).expect("engine contract")
    };
    let eval = run(&mut FairShareScheduler::new());
    let reference = run(&mut RefScheduler::new(trace));

    let time_min = |f: &dyn Fn() -> usize| -> (u64, usize) {
        let mut min = u128::MAX;
        let mut points = 0;
        for _ in 0..runs.max(1) {
            let started = Instant::now();
            points = std::hint::black_box(f());
            min = min.min(started.elapsed().as_nanos());
        }
        (min as u64, points)
    };

    [64usize, 256, 1024]
        .into_iter()
        .map(|samples| {
            let specs = [MetricSpec::bare("timeline").with("samples", samples)];
            let timeline = || {
                let registry = MetricRegistry::shared();
                Report::evaluate(registry, &specs, trace, &eval, Some(&reference))
                    // lint:allow(panic-free) a registered metric at a valid sample count with its reference; a failure is a bug worth stopping the bench for
                    .expect("timeline metric evaluates")
                    .series
                    .swap_remove(0)
            };
            let final_unfairness =
                timeline().final_aggregate().map(|v| v.as_f64()).unwrap_or_default();
            let (streaming_ns, points) = time_min(&|| timeline().times.len());
            let (oracle_ns, _) = time_min(&|| {
                let times = timeline_sample_times(horizon, samples);
                for &t in &times {
                    std::hint::black_box(FairnessReport::from_schedules(
                        trace,
                        &eval.schedule,
                        &reference.schedule,
                        t,
                    ));
                }
                times.len()
            });
            TimelineCase {
                name: format!("timeline/k=8/s={samples}"),
                samples,
                points,
                streaming_wall_ns_min: streaming_ns,
                oracle_wall_ns_min: oracle_ns,
                speedup_vs_oracle: oracle_ns as f64 / streaming_ns as f64,
                final_unfairness,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_baseline_smoke_produces_counters_and_summary() {
        // One sample on the small ks only would need a custom matrix; the
        // full quick matrix with 1 sample stays test-sized.
        let report = run_baseline(false, false, 1);
        assert_eq!(report.schema, SCHEMA);
        assert_eq!(report.mode, "quick");
        assert!(report.cases.iter().any(|c| c.name == "ref/k=8"));
        for c in &report.cases {
            assert!(c.wall_ns_min > 0);
            assert!(c.engine_events > 0);
            assert!(c.events_per_sec > 0.0);
            let Some(lattice) = c.lattice.as_ref() else {
                // The stepper, drain and experiment rows drive boxed
                // registry schedulers, so their lattice counters are
                // unreachable through the trait object, and the codec
                // rows have no scheduler; every other row must expose them.
                assert!(
                    ["serve/step_overhead/stepper", "serve/drain/", "e2e/", "json/"]
                        .iter()
                        .any(|prefix| c.name.starts_with(prefix)),
                    "{}",
                    c.name
                );
                continue;
            };
            assert!(lattice.settles > 0);
            assert!(lattice.sim_starts > 0);
        }
        assert!(report.summary.speedup_vs_reference > 0.0);
        // The parser is linear in document size: a 16× larger document
        // costs the same per byte (a quadratic one would show 16× here).
        // One sample is at the mercy of a noisy neighbour, so the ratio
        // takes each row's minimum over several.
        assert!(report.cases.iter().any(|c| c.name == "json/parse/1m"));
        let codec_rows = run_json_codec(3);
        let ns_per_byte = |name: &str| {
            let c = codec_rows.iter().find(|c| c.name == name).expect(name);
            c.wall_ns_min as f64 / c.engine_events as f64
        };
        let (small, large) =
            (ns_per_byte("json/parse/64k"), ns_per_byte("json/parse/1m"));
        assert!(
            large / small < 1.5 && small / large < 1.5,
            "json/parse ns per byte: 64k {small:.2}, 1m {large:.2}"
        );
        // The trajectory rows: one per sample count, each with both
        // evaluators measured and the dedup'd point count.
        assert_eq!(report.timeline.len(), 3);
        for t in &report.timeline {
            assert!(t.streaming_wall_ns_min > 0);
            assert!(t.oracle_wall_ns_min > 0);
            assert!(t.points > 0 && t.points <= t.samples);
            assert!(t.final_unfairness >= 0.0);
        }
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("fairsched-bench-lattice/v1"));
        assert!(json.contains("e2e/experiment/tiny_grid_resume"));
        assert!(json.contains("events_per_sec"));
        assert!(json.contains("timeline/k=8/s=1024"));
        assert!(json.contains("speedup_vs_oracle"));
    }

    /// A fresh report against a synthetic committed tree: shared cases are
    /// matched by name, the tolerance decides `regressed`, sub-floor cells
    /// are exempt, and names only one side knows are skipped.
    #[test]
    fn compare_gate_flags_only_real_regressions() {
        let fresh_case = |name: &str, ns: u64| CaseResult {
            name: name.to_string(),
            scheduler: "x".to_string(),
            k: 8,
            n_jobs: 1,
            horizon: 1,
            samples: 1,
            wall_ns_min: ns,
            wall_ns_mean: ns,
            engine_events: 1,
            events_per_sec: 1.0,
            lattice: None,
        };
        let fresh = BaselineReport {
            schema: SCHEMA.to_string(),
            mode: "quick".to_string(),
            reference: ReferencePoint { label: "t".to_string(), ref_k8_wall_ns_min: 1 },
            cases: vec![
                fresh_case("slow", 2_000_000_000), // 2x committed: regressed
                fresh_case("ok", 1_050_000_000),   // +5%: inside tolerance
                fresh_case("tiny", 9_000_000),     // committed below floor
                fresh_case("fresh-only", 1_000_000_000), // no committed row
            ],
            timeline: Vec::new(),
            summary: Summary { ref_k8_wall_ns_min: 1, speedup_vs_reference: 1.0 },
        };
        let committed_json = r#"{
            "schema": "fairsched-bench-lattice/v1",
            "cases": [
                {"name": "slow", "wall_ns_min": 1000000000},
                {"name": "ok", "wall_ns_min": 1000000000},
                {"name": "tiny", "wall_ns_min": 500000},
                {"name": "committed-only", "wall_ns_min": 1000000000}
            ]
        }"#;
        let committed = serde_json::parse_value(committed_json).unwrap();
        let cmp = compare_reports(&committed, &fresh, 15.0).unwrap();
        let by_name = |n: &str| cmp.iter().find(|c| c.name == n);
        assert_eq!(cmp.len(), 3, "one-sided names are skipped: {cmp:?}");
        assert!(by_name("slow").unwrap().regressed);
        assert!(!by_name("ok").unwrap().regressed);
        assert!(!by_name("tiny").unwrap().regressed, "sub-floor cell exempt");
        assert!(by_name("fresh-only").is_none());
        assert!(by_name("committed-only").is_none());
        // A looser tolerance (the BENCH_TOLERANCE escape hatch) clears it.
        let loose = compare_reports(&committed, &fresh, 150.0).unwrap();
        assert!(loose.iter().all(|c| !c.regressed));
        // Malformed committed trees are typed errors, not panics.
        let bad = serde_json::parse_value(r#"{"schema": "x"}"#).unwrap();
        assert!(compare_reports(&bad, &fresh, 15.0).is_err());
    }

    /// The scale-tier workload is deterministic and actually million-job
    /// sized. (Scheduling it is the `million_jobs_smoke` integration
    /// test's job — ignored by default, run in CI's bench-smoke.)
    #[test]
    #[ignore = "builds a 10^6-job trace (~seconds); covered by CI bench-smoke"]
    fn scale_workload_is_million_job_sized() {
        let t = scale_workload(SCALE_SEED);
        assert!(t.n_jobs() >= SCALE_MIN_JOBS, "{} jobs", t.n_jobs());
        assert_eq!(t.n_orgs(), SCALE_K);
        assert_eq!(t, scale_workload(SCALE_SEED), "must be deterministic");
        t.validate().unwrap();
    }
}
