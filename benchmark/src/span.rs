//! The outside-in trace: spans recorded by the harness around its calls
//! into each layer's public functions, kept in memory and written out when
//! the run ends.
//!
//! A span is `{run, id, parent, name, start, end}`; spans of one repetition
//! share a run id. The scheduler is called millions of times per run, so
//! its time arrives as one *aggregate* span per run ([`Timed`] sums the
//! calls): such a span carries `calls` and `busy_s`, and its `busy_s`, not
//! its extent, is what its parent's self time excludes.

use fairsched_core::model::{ClusterInfo, Job, JobMeta, MachineId, OrgId, Time};
use fairsched_core::scheduler::{Scheduler, SelectContext};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    run: u64,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Calls summed into an aggregate span; 1 for a plain span.
    calls: u64,
    /// Time covered: the extent for a plain span, the summed call time for
    /// an aggregate one.
    busy_ns: u64,
}

/// The in-memory span store.
pub struct Tracer {
    /// An untraced pass hands the same code a tracer that records nothing.
    recording: bool,
    epoch: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            recording: true,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that runs every scope and records none.
    pub fn off() -> Tracer {
        Tracer { recording: false, ..Tracer::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next repetition: later spans carry a new run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Records a span named `name` around `f`, a child of whichever span
    /// is open.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.recording {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            run: self.run,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            calls: 1,
            busy_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        self.spans[id].busy_ns = end_ns - start_ns;
        out
    }

    /// Records `calls` calls that together took `busy_s`, as one aggregate
    /// child of the open span.
    pub fn aggregate(&mut self, name: &'static str, calls: u64, busy_s: f64) {
        let parent = self.open.last().copied();
        let (start_ns, end_ns) = match parent {
            Some(p) => (self.spans[p].start_ns, self.now_ns()),
            None => (self.now_ns(), self.now_ns()),
        };
        self.spans.push(Span {
            run: self.run,
            parent,
            name,
            start_ns,
            end_ns,
            calls,
            busy_ns: (busy_s.max(0.0) * 1e9) as u64,
        });
    }

    /// Seconds covered by all spans named `name` in repetition `run`.
    pub fn total_s(&self, run: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(|s| s.busy_ns as f64 / 1e9)
            .sum()
    }

    /// Calls recorded under `name` in repetition `run`.
    pub fn calls(&self, run: u64, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(|s| s.calls)
            .sum()
    }

    /// Self time per span name in repetition `run`: each span's covered
    /// time minus the time its direct children cover.
    pub fn self_times(&self, run: u64) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| s.busy_ns as i128).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.busy_ns as i128;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.run == run {
                *by_name.entry(s.name).or_insert(0.0) += ns.max(0) as f64 / 1e9;
            }
        }
        by_name
    }

    /// Writes the spans to `benchmark/out/trace-<workload>.jsonl`.
    pub fn write(&self, workload: &str) -> Result<(), String> {
        let path = crate::proc::repo_root()
            .join("benchmark/out")
            .join(format!("trace-{workload}.jsonl"));
        std::fs::write(&path, self.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// One JSON object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"calls\":{},\"busy_s\":{:.9}}}",
                s.run,
                s.name,
                s.start_ns as f64 / 1e9,
                s.end_ns as f64 / 1e9,
                s.calls,
                s.busy_ns as f64 / 1e9,
            );
        }
        out
    }
}

/// What one `Instant::now()` + `elapsed()` pair costs, in seconds: the
/// amount [`Timed`] adds to every call it times, subtracted again from its
/// totals.
pub fn timer_cost_s() -> f64 {
    const PAIRS: u32 = 200_000;
    let started = Instant::now();
    let mut sink = 0u128;
    for _ in 0..PAIRS {
        sink += std::hint::black_box(Instant::now()).elapsed().as_nanos();
    }
    std::hint::black_box(sink);
    started.elapsed().as_secs_f64() / f64::from(PAIRS)
}

/// A [`Scheduler`] decorator that times every call into the scheduler it
/// wraps: `select` on one clock, every event hook on another. It forwards
/// each call unchanged, so the schedule is the undecorated one.
pub struct Timed<'a> {
    inner: &'a mut dyn Scheduler,
    pub select_calls: u64,
    pub select_s: f64,
    pub hooks_calls: u64,
    pub hooks_s: f64,
}

impl<'a> Timed<'a> {
    pub fn new(inner: &'a mut dyn Scheduler) -> Timed<'a> {
        Timed { inner, select_calls: 0, select_s: 0.0, hooks_calls: 0, hooks_s: 0.0 }
    }

    fn hook<T>(&mut self, f: impl FnOnce(&mut dyn Scheduler) -> T) -> T {
        let started = Instant::now();
        let out = f(self.inner);
        self.hooks_s += started.elapsed().as_secs_f64();
        self.hooks_calls += 1;
        out
    }

    /// Records the two totals as aggregate spans under the open span, less
    /// the timer's own cost per call; that cost becomes a third aggregate,
    /// so the open span's self time does not carry it either.
    pub fn record(&self, tracer: &mut Tracer, timer_cost_s: f64) {
        let timer = |calls: u64| timer_cost_s * calls as f64;
        tracer.aggregate(
            "core.scheduler.select",
            self.select_calls,
            self.select_s - timer(self.select_calls),
        );
        tracer.aggregate(
            "core.scheduler.hooks",
            self.hooks_calls,
            self.hooks_s - timer(self.hooks_calls),
        );
        let calls = self.select_calls + self.hooks_calls;
        tracer.aggregate("trace.timer", calls, timer(calls));
    }
}

impl Scheduler for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn init(&mut self, info: &ClusterInfo) {
        self.hook(|s| s.init(info));
    }

    fn on_release(&mut self, t: Time, job: &JobMeta) {
        self.hook(|s| s.on_release(t, job));
    }

    fn on_start(&mut self, t: Time, job: &JobMeta, machine: MachineId) {
        self.hook(|s| s.on_start(t, job, machine));
    }

    fn on_complete(&mut self, t: Time, job: &JobMeta, machine: MachineId, start: Time) {
        self.hook(|s| s.on_complete(t, job, machine, start));
    }

    fn admits_jobs(&self) -> bool {
        self.inner.admits_jobs()
    }

    fn on_admit(&mut self, job: &Job) {
        self.hook(|s| s.on_admit(job));
    }

    fn select(&mut self, ctx: &SelectContext<'_>) -> OrgId {
        let started = Instant::now();
        let org = self.inner.select(ctx);
        self.select_s += started.elapsed().as_secs_f64();
        self.select_calls += 1;
        org
    }

    fn pick_machine(&mut self, ctx: &SelectContext<'_>, job: &JobMeta) -> Option<usize> {
        self.hook(|s| s.pick_machine(ctx, job))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_core::scheduler::{BuildContext, Registry};
    use fairsched_sim::{run_scheduler, SimOptions};
    use fairsched_workloads::{WorkloadContext, WorkloadRegistry};

    #[test]
    fn timed_scheduler_yields_the_undecorated_schedule() {
        let trace = WorkloadRegistry::shared()
            .build_str("fpt:k=4", &WorkloadContext { seed: 5 })
            .unwrap();
        let options = SimOptions { horizon: 2000, validate: true };
        for spec in ["ref", "rand:perms=15", "directcontr", "fairshare"] {
            let build = || {
                let ctx = BuildContext { trace: &trace, seed: 5 };
                Registry::shared().build_str(spec, &ctx).unwrap()
            };
            let plain = run_scheduler(&trace, build().as_mut(), options).unwrap();
            let mut inner = build();
            let mut timed = Timed::new(inner.as_mut());
            let traced = run_scheduler(&trace, &mut timed, options).unwrap();
            assert_eq!(plain.schedule, traced.schedule, "{spec}");
            assert_eq!(plain.psi, traced.psi, "{spec}");
            assert_eq!(timed.select_calls as usize, traced.started_jobs, "{spec}");
            assert!(timed.hooks_calls > timed.select_calls, "{spec}");
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tracer = Tracer::new();
        tracer.scope("root", |t| {
            let nap = || std::thread::sleep(std::time::Duration::from_millis(5));
            t.scope("child", |_| nap());
            nap();
            t.aggregate("calls", 10, 0.001);
        });
        let own = tracer.self_times(0);
        let total = tracer.total_s(0, "root");
        let children = tracer.total_s(0, "child") + 0.001;
        assert!((own["root"] - (total - children)).abs() < 1e-6);
        assert!(own["child"] >= 0.005);
        assert_eq!(tracer.to_jsonl().lines().count(), 3);
    }
}
