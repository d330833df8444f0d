//! Utility-evaluation micro-benchmarks: the `ψ_sp` closed form, the O(1)
//! incremental tracker, and full-schedule vector evaluation — the hot path
//! of every contribution-based scheduler.

use criterion::{criterion_group, criterion_main, Criterion};
use fairsched_core::scheduler::FifoScheduler;
use fairsched_core::utility::{sp_value, sp_vector, SpTracker};
use fairsched_sim::{run_scheduler, SimOptions};
use fairsched_workloads::{generate, to_trace, MachineSplit, SynthConfig};
use std::hint::black_box;

fn bench_sp_value(c: &mut Criterion) {
    c.bench_function("sp_value_closed_form", |b| {
        b.iter(|| {
            let mut acc = 0i128;
            for s in 0..100u64 {
                acc += sp_value(black_box(s), black_box(s % 17 + 1), black_box(5_000));
            }
            black_box(acc)
        });
    });
}

fn bench_tracker(c: &mut Criterion) {
    c.bench_function("sp_tracker_start_complete_value", |b| {
        b.iter(|| {
            let mut tr = SpTracker::new();
            for i in 0..100u64 {
                tr.on_start(i);
                tr.on_complete(i, i + 5);
            }
            black_box(tr.value_at(1_000))
        });
    });

    c.bench_function("sp_tracker_value_with_many_running", |b| {
        let mut tr = SpTracker::new();
        for i in 0..512u64 {
            tr.on_start(i);
        }
        b.iter(|| black_box(tr.value_at(black_box(10_000))));
    });
}

fn bench_sp_vector(c: &mut Criterion) {
    let config = SynthConfig {
        n_users: 20,
        horizon: 50_000,
        n_machines: 32,
        load: 0.8,
        ..SynthConfig::default()
    };
    let jobs = generate(&config, 3);
    let trace = to_trace(&jobs, 5, 32, MachineSplit::Equal, 3).unwrap();
    let result = run_scheduler(
        &trace,
        &mut FifoScheduler::new(),
        SimOptions { horizon: 50_000, validate: false },
    )
    .expect("engine contract");
    c.bench_function("sp_vector_full_schedule", |b| {
        b.iter(|| black_box(sp_vector(&trace, &result.schedule, 50_000)));
    });
}

criterion_group!(benches, bench_sp_value, bench_tracker, bench_sp_vector);
criterion_main!(benches);
