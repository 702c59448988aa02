//! **End-to-end loop and campaign costs.**
//!
//! Two numbers a site would ask before deploying the Scheduler loop:
//!
//! * what does one MAPE-K tick cost while a campaign is in flight
//!   (Monitor + Analyze + Plan + Execute over live telemetry), and
//! * how fast does the whole simulated campaign run (simulated-time to
//!   wall-time ratio of the reproduction itself).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use moda_bench::{run_sched_campaign, sched_loop, std_campaign, std_world, STD_JOBS, STD_TICK};
use moda_scheduler::ExtensionPolicy;
use moda_sim::{SimDuration, SimTime};
use moda_usecases::scheduler_case::{build_loop, SchedulerLoopConfig};
use std::hint::black_box;

/// Cost of one Scheduler-loop tick over a warm world with jobs in
/// flight. Setup (world build + warm-up) is excluded per iteration.
fn bench_loop_tick(c: &mut Criterion) {
    c.bench_function("scheduler_loop_tick_warm", |b| {
        b.iter_batched(
            || {
                let world = std_world(11, ExtensionPolicy::default());
                world
                    .borrow_mut()
                    .submit_campaign(std_campaign(11, 40, 0.3, 0.0));
                // Warm up: 30 simulated minutes gets jobs running and
                // markers flowing into telemetry.
                let warm = SimTime::from_secs(1800);
                world.borrow_mut().run_until(warm);
                let mut l = build_loop(world.clone(), SchedulerLoopConfig::default());
                // One priming tick so Knowledge and per-job state exist.
                l.tick(warm);
                (world, l, warm)
            },
            |(world, mut l, warm)| {
                let t = warm + STD_TICK;
                world.borrow_mut().run_until(t);
                black_box(l.tick(t));
            },
            BatchSize::LargeInput,
        )
    });
}

/// Whole-campaign wall cost, baseline vs loop-on — the overhead the
/// autonomy loop adds to the simulation is the in-situ analytics cost
/// §IV worries about.
fn bench_campaign(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign_e2e");
    g.sample_size(10);
    for (name, cfg) in [
        ("baseline_120_jobs", None),
        ("loop_on_120_jobs", Some(SchedulerLoopConfig::default())),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let jobs = std_campaign(7, STD_JOBS, 0.3, 0.0);
                let run = run_sched_campaign(
                    7,
                    jobs,
                    ExtensionPolicy::default(),
                    sched_loop(cfg.clone()),
                );
                black_box((run.stats(), run.errors()))
            })
        });
    }
    g.finish();
}

/// World event-loop throughput without any loop attached: how much
/// simulated time one wall-second buys (reporting sanity for every
/// experiment).
fn bench_world_advance(c: &mut Criterion) {
    c.bench_function("world_advance_1h", |b| {
        b.iter_batched(
            || {
                let world = std_world(13, ExtensionPolicy::default());
                world
                    .borrow_mut()
                    .submit_campaign(std_campaign(13, 40, 0.2, 0.0));
                world
            },
            |world| {
                world
                    .borrow_mut()
                    .run_until(SimTime::ZERO + SimDuration::from_hours(1));
                black_box(world.borrow().metrics.clone());
            },
            BatchSize::LargeInput,
        )
    });
}

criterion_group!(
    benches,
    bench_loop_tick,
    bench_campaign,
    bench_world_advance
);
criterion_main!(benches);
