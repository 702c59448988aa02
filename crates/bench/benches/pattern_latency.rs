//! **E1 (micro) — per-tick cost of the Fig. 2 pattern orchestrators.**
//!
//! Experiment E1 (`moda_bench::experiments::e1`) measures wall-clock
//! latency with real threads; these benches isolate the *orchestration
//! overhead* of the stepped pattern engines themselves (what a site pays
//! per loop tick on top of its own Monitor/Analyze/Plan/Execute work) as
//! fleets grow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use moda_core::component::{Analyzer, Executor, Monitor, Plan, PlannedAction, Planner};
use moda_core::domain::Domain;
use moda_core::patterns::{
    CooldownCoordinator, Coordinated, FleetAnalyzer, FleetPlanner, MasterWorker, NoCoordination,
    Worker,
};
use moda_core::{Confidence, Knowledge, MapeLoop};
use moda_sim::SimTime;
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;

/// Minimal control domain: observe a shared scalar, act with a delta.
#[derive(Debug)]
struct Toy;
impl Domain for Toy {
    type Obs = f64;
    type Assessment = f64;
    type Action = f64;
    type Outcome = bool;
}

struct ReadCell(Rc<Cell<f64>>);
impl Monitor<Toy> for ReadCell {
    fn observe(&mut self, _now: SimTime) -> Option<f64> {
        Some(self.0.get())
    }
}
struct PassThrough;
impl Analyzer<Toy> for PassThrough {
    fn analyze(&mut self, _n: SimTime, o: &f64, _k: &Knowledge) -> f64 {
        *o
    }
}
struct Proportional;
impl Planner<Toy> for Proportional {
    fn plan(&mut self, _n: SimTime, v: &f64, _k: &Knowledge) -> Plan<f64> {
        Plan::single(PlannedAction::new(0.8 - v, "adjust", Confidence::new(0.9)))
    }
}
struct WriteCell(Rc<Cell<f64>>);
impl Executor<Toy> for WriteCell {
    fn execute(&mut self, _n: SimTime, delta: &f64) -> bool {
        self.0.set((self.0.get() + 0.1 * delta).clamp(0.0, 2.0));
        true
    }
}

fn coordinated_fleet(n: usize, coordinated: bool) -> (Coordinated<Toy>, Rc<Cell<f64>>) {
    let state = Rc::new(Cell::new(0.5));
    let peers = (0..n)
        .map(|i| {
            MapeLoop::new(
                format!("peer{i}"),
                Box::new(ReadCell(state.clone())),
                Box::new(PassThrough),
                Box::new(Proportional),
                Box::new(WriteCell(state.clone())),
            )
        })
        .collect();
    let coordinator: Box<dyn moda_core::patterns::Coordinator<Toy>> = if coordinated {
        Box::new(CooldownCoordinator::new(3))
    } else {
        Box::new(NoCoordination)
    };
    (Coordinated::new(peers, coordinator), state)
}

struct MeanOf;
impl FleetAnalyzer<Toy> for MeanOf {
    fn analyze(&mut self, _n: SimTime, obs: &[(usize, f64)], _k: &Knowledge) -> f64 {
        obs.iter().map(|(_, v)| v).sum::<f64>() / obs.len().max(1) as f64
    }
}
struct SplitPlan {
    n: usize,
}
impl FleetPlanner<Toy> for SplitPlan {
    fn plan(&mut self, _n: SimTime, v: &f64, _k: &Knowledge) -> Vec<(usize, PlannedAction<f64>)> {
        let delta = (0.8 - v) / self.n as f64;
        (0..self.n)
            .map(|i| (i, PlannedAction::new(delta, "adjust", Confidence::new(0.9))))
            .collect()
    }
}

fn master_worker_fleet(n: usize) -> (MasterWorker<Toy>, Rc<Cell<f64>>) {
    let state = Rc::new(Cell::new(0.5));
    let workers = (0..n)
        .map(|_| {
            Worker::new(
                Box::new(ReadCell(state.clone())),
                Box::new(WriteCell(state.clone())),
            )
        })
        .collect();
    (
        MasterWorker::new(
            "bench-mw",
            workers,
            Box::new(MeanOf),
            Box::new(SplitPlan { n }),
        ),
        state,
    )
}

fn bench_coordinated_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("pattern_tick_coordinated");
    for n in [1usize, 8, 64, 512] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("uncoordinated", n), &n, |b, &n| {
            let (mut fleet, _state) = coordinated_fleet(n, false);
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                black_box(fleet.tick(SimTime::from_secs(round)))
            });
        });
        g.bench_with_input(BenchmarkId::new("cooldown", n), &n, |b, &n| {
            let (mut fleet, _state) = coordinated_fleet(n, true);
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                black_box(fleet.tick(SimTime::from_secs(round)))
            });
        });
    }
    g.finish();
}

fn bench_master_worker_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("pattern_tick_master_worker");
    for n in [1usize, 8, 64, 512] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let (mut mw, _state) = master_worker_fleet(n);
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                black_box(mw.tick(SimTime::from_secs(round)))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_coordinated_tick, bench_master_worker_tick);
criterion_main!(benches);
