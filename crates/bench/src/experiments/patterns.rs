//! E1/E2 — the Fig. 2 design-pattern trade-offs (§II).

use crate::table::{cell, f, Cell, Table};
use moda_core::component::{Analyzer, Executor, Monitor, Plan, PlannedAction, Planner};
use moda_core::domain::Domain;
use moda_core::patterns::{
    CooldownCoordinator, Coordinated, Coordinator, FleetAnalyzer, FleetPlanner, MasterWorker,
    MaxConcurrent, NoCoordination, Worker,
};
use moda_core::runtime::{
    run_classical, run_coordinated, run_hierarchical, run_master_worker, RoundStats, StageCosts,
};
use moda_core::{Confidence, Knowledge, LoopReport, MapeLoop};
use moda_sim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// **E1 — scalability**: threaded drivers of the four patterns over
/// growing fleets; per-iteration latency quantifies "the centralized
/// Plan … suffers from limited scalability" vs decentralized designs.
/// Stage costs are sleeps, so the table is wall-clock.
pub fn e1() -> Table {
    let costs = StageCosts {
        monitor_us: 20,
        analyze_us: 50,
        plan_us: 100,
        execute_us: 20,
    };
    let rounds = 100;
    let mut t = Table::new(
        "E1 — per-iteration loop latency by pattern and fleet size (µs, p50/p99)",
        &[
            "fleet",
            "classical",
            "master-worker",
            "coordinated",
            "hierarchical",
        ],
    );
    // The cell's number is the p50.
    let lat = |s: RoundStats| {
        cell(
            s.p50_latency_us,
            format!("{:.0}/{:.0}", s.p50_latency_us, s.p99_latency_us),
        )
    };
    for n in [1usize, 2, 4, 8, 16] {
        let cls = if n == 1 {
            lat(run_classical(rounds, costs))
        } else {
            "-".into()
        };
        let mw = run_master_worker(n, rounds, costs);
        let co = run_coordinated(n, rounds, costs);
        let hi = run_hierarchical(n, rounds, costs, 10);
        t.row(vec![n.into(), cls, lat(mw), lat(co), lat(hi)]);
    }
    t
}

// --- E2's shared toy domain: peers add/shed load on one resource ---

/// Shared-resource control domain: observation is total utilization,
/// action is a signed load delta.
#[derive(Debug)]
struct LoadDomain;
impl Domain for LoadDomain {
    type Obs = f64;
    type Assessment = f64;
    type Action = f64;
    type Outcome = bool;
}

struct SharedUtil(Rc<RefCell<f64>>);
impl Monitor<LoadDomain> for SharedUtil {
    fn observe(&mut self, _now: SimTime) -> Option<f64> {
        Some(*self.0.borrow())
    }
}
struct Identity;
impl Analyzer<LoadDomain> for Identity {
    fn analyze(&mut self, _n: SimTime, o: &f64, _k: &Knowledge) -> f64 {
        *o
    }
}
/// Bang-bang planner: everyone reacts to the same global signal — the
/// §II indirect-interaction hazard in its purest form.
struct BangBang {
    target: f64,
    step: f64,
}
impl Planner<LoadDomain> for BangBang {
    fn plan(&mut self, _n: SimTime, util: &f64, _k: &Knowledge) -> Plan<f64> {
        let delta = if *util < self.target {
            self.step
        } else {
            -self.step
        };
        Plan::single(PlannedAction::new(delta, "load", Confidence::new(0.9)))
    }
}
struct ApplyLoad(Rc<RefCell<f64>>);
impl Executor<LoadDomain> for ApplyLoad {
    fn execute(&mut self, _n: SimTime, delta: &f64) -> bool {
        let mut u = self.0.borrow_mut();
        *u = (*u + delta).clamp(0.0, 2.0);
        true
    }
}

fn build_fleet(
    n: usize,
    util: &Rc<RefCell<f64>>,
    coordinator: Box<dyn Coordinator<LoadDomain>>,
) -> Coordinated<LoadDomain> {
    let peers = (0..n)
        .map(|i| {
            MapeLoop::new(
                format!("peer{i}"),
                Box::new(SharedUtil(util.clone())),
                Box::new(Identity),
                Box::new(BangBang {
                    target: 0.8,
                    step: 0.1,
                }),
                Box::new(ApplyLoad(util.clone())),
            )
        })
        .collect();
    Coordinated::new(peers, coordinator)
}

/// Master-worker over the same toy: one shared analyzer/planner.
struct MeanUtil;
impl FleetAnalyzer<LoadDomain> for MeanUtil {
    fn analyze(&mut self, _n: SimTime, obs: &[(usize, f64)], _k: &Knowledge) -> f64 {
        obs.iter().map(|(_, v)| v).sum::<f64>() / obs.len() as f64
    }
}
struct CentralBangBang {
    n: usize,
}
impl FleetPlanner<LoadDomain> for CentralBangBang {
    fn plan(
        &mut self,
        _n: SimTime,
        util: &f64,
        _k: &Knowledge,
    ) -> Vec<(usize, PlannedAction<f64>)> {
        // Central view: correct the deficit once, split across workers.
        let delta = (0.8 - util) / self.n as f64;
        (0..self.n)
            .map(|i| (i, PlannedAction::new(delta, "load", Confidence::new(0.9))))
            .collect()
    }
}

/// Master-worker over 8 workers with the first `dead` of them down.
fn master_worker(dead: usize) -> MasterWorker<LoadDomain> {
    let util = Rc::new(RefCell::new(0.5));
    let workers = (0..8)
        .map(|_| {
            Worker::new(
                Box::new(SharedUtil(util.clone())),
                Box::new(ApplyLoad(util.clone())),
            )
        })
        .collect();
    let mut mw = MasterWorker::new(
        "mw",
        workers,
        Box::new(MeanUtil),
        Box::new(CentralBangBang { n: 8 }),
    );
    for k in 0..dead {
        mw.set_worker_alive(k, false);
    }
    mw
}

/// Rounds out of 50 in which anything was executed.
fn rounds_acted(mut tick: impl FnMut(SimTime) -> LoopReport) -> Cell {
    let acted = (0..50u64)
        .filter(|&round| tick(SimTime::from_secs(round)).executed > 0)
        .count();
    cell(acted as f64, format!("{acted}/50"))
}

/// **E2a — robustness**: stepped master–worker vs coordinated fleets
/// under component failure — kill the master's workers vs kill peers —
/// measuring how much of the fleet stays managed.
pub fn e2a() -> Table {
    let mut t = Table::new(
        "E2a — robustness under component failure (fraction of rounds with actuation)",
        &["pattern", "peers", "failures", "rounds acted", "note"],
    );
    for kill in [0usize, 2, 4] {
        // Coordinated: kill `kill` of 8 peers — the rest keep acting.
        let util = Rc::new(RefCell::new(0.5));
        let mut fleet = build_fleet(8, &util, Box::new(NoCoordination));
        for k in 0..kill {
            fleet.set_peer_alive(k, false);
        }
        t.row(vec![
            "coordinated".into(),
            "8".into(),
            format!("{kill} peers").into(),
            rounds_acted(|now| fleet.tick(now)),
            "survivors keep managing".into(),
        ]);
        // Master-worker: killing workers degrades coverage.
        let mut mw = master_worker(kill);
        t.row(vec![
            "master-worker".into(),
            "8".into(),
            format!("{kill} workers").into(),
            rounds_acted(|now| mw.tick(now)),
            "central plan targets dead workers too".into(),
        ]);
    }
    // Killing the master (all-at-once unavailability of A/P) halts
    // everything: modelled as every worker dead.
    let mut mw = master_worker(8);
    t.row(vec![
        "master-worker".into(),
        "8".into(),
        "master".into(),
        rounds_acted(|now| mw.tick(now)),
        "single point of failure (by construction)".into(),
    ]);
    t
}

/// **E2b — stability**: fully decentralized planners on a shared
/// resource with no coordination vs token and cooldown coordination,
/// measuring oscillation ("decentralized Plan policies may suffer from
/// instability … due to indirect interactions").
pub fn e2b() -> Table {
    let mut t = Table::new(
        "E2b — decentralized-Plan stability on a shared resource (target util 0.80)",
        &["coordination", "peers", "RMS error", "crossings/100 rounds"],
    );
    type CoordFactory = fn() -> Box<dyn Coordinator<LoadDomain>>;
    let factories: [(&str, CoordFactory); 3] = [
        ("none", || Box::new(NoCoordination)),
        ("max-concurrent(1)", || Box::new(MaxConcurrent(1))),
        ("cooldown(3)", || Box::new(CooldownCoordinator::new(3))),
    ];
    let target = 0.8;
    for (label, mk) in factories {
        for n in [2usize, 8] {
            let util = Rc::new(RefCell::new(0.5));
            let mut fleet = build_fleet(n, &util, mk());
            let mut trace = Vec::with_capacity(100);
            for round in 0..100u64 {
                fleet.tick(SimTime::from_secs(round));
                trace.push(*util.borrow());
            }
            let rms = (trace
                .iter()
                .map(|u| (u - target) * (u - target))
                .sum::<f64>()
                / trace.len() as f64)
                .sqrt();
            let crossings = (trace.windows(2))
                .filter(|w| (w[0] - target).signum() != (w[1] - target).signum())
                .count();
            t.row(vec![label.into(), n.into(), f(rms, 3), crossings.into()]);
        }
    }
    t
}
