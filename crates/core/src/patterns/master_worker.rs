//! Fig. 2(b): the master–worker MAPE-K pattern.
//!
//! "The first decentralizes only Monitor and Execute; the centralized
//! Plan can achieve global objectives and guarantees but suffers from
//! limited scalability, especially when managing a complex system" (§II).
//!
//! Each [`Worker`] pairs a Monitor and an Executor bound to one managed
//! system. The master holds the fleet-wide Analyzer and Planner plus the
//! single shared Knowledge, and dispatches planned actions back to the
//! worker that must execute them — each admitted through the same
//! gate → guard step a [`MapeLoop`](crate::loop_engine::MapeLoop) runs.

use crate::audit::{AuditKind, AuditLog};
use crate::component::{Executor, Monitor, PlannedAction};
use crate::confidence::ConfidenceGate;
use crate::domain::Domain;
use crate::guard::{BlockReason, Guard, GuardConfig};
use crate::knowledge::{Knowledge, OutcomeRecord};
use crate::loop_engine::{admit, LoopReport};
use moda_sim::SimTime;

/// Fleet-wide Analyze: sees every worker's observation at once, which is
/// what lets the centralized master pursue global objectives.
pub trait FleetAnalyzer<D: Domain> {
    /// Analyze the fleet snapshot `(worker index, observation)`.
    fn analyze(&mut self, now: SimTime, obs: &[(usize, D::Obs)], k: &Knowledge) -> D::Assessment;
}

/// Fleet-wide Plan: emits actions targeted at specific workers.
pub trait FleetPlanner<D: Domain> {
    /// Plan `(worker index, action)` pairs from the fleet assessment.
    fn plan(
        &mut self,
        now: SimTime,
        assessment: &D::Assessment,
        k: &Knowledge,
    ) -> Vec<(usize, PlannedAction<D::Action>)>;
}

/// One worker: decentralized Monitor + Execute for one managed system.
pub struct Worker<D: Domain> {
    /// Sensor side.
    pub monitor: Box<dyn Monitor<D>>,
    /// Actuator side.
    pub executor: Box<dyn Executor<D>>,
    /// Workers can fail (experiment E2 injects this); a down worker
    /// reports no observations and refuses actions.
    pub alive: bool,
}

impl<D: Domain> Worker<D> {
    /// A live worker from its two components.
    pub fn new(monitor: Box<dyn Monitor<D>>, executor: Box<dyn Executor<D>>) -> Self {
        Worker {
            monitor,
            executor,
            alive: true,
        }
    }
}

/// The master–worker orchestrator.
pub struct MasterWorker<D: Domain> {
    name: String,
    workers: Vec<Worker<D>>,
    analyzer: Box<dyn FleetAnalyzer<D>>,
    planner: Box<dyn FleetPlanner<D>>,
    knowledge: Knowledge,
    guard: Guard,
    gate: ConfidenceGate,
    audit: AuditLog,
    iterations: u64,
}

impl<D: Domain> MasterWorker<D> {
    /// Assemble the pattern.
    pub fn new(
        name: impl Into<String>,
        workers: Vec<Worker<D>>,
        analyzer: Box<dyn FleetAnalyzer<D>>,
        planner: Box<dyn FleetPlanner<D>>,
    ) -> Self {
        MasterWorker {
            name: name.into(),
            workers,
            analyzer,
            planner,
            knowledge: Knowledge::new(),
            guard: Guard::new(GuardConfig::unlimited()),
            gate: ConfidenceGate::new(0.0),
            audit: AuditLog::default(),
            iterations: 0,
        }
    }

    /// Install guardrails on the master's dispatch path.
    pub fn with_guard(mut self, config: GuardConfig) -> Self {
        self.guard = Guard::new(config);
        self
    }

    /// Install a confidence gate on the master's dispatch path.
    pub fn with_gate(mut self, gate: ConfidenceGate) -> Self {
        self.gate = gate;
        self
    }

    /// Seed shared Knowledge.
    pub fn with_knowledge(mut self, k: Knowledge) -> Self {
        self.knowledge = k;
        self
    }

    /// Number of workers (alive or not).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Mark a worker failed/recovered (failure injection for E2).
    pub fn set_worker_alive(&mut self, idx: usize, alive: bool) {
        self.workers[idx].alive = alive;
    }

    /// How many workers are currently alive.
    pub fn alive_count(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Shared Knowledge.
    pub fn knowledge(&self) -> &Knowledge {
        &self.knowledge
    }

    /// Audit trail.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Completed master iterations.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// One master iteration: gather every live worker's observation,
    /// analyze and plan centrally, dispatch actions to their workers.
    pub fn tick(&mut self, now: SimTime) -> LoopReport {
        let mut report = LoopReport::default();
        self.iterations += 1;

        // Decentralized M.
        let mut obs: Vec<(usize, D::Obs)> = Vec::with_capacity(self.workers.len());
        for (i, w) in self.workers.iter_mut().enumerate() {
            if !w.alive {
                continue;
            }
            if let Some(o) = w.monitor.observe(now) {
                obs.push((i, o));
            }
        }
        if obs.is_empty() {
            self.audit.record(now, AuditKind::NoData);
            return report;
        }
        report.observed = true;
        self.audit.record(now, AuditKind::Observed);

        // Centralized A + P.
        let assessment = self.analyzer.analyze(now, &obs, &self.knowledge);
        self.audit.record(now, AuditKind::Assessed);
        let actions = self.planner.plan(now, &assessment, &self.knowledge);
        report.planned = actions.len();
        if !actions.is_empty() {
            self.audit.record(
                now,
                AuditKind::Planned {
                    actions: actions.len(),
                },
            );
        }

        // Decentralized E.
        for (idx, pa) in actions {
            if idx >= self.workers.len() || !self.workers[idx].alive {
                report.blocked += 1;
                self.audit.record(
                    now,
                    AuditKind::Blocked {
                        confidence: pa.confidence.value(),
                        reason: Box::new(BlockReason::WorkerDown { worker: idx }),
                    },
                );
                continue;
            }
            if admit(self.gate, &mut self.guard, &mut self.audit, now, &pa).is_err() {
                report.blocked += 1;
                continue;
            }
            self.workers[idx].executor.execute(now, &pa.action);
            report.executed += 1;
            self.audit.record(
                now,
                AuditKind::Executed {
                    confidence: pa.confidence.value(),
                    rationale: pa.rationale,
                },
            );
            self.knowledge.record_outcome(OutcomeRecord {
                loop_name: self.name.clone(),
                t: now,
                kind: pa.kind,
                confidence: pa.confidence.value(),
                success: None,
                error: 0.0,
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::PlannedAction;
    use crate::confidence::Confidence;
    use crate::domain::ScalarDomain;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct ConstMonitor(f64);
    impl Monitor<ScalarDomain> for ConstMonitor {
        fn observe(&mut self, _now: SimTime) -> Option<f64> {
            Some(self.0)
        }
    }

    struct Recorder(Rc<RefCell<Vec<(usize, f64)>>>, usize);
    impl Executor<ScalarDomain> for Recorder {
        fn execute(&mut self, _n: SimTime, a: &f64) -> bool {
            self.0.borrow_mut().push((self.1, *a));
            true
        }
    }

    /// Fleet planner: tell every worker whose value exceeds the mean to
    /// rebalance (global objective needing the centralized view).
    struct RebalancePlanner {
        last_obs: Rc<RefCell<Vec<(usize, f64)>>>,
    }
    impl FleetPlanner<ScalarDomain> for RebalancePlanner {
        fn plan(
            &mut self,
            _n: SimTime,
            mean: &f64,
            _k: &Knowledge,
        ) -> Vec<(usize, PlannedAction<f64>)> {
            self.last_obs
                .borrow()
                .iter()
                .filter(|(_, v)| v > mean)
                .map(|&(i, v)| {
                    (
                        i,
                        PlannedAction::new(v - mean, "rebalance", Confidence::CERTAIN),
                    )
                })
                .collect()
        }
    }

    /// Analyzer capturing observations so the planner can see them
    /// (simulates an assessment carrying per-worker detail).
    struct CapturingAnalyzer {
        sink: Rc<RefCell<Vec<(usize, f64)>>>,
    }
    impl FleetAnalyzer<ScalarDomain> for CapturingAnalyzer {
        fn analyze(&mut self, _n: SimTime, obs: &[(usize, f64)], _k: &Knowledge) -> f64 {
            *self.sink.borrow_mut() = obs.to_vec();
            obs.iter().map(|(_, v)| v).sum::<f64>() / obs.len() as f64
        }
    }

    type FleetLog = Rc<RefCell<Vec<(usize, f64)>>>;

    fn fleet(values: &[f64]) -> (MasterWorker<ScalarDomain>, FleetLog) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let obs_sink = Rc::new(RefCell::new(Vec::new()));
        let workers = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                Worker::new(
                    Box::new(ConstMonitor(v)),
                    Box::new(Recorder(log.clone(), i)),
                )
            })
            .collect();
        let mw = MasterWorker::new(
            "mw",
            workers,
            Box::new(CapturingAnalyzer {
                sink: obs_sink.clone(),
            }),
            Box::new(RebalancePlanner { last_obs: obs_sink }),
        );
        (mw, log)
    }

    #[test]
    fn centralized_plan_targets_specific_workers() {
        let (mut mw, log) = fleet(&[1.0, 2.0, 9.0]);
        let r = mw.tick(SimTime::from_secs(1));
        assert!(r.observed);
        // mean = 4; only worker 2 exceeds it.
        assert_eq!(r.planned, 1);
        assert_eq!(r.executed, 1);
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(log.borrow()[0].0, 2);
        assert!((log.borrow()[0].1 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn dead_worker_is_excluded_from_monitoring_and_execution() {
        let (mut mw, log) = fleet(&[1.0, 2.0, 9.0]);
        mw.set_worker_alive(2, false);
        assert_eq!(mw.alive_count(), 2);
        let r = mw.tick(SimTime::from_secs(1));
        // mean of {1, 2} = 1.5 → worker 1 exceeds it.
        assert_eq!(r.executed, 1);
        assert_eq!(log.borrow()[0].0, 1);
    }

    #[test]
    fn all_workers_dead_yields_no_data() {
        let (mut mw, _log) = fleet(&[1.0, 2.0]);
        mw.set_worker_alive(0, false);
        mw.set_worker_alive(1, false);
        let r = mw.tick(SimTime::from_secs(1));
        assert!(!r.observed);
        assert_eq!(mw.audit().count(|k| *k == AuditKind::NoData), 1);
    }

    #[test]
    fn guard_applies_at_the_master() {
        let (mw, log) = fleet(&[1.0, 9.0]);
        let mut mw = mw.with_guard(GuardConfig::unlimited().with_max_count("rebalance", 1));
        mw.tick(SimTime::from_secs(1));
        let r = mw.tick(SimTime::from_secs(2));
        assert_eq!(r.blocked, 1);
        assert_eq!(log.borrow().len(), 1);
    }

    #[test]
    fn outcomes_land_in_shared_knowledge() {
        let (mut mw, _log) = fleet(&[1.0, 9.0]);
        mw.tick(SimTime::from_secs(1));
        assert_eq!(mw.knowledge().outcome_count(), 1);
        assert_eq!(mw.iterations(), 1);
        assert_eq!(mw.worker_count(), 2);
    }
}
