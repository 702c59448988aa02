//! The MAPE-K loop engine.
//!
//! A [`MapeLoop`] drives one Monitor → Analyze → Plan → Execute iteration
//! per [`MapeLoop::tick`], threading the shared [`Knowledge`] through
//! every phase and interposing the trust machinery between Plan and
//! Execute:
//!
//! 1. the [`ConfidenceGate`] refuses low-confidence actions (§IV),
//! 2. the [`Guard`] enforces action budgets (§III.iv),
//! 3. the [`AutonomyMode`] decides whether actions run immediately
//!    (autonomous), run with notification (human-on-the-loop), or wait
//!    out a human approval latency (human-in-the-loop) — the spectrum the
//!    paper discusses in §I and §IV.
//!
//! Ticks are explicit (no internal clock): the discrete-event world calls
//! `tick(now)` at the loop's cadence, which keeps loops composable with
//! the simulator and with each other (see [`crate::patterns`]). A tick
//! is two crate-private halves — `propose` (M → A → P) and `enact` (gate
//! → guard → mode → E → K) — so a pattern can arbitrate between them
//! without a second copy of either; steps 1–2 are the one admission step
//! every node-scale loop shares.
//!
//! Every phase lands in the loop's typed [`AuditLog`] — the ring the
//! fleet responder writes too. The phases that decide nothing
//! (`Observed`, `NoData`, `Assessed`, `Planned`, `Refined`) record no
//! text, so a tick formats nothing; a refusal records its
//! [`BlockReason`], and an executed action the planner's rationale,
//! moved, not copied.

use crate::audit::{AuditKind, AuditLog, Notification};
use crate::component::{Analyzer, Assessor, Executor, Monitor, NoopAssessor, Plan, PlannedAction};
use crate::confidence::ConfidenceGate;
use crate::domain::Domain;
use crate::guard::{BlockReason, Guard, GuardConfig};
use crate::knowledge::{Knowledge, OutcomeRecord};
use moda_sim::{SimDuration, SimTime};

/// How much human involvement gates the Execute phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AutonomyMode {
    /// Execute immediately; no humans involved.
    Autonomous,
    /// Execute immediately but notify humans with an explanation
    /// ("the loop continues without waiting ... but sending them
    /// notifications and explanation about decisions", §IV).
    HumanOnTheLoop,
    /// Queue every action until a human approves it; approval arrives
    /// after `latency` (models the paper's §I observation that a human in
    /// the loop "limits the speed of response").
    HumanInTheLoop {
        /// Time from planning to human approval.
        latency: SimDuration,
    },
}

/// What one `tick` did — the per-iteration report consumed by patterns,
/// experiments, and supervisors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoopReport {
    /// Monitor produced data this iteration.
    pub observed: bool,
    /// Number of actions the planner emitted.
    pub planned: usize,
    /// Actions executed this tick (including released queued ones).
    pub executed: usize,
    /// Actions blocked by guardrails or the confidence gate.
    pub blocked: usize,
    /// Actions queued awaiting human approval.
    pub queued: usize,
    /// Human notifications sent this tick.
    pub notified: usize,
}

impl LoopReport {
    /// Merge another report into this one (used by fleet patterns).
    pub fn absorb(&mut self, other: &LoopReport) {
        self.observed |= other.observed;
        self.planned += other.planned;
        self.executed += other.executed;
        self.blocked += other.blocked;
        self.queued += other.queued;
        self.notified += other.notified;
    }
}

struct QueuedAction<D: Domain> {
    release_at: SimTime,
    action: PlannedAction<D::Action>,
}

/// One MAPE-K autonomy loop.
pub struct MapeLoop<D: Domain> {
    name: String,
    monitor: Box<dyn Monitor<D>>,
    analyzer: Box<dyn Analyzer<D>>,
    planner: Box<dyn Planner<D>>,
    executor: Box<dyn Executor<D>>,
    assessor: Box<dyn Assessor<D>>,
    knowledge: Knowledge,
    guard: Guard,
    gate: ConfidenceGate,
    mode: AutonomyMode,
    audit: AuditLog,
    pending: Vec<QueuedAction<D>>,
    iterations: u64,
    last_assessment: Option<D::Assessment>,
}

// Planner is used through a Box; import it under a local alias to avoid
// clashing with the method name.
use crate::component::Planner;

impl<D: Domain> MapeLoop<D> {
    /// Assemble a loop from its four phase components.
    pub fn new(
        name: impl Into<String>,
        monitor: Box<dyn Monitor<D>>,
        analyzer: Box<dyn Analyzer<D>>,
        planner: Box<dyn Planner<D>>,
        executor: Box<dyn Executor<D>>,
    ) -> Self {
        MapeLoop {
            name: name.into(),
            monitor,
            analyzer,
            planner,
            executor,
            assessor: Box::new(NoopAssessor),
            knowledge: Knowledge::new(),
            guard: Guard::new(GuardConfig::unlimited()),
            gate: ConfidenceGate::new(0.0),
            mode: AutonomyMode::Autonomous,
            audit: AuditLog::default(),
            pending: Vec::new(),
            iterations: 0,
            last_assessment: None,
        }
    }

    /// Replace the Knowledge-refinement component.
    pub fn with_assessor(mut self, assessor: Box<dyn Assessor<D>>) -> Self {
        self.assessor = assessor;
        self
    }

    /// Install guardrails.
    pub fn with_guard(mut self, config: GuardConfig) -> Self {
        self.guard = Guard::new(config);
        self
    }

    /// Install a confidence gate.
    pub fn with_gate(mut self, gate: ConfidenceGate) -> Self {
        self.gate = gate;
        self
    }

    /// Set the autonomy mode.
    pub fn with_mode(mut self, mode: AutonomyMode) -> Self {
        self.mode = mode;
        self
    }

    /// Seed the loop with pre-existing Knowledge (e.g. historical runs).
    pub fn with_knowledge(mut self, k: Knowledge) -> Self {
        self.knowledge = k;
        self
    }

    /// Loop name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shared Knowledge (read).
    pub fn knowledge(&self) -> &Knowledge {
        &self.knowledge
    }

    /// Shared Knowledge (write) — for harnesses that feed external facts.
    pub fn knowledge_mut(&mut self) -> &mut Knowledge {
        &mut self.knowledge
    }

    /// Audit trail.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Guard state (budget accounting).
    pub fn guard(&self) -> &Guard {
        &self.guard
    }

    /// Completed iterations.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Most recent assessment, if any iteration produced one.
    pub fn last_assessment(&self) -> Option<&D::Assessment> {
        self.last_assessment.as_ref()
    }

    /// Actions currently queued for human approval.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Current autonomy mode.
    pub fn mode(&self) -> AutonomyMode {
        self.mode
    }

    /// Switch autonomy mode at runtime (a supervisor action in the
    /// hierarchical pattern).
    pub fn set_mode(&mut self, mode: AutonomyMode) {
        self.mode = mode;
    }

    /// Current confidence gate.
    pub fn gate(&self) -> ConfidenceGate {
        self.gate
    }

    /// Replace the confidence gate at runtime (a supervisor action in the
    /// hierarchical pattern: tighten or relax a child's autonomy).
    pub fn set_gate(&mut self, gate: ConfidenceGate) {
        self.gate = gate;
    }

    /// Run one M→A→P→E iteration at simulated time `now`.
    pub fn tick(&mut self, now: SimTime) -> LoopReport {
        let mut report = LoopReport::default();
        let plan = self.propose(now, &mut report);
        self.enact(now, plan, &mut report);
        report
    }

    /// First half of an iteration: release matured human approvals, then
    /// M → A → P. Returns the plan (empty when the Monitor had no data);
    /// the patterns arbitrate between the two halves.
    pub(crate) fn propose(&mut self, now: SimTime, report: &mut LoopReport) -> Plan<D::Action> {
        self.iterations += 1;

        // Release matured human-approved actions first: approvals arrive
        // independent of whether new data is available.
        let matured: Vec<QueuedAction<D>> = {
            let mut released = Vec::new();
            let mut i = 0;
            while i < self.pending.len() {
                if self.pending[i].release_at <= now {
                    released.push(self.pending.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            released
        };
        for q in matured {
            self.audit.record(
                now,
                AuditKind::Approved {
                    confidence: q.action.confidence.value(),
                },
            );
            self.run_action(now, q.action, report);
        }

        // M — first harvest durable history (completed-entity records)
        // into Knowledge, then observe the current state.
        self.monitor.ingest(now, &mut self.knowledge);
        let Some(obs) = self.monitor.observe(now) else {
            self.audit.record(now, AuditKind::NoData);
            return Plan::none();
        };
        report.observed = true;
        self.audit.record(now, AuditKind::Observed);

        // A
        let assessment = self.analyzer.analyze(now, &obs, &self.knowledge);
        self.audit.record(now, AuditKind::Assessed);
        self.last_assessment = Some(assessment.clone());

        // P
        let plan = self.planner.plan(now, &assessment, &self.knowledge);
        if !plan.is_empty() {
            self.audit.record(
                now,
                AuditKind::Planned {
                    actions: plan.actions.len(),
                },
            );
        }
        report.planned += plan.actions.len();
        plan
    }

    /// Second half of an iteration: each action through [`admit`], then
    /// the autonomy mode, E and K.
    pub(crate) fn enact(&mut self, now: SimTime, plan: Plan<D::Action>, report: &mut LoopReport) {
        for pa in plan.actions {
            if let Err(reason) = admit(self.gate, &mut self.guard, &mut self.audit, now, &pa) {
                report.blocked += 1;
                if matches!(reason, BlockReason::LowConfidence { .. })
                    && self.mode == AutonomyMode::HumanOnTheLoop
                {
                    // Escalate what the loop would have done and why it
                    // did not dare to.
                    let n = Notification {
                        t: now,
                        subject: format!("low-confidence action withheld ({})", pa.kind),
                        explanation: pa.rationale,
                        proceeded: false,
                    };
                    self.audit.record(now, AuditKind::Notified(Box::new(n)));
                    report.notified += 1;
                }
                continue;
            }
            match self.mode {
                AutonomyMode::Autonomous => {
                    self.run_action(now, pa, report);
                }
                AutonomyMode::HumanOnTheLoop => {
                    let n = Notification {
                        t: now,
                        subject: format!("executing {} action", pa.kind),
                        explanation: pa.rationale.clone(),
                        proceeded: true,
                    };
                    self.audit.record(now, AuditKind::Notified(Box::new(n)));
                    report.notified += 1;
                    self.run_action(now, pa, report);
                }
                AutonomyMode::HumanInTheLoop { latency } => {
                    self.audit.record(
                        now,
                        AuditKind::Queued {
                            confidence: pa.confidence.value(),
                            rationale: pa.rationale.clone(),
                        },
                    );
                    self.pending.push(QueuedAction {
                        release_at: now + latency,
                        action: pa,
                    });
                    report.queued += 1;
                }
            }
        }
    }

    /// Refuse a proposed plan from outside the loop (a coordinator's
    /// veto): each of its actions counts as blocked and lands in this
    /// loop's own trail.
    pub(crate) fn veto(&mut self, now: SimTime, plan: &Plan<D::Action>, report: &mut LoopReport) {
        report.blocked += plan.actions.len();
        for pa in &plan.actions {
            self.audit.record(
                now,
                AuditKind::Blocked {
                    confidence: pa.confidence.value(),
                    reason: Box::new(BlockReason::Vetoed),
                },
            );
        }
    }

    fn run_action(&mut self, now: SimTime, pa: PlannedAction<D::Action>, report: &mut LoopReport) {
        let outcome = self.executor.execute(now, &pa.action);
        report.executed += 1;
        self.knowledge.record_outcome(OutcomeRecord {
            loop_name: self.name.clone(),
            t: now,
            kind: pa.kind.clone(),
            confidence: pa.confidence.value(),
            success: None,
            error: 0.0,
        });
        self.assessor
            .assess(now, &pa, &outcome, &mut self.knowledge);
        self.audit.record(
            now,
            AuditKind::Executed {
                confidence: pa.confidence.value(),
                rationale: pa.rationale,
            },
        );
        self.audit.record(now, AuditKind::Refined);
    }
}

/// Gate, then guard: the one admission step every node-scale loop runs
/// between Plan and Execute — [`MapeLoop`] and the master of
/// [`crate::patterns::MasterWorker`] alike. The verdict is
/// [`Guard::judge`]'s; a refusal is audited as `Blocked` with its
/// [`BlockReason`] and returned.
pub(crate) fn admit<A>(
    gate: ConfidenceGate,
    guard: &mut Guard,
    audit: &mut AuditLog,
    now: SimTime,
    pa: &PlannedAction<A>,
) -> Result<(), BlockReason> {
    let verdict = guard.admit_judged(gate, pa.confidence, now, &pa.kind, pa.magnitude);
    if let Err(reason) = &verdict {
        audit.record(
            now,
            AuditKind::Blocked {
                confidence: pa.confidence.value(),
                reason: Box::new(reason.clone()),
            },
        );
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::Confidence;
    use crate::domain::ScalarDomain;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Monitor yielding a fixed sequence, then None.
    struct SeqMonitor {
        values: Vec<Option<f64>>,
        i: usize,
    }
    impl Monitor<ScalarDomain> for SeqMonitor {
        fn observe(&mut self, _now: SimTime) -> Option<f64> {
            let v = self.values.get(self.i).copied().flatten();
            self.i += 1;
            v
        }
    }

    /// Analyzer that doubles the observation.
    struct Doubler;
    impl Analyzer<ScalarDomain> for Doubler {
        fn analyze(&mut self, _now: SimTime, obs: &f64, _k: &Knowledge) -> f64 {
            obs * 2.0
        }
    }

    /// Planner acting when the assessment exceeds a threshold.
    struct ThresholdPlanner {
        threshold: f64,
        confidence: f64,
    }
    impl Planner<ScalarDomain> for ThresholdPlanner {
        fn plan(&mut self, _now: SimTime, a: &f64, _k: &Knowledge) -> Plan<f64> {
            if *a > self.threshold {
                Plan::single(
                    PlannedAction::new(*a, "adjust", Confidence::new(self.confidence))
                        .with_magnitude(*a)
                        .with_rationale(format!("assessment {a} above {}", self.threshold)),
                )
            } else {
                Plan::none()
            }
        }
    }

    /// Executor recording everything it was asked to do.
    struct Recorder {
        log: Rc<RefCell<Vec<(u64, f64)>>>,
    }
    impl Executor<ScalarDomain> for Recorder {
        fn execute(&mut self, now: SimTime, action: &f64) -> bool {
            self.log.borrow_mut().push((now.as_millis(), *action));
            true
        }
    }

    type ExecLog = Rc<RefCell<Vec<(u64, f64)>>>;

    fn build_loop(
        values: Vec<Option<f64>>,
        threshold: f64,
        confidence: f64,
    ) -> (MapeLoop<ScalarDomain>, ExecLog) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = MapeLoop::new(
            "test",
            Box::new(SeqMonitor { values, i: 0 }),
            Box::new(Doubler),
            Box::new(ThresholdPlanner {
                threshold,
                confidence,
            }),
            Box::new(Recorder { log: log.clone() }),
        );
        (l, log)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn full_iteration_executes_action() {
        let (mut l, log) = build_loop(vec![Some(10.0)], 5.0, 1.0);
        let r = l.tick(t(1));
        assert!(r.observed);
        assert_eq!(r.planned, 1);
        assert_eq!(r.executed, 1);
        assert_eq!(r.blocked, 0);
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(log.borrow()[0], (1000, 20.0));
        // Outcome recorded in knowledge.
        assert_eq!(l.knowledge().outcome_count(), 1);
        assert_eq!(l.iterations(), 1);
        assert_eq!(l.last_assessment().copied(), Some(20.0));
    }

    #[test]
    fn the_trail_is_typed_and_executed_carries_the_rationale() {
        let (mut l, _log) = build_loop(vec![Some(10.0)], 5.0, 1.0);
        l.tick(t(1));
        let kinds: Vec<AuditKind> = l.audit().events().map(|e| e.decision.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                AuditKind::Observed,
                AuditKind::Assessed,
                AuditKind::Planned { actions: 1 },
                AuditKind::Executed {
                    confidence: 1.0,
                    rationale: "assessment 20 above 5".into(),
                },
                AuditKind::Refined,
            ]
        );
        let seqs: Vec<u64> = l.audit().events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn no_data_skips_iteration() {
        let (mut l, log) = build_loop(vec![None, Some(10.0)], 5.0, 1.0);
        let r = l.tick(t(1));
        assert!(!r.observed);
        assert_eq!(r.executed, 0);
        assert!(log.borrow().is_empty());
        assert_eq!(l.audit().count(|k| *k == AuditKind::NoData), 1);
        let r2 = l.tick(t(2));
        assert!(r2.observed);
        assert_eq!(r2.executed, 1);
    }

    #[test]
    fn quiet_assessment_plans_nothing() {
        let (mut l, log) = build_loop(vec![Some(1.0)], 5.0, 1.0);
        let r = l.tick(t(1));
        assert!(r.observed);
        assert_eq!(r.planned, 0);
        assert_eq!(r.executed, 0);
        assert!(log.borrow().is_empty());
    }

    #[test]
    fn confidence_gate_blocks_low_confidence() {
        let (l, log) = build_loop(vec![Some(10.0)], 5.0, 0.3);
        let mut l = l.with_gate(ConfidenceGate::new(0.5));
        let r = l.tick(t(1));
        assert_eq!(r.blocked, 1);
        assert_eq!(r.executed, 0);
        assert!(log.borrow().is_empty());
        assert_eq!(
            l.audit().count(|k| matches!(k, AuditKind::Blocked { .. })),
            1
        );
    }

    #[test]
    fn guard_budget_blocks_after_exhaustion() {
        let (l, log) = build_loop(vec![Some(10.0), Some(10.0), Some(10.0)], 5.0, 1.0);
        let mut l = l.with_guard(GuardConfig::unlimited().with_max_count("adjust", 2));
        l.tick(t(1));
        l.tick(t(2));
        let r = l.tick(t(3));
        assert_eq!(r.blocked, 1);
        assert_eq!(log.borrow().len(), 2);
        assert_eq!(l.guard().blocked_count(), 1);
    }

    #[test]
    fn human_on_the_loop_notifies_and_proceeds() {
        let (l, log) = build_loop(vec![Some(10.0)], 5.0, 1.0);
        let mut l = l.with_mode(AutonomyMode::HumanOnTheLoop);
        let r = l.tick(t(1));
        assert_eq!(r.executed, 1);
        assert_eq!(r.notified, 1);
        assert_eq!(log.borrow().len(), 1);
        let n = &l.audit().notifications()[0];
        assert!(n.proceeded);
        assert!(n.explanation.contains("assessment"));
        assert_eq!(n.subject, "executing adjust action");
    }

    #[test]
    fn human_on_the_loop_escalates_withheld_actions() {
        let (l, _log) = build_loop(vec![Some(10.0)], 5.0, 0.2);
        let mut l = l
            .with_mode(AutonomyMode::HumanOnTheLoop)
            .with_gate(ConfidenceGate::new(0.9));
        let r = l.tick(t(1));
        assert_eq!(r.blocked, 1);
        assert_eq!(r.notified, 1);
        assert!(!l.audit().notifications()[0].proceeded);
    }

    #[test]
    fn human_in_the_loop_delays_execution() {
        let (l, log) = build_loop(vec![Some(10.0), None, None], 5.0, 1.0);
        let mut l = l.with_mode(AutonomyMode::HumanInTheLoop {
            latency: SimDuration::from_secs(30),
        });
        let r = l.tick(t(0));
        assert_eq!(r.queued, 1);
        assert_eq!(r.executed, 0);
        assert_eq!(l.pending_count(), 1);
        // Not matured yet.
        let r2 = l.tick(t(10));
        assert_eq!(r2.executed, 0);
        // Matured: released even though the monitor has no new data.
        let r3 = l.tick(t(30));
        assert_eq!(r3.executed, 1);
        assert_eq!(l.pending_count(), 0);
        assert_eq!(log.borrow()[0].0, 30_000);
        assert_eq!(
            l.audit().count(|k| matches!(k, AuditKind::Approved { .. })),
            1
        );
    }

    #[test]
    fn mode_can_change_at_runtime() {
        let (l, _log) = build_loop(vec![Some(10.0), Some(10.0)], 5.0, 1.0);
        let mut l = l.with_mode(AutonomyMode::HumanInTheLoop {
            latency: SimDuration::from_hours(1),
        });
        l.tick(t(0));
        assert_eq!(l.pending_count(), 1);
        l.set_mode(AutonomyMode::Autonomous);
        assert_eq!(l.mode(), AutonomyMode::Autonomous);
        let r = l.tick(t(1));
        // New action executes immediately; old queued action still waits.
        assert_eq!(r.executed, 1);
        assert_eq!(l.pending_count(), 1);
    }

    #[test]
    fn report_absorb_accumulates() {
        let mut a = LoopReport {
            observed: false,
            planned: 1,
            executed: 1,
            blocked: 0,
            queued: 0,
            notified: 0,
        };
        let b = LoopReport {
            observed: true,
            planned: 2,
            executed: 0,
            blocked: 2,
            queued: 1,
            notified: 1,
        };
        a.absorb(&b);
        assert!(a.observed);
        assert_eq!(a.planned, 3);
        assert_eq!(a.blocked, 2);
        assert_eq!(a.queued, 1);
    }

    #[test]
    fn knowledge_seeding_visible_to_planner() {
        struct KPlanner;
        impl Planner<ScalarDomain> for KPlanner {
            fn plan(&mut self, _now: SimTime, _a: &f64, k: &Knowledge) -> Plan<f64> {
                if k.fact("go").unwrap_or(0.0) > 0.0 {
                    Plan::single(PlannedAction::new(1.0, "go", Confidence::CERTAIN))
                } else {
                    Plan::none()
                }
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut k = Knowledge::new();
        k.set_fact("go", 1.0);
        let mut l = MapeLoop::new(
            "k",
            Box::new(SeqMonitor {
                values: vec![Some(1.0)],
                i: 0,
            }),
            Box::new(Doubler),
            Box::new(KPlanner),
            Box::new(Recorder { log: log.clone() }),
        )
        .with_knowledge(k);
        let r = l.tick(t(1));
        assert_eq!(r.executed, 1);
    }
}
