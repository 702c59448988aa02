//! Fig. 2(d): hierarchical MAPE-K control.
//!
//! "In the hierarchical control pattern, decentralized MAPE loops are
//! organized in a hierarchy, with separation of concerns and time scales
//! and aiming to improve scalability without compromising stability;
//! however, division of control is not trivial" (§II).
//!
//! Children are ordinary [`MapeLoop`]s running at a fast cadence; the
//! parent is a [`Supervisor`] running at a slower cadence that observes
//! the children's accumulated iteration reports and may *reconfigure*
//! them (autonomy mode, confidence gate) — control over controllers, the
//! defining feature of the pattern.

use super::Cadence;
use crate::domain::Domain;
use crate::loop_engine::{LoopReport, MapeLoop};
use moda_sim::{SimDuration, SimTime};

/// What a supervision pass did.
#[derive(Debug, Clone, Default)]
pub struct SupervisorReport {
    /// Number of child reconfigurations applied.
    pub adjustments: usize,
    /// Human-readable summary.
    pub detail: String,
}

/// The parent controller: sees children and their recent activity,
/// reconfigures them.
pub trait Supervisor<D: Domain> {
    /// One supervision pass. `windows[i]` holds child `i`'s reports since
    /// the previous pass.
    fn supervise(
        &mut self,
        now: SimTime,
        children: &mut [MapeLoop<D>],
        windows: &[Vec<LoopReport>],
    ) -> SupervisorReport;
}

/// Built-in supervisor that damps oscillating children: if a child
/// executed actions in more than `max_activity` fraction of its recent
/// iterations, its confidence gate is tightened by `step`; calm children
/// are relaxed back toward `base_threshold`.
#[derive(Debug, Clone)]
pub struct OscillationDamper {
    /// Fraction of active iterations above which a child is "hot".
    pub max_activity: f64,
    /// Gate-threshold adjustment per pass.
    pub step: f64,
    /// The threshold calm children relax toward.
    pub base_threshold: f64,
}

impl Default for OscillationDamper {
    fn default() -> Self {
        OscillationDamper {
            max_activity: 0.5,
            step: 0.1,
            base_threshold: 0.5,
        }
    }
}

impl<D: Domain> Supervisor<D> for OscillationDamper {
    fn supervise(
        &mut self,
        _now: SimTime,
        children: &mut [MapeLoop<D>],
        windows: &[Vec<LoopReport>],
    ) -> SupervisorReport {
        let mut rep = SupervisorReport::default();
        for (child, window) in children.iter_mut().zip(windows) {
            if window.is_empty() {
                continue;
            }
            let active =
                window.iter().filter(|r| r.executed > 0).count() as f64 / window.len() as f64;
            let current = child.gate().threshold;
            let target = if active > self.max_activity {
                (current + self.step).min(1.0)
            } else {
                // Relax toward base.
                if current > self.base_threshold {
                    (current - self.step).max(self.base_threshold)
                } else {
                    current
                }
            };
            if (target - current).abs() > f64::EPSILON {
                child.set_gate(crate::confidence::ConfidenceGate::new(target));
                rep.adjustments += 1;
                rep.detail.push_str(&format!(
                    "{}: gate {:.2} -> {:.2} (activity {:.0}%); ",
                    child.name(),
                    current,
                    target,
                    active * 100.0
                ));
            }
        }
        rep
    }
}

/// The hierarchical orchestrator: fast children, slow parent.
pub struct Hierarchy<D: Domain> {
    children: Vec<MapeLoop<D>>,
    supervisor: Box<dyn Supervisor<D>>,
    child_cadence: Cadence,
    parent_cadence: Cadence,
    windows: Vec<Vec<LoopReport>>,
    supervision_passes: u64,
    total_adjustments: u64,
}

impl<D: Domain> Hierarchy<D> {
    /// Assemble: children tick every `child_period`, the supervisor every
    /// `parent_period` (typically an order of magnitude slower — the
    /// separation of time scales).
    pub fn new(
        children: Vec<MapeLoop<D>>,
        supervisor: Box<dyn Supervisor<D>>,
        child_period: SimDuration,
        parent_period: SimDuration,
    ) -> Self {
        let n = children.len();
        Hierarchy {
            children,
            supervisor,
            child_cadence: Cadence::new(child_period),
            parent_cadence: Cadence::new(parent_period),
            windows: vec![Vec::new(); n],
            supervision_passes: 0,
            total_adjustments: 0,
        }
    }

    /// Number of children.
    pub fn child_count(&self) -> usize {
        self.children.len()
    }

    /// Access a child loop.
    pub fn child(&self, idx: usize) -> &MapeLoop<D> {
        &self.children[idx]
    }

    /// Supervision passes completed.
    pub fn supervision_passes(&self) -> u64 {
        self.supervision_passes
    }

    /// Total child reconfigurations applied by the supervisor.
    pub fn total_adjustments(&self) -> u64 {
        self.total_adjustments
    }

    /// Advance to `now`: run all due child ticks and supervision passes
    /// in time order (children first at equal timestamps — data flows up).
    pub fn poll(&mut self, now: SimTime) -> LoopReport {
        let mut merged = LoopReport::default();
        loop {
            let next_child = self.child_cadence.next_due();
            let next_parent = self.parent_cadence.next_due();
            if next_child > now && next_parent > now {
                break;
            }
            if next_child <= next_parent {
                let t = self.child_cadence.advance(now).expect("due checked above");
                for (i, child) in self.children.iter_mut().enumerate() {
                    let r = child.tick(t);
                    merged.absorb(&r);
                    self.windows[i].push(r);
                }
            } else {
                let t = self.parent_cadence.advance(now).expect("due checked above");
                let rep = self
                    .supervisor
                    .supervise(t, &mut self.children, &self.windows);
                self.supervision_passes += 1;
                self.total_adjustments += rep.adjustments as u64;
                for w in &mut self.windows {
                    w.clear();
                }
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Analyzer, Executor, Monitor, Plan, PlannedAction, Planner};
    use crate::confidence::{Confidence, ConfidenceGate};
    use crate::domain::ScalarDomain;
    use crate::knowledge::Knowledge;

    struct ConstMonitor(f64);
    impl Monitor<ScalarDomain> for ConstMonitor {
        fn observe(&mut self, _now: SimTime) -> Option<f64> {
            Some(self.0)
        }
    }
    struct Id;
    impl Analyzer<ScalarDomain> for Id {
        fn analyze(&mut self, _n: SimTime, o: &f64, _k: &Knowledge) -> f64 {
            *o
        }
    }
    /// Always plans one action at fixed confidence — a maximally
    /// oscillation-prone child.
    struct Eager(f64);
    impl Planner<ScalarDomain> for Eager {
        fn plan(&mut self, _n: SimTime, a: &f64, _k: &Knowledge) -> Plan<f64> {
            Plan::single(PlannedAction::new(*a, "act", Confidence::new(self.0)))
        }
    }
    struct Sink;
    impl Executor<ScalarDomain> for Sink {
        fn execute(&mut self, _n: SimTime, _a: &f64) -> bool {
            true
        }
    }

    fn child(conf: f64, gate: f64) -> MapeLoop<ScalarDomain> {
        MapeLoop::new(
            format!("child-{conf}"),
            Box::new(ConstMonitor(1.0)),
            Box::new(Id),
            Box::new(Eager(conf)),
            Box::new(Sink),
        )
        .with_gate(ConfidenceGate::new(gate))
    }

    #[test]
    fn children_tick_fast_parent_slow() {
        let h_children = vec![child(0.9, 0.5), child(0.9, 0.5)];
        let mut h = Hierarchy::new(
            h_children,
            Box::new(OscillationDamper::default()),
            SimDuration::from_secs(1),
            SimDuration::from_secs(10),
        );
        let r = h.poll(SimTime::from_secs(5));
        // 6 child rounds (t = 0..=5) × 2 children; parent fired once at 0
        // (with empty windows — no adjustments).
        assert_eq!(r.executed, 12);
        assert_eq!(h.supervision_passes(), 1);
    }

    #[test]
    fn damper_tightens_hot_children() {
        // Child acts every round (confidence 0.9 vs gate 0.5) → activity
        // 100% → parent tightens the gate each pass until actions stop.
        let mut h = Hierarchy::new(
            vec![child(0.9, 0.5)],
            Box::new(OscillationDamper {
                max_activity: 0.5,
                step: 0.2,
                base_threshold: 0.5,
            }),
            SimDuration::from_secs(1),
            SimDuration::from_secs(5),
        );
        h.poll(SimTime::from_mins(1));
        assert!(h.total_adjustments() > 0);
        // The gate has been pushed above the starting 0.5 — the damper
        // reacted to the hot child.
        assert!(h.child(0).gate().threshold > 0.5);
        // Bang-bang damping: the child cannot stay always-on any more.
        // Over the next window its activity is strictly below 100%.
        let r = h.poll(SimTime::from_mins(2));
        let window_ticks = 60; // t = 61..=120 at 1 s cadence
        assert!(
            r.executed < window_ticks,
            "damper failed to reduce activity: {} executed",
            r.executed
        );
        assert!(r.blocked > 0);
    }

    #[test]
    fn damper_relaxes_calm_children() {
        // Child never clears its gate (conf 0.3 < 0.95) → calm → parent
        // relaxes the gate toward base 0.5, at which point the child is
        // still quiet (0.3 < 0.5) — stable rest state.
        let mut h = Hierarchy::new(
            vec![child(0.3, 0.95)],
            Box::new(OscillationDamper {
                max_activity: 0.5,
                step: 0.15,
                base_threshold: 0.5,
            }),
            SimDuration::from_secs(1),
            SimDuration::from_secs(5),
        );
        h.poll(SimTime::from_mins(2));
        let g = h.child(0).gate().threshold;
        assert!((g - 0.5).abs() < 1e-9, "gate relaxed to base, got {g}");
    }

    #[test]
    fn data_flows_up_at_equal_timestamps() {
        // Child and parent both due at t=0; children must run first so
        // the parent sees their reports.
        let mut h = Hierarchy::new(
            vec![child(0.9, 0.0)],
            Box::new(OscillationDamper {
                max_activity: 0.0, // any activity is "hot"
                step: 0.3,
                base_threshold: 0.0,
            }),
            SimDuration::from_secs(1),
            SimDuration::from_secs(1), // same cadence: child first, then parent
        );
        h.poll(SimTime::from_secs(3));
        // Parent saw non-empty windows and adjusted.
        assert!(h.total_adjustments() > 0);
    }
}
