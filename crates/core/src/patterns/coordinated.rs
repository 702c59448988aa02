//! Fig. 2(c): fully decentralized, coordinated MAPE-K loops.
//!
//! "The coordinated control pattern relies on fully decentralized MAPE
//! loops that control different parts of the managed system and have the
//! potential of good scalability and robustness, but decentralized Plan
//! policies may suffer from instability and side-effects due to indirect
//! interactions" (§II).
//!
//! Every peer is an ordinary [`MapeLoop`]: all four phases, its own
//! Knowledge, gate, guard, autonomy mode and audit trail. The pattern adds
//! only arbitration: each round every live peer proposes (M → A → P), a
//! [`Coordinator`] sees all the intents and may veto some of them —
//! protocols from "none" (the instability baseline of experiment E2)
//! through token-limited concurrency to per-peer cooldowns — and the
//! allowed peers enact their plans (gate → guard → mode → E → K) in the
//! coordinator's order. A veto lands as `Blocked` in the vetoed peer's
//! own trail, beside its gate and guard refusals.

use crate::component::Plan;
use crate::domain::Domain;
use crate::loop_engine::{LoopReport, MapeLoop};
use moda_sim::SimTime;

/// Round-level coordination: sees every peer's intended plan, returns
/// for each peer whether it may proceed this round.
pub trait Coordinator<D: Domain> {
    /// `intents[i]` is `(peer index, plan)` for peers that want to act.
    /// Returns the indices (into `intents`) that are *allowed*, in the
    /// order they are to run; a repeated index runs once and one past the
    /// end is ignored.
    fn coordinate(&mut self, now: SimTime, intents: &[(usize, &Plan<D::Action>)]) -> Vec<usize>;
}

/// No coordination: everyone acts — the §II instability baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoCoordination;

impl<D: Domain> Coordinator<D> for NoCoordination {
    fn coordinate(&mut self, _now: SimTime, intents: &[(usize, &Plan<D::Action>)]) -> Vec<usize> {
        (0..intents.len()).collect()
    }
}

/// Token coordination: at most `k` peers may act per round; ties are
/// broken by the highest single-action confidence in the peer's plan.
#[derive(Debug, Clone, Copy)]
pub struct MaxConcurrent(pub usize);

impl<D: Domain> Coordinator<D> for MaxConcurrent {
    fn coordinate(&mut self, _now: SimTime, intents: &[(usize, &Plan<D::Action>)]) -> Vec<usize> {
        let mut scored: Vec<(usize, f64)> = intents
            .iter()
            .enumerate()
            .map(|(slot, (_, plan))| {
                let best = plan
                    .actions
                    .iter()
                    .map(|a| a.confidence.value())
                    .fold(0.0, f64::max);
                (slot, best)
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored
            .into_iter()
            .take(self.0)
            .map(|(slot, _)| slot)
            .collect()
    }
}

/// Cooldown coordination: a peer that acted within the last `rounds`
/// rounds must stay quiet — a generic anti-oscillation damper.
#[derive(Debug, Clone)]
pub struct CooldownCoordinator {
    /// Quiet rounds required after acting.
    pub rounds: u64,
    /// Round each peer last acted in, indexed by peer; grown as peers
    /// show up in the intents.
    last_acted: Vec<Option<u64>>,
    round: u64,
}

impl CooldownCoordinator {
    /// Damper with the given cooldown in rounds, over any number of peers.
    pub fn new(rounds: u64) -> Self {
        CooldownCoordinator {
            rounds,
            last_acted: Vec::new(),
            round: 0,
        }
    }
}

impl<D: Domain> Coordinator<D> for CooldownCoordinator {
    fn coordinate(&mut self, _now: SimTime, intents: &[(usize, &Plan<D::Action>)]) -> Vec<usize> {
        self.round += 1;
        let round = self.round;
        let mut allowed = Vec::new();
        for (slot, &(peer, _)) in intents.iter().enumerate() {
            if peer >= self.last_acted.len() {
                self.last_acted.resize(peer + 1, None);
            }
            let last = &mut self.last_acted[peer];
            if last.is_none_or(|l| round - l > self.rounds) {
                *last = Some(round);
                allowed.push(slot);
            }
        }
        allowed
    }
}

/// The decentralized-coordinated orchestrator.
pub struct Coordinated<D: Domain> {
    peers: Vec<MapeLoop<D>>,
    /// Failure-injection flags, one per peer (experiment E2).
    alive: Vec<bool>,
    coordinator: Box<dyn Coordinator<D>>,
    rounds: u64,
    vetoed: u64,
}

impl<D: Domain> Coordinated<D> {
    /// Assemble the pattern from peer loops and a coordinator.
    pub fn new(peers: Vec<MapeLoop<D>>, coordinator: Box<dyn Coordinator<D>>) -> Self {
        Coordinated {
            alive: vec![true; peers.len()],
            peers,
            coordinator,
            rounds: 0,
            vetoed: 0,
        }
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Access a peer loop (its private Knowledge, its audit trail).
    pub fn peer(&self, idx: usize) -> &MapeLoop<D> {
        &self.peers[idx]
    }

    /// Failure injection: a dead peer neither proposes nor enacts.
    pub fn set_peer_alive(&mut self, idx: usize, alive: bool) {
        self.alive[idx] = alive;
    }

    /// Completed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Intents vetoed by coordination so far.
    pub fn vetoed(&self) -> u64 {
        self.vetoed
    }

    /// One round: every live peer proposes independently; the
    /// coordinator arbitrates; allowed peers enact, vetoed ones record it.
    pub fn tick(&mut self, now: SimTime) -> LoopReport {
        let mut report = LoopReport::default();
        self.rounds += 1;

        // Decentralized M, A, P.
        let mut intents: Vec<(usize, Plan<D::Action>)> = Vec::new();
        for (i, peer) in self.peers.iter_mut().enumerate() {
            if self.alive[i] {
                let plan = peer.propose(now, &mut report);
                if !plan.is_empty() {
                    intents.push((i, plan));
                }
            }
        }
        if intents.is_empty() {
            return report;
        }

        // Coordination.
        let intent_refs: Vec<(usize, &Plan<D::Action>)> =
            intents.iter().map(|(i, p)| (*i, p)).collect();
        let allowed_slots = self.coordinator.coordinate(now, &intent_refs);

        // Decentralized E in the coordinator's order: each intent is taken
        // at most once, and exactly the ones left untaken were vetoed.
        let mut slots: Vec<Option<(usize, Plan<D::Action>)>> =
            intents.into_iter().map(Some).collect();
        for slot in allowed_slots {
            if let Some((i, plan)) = slots.get_mut(slot).and_then(Option::take) {
                self.peers[i].enact(now, plan, &mut report);
            }
        }
        for (i, plan) in slots.into_iter().flatten() {
            self.vetoed += 1;
            self.peers[i].veto(now, &plan, &mut report);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditKind;
    use crate::component::{Analyzer, Executor, Monitor, PlannedAction, Planner};
    use crate::confidence::{Confidence, ConfidenceGate};
    use crate::domain::ScalarDomain;
    use crate::guard::{BlockReason, GuardConfig};
    use crate::knowledge::Knowledge;
    use crate::loop_engine::AutonomyMode;
    use moda_sim::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Observes 1.0, except every third second — the NoData path.
    struct Gappy;
    impl Monitor<ScalarDomain> for Gappy {
        fn observe(&mut self, now: SimTime) -> Option<f64> {
            (!now.as_millis().is_multiple_of(3000)).then_some(1.0)
        }
    }
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
    struct ActWithConf(f64);
    impl Planner<ScalarDomain> for ActWithConf {
        fn plan(&mut self, _n: SimTime, a: &f64, _k: &Knowledge) -> Plan<f64> {
            Plan::single(
                PlannedAction::new(*a, "act", Confidence::new(self.0)).with_rationale("act"),
            )
        }
    }
    /// `(peer index, milliseconds)` of every execution.
    type ExecLog = Rc<RefCell<Vec<(usize, u64)>>>;
    struct Recorder(ExecLog, usize);
    impl Executor<ScalarDomain> for Recorder {
        fn execute(&mut self, n: SimTime, _a: &f64) -> bool {
            self.0.borrow_mut().push((self.1, n.as_millis()));
            true
        }
    }
    /// Allows the same slots whatever the intents are.
    struct Fixed(Vec<usize>);
    impl Coordinator<ScalarDomain> for Fixed {
        fn coordinate(&mut self, _n: SimTime, _i: &[(usize, &Plan<f64>)]) -> Vec<usize> {
            self.0.clone()
        }
    }

    fn peer(i: usize, conf: f64, log: &ExecLog) -> MapeLoop<ScalarDomain> {
        MapeLoop::new(
            format!("peer{i}"),
            Box::new(ConstMonitor(1.0)),
            Box::new(Id),
            Box::new(ActWithConf(conf)),
            Box::new(Recorder(log.clone(), i)),
        )
    }

    fn peers(confs: &[f64]) -> (Vec<MapeLoop<ScalarDomain>>, ExecLog) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let peers = confs
            .iter()
            .enumerate()
            .map(|(i, &c)| peer(i, c, &log))
            .collect();
        (peers, log)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn executed_by(log: &ExecLog) -> Vec<usize> {
        log.borrow().iter().map(|&(i, _)| i).collect()
    }

    #[test]
    fn no_coordination_everyone_acts() {
        let (p, log) = peers(&[0.5, 0.6, 0.7]);
        let mut c = Coordinated::new(p, Box::new(NoCoordination));
        let r = c.tick(t(1));
        assert_eq!(r.executed, 3);
        assert_eq!(r.blocked, 0);
        assert_eq!(log.borrow().len(), 3);
        assert_eq!(c.vetoed(), 0);
    }

    #[test]
    fn max_concurrent_picks_highest_confidence() {
        let (p, log) = peers(&[0.5, 0.9, 0.7]);
        let mut c = Coordinated::new(p, Box::new(MaxConcurrent(1)));
        let r = c.tick(t(1));
        assert_eq!(r.executed, 1);
        assert_eq!(r.blocked, 2);
        assert_eq!(executed_by(&log), vec![1]); // peer with conf 0.9
        assert_eq!(c.vetoed(), 2);
    }

    #[test]
    fn cooldown_forces_alternation() {
        let (p, log) = peers(&[0.5, 0.5]);
        let mut c = Coordinated::new(p, Box::new(CooldownCoordinator::new(1)));
        // Round 1: both allowed (no history).
        c.tick(t(1));
        assert_eq!(log.borrow().len(), 2);
        // Round 2: both cooled down → silent.
        let r2 = c.tick(t(2));
        assert_eq!(r2.executed, 0);
        // Round 3: cooldown over.
        let r3 = c.tick(t(3));
        assert_eq!(r3.executed, 2);
    }

    #[test]
    fn cooldown_learns_its_peers_from_the_intents() {
        let (p, _log) = peers(&[0.5; 8]);
        let mut c = Coordinated::new(p, Box::new(CooldownCoordinator::new(1)));
        assert_eq!(c.tick(t(1)).executed, 8);
        let r2 = c.tick(t(2));
        assert_eq!(r2.executed, 0, "every one of the 8 peers is damped");
        assert_eq!(r2.blocked, 8);
        assert_eq!(c.vetoed(), 8);
        assert_eq!(c.tick(t(3)).executed, 8);
    }

    #[test]
    fn dead_peer_is_skipped_entirely() {
        let (p, log) = peers(&[0.5, 0.5]);
        let mut c = Coordinated::new(p, Box::new(NoCoordination));
        c.set_peer_alive(0, false);
        let r = c.tick(t(1));
        assert_eq!(r.executed, 1);
        assert_eq!(executed_by(&log), vec![1]);
        assert_eq!(c.peer(0).iterations(), 0);
        // The fleet keeps operating — the robustness property of (c).
        assert!(r.observed);
    }

    #[test]
    fn peer_guard_still_applies_after_coordination() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let p =
            vec![peer(0, 0.5, &log).with_guard(GuardConfig::unlimited().with_max_count("act", 1))];
        let mut c = Coordinated::new(p, Box::new(NoCoordination));
        c.tick(t(1));
        let r = c.tick(t(2));
        assert_eq!(r.blocked, 1);
        assert_eq!(log.borrow().len(), 1);
    }

    #[test]
    fn outcomes_stay_in_private_knowledge() {
        let (p, _log) = peers(&[0.5, 0.5]);
        let mut c = Coordinated::new(p, Box::new(NoCoordination));
        c.tick(t(1));
        assert_eq!(c.peer(0).knowledge().outcome_count(), 1);
        assert_eq!(c.peer(1).knowledge().outcome_count(), 1);
        assert_eq!(c.peer_count(), 2);
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn a_repeated_slot_runs_its_plan_once() {
        let (p, log) = peers(&[0.5]);
        let mut c = Coordinated::new(p, Box::new(Fixed(vec![0, 0])));
        let r = c.tick(t(1));
        assert_eq!(r.executed, 1);
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(c.vetoed(), 0);
    }

    #[test]
    fn a_slot_past_the_end_is_ignored() {
        let (p, log) = peers(&[0.5, 0.5]);
        let mut c = Coordinated::new(p, Box::new(Fixed(vec![5, 1])));
        let r = c.tick(t(1));
        assert_eq!(r.executed, 1);
        assert_eq!(r.blocked, 1);
        assert_eq!(executed_by(&log), vec![1]);
        assert_eq!(c.vetoed(), 1);
    }

    #[test]
    fn allowed_plans_run_in_the_coordinators_order() {
        let (p, log) = peers(&[0.5, 0.5, 0.5]);
        let mut c = Coordinated::new(p, Box::new(Fixed(vec![2, 0, 1])));
        c.tick(t(1));
        assert_eq!(executed_by(&log), vec![2, 0, 1]);
    }

    /// Five loops that share nothing: autonomous, human-on-the-loop (one
    /// proceeding, one escalating withheld actions), human-in-the-loop,
    /// and one with a count budget; each with its own execution log.
    fn unshared_loops() -> (Vec<MapeLoop<ScalarDomain>>, Vec<ExecLog>) {
        let logs: Vec<ExecLog> = (0..5).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
        let mk = |i: usize, conf: f64| {
            MapeLoop::new(
                format!("peer{i}"),
                Box::new(Gappy),
                Box::new(Id),
                Box::new(ActWithConf(conf)),
                Box::new(Recorder(logs[i].clone(), i)),
            )
        };
        let loops = vec![
            mk(0, 0.9),
            mk(1, 0.9)
                .with_mode(AutonomyMode::HumanOnTheLoop)
                .with_gate(ConfidenceGate::new(0.5)),
            mk(2, 0.4)
                .with_mode(AutonomyMode::HumanOnTheLoop)
                .with_gate(ConfidenceGate::new(0.5)),
            mk(3, 0.9).with_mode(AutonomyMode::HumanInTheLoop {
                latency: SimDuration::from_secs(2),
            }),
            mk(4, 0.9).with_guard(GuardConfig::unlimited().with_max_count("act", 3)),
        ];
        (loops, logs)
    }

    #[test]
    fn the_pattern_adds_only_arbitration() {
        let (mut solo, solo_logs) = unshared_loops();
        let (peers, peer_logs) = unshared_loops();
        let mut c = Coordinated::new(peers, Box::new(NoCoordination));
        let (mut solo_sum, mut fleet_sum) = (LoopReport::default(), LoopReport::default());
        for s in 0..12 {
            for l in &mut solo {
                solo_sum.absorb(&l.tick(t(s)));
            }
            fleet_sum.absorb(&c.tick(t(s)));
        }
        assert_eq!(fleet_sum, solo_sum);
        // Every path of the loop was exercised.
        assert!(solo_sum.executed > 0 && solo_sum.blocked > 0);
        assert!(solo_sum.queued > 0 && solo_sum.notified > 0);
        assert!(
            c.peer(3)
                .audit()
                .count(|k| matches!(k, AuditKind::Approved { .. }))
                > 0
        );
        for (i, l) in solo.iter().enumerate() {
            assert_eq!(*peer_logs[i].borrow(), *solo_logs[i].borrow(), "peer{i}");
            assert_eq!(c.peer(i).audit().render(), l.audit().render(), "peer{i}");
            assert_eq!(c.peer(i).iterations(), l.iterations());
        }
    }

    #[test]
    fn refusals_land_in_the_peers_own_trail() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let p = vec![
            // Lowest confidence: the coordinator vetoes it.
            peer(0, 0.2, &log),
            // Allowed, then refused by its own gate…
            peer(1, 0.5, &log).with_gate(ConfidenceGate::new(0.6)),
            // …or by its own guard.
            peer(2, 0.9, &log).with_guard(GuardConfig::unlimited().with_max_count("act", 0)),
        ];
        let mut c = Coordinated::new(p, Box::new(MaxConcurrent(2)));
        let r = c.tick(t(1));
        assert_eq!((r.executed, r.blocked), (0, 3));
        assert!(log.borrow().is_empty());
        let reasons = [
            BlockReason::Vetoed,
            BlockReason::LowConfidence {
                confidence: 0.5,
                threshold: 0.6,
            },
            BlockReason::CountBudget {
                kind: "act".into(),
                limit: 0,
            },
        ];
        for (i, why) in reasons.into_iter().enumerate() {
            let blocked: Vec<_> = c
                .peer(i)
                .audit()
                .events()
                .filter_map(|e| match &e.decision {
                    AuditKind::Blocked { reason, .. } => Some((**reason).clone()),
                    _ => None,
                })
                .collect();
            assert_eq!(blocked, vec![why], "peer{i}");
        }
    }
}
