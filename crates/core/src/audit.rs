//! The decision trail: one bounded ring of typed events, its rendering,
//! and the human-on-the-loop notifications it announces.
//!
//! §IV: "A human-on-the-loop approach would have the loop continue
//! without waiting for user and administrator input, but sending them
//! notifications and explanation about decisions that allow for observing
//! its effects when necessary." The paper also ties production adoption
//! to "appropriate auditing and trust levels" (§V).
//!
//! One [`AuditLog`] serves both scales of the loop. It is generic over
//! the event vocabulary, a [`Decision`]: a node loop
//! ([`MapeLoop`](crate::MapeLoop) and the master of
//! [`MasterWorker`](crate::patterns::MasterWorker)) records
//! [`AuditKind`]s, and the fleet responder records its own typed control
//! events. Events are typed, so a trail can be verified and not just
//! read; the phases that decide nothing (`Observed`, `NoData`,
//! `Assessed`, `Planned`, `Refined`) carry no text, so recording them
//! formats and allocates nothing. Every event gets a gap-free sequence
//! number; the ring evicts its oldest event when full and counts what it
//! dropped. Notifications are a view of the retained events
//! ([`AuditLog::notifications`]), so what the humans are told and what
//! the trail records cannot disagree.

use crate::guard::BlockReason;
use moda_sim::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// A vocabulary of decision events: how one reads in the rendered trail
/// ([`fmt::Display`]), and which ones announce themselves to the humans
/// on the loop.
pub trait Decision: fmt::Display {
    /// The notification this event, recorded at `t`, sends — `None` for
    /// an event that tells nobody.
    fn notification(&self, t: SimTime) -> Option<Notification>;
}

/// What a node loop records: one event per phase of an iteration, and
/// one per refused, queued, approved or executed action.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditKind {
    /// Monitor produced an observation.
    Observed,
    /// Monitor had no data; iteration skipped.
    NoData,
    /// Analyzer produced an assessment.
    Assessed,
    /// Planner emitted a non-empty plan.
    Planned {
        /// Actions in the plan.
        actions: usize,
    },
    /// An action was executed.
    Executed {
        /// The action's confidence.
        confidence: f64,
        /// The planner's rationale: why the loop acted.
        rationale: String,
    },
    /// An action was refused: by the confidence gate, the guard, a
    /// coordinator's veto or a dead worker.
    Blocked {
        /// The action's confidence.
        confidence: f64,
        /// Why (boxed, as every payload beyond a rationale is, so an
        /// event stays small).
        reason: Box<BlockReason>,
    },
    /// An action was queued for human approval.
    Queued {
        /// The action's confidence.
        confidence: f64,
        /// The planner's rationale, for the approving human.
        rationale: String,
    },
    /// A queued action was released after the approval latency; its
    /// `Executed` follows.
    Approved {
        /// The action's confidence.
        confidence: f64,
    },
    /// The humans on the loop were told about an action: one it
    /// executed without waiting, or a withheld low-confidence one,
    /// escalated.
    Notified(Box<Notification>),
    /// Knowledge was refined from an executed action's outcome.
    Refined,
}

impl fmt::Display for AuditKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Decision for AuditKind {
    fn notification(&self, _t: SimTime) -> Option<Notification> {
        match self {
            AuditKind::Notified(n) => Some((**n).clone()),
            _ => None,
        }
    }
}

/// One event of a trail, as [`AuditLog::events`] yields it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditEvent<K> {
    /// Position in the trail since it began: gap-free, so a retained
    /// trail whose first event is not `#0` shows what it lost.
    pub seq: u64,
    /// When it happened.
    pub t: SimTime,
    /// What was decided, in the trail's vocabulary.
    pub decision: K,
}

/// A message to human operators with an explanation of a decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// When it was sent.
    pub t: SimTime,
    /// What the loop did or wants to do.
    pub subject: String,
    /// Why — the planner's rationale.
    pub explanation: String,
    /// Whether the loop proceeded without waiting (human-ON-the-loop) or
    /// withheld the action and escalated it.
    pub proceeded: bool,
}

/// Bounded ring of decision events, oldest evicted first. An event's
/// sequence number is its position since the trail began, so the ring
/// keeps only `(t, decision)` and numbers what it yields.
#[derive(Debug, Clone)]
pub struct AuditLog<K = AuditKind> {
    events: VecDeque<(SimTime, K)>,
    capacity: usize,
    total: u64,
}

impl<K> Default for AuditLog<K> {
    fn default() -> Self {
        AuditLog::new(4096)
    }
}

impl<K> AuditLog<K> {
    /// Ring retaining at most `capacity` events (at least one).
    pub fn new(capacity: usize) -> Self {
        AuditLog {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            total: 0,
        }
    }

    /// Append an event at `t`, evicting the oldest when full.
    pub fn record(&mut self, t: SimTime, decision: K) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back((t, decision));
        self.total += 1;
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = AuditEvent<&K>> {
        self.events
            .iter()
            .zip(self.dropped()..)
            .map(|((t, decision), seq)| AuditEvent {
                seq,
                t: *t,
                decision,
            })
    }

    /// Lifetime events recorded (including any the ring dropped).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events the ring evicted: non-zero means the retained trail is a
    /// suffix.
    pub fn dropped(&self) -> u64 {
        self.total - self.events.len() as u64
    }

    /// Count retained events whose decision matches `pred`.
    pub fn count(&self, pred: impl Fn(&K) -> bool) -> usize {
        self.events.iter().filter(|(_, d)| pred(d)).count()
    }
}

impl<K: Decision> AuditLog<K> {
    /// Render the retained trail, one `#seq [t] event` line per event.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in self.events() {
            let _ = writeln!(out, "#{} [{}] {}", e.seq, e.t, e.decision);
        }
        out
    }

    /// The human-on-the-loop view (§IV): the notification of every
    /// retained event that sends one, oldest first.
    pub fn notifications(&self) -> Vec<Notification> {
        self.events
            .iter()
            .filter_map(|(t, d)| d.notification(*t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn executed(rationale: &str) -> AuditKind {
        AuditKind::Executed {
            confidence: 0.87,
            rationale: rationale.into(),
        }
    }

    #[test]
    fn record_and_count() {
        let mut log = AuditLog::new(16);
        log.record(t(1), AuditKind::Observed);
        log.record(t(2), AuditKind::Planned { actions: 1 });
        log.record(t(3), AuditKind::Planned { actions: 2 });
        assert_eq!(log.count(|k| matches!(k, AuditKind::Planned { .. })), 2);
        assert_eq!(log.count(|k| *k == AuditKind::Observed), 1);
        assert_eq!(log.count(|k| matches!(k, AuditKind::Blocked { .. })), 0);
        assert_eq!((log.total(), log.dropped()), (3, 0));
    }

    #[test]
    fn capacity_evicts_oldest_and_keeps_the_seq() {
        let mut log = AuditLog::new(2);
        log.record(t(1), AuditKind::Observed);
        log.record(t(2), AuditKind::Assessed);
        log.record(t(3), AuditKind::Refined);
        let kept: Vec<(u64, AuditKind)> =
            log.events().map(|e| (e.seq, e.decision.clone())).collect();
        assert_eq!(
            kept,
            vec![(1, AuditKind::Assessed), (2, AuditKind::Refined)]
        );
        assert_eq!((log.total(), log.dropped()), (3, 1));
    }

    #[test]
    fn a_zero_capacity_still_keeps_one_event() {
        let mut log = AuditLog::new(0);
        log.record(t(1), AuditKind::Observed);
        log.record(t(2), AuditKind::NoData);
        assert_eq!(log.events().count(), 1);
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn notifications_are_the_notified_events() {
        let sent = |at: u64, proceeded: bool| Notification {
            t: t(at),
            subject: "executing extension action".into(),
            explanation: "forecast exceeds allocation by 280s".into(),
            proceeded,
        };
        let mut log = AuditLog::new(16);
        log.record(t(4), executed("quiet"));
        log.record(t(5), AuditKind::Notified(Box::new(sent(5, true))));
        log.record(t(6), AuditKind::Refined);
        log.record(t(7), AuditKind::Notified(Box::new(sent(7, false))));
        assert_eq!(log.notifications(), vec![sent(5, true), sent(7, false)]);
    }

    #[test]
    fn render_numbers_every_line() {
        let mut log = AuditLog::new(16);
        log.record(t(1), AuditKind::Observed);
        log.record(t(1), executed("extended by 300s"));
        let text = log.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("#0 ["), "{}", lines[0]);
        assert!(lines[0].ends_with("] Observed"), "{}", lines[0]);
        assert!(lines[1].starts_with("#1 ["), "{}", lines[1]);
        assert!(lines[1].contains("Executed"));
        assert!(lines[1].contains("0.87"));
        assert!(lines[1].contains("extended by 300s"));
    }
}
