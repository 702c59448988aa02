//! Bridge from the fleet control plane to the MAPE-K audit trail.
//!
//! `moda-fleet`'s [`ControlLog`] is the *typed* decision record of the
//! cluster-scale loop — typed so it can be machine-verified
//! ([`moda_fleet::FleetResponder::verify_audit`]). This module mirrors
//! it into the [`moda_core::AuditLog`] the rest of the stack already
//! consumes (§IV: notifications and explanations for humans on the
//! loop), so one trail carries node-local and center-level decisions
//! side by side:
//!
//! | control event | audit kind |
//! |---|---|
//! | `Observed` | `Observed` |
//! | `AlertRaised`, `Escalated` | `Assessed` |
//! | `Held`, `Blocked` | `Blocked` |
//! | `Applied` | `Executed` (+ a [`Notification`]) |
//! | `ActionFailed` | `Executed` (failure noted in the detail) |
//! | `ValidationPassed`, `Promoted` | `Refined` |
//! | `ValidationFailed`, `Demoted` | `Refined` |
//!
//! Mirroring is cursor-based ([`mirror_control_log`] returns the next
//! sequence number to pass back in), so a scenario can fold the fleet
//! trail in incrementally after every controller tick without
//! duplicating events. [`mirror_health_transitions`] does the same for
//! the aggregator's live→stale→silent ladder.

use moda_core::audit::{AuditKind, AuditLog, Notification};
use moda_fleet::control::{ControlEvent, ControlEventKind, ControlLog};
use moda_fleet::HealthTransition;

fn mirror_one(e: &ControlEvent, audit: &mut AuditLog, loop_name: &str) {
    let subject = format!("{}/{}", e.subsystem, e.rule);
    match &e.kind {
        ControlEventKind::Observed { alerts, coverage } => {
            audit.record(
                e.t,
                loop_name,
                AuditKind::Observed,
                format!(
                    "{subject}: {} alert(s), coverage {coverage:.2}; {}",
                    alerts, e.detail
                ),
                Some(*coverage),
            );
        }
        ControlEventKind::AlertRaised { confidence, .. } => {
            audit.record(
                e.t,
                loop_name,
                AuditKind::Assessed,
                format!("{subject}: alert — {}", e.detail),
                Some(*confidence),
            );
        }
        ControlEventKind::Escalated { consecutive, gate } => {
            audit.record(
                e.t,
                loop_name,
                AuditKind::Assessed,
                format!("{subject}: escalation {consecutive}/{gate}"),
                None,
            );
        }
        ControlEventKind::Held(reason) => {
            audit.record(
                e.t,
                loop_name,
                AuditKind::Blocked,
                format!("{subject}: held ({reason:?}) — {}", e.detail),
                None,
            );
        }
        ControlEventKind::Blocked(cause) => {
            audit.record(
                e.t,
                loop_name,
                AuditKind::Blocked,
                format!("{subject}: blocked ({cause:?}) — {}", e.detail),
                None,
            );
        }
        ControlEventKind::Applied {
            canary, confidence, ..
        } => {
            audit.record(
                e.t,
                loop_name,
                AuditKind::Executed,
                format!(
                    "{subject}: {} action — {}",
                    if *canary { "canary" } else { "fleet" },
                    e.detail
                ),
                Some(*confidence),
            );
            // Human-on-the-loop: every actuation is announced with its
            // rationale; the loop proceeds without waiting (§IV).
            audit.notify(Notification {
                t: e.t,
                loop_name: loop_name.to_string(),
                subject: format!(
                    "{subject}: applied {} action",
                    if *canary { "canary" } else { "fleet-wide" }
                ),
                explanation: e.detail.clone(),
                proceeded: true,
            });
        }
        ControlEventKind::ActionFailed => {
            audit.record(
                e.t,
                loop_name,
                AuditKind::Executed,
                format!("{subject}: action FAILED — {}", e.detail),
                None,
            );
        }
        ControlEventKind::ValidationPassed { before, after } => {
            audit.record(
                e.t,
                loop_name,
                AuditKind::Refined,
                format!("{subject}: validation passed ({before:.3} -> {after:.3})"),
                None,
            );
        }
        ControlEventKind::ValidationFailed { before, after } => {
            audit.record(
                e.t,
                loop_name,
                AuditKind::Refined,
                format!("{subject}: validation FAILED ({before:.3} -> {after:.3})"),
                None,
            );
        }
        ControlEventKind::Promoted => {
            audit.record(
                e.t,
                loop_name,
                AuditKind::Refined,
                format!("{subject}: promoted to fleet-wide targets"),
                None,
            );
        }
        ControlEventKind::Demoted { until } => {
            audit.record(
                e.t,
                loop_name,
                AuditKind::Refined,
                format!("{subject}: demoted to canary-only, suspended until {until}"),
                None,
            );
        }
    }
}

/// Mirror every retained control event with `seq >= from_seq` into
/// `audit` under `loop_name`, returning the next cursor (pass it back
/// in on the next call for incremental, duplicate-free mirroring).
pub fn mirror_control_log(
    log: &ControlLog,
    from_seq: u64,
    audit: &mut AuditLog,
    loop_name: &str,
) -> u64 {
    let mut next = from_seq;
    for e in log.events() {
        if e.seq < from_seq {
            continue;
        }
        mirror_one(e, audit, loop_name);
        next = next.max(e.seq + 1);
    }
    next
}

/// Mirror node liveness transitions (the aggregator's
/// live→stale→silent ladder, [`moda_fleet::FleetAggregator::track_health`])
/// into the audit trail as `Observed` events.
pub fn mirror_health_transitions(
    transitions: &[HealthTransition],
    audit: &mut AuditLog,
    loop_name: &str,
) {
    for tr in transitions {
        audit.record(
            tr.t,
            loop_name,
            AuditKind::Observed,
            format!("node {:?}: {:?} -> {:?}", tr.node, tr.from, tr.to),
            None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moda_fleet::control::{
        ActionTarget, ControlConfig, Coverage, FleetActuator, FleetAlert, FleetMonitor,
        FleetResponder, Observation, ResponseRule,
    };
    use moda_fleet::{FleetAggregator, NodeId, NodeLiveness};
    use moda_sim::SimTime;

    struct AlwaysAlert;

    impl FleetMonitor for AlwaysAlert {
        fn name(&self) -> &str {
            "m"
        }

        fn subsystem(&self) -> &str {
            "s"
        }

        fn observe(&mut self, _fleet: &FleetAggregator, _now: SimTime) -> Observation {
            Observation {
                alerts: vec![FleetAlert {
                    monitor: "m".into(),
                    subsystem: "s".into(),
                    detail: "hot".into(),
                    severity: 2.0,
                    nodes: vec![NodeId(0)],
                    confidence: 0.9,
                }],
                coverage: Coverage {
                    total: 2,
                    contributing: 2,
                    ..Coverage::default()
                },
            }
        }
    }

    struct Nop;

    impl FleetActuator for Nop {
        type Action = ();

        fn apply(
            &mut self,
            _now: SimTime,
            _target: &ActionTarget,
            _action: &Self::Action,
        ) -> Result<String, String> {
            Ok("ok".into())
        }
    }

    #[test]
    fn control_log_mirrors_incrementally_without_duplicates() {
        let mut r: FleetResponder<()> = FleetResponder::new(ControlConfig::default());
        r.add_monitor(Box::new(AlwaysAlert));
        let mut rule = ResponseRule::new("fix", "m", "s", ());
        rule.escalation_gate = 1;
        r.add_rule(rule);
        let agg = FleetAggregator::new();
        let mut audit = AuditLog::new(256);
        let mut cursor = 0;

        r.tick(&agg, SimTime::from_secs(60), &mut Nop);
        cursor = mirror_control_log(r.log(), cursor, &mut audit, "fleet-loop");
        let after_first = audit.total_events();
        assert!(after_first > 0);
        assert_eq!(audit.count(AuditKind::Executed), 1, "the apply mirrored");
        assert_eq!(audit.notifications().len(), 1, "actuation notifies humans");

        // Re-mirroring from the cursor adds nothing.
        let cursor2 = mirror_control_log(r.log(), cursor, &mut audit, "fleet-loop");
        assert_eq!(cursor2, cursor);
        assert_eq!(audit.total_events(), after_first);

        // Another tick appends only the new events.
        r.tick(&agg, SimTime::from_secs(120), &mut Nop);
        mirror_control_log(r.log(), cursor, &mut audit, "fleet-loop");
        assert!(audit.total_events() > after_first);
    }

    #[test]
    fn health_transitions_mirror_as_observations() {
        let mut audit = AuditLog::new(16);
        mirror_health_transitions(
            &[HealthTransition {
                t: SimTime::from_secs(9),
                node: NodeId(3),
                from: NodeLiveness::Live,
                to: NodeLiveness::Stale,
            }],
            &mut audit,
            "fleet-loop",
        );
        assert_eq!(audit.count(AuditKind::Observed), 1);
        assert!(audit.render().contains("Live -> Stale"));
    }
}
