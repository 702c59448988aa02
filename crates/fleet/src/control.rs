//! The center-level Feedback/Response plane: coverage-aware fleet
//! queries, fleet monitors, and a guarded responder with **bounded
//! execution**.
//!
//! The paper's loop is Monitoring → ODA → Feedback → Response at
//! *cluster* scale; this module closes it over the aggregation tier.
//! Production ODA experience (DCDB Wintermute, LRZ) says center-level
//! analytics only pay off when responses are bounded and auditable, so
//! the responder is built KLoROS/PM-1000 style:
//!
//! * **graceful degradation** — every control-plane query runs through
//!   [`FleetAggregator::covered_window_agg`] and friends, which exclude
//!   stale/silent nodes from the answer and return explicit
//!   [`Coverage`] metadata instead of silently serving stale data. A
//!   partitioned node can *never* be served as fresh: contribution
//!   requires its ingest session to be live at query time.
//! * **widened confidence on partial views** — monitors derate their
//!   confidence by the coverage fraction, and the responder
//!   additionally holds actuation outright while coverage sits below
//!   [`ControlConfig::min_coverage`] ([`BlockReason::Coverage`]); an
//!   alert whose confidence does not clear the
//!   [`moda_core::ConfidenceGate`] at [`ControlConfig::min_confidence`]
//!   is blocked ([`BlockReason::LowConfidence`]; a NaN counts as none).
//! * **bounded execution** — the first action of every rule is
//!   canary-only (one node); only after post-action validation against
//!   the same fleet metrics does the rule get *promoted* to fleet-wide
//!   targets. Per-subsystem cooldowns and sliding-window rate limits
//!   bound actuation frequency — admitted through the same
//!   [`moda_core::Guard`] the node-local loops use, with the subsystem
//!   as the budget kind; escalation gates require an alert to persist
//!   across consecutive observations before anything fires; a failed
//!   validation demotes the rule back to canary and suspends its
//!   subsystem.
//! * **machine-checkable audit** — every decision (observation, alert,
//!   hold, block, apply, validation, promotion) lands as a typed
//!   [`ControlEvent`] in the responder's [`AuditLog`] — the one ring the
//!   node loops write too — and [`FleetResponder::verify_audit`] replays
//!   the trail through a fresh guard of the same bounds; the CI chaos
//!   scenarios assert on it. The same record announces every actuation
//!   to the humans on the loop ([`AuditLog::notifications`]).
//!
//! The actuation side is deliberately abstract ([`FleetActuator`]):
//! this crate knows nothing about the managed system. `moda-hpc`'s
//! `Cluster` provides the concrete actuator over its simulated worlds.

use crate::aggregator::{FleetAggregator, HealthPolicy, NodeLiveness};
use crate::store::{FleetServed, NodeId, Rank};
use moda_core::{
    AuditEvent, AuditLog, BlockReason, Confidence, ConfidenceGate, Decision, Guard, GuardConfig,
    Notification,
};
use moda_obs::{Counter, LatencyRecorder, Obs};
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::{MetricId, WindowAgg};
use std::collections::HashMap;
use std::fmt::{self, Debug};

// ------------------------------------------------------------- coverage

/// Node-coverage metadata attached to every control-plane query: which
/// part of the fleet the answer actually represents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Registered aggregator sessions (the whole fleet, as known).
    pub total: usize,
    /// Nodes whose data contributed to the answer (live ingest session
    /// *and* a member series on the queried axis).
    pub contributing: usize,
    /// Nodes excluded because their ingest lag crossed the staleness
    /// bound.
    pub stale: usize,
    /// Nodes excluded because their session has never ingested data.
    pub silent: usize,
    /// Live nodes that simply don't export the queried metric.
    pub missing: usize,
    /// The excluded nodes, with why (stale/silent), node order.
    pub excluded: Vec<(NodeId, NodeLiveness)>,
}

impl Coverage {
    /// Contributing fraction of the registered fleet (0 when no nodes
    /// are registered).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.contributing as f64 / self.total as f64
        }
    }

    /// Every registered node contributed.
    pub fn complete(&self) -> bool {
        self.total > 0 && self.contributing == self.total
    }
}

/// A coverage-annotated fleet query answer.
#[derive(Debug, Clone, PartialEq)]
pub struct CoveredValue {
    /// The pooled answer over the contributing subset (`None` when no
    /// contributing node had data in the window).
    pub value: Option<f64>,
    /// How the store served it (members/buckets/raw accounting).
    pub served: FleetServed,
    /// What part of the fleet it represents.
    pub coverage: Coverage,
}

impl FleetAggregator {
    /// Classify every member of the logical axis `local_name` against
    /// `stale_after` and return the **contributing** members (live
    /// sessions only, node order) plus the full [`Coverage`] picture.
    /// Stale and silent nodes are excluded — their data can never be
    /// served as fresh by the covered queries built on this. One pass
    /// over the sessions, classified as [`FleetAggregator::health`]
    /// classifies them.
    pub fn covered_members(
        &self,
        local_name: &str,
        now: SimTime,
        stale_after: SimDuration,
    ) -> (Vec<MetricId>, Coverage) {
        let store = self.store();
        let mut by_node: Vec<Option<MetricId>> = vec![None; self.node_count()];
        for &id in store.logical_members(local_name) {
            if let Some(slot) = by_node.get_mut(store.info(id).node.index()) {
                *slot = Some(id);
            }
        }
        let mut cov = Coverage {
            total: self.node_count(),
            ..Coverage::default()
        };
        let mut members = Vec::new();
        let liveness = self.liveness(now, HealthPolicy::stale_only(stale_after));
        for ((i, liveness), member) in liveness.enumerate().zip(by_node) {
            let node = NodeId(i as u32);
            match liveness {
                NodeLiveness::Live => match member {
                    Some(id) => {
                        cov.contributing += 1;
                        members.push(id);
                    }
                    None => cov.missing += 1,
                },
                NodeLiveness::Stale => {
                    cov.stale += 1;
                    cov.excluded.push((node, NodeLiveness::Stale));
                }
                NodeLiveness::Silent => {
                    cov.silent += 1;
                    cov.excluded.push((node, NodeLiveness::Silent));
                }
            }
        }
        (members, cov)
    }

    /// Coverage-aware fleet window aggregate: pools **only** nodes whose
    /// ingest session is live at `now` (lag within `stale_after`), and
    /// says so. The answer equals exactly what the plain fleet query
    /// would return on a fleet containing only the contributing nodes —
    /// pinned by the coverage property test in `tests/props.rs`.
    pub fn covered_window_agg(
        &self,
        local_name: &str,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
        stale_after: SimDuration,
    ) -> CoveredValue {
        let (members, coverage) = self.covered_members(local_name, now, stale_after);
        let (value, served) = self
            .store()
            .fleet_subset_window_agg_served(&members, now, window, agg);
        CoveredValue {
            value,
            served,
            coverage,
        }
    }

    /// Coverage-aware per-node ranking over the contributing subset
    /// (see [`FleetAggregator::covered_window_agg`]).
    #[allow(clippy::too_many_arguments)]
    pub fn covered_top_nodes(
        &self,
        local_name: &str,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
        k: usize,
        rank: Rank,
        stale_after: SimDuration,
    ) -> (Vec<(NodeId, f64)>, Coverage) {
        let (members, coverage) = self.covered_members(local_name, now, stale_after);
        let ranked = self
            .store()
            .top_nodes_of(&members, now, window, agg, k, rank);
        (ranked, coverage)
    }
}

// -------------------------------------------------------------- monitors

/// One alert a monitor raised this observation pass.
#[derive(Debug, Clone)]
pub struct FleetAlert {
    /// Monitor that raised it (rules bind on this).
    pub monitor: String,
    /// Subsystem the alert concerns (cooldown/rate-limit domain).
    pub subsystem: String,
    /// Human-readable explanation.
    pub detail: String,
    /// Breach magnitude, normalized so `1.0` is "exactly at the bound"
    /// and larger is worse. Post-action validation compares severities.
    pub severity: f64,
    /// Implicated nodes, worst first — `nodes[0]` is the canary target.
    pub nodes: Vec<NodeId>,
    /// Detection confidence, already derated by the coverage fraction
    /// (a partial view widens uncertainty).
    pub confidence: f64,
}

/// What one monitor saw in one observation pass.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Alerts raised (empty: nothing to report).
    pub alerts: Vec<FleetAlert>,
    /// Coverage of the probe — reported even when healthy, so the
    /// responder can distinguish "no alert" from "couldn't see".
    pub coverage: Coverage,
}

/// A monitor bound to fleet queries: observe the aggregation tier,
/// raise coverage-annotated alerts.
pub trait FleetMonitor {
    /// Stable name (rules bind on it).
    fn name(&self) -> &str;
    /// Subsystem this monitor watches.
    fn subsystem(&self) -> &str;
    /// Run the probe at `now`.
    fn observe(&mut self, fleet: &FleetAggregator, now: SimTime) -> Observation;
}

/// Which side of a threshold is unhealthy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Alert when the aggregate exceeds the limit (power, queue depth).
    Above(f64),
    /// Alert when the aggregate falls below the limit (throughput).
    Below(f64),
}

/// Fleet-wide threshold monitor: a coverage-aware window aggregate over
/// one logical axis, compared against a bound. Severity is the breach
/// ratio (`value/limit` or `limit/value`), so validation can ask "did
/// the response shrink it?".
#[derive(Debug, Clone)]
pub struct ThresholdMonitor {
    /// Monitor name.
    pub name: String,
    /// Subsystem label.
    pub subsystem: String,
    /// Logical axis (node-local metric name).
    pub metric: String,
    /// Trailing window.
    pub window: SimDuration,
    /// Pooled aggregate to evaluate.
    pub agg: WindowAgg,
    /// The unhealthy side.
    pub bound: Bound,
    /// Staleness bound for coverage classification.
    pub stale_after: SimDuration,
    /// Confidence at full coverage (derated linearly below that).
    pub base_confidence: f64,
}

impl FleetMonitor for ThresholdMonitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn subsystem(&self) -> &str {
        &self.subsystem
    }

    fn observe(&mut self, fleet: &FleetAggregator, now: SimTime) -> Observation {
        let cv =
            fleet.covered_window_agg(&self.metric, now, self.window, self.agg, self.stale_after);
        let mut alerts = Vec::new();
        if let Some(v) = cv.value {
            let severity = match self.bound {
                Bound::Above(limit) if limit > 0.0 && v > limit => Some(v / limit),
                Bound::Below(limit) if v > 0.0 && v < limit => Some(limit / v),
                _ => None,
            };
            if let Some(severity) = severity {
                // Worst contributors first: the canary target is the
                // node pushing hardest against the bound.
                let rank = match self.bound {
                    Bound::Above(_) => Rank::Highest,
                    Bound::Below(_) => Rank::Lowest,
                };
                let (ranked, _) = fleet.covered_top_nodes(
                    &self.metric,
                    now,
                    self.window,
                    self.agg,
                    usize::MAX,
                    rank,
                    self.stale_after,
                );
                let nodes: Vec<NodeId> = ranked.into_iter().map(|(n, _)| n).collect();
                alerts.push(FleetAlert {
                    monitor: self.name.clone(),
                    subsystem: self.subsystem.clone(),
                    detail: format!(
                        "{} {:?} over {} = {v:.2} breaches {:?} (severity {severity:.3})",
                        self.metric, self.agg, self.window, self.bound
                    ),
                    severity,
                    nodes,
                    confidence: self.base_confidence * cv.coverage.fraction(),
                });
            }
        }
        Observation {
            alerts,
            coverage: cv.coverage,
        }
    }
}

/// Cross-node straggler/outlier monitor: ranks the contributing nodes
/// on a per-node window aggregate and flags the ones deviating from the
/// fleet median by more than `ratio` — robust relative detection, so it
/// works whatever the absolute workload level is.
#[derive(Debug, Clone)]
pub struct StragglerMonitor {
    /// Monitor name.
    pub name: String,
    /// Subsystem label.
    pub subsystem: String,
    /// Logical axis (node-local metric name).
    pub metric: String,
    /// Trailing window.
    pub window: SimDuration,
    /// Per-node aggregate to rank on.
    pub agg: WindowAgg,
    /// Which tail is unhealthy: `Highest` flags nodes far *above* the
    /// median (deep queues, hot power), `Lowest` far below (slow
    /// progress).
    pub rank: Rank,
    /// Deviation factor against the median (e.g. `2.0` = twice the
    /// median is a straggler).
    pub ratio: f64,
    /// Minimum contributing nodes for the median to mean anything.
    pub min_nodes: usize,
    /// Staleness bound for coverage classification.
    pub stale_after: SimDuration,
    /// Confidence at full coverage.
    pub base_confidence: f64,
}

impl FleetMonitor for StragglerMonitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn subsystem(&self) -> &str {
        &self.subsystem
    }

    fn observe(&mut self, fleet: &FleetAggregator, now: SimTime) -> Observation {
        let (ranked, coverage) = fleet.covered_top_nodes(
            &self.metric,
            now,
            self.window,
            self.agg,
            usize::MAX,
            self.rank,
            self.stale_after,
        );
        let mut alerts = Vec::new();
        if ranked.len() >= self.min_nodes.max(2) {
            let mut values: Vec<f64> = ranked.iter().map(|&(_, v)| v).collect();
            values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let median = values[values.len() / 2];
            // Per-node breach ratio vs. the median-derived bound; the
            // ranking already put the worst node first.
            let mut flagged: Vec<(NodeId, f64)> = Vec::new();
            for &(node, v) in &ranked {
                let sev = match self.rank {
                    Rank::Highest if median > 0.0 => v / (median * self.ratio),
                    Rank::Lowest if v > 0.0 => median / (v * self.ratio),
                    _ => 0.0,
                };
                if sev > 1.0 {
                    flagged.push((node, sev));
                }
            }
            if let Some(&(_, worst)) = flagged.first() {
                let nodes: Vec<NodeId> = flagged.iter().map(|&(n, _)| n).collect();
                alerts.push(FleetAlert {
                    monitor: self.name.clone(),
                    subsystem: self.subsystem.clone(),
                    detail: format!(
                        "{} {:?} over {}: {} node(s) deviate >{}x from median {median:.2} \
                         (worst {:?} severity {worst:.3})",
                        self.metric,
                        self.agg,
                        self.window,
                        nodes.len(),
                        self.ratio,
                        nodes[0],
                    ),
                    severity: worst,
                    nodes,
                    confidence: self.base_confidence * coverage.fraction(),
                });
            }
        }
        Observation { alerts, coverage }
    }
}

// ------------------------------------------------------------- actuation

/// Who an action is applied to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionTarget {
    /// Bounded first action: exactly one node.
    Canary(NodeId),
    /// Post-promotion action over the implicated nodes (empty = whole
    /// fleet, actuator's choice).
    Fleet(Vec<NodeId>),
}

impl ActionTarget {
    /// Nodes covered by this target (0 means "whole fleet").
    pub fn node_count(&self) -> usize {
        match self {
            ActionTarget::Canary(_) => 1,
            ActionTarget::Fleet(nodes) => nodes.len(),
        }
    }
}

/// The Response half's actuation surface: how decisions reach the
/// managed system. `moda-hpc::Cluster` implements this over its worlds.
pub trait FleetActuator {
    /// Action vocabulary of the managed system.
    type Action: Clone + std::fmt::Debug;

    /// Apply `action` to `target`. `Ok` carries a human-readable
    /// receipt for the audit trail; `Err` a reason (logged, counted,
    /// and subject to the same rate limits as successes).
    fn apply(
        &mut self,
        now: SimTime,
        target: &ActionTarget,
        action: &Self::Action,
    ) -> Result<String, String>;
}

/// Sliding-window actuation budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Window the budget applies over.
    pub window: SimDuration,
    /// Max actions inside any such window.
    pub max: u32,
}

/// One guarded response: which monitor triggers it, what it does, and
/// the bounded-execution knobs.
#[derive(Debug, Clone)]
pub struct ResponseRule<A> {
    /// Rule name (audit key).
    pub name: String,
    /// Monitor whose alerts trigger it.
    pub monitor: String,
    /// Subsystem whose cooldown/rate budget it draws from. Rules on one
    /// subsystem share that budget, so they must declare the same
    /// `cooldown` and `rate_limit`.
    pub subsystem: String,
    /// The action to apply.
    pub action: A,
    /// Consecutive adequate-coverage observations with the alert
    /// present before the rule may fire.
    pub escalation_gate: u32,
    /// Minimum gap between actions on this subsystem.
    pub cooldown: SimDuration,
    /// Sliding-window budget for this subsystem.
    pub rate_limit: RateLimit,
    /// Settle time after an action before validation may conclude.
    pub settle: SimDuration,
    /// Deadline after an action by which validation must have passed,
    /// else it fails (demotes + suspends the rule). Paused while
    /// coverage is inadequate — a partial view concludes nothing.
    pub validation_deadline: SimDuration,
    /// Fraction the alert severity must drop for validation to pass
    /// while the alert persists (`0.0`: any improvement or clearance).
    pub min_improvement: f64,
}

impl<A> ResponseRule<A> {
    /// Rule with conservative defaults: escalation gate 2, 30 min
    /// cooldown, 3 actions per 6 h, 10 min settle, 1 h validation
    /// deadline, any improvement validates.
    pub fn new(name: &str, monitor: &str, subsystem: &str, action: A) -> Self {
        ResponseRule {
            name: name.to_string(),
            monitor: monitor.to_string(),
            subsystem: subsystem.to_string(),
            action,
            escalation_gate: 2,
            cooldown: SimDuration::from_mins(30),
            rate_limit: RateLimit {
                window: SimDuration::from_hours(6),
                max: 3,
            },
            settle: SimDuration::from_mins(10),
            validation_deadline: SimDuration::from_hours(1),
            min_improvement: 0.0,
        }
    }
}

// ------------------------------------------------------------ audit log

/// One control-plane decision record.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlEventKind {
    /// A monitor ran its probe.
    Observed {
        /// Alerts it raised.
        alerts: u32,
        /// Coverage fraction of the probe.
        coverage: f64,
    },
    /// An alert was (still) present this pass.
    AlertRaised {
        /// Breach severity.
        severity: f64,
        /// Coverage-derated confidence.
        confidence: f64,
        /// Coverage fraction behind it.
        coverage: f64,
    },
    /// Alert present but the escalation gate not yet satisfied.
    Escalated {
        /// Consecutive qualifying observations so far.
        consecutive: u32,
        /// The gate.
        gate: u32,
    },
    /// Actuation held — waits, not an error: fleet coverage below the
    /// floor (`Coverage`) or an alert that implicated no nodes
    /// (`NoTarget`).
    Held(BlockReason),
    /// Actuation refused: the alert's confidence below the floor
    /// (`LowConfidence`), or the execution bounds — the subsystem's
    /// suspension (`Suspended`), cooldown (`MinGap`), rate budget
    /// (`RateLimit` with the subsystem as kind), or the global one
    /// (`RateLimit` with no kind).
    Blocked(BlockReason),
    /// An action was applied.
    Applied {
        /// Canary (pre-promotion) or fleet-wide.
        canary: bool,
        /// Nodes targeted (1 for canary).
        nodes: u32,
        /// Escalation count at apply time.
        escalation: u32,
        /// The rule's gate (so the trail self-certifies `escalation >=
        /// gate`).
        gate: u32,
        /// Coverage fraction at apply time.
        coverage: f64,
        /// Alert confidence at apply time, as the floor judged it.
        confidence: f64,
    },
    /// The actuator refused or failed the action.
    ActionFailed,
    /// Post-action validation passed against the same fleet metrics.
    ValidationPassed {
        /// Alert severity when the action fired.
        before: f64,
        /// Severity at validation (0 = cleared).
        after: f64,
    },
    /// Post-action validation failed by the deadline.
    ValidationFailed {
        /// Alert severity when the action fired.
        before: f64,
        /// Severity at validation.
        after: f64,
    },
    /// Canary validated: the rule may now target the fleet.
    Promoted,
    /// Validation failed: back to canary-only, subsystem suspended.
    Demoted {
        /// When the suspension lifts.
        until: SimTime,
    },
}

/// What the responder records in its [`AuditLog`]: one decision of one
/// rule (or, for `Observed`, one monitor's probe). Typed, so the trail
/// can be *verified*, not just read ([`FleetResponder::verify_audit`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlEvent {
    /// Rule name (or monitor name for `Observed`).
    pub rule: String,
    /// Subsystem.
    pub subsystem: String,
    /// What happened.
    pub kind: ControlEventKind,
    /// Free-text explanation.
    pub detail: String,
}

impl fmt::Display for ControlEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} {:?}: {}",
            self.subsystem, self.rule, self.kind, self.detail
        )
    }
}

impl Decision for ControlEvent {
    /// Every `Applied` announces the actuation with its rationale; the
    /// responder never waits for an answer, so each has `proceeded`.
    fn notification(&self, t: SimTime) -> Option<Notification> {
        let ControlEventKind::Applied { canary, .. } = self.kind else {
            return None;
        };
        Some(Notification {
            t,
            subject: format!(
                "{}/{}: applied {} action",
                self.subsystem,
                self.rule,
                if canary { "canary" } else { "fleet-wide" }
            ),
            explanation: self.detail.clone(),
            proceeded: true,
        })
    }
}

/// Record one decision of `rule` on `subsystem` in the responder's trail.
fn record(
    log: &mut AuditLog<ControlEvent>,
    t: SimTime,
    rule: &str,
    subsystem: &str,
    kind: ControlEventKind,
    detail: String,
) {
    log.record(
        t,
        ControlEvent {
            rule: rule.to_string(),
            subsystem: subsystem.to_string(),
            kind,
            detail,
        },
    );
}

// ------------------------------------------------------------ responder

/// Global responder knobs.
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// Minimum alert confidence to actuate (alerts arrive already
    /// coverage-derated, so a partial view lowers this naturally),
    /// judged through a [`ConfidenceGate`] at this threshold.
    pub min_confidence: f64,
    /// Minimum coverage fraction to actuate — below it the responder
    /// holds until coverage recovers.
    pub min_coverage: f64,
    /// Optional whole-responder actuation budget on top of the
    /// per-subsystem ones (the guard's global rate limit).
    pub global_rate: Option<RateLimit>,
    /// Audit ring capacity.
    pub log_capacity: usize,
    /// Record an `Observed` event per monitor per tick (turn off for
    /// very long campaigns where only decisions matter).
    pub log_observations: bool,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            min_confidence: 0.5,
            min_coverage: 0.75,
            global_rate: None,
            log_capacity: 8192,
            log_observations: true,
        }
    }
}

/// What one [`FleetResponder::tick`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Monitors that raised at least one alert.
    pub alerts: usize,
    /// Actions applied.
    pub applied: usize,
    /// Actions the actuator failed.
    pub failed: usize,
    /// Actuations held (coverage/no-target).
    pub held: usize,
    /// Actuations blocked (confidence/cooldown/rate/suspension).
    pub blocked: usize,
    /// Validations concluded passed.
    pub validations_passed: usize,
    /// Validations concluded failed.
    pub validations_failed: usize,
}

/// Summary [`FleetResponder::verify_audit`] returns when the trail is
/// consistent with the configured bounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditSummary {
    /// Events examined.
    pub events: u64,
    /// Actions applied.
    pub applied: u64,
    /// Of which canary-targeted.
    pub canary: u64,
    /// Of which fleet-wide (post-promotion).
    pub fleet: u64,
    /// Holds (coverage/no-target).
    pub held: u64,
    /// Blocks (confidence/cooldown/rate/suspension).
    pub blocked: u64,
    /// Validations passed.
    pub validations_passed: u64,
    /// Validations failed.
    pub validations_failed: u64,
    /// Promotions.
    pub promotions: u64,
    /// Demotions.
    pub demotions: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    applied_at: SimTime,
    canary: bool,
    baseline: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct RuleState {
    consecutive: u32,
    promoted: bool,
    pending: Option<Pending>,
}

/// The guarded Response plane: monitors feed it observations, rules map
/// persistent alerts to actuator actions under bounded execution, and
/// every decision lands in its [`AuditLog`]. See the module docs for
/// the contract.
///
/// Parameterized by the **action** type, not the actuator: actuators
/// typically borrow the managed system mutably and are rebuilt per
/// tick (e.g. a borrow split over a cluster), so [`FleetResponder::tick`]
/// accepts any actuator whose `Action` matches.
pub struct FleetResponder<Act: Clone + Debug> {
    cfg: ControlConfig,
    monitors: Vec<Box<dyn FleetMonitor>>,
    rules: Vec<ResponseRule<Act>>,
    state: Vec<RuleState>,
    /// Execution bounds: one budget kind per subsystem.
    guard: Guard,
    log: AuditLog<ControlEvent>,
    complete_observations: u64,
    degraded_observations: u64,
    /// Pre-resolved `control.*` self-telemetry instruments (inert until
    /// [`FleetResponder::set_obs`]).
    tick_ns: LatencyRecorder,
    actuations: Counter,
}

impl<Act: Clone + Debug> FleetResponder<Act> {
    /// Empty responder.
    pub fn new(cfg: ControlConfig) -> Self {
        let mut guard = GuardConfig::unlimited();
        guard.rate_limit = cfg.global_rate.map(|g| (g.window, g.max));
        FleetResponder {
            log: AuditLog::new(cfg.log_capacity),
            cfg,
            monitors: Vec::new(),
            rules: Vec::new(),
            state: Vec::new(),
            guard: Guard::new(guard),
            complete_observations: 0,
            degraded_observations: 0,
            tick_ns: LatencyRecorder::default(),
            actuations: Counter::default(),
        }
    }

    /// Attach a self-telemetry handle: `control.tick_ns` spans every
    /// [`FleetResponder::tick`], `control.actuations` counts applied
    /// actions.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.tick_ns = obs.latency("control.tick_ns");
        self.actuations = obs.counter("control.actuations");
    }

    /// Register a monitor.
    ///
    /// Panics if a monitor of the same name is registered: rules bind to
    /// a monitor by name, so a second one would shadow the first.
    pub fn add_monitor(&mut self, m: Box<dyn FleetMonitor>) -> &mut Self {
        assert!(
            self.monitors.iter().all(|o| o.name() != m.name()),
            "a monitor named '{}' is already registered",
            m.name()
        );
        self.monitors.push(m);
        self
    }

    /// Register a response rule. Its `cooldown` and `rate_limit` become
    /// its subsystem's budget in the guard.
    ///
    /// Panics if the escalation gate is 0, or if another rule on the same
    /// subsystem declared a different budget.
    pub fn add_rule(&mut self, r: ResponseRule<Act>) -> &mut Self {
        assert!(
            r.escalation_gate >= 1,
            "an escalation gate below 1 is meaningless"
        );
        if let Some(o) = self.rules.iter().find(|o| o.subsystem == r.subsystem) {
            assert!(
                o.cooldown == r.cooldown && o.rate_limit == r.rate_limit,
                "rules on subsystem '{}' must share one cooldown and rate limit",
                r.subsystem
            );
        }
        self.guard.set_kind_budget(
            &r.subsystem,
            r.cooldown,
            r.rate_limit.window,
            r.rate_limit.max,
        );
        self.rules.push(r);
        self.state.push(RuleState::default());
        self
    }

    /// The audit trail.
    pub fn log(&self) -> &AuditLog<ControlEvent> {
        &self.log
    }

    /// The confidence floor, as a gate: an alert's confidence is judged
    /// as a [`Confidence`], so a NaN one counts as none.
    fn gate(&self) -> ConfidenceGate {
        ConfidenceGate::new(self.cfg.min_confidence)
    }

    /// Whether a rule has been promoted past canary-only execution.
    pub fn promoted(&self, rule: &str) -> bool {
        self.rules
            .iter()
            .position(|r| r.name == rule)
            .map(|i| self.state[i].promoted)
            .unwrap_or(false)
    }

    /// `(complete, degraded)` observation counts: how many monitor
    /// probes saw the whole fleet vs. a partial view. The chaos
    /// scenarios assert `degraded > 0` under partition *and* that no
    /// action fired from a degraded view.
    pub fn observation_stats(&self) -> (u64, u64) {
        (self.complete_observations, self.degraded_observations)
    }

    /// One Monitor→Analyze→(guard)→Execute→Validate pass at `now`.
    pub fn tick<A: FleetActuator<Action = Act>>(
        &mut self,
        fleet: &FleetAggregator,
        now: SimTime,
        actuator: &mut A,
    ) -> TickReport {
        let _span = self.tick_ns.start();
        let mut report = TickReport::default();
        // Monitor: run every probe once; keep the worst alert per
        // monitor, in monitor order (rules bind per monitor).
        let mut obs: Vec<(f64, Option<FleetAlert>)> = Vec::with_capacity(self.monitors.len());
        for m in &mut self.monitors {
            let o = m.observe(fleet, now);
            let frac = o.coverage.fraction();
            if o.coverage.complete() {
                self.complete_observations += 1;
            } else {
                self.degraded_observations += 1;
            }
            if self.cfg.log_observations {
                record(
                    &mut self.log,
                    now,
                    m.name(),
                    m.subsystem(),
                    ControlEventKind::Observed {
                        alerts: o.alerts.len() as u32,
                        coverage: frac,
                    },
                    format!(
                        "coverage {}/{} ({} stale, {} silent)",
                        o.coverage.contributing,
                        o.coverage.total,
                        o.coverage.stale,
                        o.coverage.silent
                    ),
                );
            }
            let best = o.alerts.into_iter().max_by(|a, b| {
                a.severity
                    .partial_cmp(&b.severity)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            if best.is_some() {
                report.alerts += 1;
            }
            obs.push((frac, best));
        }
        let observed = |monitors: &[Box<dyn FleetMonitor>], name: &str| {
            let k = monitors.iter().position(|m| m.name() == name)?;
            Some(&obs[k])
        };

        // Validate: conclude pending post-action checks against the
        // same fleet metrics that triggered them.
        for i in 0..self.rules.len() {
            let rule = &self.rules[i];
            let Some(p) = self.state[i].pending else {
                continue;
            };
            if now.0 < p.applied_at.0 + rule.settle.0 {
                continue;
            }
            let Some((frac, alert)) = observed(&self.monitors, &rule.monitor) else {
                continue;
            };
            if *frac < self.cfg.min_coverage {
                // A partial view concludes nothing; the deadline is
                // effectively paused until coverage recovers.
                continue;
            }
            let after = alert.as_ref().map(|a| a.severity).unwrap_or(0.0);
            let passed = match alert {
                None => true,
                Some(a) => a.severity <= p.baseline * (1.0 - rule.min_improvement) - 1e-12,
            };
            if passed {
                record(
                    &mut self.log,
                    now,
                    &rule.name,
                    &rule.subsystem,
                    ControlEventKind::ValidationPassed {
                        before: p.baseline,
                        after,
                    },
                    format!("severity {:.3} -> {after:.3}", p.baseline),
                );
                report.validations_passed += 1;
                if p.canary && !self.state[i].promoted {
                    self.state[i].promoted = true;
                    record(
                        &mut self.log,
                        now,
                        &rule.name,
                        &rule.subsystem,
                        ControlEventKind::Promoted,
                        "canary validated; fleet-wide targets unlocked".to_string(),
                    );
                }
                self.state[i].pending = None;
            } else if now.0 >= p.applied_at.0 + rule.validation_deadline.0 {
                record(
                    &mut self.log,
                    now,
                    &rule.name,
                    &rule.subsystem,
                    ControlEventKind::ValidationFailed {
                        before: p.baseline,
                        after,
                    },
                    format!("severity {:.3} -> {after:.3} past deadline", p.baseline),
                );
                report.validations_failed += 1;
                let until = now + rule.cooldown;
                self.state[i].promoted = false;
                self.state[i].pending = None;
                self.guard.suspend(&rule.subsystem, until);
                record(
                    &mut self.log,
                    now,
                    &rule.name,
                    &rule.subsystem,
                    ControlEventKind::Demoted { until },
                    "validation failed: canary-only again, suspended".to_string(),
                );
            }
        }

        // Plan/Execute under the guards.
        for i in 0..self.rules.len() {
            let rule = &self.rules[i];
            let Some((frac, alert)) = observed(&self.monitors, &rule.monitor) else {
                continue;
            };
            let adequate = *frac >= self.cfg.min_coverage;
            let Some(alert) = alert else {
                if adequate {
                    // A healthy, well-covered observation resets the
                    // escalation run; a degraded one proves nothing and
                    // freezes it.
                    self.state[i].consecutive = 0;
                }
                continue;
            };
            if adequate {
                self.state[i].consecutive = self.state[i].consecutive.saturating_add(1);
            }
            record(
                &mut self.log,
                now,
                &rule.name,
                &rule.subsystem,
                ControlEventKind::AlertRaised {
                    severity: alert.severity,
                    confidence: alert.confidence,
                    coverage: *frac,
                },
                alert.detail.clone(),
            );
            if self.state[i].pending.is_some() {
                // One action in flight per rule; validate before more.
                continue;
            }
            let consecutive = self.state[i].consecutive;
            if consecutive < rule.escalation_gate {
                record(
                    &mut self.log,
                    now,
                    &rule.name,
                    &rule.subsystem,
                    ControlEventKind::Escalated {
                        consecutive,
                        gate: rule.escalation_gate,
                    },
                    "alert persists; gate not yet satisfied".to_string(),
                );
                continue;
            }
            if !adequate {
                record(
                    &mut self.log,
                    now,
                    &rule.name,
                    &rule.subsystem,
                    ControlEventKind::Held(BlockReason::Coverage {
                        fraction: *frac,
                        min: self.cfg.min_coverage,
                    }),
                    "partial fleet view: holding actuation until coverage recovers".to_string(),
                );
                report.held += 1;
                continue;
            }
            // The confidence floor, then the execution bounds: one
            // refusal, `Blocked`, with its reason.
            let confidence = Confidence::new(alert.confidence);
            let verdict = self
                .guard
                .judge(self.gate(), confidence, now, &rule.subsystem, 0.0);
            if let Err(reason) = verdict {
                let detail = reason.to_string();
                record(
                    &mut self.log,
                    now,
                    &rule.name,
                    &rule.subsystem,
                    ControlEventKind::Blocked(reason),
                    detail,
                );
                report.blocked += 1;
                continue;
            }
            if alert.nodes.is_empty() {
                record(
                    &mut self.log,
                    now,
                    &rule.name,
                    &rule.subsystem,
                    ControlEventKind::Held(BlockReason::NoTarget),
                    "alert implicated no nodes".to_string(),
                );
                report.held += 1;
                continue;
            }
            // Admitted: the attempt draws from the budget whether the
            // actuator takes it or refuses it — hammering a failing
            // actuator is its own hazard.
            self.guard.commit(now, &rule.subsystem, 0.0);
            let canary = !self.state[i].promoted;
            let target = if canary {
                ActionTarget::Canary(alert.nodes[0])
            } else {
                ActionTarget::Fleet(alert.nodes.clone())
            };
            match actuator.apply(now, &target, &rule.action) {
                Ok(receipt) => {
                    record(
                        &mut self.log,
                        now,
                        &rule.name,
                        &rule.subsystem,
                        ControlEventKind::Applied {
                            canary,
                            nodes: target.node_count() as u32,
                            escalation: consecutive,
                            gate: rule.escalation_gate,
                            coverage: *frac,
                            confidence: confidence.value(),
                        },
                        format!("{:?} on {target:?}: {receipt}", rule.action),
                    );
                    report.applied += 1;
                    self.actuations.add(1);
                    self.state[i].pending = Some(Pending {
                        applied_at: now,
                        canary,
                        baseline: alert.severity,
                    });
                    self.state[i].consecutive = 0;
                }
                Err(reason) => {
                    record(
                        &mut self.log,
                        now,
                        &rule.name,
                        &rule.subsystem,
                        ControlEventKind::ActionFailed,
                        reason,
                    );
                    report.failed += 1;
                }
            }
        }
        report
    }

    /// Replay the retained audit trail and certify it. The execution
    /// bounds are replayed through a fresh [`Guard`] of the live one's
    /// configuration, behind the same confidence gate ([`Guard::judge`]):
    /// every `Applied` and `ActionFailed` must be admitted again, and is
    /// committed, because it drew the budget; every `Blocked` must be
    /// refused again for the same [`BlockReason`], so a guard that
    /// over-blocks is caught too; every `Demoted { until }` suspends its
    /// subsystem. Beside the replay stand the responder's own rules:
    /// canary-first ordering, promotion only after a passed canary
    /// validation, the escalation gate, the coverage floor and a finite
    /// confidence at apply time, and apply→validation completeness. A
    /// truncated trail is refused. Returns the summary, or every
    /// violation found.
    pub fn verify_audit(&self) -> Result<AuditSummary, Vec<String>> {
        let mut errors = Vec::new();
        if self.log.dropped() > 0 {
            errors.push(format!(
                "trail truncated: ring dropped {} events",
                self.log.dropped()
            ));
        }
        let rule_of = |name: &str| self.rules.iter().find(|r| r.name == name);
        let gate = self.gate();
        let mut guard = Guard::new(self.guard.config().clone());
        let said =
            |r: Option<&BlockReason>| r.map_or("admitted".into(), |r| format!("refused ({r})"));
        let mut summary = AuditSummary::default();
        let mut promoted: HashMap<&str, bool> = HashMap::new();
        let mut last_validation: HashMap<&str, (bool, bool)> = HashMap::new(); // (passed, was_canary)
        let mut pending: HashMap<&str, (SimTime, bool)> = HashMap::new(); // applied_at, canary
        let mut end_t = SimTime::ZERO;
        for AuditEvent { seq, t, decision } in self.log.events() {
            let ControlEvent {
                rule,
                subsystem,
                kind,
                ..
            } = decision;
            summary.events += 1;
            end_t = end_t.max(t);
            // Ask the replaying guard what the live one was asked: with
            // the confidence the event records (1.0 where it records
            // none: the gate had passed), expecting the refusal it
            // records, if any. A non-finite confidence is refused below.
            let live = match kind {
                ControlEventKind::Applied { confidence: c, .. } if c.is_finite() => {
                    Some((*c, None))
                }
                ControlEventKind::ActionFailed => Some((1.0, None)),
                ControlEventKind::Blocked(r @ BlockReason::LowConfidence { confidence: c, .. }) => {
                    Some((*c, Some(r)))
                }
                ControlEventKind::Blocked(r) => Some((1.0, Some(r))),
                _ => None,
            };
            if let Some((c, refused)) = live {
                let again = guard
                    .judge(gate, Confidence::new(c), t, subsystem, 0.0)
                    .err();
                if again.as_ref() != refused {
                    let (was, replayed) = (said(refused), said(again.as_ref()));
                    errors.push(format!(
                        "#{seq}: {rule} was {was}, but the guard replays it {replayed}"
                    ));
                }
            }
            match kind {
                ControlEventKind::Applied {
                    canary,
                    escalation,
                    gate,
                    coverage,
                    confidence,
                    ..
                } => {
                    guard.commit(t, subsystem, 0.0);
                    summary.applied += 1;
                    summary.canary += *canary as u64;
                    summary.fleet += !*canary as u64;
                    if !confidence.is_finite() {
                        errors.push(format!(
                            "#{seq}: {rule} applied at a non-finite confidence {confidence}"
                        ));
                    }
                    if rule_of(rule).is_none() {
                        errors.push(format!("#{seq}: apply from unknown rule {rule}"));
                        continue;
                    }
                    if !*canary && !promoted.get(rule.as_str()).copied().unwrap_or(false) {
                        errors.push(format!(
                            "#{seq}: fleet-wide apply of {rule} without prior promotion"
                        ));
                    }
                    if escalation < gate {
                        errors.push(format!(
                            "#{seq}: {rule} applied below its escalation gate ({escalation} < {gate})"
                        ));
                    }
                    if *coverage < self.cfg.min_coverage - 1e-9 {
                        errors.push(format!(
                            "#{seq}: {rule} applied at coverage {coverage:.3} below floor {:.3}",
                            self.cfg.min_coverage
                        ));
                    }
                    if pending.insert(rule.as_str(), (t, *canary)).is_some() {
                        errors.push(format!(
                            "#{seq}: {rule} applied while a prior action was still unvalidated"
                        ));
                    }
                }
                ControlEventKind::ValidationPassed { .. }
                | ControlEventKind::ValidationFailed { .. } => {
                    let passed = matches!(kind, ControlEventKind::ValidationPassed { .. });
                    summary.validations_passed += passed as u64;
                    summary.validations_failed += !passed as u64;
                    match pending.remove(rule.as_str()) {
                        Some((_, was_canary)) => {
                            last_validation.insert(rule.as_str(), (passed, was_canary));
                        }
                        None => errors.push(format!(
                            "#{seq}: validation for {rule} without a pending action"
                        )),
                    }
                    if !passed {
                        promoted.insert(rule.as_str(), false);
                    }
                }
                ControlEventKind::Promoted => {
                    summary.promotions += 1;
                    match last_validation.get(rule.as_str()) {
                        Some((true, true)) => {
                            promoted.insert(rule.as_str(), true);
                        }
                        _ => errors.push(format!(
                            "#{seq}: {rule} promoted without a passed canary validation"
                        )),
                    }
                }
                ControlEventKind::Demoted { until } => {
                    summary.demotions += 1;
                    promoted.insert(rule.as_str(), false);
                    guard.suspend(subsystem, *until);
                }
                ControlEventKind::ActionFailed => guard.commit(t, subsystem, 0.0),
                ControlEventKind::Held(_) => summary.held += 1,
                ControlEventKind::Blocked(_) => summary.blocked += 1,
                _ => {}
            }
        }
        for (rule, (applied_at, _)) in &pending {
            if let Some(r) = rule_of(rule) {
                if end_t.0 >= applied_at.0 + r.settle.0 + r.validation_deadline.0 {
                    errors.push(format!(
                        "{rule}: action at {applied_at} never concluded validation by the trail's end"
                    ));
                }
            }
        }
        if errors.is_empty() {
            Ok(summary)
        } else {
            Err(errors)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moda_telemetry::{MetricMeta, SourceDomain};

    /// Fleet of `n` nodes exporting one gauge `m`; node `k` holds 1 Hz
    /// samples at value `base + k*spread` up to `until_s`, so staleness
    /// per node is controlled by the caller's `now`.
    fn fleet(n: u32, until_s: &[u64], base: f64, spread: f64) -> FleetAggregator {
        let mut agg = FleetAggregator::new();
        for k in 0..n {
            let node = agg.add_node(&format!("node{k:02}"));
            let until = until_s[k as usize];
            if until == 0 {
                continue; // silent: session open, nothing ingested
            }
            let mut db = moda_telemetry::Tsdb::with_retention(1 << 12);
            let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
            for s in 1..=until {
                db.insert(id, SimTime::from_secs(s), base + k as f64 * spread);
            }
            let mut sink = moda_telemetry::export::MemorySink::new();
            moda_telemetry::Exporter::new()
                .drain(&db, &mut sink)
                .unwrap();
            for b in &sink.batches {
                agg.ingest(node, b);
            }
        }
        agg
    }

    #[test]
    fn covered_queries_exclude_stale_and_silent_nodes() {
        // node0 live to 600 s, node1 stale (stops at 100 s), node2 silent.
        let agg = fleet(3, &[600, 100, 0], 10.0, 10.0);
        let now = SimTime::from_secs(600);
        let stale_after = SimDuration::from_secs(120);
        let cv = agg.covered_window_agg(
            "m",
            now,
            SimDuration::from_secs(600),
            WindowAgg::Count,
            stale_after,
        );
        // Only node0 contributes: 600 samples — node1's 100 in-window
        // samples are stale and must not leak in.
        assert_eq!(cv.value, Some(600.0));
        assert_eq!(cv.coverage.total, 3);
        assert_eq!(cv.coverage.contributing, 1);
        assert_eq!(cv.coverage.stale, 1);
        assert_eq!(cv.coverage.silent, 1);
        assert!(!cv.coverage.complete());
        assert!((cv.coverage.fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            cv.coverage.excluded,
            vec![
                (NodeId(1), NodeLiveness::Stale),
                (NodeId(2), NodeLiveness::Silent)
            ]
        );
        // The plain (uncovered) query would have pooled the stale data.
        let naive = agg
            .store()
            .fleet_window_agg("m", now, SimDuration::from_secs(600), WindowAgg::Count)
            .unwrap();
        assert_eq!(naive, 700.0);
        // Ranking likewise only sees the contributing subset.
        let (ranked, cov) = agg.covered_top_nodes(
            "m",
            now,
            SimDuration::from_secs(600),
            WindowAgg::Max,
            10,
            Rank::Highest,
            stale_after,
        );
        assert_eq!(ranked, vec![(NodeId(0), 10.0)]);
        assert_eq!(cov.contributing, 1);
    }

    #[test]
    fn threshold_monitor_derates_confidence_by_coverage() {
        let agg = fleet(2, &[600, 0], 50.0, 0.0);
        let mut m = ThresholdMonitor {
            name: "power".into(),
            subsystem: "power".into(),
            metric: "m".into(),
            window: SimDuration::from_secs(60),
            agg: WindowAgg::Mean,
            bound: Bound::Above(40.0),
            stale_after: SimDuration::from_secs(120),
            base_confidence: 0.9,
        };
        let o = m.observe(&agg, SimTime::from_secs(600));
        assert_eq!(o.alerts.len(), 1);
        let a = &o.alerts[0];
        assert!((a.severity - 50.0 / 40.0).abs() < 1e-9);
        // Half the fleet is silent: confidence is halved.
        assert!((a.confidence - 0.45).abs() < 1e-9, "{}", a.confidence);
        assert_eq!(a.nodes, vec![NodeId(0)]);
    }

    #[test]
    fn straggler_monitor_flags_the_deviant_node() {
        // Nodes at 10, 10, 10, 35: node3 is 3.5x the median.
        let agg = fleet(4, &[600, 600, 600, 600], 10.0, 0.0);
        // Overwrite node3's value by rebuilding: use spread on last
        // node via a dedicated fleet.
        let mut agg2 = FleetAggregator::new();
        for (k, v) in [10.0, 10.0, 10.0, 35.0].iter().enumerate() {
            let node = agg2.add_node(&format!("node{k:02}"));
            let mut db = moda_telemetry::Tsdb::with_retention(1 << 12);
            let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
            for s in 1..=600u64 {
                db.insert(id, SimTime::from_secs(s), *v);
            }
            let mut sink = moda_telemetry::export::MemorySink::new();
            moda_telemetry::Exporter::new()
                .drain(&db, &mut sink)
                .unwrap();
            for b in &sink.batches {
                agg2.ingest(node, b);
            }
        }
        drop(agg);
        let mut m = StragglerMonitor {
            name: "straggler".into(),
            subsystem: "nodes".into(),
            metric: "m".into(),
            window: SimDuration::from_secs(300),
            agg: WindowAgg::Mean,
            rank: Rank::Highest,
            ratio: 2.0,
            min_nodes: 3,
            stale_after: SimDuration::from_secs(120),
            base_confidence: 0.9,
        };
        let o = m.observe(&agg2, SimTime::from_secs(600));
        assert_eq!(o.alerts.len(), 1);
        let a = &o.alerts[0];
        assert_eq!(a.nodes, vec![NodeId(3)]);
        assert!((a.severity - 35.0 / 20.0).abs() < 1e-9);
        assert!(o.coverage.complete());
    }

    // A scripted actuator for responder tests.
    struct ScriptedActuator {
        applies: Vec<(SimTime, ActionTarget, &'static str)>,
        fail_next: bool,
    }

    impl FleetActuator for ScriptedActuator {
        type Action = &'static str;

        fn apply(
            &mut self,
            now: SimTime,
            target: &ActionTarget,
            action: &Self::Action,
        ) -> Result<String, String> {
            if self.fail_next {
                self.fail_next = false;
                return Err("actuator refused".into());
            }
            self.applies.push((now, target.clone(), action));
            Ok(format!("did {action}"))
        }
    }

    /// A monitor driven by a script: (severity, coverage_fraction) per
    /// tick; severity 0 = healthy.
    struct ScriptMonitor {
        name: &'static str,
        script: Vec<(f64, f64)>,
        i: usize,
    }

    impl FleetMonitor for ScriptMonitor {
        fn name(&self) -> &str {
            self.name
        }

        fn subsystem(&self) -> &str {
            "sub"
        }

        fn observe(&mut self, _fleet: &FleetAggregator, _now: SimTime) -> Observation {
            let (sev, frac) = self.script[self.i.min(self.script.len() - 1)];
            self.i += 1;
            let total = 4;
            let contributing = (frac * total as f64).round() as usize;
            let coverage = Coverage {
                total,
                contributing,
                stale: total - contributing,
                excluded: (contributing..total)
                    .map(|k| (NodeId(k as u32), NodeLiveness::Stale))
                    .collect(),
                ..Coverage::default()
            };
            let alerts = if sev > 1.0 {
                vec![FleetAlert {
                    monitor: self.name.into(),
                    subsystem: "sub".into(),
                    detail: format!("sev {sev}"),
                    severity: sev,
                    nodes: vec![NodeId(0), NodeId(1)],
                    confidence: 0.9 * frac,
                }]
            } else {
                vec![]
            };
            Observation { alerts, coverage }
        }
    }

    fn responder(script: Vec<(f64, f64)>) -> FleetResponder<&'static str> {
        let mut r = FleetResponder::new(ControlConfig {
            min_confidence: 0.5,
            min_coverage: 0.75,
            ..ControlConfig::default()
        });
        r.add_monitor(Box::new(ScriptMonitor {
            name: "scripted",
            script,
            i: 0,
        }));
        let mut rule = ResponseRule::new("fix", "scripted", "sub", "remediate");
        rule.escalation_gate = 2;
        rule.cooldown = SimDuration::from_mins(10);
        rule.rate_limit = RateLimit {
            window: SimDuration::from_hours(1),
            max: 2,
        };
        rule.settle = SimDuration::from_mins(5);
        rule.validation_deadline = SimDuration::from_mins(30);
        rule.min_improvement = 0.0;
        r.add_rule(rule);
        r
    }

    fn tick_n(
        r: &mut FleetResponder<&'static str>,
        act: &mut ScriptedActuator,
        n: usize,
        period_s: u64,
    ) -> Vec<TickReport> {
        let agg = FleetAggregator::new();
        (0..n)
            .map(|i| r.tick(&agg, SimTime::from_secs((i as u64 + 1) * period_s), act))
            .collect()
    }

    /// A monitor that raises the same alert, at full coverage, with a
    /// fixed confidence on every pass.
    struct SureMonitor(f64);

    impl FleetMonitor for SureMonitor {
        fn name(&self) -> &str {
            "sure"
        }

        fn subsystem(&self) -> &str {
            "sub"
        }

        fn observe(&mut self, _fleet: &FleetAggregator, _now: SimTime) -> Observation {
            Observation {
                alerts: vec![FleetAlert {
                    monitor: "sure".into(),
                    subsystem: "sub".into(),
                    detail: "breach".into(),
                    severity: 2.0,
                    nodes: vec![NodeId(0)],
                    confidence: self.0,
                }],
                coverage: Coverage {
                    total: 1,
                    contributing: 1,
                    ..Coverage::default()
                },
            }
        }
    }

    #[test]
    fn an_alert_below_the_confidence_floor_is_blocked_even_when_nan() {
        for confidence in [f64::NAN, 0.3] {
            let mut r = FleetResponder::new(ControlConfig::default());
            r.add_monitor(Box::new(SureMonitor(confidence)));
            r.add_rule(ResponseRule::new("fix", "sure", "sub", "remediate"));
            let mut act = ScriptedActuator {
                applies: vec![],
                fail_next: false,
            };
            // Gate 2: the second pass is the first that may actuate.
            let reports = tick_n(&mut r, &mut act, 2, 600);
            assert!(act.applies.is_empty(), "{confidence}: applied");
            let blocked: Vec<&BlockReason> = r
                .log()
                .events()
                .filter_map(|e| match &e.decision.kind {
                    ControlEventKind::Blocked(reason) => Some(reason),
                    _ => None,
                })
                .collect();
            let judged = Confidence::new(confidence).value();
            assert_eq!(
                blocked,
                vec![&BlockReason::LowConfidence {
                    confidence: judged,
                    threshold: 0.5
                }],
                "{confidence}"
            );
            assert_eq!(reports[1].blocked, 1, "{confidence}");
            assert_eq!(reports[1].held, 0, "{confidence}");
            let summary = r.verify_audit().expect("trail certifies");
            assert_eq!((summary.blocked, summary.held), (1, 0), "{confidence}");
        }
    }

    #[test]
    fn verify_audit_refuses_a_non_finite_apply_confidence() {
        for confidence in [f64::NAN, f64::INFINITY] {
            let mut r = responder(vec![(0.0, 1.0)]);
            let kind = ControlEventKind::Applied {
                canary: true,
                nodes: 1,
                escalation: 2,
                gate: 2,
                coverage: 1.0,
                confidence,
            };
            record(
                &mut r.log,
                SimTime::from_mins(10),
                "fix",
                "sub",
                kind,
                "forged".into(),
            );
            let errors = r.verify_audit().expect_err("forgery detected");
            assert_eq!(errors.len(), 1, "{errors:?}");
            assert!(errors[0].contains("non-finite"), "{errors:?}");
        }
    }

    #[test]
    fn canary_first_then_promoted_fleet_action() {
        // Alert persists; after the canary the severity improves and
        // the alert later clears, then returns — the second action is
        // fleet-wide.
        let mut r = responder(vec![
            (2.0, 1.0), // escalation 1/2
            (2.0, 1.0), // gate satisfied -> canary apply
            (1.5, 1.0), // validation (improved) -> promoted
            (0.0, 1.0),
            (2.0, 1.0), // escalation 1/2
            (2.0, 1.0), // fleet apply (cooldown: 10 min, ticks 5 min apart... )
            (0.0, 1.0), // validation passes (cleared)
            (0.0, 1.0),
        ]);
        let mut act = ScriptedActuator {
            applies: vec![],
            fail_next: false,
        };
        let reports = tick_n(&mut r, &mut act, 8, 600);
        assert_eq!(reports.iter().map(|t| t.applied).sum::<usize>(), 2);
        assert_eq!(act.applies.len(), 2);
        assert!(matches!(act.applies[0].1, ActionTarget::Canary(NodeId(0))));
        assert!(matches!(&act.applies[1].1, ActionTarget::Fleet(nodes) if nodes.len() == 2));
        assert!(r.promoted("fix"));
        let summary = r.verify_audit().expect("trail certifies");
        assert_eq!(summary.applied, 2);
        assert_eq!(summary.canary, 1);
        assert_eq!(summary.fleet, 1);
        assert_eq!(summary.promotions, 1);
        assert_eq!(summary.validations_passed, 2);
        // Every apply, and nothing else, is announced to the humans on
        // the loop, oldest first, with the apply's own rationale.
        let applied: Vec<AuditEvent<&ControlEvent>> = r
            .log()
            .events()
            .filter(|e| matches!(e.decision.kind, ControlEventKind::Applied { .. }))
            .collect();
        let notes = r.log().notifications();
        assert_eq!(notes.len(), applied.len());
        assert_eq!(notes[0].subject, "sub/fix: applied canary action");
        assert_eq!(notes[1].subject, "sub/fix: applied fleet-wide action");
        for (n, e) in notes.iter().zip(&applied) {
            assert_eq!(n.t, e.t);
            assert_eq!(n.explanation, e.decision.detail);
            assert!(n.proceeded);
        }
    }

    #[test]
    fn escalation_gate_and_cooldown_bound_execution() {
        // A one-tick blip never fires (gate 2); a persistent alert
        // fires once, then the cooldown blocks the immediate retry.
        let mut r = responder(vec![
            (2.0, 1.0),
            (0.0, 1.0), // blip: reset
            (2.0, 1.0),
            (2.0, 1.0), // apply (canary)
            (2.0, 1.0), // pending validation -> no second apply
        ]);
        let mut act = ScriptedActuator {
            applies: vec![],
            fail_next: false,
        };
        // 2-minute ticks: validation settle (5 min) keeps the rule
        // pending through the last tick.
        tick_n(&mut r, &mut act, 5, 120);
        assert_eq!(act.applies.len(), 1);
        let esc = r
            .log()
            .count(|e| matches!(e.kind, ControlEventKind::Escalated { .. }));
        assert!(esc >= 2, "gate progress is audited ({esc})");
    }

    #[test]
    fn coverage_hold_keeps_the_loop_from_acting_on_partial_views() {
        // The alert rages on, but 2/4 nodes are out: every pass holds.
        let mut r = responder(vec![(3.0, 0.5); 6]);
        let mut act = ScriptedActuator {
            applies: vec![],
            fail_next: false,
        };
        let reports = tick_n(&mut r, &mut act, 6, 600);
        assert_eq!(act.applies.len(), 0);
        // Gate freezes below adequate coverage, so the rule parks in
        // escalation, never reaching the coverage hold... unless the
        // gate was already satisfied. Either way: zero actions, and the
        // trail shows only Escalated/Held.
        assert_eq!(reports.iter().map(|t| t.applied).sum::<usize>(), 0);
        let (complete, degraded) = r.observation_stats();
        assert_eq!(complete, 0);
        assert_eq!(degraded, 6);
        r.verify_audit().expect("no-action trail certifies");
    }

    #[test]
    fn coverage_recovery_releases_held_actuation() {
        // Partition first (coverage 0.5), then recovery: the action
        // fires only after coverage returns.
        let mut r = responder(vec![
            (3.0, 0.5),
            (3.0, 0.5),
            (3.0, 0.5),
            (3.0, 1.0), // escalation 1/2
            (3.0, 1.0), // apply
            (1.0, 1.0),
        ]);
        let mut act = ScriptedActuator {
            applies: vec![],
            fail_next: false,
        };
        tick_n(&mut r, &mut act, 6, 600);
        assert_eq!(act.applies.len(), 1);
        assert_eq!(act.applies[0].0, SimTime::from_secs(5 * 600));
        let summary = r.verify_audit().expect("trail certifies");
        assert_eq!(summary.applied, 1);
    }

    #[test]
    fn failed_validation_demotes_and_suspends() {
        let mut r = responder(vec![
            (2.0, 1.0),
            (2.0, 1.0), // canary apply at t=2
            (2.5, 1.0), // worse...
            (2.5, 1.0),
            (2.5, 1.0), // deadline (30 min) passes -> failed, demoted
            (2.5, 1.0), // suspended
            (2.5, 1.0),
        ]);
        let mut act = ScriptedActuator {
            applies: vec![],
            fail_next: false,
        };
        tick_n(&mut r, &mut act, 7, 600);
        assert!(!r.promoted("fix"));
        let summary = r.verify_audit().expect("trail certifies");
        assert_eq!(summary.validations_failed, 1);
        assert_eq!(summary.demotions, 1);
        assert!(summary.blocked >= 1, "suspension shows in the trail");
        assert!(r.log().events().any(|e| matches!(
            &e.decision.kind,
            ControlEventKind::Blocked(BlockReason::Suspended { kind, .. }) if kind == "sub"
        )));
        // The canary fired once at t=2; while suspended (t=5..6) the
        // rule is blocked; once the suspension lifts, a re-fire is
        // allowed but must be canary-only again — the demotion stuck.
        assert!(!act.applies.is_empty());
        assert!(matches!(act.applies[0].1, ActionTarget::Canary(_)));
        assert_eq!(act.applies[0].0, SimTime::from_secs(2 * 600));
        for (t, target, _) in &act.applies[1..] {
            assert!(*t >= SimTime::from_secs(6 * 600), "suspension held: {t}");
            assert!(matches!(target, ActionTarget::Canary(_)));
        }
    }

    /// Two rules bound to the scripted monitor, on `subs[0]` and
    /// `subs[1]`, under the `responder` budgets and `cfg`.
    fn two_rules(cfg: ControlConfig, subs: [&'static str; 2]) -> FleetResponder<&'static str> {
        let mut r = FleetResponder::new(cfg);
        r.add_monitor(Box::new(ScriptMonitor {
            name: "scripted",
            script: vec![(2.0, 1.0); 4],
            i: 0,
        }));
        for (name, sub) in ["fix", "fix2"].into_iter().zip(subs) {
            let mut rule = ResponseRule::new(name, "scripted", sub, name);
            rule.cooldown = SimDuration::from_mins(10);
            r.add_rule(rule);
        }
        r
    }

    fn blocks(r: &FleetResponder<&'static str>) -> Vec<(String, BlockReason)> {
        r.log()
            .events()
            .filter_map(|e| match &e.decision.kind {
                ControlEventKind::Blocked(reason) => {
                    Some((e.decision.rule.clone(), reason.clone()))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn rules_on_one_subsystem_share_its_cooldown() {
        let mut r = two_rules(ControlConfig::default(), ["sub", "sub"]);
        let mut act = ScriptedActuator {
            applies: vec![],
            fail_next: false,
        };
        tick_n(&mut r, &mut act, 2, 120);
        // `fix` fires at the gate; `fix2` reaches it in the same tick
        // and finds the subsystem's cooldown running.
        assert_eq!(act.applies.len(), 1);
        assert_eq!(act.applies[0].2, "fix");
        assert_eq!(
            blocks(&r),
            vec![(
                "fix2".to_string(),
                BlockReason::MinGap {
                    kind: "sub".into(),
                    gap: SimDuration::from_mins(10),
                }
            )]
        );
        r.verify_audit().expect("trail certifies");
    }

    #[test]
    fn the_global_rate_spans_subsystems() {
        let global = RateLimit {
            window: SimDuration::from_hours(1),
            max: 1,
        };
        let cfg = ControlConfig {
            global_rate: Some(global),
            ..ControlConfig::default()
        };
        let mut r = two_rules(cfg, ["sub", "other"]);
        let mut act = ScriptedActuator {
            applies: vec![],
            fail_next: false,
        };
        tick_n(&mut r, &mut act, 2, 120);
        assert_eq!(act.applies.len(), 1);
        assert_eq!(
            blocks(&r),
            vec![(
                "fix2".to_string(),
                BlockReason::RateLimit {
                    kind: None,
                    window: global.window,
                    limit: 1,
                }
            )]
        );
    }

    #[test]
    #[should_panic(expected = "a monitor named 'scripted' is already registered")]
    fn monitors_must_have_distinct_names() {
        let mut r = responder(vec![(2.0, 1.0)]);
        r.add_monitor(Box::new(ScriptMonitor {
            name: "scripted",
            script: vec![(0.0, 1.0)],
            i: 0,
        }));
    }

    #[test]
    fn two_named_monitors_each_escalate_their_own_rule() {
        let mut r = FleetResponder::new(ControlConfig::default());
        for (monitor, rule, sub) in [("hot", "cool", "power"), ("slow", "drain", "io")] {
            r.add_monitor(Box::new(ScriptMonitor {
                name: monitor,
                script: vec![(2.0, 1.0); 4],
                i: 0,
            }));
            let mut rule = ResponseRule::new(rule, monitor, sub, rule);
            rule.escalation_gate = 2;
            r.add_rule(rule);
        }
        // A rule naming no registered monitor stays inert.
        r.add_rule(ResponseRule::new("orphan", "absent", "other", "orphan"));
        let mut act = ScriptedActuator {
            applies: vec![],
            fail_next: false,
        };
        let reports = tick_n(&mut r, &mut act, 2, 120);
        assert_eq!(reports[0].alerts, 2);
        let escalated: Vec<&str> = r
            .log()
            .events()
            .filter(|e| matches!(e.decision.kind, ControlEventKind::Escalated { .. }))
            .map(|e| e.decision.rule.as_str())
            .collect();
        assert_eq!(escalated, ["cool", "drain"]);
        let applied: Vec<&str> = act.applies.iter().map(|a| a.2).collect();
        assert_eq!(applied, ["cool", "drain"]);
        assert!(r.log().events().all(|e| e.decision.rule != "orphan"));
        r.verify_audit().expect("trail certifies");
    }

    /// The reference `covered_members`: coverage read off a full
    /// [`FleetAggregator::health`] report, members looked up in a
    /// node-keyed map. The one liveness pass must match it.
    fn covered_members_via_health(
        fleet: &FleetAggregator,
        local_name: &str,
        now: SimTime,
        stale_after: SimDuration,
    ) -> (Vec<MetricId>, Coverage) {
        let store = fleet.store();
        let mut by_node: HashMap<NodeId, MetricId> = HashMap::new();
        for &id in store.logical_members(local_name) {
            by_node.insert(store.info(id).node, id);
        }
        let mut cov = Coverage {
            total: fleet.node_count(),
            ..Coverage::default()
        };
        let mut members = Vec::new();
        let health = fleet.health(now, stale_after);
        for n in &health.nodes {
            match n.liveness {
                NodeLiveness::Live => match by_node.get(&n.node) {
                    Some(&id) => {
                        cov.contributing += 1;
                        members.push(id);
                    }
                    None => cov.missing += 1,
                },
                NodeLiveness::Stale => {
                    cov.stale += 1;
                    cov.excluded.push((n.node, NodeLiveness::Stale));
                }
                NodeLiveness::Silent => {
                    cov.silent += 1;
                    cov.excluded.push((n.node, NodeLiveness::Silent));
                }
            }
        }
        (members, cov)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The liveness pass returns the members, in the order, and the
        /// `Coverage` the health-built oracle does — over live nodes,
        /// stale ones, ones that shipped their registry and no sample,
        /// ones that never shipped a batch, and nodes that export one
        /// axis, the other, both or neither; at lags on, inside and past
        /// the staleness bound, for each axis and one no node exports.
        #[test]
        fn covered_members_matches_the_health_built_oracle(
            nodes in proptest::prop::collection::vec((0u8..4, 0u8..4, 0u64..400), 0..12),
            stale_after_s in 0u64..300,
        ) {
            let mut agg = FleetAggregator::new();
            for (k, &(state, axes, lag)) in nodes.iter().enumerate() {
                let node = agg.add_node(&format!("node{k:02}"));
                if state == 0 {
                    continue; // never shipped a batch
                }
                let mut db = moda_telemetry::Tsdb::with_retention(1 << 12);
                let mut ids = Vec::new();
                for (bit, axis) in [(1, "m"), (2, "other")] {
                    if axes & bit != 0 {
                        ids.push(db.register(MetricMeta::gauge(axis, "u", SourceDomain::Hardware)));
                    }
                }
                if state > 1 {
                    // Samples up to `lag` before `now`; a registry-only
                    // node has none.
                    for s in 1..=600 - lag {
                        for &id in &ids {
                            db.insert(id, SimTime::from_secs(s), s as f64 + k as f64);
                        }
                    }
                }
                let mut sink = moda_telemetry::export::MemorySink::new();
                moda_telemetry::Exporter::new().drain(&db, &mut sink).unwrap();
                for b in &sink.batches {
                    agg.ingest(node, b);
                }
            }
            let now = SimTime::from_secs(600);
            let stale_after = SimDuration::from_secs(stale_after_s);
            for axis in ["m", "other", "absent"] {
                let got = agg.covered_members(axis, now, stale_after);
                let want = covered_members_via_health(&agg, axis, now, stale_after);
                proptest::prop_assert_eq!(&got, &want, "axis {}", axis);
                let c = &got.1;
                proptest::prop_assert_eq!(c.total, nodes.len());
                proptest::prop_assert_eq!(c.contributing + c.missing + c.stale + c.silent, c.total);
            }
        }
    }

    #[test]
    #[should_panic(expected = "must share one cooldown and rate limit")]
    fn rules_on_one_subsystem_must_declare_one_budget() {
        let mut r: FleetResponder<&'static str> = FleetResponder::new(ControlConfig::default());
        r.add_rule(ResponseRule::new("a", "m", "sub", "x"));
        let mut b = ResponseRule::new("b", "m", "sub", "y");
        b.cooldown = SimDuration::from_mins(5);
        r.add_rule(b);
    }

    #[test]
    fn verify_audit_catches_a_doctored_trail() {
        let mut r = responder(vec![(2.0, 1.0); 3]);
        let mut act = ScriptedActuator {
            applies: vec![],
            fail_next: false,
        };
        tick_n(&mut r, &mut act, 3, 600);
        // Forge a fleet-wide apply without promotion.
        record(
            &mut r.log,
            SimTime::from_hours(2),
            "fix",
            "sub",
            ControlEventKind::Applied {
                canary: false,
                nodes: 4,
                escalation: 0,
                gate: 2,
                coverage: 0.5,
                confidence: 0.1,
            },
            "forged".into(),
        );
        let errors = r.verify_audit().expect_err("forgery detected");
        assert!(errors.iter().any(|e| e.contains("without prior promotion")));
        assert!(errors.iter().any(|e| e.contains("escalation gate")));
        assert!(errors.iter().any(|e| e.contains("coverage")));
        assert!(errors.iter().any(|e| e.contains("confidence")));
    }

    #[test]
    fn actuator_failure_is_audited_and_draws_budget() {
        let mut r = responder(vec![(2.0, 1.0); 4]);
        let mut act = ScriptedActuator {
            applies: vec![],
            fail_next: true,
        };
        let reports = tick_n(&mut r, &mut act, 4, 120);
        assert_eq!(reports.iter().map(|t| t.failed).sum::<usize>(), 1);
        assert_eq!(
            r.log()
                .count(|e| matches!(e.kind, ControlEventKind::ActionFailed)),
            1
        );
        // The failure started the cooldown: the immediate retry blocks.
        assert!(reports.iter().map(|t| t.blocked).sum::<usize>() >= 1);
        // Nothing was applied, so nobody is told an action happened.
        assert!(r.log().notifications().is_empty());
    }

    /// Forge a canary apply of `rule` on `sub` at `t` that clears the
    /// gate and both floors.
    fn forge_apply(r: &mut FleetResponder<&'static str>, t: SimTime, rule: &str, sub: &str) {
        let kind = ControlEventKind::Applied {
            canary: true,
            nodes: 1,
            escalation: 2,
            gate: 2,
            coverage: 1.0,
            confidence: 0.9,
        };
        record(&mut r.log, t, rule, sub, kind, "forged".into());
    }

    #[test]
    fn verify_audit_catches_a_forged_global_rate_breach() {
        let cfg = ControlConfig {
            global_rate: Some(RateLimit {
                window: SimDuration::from_hours(1),
                max: 1,
            }),
            ..ControlConfig::default()
        };
        let mut r = two_rules(cfg, ["sub", "other"]);
        forge_apply(&mut r, SimTime::from_mins(10), "fix", "sub");
        forge_apply(&mut r, SimTime::from_mins(11), "fix2", "other");
        let errors = r.verify_audit().expect_err("forgery detected");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("global rate budget"), "{errors:?}");
    }

    #[test]
    fn verify_audit_catches_an_apply_while_suspended() {
        let mut r = responder(vec![(0.0, 1.0)]);
        forge_apply(&mut r, SimTime::from_mins(10), "fix", "sub");
        let (before, after) = (2.0, 2.5);
        let failed = ControlEventKind::ValidationFailed { before, after };
        let until = SimTime::from_hours(1);
        let t = SimTime::from_mins(50);
        record(&mut r.log, t, "fix", "sub", failed, "forged".into());
        let demoted = ControlEventKind::Demoted { until };
        record(&mut r.log, t, "fix", "sub", demoted, "forged".into());
        forge_apply(&mut r, SimTime::from_mins(55), "fix", "sub");
        let errors = r.verify_audit().expect_err("forgery detected");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("suspended until"), "{errors:?}");
    }

    #[test]
    fn verify_audit_catches_a_block_the_guard_would_not_make() {
        let mut r = responder(vec![(0.0, 1.0)]);
        let gap = SimDuration::from_mins(10);
        let kind = ControlEventKind::Blocked(BlockReason::MinGap {
            kind: "sub".into(),
            gap,
        });
        let t = SimTime::from_mins(10);
        record(&mut r.log, t, "fix", "sub", kind, "forged".into());
        let errors = r.verify_audit().expect_err("an over-block is detected");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].starts_with("#0: "), "{errors:?}");
        assert!(errors[0].contains("replays it admitted"), "{errors:?}");
    }

    #[test]
    fn verify_audit_counts_a_failed_attempt_against_the_cooldown() {
        let mut r = responder(vec![(0.0, 1.0)]);
        let t = SimTime::from_mins(10);
        let failed = ControlEventKind::ActionFailed;
        record(&mut r.log, t, "fix", "sub", failed, "forged".into());
        // Inside the 10 min cooldown the failed attempt started.
        forge_apply(&mut r, SimTime::from_mins(15), "fix", "sub");
        let errors = r.verify_audit().expect_err("forgery detected");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].starts_with("#1: "), "{errors:?}");
        assert!(errors[0].contains("min gap"), "{errors:?}");
    }

    #[test]
    fn verify_audit_catches_a_forged_subsystem_rate_breach() {
        // Two actions per hour on `sub`, each concluded before the next.
        let mut r = responder(vec![(0.0, 1.0)]);
        for (apply, validate) in [(10, 20), (25, 35), (40, 50)] {
            forge_apply(&mut r, SimTime::from_mins(apply), "fix", "sub");
            let passed = ControlEventKind::ValidationPassed {
                before: 2.0,
                after: 0.0,
            };
            let t = SimTime::from_mins(validate);
            record(&mut r.log, t, "fix", "sub", passed, "forged".into());
        }
        let errors = r.verify_audit().expect_err("forgery detected");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].starts_with("#4: "), "{errors:?}");
        assert!(errors[0].contains("rate budget 2 per"), "{errors:?}");
        assert!(errors[0].contains("'sub'"), "{errors:?}");
    }

    #[test]
    fn an_evicting_trail_keeps_its_sequence_and_refuses_certification() {
        let mut r = FleetResponder::new(ControlConfig {
            log_capacity: 16,
            ..ControlConfig::default()
        });
        r.add_monitor(Box::new(ScriptMonitor {
            name: "scripted",
            script: vec![(2.0, 1.0)],
            i: 0,
        }));
        r.add_rule(ResponseRule::new("fix", "scripted", "sub", "remediate"));
        let mut act = ScriptedActuator {
            applies: vec![],
            fail_next: false,
        };
        tick_n(&mut r, &mut act, 12, 600);
        let log = r.log();
        let seqs: Vec<u64> = log.events().map(|e| e.seq).collect();
        assert_eq!(seqs.len(), 16);
        assert!(log.dropped() > 0, "the ring never evicted");
        assert_eq!(log.dropped(), log.total() - seqs.len() as u64);
        assert_eq!(seqs.last(), Some(&(log.total() - 1)));
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "{seqs:?}");
        let errors = r.verify_audit().expect_err("a suffix is not certified");
        assert!(errors.iter().any(|e| e.contains("trail truncated")));
    }
}
