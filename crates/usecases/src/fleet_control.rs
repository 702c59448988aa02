//! The center-level Feedback/Response loop over the cluster (§II's
//! center-level MODA tier, closed at fleet scale).
//!
//! Node-local use cases ([`crate::scheduler_case`] etc.) close their
//! loops inside one world. This module closes the loop **across**
//! worlds: monitors run coverage-aware fleet queries against the
//! aggregation tier, a [`FleetResponder`] maps persistent alerts to
//! [`ClusterAction`]s under bounded execution (canary-first, cooldowns,
//! rate limits, post-action validation) — admitting each action
//! through the same [`moda_core::Guard`] the node-level loops use. The
//! responder's typed [`moda_core::AuditLog`] — the ring the node loops
//! write too — is the loop's one decision record: it is certified,
//! rendered, and announces every actuation to the humans on the loop.
//!
//! Two analytics-backed monitors extend the fleet crate's threshold and
//! straggler probes:
//!
//! * [`ForecastBreachMonitor`] — fits a linear trend
//!   ([`moda_analytics::LinearFit`]) to the history of a covered fleet
//!   aggregate and alerts when the *forecast* breaches the bound within
//!   a horizon — acting before the limit is hit, the §III scheduler
//!   case's forecasting idea lifted to the center level.
//! * [`FleetAnomalyMonitor`] — cross-sectional robust outlier detection
//!   ([`moda_analytics::mad_outliers`]) over per-node aggregates: flags
//!   the node whose behaviour deviates from the fleet, whatever the
//!   absolute level — the §IV anomaly-detection goal across nodes.
//!
//! Three deterministic chaos scenarios exercise the loop end to end
//! (the CI `fleet-chaos` job replays them and asserts on the certified
//! audit summaries):
//!
//! * [`power_cap_scenario`] — fleet draw over budget → canary cap →
//!   validate → promote → fleet-wide cap → convergence.
//! * [`cascading_failure_scenario`] — one world starts failing hard;
//!   the anomaly monitor picks its queue out of the fleet and the
//!   responder repairs + drains it, canary-first.
//! * [`partition_degradation_scenario`] — half the fleet partitions;
//!   queries degrade to coverage-annotated partial answers, the
//!   responder **holds** actuation (frozen escalation, zero applies),
//!   and actuation resumes only after coverage recovers.

use moda_analytics::{mad_outliers, LinearFit};
use moda_core::Notification;
use moda_fleet::control::{
    AuditSummary, Bound, ControlConfig, FleetAlert, FleetMonitor, FleetResponder, Observation,
    RateLimit, ResponseRule, ThresholdMonitor,
};
use moda_fleet::{FleetAggregator, HealthPolicy, HealthTransition, NodeId, Rank};
use moda_hpc::workload::{generate, WorkloadConfig};
use moda_hpc::{
    Cluster, ClusterAction, ClusterConfig, FailureConfig, FaultKind, NodeFault, WorldConfig,
};
use moda_sim::rng::RngStreams;
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::WindowAgg;

// -------------------------------------------------------------- monitors

/// Trend-forecasting fleet monitor: tracks the history of one
/// coverage-aware fleet aggregate, fits a linear trend, and alerts when
/// the value **forecast at `now + horizon`** breaches the bound — even
/// if the current value is still healthy.
#[derive(Debug, Clone)]
pub struct ForecastBreachMonitor {
    /// Monitor name.
    pub name: String,
    /// Subsystem label.
    pub subsystem: String,
    /// Logical axis (node-local metric name).
    pub metric: String,
    /// Trailing window of the per-tick aggregate.
    pub window: SimDuration,
    /// Pooled aggregate to track.
    pub agg: WindowAgg,
    /// The unhealthy side, evaluated on the forecast value.
    pub bound: Bound,
    /// How far ahead to forecast.
    pub horizon: SimDuration,
    /// Minimum history points before forecasting.
    pub min_points: usize,
    /// Staleness bound for coverage classification.
    pub stale_after: SimDuration,
    /// Confidence at full coverage.
    pub base_confidence: f64,
    /// Observed `(t_seconds, value)` history (internal state; start
    /// empty, bounded to the most recent 512 points).
    pub history: Vec<(f64, f64)>,
}

impl FleetMonitor for ForecastBreachMonitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn subsystem(&self) -> &str {
        &self.subsystem
    }

    fn observe(&mut self, fleet: &FleetAggregator, now: SimTime) -> Observation {
        let cv =
            fleet.covered_window_agg(&self.metric, now, self.window, self.agg, self.stale_after);
        if let Some(v) = cv.value {
            self.history.push((now.as_secs_f64(), v));
            if self.history.len() > 512 {
                self.history.remove(0);
            }
        }
        let mut alerts = Vec::new();
        if self.history.len() >= self.min_points.max(2) {
            if let Some(fit) = LinearFit::fit(&self.history) {
                let predicted = fit.predict((now + self.horizon).as_secs_f64());
                let severity = match self.bound {
                    Bound::Above(limit) if limit > 0.0 && predicted > limit => {
                        Some(predicted / limit)
                    }
                    Bound::Below(limit) if predicted > 0.0 && predicted < limit => {
                        Some(limit / predicted)
                    }
                    _ => None,
                };
                if let Some(severity) = severity {
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
                    alerts.push(FleetAlert {
                        monitor: self.name.clone(),
                        subsystem: self.subsystem.clone(),
                        detail: format!(
                            "{} forecast {predicted:.2} at +{} breaches {:?} \
                             (slope {:+.5}/s over {} points)",
                            self.metric,
                            self.horizon,
                            self.bound,
                            fit.slope,
                            self.history.len()
                        ),
                        severity,
                        nodes: ranked.into_iter().map(|(n, _)| n).collect(),
                        confidence: self.base_confidence * cv.coverage.fraction(),
                    });
                }
            }
        }
        Observation {
            alerts,
            coverage: cv.coverage,
        }
    }
}

/// Cross-sectional fleet anomaly monitor: computes a per-node window
/// aggregate over the contributing subset and flags robust (MAD)
/// outliers on the high side — "which node is behaving unlike the
/// fleet", independent of the absolute workload level.
#[derive(Debug, Clone)]
pub struct FleetAnomalyMonitor {
    /// Monitor name.
    pub name: String,
    /// Subsystem label.
    pub subsystem: String,
    /// Logical axis (node-local metric name).
    pub metric: String,
    /// Trailing window.
    pub window: SimDuration,
    /// Per-node aggregate to compare.
    pub agg: WindowAgg,
    /// Robust z-score threshold (≈3.5 is the standard cut).
    pub threshold: f64,
    /// Absolute deviation floor: a node must sit at least this far
    /// above the fleet median to be flagged. Suppresses the degenerate
    /// zero-MAD case where any nonzero deviation looks infinite.
    pub min_deviation: f64,
    /// Minimum contributing nodes for the cross-section to mean
    /// anything (also the `mad_outliers` floor of 4).
    pub min_nodes: usize,
    /// Staleness bound for coverage classification.
    pub stale_after: SimDuration,
    /// Confidence at full coverage.
    pub base_confidence: f64,
}

impl FleetMonitor for FleetAnomalyMonitor {
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
            Rank::Highest,
            self.stale_after,
        );
        let mut alerts = Vec::new();
        if ranked.len() >= self.min_nodes.max(4) {
            let values: Vec<f64> = ranked.iter().map(|&(_, v)| v).collect();
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let median = sorted[sorted.len() / 2];
            let mut devs: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
            devs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let sigma = 1.4826 * devs[devs.len() / 2];
            // High-side outliers only (deep queues, hot nodes), ranked
            // worst-first because `ranked` already is.
            let mut flagged: Vec<(NodeId, f64)> = Vec::new();
            for &i in &mad_outliers(&values, self.threshold) {
                let v = values[i];
                if v <= median || v - median < self.min_deviation {
                    continue;
                }
                let sev = if sigma > 0.0 {
                    (v - median) / (sigma * self.threshold)
                } else {
                    // Zero-MAD cross-section: the deviant cleared the
                    // absolute floor; report a fixed supra-threshold
                    // severity rather than an infinite z.
                    2.0
                };
                flagged.push((ranked[i].0, sev));
            }
            if let Some(&(_, worst)) = flagged.first() {
                let nodes: Vec<NodeId> = flagged.iter().map(|&(n, _)| n).collect();
                alerts.push(FleetAlert {
                    monitor: self.name.clone(),
                    subsystem: self.subsystem.clone(),
                    detail: format!(
                        "{} {:?} over {}: {} anomalous node(s) vs median {median:.2} \
                         (worst {:?}, robust severity {worst:.3})",
                        self.metric,
                        self.agg,
                        self.window,
                        nodes.len(),
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

// ---------------------------------------------------------------- driver

/// One controller tick's outcome, as the scenarios trace it.
#[derive(Debug, Clone)]
pub struct TickTrace {
    /// Controller clock at the tick.
    pub t: SimTime,
    /// Coverage fraction of the traced axis at this tick.
    pub coverage: f64,
    /// Contributing nodes.
    pub contributing: usize,
    /// Nodes excluded as stale/silent (never served as fresh).
    pub excluded: Vec<NodeId>,
    /// Monitors that raised an alert.
    pub alerts: usize,
    /// Actions applied.
    pub applied: usize,
    /// Holds (coverage/confidence/no-target).
    pub held: usize,
    /// Blocks (cooldown/rate/suspension).
    pub blocked: usize,
}

/// Everything a finished scenario hands to its assertions: the
/// machine-certified audit summary, the per-tick trace, the rendered
/// decision trail and the notifications it raised.
#[derive(Debug)]
pub struct ControlTrace {
    /// Certified by [`FleetResponder::verify_audit`].
    pub summary: AuditSummary,
    /// Per-tick outcomes, controller order.
    pub ticks: Vec<TickTrace>,
    /// The rendered fleet decision trail ([`FleetResponder::log`]).
    pub control_trail: String,
    /// One human-on-the-loop notification per applied action, oldest
    /// first ([`moda_core::AuditLog::notifications`]).
    pub notifications: Vec<Notification>,
    /// Monitor probes that saw the whole fleet.
    pub complete_observations: u64,
    /// Monitor probes that saw a partial view.
    pub degraded_observations: u64,
    /// Node liveness transitions observed over the run, oldest first.
    pub health_transitions: Vec<HealthTransition>,
}

/// Scenario driver: advances the cluster on its drain cadence and, at
/// every boundary, collects node-health transitions and runs one
/// responder tick through [`Cluster::control_parts`].
pub struct ClusterControlDriver {
    /// The Response plane under test.
    pub responder: FleetResponder<ClusterAction>,
    policy: HealthPolicy,
    period: SimDuration,
    /// Axis whose coverage the per-tick trace reports.
    coverage_metric: String,
    last: SimTime,
    ticks: Vec<TickTrace>,
    health_transitions: Vec<HealthTransition>,
}

impl ClusterControlDriver {
    /// Driver ticking every `period` (align it with the cluster's drain
    /// period), classifying health under `policy`, tracing coverage of
    /// `coverage_metric`.
    pub fn new(
        responder: FleetResponder<ClusterAction>,
        period: SimDuration,
        policy: HealthPolicy,
        coverage_metric: &str,
        start: SimTime,
    ) -> Self {
        ClusterControlDriver {
            responder,
            policy,
            period,
            coverage_metric: coverage_metric.to_string(),
            last: start,
            ticks: Vec::new(),
            health_transitions: Vec::new(),
        }
    }

    /// Advance the cluster to `until`, one controller tick per period.
    pub fn run(&mut self, c: &mut Cluster, until: SimTime) {
        while self.last.0 < until.0 {
            let t = self.last + self.period;
            c.run_until(t);
            c.aggregator_mut().track_health(t, self.policy);
            self.health_transitions
                .extend(c.aggregator_mut().take_health_events());
            let (members, coverage) =
                c.aggregator()
                    .covered_members(&self.coverage_metric, t, self.policy.stale_after);
            let (agg, mut act) = c.control_parts();
            let report = self.responder.tick(agg, t, &mut act);
            self.ticks.push(TickTrace {
                t,
                coverage: coverage.fraction(),
                contributing: members.len(),
                excluded: coverage.excluded.iter().map(|&(n, _)| n).collect(),
                alerts: report.alerts,
                applied: report.applied,
                held: report.held,
                blocked: report.blocked,
            });
            self.last = t;
        }
    }

    /// Certify the trail and package the trace. Returns every audit
    /// violation found if the decision sequence does not check out.
    pub fn finish(self) -> Result<ControlTrace, Vec<String>> {
        let summary = self.responder.verify_audit()?;
        let (complete, degraded) = self.responder.observation_stats();
        Ok(ControlTrace {
            summary,
            ticks: self.ticks,
            control_trail: self.responder.log().render(),
            notifications: self.responder.log().notifications(),
            complete_observations: complete,
            degraded_observations: degraded,
            health_transitions: self.health_transitions,
        })
    }
}

// -------------------------------------------------------------- scenarios

const DRAIN: SimDuration = SimDuration::from_mins(10);
const STALE_AFTER: SimDuration = SimDuration::from_mins(15);

fn chaos_cluster(seed: u64, worlds: usize, n_jobs: usize) -> Cluster {
    let mut c = Cluster::new(ClusterConfig {
        nodes: worlds,
        world: WorldConfig {
            nodes: 8,
            seed,
            power_period: Some(SimDuration::from_secs(60)),
            ..WorldConfig::default()
        },
        drain_period: DRAIN,
    });
    // A steady arrival stream per world keeps every queue and sensor
    // alive across the scenario horizon.
    for k in 0..worlds {
        let jobs = generate(
            &WorkloadConfig {
                n_jobs,
                mean_interarrival_s: 300.0,
                ..WorkloadConfig::default()
            },
            &RngStreams::new(seed.wrapping_add(1000 + k as u64)),
            0,
        );
        c.world_mut(k).submit_campaign(jobs);
    }
    c
}

fn health_policy() -> HealthPolicy {
    HealthPolicy {
        stale_after: STALE_AFTER,
        silent_after: Some(SimDuration::from_mins(45)),
    }
}

/// Outcome of [`power_cap_scenario`].
#[derive(Debug)]
pub struct PowerCapReport {
    /// Certified trace.
    pub trace: ControlTrace,
    /// Fleet mean facility draw before any response (kW).
    pub uncapped_kw: f64,
    /// The power budget the monitor enforces (kW).
    pub limit_kw: f64,
    /// The cap the response applies per world (kW).
    pub cap_kw: f64,
    /// Fleet mean facility draw over the final window (kW).
    pub final_kw: f64,
    /// Did the canary validate and unlock fleet-wide actuation?
    pub promoted: bool,
}

/// Power-cap response at cluster scale: the fleet's pooled facility
/// draw exceeds a budget, the responder caps the worst world first
/// (canary), validates the improvement against the same fleet query,
/// promotes, caps fleet-wide, and converges below the budget.
pub fn power_cap_scenario(seed: u64) -> Result<PowerCapReport, Vec<String>> {
    let mut c = chaos_cluster(seed, 4, 48);
    // Uncapped warm-up: measure the fleet's natural draw, then set the
    // "budget" below it so the scenario carries a genuine emergency.
    let t0 = SimTime::from_hours(1);
    c.run_until(t0);
    let uncapped = c
        .fleet_window_agg(
            "facility.power_kw",
            SimDuration::from_mins(30),
            WindowAgg::Mean,
        )
        .expect("warm fleet reports power");
    let limit = uncapped * 0.9;
    let cap = uncapped * 0.7;

    let mut responder: FleetResponder<ClusterAction> =
        FleetResponder::new(ControlConfig::default());
    responder.add_monitor(Box::new(ThresholdMonitor {
        name: "fleet-power".into(),
        subsystem: "power".into(),
        metric: "facility.power_kw".into(),
        window: SimDuration::from_mins(30),
        agg: WindowAgg::Mean,
        bound: Bound::Above(limit),
        stale_after: STALE_AFTER,
        base_confidence: 0.95,
    }));
    let mut rule = ResponseRule::new(
        "power-cap",
        "fleet-power",
        "power",
        ClusterAction::PowerCap { kw: cap },
    );
    rule.escalation_gate = 2;
    rule.cooldown = SimDuration::from_mins(20);
    rule.rate_limit = RateLimit {
        window: SimDuration::from_hours(2),
        max: 4,
    };
    rule.settle = SimDuration::from_mins(10);
    rule.validation_deadline = SimDuration::from_mins(40);
    responder.add_rule(rule);

    let mut driver =
        ClusterControlDriver::new(responder, DRAIN, health_policy(), "facility.power_kw", t0);
    driver.run(&mut c, SimTime::from_hours(4));
    let promoted = driver.responder.promoted("power-cap");
    let final_kw = c
        .fleet_window_agg(
            "facility.power_kw",
            SimDuration::from_mins(30),
            WindowAgg::Mean,
        )
        .unwrap_or(0.0);
    let trace = driver.finish()?;
    Ok(PowerCapReport {
        trace,
        uncapped_kw: uncapped,
        limit_kw: limit,
        cap_kw: cap,
        final_kw,
        promoted,
    })
}

/// Outcome of [`cascading_failure_scenario`].
#[derive(Debug)]
pub struct CascadeReport {
    /// Certified trace.
    pub trace: ControlTrace,
    /// The world the scenario broke.
    pub failing_world: usize,
    /// Fail-stop kills injected on it before repair.
    pub failures_injected: u64,
    /// Was the failure process disabled by the response (vs. still
    /// configured at scenario end)?
    pub repaired: bool,
    /// The failing world's 30-min windowed failure count at the tick
    /// the repair was applied.
    pub failure_rate_at_repair: f64,
    /// Same query over the final window — the cascade must be over.
    pub failure_rate_final: f64,
}

/// Cascading node failure: one world's failure process turns
/// aggressive, its queue depth detaches from the fleet, the
/// cross-sectional anomaly monitor flags it, and the responder repairs
/// it (failure process off, checkpoint, drain behind an outage) —
/// canary-first, validated against the same fleet query.
pub fn cascading_failure_scenario(seed: u64) -> Result<CascadeReport, Vec<String>> {
    const SICK: usize = 3;
    let mut c = chaos_cluster(seed, 4, 48);
    let t0 = SimTime::from_mins(40);
    c.run_until(t0);
    // The cascade: node MTBF collapses to 400 s (system MTBF 50 s at 8
    // nodes) — jobs die faster than they finish, resubmits pile up.
    c.world_mut(SICK)
        .set_failure(Some(FailureConfig { node_mtbf_s: 400.0 }));

    let mut responder: FleetResponder<ClusterAction> =
        FleetResponder::new(ControlConfig::default());
    responder.add_monitor(Box::new(FleetAnomalyMonitor {
        name: "failure-anomaly".into(),
        subsystem: "resilience".into(),
        metric: "sched.failures".into(),
        window: SimDuration::from_mins(30),
        agg: WindowAgg::Sum,
        threshold: 3.0,
        min_deviation: 5.0,
        min_nodes: 4,
        stale_after: STALE_AFTER,
        base_confidence: 0.9,
    }));
    let mut rule = ResponseRule::new(
        "repair-world",
        "failure-anomaly",
        "resilience",
        ClusterAction::RepairAndDrain {
            outage: SimDuration::from_mins(10),
        },
    );
    rule.escalation_gate = 2;
    rule.cooldown = SimDuration::from_mins(30);
    rule.rate_limit = RateLimit {
        window: SimDuration::from_hours(2),
        max: 2,
    };
    rule.settle = SimDuration::from_mins(20);
    rule.validation_deadline = SimDuration::from_mins(100);
    responder.add_rule(rule);

    let mut driver =
        ClusterControlDriver::new(responder, DRAIN, health_policy(), "sched.failures", t0);
    driver.run(&mut c, SimTime::from_hours(5));

    let failures_injected = c.world(SICK).metrics.failures;
    let repaired = c.world(SICK).config().failure.is_none();
    let per_node = |at: SimTime| {
        c.aggregator()
            .covered_top_nodes(
                "sched.failures",
                at,
                SimDuration::from_mins(30),
                WindowAgg::Sum,
                usize::MAX,
                Rank::Highest,
                STALE_AFTER,
            )
            .0
            .into_iter()
            .find(|&(n, _)| n.index() == SICK)
            .map(|(_, v)| v)
            .unwrap_or(0.0)
    };
    let failure_rate_final = per_node(c.now());
    let failure_rate_at_repair = driver
        .ticks
        .iter()
        .find(|tt| tt.applied > 0)
        .map(|tt| tt.t)
        .map(per_node)
        .unwrap_or(0.0);
    let trace = driver.finish()?;
    Ok(CascadeReport {
        trace,
        failing_world: SICK,
        failures_injected,
        repaired,
        failure_rate_at_repair,
        failure_rate_final,
    })
}

/// Outcome of [`partition_degradation_scenario`].
#[derive(Debug)]
pub struct PartitionReport {
    /// Certified trace.
    pub trace: ControlTrace,
    /// Partition window start.
    pub from: SimTime,
    /// Partition window end.
    pub until: SimTime,
    /// Actions applied at ticks inside the partition window.
    pub applied_during_partition: usize,
    /// Actions applied at or after heal.
    pub applied_after_heal: usize,
    /// Ticks (after the staleness bound elapsed) at which a partitioned
    /// node was still served as a fresh contributor — must be zero.
    pub stale_served_as_fresh: usize,
    /// Degraded-coverage ticks observed during the partition.
    pub degraded_ticks: usize,
}

/// Graceful degradation under partition: with a persistent alert in
/// flight, half the fleet partitions away. Queries degrade to
/// coverage-annotated partial answers (never counting the dark nodes
/// as fresh), the responder freezes escalation and applies **nothing**
/// on the partial view, and actuation resumes only once the partition
/// heals and coverage recovers.
pub fn partition_degradation_scenario(seed: u64) -> Result<PartitionReport, Vec<String>> {
    let mut c = chaos_cluster(seed, 4, 48);
    let t0 = SimTime::from_hours(1);
    c.run_until(t0);
    let draw = c
        .fleet_window_agg(
            "facility.power_kw",
            SimDuration::from_mins(30),
            WindowAgg::Mean,
        )
        .expect("warm fleet reports power");
    // A budget far below the natural draw: the alert burns the whole
    // scenario, so what gates actuation is *coverage*, nothing else.
    let limit = draw * 0.5;
    let from = SimTime::from_mins(65);
    let until = SimTime::from_mins(150);
    for node in [1usize, 2] {
        c.schedule_fault(NodeFault {
            node,
            kind: FaultKind::Partition,
            from,
            until,
        });
    }

    let mut responder: FleetResponder<ClusterAction> =
        FleetResponder::new(ControlConfig::default());
    responder.add_monitor(Box::new(ThresholdMonitor {
        name: "fleet-power".into(),
        subsystem: "power".into(),
        metric: "facility.power_kw".into(),
        window: SimDuration::from_mins(30),
        agg: WindowAgg::Mean,
        bound: Bound::Above(limit),
        stale_after: STALE_AFTER,
        base_confidence: 0.95,
    }));
    let mut rule = ResponseRule::new(
        "shed-load",
        "fleet-power",
        "power",
        ClusterAction::PowerCap { kw: limit * 0.9 },
    );
    rule.escalation_gate = 2;
    rule.cooldown = SimDuration::from_mins(20);
    rule.rate_limit = RateLimit {
        window: SimDuration::from_hours(2),
        max: 4,
    };
    rule.settle = SimDuration::from_mins(10);
    rule.validation_deadline = SimDuration::from_mins(40);
    responder.add_rule(rule);

    let mut driver =
        ClusterControlDriver::new(responder, DRAIN, health_policy(), "facility.power_kw", t0);
    driver.run(&mut c, SimTime::from_hours(4));

    let dark: Vec<NodeId> = vec![NodeId(1), NodeId(2)];
    let mut applied_during = 0;
    let mut applied_after = 0;
    let mut stale_as_fresh = 0;
    let mut degraded_ticks = 0;
    for tt in &driver.ticks {
        let in_window = from.0 <= tt.t.0 && tt.t.0 < until.0;
        if in_window {
            applied_during += tt.applied;
            if tt.coverage < 1.0 {
                degraded_ticks += 1;
            }
            // Once the staleness bound has elapsed inside the window,
            // the dark nodes must be excluded — anything else would be
            // a stale read served as fresh.
            if tt.t.0 >= from.0 + STALE_AFTER.0 && !dark.iter().all(|n| tt.excluded.contains(n)) {
                stale_as_fresh += 1;
            }
        } else if tt.t.0 >= until.0 {
            applied_after += tt.applied;
        }
    }
    let trace = driver.finish()?;
    Ok(PartitionReport {
        trace,
        from,
        until,
        applied_during_partition: applied_during,
        applied_after_heal: applied_after,
        stale_served_as_fresh: stale_as_fresh,
        degraded_ticks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use moda_fleet::NodeLiveness;

    /// Every applied action raised one notification, and the first was
    /// the canary.
    fn notifies_every_apply(trace: &ControlTrace) {
        assert_eq!(trace.notifications.len() as u64, trace.summary.applied);
        assert!(
            trace.notifications[0].subject.contains("applied canary"),
            "{:?}",
            trace.notifications[0]
        );
    }

    #[test]
    fn power_cap_scenario_converges_canary_first() {
        let r = power_cap_scenario(7).expect("audit certifies");
        assert!(r.uncapped_kw > r.limit_kw, "scenario carries an emergency");
        assert!(
            r.final_kw <= r.limit_kw + 1e-9,
            "fleet draw {:.2} still above budget {:.2}\n{}",
            r.final_kw,
            r.limit_kw,
            r.trace.control_trail
        );
        assert!(
            r.promoted,
            "canary never validated:\n{}",
            r.trace.control_trail
        );
        assert!(r.trace.summary.canary >= 1, "first action must be a canary");
        assert!(
            r.trace.summary.fleet >= 1,
            "promotion never went fleet-wide"
        );
        assert!(r.trace.summary.validations_passed >= 2);
        assert_eq!(r.trace.summary.validations_failed, 0);
        // Bounded execution: the whole convergence fits the rate budget.
        assert!(
            r.trace.summary.applied <= 4,
            "oscillation past the rate limit"
        );
        notifies_every_apply(&r.trace);
    }

    #[test]
    fn cascading_failure_is_detected_and_repaired() {
        let r = cascading_failure_scenario(11).expect("audit certifies");
        assert!(r.failures_injected > 0, "the cascade never started");
        assert!(
            r.repaired,
            "failure process still armed:\n{}",
            r.trace.control_trail
        );
        assert!(r.trace.summary.applied >= 1);
        assert!(r.trace.summary.canary >= 1, "repair must start canary");
        assert!(
            r.failure_rate_final < r.failure_rate_at_repair,
            "failure rate did not recover: {:.2} -> {:.2}\n{}",
            r.failure_rate_at_repair,
            r.failure_rate_final,
            r.trace.control_trail
        );
        assert_eq!(r.trace.summary.validations_failed, 0);
    }

    #[test]
    fn partition_holds_actuation_until_coverage_recovers() {
        let r = partition_degradation_scenario(13).expect("audit certifies");
        assert_eq!(
            r.applied_during_partition, 0,
            "actuated on a partial view:\n{}",
            r.trace.control_trail
        );
        assert!(
            r.applied_after_heal >= 1,
            "never resumed:\n{}",
            r.trace.control_trail
        );
        assert_eq!(r.stale_served_as_fresh, 0, "a dark node was read as fresh");
        assert!(r.degraded_ticks >= 3, "partition never degraded coverage");
        assert!(r.trace.degraded_observations > 0);
        assert!(r.trace.complete_observations > 0);
        // The ladder was walked: nodes went stale (and dark), then
        // recovered.
        let into = |to| {
            r.trace
                .health_transitions
                .iter()
                .filter(|e| e.to == to)
                .count()
        };
        assert!(into(NodeLiveness::Stale) >= 2);
        assert!(into(NodeLiveness::Live) >= 2);
        notifies_every_apply(&r.trace);
    }

    #[test]
    fn forecast_monitor_alerts_before_the_breach() {
        // A cluster whose queues grow linearly: submit far more work
        // than the fleet drains. The current mean stays below the
        // limit while the 2 h forecast crosses it.
        let mut c = chaos_cluster(3, 4, 10);
        for k in 0..4 {
            let jobs = generate(
                &WorkloadConfig {
                    n_jobs: 120,
                    mean_interarrival_s: 60.0,
                    ..WorkloadConfig::default()
                },
                &RngStreams::new(500 + k as u64),
                1000,
            );
            c.world_mut(k).submit_campaign(jobs);
        }
        let mut m = ForecastBreachMonitor {
            name: "queue-forecast".into(),
            subsystem: "sched".into(),
            metric: "sched.queue_len".into(),
            window: SimDuration::from_mins(20),
            agg: WindowAgg::Mean,
            bound: Bound::Above(60.0),
            horizon: SimDuration::from_hours(2),
            min_points: 4,
            stale_after: STALE_AFTER,
            base_confidence: 0.9,
            history: Vec::new(),
        };
        let mut alerted_at = None;
        let mut current_at_alert = 0.0;
        for i in 1..=18 {
            let t = SimTime::from_mins(10 * i);
            c.run_until(t);
            let o = m.observe(c.aggregator(), t);
            if let Some(a) = o.alerts.first() {
                alerted_at = Some(t);
                current_at_alert = c
                    .fleet_window_agg(
                        "sched.queue_len",
                        SimDuration::from_mins(20),
                        WindowAgg::Mean,
                    )
                    .unwrap_or(0.0);
                assert!(a.severity > 1.0);
                assert!(!a.nodes.is_empty());
                break;
            }
        }
        let t = alerted_at.expect("growing backlog must trip the forecast");
        assert!(
            current_at_alert < 60.0,
            "forecast should fire before the level breach ({current_at_alert:.1})"
        );
        assert!(t.0 >= SimTime::from_mins(40).0, "needs min_points history");
    }

    #[test]
    fn anomaly_monitor_needs_a_real_deviation() {
        // Healthy fleet: no alert, even with small queue differences.
        let mut c = chaos_cluster(5, 4, 20);
        c.run_until(SimTime::from_hours(1));
        let mut m = FleetAnomalyMonitor {
            name: "queue-anomaly".into(),
            subsystem: "resilience".into(),
            metric: "sched.queue_len".into(),
            window: SimDuration::from_mins(30),
            agg: WindowAgg::Mean,
            threshold: 3.0,
            min_deviation: 2.0,
            min_nodes: 4,
            stale_after: STALE_AFTER,
            base_confidence: 0.9,
        };
        let o = m.observe(c.aggregator(), c.now());
        assert!(o.alerts.is_empty(), "healthy fleet flagged: {:?}", o.alerts);
        assert!(o.coverage.complete());
    }

    #[test]
    fn driver_trace_notifies_every_actuation() {
        let r = power_cap_scenario(9).expect("audit certifies");
        notifies_every_apply(&r.trace);
    }
}
