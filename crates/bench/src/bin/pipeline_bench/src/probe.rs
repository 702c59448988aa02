//! The closed loop, one flight at a time: a live node inserts a sweep,
//! drains it over the socket, waits for the durable ack, confirms over
//! the query wire that exactly this sweep is served, lets the fleet
//! responder tick under the fleet lock, and runs the node's own Monitor
//! reads. `loop_flight` is made of nothing else; the other workloads run
//! a short series of flights against the state they built, which is
//! where their fault-to-actuation reading comes from.

use crate::fixture::{
    lock, monitor_ids, monitor_reads, Fleet, LiveNode, NodeLink, NodeShape, RunCfg,
};
use crate::gen::{self, POWER_AXIS, POWER_LIMIT, PROBE_AXIS};
use crate::metrics::Round;
use crate::spans::{Layer, SpanRec};
use moda_fleet::{
    ActionTarget, Bound, ControlConfig, DurableFleet, FleetActuator, FleetClient, FleetResponder,
    QueryRequest, QueryResponse, Rank, RateLimit, ResponseRule, StragglerMonitor, ThresholdMonitor,
    TickReport,
};
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::{MetricId, WindowAgg};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Monitors treat a node as fresh for this long after its last sample.
pub const STALE_AFTER: SimDuration = SimDuration::from_mins(30);
/// Consecutive breaching observations before the rule may act.
const ESCALATION_GATE: u32 = 2;

/// The benchmark's actuator: it timestamps `apply` and clears the fault,
/// which is all "shedding load" needs to mean here.
#[derive(Debug, Default)]
pub struct BenchActuator {
    pub fault_active: bool,
    pub last_applied: Option<Instant>,
    pub applied: u64,
}

impl FleetActuator for BenchActuator {
    type Action = &'static str;

    fn apply(
        &mut self,
        _now: SimTime,
        target: &ActionTarget,
        action: &Self::Action,
    ) -> Result<String, String> {
        self.last_applied = Some(Instant::now());
        self.fault_active = false;
        self.applied += 1;
        Ok(format!("{action} on {} node(s)", target.node_count()))
    }
}

/// The query that confirms a sweep is served: the newest `probe` value
/// at the sweep's own second, which is the sweep's index.
pub fn confirm_query(now: SimTime) -> QueryRequest {
    QueryRequest::WindowAgg {
        metric: PROBE_AXIS.into(),
        now,
        window: SimDuration::from_secs(1),
        agg: WindowAgg::Max,
    }
}

fn responder() -> FleetResponder<&'static str> {
    let mut r = FleetResponder::new(ControlConfig {
        // Only decisions go to the audit ring: a run ticks tens of
        // thousands of times and `verify_audit` refuses a truncated trail.
        log_observations: false,
        log_capacity: 1 << 16,
        ..ControlConfig::default()
    });
    r.add_monitor(Box::new(ThresholdMonitor {
        name: "power_cap".into(),
        subsystem: "power".into(),
        metric: POWER_AXIS.into(),
        window: SimDuration::from_secs(2),
        agg: WindowAgg::Max,
        bound: Bound::Above(POWER_LIMIT),
        stale_after: STALE_AFTER,
        base_confidence: 0.9,
    }));
    r.add_monitor(Box::new(StragglerMonitor {
        name: "power_straggler".into(),
        subsystem: "power".into(),
        metric: POWER_AXIS.into(),
        window: SimDuration::from_mins(30),
        agg: WindowAgg::Mean,
        rank: Rank::Highest,
        ratio: 4.0,
        min_nodes: 3,
        stale_after: STALE_AFTER,
        base_confidence: 0.8,
    }));
    r.add_rule(ResponseRule {
        escalation_gate: ESCALATION_GATE,
        cooldown: SimDuration::from_secs(5),
        rate_limit: RateLimit {
            window: SimDuration::from_secs(60),
            max: 8,
        },
        settle: SimDuration::from_secs(2),
        validation_deadline: SimDuration::from_secs(30),
        ..ResponseRule::new("shed_power", "power_cap", "power", "cap")
    });
    r
}

/// A live node flying the closed loop against a fleet.
pub struct LoopProbe {
    pub node: LiveNode,
    client: FleetClient,
    responder: FleetResponder<&'static str>,
    actuator: BenchActuator,
    read_ids: Vec<MetricId>,
    /// Flights at which a fault starts, ascending.
    schedule: Vec<u64>,
    next_breach: usize,
    /// Hand-off instant of the first breaching sweep of the open episode.
    fault_since: Option<Instant>,
    pub flights: u64,
    /// Insert → confirmed queryable, ns per flight.
    pub s2q_ns: Vec<u64>,
    /// The confirm query's round trip, ns per flight.
    pub query_ns: Vec<u64>,
    /// First breaching insert → actuator `apply`, ns per episode.
    pub f2a_ns: Vec<u64>,
    pub ticks: TickReport,
}

impl LoopProbe {
    /// Connect a node named `name` (one ingest connection, one query
    /// connection) whose sweeps start at `origin_s` of simulated time.
    pub fn connect(
        fleet: &Fleet,
        cfg: &RunCfg,
        name: &str,
        shape: NodeShape,
        origin_s: u64,
        schedule: Vec<u64>,
        rec: SpanRec,
    ) -> io::Result<LoopProbe> {
        let link = NodeLink::new(fleet.sink(name)?, rec);
        let node = LiveNode::new(shape, cfg.seed, 0x10_0000, origin_s, link);
        let read_ids = monitor_ids(shape);
        Ok(LoopProbe {
            node,
            client: fleet.client()?,
            responder: responder(),
            actuator: BenchActuator::default(),
            read_ids,
            schedule,
            next_breach: 0,
            fault_since: None,
            flights: 0,
            s2q_ns: Vec::new(),
            query_ns: Vec::new(),
            f2a_ns: Vec::new(),
            ticks: TickReport::default(),
        })
    }

    /// Whether a fault episode is open (breach injected, not yet acted on).
    pub fn in_episode(&self) -> bool {
        self.actuator.fault_active
    }

    /// Whether the next flight starts an episode.
    pub fn breach_due(&self) -> bool {
        self.schedule.get(self.next_breach) == Some(&self.flights)
    }

    /// One flight. Checked operations: the confirm query (must serve
    /// exactly this sweep's index) and the tick (must not fail an action).
    pub fn flight(
        &mut self,
        shared: &Arc<Mutex<DurableFleet>>,
        round: &mut Round,
    ) -> io::Result<()> {
        if self.breach_due() {
            self.next_breach += 1;
            self.actuator.fault_active = true;
        }
        let index = self.node.index;
        let now = self.node.time_of(index);
        self.node.link.rec.set_op(self.flights as u32);
        self.node.link.rec.enter(Layer::Op);

        let fault = self.actuator.fault_active;
        let t0 = self.node.push_sweep(fault)?;
        if fault && self.fault_since.is_none() {
            self.fault_since = Some(t0);
        }
        self.node.link.wait_idle()?;
        let acked = Instant::now();

        self.node.link.rec.enter(Layer::TransportQuery);
        let resp = self.client.request(&confirm_query(now))?;
        self.node.link.rec.exit();
        let queried = Instant::now();
        let served = match &resp {
            QueryResponse::Scalar(a) => a.value,
            _ => None,
        };
        round.check(served == Some(index as f64), || {
            format!("flight {index}: confirm query served {served:?}")
        });
        self.s2q_ns.push((queried - t0).as_nanos() as u64);
        self.query_ns.push((queried - acked).as_nanos() as u64);

        self.node.link.rec.enter(Layer::ControlLockWait);
        let guard = lock(shared);
        self.node.link.rec.exit();
        self.node.link.rec.enter(Layer::ControlTick);
        let report = self
            .responder
            .tick(guard.aggregator(), now, &mut self.actuator);
        self.node.link.rec.exit();
        drop(guard);
        round.check(report.failed == 0 && report.validations_failed == 0, || {
            format!("flight {index}: tick reported {report:?}")
        });
        if report.applied > 0 {
            if let (Some(since), Some(applied)) =
                (self.fault_since.take(), self.actuator.last_applied)
            {
                self.f2a_ns.push((applied - since).as_nanos() as u64);
            }
        }
        self.ticks.alerts += report.alerts;
        self.ticks.applied += report.applied;
        self.ticks.held += report.held;
        self.ticks.blocked += report.blocked;

        monitor_reads(&self.node.db, &self.read_ids, now, &mut self.node.link.rec);

        self.node.link.rec.exit();
        self.flights += 1;
        Ok(())
    }

    /// Hang up the query connection and hand the node back.
    pub fn into_node(self) -> LiveNode {
        self.node
    }

    /// Close the loop's books: every scheduled episode must have been
    /// answered by exactly one action, and the audit trail must certify.
    /// Sets `fault_to_actuation_ms_*` and the `control.*` counts.
    pub fn finish(&mut self, round: &mut Round) {
        let episodes = self.next_breach as u64;
        round.check(
            self.actuator.applied == episodes && !self.actuator.fault_active,
            || {
                format!(
                    "{} action(s) for {episodes} fault episode(s), fault still active: {}",
                    self.actuator.applied, self.actuator.fault_active
                )
            },
        );
        let audit = self.responder.verify_audit();
        round.check(audit.is_ok(), || format!("verify_audit: {audit:?}"));
        round.timing_ms(
            std::mem::take(&mut self.f2a_ns),
            "fault_to_actuation_ms_p50",
            Some("fault_to_actuation_ms_p99"),
        );
        round.set("control.ticks", self.flights as f64);
        round.set("control.alerts", self.ticks.alerts as f64);
        round.set("control.applied", self.ticks.applied as f64);
        round.set("control.held", self.ticks.held as f64);
        round.set("control.blocked", self.ticks.blocked as f64);
        // The gate makes the first alert of an episode escalate, not act.
        round.set(
            "control.applied_per_alert",
            self.ticks.applied as f64 / (self.ticks.alerts as f64).max(1.0),
        );
    }
}

/// Flights of the loop series the non-loop workloads end each round
/// with, and how often a fault starts in it.
pub const SERIES_FLIGHTS: u64 = 240;
pub const SERIES_BREACH_EVERY: u64 = 12;

/// Run a loop series against whatever state `fleet` holds: a fresh
/// probe node joins one second after the fleet's newest sample, so every
/// node already there is still fresh to the monitors. Returns the probe
/// (its node's totals belong in the round's conservation check).
pub fn loop_series(
    fleet: &Fleet,
    cfg: &RunCfg,
    shape: NodeShape,
    round: &mut Round,
) -> io::Result<LoopProbe> {
    let shared = fleet.shared();
    let origin_s = lock(&shared).aggregator().observed_now().as_millis() / 1000 + 1;
    let flights = cfg.size(SERIES_FLIGHTS, 48);
    let schedule = gen::breach_schedule(cfg.seed, flights, SERIES_BREACH_EVERY);
    let mut probe = LoopProbe::connect(
        fleet,
        cfg,
        "probe",
        shape,
        origin_s,
        schedule,
        SpanRec::disabled(),
    )?;
    for _ in 0..flights {
        probe.flight(&shared, round)?;
    }
    probe.finish(round);
    Ok(probe)
}
