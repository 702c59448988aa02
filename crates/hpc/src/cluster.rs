//! Multi-`World` cluster harness: K deterministic simulated centers
//! feeding one fleet aggregation tier.
//!
//! Each [`crate::World`] is one "node" of the cluster in the fleet
//! sense: an independent deterministic simulation with its own
//! telemetry store (power sensors, queue gauge, per-job progress
//! pyramids). The [`Cluster`] steps all worlds in lock-step windows
//! and, on a configurable drain cadence, runs each world's persistent
//! [`Exporter`] over its whole store and ingests the batches into a
//! [`FleetAggregator`] — so cluster-level questions (*fleet-wide p99
//! node power over the campaign*, *which world's queue is deepest*,
//! *has any world's telemetry gone stale*) are answered by the same
//! aggregation tier the threaded runtime uses, while every world stays
//! bit-reproducible.
//!
//! Worlds share one [`WorldConfig`] template but receive distinct RNG
//! seeds (`seed + node index`), so their workloads decorrelate the way
//! real nodes' do.
//!
//! ## Faults and control
//!
//! The cluster doubles as the fault harness and actuation surface of
//! the center-level Feedback/Response loop:
//!
//! * **fault schedules** ([`Cluster::schedule_fault`]) — deterministic
//!   [`FaultKind::Kill`] (the world freezes and stops reporting — a
//!   crashed node) and [`FaultKind::Partition`] (the world keeps
//!   running but its drains are refused — a network partition)
//!   windows; they are the harness's whole fault model. Each drain
//!   hands the world's exporter a sink that ingests every batch
//!   straight into the world's aggregator session. Inside a partition
//!   window that sink refuses every write, so nothing crosses: the
//!   exporter rolls its cursors back and re-ships the backlog intact
//!   after heal.
//! * **actuation** ([`Cluster::control_parts`]) — splits the cluster
//!   into its aggregation tier (what a
//!   [`moda_fleet::FleetResponder`]'s monitors read) and a
//!   [`WorldsActuator`] (what its guarded responses act on:
//!   [`ClusterAction`] power caps, checkpoints, repair-and-drain).

use crate::world::{World, WorldConfig};
use moda_fleet::{ActionTarget, FleetActuator, FleetAggregator, FleetHealth, FleetStore, NodeId};
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::export::{ExportBatch, Sink};
use moda_telemetry::{Exporter, WindowAgg};
use std::io;

/// Configuration of a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// World (node) count.
    pub nodes: usize,
    /// Per-world configuration template; world `k` runs with
    /// `seed + k`.
    pub world: WorldConfig,
    /// How much simulated time passes between export drains (the fleet
    /// tier's view of each world advances in these steps).
    pub drain_period: SimDuration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            world: WorldConfig::default(),
            drain_period: SimDuration::from_mins(10),
        }
    }
}

/// Kind of an injected cluster fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The world freezes: no simulation progress, no drains — a crashed
    /// node. From the fleet's view it goes stale, then silent. When the
    /// window closes the world resumes (state intact) and catches up.
    Kill,
    /// The world keeps simulating but its drains are refused — a network
    /// partition. The exporter rolls back on every refused drain and
    /// re-ships the backlog after heal, so no telemetry is lost.
    Partition,
}

/// A scheduled fault window `[from, until)` on one world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFault {
    /// World index.
    pub node: usize,
    /// What breaks.
    pub kind: FaultKind,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

impl NodeFault {
    fn active_at(&self, t: SimTime) -> bool {
        self.from.0 <= t.0 && t.0 < self.until.0
    }
}

/// One world and its export-side state.
struct ClusterNode {
    world: World,
    exporter: Exporter,
    id: NodeId,
}

/// One world's drain target: ingests each batch straight into its
/// aggregator session, and refuses every write while partitioned.
struct SessionSink<'a> {
    agg: &'a mut FleetAggregator,
    id: NodeId,
    partitioned: bool,
}

impl Sink for SessionSink<'_> {
    fn write_batch(&mut self, batch: &ExportBatch) -> io::Result<()> {
        if self.partitioned {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "partitioned"));
        }
        self.agg.ingest(self.id, batch);
        Ok(())
    }
}

/// K deterministic worlds → K exporters → one aggregation tier. See
/// the module docs.
pub struct Cluster {
    nodes: Vec<ClusterNode>,
    agg: FleetAggregator,
    drain_period: SimDuration,
    drained_until: SimTime,
    faults: Vec<NodeFault>,
    /// Drains a partition window refused while something was pending.
    failed_drains: u64,
}

impl Cluster {
    /// Build `cfg.nodes` worlds from the template, seeds offset per
    /// node, and open one aggregator session per world
    /// (`world00`, `world01`, …).
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes > 0, "a cluster needs at least one world");
        assert!(cfg.drain_period.0 > 0, "drain period must be positive");
        let mut agg = FleetAggregator::new();
        let nodes = (0..cfg.nodes)
            .map(|k| {
                let mut wc = cfg.world.clone();
                wc.seed = cfg.world.seed.wrapping_add(k as u64);
                ClusterNode {
                    world: World::new(wc),
                    exporter: Exporter::new(),
                    id: agg.add_node(&format!("world{k:02}")),
                }
            })
            .collect();
        Cluster {
            nodes,
            agg,
            drain_period: cfg.drain_period,
            drained_until: SimTime::ZERO,
            faults: Vec::new(),
            failed_drains: 0,
        }
    }

    /// World count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// One world, for campaign setup and node-local inspection.
    pub fn world(&self, k: usize) -> &World {
        &self.nodes[k].world
    }

    /// Mutable access to one world (submit campaigns, add outages).
    pub fn world_mut(&mut self, k: usize) -> &mut World {
        &mut self.nodes[k].world
    }

    /// The aggregator's node id of world `k`.
    pub fn node_id(&self, k: usize) -> NodeId {
        self.nodes[k].id
    }

    /// The fleet aggregation tier.
    pub fn aggregator(&self) -> &FleetAggregator {
        &self.agg
    }

    /// Mutable aggregation tier (health-transition tracking lives
    /// there: [`FleetAggregator::track_health`]).
    pub fn aggregator_mut(&mut self) -> &mut FleetAggregator {
        &mut self.agg
    }

    /// Split the cluster into the two halves a control loop needs at
    /// the same time: the aggregation tier its monitors read and an
    /// actuator over the worlds its responses act on. Field-disjoint,
    /// so a [`moda_fleet::FleetResponder::tick`] can hold both.
    pub fn control_parts(&mut self) -> (&FleetAggregator, WorldsActuator<'_>) {
        let Cluster { agg, nodes, .. } = self;
        (&*agg, WorldsActuator { nodes })
    }

    /// Schedule a deterministic fault window. Faults may overlap and
    /// may be scheduled mid-run (the schedule is consulted at every
    /// step/drain boundary).
    pub fn schedule_fault(&mut self, fault: NodeFault) {
        assert!(fault.node < self.nodes.len(), "fault on unknown world");
        assert!(fault.from.0 < fault.until.0, "empty fault window");
        self.faults.push(fault);
    }

    /// Drains a partition window refused while the world had something
    /// pending (an idle drain writes nothing, so it cannot fail).
    pub fn failed_drains(&self) -> u64 {
        self.failed_drains
    }

    /// The cluster store (fleet queries live here).
    pub fn store(&self) -> &FleetStore {
        self.agg.store()
    }

    /// Latest simulated time any world has reached.
    pub fn now(&self) -> SimTime {
        self.nodes
            .iter()
            .map(|n| n.world.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Advance every world to `t`, draining each world's telemetry into
    /// the aggregation tier every [`ClusterConfig::drain_period`] of
    /// simulated time (and once at `t`). Deterministic: worlds are
    /// independent simulations and the per-world exporters' watermark
    /// cursors make every drain an exact delta.
    pub fn run_until(&mut self, t: SimTime) {
        let mut next = SimTime(self.drained_until.0.saturating_add(self.drain_period.0));
        while next.0 < t.0 {
            self.step_worlds(next);
            self.drain(next);
            next = SimTime(next.0.saturating_add(self.drain_period.0));
        }
        self.step_worlds(t);
        self.drain(t);
    }

    /// Run every world's queue dry (bounded by `max_t`), draining on
    /// the configured cadence. Returns the cluster-wide makespan (the
    /// latest world's last progress time).
    pub fn run_to_completion(&mut self, max_t: SimTime) -> SimTime {
        loop {
            let t = SimTime(
                self.drained_until
                    .0
                    .saturating_add(self.drain_period.0)
                    .min(max_t.0),
            );
            self.step_worlds(t);
            self.drain(t);
            if t.0 >= max_t.0 || self.nodes.iter().all(|n| n.world.drained()) {
                break;
            }
        }
        self.nodes
            .iter()
            .map(|n| n.world.last_progress())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    fn fault_active(faults: &[NodeFault], node: usize, kind: FaultKind, t: SimTime) -> bool {
        faults
            .iter()
            .any(|f| f.node == node && f.kind == kind && f.active_at(t))
    }

    fn step_worlds(&mut self, t: SimTime) {
        let faults = &self.faults;
        for (k, n) in self.nodes.iter_mut().enumerate() {
            // A killed world is frozen: its event loop does not advance
            // until the window closes, at which point the next boundary
            // catches it up.
            if Self::fault_active(faults, k, FaultKind::Kill, t) {
                continue;
            }
            n.world.run_until(t);
        }
    }

    /// Drain every world's **whole** telemetry store (not just progress
    /// metrics) into the aggregation tier, and feed the per-world drain
    /// totals into fleet health. Worlds under an active fault window do
    /// not deliver: a killed world drains nothing (it is frozen); a
    /// partitioned world's sink refuses its first batch and the exporter
    /// rolls back, so the backlog re-ships intact after heal.
    fn drain(&mut self, at: SimTime) {
        let faults = &self.faults;
        for (k, n) in self.nodes.iter_mut().enumerate() {
            if Self::fault_active(faults, k, FaultKind::Kill, at) {
                continue;
            }
            let mut sink = SessionSink {
                agg: &mut self.agg,
                id: n.id,
                partitioned: Self::fault_active(faults, k, FaultKind::Partition, at),
            };
            match n.exporter.drain(&n.world.tsdb, &mut sink) {
                Ok(stats) => self.agg.report_drain(n.id, &stats),
                // The exporter rolled back; the backlog re-ships after heal.
                Err(_) => self.failed_drains += 1,
            }
        }
        self.drained_until = self.drained_until.max(at);
    }

    /// Cluster-wide trailing-window aggregate over a node-local metric
    /// name (e.g. `"facility.power_kw"`, `"sched.queue_len"`), at the
    /// cluster clock.
    pub fn fleet_window_agg(
        &self,
        local_name: &str,
        window: SimDuration,
        agg: WindowAgg,
    ) -> Option<f64> {
        self.agg
            .store()
            .fleet_window_agg(local_name, self.now(), window, agg)
    }

    /// Fleet health at the cluster clock: a world whose ingested data
    /// lags more than `stale_after` is stale (e.g. its campaign ended
    /// long before the others and its sensors stopped).
    pub fn health(&self, stale_after: SimDuration) -> FleetHealth {
        self.agg.health(self.now(), stale_after)
    }
}

/// A center-level response a [`moda_fleet::FleetResponder`] may apply
/// to cluster worlds through the [`WorldsActuator`].
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterAction {
    /// Cap the targeted worlds' facility draw at `kw` (power case).
    PowerCap {
        /// Facility cap, kW.
        kw: f64,
    },
    /// Remove the facility power cap.
    Uncap,
    /// Checkpoint every running job on the targeted worlds (coordinated
    /// drain preparation, resilience response).
    Checkpoint,
    /// Repair a failing world: disable its failure process, checkpoint
    /// running jobs, then drain it behind a maintenance outage so
    /// resubmissions restart on "repaired hardware" after the window.
    RepairAndDrain {
        /// Length of the repair outage.
        outage: SimDuration,
    },
}

/// The actuator half of [`Cluster::control_parts`]: applies
/// [`ClusterAction`]s to the targeted worlds. Aggregator [`NodeId`]s
/// index worlds directly (`NodeId(k)` is `world k` by construction).
pub struct WorldsActuator<'a> {
    nodes: &'a mut [ClusterNode],
}

impl FleetActuator for WorldsActuator<'_> {
    type Action = ClusterAction;

    fn apply(
        &mut self,
        now: SimTime,
        target: &ActionTarget,
        action: &Self::Action,
    ) -> Result<String, String> {
        let ids: Vec<NodeId> = match target {
            ActionTarget::Canary(id) => vec![*id],
            ActionTarget::Fleet(ids) => ids.clone(),
        };
        let mut notes = Vec::with_capacity(ids.len());
        for id in ids {
            let n = self
                .nodes
                .get_mut(id.index())
                .ok_or_else(|| format!("no world for {id:?}"))?;
            let w = &mut n.world;
            match action {
                ClusterAction::PowerCap { kw } => {
                    w.set_power_cap_kw(Some(*kw));
                    notes.push(format!("world{:02} capped at {kw:.1} kW", id.0));
                }
                ClusterAction::Uncap => {
                    w.set_power_cap_kw(None);
                    notes.push(format!("world{:02} uncapped", id.0));
                }
                ClusterAction::Checkpoint => {
                    let mut taken = 0;
                    for j in w.running_jobs() {
                        if w.signal_checkpoint(j) {
                            taken += 1;
                        }
                    }
                    notes.push(format!("world{:02}: {taken} checkpoint(s)", id.0));
                }
                ClusterAction::RepairAndDrain { outage } => {
                    w.set_failure(None);
                    let mut taken = 0;
                    for j in w.running_jobs() {
                        if w.signal_checkpoint(j) {
                            taken += 1;
                        }
                    }
                    // The outage starts at the world's local now if the
                    // controller clock lags it (drain boundaries align
                    // them, but a frozen world may sit behind).
                    let start = if now.0 > w.now().0 { now } else { w.now() };
                    w.add_outage(start, start + *outage);
                    notes.push(format!(
                        "world{:02}: repaired, {taken} checkpoint(s), {}s outage",
                        id.0,
                        outage.as_secs_f64()
                    ));
                }
            }
        }
        Ok(notes.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppProfile;
    use crate::workload::WorkloadConfig;
    use moda_fleet::{NodeLiveness, Rank};
    use moda_scheduler::JobRequest;

    fn small_cluster(nodes: usize) -> Cluster {
        let cfg = ClusterConfig {
            nodes,
            world: WorldConfig {
                nodes: 8,
                power_period: Some(SimDuration::from_secs(60)),
                auto_resubmit: false,
                ..WorldConfig::default()
            },
            drain_period: SimDuration::from_mins(10),
        };
        Cluster::new(cfg)
    }

    fn campaign(seed: u64) -> Vec<(JobRequest, AppProfile)> {
        let cfg = WorkloadConfig {
            n_jobs: 4,
            ..WorkloadConfig::default()
        };
        crate::workload::generate(&cfg, &moda_sim::rng::RngStreams::new(seed), 0)
    }

    #[test]
    fn cluster_aggregates_every_worlds_telemetry() {
        let mut c = small_cluster(3);
        for k in 0..3 {
            let jobs = campaign(7 + k as u64);
            c.world_mut(k).submit_campaign(jobs);
        }
        c.run_until(SimTime::from_hours(2));
        // Every world's facility meter landed as one logical axis.
        let store = c.store();
        assert_eq!(store.logical_members("facility.power_kw").len(), 3);
        assert!(store.lookup("world01/facility.power_kw").is_some());
        // Fleet-wide mean facility power over the last hour exists and
        // pools all three worlds.
        let (mean, served) = store.fleet_window_agg_served(
            "facility.power_kw",
            c.now(),
            SimDuration::from_hours(1),
            WindowAgg::Mean,
        );
        assert!(mean.unwrap() > 0.0);
        assert_eq!(served.members, 3);
        // Wire hygiene across the deterministic drains.
        for k in 0..3 {
            let counters = c.aggregator().counters(c.node_id(k));
            assert_eq!(counters.duplicate_batches, 0);
            assert_eq!(counters.gaps, 0);
            assert_eq!(counters.unmapped_records, 0);
            assert!(counters.samples > 0);
        }
        // All worlds drained to the same horizon: everyone is live.
        let h = c.health(SimDuration::from_hours(1));
        assert_eq!(h.live, 3);
        assert_eq!(h.stale + h.silent, 0);
    }

    #[test]
    fn killed_world_goes_dark_then_catches_up() {
        let mut c = small_cluster(3);
        for k in 0..3 {
            c.world_mut(k).submit_campaign(campaign(70 + k as u64));
        }
        c.schedule_fault(NodeFault {
            node: 1,
            kind: FaultKind::Kill,
            from: SimTime::from_mins(20),
            until: SimTime::from_mins(90),
        });
        c.run_until(SimTime::from_mins(80));
        // Deep in the window: world 1 froze at the last pre-fault
        // boundary, so its telemetry lags the cluster clock.
        let h = c.health(SimDuration::from_mins(15));
        assert!(h.live < 3, "killed world still counted live: {h:?}");
        assert!(c.world(1).now() < c.world(0).now());
        // After the window the world resumes, the backlog ships, and
        // the node is live again (other worlds may by now be honestly
        // stale — their campaigns simply ended).
        c.run_until(SimTime::from_hours(3));
        let h = c.health(SimDuration::from_mins(15));
        let healed = &h.nodes[c.node_id(1).index()];
        assert_eq!(
            healed.liveness,
            NodeLiveness::Live,
            "no recovery: {healed:?}"
        );
        assert!(
            healed.high_water.0 > SimTime::from_mins(90).0,
            "no catch-up"
        );
        assert_eq!(healed.counters.gaps, 0, "freeze must not lose batches");
        assert_eq!(healed.counters.duplicate_batches, 0);
    }

    #[test]
    fn partitioned_world_rolls_back_and_reships_everything() {
        // Batches applied and high water of both worlds' sessions.
        let seen = |c: &Cluster| {
            let h = c.health(SimDuration::from_hours(1));
            [0, 1].map(|k| {
                let n = &h.nodes[c.node_id(k).index()];
                (n.counters.batches, n.high_water.0)
            })
        };
        let run = |partition: bool| {
            let mut c = small_cluster(2);
            for k in 0..2 {
                c.world_mut(k).submit_campaign(campaign(80 + k as u64));
            }
            if partition {
                c.schedule_fault(NodeFault {
                    node: 0,
                    kind: FaultKind::Partition,
                    from: SimTime::from_mins(20),
                    until: SimTime::from_mins(100),
                });
            }
            // The last drain before the window, the window's first
            // boundary, and one deep inside it.
            let views = [10, 20, 60].map(|m| {
                c.run_until(SimTime::from_mins(m));
                seen(&c)
            });
            c.run_until(SimTime::from_hours(4));
            (
                c.failed_drains(),
                c.aggregator().counters(c.node_id(0)).samples,
                c.aggregator().counters(c.node_id(0)).gaps,
                views,
            )
        };
        let (clean_failures, clean_samples, ..) = run(false);
        assert_eq!(clean_failures, 0);
        let (failures, samples, gaps, [before, first, inside]) = run(true);
        // Nothing crosses the partition: world 0's session stands where
        // the last drain before the window left it, while world 1's moves on.
        assert_eq!(first[0], before[0], "a batch crossed the partition");
        assert_eq!(inside[0], before[0], "a batch crossed the partition");
        assert!(inside[1].0 > first[1].0 && inside[1].1 > first[1].1);
        // Drains inside the window failed and the exporter rolled back…
        assert!(failures > 0, "partition never bit");
        assert_eq!(gaps, 0, "rollback must leave the stream contiguous");
        // …and after heal the backlog re-shipped bit-identically: the
        // aggregation tier ends with exactly the clean run's samples.
        assert_eq!(samples, clean_samples);
    }

    #[test]
    fn actuator_targets_canary_then_fleet() {
        let mut c = small_cluster(3);
        for k in 0..3 {
            c.world_mut(k).submit_campaign(campaign(90 + k as u64));
        }
        c.run_until(SimTime::from_mins(30));
        let now = c.now();
        let (_agg, mut act) = c.control_parts();
        let detail = act
            .apply(
                now,
                &ActionTarget::Canary(NodeId(1)),
                &ClusterAction::PowerCap { kw: 1.5 },
            )
            .unwrap();
        assert!(detail.contains("world01"), "detail: {detail}");
        assert_eq!(c.world(1).power_cap_kw(), Some(1.5));
        assert_eq!(c.world(0).power_cap_kw(), None, "canary stays scoped");
        let (_agg, mut act) = c.control_parts();
        act.apply(
            now,
            &ActionTarget::Fleet(vec![NodeId(0), NodeId(1), NodeId(2)]),
            &ClusterAction::PowerCap { kw: 1.5 },
        )
        .unwrap();
        assert!((0..3).all(|k| c.world(k).power_cap_kw() == Some(1.5)));
        // Unknown targets are an actuation error, not a panic.
        let (_agg, mut act) = c.control_parts();
        assert!(act
            .apply(now, &ActionTarget::Canary(NodeId(9)), &ClusterAction::Uncap)
            .is_err());
    }

    #[test]
    fn cluster_ranks_worlds_and_is_deterministic() {
        let run = || {
            let mut c = small_cluster(2);
            for k in 0..2 {
                c.world_mut(k).submit_campaign(campaign(40 + k as u64));
            }
            c.run_to_completion(SimTime::from_hours(12));
            let ranked = c.store().top_nodes(
                "sched.queue_len",
                c.now(),
                SimDuration::from_hours(12),
                WindowAgg::Max,
                2,
                Rank::Highest,
            );
            let p50 = c.fleet_window_agg(
                "facility.power_kw",
                SimDuration::from_hours(12),
                WindowAgg::Percentile(0.5),
            );
            (ranked, p50, c.store().stats().samples)
        };
        let (a_rank, a_p50, a_samples) = run();
        let (b_rank, b_p50, b_samples) = run();
        assert_eq!(a_rank, b_rank);
        assert_eq!(a_p50, b_p50);
        assert_eq!(a_samples, b_samples);
        assert!(a_samples > 0);
    }
}
