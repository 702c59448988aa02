//! The fleet's self-telemetry loop: scrape → export → ingest.
//!
//! A [`SelfScraper`] closes the observability loop for a fleet service.
//! It owns a small private [`Tsdb`] and an incremental [`Exporter`];
//! each [`tick`](SelfScraper::tick):
//!
//! 1. **scrapes** the service's [`Obs`] registry into the private store
//!    (reserved `__self/` series, sketched rollups on latency series),
//!    together with the counts the fleet keeps itself, read where they
//!    live (see [`SelfScraper::tick`]),
//! 2. **drains** the store through the stock exporter into in-memory
//!    wire batches — the same records every node exporter ships, coded
//!    by the fleet's in-process ingest as a 1.6 sender would,
//! 3. **ingests** those batches into the [`DurableFleet`] under a
//!    dedicated service node session.
//!
//! After one tick, `__self/wal.fsync_ns` and friends are ordinary fleet
//! logical axes: rollup-planned, sketch-merged, durable, and served
//! over the remote query wire with **zero new wire kinds** for the p99
//! path. The store namespaces fleet metrics by node, but logical axes
//! key on the node-local metric name — so the self series stay
//! addressable as `__self/...` no matter what the service node is
//! called.
//!
//! The loop observes itself one step behind: the WAL appends and ingest
//! spans caused by shipping a scrape are recorded against the registry
//! and surface in the *next* scrape. That lag is inherent (and
//! harmless: counters are cumulative, latency samples are batched).

use crate::aggregator::{FleetAggregator, Ledger, NodeCounters};
use crate::persist::DurableFleet;
use crate::store::NodeId;
use moda_obs::scrape::write_reading;
use moda_obs::{LatencyRecorder, Obs};
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::export::MemorySink;
use moda_telemetry::{DrainStats, Exporter, MetricKind, Tsdb};
use std::io;

/// Default session name for the scraper's service node.
pub const SELF_NODE: &str = "__svc";

/// Accounting for one [`SelfScraper::tick`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SelfScrapeTick {
    /// Samples the scrape wrote into the private store: the registry's
    /// and the fleet's own counts alike.
    pub samples: usize,
    /// Wire batches shipped into the fleet this tick.
    pub batches: usize,
    /// Records the fleet applied from those batches.
    pub records: u64,
}

/// Scrapes an [`Obs`] registry into a [`DurableFleet`] through the
/// stock export pipeline. See the module docs for the loop shape.
#[derive(Debug)]
pub struct SelfScraper {
    obs: Obs,
    node: NodeId,
    db: Tsdb,
    exporter: Exporter,
    drain_ns: LatencyRecorder,
    ticks: u64,
}

impl SelfScraper {
    /// Attach self-telemetry to `fleet`: installs `obs` as the fleet's
    /// handle (WAL, ingest, and query-serve instruments start
    /// recording) and opens the scraper's service node session under
    /// [`SELF_NODE`].
    pub fn attach(fleet: &mut DurableFleet, obs: Obs) -> io::Result<Self> {
        Self::attach_as(fleet, obs, SELF_NODE)
    }

    /// [`SelfScraper::attach`] under an explicit service node name
    /// (logical axes are keyed by metric name, so the choice only
    /// affects the per-node namespace).
    pub fn attach_as(fleet: &mut DurableFleet, obs: Obs, node_name: &str) -> io::Result<Self> {
        fleet.set_obs(obs.clone());
        let node = fleet.add_node(node_name)?;
        let drain_ns = obs.latency("export.drain_ns");
        Ok(SelfScraper {
            obs,
            node,
            db: Tsdb::new(),
            exporter: Exporter::new(),
            drain_ns,
            ticks: 0,
        })
    }

    /// One pass of the loop: scrape the registry and the fleet's own
    /// counts at timestamp `t`, drain the delta as wire batches, ingest
    /// them into the fleet.
    ///
    /// The counts with a home outside the registry are read here, as
    /// they stand, and written as `__self/` counters: `fleet.ingest.*`
    /// from the fleet's sessions, `export.*` from this scraper's
    /// exporter. Those start with its second tick, after its first
    /// drain; `export.max_lock_held_ns` is a gauge, and so is each
    /// `ledger.<kind>.imbalance` (what the nodes owe, [`Ledger`]). A
    /// disabled handle writes none of them.
    pub fn tick(&mut self, fleet: &mut DurableFleet, t: SimTime) -> io::Result<SelfScrapeTick> {
        let mut samples = self.obs.scrape_into(&mut self.db, t);
        if self.obs.is_enabled() {
            let drained = (self.ticks > 0).then(|| self.exporter.totals());
            samples += write_readings(&mut self.db, fleet.aggregator(), drained, t);
        }
        let mut sink = MemorySink::new();
        {
            let _span = self.drain_ns.start();
            self.exporter.drain(&self.db, &mut sink)?;
        }
        let mut out = SelfScrapeTick {
            samples,
            batches: sink.batches.len(),
            records: 0,
        };
        for batch in &sink.batches {
            out.records += fleet.ingest(self.node, batch)?.records;
        }
        self.ticks += 1;
        Ok(out)
    }

    /// The service node session this scraper ships into.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Ticks completed.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The scraper's private node-local store (inspection/tests).
    pub fn db(&self) -> &Tsdb {
        &self.db
    }

    /// The attached handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }
}

/// Write the counts `agg` and the exporter keep themselves into `db`
/// at `t`: the `fleet.ingest.*` sums over every session, the exporter's
/// lifetime totals when there are any, and the ledger. Returns the
/// samples stored.
fn write_readings(
    db: &mut Tsdb,
    agg: &FleetAggregator,
    drained: Option<DrainStats>,
    t: SimTime,
) -> usize {
    let nodes = agg.health(t, SimDuration::ZERO).nodes;
    let sum = |count: fn(&NodeCounters) -> u64| nodes.iter().map(|n| count(&n.counters)).sum();
    let mut samples = 0;
    let mut write = |name, kind, v: u64| {
        samples += usize::from(write_reading(db, name, kind, v as f64, t));
    };
    let mut count = |name, v| write(name, MetricKind::Counter, v);
    count("fleet.ingest.batches", sum(|c| c.batches));
    count(
        "fleet.ingest.duplicate_batches",
        sum(|c| c.duplicate_batches),
    );
    count("fleet.ingest.records", sum(|c| c.records));
    count("fleet.ingest.samples", sum(|c| c.samples));
    count("fleet.ingest.rejected_samples", sum(|c| c.rejected_samples));
    count("fleet.ingest.sessions", agg.node_count() as u64);
    count("fleet.ingest.unknown_records", agg.unknown_records());
    if let Some(d) = drained {
        count("export.batches", d.batches);
        count("export.records", d.records);
        count("export.samples", d.samples);
        count("export.chunks", d.chunks);
        count("export.buckets", d.buckets);
        count("export.sketch_entries", d.sketch_entries);
        count("export.metas", d.metas);
        count("export.missed_samples", d.missed_samples);
        count("export.missed_buckets", d.missed_buckets);
        count("export.lock_held_ns", d.lock_held_ns);
        count("export.send_retries", d.send_retries);
        let max = d.max_lock_held_ns;
        write("export.max_lock_held_ns", MetricKind::Gauge, max);
    }
    // Only what is owed adds up: a node whose report lags its session
    // (below zero) does not hide another node's loss.
    let owed = |kind: fn(&Ledger) -> i64| {
        nodes.iter().map(|n| kind(&n.ledger()).max(0)).sum::<i64>() as u64
    };
    let mut gauge = |name, v| write(name, MetricKind::Gauge, v);
    gauge("ledger.batches.imbalance", owed(|l| l.batches));
    gauge("ledger.records.imbalance", owed(|l| l.records));
    gauge("ledger.samples.imbalance", owed(|l| l.samples));
    gauge("ledger.chunks.imbalance", owed(|l| l.chunks));
    gauge("ledger.buckets.imbalance", owed(|l| l.buckets));
    gauge(
        "ledger.sketch_entries.imbalance",
        owed(|l| l.sketch_entries),
    );
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::DurabilityConfig;
    use moda_telemetry::WindowAgg;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("moda_selfobs_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn scrape_ships_self_axes_into_the_fleet() {
        let dir = tmp_dir("ship");
        let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let obs = Obs::enabled();
        obs.latency("test.op_ns").record_ns(2_500);
        let mut scraper = SelfScraper::attach(&mut fleet, obs.clone()).unwrap();

        let t1 = SimTime::from_secs(10);
        let tick = scraper.tick(&mut fleet, t1).unwrap();
        assert!(tick.samples >= 2);
        assert!(tick.batches > 0 && tick.records > 0);

        // The latency series is a fleet logical axis with a sketch-fed
        // pyramid: a wide percentile is plannable immediately.
        let store = fleet.store();
        let p99 = store.fleet_window_agg(
            "__self/test.op_ns",
            t1,
            SimDuration::from_secs(60),
            WindowAgg::Percentile(0.99),
        );
        assert_eq!(p99, Some(2_500.0));
        // attach() itself logged a node frame, so the real
        // `wal.fsync_ns` axis already carries at least one span.
        assert!(
            store
                .fleet_window_agg(
                    "__self/wal.fsync_ns",
                    t1,
                    SimDuration::from_secs(60),
                    WindowAgg::Count,
                )
                .unwrap()
                >= 1.0
        );
        // A count the fleet keeps itself rides along as a reading: the
        // service session, opened by attach().
        assert_eq!(
            store.fleet_window_agg(
                "__self/fleet.ingest.sessions",
                t1,
                SimDuration::from_secs(60),
                WindowAgg::Max,
            ),
            Some(1.0)
        );

        // Tick 2 observes tick 1's own durability cost: the WAL appends
        // from shipping the first scrape were recorded on the registry.
        obs.latency("wal.fsync_ns"); // pre-resolve is idempotent
        let t2 = SimTime::from_secs(20);
        scraper.tick(&mut fleet, t2).unwrap();
        let store = fleet.store();
        let appends = store.fleet_window_agg(
            "__self/wal.appends",
            t2,
            SimDuration::from_secs(60),
            WindowAgg::Max,
        );
        assert!(appends.unwrap() > 0.0, "the loop observes itself");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn self_axes_survive_recovery() {
        let dir = tmp_dir("recover");
        {
            let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
            let obs = Obs::enabled();
            obs.latency("query.serve_ns").record_ns(9_000);
            let mut scraper = SelfScraper::attach(&mut fleet, obs).unwrap();
            scraper.tick(&mut fleet, SimTime::from_secs(5)).unwrap();
        }
        let fleet = DurableFleet::recover(&dir).unwrap();
        let p = fleet.store().fleet_window_agg(
            "__self/query.serve_ns",
            SimTime::from_secs(5),
            SimDuration::from_secs(60),
            WindowAgg::Percentile(0.99),
        );
        assert_eq!(p, Some(9_000.0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
