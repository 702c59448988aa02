//! The fleet's self-telemetry loop: scrape → export → ingest.
//!
//! A [`SelfScraper`] closes the observability loop for a fleet service.
//! It owns a small private [`Tsdb`] and an incremental [`Exporter`];
//! each [`tick`](SelfScraper::tick):
//!
//! 1. **scrapes** the service's [`Obs`] registry into the private store
//!    (reserved `__self/` series, sketched rollups on latency series),
//! 2. **drains** the store through the stock exporter into in-memory
//!    wire batches — the same format v1.2 every node exporter ships,
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

use crate::persist::DurableFleet;
use crate::store::NodeId;
use moda_obs::{LatencyRecorder, Obs, ScrapeStats};
use moda_sim::SimTime;
use moda_telemetry::export::MemorySink;
use moda_telemetry::{DrainStats, Exporter, Tsdb};
use std::io;

/// Default session name for the scraper's service node.
pub const SELF_NODE: &str = "__svc";

/// Accounting for one [`SelfScraper::tick`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SelfScrapeTick {
    /// What the registry scrape wrote into the private store.
    pub scrape: ScrapeStats,
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

    /// One pass of the loop: scrape the registry at timestamp `t`,
    /// drain the delta as wire batches, ingest them into the fleet.
    pub fn tick(&mut self, fleet: &mut DurableFleet, t: SimTime) -> io::Result<SelfScrapeTick> {
        let scrape = self.obs.scrape_into(&mut self.db, t);
        let mut sink = MemorySink::new();
        let drain = {
            let _span = self.drain_ns.start();
            self.exporter.drain(&self.db, &mut sink)?
        };
        record_drain(&self.obs, &drain);
        let mut out = SelfScrapeTick {
            scrape,
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

/// Fold one drain's [`DrainStats`] (the per-call delta returned by
/// `Exporter::drain`, not lifetime totals) into the registry's
/// `export.*` instruments, so the self-exporter's own drain accounting
/// is served as `__self/export.*` like every other instrument. No-op on
/// a disabled handle.
fn record_drain(obs: &Obs, stats: &DrainStats) {
    if !obs.is_enabled() {
        return;
    }
    for (name, delta) in [
        ("export.batches", stats.batches),
        ("export.records", stats.records),
        ("export.samples", stats.samples),
        ("export.chunks", stats.chunks),
        ("export.buckets", stats.buckets),
        ("export.sketch_entries", stats.sketch_entries),
        ("export.metas", stats.metas),
        ("export.missed_samples", stats.missed_samples),
        ("export.missed_buckets", stats.missed_buckets),
        ("export.lock_held_ns", stats.lock_held_ns),
        ("export.send_retries", stats.send_retries),
    ] {
        obs.counter(name).add(delta);
    }
    obs.gauge("export.max_lock_held_ns")
        .set_max(stats.max_lock_held_ns as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::DurabilityConfig;
    use moda_sim::SimDuration;
    use moda_telemetry::WindowAgg;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("moda_selfobs_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn record_drain_accumulates_into_the_export_instruments() {
        let stats = |scale: u64| DrainStats {
            batches: scale,
            records: 10 * scale,
            samples: 8 * scale,
            chunks: scale / 2,
            buckets: 3 * scale,
            sketch_entries: 5 * scale,
            metas: 2,
            missed_samples: 0,
            missed_buckets: 1,
            lock_held_ns: 1_000 * scale,
            max_lock_held_ns: 400 * scale,
            send_retries: scale % 2,
        };
        let obs = Obs::enabled();
        record_drain(&obs, &stats(2));
        record_drain(&obs, &stats(5));
        let mut want = stats(2);
        want.merge(&stats(5));
        for (name, total) in [
            ("export.batches", want.batches),
            ("export.records", want.records),
            ("export.samples", want.samples),
            ("export.chunks", want.chunks),
            ("export.buckets", want.buckets),
            ("export.sketch_entries", want.sketch_entries),
            ("export.metas", want.metas),
            ("export.missed_samples", want.missed_samples),
            ("export.missed_buckets", want.missed_buckets),
            ("export.lock_held_ns", want.lock_held_ns),
            ("export.send_retries", want.send_retries),
        ] {
            assert_eq!(obs.counter_value(name), Some(total), "{name}");
        }
        assert_eq!(
            obs.gauge("export.max_lock_held_ns").get() as u64,
            want.max_lock_held_ns
        );
        // A disabled handle registers nothing.
        let off = Obs::disabled();
        record_drain(&off, &stats(3));
        assert_eq!(off.counter_value("export.batches"), None);
    }

    #[test]
    fn scrape_ships_self_axes_into_the_fleet() {
        let dir = tmp_dir("ship");
        let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let obs = Obs::enabled();
        obs.latency("test.op_ns").record_ns(2_500);
        obs.counter("fleet.ingest.batches").add(3);
        let mut scraper = SelfScraper::attach(&mut fleet, obs.clone()).unwrap();

        let t1 = SimTime::from_secs(10);
        let tick = scraper.tick(&mut fleet, t1).unwrap();
        assert!(tick.scrape.samples >= 2);
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
        assert!(store
            .fleet_window_agg(
                "__self/fleet.ingest.batches",
                t1,
                SimDuration::from_secs(60),
                WindowAgg::Max,
            )
            .is_some());

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
