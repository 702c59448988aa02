//! The self-scrape: write the registry into a store's `__self/` namespace.
//!
//! On a configurable cadence the owner of an [`Obs`] handle calls
//! [`Obs::scrape_into`] with a timestamp; every instrument becomes one
//! series under the reserved [`SELF_NAMESPACE`]:
//!
//! * **counters** — one cumulative sample (lifetime count as `f64`),
//! * **gauges** — one sample of the current value,
//! * **latency recorders** — the *pending* raw durations drained since
//!   the last scrape, each inserted as a nanosecond sample at the scrape
//!   timestamp (the series ring accepts duplicate timestamps), with a
//!   **sketched rollup pyramid** enabled on first registration — so a
//!   fleet-merged `__self/...` p99 is served by the existing sketch
//!   planner with zero new wire kinds. Durations are integer ns well
//!   below 2^53, so the ns → f64 → wire round trip is bit-exact.
//!
//! The scrape goes through the scrape-only store entry points
//! (`register_self` / `insert_self`); it is the namespace's only writer
//! and its samples are accounted under `self_inserts`, never the user
//! insert counters.

use crate::registry::{Instrument, Obs, ObsRegistry};
use moda_sim::SimTime;
use moda_telemetry::metric::SELF_NAMESPACE;
use moda_telemetry::{MetricMeta, RollupConfig, SourceDomain, Tsdb};

/// Accounting for one [`Obs::scrape_into`] pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScrapeStats {
    /// Instruments visited (== `__self/` series touched).
    pub instruments: usize,
    /// Samples inserted into the target store.
    pub samples: usize,
    /// Of those, raw latency durations drained from pending buffers.
    pub latency_samples: usize,
}

impl ObsRegistry {
    /// Write every instrument into `target`'s `__self/` namespace at
    /// timestamp `t`. Deterministic: instruments are visited in
    /// registration order, pending latency samples in record order.
    pub fn scrape_into(&self, target: &mut Tsdb, t: SimTime) -> ScrapeStats {
        let mut stats = ScrapeStats::default();
        for (name, inst) in self.entries() {
            stats.instruments += 1;
            let self_name = format!("{SELF_NAMESPACE}{name}");
            match inst {
                Instrument::Counter(c) => {
                    let id = target.register_self(MetricMeta::counter(
                        self_name,
                        "count",
                        SourceDomain::Software,
                    ));
                    let v = c.load(std::sync::atomic::Ordering::Relaxed) as f64;
                    if target.insert_self(id, t, v) {
                        stats.samples += 1;
                    }
                }
                Instrument::Gauge(g) => {
                    let id = target.register_self(MetricMeta::gauge(
                        self_name,
                        "value",
                        SourceDomain::Software,
                    ));
                    let v = f64::from_bits(g.load(std::sync::atomic::Ordering::Relaxed));
                    if target.insert_self(id, t, v) {
                        stats.samples += 1;
                    }
                }
                Instrument::Latency(cell) => {
                    let id = target.register_self(MetricMeta::gauge(
                        self_name,
                        "ns",
                        SourceDomain::Software,
                    ));
                    // Sketched rollups make wide self-p99s plannable —
                    // and fleet-mergeable over the existing sketch wire.
                    target.ensure_rollups(id, &RollupConfig::standard().with_sketches());
                    for ns in cell.take_pending() {
                        if target.insert_self(id, t, ns as f64) {
                            stats.samples += 1;
                            stats.latency_samples += 1;
                        }
                    }
                }
            }
        }
        stats
    }
}

impl Obs {
    /// [`ObsRegistry::scrape_into`] through the handle; a disabled
    /// handle scrapes nothing and returns zeroed stats.
    pub fn scrape_into(&self, target: &mut Tsdb, t: SimTime) -> ScrapeStats {
        match self.registry() {
            None => ScrapeStats::default(),
            Some(reg) => reg.scrape_into(target, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moda_sim::SimDuration;
    use moda_telemetry::WindowAgg;

    #[test]
    fn scrape_writes_all_instrument_kinds() {
        let obs = Obs::enabled();
        obs.counter("ingest.batches").add(7);
        obs.gauge("store.memory_bytes").set(1234.5);
        let lat = obs.latency("wal.fsync_ns");
        lat.record_ns(1_000);
        lat.record_ns(3_000);

        let mut db = Tsdb::new();
        let stats = obs.scrape_into(&mut db, SimTime::from_secs(10));
        assert_eq!(stats.instruments, 3);
        assert_eq!(stats.samples, 4);
        assert_eq!(stats.latency_samples, 2);

        let batches = db.lookup("__self/ingest.batches").unwrap();
        assert_eq!(db.latest_value(batches), Some(7.0));
        let mem = db.lookup("__self/store.memory_bytes").unwrap();
        assert_eq!(db.latest_value(mem), Some(1234.5));
        let fsync = db.lookup("__self/wal.fsync_ns").unwrap();
        assert!(db.rollups(fsync).is_some(), "latency series get rollups");
        let max = db
            .window_agg(
                fsync,
                SimTime::from_secs(10),
                SimDuration::from_secs(60),
                WindowAgg::Max,
            )
            .unwrap();
        assert_eq!(max, 3_000.0);

        // Pending buffer drained: a second scrape adds no latency samples.
        let again = obs.scrape_into(&mut db, SimTime::from_secs(20));
        assert_eq!(again.latency_samples, 0);
        assert_eq!(
            db.self_inserts(),
            stats.samples as u64 + again.samples as u64
        );
        assert_eq!(db.total_inserts(), 0, "scrape never counts as user inserts");
    }

    #[test]
    fn disabled_scrape_is_a_no_op() {
        let obs = Obs::disabled();
        obs.counter("c").add(1);
        let mut db = Tsdb::new();
        let stats = obs.scrape_into(&mut db, SimTime::from_secs(1));
        assert_eq!(stats, ScrapeStats::default());
        assert_eq!(db.cardinality(), 0);
    }
}
