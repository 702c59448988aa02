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
//! A count that a component keeps itself — a plain field with a
//! contract, counting whether or not a registry is attached — is not
//! mirrored into a registry counter: its owner hands the value to
//! [`write_reading`] at scrape time. The counter and gauge arms of the
//! registry scrape go through that same writer.
//!
//! The scrape goes through the scrape-only store entry points
//! (`register_self` / `insert_self`), called from this module only; it
//! is the namespace's only writer and its samples are accounted under
//! `self_inserts`, never the user insert counters.

use crate::registry::{Instrument, Obs, ObsRegistry};
use moda_sim::SimTime;
use moda_telemetry::metric::SELF_NAMESPACE;
use moda_telemetry::{MetricKind, MetricMeta, RollupConfig, SourceDomain, Tsdb};
use std::sync::atomic::Ordering;

/// Write one sample of `__self/<name>` at `t`: a cumulative
/// [`MetricKind::Counter`] (unit `count`) or a current
/// [`MetricKind::Gauge`] (unit `value`). The one writer of `__self/`
/// counter and gauge series. Returns whether the sample was stored.
pub fn write_reading(
    target: &mut Tsdb,
    name: &str,
    kind: MetricKind,
    value: f64,
    t: SimTime,
) -> bool {
    let unit = match kind {
        MetricKind::Counter => "count",
        MetricKind::Gauge => "value",
    };
    let id = target.register_self(MetricMeta {
        name: format!("{SELF_NAMESPACE}{name}"),
        kind,
        unit: unit.to_string(),
        domain: SourceDomain::Software,
    });
    target.insert_self(id, t, value)
}

impl ObsRegistry {
    /// Write every instrument into `target`'s `__self/` namespace at
    /// timestamp `t`; returns the samples stored. Deterministic:
    /// instruments are visited in registration order, pending latency
    /// samples in record order.
    pub fn scrape_into(&self, target: &mut Tsdb, t: SimTime) -> usize {
        let mut samples = 0;
        for (name, inst) in self.entries() {
            let (kind, value) = match inst {
                Instrument::Counter(c) => (MetricKind::Counter, c.load(Ordering::Relaxed) as f64),
                Instrument::Gauge(g) => {
                    (MetricKind::Gauge, f64::from_bits(g.load(Ordering::Relaxed)))
                }
                Instrument::Latency(cell) => {
                    let id = target.register_self(MetricMeta::gauge(
                        format!("{SELF_NAMESPACE}{name}"),
                        "ns",
                        SourceDomain::Software,
                    ));
                    // Sketched rollups make wide self-p99s plannable —
                    // and fleet-mergeable over the existing sketch wire.
                    target.ensure_rollups(id, &RollupConfig::standard().with_sketches());
                    for ns in cell.take_pending() {
                        samples += usize::from(target.insert_self(id, t, ns as f64));
                    }
                    continue;
                }
            };
            samples += usize::from(write_reading(target, &name, kind, value, t));
        }
        samples
    }
}

impl Obs {
    /// [`ObsRegistry::scrape_into`] through the handle; a disabled
    /// handle scrapes nothing and returns 0.
    pub fn scrape_into(&self, target: &mut Tsdb, t: SimTime) -> usize {
        self.registry().map_or(0, |reg| reg.scrape_into(target, t))
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
        let samples = obs.scrape_into(&mut db, SimTime::from_secs(10));
        assert_eq!(db.cardinality(), 3);
        assert_eq!(samples, 4);

        let batches = db.lookup("__self/ingest.batches").unwrap();
        assert_eq!(db.latest_value(batches), Some(7.0));
        assert_eq!(db.meta(batches).kind, MetricKind::Counter);
        let mem = db.lookup("__self/store.memory_bytes").unwrap();
        assert_eq!(db.latest_value(mem), Some(1234.5));
        assert_eq!(db.meta(mem).kind, MetricKind::Gauge);
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

        // Pending buffer drained: a second scrape writes the counter and
        // the gauge again, and no latency samples.
        let again = obs.scrape_into(&mut db, SimTime::from_secs(20));
        assert_eq!(again, 2);
        assert_eq!(db.self_inserts(), (samples + again) as u64);
        assert_eq!(db.total_inserts(), 0, "scrape never counts as user inserts");
    }

    #[test]
    fn a_reading_is_written_like_a_registry_instrument() {
        let t = SimTime::from_secs(1);
        let obs = Obs::enabled();
        obs.counter("a").add(3);
        obs.gauge("b").set(-2.5);
        let mut scraped = Tsdb::new();
        obs.scrape_into(&mut scraped, t);
        let mut read = Tsdb::new();
        assert!(write_reading(&mut read, "a", MetricKind::Counter, 3.0, t));
        assert!(write_reading(&mut read, "b", MetricKind::Gauge, -2.5, t));
        for name in ["__self/a", "__self/b"] {
            let (s, r) = (scraped.lookup(name).unwrap(), read.lookup(name).unwrap());
            assert_eq!(scraped.meta(s), read.meta(r));
            assert_eq!(scraped.latest_value(s), read.latest_value(r));
        }
    }

    #[test]
    fn disabled_scrape_is_a_no_op() {
        let obs = Obs::disabled();
        obs.counter("c").add(1);
        let mut db = Tsdb::new();
        assert_eq!(obs.scrape_into(&mut db, SimTime::from_secs(1)), 0);
        assert_eq!(db.cardinality(), 0);
    }
}
