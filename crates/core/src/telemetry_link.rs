//! Wiring MAPE-K loops to the telemetry substrate.
//!
//! The paper's Fig. 1 loops all start the same way: Monitor reads a
//! recent window of one metric from the holistic-monitoring store and
//! Analyze collapses it to a scalar. This module provides that shape as
//! reusable components over the **sharded** store
//! ([`moda_telemetry::ShardedTsdb`]), using the allocation-free
//! aggregate-query path (`window_agg` / `latest_n_agg`) so a fleet of
//! loops can poll concurrently without materializing `Vec<Sample>` or
//! serializing behind one global lock.

use crate::component::Monitor;
use crate::domain::ScalarDomain;
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::{MetricId, RollupConfig, SharedTsdb, WindowAgg};

/// A [`Monitor`] observing one metric's trailing-window aggregate from a
/// shared sharded TSDB. Zero allocation per observation; holds only the
/// metric's stripe read lock for the duration of one binary-searched
/// fold. When the metric maintains rollups (see
/// [`TsdbWindowMonitor::with_rollups`]), wide windows are served from
/// sealed pre-folded buckets instead of raw scans, so month-wide Analyze
/// monitors cost O(window/3600) per observation.
pub struct TsdbWindowMonitor {
    db: SharedTsdb,
    metric: MetricId,
    window: SimDuration,
    agg: WindowAgg,
    name: String,
}

impl TsdbWindowMonitor {
    /// Monitor `metric`'s `agg` over the trailing `window`.
    pub fn new(db: SharedTsdb, metric: MetricId, window: SimDuration, agg: WindowAgg) -> Self {
        TsdbWindowMonitor {
            name: format!("tsdb-window({metric})"),
            db,
            metric,
            window,
            agg,
        }
    }

    /// Like [`TsdbWindowMonitor::new`], but first ensures `metric`
    /// maintains a rollup pyramid (backfilling from retained raw samples
    /// when newly enabled) — the constructor for wide-window
    /// Knowledge-layer monitors. A metric that already has rollups keeps
    /// its existing pyramid untouched (its sealed history outlives raw
    /// retention and must not be rebuilt from the raw tail).
    ///
    /// A `Percentile` monitor upgrades the config to a **sketched**
    /// pyramid ([`RollupConfig::with_sketches`]) so its wide tail reads
    /// are served by merging bucket quantile sketches (1 % relative
    /// error) instead of scanning raw samples — the Knowledge-layer p99
    /// shape. (If the metric already carries a sketch-free pyramid, the
    /// ensure is a no-op and the monitor transparently falls back to the
    /// exact raw path.)
    pub fn with_rollups(
        db: SharedTsdb,
        metric: MetricId,
        window: SimDuration,
        agg: WindowAgg,
        rollups: &RollupConfig,
    ) -> Self {
        if matches!(agg, WindowAgg::Percentile(_)) && !rollups.sketches() {
            db.ensure_rollups(metric, &rollups.clone().with_sketches());
        } else {
            db.ensure_rollups(metric, rollups);
        }
        Self::new(db, metric, window, agg)
    }
}

impl Monitor<ScalarDomain> for TsdbWindowMonitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn observe(&mut self, now: SimTime) -> Option<f64> {
        self.db.window_agg(self.metric, now, self.window, self.agg)
    }
}

/// A [`Monitor`] observing one metric's most recent value — the cheapest
/// Monitor shape (O(1), stripe read lock only).
pub struct TsdbLatestMonitor {
    db: SharedTsdb,
    metric: MetricId,
    name: String,
}

impl TsdbLatestMonitor {
    /// Monitor `metric`'s latest value.
    pub fn new(db: SharedTsdb, metric: MetricId) -> Self {
        TsdbLatestMonitor {
            name: format!("tsdb-latest({metric})"),
            db,
            metric,
        }
    }
}

impl Monitor<ScalarDomain> for TsdbLatestMonitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn observe(&mut self, _now: SimTime) -> Option<f64> {
        self.db.latest_value(self.metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Plan, PlannedAction, Planner};
    use crate::confidence::Confidence;
    use crate::knowledge::Knowledge;
    use crate::loop_engine::MapeLoop;
    use moda_telemetry::{MetricMeta, SourceDomain, Tsdb};

    struct Identity;
    impl crate::component::Analyzer<ScalarDomain> for Identity {
        fn analyze(&mut self, _now: SimTime, obs: &f64, _k: &Knowledge) -> f64 {
            *obs
        }
    }

    struct AboveThreshold(f64);
    impl Planner<ScalarDomain> for AboveThreshold {
        fn plan(&mut self, _now: SimTime, a: &f64, _k: &Knowledge) -> Plan<f64> {
            if *a > self.0 {
                Plan::single(PlannedAction::new(*a, "act", Confidence::CERTAIN))
            } else {
                Plan::none()
            }
        }
    }

    struct CountExec(std::sync::Arc<std::sync::atomic::AtomicUsize>);
    impl crate::component::Executor<ScalarDomain> for CountExec {
        fn execute(&mut self, _now: SimTime, _a: &f64) -> bool {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            true
        }
    }

    #[test]
    fn window_monitor_drives_a_loop() {
        let mut db = Tsdb::new();
        let id = db.register(MetricMeta::gauge("temp", "C", SourceDomain::Hardware));
        let shared = db.into_shared();
        for s in 0..60u64 {
            shared.insert(id, SimTime::from_secs(s), 40.0 + s as f64);
        }
        let count = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut l = MapeLoop::new(
            "temp-loop",
            Box::new(TsdbWindowMonitor::new(
                shared.clone(),
                id,
                SimDuration::from_secs(10),
                WindowAgg::Max,
            )),
            Box::new(Identity),
            Box::new(AboveThreshold(90.0)),
            Box::new(CountExec(count.clone())),
        );
        // Max over (49, 59] is 99 > 90 → the loop acts.
        let r = l.tick(SimTime::from_secs(59));
        assert!(r.observed);
        assert_eq!(r.executed, 1);
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 1);
        // A window over data-free territory observes nothing.
        let r2 = l.tick(SimTime::from_hours(2));
        assert!(!r2.observed);
    }

    #[test]
    fn rollup_monitor_serves_wide_window_from_buckets() {
        let mut db = Tsdb::with_retention(1 << 14);
        let id = db.register(MetricMeta::gauge("power", "W", SourceDomain::Hardware));
        let shared = db.into_shared();
        for s in 0..7200u64 {
            shared.insert(id, SimTime::from_secs(s), (s % 50) as f64);
        }
        let mut m = TsdbWindowMonitor::with_rollups(
            shared.clone(),
            id,
            SimDuration::from_hours(1),
            WindowAgg::Max,
            &moda_telemetry::RollupConfig::standard(),
        );
        assert!(shared.with_storage(id, |_, rollups| rollups.is_some()));
        let hits = shared.rollup_hits();
        let obs = m.observe(SimTime::from_secs(7199)).unwrap();
        assert_eq!(obs, 49.0);
        assert!(
            shared.rollup_hits() > hits,
            "wide observe should hit rollups"
        );
    }

    #[test]
    fn percentile_monitor_is_served_from_sketches() {
        let mut db = Tsdb::with_retention(1 << 14);
        let id = db.register(MetricMeta::gauge("lat", "ms", SourceDomain::Software));
        let shared = db.into_shared();
        for s in 0..7200u64 {
            shared.insert(id, SimTime::from_secs(s), ((s * 7919) % 500) as f64);
        }
        // The plain (sketch-free) standard config: the constructor must
        // upgrade it for a percentile monitor.
        let mut m = TsdbWindowMonitor::with_rollups(
            shared.clone(),
            id,
            SimDuration::from_hours(1),
            WindowAgg::Percentile(0.99),
            &moda_telemetry::RollupConfig::standard(),
        );
        let sketch_hits = shared.sketch_hits();
        let now = SimTime::from_secs(7199);
        let p99 = m.observe(now).unwrap();
        assert!(
            shared.sketch_hits() > sketch_hits,
            "wide p99 observe should be sketch-served"
        );
        // Within the sketch's 1 % bound of the exact selection.
        let exact = shared.with_storage(id, |s, _| {
            s.window_view(now, SimDuration::from_hours(1))
                .aggregate(WindowAgg::Percentile(0.99))
        });
        assert!(
            (p99 - exact).abs() <= 0.0101 * exact.abs() + 1e-9,
            "sketch p99 {p99} vs exact {exact}"
        );
    }

    #[test]
    fn latest_monitor_observes_newest() {
        let mut db = Tsdb::new();
        let id = db.register(MetricMeta::gauge("q", "jobs", SourceDomain::Software));
        let shared = db.into_shared();
        let mut m = TsdbLatestMonitor::new(shared.clone(), id);
        assert_eq!(m.observe(SimTime::ZERO), None);
        shared.insert(id, SimTime::from_secs(1), 7.0);
        assert_eq!(m.observe(SimTime::from_secs(2)), Some(7.0));
    }
}
