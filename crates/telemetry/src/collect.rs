//! Sensors and the periodic collector.
//!
//! A [`Sensor`] is anything that can be swept for `(metric, value)` pairs
//! — a node power meter, the scheduler queue, an application's progress
//! marker file. The [`Collector`] owns a set of sensors, each with its own
//! sampling period (the paper notes different loops need different
//! "latency, sampling rates, cardinality"), and is *driven* by the
//! simulation: the world asks when the next sweep is due and calls
//! [`Collector::poll`] at that time.

use crate::metric::MetricId;
use crate::tsdb::Tsdb;
use moda_sim::{SimDuration, SimTime};

/// A source of telemetry samples.
pub trait Sensor {
    /// Stable diagnostic name.
    fn name(&self) -> &str;
    /// Sweep current readings into `out` as `(metric, value)` pairs.
    fn sample(&mut self, now: SimTime, out: &mut Vec<(MetricId, f64)>);
}

struct Entry {
    sensor: Box<dyn Sensor>,
    period: SimDuration,
    next_due: SimTime,
    enabled: bool,
    /// Re-enabled since its last sweep: `next_due` is stale.
    resuming: bool,
}

/// Periodic multiplexer of sensors into a [`Tsdb`].
pub struct Collector {
    entries: Vec<Entry>,
    scratch: Vec<(MetricId, f64)>,
    sweeps: u64,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// Empty collector.
    pub fn new() -> Self {
        Collector {
            entries: Vec::new(),
            scratch: Vec::new(),
            sweeps: 0,
        }
    }

    /// Add a sensor sampled every `period`, first due at `first_due`.
    /// Returns a handle usable with [`Collector::set_enabled`] /
    /// [`Collector::set_period`].
    pub fn add_sensor(
        &mut self,
        sensor: Box<dyn Sensor>,
        period: SimDuration,
        first_due: SimTime,
    ) -> usize {
        assert!(period.as_millis() > 0, "sensor period must be positive");
        self.entries.push(Entry {
            sensor,
            period,
            next_due: first_due,
            enabled: true,
            resuming: false,
        });
        self.entries.len() - 1
    }

    /// Enable or disable a sensor (disabled sensors never become due).
    /// A re-enabled sensor resumes on its old phase at the latest
    /// cadence point at or before the next poll: the time it spent
    /// disabled is a gap in the series, not back-dated readings.
    pub fn set_enabled(&mut self, handle: usize, enabled: bool) {
        let e = &mut self.entries[handle];
        e.resuming |= enabled && !e.enabled;
        e.enabled = enabled;
    }

    /// Change a sensor's sampling period — this is itself an actuator:
    /// loops may *adapt monitoring fidelity* (§IV in-situ considerations).
    pub fn set_period(&mut self, handle: usize, period: SimDuration) {
        assert!(period.as_millis() > 0, "sensor period must be positive");
        self.entries[handle].period = period;
    }

    /// Current period of a sensor.
    pub fn period(&self, handle: usize) -> SimDuration {
        self.entries[handle].period
    }

    /// Earliest time any enabled sensor is due, or `None` if none are.
    pub fn next_due(&self) -> Option<SimTime> {
        self.entries
            .iter()
            .filter(|e| e.enabled)
            .map(|e| e.next_due)
            .min()
    }

    /// Sweep every sensor due at or before `now` into `db`, rescheduling
    /// each at `due + period` (fixed cadence, no drift accumulation even
    /// if polled late). Each due sweep lands as one `insert_batch`.
    /// Returns the number of samples inserted.
    pub fn poll(&mut self, now: SimTime, db: &mut Tsdb) -> usize {
        let mut inserted = 0;
        for e in &mut self.entries {
            if !e.enabled {
                continue;
            }
            if std::mem::take(&mut e.resuming) && e.next_due < now {
                let skipped = (now.0 - e.next_due.0) / e.period.0;
                e.next_due = SimTime(e.next_due.0 + skipped * e.period.0);
            }
            while e.next_due <= now {
                self.scratch.clear();
                e.sensor.sample(e.next_due, &mut self.scratch);
                inserted += db.insert_batch(e.next_due, &self.scratch);
                self.sweeps += 1;
                e.next_due += e.period;
            }
        }
        inserted
    }

    /// Lifetime sensor sweep count.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Number of registered sensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no sensors are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{MetricMeta, SourceDomain};

    /// Test sensor: emits an incrementing value on a fixed metric.
    struct Ramp {
        id: MetricId,
        v: f64,
    }

    impl Sensor for Ramp {
        fn name(&self) -> &str {
            "ramp"
        }
        fn sample(&mut self, _now: SimTime, out: &mut Vec<(MetricId, f64)>) {
            out.push((self.id, self.v));
            self.v += 1.0;
        }
    }

    fn setup() -> (Tsdb, MetricId) {
        let mut db = Tsdb::new();
        let id = db.register(MetricMeta::gauge("ramp", "u", SourceDomain::Hardware));
        (db, id)
    }

    #[test]
    fn polls_on_schedule() {
        let (mut db, id) = setup();
        let mut c = Collector::new();
        c.add_sensor(
            Box::new(Ramp { id, v: 0.0 }),
            SimDuration::from_secs(10),
            SimTime::ZERO,
        );
        assert_eq!(c.next_due(), Some(SimTime::ZERO));
        let n = c.poll(SimTime::ZERO, &mut db);
        assert_eq!(n, 1);
        assert_eq!(c.next_due(), Some(SimTime::from_secs(10)));
        // Nothing due yet at t=5.
        assert_eq!(c.poll(SimTime::from_secs(5), &mut db), 0);
        assert_eq!(c.poll(SimTime::from_secs(10), &mut db), 1);
        assert_eq!(db.series(id).len(), 2);
    }

    #[test]
    fn late_poll_catches_up_without_drift() {
        let (mut db, id) = setup();
        let mut c = Collector::new();
        c.add_sensor(
            Box::new(Ramp { id, v: 0.0 }),
            SimDuration::from_secs(10),
            SimTime::ZERO,
        );
        // Poll at t=35: sweeps due at 0, 10, 20, 30 all fire with their
        // *scheduled* timestamps.
        let n = c.poll(SimTime::from_secs(35), &mut db);
        assert_eq!(n, 4);
        let times: Vec<u64> = db
            .series(id)
            .iter()
            .map(|s| s.t.as_millis() / 1000)
            .collect();
        assert_eq!(times, vec![0, 10, 20, 30]);
        assert_eq!(c.next_due(), Some(SimTime::from_secs(40)));
    }

    #[test]
    fn disabled_sensor_is_skipped() {
        let (mut db, id) = setup();
        let mut c = Collector::new();
        let h = c.add_sensor(
            Box::new(Ramp { id, v: 0.0 }),
            SimDuration::from_secs(1),
            SimTime::ZERO,
        );
        c.set_enabled(h, false);
        assert_eq!(c.next_due(), None);
        assert_eq!(c.poll(SimTime::from_secs(100), &mut db), 0);
        c.set_enabled(h, true);
        assert!(c.poll(SimTime::from_secs(100), &mut db) > 0);
    }

    #[test]
    fn reenabled_sensor_does_not_backfill_the_gap() {
        let (mut db, id) = setup();
        let mut c = Collector::new();
        let h = c.add_sensor(
            Box::new(Ramp { id, v: 0.0 }),
            SimDuration::from_secs(1),
            SimTime::ZERO,
        );
        c.set_enabled(h, false);
        assert_eq!(c.poll(SimTime::from_secs(50), &mut db), 0);
        c.set_enabled(h, true);
        // One reading, stamped at the latest cadence point: the 100 s
        // spent disabled stay a gap, and the 1 s phase is kept.
        assert_eq!(c.poll(SimTime(100_400), &mut db), 1);
        let stamps: Vec<SimTime> = db.series(id).iter().map(|s| s.t).collect();
        assert_eq!(stamps, vec![SimTime::from_secs(100)]);
        assert_eq!(c.next_due(), Some(SimTime::from_secs(101)));
        // From here on it is an ordinary sensor: a late poll catches up.
        assert_eq!(c.poll(SimTime::from_secs(103), &mut db), 3);
    }

    #[test]
    fn period_change_takes_effect() {
        let (mut db, id) = setup();
        let mut c = Collector::new();
        let h = c.add_sensor(
            Box::new(Ramp { id, v: 0.0 }),
            SimDuration::from_secs(10),
            SimTime::ZERO,
        );
        c.poll(SimTime::ZERO, &mut db);
        c.set_period(h, SimDuration::from_secs(2));
        assert_eq!(c.period(h), SimDuration::from_secs(2));
        // next_due was already set to old cadence (t=10); after that the
        // new period applies.
        c.poll(SimTime::from_secs(10), &mut db);
        assert_eq!(c.next_due(), Some(SimTime::from_secs(12)));
    }

    #[test]
    fn multiple_sensors_interleave() {
        let mut db = Tsdb::new();
        let a = db.register(MetricMeta::gauge("a", "u", SourceDomain::Hardware));
        let b = db.register(MetricMeta::gauge("b", "u", SourceDomain::Software));
        let mut c = Collector::new();
        c.add_sensor(
            Box::new(Ramp { id: a, v: 0.0 }),
            SimDuration::from_secs(2),
            SimTime::ZERO,
        );
        c.add_sensor(
            Box::new(Ramp { id: b, v: 100.0 }),
            SimDuration::from_secs(3),
            SimTime::ZERO,
        );
        c.poll(SimTime::from_secs(6), &mut db);
        // a due at 0,2,4,6 → 4 samples; b due at 0,3,6 → 3 samples.
        assert_eq!(db.series(a).len(), 4);
        assert_eq!(db.series(b).len(), 3);
        assert_eq!(c.sweeps(), 7);
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let mut c = Collector::new();
        let (_, id) = setup();
        c.add_sensor(
            Box::new(Ramp { id, v: 0.0 }),
            SimDuration::ZERO,
            SimTime::ZERO,
        );
    }
}
