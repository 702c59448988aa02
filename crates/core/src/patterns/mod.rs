//! The four MAPE-K design patterns of Fig. 2, over one loop.
//!
//! | Pattern | Fig. 2 | Decentralized | Centralized | Trade-off (per §II) |
//! |---|---|---|---|---|
//! | [`MapeLoop`] itself | (a) | — | M, A, P, E | simple; one managed system |
//! | [`master_worker::MasterWorker`] | (b) | M, E | A, P | global objectives, limited Plan scalability |
//! | [`coordinated::Coordinated`] | (c) | M, A, P, E | — | scalable/robust, risk of instability |
//! | [`hierarchical::Hierarchy`] | (d) | M, A, P, E per child | supervision | separation of concerns & time scales |
//!
//! Fig. 2(a) is a [`MapeLoop`]; the other three patterns compose it. The
//! coordinated peers and the hierarchy's children *are* `MapeLoop`s, and
//! the master admits each dispatch through the same gate → guard step a
//! `MapeLoop` runs, so node-scale decisions are made and audited in one
//! place. All patterns are *stepped* orchestrators: the caller (usually
//! the discrete-event world) invokes `tick(now)`, or `poll(now)` for the
//! hierarchy, which keeps its own two cadences — nothing spawns threads
//! here, so composed simulations stay deterministic. The threaded
//! counterparts used for wall-clock latency measurements live in
//! [`crate::runtime`].
//!
//! [`MapeLoop`]: crate::loop_engine::MapeLoop

pub mod coordinated;
pub mod hierarchical;
pub mod master_worker;

pub use coordinated::{
    CooldownCoordinator, Coordinated, Coordinator, MaxConcurrent, NoCoordination,
};
pub use hierarchical::{Hierarchy, OscillationDamper, Supervisor, SupervisorReport};
pub use master_worker::{FleetAnalyzer, FleetPlanner, MasterWorker, Worker};

use moda_sim::{SimDuration, SimTime};

/// Fixed-cadence schedule of the hierarchy's two time scales.
///
/// Tracks when the next tick is due; catching up after a late poll keeps
/// the original phase (no drift), mirroring `moda_telemetry::Collector`.
#[derive(Debug, Clone, Copy)]
struct Cadence {
    period: SimDuration,
    next_due: SimTime,
}

impl Cadence {
    /// Cadence of `period`, first due at time zero.
    fn new(period: SimDuration) -> Self {
        assert!(period.as_millis() > 0, "cadence period must be positive");
        Cadence {
            period,
            next_due: SimTime::ZERO,
        }
    }

    /// Consume one due tick, returning its scheduled time, or `None` when
    /// nothing is due.
    fn advance(&mut self, now: SimTime) -> Option<SimTime> {
        if self.next_due <= now {
            let t = self.next_due;
            self.next_due += self.period;
            Some(t)
        } else {
            None
        }
    }

    /// When the next tick is due.
    fn next_due(&self) -> SimTime {
        self.next_due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_fires_on_schedule() {
        let mut c = Cadence::new(SimDuration::from_secs(10));
        assert_eq!(c.advance(SimTime::ZERO), Some(SimTime::ZERO));
        assert_eq!(c.advance(SimTime::from_secs(5)), None);
        assert_eq!(
            c.advance(SimTime::from_secs(10)),
            Some(SimTime::from_secs(10))
        );
    }

    #[test]
    fn cadence_catches_up_without_drift() {
        let mut c = Cadence::new(SimDuration::from_secs(10));
        // Poll late at t=35: three ticks due at 0, 10, 20, 30.
        let mut fired = Vec::new();
        while let Some(t) = c.advance(SimTime::from_secs(35)) {
            fired.push(t.as_millis() / 1000);
        }
        assert_eq!(fired, vec![0, 10, 20, 30]);
        assert_eq!(c.next_due(), SimTime::from_secs(40));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        Cadence::new(SimDuration::ZERO);
    }
}
