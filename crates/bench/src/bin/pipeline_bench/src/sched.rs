//! Open-loop pacing: operations are due on a fixed schedule whether or
//! not the system kept up, and each is timed from when it was due, so a
//! stall is charged to every operation it delayed.

use std::time::{Duration, Instant};

/// How long before an operation is due the pacer stops sleeping and
/// polls the clock: `thread::sleep` overshoots by tens of microseconds,
/// which would otherwise sit inside every latency measured from the due
/// time. It polls with `yield_now`, because the process is pinned to one
/// CPU and the server threads must keep running meanwhile.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(150);

/// The clock of an open loop: operations are due at offsets from
/// `start` that the caller fixed beforehand.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
}

/// What one operation of an open loop cost, all in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Charged {
    /// Completion minus **due** time: queueing behind a stall included.
    pub latency_ns: u64,
    /// How long after its due time the generator issued the operation.
    pub late_ns: u64,
}

/// Charge one operation: due at `due_ns`, issued at `issued_ns`, done at
/// `done_ns` (same clock).
pub fn charge(due_ns: u64, issued_ns: u64, done_ns: u64) -> Charged {
    Charged {
        latency_ns: done_ns.saturating_sub(due_ns),
        late_ns: issued_ns.saturating_sub(due_ns),
    }
}

impl OpenLoop {
    pub fn new(start: Instant) -> Self {
        OpenLoop { start }
    }

    /// Nanoseconds since the schedule's start.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Block until `due_ns` after the start (returns at once when that
    /// already passed) and return the issue time on the schedule's clock.
    /// The start itself may still lie ahead.
    pub fn wait_until(&self, due_ns: u64) -> u64 {
        let due = self.start + Duration::from_nanos(due_ns);
        if let Some(ahead) = due.checked_duration_since(Instant::now()) {
            if ahead > SPIN_BEFORE_DUE {
                std::thread::sleep(ahead - SPIN_BEFORE_DUE);
            }
        }
        while Instant::now() < due {
            std::thread::yield_now();
        }
        self.now_ns()
    }
}

/// Due times of `n` operations every `interval`, the first at 0: a
/// sensor's sweep cadence.
pub fn periodic(n: u64, interval: Duration) -> Vec<u64> {
    (0..n).map(|i| interval.as_nanos() as u64 * i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_charged_from_the_due_time_and_lateness_reported() {
        // 1 ms schedule; operation 0 stalls for 3.5 ms. Operations 1..=3
        // were due during the stall: each is issued late, takes 0.1 ms of
        // service, and is charged its whole wait.
        let ms = 1_000_000u64;
        let mut now = 0u64;
        let mut out = Vec::new();
        for i in 0..5u64 {
            let due = i * ms;
            let issued = now.max(due);
            let service = if i == 0 { 3 * ms + ms / 2 } else { ms / 10 };
            now = issued + service;
            out.push(charge(due, issued, now));
        }
        assert_eq!(
            out[0],
            Charged {
                latency_ns: 3_500_000,
                late_ns: 0
            }
        );
        assert_eq!(
            out[1],
            Charged {
                latency_ns: 2_600_000,
                late_ns: 2_500_000
            }
        );
        assert_eq!(
            out[2],
            Charged {
                latency_ns: 1_700_000,
                late_ns: 1_600_000
            }
        );
        assert_eq!(
            out[3],
            Charged {
                latency_ns: 800_000,
                late_ns: 700_000
            }
        );
        // Caught up: on time again, charged only its service.
        assert_eq!(
            out[4],
            Charged {
                latency_ns: 100_000,
                late_ns: 0
            }
        );
    }

    #[test]
    fn pacer_never_issues_early_and_returns_at_once_when_behind() {
        let due = periodic(3, Duration::from_millis(2));
        assert_eq!(due, [0, 2_000_000, 4_000_000]);
        let sched = OpenLoop::new(Instant::now());
        let issued = sched.wait_until(due[1]);
        assert!(issued >= due[1]);
        std::thread::sleep(Duration::from_millis(5));
        let before = sched.now_ns();
        let issued = sched.wait_until(due[2]);
        assert!(
            issued - before < 1_000_000,
            "an overdue operation must not wait"
        );
        assert!(charge(due[2], issued, issued).late_ns > 0);
    }
}
