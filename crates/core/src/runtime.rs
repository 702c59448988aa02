//! Threaded pattern drivers for wall-clock measurements.
//!
//! The stepped orchestrators in [`crate::patterns`] are deterministic and
//! compose with simulation, but they cannot answer the §II scalability
//! questions — *does a centralized Plan really queue up under fleet
//! growth? does decentralization keep loop latency flat?* — because those
//! are properties of real concurrency. This module re-creates the four
//! patterns as thread topologies over crossbeam channels with synthetic
//! per-phase CPU costs, and measures end-to-end iteration latency per
//! managed system. Experiment E1 sweeps fleet size over these drivers.

use crossbeam::channel;
use moda_sim::stats::Summary;
use std::time::{Duration, Instant};

/// Synthetic CPU cost of each MAPE phase, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct StageCosts {
    /// Monitor cost per iteration.
    pub monitor_us: u64,
    /// Analyze cost per observation.
    pub analyze_us: u64,
    /// Plan cost per observation (the centralized bottleneck in (b)).
    pub plan_us: u64,
    /// Execute cost per action.
    pub execute_us: u64,
}

impl Default for StageCosts {
    fn default() -> Self {
        StageCosts {
            monitor_us: 10,
            analyze_us: 20,
            plan_us: 50,
            execute_us: 10,
        }
    }
}

/// Busy-wait for `us` microseconds (models CPU-bound phase work without
/// the scheduler noise of `sleep`).
pub fn spin(us: u64) {
    let end = Instant::now() + Duration::from_micros(us);
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Latency/throughput result of one threaded-pattern run. Latencies
/// are captured at nanosecond resolution (reported in fractional µs):
/// on a warm machine a telemetry round is sub-microsecond, and
/// truncating to whole µs would zero it out.
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// Loop iterations completed (across all managed systems).
    pub iterations: usize,
    /// Mean end-to-end iteration latency, µs.
    pub mean_latency_us: f64,
    /// p50 latency, µs.
    pub p50_latency_us: f64,
    /// p99 latency, µs.
    pub p99_latency_us: f64,
    /// Completed iterations per second (aggregate).
    pub throughput_per_s: f64,
}

fn stats_from(mut lat: Summary, wall: Duration, iterations: usize) -> RoundStats {
    RoundStats {
        iterations,
        mean_latency_us: lat.mean(),
        p50_latency_us: lat.percentile(0.5).unwrap_or(0.0),
        p99_latency_us: lat.percentile(0.99).unwrap_or(0.0),
        throughput_per_s: if wall.as_secs_f64() > 0.0 {
            iterations as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
    }
}

/// Fig. 2(a) as one thread: M→A→P→E sequentially per iteration.
pub fn run_classical(rounds: usize, costs: StageCosts) -> RoundStats {
    let mut lat = Summary::new();
    let start = Instant::now();
    for _ in 0..rounds {
        let t0 = Instant::now();
        spin(costs.monitor_us);
        spin(costs.analyze_us);
        spin(costs.plan_us);
        spin(costs.execute_us);
        lat.push(t0.elapsed().as_nanos() as f64 / 1_000.0);
    }
    stats_from(lat, start.elapsed(), rounds)
}

/// Fig. 2(b) as threads: `n_workers` monitor/execute threads feeding one
/// central analyze/plan thread.
///
/// Workers stamp each observation at Monitor start; the master processes
/// observations *serially* (that is the point of the pattern) and sends
/// the action back; the worker finishes Execute and records end-to-end
/// latency. With growing `n_workers`, observations queue at the master
/// and latency inflates — the §II "limited scalability" claim.
pub fn run_master_worker(n_workers: usize, rounds: usize, costs: StageCosts) -> RoundStats {
    assert!(n_workers > 0);
    let (obs_tx, obs_rx) = channel::unbounded::<(usize, Instant)>();
    let mut act_txs = Vec::with_capacity(n_workers);
    let mut act_rxs = Vec::with_capacity(n_workers);
    for _ in 0..n_workers {
        let (tx, rx) = channel::bounded::<Instant>(rounds);
        act_txs.push(tx);
        act_rxs.push(rx);
    }
    let (lat_tx, lat_rx) = channel::unbounded::<f64>();

    let start = Instant::now();
    std::thread::scope(|s| {
        // Master: centralized A + P.
        s.spawn(move || {
            let expected = n_workers * rounds;
            for _ in 0..expected {
                let Ok((worker, t0)) = obs_rx.recv() else {
                    break;
                };
                spin(costs.analyze_us);
                spin(costs.plan_us);
                // Send the action back, carrying the origin stamp.
                let _ = act_txs[worker].send(t0);
            }
        });
        // Workers: decentralized M + E.
        for (w, act_rx) in act_rxs.into_iter().enumerate() {
            let obs_tx = obs_tx.clone();
            let lat_tx = lat_tx.clone();
            s.spawn(move || {
                for _ in 0..rounds {
                    let t0 = Instant::now();
                    spin(costs.monitor_us);
                    if obs_tx.send((w, t0)).is_err() {
                        return;
                    }
                    let Ok(stamp) = act_rx.recv() else {
                        return;
                    };
                    spin(costs.execute_us);
                    let _ = lat_tx.send(stamp.elapsed().as_nanos() as f64 / 1_000.0);
                }
            });
        }
        drop(obs_tx);
        drop(lat_tx);
    });
    let wall = start.elapsed();
    let mut lat = Summary::new();
    while let Ok(v) = lat_rx.try_recv() {
        lat.push(v);
    }
    let n = lat.count();
    stats_from(lat, wall, n)
}

/// Fig. 2(c) as threads: `n_peers` fully independent M→A→P→E loops.
///
/// No shared component, so per-iteration latency stays flat as the fleet
/// grows (until the machine runs out of cores) — the scalability side of
/// the §II trade-off.
pub fn run_coordinated(n_peers: usize, rounds: usize, costs: StageCosts) -> RoundStats {
    assert!(n_peers > 0);
    let (lat_tx, lat_rx) = channel::unbounded::<f64>();
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..n_peers {
            let lat_tx = lat_tx.clone();
            s.spawn(move || {
                for _ in 0..rounds {
                    let t0 = Instant::now();
                    spin(costs.monitor_us);
                    spin(costs.analyze_us);
                    spin(costs.plan_us);
                    spin(costs.execute_us);
                    let _ = lat_tx.send(t0.elapsed().as_nanos() as f64 / 1_000.0);
                }
            });
        }
        drop(lat_tx);
    });
    let wall = start.elapsed();
    let mut lat = Summary::new();
    while let Ok(v) = lat_rx.try_recv() {
        lat.push(v);
    }
    let n = lat.count();
    stats_from(lat, wall, n)
}

/// Fig. 2(d) as threads: independent child loops that synchronize with a
/// supervisor thread every `supervise_every` iterations (report up, wait
/// for acknowledgement/reconfiguration).
///
/// Latency sits between (b) and (c): mostly decentralized, with periodic
/// hierarchy stalls.
pub fn run_hierarchical(
    n_children: usize,
    rounds: usize,
    costs: StageCosts,
    supervise_every: usize,
) -> RoundStats {
    assert!(n_children > 0 && supervise_every > 0);
    let (rep_tx, rep_rx) = channel::unbounded::<(usize, Instant)>();
    let mut ack_txs = Vec::with_capacity(n_children);
    let mut ack_rxs = Vec::with_capacity(n_children);
    for _ in 0..n_children {
        let (tx, rx) = channel::bounded::<()>(4);
        ack_txs.push(tx);
        ack_rxs.push(rx);
    }
    let (lat_tx, lat_rx) = channel::unbounded::<f64>();

    let start = Instant::now();
    std::thread::scope(|s| {
        // Supervisor: slow-timescale A+P over child reports.
        s.spawn(move || {
            let expected = n_children * (rounds / supervise_every);
            for _ in 0..expected {
                let Ok((child, _stamp)) = rep_rx.recv() else {
                    break;
                };
                // Supervision is an analyze+plan over the child's window.
                spin(costs.analyze_us + costs.plan_us);
                let _ = ack_txs[child].send(());
            }
        });
        for (c, ack_rx) in ack_rxs.into_iter().enumerate() {
            let rep_tx = rep_tx.clone();
            let lat_tx = lat_tx.clone();
            s.spawn(move || {
                for i in 0..rounds {
                    let t0 = Instant::now();
                    spin(costs.monitor_us);
                    spin(costs.analyze_us);
                    spin(costs.plan_us);
                    spin(costs.execute_us);
                    // Periodic hierarchy synchronization.
                    if (i + 1) % supervise_every == 0 {
                        if rep_tx.send((c, t0)).is_err() {
                            return;
                        }
                        if ack_rx.recv().is_err() {
                            return;
                        }
                    }
                    let _ = lat_tx.send(t0.elapsed().as_nanos() as f64 / 1_000.0);
                }
            });
        }
        drop(rep_tx);
        drop(lat_tx);
    });
    let wall = start.elapsed();
    let mut lat = Summary::new();
    while let Ok(v) = lat_rx.try_recv() {
        lat.push(v);
    }
    let n = lat.count();
    stats_from(lat, wall, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cheap() -> StageCosts {
        StageCosts {
            monitor_us: 1,
            analyze_us: 1,
            plan_us: 1,
            execute_us: 1,
        }
    }

    #[test]
    fn classical_completes_all_rounds() {
        let s = run_classical(50, cheap());
        assert_eq!(s.iterations, 50);
        assert!(s.mean_latency_us > 0.0);
        assert!(s.throughput_per_s > 0.0);
        assert!(s.p99_latency_us >= s.p50_latency_us);
    }

    #[test]
    fn master_worker_completes_all_iterations() {
        let s = run_master_worker(4, 25, cheap());
        assert_eq!(s.iterations, 4 * 25);
        assert!(s.mean_latency_us > 0.0);
    }

    #[test]
    fn coordinated_completes_all_iterations() {
        let s = run_coordinated(4, 25, cheap());
        assert_eq!(s.iterations, 4 * 25);
        assert!(s.mean_latency_us > 0.0);
    }

    #[test]
    fn hierarchical_completes_all_iterations() {
        let s = run_hierarchical(4, 24, cheap(), 8);
        assert_eq!(s.iterations, 4 * 24);
        assert!(s.mean_latency_us > 0.0);
    }

    #[test]
    fn single_worker_patterns_agree_on_iteration_count() {
        for s in [
            run_master_worker(1, 10, cheap()),
            run_coordinated(1, 10, cheap()),
            run_hierarchical(1, 10, cheap(), 5),
        ] {
            assert_eq!(s.iterations, 10);
        }
    }

    #[test]
    fn spin_spins_for_roughly_the_requested_time() {
        let t0 = Instant::now();
        spin(500);
        let e = t0.elapsed();
        assert!(e >= Duration::from_micros(500));
        // Loose upper bound: CI machines can stall, but 50x is a bug.
        assert!(e < Duration::from_micros(25_000), "spin overshot: {e:?}");
    }
}
