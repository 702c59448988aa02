//! The I/O use cases: E5's QoS adaptation (§III case 2), E6's OST
//! failover (§III case 3) and E11's monitoring overhead vs
//! responsiveness (§IV), which reruns E6's scenario over loop cadence.

use crate::table::{cell, f, Cell, Table};
use crate::tick;
use moda_hpc::{workload, AppProfile, World, WorldConfig};
use moda_pfs::{OstId, PfsConfig};
use moda_scheduler::{JobId, JobRequest};
use moda_sim::{RngStreams, SimDuration, SimTime};
use moda_usecases::harness::{drive, shared, SharedWorld};
use moda_usecases::{io_qos, ost};

/// One node-wide I/O job of `steps` 2 s steps writing `io_mb` every
/// `io_every` steps.
fn io_job(
    id: u64,
    user: &str,
    steps: u64,
    io_mb: f64,
    io_every: u64,
    walltime_h: u64,
) -> (JobRequest, AppProfile) {
    let req = JobRequest {
        id: JobId(id),
        user: user.into(),
        app_class: "io".into(),
        submit: SimTime::ZERO,
        nodes: 1,
        walltime: SimDuration::from_hours(walltime_h),
    };
    let profile = AppProfile {
        app_class: "io".into(),
        total_steps: steps,
        mean_step_s: 2.0,
        step_cv: 0.05,
        io_every,
        io_mb,
        stripe: 1,
        phase_change: None,
        checkpoint_cost_s: 5.0,
        misconfig: None,
        scale: 1.0,
        cores_per_rank: 8,
    };
    (req, profile)
}

fn qos_world(seed: u64) -> SharedWorld {
    let mut w = World::new(WorldConfig {
        nodes: 8,
        seed,
        power_period: None,
        ..WorldConfig::default()
    });
    // Mis-divided initial allocations: "lat" writes 100 MB every ~4 s
    // (25 MB/s demand) against a 10 MB/s allocation; "bulk" holds
    // 400 MB/s and uses a fraction; "med" is roughly right-sized.
    w.register_qos("lat", 10.0, 100.0);
    w.register_qos("bulk", 400.0, 800.0);
    w.register_qos("med", 60.0, 200.0);
    w.submit_campaign(vec![
        io_job(0, "lat", 500, 100.0, 2, 16),
        io_job(1, "bulk", 300, 60.0, 4, 16),
        io_job(2, "med", 400, 80.0, 2, 16),
    ]);
    shared(w)
}

/// One tenant's write latencies: p99 overall and over the later
/// (steady-state) half, and their coefficient of variation.
struct TenantReport {
    p99_all_ms: f64,
    p99_steady_ms: f64,
    cv: f64,
    ops: usize,
}

fn tenant_report(w: &SharedWorld, user: &str) -> TenantReport {
    let wb = w.borrow();
    let samples = wb.io_latency(user).map_or(&[][..], |s| s.samples());
    let p99 = |s: &[f64]| {
        let mut s = s.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s.get(((s.len() as f64 - 1.0) * 0.99) as usize)
            .copied()
            .unwrap_or(0.0)
    };
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    TenantReport {
        p99_all_ms: p99(samples),
        p99_steady_ms: p99(&samples[samples.len() / 2..]),
        cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        ops: samples.len(),
    }
}

/// The QoS campaign with the loop ticking every `tick_s` (or no loop),
/// and how many rate retunes it executed.
fn qos_run(seed: u64, adaptive: bool, tick_s: u64) -> (SharedWorld, usize) {
    let w = qos_world(seed);
    let mut l = adaptive.then(|| io_qos::build_loop(w.clone(), io_qos::QosLoopConfig::default()));
    let mut retunes = 0;
    let period = SimDuration::from_secs(tick_s);
    drive(&w, period, SimTime::from_hours(16), |t| {
        retunes += tick(&mut l, t).executed
    });
    (w, retunes)
}

/// **E5 — the I/O-QoS case.** *Adapt QoS parameters based on the
/// current application performance and system I/O load to decrease
/// interference, reduce tail latency.* Three tenants share a
/// QoS-managed filesystem: a latency-sensitive tenant that was
/// under-provisioned, a bulk tenant holding a fat allocation it barely
/// uses, and a right-sized medium tenant. Static QoS leaves the first
/// throttled for the whole campaign; the adaptive loop re-divides rates.
pub fn e5() -> Table {
    let seed = 21;
    let mut t = Table::new(
        "E5 — I/O QoS adaptation (p99 latency ms; steady-state = later half)",
        &[
            "variant",
            "tenant",
            "p99 all",
            "p99 steady",
            "lat CV",
            "writes",
            "final MB/s",
        ],
    );
    for (label, adaptive) in [("static QoS", false), ("adaptive loop", true)] {
        let (w, retunes) = qos_run(seed, adaptive, 30);
        for user in ["lat", "med", "bulk"] {
            let r = tenant_report(&w, user);
            let rate = w.borrow().qos.rate(user).unwrap_or(0.0);
            t.row(vec![
                label.into(),
                user.into(),
                f(r.p99_all_ms, 0),
                f(r.p99_steady_ms, 0),
                f(r.cv, 2),
                r.ops.into(),
                f(rate, 0),
            ]);
        }
        if adaptive {
            t.note(format!("(adaptive loop executed {retunes} rate retunes)"));
        }
    }
    t
}

/// **E5b** — the paper's "MAPE-K loops of decreasing size and increasing
/// automation": a faster loop reacts within fewer slow writes.
pub fn e5b() -> Table {
    let mut t = Table::new(
        "E5b — loop cadence vs starved tenant's steady-state p99 (ms)",
        &["loop period", "p99 steady", "p99 all"],
    );
    for tick_s in [10u64, 30, 120, 600] {
        let (w, _) = qos_run(21, true, tick_s);
        let r = tenant_report(&w, "lat");
        t.row(vec![
            cell(tick_s as f64, format!("{tick_s} s")),
            f(r.p99_steady_ms, 0),
            f(r.p99_all_ms, 0),
        ]);
    }
    t
}

/// What one OST campaign did.
struct OstRun {
    makespan_s: f64,
    detect_delay_s: Option<f64>,
    reopens: usize,
}

/// Three I/O-heavy jobs on four OSTs; at t = 600 s OST 0 degrades to
/// `health` of its bandwidth (1.0: no injection), with the OST loop
/// ticking every `tick_s` or no loop. At stripe 1 and round-robin
/// allocation, at least one job lands on OST 0.
fn ost_run(seed: u64, health: f64, with_loop: bool, tick_s: u64) -> OstRun {
    let inject_at = SimTime::from_secs(600);
    let w = shared({
        let mut w = World::new(WorldConfig {
            nodes: 4,
            seed,
            power_period: None,
            pfs: PfsConfig {
                num_osts: 4,
                ost_bandwidth: 500.0,
                default_stripe: 1,
                base_latency_ms: 1,
            },
            ..WorldConfig::default()
        });
        w.submit_campaign(
            (0..3)
                .map(|id| io_job(id, "io-user", 1500, 100.0, 2, 12))
                .collect(),
        );
        w
    });
    let mut l = with_loop.then(|| ost::build_loop(w.clone(), ost::OstLoopConfig::default()));
    let (mut detect_at, mut reopens) = (None, 0);
    let period = SimDuration::from_secs(tick_s);
    drive(&w, period, SimTime::from_hours(12), |t| {
        if t == inject_at && health < 1.0 {
            w.borrow_mut().pfs.set_ost_health(OstId(0), health);
        }
        let r = tick(&mut l, t);
        if r.executed > 0 {
            reopens += r.executed;
            detect_at.get_or_insert(t);
        }
    });
    let makespan_s = w.borrow().last_progress().as_secs_f64();
    OstRun {
        makespan_s,
        detect_delay_s: detect_at.map(|t: SimTime| t.saturating_since(inject_at).as_secs_f64()),
        reopens,
    }
}

/// A detection delay, `-` when the loop never acted.
fn delay(d: Option<f64>) -> Cell {
    d.map_or("-".into(), |d| f(d, 0))
}

/// **E6 — the OST case.** *Response by an application, from continuous
/// evaluation of storage back-end write performance, to close files
/// using a poorly performing OST … then reopen them using different
/// OSTs.* One OST of four silently degrades mid-campaign; per-OST CUSUM
/// charts detect the shift and the application hook reopens affected
/// files on healthy targets. Sweeps degradation severity.
pub fn e6() -> Table {
    let seed = 5;
    let healthy = ost_run(seed, 1.0, false, 10).makespan_s;
    let mut t = Table::new(
        "E6 — OST degradation response (OST0 degraded at t=600 s)",
        &[
            "residual bw",
            "variant",
            "makespan-s",
            "slowdown vs healthy",
            "detect-delay-s",
            "reopens",
        ],
    );
    t.note(format!(
        "healthy reference (no degradation): campaign finishes in {healthy:.0} s"
    ));
    for health in [0.5, 0.1, 0.02] {
        for (label, with_loop) in [("no loop", false), ("OST loop", true)] {
            let r = ost_run(seed, health, with_loop, 10);
            let slowdown = r.makespan_s / healthy;
            t.row(vec![
                cell(health, format!("{:.0}%", health * 100.0)),
                label.into(),
                f(r.makespan_s, 0),
                cell(slowdown, format!("{slowdown:.2}x")),
                delay(r.detect_delay_s),
                r.reopens.into(),
            ]);
        }
    }
    t
}

/// **E11a — monitoring overhead vs responsiveness (§IV)**: E6's
/// degradation (95 % bandwidth loss) rerun with loop periods from 5 s
/// to 10 min. Slow loops are cheap but blind; the makespan column shows
/// what blindness costs.
pub fn e11a() -> Table {
    let mut t = Table::new(
        "E11a — loop cadence vs OST-degradation response (95% bw loss at t=600 s)",
        &["loop period", "detect-delay-s", "campaign makespan-s"],
    );
    for tick_s in [5u64, 10, 30, 120, 600] {
        let r = ost_run(5, 0.05, true, tick_s);
        t.row(vec![
            cell(tick_s as f64, format!("{tick_s} s")),
            delay(r.detect_delay_s),
            f(r.makespan_s, 0),
        ]);
    }
    t
}

/// **E11b** — telemetry volume vs sampling period and cardinality: the
/// holistic power/progress telemetry a campaign inserts into the TSDB,
/// swept over sensor period and node count. This is §IV's "insert rates
/// for raw time-series data" axis; `benches/tsdb.rs` prices each insert.
pub fn e11b() -> Table {
    let seed = 5;
    let mut t = Table::new(
        "E11b — telemetry insert volume by sensor period and cardinality",
        &[
            "nodes",
            "power period",
            "metrics registered",
            "total inserts",
            "inserts/sim-hour",
        ],
    );
    for nodes in [16u32, 64] {
        for period_s in [1u64, 10, 60] {
            let w = shared(World::new(WorldConfig {
                nodes,
                seed,
                power_period: Some(SimDuration::from_secs(period_s)),
                ..WorldConfig::default()
            }));
            let cfg = workload::WorkloadConfig {
                n_jobs: 40,
                mean_interarrival_s: 90.0,
                ..workload::WorkloadConfig::default()
            };
            (w.borrow_mut()).submit_campaign(workload::generate(&cfg, &RngStreams::new(seed), 0));
            drive(
                &w,
                SimDuration::from_secs(60),
                SimTime::from_hours(24 * 4),
                |_| {},
            );
            let wb = w.borrow();
            let hours = wb.last_progress().as_secs_f64() / 3600.0;
            let inserts = wb.tsdb.total_inserts();
            t.row(vec![
                nodes.into(),
                cell(period_s as f64, format!("{period_s} s")),
                wb.tsdb.cardinality().into(),
                inserts.into(),
                f(inserts as f64 / hours.max(1e-9), 0),
            ]);
        }
    }
    t
}
