//! The job-campaign use cases: E4's maintenance continuity (§III case
//! 1), E7's misconfiguration response (§III case 4) and E13's
//! checkpoint resilience (§IV).

use crate::table::{cell, f, Cell, Table};
use crate::tick;
use moda_hpc::workload::{self, AppClassSpec, WorkloadConfig};
use moda_hpc::{AppProfile, FailureConfig, World, WorldConfig};
use moda_scheduler::{JobId, JobRequest};
use moda_sim::{Dist, RngStreams, SimDuration, SimTime};
use moda_usecases::harness::{drive, shared, CampaignStats, SharedWorld};
use moda_usecases::resilience::{CheckpointCadence, ResilienceLoopConfig};
use moda_usecases::{maintenance, misconfig, resilience};
use std::collections::{HashMap, HashSet};

/// Long-running simulation jobs — 2 000 to `max_steps` steps of 2–4 s
/// with a 30 s checkpoint — so the machine is full of vulnerable state.
fn long_class(max_steps: f64) -> AppClassSpec {
    let mut c = AppClassSpec::cfd();
    c.steps = Dist::Uniform {
        lo: 2_000.0,
        hi: max_steps,
    };
    c.mean_step_s = Dist::Uniform { lo: 2.0, hi: 4.0 };
    c.checkpoint_cost_s = 30.0;
    c
}

/// A `nodes`-node world under `cfg` (power sensors off) running `jobs`.
fn campaign_world(
    nodes: u32,
    seed: u64,
    cfg: WorldConfig,
    jobs: Vec<(JobRequest, AppProfile)>,
) -> SharedWorld {
    let mut w = World::new(WorldConfig {
        nodes,
        seed,
        power_period: None,
        ..cfg
    });
    w.submit_campaign(jobs);
    shared(w)
}

fn roots(s: &CampaignStats) -> Cell {
    let text = format!("{}/{}", s.roots_completed, s.roots_total);
    cell(s.roots_completed as f64, text)
}

/// **E4 — the Maintenance case.** *Responses to system maintenance
/// events to ensure continuity of running jobs.* A full-system window
/// is announced at short notice (a failing PDU, an urgent patch: 10 min
/// ahead) while the machine is full. The scheduler's drain protects the
/// *queue*; only the loop can protect *running* work, by checkpointing
/// it before the window so resubmissions resume instead of restarting.
/// Sweeps the outage duration.
pub fn e4() -> Table {
    let seed = 77;
    let mut t = Table::new(
        "E4 — continuity through maintenance windows (outage at t=3 h)",
        &[
            "outage",
            "variant",
            "roots done",
            "outage-killed",
            "ckpts",
            "resubmits",
            "steps (redone work)",
            "makespan-h",
        ],
    );
    let cfg = WorkloadConfig {
        n_jobs: 40,
        mean_interarrival_s: 120.0,
        classes: vec![long_class(4_000.0)],
        ..WorkloadConfig::default()
    };
    let announce = SimTime::from_secs(3 * 3600 - 10 * 60);
    for outage_h in [1u64, 2, 4] {
        for (label, with_loop) in [("baseline", false), ("maintenance loop", true)] {
            let jobs = workload::generate(&cfg, &RngStreams::new(seed), 0);
            let world = campaign_world(24, seed, WorldConfig::default(), jobs);
            let mut l = with_loop.then(|| {
                maintenance::build_loop(
                    world.clone(),
                    maintenance::MaintenanceLoopConfig::default(),
                )
            });
            let period = SimDuration::from_secs(20);
            drive(&world, period, SimTime::from_hours(24 * 10), |t| {
                if t == announce {
                    let (start, end) = (SimTime::from_hours(3), SimTime::from_hours(3 + outage_h));
                    world.borrow_mut().add_outage(start, end);
                }
                tick(&mut l, t);
            });
            let s = CampaignStats::collect(&world.borrow());
            t.row(vec![
                cell(outage_h as f64, format!("{outage_h} h")),
                label.into(),
                roots(&s),
                s.maintenance_killed.into(),
                s.checkpoints.into(),
                s.resubmits.into(),
                s.steps_completed.into(),
                f(s.makespan_s / 3600.0, 1),
            ]);
        }
    }
    t
}

/// What the misconfiguration loop found and did over one campaign.
struct MisconfigRun {
    stats: CampaignStats,
    corrections: u64,
    precision: f64,
    recall: f64,
    median_detect_s: f64,
    informs: usize,
}

fn misconfig_run(seed: u64, rate: f64, auto_correct: bool, with_loop: bool) -> MisconfigRun {
    let cfg = WorkloadConfig {
        n_jobs: 100,
        mean_interarrival_s: 90.0,
        misconfig_rate: rate,
        ..WorkloadConfig::default()
    };
    let jobs = workload::generate(&cfg, &RngStreams::new(seed), 0);
    let truth: HashSet<u64> = (jobs.iter())
        .filter(|(_, p)| p.misconfig.is_some())
        .map(|(r, _)| r.id.0)
        .collect();
    let n_roots = jobs.len() as u64;
    let world = campaign_world(24, seed, WorldConfig::default(), jobs);
    let mut l = with_loop.then(|| {
        let cfg = misconfig::MisconfigLoopConfig {
            auto_correct,
            ..misconfig::MisconfigLoopConfig::default()
        };
        misconfig::build_loop(world.clone(), cfg)
    });

    // When each job's finding was handled, polled from the loop's
    // Knowledge (the assessor sets `job.N.misconfig_handled`).
    // Resubmits get fresh ids, so the campaign may grow past n_roots.
    let mut handled_at: HashMap<u64, SimTime> = HashMap::new();
    drive(
        &world,
        SimDuration::from_secs(30),
        SimTime::from_hours(24 * 7),
        |t| {
            tick(&mut l, t);
            let Some(l) = &l else { return };
            for id in 0..4 * n_roots {
                let fact = format!("job.{id}.misconfig_handled");
                if l.knowledge().fact(&fact).unwrap_or(0.0) > 0.0 {
                    handled_at.entry(id).or_insert(t);
                }
            }
        },
    );

    // Score root jobs only (resubmission attempts inherit the root's
    // ground truth but would double-count).
    let detected: HashSet<u64> = handled_at
        .keys()
        .copied()
        .filter(|id| *id < n_roots)
        .collect();
    let tp = detected.intersection(&truth).count() as f64;
    let fp = detected.len() as f64 - tp;
    let fnr = truth.len() as f64 - tp;
    let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 1.0 };
    let recall = if tp + fnr > 0.0 { tp / (tp + fnr) } else { 1.0 };

    // Time-to-detect relative to the job's start.
    let wb = world.borrow();
    let mut delays: Vec<f64> = (handled_at.iter())
        .filter(|(id, _)| truth.contains(id))
        .filter_map(|(&id, &t)| Some(t.saturating_since(wb.sched.job(JobId(id))?.start?)))
        .map(|d| d.as_secs_f64())
        .collect();
    delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // "Inform" responses are recorded as plan outcomes; audit
    // notifications would additionally require human-on-the-loop mode.
    let informs = l.as_ref().map_or(0, |l| {
        (l.knowledge().outcomes().iter())
            .filter(|o| o.kind == "inform")
            .count()
    });
    MisconfigRun {
        stats: CampaignStats::collect(&wb),
        corrections: wb.metrics.corrections,
        precision,
        recall,
        median_detect_s: delays.get(delays.len() / 2).copied().unwrap_or(0.0),
        informs,
    }
}

/// **E7 — the Misconfiguration case.** *Detection of misconfiguration
/// of user jobs such as unintended mismatch of threads to cores,
/// underutilization of CPUs or GPUs, or wrong library search paths …
/// users could either be informed … or the misconfiguration could be
/// corrected on the fly.* Campaigns carry a known fraction of
/// misconfigured jobs; the loop watches configuration/utilization
/// snapshots of running jobs and routes each finding to auto-correct or
/// inform. Reports detection precision/recall, median time-to-detect,
/// and the work saved by correction vs inform-only.
pub fn e7() -> Table {
    let mut t = Table::new(
        "E7 — misconfiguration detection and response (100-job campaigns)",
        &[
            "misconfig rate",
            "variant",
            "precision",
            "recall",
            "median detect-s",
            "corrections",
            "informs",
            "steps",
            "makespan-h",
        ],
    );
    for rate in [0.1, 0.3] {
        for (label, auto, with_loop) in [
            ("no loop", false, false),
            ("inform-only", false, true),
            ("auto-correct", true, true),
        ] {
            let o = misconfig_run(99, rate, auto, with_loop);
            let looped = |v: f64, prec| if with_loop { f(v, prec) } else { "-".into() };
            t.row(vec![
                cell(rate, format!("{:.0}%", rate * 100.0)),
                label.into(),
                looped(o.precision, 2),
                looped(o.recall, 2),
                looped(o.median_detect_s, 0),
                o.corrections.into(),
                o.informs.into(),
                o.stats.steps_completed.into(),
                f(o.stats.makespan_s / 3600.0, 1),
            ]);
        }
    }
    t
}

/// **E13 — resilience through proactive checkpointing (§IV).**
/// *"Resilience is essential in HPC systems where operations must
/// persist through component and subsystem failures."* Fail-stop node
/// faults at a per-node MTBF hit a campaign of long jobs run with no
/// protection, fixed checkpoint cadences bracketing the optimum, and
/// Young's √(2·C·MTBF) cadence computed from the failure rate —
/// Knowledge turned into policy. Reports work redone after failures,
/// checkpoint overhead paid, and makespan.
pub fn e13() -> Table {
    const NODES: u32 = 16;
    const CKPT_COST_S: f64 = 30.0;
    let seed = 17;
    let mut class = long_class(5_000.0);
    class.phase_change_prob = 0.0;
    let cfg = WorkloadConfig {
        n_jobs: 30,
        mean_interarrival_s: 120.0,
        classes: vec![class],
        // No walltime-request error: this isolates failure-induced
        // rework (E3 covers walltime kills).
        walltime_error: workload::WalltimeErrorModel {
            underestimate_frac: 0.0,
            ..workload::WalltimeErrorModel::default()
        },
        ..WorkloadConfig::default()
    };
    let campaign = || workload::generate(&cfg, &RngStreams::new(seed), 0);
    let run = |node_mtbf_s: f64, cadence: Option<CheckpointCadence>| {
        let world_cfg = WorldConfig {
            failure: Some(FailureConfig { node_mtbf_s }),
            resubmit_delay: SimDuration::from_mins(2),
            ..WorldConfig::default()
        };
        let w = campaign_world(NODES, seed, world_cfg, campaign());
        let mut l = cadence
            .map(|cadence| resilience::build_loop(w.clone(), ResilienceLoopConfig { cadence }));
        drive(
            &w,
            SimDuration::from_secs(30),
            SimTime::from_hours(24 * 30),
            |t| {
                tick(&mut l, t);
            },
        );
        let stats = CampaignStats::collect(&w.borrow());
        stats
    };
    // Nominal work volume: the campaign's step count with zero rework.
    let nominal: u64 = campaign().iter().map(|(_, p)| p.total_steps).sum();
    let clean = run(f64::INFINITY, None);
    let mut t = Table::new(
        format!(
            "E13 — checkpoint cadence vs node failures ({NODES} nodes, C = {CKPT_COST_S:.0} s)"
        ),
        &[
            "node MTBF",
            "system MTBF",
            "cadence",
            "failures",
            "ckpts",
            "redone steps",
            "makespan-h",
            "roots done",
        ],
    );
    t.note(format!(
        "failure-free reference: {nominal} steps nominal, makespan {:.1} h",
        clean.makespan_s / 3600.0
    ));
    for node_mtbf_h in [48.0f64, 12.0] {
        let node_mtbf_s = node_mtbf_h * 3600.0;
        let system_mtbf_s = node_mtbf_s / NODES as f64;
        let young_s = moda_hpc::young_interval_s(CKPT_COST_S, system_mtbf_s);
        let cadences = [
            ("none".to_string(), None),
            (
                format!("fixed {:.0} s (Young/4)", young_s / 4.0),
                Some(CheckpointCadence::Fixed(young_s / 4.0)),
            ),
            (
                format!("Young {young_s:.0} s"),
                Some(CheckpointCadence::Young { system_mtbf_s }),
            ),
            (
                format!("fixed {:.0} s (Young×4)", young_s * 4.0),
                Some(CheckpointCadence::Fixed(young_s * 4.0)),
            ),
        ];
        for (label, cadence) in cadences {
            let s = run(node_mtbf_s, cadence);
            t.row(vec![
                cell(node_mtbf_h, format!("{node_mtbf_h:.0} h")),
                cell(
                    system_mtbf_s / 3600.0,
                    format!("{:.1} h", system_mtbf_s / 3600.0),
                ),
                label.into(),
                s.failures.into(),
                s.checkpoints.into(),
                s.steps_completed.saturating_sub(nominal).into(),
                f(s.makespan_s / 3600.0, 1),
                roots(&s),
            ]);
        }
    }
    t
}
