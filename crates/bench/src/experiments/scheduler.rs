//! The Scheduler case (Fig. 3, §III.iv–v) and what rides on it: E3's
//! loop-vs-baseline sweep, E8's response latency, E10's confidence gate
//! and E12's Knowledge reuse.

use crate::table::{cell, f, Cell, Table};
use crate::{run_sched_campaign, sched_loop, std_campaign, STD_JOBS};
use moda_analytics::similarity::{estimate_runtime, RunSignature};
use moda_core::knowledge::RunRecord;
use moda_core::{AutonomyMode, Knowledge};
use moda_hpc::workload::{self, AppClassSpec, WalltimeErrorModel, WorkloadConfig};
use moda_scheduler::{ExtensionPolicy, JobState};
use moda_sim::{RngStreams, SimDuration};
use moda_usecases::harness::CampaignStats;
use moda_usecases::scheduler_case::{build_loop, class_signature, SchedulerLoopConfig};
use std::collections::BTreeMap;

fn extensions(s: &CampaignStats) -> Cell {
    format!("{}+{}p/-{}d", s.ext_granted, s.ext_partial, s.ext_denied).into()
}

fn roots(s: &CampaignStats) -> Cell {
    cell(
        s.roots_completed as f64,
        format!("{}/{}", s.roots_completed, s.roots_total),
    )
}

/// **E3 — the Scheduler case.** Sweeps the user walltime-underestimation
/// fraction and compares the baseline (kill + resubmit) against the
/// autonomy loop in three variants: extension-only, extension +
/// checkpoint fallback, and a guardrail ablation (permissive scheduler
/// policy — §III.iv trust controls off). Reports the §III.v incentive
/// metrics (completions up, resubmissions down), the §III.iv trust
/// metrics (extension over/under-estimation, reservation delay,
/// idle-while-queued node time), and work redone.
pub fn e3() -> Table {
    let seed = 1234;
    let mut t = Table::new(
        "E3 — Scheduler autonomy loop vs baseline (per §III.iv–v metrics)",
        &[
            "under-est",
            "variant",
            "roots done",
            "kills",
            "resubmits",
            "steps",
            "extensions",
            "ext-s",
            "err-s",
            "over-ratio",
            "ext-killed",
            "resv-delay-s",
            "idleq-kns",
            "util",
        ],
    );
    let ext_only = SchedulerLoopConfig {
        enable_checkpoint: false,
        ..SchedulerLoopConfig::default()
    };
    let full = SchedulerLoopConfig::default();
    // The guardrail ablation: the scheduler grants everything.
    let (guarded, permissive) = (ExtensionPolicy::default(), ExtensionPolicy::permissive());
    for under in [0.1, 0.2, 0.4] {
        for (label, policy, cfg) in [
            ("baseline", guarded, None),
            ("loop: extend", guarded, Some(&ext_only)),
            ("loop: extend+ckpt", guarded, Some(&full)),
            ("loop: no guardrails", permissive, Some(&full)),
        ] {
            let jobs = std_campaign(seed, STD_JOBS, under, 0.0);
            let run = run_sched_campaign(seed, jobs, policy, sched_loop(cfg.cloned()));
            let (s, e) = (run.stats(), run.errors());
            t.row(vec![
                cell(under, format!("{:.0}%", under * 100.0)),
                label.into(),
                roots(&s),
                s.timed_out.into(),
                s.resubmits.into(),
                s.steps_completed.into(),
                extensions(&s),
                f(s.ext_time_granted_s, 0),
                f(e.mean_error_s, 0),
                f(e.mean_over_ratio, 2),
                e.extended_killed.into(),
                f(s.reservation_delay_s, 0),
                f(s.idle_queued_node_s / 1000.0, 1),
                f(s.utilization, 3),
            ]);
        }
    }
    t
}

/// **E8 — response latency: human-in-the-loop vs autonomy (§I, §IV).**
/// *"Having a human in the loop limits the speed of response."* The
/// same campaign runs with Execute gated by growing approval latencies:
/// fully autonomous, human-on-the-loop (act now, notify with an
/// explanation), and human-in-the-loop approval from one minute to
/// eight hours.
pub fn e8() -> Table {
    let seed = 31;
    let mut t = Table::new(
        "E8 — outcome vs response latency (Scheduler case, 30% underestimation)",
        &[
            "response mode",
            "latency",
            "kills",
            "resubmits",
            "extensions",
            "notifications",
            "roots done",
        ],
    );
    let approval = |label, latency| {
        let mode = AutonomyMode::HumanInTheLoop { latency };
        ("human approval", label, Some(mode))
    };
    let modes = [
        ("no loop", "-", None),
        ("autonomous", "~0", Some(AutonomyMode::Autonomous)),
        (
            "human-on-the-loop",
            "~0 (notified)",
            Some(AutonomyMode::HumanOnTheLoop),
        ),
        approval("1 min", SimDuration::from_mins(1)),
        approval("5 min", SimDuration::from_mins(5)),
        approval("30 min", SimDuration::from_mins(30)),
        approval("2 h", SimDuration::from_hours(2)),
        approval("8 h", SimDuration::from_hours(8)),
    ];
    for (mode_label, latency_label, mode) in modes {
        let cfg = mode.map(|mode| SchedulerLoopConfig {
            mode,
            ..SchedulerLoopConfig::default()
        });
        let jobs = std_campaign(seed, STD_JOBS, 0.3, 0.0);
        let run = run_sched_campaign(seed, jobs, ExtensionPolicy::default(), sched_loop(cfg));
        let notes = (run.mape.as_ref()).map_or(0, |l| l.audit().notifications().len());
        let s = run.stats();
        t.row(vec![
            mode_label.into(),
            latency_label.into(),
            s.timed_out.into(),
            s.resubmits.into(),
            extensions(&s),
            notes.into(),
            cell(
                s.roots_completed as f64,
                format!(
                    "{}/{} ({:.0}%)",
                    s.roots_completed,
                    s.roots_total,
                    100.0 * s.completion_rate()
                ),
            ),
        ]);
    }
    t
}

/// **E10 — confidence-gated actuation (§IV).** *"Confidence measures are
/// required as we move beyond human-in-the-loop decision-making."* A
/// noisy workload (wide step-time CV, mid-run phase changes) makes many
/// early forecasts wrong; sweeping the Execute-phase confidence gate
/// trades action volume against action quality. Reports actions
/// executed/blocked, wasted grants (extended jobs that died anyway),
/// extension overshoot, kills, and the Brier score of the loop's own
/// confidence calibration.
pub fn e10() -> Table {
    let seed = 8;
    let mut t = Table::new(
        "E10 — confidence-gate threshold sweep (noisy workload, 30% under-estimation)",
        &[
            "gate",
            "executed",
            "blocked",
            "kills",
            "wasted grants",
            "over-ratio",
            "roots done",
            "Brier",
        ],
    );
    let mut cfd = AppClassSpec::cfd();
    cfd.step_cv = 0.45;
    cfd.phase_change_prob = 0.5;
    cfd.phase_factor = 1.8;
    let noisy = WorkloadConfig {
        n_jobs: 120,
        mean_interarrival_s: 60.0,
        classes: vec![cfd],
        walltime_error: WalltimeErrorModel {
            underestimate_frac: 0.3,
            ..WalltimeErrorModel::default()
        },
        ..WorkloadConfig::default()
    };
    for gate in [0.0, 0.4, 0.6, 0.8, 0.85, 0.9] {
        let jobs = workload::generate(&noisy, &RngStreams::new(seed), 0);
        let cfg = SchedulerLoopConfig {
            gate_threshold: gate,
            ..SchedulerLoopConfig::default()
        };
        let run = run_sched_campaign(
            seed,
            jobs,
            ExtensionPolicy::default(),
            sched_loop(Some(cfg)),
        );
        let (s, e) = (run.stats(), run.errors());
        let brier = (run.mape.as_ref()).and_then(|l| l.knowledge().calibration().brier_score());
        t.row(vec![
            f(gate, 2),
            run.report.executed.into(),
            run.report.blocked.into(),
            s.timed_out.into(),
            e.extended_killed.into(),
            f(e.mean_over_ratio, 2),
            roots(&s),
            brier.map_or("-".into(), |b| f(b, 3)),
        ]);
    }
    t
}

/// History records drawn from the same generator as the campaign —
/// runs of the paper's "similar jobs with different input decks" —
/// signed the way the scheduler loop signs its cold-start queries.
fn history(seed: u64, n: usize) -> Vec<RunRecord> {
    if n == 0 {
        return Vec::new();
    }
    let cfg = WorkloadConfig {
        n_jobs: n,
        mean_interarrival_s: 1.0,
        ..WorkloadConfig::default()
    };
    (workload::generate(&cfg, &RngStreams::new(seed), 0).into_iter())
        .map(|(req, prof)| RunRecord {
            app_class: prof.app_class.clone(),
            signature: class_signature(prof.total_steps as f64).to_vec(),
            runtime_s: prof.total_steps as f64 * prof.mean_step_s,
            total_steps: prof.total_steps,
            metadata: BTreeMap::from([("nodes".to_string(), req.nodes.to_string())]),
        })
        .collect()
}

/// **E12a — Knowledge reuse (§III)**: how much history does a useful
/// cold-start estimate need? *"Prior Knowledge of running time … might
/// have to be inferred from similar jobs with different input decks."*
/// k-NN runtime estimation over behavioral signatures, swept by history
/// depth; error and the estimator's own confidence.
pub fn e12a() -> Table {
    let seed = 2024;
    // Fresh queries from a different generator seed: different input
    // decks, same families.
    let queries = history(seed + 1000, 60);
    let mut t = Table::new(
        "E12a — cold-start runtime estimation vs history depth (k-NN, k=5)",
        &["history runs", "MAPE %", "median APE %", "mean confidence"],
    );
    for depth in [0usize, 1, 5, 25, 100, 400] {
        let records = history(seed, depth);
        let (mut apes, mut confs) = (Vec::new(), Vec::new());
        for q in &queries {
            let sig = RunSignature::from_slice(&q.signature).expect("query signature");
            // No estimate scores as a total miss with zero confidence.
            let (ape, conf) = match estimate_runtime(&sig, &records, 5) {
                Some((est, c)) => (
                    100.0 * (est - q.runtime_s).abs() / q.runtime_s.max(1.0),
                    c.value(),
                ),
                None => (100.0, 0.0),
            };
            apes.push(ape);
            confs.push(conf);
        }
        apes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mape = apes.iter().sum::<f64>() / apes.len() as f64;
        let conf = confs.iter().sum::<f64>() / confs.len() as f64;
        t.row(vec![
            depth.into(),
            f(mape, 1),
            f(apes[apes.len() / 2], 1),
            f(conf, 2),
        ]);
    }
    t
}

/// **E12b** — does history help a *campaign*? The Scheduler loop is
/// forced onto its cold-start path (per-job markers disabled) and run
/// with empty vs seeded Knowledge. The loop harvests completed runs
/// into Knowledge as the campaign proceeds (Fig. 3's assess/refine
/// arc), so seeded history can only matter in the opening phase —
/// measured as kills among the 30 earliest-submitted roots.
pub fn e12b() -> Table {
    let seed = 2024;
    let mut t = Table::new(
        "E12b — campaign outcome with the loop forced onto its cold-start path",
        &[
            "knowledge",
            "kills",
            "early kills (first 30 roots)",
            "extensions",
            "roots done",
        ],
    );
    // Never trust per-job markers: every estimate must come from
    // Knowledge history (pure cold start).
    let cold = SchedulerLoopConfig {
        min_markers: usize::MAX,
        gate_threshold: 0.0,
        ..SchedulerLoopConfig::default()
    };
    for (label, depth) in [
        ("no loop", None),
        ("seeded: none", Some(0)),
        ("seeded: 25 runs", Some(25)),
        ("seeded: 400 runs", Some(400)),
    ] {
        let jobs = std_campaign(seed, STD_JOBS, 0.3, 0.0);
        let run = run_sched_campaign(seed, jobs, ExtensionPolicy::default(), |w| {
            let mut k = Knowledge::new();
            history(seed + 7, depth?)
                .into_iter()
                .for_each(|r| k.record_run(r));
            Some(build_loop(w.clone(), cold.clone()).with_knowledge(k))
        });
        let s = run.stats();
        let wb = run.world.borrow();
        let early_kills = (wb.sched.jobs())
            .filter(|j| {
                j.state == JobState::TimedOut && wb.root_of(j.req.id).is_some_and(|r| r.0 < 30)
            })
            .count();
        t.row(vec![
            label.into(),
            s.timed_out.into(),
            early_kills.into(),
            extensions(&s),
            roots(&s),
        ]);
    }
    t
}
