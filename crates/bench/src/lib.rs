//! Shared harness for the experiment binaries.
//!
//! The paper is a position paper with conceptual figures rather than
//! numbered result tables, so each `exp_*` binary regenerates one
//! *figure- or claim-derived experiment* from the index in `DESIGN.md`
//! (E1–E12), printing an aligned table whose shape EXPERIMENTS.md
//! records. This module holds what they share: campaign construction,
//! the loop-on/loop-off runner for scheduler-style experiments, and
//! extension-accuracy scoring against simulator ground truth. Beside
//! them, [`plateau`] builds the fleet state the `tsdb` bench's snapshot
//! rows and the bench gate's snapshot ceiling both measure.

pub mod plateau;
pub mod table;

use moda_analytics::assess::ExtensionAssessment;
use moda_hpc::{workload, World, WorldConfig};
use moda_scheduler::{ExtensionPolicy, JobState};
use moda_sim::{RngStreams, SimDuration, SimTime};
use moda_usecases::harness::{drive, shared, CampaignStats, SharedWorld};
use moda_usecases::scheduler_case::{build_loop, SchedulerLoopConfig};

/// Standard experiment scale (kept moderate so the full suite runs in
/// minutes on one core; every binary takes `--big` style tuning through
/// its own constants instead).
pub const STD_JOBS: usize = 120;
/// Standard node count.
pub const STD_NODES: u32 = 32;
/// Standard loop cadence.
pub const STD_TICK: SimDuration = SimDuration(30_000);
/// Standard campaign horizon.
pub const STD_HORIZON: SimTime = SimTime(14 * 24 * 3_600_000);

/// Build the standard world for scheduler-style experiments.
pub fn std_world(seed: u64, policy: ExtensionPolicy) -> SharedWorld {
    shared(World::new(WorldConfig {
        nodes: STD_NODES,
        seed,
        policy,
        power_period: None,
        ..WorldConfig::default()
    }))
}

/// Build the standard synthetic campaign.
pub fn std_campaign(
    seed: u64,
    n_jobs: usize,
    underestimate_frac: f64,
    misconfig_rate: f64,
) -> Vec<(moda_scheduler::JobRequest, moda_hpc::AppProfile)> {
    workload::generate(
        &workload::WorkloadConfig {
            n_jobs,
            mean_interarrival_s: 60.0,
            misconfig_rate,
            walltime_error: workload::WalltimeErrorModel {
                underestimate_frac,
                ..workload::WalltimeErrorModel::default()
            },
            ..workload::WorkloadConfig::default()
        },
        &RngStreams::new(seed),
        0,
    )
}

/// Extension-accuracy scoring against ground truth (§III.iv: "validation
/// of the run-time extension will be clear through comparison of the
/// time extension with the actual application run time").
#[derive(Debug, Clone, Default)]
pub struct ExtensionErrors {
    /// Completed jobs that had received extensions.
    pub extended_completed: u64,
    /// Jobs killed even though they had received extensions
    /// (under-estimation failures).
    pub extended_killed: u64,
    /// Mean signed error (granted − needed), seconds, over completed
    /// extended jobs.
    pub mean_error_s: f64,
    /// Mean overestimation ratio over completed extended jobs.
    pub mean_over_ratio: f64,
}

/// Score every extended job in a finished world.
pub fn extension_errors(world: &World) -> ExtensionErrors {
    let mut out = ExtensionErrors::default();
    let mut err_sum = 0.0;
    let mut ratio_sum = 0.0;
    for job in world.sched.jobs() {
        if job.extended_total == SimDuration::ZERO {
            continue;
        }
        match job.state {
            JobState::Completed => {
                let start = job.start.expect("completed job started");
                let end = job.end.expect("completed job ended");
                let original_limit = start + job.req.walltime;
                let needed = end.saturating_since(original_limit).as_secs_f64();
                let granted = job.extended_total.as_secs_f64();
                let a = ExtensionAssessment::score(granted, needed, true);
                err_sum += a.error_s;
                ratio_sum += a.overestimation_ratio();
                out.extended_completed += 1;
            }
            JobState::TimedOut => out.extended_killed += 1,
            _ => {}
        }
    }
    if out.extended_completed > 0 {
        out.mean_error_s = err_sum / out.extended_completed as f64;
        out.mean_over_ratio = ratio_sum / out.extended_completed as f64;
    }
    out
}

/// Run one scheduler-style campaign: `loop_cfg = None` is the baseline.
pub fn run_sched_campaign(
    seed: u64,
    underestimate_frac: f64,
    policy: ExtensionPolicy,
    loop_cfg: Option<SchedulerLoopConfig>,
) -> (CampaignStats, ExtensionErrors) {
    let world = std_world(seed, policy);
    world
        .borrow_mut()
        .submit_campaign(std_campaign(seed, STD_JOBS, underestimate_frac, 0.0));
    let mut l = loop_cfg.map(|cfg| build_loop(world.clone(), cfg));
    drive(&world, STD_TICK, STD_HORIZON, |t| {
        if let Some(l) = l.as_mut() {
            l.tick(t);
        }
    });
    let stats = CampaignStats::collect(&world.borrow());
    let errors = extension_errors(&world.borrow());
    (stats, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_vs_loop_differential_holds() {
        // The repository's headline claim, as a test: the loop increases
        // completions-in-first-attempt and reduces kills/resubmits.
        let (base, _) = run_sched_campaign(3, 0.3, ExtensionPolicy::default(), None);
        let (auto, errs) = run_sched_campaign(
            3,
            0.3,
            ExtensionPolicy::default(),
            Some(SchedulerLoopConfig::default()),
        );
        assert!(base.timed_out > 0, "baseline should lose jobs: {base:?}");
        assert!(
            auto.timed_out < base.timed_out,
            "loop must reduce walltime kills: {} vs {}",
            auto.timed_out,
            base.timed_out
        );
        assert!(auto.resubmits < base.resubmits);
        assert!(auto.ext_granted + auto.ext_partial > 0);
        assert!(errs.extended_completed > 0);
    }

    #[test]
    fn extension_errors_empty_world() {
        let w = World::new(WorldConfig {
            nodes: 4,
            power_period: None,
            ..WorldConfig::default()
        });
        let e = extension_errors(&w);
        assert_eq!(e.extended_completed, 0);
        assert_eq!(e.mean_error_s, 0.0);
    }
}
