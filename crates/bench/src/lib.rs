//! The paper's experiments and what they share.
//!
//! The paper is a position paper with conceptual figures rather than
//! numbered result tables, so [`experiments`] regenerates one *figure-
//! or claim-derived experiment* per table (E1–E13), each a function
//! returning its [`table::Table`]. The `experiments` binary prints them
//! all; `tests/paper_claims.rs` asserts each experiment's claim against
//! its table and pins the rendering in `tests/golden/paper/`. This
//! module holds what they share: campaign construction, the
//! loop-on/loop-off runner for scheduler-style experiments, and
//! extension-accuracy scoring against simulator ground truth. Beside
//! them, [`plateau`] builds the fleet state the `tsdb` bench's snapshot
//! rows and the bench gate's snapshot ceiling both measure.

pub mod experiments;
pub mod plateau;
pub mod table;

use moda_analytics::assess::ExtensionAssessment;
use moda_core::domain::Domain;
use moda_core::{LoopReport, MapeLoop};
use moda_hpc::{workload, AppProfile, World, WorldConfig};
use moda_scheduler::{ExtensionPolicy, JobRequest, JobState};
use moda_sim::{RngStreams, SimDuration, SimTime};
use moda_usecases::harness::{drive, shared, CampaignStats, SharedWorld};
use moda_usecases::scheduler_case::{build_loop, SchedulerDomain, SchedulerLoopConfig};

/// Standard experiment scale (kept moderate so every experiment runs in
/// seconds on one core).
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
) -> Vec<(JobRequest, AppProfile)> {
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

/// Tick `l` at `t` when there is a loop; the baseline (`None`) reports
/// nothing. Every loop-on/loop-off experiment drives through this.
pub fn tick<D: Domain>(l: &mut Option<MapeLoop<D>>, t: SimTime) -> LoopReport {
    l.as_mut().map_or_else(LoopReport::default, |l| l.tick(t))
}

/// What one scheduler-style campaign leaves behind.
pub struct SchedRun {
    /// The world at the campaign's end.
    pub world: SharedWorld,
    /// The loop that ran; `None` for the baseline.
    pub mape: Option<MapeLoop<SchedulerDomain>>,
    /// Every tick's report, summed.
    pub report: LoopReport,
}

impl SchedRun {
    /// The campaign's §III.iv–v report.
    pub fn stats(&self) -> CampaignStats {
        CampaignStats::collect(&self.world.borrow())
    }

    /// Extension accuracy against ground truth.
    pub fn errors(&self) -> ExtensionErrors {
        extension_errors(&self.world.borrow())
    }
}

/// Run `jobs` on the standard world under `policy`, ticking the loop
/// `mape` builds over that world every [`STD_TICK`] (`None` is the
/// baseline).
pub fn run_sched_campaign(
    seed: u64,
    jobs: Vec<(JobRequest, AppProfile)>,
    policy: ExtensionPolicy,
    mape: impl FnOnce(&SharedWorld) -> Option<MapeLoop<SchedulerDomain>>,
) -> SchedRun {
    let world = std_world(seed, policy);
    world.borrow_mut().submit_campaign(jobs);
    let mut l = mape(&world);
    let mut report = LoopReport::default();
    drive(&world, STD_TICK, STD_HORIZON, |t| {
        report.absorb(&tick(&mut l, t))
    });
    SchedRun {
        world,
        mape: l,
        report,
    }
}

/// The scheduler loop under `cfg` (`None`: no loop), as
/// [`run_sched_campaign`] takes it.
pub fn sched_loop(
    cfg: Option<SchedulerLoopConfig>,
) -> impl FnOnce(&SharedWorld) -> Option<MapeLoop<SchedulerDomain>> {
    move |w| cfg.map(|c| build_loop(w.clone(), c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_vs_loop_differential_holds() {
        // The repository's headline claim, as a test: the loop increases
        // completions-in-first-attempt and reduces kills/resubmits.
        let jobs = || std_campaign(3, STD_JOBS, 0.3, 0.0);
        let base = run_sched_campaign(3, jobs(), ExtensionPolicy::default(), sched_loop(None));
        let run = run_sched_campaign(
            3,
            jobs(),
            ExtensionPolicy::default(),
            sched_loop(Some(SchedulerLoopConfig::default())),
        );
        let base = base.stats();
        let (auto, errs) = (run.stats(), run.errors());
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
