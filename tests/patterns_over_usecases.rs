//! Fig. 2 pattern orchestrators composed with the real use-case loops.
//!
//! The paper's bet is that the MAPE-K formalism lets the same loop be
//! dropped into different architectural patterns unchanged. These tests
//! do exactly that: the Scheduler-case loop (Fig. 3) is run under the
//! hierarchy's cadence, and a per-application fleet of classical loops
//! is compared against one loop watching every job — the paper's
//! "single 'classical' autonomy loop per application" starting point.

use moda::core::patterns::{Hierarchy, OscillationDamper, Supervisor, SupervisorReport};
use moda::core::{Domain, LoopReport, MapeLoop};
use moda::hpc::{workload, World, WorldConfig};
use moda::sim::{RngStreams, SimDuration, SimTime};
use moda::usecases::harness::{drive, shared, CampaignStats, SharedWorld};
use moda::usecases::scheduler_case::{build_loop, SchedulerDomain, SchedulerLoopConfig};

fn stressed_world(seed: u64) -> SharedWorld {
    let mut w = World::new(WorldConfig {
        nodes: 16,
        seed,
        power_period: None,
        ..WorldConfig::default()
    });
    w.submit_campaign(workload::generate(
        &workload::WorkloadConfig {
            n_jobs: 40,
            mean_interarrival_s: 90.0,
            walltime_error: workload::WalltimeErrorModel {
                underestimate_frac: 0.3,
                ..workload::WalltimeErrorModel::default()
            },
            ..workload::WorkloadConfig::default()
        },
        &RngStreams::new(seed),
        0,
    ));
    shared(w)
}

/// Drive a pattern-wrapped loop with a fine-grained clock; the pattern's
/// own cadence decides when MAPE actually runs.
fn drive_pattern<D: Domain, F: FnMut(SimTime) -> LoopReport>(
    world: &SharedWorld,
    mut poll: F,
) -> CampaignStats {
    drive(
        world,
        SimDuration::from_secs(5),
        SimTime::from_hours(24 * 7),
        |t| {
            poll(t);
        },
    );
    let stats = CampaignStats::collect(&world.borrow());
    let _ = std::marker::PhantomData::<D>;
    stats
}

#[test]
fn classical_pattern_matches_manual_ticking() {
    // Manual 30 s ticks…
    let w1 = stressed_world(3);
    let mut manual = build_loop(w1.clone(), SchedulerLoopConfig::default());
    drive(
        &w1,
        SimDuration::from_secs(30),
        SimTime::from_hours(24 * 7),
        |t| {
            manual.tick(t);
        },
    );
    let s1 = CampaignStats::collect(&w1.borrow());

    // …must equal the loop as the one child of a hierarchy whose
    // supervisor never adjusts, polled at 5 s with a 30 s child cadence
    // (the hierarchy runs MAPE only when due, on the same 30 s phase).
    struct HandsOff;
    impl Supervisor<SchedulerDomain> for HandsOff {
        fn supervise(
            &mut self,
            _now: SimTime,
            _children: &mut [MapeLoop<SchedulerDomain>],
            _windows: &[Vec<LoopReport>],
        ) -> SupervisorReport {
            SupervisorReport::default()
        }
    }
    let w2 = stressed_world(3);
    let mut hierarchy = Hierarchy::new(
        vec![build_loop(w2.clone(), SchedulerLoopConfig::default())],
        Box::new(HandsOff),
        SimDuration::from_secs(30),
        SimDuration::from_hours(1),
    );
    let s2 = drive_pattern::<SchedulerDomain, _>(&w2, |t| hierarchy.poll(t));

    assert_eq!(s1, s2, "pattern cadence must reproduce manual ticking");
    assert!(hierarchy.child(0).iterations() > 0);
    assert_eq!(hierarchy.total_adjustments(), 0);
}

#[test]
fn redundant_loops_are_absorbed_by_scheduler_caps() {
    // §II warns that decentralized loops interact indirectly through the
    // managed system. Worst case: several *identical* Scheduler loops,
    // each with private Knowledge, all watching every job — each one
    // independently requests extensions for the same at-risk job. The
    // scheduler-side trust controls (per-job count and budget caps) are
    // the backstop: outcomes must stay sane and bounds must hold.
    let one_loop = {
        let w = stressed_world(9);
        let mut l = build_loop(w.clone(), SchedulerLoopConfig::default());
        drive(
            &w,
            SimDuration::from_secs(30),
            SimTime::from_hours(24 * 7),
            |t| {
                l.tick(t);
            },
        );
        let stats = CampaignStats::collect(&w.borrow());
        stats
    };

    let (redundant, per_job_bounds_hold) = {
        let w = stressed_world(9);
        let mut loops: Vec<MapeLoop<moda::usecases::scheduler_case::SchedulerDomain>> = (0..3)
            .map(|_| build_loop(w.clone(), SchedulerLoopConfig::default()))
            .collect();
        drive(
            &w,
            SimDuration::from_secs(30),
            SimTime::from_hours(24 * 7),
            |t| {
                for l in loops.iter_mut() {
                    l.tick(t);
                }
            },
        );
        let stats = CampaignStats::collect(&w.borrow());
        let bounds = w
            .borrow()
            .sched
            .jobs()
            .all(|j| j.extensions <= 3 && j.extended_total <= SimDuration::from_hours(2));
        (stats, bounds)
    };

    assert!(
        per_job_bounds_hold,
        "scheduler caps must hold under redundancy"
    );
    // Redundancy may waste requests but must not make outcomes much worse.
    assert!(redundant.timed_out <= one_loop.timed_out + 2);
    assert_eq!(redundant.roots_total, one_loop.roots_total);
}

#[test]
fn hierarchy_supervises_real_loops_across_two_clusters() {
    // Fig. 2(d) over real domain loops: two independent clusters, each
    // managed by its own Scheduler-case loop (fast timescale), under one
    // supervisor on a 20×-slower cadence that tightens/relaxes the
    // children's confidence gates based on their activity — "separation
    // of concerns and time scales" (§II).
    let worlds: Vec<SharedWorld> = (0..2).map(|i| stressed_world(40 + i)).collect();
    let children: Vec<MapeLoop<SchedulerDomain>> = worlds
        .iter()
        .map(|w| build_loop(w.clone(), SchedulerLoopConfig::default()))
        .collect();
    let mut hierarchy = Hierarchy::new(
        children,
        Box::new(OscillationDamper::default()),
        SimDuration::from_secs(30),
        SimDuration::from_secs(600),
    );

    // Drive both worlds against one shared clock; the hierarchy decides
    // internally which timescale fires when.
    let mut t = SimTime::ZERO;
    let horizon = SimTime::from_hours(24 * 7);
    loop {
        t += SimDuration::from_secs(30);
        if t > horizon {
            break;
        }
        for w in &worlds {
            w.borrow_mut().run_until(t);
        }
        hierarchy.poll(t);
        if worlds.iter().all(|w| w.borrow().drained()) {
            break;
        }
    }
    for w in &worlds {
        w.borrow_mut().run_to_completion(horizon);
    }

    assert!(hierarchy.supervision_passes() > 0, "supervisor never ran");
    for (i, w) in worlds.iter().enumerate() {
        let s = CampaignStats::collect(&w.borrow());
        assert_eq!(s.roots_completed, s.roots_total, "cluster {i}: {s:?}");
        assert!(
            s.ext_granted + s.ext_partial > 0,
            "cluster {i}: child loop never acted"
        );
        // Children stay independent: each child's Knowledge only saw its
        // own cluster's jobs.
        assert!(hierarchy.child(i).knowledge().run_count() > 0);
    }
}
