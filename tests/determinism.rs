//! Determinism guarantees across the full stack.
//!
//! Every experiment in the repository claims bit-for-bit reproducibility
//! from a root seed (`tests/paper_claims.rs` pins each experiment's table
//! in `tests/golden/paper/`). These tests hold the whole facade to that
//! claim — world, scheduler, filesystem, telemetry, and the autonomy
//! loop together.

use moda::hpc::{workload, World, WorldConfig};
use moda::scheduler::ExtensionPolicy;
use moda::sim::{RngStreams, SimDuration, SimTime};
use moda::usecases::harness::{drive, shared, CampaignStats, SharedWorld};
use moda::usecases::scheduler_case::{build_loop, SchedulerLoopConfig};

fn campaign_world(seed: u64) -> SharedWorld {
    let mut w = World::new(WorldConfig {
        nodes: 16,
        seed,
        policy: ExtensionPolicy::default(),
        ..WorldConfig::default()
    });
    w.submit_campaign(workload::generate(
        &workload::WorkloadConfig {
            n_jobs: 60,
            mean_interarrival_s: 60.0,
            ..workload::WorkloadConfig::default()
        },
        &RngStreams::new(seed),
        0,
    ));
    shared(w)
}

fn run(seed: u64, with_loop: bool) -> CampaignStats {
    let w = campaign_world(seed);
    let mut l = with_loop.then(|| build_loop(w.clone(), SchedulerLoopConfig::default()));
    drive(
        &w,
        SimDuration::from_secs(30),
        SimTime::from_hours(24 * 7),
        |t| {
            if let Some(l) = l.as_mut() {
                l.tick(t);
            }
        },
    );
    let stats = CampaignStats::collect(&w.borrow());
    stats
}

#[test]
fn same_seed_same_outcome_without_loop() {
    let a = run(7, false);
    let b = run(7, false);
    assert_eq!(a, b, "baseline campaign must be bit-reproducible");
}

#[test]
fn same_seed_same_outcome_with_loop() {
    let a = run(7, true);
    let b = run(7, true);
    assert_eq!(a, b, "loop-driven campaign must be bit-reproducible");
}

#[test]
fn different_seeds_differ() {
    let a = run(7, false);
    let b = run(8, false);
    // Makespan is continuous-valued: collisions across seeds would be
    // astronomically unlikely unless the seed were being ignored.
    assert_ne!(
        a.makespan_s, b.makespan_s,
        "different seeds must produce different campaigns"
    );
}

#[test]
fn telemetry_stream_is_reproducible() {
    let collect = |seed: u64| -> String {
        let w = campaign_world(seed);
        drive(
            &w,
            SimDuration::from_secs(30),
            SimTime::from_hours(24),
            |_| {},
        );
        let wb = w.borrow();
        moda::telemetry::export::snapshot_csv(&wb.tsdb)
    };
    assert_eq!(collect(3), collect(3));
    assert_ne!(collect(3), collect(4));
}

#[test]
fn loop_knowledge_is_reproducible() {
    let knowledge_json = |seed: u64| -> String {
        let w = campaign_world(seed);
        let mut l = build_loop(w.clone(), SchedulerLoopConfig::default());
        drive(
            &w,
            SimDuration::from_secs(30),
            SimTime::from_hours(24 * 7),
            |t| {
                l.tick(t);
            },
        );
        serde_json::to_string(l.knowledge()).expect("knowledge serializes")
    };
    assert_eq!(knowledge_json(11), knowledge_json(11));
}
