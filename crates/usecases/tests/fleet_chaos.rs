//! Chaos acceptance test for the center-level closed loop — the tier-1
//! twin of the `fleet-chaos` CI job.
//!
//! Runs the two fault scenarios end to end and asserts their
//! acceptance clauses:
//!
//! * **cascading failure** — the cascade is detected from fleet queries
//!   alone, the first response is a canary scoped to the implicated
//!   world, every action respects cooldowns and rate limits, post-action
//!   validation passes, and the whole decision sequence is
//!   machine-reconstructible from the audit trail (`verify_audit`), and
//!   every applied action raised one human-on-the-loop notification.
//! * **partition** — fleet queries degrade to coverage-annotated
//!   answers (zero stale-as-fresh reads, asserted per tick), the
//!   responder holds actuation while coverage is below the floor, and
//!   actuation resumes once the partition heals.
//!
//! Every scenario's rendered control trail is pinned byte for byte in
//! `tests/golden/chaos/<name>-control-trail.txt`: a change that means to
//! move a decision regenerates them with
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p moda-usecases --test fleet_chaos
//! ```
//!
//! Artifacts: set `FLEET_CHAOS_DIR` to pin the rendered control trails,
//! summaries and per-tick traces somewhere collectable (the CI job points
//! it into `target/` and uploads on failure). Without it the trails are
//! written to a per-process temp dir and removed on success.

use moda_fleet::NodeLiveness;
use moda_usecases::{
    cascading_failure_scenario, partition_degradation_scenario, power_cap_scenario, ControlTrace,
};
use std::path::{Path, PathBuf};

/// Check `trace`'s rendered control trail against its golden
/// `tests/golden/chaos/{name}-control-trail.txt` (regenerated first
/// under `GOLDEN_REGEN`).
fn pin(name: &str, trace: &ControlTrace) {
    let rel = format!("tests/golden/chaos/{name}-control-trail.txt");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(&rel);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &trace.control_trail).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{rel} unreadable ({e}); generate it with GOLDEN_REGEN=1"));
    assert!(
        trace.control_trail == golden,
        "the {name} control trail no longer renders {rel}; if the change means \
         to move this scenario, regenerate with GOLDEN_REGEN=1"
    );
}

fn work_dir() -> (PathBuf, bool) {
    match std::env::var_os("FLEET_CHAOS_DIR") {
        Some(d) => (PathBuf::from(d), true),
        None => (
            std::env::temp_dir().join(format!("moda_fleet_chaos_{}", std::process::id())),
            false,
        ),
    }
}

/// Liveness transitions of the run that ended in `to`.
fn transitions_into(trace: &ControlTrace, to: NodeLiveness) -> usize {
    trace
        .health_transitions
        .iter()
        .filter(|e| e.to == to)
        .count()
}

fn dump(name: &str, trace: &ControlTrace) -> PathBuf {
    let (dir, _) = work_dir();
    std::fs::create_dir_all(&dir).expect("artifact dir");
    std::fs::write(
        dir.join(format!("{name}-control-trail.txt")),
        &trace.control_trail,
    )
    .expect("write control trail");
    let ticks: String = trace
        .ticks
        .iter()
        .map(|tt| {
            format!(
                "t={} coverage={:.2} contributing={} excluded={:?} \
                 alerts={} applied={} held={} blocked={}\n",
                tt.t,
                tt.coverage,
                tt.contributing,
                tt.excluded,
                tt.alerts,
                tt.applied,
                tt.held,
                tt.blocked
            )
        })
        .collect();
    std::fs::write(dir.join(format!("{name}-ticks.txt")), ticks).expect("write tick trace");
    std::fs::write(
        dir.join(format!("{name}-summary.txt")),
        format!("{:#?}\n{:#?}\n", trace.summary, trace.health_transitions),
    )
    .expect("write summary");
    dir
}

#[test]
fn chaos_scenarios_meet_the_acceptance_clauses() {
    // --- cascading failure: detect → canary repair → validate --------
    let cascade = cascading_failure_scenario(11).expect("audit must certify");
    dump("cascade", &cascade.trace);
    pin("cascade", &cascade.trace);
    assert!(cascade.failures_injected > 0, "the cascade never started");
    assert!(cascade.repaired, "the failure process was never disarmed");
    let s = &cascade.trace.summary;
    assert!(s.applied >= 1, "no response was ever applied");
    assert!(s.canary >= 1, "the first action must be a canary");
    assert_eq!(s.validations_failed, 0, "a response failed validation");
    assert!(s.validations_passed >= 1, "no response was validated");
    // Convergence: no oscillation past the rule's rate budget (2/2h
    // over a 4.3h run).
    assert!(s.applied <= 4, "actuation oscillated past the rate limit");
    assert!(
        cascade.failure_rate_final < cascade.failure_rate_at_repair,
        "the cascade outlived the response: {:.1} -> {:.1}",
        cascade.failure_rate_at_repair,
        cascade.failure_rate_final
    );
    // The trail is complete enough to reconstruct the sequence.
    for needle in ["AlertRaised", "Escalated", "Applied", "ValidationPassed"] {
        assert!(
            cascade.trace.control_trail.contains(needle),
            "decision trail missing {needle}:\n{}",
            cascade.trace.control_trail
        );
    }
    assert_eq!(cascade.trace.notifications.len() as u64, s.applied);

    // --- partition: degrade, hold, resume ----------------------------
    let part = partition_degradation_scenario(13).expect("audit must certify");
    let dir = dump("partition", &part.trace);
    pin("partition", &part.trace);
    assert_eq!(
        part.applied_during_partition, 0,
        "actuated on a partial fleet view"
    );
    assert!(part.applied_after_heal >= 1, "never resumed after heal");
    assert_eq!(
        part.trace.notifications.len() as u64,
        part.trace.summary.applied
    );
    assert_eq!(
        part.stale_served_as_fresh, 0,
        "a dark node was read as fresh"
    );
    assert!(part.degraded_ticks >= 3, "coverage never degraded");
    assert!(part.trace.degraded_observations > 0);
    assert!(
        transitions_into(&part.trace, NodeLiveness::Stale) >= 2,
        "health ladder not walked"
    );
    assert!(
        transitions_into(&part.trace, NodeLiveness::Live) >= 2,
        "nodes never recovered"
    );

    let (_, pinned) = work_dir();
    if !pinned {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn power_cap_trail_is_pinned() {
    let power = power_cap_scenario(7).expect("audit must certify");
    let dir = dump("power_cap", &power.trace);
    pin("power_cap", &power.trace);
    assert_eq!(
        power.trace.notifications.len() as u64,
        power.trace.summary.applied
    );
    let (_, pinned) = work_dir();
    if !pinned {
        let _ = std::fs::remove_dir_all(dir);
    }
}
