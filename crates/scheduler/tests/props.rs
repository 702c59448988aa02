//! Property tests for the batch-scheduler substrate.
//!
//! A randomized campaign driver submits arbitrary job mixes, runs the
//! scheduler's event loop to completion, injects random extension
//! requests, and checks the global invariants the scheduler promises:
//! node conservation, walltime enforcement, per-job extension caps, and
//! reservation protection (the §III.iv trust control).

use moda_scheduler::{ExtensionPolicy, JobId, JobRequest, JobState, Scheduler, SchedulerConfig};
use moda_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct SpecJob {
    nodes: u32,
    walltime_s: u64,
    actual_s: u64,
    submit_s: u64,
    /// Whether the driver fires an extension request mid-run.
    asks_extension: bool,
}

fn spec_job() -> impl Strategy<Value = SpecJob> {
    (
        1u32..16,
        60u64..4000,
        60u64..5000,
        0u64..2000,
        any::<bool>(),
    )
        .prop_map(
            |(nodes, walltime_s, actual_s, submit_s, asks_extension)| SpecJob {
                nodes,
                walltime_s,
                actual_s,
                submit_s,
                asks_extension,
            },
        )
}

/// Drive a random campaign to completion, checking stepwise invariants.
/// Returns the scheduler for post-hoc assertions.
fn drive(
    jobs: &[SpecJob],
    policy: ExtensionPolicy,
    total_nodes: u32,
) -> Result<Scheduler, TestCaseError> {
    let mut s = Scheduler::new(SchedulerConfig {
        total_nodes,
        policy,
    });
    // Submission events.
    let mut submissions: Vec<(u64, JobRequest)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            (
                j.submit_s,
                JobRequest {
                    id: JobId(i as u64),
                    user: format!("u{}", i % 3),
                    app_class: "p".into(),
                    submit: SimTime::from_secs(j.submit_s),
                    nodes: j.nodes.min(total_nodes),
                    walltime: SimDuration::from_secs(j.walltime_s),
                },
            )
        })
        .collect();
    submissions.sort_by_key(|(t, r)| (*t, r.id.0));

    let mut finish_at: HashMap<JobId, SimTime> = HashMap::new();
    let mut asked: HashMap<JobId, bool> = HashMap::new();
    let mut t = SimTime::ZERO;
    let mut guard = 0usize;
    loop {
        guard += 1;
        prop_assert!(guard < 100_000, "driver did not converge");

        // Process arrivals due now.
        while let Some((ts, _)) = submissions.first() {
            if SimTime::from_secs(*ts) > t {
                break;
            }
            let (_, req) = submissions.remove(0);
            s.submit(t, req, false);
        }
        // Enforce walltimes, then schedule.
        for id in s.kill_expired(t) {
            finish_at.remove(&id);
        }
        for id in s.schedule(t) {
            let spec = &jobs[id.0 as usize];
            let start = s.job(id).unwrap().start.unwrap();
            finish_at.insert(id, start + SimDuration::from_secs(spec.actual_s));
        }
        // Natural completions due now.
        let done: Vec<JobId> = finish_at
            .iter()
            .filter(|(_, &end)| end <= t)
            .map(|(&id, _)| id)
            .collect();
        for id in done {
            // The job may have been killed at its limit first.
            if s.job(id).unwrap().state == JobState::Running {
                s.finish(t, id);
            }
            finish_at.remove(&id);
        }
        // Mid-run extension requests (roughly half-way through).
        let running: Vec<JobId> = s.running_ids().to_vec();
        for id in running {
            let spec = &jobs[id.0 as usize];
            if spec.asks_extension && !asked.get(&id).copied().unwrap_or(false) {
                asked.insert(id, true);
                let _ = s.request_extension(t, id, SimDuration::from_secs(spec.actual_s / 2));
            }
        }

        // ---- stepwise invariants ----
        // Node conservation.
        let in_use: u32 = s
            .running_ids()
            .iter()
            .map(|id| s.job(*id).unwrap().req.nodes)
            .sum();
        prop_assert_eq!(in_use + s.free_nodes(), total_nodes, "node leak at {:?}", t);
        // No running job past its (possibly extended) limit beyond one step.
        for id in s.running_ids() {
            let j = s.job(*id).unwrap();
            prop_assert!(
                j.limit_end.unwrap() + SimDuration::from_secs(1) >= t,
                "job {} overran its limit",
                j.req.id
            );
        }

        // ---- advance time ----
        let mut next: Option<SimTime> = None;
        let mut consider = |cand: Option<SimTime>| {
            if let Some(c) = cand {
                next = Some(next.map_or(c, |n: SimTime| n.min(c)));
            }
        };
        consider(submissions.first().map(|(ts, _)| SimTime::from_secs(*ts)));
        consider(finish_at.values().min().copied());
        consider(s.next_deadline());
        match next {
            Some(n) => t = n.max(t + SimDuration(1)),
            None => break,
        }
    }
    Ok(s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Full random campaigns terminate with every job in a terminal
    /// state, no node leaks, and per-job extension caps honored.
    #[test]
    fn random_campaigns_respect_invariants(jobs in prop::collection::vec(spec_job(), 1..25)) {
        let policy = ExtensionPolicy::default();
        let s = drive(&jobs, policy, 32)?;
        let mut terminal = 0;
        for (i, spec) in jobs.iter().enumerate() {
            let j = s.job(JobId(i as u64)).expect("job exists");
            prop_assert!(j.state.is_terminal(), "{} not terminal: {:?}", j.req.id, j.state);
            terminal += 1;
            // §III.iv caps.
            prop_assert!(j.extensions <= policy.max_extensions_per_job);
            prop_assert!(j.extended_total <= policy.max_total_extension);
            // Jobs whose request covered their work must complete.
            if spec.actual_s + 1 < spec.walltime_s {
                prop_assert_eq!(
                    j.state,
                    JobState::Completed,
                    "well-requested job {} should finish", j.req.id
                );
            }
            // Completed jobs ran within limit; timed-out jobs died at it.
            if j.state == JobState::TimedOut {
                prop_assert_eq!(j.end.unwrap(), j.limit_end.unwrap());
            }
        }
        prop_assert_eq!(terminal, jobs.len());
        // All nodes free at the end.
        prop_assert_eq!(s.free_nodes(), 32);
        // Accounting sanity.
        let a = s.accounting();
        prop_assert!(a.utilization() <= 1.0 + 1e-9);
    }

    /// With `respect_reservation`, the head job's reservation is never
    /// delayed by extensions (the reservation-delay meter stays zero).
    #[test]
    fn protected_reservations_never_delayed(jobs in prop::collection::vec(spec_job(), 1..25)) {
        let s = drive(&jobs, ExtensionPolicy::default(), 16)?;
        prop_assert_eq!(s.accounting().reservation_delay_ms, 0);
    }

    /// Denial accounting matches: every request is granted, partial, or
    /// denied — and the counters add up.
    #[test]
    fn extension_accounting_adds_up(jobs in prop::collection::vec(spec_job(), 1..25)) {
        let s = drive(&jobs, ExtensionPolicy::default(), 32)?;
        let a = s.accounting();
        let granted_time: u64 = {
            let mut sum = SimDuration::ZERO;
            for (i, _) in jobs.iter().enumerate() {
                sum += s.job(JobId(i as u64)).unwrap().extended_total;
            }
            sum.0
        };
        prop_assert_eq!(a.ext_time_granted_ms, granted_time);
        // Each granting event granted some time; each denial none.
        if a.ext_granted + a.ext_partial == 0 {
            prop_assert_eq!(a.ext_time_granted_ms, 0);
        }
    }

    /// FCFS fairness floor: with no extensions in play, a job can never
    /// start before an earlier-submitted job *of equal or smaller size*
    /// (equal-size jobs are interchangeable to backfill, so any
    /// overtaking among them would be a scheduler bug).
    #[test]
    fn no_overtaking_among_equal_jobs(
        mut jobs in prop::collection::vec(spec_job(), 2..20),
        nodes in 1u32..8,
        wall in 100u64..2000,
    ) {
        for j in jobs.iter_mut() {
            j.nodes = nodes;
            j.walltime_s = wall;
            j.actual_s = wall.saturating_sub(10).max(1);
            j.asks_extension = false;
        }
        let s = drive(&jobs, ExtensionPolicy::default(), 16)?;
        // Equal jobs must start in submit order (ties broken by id).
        let mut order: Vec<(SimTime, u64, SimTime)> = (0..jobs.len() as u64)
            .filter_map(|i| {
                let j = s.job(JobId(i)).unwrap();
                j.start.map(|st| (j.req.submit, i, st))
            })
            .collect();
        order.sort();
        for w in order.windows(2) {
            prop_assert!(
                w[0].2 <= w[1].2,
                "job {} (submitted earlier) started after job {}",
                w[0].1,
                w[1].1
            );
        }
    }
}
