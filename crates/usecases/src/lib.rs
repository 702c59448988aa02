//! # moda-usecases
//!
//! The paper's five production use cases (§III), each wired as a MAPE-K
//! autonomy loop over the simulated HPC center:
//!
//! | Module | Paper case | Loop in one sentence |
//! |---|---|---|
//! | [`scheduler_case`] | 5, the initial case (Fig. 3) | forecast job completion from progress markers, negotiate walltime extensions (and checkpoint as fallback) before the limit kills the job |
//! | [`maintenance`] | 1 | checkpoint running jobs just before a maintenance outage so their resubmissions resume instead of restarting |
//! | [`io_qos`] | 2 | retune per-tenant QoS token rates from observed tail latency and bandwidth demand |
//! | [`ost`] | 3 | detect a degraded OST from observed write bandwidth (CUSUM) and reopen files avoiding it |
//! | [`misconfig`] | 4 | detect misconfigured jobs and either inform the user (notification) or correct on the fly |
//! | [`resilience`] | §IV resilience extension | proactively checkpoint on a cadence (Young-optimal given the observed MTBF) so node failures cost bounded rework |
//! | [`fleet_control`] | §II center-level tier | fleet monitors over merged sketches feed a guarded responder that actuates canary-first into the cluster, chaos-tested for graceful degradation |
//!
//! [`harness`] holds the shared campaign driver that interleaves
//! discrete-event world execution with loop ticks, plus the
//! campaign-level statistics every experiment reports (§III.iv–v
//! validation and incentive metrics).

pub mod fleet_control;
pub mod harness;
pub mod io_qos;
pub mod maintenance;
pub mod misconfig;
pub mod ost;
pub mod resilience;
pub mod scheduler_case;

pub use fleet_control::{
    cascading_failure_scenario, partition_degradation_scenario, power_cap_scenario, CascadeReport,
    ClusterControlDriver, ControlTrace, FleetAnomalyMonitor, ForecastBreachMonitor,
    PartitionReport, PowerCapReport, TickTrace,
};
pub use harness::{drive, CampaignStats, SharedWorld};
