//! # moda — Autonomy loops for MODA in HPC operations
//!
//! Facade crate re-exporting the full `moda` stack: a reproduction of
//! *"Autonomy Loops for Monitoring, Operational Data Analytics, Feedback,
//! and Response in HPC Operations"* (CLUSTER 2023).
//!
//! The stack layers, bottom-up:
//!
//! * [`sim`] — deterministic discrete-event simulation engine,
//! * [`telemetry`] — holistic monitoring substrate (metrics, TSDB,
//!   rollup/sketch tiers, the incremental export pipeline, and `wire`,
//!   the one byte-level encoding every transport, log, and snapshot
//!   above it is written in),
//! * [`obs`] — self-telemetry: the pipeline instrumented with its own
//!   TSDB (counters, RAII latency spans, a bounded slow-op log, and the
//!   reserved `__self/` scrape that flows through export, fleet
//!   aggregation, and the remote query wire like any other series),
//! * [`core`] — the MAPE-K autonomy-loop formalism (the paper's contribution),
//! * [`analytics`] — operational data analytics (forecasting, anomaly
//!   detection, similarity, continual learning),
//! * [`scheduler`] — SLURM-like batch scheduler with feedback hooks,
//! * [`pfs`] — Lustre-like parallel filesystem with OSTs and QoS,
//! * [`hpc`] — the simulated HPC center (the *managed system*), plus
//!   the multi-`World` cluster harness,
//! * [`usecases`] — the paper's five production use cases wired as
//!   MAPE-K loops over the simulated center,
//! * [`fleet`] — the fleet aggregation tier: per-node wire ingest over
//!   the export format, a namespaced cluster store with wire-fed
//!   rollup pyramids, additive sketch merge (cluster-wide p99 without
//!   raw data), and per-node liveness/staleness health.
//!
//! `ARCHITECTURE.md` (repository root) maps every crate onto the
//! paper's loop layers — Monitoring → Operational Data Analytics →
//! Feedback → Response — and walks the insert → query → export data
//! path through the telemetry store.
//!
//! # Quickstart
//!
//! Build a cluster, let a loop rescue an under-requested job:
//!
//! ```
//! use moda::hpc::{AppProfile, World, WorldConfig};
//! use moda::scheduler::{JobId, JobRequest};
//! use moda::sim::{SimDuration, SimTime};
//! use moda::usecases::harness::{drive, shared};
//! use moda::usecases::scheduler_case::{build_loop, SchedulerLoopConfig};
//!
//! let world = shared(World::new(WorldConfig {
//!     nodes: 4,
//!     power_period: None,
//!     ..WorldConfig::default()
//! }));
//! // 200 steps × 5 s of real work, but only 600 s of requested walltime:
//! // without the loop this job dies at the limit.
//! world.borrow_mut().submit_campaign(vec![(
//!     JobRequest {
//!         id: JobId(0),
//!         user: "alice".into(),
//!         app_class: "cfd".into(),
//!         submit: SimTime::ZERO,
//!         nodes: 2,
//!         walltime: SimDuration::from_secs(600),
//!     },
//!     AppProfile {
//!         app_class: "cfd".into(),
//!         total_steps: 200,
//!         mean_step_s: 5.0,
//!         step_cv: 0.1,
//!         io_every: 0,
//!         io_mb: 0.0,
//!         stripe: 1,
//!         phase_change: None,
//!         checkpoint_cost_s: 10.0,
//!         misconfig: None,
//!         scale: 1000.0,
//!         cores_per_rank: 8,
//!     },
//! )]);
//! let mut l = build_loop(world.clone(), SchedulerLoopConfig::default());
//! drive(&world, SimDuration::from_secs(30), SimTime::from_hours(4), |t| {
//!     l.tick(t);
//! });
//! assert_eq!(world.borrow().metrics.completed, 1, "the loop negotiated the extension");
//! ```
//!
//! And the monitoring substrate on its own — insert, wide query, export:
//!
//! ```
//! use moda::sim::{SimDuration, SimTime};
//! use moda::telemetry::export::{Exporter, MemorySink};
//! use moda::telemetry::{MetricMeta, RollupConfig, SourceDomain, Tsdb, WindowAgg};
//!
//! let mut db = Tsdb::new();
//! let id = db.register(MetricMeta::gauge("node.0.power_w", "W", SourceDomain::Hardware));
//! db.enable_rollups(id, &RollupConfig::standard().with_sketches());
//! for s in 0..3600u64 {
//!     db.insert(id, SimTime::from_secs(s), 200.0 + (s % 50) as f64);
//! }
//! // Wide queries are served from sealed rollup buckets (p99 via sketches).
//! let now = SimTime::from_secs(3599);
//! let p99 = db.window_agg(id, now, SimDuration::from_hours(1), WindowAgg::Percentile(0.99));
//! assert!(p99.is_some());
//! // The Knowledge layer leaves the node through the incremental exporter.
//! let mut sink = MemorySink::new();
//! let stats = Exporter::new().drain(&db, &mut sink).unwrap();
//! assert_eq!(stats.samples, 3600);
//! assert!(stats.buckets > 0 && stats.sketch_entries > 0);
//! ```
//!
//! # Runnable examples
//!
//! `cargo run --release --example <name>`:
//!
//! * `quickstart` — the ten-line tour above, narrated,
//! * `rollup_analytics` — week-wide aggregates and p99 from the rollup
//!   tier, orders of magnitude past raw scans and raw retention,
//! * `export_pipeline` — the incremental export walkthrough: daily
//!   drains of samples + sealed buckets + sketch columns into a CSV
//!   dataset, replayed into a downstream store (the wire format — one
//!   binary encoding, owned by `telemetry::wire`, with CSV as the
//!   human-readable rendering — is specified in
//!   `docs/EXPORT_FORMAT.md`),
//! * `adaptive_sampling`, `holistic_dashboard`, `pattern_zoo`,
//!   `scheduler_autonomy`, `maintenance_window`, `failure_resilience`,
//!   `ost_failover`, `misconfig_triage` — one per subsystem/use case.

pub use moda_analytics as analytics;
pub use moda_core as core;
pub use moda_fleet as fleet;
pub use moda_hpc as hpc;
pub use moda_obs as obs;
pub use moda_pfs as pfs;
pub use moda_scheduler as scheduler;
pub use moda_sim as sim;
pub use moda_telemetry as telemetry;
pub use moda_usecases as usecases;
