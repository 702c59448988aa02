//! # moda-fleet
//!
//! The **fleet aggregation tier**: the center-level half of the paper's
//! monitoring/ODA stack. The autonomy loops in the paper are
//! fleet-scale — monitoring and operational data analytics span the
//! whole machine, not one node — and deployed ODA stacks (DCDB
//! Wintermute, LRZ's production pipeline) are built around exactly this
//! shape: node-local collection, a wire protocol, and a central
//! aggregation tier that answers holistic queries. This crate is that
//! tier for the `moda` stack:
//!
//! * [`FleetStore`] — the namespaced cluster store. Every node-local
//!   metric lands as `node/name` (one fleet metric per node×name pair)
//!   and simultaneously joins a cross-node **logical axis** keyed by its
//!   node-local name, so "power of node 7" and "power across the fleet"
//!   are both first-class. Per fleet metric it keeps a short raw ring
//!   and a **wire-fed rollup pyramid**
//!   ([`moda_telemetry::WireTiers`]) rebuilt from the export stream's
//!   sealed buckets and sketch columns, so cluster queries run through
//!   the **same rollup planner** as node-local ones
//!   ([`moda_telemetry::rollup::fold_span_into`]) — a fleet-wide p99
//!   over N nodes merges sealed-bucket sketches additively and never
//!   touches raw samples (asserted via the store's hit counters).
//! * [`FleetAggregator`] — per-node [`ingest`](FleetAggregator::ingest)
//!   sessions over wire-format v1
//!   [`ExportBatch`](moda_telemetry::ExportBatch)es: monotonic batch
//!   cursors (duplicate batches rejected, gaps counted), strict
//!   bucket/sketch framing (orphan columns dropped and counted),
//!   node-local→fleet metric-id remapping off `meta` records, and
//!   per-node liveness/staleness + drain-lag health
//!   ([`FleetAggregator::health`]).
//! * [`SocketSink`] → [`FleetListener`] — the transport across threads
//!   and processes: length-prefixed, checksummed, acked frames over TCP
//!   into a [`DurableFleet`] (write-ahead log + snapshots). Within one
//!   thread a caller hands batches to [`DurableFleet::ingest`] (logged,
//!   then applied — as [`SelfScraper`] and `pipeline_bench` do) or, with
//!   no log, to [`FleetAggregator::ingest`] directly. Those are the
//!   only three ways in, and each applies a batch off its wire bytes
//!   ([`moda_telemetry::wire::BatchView`]).
//! * [`query`] + [`FleetClient`] — the serving front end: versioned
//!   request/response query frames over the same socket envelope the
//!   ingest sessions use, answering window aggregates, merged fleet
//!   percentiles, top-k rankings, health, and coverage-annotated
//!   variants **bit-identically** to the in-process planner (pinned by
//!   `tests/query.rs` and the golden exchange in `tests/golden/`).
//!
//! The wire contract this crate consumes — cursor validation,
//! staleness, duplicate-batch rejection — is specified in the
//! "aggregator consumption" section of `docs/EXPORT_FORMAT.md`; the
//! merge algebra (ingest order independence, the fleet percentile's
//! 1 % relative-error bound against the exact pooled order statistic)
//! is pinned by the property tests in `tests/props.rs`.
//!
//! # Example
//!
//! ```
//! use moda_fleet::FleetAggregator;
//! use moda_sim::{SimDuration, SimTime};
//! use moda_telemetry::export::MemorySink;
//! use moda_telemetry::{Exporter, MetricMeta, RollupConfig, SourceDomain, Tsdb, WindowAgg};
//!
//! // Two node-local stores with sketched rollups, exported...
//! let mut agg = FleetAggregator::new();
//! for node in 0..2u64 {
//!     let mut db = Tsdb::with_retention(512);
//!     let id = db.register(MetricMeta::gauge("power_w", "W", SourceDomain::Hardware));
//!     db.enable_rollups(id, &RollupConfig::standard().with_sketches());
//!     for s in 0..7200u64 {
//!         db.insert(id, SimTime::from_secs(s), (100 * (node + 1)) as f64 + (s % 50) as f64);
//!     }
//!     let mut sink = MemorySink::new();
//!     Exporter::new().drain(&db, &mut sink).unwrap();
//!     // ...and ingested into the aggregation tier.
//!     let n = agg.add_node(&format!("node{node:02}"));
//!     for batch in &sink.batches {
//!         agg.ingest(n, batch);
//!     }
//! }
//!
//! // Cluster-wide queries over the logical axis: pooled scalars and a
//! // fleet p99 merged purely from the nodes' sealed-bucket sketches.
//! let store = agg.store();
//! let now = SimTime::from_secs(7199);
//! let hour = SimDuration::from_hours(1);
//! let count = store.fleet_window_agg("power_w", now, hour, WindowAgg::Count).unwrap();
//! assert_eq!(count, 2.0 * 3600.0);
//! let (p99, served) =
//!     store.fleet_window_agg_served("power_w", now, hour, WindowAgg::Percentile(0.99));
//! assert!(served.sketch && served.buckets > 0);
//! assert!((p99.unwrap() - 249.0).abs() < 5.0);
//! ```
//!
//! # The frozen benchmark surface
//!
//! `pipeline_bench` (the package `BENCHMARK.json` runs) is built from
//! its own manifest, outside the workspace, so `cargo test --workspace`
//! never compiles it. It imports exactly these paths from this crate;
//! this doctest fails tier-1 if any of them stops resolving:
//!
//! ```
//! #[allow(unused_imports)]
//! use moda_fleet::query::{
//!     decode_request, decode_response, encode_request, encode_response, execute,
//! };
//! #[allow(unused_imports)]
//! use moda_fleet::{
//!     ActionTarget, Bound, ControlConfig, DurabilityConfig, DurableFleet, FleetActuator,
//!     FleetAggregator, FleetClient, FleetListener, FleetResponder, FleetStore, NodeCounters,
//!     NodeId, QueryRequest, QueryResponse, Rank, RateLimit, ResponseRule, SocketSink,
//!     StragglerMonitor, ThresholdMonitor, TickReport,
//! };
//! ```

pub mod aggregator;
pub mod control;
pub mod persist;
pub mod query;
pub mod selfobs;
pub mod store;
pub mod transport;

pub use aggregator::{
    FleetAggregator, FleetHealth, HealthPolicy, HealthTransition, IngestReport, Ledger,
    NodeCounters, NodeHealth, NodeLiveness,
};
pub use control::{
    ActionTarget, AuditSummary, Bound, ControlConfig, ControlEvent, ControlEventKind, Coverage,
    CoveredValue, FleetActuator, FleetAlert, FleetMonitor, FleetResponder, Observation, RateLimit,
    ResponseRule, StragglerMonitor, ThresholdMonitor, TickReport,
};
pub use persist::{Burst, DurabilityConfig, DurableFleet, RecoveryStats};
pub use query::{
    CoveredTopNodesAnswer, MetricsAnswer, QueryError, QueryErrorCode, QueryRequest, QueryResponse,
    ScalarAnswer, SelfStatAnswer, TopNodeEntry, QUERY_PROTOCOL_VERSION,
};
pub use selfobs::{SelfScrapeTick, SelfScraper, SELF_NODE};
pub use store::{
    ChunkOutcome, FleetMetricInfo, FleetServed, FleetStore, FleetStoreStats, NodeId, Rank,
};
pub use transport::{FleetClient, FleetListener, SocketSink, TransportConfig};
