//! # moda-obs
//!
//! Self-telemetry for the pipeline: the monitoring system monitored by
//! its own TSDB. The production-ODA experience this reproduction
//! follows (DCDB Wintermute, the LRZ pipeline) treats per-stage
//! overhead and pipeline-health metrics as prerequisites for running
//! ODA against a real machine — so this crate dogfoods the stack: every
//! hot stage records into an [`ObsRegistry`], and a periodic *scrape*
//! writes that registry into a reserved `__self/` metric namespace of a
//! regular [`moda_telemetry::Tsdb`], from where the self-metrics flow through rollups, sketches, export,
//! fleet aggregation, and the remote query protocol **like any other
//! series** — `fleet_service query … agg __self/wal.fsync_ns … p0.99`
//! answers "p99 WAL fsync latency across the fleet" with zero new wire
//! kinds.
//!
//! The pieces:
//!
//! * [`Obs`] — the cheap-clone handle components hold. A **disabled**
//!   handle (the default) is a `None`: every instrument resolved from
//!   it is inert, every record is a single predictable branch, and the
//!   registry is provably untouched (asserted by tests, bench-gated to
//!   ≤ 10 % overhead on the instrumented insert path).
//! * [`Counter`] / [`Gauge`] — relaxed-atomic instruments, pre-resolved
//!   once (`obs.counter("wal.appends")`) and then recorded with no
//!   name lookup on the hot path.
//! * [`LatencyRecorder`] + [`SpanGuard`] — RAII spans:
//!   `recorder.start()` stamps, the drop records the duration into
//!   atomic count/sum/max, a lifetime [`moda_telemetry::QuantileSketch`]
//!   (mergeable p99s for free), a bounded pending buffer the next
//!   scrape drains into the TSDB as raw nanosecond samples, and the
//!   top-k [slow-op log](SlowOp) for postmortems. Nesting depth is
//!   tracked per thread and stored on the slow-op entry.
//! * [`ObsRegistry::scrape_into`] — write every instrument into the
//!   `__self/` namespace of a [`moda_telemetry::Tsdb`] at one timestamp.
//!   The scrape is the namespace's **only writer**: user registration
//!   and inserts into `__self/*` are refused by the store with a typed
//!   error ([`moda_telemetry::RegisterError`]).
//! * [`scrape::write_reading`] — the scrape's writer of one counter or
//!   gauge sample, for a count a component keeps itself and hands over
//!   at scrape time instead of mirroring it into a registry counter.
//!
//! Metric names, the span taxonomy, and scrape cadence semantics are
//! documented in `docs/OBSERVABILITY.md`.
//!
//! # Example
//!
//! ```
//! use moda_obs::Obs;
//! use moda_sim::SimTime;
//! use moda_telemetry::{Tsdb, WindowAgg};
//!
//! let obs = Obs::enabled();
//! let appends = obs.counter("wal.appends");
//! let fsync = obs.latency("wal.fsync_ns");
//! for _ in 0..100 {
//!     let _span = fsync.start();
//!     appends.add(1);
//! }
//! // Scrape the registry into a reserved namespace of a normal store.
//! let mut db = Tsdb::new();
//! obs.scrape_into(&mut db, SimTime::from_secs(1));
//! let id = db.lookup("__self/wal.appends").unwrap();
//! assert_eq!(db.latest_value(id), Some(100.0));
//! // The span durations landed as raw ns samples with sketched rollups.
//! let lat = db.lookup("__self/wal.fsync_ns").unwrap();
//! let n = db
//!     .window_agg(lat, SimTime::from_secs(1), moda_sim::SimDuration::from_secs(10), WindowAgg::Count)
//!     .unwrap();
//! assert_eq!(n, 100.0);
//! // A user writing into the namespace is refused with a typed error.
//! use moda_telemetry::{MetricMeta, SourceDomain};
//! let meta = MetricMeta::gauge("__self/forged", "ns", SourceDomain::Software);
//! assert!(db.try_register(meta).is_err());
//! ```

pub mod registry;
pub mod scrape;
pub mod span;

pub use registry::{Counter, Gauge, LatencyRecorder, LatencySnapshot, Obs, ObsRegistry};
pub use span::{SlowOp, SpanGuard, SLOW_OP_CAPACITY};

/// Record an RAII span on an [`Obs`] handle by name, resolving the
/// recorder through the registry: `let _s = span!(obs, "export.drain");`.
///
/// Resolution takes the registry lock, so hot paths should pre-resolve
/// a [`LatencyRecorder`] once and call [`LatencyRecorder::start`]
/// instead; the macro is the ergonomic form for cold/occasional spans.
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr) => {
        $obs.latency($name).start()
    };
}
