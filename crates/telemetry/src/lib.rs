//! # moda-telemetry
//!
//! Holistic monitoring substrate — the "Monitor" half of Fig. 1 in the
//! paper: continuous collection of metrics from **building infrastructure,
//! system hardware, system software, and applications** into one store
//! that the operational-data-analytics layer queries.
//!
//! Production sites run LDMS, DCDB, Examon, or Prometheus for this role;
//! the loops only need a narrow interface (register metric → append
//! samples → query windows), which this crate implements natively:
//!
//! * [`metric`] — metric identities, kinds, units, and source domains,
//! * [`series`] — bounded **struct-of-arrays** time series: a
//!   write-hot uncompressed tail plus sealed Gorilla-compressed chunks
//!   ([`chunk`]), queries answered by `partition_point` binary search
//!   as [`SampleView`]s (decoded-chunk scratch segment + borrowed tail
//!   slices) in O(log n + k) — tail-only windows stay zero-allocation,
//! * [`chunk`] — the sealed-block codec: delta-of-delta timestamps +
//!   XOR-compressed values (the Gorilla TSDB layout), bit-exact round
//!   trip at ~2–3 bytes/sample on smooth 1 Hz telemetry,
//! * [`tsdb`] — the in-memory store: registry + series + retention +
//!   allocation-free aggregate queries (`window_agg`, `latest_n_agg`,
//!   streaming `resample_into`) + insert-rate accounting (the §IV design
//!   consideration). A [`Tsdb`] has one owner: `&mut` writes, no
//!   locks, and `&self` reads that lend its series,
//! * [`rollup`] — the continuous downsampling tier (Knowledge-layer
//!   retention): per-metric 1m/1h count/sum/min/max/last bucket rings
//!   folded incrementally on insert, and the query planner that serves
//!   wide `window_agg`/`resample_into` spans from sealed buckets,
//!   splicing raw samples only at ragged edges and the unsealed tail.
//!   `Percentile` is served the same way on sketched pyramids
//!   ([`RollupConfig::with_sketches`], the opt-in policy knob): sealed
//!   buckets embed mergeable quantile sketches, cascaded 1m→1h on seal,
//!   so a day-wide p99 is O(window/res) sketch merges within a 1 %
//!   relative-error bound instead of an O(window) raw selection —
//!   sketch-free pyramids (e.g. compact per-job ones) keep the exact
//!   raw fallback,
//! * [`sketch`] — the mergeable DDSketch-style [`QuantileSketch`] behind
//!   those percentile rollups (fixed 1 % relative-error log buckets,
//!   exact counts, linear-time merge),
//! * [`collect`] — sensor traits and the periodic collector: one batch
//!   insert per due sweep,
//! * [`window`] — windowed aggregation used by Analyze components,
//!   including the O(n) selection-based percentile and the streaming
//!   [`AggAccum`] bucket folder,
//! * [`export`] — the incremental batched export pipeline (the paper
//!   commits to releasing *open datasets*, and production ODA transports
//!   continuously): an [`Exporter`] with per-metric watermark cursors
//!   drains raw samples, compressed chunks, sealed rollup buckets, and
//!   sparse sketch columns as size-bounded [`ExportBatch`]es through a
//!   [`Sink`], out of a store borrowed for the whole drain,
//! * [`wire`] — the **one** byte-level encoding of that stream
//!   (`export-wire-v1.6`): the LE/varint put helpers and the
//!   bounds-checked reader, the record/batch/drain-stats codec, and the
//!   CRC-framed envelope every socket, write-ahead log, and snapshot in
//!   `moda-fleet` is written in. Binary is normative; CSV
//!   ([`export::CsvSink`]) is the one human-readable rendering. The
//!   format is specified in `docs/EXPORT_FORMAT.md`,
//! * [`tiers`] — the shared receiving half: [`WireTiers`] rebuilds
//!   **wire-fed rollup pyramids** from sealed buckets and sketch
//!   columns — planner-ready, every absorbed bucket sealed — behind
//!   both [`ReplayStore`] ([`replay`], the reference the export≡replay
//!   property tests compare against) and the fleet aggregation tier
//!   (`moda-fleet`).
//!
//! # Hot-path discipline
//!
//! Monitor/Analyze components run once per loop tick per managed system;
//! at production cardinality the read path dominates online-ODA cost.
//! The crate therefore keeps one rule: **scalar questions get scalar
//! answers** — anything that folds a window to a number goes through
//! views and [`WindowAgg`] folds, never through an owned `Vec<Sample>`;
//! a caller that does want owned samples says so at the call site with
//! [`SampleView::to_vec`].

pub mod chunk;
pub mod collect;
pub mod export;
pub mod metric;
pub mod replay;
pub mod rollup;
pub mod series;
pub mod sketch;
pub mod tiers;
pub mod tsdb;
pub mod window;
pub mod wire;

pub use collect::{Collector, Sensor};
pub use export::{DrainStats, ExportBatch, ExportRecord, Exporter, Sink};
pub use metric::{
    is_self_metric, InsertError, MetricId, MetricKind, MetricMeta, RegisterError, SourceDomain,
    SELF_NAMESPACE,
};
pub use replay::ReplayStore;
pub use rollup::{
    fold_span_into, RollupAcc, RollupBucket, RollupConfig, RollupRing, RollupServed, RollupSet,
    RollupTier, SketchAcc, SpanFold,
};
pub use series::{Sample, SampleView, TimeSeries};
pub use sketch::{QuantileAcc, QuantileSketch, SketchEntry, SKETCH_RELATIVE_ERROR};
pub use tiers::WireTiers;
pub use tsdb::{MemoryStats, Tsdb};
pub use window::{AggAccum, WindowAgg};
