//! Incremental batched dataset export — the Knowledge layer's way out
//! of the node.
//!
//! The paper commits to releasing "exploratory datasets used to gain
//! insight into the variation of progress markers and run-time
//! variation" (§III.iii), and deployed ODA stacks (DCDB Wintermute,
//! LDMS, Examon) are built around a **continuous**
//! collection→transport→storage pipeline, not one-shot dumps. This
//! module is that pipeline's node side: an [`Exporter`] holds
//! per-metric watermark cursors, copies each metric's pending data out
//! of a borrowed [`Tsdb`](crate::Tsdb), and emits size-bounded
//! [`ExportBatch`]es through a [`Sink`]. Re-draining after
//! new inserts ships **exactly the delta**; replaying every batch
//! downstream reconstructs the exported raw, rollup, and sketch state
//! (see [`ReplayStore`](crate::ReplayStore) and the property tests in
//! `tests/props.rs`).
//!
//! The module is split by concern: this file holds the stream model
//! (records, batches, the [`Sink`] trait, [`DrainStats`]), `exporter`
//! the cursors and the drain loop, `sinks` the two in-tree sinks. The
//! **byte-level encoding** of the stream — the one normative
//! rendering — lives in [`crate::wire`]; CSV ([`CsvSink`]) is the one
//! human-readable rendering, for datasets and debugging.
//!
//! # Record kinds
//!
//! A batch carries these record kinds (the full field-level wire spec
//! lives in `docs/EXPORT_FORMAT.md`):
//!
//! * [`ExportRecord::Meta`] — one per metric, emitted before any of the
//!   metric's data the first time an exporter touches it: numeric wire
//!   id plus name/kind/unit/domain, so the receiver can rebuild the
//!   registry.
//! * [`ExportRecord::Sample`] — one raw `(t, value)` observation,
//!   copied straight from the ring's
//!   [`SampleView`](crate::series::SampleView) slices. Short-horizon
//!   ground truth. (On the binary wire a run of consecutive samples
//!   travels as one packed `samples` record and is expanded back on
//!   decode — a codec matter, invisible here.)
//! * [`ExportRecord::Chunk`] — one whole sealed compressed block of raw
//!   samples, shipped as its already-encoded bytes.
//! * [`ExportRecord::Bucket`] — one **sealed** rollup bucket
//!   (`res`, `start`, count/sum/min/max/last): the long-horizon wire
//!   unit. Sealed buckets are immutable, so each is shipped exactly
//!   once and the stream stays append-only.
//! * [`ExportRecord::Sketch`] — one sparse quantile-sketch column
//!   `(sign, key, count)` of a sealed bucket
//!   ([`SketchEntry`]). Counts are additive
//!   per `(sign, key)`, so a downstream store can merge **fleet-wide
//!   percentiles** without ever seeing raw samples — the sketch-merge
//!   contract.
//!
//! # Cursors and delta semantics
//!
//! Per metric the exporter remembers how many lifetime raw appends it
//! has shipped (robust against duplicate timestamps) and, per rollup
//! tier, the slot-start watermark below which every sealed bucket has
//! been shipped. A drain therefore emits each accepted sample and each
//! sealed bucket **exactly once** across any number of calls. When
//! retention outruns the drain cadence, the gap is counted rather than
//! silently skipped — evicted raw samples in
//! [`DrainStats::missed_samples`], evicted sealed buckets in
//! [`DrainStats::missed_buckets`] — so operators can tell transport
//! lag from telemetry gaps. Cursor advances commit only when their
//! batch reaches the sink: a sink error rolls the cursors back to the
//! last delivered batch and the next drain re-stages the rest.
//!
//! # Example
//!
//! ```
//! use moda_sim::SimTime;
//! use moda_telemetry::export::{Exporter, MemorySink};
//! use moda_telemetry::{MetricMeta, ReplayStore, SourceDomain, Tsdb};
//!
//! let mut db = Tsdb::new();
//! let id = db.register(MetricMeta::gauge("node.0.power", "W", SourceDomain::Hardware));
//! for s in 0..50u64 {
//!     db.insert(id, SimTime::from_secs(s), s as f64);
//! }
//!
//! let mut exporter = Exporter::new();
//! let mut sink = MemorySink::new();
//! let stats = exporter.drain(&db, &mut sink).unwrap();
//! assert_eq!(stats.samples, 50);
//! let first = sink.record_count(); // 50 samples + 1 meta
//!
//! // The next drain ships exactly what arrived since the cursor.
//! for s in 50..55u64 {
//!     db.insert(id, SimTime::from_secs(s), s as f64);
//! }
//! let stats = exporter.drain(&db, &mut sink).unwrap();
//! assert_eq!(stats.samples, 5);
//! assert_eq!(sink.record_count(), first + 5);
//!
//! // Replaying every batch reconstructs the exported state downstream.
//! let mut replay = ReplayStore::new();
//! for batch in &sink.batches {
//!     replay.apply(batch);
//! }
//! assert_eq!(replay.samples(id).len(), 55);
//! assert_eq!(replay.meta(id).unwrap().name, "node.0.power");
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
//! use moda_telemetry::export::{encode_batch, ExportBatch, ExportRecord, MemorySink, Sink};
//! #[allow(unused_imports)]
//! use moda_telemetry::{
//!     DrainStats, Exporter, MetricId, MetricMeta, RollupConfig, SourceDomain, Tsdb, WindowAgg,
//! };
//! ```

mod exporter;
mod sinks;

pub use exporter::Exporter;
pub use sinks::{snapshot_csv, CsvSink, MemorySink};
// `pipeline_bench` is frozen and imports `export::encode_batch`; code in
// this repository imports the codec from `wire` directly.
pub use crate::wire::encode_batch;

use crate::chunk::Chunk;
use crate::metric::{MetricId, MetricMeta};
use crate::sketch::SketchEntry;
use moda_sim::{SimDuration, SimTime};
use std::io;

/// Default record-count bound per [`ExportBatch`].
pub const DEFAULT_BATCH_RECORDS: usize = 4096;

/// The most records one batch may hold. A packed `samples` record
/// turns a byte on the wire into a whole [`ExportRecord`] in memory, so
/// the decoder (`wire::decode_batch`) refuses a batch that expands past
/// this — a maximal frame of one-byte samples cannot become gigabytes —
/// and [`Exporter::with_batch_records`] clamps to it, so no exporter
/// can stage a batch its receiver would refuse.
pub const MAX_BATCH_RECORDS: usize = 1 << 20;

/// Stream-format version emitted in the CSV preamble.
pub const WIRE_VERSION: u32 = 1;

/// One export record — see the module docs for the kinds and
/// `docs/EXPORT_FORMAT.md` for the encoded fields.
#[derive(Debug, Clone, PartialEq)]
pub enum ExportRecord {
    /// Metric registry entry; precedes all data of `id` in the stream.
    Meta {
        /// Numeric wire id (stable within one export stream).
        id: MetricId,
        /// Name, kind, unit, and source domain.
        meta: MetricMeta,
    },
    /// One raw observation.
    Sample {
        /// Metric the sample belongs to.
        id: MetricId,
        /// Observation timestamp.
        t: SimTime,
        /// Observed value.
        value: f64,
    },
    /// One sealed rollup bucket (scalar aggregate state).
    Bucket {
        /// Metric the bucket belongs to.
        id: MetricId,
        /// Tier resolution (bucket width).
        res: SimDuration,
        /// Aligned slot start.
        start: SimTime,
        /// Samples folded into the slot.
        count: u64,
        /// Sum of folded values.
        sum: f64,
        /// Minimum folded value.
        min: f64,
        /// Maximum folded value.
        max: f64,
        /// Newest folded value.
        last: f64,
    },
    /// One sparse quantile-sketch column of a sealed bucket. Emitted
    /// immediately after the bucket's [`ExportRecord::Bucket`] record.
    Sketch {
        /// Metric the bucket belongs to.
        id: MetricId,
        /// Tier resolution of the owning bucket.
        res: SimDuration,
        /// Slot start of the owning bucket.
        start: SimTime,
        /// The `(sign, key, count)` column.
        entry: SketchEntry,
    },
    /// One whole sealed compressed chunk of raw samples (wire spec
    /// revision 1.1, an additive record kind): `count` observations in
    /// the [`crate::chunk`] Gorilla bitstream, equivalent to — and
    /// bit-exactly interchangeable with — `count` consecutive
    /// [`ExportRecord::Sample`] records. `first_t` seeds the
    /// delta-of-delta decoder (the first timestamp is *not* in the
    /// bitstream); `last_t` lets receivers track high-water marks
    /// without decoding.
    Chunk {
        /// Metric the samples belong to.
        id: MetricId,
        /// Encoded sample count.
        count: u32,
        /// Timestamp of the first encoded sample.
        first_t: SimTime,
        /// Timestamp of the last encoded sample.
        last_t: SimTime,
        /// The Gorilla-compressed payload.
        bytes: Vec<u8>,
    },
}

impl ExportRecord {
    /// The `chunk` record that ships `c` whole for metric `id`: its
    /// header fields and a copy of its compressed bytes.
    pub fn chunk(id: MetricId, c: &Chunk) -> ExportRecord {
        ExportRecord::Chunk {
            id,
            count: c.count(),
            first_t: SimTime(c.first_t()),
            last_t: SimTime(c.last_t()),
            bytes: c.bytes().to_vec(),
        }
    }
}

/// A size-bounded unit of transport: at most the exporter's configured
/// record count (see [`Exporter::with_batch_records`]), except that a
/// bucket and its sketch columns are never split across batches — a
/// batch may therefore run over by one bucket's entries.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportBatch {
    /// Monotonic batch sequence number within one exporter's stream.
    pub seq: u64,
    /// The records, grouped by metric, metas before data.
    pub records: Vec<ExportRecord>,
}

/// Where batches go: a file, a socket, memory, a transport stage.
/// Implementations must treat each call as one atomic transport unit —
/// the exporter never re-sends a batch.
pub trait Sink {
    /// Consume one batch.
    fn write_batch(&mut self, batch: &ExportBatch) -> io::Result<()>;
}

/// Counters for one [`Exporter::drain`] call (and, summed, for an
/// exporter's lifetime — [`Exporter::totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Batches flushed to the sink.
    pub batches: u64,
    /// Total records across those batches.
    pub records: u64,
    /// Raw samples shipped — per-sample records plus the samples
    /// carried inside compressed-chunk records, so the count is
    /// transport-shape-independent.
    pub samples: u64,
    /// Compressed-chunk records (each carrying many samples).
    pub chunks: u64,
    /// Sealed-bucket records.
    pub buckets: u64,
    /// Sketch-column records.
    pub sketch_entries: u64,
    /// Metric metadata records.
    pub metas: u64,
    /// Accepted raw samples the ring evicted before they could be
    /// exported (the drain cadence was slower than retention).
    pub missed_samples: u64,
    /// Sealed rollup buckets their ring evicted before they could be
    /// exported — the long-horizon analogue of
    /// [`DrainStats::missed_samples`], exact via each ring's lifetime
    /// eviction counter. A downstream store seeing a hole in the bucket
    /// stream can tell "export fell behind retention" (non-zero here)
    /// apart from a plain telemetry gap.
    pub missed_buckets: u64,
    /// Total time spent copying out of the store, ns: the sum of the
    /// drain's uninterrupted copy-out spans — start of drain to the
    /// first sink write, between consecutive sink writes, last sink
    /// write to the end of the walk. Sink time is excluded. (The name
    /// is the wire field's; the store is borrowed, not locked.)
    pub lock_held_ns: u64,
    /// Longest single such span, ns — how long one batch's worth of
    /// copy-out kept the store's owner from its next sweep. Equal to
    /// [`DrainStats::lock_held_ns`] for a drain that fit one batch.
    pub max_lock_held_ns: u64,
    /// Transport-level redelivery work behind these drains: reconnect
    /// dials plus batches re-sent from a retrying sink's replay buffer.
    /// Zero for in-process sinks; a socket sink folds its own counters
    /// in when it ships the stats (`moda-fleet`'s `SocketSink`), so the
    /// fleet health view shows how hard the wire worked, not just what
    /// arrived.
    pub send_retries: u64,
}

impl DrainStats {
    /// Whether the drain shipped nothing and missed nothing — i.e. the
    /// store held no data the cursors hadn't already covered. (Copy-out
    /// timings may still be non-zero: finding nothing still peeks.)
    pub fn is_empty(&self) -> bool {
        self.records == 0
            && self.batches == 0
            && self.missed_samples == 0
            && self.missed_buckets == 0
    }

    /// Fold another stats block into this one (maxes take the max,
    /// everything else adds).
    pub fn merge(&mut self, other: &DrainStats) {
        self.batches += other.batches;
        self.records += other.records;
        self.merge_payload(other);
        self.lock_held_ns += other.lock_held_ns;
        self.max_lock_held_ns = self.max_lock_held_ns.max(other.max_lock_held_ns);
    }

    /// Close one uninterrupted copy-out span of `ns`.
    pub(super) fn note_copy_out(&mut self, ns: u64) {
        self.lock_held_ns += ns;
        self.max_lock_held_ns = self.max_lock_held_ns.max(ns);
    }

    /// Fold only the per-kind payload counters (the part staged during
    /// copy-out and committed when its batch reaches the sink).
    pub(super) fn merge_payload(&mut self, other: &DrainStats) {
        self.samples += other.samples;
        self.chunks += other.chunks;
        self.buckets += other.buckets;
        self.sketch_entries += other.sketch_entries;
        self.metas += other.metas;
        self.missed_samples += other.missed_samples;
        self.missed_buckets += other.missed_buckets;
        self.send_retries += other.send_retries;
    }
}
