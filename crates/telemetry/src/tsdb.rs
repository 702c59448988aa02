//! In-memory time-series store: one owner, one storage body.
//!
//! The store is the telemetry backbone of a simulated center: sensors
//! append into it, Monitor components of MAPE-K loops read from it. The
//! design follows the constraints the paper raises in §IV — high insert
//! rates, bounded memory under high metric cardinality, and low-latency
//! recent-window reads — rather than durable storage, which production
//! sites delegate to their archive tier.
//!
//! # One owner
//!
//! A [`Tsdb`] belongs to one collect agent. Writes take `&mut self`: no
//! lock and no atomic read-modify-write on the insert path. Reads take
//! `&self` and lend storage directly (`&TimeSeries`, [`SampleView`],
//! `&RollupSet`), so a borrowed store cannot change under its reader —
//! the exporter's drain relies on exactly that. The store is
//! `Send + Sync`: it can move to another thread or be read from several,
//! but threads that *write* meet at the export wire, not at the store.
//!
//! Every rule has one body: registration (reserved-namespace refusal,
//! the export wire's length limit, idempotence by name, dense id
//! assignment, default capacity and rollup policy) in `register_as`;
//! the reserved-write refusal and push + rollup fold on the private
//! per-metric `Stored`.
//!
//! # Read path
//!
//! All window queries resolve through the struct-of-arrays ring's
//! binary-searched [`SampleView`]s (O(log n + k), zero allocation).
//! The aggregate queries ([`Tsdb::window_agg`], [`Tsdb::latest_n_agg`],
//! [`Tsdb::value_at`], the streaming [`Tsdb::resample_into`]) fold
//! [`WindowAgg`]s directly over those views so a Monitor's hot loop never
//! materializes `Vec<Sample>` just to compute a scalar.

use crate::metric::{
    is_self_metric, InsertError, MetricId, MetricMeta, RegisterError, SELF_NAMESPACE,
};
use crate::rollup::{self, RollupConfig, RollupServed, RollupSet};
use crate::series::{Sample, SampleView, TimeSeries};
use crate::window::{AggAccum, WindowAgg};
use moda_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default per-series retention when none is specified.
pub const DEFAULT_RETENTION: usize = 4096;

/// The panicking registration forms: for a name in the program text a
/// refusal is a programming error.
fn granted(registered: Result<MetricId, RegisterError>) -> MetricId {
    registered.unwrap_or_else(|e| panic!("{e}"))
}

/// A user write aimed at a reserved `__self/` series, rendered as
/// `false` (`insert`, `insert_batch`) or as the typed [`InsertError`]
/// (`try_insert`).
#[derive(Debug)]
struct Reserved;

/// One metric's storage: the raw ring plus its optional rollup pyramid.
/// Accepted appends fold into both; rejected (out-of-order) appends touch
/// neither, so the tiers never disagree about what was stored.
#[derive(Debug)]
struct Stored {
    raw: TimeSeries,
    rollups: Option<RollupSet>,
    /// Series lives in the reserved `__self/` namespace: created by the
    /// obs scrape, writable only through the `insert_self` entry points.
    reserved: bool,
}

impl Stored {
    #[inline]
    fn push(&mut self, t: SimTime, value: f64) -> bool {
        let ok = self.raw.push(t, value);
        if ok {
            if let Some(r) = &mut self.rollups {
                r.fold(t, value);
            }
        }
        ok
    }

    /// A user write: refused on a reserved series, otherwise whether
    /// the sample was accepted.
    #[inline]
    fn insert(&mut self, t: SimTime, value: f64) -> Result<bool, Reserved> {
        if self.reserved {
            return Err(Reserved);
        }
        Ok(self.push(t, value))
    }
}

/// Streaming-resample kernel over a located view.
fn resample_view(
    view: &SampleView<'_>,
    t0: SimTime,
    t1: SimTime,
    period: SimDuration,
    agg: WindowAgg,
    out: &mut Vec<Option<f64>>,
) {
    assert!(period.as_millis() > 0, "resample period must be positive");
    out.clear();
    let nb = (t1.0.saturating_sub(t0.0)).div_ceil(period.0) as usize;
    if nb == 0 {
        return;
    }
    out.reserve(nb);
    let mut acc = AggAccum::new(agg);
    let mut bucket = 0usize;
    for (t, v) in view.timestamps().zip(view.values()) {
        let b = ((t.0 - t0.0) / period.0) as usize;
        debug_assert!(b < nb, "range_view bounded the samples to [t0, t1)");
        while bucket < b {
            out.push(acc.finish());
            acc.reset();
            bucket += 1;
        }
        acc.push(v);
    }
    while out.len() < nb {
        out.push(acc.finish());
        acc.reset();
    }
}

/// Memory footprint of a store's sample storage, split by tier — the
/// runtime-observable form of the compression win (sealed Gorilla
/// chunks vs the 16 bytes/sample an uncompressed pair costs).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoryStats {
    /// Registered series.
    pub series: usize,
    /// Retained raw samples across all series (tail + sealed chunks).
    pub samples: usize,
    /// Of those, samples living in sealed compressed chunks.
    pub compressed_samples: usize,
    /// Heap bytes of uncompressed tail buffers.
    pub raw_bytes: usize,
    /// Heap bytes of sealed compressed chunks (payload + headers).
    pub compressed_bytes: usize,
    /// Heap bytes of rollup pyramids (buckets + embedded sketches).
    pub rollup_bytes: usize,
}

impl MemoryStats {
    /// Total heap bytes across all tiers.
    pub fn total_bytes(&self) -> usize {
        self.raw_bytes + self.compressed_bytes + self.rollup_bytes
    }

    /// Bytes per sample in the sealed compressed region (`None` while
    /// nothing has sealed yet).
    pub fn compressed_bytes_per_sample(&self) -> Option<f64> {
        if self.compressed_samples == 0 {
            None
        } else {
            Some(self.compressed_bytes as f64 / self.compressed_samples as f64)
        }
    }
}

/// The node store: registry + storage for all metrics of one managed
/// system, written through `&mut self` and able to lend its series.
#[derive(Debug)]
pub struct Tsdb {
    metas: Vec<MetricMeta>,
    by_name: HashMap<String, MetricId>,
    /// `series[id]` is the storage of `metas[id]`.
    series: Vec<Stored>,
    default_capacity: usize,
    /// Rollup pyramid applied to newly registered metrics.
    default_rollups: Option<RollupConfig>,
    inserts: u64,
    self_inserts: u64,
    /// Atomics: queries count their rollup hits through `&self`.
    rollup_hits: AtomicU64,
    sketch_hits: AtomicU64,
}

impl Default for Tsdb {
    fn default() -> Self {
        Self::new()
    }
}

impl Tsdb {
    /// Empty store with [`DEFAULT_RETENTION`] per series.
    pub fn new() -> Self {
        Self::with_retention(DEFAULT_RETENTION)
    }

    /// Empty store with a custom default per-series retention.
    pub fn with_retention(capacity: usize) -> Self {
        Tsdb {
            metas: Vec::new(),
            by_name: HashMap::new(),
            series: Vec::new(),
            default_capacity: capacity,
            default_rollups: None,
            inserts: 0,
            self_inserts: 0,
            rollup_hits: AtomicU64::new(0),
            sketch_hits: AtomicU64::new(0),
        }
    }

    /// Admit `meta` and intern its name. User registrations
    /// (`reserved == false`) of a `__self/` name and names or units over
    /// the export wire's length limit are refused; a scrape registration
    /// of a name outside `__self/` is a bug in the scrape and panics.
    /// Idempotent by name: a known name returns its id; a new one is
    /// assigned the next dense id and fresh storage (`capacity`
    /// overrides the default retention).
    fn register_as(
        &mut self,
        meta: MetricMeta,
        capacity: Option<usize>,
        reserved: bool,
    ) -> Result<MetricId, RegisterError> {
        if reserved {
            assert!(
                is_self_metric(&meta.name),
                "self-telemetry metric {:?} must start with {SELF_NAMESPACE:?}",
                meta.name
            );
        } else if is_self_metric(&meta.name) {
            return Err(RegisterError::ReservedNamespace { name: meta.name });
        }
        meta.check_wire_limit()?;
        if let Some(&id) = self.by_name.get(&meta.name) {
            return Ok(id);
        }
        let id = MetricId(self.metas.len() as u32);
        self.series.push(Stored {
            raw: TimeSeries::new(capacity.unwrap_or(self.default_capacity)),
            rollups: self.default_rollups.as_ref().map(RollupSet::new),
            reserved,
        });
        self.by_name.insert(meta.name.clone(), id);
        self.metas.push(meta);
        Ok(id)
    }

    /// Register a metric, returning its dense id. Re-registering the same
    /// name returns the existing id (idempotent), so sensors can register
    /// defensively. Panics on names in the reserved
    /// [`crate::metric::SELF_NAMESPACE`] and on names or units over the
    /// export wire's length limit — use [`Tsdb::try_register`] when the
    /// name is not statically known to be user-owned and short.
    pub fn register(&mut self, meta: MetricMeta) -> MetricId {
        granted(self.try_register(meta))
    }

    /// [`Tsdb::register`] with the reserved `__self/` namespace and
    /// names or units over the export wire's length limit refused as a
    /// typed error instead of a panic — the entry point for names
    /// originating outside the program text (wire ingest, config).
    pub fn try_register(&mut self, meta: MetricMeta) -> Result<MetricId, RegisterError> {
        self.register_as(meta, None, false)
    }

    /// [`Tsdb::register`] with explicit retention capacity for this
    /// series (ignored when the name is already registered).
    pub fn register_with_capacity(&mut self, meta: MetricMeta, capacity: usize) -> MetricId {
        granted(self.register_as(meta, Some(capacity), false))
    }

    /// Scrape-only registration into the reserved `__self/` namespace
    /// (idempotent on name). Panics if the name is **not** reserved —
    /// self-telemetry must be namespaced so it cannot shadow user data.
    pub fn register_self(&mut self, meta: MetricMeta) -> MetricId {
        granted(self.register_as(meta, None, true))
    }

    /// Rollup pyramid applied to metrics registered **after** this call
    /// (`None` disables). Existing metrics are untouched — use
    /// [`Tsdb::enable_rollups`] for those.
    pub fn set_rollup_policy(&mut self, config: Option<RollupConfig>) {
        self.default_rollups = config;
    }

    /// Enable (or reconfigure) the rollup tier for one metric,
    /// backfilling from its retained raw samples so the pyramid and the
    /// ring agree from the first query. **Resets** any existing
    /// pyramid — sealed buckets that outlived raw retention are lost;
    /// use [`Tsdb::ensure_rollups`] when the metric may already have one.
    pub fn enable_rollups(&mut self, id: MetricId, config: &RollupConfig) {
        let stored = &mut self.series[id.index()];
        stored.rollups = Some(RollupSet::from_series(config, &stored.raw));
    }

    /// Enable rollups only when the metric has none yet (the idempotent
    /// shape for re-registration paths: an existing pyramid's sealed
    /// history, which outlives raw retention, is never discarded).
    /// Returns whether rollups were newly enabled.
    pub fn ensure_rollups(&mut self, id: MetricId, config: &RollupConfig) -> bool {
        let fresh = self.rollups(id).is_none();
        if fresh {
            self.enable_rollups(id, config);
        }
        fresh
    }

    /// The metric's rollup pyramid, if enabled.
    pub fn rollups(&self, id: MetricId) -> Option<&RollupSet> {
        self.series[id.index()].rollups.as_ref()
    }

    /// Lifetime count of aggregate/resample queries that read at least
    /// one rollup bucket instead of scanning raw samples.
    pub fn rollup_hits(&self) -> u64 {
        self.rollup_hits.load(Ordering::Relaxed)
    }

    /// Lifetime count of percentile queries served by merging bucket
    /// quantile sketches (a subset of [`Tsdb::rollup_hits`]); percentile
    /// queries that fell back to the raw selection path count in
    /// neither.
    pub fn sketch_hits(&self) -> u64 {
        self.sketch_hits.load(Ordering::Relaxed)
    }

    #[inline]
    fn note_served(&self, served: RollupServed) {
        if served.rollup {
            self.rollup_hits.fetch_add(1, Ordering::Relaxed);
        }
        if served.sketch {
            self.sketch_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Look up a metric id by name.
    pub fn lookup(&self, name: &str) -> Option<MetricId> {
        self.by_name.get(name).copied()
    }

    /// Metadata for a registered metric.
    pub fn meta(&self, id: MetricId) -> &MetricMeta {
        &self.metas[id.index()]
    }

    /// Number of registered metrics (cardinality).
    pub fn cardinality(&self) -> usize {
        self.metas.len()
    }

    /// All registered metric names (registry order = id order).
    pub fn names(&self) -> impl Iterator<Item = (&str, MetricId)> + '_ {
        self.metas
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.as_str(), MetricId(i as u32)))
    }

    /// Lifetime accepted-insert count of **user** samples. Self-telemetry
    /// scrape writes are accounted separately ([`Tsdb::self_inserts`]) so
    /// enabling observability never perturbs workload accounting.
    pub fn total_inserts(&self) -> u64 {
        self.inserts
    }

    /// Lifetime accepted-insert count of self-telemetry scrape samples
    /// (the `__self/` namespace).
    pub fn self_inserts(&self) -> u64 {
        self.self_inserts
    }

    /// Append one sample. Returns false when rejected (unknown id is a
    /// panic — that is a programming error — but out-of-order samples are
    /// a data property and are counted and dropped). Writes to reserved
    /// `__self/` series are refused (false); use [`Tsdb::try_insert`] for
    /// the typed form of that refusal.
    pub fn insert(&mut self, id: MetricId, t: SimTime, value: f64) -> bool {
        self.write(id, t, value).unwrap_or(false)
    }

    #[inline]
    fn write(&mut self, id: MetricId, t: SimTime, value: f64) -> Result<bool, Reserved> {
        let accepted = self.series[id.index()].insert(t, value)?;
        self.inserts += u64::from(accepted);
        Ok(accepted)
    }

    /// [`Tsdb::insert`] with reserved-namespace refusal as a typed error:
    /// `Err` when `id` is a `__self/` series, otherwise `Ok(accepted)`.
    pub fn try_insert(
        &mut self,
        id: MetricId,
        t: SimTime,
        value: f64,
    ) -> Result<bool, InsertError> {
        self.write(id, t, value)
            .map_err(|Reserved| InsertError::ReservedMetric {
                id,
                name: self.meta(id).name.clone(),
            })
    }

    /// Scrape-only append to a reserved `__self/` series (panics if `id`
    /// is not reserved). Accounted under [`Tsdb::self_inserts`], not
    /// [`Tsdb::total_inserts`].
    pub fn insert_self(&mut self, id: MetricId, t: SimTime, value: f64) -> bool {
        let stored = &mut self.series[id.index()];
        assert!(stored.reserved, "insert_self on non-reserved metric {id}");
        let ok = stored.push(t, value);
        self.self_inserts += u64::from(ok);
        ok
    }

    /// Append a batch of `(metric, value)` observations at one timestamp —
    /// the shape a sensor sweep produces. Returns how many were accepted.
    pub fn insert_batch(&mut self, t: SimTime, batch: &[(MetricId, f64)]) -> usize {
        let mut accepted = 0;
        for &(id, v) in batch {
            accepted += usize::from(self.series[id.index()].insert(t, v).unwrap_or(false));
        }
        self.inserts += accepted as u64;
        accepted
    }

    /// Immutable access to a series (the raw ring; rollups are reached
    /// through [`Tsdb::rollups`] or implicitly via the aggregate queries).
    pub fn series(&self, id: MetricId) -> &TimeSeries {
        &self.series[id.index()].raw
    }

    /// Most recent sample of a metric.
    pub fn latest(&self, id: MetricId) -> Option<Sample> {
        self.series(id).latest()
    }

    /// Most recent value of a metric.
    pub fn latest_value(&self, id: MetricId) -> Option<f64> {
        self.latest(id).map(|s| s.value)
    }

    /// Zero-allocation view of `id`'s samples in the trailing `window`
    /// ending at `now`.
    pub fn window_view(&self, id: MetricId, now: SimTime, window: SimDuration) -> SampleView<'_> {
        self.series(id).window_view(now, window)
    }

    /// Fold `agg` over the trailing window without materializing samples.
    /// `None` when the window holds no samples.
    ///
    /// When the metric has rollups enabled and `agg` is
    /// [rollup-servable](WindowAgg::rollup_servable), sealed buckets are
    /// read pre-folded and only the ragged window edges (and the unsealed
    /// tail bucket) touch raw samples — O(window/res) instead of
    /// O(samples) for wide Analyze windows. On a sketched pyramid
    /// ([`RollupConfig::with_sketches`]) the same applies to
    /// `Percentile`, within the sketch's 1 % relative-error bound.
    pub fn window_agg(
        &self,
        id: MetricId,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
    ) -> Option<f64> {
        let (out, served) =
            rollup::plan_window_agg(self.series(id), self.rollups(id), now, window, agg);
        self.note_served(served);
        out
    }

    /// Fold `agg` over the last `n` samples without materializing them.
    /// `None` when the series is empty. Count-based, so always raw.
    pub fn latest_n_agg(&self, id: MetricId, n: usize, agg: WindowAgg) -> Option<f64> {
        let view = self.series(id).last_n_view(n);
        (!view.is_empty()).then(|| view.aggregate(agg))
    }

    /// Linearly interpolated value of `id` at `t` (O(log n); `None`
    /// outside the retained span).
    pub fn value_at(&self, id: MetricId, t: SimTime) -> Option<f64> {
        self.series(id).value_at(t)
    }

    /// Downsample a series to fixed `period` buckets over `[t0, t1)`
    /// into a caller-owned buffer, aggregating each bucket with `agg`
    /// (empty buckets yield `None`) — the long-term-storage shape: the
    /// paper's Knowledge layer stores behavioral profiles, not raw
    /// samples. One pass over a binary-searched view, folding each
    /// bucket through a single reusable [`AggAccum`] — no per-bucket
    /// allocations. Sealed rollup buckets are spliced in when the metric
    /// has rollups enabled and the requested `period` is at least one
    /// finest-tier bucket wide.
    pub fn resample_into(
        &self,
        id: MetricId,
        t0: SimTime,
        t1: SimTime,
        period: SimDuration,
        agg: WindowAgg,
        out: &mut Vec<Option<f64>>,
    ) {
        let raw = self.series(id);
        match rollup::plan_resample_into(raw, self.rollups(id), t0, t1, period, agg, out) {
            Some(served) => self.note_served(served),
            None => resample_view(&raw.range_view(t0, t1), t0, t1, period, agg, out),
        }
    }

    /// Memory footprint of all series, split by storage tier.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut stats = MemoryStats::default();
        for s in &self.series {
            stats.series += 1;
            stats.samples += s.raw.len();
            stats.compressed_samples += s.raw.compressed_len();
            stats.raw_bytes += s.raw.raw_bytes();
            stats.compressed_bytes += s.raw.compressed_bytes();
            if let Some(r) = &s.rollups {
                stats.rollup_bytes += r.mem_bytes();
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::SourceDomain;
    use crate::window::WindowAgg;

    fn db() -> Tsdb {
        Tsdb::new()
    }

    fn gauge(db: &mut Tsdb, name: &str) -> MetricId {
        db.register(MetricMeta::gauge(name, "u", SourceDomain::Hardware))
    }

    #[test]
    fn register_is_idempotent() {
        let mut db = db();
        let a = gauge(&mut db, "x");
        let b = gauge(&mut db, "x");
        assert_eq!(a, b);
        assert_eq!(db.cardinality(), 1);
        let c = gauge(&mut db, "y");
        assert_ne!(a, c);
        assert_eq!(db.cardinality(), 2);
    }

    #[test]
    fn lookup_by_name() {
        let mut db = db();
        let id = gauge(&mut db, "node.0.power");
        assert_eq!(db.lookup("node.0.power"), Some(id));
        assert_eq!(db.lookup("nope"), None);
        assert_eq!(db.meta(id).name, "node.0.power");
    }

    #[test]
    fn insert_and_query() {
        let mut db = db();
        let id = gauge(&mut db, "x");
        assert!(db.insert(id, SimTime::from_secs(1), 10.0));
        assert!(db.insert(id, SimTime::from_secs(2), 20.0));
        assert_eq!(db.latest_value(id), Some(20.0));
        assert_eq!(db.total_inserts(), 2);
        // Out-of-order insert is dropped and not counted, through every
        // user write path.
        assert!(!db.insert(id, SimTime::from_secs(1), 5.0));
        assert_eq!(db.try_insert(id, SimTime::from_secs(1), 5.0), Ok(false));
        assert_eq!(db.insert_batch(SimTime::from_secs(1), &[(id, 5.0)]), 0);
        assert_eq!(db.total_inserts(), 2);
        assert_eq!(db.series(id).rejected(), 3);
    }

    #[test]
    fn insert_batch_single_timestamp() {
        let mut db = db();
        let a = gauge(&mut db, "a");
        let b = gauge(&mut db, "b");
        assert_eq!(
            db.insert_batch(SimTime::from_secs(3), &[(a, 1.0), (b, 2.0)]),
            2
        );
        assert_eq!(db.latest_value(a), Some(1.0));
        assert_eq!(db.latest_value(b), Some(2.0));
        // The count is per sample: a sweep that is stale for one metric
        // still lands on the other.
        db.insert(a, SimTime::from_secs(9), 0.0);
        assert_eq!(
            db.insert_batch(SimTime::from_secs(5), &[(a, 3.0), (b, 4.0)]),
            1
        );
        assert_eq!(db.latest_value(b), Some(4.0));
        assert_eq!(db.total_inserts(), 4);
    }

    #[test]
    fn per_series_capacity_override() {
        let mut db = db();
        let small =
            db.register_with_capacity(MetricMeta::gauge("small", "u", SourceDomain::Software), 2);
        for i in 0..5u64 {
            db.insert(small, SimTime::from_secs(i), i as f64);
        }
        assert_eq!(db.series(small).len(), 2);
        // Override on an existing metric does not clobber data.
        let mut db2 = Tsdb::new();
        let id = gauge(&mut db2, "x");
        db2.insert(id, SimTime::from_secs(1), 1.0);
        let same =
            db2.register_with_capacity(MetricMeta::gauge("x", "u", SourceDomain::Hardware), 2);
        assert_eq!(same, id);
        assert_eq!(db2.series(id).len(), 1);
    }

    #[test]
    fn resample_buckets_and_gaps() {
        let mut db = db();
        let id = gauge(&mut db, "x");
        // Samples at t = 0s,1s,2s ... value = t; gap in [4s, 6s).
        for t in [0u64, 1, 2, 3, 6, 7] {
            db.insert(id, SimTime::from_secs(t), t as f64);
        }
        let mut out = Vec::new();
        db.resample_into(
            id,
            SimTime::ZERO,
            SimTime::from_secs(8),
            SimDuration::from_secs(2),
            WindowAgg::Mean,
            &mut out,
        );
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], Some(0.5)); // 0,1
        assert_eq!(out[1], Some(2.5)); // 2,3
        assert_eq!(out[2], None); // gap
        assert_eq!(out[3], Some(6.5)); // 6,7
    }

    #[test]
    fn resample_max_agg() {
        let mut db = db();
        let id = gauge(&mut db, "x");
        for t in 0..10u64 {
            db.insert(id, SimTime::from_secs(t), t as f64);
        }
        let mut out = Vec::new();
        db.resample_into(
            id,
            SimTime::ZERO,
            SimTime::from_secs(10),
            SimDuration::from_secs(5),
            WindowAgg::Max,
            &mut out,
        );
        assert_eq!(out, vec![Some(4.0), Some(9.0)]);
    }

    #[test]
    fn resample_into_reuses_buffer() {
        let mut db = db();
        let id = gauge(&mut db, "x");
        for t in 0..10u64 {
            db.insert(id, SimTime::from_secs(t), t as f64);
        }
        let mut out = Vec::new();
        db.resample_into(
            id,
            SimTime::ZERO,
            SimTime::from_secs(10),
            SimDuration::from_secs(5),
            WindowAgg::Percentile(1.0),
            &mut out,
        );
        assert_eq!(out, vec![Some(4.0), Some(9.0)]);
        db.resample_into(
            id,
            SimTime::ZERO,
            SimTime::from_secs(4),
            SimDuration::from_secs(2),
            WindowAgg::Count,
            &mut out,
        );
        assert_eq!(out, vec![Some(2.0), Some(2.0)]);
    }

    #[test]
    fn window_agg_matches_legacy_path() {
        let mut db = db();
        let id = gauge(&mut db, "x");
        for t in 0..100u64 {
            db.insert(id, SimTime::from_secs(t), (t % 13) as f64);
        }
        let now = SimTime::from_secs(99);
        let w = SimDuration::from_secs(30);
        for agg in [
            WindowAgg::Mean,
            WindowAgg::Min,
            WindowAgg::Max,
            WindowAgg::Sum,
            WindowAgg::Last,
            WindowAgg::Count,
            WindowAgg::Percentile(0.9),
        ] {
            let values: Vec<f64> = db.window_view(id, now, w).iter().map(|s| s.value).collect();
            let legacy = agg.apply(&values);
            let fast = db.window_agg(id, now, w, agg).unwrap();
            assert!((legacy - fast).abs() < 1e-12, "{agg:?}");
        }
        // Empty window: the aggregate path reports None.
        assert_eq!(
            db.window_agg(
                id,
                SimTime::from_hours(10),
                SimDuration::from_secs(1),
                WindowAgg::Mean
            ),
            None
        );
        assert_eq!(db.latest_n_agg(id, 10, WindowAgg::Count), Some(10.0));
    }

    #[test]
    fn names_iterates_in_id_order() {
        let mut db = db();
        gauge(&mut db, "a");
        gauge(&mut db, "b");
        let names: Vec<(&str, MetricId)> = db.names().collect();
        assert_eq!(names[0], ("a", MetricId(0)));
        assert_eq!(names[1], ("b", MetricId(1)));
    }

    // ----------------------------------------- reserved __self/ names

    #[test]
    fn reserved_namespace_refuses_user_registration() {
        let mut db = db();
        let meta = MetricMeta::gauge("__self/wal.fsync_ns", "ns", SourceDomain::Software);
        match db.try_register(meta) {
            Err(RegisterError::ReservedNamespace { name }) => {
                assert_eq!(name, "__self/wal.fsync_ns");
            }
            other => panic!("expected reserved-namespace refusal, got {other:?}"),
        }
        assert_eq!(db.cardinality(), 0);
        // Non-reserved names pass through try_register unchanged.
        let id = db
            .try_register(MetricMeta::gauge("user.x", "u", SourceDomain::Hardware))
            .unwrap();
        assert_eq!(db.lookup("user.x"), Some(id));
    }

    #[test]
    fn names_over_the_wire_limit_are_refused_at_registration() {
        use crate::export::{Exporter, MemorySink};
        use crate::wire::{decode_batch, encode_batch, MAX_STR_LEN};
        // The longest legal name registers, drains, and survives the
        // binary codec bit-exactly.
        let mut db = db();
        let longest = MetricMeta::gauge("n".repeat(MAX_STR_LEN), "u", SourceDomain::Hardware);
        let id = db.try_register(longest).unwrap();
        db.insert(id, SimTime::from_secs(1), 1.0);
        let mut sink = MemorySink::new();
        Exporter::new().drain(&db, &mut sink).unwrap();
        let mut bytes = Vec::new();
        encode_batch(&sink.batches[0], &mut bytes);
        assert_eq!(decode_batch(&bytes).unwrap().0, sink.batches[0]);
        // One byte more — in the name or the unit — is a typed refusal,
        // and nothing is registered.
        let long = "n".repeat(MAX_STR_LEN + 1);
        for (meta, field) in [
            (
                MetricMeta::gauge(long.clone(), "u", SourceDomain::Hardware),
                "name",
            ),
            (
                MetricMeta::gauge("m", long.clone(), SourceDomain::Hardware),
                "unit",
            ),
        ] {
            let want = Err(RegisterError::TooLongForWire {
                field,
                len: MAX_STR_LEN + 1,
            });
            assert_eq!(db.try_register(meta), want);
        }
        assert_eq!(db.cardinality(), 1);
    }

    #[test]
    #[should_panic(expected = "the export wire carries at most 65535")]
    fn register_panics_on_a_name_over_the_wire_limit() {
        let long = "n".repeat(crate::wire::MAX_STR_LEN + 1);
        db().register(MetricMeta::gauge(long, "u", SourceDomain::Hardware));
    }

    #[test]
    #[should_panic(expected = "self-telemetry namespace")]
    fn reserved_namespace_panics_on_plain_register() {
        let mut db = db();
        db.register(MetricMeta::gauge("__self/x", "u", SourceDomain::Software));
    }

    #[test]
    fn scrape_is_the_only_writer_of_self_series() {
        let mut db = db();
        let id = db.register_self(MetricMeta::gauge(
            "__self/export.drain_ns",
            "ns",
            SourceDomain::Software,
        ));
        // User write paths refuse the reserved series...
        assert!(!db.insert(id, SimTime::from_secs(1), 1.0));
        assert_eq!(db.insert_batch(SimTime::from_secs(1), &[(id, 2.0)]), 0);
        match db.try_insert(id, SimTime::from_secs(1), 3.0) {
            Err(InsertError::ReservedMetric { id: got, name }) => {
                assert_eq!(got, id);
                assert_eq!(name, "__self/export.drain_ns");
            }
            other => panic!("expected reserved-metric refusal, got {other:?}"),
        }
        assert_eq!(db.total_inserts(), 0);
        assert_eq!(db.latest(id), None);
        // ...while the scrape path writes it, accounted separately.
        assert!(db.insert_self(id, SimTime::from_secs(1), 4.0));
        assert_eq!(db.latest_value(id), Some(4.0));
        assert_eq!(db.total_inserts(), 0);
        assert_eq!(db.self_inserts(), 1);
        // A stale scrape write is dropped and not counted, and the
        // scrape's registration is idempotent like the user's.
        assert!(!db.insert_self(id, SimTime::ZERO, 5.0));
        assert_eq!(db.self_inserts(), 1);
        let again = MetricMeta::gauge("__self/export.drain_ns", "ns", SourceDomain::Software);
        assert_eq!(db.register_self(again), id);
        assert_eq!(db.cardinality(), 1);
    }

    // ------------------------------------------------------- rollups

    #[test]
    fn rollup_routing_serves_wide_windows_and_counts_hits() {
        use crate::rollup::RollupConfig;
        let mut db = Tsdb::with_retention(1 << 14);
        let id = gauge(&mut db, "x");
        db.enable_rollups(id, &RollupConfig::standard().with_sketches());
        for s in 0..7200u64 {
            db.insert(id, SimTime::from_secs(s), (s % 17) as f64);
        }
        assert!(db.rollups(id).is_some());
        let now = SimTime::from_secs(7199);
        let wide = SimDuration::from_secs(7000);
        assert_eq!(db.rollup_hits(), 0);
        for agg in [
            WindowAgg::Count,
            WindowAgg::Sum,
            WindowAgg::Min,
            WindowAgg::Max,
            WindowAgg::Last,
        ] {
            let got = db.window_agg(id, now, wide, agg).unwrap();
            let want = db.window_view(id, now, wide).aggregate(agg);
            assert_eq!(got, want, "{agg:?}");
        }
        let mean = db.window_agg(id, now, wide, WindowAgg::Mean).unwrap();
        let want = db.window_view(id, now, wide).aggregate(WindowAgg::Mean);
        assert!((mean - want).abs() < 1e-9);
        assert_eq!(db.rollup_hits(), 6);
        assert_eq!(db.sketch_hits(), 0);
        // Percentile on a sketched pyramid is a rollup hit too, and is
        // separately accounted as a sketch hit — within the sketch's
        // 1 % relative-error bound of the exact selection.
        let p90 = db
            .window_agg(id, now, wide, WindowAgg::Percentile(0.9))
            .unwrap();
        let exact = db
            .window_view(id, now, wide)
            .aggregate(WindowAgg::Percentile(0.9));
        assert!((p90 - exact).abs() <= 0.0101 * exact.abs() + 1e-9);
        assert_eq!(db.rollup_hits(), 7);
        assert_eq!(db.sketch_hits(), 1);
    }

    #[test]
    fn sketchfree_percentile_is_neither_rollup_nor_sketch_hit() {
        use crate::rollup::RollupConfig;
        let mut db = Tsdb::with_retention(1 << 14);
        let id = gauge(&mut db, "x");
        db.enable_rollups(id, &RollupConfig::standard());
        for s in 0..7200u64 {
            db.insert(id, SimTime::from_secs(s), (s % 17) as f64);
        }
        let now = SimTime::from_secs(7199);
        let wide = SimDuration::from_secs(7000);
        db.window_agg(id, now, wide, WindowAgg::Percentile(0.9));
        assert_eq!(db.rollup_hits(), 0);
        assert_eq!(db.sketch_hits(), 0);
    }

    #[test]
    fn rollup_policy_applies_to_new_registrations_only() {
        use crate::rollup::RollupConfig;
        let mut db = db();
        let before = gauge(&mut db, "before");
        db.set_rollup_policy(Some(RollupConfig::compact()));
        let after = gauge(&mut db, "after");
        assert!(db.rollups(before).is_none());
        assert!(db.rollups(after).is_some());
    }

    #[test]
    fn ensure_rollups_preserves_history_beyond_raw_retention() {
        use crate::rollup::RollupConfig;
        // Tiny raw ring: sealed rollup buckets quickly outlive it.
        let mut db = Tsdb::with_retention(16);
        let id = gauge(&mut db, "x");
        let cfg = RollupConfig::compact();
        assert!(db.ensure_rollups(id, &cfg));
        for s in 0..600u64 {
            db.insert(id, SimTime::from_secs(s), 1.0);
        }
        let count = |db: &Tsdb| {
            db.window_agg(
                id,
                SimTime::from_secs(599),
                SimDuration::from_secs(599),
                WindowAgg::Count,
            )
            .unwrap()
        };
        let before = count(&db);
        assert!(before > 16.0, "rollups must outlive the raw ring");
        // A re-registration path calling ensure again must not reset the
        // pyramid to the raw tail...
        assert!(!db.ensure_rollups(id, &cfg));
        assert_eq!(count(&db), before);
        // ...while enable (the explicit reconfigure) does rebuild from
        // the 16 retained raw samples.
        db.enable_rollups(id, &cfg);
        assert!(count(&db) <= 16.0);
    }

    #[test]
    fn enabling_rollups_late_backfills_retained_history() {
        use crate::rollup::RollupConfig;
        let mut db = Tsdb::with_retention(1 << 14);
        let id = gauge(&mut db, "x");
        for s in 0..600u64 {
            db.insert(id, SimTime::from_secs(s), s as f64);
        }
        db.enable_rollups(id, &RollupConfig::standard());
        let got = db
            .window_agg(
                id,
                SimTime::from_secs(599),
                SimDuration::from_secs(590),
                WindowAgg::Sum,
            )
            .unwrap();
        let want = db
            .window_view(id, SimTime::from_secs(599), SimDuration::from_secs(590))
            .aggregate(WindowAgg::Sum);
        assert!((got - want).abs() < 1e-6);
        assert!(db.rollup_hits() > 0);
    }

    #[test]
    fn memory_stats_split_by_tier() {
        let mut db = Tsdb::with_retention(2048);
        let a = gauge(&mut db, "a");
        db.enable_rollups(a, &RollupConfig::standard());
        for t in 0..2048u64 {
            db.insert(a, SimTime::from_secs(t), 200.0 + (t % 5) as f64);
        }
        let m = db.memory_stats();
        assert_eq!(m.series, 1);
        assert_eq!(m.samples, 2048);
        assert!(m.compressed_samples > 0);
        assert!(m.raw_bytes > 0 && m.compressed_bytes > 0 && m.rollup_bytes > 0);
        assert_eq!(
            m.total_bytes(),
            m.raw_bytes + m.compressed_bytes + m.rollup_bytes
        );
        // Smooth telemetry seals well under the 16 B/sample raw cost.
        assert!(m.compressed_bytes_per_sample().unwrap() < 3.0);
        // Payloads are held at exact length and restart tables inline
        // in the header: the sealed tier costs those bytes plus one
        // header per chunk, no allocator slack.
        let held: usize = db
            .series(a)
            .sealed_chunks()
            .map(|c| c.bytes().len() + std::mem::size_of::<crate::chunk::Chunk>())
            .sum();
        assert_eq!(m.compressed_bytes, held);
        assert!(db.series(a).sealed_chunks().all(|c| c.restart_points() > 0));
    }

    #[test]
    fn default_store_retains_like_new() {
        // `Default` is `new()`: DEFAULT_RETENTION per series, not a
        // zeroed capacity clamped to one sample.
        let mut db = Tsdb::default();
        let a = gauge(&mut db, "a");
        for t in 0..100u64 {
            db.insert(a, SimTime::from_secs(t), t as f64);
        }
        assert_eq!(db.series(a).len(), 100);
    }
}
