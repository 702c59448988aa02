//! In-memory time-series store: one storage core, two ownership shells.
//!
//! The store is the telemetry backbone of a simulated center: sensors
//! append into it, Monitor components of MAPE-K loops read from it. The
//! design follows the constraints the paper raises in §IV — high insert
//! rates, bounded memory under high metric cardinality, and low-latency
//! recent-window reads — rather than durable storage, which production
//! sites delegate to their archive tier.
//!
//! # One core
//!
//! Every store rule has exactly one body, on three private types:
//!
//! * `Registry` — registration: reserved-namespace refusal, the export
//!   wire's length limit, idempotence by name, dense id assignment, and
//!   the default capacity and rollup policy of new series;
//! * `Stored` — one metric's raw ring plus its rollup pyramid: the
//!   reserved-write refusal, push + rollup fold, rollup enable/ensure,
//!   the aggregate queries, the memory fold;
//! * `Counters` — accepted-insert and rollup/sketch-hit accounting.
//!
//! # Two ownership shells
//!
//! * [`Tsdb`] = `Registry` + one `Vec<Stored>`, single owner. Writes
//!   take `&mut self`: no lock and no atomic read-modify-write on the
//!   insert path, and it is the only shell that can *lend* storage
//!   (`&TimeSeries`, [`SampleView`], `&RollupSet`). The shape for the
//!   deterministic discrete-event world, the goldens and the benches.
//! * [`ShardedTsdb`] = `RwLock<Registry>` + N × `RwLock<Vec<Stored>>`,
//!   shared. Writes take `&self`, so collector, Monitor and exporter
//!   threads share one handle; a writer of one stripe never stalls
//!   readers of another. It owns only what locking adds: the
//!   id → (stripe, slot) arithmetic, the lock-coalescing `insert_batch`
//!   and the registry → stripe lock order. A borrow cannot outlive a
//!   lock guard, so it lends storage only to a closure
//!   ([`ShardedTsdb::with_storage`]) and returns metadata by clone.
//!
//! Both shells answer every query with the same bits for the same
//! operation sequence (the `sharded_equals_unsharded` proptest).
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
use parking_lot::{RwLock, RwLockWriteGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default per-series retention when none is specified.
pub const DEFAULT_RETENTION: usize = 4096;

/// Default stripe count for [`ShardedTsdb::new`]. [`Tsdb::into_shared`]
/// sizes stripes adaptively instead (see [`adaptive_shards`]); pin an
/// explicit count with [`ShardedTsdb::with_config`] /
/// [`ShardedTsdb::from_tsdb`] when a test or bench needs a fixed
/// topology.
pub const DEFAULT_SHARDS: usize = 16;

/// Largest stripe count [`adaptive_shards`] will pick.
pub const MAX_ADAPTIVE_SHARDS: usize = 256;

/// Stripe count for a store expected to hold `cardinality` metrics on a
/// machine with `cores` available hardware threads: a concurrency floor
/// of ~4 stripes per core (so concurrent loops rarely collide), raised
/// by one stripe per ~64 metrics for high-cardinality stores (shorter
/// per-stripe series vectors), as a power of two within
/// `[1, MAX_ADAPTIVE_SHARDS]`. Cardinality only ever **raises** the
/// count above the core floor — it must not cap it, because registering
/// metrics after [`Tsdb::into_shared`] is a supported pattern (the
/// fleet drivers do exactly that) and the store cannot re-stripe later;
/// a stripe is just one `RwLock` + `Vec`, so over-striping a store that
/// stays small is harmless.
pub fn adaptive_shards(cores: usize, cardinality: usize) -> usize {
    let by_cores = cores.max(1).saturating_mul(4);
    let by_cardinality = cardinality / 64 + 1;
    by_cores
        .max(by_cardinality)
        .clamp(1, MAX_ADAPTIVE_SHARDS)
        .next_power_of_two()
        .min(MAX_ADAPTIVE_SHARDS)
}

// ---------------------------------------------------------------- core

/// Name → id interning plus the policy for new series: the registration
/// rule, stated once for both shells.
#[derive(Debug)]
struct Registry {
    metas: Vec<MetricMeta>,
    by_name: HashMap<String, MetricId>,
    default_capacity: usize,
    /// Rollup pyramid applied to newly registered metrics.
    default_rollups: Option<RollupConfig>,
}

impl Registry {
    fn new(default_capacity: usize) -> Self {
        Registry {
            metas: Vec::new(),
            by_name: HashMap::new(),
            default_capacity,
            default_rollups: None,
        }
    }

    /// Admit `meta` and intern its name. User registrations
    /// (`reserved == false`) of a `__self/` name and names or units over
    /// the export wire's length limit are refused; a scrape registration
    /// of a name outside `__self/` is a bug in the scrape and panics.
    /// Idempotent by name: a known name returns its id and `None`; a
    /// new one is assigned the next dense id and returns the storage the
    /// calling shell must append for it (`capacity` overrides the
    /// default retention).
    fn register(
        &mut self,
        meta: MetricMeta,
        capacity: Option<usize>,
        reserved: bool,
    ) -> Result<(MetricId, Option<Stored>), RegisterError> {
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
            return Ok((id, None));
        }
        let id = MetricId(self.metas.len() as u32);
        let stored = Stored::new(
            capacity.unwrap_or(self.default_capacity),
            self.default_rollups.as_ref(),
            reserved,
        );
        self.by_name.insert(meta.name.clone(), id);
        self.metas.push(meta);
        Ok((id, Some(stored)))
    }

    /// The typed rendering of a [`Reserved`] refusal.
    fn reserved_error(&self, id: MetricId) -> InsertError {
        InsertError::ReservedMetric {
            id,
            name: self.metas[id.index()].name.clone(),
        }
    }

    fn names(&self) -> impl Iterator<Item = (&str, MetricId)> + '_ {
        self.metas
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.as_str(), MetricId(i as u32)))
    }
}

/// The panicking registration forms: for a name in the program text a
/// refusal is a programming error.
fn granted(registered: Result<MetricId, RegisterError>) -> MetricId {
    registered.unwrap_or_else(|e| panic!("{e}"))
}

/// A user write aimed at a reserved `__self/` series. The shells render
/// it as `false` (`insert`, `insert_batch`) or as the typed
/// [`InsertError`] (`try_insert`).
#[derive(Debug)]
struct Reserved;

/// One metric's storage: the raw ring plus its optional rollup pyramid.
/// Accepted appends fold into both; rejected (out-of-order) appends touch
/// neither, so the tiers never disagree about what was stored.
#[derive(Debug, Clone)]
struct Stored {
    raw: TimeSeries,
    rollups: Option<RollupSet>,
    /// Series lives in the reserved `__self/` namespace: created by the
    /// obs scrape, writable only through the `insert_self` entry points.
    reserved: bool,
}

impl Stored {
    fn new(capacity: usize, rollups: Option<&RollupConfig>, reserved: bool) -> Self {
        Stored {
            raw: TimeSeries::new(capacity),
            rollups: rollups.map(RollupSet::new),
            reserved,
        }
    }

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

    /// A scrape write: only to a reserved series.
    fn insert_self(&mut self, id: MetricId, t: SimTime, value: f64) -> bool {
        assert!(self.reserved, "insert_self on non-reserved metric {id}");
        self.push(t, value)
    }

    /// Enable (or reconfigure) rollups, backfilling from retained raw
    /// samples so the pyramid and the ring agree from the first query.
    fn enable_rollups(&mut self, config: &RollupConfig) {
        self.rollups = Some(RollupSet::from_series(config, &self.raw));
    }

    fn ensure_rollups(&mut self, config: &RollupConfig) -> bool {
        let fresh = self.rollups.is_none();
        if fresh {
            self.enable_rollups(config);
        }
        fresh
    }

    fn window_agg(
        &self,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
    ) -> (Option<f64>, RollupServed) {
        rollup::plan_window_agg(&self.raw, self.rollups.as_ref(), now, window, agg)
    }

    fn latest_n_agg(&self, n: usize, agg: WindowAgg) -> Option<f64> {
        let view = self.raw.last_n_view(n);
        (!view.is_empty()).then(|| view.aggregate(agg))
    }

    fn resample_into(
        &self,
        t0: SimTime,
        t1: SimTime,
        period: SimDuration,
        agg: WindowAgg,
        out: &mut Vec<Option<f64>>,
    ) -> RollupServed {
        match rollup::plan_resample_into(&self.raw, self.rollups.as_ref(), t0, t1, period, agg, out)
        {
            Some(served) => served,
            None => {
                resample_view(&self.raw.range_view(t0, t1), t0, t1, period, agg, out);
                RollupServed::default()
            }
        }
    }

    fn fold_memory(&self, stats: &mut MemoryStats) {
        stats.series += 1;
        stats.samples += self.raw.len();
        stats.compressed_samples += self.raw.compressed_len();
        stats.raw_bytes += self.raw.raw_bytes();
        stats.compressed_bytes += self.raw.compressed_bytes();
        if let Some(r) = &self.rollups {
            stats.rollup_bytes += r.mem_bytes();
        }
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

/// Lifetime accounting. Atomics, because queries count their rollup
/// hits through `&self` on both shells and the sharded shell also
/// counts inserts through `&self`; the single-owner shell bumps its
/// insert counters through `get_mut`, which is a plain add.
#[derive(Debug, Default)]
struct Counters {
    inserts: AtomicU64,
    self_inserts: AtomicU64,
    rollup_hits: AtomicU64,
    sketch_hits: AtomicU64,
}

impl Counters {
    #[inline]
    fn note_served(&self, served: RollupServed) {
        if served.rollup {
            self.rollup_hits.fetch_add(1, Ordering::Relaxed);
        }
        if served.sketch {
            self.sketch_hits.fetch_add(1, Ordering::Relaxed);
        }
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

// -------------------------------------------------- single-owner shell

/// The single-owner store: registry + storage for all metrics of one
/// managed system, written through `&mut self` and able to lend its
/// series. See the [module docs](self) for when to use which shell.
#[derive(Debug)]
pub struct Tsdb {
    registry: Registry,
    series: Vec<Stored>,
    counters: Counters,
}

/// Thread-shared handle used by the threaded loop runtime.
pub type SharedTsdb = Arc<ShardedTsdb>;

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
            registry: Registry::new(capacity),
            series: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// Move into a thread-shared sharded handle. The stripe count is
    /// sized by [`adaptive_shards`] from
    /// `std::thread::available_parallelism()` and the store's
    /// cardinality at the moment of the move; use
    /// [`ShardedTsdb::from_tsdb`] to pin an explicit count instead
    /// (tests/benches comparing topologies).
    pub fn into_shared(self) -> SharedTsdb {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let shards = adaptive_shards(cores, self.cardinality());
        Arc::new(ShardedTsdb::from_tsdb(self, shards))
    }

    fn register_as(
        &mut self,
        meta: MetricMeta,
        capacity: Option<usize>,
        reserved: bool,
    ) -> Result<MetricId, RegisterError> {
        let (id, fresh) = self.registry.register(meta, capacity, reserved)?;
        self.series.extend(fresh);
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
        self.registry.default_rollups = config;
    }

    /// Enable (or reconfigure) the rollup tier for one metric,
    /// backfilling from its retained raw samples. **Resets** any existing
    /// pyramid — sealed buckets that outlived raw retention are lost;
    /// use [`Tsdb::ensure_rollups`] when the metric may already have one.
    pub fn enable_rollups(&mut self, id: MetricId, config: &RollupConfig) {
        self.series[id.index()].enable_rollups(config);
    }

    /// Enable rollups only when the metric has none yet (the idempotent
    /// shape for re-registration paths: an existing pyramid's sealed
    /// history, which outlives raw retention, is never discarded).
    /// Returns whether rollups were newly enabled.
    pub fn ensure_rollups(&mut self, id: MetricId, config: &RollupConfig) -> bool {
        self.series[id.index()].ensure_rollups(config)
    }

    /// The metric's rollup pyramid, if enabled.
    pub fn rollups(&self, id: MetricId) -> Option<&RollupSet> {
        self.series[id.index()].rollups.as_ref()
    }

    /// Lifetime count of aggregate/resample queries that read at least
    /// one rollup bucket instead of scanning raw samples.
    pub fn rollup_hits(&self) -> u64 {
        self.counters.rollup_hits.load(Ordering::Relaxed)
    }

    /// Lifetime count of percentile queries served by merging bucket
    /// quantile sketches (a subset of [`Tsdb::rollup_hits`]); percentile
    /// queries that fell back to the raw selection path count in
    /// neither.
    pub fn sketch_hits(&self) -> u64 {
        self.counters.sketch_hits.load(Ordering::Relaxed)
    }

    /// Look up a metric id by name.
    pub fn lookup(&self, name: &str) -> Option<MetricId> {
        self.registry.by_name.get(name).copied()
    }

    /// Metadata for a registered metric.
    pub fn meta(&self, id: MetricId) -> &MetricMeta {
        &self.registry.metas[id.index()]
    }

    /// Number of registered metrics (cardinality).
    pub fn cardinality(&self) -> usize {
        self.registry.metas.len()
    }

    /// All registered metric names (registry order = id order).
    pub fn names(&self) -> impl Iterator<Item = (&str, MetricId)> + '_ {
        self.registry.names()
    }

    /// Lifetime accepted-insert count of **user** samples. Self-telemetry
    /// scrape writes are accounted separately ([`Tsdb::self_inserts`]) so
    /// enabling observability never perturbs workload accounting.
    pub fn total_inserts(&self) -> u64 {
        self.counters.inserts.load(Ordering::Relaxed)
    }

    /// Lifetime accepted-insert count of self-telemetry scrape samples
    /// (the `__self/` namespace).
    pub fn self_inserts(&self) -> u64 {
        self.counters.self_inserts.load(Ordering::Relaxed)
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
        *self.counters.inserts.get_mut() += u64::from(accepted);
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
            .map_err(|Reserved| self.registry.reserved_error(id))
    }

    /// Scrape-only append to a reserved `__self/` series (panics if `id`
    /// is not reserved). Accounted under [`Tsdb::self_inserts`], not
    /// [`Tsdb::total_inserts`].
    pub fn insert_self(&mut self, id: MetricId, t: SimTime, value: f64) -> bool {
        let ok = self.series[id.index()].insert_self(id, t, value);
        *self.counters.self_inserts.get_mut() += u64::from(ok);
        ok
    }

    /// Append a batch of `(metric, value)` observations at one timestamp —
    /// the shape a sensor sweep produces. Returns how many were accepted.
    pub fn insert_batch(&mut self, t: SimTime, batch: &[(MetricId, f64)]) -> usize {
        let mut accepted = 0;
        for &(id, v) in batch {
            accepted += usize::from(self.series[id.index()].insert(t, v).unwrap_or(false));
        }
        *self.counters.inserts.get_mut() += accepted as u64;
        accepted
    }

    /// Immutable access to a series (the raw ring; rollups are reached
    /// through [`Tsdb::rollups`] or implicitly via the aggregate queries).
    pub fn series(&self, id: MetricId) -> &TimeSeries {
        &self.series[id.index()].raw
    }

    /// Run `f` over one metric's raw ring and its optional rollup
    /// pyramid — the shape both shells share (see
    /// [`ShardedTsdb::with_storage`]) and the incremental exporter
    /// ([`crate::export`]) builds on.
    pub fn with_storage<R>(
        &self,
        id: MetricId,
        f: impl FnOnce(&TimeSeries, Option<&RollupSet>) -> R,
    ) -> R {
        let stored = &self.series[id.index()];
        f(&stored.raw, stored.rollups.as_ref())
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
        let (out, served) = self.series[id.index()].window_agg(now, window, agg);
        self.counters.note_served(served);
        out
    }

    /// Fold `agg` over the last `n` samples without materializing them.
    /// `None` when the series is empty. Count-based, so always raw.
    pub fn latest_n_agg(&self, id: MetricId, n: usize, agg: WindowAgg) -> Option<f64> {
        self.series[id.index()].latest_n_agg(n, agg)
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
        let served = self.series[id.index()].resample_into(t0, t1, period, agg, out);
        self.counters.note_served(served);
    }

    /// Memory footprint of all series, split by storage tier.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut stats = MemoryStats::default();
        self.series.iter().for_each(|s| s.fold_memory(&mut stats));
        stats
    }
}

// -------------------------------------------------------- shared shell

/// The shared store: the same core as [`Tsdb`] behind locks, written
/// through `&self`. Every method without its own contract below behaves
/// as the [`Tsdb`] method of the same name.
///
/// The registry (name → id, metadata) lives under one `RwLock`; series
/// storage is striped across `n_shards` independently locked shards with
/// `shard = id % n_shards`, `slot = id / n_shards` (both pure arithmetic,
/// so the hot insert/read path never consults the registry). Writers to
/// one stripe proceed concurrently with readers and writers of every
/// other stripe. The only nested lock order is registry → stripe
/// (registration); every other method holds at most one lock at a time.
///
/// Where a signature differs from [`Tsdb`]'s, ownership forces it:
/// `meta` and `names` return clones and storage is lent only to a
/// closure ([`ShardedTsdb::with_storage`], which also answers "has
/// rollups?" and every raw-series question), because a borrow cannot
/// outlive the lock guard it came from.
#[derive(Debug)]
pub struct ShardedTsdb {
    registry: RwLock<Registry>,
    shards: Box<[RwLock<Vec<Stored>>]>,
    counters: Counters,
}

impl Default for ShardedTsdb {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedTsdb {
    /// Empty store with [`DEFAULT_RETENTION`] and [`DEFAULT_SHARDS`].
    pub fn new() -> Self {
        Self::with_config(DEFAULT_RETENTION, DEFAULT_SHARDS)
    }

    /// Empty store with explicit retention and stripe count.
    pub fn with_config(capacity: usize, n_shards: usize) -> Self {
        Self::from_tsdb(Tsdb::with_retention(capacity), n_shards)
    }

    /// Build from a single-owner [`Tsdb`]: its registry and counters
    /// move over as they are and its series are dealt out across the
    /// stripes, preserving ids, data and rollups.
    pub fn from_tsdb(db: Tsdb, n_shards: usize) -> Self {
        let n = n_shards.max(1);
        let mut shards: Vec<Vec<Stored>> = (0..n).map(|_| Vec::new()).collect();
        for (i, stored) in db.series.into_iter().enumerate() {
            shards[i % n].push(stored);
        }
        ShardedTsdb {
            registry: RwLock::new(db.registry),
            shards: shards.into_iter().map(RwLock::new).collect(),
            counters: db.counters,
        }
    }

    /// Number of stripes.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, id: MetricId) -> usize {
        id.index() % self.shards.len()
    }

    #[inline]
    fn slot_of(&self, id: MetricId) -> usize {
        id.index() / self.shards.len()
    }

    fn with_stored<R>(&self, id: MetricId, f: impl FnOnce(&Stored) -> R) -> R {
        f(&self.shards[self.shard_of(id)].read()[self.slot_of(id)])
    }

    fn with_stored_mut<R>(&self, id: MetricId, f: impl FnOnce(&mut Stored) -> R) -> R {
        f(&mut self.shards[self.shard_of(id)].write()[self.slot_of(id)])
    }

    fn register_as(
        &self,
        meta: MetricMeta,
        capacity: Option<usize>,
        reserved: bool,
    ) -> Result<MetricId, RegisterError> {
        // The registry write lock is held across the stripe push: it
        // orders concurrent registrations, so each stripe's slots fill
        // densely (stripe s receives ids s, s+N, s+2N, ...).
        let mut registry = self.registry.write();
        let (id, fresh) = registry.register(meta, capacity, reserved)?;
        if let Some(stored) = fresh {
            let mut shard = self.shards[self.shard_of(id)].write();
            debug_assert_eq!(shard.len(), self.slot_of(id));
            shard.push(stored);
        }
        Ok(id)
    }

    /// See [`Tsdb::register`].
    pub fn register(&self, meta: MetricMeta) -> MetricId {
        granted(self.try_register(meta))
    }

    /// See [`Tsdb::try_register`].
    pub fn try_register(&self, meta: MetricMeta) -> Result<MetricId, RegisterError> {
        self.register_as(meta, None, false)
    }

    /// See [`Tsdb::register_with_capacity`].
    pub fn register_with_capacity(&self, meta: MetricMeta, capacity: usize) -> MetricId {
        granted(self.register_as(meta, Some(capacity), false))
    }

    /// See [`Tsdb::register_self`].
    pub fn register_self(&self, meta: MetricMeta) -> MetricId {
        granted(self.register_as(meta, None, true))
    }

    /// See [`Tsdb::set_rollup_policy`].
    pub fn set_rollup_policy(&self, config: Option<RollupConfig>) {
        self.registry.write().default_rollups = config;
    }

    /// See [`Tsdb::enable_rollups`]; backfills under the stripe's write
    /// lock.
    pub fn enable_rollups(&self, id: MetricId, config: &RollupConfig) {
        self.with_stored_mut(id, |s| s.enable_rollups(config));
    }

    /// See [`Tsdb::ensure_rollups`]; check and backfill are atomic under
    /// the stripe's write lock.
    pub fn ensure_rollups(&self, id: MetricId, config: &RollupConfig) -> bool {
        self.with_stored_mut(id, |s| s.ensure_rollups(config))
    }

    /// See [`Tsdb::rollup_hits`]; across all stripes.
    pub fn rollup_hits(&self) -> u64 {
        self.counters.rollup_hits.load(Ordering::Relaxed)
    }

    /// See [`Tsdb::sketch_hits`]; across all stripes.
    pub fn sketch_hits(&self) -> u64 {
        self.counters.sketch_hits.load(Ordering::Relaxed)
    }

    /// Look up a metric id by name.
    pub fn lookup(&self, name: &str) -> Option<MetricId> {
        self.registry.read().by_name.get(name).copied()
    }

    /// Metadata for a registered metric (cloned out of the registry).
    pub fn meta(&self, id: MetricId) -> MetricMeta {
        self.registry.read().metas[id.index()].clone()
    }

    /// Number of registered metrics (cardinality).
    pub fn cardinality(&self) -> usize {
        self.registry.read().metas.len()
    }

    /// All registered metric names in id order (cloned snapshot).
    pub fn names(&self) -> Vec<(String, MetricId)> {
        let registry = self.registry.read();
        registry.names().map(|(n, id)| (n.to_owned(), id)).collect()
    }

    /// See [`Tsdb::total_inserts`]; across all stripes.
    pub fn total_inserts(&self) -> u64 {
        self.counters.inserts.load(Ordering::Relaxed)
    }

    /// See [`Tsdb::self_inserts`]; across all stripes.
    pub fn self_inserts(&self) -> u64 {
        self.counters.self_inserts.load(Ordering::Relaxed)
    }

    /// See [`Tsdb::insert`]; locks only `id`'s stripe.
    pub fn insert(&self, id: MetricId, t: SimTime, value: f64) -> bool {
        self.write(id, t, value).unwrap_or(false)
    }

    #[inline]
    fn write(&self, id: MetricId, t: SimTime, value: f64) -> Result<bool, Reserved> {
        let accepted = self.with_stored_mut(id, |s| s.insert(t, value))?;
        self.counters
            .inserts
            .fetch_add(u64::from(accepted), Ordering::Relaxed);
        Ok(accepted)
    }

    /// See [`Tsdb::try_insert`]. The stripe lock is released before the
    /// registry is read for the refusal's name.
    pub fn try_insert(&self, id: MetricId, t: SimTime, value: f64) -> Result<bool, InsertError> {
        self.write(id, t, value)
            .map_err(|Reserved| self.registry.read().reserved_error(id))
    }

    /// See [`Tsdb::insert_self`].
    pub fn insert_self(&self, id: MetricId, t: SimTime, value: f64) -> bool {
        let ok = self.with_stored_mut(id, |s| s.insert_self(id, t, value));
        self.counters
            .self_inserts
            .fetch_add(u64::from(ok), Ordering::Relaxed);
        ok
    }

    /// See [`Tsdb::insert_batch`].
    ///
    /// Single allocation-free pass holding one stripe write lock at a
    /// time, re-acquired only when the stripe changes — a sweep over
    /// ids sorted by stripe takes each lock exactly once, and the
    /// insert counter is updated once per batch instead of per sample.
    pub fn insert_batch(&self, t: SimTime, batch: &[(MetricId, f64)]) -> usize {
        let mut accepted = 0;
        let mut held: Option<(usize, RwLockWriteGuard<'_, Vec<Stored>>)> = None;
        for &(id, v) in batch {
            let s = self.shard_of(id);
            let guard = match held {
                Some((cur, ref mut guard)) if cur == s => guard,
                _ => {
                    // Release the previous stripe BEFORE blocking on the
                    // next one — holding one lock while waiting on another
                    // would allow AB-BA deadlock between batch writers
                    // sweeping stripes in different orders.
                    drop(held.take());
                    &mut held.insert((s, self.shards[s].write())).1
                }
            };
            accepted += usize::from(guard[self.slot_of(id)].insert(t, v).unwrap_or(false));
        }
        drop(held);
        self.counters
            .inserts
            .fetch_add(accepted as u64, Ordering::Relaxed);
        accepted
    }

    /// Run `f` over one metric's raw ring **and** rollup pyramid under a
    /// single stripe read lock — a consistent snapshot of both tiers
    /// that blocks writers of this stripe only (never the whole store),
    /// and that cannot escape the guard. This is the incremental
    /// exporter's drain primitive: each metric is copied out under its
    /// own short lock hold (see [`crate::export::Exporter`]).
    pub fn with_storage<R>(
        &self,
        id: MetricId,
        f: impl FnOnce(&TimeSeries, Option<&RollupSet>) -> R,
    ) -> R {
        self.with_stored(id, |s| f(&s.raw, s.rollups.as_ref()))
    }

    /// Most recent sample of a metric.
    pub fn latest(&self, id: MetricId) -> Option<Sample> {
        self.with_stored(id, |s| s.raw.latest())
    }

    /// Most recent value of a metric.
    pub fn latest_value(&self, id: MetricId) -> Option<f64> {
        self.latest(id).map(|s| s.value)
    }

    /// See [`Tsdb::window_agg`]; holds only `id`'s stripe read lock.
    pub fn window_agg(
        &self,
        id: MetricId,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
    ) -> Option<f64> {
        let (out, served) = self.with_stored(id, |s| s.window_agg(now, window, agg));
        self.counters.note_served(served);
        out
    }

    /// See [`Tsdb::latest_n_agg`].
    pub fn latest_n_agg(&self, id: MetricId, n: usize, agg: WindowAgg) -> Option<f64> {
        self.with_stored(id, |s| s.latest_n_agg(n, agg))
    }

    /// See [`Tsdb::value_at`].
    pub fn value_at(&self, id: MetricId, t: SimTime) -> Option<f64> {
        self.with_stored(id, |s| s.raw.value_at(t))
    }

    /// See [`Tsdb::resample_into`].
    pub fn resample_into(
        &self,
        id: MetricId,
        t0: SimTime,
        t1: SimTime,
        period: SimDuration,
        agg: WindowAgg,
        out: &mut Vec<Option<f64>>,
    ) {
        let served = self.with_stored(id, |s| s.resample_into(t0, t1, period, agg, out));
        self.counters.note_served(served);
    }

    /// See [`Tsdb::memory_stats`]; takes each stripe's read lock
    /// briefly, one stripe at a time.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut stats = MemoryStats::default();
        for shard in self.shards.iter() {
            shard.read().iter().for_each(|s| s.fold_memory(&mut stats));
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
        // Out-of-order insert is dropped and not counted.
        assert!(!db.insert(id, SimTime::from_secs(1), 5.0));
        assert_eq!(db.total_inserts(), 2);
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
            let legacy = agg.apply_samples(&db.window_view(id, now, w).to_vec());
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
        match db.try_register(meta.clone()) {
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

        let shared = ShardedTsdb::new();
        assert!(shared.try_register(meta).is_err());
        assert_eq!(shared.cardinality(), 0);
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
        // One byte more — in the name or the unit — is a typed refusal
        // on both stores, and nothing is registered.
        let long = "n".repeat(MAX_STR_LEN + 1);
        let shared = ShardedTsdb::new();
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
            assert_eq!(db.try_register(meta.clone()), want);
            assert_eq!(shared.try_register(meta), want);
        }
        assert_eq!(db.cardinality(), 1);
        assert_eq!(shared.cardinality(), 0);
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
    }

    #[test]
    fn self_accounting_survives_the_sharded_move() {
        let mut db = db();
        let user = gauge(&mut db, "u");
        db.insert(user, SimTime::from_secs(1), 1.0);
        let id = db.register_self(MetricMeta::gauge("__self/g", "u", SourceDomain::Software));
        db.insert_self(id, SimTime::from_secs(1), 2.0);
        let shared = ShardedTsdb::from_tsdb(db, 4);
        assert_eq!(shared.total_inserts(), 1);
        assert_eq!(shared.self_inserts(), 1);
        // Reservation carried over: user writes still refused.
        assert!(!shared.insert(id, SimTime::from_secs(2), 3.0));
        assert!(shared.insert_self(id, SimTime::from_secs(2), 3.0));
    }

    // ------------------------------------------------------- sharded

    #[test]
    fn shared_handle_concurrent_reads() {
        let mut db = db();
        let id = gauge(&mut db, "x");
        db.insert(id, SimTime::from_secs(1), 42.0);
        let shared = db.into_shared();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || s.latest_value(MetricId(0)))
            })
            .collect();
        for th in threads {
            assert_eq!(th.join().unwrap(), Some(42.0));
        }
    }

    #[test]
    fn sharded_preserves_tsdb_contents() {
        let mut db = Tsdb::with_retention(64);
        let ids: Vec<MetricId> = (0..40).map(|i| gauge(&mut db, &format!("m{i}"))).collect();
        for t in 0..10u64 {
            for (k, id) in ids.iter().enumerate() {
                db.insert(*id, SimTime::from_secs(t), (t as usize * 100 + k) as f64);
            }
        }
        let total = db.total_inserts();
        let shared = db.into_shared();
        assert_eq!(shared.cardinality(), 40);
        assert_eq!(shared.total_inserts(), total);
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(shared.latest_value(*id), Some((900 + k) as f64));
            assert_eq!(shared.latest_n_agg(*id, 100, WindowAgg::Count), Some(10.0));
        }
        assert_eq!(shared.lookup("m7"), Some(ids[7]));
        assert_eq!(shared.meta(ids[3]).name, "m3");
    }

    #[test]
    fn sharded_concurrent_writers_and_readers() {
        let db = Arc::new(ShardedTsdb::with_config(1024, 8));
        let ids: Vec<MetricId> = (0..32)
            .map(|i| {
                db.register(MetricMeta::gauge(
                    format!("c{i}"),
                    "u",
                    SourceDomain::Hardware,
                ))
            })
            .collect();
        let rounds = 500u64;
        std::thread::scope(|scope| {
            for (w, chunk) in ids.chunks(8).enumerate() {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    for t in 0..rounds {
                        for id in chunk {
                            db.insert(*id, SimTime(t * 10 + w as u64), t as f64);
                        }
                    }
                });
            }
            for _ in 0..4 {
                let db = Arc::clone(&db);
                let ids = ids.clone();
                scope.spawn(move || {
                    for t in 0..rounds {
                        for id in &ids {
                            let v = db.window_agg(
                                *id,
                                SimTime(t * 10),
                                SimDuration::from_secs(5),
                                WindowAgg::Max,
                            );
                            if let Some(v) = v {
                                assert!(v >= 0.0);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(db.total_inserts(), 32 * rounds);
        for id in &ids {
            assert_eq!(db.latest_value(*id), Some((rounds - 1) as f64));
        }
    }

    #[test]
    fn sharded_batch_writers_in_opposite_stripe_orders_do_not_deadlock() {
        // Regression: insert_batch must release the current stripe lock
        // before blocking on the next one, or two writers sweeping
        // stripes in opposite orders AB-BA deadlock.
        let db = Arc::new(ShardedTsdb::with_config(64, 4));
        let ids: Vec<MetricId> = (0..8)
            .map(|i| {
                db.register(MetricMeta::gauge(
                    format!("d{i}"),
                    "u",
                    SourceDomain::Hardware,
                ))
            })
            .collect();
        let fwd: Vec<(MetricId, f64)> = ids.iter().map(|id| (*id, 1.0)).collect();
        let rev: Vec<(MetricId, f64)> = ids.iter().rev().map(|id| (*id, 1.0)).collect();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for batch in [fwd, rev] {
            let db = Arc::clone(&db);
            let done = done_tx.clone();
            std::thread::spawn(move || {
                for t in 0..2000u64 {
                    db.insert_batch(SimTime(t), &batch);
                }
                let _ = done.send(());
            });
        }
        drop(done_tx);
        for _ in 0..2 {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("batch writers deadlocked");
        }
        // The two writers race on the same timestamps, so interleaving
        // legitimately rejects some pushes as out-of-order; what must
        // hold is forward progress and per-series time order.
        assert!(db.total_inserts() >= 2000 * 8);
        for id in &ids {
            assert_eq!(db.latest(*id).unwrap().t, SimTime(1999));
        }
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
    fn adaptive_shard_count_scales_with_cores_and_cardinality() {
        // Core floor: ~4 stripes per core, as a power of two — even for
        // an empty store, because metrics may register after the move
        // into the shared handle (the fleet drivers do) and the store
        // cannot re-stripe later.
        assert_eq!(adaptive_shards(1, 0), 4);
        assert_eq!(adaptive_shards(8, 8), 32);
        assert_eq!(adaptive_shards(8, 640), 32);
        // High cardinality raises the count past the core floor
        // (~64 metrics per stripe), never lowers it.
        assert_eq!(adaptive_shards(1, 640), 16);
        assert_eq!(adaptive_shards(1, 10_000), 256);
        // Bounded above.
        assert_eq!(adaptive_shards(512, 1 << 20), MAX_ADAPTIVE_SHARDS);
        // Degenerate inputs stay sane.
        assert_eq!(adaptive_shards(0, 0), 4);
        // Register-after-share keeps a multi-stripe topology.
        let shared = Tsdb::new().into_shared();
        assert!(shared.n_shards() >= 4);
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
        // The policy survives the move into the sharded store.
        let shared = db.into_shared();
        let late = shared.register(MetricMeta::gauge("late", "u", SourceDomain::Software));
        let has_rollups = |id| shared.with_storage(id, |_, r| r.is_some());
        assert!(!has_rollups(before));
        assert!(has_rollups(after));
        assert!(has_rollups(late));
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
        // Sharded: same contract, and the hit counter migrates.
        let hits = db.rollup_hits();
        assert!(hits > 0);
        let shared = db.into_shared();
        assert_eq!(shared.rollup_hits(), hits);
        assert!(!shared.ensure_rollups(id, &cfg));
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
        // Payloads are held at exact length: the sealed tier costs its
        // payload bytes plus one header per chunk, no allocator slack.
        let payload_and_headers: usize = db
            .series(a)
            .sealed_chunks()
            .map(|c| c.bytes().len() + std::mem::size_of::<crate::chunk::Chunk>())
            .sum();
        assert!(m.compressed_bytes <= payload_and_headers);
        // The sharded store reports the same footprint.
        let shared = db.into_shared();
        assert_eq!(shared.memory_stats(), m);
    }

    #[test]
    fn default_store_retains_like_new() {
        // `Default` is `new()` on both shells: DEFAULT_RETENTION per
        // series, not a zeroed capacity clamped to one sample.
        let mut db = Tsdb::default();
        let shared = ShardedTsdb::default();
        let a = gauge(&mut db, "a");
        let b = shared.register(MetricMeta::gauge("a", "u", SourceDomain::Hardware));
        for t in 0..100u64 {
            db.insert(a, SimTime::from_secs(t), t as f64);
            shared.insert(b, SimTime::from_secs(t), t as f64);
        }
        assert_eq!(db.series(a).len(), 100);
        assert_eq!(shared.with_storage(b, |s, _| s.len()), 100);
    }
}
