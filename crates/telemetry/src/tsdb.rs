//! In-memory time-series store.
//!
//! One [`Tsdb`] instance is the telemetry backbone of a simulated center:
//! sensors append into it, Monitor components of MAPE-K loops read from
//! it. The design follows the constraints the paper raises in §IV —
//! high insert rates, bounded memory under high metric cardinality, and
//! low-latency recent-window reads — rather than durable storage, which
//! production sites delegate to their archive tier.
//!
//! # Read path
//!
//! All window queries resolve through the struct-of-arrays ring's
//! binary-searched [`SampleView`]s (O(log n + k), zero allocation).
//! The aggregate queries ([`Tsdb::window_agg`], [`Tsdb::latest_n_agg`],
//! [`Tsdb::value_at`], the streaming [`Tsdb::resample_into`]) fold
//! [`WindowAgg`]s directly over those views so a Monitor's hot loop never
//! materializes `Vec<Sample>` just to compute a scalar.
//!
//! # Concurrency
//!
//! [`Tsdb`] itself is single-owner (`&mut` insert), the right shape for
//! the deterministic discrete-event world. Threaded runtimes share a
//! [`ShardedTsdb`] instead: the registry sits behind one lock while the
//! series are **striped across N shard locks keyed by `MetricId`**, so a
//! collector sweep inserting into one stripe no longer stalls Monitors
//! reading any other stripe — the lock-contention half of the §IV
//! insert-rate consideration.

use crate::metric::{is_self_metric, InsertError, MetricId, MetricMeta, RegisterError};
use crate::rollup::{self, RollupConfig, RollupServed, RollupSet};
use crate::series::{RetentionPolicy, Sample, SampleView, TimeSeries};
use crate::window::{AggAccum, WindowAgg};
use moda_sim::{SimDuration, SimTime};
use parking_lot::RwLock;
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

    /// Enable (or reconfigure) rollups, backfilling from retained raw
    /// samples so the pyramid and the ring agree from the first query.
    fn enable_rollups(&mut self, config: &RollupConfig) {
        self.rollups = Some(RollupSet::from_series(config, &self.raw));
    }

    fn window_agg(
        &self,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
    ) -> (Option<f64>, RollupServed) {
        rollup::plan_window_agg(&self.raw, self.rollups.as_ref(), now, window, agg)
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

/// Registry + storage for all metrics of one managed system.
#[derive(Debug, Default)]
pub struct Tsdb {
    metas: Vec<MetricMeta>,
    series: Vec<Stored>,
    by_name: HashMap<String, MetricId>,
    default_capacity: usize,
    default_rollups: Option<RollupConfig>,
    inserts: u64,
    self_inserts: u64,
    rollup_hits: AtomicU64,
    sketch_hits: AtomicU64,
}

/// Thread-shared handle used by the threaded loop runtime: a sharded,
/// lock-striped store (previously `Arc<RwLock<Tsdb>>` with one global
/// lock).
pub type SharedTsdb = Arc<ShardedTsdb>;

impl Tsdb {
    /// Empty store with [`DEFAULT_RETENTION`] per series.
    pub fn new() -> Self {
        Tsdb {
            metas: Vec::new(),
            series: Vec::new(),
            by_name: HashMap::new(),
            default_capacity: DEFAULT_RETENTION,
            default_rollups: None,
            inserts: 0,
            self_inserts: 0,
            rollup_hits: AtomicU64::new(0),
            sketch_hits: AtomicU64::new(0),
        }
    }

    /// Empty store with a custom default per-series retention.
    pub fn with_retention(capacity: usize) -> Self {
        Tsdb {
            default_capacity: capacity.max(1),
            ..Tsdb::new()
        }
    }

    /// Move into a thread-shared sharded handle (registry under one
    /// lock, series lock-striped). The stripe count is sized by
    /// [`adaptive_shards`] from `std::thread::available_parallelism()`
    /// and the store's cardinality at the moment of the move; use
    /// [`ShardedTsdb::from_tsdb`] to pin an explicit count instead
    /// (tests/benches comparing topologies).
    pub fn into_shared(self) -> SharedTsdb {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let shards = adaptive_shards(cores, self.cardinality());
        Arc::new(ShardedTsdb::from_tsdb(self, shards))
    }

    /// Register a metric, returning its dense id. Re-registering the same
    /// name returns the existing id (idempotent), so sensors can register
    /// defensively. Panics on names in the reserved
    /// [`crate::metric::SELF_NAMESPACE`] and on names or units over the
    /// export wire's length limit — use [`Tsdb::try_register`] when the
    /// name is not statically known to be user-owned and short.
    pub fn register(&mut self, meta: MetricMeta) -> MetricId {
        assert!(
            !is_self_metric(&meta.name),
            "metric name {:?} is in the reserved self-telemetry namespace",
            meta.name
        );
        self.register_unchecked(meta, false)
    }

    /// [`Tsdb::register`] with the reserved `__self/` namespace and
    /// names or units over the export wire's length limit refused as a
    /// typed error instead of a panic — the entry point for names
    /// originating outside the program text (wire ingest, config).
    pub fn try_register(&mut self, meta: MetricMeta) -> Result<MetricId, RegisterError> {
        if is_self_metric(&meta.name) {
            return Err(RegisterError::ReservedNamespace { name: meta.name });
        }
        meta.check_wire_limit()?;
        Ok(self.register_unchecked(meta, false))
    }

    /// Scrape-only registration into the reserved `__self/` namespace
    /// (idempotent on name). Panics if the name is **not** reserved —
    /// self-telemetry must be namespaced so it cannot shadow user data.
    pub fn register_self(&mut self, meta: MetricMeta) -> MetricId {
        assert!(
            is_self_metric(&meta.name),
            "self-telemetry metric {:?} must start with {:?}",
            meta.name,
            crate::metric::SELF_NAMESPACE
        );
        self.register_unchecked(meta, true)
    }

    fn register_unchecked(&mut self, meta: MetricMeta, reserved: bool) -> MetricId {
        if let Err(e) = meta.check_wire_limit() {
            panic!("{e}");
        }
        if let Some(&id) = self.by_name.get(&meta.name) {
            return id;
        }
        let id = MetricId(self.metas.len() as u32);
        self.by_name.insert(meta.name.clone(), id);
        self.metas.push(meta);
        self.series.push(Stored::new(
            self.default_capacity,
            self.default_rollups.as_ref(),
            reserved,
        ));
        id
    }

    /// Register with explicit retention capacity for this series.
    /// Reserved-namespace names panic as in [`Tsdb::register`].
    pub fn register_with_capacity(&mut self, meta: MetricMeta, capacity: usize) -> MetricId {
        let fresh = !self.by_name.contains_key(&meta.name);
        let id = self.register(meta);
        if fresh {
            self.series[id.index()] =
                Stored::new(capacity.max(1), self.default_rollups.as_ref(), false);
        }
        id
    }

    /// Rollup pyramid applied to metrics registered **after** this call
    /// (`None` disables). Existing metrics are untouched — use
    /// [`Tsdb::enable_rollups`] for those.
    pub fn set_rollup_policy(&mut self, config: Option<RollupConfig>) {
        self.default_rollups = config;
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
        let stored = &mut self.series[id.index()];
        if stored.rollups.is_some() {
            return false;
        }
        stored.enable_rollups(config);
        true
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
        let stored = &mut self.series[id.index()];
        if stored.reserved {
            return false;
        }
        let ok = stored.push(t, value);
        if ok {
            self.inserts += 1;
        }
        ok
    }

    /// [`Tsdb::insert`] with reserved-namespace refusal as a typed error:
    /// `Err` when `id` is a `__self/` series, otherwise `Ok(accepted)`.
    pub fn try_insert(
        &mut self,
        id: MetricId,
        t: SimTime,
        value: f64,
    ) -> Result<bool, InsertError> {
        if self.series[id.index()].reserved {
            return Err(InsertError::ReservedMetric {
                id,
                name: self.metas[id.index()].name.clone(),
            });
        }
        Ok(self.insert(id, t, value))
    }

    /// Scrape-only append to a reserved `__self/` series (panics if `id`
    /// is not reserved). Accounted under [`Tsdb::self_inserts`], not
    /// [`Tsdb::total_inserts`].
    pub fn insert_self(&mut self, id: MetricId, t: SimTime, value: f64) -> bool {
        let stored = &mut self.series[id.index()];
        assert!(
            stored.reserved,
            "insert_self on non-reserved metric {id} ({:?})",
            self.metas[id.index()].name
        );
        let ok = stored.push(t, value);
        if ok {
            self.self_inserts += 1;
        }
        ok
    }

    /// Append a batch of `(metric, value)` observations at one timestamp —
    /// the shape a sensor sweep produces.
    pub fn insert_batch(&mut self, t: SimTime, batch: &[(MetricId, f64)]) {
        for &(id, v) in batch {
            self.insert(id, t, v);
        }
    }

    /// Immutable access to a series (the raw ring; rollups are reached
    /// through [`Tsdb::rollups`] or implicitly via the aggregate queries).
    pub fn series(&self, id: MetricId) -> &TimeSeries {
        &self.series[id.index()].raw
    }

    /// Most recent sample of a metric.
    pub fn latest(&self, id: MetricId) -> Option<Sample> {
        self.series[id.index()].raw.latest()
    }

    /// Most recent value of a metric.
    pub fn latest_value(&self, id: MetricId) -> Option<f64> {
        self.latest(id).map(|s| s.value)
    }

    /// Zero-allocation view of `id`'s samples in the trailing `window`
    /// ending at `now`.
    pub fn window_view(&self, id: MetricId, now: SimTime, window: SimDuration) -> SampleView<'_> {
        self.series[id.index()].raw.window_view(now, window)
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
        self.note_served(served);
        out
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

    /// Fold `agg` over the last `n` samples without materializing them.
    /// `None` when the series is empty. Count-based, so always raw.
    pub fn latest_n_agg(&self, id: MetricId, n: usize, agg: WindowAgg) -> Option<f64> {
        agg_of_view(&self.series[id.index()].raw.last_n_view(n), agg)
    }

    /// Linearly interpolated value of `id` at `t` (O(log n); `None`
    /// outside the retained span).
    pub fn value_at(&self, id: MetricId, t: SimTime) -> Option<f64> {
        self.series[id.index()].raw.value_at(t)
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
        self.note_served(served);
    }

    /// Run `f` over one metric's full storage — the raw ring and its
    /// optional rollup pyramid — as a single consistent snapshot. On
    /// this single-owner store that is trivially true; on
    /// [`ShardedTsdb::with_storage`] the same shape holds the metric's
    /// stripe read lock for exactly the duration of `f`, which is what
    /// the incremental exporter ([`crate::export`]) builds on.
    pub fn with_storage<R>(
        &self,
        id: MetricId,
        f: impl FnOnce(&TimeSeries, Option<&RollupSet>) -> R,
    ) -> R {
        let stored = &self.series[id.index()];
        f(&stored.raw, stored.rollups.as_ref())
    }

    /// All registered metric names (registry order = id order).
    pub fn names(&self) -> impl Iterator<Item = (&str, MetricId)> + '_ {
        self.metas
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.as_str(), MetricId(i as u32)))
    }

    /// Memory footprint of all series, split by storage tier.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut stats = MemoryStats::default();
        for s in &self.series {
            s.fold_memory(&mut stats);
        }
        stats
    }

    /// Apply a raw-retention policy to every registered series
    /// (evicting immediately where the new target is smaller). Series
    /// registered later keep the default policy; re-apply after bulk
    /// registration.
    pub fn set_retention_policy(&mut self, policy: RetentionPolicy) {
        for s in &mut self.series {
            s.raw.set_retention_policy(policy);
        }
    }

    /// Apply a raw-retention policy to one series.
    pub fn set_metric_retention_policy(&mut self, id: MetricId, policy: RetentionPolicy) {
        self.series[id.index()].raw.set_retention_policy(policy);
    }
}

fn agg_of_view(view: &SampleView<'_>, agg: WindowAgg) -> Option<f64> {
    if view.is_empty() {
        None
    } else {
        Some(view.aggregate(agg))
    }
}

/// Shared streaming-resample kernel over a located view.
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

// ------------------------------------------------------------ sharding

/// A sharded, lock-striped concurrent time-series store.
///
/// The registry (name → id, metadata) lives under one `RwLock`; series
/// storage is striped across `n_shards` independently locked shards with
/// `shard = id % n_shards`, `slot = id / n_shards` (both pure arithmetic,
/// so the hot insert/read path never consults the registry). Writers to
/// one stripe proceed concurrently with readers and writers of every
/// other stripe.
#[derive(Debug)]
pub struct ShardedTsdb {
    registry: RwLock<Registry>,
    shards: Box<[RwLock<Shard>]>,
    inserts: AtomicU64,
    self_inserts: AtomicU64,
    rollup_hits: AtomicU64,
    sketch_hits: AtomicU64,
    default_capacity: usize,
}

#[derive(Debug, Default)]
struct Registry {
    metas: Vec<MetricMeta>,
    by_name: HashMap<String, MetricId>,
    /// Rollup pyramid applied to newly registered metrics.
    default_rollups: Option<RollupConfig>,
}

#[derive(Debug, Default)]
struct Shard {
    series: Vec<Stored>,
}

impl ShardedTsdb {
    /// Empty store with [`DEFAULT_RETENTION`] and [`DEFAULT_SHARDS`].
    pub fn new() -> Self {
        Self::with_config(DEFAULT_RETENTION, DEFAULT_SHARDS)
    }

    /// Empty store with explicit retention and stripe count.
    pub fn with_config(capacity: usize, n_shards: usize) -> Self {
        let n_shards = n_shards.max(1);
        ShardedTsdb {
            registry: RwLock::new(Registry::default()),
            shards: (0..n_shards)
                .map(|_| RwLock::new(Shard::default()))
                .collect(),
            inserts: AtomicU64::new(0),
            self_inserts: AtomicU64::new(0),
            rollup_hits: AtomicU64::new(0),
            sketch_hits: AtomicU64::new(0),
            default_capacity: capacity.max(1),
        }
    }

    /// Build from a single-owner [`Tsdb`], distributing its series across
    /// stripes and preserving ids, data, rollups, and counters.
    pub fn from_tsdb(db: Tsdb, n_shards: usize) -> Self {
        let sharded = Self::with_config(db.default_capacity, n_shards);
        {
            let mut reg = sharded.registry.write();
            reg.metas = db.metas;
            reg.by_name = db.by_name;
            reg.default_rollups = db.default_rollups;
        }
        for (i, series) in db.series.into_iter().enumerate() {
            let id = MetricId(i as u32);
            let mut shard = sharded.shards[sharded.shard_of(id)].write();
            debug_assert_eq!(shard.series.len(), sharded.slot_of(id));
            shard.series.push(series);
        }
        sharded.inserts.store(db.inserts, Ordering::Relaxed);
        sharded
            .self_inserts
            .store(db.self_inserts, Ordering::Relaxed);
        sharded
            .rollup_hits
            .store(db.rollup_hits.load(Ordering::Relaxed), Ordering::Relaxed);
        sharded
            .sketch_hits
            .store(db.sketch_hits.load(Ordering::Relaxed), Ordering::Relaxed);
        sharded
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

    /// Register a metric (idempotent on name), returning its dense id.
    /// Panics on names in the reserved `__self/` namespace and on names
    /// or units over the export wire's length limit — use
    /// [`ShardedTsdb::try_register`] for externally sourced names.
    pub fn register(&self, meta: MetricMeta) -> MetricId {
        assert!(
            !is_self_metric(&meta.name),
            "metric name {:?} is in the reserved self-telemetry namespace",
            meta.name
        );
        self.register_with_capacity_opt(meta, None, false)
    }

    /// [`ShardedTsdb::register`] with the reserved namespace and
    /// over-limit names or units refused as a typed error instead of a
    /// panic.
    pub fn try_register(&self, meta: MetricMeta) -> Result<MetricId, RegisterError> {
        if is_self_metric(&meta.name) {
            return Err(RegisterError::ReservedNamespace { name: meta.name });
        }
        meta.check_wire_limit()?;
        Ok(self.register_with_capacity_opt(meta, None, false))
    }

    /// Scrape-only registration into the reserved `__self/` namespace
    /// (idempotent on name; panics if the name is not reserved). A
    /// read-lock fast path makes per-scrape re-registration cheap.
    pub fn register_self(&self, meta: MetricMeta) -> MetricId {
        assert!(
            is_self_metric(&meta.name),
            "self-telemetry metric {:?} must start with {:?}",
            meta.name,
            crate::metric::SELF_NAMESPACE
        );
        if let Some(id) = self.lookup(&meta.name) {
            return id;
        }
        self.register_with_capacity_opt(meta, None, true)
    }

    /// Register with explicit retention for this series. Reserved names
    /// panic as in [`ShardedTsdb::register`].
    pub fn register_with_capacity(&self, meta: MetricMeta, capacity: usize) -> MetricId {
        assert!(
            !is_self_metric(&meta.name),
            "metric name {:?} is in the reserved self-telemetry namespace",
            meta.name
        );
        self.register_with_capacity_opt(meta, Some(capacity.max(1)), false)
    }

    fn register_with_capacity_opt(
        &self,
        meta: MetricMeta,
        capacity: Option<usize>,
        reserved: bool,
    ) -> MetricId {
        if let Err(e) = meta.check_wire_limit() {
            panic!("{e}");
        }
        let mut reg = self.registry.write();
        if let Some(&id) = reg.by_name.get(&meta.name) {
            return id;
        }
        let id = MetricId(reg.metas.len() as u32);
        reg.by_name.insert(meta.name.clone(), id);
        reg.metas.push(meta);
        // Ids are assigned sequentially, so each stripe's slots fill
        // densely (stripe s receives ids s, s+N, s+2N, ...). Holding the
        // registry write lock orders concurrent registrations.
        let mut shard = self.shards[self.shard_of(id)].write();
        debug_assert_eq!(shard.series.len(), self.slot_of(id));
        shard.series.push(Stored::new(
            capacity.unwrap_or(self.default_capacity),
            reg.default_rollups.as_ref(),
            reserved,
        ));
        id
    }

    /// Rollup pyramid applied to metrics registered **after** this call
    /// (`None` disables). Existing metrics are untouched — use
    /// [`ShardedTsdb::enable_rollups`] for those.
    pub fn set_rollup_policy(&self, config: Option<RollupConfig>) {
        self.registry.write().default_rollups = config;
    }

    /// Enable (or reconfigure) the rollup tier for one metric,
    /// backfilling from its retained raw samples under the stripe's
    /// write lock. **Resets** any existing pyramid — sealed buckets that
    /// outlived raw retention are lost; use
    /// [`ShardedTsdb::ensure_rollups`] when the metric may already have
    /// one.
    pub fn enable_rollups(&self, id: MetricId, config: &RollupConfig) {
        let slot = self.slot_of(id);
        self.shards[self.shard_of(id)].write().series[slot].enable_rollups(config);
    }

    /// Enable rollups only when the metric has none yet (check and
    /// backfill atomically under the stripe write lock). Returns whether
    /// rollups were newly enabled.
    pub fn ensure_rollups(&self, id: MetricId, config: &RollupConfig) -> bool {
        let slot = self.slot_of(id);
        let mut shard = self.shards[self.shard_of(id)].write();
        let stored = &mut shard.series[slot];
        if stored.rollups.is_some() {
            return false;
        }
        stored.enable_rollups(config);
        true
    }

    /// Whether the metric currently maintains rollups.
    pub fn rollups_enabled(&self, id: MetricId) -> bool {
        let slot = self.slot_of(id);
        self.shards[self.shard_of(id)].read().series[slot]
            .rollups
            .is_some()
    }

    /// Lifetime count of aggregate/resample queries served (at least
    /// partly) from rollup buckets across all stripes.
    pub fn rollup_hits(&self) -> u64 {
        self.rollup_hits.load(Ordering::Relaxed)
    }

    /// Lifetime count of percentile queries served from bucket quantile
    /// sketches across all stripes (a subset of
    /// [`ShardedTsdb::rollup_hits`]); raw-fallback percentiles count in
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

    /// Lifetime accepted-insert count of **user** samples across all
    /// stripes. Scrape writes are accounted separately
    /// ([`ShardedTsdb::self_inserts`]).
    pub fn total_inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Lifetime accepted-insert count of self-telemetry scrape samples
    /// (the `__self/` namespace) across all stripes.
    pub fn self_inserts(&self) -> u64 {
        self.self_inserts.load(Ordering::Relaxed)
    }

    /// All registered metric names in id order (cloned snapshot).
    pub fn names(&self) -> Vec<(String, MetricId)> {
        let reg = self.registry.read();
        reg.metas
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.clone(), MetricId(i as u32)))
            .collect()
    }

    /// Append one sample, locking only `id`'s stripe. Writes to reserved
    /// `__self/` series are refused (false); see
    /// [`ShardedTsdb::try_insert`] for the typed form.
    pub fn insert(&self, id: MetricId, t: SimTime, value: f64) -> bool {
        let slot = self.slot_of(id);
        let ok = {
            let mut shard = self.shards[self.shard_of(id)].write();
            let stored = &mut shard.series[slot];
            if stored.reserved {
                return false;
            }
            stored.push(t, value)
        };
        if ok {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// [`ShardedTsdb::insert`] with reserved-namespace refusal as a
    /// typed error: `Err` when `id` is a `__self/` series.
    pub fn try_insert(&self, id: MetricId, t: SimTime, value: f64) -> Result<bool, InsertError> {
        let slot = self.slot_of(id);
        let reserved = {
            // Separate probe: taking the registry lock for the error's
            // name while holding the stripe lock would invert the
            // registry → stripe order used by registration.
            let shard = self.shards[self.shard_of(id)].read();
            shard.series[slot].reserved
        };
        if reserved {
            return Err(InsertError::ReservedMetric {
                id,
                name: self.meta(id).name,
            });
        }
        Ok(self.insert(id, t, value))
    }

    /// Scrape-only append to a reserved `__self/` series (panics if `id`
    /// is not reserved). Accounted under [`ShardedTsdb::self_inserts`].
    pub fn insert_self(&self, id: MetricId, t: SimTime, value: f64) -> bool {
        let slot = self.slot_of(id);
        let ok = {
            let mut shard = self.shards[self.shard_of(id)].write();
            let stored = &mut shard.series[slot];
            assert!(stored.reserved, "insert_self on non-reserved metric {id}");
            stored.push(t, value)
        };
        if ok {
            self.self_inserts.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Append a batch of `(metric, value)` observations at one timestamp.
    ///
    /// Single allocation-free pass holding one stripe write lock at a
    /// time, re-acquired only when the stripe changes — a sweep over
    /// ids sorted by stripe takes each lock exactly once, and the
    /// insert counter is updated once per batch instead of per sample.
    pub fn insert_batch(&self, t: SimTime, batch: &[(MetricId, f64)]) -> usize {
        let mut accepted = 0u64;
        let mut held: Option<(usize, parking_lot::RwLockWriteGuard<'_, Shard>)> = None;
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
                    held = Some((s, self.shards[s].write()));
                    &mut held.as_mut().expect("just set").1
                }
            };
            let stored = &mut guard.series[self.slot_of(id)];
            if !stored.reserved && stored.push(t, v) {
                accepted += 1;
            }
        }
        drop(held);
        self.inserts.fetch_add(accepted, Ordering::Relaxed);
        accepted as usize
    }

    /// Run `f` over a zero-allocation view of the series (the view cannot
    /// escape the stripe's read guard).
    pub fn with_series<R>(&self, id: MetricId, f: impl FnOnce(&TimeSeries) -> R) -> R {
        self.with_stored(id, |s| f(&s.raw))
    }

    fn with_stored<R>(&self, id: MetricId, f: impl FnOnce(&Stored) -> R) -> R {
        let slot = self.slot_of(id);
        let guard = self.shards[self.shard_of(id)].read();
        f(&guard.series[slot])
    }

    /// Run `f` over one metric's raw ring **and** rollup pyramid under a
    /// single stripe read lock — a consistent snapshot of both tiers
    /// that blocks writers of this stripe only (never the whole store).
    /// This is the incremental exporter's drain primitive: each metric
    /// is copied out under its own short lock hold (see
    /// [`crate::export::Exporter`]).
    pub fn with_storage<R>(
        &self,
        id: MetricId,
        f: impl FnOnce(&TimeSeries, Option<&RollupSet>) -> R,
    ) -> R {
        self.with_stored(id, |s| f(&s.raw, s.rollups.as_ref()))
    }

    /// Most recent sample of a metric.
    pub fn latest(&self, id: MetricId) -> Option<Sample> {
        self.with_series(id, |s| s.latest())
    }

    /// Most recent value of a metric.
    pub fn latest_value(&self, id: MetricId) -> Option<f64> {
        self.latest(id).map(|s| s.value)
    }

    /// Fold `agg` over the trailing window, allocation-free, holding only
    /// `id`'s stripe read lock. `None` when the window holds no samples.
    /// Served from sealed rollup buckets when the metric has them and
    /// `agg` is [rollup-servable](WindowAgg::rollup_servable) — or a
    /// `Percentile` on a sketched pyramid (see [`Tsdb::window_agg`]).
    pub fn window_agg(
        &self,
        id: MetricId,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
    ) -> Option<f64> {
        let (out, served) = self.with_stored(id, |s| s.window_agg(now, window, agg));
        self.note_served(served);
        out
    }

    /// Fold `agg` over the last `n` samples, allocation-free.
    pub fn latest_n_agg(&self, id: MetricId, n: usize, agg: WindowAgg) -> Option<f64> {
        self.with_series(id, |s| agg_of_view(&s.last_n_view(n), agg))
    }

    /// Linearly interpolated value of `id` at `t`.
    pub fn value_at(&self, id: MetricId, t: SimTime) -> Option<f64> {
        self.with_series(id, |s| s.value_at(t))
    }

    /// Streaming resample into a caller-owned buffer (see
    /// [`Tsdb::resample_into`]); sealed rollup buckets are spliced in
    /// when available.
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
        self.note_served(served);
    }

    /// Memory footprint of all series, split by storage tier (takes
    /// each stripe's read lock briefly, one stripe at a time).
    pub fn memory_stats(&self) -> MemoryStats {
        let mut stats = MemoryStats::default();
        for shard in self.shards.iter() {
            let shard = shard.read();
            for s in &shard.series {
                s.fold_memory(&mut stats);
            }
        }
        stats
    }

    /// Apply a raw-retention policy to every registered series (one
    /// stripe write lock at a time; series registered later keep the
    /// default policy).
    pub fn set_retention_policy(&self, policy: RetentionPolicy) {
        for shard in self.shards.iter() {
            let mut shard = shard.write();
            for s in &mut shard.series {
                s.raw.set_retention_policy(policy);
            }
        }
    }

    /// Apply a raw-retention policy to one series.
    pub fn set_metric_retention_policy(&self, id: MetricId, policy: RetentionPolicy) {
        let mut shard = self.shards[self.shard_of(id)].write();
        let slot = self.slot_of(id);
        shard.series[slot].raw.set_retention_policy(policy);
    }
}

impl Default for ShardedTsdb {
    fn default() -> Self {
        Self::new()
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
        db.insert_batch(SimTime::from_secs(3), &[(a, 1.0), (b, 2.0)]);
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
    #[should_panic(expected = "reserved self-telemetry namespace")]
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
        db.insert_batch(SimTime::from_secs(1), &[(id, 2.0)]);
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
    fn sharded_scrape_is_the_only_writer_of_self_series() {
        let shared = ShardedTsdb::with_config(64, 4);
        let id = shared.register_self(MetricMeta::counter(
            "__self/export.batches",
            "count",
            SourceDomain::Software,
        ));
        // register_self is idempotent (read-lock fast path).
        assert_eq!(
            shared.register_self(MetricMeta::counter(
                "__self/export.batches",
                "count",
                SourceDomain::Software,
            )),
            id
        );
        assert!(!shared.insert(id, SimTime::from_secs(1), 1.0));
        assert_eq!(shared.insert_batch(SimTime::from_secs(1), &[(id, 2.0)]), 0);
        assert!(shared.try_insert(id, SimTime::from_secs(1), 3.0).is_err());
        assert_eq!(shared.total_inserts(), 0);
        assert!(shared.insert_self(id, SimTime::from_secs(1), 4.0));
        assert_eq!(shared.latest_value(id), Some(4.0));
        assert_eq!(shared.total_inserts(), 0);
        assert_eq!(shared.self_inserts(), 1);
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
    fn sharded_register_insert_query() {
        let db = ShardedTsdb::with_config(128, 4);
        let ids: Vec<MetricId> = (0..10)
            .map(|i| {
                db.register(MetricMeta::gauge(
                    format!("s{i}"),
                    "u",
                    SourceDomain::Software,
                ))
            })
            .collect();
        // Idempotent re-registration.
        assert_eq!(
            db.register(MetricMeta::gauge("s3", "u", SourceDomain::Software)),
            ids[3]
        );
        let batch: Vec<(MetricId, f64)> = ids.iter().map(|id| (*id, id.0 as f64)).collect();
        assert_eq!(db.insert_batch(SimTime::from_secs(1), &batch), 10);
        assert_eq!(db.total_inserts(), 10);
        for id in &ids {
            assert_eq!(db.latest_value(*id), Some(id.0 as f64));
        }
        // Out-of-order rejected, not counted.
        assert!(!db.insert(ids[0], SimTime::ZERO, 1.0));
        assert_eq!(db.total_inserts(), 10);
        let names = db.names();
        assert_eq!(names.len(), 10);
        assert_eq!(names[2].0, "s2");
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
        assert!(!shared.rollups_enabled(before));
        assert!(shared.rollups_enabled(after));
        assert!(shared.rollups_enabled(late));
    }

    #[test]
    fn sharded_rollup_window_agg_matches_raw() {
        use crate::rollup::RollupConfig;
        let db = ShardedTsdb::with_config(1 << 14, 4);
        let id = db.register(MetricMeta::gauge("r", "u", SourceDomain::Hardware));
        db.enable_rollups(id, &RollupConfig::standard());
        for s in 0..5000u64 {
            db.insert(id, SimTime::from_secs(s), ((s * 31) % 101) as f64);
        }
        let now = SimTime::from_secs(4999);
        let w = SimDuration::from_secs(4000);
        let got = db.window_agg(id, now, w, WindowAgg::Max).unwrap();
        let want = db.with_series(id, |s| s.window_view(now, w).aggregate(WindowAgg::Max));
        assert_eq!(got, want);
        assert!(db.rollup_hits() > 0);
        // Resample through rollups matches the raw kernel.
        let mut got = Vec::new();
        db.resample_into(
            id,
            SimTime::ZERO,
            SimTime::from_secs(4800),
            SimDuration::from_secs(600),
            WindowAgg::Sum,
            &mut got,
        );
        let mut want = Vec::new();
        db.with_series(id, |s| {
            resample_view(
                &s.range_view(SimTime::ZERO, SimTime::from_secs(4800)),
                SimTime::ZERO,
                SimTime::from_secs(4800),
                SimDuration::from_secs(600),
                WindowAgg::Sum,
                &mut want,
            )
        });
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            match (g, w) {
                (Some(g), Some(w)) => assert!((g - w).abs() < 1e-6),
                (g, w) => assert_eq!(g, w),
            }
        }
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
    fn sharded_resample_matches_unsharded() {
        let mut db = Tsdb::new();
        let id = gauge(&mut db, "x");
        for t in 0..50u64 {
            db.insert(id, SimTime::from_secs(t), (t % 7) as f64);
        }
        let mut want = Vec::new();
        db.resample_into(
            id,
            SimTime::ZERO,
            SimTime::from_secs(50),
            SimDuration::from_secs(10),
            WindowAgg::Mean,
            &mut want,
        );
        let shared = db.into_shared();
        let mut got = Vec::new();
        shared.resample_into(
            id,
            SimTime::ZERO,
            SimTime::from_secs(50),
            SimDuration::from_secs(10),
            WindowAgg::Mean,
            &mut got,
        );
        assert_eq!(got, want);
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
    fn retention_policy_plumbs_through_both_stores() {
        let policy = crate::series::RetentionPolicy {
            compressed_retention_multiplier: 4,
        };
        let mut db = Tsdb::with_retention(64);
        let a = gauge(&mut db, "a");
        db.set_retention_policy(policy);
        for t in 0..1000u64 {
            db.insert(a, SimTime::from_secs(t), t as f64);
        }
        assert_eq!(db.series(a).len(), 256);
        let shared = ShardedTsdb::with_config(64, 4);
        let b = shared.register(MetricMeta::gauge("b", "u", SourceDomain::Hardware));
        shared.set_metric_retention_policy(b, policy);
        for t in 0..1000u64 {
            shared.insert(b, SimTime::from_secs(t), t as f64);
        }
        assert_eq!(shared.with_series(b, |s| s.len()), 256);
    }
}
