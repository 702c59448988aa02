//! Continuous rollup/downsampling tier — the Knowledge-layer retention
//! path of the store.
//!
//! The paper's autonomy loops lean on a Knowledge layer that keeps
//! "historical and aggregated system state" cheap to query: production
//! ODA (DCDB Wintermute, LRZ) lives on **pre-aggregated rollups**, not
//! raw-sample scans. This module maintains, per opted-in metric, a small
//! pyramid of derived aggregate series — by default one-minute and
//! one-hour buckets — folded **incrementally on insert** (O(1) per tier
//! per sample), so a month-wide Analyze window reads O(window/3600)
//! pre-folded buckets instead of O(samples) raw points.
//!
//! # Buckets, tiers, and sealing
//!
//! A [`RollupBucket`] stores `count`/`sum`/`min`/`max`/`last` for one
//! aligned time slot `[k·res, (k+1)·res)`. That state is enough to
//! reconstruct `Count`, `Sum`, `Mean`, `Min`, `Max`, and `Last` exactly;
//! it can *bound* but not reproduce order statistics (see
//! [`WindowAgg::rollup_servable`]). For [`WindowAgg::Percentile`] a
//! sketched pyramid ([`RollupConfig::with_sketches`]) embeds one
//! mergeable [`QuantileSketch`] per bucket: the finest tier folds values
//! into its active bucket's sketch on insert, and when a fine bucket
//! seals, its sketch **cascades** (merges) into the coarser tier's
//! active bucket — so a sealed 1h bucket's sketch holds exactly its
//! hour of values without ever re-reading them. Sketch-served
//! percentiles carry the sketch's documented
//! [`SKETCH_RELATIVE_ERROR`](crate::sketch::SKETCH_RELATIVE_ERROR)
//! (1 %) relative-error bound; sketch-free pyramids keep the raw
//! fallback, which is the right trade for high-cardinality short-lived
//! metrics (the compact per-job pyramids) that never ask for wide
//! percentiles.
//!
//! A [`RollupRing`] keeps a bounded ring of non-empty buckets at one
//! resolution; a [`RollupSet`] stacks rings fine→coarse per
//! [`RollupConfig`]. The newest bucket of each ring is **unsealed**: the
//! raw series accepts further samples with timestamps inside it (raw
//! appends are monotone, so every *earlier* bucket can never change and
//! is **sealed**). Queries only trust sealed buckets; the unsealed tail
//! is always spliced from raw samples, which keeps the planner correct
//! even if folding ever runs behind inserts (e.g. a batched background
//! rollup stage).
//!
//! # The planner
//!
//! [`plan_window_agg`] / [`plan_resample_into`] serve a query span by
//! cascading through the tiers, coarsest first: the largest aligned,
//! sealed, retained sub-span comes from the coarse ring, and each ragged
//! edge recurses into the next-finer ring, bottoming out at binary-
//! searched raw [`SampleView`](crate::series::SampleView)s. A day-wide
//! window over 1 Hz data therefore costs ~24 hour-bucket merges + ~60
//! minute-bucket merges + a sub-minute raw splice, instead of 86 400 raw
//! folds. Because every sub-span that rollups cannot serve falls through
//! to raw, the planned result is **exactly equal** to the raw-path result
//! for `Count`/`Min`/`Max`/`Last` (and equal up to float re-association
//! for `Sum`/`Mean`) whenever the raw ring still retains the window —
//! the invariant the property tests in `tests/props.rs` pin down. When
//! raw has already evicted old samples, rollups keep answering from
//! their longer retention: that is the Knowledge-layer feature.
//!
//! `Percentile` runs through the **same cascade** with a [`SketchAcc`]
//! instead of a [`RollupAcc`]: sealed-bucket sketches merge across the
//! aligned span and raw samples fold in only at the ragged edges and
//! the unsealed tail, so a day-wide p99 costs O(window/res) sketch
//! merges instead of an O(window) selection — and, like the scalar
//! aggregates, keeps answering beyond raw retention. The whole planned
//! answer (splices included) carries the sketch's 1 % relative-error
//! bound; windows narrower than the finest tier stay on the exact raw
//! selection path.

use crate::series::TimeSeries;
use crate::sketch::QuantileSketch;
use crate::window::WindowAgg;
use moda_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One-minute rollup resolution.
pub const RES_1M: SimDuration = SimDuration(60_000);
/// One-hour rollup resolution.
pub const RES_1H: SimDuration = SimDuration(3_600_000);

impl WindowAgg {
    /// Whether this aggregation can be reconstructed **exactly** from
    /// count/sum/min/max/last rollup buckets. `Percentile` cannot (order
    /// statistics need the raw values); it is still planner-servable —
    /// within the sketch's 1 % error bound — when the pyramid embeds
    /// quantile sketches ([`RollupConfig::with_sketches`]), and falls
    /// back to raw samples otherwise.
    pub fn rollup_servable(&self) -> bool {
        !matches!(self, WindowAgg::Percentile(_))
    }
}

/// How the planner answered a query — the accounting shape behind the
/// store's `rollup_hits`/`sketch_hits` counters, so fleet stats can
/// distinguish sketch-served percentiles from raw fallbacks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RollupServed {
    /// At least one sealed rollup bucket was merged into the answer.
    pub rollup: bool,
    /// The answer was a percentile served by merging bucket sketches
    /// (implies `rollup`).
    pub sketch: bool,
}

/// Aggregate state of one sealed-or-growing time slot `[start, start+res)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupBucket {
    /// Aligned slot start (inclusive).
    pub start: SimTime,
    /// Samples folded into the slot.
    pub count: u64,
    /// Sum of folded values.
    pub sum: f64,
    /// Minimum folded value.
    pub min: f64,
    /// Maximum folded value.
    pub max: f64,
    /// Most recently folded value (raw appends are time-ordered, so this
    /// is the value of the slot's newest sample).
    pub last: f64,
    /// Quantile sketch of the slot's values, present iff the pyramid is
    /// sketched ([`RollupConfig::with_sketches`]). The finest tier folds
    /// values in directly; coarser tiers receive whole finer-bucket
    /// sketches on seal, so a **sealed** bucket's sketch always holds
    /// exactly `count` values. The newest (unsealed) bucket of a coarse
    /// tier lags behind its scalar stats — which is fine, because the
    /// planner never serves unsealed buckets.
    pub sketch: Option<QuantileSketch>,
}

impl RollupBucket {
    fn new(start: SimTime, v: f64, sketch: Option<QuantileSketch>) -> Self {
        RollupBucket {
            start,
            count: 1,
            sum: v,
            min: v,
            max: v,
            last: v,
            sketch,
        }
    }

    #[inline]
    fn fold(&mut self, v: f64, into_sketch: bool) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
        if into_sketch {
            if let Some(sk) = &mut self.sketch {
                sk.fold(v);
            }
        }
    }
}

/// One tier of the rollup pyramid: a resolution and how many non-empty
/// buckets of it to retain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RollupTier {
    /// Bucket width.
    pub res: SimDuration,
    /// Retained bucket count (ring capacity).
    pub capacity: usize,
}

impl RollupTier {
    /// Tier at `res` retaining `capacity` buckets.
    pub fn new(res: SimDuration, capacity: usize) -> Self {
        RollupTier { res, capacity }
    }
}

/// Retention configuration of a metric's rollup pyramid.
///
/// Tiers are kept sorted fine→coarse; resolutions must be positive and
/// strictly increasing. The standard pyramid is 1-minute buckets for two
/// days plus 1-hour buckets for ninety days (~242 KiB per metric);
/// [`RollupConfig::compact`] trims that for high-cardinality, short-lived
/// metrics such as per-job progress counters.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupConfig {
    tiers: Vec<RollupTier>,
    sketches: bool,
}

impl RollupConfig {
    /// Pyramid from explicit tiers (sorted fine→coarse internally).
    ///
    /// # Panics
    /// If no tiers are given, a resolution is zero, or two tiers share a
    /// resolution.
    pub fn new(mut tiers: Vec<RollupTier>) -> Self {
        assert!(!tiers.is_empty(), "rollup config needs at least one tier");
        tiers.sort_by_key(|t| t.res.0);
        for pair in tiers.windows(2) {
            assert!(
                pair[0].res.0 < pair[1].res.0,
                "rollup tiers must have distinct resolutions"
            );
        }
        for t in &tiers {
            assert!(t.res.0 > 0, "rollup resolution must be positive");
            assert!(t.capacity >= 2, "rollup tier must retain >= 2 buckets");
        }
        RollupConfig {
            tiers,
            sketches: false,
        }
    }

    /// Embed one mergeable [`QuantileSketch`] per bucket, making wide
    /// [`WindowAgg::Percentile`] queries planner-servable within the
    /// sketch's 1 % relative-error bound. Opt-in: sketches cost ~8 bytes
    /// per distinct value magnitude per bucket, which compact
    /// high-cardinality pyramids (per-job metrics) usually skip.
    ///
    /// # Panics
    /// If any coarser tier's resolution is not an integer multiple of
    /// the next finer one. The 1m→1h cascade merges a sealing fine
    /// bucket's sketch **whole** into the coarse bucket covering it, so
    /// every fine slot must nest inside exactly one coarse slot — with
    /// non-nested resolutions (say 60 s under 90 s) a fine bucket would
    /// straddle two coarse slots and silently corrupt their sketches.
    /// (Scalar stats fold per tier independently and have no such
    /// constraint.)
    pub fn with_sketches(mut self) -> Self {
        for pair in self.tiers.windows(2) {
            assert!(
                pair[1].res.0 % pair[0].res.0 == 0,
                "sketched pyramids need each coarser resolution to be an integer multiple \
                 of the next finer one ({} ms does not nest into {} ms)",
                pair[0].res.0,
                pair[1].res.0
            );
        }
        self.sketches = true;
        self
    }

    /// Whether buckets of this pyramid carry quantile sketches.
    pub fn sketches(&self) -> bool {
        self.sketches
    }

    /// 1 m × 2880 (48 h) + 1 h × 2160 (90 days) — the standard
    /// Knowledge-layer pyramid (~242 KiB per metric).
    pub fn standard() -> Self {
        Self::new(vec![
            RollupTier::new(RES_1M, 2880),
            RollupTier::new(RES_1H, 2160),
        ])
    }

    /// 1 m × 180 (3 h) + 1 h × 336 (2 weeks) — compact pyramid
    /// (~25 KiB per metric) for high-cardinality per-job metrics.
    pub fn compact() -> Self {
        Self::new(vec![
            RollupTier::new(RES_1M, 180),
            RollupTier::new(RES_1H, 336),
        ])
    }

    /// The tiers, fine→coarse.
    pub fn tiers(&self) -> &[RollupTier] {
        &self.tiers
    }
}

impl Default for RollupConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// Bounded ring of non-empty aggregate buckets at one resolution,
/// ordered by slot start.
///
/// Only slots that received samples are stored (a telemetry gap costs no
/// memory); eviction is oldest-first by bucket count, so retained
/// coverage is always a contiguous time suffix.
#[derive(Debug, Clone)]
pub struct RollupRing {
    res: u64,
    capacity: usize,
    sketched: bool,
    buckets: VecDeque<RollupBucket>,
    /// Lifetime count of buckets evicted by capacity. Every evicted
    /// bucket was sealed (eviction happens when a *newer* slot opens),
    /// so `evicted + len().saturating_sub(1)` is the lifetime sealed
    /// bucket count — the accounting identity the exporter uses to
    /// surface sealed buckets lost before they could ship.
    evicted: u64,
    /// Wire-fed mode: the ring is populated from **already-sealed**
    /// buckets absorbed off the export wire (a downstream aggregation
    /// store) instead of folded from raw inserts. Every retained bucket
    /// — the newest included — is immutable, so the sealed region spans
    /// the whole ring and the planner may serve the newest bucket too.
    all_sealed: bool,
}

impl RollupRing {
    fn new(tier: RollupTier, sketched: bool) -> Self {
        RollupRing {
            res: tier.res.0,
            capacity: tier.capacity.max(2),
            sketched,
            buckets: VecDeque::new(),
            evicted: 0,
            all_sealed: false,
        }
    }

    /// Ring in wire-fed mode (see the `all_sealed` field): buckets
    /// arrive sealed off the export wire via
    /// [`RollupRing::wire_slot_mut`], never via [`RollupRing::fold`].
    pub(crate) fn new_wire(res: SimDuration, capacity: usize) -> Self {
        assert!(res.0 > 0, "wire ring resolution must be positive");
        RollupRing {
            res: res.0,
            capacity: capacity.max(2),
            sketched: false,
            buckets: VecDeque::new(),
            evicted: 0,
            all_sealed: true,
        }
    }

    /// Number of retained buckets the planner may serve: all of them in
    /// wire-fed mode, all but the (mutable) newest otherwise.
    #[inline]
    fn sealed_len(&self) -> usize {
        if self.all_sealed {
            self.buckets.len()
        } else {
            self.buckets.len().saturating_sub(1)
        }
    }

    /// Bucket width of this ring.
    pub fn res(&self) -> SimDuration {
        SimDuration(self.res)
    }

    /// Retained (non-empty) bucket count.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether no buckets are retained.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Retention capacity in buckets.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime count of (sealed) buckets this ring has evicted.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Iterate retained buckets oldest → newest.
    pub fn buckets(&self) -> impl Iterator<Item = &RollupBucket> {
        self.buckets.iter()
    }

    /// Iterate only the **sealed** buckets, oldest → newest: every
    /// retained bucket except the newest, which raw appends can still
    /// mutate. Sealed buckets are immutable forever after, which makes
    /// them the exportable unit — the incremental exporter
    /// ([`crate::export`]) ships each sealed bucket exactly once and
    /// never has to revisit it.
    pub fn sealed_buckets(&self) -> impl Iterator<Item = &RollupBucket> {
        self.buckets.iter().take(self.sealed_len())
    }

    /// The sealed buckets with `start >= from`, oldest → newest,
    /// located by binary search (buckets are start-ordered). This is
    /// the exporter's steady-state shape: a drain resuming from its
    /// watermark touches O(log n + delta) buckets, not the whole
    /// retained history.
    pub fn sealed_buckets_from(&self, from: SimTime) -> impl Iterator<Item = &RollupBucket> {
        let sealed = self.sealed_len();
        let lo = self
            .buckets
            .partition_point(|b| b.start.0 < from.0)
            .min(sealed);
        self.buckets.range(lo..sealed)
    }

    /// Exclusive upper bound of the sealed region: the newest retained
    /// bucket's slot start (`None` when empty) — or, on a wire-fed ring
    /// whose every bucket is sealed, the end of the newest slot. Every
    /// bucket with `start <` this is sealed and can never change.
    pub fn sealed_until(&self) -> Option<SimTime> {
        let back = self.buckets.back()?;
        Some(if self.all_sealed {
            SimTime(back.start.0.saturating_add(self.res))
        } else {
            back.start
        })
    }

    /// Span `[oldest.start, newest.start + res)` currently represented,
    /// or `None` when empty. Every raw sample accepted since the oldest
    /// retained bucket began is folded into some retained bucket.
    pub fn coverage(&self) -> Option<(SimTime, SimTime)> {
        let first = self.buckets.front()?;
        let last = self.buckets.back()?;
        Some((first.start, SimTime(last.start.0.saturating_add(self.res))))
    }

    /// Start of the oldest retained bucket.
    fn oldest_start(&self) -> Option<u64> {
        self.buckets.front().map(|b| b.start.0)
    }

    /// End of the sealed region: everything before the newest bucket's
    /// start can no longer change (raw appends are monotone in time).
    /// The newest bucket itself is unsealed and never served — except on
    /// wire-fed rings, where every absorbed bucket is already sealed.
    fn sealed_end(&self) -> Option<u64> {
        self.sealed_until().map(|t| t.0)
    }

    /// Fold one accepted raw sample into its slot. Timestamps arrive
    /// non-decreasing (the raw ring rejects out-of-order samples before
    /// they reach the rollup tier), so folds only ever target the newest
    /// slot or open a newer one.
    ///
    /// `value_into_sketch` says whether `v` folds into the active
    /// bucket's sketch (true only for the finest tier of a sketched
    /// pyramid; coarser tiers get their sketch content via cascade —
    /// see [`RollupSet::fold`], which runs the cascade *before* any
    /// ring folds the sample that triggers a seal).
    fn fold(&mut self, t: SimTime, v: f64, value_into_sketch: bool) {
        let Some(start) = self.slot_start(t) else {
            return;
        };
        match self.buckets.back_mut() {
            Some(b) if b.start.0 == start => b.fold(v, value_into_sketch),
            Some(b) if b.start.0 > start => {
                // Unreachable through the store (raw rejects out-of-order
                // samples); dropped defensively rather than corrupting
                // the sealed region.
                debug_assert!(false, "rollup fold earlier than newest bucket");
            }
            _ => {
                if self.buckets.len() == self.capacity {
                    self.buckets.pop_front();
                    self.evicted += 1;
                }
                let sketch = self.sketched.then(|| {
                    let mut sk = QuantileSketch::new();
                    if value_into_sketch {
                        sk.fold(v);
                    }
                    sk
                });
                self.buckets
                    .push_back(RollupBucket::new(SimTime(start), v, sketch));
            }
        }
    }

    /// Aligned start of the slot containing `t` (`None` on arithmetic
    /// overflow, in which case the fold is dropped).
    #[inline]
    fn slot_start(&self, t: SimTime) -> Option<u64> {
        t.0.checked_div(self.res)
            .and_then(|k| k.checked_mul(self.res))
    }

    /// Whether folding a sample at `t` would open a new slot, sealing
    /// the current newest bucket.
    #[inline]
    fn seals_at(&self, t: SimTime) -> bool {
        match (self.buckets.back(), self.slot_start(t)) {
            (Some(b), Some(start)) => start > b.start.0,
            _ => false,
        }
    }

    /// The newest bucket's sketch, if any.
    fn back_sketch(&self) -> Option<&QuantileSketch> {
        self.buckets.back().and_then(|b| b.sketch.as_ref())
    }

    /// Merge a finer ring's just-sealed sketch into this ring's active
    /// (newest) bucket — the 1m→1h cascade step. Must run before this
    /// ring folds the sample that triggered the seal, so the cascade
    /// lands in the bucket that contains the sealed slot.
    fn absorb_sketch(&mut self, sealed: &QuantileSketch, scratch: &mut Vec<(i32, u32)>) {
        if let Some(b) = self.buckets.back_mut() {
            if let Some(dst) = &mut b.sketch {
                dst.merge_with_scratch(sealed, scratch);
            }
        }
    }

    /// Merge every retained bucket with `lo <= start < hi` into `acc`,
    /// oldest first. Returns the number of buckets merged. Zero-count
    /// buckets are skipped: they only exist on wire-fed rings, as
    /// placeholders for a bucket whose scalar record has not arrived
    /// yet, and carry no data (merging one would poison `last`).
    fn fold_range<A: SpanFold>(&self, lo: u64, hi: u64, acc: &mut A) -> usize {
        let from = self.buckets.partition_point(|b| b.start.0 < lo);
        let mut merged = 0;
        for b in self.buckets.iter().skip(from) {
            if b.start.0 >= hi {
                break;
            }
            if b.count == 0 {
                continue;
            }
            acc.merge_bucket(b);
            merged += 1;
        }
        merged
    }

    /// Room for `additional` more buckets, as far as the ring's capacity
    /// goes: what a restore of that many in-order buckets asks first.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let room = self.capacity.saturating_sub(self.buckets.len());
        self.buckets.reserve(additional.min(room));
    }

    /// Mutable access to the sealed bucket at slot `start` of a
    /// **wire-fed** ring, inserting an empty placeholder (count 0) if the
    /// slot is not retained yet — the receiving half of the export wire's
    /// `bucket`/`sketch` records. Keeps the ring start-ordered whatever
    /// order slots arrive in (re-exports after a node-side pyramid
    /// rebuild legitimately revisit old slots). Returns `None` when the
    /// ring is full and `start` is older than the oldest retained slot
    /// (absorbing it would punch a hole in the contiguous retention
    /// suffix); inserting a fresh newer slot into a full ring evicts the
    /// oldest, like the fold path.
    pub(crate) fn wire_slot_mut(&mut self, start: SimTime) -> Option<&mut RollupBucket> {
        debug_assert!(self.all_sealed, "wire_slot_mut on a fold-fed ring");
        // Wire traffic (and snapshot restore) overwhelmingly arrives
        // start-ordered: hit the newest slot / plain append without the
        // binary search.
        match self.buckets.back().map(|b| b.start.0) {
            Some(back) if back == start.0 => return self.buckets.back_mut(),
            Some(back) if back < start.0 => {
                if self.buckets.len() == self.capacity {
                    self.buckets.pop_front();
                    self.evicted += 1;
                }
                self.buckets.push_back(RollupBucket {
                    start,
                    count: 0,
                    sum: 0.0,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                    last: f64::NAN,
                    sketch: None,
                });
                return self.buckets.back_mut();
            }
            _ => {}
        }
        let idx = self.buckets.partition_point(|b| b.start.0 < start.0);
        if self.buckets.get(idx).is_some_and(|b| b.start.0 == start.0) {
            return self.buckets.get_mut(idx);
        }
        let mut idx = idx;
        if self.buckets.len() == self.capacity {
            if idx == 0 {
                return None;
            }
            self.buckets.pop_front();
            self.evicted += 1;
            idx -= 1;
        }
        self.buckets.insert(
            idx,
            RollupBucket {
                start,
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                last: f64::NAN,
                sketch: None,
            },
        );
        self.buckets.get_mut(idx)
    }
}

/// A metric's rollup pyramid: one [`RollupRing`] per configured tier,
/// fine→coarse.
#[derive(Debug, Clone)]
pub struct RollupSet {
    rings: Vec<RollupRing>,
    sketched: bool,
    /// Reusable staging buffer for cascade merges (kept warm so sealing
    /// a bucket stays allocation-free after the first few cascades).
    cascade_scratch: Vec<(i32, u32)>,
}

impl RollupSet {
    /// Empty pyramid per `config`.
    pub fn new(config: &RollupConfig) -> Self {
        RollupSet {
            rings: config
                .tiers
                .iter()
                .map(|&t| RollupRing::new(t, config.sketches))
                .collect(),
            sketched: config.sketches,
            cascade_scratch: Vec::new(),
        }
    }

    /// Pyramid backfilled from a series' retained raw samples — the shape
    /// used when rollups are enabled on a metric that already has data.
    pub fn from_series(config: &RollupConfig, series: &TimeSeries) -> Self {
        let mut set = Self::new(config);
        for s in series.iter() {
            set.fold(s.t, s.value);
        }
        set
    }

    /// Fold one accepted sample into every tier (O(tiers),
    /// allocation-free once bucket/scratch capacities are warm). On a
    /// sketched pyramid the value additionally folds into the finest
    /// tier's active sketch, and any bucket this fold is about to seal
    /// first cascades its sketch (merged by reference, no clone) into
    /// the next-coarser tier's still-current bucket — so a coarse
    /// bucket always absorbs every finer sketch of its slot before it
    /// can itself seal. Cascades run fine→coarse before any ring folds
    /// `t`: when a minute and its hour seal on the same sample, the
    /// minute lands in the sealing hour, which then cascades onward
    /// already complete.
    pub fn fold(&mut self, t: SimTime, v: f64) {
        if self.sketched {
            for i in 0..self.rings.len().saturating_sub(1) {
                if self.rings[i].seals_at(t) {
                    let (fine, coarse) = self.rings.split_at_mut(i + 1);
                    if let Some(sealed) = fine[i].back_sketch() {
                        coarse[0].absorb_sketch(sealed, &mut self.cascade_scratch);
                    }
                }
            }
        }
        for (i, ring) in self.rings.iter_mut().enumerate() {
            ring.fold(t, v, i == 0);
        }
    }

    /// Empty **wire-fed** pyramid: no tiers yet; rings appear on demand
    /// as sealed buckets of new resolutions arrive off the export wire
    /// (see [`RollupSet::wire_ring_mut`]). Starts sketch-free; the first
    /// absorbed sketch column flips [`RollupSet::sketched`] on, making
    /// percentiles planner-servable downstream.
    pub(crate) fn new_wire() -> Self {
        RollupSet {
            rings: Vec::new(),
            sketched: false,
            cascade_scratch: Vec::new(),
        }
    }

    /// The wire-fed ring at `res`, created (capacity `capacity`) and
    /// inserted in fine→coarse position on first sight.
    pub(crate) fn wire_ring_mut(&mut self, res: SimDuration, capacity: usize) -> &mut RollupRing {
        let idx = match self.rings.binary_search_by_key(&res.0, |r| r.res) {
            Ok(i) => i,
            Err(i) => {
                self.rings.insert(i, RollupRing::new_wire(res, capacity));
                i
            }
        };
        &mut self.rings[idx]
    }

    /// Mark the pyramid as carrying quantile sketches (wire-fed sets,
    /// on the first absorbed sketch column).
    pub(crate) fn set_sketched(&mut self) {
        self.sketched = true;
    }

    /// The rings, fine→coarse.
    pub fn rings(&self) -> &[RollupRing] {
        &self.rings
    }

    /// Whether buckets carry quantile sketches (percentiles servable).
    pub fn sketched(&self) -> bool {
        self.sketched
    }

    /// Finest (smallest-resolution) tier width.
    pub fn finest_res(&self) -> SimDuration {
        SimDuration(self.rings.first().map(|r| r.res).unwrap_or(u64::MAX))
    }

    /// Heap bytes held by this pyramid: every ring's bucket store plus
    /// embedded sketches and the cascade scratch (memory-budget
    /// accounting for [`crate::tsdb::MemoryStats`]).
    pub fn mem_bytes(&self) -> usize {
        let buckets: usize = self
            .rings
            .iter()
            .map(|ring| {
                ring.buckets.capacity() * std::mem::size_of::<RollupBucket>()
                    + ring
                        .buckets
                        .iter()
                        .filter_map(|b| b.sketch.as_ref())
                        .map(QuantileSketch::mem_bytes)
                        .sum::<usize>()
            })
            .sum();
        buckets
            + self.rings.capacity() * std::mem::size_of::<RollupRing>()
            + self.cascade_scratch.capacity() * std::mem::size_of::<(i32, u32)>()
    }
}

/// What the planner's cascading span fold pours into: raw values at
/// the spliced edges, whole sealed buckets everywhere else. Implemented
/// by [`RollupAcc`] (scalar aggregates) and [`SketchAcc`] (percentiles).
pub trait SpanFold {
    /// Fold one raw sample value (edge/tail splice).
    fn push_value(&mut self, v: f64);
    /// Merge one sealed bucket (later in time than everything so far).
    fn merge_bucket(&mut self, b: &RollupBucket);
}

/// Streaming combiner for rollup buckets and raw splices: the same
/// count/sum/min/max/last state as a bucket, merged in time order.
#[derive(Debug, Clone, Copy)]
pub struct RollupAcc {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
}

impl Default for RollupAcc {
    fn default() -> Self {
        Self::new()
    }
}

impl RollupAcc {
    /// Empty accumulator.
    pub fn new() -> Self {
        RollupAcc {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: f64::NAN,
        }
    }

    /// Clear for reuse.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Fold one raw value.
    #[inline]
    pub fn push_value(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
    }

    /// Merge one pre-folded bucket (must be later in time than everything
    /// merged so far, so `last` stays the newest value).
    #[inline]
    pub fn merge_bucket(&mut self, b: &RollupBucket) {
        self.count += b.count;
        self.sum += b.sum;
        self.min = self.min.min(b.min);
        self.max = self.max.max(b.max);
        self.last = b.last;
    }

    /// Samples folded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Finish as `agg`, `None` when nothing was folded (the empty-window
    /// shape). `Percentile` goes through [`SketchAcc`] and must not
    /// reach here.
    pub fn finish(&self, agg: WindowAgg) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(match agg {
            WindowAgg::Count => self.count as f64,
            WindowAgg::Sum => self.sum,
            WindowAgg::Mean => self.sum / self.count as f64,
            WindowAgg::Min => self.min,
            WindowAgg::Max => self.max,
            WindowAgg::Last => self.last,
            WindowAgg::Percentile(_) => {
                unreachable!("Percentile folds through SketchAcc, not RollupAcc")
            }
        })
    }
}

impl SpanFold for RollupAcc {
    #[inline]
    fn push_value(&mut self, v: f64) {
        RollupAcc::push_value(self, v);
    }

    #[inline]
    fn merge_bucket(&mut self, b: &RollupBucket) {
        RollupAcc::merge_bucket(self, b);
    }
}

/// Streaming quantile combiner for the planner's percentile path: a
/// dense-counter [`QuantileAcc`](crate::sketch::QuantileAcc) that
/// absorbs sealed-bucket sketches across the aligned span (one counter
/// add per sketch entry — no sorted rewrites) and folds raw values at
/// the spliced edges. Reusable across resample buckets via
/// [`SketchAcc::reset`] with allocations kept warm.
#[derive(Debug, Clone, Default)]
pub struct SketchAcc {
    acc: crate::sketch::QuantileAcc,
}

impl SketchAcc {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear for the next span, keeping allocations warm.
    pub fn reset(&mut self) {
        self.acc.reset();
    }

    /// Values folded so far.
    pub fn count(&self) -> u64 {
        self.acc.count()
    }

    /// Finish as the `q`-quantile, `None` when nothing was folded (the
    /// empty-window shape, matching the raw path's `None`).
    pub fn finish(&self, q: f64) -> Option<f64> {
        if self.acc.is_empty() {
            None
        } else {
            Some(self.acc.quantile(q))
        }
    }
}

impl SpanFold for SketchAcc {
    #[inline]
    fn push_value(&mut self, v: f64) {
        self.acc.fold(v);
    }

    fn merge_bucket(&mut self, b: &RollupBucket) {
        match &b.sketch {
            Some(sk) => self.acc.merge_sketch(sk),
            // Unreachable: the planner only routes percentiles here for
            // sketched pyramids, whose buckets all carry sketches.
            None => debug_assert!(false, "sketch-path merge of a sketch-free bucket"),
        }
    }
}

/// Serve the half-open span `[lo, hi)` (raw milliseconds) into `acc`:
/// the coarsest ring contributes its aligned, sealed, retained sub-span;
/// the ragged edges recurse into finer rings and bottom out at the raw
/// series. Returns the number of rollup buckets merged.
fn fold_span<A: SpanFold>(
    rings: &[RollupRing],
    raw: &TimeSeries,
    lo: u64,
    hi: u64,
    acc: &mut A,
) -> usize {
    if lo >= hi {
        return 0;
    }
    let Some((ring, finer)) = rings.split_last() else {
        for v in raw.range_view(SimTime(lo), SimTime(hi)).values() {
            acc.push_value(v);
        }
        return 0;
    };
    // Aligned candidate span inside [lo, hi), clamped to what the ring
    // retains (oldest bucket) and has sealed (everything before the
    // newest bucket). The unsealed tail bucket is never served; the tail
    // edge recursion splices it from finer tiers and ultimately raw.
    let aligned_lo = lo.div_ceil(ring.res).saturating_mul(ring.res);
    let aligned_hi = hi / ring.res * ring.res;
    let (c0, c1) = match (ring.oldest_start(), ring.sealed_end()) {
        (Some(oldest), Some(sealed)) => (aligned_lo.max(oldest), aligned_hi.min(sealed)),
        _ => (1, 0),
    };
    if c0 >= c1 {
        return fold_span(finer, raw, lo, hi, acc);
    }
    let mut merged = fold_span(finer, raw, lo, c0, acc);
    merged += ring.fold_range(c0, c1, acc);
    merged += fold_span(finer, raw, c1, hi, acc);
    merged
}

/// Serve the half-open span `[t0, t1)` into a **caller-supplied**
/// accumulator through the same coarsest-first cascade as
/// [`plan_window_agg`] — the aggregation-tier entry point, where one
/// accumulator pools many metrics before finishing (e.g. a cluster-wide
/// percentile merging every node's sealed-bucket sketches, or a pooled
/// scalar aggregate across a fleet). Sub-spans no tier can serve bottom
/// out at the raw series, exactly like the single-metric planner; the
/// accumulator's [`SpanFold::push_value`] sees every spliced raw value,
/// so a caller can count raw reads (the fleet store's zero-raw-read
/// assertion rides on this). Returns the number of sealed rollup
/// buckets merged.
pub fn fold_span_into<A: SpanFold>(
    raw: &TimeSeries,
    rollups: Option<&RollupSet>,
    t0: SimTime,
    t1: SimTime,
    acc: &mut A,
) -> usize {
    let rings: &[RollupRing] = rollups.map(|s| s.rings()).unwrap_or(&[]);
    fold_span(rings, raw, t0.0, t1.0, acc)
}

thread_local! {
    /// Reusable accumulator for sketch-served window percentiles — see
    /// the comment at its use site in [`plan_window_agg`].
    static WINDOW_SKETCH_ACC: std::cell::RefCell<SketchAcc> =
        std::cell::RefCell::new(SketchAcc::new());
}

/// Planner-backed trailing-window aggregate over `(now - window, now]`.
///
/// Routes through the rollup pyramid when the window is at least one
/// finest-tier bucket wide and `agg` is either a servable scalar or a
/// `Percentile` on a sketched pyramid; otherwise (and for every sub-span
/// rollups cannot serve) falls back to the raw binary-searched view.
/// Returns the aggregate and how it was served.
pub fn plan_window_agg(
    raw: &TimeSeries,
    rollups: Option<&RollupSet>,
    now: SimTime,
    window: SimDuration,
    agg: WindowAgg,
) -> (Option<f64>, RollupServed) {
    if let Some(set) = rollups {
        if window.0 >= set.finest_res().0 {
            // (t0, now] == [t0 + 1, now + 1) on integer-millisecond time.
            let lo = now.0.saturating_sub(window.0).saturating_add(1);
            let hi = now.0.saturating_add(1);
            if let WindowAgg::Percentile(q) = agg {
                if set.sketched() {
                    // The store's `&self` query path cannot thread a
                    // caller-owned scratch through here, so the warm
                    // dense counters live per thread (capacity bounded
                    // by the observed key range, ~8 B per distinct value
                    // magnitude) instead of being reallocated per query.
                    let (out, merged) = WINDOW_SKETCH_ACC.with(|cell| {
                        let mut acc = cell.borrow_mut();
                        acc.reset();
                        let merged = fold_span(set.rings(), raw, lo, hi, &mut *acc);
                        (acc.finish(q), merged)
                    });
                    if merged > 0 {
                        return (
                            out,
                            RollupServed {
                                rollup: true,
                                sketch: true,
                            },
                        );
                    }
                    // No sealed bucket intersected the window (e.g. the
                    // whole span sits in the unsealed tail): fall
                    // through to the exact raw selection below, so a
                    // query accounted as a raw fallback really is exact
                    // — the sketch's error bound only ever applies to
                    // sketch-served answers.
                }
            } else {
                let mut acc = RollupAcc::new();
                let merged = fold_span(set.rings(), raw, lo, hi, &mut acc);
                // Even when no sealed bucket intersected the window
                // (merged == 0, e.g. everything sits in the unsealed
                // tail), the accumulator already holds the complete raw
                // fold of the span — finishing it here avoids
                // re-scanning the same samples through the fallback
                // below.
                return (
                    acc.finish(agg),
                    RollupServed {
                        rollup: merged > 0,
                        sketch: false,
                    },
                );
            }
        }
    }
    let view = raw.window_view(now, window);
    let out = if view.is_empty() {
        None
    } else {
        Some(view.aggregate(agg))
    };
    (out, RollupServed::default())
}

/// Planner-backed streaming resample of `[t0, t1)` into `period` buckets
/// (see [`crate::tsdb::Tsdb::resample_into`] for the output shape).
///
/// Each output bucket is served independently through the same cascade
/// as [`plan_window_agg`]; with `t0` and `period` aligned to a tier's
/// resolution a sealed bucket costs O(period/res) merges and no raw
/// reads at all.
///
/// Returns `None` when the query is not plannable (no rollups, a
/// sub-bucket `period`, or a `Percentile` on a sketch-free pyramid) and
/// `out` is untouched — the caller must fall back to the raw resample
/// kernel. Otherwise fills `out` and returns `Some(served)`, where
/// `served.rollup` says whether any rollup bucket actually contributed
/// (false means every bucket was spliced from raw, e.g. an
/// entirely-unsealed span) and `served.sketch` marks sketch-served
/// percentile output.
pub fn plan_resample_into(
    raw: &TimeSeries,
    rollups: Option<&RollupSet>,
    t0: SimTime,
    t1: SimTime,
    period: SimDuration,
    agg: WindowAgg,
    out: &mut Vec<Option<f64>>,
) -> Option<RollupServed> {
    assert!(period.0 > 0, "resample period must be positive");
    let set = match rollups {
        Some(set) if period.0 >= set.finest_res().0 => set,
        _ => return None,
    };
    let sketch_q = match agg {
        WindowAgg::Percentile(q) if set.sketched() => Some(q),
        WindowAgg::Percentile(_) => return None,
        _ => None,
    };
    out.clear();
    let nb = (t1.0.saturating_sub(t0.0)).div_ceil(period.0) as usize;
    out.reserve(nb);
    let mut used = false;
    let mut acc = RollupAcc::new();
    let mut sketch_acc = SketchAcc::new();
    let mut exact_scratch = Vec::new();
    for i in 0..nb as u64 {
        let lo = t0.0.saturating_add(i * period.0);
        let hi = t0.0.saturating_add((i + 1) * period.0).min(t1.0);
        match sketch_q {
            Some(q) => {
                sketch_acc.reset();
                if fold_span(set.rings(), raw, lo, hi, &mut sketch_acc) > 0 {
                    used = true;
                    out.push(sketch_acc.finish(q));
                } else {
                    // No sealed bucket in this slot (unsealed tail or a
                    // pure-raw stretch): serve it exactly from the raw
                    // view, like the window-agg fallback.
                    let view = raw.range_view(SimTime(lo), SimTime(hi));
                    out.push((!view.is_empty()).then(|| {
                        view.aggregate_with_scratch(WindowAgg::Percentile(q), &mut exact_scratch)
                    }));
                }
            }
            None => {
                acc.reset();
                used |= fold_span(set.rings(), raw, lo, hi, &mut acc) > 0;
                out.push(acc.finish(agg));
            }
        }
    }
    Some(RollupServed {
        rollup: used,
        sketch: used && sketch_q.is_some(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pairs: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new(1 << 16);
        for &(t, v) in pairs {
            assert!(s.push(SimTime(t), v));
        }
        s
    }

    fn minute_cfg(cap: usize) -> RollupConfig {
        RollupConfig::new(vec![RollupTier::new(RES_1M, cap)])
    }

    #[test]
    fn buckets_fold_incrementally() {
        let cfg = minute_cfg(16);
        let mut set = RollupSet::new(&cfg);
        for s in 0..180u64 {
            set.fold(SimTime::from_secs(s), s as f64);
        }
        let ring = &set.rings()[0];
        assert_eq!(ring.len(), 3);
        let b: Vec<&RollupBucket> = ring.buckets().collect();
        assert_eq!(b[0].start, SimTime::ZERO);
        assert_eq!(b[0].count, 60);
        assert_eq!(b[0].min, 0.0);
        assert_eq!(b[0].max, 59.0);
        assert_eq!(b[0].last, 59.0);
        assert_eq!(b[0].sum, (0..60).sum::<u64>() as f64);
        assert_eq!(b[2].start, SimTime::from_secs(120));
    }

    #[test]
    fn ring_evicts_oldest_and_reports_coverage() {
        let cfg = minute_cfg(2);
        let mut set = RollupSet::new(&cfg);
        for m in 0..5u64 {
            set.fold(SimTime::from_secs(m * 60), m as f64);
        }
        let ring = &set.rings()[0];
        assert_eq!(ring.len(), 2);
        let (c0, c1) = ring.coverage().unwrap();
        assert_eq!(c0, SimTime::from_secs(180));
        assert_eq!(c1, SimTime::from_secs(300));
    }

    #[test]
    fn gaps_cost_no_buckets() {
        let cfg = minute_cfg(8);
        let mut set = RollupSet::new(&cfg);
        set.fold(SimTime::from_secs(0), 1.0);
        set.fold(SimTime::from_secs(600), 2.0); // nine empty minutes skipped
        assert_eq!(set.rings()[0].len(), 2);
    }

    #[test]
    fn planner_matches_raw_on_sealed_span() {
        let pairs: Vec<(u64, f64)> = (0..600u64)
            .map(|s| (s * 1000, ((s * 7919) % 101) as f64))
            .collect();
        let raw = series(&pairs);
        let set = RollupSet::from_series(&minute_cfg(32), &raw);
        let now = SimTime::from_secs(599);
        let window = SimDuration::from_secs(480);
        for agg in [
            WindowAgg::Count,
            WindowAgg::Sum,
            WindowAgg::Mean,
            WindowAgg::Min,
            WindowAgg::Max,
            WindowAgg::Last,
        ] {
            let (planned, served) = plan_window_agg(&raw, Some(&set), now, window, agg);
            assert!(served.rollup, "{agg:?} should touch rollups");
            assert!(!served.sketch, "{agg:?} is a scalar, not a sketch read");
            let view = raw.window_view(now, window);
            let want = view.aggregate(agg);
            let got = planned.unwrap();
            assert!(
                (got - want).abs() < 1e-9 * want.abs().max(1.0),
                "{agg:?}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn percentile_on_sketchfree_pyramid_falls_back_to_raw() {
        let raw = series(&[(0, 1.0), (60_000, 2.0), (120_000, 3.0), (180_000, 4.0)]);
        let set = RollupSet::from_series(&minute_cfg(8), &raw);
        assert!(!set.sketched());
        let (out, served) = plan_window_agg(
            &raw,
            Some(&set),
            SimTime::from_secs(180),
            SimDuration::from_secs(180),
            WindowAgg::Percentile(0.5),
        );
        assert_eq!(served, RollupServed::default());
        assert!(out.is_some());
    }

    #[test]
    fn percentile_on_sketched_pyramid_is_served_within_bound() {
        let pairs: Vec<(u64, f64)> = (0..1200u64)
            .map(|s| (s * 1000, ((s * 7919) % 997) as f64 + 1.0))
            .collect();
        let raw = series(&pairs);
        let cfg = minute_cfg(64).with_sketches();
        let set = RollupSet::from_series(&cfg, &raw);
        assert!(set.sketched());
        let now = SimTime::from_secs(1199);
        let window = SimDuration::from_secs(1100);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let (got, served) =
                plan_window_agg(&raw, Some(&set), now, window, WindowAgg::Percentile(q));
            assert!(
                served.rollup && served.sketch,
                "q={q} should be sketch-served"
            );
            let got = got.unwrap();
            // Exact reference via the raw selection path on the same
            // window; sealed-minute buckets plus splices must land
            // within the sketch's 1 % bound of it (the interpolated
            // exact value sits between the two bracketing order
            // statistics the sketch bound covers).
            let want = raw
                .window_view(now, window)
                .aggregate(WindowAgg::Percentile(q));
            assert!(
                (got - want).abs() <= 0.0101 * want.abs().max(1.0) + 1.0,
                "q={q}: sketch {got} vs exact {want}"
            );
        }
        // Sub-finest windows stay on the exact raw path.
        let (_, served) = plan_window_agg(
            &raw,
            Some(&set),
            now,
            SimDuration::from_secs(30),
            WindowAgg::Percentile(0.9),
        );
        assert_eq!(served, RollupServed::default());
    }

    #[test]
    fn percentile_with_no_sealed_buckets_is_exact_and_not_a_hit() {
        // All samples inside one (unsealed) minute bucket: the sketch
        // path finds nothing sealed to merge, so the answer must come
        // from the exact raw selection and count as a plain raw
        // fallback — not a sketch approximation reported as raw.
        let raw = series(&[(1_000, 5.0), (2_000, 7.0), (30_000, 9.0)]);
        let set = RollupSet::from_series(&minute_cfg(8).with_sketches(), &raw);
        let now = SimTime::from_secs(59);
        let window = SimDuration::from_secs(120);
        let (out, served) =
            plan_window_agg(&raw, Some(&set), now, window, WindowAgg::Percentile(1.0));
        assert_eq!(served, RollupServed::default());
        assert_eq!(out, Some(9.0)); // exact max, not a 1 %-error representative
                                    // Same for resample: the slot holding only unsealed data is
                                    // served exactly.
        let mut out = Vec::new();
        let served = plan_resample_into(
            &raw,
            Some(&set),
            SimTime::ZERO,
            SimTime::from_secs(60),
            SimDuration::from_secs(60),
            WindowAgg::Percentile(1.0),
            &mut out,
        )
        .unwrap();
        assert_eq!(served, RollupServed::default());
        assert_eq!(out, vec![Some(9.0)]);
    }

    #[test]
    fn sealed_bucket_sketches_hold_exactly_their_counts() {
        // Two tiers (1m, 1h): every *sealed* bucket's sketch must hold
        // exactly `count` values — including hour buckets, whose sketch
        // content arrives via the 1m→1h cascade on seal.
        let cfg = RollupConfig::new(vec![
            RollupTier::new(RES_1M, 200),
            RollupTier::new(RES_1H, 8),
        ])
        .with_sketches();
        let mut set = RollupSet::new(&cfg);
        // 2.5 hours of 1 Hz data with a gap to exercise slot skips.
        for s in 0..9000u64 {
            if s % 1000 < 900 {
                set.fold(SimTime::from_secs(s), (s % 61) as f64);
            }
        }
        for ring in set.rings() {
            let n = ring.len();
            for (i, b) in ring.buckets().enumerate() {
                let sk = b.sketch.as_ref().expect("sketched pyramid");
                if i + 1 < n {
                    assert_eq!(
                        sk.count(),
                        b.count,
                        "sealed bucket at {:?} res {:?}",
                        b.start,
                        ring.res()
                    );
                } else {
                    // The unsealed newest bucket may lag (coarse tiers
                    // fill via cascade) but never over-counts.
                    assert!(sk.count() <= b.count);
                }
            }
        }
    }

    #[test]
    fn unsealed_tail_bucket_is_never_merged() {
        // All data inside one minute bucket: the only bucket is unsealed,
        // so the planner must answer entirely from raw.
        let raw = series(&[(1_000, 5.0), (2_000, 7.0), (30_000, 9.0)]);
        let set = RollupSet::from_series(&minute_cfg(8), &raw);
        let (out, served) = plan_window_agg(
            &raw,
            Some(&set),
            SimTime::from_secs(59),
            SimDuration::from_secs(59),
            WindowAgg::Max,
        );
        assert!(!served.rollup);
        assert_eq!(out, Some(9.0));
    }

    #[test]
    fn rollups_outlive_raw_retention() {
        // Raw keeps 32 samples; rollups remember the whole span.
        let mut raw = TimeSeries::new(32);
        let cfg = minute_cfg(64);
        let mut set = RollupSet::new(&cfg);
        for s in 0..600u64 {
            let t = SimTime::from_secs(s);
            assert!(raw.push(t, 1.0));
            set.fold(t, 1.0);
        }
        let now = SimTime::from_secs(599);
        let window = SimDuration::from_secs(600);
        // Raw path only sees its retained tail...
        let raw_count = raw.window_view(now, window).len();
        assert_eq!(raw_count, 32);
        // ...while the planner reconstructs the sealed middle from
        // rollups and splices the unsealed tail from raw: 8 sealed
        // minute buckets [60 s, 540 s) = 480 samples + the 32 retained
        // raw samples of the tail. Only the ragged head edge (the first
        // minute, unaligned because windows are open at t0) stays lost
        // with the evicted raw samples.
        let (count, served) = plan_window_agg(&raw, Some(&set), now, window, WindowAgg::Count);
        assert!(served.rollup);
        assert_eq!(count, Some(512.0));
    }

    #[test]
    fn resample_planned_matches_unplanned_shape() {
        let pairs: Vec<(u64, f64)> = (0..7200u64).map(|s| (s * 1000, (s % 97) as f64)).collect();
        let raw = series(&pairs);
        let set = RollupSet::from_series(&RollupConfig::standard(), &raw);
        let mut planned = Vec::new();
        let used = plan_resample_into(
            &raw,
            Some(&set),
            SimTime::ZERO,
            SimTime::from_secs(7200),
            SimDuration::from_secs(60),
            WindowAgg::Mean,
            &mut planned,
        );
        assert_eq!(
            used,
            Some(RollupServed {
                rollup: true,
                sketch: false
            })
        );
        assert_eq!(planned.len(), 120);
        // Reference: fold each bucket from the raw view directly.
        for (i, got) in planned.iter().enumerate() {
            let view = raw.range_view(
                SimTime::from_secs(i as u64 * 60),
                SimTime::from_secs((i as u64 + 1) * 60),
            );
            let want = view.aggregate(WindowAgg::Mean);
            let got = got.expect("dense data has no gaps");
            assert!((got - want).abs() < 1e-9, "bucket {i}: {got} vs {want}");
        }
    }

    #[test]
    fn config_sorts_and_validates() {
        let cfg = RollupConfig::new(vec![
            RollupTier::new(RES_1H, 24),
            RollupTier::new(RES_1M, 60),
        ]);
        assert_eq!(cfg.tiers()[0].res, RES_1M);
        assert_eq!(cfg.tiers()[1].res, RES_1H);
        assert_eq!(RollupConfig::default(), RollupConfig::standard());
    }

    #[test]
    #[should_panic(expected = "integer multiple")]
    fn sketched_pyramid_rejects_non_nested_resolutions() {
        // A 60 s bucket would straddle two 90 s slots, so the cascade
        // cannot attribute its sketch to one coarse bucket.
        RollupConfig::new(vec![
            RollupTier::new(SimDuration::from_secs(60), 8),
            RollupTier::new(SimDuration::from_secs(90), 8),
        ])
        .with_sketches();
    }

    #[test]
    #[should_panic(expected = "distinct resolutions")]
    fn duplicate_resolutions_rejected() {
        RollupConfig::new(vec![
            RollupTier::new(RES_1M, 10),
            RollupTier::new(RES_1M, 20),
        ]);
    }
}
