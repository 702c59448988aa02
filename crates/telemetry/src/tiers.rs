//! Wire-fed bucket tiers: the shared receiving half of the export
//! stream's long-horizon record kinds.

use crate::export::ExportRecord;
use crate::metric::MetricId;
use crate::rollup::{RollupBucket, RollupSet};
use crate::sketch::{QuantileSketch, SketchEntry};
use moda_sim::{SimDuration, SimTime};

/// The shared receiving half of the wire's long-horizon record kinds:
/// sealed `bucket` records and their `sketch` columns, keyed by
/// `(metric, res_ms, start_ms)`, landing in per-metric **wire-fed**
/// [`RollupSet`]s whose rings hold only sealed buckets. Because the
/// reconstructed pyramids are real `RollupSet`s, a downstream store
/// built on this — [`ReplayStore`](crate::ReplayStore), the fleet aggregation tier in
/// `moda-fleet` — serves wide queries through the **same rollup
/// planner** as a node-local store ([`crate::rollup::plan_window_agg`],
/// [`crate::rollup::fold_span_into`]), merged sketches included.
///
/// Apply semantics per slot (the spec's overwrite-by-key rule):
///
/// * a `bucket` record landing on a slot that already holds real scalar
///   state (a re-export after a node-side pyramid rebuild) **replaces**
///   it and drops the stale sketch, so the re-exported columns that
///   follow rebuild it instead of double-counting;
/// * a `sketch` column landing before its bucket's scalar record
///   creates a count-0 placeholder that the late `bucket` record then
///   fills in, keeping the already-absorbed columns;
/// * placeholder (count-0) slots are invisible to the planner.
#[derive(Debug)]
pub struct WireTiers {
    sets: Vec<Option<RollupSet>>,
    tier_capacity: usize,
    buckets_applied: u64,
    dropped: u64,
}

impl Default for WireTiers {
    /// Same as [`WireTiers::new`] — a derived default would zero the
    /// per-tier capacity, clamping every ring to 2 retained buckets.
    fn default() -> Self {
        Self::new()
    }
}

impl WireTiers {
    /// Tier store with effectively unbounded per-tier retention (the
    /// replay/archive shape).
    pub fn new() -> Self {
        Self::with_tier_capacity(usize::MAX / 2)
    }

    /// Tier store retaining at most `capacity` buckets per
    /// `(metric, resolution)` ring — the bounded aggregation-tier shape.
    /// Buckets arriving for slots older than a full ring's retained
    /// window are dropped and counted ([`WireTiers::dropped`]).
    pub fn with_tier_capacity(capacity: usize) -> Self {
        WireTiers {
            sets: Vec::new(),
            tier_capacity: capacity.max(2),
            buckets_applied: 0,
            dropped: 0,
        }
    }

    fn set_entry(&mut self, id: MetricId) -> &mut RollupSet {
        let idx = id.index();
        if self.sets.len() <= idx {
            self.sets.resize_with(idx + 1, || None);
        }
        self.sets[idx].get_or_insert_with(RollupSet::new_wire)
    }

    /// Apply one sealed `bucket` record. Returns whether it was retained.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_bucket(
        &mut self,
        id: MetricId,
        res: SimDuration,
        start: SimTime,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        last: f64,
    ) -> bool {
        let cap = self.tier_capacity;
        let ring = self.set_entry(id).wire_ring_mut(res, cap);
        let Some(b) = ring.wire_slot_mut(start) else {
            self.dropped += 1;
            return false;
        };
        if b.count != 0 {
            b.sketch = None;
        }
        b.count = count;
        b.sum = sum;
        b.min = min;
        b.max = max;
        b.last = last;
        self.buckets_applied += 1;
        true
    }

    /// Apply one `sketch` column of a sealed bucket. Returns whether it
    /// was retained.
    pub fn apply_sketch(
        &mut self,
        id: MetricId,
        res: SimDuration,
        start: SimTime,
        entry: SketchEntry,
    ) -> bool {
        let cap = self.tier_capacity;
        let set = self.set_entry(id);
        let applied = match set.wire_ring_mut(res, cap).wire_slot_mut(start) {
            Some(b) => {
                b.sketch
                    .get_or_insert_with(QuantileSketch::new)
                    .absorb_entry(entry);
                true
            }
            None => false,
        };
        // Only a *retained* column makes the pyramid sketched: a late
        // column for an already-evicted slot must not flip percentile
        // serving onto sketches the retained buckets don't carry.
        if applied {
            set.set_sketched();
        } else {
            self.dropped += 1;
        }
        applied
    }

    /// Make room for `n` more buckets in the `(id, res)` ring, ahead of
    /// restoring that many newer than it holds (a snapshot's ring), so
    /// the ring grows once.
    pub fn reserve_buckets(&mut self, id: MetricId, res: SimDuration, n: usize) {
        let cap = self.tier_capacity;
        self.set_entry(id).wire_ring_mut(res, cap).reserve(n);
    }

    /// Restore one sealed bucket — scalars and its whole sketch column —
    /// against a single slot lookup. Semantically identical to
    /// [`WireTiers::apply_bucket`] (when `count > 0`) followed by
    /// [`WireTiers::apply_sketch`] per entry, but the snapshot-restore
    /// path pays one ring/slot search per bucket instead of one per
    /// record, and a column in the sketch's own order is appended, not
    /// searched in ([`QuantileSketch::absorb_column`]). Returns whether
    /// the slot was retained.
    #[allow(clippy::too_many_arguments)]
    pub fn restore_bucket(
        &mut self,
        id: MetricId,
        res: SimDuration,
        start: SimTime,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        last: f64,
        entries: &[SketchEntry],
    ) -> bool {
        let cap = self.tier_capacity;
        let set = self.set_entry(id);
        let retained = match set.wire_ring_mut(res, cap).wire_slot_mut(start) {
            Some(b) => {
                if count > 0 {
                    if b.count != 0 {
                        // A re-export replaces the slot's column: the
                        // stale one goes, its storage stays for the new.
                        match &mut b.sketch {
                            Some(sketch) if !entries.is_empty() => sketch.reset(),
                            stale => *stale = None,
                        }
                    }
                    b.count = count;
                    b.sum = sum;
                    b.min = min;
                    b.max = max;
                    b.last = last;
                }
                if !entries.is_empty() {
                    b.sketch
                        .get_or_insert_with(QuantileSketch::new)
                        .absorb_column(entries);
                }
                true
            }
            None => false,
        };
        if retained {
            if !entries.is_empty() {
                set.set_sketched();
            }
            self.buckets_applied += u64::from(count > 0);
        } else {
            self.dropped += u64::from(count > 0) + entries.len() as u64;
        }
        retained
    }

    /// Apply one record if it is a tier record (`bucket`/`sketch`).
    /// Returns whether the record was consumed by this store — `meta`
    /// and `sample` records are the caller's to route.
    pub fn apply_record(&mut self, r: &ExportRecord) -> bool {
        match r {
            ExportRecord::Bucket {
                id,
                res,
                start,
                count,
                sum,
                min,
                max,
                last,
            } => {
                self.apply_bucket(*id, *res, *start, *count, *sum, *min, *max, *last);
                true
            }
            ExportRecord::Sketch {
                id,
                res,
                start,
                entry,
            } => {
                self.apply_sketch(*id, *res, *start, *entry);
                true
            }
            ExportRecord::Meta { .. }
            | ExportRecord::Sample { .. }
            | ExportRecord::Chunk { .. } => false,
        }
    }

    /// The reconstructed wire-fed pyramid of one metric — planner-ready
    /// (`plan_window_agg` / `fold_span_into` accept it directly). One
    /// caveat for percentile planning: a pyramid is flagged sketched as
    /// soon as *any* retained column arrived, but a damaged or
    /// reconfigured stream can leave individual sealed buckets without
    /// sketches; the strict node-side [`SketchAcc`](crate::SketchAcc)
    /// treats that as a logic error, so percentile consumers of
    /// wire-fed sets should fold through a tolerant accumulator that
    /// detects sketch-free buckets and falls back (the fleet store's
    /// pooled path is the reference).
    pub fn set(&self, id: MetricId) -> Option<&RollupSet> {
        self.sets.get(id.index()).and_then(|s| s.as_ref())
    }

    /// Replayed sealed buckets of one `(metric, resolution)` tier,
    /// ordered by slot start (count-0 placeholders included).
    pub fn buckets(&self, id: MetricId, res: SimDuration) -> impl Iterator<Item = &RollupBucket> {
        self.set(id)
            .and_then(|s| s.rings().iter().find(|r| r.res() == res))
            .into_iter()
            .flat_map(|r| r.buckets())
    }

    /// Merge every retained sketch of one `(metric, resolution)` tier —
    /// the downstream percentile shape. Empty sketch when the tier
    /// carried no sketch columns.
    pub fn merged_sketch(&self, id: MetricId, res: SimDuration) -> QuantileSketch {
        let mut out = QuantileSketch::new();
        let mut scratch = Vec::new();
        for b in self.buckets(id, res) {
            if let Some(sk) = &b.sketch {
                out.merge_with_scratch(sk, &mut scratch);
            }
        }
        out
    }

    /// Sealed buckets retained so far (lifetime applied, minus nothing:
    /// re-applied slots count again).
    pub fn buckets_applied(&self) -> u64 {
        self.buckets_applied
    }

    /// Records dropped because their slot fell before a full ring's
    /// retained window (bounded aggregation tiers only).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::TimeSeries;

    #[test]
    fn wire_tiers_capacity_drops_prehistoric_slots() {
        let mut tiers = WireTiers::with_tier_capacity(4);
        let (id, res) = (MetricId(0), SimDuration::from_secs(60));
        for slot in 0..8u64 {
            assert!(tiers.apply_bucket(id, res, SimTime(slot * 60_000), 1, 1.0, 1.0, 1.0, 1.0));
        }
        // Only the newest 4 slots are retained; an old slot's re-export
        // is dropped (it fell before the retained window) and counted.
        assert_eq!(tiers.buckets(id, res).count(), 4);
        assert!(!tiers.apply_bucket(id, res, SimTime(0), 1, 1.0, 1.0, 1.0, 1.0));
        assert_eq!(tiers.dropped(), 1);
        // A retained slot's re-export overwrites in place.
        assert!(tiers.apply_bucket(id, res, SimTime(5 * 60_000), 9, 9.0, 9.0, 9.0, 9.0));
        let got: Vec<u64> = tiers.buckets(id, res).map(|b| b.count).collect();
        assert_eq!(got, vec![1, 9, 1, 1]);
        assert_eq!(tiers.buckets_applied(), 9);
    }

    #[test]
    fn wire_fed_pyramid_is_served_by_the_planner_including_newest_bucket() {
        // Absorb three sealed minute buckets; the planner must serve all
        // of them — on a wire-fed ring even the newest bucket is sealed.
        let mut tiers = WireTiers::new();
        let (id, res) = (MetricId(0), SimDuration::from_secs(60));
        for slot in 1..4u64 {
            tiers.apply_bucket(
                id,
                res,
                SimTime(slot * 60_000),
                60,
                60.0 * slot as f64,
                slot as f64,
                slot as f64,
                slot as f64,
            );
        }
        let raw = TimeSeries::new(4); // empty: nothing to splice from
        let now = SimTime(4 * 60_000 - 1);
        let window = SimDuration::from_secs(180);
        let (got, served) = crate::rollup::plan_window_agg(
            &raw,
            tiers.set(id),
            now,
            window,
            crate::window::WindowAgg::Count,
        );
        assert!(served.rollup);
        assert_eq!(got, Some(180.0));
        let (sum, _) = crate::rollup::plan_window_agg(
            &raw,
            tiers.set(id),
            now,
            window,
            crate::window::WindowAgg::Sum,
        );
        assert_eq!(sum, Some(60.0 + 120.0 + 180.0));
    }
}
