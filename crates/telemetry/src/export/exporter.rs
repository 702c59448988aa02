//! The incremental batching exporter: per-metric watermark cursors and
//! the drain loop (see the [module docs](super) for the stream model).

use super::{
    DrainStats, ExportBatch, ExportRecord, Sink, DEFAULT_BATCH_RECORDS, MAX_BATCH_RECORDS,
};
use crate::metric::MetricId;
use crate::rollup::RollupSet;
use crate::series::TimeSeries;
use crate::tsdb::Tsdb;
use moda_sim::SimTime;
use std::io;
use std::time::Instant;

/// Per-tier sealed-bucket cursor: every sealed bucket with
/// `start < from` has been exported or accounted missed; `shipped` and
/// `missed` keep the lifetime identity
/// `ring.evicted() + retained_sealed == shipped + missed + pending`,
/// which is how eviction-before-export is detected exactly.
#[derive(Debug, Clone, Copy)]
struct TierCursor {
    res: u64,
    from: u64,
    shipped: u64,
    missed: u64,
}

/// One metric's export watermarks.
#[derive(Debug, Default)]
struct MetricCursor {
    /// Lifetime raw appends already exported (or counted as missed).
    /// Append counts — unlike timestamps — stay exact under duplicate
    /// timestamps, which the ring explicitly allows.
    appends: u64,
    /// Sealed-bucket watermark per rollup tier, fine→coarse.
    tiers: Vec<TierCursor>,
    /// Whether the metric's Meta record has been emitted.
    meta_sent: bool,
}

impl MetricCursor {
    /// Re-align tier cursors with the pyramid's current tier layout,
    /// preserving watermarks of tiers whose resolution is unchanged
    /// (a reconfigured pyramid gets fresh cursors for its new tiers).
    fn sync_tiers(&mut self, set: &RollupSet) {
        let rings = set.rings();
        let aligned = self.tiers.len() == rings.len()
            && self
                .tiers
                .iter()
                .zip(rings)
                .all(|(t, r)| t.res == r.res().0);
        if aligned {
            return;
        }
        let old = std::mem::take(&mut self.tiers);
        self.tiers = rings
            .iter()
            .map(|r| {
                let res = r.res().0;
                old.iter()
                    .find(|t| t.res == res)
                    .copied()
                    .unwrap_or(TierCursor {
                        res,
                        from: 0,
                        shipped: 0,
                        missed: 0,
                    })
            })
            .collect();
    }

    /// Whether a drain would stage nothing for this metric: no new raw
    /// appends and no tier work. O(tiers), no allocation: the
    /// steady-state fast path of a no-op drain.
    fn is_idle(&self, raw: &TimeSeries, rollups: Option<&RollupSet>) -> bool {
        raw.total_appends() == self.appends && rollups.is_none_or(|set| self.tiers_idle(set))
    }

    /// Whether the pyramid holds nothing to stage: tier layout
    /// unchanged and every tier's lifetime sealed count already fully
    /// accounted (`shipped + missed` — pending or newly lost buckets
    /// both break the identity). A sweep that seals no bucket stops
    /// here, before the tier cursors are journalled or walked.
    fn tiers_idle(&self, set: &RollupSet) -> bool {
        let rings = set.rings();
        self.tiers.len() == rings.len()
            && self.tiers.iter().zip(rings).all(|(tc, ring)| {
                tc.res == ring.res().0
                    && ring.evicted() + (ring.len() as u64).saturating_sub(1)
                        == tc.shipped + tc.missed
            })
    }
}

/// The rollback unit on sink failure: the pre-staging watermarks of
/// every cursor touched since the last delivered batch. Kept on the
/// exporter and cleared — not freed — when a batch is delivered, so
/// after warm-up journalling allocates nothing; a metric that stages
/// only raw samples journals two words and never copies its tier
/// cursors.
#[derive(Debug, Default)]
struct Journal {
    entries: Vec<JournalEntry>,
    /// Saved tier cursors, referenced by range from `entries`.
    tiers: Vec<TierCursor>,
}

#[derive(Debug)]
struct JournalEntry {
    idx: usize,
    appends: u64,
    meta_sent: bool,
    /// Where in [`Journal::tiers`] this cursor's tier watermarks were
    /// saved, once staging reached its pyramid.
    tiers: Option<std::ops::Range<usize>>,
}

impl Journal {
    /// Record `cursor`'s raw watermarks before its first mutation since
    /// the last delivered batch. Metrics are walked in order, so a
    /// cursor already journalled is the newest entry.
    fn note(&mut self, idx: usize, cursor: &MetricCursor) {
        if self.entries.last().map(|e| e.idx) != Some(idx) {
            self.entries.push(JournalEntry {
                idx,
                appends: cursor.appends,
                meta_sent: cursor.meta_sent,
                tiers: None,
            });
        }
    }

    /// Save the newest entry's tier cursors before the first tier
    /// mutation (at most once per entry).
    fn note_tiers(&mut self, cursor: &MetricCursor) {
        let entry = self.entries.last_mut().expect("noted before staging");
        if entry.tiers.is_none() {
            let start = self.tiers.len();
            self.tiers.extend_from_slice(&cursor.tiers);
            entry.tiers = Some(start..self.tiers.len());
        }
    }

    /// The batch was delivered: everything journalled is committed.
    fn clear(&mut self) {
        self.entries.clear();
        self.tiers.clear();
    }

    /// Un-consume everything staged past the last delivered batch.
    /// Restored newest-first so that when an id was drained more than
    /// once (two entries for one cursor), the oldest entry wins.
    fn roll_back(&mut self, cursors: &mut [Option<MetricCursor>]) {
        for entry in self.entries.drain(..).rev() {
            let cursor = cursors[entry.idx].as_mut().expect("journalled cursor");
            cursor.appends = entry.appends;
            cursor.meta_sent = entry.meta_sent;
            if let Some(saved) = entry.tiers {
                cursor.tiers.clear();
                cursor.tiers.extend_from_slice(&self.tiers[saved]);
            }
        }
        self.tiers.clear();
    }
}

/// The incremental batching exporter: per-metric watermark cursors plus
/// a record-count batch bound. One exporter produces one logical export
/// stream; its cursors advance monotonically, so draining twice never
/// duplicates a sample or a sealed bucket.
///
/// Draining borrows the [`Tsdb`] for the whole call: the collector that
/// owns the store drains between sweeps, and a slow sink delays that
/// agent's own next sweep, nobody else's.
///
/// # Example: rollup buckets and sketch columns
///
/// ```
/// use moda_sim::SimTime;
/// use moda_telemetry::export::{Exporter, MemorySink};
/// use moda_telemetry::rollup::RES_1M;
/// use moda_telemetry::{MetricMeta, ReplayStore, RollupConfig, SourceDomain, Tsdb};
///
/// // Raw ring far smaller than the span: the sealed buckets (and their
/// // sketch columns) are what survives onto the wire long-horizon.
/// let mut db = Tsdb::with_retention(256);
/// let id = db.register(MetricMeta::gauge("node.0.power", "W", SourceDomain::Hardware));
/// db.enable_rollups(id, &RollupConfig::standard().with_sketches());
/// for s in 0..7200u64 {
///     db.insert(id, SimTime::from_secs(s), (s % 100) as f64);
/// }
///
/// let mut exporter = Exporter::new();
/// let mut sink = MemorySink::new();
/// let stats = exporter.drain(&db, &mut sink).unwrap();
/// assert_eq!(stats.samples, 256); // the retained raw tail...
/// assert_eq!(stats.missed_samples, 7200 - 256); // ...misses accounted
///
/// let mut replay = ReplayStore::new();
/// for batch in &sink.batches {
///     replay.apply(batch);
/// }
/// // 120 minute slots, the newest still unsealed: 119 shipped.
/// assert_eq!(replay.buckets(id, RES_1M).count(), 119);
/// // Merging the replayed sketch columns answers wide percentiles
/// // downstream without raw data (within the documented 1 % bound).
/// let merged = replay.merged_sketch(id, RES_1M);
/// assert_eq!(merged.count(), 119 * 60);
/// let p50 = merged.quantile(0.5);
/// assert!((p50 - 49.5).abs() <= 2.0, "{p50}");
/// ```
#[derive(Debug)]
pub struct Exporter {
    cursors: Vec<Option<MetricCursor>>,
    batch_records: usize,
    seq: u64,
    totals: DrainStats,
    /// Empty between drains; kept here so a steady-state drain reuses
    /// its allocations.
    staging: Staging,
}

/// What has been copied out of the store but not yet delivered: the
/// records of the batch being built, their payload counters, and the
/// journal that can still undo their cursor advances.
#[derive(Debug, Default)]
struct Staging {
    batch: Vec<ExportRecord>,
    counts: DrainStats,
    journal: Journal,
}

impl Default for Exporter {
    /// Same as [`Exporter::new`] — a derived default would zero the
    /// batch bound, and a 0-record batch can never drain anything.
    fn default() -> Self {
        Self::new()
    }
}

impl Exporter {
    /// Exporter with the [`DEFAULT_BATCH_RECORDS`] batch bound.
    pub fn new() -> Self {
        Exporter {
            cursors: Vec::new(),
            batch_records: DEFAULT_BATCH_RECORDS,
            seq: 0,
            totals: DrainStats::default(),
            staging: Staging::default(),
        }
    }

    /// Override the per-batch record bound, clamped to
    /// `1..=`[`MAX_BATCH_RECORDS`]: a 0-record bound could never make
    /// progress, and a batch past the maximum is one the receiver's
    /// decoder refuses.
    pub fn with_batch_records(mut self, records: usize) -> Self {
        self.batch_records = records.clamp(1, MAX_BATCH_RECORDS);
        self
    }

    /// Lifetime totals across every drain of this exporter.
    pub fn totals(&self) -> DrainStats {
        self.totals
    }

    /// Next batch sequence number (== batches emitted so far).
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Drain everything pending across **all** registered metrics.
    ///
    /// The store is borrowed for the whole call, so one drain ships
    /// exactly the state it found: nothing can append while the sink
    /// is being written. A sink that tries to is refused by the borrow
    /// checker:
    ///
    /// ```compile_fail,E0502
    /// use moda_sim::SimTime;
    /// use moda_telemetry::export::{ExportBatch, Exporter, Sink};
    /// use moda_telemetry::{MetricId, Tsdb};
    ///
    /// struct Chaser<'a>(&'a mut Tsdb);
    /// impl Sink for Chaser<'_> {
    ///     fn write_batch(&mut self, _: &ExportBatch) -> std::io::Result<()> {
    ///         self.0.insert(MetricId(0), SimTime::ZERO, 1.0);
    ///         Ok(())
    ///     }
    /// }
    ///
    /// let mut db = Tsdb::new();
    /// let mut sink = Chaser(&mut db);
    /// Exporter::new().drain(&db, &mut sink).unwrap(); // `db` is mutably borrowed
    /// ```
    pub fn drain<K: Sink>(&mut self, db: &Tsdb, sink: &mut K) -> io::Result<DrainStats> {
        self.drain_ids(db, (0..db.cardinality() as u32).map(MetricId), sink)
    }

    /// Drain everything pending for the given metrics only (e.g. one
    /// subsystem's slice of a store). Cursors live per metric, so
    /// interleaving subset drains with full drains stays exact.
    ///
    /// # Sink failures
    ///
    /// Cursor advances **commit only when their batch reaches the sink**:
    /// on a sink error every cursor is rolled back to the last
    /// successfully flushed batch, the error is returned, and nothing is
    /// skipped — re-draining after the sink recovers re-stages exactly
    /// the undelivered records. The returned/accumulated stats count
    /// delivered batches only (plus copy-out timings, which reflect
    /// work actually done).
    pub fn drain_metrics<K: Sink>(
        &mut self,
        db: &Tsdb,
        ids: &[MetricId],
        sink: &mut K,
    ) -> io::Result<DrainStats> {
        self.drain_ids(db, ids.iter().copied(), sink)
    }

    fn drain_ids<K: Sink>(
        &mut self,
        db: &Tsdb,
        ids: impl Iterator<Item = MetricId>,
        sink: &mut K,
    ) -> io::Result<DrainStats> {
        // `stats` counts committed (delivered) work; `self.staging`
        // holds what was copied out since the last successful flush.
        let mut stats = DrainStats::default();
        let cap = self.batch_records;
        let mut result: io::Result<()> = Ok(());
        // Copy-out is timed per uninterrupted span between sink writes
        // — the sweep, not the metric, is the unit: a drain that fits
        // one batch reads the clock twice however many metrics stage.
        let mut span = Instant::now();
        'metrics: for id in ids {
            let idx = id.index();
            if self.cursors.len() <= idx {
                self.cursors.resize_with(idx + 1, || None);
            }
            let (raw, rollups) = (db.series(id), db.rollups(id));
            loop {
                let cursor = self.cursors[idx].get_or_insert_with(MetricCursor::default);
                // Idle fast path: nothing pending for this metric — no
                // journal entry, no staging. Keeps a no-op
                // steady-state drain over N metrics at O(N).
                if cursor.meta_sent && cursor.is_idle(raw, rollups) {
                    break;
                }
                let staging = &mut self.staging;
                staging.journal.note(idx, cursor);
                if !cursor.meta_sent {
                    cursor.meta_sent = true;
                    let meta = db.meta(id).clone();
                    staging.batch.push(ExportRecord::Meta { id, meta });
                    staging.counts.metas += 1;
                }
                let more = copy_pending(id, cursor, raw, rollups, cap, staging);
                if more || staging.batch.len() >= cap {
                    stats.note_copy_out(span.elapsed().as_nanos() as u64);
                    if let Err(e) = self.flush(sink, &mut stats) {
                        result = Err(e);
                        break 'metrics;
                    }
                    span = Instant::now();
                }
                if !more {
                    break;
                }
            }
        }
        if result.is_ok() {
            stats.note_copy_out(span.elapsed().as_nanos() as u64);
            if self.staging.batch.is_empty() {
                // Nothing to deliver, but misses discovered during the
                // walk are real regardless of the sink.
                stats.merge_payload(&std::mem::take(&mut self.staging.counts));
                self.staging.journal.clear();
            } else {
                result = self.flush(sink, &mut stats);
            }
        }
        self.totals.merge(&stats);
        if let Err(e) = result {
            // The next drain re-stages everything past the last
            // delivered batch.
            self.staging.journal.roll_back(&mut self.cursors);
            self.staging.batch.clear();
            self.staging.counts = DrainStats::default();
            return Err(e);
        }
        Ok(stats)
    }

    /// Emit the staged records as one batch. On success the staged
    /// payload counters and the journalled cursor advances commit; on
    /// error the caller rolls the cursors back.
    fn flush<K: Sink>(&mut self, sink: &mut K, stats: &mut DrainStats) -> io::Result<()> {
        let out = ExportBatch {
            seq: self.seq,
            records: std::mem::take(&mut self.staging.batch),
        };
        let sent = sink.write_batch(&out);
        // Reclaim the allocation for the next batch.
        self.staging.batch = out.records;
        sent?;
        self.seq += 1;
        stats.batches += 1;
        stats.records += self.staging.batch.len() as u64;
        stats.merge_payload(&std::mem::take(&mut self.staging.counts));
        self.staging.journal.clear();
        self.staging.batch.clear();
        Ok(())
    }
}

/// Copy one metric's pending records into the staged batch. Returns
/// whether pending data remains because the batch has no room for the
/// next of it — the caller flushes and re-enters.
fn copy_pending(
    id: MetricId,
    cursor: &mut MetricCursor,
    raw: &TimeSeries,
    rollups: Option<&RollupSet>,
    cap: usize,
    staging: &mut Staging,
) -> bool {
    let Staging {
        batch,
        counts: stats,
        journal,
    } = staging;
    // Raw samples: the delta is the lifetime-append count beyond the
    // cursor; whatever the ring already evicted is recorded as missed.
    let total = raw.total_appends();
    let oldest = total - raw.len() as u64;
    let missed = oldest.saturating_sub(cursor.appends);
    stats.missed_samples += missed;
    cursor.appends += missed;
    // Sealed chunks fully inside the pending span ship whole —
    // compressed bytes straight onto the wire, no decode. A chunk
    // with an evicted prefix (front-chunk skip) or a previous
    // drain's partial coverage decodes just its unshipped suffix —
    // from the restart point nearest the cursor — to per-sample
    // records: re-shipping the whole bitstream would duplicate samples
    // the receiver already has. A cursor already in the unsealed tail
    // (every sweep between seals) skips the walk.
    let sealed_end = oldest + raw.compressed_len() as u64;
    if cursor.appends < sealed_end {
        for c in raw.sealed_chunks() {
            let hi = c.end_append();
            if hi <= cursor.appends {
                continue;
            }
            if batch.len() >= cap {
                return true;
            }
            if c.skip() == 0 && c.start_append() == cursor.appends {
                batch.push(ExportRecord::chunk(id, c));
                stats.chunks += 1;
                stats.samples += u64::from(c.count());
                cursor.appends = hi;
            } else {
                let shipped = cursor.appends;
                c.scan_from(
                    |append, _| append < shipped,
                    |append, t, value| {
                        if append >= shipped {
                            batch.push(ExportRecord::Sample {
                                id,
                                t: SimTime(t),
                                value,
                            });
                            cursor.appends += 1;
                        }
                        batch.len() < cap
                    },
                );
                stats.samples += cursor.appends - shipped;
                if cursor.appends < hi {
                    return true;
                }
            }
        }
    }
    // The remainder is the uncompressed tail, copied where it lies:
    // its oldest `take` samples, so the cursor advances contiguously.
    let (tail_ts, tail_vals) = raw.tail_from(cursor.appends);
    let take = tail_ts.len().min(cap.saturating_sub(batch.len()));
    batch.extend(
        tail_ts[..take]
            .iter()
            .zip(&tail_vals[..take])
            .map(|(&t, &value)| ExportRecord::Sample {
                id,
                t: SimTime(t),
                value,
            }),
    );
    stats.samples += take as u64;
    cursor.appends += take as u64;
    if take < tail_ts.len() {
        return true;
    }

    // Sealed rollup buckets, fine→coarse, each exactly once. A bucket
    // and its sketch columns stay in one batch (entries are bounded by
    // the sketch's footprint), so the bound check runs per bucket.
    let Some(set) = rollups else {
        return false;
    };
    if cursor.tiers_idle(set) {
        return false;
    }
    journal.note_tiers(cursor);
    cursor.sync_tiers(set);
    for (ring, tc) in set.rings().iter().zip(cursor.tiers.iter_mut()) {
        let res = ring.res();
        // Eviction-before-export accounting, exact via the lifetime
        // identity: every sealed bucket this ring ever produced
        // (`evicted + retained_sealed`) is either already shipped,
        // already accounted missed, still pending in the ring — or was
        // just lost to eviction between drains.
        let lifetime_sealed = ring.evicted() + ring.len().saturating_sub(1) as u64;
        if lifetime_sealed < tc.shipped + tc.missed {
            // Both sides are monotone over one pyramid's lifetime, so
            // this means the pyramid was rebuilt (`enable_rollups`
            // reset + backfill restarts the ring's counters). Reset the
            // tier cursor: the rebuilt sealed region re-exports —
            // receivers overwrite by `(metric, res, start)` — rather
            // than being silently skipped against a stale watermark.
            *tc = TierCursor {
                res: tc.res,
                from: 0,
                shipped: 0,
                missed: 0,
            };
        }
        let pending = ring.sealed_buckets_from(SimTime(tc.from)).count() as u64;
        let lost = lifetime_sealed.saturating_sub(tc.shipped + tc.missed + pending);
        tc.missed += lost;
        stats.missed_buckets += lost;
        for b in ring.sealed_buckets_from(SimTime(tc.from)) {
            // A bucket and its columns stay together, so they may run a
            // batch over `cap` — but never past what a receiver decodes.
            let columns = b.sketch.as_ref().map_or(0, |sk| sk.entries());
            if batch.len() >= cap || batch.len() + 1 + columns > MAX_BATCH_RECORDS {
                return true;
            }
            batch.push(ExportRecord::Bucket {
                id,
                res,
                start: b.start,
                count: b.count,
                sum: b.sum,
                min: b.min,
                max: b.max,
                last: b.last,
            });
            stats.buckets += 1;
            tc.shipped += 1;
            if let Some(sk) = &b.sketch {
                for entry in sk.wire_entries() {
                    batch.push(ExportRecord::Sketch {
                        id,
                        res,
                        start: b.start,
                        entry,
                    });
                    stats.sketch_entries += 1;
                }
            }
            tc.from = b.start.0.saturating_add(res.0);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::MemorySink;
    use crate::metric::{MetricMeta, SourceDomain};
    use crate::replay::ReplayStore;
    use crate::rollup::{RollupConfig, RollupTier};
    use moda_sim::SimDuration;

    fn db_with_data() -> (Tsdb, MetricId) {
        let mut db = Tsdb::new();
        let id = db.register(MetricMeta::gauge(
            "node.0.power",
            "W",
            SourceDomain::Hardware,
        ));
        db.insert(id, SimTime::from_secs(1), 100.0);
        db.insert(id, SimTime::from_secs(2), 110.0);
        (db, id)
    }

    /// Tiny two-tier sketched pyramid so seals happen within short tests.
    fn tiny_sketched() -> RollupConfig {
        RollupConfig::new(vec![
            RollupTier::new(SimDuration::from_secs(1), 64),
            RollupTier::new(SimDuration::from_secs(10), 16),
        ])
        .with_sketches()
    }

    #[test]
    fn registered_but_empty_metric_exports_meta_only() {
        let mut db = Tsdb::new();
        db.register(MetricMeta::gauge("idle", "u", SourceDomain::Software));
        let mut sink = MemorySink::new();
        let stats = Exporter::new().drain(&db, &mut sink).unwrap();
        assert_eq!(stats.metas, 1);
        assert_eq!(stats.samples, 0);
        assert_eq!(sink.record_count(), 1);
    }

    #[test]
    fn drain_is_incremental_and_exact() {
        let (mut db, id) = db_with_data();
        let mut exporter = Exporter::new();
        let mut sink = MemorySink::new();
        let s1 = exporter.drain(&db, &mut sink).unwrap();
        assert_eq!(s1.samples, 2);
        assert_eq!(s1.metas, 1);
        // Nothing new: a drain is a no-op (no batch at all).
        let s2 = exporter.drain(&db, &mut sink).unwrap();
        assert!(s2.is_empty(), "{s2:?}");
        assert_eq!(sink.batches.len(), 1);
        // Duplicate timestamps are still exact deltas (append-counted).
        db.insert(id, SimTime::from_secs(2), 111.0);
        db.insert(id, SimTime::from_secs(2), 112.0);
        let s3 = exporter.drain(&db, &mut sink).unwrap();
        assert_eq!(s3.samples, 2);
        assert_eq!(s3.metas, 0, "meta is sent exactly once");
        let all_samples = sink
            .records()
            .filter(|r| matches!(r, ExportRecord::Sample { .. }))
            .count();
        assert_eq!(all_samples, 4);
    }

    #[test]
    fn eviction_between_drains_is_counted_as_missed() {
        let mut db = Tsdb::with_retention(4);
        let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
        let mut exporter = Exporter::new();
        let mut sink = MemorySink::new();
        for t in 0..10u64 {
            db.insert(id, SimTime::from_secs(t), t as f64);
        }
        let s = exporter.drain(&db, &mut sink).unwrap();
        assert_eq!(s.samples, 4);
        assert_eq!(s.missed_samples, 6);
        // The exported suffix is the retained tail, oldest→newest.
        let times: Vec<u64> = sink
            .records()
            .filter_map(|r| match r {
                ExportRecord::Sample { t, .. } => Some(t.0 / 1000),
                _ => None,
            })
            .collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
        // Exported + missed always accounts for every accepted append.
        assert_eq!(s.samples + s.missed_samples, db.series(id).total_appends());
    }

    #[test]
    fn batches_are_size_bounded_and_sequenced() {
        let mut db = Tsdb::with_retention(1 << 12);
        let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
        for t in 0..1000u64 {
            db.insert(id, SimTime(t), t as f64);
        }
        let mut exporter = Exporter::new().with_batch_records(100);
        let mut sink = MemorySink::new();
        let stats = exporter.drain(&db, &mut sink).unwrap();
        assert_eq!(stats.samples, 1000);
        // The first 512 samples sealed into one chunk record; the tail
        // ships per-sample: 1 meta + 1 chunk + 488 samples = 490 records.
        assert_eq!(stats.chunks, 1);
        assert_eq!(stats.batches, 5);
        for (i, b) in sink.batches.iter().enumerate() {
            assert_eq!(b.seq, i as u64);
            assert!(b.records.len() <= 100, "batch {} overflowed", b.seq);
        }
        // Sequence numbers continue across drains.
        db.insert(id, SimTime(2000), 1.0);
        exporter.drain(&db, &mut sink).unwrap();
        assert_eq!(sink.batches.last().unwrap().seq, 5);
        assert_eq!(exporter.next_seq(), 6);
    }

    #[test]
    fn sealed_buckets_and_sketches_ship_exactly_once() {
        let mut db = Tsdb::with_retention(1 << 12);
        let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
        db.enable_rollups(id, &tiny_sketched());
        for t in 0..35u64 {
            db.insert(id, SimTime::from_secs(t), (t % 7) as f64 + 1.0);
        }
        let mut exporter = Exporter::new();
        let mut sink = MemorySink::new();
        let s1 = exporter.drain(&db, &mut sink).unwrap();
        // 1s tier: slots 0..34 sealed = 34; 10s tier: slots 0..2 sealed.
        assert_eq!(s1.buckets, 34 + 3);
        assert!(s1.sketch_entries > 0);
        // Re-drain with no inserts: nothing new.
        assert!(exporter.drain(&db, &mut sink).unwrap().is_empty());
        // One more sample seals 1s slot 35 (and nothing in the 10s tier).
        db.insert(id, SimTime::from_secs(36), 1.0);
        let s3 = exporter.drain(&db, &mut sink).unwrap();
        assert_eq!(s3.buckets, 1);
        assert_eq!(s3.samples, 1);

        // Replay reconstructs every sealed bucket exactly, sketch included.
        let mut replay = ReplayStore::new();
        for b in &sink.batches {
            replay.apply(b);
        }
        let set = db.rollups(id).unwrap();
        for ring in set.rings() {
            let want: Vec<_> = ring.sealed_buckets().collect();
            let got: Vec<_> = replay.buckets(id, ring.res()).collect();
            assert_eq!(got.len(), want.len(), "res {:?}", ring.res());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.start, w.start);
                assert_eq!(g.count, w.count);
                assert_eq!(g.sum, w.sum);
                assert_eq!(g.min, w.min);
                assert_eq!(g.max, w.max);
                assert_eq!(g.last, w.last);
                assert_eq!(g.sketch, w.sketch, "sketch round trip at {:?}", g.start);
            }
        }
    }

    #[test]
    fn bucket_and_its_sketch_columns_share_a_batch() {
        let mut db = Tsdb::with_retention(1 << 12);
        let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
        db.enable_rollups(id, &tiny_sketched());
        for t in 0..40u64 {
            db.insert(id, SimTime::from_secs(t), (t % 11) as f64 + 1.0);
        }
        // Tiny batches force many flushes around buckets.
        let mut sink = MemorySink::new();
        Exporter::new()
            .with_batch_records(3)
            .drain(&db, &mut sink)
            .unwrap();
        for b in &sink.batches {
            for (i, r) in b.records.iter().enumerate() {
                if let ExportRecord::Sketch { start, res, .. } = r {
                    // A sketch column is always preceded (in the same
                    // batch) by its bucket or a sibling column.
                    let prev = &b.records[i.checked_sub(1).expect("column cannot open a batch")];
                    match prev {
                        ExportRecord::Bucket {
                            start: ps, res: pr, ..
                        }
                        | ExportRecord::Sketch {
                            start: ps, res: pr, ..
                        } => {
                            assert_eq!((ps, pr), (start, res));
                        }
                        other => panic!("sketch column after {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn drain_metrics_subset_keeps_independent_cursors() {
        let mut db = Tsdb::new();
        let a = db.register(MetricMeta::gauge("a", "u", SourceDomain::Hardware));
        let b = db.register(MetricMeta::gauge("b", "u", SourceDomain::Hardware));
        db.insert(a, SimTime::from_secs(1), 1.0);
        db.insert(b, SimTime::from_secs(1), 2.0);
        let mut exporter = Exporter::new();
        let mut sink = MemorySink::new();
        let s = exporter.drain_metrics(&db, &[b], &mut sink).unwrap();
        assert_eq!((s.metas, s.samples), (1, 1));
        // A later full drain ships `a` in full and nothing new for `b`.
        let s = exporter.drain(&db, &mut sink).unwrap();
        assert_eq!((s.metas, s.samples), (1, 1));
        assert_eq!(
            sink.records()
                .filter(|r| matches!(r, ExportRecord::Sample { .. }))
                .count(),
            2
        );
    }

    /// Delegates to an inner [`MemorySink`] but fails every write once
    /// `fail_after` batches have been accepted.
    struct FailingSink {
        inner: MemorySink,
        fail_after: usize,
    }

    impl Sink for FailingSink {
        fn write_batch(&mut self, batch: &ExportBatch) -> io::Result<()> {
            if self.inner.batches.len() >= self.fail_after {
                return Err(io::Error::other("transport down"));
            }
            self.inner.write_batch(batch)
        }
    }

    #[test]
    fn sink_failure_rolls_cursors_back_and_loses_nothing() {
        let mut db = Tsdb::with_retention(1 << 12);
        let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
        db.enable_rollups(id, &tiny_sketched());
        for t in 0..300u64 {
            db.insert(id, SimTime::from_secs(t), (t % 13) as f64 + 1.0);
        }
        // Small batches; the sink dies after accepting two of them.
        let mut exporter = Exporter::new().with_batch_records(40);
        let mut failing = FailingSink {
            inner: MemorySink::new(),
            fail_after: 2,
        };
        let err = exporter.drain(&db, &mut failing).unwrap_err();
        assert_eq!(err.to_string(), "transport down");
        // Stats/totals count only the delivered batches.
        let totals = exporter.totals();
        assert_eq!(totals.batches, 2);
        assert_eq!(exporter.next_seq(), 2);
        assert_eq!(
            failing.inner.record_count() as u64,
            totals.records,
            "totals agree with what the sink actually received"
        );
        // The sink recovers: the retry ships exactly the remainder —
        // delivered ∪ retry equals a fresh full export, no loss, no
        // duplicates.
        let mut retry = MemorySink::new();
        exporter.drain(&db, &mut retry).unwrap();
        let mut full = MemorySink::new();
        Exporter::new().drain(&db, &mut full).unwrap();
        let key = |r: &ExportRecord| format!("{r:?}");
        let mut delivered: Vec<String> = failing
            .inner
            .records()
            .chain(retry.records())
            .map(key)
            .collect();
        let mut want: Vec<String> = full.records().map(key).collect();
        delivered.sort();
        want.sort();
        assert_eq!(delivered, want);
    }

    #[test]
    fn rollback_with_duplicate_ids_restores_the_oldest_snapshot() {
        // Regression: draining `[a, b, a]` takes two snapshots of `a`'s
        // cursor; on sink failure the restore must end on the oldest
        // one, or records staged between the two visits are skipped
        // forever.
        let mut db = Tsdb::new();
        let a = db.register(MetricMeta::gauge("a", "u", SourceDomain::Hardware));
        let b = db.register(MetricMeta::gauge("b", "u", SourceDomain::Hardware));
        for t in 0..10u64 {
            db.insert(a, SimTime::from_secs(t), t as f64);
            db.insert(b, SimTime::from_secs(t), t as f64);
        }
        let mut exporter = Exporter::new();
        let mut dead = FailingSink {
            inner: MemorySink::new(),
            fail_after: 0,
        };
        exporter
            .drain_metrics(&db, &[a, b, a], &mut dead)
            .unwrap_err();
        assert_eq!(dead.inner.record_count(), 0);
        // Nothing was delivered, so the retry must ship everything.
        let mut retry = MemorySink::new();
        let s = exporter.drain(&db, &mut retry).unwrap();
        assert_eq!(s.samples, 20);
        assert_eq!(s.metas, 2);
        assert_eq!(s.missed_samples, 0);
    }

    #[test]
    fn bucket_eviction_between_drains_is_counted_as_missed() {
        // 1 s tier retaining only 4 buckets, drained rarely.
        let cfg =
            RollupConfig::new(vec![RollupTier::new(SimDuration::from_secs(1), 4)]).with_sketches();
        let mut db = Tsdb::with_retention(1 << 12);
        let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
        db.enable_rollups(id, &cfg);
        let mut exporter = Exporter::new();
        let mut sink = MemorySink::new();
        // Slots 0..=20 → 21 buckets ever, ring retains 4 (3 sealed).
        for t in 0..=20u64 {
            db.insert(id, SimTime::from_secs(t), t as f64);
        }
        let s1 = exporter.drain(&db, &mut sink).unwrap();
        assert_eq!(s1.buckets, 3, "the retained sealed tail ships");
        assert_eq!(s1.missed_buckets, 17, "evicted-before-export surfaced");
        // Steady state afterwards: drains keep up, nothing new missed.
        for t in 21..=23u64 {
            db.insert(id, SimTime::from_secs(t), t as f64);
        }
        let s2 = exporter.drain(&db, &mut sink).unwrap();
        assert_eq!(s2.buckets, 3);
        assert_eq!(s2.missed_buckets, 0);
        // Lifetime identity: sealed ever == shipped + missed (nothing
        // pending right after a drain).
        let ring = &db.rollups(id).unwrap().rings()[0];
        let sealed_ever = ring.evicted() + ring.len() as u64 - 1;
        let t = exporter.totals();
        assert_eq!(sealed_ever, t.buckets + t.missed_buckets);
    }

    #[test]
    fn default_exporter_drains_like_new() {
        // Regression: a derived Default once zeroed the batch bound,
        // which made any non-empty drain loop forever.
        let (db, _) = db_with_data();
        let mut sink = MemorySink::new();
        let stats = Exporter::default().drain(&db, &mut sink).unwrap();
        assert_eq!(stats.samples, 2);
    }

    #[test]
    fn copy_out_is_timed_per_span_between_sink_writes_not_per_metric() {
        // 64 staging metrics, one sweep, one flush: one span from the
        // start of the drain to the end of the walk, so the longest
        // span *is* the total — the clock was read O(batches) times,
        // not O(metrics).
        let mut db = Tsdb::new();
        let ids: Vec<MetricId> = (0..64)
            .map(|m| {
                db.register(MetricMeta::gauge(
                    format!("m{m}"),
                    "u",
                    SourceDomain::Hardware,
                ))
            })
            .collect();
        let mut exporter = Exporter::new();
        let mut sink = MemorySink::new();
        for sweep in 0..3u64 {
            for &id in &ids {
                db.insert(id, SimTime::from_secs(sweep), sweep as f64);
            }
            let s = exporter.drain(&db, &mut sink).unwrap();
            assert_eq!((s.batches, s.samples), (1, 64));
            assert!(s.lock_held_ns > 0);
            assert_eq!(s.max_lock_held_ns, s.lock_held_ns);
        }
        // Several flushes: several spans, none longer than their sum,
        // and the lifetime maximum is the longest single one.
        for &id in &ids {
            db.insert(id, SimTime::from_secs(9), 9.0);
        }
        let mut small = Exporter::new().with_batch_records(16);
        let s = small.drain(&db, &mut sink).unwrap();
        assert!(s.batches > 4);
        assert!(s.max_lock_held_ns <= s.lock_held_ns);
        assert_eq!(small.totals().max_lock_held_ns, s.max_lock_held_ns);
    }

    #[test]
    fn batch_bound_is_clamped_to_what_a_receiver_decodes() {
        assert_eq!(Exporter::new().with_batch_records(0).batch_records, 1);
        assert_eq!(
            Exporter::new().with_batch_records(usize::MAX).batch_records,
            MAX_BATCH_RECORDS
        );
        // At the largest bound a bucket's sketch columns may still not
        // carry a batch past it: 2047 metrics × (meta + 511 samples),
        // then meta + 509 samples, is two records short of the bound
        // when the last metric's sealed bucket and its columns come up.
        let mut db = Tsdb::with_retention(511);
        let mut last = MetricId(0);
        for m in 0..2048 {
            last = db.register(MetricMeta::gauge(
                format!("m{m}"),
                "u",
                SourceDomain::Hardware,
            ));
        }
        db.enable_rollups(
            last,
            &RollupConfig::new(vec![RollupTier::new(SimDuration::from_secs(500), 4)])
                .with_sketches(),
        );
        for m in 0..2048u32 {
            let n = if MetricId(m) == last { 509 } else { 511 };
            for s in 0..n {
                db.insert(MetricId(m), SimTime::from_secs(s), (s % 7) as f64 + 1.0);
            }
        }
        let mut sink = MemorySink::new();
        let stats = Exporter::new()
            .with_batch_records(usize::MAX)
            .drain(&db, &mut sink)
            .unwrap();
        assert_eq!(stats.buckets, 1);
        assert!(stats.sketch_entries >= 2);
        let lens: Vec<usize> = sink.batches.iter().map(|b| b.records.len()).collect();
        assert_eq!(
            lens,
            [MAX_BATCH_RECORDS - 2, 1 + stats.sketch_entries as usize]
        );
        for batch in &sink.batches {
            let mut wire = Vec::new();
            crate::wire::encode_batch(batch, &mut wire);
            assert_eq!(&crate::wire::decode_batch(&wire).unwrap().0, batch);
        }
    }

    #[test]
    fn pyramid_reset_reexports_instead_of_skipping() {
        // Tiny raw ring + bucket eviction, then an explicit
        // enable_rollups reset: the rebuilt (smaller) pyramid restarts
        // its lifetime counters, which the cursor must detect — the
        // backfilled sealed region re-exports rather than being
        // silently skipped against the stale watermark.
        let cfg =
            RollupConfig::new(vec![RollupTier::new(SimDuration::from_secs(1), 4)]).with_sketches();
        let mut db = Tsdb::with_retention(8);
        let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
        db.enable_rollups(id, &cfg);
        let mut exporter = Exporter::new();
        let mut sink = MemorySink::new();
        for t in 0..=20u64 {
            db.insert(id, SimTime::from_secs(t), t as f64);
        }
        let s1 = exporter.drain(&db, &mut sink).unwrap();
        assert_eq!(s1.buckets + s1.missed_buckets, 20);
        // Reset: backfill rebuilds only from the 8 retained samples.
        db.enable_rollups(id, &cfg);
        let s2 = exporter.drain(&db, &mut sink).unwrap();
        let ring = &db.rollups(id).unwrap().rings()[0];
        let rebuilt_sealed = ring.len() as u64 - 1;
        assert!(rebuilt_sealed > 0);
        assert_eq!(
            s2.buckets, rebuilt_sealed,
            "the rebuilt sealed region ships again"
        );
        // The receiver overwrites by key: re-exported buckets replace
        // their earlier sketch columns, never double-count into them.
        let mut replay = ReplayStore::new();
        for b in &sink.batches {
            replay.apply(b);
        }
        for b in replay.buckets(id, SimDuration::from_secs(1)) {
            let sk = b.sketch.as_ref().expect("sketched pyramid");
            assert_eq!(
                sk.count(),
                b.count,
                "slot {:?}: sketch must match the bucket, not double-count",
                b.start
            );
        }
    }

    #[test]
    fn late_rollup_enable_is_picked_up_by_existing_cursor() {
        let mut db = Tsdb::with_retention(1 << 12);
        let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
        let mut exporter = Exporter::new();
        let mut sink = MemorySink::new();
        for t in 0..30u64 {
            db.insert(id, SimTime::from_secs(t), t as f64);
        }
        assert_eq!(exporter.drain(&db, &mut sink).unwrap().buckets, 0);
        // Rollups enabled later (backfilled from raw): the next drain
        // ships the now-sealed buckets without duplicating samples.
        db.enable_rollups(id, &tiny_sketched());
        let s = exporter.drain(&db, &mut sink).unwrap();
        assert!(s.buckets > 0);
        assert_eq!(s.samples, 0);
    }
}
