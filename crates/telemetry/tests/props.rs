//! Property tests for the monitoring substrate.
//!
//! The TSDB's retention/ordering invariants, stated as properties:
//! whatever a sensor feeds in, the store must hand Analyze components a
//! time-ordered, bounded, lossless-within-retention view.

use moda_sim::{SimDuration, SimTime};
use moda_telemetry::{MetricMeta, Sample, SourceDomain, TimeSeries, Tsdb, WindowAgg};
use proptest::prelude::*;

// ------------------------------------------------------------- series

proptest! {
    /// Monotonic appends are all kept (up to capacity); non-monotonic
    /// ones are rejected, never reordered.
    #[test]
    fn series_keeps_order_under_arbitrary_input(ts in prop::collection::vec(0u64..10_000, 1..300)) {
        let mut s = TimeSeries::new(1024);
        let mut kept_expect: Vec<u64> = Vec::new();
        let mut last: Option<u64> = None;
        for (i, &t) in ts.iter().enumerate() {
            let ok = s.push(SimTime(t), i as f64);
            // Acceptance rule: non-decreasing timestamps.
            let expect_ok = last.map(|l| t >= l).unwrap_or(true);
            prop_assert_eq!(ok, expect_ok, "push({}) after {:?}", t, last);
            if ok {
                kept_expect.push(t);
                last = Some(t);
            }
        }
        let kept: Vec<u64> = s.iter().map(|x| x.t.0).collect();
        prop_assert_eq!(kept, kept_expect);
        prop_assert_eq!(s.rejected() as usize, ts.len() - s.len());
    }

    /// Retention keeps exactly the newest `capacity` samples.
    #[test]
    fn series_retention_keeps_newest(capacity in 1usize..64, n in 1usize..300) {
        let mut s = TimeSeries::new(capacity);
        for i in 0..n {
            s.push(SimTime(i as u64), i as f64);
        }
        prop_assert_eq!(s.len(), n.min(capacity));
        prop_assert_eq!(s.total_appends(), n as u64);
        let oldest_kept = n.saturating_sub(capacity);
        prop_assert_eq!(s.oldest().unwrap().t.0 as usize, oldest_kept);
        prop_assert_eq!(s.latest().unwrap().t.0 as usize, n - 1);
    }

    /// `range_view` returns exactly the samples in `[t0, t1)`.
    #[test]
    fn series_range_is_half_open(n in 1u64..200, a in 0u64..220, b in 0u64..220) {
        let mut s = TimeSeries::new(4096);
        for i in 0..n {
            s.push(SimTime(i), i as f64);
        }
        let (t0, t1) = (a.min(b), a.max(b));
        let got: Vec<u64> = s.range_view(SimTime(t0), SimTime(t1)).iter().map(|x| x.t.0).collect();
        let want: Vec<u64> = (0..n).filter(|&i| i >= t0 && i < t1).collect();
        prop_assert_eq!(got, want);
    }

    /// `last_n_view` and `window_view` agree with direct slicing.
    #[test]
    fn series_views_agree(n in 1u64..200, k in 1usize..64, w in 1u64..300) {
        let mut s = TimeSeries::new(4096);
        for i in 0..n {
            s.push(SimTime(i), (i * 3) as f64);
        }
        let all: Vec<Sample> = s.iter().collect();
        let lastn = s.last_n_view(k).to_vec();
        prop_assert_eq!(&all[n as usize - k.min(n as usize)..], &lastn[..]);
        // Window semantics: half-open trailing interval (now − w, now].
        let now = SimTime(n - 1);
        let win = s.window_view(now, SimDuration(w)).to_vec();
        let t0 = now.0.saturating_sub(w);
        let expect: Vec<Sample> = all
            .iter()
            .filter(|x| x.t.0 > t0 && x.t <= now)
            .copied()
            .collect();
        prop_assert_eq!(win, expect);
    }
}

// ---------------------------------------------- views vs naive scans
//
// The zero-allocation query engine (binary-searched `SampleView`s over
// the SoA ring) must be sample-for-sample equivalent to a naive
// filter-scan reference on arbitrary streams — including ring
// wraparound (capacity < stream length) and duplicate timestamps.

/// Build a small-capacity series (forcing wraparound) plus the naive
/// in-retention reference: the newest `capacity` kept samples.
fn ring_and_reference(capacity: usize, stream: &[(u64, f64)]) -> (TimeSeries, Vec<Sample>) {
    let mut s = TimeSeries::new(capacity);
    let mut kept: Vec<Sample> = Vec::new();
    for &(t, v) in stream {
        if s.push(SimTime(t), v) {
            kept.push(Sample {
                t: SimTime(t),
                value: v,
            });
        }
    }
    let start = kept.len().saturating_sub(capacity.max(1));
    (s, kept[start..].to_vec())
}

/// Timestamp streams with plenty of duplicates (range 0..50 over up to
/// 300 draws guarantees collisions).
fn dup_heavy_stream() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((0u64..50, -100.0f64..100.0), 1..300)
}

proptest! {
    /// Whole-series view equals the reference, through wraparound.
    #[test]
    fn view_equals_reference(capacity in 1usize..48, stream in dup_heavy_stream()) {
        let (s, reference) = ring_and_reference(capacity, &stream);
        let viewed: Vec<Sample> = s.view().into_iter().collect();
        prop_assert_eq!(&viewed, &reference);
        prop_assert_eq!(s.view().len(), reference.len());
        // Segment slices concatenate to the same values.
        let seg_vals: Vec<f64> = s.view().values().collect();
        let ref_vals: Vec<f64> = reference.iter().map(|x| x.value).collect();
        prop_assert_eq!(seg_vals, ref_vals);
    }

    /// `range_view` (binary search) equals a naive filter over the
    /// retained reference, for arbitrary half-open intervals.
    #[test]
    fn range_view_equals_filter_scan(
        capacity in 1usize..48,
        stream in dup_heavy_stream(),
        a in 0u64..60,
        b in 0u64..60,
    ) {
        let (s, reference) = ring_and_reference(capacity, &stream);
        let (t0, t1) = (a.min(b), a.max(b));
        let got: Vec<Sample> = s.range_view(SimTime(t0), SimTime(t1)).into_iter().collect();
        let want: Vec<Sample> = reference
            .iter()
            .filter(|x| x.t.0 >= t0 && x.t.0 < t1)
            .copied()
            .collect();
        prop_assert_eq!(got, want);
    }

    /// `window_view` (trailing, half-open at the old end) equals a naive
    /// filter over the reference.
    #[test]
    fn window_view_equals_filter_scan(
        capacity in 1usize..48,
        stream in dup_heavy_stream(),
        now in 0u64..60,
        w in 1u64..80,
    ) {
        let (s, reference) = ring_and_reference(capacity, &stream);
        let got: Vec<Sample> = s
            .window_view(SimTime(now), SimDuration(w))
            .into_iter()
            .collect();
        let t0 = now.saturating_sub(w);
        let want: Vec<Sample> = reference
            .iter()
            .filter(|x| x.t.0 > t0 && x.t.0 <= now)
            .copied()
            .collect();
        prop_assert_eq!(got, want);
    }

    /// `last_n_view` equals reference tail slicing.
    #[test]
    fn last_n_view_equals_tail(
        capacity in 1usize..48,
        stream in dup_heavy_stream(),
        n in 0usize..64,
    ) {
        let (s, reference) = ring_and_reference(capacity, &stream);
        let got: Vec<Sample> = s.last_n_view(n).into_iter().collect();
        let want = &reference[reference.len() - n.min(reference.len())..];
        prop_assert_eq!(&got[..], want);
    }

    /// View aggregation (allocation-free fold, selection-based
    /// percentile) matches `WindowAgg::apply` over the naively collected
    /// window values.
    #[test]
    fn view_aggregates_equal_apply_on_scan(
        capacity in 1usize..48,
        stream in dup_heavy_stream(),
        now in 0u64..60,
        w in 1u64..80,
        q in 0.0f64..1.0,
    ) {
        let (s, reference) = ring_and_reference(capacity, &stream);
        let t0 = now.saturating_sub(w);
        let vals: Vec<f64> = reference
            .iter()
            .filter(|x| x.t.0 > t0 && x.t.0 <= now)
            .map(|x| x.value)
            .collect();
        let view = s.window_view(SimTime(now), SimDuration(w));
        for agg in [
            WindowAgg::Mean,
            WindowAgg::Min,
            WindowAgg::Max,
            WindowAgg::Sum,
            WindowAgg::Last,
            WindowAgg::Count,
            WindowAgg::Percentile(q),
        ] {
            let fast = view.aggregate(agg);
            let naive = agg.apply(&vals);
            prop_assert!(
                (fast - naive).abs() < 1e-9 || (fast.is_nan() && naive.is_nan()),
                "{:?}: fast {} vs naive {}", agg, fast, naive
            );
        }
    }

    /// `value_at` binary search matches a naive linear reference on
    /// duplicate-heavy streams: exact hits return the newest duplicate,
    /// interpolation brackets correctly, and out-of-span queries are None.
    #[test]
    fn value_at_equals_linear_reference(
        capacity in 1usize..48,
        stream in dup_heavy_stream(),
        t in 0u64..60,
    ) {
        let (s, reference) = ring_and_reference(capacity, &stream);
        let got = s.value_at(SimTime(t));
        // Naive reference: last sample with ts <= t, interpolated toward
        // the next strictly-later sample.
        let want = (|| {
            let first = reference.first()?;
            let last = reference.last()?;
            if t < first.t.0 || t > last.t.0 {
                return None;
            }
            let below = reference.iter().rposition(|x| x.t.0 <= t)?;
            let b = reference[below];
            if b.t.0 == t {
                return Some(b.value);
            }
            let n = reference[below + 1];
            let frac = (t - b.t.0) as f64 / (n.t.0 - b.t.0) as f64;
            Some(b.value + frac * (n.value - b.value))
        })();
        match (got, want) {
            (None, None) => {}
            (Some(g), Some(w)) => prop_assert!((g - w).abs() < 1e-9, "{} vs {}", g, w),
            other => prop_assert!(false, "mismatch: {:?}", other),
        }
    }
}

// ------------------------------------------------------------- tsdb

fn db_with(n_metrics: usize, capacity: usize) -> (Tsdb, Vec<moda_telemetry::MetricId>) {
    let mut db = Tsdb::with_retention(capacity);
    let ids = (0..n_metrics)
        .map(|i| {
            db.register(MetricMeta::gauge(
                format!("m{i}"),
                "u",
                SourceDomain::Hardware,
            ))
        })
        .collect();
    (db, ids)
}

/// `resample_into` a fresh buffer.
fn resample(
    db: &Tsdb,
    id: moda_telemetry::MetricId,
    t0: SimTime,
    t1: SimTime,
    period: SimDuration,
    agg: WindowAgg,
) -> Vec<Option<f64>> {
    let mut out = Vec::new();
    db.resample_into(id, t0, t1, period, agg, &mut out);
    out
}

proptest! {
    /// Insert accounting is exact across metrics.
    #[test]
    fn tsdb_insert_accounting(writes in prop::collection::vec((0usize..8, 0u64..1000), 1..300)) {
        let (mut db, ids) = db_with(8, 4096);
        let mut accepted = 0u64;
        let mut last: Vec<Option<u64>> = vec![None; 8];
        for &(m, t) in &writes {
            let ok = db.insert(ids[m], SimTime(t), 1.0);
            let expect = last[m].map(|l| t >= l).unwrap_or(true);
            prop_assert_eq!(ok, expect);
            if ok {
                accepted += 1;
                last[m] = Some(t);
            }
        }
        prop_assert_eq!(db.total_inserts(), accepted);
        prop_assert_eq!(db.cardinality(), 8);
    }

    /// Resampling conserves the mean: the mean of bucket means weighted
    /// by bucket counts equals the overall mean.
    #[test]
    fn tsdb_resample_conserves_mean(
        values in prop::collection::vec(0.0f64..100.0, 2..200),
        period in 1u64..50,
    ) {
        let (mut db, ids) = db_with(1, 4096);
        for (i, &v) in values.iter().enumerate() {
            db.insert(ids[0], SimTime(i as u64), v);
        }
        let t1 = SimTime(values.len() as u64);
        let buckets = resample(&db, ids[0], SimTime::ZERO, t1, SimDuration(period), WindowAgg::Mean);
        let counts = resample(&db, ids[0], SimTime::ZERO, t1, SimDuration(period), WindowAgg::Count);
        let mut weighted = 0.0;
        let mut total = 0.0;
        for (m, c) in buckets.iter().zip(&counts) {
            if let (Some(m), Some(c)) = (m, c) {
                weighted += m * c;
                total += c;
            }
        }
        prop_assert_eq!(total as usize, values.len());
        let overall = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((weighted / total - overall).abs() < 1e-9);
    }

    /// Min/max aggregations bound every sample in the window.
    #[test]
    fn tsdb_window_aggregates_bound_samples(values in prop::collection::vec(-50.0f64..50.0, 2..100)) {
        let (mut db, ids) = db_with(1, 4096);
        for (i, &v) in values.iter().enumerate() {
            db.insert(ids[0], SimTime(i as u64), v);
        }
        let t1 = SimTime(values.len() as u64);
        let lo = resample(&db, ids[0], SimTime::ZERO, t1, SimDuration(t1.0), WindowAgg::Min);
        let hi = resample(&db, ids[0], SimTime::ZERO, t1, SimDuration(t1.0), WindowAgg::Max);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(lo[0], Some(min));
        prop_assert_eq!(hi[0], Some(max));
    }
}

// ------------------------------------------------------------- export

use moda_telemetry::export::{ExportRecord, Exporter, MemorySink};
use moda_telemetry::ReplayStore;

proptest! {
    /// CSV snapshot renders one row per retained sample plus one meta
    /// row per metric (and the format/batch framing rows), in order.
    #[test]
    fn export_snapshot_matches_store(n in 1u64..200) {
        let (mut db, ids) = db_with(2, 4096);
        for i in 0..n {
            db.insert(ids[0], SimTime(i), i as f64);
            db.insert(ids[1], SimTime(i), (i * 2) as f64);
        }
        let csv = moda_telemetry::export::snapshot_csv(&db);
        let sample_rows = csv.lines().filter(|l| l.starts_with("sample,")).count();
        prop_assert_eq!(sample_rows as u64, 2 * n);
        let meta_rows = csv.lines().filter(|l| l.starts_with("meta,")).count();
        prop_assert_eq!(meta_rows, 2);
        prop_assert!(csv.starts_with("format,moda-export,1\n"));
    }

    /// Concatenated incremental drains ≡ one full export: splitting the
    /// same accepted stream across arbitrarily many drain calls (with a
    /// small batch bound, so records straddle many batches) yields the
    /// exact record sequence a fresh exporter produces in one shot —
    /// the resume-from-cursor contract.
    #[test]
    fn incremental_batches_equal_full_export(
        stream in prop::collection::vec((0u64..4000, -50.0f64..50.0), 1..300),
        cuts in prop::collection::vec(0usize..300, 0..6),
        batch_cap in 1usize..40,
    ) {
        // Two identically-fed stores with a small sketched pyramid so
        // seals (and cascades) happen inside short streams. Retention
        // (raw and bucket rings) covers the whole stream — the
        // precondition for exact incremental ≡ full equivalence; what
        // eviction does to late drains is pinned by
        // `replay_reconstructs_store_state` below. Monotonized
        // timestamps so every sample is accepted.
        let cfg = moda_telemetry::RollupConfig::new(vec![
            moda_telemetry::RollupTier::new(SimDuration::from_secs(1), 512),
            moda_telemetry::RollupTier::new(SimDuration::from_secs(10), 64),
        ]).with_sketches();
        let mut t_acc = 0u64;
        let stream: Vec<(u64, f64)> = stream
            .into_iter()
            .map(|(dt, v)| { t_acc += dt % 1500; (t_acc, v) })
            .collect();
        let mk = || {
            let mut db = Tsdb::with_retention(1 << 10);
            let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
            db.enable_rollups(id, &cfg);
            (db, id)
        };
        let (mut inc_db, id) = mk();
        let (mut full_db, _) = mk();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % stream.len().max(1)).collect();
        cuts.sort_unstable();
        let mut inc_exporter = Exporter::new().with_batch_records(batch_cap);
        let mut inc_sink = MemorySink::new();
        for (i, &(t, v)) in stream.iter().enumerate() {
            // Drain mid-stream at every cut point.
            while cuts.first() == Some(&i) {
                cuts.remove(0);
                inc_exporter.drain(&inc_db, &mut inc_sink).unwrap();
            }
            inc_db.insert(id, SimTime(t), v);
            full_db.insert(id, SimTime(t), v);
        }
        inc_exporter.drain(&inc_db, &mut inc_sink).unwrap();
        let mut full_sink = MemorySink::new();
        Exporter::new().drain(&full_db, &mut full_sink).unwrap();
        // Incremental drains interleave kinds (each drain ships its
        // pending samples, then its newly sealed buckets), so the
        // equivalence is per kind-projection, each of which is
        // order-preserving: the sample stream, each tier's
        // bucket+column stream, and the metas. Chunk records expand to
        // their decoded samples — a region a full export ships as one
        // compressed chunk, incremental drains may have shipped
        // per-sample before it sealed; the decoded stream is the
        // invariant the wire spec pins.
        let project = |sink: &MemorySink| {
            let mut samples: Vec<(u64, u64, u64)> = Vec::new();
            let mut metas: Vec<ExportRecord> = Vec::new();
            let mut tiers: std::collections::BTreeMap<u64, Vec<ExportRecord>> =
                std::collections::BTreeMap::new();
            for r in sink.records() {
                match r {
                    ExportRecord::Sample { id, t, value } =>
                        samples.push((id.0 as u64, t.0, value.to_bits())),
                    ExportRecord::Chunk { id, count, first_t, bytes, .. } => {
                        let (mut ts, mut vals) = (Vec::new(), Vec::new());
                        moda_telemetry::chunk::decode_exact(
                            first_t.0, *count, bytes, &mut ts, &mut vals,
                        ).expect("exported chunk payloads decode");
                        for (t, v) in ts.into_iter().zip(vals) {
                            samples.push((id.0 as u64, t, v.to_bits()));
                        }
                    }
                    ExportRecord::Meta { .. } => metas.push(r.clone()),
                    ExportRecord::Bucket { res, .. } | ExportRecord::Sketch { res, .. } => {
                        tiers.entry(res.0).or_default().push(r.clone())
                    }
                }
            }
            (samples, metas, tiers)
        };
        prop_assert_eq!(project(&inc_sink), project(&full_sink));
        // And the batch bound held (modulo the documented bucket+columns
        // overflow, bounded by one sketch's entry count ≤ its bucket's
        // sample count ≤ the whole stream).
        for b in &inc_sink.batches {
            prop_assert!(b.records.len() <= batch_cap + stream.len() + 1,
                "batch {} holds {} records (cap {})", b.seq, b.records.len(), batch_cap);
        }
    }

    /// Replaying every batch reconstructs the exported state: raw
    /// samples (exported + missed == accepted), every sealed bucket
    /// bit-exactly (sketches included), and sketch-merged quantiles
    /// within the documented 1 % bound of the raw selection.
    #[test]
    fn replay_reconstructs_store_state(
        n in 50u64..600,
        retention in 16usize..2048,
        drains in 1usize..5,
    ) {
        let cfg = moda_telemetry::RollupConfig::new(vec![
            moda_telemetry::RollupTier::new(SimDuration::from_secs(1), 64),
            moda_telemetry::RollupTier::new(SimDuration::from_secs(10), 16),
        ]).with_sketches();
        let mut db = Tsdb::with_retention(retention);
        let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
        db.enable_rollups(id, &cfg);
        let mut exporter = Exporter::new().with_batch_records(57);
        let mut sink = MemorySink::new();
        let mut accepted = 0u64;
        for i in 0..n {
            // ~700 ms cadence: several samples per 1 s slot.
            if db.insert(id, SimTime(i * 700), ((i * 7919) % 101) as f64 + 1.0) {
                accepted += 1;
            }
            if i % (n / drains as u64 + 1) == 0 {
                exporter.drain(&db, &mut sink).unwrap();
            }
        }
        exporter.drain(&db, &mut sink).unwrap();
        let totals = exporter.totals();
        prop_assert_eq!(totals.samples + totals.missed_samples, accepted);
        let mut replay = ReplayStore::new();
        for b in &sink.batches {
            replay.apply(b);
        }
        prop_assert_eq!(replay.meta(id).map(|m| m.name.as_str()), Some("m"));
        prop_assert_eq!(replay.samples(id).len() as u64, totals.samples);
        // Replayed samples are time-ordered and a suffix-union of the
        // accepted stream (drains may interleave with evictions).
        prop_assert!(replay.samples(id).windows(2).all(|w| w[0].0 <= w[1].0));
        let set = db.rollups(id).unwrap();
        let mut replayed_buckets = 0u64;
        for ring in set.rings() {
            let got: std::collections::BTreeMap<u64, _> = replay
                .buckets(id, ring.res())
                .map(|b| (b.start.0, b))
                .collect();
            replayed_buckets += got.len() as u64;
            // The final drain shipped every still-retained sealed
            // bucket; earlier drains may have shipped buckets the ring
            // has since evicted, so replay is a superset. Every
            // retained sealed bucket must round-trip bit-exactly,
            // sketch included.
            for w in ring.sealed_buckets() {
                let g = got.get(&w.start.0);
                prop_assert!(g.is_some(), "sealed bucket at {:?} not replayed", w.start);
                let g = g.unwrap();
                prop_assert_eq!(g.count, w.count);
                prop_assert_eq!(g.sum, w.sum);
                prop_assert_eq!(g.min, w.min);
                prop_assert_eq!(g.max, w.max);
                prop_assert_eq!(g.last, w.last);
                prop_assert_eq!(&g.sketch, &w.sketch);
            }
        }
        // The exporter never duplicates a bucket, so the replayed total
        // is exactly what the stats claim was shipped.
        prop_assert_eq!(replayed_buckets, totals.buckets);
        // Lifetime identity per ring: every sealed bucket ever produced
        // was shipped or accounted missed (nothing pending right after
        // a drain) — eviction-before-export never vanishes silently.
        let sealed_ever: u64 = set
            .rings()
            .iter()
            .map(|r| r.evicted() + (r.len() as u64).saturating_sub(1))
            .sum();
        prop_assert_eq!(sealed_ever, totals.buckets + totals.missed_buckets);
        // Downstream percentile from merged sketch columns: within the
        // sketch bound of the exact selection over the sealed span.
        let fine = set.rings()[0].res();
        let merged = replay.merged_sketch(id, fine);
        if !merged.is_empty() {
            let sealed_end = set.rings()[0]
                .sealed_buckets()
                .last()
                .map(|b| b.start.0 + fine.0)
                .unwrap();
            let view = db.series(id).range_view(SimTime::ZERO, SimTime(sealed_end));
            // Only comparable while raw still retains the sealed span.
            if view.len() as u64 == merged.count() {
                for q in [0.05, 0.5, 0.95] {
                    let got = merged.quantile(q);
                    let want = view.aggregate(WindowAgg::Percentile(q));
                    prop_assert!(
                        (got - want).abs() <= 0.0101 * want.abs() + 1.0,
                        "q={}: {} vs {}", q, got, want
                    );
                }
            }
        }
    }
}

// ------------------------------------------------------------- rollups

use moda_telemetry::rollup::{RollupConfig, RollupTier};

/// A pair of identically-fed stores: one raw-only, one with a tiny
/// two-tier rollup pyramid (1 s × `cap_fine`, 10 s × `cap_coarse`) so
/// ring wraparound happens within short prop streams. Raw retention is
/// large enough to hold every accepted sample, which is the precondition
/// for exact rollup ≡ raw equivalence.
fn rollup_pair(
    cap_fine: usize,
    cap_coarse: usize,
    stream: &[(u64, f64)],
) -> (Tsdb, Tsdb, moda_telemetry::MetricId) {
    let cfg = RollupConfig::new(vec![
        RollupTier::new(SimDuration::from_secs(1), cap_fine),
        RollupTier::new(SimDuration::from_secs(10), cap_coarse),
    ]);
    let mut raw = Tsdb::with_retention(1 << 16);
    let mut rolled = Tsdb::with_retention(1 << 16);
    let a = raw.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
    let b = rolled.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
    rolled.enable_rollups(b, &cfg);
    assert_eq!(a, b);
    for &(t, v) in stream {
        // Out-of-order samples are rejected by both stores identically;
        // the rollup tier must fold only what the raw ring accepted.
        assert_eq!(
            raw.insert(a, SimTime(t), v),
            rolled.insert(b, SimTime(t), v)
        );
    }
    (raw, rolled, a)
}

/// Millisecond timestamps spanning ~80 s so both tiers seal buckets and
/// the fine ring wraps; unsorted input exercises out-of-order rejection
/// (including rejects aimed at the unsealed tail bucket).
fn rollup_stream() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((0u64..80_000, -100.0f64..100.0), 1..400)
}

proptest! {
    /// The planner-routed `window_agg` equals the raw-path result for
    /// every servable aggregation, for arbitrary windows over arbitrary
    /// (duplicate- and reject-heavy) streams, through rollup-ring
    /// wraparound. Count/Min/Max/Last must match exactly; Sum/Mean up to
    /// float re-association.
    #[test]
    fn rollup_window_agg_equals_raw(
        cap_fine in 2usize..20,
        cap_coarse in 2usize..6,
        stream in rollup_stream(),
        now in 0u64..90_000,
        window in 1u64..90_000,
    ) {
        let (raw, rolled, id) = rollup_pair(cap_fine, cap_coarse, &stream);
        let (now, window) = (SimTime(now), SimDuration(window));
        for agg in [WindowAgg::Count, WindowAgg::Min, WindowAgg::Max, WindowAgg::Last] {
            let want = raw.window_agg(id, now, window, agg);
            let got = rolled.window_agg(id, now, window, agg);
            prop_assert_eq!(got, want, "{:?} now={:?} w={:?}", agg, now, window);
        }
        for agg in [WindowAgg::Sum, WindowAgg::Mean] {
            let want = raw.window_agg(id, now, window, agg);
            let got = rolled.window_agg(id, now, window, agg);
            match (got, want) {
                (Some(g), Some(w)) =>
                    prop_assert!((g - w).abs() < 1e-9 * w.abs().max(1.0), "{:?}: {} vs {}", agg, g, w),
                (g, w) => prop_assert_eq!(g, w, "{:?}", agg),
            }
        }
        // Percentile is not servable and must agree by construction
        // (both read raw).
        let q = WindowAgg::Percentile(0.9);
        prop_assert_eq!(rolled.window_agg(id, now, window, q), raw.window_agg(id, now, window, q));
    }

    /// The planner-routed `resample_into` produces bucket-for-bucket the
    /// same output as the raw streaming kernel (gaps included), for
    /// arbitrary spans and periods at or above the finest tier.
    #[test]
    fn rollup_resample_equals_raw(
        cap_fine in 2usize..20,
        cap_coarse in 2usize..6,
        stream in rollup_stream(),
        a in 0u64..90_000,
        b in 0u64..90_000,
        period in 1_000u64..30_000,
        agg_ix in 0usize..6,
    ) {
        let (raw, rolled, id) = rollup_pair(cap_fine, cap_coarse, &stream);
        let (t0, t1) = (SimTime(a.min(b)), SimTime(a.max(b)));
        let agg = [WindowAgg::Count, WindowAgg::Min, WindowAgg::Max,
                   WindowAgg::Last, WindowAgg::Sum, WindowAgg::Mean][agg_ix];
        let mut want = Vec::new();
        raw.resample_into(id, t0, t1, SimDuration(period), agg, &mut want);
        let mut got = Vec::new();
        rolled.resample_into(id, t0, t1, SimDuration(period), agg, &mut got);
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            match (g, w) {
                (Some(g), Some(w)) =>
                    prop_assert!((g - w).abs() < 1e-9 * w.abs().max(1.0),
                        "bucket {} of {:?}: {} vs {}", i, agg, g, w),
                (g, w) => prop_assert_eq!(g, w, "bucket {} of {:?}", i, agg),
            }
        }
    }

    /// Sub-bucket periods fall back to the raw kernel and still match.
    #[test]
    fn rollup_subbucket_resample_falls_back(
        stream in rollup_stream(),
        period in 1u64..1_000,
    ) {
        let (raw, rolled, id) = rollup_pair(8, 4, &stream);
        let (t0, t1) = (SimTime::ZERO, SimTime(80_000));
        let mut want = Vec::new();
        raw.resample_into(id, t0, t1, SimDuration(period), WindowAgg::Count, &mut want);
        let mut got = Vec::new();
        rolled.resample_into(id, t0, t1, SimDuration(period), WindowAgg::Count, &mut got);
        prop_assert_eq!(got, want);
        prop_assert_eq!(rolled.rollup_hits(), 0);
    }
}

// ----------------------------------------------- percentile sketches
//
// Sketch-served percentiles must stay within the documented relative
// error bound of the exact selection — `|v̂ − v| ≤ α·|v|` with
// α = SKETCH_RELATIVE_ERROR against the order statistics bracketing the
// queried rank — across workload shapes (uniform, lognormal-style heavy
// tails, adversarial duplicates), through rollup-ring wraparound and the
// fine→coarse cascade, with raw splices at the window edges.

use moda_telemetry::SKETCH_RELATIVE_ERROR;

/// Like `rollup_pair`, but the rolled store's pyramid embeds quantile
/// sketches.
fn sketched_pair(
    cap_fine: usize,
    cap_coarse: usize,
    stream: &[(u64, f64)],
) -> (Tsdb, Tsdb, moda_telemetry::MetricId) {
    let cfg = RollupConfig::new(vec![
        RollupTier::new(SimDuration::from_secs(1), cap_fine),
        RollupTier::new(SimDuration::from_secs(10), cap_coarse),
    ])
    .with_sketches();
    let mut raw = Tsdb::with_retention(1 << 16);
    let mut rolled = Tsdb::with_retention(1 << 16);
    let a = raw.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
    let b = rolled.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
    rolled.enable_rollups(b, &cfg);
    assert_eq!(a, b);
    for &(t, v) in stream {
        assert_eq!(
            raw.insert(a, SimTime(t), v),
            rolled.insert(b, SimTime(t), v)
        );
    }
    (raw, rolled, a)
}

/// Assert one sketch-served window percentile against the exact order
/// statistics of the same raw window.
fn assert_sketch_window_within_bound(
    raw: &Tsdb,
    rolled: &Tsdb,
    id: moda_telemetry::MetricId,
    now: SimTime,
    window: SimDuration,
    q: f64,
) -> Result<(), proptest::TestCaseError> {
    let got = rolled.window_agg(id, now, window, WindowAgg::Percentile(q));
    let mut vals: Vec<f64> = raw.window_view(id, now, window).values().collect();
    if vals.is_empty() {
        // Empty window: the aggregate path reports None on both stores
        // (the sketch itself reports NaN, matching `WindowAgg::apply`).
        prop_assert_eq!(got, None);
        return Ok(());
    }
    let got = got.expect("non-empty window yields a percentile");
    vals.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let pos = q.clamp(0.0, 1.0) * (vals.len() - 1) as f64;
    let lo = vals[pos.floor() as usize];
    let hi = vals[pos.ceil() as usize];
    // The sketch targets the order statistic at round(pos), which lies
    // in [lo, hi]; its estimate must land within α (plus fp slack and
    // the zero-bucket epsilon) of that interval.
    let a = SKETCH_RELATIVE_ERROR + 1e-9;
    let lo_b = lo - a * lo.abs() - 1e-9;
    let hi_b = hi + a * hi.abs() + 1e-9;
    prop_assert!(
        got >= lo_b && got <= hi_b,
        "q={} now={:?} w={:?}: sketch {} outside [{}, {}] (exact [{}, {}])",
        q,
        now,
        window,
        got,
        lo_b,
        hi_b,
        lo,
        hi
    );
    Ok(())
}

/// Value streams with a lognormal-style heavy tail (exp of a uniform
/// exponent): magnitudes span ~9 decades, the shape that stresses the
/// log-bucket layout.
fn heavy_tail_stream() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((0u64..80_000, -4.0f64..16.0, 0u64..2), 1..400).prop_map(|v| {
        v.into_iter()
            .map(|(t, e, neg)| (t, if neg == 1 { -e.exp() } else { e.exp() }))
            .collect()
    })
}

/// Adversarially duplicate-heavy values drawn from a tiny palette
/// (including zero and sign flips).
fn duplicate_palette_stream() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((0u64..80_000, 0usize..5), 1..400).prop_map(|v| {
        v.into_iter()
            .map(|(t, i)| (t, [0.0, 3.5, 3.5, -120.0, 7.25][i]))
            .collect()
    })
}

proptest! {
    /// Uniform-ish workloads (the same stream shape as the scalar rollup
    /// props): sketch-served `window_agg` percentiles stay within the
    /// bound for arbitrary windows, ranks, and ring wraparound, and
    /// `rollup_hits`/`sketch_hits` agree with how queries were served.
    #[test]
    fn sketch_window_percentile_within_bound_uniform(
        cap_fine in 2usize..20,
        cap_coarse in 2usize..6,
        stream in rollup_stream(),
        now in 0u64..90_000,
        window in 1u64..90_000,
        q in 0.0f64..1.0,
    ) {
        let (raw, rolled, id) = sketched_pair(cap_fine, cap_coarse, &stream);
        assert_sketch_window_within_bound(&raw, &rolled, id, SimTime(now), SimDuration(window), q)?;
        prop_assert!(rolled.rollup_hits() >= rolled.sketch_hits());
    }

    /// Heavy-tailed (lognormal-style) workloads.
    #[test]
    fn sketch_window_percentile_within_bound_heavy_tail(
        stream in heavy_tail_stream(),
        now in 0u64..90_000,
        window in 1u64..90_000,
        q in 0.0f64..1.0,
    ) {
        let (raw, rolled, id) = sketched_pair(8, 4, &stream);
        assert_sketch_window_within_bound(&raw, &rolled, id, SimTime(now), SimDuration(window), q)?;
    }

    /// Adversarial duplicates (tiny value palette with zeros and sign
    /// flips): bucket counts pile up in few keys and every rank walk
    /// crosses the zero/negative boundaries.
    #[test]
    fn sketch_window_percentile_within_bound_duplicates(
        stream in duplicate_palette_stream(),
        now in 0u64..90_000,
        window in 1u64..90_000,
        q in 0.0f64..1.0,
    ) {
        let (raw, rolled, id) = sketched_pair(6, 3, &stream);
        assert_sketch_window_within_bound(&raw, &rolled, id, SimTime(now), SimDuration(window), q)?;
    }

    /// Sketch-served percentile `resample_into` buckets each stay within
    /// the bound of the exact per-bucket selection — including buckets
    /// served from the coarse tier (the merged 1s→10s cascade).
    #[test]
    fn sketch_resample_percentiles_within_bound(
        stream in rollup_stream(),
        a in 0u64..90_000,
        b in 0u64..90_000,
        period in 1_000u64..30_000,
        q in 0.0f64..1.0,
    ) {
        let (raw, rolled, id) = sketched_pair(16, 5, &stream);
        let (t0, t1) = (SimTime(a.min(b)), SimTime(a.max(b)));
        let mut got = Vec::new();
        rolled.resample_into(id, t0, t1, SimDuration(period), WindowAgg::Percentile(q), &mut got);
        let nb = (t1.0 - t0.0).div_ceil(period) as usize;
        prop_assert_eq!(got.len(), nb);
        let alpha = SKETCH_RELATIVE_ERROR + 1e-9;
        for (i, g) in got.iter().enumerate() {
            let b0 = SimTime(t0.0 + i as u64 * period);
            let b1 = SimTime((t0.0 + (i as u64 + 1) * period).min(t1.0));
            let mut vals: Vec<f64> = raw.series(id).range_view(b0, b1).values().collect();
            match g {
                None => prop_assert!(vals.is_empty(), "bucket {} should be a gap", i),
                Some(g) => {
                    prop_assert!(!vals.is_empty());
                    vals.sort_by(|x, y| x.partial_cmp(y).unwrap());
                    let pos = q.clamp(0.0, 1.0) * (vals.len() - 1) as f64;
                    let lo = vals[pos.floor() as usize];
                    let hi = vals[pos.ceil() as usize];
                    prop_assert!(
                        *g >= lo - alpha * lo.abs() - 1e-9 && *g <= hi + alpha * hi.abs() + 1e-9,
                        "bucket {}: sketch {} vs exact [{}, {}]", i, g, lo, hi
                    );
                }
            }
        }
    }

    /// A sketch-free pyramid keeps percentile behaviour byte-identical
    /// to the raw store (fallback path) and never counts sketch hits.
    #[test]
    fn sketchfree_percentiles_identical_to_raw(
        stream in rollup_stream(),
        now in 0u64..90_000,
        window in 1u64..90_000,
        q in 0.0f64..1.0,
    ) {
        let (raw, rolled, id) = rollup_pair(8, 4, &stream);
        let p = WindowAgg::Percentile(q);
        prop_assert_eq!(
            rolled.window_agg(id, SimTime(now), SimDuration(window), p),
            raw.window_agg(id, SimTime(now), SimDuration(window), p)
        );
        prop_assert_eq!(rolled.sketch_hits(), 0);
    }
}

/// Regression: the unsealed tail bucket must be spliced from raw
/// samples. A sample landing in the newest (unsealed) bucket *after* a
/// first query must show up in the next query's answer — if the planner
/// served the unsealed bucket (or cached it), the second read would miss
/// the late sample.
#[test]
fn unsealed_tail_bucket_splices_fresh_raw_samples() {
    let cfg = RollupConfig::new(vec![RollupTier::new(SimDuration::from_secs(60), 16)]);
    let mut db = Tsdb::with_retention(1 << 12);
    let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
    db.enable_rollups(id, &cfg);
    // Three sealed minutes + one sample in the unsealed fourth minute
    // (starting at 1 s: trailing windows are open at t0, so a sample at
    // exactly t = 0 would sit outside every saturated wide window).
    for s in 1..=181u64 {
        db.insert(id, SimTime::from_secs(s), 1.0);
    }
    let w = SimDuration::from_secs(3600);
    assert_eq!(
        db.window_agg(id, SimTime::from_secs(181), w, WindowAgg::Count),
        Some(181.0)
    );
    assert!(
        db.rollup_hits() > 0,
        "sealed minutes should come from rollups"
    );
    // Late samples inside the same unsealed minute bucket...
    for s in 182..200u64 {
        db.insert(id, SimTime::from_secs(s), 2.0);
    }
    // ...are visible immediately, spliced from raw (Count and Max both
    // reflect the fresh tail).
    assert_eq!(
        db.window_agg(id, SimTime::from_secs(200), w, WindowAgg::Count),
        Some(199.0)
    );
    assert_eq!(
        db.window_agg(id, SimTime::from_secs(200), w, WindowAgg::Max),
        Some(2.0)
    );
    // An out-of-order insert aimed at the unsealed tail is rejected by
    // the raw ring and must not leak into any tier's buckets.
    assert!(!db.insert(id, SimTime::from_secs(150), 99.0));
    assert_eq!(
        db.window_agg(id, SimTime::from_secs(200), w, WindowAgg::Max),
        Some(2.0)
    );
    assert_eq!(
        db.window_agg(id, SimTime::from_secs(200), w, WindowAgg::Count),
        Some(199.0)
    );
}

// ------------------------------------------------- compressed chunks
//
// The Gorilla codec behind sealed-chunk storage (delta-of-delta
// timestamps + XOR values) must round-trip **bit-exactly** — NaN
// payloads included — and must be invisible to every consumer: the
// store's own queries, the exporter, and a replayed downstream store
// all see the same decoded stream.

use moda_telemetry::chunk;

/// Adversarial sample streams: duplicate, dense, and wildly spaced
/// timestamps carrying NaN payloads, signed zeros, subnormals,
/// infinities, extreme magnitudes, and fully arbitrary bit patterns.
fn adversarial_stream() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((0u64..9, any::<u64>(), 0u64..4, 1u64..2_000), 1..1200).prop_map(
        |draws| {
            let mut t = 0u64;
            draws
                .into_iter()
                .map(|(sel, raw, dsel, dt)| {
                    let v = match sel {
                        0 => f64::from_bits(0x7FF8_0000_0000_0001 | (raw & 0x0007_FFFF_FFFF_FFFF)),
                        1 => -0.0,
                        2 => 0.0,
                        3 => f64::from_bits(raw & 0x000F_FFFF_FFFF_FFFF),
                        4 => f64::INFINITY,
                        5 => f64::NEG_INFINITY,
                        6 => f64::MAX,
                        7 => f64::from_bits(raw),
                        _ => (raw as i64) as f64 * 1e-3,
                    };
                    t += match dsel {
                        0 => 0,
                        1 => 1,
                        2 => dt,
                        _ => dt * 1_000_000,
                    };
                    (t, v)
                })
                .collect()
        },
    )
}

/// Flatten a sink's record stream to decoded `(metric, t, value_bits)`
/// samples, expanding compressed chunk records through the codec.
fn decoded_samples(sink: &MemorySink) -> Vec<(u32, u64, u64)> {
    let mut out = Vec::new();
    for r in sink.records() {
        match r {
            ExportRecord::Sample { id, t, value } => out.push((id.0, t.0, value.to_bits())),
            ExportRecord::Chunk {
                id,
                count,
                first_t,
                bytes,
                ..
            } => {
                let (mut ts, mut vals) = (Vec::new(), Vec::new());
                chunk::decode_exact(first_t.0, *count, bytes, &mut ts, &mut vals)
                    .expect("exported chunk payloads decode");
                out.extend(
                    ts.into_iter()
                        .zip(vals)
                        .map(|(t, v)| (id.0, t, v.to_bits())),
                );
            }
            _ => {}
        }
    }
    out
}

proptest! {
    /// Compress → decode is the identity, bit for bit, on adversarial
    /// values — and the streaming decoder agrees with the batch one.
    #[test]
    fn chunk_codec_round_trips_bit_exactly(
        stream in adversarial_stream(),
        start in 0u64..1_000,
    ) {
        let ts: Vec<u64> = stream.iter().map(|&(t, _)| t).collect();
        let vals: Vec<f64> = stream.iter().map(|&(_, v)| v).collect();
        let c = chunk::compress(&ts, &vals, start);
        prop_assert_eq!(c.count() as usize, ts.len());
        prop_assert_eq!(c.first_t(), ts[0]);
        prop_assert_eq!(c.last_t(), *ts.last().unwrap());
        let (mut out_ts, mut out_vals) = (Vec::new(), Vec::new());
        chunk::decode_exact(c.first_t(), c.count(), c.bytes(), &mut out_ts, &mut out_vals)
            .expect("round trip decodes");
        prop_assert_eq!(&out_ts, &ts);
        let got: Vec<u64> = out_vals.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
        let streamed: Vec<(u64, u64)> = c.decode().map(|(t, v)| (t, v.to_bits())).collect();
        let zipped: Vec<(u64, u64)> =
            ts.iter().zip(&vals).map(|(&t, v)| (t, v.to_bits())).collect();
        prop_assert_eq!(streamed, zipped);
        // A truncated payload errors instead of fabricating samples.
        if !c.bytes().is_empty() {
            let cut = &c.bytes()[..c.bytes().len() - 1];
            let (mut e_ts, mut e_vals) = (Vec::new(), Vec::new());
            prop_assert!(
                chunk::decode_exact(c.first_t(), c.count(), cut, &mut e_ts, &mut e_vals).is_err()
            );
        }
    }

    /// Sealed-chunk storage is invisible to queries: a store whose
    /// history spans several sealed chunks answers every query path —
    /// trailing-window scalar aggregates, percentiles, and resample
    /// grids — exactly as a naive scan over the same samples.
    #[test]
    fn chunked_queries_equal_flat_reference(
        n in 520usize..1500,
        w in 1u64..2_000,
        period in 1u64..50,
        q in 0.01f64..0.99,
    ) {
        let (mut db, ids) = db_with(1, 1 << 11);
        let id = ids[0];
        let model: Vec<(u64, f64)> = (0..n)
            .map(|i| (i as u64, ((i * 37) % 101) as f64 - 50.0))
            .collect();
        for &(t, v) in &model {
            db.insert(id, SimTime(t), v);
        }
        prop_assert!(db.memory_stats().compressed_samples > 0, "chunks sealed");
        let now = SimTime((n - 1) as u64);
        let t0 = now.0.saturating_sub(w);
        let window: Vec<f64> = model
            .iter()
            .filter(|&&(t, _)| t > t0 && t <= now.0)
            .map(|&(_, v)| v)
            .collect();
        for agg in [
            WindowAgg::Count,
            WindowAgg::Sum,
            WindowAgg::Mean,
            WindowAgg::Min,
            WindowAgg::Max,
            WindowAgg::Last,
            WindowAgg::Percentile(q),
        ] {
            let got = db.window_agg(id, now, SimDuration(w), agg);
            let want = (!window.is_empty()).then(|| agg.apply(&window));
            prop_assert_eq!(got, want, "agg {:?}", agg);
        }
        // Resample grid over the whole (chunk-spanning) history.
        let t1 = SimTime(n as u64);
        let grid = resample(&db, id, SimTime::ZERO, t1, SimDuration(period), WindowAgg::Sum);
        for (b, got) in grid.iter().enumerate() {
            let lo = b as u64 * period;
            let hi = lo + period;
            let bucket: Vec<f64> = model
                .iter()
                .filter(|&&(t, _)| t >= lo && t < hi)
                .map(|&(_, v)| v)
                .collect();
            let want = (!bucket.is_empty()).then(|| WindowAgg::Sum.apply(&bucket));
            prop_assert_eq!(*got, want, "bucket {}", b);
        }
    }

    /// The exporter ships exactly what the store holds: the decoded
    /// export stream (whole sealed chunks plus per-sample remainders)
    /// equals the store's own retained samples bit for bit — on
    /// NaN-laden adversarial values, with and without eviction before
    /// the drain — the accounting balances against the lifetime append
    /// count, and a replayed downstream store agrees.
    #[test]
    fn chunked_export_decodes_to_the_stores_own_samples(
        stream in adversarial_stream(),
        batch in 8usize..200,
        capacity in 16usize..4096,
    ) {
        let (mut db, ids) = db_with(1, capacity);
        let id = ids[0];
        for &(t, v) in &stream {
            prop_assert!(db.insert(id, SimTime(t), v), "monotone stream accepted");
        }
        let mut sink = MemorySink::new();
        let stats = Exporter::new()
            .with_batch_records(batch)
            .drain(&db, &mut sink)
            .unwrap();
        let retained: Vec<(u32, u64, u64)> = db
            .series(id)
            .iter()
            .map(|s| (id.0, s.t.0, s.value.to_bits()))
            .collect();
        prop_assert_eq!(decoded_samples(&sink), &retained[..]);
        prop_assert_eq!(stats.samples as usize, retained.len());
        prop_assert_eq!(
            stats.samples + stats.missed_samples,
            db.series(id).total_appends()
        );
        let mut replay = ReplayStore::new();
        for b in &sink.batches {
            replay.apply(b);
        }
        prop_assert_eq!(replay.corrupt_chunks(), 0);
        let replayed: Vec<(u32, u64, u64)> = replay
            .samples(id)
            .iter()
            .map(|&(t, v)| (id.0, t.0, v.to_bits()))
            .collect();
        prop_assert_eq!(replayed, retained);
    }
}

// ------------------------------------------------- restart-point seeks
//
// A sealed chunk carries restart points, so a read that wants a suffix
// of it resumes mid-stream instead of decoding from the first sample.
// Where a read starts must never show in what it returns.

/// A series built the ways production builds one — pushed runs that
/// seal into chunks with restart tables, validated blocks adopted with
/// the table their validation took — over samples with duplicate timestamps, deltas up to 2⁵⁰ (a
/// state that does not pack ends a table early) and NaN payloads; and
/// the flat list of what it retains, kept beside it.
struct Mixed {
    series: TimeSeries,
    retained: std::collections::VecDeque<(u64, u64)>,
    rng: proptest::TestRng,
    t: u64,
    bits: u64,
}

impl Mixed {
    fn new(seed: u64, capacity: usize) -> Self {
        Mixed {
            series: TimeSeries::new(capacity),
            retained: Default::default(),
            rng: proptest::TestRng::new(seed),
            t: seed % 1_000_000,
            bits: 200.0f64.to_bits(),
        }
    }

    fn draw(&mut self) -> (u64, f64) {
        let rng = &mut self.rng;
        self.t += match rng.below(12) {
            0 | 1 => 0,
            2 => rng.below(5_000),
            3 if rng.below(40) == 0 => rng.next_u64() >> (14 + rng.below(40)),
            _ => 1_000 + rng.below(3),
        };
        self.bits = match rng.below(10) {
            0 => self.bits,
            1 => rng.next_u64(),
            2 => 0x7ff8_0000_0000_0000 | rng.below(1 << 20),
            3 => self.bits ^ (1 << 63 | 1),
            _ => (f64::from_bits(self.bits) + rng.below(7) as f64 - 3.0).to_bits(),
        };
        (self.t, f64::from_bits(self.bits))
    }

    fn keep(&mut self, t: u64, v: f64) {
        self.retained.push_back((t, v.to_bits()));
        if self.retained.len() > self.series.capacity() {
            self.retained.pop_front();
        }
    }

    fn push(&mut self) {
        let (t, v) = self.draw();
        assert!(self.series.push(SimTime(t), v));
        self.keep(t, v);
    }

    fn adopt(&mut self, n: usize) {
        let (ts, vals): (Vec<u64>, Vec<f64>) = (0..n).map(|_| self.draw()).unzip();
        let sealed = chunk::compress(&ts, &vals, 0);
        let block = chunk::validate(sealed.first_t(), sealed.count(), sealed.bytes()).unwrap();
        assert!(self.series.adopt_chunk(&block));
        for (t, v) in ts.into_iter().zip(vals) {
            self.keep(t, v);
        }
    }
}

fn bit_exact(view: impl IntoIterator<Item = Sample>) -> Vec<(u64, u64)> {
    view.into_iter()
        .map(|s| (s.t.0, s.value.to_bits()))
        .collect()
}

/// `value_at` on the flat list: the newest sample at or before `t`,
/// interpolated toward the one after it.
fn value_at_flat(all: &[(u64, u64)], t: u64) -> Option<u64> {
    if t < all.first()?.0 || t > all.last()?.0 {
        return None;
    }
    let below = all.iter().rposition(|&(x, _)| x <= t)?;
    let (bt, bv) = (all[below].0, f64::from_bits(all[below].1));
    if bt == t {
        return Some(bv.to_bits());
    }
    let (nt, nv) = (all[below + 1].0, f64::from_bits(all[below + 1].1));
    let frac = (t - bt) as f64 / (nt - bt) as f64;
    Some((bv + frac * (nv - bv)).to_bits())
}

/// Whether `t` lies strictly between two neighbouring samples of the
/// flat list that are **both** NaN. `value_at` then adds two NaNs, and
/// whose payload the sum keeps follows the operand order the optimiser
/// chose at that call site, not the series: only its NaN-ness is a
/// property of the read.
fn between_two_nans(all: &[(u64, u64)], t: u64) -> bool {
    let after = all.partition_point(|&(x, _)| x <= t);
    let is_nan = |i: usize| f64::from_bits(all[i].1).is_nan();
    after > 0 && after < all.len() && all[after - 1].0 < t && is_nan(after - 1) && is_nan(after)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every partial reader, with its lower bound on, one before and
    /// one after every retained sample — hence every restart boundary,
    /// wherever the stride puts them — returns what a filter over the
    /// fully decoded series returns, bit for bit; and so does the
    /// oldest-sample read at every eviction offset through a chunk.
    #[test]
    fn seeking_reads_equal_scanning_reads(
        seed in any::<u64>(),
        capacity in 600usize..1400,
        segments in prop::collection::vec((any::<bool>(), 1usize..700), 2..6),
    ) {
        let mut m = Mixed::new(seed, capacity);
        for (adopt, n) in segments {
            if adopt {
                m.adopt(n);
            } else {
                (0..n).for_each(|_| m.push());
            }
        }
        let all: Vec<(u64, u64)> = m.retained.iter().copied().collect();
        let s = &m.series;
        prop_assert_eq!(bit_exact(s.iter()), &all[..]);

        for i in 0..all.len() {
            // A short span from each bound: the cost of a case stays in
            // the seek, which is what is under test.
            let end = all[(i + 70).min(all.len() - 1)].0;
            for lo in [all[i].0.saturating_sub(1), all[i].0, all[i].0 + 1] {
                let want: Vec<_> =
                    all.iter().copied().filter(|&(t, _)| t >= lo && t < end).collect();
                prop_assert_eq!(bit_exact(s.range_view(SimTime(lo), SimTime(end))), want);
                let want: Vec<_> =
                    all.iter().copied().filter(|&(t, _)| t > lo && t <= end).collect();
                let window = SimDuration(end.saturating_sub(lo));
                prop_assert_eq!(bit_exact(s.window_view(SimTime(end), window)), want);
                let got = s.value_at(SimTime(lo));
                if between_two_nans(&all, lo) {
                    prop_assert!(got.is_some_and(f64::is_nan), "value_at({}) between NaNs", lo);
                } else {
                    prop_assert_eq!(
                        got.map(f64::to_bits),
                        value_at_flat(&all, lo),
                        "value_at({})", lo
                    );
                }
            }
            prop_assert_eq!(bit_exact(s.last_n_view(all.len() - i)), &all[i..]);
        }

        // Evict through more than a chunk, one sample at a time.
        for step in 0..700 {
            m.push();
            let oldest = m.series.oldest().map(|o| (o.t.0, o.value.to_bits()));
            prop_assert_eq!(oldest, m.retained.front().copied());
            if step % 41 == 0 {
                let all: Vec<(u64, u64)> = m.retained.iter().copied().collect();
                prop_assert_eq!(bit_exact(m.series.iter()), &all[..]);
                prop_assert_eq!(
                    m.series.value_at(SimTime(all[0].0)).map(f64::to_bits),
                    value_at_flat(&all, all[0].0)
                );
            }
        }
    }
}

// ------------------------------------------------------ frame envelope

use moda_telemetry::wire::{crc32, read_frame, write_frame, FrameBuffer, FrameEnd};

/// IEEE CRC-32 one bit at a time — shift and conditional xor, no table —
/// the independent reference the table-driven `crc32` is held to.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The checksum is the IEEE CRC-32 of the bytes, whatever their
    /// length mod 16 and wherever a frame splits them: `a‖b` on its own,
    /// every prefix of up to 64 bytes (each mix of 16-byte, 8-byte and
    /// single-byte steps), and `b` behind a one-byte tag inside the
    /// frame envelope (the tag-then-payload fold every frame on the wire
    /// goes through).
    #[test]
    fn crc32_matches_bitwise_reference(
        bytes in prop::collection::vec(any::<u8>(), 0..4096),
        split in 0usize..4096,
        tag in any::<u8>(),
    ) {
        let (a, b) = bytes.split_at(split.min(bytes.len()));
        prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        prop_assert_eq!(crc32(a), crc32_bitwise(a));
        prop_assert_eq!(crc32(b), crc32_bitwise(b));
        let head: Vec<u8> = bytes.iter().copied().chain(std::iter::repeat(tag)).take(64).collect();
        for len in 0..=64 {
            prop_assert_eq!(crc32(&head[..len]), crc32_bitwise(&head[..len]), "len {}", len);
        }

        let mut frame = Vec::new();
        write_frame(&mut frame, tag, b).unwrap();
        let mut tagged = vec![tag];
        tagged.extend_from_slice(b);
        prop_assert_eq!(&frame[frame.len() - 4..], &crc32_bitwise(&tagged).to_le_bytes()[..]);
    }

    /// One envelope, two readers: an arbitrary frame sequence — intact,
    /// cut at any byte, or with any single bit flipped — yields the same
    /// frames and the same Clean/Torn/Corrupt verdict whether the
    /// blocking `read_frame` pulls it from a reader or the incremental
    /// `FrameBuffer` is fed it in arbitrary-sized slices — with an
    /// arbitrary number of frames (possibly none) popped between two
    /// `extend` calls, so bytes arrive while spent frames, unreturned
    /// whole frames and a partial tail all sit in the buffer. This is
    /// what lets one parser serve the WAL, the snapshot, and the
    /// listener.
    #[test]
    fn read_frame_and_frame_buffer_agree_on_any_stream(
        frames in prop::collection::vec(
            (any::<u8>(), prop::collection::vec(any::<u8>(), 0..200)),
            0..8,
        ),
        // 0 = intact, 1 = cut at `at`‰ of the bytes, 2 = flip bit `bit`
        // of the byte at `at`‰.
        damage in 0u8..3,
        at in 0usize..1000,
        bit in 0u8..8,
        slice_lens in prop::collection::vec(1usize..64, 1..16),
        pops in prop::collection::vec(0usize..4, 1..16),
    ) {
        let mut stream = Vec::new();
        for (tag, payload) in &frames {
            write_frame(&mut stream, *tag, payload).unwrap();
        }
        if damage == 1 {
            stream.truncate(stream.len() * at / 1000);
        } else if damage == 2 && !stream.is_empty() {
            let i = (stream.len() - 1) * at / 1000;
            stream[i] ^= 1 << bit;
        }

        // Whole stream through the blocking reader.
        let mut blocking = Vec::new();
        let mut r = &stream[..];
        let blocking_end = loop {
            match read_frame(&mut r).unwrap() {
                Ok(frame) => blocking.push(frame),
                Err(end) => break end,
            }
        };

        // The same bytes, dribbled into the incremental buffer.
        let mut incremental = Vec::new();
        let mut buffer = FrameBuffer::new();
        let mut corrupt = false;
        let mut fed = 0;
        let mut lens = slice_lens.iter().cycle();
        let mut pops = pops.iter().cycle();
        'feed: while fed < stream.len() {
            let n = (*lens.next().unwrap()).min(stream.len() - fed);
            buffer.extend(&stream[fed..fed + n]);
            fed += n;
            // Mid-stream, pop only some of what is ready before the
            // next slice lands; after the last slice, everything.
            let budget = if fed < stream.len() {
                *pops.next().unwrap()
            } else {
                usize::MAX
            };
            for _ in 0..budget {
                match buffer.next_frame() {
                    Ok(Some((tag, payload))) => incremental.push((tag, payload.to_vec())),
                    Ok(None) => break,
                    Err(_) => {
                        corrupt = true;
                        break 'feed;
                    }
                }
            }
        }
        let incremental_end = if corrupt {
            FrameEnd::Corrupt
        } else if buffer.pending() == 0 {
            FrameEnd::Clean
        } else {
            FrameEnd::Torn
        };

        prop_assert_eq!(&incremental, &blocking);
        prop_assert_eq!(incremental_end, blocking_end);
        if damage == 0 {
            prop_assert_eq!(blocking_end, FrameEnd::Clean);
            prop_assert_eq!(blocking, frames);
        }
    }
}

// ---------------------------------------------------- packed sample runs

use moda_telemetry::export::ExportBatch;
use moda_telemetry::wire::{decode_batch, encode_batch, encode_record};
use moda_telemetry::{MetricId, SketchEntry};

/// A batch as a v1.1 writer rendered it — one wire record per record,
/// a sample as its fixed 25 bytes. Injective on bit patterns, so equal
/// renderings mean bit-for-bit equal batches (NaN payloads included,
/// which `==` on `f64` cannot see); and it shares no code with the
/// packed-run codec it is the oracle for.
fn render_v1_1(batch: &ExportBatch) -> Vec<u8> {
    let mut out = batch.seq.to_le_bytes().to_vec();
    out.extend_from_slice(&(batch.records.len() as u32).to_le_bytes());
    for record in &batch.records {
        encode_record(record, &mut out);
    }
    out
}

/// Arbitrary interleavings of all five record kinds, sample-heavy so
/// runs of every length form — including length 1 between two records
/// of other kinds. Sample ids repeat, count up, jump and wrap; their
/// timestamps repeat, step, *decrease* (a run interleaves metrics) and
/// jump to the ends of `u64`; values cover NaN payloads, ±inf,
/// subnormals, −0.0, quantised readings and arbitrary bit patterns.
fn mixed_records() -> impl Strategy<Value = Vec<ExportRecord>> {
    prop::collection::vec(
        (
            0u8..12,
            (0u8..6, any::<u32>()),
            (0u8..6, 0u64..5_000, any::<u64>()),
            (0u8..10, any::<u64>()),
        ),
        0..200,
    )
    .prop_map(|draws| {
        let (mut id, mut t) = (0u32, 0u64);
        draws
            .into_iter()
            .map(
                |(kind, (id_sel, id_raw), (t_sel, dt, t_raw), (v_sel, v_raw))| {
                    id = match id_sel {
                        0 | 1 => id,
                        2 | 3 => id.wrapping_add(1),
                        4 => id_raw % 64,
                        _ => id_raw,
                    };
                    t = match t_sel {
                        0 | 1 => t,
                        2 => t.wrapping_add(1_000),
                        3 => t.wrapping_add(dt),
                        4 => t.wrapping_sub(dt),
                        _ => t_raw,
                    };
                    let value = match v_sel {
                        0 => {
                            f64::from_bits(0x7FF8_0000_0000_0001 | (v_raw & 0x0007_FFFF_FFFF_FFFF))
                        }
                        1 => -0.0,
                        2 => 0.0,
                        3 => f64::from_bits(v_raw & 0x000F_FFFF_FFFF_FFFF),
                        4 => f64::INFINITY,
                        5 => f64::NEG_INFINITY,
                        6 => f64::from_bits(v_raw),
                        _ => (v_raw % 4_000) as f64 * 0.25,
                    };
                    let (metric, time) = (MetricId(id), SimTime(t));
                    match kind {
                        0 => ExportRecord::Meta {
                            id: metric,
                            meta: MetricMeta::gauge(
                                format!("m.{v_raw:x}"),
                                "u",
                                SourceDomain::Software,
                            ),
                        },
                        1 => ExportRecord::Bucket {
                            id: metric,
                            res: SimDuration(dt),
                            start: time,
                            count: v_raw,
                            sum: value,
                            min: -value,
                            max: f64::from_bits(t_raw),
                            last: value,
                        },
                        2 => ExportRecord::Sketch {
                            id: metric,
                            res: SimDuration(dt),
                            start: time,
                            entry: SketchEntry {
                                sign: (id_sel as i8 % 3) - 1,
                                key: id_raw as i32,
                                count: v_raw,
                            },
                        },
                        3 => ExportRecord::Chunk {
                            id: metric,
                            count: id_raw,
                            first_t: time,
                            last_t: SimTime(t_raw),
                            bytes: v_raw.to_le_bytes()[..(dt % 9) as usize].to_vec(),
                        },
                        _ => ExportRecord::Sample {
                            id: metric,
                            t: time,
                            value,
                        },
                    }
                },
            )
            .collect()
    })
}

/// [`mixed_records`] with sweeps spliced in: runs of 2–70 samples whose
/// ids and times are each one arithmetic progression — ids from below 64
/// (so that sweeps revisit the mixed records' ids and each other's) or
/// from near `u32::MAX`, up by 0–3; times by a step of 0, 1000 or any
/// value, wrapping — what a 1.4 writer writes as a `sweep` record. Each
/// has a `meta` record before it, and sometimes after it; where it has
/// none, the samples after it join its run, which then is no
/// progression. Its values are quarter steps, repeats, or raw bits.
fn swept_records() -> impl Strategy<Value = Vec<ExportRecord>> {
    (
        mixed_records(),
        prop::collection::vec(
            (
                (0usize..1000, 2u32..70, any::<bool>()),
                (any::<u32>(), 0u32..4, any::<bool>()),
                (any::<u64>(), 0u8..3, any::<u64>()),
                (0u8..3, any::<u64>()),
            ),
            0..5,
        ),
    )
        .prop_map(|(mut records, sweeps)| {
            let meta = |id| ExportRecord::Meta {
                id: MetricId(id),
                meta: MetricMeta::gauge("swept", "u", SourceDomain::Software),
            };
            for ((at, n, closed), (id_raw, id_step, high), (t0, t_sel, t_raw), (v_sel, v_raw)) in
                sweeps
            {
                let span = id_step * (n - 1);
                let id0 = match high {
                    false => id_raw % 64,
                    true => u32::MAX - span - id_raw % 3,
                };
                let t_step = match t_sel {
                    0 => 0,
                    1 => 1_000,
                    _ => t_raw,
                };
                let mut run = vec![meta(id0)];
                run.extend((0..n).map(|i| {
                    let bits = match v_sel {
                        0 => (100.0 + ((v_raw >> (i % 60)) % 5) as f64 * 0.25).to_bits(),
                        1 => v_raw,
                        _ => v_raw.rotate_left(i),
                    };
                    ExportRecord::Sample {
                        id: MetricId(id0 + i * id_step),
                        t: SimTime(t0.wrapping_add(t_step.wrapping_mul(u64::from(i)))),
                        value: f64::from_bits(bits),
                    }
                }));
                if closed {
                    run.push(meta(id0));
                }
                let at = records.len() * at / 1000;
                records.splice(at..at, run);
            }
            records
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `decode_batch(encode_batch(b)) == b`, bit for bit: packing sample
    /// runs is invisible above the codec. Also: the packed rendering is
    /// one wire record per maximal run, a v1.1 rendering of the same
    /// batch still decodes to it, and no strict prefix of the packed
    /// bytes panics the decoder.
    #[test]
    fn packed_sample_runs_round_trip_bit_for_bit(
        seq in any::<u64>(),
        records in mixed_records(),
        cut in 0usize..1000,
    ) {
        let batch = ExportBatch { seq, records };
        let mut packed = Vec::new();
        encode_batch(&batch, &mut packed);
        let (back, unknown) = decode_batch(&packed).unwrap();
        prop_assert_eq!(unknown, 0);
        prop_assert_eq!(render_v1_1(&back), render_v1_1(&batch));

        // The header counts wire records: every other record, plus one
        // per maximal run of samples.
        let is_sample = |r: &ExportRecord| matches!(r, ExportRecord::Sample { .. });
        let others = batch.records.iter().filter(|r| !is_sample(r)).count();
        let runs = batch
            .records
            .iter()
            .enumerate()
            .filter(|&(i, r)| is_sample(r) && (i == 0 || !is_sample(&batch.records[i - 1])))
            .count();
        let wire_records = u32::from_le_bytes(packed[8..12].try_into().unwrap());
        prop_assert_eq!(wire_records as usize, others + runs);

        // Old streams decode to the same batch; re-encoding is stable.
        let (old, unknown) = decode_batch(&render_v1_1(&batch)).unwrap();
        prop_assert_eq!(unknown, 0);
        prop_assert_eq!(render_v1_1(&old), render_v1_1(&batch));
        let mut again = Vec::new();
        encode_batch(&back, &mut again);
        prop_assert_eq!(&again, &packed);

        // Truncation is an error or (on a record boundary the header
        // cannot reach) still an error — never a panic.
        let cut = packed.len() * cut / 1000;
        prop_assert!(decode_batch(&packed[..cut]).is_err());
    }
}

// ------------------------------------- one parser, one meaning: the view

use moda_telemetry::export::MAX_BATCH_RECORDS;
use moda_telemetry::wire::{
    bad_data, decode_batch_with, encode_batch_as, encode_batch_with, unzigzag, BatchView, Coding,
    RecordRef, ValueState, WireReader, MAX_VALUE_IDS,
};
use std::collections::HashMap;
use std::io;

/// What [`reference_decode`] makes of a batch whose structure holds:
/// its seq, its records with every delta read against a stream state
/// that starts empty at the batch (`Err` if one cannot be), its
/// unknown-kind count, and whether it holds a `samples_delta` or `sweep`
/// record it read.
type Decoded = (u64, io::Result<Vec<ExportRecord>>, u64, bool);

/// Record kinds the reference reads, newest first: a reader of 1.4
/// reads kind 7, of 1.3 kinds up to 6, of 1.2 up to 5.
const READS_1_2: u8 = 5;
const READS_1_3: u8 = 6;
const READS_1_4: u8 = 7;

/// The materialising batch decoder as it stood before `BatchView`
/// became the only parser — kept here, sharing nothing with the view
/// but [`WireReader`]'s getters, as the oracle for what a batch's bytes
/// mean and which bytes are a batch at all — taught the `samples_delta`
/// kind of revision 1.3: its value codes, and a stream state of its own
/// (a map; ids from `MAX_VALUE_IDS` on keep none) that every value of a
/// `samples_delta` record lands in; and the `sweep` kind of 1.4: ids and
/// times as two progressions in its header, the value codes in a column
/// of nibbles. As a reader of an older revision (`newest` the newest kind
/// it knows) it is that revision's decoder verbatim, to which the later
/// kinds are kinds from the future.
fn reference_decode(buf: &[u8], newest: u8) -> io::Result<Decoded> {
    struct Stream {
        last: HashMap<u32, u64>,
        readable: bool,
    }
    impl Stream {
        fn carried(&mut self, id: u32, bits: u64) {
            if id < MAX_VALUE_IDS {
                self.last.insert(id, bits);
            }
        }
    }
    /// One value of value code `code` off `r`, read against `stream`
    /// when `delta` (a `samples_delta` or `sweep` record), which takes it.
    fn value(
        r: &mut WireReader<'_>,
        code: u8,
        id: u32,
        delta: bool,
        stream: &mut Stream,
    ) -> io::Result<u64> {
        let (lead, kept, xor) = match code {
            0..=8 => (0, code, false),
            _ if !delta => return Err(bad_data("reserved value length")),
            9 => (0, 0, true),
            10 => (2, 1, true),
            11 => (1, 2, true),
            12 => (0, 3, true),
            13 => (1, 1, true),
            14 => (0, 2, true),
            _ => {
                let shape = r.u8()?;
                let (lead, kept) = (shape >> 4, shape & 0x0F);
                if kept == 0 || lead + kept > 8 {
                    return Err(bad_data("reserved value shape"));
                }
                (lead, kept, true)
            }
        };
        let (lead, kept) = (usize::from(lead), usize::from(kept));
        let mut be = [0u8; 8];
        be[lead..lead + kept].copy_from_slice(r.take(kept)?);
        let mut bits = u64::from_be_bytes(be);
        if xor {
            match stream.last.get(&id) {
                Some(prev) => bits ^= prev,
                None => stream.readable = false,
            }
        }
        if delta {
            stream.carried(id, bits);
        }
        Ok(bits)
    }
    fn push(records: &mut Vec<ExportRecord>, id: u32, t: u64, bits: u64) {
        records.push(ExportRecord::Sample {
            id: MetricId(id),
            t: SimTime(t),
            value: f64::from_bits(bits),
        });
    }
    fn samples(
        payload: &[u8],
        room: usize,
        delta: bool,
        stream: &mut Stream,
        records: &mut Vec<ExportRecord>,
    ) -> io::Result<()> {
        let mut r = WireReader::new(payload);
        let count = r.uv()?;
        if count > r.remaining() as u64 {
            return Err(bad_data("samples count exceeds its payload"));
        }
        if count as usize > room {
            return Err(bad_data("batch expands past MAX_BATCH_RECORDS"));
        }
        let (mut id, mut t, mut step) = (0u32, 0u64, 0i64);
        for _ in 0..count {
            let control = r.u8()?;
            match control >> 6 {
                0 => {}
                1 => id = id.checked_add(1).ok_or_else(|| bad_data("id past u32"))?,
                2 => id = u32::try_from(r.uv()?).map_err(|_| bad_data("id past u32"))?,
                _ => return Err(bad_data("reserved id mode")),
            }
            match (control >> 4) & 0b11 {
                0 => {}
                1 => t = t.wrapping_add(step as u64),
                2 => {
                    let dt = unzigzag(r.uv()?);
                    if dt != 0 {
                        step = dt;
                    }
                    t = t.wrapping_add(dt as u64);
                }
                _ => return Err(bad_data("reserved time mode")),
            }
            let bits = value(&mut r, control & 0x0F, id, delta, stream)?;
            push(records, id, t, bits);
        }
        if !r.done() {
            return Err(bad_data("trailing bytes in samples payload"));
        }
        Ok(())
    }
    fn sweep(
        payload: &[u8],
        room: usize,
        stream: &mut Stream,
        records: &mut Vec<ExportRecord>,
    ) -> io::Result<()> {
        let mut r = WireReader::new(payload);
        let count = r.uv()?;
        // Two codes to a byte: the column alone must fit.
        if count.div_ceil(2) > r.remaining() as u64 {
            return Err(bad_data("sweep count exceeds its payload"));
        }
        if count as usize > room {
            return Err(bad_data("batch expands past MAX_BATCH_RECORDS"));
        }
        let (id0, id_step) = (r.uv()?, r.uv()?);
        let (t0, t_step) = (unzigzag(r.uv()?) as u64, unzigzag(r.uv()?) as u64);
        let codes = r.take(count.div_ceil(2) as usize)?;
        if count % 2 == 1 && codes[codes.len() - 1] & 0xF0 != 0 {
            return Err(bad_data("padding nibble"));
        }
        if id0 > u64::from(u32::MAX) {
            return Err(bad_data("id past u32"));
        }
        let mut coded = Vec::new();
        for i in 0..count {
            let id = u128::from(id0) + u128::from(i) * u128::from(id_step);
            let id = u32::try_from(id).map_err(|_| bad_data("id past u32"))?;
            let t = t0.wrapping_add(t_step.wrapping_mul(i));
            let code = codes[i as usize / 2] >> (4 * (i % 2)) & 0x0F;
            coded.push((id, t, code));
        }
        for (id, t, code) in coded {
            let bits = value(&mut r, code, id, true, stream)?;
            push(records, id, t, bits);
        }
        if !r.done() {
            return Err(bad_data("trailing bytes in sweep payload"));
        }
        Ok(())
    }
    fn record(tag: u8, payload: &[u8]) -> io::Result<ExportRecord> {
        let mut r = WireReader::new(payload);
        let record = match tag {
            0 => ExportRecord::Meta {
                id: MetricId(r.u32()?),
                meta: r.meta()?,
            },
            1 => ExportRecord::Sample {
                id: MetricId(r.u32()?),
                t: SimTime(r.u64()?),
                value: r.f64()?,
            },
            2 => ExportRecord::Bucket {
                id: MetricId(r.u32()?),
                res: SimDuration(r.u64()?),
                start: SimTime(r.u64()?),
                count: r.u64()?,
                sum: r.f64()?,
                min: r.f64()?,
                max: r.f64()?,
                last: r.f64()?,
            },
            3 => ExportRecord::Sketch {
                id: MetricId(r.u32()?),
                res: SimDuration(r.u64()?),
                start: SimTime(r.u64()?),
                entry: SketchEntry {
                    sign: r.u8()? as i8,
                    key: r.u32()? as i32,
                    count: r.u64()?,
                },
            },
            _ => ExportRecord::Chunk {
                id: MetricId(r.u32()?),
                count: r.u32()?,
                first_t: SimTime(r.u64()?),
                last_t: SimTime(r.u64()?),
                bytes: r.block()?.to_vec(),
            },
        };
        if !r.done() {
            return Err(bad_data("trailing bytes in record payload"));
        }
        Ok(record)
    }
    let mut r = WireReader::new(buf);
    let seq = r.u64()?;
    let n = r.u32()?;
    let mut records = Vec::new();
    let (mut unknown, mut delta) = (0u64, false);
    let mut stream = Stream {
        last: HashMap::new(),
        readable: true,
    };
    for _ in 0..n {
        let tag = r.u8()?;
        let payload = r.block()?;
        let room = MAX_BATCH_RECORDS - records.len();
        match tag {
            _ if tag > newest => unknown += 1,
            5 => samples(payload, room, false, &mut stream, &mut records)?,
            6 => samples(payload, room, true, &mut stream, &mut records)?,
            7 => sweep(payload, room, &mut stream, &mut records)?,
            _ if room == 0 => return Err(bad_data("batch expands past MAX_BATCH_RECORDS")),
            _ => records.push(record(tag, payload)?),
        }
        delta |= (6..=newest).contains(&tag);
    }
    if !r.done() {
        return Err(bad_data("trailing bytes after batch records"));
    }
    let values = match stream.readable {
        true => Ok(records),
        false => Err(bad_data("a delta whose id has no state")),
    };
    Ok((seq, values, unknown, delta))
}

/// The records a view lends, made owned field by field on this side of
/// the API (not through `BatchView::to_batch`), every delta run read
/// against `state` — which the view must have been checked against.
fn lent_records(view: &BatchView<'_>, state: &mut ValueState) -> Vec<ExportRecord> {
    let mut out = Vec::new();
    for record in view.records() {
        match record {
            RecordRef::Meta { id, meta } => out.push(ExportRecord::Meta {
                id,
                meta: MetricMeta {
                    name: meta.name.to_string(),
                    kind: meta.kind,
                    unit: meta.unit.to_string(),
                    domain: meta.domain,
                },
            }),
            RecordRef::Sample { id, t, value } => out.push(ExportRecord::Sample { id, t, value }),
            RecordRef::Samples(run) => {
                let declared = run.len();
                let before = out.len();
                out.extend(run.map(|(id, t, value)| ExportRecord::Sample { id, t, value }));
                assert_eq!(out.len() - before, declared);
            }
            RecordRef::SamplesDelta(run) => {
                let declared = run.len();
                let before = out.len();
                out.extend(
                    run.values(state)
                        .map(|(id, t, value)| ExportRecord::Sample { id, t, value }),
                );
                assert_eq!(out.len() - before, declared);
            }
            RecordRef::Bucket {
                id,
                res,
                start,
                count,
                sum,
                min,
                max,
                last,
            } => out.push(ExportRecord::Bucket {
                id,
                res,
                start,
                count,
                sum,
                min,
                max,
                last,
            }),
            RecordRef::Sketch {
                id,
                res,
                start,
                entry,
            } => out.push(ExportRecord::Sketch {
                id,
                res,
                start,
                entry,
            }),
            RecordRef::Chunk {
                id,
                count,
                first_t,
                last_t,
                bytes,
            } => out.push(ExportRecord::Chunk {
                id,
                count,
                first_t,
                last_t,
                bytes: bytes.to_vec(),
            }),
        }
    }
    out
}

/// `BatchView::parse(bytes)` against the reference decoder: the same
/// verdict on the structure; on `Ok` the same seq and counts, stateless
/// readers refusing exactly the batches that hold a `samples_delta` or
/// `sweep` record, and — read against a stream state that starts empty at the
/// batch — the same verdict on the values and the same batch, bit for
/// bit, three ways: the lent records, `to_batch_with`, and (for a batch
/// a stateless reader takes) `to_batch` and `decode_batch`. A refused
/// read leaves the state empty.
fn check_view_against_reference(bytes: &[u8]) -> Result<(), TestCaseError> {
    let view = BatchView::parse(bytes);
    let reference = reference_decode(bytes, READS_1_4);
    prop_assert_eq!(
        view.is_ok(),
        reference.is_ok(),
        "{:?} vs {:?}",
        view,
        reference
    );
    let (Ok(view), Ok((seq, values, unknown, delta))) = (view, reference) else {
        prop_assert!(decode_batch(bytes).is_err());
        return Ok(());
    };
    prop_assert_eq!(view.seq(), seq);
    prop_assert_eq!(view.unknown_records(), unknown);
    prop_assert_eq!(view.as_bytes(), bytes);
    prop_assert_eq!(decode_batch(bytes).is_ok(), !delta);
    prop_assert_eq!(view.to_batch().is_ok(), !delta);
    let mut state = ValueState::new();
    let with = view.to_batch_with(&mut state);
    let records = match values {
        Ok(records) => records,
        Err(_) => {
            prop_assert!(with.is_err());
            prop_assert_eq!(state, ValueState::new());
            return Ok(());
        }
    };
    prop_assert_eq!(view.record_count(), records.len());
    let want = render_v1_1(&ExportBatch { seq, records });
    prop_assert_eq!(render_v1_1(&with.unwrap()), &want[..]);
    let mut lent_state = ValueState::new();
    view.check_values(&mut lent_state).unwrap();
    prop_assert_eq!(&lent_state, &ValueState::new());
    let lent = ExportBatch {
        seq,
        records: lent_records(&view, &mut lent_state),
    };
    prop_assert_eq!(render_v1_1(&lent), &want[..]);
    prop_assert_eq!(lent_state, state);
    if !delta {
        prop_assert_eq!(render_v1_1(&view.to_batch().unwrap()), &want[..]);
        prop_assert_eq!(render_v1_1(&decode_batch(bytes).unwrap().0), &want[..]);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One parser, one meaning. For batches of all five kinds, sweeps
    /// among them, cut into segments rendered any of four ways (v1.1
    /// records, packed runs, and runs coded against a state kept from the
    /// batch's start by a 1.4 writer — `sweep` and `samples_delta`
    /// records — or a 1.3 one), with unknown-kind records and hostile
    /// `samples`, `samples_delta` and `sweep` records (any declared count
    /// over any bytes) spliced between the segments — and for arbitrary byte mutations and truncations of
    /// those encodings — the view accepts exactly what the materialising
    /// decoder accepted and lends exactly the records it built: NaN
    /// payloads, −0.0, reserved control codes and shapes, ids past `u32`,
    /// deltas with no state, over-count runs and all.
    #[test]
    fn batch_view_means_what_the_materialising_decoder_meant(
        seq in any::<u64>(),
        records in swept_records(),
        cuts in prop::collection::vec((0usize..1000, 0u8..4, 0u8..5), 0..6),
        foreign in prop::collection::vec((8u16..256, prop::collection::vec(any::<u8>(), 0..12)), 6..7),
        hostile in prop::collection::vec(
            (any::<u64>(), 0u8..4, prop::collection::vec(any::<u8>(), 0..24)),
            6..7,
        ),
        mutations in prop::collection::vec((0usize..1000, any::<u8>(), 0u8..3), 0..4),
        cut in 0usize..1000,
    ) {
        // Segment boundaries, then each segment in its rendering and
        // whatever gets spliced in after it.
        let mut bounds: Vec<_> = cuts
            .iter()
            .map(|&(at, packed, splice)| (records.len() * at / 1000, packed, splice))
            .collect();
        bounds.sort_by_key(|b| b.0);
        bounds.push((records.len(), 1, 0));
        let mut body = Vec::new();
        let mut wire_records = 0u32;
        let mut from = 0;
        let mut writer = ValueState::new();
        for (k, &(to, rendering, splice)) in bounds.iter().enumerate() {
            let segment = ExportBatch { seq: 0, records: records[from..to].to_vec() };
            from = to;
            let mut rendered = Vec::new();
            match rendering {
                0 => rendered = render_v1_1(&segment),
                1 => encode_batch(&segment, &mut rendered),
                2 => encode_batch_with(&segment, &mut writer, &mut rendered),
                _ => encode_batch_as(&segment, Coding::Deltas, &mut writer, &mut rendered),
            }
            wire_records += u32::from_le_bytes(rendered[8..12].try_into().unwrap());
            body.extend_from_slice(&rendered[12..]);
            let (tag, payload) = match splice {
                // A kind no revision defines: length-skipped and counted.
                1 => (foreign[k % 6].0 as u8, foreign[k % 6].1.clone()),
                // A `samples`, `samples_delta` or `sweep` record written
                // by nobody's encoder.
                2..=4 => {
                    let (count, shrink, bytes) = &hostile[k % 6];
                    let mut payload = Vec::new();
                    // Mostly plausible counts, sometimes absurd ones.
                    moda_telemetry::wire::put_uv(&mut payload, count >> (16 * u32::from(*shrink) + 15));
                    payload.extend_from_slice(bytes);
                    (3 + splice, payload)
                }
                _ => continue,
            };
            body.push(tag);
            body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            body.extend_from_slice(&payload);
            wire_records += 1;
        }
        let mut bytes = seq.to_le_bytes().to_vec();
        bytes.extend_from_slice(&wire_records.to_le_bytes());
        bytes.extend_from_slice(&body);

        check_view_against_reference(&bytes)?;
        check_view_against_reference(&bytes[..bytes.len() * cut / 1000])?;
        for &(at, byte, op) in &mutations {
            let at = bytes.len() * at / 1000;
            match op {
                0 => bytes[at] = byte,
                1 => bytes[at] ^= 1 << (byte % 8),
                _ => bytes.insert(at, byte),
            }
            check_view_against_reference(&bytes)?;
        }
    }

    /// Restoring a sketch column in one pass and absorbing it entry by
    /// entry are the same sketch, whatever the column: in wire order (a
    /// real sketch's own), shuffled, with repeated buckets, zero
    /// counts, signs outside −1..=1, keys that collide once clamped, and
    /// counts that overflow a bucket or the total — into an empty sketch
    /// or one that already holds data.
    #[test]
    fn a_sketch_column_absorbed_in_one_pass_equals_entry_by_entry(
        values in prop::collection::vec(-1_000.0f64..1_000.0, 0..60),
        extra in prop::collection::vec(
            (-2i8..3, (0u8..3, any::<i32>()), (0u8..4, 0u64..100)),
            0..8,
        ),
        repeats in prop::collection::vec(0usize..1000, 0..3),
        swaps in prop::collection::vec((0usize..1000, 0usize..1000), 0..3),
        splice_at in 0usize..1000,
        preload in prop::collection::vec(-50.0f64..50.0, 0..5),
    ) {
        use moda_telemetry::QuantileSketch;
        let mut source = QuantileSketch::new();
        for v in &values {
            source.fold(*v);
        }
        let mut column: Vec<SketchEntry> = source.wire_entries().collect();
        // Untouched, a real sketch's column rebuilds it exactly.
        let mut rebuilt = QuantileSketch::new();
        rebuilt.absorb_column(&column);
        prop_assert_eq!(&rebuilt, &source);

        let at = column.len() * splice_at / 1000;
        for (k, &(sign, (key_mode, key), (magnitude, count))) in extra.iter().enumerate() {
            // Keys near the real ones, anywhere in `i32`, or at its ends
            // (neighbours there collide once clamped); counts that
            // vanish, are plausible, overflow a bucket, overflow the total.
            let key = match key_mode {
                0 => key % 40,
                1 => key,
                _ => [i32::MAX, i32::MAX - 1, i32::MIN, i32::MIN + 1][key as usize % 4],
            };
            let count = match magnitude {
                0 => 0,
                1 => 1 + count,
                2 => u64::from(u32::MAX) - 2 + count % 5,
                _ => u64::MAX - count % 4,
            };
            column.insert((at + k).min(column.len()), SketchEntry { sign, key, count });
        }
        for &at in &repeats {
            if !column.is_empty() {
                let at = column.len() * at / 1000;
                column.insert(at + 1, column[at]);
            }
        }
        for &(a, b) in &swaps {
            if !column.is_empty() {
                let (a, b) = (column.len() * a / 1000, column.len() * b / 1000);
                column.swap(a, b);
            }
        }
        let mut base = QuantileSketch::new();
        for v in &preload {
            base.fold(*v);
        }
        for start in [QuantileSketch::new(), base] {
            let mut one_pass = start.clone();
            one_pass.absorb_column(&column);
            let mut by_entry = start;
            for &e in &column {
                by_entry.absorb_entry(e);
            }
            prop_assert_eq!(&one_pass, &by_entry, "column {:?}", column);
            prop_assert_eq!(
                one_pass.wire_entries().collect::<Vec<_>>(),
                by_entry.wire_entries().collect::<Vec<_>>()
            );
        }
    }
}

// ------------------------------------------- delta runs: one stream state

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A stream of batches whose runs are coded against the stream —
    /// `sweep` and `samples_delta` runs from a 1.4 writer, or the same
    /// batch's runs all `samples_delta` from a 1.3 one, batch by batch —
    /// reads back bit for bit by a reader that keeps its own state from
    /// the same empty start, the two states equal after every batch —
    /// repeats, NaN payloads, ids past the state bound and all. What a
    /// stateless reader makes of such a batch is `InvalidData`; what a
    /// state with nothing behind it makes of the second batch, too,
    /// unless that batch names only ids whose first sample in it is
    /// whole. Unwinding the writer's state over the batches, last first,
    /// gives back each state it was written against.
    #[test]
    fn delta_streams_read_back_bit_for_bit_and_unwind(
        records in swept_records(),
        cuts in prop::collection::vec((0usize..1000, any::<bool>()), 1..6),
    ) {
        let mut bounds: Vec<(usize, bool)> =
            cuts.iter().map(|&(at, v1_3)| (records.len() * at / 1000, v1_3)).collect();
        bounds.sort_unstable();
        bounds.push((records.len(), false));
        let (mut writer, mut reader) = (ValueState::new(), ValueState::new());
        let (mut written, mut states) = (Vec::new(), vec![ValueState::new()]);
        let mut from = 0;
        for (seq, &(to, v1_3)) in bounds.iter().enumerate() {
            let batch = ExportBatch { seq: seq as u64, records: records[from..to].to_vec() };
            from = to;
            let coding = if v1_3 { Coding::Deltas } else { Coding::Sweeps };
            let mut bytes = Vec::new();
            encode_batch_as(&batch, coding, &mut writer, &mut bytes);
            let (back, unknown) = decode_batch_with(&bytes, &mut reader).unwrap();
            prop_assert_eq!(unknown, 0);
            prop_assert_eq!(render_v1_1(&back), render_v1_1(&batch));
            prop_assert_eq!(&reader, &writer);
            let runs = batch.records.iter().any(|r| matches!(r, ExportRecord::Sample { .. }));
            prop_assert_eq!(decode_batch(&bytes).is_ok(), !runs);
            // Read against nothing: a delta with no state is refused.
            let mut fresh = ValueState::new();
            if decode_batch_with(&bytes, &mut fresh).is_err() {
                prop_assert_eq!(fresh, ValueState::new());
            }
            written.push(bytes);
            states.push(writer.clone());
        }
        for bytes in written.iter().rev() {
            states.pop();
            writer.unwind(bytes).unwrap();
            prop_assert_eq!(&writer, states.last().unwrap());
        }
    }

    /// Older readers stay in sync with a 1.4 stream. A 1.2 reader
    /// length-skips each `samples_delta` and `sweep` record, counts it as
    /// unknown, and reads every other record as the 1.4 reader does. A
    /// 1.3 reader length-skips and counts each `sweep` record — one for
    /// each run that is a single progression of at least two samples,
    /// the writer's canonical rule — and reads the rest.
    #[test]
    fn a_1_2_reader_length_skips_samples_delta_and_counts_it(
        seq in any::<u64>(),
        records in swept_records(),
    ) {
        let batch = ExportBatch { seq, records };
        let mut bytes = Vec::new();
        encode_batch_with(&batch, &mut ValueState::new(), &mut bytes);
        let is_sample = |r: &ExportRecord| matches!(r, ExportRecord::Sample { .. });
        let (mut runs, mut sweeps) = (0u64, 0u64);
        for run in batch.records.chunk_by(|a, b| is_sample(a) && is_sample(b)) {
            let ids_times: Vec<(u32, u64)> = run
                .iter()
                .filter_map(|r| match *r {
                    ExportRecord::Sample { id, t, .. } => Some((id.0, t.0)),
                    _ => None,
                })
                .collect();
            if ids_times.is_empty() {
                continue;
            }
            runs += 1;
            let progression = ids_times.len() >= 2 && ids_times.windows(3).all(|w| {
                w[1].0.checked_sub(w[0].0).is_some()
                    && w[2].0.checked_sub(w[1].0) == w[1].0.checked_sub(w[0].0)
                    && w[2].1.wrapping_sub(w[1].1) == w[1].1.wrapping_sub(w[0].1)
            }) && ids_times[1].0 >= ids_times[0].0;
            sweeps += u64::from(progression);
        }
        let (got_seq, kept, unknown, delta) = reference_decode(&bytes, READS_1_2).unwrap();
        prop_assert_eq!((got_seq, unknown, delta), (seq, runs, false));
        let others: Vec<ExportRecord> =
            batch.records.iter().filter(|r| !is_sample(r)).cloned().collect();
        let kept = ExportBatch { seq, records: kept.unwrap() };
        prop_assert_eq!(render_v1_1(&kept), render_v1_1(&ExportBatch { seq, records: others }));
        let (got_seq, _, unknown, delta) = reference_decode(&bytes, READS_1_3).unwrap();
        prop_assert_eq!((got_seq, unknown, delta), (seq, sweeps, runs > sweeps));
        let (_, read, unknown, _) = reference_decode(&bytes, READS_1_4).unwrap();
        prop_assert_eq!(unknown, 0);
        prop_assert_eq!(render_v1_1(&ExportBatch { seq, records: read.unwrap() }), render_v1_1(&batch));
    }
}
