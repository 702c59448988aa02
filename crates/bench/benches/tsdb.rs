//! **E11 (micro) — monitoring-substrate costs (§IV design considerations).**
//!
//! §IV names *insert rates for raw time-series data*, *sampling rates*,
//! and *cardinality* as the storage design considerations for MODA.
//! These benches measure the telemetry store on exactly those axes:
//!
//! * insert throughput as metric cardinality grows,
//! * window-query cost as the analysis window widens,
//! * resampling (the Knowledge-layer downsampling shape),
//! * export drain throughput — snapshot and incremental — for the
//!   batched collection→transport stage (`tsdb_export`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::{MetricMeta, RollupConfig, SourceDomain, Tsdb, WindowAgg};
use std::hint::black_box;
use std::sync::Arc;

fn registered(cardinality: usize, capacity: usize) -> (Tsdb, Vec<moda_telemetry::MetricId>) {
    let mut db = Tsdb::with_retention(capacity);
    let ids = (0..cardinality)
        .map(|i| {
            db.register(MetricMeta::gauge(
                format!("node{:04}.metric", i),
                "unit",
                SourceDomain::Hardware,
            ))
        })
        .collect();
    (db, ids)
}

/// Insert throughput at cardinalities spanning a rack to a small system.
fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("tsdb_insert");
    for cardinality in [16usize, 256, 4096] {
        g.throughput(Throughput::Elements(cardinality as u64));
        g.bench_with_input(
            BenchmarkId::new("round_robin", cardinality),
            &cardinality,
            |b, &n| {
                let (mut db, ids) = registered(n, 512);
                let mut t = 0u64;
                b.iter(|| {
                    t += 1_000;
                    for (i, id) in ids.iter().enumerate() {
                        db.insert(*id, SimTime(t), black_box(i as f64));
                    }
                });
            },
        );
    }
    g.finish();
}

/// Batch insert (the collector's hot path: one timestamp, many metrics).
fn bench_insert_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("tsdb_insert_batch");
    for cardinality in [256usize, 4096] {
        g.throughput(Throughput::Elements(cardinality as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(cardinality),
            &cardinality,
            |b, &n| {
                let (mut db, ids) = registered(n, 512);
                let batch: Vec<_> = ids.iter().map(|id| (*id, 1.0f64)).collect();
                let mut t = 0u64;
                b.iter(|| {
                    t += 1_000;
                    db.insert_batch(SimTime(t), black_box(&batch));
                });
            },
        );
    }
    g.finish();
}

/// Window-query cost as the Analyze window widens (Analyze reads
/// dominate the loop's steady-state telemetry traffic): `agg` is
/// `window_agg` folding the binary-searched view directly, without
/// allocating.
fn bench_window_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("tsdb_window");
    let (mut db, ids) = registered(8, 4096);
    // One sample/second for two simulated hours (wraps the 4096-ring).
    let mut now = SimTime::ZERO;
    for s in 0..7200u64 {
        now = SimTime::from_secs(s);
        for id in &ids {
            db.insert(*id, now, s as f64);
        }
    }
    for window_s in [60u64, 600, 3600] {
        g.bench_with_input(BenchmarkId::new("agg", window_s), &window_s, |b, &w| {
            b.iter(|| {
                black_box(db.window_agg(
                    ids[0],
                    black_box(now),
                    SimDuration::from_secs(w),
                    WindowAgg::Mean,
                ))
            });
        });
    }
    g.finish();
}

/// Wide-window aggregates: the raw zero-allocation fold (O(samples))
/// versus the rollup planner (sealed 1m/1h buckets + raw tail splice,
/// O(window/res)) over a day of 1 Hz data — the Knowledge-layer query
/// shape the rollup tier exists for. The `BENCH_tsdb.json` ratio between
/// `raw/86400` and `rollup/86400` is enforced by the CI bench gate.
fn bench_window_wide(c: &mut Criterion) {
    let mut g = c.benchmark_group("tsdb_window_wide");
    const DAY_S: u64 = 86_400;
    // Raw-only store and rollup-enabled store, identically fed with a
    // full day of 1 Hz samples (all retained raw in both).
    let (mut db_raw, ids_raw) = registered(1, 90_000);
    let (mut db_roll, ids_roll) = registered(1, 90_000);
    db_roll.enable_rollups(ids_roll[0], &RollupConfig::standard());
    let mut now = SimTime::ZERO;
    for s in 0..DAY_S {
        now = SimTime::from_secs(s);
        let v = ((s * 2_654_435_761) % 10_000) as f64;
        db_raw.insert(ids_raw[0], now, v);
        db_roll.insert(ids_roll[0], now, v);
    }
    for window_s in [21_600u64, 86_400] {
        g.bench_with_input(BenchmarkId::new("raw", window_s), &window_s, |b, &w| {
            b.iter(|| {
                black_box(db_raw.window_agg(
                    ids_raw[0],
                    black_box(now),
                    SimDuration::from_secs(w),
                    WindowAgg::Mean,
                ))
            });
        });
        g.bench_with_input(BenchmarkId::new("rollup", window_s), &window_s, |b, &w| {
            b.iter(|| {
                black_box(db_roll.window_agg(
                    ids_roll[0],
                    black_box(now),
                    SimDuration::from_secs(w),
                    WindowAgg::Mean,
                ))
            });
        });
    }
    // Downsampling a day to hourly buckets: raw streaming kernel vs
    // sealed-bucket splicing.
    let (t0, t1, hour) = (
        SimTime::ZERO,
        SimTime::from_secs(DAY_S),
        SimDuration::from_hours(1),
    );
    let mut out = Vec::new();
    g.bench_function("resample_day_to_1h/raw", |b| {
        b.iter(|| {
            db_raw.resample_into(ids_raw[0], t0, t1, hour, WindowAgg::Mean, &mut out);
            black_box(out.len())
        });
    });
    g.bench_function("resample_day_to_1h/rollup", |b| {
        b.iter(|| {
            db_roll.resample_into(ids_roll[0], t0, t1, hour, WindowAgg::Mean, &mut out);
            black_box(out.len())
        });
    });
    g.finish();
}

/// Day-wide tail percentile: the raw selection path (binary-searched
/// view + O(n) `select_nth_unstable`) versus merging sealed-bucket
/// quantile sketches (O(window/res), 1 % relative error) — the
/// Knowledge-layer p99 query the sketch tier exists for. Values follow
/// a power-style diurnal profile (a realistic per-window dynamic range;
/// the raw path's cost is distribution-independent). The
/// `BENCH_tsdb.json` ratio between `raw` and `sketch` is enforced by
/// the CI bench gate.
fn bench_percentile_wide(c: &mut Criterion) {
    let mut g = c.benchmark_group("tsdb_percentile_wide");
    const DAY_S: u64 = 86_400;
    let (mut db_raw, ids_raw) = registered(1, 90_000);
    let (mut db_sk, ids_sk) = registered(1, 90_000);
    db_sk.enable_rollups(ids_sk[0], &RollupConfig::standard().with_sketches());
    let mut now = SimTime::ZERO;
    for s in 0..DAY_S {
        now = SimTime::from_secs(s);
        let v =
            200.0 + (s % DAY_S) as f64 / DAY_S as f64 * 150.0 + ((s * 2_654_435_761) % 50) as f64;
        db_raw.insert(ids_raw[0], now, v);
        db_sk.insert(ids_sk[0], now, v);
    }
    let day = SimDuration::from_secs(DAY_S);
    g.bench_function("raw", |b| {
        b.iter(|| {
            black_box(db_raw.window_agg(
                ids_raw[0],
                black_box(now),
                day,
                WindowAgg::Percentile(0.99),
            ))
        });
    });
    g.bench_function("sketch", |b| {
        b.iter(|| {
            black_box(db_sk.window_agg(ids_sk[0], black_box(now), day, WindowAgg::Percentile(0.99)))
        });
    });
    g.finish();
}

/// Export drain throughput and copy-out cost: a full-day snapshot
/// drain of raw samples alone vs a sketched rollup store (raw + sealed
/// buckets + sketch columns), plus the steady-state incremental shape
/// (60 new 1 Hz samples per drain). All single-threaded and
/// machine-comparable.
fn bench_export(c: &mut Criterion) {
    use moda_telemetry::export::{CsvSink, Exporter, MemorySink};
    let mut g = c.benchmark_group("tsdb_export");
    const DAY_S: u64 = 86_400;
    let feed = |rollups: bool| {
        let (mut db, ids) = registered(1, 90_000);
        if rollups {
            db.enable_rollups(ids[0], &RollupConfig::standard().with_sketches());
        }
        for s in 0..DAY_S {
            let v = 200.0 + ((s * 2_654_435_761) % 50) as f64;
            db.insert(ids[0], SimTime::from_secs(s), v);
        }
        (db, ids)
    };
    // Fresh-cursor snapshot of one day of raw 1 Hz samples.
    let (db_raw, _) = feed(false);
    g.throughput(Throughput::Elements(DAY_S));
    g.bench_function("drain_day_raw", |b| {
        b.iter(|| {
            let mut sink = CsvSink::new(std::io::sink());
            let stats = Exporter::new().drain(&db_raw, &mut sink).unwrap();
            black_box(stats.records)
        });
    });
    // Same day with the sketched pyramid: sealed 1m/1h buckets and
    // their sketch columns ride along (the long-horizon wire units).
    let (db_sk, _) = feed(true);
    g.bench_function("drain_day_sketch", |b| {
        b.iter(|| {
            let mut sink = CsvSink::new(std::io::sink());
            let stats = Exporter::new().drain(&db_sk, &mut sink).unwrap();
            black_box(stats.records)
        });
    });
    // Steady state: one minute of new samples per drain, cursors warm.
    g.throughput(Throughput::Elements(60));
    g.bench_function("drain_incremental_60s", |b| {
        let (mut db, ids) = feed(true);
        let mut exporter = Exporter::new();
        let mut sink = CsvSink::new(std::io::sink());
        exporter.drain(&db, &mut sink).unwrap();
        let mut t = DAY_S;
        b.iter(|| {
            for _ in 0..60 {
                db.insert(ids[0], SimTime::from_secs(t), (t % 997) as f64);
                t += 1;
            }
            let stats = exporter.drain(&db, &mut sink).unwrap();
            black_box(stats.records)
        });
    });
    // The live path's unit: one 64-metric sweep inserted, drained and
    // encoded, cursors and buffers warm — what a node agent pays per
    // 1 Hz scrape, averaged over the bucket seal every 60th sweep and
    // the chunk seal every 512th.
    // `drain_sweep256` is the same on a 256-metric node, where the
    // per-metric copy-out (one pending sample lifted off each tail)
    // outweighs the per-sweep costs.
    for metrics in [64usize, 256] {
        g.throughput(Throughput::Elements(metrics as u64));
        g.bench_function(&format!("drain_sweep{metrics}"), |b| {
            let (mut db, sweep) = sweep_store(metrics);
            let mut exporter = Exporter::new();
            let mut sink = EncodeSink(Vec::new());
            let mut t = 0u64;
            b.iter(|| {
                t += 1;
                db.insert_batch(SimTime::from_secs(t), &sweep);
                let stats = exporter.drain(&db, &mut sink).unwrap();
                black_box((stats.records, sink.0.len()))
            });
        });
    }
    // The full collection→wire→fleet-ingest pipeline for one raw day:
    // sealed regions travel as whole compressed-chunk records (wire
    // spec revision 1.1) and are validated and linked, not decoded.
    let pipeline = || {
        let mut sink = MemorySink::new();
        Exporter::new().drain(&db_raw, &mut sink).unwrap();
        let mut agg = moda_fleet::FleetAggregator::new();
        let node = agg.add_node("node00");
        for batch in &sink.batches {
            agg.ingest(node, batch);
        }
        agg.counters(node).samples
    };
    assert_eq!(pipeline(), DAY_S, "the pipeline is lossless");
    g.sample_size(10);
    g.throughput(Throughput::Elements(DAY_S));
    g.bench_function("day_pipeline_chunked", |b| {
        b.iter(|| black_box(pipeline()));
    });
    g.finish();
}

/// A node store of `metrics` series (a quarter of them sketched) and
/// one sweep of quantised readings for it.
fn sweep_store(metrics: usize) -> (Tsdb, Vec<(moda_telemetry::MetricId, f64)>) {
    let (mut db, ids) = registered(metrics, 4096);
    for id in ids.iter().step_by(4) {
        db.enable_rollups(*id, &RollupConfig::standard().with_sketches());
    }
    let sweep = ids
        .iter()
        .enumerate()
        .map(|(m, &id)| (id, 180.0 + (m * 37 % 101) as f64 * 0.25))
        .collect();
    (db, sweep)
}

/// A sink that does what a socket sink does before it writes: encode
/// into a buffer it keeps.
struct EncodeSink(Vec<u8>);

impl moda_telemetry::export::Sink for EncodeSink {
    fn write_batch(&mut self, batch: &moda_telemetry::export::ExportBatch) -> std::io::Result<()> {
        self.0.clear();
        moda_telemetry::wire::encode_batch(batch, &mut self.0);
        Ok(())
    }
}

/// The batch codec on the live path's unit — one 64-sample sweep, as
/// the exporter stages it: what the node pays to render it (a packed
/// `samples` run), what every receiver — listener, WAL replay, snapshot
/// load — pays to validate it and visit its samples where they lie
/// (`view_sweep64`), and what expanding it into owned records costs on
/// top (`decode_sweep64`: the same view, then to-owned). The `_delta_`
/// rows are the same two ends of a 1.3 stream, where the sweep travels
/// as a `samples_delta` run coded against the previous sweep:
/// `encode_delta_sweep64` renders it against the stream's value state,
/// `view_delta_sweep64` validates it, checks it against the reader's
/// state and visits its samples, the state advancing. The
/// `_sweep_packed64` rows are the same for a 1.4 stream, where the sweep
/// is a `sweep` record: its ids and times once, its value codes two to a
/// byte. Consecutive sweeps differ by quantised steps, so the XORs are
/// the live path's. The `_bucket_run16` rows are a backfill's unit —
/// one gauge's 16 sealed 10 s buckets and their sketch columns — as a
/// 1.5 stream's `bucket_run` record and, `_as_1_4`, as the `bucket` and
/// `sketch` records a 1.4 fleet is sent: `encode_` renders it, `view_`
/// validates it and visits every bucket and column entry where it lies.
fn bench_wire_batch(c: &mut Criterion) {
    use moda_telemetry::export::{ExportBatch, ExportRecord, Exporter, MemorySink};
    use moda_telemetry::wire::{
        decode_batch, encode_batch, encode_batch_as, BatchHeader, BatchView, Coding, RecordRef,
        ValueState,
    };
    let (mut db, sweep) = sweep_store(64);
    let mut exporter = Exporter::new();
    let mut sink = MemorySink::new();
    for t in 0..2 {
        // The first drain carries the metas; keep the second.
        db.insert_batch(SimTime::from_secs(t), &sweep);
        sink.batches.clear();
        exporter.drain(&db, &mut sink).unwrap();
    }
    let batch = sink.batches.pop().expect("one sweep, one batch");
    assert_eq!(batch.records.len(), 64);
    let mut wire = Vec::new();
    encode_batch(&batch, &mut wire);
    let mut g = c.benchmark_group("wire_batch");
    g.throughput(Throughput::Elements(64));
    g.bench_function("encode_sweep64", |b| {
        let mut out = Vec::with_capacity(wire.len());
        b.iter(|| {
            out.clear();
            encode_batch(black_box(&batch), &mut out);
            black_box(out.len())
        });
    });
    g.bench_function("view_sweep64", |b| {
        b.iter(|| {
            let view = BatchView::parse(black_box(&wire), BatchHeader::Fixed).unwrap();
            let mut folded = 0u64;
            for record in view.records() {
                if let RecordRef::Samples(run) = record {
                    for (id, t, value) in run {
                        folded = folded.wrapping_add(u64::from(id.0) ^ t.0 ^ value.to_bits());
                    }
                }
            }
            black_box(folded)
        });
    });
    g.bench_function("decode_sweep64", |b| {
        b.iter(|| black_box(decode_batch(black_box(&wire)).unwrap().0.records.len()));
    });
    // The sweep after it: every reading a quarter-step or two away.
    let next = ExportBatch {
        seq: batch.seq + 1,
        records: batch
            .records
            .iter()
            .enumerate()
            .map(|(m, r)| match *r {
                ExportRecord::Sample { id, t, value } => ExportRecord::Sample {
                    id,
                    t: SimTime(t.0 + 1_000),
                    value: value + (m % 3) as f64 * 0.25,
                },
                ref other => other.clone(),
            })
            .collect(),
    };
    // Two sweeps taking turns: each coded against the other's values,
    // as 1.3 `samples_delta` runs, as 1.4 `sweep` runs, and as 1.6
    // `sweep` runs, whose batch header and record length are varints.
    let sweeps = [&batch, &next];
    for (coding, encode_name, view_name) in [
        (Coding::Deltas, "encode_delta_sweep64", "view_delta_sweep64"),
        (
            Coding::Sweeps,
            "encode_sweep_packed64",
            "view_sweep_packed64",
        ),
        (
            Coding::Varints,
            "encode_sweep_packed64_1_6",
            "view_sweep_packed64_1_6",
        ),
    ] {
        let mut writer = ValueState::new();
        let mut staged = [Vec::new(), Vec::new(), Vec::new()];
        for (k, out) in staged.iter_mut().enumerate() {
            encode_batch_as(sweeps[k % 2], coding, &mut writer, out);
        }
        let [_, next_wire, batch_wire] = staged;
        g.bench_function(encode_name, |b| {
            let mut out = Vec::with_capacity(wire.len());
            // The writer stands after `batch`: `next` goes first.
            let mut turn = 1;
            b.iter(|| {
                out.clear();
                encode_batch_as(black_box(sweeps[turn]), coding, &mut writer, &mut out);
                turn ^= 1;
                black_box(out.len())
            });
        });
        g.bench_function(view_name, |b| {
            // The reader stands where the writer did after `batch`.
            let mut reader = ValueState::new();
            encode_batch_as(&batch, coding, &mut reader, &mut Vec::new());
            let wires = [&next_wire, &batch_wire];
            let mut turn = 0;
            b.iter(|| {
                let view = BatchView::parse(black_box(wires[turn]), coding.header()).unwrap();
                view.check_values(&mut reader).unwrap();
                let mut folded = 0u64;
                for record in view.records() {
                    if let RecordRef::SamplesDelta(run) = record {
                        for (id, t, value) in run.values(&mut reader) {
                            folded = folded.wrapping_add(u64::from(id.0) ^ t.0 ^ value.to_bits());
                        }
                    }
                }
                turn ^= 1;
                black_box(folded)
            });
        });
    }
    bench_bucket_runs(&mut g);
    g.finish();
}

/// The `_bucket_run16` rows of [`bench_wire_batch`].
fn bench_bucket_runs(g: &mut criterion::BenchmarkGroup<'_>) {
    use moda_telemetry::export::{ExportBatch, ExportRecord, Exporter, MemorySink};
    use moda_telemetry::wire::{encode_batch_as, BatchView, Coding, RecordRef, ValueState};
    use moda_telemetry::RollupTier;
    let (mut db, ids) = registered(1, 4096);
    let tier = RollupTier::new(SimDuration::from_secs(10), 64);
    db.enable_rollups(ids[0], &RollupConfig::new(vec![tier]).with_sketches());
    for s in 0..=160u64 {
        // A power-style reading: 50 W of jitter on a slow ramp.
        let value = 200.0 + ((s * 2_654_435_761) % 50) as f64 + s as f64 / 2_000.0;
        db.insert(ids[0], SimTime::from_secs(s), value);
    }
    let mut sink = MemorySink::new();
    Exporter::new().drain(&db, &mut sink).unwrap();
    let records: Vec<ExportRecord> = sink
        .batches
        .iter()
        .flat_map(|b| &b.records)
        .filter(|r| matches!(r, ExportRecord::Bucket { .. } | ExportRecord::Sketch { .. }))
        .cloned()
        .collect();
    let buckets = records
        .iter()
        .filter(|r| matches!(r, ExportRecord::Bucket { .. }))
        .count();
    assert_eq!(buckets, 16);
    let batch = ExportBatch { seq: 1, records };
    g.throughput(Throughput::Elements(16));
    for (coding, encode_name, view_name) in [
        (Coding::Buckets, "encode_bucket_run16", "view_bucket_run16"),
        (
            Coding::Sweeps,
            "encode_bucket_run16_as_1_4",
            "view_bucket_run16_as_1_4",
        ),
    ] {
        let mut wire = Vec::new();
        encode_batch_as(&batch, coding, &mut ValueState::new(), &mut wire);
        g.bench_function(encode_name, |b| {
            let mut out = Vec::with_capacity(wire.len());
            let mut state = ValueState::new();
            b.iter(|| {
                out.clear();
                encode_batch_as(black_box(&batch), coding, &mut state, &mut out);
                black_box(out.len())
            });
        });
        g.bench_function(view_name, |b| {
            let mut column = Vec::new();
            b.iter(|| {
                let view = BatchView::parse(black_box(&wire), coding.header()).unwrap();
                let mut folded = 0u64;
                for record in view.records() {
                    match record {
                        RecordRef::BucketRun(mut run) => {
                            while let Some(bucket) = run.next_bucket(&mut column) {
                                folded ^= bucket.start.0 ^ bucket.count ^ bucket.sum.to_bits();
                                for e in &column {
                                    folded = folded.wrapping_add(e.key as u64 ^ e.count);
                                }
                            }
                        }
                        RecordRef::Bucket {
                            start, count, sum, ..
                        } => folded ^= start.0 ^ count ^ sum.to_bits(),
                        RecordRef::Sketch { entry: e, .. } => {
                            folded = folded.wrapping_add(e.key as u64 ^ e.count)
                        }
                        _ => {}
                    }
                }
                black_box(folded)
            });
        });
    }
}

/// Fleet aggregation tier: ingest throughput of staged wire batches,
/// and the cluster-wide p99 query — merged additively from
/// the nodes' sealed-bucket sketches — against the per-node raw
/// fan-out (pooling every node's raw day and selecting exactly). The
/// `BENCH_tsdb.json` ratio between `fanout_p99_16` and `merged_p99_16`
/// is enforced by the CI bench gate (machine-independent: both run in
/// the same process).
fn bench_fleet(c: &mut Criterion) {
    use moda_fleet::FleetAggregator;
    use moda_telemetry::export::{ExportBatch, Exporter, MemorySink, Sink};

    let mut g = c.benchmark_group("tsdb_fleet");
    g.sample_size(10);
    const DAY_S: u64 = 86_400;
    const NODES: u32 = 16;
    let node_value = |n: u32, s: u64| {
        200.0 + 10.0 * n as f64 + ((s * 2_654_435_761) % 50) as f64 + (s % DAY_S) as f64 / 2_000.0
    };

    // Node-side: 16 stores with sketched rollups, one day of 1 Hz data,
    // each drained once into a staging buffer (the wire).
    let wires: Vec<MemorySink> = (0..NODES)
        .map(|n| {
            let (mut db, ids) = registered(1, 4096);
            db.enable_rollups(ids[0], &RollupConfig::standard().with_sketches());
            for s in 0..DAY_S {
                db.insert(ids[0], SimTime::from_secs(s), node_value(n, s));
            }
            let mut sink = MemorySink::new();
            Exporter::new().drain(&db, &mut sink).unwrap();
            sink
        })
        .collect();
    let records: u64 = wires.iter().map(|w| w.record_count() as u64).sum();

    // Ingest: apply every node's batches through the per-node ingest
    // sessions (cursor validation, remapping, wire-fed tier absorption
    // included).
    g.throughput(Throughput::Elements(records));
    g.bench_function("ingest_16x1day", |b| {
        b.iter(|| {
            let mut agg = FleetAggregator::new();
            for (n, wire) in wires.iter().enumerate() {
                let node = agg.add_node(&format!("node{n:02}"));
                for batch in &wire.batches {
                    agg.ingest(node, batch);
                }
            }
            black_box(agg.store().cardinality())
        });
    });

    // Query side: one pre-ingested aggregator...
    let mut agg = FleetAggregator::new();
    for (n, wire) in wires.iter().enumerate() {
        let node = agg.add_node(&format!("node{n:02}"));
        for batch in &wire.batches {
            agg.ingest(node, batch);
        }
    }
    // ...queried on a window ending 1 ms short of the newest *sealed*
    // minute and starting on an hour boundary, so the p99 is merged
    // purely from sketches (zero raw reads — asserted, since that
    // claim is the bench's reason to exist).
    let now = SimTime(DAY_S * 1000 - 60_000 - 1);
    let day = SimDuration(now.0 + 1 - 3_600_000);
    let (_, served) = agg.store().fleet_window_agg_served(
        "node0000.metric",
        now,
        day,
        WindowAgg::Percentile(0.99),
    );
    assert!(served.sketch && served.raw_values == 0, "{served:?}");
    g.throughput(Throughput::Elements(1));
    g.bench_function("merged_p99_16", |b| {
        b.iter(|| {
            black_box(agg.store().fleet_window_agg(
                "node0000.metric",
                black_box(now),
                day,
                WindowAgg::Percentile(0.99),
            ))
        });
    });

    // Fan-out reference: 16 per-node raw stores retaining the full day;
    // the exact pooled p99 gathers every node's window and selects.
    let raw_nodes: Vec<(Tsdb, moda_telemetry::MetricId)> = (0..NODES)
        .map(|n| {
            let (mut db, ids) = registered(1, 90_000);
            for s in 0..DAY_S {
                db.insert(ids[0], SimTime::from_secs(s), node_value(n, s));
            }
            (db, ids[0])
        })
        .collect();
    let mut pool: Vec<f64> = Vec::new();
    g.bench_function("fanout_p99_16", |b| {
        b.iter(|| {
            pool.clear();
            for (db, id) in &raw_nodes {
                let view = db.series(*id).window_view(now, day);
                pool.extend(view.values());
            }
            black_box(WindowAgg::Percentile(0.99).apply_mut(&mut pool))
        });
    });

    // Durable-tier restart cost: recovering from a snapshot (bounded by
    // *current* state) vs replaying the append-log from seq 0
    // (proportional to shipped *history*). Both dirs hold the same
    // two-node two-day history shipped the way a live exporter would —
    // an incremental drain every simulated minute, so pending raw
    // samples travel per-sample (a minute never seals a whole chunk)
    // and the wal re-delivers each of them on replay, while the
    // snapshot carries the retained raw ring exactly once. The bench
    // gate pins the machine-independent ratio (>= 10x).
    use criterion::BatchSize;
    use moda_fleet::{DurabilityConfig, DurableFleet, FleetListener, FleetStore, SocketSink};
    use moda_telemetry::wire::BatchHeader;
    use std::sync::Mutex;
    const RNODES: u32 = 2;
    const HISTORY_S: u64 = 2 * DAY_S;
    let tmp = std::env::temp_dir().join(format!("moda_bench_recovery_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let streams: Vec<Vec<ExportBatch>> = (0..RNODES)
        .map(|n| {
            let (mut db, ids) = registered(1, 4096);
            db.enable_rollups(ids[0], &RollupConfig::standard().with_sketches());
            let mut exporter = Exporter::new();
            let mut sink = MemorySink::new();
            for s in 0..HISTORY_S {
                db.insert(ids[0], SimTime::from_secs(s), node_value(n, s));
                if s % 60 == 59 {
                    exporter.drain(&db, &mut sink).unwrap();
                }
            }
            exporter.drain(&db, &mut sink).unwrap();
            sink.batches
        })
        .collect();
    let no_cadence = DurabilityConfig {
        snapshot_every_batches: u64::MAX,
    };
    let snap_dir = tmp.join("snapshot");
    let replay_dir = tmp.join("replay");
    for (dir, seal) in [(&replay_dir, false), (&snap_dir, true)] {
        let mut fleet = DurableFleet::open(dir, no_cadence).unwrap();
        for (n, stream) in streams.iter().enumerate() {
            let node = fleet.add_node(&format!("node{n:02}")).unwrap();
            for batch in stream {
                fleet.ingest(node, batch).unwrap();
            }
        }
        if seal {
            fleet.snapshot().unwrap();
        }
    }
    g.throughput(Throughput::Elements(1));
    g.bench_function("recover_from_snapshot", |b| {
        b.iter(|| {
            black_box(
                FleetStore::recover(&snap_dir)
                    .unwrap()
                    .store()
                    .cardinality(),
            )
        });
    });
    g.bench_function("replay_from_seq0", |b| {
        b.iter(|| {
            black_box(
                FleetStore::recover(&replay_dir)
                    .unwrap()
                    .store()
                    .cardinality(),
            )
        });
    });

    // Replay of a chunk-heavy log: four nodes' 2 h histories at 4 Hz
    // (28 800 samples each), shipped whole as 512-sample chunk records
    // and ingested in process, so the log vouches for every chunk. The
    // fleet's rings keep 4096 samples, so by the end of the log 48 of
    // each ring's 56 chunks are evicted: recovery links each chunk on
    // its header and walks only the eight a ring still holds.
    const CNODES: u32 = 4;
    const CHUNKED_SAMPLES: u64 = 2 * 3600 * 4;
    let chunked_dir = tmp.join("replay_chunked");
    {
        let mut fleet = DurableFleet::open(&chunked_dir, no_cadence).unwrap();
        for n in 0..CNODES {
            let (mut db, ids) = registered(1, CHUNKED_SAMPLES as usize);
            for s in 0..CHUNKED_SAMPLES {
                db.insert(ids[0], SimTime(250 * s), node_value(n, s));
            }
            let mut sink = MemorySink::new();
            Exporter::new()
                .with_batch_records(8)
                .drain(&db, &mut sink)
                .unwrap();
            let node = fleet.add_node(&format!("node{n:02}")).unwrap();
            for batch in &sink.batches {
                fleet.ingest(node, batch).unwrap();
            }
        }
    }
    g.bench_function("replay_chunked", |b| {
        b.iter(|| {
            black_box(
                FleetStore::recover(&chunked_dir)
                    .unwrap()
                    .store()
                    .cardinality(),
            )
        });
    });

    // One control tick over a backfilled fleet: 8 nodes whose rings
    // were fed whole chunks (and one trailing sample), watched by a
    // 2 s Max threshold and a 30 min Mean straggler monitor — the
    // straggler's raw window edge lands inside each node's oldest
    // adopted chunk, the threshold's read reaches back across the
    // newest. No monitor alerts, so every tick does the same work.
    {
        use moda_fleet::{
            ActionTarget, Bound, ControlConfig, FleetActuator, FleetResponder, Rank,
            StragglerMonitor, ThresholdMonitor,
        };
        struct Idle;
        impl FleetActuator for Idle {
            type Action = ();
            fn apply(&mut self, _: SimTime, _: &ActionTarget, _: &()) -> Result<String, String> {
                Ok(String::new())
            }
        }
        const FED: u64 = 4 * 512 + 1;
        let mut agg = FleetAggregator::new();
        for n in 0..8u32 {
            let (mut db, ids) = registered(1, 4096);
            db.enable_rollups(ids[0], &RollupConfig::standard());
            for s in 0..FED {
                db.insert(ids[0], SimTime::from_secs(s), node_value(n, s));
            }
            let mut sink = MemorySink::new();
            Exporter::new().drain(&db, &mut sink).unwrap();
            let node = agg.add_node(&format!("node{n:02}"));
            for batch in &sink.batches {
                agg.ingest(node, batch);
            }
        }
        let stale_after = SimDuration::from_mins(30);
        let mut responder: FleetResponder<()> = FleetResponder::new(ControlConfig {
            log_observations: false,
            ..ControlConfig::default()
        });
        responder.add_monitor(Box::new(ThresholdMonitor {
            name: "power_cap".into(),
            subsystem: "power".into(),
            metric: "node0000.metric".into(),
            window: SimDuration::from_secs(2),
            agg: WindowAgg::Max,
            bound: Bound::Above(1e9),
            stale_after,
            base_confidence: 0.9,
        }));
        responder.add_monitor(Box::new(StragglerMonitor {
            name: "power_straggler".into(),
            subsystem: "power".into(),
            metric: "node0000.metric".into(),
            window: SimDuration::from_mins(30),
            agg: WindowAgg::Mean,
            rank: Rank::Highest,
            ratio: 1e9,
            min_nodes: 3,
            stale_after,
            base_confidence: 0.8,
        }));
        let now = SimTime::from_secs(FED - 1);
        let report = responder.tick(&agg, now, &mut Idle);
        assert_eq!((report.alerts, responder.observation_stats()), (0, (2, 0)));
        g.throughput(Throughput::Elements(1));
        g.bench_function("control_tick_backfilled", |b| {
            b.iter(|| black_box(responder.tick(black_box(&agg), now, &mut Idle)));
        });
    }

    // The fleet's half of the live path, socket excluded: 64 received
    // 64-sample sweeps taken as wire bytes (as a 1.2 sender packs them;
    // `wire_batch/view_delta_sweep64` is what a 1.3 run adds to the
    // view) — validated, logged as they arrived, applied off the same
    // bytes — each as a burst of its own
    // (one log flush per batch, what a lone frame pays) and all 64 as
    // one burst (one flush). Both rows time 64 batches; the sweeps are
    // staged outside the timed region so every one carries fresh
    // timestamps and the next `seq`.
    {
        let (mut db, sweep) = sweep_store(64);
        let mut exporter = Exporter::new();
        let mut sink = MemorySink::new();
        let mut t = 0u64;
        let mut stage = move |n: usize| -> Vec<Vec<u8>> {
            sink.batches.clear();
            for _ in 0..n {
                db.insert_batch(SimTime::from_secs(t), &sweep);
                t += 1;
                exporter.drain(&db, &mut sink).unwrap();
            }
            sink.batches
                .iter()
                .map(|batch| {
                    let mut wire = Vec::new();
                    moda_telemetry::wire::encode_batch(batch, &mut wire);
                    wire
                })
                .collect()
        };
        let mut fleet = DurableFleet::open(tmp.join("durable-ingest"), no_cadence).unwrap();
        let node = fleet.add_node("node00").unwrap();
        // The registry batch, so the timed sweeps are all samples.
        let mut warm = fleet.burst();
        for wire in stage(1) {
            warm.batch(node, BatchHeader::Fixed, &wire).unwrap();
        }
        warm.commit().unwrap();
        g.throughput(Throughput::Elements(64 * 64));
        for (name, burst_len) in [("lone", 1), ("burst64", 64)] {
            g.bench_function(&format!("durable_ingest_sweep64/{name}"), |b| {
                b.iter_batched(
                    || stage(64),
                    |wires| {
                        for burst_wires in wires.chunks(burst_len) {
                            let mut burst = fleet.burst();
                            for wire in burst_wires {
                                black_box(burst.batch(node, BatchHeader::Fixed, wire).unwrap());
                            }
                            burst.commit().unwrap();
                        }
                    },
                    BatchSize::PerIteration,
                );
            });
        }
    }

    // What a snapshot costs whoever holds the fleet, at the plateau the
    // live workloads sit on (`moda_bench::plateau`): 128 metrics, 8 of
    // them sketched, every raw ring at `DEFAULT_RAW_RETENTION` with its
    // front chunk partly evicted. `snapshot_sync` is the public
    // `snapshot()` end to end — cut, write, fsync, rename, promote.
    // `snapshot_cut` is a cadence point: one 128-sample batch (a few µs)
    // plus the cut and the hand to the writer thread, which is all an
    // ingest session waits for; the previous write is joined outside the
    // timed region. The raw sections are written straight from the
    // rings — whole chunks copied as they lie, each front chunk re-coded
    // only until its stream resyncs (`chunk_codec/retained_skip256`
    // times one), each tail one Gorilla run off its slices — so what is
    // left of the cut is one pass over the state: the image CRC is its
    // largest share, the tails' runs the next. Only a cut that does not
    // encode under the lock takes either away. `restore_128x4096` is
    // recovery from that image — read, checksum, decode, relink the
    // chunks, push the tails back, rebuild the tiers — with an empty
    // log behind it. No gate on any of the three rows yet; the bench
    // gate holds the image's bytes per retained sample to a ceiling.
    {
        let mut plateau = moda_bench::plateau::PlateauNode::new();
        let every_batch = DurabilityConfig {
            snapshot_every_batches: 1,
        };
        let held_dir = tmp.join("snapshot-sync");
        let mut held = DurableFleet::open(&held_dir, no_cadence).unwrap();
        let mut cadenced = DurableFleet::open(tmp.join("snapshot-cut"), every_batch).unwrap();
        let node = held.add_node("node00").unwrap();
        cadenced.add_node("node00").unwrap();
        plateau.fill(&mut [&mut held, &mut cadenced], node);
        let id = held
            .store()
            .lookup("node00/node0000.metric")
            .expect("mapped");
        let retention = moda_fleet::store::DEFAULT_RAW_RETENTION;
        assert_eq!(held.store().raw(id).len(), retention);
        g.throughput(Throughput::Elements(1));
        g.bench_function("snapshot_sync_128x4096", |b| {
            b.iter(|| held.snapshot().unwrap());
        });
        drop(held);
        g.bench_function("restore_128x4096", |b| {
            b.iter(|| {
                let restored = FleetStore::recover(&held_dir).unwrap();
                assert_eq!(restored.recovery().replayed_batches, 0);
                black_box(restored.store().cardinality())
            });
        });
        let cadenced = std::cell::RefCell::new(cadenced);
        g.bench_function("snapshot_cut_128x4096", |b| {
            b.iter_batched(
                || {
                    cadenced.borrow_mut().settle().unwrap();
                    plateau.run(1).pop().expect("one sweep, one batch")
                },
                |batch| black_box(cadenced.borrow_mut().ingest(node, &batch).unwrap()),
                BatchSize::PerIteration,
            );
        });
    }

    // Socket ingest throughput: one node-day of framed batches over
    // loopback TCP into a fresh durable server per iteration, acked
    // end-to-end (ack ⇐ logged). Loopback + disk bound, so the
    // absolute gate skips it; the number is for eyeballing trends.
    let socket_stream = &streams[0][..streams[0].len() / 4];
    let sock_records: u64 = socket_stream.iter().map(|b| b.records.len() as u64).sum();
    let sock_case = std::cell::Cell::new(0u64);
    g.throughput(Throughput::Elements(sock_records));
    g.bench_function("socket_ingest_1day", |b| {
        b.iter_batched(
            || {
                let dir = tmp.join(format!("socket-{}", sock_case.replace(sock_case.get() + 1)));
                let fleet = DurableFleet::open(&dir, no_cadence).unwrap();
                let listener =
                    FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), "bench")
                        .unwrap();
                let addr = listener.local_addr().to_string();
                let sink = SocketSink::connect(&addr, "node00", "bench").unwrap();
                (listener, sink)
            },
            |(listener, mut sink)| {
                for batch in socket_stream {
                    sink.write_batch(batch).unwrap();
                }
                sink.wait_idle().unwrap();
                // Hang up first: peer EOF ends the session at once. With
                // the sink still open the session only notices `stop`
                // when its 100 ms read timeout fires, and this row
                // would mostly time that wait.
                drop(sink);
                drop(listener.shutdown());
            },
            BatchSize::PerIteration,
        );
    });
    // Remote serving cost: the same merged fleet p99, but over the
    // wire — one framed request/response round-trip on loopback TCP
    // through `FleetClient` against a populated durable server. The
    // gate pins fanout_p99_16 / remote_query_p99: even with the socket
    // hop, the sketch merge must beat pooling raw values in-process.
    use moda_fleet::FleetClient;
    let serve_dir = tmp.join("serve");
    let mut served = DurableFleet::open(&serve_dir, no_cadence).unwrap();
    for (n, wire) in wires.iter().enumerate() {
        let node = served.add_node(&format!("node{n:02}")).unwrap();
        for batch in &wire.batches {
            served.ingest(node, batch).unwrap();
        }
    }
    let listener =
        FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(served)), "bench").unwrap();
    let mut client = FleetClient::connect(&listener.local_addr().to_string(), "bench").unwrap();
    // Correctness anchor: the remote answer is bit-identical to the
    // in-process merge and still sketch-served with zero raw reads.
    let want =
        agg.store()
            .fleet_window_agg("node0000.metric", now, day, WindowAgg::Percentile(0.99));
    let got = client
        .window_agg("node0000.metric", now, day, WindowAgg::Percentile(0.99))
        .unwrap();
    assert_eq!(got.value.map(f64::to_bits), want.map(f64::to_bits));
    assert!(got.served.sketch && got.served.raw_values == 0, "{got:?}");
    g.throughput(Throughput::Elements(1));
    g.bench_function("remote_query_p99", |b| {
        b.iter(|| {
            black_box(
                client
                    .window_agg(
                        "node0000.metric",
                        black_box(now),
                        day,
                        WindowAgg::Percentile(0.99),
                    )
                    .unwrap(),
            )
        });
    });
    drop(client);
    drop(listener.shutdown());
    let _ = std::fs::remove_dir_all(&tmp);
    g.finish();
}

/// The Gorilla chunk codec on one seal-threshold block of this file's
/// smooth 1 Hz shape (ns per 512 samples): `compress` is what every
/// node seal pays (restart table included), `decode` what a read of a
/// whole chunk and every per-sample fallback pays, `seek_last60` what a
/// read of a sealed chunk's last 60 samples pays — resumed from the
/// restart point before them, not walked from the first sample —
/// `seek_last60_adopted` the same read off the chunk a fleet ring links
/// from the wire or a snapshot (its table is the one `validate` took),
/// `validate` what the fleet pays to link a shipped chunk without
/// materialising it, restart table included. The bench gate pins `decode / validate >= 0.75` in
/// the same run: checking a payload must never become materially dearer
/// than decoding it. `retained_skip256` is what a snapshot pays to write
/// a front chunk evicted halfway (`write_retained`: decode to the
/// eviction point, re-code until the streams resync, copy the rest);
/// `recompress_skip256` makes the same bytes the plain way — decode the
/// retained half, `compress` it — and the gate pins it at `>= 2x` the
/// splice.
fn bench_chunk_codec(c: &mut Criterion) {
    use moda_telemetry::chunk;
    const N: u64 = 512;
    let ts: Vec<u64> = (0..N).map(|s| s * 1000).collect();
    let vals: Vec<f64> = (0..N)
        .map(|s| 200.0 + ((s * 2_654_435_761) % 50) as f64)
        .collect();
    let sealed = chunk::compress(&ts, &vals, 0);
    let mut g = c.benchmark_group("chunk_codec");
    g.throughput(Throughput::Elements(N));
    g.bench_function("compress/512", |b| {
        b.iter(|| black_box(chunk::compress(black_box(&ts), black_box(&vals), 0)));
    });
    g.bench_function("decode/512", |b| {
        let (mut out_ts, mut out_vals) = (Vec::new(), Vec::new());
        b.iter(|| {
            out_ts.clear();
            out_vals.clear();
            chunk::decode_exact(
                sealed.first_t(),
                sealed.count(),
                black_box(sealed.bytes()),
                &mut out_ts,
                &mut out_vals,
            )
            .unwrap();
            black_box(out_vals.len())
        });
    });
    let last60 = |c: &chunk::Chunk| {
        let first = c.start_append() + N - 60;
        let mut sum = 0.0;
        c.scan_from(
            |append, _| append < first,
            |append, _, v| {
                if append >= first {
                    sum += v;
                }
                true
            },
        );
        sum
    };
    g.bench_function("seek_last60/512", |b| {
        b.iter(|| black_box(last60(black_box(&sealed))));
    });
    let mut fed = moda_telemetry::TimeSeries::new(N as usize);
    let block = chunk::validate(sealed.first_t(), sealed.count(), sealed.bytes()).unwrap();
    assert!(fed.adopt_chunk(&block));
    let adopted = fed.sealed_chunks().next().expect("an adopted chunk");
    assert_eq!(last60(adopted), last60(&sealed));
    g.bench_function("seek_last60_adopted/512", |b| {
        b.iter(|| black_box(last60(black_box(adopted))));
    });
    g.bench_function("validate/512", |b| {
        b.iter(|| {
            let v = chunk::validate(sealed.first_t(), sealed.count(), black_box(sealed.bytes()));
            black_box(v.unwrap().last_t)
        });
    });
    // Retention evicts through the ring: 1.5 chunks' worth of it over
    // two chunks' worth of samples leaves the first chunk half gone.
    let mut ring = moda_telemetry::TimeSeries::new(3 * N as usize / 2);
    for s in 0..2 * N {
        ring.push(SimTime(s * 1000), vals[(s % N) as usize]);
    }
    let front = ring.sealed_chunks().next().expect("a sealed chunk");
    assert_eq!((front.count(), front.skip()), (N as u32, N as u32 / 2));
    g.bench_function("retained_skip256/512", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            black_box(black_box(front).write_retained(&mut out));
            black_box(out.len())
        });
    });
    g.bench_function("recompress_skip256/512", |b| {
        let (mut out_ts, mut out_vals) = (Vec::new(), Vec::new());
        b.iter(|| {
            out_ts.clear();
            out_vals.clear();
            black_box(front).decode_into(&mut out_ts, &mut out_vals);
            black_box(chunk::compress(&out_ts, &out_vals, 0))
        });
    });
    g.finish();
}

/// Frame checksum throughput (bytes/s) at the sizes the wire carries:
/// an ack-sized frame, one 64-sample batch, and a chunk-heavy backfill
/// or snapshot payload. Every batch byte is checksummed once per hop
/// (socket write, socket read, WAL append, recovery).
fn bench_wire_crc32(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_crc32");
    for len in [64usize, 1600, 65536] {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_with_input(BenchmarkId::from_parameter(len), &bytes, |b, bytes| {
            b.iter(|| black_box(moda_telemetry::wire::crc32(black_box(bytes))));
        });
    }
    g.finish();
}

/// Self-telemetry costs: what instrumenting the pipeline with its own
/// TSDB charges the hot path. Four numbers:
///
/// * `span_record` — one RAII span open→drop on an enabled recorder
///   (two clock reads, three relaxed atomics, a short mutex hold, the
///   floor-gated slow-log offer);
/// * `span_disabled` — the same call sites on a disabled [`Obs`]
///   handle: the near-zero branch the zero-overhead claim rests on;
/// * `scrape_1k` — scraping a registry of 1 000 internal series into a
///   private store (the self-scrape cadence cost);
/// * `insert_uninstrumented/4096` vs `insert_instrumented/4096` — the
///   collector's batch-insert hot path bare, and wrapped the way a
///   threaded runtime wraps it (one span + one counter per batch). The `BENCH_tsdb.json` ratio between the two is pinned
///   ≤ `bench_gate`'s `MAX_SELFOBS_OVERHEAD` (1.10) by the CI
///   bench gate — instrumentation over 10 % would fail the build.
fn bench_selfobs(c: &mut Criterion) {
    use moda_obs::Obs;
    let mut g = c.benchmark_group("tsdb_selfobs");

    let obs = Obs::enabled();
    let lat = obs.latency("bench.op_ns");
    g.bench_function("span_record", |b| {
        b.iter(|| {
            let span = lat.start();
            black_box(&span);
        });
    });
    let off = Obs::disabled();
    let lat_off = off.latency("bench.op_ns");
    g.bench_function("span_disabled", |b| {
        b.iter(|| {
            let span = lat_off.start();
            black_box(&span);
        });
    });

    // Scrape cost at 1k internal series (counters re-emit a cumulative
    // sample each tick; the target ring keeps the store bounded).
    let obs1k = Obs::enabled();
    for i in 0..1_000u64 {
        obs1k.counter(&format!("bench.c{i:04}")).add(i);
    }
    let mut db = Tsdb::with_retention(512);
    let mut t = 0u64;
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("scrape_1k", |b| {
        b.iter(|| {
            t += 1_000;
            black_box(obs1k.scrape_into(&mut db, SimTime(t)))
        });
    });

    // The overhead pair: identical batch-insert workloads, one bare,
    // one instrumented at the runtime's granularity.
    g.throughput(Throughput::Elements(4096));
    g.bench_function("insert_uninstrumented/4096", |b| {
        let (mut db, ids) = registered(4096, 512);
        let batch: Vec<_> = ids.iter().map(|id| (*id, 1.0f64)).collect();
        let mut t = 0u64;
        b.iter(|| {
            t += 1_000;
            db.insert_batch(SimTime(t), black_box(&batch));
        });
    });
    g.bench_function("insert_instrumented/4096", |b| {
        let (mut db, ids) = registered(4096, 512);
        let batch: Vec<_> = ids.iter().map(|id| (*id, 1.0f64)).collect();
        let obs = Obs::enabled();
        let insert_ns = obs.latency("tsdb.insert_ns");
        let inserts = obs.counter("bench.inserts");
        let mut t = 0u64;
        b.iter(|| {
            t += 1_000;
            let _span = insert_ns.start();
            db.insert_batch(SimTime(t), black_box(&batch));
            inserts.add(4096);
        });
    });
    g.finish();
}

/// Percentile aggregation by O(n) selection.
fn bench_percentile(c: &mut Criterion) {
    let mut g = c.benchmark_group("tsdb_percentile");
    let (mut db, ids) = registered(1, 4096);
    let mut now = SimTime::ZERO;
    for s in 0..7200u64 {
        now = SimTime::from_secs(s);
        db.insert(ids[0], now, ((s * 2_654_435_761) % 10_000) as f64);
    }
    g.bench_function("select_agg_p99", |b| {
        b.iter(|| {
            black_box(db.window_agg(
                ids[0],
                now,
                SimDuration::from_secs(3600),
                WindowAgg::Percentile(0.99),
            ))
        });
    });
    g.finish();
}

/// Downsampling to Knowledge-layer resolution (§IV: "storage
/// architecture decisions will then increasingly consider metadata
/// representations for models" — resampling is the raw→model boundary).
fn bench_resample(c: &mut Criterion) {
    let (mut db, ids) = registered(1, 8192);
    let mut now = SimTime::ZERO;
    for s in 0..7200u64 {
        now = SimTime::from_secs(s);
        db.insert(ids[0], now, (s % 97) as f64);
    }
    c.bench_function("tsdb_resample_2h_to_1m_mean", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            db.resample_into(
                ids[0],
                SimTime::ZERO,
                black_box(now),
                SimDuration::from_secs(60),
                WindowAgg::Mean,
                &mut out,
            );
            out
        });
    });
}

criterion_group!(
    benches,
    bench_insert,
    bench_insert_batch,
    bench_window_query,
    bench_window_wide,
    bench_percentile,
    bench_percentile_wide,
    bench_resample,
    bench_selfobs,
    bench_export,
    bench_fleet,
    bench_chunk_codec,
    bench_wire_crc32,
    bench_wire_batch
);
criterion_main!(benches);
