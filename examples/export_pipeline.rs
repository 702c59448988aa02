//! Export pipeline walkthrough: incremental batched dataset release.
//!
//! Feeds a week of 1 Hz node-power telemetry into a sketched rollup
//! store whose raw ring retains only one day, then runs the
//! Knowledge-layer transport stage the paper's §III.iii open-dataset
//! commitment needs: an `Exporter` with persistent watermark cursors
//! drains the store **incrementally** (here: once per simulated day),
//! shipping raw samples, sealed 1m/1h rollup buckets, and sparse
//! quantile-sketch columns as size-bounded batches. The batches land in
//! a CSV dataset file (`target/moda_export_dataset.csv`, the release
//! artifact CI uploads) and are replayed into a downstream store to
//! show the round trip: the full week's hourly profile and week-wide
//! p99 are reconstructed downstream even though the node's raw ring
//! only ever held one day.
//!
//! Run with: `cargo run --release --example export_pipeline`

use moda::sim::{SimDuration, SimTime};
use moda::telemetry::export::{CsvSink, Exporter, MemorySink, Sink};
use moda::telemetry::rollup::{RES_1H, RES_1M};
use moda::telemetry::{MetricMeta, ReplayStore, RollupConfig, SourceDomain, Tsdb, WindowAgg};
use std::time::Instant;

const DAY_S: u64 = 86_400;
const WEEK_S: u64 = 7 * DAY_S;

fn main() {
    // One day of raw retention; the pyramid keeps the long horizon.
    let mut db = Tsdb::with_retention(DAY_S as usize);
    let id = db.register(MetricMeta::gauge(
        "node.0.power_w",
        "W",
        SourceDomain::Hardware,
    ));
    db.enable_rollups(id, &RollupConfig::standard().with_sketches());

    let mut exporter = Exporter::new();
    let mut staged = MemorySink::new();

    println!("inserting one week of 1 Hz power samples, draining once per day ...");
    let t0 = Instant::now();
    for s in 0..WEEK_S {
        let v =
            200.0 + (s % DAY_S) as f64 / DAY_S as f64 * 150.0 + ((s * 2_654_435_761) % 50) as f64;
        db.insert(id, SimTime::from_secs(s), v);
        // The daily transport tick: ship the delta since yesterday.
        if (s + 1) % DAY_S == 0 {
            let day = (s + 1) / DAY_S;
            let stats = exporter.drain(&db, &mut staged).expect("memory sink");
            println!(
                "  day {day}: {:>6} samples, {:>4} sealed buckets, {:>6} sketch columns \
                 in {} batches (missed {}, longest copy-out span between sink writes {} µs)",
                stats.samples,
                stats.buckets,
                stats.sketch_entries,
                stats.batches,
                stats.missed_samples,
                stats.max_lock_held_ns / 1_000,
            );
        }
    }
    let totals = exporter.totals();
    println!(
        "fed + drained in {:.2?}; stream totals: {} records in {} batches\n",
        t0.elapsed(),
        totals.records,
        totals.batches
    );

    // Render the staged batches to the release artifact (same bytes a
    // direct CsvSink drain would have produced).
    let path = "target/moda_export_dataset.csv";
    std::fs::create_dir_all("target").expect("create target/");
    let file = std::fs::File::create(path).expect("create dataset file");
    let mut csv = CsvSink::new(std::io::BufWriter::new(file));
    for batch in &staged.batches {
        csv.write_batch(batch).expect("write dataset");
    }
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!("dataset written: {path} ({} KiB)", bytes / 1024);

    // ---- Downstream: replay the stream into a Knowledge store. ----
    let mut replay = ReplayStore::new();
    for batch in &staged.batches {
        replay.apply(batch);
    }
    let rid = replay.lookup("node.0.power_w").expect("meta replayed");
    println!(
        "\nreplayed downstream: {} raw samples, {} sealed 1m buckets, {} sealed 1h buckets",
        replay.samples(rid).len(),
        replay.buckets(rid, RES_1M).count(),
        replay.buckets(rid, RES_1H).count(),
    );

    // The node's raw ring holds one day — but the replayed hour buckets
    // cover the whole week.
    let hourly: Vec<f64> = replay.buckets(rid, RES_1H).map(|b| b.max).collect();
    println!(
        "  hourly max profile downstream: {} buckets (node raw ring: {} samples)",
        hourly.len(),
        db.series(id).len()
    );

    // Week-wide p99 downstream from merged sketch columns vs the
    // store's own sketch-served answer (both within the documented 1 %
    // bound of the true order statistic).
    let merged = replay.merged_sketch(rid, RES_1H);
    let p99_downstream = merged.quantile(0.99);
    let p99_store = db
        .window_agg(
            id,
            SimTime::from_secs(WEEK_S - 1),
            SimDuration::from_secs(WEEK_S),
            WindowAgg::Percentile(0.99),
        )
        .unwrap();
    let rel = (p99_downstream - p99_store).abs() / p99_store.abs();
    println!(
        "  week-wide p99: downstream merge {:.2} W vs store {:.2} W ({:.3} % apart)",
        p99_downstream,
        p99_store,
        rel * 100.0
    );
    assert!(
        rel < 0.025,
        "downstream and node-side p99 must agree within the sketch bounds"
    );
    println!("\nexport → transport → replay round trip complete.");
}
