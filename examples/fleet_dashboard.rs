//! Fleet dashboard walkthrough: a 16-node cluster answering week-wide
//! holistic queries from the aggregation tier.
//!
//! Sixteen node-local stores (1 Hz power telemetry, sketched 1m/1h
//! rollups, raw retention of only ~68 minutes) export a full simulated
//! week as wire batches into one `FleetAggregator`.
//! The dashboard then answers the paper's fleet-scale ODA questions
//! **without any node keeping raw history**:
//!
//! * cluster-wide week p99 power, merged **additively from the nodes'
//!   sealed-bucket quantile sketches** — the query reads zero raw
//!   samples (asserted via the store's hit counters) and still lands
//!   within the documented 1 % relative-error bound of the exact
//!   pooled order statistic over all 9.6 M values (verified here
//!   against a ground-truth pool kept only for the comparison);
//! * per-node p99 ranking (hottest nodes) and laggards by mean power;
//! * fleet health: per-node batches/records, drain lag, staleness.
//!
//! The merged dataset lands in `target/moda_fleet_dataset.csv` (per
//! node×hour bucket rows plus fleet summary rows) — the artifact CI
//! uploads.
//!
//! Run with: `cargo run --release --example fleet_dashboard`

use moda::fleet::{FleetAggregator, Rank};
use moda::sim::{SimDuration, SimTime};
use moda::telemetry::export::{Exporter, MemorySink};
use moda::telemetry::rollup::RES_1H;
use moda::telemetry::wire::encode_batch;
use moda::telemetry::{MetricMeta, RollupConfig, SourceDomain, Tsdb, WindowAgg};
use std::io::Write as _;
use std::time::Instant;

const DAY_S: u64 = 86_400;
const WEEK_S: u64 = 7 * DAY_S;
const NODES: u32 = 16;

/// Deterministic per-node power profile: a diurnal ramp, a per-node
/// baseline, and hashed jitter.
fn power(node: u32, s: u64) -> f64 {
    200.0
        + 8.0 * node as f64
        + (s % DAY_S) as f64 / DAY_S as f64 * 150.0
        + ((s.wrapping_mul(2_654_435_761).wrapping_add(node as u64 * 97)) % 50) as f64
}

fn main() {
    let t0 = Instant::now();
    println!("feeding one week of 1 Hz power on {NODES} nodes, draining daily over the wire ...");

    let mut agg = FleetAggregator::new();
    // Ground truth for the agreement check only — the fleet itself
    // never sees this pool.
    let mut exact_pool: Vec<f64> = Vec::with_capacity((WEEK_S * NODES as u64) as usize);

    let mut wire_records = 0usize;
    let mut wire_bytes = 0usize;
    let mut encoded = Vec::new();
    for n in 0..NODES {
        // Node-local store: tiny raw ring, long-horizon sketched pyramid.
        let mut db = Tsdb::with_retention(4096);
        let id = db.register(MetricMeta::gauge("power_w", "W", SourceDomain::Hardware));
        db.enable_rollups(id, &RollupConfig::standard().with_sketches());
        let mut exporter = Exporter::new();
        let mut wire = MemorySink::new();
        for s in 0..WEEK_S {
            let v = power(n, s);
            db.insert(id, SimTime::from_secs(s), v);
            exact_pool.push(v);
            // Daily transport tick: ship the delta.
            if (s + 1) % DAY_S == 0 {
                exporter.drain(&db, &mut wire).expect("memory sink");
            }
        }
        exporter.drain(&db, &mut wire).expect("memory sink");
        wire_records += wire.record_count();

        // Aggregator side: one ingest session per node stream. The
        // bytes reported are the real stateless `export-wire-v1.2`
        // encoding of every batch — what a 1.2 socket would carry (a 1.3
        // connection and the fleet log code the sample runs as deltas).
        let node = agg.add_node(&format!("node{n:02}"));
        for batch in &wire.batches {
            encoded.clear();
            encode_batch(batch, &mut encoded);
            wire_bytes += encoded.len();
            agg.ingest(node, batch);
        }
        agg.report_drain(node, &exporter.totals());
    }
    println!(
        "  wire total: {wire_records} records, {:.1} MiB encoded, ingested in {:.1?}\n",
        wire_bytes as f64 / (1024.0 * 1024.0),
        t0.elapsed()
    );

    let store = agg.store();
    // Query window (lo, now]: ends 1 ms short of the newest *sealed*
    // minute and starts on an hour boundary, so the whole span is
    // covered by sealed 1h + 1m wire buckets — the zero-raw-read shape.
    let now = SimTime(WEEK_S * 1000 - 60_000 - 1);
    let week = SimDuration(now.0 + 1 - 3_600_000);

    // ---- the tentpole query: fleet-wide week p99, sketches only ----
    let q0 = Instant::now();
    let (p99, served) =
        store.fleet_window_agg_served("power_w", now, week, WindowAgg::Percentile(0.99));
    let q_elapsed = q0.elapsed();
    let p99 = p99.expect("fleet has a week of data");
    assert!(served.sketch, "must be sketch-served: {served:?}");
    assert_eq!(
        served.raw_values, 0,
        "fleet p99 must read zero raw samples: {served:?}"
    );
    assert_eq!(store.stats().raw_values_read, 0);

    // Exact pooled reference over the same (hour-aligned) window.
    let lo_ms = now.0 - week.0 + 1;
    let mut exact: Vec<f64> = Vec::with_capacity(exact_pool.len());
    for (i, &v) in exact_pool.iter().enumerate() {
        let s = i as u64 % WEEK_S; // node-major layout
        let t_ms = s * 1000;
        if t_ms >= lo_ms && t_ms <= now.0 {
            exact.push(v);
        }
    }
    let rank = ((0.99 * (exact.len() as f64 - 1.0)).round()) as usize;
    let (_, exact_p99, _) = exact.select_nth_unstable_by(rank, |a, b| a.partial_cmp(b).unwrap());
    let exact_p99 = *exact_p99;
    let rel_err = (p99 - exact_p99).abs() / exact_p99.abs();
    println!(
        "fleet-wide week p99 power ({} nodes, {} pooled values):",
        NODES,
        exact.len()
    );
    println!(
        "  merged sketches : {p99:.2} W in {q_elapsed:.1?} ({} sealed buckets, 0 raw reads)",
        served.buckets
    );
    println!("  exact pooled    : {exact_p99:.2} W (ground truth)");
    println!(
        "  relative error  : {:.3} % (bound: 1 %)\n",
        rel_err * 100.0
    );
    assert!(
        rel_err <= 0.01,
        "sketch p99 {p99} vs exact {exact_p99}: {rel_err}"
    );

    // ---- per-node ranking --------------------------------------------
    println!("hottest nodes by week p99 (sketch-served per node):");
    for (node, v) in store.top_nodes(
        "power_w",
        now,
        week,
        WindowAgg::Percentile(0.99),
        3,
        Rank::Highest,
    ) {
        println!("  {:<8} {v:.1} W", agg.node_name(node));
    }
    println!("laggards by week mean (lowest draw — idle or starved):");
    for (node, v) in store.top_nodes("power_w", now, week, WindowAgg::Mean, 3, Rank::Lowest) {
        println!("  {:<8} {v:.1} W", agg.node_name(node));
    }

    // ---- fleet health -------------------------------------------------
    let health = agg.health(now, SimDuration::from_hours(2));
    println!(
        "\nfleet health: {} live / {} stale / {} silent",
        health.live, health.stale, health.silent
    );
    let h0 = &health.nodes[0];
    println!(
        "  e.g. {}: {} batches, {} records, drain lag {:.0} s, node-side missed raw {} (expected: raw ring ≪ week)",
        h0.name,
        h0.counters.batches,
        h0.counters.records,
        h0.drain_lag.as_secs_f64(),
        h0.drain.missed_samples,
    );
    assert_eq!(health.live, NODES as usize);

    // ---- merged dataset artifact -------------------------------------
    let path = std::path::Path::new("target").join("moda_fleet_dataset.csv");
    std::fs::create_dir_all("target").expect("create target/");
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create dataset"));
    writeln!(
        f,
        "kind,node,metric,res_ms,start_ms,count,sum,min,max,p50,p99"
    )
    .unwrap();
    let mut rows = 0usize;
    for name in ["power_w"] {
        for &id in store.logical_members(name) {
            let info = store.info(id);
            for b in store.buckets(id, RES_1H) {
                let (p50, p99) = match &b.sketch {
                    Some(sk) => (sk.quantile(0.5), sk.quantile(0.99)),
                    None => (f64::NAN, f64::NAN),
                };
                writeln!(
                    f,
                    "bucket,{},{name},{},{},{},{},{},{},{p50},{p99}",
                    agg.node_name(info.node),
                    RES_1H.0,
                    b.start.0,
                    b.count,
                    b.sum,
                    b.min,
                    b.max,
                )
                .unwrap();
                rows += 1;
            }
        }
        // Fleet summary row: the merged week answer.
        writeln!(
            f,
            "fleet,*,{name},,,{},,,,{:.3},{p99:.3}",
            exact.len(),
            store
                .fleet_window_agg("power_w", now, week, WindowAgg::Percentile(0.5))
                .unwrap(),
        )
        .unwrap();
    }
    drop(f);
    println!(
        "\nmerged dataset: {} ({rows} hourly bucket rows + fleet summary), total wall {:.1?}",
        path.display(),
        t0.elapsed()
    );
}
