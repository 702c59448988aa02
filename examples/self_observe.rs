//! Self-telemetry walkthrough: the pipeline monitored by its own TSDB.
//!
//! The observability tier (`moda::obs`) instruments the fleet service
//! with the same storage it serves: an enabled [`Obs`] registry records
//! RAII spans and counters on every hot stage (WAL fsyncs, ingest
//! sessions, export drains, query serves), and a [`SelfScraper`] ships
//! that registry into the fleet's reserved `__self/` namespace through
//! the **stock** export pipeline — wire v1.3 batches, rollup planner,
//! sketch merges, durability, remote serving, zero new wire kinds for
//! the p99 path.
//!
//! The walkthrough runs the full loop:
//!
//! 1. open a durable fleet and attach self-telemetry,
//! 2. ingest a node's exporter stream (WAL + ingest spans record),
//! 3. serve operator queries over TCP (query-serve spans record),
//! 4. scrape the registry into `__self/` axes,
//! 5. query the service's own p99s **remotely** and assert each answer
//!    is bit-identical to the in-process planner,
//! 6. drain the bounded slow-op log over the wire (`selfstat`).
//!
//! Run with: `cargo run --release --example self_observe`

use moda::fleet::{DurabilityConfig, DurableFleet, FleetClient, FleetListener, SelfScraper};
use moda::obs::Obs;
use moda::sim::{SimDuration, SimTime};
use moda::telemetry::export::MemorySink;
use moda::telemetry::{Exporter, MetricMeta, RollupConfig, SourceDomain, Tsdb, WindowAgg};
use std::sync::{Arc, Mutex};

const TOKEN: &str = "self-observe";

fn main() {
    let dir = std::env::temp_dir().join(format!("moda_self_observe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. A durable fleet with self-telemetry attached: the registry
    //    starts recording WAL, ingest, and query-serve instruments.
    let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
    let obs = Obs::enabled();
    let mut scraper = SelfScraper::attach(&mut fleet, obs.clone()).unwrap();
    println!(
        "fleet open under {}; self-telemetry attached",
        dir.display()
    );

    // 2. Node-side load: ten minutes of 1 Hz power telemetry drained
    //    through the stock exporter and ingested — every batch ack
    //    costs a WAL append + fsync, and each one is now a span.
    let mut db = Tsdb::new();
    let id = db.register(MetricMeta::gauge(
        "node00.power",
        "W",
        SourceDomain::Hardware,
    ));
    db.enable_rollups(id, &RollupConfig::standard().with_sketches());
    for s in 0..600u64 {
        db.insert(id, SimTime::from_secs(s), 200.0 + (s % 50) as f64);
    }
    let mut sink = MemorySink::new();
    Exporter::new().drain(&db, &mut sink).unwrap();
    let node = fleet.add_node("node00").unwrap();
    for batch in &sink.batches {
        fleet.ingest(node, batch).unwrap();
    }
    println!(
        "ingested {} wire batches from node00 (each acked through the WAL)",
        sink.batches.len()
    );
    scraper.tick(&mut fleet, SimTime::from_secs(600)).unwrap();

    // 3. Serve it. Sixteen dashboard queries for the node p99 — each
    //    round-trip records a `query.serve_ns` span on the registry.
    let shared = Arc::new(Mutex::new(fleet));
    let listener = FleetListener::bind("127.0.0.1:0", Arc::clone(&shared), TOKEN).unwrap();
    let mut client = FleetClient::connect(&listener.local_addr().to_string(), TOKEN).unwrap();
    for _ in 0..16 {
        client
            .window_agg(
                "node00.power",
                SimTime::from_secs(600),
                SimDuration::from_secs(600),
                WindowAgg::Percentile(0.99),
            )
            .unwrap();
    }

    // 4. Scrape again: the serve spans (and the WAL cost of shipping
    //    the *previous* scrape — the loop observes itself) land in the
    //    `__self/` axes as ordinary fleet series.
    let t = SimTime::from_secs(610);
    {
        let mut f = shared.lock().unwrap();
        scraper.tick(&mut f, t).unwrap();
    }

    // 5. The service's own latencies, queried remotely like any fleet
    //    metric — and bit-identical to the in-process planner.
    println!("\nself-telemetry p99s over the remote query wire:");
    let window = SimDuration::from_secs(3600);
    for axis in [
        "__self/wal.fsync_ns",
        "__self/export.drain_ns",
        "__self/query.serve_ns",
        "__self/fleet.ingest_ns",
    ] {
        let got = client
            .window_agg(axis, t, window, WindowAgg::Percentile(0.99))
            .unwrap();
        let want = {
            let f = shared.lock().unwrap();
            f.store()
                .fleet_window_agg(axis, t, window, WindowAgg::Percentile(0.99))
        };
        assert_eq!(
            got.value.map(f64::to_bits),
            want.map(f64::to_bits),
            "{axis}: remote != in-process"
        );
        let p99 = got.value.expect("self axis has samples");
        println!("  {axis:<28} p99 = {:>9.0} ns  (remote == in-process)", p99);
    }

    // 6. The bounded slow-op log, drained over the wire: the k slowest
    //    internal spans since the last drain, slowest first.
    let stat = client.selfstat(8, true).unwrap();
    assert!(!stat.ops.is_empty(), "serving queries recorded spans");
    println!("\nslowest internal spans (selfstat, drained):");
    for (i, op) in stat.ops.iter().enumerate() {
        println!(
            "  #{i} {:<24} {:>9} ns  depth={} seq={}",
            op.name, op.duration_ns, op.depth, op.seq
        );
    }

    drop(client);
    drop(listener.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
    println!("\nself-telemetry loop verified: spans -> scrape -> rollups -> wire, bit-identical.");
}
