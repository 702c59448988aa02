//! Serving-tier walkthrough: the read-only query protocol over a live
//! fleet service.
//!
//! Three node exporters ship `export-wire-v1.6` batches over real TCP
//! into a served `DurableFleet`, and a dashboard-side [`FleetClient`]
//! dials the **same listener** on a second connection — the query
//! session rides the identical length-prefixed CRC frame envelope,
//! authenticated by the same token, but registers no node (a dashboard
//! can never look like a silent node). The walkthrough then runs the
//! queries an operator actually runs — window aggregates, the merged
//! fleet p99, top-k hot spots, health, a coverage-annotated degraded
//! read — and asserts each remote answer is **bit-identical**
//! (`f64::to_bits`, full metadata) to the in-process planner's answer
//! on the served store, plus the typed-refusal path (a fleet-wide
//! `Last` draws `UnsupportedAggregate`, not a dead session).
//!
//! The protocol itself — tags 6–9, request/response layouts, error
//! codes, versioning — is specified in `docs/FLEET_SERVICE.md`; the
//! conformance and equivalence suite lives in
//! `crates/fleet/tests/query.rs`.
//!
//! Run with: `cargo run --release --example fleet_query`

use moda::fleet::{
    DurabilityConfig, DurableFleet, FleetClient, FleetListener, QueryErrorCode, QueryRequest,
    QueryResponse, Rank, SocketSink,
};
use moda::sim::{SimDuration, SimTime};
use moda::telemetry::export::{MemorySink, Sink};
use moda::telemetry::{Exporter, MetricMeta, RollupConfig, SourceDomain, Tsdb, WindowAgg};
use std::sync::{Arc, Mutex};

const NODES: usize = 3;
const SAMPLES: u64 = 3600;
const TOKEN: &str = "example-query-token";

fn main() {
    let dir = std::env::temp_dir().join(format!("moda_example_query_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Serve an empty durable fleet...
    let fleet = DurableFleet::open(&dir, DurabilityConfig::default()).expect("open fleet dir");
    let listener =
        FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), TOKEN).expect("bind");
    let addr = listener.local_addr().to_string();
    println!("fleet service listening on {addr}");

    // ...and ship three nodes' days into it over the wire.
    for node in 0..NODES {
        let mut db = Tsdb::with_retention(1 << 12);
        let id = db.register(MetricMeta::gauge("power_w", "W", SourceDomain::Hardware));
        db.enable_rollups(id, &RollupConfig::standard().with_sketches());
        for s in 0..SAMPLES {
            let v = 200.0 + 10.0 * node as f64 + ((s * 31 + node as u64 * 7) % 97) as f64;
            db.insert(id, SimTime::from_secs(1 + s), v);
        }
        let mut wire = MemorySink::new();
        Exporter::new().drain(&db, &mut wire).expect("drain");
        let mut sink =
            SocketSink::connect(&addr, &format!("node{node:02}"), TOKEN).expect("connect");
        for batch in &wire.batches {
            sink.write_batch(batch).expect("ship batch");
        }
        sink.wait_idle().expect("all acked");
        println!(
            "node{node:02}: {} batches shipped and acked",
            wire.batches.len()
        );
    }

    // Dashboard side: a typed client on its own query session.
    let mut client = FleetClient::connect(&addr, TOKEN).expect("query session");
    println!(
        "query session authenticated (protocol v{})",
        client.server_version()
    );
    let now = SimTime::from_secs(SAMPLES);
    let hour = SimDuration::from_hours(1);
    let stale_after = SimDuration::from_secs(120);

    // Every remote answer must be bit-identical to the in-process
    // planner on the served store.
    let served_fleet = listener.fleet();

    // The merged fleet p99 on a window ending at the newest *sealed*
    // minute: sketch-served, zero raw reads, same bits.
    let sealed_now = SimTime(SAMPLES * 1000 - 60_000 - 1);
    let sealed_window = SimDuration(sealed_now.0 + 1 - 1_800_000);
    let p99 = client
        .window_agg(
            "power_w",
            sealed_now,
            sealed_window,
            WindowAgg::Percentile(0.99),
        )
        .expect("remote p99");
    assert!(p99.served.sketch && p99.served.raw_values == 0, "{p99:?}");
    {
        let fleet = served_fleet.lock().unwrap();
        let (want, want_served) = fleet.store().fleet_window_agg_served(
            "power_w",
            sealed_now,
            sealed_window,
            WindowAgg::Percentile(0.99),
        );
        assert_eq!(p99.value.map(f64::to_bits), want.map(f64::to_bits));
        assert_eq!(p99.served, want_served);
    }
    println!(
        "fleet p99(power_w, 30m sealed) = {:.2} W — merged from {} sealed buckets, 0 raw reads",
        p99.value.unwrap(),
        p99.served.buckets
    );

    // Top-k hot spots, ranked per node.
    let top = client
        .top_nodes("power_w", now, hour, WindowAgg::Mean, 2, Rank::Highest)
        .expect("remote top-k");
    {
        let fleet = served_fleet.lock().unwrap();
        let want = fleet
            .store()
            .top_nodes("power_w", now, hour, WindowAgg::Mean, 2, Rank::Highest);
        assert_eq!(top.len(), want.len());
        for (got, (node, value)) in top.iter().zip(&want) {
            assert_eq!(got.node, *node);
            assert_eq!(got.value.to_bits(), value.to_bits());
        }
    }
    for (i, e) in top.iter().enumerate() {
        println!("hot spot #{i}: {} at {:.2} W mean", e.name, e.value);
    }

    // Health: every node live, and the query session is *not* a node.
    let health = client.health(now, stale_after).expect("remote health");
    {
        let fleet = served_fleet.lock().unwrap();
        let want = fleet.aggregator().health(now, stale_after);
        assert_eq!(health, want);
    }
    assert_eq!(health.live, NODES, "query sessions never register");
    println!(
        "health: {} live / {} stale / {} silent",
        health.live, health.stale, health.silent
    );

    // A coverage-annotated read says what the answer represents.
    let covered = client
        .covered_window_agg("power_w", now, hour, WindowAgg::Sum, stale_after)
        .expect("remote covered sum");
    assert_eq!(covered.coverage.contributing, NODES);
    println!(
        "covered sum: {:.0} W·s over {}/{} nodes",
        covered.value.unwrap(),
        covered.coverage.contributing,
        covered.coverage.total
    );

    // Invalid requests draw typed refusals, not dead sessions.
    let refusal = client
        .request(&QueryRequest::WindowAgg {
            metric: "power_w".to_string(),
            now,
            window: hour,
            agg: WindowAgg::Last,
        })
        .expect("refusals are responses");
    match refusal {
        QueryResponse::Error(e) => {
            assert_eq!(e.code, QueryErrorCode::UnsupportedAggregate);
            println!("fleet-wide Last refused as documented: {e}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    // ...and the session is still serving.
    let axes = client.metrics().expect("session survived the refusal");
    assert_eq!(axes.axes, vec![("power_w".to_string(), NODES as u32)]);
    println!("discovery: {:?}", axes.axes);

    drop(client);
    drop(listener.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
    println!("every remote answer bit-identical to the in-process planner — done");
}
