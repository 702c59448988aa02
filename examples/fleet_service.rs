//! Durable fleet service walkthrough: socket-framed wire ingest,
//! `kill -9`-style restart, and resume from the persisted cursor.
//!
//! Four node exporters ship `export-wire-v1.6` batches over real TCP
//! (`SocketSink` → `FleetListener`) into a `DurableFleet` — the
//! aggregation tier wrapped in write-ahead-log + snapshot durability.
//! Mid-stream the service goes down the hard way: the listener stops
//! and the in-memory fleet is **dropped on the floor**, no clean
//! shutdown, exactly what a `SIGKILL` leaves behind. A fresh service
//! then recovers off the state directory and the same sinks redirect
//! to its new address, where the session handshake tells each node the
//! server's persisted cursor — so they resume where the crash left
//! off instead of replaying from `seq 0`.
//!
//! The walkthrough asserts the three properties the durable tier is
//! for (see `docs/FLEET_SERVICE.md`):
//!
//! * **nothing acknowledged is lost** — every query after recovery is
//!   bit-identical to an uninterrupted in-process run;
//! * **nothing is double-counted** — zero duplicate batches past the
//!   session guard, drain totals overwrite idempotently;
//! * **no seq-0 replay** — each sink resumes at the server's persisted
//!   cursor, shipping only what the crash swallowed.
//!
//! Run with: `cargo run --release --example fleet_service`

use moda::fleet::{
    DurabilityConfig, DurableFleet, FleetAggregator, FleetListener, NodeId, SocketSink,
};
use moda::sim::{SimDuration, SimTime};
use moda::telemetry::export::{ExportBatch, MemorySink, Sink};
use moda::telemetry::{
    DrainStats, Exporter, MetricMeta, RollupConfig, SourceDomain, Tsdb, WindowAgg,
};
use std::sync::{Arc, Mutex};

const NODES: usize = 4;
const SAMPLES: u64 = 3600;
const TOKEN: &str = "example-fleet-token";

/// One node's wire stream off a real sketched store: sealed buckets,
/// sketch columns, and the raw tail, batched the way the exporter
/// ships them — plus the drain totals the node reports out-of-band.
fn node_stream(node: usize) -> (Vec<ExportBatch>, DrainStats) {
    let mut db = Tsdb::with_retention(1 << 12);
    let id = db.register(MetricMeta::gauge("power_w", "W", SourceDomain::Hardware));
    db.enable_rollups(id, &RollupConfig::standard().with_sketches());
    for s in 0..SAMPLES {
        let v = 200.0 + 10.0 * node as f64 + ((s * 31 + node as u64 * 7) % 97) as f64;
        db.insert(id, SimTime::from_secs(1 + s), v);
    }
    let mut sink = MemorySink::new();
    let mut exporter = Exporter::new().with_batch_records(128);
    exporter.drain(&db, &mut sink).expect("memory sink");
    (sink.batches, exporter.totals())
}

/// The queries an operator actually runs, as comparable data.
fn fingerprint(agg: &FleetAggregator, now: SimTime) -> Vec<String> {
    let span = SimDuration(now.0);
    let store = agg.store();
    let mut out = Vec::new();
    for kind in [
        WindowAgg::Count,
        WindowAgg::Mean,
        WindowAgg::Percentile(0.99),
    ] {
        out.push(format!(
            "{kind:?}={:?}",
            store
                .fleet_window_agg("power_w", now, span, kind)
                .map(f64::to_bits)
        ));
    }
    out.push(scrub_retries(format!(
        "health={:?}",
        agg.health(now, SimDuration::from_secs(300))
    )));
    out
}

/// Zero out `send_retries` in a rendered health record: the counter
/// measures transport-level reconnect work, which the interrupted run
/// legitimately accrues — it is not part of the converged-state
/// contract this walkthrough pins.
fn scrub_retries(s: String) -> String {
    const KEY: &str = "send_retries: ";
    let mut out = String::with_capacity(s.len());
    let mut rest = s.as_str();
    while let Some(i) = rest.find(KEY) {
        let (head, tail) = rest.split_at(i + KEY.len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

fn main() {
    let dir = std::env::temp_dir().join(format!("moda_fleet_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let streams: Vec<(Vec<ExportBatch>, DrainStats)> = (0..NODES).map(node_stream).collect();
    // Batch counts differ per node: chunk compression depends on the
    // values, so the 128-record batching splits differently.
    let split: Vec<usize> = streams.iter().map(|(b, _)| b.len() / 2).collect();
    let now = SimTime::from_secs(SAMPLES + 1);

    // Uninterrupted in-process reference: what the fleet must equal
    // after the crash + recovery + resume dance.
    let mut reference = FleetAggregator::new();
    for (k, (batches, totals)) in streams.iter().enumerate() {
        let node = reference.add_node(&format!("node{k:02}"));
        for batch in batches {
            reference.ingest(node, batch);
        }
        reference.report_drain(node, totals);
    }
    let want = fingerprint(&reference, now);

    // ---- phase 1: serve, connect, ship the first half ----------------
    // Aggressive snapshot cadence so the walkthrough exercises log
    // rotation; production default is 1024.
    let fleet = DurableFleet::open(
        &dir,
        DurabilityConfig {
            snapshot_every_batches: 8,
        },
    )
    .expect("open state dir");
    let listener =
        FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), TOKEN).expect("bind");
    let addr = listener.local_addr().to_string();
    println!("fleet service up on {addr}, state in {}", dir.display());

    let mut sinks: Vec<SocketSink> = (0..NODES)
        .map(|k| SocketSink::connect(&addr, &format!("node{k:02}"), TOKEN).expect("connect"))
        .collect();
    for (k, sink) in sinks.iter_mut().enumerate() {
        for batch in &streams[k].0[..split[k]] {
            sink.write_batch(batch).expect("ship batch");
        }
        // Durability barrier: an ack is only sent after the batch hit
        // the write-ahead log, so everything below the split now
        // survives any kill.
        sink.wait_idle().expect("acks");
    }
    println!("shipped the first half of every node's stream, all acked (= logged)");

    // ---- phase 2: the crash ------------------------------------------
    // Stop the listener and drop the in-memory fleet without any
    // farewell snapshot — the moral equivalent of `kill -9`. All that
    // survives is the state directory.
    drop(listener.shutdown());
    println!("service killed mid-stream (in-memory state discarded)");

    // ---- phase 3: recover + resume -----------------------------------
    let fleet = DurableFleet::recover(&dir).expect("recover");
    let r = *fleet.recovery();
    println!(
        "recovered epoch {}: {} nodes + {} metrics from the snapshot, \
         {} log batches replayed ({} duplicates bounced, {} torn bytes truncated)",
        r.epoch,
        r.snapshot_nodes,
        r.snapshot_metrics,
        r.replayed_batches,
        r.replayed_duplicates,
        r.torn_tail_bytes,
    );

    let listener2 =
        FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), TOKEN).expect("rebind");
    let addr2 = listener2.local_addr().to_string();
    for (k, sink) in sinks.iter_mut().enumerate() {
        sink.redirect(&addr2);
        for batch in &streams[k].0[split[k]..] {
            sink.write_batch(batch).expect("ship batch");
        }
        sink.send_drain(&streams[k].1).expect("drain totals");
        sink.wait_idle().expect("acks");
        println!(
            "node{k:02}: resumed at seq {} (not 0), {} re-dial(s), {} batch(es) re-sent",
            sink.last_resume_seq(),
            sink.reconnects(),
            sink.resent_batches(),
        );
        assert!(sink.last_resume_seq() >= split[k] as u64, "no seq-0 replay");
    }

    // ---- phase 4: the operator's view --------------------------------
    let fleet = listener2.shutdown();
    let fleet = fleet.lock().unwrap();
    for (k, (batches, _)) in streams.iter().enumerate() {
        let c = fleet.aggregator().counters(NodeId(k as u32));
        assert_eq!(c.batches, batches.len() as u64, "node{k:02}: {c:?}");
        assert_eq!(c.duplicate_batches, 0, "node{k:02}: {c:?}");
    }
    let got = fingerprint(fleet.aggregator(), now);
    assert_eq!(
        got, want,
        "queries must be bit-identical to the uninterrupted run"
    );
    let p99 = fleet
        .store()
        .fleet_window_agg(
            "power_w",
            now,
            SimDuration(now.0),
            WindowAgg::Percentile(0.99),
        )
        .expect("fleet p99");
    println!(
        "\nafter crash + recovery: fleet-wide p99 power {p99:.1} W over {} nodes — \
         bit-identical to the uninterrupted run, zero duplicates, zero seq-0 replay",
        NODES
    );

    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
}
