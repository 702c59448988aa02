//! Per-layer readings of a traced round. Nothing here instruments the
//! library: node-side shares come from the benchmark's own spans,
//! server-side shares from replaying the identical batches and requests
//! in-process, and the rest from the registry cells the library already
//! keeps (`Obs::latency_snapshot` / `counter_value`).

use crate::fixture::{batch_samples, resequenced, NodeLink};
use crate::metrics::Round;
use crate::spans::{self, Layer, SpanRec};
use moda_fleet::query::{
    decode_request, decode_response, encode_request, encode_response, execute,
};
use moda_fleet::{DurabilityConfig, DurableFleet, FleetAggregator, QueryRequest};
use moda_obs::Obs;
use moda_sim::SimDuration;
use moda_telemetry::export::{encode_batch, ExportBatch};
use moda_telemetry::{DrainStats, MetricId, Tsdb};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

fn mean_ns(t: spans::SelfTime) -> f64 {
    t.self_ns as f64 / (t.calls as f64).max(1.0)
}

/// Span-derived readings: per-layer self time per unit of that layer's
/// work, and the share of the operations' wall time the layers explain.
pub fn from_spans(round: &mut Round, recs: &[SpanRec], samples: u64, records: u64) {
    // Parent indices are per recorder: fold recorder by recorder.
    let mut totals: Vec<(Layer, spans::SelfTime)> = Vec::new();
    let (mut layer_ns, mut op_ns) = (0u64, 0u64);
    for rec in recs {
        let (l, o) = spans::attribution(rec.spans());
        layer_ns += l;
        op_ns += o;
        for (layer, t) in spans::self_times(rec.spans()) {
            match totals.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, acc)) => {
                    acc.self_ns += t.self_ns;
                    acc.calls += t.calls;
                }
                None => totals.push((layer, t)),
            }
        }
    }
    let of = |l: Layer| totals.iter().find(|(k, _)| *k == l).map(|(_, t)| *t);
    if let Some(t) = of(Layer::TsdbInsert) {
        round.set(
            "tsdb.insert_ns_per_sample",
            t.self_ns as f64 / samples.max(1) as f64,
        );
    }
    if let Some(t) = of(Layer::ExportDrain) {
        round.set(
            "export.drain_ns_per_record",
            t.self_ns as f64 / records.max(1) as f64,
        );
    }
    for (layer, name) in [
        (Layer::TsdbWindowRead, "tsdb.window_read_ns"),
        (Layer::TransportWriteBatch, "transport.write_batch_ns"),
        (Layer::TransportAckWait, "transport.ack_wait_ns"),
        (Layer::TransportQuery, "transport.query_rtt_ns"),
        (Layer::ControlTick, "control.tick_ns"),
        (Layer::ControlLockWait, "control.lock_wait_ns"),
    ] {
        if let Some(t) = of(layer) {
            round.set(name, mean_ns(t));
        }
    }
    if op_ns > 0 {
        round.set("bench.attributed_share", layer_ns as f64 / op_ns as f64);
    }
}

/// Connection-level counts of the nodes' links.
pub fn from_links(round: &mut Round, links: &[&NodeLink]) {
    let sum = |f: fn(&NodeLink) -> u64| links.iter().map(|l| f(l)).sum::<u64>() as f64;
    round.set("transport.reconnects", sum(|l| l.reconnects()));
    round.set("transport.resent_batches", sum(|l| l.resent_batches()));
    round.set(
        "transport.backlog_batches_max",
        links.iter().map(|l| l.backlog_max).max().unwrap_or(0) as f64,
    );
}

/// Node-store and exporter counts.
pub fn from_node(round: &mut Round, db: &Tsdb, totals: &DrainStats) {
    let rejected: u64 = (0..db.cardinality() as u32)
        .map(|m| db.series(MetricId(m)).rejected())
        .sum();
    let mem = db.memory_stats();
    round.set("tsdb.samples", db.total_inserts() as f64);
    round.set("tsdb.rejected_samples", rejected as f64);
    round.set("chunk.sealed", totals.chunks as f64);
    round.set(
        "chunk.bytes_per_sample",
        mem.compressed_bytes_per_sample().unwrap_or(0.0),
    );
    round.set("export.batches", totals.batches as f64);
    round.set("export.records", totals.records as f64);
    round.set("export.missed_samples", totals.missed_samples as f64);
}

/// Fleet-side counts: what the sessions absorbed and how the store
/// served `queries` requests.
pub fn from_fleet(round: &mut Round, agg: &FleetAggregator, queries: u64) {
    let health = agg.health(agg.observed_now(), SimDuration::from_hours(1));
    let sum = |f: fn(&moda_fleet::NodeCounters) -> u64| -> f64 {
        health.nodes.iter().map(|n| f(&n.counters)).sum::<u64>() as f64
    };
    round.set("ingest.batches", sum(|c| c.batches));
    round.set("ingest.samples", sum(|c| c.samples));
    round.set("ingest.rejected_samples", sum(|c| c.rejected_samples));
    round.set("ingest.duplicate_batches", sum(|c| c.duplicate_batches));
    round.set("ingest.corrupt_chunks", sum(|c| c.corrupt_chunks));
    round.set("chunk.decoded", sum(|c| c.chunks));
    let s = agg.store().stats();
    round.set("store.rollup_hits", s.rollup_hits as f64);
    round.set("store.sketch_hits", s.sketch_hits as f64);
    round.set("store.raw_fallbacks", s.raw_fallbacks as f64);
    round.set(
        "store.raw_values_per_query",
        s.raw_values_read as f64 / queries.max(1) as f64,
    );
}

/// Registry cells of the fleet's own self-telemetry.
pub fn from_obs(round: &mut Round, obs: &Obs) {
    let mean = |name: &str| {
        obs.latency_snapshot(name)
            .filter(|s| s.count > 0)
            .map(|s| s.sum_ns as f64 / s.count as f64)
    };
    if let Some(v) = mean("wal.fsync_ns") {
        round.set("wal.fsync_ns", v);
    }
    if let Some(v) = mean("snapshot.write_ns") {
        round.set("snapshot.write_ns", v);
    }
    if let Some(s) = obs.latency_snapshot("snapshot.write_ns") {
        round.set("snapshot.count", s.count as f64);
        round.set("snapshot.stall_ms_max", s.max_ns as f64 / 1e6);
    }
    if let Some(v) = obs.counter_value("wal.appends") {
        round.set("wal.appends", v as f64);
    }
    if let Some(v) = obs.counter_value("wal.bytes") {
        round.set("wal.bytes", v as f64);
    }
}

/// Server-side shares from outside: replay `batches` into a durable
/// fleet and into a non-durable aggregator twin. The twin's time is the
/// apply share, the difference is what the WAL costs per batch; encoding
/// the same batches gives the codec share and the wire size.
pub fn from_replay(round: &mut Round, dir: &Path, batches: &[ExportBatch]) -> io::Result<()> {
    if batches.is_empty() {
        return Ok(());
    }
    let resequenced = resequenced(batches);
    let samples: u64 = resequenced.iter().map(batch_samples).sum();
    let records: u64 = resequenced.iter().map(|b| b.records.len() as u64).sum();

    let mut twin = FleetAggregator::new();
    let node = twin.add_node("replay");
    let t = Instant::now();
    for b in &resequenced {
        black_box(twin.ingest(node, b));
    }
    let apply_ns = t.elapsed().as_nanos() as f64;

    let mut durable = DurableFleet::open(dir, DurabilityConfig::default())?;
    let node = durable.add_node("replay")?;
    let t = Instant::now();
    for b in &resequenced {
        black_box(durable.ingest(node, b)?);
    }
    let durable_ns = t.elapsed().as_nanos() as f64;
    drop(durable);
    let _ = std::fs::remove_dir_all(dir);

    let mut wire = Vec::new();
    let mut wire_bytes = 0u64;
    let t = Instant::now();
    for b in &resequenced {
        wire.clear();
        encode_batch(b, &mut wire);
        wire_bytes += black_box(wire.len()) as u64;
    }
    let encode_ns = t.elapsed().as_nanos() as f64;

    let n = resequenced.len() as f64;
    round.set(
        "ingest.apply_ns_per_sample",
        apply_ns / samples.max(1) as f64,
    );
    round.set(
        "wal.append_ns_per_batch",
        (durable_ns - apply_ns).max(0.0) / n,
    );
    round.set(
        "export.encode_ns_per_record",
        encode_ns / records.max(1) as f64,
    );
    round.set(
        "export.wire_bytes_per_sample",
        wire_bytes as f64 / samples.max(1) as f64,
    );
    Ok(())
}

/// Planner and codec shares of the query path: execute each class's
/// requests in-process, and run the four codec functions over the same
/// requests and their answers. `rtt_ns` is the measured mean round trip
/// of the same traffic, for the transport's share.
pub fn from_queries(
    round: &mut Round,
    agg: &FleetAggregator,
    classes: &[(&'static str, Vec<QueryRequest>)],
    rtt_ns: f64,
) {
    let (mut exec_ns, mut codec_ns, mut n) = (0.0, 0.0, 0u64);
    for (name, reqs) in classes {
        if reqs.is_empty() {
            continue;
        }
        let t = Instant::now();
        let answers: Vec<_> = reqs.iter().map(|r| execute(agg, r)).collect();
        let class_ns = t.elapsed().as_nanos() as f64;
        round.set(name, class_ns / reqs.len() as f64);
        exec_ns += class_ns;
        let t = Instant::now();
        let mut buf = Vec::new();
        for (req, resp) in reqs.iter().zip(&answers) {
            buf.clear();
            encode_request(req, &mut buf);
            black_box(decode_request(&buf).is_ok());
            buf.clear();
            encode_response(resp, &mut buf);
            black_box(decode_response(&buf).is_ok());
        }
        codec_ns += t.elapsed().as_nanos() as f64;
        n += reqs.len() as u64;
    }
    if n > 0 {
        round.set("transport.query_rtt_ns", rtt_ns);
        round.set("query.codec_ns", codec_ns / n as f64);
        round.set(
            "transport.query_overhead_ns",
            (rtt_ns - exec_ns / n as f64).max(0.0),
        );
    }
}
