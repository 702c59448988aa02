//! `backfill_recover`: the same ingest layers used the other way.
//!
//! Nodes re-shipping hours of history after a partition: few, huge,
//! chunk-heavy batches, so per-batch cost is ~0 and chunk decode,
//! `push_chunk`, sketch apply and WAL bytes dominate; then the state-size
//! side, snapshot and recovery. Phase 1 (single thread, timed as the
//! node's cost) builds each node's history and drains it once into
//! memory; phase 2 replays the histories node after node over two
//! connections, with a snapshot when the first connection is half-way;
//! the round's closing recovers the result.

use super::{close_round, Closing, SERIES_SHAPE};
use crate::fixture::{
    lock, node_store, round_obs, round_recorder, Fleet, NodeLink, NodeShape, RunCfg,
};
use crate::gen::SweepPool;
use crate::layers;
use crate::metrics::Round;
use crate::runner::{RoundOutput, HEADLINE};
use crate::spans::{Layer, SpanRec};
use moda_sim::SimTime;
use moda_telemetry::export::{encode_batch, ExportBatch, MemorySink, Sink};
use moda_telemetry::{DrainStats, Exporter, Tsdb};
use std::hint::black_box;
use std::io;
use std::sync::Barrier;
use std::time::Instant;

/// Seconds of 1 Hz history each node re-ships.
const HISTORY_S: u64 = 4 * 3600;
const SHAPE: NodeShape = NodeShape {
    metrics: 64,
    sketched: 16,
    // Holds the whole history: nothing may be missed to retention.
    retention: 16_384,
};
/// Node histories per round, split over the two connections.
const HISTORIES: usize = 8;
const CONNECTIONS: usize = 2;

struct History {
    batches: Vec<ExportBatch>,
    drained: DrainStats,
}

/// Phase 1 for one node: insert the history, drain it once, encode it.
fn build_history(cfg: &RunCfg, node: usize, seconds: u64) -> io::Result<(History, Tsdb)> {
    let (mut db, mut sweep) = node_store(SHAPE);
    let pool = SweepPool::new(cfg.seed, node as u64, SHAPE.metrics, 1024);
    for i in 0..seconds {
        pool.fill(i, false, &mut sweep);
        db.insert_batch(SimTime::from_secs(1 + i), &sweep);
    }
    let mut sink = MemorySink::new();
    let drained = Exporter::new().drain(&db, &mut sink)?;
    // The node's CPU also pays for the wire encoding (the socket sink
    // does it again when it sends; that one is inside the replay).
    let mut wire = Vec::new();
    for batch in &sink.batches {
        wire.clear();
        encode_batch(batch, &mut wire);
        black_box(wire.len());
    }
    Ok((
        History {
            batches: sink.batches,
            drained,
        },
        db,
    ))
}

/// What one connection's replay measured.
struct Replayed {
    start: Instant,
    end: Instant,
    ack_ns: Vec<u64>,
    backlog_max: usize,
    redials: u64,
    rec: SpanRec,
}

/// One round of `backfill_recover`.
pub fn round(cfg: &RunCfg, index: usize, traced: bool) -> io::Result<RoundOutput> {
    let mut round = Round::default();
    let seconds = cfg.size(HISTORY_S, 900);
    let obs = round_obs(traced);

    let setup = Instant::now();
    let fleet = Fleet::open(&cfg.tmp.join(format!("round{index}")), &obs)?;

    // ---- phase 1: the node side ----
    let phase1 = Instant::now();
    let mut histories = Vec::with_capacity(HISTORIES);
    let mut first_db = None;
    for node in 0..HISTORIES {
        let (history, db) = build_history(cfg, node, seconds)?;
        histories.push(history);
        first_db.get_or_insert(db);
    }
    let node_ns = phase1.elapsed().as_nanos() as f64;
    let samples: u64 = histories.iter().map(|h| h.drained.samples).sum();
    let expected = HISTORIES as u64 * seconds * SHAPE.metrics as u64;
    let missed: u64 = histories.iter().map(|h| h.drained.missed_samples).sum();
    round.check(samples == expected && missed == 0, || {
        format!("histories drained {samples} of {expected} samples, missed {missed}")
    });
    round.set("node_ns_per_sample", node_ns / samples as f64);
    // Everything the replay needs before it can start is its set-up.
    round.set("setup_s", setup.elapsed().as_secs_f64());

    // ---- phase 2: replay over two connections ----
    let barrier = Barrier::new(CONNECTIONS);
    let shared = fleet.shared();
    let replays: Vec<io::Result<Replayed>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let (fleet, histories, barrier, shared) = (&fleet, &histories, &barrier, &shared);
                let mut rec = round_recorder(traced, setup);
                s.spawn(move || -> io::Result<Replayed> {
                    let mine: Vec<usize> = (conn..HISTORIES).step_by(CONNECTIONS).collect();
                    let mut out = Replayed {
                        start: Instant::now(),
                        end: Instant::now(),
                        ack_ns: Vec::new(),
                        backlog_max: 0,
                        redials: 0,
                        rec: SpanRec::disabled(),
                    };
                    barrier.wait();
                    out.start = Instant::now();
                    let mut op = 0;
                    for (done, &h) in mine.iter().enumerate() {
                        let sink = fleet.sink(&format!("b{h:02}"))?;
                        let mut link = NodeLink::new(sink, rec);
                        for batch in &histories[h].batches {
                            link.rec.set_op(op);
                            op += 1;
                            link.rec.enter(Layer::Op);
                            link.begin();
                            let written = link.write_batch(batch);
                            link.rec.exit();
                            written?;
                        }
                        link.wait_idle()?;
                        out.ack_ns.append(&mut link.ack_ns);
                        out.backlog_max = out.backlog_max.max(link.backlog_max);
                        out.redials += link.reconnects() + link.resent_batches();
                        link.hang_up();
                        rec = link.rec;
                        // The half-way snapshot stalls the other
                        // connection's acks behind the fleet lock.
                        if conn == 0 && done + 1 == mine.len() / 2 {
                            lock(shared).snapshot()?;
                        }
                    }
                    out.end = Instant::now();
                    out.rec = rec;
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    drop(shared);
    let mut done = Vec::with_capacity(CONNECTIONS);
    for r in replays {
        done.push(r?);
    }
    let start = done.iter().map(|r| r.start).min().expect("two replays");
    let end = done.iter().map(|r| r.end).max().expect("two replays");
    let wall_ns = (end - start).as_nanos() as f64;
    let redials: u64 = done.iter().map(|r| r.redials).sum();
    round.check(redials == 0, || {
        format!("{redials} redial(s) or re-sent batch(es)")
    });
    let batches: usize = histories.iter().map(|h| h.batches.len()).sum();
    let acks: Vec<u64> = done
        .iter_mut()
        .flat_map(|r| std::mem::take(&mut r.ack_ns))
        .collect();
    round.ok(batches as u64);
    round.check(acks.len() == batches, || {
        format!("{} acks for {batches} replayed batches", acks.len())
    });
    round.timing_ms(
        acks,
        "sample_to_queryable_ms_p50",
        Some("sample_to_queryable_ms_p99"),
    );
    round.set("ingest_samples_per_s", samples as f64 / (wall_ns / 1e9));
    round.set(HEADLINE, wall_ns / samples as f64);

    if traced {
        let db = first_db.as_ref().expect("at least one history");
        layers::from_node(&mut round, db, &histories[0].drained);
        round.set(
            "transport.backlog_batches_max",
            done.iter().map(|r| r.backlog_max).max().unwrap_or(0) as f64,
        );
        round.set("transport.reconnects", redials as f64);
    }
    let closing = Closing {
        cfg,
        index,
        obs: &obs,
        traced,
        other_samples: samples,
        replay: Some(&histories[0].batches),
        series: Some(SERIES_SHAPE),
    };
    close_round(closing, fleet, &mut [], &mut round)?;

    let mut recs = Vec::new();
    if traced {
        recs.extend(done.into_iter().map(|r| r.rec));
        let records: u64 = histories.iter().map(|h| h.drained.records).sum();
        layers::from_spans(&mut round, &recs, samples, records);
    }
    Ok(RoundOutput { round, spans: recs })
}
