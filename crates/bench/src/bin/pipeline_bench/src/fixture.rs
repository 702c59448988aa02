//! The pieces every workload is built from: a durable fleet behind a
//! loopback listener, a live node that sweeps and drains into it, the
//! query verification set, and the end-of-round seal → recover check.
//! Public library APIs only.

use crate::gen::{self, SweepPool};
use crate::metrics::Round;
use crate::spans::{Layer, SpanRec};
use moda_fleet::query::{encode_response, execute};
use moda_fleet::{
    DurabilityConfig, DurableFleet, FleetAggregator, FleetClient, FleetListener, FleetStore,
    QueryRequest, QueryResponse, SocketSink,
};
use moda_obs::Obs;
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::export::{encode_batch, ExportBatch, ExportRecord, Sink};
use moda_telemetry::{Exporter, MetricId, MetricMeta, RollupConfig, SourceDomain, Tsdb, WindowAgg};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Auth token of the benchmark's listener.
const TOKEN: &str = "pipeline-bench";
/// Batches a [`NodeLink`] keeps for the WAL-bytes replay, skipping the
/// first few (they carry the one-off metric registry).
const KEEP_BATCHES: usize = 512;
const KEEP_AFTER_SEQ: u64 = 4;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Keep starting rounds until this much time has passed.
    pub seconds: f64,
    /// Per-layer run: `Obs::enabled()` on the fleet, spans recorded.
    pub traced: bool,
    /// Smoke sizes: ~1 s per workload, numbers not comparable.
    pub quick: bool,
    /// Scratch root for WAL directories and `spans.jsonl`.
    pub tmp: PathBuf,
}

impl RunCfg {
    /// `full` at benchmark size, `quick` under `--quick`.
    pub fn size(&self, full: u64, quick: u64) -> u64 {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// The self-telemetry handle a round's fleet gets: enabled only on rounds
/// that are traced.
pub fn round_obs(traced_round: bool) -> Obs {
    if traced_round {
        Obs::enabled()
    } else {
        Obs::disabled()
    }
}

/// A span recorder for one generator thread of a round: recording only
/// on rounds that are traced.
pub fn round_recorder(traced_round: bool, origin: Instant) -> SpanRec {
    if traced_round {
        SpanRec::with_capacity(origin, 200_000)
    } else {
        SpanRec::disabled()
    }
}

/// A `DurableFleet` (default durability: snapshot every 1024 batches)
/// served by a `FleetListener` on a loopback port.
pub struct Fleet {
    pub dir: PathBuf,
    addr: String,
    listener: FleetListener,
}

impl Fleet {
    /// Open (or recover) the state directory and start serving it.
    pub fn open(dir: &Path, obs: &Obs) -> io::Result<Fleet> {
        let mut fleet = DurableFleet::open(dir, DurabilityConfig::default())?;
        if obs.is_enabled() {
            fleet.set_obs(obs.clone());
        }
        Fleet::serve(fleet)
    }

    /// Serve an already-open durable fleet.
    pub fn serve(fleet: DurableFleet) -> io::Result<Fleet> {
        let dir = fleet.dir().to_path_buf();
        let listener = FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), TOKEN)?;
        Ok(Fleet {
            dir,
            addr: listener.local_addr().to_string(),
            listener,
        })
    }

    /// The fleet behind the listener; sessions serialise on this lock.
    pub fn shared(&self) -> Arc<Mutex<DurableFleet>> {
        self.listener.fleet()
    }

    pub fn sink(&self, node: &str) -> io::Result<SocketSink> {
        SocketSink::connect(&self.addr, node, TOKEN)
    }

    pub fn client(&self) -> io::Result<FleetClient> {
        FleetClient::connect(&self.addr, TOKEN)
    }

    /// Stop the listener, join its sessions, and take the fleet back.
    /// Every sink, client and `shared()` handle must have been dropped.
    pub fn close(self) -> DurableFleet {
        let shared = self.listener.shutdown();
        let Ok(fleet) = Arc::try_unwrap(shared) else {
            panic!("a handle to the fleet outlived its listener");
        };
        fleet.into_inner().expect("fleet lock not poisoned")
    }
}

/// Lock the shared fleet; a poisoned lock means a session thread
/// panicked, which is a failed run.
pub fn lock(shared: &Arc<Mutex<DurableFleet>>) -> std::sync::MutexGuard<'_, DurableFleet> {
    shared.lock().expect("fleet lock not poisoned")
}

/// A node's end of the ingest connection: a `SocketSink` with the
/// bookkeeping the benchmark reads — hand-off → ack latency per batch,
/// the in-flight backlog, and a window of the stream for replays.
pub struct NodeLink {
    /// `None` once hung up.
    sink: Option<SocketSink>,
    /// `(reconnects, resent batches)` of the connection, kept past hang-up.
    redials: (u64, u64),
    pub rec: SpanRec,
    /// When the batches written next were handed to the node stack.
    mark: Instant,
    /// Hand-off instants of the batches not yet known acked, oldest first.
    sent: VecDeque<Instant>,
    /// Hand-off → ack-observed, one per batch, ns.
    pub ack_ns: Vec<u64>,
    pub batches: u64,
    pub backlog_max: usize,
    /// A window of the stream (`KEEP_BATCHES` after `KEEP_AFTER_SEQ`),
    /// replayed afterwards to measure WAL bytes and per-layer shares.
    pub kept: Vec<ExportBatch>,
}

impl NodeLink {
    pub fn new(sink: SocketSink, rec: SpanRec) -> Self {
        NodeLink {
            sink: Some(sink),
            redials: (0, 0),
            rec,
            mark: Instant::now(),
            sent: VecDeque::new(),
            ack_ns: Vec::new(),
            batches: 0,
            backlog_max: 0,
            kept: Vec::new(),
        }
    }

    /// Start a hand-off: batches written until the next call are timed
    /// from now.
    pub fn begin(&mut self) -> Instant {
        self.mark = Instant::now();
        self.mark
    }

    /// Stamp every batch the sink no longer holds as acked now.
    fn settle(&mut self) {
        let unacked = self.sink.as_ref().map_or(0, |s| s.unacked_len());
        self.backlog_max = self.backlog_max.max(unacked);
        while self.sent.len() > unacked {
            let handed = self.sent.pop_front().expect("len checked");
            self.ack_ns.push(handed.elapsed().as_nanos() as u64);
        }
    }

    /// Block until the fleet has acknowledged (durable + applied) every
    /// batch written so far.
    pub fn wait_idle(&mut self) -> io::Result<()> {
        self.rec.enter(Layer::TransportAckWait);
        let res = self.live().and_then(|s| s.wait_idle());
        self.rec.exit();
        self.settle();
        res
    }

    fn live(&mut self) -> io::Result<&mut SocketSink> {
        self.sink
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "link hung up"))
    }

    /// Close the connection (the listener cannot shut down around an
    /// open session); counters and recorded timings stay readable.
    pub fn hang_up(&mut self) {
        if let Some(sink) = self.sink.take() {
            self.redials = (sink.reconnects(), sink.resent_batches());
        }
    }

    pub fn reconnects(&self) -> u64 {
        self.sink
            .as_ref()
            .map_or(self.redials.0, |s| s.reconnects())
    }

    pub fn resent_batches(&self) -> u64 {
        self.sink
            .as_ref()
            .map_or(self.redials.1, |s| s.resent_batches())
    }
}

impl Sink for NodeLink {
    fn write_batch(&mut self, batch: &ExportBatch) -> io::Result<()> {
        self.rec.enter(Layer::TransportWriteBatch);
        let res = self.live().and_then(|s| s.write_batch(batch));
        self.rec.exit();
        res?;
        self.batches += 1;
        self.sent.push_back(self.mark);
        self.settle();
        if batch.seq >= KEEP_AFTER_SEQ && self.kept.len() < KEEP_BATCHES {
            self.kept.push(batch.clone());
        }
        Ok(())
    }
}

/// Shape of a node's metric set.
#[derive(Debug, Clone, Copy)]
pub struct NodeShape {
    pub metrics: usize,
    /// The first `sketched` metrics after `power_w`/`probe` carry the
    /// standard sketched rollup pyramid; `power_w` always does.
    pub sketched: usize,
    /// Raw retention per series on the node.
    pub retention: usize,
}

/// Register `shape`'s metrics on a fresh node store.
pub fn node_store(shape: NodeShape) -> (Tsdb, Vec<(MetricId, f64)>) {
    let mut db = Tsdb::with_retention(shape.retention);
    let rollups = RollupConfig::standard().with_sketches();
    let sweep = gen::metric_names(shape.metrics)
        .into_iter()
        .enumerate()
        .map(|(m, name)| {
            let id = db.register(MetricMeta::gauge(name, "u", SourceDomain::Hardware));
            if m == 0 || (2..2 + shape.sketched).contains(&m) {
                db.enable_rollups(id, &rollups);
            }
            (id, 0.0)
        })
        .collect();
    (db, sweep)
}

/// A live node: store, exporter and link, sweeping at 1 Hz of simulated
/// time from `origin_s`.
pub struct LiveNode {
    pub db: Tsdb,
    sweep: Vec<(MetricId, f64)>,
    pool: SweepPool,
    pub exporter: Exporter,
    pub link: NodeLink,
    origin_s: u64,
    /// Sweeps pushed so far; the next sweep carries this index.
    pub index: u64,
}

impl LiveNode {
    pub fn new(
        shape: NodeShape,
        seed: u64,
        node_no: u64,
        origin_s: u64,
        link: NodeLink,
    ) -> LiveNode {
        let (db, sweep) = node_store(shape);
        LiveNode {
            db,
            sweep,
            pool: SweepPool::new(seed, node_no, shape.metrics, 1024),
            exporter: Exporter::new(),
            link,
            origin_s,
            index: 0,
        }
    }

    /// Simulated time of sweep `index`.
    pub fn time_of(&self, index: u64) -> SimTime {
        SimTime::from_secs(self.origin_s + index)
    }

    /// Insert the next sweep and drain it into the link. Returns the
    /// hand-off instant (taken before the insert).
    pub fn push_sweep(&mut self, fault: bool) -> io::Result<Instant> {
        self.pool.fill(self.index, fault, &mut self.sweep);
        let t = self.time_of(self.index);
        let t0 = self.link.begin();
        self.link.rec.enter(Layer::TsdbInsert);
        self.db.insert_batch(t, &self.sweep);
        self.link.rec.exit();
        self.link.rec.enter(Layer::ExportDrain);
        let res = self.exporter.drain(&self.db, &mut self.link);
        self.link.rec.exit();
        self.index += 1;
        res.map(|_| t0)
    }
}

/// Node-local Monitor reads per sweep of a node that flies the loop.
pub const MONITOR_READS: usize = 16;

/// The series a node's Monitor reads go to: plain ones (no rollups), so
/// each read folds raw samples and crosses into sealed chunks whenever
/// the tail is younger than the window.
pub fn monitor_ids(shape: NodeShape) -> Vec<MetricId> {
    let first_plain = 2 + shape.sketched;
    assert!(
        shape.metrics >= first_plain + MONITOR_READS,
        "node too small for its Monitor reads"
    );
    (first_plain..first_plain + MONITOR_READS)
        .map(|m| MetricId(m as u32))
        .collect()
}

/// One trailing-minute mean per Monitor series, as a loop's Monitor
/// phase reads them.
pub fn monitor_reads(db: &Tsdb, ids: &[MetricId], now: SimTime, rec: &mut SpanRec) {
    for &id in ids {
        rec.enter(Layer::TsdbWindowRead);
        black_box(db.window_agg(id, now, SimDuration::from_secs(60), WindowAgg::Mean));
        rec.exit();
    }
}

/// A sink that does what a socket sink does before it writes: encode.
struct EncodeSink {
    wire: Vec<u8>,
}

impl Sink for EncodeSink {
    fn write_batch(&mut self, batch: &ExportBatch) -> io::Result<()> {
        self.wire.clear();
        encode_batch(batch, &mut self.wire);
        black_box(self.wire.len());
        Ok(())
    }
}

/// `node_ns_per_sample` of a live node shape: the CPU the stack takes
/// from the application per sample — insert + fold + seal, the Monitor
/// reads where the node flies the loop, and drain + encode after every
/// sweep — on one thread with nothing else runnable, so that (unlike a
/// reading taken beside the pinned process's server threads) it is CPU
/// time, not time-sliced wall time. `warm` sweeps go in untimed first, so
/// the store holds sealed chunks as it does in the workload.
pub fn node_pass(shape: NodeShape, seed: u64, warm: u64, sweeps: u64, monitor: bool) -> f64 {
    let (mut db, mut sweep) = node_store(shape);
    let pool = SweepPool::new(seed, 0x20_0000, shape.metrics, 1024);
    let ids = if monitor {
        monitor_ids(shape)
    } else {
        Vec::new()
    };
    let mut exporter = Exporter::new();
    let mut sink = EncodeSink { wire: Vec::new() };
    let mut rec = SpanRec::disabled();
    let mut started = Instant::now();
    for i in 0..warm + sweeps {
        if i == warm {
            started = Instant::now();
        }
        let now = SimTime::from_secs(1 + i);
        pool.fill(i, false, &mut sweep);
        db.insert_batch(now, &sweep);
        exporter
            .drain(&db, &mut sink)
            .expect("an in-memory sink cannot fail");
        monitor_reads(&db, &ids, now, &mut rec);
    }
    started.elapsed().as_nanos() as f64 / (sweeps * shape.metrics as u64) as f64
}

/// Samples a batch carries (per-sample records plus chunk contents).
pub fn batch_samples(batch: &ExportBatch) -> u64 {
    batch
        .records
        .iter()
        .map(|r| match r {
            ExportRecord::Sample { .. } => 1,
            ExportRecord::Chunk { count, .. } => *count as u64,
            _ => 0,
        })
        .sum()
}

/// `batches` re-sequenced from 0, so a window kept from mid-stream
/// replays into a fresh session without a cursor gap.
pub fn resequenced(batches: &[ExportBatch]) -> Vec<ExportBatch> {
    batches
        .iter()
        .enumerate()
        .map(|(seq, b)| ExportBatch {
            seq: seq as u64,
            records: b.records.clone(),
        })
        .collect()
}

/// WAL bytes per sample of a stream: replay `batches` into a scratch
/// durable fleet whose `wal.bytes` counter is on, so the end-to-end
/// fleet itself runs with self-telemetry off.
pub fn wal_bytes_per_sample(dir: &Path, batches: &[ExportBatch]) -> io::Result<Option<f64>> {
    let obs = Obs::enabled();
    let mut scratch = DurableFleet::open(dir, DurabilityConfig::default())?;
    scratch.set_obs(obs.clone());
    let node = scratch.add_node("replay")?;
    let before = obs.counter_value("wal.bytes").unwrap_or(0);
    let mut samples = 0;
    for b in &resequenced(batches) {
        samples += batch_samples(b);
        scratch.ingest(node, b)?;
    }
    let bytes = obs.counter_value("wal.bytes").map(|after| after - before);
    drop(scratch);
    let _ = std::fs::remove_dir_all(dir);
    Ok(match (bytes, samples) {
        (Some(b), s) if s > 0 => Some(b as f64 / s as f64),
        _ => None,
    })
}

/// A response as the bytes that cross the wire: equal bytes mean equal
/// `f64` bits and equal served/coverage metadata.
pub fn answer_bytes(resp: &QueryResponse) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response(resp, &mut out);
    out
}

/// Answer `reqs` off the in-process planner.
pub fn local_answers(agg: &FleetAggregator, reqs: &[QueryRequest]) -> Vec<Vec<u8>> {
    reqs.iter()
        .map(|r| answer_bytes(&execute(agg, r)))
        .collect()
}

/// Answer `reqs` over the query wire; returns the answers and each
/// request's round-trip time.
pub fn remote_answers(
    client: &mut FleetClient,
    reqs: &[QueryRequest],
) -> io::Result<(Vec<Vec<u8>>, Vec<u64>)> {
    let mut answers = Vec::with_capacity(reqs.len());
    let mut rtt = Vec::with_capacity(reqs.len());
    for r in reqs {
        let t = Instant::now();
        let resp = client.request(r)?;
        rtt.push(t.elapsed().as_nanos() as u64);
        answers.push(answer_bytes(&resp));
    }
    Ok((answers, rtt))
}

/// Check `got` against `want` answer by answer; every pair is one
/// counted operation.
pub fn check_answers(round: &mut Round, what: &str, want: &[Vec<u8>], got: &[Vec<u8>]) {
    round.check(want.len() == got.len(), || {
        format!("{what}: {} answers, expected {}", got.len(), want.len())
    });
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        round.check(w == g, || format!("{what}: answer {i} differs"));
    }
}

/// Total samples the fleet's node sessions absorbed and bounced.
fn ingest_totals(agg: &FleetAggregator) -> (u64, u64) {
    let health = agg.health(agg.observed_now(), SimDuration::from_hours(1));
    health.nodes.iter().fold((0, 0), |(s, r), n| {
        (s + n.counters.samples, r + n.counters.rejected_samples)
    })
}

/// Bytes of every file in a state directory.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What [`seal_and_recover`] measured besides the round's metrics.
pub struct Sealed {
    /// Median recovery time.
    pub recover_ns: u64,
    pub replayed_batches: u64,
    pub snapshot_ns: u64,
    pub snapshot_bytes: u64,
}

/// End of a round: with every session closed, record what the fleet
/// answers, shut it down as a crash would find it (last snapshot + log
/// tail), recover it `recoveries` times, require the recovered fleet to
/// answer identically, then compact it into a final snapshot to read
/// the state size.
pub fn seal_and_recover(
    fleet: Fleet,
    reqs: &[QueryRequest],
    samples_ingested: u64,
    recoveries: usize,
    round: &mut Round,
) -> io::Result<Sealed> {
    let dir = fleet.dir.clone();
    let durable = fleet.close();
    let before = local_answers(durable.aggregator(), reqs);
    let totals_before = ingest_totals(durable.aggregator());
    drop(durable);

    let mut recover_ns = Vec::with_capacity(recoveries);
    let mut recovered = loop {
        let t = Instant::now();
        let fleet = FleetStore::recover(&dir)?;
        recover_ns.push(t.elapsed().as_nanos() as u64);
        if recover_ns.len() >= recoveries {
            break fleet;
        }
    };
    recover_ns.sort_unstable();
    let recover_ns = recover_ns[recover_ns.len() / 2];
    let replayed_batches = recovered.recovery().replayed_batches;
    check_answers(
        round,
        "post-recovery answers",
        &before,
        &local_answers(recovered.aggregator(), reqs),
    );
    let totals_after = ingest_totals(recovered.aggregator());
    round.check(totals_after == totals_before, || {
        format!("recovered ingest totals {totals_after:?}, before shutdown {totals_before:?}")
    });
    round.check(
        totals_before.0 + totals_before.1 == samples_ingested,
        || {
            format!(
                "fleet absorbed {} + rejected {} samples, nodes shipped {samples_ingested}",
                totals_before.0, totals_before.1
            )
        },
    );

    let t = Instant::now();
    recovered.snapshot()?;
    let snapshot_ns = t.elapsed().as_nanos() as u64;
    let snapshot_bytes = dir_bytes(&dir);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    round.set("recover_s", recover_ns as f64 / 1e9);
    round.set(
        "snapshot_bytes_per_sample",
        snapshot_bytes as f64 / samples_ingested.max(1) as f64,
    );
    Ok(Sealed {
        recover_ns,
        replayed_batches,
        snapshot_ns,
        snapshot_bytes,
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moda_telemetry::export::MemorySink;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pipeline_bench-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Drain `sweeps` sweeps of one seeded node into memory.
    fn stream(seed: u64, sweeps: u64) -> Vec<ExportBatch> {
        let shape = NodeShape {
            metrics: 12,
            sketched: 2,
            retention: 1024,
        };
        let (mut db, mut sweep) = node_store(shape);
        let pool = SweepPool::new(seed, 0, shape.metrics, 256);
        let mut exporter = Exporter::new();
        let mut sink = MemorySink::new();
        for i in 0..sweeps {
            pool.fill(i, false, &mut sweep);
            db.insert_batch(SimTime::from_secs(i), &sweep);
            exporter.drain(&db, &mut sink).unwrap();
        }
        sink.batches
    }

    #[test]
    fn same_seed_gives_identical_batches_and_wal_bytes() {
        let (a, b, c) = (stream(7, 200), stream(7, 200), stream(8, 200));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let wal =
            |tag: &str, s: &[ExportBatch]| wal_bytes_per_sample(&tmp(tag), s).unwrap().unwrap();
        let (wa, wb) = (wal("wa", &a), wal("wb", &b));
        assert_eq!(wa.to_bits(), wb.to_bits());
        assert!(wa > 8.0 && wa < 64.0, "{wa}");
    }

    #[test]
    fn seal_and_recover_answers_identically_and_conserves_samples() {
        let dir = tmp("seal");
        let fleet = Fleet::open(&dir, &Obs::disabled()).unwrap();
        let batches = stream(3, 150);
        let samples: u64 = batches.iter().map(batch_samples).sum();
        assert_eq!(samples, 150 * 12);
        {
            let shared = fleet.shared();
            let mut f = lock(&shared);
            let node = f.add_node("n0").unwrap();
            for b in &batches {
                f.ingest(node, b).unwrap();
            }
        }
        let reqs = vec![
            QueryRequest::Metrics,
            QueryRequest::WindowAgg {
                metric: gen::PROBE_AXIS.to_string(),
                now: SimTime::from_secs(149),
                window: SimDuration::from_secs(10),
                agg: WindowAgg::Max,
            },
        ];
        let mut round = Round::default();
        let sealed = seal_and_recover(fleet, &reqs, samples, 2, &mut round).unwrap();
        assert_eq!(round.failed, 0, "{:?}", round.failures);
        assert!(sealed.recover_ns > 0);
        assert_eq!(sealed.replayed_batches, 150);
        assert!(sealed.snapshot_bytes > 0);
        assert!(round.values["recover_s"] > 0.0);
        // A wrong sample count is a counted failure, not a panic.
        let dir = tmp("seal2");
        let fleet = Fleet::open(&dir, &Obs::disabled()).unwrap();
        let mut round = Round::default();
        seal_and_recover(fleet, &reqs, 5, 1, &mut round).unwrap();
        assert_eq!(round.failed, 1);
    }
}
