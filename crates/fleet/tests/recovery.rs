//! Crash-recovery integration test: the `fleet_service` binary is
//! SIGKILLed mid-stream, restarted on the same directory, and the
//! exporters reconnect and resume from the server's persisted cursor.
//! Every fleet query afterwards must be bit-identical to an
//! uninterrupted in-process run, with zero re-ingest from `seq 0`, zero
//! duplicate batches and a balanced ledger per node — the tier-1 twin
//! of the `fleet-recovery` CI job.
//!
//! The working directory defaults to a per-process temp dir; set
//! `FLEET_RECOVERY_DIR` to pin it somewhere collectable (the CI job
//! points it into `target/` and uploads the snapshot + wal on
//! failure). On success the directory is removed.

use moda_fleet::{FleetAggregator, FleetStore, Ledger, NodeId, SocketSink};
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::export::{ExportBatch, MemorySink, Sink};
use moda_telemetry::{
    DrainStats, Exporter, MetricMeta, RollupConfig, RollupTier, SourceDomain, Tsdb, WindowAgg,
};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const NODES: usize = 3;
const SAMPLES: usize = 2400;
const TOKEN: &str = "recovery-test-token";

fn work_dir() -> PathBuf {
    match std::env::var_os("FLEET_RECOVERY_DIR") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("moda_fleet_recovery_{}", std::process::id())),
    }
}

/// One node's wire stream (sealed buckets, sketch columns, raw tail)
/// off a real sketched store, plus the exporter's drain totals.
fn node_stream(offset: f64) -> (Vec<ExportBatch>, DrainStats) {
    let cfg = RollupConfig::new(vec![
        RollupTier::new(SimDuration::from_secs(10), 256),
        RollupTier::new(SimDuration::from_secs(60), 64),
    ])
    .with_sketches();
    let mut db = Tsdb::with_retention(1 << 12);
    let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
    db.enable_rollups(id, &cfg);
    for s in 0..SAMPLES as u64 {
        db.insert(
            id,
            SimTime::from_secs(1 + s),
            offset + ((s * 31) % 997) as f64,
        );
    }
    let mut sink = MemorySink::new();
    let mut exporter = Exporter::new().with_batch_records(64);
    exporter.drain(&db, &mut sink).unwrap();
    (sink.batches, exporter.totals())
}

/// Everything the ISSUE's acceptance clause names, as comparable data:
/// window aggregates, the merged fleet p99, top-k, and health.
fn fingerprint(agg: &FleetAggregator, now: SimTime) -> Vec<String> {
    let store = agg.store();
    let span = SimDuration(now.0);
    let mut out = Vec::new();
    for kind in [
        WindowAgg::Count,
        WindowAgg::Sum,
        WindowAgg::Min,
        WindowAgg::Max,
        WindowAgg::Mean,
        WindowAgg::Percentile(0.99),
    ] {
        out.push(format!(
            "{kind:?}={:?}",
            store
                .fleet_window_agg("m", now, span, kind)
                .map(f64::to_bits)
        ));
    }
    out.push(format!(
        "top={:?}",
        store.top_nodes(
            "m",
            now,
            span,
            WindowAgg::Mean,
            NODES,
            moda_fleet::Rank::Highest
        )
    ));
    out.push(scrub_retries(format!(
        "health={:?}",
        agg.health(now, SimDuration::from_secs(120))
    )));
    out
}

/// Zero out `send_retries` in a rendered health record: the counter
/// measures transport-level reconnect work, which an interrupted run
/// legitimately accrues — it is not part of the converged-state
/// contract the fingerprint pins.
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

fn spawn_service(dir: &Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fleet_service"))
        .arg("serve")
        .arg(dir)
        .args(["127.0.0.1:0", TOKEN, "--snapshot-every", "5"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn fleet_service");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read READY line");
    let addr = line
        .trim()
        .strip_prefix("READY ")
        .unwrap_or_else(|| panic!("unexpected service banner: {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn sigkill_mid_stream_recovers_bit_identical_with_no_seq0_replay() {
    let dir = work_dir();
    let _ = std::fs::remove_dir_all(&dir);

    let streams: Vec<(Vec<ExportBatch>, DrainStats)> =
        (0..NODES).map(|k| node_stream(1000.0 * k as f64)).collect();
    let now = SimTime::from_secs(SAMPLES as u64 + 1);

    // Uninterrupted in-process reference.
    let mut reference = FleetAggregator::new();
    for (k, (batches, totals)) in streams.iter().enumerate() {
        let node = reference.add_node(&format!("node{k:02}"));
        for batch in batches {
            reference.ingest(node, batch);
        }
        reference.report_drain(node, totals);
    }
    let want = fingerprint(&reference, now);

    // Phase 1: serve, connect every node, ship the first half.
    let (mut server, addr) = spawn_service(&dir);
    let mut sinks: Vec<SocketSink> = (0..NODES)
        .map(|k| SocketSink::connect(&addr, &format!("node{k:02}"), TOKEN).unwrap())
        .collect();
    let split = streams[0].0.len() / 2;
    assert!(split > 2, "stream long enough to split");
    for (k, sink) in sinks.iter_mut().enumerate() {
        for batch in &streams[k].0[..split] {
            sink.write_batch(batch).unwrap();
        }
        // Durability barrier: everything below `split` is acked, and an
        // ack is only sent after the batch hit the write-ahead log.
        sink.wait_idle().unwrap();
        // Two more in flight with NO ack wait — at kill time these are
        // in an unknown state (logged, torn, or never received), which
        // is exactly what the resume protocol must absorb.
        for batch in &streams[k].0[split..split + 2] {
            sink.write_batch(batch).unwrap();
        }
    }

    // Phase 2: kill -9, mid-stream.
    server.kill().expect("SIGKILL fleet_service");
    server.wait().expect("reap killed service");

    // Phase 3: restart on the same dir; exporters redirect and resume.
    let (mut server2, addr2) = spawn_service(&dir);
    for (k, sink) in sinks.iter_mut().enumerate() {
        sink.redirect(&addr2);
        for batch in &streams[k].0[split + 2..] {
            sink.write_batch(batch).unwrap();
        }
        sink.send_drain(&streams[k].1).unwrap();
        sink.wait_idle().unwrap();
        assert!(sink.reconnects() >= 1, "node{k:02} must have re-dialed");
        assert!(
            sink.last_resume_seq() >= split as u64,
            "node{k:02} resumed at the persisted cursor ({}), not seq 0",
            sink.last_resume_seq()
        );
        assert_eq!(sink.unacked_len(), 0, "node{k:02} fully acked");
    }

    // Phase 4: kill the restarted service too (acked ⇒ logged, so
    // SIGKILL is a clean exit) and recover in-process off the files.
    server2.kill().expect("SIGKILL restarted service");
    server2.wait().expect("reap restarted service");
    let recovered = FleetStore::recover(&dir).expect("recover from snapshot + wal");
    assert!(recovered.epoch() > 0, "snapshot cadence rotated the wal");
    let health = recovered
        .aggregator()
        .health(now, SimDuration::from_secs(120));

    // After each exporter's final report, what it shipped balances what
    // its session took: nothing was lost across the kill.
    for node in &health.nodes {
        assert_eq!(node.ledger(), Ledger::default(), "{}", node.name);
    }

    // Zero re-ingest: every batch applied exactly once, none replayed
    // from seq 0, none re-delivered past the duplicate guard.
    for (k, (batches, _)) in streams.iter().enumerate() {
        let c = recovered.aggregator().counters(NodeId(k as u32));
        assert_eq!(c.duplicate_batches, 0, "node{k:02}: {c:?}");
        assert_eq!(c.gaps, 0, "node{k:02}: {c:?}");
        assert_eq!(c.batches, batches.len() as u64, "node{k:02}: {c:?}");
        assert_eq!(c.samples, SAMPLES as u64, "node{k:02}: {c:?}");
        assert_eq!(recovered.next_seq(NodeId(k as u32)), batches.len() as u64);
    }

    // The acceptance clause: window aggregates, merged p99, top-k, and
    // health — bit-identical to the uninterrupted run.
    let got = fingerprint(recovered.aggregator(), now);
    assert_eq!(got, want);

    // And the interrupted exporters actually exercised the reconnect
    // path: at least one drain recorded send retries.
    let retried: u64 = health.nodes.iter().map(|n| n.drain.send_retries).sum();
    assert!(retried > 0, "no exporter recorded a reconnect retry");

    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}
