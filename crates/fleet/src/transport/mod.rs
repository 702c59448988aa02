//! Socket-framed wire transport: `export-wire-v1.4` batches over plain
//! `std::net` TCP (hermetic — no async runtime, no TLS, no new deps).
//!
//! The way into the fleet tier from another thread or process (within
//! one thread a caller hands batches to [`crate::DurableFleet::ingest`]
//! — logged, then applied — or, with no log, to
//! [`crate::FleetAggregator::ingest`] directly). Framing is the
//! CRC-protected envelope from
//! `moda_telemetry::wire::write_frame`; on top of it the ingest
//! protocol (tags 1–5) and, sharing the same listener, the read-only
//! query protocol (tags 6–9, codec in [`crate::query`]):
//!
//! | tag | dir | payload |
//! |-----|-----|---------|
//! | `HELLO` (1) | node → fleet | auth token · node name · wire revision `[major u8][minor u8]` |
//! | `HELLO_ACK` (2) | fleet → node | status `u8` (0 ok, 1 bad token) · `next_seq u64` · wire revision |
//! | `BATCH` (3) | node → fleet | one encoded [`ExportBatch`](moda_telemetry::export::ExportBatch) |
//! | `ACK` (4) | fleet → node | cumulative `next_seq u64` after applying |
//! | `DRAIN` (5) | node → fleet | encoded exporter [`DrainStats`](moda_telemetry::DrainStats): lifetime totals, replacing the last |
//! | `QUERY_HELLO` (6) | client → fleet | auth token |
//! | `QUERY_HELLO_ACK` (7) | fleet → client | status `u8` · protocol version `u16` |
//! | `QUERY` (8) | client → fleet | request id `u64` · encoded [`crate::query::QueryRequest`] |
//! | `QUERY_RESP` (9) | fleet → client | request id `u64` · encoded [`crate::query::QueryResponse`] |
//!
//! A connection picks its role with its first frame: `HELLO` opens an
//! ingest session (registers the node), `QUERY_HELLO` opens a
//! **read-only** query session — it never registers a node, so a
//! dashboard can never surface as a silent node in health or coverage
//! answers, and ingest frames on it close the connection. Malformed
//! *query payloads* inside a valid envelope are answered with a typed
//! `Error` response and the session survives; a corrupt envelope
//! (CRC mismatch, absurd length) closes the connection — there is no
//! way to resynchronize a byte stream after a broken length prefix.
//!
//! `BATCH` and `DRAIN` are both acknowledged with `ACK`, and only
//! after the server has made the payload durable (logged + flushed) —
//! so [`SocketSink::wait_idle`] and [`SocketSink::send_drain`]
//! returning means a `kill -9` of the server cannot lose that data.
//!
//! **Value state.** A sink codes each run of samples the newest way its
//! fleet's `HELLO_ACK` says it reads (`moda_telemetry::wire::Coding`):
//! to a 1.4 fleet a run whose ids and times are progressions is a
//! `sweep` record and any other a `samples_delta` record, its values
//! XOR'd against the stream's previous ones
//! (`moda_telemetry::wire::ValueState`); a 1.3 fleet gets every run as
//! `samples_delta`; a fleet answering without a revision gets 1.2
//! `samples` runs. Every
//! `HELLO` starts the state empty on both ends, and the fleet logs that
//! reset (a `NODE` entry) so replay resets at the same point.
//!
//! **Resume contract.** The server's `HELLO_ACK` carries the node
//! session's *persisted* cursor ([`crate::DurableFleet::next_seq`]).
//! A reconnecting [`SocketSink`] drops every buffered batch below that
//! cursor (the server has them durably), re-codes the rest for the new
//! connection's empty state, re-sends them, and continues — the
//! exporter side never rewinds to `seq 0`, and anything the server
//! already applied bounces off the duplicate guard (its values walked,
//! so the state stays in step). This handshake is also the node-re-registration policy: a
//! node is its stable name; a re-imaged node that reconnects resumes
//! the same session at the server's cursor.
//!
//! **Backpressure.** The sink keeps at most
//! [`TransportConfig::window`] unacknowledged batches in flight; past
//! that, `write_batch` blocks reading `ACK`s. The buffer exists for
//! durability, not just pacing: the exporter commits its cursors the
//! moment `write_batch` returns `Ok`, so the sink must be able to
//! re-deliver anything the server might not have persisted yet.
//!
//! **Flush discipline.** Every socket sits behind a buffered read half
//! and a buffered write half, so one frame is one `send`. Senders flush
//! once their frame(s) are written; the listener writes one `ACK` per
//! `BATCH`/`DRAIN` frame, in frame order, after log-and-apply, and
//! flushes when its receive buffer holds no further complete frame —
//! so a burst of batches is acknowledged by as many `ACK` frames in one
//! segment. Peers must count frames, never reads.
//!
//! **One module per concern**: `conn` (the client half's buffered
//! connection, the link that re-opens it, the one retry rule), `sink`,
//! `client`, `listener` (the only code that knows a session runs over
//! a socket: read timeout, stop flag, flush before blocking) and
//! `session` (the protocol, fed bytes, answering into any `Write`).

mod client;
mod conn;
mod listener;
mod session;
mod sink;

pub use client::FleetClient;
pub use listener::FleetListener;
pub(crate) use listener::RECV_BUF;
pub use sink::SocketSink;

use std::time::Duration;

/// Exporter-side transport tuning.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Max unacknowledged batches in flight before `write_batch`
    /// blocks on acks (bounded memory, natural backpressure).
    pub window: usize,
    /// Reconnect attempts before a send reports failure to the
    /// exporter (which rolls its cursors back and retries later).
    pub reconnect_attempts: u32,
    /// Base pause before the *second* reconnect attempt; later attempts
    /// back off exponentially (doubling, jittered) up to
    /// [`TransportConfig::backoff_cap`].
    pub reconnect_pause: Duration,
    /// Ceiling on the backoff pause, so a long outage settles into a
    /// bounded polling cadence instead of runaway waits.
    pub backoff_cap: Duration,
    /// Socket connect/read/write timeout. Without one, a peer that
    /// accepts the dial and then goes silent (half-open connection,
    /// frozen server) blocks the sender forever; with it, the stalled
    /// call errors and the normal reconnect-with-resume path takes
    /// over. `None` restores unbounded blocking I/O.
    pub io_timeout: Option<Duration>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            window: 64,
            reconnect_attempts: 25,
            reconnect_pause: Duration::from_millis(200),
            backoff_cap: Duration::from_secs(5),
            io_timeout: Some(Duration::from_secs(5)),
        }
    }
}

impl TransportConfig {
    /// Backoff pause before reconnect attempt `attempt` (1-based):
    /// `reconnect_pause * 2^(attempt-1)`, capped at
    /// [`TransportConfig::backoff_cap`], plus up to 25 % deterministic
    /// jitter derived from `salt` — so a fleet of senders knocked out
    /// by one server restart doesn't re-dial in lockstep.
    fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let base = self.reconnect_pause.as_nanos() as u64;
        let capped = base
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(self.backoff_cap.as_nanos() as u64)
            .max(1);
        // Cheap splitmix64 on the salt: good enough spread for jitter.
        let mut h = salt.wrapping_add(0x9e3779b97f4a7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
        h ^= h >> 31;
        let jitter = (capped / 4).min(u64::MAX / 2) * (h % 1024) / 1024;
        Duration::from_nanos(capped + jitter)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::persist::{DurabilityConfig, DurableFleet};
    use crate::FleetAggregator;
    use moda_sim::{SimDuration, SimTime};
    use moda_telemetry::export::{ExportBatch, ExportRecord, MemorySink, Sink};
    use moda_telemetry::wire::{encode_batch, frame_tag, put_str, read_frame, write_frame};
    use moda_telemetry::{
        DrainStats, Exporter, MetricId, MetricMeta, RollupConfig, RollupTier, SourceDomain, Tsdb,
        WindowAgg,
    };
    use std::fs;
    use std::io::{self, Write};
    use std::net::TcpStream;
    use std::path::PathBuf;
    use std::sync::{Arc, Mutex};

    pub(crate) fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moda_fleet_transport_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    pub(crate) fn node_batches(n: usize, offset: f64) -> Vec<ExportBatch> {
        let cfg = RollupConfig::new(vec![RollupTier::new(SimDuration::from_secs(10), 256)])
            .with_sketches();
        let mut db = Tsdb::with_retention(1 << 12);
        let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
        db.enable_rollups(id, &cfg);
        for s in 0..n as u64 {
            db.insert(
                id,
                SimTime::from_secs(1 + s),
                offset + ((s * 17) % 251) as f64,
            );
        }
        let mut sink = MemorySink::new();
        Exporter::new()
            .with_batch_records(64)
            .drain(&db, &mut sink)
            .unwrap();
        sink.batches
    }

    /// One node sweeping `metrics` gauges once per batch, quantised
    /// readings on a random walk: what the live path ships, and the
    /// exporter's totals.
    pub(crate) fn sweep_batches(sweeps: u64, metrics: u32) -> (Vec<ExportBatch>, DrainStats) {
        let mut db = Tsdb::with_retention(1 << 12);
        for m in 0..metrics {
            db.register(MetricMeta::gauge(
                format!("m{m}"),
                "u",
                SourceDomain::Hardware,
            ));
        }
        let (mut exporter, mut sink) = (Exporter::new(), MemorySink::new());
        let mut walk = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..sweeps {
            for m in 0..metrics {
                walk = walk
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let step = (walk >> 61) as f64 * 0.25;
                let value = 180.0 + f64::from(m) + step + (i % 7) as f64 * 0.5;
                db.insert(MetricId(m), SimTime::from_secs(1 + i), value);
            }
            exporter.drain(&db, &mut sink).unwrap();
        }
        (sink.batches, exporter.totals())
    }

    /// Every raw sample of every fleet metric, bit for bit.
    pub(crate) fn raw_answers(agg: &FleetAggregator) -> Vec<(u32, u64, u64)> {
        let store = agg.store();
        (0..store.cardinality() as u32)
            .flat_map(|m| {
                store
                    .raw(MetricId(m))
                    .iter()
                    .map(move |s| (m, s.t.0, s.value.to_bits()))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn socket_ingest_round_trips_and_authenticates() {
        let dir = test_dir("roundtrip");
        let fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let listener =
            FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), "sesame").unwrap();
        let addr = listener.local_addr().to_string();

        // Wrong token is rejected and counted.
        assert_eq!(
            SocketSink::connect(&addr, "intruder", "wrong")
                .err()
                .map(|e| e.kind()),
            Some(io::ErrorKind::PermissionDenied)
        );

        let batches = node_batches(1500, 0.0);
        let mut sink = SocketSink::connect(&addr, "node00", "sesame").unwrap();
        for batch in &batches {
            sink.write_batch(batch).unwrap();
        }
        sink.send_drain(&Exporter::new().totals()).unwrap();
        sink.wait_idle().unwrap();
        assert_eq!(sink.unacked_len(), 0);
        assert_eq!(sink.reconnects(), 0);
        drop(sink);

        assert_eq!(listener.auth_failures(), 1);
        let shared = listener.shutdown();
        let fleet = shared.lock().unwrap();
        let node = fleet.find_node("node00").expect("session opened");
        assert_eq!(fleet.next_seq(node), batches.len() as u64);
        let counters = fleet.aggregator().counters(node);
        assert_eq!(counters.batches, batches.len() as u64);
        assert_eq!(counters.duplicate_batches, 0);
        assert_eq!(counters.gaps, 0);
        let store = fleet.store();
        let id = store.lookup("node00/m").unwrap();
        assert_eq!(store.raw(id).len().min(1500), store.raw(id).len());
        let got = store
            .fleet_window_agg(
                "m",
                SimTime::from_secs(1501),
                SimDuration::from_secs(1501),
                WindowAgg::Count,
            )
            .unwrap();
        assert_eq!(got, 1500.0);
        drop(fleet);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The framed `HELLO` of node `name`.
    pub(crate) fn hello_frame(name: &str, token: &str) -> Vec<u8> {
        let mut hello = Vec::new();
        put_str(&mut hello, token);
        put_str(&mut hello, name);
        let mut frame = Vec::new();
        write_frame(&mut frame, frame_tag::HELLO, &hello).unwrap();
        frame
    }

    /// Raw test peer: dial, `HELLO`, and check the `HELLO_ACK` reports
    /// cursor 0 — a client that owns its own socket writes and reads.
    pub(crate) fn raw_ingest_session(addr: &str, name: &str, token: &str) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&hello_frame(name, token)).unwrap();
        let (tag, ack) = read_frame(&mut stream).unwrap().expect("hello ack");
        assert_eq!(tag, frame_tag::HELLO_ACK);
        assert_eq!(ack[..9], [0u8; 9], "status ok, cursor 0");
        stream
    }

    pub(crate) fn batch_frames(batches: &[ExportBatch]) -> Vec<u8> {
        let mut frames = Vec::new();
        for batch in batches {
            let mut payload = Vec::new();
            encode_batch(batch, &mut payload);
            write_frame(&mut frames, frame_tag::BATCH, &payload).unwrap();
        }
        frames
    }

    #[test]
    fn a_query_never_sees_a_sample_whose_log_bytes_are_still_buffered() {
        use moda_telemetry::wire::{parse_frame, FrameParse};
        use moda_telemetry::MetricId;
        const SWEEPS: u64 = 2_000;
        const METRICS: u32 = 64;
        const BURST: usize = 16;
        let dir = test_dir("query_vs_burst");
        // No snapshot on the way: the whole stream stays in `wal-0.log`.
        let no_cadence = DurabilityConfig {
            snapshot_every_batches: u64::MAX,
        };
        let fleet = DurableFleet::open(&dir, no_cadence).unwrap();
        let listener =
            FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), "tok").unwrap();
        let addr = listener.local_addr().to_string();

        // One sweep of 64 plain gauges per batch (no tiers: a count is a
        // raw count), so `m0` holds one sample per applied batch.
        let batches: Vec<ExportBatch> = (0..SWEEPS)
            .map(|seq| {
                let metas = (0..METRICS)
                    .filter(|_| seq == 0)
                    .map(|m| ExportRecord::Meta {
                        id: MetricId(m),
                        meta: MetricMeta::gauge(format!("m{m}"), "u", SourceDomain::Hardware),
                    });
                let samples = (0..METRICS).map(|m| ExportRecord::Sample {
                    id: MetricId(m),
                    t: SimTime(1 + seq),
                    value: f64::from(m),
                });
                ExportBatch {
                    seq,
                    records: metas.chain(samples).collect(),
                }
            })
            .collect();

        // The writer: bursts of 16 frames per `write_all`, acks read
        // only at the end (they fit the socket buffer).
        let writer = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut stream = raw_ingest_session(&addr, "node00", "tok");
                for burst in batches.chunks(BURST) {
                    stream.write_all(&batch_frames(burst)).unwrap();
                }
                for _ in 0..SWEEPS {
                    let (tag, _) = read_frame(&mut stream).unwrap().expect("ack");
                    assert_eq!(tag, frame_tag::ACK);
                }
            })
        };

        // Batches in the log file as a reader of the disk sees it now.
        let logged = || -> u64 {
            let bytes = fs::read(dir.join("wal-0.log")).unwrap();
            let (mut at, mut batches) = (0, 0);
            while let FrameParse::Frame { tag, consumed, .. } = parse_frame(&bytes[at..]) {
                at += consumed;
                batches += u64::from(tag == crate::persist::FRAME_LOG_BATCH);
            }
            batches
        };

        // The reader: whatever an answer has seen applied, the log on
        // disk — read *after* the answer — already holds.
        let mut client = FleetClient::connect(&addr, "tok").unwrap();
        let (mut seen, mut distinct) = (0u64, 0usize);
        while seen < SWEEPS {
            let answered = client
                .window_agg(
                    "m0",
                    SimTime(SWEEPS + 1),
                    SimDuration(SWEEPS + 1),
                    WindowAgg::Count,
                )
                .map_or(0, |a| a.value.unwrap_or(0.0) as u64);
            let on_disk = logged();
            assert!(
                on_disk >= answered,
                "a query saw {answered} batches applied, the log holds {on_disk}"
            );
            assert!(answered >= seen, "answers went backwards");
            distinct += usize::from(answered > seen);
            seen = answered;
        }
        writer.join().unwrap();
        assert!(distinct >= 1);
        drop(client);
        listener.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_is_capped_exponential_with_bounded_jitter() {
        let cfg = TransportConfig {
            reconnect_pause: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(400),
            ..TransportConfig::default()
        };
        for salt in 0..64u64 {
            let d1 = cfg.backoff(1, salt);
            let d2 = cfg.backoff(2, salt);
            let d4 = cfg.backoff(4, salt);
            assert!(d1 >= Duration::from_millis(100) && d1 < Duration::from_millis(126));
            assert!(d2 >= Duration::from_millis(200) && d2 < Duration::from_millis(251));
            // 100ms * 2^3 = 800ms, capped at 400ms (+25% jitter).
            assert!(d4 >= Duration::from_millis(400) && d4 < Duration::from_millis(501));
        }
        // Determinism: same salt, same pause.
        assert_eq!(cfg.backoff(3, 7), cfg.backoff(3, 7));
        // Jitter spreads: not every salt lands on the same pause.
        assert!((0..64).any(|s| cfg.backoff(1, s) != cfg.backoff(1, s + 64)));
    }
}
