//! Socket-framed wire transport: `export-wire-v1.2` batches over plain
//! `std::net` TCP (hermetic — no async runtime, no TLS, no new deps).
//!
//! The way into the fleet tier from another thread or process (within
//! one thread a caller hands batches to
//! [`crate::FleetAggregator::ingest`] directly). Framing is the
//! CRC-protected envelope from
//! `moda_telemetry::wire::write_frame`; on top of it the ingest
//! protocol (tags 1–5) and, sharing the same listener, the read-only
//! query protocol (tags 6–9, codec in [`crate::query`]):
//!
//! | tag | dir | payload |
//! |-----|-----|---------|
//! | `HELLO` (1) | node → fleet | auth token · node name |
//! | `HELLO_ACK` (2) | fleet → node | status `u8` (0 ok, 1 bad token) · `next_seq u64` |
//! | `BATCH` (3) | node → fleet | one encoded [`ExportBatch`] |
//! | `ACK` (4) | fleet → node | cumulative `next_seq u64` after applying |
//! | `DRAIN` (5) | node → fleet | encoded exporter [`DrainStats`] |
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
//! **Resume contract.** The server's `HELLO_ACK` carries the node
//! session's *persisted* cursor ([`crate::DurableFleet::next_seq`]).
//! A reconnecting [`SocketSink`] drops every buffered batch below that
//! cursor (the server has them durably), re-sends the rest, and
//! continues — the exporter side never rewinds to `seq 0`, and
//! anything the server already applied bounces off the duplicate
//! guard. This handshake is also the node-re-registration policy: a
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

use crate::persist::DurableFleet;
use crate::query::{
    decode_request, decode_response, encode_request, encode_response, execute, CoveredAnswer,
    CoveredTopNodesAnswer, HealthAnswer, MetricsAnswer, QueryError, QueryErrorCode, QueryRequest,
    QueryResponse, ScalarAnswer, SelfStatAnswer, TopNodeEntry, QUERY_PROTOCOL_VERSION,
};
use crate::store::{NodeId, Rank};
use moda_obs::{LatencyRecorder, Obs};
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::export::{ExportBatch, ExportRecord, Sink};
use moda_telemetry::wire::{
    bad_data, decode_drain_stats, encode_batch, encode_drain_stats, frame_tag, put_str, put_u16,
    put_u64, read_frame, read_frame_into, write_frame, FrameBuffer, FrameEnd, WireReader,
};
use moda_telemetry::DrainStats;
use moda_telemetry::WindowAgg;
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
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

// ------------------------------------------------- buffered connection

/// One TCP connection behind the two buffers the frame codec needs:
/// `write_frame` issues three small writes per frame and `read_frame`
/// three reads, so on a bare `TCP_NODELAY` socket every frame — a
/// 17-byte `ACK` included — costs three syscalls each way. Behind the
/// halves a frame that fits the buffer is one `send` (every writer
/// flushes once its frames are written) and a burst of acks one
/// `recv`; a payload larger than the buffer bypasses it uncopied.
/// Both halves are the same socket, so the timeouts set at dial time
/// bound reads and writes alike.
#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    /// Dial `addr` with `TCP_NODELAY` and `io_timeout` bounding the
    /// connect and every later read and write: a half-open peer must
    /// surface as an error (and a reconnect), not a hang.
    fn dial(addr: &str, io_timeout: Option<Duration>) -> io::Result<Conn> {
        let stream = match io_timeout {
            Some(timeout) => {
                // `connect_timeout` needs a resolved address; try each
                // candidate like `TcpStream::connect` would.
                let mut last = None;
                let mut stream = None;
                for addr in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&addr, timeout) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                stream.ok_or_else(|| {
                    last.unwrap_or_else(|| bad_data("address resolved to nothing"))
                })?
            }
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(io_timeout).ok();
        stream.set_write_timeout(io_timeout).ok();
        Ok(Conn {
            writer: BufWriter::new(stream.try_clone()?),
            reader: BufReader::new(stream),
        })
    }

    /// Dial `addr` and authenticate: send `hello` under `hello_tag`,
    /// read the `ack_tag` answer — a status byte, then whatever the
    /// role's `ack` parses after it — and fail with `PermissionDenied`
    /// on a nonzero status.
    fn open<T>(
        addr: &str,
        io_timeout: Option<Duration>,
        hello_tag: u8,
        hello: &[u8],
        ack_tag: u8,
        ack: impl FnOnce(&mut WireReader<'_>) -> io::Result<T>,
    ) -> io::Result<(Conn, T)> {
        let mut conn = Conn::dial(addr, io_timeout)?;
        conn.send(hello_tag, hello)?;
        let (tag, payload) = match conn.recv()? {
            Ok(frame) => frame,
            Err(_) => return Err(bad_data("connection closed during handshake")),
        };
        if tag != ack_tag {
            return Err(bad_data("unexpected handshake response tag"));
        }
        let mut r = WireReader::new(&payload);
        let status = r.u8()?;
        let answer = ack(&mut r)?;
        if status != 0 {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "fleet listener rejected the auth token",
            ));
        }
        Ok((conn, answer))
    }

    /// Write one frame and flush it: one `send` when it fits the buffer.
    fn send(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, tag, payload)?;
        self.writer.flush()
    }

    /// Read the next frame ([`read_frame`] over the buffered half).
    fn recv(&mut self) -> io::Result<Result<(u8, Vec<u8>), FrameEnd>> {
        read_frame(&mut self.reader)
    }

    /// [`Conn::recv`] into a payload buffer the caller keeps.
    fn recv_into(&mut self, payload: &mut Vec<u8>) -> io::Result<Result<u8, FrameEnd>> {
        read_frame_into(&mut self.reader, payload)
    }
}

/// Re-dial with bounded retries (server restarts take a moment): up to
/// [`TransportConfig::reconnect_attempts`] calls of `handshake`, pausing
/// with capped exponential backoff + jitter between them (see
/// [`TransportConfig::backoff`]). The jitter salt is stable per
/// `identity`, different per dial attempt and per reconnect `episode`.
/// A bad token fails at once: retrying never heals it.
fn redial(
    cfg: &TransportConfig,
    identity: &str,
    episode: u64,
    mut handshake: impl FnMut() -> io::Result<()>,
) -> io::Result<()> {
    let mut last = None;
    let mut salt = identity
        .bytes()
        .fold(episode, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
    for attempt in 0..cfg.reconnect_attempts.max(1) {
        if attempt > 0 {
            salt = salt.wrapping_add(attempt as u64);
            std::thread::sleep(cfg.backoff(attempt, salt));
        }
        match handshake() {
            Ok(()) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::PermissionDenied => return Err(e),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| bad_data("reconnect failed")))
}

// ---------------------------------------------------------- socket sink

/// Exporter-side [`Sink`] that ships batches over TCP with handshake,
/// bounded in-flight window, and reconnect-with-resume (module docs).
#[derive(Debug)]
pub struct SocketSink {
    addr: String,
    token: String,
    node_name: String,
    cfg: TransportConfig,
    conn: Option<Conn>,
    /// Sent but not yet acknowledged, oldest first: `(seq, payload)`.
    unacked: VecDeque<(u64, Vec<u8>)>,
    /// Emptied payload buffers off `unacked`, at most a window of them:
    /// the next batch (or drain report) encodes into one instead of
    /// growing a fresh `Vec`.
    spare: Vec<Vec<u8>>,
    /// The last frame read while awaiting acks.
    inbox: Vec<u8>,
    /// The server's cumulative cursor from the latest ack/handshake.
    server_next_seq: u64,
    reconnects: u64,
    /// `next_seq` the server reported at the most recent handshake.
    last_resume_seq: u64,
    /// Batches re-sent from the replay buffer across all reconnects.
    resent_batches: u64,
    /// Retry work (`reconnects + resent_batches`) already folded into a
    /// delivered drain report — `send_drain` ships only the delta, so
    /// the server (which merges drain payloads additively) never
    /// double-counts.
    retries_reported: u64,
}

impl SocketSink {
    /// Connect and handshake. `node_name` identifies the session on the
    /// server; `token` must match the listener's.
    pub fn connect(addr: &str, node_name: &str, token: &str) -> io::Result<Self> {
        Self::connect_with(addr, node_name, token, TransportConfig::default())
    }

    /// [`SocketSink::connect`] with explicit tuning.
    pub fn connect_with(
        addr: &str,
        node_name: &str,
        token: &str,
        cfg: TransportConfig,
    ) -> io::Result<Self> {
        let mut sink = SocketSink {
            addr: addr.to_string(),
            token: token.to_string(),
            node_name: node_name.to_string(),
            cfg,
            conn: None,
            unacked: VecDeque::new(),
            spare: Vec::new(),
            inbox: Vec::new(),
            server_next_seq: 0,
            reconnects: 0,
            last_resume_seq: 0,
            resent_batches: 0,
            retries_reported: 0,
        };
        sink.handshake()?;
        Ok(sink)
    }

    /// Re-point the sink at a moved server (e.g. a fleet tier that
    /// restarted on a new port). The live connection is dropped; the
    /// next send reconnects, handshakes, and resumes from the new
    /// server's persisted cursor — buffered unacked batches replay
    /// exactly like any other reconnect.
    pub fn redirect(&mut self, addr: &str) {
        self.addr = addr.to_string();
        self.conn = None;
    }

    /// Dial, authenticate, learn the server's persisted cursor, and
    /// re-send any buffered batches it has not applied.
    fn handshake(&mut self) -> io::Result<()> {
        let mut hello = Vec::new();
        put_str(&mut hello, &self.token);
        put_str(&mut hello, &self.node_name);
        let (mut conn, next_seq) = Conn::open(
            &self.addr,
            self.cfg.io_timeout,
            frame_tag::HELLO,
            &hello,
            frame_tag::HELLO_ACK,
            |r| r.u64(),
        )?;
        self.server_next_seq = next_seq;
        self.last_resume_seq = next_seq;
        // Drop what the server has durably applied; replay the rest.
        self.release_acked();
        for (_, payload) in &self.unacked {
            write_frame(&mut conn.writer, frame_tag::BATCH, payload)?;
            self.resent_batches += 1;
        }
        conn.writer.flush()?;
        self.conn = Some(conn);
        Ok(())
    }

    /// Drop the connection and [`redial`].
    fn reconnect(&mut self) -> io::Result<()> {
        self.conn = None;
        let cfg = self.cfg.clone();
        let identity = self.node_name.clone();
        redial(&cfg, &identity, self.reconnects, || self.handshake())?;
        self.reconnects += 1;
        Ok(())
    }

    /// Drop every buffered batch below the server's cursor, keeping the
    /// emptied payload buffers for the batches to come.
    fn release_acked(&mut self) {
        while matches!(self.unacked.front(), Some((seq, _)) if *seq < self.server_next_seq) {
            let (_, payload) = self.unacked.pop_front().expect("front matched");
            self.recycle(payload);
        }
    }

    /// Keep an emptied payload buffer for a later frame, up to a
    /// window of them.
    fn recycle(&mut self, mut payload: Vec<u8>) {
        if self.spare.len() < self.cfg.window.max(1) {
            payload.clear();
            self.spare.push(payload);
        }
    }

    /// Fold the frame just received into `inbox` — which must be an
    /// `ACK` — into the replay buffer: its cursor is cumulative.
    fn note_ack(&mut self, tag: u8) -> io::Result<()> {
        if tag != frame_tag::ACK {
            return Err(bad_data("unexpected frame while awaiting ack"));
        }
        let next = WireReader::new(&self.inbox).u64()?;
        self.server_next_seq = self.server_next_seq.max(next);
        self.release_acked();
        Ok(())
    }

    /// Read acks until at most `allowed` batches remain unacknowledged.
    /// Reconnects (and replays) if the connection drops mid-wait.
    fn pump_acks(&mut self, allowed: usize) -> io::Result<()> {
        while self.unacked.len() > allowed {
            let res = self
                .conn
                .as_mut()
                .ok_or_else(|| bad_data("not connected"))?
                .recv_into(&mut self.inbox);
            match res {
                Ok(Ok(tag)) => self.note_ack(tag)?,
                Ok(Err(_)) | Err(_) => self.reconnect()?,
            }
        }
        Ok(())
    }

    /// Block until the server has acknowledged every sent batch — the
    /// exporter-side drain barrier before shutdown.
    pub fn wait_idle(&mut self) -> io::Result<()> {
        self.pump_acks(0)
    }

    /// Read exactly `n` `ACK` frames, folding each cumulative cursor
    /// into the replay buffer. Unlike [`SocketSink::pump_acks`] this
    /// does not auto-reconnect: the caller is counting acks for a frame
    /// it just sent, and a reconnect means that frame must be resent
    /// before any further acks are owed.
    fn read_acks_counted(&mut self, mut n: usize) -> io::Result<()> {
        while n > 0 {
            let conn = self
                .conn
                .as_mut()
                .ok_or_else(|| bad_data("not connected"))?;
            match conn.recv_into(&mut self.inbox)? {
                Ok(tag) => self.note_ack(tag)?,
                Err(_) => return Err(bad_data("torn frame while awaiting ack")),
            }
            n -= 1;
        }
        Ok(())
    }

    /// Ship the exporter's drain totals out-of-band and block until the
    /// server acknowledges them durable — the same ack-after-durable
    /// contract batches get, so a `kill -9` right after this returns
    /// cannot lose the totals. Totals overwrite idempotently, which is
    /// what makes redelivery after a mid-call reconnect safe.
    pub fn send_drain(&mut self, stats: &DrainStats) -> io::Result<()> {
        let mut last = None;
        for _ in 0..3 {
            if self.conn.is_none() {
                match self.reconnect() {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::PermissionDenied => return Err(e),
                    Err(e) => {
                        last = Some(e);
                        continue;
                    }
                }
            }
            // Piggyback this sink's *unreported* retry work onto the
            // drain report. The server merges drain payloads
            // additively, so only the delta since the last delivered
            // report goes out — committed below once the server acks.
            // Re-derived per attempt: a reconnect inside this loop
            // grows the delta.
            let retries_total = self.reconnects + self.resent_batches;
            let mut out = *stats;
            out.send_retries += retries_total - self.retries_reported;
            let mut payload = self.spare.pop().unwrap_or_default();
            encode_drain_stats(&out, &mut payload);
            // The server acks in frame order: one ack per in-flight
            // batch ahead of the drain, then the drain's own ack.
            let pending = self.unacked.len();
            let res = self
                .conn
                .as_mut()
                .expect("connected")
                .send(frame_tag::DRAIN, &payload)
                .and_then(|()| self.read_acks_counted(pending + 1));
            self.recycle(payload);
            match res {
                Ok(()) => {
                    self.retries_reported = retries_total;
                    return Ok(());
                }
                Err(e) => {
                    self.conn = None;
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| bad_data("drain delivery failed")))
    }

    /// Times the sink re-dialed and resumed from the server's cursor.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The persisted cursor the server reported at the last handshake
    /// — nonzero after a resume proves nothing replayed from `seq 0`.
    pub fn last_resume_seq(&self) -> u64 {
        self.last_resume_seq
    }

    /// Batches re-delivered from the replay buffer across reconnects.
    pub fn resent_batches(&self) -> u64 {
        self.resent_batches
    }

    /// Batches sent but not yet acknowledged.
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }
}

impl Sink for SocketSink {
    fn write_batch(&mut self, batch: &ExportBatch) -> io::Result<()> {
        let mut payload = self.spare.pop().unwrap_or_default();
        encode_batch(batch, &mut payload);
        // Two passes: the live connection, then one reconnect cycle.
        // Only on success does the batch enter the replay buffer — on
        // Err the exporter rolls back and will re-stage these records
        // under the same seq later.
        let mut attempt = 0;
        loop {
            if self.conn.is_none() {
                self.reconnect()?;
            }
            let conn = self.conn.as_mut().expect("connected");
            match conn.send(frame_tag::BATCH, &payload) {
                Ok(()) => break,
                Err(e) => {
                    self.conn = None;
                    attempt += 1;
                    if attempt >= 2 {
                        return Err(e);
                    }
                }
            }
        }
        self.unacked.push_back((batch.seq, payload));
        // Bounded in-flight window: block on acks past it.
        let window = self.cfg.window.max(1);
        self.pump_acks(window.saturating_sub(1))
    }
}

// ----------------------------------------------------- fault injection

/// Fault-injection probabilities for a [`ChaosSink`]. All default to
/// zero; the seed makes every fault schedule reproducible.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Deterministic RNG seed (runs with equal seeds inject the same
    /// fault sequence).
    pub seed: u64,
    /// Probability a batch is silently discarded after `Ok` — permanent
    /// frame loss the exporter will *not* re-stage, surfacing as a
    /// cursor gap at the aggregator.
    pub drop_prob: f64,
    /// Probability a batch is delivered twice — exercises the
    /// duplicate-batch guard.
    pub dup_prob: f64,
    /// Probability a batch is held back and delivered *after* the next
    /// one — frame delay/reordering; the late frame bounces off the
    /// session cursor (gap, then duplicate).
    pub delay_prob: f64,
    /// Probability one byte of a chunk payload is flipped in flight —
    /// payload corruption below the frame CRC's reach (the CRC covers
    /// the socket hop, not a buggy middlebox re-framing batches).
    pub corrupt_prob: f64,
    /// Probability the write fails with `BrokenPipe` — a mid-frame
    /// disconnect; the exporter rolls back and re-stages the same
    /// records under the same seq, so this is *recoverable* loss.
    pub fail_prob: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            corrupt_prob: 0.0,
            fail_prob: 0.0,
        }
    }
}

/// Faults a [`ChaosSink`] has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Batches delivered unharmed.
    pub passed: u64,
    /// Batches discarded after `Ok` (permanent loss).
    pub dropped: u64,
    /// Batches delivered twice.
    pub duplicated: u64,
    /// Batches delivered out of order.
    pub delayed: u64,
    /// Batches with a flipped payload byte.
    pub corrupted: u64,
    /// Writes failed with `BrokenPipe` (recoverable: exporter rolls
    /// back), including every write while partitioned.
    pub failed: u64,
}

/// A [`Sink`] adapter that injects transport faults between an exporter
/// and the real sink: frame drop, duplication, delay/reorder, payload
/// corruption, write failure, and an explicit partition switch
/// ([`ChaosSink::set_partitioned`]) for link-level node isolation. The
/// chaos scenarios in `moda-hpc`/`moda-usecases` wrap each node's
/// transport in one of these to prove the fleet tier degrades
/// gracefully instead of serving corrupt or stale answers.
#[derive(Debug)]
pub struct ChaosSink<S> {
    inner: S,
    cfg: ChaosConfig,
    rng: u64,
    held: Option<ExportBatch>,
    partitioned: bool,
    stats: ChaosStats,
}

impl<S: Sink> ChaosSink<S> {
    /// Wrap `inner` with the given fault schedule.
    pub fn new(inner: S, cfg: ChaosConfig) -> Self {
        ChaosSink {
            inner,
            rng: cfg.seed.max(1),
            cfg,
            held: None,
            partitioned: false,
            stats: ChaosStats::default(),
        }
    }

    /// Sever (or heal) the link. While partitioned every write fails —
    /// the exporter rolls back its cursors each drain and the node's
    /// data catches up after the heal, exactly like a real network
    /// partition.
    pub fn set_partitioned(&mut self, partitioned: bool) {
        self.partitioned = partitioned;
    }

    /// Whether the link is currently severed.
    pub fn partitioned(&self) -> bool {
        self.partitioned
    }

    /// Faults injected so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped sink, mutably (e.g. to take a `MemorySink`'s
    /// delivered batches).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn next(&mut self) -> u64 {
        // xorshift64 — deterministic, dependency-free.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

impl<S: Sink> Sink for ChaosSink<S> {
    fn write_batch(&mut self, batch: &ExportBatch) -> io::Result<()> {
        if self.partitioned || self.roll(self.cfg.fail_prob) {
            self.stats.failed += 1;
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "chaos: link down",
            ));
        }
        if self.held.is_none() && self.roll(self.cfg.delay_prob) {
            // Hold this frame; it goes out (late) behind the next one.
            self.held = Some(batch.clone());
            self.stats.delayed += 1;
            return Ok(());
        }
        if self.roll(self.cfg.drop_prob) {
            self.stats.dropped += 1;
        } else {
            let out = if self.roll(self.cfg.corrupt_prob) {
                let mut out = batch.clone();
                let mut flipped = false;
                for rec in &mut out.records {
                    if let ExportRecord::Chunk { bytes, .. } = rec {
                        if !bytes.is_empty() {
                            let at = bytes.len() / 2;
                            bytes[at] ^= 0x40;
                            flipped = true;
                            break;
                        }
                    }
                }
                if flipped {
                    self.stats.corrupted += 1;
                }
                std::borrow::Cow::Owned(out)
            } else {
                std::borrow::Cow::Borrowed(batch)
            };
            self.inner.write_batch(&out)?;
            self.stats.passed += 1;
            if self.roll(self.cfg.dup_prob) {
                self.stats.duplicated += 1;
                self.inner.write_batch(&out)?;
            }
        }
        if let Some(late) = self.held.take() {
            // The delayed frame lands after a newer seq: the aggregator
            // sees a gap, then rejects it as a duplicate.
            self.inner.write_batch(&late)?;
        }
        Ok(())
    }
}

// ------------------------------------------------------------- listener

/// Accept-loop server: framed TCP connections feeding a shared
/// [`DurableFleet`]. Every applied batch is durable (logged) before its
/// `ACK` goes out, which is what makes the resume contract sound.
#[derive(Debug)]
pub struct FleetListener {
    local_addr: SocketAddr,
    fleet: Arc<Mutex<DurableFleet>>,
    stop: Arc<AtomicBool>,
    auth_failures: Arc<AtomicU64>,
    queries_served: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl FleetListener {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting sessions
    /// authenticated by `token`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        fleet: Arc<Mutex<DurableFleet>>,
        token: &str,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let auth_failures = Arc::new(AtomicU64::new(0));
        let queries_served = Arc::new(AtomicU64::new(0));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let fleet = Arc::clone(&fleet);
            let stop = Arc::clone(&stop);
            let auth_failures = Arc::clone(&auth_failures);
            let queries_served = Arc::clone(&queries_served);
            let conn_threads = Arc::clone(&conn_threads);
            let token = token.to_string();
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let fleet = Arc::clone(&fleet);
                    let stop = Arc::clone(&stop);
                    let auth_failures = Arc::clone(&auth_failures);
                    let queries_served = Arc::clone(&queries_served);
                    let token = token.clone();
                    let handle = std::thread::spawn(move || {
                        let _ = serve_connection(
                            stream,
                            &fleet,
                            &token,
                            &stop,
                            &auth_failures,
                            &queries_served,
                        );
                    });
                    // Track live sessions only: a service that outlives
                    // its reconnecting exporters and short-lived
                    // dashboards must not keep a handle per connection
                    // ever made. (A finished session's result is
                    // ignored at `shutdown` too.)
                    let mut threads = conn_threads.lock().unwrap();
                    threads.retain(|h| !h.is_finished());
                    threads.push(handle);
                }
            })
        };
        Ok(FleetListener {
            local_addr,
            fleet,
            stop,
            auth_failures,
            queries_served,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The bound address (with the real port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared fleet this listener feeds.
    pub fn fleet(&self) -> Arc<Mutex<DurableFleet>> {
        Arc::clone(&self.fleet)
    }

    /// Sessions rejected for a bad auth token.
    pub fn auth_failures(&self) -> u64 {
        self.auth_failures.load(Ordering::SeqCst)
    }

    /// Query frames answered (including typed refusals) across every
    /// query session this listener has served.
    pub fn queries_served(&self) -> u64 {
        self.queries_served.load(Ordering::SeqCst)
    }

    /// Stop accepting, drain connection threads, and hand back the
    /// shared fleet.
    pub fn shutdown(mut self) -> Arc<Mutex<DurableFleet>> {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway dial.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.conn_threads.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
        Arc::clone(&self.fleet)
    }
}

/// What a connection's first frame committed it to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionRole {
    /// No hello yet.
    Pending,
    /// Ingest session for one registered node.
    Ingest(NodeId),
    /// Authenticated read-only query session.
    Query,
}

/// One authenticated session: the first frame picks the role (`HELLO`
/// → ingest, `QUERY_HELLO` → read-only query), then the matching
/// request loop runs. Returns when the peer disconnects, corrupts the
/// envelope, crosses roles (ingest frames on a query session and vice
/// versa), or the listener shuts down. Malformed query *payloads*
/// inside a valid envelope do **not** end the session — they are
/// answered with a typed `Error` response.
///
/// **Flush discipline.** Every response frame is written to the
/// buffered write half as its request is handled — one `ACK` per
/// `BATCH`/`DRAIN`, in frame order, after log-and-apply — and the half
/// is flushed when the receive buffer holds no further complete frame,
/// i.e. right before the session blocks in `read`, and on every return
/// path. A lone frame is answered as promptly as ever; a burst of N
/// buffered batches is acknowledged with one `send` instead of N.
fn serve_connection(
    mut stream: TcpStream,
    fleet: &Arc<Mutex<DurableFleet>>,
    token: &str,
    stop: &Arc<AtomicBool>,
    auth_failures: &Arc<AtomicU64>,
    queries_served: &Arc<AtomicU64>,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .ok();
    let mut out = BufWriter::new(stream.try_clone()?);
    let served = serve_frames(
        &mut stream,
        &mut out,
        fleet,
        token,
        stop,
        auth_failures,
        queries_served,
    );
    // Whatever the session answered before it ended — a refusal, acks
    // for frames already durable — still goes out.
    let flushed = out.flush();
    served.and(flushed)
}

/// The request loop of [`serve_connection`], which owns flushing `out`
/// on the way out.
fn serve_frames(
    stream: &mut TcpStream,
    out: &mut BufWriter<TcpStream>,
    fleet: &Arc<Mutex<DurableFleet>>,
    token: &str,
    stop: &Arc<AtomicBool>,
    auth_failures: &Arc<AtomicU64>,
    queries_served: &Arc<AtomicU64>,
) -> io::Result<()> {
    let mut frames = FrameBuffer::new();
    let mut tmp = [0u8; 64 * 1024];
    let mut role = SessionRole::Pending;
    // Per-session scratch, reused for every burst and every query.
    let mut cursors = Vec::new();
    let mut serve_obs = ServeObs::default();
    loop {
        // Connection reads use short timeouts (so shutdown is prompt);
        // the buffer keeps whatever a timed-out read left half-received.
        loop {
            if let SessionRole::Ingest(id) = role {
                // Every complete frame the buffer holds, as one burst.
                let taken = ingest_burst(&mut frames, fleet, id, &mut cursors);
                for cursor in cursors.drain(..) {
                    write_frame(out, frame_tag::ACK, &cursor.to_le_bytes())?;
                }
                taken?;
                break;
            }
            match frames.next_frame() {
                Ok(None) => break,
                Err(_) => return Err(bad_data("corrupt frame on ingest connection")),
                Ok(Some((tag, payload))) => match (tag, role) {
                    (frame_tag::HELLO | frame_tag::QUERY_HELLO, SessionRole::Pending) => {
                        // Both hellos lead with the token and are
                        // answered by a status byte plus the role's own
                        // field; a bad token is answered at status 1,
                        // counted, and ends the session.
                        let mut r = WireReader::new(payload);
                        let admitted = r.str()? == token;
                        let mut ack = vec![u8::from(!admitted)];
                        let ack_tag = if tag == frame_tag::HELLO {
                            let name = r.str()?;
                            let next_seq = if admitted {
                                let mut fleet = fleet.lock().unwrap();
                                let id = fleet.add_node(&name)?;
                                role = SessionRole::Ingest(id);
                                fleet.next_seq(id)
                            } else {
                                0
                            };
                            put_u64(&mut ack, next_seq);
                            frame_tag::HELLO_ACK
                        } else {
                            // Read-only role: no node registration, so a
                            // query client never shows up in health or
                            // coverage answers.
                            if admitted {
                                role = SessionRole::Query;
                            }
                            put_u16(&mut ack, QUERY_PROTOCOL_VERSION);
                            frame_tag::QUERY_HELLO_ACK
                        };
                        write_frame(out, ack_tag, &ack)?;
                        if !admitted {
                            auth_failures.fetch_add(1, Ordering::SeqCst);
                            return Err(io::Error::new(
                                io::ErrorKind::PermissionDenied,
                                "bad auth token",
                            ));
                        }
                    }
                    (frame_tag::QUERY, SessionRole::Query) => {
                        // Count before the answer is written: a client
                        // that has read response N must observe the
                        // counter at >= N.
                        queries_served.fetch_add(1, Ordering::SeqCst);
                        answer_query(out, fleet, payload, &mut serve_obs)?;
                    }
                    (frame_tag::QUERY, _) => {
                        // A query without the handshake gets the typed
                        // refusal — and then the connection closes:
                        // nothing else is legal on it.
                        let refusal = QueryResponse::Error(QueryError::new(
                            QueryErrorCode::Unauthorized,
                            "query before query hello",
                        ));
                        let mut resp = Vec::new();
                        put_u64(&mut resp, request_id_of(payload));
                        encode_response(&refusal, &mut resp);
                        write_frame(out, frame_tag::QUERY_RESP, &resp)?;
                        return Err(bad_data("query frame on an unauthenticated session"));
                    }
                    _ => return Err(bad_data("frame before hello or unknown tag")),
                },
            }
        }
        // Nothing further to handle: answer everything handled so far
        // before blocking for more.
        out.flush()?;
        match stream.read(&mut tmp) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => frames.extend(&tmp[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Take every complete frame `frames` holds as one burst on `node`'s
/// ingest session: under **one** hold of the fleet lock each `BATCH` /
/// `DRAIN` is validated, logged and applied in arrival order, then the
/// log is flushed **once** and the lock released. `cursors` receives
/// the session cursor after each frame taken — one `ACK` each, which
/// the caller writes after this returns, so no socket write happens
/// under the lock and no ack exists before the flush. The burst is
/// bounded by what one receive left in the buffer; a lone frame is a
/// burst of one.
///
/// A frame that fails (validation, an illegal tag, a log write) ends
/// the burst and the session: frames before it are committed and
/// acknowledged, the failing frame leaves no trace. If the flush itself
/// fails nothing of the burst is acknowledged.
fn ingest_burst(
    frames: &mut FrameBuffer,
    fleet: &Mutex<DurableFleet>,
    node: NodeId,
    cursors: &mut Vec<u64>,
) -> io::Result<()> {
    let corrupt = |_| bad_data("corrupt frame on ingest connection");
    // An idle session must not take the lock just to find nothing.
    let Some(mut frame) = frames.next_frame().map_err(corrupt)? else {
        return Ok(());
    };
    let mut fleet = fleet.lock().unwrap();
    let mut burst = fleet.burst();
    let taken = loop {
        let (tag, payload) = frame;
        let step = match tag {
            frame_tag::BATCH => burst.batch(node, payload).map(drop),
            frame_tag::DRAIN => decode_drain_stats(payload).and_then(|s| burst.drain(node, &s)),
            _ => Err(bad_data("frame before hello or unknown tag")),
        };
        if let Err(e) = step {
            break Err(e);
        }
        cursors.push(burst.next_seq(node));
        frame = match frames.next_frame().map_err(corrupt) {
            Ok(Some(next)) => next,
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        };
    };
    if let Err(e) = burst.commit() {
        cursors.clear();
        return Err(e);
    }
    taken
}

/// The request id leading a `QUERY`/`QUERY_RESP` payload, or
/// `u64::MAX` when the payload is too short to carry one — the
/// sentinel a client can at least log against.
fn request_id_of(payload: &[u8]) -> u64 {
    WireReader::new(payload).u64().unwrap_or(u64::MAX)
}

/// Answer one `QUERY` frame on an authenticated query session. Every
/// outcome — including a payload that fails to decode — is a
/// `QUERY_RESP` frame; the session survives anything the envelope's
/// CRC let through. The planner runs under the fleet lock, so each
/// answer is a consistent snapshot even while ingest sessions stream.
fn answer_query(
    out: &mut BufWriter<TcpStream>,
    fleet: &Arc<Mutex<DurableFleet>>,
    payload: &[u8],
    obs: &mut ServeObs,
) -> io::Result<()> {
    let started = std::time::Instant::now();
    let id = request_id_of(payload);
    // A payload that does not decode is answered, not timed.
    let mut kind = None;
    let resp = if payload.len() < 8 {
        QueryResponse::Error(QueryError::new(
            QueryErrorCode::Malformed,
            "query frame shorter than its request id",
        ))
    } else {
        match decode_request(&payload[8..]) {
            Ok(req) => {
                kind = Some(request_kind(&req));
                let fleet = fleet.lock().unwrap();
                obs.follow(fleet.obs());
                execute(fleet.aggregator(), &req)
            }
            Err(e) => QueryResponse::Error(e),
        }
    };
    let mut frame = Vec::new();
    put_u64(&mut frame, id);
    encode_response(&resp, &mut frame);
    write_frame(out, frame_tag::QUERY_RESP, &frame)?;
    // Serve latency: decode + planner-under-lock + respond (the write
    // half's flush is the caller's, once per receive burst).
    if let Some(kind) = kind {
        obs.record(kind, started);
    }
    Ok(())
}

/// The `query.serve.<kind>_ns` labels, indexed by [`request_kind`].
const SERVE_KINDS: [&str; 7] = [
    "window_agg",
    "top_nodes",
    "health",
    "covered_window_agg",
    "covered_top_nodes",
    "metrics",
    "selfstat",
];

/// Index into [`SERVE_KINDS`] of a request's per-kind instrument.
fn request_kind(req: &QueryRequest) -> usize {
    match req {
        QueryRequest::WindowAgg { .. } => 0,
        QueryRequest::TopNodes { .. } => 1,
        QueryRequest::Health { .. } => 2,
        QueryRequest::CoveredWindowAgg { .. } => 3,
        QueryRequest::CoveredTopNodes { .. } => 4,
        QueryRequest::Metrics => 5,
        QueryRequest::SelfStat { .. } => 6,
    }
}

/// One query session's serve-latency instruments: `query.serve_ns`
/// (the fleet-mergeable `__self/` axis) and `query.serve.<kind>_ns`,
/// against the handle the fleet carries (`DurableFleet::set_obs`). Each
/// recorder is resolved the first time its kind is served — the
/// registry holds the same instruments it always did — and from then on
/// a query costs a pointer compare under the lock and a record, not a
/// handle clone, a `format!` and two name-map probes. Inert on a
/// disabled handle.
#[derive(Debug, Default)]
struct ServeObs {
    obs: Obs,
    overall: Option<LatencyRecorder>,
    by_kind: [Option<LatencyRecorder>; SERVE_KINDS.len()],
}

impl ServeObs {
    /// Keep recording where the fleet does: a handle attached (or
    /// swapped) mid-session drops the recorders resolved from the old one.
    fn follow(&mut self, obs: &Obs) {
        if !self.obs.same_registry(obs) {
            *self = ServeObs {
                obs: obs.clone(),
                ..ServeObs::default()
            };
        }
    }

    fn record(&mut self, kind: usize, started: std::time::Instant) {
        if !self.obs.is_enabled() {
            return;
        }
        let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.overall
            .get_or_insert_with(|| self.obs.latency("query.serve_ns"))
            .record_ns(ns);
        self.by_kind[kind]
            .get_or_insert_with(|| {
                self.obs
                    .latency(&format!("query.serve.{}_ns", SERVE_KINDS[kind]))
            })
            .record_ns(ns);
    }
}

// -------------------------------------------------------------- client

/// Typed client for the read-only query protocol: dial + authenticate
/// ([`frame_tag::QUERY_HELLO`]), then pipelined request/response over
/// the same CRC frame envelope the ingest sessions use. Requests are
/// idempotent reads, so the convenience entry ([`FleetClient::request`]
/// and the typed helpers on top of it) transparently reconnects with
/// the [`TransportConfig`] backoff schedule and retries once — the
/// same policy [`SocketSink`] applies to writes, minus the replay
/// buffer it doesn't need.
///
/// Responses arrive in request order; [`FleetClient::recv`] verifies
/// each echoed request id against the pipeline head and fails closed
/// on any mismatch (a server that reorders or invents responses is
/// indistinguishable from a corrupt one).
#[derive(Debug)]
pub struct FleetClient {
    addr: String,
    token: String,
    cfg: TransportConfig,
    conn: Option<Conn>,
    next_id: u64,
    /// Request ids sent but not yet answered, oldest first.
    in_flight: VecDeque<u64>,
    reconnects: u64,
    server_version: u16,
}

impl FleetClient {
    /// Connect and authenticate with default transport tuning.
    pub fn connect(addr: &str, token: &str) -> io::Result<Self> {
        Self::connect_with(addr, token, TransportConfig::default())
    }

    /// [`FleetClient::connect`] with explicit tuning (timeouts,
    /// reconnect budget, backoff).
    pub fn connect_with(addr: &str, token: &str, cfg: TransportConfig) -> io::Result<Self> {
        let mut client = FleetClient {
            addr: addr.to_string(),
            token: token.to_string(),
            cfg,
            conn: None,
            next_id: 0,
            in_flight: VecDeque::new(),
            reconnects: 0,
            server_version: 0,
        };
        client.handshake()?;
        Ok(client)
    }

    /// Re-point the client at a moved server; the next request
    /// reconnects and re-authenticates (see [`SocketSink::redirect`]).
    pub fn redirect(&mut self, addr: &str) {
        self.addr = addr.to_string();
        self.conn = None;
    }

    /// Times the client re-dialed after losing its connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The protocol version the server reported at the last handshake.
    pub fn server_version(&self) -> u16 {
        self.server_version
    }

    fn handshake(&mut self) -> io::Result<()> {
        // Any response still owed on the old connection is gone; the
        // retrying caller re-sends its request on the new one.
        self.in_flight.clear();
        let mut hello = Vec::new();
        put_str(&mut hello, &self.token);
        let (conn, version) = Conn::open(
            &self.addr,
            self.cfg.io_timeout,
            frame_tag::QUERY_HELLO,
            &hello,
            frame_tag::QUERY_HELLO_ACK,
            |r| r.u16(),
        )?;
        self.server_version = version;
        self.conn = Some(conn);
        Ok(())
    }

    /// Drop the connection and [`redial`].
    fn reconnect(&mut self) -> io::Result<()> {
        self.conn = None;
        let cfg = self.cfg.clone();
        let identity = self.addr.clone();
        redial(&cfg, &identity, self.reconnects, || self.handshake())?;
        self.reconnects += 1;
        Ok(())
    }

    /// Send one request without waiting for its answer (pipelining).
    /// Returns the request id to match against [`FleetClient::recv`].
    pub fn send(&mut self, req: &QueryRequest) -> io::Result<u64> {
        if self.conn.is_none() {
            self.reconnect()?;
        }
        let id = self.next_id;
        let mut out = Vec::new();
        put_u64(&mut out, id);
        encode_request(req, &mut out);
        let conn = self.conn.as_mut().expect("connected");
        if let Err(e) = conn.send(frame_tag::QUERY, &out) {
            self.conn = None;
            return Err(e);
        }
        self.next_id += 1;
        self.in_flight.push_back(id);
        Ok(id)
    }

    /// Receive the next pipelined answer. The echoed request id must
    /// match the oldest in-flight request — responses are strictly
    /// ordered — or the connection is dropped as corrupt.
    pub fn recv(&mut self) -> io::Result<(u64, QueryResponse)> {
        let expect = *self
            .in_flight
            .front()
            .ok_or_else(|| bad_data("recv with no request in flight"))?;
        let res = (|| {
            let conn = self
                .conn
                .as_mut()
                .ok_or_else(|| bad_data("not connected"))?;
            let (tag, payload) = match conn.recv()? {
                Ok(frame) => frame,
                Err(_) => return Err(bad_data("connection closed awaiting query response")),
            };
            if tag != frame_tag::QUERY_RESP {
                return Err(bad_data("unexpected frame tag awaiting query response"));
            }
            if payload.len() < 8 {
                return Err(bad_data("query response shorter than its request id"));
            }
            let id = request_id_of(&payload);
            if id != expect {
                return Err(bad_data("query response id out of order"));
            }
            Ok((id, decode_response(&payload[8..])?))
        })();
        match res {
            Ok(ok) => {
                self.in_flight.pop_front();
                Ok(ok)
            }
            Err(e) => {
                // Fail closed: a response we couldn't trust poisons the
                // whole pipeline on this connection.
                self.conn = None;
                Err(e)
            }
        }
    }

    /// Send one request and wait for its answer. With an empty
    /// pipeline this retries once across a reconnect (queries are
    /// idempotent reads); with requests already in flight it cannot —
    /// their answers would be lost — so the first error surfaces.
    pub fn request(&mut self, req: &QueryRequest) -> io::Result<QueryResponse> {
        let retries = if self.in_flight.is_empty() { 2 } else { 1 };
        let mut last = None;
        for _ in 0..retries {
            match self.send(req).and_then(|_| self.recv()) {
                Ok((_, resp)) => return Ok(resp),
                Err(e) if e.kind() == io::ErrorKind::PermissionDenied => return Err(e),
                Err(e) => {
                    self.conn = None;
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| bad_data("query failed")))
    }

    /// Typed [`QueryRequest::WindowAgg`]: cluster-wide window aggregate
    /// over a logical axis. Server-side refusals surface as `Err`.
    pub fn window_agg(
        &mut self,
        metric: &str,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
    ) -> io::Result<ScalarAnswer> {
        match self.request(&QueryRequest::WindowAgg {
            metric: metric.to_string(),
            now,
            window,
            agg,
        })? {
            QueryResponse::Scalar(a) => Ok(a),
            QueryResponse::Error(e) => Err(e.into()),
            _ => Err(bad_data("mismatched response kind")),
        }
    }

    /// Typed [`QueryRequest::TopNodes`]: per-node ranking.
    pub fn top_nodes(
        &mut self,
        metric: &str,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
        k: u32,
        rank: Rank,
    ) -> io::Result<Vec<TopNodeEntry>> {
        match self.request(&QueryRequest::TopNodes {
            metric: metric.to_string(),
            now,
            window,
            agg,
            k,
            rank,
        })? {
            QueryResponse::TopNodes(entries) => Ok(entries),
            QueryResponse::Error(e) => Err(e.into()),
            _ => Err(bad_data("mismatched response kind")),
        }
    }

    /// Typed [`QueryRequest::Health`]: the fleet health rollup.
    pub fn health(&mut self, now: SimTime, stale_after: SimDuration) -> io::Result<HealthAnswer> {
        match self.request(&QueryRequest::Health { now, stale_after })? {
            QueryResponse::Health(h) => Ok(h),
            QueryResponse::Error(e) => Err(e.into()),
            _ => Err(bad_data("mismatched response kind")),
        }
    }

    /// Typed [`QueryRequest::CoveredWindowAgg`]: coverage-annotated
    /// window aggregate.
    pub fn covered_window_agg(
        &mut self,
        metric: &str,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
        stale_after: SimDuration,
    ) -> io::Result<CoveredAnswer> {
        match self.request(&QueryRequest::CoveredWindowAgg {
            metric: metric.to_string(),
            now,
            window,
            agg,
            stale_after,
        })? {
            QueryResponse::Covered(a) => Ok(a),
            QueryResponse::Error(e) => Err(e.into()),
            _ => Err(bad_data("mismatched response kind")),
        }
    }

    /// Typed [`QueryRequest::CoveredTopNodes`]: coverage-annotated
    /// ranking.
    #[allow(clippy::too_many_arguments)]
    pub fn covered_top_nodes(
        &mut self,
        metric: &str,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
        k: u32,
        rank: Rank,
        stale_after: SimDuration,
    ) -> io::Result<CoveredTopNodesAnswer> {
        match self.request(&QueryRequest::CoveredTopNodes {
            metric: metric.to_string(),
            now,
            window,
            agg,
            k,
            rank,
            stale_after,
        })? {
            QueryResponse::CoveredTopNodes(a) => Ok(a),
            QueryResponse::Error(e) => Err(e.into()),
            _ => Err(bad_data("mismatched response kind")),
        }
    }

    /// Typed [`QueryRequest::Metrics`]: the sorted logical-axes
    /// listing.
    pub fn metrics(&mut self) -> io::Result<MetricsAnswer> {
        match self.request(&QueryRequest::Metrics)? {
            QueryResponse::Metrics(m) => Ok(m),
            QueryResponse::Error(e) => Err(e.into()),
            _ => Err(bad_data("mismatched response kind")),
        }
    }

    /// Typed [`QueryRequest::SelfStat`]: the service's slowest internal
    /// spans, slowest first. `drain` also clears the server-side log.
    pub fn selfstat(&mut self, k: u32, drain: bool) -> io::Result<SelfStatAnswer> {
        match self.request(&QueryRequest::SelfStat { k, drain })? {
            QueryResponse::SelfStat(a) => Ok(a),
            QueryResponse::Error(e) => Err(e.into()),
            _ => Err(bad_data("mismatched response kind")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{DurabilityConfig, DurableFleet};
    use moda_sim::{SimDuration, SimTime};
    use moda_telemetry::export::MemorySink;
    use moda_telemetry::wire::BatchView;
    use moda_telemetry::{
        Exporter, MetricMeta, RollupConfig, RollupTier, SourceDomain, Tsdb, WindowAgg,
    };
    use std::fs;
    use std::path::PathBuf;

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moda_fleet_transport_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn node_batches(n: usize, offset: f64) -> Vec<ExportBatch> {
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

    /// Raw test peer: dial, `HELLO`, and check the `HELLO_ACK` reports
    /// cursor 0 — a client that owns its own socket writes and reads.
    fn raw_ingest_session(addr: &str, name: &str, token: &str) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut hello = Vec::new();
        put_str(&mut hello, token);
        put_str(&mut hello, name);
        write_frame(&mut stream, frame_tag::HELLO, &hello).unwrap();
        let (tag, ack) = read_frame(&mut stream).unwrap().expect("hello ack");
        assert_eq!(tag, frame_tag::HELLO_ACK);
        assert_eq!(ack, [0u8; 9], "status ok, cursor 0");
        stream
    }

    #[test]
    fn a_skipped_unknown_kind_record_is_counted_in_the_registry() {
        let dir = test_dir("unknown_kind");
        let obs = moda_obs::Obs::enabled();
        let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        fleet.set_obs(obs.clone());
        let listener =
            FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), "tok").unwrap();
        let addr = listener.local_addr().to_string();
        assert_eq!(obs.counter_value("fleet.ingest.unknown_records"), Some(0));

        // The golden stream's last frame: a batch of one known sample
        // and one record of a kind no revision defines.
        let golden = fs::read(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/export_wire_v1_1.bin"
        ))
        .unwrap();
        let mut rest = &golden[..];
        let mut last = None;
        while let Ok(frame) = read_frame(&mut rest).unwrap() {
            last = Some(frame);
        }
        let (tag, payload) = last.expect("golden stream has frames");
        assert_eq!(tag, frame_tag::BATCH);
        assert_eq!(BatchView::parse(&payload).unwrap().unknown_records(), 1);

        let mut stream = raw_ingest_session(&addr, "node00", "tok");
        write_frame(&mut stream, frame_tag::BATCH, &payload).unwrap();
        let (tag, _) = read_frame(&mut stream).unwrap().expect("batch ack");
        assert_eq!(tag, frame_tag::ACK);
        assert_eq!(obs.counter_value("fleet.ingest.unknown_records"), Some(1));

        drop(stream);
        drop(listener.shutdown());
        let _ = fs::remove_dir_all(&dir);
    }

    /// [`raw_ingest_session`] whose `frames` reach the session as **one**
    /// receive burst: the fleet lock is held while the `HELLO` and then
    /// the frames are written, so the session is still inside the hello
    /// (waiting for the lock) when the frames land in its socket buffer,
    /// and its next `read` returns all of them (they must fit the 64 KiB
    /// receive buffer).
    fn one_burst_session(listener: &FleetListener, name: &str, frames: &[u8]) -> TcpStream {
        assert!(frames.len() <= 48 * 1024, "burst of {} B", frames.len());
        let shared = listener.fleet();
        let guard = shared.lock().unwrap();
        let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
        let mut hello = Vec::new();
        put_str(&mut hello, "tok");
        put_str(&mut hello, name);
        write_frame(&mut stream, frame_tag::HELLO, &hello).unwrap();
        // Let the session read the hello on its own and block on the lock.
        std::thread::sleep(Duration::from_millis(50));
        stream.write_all(frames).unwrap();
        drop(guard);
        let (tag, ack) = read_frame(&mut stream).unwrap().expect("hello ack");
        assert_eq!(tag, frame_tag::HELLO_ACK);
        assert_eq!(ack, [0u8; 9], "status ok, cursor 0");
        stream
    }

    fn batch_frames(batches: &[ExportBatch]) -> Vec<u8> {
        let mut frames = Vec::new();
        for batch in batches {
            let mut payload = Vec::new();
            encode_batch(batch, &mut payload);
            write_frame(&mut frames, frame_tag::BATCH, &payload).unwrap();
        }
        frames
    }

    fn copy_state(from: &std::path::Path, tag: &str) -> PathBuf {
        let copy = test_dir(tag);
        fs::create_dir_all(&copy).unwrap();
        for entry in fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
        }
        copy
    }

    #[test]
    fn burst_of_batches_is_acked_per_frame_in_order_and_only_after_durable() {
        const N: usize = 16;
        let dir = test_dir("ack_burst");
        let fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let listener =
            FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), "tok").unwrap();
        let batches = node_batches(3000, 0.0);
        assert!(
            batches.len() >= N,
            "need {N} batches, got {}",
            batches.len()
        );

        // N `BATCH` frames the session finds together in its receive
        // buffer: one burst — one lock hold, one log flush, N acks.
        let mut stream = one_burst_session(&listener, "node00", &batch_frames(&batches[..N]));

        // The first ack byte readable ⇒ the log already holds the whole
        // burst: take what a `kill -9` right now would leave on disk.
        let mut first = [0u8; 1];
        stream.read_exact(&mut first).unwrap();
        let copy = copy_state(&dir, "ack_burst_copy");
        let recovered = crate::FleetStore::recover(&copy).unwrap();
        let node = recovered.find_node("node00").expect("session logged");
        assert_eq!(
            recovered.next_seq(node),
            N as u64,
            "an ack was readable before its burst was flushed"
        );
        assert_eq!(recovered.recovery().torn_tail_bytes, 0);
        drop(recovered);

        // Exactly one ACK per frame, carrying cursors 1..=N in order.
        let mut acks = FrameBuffer::new();
        acks.extend(&first);
        let mut tmp = [0u8; 4096];
        let mut cursors = Vec::new();
        while cursors.len() < N {
            let n = stream.read(&mut tmp).unwrap();
            assert!(n > 0, "listener hung up after {} acks", cursors.len());
            acks.extend(&tmp[..n]);
            while let Some((tag, payload)) = acks.next_frame().unwrap() {
                assert_eq!(tag, frame_tag::ACK);
                cursors.push(WireReader::new(payload).u64().unwrap());
            }
        }
        assert_eq!(cursors, (1..=N as u64).collect::<Vec<u64>>());
        assert_eq!(acks.pending(), 0, "nothing but the {N} acks");

        drop(stream);
        let shared = listener.shutdown();
        let fleet = shared.lock().unwrap();
        let node = fleet.find_node("node00").unwrap();
        assert_eq!(fleet.next_seq(node), N as u64);
        assert_eq!(fleet.aggregator().counters(node).duplicate_batches, 0);
        drop(fleet);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&copy);
    }

    #[test]
    fn a_burst_stops_at_its_first_invalid_frame_and_that_frame_leaves_no_trace() {
        const K: usize = 5;
        let batches = node_batches(3000, 0.0);
        let good = |i: usize| {
            let mut payload = Vec::new();
            encode_batch(&batches[i], &mut payload);
            payload
        };
        // Frame-CRC-clean payloads that are not a batch: a truncated
        // one, one with a byte too many, and a `samples` record whose
        // declared count exceeds its bytes.
        let truncated = {
            let mut p = good(K);
            p.pop();
            p
        };
        let trailing = {
            let mut p = good(K);
            p.push(0);
            p
        };
        let over_count = {
            let mut p = (K as u64).to_le_bytes().to_vec();
            p.extend_from_slice(&1u32.to_le_bytes());
            p.push(5);
            p.extend_from_slice(&2u32.to_le_bytes());
            p.extend_from_slice(&[9, 0x08]);
            p
        };
        for (case, bad) in [truncated, trailing, over_count].iter().enumerate() {
            assert!(BatchView::parse(bad).is_err());
            let dir = test_dir(&format!("bad_frame_{case}"));
            let fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
            let listener =
                FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), "tok").unwrap();

            // K good frames, the bad one, two more good ones behind it.
            let mut frames = batch_frames(&batches[..K]);
            write_frame(&mut frames, frame_tag::BATCH, bad).unwrap();
            frames.extend_from_slice(&batch_frames(&batches[K..K + 2]));
            let mut stream = one_burst_session(&listener, "node00", &frames);

            // Frames before the bad one are acknowledged, then the
            // session ends: K acks and EOF.
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).unwrap();
            let mut acks = FrameBuffer::new();
            acks.extend(&rest);
            let mut cursors = Vec::new();
            while let Some((tag, payload)) = acks.next_frame().unwrap() {
                assert_eq!(tag, frame_tag::ACK);
                cursors.push(WireReader::new(payload).u64().unwrap());
            }
            assert_eq!(cursors, (1..=K as u64).collect::<Vec<u64>>(), "case {case}");
            assert_eq!(acks.pending(), 0);

            // The fleet is the one that was only ever sent those K: the
            // same counters, the same log to the byte.
            let shared = listener.shutdown();
            let fleet = shared.lock().unwrap();
            let twin_dir = test_dir(&format!("bad_frame_twin_{case}"));
            let mut twin = DurableFleet::open(&twin_dir, DurabilityConfig::default()).unwrap();
            let node = twin.add_node("node00").unwrap();
            for batch in &batches[..K] {
                twin.ingest(node, batch).unwrap();
            }
            assert_eq!(fleet.find_node("node00"), Some(node));
            assert_eq!(fleet.next_seq(node), K as u64);
            assert_eq!(
                fleet.aggregator().counters(node),
                twin.aggregator().counters(node),
                "case {case}"
            );
            assert_eq!(fleet.store().stats(), twin.store().stats());
            assert_eq!(
                fs::read(dir.join("wal-0.log")).unwrap(),
                fs::read(twin_dir.join("wal-0.log")).unwrap(),
                "case {case}: the refused frame reached the log"
            );
            drop((fleet, twin));
            let _ = fs::remove_dir_all(&dir);
            let _ = fs::remove_dir_all(&twin_dir);
        }
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
    fn send_drain_under_a_full_window_returns_after_its_own_ack() {
        use std::sync::mpsc;

        let dir = test_dir("drain_window");
        let fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let listener =
            FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), "tok").unwrap();
        let addr = listener.local_addr().to_string();
        let window = 16;
        let batches = node_batches(2000, 0.0);
        assert!(batches.len() >= window);
        let mut sink = SocketSink::connect_with(
            &addr,
            "node00",
            "tok",
            TransportConfig {
                window,
                ..TransportConfig::default()
            },
        )
        .unwrap();

        // Hold the fleet lock so the session stalls on its first batch
        // and no ack goes out while the window fills.
        let (locked_tx, locked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let shared = listener.fleet();
        let holder = std::thread::spawn(move || {
            let _guard = shared.lock().unwrap();
            locked_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        locked_rx.recv().unwrap();
        // `write_batch` never leaves more than `window - 1` in flight.
        for batch in &batches[..window - 1] {
            sink.write_batch(batch).unwrap();
        }
        assert_eq!(sink.unacked_len(), window - 1, "nothing acked yet");

        // The drain is owed `window - 1` batch acks and then its own —
        // coalesced into as few segments as the listener likes.
        release_tx.send(()).unwrap();
        let report = DrainStats {
            batches: 77,
            ..DrainStats::default()
        };
        sink.send_drain(&report).unwrap();
        holder.join().unwrap();
        assert_eq!(sink.unacked_len(), 0, "every batch ack was consumed");
        assert_eq!(sink.reconnects(), 0);
        assert_eq!(sink.resent_batches(), 0);
        {
            // Its own ack means its totals are already applied.
            let shared = listener.fleet();
            let fleet = shared.lock().unwrap();
            let node = fleet.find_node("node00").unwrap();
            assert_eq!(fleet.next_seq(node), (window - 1) as u64);
            let health = fleet
                .aggregator()
                .health(SimTime::from_secs(1), SimDuration::from_secs(1 << 20));
            assert_eq!(health.nodes[node.index()].drain.batches, 77);
        }
        drop(sink);
        listener.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn finished_sessions_are_reaped_not_tracked_forever() {
        let dir = test_dir("reap");
        let fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let listener =
            FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), "tok").unwrap();
        let addr = listener.local_addr().to_string();
        let tracked = |listener: &FleetListener| listener.conn_threads.lock().unwrap().len();

        // Reconnecting exporters and short-lived dashboards: connect,
        // hello, hang up — 200 times.
        for _ in 0..200 {
            drop(raw_ingest_session(&addr, "node00", "tok"));
        }
        // Reaping rides on `accept`, and a session needs a moment to
        // see its peer's EOF, so knock until the ended ones are gone;
        // each knock is itself one (briefly) live session.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while tracked(&listener) > 2 && std::time::Instant::now() < deadline {
            drop(TcpStream::connect(&addr).unwrap());
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            tracked(&listener) <= 2,
            "{} handles tracked with no session live",
            tracked(&listener)
        );
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

    #[test]
    fn io_timeout_fails_fast_on_a_silent_peer() {
        // A listener that accepts (kernel backlog) but never speaks the
        // protocol: without timeouts the handshake read would hang
        // forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let t0 = std::time::Instant::now();
        let res = SocketSink::connect_with(
            &addr,
            "node00",
            "tok",
            TransportConfig {
                io_timeout: Some(Duration::from_millis(100)),
                ..TransportConfig::default()
            },
        );
        assert!(res.is_err(), "silent peer must not look connected");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "timeout must bound the stall"
        );
        drop(listener);
    }

    #[test]
    fn chaos_sink_faults_are_deterministic_and_ingest_safe() {
        use crate::aggregator::FleetAggregator;

        let batches = node_batches(2000, 0.0);
        assert!(batches.len() >= 20, "need a real stream to fault");
        let cfg = ChaosConfig {
            seed: 42,
            drop_prob: 0.2,
            dup_prob: 0.2,
            delay_prob: 0.1,
            ..ChaosConfig::default()
        };
        let mut chaos = ChaosSink::new(MemorySink::new(), cfg.clone());
        for b in &batches {
            chaos.write_batch(b).unwrap();
        }
        let stats = chaos.stats();
        assert!(stats.dropped > 0 && stats.duplicated > 0 && stats.delayed > 0);

        // Same seed, same fault schedule.
        let mut chaos2 = ChaosSink::new(MemorySink::new(), cfg);
        for b in &batches {
            chaos2.write_batch(b).unwrap();
        }
        assert_eq!(stats, chaos2.stats());

        // The faulted stream ingests without panic: duplicates and
        // late frames bounce off the cursor, drops surface as gaps.
        let mut agg = FleetAggregator::new();
        let node = agg.add_node("node00");
        for b in &chaos.inner().batches {
            agg.ingest(node, b);
        }
        let c = agg.counters(node);
        assert!(c.duplicate_batches >= stats.duplicated);
        assert!(c.gaps >= 1, "permanent frame loss must be visible");

        // Partition: every write fails until healed (exporter-side
        // rollback path), then traffic flows again.
        chaos.set_partitioned(true);
        assert!(chaos.write_batch(&batches[0]).is_err());
        chaos.set_partitioned(false);
        chaos.write_batch(&batches[0]).unwrap();
    }

    #[test]
    fn reconnect_resumes_from_server_cursor_without_seq0_replay() {
        let dir = test_dir("reconnect");
        let batches = node_batches(1200, 10.0);
        let split = batches.len() / 2;

        let fleet = DurableFleet::open(
            &dir,
            DurabilityConfig {
                snapshot_every_batches: 4,
            },
        )
        .unwrap();
        let listener =
            FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), "tok").unwrap();
        let addr = listener.local_addr().to_string();
        let mut sink = SocketSink::connect_with(
            &addr,
            "node00",
            "tok",
            TransportConfig {
                window: 8,
                reconnect_attempts: 50,
                reconnect_pause: Duration::from_millis(50),
                ..TransportConfig::default()
            },
        )
        .unwrap();
        for batch in &batches[..split] {
            sink.write_batch(batch).unwrap();
        }
        sink.wait_idle().unwrap();

        // Hard-stop the listener (connections die), recover the fleet
        // from disk — the paranoid path, as if the process was killed —
        // and serve again on a fresh port.
        let shared = listener.shutdown();
        drop(shared);
        let recovered = DurableFleet::recover(&dir).unwrap();
        assert_eq!(
            recovered.next_seq(recovered.find_node("node00").unwrap()),
            split as u64
        );
        let listener2 =
            FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(recovered)), "tok").unwrap();
        // The sink still dials the *old* address: point it at the new
        // one the way a service discovery layer would.
        sink.redirect(&listener2.local_addr().to_string());
        for batch in &batches[split..] {
            sink.write_batch(batch).unwrap();
        }
        sink.wait_idle().unwrap();
        assert!(sink.reconnects() >= 1, "must have re-dialed");
        assert_eq!(
            sink.last_resume_seq(),
            split as u64,
            "server resumed at its persisted cursor, not 0"
        );

        // The retry work surfaces in the server's drain accounting:
        // the first report carries the full redelivery delta, a second
        // immediately after carries none (no double-count).
        sink.send_drain(&DrainStats::default()).unwrap();
        sink.send_drain(&DrainStats::default()).unwrap();
        let expected_retries = sink.reconnects() + sink.resent_batches();

        let shared = listener2.shutdown();
        let fleet = shared.lock().unwrap();
        let node = fleet.find_node("node00").unwrap();
        assert_eq!(fleet.next_seq(node), batches.len() as u64);
        // Zero duplicate ingests: the resume cursor excluded everything
        // durably applied, so nothing was re-sent that was already in.
        assert_eq!(fleet.aggregator().counters(node).duplicate_batches, 0);
        let health = fleet
            .aggregator()
            .health(SimTime::from_secs(1), SimDuration::from_secs(1 << 20));
        assert!(expected_retries >= 1);
        assert_eq!(
            health.nodes[node.index()].drain.send_retries,
            expected_retries,
            "retry delta folded exactly once into the drain accounting"
        );
        drop(fleet);
        let _ = fs::remove_dir_all(&dir);
    }
}
