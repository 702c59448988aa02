//! The server side of the protocol as a function of bytes: a
//! [`Session`] is fed what a connection received, in pieces of any
//! size, and writes its answers into whatever `Write` it is handed. It
//! knows the frame grammar, the roles, the token check and the burst
//! rule — no socket, no timeout, no stop flag, and no clock but the
//! serve-latency span.

use super::listener::Shared;
use crate::persist::DurableFleet;
use crate::query::{
    decode_request, encode_response, execute, QueryError, QueryErrorCode, QueryRequest,
    QueryResponse, QUERY_PROTOCOL_VERSION,
};
use crate::store::NodeId;
use moda_obs::{LatencyRecorder, Obs};
use moda_telemetry::wire::{
    bad_data, decode_drain_stats, frame_tag, put_u16, put_u64, write_frame, FrameBuffer,
    WireReader, REVISION,
};
use std::io::{self, Write};
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Instant;

/// What a connection's first frame committed it to.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// No hello yet.
    #[default]
    Pending,
    /// Ingest session for one registered node, on the connection the
    /// token names ([`DurableFleet::connect`]).
    Ingest(NodeId, u64),
    /// Authenticated read-only query session.
    Query,
}

/// One connection's protocol state: the role its first frame picked
/// (`HELLO` → ingest, `QUERY_HELLO` → read-only query), the bytes not
/// yet a whole frame, and scratch reused for every burst and query.
#[derive(Debug, Default)]
pub(super) struct Session {
    role: Role,
    frames: FrameBuffer,
    /// The session cursor after each frame of the burst being taken.
    cursors: Vec<u64>,
    obs: ServeObs,
}

impl Session {
    /// Take the next `received` bytes and handle every frame they
    /// complete, writing each response frame into `out` (unflushed:
    /// when to send is the caller's business). How the stream was cut
    /// into calls changes nothing it writes or does.
    ///
    /// `Err` ends the session — a corrupt envelope, a bad token, a
    /// frame that crosses roles (ingest frames on a query session and
    /// vice versa), a batch that fails validation — after whatever it
    /// was owed (the refusal, the acks of the frames before it) has
    /// been written. Malformed query *payloads* inside a valid envelope
    /// do **not** end it: they are answered with a typed `Error`.
    pub(super) fn receive(
        &mut self,
        received: &[u8],
        shared: &Shared,
        out: &mut impl Write,
    ) -> io::Result<()> {
        self.frames.extend(received);
        loop {
            if let Role::Ingest(node, token) = self.role {
                // Every complete frame the buffer holds, as one burst.
                let taken = self.ingest_burst(&shared.fleet, node, token);
                for cursor in self.cursors.drain(..) {
                    write_frame(out, frame_tag::ACK, &cursor.to_le_bytes())?;
                }
                return taken;
            }
            let (tag, payload) = match self.frames.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(()),
                Err(_) => return Err(bad_data("corrupt frame on ingest connection")),
            };
            match (tag, self.role) {
                (frame_tag::HELLO | frame_tag::QUERY_HELLO, Role::Pending) => {
                    // Both hellos lead with the token and are answered
                    // by a status byte plus the role's own field; a bad
                    // token is answered at status 1, counted, and ends
                    // the session.
                    let mut r = WireReader::new(payload);
                    let admitted = r.str()? == shared.token;
                    let mut ack = vec![u8::from(!admitted)];
                    let ack_tag = if tag == frame_tag::HELLO {
                        // The sender's revision may follow the name: the
                        // session reads every revision's batches alike,
                        // so it does not look.
                        let name = r.str()?;
                        let next_seq = if admitted {
                            // A new connection: the node's stream value
                            // state starts empty, here and in the log,
                            // and the stream is this connection's.
                            let mut fleet = shared.fleet.lock().unwrap();
                            let (node, token) = fleet.connect(&name)?;
                            self.role = Role::Ingest(node, token);
                            fleet.next_seq(node)
                        } else {
                            0
                        };
                        put_u64(&mut ack, next_seq);
                        ack.extend_from_slice(&REVISION);
                        frame_tag::HELLO_ACK
                    } else {
                        // Read-only role: no node registration, so a
                        // query client never shows up in health or
                        // coverage answers.
                        if admitted {
                            self.role = Role::Query;
                        }
                        put_u16(&mut ack, QUERY_PROTOCOL_VERSION);
                        frame_tag::QUERY_HELLO_ACK
                    };
                    write_frame(out, ack_tag, &ack)?;
                    if !admitted {
                        shared.auth_failures.fetch_add(1, Ordering::SeqCst);
                        return Err(io::Error::new(
                            io::ErrorKind::PermissionDenied,
                            "bad auth token",
                        ));
                    }
                }
                (frame_tag::QUERY, Role::Query) => {
                    // Count before the answer is written: a client that
                    // has read response N must observe the counter at
                    // >= N.
                    shared.queries_served.fetch_add(1, Ordering::SeqCst);
                    answer_query(out, &shared.fleet, payload, &mut self.obs)?;
                }
                (frame_tag::QUERY, _) => {
                    // A query without the handshake gets the typed
                    // refusal — and then the connection closes: nothing
                    // else is legal on it.
                    let refusal = QueryResponse::Error(QueryError::new(
                        QueryErrorCode::Unauthorized,
                        "query before query hello",
                    ));
                    respond(out, request_id_of(payload), &refusal)?;
                    return Err(bad_data("query frame on an unauthenticated session"));
                }
                _ => return Err(bad_data("frame before hello or unknown tag")),
            }
        }
    }

    /// Take every complete frame the buffer holds as one burst on
    /// `node`'s ingest session: under **one** hold of the fleet lock
    /// each `BATCH` / `DRAIN` is validated, logged and applied in
    /// arrival order, then the log is flushed **once** and the lock
    /// released. `cursors` receives the session cursor after each frame
    /// taken — one `ACK` each, which the caller writes after this
    /// returns, so nothing is written under the lock and no ack exists
    /// before the flush. The burst is bounded by what one receive left
    /// in the buffer; a lone frame is a burst of one.
    ///
    /// A frame that fails (validation, an illegal tag, a log write) ends
    /// the burst and the session: frames before it are committed and
    /// acknowledged, the failing frame leaves no trace. If the flush
    /// itself fails nothing of the burst is acknowledged.
    ///
    /// A connection that no longer carries the node's stream — a newer
    /// one has said hello since, or in-process ingest has coded into it —
    /// takes nothing: its frames were coded against a state that is gone.
    /// The burst is refused whole and the session ends.
    fn ingest_burst(
        &mut self,
        fleet: &Mutex<DurableFleet>,
        node: NodeId,
        token: u64,
    ) -> io::Result<()> {
        let corrupt = |_| bad_data("corrupt frame on ingest connection");
        // An idle session must not take the lock just to find nothing.
        let Some(mut frame) = self.frames.next_frame().map_err(corrupt)? else {
            return Ok(());
        };
        let mut fleet = fleet.lock().unwrap();
        if !fleet.carries(node, token) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "a newer connection carries the node's stream",
            ));
        }
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
            self.cursors.push(burst.next_seq(node));
            frame = match self.frames.next_frame().map_err(corrupt) {
                Ok(Some(next)) => next,
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            };
        };
        if let Err(e) = burst.commit() {
            self.cursors.clear();
            return Err(e);
        }
        taken
    }
}

/// The request id leading a `QUERY`/`QUERY_RESP` payload, or
/// `u64::MAX` when the payload is too short to carry one — the
/// sentinel a client can at least log against.
pub(super) fn request_id_of(payload: &[u8]) -> u64 {
    WireReader::new(payload).u64().unwrap_or(u64::MAX)
}

/// Write one `QUERY_RESP` frame: the request id, then the response.
fn respond(out: &mut impl Write, id: u64, resp: &QueryResponse) -> io::Result<()> {
    let mut frame = Vec::new();
    put_u64(&mut frame, id);
    encode_response(resp, &mut frame);
    write_frame(out, frame_tag::QUERY_RESP, &frame)
}

/// Answer one `QUERY` frame on an authenticated query session. Every
/// outcome — including a payload that fails to decode — is a
/// `QUERY_RESP` frame; the session survives anything the envelope's
/// CRC let through. The planner runs under the fleet lock, so each
/// answer is a consistent snapshot even while ingest sessions stream.
fn answer_query(
    out: &mut impl Write,
    fleet: &Mutex<DurableFleet>,
    payload: &[u8],
    obs: &mut ServeObs,
) -> io::Result<()> {
    let started = Instant::now();
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
    respond(out, request_id_of(payload), &resp)?;
    // Serve latency: decode + planner-under-lock + respond (sending
    // it is the caller's, once per receive).
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

    fn record(&mut self, kind: usize, started: Instant) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::DurabilityConfig;
    use crate::transport::tests::{
        batch_frames, hello_frame, node_batches, raw_answers, sweep_batches, test_dir,
    };
    use crate::{FleetStore, Ledger};
    use moda_sim::{SimDuration, SimTime};
    use moda_telemetry::export::ExportBatch;
    use moda_telemetry::export::ExportRecord;
    use moda_telemetry::wire::{
        encode_batch, encode_batch_with, encode_drain_stats, encode_record, put_str, BatchView,
        ValueState,
    };
    use moda_telemetry::DrainStats;
    use moda_telemetry::MetricId;
    use proptest::prelude::*;
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// A fresh durable fleet in its own directory, as a listener's
    /// sessions would share it (token `tok`).
    fn open_shared(tag: &str, cfg: DurabilityConfig) -> (PathBuf, Shared) {
        let dir = test_dir(tag);
        let fleet = DurableFleet::open(&dir, cfg).unwrap();
        (dir, Shared::new(Arc::new(Mutex::new(fleet)), "tok"))
    }

    /// `acks` as the frames it must be — a `HELLO_ACK` (status ok,
    /// cursor 0, this build's revision) first if `with_hello`, then nothing but
    /// `ACK`s — and the cursors those carry.
    fn ack_cursors(acks: &[u8], with_hello: bool) -> Vec<u64> {
        let mut frames = FrameBuffer::new();
        frames.extend(acks);
        if with_hello {
            let (tag, ack) = frames.next_frame().unwrap().expect("hello ack");
            assert_eq!(tag, frame_tag::HELLO_ACK);
            assert_eq!(
                ack,
                [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 4],
                "status ok, cursor 0, 1.4"
            );
        }
        let mut cursors = Vec::new();
        while let Some((tag, payload)) = frames.next_frame().unwrap() {
            assert_eq!(tag, frame_tag::ACK);
            cursors.push(WireReader::new(payload).u64().unwrap());
        }
        assert_eq!(frames.pending(), 0, "nothing but whole frames");
        cursors
    }

    fn copy_state(from: &Path, tag: &str) -> PathBuf {
        let copy = test_dir(tag);
        fs::create_dir_all(&copy).unwrap();
        for entry in fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            match fs::copy(entry.path(), copy.join(entry.file_name())) {
                // A snapshot writer may be at work beside the session:
                // the tmp file listed a moment ago has been renamed.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    assert_eq!(entry.file_name(), "snapshot.tmp")
                }
                copied => drop(copied.unwrap()),
            }
        }
        copy
    }

    /// Every file of a state directory, by name.
    fn state_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                let name = entry.file_name().to_string_lossy().into_owned();
                (name, fs::read(entry.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// Where a session's answers go in these tests: kept, and the
    /// moment the first byte is written the state directory is copied —
    /// what a `kill -9` at that instant would leave on disk.
    struct CrashCopy<'a> {
        bytes: Vec<u8>,
        dir: &'a Path,
        tag: &'a str,
        copy: Option<PathBuf>,
    }

    impl<'a> CrashCopy<'a> {
        fn new(dir: &'a Path, tag: &'a str) -> Self {
            CrashCopy {
                bytes: Vec::new(),
                dir,
                tag,
                copy: None,
            }
        }
    }

    impl Write for CrashCopy<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.copy.is_none() {
                self.copy = Some(copy_state(self.dir, self.tag));
            }
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The revision fields ride where the 1.2 readers stop reading: a
    /// `HELLO` with a revision — and bytes after it, a later revision's
    /// — opens the session as the bare one does, and the `HELLO_ACK`
    /// leads with what a 1.2 sink reads (status, cursor), the fleet's
    /// revision behind it.
    #[test]
    fn hello_fields_ride_behind_what_a_1_2_peer_reads() {
        for trailer in [&[][..], &REVISION[..], &[1, 5, 0xEE, 0xEE][..]] {
            let (dir, shared) = open_shared("hello_fields", DurabilityConfig::default());
            let mut hello = Vec::new();
            put_str(&mut hello, "tok");
            put_str(&mut hello, "node00");
            hello.extend_from_slice(trailer);
            let mut frame = Vec::new();
            write_frame(&mut frame, frame_tag::HELLO, &hello).unwrap();
            let mut acks = Vec::new();
            let mut session = Session::default();
            session.receive(&frame, &shared, &mut acks).unwrap();
            assert!(matches!(session.role, Role::Ingest(..)), "{trailer:?}");
            let mut frames = FrameBuffer::new();
            frames.extend(&acks);
            let (tag, ack) = frames.next_frame().unwrap().unwrap();
            assert_eq!(tag, frame_tag::HELLO_ACK);
            let mut r = WireReader::new(ack);
            assert_eq!((r.u8().unwrap(), r.u64().unwrap()), (0, 0));
            assert_eq!(r.rest(), REVISION);
            drop(shared);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn burst_of_batches_is_acked_per_frame_in_order_and_only_after_durable() {
        const N: usize = 16;
        let (dir, shared) = open_shared("ack_burst", DurabilityConfig::default());
        let batches = node_batches(3000, 0.0);
        assert!(
            batches.len() >= N,
            "need {N} batches, got {}",
            batches.len()
        );
        let mut session = Session::default();
        let mut hello_ack = Vec::new();
        session
            .receive(&hello_frame("node00", "tok"), &shared, &mut hello_ack)
            .unwrap();
        assert_eq!(ack_cursors(&hello_ack, true), []);

        // N `BATCH` frames the session finds together in one receive:
        // one burst — one lock hold, one log flush, N acks.
        let mut acks = CrashCopy::new(&dir, "ack_burst_copy");
        session
            .receive(&batch_frames(&batches[..N]), &shared, &mut acks)
            .unwrap();

        // The first ack byte written ⇒ the log already holds the whole
        // burst: recover what a `kill -9` right then would have left.
        let copy = acks.copy.expect("acks were written");
        let recovered = FleetStore::recover(&copy).unwrap();
        let node = recovered.find_node("node00").expect("session logged");
        assert_eq!(
            recovered.next_seq(node),
            N as u64,
            "an ack was written before its burst was flushed"
        );
        assert_eq!(recovered.recovery().torn_tail_bytes, 0);
        drop(recovered);

        // Exactly one ACK per frame, carrying cursors 1..=N in order.
        assert_eq!(
            ack_cursors(&acks.bytes, false),
            (1..=N as u64).collect::<Vec<u64>>()
        );

        let fleet = shared.fleet.lock().unwrap();
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
        // The stream as a 1.4 sender codes it, from the hello on.
        let mut sender = ValueState::new();
        let good: Vec<Vec<u8>> = batches
            .iter()
            .map(|batch| {
                let mut payload = Vec::new();
                encode_batch_with(batch, &mut sender, &mut payload);
                payload
            })
            .collect();
        let frames = |payloads: &[Vec<u8>]| {
            let mut out = Vec::new();
            for payload in payloads {
                write_frame(&mut out, frame_tag::BATCH, payload).unwrap();
            }
            out
        };
        // Frame-CRC-clean payloads that are not a batch: a truncated
        // one, one with a byte too many, and a `samples` record whose
        // declared count exceeds its bytes; and one that is, but whose
        // delta the stream never gave a state to read it by.
        let truncated = {
            let mut p = good[K].clone();
            p.pop();
            p
        };
        let trailing = {
            let mut p = good[K].clone();
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
        let unreadable = {
            let mut liar = ValueState::new();
            liar.set(MetricId(5), 1.0f64.to_bits());
            let sample = ExportRecord::Sample {
                id: MetricId(5),
                t: SimTime(1),
                value: 2.0,
            };
            let mut p = Vec::new();
            let batch = ExportBatch {
                seq: K as u64,
                records: vec![sample],
            };
            encode_batch_with(&batch, &mut liar, &mut p);
            p
        };
        for (case, bad) in [truncated, trailing, over_count, unreadable]
            .iter()
            .enumerate()
        {
            let read =
                BatchView::parse(bad).and_then(|view| view.to_batch_with(&mut sender.clone()));
            assert!(read.is_err(), "case {case}");
            let (dir, shared) =
                open_shared(&format!("bad_frame_{case}"), DurabilityConfig::default());

            // The hello, K good frames, the bad one, two more good ones
            // behind it — all in one receive.
            let mut stream = hello_frame("node00", "tok");
            stream.extend_from_slice(&frames(&good[..K]));
            write_frame(&mut stream, frame_tag::BATCH, bad).unwrap();
            stream.extend_from_slice(&frames(&good[K..K + 2]));
            let mut acks = Vec::new();
            let ended = Session::default().receive(&stream, &shared, &mut acks);

            // Frames before the bad one are acknowledged, then the
            // session ends: K acks and an error.
            assert_eq!(
                ended.unwrap_err().kind(),
                io::ErrorKind::InvalidData,
                "case {case}"
            );
            assert_eq!(
                ack_cursors(&acks, true),
                (1..=K as u64).collect::<Vec<u64>>(),
                "case {case}"
            );

            // The fleet is the one that was only ever sent those K: the
            // same counters, the same log to the byte — the in-process
            // fleet logs what a 1.4 sender sends.
            let fleet = shared.fleet.lock().unwrap();
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

    /// A batch as a v1.1 writer put it on the wire: one record at a
    /// time, every sample its own `sample` record.
    fn render_v1_1(batch: &ExportBatch) -> Vec<u8> {
        let mut out = batch.seq.to_le_bytes().to_vec();
        out.extend_from_slice(&(batch.records.len() as u32).to_le_bytes());
        for record in &batch.records {
            encode_record(record, &mut out);
        }
        out
    }

    /// `batch` as a sender whose stream stands at `sender` renders it:
    /// `how` 0 codes its runs as deltas (1.4; the state takes their
    /// values, as the receiving session's does), 1 packs them (1.2), 2
    /// writes one record each (1.1).
    fn render(batch: &ExportBatch, sender: &mut ValueState, how: u64) -> Vec<u8> {
        let mut payload = Vec::new();
        match how {
            0 => encode_batch_with(batch, sender, &mut payload),
            1 => encode_batch(batch, &mut payload),
            _ => payload = render_v1_1(batch),
        }
        payload
    }

    /// `batches` as `BATCH` frames a 1.4 sender standing at `sender`
    /// writes.
    fn delta_frames(batches: &[ExportBatch], sender: &mut ValueState) -> Vec<u8> {
        let mut frames = Vec::new();
        for batch in batches {
            write_frame(&mut frames, frame_tag::BATCH, &render(batch, sender, 0)).unwrap();
        }
        frames
    }

    /// A drain report replaces the one before: one `DRAIN` frame taken
    /// twice by a session, and the same totals reported twice in
    /// process, leave the node's drain equal to the totals — live and
    /// recovered — and its ledger balanced.
    #[test]
    fn a_drain_report_delivered_twice_counts_once() {
        let (batches, totals) = sweep_batches(12, 4);
        let (dir, shared) = open_shared("drain_once", DurabilityConfig::default());
        let mut stream = hello_frame("node00", "tok");
        stream.extend(delta_frames(&batches, &mut ValueState::new()));
        let mut drain = Vec::new();
        encode_drain_stats(&totals, &mut drain);
        for _ in 0..2 {
            write_frame(&mut stream, frame_tag::DRAIN, &drain).unwrap();
        }
        Session::default()
            .receive(&stream, &shared, &mut Vec::new())
            .unwrap();
        let mut fleet = shared.fleet.lock().unwrap();
        let node = fleet.find_node("node00").unwrap();
        assert_eq!(fleet.aggregator().drain_stats(node), totals.counts());
        for _ in 0..2 {
            fleet.report_drain(node, &totals).unwrap();
        }
        fleet.settle().unwrap();
        let recovered = DurableFleet::recover(&dir).unwrap();
        for agg in [fleet.aggregator(), recovered.aggregator()] {
            assert_eq!(agg.drain_stats(node), totals.counts());
            let health = agg.health(SimTime::ZERO, SimDuration::ZERO);
            assert_eq!(health.nodes[node.index()].ledger(), Ledger::default());
        }
        drop((recovered, fleet));
        let _ = fs::remove_dir_all(&dir);
    }

    /// One node's stream written by whoever last opened it, and by no
    /// one else. Connection A's batches 10..15 wait in its socket buffer
    /// while B, its reconnect, says hello and re-sends them from an empty
    /// state; A's copies, read last, are refused — taken, their XORs
    /// would have walked the state off what B codes against. Then an
    /// in-process `ingest` codes batch 20 into the stream, and B's next
    /// frame is refused the same way; C says hello and finishes. The
    /// fleet ends as the one that took every batch once, live and
    /// recovered, its state what C's sender holds.
    #[test]
    fn a_connection_whose_stream_was_opened_again_takes_nothing() {
        let (batches, _) = sweep_batches(30, 6);
        let mut reference = crate::FleetAggregator::new();
        let node = reference.add_node("node00");
        for batch in &batches {
            reference.ingest(node, batch);
        }
        let (dir, shared) = open_shared("stale_connection", DurabilityConfig::default());
        let aborted = |res: io::Result<()>| {
            assert_eq!(res.unwrap_err().kind(), io::ErrorKind::ConnectionAborted);
        };
        let stream_of = |shared: &Shared| {
            let fleet = shared.fleet.lock().unwrap();
            let values = fleet.aggregator().stream_values(node).clone();
            (fleet.next_seq(node), values)
        };

        let (mut a, mut a_sender) = (Session::default(), ValueState::new());
        let mut opened = hello_frame("node00", "tok");
        opened.extend(delta_frames(&batches[..10], &mut a_sender));
        a.receive(&opened, &shared, &mut Vec::new()).unwrap();
        let a_stalled = delta_frames(&batches[10..15], &mut a_sender);

        let (mut b, mut b_sender) = (Session::default(), ValueState::new());
        let mut reopened = hello_frame("node00", "tok");
        reopened.extend(delta_frames(&batches[10..15], &mut b_sender));
        b.receive(&reopened, &shared, &mut Vec::new()).unwrap();
        assert_eq!(stream_of(&shared), (15, b_sender.clone()));
        aborted(a.receive(&a_stalled, &shared, &mut Vec::new()));
        assert_eq!(stream_of(&shared), (15, b_sender.clone()), "A's copies");

        let frames = delta_frames(&batches[15..20], &mut b_sender);
        b.receive(&frames, &shared, &mut Vec::new()).unwrap();
        shared
            .fleet
            .lock()
            .unwrap()
            .ingest(node, &batches[20])
            .unwrap();
        let frames = delta_frames(&batches[20..22], &mut b_sender);
        aborted(b.receive(&frames, &shared, &mut Vec::new()));
        assert_eq!(stream_of(&shared).0, 21, "B after the in-process batch");

        let (mut c, mut c_sender) = (Session::default(), ValueState::new());
        let mut last = hello_frame("node00", "tok");
        last.extend(delta_frames(&batches[21..], &mut c_sender));
        c.receive(&last, &shared, &mut Vec::new()).unwrap();
        assert_eq!(stream_of(&shared), (30, c_sender));

        let want = raw_answers(&reference);
        let mut fleet = shared.fleet.lock().unwrap();
        fleet.settle().unwrap();
        assert!(raw_answers(fleet.aggregator()) == want, "the live fleet");
        let recovered = DurableFleet::recover(&dir).unwrap();
        assert!(
            raw_answers(recovered.aggregator()) == want,
            "the recovered fleet"
        );
        drop((recovered, fleet));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Everything an observer of one ended session can see.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        /// What the session wrote, every call's bytes end to end.
        answers: Vec<u8>,
        /// How its last `receive` returned.
        ended: Result<(), (io::ErrorKind, String)>,
        counters: crate::NodeCounters,
        cursor: u64,
        files: Vec<(String, Vec<u8>)>,
    }

    /// Feed `stream` to a fresh session over a fresh fleet, cut into
    /// `pieces`, up to its first error. Once the session is an ingest
    /// session, every call that writes anything is held to the ack
    /// rule: the state directory as it stood at the first byte written
    /// must recover to the last cursor that call acknowledged.
    fn run_session(tag: &str, stream: &[u8], cuts: &[usize], snapshot_every: u64) -> Outcome {
        let (dir, shared) = open_shared(
            tag,
            DurabilityConfig {
                snapshot_every_batches: snapshot_every,
            },
        );
        let copy_tag = format!("{tag}_crash");
        let mut session = Session::default();
        let mut answers = Vec::new();
        let mut ended = Ok(());
        let mut from = 0;
        for &to in cuts.iter().chain([&stream.len()]) {
            let ingesting = matches!(session.role, Role::Ingest(..));
            let mut out = CrashCopy::new(&dir, &copy_tag);
            let res = session.receive(&stream[from..to], &shared, &mut out);
            from = to;
            if let (true, Some(copy)) = (ingesting, &out.copy) {
                let acked = *ack_cursors(&out.bytes, false).last().expect("an ack");
                let recovered = FleetStore::recover(copy).unwrap();
                let node = recovered.find_node("node00").expect("session logged");
                assert_eq!(
                    recovered.next_seq(node),
                    acked,
                    "an ack was written before its burst was flushed"
                );
            }
            answers.extend_from_slice(&out.bytes);
            if let Err(e) = res {
                ended = Err((e.kind(), e.to_string()));
                break;
            }
        }
        let mut fleet = shared.fleet.lock().unwrap();
        // A snapshot may be in flight; the files are compared settled.
        fleet.settle().unwrap();
        let node = fleet.find_node("node00").expect("hello was taken");
        let outcome = Outcome {
            answers,
            ended,
            counters: fleet.aggregator().counters(node),
            cursor: fleet.next_seq(node),
            files: state_files(&dir),
        };
        drop(fleet);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(test_dir(&copy_tag));
        outcome
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A session's outcome does not depend on how `read` happened
        /// to split its stream: a valid ingest stream — the hello, then
        /// batches in delta (1.4), packed and v1.1 renderings with drain reports
        /// between them, then perhaps one frame that ends the session
        /// (a payload that is no batch, an illegal tag, a broken
        /// envelope) with a good frame behind it — fed in arbitrary
        /// pieces writes the same answer bytes, ends the same way and
        /// leaves the same counters, cursor, log and snapshot as the
        /// same stream fed whole. And on the way, under every cut, no
        /// ack is written before the burst it belongs to is on disk.
        #[test]
        fn a_session_fed_its_stream_in_any_pieces_is_the_session_fed_it_whole(
            seed in any::<u64>(),
            samples in 100usize..1500,
            snapshot_every in 1u64..12,
            bad_tail in 0u64..4,
        ) {
            static CASE: AtomicU64 = AtomicU64::new(0);
            let case = CASE.fetch_add(1, Ordering::Relaxed);
            let mut rng = TestRng::new(seed);
            let batches = node_batches(samples, 0.0);
            let mut sender = ValueState::new();
            let mut stream = hello_frame("node00", "tok");
            for batch in &batches {
                let payload = render(batch, &mut sender, rng.below(3));
                write_frame(&mut stream, frame_tag::BATCH, &payload).unwrap();
                if rng.below(4) == 0 {
                    let report = DrainStats { batches: batch.seq + 1, ..DrainStats::default() };
                    let mut payload = Vec::new();
                    encode_drain_stats(&report, &mut payload);
                    write_frame(&mut stream, frame_tag::DRAIN, &payload).unwrap();
                }
            }
            let last = render(batches.last().unwrap(), &mut sender.clone(), 1);
            match bad_tail {
                1 => write_frame(&mut stream, frame_tag::BATCH, &last[..last.len() - 1]).unwrap(),
                2 => write_frame(&mut stream, frame_tag::QUERY, &last).unwrap(),
                3 => {
                    write_frame(&mut stream, frame_tag::BATCH, &last).unwrap();
                    *stream.last_mut().unwrap() ^= 0x01;
                }
                _ => {}
            }
            if bad_tail != 0 {
                write_frame(&mut stream, frame_tag::BATCH, &last).unwrap();
            }

            // Cuts anywhere, and a stretch fed one byte at a time.
            let mut cuts: Vec<usize> = (0..rng.below(40))
                .map(|_| rng.below(stream.len() as u64) as usize)
                .collect();
            let dribble = rng.below(stream.len() as u64) as usize;
            cuts.extend(dribble..(dribble + 24).min(stream.len()));
            cuts.sort_unstable();
            cuts.dedup();

            let tag = |run: &str| format!("cut_{case}_{run}");
            let whole = run_session(&tag("whole"), &stream, &[], snapshot_every);
            let cut = run_session(&tag("pieces"), &stream, &cuts, snapshot_every);
            prop_assert_eq!(whole.ended.is_err(), bad_tail != 0);
            prop_assert_eq!(whole.cursor, batches.len() as u64);
            prop_assert!(whole == cut, "cuts {:?} changed the outcome", cuts);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A 1.4 stream carried over a run of connections, each fed to a
        /// session of its own in arbitrary pieces, ends as the
        /// uninterrupted fleet. Each connection opens with a hello that
        /// resets both ends' value states, resumes at the cursor the
        /// fleet acknowledged — or, a sink restarted, at `seq 0` with the
        /// fleet's cursor ahead, its batches duplicates the session walks
        /// — and codes its batches from an empty state; it ends cleanly,
        /// with its last batch torn off mid-frame (a failed write, sent
        /// again on the next connection), with the fleet killed between
        /// two of its batches and recovered from its directory, or
        /// stalled: the frames after some point stay in its socket buffer
        /// and reach its session only after the next connection's have
        /// been taken — a newer connection carries the stream by then,
        /// so they are refused and change nothing. The sink's totals,
        /// reported last, balance the session's ledger.
        #[test]
        fn a_delta_stream_over_dropped_connections_ends_as_the_uninterrupted_fleet(
            seed in any::<u64>(),
            sweeps in 20u64..60,
            snapshot_every in 1u64..9,
        ) {
            static CASE: AtomicU64 = AtomicU64::new(0);
            let case = CASE.fetch_add(1, Ordering::Relaxed);
            let mut rng = TestRng::new(seed);
            let (batches, totals) = sweep_batches(sweeps, 1 + rng.below(12) as u32);
            let mut reference = crate::FleetAggregator::new();
            let node = reference.add_node("node00");
            for batch in &batches {
                reference.ingest(node, batch);
            }
            let cfg = DurabilityConfig { snapshot_every_batches: snapshot_every };
            let (dir, shared) = open_shared(&format!("dropped_{case}"), cfg);
            let (mut acked, mut connections) = (0usize, 0);
            // A stalled connection's session and the bytes it has yet to
            // receive.
            let mut stalled: Option<(Session, Vec<u8>)> = None;
            let feed_stalled = |stalled: &mut Option<(Session, Vec<u8>)>| -> Result<(), TestCaseError> {
                if let Some((mut session, held)) = stalled.take() {
                    let taken = session.receive(&held, &shared, &mut Vec::new());
                    if held.is_empty() {
                        prop_assert!(taken.is_ok());
                    } else {
                        prop_assert_eq!(taken.unwrap_err().kind(), io::ErrorKind::ConnectionAborted);
                    }
                }
                Ok(())
            };
            while acked < batches.len() {
                connections += 1;
                prop_assert!(connections < 200, "no progress");
                // Past the cursor either way: a restarted sink's stream
                // runs into batches the fleet has not taken.
                let start = if rng.below(5) == 0 { 0 } else { acked };
                let end = (acked + 1 + rng.below(8) as usize).min(batches.len());
                let ending = rng.below(4);
                let mut sender = ValueState::new();
                // The sender's state after the last frame the fleet takes.
                let mut taken = ValueState::new();
                let mut stream = hello_frame("node00", "tok");
                // Where each frame ends, and the sender's state there.
                let mut ends = vec![(stream.len(), ValueState::new())];
                let mut last_frame = 0;
                for (i, batch) in batches[start..end].iter().enumerate() {
                    last_frame = stream.len();
                    write_frame(&mut stream, frame_tag::BATCH, &render(batch, &mut sender, 0)).unwrap();
                    ends.push((stream.len(), sender.clone()));
                    if ending != 1 || start + i + 1 < end {
                        taken = sender.clone();
                    }
                }
                let mut held = Vec::new();
                match ending {
                    1 => {
                        // The last frame only partly written.
                        let last = (stream.len() - last_frame) as u64;
                        stream.truncate(last_frame + rng.below(last) as usize);
                    }
                    3 => {
                        let (cut, state) = ends.swap_remove(rng.below(ends.len() as u64) as usize);
                        held = stream.split_off(cut);
                        taken = state;
                    }
                    _ => {}
                }
                let mut session = Session::default();
                let mut from = 0;
                let mut cuts: Vec<usize> = (0..rng.below(6))
                    .map(|_| rng.below(stream.len() as u64) as usize)
                    .collect();
                cuts.sort_unstable();
                for &to in cuts.iter().chain([&stream.len()]) {
                    session.receive(&stream[from..to], &shared, &mut Vec::new()).unwrap();
                    from = to;
                }
                // The last connection's stalled frames, at last.
                feed_stalled(&mut stalled)?;
                if ending == 3 {
                    stalled = Some((session, held));
                }
                let mut fleet = shared.fleet.lock().unwrap();
                acked = fleet.next_seq(node) as usize;
                // Both ends hold the same values, duplicates walked.
                prop_assert_eq!(fleet.aggregator().stream_values(node), &taken);
                if ending == 2 {
                    // Killed between two batches: what the directory holds.
                    fleet.settle().unwrap();
                    let recovered = DurableFleet::open(&dir, cfg).unwrap();
                    prop_assert_eq!(recovered.recovery().corrupt_frames, 0);
                    prop_assert_eq!(recovered.next_seq(node) as usize, acked);
                    prop_assert_eq!(recovered.aggregator().stream_values(node), &taken);
                    *fleet = recovered;
                }
            }
            feed_stalled(&mut stalled)?;
            let mut report = hello_frame("node00", "tok");
            let mut drain = Vec::new();
            encode_drain_stats(&totals, &mut drain);
            write_frame(&mut report, frame_tag::DRAIN, &drain).unwrap();
            Session::default().receive(&report, &shared, &mut Vec::new()).unwrap();
            let mut fleet = shared.fleet.lock().unwrap();
            fleet.settle().unwrap();
            let recovered = DurableFleet::recover(&dir).unwrap();
            for agg in [fleet.aggregator(), recovered.aggregator()] {
                let health = agg.health(SimTime::ZERO, SimDuration::ZERO);
                prop_assert_eq!(health.nodes[node.index()].ledger(), Ledger::default());
            }
            let want = raw_answers(&reference);
            prop_assert!(raw_answers(fleet.aggregator()) == want, "the live fleet");
            prop_assert!(raw_answers(recovered.aggregator()) == want, "the recovered fleet");
            drop((recovered, fleet));
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
