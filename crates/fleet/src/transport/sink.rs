//! The exporter side of an ingest session: [`SocketSink`].

use super::conn::{retry, Conn, Link};
use super::TransportConfig;
use moda_telemetry::export::{ExportBatch, Sink};
use moda_telemetry::wire::{
    bad_data, encode_batch_as, encode_drain_stats, frame_tag, write_frame, BatchView, Coding,
    ValueState, WireReader,
};
use moda_telemetry::DrainStats;
use std::collections::VecDeque;
use std::io::{self, Write};

/// Exporter-side [`Sink`] that ships batches over TCP with handshake,
/// bounded in-flight window, and reconnect-with-resume (module docs).
#[derive(Debug)]
pub struct SocketSink {
    link: Link,
    replay: Replay,
    /// The last frame read while awaiting acks.
    inbox: Vec<u8>,
}

/// What the sink has sent and cannot yet forget.
#[derive(Debug, Default)]
struct Replay {
    /// Sent but not yet acknowledged, oldest first: `(seq, payload)`,
    /// each payload coded for the connection that is (or was last) up.
    unacked: VecDeque<(u64, Vec<u8>)>,
    /// How this connection's fleet reads batches — their header and
    /// frame tag, and their runs: what its `HELLO_ACK` says it reads.
    coding: Coding,
    /// The value state of this connection's stream as it stands after
    /// every payload in `unacked` — empty while `coding` is
    /// [`Coding::Whole`], which codes nothing against it.
    values: ValueState,
    /// Emptied payload buffers off `unacked`: the next batch (or drain
    /// report) encodes into one instead of growing a fresh `Vec`.
    spare: Vec<Vec<u8>>,
    /// How many `spare` buffers are worth keeping: a window of them.
    spare_cap: usize,
    /// The longest payload encoded so far: what a new buffer is sized
    /// to, so that one recycled never grows for a batch no longer than
    /// one before it.
    longest: usize,
    /// The server's cumulative cursor from the latest ack/handshake.
    server_next_seq: u64,
    /// `ACK` frames the live connection owes: one per frame sent on it,
    /// less the ones read. The server acks every frame in order, a
    /// duplicate batch's too, so this — not `unacked`, which a cursor
    /// ahead of the sink's seqs empties early — is what a drain report
    /// waits out.
    owed: usize,
    /// Batches re-sent from the buffer across all reconnects.
    resent_batches: u64,
}

impl Replay {
    /// Take up a freshly authenticated connection whose server stands
    /// at `next_seq` and reads `revision`: drop what it has durably
    /// applied, code the rest for the new connection — whose stream
    /// starts with an empty value state — and re-send it.
    fn resume(
        &mut self,
        conn: &mut Conn,
        next_seq: u64,
        revision: Option<[u8; 2]>,
    ) -> io::Result<()> {
        self.server_next_seq = next_seq;
        self.release_acked();
        self.recode(Coding::for_revision(revision))?;
        let tag = self.coding.header().frame_tag();
        for (_, payload) in &self.unacked {
            write_frame(&mut conn.writer, tag, payload)?;
            self.resent_batches += 1;
        }
        self.owed = self.unacked.len();
        conn.writer.flush()
    }

    /// Code every unacknowledged payload afresh in `coding` — under its
    /// header, which names the frame tag they are sent with — from an
    /// empty state. The old connection's state unwound back over the
    /// payloads, last first, is the state the oldest was written against;
    /// read forward from there, each gives its records back. Off the hot
    /// path: once per reconnect.
    fn recode(&mut self, coding: Coding) -> io::Result<()> {
        let mut old = std::mem::take(&mut self.values);
        let header = self.coding.header();
        for (_, payload) in self.unacked.iter().rev() {
            old.unwind(payload, header)?;
        }
        self.coding = coding;
        for (_, payload) in &mut self.unacked {
            let batch = BatchView::parse(payload, header)?.to_batch_with(&mut old)?;
            payload.clear();
            encode_batch_as(&batch, coding, &mut self.values, payload);
        }
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

    /// A payload buffer: a spare one, or a new one as long as the
    /// longest payload so far.
    fn buffer(&mut self) -> Vec<u8> {
        self.spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.longest))
    }

    /// Keep an emptied payload buffer for a later frame, up to a
    /// window of them.
    fn recycle(&mut self, mut payload: Vec<u8>) {
        if self.spare.len() < self.spare_cap {
            payload.clear();
            self.spare.push(payload);
        }
    }
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
            replay: Replay {
                spare_cap: cfg.window.max(1),
                ..Replay::default()
            },
            link: Link::new(addr, Some(node_name), token, cfg),
            inbox: Vec::new(),
        };
        sink.link
            .connect(|conn, next_seq, revision| sink.replay.resume(conn, next_seq, revision))?;
        Ok(sink)
    }

    /// Re-point the sink at a moved server (e.g. a fleet tier that
    /// restarted on a new port). The live connection is dropped; the
    /// next send reconnects, handshakes, and resumes from the new
    /// server's persisted cursor — buffered unacked batches replay
    /// exactly like any other reconnect.
    pub fn redirect(&mut self, addr: &str) {
        self.link.redirect(addr);
    }

    /// Re-dial and resume from the server's persisted cursor.
    fn reconnect(&mut self) -> io::Result<()> {
        self.link
            .redial(|conn, next_seq, revision| self.replay.resume(conn, next_seq, revision))
    }

    /// [`SocketSink::reconnect`] unless the link is up.
    fn connected(&mut self) -> io::Result<()> {
        if self.link.conn.is_some() {
            return Ok(());
        }
        self.reconnect()
    }

    /// Fold the frame just received into `inbox` — which must be an
    /// `ACK` — into the replay buffer: its cursor is cumulative.
    fn note_ack(&mut self, tag: u8) -> io::Result<()> {
        if tag != frame_tag::ACK {
            return Err(bad_data("unexpected frame while awaiting ack"));
        }
        let next = WireReader::new(&self.inbox).u64()?;
        self.replay.owed = self.replay.owed.saturating_sub(1);
        self.replay.server_next_seq = self.replay.server_next_seq.max(next);
        self.replay.release_acked();
        Ok(())
    }

    /// Read acks until at most `allowed` batches remain unacknowledged,
    /// then on through every ack the read buffer already holds: the
    /// session acks a burst in one `send`, and an ack left buffered would
    /// keep its batch counted against the window until the next blocking
    /// read. Reconnects (and replays) if the connection drops mid-wait.
    fn pump_acks(&mut self, allowed: usize) -> io::Result<()> {
        while self.replay.unacked.len() > allowed
            || self.link.conn.as_ref().is_some_and(Conn::buffered)
        {
            match self.link.live()?.recv_into(&mut self.inbox) {
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

    /// Read `ACK` frames until the live connection owes none, folding
    /// each cumulative cursor into the replay buffer: the last one read
    /// is the ack of the frame sent last. Unlike
    /// [`SocketSink::pump_acks`] this does not auto-reconnect: the
    /// caller is waiting for the ack of a frame it just sent, and a
    /// reconnect means that frame must be resent first.
    fn read_owed_acks(&mut self) -> io::Result<()> {
        while self.replay.owed > 0 {
            match self.link.live()?.recv_into(&mut self.inbox)? {
                Ok(tag) => self.note_ack(tag)?,
                Err(_) => return Err(bad_data("torn frame while awaiting ack")),
            }
        }
        Ok(())
    }

    /// Ship the exporter's drain totals out-of-band and block until the
    /// server acknowledges them durable — the same ack-after-durable
    /// contract batches get, so a `kill -9` right after this returns
    /// cannot lose the totals. Totals overwrite idempotently, which is
    /// what makes redelivery after a mid-call reconnect safe. The sink's
    /// lifetime retry work rides in `send_retries`.
    pub fn send_drain(&mut self, stats: &DrainStats) -> io::Result<()> {
        retry(3, |_| {
            self.connected()?;
            let mut out = *stats;
            out.send_retries += self.link.reconnects + self.replay.resent_batches;
            let mut payload = self.replay.buffer();
            encode_drain_stats(&out, &mut payload);
            // The server acks in frame order: one ack per frame ahead
            // of the drain still owed, then the drain's own ack.
            let res = self
                .link
                .live()
                .and_then(|conn| conn.send(frame_tag::DRAIN, &payload))
                .and_then(|()| {
                    self.replay.owed += 1;
                    self.read_owed_acks()
                });
            self.replay.recycle(payload);
            if res.is_err() {
                self.link.conn = None;
            }
            res
        })
    }

    /// Times the sink re-dialed and resumed from the server's cursor.
    pub fn reconnects(&self) -> u64 {
        self.link.reconnects
    }

    /// The persisted cursor the server reported at the last handshake
    /// — nonzero after a resume proves nothing replayed from `seq 0`.
    pub fn last_resume_seq(&self) -> u64 {
        self.link.answered
    }

    /// Batches re-delivered from the replay buffer across reconnects.
    pub fn resent_batches(&self) -> u64 {
        self.replay.resent_batches
    }

    /// Batches sent whose `ACK` the sink has not read — what the window
    /// counts. A read for acks consumes every `ACK` already buffered.
    pub fn unacked_len(&self) -> usize {
        self.replay.unacked.len()
    }
}

impl Sink for SocketSink {
    fn write_batch(&mut self, batch: &ExportBatch) -> io::Result<()> {
        // Up first, so the batch is coded for the connection it goes out
        // on (a link already down gets its reconnect cycle here).
        self.connected()?;
        let replay = &mut self.replay;
        let mut payload = replay.buffer();
        encode_batch_as(batch, replay.coding, &mut replay.values, &mut payload);
        replay.longest = replay.longest.max(payload.len());
        // In the replay buffer from here, so a reconnect re-codes and
        // re-sends it with the rest. Two passes: the live connection,
        // then one reconnect cycle, which sends it.
        self.replay.unacked.push_back((batch.seq, payload));
        let sent = retry(2, |_| {
            if self.link.conn.is_none() {
                return self.reconnect();
            }
            let (_, payload) = self.replay.unacked.back().expect("just pushed");
            let tag = self.replay.coding.header().frame_tag();
            self.link.on_conn(|conn| conn.send(tag, payload))?;
            self.replay.owed += 1;
            Ok(())
        });
        if let Err(e) = sent {
            // Rolled back: the exporter re-stages these records under
            // the same seq later, and the stream state forgets them —
            // unless a failed resume found the fleet past this seq and
            // dropped the batch itself, re-coding what was left.
            if matches!(self.replay.unacked.back(), Some((seq, _)) if *seq == batch.seq) {
                let (_, payload) = self.replay.unacked.pop_back().expect("matched");
                let header = self.replay.coding.header();
                self.replay.values.unwind(&payload, header)?;
                self.replay.recycle(payload);
            }
            return Err(e);
        }
        // Bounded in-flight window: block on acks past it.
        self.pump_acks(self.link.cfg.window.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{DurabilityConfig, DurableFleet};
    use crate::transport::tests::{
        node_batches, raw_answers, rollup_sweep_batches, sweep_batches, test_dir,
    };
    use crate::transport::FleetListener;
    use crate::FleetAggregator;
    use moda_sim::{SimDuration, SimTime};
    use std::fs;
    use std::net::TcpListener;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// A delta-coded stream through every way a connection can end: a
    /// reconnect with batches in flight (re-coded for the new
    /// connection), a `write_batch` that fails and is re-staged, the
    /// fleet killed between two batches of one connection and recovered
    /// from its directory (snapshots carrying the value state, the log
    /// its deltas), and a sink restarted from `seq 0` while the fleet's
    /// cursor is far ahead (its batches are duplicates, walked so the
    /// next is read right). The fleet ends with the uninterrupted
    /// fleet's samples, and a recovery of its directory with them too.
    #[test]
    fn a_delta_stream_recovers_from_every_way_a_connection_ends() {
        let dir = test_dir("delta_faults");
        let (batches, _) = rollup_sweep_batches(120, 16);
        assert_eq!(batches.len(), 120);
        let mut reference = FleetAggregator::new();
        let node = reference.add_node("node00");
        for batch in &batches {
            reference.ingest(node, batch);
        }
        let want = raw_answers(&reference);

        let cfg = DurabilityConfig {
            snapshot_every_batches: 7,
        };
        let serve = |fleet: DurableFleet| {
            FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), "tok").unwrap()
        };
        let listener = serve(DurableFleet::open(&dir, cfg).unwrap());
        let addr = listener.local_addr().to_string();
        let tuning = TransportConfig {
            window: 4,
            reconnect_attempts: 3,
            reconnect_pause: Duration::from_millis(10),
            ..TransportConfig::default()
        };
        let mut sink = SocketSink::connect_with(&addr, "node00", "tok", tuning.clone()).unwrap();
        assert_eq!(
            sink.replay.coding,
            Coding::Varints,
            "a 1.6 pair codes bucket runs under the varint header"
        );
        for batch in &batches[..27] {
            sink.write_batch(batch).unwrap();
        }
        // The last three go out while the fleet lock is held, so no ack
        // can come back for them: a read for acks takes every one the
        // fleet has sent, so only a stalled fleet leaves batches in
        // flight by construction.
        sink.wait_idle().unwrap();
        let held = listener.fleet();
        let stalled = held.lock().unwrap();
        for batch in &batches[27..30] {
            sink.write_batch(batch).unwrap();
        }
        // Hung up with batches in flight: they are re-coded and re-sent.
        assert!(sink.unacked_len() > 0);
        sink.redirect(&addr);
        drop(stalled);
        for batch in &batches[30..50] {
            sink.write_batch(batch).unwrap();
        }
        // A write that fails: nothing answers where the sink dials.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap().to_string();
        drop(dead);
        sink.redirect(&dead_addr);
        assert!(sink.write_batch(&batches[50]).is_err());
        // The exporter re-stages the batch under its seq.
        sink.redirect(&addr);
        for batch in &batches[50..70] {
            sink.write_batch(batch).unwrap();
        }
        // The fleet is killed between two batches of this connection.
        drop(listener.shutdown());
        let recovered = DurableFleet::open(&dir, cfg).unwrap();
        assert_eq!(recovered.recovery().corrupt_frames, 0);
        let listener = serve(recovered);
        sink.redirect(&listener.local_addr().to_string());
        for batch in &batches[70..90] {
            sink.write_batch(batch).unwrap();
        }
        sink.wait_idle().unwrap();
        assert!(sink.reconnects() >= 3, "{}", sink.reconnects());
        drop(sink);
        // A restarted sink ships its stream from the start.
        let addr = listener.local_addr().to_string();
        let mut restarted = SocketSink::connect_with(&addr, "node00", "tok", tuning).unwrap();
        assert_eq!(restarted.last_resume_seq(), 90);
        for batch in &batches {
            restarted.write_batch(batch).unwrap();
        }
        restarted.wait_idle().unwrap();
        // Its duplicates kept the fleet's state in step: no batch after
        // them was refused (a refusal ends the connection).
        assert_eq!(restarted.reconnects(), 0);
        drop(restarted);

        let shared = listener.shutdown();
        let mut fleet = shared.lock().unwrap();
        fleet.settle().unwrap();
        let node = fleet.find_node("node00").unwrap();
        assert_eq!(fleet.next_seq(node), 120);
        assert!(fleet.aggregator().counters(node).duplicate_batches >= 90);
        assert!(raw_answers(fleet.aggregator()) == want, "the live fleet");
        drop(fleet);
        drop(shared);
        let recovered = DurableFleet::recover(&dir).unwrap();
        assert_eq!(recovered.recovery().corrupt_frames, 0);
        assert!(
            raw_answers(recovered.aggregator()) == want,
            "the recovered fleet"
        );
        drop(recovered);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The record kinds of every batch a sink sends to a fleet whose
    /// `HELLO_ACK` ends in `revision` (none: a fleet older than 1.3),
    /// checked to arrive under the frame tag that revision reads — a
    /// 1.6 fleet's `BATCH_1_6`, an older one's `BATCH` — and to read
    /// back, with a value state of the fleet's own, as the batches sent;
    /// and the payload bytes sent.
    fn sent_to(revision: &[u8], batches: &[ExportBatch]) -> (Vec<Vec<u8>>, usize) {
        use moda_telemetry::wire::{put_u64, read_frame, BatchHeader};
        let server = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let n = batches.len();
        let trailer = revision.to_vec();
        let old_fleet = std::thread::spawn(move || {
            let (mut stream, _) = server.accept().unwrap();
            let (tag, _) = read_frame(&mut stream).unwrap().unwrap();
            assert_eq!(tag, frame_tag::HELLO);
            // Status and cursor, then whatever revision this fleet names.
            let mut ack = vec![0u8];
            put_u64(&mut ack, 0);
            ack.extend_from_slice(&trailer);
            write_frame(&mut stream, frame_tag::HELLO_ACK, &ack).unwrap();
            let want = match trailer[..] >= [1, 6][..] {
                true => frame_tag::BATCH_1_6,
                false => frame_tag::BATCH,
            };
            let mut received = Vec::new();
            for seq in 1..=n as u64 {
                let (tag, payload) = read_frame(&mut stream).unwrap().unwrap();
                assert_eq!(tag, want, "revision {trailer:?}");
                received.push((BatchHeader::of_frame_tag(tag).unwrap(), payload));
                write_frame(&mut stream, frame_tag::ACK, &seq.to_le_bytes()).unwrap();
            }
            received
        });
        let mut sink = SocketSink::connect(&addr, "node00", "tok").unwrap();
        assert_eq!(
            sink.replay.coding,
            Coding::for_revision(revision.try_into().ok())
        );
        for batch in batches {
            sink.write_batch(batch).unwrap();
        }
        sink.wait_idle().unwrap();
        drop(sink);
        let received = old_fleet.join().unwrap();
        let mut state = ValueState::new();
        let kinds = received
            .iter()
            .zip(batches)
            .map(|((header, payload), batch)| {
                let view = BatchView::parse(payload, *header).unwrap();
                assert_eq!(&view.to_batch_with(&mut state).unwrap(), batch);
                let mut r = WireReader::new(payload);
                let mut kinds = Vec::new();
                match header {
                    BatchHeader::Fixed => drop((r.u64().unwrap(), r.u32().unwrap())),
                    BatchHeader::Varint => drop(r.uv().unwrap()),
                }
                while !r.done() {
                    kinds.push(r.u8().unwrap());
                    let len = match header {
                        BatchHeader::Fixed => u64::from(r.u32().unwrap()),
                        BatchHeader::Varint => r.uv().unwrap(),
                    };
                    r.take(len as usize).unwrap();
                }
                // Sample runs only: `meta` records are kind 0.
                kinds.retain(|&kind| kind != 0);
                kinds
            })
            .collect();
        let bytes = received.iter().map(|(_, payload)| payload.len()).sum();
        (kinds, bytes)
    }

    /// [`sent_to`]'s record kinds.
    fn run_kinds_sent_to(revision: &[u8], batches: &[ExportBatch]) -> Vec<Vec<u8>> {
        sent_to(revision, batches).0
    }

    /// A 1.6 fleet gets what a 1.5 fleet gets — sweeps, and each gauge's
    /// sealed buckets as one `bucket_run` — under `BATCH_1_6`, each batch
    /// with the varint header: fewer bytes, the same records.
    #[test]
    fn a_1_6_fleet_gets_varint_batches() {
        let (batches, _) = rollup_sweep_batches(36, 4);
        let (kinds, bytes) = sent_to(&[1, 6], &batches);
        let (as_1_5, bytes_1_5) = sent_to(&[1, 5], &batches);
        assert_eq!(kinds, as_1_5);
        assert!(
            kinds[1..].iter().flatten().any(|&kind| kind == 8),
            "{kinds:?}"
        );
        // Eleven header bytes a batch fewer at least (a seq below 128),
        // two a record (a length below 16 KiB).
        let records: usize = kinds.iter().map(Vec::len).sum();
        assert!(
            bytes + 11 * batches.len() + 2 * records <= bytes_1_5,
            "{bytes} vs {bytes_1_5}"
        );
    }

    /// A 1.5 fleet gets every sweep after the first batch's single
    /// samples (each between two `meta` records) as a `sweep` record —
    /// but where a gauge's sample lands between two gauges' buckets — and
    /// each gauge's sealed buckets as one `bucket_run` record, never a
    /// `bucket` or `sketch` record.
    #[test]
    fn a_1_5_fleet_gets_bucket_runs() {
        let (batches, _) = rollup_sweep_batches(36, 4);
        let kinds = run_kinds_sent_to(&[1, 5], &batches);
        assert!(kinds[0].iter().all(|&kind| kind == 6), "{kinds:?}");
        let later = || kinds[1..].iter().flatten();
        assert!(later().all(|&kind| [6, 7, 8].contains(&kind)), "{kinds:?}");
        // Three seals of four gauges, a run each.
        assert_eq!(
            later().filter(|&&kind| kind == 8).count(),
            3 * 4,
            "{kinds:?}"
        );
    }

    /// A 1.4 fleet — which would length-skip a `bucket_run`, and every
    /// bucket with it — gets sweeps, and its sealed buckets as `bucket`
    /// and `sketch` records.
    #[test]
    fn a_1_4_fleet_gets_sweeps() {
        let (batches, _) = rollup_sweep_batches(36, 4);
        let kinds = run_kinds_sent_to(&[1, 4], &batches);
        assert!(kinds[0].iter().all(|&kind| kind == 6), "{kinds:?}");
        let later = || kinds[1..].iter().flatten();
        assert!(
            later().all(|&kind| [2, 3, 6, 7].contains(&kind)),
            "{kinds:?}"
        );
        assert_eq!(
            later().filter(|&&kind| kind == 2).count(),
            3 * 4,
            "{kinds:?}"
        );
        assert!(later().any(|&kind| kind == 3), "{kinds:?}");
        let (batches, _) = sweep_batches(6, 8);
        let kinds = run_kinds_sent_to(&[1, 4], &batches);
        assert!(kinds[1..].iter().all(|k| k == &[7]), "{kinds:?}");
    }

    /// A 1.3 fleet gets `samples_delta` runs, never a kind it would
    /// skip.
    #[test]
    fn a_1_3_fleet_gets_delta_runs() {
        let (batches, _) = rollup_sweep_batches(36, 4);
        let kinds = run_kinds_sent_to(&[1, 3], &batches);
        let all = || kinds.iter().flatten();
        assert!(all().all(|&kind| [2, 3, 6].contains(&kind)), "{kinds:?}");
        assert!(all().any(|&kind| kind == 2), "{kinds:?}");
    }

    /// A fleet older than 1.3 answers the hello without a revision: the
    /// sink speaks 1.2 to it — plain `samples` runs any reader takes.
    #[test]
    fn a_fleet_that_names_no_revision_gets_plain_runs() {
        let (batches, _) = rollup_sweep_batches(36, 4);
        let kinds = run_kinds_sent_to(&[], &batches);
        let all = || kinds.iter().flatten();
        assert!(all().all(|&kind| [2, 3, 5].contains(&kind)), "{kinds:?}");
        assert!(all().any(|&kind| kind == 2), "{kinds:?}");
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

    /// A 1.6 fleet on a fresh port that answers the hello at cursor 0,
    /// reads `frames` batch frames, then hands its end to `then` — which
    /// answers them as it likes — and holds the connection until the
    /// sink hangs up.
    fn fake_fleet(
        frames: usize,
        then: impl FnOnce(&mut std::net::TcpStream) + Send + 'static,
    ) -> (String, std::thread::JoinHandle<()>) {
        fake_fleet_at(0, frames, then)
    }

    /// [`fake_fleet`] answering the hello at `cursor`.
    fn fake_fleet_at(
        cursor: u64,
        frames: usize,
        then: impl FnOnce(&mut std::net::TcpStream) + Send + 'static,
    ) -> (String, std::thread::JoinHandle<()>) {
        use moda_telemetry::wire::{put_u64, read_frame};
        use std::io::Read;
        let server = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let fleet = std::thread::spawn(move || {
            let (mut stream, _) = server.accept().unwrap();
            let (tag, _) = read_frame(&mut stream).unwrap().unwrap();
            assert_eq!(tag, frame_tag::HELLO);
            let mut ack = vec![0u8];
            put_u64(&mut ack, cursor);
            ack.extend_from_slice(&[1, 6]);
            write_frame(&mut stream, frame_tag::HELLO_ACK, &ack).unwrap();
            for _ in 0..frames {
                let (tag, _) = read_frame(&mut stream).unwrap().unwrap();
                assert_eq!(tag, frame_tag::BATCH_1_6);
            }
            then(&mut stream);
            let _ = stream.read_to_end(&mut Vec::new());
        });
        (addr, fleet)
    }

    /// The `ACK` frames of cursors `cursors`, back to back.
    fn ack_frames(cursors: std::ops::RangeInclusive<u64>) -> Vec<u8> {
        let mut out = Vec::new();
        for cursor in cursors {
            write_frame(&mut out, frame_tag::ACK, &cursor.to_le_bytes()).unwrap();
        }
        out
    }

    /// A sink with `window` whose io timeout turns a read for an ack
    /// that never comes into an error rather than a hang.
    fn windowed_sink(addr: &str, window: usize) -> SocketSink {
        let cfg = TransportConfig {
            window,
            io_timeout: Some(Duration::from_secs(5)),
            reconnect_attempts: 1,
            ..TransportConfig::default()
        };
        SocketSink::connect_with(addr, "node00", "tok", cfg).unwrap()
    }

    /// A fleet that acks a full window in one `send`: the `write_batch`
    /// that blocked on it reads every ack the burst carried, so the
    /// whole window reopens at once — not one batch of it.
    #[test]
    fn a_burst_of_acks_reopens_the_whole_window() {
        let window = 8;
        let (batches, _) = sweep_batches(window as u64, 4);
        let (addr, fleet) = fake_fleet(window, move |stream| {
            stream.write_all(&ack_frames(1..=window as u64)).unwrap();
        });
        let mut sink = windowed_sink(&addr, window);
        for batch in &batches[..window - 1] {
            sink.write_batch(batch).unwrap();
        }
        assert_eq!(sink.unacked_len(), window - 1);
        sink.write_batch(&batches[window - 1]).unwrap();
        assert_eq!(sink.unacked_len(), 0, "every buffered ack was read");
        assert!(!sink.link.conn.as_ref().unwrap().buffered());
        drop(sink);
        fleet.join().unwrap();
    }

    /// A drain report sent right after a pump that read a whole burst
    /// is owed its own ack only: it returns once that ack is read, and
    /// reads no further.
    #[test]
    fn send_drain_after_a_drained_burst_reads_only_its_own_ack() {
        use moda_telemetry::wire::read_frame;
        use std::sync::atomic::{AtomicBool, Ordering};
        let window = 8;
        let (batches, _) = sweep_batches(window as u64, 4);
        let drain_acked = Arc::new(AtomicBool::new(false));
        let acked = Arc::clone(&drain_acked);
        let (addr, fleet) = fake_fleet(window, move |stream| {
            stream.write_all(&ack_frames(1..=window as u64)).unwrap();
            let (tag, _) = read_frame(&mut *stream).unwrap().unwrap();
            assert_eq!(tag, frame_tag::DRAIN);
            std::thread::sleep(Duration::from_millis(50));
            acked.store(true, Ordering::SeqCst);
            stream
                .write_all(&ack_frames(window as u64..=window as u64))
                .unwrap();
        });
        let mut sink = windowed_sink(&addr, window);
        for batch in &batches {
            sink.write_batch(batch).unwrap();
        }
        assert_eq!(sink.unacked_len(), 0);
        sink.send_drain(&DrainStats::default()).unwrap();
        assert!(
            drain_acked.load(Ordering::SeqCst),
            "returned before its ack"
        );
        assert!(!sink.link.conn.as_ref().unwrap().buffered());
        assert_eq!(sink.reconnects(), 0);
        drop(sink);
        fleet.join().unwrap();
    }

    /// A sink restarted behind the fleet: the fleet answers its hello at
    /// cursor 90 and acks its three batches — duplicates there — at 90,
    /// in pieces. The first ack releases all three, so the sink holds no
    /// batch while two of their acks are still coming; a drain report
    /// sent then is owed those two and its own, and returns only after
    /// the gate in front of its own ack opens.
    #[test]
    fn send_drain_behind_a_cursor_ahead_of_the_sink_waits_for_its_own_ack() {
        use moda_telemetry::wire::read_frame;
        use std::sync::atomic::{AtomicBool, Ordering};
        let (batches, _) = sweep_batches(3, 4);
        let gate = Arc::new(AtomicBool::new(false));
        let opened = Arc::clone(&gate);
        let (addr, fleet) = fake_fleet_at(90, batches.len(), move |stream| {
            for _ in 0..3 {
                stream.write_all(&ack_frames(90..=90)).unwrap();
                std::thread::sleep(Duration::from_millis(30));
            }
            let (tag, _) = read_frame(&mut *stream).unwrap().unwrap();
            assert_eq!(tag, frame_tag::DRAIN);
            std::thread::sleep(Duration::from_millis(50));
            opened.store(true, Ordering::SeqCst);
            stream.write_all(&ack_frames(90..=90)).unwrap();
        });
        let mut sink = windowed_sink(&addr, 8);
        for batch in &batches {
            sink.write_batch(batch).unwrap();
        }
        sink.wait_idle().unwrap();
        assert_eq!(sink.unacked_len(), 0, "the cursor released every batch");
        sink.send_drain(&DrainStats::default()).unwrap();
        assert!(gate.load(Ordering::SeqCst), "returned on a stale ack");
        assert!(!sink.link.conn.as_ref().unwrap().buffered());
        assert_eq!(sink.reconnects(), 0);
        drop(sink);
        fleet.join().unwrap();
    }

    /// A burst whose last `ACK` arrives cut in two: the read buffer ends
    /// inside that frame, and the pump finishes it from the socket —
    /// no torn frame, no reconnect.
    #[test]
    fn an_ack_cut_at_the_read_buffers_edge_is_finished_from_the_socket() {
        let window = 8;
        let (batches, _) = sweep_batches(window as u64, 4);
        let (addr, fleet) = fake_fleet(window, move |stream| {
            let acks = ack_frames(1..=window as u64);
            let cut = acks.len() - 9;
            stream.write_all(&acks[..cut]).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            stream.write_all(&acks[cut..]).unwrap();
        });
        let mut sink = windowed_sink(&addr, window);
        for batch in &batches {
            sink.write_batch(batch).unwrap();
        }
        assert_eq!(sink.unacked_len(), 0);
        assert_eq!(sink.reconnects(), 0);
        drop(sink);
        fleet.join().unwrap();
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

        // The retry work surfaces in the server's drain accounting: a
        // report replaces the one before, so two in a row count it once.
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
            "lifetime retries reported once in the drain accounting"
        );
        drop(fleet);
        let _ = fs::remove_dir_all(&dir);
    }
}
