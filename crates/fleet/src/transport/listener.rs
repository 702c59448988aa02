//! The accept loop and the one function that runs a session over a
//! socket: [`FleetListener`], `serve_connection`.

use super::session::Session;
use crate::persist::DurableFleet;
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Bytes a session takes off its socket per `read`: what one receive
/// burst ([`Session::receive`]) holds at most, and so what the log's
/// write buffer is sized from.
pub(crate) const RECV_BUF: usize = 64 * 1024;

/// What one listener and all of its sessions share.
#[derive(Debug)]
pub(super) struct Shared {
    pub(super) fleet: Arc<Mutex<DurableFleet>>,
    /// The token a hello must carry.
    pub(super) token: String,
    pub(super) auth_failures: AtomicU64,
    pub(super) queries_served: AtomicU64,
    /// Set at shutdown; a session's next read timeout sees it.
    stop: AtomicBool,
}

impl Shared {
    pub(super) fn new(fleet: Arc<Mutex<DurableFleet>>, token: &str) -> Shared {
        Shared {
            fleet,
            token: token.to_string(),
            auth_failures: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }
}

/// Accept-loop server: framed TCP connections feeding a shared
/// [`DurableFleet`]. Every applied batch is durable (logged) before its
/// `ACK` goes out, which is what makes the resume contract sound.
#[derive(Debug)]
pub struct FleetListener {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
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
        let shared = Arc::new(Shared::new(fleet, token));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let shared = Arc::clone(&shared);
                    let handle = std::thread::spawn(move || {
                        let _ = serve_connection(stream, &shared);
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
            shared,
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
        Arc::clone(&self.shared.fleet)
    }

    /// Sessions rejected for a bad auth token.
    pub fn auth_failures(&self) -> u64 {
        self.shared.auth_failures.load(Ordering::SeqCst)
    }

    /// Query frames answered (including typed refusals) across every
    /// query session this listener has served.
    pub fn queries_served(&self) -> u64 {
        self.shared.queries_served.load(Ordering::SeqCst)
    }

    /// Stop accepting, drain connection threads, and hand back the
    /// shared fleet.
    pub fn shutdown(mut self) -> Arc<Mutex<DurableFleet>> {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway dial.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.conn_threads.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
        self.fleet()
    }
}

/// Run one [`Session`] over `stream` until the peer disconnects, the
/// session ends itself (see [`Session::receive`]) or the listener shuts
/// down. What a session does not know lives here: the socket, the
/// short read timeout that keeps shutdown prompt (a timed-out read
/// loses nothing — the session buffers half-received frames), the stop
/// flag, and the module docs' flush discipline: the buffered write
/// half is flushed once everything received has been handled, i.e.
/// right before blocking in `read`, and on the way out — a refusal, or
/// acks for frames already durable, still go out when a session ends.
fn serve_connection(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .ok();
    let mut out = BufWriter::new(stream.try_clone()?);
    let mut session = Session::default();
    let mut tmp = [0u8; RECV_BUF];
    let served = (|| loop {
        out.flush()?;
        match stream.read(&mut tmp) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => session.receive(&tmp[..n], shared, &mut out)?,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    })();
    served.and(out.flush())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::DurabilityConfig;
    use crate::transport::tests::{raw_ingest_session, test_dir};
    use moda_telemetry::wire::{frame_tag, read_frame, write_frame, BatchHeader, BatchView};
    use std::fs;

    #[test]
    fn a_skipped_unknown_kind_record_is_counted_by_the_aggregator() {
        let dir = test_dir("unknown_kind");
        let fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let listener =
            FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), "tok").unwrap();
        let addr = listener.local_addr().to_string();
        let unknown = || {
            listener
                .fleet()
                .lock()
                .unwrap()
                .aggregator()
                .unknown_records()
        };
        assert_eq!(unknown(), 0);

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
        let view = BatchView::parse(&payload, BatchHeader::Fixed).unwrap();
        assert_eq!(view.unknown_records(), 1);

        let mut stream = raw_ingest_session(&addr, "node00", "tok");
        write_frame(&mut stream, frame_tag::BATCH, &payload).unwrap();
        let (tag, _) = read_frame(&mut stream).unwrap().expect("batch ack");
        assert_eq!(tag, frame_tag::ACK);
        assert_eq!(unknown(), 1, "counted with no registry attached");

        drop(stream);
        drop(listener.shutdown());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A peer's `bucket`, `sketch` or `bucket_run` record of resolution
    /// 0 — under `BATCH` or `BATCH_1_6` — ends its session with nothing
    /// taken: no ack, no panic on the session thread, so the fleet lock
    /// is not poisoned, and the fleet serves the next session as before.
    #[test]
    fn a_tier_resolution_of_0_ends_its_session_and_the_fleet_serves_on() {
        use crate::transport::tests::node_batches;
        use crate::SocketSink;
        use moda_sim::{SimDuration, SimTime};
        use moda_telemetry::export::{ExportBatch, ExportRecord, Sink};
        use moda_telemetry::wire::{encode_batch_as, Coding, ValueState};
        use moda_telemetry::{MetricId, MetricMeta, SketchEntry, SourceDomain};
        let dir = test_dir("zero_res");
        let fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let listener =
            FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), "tok").unwrap();
        let addr = listener.local_addr().to_string();
        let meta = ExportRecord::Meta {
            id: MetricId(0),
            meta: MetricMeta::gauge("m", "u", SourceDomain::Hardware),
        };
        let bucket = ExportRecord::Bucket {
            id: MetricId(0),
            res: SimDuration(0),
            start: SimTime(5),
            count: 1,
            sum: 1.0,
            min: 1.0,
            max: 1.0,
            last: 1.0,
        };
        let sketch = ExportRecord::Sketch {
            id: MetricId(0),
            res: SimDuration(0),
            start: SimTime(5),
            entry: SketchEntry {
                sign: 1,
                key: 3,
                count: 1,
            },
        };
        // Kind 2, kind 3 after its bucket, and kind 8.
        for (k, (records, coding)) in [
            (vec![bucket.clone()], Coding::Sweeps),
            (vec![bucket.clone(), sketch.clone()], Coding::Sweeps),
            (vec![bucket.clone()], Coding::Buckets),
            (vec![sketch.clone()], Coding::Varints),
            (vec![bucket.clone()], Coding::Varints),
        ]
        .into_iter()
        .enumerate()
        {
            let name = format!("hostile{k}");
            let mut stream = raw_ingest_session(&addr, &name, "tok");
            let mut state = ValueState::new();
            for (seq, records) in [vec![meta.clone()], records].into_iter().enumerate() {
                let mut payload = Vec::new();
                let batch = ExportBatch {
                    seq: seq as u64,
                    records,
                };
                encode_batch_as(&batch, coding, &mut state, &mut payload);
                write_frame(&mut stream, coding.header().frame_tag(), &payload).unwrap();
            }
            let (tag, _) = read_frame(&mut stream).unwrap().expect("the meta's ack");
            assert_eq!(tag, frame_tag::ACK);
            assert!(
                read_frame(&mut stream).unwrap().is_err(),
                "case {k}: no ack"
            );
            let shared = listener.fleet();
            assert!(!shared.is_poisoned(), "case {k}");
            let fleet = shared.lock().unwrap();
            let node = fleet.find_node(&name).unwrap();
            assert_eq!(fleet.next_seq(node), 1, "case {k}");
            assert_eq!(fleet.aggregator().counters(node).buckets, 0);
        }
        // And the fleet takes a well-formed stream as ever.
        let batches = node_batches(500, 0.0);
        let mut sink = SocketSink::connect(&addr, "node00", "tok").unwrap();
        for batch in &batches {
            sink.write_batch(batch).unwrap();
        }
        sink.wait_idle().unwrap();
        drop(sink);
        let shared = listener.shutdown();
        let fleet = shared.lock().unwrap();
        let node = fleet.find_node("node00").unwrap();
        assert_eq!(fleet.next_seq(node), batches.len() as u64);
        drop(fleet);
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
}
