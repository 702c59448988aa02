//! Durability for the fleet tier: periodic snapshots plus an
//! append-only log of ingested wire batches.
//!
//! The fleet knowledge base is a *service* in the paper's center-level
//! deployment (ODA-in-Practice, DCDB Wintermute): it must survive a
//! restart without replaying every node from `seq 0`. This module makes
//! [`FleetAggregator`] restartable from a state directory, in three
//! parts with one job each: `dir` is the directory — `snapshot.bin`,
//! `wal-<epoch>.log` — and the only code here that touches the
//! filesystem; `snapshot` is the byte layout of a whole aggregator, to
//! and from a slice; `wal` is the log — its entry kinds, replay as a
//! function of the log's bytes, and the writer whose `commit` is the
//! one place the log is flushed.
//!
//! What is left here is what ties them: [`DurableFleet`], [`Burst`] and
//! the **rotation order**. A snapshot stores the epoch of the log that
//! follows it, so the surviving snapshot always names exactly one log,
//! and a rotation from epoch `N` is three steps, only the first and the
//! last of which hold the fleet:
//!
//! 1. **Cut** (under whatever lock the caller holds): commit
//!    `wal-N.log`, begin `wal-(N+1).log` empty, encode the image naming
//!    `N+1`, and **tee** the log — from here every entry is appended to
//!    both logs and a commit flushes both. A crash now, or at any later
//!    point before the rename, finds snapshot `N` and a `wal-N.log`
//!    that holds every acknowledged entry; `wal-(N+1).log` and
//!    `snapshot.tmp` are files nothing names, swept at the next open.
//! 2. **Write** (on a writer thread for a cadence snapshot, holding
//!    nothing; inline for [`DurableFleet::snapshot`]): `snapshot.tmp`,
//!    fsync, rename over `snapshot.bin`. The rename is the single
//!    atomic switch. A crash after it finds snapshot `N+1` and a
//!    `wal-(N+1).log` that holds every acknowledged entry since the
//!    image — it got each of them when `wal-N.log` did; `wal-N.log` is
//!    now the file nothing names.
//! 3. **Promote** (at the next commit that finds the writer done, at
//!    the next cadence point, or in [`DurableFleet::settle`]): join the
//!    writer, close the old log, the tee'd log becomes the log, the
//!    epoch moves, `wal-N.log` is unlinked by name. A crash before the
//!    unlink leaves a stray.
//!
//! **An entry is acknowledged only if both logs took it and flushed**:
//! which of the two recovery will read is decided by a rename on
//! another thread, so during the window each must be complete on its
//! own. The first failed write or flush on either poisons the writer
//! (see `wal`): nothing more is acknowledged until the directory is
//! reopened. A write that fails drops the tee and leaves `snapshot.bin`
//! and `wal-N.log` as they were; the error is returned by the mutation
//! that observes it and the cadence counter is put back, so the next
//! batch tries again. At most one snapshot is in flight: a cadence
//! point that finds one joins it first, which is the whole slow-disk
//! policy. None of this is recovery's business: it reads one snapshot
//! and the one log that snapshot names, whatever else is in the
//! directory.
//!
//! **Discipline: logged before it is visible, flushed before it is
//! acknowledged.** A receive burst ([`DurableFleet::burst`]) takes each
//! received batch as the bytes it arrived in — validated where they lie
//! ([`BatchView`]), its `chunk` records walked, appended as
//! `[node][those bytes]`, applied off the same bytes and that walk —
//! and commits the log **once**, in [`Burst::commit`];
//! the burst holds the fleet exclusively until then, so no reader sees
//! a batch whose log bytes are still buffered and nothing is
//! acknowledged before the flush. [`DurableFleet::ingest`] is a burst
//! of one over the bytes it encodes, so it returns only once the batch
//! is flushed. A `kill -9` therefore loses at most
//! unflushed entries that nobody was told about and a torn tail entry;
//! recovery ([`DurableFleet::recover`]) restores the snapshot, replays
//! the log tail — re-delivered batches bounce off the existing
//! per-session duplicate guard — truncates any torn/corrupt tail
//! (counted in [`RecoveryStats`]), and resumes every node session at
//! its persisted cursor. A reconnecting exporter learns that cursor
//! from the transport handshake (see [`crate::transport`]) and ships
//! only what the server has not durably applied: zero re-ingest from
//! `seq 0`.
//!
//! Durability scope: a commit is a flush (`write(2)`), per entry or per
//! burst, so process crashes (`kill -9`) lose nothing that was
//! acknowledged; surviving a *machine* crash would additionally need
//! `fsync` where that flush is, which this tier deliberately trades
//! away (snapshots *are* fsynced — on the writer thread, off the
//! acknowledgement path).

mod dir;
mod snapshot;
mod wal;

use crate::aggregator::{check_strings, FleetAggregator, IngestReport};
use crate::store::{FleetStore, NodeId};
use dir::{LogWriter, StateDir};
use moda_obs::{LatencyRecorder, Obs};
use moda_telemetry::export::ExportBatch;
use moda_telemetry::wire::{encode_batch_with, BatchHeader, BatchView, ValueState};
use moda_telemetry::DrainStats;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::{self, JoinHandle};
use std::time::Instant;
use wal::{Entry, Wal};

// -------------------------------------------------------------- config

/// Tuning for [`DurableFleet`].
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Take a snapshot (and truncate the log) every this many applied
    /// batches. The log between snapshots is the recovery replay bound.
    pub snapshot_every_batches: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            snapshot_every_batches: 1024,
        }
    }
}

/// What [`DurableFleet::recover`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Log epoch the snapshot named (and the live log resumed on).
    pub epoch: u64,
    /// Node sessions restored from the snapshot.
    pub snapshot_nodes: usize,
    /// Fleet metrics restored from the snapshot.
    pub snapshot_metrics: usize,
    /// Intact log-tail batches replayed after the snapshot.
    pub replayed_batches: u64,
    /// Replayed batches the duplicate guard rejected (the batch was
    /// already covered by the snapshot's session cursor).
    pub replayed_duplicates: u64,
    /// Node registrations replayed from the log.
    pub replayed_nodes: u64,
    /// Drain reports replayed from the log.
    pub replayed_drains: u64,
    /// Bytes of torn tail truncated off the log (an append interrupted
    /// by the crash; never applied, so nothing was lost).
    pub torn_tail_bytes: u64,
    /// Fully-present log frames discarded for CRC mismatch (corruption
    /// rather than truncation); everything after them is dropped too.
    pub corrupt_frames: u64,
}

// ------------------------------------------------------- durable fleet

/// A [`FleetAggregator`] wrapped in snapshot + append-log durability.
///
/// All mutations go through this wrapper so they hit the log before the
/// in-memory state (see the module docs for the crash-safety argument).
/// Queries go straight to [`DurableFleet::store`].
#[derive(Debug)]
pub struct DurableFleet {
    agg: FleetAggregator,
    dir: StateDir,
    wal: Wal,
    epoch: u64,
    snapshot_every: u64,
    batches_since_snapshot: u64,
    recovery: RecoveryStats,
    /// Scratch for an in-process batch's encoding — cleared, never
    /// freed.
    frame_buf: Vec<u8>,
    /// The stream's value state as that batch is encoded against it: a
    /// copy, because the apply reads the batch's deltas against the
    /// stream's own state as it stood before.
    frame_values: ValueState,
    /// Scratch for the snapshot image, kept at the size the last
    /// snapshot grew it to. The one image buffer: lent to the writer
    /// while a snapshot is in flight, handed back at its promotion.
    snapshot_buf: Vec<u8>,
    /// The writer of the snapshot in flight — the log is tee'd exactly
    /// while this is `Some` (or a synchronous snapshot is between its
    /// cut and its promotion).
    in_flight: Option<JoinHandle<io::Result<Vec<u8>>>>,
    /// Batches the last cut's image covers: back on the cadence counter
    /// if its write fails.
    cut_batches: u64,
    /// `snapshot.write_ns` — one snapshot, from the start of its cut to
    /// its rename.
    snapshot_ns: LatencyRecorder,
    /// `snapshot.cut_ns` — how long a snapshot held the fleet.
    cut_ns: LatencyRecorder,
    /// Per node, the token of the connection that carries its stream
    /// ([`DurableFleet::connect`]); 0, or no entry, when none does.
    connections: Vec<u64>,
}

/// Connection tokens, unique in the process: a session never mistakes
/// another fleet's stream — one recovered in its fleet's place — for
/// its own.
static NEXT_CONNECTION: AtomicU64 = AtomicU64::new(1);

/// The write of a rotation (step 2 of the module docs): `image`
/// replaces `snapshot.bin`, and comes back to be the next image's
/// buffer. Holds nothing of the fleet; a cadence snapshot runs it on its
/// writer thread.
fn write_image(
    dir: &StateDir,
    image: Vec<u8>,
    cut_at: Instant,
    write_ns: &LatencyRecorder,
) -> io::Result<Vec<u8>> {
    dir.write_snapshot(&image)?;
    write_ns.record_ns(ns_since(cut_at));
    Ok(image)
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

impl DurableFleet {
    /// Open the state directory: recover if a snapshot exists there,
    /// otherwise initialize a fresh durable fleet (writing an empty
    /// epoch-0 snapshot so the directory is always recoverable).
    pub fn open(dir: impl AsRef<Path>, cfg: DurabilityConfig) -> io::Result<Self> {
        let dir = StateDir::at(dir.as_ref());
        dir.create()?;
        if dir.has_snapshot() {
            Self::recover_with(dir, cfg)
        } else {
            Self::create(dir, cfg)
        }
    }

    /// Initialize a fresh state directory. No snapshot names the logs a
    /// previous life may have left in it, so they go first, and the log
    /// begun here starts empty: nothing this fleet did not acknowledge
    /// is ever replayed into it, at epoch 0 or at a later one.
    fn create(dir: StateDir, cfg: DurabilityConfig) -> io::Result<Self> {
        dir.remove_strays(0);
        let log = dir.begin_log(0)?;
        let mut fleet = Self::assemble(FleetAggregator::new(), dir, log, 0, cfg);
        // An empty snapshot makes the directory self-describing from
        // the first byte: recovery never needs a "no snapshot" case.
        snapshot::encode(&fleet.agg, 0, &mut fleet.snapshot_buf);
        fleet.dir.write_snapshot(&fleet.snapshot_buf)?;
        Ok(fleet)
    }

    /// Restore from `dir`: snapshot, then intact log tail; truncate any
    /// torn tail; resume sessions at their persisted cursors.
    pub fn recover(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::recover_with(StateDir::at(dir.as_ref()), DurabilityConfig::default())
    }

    fn recover_with(dir: StateDir, cfg: DurabilityConfig) -> io::Result<Self> {
        let (mut agg, epoch) = snapshot::decode(&dir.read_snapshot()?)?;
        let mut recovery = RecoveryStats {
            epoch,
            snapshot_nodes: agg.node_count(),
            snapshot_metrics: agg.store().cardinality(),
            ..RecoveryStats::default()
        };
        let (logged, log) = dir.resume_log(epoch)?;
        let (good, corrupt) = wal::replay(&logged, &mut agg, &mut recovery)?;
        recovery.corrupt_frames = corrupt;
        recovery.torn_tail_bytes = (logged.len() - good) as u64;
        if good < logged.len() {
            // Drop the torn/corrupt tail on disk too, so the next
            // append does not interleave with garbage.
            dir.truncate_log(epoch, good as u64)?;
        }
        dir.remove_strays(epoch);
        let mut fleet = Self::assemble(agg, dir, log, epoch, cfg);
        fleet.batches_since_snapshot = recovery.replayed_batches;
        fleet.recovery = recovery;
        Ok(fleet)
    }

    /// The one place a `DurableFleet` is put together: `agg` as of
    /// `log`'s end, `log` being `epoch`'s.
    fn assemble(
        agg: FleetAggregator,
        dir: StateDir,
        log: LogWriter,
        epoch: u64,
        cfg: DurabilityConfig,
    ) -> Self {
        DurableFleet {
            agg,
            dir,
            wal: Wal::new(log),
            epoch,
            snapshot_every: cfg.snapshot_every_batches.max(1),
            batches_since_snapshot: 0,
            recovery: RecoveryStats::default(),
            frame_buf: Vec::new(),
            frame_values: ValueState::new(),
            snapshot_buf: Vec::new(),
            in_flight: None,
            cut_batches: 0,
            snapshot_ns: LatencyRecorder::default(),
            cut_ns: LatencyRecorder::default(),
            connections: Vec::new(),
        }
    }

    // ----- mutations (log, commit, then apply) --------------------------

    /// Open a node's stream: a name not seen before is registered, a
    /// known one keeps its cursor, mappings and data, and either way the
    /// stream's value state starts empty
    /// ([`FleetAggregator::restart_stream`]). Logged every time, so
    /// recovery rebuilds the node table in registration order and resets
    /// each stream where it was reset. The stream is the caller's from
    /// here: a connection that carried it no longer does.
    pub fn add_node(&mut self, name: &str) -> io::Result<NodeId> {
        self.hand_stream(name, 0)
    }

    /// [`DurableFleet::add_node`] for a new connection, which from here
    /// carries the node's stream: returns the node and the connection's
    /// token. An older connection of the node no longer carries it — its
    /// batches were coded against a state the reset just dropped.
    pub(crate) fn connect(&mut self, name: &str) -> io::Result<(NodeId, u64)> {
        let token = NEXT_CONNECTION.fetch_add(1, Ordering::Relaxed);
        Ok((self.hand_stream(name, token)?, token))
    }

    /// Whether the connection `token` names still carries `node`'s
    /// stream: no other connection has opened it since, and no batch of
    /// [`DurableFleet::ingest`] has been coded into it. A session checks
    /// this under the lock before each burst and ends if it does not.
    pub(crate) fn carries(&self, node: NodeId, token: u64) -> bool {
        self.connections.get(node.index()) == Some(&token)
    }

    /// Log the reset, reset, and hand `name`'s stream to `token`.
    fn hand_stream(&mut self, name: &str, token: u64) -> io::Result<NodeId> {
        self.wal.append(Entry::Node(name))?;
        self.wal.commit()?;
        let node = wal::open_stream(&mut self.agg, name);
        if self.connections.len() <= node.index() {
            self.connections.resize(node.index() + 1, 0);
        }
        self.connections[node.index()] = token;
        Ok(node)
    }

    /// Ingest one batch durably — returning means flushed. The batch is
    /// encoded as a 1.6 writer on `node`'s stream sends it
    /// (`encode_batch_with`): its header and record lengths varints, its
    /// sample runs coded against (a copy of) the stream's value state and
    /// its sealed buckets as `bucket_run` records — which a connection
    /// that carried the stream no longer shares, so it no longer carries
    /// it. Those bytes are then taken as a burst of one
    /// ([`Burst::batch`]): validated, logged, applied off the bytes and
    /// committed, so what is applied is what recovery replays.
    /// A batch the wire would refuse ([`BatchView::parse`]), or one
    /// whose `meta` names or units it cannot carry, is refused here
    /// too, as `InvalidData`, before it is logged — replay stops at
    /// an entry it cannot read, and would drop every one after it — and
    /// nothing changes.
    /// Cuts a snapshot (written off this call; see the module docs)
    /// every [`DurabilityConfig::snapshot_every_batches`] applied
    /// batches.
    pub fn ingest(&mut self, node: NodeId, batch: &ExportBatch) -> io::Result<IngestReport> {
        check_strings(batch)?;
        let mut frame = std::mem::take(&mut self.frame_buf);
        frame.clear();
        self.frame_values.clone_from(self.agg.stream_values(node));
        encode_batch_with(batch, &mut self.frame_values, &mut frame);
        let taken = BatchView::parse(&frame, BatchHeader::Varint).and_then(|view| {
            if let Some(token) = self.connections.get_mut(node.index()) {
                *token = 0;
            }
            let mut burst = self.burst();
            let report = burst.view(node, &view)?;
            burst.commit()?;
            Ok(report)
        });
        self.frame_buf = frame;
        taken
    }

    /// Durably record an out-of-band exporter drain report.
    pub fn report_drain(&mut self, node: NodeId, stats: &DrainStats) -> io::Result<()> {
        self.wal.append(Entry::Drain(node, *stats))?;
        self.wal.commit()?;
        self.agg.report_drain(node, stats);
        Ok(())
    }

    /// Start a receive burst: entries logged and applied one after the
    /// other, made durable together by [`Burst::commit`].
    pub fn burst(&mut self) -> Burst<'_> {
        Burst { fleet: self }
    }

    /// One more batch applied since the last snapshot; cut one when the
    /// cadence says so.
    fn count_batch(&mut self) -> io::Result<()> {
        self.batches_since_snapshot += 1;
        if self.batches_since_snapshot >= self.snapshot_every {
            self.snapshot_off_thread()?;
        }
        Ok(())
    }

    // ----- snapshot: cut, write, promote --------------------------------

    /// Take a snapshot now and truncate the log, synchronously: when
    /// this returns the directory holds `snapshot.bin` and the log it
    /// names, nothing else (atomic rotation; see the module docs for
    /// the crash analysis of each step).
    pub fn snapshot(&mut self) -> io::Result<()> {
        let (image, cut_at) = self.cut()?;
        self.cut_ns.record_ns(ns_since(cut_at));
        let written = write_image(&self.dir, image, cut_at, &self.snapshot_ns);
        self.promote(written)
    }

    /// A cadence snapshot: cut here, written on a thread of its own,
    /// promoted by whichever later call finds it done.
    fn snapshot_off_thread(&mut self) -> io::Result<()> {
        let (image, cut_at) = self.cut()?;
        let (dir, write_ns) = (self.dir.clone(), self.snapshot_ns.clone());
        let spawned = thread::Builder::new()
            .name("moda-snapshot".into())
            .spawn(move || write_image(&dir, image, cut_at, &write_ns));
        self.cut_ns.record_ns(ns_since(cut_at));
        match spawned {
            Ok(writer) => {
                self.in_flight = Some(writer);
                Ok(())
            }
            Err(e) => self.promote(Err(e)),
        }
    }

    /// Step 1: the image of the state as it stands, naming the next
    /// epoch's log, which from here gets every entry the live one gets.
    /// One snapshot at a time: the one in flight, if any, is joined and
    /// promoted first — a disk slower than the cadence makes a cadence
    /// point wait for the previous write.
    fn cut(&mut self) -> io::Result<(Vec<u8>, Instant)> {
        self.settle()?;
        let cut_at = Instant::now();
        // The cut is a commit point: the old log on disk is the image.
        self.wal.commit()?;
        let next = self.epoch + 1;
        // The next log exists before the rename that makes it live: a
        // crash between the two leaves a stray (ignored) log, never a
        // snapshot pointing at a missing one.
        let log = self.dir.begin_log(next)?;
        let mut image = std::mem::take(&mut self.snapshot_buf);
        snapshot::encode(&self.agg, next, &mut image);
        self.wal.tee(log);
        self.cut_batches = std::mem::take(&mut self.batches_since_snapshot);
        Ok((image, cut_at))
    }

    /// Step 3, given how step 2 ended. Written: the tee'd log is the
    /// log, the epoch moves, the old log goes. Not written: the tee is
    /// dropped and `snapshot.bin` still names the log that never
    /// stopped being complete; the error is the caller's to return.
    fn promote(&mut self, written: io::Result<Vec<u8>>) -> io::Result<()> {
        match written {
            Ok(image) => {
                self.snapshot_buf = image;
                self.wal.promote();
                self.dir.remove_log(self.epoch);
                self.epoch += 1;
                Ok(())
            }
            Err(e) => {
                self.wal.drop_tee();
                self.batches_since_snapshot += self.cut_batches;
                Err(e)
            }
        }
    }

    /// Promote the snapshot in flight if its writer is done: a load when
    /// one is in flight, nothing otherwise.
    fn poll(&mut self) -> io::Result<()> {
        match &self.in_flight {
            Some(writer) if writer.is_finished() => self.settle(),
            _ => Ok(()),
        }
    }

    /// Wait for the snapshot in flight, if there is one, and promote
    /// it. Afterwards the directory holds exactly `snapshot.bin` and
    /// the log it names, and [`DurableFleet::epoch`] is that log's. For
    /// shutdown paths and for whoever is about to look at the
    /// directory; dropping the fleet does the same, best-effort.
    pub fn settle(&mut self) -> io::Result<()> {
        let Some(writer) = self.in_flight.take() else {
            return Ok(());
        };
        let written = writer
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("the snapshot writer panicked")));
        self.promote(written)
    }

    // ----- access -------------------------------------------------------

    /// Attach a self-telemetry handle: resolves the durability
    /// instruments (`wal.*`, `snapshot.*_ns`) and hands the handle
    /// down to the aggregator's ingest span. Registry state is
    /// process-local — it is *not* persisted or recovered; the counts
    /// the fleet keeps itself do not depend on it.
    pub fn set_obs(&mut self, obs: Obs) {
        self.wal.set_obs(&obs);
        self.snapshot_ns = obs.latency("snapshot.write_ns");
        self.cut_ns = obs.latency("snapshot.cut_ns");
        self.agg.set_obs(obs);
    }

    /// The attached self-telemetry handle (disabled unless
    /// [`DurableFleet::set_obs`] was called).
    pub fn obs(&self) -> &Obs {
        self.agg.obs()
    }

    /// The wrapped aggregator (sessions, health, counters).
    pub fn aggregator(&self) -> &FleetAggregator {
        &self.agg
    }

    /// The cluster store (all queries).
    pub fn store(&self) -> &FleetStore {
        self.agg.store()
    }

    /// Next batch `seq` a node's session expects (transport handshake).
    pub fn next_seq(&self, node: NodeId) -> u64 {
        self.agg.next_seq(node)
    }

    /// Look up a node by registered name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.agg.find_node(name)
    }

    /// What the last [`DurableFleet::recover`] found (zeros for a fresh
    /// directory).
    pub fn recovery(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// State directory this fleet persists into.
    pub fn dir(&self) -> &Path {
        self.dir.path()
    }

    /// The log epoch the surviving snapshot names (advances when a
    /// snapshot is promoted).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for DurableFleet {
    fn drop(&mut self) {
        // No writer outlives the fleet that started it; what it
        // returned is lost here — `settle` is how to learn it.
        let _ = self.settle();
    }
}

impl FleetStore {
    /// Recover a durable fleet tier from its state directory — the
    /// restored store rides inside the returned [`DurableFleet`]
    /// (sessions resume at their persisted cursors; queries via
    /// [`DurableFleet::store`]).
    pub fn recover(dir: impl AsRef<Path>) -> io::Result<DurableFleet> {
        DurableFleet::recover(dir)
    }
}

/// One receive burst against a [`DurableFleet`]: each entry is
/// validated, appended to the log and applied in turn, and
/// [`Burst::commit`] flushes the log **once** for all of them. The
/// burst borrows the fleet exclusively, so whoever reaches the fleet
/// through a lock holds that lock until the flush: nothing applied here
/// can be observed while its log bytes are still buffered. Dropping a
/// burst without committing still commits (an error path must not leave
/// applied-but-buffered entries behind), but only `commit` reports
/// whether the flush succeeded — acknowledge nothing before it returns.
#[derive(Debug)]
pub struct Burst<'a> {
    fleet: &'a mut DurableFleet,
}

impl Burst<'_> {
    /// Take one received batch payload, whose frame said it has `header`:
    /// validate it where it lies, check its values against `node`'s
    /// stream state, log `[node][those bytes]` under the entry tag of its
    /// header, apply the records straight off them. A payload
    /// that fails validation or the check is an `InvalidData` error and
    /// touches neither the log nor any counter nor the state. Cuts a
    /// snapshot on the [`DurabilityConfig::snapshot_every_batches`]
    /// cadence, exactly where [`DurableFleet::ingest`] would.
    pub fn batch(
        &mut self,
        node: NodeId,
        header: BatchHeader,
        payload: &[u8],
    ) -> io::Result<IngestReport> {
        self.view(node, &BatchView::parse(payload, header)?)
    }

    /// [`Burst::batch`] of a payload already validated. Its `chunk`
    /// records are walked before the append
    /// ([`FleetAggregator::walk_chunks`]), and the apply links them on
    /// what that walk found. A 1.6 batch whose walked records all walked
    /// clean is logged as such (tag 36), so replay need not walk them
    /// again.
    fn view(&mut self, node: NodeId, view: &BatchView<'_>) -> io::Result<IngestReport> {
        let agg = &mut self.fleet.agg;
        agg.check_view(node, view)?;
        let clean = agg.walk_chunks(node, view);
        // Only bytes a view vouches for reach the log.
        let entry = match view.header() {
            BatchHeader::Varint if clean => Entry::Vouched(node, view.as_bytes()),
            header => Entry::Batch(node, header, view.as_bytes()),
        };
        self.fleet.wal.append(entry)?;
        let report = self.fleet.agg.apply_view(node, view);
        self.fleet.count_batch()?;
        Ok(report)
    }

    /// Take one out-of-band exporter drain report.
    pub fn drain(&mut self, node: NodeId, stats: &DrainStats) -> io::Result<()> {
        self.fleet.wal.append(Entry::Drain(node, *stats))?;
        self.fleet.agg.report_drain(node, stats);
        Ok(())
    }

    /// The cursor `node`'s session stands at, this burst's batches
    /// included — what the entry just taken will be acknowledged with.
    pub fn next_seq(&self, node: NodeId) -> u64 {
        self.fleet.next_seq(node)
    }

    /// Commit the log: everything this burst took is durable (against
    /// `kill -9`; see the module docs) once this returns `Ok`. A
    /// snapshot whose writer has finished is promoted here, and a write
    /// that failed is reported here.
    pub fn commit(self) -> io::Result<()> {
        self.fleet.wal.commit()?;
        self.fleet.poll()
    }
}

impl Drop for Burst<'_> {
    fn drop(&mut self) {
        // After `commit` nothing is pending and this does nothing.
        let _ = self.fleet.wal.commit();
    }
}

#[cfg(test)]
pub(crate) use wal::FRAME_LOG_BATCH; // `transport`'s tests read a log off the disk

#[cfg(test)]
mod tests {
    use super::*;
    use moda_sim::{SimDuration, SimTime};
    use moda_telemetry::chunk;
    use moda_telemetry::export::{ExportRecord, MemorySink};
    use moda_telemetry::wire::{
        encode_batch, encode_batch_as, parse_frame, put_block, put_u32, put_u64, put_uv,
        write_frame, Coding, FrameParse, ValueState, MAX_STR_LEN, MAX_VALUE_IDS,
    };
    use moda_telemetry::{
        Exporter, MetricId, MetricMeta, RollupConfig, RollupTier, SourceDomain, Tsdb, WindowAgg,
    };
    use proptest::prelude::*;
    use std::fs;
    use std::path::PathBuf;

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moda_fleet_persist_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// One node's wire stream off a real sketched store.
    pub(super) fn node_batches(n: usize, offset: f64, batch_records: usize) -> Vec<ExportBatch> {
        let cfg = RollupConfig::new(vec![
            RollupTier::new(SimDuration::from_secs(10), 256),
            RollupTier::new(SimDuration::from_secs(60), 64),
        ])
        .with_sketches();
        let mut db = Tsdb::with_retention(1 << 12);
        let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
        db.enable_rollups(id, &cfg);
        for s in 0..n as u64 {
            db.insert(
                id,
                SimTime::from_secs(1 + s),
                offset + ((s * 31) % 997) as f64,
            );
        }
        let mut sink = MemorySink::new();
        Exporter::new()
            .with_batch_records(batch_records)
            .drain(&db, &mut sink)
            .unwrap();
        sink.batches
    }

    /// Everything observable about an aggregator, as comparable data
    /// (same spirit as tests/props.rs::fingerprint, plus health).
    pub(super) fn fingerprint(agg: &FleetAggregator, nodes: usize, now: SimTime) -> Vec<String> {
        let store = agg.store();
        let mut out = Vec::new();
        for k in 0..nodes {
            let name = format!("node{k:02}");
            let id = store.lookup(&format!("{name}/m")).expect("mapped");
            let raw: Vec<String> = store
                .raw(id)
                .iter()
                .map(|s| format!("{}:{}", s.t.0, s.value.to_bits()))
                .collect();
            out.push(format!("raw[{k}]={raw:?}"));
            for res in [SimDuration::from_secs(10), SimDuration::from_secs(60)] {
                let buckets: Vec<String> = store
                    .buckets(id, res)
                    .map(|b| {
                        format!(
                            "{}:{}:{}:{}:{}:{}:{:?}",
                            b.start.0, b.count, b.sum, b.min, b.max, b.last, b.sketch
                        )
                    })
                    .collect();
                out.push(format!("tier[{k},{}]={buckets:?}", res.0));
            }
            out.push(format!(
                "counters[{k}]={:?}",
                agg.counters(NodeId(k as u32))
            ));
        }
        let w = SimDuration(now.0);
        for agg_kind in [
            WindowAgg::Count,
            WindowAgg::Sum,
            WindowAgg::Min,
            WindowAgg::Max,
            WindowAgg::Mean,
            WindowAgg::Percentile(0.99),
        ] {
            out.push(format!(
                "{agg_kind:?}={:?}",
                store.fleet_window_agg("m", now, w, agg_kind)
            ));
        }
        out.push(format!(
            "top={:?}",
            store.top_nodes("m", now, w, WindowAgg::Mean, 3, crate::store::Rank::Highest)
        ));
        out.push(format!(
            "health={:?}",
            agg.health(now, SimDuration::from_secs(120))
        ));
        out.push(format!("stats={:?}", store.stats()));
        out
    }

    /// What a `kill -9` now would leave of `dir`: a copy of its files.
    fn crash_copy(dir: &Path, tag: &str) -> PathBuf {
        let copy = test_dir(tag);
        fs::create_dir_all(&copy).unwrap();
        for entry in fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_file() {
                fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
            }
        }
        copy
    }

    /// The names in a state directory, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// A batch as the bytes a session receives.
    fn wire(batch: &ExportBatch) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_batch(batch, &mut bytes);
        bytes
    }

    /// A log on `/dev/full`: every `write(2)` to it is `ENOSPC`.
    #[cfg(target_os = "linux")]
    pub(super) fn full_disk_log() -> LogWriter {
        let full = fs::OpenOptions::new().write(true).open("/dev/full");
        dir::log_writer(full.unwrap())
    }

    fn ingest_all(fleet: &mut DurableFleet, streams: &[Vec<ExportBatch>]) {
        for (k, stream) in streams.iter().enumerate() {
            let node = fleet.add_node(&format!("node{k:02}")).unwrap();
            for batch in stream {
                fleet.ingest(node, batch).unwrap();
            }
        }
    }

    #[test]
    fn snapshot_then_recover_is_bit_identical() {
        let dir = test_dir("roundtrip");
        let streams = vec![
            node_batches(3000, 0.0, 256),
            node_batches(3000, 1000.0, 256),
            node_batches(2500, 2000.0, 256),
        ];
        let now = SimTime::from_secs(3001);
        // Uninterrupted reference (plain in-memory aggregator).
        let mut reference = FleetAggregator::new();
        for (k, stream) in streams.iter().enumerate() {
            let node = reference.add_node(&format!("node{k:02}"));
            for batch in stream {
                reference.ingest(node, batch);
            }
            reference.report_drain(node, &Exporter::new().totals());
        }
        // Durable run: snapshot mid-stream (small cadence), then
        // recover and compare observables.
        let mut fleet = DurableFleet::open(
            &dir,
            DurabilityConfig {
                snapshot_every_batches: 7,
            },
        )
        .unwrap();
        ingest_all(&mut fleet, &streams);
        for k in 0..streams.len() {
            fleet
                .report_drain(NodeId(k as u32), &Exporter::new().totals())
                .unwrap();
        }
        let live_fp = fingerprint(fleet.aggregator(), streams.len(), now);
        assert_eq!(
            live_fp,
            fingerprint(&reference, streams.len(), now),
            "durable wrapper must not change ingest semantics"
        );
        drop(fleet); // no clean shutdown snapshot: recovery replays the tail
        let recovered = DurableFleet::recover(&dir).unwrap();
        let rec = *recovered.recovery();
        assert!(rec.epoch > 0, "snapshots must have rotated: {rec:?}");
        assert_eq!(rec.torn_tail_bytes, 0);
        assert_eq!(rec.corrupt_frames, 0);
        assert!(
            rec.replayed_batches < 7 + 1,
            "log truncation at snapshot bounds the replay: {rec:?}"
        );
        assert_eq!(
            fingerprint(recovered.aggregator(), streams.len(), now),
            live_fp,
            "recovered state must be bit-identical to the live state"
        );
        // Sessions resumed at their persisted cursors.
        for (k, stream) in streams.iter().enumerate() {
            assert_eq!(
                recovered.next_seq(NodeId(k as u32)),
                stream.len() as u64,
                "cursor must resume past everything ingested"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two fleets fed the same input — the batches and drain reports of
    /// real drains, a snapshot between them — write the same log and the
    /// same image, byte for byte. A report's copy-out timings are wall
    /// clock, different on every drain: the node's readings, kept out of
    /// the fleet's durable state.
    #[test]
    fn identical_input_with_drain_reports_writes_identical_files() {
        let files = |tag: &str| {
            let dir = test_dir(tag);
            let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
            let node = fleet.add_node("node00").unwrap();
            let mut db = Tsdb::with_retention(1 << 12);
            let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
            let mut exporter = Exporter::new().with_batch_records(64);
            for round in 0..4u64 {
                for s in 0..300 {
                    let t = 300 * round + s;
                    db.insert(id, SimTime::from_secs(t), (t % 17) as f64 * 0.25);
                }
                let mut sink = MemorySink::new();
                exporter.drain(&db, &mut sink).unwrap();
                for batch in &sink.batches {
                    fleet.ingest(node, batch).unwrap();
                }
                fleet.report_drain(node, &exporter.totals()).unwrap();
                if round == 1 {
                    fleet.snapshot().unwrap();
                }
            }
            assert!(exporter.totals().lock_held_ns > 0);
            drop(fleet);
            let files: Vec<(String, Vec<u8>)> = listing(&dir)
                .into_iter()
                .map(|name| {
                    let bytes = fs::read(dir.join(&name)).unwrap();
                    (name, bytes)
                })
                .collect();
            let _ = fs::remove_dir_all(&dir);
            files
        };
        let (a, b) = (files("same_input_a"), files("same_input_b"));
        let names: Vec<&str> = a.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["snapshot.bin", "wal-1.log"]);
        assert!(a == b, "the two fleets' files differ");
    }

    #[test]
    fn recovered_fleet_keeps_ingesting_and_deduplicates_redelivery() {
        let dir = test_dir("resume");
        let stream = node_batches(2000, 0.0, 128);
        let split = stream.len() / 2;
        let mut fleet = DurableFleet::open(
            &dir,
            DurabilityConfig {
                snapshot_every_batches: 5,
            },
        )
        .unwrap();
        let node = fleet.add_node("node00").unwrap();
        for batch in &stream[..split] {
            fleet.ingest(node, batch).unwrap();
        }
        drop(fleet);
        let mut recovered = DurableFleet::recover(&dir).unwrap();
        let node = recovered.find_node("node00").unwrap();
        let cursor = recovered.next_seq(node);
        assert_eq!(cursor, split as u64);
        // Re-delivering covered batches bounces off the duplicate guard…
        for batch in &stream[..2.min(split)] {
            let report = recovered.ingest(node, batch).unwrap();
            assert!(!report.applied);
        }
        // …and the stream resumes from the persisted cursor.
        for batch in &stream[split..] {
            assert!(recovered.ingest(node, batch).unwrap().applied);
        }
        // Final state equals a clean one-shot run.
        let mut reference = FleetAggregator::new();
        let rnode = reference.add_node("node00");
        for batch in &stream {
            reference.ingest(rnode, batch);
        }
        let now = SimTime::from_secs(2001);
        let ref_fp = fingerprint(&reference, 1, now);
        let mut got_fp = fingerprint(recovered.aggregator(), 1, now);
        // The two deliberate duplicates above are the only divergence.
        let patched: Vec<String> = got_fp
            .iter()
            .map(|line| line.replace("duplicate_batches: 2", "duplicate_batches: 0"))
            .collect();
        got_fp = patched;
        assert_eq!(got_fp, ref_fp);
        let _ = fs::remove_dir_all(&dir);
    }

    /// An in-process batch the wire would refuse — a resolution-0
    /// bucket — is refused before it is logged: the stream's value
    /// state and the connection's hold on the stream are as they were,
    /// and the batches after it recover with the live fleet.
    #[test]
    fn a_refused_ingest_logs_nothing_and_what_follows_recovers() {
        let dir = test_dir("refused_ingest");
        let stream = node_batches(400, 0.0, 16);
        assert!(stream.len() >= 20);
        let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let (node, token) = fleet.connect("node00").unwrap();
        let mut refused = stream[0].clone();
        refused.records.push(ExportRecord::Bucket {
            id: MetricId(0),
            res: SimDuration(0),
            start: SimTime(5),
            count: 1,
            sum: 1.0,
            min: 1.0,
            max: 1.0,
            last: 1.0,
        });
        let values = fleet.aggregator().stream_values(node).clone();
        let e = fleet.ingest(node, &refused).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert_eq!(fleet.aggregator().stream_values(node), &values);
        assert!(
            fleet.carries(node, token),
            "nothing was coded into the stream"
        );
        assert_eq!(fleet.next_seq(node), 0);
        // The exporter re-stages the batch, then sends 19 more.
        for batch in &stream[..20] {
            assert!(fleet.ingest(node, batch).unwrap().applied);
        }
        fleet.settle().unwrap();
        let now = SimTime::from_secs(401);
        let live = fingerprint(fleet.aggregator(), 1, now);
        drop(fleet);
        let recovered = DurableFleet::recover(&dir).unwrap();
        assert_eq!(recovered.recovery().corrupt_frames, 0);
        assert_eq!(recovered.next_seq(node), 20);
        assert_eq!(fingerprint(recovered.aggregator(), 1, now), live);
        drop(recovered);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `refused`, a batch of node00's stream holding a record the wire
    /// refuses, handed to every door into a fleet whose node has taken
    /// `before`: the in-process one (`FleetAggregator::ingest`), the
    /// durable one (`DurableFleet::ingest`) and, encoded as a 1.2 and a
    /// 1.6 writer send it, a burst's (`Burst::batch`) — unless no writer
    /// can encode it ([`check_strings`]). Each fleet is the
    /// one that never saw it — snapshot image and log, byte for byte —
    /// and the batch after it reads a gap of 1. Hands back the
    /// in-process fleet.
    fn refused_at_every_door(
        tag: &str,
        before: &[ExportBatch],
        refused: &ExportBatch,
    ) -> FleetAggregator {
        let image = |agg: &FleetAggregator| {
            let mut out = Vec::new();
            snapshot::encode(agg, 0, &mut out);
            out
        };
        let next = ExportBatch {
            seq: refused.seq + 1,
            records: Vec::new(),
        };
        let mut owned = FleetAggregator::new();
        let node = owned.add_node("node00");
        for batch in before {
            assert!(owned.ingest(node, batch).applied);
        }
        let was = image(&owned);
        assert_eq!(owned.ingest(node, refused), IngestReport::default());
        assert!(
            image(&owned) == was,
            "FleetAggregator::ingest moved the fleet"
        );
        assert_eq!(owned.ingest(node, &next).gap, 1);

        // `None`: DurableFleet::ingest; a coding: a burst of its bytes.
        let bursts = match check_strings(refused) {
            Ok(()) => &[Coding::Whole, Coding::Varints][..],
            Err(_) => &[],
        };
        for door in std::iter::once(None).chain(bursts.iter().copied().map(Some)) {
            let dir = test_dir(&format!("{tag}_{door:?}"));
            let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
            let node = fleet.add_node("node00").unwrap();
            for batch in before {
                assert!(fleet.ingest(node, batch).unwrap().applied);
            }
            let take = |fleet: &mut DurableFleet, batch: &ExportBatch| match door {
                None => fleet.ingest(node, batch),
                Some(coding) => {
                    let mut state = fleet.aggregator().stream_values(node).clone();
                    let mut wire = Vec::new();
                    encode_batch_as(batch, coding, &mut state, &mut wire);
                    let mut burst = fleet.burst();
                    let report = burst.batch(node, coding.header(), &wire);
                    burst.commit().unwrap();
                    report
                }
            };
            let log = || fs::read(dir.join("wal-0.log")).unwrap();
            let (was, logged) = (image(fleet.aggregator()), log());
            let e = take(&mut fleet, refused).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{door:?}");
            assert!(image(fleet.aggregator()) == was, "{door:?} moved the fleet");
            assert!(log() == logged, "{door:?} logged the batch");
            assert_eq!(take(&mut fleet, &next).unwrap().gap, 1, "{door:?}");
            drop(fleet);
            let _ = fs::remove_dir_all(&dir);
        }
        owned
    }

    /// A `meta` record sizes its session's id map to its id: the last id
    /// below [`MAX_VALUE_IDS`] is mapped (an 8 MiB map), and a batch
    /// holding one at the bound is refused whole at every door — the
    /// mapped sample ahead of it included.
    #[test]
    fn a_meta_id_at_the_value_id_bound_is_refused_at_every_door() {
        let last = MetricId(MAX_VALUE_IDS - 1);
        let meta = |id: MetricId| ExportRecord::Meta {
            id,
            meta: MetricMeta::gauge(format!("m{}", id.0), "u", SourceDomain::Hardware),
        };
        let before = ExportBatch {
            seq: 0,
            records: vec![meta(last)],
        };
        let refused = ExportBatch {
            seq: 1,
            records: vec![
                ExportRecord::Sample {
                    id: last,
                    t: SimTime(5),
                    value: 1.0,
                },
                meta(MetricId(MAX_VALUE_IDS)),
            ],
        };
        let owned = refused_at_every_door("meta_id", &[before], &refused);
        let node = NodeId(0);
        assert_eq!(
            owned.sessions()[node.index()].wire_map.len(),
            MAX_VALUE_IDS as usize
        );
        let c = owned.counters(node);
        assert_eq!((c.records, c.samples, c.unmapped_records), (1, 0, 0));
        assert_eq!(owned.store().cardinality(), 1);
    }

    /// A batch holding a `bucket` or `sketch` record of resolution 0 —
    /// a slot no ring has — is refused whole at every door: no ring is
    /// made, and the mapped sample ahead of it is not taken either.
    #[test]
    fn a_tier_record_of_resolution_0_is_refused_at_every_door() {
        let zero = SimDuration(0);
        let before = ExportBatch {
            seq: 0,
            records: vec![ExportRecord::Meta {
                id: MetricId(0),
                meta: MetricMeta::gauge("m", "u", SourceDomain::Hardware),
            }],
        };
        let sample = ExportRecord::Sample {
            id: MetricId(0),
            t: SimTime(5),
            value: 5.0,
        };
        let bucket = ExportRecord::Bucket {
            id: MetricId(0),
            res: zero,
            start: SimTime::ZERO,
            count: 1,
            sum: 5.0,
            min: 5.0,
            max: 5.0,
            last: 5.0,
        };
        let sketch = ExportRecord::Sketch {
            id: MetricId(0),
            res: zero,
            start: SimTime::ZERO,
            entry: moda_telemetry::SketchEntry {
                sign: 1,
                key: 3,
                count: 1,
            },
        };
        for (tag, records) in [
            ("zero_bucket", vec![sample.clone(), bucket]),
            ("zero_sketch", vec![sample, sketch]),
        ] {
            let refused = ExportBatch { seq: 1, records };
            let owned = refused_at_every_door(tag, std::slice::from_ref(&before), &refused);
            let c = owned.counters(NodeId(0));
            assert_eq!((c.samples, c.buckets, c.sketch_entries), (0, 0, 0));
            assert_eq!((c.unmapped_records, c.orphan_sketches), (0, 0));
            let id = owned.store().lookup("node00/m").unwrap();
            assert_eq!(owned.store().buckets(id, zero).count(), 0);
        }
    }

    /// A batch holding a `meta` whose name or unit is longer than a
    /// wire string carries ([`MAX_STR_LEN`]) — which no writer can
    /// encode — is refused whole at both in-process doors before it
    /// reaches the encoder, the mapped sample ahead of it included.
    #[test]
    fn a_meta_too_long_for_the_wire_is_refused_at_every_door() {
        let meta = |id: u32, name: String, unit: String| ExportRecord::Meta {
            id: MetricId(id),
            meta: MetricMeta::gauge(name, unit, SourceDomain::Hardware),
        };
        let before = ExportBatch {
            seq: 0,
            records: vec![meta(0, "m".into(), "u".into())],
        };
        let long = "n".repeat(MAX_STR_LEN + 1);
        for (tag, over) in [
            ("long_name", meta(1, long.clone(), "u".into())),
            ("long_unit", meta(1, "m1".into(), long)),
        ] {
            let sample = ExportRecord::Sample {
                id: MetricId(0),
                t: SimTime(5),
                value: 5.0,
            };
            let refused = ExportBatch {
                seq: 1,
                records: vec![sample, over],
            };
            let owned = refused_at_every_door(tag, std::slice::from_ref(&before), &refused);
            assert_eq!(owned.counters(NodeId(0)).samples, 0);
            assert_eq!(owned.store().cardinality(), 1);
        }
    }

    #[test]
    fn unknown_kind_records_in_a_replayed_log_are_counted() {
        // The log holds batches as they arrived, so a newer sender's
        // kinds sit in it and are skipped again at replay: append such
        // an entry by hand.
        let dir = test_dir("unknown_kind");
        let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let node = fleet.add_node("node00").unwrap();
        drop(fleet);
        let mut entry = Vec::new();
        put_u32(&mut entry, node.0);
        put_u64(&mut entry, 0); // seq
        put_u32(&mut entry, 2); // wire records
        moda_telemetry::wire::encode_record(
            &ExportRecord::Sample {
                id: MetricId(0),
                t: SimTime(5),
                value: 6.0,
            },
            &mut entry,
        );
        entry.push(200); // a kind from the future
        put_block(&mut entry, |out| out.extend_from_slice(b"data"));
        let mut log = fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal-0.log"))
            .unwrap();
        write_frame(&mut log, FRAME_LOG_BATCH, &entry).unwrap();
        drop(log);

        let mut recovered = DurableFleet::recover(&dir).unwrap();
        let rec = *recovered.recovery();
        assert_eq!((rec.replayed_batches, rec.corrupt_frames), (1, 0));
        assert_eq!(recovered.aggregator().unknown_records(), 1);
        // The count has one home: attaching the same registry twice —
        // `set_obs`, then the scraper's own — reads it once, not twice.
        let obs = Obs::enabled();
        recovered.set_obs(obs.clone());
        let mut scraper = crate::SelfScraper::attach(&mut recovered, obs.clone()).unwrap();
        scraper.tick(&mut recovered, SimTime::from_secs(1)).unwrap();
        let db = scraper.db();
        let id = db.lookup("__self/fleet.ingest.unknown_records").unwrap();
        assert_eq!(db.latest_value(id), Some(1.0));
        assert_eq!(obs.counter_value("fleet.ingest.unknown_records"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The tag of every frame of the log held in `bytes`.
    fn entry_tags(bytes: &[u8]) -> Vec<u8> {
        let (mut at, mut tags) = (0, Vec::new());
        while let FrameParse::Frame { tag, consumed, .. } = parse_frame(&bytes[at..]) {
            at += consumed;
            tags.push(tag);
        }
        assert_eq!(at, bytes.len(), "whole frames");
        tags
    }

    /// One stream's batches received from a 1.5 sender (tag 33 in the
    /// log) and a 1.6 one (tag 35) by turns, and then ingested in
    /// process (tag 35): the log that holds both replays to the store
    /// the same batches make ingested directly, the stream's value state
    /// the sender's.
    #[test]
    fn a_log_of_fixed_and_varint_batch_entries_replays_to_the_store_ingested_directly() {
        let dir = test_dir("mixed_headers");
        let no_cadence = DurabilityConfig {
            snapshot_every_batches: u64::MAX,
        };
        let batches = node_batches(2000, 0.0, 64);
        let (received, in_process) = batches.split_at(batches.len() - 3);
        let mut fleet = DurableFleet::open(&dir, no_cadence).unwrap();
        let node = fleet.add_node("node00").unwrap();
        let mut sender = ValueState::new();
        let mut burst = fleet.burst();
        for (i, batch) in received.iter().enumerate() {
            let mut bytes = Vec::new();
            let coding = [Coding::Buckets, Coding::Varints][i % 2];
            encode_batch_as(batch, coding, &mut sender, &mut bytes);
            burst.batch(node, coding.header(), &bytes).unwrap();
        }
        burst.commit().unwrap();
        for batch in in_process {
            fleet.ingest(node, batch).unwrap();
            encode_batch_as(batch, Coding::Varints, &mut sender, &mut Vec::new());
        }
        drop(fleet);
        let tags = entry_tags(&fs::read(dir.join("wal-0.log")).unwrap());
        let count = |tag| tags.iter().filter(|&&t| t == tag).count();
        assert_eq!(count(wal::FRAME_LOG_BATCH), received.len().div_ceil(2));
        assert_eq!(
            count(wal::FRAME_LOG_BATCH_1_6),
            received.len() / 2 + in_process.len()
        );

        let recovered = DurableFleet::recover(&dir).unwrap();
        assert_eq!(recovered.recovery().corrupt_frames, 0);
        assert_eq!(recovered.recovery().replayed_batches, batches.len() as u64);
        let mut direct = FleetAggregator::new();
        let n = direct.add_node("node00");
        for batch in &batches {
            direct.ingest(n, batch);
        }
        let now = SimTime::from_secs(2001);
        let agg = recovered.aggregator();
        assert_eq!(fingerprint(agg, 1, now), fingerprint(&direct, 1, now));
        assert_eq!(agg.counters(node), direct.counters(n));
        assert_eq!(agg.stream_values(node), &sender);
        drop(recovered);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A `bucket`, `sketch` or `bucket_run` record of resolution 0, under
    /// either header, is refused by a burst as `InvalidData` before it
    /// reaches the log or the fleet; and a log entry that carries one
    /// anyway is where replay stops, not a panic.
    #[test]
    fn a_tier_resolution_of_0_is_refused_live_and_at_replay() {
        let dir = test_dir("zero_res");
        let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let node = fleet.add_node("node00").unwrap();
        let meta = ExportBatch {
            seq: 0,
            records: vec![ExportRecord::Meta {
                id: MetricId(0),
                meta: MetricMeta::gauge("m", "u", SourceDomain::Hardware),
            }],
        };
        fleet.ingest(node, &meta).unwrap();
        let zero = SimDuration(0);
        let bucket = ExportRecord::Bucket {
            id: MetricId(0),
            res: zero,
            start: SimTime(5),
            count: 1,
            sum: 1.0,
            min: 1.0,
            max: 1.0,
            last: 1.0,
        };
        let sketch = ExportRecord::Sketch {
            id: MetricId(0),
            res: zero,
            start: SimTime(5),
            entry: moda_telemetry::SketchEntry {
                sign: 1,
                key: 3,
                count: 1,
            },
        };
        // Kind 2, kind 3 after its bucket, kind 8; each under both
        // headers.
        let cases = [
            (vec![bucket.clone()], Coding::Sweeps),
            (vec![bucket.clone(), sketch.clone()], Coding::Sweeps),
            (vec![bucket.clone(), sketch.clone()], Coding::Buckets),
            (vec![bucket.clone()], Coding::Varints),
            (vec![sketch.clone()], Coding::Varints),
        ];
        let log_len = || fs::metadata(dir.join("wal-0.log")).unwrap().len();
        let logged = log_len();
        let mut wire = Vec::new();
        for (records, coding) in &cases {
            wire.clear();
            let batch = ExportBatch {
                seq: 1,
                records: records.clone(),
            };
            let mut state = fleet.aggregator().stream_values(node).clone();
            encode_batch_as(&batch, *coding, &mut state, &mut wire);
            let mut burst = fleet.burst();
            let refused = burst.batch(node, coding.header(), &wire).unwrap_err();
            burst.commit().unwrap();
            assert_eq!(refused.kind(), io::ErrorKind::InvalidData, "{coding:?}");
            assert!(refused.to_string().contains("resolution 0"), "{refused}");
        }
        assert_eq!(log_len(), logged, "nothing refused reached the log");
        assert_eq!(fleet.next_seq(node), 1);
        let c = fleet.aggregator().counters(node);
        assert_eq!((c.buckets, c.sketch_entries, c.unmapped_records), (0, 0, 0));
        drop(fleet);

        // The last case's bytes logged by hand: replay stops there.
        let mut entry = Vec::new();
        put_uv(&mut entry, u64::from(node.0));
        entry.extend_from_slice(&wire);
        let mut log = fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal-0.log"))
            .unwrap();
        write_frame(&mut log, wal::FRAME_LOG_BATCH_1_6, &entry).unwrap();
        drop(log);
        let recovered = DurableFleet::recover(&dir).unwrap();
        let rec = *recovered.recovery();
        assert_eq!((rec.replayed_batches, rec.corrupt_frames), (1, 1));
        assert_eq!(recovered.next_seq(node), 1);
        drop(recovered);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_opens_fresh_and_recovers_empty() {
        let dir = test_dir("fresh");
        let fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(fleet.aggregator().node_count(), 0);
        drop(fleet);
        let recovered = DurableFleet::recover(&dir).unwrap();
        assert_eq!(recovered.aggregator().node_count(), 0);
        assert_eq!(recovered.store().cardinality(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A burst that fits one receive buffer reaches the log file in the
    /// one `write(2)` of its commit: before it the file has not grown by
    /// a byte, after it it holds every frame.
    #[test]
    fn a_burst_smaller_than_a_receive_buffer_reaches_the_log_at_its_commit() {
        let dir = test_dir("one_write");
        let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let node = fleet.add_node("node00").unwrap();
        let log = dir.join("wal-0.log");
        let committed = fs::metadata(&log).unwrap().len();
        // As many batches as one receive can hold, each framed as it
        // arrives: `[len u32][tag u8][payload][crc u32]`.
        let (mut wires, mut received) = (Vec::new(), 0);
        for batch in node_batches(20_000, 0.0, 64) {
            let wire = wire(&batch);
            if received + wire.len() + 9 > crate::transport::RECV_BUF {
                break;
            }
            received += wire.len() + 9;
            wires.push(wire);
        }
        assert!(received > crate::transport::RECV_BUF * 3 / 4, "{received}");
        let mut burst = fleet.burst();
        for wire in &wires {
            burst.batch(node, BatchHeader::Fixed, wire).unwrap();
        }
        assert_eq!(fs::metadata(&log).unwrap().len(), committed);
        burst.commit().unwrap();
        // Each logged frame is its received frame plus the node id.
        let logged = (received + 4 * wires.len()) as u64;
        assert_eq!(fs::metadata(&log).unwrap().len(), committed + logged);
        drop(fleet);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rotation_interrupted_at_either_step_recovers_and_sweeps_what_it_left() {
        let dir = test_dir("rotation");
        let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        ingest_all(&mut fleet, &[node_batches(200, 0.0, 32)]);
        let before = crash_copy(&dir, "rotation_before");
        fleet.snapshot().unwrap();
        let after = crash_copy(&dir, "rotation_after");
        let now = SimTime::from_secs(201);
        let live = fingerprint(fleet.aggregator(), 1, now);
        // Killed with the next log begun and the image half written,
        // before the rename: snapshot 0 still names `wal-0.log`.
        fs::write(before.join("wal-1.log"), b"").unwrap();
        fs::write(before.join("snapshot.tmp"), b"MODAFS04, and half an image").unwrap();
        // Killed after the rename, the old log not yet deleted.
        fs::copy(before.join("wal-0.log"), after.join("wal-0.log")).unwrap();
        for (state, epoch) in [(&before, 0), (&after, 1)] {
            let recovered = DurableFleet::recover(state).unwrap();
            assert_eq!(recovered.epoch(), epoch);
            assert_eq!(fingerprint(recovered.aggregator(), 1, now), live);
            drop(recovered);
            assert_eq!(
                listing(state),
                ["snapshot.bin".to_string(), format!("wal-{epoch}.log")]
            );
            let _ = fs::remove_dir_all(state);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_snapshot_in_flight_killed_at_any_step_recovers_what_was_acknowledged() {
        let dir = test_dir("in_flight");
        let stream = node_batches(400, 0.0, 32);
        assert!(stream.len() >= 7);
        let now = SimTime::from_secs(401);
        let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let node = fleet.add_node("node00").unwrap();
        for batch in &stream[..4] {
            fleet.ingest(node, batch).unwrap();
        }
        // The cut, where a cadence point puts it: in the middle of a
        // burst, behind a batch that is logged and applied but not yet
        // flushed. The cut is a commit point — the old log on disk is
        // the image.
        let mut burst = fleet.burst();
        burst
            .batch(node, BatchHeader::Fixed, &wire(&stream[4]))
            .unwrap();
        let (image, cut_at) = burst.fleet.cut().unwrap();
        let cut = crash_copy(&dir, "in_flight_cut");
        let mut at_cut = FleetAggregator::new();
        at_cut.add_node("node00");
        for batch in &stream[..5] {
            at_cut.ingest(node, batch);
        }
        let at_cut = fingerprint(&at_cut, 1, now);
        // The window: the rest of the burst goes to both logs and is
        // acknowledged.
        burst
            .batch(node, BatchHeader::Fixed, &wire(&stream[5]))
            .unwrap();
        burst
            .batch(node, BatchHeader::Fixed, &wire(&stream[6]))
            .unwrap();
        burst.commit().unwrap();
        let live = fingerprint(fleet.aggregator(), 1, now);
        assert_eq!(
            listing(&dir),
            ["snapshot.bin", "wal-0.log", "wal-1.log"],
            "both logs, and the write has not begun"
        );
        let unwritten = crash_copy(&dir, "in_flight_unwritten");
        let half_written = crash_copy(&dir, "in_flight_half");
        fs::write(half_written.join("snapshot.tmp"), &image[..image.len() / 2]).unwrap();
        // The write, as the writer thread runs it.
        let image = write_image(&fleet.dir, image, cut_at, &fleet.snapshot_ns).unwrap();
        assert_eq!(fleet.epoch(), 0, "the epoch moves at promote");
        let renamed = crash_copy(&dir, "in_flight_renamed");
        fleet.promote(Ok(image)).unwrap();
        assert_eq!(fleet.epoch(), 1);
        assert_eq!(listing(&dir), ["snapshot.bin", "wal-1.log"]);
        let promoted = crash_copy(&dir, "in_flight_promoted");

        for (state, epoch, cursor, want) in [
            (&cut, 0, 5, &at_cut),
            (&unwritten, 0, 7, &live),
            (&half_written, 0, 7, &live),
            (&renamed, 1, 7, &live),
            (&promoted, 1, 7, &live),
        ] {
            let recovered = DurableFleet::recover(state).unwrap();
            let rec = *recovered.recovery();
            assert_eq!(
                (rec.epoch, rec.corrupt_frames, rec.torn_tail_bytes),
                (epoch, 0, 0),
                "{state:?}: {rec:?}"
            );
            assert_eq!(recovered.next_seq(node), cursor, "{state:?}");
            assert_eq!(
                &fingerprint(recovered.aggregator(), 1, now),
                want,
                "{state:?}"
            );
            drop(recovered);
            assert_eq!(
                listing(state),
                ["snapshot.bin".to_string(), format!("wal-{epoch}.log")],
                "{state:?}"
            );
        }
        drop(fleet);
        for state in [&cut, &unwritten, &half_written, &renamed, &promoted, &dir] {
            let _ = fs::remove_dir_all(state);
        }
    }

    #[test]
    fn a_cadence_point_reached_while_a_snapshot_is_in_flight_joins_it_first() {
        let dir = test_dir("two_cuts");
        let stream = node_batches(400, 0.0, 32);
        assert!(stream.len() >= 7);
        let now = SimTime::from_secs(401);
        let cfg = DurabilityConfig {
            snapshot_every_batches: 4,
        };
        let mut fleet = DurableFleet::open(&dir, cfg).unwrap();
        let obs = Obs::enabled();
        fleet.set_obs(obs.clone());
        let node = fleet.add_node("node00").unwrap();
        for batch in &stream[..3] {
            fleet.ingest(node, batch).unwrap();
        }
        // A first snapshot whose writer is held at a gate: a disk
        // slower than the cadence.
        let (image, cut_at) = fleet.cut().unwrap();
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let (to, write_ns) = (fleet.dir.clone(), fleet.snapshot_ns.clone());
        fleet.in_flight = Some(thread::spawn(move || {
            gate.recv().expect("the test releases the writer");
            write_image(&to, image, cut_at, &write_ns)
        }));
        // Batches short of the next cadence point neither wait for it
        // nor promote it.
        for batch in &stream[3..6] {
            fleet.ingest(node, batch).unwrap();
            assert!(fleet.in_flight.is_some());
            assert_eq!(fleet.epoch(), 0);
        }
        assert_eq!(listing(&dir), ["snapshot.bin", "wal-0.log", "wal-1.log"]);
        // The cadence point waits for the write in flight, promotes it,
        // and only then cuts the next one.
        release.send(()).unwrap();
        fleet.ingest(node, &stream[6]).unwrap();
        assert!(fleet.epoch() >= 1, "the first snapshot was joined");
        fleet.settle().unwrap();
        assert_eq!(fleet.epoch(), 2);
        assert_eq!(listing(&dir), ["snapshot.bin", "wal-2.log"]);
        assert_eq!(obs.latency_snapshot("snapshot.write_ns").unwrap().count, 2);
        let live = fingerprint(fleet.aggregator(), 1, now);
        drop(fleet);
        let recovered = DurableFleet::recover(&dir).unwrap();
        let rec = *recovered.recovery();
        assert_eq!((rec.epoch, rec.replayed_batches), (2, 0), "{rec:?}");
        assert_eq!(fingerprint(recovered.aggregator(), 1, now), live);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_snapshot_write_leaves_the_old_pair_authoritative_and_the_next_batch_retries() {
        let dir = test_dir("write_fails");
        let stream = node_batches(400, 0.0, 32);
        let now = SimTime::from_secs(401);
        let cfg = DurabilityConfig {
            snapshot_every_batches: 3,
        };
        let mut fleet = DurableFleet::open(&dir, cfg).unwrap();
        let node = fleet.add_node("node00").unwrap();
        for batch in &stream[..2] {
            fleet.ingest(node, batch).unwrap();
        }
        // `snapshot.tmp` cannot be created: a directory is in its place.
        fs::create_dir(dir.join("snapshot.tmp")).unwrap();
        assert!(fleet.snapshot().is_err(), "the synchronous path reports it");
        // The third batch is a cadence point. Its cut succeeds and its
        // write fails on the writer thread; the error comes back from
        // whichever call observes the writer's result first.
        let observed = [fleet.ingest(node, &stream[2]).map(drop), fleet.settle()];
        assert_eq!(
            observed.iter().filter(|seen| seen.is_err()).count(),
            1,
            "{observed:?}"
        );
        // The batch itself is logged and applied, and the old pair is
        // what a kill now leaves behind.
        assert_eq!((fleet.epoch(), fleet.next_seq(node)), (0, 3));
        let live = fingerprint(fleet.aggregator(), 1, now);
        let killed = crash_copy(&dir, "write_fails_killed");
        let recovered = DurableFleet::recover(&killed).unwrap();
        let rec = *recovered.recovery();
        assert_eq!((rec.epoch, rec.replayed_batches), (0, 3), "{rec:?}");
        assert_eq!(fingerprint(recovered.aggregator(), 1, now), live);
        drop(recovered);
        assert_eq!(listing(&killed), ["snapshot.bin", "wal-0.log"]);
        // The counter was put back: with the obstacle gone the next
        // batch cuts again, and this time the snapshot lands.
        fs::remove_dir(dir.join("snapshot.tmp")).unwrap();
        fleet.ingest(node, &stream[3]).unwrap();
        fleet.settle().unwrap();
        assert_eq!(fleet.epoch(), 1);
        assert_eq!(listing(&dir), ["snapshot.bin", "wal-1.log"]);
        let live = fingerprint(fleet.aggregator(), 1, now);
        drop(fleet);
        let recovered = DurableFleet::recover(&dir).unwrap();
        let rec = *recovered.recovery();
        assert_eq!((rec.epoch, rec.replayed_batches), (1, 0), "{rec:?}");
        assert_eq!(fingerprint(recovered.aggregator(), 1, now), live);
        for state in [&dir, &killed] {
            let _ = fs::remove_dir_all(state);
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_full_disk_under_the_log_acknowledges_nothing_more_and_recovery_finds_what_was() {
        let dir = test_dir("full_disk");
        let stream = node_batches(400, 0.0, 32);
        let now = SimTime::from_secs(401);
        let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let node = fleet.add_node("node00").unwrap();
        for batch in &stream[..3] {
            fleet.ingest(node, batch).unwrap();
        }
        let acknowledged = fingerprint(fleet.aggregator(), 1, now);
        // The disk fills: from here the log's file is `/dev/full`.
        fleet.wal = Wal::new(full_disk_log());
        // A burst whose batch fits the write buffer learns at its
        // commit; the next one is refused at its first append.
        let mut burst = fleet.burst();
        burst
            .batch(node, BatchHeader::Fixed, &wire(&stream[3]))
            .unwrap();
        let full = burst.commit().unwrap_err();
        let mut burst = fleet.burst();
        let refused = burst
            .batch(node, BatchHeader::Fixed, &wire(&stream[4]))
            .unwrap_err();
        assert_eq!(refused.kind(), full.kind());
        assert_eq!(burst.commit().unwrap_err().kind(), full.kind());
        // So is every other mutation, and no snapshot is cut over it.
        assert!(fleet.ingest(node, &stream[4]).is_err());
        assert!(fleet.add_node("node01").is_err());
        assert!(fleet.snapshot().is_err());
        drop(fleet);
        let recovered = DurableFleet::recover(&dir).unwrap();
        let rec = *recovered.recovery();
        assert_eq!(
            (
                rec.replayed_batches,
                rec.torn_tail_bytes,
                rec.corrupt_frames
            ),
            (3, 0, 0),
            "{rec:?}"
        );
        assert_eq!(recovered.next_seq(node), 3);
        assert_eq!(fingerprint(recovered.aggregator(), 1, now), acknowledged);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stray_log_without_a_snapshot_is_not_replayed_later() {
        let dir = test_dir("stray");
        // A previous life: one node, a few logged batches, no rotation.
        let mut old = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let node = old.add_node("node00").unwrap();
        for batch in &node_batches(10, 0.0, 4) {
            old.ingest(node, batch).unwrap();
        }
        assert_eq!(old.epoch(), 0);
        drop(old);
        // Its snapshot is lost; its epoch-0 log is not.
        fs::remove_file(dir.join("snapshot.bin")).unwrap();
        assert!(fs::metadata(dir.join("wal-0.log")).unwrap().len() > 0);
        // The directory opens as a fresh fleet...
        let fresh = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(fresh.aggregator().node_count(), 0);
        drop(fresh);
        // ...and stays one: the next open replays nothing of the old life.
        let again = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(again.recovery().replayed_batches, 0);
        assert_eq!(again.aggregator().node_count(), 0);
        assert_eq!(again.store().cardinality(), 0);
        let _ = fs::remove_dir_all(&dir);

        // The same at a later epoch. A previous life rotated twice and
        // logged three batches in `wal-2.log`; its snapshot is lost.
        let dir = test_dir("stray_later");
        let mut old = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let node = old.add_node("node00").unwrap();
        old.snapshot().unwrap();
        old.snapshot().unwrap();
        for batch in &node_batches(10, 0.0, 4) {
            old.ingest(node, batch).unwrap();
        }
        drop(old);
        fs::remove_file(dir.join("snapshot.bin")).unwrap();
        assert!(fs::metadata(dir.join("wal-2.log")).unwrap().len() > 0);
        // The fresh life reaches epoch 2 as well — its log starts empty
        // there — and is acknowledged one batch.
        let mut fresh = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let node = fresh.add_node("node00").unwrap();
        fresh.snapshot().unwrap();
        fresh.snapshot().unwrap();
        let stream = node_batches(3, 5.0, 4);
        assert_eq!(stream.len(), 1);
        assert!(fresh.ingest(node, &stream[0]).unwrap().applied);
        let acknowledged = fresh.aggregator().counters(node);
        assert_eq!(
            (acknowledged.batches, acknowledged.samples),
            (1, 3),
            "{acknowledged:?}"
        );
        drop(fresh);
        // Recovery finds what that life acknowledged, and nothing else.
        let recovered = DurableFleet::recover(&dir).unwrap();
        let rec = *recovered.recovery();
        assert_eq!((rec.epoch, rec.replayed_batches), (2, 1), "{rec:?}");
        assert_eq!(rec.replayed_duplicates, 0, "{rec:?}");
        assert_eq!(recovered.aggregator().node_count(), 1);
        assert_eq!(recovered.aggregator().counters(node), acknowledged);
        let _ = fs::remove_dir_all(&dir);
    }

    /// One node's stream of chunk-bearing batches — every way a `chunk`
    /// record can meet a ring: long ones it links; short ones it decodes;
    /// ones that start before its newest sample, which it decodes and
    /// partly rejects; ones whose payload is damaged or whose header
    /// lies, which may be refused; payloads with bytes past their codes;
    /// samples between them; now and then a batch delivered again — and
    /// enough of them that the ring's front is evicted, partly or whole.
    fn chunked_stream(rng: &mut TestRng, batches: u64) -> Vec<ExportBatch> {
        let (mut t, mut out) = (1_000u64, Vec::new());
        for seq in 0..batches {
            let mut records = Vec::new();
            if seq == 0 {
                let meta = MetricMeta::gauge("m", "u", SourceDomain::Hardware);
                records.push(ExportRecord::Meta {
                    id: MetricId(0),
                    meta,
                });
            }
            for _ in 0..1 + rng.below(3) {
                let kind = rng.below(8);
                if kind == 0 {
                    t += 1000;
                    let value = rng.below(64) as f64;
                    records.push(ExportRecord::Sample {
                        id: MetricId(0),
                        t: SimTime(t),
                        value,
                    });
                    continue;
                }
                let n = match kind {
                    1 => 1 + rng.below(63),
                    _ => 64 + rng.below(700),
                };
                let start = match kind {
                    2 => t.saturating_sub(1000 * rng.below(200)),
                    _ => t + 1000,
                };
                let ts: Vec<u64> = (0..n).map(|i| start + 1000 * i + rng.below(400)).collect();
                let vals: Vec<f64> = ts.iter().map(|_| rng.below(50) as f64 * 0.5).collect();
                let mut record = ExportRecord::chunk(MetricId(0), &chunk::compress(&ts, &vals, 0));
                let ExportRecord::Chunk { last_t, bytes, .. } = &mut record else {
                    unreachable!("a chunk record");
                };
                match rng.below(6) {
                    0 => {
                        let at = rng.below(bytes.len() as u64) as usize;
                        bytes[at] ^= 1 << rng.below(8);
                    }
                    1 => last_t.0 += 1,
                    2 => bytes.extend((0..1 + rng.below(4)).map(|_| rng.below(256) as u8)),
                    _ => {}
                }
                t = t.max(ts[ts.len() - 1]);
                records.push(record);
            }
            out.push(ExportBatch { seq, records });
            if seq > 0 && rng.below(6) == 0 {
                out.push(out[out.len() - 2].clone());
            }
        }
        out
    }

    /// What a fleet's rings hold beyond [`fingerprint`]: each ring's
    /// newest sample, bit for bit, and whether every chunk in it was
    /// walked.
    fn rings(agg: &FleetAggregator, nodes: usize) -> Vec<String> {
        (0..nodes)
            .map(|k| {
                let id = agg
                    .store()
                    .lookup(&format!("node{k:02}/m"))
                    .expect("mapped");
                let ring = agg.store().raw(id);
                let latest = ring.latest().map(|s| (s.t.0, s.value.to_bits()));
                let walked = ring.sealed_chunks().all(|c| c.is_walked());
                format!("ring[{k}] latest={latest:?} walked={walked}")
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Recovered ≡ live over chunk-bearing streams: node 0 ingested
        /// in process, node 1 received as 1.6 and 1.5 bursts by turns, so
        /// the log holds tag-36 entries (chunks walked clean before the
        /// append, linked on their headers at replay) beside tag-35 and
        /// tag-33 ones (a refused chunk among them, or a fixed header).
        /// The recovered fleet has the live one's samples, tiers,
        /// counters, ledgers, newest values and value states, no ring
        /// holds an unwalked chunk, and a snapshot of each writes the
        /// same bytes.
        #[test]
        fn a_fleet_recovered_from_vouched_chunks_is_the_fleet_that_walked_them(
            seed in any::<u64>(),
        ) {
            let mut rng = TestRng::new(seed);
            let streams = [chunked_stream(&mut rng, 16), chunked_stream(&mut rng, 16)];
            let no_cadence = DurabilityConfig {
                snapshot_every_batches: u64::MAX,
            };
            let dir = test_dir(&format!("vouched_{seed}"));
            let mut live = DurableFleet::open(&dir, no_cadence).unwrap();
            let in_process = live.add_node("node00").unwrap();
            let received = live.add_node("node01").unwrap();
            let mut sender = ValueState::new();
            for (i, (a, b)) in streams[0].iter().zip(&streams[1]).enumerate() {
                live.ingest(in_process, a).unwrap();
                let coding = [Coding::Varints, Coding::Buckets][i % 3 / 2];
                let mut bytes = Vec::new();
                encode_batch_as(b, coding, &mut sender, &mut bytes);
                let mut burst = live.burst();
                burst.batch(received, coding.header(), &bytes).unwrap();
                burst.commit().unwrap();
            }
            let tags = entry_tags(&fs::read(dir.join("wal-0.log")).unwrap());
            prop_assert!(tags.contains(&wal::FRAME_LOG_BATCH_VOUCHED), "{:?}", tags);
            let copy = crash_copy(&dir, &format!("vouched_copy_{seed}"));
            let mut recovered = DurableFleet::recover(&copy).unwrap();
            prop_assert_eq!(recovered.recovery().corrupt_frames, 0);

            let now = SimTime(u64::MAX / 2);
            let (a, b) = (live.aggregator(), recovered.aggregator());
            prop_assert_eq!(fingerprint(b, 2, now), fingerprint(a, 2, now));
            prop_assert_eq!(rings(b, 2), rings(a, 2));
            prop_assert!(rings(b, 2).iter().all(|r| r.ends_with("walked=true")));
            let ledgers = |agg: &FleetAggregator| {
                let health = agg.health(now, SimDuration::from_secs(60));
                let all: Vec<_> = health.nodes.iter().map(|n| n.ledger()).collect();
                all
            };
            prop_assert_eq!(ledgers(b), ledgers(a));
            for node in [in_process, received] {
                prop_assert_eq!(b.stream_values(node), a.stream_values(node));
            }
            live.snapshot().unwrap();
            recovered.snapshot().unwrap();
            let image = |dir: &Path| fs::read(dir.join("snapshot.bin")).unwrap();
            prop_assert!(image(&dir) == image(&copy), "the snapshots differ");
            drop((live, recovered));
            let _ = fs::remove_dir_all(&dir);
            let _ = fs::remove_dir_all(&copy);
        }
    }

    /// One chunk record of `n` samples from `from` on, as a node seals it.
    fn sealed_chunk(from: u64, n: u64) -> (ExportRecord, Vec<u8>) {
        let ts: Vec<u64> = (from..from + n).map(|s| 1000 * s).collect();
        let vals: Vec<f64> = (from..from + n).map(|s| (s % 61) as f64 * 0.25).collect();
        let c = chunk::compress(&ts, &vals, 0);
        (ExportRecord::chunk(MetricId(0), &c), c.bytes().to_vec())
    }

    /// A batch's entry tag is 36 exactly when the fleet walked its
    /// `chunk` records before the append and each one it walked walked
    /// clean — one too short to be linked is not walked there, but
    /// decoded, and checked, as it is applied, live and at replay alike.
    /// A refused chunk, a batch with none, a duplicate (whose records
    /// are not applied) and a fixed-header batch keep their header's
    /// tag, and are walked at replay.
    #[test]
    fn a_batch_is_logged_vouched_exactly_when_its_chunks_walked_clean() {
        let dir = test_dir("vouched_tags");
        let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let node = fleet.add_node("node00").unwrap();
        let meta = ExportRecord::Meta {
            id: MetricId(0),
            meta: MetricMeta::gauge("m", "u", SourceDomain::Hardware),
        };
        let (long, _) = sealed_chunk(0, 512);
        let (short, _) = sealed_chunk(512, 20);
        let (mut refused, _) = sealed_chunk(600, 300);
        if let ExportRecord::Chunk { last_t, .. } = &mut refused {
            last_t.0 += 1;
        }
        let (fixed, _) = sealed_chunk(1000, 300);
        let sample = ExportRecord::Sample {
            id: MetricId(0),
            t: SimTime(2_000_000),
            value: 1.0,
        };
        let batch = |seq, records: &[&ExportRecord]| ExportBatch {
            seq,
            records: records.iter().map(|&r| r.clone()).collect(),
        };
        let in_process = [
            batch(0, &[&meta, &long]),
            batch(1, &[&short]),
            batch(2, &[&refused]),
            batch(0, &[&meta, &long]),
        ];
        for b in &in_process {
            fleet.ingest(node, b).unwrap();
        }
        let mut bytes = Vec::new();
        encode_batch_as(
            &batch(3, &[&fixed]),
            Coding::Buckets,
            &mut ValueState::new(),
            &mut bytes,
        );
        let mut burst = fleet.burst();
        burst.batch(node, BatchHeader::Fixed, &bytes).unwrap();
        burst.commit().unwrap();
        fleet.ingest(node, &batch(4, &[&sample])).unwrap();
        let counters = fleet.aggregator().counters(node);
        assert_eq!((counters.chunks, counters.corrupt_chunks), (3, 1));
        assert_eq!(counters.duplicate_batches, 1);
        let tags = entry_tags(&fs::read(dir.join("wal-0.log")).unwrap());
        let (vouched, varint, fixed) = (
            wal::FRAME_LOG_BATCH_VOUCHED,
            wal::FRAME_LOG_BATCH_1_6,
            wal::FRAME_LOG_BATCH,
        );
        assert_eq!(tags[1..], [vouched, vouched, varint, varint, fixed, varint]);
        let now = SimTime::from_secs(3000);
        let live = fingerprint(fleet.aggregator(), 1, now);
        drop(fleet);
        let recovered = DurableFleet::recover(&dir).unwrap();
        assert_eq!(fingerprint(recovered.aggregator(), 1, now), live);
        drop(recovered);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Rewrite `dir`'s log frame by frame: `change` gets each frame's
    /// index, tag and payload, may change the payload, and returns the
    /// tag to write it under; the CRC is taken again, so whatever it
    /// did is damage the CRC cannot see.
    fn rewrite_log(dir: &Path, mut change: impl FnMut(usize, u8, &mut Vec<u8>) -> u8) {
        let path = dir.join("wal-0.log");
        let bytes = fs::read(&path).unwrap();
        let (mut pos, mut out) = (0, Vec::new());
        for index in 0.. {
            let FrameParse::Frame {
                tag,
                payload,
                consumed,
            } = parse_frame(&bytes[pos..])
            else {
                break;
            };
            let mut payload = payload.to_vec();
            let tag = change(index, tag, &mut payload);
            write_frame(&mut out, tag, &payload).unwrap();
            pos += consumed;
        }
        assert_eq!(pos, bytes.len(), "whole frames");
        fs::write(&path, out).unwrap();
    }

    /// A chunk a tag-36 entry vouches for, whose payload took damage the
    /// CRC cannot see: recovery refuses the log while a ring keeps the
    /// chunk — the recovered fleet would serve it — and once later
    /// chunks have evicted it, recovers without walking it, counted as
    /// the live fleet counted it.
    #[test]
    fn a_vouched_chunk_damaged_past_the_crc_refuses_recovery_only_while_a_ring_keeps_it() {
        let dir = test_dir("vouched_damage");
        let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let node = fleet.add_node("node00").unwrap();
        // Twelve chunks of 512 into a ring of 4096: it keeps the last
        // eight.
        let chunks: Vec<(ExportRecord, Vec<u8>)> =
            (0..12).map(|k| sealed_chunk(512 * k, 512)).collect();
        for (seq, (record, _)) in chunks.iter().enumerate() {
            let mut records = vec![record.clone()];
            if seq == 0 {
                let meta = MetricMeta::gauge("m", "u", SourceDomain::Hardware);
                records.insert(
                    0,
                    ExportRecord::Meta {
                        id: MetricId(0),
                        meta,
                    },
                );
            }
            let batch = ExportBatch {
                seq: seq as u64,
                records,
            };
            fleet.ingest(node, &batch).unwrap();
        }
        let now = SimTime::from_secs(6200);
        let live = fingerprint(fleet.aggregator(), 1, now);
        drop(fleet);
        // Frame 0 is the node; frame `1 + k` carries chunk `k`.
        let damaged = |k: usize| {
            let copy = crash_copy(&dir, &format!("vouched_damage_{k}"));
            rewrite_log(&copy, |index, tag, payload| {
                if index == 1 + k {
                    assert_eq!(tag, wal::FRAME_LOG_BATCH_VOUCHED);
                    let bytes = &chunks[k].1;
                    let at = payload
                        .windows(bytes.len())
                        .position(|w| w == bytes)
                        .unwrap();
                    // The first timestamp code flipped: the walk ends
                    // elsewhere, or nowhere.
                    payload[at + 8] ^= 0x80;
                    let walked = chunk::validate(512_000 * k as u64, 512, &payload[at..]);
                    assert!(
                        walked.is_err() || walked.unwrap().last_t != 1000 * (512 * k as u64 + 511)
                    );
                }
                tag
            });
            copy
        };
        let evicted = damaged(0);
        let recovered = DurableFleet::recover(&evicted).unwrap();
        assert_eq!(recovered.recovery().corrupt_frames, 0);
        assert_eq!(fingerprint(recovered.aggregator(), 1, now), live);
        drop(recovered);
        for kept in [4, 11] {
            let copy = damaged(kept);
            let refused = DurableFleet::recover(&copy).unwrap_err();
            assert_eq!(refused.kind(), io::ErrorKind::InvalidData, "{refused}");
            let _ = fs::remove_dir_all(&copy);
        }
        let _ = fs::remove_dir_all(&evicted);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The log an older build writes for the same in-process stream —
    /// every batch under tag 35, its chunks walked as they are replayed
    /// — recovers to the fleet the tag-36 log recovers to, and a
    /// snapshot of either writes the same image.
    #[test]
    fn a_log_of_tag_35_chunk_batches_recovers_as_the_vouched_log_does() {
        let dir = test_dir("tag_35_log");
        let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
        let node = fleet.add_node("node00").unwrap();
        for batch in &chunked_stream(&mut TestRng::new(7), 24) {
            fleet.ingest(node, batch).unwrap();
        }
        let now = SimTime(u64::MAX / 2);
        let live = fingerprint(fleet.aggregator(), 1, now);
        drop(fleet);
        let older = crash_copy(&dir, "tag_35_log_older");
        let mut vouched = 0;
        rewrite_log(&older, |_, tag, _| match tag {
            wal::FRAME_LOG_BATCH_VOUCHED => {
                vouched += 1;
                wal::FRAME_LOG_BATCH_1_6
            }
            tag => tag,
        });
        assert!(vouched > 10, "{vouched}");
        let mut images = Vec::new();
        for state in [&dir, &older] {
            let mut recovered = DurableFleet::recover(state).unwrap();
            assert_eq!(fingerprint(recovered.aggregator(), 1, now), live);
            assert!(rings(recovered.aggregator(), 1)[0].ends_with("walked=true"));
            recovered.snapshot().unwrap();
            images.push(fs::read(state.join("snapshot.bin")).unwrap());
        }
        assert!(images[0] == images[1], "the images differ");
        let _ = fs::remove_dir_all(&older);
        let _ = fs::remove_dir_all(&dir);
    }
}
