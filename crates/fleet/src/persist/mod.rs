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
//! acknowledged.** [`DurableFleet::ingest`] appends the batch to the
//! log and commits it to the OS *before* applying it to the in-memory
//! aggregator. A receive burst ([`DurableFleet::burst`]) takes each
//! received batch as the bytes it arrived in — validated where they lie
//! ([`BatchView`]), appended as `[node u32][those bytes]`, applied off
//! the same bytes — and commits the log **once**, in [`Burst::commit`];
//! the burst holds the fleet exclusively until then, so no reader sees
//! a batch whose log bytes are still buffered and nothing is
//! acknowledged before the flush. A `kill -9` therefore loses at most
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

use crate::aggregator::{FleetAggregator, IngestReport};
use crate::store::{FleetStore, NodeId};
use dir::{LogWriter, StateDir};
use moda_obs::{LatencyRecorder, Obs};
use moda_telemetry::export::ExportBatch;
use moda_telemetry::wire::{encode_batch_with, BatchView};
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
        let (good, corrupt) = wal::replay(&logged, &mut agg, &mut recovery);
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

    /// Ingest one batch durably: append its encoding to the log, commit,
    /// then apply — returning means flushed. The batch is logged as a
    /// 1.4 writer on `node`'s stream sends it, its sample runs coded
    /// against the stream's value state — which a connection that
    /// carried the stream no longer shares, so it no longer carries it.
    /// Cuts a snapshot (written off this call; see the module docs)
    /// every [`DurabilityConfig::snapshot_every_batches`] applied
    /// batches.
    pub fn ingest(&mut self, node: NodeId, batch: &ExportBatch) -> io::Result<IngestReport> {
        if let Some(token) = self.connections.get_mut(node.index()) {
            *token = 0;
        }
        self.frame_buf.clear();
        let values = self.agg.stream_values_mut(node);
        encode_batch_with(batch, values, &mut self.frame_buf);
        self.wal.append(Entry::Batch(node, &self.frame_buf))?;
        self.wal.commit()?;
        let report = self.agg.ingest(node, batch);
        self.count_batch()?;
        self.poll()?;
        Ok(report)
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
    /// Take one received `BATCH` payload: validate it where it lies,
    /// check its values against `node`'s stream state, log `[node u32]
    /// [those bytes]`, apply the records straight off them. A payload
    /// that fails validation or the check is an `InvalidData` error and
    /// touches neither the log nor any counter nor the state. Cuts a
    /// snapshot on the [`DurabilityConfig::snapshot_every_batches`]
    /// cadence, exactly where [`DurableFleet::ingest`] would.
    pub fn batch(&mut self, node: NodeId, payload: &[u8]) -> io::Result<IngestReport> {
        let view = BatchView::parse(payload)?;
        self.fleet.agg.check_view(node, &view)?;
        // Only bytes a view vouches for reach the log.
        self.fleet.wal.append(Entry::Batch(node, view.as_bytes()))?;
        let report = self.fleet.agg.apply_view(node, &view);
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
    use moda_telemetry::export::{ExportRecord, MemorySink};
    use moda_telemetry::wire::{encode_batch, put_block, put_u32, put_u64, write_frame};
    use moda_telemetry::{
        Exporter, MetricId, MetricMeta, RollupConfig, RollupTier, SourceDomain, Tsdb, WindowAgg,
    };
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
            burst.batch(node, wire).unwrap();
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
        burst.batch(node, &wire(&stream[4])).unwrap();
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
        burst.batch(node, &wire(&stream[5])).unwrap();
        burst.batch(node, &wire(&stream[6])).unwrap();
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
        burst.batch(node, &wire(&stream[3])).unwrap();
        let full = burst.commit().unwrap_err();
        let mut burst = fleet.burst();
        let refused = burst.batch(node, &wire(&stream[4])).unwrap_err();
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
}
