//! Durability for the fleet tier: periodic snapshots plus an
//! append-only log of ingested wire batches.
//!
//! The fleet knowledge base is a *service* in the paper's center-level
//! deployment (ODA-in-Practice, DCDB Wintermute): it must survive a
//! restart without replaying every node from `seq 0`. This module makes
//! [`FleetAggregator`] restartable with two artifacts in a state
//! directory:
//!
//! * **`snapshot.bin`** — the full aggregator state (metric registry,
//!   wire-fed `WireTiers` pyramids, raw rings with their sealed
//!   Gorilla chunks shipped as `chunk` records, store counters, and
//!   every node session's cursor + wire counters), written atomically:
//!   `snapshot.tmp` + fsync + rename. A reader never observes a
//!   half-written snapshot.
//! * **`wal-<epoch>.log`** — every mutation since that snapshot, in
//!   arrival order, each entry one CRC-framed record (see
//!   `moda_telemetry::wire::write_frame`): batches in the
//!   `export-wire` binary encoding — a received batch verbatim, in
//!   whichever revision its sender wrote — node registrations, and
//!   out-of-band drain reports. The **epoch** number pairs log and
//!   snapshot: a snapshot stores the epoch of the log that follows it,
//!   so rotation (write snapshot `N+1` → create `wal-(N+1).log` →
//!   rename → delete `wal-N.log`) is crash-safe at every step — the
//!   surviving snapshot always names exactly one log file, and stray
//!   files from an interrupted rotation are ignored and cleaned up.
//!
//! **Discipline: logged before it is visible, flushed before it is
//! acknowledged.** [`DurableFleet::ingest`] appends the batch to the
//! log and flushes it to the OS *before* applying it to the in-memory
//! aggregator. A receive burst ([`DurableFleet::burst`]) takes each
//! received batch as the bytes it arrived in — validated where they lie
//! ([`BatchView`]), appended as `[node u32][those bytes]`, applied off
//! the same bytes — and flushes the log **once**, in [`Burst::commit`];
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
//! Durability scope: the log is flushed (`write(2)`) per entry or per
//! burst, so process crashes (`kill -9`) lose nothing that was
//! acknowledged; surviving a *machine* crash would additionally need
//! `fsync` where that flush is, which this tier deliberately trades
//! away (snapshots *are* fsynced).
//!
//! Every byte here — the frame envelope, the record codec, and the
//! LE/varint helpers and bounds-checked reader the snapshot layout and
//! log-entry prefixes are written with — comes from
//! [`moda_telemetry::wire`]; this module owns only the *layouts* built
//! from them (log entry tags, the snapshot sections).

use crate::aggregator::{FleetAggregator, IngestReport, NodeSession};
use crate::store::{FleetStore, FleetStoreStats, NodeId};
use moda_obs::{Counter, LatencyRecorder, Obs};
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::export::{ExportBatch, ExportRecord};
use moda_telemetry::wire::{
    bad_data, decode_drain_stats, encode_batch, encode_drain_stats, parse_frame, put_block,
    put_f64, put_meta, put_str, put_u32, put_u64, put_uv, unzigzag, write_frame, write_frame_parts,
    zigzag, BatchView, FrameParse, RecordRef, WireReader,
};
use moda_telemetry::{DrainStats, MetricId};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::aggregator::NodeCounters;

// ---------------------------------------------------------- frame tags

/// Log entry: one ingested wire batch (`[node u32][batch bytes]`).
pub(crate) const FRAME_LOG_BATCH: u8 = 33;
/// Log entry: a node session was opened (`[name]`).
pub(crate) const FRAME_LOG_NODE: u8 = 32;
/// Log entry: an out-of-band exporter drain report
/// (`[node u32][drain stats]`).
pub(crate) const FRAME_LOG_DRAIN: u8 = 34;
/// The single frame inside `snapshot.bin`.
pub(crate) const FRAME_SNAPSHOT: u8 = 40;

/// Leading magic of `snapshot.bin` (version-suffixed). `03`: the raw
/// sections' unsealed tails are packed `samples` records, which an
/// `02` reader would length-skip — losing the tails without a word —
/// so it must not recognise the file at all.
const SNAPSHOT_MAGIC: &[u8; 8] = b"MODAFS03";
/// The previous magic: the same layout with one `sample` record per
/// tail observation. The batch decoder reads both renderings, so such
/// a file loads as it is and is written back as `03`.
const SNAPSHOT_MAGIC_02: &[u8; 8] = b"MODAFS02";

const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

fn wal_name(epoch: u64) -> String {
    format!("wal-{epoch}.log")
}

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
    /// Records in replayed batches whose kind this reader does not know
    /// (a log written by a newer build): length-skipped, so whatever
    /// they carried is not in the recovered state. Folded into
    /// `fleet.ingest.unknown_records` by [`DurableFleet::set_obs`].
    pub unknown_records: u64,
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
    dir: PathBuf,
    log: BufWriter<File>,
    epoch: u64,
    snapshot_every: u64,
    batches_since_snapshot: u64,
    recovery: RecoveryStats,
    /// Scratch for a log entry built here (a node name, a drain
    /// report, an in-process batch's encoding) — cleared, never freed.
    frame_buf: Vec<u8>,
    /// Scratch for the snapshot payload, kept at the size the last
    /// snapshot grew it to.
    snapshot_buf: Vec<u8>,
    wal_obs: WalObs,
}

/// Pre-resolved durability instruments — resolved once in
/// [`DurableFleet::set_obs`]; all inert on a disabled handle.
#[derive(Debug, Default, Clone)]
struct WalObs {
    /// `wal.appends` — log frames appended.
    appends: Counter,
    /// `wal.bytes` — payload bytes appended to the log.
    bytes: Counter,
    /// `wal.fsync_ns` — wall time of the post-append OS flush (the
    /// durability cost every mutation pays).
    fsync_ns: LatencyRecorder,
    /// `snapshot.write_ns` — wall time of one snapshot write + rotate.
    snapshot_ns: LatencyRecorder,
}

impl DurableFleet {
    /// Open the state directory: recover if a snapshot exists there,
    /// otherwise initialize a fresh durable fleet (writing an empty
    /// epoch-0 snapshot so the directory is always recoverable).
    pub fn open(dir: impl AsRef<Path>, cfg: DurabilityConfig) -> io::Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        if dir.join(SNAPSHOT_FILE).exists() {
            Self::recover_with(dir, cfg)
        } else {
            Self::create(dir, cfg)
        }
    }

    /// Initialize a fresh state directory. A `wal-0.log` left by a
    /// previous life whose snapshot is gone is truncated: the empty
    /// snapshot written here names epoch 0, so the next open would
    /// otherwise replay those entries into a fleet that started empty.
    fn create(dir: &Path, cfg: DurabilityConfig) -> io::Result<Self> {
        let agg = FleetAggregator::new();
        let mut fleet = DurableFleet {
            log: BufWriter::new(File::create(dir.join(wal_name(0)))?),
            agg,
            dir: dir.to_path_buf(),
            epoch: 0,
            snapshot_every: cfg.snapshot_every_batches.max(1),
            batches_since_snapshot: 0,
            recovery: RecoveryStats::default(),
            frame_buf: Vec::new(),
            snapshot_buf: Vec::new(),
            wal_obs: WalObs::default(),
        };
        // An empty snapshot makes the directory self-describing from
        // the first byte: recovery never needs a "no snapshot" case.
        fleet.write_snapshot(0)?;
        Ok(fleet)
    }

    /// Restore from `dir`: snapshot, then intact log tail; truncate any
    /// torn tail; resume sessions at their persisted cursors.
    pub fn recover(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::recover_with(dir.as_ref(), DurabilityConfig::default())
    }

    fn recover_with(dir: &Path, cfg: DurabilityConfig) -> io::Result<Self> {
        let snap = fs::read(dir.join(SNAPSHOT_FILE))?;
        let (agg, epoch, nodes, metrics) = decode_snapshot(&snap)?;
        let mut recovery = RecoveryStats {
            epoch,
            snapshot_nodes: nodes,
            snapshot_metrics: metrics,
            ..RecoveryStats::default()
        };
        let mut fleet = DurableFleet {
            agg,
            dir: dir.to_path_buf(),
            log: BufWriter::new(open_log(dir, epoch)?),
            epoch,
            snapshot_every: cfg.snapshot_every_batches.max(1),
            batches_since_snapshot: 0,
            recovery: RecoveryStats::default(),
            frame_buf: Vec::new(),
            snapshot_buf: Vec::new(),
            wal_obs: WalObs::default(),
        };
        fleet.replay_log(&mut recovery)?;
        fleet.recovery = recovery;
        fleet.cleanup_strays();
        Ok(fleet)
    }

    /// Replay the intact prefix of `wal-<epoch>.log` into the restored
    /// aggregator, then truncate the file to that prefix so new appends
    /// continue on a clean boundary.
    fn replay_log(&mut self, recovery: &mut RecoveryStats) -> io::Result<()> {
        let path = self.dir.join(wal_name(self.epoch));
        let bytes = fs::read(&path)?;
        let mut good = 0usize;
        loop {
            // Frames are parsed where the file sits in memory; each
            // payload is lent to the decoder, not copied out first.
            match parse_frame(&bytes[good..]) {
                FrameParse::Frame {
                    tag,
                    payload,
                    consumed,
                } => {
                    match self.apply_log_entry(tag, payload, recovery) {
                        Ok(()) => {}
                        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                            // CRC-valid but undecodable: corruption that
                            // happens to checksum; stop at the last good
                            // boundary like any other corrupt frame.
                            recovery.corrupt_frames += 1;
                            break;
                        }
                        Err(e) => return Err(e),
                    }
                    good += consumed;
                }
                // Clean end of log, or a torn tail.
                FrameParse::Incomplete { .. } => break,
                FrameParse::Corrupt => {
                    recovery.corrupt_frames += 1;
                    break;
                }
            }
        }
        recovery.torn_tail_bytes = (bytes.len() - good) as u64;
        if good < bytes.len() {
            // Drop the torn/corrupt tail on disk too, so the next
            // append does not interleave with garbage.
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(good as u64)?;
            f.sync_all()?;
            self.log = BufWriter::new(open_log(&self.dir, self.epoch)?);
        }
        Ok(())
    }

    fn apply_log_entry(
        &mut self,
        tag: u8,
        payload: &[u8],
        recovery: &mut RecoveryStats,
    ) -> io::Result<()> {
        match tag {
            FRAME_LOG_NODE => {
                let mut r = WireReader::new(payload);
                let name = r.str()?;
                if !r.done() {
                    return Err(bad_data("trailing bytes in node entry"));
                }
                if self.agg.find_node(&name).is_none() {
                    self.agg.add_node(&name);
                }
                recovery.replayed_nodes += 1;
            }
            FRAME_LOG_BATCH => {
                let mut r = WireReader::new(payload);
                let node = NodeId(r.u32()?);
                if node.index() >= self.agg.node_count() {
                    return Err(bad_data("batch entry names an unknown node"));
                }
                // Validated and applied where the log file sits in
                // memory. Replay runs before a registry can be attached,
                // so what the view skips is kept for `set_obs` to fold in.
                let view = BatchView::parse(r.rest())?;
                let report = self.agg.ingest_view(node, &view);
                recovery.unknown_records += view.unknown_records();
                recovery.replayed_batches += 1;
                if report.duplicate {
                    recovery.replayed_duplicates += 1;
                }
                self.batches_since_snapshot += 1;
            }
            FRAME_LOG_DRAIN => {
                let mut r = WireReader::new(payload);
                let node = NodeId(r.u32()?);
                if node.index() >= self.agg.node_count() {
                    return Err(bad_data("drain entry names an unknown node"));
                }
                let stats = decode_drain_stats(r.rest())?;
                self.agg.report_drain(node, &stats);
                recovery.replayed_drains += 1;
            }
            _ => return Err(bad_data("unknown log entry tag")),
        }
        Ok(())
    }

    /// Best-effort removal of files an interrupted rotation left
    /// behind: the tmp snapshot and any log not named by the snapshot.
    fn cleanup_strays(&self) {
        let _ = fs::remove_file(self.dir.join(SNAPSHOT_TMP));
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.starts_with("wal-") && name != wal_name(self.epoch) {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }

    // ----- mutations (log, then apply) ----------------------------------

    /// Open (or look up) a node ingest session. New sessions are logged
    /// so recovery rebuilds the node table in registration order.
    pub fn add_node(&mut self, name: &str) -> io::Result<NodeId> {
        if let Some(id) = self.agg.find_node(name) {
            return Ok(id);
        }
        self.append_built(FRAME_LOG_NODE, |out| put_str(out, name))?;
        self.flush_log()?;
        Ok(self.agg.add_node(name))
    }

    /// Ingest one batch durably: append its encoding to the log, flush,
    /// then apply — returning means flushed. Takes a snapshot
    /// (truncating the log) every
    /// [`DurabilityConfig::snapshot_every_batches`] applied batches.
    pub fn ingest(&mut self, node: NodeId, batch: &ExportBatch) -> io::Result<IngestReport> {
        self.append_built(FRAME_LOG_BATCH, |out| {
            put_u32(out, node.0);
            encode_batch(batch, out);
        })?;
        self.flush_log()?;
        let report = self.agg.ingest(node, batch);
        self.count_batch()?;
        Ok(report)
    }

    /// Durably record an out-of-band exporter drain report.
    pub fn report_drain(&mut self, node: NodeId, stats: &DrainStats) -> io::Result<()> {
        self.append_drain(node, stats)?;
        self.flush_log()?;
        self.agg.report_drain(node, stats);
        Ok(())
    }

    /// Start a receive burst: entries logged and applied one after the
    /// other, made durable together by [`Burst::commit`].
    pub fn burst(&mut self) -> Burst<'_> {
        Burst { fleet: self }
    }

    /// Append one log frame whose payload is `parts` end to end. Not
    /// flushed: [`DurableFleet::flush_log`] is the other half.
    fn append(&mut self, tag: u8, parts: &[&[u8]]) -> io::Result<()> {
        write_frame_parts(&mut self.log, tag, parts)?;
        self.wal_obs.appends.add(1);
        let bytes: usize = parts.iter().map(|part| part.len()).sum();
        self.wal_obs.bytes.add(bytes as u64);
        Ok(())
    }

    /// [`DurableFleet::append`] for a payload `fill` writes into the
    /// reused scratch buffer.
    fn append_built(&mut self, tag: u8, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        let mut payload = std::mem::take(&mut self.frame_buf);
        payload.clear();
        fill(&mut payload);
        let appended = self.append(tag, &[&payload]);
        self.frame_buf = payload;
        appended
    }

    fn append_drain(&mut self, node: NodeId, stats: &DrainStats) -> io::Result<()> {
        self.append_built(FRAME_LOG_DRAIN, |out| {
            put_u32(out, node.0);
            encode_drain_stats(stats, out);
        })
    }

    /// Flush the log to the OS: `kill -9` cannot lose what was appended
    /// once this returns.
    fn flush_log(&mut self) -> io::Result<()> {
        let _span = self.wal_obs.fsync_ns.start();
        self.log.flush()
    }

    /// One more batch applied since the last snapshot; snapshot when
    /// the cadence says so.
    fn count_batch(&mut self) -> io::Result<()> {
        self.batches_since_snapshot += 1;
        if self.batches_since_snapshot >= self.snapshot_every {
            self.snapshot()?;
        }
        Ok(())
    }

    // ----- snapshot -----------------------------------------------------

    /// Take a snapshot now and truncate the log (atomic rotation; see
    /// the module docs for the crash analysis of each step).
    pub fn snapshot(&mut self) -> io::Result<()> {
        // Anything buffered belongs to the old epoch; make sure it is
        // on disk before the snapshot that supersedes it.
        self.log.flush()?;
        let next = self.epoch + 1;
        self.write_snapshot(next)?;
        let _ = fs::remove_file(self.dir.join(wal_name(self.epoch)));
        self.epoch = next;
        self.batches_since_snapshot = 0;
        Ok(())
    }

    /// Write `snapshot.bin` naming log `epoch`, and leave `self.log`
    /// pointing at that (fresh, empty) log.
    fn write_snapshot(&mut self, epoch: u64) -> io::Result<()> {
        let _span = self.wal_obs.snapshot_ns.start();
        let tmp = self.dir.join(SNAPSHOT_TMP);
        self.snapshot_buf.clear();
        encode_snapshot(&self.agg, epoch, &mut self.snapshot_buf);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(SNAPSHOT_MAGIC)?;
            write_frame(&mut f, FRAME_SNAPSHOT, &self.snapshot_buf)?;
            f.sync_all()?;
        }
        // New log first, then the rename that makes it live: a crash
        // between the two leaves a stray (ignored) log, never a
        // snapshot pointing at a missing one.
        let new_log = open_log(&self.dir, epoch)?;
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        self.log = BufWriter::new(new_log);
        Ok(())
    }

    // ----- access -------------------------------------------------------

    /// Attach a self-telemetry handle: resolves the durability
    /// instruments (`wal.*`, `snapshot.write_ns`) and hands the handle
    /// down to the aggregator's ingest instruments. Observation state
    /// is process-local — it is *not* persisted or recovered.
    pub fn set_obs(&mut self, obs: Obs) {
        self.wal_obs = WalObs {
            appends: obs.counter("wal.appends"),
            bytes: obs.counter("wal.bytes"),
            fsync_ns: obs.latency("wal.fsync_ns"),
            snapshot_ns: obs.latency("snapshot.write_ns"),
        };
        self.agg.set_obs(obs);
        // Replay ran before any handle could be attached.
        self.agg.note_unknown_records(self.recovery.unknown_records);
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
        &self.dir
    }

    /// Current log epoch (advances on every snapshot).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Unwrap into the in-memory aggregator (e.g. after a final
    /// [`DurableFleet::snapshot`] at clean shutdown).
    pub fn into_aggregator(self) -> FleetAggregator {
        self.agg
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
/// burst without committing still flushes (an error path must not leave
/// applied-but-buffered entries behind), but only `commit` reports
/// whether the flush succeeded — acknowledge nothing before it returns.
#[derive(Debug)]
pub struct Burst<'a> {
    fleet: &'a mut DurableFleet,
}

impl Burst<'_> {
    /// Take one received `BATCH` payload: validate it where it lies,
    /// log `[node u32][those bytes]`, apply the records straight off
    /// them. A payload that fails validation is an `InvalidData` error
    /// and touches neither the log nor any counter. Snapshots on the
    /// [`DurabilityConfig::snapshot_every_batches`] cadence, exactly
    /// where [`DurableFleet::ingest`] would.
    pub fn batch(&mut self, node: NodeId, payload: &[u8]) -> io::Result<IngestReport> {
        let view = BatchView::parse(payload)?;
        // Only bytes a view vouches for reach the log.
        self.fleet
            .append(FRAME_LOG_BATCH, &[&node.0.to_le_bytes(), view.as_bytes()])?;
        let report = self.fleet.agg.ingest_view(node, &view);
        self.fleet.count_batch()?;
        Ok(report)
    }

    /// Take one out-of-band exporter drain report.
    pub fn drain(&mut self, node: NodeId, stats: &DrainStats) -> io::Result<()> {
        self.fleet.append_drain(node, stats)?;
        self.fleet.agg.report_drain(node, stats);
        Ok(())
    }

    /// The cursor `node`'s session stands at, this burst's batches
    /// included — what the entry just taken will be acknowledged with.
    pub fn next_seq(&self, node: NodeId) -> u64 {
        self.fleet.next_seq(node)
    }

    /// Flush the log: everything this burst took is durable (against
    /// `kill -9`; see the module docs) once this returns `Ok`.
    pub fn commit(self) -> io::Result<()> {
        self.fleet.flush_log()
    }
}

impl Drop for Burst<'_> {
    fn drop(&mut self) {
        // After `commit` the buffer is empty and this is a no-op.
        let _ = self.fleet.log.flush();
    }
}

fn open_log(dir: &Path, epoch: u64) -> io::Result<File> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(wal_name(epoch)))
}

// ------------------------------------------------------ snapshot codec

/// Render one raw ring as wire records: every sealed chunk ships whole
/// (compressed bytes, no decode) — a partially evicted front chunk as
/// its retained suffix, re-encoded — and the uncompressed tail as one
/// run of samples, which the batch codec packs into a single `samples`
/// record. Restoring relinks exactly these chunks, so the rendering of
/// a recovered ring is byte-identical.
fn raw_ring_records(store: &FleetStore, id: MetricId) -> Vec<ExportRecord> {
    let raw = store.raw(id);
    let mut records: Vec<ExportRecord> = raw
        .sealed_chunks()
        .map(|c| match c.skip() {
            0 => ExportRecord::chunk(id, c),
            _ => ExportRecord::chunk(id, &c.compacted()),
        })
        .collect();
    let tail = raw.len() - raw.compressed_len();
    records.extend(
        raw.last_n_view(tail)
            .into_iter()
            .map(|s| ExportRecord::Sample {
                id,
                t: s.t,
                value: s.value,
            }),
    );
    records
}

/// Serialize the whole aggregator. Layout (all LE; strings `u16`-len
/// prefixed) — see `docs/FLEET_SERVICE.md` for the normative spec:
///
/// ```text
/// epoch u64 · raw_retention u64 · store counters 7×u64
/// session count u32 · per session:
///   name · next_seq u64 · wire_map u32-len + u32 entries (MAX=None)
///   counters 13×u64 · high_water u64 · ever_ingested u8 · drain 11×u64
/// metric count u32 · per metric:
///   node u32 · meta(name · kind u8 · unit · domain u8)
///   raw section: batch bytes u32-len + encode_batch(seq 0, records) —
///     `chunk` records (the ring's sealed chunks), then its unsealed
///     tail as one packed `samples` record (`MODAFS02`: one `sample`
///     record per observation); a reader takes chunks and samples in
///     any order
///   tier count u32 · per tier: res u64 · bucket count uv · per bucket:
///     start-delta uv (from previous bucket; first is absolute) ·
///     count uv · sum/min/max/last f64 ·
///     sketch entry count uv · entries (sign u8 · zigzag(key) uv · count uv)
/// ```
///
/// `uv` is LEB128; the tier section is the bulk of a snapshot and
/// recovery cost is byte-proportional (checksum + decode), so it uses
/// delta + varint packing while the small header stays fixed-width.
fn encode_snapshot(agg: &FleetAggregator, epoch: u64, out: &mut Vec<u8>) {
    encode_snapshot_with(agg, epoch, out, |store, id, out| {
        let batch = ExportBatch {
            seq: 0,
            records: raw_ring_records(store, id),
        };
        encode_batch(&batch, out);
    })
}

/// [`encode_snapshot`] with the raw-section writer as a parameter, so a
/// test can write the sections an older writer produced.
fn encode_snapshot_with(
    agg: &FleetAggregator,
    epoch: u64,
    out: &mut Vec<u8>,
    raw_section: impl Fn(&FleetStore, MetricId, &mut Vec<u8>),
) {
    let store = agg.store();
    put_u64(out, epoch);
    put_u64(out, store.raw_retention() as u64);
    let stats = store.stats();
    for v in [
        stats.rollup_hits,
        stats.sketch_hits,
        stats.raw_fallbacks,
        stats.raw_values_read,
        stats.samples,
        stats.rejected_samples,
        stats.corrupt_chunks,
    ] {
        put_u64(out, v);
    }
    let sessions = agg.sessions();
    put_u32(out, sessions.len() as u32);
    for s in sessions {
        put_str(out, &s.name);
        put_u64(out, s.next_seq);
        put_u32(out, s.wire_map.len() as u32);
        for entry in &s.wire_map {
            put_u32(out, entry.map_or(u32::MAX, |id| id.0));
        }
        s.counters.encode(out);
        put_u64(out, s.high_water.0);
        out.push(s.ever_ingested as u8);
        // Length-prefixed (format `MODAFS02`) so the drain block can
        // grow fields without another snapshot format bump.
        put_block(out, |out| encode_drain_stats(&s.drain, out));
    }
    put_u32(out, store.cardinality() as u32);
    for idx in 0..store.cardinality() {
        let id = MetricId(idx as u32);
        let info = store.info(id);
        put_u32(out, info.node.0);
        put_meta(out, &info.meta);
        // Raw ring, as a pseudo-batch of wire records.
        put_block(out, |out| raw_section(store, id, out));
        // Wire-fed tiers: buckets oldest-first, each with its sketch
        // column entries.
        let rings: Vec<_> = store
            .tiers()
            .set(id)
            .map(|set| set.rings().iter().collect())
            .unwrap_or_default();
        put_u32(out, rings.len() as u32);
        for ring in rings {
            put_u64(out, ring.res().0);
            let buckets: Vec<_> = ring.buckets().collect();
            put_uv(out, buckets.len() as u64);
            // Buckets are start-ordered, so consecutive starts delta
            // down to one or two varint bytes (usually the resolution).
            let mut prev_start = 0u64;
            for b in buckets {
                put_uv(out, b.start.0.wrapping_sub(prev_start));
                prev_start = b.start.0;
                put_uv(out, b.count);
                put_f64(out, b.sum);
                put_f64(out, b.min);
                put_f64(out, b.max);
                put_f64(out, b.last);
                let entries: Vec<_> = b
                    .sketch
                    .as_ref()
                    .map(|s| s.wire_entries().collect())
                    .unwrap_or_default();
                put_uv(out, entries.len() as u64);
                for e in entries {
                    out.push(e.sign as u8);
                    put_uv(out, zigzag(e.key as i64));
                    put_uv(out, e.count);
                }
            }
        }
    }
}

/// Rebuild an aggregator from snapshot bytes. Returns
/// `(aggregator, epoch, session count, metric count)`.
fn decode_snapshot(bytes: &[u8]) -> io::Result<(FleetAggregator, u64, usize, usize)> {
    let framed = match bytes.split_first_chunk::<8>() {
        Some((magic, framed)) if magic == SNAPSHOT_MAGIC || magic == SNAPSHOT_MAGIC_02 => framed,
        _ => return Err(bad_data("snapshot magic mismatch")),
    };
    // The whole file is in memory: lend the payload from it instead of
    // copying the snapshot once more on its way to the decoder.
    let payload = match parse_frame(framed) {
        FrameParse::Frame {
            tag: FRAME_SNAPSHOT,
            payload,
            ..
        } => payload,
        FrameParse::Frame { .. } => return Err(bad_data("unexpected snapshot frame tag")),
        // The snapshot is written atomically (tmp + rename), so a torn
        // or corrupt one is real damage, not an interrupted write.
        FrameParse::Incomplete { .. } | FrameParse::Corrupt => {
            return Err(bad_data("snapshot frame torn or corrupt"))
        }
    };
    let mut r = WireReader::new(payload);
    let epoch = r.u64()?;
    let raw_retention = r.u64()? as usize;
    let stats = FleetStoreStats {
        rollup_hits: r.u64()?,
        sketch_hits: r.u64()?,
        raw_fallbacks: r.u64()?,
        raw_values_read: r.u64()?,
        samples: r.u64()?,
        rejected_samples: r.u64()?,
        corrupt_chunks: r.u64()?,
    };
    // Sessions first: metric registration needs node names.
    let n_sessions = r.u32()? as usize;
    let mut sessions = Vec::with_capacity(n_sessions);
    for _ in 0..n_sessions {
        let name = r.str()?;
        let next_seq = r.u64()?;
        let n_map = r.u32()? as usize;
        let mut wire_map = Vec::with_capacity(n_map);
        for _ in 0..n_map {
            let v = r.u32()?;
            wire_map.push(if v == u32::MAX {
                None
            } else {
                Some(MetricId(v))
            });
        }
        let counters = NodeCounters::decode(&mut r)?;
        let high_water = SimTime(r.u64()?);
        let ever_ingested = r.u8()? != 0;
        let drain = decode_drain_stats(r.block()?)?;
        sessions.push(NodeSession {
            name,
            next_seq,
            wire_map,
            counters,
            high_water,
            ever_ingested,
            drain,
        });
    }
    let mut store = FleetStore::with_raw_retention(raw_retention);
    // One scratch column reused across every bucket: the per-bucket
    // entry lists are small and restoring is byte-proportional work, so
    // this loop avoids per-bucket allocation.
    let mut column: Vec<moda_telemetry::SketchEntry> = Vec::new();
    let n_metrics = r.u32()? as usize;
    for idx in 0..n_metrics {
        let node = NodeId(r.u32()?);
        let meta = r.meta()?;
        let node_name = sessions
            .get(node.index())
            .map(|s: &NodeSession| s.name.as_str())
            .ok_or_else(|| bad_data("metric names an unknown node"))?;
        let id = store.register(node, node_name, &meta);
        if id.0 as usize != idx {
            return Err(bad_data("metric registration order diverged"));
        }
        // Raw ring.
        for record in BatchView::parse(r.block()?)?.records() {
            match record {
                RecordRef::Chunk {
                    first_t,
                    last_t,
                    count,
                    bytes,
                    ..
                } => {
                    store.restore_chunk(id, first_t, last_t, count, bytes);
                }
                RecordRef::Sample { t, value, .. } => {
                    store.push_sample(id, t, value);
                }
                RecordRef::Samples(run) => {
                    for (_, t, value) in run {
                        store.push_sample(id, t, value);
                    }
                }
                _ => return Err(bad_data("unexpected record kind in raw section")),
            }
        }
        // Tiers: each bucket carries its scalars and its whole sketch
        // column, restored together against a single slot lookup
        // (`restore_bucket`) — snapshot restore is the hot path a fast
        // restart rides on, and the layout stores columns contiguously
        // exactly so this is possible. Starts are delta-coded from the
        // previous bucket; the wire-fed slot path keeps the ring
        // ordered, so deltas decode back with a running add.
        let n_rings = r.u32()? as usize;
        for _ in 0..n_rings {
            let res = SimDuration(r.u64()?);
            let n_buckets = r.uv()? as usize;
            let mut prev_start = 0u64;
            for _ in 0..n_buckets {
                prev_start = prev_start.wrapping_add(r.uv()?);
                let start = SimTime(prev_start);
                let count = r.uv()?;
                let sum = r.f64()?;
                let min = r.f64()?;
                let max = r.f64()?;
                let last = r.f64()?;
                let n_entries = r.uv()? as usize;
                column.clear();
                column.reserve(n_entries);
                for _ in 0..n_entries {
                    column.push(moda_telemetry::SketchEntry {
                        sign: r.u8()? as i8,
                        key: unzigzag(r.uv()?) as i32,
                        count: r.uv()?,
                    });
                }
                if count > 0 || !column.is_empty() {
                    store.restore_bucket(id, res, start, count, sum, min, max, last, &column);
                }
            }
        }
    }
    if !r.done() {
        return Err(bad_data("trailing bytes in snapshot"));
    }
    // Counters last: the content restore above bumped them.
    store.restore_stats(&stats);
    let mut agg = FleetAggregator::with_store(store);
    *agg.sessions_mut() = sessions;
    Ok((agg, epoch, n_sessions, n_metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moda_telemetry::export::MemorySink;
    use moda_telemetry::{
        Exporter, MetricMeta, RollupConfig, RollupTier, SourceDomain, Tsdb, WindowAgg,
    };

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moda_fleet_persist_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// One node's wire stream off a real sketched store.
    fn node_batches(n: usize, offset: f64, batch_records: usize) -> Vec<ExportBatch> {
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
    fn fingerprint(agg: &FleetAggregator, nodes: usize, now: SimTime) -> Vec<String> {
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

    /// A one-node aggregator whose 1000-sample raw ring has evicted
    /// into its front chunk and holds an unsealed tail.
    fn evicted_ring_fleet() -> FleetAggregator {
        let mut agg = FleetAggregator::with_store(FleetStore::with_raw_retention(1000));
        let node = agg.add_node("node00");
        for batch in node_batches(3000, 0.0, 256) {
            agg.ingest(node, &batch);
        }
        let raw = agg.store().raw(MetricId(0));
        let front = raw.sealed_chunks().next().expect("sealed chunks");
        assert!(front.skip() > 0, "front chunk is partially evicted");
        assert!(raw.compressed_len() < raw.len(), "and a tail is unsealed");
        agg
    }

    /// A snapshot file of `agg` whose raw rings `raw_records` renders,
    /// as this build writes it (`MODAFS03`, sample runs packed) or as
    /// its predecessor did (`MODAFS02`, one wire record per record).
    fn snapshot_file(
        agg: &FleetAggregator,
        magic: &[u8; 8],
        raw_records: impl Fn(&FleetStore, MetricId) -> Vec<ExportRecord>,
    ) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_snapshot_with(agg, 3, &mut payload, |store, id, out| {
            let records = raw_records(store, id);
            if magic == SNAPSHOT_MAGIC {
                encode_batch(&ExportBatch { seq: 0, records }, out);
            } else {
                put_u64(out, 0);
                put_u32(out, records.len() as u32);
                for record in &records {
                    moda_telemetry::wire::encode_record(record, out);
                }
            }
        });
        let mut file = magic.to_vec();
        write_frame(&mut file, FRAME_SNAPSHOT, &payload).unwrap();
        file
    }

    fn snapshot_bytes(agg: &FleetAggregator) -> Vec<u8> {
        snapshot_file(agg, SNAPSHOT_MAGIC, raw_ring_records)
    }

    #[test]
    fn raw_section_is_whole_chunks_plus_tail_and_a_fixed_point() {
        let agg = evicted_ring_fleet();
        let raw = agg.store().raw(MetricId(0));
        let records = raw_ring_records(agg.store(), MetricId(0));
        // Chunk records first — the front one re-encoded to its retained
        // suffix — then exactly the unsealed tail as samples.
        let chunks: Vec<u32> = records
            .iter()
            .map_while(|r| match r {
                ExportRecord::Chunk { count, .. } => Some(*count),
                _ => None,
            })
            .collect();
        let retained: Vec<u32> = raw
            .sealed_chunks()
            .map(|c| c.retained_len() as u32)
            .collect();
        assert_eq!(chunks, retained);
        let tail = &records[chunks.len()..];
        assert_eq!(tail.len(), raw.len() - raw.compressed_len());
        assert!(tail
            .iter()
            .all(|r| matches!(r, ExportRecord::Sample { .. })));
        // snapshot → recover → snapshot reproduces the file byte for
        // byte, and the recovered ring has the same chunk boundaries.
        let first = snapshot_bytes(&agg);
        let (recovered, ..) = decode_snapshot(&first).unwrap();
        assert_eq!(snapshot_bytes(&recovered), first);
        let relinked: Vec<u32> = recovered
            .store()
            .raw(MetricId(0))
            .sealed_chunks()
            .map(|c| c.count())
            .collect();
        assert_eq!(relinked, retained);
        let now = SimTime::from_secs(3001);
        assert_eq!(fingerprint(&recovered, 1, now), fingerprint(&agg, 1, now));
    }

    #[test]
    fn an_02_snapshot_loads_and_is_written_back_as_03() {
        let agg = evicted_ring_fleet();
        let old = snapshot_file(&agg, SNAPSHOT_MAGIC_02, raw_ring_records);
        let (recovered, epoch, ..) = decode_snapshot(&old).unwrap();
        assert_eq!(epoch, 3);
        let now = SimTime::from_secs(3001);
        assert_eq!(fingerprint(&recovered, 1, now), fingerprint(&agg, 1, now));
        // Written back out it is the `03` file of the same fleet — a
        // fixed point from there on — and the packed tail made it smaller.
        let new = snapshot_bytes(&recovered);
        assert_eq!(&new[..8], SNAPSHOT_MAGIC);
        assert_eq!(new, snapshot_bytes(&agg));
        assert!(new.len() < old.len(), "{} vs {}", new.len(), old.len());
        // No other magic is a snapshot.
        let mut future = new.clone();
        future[7] = b'4';
        assert!(decode_snapshot(&future).is_err());
    }

    #[test]
    fn snapshots_with_sample_records_ahead_of_chunks_still_load() {
        // An earlier `02` writer rendered a partially evicted front
        // chunk as per-sample records ahead of the whole chunks.
        let per_sample_front = |store: &FleetStore, id: MetricId| {
            let raw = store.raw(id);
            let sample = |t, value| ExportRecord::Sample {
                id,
                t: SimTime(t),
                value,
            };
            let mut records = Vec::new();
            for c in raw.sealed_chunks() {
                if c.skip() > 0 {
                    records.extend(c.decode().map(|(t, v)| sample(t, v)));
                } else {
                    records.push(ExportRecord::chunk(id, c));
                }
            }
            let tail = raw.len() - raw.compressed_len();
            records.extend(raw.last_n_view(tail).iter().map(|s| sample(s.t.0, s.value)));
            records
        };
        let agg = evicted_ring_fleet();
        let old = snapshot_file(&agg, SNAPSHOT_MAGIC_02, per_sample_front);
        let (recovered, ..) = decode_snapshot(&old).unwrap();
        let now = SimTime::from_secs(3001);
        assert_eq!(fingerprint(&recovered, 1, now), fingerprint(&agg, 1, now));
        // Written back out, it is the current rendering of the same ring.
        assert_eq!(snapshot_bytes(&recovered), snapshot_bytes(&agg));
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
            assert!(report.duplicate);
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
        let mut log = open_log(&dir, 0).unwrap();
        write_frame(&mut log, FRAME_LOG_BATCH, &entry).unwrap();
        drop(log);

        let mut recovered = DurableFleet::recover(&dir).unwrap();
        let rec = *recovered.recovery();
        assert_eq!((rec.replayed_batches, rec.unknown_records), (1, 1));
        assert_eq!(rec.corrupt_frames, 0);
        // Replay ran before a registry could be attached; attaching one
        // surfaces what it skipped.
        let obs = Obs::enabled();
        recovered.set_obs(obs.clone());
        assert_eq!(obs.counter_value("fleet.ingest.unknown_records"), Some(1));
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
        fs::remove_file(dir.join(SNAPSHOT_FILE)).unwrap();
        assert!(fs::metadata(dir.join(wal_name(0))).unwrap().len() > 0);
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
    }
}
