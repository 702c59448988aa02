//! The log: what an entry looks like, how a log's bytes are replayed,
//! and the writer with its one commit point.
//!
//! Every mutation since the last snapshot is one [`Entry`], each in one
//! CRC-framed record (`moda_telemetry::wire::write_frame`), in arrival
//! order. [`replay`] is a function of the log's bytes — it opens
//! nothing and truncates nothing; [`Wal`] appends to the writer
//! [`super::dir`] lends it, and [`Wal::commit`] is the only place in
//! the crate where the log is flushed.
//!
//! While a snapshot is in flight the writer is **two** files: from
//! [`Wal::tee`] to [`Wal::promote`] every entry goes to the log the
//! surviving snapshot names *and* to the one the snapshot being written
//! will name, and a commit flushes both — an entry is acknowledged only
//! if both took it. The first failed write or flush on either
//! **poisons** the writer: a frame may sit half-written in a buffer, so
//! nothing more is appended behind it and nothing more is acknowledged
//! until the directory is reopened and recovery has cut the torn tail.

use super::dir::LogWriter;
use super::RecoveryStats;
use crate::aggregator::FleetAggregator;
use crate::store::NodeId;
use moda_obs::{Counter, LatencyRecorder, Obs};
use moda_telemetry::wire::{
    bad_data, decode_drain_stats, encode_drain_stats, parse_frame, put_str, put_u32, put_uv,
    write_frame_parts, BatchHeader, BatchView, FrameParse, WireReader,
};
use moda_telemetry::DrainStats;
use std::io::{self, Write};

const FRAME_LOG_NODE: u8 = 32;
pub(crate) const FRAME_LOG_BATCH: u8 = 33;
const FRAME_LOG_DRAIN: u8 = 34;
pub(crate) const FRAME_LOG_BATCH_1_6: u8 = 35;
pub(crate) const FRAME_LOG_BATCH_VOUCHED: u8 = 36;

/// One log entry, borrowing what it can from whoever holds its bytes.
#[derive(Debug)]
pub(crate) enum Entry<'a> {
    /// A node session was opened — a connection began: `[name]`. The
    /// first such entry of a name registers the node; every one resets
    /// its stream's value state.
    Node(&'a str),
    /// One ingested wire batch — a received batch verbatim, in whichever
    /// `export-wire` revision its sender wrote: `[node u32][batch bytes]`
    /// for a batch with the fixed header, `[node uv][batch bytes]` under
    /// its own tag for one with 1.6's varint header.
    Batch(NodeId, BatchHeader, &'a [u8]),
    /// A batch with 1.6's varint header whose `chunk` records the fleet
    /// walked before it logged it, finding every one it could link
    /// whole: `[node uv][batch bytes]` under a tag of its own. Replay
    /// links those on their headers and walks only the ones the rings
    /// still hold at the end ([`FleetAggregator::settle`]); a
    /// [`Entry::Batch`]'s are walked as they are replayed.
    Vouched(NodeId, &'a [u8]),
    /// An out-of-band exporter drain report: `[node u32][drain stats]`,
    /// its counts only ([`DrainStats::counts`]).
    Drain(NodeId, DrainStats),
}

impl<'a> Entry<'a> {
    /// The frame tag and payload this entry is logged as — the payload
    /// in two pieces, the part built here (in `scratch`) and the part
    /// the entry already holds, so a batch's bytes are not joined first.
    fn encode<'b>(&self, scratch: &'b mut Vec<u8>) -> (u8, [&'b [u8]; 2])
    where
        'a: 'b,
    {
        scratch.clear();
        let (tag, held): (u8, &[u8]) = match *self {
            Entry::Node(name) => {
                put_str(scratch, name);
                (FRAME_LOG_NODE, &[])
            }
            Entry::Batch(node, BatchHeader::Fixed, batch) => {
                put_u32(scratch, node.0);
                (FRAME_LOG_BATCH, batch)
            }
            Entry::Batch(node, BatchHeader::Varint, batch) => {
                put_uv(scratch, u64::from(node.0));
                (FRAME_LOG_BATCH_1_6, batch)
            }
            Entry::Vouched(node, batch) => {
                put_uv(scratch, u64::from(node.0));
                (FRAME_LOG_BATCH_VOUCHED, batch)
            }
            Entry::Drain(node, ref stats) => {
                put_u32(scratch, node.0);
                // What the fleet keeps of the report, no wall clock.
                encode_drain_stats(&stats.counts(), scratch);
                (FRAME_LOG_DRAIN, &[])
            }
        };
        (tag, [scratch, held])
    }

    /// The entry a frame of the log holds.
    fn decode(tag: u8, payload: &'a [u8]) -> io::Result<Self> {
        let mut r = WireReader::new(payload);
        match tag {
            FRAME_LOG_NODE => {
                let name = r.str_ref()?;
                if !r.done() {
                    return Err(bad_data("trailing bytes in node entry"));
                }
                Ok(Entry::Node(name))
            }
            FRAME_LOG_BATCH => Ok(Entry::Batch(NodeId(r.u32()?), BatchHeader::Fixed, r.rest())),
            FRAME_LOG_BATCH_1_6 | FRAME_LOG_BATCH_VOUCHED => {
                let node = u32::try_from(r.uv()?).map_err(|_| bad_data("node id past u32"))?;
                let (node, batch) = (NodeId(node), r.rest());
                Ok(match tag {
                    FRAME_LOG_BATCH_1_6 => Entry::Batch(node, BatchHeader::Varint, batch),
                    _ => Entry::Vouched(node, batch),
                })
            }
            FRAME_LOG_DRAIN => Ok(Entry::Drain(
                NodeId(r.u32()?),
                decode_drain_stats(r.rest())?,
            )),
            _ => Err(bad_data("unknown log entry tag")),
        }
    }

    /// Apply a replayed entry. One that cannot be — it names a node the
    /// log has not registered, or its batch does not validate — is an
    /// error and leaves `agg` and `stats` as they were.
    fn apply(self, agg: &mut FleetAggregator, stats: &mut RecoveryStats) -> io::Result<()> {
        match self {
            Entry::Batch(node, ..) | Entry::Vouched(node, _) | Entry::Drain(node, _)
                if node.index() >= agg.node_count() =>
            {
                return Err(bad_data("log entry names an unknown node"));
            }
            Entry::Node(name) => {
                open_stream(agg, name);
                stats.replayed_nodes += 1;
            }
            Entry::Batch(node, header, batch) => {
                // Validated, checked against the stream's values and
                // applied where the log sits in memory. What the view
                // skips the aggregator counts.
                let view = BatchView::parse(batch, header)?;
                let report = agg.ingest_view(node, &view)?;
                stats.replayed_batches += 1;
                stats.replayed_duplicates += u64::from(!report.applied);
            }
            Entry::Vouched(node, batch) => {
                let view = BatchView::parse(batch, BatchHeader::Varint)?;
                let report = agg.ingest_vouched(node, &view)?;
                stats.replayed_batches += 1;
                stats.replayed_duplicates += u64::from(!report.applied);
            }
            Entry::Drain(node, drain) => {
                agg.report_drain(node, &drain);
                stats.replayed_drains += 1;
            }
        }
        Ok(())
    }
}

/// What a `Node` entry means, live and at replay: the node named
/// `name`, registered if it is new, its stream's value state reset.
pub(crate) fn open_stream(agg: &mut FleetAggregator, name: &str) -> NodeId {
    match agg.find_node(name) {
        Some(node) => {
            agg.restart_stream(node);
            node
        }
        None => agg.add_node(name),
    }
}

/// Replay the log held in `bytes` into `agg`, counting what was applied
/// in `stats`. Returns the length of the intact prefix — always a frame
/// boundary; whatever follows it is a torn tail or starts with a
/// corrupt frame, and cutting it off the file is the caller's — and the
/// number of whole frames found corrupt (0 or 1: nothing after the
/// first is looked at). Once the frames end, the chunks tag-36 entries
/// linked unwalked that the rings still hold are walked
/// ([`FleetAggregator::settle`]); one that does not walk is damage the
/// CRC could not see, in a chunk the recovered fleet would serve:
/// `InvalidData`, and `agg` is not to be used.
pub(crate) fn replay(
    bytes: &[u8],
    agg: &mut FleetAggregator,
    stats: &mut RecoveryStats,
) -> io::Result<(usize, u64)> {
    let replayed = replay_frames(bytes, agg, stats);
    agg.settle()?;
    Ok(replayed)
}

/// [`replay`]'s walk over the frames.
fn replay_frames(
    bytes: &[u8],
    agg: &mut FleetAggregator,
    stats: &mut RecoveryStats,
) -> (usize, u64) {
    let mut good = 0;
    loop {
        // Frames are parsed where the log sits in memory; each payload
        // is lent to the decoder, not copied out first.
        match parse_frame(&bytes[good..]) {
            FrameParse::Frame {
                tag,
                payload,
                consumed,
            } => {
                let applied = Entry::decode(tag, payload).and_then(|e| e.apply(agg, stats));
                if applied.is_err() {
                    // CRC-valid but undecodable: corruption that
                    // happens to checksum; stop at the last good
                    // boundary like any other corrupt frame.
                    return (good, 1);
                }
                good += consumed;
            }
            // Clean end of log, or a torn tail.
            FrameParse::Incomplete { .. } => return (good, 0),
            FrameParse::Corrupt => return (good, 1),
        }
    }
}

/// The log writer: entries are appended into the buffered file
/// [`super::dir`] opened, and [`Wal::commit`] pushes them to the OS.
#[derive(Debug)]
pub(crate) struct Wal {
    out: LogWriter,
    /// The next epoch's log, while the snapshot that will name it is in
    /// flight: it gets every entry `out` gets.
    tee: Option<LogWriter>,
    /// Something was appended since the last successful commit.
    dirty: bool,
    /// The kind of the first failed write or flush; see [`Wal::check`].
    poisoned: Option<io::ErrorKind>,
    /// Scratch for the part of an entry's payload built here — cleared,
    /// never freed.
    scratch: Vec<u8>,
    /// `wal.appends` — log frames appended.
    appends: Counter,
    /// `wal.bytes` — payload bytes appended to the log.
    bytes: Counter,
    /// `wal.fsync_ns` — wall time of one commit's OS flush (the
    /// durability cost every acknowledged mutation pays).
    fsync_ns: LatencyRecorder,
}

impl Wal {
    pub(crate) fn new(out: LogWriter) -> Wal {
        Wal {
            out,
            tee: None,
            dirty: false,
            poisoned: None,
            scratch: Vec::new(),
            appends: Counter::default(),
            bytes: Counter::default(),
            fsync_ns: LatencyRecorder::default(),
        }
    }

    /// Resolve the `wal.*` instruments; all inert on a disabled handle.
    pub(crate) fn set_obs(&mut self, obs: &Obs) {
        self.appends = obs.counter("wal.appends");
        self.bytes = obs.counter("wal.bytes");
        self.fsync_ns = obs.latency("wal.fsync_ns");
    }

    /// From here every entry goes to `next`, the next epoch's log, as
    /// well. Commit first: `next` holds exactly what follows the image
    /// that will name it.
    pub(crate) fn tee(&mut self, next: LogWriter) {
        debug_assert!(!self.dirty, "the cut follows a commit");
        self.tee = Some(next);
    }

    /// The tee'd log becomes the log (its snapshot is in place); the
    /// old one is closed. Nothing to do when nothing is tee'd.
    pub(crate) fn promote(&mut self) {
        if let Some(next) = self.tee.take() {
            self.out = next;
        }
    }

    /// Stop teeing: the snapshot that would have named the next log was
    /// not written, and the log goes on alone.
    pub(crate) fn drop_tee(&mut self) {
        self.tee = None;
    }

    /// A write or a flush that failed may have left part of a frame in
    /// a buffer or on disk. Whatever is appended behind it is lost to
    /// the next recovery, which stops at the torn frame — so nothing is:
    /// after the first failure every call fails with that error's kind.
    fn check(&self) -> io::Result<()> {
        match self.poisoned {
            Some(kind) => Err(io::Error::new(
                kind,
                "the log is poisoned by an earlier failed append or flush; reopen the directory",
            )),
            None => Ok(()),
        }
    }

    fn poison_on_err(&mut self, res: io::Result<()>) -> io::Result<()> {
        if let Err(e) = &res {
            self.poisoned = Some(e.kind());
        }
        res
    }

    /// Append one entry. Not durable, and not to be made visible to a
    /// reader or acknowledged, until [`Wal::commit`] returns.
    pub(crate) fn append(&mut self, entry: Entry<'_>) -> io::Result<()> {
        self.check()?;
        let (tag, payload) = entry.encode(&mut self.scratch);
        self.dirty = true;
        let mut res = write_frame_parts(&mut self.out, tag, &payload);
        if let (Ok(()), Some(next)) = (&res, &mut self.tee) {
            res = write_frame_parts(next, tag, &payload);
        }
        let len = payload.iter().map(|part| part.len() as u64).sum();
        self.poison_on_err(res)?;
        self.appends.add(1);
        self.bytes.add(len);
        Ok(())
    }

    /// **The** commit point: flush everything appended since the last
    /// one to the OS — to both logs while one is tee'd. `kill -9`
    /// cannot lose it once this returns `Ok` (a machine crash can: this
    /// is `write(2)`, not an fsync). With nothing appended it does, and
    /// records, nothing.
    pub(crate) fn commit(&mut self) -> io::Result<()> {
        self.check()?;
        if !self.dirty {
            return Ok(());
        }
        let _span = self.fsync_ns.start();
        let res = self.out.flush().and_then(|()| match &mut self.tee {
            Some(next) => next.flush(),
            None => Ok(()),
        });
        self.poison_on_err(res)?;
        self.dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::snapshot;
    #[cfg(target_os = "linux")]
    use super::super::tests::full_disk_log;
    use super::super::tests::node_batches;
    use super::*;
    use moda_telemetry::export::{ExportBatch, ExportRecord};
    use moda_telemetry::wire::{
        encode_batch, encode_batch_as, encode_batch_with, encode_record, Coding, ValueState,
    };
    use proptest::prelude::*;

    /// One entry of a model log, owning what an [`Entry`] borrows.
    enum Logged {
        Node(&'static str),
        /// A batch, the bytes its sender rendered it as — sample runs
        /// coded as deltas against the stream (`export-wire-v1.6`, or
        /// v1.5 under the fixed header), packed (v1.2), or one record
        /// each (v1.1) — with their header, and whether that was as
        /// deltas.
        Batch(NodeId, ExportBatch, (Vec<u8>, BatchHeader), bool),
        Drain(NodeId, DrainStats),
    }

    impl Logged {
        /// Append this entry's frame to `log`, as [`Wal::append`] would.
        fn render(&self, log: &mut Vec<u8>) {
            let entry = match self {
                Logged::Node(name) => Entry::Node(name),
                Logged::Batch(node, _, (rendered, header), _) => {
                    Entry::Batch(*node, *header, rendered)
                }
                Logged::Drain(node, stats) => Entry::Drain(*node, *stats),
            };
            let mut scratch = Vec::new();
            let (tag, payload) = entry.encode(&mut scratch);
            write_frame_parts(log, tag, &payload).unwrap();
        }

        /// Apply this entry to `agg` directly — no frame, no bytes; a
        /// delta batch's values go to its stream's state by hand.
        fn apply(&self, agg: &mut FleetAggregator, stats: &mut RecoveryStats) {
            match self {
                Logged::Node(name) => {
                    open_stream(agg, name);
                    stats.replayed_nodes += 1;
                }
                Logged::Batch(node, batch, _, delta) => {
                    let report = agg.ingest(*node, batch);
                    for record in batch.records.iter().filter(|_| *delta) {
                        if let ExportRecord::Sample { id, value, .. } = *record {
                            agg.stream_values_mut(*node).set(id, value.to_bits());
                        }
                    }
                    stats.replayed_batches += 1;
                    stats.replayed_duplicates += u64::from(!report.applied);
                }
                Logged::Drain(node, drain) => {
                    agg.report_drain(*node, drain);
                    stats.replayed_drains += 1;
                }
            }
        }
    }

    /// `batch` as its sender, whose stream stands at `sender`, renders
    /// it, and the header that has: `how` 0 codes runs as deltas (the
    /// state takes their values) under 1.6's varint header, 3 as a 1.5
    /// sender does under the fixed one, 1 packs them, 2 writes one
    /// record each.
    fn rendered(batch: &ExportBatch, sender: &mut ValueState, how: u64) -> (Vec<u8>, BatchHeader) {
        let mut out = Vec::new();
        match how {
            0 => {
                encode_batch_with(batch, sender, &mut out);
                return (out, BatchHeader::Varint);
            }
            1 => encode_batch(batch, &mut out),
            3 => encode_batch_as(batch, Coding::Buckets, sender, &mut out),
            _ => {
                out.extend_from_slice(&batch.seq.to_le_bytes());
                out.extend_from_slice(&(batch.records.len() as u32).to_le_bytes());
                for record in &batch.records {
                    encode_record(record, &mut out);
                }
            }
        }
        (out, BatchHeader::Fixed)
    }

    /// Two nodes' streams interleaved at random, each node registered
    /// ahead of its first entry; now and then a drain report, a new
    /// connection (a repeated `Node` entry: the stream state resets), or
    /// a batch delivered twice (each copy in a rendering of its own).
    fn model_log(rng: &mut TestRng, samples: usize, batch_records: usize) -> Vec<Logged> {
        let names = ["node00", "node01"];
        let mut pending = [
            node_batches(samples, 0.0, batch_records).into_iter(),
            node_batches(samples / 2 + 1, 1000.0, batch_records).into_iter(),
        ];
        let mut ids = [None; 2];
        let mut senders = [ValueState::new(), ValueState::new()];
        let mut log = Vec::new();
        while pending.iter().any(|stream| stream.len() > 0) {
            let k = rng.below(2) as usize;
            let node = match ids[k] {
                Some(node) => node,
                None => {
                    log.push(Logged::Node(names[k]));
                    *ids[k].insert(NodeId(ids.iter().flatten().count() as u32))
                }
            };
            match rng.below(8) {
                0 => {
                    let report = DrainStats {
                        batches: log.len() as u64,
                        ..DrainStats::default()
                    };
                    log.push(Logged::Drain(node, report));
                }
                1 => {
                    log.push(Logged::Node(names[k]));
                    senders[k].reset();
                }
                _ => {
                    if let Some(batch) = pending[k].next() {
                        for _ in 0..1 + u64::from(rng.below(6) == 0) {
                            let how = rng.below(4);
                            let bytes = rendered(&batch, &mut senders[k], how);
                            let delta = how == 0 || how == 3;
                            log.push(Logged::Batch(node, batch.clone(), bytes, delta));
                        }
                    }
                }
            }
        }
        log
    }

    /// Everything an aggregator holds, as the bytes its snapshot is.
    fn image(agg: &FleetAggregator) -> Vec<u8> {
        let mut out = Vec::new();
        snapshot::encode(agg, 0, &mut out);
        out
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_flush_poisons_the_log() {
        const ENOSPC: i32 = 28;
        let mut wal = Wal::new(full_disk_log());
        // The entry fits the write buffer: appending it touches no disk.
        wal.append(Entry::Node("node00")).unwrap();
        let full = wal.commit().unwrap_err();
        assert_eq!(full.raw_os_error(), Some(ENOSPC));
        // Part of that frame may be anywhere now. Nothing goes behind
        // it, and nothing is reported flushed, whatever the disk says.
        for _ in 0..2 {
            let refused = wal.append(Entry::Node("node01")).unwrap_err();
            assert_eq!(refused.kind(), full.kind());
            assert_eq!(wal.commit().unwrap_err().kind(), full.kind());
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_tee_that_fails_poisons_both_logs() {
        let path = std::env::temp_dir().join(format!("moda_wal_tee_{}.log", std::process::id()));
        let live = std::fs::File::create(&path).unwrap();
        let mut wal = Wal::new(super::super::dir::log_writer(live));
        wal.append(Entry::Node("node00")).unwrap();
        wal.commit().unwrap();
        wal.tee(full_disk_log());
        // The live log takes the entry; the next epoch's cannot, so it
        // is not acknowledged — and neither is anything after it.
        wal.append(Entry::Node("node01")).unwrap();
        assert!(wal.commit().is_err());
        assert!(wal.append(Entry::Node("node02")).is_err());
        assert!(wal.commit().is_err());
        drop(wal);
        // What recovery finds in the live log: the acknowledged entry,
        // the one whose tee'd copy failed, and nothing behind it.
        let disk = std::fs::read(&path).unwrap();
        let mut stats = RecoveryStats::default();
        let replayed = replay(&disk, &mut FleetAggregator::new(), &mut stats).unwrap();
        assert_eq!(replayed, (disk.len(), 0));
        assert_eq!(stats.replayed_nodes, 2);
        let _ = std::fs::remove_file(&path);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Replay is a function of the bytes it is given: a log cut at
        /// **every** position, or with one byte flipped, replays to the
        /// frame boundary before the damage — the entries applied are
        /// the whole frames ahead of it, the state is the one those
        /// entries build when applied directly, and the prefix it
        /// reports replays again to itself, clean. The log mixes batch
        /// entries with the fixed header (tag 33) and 1.6's (tag 35).
        #[test]
        fn a_log_cut_or_damaged_anywhere_replays_to_the_whole_frames_before_it(
            seed in any::<u64>(),
            samples in 8usize..40,
            batch_records in 3usize..12,
        ) {
            let mut rng = TestRng::new(seed);
            let model = model_log(&mut rng, samples, batch_records);
            // The log's bytes and where each frame ends; beside them,
            // what the first `n` entries come to with no log between.
            let mut bytes = Vec::new();
            let mut ends = vec![0];
            let mut direct = FleetAggregator::new();
            let mut counts = RecoveryStats::default();
            let mut after = vec![(image(&direct), counts)];
            for entry in &model {
                entry.render(&mut bytes);
                ends.push(bytes.len());
                entry.apply(&mut direct, &mut counts);
                after.push((image(&direct), counts));
            }
            prop_assert!(counts.replayed_batches >= 2 && counts.replayed_nodes >= 2);
            // Replay `log`, whose first damaged byte (or end) is `at`;
            // hands back the corrupt-frame count.
            let replayed = |log: &[u8], at: usize| {
                let whole = ends.partition_point(|&end| end <= at) - 1;
                let mut agg = FleetAggregator::new();
                let mut stats = RecoveryStats::default();
                let (prefix, corrupt) = replay(log, &mut agg, &mut stats).unwrap();
                prop_assert_eq!(prefix, ends[whole], "cut or damage at {}", at);
                prop_assert_eq!(stats, after[whole].1, "cut or damage at {}", at);
                prop_assert!(image(&agg) == after[whole].0, "state after {} frames", whole);
                let again = replay(
                    &log[..prefix],
                    &mut FleetAggregator::new(),
                    &mut RecoveryStats::default(),
                )
                .unwrap();
                prop_assert_eq!(again, (prefix, 0));
                Ok(corrupt)
            };
            for cut in 0..=bytes.len() {
                prop_assert_eq!(replayed(&bytes[..cut], cut)?, 0, "a cut is torn, not corrupt");
            }
            let at = rng.below(bytes.len() as u64) as usize;
            let mut damaged = bytes.clone();
            damaged[at] ^= 1 + rng.below(255) as u8;
            let corrupt = replayed(&damaged, at)?;
            // A damaged length prefix may also read as a frame that
            // runs past the end of the log: torn, then, not corrupt.
            let in_length_prefix = ends.iter().any(|&end| (end..end + 4).contains(&at));
            prop_assert!(corrupt == 1 || in_length_prefix, "flip at {}: {}", at, corrupt);
        }
    }
}
