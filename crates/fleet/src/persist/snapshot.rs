//! The snapshot layout: a whole [`FleetAggregator`] as one byte image
//! and back — magic, frame and sections — and nothing else. It names no
//! file: [`super::dir`] writes the image [`encode`] fills and reads the
//! one [`decode`] takes.
//!
//! Every byte — the frame envelope, the record codec, the LE/varint
//! helpers and the bounds-checked reader — comes from
//! [`moda_telemetry::wire`]; this module owns only the layout built
//! from them ([`encode`] lays the envelope out in place rather than
//! through `write_frame`; a test holds the two to the same bytes).

use crate::aggregator::{FleetAggregator, NodeCounters, NodeSession};
use crate::store::{ChunkOutcome, FleetStore, FleetStoreStats, NodeId};
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::wire::{
    bad_data, crc32, decode_drain_stats, encode_drain_stats, parse_frame, put_block, put_f64,
    put_meta, put_str, put_u32, put_u64, put_uv, unzigzag, zigzag, BatchView, BatchWriter,
    FrameParse, RecordRef, WireReader,
};
use moda_telemetry::MetricId;
use std::io;

/// Leading magic of a snapshot image (version-suffixed). `03`: the raw
/// sections' unsealed tails are packed `samples` records, which an
/// `02` reader would length-skip — losing the tails without a word —
/// so it must not recognise the file at all.
const SNAPSHOT_MAGIC: &[u8; 8] = b"MODAFS03";
/// The previous magic: the same layout with one `sample` record per
/// tail observation. The batch decoder reads both renderings, so such
/// a file loads as it is and is written back as `03`.
const SNAPSHOT_MAGIC_02: &[u8; 8] = b"MODAFS02";
/// The single frame that follows the magic.
const FRAME_SNAPSHOT: u8 = 40;

/// Write one raw ring as a batch (seq 0), straight from the ring: each
/// sealed chunk as a `chunk` record — its payload as it lies, or a
/// partially evicted front chunk's retained suffix
/// ([`Chunk::write_retained`](moda_telemetry::chunk::Chunk::write_retained)) —
/// then the uncompressed tail, when there is one, as one `samples`
/// record off its slices. Restoring relinks exactly these chunks, so
/// the section a recovered ring writes is byte-identical.
fn write_raw_section(store: &FleetStore, id: MetricId, out: &mut Vec<u8>) {
    let raw = store.raw(id);
    let mut batch = BatchWriter::new(out, 0);
    for c in raw.sealed_chunks() {
        let count = c.retained_len() as u32;
        batch.chunk(id, count, SimTime(c.last_t()), |out| c.write_retained(out));
    }
    let tail = (raw.len() - raw.compressed_len()) as u64;
    let (ts, vals) = raw.tail_from(raw.total_appends() - tail);
    if !ts.is_empty() {
        batch.samples(
            ts.iter()
                .zip(vals)
                .map(|(&t, &value)| (id, SimTime(t), value)),
        );
    }
}

/// Fill `out` with the snapshot image of `agg`, naming log `epoch`:
/// the magic, then one CRC frame whose payload is (all LE; strings
/// `u16`-len prefixed) — see `docs/FLEET_SERVICE.md` for the normative
/// spec:
///
/// ```text
/// epoch u64 · raw_retention u64 · store counters 7×u64
/// session count u32 · per session:
///   name · next_seq u64 · wire_map u32-len + u32 entries (MAX=None)
///   counters 13×u64 · high_water u64 · ever_ingested u8 · drain 11×u64
/// metric count u32 · per metric:
///   node u32 · meta(name · kind u8 · unit · domain u8)
///   raw section: batch bytes u32-len + one batch (seq 0) — `chunk`
///     records (the ring's sealed chunks), then its unsealed tail as
///     one packed `samples` record (`MODAFS02`: one `sample` record per
///     observation); a reader takes chunks and samples in any order
///   tier count u32 · per tier: res u64 · bucket count uv · per bucket:
///     start-delta uv (from previous bucket; first is absolute) ·
///     count uv · sum/min/max/last f64 ·
///     sketch entry count uv · entries (sign u8 · zigzag(key) uv · count uv)
/// ```
///
/// `uv` is LEB128; the tier section is the bulk of a snapshot and
/// recovery cost is byte-proportional (checksum + decode), so it uses
/// delta + varint packing while the small header stays fixed-width.
pub(crate) fn encode(agg: &FleetAggregator, epoch: u64, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    // The frame is laid out where the image lies, not framed from a
    // second copy of the payload (which cost 20 MB of peak RSS, +40 %,
    // on a chunk-heavy fleet): `write_frame`'s envelope is a `u32`
    // block of tag + payload followed by the CRC of that block's body.
    // A test holds this to what `write_frame` writes.
    let frame = out.len();
    put_block(out, |out| {
        out.push(FRAME_SNAPSHOT);
        encode_payload(agg, epoch, out, write_raw_section);
    });
    let crc = crc32(&out[frame + 4..]);
    put_u32(out, crc);
}

/// The frame payload of [`encode`], with the raw-section writer as a
/// parameter so a test can write the sections an older writer produced.
fn encode_payload(
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
        let rings = store.tiers().set(id).map_or(&[][..], |set| set.rings());
        put_u32(out, rings.len() as u32);
        for ring in rings {
            put_u64(out, ring.res().0);
            put_uv(out, ring.len() as u64);
            // Buckets are start-ordered, so consecutive starts delta
            // down to one or two varint bytes (usually the resolution).
            let mut prev_start = 0u64;
            for b in ring.buckets() {
                put_uv(out, b.start.0.wrapping_sub(prev_start));
                prev_start = b.start.0;
                put_uv(out, b.count);
                put_f64(out, b.sum);
                put_f64(out, b.min);
                put_f64(out, b.max);
                put_f64(out, b.last);
                let sketch = b.sketch.as_ref();
                put_uv(out, sketch.map_or(0, |s| s.entries()) as u64);
                for e in sketch.into_iter().flat_map(|s| s.wire_entries()) {
                    out.push(e.sign as u8);
                    put_uv(out, zigzag(e.key as i64));
                    put_uv(out, e.count);
                }
            }
        }
    }
}

/// Rebuild an aggregator from a snapshot image, and the epoch of the
/// log that follows it.
pub(crate) fn decode(bytes: &[u8]) -> io::Result<(FleetAggregator, u64)> {
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
        // Raw ring. Every record is the ring's own, written in order, so
        // each chunk relinks whole and each sample is kept: anything
        // else is damage the CRC could not see — a writer's bug — and
        // loading past it would lose samples without a trace, since the
        // counters are overwritten below.
        let kept = |pushed: bool| {
            pushed
                .then_some(())
                .ok_or_else(|| bad_data("raw section sample out of order"))
        };
        for record in BatchView::parse(r.block()?)?.records() {
            match record {
                RecordRef::Chunk {
                    first_t,
                    last_t,
                    count,
                    bytes,
                    ..
                } => match store.restore_chunk(id, first_t, last_t, count, bytes) {
                    ChunkOutcome::Applied { rejected: 0, .. } => {}
                    _ => return Err(bad_data("raw section chunk did not restore whole")),
                },
                RecordRef::Sample { t, value, .. } => kept(store.push_sample(id, t, value))?,
                RecordRef::Samples(run) => {
                    for (_, t, value) in run {
                        kept(store.push_sample(id, t, value))?;
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
    Ok((agg, epoch))
}

#[cfg(test)]
mod tests {
    use super::super::tests::{fingerprint, node_batches};
    use super::*;
    use moda_telemetry::chunk;
    use moda_telemetry::export::{ExportBatch, ExportRecord};
    use moda_telemetry::wire::{encode_batch, write_frame};
    use moda_telemetry::{MetricMeta, SourceDomain};

    /// The raw section's reference writer — what the streaming one
    /// replaced, and is held to: each ring rendered as owned wire records
    /// — every sealed chunk whole, a partially evicted front chunk
    /// decoded and compressed again to its retained suffix, each tail
    /// observation a `Sample` record — for the batch codec to pack.
    fn raw_ring_records(store: &FleetStore, id: MetricId) -> Vec<ExportRecord> {
        let raw = store.raw(id);
        let mut records: Vec<ExportRecord> = raw
            .sealed_chunks()
            .map(|c| {
                let (mut ts, mut vals) = (Vec::new(), Vec::new());
                c.decode_into(&mut ts, &mut vals);
                ExportRecord::chunk(id, &chunk::compress(&ts, &vals, 0))
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

    /// Two nodes whose rings were fed sample by sample, so every chunk
    /// was sealed here (restart table and all) and each front one is
    /// partially evicted — one ring a constant run after its first
    /// quarter, which never resyncs, the other a cadence that jitters.
    fn sealed_here_fleet() -> FleetAggregator {
        let mut store = FleetStore::with_raw_retention(1500);
        for (node, name) in ["node00", "node01"].iter().enumerate() {
            let meta = MetricMeta::gauge("m", "u", SourceDomain::Hardware);
            let id = store.register(NodeId(node as u32), name, &meta);
            for s in 0..2400u64 {
                let (t, v) = match node {
                    0 => (s * 1000, if s < 600 { (s % 7) as f64 } else { 3.5 }),
                    _ => (
                        s * 1000 + s * 7 % 5,
                        180.0 + (s * 2_654_435_761 % 8) as f64 * 0.25,
                    ),
                };
                assert!(store.push_sample(id, SimTime(t), v));
            }
            let front = store.raw(id).sealed_chunks().next().expect("sealed chunks");
            assert!(front.skip() > 0 && front.count() == 512);
        }
        let mut agg = FleetAggregator::with_store(store);
        agg.add_node("node00");
        agg.add_node("node01");
        agg
    }

    /// A fleet whose rings hold only adopted chunks and no tail: the
    /// node streams with every `sample` record dropped.
    fn chunks_only_fleet() -> FleetAggregator {
        let mut agg = FleetAggregator::with_store(FleetStore::with_raw_retention(1000));
        let node = agg.add_node("node00");
        for mut batch in node_batches(3000, 0.0, 256) {
            batch
                .records
                .retain(|r| !matches!(r, ExportRecord::Sample { .. }));
            agg.ingest(node, &batch);
        }
        let raw = agg.store().raw(MetricId(0));
        assert_eq!(raw.compressed_len(), raw.len(), "no tail");
        assert!(raw.sealed_chunks().next().unwrap().skip() > 0);
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
        encode_payload(agg, 3, &mut payload, |store, id, out| {
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
    fn the_image_is_the_magic_and_one_frame_as_write_frame_writes_it() {
        let agg = evicted_ring_fleet();
        let mut image = Vec::new();
        encode(&agg, 3, &mut image);
        assert_eq!(image, snapshot_bytes(&agg));
        // And again into the same buffer: the image, not an appendix.
        encode(&agg, 3, &mut image);
        assert_eq!(image, snapshot_bytes(&agg));
    }

    /// The streaming writer's image is the reference writer's, byte for
    /// byte, on every ring shape a fleet holds — and so is the image of
    /// the fleet recovered from it.
    #[test]
    fn the_streaming_image_equals_the_record_built_one() {
        let mut one_node = FleetAggregator::new();
        one_node.add_node("node00");
        let fleets = [
            (
                "evicted adopted front, tail, sketched tiers",
                evicted_ring_fleet(),
            ),
            (
                "evicted fronts sealed here, one never resyncs",
                sealed_here_fleet(),
            ),
            ("adopted chunks, empty tail", chunks_only_fleet()),
            ("a node, no metrics", one_node),
            ("nothing", FleetAggregator::new()),
        ];
        for (shape, agg) in &fleets {
            let mut image = Vec::new();
            encode(agg, 3, &mut image);
            assert_eq!(image, snapshot_bytes(agg), "{shape}");
            let (recovered, _) = decode(&image).unwrap();
            let mut again = Vec::new();
            encode(&recovered, 3, &mut again);
            assert_eq!(again, image, "{shape}: a fixed point");
        }
    }

    /// A raw section the CRC vouches for but the ring refuses — a
    /// chunk whose payload no longer ends where its header says, a tail
    /// that runs back in time — is not loaded short: the image is
    /// refused as `InvalidData`.
    #[test]
    fn a_raw_section_that_does_not_restore_whole_refuses_the_image() {
        let agg = evicted_ring_fleet();
        let damaged = |damage: fn(&mut Vec<ExportRecord>)| {
            snapshot_file(&agg, SNAPSHOT_MAGIC, |store, id| {
                let mut records = raw_ring_records(store, id);
                damage(&mut records);
                records
            })
        };
        // The first timestamp code flipped from "same cadence" to a
        // wider bucket: the walk ends elsewhere, or nowhere.
        let flipped = damaged(|records| {
            let Some(ExportRecord::Chunk {
                first_t,
                count,
                last_t,
                bytes,
                ..
            }) = records.get_mut(1)
            else {
                panic!("a whole chunk second");
            };
            bytes[8] ^= 0x80;
            let walked = chunk::validate(first_t.0, *count, bytes);
            assert!(walked.is_err() || walked.unwrap().last_t != last_t.0);
        });
        // Two tail samples swapped.
        let backwards = damaged(|records| {
            let n = records.len();
            records.swap(n - 2, n - 1);
        });
        for image in [flipped, backwards] {
            let refused = decode(&image).map(|_| ()).unwrap_err();
            assert_eq!(refused.kind(), io::ErrorKind::InvalidData, "{refused}");
        }
        // The undamaged image loads.
        assert!(decode(&damaged(|_| {})).is_ok());
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
        let (recovered, ..) = decode(&first).unwrap();
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
        let (recovered, epoch, ..) = decode(&old).unwrap();
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
        assert!(decode(&future).is_err());
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
        let (recovered, ..) = decode(&old).unwrap();
        let now = SimTime::from_secs(3001);
        assert_eq!(fingerprint(&recovered, 1, now), fingerprint(&agg, 1, now));
        // Written back out, it is the current rendering of the same ring.
        assert_eq!(snapshot_bytes(&recovered), snapshot_bytes(&agg));
    }
}
