//! The snapshot layout: a whole [`FleetAggregator`] as one byte image
//! and back — magic, frame and sections — and nothing else. It names no
//! file: [`super::dir`] writes the image [`encode`] fills and reads the
//! one [`decode`] takes.
//!
//! Every byte — the frame envelope, the record codec, the Gorilla
//! payloads, the LE/varint helpers and the bounds-checked reader — comes
//! from [`moda_telemetry`]; this module owns only the layout built from
//! them ([`encode`] lays the envelope out in place rather than through
//! `write_frame`; a test holds the two to the same bytes).

use crate::aggregator::{FleetAggregator, NodeCounters, NodeSession};
use crate::store::{ChunkOutcome, FleetStore, FleetStoreStats, NodeId};
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::chunk;
use moda_telemetry::wire::{
    bad_data, crc32, decode_drain_stats, encode_drain_stats, parse_frame, put_block, put_meta,
    put_str, put_u32, put_u64, put_uv, unzigzag, zigzag, BatchView, BatchWriter, FrameParse,
    RecordRef, ValueState, WireReader, MAX_VALUE_IDS,
};
use moda_telemetry::{MetricId, QuantileSketch, RollupBucket, SketchEntry};
use std::io;

/// Leading magic of a snapshot image (version-suffixed). `05`: each
/// session carries its stream's value state after its drain block —
/// the log that follows the image holds `samples_delta` and `sweep` records coded
/// against it — which an `04` reader would take for the next session.
const SNAPSHOT_MAGIC: &[u8; 8] = b"MODAFS05";
/// The previous magic: no value states. Such a file loads with every
/// stream's state empty and is written back as `05`.
const SNAPSHOT_MAGIC_04: &[u8; 8] = b"MODAFS04";
/// The magic before: tails as packed `samples` records, tier scalars
/// as raw `f64`, sketch entries as `sign · zigzag(key) · count`. Such a
/// file loads as it is and is written back as `05`.
const SNAPSHOT_MAGIC_03: &[u8; 8] = b"MODAFS03";
/// The `03` layout with one `sample` record per tail observation.
const SNAPSHOT_MAGIC_02: &[u8; 8] = b"MODAFS02";
/// The single frame that follows the magic.
const FRAME_SNAPSHOT: u8 = 40;

/// Write one stream's value state: `count uv`, then per id with a state,
/// in id order, `id uv` (the first as itself, each later one as its
/// distance past the one before, less one) and its bits `u64`.
fn write_values(values: &ValueState, out: &mut Vec<u8>) {
    put_uv(out, values.iter().count() as u64);
    let mut next = 0;
    for (id, bits) in values.iter() {
        put_uv(out, u64::from(id.0 - next));
        put_u64(out, bits);
        next = id.0 + 1;
    }
}

/// The state [`write_values`] wrote.
fn read_values(r: &mut WireReader<'_>) -> io::Result<ValueState> {
    let mut values = ValueState::new();
    let n = r.uv()?;
    // An entry is nine bytes at least: refused before anything grows.
    if n > r.remaining() as u64 / 9 {
        return Err(bad_data("value state longer than its bytes"));
    }
    let mut next = 0u64;
    for _ in 0..n {
        let id = next
            .checked_add(r.uv()?)
            .filter(|&id| id < u64::from(MAX_VALUE_IDS))
            .ok_or_else(|| bad_data("value state id past the bound"))?;
        values.set(MetricId(id as u32), r.u64()?);
        next = id + 1;
    }
    Ok(values)
}

/// How an image codes what changed at `04`: its tails and its tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `MODAFS02`/`03`: tails as `sample`/`samples` records; tiers with
    /// raw scalars and signed sketch entries.
    Packed,
    /// `MODAFS05`/`04`: a tail flag and a tail `chunk` record; XOR-coded
    /// scalars and sketch keys delta-coded per sign run.
    Columns,
}

/// Write one raw ring as a tail flag and a batch (seq 0), straight from
/// the ring: each sealed chunk as a `chunk` record — its payload as it
/// lies, or a partially evicted front chunk's retained suffix
/// ([`Chunk::write_retained`](moda_telemetry::chunk::Chunk::write_retained)) —
/// then the unsealed tail, when there is one, as one more `chunk`
/// record coded off its slices ([`chunk::write_run`]) and flagged as the
/// tail. Restoring relinks exactly these chunks and pushes the tail
/// back, so the section a recovered ring writes is byte-identical.
fn write_raw_section(store: &FleetStore, id: MetricId, out: &mut Vec<u8>) {
    let raw = store.raw(id);
    let tail = (raw.len() - raw.compressed_len()) as u64;
    let (ts, vals) = raw.tail_from(raw.total_appends() - tail);
    out.push(u8::from(!ts.is_empty()));
    let mut batch = BatchWriter::new(out, 0);
    for c in raw.sealed_chunks() {
        let count = c.retained_len() as u32;
        batch.chunk(id, count, SimTime(c.last_t()), |out| c.write_retained(out));
    }
    if let Some(&last_t) = ts.last() {
        let count = ts.len() as u32;
        batch.chunk(id, count, SimTime(last_t), |out| {
            chunk::write_run(ts, vals, out)
        });
    }
}

/// A bucket's four scalars as bits: what its XOR columns code.
fn scalar_bits(b: &RollupBucket) -> [u64; 4] {
    [b.sum, b.min, b.max, b.last].map(f64::to_bits)
}

/// Write one metric's wire-fed tiers: per ring its resolution and
/// buckets, each coded against the one before it (see [`encode`]).
fn write_tiers(store: &FleetStore, id: MetricId, out: &mut Vec<u8>) {
    let rings = store.tiers().set(id).map_or(&[][..], |set| set.rings());
    put_u32(out, rings.len() as u32);
    for ring in rings {
        let res = ring.res().0;
        put_u64(out, res);
        put_uv(out, ring.len() as u64);
        let mut prev: Option<&RollupBucket> = None;
        for b in ring.buckets() {
            // Buckets are start-ordered: the next slot codes as 0, any
            // other step as itself — never 0.
            put_uv(
                out,
                match prev.map(|p| b.start.0 - p.start.0) {
                    None => b.start.0,
                    Some(step) if step == res => 0,
                    Some(step) => step,
                },
            );
            put_uv(out, b.count);
            let base = prev.map_or([0; 4], scalar_bits);
            for (was, is) in base.into_iter().zip(scalar_bits(b)) {
                put_xor(out, was ^ is);
            }
            put_sketch(out, b.sketch.as_ref());
            prev = Some(b);
        }
    }
}

/// Append `x` — a scalar's bits XOR the previous bucket's — as a control
/// byte `lead << 4 | kept` and its `kept` bytes from byte `lead` on, most
/// significant first. Zero bytes at either end are dropped, so a repeat
/// is the control byte alone; the bits themselves are kept as they are,
/// NaN payloads, signed zeros, subnormals and infinities included.
fn put_xor(out: &mut Vec<u8>, x: u64) {
    if x == 0 {
        out.push(0);
        return;
    }
    let lead = (x.leading_zeros() / 8) as usize;
    let kept = 8 - lead - (x.trailing_zeros() / 8) as usize;
    out.push((lead << 4 | kept) as u8);
    out.extend_from_slice(&x.to_be_bytes()[lead..lead + kept]);
}

/// The bits [`put_xor`] wrote.
fn read_xor(r: &mut WireReader<'_>) -> io::Result<u64> {
    let control = r.u8()?;
    let (lead, kept) = (usize::from(control >> 4), usize::from(control & 0x0F));
    if lead + kept > 8 {
        return Err(bad_data("tier scalar wider than 64 bits"));
    }
    let mut be = [0u8; 8];
    be[lead..lead + kept].copy_from_slice(r.take(kept)?);
    Ok(u64::from_be_bytes(be))
}

/// Append a bucket's sketch column in its wire order: `shape uv` —
/// positive entries `<< 2`, a zero bucket `<< 1`, any negatives `<< 0`
/// — then the negative entries less one when there are any, the
/// negative run, the zero bucket's count, the positive run. A run is
/// `key uv · count uv` per entry, its first key zigzagged and each later
/// one as its distance past the one before, less one: a store's keys
/// ascend strictly.
fn put_sketch(out: &mut Vec<u8>, sketch: Option<&QuantileSketch>) {
    let entries = || sketch.into_iter().flat_map(QuantileSketch::wire_entries);
    let (mut negatives, mut zero, mut positives) = (0u64, false, 0u64);
    for e in entries() {
        match e.sign {
            ..0 => negatives += 1,
            0 => zero = true,
            1.. => positives += 1,
        }
    }
    put_uv(
        out,
        positives << 2 | u64::from(zero) << 1 | u64::from(negatives > 0),
    );
    if negatives > 0 {
        put_uv(out, negatives - 1);
    }
    let mut prev: Option<(i8, i32)> = None;
    for e in entries() {
        if e.sign != 0 {
            put_uv(
                out,
                match prev {
                    Some((sign, key)) if sign == e.sign => {
                        (i64::from(e.key) - i64::from(key) - 1) as u64
                    }
                    _ => zigzag(i64::from(e.key)),
                },
            );
            prev = Some((e.sign, e.key));
        }
        put_uv(out, e.count);
    }
}

/// The column [`put_sketch`] wrote, into `column`.
fn read_column(r: &mut WireReader<'_>, column: &mut Vec<SketchEntry>) -> io::Result<()> {
    column.clear();
    let shape = r.uv()?;
    let negatives = if shape & 1 == 1 {
        r.uv()?.saturating_add(1)
    } else {
        0
    };
    read_run(r, -1, negatives, column)?;
    if shape & 2 != 0 {
        column.push(SketchEntry {
            sign: 0,
            key: 0,
            count: r.uv()?,
        });
    }
    read_run(r, 1, shape >> 2, column)
}

/// One sign's run of `n` entries (see [`put_sketch`]).
fn read_run(
    r: &mut WireReader<'_>,
    sign: i8,
    n: u64,
    column: &mut Vec<SketchEntry>,
) -> io::Result<()> {
    // An entry is two bytes at least: a count the bytes cannot hold is
    // refused before anything grows by it.
    if n > r.remaining() as u64 / 2 {
        return Err(bad_data("sketch run longer than its bytes"));
    }
    let mut prev: Option<i32> = None;
    for _ in 0..n {
        let code = r.uv()?;
        let key = match prev {
            None => Some(unzigzag(code)),
            Some(prev) => i64::try_from(code)
                .ok()
                .and_then(|step| (i64::from(prev) + 1).checked_add(step)),
        };
        let key = key
            .and_then(|k| i32::try_from(k).ok())
            .ok_or_else(|| bad_data("sketch key past i32"))?;
        column.push(SketchEntry {
            sign,
            key,
            count: r.uv()?,
        });
        prev = Some(key);
    }
    Ok(())
}

/// A sketch column in the `03` coding: `entries uv`, then per entry
/// `sign u8 · zigzag(key) uv · count uv`.
fn read_signed_column(r: &mut WireReader<'_>, column: &mut Vec<SketchEntry>) -> io::Result<()> {
    column.clear();
    let n = r.uv()?;
    if n > r.remaining() as u64 / 3 {
        return Err(bad_data("sketch column longer than its bytes"));
    }
    for _ in 0..n {
        column.push(SketchEntry {
            sign: r.u8()? as i8,
            key: i32::try_from(unzigzag(r.uv()?)).map_err(|_| bad_data("sketch key past i32"))?,
            count: r.uv()?,
        });
    }
    Ok(())
}

/// Write one metric's raw section and tiers: what follows its registry
/// entry in [`encode`].
fn write_metric(store: &FleetStore, id: MetricId, out: &mut Vec<u8>) {
    put_block(out, |out| write_raw_section(store, id, out));
    write_tiers(store, id, out);
}

/// Fill `out` with the snapshot image of `agg`, naming log `epoch`:
/// the magic, then one CRC frame whose payload is (all LE; strings
/// `u16`-len prefixed) — see `docs/FLEET_SERVICE.md` for the normative
/// spec:
///
/// ```text
/// epoch u64 · raw_retention u64 · store counters 4×u64 · the
///   sessions' samples, rejected_samples and corrupt_chunks sums 3×u64
///   (skipped on load)
/// session count u32 · per session:
///   name · next_seq u64 · wire_map u32-len + u32 entries (MAX=None)
///   counters 13×u64 · high_water u64 · ever_ingested u8 · drain block
///   (u32-len) · value state: count uv · per id with a state, ascending:
///     id uv (the first itself, then the distance past the previous
///     less one) · bits u64
/// metric count u32 · per metric:
///   node u32 · meta(name · kind u8 · unit · domain u8)
///   raw section: u32-len block of tail u8 (1: the last record is the
///     unsealed tail) + one batch (seq 0) of `chunk` records — the
///     ring's sealed chunks, then the tail as one Gorilla run
///   tier count u32 · per tier: res u64 · bucket count uv · per bucket:
///     start uv (the first absolute; then 0 for the next slot, else the
///       step from the previous start — never 0) · count uv ·
///     sum/min/max/last: each its bits XOR the previous bucket's (the
///       first's against 0) as control u8 (lead zero bytes << 4 | kept
///       bytes) + the kept bytes ·
///     sketch: shape uv (positive entries << 2 | zero bucket << 1 |
///       negatives) · [negative entries − 1 uv] · negative run ·
///       [zero count uv] · positive run; a run is key uv (the first
///       zigzagged, then the step past the previous less one) · count uv
/// ```
///
/// `uv` is LEB128. The tier section is the bulk of a snapshot and
/// recovery cost is byte-proportional (checksum + decode), so it codes
/// each bucket against the one before it while the small header stays
/// fixed-width.
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
        encode_payload(agg, epoch, out, true, write_metric);
    });
    let crc = crc32(&out[frame + 4..]);
    put_u32(out, crc);
}

/// The frame payload of [`encode`], with whether sessions carry their
/// value states and what follows each metric's registry entry as
/// parameters, so a test can write the sections an older writer
/// produced.
fn encode_payload(
    agg: &FleetAggregator,
    epoch: u64,
    out: &mut Vec<u8>,
    values: bool,
    metric: impl Fn(&FleetStore, MetricId, &mut Vec<u8>),
) {
    let store = agg.store();
    put_u64(out, epoch);
    put_u64(out, store.raw_retention() as u64);
    let stats = store.stats();
    let sessions = agg.sessions();
    // Three slots the store's own ingest tallies held: the sessions' sums.
    let sum = |count: fn(&NodeCounters) -> u64| sessions.iter().map(|s| count(&s.counters)).sum();
    for v in [
        stats.rollup_hits,
        stats.sketch_hits,
        stats.raw_fallbacks,
        stats.raw_values_read,
        sum(|c| c.samples),
        sum(|c| c.rejected_samples),
        sum(|c| c.corrupt_chunks),
    ] {
        put_u64(out, v);
    }
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
        if values {
            write_values(&s.values, out);
        }
    }
    put_u32(out, store.cardinality() as u32);
    for idx in 0..store.cardinality() {
        let id = MetricId(idx as u32);
        let info = store.info(id);
        put_u32(out, info.node.0);
        put_meta(out, &info.meta);
        metric(store, id, out);
    }
}

/// Rebuild an aggregator from a snapshot image, and the epoch of the
/// log that follows it.
pub(crate) fn decode(bytes: &[u8]) -> io::Result<(FleetAggregator, u64)> {
    let (layout, with_values, framed) = match bytes.split_first_chunk::<8>() {
        Some((magic, framed)) if magic == SNAPSHOT_MAGIC => (Layout::Columns, true, framed),
        Some((magic, framed)) if magic == SNAPSHOT_MAGIC_04 => (Layout::Columns, false, framed),
        Some((magic, framed)) if magic == SNAPSHOT_MAGIC_03 || magic == SNAPSHOT_MAGIC_02 => {
            (Layout::Packed, false, framed)
        }
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
    };
    r.take(24)?; // the sessions' ingest sums: each session has its own
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
        let values = match with_values {
            true => read_values(&mut r)?,
            false => ValueState::new(),
        };
        sessions.push(NodeSession {
            name,
            next_seq,
            wire_map,
            counters,
            high_water,
            ever_ingested,
            drain,
            values,
        });
    }
    let mut store = FleetStore::with_raw_retention(raw_retention);
    // One scratch column reused across every bucket: the per-bucket
    // entry lists are small and restoring is byte-proportional work, so
    // this loop avoids per-bucket allocation.
    let mut column: Vec<SketchEntry> = Vec::new();
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
        read_raw_section(&mut store, id, r.block()?, layout)?;
        read_tiers(&mut store, id, &mut r, layout, &mut column)?;
    }
    if !r.done() {
        return Err(bad_data("trailing bytes in snapshot"));
    }
    store.restore_stats(&stats);
    let mut agg = FleetAggregator::with_store(store);
    *agg.sessions_mut() = sessions;
    Ok((agg, epoch))
}

/// Restore one raw ring. Every record is the ring's own, written in
/// order, so each chunk relinks whole and each tail sample is kept:
/// anything else is damage the CRC could not see — a writer's bug — and
/// loading past it would lose samples without a trace, since the
/// sessions' counters are restored from the image, not recounted.
fn read_raw_section(
    store: &mut FleetStore,
    id: MetricId,
    section: &[u8],
    layout: Layout,
) -> io::Result<()> {
    let mut r = WireReader::new(section);
    let tail = match layout {
        Layout::Packed => false,
        Layout::Columns => match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(bad_data("unknown raw section tail flag")),
        },
    };
    let view = BatchView::parse(r.rest())?;
    let records = view.record_count();
    if tail && records == 0 {
        return Err(bad_data("raw section flags a tail it does not hold"));
    }
    let kept = |pushed: bool| {
        pushed
            .then_some(())
            .ok_or_else(|| bad_data("raw section sample out of order"))
    };
    for (i, record) in view.records().enumerate() {
        match record {
            RecordRef::Chunk {
                first_t,
                last_t,
                count,
                bytes,
                ..
            } => {
                let restored = if tail && i + 1 == records {
                    store.restore_tail(id, first_t, last_t, count, bytes)
                } else {
                    store.restore_chunk(id, first_t, last_t, count, bytes)
                };
                if !matches!(restored, ChunkOutcome::Applied { rejected: 0, .. }) {
                    return Err(bad_data("raw section chunk did not restore whole"));
                }
            }
            RecordRef::Sample { t, value, .. } if layout == Layout::Packed => {
                kept(store.push_sample(id, t, value))?
            }
            RecordRef::Samples(run) if layout == Layout::Packed => {
                for (_, t, value) in run {
                    kept(store.push_sample(id, t, value))?;
                }
            }
            _ => return Err(bad_data("unexpected record kind in raw section")),
        }
    }
    Ok(())
}

/// Restore one metric's wire-fed tiers: each bucket with its whole
/// sketch column against a single slot lookup (`restore_bucket`) —
/// snapshot restore is the hot path a fast restart rides on. Rings and
/// buckets were written in order, so a resolution or a start that does
/// not increase, or a slot the ring does not take, is damage: loading
/// past it would fold one bucket into another, and the counters restored
/// at the end of [`decode`] would hide the loss.
fn read_tiers(
    store: &mut FleetStore,
    id: MetricId,
    r: &mut WireReader<'_>,
    layout: Layout,
    column: &mut Vec<SketchEntry>,
) -> io::Result<()> {
    let n_rings = r.u32()?;
    let mut prev_res = 0;
    for _ in 0..n_rings {
        let res = r.u64()?;
        if res <= prev_res {
            return Err(bad_data("tier resolutions do not increase"));
        }
        prev_res = res;
        let n_buckets = r.uv()?;
        let mut prev: Option<(u64, [u64; 4])> = None;
        for _ in 0..n_buckets {
            let code = r.uv()?;
            let start = match (prev, layout) {
                (None, _) => Some(code),
                (Some((start, _)), Layout::Packed) => start.checked_add(code).filter(|_| code > 0),
                (Some((start, _)), Layout::Columns) => {
                    start.checked_add(if code == 0 { res } else { code })
                }
            }
            .ok_or_else(|| bad_data("tier bucket start does not increase"))?;
            let count = r.uv()?;
            let mut bits = [0u64; 4];
            match layout {
                Layout::Packed => {
                    for b in &mut bits {
                        *b = r.u64()?;
                    }
                    read_signed_column(r, column)?;
                }
                Layout::Columns => {
                    bits = prev.map_or([0; 4], |(_, bits)| bits);
                    for b in &mut bits {
                        *b ^= read_xor(r)?;
                    }
                    read_column(r, column)?;
                }
            }
            let [sum, min, max, last] = bits.map(f64::from_bits);
            let (res, at) = (SimDuration(res), SimTime(start));
            if !store.restore_bucket(id, res, at, count, sum, min, max, last, column) {
                return Err(bad_data("tier bucket not retained"));
            }
            prev = Some((start, bits));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::tests::{fingerprint, node_batches};
    use super::*;
    use moda_telemetry::export::{ExportBatch, ExportRecord};
    use moda_telemetry::wire::{encode_batch, encode_record, put_f64, write_frame};
    use moda_telemetry::{MetricMeta, SourceDomain};
    use proptest::TestRng;

    /// The writers an image can come from: this build's, and the three
    /// before it, kept as references.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Writer {
        V05,
        V04,
        V03,
        V02,
    }

    impl Writer {
        fn magic(self) -> &'static [u8; 8] {
            match self {
                Writer::V05 => SNAPSHOT_MAGIC,
                Writer::V04 => SNAPSHOT_MAGIC_04,
                Writer::V03 => SNAPSHOT_MAGIC_03,
                Writer::V02 => SNAPSHOT_MAGIC_02,
            }
        }

        /// The writer of its tier sections.
        fn tiers(self) -> fn(&FleetStore, MetricId, &mut Vec<u8>) {
            match self {
                Writer::V05 | Writer::V04 => write_tiers,
                Writer::V03 | Writer::V02 => write_tiers_03,
            }
        }

        /// Whether its sessions carry their value states.
        fn values(self) -> bool {
            self == Writer::V05
        }

        /// Whether its raw sections lead with a tail flag and code the
        /// tail as a chunk.
        fn tail_chunk(self) -> bool {
            matches!(self, Writer::V05 | Writer::V04)
        }
    }

    /// A raw ring as owned wire records — what the streaming writer
    /// replaced, and is held to: every sealed chunk whole, a partially
    /// evicted front chunk decoded and compressed again to its retained
    /// suffix, then the unsealed tail compressed into one more chunk
    /// (`05`, `04`) or as one `Sample` record per observation (`03`,
    /// `02`).
    /// With whether the last record is the tail.
    fn raw_ring_records(
        store: &FleetStore,
        id: MetricId,
        writer: Writer,
    ) -> (Vec<ExportRecord>, bool) {
        let raw = store.raw(id);
        let mut records: Vec<ExportRecord> = raw
            .sealed_chunks()
            .map(|c| {
                let (mut ts, mut vals) = (Vec::new(), Vec::new());
                c.decode_into(&mut ts, &mut vals);
                ExportRecord::chunk(id, &chunk::compress(&ts, &vals, 0))
            })
            .collect();
        let tail = raw.last_n_view(raw.len() - raw.compressed_len());
        if tail.is_empty() {
            return (records, false);
        }
        if writer.tail_chunk() {
            let (ts, vals): (Vec<u64>, Vec<f64>) = tail.iter().map(|s| (s.t.0, s.value)).unzip();
            records.push(ExportRecord::chunk(id, &chunk::compress(&ts, &vals, 0)));
            return (records, true);
        }
        records.extend(tail.iter().map(|s| ExportRecord::Sample {
            id,
            t: s.t,
            value: s.value,
        }));
        (records, false)
    }

    /// The `03` tier writer: starts delta-coded from the previous
    /// bucket's, scalars as raw `f64` bits, sketch entries as
    /// `sign u8 · zigzag(key) uv · count uv`.
    fn write_tiers_03(store: &FleetStore, id: MetricId, out: &mut Vec<u8>) {
        let rings = store.tiers().set(id).map_or(&[][..], |set| set.rings());
        put_u32(out, rings.len() as u32);
        for ring in rings {
            put_u64(out, ring.res().0);
            put_uv(out, ring.len() as u64);
            let mut prev_start = 0u64;
            for b in ring.buckets() {
                put_uv(out, b.start.0 - prev_start);
                prev_start = b.start.0;
                put_uv(out, b.count);
                for v in [b.sum, b.min, b.max, b.last] {
                    put_f64(out, v);
                }
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

    /// An image of `agg` in `writer`'s layout, each raw section rendered
    /// from `raw_records` and each metric's tiers written by `tiers`.
    fn image_from(
        agg: &FleetAggregator,
        writer: Writer,
        raw_records: impl Fn(&FleetStore, MetricId) -> (Vec<ExportRecord>, bool),
        tiers: impl Fn(&FleetStore, MetricId, &mut Vec<u8>),
    ) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_payload(agg, 3, &mut payload, writer.values(), |store, id, out| {
            let (records, tail) = raw_records(store, id);
            put_block(out, |out| match writer {
                Writer::V05 | Writer::V04 => {
                    out.push(u8::from(tail));
                    encode_batch(&ExportBatch { seq: 0, records }, out);
                }
                Writer::V03 => encode_batch(&ExportBatch { seq: 0, records }, out),
                Writer::V02 => {
                    put_u64(out, 0);
                    put_u32(out, records.len() as u32);
                    for record in &records {
                        encode_record(record, out);
                    }
                }
            });
            tiers(store, id, out);
        });
        let mut file = writer.magic().to_vec();
        write_frame(&mut file, FRAME_SNAPSHOT, &payload).unwrap();
        file
    }

    /// The image `writer` made of `agg`, from owned records.
    fn reference_image(agg: &FleetAggregator, writer: Writer) -> Vec<u8> {
        let records = |store: &FleetStore, id| raw_ring_records(store, id, writer);
        image_from(agg, writer, records, writer.tiers())
    }

    fn encoded(agg: &FleetAggregator) -> Vec<u8> {
        let mut image = Vec::new();
        encode(agg, 3, &mut image);
        image
    }

    /// A one-node aggregator whose 1000-sample raw ring has evicted
    /// into its front chunk and holds an unsealed tail, with sketched
    /// tiers.
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

    /// One ring of 1500 fed sample by sample to an unsealed tail of
    /// `tail` samples (1 to 512), its front chunk evicted into.
    fn tail_fleet(tail: u64) -> FleetAggregator {
        let mut store = FleetStore::with_raw_retention(1500);
        let meta = MetricMeta::gauge("m", "u", SourceDomain::Hardware);
        let id = store.register(NodeId(0), "node00", &meta);
        for s in 0..1024 + tail {
            assert!(store.push_sample(id, SimTime(s * 1000), (s % 13) as f64 * 0.5));
        }
        let raw = store.raw(id);
        assert_eq!(raw.len() - raw.compressed_len(), tail as usize);
        let mut agg = FleetAggregator::with_store(store);
        agg.add_node("node00");
        agg
    }

    #[test]
    fn the_image_is_the_magic_and_one_frame_as_write_frame_writes_it() {
        let agg = evicted_ring_fleet();
        let mut image = encoded(&agg);
        assert_eq!(image, reference_image(&agg, Writer::V05));
        // And again into the same buffer: the image, not an appendix.
        encode(&agg, 3, &mut image);
        assert_eq!(image, reference_image(&agg, Writer::V05));
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
            ("a tail of one sample", tail_fleet(1)),
            ("a tail of 511 samples", tail_fleet(511)),
            ("a full tail", tail_fleet(512)),
            ("a node, no metrics", one_node),
            ("nothing", FleetAggregator::new()),
        ];
        for (shape, agg) in &fleets {
            let image = encoded(agg);
            assert_eq!(image, reference_image(agg, Writer::V05), "{shape}");
            let (recovered, _) = decode(&image).unwrap();
            assert_eq!(encoded(&recovered), image, "{shape}: a fixed point");
        }
    }

    /// A raw section the CRC vouches for but the ring refuses — a
    /// chunk whose payload no longer ends where its header says, a tail
    /// that runs back in time, a tail flag with no records — is not
    /// loaded short: the image is refused as `InvalidData`.
    #[test]
    fn a_raw_section_that_does_not_restore_whole_refuses_the_image() {
        let agg = evicted_ring_fleet();
        let damaged = |writer: Writer, damage: &dyn Fn(&mut Vec<ExportRecord>, &mut bool)| {
            let records = |store: &FleetStore, id| {
                let (mut records, mut tail) = raw_ring_records(store, id, writer);
                damage(&mut records, &mut tail);
                (records, tail)
            };
            image_from(&agg, writer, records, writer.tiers())
        };
        // The first timestamp code flipped from "same cadence" to a
        // wider bucket: the walk ends elsewhere, or nowhere.
        let flipped = damaged(Writer::V05, &|records, _| {
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
        // The tail run moved ten minutes back, before the sealed chunks
        // end.
        let backwards = damaged(Writer::V05, &|records, tail| {
            assert!(*tail);
            let Some(ExportRecord::Chunk {
                first_t,
                count,
                bytes,
                ..
            }) = records.pop()
            else {
                panic!("the tail last");
            };
            let (mut ts, mut vals) = (Vec::new(), Vec::new());
            chunk::decode_exact(first_t.0, count, &bytes, &mut ts, &mut vals).unwrap();
            ts.iter_mut().for_each(|t| *t -= 600_000);
            records.push(ExportRecord::chunk(
                MetricId(0),
                &chunk::compress(&ts, &vals, 0),
            ));
        });
        let flagged_empty = damaged(Writer::V05, &|records, tail| {
            records.clear();
            *tail = true;
        });
        // Two tail samples swapped, in an `03` image.
        let swapped = damaged(Writer::V03, &|records, _| {
            let n = records.len();
            records.swap(n - 2, n - 1);
        });
        for image in [flipped, backwards, flagged_empty, swapped] {
            let refused = decode(&image).map(|_| ()).unwrap_err();
            assert_eq!(refused.kind(), io::ErrorKind::InvalidData, "{refused}");
        }
        // The undamaged images load.
        for writer in [Writer::V05, Writer::V03] {
            assert!(decode(&damaged(writer, &|_, _| {})).is_ok());
        }
    }

    /// A tier section whose second bucket repeats the first's start —
    /// in an `03` image, whose start delta of 0 expresses it, with a
    /// valid CRC — used to load one bucket short: the second bucket's
    /// scalars replaced the first's, its sketch reset, and the restored
    /// counters hid it. Such an image is refused; the same image with
    /// the next slot's start loads both buckets.
    #[test]
    fn a_repeated_bucket_start_refuses_the_image() {
        let mut store = FleetStore::with_raw_retention(64);
        let meta = MetricMeta::gauge("m", "u", SourceDomain::Hardware);
        store.register(NodeId(0), "node00", &meta);
        let mut agg = FleetAggregator::with_store(store);
        agg.add_node("node00");
        let image = |second_delta: u64| {
            let tiers = move |_: &FleetStore, _: MetricId, out: &mut Vec<u8>| {
                put_u32(out, 1); // one ring
                put_u64(out, 10_000); // res
                put_uv(out, 2); // two buckets
                for (delta, v) in [(20_000, 1.5), (second_delta, 4.0)] {
                    put_uv(out, delta);
                    put_uv(out, 10); // count
                    for _ in 0..4 {
                        put_f64(out, v);
                    }
                    put_uv(out, 1); // one sketch entry
                    out.push(1); // positive
                    put_uv(out, zigzag(21));
                    put_uv(out, 10);
                }
            };
            let records = |store: &FleetStore, id| raw_ring_records(store, id, Writer::V03);
            image_from(&agg, Writer::V03, records, tiers)
        };
        let (next_slot, _) = decode(&image(10_000)).unwrap();
        let res = SimDuration(10_000);
        let starts: Vec<u64> = next_slot
            .store()
            .buckets(MetricId(0), res)
            .map(|b| b.start.0)
            .collect();
        assert_eq!(starts, [20_000, 30_000]);
        let refused = decode(&image(0)).map(|_| ()).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData, "{refused}");
    }

    #[test]
    fn raw_section_is_whole_chunks_plus_a_tail_run_and_a_fixed_point() {
        let agg = evicted_ring_fleet();
        let raw = agg.store().raw(MetricId(0));
        let (records, tail) = raw_ring_records(agg.store(), MetricId(0), Writer::V05);
        // Chunk records only — the front one re-encoded to its retained
        // suffix — the last one exactly the unsealed tail.
        let counts: Vec<u32> = records
            .iter()
            .map(|r| match r {
                ExportRecord::Chunk { count, .. } => *count,
                _ => panic!("chunk records only"),
            })
            .collect();
        let retained: Vec<u32> = raw
            .sealed_chunks()
            .map(|c| c.retained_len() as u32)
            .collect();
        assert!(tail);
        assert_eq!(counts[..retained.len()], retained);
        assert_eq!(
            counts[retained.len()..],
            [(raw.len() - raw.compressed_len()) as u32]
        );
        // snapshot → recover → snapshot reproduces the file byte for
        // byte; the recovered ring has the same chunk boundaries and
        // the same unsealed tail.
        let first = encoded(&agg);
        let (recovered, ..) = decode(&first).unwrap();
        assert_eq!(encoded(&recovered), first);
        let again = recovered.store().raw(MetricId(0));
        let relinked: Vec<u32> = again.sealed_chunks().map(|c| c.count()).collect();
        assert_eq!(relinked, retained);
        assert_eq!(again.compressed_len(), raw.compressed_len());
        let now = SimTime::from_secs(3001);
        assert_eq!(fingerprint(&recovered, 1, now), fingerprint(&agg, 1, now));
    }

    /// An image from any previous writer — kept here as references —
    /// loads to the fleet it was made of, its streams' value states
    /// empty, and is written back as `05`, a fixed point from there on;
    /// from `03` and `02`, smaller.
    #[test]
    fn an_04_03_or_02_image_loads_and_is_written_back_as_05() {
        let mut agg = evicted_ring_fleet();
        let node = NodeId(0);
        agg.stream_values_mut(node)
            .set(MetricId(0), 201.5f64.to_bits());
        let now = SimTime::from_secs(3001);
        // What an image without value states stands for.
        agg.restart_stream(node);
        for writer in [Writer::V04, Writer::V03, Writer::V02] {
            let old = reference_image(&agg, writer);
            let (recovered, epoch, ..) = decode(&old).unwrap();
            assert_eq!(epoch, 3);
            assert_eq!(recovered.stream_values(node), &ValueState::new());
            assert_eq!(
                fingerprint(&recovered, 1, now),
                fingerprint(&agg, 1, now),
                "{writer:?}"
            );
            let new = encoded(&recovered);
            assert_eq!(&new[..8], SNAPSHOT_MAGIC);
            assert_eq!(new, encoded(&agg), "{writer:?}");
            if writer != Writer::V04 {
                assert!(new.len() < old.len(), "{} vs {}", new.len(), old.len());
            }
        }
        // No other magic is a snapshot.
        let mut future = encoded(&agg);
        future[7] = b'6';
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
            (records, false)
        };
        let mut agg = evicted_ring_fleet();
        // An `02` image carries no value state.
        agg.restart_stream(NodeId(0));
        let old = image_from(&agg, Writer::V02, per_sample_front, Writer::V02.tiers());
        let (recovered, ..) = decode(&old).unwrap();
        let now = SimTime::from_secs(3001);
        assert_eq!(fingerprint(&recovered, 1, now), fingerprint(&agg, 1, now));
        // Written back out, it is the current rendering of the same ring.
        assert_eq!(encoded(&recovered), encoded(&agg));
    }

    // ---- random fleets ---------------------------------------------------

    /// A value off a palette of awkward bit patterns, or one near `prev`.
    fn awkward(rng: &mut TestRng, prev: f64) -> f64 {
        match rng.below(12) {
            0 => f64::NAN,
            1 => f64::from_bits(0x7ff8_0000_dead_beef),
            2 => -0.0,
            3 => 0.0,
            4 => f64::from_bits(1 + rng.below(1 << 40)), // subnormal
            5 => f64::INFINITY,
            6 => f64::NEG_INFINITY,
            7 => f64::from_bits(rng.next_u64()),
            _ if prev.is_finite() => prev + rng.below(9) as f64 * 0.25 - 1.0,
            _ => 180.0,
        }
    }

    /// Feed one raw ring: a few adopted chunk records (short ones land
    /// in the tail), then samples one by one — none, or enough to leave
    /// a tail of 1 or 511, or any number — at a jittered cadence with
    /// repeated timestamps.
    fn random_ring(store: &mut FleetStore, id: MetricId, rng: &mut TestRng) {
        let (mut t, mut v) = (rng.below(1 << 30), 180.0);
        let mut next = |rng: &mut TestRng| {
            t += match rng.below(8) {
                0 => 0,
                1 => rng.below(5000),
                _ => 1000,
            };
            v = awkward(rng, v);
            (t, v)
        };
        for _ in 0..rng.below(4) {
            let n = 1 + rng.below(700) as usize;
            let (ts, vals): (Vec<u64>, Vec<f64>) = (0..n).map(|_| next(rng)).unzip();
            let c = chunk::compress(&ts, &vals, 0);
            let (first, last) = (SimTime(c.first_t()), SimTime(c.last_t()));
            store.push_chunk(id, first, last, c.count(), c.bytes());
        }
        let pushes = match rng.below(4) {
            0 => 0,
            1 => 512 * rng.below(3) + 1,
            2 => 512 * rng.below(3) + 511,
            _ => rng.below(2000),
        };
        for _ in 0..pushes {
            let (t, v) = next(rng);
            assert!(store.push_sample(id, SimTime(t), v));
        }
    }

    /// A sketch column: negative, zero-bucket and positive entries,
    /// negative keys among them.
    fn random_column(rng: &mut TestRng) -> Vec<SketchEntry> {
        (0..rng.below(12))
            .map(|_| {
                let sign = rng.below(3) as i8 - 1;
                let key = match sign {
                    0 => 0,
                    _ => rng.below(36_038) as i32 - 1037,
                };
                let count = 1 + rng.below(300);
                SketchEntry { sign, key, count }
            })
            .collect()
    }

    /// Feed some of four tiers: buckets in the next slot, after a gap of
    /// slots, or off the grid; scalars off the awkward palette; sketch
    /// columns before or after their bucket, or alone.
    fn random_tiers(store: &mut FleetStore, id: MetricId, rng: &mut TestRng) {
        for res in [7, 10_000, 60_000, 3_600_000] {
            if rng.below(2) == 0 {
                continue;
            }
            let mut start = rng.below(1 << 30) / res * res;
            let mut scalars = [0.0; 4];
            for _ in 0..rng.below(40) {
                start += match rng.below(6) {
                    0 => res * (2 + rng.below(100)),
                    1 => 1 + rng.below(2 * res),
                    _ => res,
                };
                let (res, at) = (SimDuration(res), SimTime(start));
                let count = rng.below(100);
                for s in &mut scalars {
                    *s = awkward(rng, *s);
                }
                let [sum, min, max, last] = scalars;
                let column = if rng.below(3) > 0 {
                    random_column(rng)
                } else {
                    Vec::new()
                };
                let bucket_first = rng.below(2) == 0;
                if bucket_first && count > 0 {
                    store.apply_bucket(id, res, at, count, sum, min, max, last);
                }
                for &e in &column {
                    store.apply_sketch(id, res, at, e);
                }
                if !bucket_first && count > 0 {
                    store.apply_bucket(id, res, at, count, sum, min, max, last);
                }
            }
        }
    }

    /// Up to three nodes of up to three metrics each — or none — every
    /// ring and tier fed at random.
    fn random_fleet(rng: &mut TestRng) -> FleetAggregator {
        let retention = [600, 1500, 4096][rng.below(3) as usize];
        let mut store = FleetStore::with_raw_retention(retention);
        let nodes = 1 + rng.below(3) as u32;
        for node in 0..nodes {
            for m in 0..rng.below(4) {
                let meta = MetricMeta::gauge(format!("m{m}"), "u", SourceDomain::Hardware);
                let id = store.register(NodeId(node), &format!("node{node:02}"), &meta);
                random_ring(&mut store, id, rng);
                random_tiers(&mut store, id, rng);
            }
        }
        let mut agg = FleetAggregator::with_store(store);
        for node in 0..nodes {
            let node = agg.add_node(&format!("node{node:02}"));
            // A stream state: none, a few ids, ids up to the bound.
            let values = agg.stream_values_mut(node);
            for _ in 0..rng.below(3) * rng.below(40) {
                let id = match rng.below(4) {
                    0 => MAX_VALUE_IDS - 1 - rng.below(3) as u32,
                    _ => rng.below(300) as u32,
                };
                values.set(MetricId(id), awkward(rng, 180.0).to_bits());
            }
        }
        agg
    }

    /// Everything an image carries of `agg`, as comparable text: every
    /// ring's chunk boundaries, tail length and samples (bits), every
    /// bucket's fields (bits) and sketch, the store counters and the
    /// sessions.
    fn state(agg: &FleetAggregator) -> String {
        let store = agg.store();
        let mut out = format!("{:?}\n", store.stats());
        for s in agg.sessions() {
            let values: Vec<_> = s.values.iter().collect();
            out += &format!("{} {} {:?} {values:?}\n", s.name, s.next_seq, s.counters);
        }
        for idx in 0..store.cardinality() {
            let id = MetricId(idx as u32);
            let raw = store.raw(id);
            let chunks: Vec<usize> = raw.sealed_chunks().map(|c| c.retained_len()).collect();
            let tail = raw.len() - raw.compressed_len();
            let samples: Vec<(u64, u64)> = raw.iter().map(|s| (s.t.0, s.value.to_bits())).collect();
            out += &format!("{idx}: {chunks:?} + {tail} {samples:?}\n");
            for ring in store.tiers().set(id).map_or(&[][..], |set| set.rings()) {
                for b in ring.buckets() {
                    let bits = scalar_bits(b);
                    let (res, start) = (ring.res().0, b.start.0);
                    out += &format!("  {res} {start} {} {bits:?} {:?}\n", b.count, b.sketch);
                }
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// encode → decode → encode is a byte fixed point, and decode
        /// gives back every sample, bucket and counter bit for bit, over
        /// random fleets: NaN, ±0, subnormal and infinite scalars and
        /// samples; negative keys and zero buckets in sketches; tails of
        /// 0, 1, 511 and any length; evicted fronts; empty rings; gaps
        /// between bucket starts; stream value states of none, a few and
        /// the last ids the bound allows. The `03` writer's image of the
        /// same fleet loads to it too, its value states empty.
        #[test]
        fn an_image_is_a_byte_fixed_point_over_random_fleets(seed in proptest::any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let mut agg = random_fleet(&mut rng);
            let image = encoded(&agg);
            let (recovered, epoch) = decode(&image).unwrap();
            proptest::prop_assert_eq!(epoch, 3);
            proptest::prop_assert_eq!(state(&recovered), state(&agg));
            proptest::prop_assert!(encoded(&recovered) == image, "not a fixed point");
            let (old, _) = decode(&reference_image(&agg, Writer::V03)).unwrap();
            for node in 0..agg.node_count() {
                agg.restart_stream(NodeId(node as u32));
            }
            proptest::prop_assert_eq!(state(&old), state(&agg));
        }
    }
}
