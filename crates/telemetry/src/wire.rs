//! The one byte-level definition of `export-wire-v1.4` — what goes over
//! a socket, into the fleet write-ahead log, and inside `snapshot.bin`.
//! Every other module (the exporter, the fleet's persistence, query, and
//! transport code) builds and reads bytes through the helpers here; none
//! of them knows a length prefix, a tag value, or the CRC span.
//!
//! Three layers (normative spec: `docs/EXPORT_FORMAT.md`):
//!
//! * **records** — each [`ExportRecord`] as `[kind u8][len u32 LE][payload]`.
//!   The per-record length prefix is what makes the additive-kinds rule
//!   mechanical: a reader that meets a kind tag it does not know skips
//!   `len` bytes and counts it, instead of desynchronizing.
//! * **batches** — `[seq u64 LE][record count u32 LE][records…]`. The
//!   batch codec — not the record model — packs every maximal run of
//!   consecutive [`ExportRecord::Sample`] into one `samples` record
//!   (about one byte plus the value's significant bytes per sample)
//!   and expands it back on decode, so the socket and the log both
//!   shrink through one writer, [`BatchWriter`], and no caller sees a
//!   new record shape: [`encode_batch`] renders owned records through
//!   it, and a snapshot writes its raw sections through it straight
//!   from the ring (as `chunk` records, its unsealed tail included).
//!   A stream's writer and reader that keep a [`ValueState`] between
//!   batches ([`encode_batch_with`], [`BatchView::to_batch_with`]) code
//!   each run as one `samples_delta` record instead (v1.3): every value
//!   XOR its id's previous one in the stream, usually one byte. A run
//!   whose ids and times are arithmetic progressions — a sweep of
//!   metrics at one timestamp, one metric's fixed-cadence tail — is a
//!   `sweep` record (v1.4): the progressions once in its header, the
//!   value codes two to a byte.
//! * **frames** — `[len u32 LE][tag u8][payload][crc32 u32 LE]`, the
//!   self-delimiting transport/log envelope. The CRC covers tag+payload,
//!   so a torn append (power cut mid-write) or a flipped bit is detected
//!   before any record is applied; a clean EOF between frames reads as
//!   end-of-stream. [`parse_frame`] is the only envelope parser: the
//!   blocking [`read_frame`] and the incremental [`FrameBuffer`] both
//!   take their length decision from it and their checksum from the
//!   one running CRC beside it (IEEE CRC-32, folded slicing-by-16 so a
//!   hop's one pass over the bytes costs sixteen independent lookups
//!   per sixteen bytes).
//!
//! All integers little-endian; floats as IEEE-754 bit patterns
//! (`f64::to_bits`), so encode→decode is bit-exact including NaN. The
//! fleet snapshot's bulk section additionally uses LEB128 varints
//! ([`put_uv`]) with zigzag folding for signed keys.

use crate::export::{DrainStats, ExportBatch, ExportRecord, MAX_BATCH_RECORDS};
use crate::metric::{MetricId, MetricKind, MetricMeta, SourceDomain};
use crate::sketch::SketchEntry;
use moda_sim::{SimDuration, SimTime};
use std::io::{self, Read, Write};

/// Largest frame any conforming reader must accept. Batches are bounded
/// by `DEFAULT_BATCH_RECORDS` and chunk payloads by the 512-sample seal,
/// so real frames sit far below this; the cap exists so a corrupt or
/// hostile length prefix cannot force an unbounded allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Longest string the wire can carry: metric names, units, node names,
/// and auth tokens are `u16`-length-prefixed ([`put_str`]).
pub const MAX_STR_LEN: usize = u16::MAX as usize;

// ------------------------------------------------------------ put helpers

/// Append a `u16`, little-endian.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32`, little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern, little-endian.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a string as `[len u16 LE][UTF-8 bytes]`. Panics on strings
/// over [`MAX_STR_LEN`]: a wrapped length followed by all the bytes
/// would desynchronize every reader downstream, so an overlong string
/// must be refused where it enters the program (`Tsdb::try_register`
/// does that for metric names and units) — reaching this assert is a
/// bug in the caller, never a data condition.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    assert!(
        s.len() <= MAX_STR_LEN,
        "wire strings carry a u16 length; got {} bytes",
        s.len()
    );
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// Append an LEB128 unsigned varint — the fleet snapshot's tier section
/// is dominated by small integers (bucket deltas, counts, sketch keys),
/// and recovery cost is proportional to snapshot bytes.
#[inline]
pub fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Append a `u32`-length-prefixed block: `fill` writes the body, then
/// the prefix is patched in — how every skippable or growable section
/// of the format is delimited (record payloads, chunk bytes, the
/// query protocol's additive counter blocks, snapshot sections).
#[inline]
pub fn put_block(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    put_u32(out, 0);
    fill(out);
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Zigzag-fold a signed value so small magnitudes stay small varints.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------- reader

/// The `InvalidData` error every decode failure surfaces as.
pub fn bad_data(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("wire: {what}"))
}

/// Cursor-style reader over a decode buffer; every getter is
/// bounds-checked and surfaces truncation as `InvalidData`.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Reader positioned at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// The next `n` bytes, or `InvalidData` when fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad_data("truncated field"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes as an array (what the fixed-width getters
    /// feed to `from_le_bytes`).
    #[inline]
    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self
            .take(N)?
            .try_into()
            .expect("take returned exactly N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f64` from its little-endian bit pattern.
    #[inline]
    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// An LEB128 unsigned varint (see [`put_uv`]); encodings past 64
    /// bits are `InvalidData`.
    #[inline]
    pub fn uv(&mut self) -> io::Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(bad_data("varint overflow"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A `[len u16 LE][UTF-8]` string (see [`put_str`]), borrowed from
    /// the buffer.
    pub fn str_ref(&mut self) -> io::Result<&'a str> {
        let n = self.u16()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| bad_data("non-UTF-8 string"))
    }

    /// [`WireReader::str_ref`], owned.
    pub fn str(&mut self) -> io::Result<String> {
        self.str_ref().map(str::to_owned)
    }

    /// A `u32`-length-prefixed block (see [`put_block`]).
    #[inline]
    pub fn block(&mut self) -> io::Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Everything left, consuming it.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Whether every byte has been consumed — decoders check this last
    /// so trailing garbage is an error, not silently ignored.
    #[inline]
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes left to read — the sanity bound element-count prefixes are
    /// checked against before pre-allocating.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// ------------------------------------------------------------ metric tags

/// Wire tag of a metric kind.
fn kind_tag(kind: MetricKind) -> u8 {
    match kind {
        MetricKind::Gauge => 0,
        MetricKind::Counter => 1,
    }
}

/// Wire tag of a source domain.
fn domain_tag(domain: SourceDomain) -> u8 {
    match domain {
        SourceDomain::Facility => 0,
        SourceDomain::Hardware => 1,
        SourceDomain::Software => 2,
        SourceDomain::Application => 3,
    }
}

/// Metric kind of a wire tag; unknown tags are `InvalidData`.
fn kind_from_tag(tag: u8) -> io::Result<MetricKind> {
    match tag {
        0 => Ok(MetricKind::Gauge),
        1 => Ok(MetricKind::Counter),
        _ => Err(bad_data("unknown metric kind tag")),
    }
}

/// Source domain of a wire tag; unknown tags are `InvalidData`.
fn domain_from_tag(tag: u8) -> io::Result<SourceDomain> {
    match tag {
        0 => Ok(SourceDomain::Facility),
        1 => Ok(SourceDomain::Hardware),
        2 => Ok(SourceDomain::Software),
        3 => Ok(SourceDomain::Application),
        _ => Err(bad_data("unknown source domain tag")),
    }
}

/// Append a metric registry entry: `name · kind u8 · unit · domain u8`.
pub fn put_meta(out: &mut Vec<u8>, meta: &MetricMeta) {
    put_str(out, &meta.name);
    out.push(kind_tag(meta.kind));
    put_str(out, &meta.unit);
    out.push(domain_tag(meta.domain));
}

/// A metric registry entry whose strings are still the bytes they
/// arrived in — what a [`RecordRef::Meta`] lends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaRef<'a> {
    /// Metric name.
    pub name: &'a str,
    /// Gauge or counter.
    pub kind: MetricKind,
    /// Unit label.
    pub unit: &'a str,
    /// Source domain.
    pub domain: SourceDomain,
}

impl MetaRef<'_> {
    /// The owned registry entry.
    pub fn to_meta(&self) -> MetricMeta {
        MetricMeta {
            name: self.name.to_owned(),
            kind: self.kind,
            unit: self.unit.to_owned(),
            domain: self.domain,
        }
    }
}

impl<'a> From<&'a MetricMeta> for MetaRef<'a> {
    fn from(meta: &'a MetricMeta) -> Self {
        MetaRef {
            name: &meta.name,
            kind: meta.kind,
            unit: &meta.unit,
            domain: meta.domain,
        }
    }
}

impl<'a> WireReader<'a> {
    /// A metric registry entry written by [`put_meta`], borrowed.
    pub fn meta_ref(&mut self) -> io::Result<MetaRef<'a>> {
        Ok(MetaRef {
            name: self.str_ref()?,
            kind: kind_from_tag(self.u8()?)?,
            unit: self.str_ref()?,
            domain: domain_from_tag(self.u8()?)?,
        })
    }

    /// [`WireReader::meta_ref`], owned.
    pub fn meta(&mut self) -> io::Result<MetricMeta> {
        self.meta_ref().map(|m| m.to_meta())
    }
}

// ---------------------------------------------------- records and batches

/// The spec revision this build writes and reads, `[major, minor]`: what
/// the ingest handshake's `HELLO` and `HELLO_ACK` carry, so that a writer
/// codes each run the newest way its reader reads ([`Coding::for_revision`]).
pub const REVISION: [u8; 2] = [1, 4];

/// How a stream's writer codes its runs of samples: the newest way the
/// stream's reader reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Coding {
    /// 1.2: `samples` records, every value whole. Needs no state and
    /// leaves none: what every reader reads.
    #[default]
    Whole,
    /// 1.3: `samples_delta` records, values coded against the stream's
    /// [`ValueState`].
    Deltas,
    /// 1.4: as [`Coding::Deltas`], but a run of at least two samples
    /// whose ids and times are each one arithmetic progression is a
    /// `sweep` record.
    Sweeps,
}

impl Coding {
    /// The coding for a reader that says it reads `revision` — `None`
    /// from a reader older than 1.3, which says nothing.
    pub fn for_revision(revision: Option<[u8; 2]>) -> Self {
        match revision {
            Some(r) if r >= [1, 4] => Coding::Sweeps,
            Some(r) if r >= [1, 3] => Coding::Deltas,
            _ => Coding::Whole,
        }
    }
}

/// Binary record kind tags (`export-wire-v1.4`). New kinds append —
/// never renumber — per the additive versioning rule.
const REC_META: u8 = 0;
/// One observation, 25 bytes. [`encode_record`] still writes it and
/// every reader accepts it; [`encode_batch`] writes `samples` instead.
const REC_SAMPLE: u8 = 1;
const REC_BUCKET: u8 = 2;
const REC_SKETCH: u8 = 3;
const REC_CHUNK: u8 = 4;
/// A packed run of observations (v1.2) — see [`put_samples`].
const REC_SAMPLES: u8 = 5;
/// A packed run whose values are XOR-coded against the stream (v1.3) —
/// see [`put_samples`] and [`ValueState`].
const REC_SAMPLES_DELTA: u8 = 6;
/// A `samples_delta` run whose ids and times are arithmetic
/// progressions, written once (v1.4) — see [`put_samples`].
const REC_SWEEP: u8 = 7;

/// Append one record in the binary rendering:
/// `[kind u8][payload len u32 LE][payload]`.
pub fn encode_record(record: &ExportRecord, out: &mut Vec<u8>) {
    let tag = match record {
        ExportRecord::Meta { .. } => REC_META,
        ExportRecord::Sample { .. } => REC_SAMPLE,
        ExportRecord::Bucket { .. } => REC_BUCKET,
        ExportRecord::Sketch { .. } => REC_SKETCH,
        ExportRecord::Chunk { .. } => REC_CHUNK,
    };
    out.push(tag);
    put_block(out, |out| match record {
        ExportRecord::Meta { id, meta } => {
            put_u32(out, id.0);
            put_meta(out, meta);
        }
        ExportRecord::Sample { id, t, value } => {
            put_u32(out, id.0);
            put_u64(out, t.0);
            put_f64(out, *value);
        }
        ExportRecord::Bucket {
            id,
            res,
            start,
            count,
            sum,
            min,
            max,
            last,
        } => {
            put_u32(out, id.0);
            put_u64(out, res.0);
            put_u64(out, start.0);
            put_u64(out, *count);
            put_f64(out, *sum);
            put_f64(out, *min);
            put_f64(out, *max);
            put_f64(out, *last);
        }
        ExportRecord::Sketch {
            id,
            res,
            start,
            entry,
        } => {
            put_u32(out, id.0);
            put_u64(out, res.0);
            put_u64(out, start.0);
            out.push(entry.sign as u8);
            put_u32(out, entry.key as u32);
            put_u64(out, entry.count);
        }
        ExportRecord::Chunk {
            id,
            count,
            first_t,
            last_t,
            bytes,
        } => put_chunk(out, *id, *count, *last_t, |out| {
            out.extend_from_slice(bytes);
            first_t.0
        }),
    });
}

/// A `chunk` record's payload: `[id u32][count u32][first_t u64]
/// [last_t u64][bytes u32-len + payload]`. `fill` appends the compressed
/// payload and returns its first timestamp, which is patched in ahead
/// of it — so a payload can be written where it lies.
fn put_chunk(
    out: &mut Vec<u8>,
    id: MetricId,
    count: u32,
    last_t: SimTime,
    fill: impl FnOnce(&mut Vec<u8>) -> u64,
) {
    put_u32(out, id.0);
    put_u32(out, count);
    let first_t_at = out.len();
    put_u64(out, 0);
    put_u64(out, last_t.0);
    let mut first_t = 0;
    put_block(out, |out| first_t = fill(out));
    out[first_t_at..first_t_at + 8].copy_from_slice(&first_t.to_le_bytes());
}

/// One record of a batch, read where it lies: the fixed-width fields by
/// value, everything variable-length — a meta's strings, a chunk's
/// payload, a `samples` run — lent from the batch's bytes. What
/// [`BatchView::records`] yields, and the borrowed twin of every
/// [`ExportRecord`] (`RecordRef::from(&record)`), so a receiver writes
/// its apply loop once for both.
#[derive(Debug, Clone)]
pub enum RecordRef<'a> {
    /// [`ExportRecord::Meta`].
    Meta {
        /// Numeric wire id.
        id: MetricId,
        /// Name, kind, unit and source domain.
        meta: MetaRef<'a>,
    },
    /// [`ExportRecord::Sample`] — one observation that travelled on its
    /// own (a v1.1 writer's rendering, or an owned record).
    Sample {
        /// Metric the sample belongs to.
        id: MetricId,
        /// Observation timestamp.
        t: SimTime,
        /// Observed value.
        value: f64,
    },
    /// A packed `samples` record: a run of observations, decoded as the
    /// run is iterated.
    Samples(SampleRun<'a>),
    /// A `samples_delta` or `sweep` record: a run whose values only the
    /// stream's [`ValueState`] can read ([`DeltaRun::values`]).
    SamplesDelta(DeltaRun<'a>),
    /// [`ExportRecord::Bucket`].
    Bucket {
        /// Metric the bucket belongs to.
        id: MetricId,
        /// Tier resolution.
        res: SimDuration,
        /// Aligned slot start.
        start: SimTime,
        /// Samples folded into the slot.
        count: u64,
        /// Sum of folded values.
        sum: f64,
        /// Minimum folded value.
        min: f64,
        /// Maximum folded value.
        max: f64,
        /// Newest folded value.
        last: f64,
    },
    /// [`ExportRecord::Sketch`].
    Sketch {
        /// Metric the bucket belongs to.
        id: MetricId,
        /// Tier resolution of the owning bucket.
        res: SimDuration,
        /// Slot start of the owning bucket.
        start: SimTime,
        /// The `(sign, key, count)` column.
        entry: SketchEntry,
    },
    /// [`ExportRecord::Chunk`], its compressed payload still in place.
    Chunk {
        /// Metric the chunk belongs to.
        id: MetricId,
        /// Samples the payload encodes.
        count: u32,
        /// First timestamp.
        first_t: SimTime,
        /// Last timestamp.
        last_t: SimTime,
        /// The compressed payload.
        bytes: &'a [u8],
    },
}

impl<'a> RecordRef<'a> {
    /// Read one record's payload — the one parser of the record
    /// grammar. `Ok(None)` is a kind this reader does not know. A
    /// sample run's payload is opened, not walked: [`SampleRun::check`]
    /// does that. `room` is how many more records the batch may hold.
    fn parse(tag: u8, payload: &'a [u8], room: usize) -> io::Result<Option<Self>> {
        let mut r = WireReader::new(payload);
        let record = match tag {
            REC_SAMPLES => {
                return SampleRun::open(payload, room, false).map(|run| Some(Self::Samples(run)))
            }
            REC_SAMPLES_DELTA | REC_SWEEP => {
                return SampleRun::open(payload, room, tag == REC_SWEEP)
                    .map(|run| Some(Self::SamplesDelta(DeltaRun(run))))
            }
            _ if tag > REC_SWEEP => return Ok(None),
            _ if room == 0 => return Err(bad_data("batch expands past MAX_BATCH_RECORDS")),
            REC_META => RecordRef::Meta {
                id: MetricId(r.u32()?),
                meta: r.meta_ref()?,
            },
            REC_SAMPLE => RecordRef::Sample {
                id: MetricId(r.u32()?),
                t: SimTime(r.u64()?),
                value: r.f64()?,
            },
            REC_BUCKET => RecordRef::Bucket {
                id: MetricId(r.u32()?),
                res: SimDuration(r.u64()?),
                start: SimTime(r.u64()?),
                count: r.u64()?,
                sum: r.f64()?,
                min: r.f64()?,
                max: r.f64()?,
                last: r.f64()?,
            },
            REC_SKETCH => RecordRef::Sketch {
                id: MetricId(r.u32()?),
                res: SimDuration(r.u64()?),
                start: SimTime(r.u64()?),
                entry: SketchEntry {
                    sign: r.u8()? as i8,
                    key: r.u32()? as i32,
                    count: r.u64()?,
                },
            },
            REC_CHUNK => RecordRef::Chunk {
                id: MetricId(r.u32()?),
                count: r.u32()?,
                first_t: SimTime(r.u64()?),
                last_t: SimTime(r.u64()?),
                bytes: r.block()?,
            },
            _ => unreachable!("tags above REC_CHUNK returned early"),
        };
        if !r.done() {
            return Err(bad_data("trailing bytes in record payload"));
        }
        Ok(Some(record))
    }

    /// Append the owned form: one [`ExportRecord`] per record, one
    /// [`ExportRecord::Sample`] per sample of a run. A `samples_delta`
    /// run is read against `state`, which takes its values — a run
    /// that, without one, is `InvalidData`.
    fn push_owned(
        self,
        out: &mut Vec<ExportRecord>,
        state: Option<&mut ValueState>,
    ) -> io::Result<()> {
        let sample = |(id, t, value)| ExportRecord::Sample { id, t, value };
        out.push(match self {
            RecordRef::Meta { id, meta } => ExportRecord::Meta {
                id,
                meta: meta.to_meta(),
            },
            RecordRef::Sample { id, t, value } => sample((id, t, value)),
            RecordRef::Samples(run) => {
                out.extend(run.map(sample));
                return Ok(());
            }
            RecordRef::SamplesDelta(run) => {
                let state = state.ok_or_else(|| bad_data(NEEDS_STATE))?;
                out.extend(run.values(state).map(sample));
                return Ok(());
            }
            RecordRef::Bucket {
                id,
                res,
                start,
                count,
                sum,
                min,
                max,
                last,
            } => ExportRecord::Bucket {
                id,
                res,
                start,
                count,
                sum,
                min,
                max,
                last,
            },
            RecordRef::Sketch {
                id,
                res,
                start,
                entry,
            } => ExportRecord::Sketch {
                id,
                res,
                start,
                entry,
            },
            RecordRef::Chunk {
                id,
                count,
                first_t,
                last_t,
                bytes,
            } => ExportRecord::Chunk {
                id,
                count,
                first_t,
                last_t,
                bytes: bytes.to_vec(),
            },
        });
        Ok(())
    }
}

impl<'a> From<&'a ExportRecord> for RecordRef<'a> {
    fn from(record: &'a ExportRecord) -> Self {
        match *record {
            ExportRecord::Meta { id, ref meta } => RecordRef::Meta {
                id,
                meta: meta.into(),
            },
            ExportRecord::Sample { id, t, value } => RecordRef::Sample { id, t, value },
            ExportRecord::Bucket {
                id,
                res,
                start,
                count,
                sum,
                min,
                max,
                last,
            } => RecordRef::Bucket {
                id,
                res,
                start,
                count,
                sum,
                min,
                max,
                last,
            },
            ExportRecord::Sketch {
                id,
                res,
                start,
                entry,
            } => RecordRef::Sketch {
                id,
                res,
                start,
                entry,
            },
            ExportRecord::Chunk {
                id,
                count,
                first_t,
                last_t,
                ref bytes,
            } => RecordRef::Chunk {
                id,
                count,
                first_t,
                last_t,
                bytes,
            },
        }
    }
}

// The `samples` control byte: `[id mode:2][time mode:2][value code:4]`.
// Mode 3 of either field is reserved; so are value codes 9–15 in a
// `samples` record, which `samples_delta` and `sweep` records give
// meaning to.
const MODE_SAME: u8 = 0;
/// Id: previous + 1. Time: previous + the run's last non-zero step.
const MODE_STEP: u8 = 1;
/// Id: a `uv` follows. Time: a zigzag `uv` delta follows.
const MODE_EXPLICIT: u8 = 2;

/// Value code of a `samples_delta` value equal to its id's previous one.
const CODE_REPEAT: u8 = 9;
/// The `(lead, kept)` shapes of an XOR that value codes 10–14 name:
/// leading zero bytes, then kept bytes, then zero bytes to the end.
/// Fitted to quantised readings — a value that moves by a few steps of a
/// coarse unit changes one to three bytes near the top of its mantissa —
/// and measured only on such streams (the benchmark generator's, where
/// 0–1.3 % of values take the escape). A full-precision value takes the
/// escape and costs up to a byte more than written whole
/// (`full_precision_values_cost_at_most_a_byte_more_as_deltas`).
const XOR_SHAPES: [(u8, u8); 5] = [(2, 1), (1, 2), (0, 3), (1, 1), (0, 2)];
/// Value code whose shape follows in a byte of its own, `lead << 4 | kept`.
const CODE_ESCAPE: u8 = 15;
/// The value code of each `(lead, kept)` shape: its name in
/// [`XOR_SHAPES`], or the escape.
const SHAPE_CODES: [[u8; 9]; 8] = {
    let mut codes = [[CODE_ESCAPE; 9]; 8];
    let mut i = 0;
    while i < XOR_SHAPES.len() {
        let (lead, kept) = XOR_SHAPES[i];
        codes[lead as usize][kept as usize] = 10 + i as u8;
        i += 1;
    }
    codes
};

/// Why a stateless reader stops at a `samples_delta` record.
const NEEDS_STATE: &str = "samples_delta needs its stream's state";

/// How one value is written: its value code, then `kept` bytes of
/// `coded` from byte `lead` (most significant first) on.
#[derive(Debug, Clone, Copy)]
struct Written {
    code: u8,
    lead: u8,
    kept: u8,
    coded: u64,
}

/// A value written whole: its bits, trailing zero bytes dropped.
#[inline]
fn whole(bits: u64) -> Written {
    let kept = 8 - (bits.trailing_zeros() / 8) as u8;
    Written {
        code: kept,
        lead: 0,
        kept,
        coded: bits,
    }
}

/// A value written as `x`, its bits XOR its id's previous value: zero
/// bytes at both ends dropped, the shape in the code when it has one.
#[inline]
fn xored(x: u64) -> Written {
    if x == 0 {
        return Written {
            code: CODE_REPEAT,
            lead: 0,
            kept: 0,
            coded: 0,
        };
    }
    let lead = (x.leading_zeros() / 8) as u8;
    let kept = 8 - lead - (x.trailing_zeros() / 8) as u8;
    let code = SHAPE_CODES[usize::from(lead)][usize::from(kept)];
    Written {
        code,
        lead,
        kept,
        coded: x,
    }
}

/// The arithmetic progressions a run's ids and times form, when the
/// whole run is one of at least two samples: ids counting up (or
/// standing) by one step without passing `u32`, times by one step
/// (wrapping in 64 bits, as every time delta does).
#[derive(Debug, Clone, Copy)]
struct Progression {
    id0: u32,
    id_step: u32,
    t0: u64,
    t_step: u64,
}

impl Progression {
    /// The progression `run` is, if it is one.
    fn of(mut run: impl Iterator<Item = (MetricId, SimTime, f64)>) -> Option<Self> {
        let (MetricId(id0), SimTime(t0), _) = run.next()?;
        let (MetricId(id1), SimTime(t1), _) = run.next()?;
        let p = Progression {
            id0,
            id_step: id1.checked_sub(id0)?,
            t0,
            t_step: t1.wrapping_sub(t0),
        };
        let (mut id, mut t) = (id1, t1);
        for (MetricId(next_id), SimTime(next_t), _) in run {
            if id.checked_add(p.id_step) != Some(next_id) || t.wrapping_add(p.t_step) != next_t {
                return None;
            }
            (id, t) = (next_id, next_t);
        }
        Some(p)
    }
}

/// Append `run` as one record — under [`Coding::Whole`] a `samples`
/// record; otherwise a `sweep` record when the whole run is one
/// [`Progression`] of at least two samples (and the coding is
/// [`Coding::Sweeps`]), else a `samples_delta` record. Each value is
/// as `write` gives it.
///
/// `samples` and `samples_delta`: `[kind][len u32 LE][count uv][count ×
/// sample]`, each sample `[control u8][id uv?][zigzag Δt uv?][shape
/// u8?][value bytes]`. The state a sample's id and time are coded
/// against (previous id, previous timestamp, last non-zero timestamp
/// step) starts at zero with every record, so those decode on their
/// own. A sweep (ids counting up at one timestamp) and one metric's tail
/// (one id at a fixed cadence) both cost the control byte plus the
/// value.
///
/// `sweep`: `[kind][len u32 LE][count uv][id0 uv][id step uv][zigzag t0
/// uv][zigzag t step uv]`, then the `count` value codes two to a byte
/// (low nibble first, an odd count's last high nibble 0), then each
/// sample's `[shape u8?][value bytes]` in order: half a byte plus the
/// value a sample.
///
/// In a `samples` record the value is [`whole`]: the most-significant
/// bytes of `to_bits()` with trailing zero bytes dropped, which is
/// bit-exact for every `f64` and 2–4 bytes for a quantised sensor
/// reading. In the other two a value whose id has a state is [`xored`]
/// instead — a repeat is no byte, a quantised reading's step usually
/// one — see [`BatchWriter::samples`].
fn put_samples(
    out: &mut Vec<u8>,
    coding: Coding,
    run: impl ExactSizeIterator<Item = (MetricId, SimTime, f64)> + Clone,
    mut write: impl FnMut(MetricId, u64) -> Written,
) {
    let sweep = match coding {
        Coding::Sweeps => Progression::of(run.clone()),
        _ => None,
    };
    out.push(match (coding, sweep) {
        (Coding::Whole, _) => REC_SAMPLES,
        (_, None) => REC_SAMPLES_DELTA,
        (_, Some(_)) => REC_SWEEP,
    });
    put_block(out, |out| {
        put_uv(out, run.len() as u64);
        if let Some(p) = sweep {
            put_uv(out, u64::from(p.id0));
            put_uv(out, u64::from(p.id_step));
            put_uv(out, zigzag(p.t0 as i64));
            put_uv(out, zigzag(p.t_step as i64));
            let codes_at = out.len();
            out.resize(codes_at + run.len().div_ceil(2), 0);
            for (i, (id, _, value)) in run.enumerate() {
                let written = write(id, value.to_bits());
                out[codes_at + i / 2] |= written.code << (4 * (i & 1));
                put_value(out, written);
            }
            return;
        }
        let (mut prev_id, mut prev_t, mut step) = (0u32, 0u64, 0i64);
        for (id, t, value) in run {
            let id_mode = if id.0 == prev_id {
                MODE_SAME
            } else if prev_id.checked_add(1) == Some(id.0) {
                MODE_STEP
            } else {
                MODE_EXPLICIT
            };
            let dt = t.0.wrapping_sub(prev_t) as i64;
            let t_mode = match dt {
                0 => MODE_SAME,
                _ if dt == step => MODE_STEP,
                _ => MODE_EXPLICIT,
            };
            let written = write(id, value.to_bits());
            out.push(id_mode << 6 | t_mode << 4 | written.code);
            if id_mode == MODE_EXPLICIT {
                put_uv(out, u64::from(id.0));
            }
            if t_mode == MODE_EXPLICIT {
                put_uv(out, zigzag(dt));
            }
            if dt != 0 {
                step = dt;
            }
            put_value(out, written);
            (prev_id, prev_t) = (id.0, t.0);
        }
    });
}

/// Append what follows a value's code: the escape's shape byte, then
/// the kept bytes.
#[inline(always)]
fn put_value(out: &mut Vec<u8>, w: Written) {
    if w.code == CODE_ESCAPE {
        out.push(w.lead << 4 | w.kept);
    }
    // All eight bytes from the first kept one, then the dropped ones off
    // again: a fixed-width copy, not a variable-length one.
    let end = out.len() + usize::from(w.kept);
    out.extend_from_slice(&(w.coded << (8 * u32::from(w.lead))).to_be_bytes());
    out.truncate(end);
}

/// Why reading a view's bytes again cannot fail: only
/// [`BatchView::parse`] builds one, after walking every byte.
const VALIDATED: &str = "BatchView::parse validated these bytes";

/// Why reading a delta value against a state cannot fail: the view was
/// checked against it ([`BatchView::check_values`]) first.
const CHECKED: &str = "BatchView::check_values vouched for this state";

/// One sample's value as its record codes it.
#[derive(Debug, Clone, Copy)]
enum Coded {
    /// The value's bits.
    Bits(u64),
    /// The value's bits XOR its id's previous value in the stream.
    Xor(u64),
}

/// The samples of one `samples`, `samples_delta` or `sweep` record,
/// decoded one at a time off its payload. Lent by a [`BatchView`],
/// whose full walk has already shown every step to succeed. A `samples`
/// run is an iterator of observations; a `samples_delta` or `sweep` run
/// is read through [`DeltaRun::values`].
#[derive(Debug, Clone)]
pub struct SampleRun<'a> {
    r: WireReader<'a>,
    left: usize,
    id: u32,
    t: u64,
    step: i64,
    /// Whether the value [`SampleRun::step`] gave last is an XOR (only
    /// ever in a `samples_delta` or `sweep` run).
    xor: bool,
    /// A `sweep` run's value codes; `None` in a run whose samples each
    /// carry a control byte.
    column: Option<CodeColumn<'a>>,
}

/// A `sweep` run's value codes, two to a byte, low nibble first, and
/// the step its ids count by (its time step is the run's `step`).
#[derive(Debug, Clone)]
struct CodeColumn<'a> {
    codes: &'a [u8],
    next: usize,
    id_step: u32,
}

impl CodeColumn<'_> {
    /// The next sample's value code.
    #[inline(always)]
    fn take(&mut self) -> u8 {
        let code = self.codes[self.next / 2] >> (4 * (self.next & 1)) & 0x0F;
        self.next += 1;
        code
    }
}

impl<'a> SampleRun<'a> {
    /// Read the run's header — a `sweep`'s progressions and code column
    /// included. The declared count is checked against the bytes that
    /// are left (a sample is at least its control byte, in a sweep its
    /// code's half byte) and against `room` before anyone sizes anything
    /// by it.
    fn open(payload: &'a [u8], room: usize, sweep: bool) -> io::Result<Self> {
        let mut r = WireReader::new(payload);
        let count = r.uv()?;
        let per_byte = if sweep { 2 } else { 1 };
        if count > per_byte * r.remaining() as u64 {
            return Err(bad_data("samples count exceeds its payload"));
        }
        let left = count as usize;
        if left > room {
            return Err(bad_data("batch expands past MAX_BATCH_RECORDS"));
        }
        let mut run = SampleRun {
            r,
            left,
            id: 0,
            t: 0,
            step: 0,
            xor: false,
            column: None,
        };
        if sweep {
            run.open_sweep()?;
        }
        Ok(run)
    }

    /// Read a `sweep` header: the first id and the id step (every id of
    /// the run within `u32`), the first time and the time step, and the
    /// code column (an odd count's padding nibble zero). The run's state
    /// is left one step before its first sample.
    fn open_sweep(&mut self) -> io::Result<()> {
        let r = &mut self.r;
        let (id0, id_step) = (r.uv()?, r.uv()?);
        let last_id = (self.left as u64)
            .saturating_sub(1)
            .checked_mul(id_step)
            .and_then(|span| span.checked_add(id0));
        if last_id.is_none_or(|last| last > u64::from(u32::MAX)) {
            return Err(bad_data("sample id past u32"));
        }
        let (t0, t_step) = (unzigzag(r.uv()?) as u64, unzigzag(r.uv()?));
        let codes = r.take(self.left.div_ceil(2))?;
        if self.left % 2 == 1 && codes[codes.len() - 1] >> 4 != 0 {
            return Err(bad_data("non-zero padding nibble in sweep codes"));
        }
        // Only a run of one may name a step past `u32`, which it never
        // takes: the truncated step still steps back to its one id.
        let id_step = id_step as u32;
        self.id = (id0 as u32).wrapping_sub(id_step);
        self.t = t0.wrapping_sub(t_step as u64);
        self.step = t_step;
        self.column = Some(CodeColumn {
            codes,
            next: 0,
            id_step,
        });
        Ok(())
    }

    /// Decode the next sample — the one walk of the `samples` and (for
    /// `DELTA`) `samples_delta` and `sweep` grammar, under the validating
    /// pass and the iterators alike: its id, its time, and its value's
    /// bits — or, when it leaves `xor` set, their XOR with its id's
    /// previous value.
    // Forced: `check`, the iterators and the state's walks each want
    // their own copy of this loop body (a call per sample costs a
    // fifth of a sweep's view).
    #[inline(always)]
    fn step<const DELTA: bool>(&mut self) -> io::Result<(MetricId, SimTime, u64)> {
        let code = match &mut self.column {
            // Only a `sweep` has a column, and it is always read as a
            // delta run: a `samples` walk does not look.
            Some(column) if DELTA => {
                self.id = self.id.wrapping_add(column.id_step);
                self.t = self.t.wrapping_add(self.step as u64);
                column.take()
            }
            _ => self.control()?,
        };
        let bits = if code <= 8 {
            self.value(code)?
        } else if DELTA {
            self.xor_value(code)?
        } else {
            return Err(bad_data("reserved sample value length"));
        };
        if DELTA {
            self.xor = code > 8;
        }
        Ok((MetricId(self.id), SimTime(self.t), bits))
    }

    /// A `samples` or `samples_delta` sample's control byte and the
    /// explicit fields it calls for: the sample's id and time taken, its
    /// value code returned.
    #[inline(always)]
    fn control(&mut self) -> io::Result<u8> {
        let control = self.r.u8()?;
        match control >> 6 {
            MODE_SAME => {}
            MODE_STEP => {
                self.id = self
                    .id
                    .checked_add(1)
                    .ok_or_else(|| bad_data("sample id past u32"))?;
            }
            MODE_EXPLICIT => {
                self.id =
                    u32::try_from(self.r.uv()?).map_err(|_| bad_data("sample id past u32"))?;
            }
            _ => return Err(bad_data("reserved sample id mode")),
        }
        match (control >> 4) & 0b11 {
            MODE_SAME => {}
            MODE_STEP => self.t = self.t.wrapping_add(self.step as u64),
            MODE_EXPLICIT => {
                let dt = unzigzag(self.r.uv()?);
                if dt != 0 {
                    self.step = dt;
                }
                self.t = self.t.wrapping_add(dt as u64);
            }
            _ => return Err(bad_data("reserved sample time mode")),
        }
        Ok(control & 0x0F)
    }

    /// The value field of a `samples_delta` value code 9–15: the XOR.
    #[inline(always)]
    fn xor_value(&mut self, code: u8) -> io::Result<u64> {
        let (lead, kept) = match code {
            CODE_REPEAT => return Ok(0),
            CODE_ESCAPE => {
                let shape = self.r.u8()?;
                let (lead, kept) = (shape >> 4, shape & 0x0F);
                if kept == 0 || lead + kept > 8 {
                    return Err(bad_data("reserved sample value shape"));
                }
                (lead, kept)
            }
            _ => XOR_SHAPES[usize::from(code - 10)],
        };
        Ok(self.value(kept)? >> (8 * u32::from(lead)))
    }

    /// The next `kept` bytes as the most significant of a word, the rest
    /// zero. One eight-byte load, the bytes past the value masked off —
    /// the mirror of the writer's fixed-width copy. Only a value ending
    /// within the payload's last eight bytes takes the short copy.
    #[inline(always)]
    fn value(&mut self, kept: u8) -> io::Result<u64> {
        let r = &mut self.r;
        let kept = usize::from(kept);
        Ok(match r.buf.get(r.pos..r.pos + 8) {
            Some(word) => {
                r.pos += kept;
                let mask = !u64::MAX.checked_shr(8 * kept as u32).unwrap_or(0);
                u64::from_be_bytes(word.try_into().expect("eight bytes")) & mask
            }
            None => {
                let mut be = [0u8; 8];
                be[..kept].copy_from_slice(r.take(kept)?);
                u64::from_be_bytes(be)
            }
        })
    }

    /// Walk a copy of the run to its end: every sample well-formed and
    /// nothing after the last one. Returns the sample count.
    /// `xor_ids` is raised past every id whose value is an XOR.
    fn check<const DELTA: bool>(&self, xor_ids: &mut u32) -> io::Result<usize> {
        let mut run = self.clone();
        for _ in 0..run.left {
            let (id, ..) = run.step::<DELTA>()?;
            if DELTA && run.xor {
                *xor_ids = (*xor_ids).max(id.0.saturating_add(1));
            }
        }
        if !run.r.done() {
            return Err(bad_data("trailing bytes in samples payload"));
        }
        Ok(self.left)
    }

    /// The next sample of a `samples_delta` run, as it codes it.
    #[inline(always)]
    fn next_coded(&mut self) -> Option<(MetricId, SimTime, Coded)> {
        self.left = self.left.checked_sub(1)?;
        let (id, t, bits) = self.step::<true>().expect(VALIDATED);
        Some((
            id,
            t,
            if self.xor {
                Coded::Xor(bits)
            } else {
                Coded::Bits(bits)
            },
        ))
    }
}

impl Iterator for SampleRun<'_> {
    type Item = (MetricId, SimTime, f64);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        let (id, t, bits) = self.step::<false>().expect(VALIDATED);
        Some((id, t, f64::from_bits(bits)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for SampleRun<'_> {}

/// The samples of one `samples_delta` or `sweep` record: ids and times
/// as a [`SampleRun`]'s, values that only the stream's [`ValueState`]
/// reads.
#[derive(Debug, Clone)]
pub struct DeltaRun<'a>(SampleRun<'a>);

impl<'a> DeltaRun<'a> {
    /// Samples in the run.
    pub fn len(&self) -> usize {
        self.0.left
    }

    /// Whether the run holds no sample.
    pub fn is_empty(&self) -> bool {
        self.0.left == 0
    }

    /// The run's observations, each value read against `state` — which
    /// takes it, so the next is read against the stream as it now
    /// stands. The batch must have been checked against `state`
    /// ([`BatchView::check_values`]); a value `state` cannot read panics.
    pub fn values<'s>(self, state: &'s mut ValueState) -> DeltaValues<'a, 's> {
        DeltaValues { run: self.0, state }
    }
}

/// Iterator of [`DeltaRun::values`].
#[derive(Debug)]
pub struct DeltaValues<'a, 's> {
    run: SampleRun<'a>,
    state: &'s mut ValueState,
}

impl Iterator for DeltaValues<'_, '_> {
    type Item = (MetricId, SimTime, f64);

    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        let (id, t, coded) = self.run.next_coded()?;
        let bits = self.state.take(id, coded).expect(CHECKED);
        Some((id, t, f64::from_bits(bits)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.run.left, Some(self.run.left))
    }
}

impl ExactSizeIterator for DeltaValues<'_, '_> {}

/// Wire ids from this one on keep no [`ValueState`]: their values are
/// always coded whole. Bounds the state a stream can make its reader
/// keep at 16 MiB.
pub const MAX_VALUE_IDS: u32 = 1 << 20;

/// The state `samples_delta` and `sweep` values are coded against: per
/// wire id of one stream, the bits of the last value a record of either
/// kind of the stream carried for it, if one did. Each end of a connection
/// keeps one, and both keep it by the same rule, so they agree batch
/// after batch:
///
/// * every sample of a `samples_delta` or `sweep` record — of every
///   batch taken, a duplicate's too — leaves its value as its id's
///   state; no other record touches it (a 1.3 or 1.4 writer sends every
///   run as one of the two);
/// * a value whose id has a state is written as that state XOR its bits,
///   any other whole — so a delta for an id with no state is refused;
/// * a new connection starts empty ([`ValueState::reset`]).
///
/// Two states are equal when they hold the same bits for the same ids.
#[derive(Debug, Clone, Default)]
pub struct ValueState {
    last: Vec<Option<u64>>,
    /// Every id below this one has a state.
    dense: u32,
    /// Ids [`BatchView::check_values`] marked known while it walks: all
    /// unmarked again before it returns.
    marked: Vec<u32>,
}

impl PartialEq for ValueState {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for ValueState {}

impl ValueState {
    /// An empty state: what every connection starts from.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget every value (a new connection), keeping the allocation.
    pub fn reset(&mut self) {
        self.last.clear();
        self.dense = 0;
    }

    /// The bits of the last value a `samples_delta` or `sweep` record
    /// of the stream carried for `id`.
    #[inline]
    pub fn get(&self, id: MetricId) -> Option<u64> {
        self.last.get(id.index()).copied().flatten()
    }

    /// The stream carried `bits` for `id`.
    #[inline]
    pub fn set(&mut self, id: MetricId, bits: u64) {
        self.replace(id, bits);
    }

    /// [`ValueState::set`], returning what `id` held before.
    #[inline]
    fn replace(&mut self, id: MetricId, bits: u64) -> Option<u64> {
        if id.0 >= MAX_VALUE_IDS {
            return None;
        }
        let i = id.index();
        if i >= self.last.len() {
            self.last.resize(i + 1, None);
        }
        let was = self.last[i].replace(bits);
        if id.0 == self.dense {
            while self
                .last
                .get(self.dense as usize)
                .is_some_and(Option::is_some)
            {
                self.dense += 1;
            }
        }
        was
    }

    /// Take a coded value: its bits, now `id`'s state — or `None` for a
    /// delta this state cannot read, which leaves it as it was.
    #[inline(always)]
    fn take(&mut self, id: MetricId, coded: Coded) -> Option<u64> {
        match coded {
            Coded::Bits(bits) => {
                self.set(id, bits);
                Some(bits)
            }
            Coded::Xor(x) => {
                let slot = self.last.get_mut(id.index())?;
                let bits = (*slot)? ^ x;
                *slot = Some(bits);
                Some(bits)
            }
        }
    }

    /// Mark `id` known for [`BatchView::check_values`], if it is not.
    #[inline]
    fn mark(&mut self, id: MetricId) {
        if self.get(id).is_none() && id.0 < MAX_VALUE_IDS {
            self.set(id, 0);
            self.marked.push(id.0);
        }
    }

    /// Every id with a state and its bits, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (MetricId, u64)> + '_ {
        self.last
            .iter()
            .enumerate()
            .filter_map(|(i, bits)| Some((MetricId(i as u32), (*bits)?)))
    }

    /// Take the state back to before `batch`, a batch written against it
    /// by [`encode_batch_with`]: walking its samples from the last, a
    /// delta's XOR gives the value before it, and a whole value was
    /// written because its id had no state. How a sender that must
    /// re-send recovers what it sent.
    pub fn unwind(&mut self, batch: &[u8]) -> io::Result<()> {
        let view = BatchView::parse(batch)?;
        let mut coded = Vec::with_capacity(view.record_count());
        for record in view.records() {
            if let RecordRef::SamplesDelta(DeltaRun(mut run)) = record {
                coded.extend(std::iter::from_fn(|| run.next_coded()));
            }
        }
        for (id, _, coded) in coded.into_iter().rev() {
            match coded {
                Coded::Bits(_) => {
                    if let Some(slot) = self.last.get_mut(id.index()) {
                        *slot = None;
                        self.dense = self.dense.min(id.0);
                    }
                }
                Coded::Xor(x) => {
                    let bits = self.get(id).ok_or_else(|| bad_data(NEEDS_STATE))?;
                    self.set(id, bits ^ x);
                }
            }
        }
        Ok(())
    }
}

/// A batch read where it lies. Only [`BatchView::parse`] builds one,
/// and only after walking every byte under every bound the format has
/// — record lengths, string encodings, tag values, each `samples` run
/// to its last sample, [`MAX_BATCH_RECORDS`] — without allocating; so
/// the bytes can be logged as they are and the records applied straight
/// off them.
#[derive(Debug, Clone, Copy)]
pub struct BatchView<'a> {
    bytes: &'a [u8],
    seq: u64,
    wire_records: u32,
    records: usize,
    unknown: u64,
    /// One past the largest id whose value is an XOR, 0 if none: a
    /// state that holds every id below it reads the batch as it stands.
    xor_ids: u32,
}

impl<'a> BatchView<'a> {
    /// Validate `bytes` as one batch written by [`encode_batch`] or
    /// [`encode_batch_with`] (or record by record with [`encode_record`],
    /// as v1.1 writers did). Validation needs no stream state: whether a
    /// `samples_delta` or `sweep` value can be read is
    /// [`BatchView::check_values`].
    /// Records of a kind unknown to this reader are length-skipped and
    /// counted ([`BatchView::unknown_records`]), never an error — the
    /// additive-kinds contract. A batch that would expand past
    /// [`MAX_BATCH_RECORDS`] records is refused: sample runs are the
    /// kinds whose decoded size is not bounded by their own length.
    pub fn parse(bytes: &'a [u8]) -> io::Result<Self> {
        let mut r = WireReader::new(bytes);
        let seq = r.u64()?;
        let wire_records = r.u32()?;
        let (mut records, mut unknown, mut xor_ids) = (0usize, 0u64, 0u32);
        for _ in 0..wire_records {
            let tag = r.u8()?;
            let payload = r.block()?;
            match RecordRef::parse(tag, payload, MAX_BATCH_RECORDS - records)? {
                None => unknown += 1,
                Some(RecordRef::Samples(run)) => records += run.check::<false>(&mut xor_ids)?,
                Some(RecordRef::SamplesDelta(DeltaRun(run))) => {
                    records += run.check::<true>(&mut xor_ids)?
                }
                Some(_) => records += 1,
            }
        }
        if !r.done() {
            return Err(bad_data("trailing bytes after batch records"));
        }
        Ok(BatchView {
            bytes,
            seq,
            wire_records,
            records,
            unknown,
            xor_ids,
        })
    }

    /// The batch's sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Records the batch expands to (a `samples` run counts each of its
    /// samples; unknown kinds count nothing).
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Records skipped because their kind tag is unknown to this
    /// reader: a newer writer's additive kinds.
    pub fn unknown_records(&self) -> u64 {
        self.unknown
    }

    /// The validated bytes, exactly as they were handed to
    /// [`BatchView::parse`].
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The known-kind records, in wire order.
    pub fn records(&self) -> Records<'a> {
        Records {
            r: WireReader {
                buf: self.bytes,
                pos: 12,
            },
            left: self.wire_records,
        }
    }

    /// The owned batch: what [`decode_batch`] returns. A batch holding a
    /// `samples_delta` or `sweep` record is `InvalidData` here: its
    /// values are only readable against the stream's state
    /// ([`BatchView::to_batch_with`]).
    pub fn to_batch(&self) -> io::Result<ExportBatch> {
        self.owned(None)
    }

    /// The owned batch of a stream whose reader keeps `state`: every
    /// value checked against it first ([`BatchView::check_values`]),
    /// then read, each delta run's values left as their ids' states. On
    /// `Err` `state` is as it was.
    pub fn to_batch_with(&self, state: &mut ValueState) -> io::Result<ExportBatch> {
        self.check_values(state)?;
        self.owned(Some(state))
    }

    fn owned(&self, mut state: Option<&mut ValueState>) -> io::Result<ExportBatch> {
        let mut records = Vec::with_capacity(self.records);
        for record in self.records() {
            record.push_owned(&mut records, state.as_deref_mut())?;
        }
        Ok(ExportBatch {
            seq: self.seq,
            records,
        })
    }

    /// Whether every value of the batch can be read against `state`, the
    /// stream's as it stands before the batch: `InvalidData` for a delta
    /// whose id has no state by then — none before the batch and no
    /// whole value of its own earlier in it. `state` is as it was either
    /// way.
    pub fn check_values(&self, state: &mut ValueState) -> io::Result<()> {
        // A stream whose ids below every XOR'd one all have a state —
        // a live one, after its first batch — needs no walk.
        if self.xor_ids <= state.dense {
            return Ok(());
        }
        let dense = state.dense;
        let verdict = self.mark_values(state);
        for id in state.marked.drain(..) {
            state.last[id as usize] = None;
        }
        state.dense = dense;
        verdict
    }

    /// [`BatchView::check_values`]'s walk: each id a whole value gives a
    /// state to is marked known as it goes.
    fn mark_values(&self, state: &mut ValueState) -> io::Result<()> {
        for record in self.records() {
            if let RecordRef::SamplesDelta(DeltaRun(mut run)) = record {
                while let Some((id, _, coded)) = run.next_coded() {
                    match coded {
                        Coded::Bits(_) => state.mark(id),
                        Coded::Xor(_) if state.get(id).is_none() => {
                            return Err(bad_data(NEEDS_STATE))
                        }
                        Coded::Xor(_) => {}
                    }
                }
            }
        }
        Ok(())
    }
}

/// Iterator over a [`BatchView`]'s records.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    r: WireReader<'a>,
    left: u32,
}

impl<'a> Iterator for Records<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        while self.left > 0 {
            self.left -= 1;
            let tag = self.r.u8().expect(VALIDATED);
            let payload = self.r.block().expect(VALIDATED);
            if let Some(record) = RecordRef::parse(tag, payload, usize::MAX).expect(VALIDATED) {
                return Some(record);
            }
        }
        None
    }
}

/// A batch written where it will lie, one wire record at a time:
/// `[seq u64 LE][record count u32 LE][records…]`, the count kept current
/// as records are added. The one writer of the batch grammar —
/// [`encode_batch`] renders an [`ExportBatch`] through it, packing its
/// sample runs, and a writer holding no owned records (a snapshot's raw
/// sections) writes chunk payloads straight off what holds them.
#[derive(Debug)]
pub struct BatchWriter<'a> {
    out: &'a mut Vec<u8>,
    count_at: usize,
    records: u32,
}

impl<'a> BatchWriter<'a> {
    /// Start batch `seq` at the end of `out`.
    pub fn new(out: &'a mut Vec<u8>, seq: u64) -> Self {
        put_u64(out, seq);
        let count_at = out.len();
        put_u32(out, 0);
        BatchWriter {
            out,
            count_at,
            records: 0,
        }
    }

    /// One more wire record written.
    fn counted(&mut self) {
        self.records += 1;
        self.out[self.count_at..self.count_at + 4].copy_from_slice(&self.records.to_le_bytes());
    }

    /// Append one record as [`encode_record`] renders it.
    fn record(&mut self, record: &ExportRecord) {
        encode_record(record, self.out);
        self.counted();
    }

    /// Append `run` — what a [`SampleRun`] yields back — as one record
    /// in `coding`: a `samples` record, or one coded against the
    /// stream's `state` ([`put_samples`] picks `samples_delta` or
    /// `sweep`), which takes its values.
    fn samples(
        &mut self,
        run: impl ExactSizeIterator<Item = (MetricId, SimTime, f64)> + Clone,
        coding: Coding,
        state: &mut ValueState,
    ) {
        match coding {
            Coding::Whole => put_samples(self.out, coding, run, |_, bits| whole(bits)),
            // A value whose id has a state is XOR-coded against it, any
            // other whole; either way the state takes it.
            Coding::Deltas | Coding::Sweeps => put_samples(self.out, coding, run, |id, bits| {
                match state.replace(id, bits) {
                    Some(prev) => xored(prev ^ bits),
                    None => whole(bits),
                }
            }),
        }
        self.counted();
    }

    /// Append a `chunk` record of `count` samples ending at `last_t`:
    /// `fill` appends the compressed payload and returns its first
    /// timestamp.
    pub fn chunk(
        &mut self,
        id: MetricId,
        count: u32,
        last_t: SimTime,
        fill: impl FnOnce(&mut Vec<u8>) -> u64,
    ) {
        self.out.push(REC_CHUNK);
        put_block(self.out, |out| put_chunk(out, id, count, last_t, fill));
        self.counted();
    }
}

/// Encode a whole batch:
/// `[seq u64 LE][record count u32 LE][records…]`. Every maximal run of
/// consecutive [`ExportRecord::Sample`] is written as **one** `samples`
/// record, so the count in the header counts *wire* records, not
/// `batch.records`; [`decode_batch`] gives the same records back. Needs
/// no state and leaves none: the rendering any reader reads
/// ([`Coding::Whole`]).
pub fn encode_batch(batch: &ExportBatch, out: &mut Vec<u8>) {
    encode_batch_as(batch, Coding::Whole, &mut ValueState::new(), out);
}

/// [`encode_batch`] for a stream whose writer keeps `state`, as this
/// build's revision writes it ([`Coding::Sweeps`]): each run of samples
/// is one `sweep` or `samples_delta` record, its values coded against
/// `state`, which takes them. The reader must keep the same state
/// ([`BatchView::to_batch_with`], [`decode_batch_with`]).
pub fn encode_batch_with(batch: &ExportBatch, state: &mut ValueState, out: &mut Vec<u8>) {
    encode_batch_as(batch, Coding::Sweeps, state, out);
}

/// Encode `batch` for a reader of an older revision, or of this one:
/// its runs of samples in `coding`, coded against `state` unless that
/// is [`Coding::Whole`], which leaves `state` alone.
pub fn encode_batch_as(
    batch: &ExportBatch,
    coding: Coding,
    state: &mut ValueState,
    out: &mut Vec<u8>,
) {
    let mut w = BatchWriter::new(out, batch.seq);
    let sample = |r: &ExportRecord| match *r {
        ExportRecord::Sample { id, t, value } => Some((id, t, value)),
        _ => None,
    };
    // Maximal runs of samples; every other record is a group of its own.
    for group in batch
        .records
        .chunk_by(|a, b| sample(a).is_some() && sample(b).is_some())
    {
        if sample(&group[0]).is_some() {
            let run = group.iter().map(|r| sample(r).expect("a run of samples"));
            w.samples(run, coding, state);
        } else {
            w.record(&group[0]);
        }
    }
}

/// Decode a batch into owned records: [`BatchView::parse`], then
/// [`BatchView::to_batch`]. Returns the batch plus the number of
/// records skipped because their kind tag is unknown to this reader. A
/// batch holding a `samples_delta` or `sweep` record is `InvalidData`:
/// see [`decode_batch_with`].
pub fn decode_batch(buf: &[u8]) -> io::Result<(ExportBatch, u64)> {
    let view = BatchView::parse(buf)?;
    Ok((view.to_batch()?, view.unknown_records()))
}

/// [`decode_batch`] for a stream whose reader keeps `state`:
/// [`BatchView::parse`], then [`BatchView::to_batch_with`].
pub fn decode_batch_with(buf: &[u8], state: &mut ValueState) -> io::Result<(ExportBatch, u64)> {
    let view = BatchView::parse(buf)?;
    Ok((view.to_batch_with(state)?, view.unknown_records()))
}

/// Encode [`DrainStats`] (the exporter-side counters a node reports at
/// end of stream so the aggregator can judge drain lag).
pub fn encode_drain_stats(stats: &DrainStats, out: &mut Vec<u8>) {
    for v in [
        stats.batches,
        stats.records,
        stats.samples,
        stats.chunks,
        stats.buckets,
        stats.sketch_entries,
        stats.metas,
        stats.missed_samples,
        stats.missed_buckets,
        stats.lock_held_ns,
        stats.max_lock_held_ns,
        stats.send_retries,
    ] {
        put_u64(out, v);
    }
}

/// Decode [`DrainStats`] encoded by [`encode_drain_stats`].
pub fn decode_drain_stats(buf: &[u8]) -> io::Result<DrainStats> {
    let mut r = WireReader::new(buf);
    let stats = DrainStats {
        batches: r.u64()?,
        records: r.u64()?,
        samples: r.u64()?,
        chunks: r.u64()?,
        buckets: r.u64()?,
        sketch_entries: r.u64()?,
        metas: r.u64()?,
        missed_samples: r.u64()?,
        missed_buckets: r.u64()?,
        lock_held_ns: r.u64()?,
        max_lock_held_ns: r.u64()?,
        // Added after the first wire revision: a stream recorded before
        // retrying sinks surfaced their redelivery counters simply ends
        // here, so the field is optional-trailing rather than required.
        send_retries: if r.done() { 0 } else { r.u64()? },
    };
    if !r.done() {
        return Err(bad_data("trailing bytes in drain stats"));
    }
    Ok(stats)
}

// ---------------------------------------------------------------- frames

/// Fold `bytes` into a running CRC-32 state (pre-inversion; start from
/// `!0`, finish with `!state`). Slicing-by-16: `CRC_TABLES[0]` is the
/// classic bytewise table and `CRC_TABLES[k]` carries a byte `k`
/// positions further through the register, so sixteen input bytes fold
/// in one step of sixteen independent lookups instead of sixteen
/// dependent ones; what is left folds eight at a time, then byte by
/// byte. Every batch byte passes through here once per hop (socket
/// write, socket read, WAL append, recovery), and every snapshot byte
/// once per cut, which is why the step width matters.
fn crc32_fold(mut c: u32, bytes: &[u8]) -> u32 {
    let (blocks, rest) = bytes.as_chunks::<16>();
    for block in blocks {
        c = crc32_step(c, block);
    }
    let (words, rest) = rest.as_chunks::<8>();
    for word in words {
        c = crc32_step(c, word);
    }
    for &b in rest {
        c = crc32_step(c, &[b]) ^ (c >> 8);
    }
    c
}

/// The register after folding in one `N`-byte step: byte `i` is looked
/// up `N - 1 - i` positions from the register's end. The register's
/// four bytes enter with the step's first four; for `N < 4` the caller
/// shifts in the bytes the step left over.
#[inline(always)]
fn crc32_step<const N: usize>(c: u32, block: &[u8; N]) -> u32 {
    let register = c.to_le_bytes();
    let mut folded = 0;
    for (i, &b) in block.iter().enumerate() {
        let b = if i < 4 { b ^ register[i] } else { b };
        folded ^= CRC_TABLES[N - 1 - i][usize::from(b)];
    }
    folded
}

/// The slicing tables of [`crc32_fold`].
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven
/// slicing-by-16. Protects every frame against torn writes and bit rot.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_fold(!0, bytes)
}

/// The checksum a frame carries: CRC-32 over `[tag][payload]`, folded
/// through one running state so neither side has to join them — or the
/// pieces a writer holds the payload in — first.
fn frame_crc(tag: u8, payload: &[&[u8]]) -> u32 {
    !payload
        .iter()
        .fold(crc32_fold(!0, &[tag]), |c, part| crc32_fold(c, part))
}

/// The frame tags spoken inside the [`write_frame`] envelope by the
/// `moda` socket protocols (`export-wire-v1.4`). The envelope itself is
/// tag-agnostic; this registry exists so the protocols layered on it —
/// fleet ingest sessions and the query/serving sessions next to them —
/// can never collide on a tag value. Tags are **additive**: a value,
/// once shipped, is never reused for a different meaning, and decoders
/// treat unknown tags as an error on their session (fail closed), not
/// as something to skip.
///
/// The fleet write-ahead log reuses the same envelope with its own tag
/// space starting at 32 (`moda-fleet`'s `persist` module) — disk frames
/// and socket frames never flow through the same session, but keeping
/// the ranges disjoint makes a misfiled frame diagnosable.
pub mod frame_tag {
    /// Ingest session hello: auth token + node name.
    pub const HELLO: u8 = 1;
    /// Ingest hello response: status + persisted session cursor.
    pub const HELLO_ACK: u8 = 2;
    /// One encoded export batch.
    pub const BATCH: u8 = 3;
    /// Cumulative apply acknowledgement.
    pub const ACK: u8 = 4;
    /// Out-of-band exporter drain report.
    pub const DRAIN: u8 = 5;
    /// Query session hello: auth token (read-only sessions — no node
    /// registration, so a dashboard can never look like a silent node).
    pub const QUERY_HELLO: u8 = 6;
    /// Query hello response: status + query protocol version.
    pub const QUERY_HELLO_ACK: u8 = 7;
    /// One query request: request id (`u64` LE) + encoded request.
    pub const QUERY: u8 = 8;
    /// One query response: request id (`u64` LE) + encoded response.
    pub const QUERY_RESP: u8 = 9;
}

/// Write one self-delimiting frame:
/// `[len u32 LE][tag u8][payload][crc32 u32 LE]` where `len` counts
/// tag + payload and the CRC covers the same span.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    write_frame_parts(w, tag, &[payload])
}

/// [`write_frame`] for a payload held in pieces (a prefix built here,
/// a body received from elsewhere): the frame written is the one their
/// concatenation would give, without joining them.
pub fn write_frame_parts(w: &mut impl Write, tag: u8, payload: &[&[u8]]) -> io::Result<()> {
    let len: usize = payload.iter().map(|part| part.len()).sum();
    let mut head = [0u8; 5];
    head[..4].copy_from_slice(&((len + 1) as u32).to_le_bytes());
    head[4] = tag;
    w.write_all(&head)?;
    for part in payload {
        w.write_all(part)?;
    }
    w.write_all(&frame_crc(tag, payload).to_le_bytes())
}

/// Why a frame read stopped without producing a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameEnd {
    /// Clean end of stream: EOF exactly on a frame boundary.
    Clean,
    /// EOF inside a frame — a torn tail (interrupted append or cut
    /// connection). Everything before it is intact.
    Torn,
    /// The frame was fully present but its CRC did not match, or its
    /// length prefix was absurd — corruption, not truncation.
    Corrupt,
}

/// What the front of a byte slice holds, as far as the envelope goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameParse<'a> {
    /// A whole frame whose CRC matches.
    Frame {
        /// The frame tag.
        tag: u8,
        /// The payload, borrowed from the input.
        payload: &'a [u8],
        /// Bytes of the input the frame occupies (envelope included).
        consumed: usize,
    },
    /// The slice ends inside a frame. `total` is how many bytes that
    /// frame occupies once its length prefix is known (and sane), `4`
    /// while even the prefix is incomplete.
    Incomplete {
        /// Bytes needed from the start of the slice for the next verdict.
        total: usize,
    },
    /// Zero or oversize length prefix, or a CRC mismatch.
    Corrupt,
}

/// Parse the front of `buf` as one frame — **the** envelope parser:
/// the length-prefix sanity rule and the frame geometry are decided
/// here and nowhere else, the checksum span in `frame_crc` next to it.
pub fn parse_frame(buf: &[u8]) -> FrameParse<'_> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return FrameParse::Incomplete { total: 4 };
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return FrameParse::Corrupt;
    }
    let total = 4 + len + 4;
    if buf.len() < total {
        return FrameParse::Incomplete { total };
    }
    let (tag, payload) = (buf[4], &buf[5..4 + len]);
    let crc = u32::from_le_bytes(
        buf[4 + len..total]
            .try_into()
            .expect("slice is exactly the 4-byte trailer"),
    );
    if frame_crc(tag, &[payload]) != crc {
        return FrameParse::Corrupt;
    }
    FrameParse::Frame {
        tag,
        payload,
        consumed: total,
    }
}

/// Read one frame written by [`write_frame`]. `Ok(Ok((tag, payload)))`
/// on success; `Ok(Err(end))` when the stream ends (cleanly or not)
/// instead of yielding a frame; `Err` only for genuine I/O errors.
/// Consumes exactly the frame's bytes, so a caller can track offsets.
pub fn read_frame(r: &mut impl Read) -> io::Result<Result<(u8, Vec<u8>), FrameEnd>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.map(|tag| (tag, payload)))
}

/// [`read_frame`] into a buffer the caller keeps: `payload` is replaced
/// by the frame's, and `Ok(Ok(tag))` names it. A reader of many small
/// frames (a sender counting acks) allocates nothing once the buffer
/// has grown to the largest.
pub fn read_frame_into(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
) -> io::Result<Result<u8, FrameEnd>> {
    let mut prefix = [0u8; 4];
    match read_exact_or_eof(r, &mut prefix)? {
        ReadExact::Eof => return Ok(Err(FrameEnd::Clean)),
        ReadExact::Partial => return Ok(Err(FrameEnd::Torn)),
        ReadExact::Full => {}
    }
    // Four bytes never hold a whole frame, so the parser either sizes
    // the frame or rejects the prefix.
    let FrameParse::Incomplete { total } = parse_frame(&prefix) else {
        return Ok(Err(FrameEnd::Corrupt));
    };
    // The tag on its own, then `[payload][crc]` straight into the
    // buffer handed back: dropping the trailer is a truncate, and
    // nothing has to shift to drop a head.
    let mut tag = [0u8; 1];
    payload.clear();
    payload.resize(total - 5, 0);
    for part in [&mut tag[..], &mut payload[..]] {
        match read_exact_or_eof(r, part)? {
            ReadExact::Full => {}
            ReadExact::Eof | ReadExact::Partial => return Ok(Err(FrameEnd::Torn)),
        }
    }
    let n = total - 9;
    let crc = u32::from_le_bytes(payload[n..].try_into().expect("the 4-byte trailer"));
    payload.truncate(n);
    if frame_crc(tag[0], &[payload]) != crc {
        return Ok(Err(FrameEnd::Corrupt));
    }
    Ok(Ok(tag[0]))
}

enum ReadExact {
    Full,
    Eof,
    Partial,
}

/// `read_exact` that distinguishes "EOF before any byte" from "EOF
/// mid-buffer" — the difference between a clean stream end and a torn
/// frame.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<ReadExact> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadExact::Eof
                } else {
                    ReadExact::Partial
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadExact::Full)
}

/// Incremental frame parser over a growing receive buffer, for readers
/// that cannot block for a whole frame — a connection served with short
/// read timeouts (so shutdown is prompt) must never drop partially
/// received bytes on a timeout.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Start of the first frame not yet returned; everything before it
    /// is spent and reclaimed by the next [`FrameBuffer::extend`].
    pos: usize,
}

impl FrameBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes as they arrive, in pieces of any size. This is the
    /// only place spent frames are dropped from the buffer — once per
    /// read, not once per frame, and for free when every received
    /// frame has been returned.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next whole frame, lending its payload until the next
    /// call on this buffer. `Ok(None)` means more bytes are needed;
    /// `Err(FrameEnd::Corrupt)` means the envelope is broken and the
    /// stream cannot be resynchronized.
    pub fn next_frame(&mut self) -> Result<Option<(u8, &[u8])>, FrameEnd> {
        match parse_frame(&self.buf[self.pos..]) {
            FrameParse::Incomplete { .. } => Ok(None),
            FrameParse::Corrupt => Err(FrameEnd::Corrupt),
            FrameParse::Frame {
                tag,
                payload,
                consumed,
            } => {
                self.pos += consumed;
                Ok(Some((tag, payload)))
            }
        }
    }

    /// Bytes received but not yet returned as frames. Zero at end of
    /// stream is [`FrameEnd::Clean`]; anything else is a torn tail.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{Exporter, MemorySink};
    use crate::rollup::{RollupConfig, RollupTier};
    use crate::tsdb::Tsdb;

    /// A batch stream exercising every record kind, drained off a real
    /// store so chunk payloads and sketch columns are authentic.
    fn wire_batches() -> Vec<ExportBatch> {
        let mut db = Tsdb::with_retention(1 << 12);
        let id = db.register(MetricMeta::gauge("wire.m", "u", SourceDomain::Hardware));
        db.enable_rollups(
            id,
            &RollupConfig::new(vec![RollupTier::new(SimDuration::from_secs(10), 64)])
                .with_sketches(),
        );
        for s in 0..700u64 {
            db.insert(id, SimTime::from_secs(s), ((s * 31) % 97) as f64);
        }
        let mut sink = MemorySink::new();
        Exporter::new()
            .with_batch_records(64)
            .drain(&db, &mut sink)
            .unwrap();
        sink.batches
    }

    #[test]
    fn binary_codec_roundtrips_every_record_kind() {
        let batches = wire_batches();
        let mut kinds_seen = std::collections::HashSet::new();
        for batch in &batches {
            for r in &batch.records {
                kinds_seen.insert(std::mem::discriminant(r));
            }
            let mut buf = Vec::new();
            encode_batch(batch, &mut buf);
            let (back, unknown) = decode_batch(&buf).unwrap();
            assert_eq!(unknown, 0);
            assert_eq!(&back, batch, "bit-exact round trip");
            // And re-encoding the decoded batch is byte-identical.
            let mut buf2 = Vec::new();
            encode_batch(&back, &mut buf2);
            assert_eq!(buf, buf2);
        }
        assert!(kinds_seen.len() >= 4, "meta/sample/bucket/sketch at least");
    }

    #[test]
    fn binary_codec_roundtrips_chunks_and_nan() {
        let mut db = Tsdb::with_retention(1 << 12);
        let id = db.register(MetricMeta::gauge("c", "u", SourceDomain::Software));
        for s in 0..600u64 {
            db.insert(id, SimTime::from_secs(s), s as f64);
        }
        let mut sink = MemorySink::new();
        Exporter::new().drain(&db, &mut sink).unwrap();
        let has_chunk = sink
            .batches
            .iter()
            .flat_map(|b| &b.records)
            .any(|r| matches!(r, ExportRecord::Chunk { .. }));
        assert!(has_chunk, "512-sample seal must have produced a chunk");
        for batch in &sink.batches {
            let mut buf = Vec::new();
            encode_batch(batch, &mut buf);
            assert_eq!(&decode_batch(&buf).unwrap().0, batch);
        }
        // NaN samples survive bit-exactly (to_bits round trip).
        let batch = ExportBatch {
            seq: 9,
            records: vec![ExportRecord::Sample {
                id: MetricId(0),
                t: SimTime(1),
                value: f64::NAN,
            }],
        };
        let mut buf = Vec::new();
        encode_batch(&batch, &mut buf);
        let (back, _) = decode_batch(&buf).unwrap();
        match back.records[0] {
            ExportRecord::Sample { value, .. } => {
                assert_eq!(value.to_bits(), f64::NAN.to_bits());
            }
            _ => panic!("sample expected"),
        }
    }

    fn meta_batch(name_len: usize) -> ExportBatch {
        ExportBatch {
            seq: 0,
            records: vec![ExportRecord::Meta {
                id: MetricId(0),
                meta: MetricMeta::gauge("n".repeat(name_len), "u", SourceDomain::Hardware),
            }],
        }
    }

    #[test]
    fn longest_wire_string_round_trips() {
        let batch = meta_batch(MAX_STR_LEN);
        let mut buf = Vec::new();
        encode_batch(&batch, &mut buf);
        assert_eq!(decode_batch(&buf).unwrap().0, batch);
    }

    #[test]
    #[should_panic(expected = "wire strings carry a u16 length")]
    fn overlong_wire_string_is_refused_not_wrapped() {
        // In release builds this used to write a wrapped u16 length
        // followed by all the bytes — an undecodable stream.
        encode_batch(&meta_batch(MAX_STR_LEN + 1), &mut Vec::new());
    }

    #[test]
    fn decoder_skips_unknown_record_kinds() {
        // A future writer appends a record kind this reader has never
        // heard of; the length prefix lets the reader hop over it.
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u64.to_le_bytes()); // seq
        buf.extend_from_slice(&2u32.to_le_bytes()); // record count
        buf.push(200); // unknown kind tag
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        encode_record(
            &ExportRecord::Sample {
                id: MetricId(4),
                t: SimTime(5),
                value: 6.0,
            },
            &mut buf,
        );
        let (batch, unknown) = decode_batch(&buf).unwrap();
        assert_eq!(unknown, 1);
        assert_eq!(batch.seq, 7);
        assert_eq!(batch.records.len(), 1);
    }

    fn sample(id: u32, t: u64, value: f64) -> ExportRecord {
        ExportRecord::Sample {
            id: MetricId(id),
            t: SimTime(t),
            value,
        }
    }

    /// The bytes of a batch holding `records` (seq 0), past its header.
    fn encoded_records(records: Vec<ExportRecord>) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_batch(&ExportBatch { seq: 0, records }, &mut buf);
        buf.split_off(12)
    }

    /// A one-record batch whose record is a `samples` payload.
    fn samples_batch(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, 0);
        put_u32(&mut buf, 1);
        buf.push(REC_SAMPLES);
        put_block(&mut buf, |out| out.extend_from_slice(payload));
        buf
    }

    #[test]
    fn samples_record_is_the_documented_bytes() {
        // The worked example of docs/EXPORT_FORMAT.md: three readings
        // of metric 7 at 1 Hz.
        let records = vec![
            sample(7, 60_000, 201.5),
            sample(7, 61_000, 203.0),
            sample(7, 62_000, 203.0),
        ];
        let want: &[u8] = &[
            0x05, // kind: samples
            0x13, 0x00, 0x00, 0x00, // payload length 19
            0x03, // three samples
            0xA3, 0x07, 0xC0, 0xA9, 0x07, 0x40, 0x69, 0x30, // id 7, t +60000, 201.5
            0x23, 0xD0, 0x0F, 0x40, 0x69, 0x60, // same id, t +1000, 203.0
            0x13, 0x40, 0x69, 0x60, // same id, same step, 203.0
        ];
        assert_eq!(encoded_records(records.clone()), want);
        let (back, unknown) = decode_batch(&samples_batch(&want[5..])).unwrap();
        assert_eq!((back.records, unknown), (records, 0));
    }

    #[test]
    fn samples_delta_record_is_the_documented_bytes() {
        // The worked example of docs/EXPORT_FORMAT.md: four readings of
        // metric 7 at 1 Hz, in a stream with no value of metric 7 yet.
        let records = vec![
            sample(7, 60_000, 201.5),
            sample(7, 61_000, 203.0),
            sample(7, 62_000, 203.0),
            sample(7, 63_000, 203.25),
        ];
        let want: &[u8] = &[
            0x06, // kind: samples_delta
            0x10, 0x00, 0x00, 0x00, // payload length 16
            0x04, // four samples
            0xA3, 0x07, 0xC0, 0xA9, 0x07, 0x40, 0x69, 0x30, // id 7, t +60000, 201.5 whole
            0x2A, 0xD0, 0x0F, 0x50, // same id, t +1000, XOR 0x0000_5000_0000_0000
            0x19, // same id, same step, XOR 0: 203.0 again
            0x1A, 0x08, // same id, same step, XOR 0x0000_0800_0000_0000
        ];
        let mut writer = ValueState::new();
        let mut buf = Vec::new();
        encode_batch_as(
            &ExportBatch {
                seq: 0,
                records: records.clone(),
            },
            Coding::Deltas,
            &mut writer,
            &mut buf,
        );
        assert_eq!(&buf[12..], want);
        let mut reader = ValueState::new();
        let (back, unknown) = decode_batch_with(&buf, &mut reader).unwrap();
        assert_eq!((back.records, unknown), (records, 0));
        assert_eq!(reader, writer);
        assert_eq!(reader.get(MetricId(7)), Some(203.25f64.to_bits()));
        // The next batch's first reading of metric 7 is a delta too: its
        // id and time start over with the record, its value does not.
        let mut next = Vec::new();
        let again = ExportBatch {
            seq: 1,
            records: vec![sample(7, 64_000, 203.25)],
        };
        encode_batch_as(&again, Coding::Deltas, &mut writer, &mut next);
        assert_eq!(
            &next[12..],
            [0x06, 0x06, 0, 0, 0, 0x01, 0xA9, 0x07, 0x80, 0xE8, 0x07]
        );
        assert_eq!(decode_batch_with(&next, &mut reader).unwrap().0, again);
    }

    #[test]
    fn sweep_record_is_the_documented_bytes() {
        // The worked example of docs/EXPORT_FORMAT.md: metrics 4, 5 and
        // 6 read at t 60000, then at 61000, in a stream with no value of
        // any of them yet.
        let sweep = |t, values: [f64; 3]| ExportBatch {
            seq: t / 1_000 - 60,
            records: (0..3)
                .map(|i| sample(4 + i, t, values[i as usize]))
                .collect(),
        };
        let first = sweep(60_000, [201.5, 203.0, 2.0]);
        let second = sweep(61_000, [201.5, 203.25, 2.0]);
        let want_first: &[u8] = &[
            0x07, // kind: sweep
            0x10, 0x00, 0x00, 0x00, // payload length 16
            0x03, // three samples
            0x04, 0x01, // ids 4, 5, 6: first 4, step 1
            0xC0, 0xA9, 0x07, 0x00, // t 60000 (zigzag 120000), step 0
            0x33, 0x01, // codes 3, 3 | 1, padding 0
            0x40, 0x69, 0x30, // 201.5 whole
            0x40, 0x69, 0x60, // 203.0 whole
            0x40, // 2.0 whole
        ];
        let want_second: &[u8] = &[
            0x07, // kind: sweep
            0x0A, 0x00, 0x00, 0x00, // payload length 10
            0x03, 0x04, 0x01, // three samples, ids from 4 by 1
            0x90, 0xB9, 0x07, 0x00, // t 61000 (zigzag 122000), step 0
            0xA9, 0x09, // codes 9 (repeat), 10 | 9, padding 0
            0x08, // XOR 0x0000_0800_0000_0000: 203.0 → 203.25
        ];
        let (mut writer, mut reader) = (ValueState::new(), ValueState::new());
        let mut v1_3 = ValueState::new();
        // A header of about six bytes against half a byte a sample: runs
        // this short cost a byte more than as `samples_delta`.
        for (batch, want, deltas) in [(&first, want_first, 20), (&second, want_second, 14)] {
            let mut buf = Vec::new();
            encode_batch_with(batch, &mut writer, &mut buf);
            assert_eq!(&buf[12..], want);
            let (back, unknown) = decode_batch_with(&buf, &mut reader).unwrap();
            assert_eq!((&back, unknown), (batch, 0));
            assert_eq!(reader, writer);
            let mut as_1_3 = Vec::new();
            encode_batch_as(batch, Coding::Deltas, &mut v1_3, &mut as_1_3);
            assert_eq!(as_1_3.len() - 12, deltas);
        }
        // The 1.3 example's tail as a sweep: one id by step 0, times by
        // step 1000, the same value codes — 20 bytes where 1.3 takes 21.
        let tail = ExportBatch {
            seq: 0,
            records: vec![
                sample(7, 60_000, 201.5),
                sample(7, 61_000, 203.0),
                sample(7, 62_000, 203.0),
                sample(7, 63_000, 203.25),
            ],
        };
        let mut buf = Vec::new();
        encode_batch_with(&tail, &mut ValueState::new(), &mut buf);
        assert_eq!(
            &buf[12..],
            [
                0x07, 0x0F, 0, 0, 0, 0x04, 0x07, 0x00, 0xC0, 0xA9, 0x07, 0xD0, 0x0F, 0xA3, 0xA9,
                0x40, 0x69, 0x30, 0x50, 0x08
            ]
        );
    }

    /// The writer's canonical rule: a run is a `sweep` exactly when the
    /// whole run is one progression of at least two samples — ids up (or
    /// standing) by one step within `u32`, times by one wrapping step —
    /// and a `samples_delta` otherwise; a 1.3 writer never writes one.
    #[test]
    fn a_run_is_a_sweep_exactly_when_it_is_one_progression() {
        let kind = |coding, records: Vec<ExportRecord>| {
            let mut buf = Vec::new();
            let batch = ExportBatch { seq: 0, records };
            encode_batch_as(&batch, coding, &mut ValueState::new(), &mut buf);
            let back = decode_batch_with(&buf, &mut ValueState::new()).unwrap().0;
            assert_eq!(back, batch);
            buf[12]
        };
        let top = u32::MAX;
        for (records, swept) in [
            (vec![sample(3, 5, 1.0)], false),
            (vec![sample(3, 5, 1.0), sample(9, 2, 1.0)], true),
            (vec![sample(9, 5, 1.0), sample(3, 5, 1.0)], false),
            (
                vec![sample(0, 0, 1.0), sample(1, 0, 1.0), sample(3, 0, 1.0)],
                false,
            ),
            (
                vec![sample(2, 0, 1.0), sample(2, 7, 1.0), sample(2, 15, 1.0)],
                false,
            ),
            (
                vec![
                    sample(top - 2, 9, 1.0),
                    sample(top - 1, 9, 1.0),
                    sample(top, 9, 1.0),
                ],
                true,
            ),
            (
                vec![
                    sample(1, u64::MAX, 1.0),
                    sample(1, 1, 1.0),
                    sample(1, 3, 1.0),
                ],
                true,
            ),
        ] {
            let want = if swept { REC_SWEEP } else { REC_SAMPLES_DELTA };
            assert_eq!(kind(Coding::Sweeps, records.clone()), want, "{records:?}");
            assert_eq!(kind(Coding::Deltas, records.clone()), REC_SAMPLES_DELTA);
            assert_eq!(kind(Coding::Whole, records), REC_SAMPLES);
        }
        assert_eq!(Coding::for_revision(None), Coding::Whole);
        assert_eq!(Coding::for_revision(Some([1, 2])), Coding::Whole);
        assert_eq!(Coding::for_revision(Some([1, 3])), Coding::Deltas);
        assert_eq!(Coding::for_revision(Some(REVISION)), Coding::Sweeps);
    }

    /// Malformed `sweep` records are `InvalidData` — the batch refused
    /// whole, the reader's state as it was.
    #[test]
    fn hostile_sweep_records_are_bad_data() {
        let batch = |payload: &[u8]| {
            let mut buf = Vec::new();
            put_u64(&mut buf, 0);
            put_u32(&mut buf, 1);
            buf.push(REC_SWEEP);
            put_block(&mut buf, |out| out.extend_from_slice(payload));
            buf
        };
        let mut state = ValueState::new();
        state.set(MetricId(4), 0x4069_3000_0000_0000);
        let before = state.clone();
        let err = |payload: &[u8]| {
            let mut read = state.clone();
            let e = decode_batch_with(&batch(payload), &mut read).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert_eq!(read, before);
            e.to_string()
        };
        // Well-formed for contrast: ids 4, 5 at t 0, a repeat and a whole
        // one-byte value.
        let good = [2, 4, 1, 0, 0, 0x19, 0x40];
        assert!(decode_batch_with(&batch(&good), &mut state.clone()).is_ok());
        // More samples than twice the bytes after the count.
        assert!(err(&[13, 4, 1, 0, 0, 0, 0]).contains("count exceeds"));
        let mut lie = Vec::new();
        put_uv(&mut lie, 1 << 60);
        lie.extend_from_slice(&[4, 1, 0, 0]);
        assert!(err(&lie).contains("count exceeds"));
        // A code column cut short (four samples, one code byte).
        assert!(err(&[4, 4, 1, 0, 0, 0x99]).contains("truncated"));
        // An odd count's padding nibble set.
        assert!(err(&[1, 4, 0, 0, 0, 0x90]).contains("padding"));
        // Ids past u32: the first one, or stepped off the end.
        let mut first = vec![1];
        put_uv(&mut first, u64::from(u32::MAX) + 1);
        first.extend_from_slice(&[0, 0, 0, 0x09]);
        assert!(err(&first).contains("past u32"));
        let mut stepped = vec![3];
        put_uv(&mut stepped, u64::from(u32::MAX) - 1);
        stepped.extend_from_slice(&[1, 0, 0, 0x99, 0x09]);
        assert!(err(&stepped).contains("past u32"));
        // A reserved escape shape: keeps nothing, or runs past 64 bits.
        assert!(err(&[2, 4, 1, 0, 0, 0x9F, 0x30]).contains("value shape"));
        assert!(err(&[2, 4, 1, 0, 0, 0x9F, 0x54, 0, 0, 0, 0]).contains("value shape"));
        // A value cut short, and bytes after the last value.
        assert!(err(&[2, 4, 1, 0, 0, 0x39, 0x40, 0x69]).contains("truncated"));
        assert!(err(&[2, 4, 1, 0, 0, 0x19, 0x40, 0xFF]).contains("trailing"));
        // A delta for an id with no state.
        assert!(err(&[2, 8, 1, 0, 0, 0x99]).contains("needs its stream's state"));
    }

    #[test]
    fn stateless_readers_refuse_a_delta_record_and_nothing_else() {
        let records = vec![sample(3, 1_000, 2.5), sample(3, 2_000, 2.75)];
        let mut buf = Vec::new();
        encode_batch_with(
            &ExportBatch { seq: 4, records },
            &mut ValueState::new(),
            &mut buf,
        );
        let view = BatchView::parse(&buf).expect("validation needs no state");
        for refused in [decode_batch(&buf).map(drop), view.to_batch().map(drop)] {
            let e = refused.unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(
                e.to_string()
                    .contains("samples_delta needs its stream's state"),
                "{e}"
            );
        }
        // A plain batch is still read without one.
        let mut plain = Vec::new();
        encode_batch(
            &ExportBatch {
                seq: 4,
                records: vec![sample(3, 1_000, 2.5)],
            },
            &mut plain,
        );
        assert!(decode_batch(&plain).is_ok());
    }

    #[test]
    fn a_delta_with_no_state_is_refused_and_leaves_none() {
        // Metric 5 whole, then metric 9 as a delta the stream never set
        // up: the check refuses the batch and unmarks metric 5 again.
        let payload = [2, 0x83, 0x05, 0x40, 0x69, 0x30, 0x8A, 0x09, 0x50];
        let mut buf = Vec::new();
        put_u64(&mut buf, 0);
        put_u32(&mut buf, 1);
        buf.push(REC_SAMPLES_DELTA);
        put_block(&mut buf, |out| out.extend_from_slice(&payload));
        let view = BatchView::parse(&buf).expect("well-formed");
        let mut state = ValueState::new();
        state.set(MetricId(1), 7);
        let before = state.clone();
        let e = view.to_batch_with(&mut state).unwrap_err();
        assert!(e.to_string().contains("needs its stream's state"), "{e}");
        assert_eq!(state, before);
        assert_eq!(state.get(MetricId(5)), None);
        // With metric 9 known, the same bytes read.
        state.set(MetricId(9), 0x4069_0000_0000_0000);
        let batch = view.to_batch_with(&mut state).unwrap();
        let ExportRecord::Sample { value, .. } = batch.records[1] else {
            panic!("sample expected")
        };
        assert_eq!(value.to_bits(), 0x4069_5000_0000_0000);
        // Ids from MAX_VALUE_IDS on keep no state: always whole.
        let far = MetricId(MAX_VALUE_IDS);
        let mut writer = ValueState::new();
        let mut far_bytes = Vec::new();
        let repeat = ExportBatch {
            seq: 0,
            records: vec![sample(far.0, 1, 1.0), sample(far.0, 2, 1.0)],
        };
        encode_batch_with(&repeat, &mut writer, &mut far_bytes);
        assert_eq!(writer, ValueState::new());
        assert_eq!(
            decode_batch_with(&far_bytes, &mut ValueState::new())
                .unwrap()
                .0,
            repeat
        );
    }

    #[test]
    fn hostile_samples_delta_records_are_bad_data() {
        let err = |payload: &[u8]| {
            let mut buf = Vec::new();
            put_u64(&mut buf, 0);
            put_u32(&mut buf, 1);
            buf.push(REC_SAMPLES_DELTA);
            put_block(&mut buf, |out| out.extend_from_slice(payload));
            let e = BatchView::parse(&buf).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            e.to_string()
        };
        // Escape shapes that keep nothing, or run past 64 bits.
        assert!(err(&[1, 0x0F, 0x30]).contains("value shape"));
        assert!(err(&[1, 0x0F, 0x54, 0, 0, 0, 0]).contains("value shape"));
        // A kept byte cut short by the payload's end.
        assert!(err(&[1, 0x0E, 0x40]).contains("truncated"));
        assert!(err(&[1, 0x0F, 0x13]).contains("truncated"));
        // Codes 9–15 stay reserved in a `samples` record.
        assert!(decode_batch(&samples_batch(&[1, 0x09]))
            .unwrap_err()
            .to_string()
            .contains("value length"));
    }

    #[test]
    fn a_sweep_and_a_tail_both_cost_one_byte_plus_the_value() {
        // 64 metrics at one timestamp; one metric at a fixed cadence.
        // Values with three significant bytes (quantised readings).
        let value = |i: u32| 100.0 + f64::from(i) * 0.5;
        let sweep: Vec<_> = (0..64).map(|m| sample(m, 5_000, value(m))).collect();
        let tail: Vec<_> = (0..64)
            .map(|i| sample(3, 1_000 * u64::from(i), value(i)))
            .collect();
        for records in [sweep, tail] {
            let n = records.len();
            let bytes = encoded_records(records.clone());
            // Record header 5 + count 1, two explicit fields at most on
            // the leading samples, then 1 + 3 bytes each.
            assert!(bytes.len() <= 6 + 6 + n * 4, "{} bytes", bytes.len());
            let mut whole = Vec::new();
            encode_batch(&ExportBatch { seq: 1, records }, &mut whole);
            // One wire record, however many samples.
            assert_eq!(whole[8..12], 1u32.to_le_bytes());
            assert_eq!(decode_batch(&whole).unwrap().0.records.len(), n);
        }
    }

    /// Bytes per sample of `sweeps` coded as one stream in `coding`, the
    /// first sweep (whole values in every coding) left out.
    fn bytes_per_sample(sweeps: &[ExportBatch], coding: Coding) -> f64 {
        let mut state = ValueState::new();
        let (mut bytes, mut samples) = (0, 0);
        for (k, sweep) in sweeps.iter().enumerate() {
            let mut out = Vec::new();
            encode_batch_as(sweep, coding, &mut state, &mut out);
            if k > 0 {
                bytes += out.len();
                samples += sweep.records.len();
            }
        }
        bytes as f64 / samples as f64
    }

    /// The value codes are fitted to quantised readings: an XOR shaped
    /// like one of them costs the control byte's nibble and its kept
    /// bytes. A full-precision value's XOR keeps seven or eight bytes and
    /// takes the escape — one shape byte on top. Where consecutive values
    /// share their sign and exponent byte, the lead zero byte pays for
    /// it and the delta costs what the whole value does (9.26 B a sample
    /// against 9.32 packed); where the magnitude wanders over 2^±10,
    /// about half the samples pay the byte (9.82 against 9.32). A
    /// quantised walk, for contrast: 2.04 against 4.25. As 1.4 sweeps
    /// each costs under half a byte less (8.80, 9.37 and 1.59): the
    /// value codes are the same, only the control byte's id and time
    /// half is gone, and the header names the two progressions. Pinned so the cost of the coding on traffic it was not
    /// fitted to is measured, not assumed.
    #[test]
    fn full_precision_values_cost_at_most_a_byte_more_as_deltas() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        const MANTISSA: u64 = (1 << 52) - 1;
        let mut walk = vec![100.0f64; 64];
        let sweeps = |value: &mut dyn FnMut(usize) -> f64| -> Vec<ExportBatch> {
            (0..200u64)
                .map(|k| ExportBatch {
                    seq: k,
                    records: (0..64)
                        .map(|m| sample(m as u32, 1_000 * k, value(m)))
                        .collect(),
                })
                .collect()
        };
        let mut uniform = |_: usize| f64::from_bits(0x4090_0000_0000_0000 | (next() & MANTISSA));
        let one_exponent = sweeps(&mut uniform);
        let mut rate = |_: usize| {
            let exponent = 1013 + next() % 21;
            f64::from_bits(exponent << 52 | (next() & MANTISSA))
        };
        let magnitudes = sweeps(&mut rate);
        let mut quantised = |m: usize| {
            walk[m] += (next() % 3) as f64 * 0.25 - 0.25;
            walk[m]
        };
        let readings = sweeps(&mut quantised);

        let costs = |sweeps: &[ExportBatch]| {
            [Coding::Sweeps, Coding::Deltas, Coding::Whole].map(|c| bytes_per_sample(sweeps, c))
        };
        let [swept, delta, packed] = costs(&one_exponent);
        assert!(delta <= packed + 0.05, "{delta} vs {packed}");
        assert!((0.4..0.5).contains(&(delta - swept)), "{swept} vs {delta}");
        let [swept, delta, packed] = costs(&magnitudes);
        assert!(
            (packed + 0.3..packed + 0.7).contains(&delta),
            "{delta} vs {packed}"
        );
        assert!((0.4..0.5).contains(&(delta - swept)), "{swept} vs {delta}");
        let [swept, delta, packed] = costs(&readings);
        assert!(delta < packed / 2.0, "{delta} vs {packed}");
        assert!((0.4..0.5).contains(&(delta - swept)), "{swept} vs {delta}");
    }

    #[test]
    fn sample_runs_break_at_other_kinds_and_round_trip_awkward_values() {
        let meta = ExportRecord::Meta {
            id: MetricId(1),
            meta: MetricMeta::gauge("m", "u", SourceDomain::Hardware),
        };
        let records = vec![
            sample(u32::MAX, u64::MAX, f64::from_bits(0x7FF8_0000_0000_0001)),
            sample(0, 0, -0.0),
            meta.clone(),
            sample(9, 10, f64::MIN_POSITIVE / 4.0),
            sample(9, 5, f64::NEG_INFINITY),
            sample(9, 5, 0.0),
            meta,
        ];
        let mut buf = Vec::new();
        encode_batch(&ExportBatch { seq: 3, records }, &mut buf);
        // samples(2) · meta · samples(3) · meta.
        assert_eq!(buf[8..12], 4u32.to_le_bytes());
        let (back, unknown) = decode_batch(&buf).unwrap();
        assert_eq!(unknown, 0);
        let mut again = Vec::new();
        encode_batch(&back, &mut again);
        assert_eq!(again, buf, "bit-exact: equal records re-encode equally");
        match back.records[0] {
            ExportRecord::Sample { id, t, value } => {
                assert_eq!((id.0, t.0), (u32::MAX, u64::MAX));
                assert_eq!(value.to_bits(), 0x7FF8_0000_0000_0001);
            }
            _ => panic!("sample expected"),
        }
        match back.records[1] {
            // The id after u32::MAX is 0 by an explicit field, never by
            // a wrapped "+1".
            ExportRecord::Sample { id, t, value } => {
                assert_eq!((id.0, t.0, value.to_bits()), (0, 0, (-0.0f64).to_bits()));
            }
            _ => panic!("sample expected"),
        }
    }

    proptest::proptest! {
        /// A value of every width, 0 through 8 significant bytes, decodes
        /// to the bits it was written from, whether the eight-byte load
        /// fits in what is left of the payload or not: the run's last
        /// value ends on the payload's last byte, so unless it is eight
        /// bytes wide its decode takes the short copy.
        #[test]
        fn sample_values_of_every_width_decode_bit_exactly(
            seed in proptest::any::<u64>(),
            n in 1usize..40,
            last_width in 0u32..9,
        ) {
            let mut rng = proptest::TestRng::new(seed);
            let records: Vec<ExportRecord> = (0..n)
                .map(|i| {
                    let width = if i + 1 == n { last_width } else { rng.below(9) as u32 };
                    // Exactly `width` bytes survive the writer's trim.
                    let bits = match width {
                        0 => 0,
                        w => {
                            let low = 8 * (8 - w);
                            (rng.next_u64() >> low << low) | 1 << low
                        }
                    };
                    let t = rng.below(3) * 1000;
                    sample(rng.below(3) as u32, t, f64::from_bits(bits))
                })
                .collect();
            let mut buf = Vec::new();
            encode_batch(&ExportBatch { seq: 0, records: records.clone() }, &mut buf);
            let back = decode_batch(&buf).unwrap().0.records;
            let bits = |records: &[ExportRecord]| -> Vec<(u32, u64, u64)> {
                records
                    .iter()
                    .map(|r| match *r {
                        ExportRecord::Sample { id, t, value } => (id.0, t.0, value.to_bits()),
                        _ => panic!("samples only"),
                    })
                    .collect()
            };
            proptest::prop_assert_eq!(bits(&back), bits(&records));
        }
    }

    #[test]
    fn hostile_samples_records_are_bad_data() {
        let err = |payload: &[u8]| {
            let e = decode_batch(&samples_batch(payload)).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            e.to_string()
        };
        // A well-formed one-sample record for contrast: same id, same
        // time, one value byte.
        assert!(decode_batch(&samples_batch(&[1, 0x01, 0x40])).is_ok());
        // Declared count past the remaining payload — refused before
        // anything is reserved (here: 2^60 samples in two bytes).
        let mut lie = Vec::new();
        put_uv(&mut lie, 1 << 60);
        lie.extend_from_slice(&[0x00, 0x00]);
        assert!(err(&lie).contains("count exceeds"));
        assert!(err(&[2, 0x00]).contains("count exceeds"));
        // Reserved control codes.
        assert!(err(&[1, 0xC0]).contains("id mode"));
        assert!(err(&[1, 0x30]).contains("time mode"));
        for len in 9..=15u8 {
            assert!(err(&[1, len, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
                .contains("value length"));
        }
        // A value shorter than its control byte says.
        assert!(err(&[1, 0x03, 0x40, 0x69]).contains("truncated"));
        // Ids past u32: explicit, and stepped off the end.
        let mut wide = vec![1, 0x80];
        put_uv(&mut wide, u64::from(u32::MAX) + 1);
        assert!(err(&wide).contains("past u32"));
        let mut stepped = vec![2, 0x80];
        put_uv(&mut stepped, u64::from(u32::MAX));
        stepped.push(0x40);
        assert!(err(&stepped).contains("past u32"));
        // Trailing bytes after the declared samples.
        assert!(err(&[1, 0x00, 0xFF]).contains("trailing"));
        // An explicit field cut short.
        assert!(err(&[1, 0x20, 0x80]).contains("truncated"));
    }

    #[test]
    fn a_batch_may_not_expand_past_the_record_bound() {
        // One-byte samples: a MiB of wire is 64 MiB of records at the
        // bound; unbounded, a maximal 64 MiB frame would be 4 GiB.
        let run = |n: usize| {
            let mut payload = Vec::new();
            put_uv(&mut payload, n as u64);
            payload.resize(payload.len() + n, 0x00);
            payload
        };
        let batch = |runs: &[usize], extra_v1_1_sample: bool| {
            let mut buf = Vec::new();
            put_u64(&mut buf, 0);
            put_u32(&mut buf, runs.len() as u32 + u32::from(extra_v1_1_sample));
            for &n in runs {
                buf.push(REC_SAMPLES);
                put_block(&mut buf, |out| out.extend_from_slice(&run(n)));
            }
            if extra_v1_1_sample {
                encode_record(&sample(0, 0, 0.0), &mut buf);
            }
            buf
        };
        let at_bound = decode_batch(&batch(&[MAX_BATCH_RECORDS], false)).unwrap();
        assert_eq!(at_bound.0.records.len(), MAX_BATCH_RECORDS);
        // Half-byte samples: a sweep of zeros at one id and time.
        let sweep = |n: usize| {
            let mut buf = Vec::new();
            put_u64(&mut buf, 0);
            put_u32(&mut buf, 1);
            buf.push(REC_SWEEP);
            put_block(&mut buf, |out| {
                put_uv(out, n as u64);
                out.extend_from_slice(&[0, 0, 0, 0]);
                out.resize(out.len() + n.div_ceil(2), 0);
            });
            buf
        };
        let swept = decode_batch_with(&sweep(MAX_BATCH_RECORDS), &mut ValueState::new()).unwrap();
        assert_eq!(swept.0.records.len(), MAX_BATCH_RECORDS);
        let e = BatchView::parse(&sweep(MAX_BATCH_RECORDS + 1)).unwrap_err();
        assert!(e.to_string().contains("MAX_BATCH_RECORDS"), "{e}");
        for over in [
            batch(&[MAX_BATCH_RECORDS + 1], false),
            batch(&[MAX_BATCH_RECORDS - 5, 6], false),
            batch(&[MAX_BATCH_RECORDS], true),
        ] {
            let e = decode_batch(&over).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(e.to_string().contains("MAX_BATCH_RECORDS"), "{e}");
        }
    }

    #[test]
    fn truncated_batch_is_an_error_not_a_panic() {
        let batches = wire_batches();
        let mut buf = Vec::new();
        encode_batch(&batches[0], &mut buf);
        for cut in 0..buf.len() {
            // Any strict prefix either errors or (never) succeeds —
            // no panic, no wrap-around allocation.
            let _ = decode_batch(&buf[..cut]).is_err();
        }
    }

    #[test]
    fn varints_and_zigzag_round_trip_and_reject_overflow() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for v in values {
            put_uv(&mut buf, v);
        }
        let mut r = WireReader::new(&buf);
        for v in values {
            assert_eq!(r.uv().unwrap(), v);
        }
        assert!(r.done());
        for v in [0i64, -1, 1, i32::MIN as i64, i32::MAX as i64, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Eleven continuation bytes run past 64 bits.
        assert!(WireReader::new(&[0xFF; 11]).uv().is_err());
        // Ten bytes whose last one carries more than the top bit.
        let mut over = vec![0xFF; 9];
        over.push(0x02);
        assert!(WireReader::new(&over).uv().is_err());
    }

    #[test]
    fn frames_roundtrip_and_detect_torn_and_corrupt_tails() {
        let batches = wire_batches();
        let mut stream = Vec::new();
        for batch in &batches {
            let mut payload = Vec::new();
            encode_batch(batch, &mut payload);
            write_frame(&mut stream, 17, &payload).unwrap();
        }
        // Clean read-back.
        let mut r = &stream[..];
        let mut n = 0;
        loop {
            match read_frame(&mut r).unwrap() {
                Ok((tag, payload)) => {
                    assert_eq!(tag, 17);
                    assert_eq!(&decode_batch(&payload).unwrap().0, &batches[n]);
                    n += 1;
                }
                Err(end) => {
                    assert_eq!(end, FrameEnd::Clean);
                    break;
                }
            }
        }
        assert_eq!(n, batches.len());
        // Torn tail: every truncation point mid-final-frame reads the
        // full prefix then reports Torn (or Clean exactly on the
        // boundary).
        let second_start = {
            let mut r = &stream[..];
            read_frame(&mut r).unwrap().unwrap();
            stream.len() - r.len()
        };
        for cut in second_start..stream.len() {
            let mut r = &stream[..cut];
            let first = read_frame(&mut r).unwrap();
            assert!(first.is_ok(), "first frame intact at cut {cut}");
            let ends = loop {
                match read_frame(&mut r).unwrap() {
                    Ok(_) => {}
                    Err(e) => break e,
                }
            };
            if cut == second_start {
                assert_eq!(ends, FrameEnd::Clean);
            } else {
                // Mid-frame cuts must never read Clean unless the cut
                // landed exactly on a later frame boundary.
                let on_boundary = {
                    let mut rr = &stream[..cut];
                    let mut clean = false;
                    while read_frame(&mut rr).unwrap().is_ok() {
                        if rr.is_empty() {
                            clean = true;
                            break;
                        }
                    }
                    clean
                };
                assert_eq!(ends == FrameEnd::Clean, on_boundary, "cut {cut}");
            }
        }
        // Corruption: flip one byte inside the first frame's payload.
        let mut bad = stream.clone();
        bad[8] ^= 0xFF;
        let mut r = &bad[..];
        assert_eq!(read_frame(&mut r).unwrap(), Err(FrameEnd::Corrupt));
    }

    #[test]
    fn frame_bytes_are_the_documented_envelope() {
        let mut out = Vec::new();
        write_frame(&mut out, 3, b"abc").unwrap();
        let mut want = vec![4, 0, 0, 0, 3, b'a', b'b', b'c'];
        want.extend_from_slice(&crc32(&[3, b'a', b'b', b'c']).to_le_bytes());
        assert_eq!(out, want);
        // An empty payload is a legal frame (len counts the tag).
        let mut empty = Vec::new();
        write_frame(&mut empty, 9, &[]).unwrap();
        assert_eq!(read_frame(&mut &empty[..]).unwrap(), Ok((9, Vec::new())));
        // Zero and oversize length prefixes are corrupt before any
        // allocation happens.
        assert_eq!(parse_frame(&[0, 0, 0, 0]), FrameParse::Corrupt);
        let oversize = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        assert_eq!(parse_frame(&oversize), FrameParse::Corrupt);
        assert_eq!(
            read_frame(&mut &oversize[..]).unwrap(),
            Err(FrameEnd::Corrupt)
        );
    }

    #[test]
    fn drain_stats_codec_roundtrips() {
        let stats = DrainStats {
            batches: 3,
            records: 99,
            samples: 80,
            missed_samples: 2,
            max_lock_held_ns: 12345,
            ..DrainStats::default()
        };
        let mut buf = Vec::new();
        encode_drain_stats(&stats, &mut buf);
        assert_eq!(decode_drain_stats(&buf).unwrap(), stats);
        // Retry counters ride along and survive the round trip.
        let retried = DrainStats {
            send_retries: 7,
            ..stats
        };
        buf.clear();
        encode_drain_stats(&retried, &mut buf);
        assert_eq!(decode_drain_stats(&buf).unwrap(), retried);
        // A pre-retry-counter stream (11 fixed u64s) still decodes, with
        // the trailing field defaulting to zero.
        buf.truncate(11 * 8);
        assert_eq!(decode_drain_stats(&buf).unwrap(), stats);
        // Garbage past the known fields is still rejected.
        buf.extend_from_slice(&[0u8; 12]);
        assert!(decode_drain_stats(&buf).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // Folding in two pieces is the same checksum.
        assert_eq!(frame_crc(b'1', &[b"2345", b"", b"6789"]), 0xCBF4_3926);
        // Every prefix length 0..=17 of one pattern (zlib's values), so
        // the 8-byte step, each tail length, and the hand-over between
        // them are pinned independently of this crate's own tables.
        let pattern: Vec<u8> = (0..17u32).map(|i| (i * 37 + 11) as u8).collect();
        let want: [u32; 18] = [
            0x0000_0000,
            0x45D0_3605,
            0x84F4_FB98,
            0x3753_A57B,
            0xA532_8CBE,
            0x9ECE_CD5F,
            0xB541_6B8C,
            0xEF6F_3B31,
            0x648B_AD8B,
            0x17DC_5F9E,
            0xA012_5457,
            0x0919_340F,
            0x7A6C_29EC,
            0x7EC4_7AE4,
            0xDCA7_A3C5,
            0x5360_5EE3,
            0x24E8_A988,
            0xCDFC_844A,
        ];
        for (n, want) in want.iter().enumerate() {
            assert_eq!(crc32(&pattern[..n]), *want, "prefix length {n}");
        }
    }
}
