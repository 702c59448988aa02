//! Gorilla-style compressed blocks for sealed raw-sample regions.
//!
//! The raw tier's hot tail stays uncompressed (see
//! [`TimeSeries`](crate::series::TimeSeries)); once a region seals it is
//! immutable, which makes it ideal for the standard Gorilla TSDB trick:
//!
//! * **timestamps** — delta-of-delta coding. Regular cadences (1 Hz, one
//!   sample per tick) collapse to one bit per sample after the first
//!   delta; irregular gaps cost a few bits; arbitrary jumps fall back to
//!   a raw 64-bit delta.
//! * **values** — XOR coding against the previous value's bit pattern.
//!   Repeated values cost one bit; slowly-moving values share their
//!   leading/trailing zero window and cost only the meaningful XOR bits.
//!
//! Both codings operate on raw bit patterns (`f64::to_bits`), so the
//! round trip is **bit-exact** for every value — NaN payloads, signed
//! zeros, subnormals, infinities — and for duplicate timestamps. The
//! same encoded bytes travel on the wire as the v1.1 `chunk` record
//! kind (see `docs/EXPORT_FORMAT.md`), so a sealed block compresses
//! once and ships without re-encoding.
//!
//! Layout per chunk: the first timestamp lives in the [`Chunk`] header;
//! the bitstream opens with the first value's raw 64 bits, then encodes
//! `(timestamp, value)` pairs interleaved:
//!
//! ```text
//! ts:  '0'                       delta-of-delta == 0
//!      '10'   + 7 bits           dod in [-63, 64]
//!      '110'  + 9 bits           dod in [-255, 256]
//!      '1110' + 12 bits          dod in [-2047, 2048]
//!      '1111' + 64 bits          raw delta (no dod)
//! val: '0'                       XOR == 0
//!      '10'   + meaningful bits  reuse previous leading/length window
//!      '11'   + 6+6 bits + bits  new window: leading zeros, length
//! ```
//!
//! Both directions move a 64-bit word at a time (the writer emits and
//! the reader refills eight bytes per step), and the grammar above is
//! stated once per direction: one private `encode` writes it, one
//! private `step` reads it. Every reader — [`decode_exact`],
//! [`validate`], [`Chunk::scan_from`], the streaming [`Decoder`] — is
//! that `step` under a different sink, so they accept exactly the same
//! payloads; every writer — [`compress`], [`write_run`], which writes
//! the same payload with no chunk around it, and
//! [`Chunk::write_retained`], which re-codes an evicted chunk's suffix
//! only as far as it must — is that `encode`.
//!
//! Every sealed chunk also carries **restart points**: the decoder
//! state after every `RESTART_STRIDE`-th sample, up to three, held
//! inline in its header in memory only (never on the wire, in the log
//! or in a snapshot). [`compress`] takes them as it writes; [`validate`]
//! takes the same points during the one walk it already makes, so a
//! chunk adopted from wire or snapshot bytes seeks exactly as one sealed
//! here does. A partial read binary-searches them and resumes the same
//! `step` mid-stream, so it decodes at most a stride plus what it asked
//! for instead of the chunk.

/// Error decoding a wire-carried chunk payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The record claims zero samples (no encoder emits that).
    Empty,
    /// The bitstream ended before `count` samples were decoded.
    Truncated,
    /// A decoded timestamp delta was negative or overflowed.
    BadTimestamp,
    /// A value reused a window before any was set, or declared one
    /// wider than 64 bits.
    BadWindow,
    /// The samples decoded, but the last one's timestamp is not the
    /// one the header names.
    WrongEnd,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Empty => write!(f, "chunk claims zero samples"),
            DecodeError::Truncated => write!(f, "chunk bitstream truncated"),
            DecodeError::BadTimestamp => write!(f, "chunk timestamp delta invalid"),
            DecodeError::BadWindow => write!(f, "chunk value window invalid"),
            DecodeError::WrongEnd => write!(f, "chunk ends off its header's last timestamp"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Payload widths of the three delta-of-delta buckets, narrowest first:
/// bucket `k` is `k + 1` one-bits, a zero, then `DOD_WIDTHS[k]` bits
/// holding `dod + dod_bias(width)`. Four one-bits escape to a raw
/// 64-bit delta.
const DOD_WIDTHS: [u32; 3] = [7, 9, 12];

/// Offset that maps a bucket's `[-bias, bias + 1]` range onto its
/// unsigned payload.
const fn dod_bias(width: u32) -> i64 {
    (1 << (width - 1)) - 1
}

/// MSB-first bit accumulator: pending bits sit left-aligned in a 64-bit
/// word that is emitted eight bytes at a time.
struct BitWriter {
    bytes: Vec<u8>,
    acc: u64,
    used: u32,
}

impl BitWriter {
    /// Writer for a region of `samples` samples. The estimate (smooth
    /// telemetry seals near one byte per sample) only saves regrowth:
    /// [`compress`] keeps the payload at its exact length.
    fn for_samples(samples: usize) -> Self {
        Self::onto(Vec::with_capacity(16 + 2 * samples))
    }

    /// Writer whose payload starts at the end of `bytes`.
    fn onto(bytes: Vec<u8>) -> Self {
        BitWriter {
            bytes,
            acc: 0,
            used: 0,
        }
    }

    /// Append the low `n` bits of `value` (`1..=64`; bits above `n`
    /// must be clear), MSB first.
    #[inline]
    fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!((1..=64).contains(&n));
        debug_assert!(n == 64 || value >> n == 0);
        let total = self.used + n;
        if total < 64 {
            self.acc |= value << (64 - total);
            self.used = total;
        } else {
            let over = total - 64;
            self.acc |= value >> over;
            self.bytes.extend_from_slice(&self.acc.to_be_bytes());
            self.acc = if over == 0 { 0 } else { value << (64 - over) };
            self.used = over;
        }
    }

    /// `head` then `payload` as one write when the pair fits a word.
    #[inline]
    fn write_pair(&mut self, head: u64, head_bits: u32, payload: u64, payload_bits: u32) {
        if head_bits + payload_bits <= 64 {
            self.write_bits((head << payload_bits) | payload, head_bits + payload_bits);
        } else {
            self.write_bits(head, head_bits);
            self.write_bits(payload, payload_bits);
        }
    }

    /// Append bits `from..to` of the MSB-first stream `src`, as they
    /// lie. A load at any bit offset holds at least 57 of the stream's
    /// bits (eight bytes less the up to seven before `from`), so each
    /// step moves 56.
    fn copy_bits(&mut self, src: &[u8], mut from: usize, to: usize) {
        while from < to {
            let n = (to - from).min(56) as u32;
            let word = load_be(src, from / 8) << (from % 8);
            self.write_bits(word >> (64 - n), n);
            from += n as usize;
        }
    }

    /// Bits in `bytes` and pending so far.
    fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.used as usize
    }

    /// The bytes, the last one zero-padded.
    fn finish(mut self) -> Vec<u8> {
        let pending = self.used.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&self.acc.to_be_bytes()[..pending]);
        self.bytes
    }
}

/// Eight bytes of `src` from byte `at` as a big-endian word, zeros past
/// its end.
#[inline]
fn load_be(src: &[u8], at: usize) -> u64 {
    match src.get(at..at + 8) {
        Some(word) => u64::from_be_bytes(word.try_into().expect("eight bytes")),
        None => {
            let tail = src.get(at..).unwrap_or_default();
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_be_bytes(word)
        }
    }
}

/// MSB-first bit cursor: `avail` unread bits sit left-aligned in `acc`,
/// refilled eight bytes at a time. Bits of `acc` below `avail` are
/// either zero or the stream's own next bits (loaded but not yet
/// counted), so a peek past `avail` never sees foreign data.
struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte not yet counted into `avail`.
    pos: usize,
    acc: u64,
    avail: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            acc: 0,
            avail: 0,
        }
    }

    /// Reader positioned `bit` bits into the stream.
    fn at(bytes: &'a [u8], bit: usize) -> Self {
        let mut r = BitReader {
            bytes,
            pos: bit / 8,
            acc: 0,
            avail: 0,
        };
        let within = bit as u32 % 8;
        if within > 0 {
            // A position past the end reads as truncated from here on.
            let _ = r.take(within);
        }
        r
    }

    /// Top `acc` up to at least 56 bits, or to the end of the stream.
    #[inline(always)]
    fn refill(&mut self) {
        if let Some(word) = self.bytes.get(self.pos..self.pos + 8) {
            let word = u64::from_be_bytes(word.try_into().expect("eight bytes"));
            self.acc |= word >> self.avail;
            self.pos += ((63 - self.avail) >> 3) as usize;
            self.avail |= 56;
        } else {
            while self.avail <= 56 && self.pos < self.bytes.len() {
                self.acc |= u64::from(self.bytes[self.pos]) << (56 - self.avail);
                self.pos += 1;
                self.avail += 8;
            }
        }
    }

    /// Make `n <= 56` bits available, or report the stream truncated.
    #[inline(always)]
    fn need(&mut self, n: u32) -> Result<(), DecodeError> {
        if self.avail < n {
            self.refill();
            if self.avail < n {
                return Err(DecodeError::Truncated);
            }
        }
        Ok(())
    }

    /// The next `n` bits (`1..=56`, made available by `need`/`refill`).
    #[inline(always)]
    fn peek(&self, n: u32) -> u64 {
        self.acc >> (64 - n)
    }

    #[inline(always)]
    fn skip(&mut self, n: u32) {
        self.acc <<= n;
        self.avail -= n;
    }

    /// Read `n` bits, `1..=64`; a refill guarantees only 56, so wider
    /// reads come in two halves.
    #[inline(always)]
    fn take(&mut self, n: u32) -> Result<u64, DecodeError> {
        let mut hi = 0;
        let mut n = n;
        if n > 56 {
            self.need(n - 32)?;
            hi = self.peek(n - 32) << 32;
            self.skip(n - 32);
            n = 32;
        }
        self.need(n)?;
        let lo = self.peek(n);
        self.skip(n);
        Ok(hi | lo)
    }

    /// Bits of the stream the reads so far have consumed.
    fn used_bits(&self) -> usize {
        self.pos * 8 - self.avail as usize
    }
}

/// One sealed, immutable, compressed block of samples.
///
/// The header carries everything queries need without decoding: the
/// encoded sample count, the logically-evicted prefix (`skip`, bumped
/// by retention so eviction stays sample-exact), the first/last encoded
/// timestamps, and the lifetime append index of the first encoded
/// sample (`start_append`, which the exporter's watermark cursors key
/// on). The payload is held at its exact length, with its length in
/// bits beside it; the restart table [`compress`] or [`validate`]
/// recorded lies inline in the header, and lets [`Chunk::scan_from`]
/// begin mid-stream.
#[derive(Debug, Clone)]
pub struct Chunk {
    count: u32,
    skip: u32,
    first_t: u64,
    last_t: u64,
    start_append: u64,
    /// Bits of `bytes` the codes fill: the last byte's padding (zeros
    /// from [`compress`], anything in a foreign payload) lies past it.
    bit_len: usize,
    bytes: Box<[u8]>,
    restarts: Restarts,
}

/// Why decoding a sealed chunk again cannot fail: [`compress`] wrote
/// it, or [`validate`] walked it before [`Chunk::adopt`] linked it or
/// [`Chunk::settle`] settled it.
const WELL_FORMED: &str = "sealed chunk bitstream is well-formed";

/// `bit_len` of a chunk [`Chunk::unwalked`] linked and nothing has
/// walked yet.
const UNWALKED: usize = usize::MAX;

/// Samples between restart points. A partial read decodes at most this
/// many samples it did not ask for, and a full chunk of 512 carries
/// three points (144, 288, 432) at 20 bytes each — what a table held
/// under 15 % of a smooth 1 Hz payload affords. The last sits 80
/// samples before the chunk's end: a loop's trailing window reaching
/// back across the newest seal decodes those 80.
const RESTART_STRIDE: usize = 144;

/// Restart points a chunk holds: what a seal of 512 samples takes. A
/// longer chunk keeps its first three, and a read past the last
/// resumes from it.
const MAX_RESTARTS: usize = 3;

/// A chunk's restart table, held inline so neither a seal nor an
/// adoption allocates for it: entry `k` is the decoder state at sample
/// `(k + 1) * RESTART_STRIDE`. Points are taken only after a stride
/// that has a sample after it, and the table stops at `MAX_RESTARTS`
/// or at the first state that does not pack.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Restarts {
    points: [Restart; MAX_RESTARTS],
    len: u8,
}

impl Restarts {
    fn as_slice(&self) -> &[Restart] {
        &self.points[..usize::from(self.len)]
    }

    /// Take the point at the state `s` whose next code starts at `bit`.
    /// Returns whether the table takes more: `false` once it is full or
    /// a state did not pack (the points after it would not be its
    /// successors).
    #[inline]
    fn take(&mut self, bit: usize, first_t: u64, s: &State) -> bool {
        match Restart::pack(bit, first_t, s) {
            Some(at) => {
                self.points[usize::from(self.len)] = at;
                self.len += 1;
                usize::from(self.len) < MAX_RESTARTS
            }
            None => false,
        }
    }
}

/// The decoder state at one sample and where the next one's code
/// begins — what `step` needs to resume there — packed to 20 bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Restart {
    /// Timestamp, as its distance from the chunk's first.
    t: u32,
    delta: u32,
    /// Bit offset of the next code (19 bits), then the value window's
    /// leading zeros (6) and length (7).
    packed: u32,
    /// Value bits, high word first: two words keep the entry aligned
    /// to four bytes, not padded to eight.
    bits: [u32; 2],
}

impl Restart {
    /// `None` when the state does not fit the packing: the chunk spans,
    /// or two of its samples lie, 2³² ms (seven weeks) apart, or the
    /// payload runs past 64 KiB.
    fn pack(bit: usize, first_t: u64, s: &State) -> Option<Self> {
        debug_assert!(s.win_lead < 64 && s.win_len <= 64);
        let bit = u32::try_from(bit).ok().filter(|&b| b < 1 << 19)?;
        Some(Restart {
            t: u32::try_from(s.t - first_t).ok()?,
            delta: u32::try_from(s.delta).ok()?,
            packed: bit << 13 | s.win_lead << 7 | s.win_len,
            bits: [(s.bits >> 32) as u32, s.bits as u32],
        })
    }

    fn bit(&self) -> usize {
        (self.packed >> 13) as usize
    }

    fn state(&self, first_t: u64) -> State {
        State {
            t: first_t + u64::from(self.t),
            delta: u64::from(self.delta),
            bits: u64::from(self.bits[0]) << 32 | u64::from(self.bits[1]),
            win_lead: self.packed >> 7 & 63,
            win_len: self.packed & 127,
        }
    }
}

impl Chunk {
    /// Link a validated payload as a sealed chunk without re-encoding
    /// it: the bytes are copied at their used length, the header's
    /// `last_t` and restart table are the ones the validation walk
    /// recorded.
    pub(crate) fn adopt(v: &Validated<'_>, start_append: u64) -> Chunk {
        Chunk {
            count: v.count,
            skip: 0,
            first_t: v.first_t,
            last_t: v.last_t,
            start_append,
            bit_len: v.bit_len,
            bytes: v.payload.into(),
            restarts: v.restarts,
        }
    }

    /// Link a payload on its header alone, walked by no one here: the
    /// bytes are copied whole, and the chunk has no restart table and
    /// no exact length until [`Chunk::settle`] walks it. Nothing may
    /// read it before then; eviction may.
    pub(crate) fn unwalked(
        first_t: u64,
        last_t: u64,
        count: u32,
        bytes: &[u8],
        start_append: u64,
    ) -> Chunk {
        Chunk {
            count,
            skip: 0,
            first_t,
            last_t,
            start_append,
            bit_len: UNWALKED,
            bytes: bytes.into(),
            restarts: Restarts::default(),
        }
    }

    /// Whether the chunk was walked (or written) here: every chunk but
    /// one linked on its header alone
    /// ([`TimeSeries::link_unwalked`](crate::series::TimeSeries::link_unwalked))
    /// that its ring has not settled yet.
    pub fn is_walked(&self) -> bool {
        self.bit_len != UNWALKED
    }

    /// Walk a chunk linked unwalked, and give it what
    /// [`Chunk::adopt`] would have: the restart table, the exact bit
    /// length, the payload cut to its used bytes. Returns its last
    /// value. A payload that does not walk, or ends off its header's
    /// `last_t`, is an error and leaves the chunk as it was.
    pub(crate) fn settle(&mut self) -> Result<f64, DecodeError> {
        debug_assert!(!self.is_walked());
        let walk = validate(self.first_t, self.count, &self.bytes)?.walk();
        if walk.last_t != self.last_t {
            return Err(DecodeError::WrongEnd);
        }
        if walk.used_bytes < self.bytes.len() {
            self.bytes = self.bytes[..walk.used_bytes].into();
        }
        self.bit_len = walk.bit_len;
        self.restarts = walk.restarts;
        Ok(walk.last_value)
    }

    /// Encoded samples (including any logically evicted prefix).
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Logically evicted prefix length; retained samples are the
    /// trailing `count - skip`.
    pub fn skip(&self) -> u32 {
        self.skip
    }

    /// Retained sample count.
    pub fn retained_len(&self) -> usize {
        (self.count - self.skip) as usize
    }

    /// Timestamp of the first **encoded** sample (pre-skip).
    pub fn first_t(&self) -> u64 {
        self.first_t
    }

    /// Timestamp of the last sample.
    pub fn last_t(&self) -> u64 {
        self.last_t
    }

    /// Lifetime append index of the first encoded sample.
    pub fn start_append(&self) -> u64 {
        self.start_append
    }

    /// Lifetime append index of the first **retained** sample.
    pub fn retained_start_append(&self) -> u64 {
        self.start_append + self.skip as u64
    }

    /// Lifetime append index one past the last sample.
    pub fn end_append(&self) -> u64 {
        self.start_append + self.count as u64
    }

    /// The encoded payload (what the wire `chunk` record carries).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Heap bytes held by this chunk: the payload and the header, which
    /// holds the restart table.
    pub fn mem_bytes(&self) -> usize {
        self.bytes.len() + std::mem::size_of::<Chunk>()
    }

    /// Restart points the chunk holds.
    #[cfg(test)]
    pub(crate) fn restart_points(&self) -> usize {
        self.restarts.as_slice().len()
    }

    /// Logically evict the oldest `n` retained samples. Returns `true`
    /// when the chunk is fully evicted and should be dropped.
    pub(crate) fn evict(&mut self, n: u32) -> bool {
        self.skip += n;
        debug_assert!(self.skip <= self.count);
        self.skip == self.count
    }

    /// Visit the **retained** samples oldest first, stopping as soon as
    /// `visit` returns `false`.
    #[inline]
    pub fn scan(&self, mut visit: impl FnMut(u64, f64) -> bool) {
        self.scan_from(|_, _| false, |_, t, value| visit(t, value));
    }

    /// [`Chunk::scan`] for a reader that wants only a suffix: `below`
    /// says, of a sample's `(lifetime append index, timestamp)`, that
    /// the reader has no use for it or anything older (it must be
    /// monotone: a true-prefix of the chunk). The walk resumes from the
    /// newest restart point `below` holds at, so `visit` — handed
    /// `(append index, timestamp, value)` — still sees the samples
    /// between that point and the first it wants, at most a stride of
    /// them, and filters those itself.
    #[inline]
    pub fn scan_from(
        &self,
        below: impl Fn(u64, u64) -> bool,
        mut visit: impl FnMut(u64, u64, f64) -> bool,
    ) {
        debug_assert!(self.is_walked(), "an unwalked chunk is read");
        let append = |i: u32| self.start_append + u64::from(i);
        let from = self.restart_below(|i, t| i < self.skip || below(append(i), t));
        let walked = walk(self.first_t, self.count, &self.bytes, from, |i, t, bits| {
            i < self.skip || visit(append(i), t, f64::from_bits(bits))
        });
        debug_assert!(walked.is_ok(), "{WELL_FORMED}");
    }

    /// The newest restart point whose `(sample index, timestamp)`
    /// satisfies the monotone `lower`, with that index.
    #[inline]
    fn restart_below(&self, lower: impl Fn(u32, u64) -> bool) -> Option<(u32, &Restart)> {
        let index = |k: usize| ((k + 1) * RESTART_STRIDE) as u32;
        let restarts = self.restarts.as_slice();
        let (mut lo, mut hi) = (0, restarts.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if lower(index(mid), self.first_t + u64::from(restarts[mid].t)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.checked_sub(1).map(|k| (index(k), &restarts[k]))
    }

    /// Streaming decoder over the **retained** samples (skip applied).
    pub fn decode(&self) -> Decoder<'_> {
        debug_assert!(self.is_walked(), "an unwalked chunk is read");
        let mut d = Decoder::new(self.first_t, self.count, &self.bytes);
        // The stream yields the sample *after* its state's, so it
        // resumes from a restart short of `skip` and rolls up to it.
        let mut next = 0;
        if let Some((i, at)) = self.restart_below(|i, _| i < self.skip) {
            d.r = BitReader::at(&self.bytes, at.bit());
            d.s = Some(at.state(self.first_t));
            next = i + 1;
            d.remaining = self.count - next;
        }
        for _ in next..self.skip {
            let s = d.next();
            debug_assert!(s.is_some(), "{WELL_FORMED}");
        }
        d
    }

    /// Decode the retained samples, appending to `out_ts` / `out_vals`.
    pub fn decode_into(&self, out_ts: &mut Vec<u64>, out_vals: &mut Vec<f64>) {
        out_ts.reserve(self.retained_len());
        out_vals.reserve(self.retained_len());
        self.scan(|t, v| {
            out_ts.push(t);
            out_vals.push(v);
            true
        });
    }

    /// Append to `out` the payload of the **retained** samples alone —
    /// the bytes [`compress`] writes for them — and return its first
    /// timestamp. A whole chunk is copied as it lies. A partly evicted
    /// one is decoded from the restart point at or below `skip` to its
    /// first retained sample, and from there re-encoded only until the
    /// fresh encoder's state (`delta`, value window) equals the stored
    /// stream's at the same sample; the rest of the stored bits are then
    /// copied, shifted to where the writer stands. Equal states code
    /// equal samples to equal bits, so for a stream `compress` wrote the
    /// result is byte for byte `compress(retained)`, and any well-formed
    /// stream's decodes to the retained samples.
    ///
    /// They meet at the stored stream's first new-window code past
    /// `skip` at the latest: the fresh window always lies inside the
    /// stored one (it starts empty, and each takes a value's own window
    /// only when the value does not fit the one it has), so a value that
    /// needs a new stored window needs the same new fresh one. A run
    /// that never needs one — constant values, say — is re-encoded
    /// whole.
    pub fn write_retained(&self, out: &mut Vec<u8>) -> u64 {
        debug_assert!(self.is_walked(), "an unwalked chunk is written");
        if self.skip == 0 {
            out.extend_from_slice(&self.bytes);
            return self.first_t;
        }
        let (mut r, mut s, from) = match self.restart_below(|i, _| i <= self.skip) {
            Some((i, at)) => (
                BitReader::at(&self.bytes, at.bit()),
                at.state(self.first_t),
                i,
            ),
            None => {
                let mut r = BitReader::new(&self.bytes);
                let s = State::open(&mut r, self.first_t).expect(WELL_FORMED);
                (r, s, 0)
            }
        };
        for _ in from..self.skip {
            step(&mut r, &mut s).expect(WELL_FORMED);
        }
        let (mut i, first_t) = (self.skip, s.t);
        let mut w = BitWriter::onto(std::mem::take(out));
        w.write_bits(s.bits, 64);
        let mut fresh = State::at(s.t, s.bits);
        loop {
            if (fresh.delta, fresh.win_lead, fresh.win_len) == (s.delta, s.win_lead, s.win_len) {
                w.copy_bits(&self.bytes, r.used_bits(), self.bit_len);
                break;
            }
            i += 1;
            if i == self.count {
                break;
            }
            step(&mut r, &mut s).expect(WELL_FORMED);
            encode(&mut w, &mut fresh, s.t, s.bits);
        }
        *out = w.finish();
        first_t
    }
}

/// Compress a sealed region into a [`Chunk`].
///
/// `ts` must be non-empty, non-decreasing, and parallel to `vals`;
/// `start_append` is the lifetime append index of `ts[0]`.
pub fn compress(ts: &[u64], vals: &[f64], start_append: u64) -> Chunk {
    assert!(!ts.is_empty(), "cannot seal an empty region");
    assert_eq!(ts.len(), vals.len());
    let mut w = BitWriter::for_samples(ts.len());
    w.write_bits(vals[0].to_bits(), 64);
    // The encoder tracks what a decoder would hold after each sample.
    let mut s = State::at(ts[0], vals[0].to_bits());

    // A restart point between every two strides — taken per block, so
    // the sample loop carries no test for it.
    let mut restarts = Restarts::default();
    let mut taking = true;
    let blocks = ts[1..]
        .chunks(RESTART_STRIDE)
        .zip(vals[1..].chunks(RESTART_STRIDE));
    for (block, (block_ts, block_vals)) in blocks.enumerate() {
        if block > 0 && taking {
            taking = restarts.take(w.bit_len(), ts[0], &s);
        }
        for (&t, v) in block_ts.iter().zip(block_vals) {
            encode(&mut w, &mut s, t, v.to_bits());
        }
    }

    Chunk {
        count: ts.len() as u32,
        skip: 0,
        first_t: ts[0],
        last_t: *ts.last().expect("non-empty"),
        start_append,
        bit_len: w.bit_len(),
        bytes: w.finish().into_boxed_slice(),
        restarts,
    }
}

/// Append to `out` the payload [`compress`] writes for a region — the
/// same bits, with no [`Chunk`] around them and no restart table — and
/// return its first timestamp. What a snapshot writes a ring's unsealed
/// tail with: straight into the image, allocating nothing `out` does
/// not grow by. `ts` must be non-empty, non-decreasing, and parallel to
/// `vals`.
pub fn write_run(ts: &[u64], vals: &[f64], out: &mut Vec<u8>) -> u64 {
    assert!(!ts.is_empty(), "cannot write an empty run");
    assert_eq!(ts.len(), vals.len());
    let mut w = BitWriter::onto(std::mem::take(out));
    w.write_bits(vals[0].to_bits(), 64);
    let mut s = State::at(ts[0], vals[0].to_bits());
    for (&t, v) in ts[1..].iter().zip(&vals[1..]) {
        encode(&mut w, &mut s, t, v.to_bits());
    }
    *out = w.finish();
    ts[0]
}

/// Code one sample against `s` and advance `s` past it — the write side
/// of the bit grammar. Inlined into each caller's loop, as `step` is.
#[inline(always)]
fn encode(w: &mut BitWriter, s: &mut State, t: u64, bits: u64) {
    debug_assert!(t >= s.t, "sealed region must be time-ordered");
    let delta = t - s.t;
    let dod = delta as i128 - s.delta as i128;
    s.delta = delta;
    s.t = t;
    // The timestamp code rides in `head` so it shares a write with the
    // value's control bits (and payload, when they fit a word).
    let (head, head_bits) = if dod == 0 {
        (0, 1)
    } else if let Some(k) = DOD_WIDTHS
        .iter()
        .position(|&w| (-dod_bias(w) as i128..=dod_bias(w) as i128 + 1).contains(&dod))
    {
        let (k, width) = (k as u32, DOD_WIDTHS[k]);
        let prefix = (1u64 << (k + 2)) - 2;
        let payload = (dod as i64 + dod_bias(width)) as u64;
        ((prefix << width) | payload, k + 2 + width)
    } else {
        w.write_bits(0b1111, 4);
        w.write_bits(delta, 64);
        (0, 0)
    };

    let xor = bits ^ s.bits;
    s.bits = bits;
    if xor == 0 {
        w.write_bits(head << 1, head_bits + 1);
        return;
    }
    let lead = xor.leading_zeros();
    let trail = xor.trailing_zeros();
    if s.win_len != 0 && lead >= s.win_lead && trail >= 64 - s.win_lead - s.win_len {
        // Fits the previous window: control '10' + window bits.
        let win_trail = 64 - s.win_lead - s.win_len;
        w.write_pair(
            (head << 2) | 0b10,
            head_bits + 2,
            xor >> win_trail,
            s.win_len,
        );
    } else {
        // New window: '11' + 6-bit leading + 6-bit length (64 encodes
        // as 0).
        let len = 64 - lead - trail;
        let ctrl = (0b11 << 12) | (u64::from(lead) << 6) | u64::from(len & 63);
        w.write_pair((head << 14) | ctrl, head_bits + 14, xor >> trail, len);
        s.win_lead = lead;
        s.win_len = len;
    }
}

/// Decoder state between samples (and the encoder's record of it).
struct State {
    t: u64,
    delta: u64,
    bits: u64,
    win_lead: u32,
    /// Length 0 marks "no window yet".
    win_len: u32,
}

impl State {
    /// State at a stream's first sample, `(t, bits)`: no delta, no
    /// window.
    #[inline(always)]
    fn at(t: u64, bits: u64) -> State {
        State {
            t,
            delta: 0,
            bits,
            win_lead: 0,
            win_len: 0,
        }
    }

    /// State at the first sample: its timestamp is the header's, its
    /// value the stream's opening 64 bits.
    #[inline(always)]
    fn open(r: &mut BitReader<'_>, first_t: u64) -> Result<State, DecodeError> {
        Ok(State::at(first_t, r.take(64)?))
    }
}

/// Advance `s` by one sample — the read side of the bit grammar.
/// Inlined into each caller's loop so the state lives in registers.
#[inline(always)]
fn step(r: &mut BitReader<'_>, s: &mut State) -> Result<(), DecodeError> {
    // Timestamp: the count of leading one-bits (up to four) names the
    // delta-of-delta bucket. 16 bits cover the widest bucket whole.
    if r.avail < 16 {
        r.refill();
    }
    let ones = (!r.acc).leading_zeros();
    if ones == 0 {
        r.need(1)?;
        r.skip(1);
    } else if let Some(&width) = DOD_WIDTHS.get(ones as usize - 1) {
        let code_bits = ones + 1 + width;
        r.need(code_bits)?;
        let payload = r.peek(code_bits) & ((1 << width) - 1);
        r.skip(code_bits);
        s.delta = s
            .delta
            .checked_add_signed(payload as i64 - dod_bias(width))
            .ok_or(DecodeError::BadTimestamp)?;
    } else {
        r.need(4)?;
        r.skip(4);
        s.delta = r.take(64)?;
    }
    s.t = s.t.checked_add(s.delta).ok_or(DecodeError::BadTimestamp)?;

    // Value: '0' repeats, '10' reuses the window, '11' declares one.
    if r.avail < 14 {
        r.refill();
    }
    let ctrl = r.peek(14);
    if ctrl >> 13 == 0 {
        r.need(1)?;
        r.skip(1);
        return Ok(());
    }
    if ctrl >> 12 == 0b10 {
        r.need(2)?;
        r.skip(2);
        if s.win_len == 0 {
            return Err(DecodeError::BadWindow);
        }
    } else {
        r.need(14)?;
        r.skip(14);
        s.win_lead = (ctrl >> 6) as u32 & 63;
        s.win_len = match ctrl as u32 & 63 {
            0 => 64,
            len => len,
        };
        if s.win_lead + s.win_len > 64 {
            return Err(DecodeError::BadWindow);
        }
    }
    s.bits ^= r.take(s.win_len)? << (64 - s.win_lead - s.win_len);
    Ok(())
}

/// What a [`validate`] walk found, apart from the bytes it walked: the
/// payload's end, its exact length and its restart table. Only this
/// module can build one. A caller that walks a payload before it knows
/// where it goes keeps this, not the borrow, and links the same bytes
/// later with [`Walk::of`] — no second walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Walk {
    /// Timestamp of the last sample.
    pub last_t: u64,
    /// Value of the last sample.
    pub last_value: f64,
    /// Length of the shortest payload prefix that still decodes; bytes
    /// past it are not part of the chunk.
    pub used_bytes: usize,
    /// The exact length of that prefix in bits.
    bit_len: usize,
    first_t: u64,
    count: u32,
    /// The points the walk took: what [`compress`] takes on the
    /// payloads it writes, and the same decoder states on any other.
    restarts: Restarts,
}

impl Walk {
    /// Timestamp of the first sample (the header's `first_t`).
    pub fn first_t(&self) -> u64 {
        self.first_t
    }

    /// Samples the payload holds.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The proof again, over `bytes` — which must be the payload this
    /// walk walked (trailing bytes allowed: they are cut off here).
    /// Panics when `bytes` is shorter than the walk used.
    pub fn of(self, bytes: &[u8]) -> Validated<'_> {
        Validated {
            walk: self,
            payload: &bytes[..self.used_bytes],
        }
    }
}

/// Proof that a payload decodes, from [`validate`]: a full walk found
/// `count` well-formed samples with non-decreasing, non-overflowing
/// timestamps, and took the payload's restart table on the way. Only
/// this module can build one, so holding it is what entitles a ring to
/// link the bytes unread
/// ([`TimeSeries::adopt_chunk`](crate::series::TimeSeries::adopt_chunk)).
/// What the walk found is its [`Walk`], which it dereferences to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Validated<'a> {
    walk: Walk,
    /// The validated payload, cut to `used_bytes`.
    payload: &'a [u8],
}

impl Validated<'_> {
    /// What the walk found, without the borrow of the payload.
    pub fn walk(&self) -> Walk {
        self.walk
    }
}

impl std::ops::Deref for Validated<'_> {
    type Target = Walk;

    fn deref(&self) -> &Walk {
        &self.walk
    }
}

/// The readers' decode loop: walk a payload of `count` samples — from
/// its first, or from the sample a restart point was taken at — handing
/// each to `visit` as `(sample index, timestamp, value bits)`. Returns
/// the bits of the payload the codes fill once it reached the last
/// sample, or `None` when `visit` stopped it early by returning `false`.
#[inline(always)]
fn walk(
    first_t: u64,
    count: u32,
    bytes: &[u8],
    from: Option<(u32, &Restart)>,
    mut visit: impl FnMut(u32, u64, u64) -> bool,
) -> Result<Option<usize>, DecodeError> {
    if count == 0 {
        return Err(DecodeError::Empty);
    }
    let (mut r, mut s, mut i) = match from {
        Some((index, at)) => (BitReader::at(bytes, at.bit()), at.state(first_t), index),
        None => {
            let mut r = BitReader::new(bytes);
            let s = State::open(&mut r, first_t)?;
            (r, s, 0)
        }
    };
    debug_assert!(i < count);
    loop {
        if !visit(i, s.t, s.bits) {
            return Ok(None);
        }
        i += 1;
        if i == count {
            break;
        }
        step(&mut r, &mut s)?;
    }
    Ok(Some(r.used_bits()))
}

/// Check a wire payload without materialising it: exactly `count >= 1`
/// well-formed samples, timestamps non-decreasing and non-overflowing.
/// Accepts precisely the payloads [`decode_exact`] accepts — it is the
/// same `step`, `count - 1` times — and takes the restart table on the
/// way: a stride at a time, as [`compress`] writes, so the point
/// between two strides is taken outside the sample loop, and on a
/// payload `compress` wrote it is the table `compress` took.
pub fn validate(first_t: u64, count: u32, bytes: &[u8]) -> Result<Validated<'_>, DecodeError> {
    if count == 0 {
        return Err(DecodeError::Empty);
    }
    let mut r = BitReader::new(bytes);
    let mut s = State::open(&mut r, first_t)?;
    let mut restarts = Restarts::default();
    let mut taking = true;
    let mut left = count - 1;
    loop {
        let stride = left.min(RESTART_STRIDE as u32);
        for _ in 0..stride {
            step(&mut r, &mut s)?;
        }
        left -= stride;
        if left == 0 {
            break;
        }
        if taking {
            taking = restarts.take(r.used_bits(), first_t, &s);
        }
    }
    let bit_len = r.used_bits();
    let walk = Walk {
        last_t: s.t,
        last_value: f64::from_bits(s.bits),
        used_bytes: bit_len.div_ceil(8),
        bit_len,
        first_t,
        count,
        restarts,
    };
    Ok(walk.of(bytes))
}

/// Decode a wire payload, validating as [`validate`] does. Appends to
/// `out_ts` / `out_vals`; on error the outputs are left as they were.
pub fn decode_exact(
    first_t: u64,
    count: u32,
    bytes: &[u8],
    out_ts: &mut Vec<u64>,
    out_vals: &mut Vec<f64>,
) -> Result<(), DecodeError> {
    let (ts_mark, vals_mark) = (out_ts.len(), out_vals.len());
    let walked = walk(first_t, count, bytes, None, |_, t, bits| {
        out_ts.push(t);
        out_vals.push(f64::from_bits(bits));
        true
    });
    if walked.is_err() {
        out_ts.truncate(ts_mark);
        out_vals.truncate(vals_mark);
    }
    walked.map(|_| ())
}

/// Streaming decoder yielding `(timestamp_ms, value)` pairs.
///
/// Yields at most `count` samples; a malformed (truncated) stream ends
/// the iteration early — use [`decode_exact`] or [`validate`] when the
/// payload comes off the wire and must be checked.
pub struct Decoder<'a> {
    r: BitReader<'a>,
    /// `None` until the first sample opens the state.
    s: Option<State>,
    first_t: u64,
    remaining: u32,
}

impl<'a> Decoder<'a> {
    /// Decoder over a raw payload: `first_t` seeds the timestamp chain
    /// (the header field of [`Chunk`] or of a wire `chunk` record).
    pub fn new(first_t: u64, count: u32, bytes: &'a [u8]) -> Self {
        Decoder {
            r: BitReader::new(bytes),
            s: None,
            first_t,
            remaining: count,
        }
    }
}

impl Iterator for Decoder<'_> {
    type Item = (u64, f64);

    fn next(&mut self) -> Option<(u64, f64)> {
        if self.remaining == 0 {
            return None;
        }
        let stepped = match &mut self.s {
            Some(s) => step(&mut self.r, s),
            None => State::open(&mut self.r, self.first_t).map(|s| self.s = Some(s)),
        };
        match (stepped, &self.s) {
            (Ok(()), Some(s)) => {
                self.remaining -= 1;
                Some((s.t, f64::from_bits(s.bits)))
            }
            // A malformed stream ends the iteration for good.
            _ => {
                self.remaining = 0;
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(ts: &[u64], vals: &[f64]) {
        let c = compress(ts, vals, 0);
        let got: Vec<(u64, f64)> = c.decode().collect();
        assert_eq!(got.len(), ts.len());
        for (i, (t, v)) in got.iter().enumerate() {
            assert_eq!(*t, ts[i], "timestamp {i}");
            assert_eq!(v.to_bits(), vals[i].to_bits(), "value bits {i}");
        }
    }

    #[test]
    fn single_sample() {
        round_trip(&[12_345], &[678.9]);
    }

    #[test]
    fn regular_cadence_compresses_hard() {
        let ts: Vec<u64> = (0..512u64).map(|s| s * 1000).collect();
        let vals = vec![200.0; 512];
        let c = compress(&ts, &vals, 0);
        // First sample costs 8 bytes, the second pays for the initial
        // delta; every following sample costs 2 bits (dod=0, xor=0) →
        // well under 1 byte/sample.
        assert!(
            c.bytes().len() <= 8 + 512 / 4 + 2,
            "{} bytes for 512 constant 1 Hz samples",
            c.bytes().len()
        );
        round_trip(&ts, &vals);
    }

    #[test]
    fn adversarial_bit_patterns_round_trip() {
        let vals = [
            0.0,
            -0.0,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN payload
            f64::from_bits(0xfff0_0000_0000_0001), // signalling-ish NaN
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
            f64::from_bits(u64::MAX),
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
        ];
        let ts: Vec<u64> = (0..vals.len() as u64).collect();
        round_trip(&ts, &vals);
    }

    #[test]
    fn duplicate_and_jumping_timestamps() {
        let ts = [
            0,
            0,
            0,
            5,
            5,
            1_000_000_000_000,
            1_000_000_000_000,
            u64::MAX,
        ];
        let vals = [1.0, 1.0, 2.0, 2.0, 3.0, 3.5, -3.5, 0.25];
        round_trip(&ts, &vals);
    }

    #[test]
    fn skip_applies_on_decode() {
        let ts: Vec<u64> = (0..10).collect();
        let vals: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut c = compress(&ts, &vals, 100);
        assert!(!c.evict(3));
        assert_eq!(c.retained_len(), 7);
        assert_eq!(c.retained_start_append(), 103);
        let got: Vec<(u64, f64)> = c.decode().collect();
        assert_eq!(got.first(), Some(&(3, 3.0)));
        assert_eq!(got.len(), 7);
        assert!(c.evict(7));
    }

    #[test]
    fn decode_exact_validates() {
        let ts: Vec<u64> = (0..64u64).map(|s| s * 250).collect();
        let vals: Vec<f64> = (0..64).map(|i| (i * i) as f64 * 0.5).collect();
        let c = compress(&ts, &vals, 0);
        let (mut out_t, mut out_v) = (Vec::new(), Vec::new());
        decode_exact(c.first_t(), c.count(), c.bytes(), &mut out_t, &mut out_v).unwrap();
        assert_eq!(out_t, ts);
        assert_eq!(out_v, vals);
        // Truncated payload fails cleanly and leaves outputs untouched.
        out_t.clear();
        out_v.clear();
        let cut = &c.bytes()[..c.bytes().len() / 2];
        assert_eq!(
            decode_exact(c.first_t(), c.count(), cut, &mut out_t, &mut out_v),
            Err(DecodeError::Truncated)
        );
        assert!(out_t.is_empty() && out_v.is_empty());
    }
    #[test]
    fn payloads_are_held_at_exact_length() {
        let ts: Vec<u64> = (0..512u64).map(|s| s * 1000).collect();
        let vals: Vec<f64> = (0..512).map(|i| 200.0 + (i % 7) as f64).collect();
        let c = compress(&ts, &vals, 0);
        // One restart between every two strides, none after the last:
        // a full table.
        assert_eq!(c.restart_points(), (512 - 2) / RESTART_STRIDE);
        assert_eq!(c.restart_points(), MAX_RESTARTS);
        assert_eq!(std::mem::size_of::<Restart>(), 20);
        // The table lies in the header, so a chunk holds its payload
        // and a header, nothing else.
        assert_eq!(
            c.mem_bytes(),
            c.bytes().len() + std::mem::size_of::<Chunk>()
        );
        // The table costs the header three points and their count, the
        // exact bit length one word.
        assert_eq!(std::mem::size_of::<Restarts>(), 3 * 20 + 4);
        assert_eq!(std::mem::size_of::<Chunk>(), 48 + 64 + 8);
        let v = validate(c.first_t(), c.count(), c.bytes()).unwrap();
        assert_eq!(v.used_bytes, c.bytes().len());
        assert_eq!(v.bit_len, c.bit_len);
        assert_eq!(c.bit_len.div_ceil(8), c.bytes().len());
        // An adopted chunk holds the same table, at the same cost.
        let adopted = Chunk::adopt(&v, 0);
        assert_eq!(adopted.restarts, c.restarts);
        assert_eq!(adopted.mem_bytes(), c.mem_bytes());
    }

    #[test]
    fn validate_ignores_trailing_bytes_and_rejects_empty_records() {
        let ts: Vec<u64> = (0..100u64).map(|s| s * 250).collect();
        let vals: Vec<f64> = (0..100).map(|i| (i * i) as f64 * 0.5).collect();
        let c = compress(&ts, &vals, 0);
        let mut padded = c.bytes().to_vec();
        padded.extend_from_slice(&[0xAB; 9]);
        let v = validate(c.first_t(), c.count(), &padded).unwrap();
        assert_eq!(v.used_bytes, c.bytes().len());
        assert_eq!((v.last_t, v.last_value), (99 * 250, 99.0 * 99.0 * 0.5));
        // The adopted chunk holds the used prefix only.
        assert_eq!(Chunk::adopt(&v, 7).bytes(), c.bytes());
        assert_eq!(validate(0, 0, c.bytes()), Err(DecodeError::Empty));
        let (mut t, mut x) = (Vec::new(), Vec::new());
        assert_eq!(
            decode_exact(0, 0, c.bytes(), &mut t, &mut x),
            Err(DecodeError::Empty)
        );
    }

    #[test]
    fn write_retained_drops_the_evicted_prefix() {
        let ts: Vec<u64> = (0..300u64).map(|s| s * 1000 + (s % 3)).collect();
        let vals: Vec<f64> = (0..300).map(|i| (i % 13) as f64 * 1.5).collect();
        let mut c = compress(&ts, &vals, 40);
        // Whole, the payload is copied as it lies, after what `out` held.
        let mut out = vec![0xA5; 3];
        assert_eq!(c.write_retained(&mut out), ts[0]);
        assert_eq!((&out[..3], &out[3..]), (&[0xA5; 3][..], c.bytes()));
        c.evict(123);
        out.truncate(3);
        assert_eq!(c.write_retained(&mut out), ts[123]);
        assert_eq!(&out[3..], compress(&ts[123..], &vals[123..], 0).bytes());
        let (mut got_ts, mut got_vals) = (Vec::new(), Vec::new());
        decode_exact(ts[123], 177, &out[3..], &mut got_ts, &mut got_vals).unwrap();
        assert_eq!((&got_ts[..], &got_vals[..]), (&ts[123..], &vals[123..]));
    }

    // ---- the grammar, bit at a time ------------------------------------
    //
    // A reference for the tests below, not a second path: one bit per
    // loop turn, no accumulator, written from the module docs alone.

    fn ref_put(bits: &mut Vec<bool>, value: u64, n: u32) {
        bits.extend((0..n).rev().map(|i| value >> i & 1 == 1));
    }

    fn ref_encode(ts: &[u64], vals: &[f64]) -> Vec<u8> {
        ref_encode_escaping(ts, vals, |_| false, false)
    }

    /// The reference encoder, and a writer of well-formed streams
    /// `compress` never writes: sample `i` for which `escaped(i)` holds
    /// codes its timestamp as a raw delta and its value under a new
    /// full-width window, whatever would have fit; `pad_ones` fills the
    /// last byte's padding with ones.
    fn ref_encode_escaping(
        ts: &[u64],
        vals: &[f64],
        escaped: impl Fn(usize) -> bool,
        pad_ones: bool,
    ) -> Vec<u8> {
        let mut bits = Vec::new();
        ref_put(&mut bits, vals[0].to_bits(), 64);
        let (mut delta, mut window) = (0u64, None::<(u32, u32)>);
        for i in 1..ts.len() {
            let d = ts[i] - ts[i - 1];
            let dod = d as i128 - delta as i128;
            delta = d;
            match dod {
                _ if escaped(i) => {
                    ref_put(&mut bits, 0b1111, 4);
                    ref_put(&mut bits, d, 64);
                }
                0 => ref_put(&mut bits, 0b0, 1),
                -63..=64 => ref_put(&mut bits, 0b10 << 7 | (dod + 63) as u64, 9),
                -255..=256 => ref_put(&mut bits, 0b110 << 9 | (dod + 255) as u64, 12),
                -2047..=2048 => ref_put(&mut bits, 0b1110 << 12 | (dod + 2047) as u64, 16),
                _ => {
                    ref_put(&mut bits, 0b1111, 4);
                    ref_put(&mut bits, d, 64);
                }
            }
            let xor = vals[i].to_bits() ^ vals[i - 1].to_bits();
            if escaped(i) {
                ref_put(&mut bits, 0b11 << 12, 14);
                ref_put(&mut bits, xor, 64);
                window = Some((0, 64));
                continue;
            }
            if xor == 0 {
                ref_put(&mut bits, 0b0, 1);
                continue;
            }
            let (lead, trail) = (xor.leading_zeros(), xor.trailing_zeros());
            match window {
                Some((wl, wn)) if lead >= wl && trail >= 64 - wl - wn => {
                    ref_put(&mut bits, 0b10, 2);
                    ref_put(&mut bits, xor >> (64 - wl - wn), wn);
                }
                _ => {
                    let len = 64 - lead - trail;
                    ref_put(&mut bits, 0b11, 2);
                    ref_put(&mut bits, lead as u64, 6);
                    ref_put(&mut bits, (len & 63) as u64, 6);
                    ref_put(&mut bits, xor >> trail, len);
                    window = Some((lead, len));
                }
            }
        }
        while pad_ones && bits.len() % 8 != 0 {
            bits.push(true);
        }
        bits.chunks(8)
            .map(|b| {
                b.iter()
                    .enumerate()
                    .fold(0, |acc, (i, &x)| acc | (x as u8) << (7 - i))
            })
            .collect()
    }

    fn ref_get(bytes: &[u8], pos: &mut usize, n: u32) -> Option<u64> {
        let mut v = 0u64;
        for _ in 0..n {
            let byte = *bytes.get(*pos / 8)?;
            v = v << 1 | (byte >> (7 - *pos % 8) & 1) as u64;
            *pos += 1;
        }
        Some(v)
    }

    /// What the reference holds between two samples: the bit position
    /// of the next code, the last delta, the value window.
    type RefState = (usize, u64, Option<(u32, u32)>);

    struct RefDecoded {
        /// The samples decoded before the stream ended or broke.
        samples: Vec<(u64, u64)>,
        /// The state after each of them.
        states: Vec<RefState>,
        /// Whether all `count` came out.
        complete: bool,
        /// Bytes the reads touched.
        used: usize,
    }

    fn ref_decode(first_t: u64, count: u32, bytes: &[u8]) -> RefDecoded {
        let (mut out, mut states) = (Vec::new(), Vec::new());
        let mut pos = 0;
        let mut run = || -> Option<()> {
            let (mut t, mut delta) = (first_t, 0u64);
            let mut bits = ref_get(bytes, &mut pos, 64)?;
            let mut window = None::<(u32, u32)>;
            out.push((t, bits));
            states.push((pos, delta, window));
            for _ in 1..count {
                let mut ones = 0;
                while ones < 4 && ref_get(bytes, &mut pos, 1)? == 1 {
                    ones += 1;
                }
                delta = match ones {
                    0 => delta,
                    4 => ref_get(bytes, &mut pos, 64)?,
                    k => {
                        let (width, bias) = [(7, 63), (9, 255), (12, 2047)][k - 1];
                        let dod = ref_get(bytes, &mut pos, width)? as i128 - bias;
                        u64::try_from(delta as i128 + dod).ok()?
                    }
                };
                t = t.checked_add(delta)?;
                if ref_get(bytes, &mut pos, 1)? == 1 {
                    if ref_get(bytes, &mut pos, 1)? == 1 {
                        let lead = ref_get(bytes, &mut pos, 6)? as u32;
                        let len = match ref_get(bytes, &mut pos, 6)? as u32 {
                            0 => 64,
                            len => len,
                        };
                        window = Some((lead, len));
                    }
                    let (lead, len) = window.filter(|&(lead, len)| lead + len <= 64)?;
                    bits ^= ref_get(bytes, &mut pos, len)? << (64 - lead - len);
                }
                out.push((t, bits));
                states.push((pos, delta, window));
            }
            Some(())
        };
        let complete = count > 0 && run().is_some();
        RefDecoded {
            samples: out,
            states,
            complete,
            used: pos.div_ceil(8),
        }
    }

    /// The restart table of a stream the reference decoded whole: the
    /// state after each stride that has a sample after it, up to
    /// `MAX_RESTARTS`, ending at the first that does not pack.
    fn ref_table(first_t: u64, decoded: &RefDecoded) -> Restarts {
        let mut table = Restarts::default();
        for k in 0..MAX_RESTARTS {
            let i = (k + 1) * RESTART_STRIDE;
            if i + 1 >= decoded.samples.len() {
                break;
            }
            let ((t, bits), (pos, delta, window)) = (decoded.samples[i], decoded.states[i]);
            let (win_lead, win_len) = window.unwrap_or((0, 0));
            let s = State {
                t,
                delta,
                bits,
                win_lead,
                win_len,
            };
            let Some(at) = Restart::pack(pos, first_t, &s) else {
                break;
            };
            table.points[k] = at;
            table.len += 1;
        }
        table
    }

    /// Every reader against the reference on one `(first_t, count,
    /// bytes)` input, well-formed or not — from the first sample, and
    /// resumed from each point of `table` (the restarts `compress` took
    /// on the undamaged payload) that the reference's own decode of
    /// this input passes through.
    fn check_readers(first_t: u64, count: u32, bytes: &[u8], skip: u32, table: &[Restart]) {
        let decoded = ref_decode(first_t, count, bytes);
        let table_taken = decoded.complete.then(|| ref_table(first_t, &decoded));
        let RefDecoded {
            samples: want,
            states,
            complete,
            used,
        } = decoded;
        for (k, at) in table.iter().enumerate() {
            let i = (k + 1) * RESTART_STRIDE;
            // Damage upstream of a point makes it some other stream's.
            let on_path = i < count as usize
                && states.get(i).is_some_and(|&(pos, delta, window)| {
                    let window = window.unwrap_or((0, 0));
                    first_t.checked_add(u64::from(at.t)) == Some(want[i].0)
                        && (at.bit(), u64::from(at.delta)) == (pos, delta)
                        && (at.state(first_t).bits, at.packed & 0x1fff)
                            == (want[i].1, window.0 << 7 | window.1)
                });
            if !on_path {
                continue;
            }
            let mut resumed = Vec::new();
            let walked = walk(first_t, count, bytes, Some((i as u32, at)), |_, t, bits| {
                resumed.push((t, bits));
                true
            });
            assert_eq!(resumed, want[i..], "resumed from sample {i}");
            assert_eq!(
                walked.is_ok(),
                complete,
                "a restart never changes acceptance"
            );
            match walked {
                Ok(bits) => assert_eq!(bits.expect("the visitor never stops").div_ceil(8), used),
                Err(e) => assert_eq!(Err(e), validate(first_t, count, bytes)),
            }
        }
        let (mut ts, mut vals) = (vec![7], vec![7.0]);
        let exact = decode_exact(first_t, count, bytes, &mut ts, &mut vals);
        let checked = validate(first_t, count, bytes);
        assert_eq!(exact.is_ok(), complete, "decode_exact acceptance");
        assert_eq!(checked.is_ok(), complete, "validate acceptance");
        assert_eq!(exact.err(), checked.err());
        let streamed: Vec<(u64, u64)> = Decoder::new(first_t, count, bytes)
            .map(|(t, v)| (t, v.to_bits()))
            .collect();
        assert_eq!(streamed, want, "the stream yields the well-formed prefix");
        if !complete {
            assert_eq!(
                (ts, vals),
                (vec![7], vec![7.0]),
                "outputs left as they were"
            );
            return;
        }
        let got: Vec<(u64, u64)> = ts[1..]
            .iter()
            .zip(&vals[1..])
            .map(|(&t, v)| (t, v.to_bits()))
            .collect();
        assert_eq!(got, want);
        let v = checked.unwrap();
        let last = want.last().unwrap();
        assert_eq!((v.last_t, v.last_value.to_bits()), *last);
        assert_eq!(v.used_bytes, used);
        assert!(validate(first_t, count, &bytes[..used]).is_ok());
        assert!(validate(first_t, count, &bytes[..used - 1]).is_err());
        // The walk took the stream's own states, whoever wrote it.
        assert_eq!(Some(v.restarts), table_taken, "validate's table");
        // A linked chunk reads back the same, from any eviction point.
        let mut c = Chunk::adopt(&v, 0);
        assert_eq!(c.bytes(), &bytes[..used]);
        let skip = skip % count;
        if skip > 0 {
            c.evict(skip);
        }
        let (mut ts, mut vals) = (Vec::new(), Vec::new());
        c.decode_into(&mut ts, &mut vals);
        let got: Vec<(u64, u64)> = ts
            .iter()
            .zip(&vals)
            .map(|(&t, v)| (t, v.to_bits()))
            .collect();
        assert_eq!(got, want[skip as usize..]);
    }

    /// Samples from a seed: smooth runs, repeats, NaN payloads, duplicate
    /// timestamps, deltas and XOR windows up to the full 64 bits.
    fn arbitrary_samples(rng: &mut proptest::TestRng, n: usize) -> (Vec<u64>, Vec<f64>) {
        let mut t = rng.below(1 << 40);
        let mut bits = (200.0f64).to_bits();
        let (mut ts, mut vals) = (Vec::new(), Vec::new());
        for _ in 0..n {
            ts.push(t);
            vals.push(f64::from_bits(bits));
            let step = match rng.below(10) {
                0 => 0,
                1 => rng.below(5000),
                2 => rng.next_u64() >> rng.below(64),
                _ => 1000 + rng.below(3),
            };
            t = t.saturating_add(step);
            bits = match rng.below(10) {
                0 => bits,
                1 => rng.next_u64(),
                2 => 0x7ff8_0000_0000_0000 | rng.below(1 << 20),
                3 => bits ^ (1 << 63 | 1),
                _ => (f64::from_bits(bits) + rng.below(7) as f64 - 3.0).to_bits(),
            };
        }
        (ts, vals)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `compress` writes the reference's bytes; every reader agrees
        /// with the reference on them, on damaged copies of them, and on
        /// noise — same samples, same acceptance, same `used_bytes`.
        #[test]
        fn codec_agrees_with_the_bitwise_reference(
            seed in proptest::any::<u64>(),
            n in 1usize..700,
            skip in proptest::any::<u32>(),
        ) {
            let mut rng = proptest::TestRng::new(seed);
            let (ts, vals) = arbitrary_samples(&mut rng, n);
            let c = compress(&ts, &vals, 0);
            proptest::prop_assert_eq!(c.bytes(), &ref_encode(&ts, &vals)[..]);
            // The bare run writer: the same bytes, after what `out` held.
            let mut run = vec![0xA5];
            proptest::prop_assert_eq!(write_run(&ts, &vals, &mut run), ts[0]);
            proptest::prop_assert_eq!((run[0], &run[1..]), (0xA5, c.bytes()));
            let table = c.restarts.as_slice();
            check_readers(c.first_t(), c.count(), c.bytes(), skip, table);

            // The sealed chunk itself, table and all, from any eviction
            // point, through both of its readers.
            let evict = skip % c.count();
            let mut evicted = c.clone();
            if evict > 0 {
                evicted.evict(evict);
            }
            let want: Vec<(u64, u64)> = ts
                .iter()
                .zip(&vals)
                .map(|(&t, v)| (t, v.to_bits()))
                .skip(evict as usize)
                .collect();
            let (mut got_ts, mut got_vals) = (Vec::new(), Vec::new());
            evicted.decode_into(&mut got_ts, &mut got_vals);
            let got: Vec<(u64, u64)> =
                got_ts.iter().zip(&got_vals).map(|(&t, v)| (t, v.to_bits())).collect();
            proptest::prop_assert_eq!(&got, &want);
            let streamed: Vec<(u64, u64)> =
                evicted.decode().map(|(t, v)| (t, v.to_bits())).collect();
            proptest::prop_assert_eq!(&streamed, &want);

            // Mangled: a flipped bit, a cut, trailing garbage, a wrong
            // count, a wrong first timestamp, and pure noise.
            let mut flipped = c.bytes().to_vec();
            let at = rng.below(flipped.len() as u64 * 8) as usize;
            flipped[at / 8] ^= 0x80 >> (at % 8);
            check_readers(c.first_t(), c.count(), &flipped, skip, table);
            let cut = rng.below(c.bytes().len() as u64 + 1) as usize;
            check_readers(c.first_t(), c.count(), &c.bytes()[..cut], skip, table);
            let mut padded = c.bytes().to_vec();
            padded.extend((0..rng.below(12)).map(|_| rng.next_u64() as u8));
            check_readers(c.first_t(), c.count(), &padded, skip, table);
            check_readers(c.first_t(), c.count() + rng.below(3) as u32, &padded, skip, table);
            check_readers(c.first_t(), rng.below(u64::from(c.count()) + 1) as u32, c.bytes(), skip, table);
            check_readers(u64::MAX - rng.below(1 << 20), c.count(), c.bytes(), skip, table);
            let noise: Vec<u8> = (0..rng.below(200)).map(|_| rng.next_u64() as u8).collect();
            check_readers(rng.next_u64(), rng.below(64) as u32, &noise, skip, table);
        }
    }

    /// Samples of one of the shapes the splice must get right: anything
    /// (`arbitrary_samples`), a regular cadence of a few levels, a
    /// jittered one of quantised readings, and a varied prefix before a
    /// constant run — whose suffix never needs a new window, so it never
    /// resyncs.
    fn shaped_samples(rng: &mut proptest::TestRng, n: usize, shape: u8) -> (Vec<u64>, Vec<f64>) {
        let t0 = rng.below(1 << 40);
        match shape {
            0 => arbitrary_samples(rng, n),
            1 => (0..n as u64)
                .map(|s| (t0 + s * 1000, 180.0 + (rng.below(8) as f64) * 0.25))
                .unzip(),
            2 => (0..n as u64)
                .map(|s| (t0 + s * 1000 + rng.below(5), 200.0 + rng.below(50) as f64))
                .unzip(),
            _ => {
                let split = rng.below(n as u64 + 1);
                (0..n as u64)
                    .map(|s| {
                        let v = if s < split {
                            rng.below(1000) as f64 * 0.5
                        } else {
                            42.0
                        };
                        (t0 + s * 1000, v)
                    })
                    .unzip()
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// For every eviction point, `write_retained` appends exactly
        /// `compress(retained)` and returns its first timestamp — off a
        /// sealed chunk's restart table, off the one an adopted chunk's
        /// validation took, and off none (what a chunk of 145 samples
        /// or fewer, or one whose first point does not pack, holds).
        #[test]
        fn write_retained_is_compress_of_the_retained_samples(
            seed in proptest::any::<u64>(),
            n in 1usize..520,
            shape in 0u8..4,
        ) {
            let mut rng = proptest::TestRng::new(seed);
            let (ts, vals) = shaped_samples(&mut rng, n, shape);
            let sealed = compress(&ts, &vals, 0);
            let v = validate(sealed.first_t(), sealed.count(), sealed.bytes()).unwrap();
            let adopted = Chunk::adopt(&v, 0);
            proptest::prop_assert_eq!(adopted.restarts, sealed.restarts);
            let mut bare = sealed.clone();
            bare.restarts = Restarts::default();
            let mut out = Vec::new();
            for skip in 0..n {
                let want = compress(&ts[skip..], &vals[skip..], 0);
                for c in [&sealed, &adopted, &bare] {
                    let mut evicted = c.clone();
                    if skip > 0 {
                        evicted.evict(skip as u32);
                    }
                    out.clear();
                    out.push(0x5A);
                    let first_t = evicted.write_retained(&mut out);
                    proptest::prop_assert_eq!(first_t, ts[skip]);
                    proptest::prop_assert_eq!(&out[1..], want.bytes(), "skip {}", skip);
                    proptest::prop_assert_eq!(out[0], 0x5A);
                }
            }
        }
    }

    /// A payload `compress` never writes — raw deltas and full-width
    /// windows where narrower codes fit, ones in its last byte's
    /// padding — still validates, and each suffix `write_retained`
    /// makes of it decodes to exactly the retained samples. Past the
    /// resync point those are the stored codes, copied: for some
    /// eviction points the result is not what `compress` would write.
    #[test]
    fn write_retained_of_a_foreign_payload_decodes_to_the_retained_samples() {
        let n = 400usize;
        let ts: Vec<u64> = (0..n as u64).map(|s| 5_000 + s * 1000 + s % 3).collect();
        let vals: Vec<f64> = (0..n as u64)
            .map(|s| 100.0 + ((s * 2_654_435_761) % 37) as f64 * 0.5)
            .collect();
        let escaped = |i: usize| i > n / 2 && i.is_multiple_of(5) || i == 3;
        let bytes = ref_encode_escaping(&ts, &vals, escaped, true);
        assert_ne!(bytes, compress(&ts, &vals, 0).bytes());
        let v = validate(ts[0], n as u32, &bytes).unwrap();
        assert_eq!(v.used_bytes, bytes.len());
        assert_ne!(v.bit_len % 8, 0, "the padding is not empty");
        let adopted = Chunk::adopt(&v, 0);
        let mut copied = 0;
        for skip in 1..n {
            let mut c = adopted.clone();
            c.evict(skip as u32);
            let mut out = Vec::new();
            assert_eq!(c.write_retained(&mut out), ts[skip]);
            let (mut got_ts, mut got_vals) = (Vec::new(), Vec::new());
            decode_exact(
                ts[skip],
                (n - skip) as u32,
                &out,
                &mut got_ts,
                &mut got_vals,
            )
            .unwrap();
            assert_eq!(got_ts, ts[skip..], "skip {skip}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got_vals), bits(&vals[skip..]), "skip {skip}");
            let checked = validate(ts[skip], (n - skip) as u32, &out).unwrap();
            assert_eq!(checked.used_bytes, out.len(), "no byte past the codes");
            let pad = (8 - checked.bit_len % 8) % 8;
            assert_eq!(out.last().unwrap() & ((1u8 << pad) - 1), 0, "zero padding");
            copied += usize::from(out != compress(&ts[skip..], &vals[skip..], 0).bytes());
        }
        assert!(copied > 0, "no eviction point spliced the stored codes");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The table `validate` takes on a payload `compress` wrote is
        /// the one `compress` took, bit for bit — at every length up
        /// past two seals, so through a full table, a capped one and
        /// one cut at a state that does not pack.
        #[test]
        fn validate_takes_the_table_compress_takes(
            seed in proptest::any::<u64>(),
            n in 1usize..1200,
            shape in 0u8..4,
        ) {
            let mut rng = proptest::TestRng::new(seed);
            let (ts, vals) = shaped_samples(&mut rng, n, shape);
            let sealed = compress(&ts, &vals, 0);
            let v = validate(sealed.first_t(), sealed.count(), sealed.bytes()).unwrap();
            proptest::prop_assert_eq!(v.restarts, sealed.restarts);
            let full = (n.saturating_sub(2) / RESTART_STRIDE).min(MAX_RESTARTS);
            proptest::prop_assert!(sealed.restart_points() <= full);
            if shape > 0 {
                // Regular cadences, small deltas: every point packs.
                proptest::prop_assert_eq!(sealed.restart_points(), full);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// A well-formed stream `compress` never writes — raw deltas and
        /// full-width windows where narrower codes fit, ones in the
        /// padding — adopted, reads as a walk from its first sample does:
        /// `scan_from` at every cut, by append index and by timestamp;
        /// `decode` and `decode_into` after every eviction; and
        /// `write_retained` at every skip decodes to the retained samples.
        #[test]
        fn an_adopted_foreign_chunk_reads_as_a_walk_from_its_first_sample(
            seed in proptest::any::<u64>(),
            n in 1usize..700,
            shape in 0u8..4,
            escape_one_in in 1u64..40,
            pad_ones in proptest::any::<bool>(),
        ) {
            let mut rng = proptest::TestRng::new(seed);
            let (ts, vals) = shaped_samples(&mut rng, n, shape);
            let salt = rng.next_u64();
            let escaped = |i: usize| (i as u64 ^ salt).is_multiple_of(escape_one_in);
            let bytes = ref_encode_escaping(&ts, &vals, escaped, pad_ones);
            let decoded = ref_decode(ts[0], n as u32, &bytes);
            proptest::prop_assert!(decoded.complete);
            let v = validate(ts[0], n as u32, &bytes).unwrap();
            proptest::prop_assert_eq!(v.restarts, ref_table(ts[0], &decoded));
            let want: Vec<(u64, u64)> = decoded.samples;
            let start = 1_000;
            let adopted = Chunk::adopt(&v, start);
            let got = |c: &Chunk| -> Vec<(u64, u64)> {
                let (mut t, mut x) = (Vec::new(), Vec::new());
                c.decode_into(&mut t, &mut x);
                t.into_iter().zip(x).map(|(t, v)| (t, v.to_bits())).collect()
            };
            for cut in 0..n {
                let (mut by_index, mut by_time) = (Vec::new(), Vec::new());
                let first = start + cut as u64;
                adopted.scan_from(|append, _| append < first, |append, t, v| {
                    if append >= first {
                        by_index.push((t, v.to_bits()));
                    }
                    true
                });
                proptest::prop_assert_eq!(&by_index[..], &want[cut..], "cut {}", cut);
                let from_t = want[cut].0;
                adopted.scan_from(|_, t| t < from_t, |_, t, v| {
                    if t >= from_t {
                        by_time.push((t, v.to_bits()));
                    }
                    true
                });
                let later: Vec<(u64, u64)> =
                    want.iter().copied().filter(|&(t, _)| t >= from_t).collect();
                proptest::prop_assert_eq!(&by_time, &later, "from t {}", from_t);

                let mut evicted = adopted.clone();
                if cut > 0 {
                    evicted.evict(cut as u32);
                }
                let streamed: Vec<(u64, u64)> =
                    evicted.decode().map(|(t, v)| (t, v.to_bits())).collect();
                proptest::prop_assert_eq!(&streamed[..], &want[cut..], "decode, skip {}", cut);
                proptest::prop_assert_eq!(&got(&evicted)[..], &want[cut..]);

                let mut out = Vec::new();
                proptest::prop_assert_eq!(evicted.write_retained(&mut out), want[cut].0);
                let (mut out_ts, mut out_vals) = (Vec::new(), Vec::new());
                decode_exact(want[cut].0, (n - cut) as u32, &out, &mut out_ts, &mut out_vals)
                    .unwrap();
                let written: Vec<(u64, u64)> =
                    out_ts.into_iter().zip(out_vals).map(|(t, v)| (t, v.to_bits())).collect();
                proptest::prop_assert_eq!(&written[..], &want[cut..], "write_retained, skip {}", cut);
            }
        }
    }

    /// A chunk whose table is empty reads from its first sample, and
    /// reads right: 145 samples or fewer (no stride has a sample after
    /// it), and 512 whose first point does not pack — its first 144
    /// samples span more than 2³² ms — sealed or adopted.
    #[test]
    fn a_chunk_with_no_table_reads_from_its_first_sample() {
        let short: Vec<u64> = (0..145u64).map(|s| s * 1000).collect();
        let long: Vec<u64> = (0..512u64)
            .map(|s| s * 1000 + if s >= 100 { 1 << 33 } else { 0 })
            .collect();
        for ts in [&short, &long] {
            let vals: Vec<f64> = (0..ts.len()).map(|i| (i % 11) as f64 * 0.75).collect();
            let sealed = compress(ts, &vals, 0);
            let v = validate(sealed.first_t(), sealed.count(), sealed.bytes()).unwrap();
            let adopted = Chunk::adopt(&v, 0);
            for c in [&sealed, &adopted] {
                assert_eq!(c.restart_points(), 0);
                for skip in 0..ts.len() {
                    let mut evicted = c.clone();
                    if skip > 0 {
                        evicted.evict(skip as u32);
                    }
                    let got: Vec<(u64, f64)> = evicted.decode().collect();
                    let want: Vec<(u64, f64)> = ts[skip..]
                        .iter()
                        .copied()
                        .zip(vals[skip..].iter().copied())
                        .collect();
                    assert_eq!(got, want, "skip {skip}");
                    let mut out = Vec::new();
                    evicted.write_retained(&mut out);
                    assert_eq!(out, compress(&ts[skip..], &vals[skip..], 0).bytes());
                }
            }
        }
        // One sample more, and the regular cadence takes its point.
        let ts: Vec<u64> = (0..146u64).map(|s| s * 1000).collect();
        assert_eq!(compress(&ts, &vec![1.0; 146], 0).restart_points(), 1);
    }
}
