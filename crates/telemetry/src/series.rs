//! Bounded time series: compressed sealed chunks + an uncompressed tail.
//!
//! Each metric stores its recent history in a bounded series: the
//! paper's loops consume *recent* windows (progress over the last N
//! minutes, bandwidth over the last M samples), while long-term retention
//! belongs to the Knowledge layer, not the monitoring hot path. A bounded
//! store keeps the insert path O(1) amortized and the memory footprint of
//! high-cardinality deployments predictable — the §IV insert-rate and
//! cardinality considerations.
//!
//! # Layout and query model
//!
//! The write-hot **tail** is a pair of parallel uncompressed
//! timestamp/value buffers (struct-of-arrays). When the tail reaches the
//! seal threshold (`capacity.min(512)`), it seals into an immutable
//! Gorilla-compressed [`chunk::Chunk`]
//! (delta-of-delta timestamps + XOR values, bit-exact round trip, ~2–3
//! bytes/sample on smooth 1 Hz telemetry vs 16 uncompressed) and the
//! tail restarts empty. Eviction is **sample-exact**: the oldest chunk
//! carries a logical skip counter, so `len()` and the exporter's
//! `total_appends − len()` eviction identity behave exactly as the old
//! uncompressed ring did.
//!
//! Queries binary-search the tail and the chunk headers, returning a
//! [`SampleView`] of up to two segments: sealed samples decompressed
//! into a **pooled scratch buffer** (reused across queries, returned on
//! drop) and a borrowed slice of the tail. A query that lands entirely
//! in the tail — the common case for loop-rate windows — allocates and
//! decodes nothing, exactly like the previous ring. One that reaches
//! into a sealed chunk seeks to the chunk's restart point nearest its
//! lower bound ([`Chunk::scan_from`]) and decodes from there: the cost
//! follows the window, not the chunk. That holds for every sealed
//! chunk — one this ring compressed, and one it adopted from the wire
//! or a snapshot ([`TimeSeries::adopt_chunk`]), whose table the
//! validation walk took. (A chunk linked on its header alone,
//! [`TimeSeries::link_unwalked`], has no table until
//! [`TimeSeries::settle`] walks it; the ring is not read before.)
//! Aggregations fold directly over the segments.

use crate::chunk::{self, Chunk, Validated};
use crate::window::WindowAgg;
use moda_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;

/// One timestamped observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// When the observation was taken.
    pub t: SimTime,
    /// Observed value.
    pub value: f64,
}

/// Maximum samples per sealed chunk (smaller capacities seal at
/// capacity).
pub const SEAL_THRESHOLD: usize = 512;

/// Decoded-sample scratch, pooled per thread and reused across queries.
#[derive(Debug, Default, Clone)]
struct ScratchBuf {
    ts: Vec<u64>,
    vals: Vec<f64>,
}

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<ScratchBuf>> = const { RefCell::new(Vec::new()) };
}

fn take_scratch() -> ScratchBuf {
    SCRATCH_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default()
}

fn put_scratch(mut buf: ScratchBuf) {
    buf.ts.clear();
    buf.vals.clear();
    SCRATCH_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < 8 {
            pool.push(buf);
        }
    });
}

/// Append-only bounded series of samples, ordered by time: compressed
/// sealed chunks plus an uncompressed write-hot tail.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    /// Sealed compressed blocks, oldest → newest. Only the front chunk
    /// ever carries a non-zero eviction skip.
    chunks: VecDeque<Chunk>,
    /// Retained samples across `chunks` (sum of `retained_len`).
    chunk_len: usize,
    /// Uncompressed tail timestamps (`SimTime` millis), time-ordered.
    tail_ts: Vec<u64>,
    /// Tail values, parallel to `tail_ts`.
    tail_vals: Vec<f64>,
    capacity: usize,
    seal_threshold: usize,
    /// Cached newest sample (the tail can be empty after a bulk absorb).
    last: Option<(u64, f64)>,
    /// Total appends over the series' lifetime (survives eviction).
    total_appends: u64,
    /// Appends dropped because their timestamp preceded the newest sample.
    rejected: u64,
}

impl TimeSeries {
    /// Series retaining at most `capacity` samples (capacity ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let seal_threshold = capacity.min(SEAL_THRESHOLD);
        TimeSeries {
            chunks: VecDeque::new(),
            chunk_len: 0,
            tail_ts: Vec::with_capacity(seal_threshold),
            tail_vals: Vec::with_capacity(seal_threshold),
            capacity,
            seal_threshold,
            last: None,
            total_appends: 0,
            rejected: 0,
        }
    }

    /// Append an observation.
    ///
    /// Timestamps must be non-decreasing; an out-of-order sample is
    /// rejected (counted in [`TimeSeries::rejected`]) rather than
    /// corrupting query invariants. Returns whether the sample was kept.
    pub fn push(&mut self, t: SimTime, value: f64) -> bool {
        if let Some((last_t, _)) = self.last {
            if t.0 < last_t {
                self.rejected += 1;
                return false;
            }
        }
        if self.tail_ts.len() == self.seal_threshold {
            self.seal_tail();
        }
        self.tail_ts.push(t.0);
        self.tail_vals.push(value);
        self.last = Some((t.0, value));
        self.total_appends += 1;
        self.evict_to_target();
        true
    }

    /// Link an already-validated compressed block as a sealed chunk —
    /// the fleet chunk-ingest path: the payload arrived in storage
    /// format, so it is neither decoded nor re-compressed; the restart
    /// table its validation took comes with it, so reads into it seek
    /// as into a chunk sealed here. Seals
    /// whatever tail there is first (the block's samples follow it),
    /// then evicts sample-exactly as any append does. A block that
    /// starts before the newest sample is refused whole (returns
    /// `false`, series untouched) so the caller can fall back to
    /// per-sample pushes with exact reject accounting.
    pub fn adopt_chunk(&mut self, block: &Validated<'_>) -> bool {
        if !self.links_from(block.first_t()) {
            return false;
        }
        self.link(Chunk::adopt(block, self.total_appends), block.last_value);
        true
    }

    /// Whether a block whose first sample is at `first_t` would be
    /// linked whole: it starts at or after the newest sample.
    pub fn links_from(&self, first_t: u64) -> bool {
        self.last.is_none_or(|(last_t, _)| first_t >= last_t)
    }

    /// [`TimeSeries::adopt_chunk`] for a payload that is not walked
    /// here at all, on the word of whoever walked it before — a fleet
    /// replaying a chunk it checked before it logged it. The bytes are
    /// linked on the header's `first_t`, `last_t` and `count` alone,
    /// with no restart table and no last value, and eviction treats the
    /// chunk like any other; one evicted before [`TimeSeries::settle`]
    /// is never walked. Until then the ring must not be read, and
    /// [`TimeSeries::latest`]'s value is NaN if the chunk is the newest.
    /// Returns `false`, series untouched, where `adopt_chunk` would, or
    /// for a `count` of 0.
    pub fn link_unwalked(&mut self, first_t: u64, last_t: u64, count: u32, bytes: &[u8]) -> bool {
        if count == 0 || !self.links_from(first_t) {
            return false;
        }
        let chunk = Chunk::unwalked(first_t, last_t, count, bytes, self.total_appends);
        self.link(chunk, f64::NAN);
        true
    }

    /// Seal the tail, append `chunk` (its last value `last_value`) and
    /// evict.
    fn link(&mut self, chunk: Chunk, last_value: f64) {
        self.seal_tail();
        self.chunk_len += chunk.count() as usize;
        self.total_appends += u64::from(chunk.count());
        self.last = Some((chunk.last_t(), last_value));
        self.chunks.push_back(chunk);
        self.evict_to_target();
    }

    /// Walk every chunk [`TimeSeries::link_unwalked`] linked that the
    /// ring still holds, giving each what [`TimeSeries::adopt_chunk`]
    /// would have (its restart table, its exact length, its payload cut
    /// to its used bytes, and the newest one's last value), so the ring
    /// is the one adoption would have built. A chunk that does not walk,
    /// or ends off its header's `last_t`, is an error; the chunks before
    /// it are settled, it and the ones after it are not.
    pub fn settle(&mut self) -> Result<(), chunk::DecodeError> {
        let newest = self.chunks.len().wrapping_sub(1);
        for (i, c) in self.chunks.iter_mut().enumerate() {
            if c.is_walked() {
                continue;
            }
            let last_value = c.settle()?;
            if i == newest && self.tail_ts.is_empty() {
                self.last = Some((c.last_t(), last_value));
            }
        }
        Ok(())
    }

    /// Compress the tail into a sealed chunk, in place.
    fn seal_tail(&mut self) {
        if self.tail_ts.is_empty() {
            return;
        }
        let start_append = self.total_appends - self.tail_ts.len() as u64;
        let c = chunk::compress(&self.tail_ts, &self.tail_vals, start_append);
        self.chunk_len += self.tail_ts.len();
        self.chunks.push_back(c);
        self.tail_ts.clear();
        self.tail_vals.clear();
    }

    /// Evict oldest samples (sample-exact, via the front chunk's skip
    /// counter) until at most `capacity` are retained.
    fn evict_to_target(&mut self) {
        while self.len() > self.capacity {
            let excess = self.len() - self.capacity;
            let front = self
                .chunks
                .front_mut()
                .expect("tail alone never exceeds capacity");
            let n = front.retained_len().min(excess);
            self.chunk_len -= n;
            if front.evict(n as u32) {
                self.chunks.pop_front();
            }
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.chunk_len + self.tail_ts.len()
    }

    /// Whether no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retention capacity: the most samples the series retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime appends (including samples since evicted).
    pub fn total_appends(&self) -> u64 {
        self.total_appends
    }

    /// Out-of-order samples rejected.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The sealed compressed chunks, oldest → newest (the exporter
    /// ships these whole as wire `chunk` records).
    pub fn sealed_chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.chunks.iter()
    }

    /// The unsealed samples from lifetime append index `from` on, as
    /// parallel `(timestamps, values)` slices where they lie. Panics
    /// when `from` lies outside the tail (the exporter ships the sealed
    /// region as chunks first).
    pub fn tail_from(&self, from: u64) -> (&[u64], &[f64]) {
        let tail_start = self.total_appends - self.tail_ts.len() as u64;
        let at = (from - tail_start) as usize;
        (&self.tail_ts[at..], &self.tail_vals[at..])
    }

    /// Heap bytes held by the uncompressed tail buffers.
    pub fn raw_bytes(&self) -> usize {
        self.tail_ts.capacity() * std::mem::size_of::<u64>()
            + self.tail_vals.capacity() * std::mem::size_of::<f64>()
    }

    /// Heap bytes held by sealed compressed chunks (payloads + headers,
    /// which hold the restart tables).
    pub fn compressed_bytes(&self) -> usize {
        self.chunks.iter().map(Chunk::mem_bytes).sum()
    }

    /// Retained samples currently living in sealed chunks.
    pub fn compressed_len(&self) -> usize {
        self.chunk_len
    }

    /// Total heap bytes held by this series' sample storage.
    pub fn mem_bytes(&self) -> usize {
        self.raw_bytes() + self.compressed_bytes()
    }

    /// Most recent sample. O(1) (cached).
    pub fn latest(&self) -> Option<Sample> {
        self.last.map(|(t, value)| Sample {
            t: SimTime(t),
            value,
        })
    }

    /// Oldest retained sample. O(1) when the oldest data is in the
    /// tail; otherwise a decode of the front chunk from the restart
    /// point nearest its evicted prefix's end.
    pub fn oldest(&self) -> Option<Sample> {
        if let Some(front) = self.chunks.front() {
            return Some(first_retained(front));
        }
        self.tail_ts.first().map(|&t| Sample {
            t: SimTime(t),
            value: self.tail_vals[0],
        })
    }

    /// Iterate samples oldest → newest (sealed samples decode into one
    /// pooled scratch buffer owned by the iterator).
    pub fn iter(&self) -> SampleIter<'_> {
        self.view().into_iter()
    }

    /// View of every retained sample.
    pub fn view(&self) -> SampleView<'_> {
        self.gather(|_| false, |_| false)
    }

    /// View of samples with `t0 <= t < t1`.
    ///
    /// O(log n) binary search over the tail and chunk headers; sealed
    /// samples in range decompress into the view's pooled scratch.
    pub fn range_view(&self, t0: SimTime, t1: SimTime) -> SampleView<'_> {
        if t1 <= t0 {
            return SampleView::empty();
        }
        self.gather(|t| t < t0.0, |t| t >= t1.0)
    }

    /// View of the trailing window `(now - window, now]`.
    pub fn window_view(&self, now: SimTime, window: SimDuration) -> SampleView<'_> {
        let t0 = now.0.saturating_sub(window.0);
        self.gather(move |t| t <= t0, move |t| t > now.0)
    }

    /// View of the last `n` samples, oldest → newest. Zero-copy when
    /// the last `n` samples live in the uncompressed tail.
    pub fn last_n_view(&self, n: usize) -> SampleView<'_> {
        let n = n.min(self.len());
        if n <= self.tail_ts.len() {
            let start = self.tail_ts.len() - n;
            return SampleView {
                scratch: None,
                tail_ts: &self.tail_ts[start..],
                tail_vals: &self.tail_vals[start..],
            };
        }
        // Walk back to the chunk holding the oldest wanted sample and
        // that sample's append index.
        let mut need = n - self.tail_ts.len();
        let mut from = self.chunks.len();
        let mut first = 0;
        while need > 0 {
            from -= 1;
            let c = &self.chunks[from];
            let take = need.min(c.retained_len());
            first = c.end_append() - take as u64;
            need -= take;
        }
        let mut buf = take_scratch();
        for c in self.chunks.range(from..) {
            c.scan_from(
                |append, _| append < first,
                |append, t, v| {
                    if append >= first {
                        buf.ts.push(t);
                        buf.vals.push(v);
                    }
                    true
                },
            );
        }
        SampleView {
            scratch: Some(buf),
            tail_ts: &self.tail_ts,
            tail_vals: &self.tail_vals,
        }
    }

    /// Build a view of every sample for which neither `below` nor
    /// `above` holds. Both predicates must be monotone over time
    /// (`below` a true-prefix, `above` a true-suffix).
    fn gather(&self, below: impl Fn(u64) -> bool, above: impl Fn(u64) -> bool) -> SampleView<'_> {
        let lo = self.tail_ts.partition_point(|&t| below(t));
        let hi = self.tail_ts.partition_point(|&t| !above(t)).max(lo);
        let mut scratch: Option<ScratchBuf> = None;
        let reached = self.chunks.partition_point(|c| below(c.last_t()));
        for c in self.chunks.range(reached..) {
            if above(c.first_t()) {
                break;
            }
            let buf = scratch.get_or_insert_with(take_scratch);
            if !below(c.first_t()) && !above(c.last_t()) {
                c.decode_into(&mut buf.ts, &mut buf.vals);
            } else {
                c.scan_from(
                    |_, t| below(t),
                    |_, t, v| {
                        if above(t) {
                            return false;
                        }
                        if !below(t) {
                            buf.ts.push(t);
                            buf.vals.push(v);
                        }
                        true
                    },
                );
            }
        }
        SampleView {
            scratch,
            tail_ts: &self.tail_ts[lo..hi],
            tail_vals: &self.tail_vals[lo..hi],
        }
    }

    /// Value interpolated linearly at time `t`, if `t` falls within the
    /// retained span. Exact matches return the stored value (the newest
    /// among duplicate timestamps); queries outside the span return
    /// `None` rather than extrapolating. O(log n) over the tail; when
    /// `t` falls in the sealed region, one chunk decodes from its
    /// restart point nearest `t` to the first sample past it.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        let first = self.oldest()?;
        let last = self.latest()?;
        if t < first.t || t > last.t {
            return None;
        }
        // If the newest sample with ts <= t lives in the tail, its
        // successor does too (or `t` hit it exactly).
        if let Some(&tail_first) = self.tail_ts.first() {
            if t.0 >= tail_first {
                let below = self.tail_ts.partition_point(|&x| x <= t.0) - 1;
                let (bt, bv) = (self.tail_ts[below], self.tail_vals[below]);
                if bt == t.0 {
                    return Some(bv);
                }
                return Some(Self::interp(
                    t.0,
                    bt,
                    bv,
                    self.tail_ts[below + 1],
                    self.tail_vals[below + 1],
                ));
            }
        }
        // Sealed region: the bracketing `below` sample is in the last
        // chunk whose first encoded timestamp is <= t (the span guard
        // above makes at least one such chunk exist).
        let ci = self.chunks.partition_point(|c| c.first_t() <= t.0) - 1;
        let (mut below, mut next) = (None, None);
        self.chunks[ci].scan_from(
            |_, x| x <= t.0,
            |_, x, v| {
                if x <= t.0 {
                    below = Some((x, v));
                } else {
                    next = Some((x, v));
                }
                next.is_none()
            },
        );
        let (bt, bv) = below.expect("a retained sample at or before `t`");
        if bt == t.0 {
            return Some(bv);
        }
        // Successor: in-chunk, or the first sample of the next segment
        // (next chunk, else the tail) — `t <= last.t` guarantees one
        // exists.
        let (nt, nv) = next.unwrap_or_else(|| match self.chunks.get(ci + 1) {
            Some(c) => {
                let s = first_retained(c);
                (s.t.0, s.value)
            }
            None => (self.tail_ts[0], self.tail_vals[0]),
        });
        Some(Self::interp(t.0, bt, bv, nt, nv))
    }

    fn interp(t: u64, bt: u64, bv: f64, nt: u64, nv: f64) -> f64 {
        let span = (nt - bt) as f64;
        let frac = (t - bt) as f64 / span;
        bv + frac * (nv - bv)
    }
}

/// Oldest retained sample of a sealed chunk (a retained chunk is never
/// empty: eviction drops a chunk the moment its last sample goes).
fn first_retained(c: &Chunk) -> Sample {
    let mut first = None;
    c.scan(|t, value| {
        first = Some(Sample {
            t: SimTime(t),
            value,
        });
        false
    });
    first.expect("sealed chunk is non-empty")
}

/// Allocation-light result of a window/range query: parallel
/// `(timestamps, values)` data in up to two contiguous segments —
/// sealed samples decompressed into a pooled scratch buffer (returned
/// to the pool when the view drops) followed by a borrowed slice of the
/// uncompressed tail. Tail-only queries borrow and never allocate.
/// Aggregations fold directly over the segments.
#[derive(Debug)]
pub struct SampleView<'a> {
    /// Decoded sealed samples (None when the query never left the tail).
    scratch: Option<ScratchBuf>,
    /// Borrowed tail timestamp slice.
    tail_ts: &'a [u64],
    /// Borrowed tail value slice, parallel to `tail_ts`.
    tail_vals: &'a [f64],
}

impl Drop for SampleView<'_> {
    fn drop(&mut self) {
        if let Some(buf) = self.scratch.take() {
            put_scratch(buf);
        }
    }
}

impl Clone for SampleView<'_> {
    fn clone(&self) -> Self {
        SampleView {
            scratch: self.scratch.clone(),
            tail_ts: self.tail_ts,
            tail_vals: self.tail_vals,
        }
    }
}

impl<'a> SampleView<'a> {
    /// A view over nothing.
    pub fn empty() -> Self {
        SampleView {
            scratch: None,
            tail_ts: &[],
            tail_vals: &[],
        }
    }

    /// Number of samples in the view.
    pub fn len(&self) -> usize {
        self.scratch.as_ref().map_or(0, |b| b.ts.len()) + self.tail_ts.len()
    }

    /// Whether the view contains no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value segments (zero, one, or two non-empty slices),
    /// oldest → newest.
    pub fn value_slices(&self) -> [&[f64]; 2] {
        [
            self.scratch.as_ref().map_or(&[][..], |b| &b.vals),
            self.tail_vals,
        ]
    }

    /// The timestamp segments, as raw `SimTime` millis.
    pub fn ts_slices(&self) -> [&[u64]; 2] {
        [
            self.scratch.as_ref().map_or(&[][..], |b| &b.ts),
            self.tail_ts,
        ]
    }

    /// Sample at position `i` (0 = oldest). Panics when out of range.
    pub fn get(&self, i: usize) -> Sample {
        let [ts0, ts1] = self.ts_slices();
        let [vals0, vals1] = self.value_slices();
        if i < ts0.len() {
            Sample {
                t: SimTime(ts0[i]),
                value: vals0[i],
            }
        } else {
            Sample {
                t: SimTime(ts1[i - ts0.len()]),
                value: vals1[i - ts0.len()],
            }
        }
    }

    /// Oldest sample in the view.
    pub fn first(&self) -> Option<Sample> {
        if self.is_empty() {
            None
        } else {
            Some(self.get(0))
        }
    }

    /// Newest sample in the view.
    pub fn last(&self) -> Option<Sample> {
        if self.is_empty() {
            None
        } else {
            Some(self.get(self.len() - 1))
        }
    }

    /// Iterate values oldest → newest.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        let [a, b] = self.value_slices();
        a.iter().copied().chain(b.iter().copied())
    }

    /// Iterate timestamps oldest → newest.
    pub fn timestamps(&self) -> impl Iterator<Item = SimTime> + '_ {
        let [a, b] = self.ts_slices();
        a.iter().copied().chain(b.iter().copied()).map(SimTime)
    }

    /// Iterate samples oldest → newest without consuming the view.
    pub fn iter(&self) -> SampleRefIter<'_> {
        self.into_iter()
    }

    /// Materialize into an owned vector (the legacy query shape).
    pub fn to_vec(&self) -> Vec<Sample> {
        self.iter().collect()
    }

    /// Fold the view's values through an aggregation without allocating
    /// (except `Percentile`, which selects on an internal copy; use
    /// [`SampleView::aggregate_with_scratch`] on hot paths to reuse a
    /// caller-owned buffer). Empty views follow [`WindowAgg::apply`]
    /// semantics: 0 for `Sum`/`Count`, NaN otherwise.
    pub fn aggregate(&self, agg: WindowAgg) -> f64 {
        let mut scratch = Vec::new();
        self.aggregate_with_scratch(agg, &mut scratch)
    }

    /// [`SampleView::aggregate`] reusing `scratch` for order-statistic
    /// aggregations; non-percentile aggregations never touch it.
    pub fn aggregate_with_scratch(&self, agg: WindowAgg, scratch: &mut Vec<f64>) -> f64 {
        let n = self.len();
        match agg {
            WindowAgg::Count => n as f64,
            WindowAgg::Sum => self.fold(0.0, |acc, v| acc + v),
            _ if n == 0 => f64::NAN,
            WindowAgg::Mean => self.fold(0.0, |acc, v| acc + v) / n as f64,
            WindowAgg::Min => self.fold(f64::INFINITY, f64::min),
            WindowAgg::Max => self.fold(f64::NEG_INFINITY, f64::max),
            WindowAgg::Last => self.last().expect("non-empty").value,
            WindowAgg::Percentile(_) => {
                scratch.clear();
                scratch.extend(self.values());
                agg.apply_mut(scratch)
            }
        }
    }

    /// Segment-wise value fold (avoids the per-item branch of a chained
    /// iterator on the hot path).
    #[inline]
    fn fold(&self, init: f64, f: impl Fn(f64, f64) -> f64) -> f64 {
        let mut acc = init;
        for &v in self.value_slices()[0] {
            acc = f(acc, v);
        }
        for &v in self.value_slices()[1] {
            acc = f(acc, v);
        }
        acc
    }
}

/// Owning iterator over a [`SampleView`] (holds the view's pooled
/// scratch until dropped).
pub struct SampleIter<'a> {
    view: SampleView<'a>,
    pos: usize,
}

impl Iterator for SampleIter<'_> {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        if self.pos >= self.view.len() {
            None
        } else {
            let s = self.view.get(self.pos);
            self.pos += 1;
            Some(s)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.view.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for SampleIter<'_> {}

impl<'a> IntoIterator for SampleView<'a> {
    type Item = Sample;
    type IntoIter = SampleIter<'a>;

    fn into_iter(self) -> SampleIter<'a> {
        SampleIter { view: self, pos: 0 }
    }
}

/// Borrowing iterator over a [`SampleView`].
pub struct SampleRefIter<'v> {
    ts: [&'v [u64]; 2],
    vals: [&'v [f64]; 2],
    pos: usize,
}

impl Iterator for SampleRefIter<'_> {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        let (seg, j) = if self.pos < self.ts[0].len() {
            (0, self.pos)
        } else {
            (1, self.pos - self.ts[0].len())
        };
        if j >= self.ts[seg].len() {
            return None;
        }
        self.pos += 1;
        Some(Sample {
            t: SimTime(self.ts[seg][j]),
            value: self.vals[seg][j],
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.ts[0].len() + self.ts[1].len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for SampleRefIter<'_> {}

impl<'v, 'a> IntoIterator for &'v SampleView<'a> {
    type Item = Sample;
    type IntoIter = SampleRefIter<'v>;

    fn into_iter(self) -> SampleRefIter<'v> {
        SampleRefIter {
            ts: self.ts_slices(),
            vals: self.value_slices(),
            pos: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moda_sim::SimDuration;

    fn ts(pairs: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new(1024);
        for &(t, v) in pairs {
            assert!(s.push(SimTime::from_secs(t), v));
        }
        s
    }

    #[test]
    fn push_and_latest() {
        let s = ts(&[(1, 10.0), (2, 20.0), (3, 30.0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.latest().unwrap().value, 30.0);
        assert_eq!(s.oldest().unwrap().value, 10.0);
        assert_eq!(s.total_appends(), 3);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut s = TimeSeries::new(3);
        for i in 0..10u64 {
            s.push(SimTime::from_secs(i), i as f64);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.oldest().unwrap().value, 7.0);
        assert_eq!(s.latest().unwrap().value, 9.0);
        assert_eq!(s.total_appends(), 10);
    }

    #[test]
    fn out_of_order_rejected() {
        let mut s = ts(&[(5, 1.0)]);
        assert!(!s.push(SimTime::from_secs(4), 2.0));
        assert_eq!(s.rejected(), 1);
        assert_eq!(s.len(), 1);
        // Equal timestamps are allowed (multiple sensors in one tick).
        assert!(s.push(SimTime::from_secs(5), 3.0));
    }

    #[test]
    fn range_is_half_open() {
        let s = ts(&[(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)]);
        let r = s.range_view(SimTime::from_secs(2), SimTime::from_secs(4));
        let vals: Vec<f64> = r.iter().map(|s| s.value).collect();
        assert_eq!(vals, vec![2.0, 3.0]);
    }

    #[test]
    fn last_n_clamps() {
        let s = ts(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        assert_eq!(s.last_n_view(2).len(), 2);
        assert_eq!(s.last_n_view(2).get(0).value, 2.0);
        assert_eq!(s.last_n_view(99).len(), 3);
        assert_eq!(s.last_n_view(0).len(), 0);
    }

    #[test]
    fn window_trailing() {
        let s = ts(&[(10, 1.0), (20, 2.0), (30, 3.0), (40, 4.0)]);
        let w = s.window_view(SimTime::from_secs(40), SimDuration::from_secs(20));
        let vals: Vec<f64> = w.iter().map(|s| s.value).collect();
        // (20, 40] → samples at 30 and 40.
        assert_eq!(vals, vec![3.0, 4.0]);
    }

    #[test]
    fn value_at_interpolates() {
        let s = ts(&[(0, 0.0), (10, 100.0)]);
        assert_eq!(s.value_at(SimTime::from_secs(0)), Some(0.0));
        assert_eq!(s.value_at(SimTime::from_secs(10)), Some(100.0));
        assert_eq!(s.value_at(SimTime::from_secs(5)), Some(50.0));
        assert_eq!(s.value_at(SimTime::from_secs(11)), None);
        let empty = TimeSeries::new(4);
        assert_eq!(empty.value_at(SimTime::ZERO), None);
    }

    #[test]
    fn value_at_duplicate_timestamps() {
        let mut s = TimeSeries::new(8);
        s.push(SimTime::from_secs(1), 1.0);
        s.push(SimTime::from_secs(1), 2.0);
        // Exact hit returns the newest duplicate.
        assert_eq!(s.value_at(SimTime::from_secs(1)), Some(2.0));
        // Interpolating across a duplicate stays finite and bracketed.
        s.push(SimTime::from_secs(3), 4.0);
        let v = s.value_at(SimTime::from_secs(2)).unwrap();
        assert!((2.0..=4.0).contains(&v), "{v}");
    }

    #[test]
    fn value_at_after_eviction() {
        let mut s = TimeSeries::new(4);
        for i in 0..10u64 {
            s.push(SimTime::from_secs(i), (i * 10) as f64);
        }
        // Retained span is [6, 9].
        assert_eq!(s.value_at(SimTime::from_secs(5)), None);
        assert_eq!(s.value_at(SimTime::from_secs(6)), Some(60.0));
        assert_eq!(s.value_at(SimTime::from_secs(9)), Some(90.0));
        let mid = s.value_at(SimTime(7_500)).unwrap();
        assert!((mid - 75.0).abs() < 1e-9);
    }

    #[test]
    fn value_at_inside_sealed_chunks() {
        // Two sealed 512-sample chunks and a tail: the bracketing pair
        // falls inside a sealed chunk, across the chunk boundary, and
        // across the seal point into the tail.
        let mut s = TimeSeries::new(2048);
        for i in 0..1100u64 {
            s.push(SimTime::from_secs(i), (i * 10) as f64);
        }
        assert_eq!(s.compressed_len(), 1024);
        for i in 0..1099u64 {
            let t = SimTime(i * 1000 + 500);
            let want = (i * 10) as f64 + 5.0;
            let got = s.value_at(t).unwrap();
            assert!((got - want).abs() < 1e-9, "t={t:?}: {got} vs {want}");
        }
    }

    #[test]
    fn zero_capacity_clamped_to_one() {
        let mut s = TimeSeries::new(0);
        assert_eq!(s.capacity(), 1);
        s.push(SimTime::from_secs(1), 1.0);
        s.push(SimTime::from_secs(2), 2.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.latest().unwrap().value, 2.0);
    }

    #[test]
    fn views_span_the_seal_point() {
        let mut s = TimeSeries::new(4);
        for i in 0..6u64 {
            s.push(SimTime::from_secs(i), i as f64);
        }
        // Series holds [2, 3, 4, 5]: [2, 3] in a sealed chunk (with an
        // evicted prefix), [4, 5] in the tail.
        let v = s.view();
        assert_eq!(v.len(), 4);
        let times: Vec<u64> = v.timestamps().map(|t| t.0 / 1000).collect();
        assert_eq!(times, vec![2, 3, 4, 5]);
        // Both segments non-empty: the view really does splice decoded
        // chunk samples with the borrowed tail.
        assert!(!v.ts_slices()[0].is_empty() && !v.ts_slices()[1].is_empty());
        let w = s.window_view(SimTime::from_secs(5), SimDuration::from_secs(2));
        let vals: Vec<f64> = w.values().collect();
        assert_eq!(vals, vec![4.0, 5.0]);
    }

    #[test]
    fn tail_only_windows_borrow() {
        let mut s = TimeSeries::new(16);
        for i in 0..20u64 {
            s.push(SimTime::from_secs(i), i as f64);
        }
        // The newest samples are in the tail: a narrow trailing window
        // must not decode any chunk.
        let w = s.window_view(SimTime::from_secs(19), SimDuration::from_secs(1));
        assert!(w.scratch.is_none(), "tail-only window must not decode");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn view_aggregate_matches_apply() {
        let s = ts(&[(1, 5.0), (2, 1.0), (3, 3.0), (4, 9.0)]);
        let v = s.last_n_view(3);
        assert_eq!(v.aggregate(WindowAgg::Sum), 13.0);
        assert_eq!(v.aggregate(WindowAgg::Min), 1.0);
        assert_eq!(v.aggregate(WindowAgg::Max), 9.0);
        assert_eq!(v.aggregate(WindowAgg::Last), 9.0);
        assert_eq!(v.aggregate(WindowAgg::Count), 3.0);
        assert!((v.aggregate(WindowAgg::Mean) - 13.0 / 3.0).abs() < 1e-12);
        assert_eq!(v.aggregate(WindowAgg::Percentile(0.5)), 3.0);
        let empty = s.range_view(SimTime::ZERO, SimTime::ZERO);
        assert_eq!(empty.aggregate(WindowAgg::Count), 0.0);
        assert!(empty.aggregate(WindowAgg::Mean).is_nan());
    }

    #[test]
    fn adopt_chunk_matches_pushes() {
        let ts_ms: Vec<u64> = (0..1200u64).map(|i| i * 500).collect();
        let vals: Vec<f64> = (0..1200).map(|i| (i % 97) as f64).collect();
        // 100 pushed samples, then the rest adopted as two blocks.
        let mut a = TimeSeries::new(1000);
        let mut b = TimeSeries::new(1000);
        for (&t, &v) in ts_ms.iter().zip(&vals) {
            b.push(SimTime(t), v);
        }
        for i in 0..100 {
            a.push(SimTime(ts_ms[i]), vals[i]);
        }
        for span in [100..700, 700..1200] {
            let c = chunk::compress(&ts_ms[span.clone()], &vals[span], 0);
            let block = chunk::validate(c.first_t(), c.count(), c.bytes()).unwrap();
            assert!(a.adopt_chunk(&block));
        }
        assert_eq!(a.len(), b.len());
        assert_eq!(a.total_appends(), b.total_appends());
        assert_eq!(a.latest(), b.latest());
        let av: Vec<Sample> = a.iter().collect();
        let bv: Vec<Sample> = b.iter().collect();
        assert_eq!(av, bv);
        // Eviction stayed sample-exact and only the front chunk skips.
        assert_eq!(a.len(), 1000);
        assert!(a.sealed_chunks().skip(1).all(|c| c.skip() == 0));
        // The adopted chunks carry the ring's own append indices (the
        // sealed 100-sample tail and 100 more samples are evicted).
        let spans: Vec<(u64, u64)> = a
            .sealed_chunks()
            .map(|c| (c.retained_start_append(), c.end_append()))
            .collect();
        assert_eq!(spans, vec![(200, 700), (700, 1200)]);
        // A block that starts before the newest sample is refused whole.
        let stale = chunk::compress(&[0, 1], &[0.0, 0.0], 0);
        let stale = chunk::validate(stale.first_t(), stale.count(), stale.bytes()).unwrap();
        assert!(!a.adopt_chunk(&stale));
        assert_eq!((a.len(), a.total_appends()), (1000, 1200));
    }

    /// A ring whose chunks were linked on their headers and then
    /// settled is the ring adoption builds, chunk for chunk — payloads
    /// cut to their codes, restart tables, skips, append indices, the
    /// newest value — whatever the payloads carry past their codes, and
    /// whether or not samples were pushed between them. A damaged chunk
    /// evicted before the ring settles is never walked; a damaged one
    /// the ring keeps refuses to settle.
    #[test]
    fn a_ring_linked_unwalked_and_settled_is_the_ring_adoption_builds() {
        let sealed = |from: u64, n: u64| {
            let ts: Vec<u64> = (from..from + n).map(|i| i * 1000 + i % 3).collect();
            let vals: Vec<f64> = ts.iter().map(|&t| (t % 89) as f64 * 0.5).collect();
            chunk::compress(&ts, &vals, 0)
        };
        let blocks = [(0, 700, 0), (700, 512, 3), (1212, 130, 1), (1342, 900, 0)];
        let feed = |linked: bool, damage_first: bool| {
            let mut ring = TimeSeries::new(1500);
            for (k, &(from, n, trailing)) in blocks.iter().enumerate() {
                let c = sealed(from, n);
                let mut bytes = c.bytes().to_vec();
                bytes.extend(std::iter::repeat_n(0xA5, trailing));
                if damage_first && k == 0 {
                    bytes[5] ^= 0xFF;
                }
                if linked {
                    assert!(ring.link_unwalked(c.first_t(), c.last_t(), c.count(), &bytes));
                } else {
                    let block = chunk::validate(c.first_t(), c.count(), &bytes).unwrap();
                    assert!(ring.adopt_chunk(&block));
                }
                if k == 1 {
                    let t = c.last_t() + 500;
                    assert!(ring.push(SimTime(t), 1.5));
                }
            }
            ring
        };
        let adopted = feed(false, false);
        for damage_first in [false, true] {
            let mut linked = feed(true, damage_first);
            assert!(linked.sealed_chunks().any(|c| !c.is_walked()));
            linked.settle().unwrap();
            assert!(linked.sealed_chunks().all(Chunk::is_walked));
            let chunks = |ring: &TimeSeries| {
                let all: Vec<String> = ring.sealed_chunks().map(|c| format!("{c:?}")).collect();
                all
            };
            assert_eq!(chunks(&linked), chunks(&adopted));
            assert_eq!((linked.len(), linked.total_appends()), (1500, 2243));
            assert_eq!(
                linked.latest().map(|s| s.value.to_bits()),
                adopted.latest().map(|s| s.value.to_bits())
            );
            assert_eq!(
                linked.iter().collect::<Vec<_>>(),
                adopted.iter().collect::<Vec<_>>()
            );
        }
        // The newest chunk damaged: kept, so it refuses.
        let mut kept = TimeSeries::new(1500);
        let c = sealed(0, 600);
        let mut bytes = c.bytes().to_vec();
        bytes[9] ^= 0xFF;
        assert!(kept.link_unwalked(c.first_t(), c.last_t(), c.count(), &bytes));
        assert!(kept.settle().is_err());
        // A block that starts before the newest sample is refused whole.
        assert!(!kept.link_unwalked(0, 5, 2, &bytes));
        assert!(!TimeSeries::new(8).link_unwalked(0, 0, 0, &[]));
    }

    #[test]
    fn memory_accounting_reports_compression() {
        let mut s = TimeSeries::new(4096);
        for i in 0..4096u64 {
            s.push(SimTime::from_secs(i), 200.0 + (i % 7) as f64);
        }
        assert!(s.compressed_len() > 0);
        let per_sample = s.compressed_bytes() as f64 / s.compressed_len() as f64;
        assert!(
            per_sample < 3.0,
            "smooth 1 Hz telemetry must compress below 3 B/sample, got {per_sample:.2}"
        );
        // The uncompressed equivalent would be 16 B/sample.
        assert!(s.mem_bytes() < s.len() * 16);
    }
}
