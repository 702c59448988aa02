//! Mergeable quantile sketches — order statistics for the rollup tier.
//!
//! The Knowledge layer's feedback loops want **tail-latency signals**
//! (p95/p99 over hours-to-days), but count/sum/min/max/last rollup
//! buckets cannot reproduce order statistics, so wide percentiles used
//! to fall back to an O(n) raw scan — and could not look past raw
//! retention at all. This module closes that gap with a small,
//! [mergeable](QuantileSketch::merge) DDSketch-style quantile sketch:
//! one sketch rides in every sealed rollup bucket, 1m sketches cascade
//! into 1h buckets on seal, and a day-wide p99 becomes a merge of
//! O(window/res) sketches instead of a selection over O(window) samples.
//!
//! # Representation and error bound
//!
//! Values are hashed into **logarithmic buckets** with fixed relative
//! width: bucket `k` covers `(γ^(k-1), γ^k]` with
//! `γ = (1 + α) / (1 − α)` and `α =` [`SKETCH_RELATIVE_ERROR`] `= 0.01`.
//! Each bucket's representative `2·γ^k / (1 + γ)` is within `α` relative
//! error of *every* value in the bucket. Counts per bucket are exact and
//! buckets are never collapsed, so for any rank the sketch finds the
//! exact bucket holding that order statistic, and therefore:
//!
//! > **Error bound.** For a quantile query `q` over `n` folded values,
//! > [`QuantileSketch::quantile`] returns an estimate `v̂` with
//! > `|v̂ − v| ≤ α·|v|` for `v` the exact order statistic of rank
//! > `round(q·(n−1))` — i.e. at most 1 % relative error (plus f64
//! > rounding) against the true percentile value.
//!
//! Negative values mirror into a second bucket store; values with
//! `|v| ≤ 1e-9` (and NaN) land in a dedicated zero bucket and are
//! estimated as `0.0` (absolute error ≤ 1e-9 — below telemetry noise).
//! Magnitudes above `γ^35000` (≈ 1e304) clamp to the top bucket.
//!
//! # Cost
//!
//! Storage is a pair of sorted sparse `(key, count)` vectors — a bucket
//! covering one decade of dynamic range costs ~115 entries (8 bytes
//! each); typical per-minute/hour telemetry spans far less. Folding one
//! value is a binary search (plus `ln`) on the **active bucket only**;
//! merging two sketches is a linear two-pointer pass, which is what the
//! rollup planner does per sealed bucket at query time.

/// Relative error `α` of every quantile estimate (see module docs).
pub const SKETCH_RELATIVE_ERROR: f64 = 0.01;

/// Bucket-width ratio `γ = (1 + α) / (1 − α)`.
pub const GAMMA: f64 = (1.0 + SKETCH_RELATIVE_ERROR) / (1.0 - SKETCH_RELATIVE_ERROR);

/// `ln γ`, precomputed (pinned against `GAMMA.ln()` by a unit test;
/// `f64::ln` is not `const`).
const LN_GAMMA: f64 = 0.020000666706669435;

/// Magnitudes at or below this fold into the zero bucket (estimated as
/// exactly `0.0`; the relative-error bound degrades to an absolute one
/// of the same size there).
pub const ZERO_EPS: f64 = 1e-9;

/// Largest bucket key: `γ^MAX_KEY ≈ e^700 ≈ 1e304`. Larger magnitudes
/// (including `±∞`) clamp here.
const MAX_KEY: i32 = 35_000;

/// Smallest bucket key, implied by [`ZERO_EPS`] (`ln 1e-9 / ln γ`).
const MIN_KEY: i32 = -1_037;

/// Bucket key for a magnitude `a > ZERO_EPS`: `⌈ln a / ln γ⌉`, clamped.
#[inline]
fn key_of(a: f64) -> i32 {
    let k = (a.ln() / LN_GAMMA).ceil();
    if k <= MIN_KEY as f64 {
        MIN_KEY
    } else if k >= MAX_KEY as f64 {
        MAX_KEY
    } else {
        k as i32
    }
}

/// Representative value of bucket `key`: the point minimizing worst-case
/// relative error over `(γ^(key−1), γ^key]`, namely `2·γ^key / (1 + γ)`.
#[inline]
fn representative(key: i32) -> f64 {
    2.0 * (key as f64 * LN_GAMMA).exp() / (1.0 + GAMMA)
}

/// Add one sorted `(key, count)` store into another, allocation-free
/// once `scratch` is warm (two-pointer merge staged through `scratch`,
/// then swapped back into `dst`).
fn merge_sorted_into(dst: &mut Vec<(i32, u32)>, src: &[(i32, u32)], scratch: &mut Vec<(i32, u32)>) {
    if src.is_empty() {
        return;
    }
    if dst.is_empty() {
        dst.extend_from_slice(src);
        return;
    }
    scratch.clear();
    scratch.reserve(dst.len() + src.len());
    let (mut i, mut j) = (0, 0);
    while i < dst.len() && j < src.len() {
        let (dk, dc) = dst[i];
        let (sk, sc) = src[j];
        match dk.cmp(&sk) {
            std::cmp::Ordering::Less => {
                scratch.push((dk, dc));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                scratch.push((sk, sc));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                scratch.push((dk, dc.saturating_add(sc)));
                i += 1;
                j += 1;
            }
        }
    }
    scratch.extend_from_slice(&dst[i..]);
    scratch.extend_from_slice(&src[j..]);
    std::mem::swap(dst, scratch);
}

/// One sparse sketch entry in the columnar wire shape: which signed
/// store it belongs to, its log-bucket key, and its exact count.
///
/// This is the unit the export pipeline ships (see
/// [`crate::export`]): because all sketches share one global bucket
/// layout, a downstream Knowledge store can rebuild fleet-wide
/// percentiles by **adding counts per `(sign, key)`** — no raw samples
/// needed, and entry order never matters. The round trip
/// [`QuantileSketch::wire_entries`] →
/// [`QuantileSketch::absorb_entry`] reconstructs a sketch exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchEntry {
    /// `-1` for the negative store, `0` for the zero bucket, `+1` for
    /// the positive store.
    pub sign: i8,
    /// Log-bucket key (bucket covers `(γ^(key−1), γ^key]` of `|v|`);
    /// `0` and meaningless for the zero bucket.
    pub key: i32,
    /// Exact number of values in the bucket.
    pub count: u64,
}

/// A mergeable DDSketch-style quantile sketch with fixed relative error
/// [`SKETCH_RELATIVE_ERROR`] (see module docs for the exact bound).
///
/// All sketches share one global bucket layout, so any two sketches can
/// [`merge`](QuantileSketch::merge) — the property the rollup tier's
/// 1m→1h cascade and the wide-window query planner are built on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantileSketch {
    /// Buckets of positive values, sorted by key ascending.
    pos: Vec<(i32, u32)>,
    /// Buckets of negative values, keyed by `|v|`, sorted ascending
    /// (so *descending* key order is ascending value order).
    neg: Vec<(i32, u32)>,
    /// Values with `|v| ≤ ZERO_EPS`, plus NaN.
    zero: u64,
    /// Total folded values.
    count: u64,
}

impl QuantileSketch {
    /// Empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes held by this sketch's bucket stores (memory-budget
    /// accounting; excludes the struct itself).
    pub fn mem_bytes(&self) -> usize {
        (self.pos.capacity() + self.neg.capacity()) * std::mem::size_of::<(i32, u32)>()
    }

    /// Values folded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was folded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of non-empty buckets (the sketch's memory footprint is
    /// ~8 bytes per entry plus two `Vec` headers).
    pub fn entries(&self) -> usize {
        self.pos.len() + self.neg.len() + usize::from(self.zero > 0)
    }

    /// Clear for reuse, keeping bucket allocations.
    pub fn reset(&mut self) {
        self.pos.clear();
        self.neg.clear();
        self.zero = 0;
        self.count = 0;
    }

    /// Fold one value (binary search + insert into the sorted store;
    /// NaN counts into the zero bucket so `count` stays consistent with
    /// the rollup bucket's sample count).
    pub fn fold(&mut self, v: f64) {
        self.count += 1;
        if v.is_nan() || v.abs() <= ZERO_EPS {
            self.zero += 1;
            return;
        }
        let key = key_of(v.abs());
        let store = if v > 0.0 {
            &mut self.pos
        } else {
            &mut self.neg
        };
        match store.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => store[i].1 = store[i].1.saturating_add(1),
            Err(i) => store.insert(i, (key, 1)),
        }
    }

    /// Merge another sketch into this one (exact: bucket counts add).
    pub fn merge(&mut self, other: &QuantileSketch) {
        let mut scratch = Vec::new();
        self.merge_with_scratch(other, &mut scratch);
    }

    /// [`QuantileSketch::merge`] staging through a caller-owned scratch
    /// buffer — the allocation-free shape the query planner uses when
    /// merging one sketch per sealed rollup bucket.
    pub fn merge_with_scratch(&mut self, other: &QuantileSketch, scratch: &mut Vec<(i32, u32)>) {
        merge_sorted_into(&mut self.pos, &other.pos, scratch);
        merge_sorted_into(&mut self.neg, &other.neg, scratch);
        self.zero += other.zero;
        self.count += other.count;
    }

    /// Iterate the sketch's sparse buckets as wire [`SketchEntry`]s:
    /// negative store (ascending key), then the zero bucket (only when
    /// non-empty), then the positive store (ascending key). Feeding
    /// every entry to [`QuantileSketch::absorb_entry`] on an empty
    /// sketch reconstructs this one exactly (`==`), in any order.
    pub fn wire_entries(&self) -> impl Iterator<Item = SketchEntry> + '_ {
        let neg = self.neg.iter().map(|&(k, c)| SketchEntry {
            sign: -1,
            key: k,
            count: c as u64,
        });
        let zero = (self.zero > 0).then_some(SketchEntry {
            sign: 0,
            key: 0,
            count: self.zero,
        });
        let pos = self.pos.iter().map(|&(k, c)| SketchEntry {
            sign: 1,
            key: k,
            count: c as u64,
        });
        neg.chain(zero).chain(pos)
    }

    /// Add one wire entry's count into the matching bucket — the
    /// receiving half of the sketch-merge contract: a downstream store
    /// replays exported entries through this to rebuild (or fleet-merge)
    /// sketches without raw samples. Keys are clamped into the sketch's
    /// key range and per-bucket counts saturate at `u32::MAX` (the same
    /// documented saturation as [`QuantileSketch::fold`]); entries with
    /// `count == 0` are ignored.
    pub fn absorb_entry(&mut self, e: SketchEntry) {
        if e.count == 0 {
            return;
        }
        // Saturating: the counts are a peer's word, and two of them
        // may not add up inside a `u64`.
        self.count = self.count.saturating_add(e.count);
        if e.sign == 0 {
            self.zero = self.zero.saturating_add(e.count);
            return;
        }
        let key = e.key.clamp(MIN_KEY, MAX_KEY);
        let add = u32::try_from(e.count).unwrap_or(u32::MAX);
        let store = if e.sign > 0 {
            &mut self.pos
        } else {
            &mut self.neg
        };
        match store.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => store[i].1 = store[i].1.saturating_add(add),
            Err(i) => store.insert(i, (key, add)),
        }
    }

    /// Absorb a whole column — [`QuantileSketch::absorb_entry`] per
    /// entry, in effect. A column in [`QuantileSketch::wire_entries`]
    /// order (how a snapshot stores one) landing in an empty sketch is
    /// the sketch's own layout, so it is appended in one pass with no
    /// search per entry; anything else — out of order, a repeated
    /// bucket, a zero count, keys that collide once clamped — takes the
    /// per-entry route from the start.
    pub fn absorb_column(&mut self, entries: &[SketchEntry]) {
        if self.count == 0 && self.append_sorted(entries) {
            return;
        }
        for &e in entries {
            self.absorb_entry(e);
        }
    }

    /// Fill this (empty) sketch from `entries` if they are strictly in
    /// wire order; otherwise leave it empty and report `false`.
    fn append_sorted(&mut self, entries: &[SketchEntry]) -> bool {
        // Wire order is (store, clamped key) strictly ascending: the
        // negative store, the one zero bucket, the positive store, and
        // no bucket twice.
        let rank = |e: &SketchEntry| match e.sign {
            ..0 => (0u8, e.key.clamp(MIN_KEY, MAX_KEY)),
            0 => (1, 0),
            1.. => (2, e.key.clamp(MIN_KEY, MAX_KEY)),
        };
        let in_order = entries.iter().all(|e| e.count != 0)
            && entries.windows(2).all(|w| rank(&w[0]) < rank(&w[1]));
        if !in_order {
            return false;
        }
        let negatives = entries.iter().take_while(|e| e.sign < 0).count();
        self.neg.reserve(negatives);
        self.pos.reserve(entries.len() - negatives);
        for e in entries {
            let (store, key) = rank(e);
            let bucket = (key, u32::try_from(e.count).unwrap_or(u32::MAX));
            match store {
                0 => self.neg.push(bucket),
                1 => self.zero = e.count,
                _ => self.pos.push(bucket),
            }
            self.count = self.count.saturating_add(e.count);
        }
        true
    }

    /// Estimate the `q`-quantile (`q` clamped to `[0, 1]`) of the folded
    /// values: the representative of the bucket holding the order
    /// statistic of rank `round(q·(n−1))`. Returns NaN when empty —
    /// the same empty-window shape as the raw percentile path.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        // Ascending value order: negatives (largest |v| first), zero,
        // positives.
        let mut seen = 0u64;
        for &(k, c) in self.neg.iter().rev() {
            seen += c as u64;
            if seen > rank {
                return -representative(k);
            }
        }
        seen += self.zero;
        if seen > rank {
            return 0.0;
        }
        for &(k, c) in self.pos.iter() {
            seen += c as u64;
            if seen > rank {
                return representative(k);
            }
        }
        // Unreachable when bucket counts are exact; safety net for the
        // (documented) u32 per-bucket saturation limit.
        self.pos
            .last()
            .map(|&(k, _)| representative(k))
            .unwrap_or(0.0)
    }
}

/// Dense per-key counters over a lazily-grown contiguous key range —
/// the query-time accumulation shape. Adding a sketch is one counter
/// add per entry (no sorted rewrite), which is what makes merging one
/// sketch per sealed bucket across a day-wide span cheap.
#[derive(Debug, Clone, Default)]
struct DenseCounts {
    /// Key of `counts[0]`.
    base: i32,
    counts: Vec<u64>,
}

impl DenseCounts {
    fn clear(&mut self) {
        self.counts.clear();
    }

    /// Grow (never shrink) to cover `[lo, hi]`.
    fn ensure(&mut self, lo: i32, hi: i32) {
        debug_assert!(lo <= hi);
        if self.counts.is_empty() {
            self.base = lo;
            self.counts.resize((hi - lo) as usize + 1, 0);
            return;
        }
        if lo < self.base {
            let grow = (self.base - lo) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = lo;
        }
        let top = self.base + self.counts.len() as i32 - 1;
        if hi > top {
            let grow = (hi - top) as usize;
            self.counts.resize(self.counts.len() + grow, 0);
        }
    }

    #[inline]
    fn add(&mut self, key: i32, c: u64) {
        self.ensure(key, key);
        self.counts[(key - self.base) as usize] += c;
    }

    /// Add a sketch's sorted entry list in one pass.
    fn add_all(&mut self, entries: &[(i32, u32)]) {
        let (Some(&(lo, _)), Some(&(hi, _))) = (entries.first(), entries.last()) else {
            return;
        };
        self.ensure(lo, hi);
        for &(k, c) in entries {
            self.counts[(k - self.base) as usize] += c as u64;
        }
    }
}

/// Streaming accumulator for one quantile query across many sketches
/// and raw splices — the planner-side counterpart of
/// [`QuantileSketch`]. Same bucket layout and error bound; the
/// difference is purely representational: dense per-key counters make
/// [`QuantileAcc::merge_sketch`] O(entries) counter adds instead of a
/// sorted merge-rewrite per sealed bucket. Reusable across spans via
/// [`QuantileAcc::reset`] (allocations stay warm).
#[derive(Debug, Clone, Default)]
pub struct QuantileAcc {
    pos: DenseCounts,
    neg: DenseCounts,
    zero: u64,
    count: u64,
}

impl QuantileAcc {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear for the next query, keeping the counter allocations.
    pub fn reset(&mut self) {
        self.pos.clear();
        self.neg.clear();
        self.zero = 0;
        self.count = 0;
    }

    /// Values folded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was folded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold one raw value (the spliced window edges).
    pub fn fold(&mut self, v: f64) {
        self.count += 1;
        if v.is_nan() || v.abs() <= ZERO_EPS {
            self.zero += 1;
            return;
        }
        let key = key_of(v.abs());
        if v > 0.0 {
            self.pos.add(key, 1);
        } else {
            self.neg.add(key, 1);
        }
    }

    /// Merge one sealed bucket's sketch: one counter add per entry.
    pub fn merge_sketch(&mut self, sk: &QuantileSketch) {
        self.pos.add_all(&sk.pos);
        self.neg.add_all(&sk.neg);
        self.zero += sk.zero;
        self.count += sk.count;
    }

    /// Estimate the `q`-quantile of everything folded so far — same
    /// rank convention and error bound as [`QuantileSketch::quantile`].
    /// NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        // Ascending value order: negatives (largest |v| = highest key
        // first), zero, positives.
        let mut seen = 0u64;
        for (i, &c) in self.neg.counts.iter().enumerate().rev() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen > rank {
                return -representative(self.neg.base + i as i32);
            }
        }
        seen += self.zero;
        if seen > rank {
            return 0.0;
        }
        for (i, &c) in self.pos.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen > rank {
                return representative(self.pos.base + i as i32);
            }
        }
        // Unreachable with exact counts; safety net mirrors the sketch.
        self.pos
            .counts
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &c)| c > 0)
            .map(|(i, _)| representative(self.pos.base + i as i32))
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `LN_GAMMA` is `GAMMA.ln()` (pinned because `ln` is not const).
    #[test]
    fn ln_gamma_constant_is_exact() {
        assert!((LN_GAMMA - GAMMA.ln()).abs() < 1e-17);
    }

    /// Every value's bucket representative is within α relative error.
    #[test]
    fn representative_within_alpha_of_any_value() {
        let mut v = 1.3e-7f64;
        while v < 1e12 {
            for s in [v, -v] {
                let key = key_of(s.abs());
                let rep = if s > 0.0 {
                    representative(key)
                } else {
                    -representative(key)
                };
                let rel = (rep - s).abs() / s.abs();
                assert!(
                    rel <= SKETCH_RELATIVE_ERROR + 1e-12,
                    "v={s}: rep {rep} rel err {rel}"
                );
            }
            v *= 1.37;
        }
    }

    fn exact_bounds(sorted: &[f64], q: f64) -> (f64, f64) {
        let pos = q * (sorted.len() - 1) as f64;
        (sorted[pos.floor() as usize], sorted[pos.ceil() as usize])
    }

    /// The quantile estimate lands within α of the exact order-statistic
    /// interval around `q·(n−1)`.
    fn assert_quantile_bound(values: &[f64], sk: &QuantileSketch, q: f64) {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = exact_bounds(&sorted, q);
        let got = sk.quantile(q);
        let a = SKETCH_RELATIVE_ERROR + 1e-9;
        let lo_b = lo - a * lo.abs() - ZERO_EPS;
        let hi_b = hi + a * hi.abs() + ZERO_EPS;
        assert!(
            got >= lo_b && got <= hi_b,
            "q={q}: {got} outside [{lo_b}, {hi_b}] (exact [{lo}, {hi}])"
        );
    }

    #[test]
    fn quantiles_within_bound_mixed_signs() {
        let mut vals = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..2000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = (state % 2_000_001) as f64 / 1000.0 - 1000.0; // [-1000, 1000]
            vals.push(v);
        }
        let mut sk = QuantileSketch::new();
        for &v in &vals {
            sk.fold(v);
        }
        assert_eq!(sk.count(), 2000);
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_quantile_bound(&vals, &sk, q);
        }
    }

    #[test]
    fn merge_equals_folding_everything() {
        let (mut a, mut b, mut all) = (
            QuantileSketch::new(),
            QuantileSketch::new(),
            QuantileSketch::new(),
        );
        for i in 0..500 {
            let v = ((i * 7919) % 1000) as f64 - 200.0;
            if i % 2 == 0 { &mut a } else { &mut b }.fold(v);
            all.fold(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        for q in [0.0, 0.1, 0.5, 0.95, 1.0] {
            assert_eq!(merged.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn empty_sketch_returns_nan() {
        let sk = QuantileSketch::new();
        assert!(sk.is_empty());
        assert!(sk.quantile(0.5).is_nan());
        assert_eq!(sk.entries(), 0);
    }

    #[test]
    fn zero_and_tiny_values_estimate_zero() {
        let mut sk = QuantileSketch::new();
        for v in [0.0, 1e-12, -1e-10, f64::NAN] {
            sk.fold(v);
        }
        assert_eq!(sk.quantile(0.5), 0.0);
        assert_eq!(sk.count(), 4);
        assert_eq!(sk.entries(), 1);
    }

    #[test]
    fn extreme_magnitudes_clamp_instead_of_overflowing() {
        let mut sk = QuantileSketch::new();
        sk.fold(f64::INFINITY);
        sk.fold(f64::MAX);
        sk.fold(f64::NEG_INFINITY);
        let hi = sk.quantile(1.0);
        assert!(hi.is_finite() && hi > 1e300);
        let lo = sk.quantile(0.0);
        assert!(lo.is_finite() && lo < -1e300);
    }

    #[test]
    fn reset_clears_but_keeps_capacity() {
        let mut sk = QuantileSketch::new();
        for i in 0..100 {
            sk.fold(i as f64 + 1.0);
        }
        assert!(!sk.is_empty());
        sk.reset();
        assert!(sk.is_empty());
        assert!(sk.quantile(0.9).is_nan());
        sk.fold(5.0);
        assert!((sk.quantile(0.5) - 5.0).abs() <= 5.0 * 0.011);
    }

    #[test]
    fn acc_agrees_exactly_with_one_big_sketch() {
        // Folding values through sketches merged into a QuantileAcc (plus
        // some raw splices) must return bit-identical quantiles to one
        // sketch folding everything: same bucket layout, same rank walk.
        let mut all = QuantileSketch::new();
        let mut acc = QuantileAcc::new();
        let mut parts: Vec<QuantileSketch> = (0..7).map(|_| QuantileSketch::new()).collect();
        let mut state = 0xDEADBEEFu64;
        for i in 0..4000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = (state % 300_000) as f64 / 100.0 - 1200.0; // mixed signs
            let v = if i % 97 == 0 { 0.0 } else { v }; // some zeros
            all.fold(v);
            if i % 11 == 0 {
                acc.fold(v); // raw splice path
            } else {
                parts[i % 7].fold(v);
            }
        }
        for p in &parts {
            acc.merge_sketch(p);
        }
        assert_eq!(acc.count(), all.count());
        for q in [0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(acc.quantile(q), all.quantile(q), "q={q}");
        }
        // Reset keeps it reusable.
        acc.reset();
        assert!(acc.is_empty());
        assert!(acc.quantile(0.5).is_nan());
        acc.fold(2.0);
        assert_eq!(acc.count(), 1);
    }

    #[test]
    fn wire_entries_round_trip_exactly() {
        let mut sk = QuantileSketch::new();
        let mut state = 0xC0FFEEu64;
        for i in 0..2000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = (state % 600_001) as f64 / 100.0 - 3000.0;
            sk.fold(if i % 53 == 0 { 0.0 } else { v });
        }
        // Forward order.
        let mut back = QuantileSketch::new();
        for e in sk.wire_entries() {
            back.absorb_entry(e);
        }
        assert_eq!(back, sk);
        // Entry order must not matter (counts are additive).
        let mut entries: Vec<SketchEntry> = sk.wire_entries().collect();
        entries.reverse();
        let mut shuffled = QuantileSketch::new();
        for e in entries {
            shuffled.absorb_entry(e);
        }
        assert_eq!(shuffled, sk);
        // Entry count matches the advertised footprint.
        assert_eq!(sk.wire_entries().count(), sk.entries());
    }

    #[test]
    fn absorb_entry_is_additive_and_defensive() {
        let mut sk = QuantileSketch::new();
        sk.absorb_entry(SketchEntry {
            sign: 1,
            key: 10,
            count: 3,
        });
        sk.absorb_entry(SketchEntry {
            sign: 1,
            key: 10,
            count: 2,
        });
        sk.absorb_entry(SketchEntry {
            sign: -1,
            key: 4,
            count: 1,
        });
        sk.absorb_entry(SketchEntry {
            sign: 0,
            key: 0,
            count: 2,
        });
        // Zero-count entries are no-ops; out-of-range keys clamp.
        sk.absorb_entry(SketchEntry {
            sign: 1,
            key: 99,
            count: 0,
        });
        sk.absorb_entry(SketchEntry {
            sign: 1,
            key: i32::MAX,
            count: 1,
        });
        assert_eq!(sk.count(), 9);
        assert_eq!(sk.entries(), 4);
        assert!(sk.quantile(1.0) > 1e300, "clamped to the top bucket");
    }

    #[test]
    fn duplicate_heavy_input_stays_compact_and_bounded() {
        let vals: Vec<f64> = (0..3000).map(|i| [3.0, 3.0, 7.0, 42.0][i % 4]).collect();
        let mut sk = QuantileSketch::new();
        for &v in &vals {
            sk.fold(v);
        }
        assert!(sk.entries() <= 3, "entries {}", sk.entries());
        for q in [0.0, 0.3, 0.5, 0.8, 1.0] {
            assert_quantile_bound(&vals, &sk, q);
        }
    }
}
