//! Windowed aggregation.
//!
//! The Analyze phase of every loop starts by collapsing a recent window
//! of samples into a scalar; this module is that vocabulary, shared by
//! the TSDB's `resample`, the zero-allocation
//! [`SampleView`](crate::series::SampleView) aggregation path, and the
//! analytics crate.

use crate::series::Sample;
use serde::{Deserialize, Serialize};

/// Aggregation applied to the values inside one window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WindowAgg {
    /// Arithmetic mean.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sum.
    Sum,
    /// Last value in the window.
    Last,
    /// Count of samples (cardinality of the window).
    Count,
    /// Percentile `q` in `[0, 1]`. On raw samples: exact, via O(n)
    /// selection (`select_nth_unstable_by`) with linear interpolation
    /// between the two bracketing order statistics. Wide windows over a
    /// metric with a sketched rollup pyramid
    /// ([`RollupConfig::with_sketches`](crate::rollup::RollupConfig::with_sketches))
    /// are instead served by merging per-bucket quantile sketches —
    /// O(window/res), within a 1 % relative-error bound
    /// ([`SKETCH_RELATIVE_ERROR`](crate::sketch::SKETCH_RELATIVE_ERROR)).
    Percentile(f64),
}

fn cmp_f64(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
}

impl WindowAgg {
    /// Apply to a non-empty slice of values. Empty input yields 0 for
    /// `Sum`/`Count` and NaN otherwise; callers that care use
    /// `Option`-returning paths upstream.
    pub fn apply(&self, values: &[f64]) -> f64 {
        match *self {
            WindowAgg::Count => values.len() as f64,
            WindowAgg::Sum => values.iter().sum(),
            _ if values.is_empty() => f64::NAN,
            WindowAgg::Mean => values.iter().sum::<f64>() / values.len() as f64,
            WindowAgg::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            WindowAgg::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            WindowAgg::Last => *values.last().expect("non-empty"),
            WindowAgg::Percentile(_) => {
                let mut v = values.to_vec();
                self.apply_mut(&mut v)
            }
        }
    }

    /// Like [`WindowAgg::apply`], but allowed to reorder `values` —
    /// which lets `Percentile` run as O(n) selection instead of an
    /// O(n log n) sort, with no allocation.
    pub fn apply_mut(&self, values: &mut [f64]) -> f64 {
        match *self {
            WindowAgg::Percentile(q) => {
                if values.is_empty() {
                    return f64::NAN;
                }
                let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
                let lo = pos.floor() as usize;
                let frac = pos - lo as f64;
                let (_, &mut lo_v, rest) = values.select_nth_unstable_by(lo, cmp_f64);
                if frac == 0.0 {
                    lo_v
                } else {
                    // The (lo+1)-th order statistic is the minimum of the
                    // partition above the pivot; `frac > 0` implies
                    // `lo < len - 1`, so `rest` is non-empty.
                    let hi_v = rest.iter().copied().fold(f64::INFINITY, f64::min);
                    lo_v * (1.0 - frac) + hi_v * frac
                }
            }
            _ => self.apply(values),
        }
    }
}

/// Streaming accumulator for one aggregation, reusable across buckets.
///
/// This is the allocation-free engine behind the TSDB's streaming
/// `resample`: scalar aggregations fold in O(1) state; `Percentile`
/// collects into one internal scratch buffer that is **reused** across
/// [`AggAccum::reset`] calls, so a whole resample pass performs at most
/// one allocation (and none once the buffer is warm).
#[derive(Debug, Clone)]
pub struct AggAccum {
    agg: WindowAgg,
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
    scratch: Vec<f64>,
}

impl AggAccum {
    /// Fresh accumulator for `agg`.
    pub fn new(agg: WindowAgg) -> Self {
        AggAccum {
            agg,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: f64::NAN,
            scratch: Vec::new(),
        }
    }

    /// The aggregation this accumulator folds.
    pub fn agg(&self) -> WindowAgg {
        self.agg
    }

    /// Clear state for the next bucket (keeps the scratch allocation).
    pub fn reset(&mut self) {
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
        self.last = f64::NAN;
        self.scratch.clear();
    }

    /// Fold one value.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        match self.agg {
            WindowAgg::Sum | WindowAgg::Mean => self.sum += v,
            WindowAgg::Min => self.min = self.min.min(v),
            WindowAgg::Max => self.max = self.max.max(v),
            WindowAgg::Last => self.last = v,
            WindowAgg::Count => {}
            WindowAgg::Percentile(_) => self.scratch.push(v),
        }
    }

    /// Number of values folded since the last reset.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The aggregate of the bucket, or `None` when no values were folded
    /// (the empty-bucket shape `resample` reports as a gap).
    pub fn finish(&mut self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(match self.agg {
            WindowAgg::Count => self.count as f64,
            WindowAgg::Sum => self.sum,
            WindowAgg::Mean => self.sum / self.count as f64,
            WindowAgg::Min => self.min,
            WindowAgg::Max => self.max,
            WindowAgg::Last => self.last,
            p @ WindowAgg::Percentile(_) => p.apply_mut(&mut self.scratch),
        })
    }
}

/// Difference a counter window into a rate (units/second).
///
/// Returns `None` for fewer than two samples or a zero-length span.
/// Counter resets (value decreasing) clamp the delta to zero rather than
/// producing a negative rate — matching how production collectors treat
/// counter wraps.
pub fn counter_rate(samples: &[Sample]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let first = samples.first().expect("len >= 2");
    let last = samples.last().expect("len >= 2");
    rate_between(*first, *last)
}

/// [`counter_rate`] over a borrowed view — the zero-allocation path.
pub fn counter_rate_view(view: &crate::series::SampleView<'_>) -> Option<f64> {
    if view.len() < 2 {
        return None;
    }
    rate_between(
        view.first().expect("len >= 2"),
        view.last().expect("len >= 2"),
    )
}

fn rate_between(first: Sample, last: Sample) -> Option<f64> {
    let dt = last.t.saturating_since(first.t).as_secs_f64();
    if dt <= 0.0 {
        return None;
    }
    let dv = (last.value - first.value).max(0.0);
    Some(dv / dt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moda_sim::SimTime;

    fn samples(pairs: &[(u64, f64)]) -> Vec<Sample> {
        pairs
            .iter()
            .map(|&(t, v)| Sample {
                t: SimTime::from_secs(t),
                value: v,
            })
            .collect()
    }

    #[test]
    fn scalar_aggregations() {
        let v = [1.0, 3.0, 2.0, 4.0];
        assert_eq!(WindowAgg::Mean.apply(&v), 2.5);
        assert_eq!(WindowAgg::Min.apply(&v), 1.0);
        assert_eq!(WindowAgg::Max.apply(&v), 4.0);
        assert_eq!(WindowAgg::Sum.apply(&v), 10.0);
        assert_eq!(WindowAgg::Last.apply(&v), 4.0);
        assert_eq!(WindowAgg::Count.apply(&v), 4.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(WindowAgg::Percentile(0.0).apply(&v), 10.0);
        assert_eq!(WindowAgg::Percentile(1.0).apply(&v), 40.0);
        assert_eq!(WindowAgg::Percentile(0.5).apply(&v), 25.0);
    }

    #[test]
    fn percentile_selection_matches_sorting_reference() {
        // Pseudo-random values; compare O(n) selection with a full sort.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut vals = Vec::new();
        for _ in 0..257 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            vals.push((state % 10_000) as f64 / 10.0);
        }
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.01, 0.25, 0.5, 0.732, 0.99, 1.0] {
            let got = WindowAgg::Percentile(q).apply(&vals);
            let pos = q * (sorted.len() - 1) as f64;
            let (lo, frac) = (pos.floor() as usize, pos.fract());
            let want = if frac == 0.0 {
                sorted[lo]
            } else {
                sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac
            };
            assert!((got - want).abs() < 1e-9, "q={q}: {got} vs {want}");
        }
    }

    #[test]
    fn empty_behaviour() {
        assert_eq!(WindowAgg::Sum.apply(&[]), 0.0);
        assert_eq!(WindowAgg::Count.apply(&[]), 0.0);
        assert!(WindowAgg::Mean.apply(&[]).is_nan());
        assert!(WindowAgg::Percentile(0.5).apply(&[]).is_nan());
        assert!(WindowAgg::Percentile(0.5).apply_mut(&mut []).is_nan());
    }

    #[test]
    fn accumulator_matches_apply() {
        let vals = [4.0, -1.0, 7.5, 2.0, 2.0];
        for agg in [
            WindowAgg::Mean,
            WindowAgg::Min,
            WindowAgg::Max,
            WindowAgg::Sum,
            WindowAgg::Last,
            WindowAgg::Count,
            WindowAgg::Percentile(0.25),
        ] {
            let mut acc = AggAccum::new(agg);
            // Two rounds through the same accumulator: reset must be clean.
            for _ in 0..2 {
                acc.reset();
                for v in vals {
                    acc.push(v);
                }
                let got = acc.finish().unwrap();
                let want = agg.apply(&vals);
                assert!((got - want).abs() < 1e-12, "{agg:?}: {got} vs {want}");
            }
            acc.reset();
            assert_eq!(acc.finish(), None);
        }
    }

    #[test]
    fn counter_rate_basic() {
        let s = samples(&[(0, 0.0), (10, 50.0)]);
        assert_eq!(counter_rate(&s), Some(5.0));
    }

    #[test]
    fn counter_rate_reset_clamps() {
        let s = samples(&[(0, 100.0), (10, 20.0)]);
        assert_eq!(counter_rate(&s), Some(0.0));
    }

    #[test]
    fn counter_rate_degenerate() {
        assert_eq!(counter_rate(&samples(&[(0, 1.0)])), None);
        assert_eq!(counter_rate(&samples(&[(5, 1.0), (5, 2.0)])), None);
        assert_eq!(counter_rate(&[]), None);
    }
}
