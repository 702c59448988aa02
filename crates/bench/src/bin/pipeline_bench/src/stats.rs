//! Order statistics the benchmark reports with.

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// `(max - min) / median` of the per-round values: how far apart the
/// rounds of one run read. 0 for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    let (Some(m), true) = (median(values), values.len() > 1) else {
        return 0.0;
    };
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == 0.0 {
        0.0
    } else {
        (hi - lo) / m.abs()
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles the benchmark will name, lowest first.
const TAIL_LADDER: [(f64, &str); 5] = [
    (0.90, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
    (0.9999, "p99.99"),
    (0.99999, "p99.999"),
];

/// A timing summarised the way the metrics guide asks: the median, the
/// highest percentile that still has at least ten samples beyond it, and
/// the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingSummary {
    pub count: usize,
    pub median: u64,
    /// `(label, value)` of the highest supported percentile; `None` when
    /// even p90 has fewer than ten samples beyond it.
    pub tail: Option<(&'static str, u64)>,
}

/// Summarise raw nanosecond samples (any order).
pub fn summarize(samples: &[u64]) -> Option<TimingSummary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let tail = TAIL_LADDER
        .iter()
        .rev()
        .find(|(q, _)| {
            let rank = (q * n as f64).ceil() as usize;
            n - rank.min(n) >= 10
        })
        .map(|&(q, label)| (label, percentile_sorted(&sorted, q)));
    Some(TimingSummary {
        count: n,
        median: percentile_sorted(&sorted, 0.5),
        tail,
    })
}

/// `p50` and `p99` of raw nanosecond samples, in milliseconds.
pub fn p50_p99_ms(samples: &[u64]) -> Option<(f64, f64)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some((
        percentile_sorted(&sorted, 0.5) as f64 / 1e6,
        percentile_sorted(&sorted, 0.99) as f64 / 1e6,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[10.0]), 0.0);
        assert!((spread(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn picker_names_the_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 leaves 1.
        let s: Vec<u64> = (1..=100).collect();
        let t = summarize(&s).unwrap();
        assert_eq!((t.count, t.median), (100, 50));
        assert_eq!(t.tail, Some(("p90", 90)));
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(summarize(&s).unwrap().tail, Some(("p99", 990)));
        // 999 samples: ceil(0.99 * 999) = 990, only 9 beyond -> p90.
        let s: Vec<u64> = (1..=999).collect();
        assert_eq!(summarize(&s).unwrap().tail.unwrap().0, "p90");
        // 50 samples: not even p90 (5 beyond) is supported.
        let s: Vec<u64> = (1..=50).collect();
        assert_eq!(summarize(&s).unwrap().tail, None);
        // 20_000 samples reach p99.9 (20 beyond) but not p99.99 (2).
        let s: Vec<u64> = (1..=20_000).collect();
        assert_eq!(summarize(&s).unwrap().tail, Some(("p99.9", 19_980)));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 5);
        assert_eq!(percentile_sorted(&s, 0.99), 10);
        assert_eq!(percentile_sorted(&s, 0.0), 1);
        let (p50, p99) = p50_p99_ms(&[3_000_000, 1_000_000, 2_000_000]).unwrap();
        assert_eq!((p50, p99), (2.0, 3.0));
    }
}
