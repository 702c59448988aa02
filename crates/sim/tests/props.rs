//! Property tests for the simulation substrate.
//!
//! Everything downstream (scheduler, filesystem, telemetry, experiments)
//! leans on these invariants; a violation here corrupts every table in
//! `tests/golden/paper/`, so they get the heaviest randomized coverage.

use moda_sim::stats::{Ewma, Histogram, OnlineStats, Summary};
use moda_sim::{Dist, EventQueue, RngStreams, SimDuration, SimTime};
use proptest::prelude::*;

// ---------------------------------------------------------------- time

proptest! {
    /// Addition then subtraction round-trips (no silent truncation).
    #[test]
    fn time_add_since_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t0 = SimTime(t);
        let later = t0 + SimDuration(d);
        prop_assert_eq!(later.saturating_since(t0), SimDuration(d));
        prop_assert_eq!(t0.saturating_since(later), SimDuration::ZERO);
    }

    /// `until` is `None` exactly when the target is in the past.
    #[test]
    fn time_until_consistency(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40) {
        let (ta, tb) = (SimTime(a), SimTime(b));
        match ta.until(tb) {
            Some(d) => {
                prop_assert!(b >= a);
                prop_assert_eq!(ta + d, tb);
            }
            None => prop_assert!(b < a),
        }
    }

    /// Seconds↔milliseconds conversions agree.
    #[test]
    fn duration_unit_conversions(s in 0u64..1u64 << 30) {
        prop_assert_eq!(SimDuration::from_secs(s).as_millis(), s * 1000);
        let d = SimDuration::from_secs_f64(s as f64);
        prop_assert_eq!(d, SimDuration::from_secs(s));
    }
}

// ---------------------------------------------------------------- engine

proptest! {
    /// The queue releases events in time order regardless of insertion
    /// order, and FIFO within equal timestamps.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..50, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push((ev.at, ev.event));
        }
        prop_assert_eq!(popped.len(), times.len());
        // Time-ordered…
        prop_assert!(popped.windows(2).all(|w| w[0].0 <= w[1].0));
        // …and stable: equal timestamps keep insertion order.
        for w in popped.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at {:?}", w[0].0);
            }
        }
    }

    /// `cancel_where` removes exactly the matching events and nothing else.
    #[test]
    fn event_queue_cancel_where(times in prop::collection::vec(0u64..50, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let evens = times.len().div_ceil(2);
        let removed = q.cancel_where(|&i| i % 2 == 0);
        prop_assert_eq!(removed, evens);
        while let Some(ev) = q.pop() {
            prop_assert!(ev.event % 2 == 1);
        }
    }

    /// The clock never runs backwards.
    #[test]
    fn engine_clock_is_monotone(times in prop::collection::vec(0u64..1000, 1..100)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime(t), ());
        }
        let mut prev = q.now();
        while let Some(ev) = q.pop() {
            prop_assert!(ev.at >= prev);
            prop_assert_eq!(q.now(), ev.at);
            prev = ev.at;
        }
    }
}

// ---------------------------------------------------------------- rng

proptest! {
    /// Streams are reproducible and label-independent.
    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), n in 0u64..64) {
        use rand::Rng as _;
        let s1 = RngStreams::new(seed);
        let s2 = RngStreams::new(seed);
        let a: f64 = s1.stream_n("jobs", n).gen();
        let b: f64 = s2.stream_n("jobs", n).gen();
        prop_assert_eq!(a, b);
        // A different label gives an independent (different) stream.
        let c: f64 = s1.stream_n("nodes", n).gen();
        prop_assert_ne!(a, c);
    }
}

// ---------------------------------------------------------------- dist

proptest! {
    /// Samples are finite, non-negative, and uniform stays in range.
    #[test]
    fn dist_samples_in_support(seed in any::<u64>(), lo in 0.0f64..100.0, width in 0.1f64..100.0) {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let d = Dist::Uniform { lo, hi: lo + width };
        for _ in 0..64 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= lo && x <= lo + width);
        }
        let e = Dist::Exponential { mean: lo + 1.0 };
        for _ in 0..64 {
            let x = e.sample(&mut rng);
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }

    /// Sample means converge to the declared mean (law of large numbers
    /// with a generous tolerance — this catches parameterization bugs
    /// like rate/mean confusion, not statistical noise).
    #[test]
    fn dist_sample_mean_matches_declared(seed in any::<u64>(), mean in 0.5f64..50.0) {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for d in [
            Dist::Exponential { mean },
            Dist::lognormal_mean_cv(mean, 0.5),
        ] {
            let n = 4000;
            let s: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
            let sample_mean = s / n as f64;
            let declared = d.mean().unwrap();
            prop_assert!(
                (sample_mean - declared).abs() < declared * 0.25,
                "sample mean {sample_mean} vs declared {declared} for {d:?}"
            );
        }
    }
}

// ---------------------------------------------------------------- stats

proptest! {
    /// Welford matches the naive two-pass computation.
    #[test]
    fn online_stats_match_naive(xs in prop::collection::vec(-1e6f64..1e6, 2..300)) {
        let mut st = OnlineStats::new();
        for &x in &xs {
            st.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        prop_assert!((st.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((st.variance() - var).abs() <= 1e-4 * var.abs().max(1.0));
        prop_assert_eq!(st.min().unwrap(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(st.max().unwrap(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Merging partitions equals processing the concatenation — the
    /// distributed-monitoring aggregation property (Fig. 2 master–worker
    /// Monitors merge partial statistics).
    #[test]
    fn online_stats_merge_associative(
        xs in prop::collection::vec(-1e3f64..1e3, 1..100),
        ys in prop::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut whole = OnlineStats::new();
        for &x in &xs { a.push(x); whole.push(x); }
        for &y in &ys { b.push(y); whole.push(y); }
        let merged = a.merge(&b);
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert!((merged.mean() - whole.mean()).abs() < 1e-9 * whole.mean().abs().max(1.0));
        prop_assert!((merged.variance() - whole.variance()).abs() < 1e-6 * whole.variance().max(1.0));
    }

    /// Percentiles are order statistics: within min/max, monotone in q.
    #[test]
    fn summary_percentiles_monotone(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = Summary::new();
        for &x in &xs {
            s.push(x);
        }
        let p50 = s.percentile(0.5).unwrap();
        let p90 = s.percentile(0.9).unwrap();
        let p99 = s.percentile(0.99).unwrap();
        prop_assert!(s.min().unwrap() <= p50);
        prop_assert!(p50 <= p90 && p90 <= p99);
        prop_assert!(p99 <= s.max().unwrap());
    }

    /// EWMA stays within the data envelope and converges to a constant.
    #[test]
    fn ewma_bounded_and_convergent(alpha in 0.01f64..1.0, c in -100.0f64..100.0) {
        let mut e = Ewma::new(alpha);
        for _ in 0..500 {
            e.push(c);
        }
        prop_assert!((e.value().unwrap() - c).abs() < 1e-6 * c.abs().max(1.0));
    }

    /// Histogram never loses a sample and bin counts sum to total.
    #[test]
    fn histogram_conserves_mass(xs in prop::collection::vec(0.0f64..1e4, 1..300)) {
        let mut h = Histogram::logarithmic(0.1, 1e5, 24);
        for &x in &xs {
            h.record(x);
        }
        prop_assert_eq!(h.total(), xs.len() as u64);
        let sum: u64 = (0..h.num_bins()).map(|i| h.count(i)).sum();
        prop_assert_eq!(sum, xs.len() as u64);
    }
}
