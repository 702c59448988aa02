//! Property tests for the analytics toolbox.
//!
//! The toolbox promises forecast monotonicity under clean progress and
//! CUSUM detection bounds. Added here: estimator exactness on noiseless
//! inputs, robustness guarantees that justify the Theil–Sen default, RLS
//! convergence, and k-NN ordering invariants.

use moda_analytics::forecast::{theil_sen, Estimator, LinearFit, ProgressForecaster};
use moda_analytics::{
    knn, Cusum, CusumVerdict, MadDetector, RlsModel, RunSignature, ZScoreDetector,
};
use moda_core::knowledge::RunRecord;
use proptest::prelude::*;
use std::collections::BTreeMap;

// ------------------------------------------------------------- fitting

proptest! {
    /// Both estimators recover a noiseless line exactly — any slope, any
    /// intercept, any (distinct) sample positions.
    #[test]
    fn estimators_recover_noiseless_lines(
        slope in -100.0f64..100.0,
        intercept in -1e4f64..1e4,
        xs in prop::collection::btree_set(0u32..10_000, 2..60),
    ) {
        let pts: Vec<(f64, f64)> = xs
            .iter()
            .map(|&x| (x as f64, slope * x as f64 + intercept))
            .collect();
        let ols = LinearFit::fit(&pts).unwrap();
        let ts = theil_sen(&pts).unwrap();
        let scale = slope.abs().max(1.0);
        prop_assert!((ols.slope - slope).abs() < 1e-6 * scale);
        prop_assert!((ts.slope - slope).abs() < 1e-6 * scale);
        prop_assert!((ols.intercept - intercept).abs() < 1e-5 * intercept.abs().max(1.0));
    }

    /// Theil–Sen shrugs off a minority of arbitrarily-wild outliers —
    /// the property that makes it the default for progress markers
    /// (stragglers and I/O stalls corrupt individual markers).
    #[test]
    fn theil_sen_resists_outliers(
        slope in 0.1f64..50.0,
        outlier in -1e6f64..1e6,
        n_outliers in 1usize..5,
    ) {
        let n = 31;
        let mut pts: Vec<(f64, f64)> = (0..n)
            .map(|i| (i as f64, slope * i as f64))
            .collect();
        for k in 0..n_outliers {
            pts[5 + 2 * k].1 = outlier;
        }
        let ts = theil_sen(&pts).unwrap();
        prop_assert!(
            (ts.slope - slope).abs() < slope * 0.15 + 1e-9,
            "Theil–Sen slope {} vs true {} with {} outliers",
            ts.slope, slope, n_outliers
        );
    }

    /// Forecast sanity on clean linear progress: ETA equals
    /// remaining-steps ÷ rate, and more completed work ⇒ shorter ETA
    /// (monotonicity).
    #[test]
    fn forecast_monotone_in_progress(rate in 0.1f64..10.0, total in 100.0f64..10_000.0) {
        let f = ProgressForecaster::new(Estimator::TheilSen);
        let mk = |k: usize| -> Vec<(f64, f64)> {
            (0..k).map(|i| (i as f64 * 10.0, rate * i as f64 * 10.0)).collect()
        };
        let early = f.forecast(&mk(10), total, 90.0).unwrap();
        let late = f.forecast(&mk(30), total, 290.0).unwrap();
        let expect_early = (total - rate * 90.0).max(0.0) / rate;
        prop_assert!((early.eta_s - expect_early).abs() < 1e-6 * expect_early.max(1.0));
        prop_assert!(late.eta_s <= early.eta_s + 1e-9);
        // Rates recovered exactly on clean input.
        prop_assert!((early.rate - rate).abs() < 1e-9 * rate.max(1.0));
    }

    /// A stalled job (zero or negative rate) yields no forecast rather
    /// than a bogus one.
    #[test]
    fn stalled_jobs_produce_no_forecast(level in 0.0f64..100.0) {
        let f = ProgressForecaster::new(Estimator::TheilSen);
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64 * 10.0, level)).collect();
        prop_assert!(f.forecast(&pts, 1000.0, 200.0).is_none());
    }
}

// ------------------------------------------------------------- anomaly

proptest! {
    /// CUSUM never fires during calibration, always fires on a large
    /// sustained shift within a bounded number of samples, and the
    /// detection bound shrinks as the shift grows.
    #[test]
    fn cusum_detects_sustained_shifts(
        baseline in -100.0f64..100.0,
        shift_sigmas in 2.0f64..20.0,
    ) {
        let mut c = Cusum::new(0.5, 4.0, 20);
        // Calibration: gentle deterministic wobble around the baseline
        // (σ estimated from it is small but nonzero).
        for i in 0..20 {
            let wobble = if i % 2 == 0 { 0.5 } else { -0.5 };
            prop_assert_eq!(c.update(baseline + wobble), CusumVerdict::InControl);
        }
        prop_assert!(!c.calibrating());
        // Sustained downward shift of `shift_sigmas` σ must fire within
        // ceil(h / (shift − k)) + 1 samples of drift accumulation.
        let sigma = 0.5; // wobble std ≈ 0.5
        let shifted = baseline - shift_sigmas * sigma;
        let bound = (4.0 / (shift_sigmas - 0.5)).ceil() as usize + 2;
        let mut fired_at = None;
        for i in 0..bound + 4 {
            if c.update(shifted) == CusumVerdict::ShiftDown {
                fired_at = Some(i);
                break;
            }
        }
        let at = fired_at.expect("sustained shift must be detected");
        prop_assert!(at <= bound, "fired at {at} > bound {bound}");
    }

    /// Z-score and MAD agree that in-window values are unremarkable and
    /// that a point far outside the window is anomalous.
    #[test]
    fn detectors_flag_gross_outliers(center in -100.0f64..100.0) {
        let mut z = ZScoreDetector::new(64, 3.0);
        let mut m = MadDetector::new(64, 3.5);
        for i in 0..64 {
            let x = center + if i % 2 == 0 { 1.0 } else { -1.0 };
            z.score_and_push(x);
            m.score_and_push(x);
        }
        prop_assert!(!z.is_anomalous(center));
        prop_assert!(!m.is_anomalous(center));
        let far = center + 1000.0;
        prop_assert!(z.is_anomalous(far));
        prop_assert!(m.is_anomalous(far));
    }
}

// ------------------------------------------------------------- online

proptest! {
    /// RLS with forgetting converges to the generating weights on a
    /// stationary stream (and its prediction error goes to ~zero).
    #[test]
    fn rls_converges_on_stationary_data(
        w0 in -10.0f64..10.0,
        w1 in -10.0f64..10.0,
        lambda in 0.95f64..1.0,
    ) {
        let mut m = RlsModel::new(2, lambda, 100.0);
        // Deterministic persistent excitation: rotate through distinct xs.
        for i in 0..400 {
            let x1 = ((i % 17) as f64) - 8.0;
            let y = w0 + w1 * x1;
            m.update(&[1.0, x1], y);
        }
        let probe = [1.0, 3.5];
        let want = w0 + w1 * 3.5;
        prop_assert!(
            (m.predict(&probe) - want).abs() < 1e-3 * want.abs().max(1.0),
            "prediction {} vs truth {}", m.predict(&probe), want
        );
    }

    /// After a regime change, forgetting RLS re-converges; its post-drift
    /// error drops below the never-forgetting variant's.
    #[test]
    fn forgetting_beats_remembering_under_drift(shift in 1.5f64..5.0) {
        let mut forget = RlsModel::new(2, 0.95, 100.0);
        let mut keep = RlsModel::new(2, 1.0, 100.0);
        let gen = |i: usize, factor: f64| -> ([f64; 2], f64) {
            let x1 = ((i % 13) as f64) + 1.0;
            ([1.0, x1], factor * 2.0 * x1)
        };
        for i in 0..300 {
            let (x, y) = gen(i, 1.0);
            forget.update(&x, y);
            keep.update(&x, y);
        }
        for i in 300..450 {
            let (x, y) = gen(i, shift);
            forget.update(&x, y);
            keep.update(&x, y);
        }
        let (xp, yp) = gen(7, shift);
        let e_forget = (forget.predict(&xp) - yp).abs();
        let e_keep = (keep.predict(&xp) - yp).abs();
        prop_assert!(
            e_forget < e_keep,
            "forgetting error {e_forget} not below remembering {e_keep}"
        );
    }
}

// ------------------------------------------------------------- knn

fn record(sig: RunSignature, runtime: f64) -> RunRecord {
    RunRecord {
        app_class: "p".into(),
        signature: sig.to_vec(),
        runtime_s: runtime,
        total_steps: 1,
        metadata: BTreeMap::new(),
    }
}

proptest! {
    /// knn returns at most k unique indices, sorted by non-decreasing
    /// distance, and an exact-match query always ranks first.
    #[test]
    fn knn_ordering_invariants(
        scales in prop::collection::vec(0.0f64..1e4, 2..50),
        k in 1usize..10,
        pick in 0usize..50,
    ) {
        let records: Vec<RunRecord> = scales
            .iter()
            .map(|&s| record(
                RunSignature { mean_step_s: 0.0, step_cv: 0.0, io_fraction: 0.0, nodes: 0.0, scale: s },
                s * 2.0,
            ))
            .collect();
        let pick = pick % scales.len();
        let query = RunSignature {
            mean_step_s: 0.0, step_cv: 0.0, io_fraction: 0.0, nodes: 0.0, scale: scales[pick],
        };
        let hits = knn(&query, &records, k);
        prop_assert!(hits.len() <= k);
        prop_assert!(!hits.is_empty());
        // Sorted by distance.
        prop_assert!(hits.windows(2).all(|w| w[0].1 <= w[1].1));
        // Unique indices in range.
        let mut idx: Vec<usize> = hits.iter().map(|h| h.0).collect();
        idx.sort_unstable();
        idx.dedup();
        prop_assert_eq!(idx.len(), hits.len());
        // Exact match is nearest (distance 0).
        prop_assert_eq!(hits[0].1, 0.0);
        prop_assert_eq!(scales[hits[0].0], scales[pick]);
    }
}
