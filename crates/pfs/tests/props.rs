//! Property tests for the parallel-filesystem substrate.
//!
//! The substrate promises token-bucket conservation and stripe
//! allocation balance. Both managed-system behaviours feed the OST and
//! I/O-QoS loops, so their invariants bound what those loops can
//! legitimately observe.

use moda_pfs::{Ost, OstId, Pfs, PfsConfig, QosManager, TokenBucket};
use moda_sim::SimTime;
use proptest::prelude::*;

fn pfs(n: usize) -> Pfs {
    Pfs::new(PfsConfig {
        num_osts: n,
        ost_bandwidth: 500.0,
        default_stripe: 1,
        base_latency_ms: 1,
    })
}

// ------------------------------------------------------------- stripes

proptest! {
    /// Stripes are duplicate-free, sized exactly, and honor avoid lists
    /// whenever enough targets remain.
    #[test]
    fn stripe_allocation_is_sound(
        n_osts in 1usize..12,
        stripe in 1usize..16,
        avoid_bits in 0u16..1 << 12,
    ) {
        let mut p = pfs(n_osts);
        let avoid: Vec<OstId> = (0..n_osts as u32)
            .filter(|i| avoid_bits & (1 << i) != 0)
            .map(OstId)
            .collect();
        let fid = p.open(stripe, &avoid);
        let s = p.stripe_of(fid).unwrap().to_vec();
        // Exact size (clamped to the OST count).
        prop_assert_eq!(s.len(), stripe.clamp(1, n_osts));
        // No duplicates.
        let mut dedup = s.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), s.len());
        // Avoid list honored when possible; only the shortfall spills.
        let allowed = n_osts - avoid.len();
        let spilled = s.iter().filter(|id| avoid.contains(id)).count();
        prop_assert_eq!(spilled, s.len().saturating_sub(allowed));
    }

    /// Least-loaded placement balances streams: after opening many
    /// single-stripe files with no avoid list, per-OST open-stream counts
    /// differ by at most one.
    #[test]
    fn stripe_placement_balances_load(n_osts in 1usize..12, files in 1usize..100) {
        let mut p = pfs(n_osts);
        for _ in 0..files {
            p.open(1, &[]);
        }
        let counts: Vec<u32> = (0..n_osts as u32)
            .map(|i| p.ost(OstId(i)).open_streams)
            .collect();
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        prop_assert!(hi - lo <= 1, "unbalanced: {counts:?}");
        prop_assert_eq!(counts.iter().sum::<u32>() as usize, files);
    }

    /// Open/close round-trips release every stream.
    #[test]
    fn close_releases_streams(n_osts in 1usize..8, opens in prop::collection::vec(1usize..8, 1..50)) {
        let mut p = pfs(n_osts);
        let fids: Vec<_> = opens.iter().map(|&s| p.open(s, &[])).collect();
        for fid in fids {
            p.close(fid);
        }
        for i in 0..n_osts as u32 {
            prop_assert_eq!(p.ost(OstId(i)).open_streams, 0);
        }
        prop_assert_eq!(p.open_files(), 0);
    }
}

// ------------------------------------------------------------- writes

proptest! {
    /// Collective-write time is the slowest stripe share; effective
    /// bandwidth never exceeds stripe_count × per-stream bandwidth and
    /// degradation slows writes proportionally.
    #[test]
    fn write_duration_bounds(stripe in 1usize..8, mb in 1.0f64..2000.0, health in 0.01f64..1.0) {
        let mut p = pfs(8);
        let fid = p.open(stripe, &[]);
        let healthy = p.write(SimTime::ZERO, fid, mb);
        // Degrade every OST in the stripe.
        let ids: Vec<OstId> = p.stripe_of(fid).unwrap().to_vec();
        for id in ids {
            p.set_ost_health(id, health);
        }
        let degraded = p.write(SimTime::ZERO, fid, mb);
        prop_assert!(degraded.duration >= healthy.duration);
        // Share served at health-scaled bandwidth: duration scales ~1/health
        // (up to the fixed base latency).
        let expected_s = (mb / stripe as f64) / (500.0 * health);
        let got_s = degraded.duration.as_secs_f64();
        prop_assert!(
            (got_s - expected_s - 0.001).abs() < expected_s * 0.01 + 0.002,
            "expected ~{expected_s}s got {got_s}s"
        );
    }

    /// The observed-bandwidth sensor converges to the true per-stream
    /// bandwidth the loop needs to detect degradation.
    #[test]
    fn observed_bw_tracks_health(health in 0.01f64..1.0) {
        let mut p = pfs(4);
        let fid = p.open(1, &[]);
        p.set_ost_health(OstId(p.stripe_of(fid).unwrap()[0].0), health);
        let target = p.stripe_of(fid).unwrap()[0];
        for _ in 0..32 {
            p.write(SimTime::ZERO, fid, 10.0);
        }
        let observed = p.observed_bw(target).unwrap();
        let truth = p.ost(target).per_stream_bw();
        prop_assert!((observed - truth).abs() < truth * 0.05 + 1e-9);
    }
}

// ------------------------------------------------------------- ost

proptest! {
    /// Fair-share: per-stream bandwidth is effective bandwidth divided
    /// over open streams, and never negative.
    #[test]
    fn fair_share_divides_bandwidth(streams in 1u32..64, health in 0.0f64..1.0) {
        let mut o = Ost::new(1000.0);
        o.set_health(health);
        o.open_streams = streams;
        let per = o.per_stream_bw();
        prop_assert!(per > 0.0, "per-stream bandwidth must stay positive");
        // per × streams ≤ effective (equality unless clamped by a floor).
        prop_assert!(per * streams as f64 <= o.effective_bw().max(per) + 1e-9);
    }
}

// ------------------------------------------------------------- qos

/// Reference reimplementation of the debt-carrying token bucket, kept
/// deliberately naive (float tokens, no capping subtleties) to
/// differential-test the production one.
struct RefBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: u64,
}

impl RefBucket {
    fn admit(&mut self, now_ms: u64, mb: f64) -> f64 {
        let dt = (now_ms.saturating_sub(self.last)) as f64 / 1000.0;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        self.last = now_ms;
        let delay = if self.tokens >= mb {
            0.0
        } else {
            (mb - self.tokens) / self.rate
        };
        self.tokens -= mb;
        delay
    }
}

proptest! {
    /// The production bucket matches the reference on arbitrary
    /// monotone admit sequences (differential test).
    #[test]
    fn token_bucket_matches_reference(
        rate in 1.0f64..500.0,
        burst in 1.0f64..1000.0,
        steps in prop::collection::vec((0u64..10_000, 0.1f64..500.0), 1..100),
    ) {
        let mut q = QosManager::new();
        q.register("t", rate, burst);
        let mut r = RefBucket { rate, burst, tokens: burst, last: 0 };
        let mut now = 0u64;
        for &(dt, mb) in &steps {
            now += dt;
            let got = q.admit(SimTime(now), "t", mb).as_secs_f64();
            let want = r.admit(now, mb);
            // The production bucket returns SimDuration, quantized to ms.
            prop_assert!((got - want).abs() < 1.5e-3 + want * 1e-9,
                "admit at {now}ms of {mb}MB: got {got}s want {want}s");
        }
    }

    /// Conservation: over any admit sequence, the work the bucket lets
    /// through without delay can never exceed burst + rate × elapsed.
    #[test]
    fn token_bucket_conserves_tokens(
        rate in 1.0f64..500.0,
        burst in 1.0f64..1000.0,
        steps in prop::collection::vec((0u64..5_000, 0.1f64..200.0), 1..100),
    ) {
        let mut b = TokenBucket::new(rate, burst);
        let mut now = 0u64;
        let mut undelayed_mb = 0.0;
        for &(dt, mb) in &steps {
            now += dt;
            if b.try_consume(SimTime(now), mb) {
                undelayed_mb += mb;
            }
        }
        let elapsed_s = now as f64 / 1000.0;
        prop_assert!(
            undelayed_mb <= burst + rate * elapsed_s + 1e-6,
            "served {undelayed_mb}MB > {burst} + {rate}·{elapsed_s}"
        );
        // And the bucket never holds more than its burst.
        prop_assert!(b.available(SimTime(now)) <= burst + 1e-9);
    }
}
