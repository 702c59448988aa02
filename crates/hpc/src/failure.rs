//! Fail-stop node-failure injection.
//!
//! §IV: *"Resilience is essential in HPC systems where operations must
//! persist through component and subsystem failures."* The experiments
//! need a managed system that actually fails, so the world can inject
//! fail-stop node faults: at stochastic intervals a node crashes and
//! takes the job running on it with it. The job's resubmission then
//! restarts from its last checkpoint (if any loop arranged one) — which
//! is exactly the trade the resilience loop tunes.
//!
//! The process model is the standard one for HPC reliability studies:
//! cluster-wide failures form a Poisson process whose rate scales with
//! node count (per-node exponential lifetimes, memorylessness ⇒ the
//! aggregate is exponential with mean `mtbf_node / nodes`).

use moda_sim::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Failure-injection parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureConfig {
    /// Per-node mean time between failures, seconds. Production-grade
    /// hardware sits around 10⁵–10⁷ s/node; stress experiments go lower.
    pub node_mtbf_s: f64,
}

impl FailureConfig {
    /// Cluster-wide mean time between failures for `nodes` nodes.
    pub fn system_mtbf_s(&self, nodes: u32) -> f64 {
        assert!(nodes > 0, "cluster must have nodes");
        self.node_mtbf_s / nodes as f64
    }

    /// Sample the next inter-failure gap for a cluster of `nodes`.
    /// An infinite MTBF yields a beyond-any-horizon gap (failures
    /// configured but effectively disabled — the healthy-cluster
    /// baseline of resilience experiments).
    pub fn next_gap<R: Rng + ?Sized>(&self, nodes: u32, rng: &mut R) -> SimDuration {
        let mean = self.system_mtbf_s(nodes);
        if !mean.is_finite() {
            return SimDuration(u64::MAX / 4);
        }
        // Inverse-CDF exponential; clamp the uniform away from 0 so the
        // gap is finite.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        SimDuration::from_secs_f64(-mean * u.ln())
    }
}

/// The optimal periodic checkpoint interval for a given MTBF and
/// checkpoint cost — Young's first-order formula `√(2 · C · MTBF)`.
///
/// The resilience loop uses it as the Plan-phase policy; experiment E13
/// (`moda_bench::experiments::e13`, claim checked in
/// `tests/paper_claims.rs`) sweeps cadence around it to show the optimum
/// is where Young says it is.
pub fn young_interval_s(checkpoint_cost_s: f64, system_mtbf_s: f64) -> f64 {
    assert!(checkpoint_cost_s >= 0.0 && system_mtbf_s > 0.0);
    (2.0 * checkpoint_cost_s * system_mtbf_s).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng as _;

    #[test]
    fn system_mtbf_scales_inversely_with_nodes() {
        let f = FailureConfig { node_mtbf_s: 1e6 };
        assert_eq!(f.system_mtbf_s(1), 1e6);
        assert_eq!(f.system_mtbf_s(100), 1e4);
    }

    #[test]
    fn gaps_are_positive_and_mean_matches() {
        let f = FailureConfig {
            node_mtbf_s: 64_000.0,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 4000;
        let mut sum = 0.0;
        for _ in 0..n {
            let g = f.next_gap(64, &mut rng).as_secs_f64();
            assert!(g > 0.0);
            sum += g;
        }
        let mean = sum / n as f64;
        // System MTBF = 1000 s; LLN with 4000 samples → within ~10%.
        assert!(
            (mean - 1000.0).abs() < 100.0,
            "sample mean {mean} far from 1000"
        );
    }

    #[test]
    fn young_interval_known_values() {
        // C = 50 s, MTBF = 10000 s → √(2·50·10000) = 1000 s.
        assert!((young_interval_s(50.0, 10_000.0) - 1000.0).abs() < 1e-9);
        // Zero-cost checkpoints → checkpoint continuously.
        assert_eq!(young_interval_s(0.0, 10_000.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "nodes")]
    fn zero_nodes_rejected() {
        FailureConfig { node_mtbf_s: 1.0 }.system_mtbf_s(0);
    }
}
