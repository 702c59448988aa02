//! Guardrails on autonomous actions.
//!
//! §III.iv: trust "could be done by additional controls, such as limits
//! on the number and overall time of extensions for a single application".
//! A [`Guard`] enforces exactly such budgets *between* Plan and Execute:
//! per-kind action counts, per-kind cumulative magnitude (e.g. total
//! extension seconds), a per-kind minimum gap (a cooldown), per-kind and
//! global sliding-window rate limits, and per-kind suspension. Blocked
//! actions are reported with a machine-readable [`BlockReason`] so
//! experiments can account for them; the same type names every other
//! reason an action did not run, so both scales' trails share one
//! refusal vocabulary.
//!
//! One guard serves both scales of the loop: a node-local
//! [`MapeLoop`](crate::MapeLoop) admits each planned action through it,
//! and the fleet responder admits each actuation through it with the
//! subsystem as the kind. [`Guard::judge`] is the one verdict both
//! scales reach — the confidence gate, then the bounds — and the fleet's
//! audit certifies its trail by replaying every decision through it.

use crate::confidence::{Confidence, ConfidenceGate};
use moda_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Why an action did not run. The guard's own refusals come first; the
/// rest are reported by the admission steps around it, so every refusal
/// at both scales shares one type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BlockReason {
    /// The kind is suspended (e.g. after a failed validation).
    Suspended {
        /// Budget kind.
        kind: String,
        /// When the suspension lifts.
        until: SimTime,
    },
    /// Per-kind count budget exhausted.
    CountBudget {
        /// Budget kind.
        kind: String,
        /// Configured limit.
        limit: u32,
    },
    /// Per-kind cumulative-magnitude budget exhausted.
    MagnitudeBudget {
        /// Budget kind.
        kind: String,
        /// Configured limit.
        limit: f64,
        /// Magnitude already spent.
        spent: f64,
    },
    /// Too soon after the previous action of this kind.
    MinGap {
        /// Budget kind.
        kind: String,
        /// Required gap.
        gap: SimDuration,
    },
    /// Sliding-window rate limit hit: the kind's own (`Some(kind)`) or
    /// the global one across all kinds (`None`).
    RateLimit {
        /// The kind whose budget ran out; `None` for the global budget.
        kind: Option<String>,
        /// Window length.
        window: SimDuration,
        /// Max actions per window.
        limit: u32,
    },
    /// Confidence below the actuation gate (the loop engine's gate and
    /// the fleet responder's confidence floor).
    LowConfidence {
        /// The action's confidence.
        confidence: f64,
        /// The gate threshold.
        threshold: f64,
    },
    /// A coordinator vetoed the proposing loop's plan (Fig. 2(c)).
    Vetoed,
    /// The master's target worker is down (Fig. 2(b)).
    WorkerDown {
        /// The worker's index.
        worker: usize,
    },
    /// The fleet view's coverage is below the floor: the responder holds
    /// until it recovers.
    Coverage {
        /// Observed contributing fraction.
        fraction: f64,
        /// Configured floor.
        min: f64,
    },
    /// The alert implicated no nodes (nothing to canary).
    NoTarget,
}

impl std::fmt::Display for BlockReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockReason::Suspended { kind, until } => {
                write!(f, "'{kind}' suspended until {until}")
            }
            BlockReason::CountBudget { kind, limit } => {
                write!(f, "count budget for '{kind}' exhausted (limit {limit})")
            }
            BlockReason::MagnitudeBudget { kind, limit, spent } => write!(
                f,
                "magnitude budget for '{kind}' exhausted ({spent:.1}/{limit:.1})"
            ),
            BlockReason::MinGap { kind, gap } => {
                write!(f, "min gap {gap} for '{kind}' not elapsed")
            }
            BlockReason::RateLimit {
                kind: Some(kind),
                window,
                limit,
            } => write!(f, "rate budget {limit} per {window} for '{kind}' spent"),
            BlockReason::RateLimit {
                kind: None,
                window,
                limit,
            } => write!(f, "global rate budget {limit} per {window} spent"),
            BlockReason::LowConfidence {
                confidence,
                threshold,
            } => write!(
                f,
                "confidence {confidence:.2} below threshold {threshold:.2}"
            ),
            BlockReason::Vetoed => write!(f, "vetoed by coordination"),
            BlockReason::WorkerDown { worker } => write!(f, "worker {worker} unavailable"),
            BlockReason::Coverage { fraction, min } => {
                write!(f, "coverage {fraction:.2} below floor {min:.2}")
            }
            BlockReason::NoTarget => write!(f, "the alert implicated no nodes"),
        }
    }
}

/// Static guard configuration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Per-kind maximum number of actions (e.g. `extension → 3`).
    pub max_count: HashMap<String, u32>,
    /// Per-kind maximum cumulative magnitude (e.g. `extension → 3600 s`).
    pub max_magnitude: HashMap<String, f64>,
    /// Per-kind minimum time between actions (a cooldown).
    pub min_gap: HashMap<String, SimDuration>,
    /// Per-kind sliding-window rate limit: at most `n` actions of the
    /// kind inside any window.
    pub kind_rate_limit: HashMap<String, (SimDuration, u32)>,
    /// Global sliding-window rate limit across all kinds.
    pub rate_limit: Option<(SimDuration, u32)>,
}

impl GuardConfig {
    /// No limits at all (every action passes).
    pub fn unlimited() -> Self {
        GuardConfig::default()
    }

    /// Builder: cap the number of actions of `kind`.
    pub fn with_max_count(mut self, kind: impl Into<String>, n: u32) -> Self {
        self.max_count.insert(kind.into(), n);
        self
    }

    /// Builder: cap cumulative magnitude of `kind`.
    pub fn with_max_magnitude(mut self, kind: impl Into<String>, m: f64) -> Self {
        self.max_magnitude.insert(kind.into(), m);
        self
    }

    /// Builder: require a minimum gap between actions of `kind`.
    pub fn with_min_gap(mut self, kind: impl Into<String>, gap: SimDuration) -> Self {
        self.min_gap.insert(kind.into(), gap);
        self
    }

    /// Builder: global sliding-window rate limit.
    pub fn with_rate_limit(mut self, window: SimDuration, n: u32) -> Self {
        self.rate_limit = Some((window, n));
        self
    }
}

/// Runtime guard state.
#[derive(Debug, Clone, Default)]
pub struct Guard {
    config: GuardConfig,
    counts: HashMap<String, u32>,
    magnitudes: HashMap<String, f64>,
    last_action: HashMap<String, SimTime>,
    recent_of: HashMap<String, VecDeque<SimTime>>,
    recent: VecDeque<SimTime>,
    suspended: HashMap<String, SimTime>,
    blocked: u64,
    allowed: u64,
}

/// Actions in `recent` younger than `window` at `now`. Membership by
/// age, not by absolute cutoff: a saturating `now - window` near t=0
/// must not exclude young actions.
fn in_window(recent: &VecDeque<SimTime>, now: SimTime, window: SimDuration) -> usize {
    recent
        .iter()
        .filter(|&&t| now.saturating_since(t) < window)
        .count()
}

/// Drop actions that have aged out of `window`, then record `now`.
fn slide(recent: &mut VecDeque<SimTime>, now: SimTime, window: SimDuration) {
    while recent
        .front()
        .is_some_and(|&t| now.saturating_since(t) >= window)
    {
        recent.pop_front();
    }
    recent.push_back(now);
}

/// `map[kind]`, inserted as the default on first use. The key is only
/// allocated then, so committing a known kind allocates nothing.
fn slot<'a, V: Default>(map: &'a mut HashMap<String, V>, kind: &str) -> &'a mut V {
    if !map.contains_key(kind) {
        map.insert(kind.to_string(), V::default());
    }
    map.get_mut(kind).expect("inserted above")
}

impl Guard {
    /// Guard with the given configuration.
    pub fn new(config: GuardConfig) -> Self {
        Guard {
            config,
            ..Guard::default()
        }
    }

    /// Would an action of `kind`/`magnitude` at `now` be allowed?
    /// Does not mutate state. Checks, in order: suspension, count,
    /// magnitude, minimum gap, the kind's rate limit, the global one.
    pub fn check(&self, now: SimTime, kind: &str, magnitude: f64) -> Result<(), BlockReason> {
        if let Some(&until) = self.suspended.get(kind) {
            if now < until {
                return Err(BlockReason::Suspended {
                    kind: kind.to_string(),
                    until,
                });
            }
        }
        if let Some(&limit) = self.config.max_count.get(kind) {
            if self.counts.get(kind).copied().unwrap_or(0) >= limit {
                return Err(BlockReason::CountBudget {
                    kind: kind.to_string(),
                    limit,
                });
            }
        }
        if let Some(&limit) = self.config.max_magnitude.get(kind) {
            let spent = self.magnitudes.get(kind).copied().unwrap_or(0.0);
            // Asked this way round so that a NaN is refused: committed,
            // it would poison `spent` and open the budget to everything.
            let fits = spent + magnitude <= limit;
            if !fits {
                return Err(BlockReason::MagnitudeBudget {
                    kind: kind.to_string(),
                    limit,
                    spent,
                });
            }
        }
        if let Some(&gap) = self.config.min_gap.get(kind) {
            if let Some(&last) = self.last_action.get(kind) {
                if now.saturating_since(last) < gap {
                    return Err(BlockReason::MinGap {
                        kind: kind.to_string(),
                        gap,
                    });
                }
            }
        }
        if let Some(&(window, limit)) = self.config.kind_rate_limit.get(kind) {
            let recent = self.recent_of.get(kind);
            if recent.map_or(0, |r| in_window(r, now, window)) as u32 >= limit {
                return Err(BlockReason::RateLimit {
                    kind: Some(kind.to_string()),
                    window,
                    limit,
                });
            }
        }
        if let Some((window, limit)) = self.config.rate_limit {
            if in_window(&self.recent, now, window) as u32 >= limit {
                return Err(BlockReason::RateLimit {
                    kind: None,
                    window,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Gate, then bounds: the one verdict on an action at both scales.
    /// A `confidence` that does not clear `gate` is refused as
    /// [`BlockReason::LowConfidence`] (a NaN one was judged as none when
    /// it became a [`Confidence`]); otherwise [`Guard::check`] decides.
    /// Does not mutate state.
    pub fn judge(
        &self,
        gate: ConfidenceGate,
        confidence: Confidence,
        now: SimTime,
        kind: &str,
        magnitude: f64,
    ) -> Result<(), BlockReason> {
        if !gate.passes(confidence) {
            return Err(BlockReason::LowConfidence {
                confidence: confidence.value(),
                threshold: gate.threshold,
            });
        }
        self.check(now, kind, magnitude)
    }

    /// Record an allowed action (call after a successful `check`).
    pub fn commit(&mut self, now: SimTime, kind: &str, magnitude: f64) {
        *slot(&mut self.counts, kind) += 1;
        *slot(&mut self.magnitudes, kind) += magnitude;
        *slot(&mut self.last_action, kind) = now;
        if let Some(&(window, _)) = self.config.kind_rate_limit.get(kind) {
            slide(slot(&mut self.recent_of, kind), now, window);
        }
        if let Some((window, _)) = self.config.rate_limit {
            slide(&mut self.recent, now, window);
        }
        self.allowed += 1;
    }

    /// Check and commit in one call.
    pub fn admit(&mut self, now: SimTime, kind: &str, magnitude: f64) -> Result<(), BlockReason> {
        let ungated = ConfidenceGate::new(0.0);
        self.admit_judged(ungated, Confidence::CERTAIN, now, kind, magnitude)
    }

    /// [`Guard::judge`] and commit in one call: what it admits is
    /// committed, what it refuses is counted.
    pub fn admit_judged(
        &mut self,
        gate: ConfidenceGate,
        confidence: Confidence,
        now: SimTime,
        kind: &str,
        magnitude: f64,
    ) -> Result<(), BlockReason> {
        let verdict = self.judge(gate, confidence, now, kind, magnitude);
        match verdict {
            Ok(()) => self.commit(now, kind, magnitude),
            Err(_) => self.blocked += 1,
        }
        verdict
    }

    /// Refuse every action of `kind` before `until`.
    pub fn suspend(&mut self, kind: &str, until: SimTime) {
        self.suspended.insert(kind.to_string(), until);
    }

    /// Actions admitted so far.
    pub fn allowed_count(&self) -> u64 {
        self.allowed
    }

    /// Actions refused so far by [`Guard::admit`] or
    /// [`Guard::admit_judged`].
    pub fn blocked_count(&self) -> u64 {
        self.blocked
    }

    /// Actions of `kind` admitted so far.
    pub fn count_of(&self, kind: &str) -> u32 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// Cumulative magnitude of `kind` admitted so far.
    pub fn magnitude_of(&self, kind: &str) -> f64 {
        self.magnitudes.get(kind).copied().unwrap_or(0.0)
    }

    /// Immutable view of the configuration.
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// Give `kind` a minimum gap and a sliding-window rate limit (at most
    /// `n` actions per `window`) after construction: the fleet responder
    /// declares a subsystem's budget with its rule. The rate limit counts
    /// the kind's actions committed from this call on.
    pub fn set_kind_budget(&mut self, kind: &str, gap: SimDuration, window: SimDuration, n: u32) {
        self.config.min_gap.insert(kind.to_string(), gap);
        self.config
            .kind_rate_limit
            .insert(kind.to_string(), (window, n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn unlimited_admits_everything() {
        let mut g = Guard::new(GuardConfig::unlimited());
        for i in 0..100 {
            assert!(g.admit(t(i), "x", 1e9).is_ok());
        }
        assert_eq!(g.allowed_count(), 100);
        assert_eq!(g.blocked_count(), 0);
    }

    #[test]
    fn count_budget_blocks_after_limit() {
        let mut g = Guard::new(GuardConfig::unlimited().with_max_count("ext", 2));
        assert!(g.admit(t(1), "ext", 0.0).is_ok());
        assert!(g.admit(t(2), "ext", 0.0).is_ok());
        let err = g.admit(t(3), "ext", 0.0).unwrap_err();
        assert!(matches!(err, BlockReason::CountBudget { limit: 2, .. }));
        // Other kinds unaffected.
        assert!(g.admit(t(3), "ckpt", 0.0).is_ok());
        assert_eq!(g.count_of("ext"), 2);
        assert_eq!(g.blocked_count(), 1);
    }

    #[test]
    fn magnitude_budget_accumulates() {
        let mut g = Guard::new(GuardConfig::unlimited().with_max_magnitude("ext", 100.0));
        assert!(g.admit(t(1), "ext", 60.0).is_ok());
        // 60 + 50 > 100 → blocked.
        let err = g.admit(t(2), "ext", 50.0).unwrap_err();
        assert!(matches!(err, BlockReason::MagnitudeBudget { .. }));
        // But a smaller action still fits.
        assert!(g.admit(t(3), "ext", 40.0).is_ok());
        assert_eq!(g.magnitude_of("ext"), 100.0);
    }

    #[test]
    fn min_gap_enforced_per_kind() {
        let mut g =
            Guard::new(GuardConfig::unlimited().with_min_gap("ext", SimDuration::from_secs(10)));
        assert!(g.admit(t(0), "ext", 0.0).is_ok());
        assert!(matches!(
            g.admit(t(5), "ext", 0.0).unwrap_err(),
            BlockReason::MinGap { .. }
        ));
        assert!(g.admit(t(10), "ext", 0.0).is_ok());
        // Different kind has no gap configured.
        assert!(g.admit(t(10), "other", 0.0).is_ok());
    }

    #[test]
    fn rate_limit_sliding_window() {
        let mut g =
            Guard::new(GuardConfig::unlimited().with_rate_limit(SimDuration::from_secs(60), 2));
        assert!(g.admit(t(0), "a", 0.0).is_ok());
        assert!(g.admit(t(10), "b", 0.0).is_ok());
        assert!(matches!(
            g.admit(t(20), "c", 0.0).unwrap_err(),
            BlockReason::RateLimit { .. }
        ));
        // Window slides by age: at t=61 the t=0 action is 61s old and has
        // left the 60s window, so one slot frees.
        assert!(g.admit(t(61), "d", 0.0).is_ok());
        // Both t=10 (51s old) and t=61 are still in window → blocked.
        assert!(matches!(
            g.admit(t(62), "e", 0.0).unwrap_err(),
            BlockReason::RateLimit { .. }
        ));
    }

    #[test]
    fn kind_rate_limit_is_per_kind_and_global_limit_spans_kinds() {
        let mut g =
            Guard::new(GuardConfig::unlimited().with_rate_limit(SimDuration::from_secs(60), 2));
        g.set_kind_budget("power", SimDuration::ZERO, SimDuration::from_secs(60), 1);
        assert!(g.admit(t(0), "power", 0.0).is_ok());
        assert_eq!(
            g.admit(t(10), "power", 0.0).unwrap_err(),
            BlockReason::RateLimit {
                kind: Some("power".into()),
                window: SimDuration::from_secs(60),
                limit: 1,
            }
        );
        // Another kind has no budget of its own, only the global one.
        assert!(g.admit(t(20), "io", 0.0).is_ok());
        assert_eq!(
            g.admit(t(30), "io", 0.0).unwrap_err(),
            BlockReason::RateLimit {
                kind: None,
                window: SimDuration::from_secs(60),
                limit: 2,
            }
        );
        // The t=0 action ages out of both windows at t=60.
        assert!(g.admit(t(60), "power", 0.0).is_ok());
    }

    #[test]
    fn suspension_blocks_the_kind_until_it_lifts_and_comes_first() {
        let mut g =
            Guard::new(GuardConfig::unlimited().with_min_gap("power", SimDuration::from_secs(10)));
        assert!(g.admit(t(0), "power", 0.0).is_ok());
        g.suspend("power", t(100));
        // Suspension is reported ahead of the running cooldown.
        assert_eq!(
            g.check(t(5), "power", 0.0).unwrap_err(),
            BlockReason::Suspended {
                kind: "power".into(),
                until: t(100),
            }
        );
        assert!(g.check(t(50), "io", 0.0).is_ok());
        assert!(g.admit(t(99), "power", 0.0).is_err());
        assert!(g.admit(t(100), "power", 0.0).is_ok());
        assert_eq!(g.blocked_count(), 1);
    }

    #[test]
    fn a_nan_magnitude_is_refused_and_spends_nothing() {
        let mut g = Guard::new(GuardConfig::unlimited().with_max_magnitude("ext", 100.0));
        assert!(matches!(
            g.admit(t(1), "ext", f64::NAN).unwrap_err(),
            BlockReason::MagnitudeBudget { .. }
        ));
        // The budget is intact: a breach is still refused, a fit admitted.
        assert!(g.admit(t(2), "ext", 1e9).is_err());
        assert!(g.admit(t(3), "ext", 60.0).is_ok());
        assert_eq!(g.magnitude_of("ext"), 60.0);
    }

    #[test]
    fn judge_gates_before_the_bounds_and_mutates_nothing() {
        let mut g = Guard::new(GuardConfig::unlimited().with_max_count("x", 1));
        let gate = ConfidenceGate::new(0.5);
        assert!(g.admit(t(0), "x", 0.0).is_ok());
        // A low confidence is refused at the gate, ahead of the spent
        // count; a NaN one is judged as none.
        for c in [0.3, f64::NAN] {
            assert_eq!(
                g.judge(gate, Confidence::new(c), t(1), "x", 0.0),
                Err(BlockReason::LowConfidence {
                    confidence: Confidence::new(c).value(),
                    threshold: 0.5,
                })
            );
        }
        assert!(matches!(
            g.judge(gate, Confidence::CERTAIN, t(1), "x", 0.0),
            Err(BlockReason::CountBudget { .. })
        ));
        assert!(g.judge(gate, Confidence::new(0.9), t(1), "y", 0.0).is_ok());
        assert_eq!((g.allowed_count(), g.blocked_count()), (1, 0));
        // Admitting through the gate counts what it refuses.
        assert!(g
            .admit_judged(gate, Confidence::new(0.3), t(1), "y", 0.0)
            .is_err());
        assert!(g
            .admit_judged(gate, Confidence::new(0.9), t(1), "y", 0.0)
            .is_ok());
        assert_eq!((g.allowed_count(), g.blocked_count()), (2, 1));
    }

    #[test]
    fn check_does_not_mutate() {
        let g = Guard::new(GuardConfig::unlimited().with_max_count("x", 1));
        assert!(g.check(t(0), "x", 0.0).is_ok());
        assert!(g.check(t(0), "x", 0.0).is_ok());
        assert_eq!(g.allowed_count(), 0);
    }

    #[test]
    fn block_reason_display() {
        let r = BlockReason::CountBudget {
            kind: "ext".into(),
            limit: 3,
        };
        assert!(r.to_string().contains("ext"));
        let r2 = BlockReason::LowConfidence {
            confidence: 0.2,
            threshold: 0.5,
        };
        assert!(r2.to_string().contains("0.20"));
        let r3 = BlockReason::RateLimit {
            kind: Some("power".into()),
            window: SimDuration::from_secs(60),
            limit: 3,
        };
        assert!(r3.to_string().contains("'power'"));
    }

    #[test]
    fn combined_limits_all_apply() {
        let mut g = Guard::new(
            GuardConfig::unlimited()
                .with_max_count("ext", 10)
                .with_max_magnitude("ext", 100.0)
                .with_min_gap("ext", SimDuration::from_secs(1)),
        );
        assert!(g.admit(t(0), "ext", 99.0).is_ok());
        // Magnitude budget trips before count budget.
        assert!(matches!(
            g.admit(t(5), "ext", 50.0).unwrap_err(),
            BlockReason::MagnitudeBudget { .. }
        ));
    }
}
