//! # moda-core
//!
//! The paper's primary contribution, as a library: **MAPE-K autonomy
//! loops for MODA** — Monitor, Analyze, Plan, Execute over Knowledge —
//! with the four decentralized design patterns of Fig. 2, the trust
//! machinery of §III.iv (guardrails, validation accounting), and the §IV
//! design changes (confidence-gated actuation, human-on-the-loop
//! notifications, audit/explanation trails).
//!
//! ## Architecture
//!
//! * [`domain`] — the [`domain::Domain`] trait bundles the typed
//!   vocabulary of one loop (observation, assessment, action, outcome), so
//!   components are interchangeable yet fully type-checked — the paper's
//!   interoperability question §II.ii.
//! * [`component`] — the four phase traits. `Monitor` and `Executor` own
//!   their sensor/actuator hooks into the managed system; `Analyzer` and
//!   `Planner` see only observations and Knowledge, enforcing the MAPE
//!   separation of concerns.
//! * [`knowledge`] — the K: historical run records, plan-outcome
//!   assessments, and named model parameters, shared across loop
//!   iterations and across loops.
//! * [`loop_engine`] — [`loop_engine::MapeLoop`]: one loop
//!   instance combining components, Knowledge, guardrails, a confidence
//!   gate, an autonomy mode, and an audit trail.
//! * [`patterns`] — Fig. 2(b)–(d): master–worker, fully decentralized
//!   coordinated, and hierarchical control, as deterministic stepped
//!   orchestrators that compose with discrete-event simulation. Fig. 2(a),
//!   the classical loop, is a `MapeLoop`; the coordinated peers and the
//!   hierarchy's children are `MapeLoop`s, and the master admits through
//!   the loop's own gate → guard step.
//! * [`runtime`] — threaded drivers (`std::sync::mpsc` channels) measuring the
//!   *real* concurrency behaviour of the same patterns for experiment E1.
//! * [`guard`] — action budgets, cooldowns, rate limits and suspension
//!   (§III.iv "additional controls, such as limits on the number and
//!   overall time of extensions"); node loops and the fleet responder
//!   admit through the same [`Guard`].
//! * [`confidence`] — confidence values, gating, and calibration
//!   tracking (§IV "confidence measures are required").
//! * [`audit`] — the one bounded, typed decision ring both scales write
//!   (node loops record [`AuditKind`]s, the fleet responder its control
//!   events), its rendering, and the human-on-the-loop notifications it
//!   announces (§IV, ref. \[31\]).

pub mod audit;
pub mod component;
pub mod confidence;
pub mod domain;
pub mod guard;
pub mod knowledge;
pub mod loop_engine;
pub mod patterns;
pub mod runtime;

pub use audit::{AuditEvent, AuditKind, AuditLog, Decision, Notification};
pub use component::{
    Analyzer, Assessor, Executor, Monitor, NoopAssessor, Plan, PlannedAction, Planner,
};
pub use confidence::{CalibrationTracker, Confidence, ConfidenceGate};
pub use domain::Domain;
pub use guard::{BlockReason, Guard, GuardConfig};
pub use knowledge::{Knowledge, OutcomeRecord, RunRecord};
pub use loop_engine::{AutonomyMode, LoopReport, MapeLoop};
