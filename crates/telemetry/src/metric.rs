//! Metric identities and metadata.
//!
//! Metrics are interned by the [`crate::tsdb::Tsdb`] registry into dense
//! `u32` ids so the hot insert path never hashes strings. Metadata keeps
//! what the paper's interoperability question (§II.ii) requires of a
//! common format: a stable name, the physical unit, the metric kind, and
//! which of the four Fig. 1 source domains produced it.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Reserved metric-name prefix for the pipeline's self-telemetry
/// (`moda-obs`). Names under this namespace can only be created and
/// written through the scrape-only store entry points
/// ([`crate::Tsdb::register_self`] / [`crate::Tsdb::insert_self`]);
/// ordinary registration and inserts are refused so user data can never
/// masquerade as — or corrupt — the pipeline's own health metrics.
pub const SELF_NAMESPACE: &str = "__self/";

/// Whether `name` lives in the reserved [`SELF_NAMESPACE`].
pub fn is_self_metric(name: &str) -> bool {
    name.starts_with(SELF_NAMESPACE)
}

/// Typed refusal from [`crate::Tsdb::try_register`] (and the sharded
/// equivalent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// The name starts with [`SELF_NAMESPACE`]; only the obs scrape may
    /// create series there.
    ReservedNamespace {
        /// The refused metric name.
        name: String,
    },
    /// The name or unit is longer than [`crate::wire::MAX_STR_LEN`]
    /// bytes, the most the export wire's `u16` length prefix can carry.
    /// Refused at registration because a metric that cannot be encoded
    /// would stall its exporter forever on the first drain.
    TooLongForWire {
        /// Which field is too long: `"name"` or `"unit"`.
        field: &'static str,
        /// Its length in bytes.
        len: usize,
    },
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::ReservedNamespace { name } => write!(
                f,
                "metric name {name:?} is in the reserved {SELF_NAMESPACE} self-telemetry \
                 namespace; only the obs scrape may register it"
            ),
            RegisterError::TooLongForWire { field, len } => write!(
                f,
                "metric {field} is {len} bytes; the export wire carries at most {} \
                 (u16 length prefix)",
                crate::wire::MAX_STR_LEN
            ),
        }
    }
}

impl std::error::Error for RegisterError {}

/// Typed refusal from [`crate::Tsdb::try_insert`] (and the sharded
/// equivalent): the target series is reserved for self-telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertError {
    /// The series was registered by the obs scrape; only
    /// [`crate::Tsdb::insert_self`] may append to it.
    ReservedMetric {
        /// The refused metric id.
        id: MetricId,
        /// Its registered name (always under [`SELF_NAMESPACE`]).
        name: String,
    },
}

impl fmt::Display for InsertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InsertError::ReservedMetric { id, name } => write!(
                f,
                "metric {id} ({name:?}) is a reserved self-telemetry series; \
                 only the obs scrape may write it"
            ),
        }
    }
}

impl std::error::Error for InsertError {}

/// Dense handle for a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MetricId(pub u32);

impl MetricId {
    /// Index into registry-ordered storage.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Whether samples are instantaneous values or monotonically accumulating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Point-in-time value (temperature, utilization, queue depth).
    Gauge,
    /// Monotonic accumulator (bytes written, steps completed); consumers
    /// usually difference it into a rate.
    Counter,
}

/// Which layer of the holistic-monitoring vision (Fig. 1) a metric
/// originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SourceDomain {
    /// Facility / building infrastructure (cooling, power feeds).
    Facility,
    /// System hardware (node power, temperature, link counters).
    Hardware,
    /// System software (scheduler queue, filesystem servers).
    Software,
    /// Applications (progress markers, per-job I/O).
    Application,
}

impl fmt::Display for SourceDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SourceDomain::Facility => "facility",
            SourceDomain::Hardware => "hardware",
            SourceDomain::Software => "software",
            SourceDomain::Application => "application",
        };
        f.write_str(s)
    }
}

/// Registered metadata for one metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricMeta {
    /// Hierarchical dotted name, e.g. `job.42.progress_steps` or
    /// `node.3.power_watts`.
    pub name: String,
    /// Metric kind (gauge vs counter).
    pub kind: MetricKind,
    /// Physical unit as free text (`"W"`, `"MB/s"`, `"steps"`).
    pub unit: String,
    /// Originating layer of the holistic-monitoring stack.
    pub domain: SourceDomain,
}

impl MetricMeta {
    /// Gauge constructor.
    pub fn gauge(name: impl Into<String>, unit: impl Into<String>, domain: SourceDomain) -> Self {
        MetricMeta {
            name: name.into(),
            kind: MetricKind::Gauge,
            unit: unit.into(),
            domain,
        }
    }

    /// Counter constructor.
    pub fn counter(name: impl Into<String>, unit: impl Into<String>, domain: SourceDomain) -> Self {
        MetricMeta {
            name: name.into(),
            kind: MetricKind::Counter,
            unit: unit.into(),
            domain,
        }
    }

    /// The typed refusal for a name or unit the export wire cannot
    /// carry — checked where a metric enters a store, or a batch a
    /// process hands over enters the codec, so the codec never meets
    /// one.
    pub fn check_wire_limit(&self) -> Result<(), RegisterError> {
        for (field, s) in [("name", &self.name), ("unit", &self.unit)] {
            if s.len() > crate::wire::MAX_STR_LEN {
                return Err(RegisterError::TooLongForWire {
                    field,
                    len: s.len(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let g = MetricMeta::gauge("node.0.temp", "C", SourceDomain::Hardware);
        assert_eq!(g.kind, MetricKind::Gauge);
        let c = MetricMeta::counter("job.1.steps", "steps", SourceDomain::Application);
        assert_eq!(c.kind, MetricKind::Counter);
        assert_eq!(c.name, "job.1.steps");
    }

    #[test]
    fn id_display_and_index() {
        let id = MetricId(7);
        assert_eq!(id.to_string(), "m7");
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn domain_display() {
        assert_eq!(SourceDomain::Facility.to_string(), "facility");
        assert_eq!(SourceDomain::Application.to_string(), "application");
    }

    #[test]
    fn meta_serde_round_trip() {
        let m = MetricMeta::gauge("x.y", "W", SourceDomain::Facility);
        let s = serde_json::to_string(&m).unwrap();
        let back: MetricMeta = serde_json::from_str(&s).unwrap();
        assert_eq!(m, back);
    }
}
