//! `export-wire-v1.4` query frames: the serving front end's
//! request/response codec, executed against the fleet planner.
//!
//! The ingest half of the socket protocol ([`crate::transport`]) moves
//! node telemetry *into* the fleet tier; this module defines the frames
//! that move planner answers *out* — window aggregates, merged fleet
//! percentiles, top-k node rankings, per-node health, and the
//! coverage-annotated variants from [`crate::control`]. Both halves
//! share the length-prefixed CRC frame envelope
//! ([`moda_telemetry::wire::write_frame`]) and one tag registry
//! ([`moda_telemetry::wire::frame_tag`]).
//!
//! # Contract
//!
//! * **Bit-identical serving.** [`execute`] answers straight off the
//!   in-process planner ([`crate::FleetStore`] /
//!   [`crate::FleetAggregator`]), and every `f64` crosses the wire as
//!   its raw IEEE-754 bits — a remote [`crate::FleetClient`] answer is
//!   the in-process answer, bit for bit, including served/coverage
//!   metadata. Pinned by `tests/query.rs` and the recorded exchange in
//!   `tests/golden/query_wire_v1.bin`.
//! * **Fail closed.** [`decode_request`] accepts exactly the documented
//!   encoding: unknown version, unknown kind, truncation, trailing
//!   bytes, or an invalid field value all yield a typed
//!   [`QueryError`] (which the server ships back as an `Error`
//!   response), never a guess and never a panic. The client-side
//!   [`decode_response`] is equally strict.
//! * **Additive evolution.** New request/response kinds get new kind
//!   bytes; new fields on an existing kind require a version bump —
//!   except inside the explicitly length-prefixed blocks (per-node
//!   counters, drain totals), which may *grow* additively: decoders
//!   read the fields they know and skip the rest. Removing or reusing
//!   anything is a new protocol version.
//!
//! # Request encoding
//!
//! `[version u16][kind u8][fields…]`, little-endian throughout, strings
//! length-prefixed (`u16` + UTF-8), `f64` as raw bits. Responses carry
//! the same version/kind preamble. See `docs/FLEET_SERVICE.md` ("Query
//! protocol") for the full field tables.

use crate::aggregator::{FleetAggregator, FleetHealth, NodeCounters, NodeHealth, NodeLiveness};
use crate::control::{Coverage, CoveredValue};
use crate::store::{FleetServed, NodeId, Rank};
use moda_obs::SlowOp;
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::wire::{
    decode_drain_stats, encode_drain_stats, put_block, put_str, put_u16, put_u32, put_u64,
    WireReader,
};
use moda_telemetry::{DrainStats, WindowAgg};
use std::io;

/// Version every request and response leads with. Kinds are additive
/// within a version; field changes outside the length-prefixed blocks
/// bump it.
pub const QUERY_PROTOCOL_VERSION: u16 = 1;

// Request kinds.
const REQ_WINDOW_AGG: u8 = 1;
const REQ_TOP_NODES: u8 = 2;
const REQ_HEALTH: u8 = 3;
const REQ_COVERED_WINDOW_AGG: u8 = 4;
const REQ_COVERED_TOP_NODES: u8 = 5;
const REQ_METRICS: u8 = 6;
const REQ_SELF_STAT: u8 = 7;

// Response kinds.
const RESP_SCALAR: u8 = 1;
const RESP_TOP_NODES: u8 = 2;
const RESP_HEALTH: u8 = 3;
const RESP_COVERED: u8 = 4;
const RESP_COVERED_TOP_NODES: u8 = 5;
const RESP_METRICS: u8 = 6;
const RESP_ERROR: u8 = 7;
const RESP_SELF_STAT: u8 = 8;

// ------------------------------------------------------------ requests

/// One planner query, addressed to a fleet tier's logical axis (the
/// node-local metric name) or to the fleet as a whole.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// Cluster-wide trailing-window aggregate over a logical axis
    /// ([`crate::FleetStore::fleet_window_agg_served`]). Percentiles
    /// merge the nodes' sealed-bucket sketches; [`WindowAgg::Last`] is
    /// rejected (meaningless across nodes).
    WindowAgg {
        /// Logical axis (node-local metric name).
        metric: String,
        /// Query reference clock.
        now: SimTime,
        /// Trailing window ending at `now`.
        window: SimDuration,
        /// Aggregate to pool.
        agg: WindowAgg,
    },
    /// Per-node ranking over a logical axis
    /// ([`crate::FleetStore::top_nodes`]). `Last` *is* allowed here —
    /// each node's member folds in time order.
    TopNodes {
        /// Logical axis (node-local metric name).
        metric: String,
        /// Query reference clock.
        now: SimTime,
        /// Trailing window ending at `now`.
        window: SimDuration,
        /// Aggregate computed per node before ranking.
        agg: WindowAgg,
        /// Keep the top `k` nodes.
        k: u32,
        /// Ranking direction.
        rank: Rank,
    },
    /// Fleet health rollup ([`crate::FleetAggregator::health`]).
    Health {
        /// Query reference clock.
        now: SimTime,
        /// Drain lag beyond which a node is stale.
        stale_after: SimDuration,
    },
    /// Coverage-annotated window aggregate
    /// ([`crate::FleetAggregator::covered_window_agg`]).
    CoveredWindowAgg {
        /// Logical axis (node-local metric name).
        metric: String,
        /// Query reference clock.
        now: SimTime,
        /// Trailing window ending at `now`.
        window: SimDuration,
        /// Aggregate to pool over the contributing subset.
        agg: WindowAgg,
        /// Staleness bound for the coverage classification.
        stale_after: SimDuration,
    },
    /// Coverage-annotated ranking
    /// ([`crate::FleetAggregator::covered_top_nodes`]).
    CoveredTopNodes {
        /// Logical axis (node-local metric name).
        metric: String,
        /// Query reference clock.
        now: SimTime,
        /// Trailing window ending at `now`.
        window: SimDuration,
        /// Aggregate computed per node before ranking.
        agg: WindowAgg,
        /// Keep the top `k` nodes.
        k: u32,
        /// Ranking direction.
        rank: Rank,
        /// Staleness bound for the coverage classification.
        stale_after: SimDuration,
    },
    /// List the logical axes the store serves (sorted names + member
    /// counts) — the discovery query a dashboard starts with.
    Metrics,
    /// The service's slow-op log ([`crate::FleetAggregator::obs`] →
    /// top-k slowest spans) — the postmortem query behind
    /// `fleet_service selfstat`. With `drain` the server empties the
    /// log after answering, so repeated polls see fresh entries only.
    SelfStat {
        /// Keep the `k` slowest entries.
        k: u32,
        /// Consume the log instead of peeking.
        drain: bool,
    },
}

impl QueryRequest {
    /// Check field-level validity — the rules [`decode_request`] and
    /// [`execute`] both enforce, so a hostile or buggy client can never
    /// reach a planner entry point with arguments it would panic on.
    pub fn validate(&self) -> Result<(), QueryError> {
        match self {
            QueryRequest::WindowAgg { agg, .. } | QueryRequest::CoveredWindowAgg { agg, .. } => {
                if matches!(agg, WindowAgg::Last) {
                    return Err(QueryError::new(
                        QueryErrorCode::UnsupportedAggregate,
                        "Last is per-node; rank with TopNodes instead",
                    ));
                }
                check_percentile(agg)
            }
            QueryRequest::TopNodes { agg, .. } | QueryRequest::CoveredTopNodes { agg, .. } => {
                check_percentile(agg)
            }
            QueryRequest::Health { .. } | QueryRequest::Metrics | QueryRequest::SelfStat { .. } => {
                Ok(())
            }
        }
    }
}

fn check_percentile(agg: &WindowAgg) -> Result<(), QueryError> {
    if let WindowAgg::Percentile(q) = agg {
        if !q.is_finite() || !(0.0..=1.0).contains(q) {
            return Err(QueryError::new(
                QueryErrorCode::BadField,
                "percentile rank must be finite in [0, 1]",
            ));
        }
    }
    Ok(())
}

// ----------------------------------------------------------- responses

/// One ranked node in a [`QueryResponse::TopNodes`] answer.
#[derive(Debug, Clone, PartialEq)]
pub struct TopNodeEntry {
    /// The node's id within the serving aggregator.
    pub node: NodeId,
    /// Its registered name.
    pub name: String,
    /// The per-node aggregate it ranked on.
    pub value: f64,
}

/// A scalar planner answer plus its serving metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarAnswer {
    /// The pooled aggregate (`None`: no member had data in the window).
    pub value: Option<f64>,
    /// How the store served it (members/buckets/sketch accounting).
    pub served: FleetServed,
}

/// A coverage-annotated ranking answer.
#[derive(Debug, Clone, PartialEq)]
pub struct CoveredTopNodesAnswer {
    /// Ranked contributing nodes, best first.
    pub entries: Vec<TopNodeEntry>,
    /// What part of the fleet the ranking represents.
    pub coverage: Coverage,
}

/// The axes listing answering [`QueryRequest::Metrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsAnswer {
    /// `(logical axis name, member count)`, sorted by name.
    pub axes: Vec<(String, u32)>,
}

/// The slow-op dump answering [`QueryRequest::SelfStat`] — the wire
/// form carries [`moda_obs::SlowOp`] verbatim (name, duration, nesting
/// depth, completion sequence), slowest first.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfStatAnswer {
    /// Slowest completed spans, slowest first.
    pub ops: Vec<SlowOp>,
}

/// Why a request was refused. Codes are part of the wire contract
/// (`docs/FLEET_SERVICE.md`); the detail string is advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryErrorCode {
    /// The request bytes did not parse (truncated, trailing bytes,
    /// or a frame too short to carry its request id).
    Malformed = 1,
    /// The request led with a protocol version this server does not
    /// speak.
    UnsupportedVersion = 2,
    /// The kind byte named no known request.
    UnknownKind = 3,
    /// A field carried an invalid value (e.g. a NaN percentile rank).
    BadField = 4,
    /// The frame arrived on a session that never completed the query
    /// handshake.
    Unauthorized = 5,
    /// The aggregate is valid per-node but meaningless for this query
    /// (fleet-wide `Last`).
    UnsupportedAggregate = 6,
}

impl QueryErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => QueryErrorCode::Malformed,
            2 => QueryErrorCode::UnsupportedVersion,
            3 => QueryErrorCode::UnknownKind,
            4 => QueryErrorCode::BadField,
            5 => QueryErrorCode::Unauthorized,
            6 => QueryErrorCode::UnsupportedAggregate,
            _ => return None,
        })
    }
}

/// A refused request: reason code + advisory detail. Travels as the
/// `Error` response kind, so a server can reject one request without
/// tearing down the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// Machine-readable reason.
    pub code: QueryErrorCode,
    /// Human-readable detail (not part of the stability contract).
    pub detail: String,
}

impl QueryError {
    /// Build an error with the given code and detail.
    pub fn new(code: QueryErrorCode, detail: impl Into<String>) -> Self {
        QueryError {
            code,
            detail: detail.into(),
        }
    }

    fn malformed(e: &io::Error) -> Self {
        QueryError::new(QueryErrorCode::Malformed, e.to_string())
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query refused ({:?}): {}", self.code, self.detail)
    }
}

impl From<QueryError> for io::Error {
    fn from(e: QueryError) -> io::Error {
        let kind = match e.code {
            QueryErrorCode::Unauthorized => io::ErrorKind::PermissionDenied,
            _ => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, e.to_string())
    }
}

/// One planner answer (or refusal), matched to its request by the
/// request id the transport layer carries alongside.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Answer to [`QueryRequest::WindowAgg`].
    Scalar(ScalarAnswer),
    /// Answer to [`QueryRequest::TopNodes`].
    TopNodes(Vec<TopNodeEntry>),
    /// Answer to [`QueryRequest::Health`]. On the wire the per-node
    /// counters and drain totals are additive (length-prefixed) blocks.
    Health(FleetHealth),
    /// Answer to [`QueryRequest::CoveredWindowAgg`].
    Covered(CoveredValue),
    /// Answer to [`QueryRequest::CoveredTopNodes`].
    CoveredTopNodes(CoveredTopNodesAnswer),
    /// Answer to [`QueryRequest::Metrics`].
    Metrics(MetricsAnswer),
    /// Answer to [`QueryRequest::SelfStat`].
    SelfStat(SelfStatAnswer),
    /// The request was refused; the session stays up.
    Error(QueryError),
}

// -------------------------------------------------------------- codec

// Aggregate encoding: `[tag u8]` + rank bits for percentiles. `Last`
// is encodable (tag 6) so a client can send it and receive the typed
// refusal — the reject lives in `validate`, not in the codec.
const AGG_MEAN: u8 = 0;
const AGG_MIN: u8 = 1;
const AGG_MAX: u8 = 2;
const AGG_SUM: u8 = 3;
const AGG_COUNT: u8 = 4;
const AGG_PERCENTILE: u8 = 5;
const AGG_LAST: u8 = 6;

fn put_agg(out: &mut Vec<u8>, agg: &WindowAgg) {
    match agg {
        WindowAgg::Mean => out.push(AGG_MEAN),
        WindowAgg::Min => out.push(AGG_MIN),
        WindowAgg::Max => out.push(AGG_MAX),
        WindowAgg::Sum => out.push(AGG_SUM),
        WindowAgg::Count => out.push(AGG_COUNT),
        WindowAgg::Percentile(q) => {
            out.push(AGG_PERCENTILE);
            put_u64(out, q.to_bits());
        }
        WindowAgg::Last => out.push(AGG_LAST),
    }
}

fn read_agg(r: &mut WireReader<'_>) -> Result<WindowAgg, QueryError> {
    let tag = r.u8().map_err(|e| QueryError::malformed(&e))?;
    Ok(match tag {
        AGG_MEAN => WindowAgg::Mean,
        AGG_MIN => WindowAgg::Min,
        AGG_MAX => WindowAgg::Max,
        AGG_SUM => WindowAgg::Sum,
        AGG_COUNT => WindowAgg::Count,
        AGG_PERCENTILE => {
            let bits = r.u64().map_err(|e| QueryError::malformed(&e))?;
            WindowAgg::Percentile(f64::from_bits(bits))
        }
        AGG_LAST => WindowAgg::Last,
        _ => {
            return Err(QueryError::new(
                QueryErrorCode::BadField,
                "unknown aggregate tag",
            ))
        }
    })
}

fn put_rank(out: &mut Vec<u8>, rank: Rank) {
    out.push(match rank {
        Rank::Highest => 0,
        Rank::Lowest => 1,
    });
}

fn read_rank(r: &mut WireReader<'_>) -> Result<Rank, QueryError> {
    match r.u8().map_err(|e| QueryError::malformed(&e))? {
        0 => Ok(Rank::Highest),
        1 => Ok(Rank::Lowest),
        _ => Err(QueryError::new(
            QueryErrorCode::BadField,
            "unknown rank direction",
        )),
    }
}

fn put_liveness(out: &mut Vec<u8>, l: NodeLiveness) {
    out.push(match l {
        NodeLiveness::Live => 0,
        NodeLiveness::Stale => 1,
        NodeLiveness::Silent => 2,
    });
}

fn read_liveness(r: &mut WireReader<'_>) -> io::Result<NodeLiveness> {
    match r.u8()? {
        0 => Ok(NodeLiveness::Live),
        1 => Ok(NodeLiveness::Stale),
        2 => Ok(NodeLiveness::Silent),
        _ => Err(bad_resp("unknown liveness tag")),
    }
}

fn bad_resp(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("query response: {what}"),
    )
}

/// Encode one request (version + kind + fields). Total: every
/// [`QueryRequest`] value encodes, including ones [`validate`]
/// rejects — the refusal is the server's typed answer, not a client
/// panic.
///
/// [`validate`]: QueryRequest::validate
pub fn encode_request(req: &QueryRequest, out: &mut Vec<u8>) {
    put_u16(out, QUERY_PROTOCOL_VERSION);
    match req {
        QueryRequest::WindowAgg {
            metric,
            now,
            window,
            agg,
        } => {
            out.push(REQ_WINDOW_AGG);
            put_str(out, metric);
            put_u64(out, now.0);
            put_u64(out, window.0);
            put_agg(out, agg);
        }
        QueryRequest::TopNodes {
            metric,
            now,
            window,
            agg,
            k,
            rank,
        } => {
            out.push(REQ_TOP_NODES);
            put_str(out, metric);
            put_u64(out, now.0);
            put_u64(out, window.0);
            put_agg(out, agg);
            put_u32(out, *k);
            put_rank(out, *rank);
        }
        QueryRequest::Health { now, stale_after } => {
            out.push(REQ_HEALTH);
            put_u64(out, now.0);
            put_u64(out, stale_after.0);
        }
        QueryRequest::CoveredWindowAgg {
            metric,
            now,
            window,
            agg,
            stale_after,
        } => {
            out.push(REQ_COVERED_WINDOW_AGG);
            put_str(out, metric);
            put_u64(out, now.0);
            put_u64(out, window.0);
            put_agg(out, agg);
            put_u64(out, stale_after.0);
        }
        QueryRequest::CoveredTopNodes {
            metric,
            now,
            window,
            agg,
            k,
            rank,
            stale_after,
        } => {
            out.push(REQ_COVERED_TOP_NODES);
            put_str(out, metric);
            put_u64(out, now.0);
            put_u64(out, window.0);
            put_agg(out, agg);
            put_u32(out, *k);
            put_rank(out, *rank);
            put_u64(out, stale_after.0);
        }
        QueryRequest::Metrics => out.push(REQ_METRICS),
        QueryRequest::SelfStat { k, drain } => {
            out.push(REQ_SELF_STAT);
            put_u32(out, *k);
            out.push(*drain as u8);
        }
    }
}

/// Decode one request, strictly: unknown version/kind, truncation,
/// trailing bytes, and invalid field values all fail closed with a
/// typed reason. A decoded request has already passed
/// [`QueryRequest::validate`].
pub fn decode_request(buf: &[u8]) -> Result<QueryRequest, QueryError> {
    let mut r = WireReader::new(buf);
    let version = r.u16().map_err(|e| QueryError::malformed(&e))?;
    if version != QUERY_PROTOCOL_VERSION {
        return Err(QueryError::new(
            QueryErrorCode::UnsupportedVersion,
            format!("version {version}, this server speaks {QUERY_PROTOCOL_VERSION}"),
        ));
    }
    let kind = r.u8().map_err(|e| QueryError::malformed(&e))?;
    let mal = |e: io::Error| QueryError::malformed(&e);
    let req = match kind {
        REQ_WINDOW_AGG => QueryRequest::WindowAgg {
            metric: r.str().map_err(mal)?,
            now: SimTime(r.u64().map_err(mal)?),
            window: SimDuration(r.u64().map_err(mal)?),
            agg: read_agg(&mut r)?,
        },
        REQ_TOP_NODES => QueryRequest::TopNodes {
            metric: r.str().map_err(mal)?,
            now: SimTime(r.u64().map_err(mal)?),
            window: SimDuration(r.u64().map_err(mal)?),
            agg: read_agg(&mut r)?,
            k: r.u32().map_err(mal)?,
            rank: read_rank(&mut r)?,
        },
        REQ_HEALTH => QueryRequest::Health {
            now: SimTime(r.u64().map_err(mal)?),
            stale_after: SimDuration(r.u64().map_err(mal)?),
        },
        REQ_COVERED_WINDOW_AGG => QueryRequest::CoveredWindowAgg {
            metric: r.str().map_err(mal)?,
            now: SimTime(r.u64().map_err(mal)?),
            window: SimDuration(r.u64().map_err(mal)?),
            agg: read_agg(&mut r)?,
            stale_after: SimDuration(r.u64().map_err(mal)?),
        },
        REQ_COVERED_TOP_NODES => QueryRequest::CoveredTopNodes {
            metric: r.str().map_err(mal)?,
            now: SimTime(r.u64().map_err(mal)?),
            window: SimDuration(r.u64().map_err(mal)?),
            agg: read_agg(&mut r)?,
            k: r.u32().map_err(mal)?,
            rank: read_rank(&mut r)?,
            stale_after: SimDuration(r.u64().map_err(mal)?),
        },
        REQ_METRICS => QueryRequest::Metrics,
        REQ_SELF_STAT => QueryRequest::SelfStat {
            k: r.u32().map_err(mal)?,
            drain: match r.u8().map_err(mal)? {
                0 => false,
                1 => true,
                _ => {
                    return Err(QueryError::new(
                        QueryErrorCode::BadField,
                        "selfstat drain flag out of range",
                    ))
                }
            },
        },
        other => {
            return Err(QueryError::new(
                QueryErrorCode::UnknownKind,
                format!("request kind {other}"),
            ))
        }
    };
    if !r.done() {
        return Err(QueryError::new(
            QueryErrorCode::Malformed,
            "trailing bytes after request",
        ));
    }
    req.validate()?;
    Ok(req)
}

fn put_served(out: &mut Vec<u8>, s: &FleetServed) {
    put_u32(out, s.members as u32);
    put_u32(out, s.buckets as u32);
    put_u64(out, s.raw_values);
    out.push(s.sketch as u8);
}

fn read_served(r: &mut WireReader<'_>) -> io::Result<FleetServed> {
    Ok(FleetServed {
        members: r.u32()? as usize,
        buckets: r.u32()? as usize,
        raw_values: r.u64()?,
        sketch: match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(bad_resp("served.sketch out of range")),
        },
    })
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u64(out, v.to_bits());
        }
        None => out.push(0),
    }
}

fn read_opt_f64(r: &mut WireReader<'_>) -> io::Result<Option<f64>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(f64::from_bits(r.u64()?))),
        _ => Err(bad_resp("option discriminant out of range")),
    }
}

fn put_coverage(out: &mut Vec<u8>, c: &Coverage) {
    put_u32(out, c.total as u32);
    put_u32(out, c.contributing as u32);
    put_u32(out, c.stale as u32);
    put_u32(out, c.silent as u32);
    put_u32(out, c.missing as u32);
    put_u32(out, c.excluded.len() as u32);
    for (node, liveness) in &c.excluded {
        put_u32(out, node.0);
        put_liveness(out, *liveness);
    }
}

fn read_coverage(r: &mut WireReader<'_>) -> io::Result<Coverage> {
    let total = r.u32()? as usize;
    let contributing = r.u32()? as usize;
    let stale = r.u32()? as usize;
    let silent = r.u32()? as usize;
    let missing = r.u32()? as usize;
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(bad_resp("excluded-node count exceeds payload"));
    }
    let mut excluded = Vec::with_capacity(n);
    for _ in 0..n {
        let node = NodeId(r.u32()?);
        excluded.push((node, read_liveness(r)?));
    }
    Ok(Coverage {
        total,
        contributing,
        stale,
        silent,
        missing,
        excluded,
    })
}

fn put_entries(out: &mut Vec<u8>, entries: &[TopNodeEntry]) {
    put_u32(out, entries.len() as u32);
    for e in entries {
        put_u32(out, e.node.0);
        put_str(out, &e.name);
        put_u64(out, e.value.to_bits());
    }
}

fn read_entries(r: &mut WireReader<'_>) -> io::Result<Vec<TopNodeEntry>> {
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(bad_resp("ranking length exceeds payload"));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(TopNodeEntry {
            node: NodeId(r.u32()?),
            name: r.str()?,
            value: f64::from_bits(r.u64()?),
        });
    }
    Ok(entries)
}

// The two additive blocks: length-prefixed so a newer server can
// append counters without a version bump — an older client reads the
// fields it knows and skips the rest; a shorter-than-known block is a
// decode error (fields never get removed within a version).
fn put_counters(out: &mut Vec<u8>, c: &NodeCounters) {
    put_block(out, |out| c.encode(out));
}

fn read_counters(r: &mut WireReader<'_>) -> io::Result<NodeCounters> {
    NodeCounters::decode(&mut WireReader::new(r.block()?))
}

fn put_drain(out: &mut Vec<u8>, d: &DrainStats) {
    put_block(out, |out| encode_drain_stats(d, out));
}

fn read_drain(r: &mut WireReader<'_>) -> io::Result<DrainStats> {
    decode_drain_stats(r.block()?)
}

/// Encode one response (version + kind + fields).
pub fn encode_response(resp: &QueryResponse, out: &mut Vec<u8>) {
    put_u16(out, QUERY_PROTOCOL_VERSION);
    match resp {
        QueryResponse::Scalar(a) => {
            out.push(RESP_SCALAR);
            put_opt_f64(out, a.value);
            put_served(out, &a.served);
        }
        QueryResponse::TopNodes(entries) => {
            out.push(RESP_TOP_NODES);
            put_entries(out, entries);
        }
        QueryResponse::Health(h) => {
            out.push(RESP_HEALTH);
            put_u64(out, h.observed_now.0);
            put_u32(out, h.live as u32);
            put_u32(out, h.stale as u32);
            put_u32(out, h.silent as u32);
            put_u32(out, h.nodes.len() as u32);
            for n in &h.nodes {
                put_u32(out, n.node.0);
                put_str(out, &n.name);
                put_liveness(out, n.liveness);
                put_u64(out, n.high_water.0);
                put_u64(out, n.drain_lag.0);
                put_counters(out, &n.counters);
                put_drain(out, &n.drain);
            }
        }
        QueryResponse::Covered(a) => {
            out.push(RESP_COVERED);
            put_opt_f64(out, a.value);
            put_served(out, &a.served);
            put_coverage(out, &a.coverage);
        }
        QueryResponse::CoveredTopNodes(a) => {
            out.push(RESP_COVERED_TOP_NODES);
            put_entries(out, &a.entries);
            put_coverage(out, &a.coverage);
        }
        QueryResponse::Metrics(m) => {
            out.push(RESP_METRICS);
            put_u32(out, m.axes.len() as u32);
            for (name, members) in &m.axes {
                put_str(out, name);
                put_u32(out, *members);
            }
        }
        QueryResponse::SelfStat(a) => {
            out.push(RESP_SELF_STAT);
            put_u32(out, a.ops.len() as u32);
            for op in &a.ops {
                put_str(out, &op.name);
                put_u64(out, op.duration_ns);
                put_u32(out, op.depth);
                put_u64(out, op.seq);
            }
        }
        QueryResponse::Error(e) => {
            out.push(RESP_ERROR);
            out.push(e.code as u8);
            put_str(out, &e.detail);
        }
    }
}

/// Decode one response, strictly — the client-side mirror of
/// [`decode_request`]'s fail-closed rules. A hostile or corrupt
/// response yields `Err`, never a panic and never a partial answer.
pub fn decode_response(buf: &[u8]) -> io::Result<QueryResponse> {
    let mut r = WireReader::new(buf);
    let version = r.u16()?;
    if version != QUERY_PROTOCOL_VERSION {
        return Err(bad_resp("unsupported protocol version"));
    }
    let resp = match r.u8()? {
        RESP_SCALAR => QueryResponse::Scalar(ScalarAnswer {
            value: read_opt_f64(&mut r)?,
            served: read_served(&mut r)?,
        }),
        RESP_TOP_NODES => QueryResponse::TopNodes(read_entries(&mut r)?),
        RESP_HEALTH => {
            let observed_now = SimTime(r.u64()?);
            let live = r.u32()? as usize;
            let stale = r.u32()? as usize;
            let silent = r.u32()? as usize;
            let n = r.u32()? as usize;
            if n > r.remaining() {
                return Err(bad_resp("node count exceeds payload"));
            }
            let mut nodes = Vec::with_capacity(n);
            for _ in 0..n {
                nodes.push(NodeHealth {
                    node: NodeId(r.u32()?),
                    name: r.str()?,
                    liveness: read_liveness(&mut r)?,
                    high_water: SimTime(r.u64()?),
                    drain_lag: SimDuration(r.u64()?),
                    counters: read_counters(&mut r)?,
                    drain: read_drain(&mut r)?,
                });
            }
            QueryResponse::Health(FleetHealth {
                observed_now,
                live,
                stale,
                silent,
                nodes,
            })
        }
        RESP_COVERED => QueryResponse::Covered(CoveredValue {
            value: read_opt_f64(&mut r)?,
            served: read_served(&mut r)?,
            coverage: read_coverage(&mut r)?,
        }),
        RESP_COVERED_TOP_NODES => QueryResponse::CoveredTopNodes(CoveredTopNodesAnswer {
            entries: read_entries(&mut r)?,
            coverage: read_coverage(&mut r)?,
        }),
        RESP_METRICS => {
            let n = r.u32()? as usize;
            if n > r.remaining() {
                return Err(bad_resp("axis count exceeds payload"));
            }
            let mut axes = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.str()?;
                axes.push((name, r.u32()?));
            }
            QueryResponse::Metrics(MetricsAnswer { axes })
        }
        RESP_SELF_STAT => {
            let n = r.u32()? as usize;
            if n > r.remaining() {
                return Err(bad_resp("slow-op count exceeds payload"));
            }
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(SlowOp {
                    name: r.str()?,
                    duration_ns: r.u64()?,
                    depth: r.u32()?,
                    seq: r.u64()?,
                });
            }
            QueryResponse::SelfStat(SelfStatAnswer { ops })
        }
        RESP_ERROR => {
            let code =
                QueryErrorCode::from_u8(r.u8()?).ok_or_else(|| bad_resp("unknown error code"))?;
            QueryResponse::Error(QueryError {
                code,
                detail: r.str()?,
            })
        }
        _ => return Err(bad_resp("unknown response kind")),
    };
    if !r.done() {
        return Err(bad_resp("trailing bytes after response"));
    }
    Ok(resp)
}

// ------------------------------------------------------------ execute

/// Answer one request off the in-process planner. Never panics:
/// [`QueryRequest::validate`] runs first (defense in depth behind
/// [`decode_request`]'s own call), so arguments the planner would
/// panic on — a fleet-wide `Last`, a NaN percentile rank — come back
/// as typed refusals instead.
pub fn execute(fleet: &FleetAggregator, req: &QueryRequest) -> QueryResponse {
    if let Err(e) = req.validate() {
        return QueryResponse::Error(e);
    }
    let store = fleet.store();
    match req {
        QueryRequest::WindowAgg {
            metric,
            now,
            window,
            agg,
        } => {
            let (value, served) = store.fleet_window_agg_served(metric, *now, *window, *agg);
            QueryResponse::Scalar(ScalarAnswer { value, served })
        }
        QueryRequest::TopNodes {
            metric,
            now,
            window,
            agg,
            k,
            rank,
        } => {
            let ranked = store.top_nodes(metric, *now, *window, *agg, *k as usize, *rank);
            QueryResponse::TopNodes(rank_entries(fleet, ranked))
        }
        QueryRequest::Health { now, stale_after } => {
            QueryResponse::Health(fleet.health(*now, *stale_after))
        }
        QueryRequest::CoveredWindowAgg {
            metric,
            now,
            window,
            agg,
            stale_after,
        } => QueryResponse::Covered(fleet.covered_window_agg(
            metric,
            *now,
            *window,
            *agg,
            *stale_after,
        )),
        QueryRequest::CoveredTopNodes {
            metric,
            now,
            window,
            agg,
            k,
            rank,
            stale_after,
        } => {
            let (ranked, coverage) = fleet.covered_top_nodes(
                metric,
                *now,
                *window,
                *agg,
                *k as usize,
                *rank,
                *stale_after,
            );
            QueryResponse::CoveredTopNodes(CoveredTopNodesAnswer {
                entries: rank_entries(fleet, ranked),
                coverage,
            })
        }
        QueryRequest::Metrics => QueryResponse::Metrics(MetricsAnswer {
            axes: store
                .logical_axes()
                .into_iter()
                .map(|(name, members)| (name, members as u32))
                .collect(),
        }),
        QueryRequest::SelfStat { k, drain } => {
            let obs = fleet.obs();
            let ops = if *drain {
                let mut ops = obs.drain_slow_ops();
                ops.truncate(*k as usize);
                ops
            } else {
                obs.slow_ops(*k as usize)
            };
            QueryResponse::SelfStat(SelfStatAnswer { ops })
        }
    }
}

fn rank_entries(fleet: &FleetAggregator, ranked: Vec<(NodeId, f64)>) -> Vec<TopNodeEntry> {
    ranked
        .into_iter()
        .map(|(node, value)| TopNodeEntry {
            node,
            name: fleet.node_name(node).to_string(),
            value,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<QueryRequest> {
        vec![
            QueryRequest::WindowAgg {
                metric: "power_w".into(),
                now: SimTime::from_secs(600),
                window: SimDuration::from_secs(60),
                agg: WindowAgg::Percentile(0.99),
            },
            QueryRequest::TopNodes {
                metric: "power_w".into(),
                now: SimTime::from_secs(600),
                window: SimDuration::from_secs(60),
                agg: WindowAgg::Mean,
                k: 5,
                rank: Rank::Lowest,
            },
            QueryRequest::Health {
                now: SimTime::from_secs(600),
                stale_after: SimDuration::from_secs(120),
            },
            QueryRequest::CoveredWindowAgg {
                metric: "power_w".into(),
                now: SimTime::from_secs(600),
                window: SimDuration::from_secs(60),
                agg: WindowAgg::Sum,
                stale_after: SimDuration::from_secs(120),
            },
            QueryRequest::CoveredTopNodes {
                metric: "power_w".into(),
                now: SimTime::from_secs(600),
                window: SimDuration::from_secs(60),
                agg: WindowAgg::Max,
                k: 3,
                rank: Rank::Highest,
                stale_after: SimDuration::from_secs(120),
            },
            QueryRequest::Metrics,
            QueryRequest::SelfStat { k: 16, drain: true },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in all_requests() {
            let mut buf = Vec::new();
            encode_request(&req, &mut buf);
            assert_eq!(decode_request(&buf).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            QueryResponse::Scalar(ScalarAnswer {
                value: Some(42.5),
                served: FleetServed {
                    members: 3,
                    buckets: 17,
                    raw_values: 4,
                    sketch: true,
                },
            }),
            QueryResponse::Scalar(ScalarAnswer {
                value: None,
                served: FleetServed::default(),
            }),
            QueryResponse::TopNodes(vec![TopNodeEntry {
                node: NodeId(2),
                name: "node02".into(),
                value: -0.0,
            }]),
            QueryResponse::Health(FleetHealth {
                observed_now: SimTime::from_secs(600),
                live: 1,
                stale: 1,
                silent: 1,
                nodes: vec![NodeHealth {
                    node: NodeId(0),
                    name: "node00".into(),
                    liveness: NodeLiveness::Stale,
                    high_water: SimTime::from_secs(500),
                    drain_lag: SimDuration::from_secs(100),
                    counters: NodeCounters {
                        batches: 7,
                        samples: 999,
                        ..NodeCounters::default()
                    },
                    drain: DrainStats {
                        records: 12,
                        send_retries: 2,
                        ..DrainStats::default()
                    },
                }],
            }),
            QueryResponse::Covered(CoveredValue {
                value: Some(f64::NAN.to_bits() as f64),
                served: FleetServed::default(),
                coverage: Coverage {
                    total: 4,
                    contributing: 2,
                    stale: 1,
                    silent: 1,
                    missing: 0,
                    excluded: vec![
                        (NodeId(1), NodeLiveness::Stale),
                        (NodeId(3), NodeLiveness::Silent),
                    ],
                },
            }),
            QueryResponse::CoveredTopNodes(CoveredTopNodesAnswer {
                entries: vec![],
                coverage: Coverage::default(),
            }),
            QueryResponse::Metrics(MetricsAnswer {
                axes: vec![("power_w".into(), 16), ("temp_c".into(), 3)],
            }),
            QueryResponse::SelfStat(SelfStatAnswer {
                ops: vec![
                    SlowOp {
                        name: "export.drain_ns".into(),
                        duration_ns: 123_456,
                        depth: 0,
                        seq: 42,
                    },
                    SlowOp {
                        name: "chunk.encode_ns".into(),
                        duration_ns: 99,
                        depth: 1,
                        seq: 43,
                    },
                ],
            }),
            QueryResponse::Error(QueryError::new(QueryErrorCode::BadField, "nope")),
        ];
        for resp in responses {
            let mut buf = Vec::new();
            encode_response(&resp, &mut buf);
            assert_eq!(decode_response(&buf).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn decode_request_fails_closed() {
        let mut buf = Vec::new();
        encode_request(&all_requests()[0], &mut buf);

        // Every strict prefix is a typed refusal, never a panic.
        for cut in 0..buf.len() {
            assert!(decode_request(&buf[..cut]).is_err(), "prefix {cut}");
        }
        // Trailing bytes are refused.
        let mut long = buf.clone();
        long.push(0);
        assert_eq!(
            decode_request(&long).unwrap_err().code,
            QueryErrorCode::Malformed
        );
        // Unknown version.
        let mut wrong = buf.clone();
        wrong[0] = 0xFF;
        assert_eq!(
            decode_request(&wrong).unwrap_err().code,
            QueryErrorCode::UnsupportedVersion
        );
        // Unknown kind.
        let mut wrong = buf.clone();
        wrong[2] = 0xEE;
        assert_eq!(
            decode_request(&wrong).unwrap_err().code,
            QueryErrorCode::UnknownKind
        );
    }

    #[test]
    fn invalid_field_values_are_typed_refusals() {
        let mk = |agg| QueryRequest::WindowAgg {
            metric: "m".into(),
            now: SimTime::from_secs(1),
            window: SimDuration::from_secs(1),
            agg,
        };
        for (agg, code) in [
            (WindowAgg::Last, QueryErrorCode::UnsupportedAggregate),
            (WindowAgg::Percentile(f64::NAN), QueryErrorCode::BadField),
            (WindowAgg::Percentile(1.5), QueryErrorCode::BadField),
            (WindowAgg::Percentile(-0.1), QueryErrorCode::BadField),
        ] {
            let req = mk(agg);
            let mut buf = Vec::new();
            encode_request(&req, &mut buf);
            assert_eq!(decode_request(&buf).unwrap_err().code, code);
            // execute's own guard (defense in depth for in-process
            // callers that never hit the codec).
            let fleet = FleetAggregator::new();
            match execute(&fleet, &req) {
                QueryResponse::Error(e) => assert_eq!(e.code, code),
                other => panic!("expected refusal, got {other:?}"),
            }
        }
        // Last stays valid for per-node ranking.
        let req = QueryRequest::TopNodes {
            metric: "m".into(),
            now: SimTime::from_secs(1),
            window: SimDuration::from_secs(1),
            agg: WindowAgg::Last,
            k: 2,
            rank: Rank::Highest,
        };
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        assert_eq!(decode_request(&buf).unwrap(), req);
    }

    #[test]
    fn decode_response_fails_closed() {
        let resp = QueryResponse::Metrics(MetricsAnswer {
            axes: vec![("power_w".into(), 16)],
        });
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_response(&buf[..cut]).is_err(), "prefix {cut}");
        }
        let mut long = buf.clone();
        long.push(7);
        assert!(decode_response(&long).is_err());
        // An absurd element count must not pre-allocate unbounded
        // memory or panic.
        let mut bomb = Vec::new();
        put_u16(&mut bomb, QUERY_PROTOCOL_VERSION);
        bomb.push(RESP_METRICS);
        put_u32(&mut bomb, u32::MAX);
        assert!(decode_response(&bomb).is_err());
    }
}
