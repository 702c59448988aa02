//! Per-node wire ingest sessions and fleet health.
//!
//! A [`FleetAggregator`] owns one [`FleetStore`] plus one ingest
//! session per node exporter stream. Ingest enforces the consumption
//! rules of `docs/EXPORT_FORMAT.md` §"Aggregator consumption":
//!
//! * **batch cursor** — `seq` must advance monotonically per node;
//!   a replayed batch (`seq < next`) is rejected whole (samples are not
//!   keyed, so re-applying would double-count them), a skipped range
//!   (`seq > next`) is accepted and the gap counted;
//! * **one way in** — every batch is applied off its wire bytes
//!   ([`BatchView`]): a received one as it arrived, an owned one
//!   ([`FleetAggregator::ingest`]) as a 1.6 writer opening a connection
//!   encodes it. A batch holding a record the wire refuses — a `meta`
//!   id at or past `MAX_VALUE_IDS`, a tier record of resolution 0 — or a
//!   `meta` name or unit longer than a wire string carries is refused
//!   whole, whichever way it came, and leaves no trace;
//! * **registry mapping** — `meta` records bind node-local wire ids to
//!   fleet metrics (`node/name`); data records arriving before their
//!   meta are dropped and counted (`unmapped_records`);
//! * **column framing** — a `sketch` column must follow its bucket (or
//!   a sibling column) within the batch, per the wire spec; orphans are
//!   dropped and counted rather than absorbed into the wrong slot. A
//!   `bucket_run` record (revision 1.5) is its buckets each with its
//!   column, applied against one slot lookup a bucket and counted as
//!   the `bucket` and `sketch` records it stands for;
//! * **monotonic samples** — per-metric out-of-order raw samples are
//!   rejected by the fleet ring and counted (this is also what makes a
//!   restarted node exporter re-shipping its retained tail safe: the
//!   already-seen prefix bounces off the monotonic guard, buckets
//!   overwrite by key);
//! * **stream values** — each session keeps its stream's
//!   [`ValueState`], which `samples_delta` and `sweep` records
//!   (revisions 1.3 and 1.4) are
//!   read against and leave their values in — a duplicate's included
//!   (it is walked, not applied). A batch holding a delta the state
//!   cannot read is refused whole ([`FleetAggregator::ingest_view`]);
//! * **compressed chunks** — a `chunk` record (wire spec revision 1.1)
//!   is validated in one pass and linked into the fleet ring as it
//!   arrived (the pass a received batch's records get before the batch
//!   is logged, where there was one);
//!   an overlapping re-ship falls back to per-sample pushes so
//!   the monotonic guard keeps exact duplicate accounting, and a record
//!   whose payload is undecodable, empty, or ends elsewhere than its
//!   header says is dropped whole and counted without moving the node's
//!   high-water mark.
//!
//! Health ([`FleetAggregator::health`]) classifies each node by **drain
//! lag** — how far the node's newest ingested data sits behind a
//! reference clock — and carries the exporter totals the node last
//! reported ([`FleetAggregator::report_drain`]), which its session's
//! counters balance in one [`Ledger`] ([`NodeHealth::ledger`]).

use crate::store::{ChunkOutcome, FleetStore, NodeId, Payload};
use moda_obs::{LatencyRecorder, Obs};
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::export::{ExportBatch, ExportRecord};
use moda_telemetry::wire::{
    bad_data, encode_batch_with, put_u64, BatchHeader, BatchView, RecordRef, ValueState, WireReader,
};
use moda_telemetry::{DrainStats, MetricId, SketchEntry};
use std::io;

/// Lifetime wire counters of one node's ingest session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Batches applied.
    pub batches: u64,
    /// Batches rejected as duplicates (`seq` already covered).
    pub duplicate_batches: u64,
    /// Times the sequence jumped forward (exporter restarted mid-stream
    /// or transport dropped batches).
    pub gaps: u64,
    /// Batches known missing across those gaps (sum of jump widths).
    pub missing_batches: u64,
    /// Records applied (all kinds).
    pub records: u64,
    /// Raw samples accepted into the fleet store (per-sample records
    /// plus the samples decoded out of compressed chunk records).
    pub samples: u64,
    /// Raw samples rejected by the per-metric monotonic guard.
    pub rejected_samples: u64,
    /// Compressed raw-chunk records applied (their decoded samples are
    /// counted in `samples`/`rejected_samples`).
    pub chunks: u64,
    /// Chunk records dropped whole as corrupt (undecodable or empty
    /// payload, or one that disagrees with the record header).
    pub corrupt_chunks: u64,
    /// Sealed buckets applied.
    pub buckets: u64,
    /// Sketch columns applied.
    pub sketch_entries: u64,
    /// Sketch columns dropped for violating the follows-its-bucket
    /// framing rule.
    pub orphan_sketches: u64,
    /// Data records dropped because no `meta` had mapped their wire id.
    pub unmapped_records: u64,
}

impl NodeCounters {
    /// Append the counters as consecutive `u64`s, in field order — the
    /// one place the order is written down for encoding (snapshot
    /// sessions and the query protocol's health block both use it).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.batches,
            self.duplicate_batches,
            self.gaps,
            self.missing_batches,
            self.records,
            self.samples,
            self.rejected_samples,
            self.chunks,
            self.corrupt_chunks,
            self.buckets,
            self.sketch_entries,
            self.orphan_sketches,
            self.unmapped_records,
        ] {
            put_u64(out, v);
        }
    }

    /// Read counters written by [`NodeCounters::encode`]. Trailing
    /// bytes are the caller's to judge: a snapshot has more sections
    /// after them, a newer query server may have appended counters.
    pub(crate) fn decode(r: &mut WireReader<'_>) -> io::Result<Self> {
        Ok(NodeCounters {
            batches: r.u64()?,
            duplicate_batches: r.u64()?,
            gaps: r.u64()?,
            missing_batches: r.u64()?,
            records: r.u64()?,
            samples: r.u64()?,
            rejected_samples: r.u64()?,
            chunks: r.u64()?,
            corrupt_chunks: r.u64()?,
            buckets: r.u64()?,
            sketch_entries: r.u64()?,
            orphan_sketches: r.u64()?,
            unmapped_records: r.u64()?,
        })
    }
}

/// Per record kind, what a node's last drain report says its exporter
/// shipped minus what its session applied or counted as refused
/// ([`NodeHealth::ledger`]). Above zero: shipped and never accounted for
/// — lost between exporter and fleet, or still in flight. Below zero:
/// the session holds more than the report covers (a report not sent
/// yet, or a restarted exporter's, whose totals start again from zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Batches − applied (a duplicate re-delivers an applied one).
    pub batches: i64,
    /// Records − applied, corrupt, orphan and unmapped.
    pub records: i64,
    /// Raw samples − accepted and rejected.
    pub samples: i64,
    /// Chunk records − applied and corrupt.
    pub chunks: i64,
    /// Sealed buckets − applied.
    pub buckets: i64,
    /// Sketch columns − applied and orphan.
    pub sketch_entries: i64,
}

/// What one [`FleetAggregator::ingest`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// The batch was applied (false: a duplicate, `seq` below the
    /// cursor, or a batch the wire refuses).
    pub applied: bool,
    /// Batches skipped between the cursor and this batch's `seq`.
    pub gap: u64,
    /// Records applied from this batch.
    pub records: u64,
}

/// Liveness classification of one node, by drain lag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeLiveness {
    /// Lag within the staleness bound.
    Live,
    /// Data is older than the staleness bound.
    Stale,
    /// The session has never ingested any data.
    Silent,
}

/// Point-in-time health of one node's ingest session.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeHealth {
    /// The node.
    pub node: NodeId,
    /// Its registered name.
    pub name: String,
    /// Wire counters so far.
    pub counters: NodeCounters,
    /// Newest data timestamp ingested (sample time or bucket end);
    /// `SimTime::ZERO` when silent.
    pub high_water: SimTime,
    /// `now − high_water`: how far the node's ingested view lags the
    /// reference clock (full window when silent).
    pub drain_lag: SimDuration,
    /// Classification of that lag.
    pub liveness: NodeLiveness,
    /// Node-side exporter totals last reported out-of-band
    /// ([`FleetAggregator::report_drain`]); zero when never reported.
    /// Its `missed_*` counts are telemetry the wire never carried.
    pub drain: DrainStats,
}

impl NodeHealth {
    /// This node's [`Ledger`] — the same from a remote `Health` answer:
    /// the one place the identity between the two ends is written down.
    pub fn ledger(&self) -> Ledger {
        let (drain, c) = (&self.drain, &self.counters);
        let d = |shipped: u64, accounted: u64| shipped as i64 - accounted as i64;
        let refused = c.corrupt_chunks + c.orphan_sketches + c.unmapped_records;
        Ledger {
            batches: d(drain.batches, c.batches),
            records: d(drain.records, c.records + refused),
            samples: d(drain.samples, c.samples + c.rejected_samples),
            chunks: d(drain.chunks, c.chunks + c.corrupt_chunks),
            buckets: d(drain.buckets, c.buckets),
            sketch_entries: d(drain.sketch_entries, c.sketch_entries + c.orphan_sketches),
        }
    }
}

/// Liveness-classification policy for [`FleetAggregator::health_with`]
/// and [`FleetAggregator::track_health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Drain lag beyond which an ingesting node is [`NodeLiveness::Stale`].
    pub stale_after: SimDuration,
    /// Drain lag beyond which even a previously-ingesting node is
    /// demoted to [`NodeLiveness::Silent`] — the "gone dark" bound that
    /// lets a node walk the full live→stale→silent ladder (and climb
    /// back when its stream resumes). `None` keeps the original
    /// semantics: silent means *never* ingested.
    pub silent_after: Option<SimDuration>,
}

impl HealthPolicy {
    /// Staleness-only policy (the [`FleetAggregator::health`] behaviour).
    pub fn stale_only(stale_after: SimDuration) -> Self {
        HealthPolicy {
            stale_after,
            silent_after: None,
        }
    }
}

/// One observed liveness change of one node
/// ([`FleetAggregator::track_health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// Reference clock at which the change was observed.
    pub t: SimTime,
    /// The node.
    pub node: NodeId,
    /// Classification before.
    pub from: NodeLiveness,
    /// Classification after.
    pub to: NodeLiveness,
}

/// Fleet-level health rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHealth {
    /// Per-node health, node order.
    pub nodes: Vec<NodeHealth>,
    /// Nodes classified [`NodeLiveness::Live`].
    pub live: usize,
    /// Nodes classified [`NodeLiveness::Stale`].
    pub stale: usize,
    /// Nodes classified [`NodeLiveness::Silent`].
    pub silent: usize,
    /// Newest data timestamp ingested across the fleet.
    pub observed_now: SimTime,
}

/// One node's ingest session state. Crate-visible so `persist` can
/// snapshot and restore sessions field-for-field.
#[derive(Debug)]
pub(crate) struct NodeSession {
    pub(crate) name: String,
    pub(crate) next_seq: u64,
    /// Node-local wire id → fleet metric id.
    pub(crate) wire_map: Vec<Option<MetricId>>,
    pub(crate) counters: NodeCounters,
    pub(crate) high_water: SimTime,
    pub(crate) ever_ingested: bool,
    pub(crate) drain: DrainStats,
    /// The stream's values as its `samples_delta` records are coded
    /// against: reset by [`FleetAggregator::restart_stream`].
    pub(crate) values: ValueState,
}

/// The fleet aggregation tier: a [`FleetStore`] fed by per-node wire
/// ingest sessions. See the crate docs for the end-to-end shape and
/// `tests/props.rs` for the merge-algebra guarantees.
#[derive(Debug, Default)]
pub struct FleetAggregator {
    store: FleetStore,
    sessions: Vec<NodeSession>,
    /// Last classification seen by [`FleetAggregator::track_health`],
    /// per node. Monitoring state, not persisted: a recovered
    /// aggregator re-baselines on its first tracked health pass.
    last_liveness: Vec<Option<NodeLiveness>>,
    /// Bounded ring of observed transitions, oldest first.
    health_events: std::collections::VecDeque<HealthTransition>,
    /// Records of a kind this reader does not know, length-skipped by
    /// the batch decoder ([`FleetAggregator::unknown_records`]).
    unknown_records: u64,
    /// Self-telemetry handle (disabled by default).
    obs: Obs,
    /// `fleet.ingest_ns` — wall time of one batch's apply loop, whichever
    /// door it came by; resolved against `obs` by
    /// [`FleetAggregator::set_obs`].
    ingest_ns: LatencyRecorder,
    /// The sketch column of the `bucket_run` bucket being applied:
    /// kept, so that a warm ingest grows nothing.
    column: Vec<SketchEntry>,
    /// What [`FleetAggregator::walk_chunks`] found of the batch about
    /// to be applied, one entry per `chunk` record in wire order: kept,
    /// like `column`.
    walks: Vec<Payload>,
    /// The bytes [`FleetAggregator::ingest`] encodes an owned batch
    /// into, and the value state it codes and reads them against: kept,
    /// like `column`.
    encoded: Vec<u8>,
    owned_values: ValueState,
}

/// How the apply loop learns what a `chunk` record's payload is.
#[derive(Debug, Clone, Copy)]
enum Chunks {
    /// Each is walked as it is applied.
    Unread,
    /// [`FleetAggregator::walk_chunks`] walked them, before the batch
    /// was logged.
    Walked,
    /// Each walked clean before it was logged (a tag-36 entry at
    /// replay).
    Vouched,
}

/// Retained [`HealthTransition`] events per aggregator — enough for any
/// scenario-length run; long-running services drain them via
/// [`FleetAggregator::take_health_events`].
const HEALTH_EVENT_CAPACITY: usize = 1024;

impl FleetAggregator {
    /// Aggregator with default store sizing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregator over a custom-sized store (e.g. bounded raw rings for
    /// high-cardinality fleets).
    pub fn with_store(store: FleetStore) -> Self {
        FleetAggregator {
            store,
            ..FleetAggregator::default()
        }
    }

    /// Open an ingest session for one node exporter stream. One session
    /// consumes **one** logical stream: if a node's exporter restarts
    /// from scratch (its `seq` resets to 0), open a fresh session via
    /// [`FleetAggregator::reset_session`] — metric mappings and store
    /// data persist; only the batch cursor resets.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.sessions.len() as u32);
        self.sessions.push(NodeSession {
            name: name.to_string(),
            next_seq: 0,
            wire_map: Vec::new(),
            counters: NodeCounters::default(),
            high_water: SimTime::ZERO,
            ever_ingested: false,
            drain: DrainStats::default(),
            values: ValueState::new(),
        });
        id
    }

    /// Registered nodes.
    pub fn node_count(&self) -> usize {
        self.sessions.len()
    }

    /// Name a node was registered under.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.sessions[node.index()].name
    }

    /// The cluster store (all queries live there).
    pub fn store(&self) -> &FleetStore {
        &self.store
    }

    /// Attach a self-telemetry handle. Resolves the `fleet.ingest_ns`
    /// span once, up front (inert when `obs` is disabled). The ingest
    /// counts are the sessions' own and count regardless.
    pub fn set_obs(&mut self, obs: Obs) {
        self.ingest_ns = obs.latency("fleet.ingest_ns");
        self.obs = obs;
    }

    /// The attached self-telemetry handle (disabled unless
    /// [`FleetAggregator::set_obs`] was called).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Records skipped for a kind this reader does not know, by
    /// [`FleetAggregator::ingest_view`] — in listener sessions and in log
    /// replay alike. A newer writer's additive kinds may carry *data*
    /// (the packed `samples` kind does), so non-zero means observations
    /// were dropped here: upgrade this tier. Counted since this
    /// aggregator was built; the snapshot image does not carry it, so a
    /// recovered one counts from its replayed log tail on.
    pub fn unknown_records(&self) -> u64 {
        self.unknown_records
    }

    /// Session list, for snapshot/restore.
    pub(crate) fn sessions(&self) -> &[NodeSession] {
        &self.sessions
    }

    /// Mutable session list, for snapshot restore.
    pub(crate) fn sessions_mut(&mut self) -> &mut Vec<NodeSession> {
        &mut self.sessions
    }

    /// Next batch `seq` this node's session expects — the cursor a
    /// reconnecting exporter resumes from (see `transport`).
    pub fn next_seq(&self, node: NodeId) -> u64 {
        self.sessions[node.index()].next_seq
    }

    /// Look up a node session by its registered name (the transport
    /// hello carries the name, not the id).
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.sessions
            .iter()
            .position(|s| s.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// Reset a node's batch cursor to 0 — the "node exporter restarted
    /// with a fresh stream" handshake. Store data and metric mappings
    /// persist; the restarted exporter's re-shipped retained tail
    /// deduplicates via the monotonic sample guard and bucket
    /// overwrite-by-key.
    pub fn reset_session(&mut self, node: NodeId) {
        self.sessions[node.index()].next_seq = 0;
    }

    /// A new connection carries `node`'s stream from here: the value
    /// state its `samples_delta` records are coded against starts empty
    /// again. The batch cursor, mappings and data stay.
    pub fn restart_stream(&mut self, node: NodeId) {
        self.sessions[node.index()].values.reset();
    }

    /// The value state of `node`'s stream: what its next `samples_delta`
    /// record is coded against.
    pub fn stream_values(&self, node: NodeId) -> &ValueState {
        &self.sessions[node.index()].values
    }

    /// [`FleetAggregator::stream_values`], for a test that sets the
    /// stream's state by hand.
    #[cfg(test)]
    pub(crate) fn stream_values_mut(&mut self, node: NodeId) -> &mut ValueState {
        &mut self.sessions[node.index()].values
    }

    /// Wire counters of one node.
    pub fn counters(&self, node: NodeId) -> NodeCounters {
        self.sessions[node.index()].counters
    }

    /// Node-side exporter totals last reported for `node`.
    pub fn drain_stats(&self, node: NodeId) -> DrainStats {
        self.sessions[node.index()].drain
    }

    /// Take a node exporter's lifetime totals (`Exporter::totals`) as
    /// the node's drain report, out-of-band: the wire itself does not
    /// carry drain accounting. A report replaces the one before, so a
    /// report delivered twice counts once. Only its counts are kept
    /// ([`DrainStats::counts`]): no wall clock reaches the fleet's state.
    pub fn report_drain(&mut self, node: NodeId, stats: &DrainStats) {
        self.sessions[node.index()].drain = stats.counts();
    }

    /// Ingest one batch of `node`'s stream handed over in process: its
    /// bytes as a 1.6 writer opening a connection sends it
    /// (`encode_batch_with` against an empty value state), taken by
    /// [`FleetAggregator::ingest_view`] against an empty state in place
    /// of the stream's — so it moves no stream value state, and meets
    /// the rules a received batch meets. A batch holding a record the
    /// wire refuses, or a `meta` whose name or unit it cannot carry, is
    /// refused whole and changes nothing: the report reads `applied:
    /// false`. Returns what happened; all counters accumulate on the
    /// session.
    pub fn ingest(&mut self, node: NodeId, batch: &ExportBatch) -> IngestReport {
        if check_strings(batch).is_err() {
            return IngestReport::default();
        }
        let mut bytes = std::mem::take(&mut self.encoded);
        let mut values = std::mem::take(&mut self.owned_values);
        bytes.clear();
        values.reset();
        encode_batch_with(batch, &mut values, &mut bytes);
        values.reset();
        std::mem::swap(&mut self.sessions[node.index()].values, &mut values);
        let report = BatchView::parse(&bytes, BatchHeader::Varint)
            .and_then(|view| self.ingest_view(node, &view))
            .unwrap_or_default();
        std::mem::swap(&mut self.sessions[node.index()].values, &mut values);
        (self.encoded, self.owned_values) = (bytes, values);
        report
    }

    /// [`FleetAggregator::ingest`] straight off a received batch's
    /// bytes: no owned record is built between the socket (or the log,
    /// at replay) and the store. Records of a kind this reader does not
    /// know are counted in [`FleetAggregator::unknown_records`]. A batch
    /// holding a delta that `node`'s stream state cannot read is
    /// `InvalidData` and changes nothing.
    pub fn ingest_view(&mut self, node: NodeId, view: &BatchView<'_>) -> io::Result<IngestReport> {
        self.check_view(node, view)?;
        Ok(self.apply(node, view, Chunks::Unread))
    }

    /// Whether every value of `view` can be read against `node`'s stream
    /// state ([`BatchView::check_values`]); changes nothing.
    pub(crate) fn check_view(&mut self, node: NodeId, view: &BatchView<'_>) -> io::Result<()> {
        view.check_values(&mut self.sessions[node.index()].values)
    }

    /// [`FleetAggregator::ingest_view`] of a view whose `chunk` records
    /// all walked clean before it was logged — a log entry of tag 36 at
    /// replay: each one the ring can link is linked on its header, and
    /// [`FleetAggregator::settle`] walks those the rings still hold once
    /// the log has ended.
    pub(crate) fn ingest_vouched(
        &mut self,
        node: NodeId,
        view: &BatchView<'_>,
    ) -> io::Result<IngestReport> {
        self.check_view(node, view)?;
        Ok(self.apply(node, view, Chunks::Vouched))
    }

    /// Walk `view`'s `chunk` records ahead of the append, for
    /// [`FleetAggregator::apply_view`] to link on what was found: a
    /// received batch is walked once, and its log entry can say whether
    /// its chunks walked clean. A batch with no `chunk` record, or one
    /// the session will take as a duplicate (whose records are not
    /// applied), is not walked; nor is a record too short to be linked,
    /// which is decoded, and checked, as it is applied. Returns whether
    /// the walk ran and every record it walked walked clean.
    pub(crate) fn walk_chunks(&mut self, node: NodeId, view: &BatchView<'_>) -> bool {
        self.walks.clear();
        if view.chunk_records() == 0 || view.seq() < self.sessions[node.index()].next_seq {
            return false;
        }
        for r in view.records() {
            if let RecordRef::Chunk {
                first_t,
                last_t,
                count,
                bytes,
                ..
            } = r
            {
                self.walks
                    .push(FleetStore::prewalk(first_t, last_t, count, bytes));
            }
        }
        !self.walks.contains(&Payload::Walked(None))
    }

    /// [`FleetAggregator::ingest_view`] of a view
    /// [`FleetAggregator::check_view`] has passed and
    /// [`FleetAggregator::walk_chunks`] has walked.
    pub(crate) fn apply_view(&mut self, node: NodeId, view: &BatchView<'_>) -> IngestReport {
        self.apply(node, view, Chunks::Walked)
    }

    /// Walk the chunks [`FleetAggregator::ingest_vouched`] linked
    /// unwalked that the rings still hold (see [`FleetStore::settle`]).
    pub(crate) fn settle(&mut self) -> io::Result<()> {
        self.store.settle()
    }

    /// The one record-apply loop, over a checked view: the batch
    /// cursor, then every record under the consumption rules in the
    /// module docs, counting the records it skips as unknown.
    fn apply(&mut self, node: NodeId, view: &BatchView<'_>, chunks: Chunks) -> IngestReport {
        let _span = self.ingest_ns.start();
        self.unknown_records += view.unknown_records();
        let seq = view.seq();
        let session = &mut self.sessions[node.index()];
        let mut report = IngestReport::default();
        if seq < session.next_seq {
            session.counters.duplicate_batches += 1;
            // Not applied — but its values are the stream's, and the
            // batch after it is coded against them.
            for r in view.records() {
                if let RecordRef::SamplesDelta(run) = r {
                    run.values(&mut session.values).for_each(drop);
                }
            }
            return report;
        }
        if seq > session.next_seq {
            report.gap = seq - session.next_seq;
            session.counters.gaps += 1;
            session.counters.missing_batches += report.gap;
        }
        session.next_seq = seq + 1;
        session.counters.batches += 1;
        report.applied = true;

        // The follows-its-bucket framing cursor: the key of the bucket
        // whose columns may legally arrive next. Cleared by any
        // non-tier record and at batch end (columns never split across
        // batches).
        let mut open_bucket: Option<(MetricId, u64, u64)> = None;
        let mut walks = self.walks.iter();
        for r in view.records() {
            match r {
                RecordRef::Meta { id, meta } => {
                    open_bucket = None;
                    let widx = id.index();
                    if session.wire_map.len() <= widx {
                        session.wire_map.resize(widx + 1, None);
                    }
                    let fleet_id = self.store.register(node, &session.name, &meta.to_meta());
                    session.wire_map[widx] = Some(fleet_id);
                    session.counters.records += 1;
                    report.records += 1;
                }
                RecordRef::Sample { id, t, value } => {
                    open_bucket = None;
                    report.records += push_sample(&mut self.store, session, id, t, value);
                }
                RecordRef::Samples(run) => {
                    // An empty run is no record at all: it leaves the
                    // framing cursor where it was.
                    for (id, t, value) in run {
                        open_bucket = None;
                        report.records += push_sample(&mut self.store, session, id, t, value);
                    }
                }
                RecordRef::SamplesDelta(run) => {
                    // Out of the session while the run reads it, so the
                    // session can take the samples meanwhile.
                    let mut values = std::mem::take(&mut session.values);
                    for (id, t, value) in run.values(&mut values) {
                        open_bucket = None;
                        report.records += push_sample(&mut self.store, session, id, t, value);
                    }
                    session.values = values;
                }
                RecordRef::Chunk {
                    id,
                    count,
                    first_t,
                    last_t,
                    bytes,
                } => {
                    open_bucket = None;
                    let payload = match chunks {
                        Chunks::Unread => Payload::Unread,
                        Chunks::Walked => *walks.next().expect("a walk per chunk record"),
                        Chunks::Vouched => Payload::Vouched,
                    };
                    let Some(fleet_id) = session.wire_map.get(id.index()).copied().flatten() else {
                        session.counters.unmapped_records += 1;
                        continue;
                    };
                    let ChunkOutcome::Applied { accepted, rejected } = self
                        .store
                        .take_chunk(fleet_id, first_t, last_t, count, bytes, payload)
                    else {
                        // Corrupt record: dropped whole, counted, and
                        // not treated as ingested data — its header is
                        // as untrusted as its payload.
                        session.counters.corrupt_chunks += 1;
                        continue;
                    };
                    session.counters.chunks += 1;
                    session.counters.samples += accepted;
                    session.counters.rejected_samples += rejected;
                    session.counters.records += 1;
                    report.records += 1;
                    session.high_water = session.high_water.max(last_t);
                    session.ever_ingested = true;
                }
                RecordRef::Bucket {
                    id,
                    res,
                    start,
                    count,
                    sum,
                    min,
                    max,
                    last,
                } => {
                    let Some(fleet_id) = session.wire_map.get(id.index()).copied().flatten() else {
                        open_bucket = None;
                        session.counters.unmapped_records += 1;
                        continue;
                    };
                    self.store
                        .apply_bucket(fleet_id, res, start, count, sum, min, max, last);
                    open_bucket = Some((fleet_id, res.0, start.0));
                    session.counters.buckets += 1;
                    session.counters.records += 1;
                    report.records += 1;
                    session.high_water = session
                        .high_water
                        .max(SimTime(start.0.saturating_add(res.0)));
                    session.ever_ingested = true;
                }
                RecordRef::BucketRun(mut run) => {
                    // As kinds 2 and 3 would have been applied, each
                    // bucket with its column against one slot lookup.
                    // An empty run is no record at all.
                    if run.is_empty() {
                        continue;
                    }
                    let res = run.res();
                    let fleet_id = session.wire_map.get(run.id().index()).copied().flatten();
                    open_bucket = None;
                    while let Some(b) = run.next_bucket(&mut self.column) {
                        let columns = self.column.len() as u64;
                        let Some(fleet_id) = fleet_id else {
                            session.counters.unmapped_records += 1 + columns;
                            continue;
                        };
                        let start = b.start;
                        self.store.restore_bucket(
                            fleet_id,
                            res,
                            start,
                            b.count,
                            b.sum,
                            b.min,
                            b.max,
                            b.last,
                            &self.column,
                        );
                        open_bucket = Some((fleet_id, res.0, start.0));
                        session.counters.buckets += 1;
                        session.counters.sketch_entries += columns;
                        session.counters.records += 1 + columns;
                        report.records += 1 + columns;
                        session.high_water = session
                            .high_water
                            .max(SimTime(start.0.saturating_add(res.0)));
                        session.ever_ingested = true;
                    }
                }
                RecordRef::Sketch {
                    id,
                    res,
                    start,
                    entry,
                } => {
                    let Some(fleet_id) = session.wire_map.get(id.index()).copied().flatten() else {
                        session.counters.unmapped_records += 1;
                        continue;
                    };
                    if open_bucket != Some((fleet_id, res.0, start.0)) {
                        session.counters.orphan_sketches += 1;
                        continue;
                    }
                    self.store.apply_sketch(fleet_id, res, start, entry);
                    session.counters.sketch_entries += 1;
                    session.counters.records += 1;
                    report.records += 1;
                }
            }
        }
        report
    }

    /// Newest data timestamp ingested across all nodes.
    pub fn observed_now(&self) -> SimTime {
        self.sessions
            .iter()
            .map(|s| s.high_water)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Classify every node's drain lag against `now` (pass the
    /// harness/simulation clock, or [`FleetAggregator::observed_now`]
    /// to measure lag behind the most-live node): lag within
    /// `stale_after` is [`NodeLiveness::Live`], beyond it
    /// [`NodeLiveness::Stale`]; sessions that never ingested data are
    /// [`NodeLiveness::Silent`].
    pub fn health(&self, now: SimTime, stale_after: SimDuration) -> FleetHealth {
        self.health_with(now, HealthPolicy::stale_only(stale_after))
    }

    /// [`FleetAggregator::health`] under an explicit [`HealthPolicy`]:
    /// with a `silent_after` bound, a node whose lag crosses it is
    /// demoted all the way to [`NodeLiveness::Silent`] even though it
    /// ingested in the past — the full live→stale→silent ladder.
    pub fn health_with(&self, now: SimTime, policy: HealthPolicy) -> FleetHealth {
        let mut nodes = Vec::with_capacity(self.sessions.len());
        let (mut live, mut stale, mut silent) = (0, 0, 0);
        for (i, s) in self.sessions.iter().enumerate() {
            let drain_lag = now.saturating_since(s.high_water);
            let liveness = classify(s, drain_lag, policy);
            match liveness {
                NodeLiveness::Live => live += 1,
                NodeLiveness::Stale => stale += 1,
                NodeLiveness::Silent => silent += 1,
            }
            nodes.push(NodeHealth {
                node: NodeId(i as u32),
                name: s.name.clone(),
                counters: s.counters,
                high_water: s.high_water,
                drain_lag,
                liveness,
                drain: s.drain,
            });
        }
        FleetHealth {
            nodes,
            live,
            stale,
            silent,
            observed_now: self.observed_now(),
        }
    }

    /// Every node's [`NodeLiveness`] at `now` under `policy`, node
    /// order: what [`FleetAggregator::health_with`] classifies, without
    /// building the report around it.
    pub(crate) fn liveness(
        &self,
        now: SimTime,
        policy: HealthPolicy,
    ) -> impl Iterator<Item = NodeLiveness> + '_ {
        self.sessions
            .iter()
            .map(move |s| classify(s, now.saturating_since(s.high_water), policy))
    }

    /// [`FleetAggregator::health_with`] plus **transition tracking**:
    /// every node whose classification changed since the previous
    /// tracked pass emits a [`HealthTransition`] event — so
    /// live→stale→silent walks (and recoveries) surface as an event
    /// feed instead of being observable only by diffing polls. The
    /// first tracked pass baselines without emitting.
    pub fn track_health(&mut self, now: SimTime, policy: HealthPolicy) -> FleetHealth {
        let h = self.health_with(now, policy);
        if self.last_liveness.len() < h.nodes.len() {
            self.last_liveness.resize(h.nodes.len(), None);
        }
        for n in &h.nodes {
            let slot = &mut self.last_liveness[n.node.index()];
            match *slot {
                Some(prev) if prev != n.liveness => {
                    if self.health_events.len() == HEALTH_EVENT_CAPACITY {
                        self.health_events.pop_front();
                    }
                    self.health_events.push_back(HealthTransition {
                        t: now,
                        node: n.node,
                        from: prev,
                        to: n.liveness,
                    });
                }
                _ => {}
            }
            *slot = Some(n.liveness);
        }
        h
    }

    /// Retained transition events, oldest first.
    pub fn health_events(&self) -> impl Iterator<Item = &HealthTransition> {
        self.health_events.iter()
    }

    /// Drain the retained transition events, so the next pass does not
    /// report them again.
    pub fn take_health_events(&mut self) -> Vec<HealthTransition> {
        self.health_events.drain(..).collect()
    }
}

/// Apply one raw observation under the registry-mapping and
/// monotonic-sample rules; returns the records applied (0 or 1).
#[inline]
fn push_sample(
    store: &mut FleetStore,
    session: &mut NodeSession,
    id: MetricId,
    t: SimTime,
    value: f64,
) -> u64 {
    let Some(fleet_id) = session.wire_map.get(id.index()).copied().flatten() else {
        session.counters.unmapped_records += 1;
        return 0;
    };
    if store.push_sample(fleet_id, t, value) {
        session.counters.samples += 1;
    } else {
        session.counters.rejected_samples += 1;
    }
    session.counters.records += 1;
    session.high_water = session.high_water.max(t);
    session.ever_ingested = true;
    1
}

/// Whether the wire carries every name and unit of `batch`'s `meta`
/// records ([`MetricMeta::check_wire_limit`]), as `InvalidData` if not:
/// the encoder asserts it does, so a batch handed over in process is
/// checked before it is encoded.
///
/// [`MetricMeta::check_wire_limit`]: moda_telemetry::MetricMeta::check_wire_limit
pub(crate) fn check_strings(batch: &ExportBatch) -> io::Result<()> {
    for r in &batch.records {
        if let ExportRecord::Meta { meta, .. } = r {
            meta.check_wire_limit()
                .map_err(|e| bad_data(&e.to_string()))?;
        }
    }
    Ok(())
}

/// Apply a [`HealthPolicy`] to one session's drain lag.
fn classify(s: &NodeSession, drain_lag: SimDuration, policy: HealthPolicy) -> NodeLiveness {
    if !s.ever_ingested {
        return NodeLiveness::Silent;
    }
    if let Some(silent_after) = policy.silent_after {
        if drain_lag.0 > silent_after.0 {
            return NodeLiveness::Silent;
        }
    }
    if drain_lag.0 <= policy.stale_after.0 {
        NodeLiveness::Live
    } else {
        NodeLiveness::Stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moda_telemetry::export::{ExportRecord, MemorySink};
    use moda_telemetry::{
        Exporter, MetricMeta, QuantileSketch, RollupConfig, RollupTier, SourceDomain, Tsdb,
        WindowAgg,
    };

    /// One node store with a tiny sketched pyramid and `n` 1 Hz samples.
    fn node_db(n: u64, offset: f64) -> Tsdb {
        let mut db = Tsdb::with_retention(1 << 12);
        let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
        db.enable_rollups(
            id,
            &RollupConfig::new(vec![
                RollupTier::new(SimDuration::from_secs(10), 256),
                RollupTier::new(SimDuration::from_secs(60), 64),
            ])
            .with_sketches(),
        );
        for s in 0..n {
            db.insert(id, SimTime::from_secs(s), offset + (s % 20) as f64);
        }
        db
    }

    fn batches_of(db: &Tsdb, batch_records: usize) -> Vec<ExportBatch> {
        let mut sink = MemorySink::new();
        Exporter::new()
            .with_batch_records(batch_records)
            .drain(db, &mut sink)
            .unwrap();
        sink.batches
    }

    #[test]
    fn ingest_maps_metrics_and_tracks_high_water() {
        let mut agg = FleetAggregator::new();
        let n0 = agg.add_node("node00");
        let n1 = agg.add_node("node01");
        let db0 = node_db(300, 0.0);
        let db1 = node_db(200, 100.0);
        for b in batches_of(&db0, 64) {
            let r = agg.ingest(n0, &b);
            assert!(r.applied && r.gap == 0);
        }
        for b in batches_of(&db1, 64) {
            agg.ingest(n1, &b);
        }
        let store = agg.store();
        assert_eq!(store.cardinality(), 2);
        assert!(store.lookup("node00/m").is_some());
        assert_eq!(store.logical_members("m").len(), 2);
        let c0 = agg.counters(n0);
        assert_eq!(c0.samples, 300);
        assert_eq!(c0.orphan_sketches, 0);
        assert_eq!(c0.unmapped_records, 0);
        assert!(c0.buckets > 0 && c0.sketch_entries > 0);
        // High water = newest sample beats the last sealed bucket end.
        assert_eq!(agg.observed_now(), SimTime::from_secs(299));
        // Fleet query spans both nodes.
        let mean = store
            .fleet_window_agg(
                "m",
                SimTime::from_secs(299),
                SimDuration::from_secs(100),
                WindowAgg::Count,
            )
            .unwrap();
        assert_eq!(mean, 100.0, "only node00 has data in the last 100 s");
    }

    #[test]
    fn compressed_chunks_ingest_natively_and_reships_deduplicate() {
        let mut agg = FleetAggregator::new();
        let n = agg.add_node("node00");
        // 1500 one-Hz samples: two sealed 512-sample chunks plus a
        // 476-sample tail on the node store.
        let db = node_db(1500, 0.0);
        for b in batches_of(&db, 256) {
            agg.ingest(n, &b);
        }
        let c = agg.counters(n);
        assert_eq!(c.chunks, 2, "sealed regions ship as chunk records");
        assert_eq!(c.samples, 1500, "chunk-decoded + per-sample tail");
        assert_eq!(c.rejected_samples, 0);
        assert_eq!(c.corrupt_chunks, 0);
        assert_eq!(agg.observed_now(), SimTime::from_secs(1499));
        // The decoded samples are bit-identical to the node's.
        let id = agg.store().lookup("node00/m").unwrap();
        let got = agg.store().raw(id).last_n_view(1500).to_vec();
        assert_eq!(got.len(), 1500);
        for (i, s) in got.iter().enumerate() {
            assert_eq!(s.t, SimTime::from_secs(i as u64));
            assert_eq!(s.value.to_bits(), ((i % 20) as f64).to_bits());
        }
        // A restarted exporter re-ships the retained tail from scratch:
        // the overlapping chunks fall back to per-sample pushes and the
        // monotonic guard rejects every already-seen sample.
        agg.reset_session(n);
        for b in batches_of(&db, 256) {
            agg.ingest(n, &b);
        }
        let c = agg.counters(n);
        assert_eq!(c.samples, 1500 + 1, "only the newest sample re-lands");
        assert_eq!(c.rejected_samples, 1499);
        assert_eq!(agg.store().raw(id).len(), 1501);
        // A corrupted chunk payload is dropped whole and counted.
        let bad = ExportBatch {
            seq: agg.counters(n).batches,
            records: vec![ExportRecord::Chunk {
                id: MetricId(0),
                count: 100,
                first_t: SimTime::from_secs(2000),
                last_t: SimTime::from_secs(2099),
                bytes: vec![0xFF, 0x00, 0x12],
            }],
        };
        agg.ingest(n, &bad);
        assert_eq!(agg.counters(n).corrupt_chunks, 1);
        assert_eq!(agg.store().raw(id).len(), 1501, "store untouched");
    }

    /// A session with metric 0 mapped, and a chunk record of `n` 1 Hz
    /// samples starting at second `start`.
    fn mapped_session(agg: &mut FleetAggregator, name: &str) -> NodeId {
        let node = agg.add_node(name);
        agg.ingest(
            node,
            &ExportBatch {
                seq: 0,
                records: vec![ExportRecord::Meta {
                    id: MetricId(0),
                    meta: MetricMeta::gauge("m", "u", SourceDomain::Hardware),
                }],
            },
        );
        node
    }

    fn chunk_record(start: u64, n: u64) -> ExportRecord {
        let ts: Vec<u64> = (start..start + n).map(|s| s * 1000).collect();
        let vals: Vec<f64> = (0..n).map(|i| 200.0 + (i % 9) as f64).collect();
        ExportRecord::chunk(MetricId(0), &moda_telemetry::chunk::compress(&ts, &vals, 0))
    }

    #[test]
    fn a_lying_chunk_header_is_corrupt_and_cannot_move_the_high_water_mark() {
        let mut agg = FleetAggregator::new();
        let honest = mapped_session(&mut agg, "honest");
        let liar = mapped_session(&mut agg, "liar");
        for node in [honest, liar] {
            let batch = ExportBatch {
                seq: 1,
                records: vec![chunk_record(0, 100)],
            };
            agg.ingest(node, &batch);
        }
        // A well-formed payload under a header claiming the end of time.
        let mut lie = chunk_record(100, 100);
        if let ExportRecord::Chunk { last_t, .. } = &mut lie {
            *last_t = SimTime(u64::MAX);
        }
        agg.ingest(
            liar,
            &ExportBatch {
                seq: 2,
                records: vec![lie],
            },
        );
        assert_eq!(agg.counters(liar).corrupt_chunks, 1);
        assert_eq!(agg.counters(liar).samples, 100, "dropped whole");
        assert_eq!(agg.observed_now(), SimTime::from_secs(99));
        let h = agg.health(agg.observed_now(), SimDuration::from_secs(60));
        assert_eq!((h.live, h.stale), (2, 0), "nobody was dragged stale");
    }

    #[test]
    fn a_mangled_stream_counts_each_corrupt_chunk_once() {
        let mut agg = FleetAggregator::new();
        let n = mapped_session(&mut agg, "node00");
        let mangle = |record: ExportRecord, f: &dyn Fn(&mut u32, &mut Vec<u8>)| {
            let ExportRecord::Chunk {
                id,
                mut count,
                first_t,
                last_t,
                mut bytes,
            } = record
            else {
                unreachable!()
            };
            f(&mut count, &mut bytes);
            ExportRecord::Chunk {
                id,
                count,
                first_t,
                last_t,
                bytes,
            }
        };
        let records = vec![
            chunk_record(0, 200),
            // No encoder emits an empty chunk: corrupt, not "applied
            // nothing".
            mangle(chunk_record(200, 100), &|count, _| *count = 0),
            mangle(chunk_record(200, 100), &|_, bytes| bytes.truncate(40)),
            mangle(chunk_record(200, 100), &|count, _| *count += 1),
            // One sample short still decodes, but ends before the
            // header's `last_t`.
            mangle(chunk_record(200, 100), &|count, _| *count -= 1),
            // Trailing bytes past the last sample are ignored.
            mangle(chunk_record(200, 100), &|_, bytes| bytes.extend([0xEE; 5])),
        ];
        let mut corrupt = 0;
        for (i, record) in records.into_iter().enumerate() {
            let before = agg.counters(n).corrupt_chunks;
            agg.ingest(
                n,
                &ExportBatch {
                    seq: 1 + i as u64,
                    records: vec![record],
                },
            );
            corrupt += agg.counters(n).corrupt_chunks - before;
        }
        assert_eq!(corrupt, 4);
        assert_eq!(agg.counters(n).chunks, 2);
        assert_eq!(agg.counters(n).samples, 300);
        let id = agg.store().lookup("node00/m").unwrap();
        assert_eq!(agg.store().raw(id).len(), 300);
        assert_eq!(agg.observed_now(), SimTime::from_secs(299));
    }

    #[test]
    fn duplicate_batches_are_rejected_whole_and_gaps_counted() {
        let mut agg = FleetAggregator::new();
        let n = agg.add_node("node00");
        let batches = batches_of(&node_db(100, 0.0), 32);
        assert!(batches.len() >= 3, "need several batches");
        for b in &batches {
            agg.ingest(n, b);
        }
        let samples_before = agg.counters(n).samples;
        // Replay of an already-covered batch: rejected, nothing applied.
        let r = agg.ingest(n, &batches[1]);
        assert!(!r.applied);
        assert_eq!(agg.counters(n).samples, samples_before);
        assert_eq!(agg.counters(n).duplicate_batches, 1);
        // A forward jump is accepted and the missing range counted.
        let jumped = ExportBatch {
            seq: batches.len() as u64 + 5,
            records: vec![],
        };
        let r = agg.ingest(n, &jumped);
        assert!(r.applied);
        assert_eq!(r.gap, 5);
        assert_eq!(agg.counters(n).gaps, 1);
        assert_eq!(agg.counters(n).missing_batches, 5);
        // After reset_session, a fresh stream restarting at 0 is legal.
        agg.reset_session(n);
        let r = agg.ingest(
            n,
            &ExportBatch {
                seq: 0,
                records: vec![],
            },
        );
        assert!(r.applied);

        // A batch that arrives after a later one is lost, and counted:
        // batch 2 opens a gap of one, late batch 1 bounces as a duplicate.
        let late = agg.add_node("node01");
        assert_eq!(agg.ingest(late, &batches[0]).gap, 0);
        assert_eq!(agg.ingest(late, &batches[2]).gap, 1);
        let r = agg.ingest(late, &batches[1]);
        assert!(!r.applied);
        let c = agg.counters(late);
        assert_eq!((c.gaps, c.missing_batches, c.duplicate_batches), (1, 1, 1));
        let carried = |b: &ExportBatch| -> u64 {
            b.records
                .iter()
                .map(|rec| match rec {
                    ExportRecord::Sample { .. } => 1,
                    ExportRecord::Chunk { count, .. } => u64::from(*count),
                    _ => 0,
                })
                .sum()
        };
        assert!(carried(&batches[1]) > 0, "the lost batch carries samples");
        assert_eq!(c.samples, carried(&batches[0]) + carried(&batches[2]));
    }

    /// A stream taken whole balances, a re-delivered batch and a report
    /// sent twice included; a stream that lost a batch owes exactly what
    /// that batch carried.
    #[test]
    fn the_ledger_balances_a_whole_stream_and_owes_a_lost_batch() {
        let mut sink = MemorySink::new();
        let mut exporter = Exporter::new().with_batch_records(64);
        exporter.drain(&node_db(300, 0.0), &mut sink).unwrap();
        let totals = exporter.totals();
        let mut agg = FleetAggregator::new();
        let whole = agg.add_node("whole");
        let lossy = agg.add_node("lossy");
        let lost = &sink.batches[2];
        for b in &sink.batches {
            agg.ingest(whole, b);
            if b.seq != lost.seq {
                agg.ingest(lossy, b);
            }
        }
        agg.ingest(whole, &sink.batches[0]);
        for node in [whole, lossy] {
            agg.report_drain(node, &totals);
            agg.report_drain(node, &totals);
        }
        assert_eq!(agg.drain_stats(whole), totals.counts());
        let h = agg.health(agg.observed_now(), SimDuration::from_secs(60));
        assert_eq!(h.nodes[whole.index()].ledger(), Ledger::default());
        let carried = |kind: fn(&ExportRecord) -> u64| -> i64 {
            lost.records.iter().map(kind).sum::<u64>() as i64
        };
        let owed = Ledger {
            batches: 1,
            records: lost.records.len() as i64,
            samples: carried(|r| match r {
                ExportRecord::Sample { .. } => 1,
                ExportRecord::Chunk { count, .. } => u64::from(*count),
                _ => 0,
            }),
            chunks: carried(|r| matches!(r, ExportRecord::Chunk { .. }) as u64),
            buckets: carried(|r| matches!(r, ExportRecord::Bucket { .. }) as u64),
            sketch_entries: carried(|r| matches!(r, ExportRecord::Sketch { .. }) as u64),
        };
        assert!(owed.records > 0, "{owed:?}");
        assert_eq!(h.nodes[lossy.index()].ledger(), owed);
    }

    #[test]
    fn orphan_and_unmapped_records_are_dropped_and_counted() {
        let mut agg = FleetAggregator::new();
        let n = agg.add_node("node00");
        let entry = QuantileSketch::new().wire_entries().next();
        assert!(entry.is_none());
        let mut sk = QuantileSketch::new();
        sk.fold(5.0);
        let entry = sk.wire_entries().next().unwrap();
        // Sample before its meta → unmapped; sketch with no preceding
        // bucket → orphan (after the meta maps the id).
        let meta = MetricMeta::gauge("m", "u", SourceDomain::Hardware);
        let batch = ExportBatch {
            seq: 0,
            records: vec![
                ExportRecord::Sample {
                    id: MetricId(0),
                    t: SimTime::from_secs(1),
                    value: 1.0,
                },
                ExportRecord::Meta {
                    id: MetricId(0),
                    meta: meta.clone(),
                },
                ExportRecord::Sketch {
                    id: MetricId(0),
                    res: SimDuration::from_secs(60),
                    start: SimTime::ZERO,
                    entry,
                },
            ],
        };
        agg.ingest(n, &batch);
        let c = agg.counters(n);
        assert_eq!(c.unmapped_records, 1);
        assert_eq!(c.orphan_sketches, 1);
        assert_eq!(c.samples, 0);
        assert_eq!(c.sketch_entries, 0);
        // The orphan column did not corrupt the store.
        let id = agg.store().lookup("node00/m").unwrap();
        assert_eq!(
            agg.store().buckets(id, SimDuration::from_secs(60)).count(),
            0
        );
    }

    /// A `bucket_run` applies as the `bucket` and `sketch` records it
    /// stands for, and what the canonical rule leaves as kinds 2 and 3
    /// beside it applies as before: a re-exported count-0 bucket over a
    /// filled slot (its scalars overwritten, as a restore would not), an
    /// orphan column, an out-of-order one, a run of an unmapped id. The
    /// same counters and the same tiers whether the batch arrives as
    /// records or as 1.6 bytes; after a run its last bucket is the open
    /// one.
    #[test]
    fn a_bucket_run_applies_as_its_bucket_and_sketch_records() {
        use moda_telemetry::wire::{encode_batch_with, BatchHeader};
        let res = SimDuration::from_secs(10);
        let bucket = |id: u32, start: u64, count: u64, v: f64| ExportRecord::Bucket {
            id: MetricId(id),
            res,
            start: SimTime::from_secs(start),
            count,
            sum: v * count as f64,
            min: v - 1.0,
            max: v + 1.0,
            last: v,
        };
        let column = |id: u32, start: u64, entries: &[(i8, i32, u64)]| {
            entries
                .iter()
                .map(|&(sign, key, count)| ExportRecord::Sketch {
                    id: MetricId(id),
                    res,
                    start: SimTime::from_secs(start),
                    entry: SketchEntry { sign, key, count },
                })
                .collect::<Vec<_>>()
        };
        let meta = ExportRecord::Meta {
            id: MetricId(0),
            meta: MetricMeta::gauge("m", "u", SourceDomain::Hardware),
        };
        let first = ExportBatch {
            seq: 0,
            records: [
                vec![meta],
                vec![bucket(0, 0, 5, 2.0)],
                column(0, 0, &[(-1, 3, 1), (0, 0, 2), (1, 7, 2)]),
                vec![bucket(0, 10, 3, 4.0)],
                column(0, 10, &[(1, 9, 3)]),
                // An orphan keyed to the run's first bucket, then a
                // column keyed to its last: the bucket still open.
                column(0, 0, &[(1, 1, 1)]),
                column(0, 10, &[(1, 12, 1)]),
                vec![bucket(7, 0, 2, 1.0)],
                column(7, 0, &[(1, 1, 2)]),
            ]
            .concat(),
        };
        let second = ExportBatch {
            seq: 1,
            records: [
                // The slot at 10 re-exported empty, then one at 20 with
                // its column out of order, then a run again.
                vec![bucket(0, 10, 0, 9.0), bucket(0, 20, 4, 6.0)],
                column(0, 20, &[(1, 9, 1), (1, 4, 3)]),
                vec![bucket(0, 30, 2, 1.5), bucket(0, 40, 2, 2.5)],
            ]
            .concat(),
        };
        let tiers = |agg: &FleetAggregator| {
            let id = agg.store().lookup("node00/m").unwrap();
            format!("{:?}", agg.store().buckets(id, res).collect::<Vec<_>>())
        };
        let (mut owned, mut lent) = (FleetAggregator::new(), FleetAggregator::new());
        let (a, b) = (owned.add_node("node00"), lent.add_node("node00"));
        let mut sender = ValueState::new();
        for batch in [&first, &second] {
            let mut bytes = Vec::new();
            encode_batch_with(batch, &mut sender, &mut bytes);
            let view = BatchView::parse(&bytes, BatchHeader::Varint).unwrap();
            assert_eq!(owned.ingest(a, batch), lent.ingest_view(b, &view).unwrap());
        }
        assert_eq!(owned.counters(a), lent.counters(b));
        assert_eq!(tiers(&owned), tiers(&lent));
        let c = lent.counters(b);
        assert_eq!((c.buckets, c.sketch_entries), (6, 7));
        assert_eq!((c.orphan_sketches, c.unmapped_records), (1, 2));
    }

    #[test]
    fn health_classifies_liveness_and_carries_drain_stats() {
        let mut agg = FleetAggregator::new();
        let fresh = agg.add_node("fresh");
        let lagging = agg.add_node("lagging");
        let silent = agg.add_node("silent");
        for b in batches_of(&node_db(600, 0.0), 1024) {
            agg.ingest(fresh, &b);
        }
        for b in batches_of(&node_db(100, 0.0), 1024) {
            agg.ingest(lagging, &b);
        }
        agg.report_drain(
            lagging,
            &DrainStats {
                missed_samples: 7,
                ..DrainStats::default()
            },
        );
        let h = agg.health(SimTime::from_secs(600), SimDuration::from_secs(120));
        assert_eq!((h.live, h.stale, h.silent), (1, 1, 1));
        assert_eq!(h.observed_now, SimTime::from_secs(599));
        assert_eq!(h.nodes[fresh.index()].liveness, NodeLiveness::Live);
        let lag = &h.nodes[lagging.index()];
        assert_eq!(lag.liveness, NodeLiveness::Stale);
        assert_eq!(lag.drain_lag, SimDuration::from_secs(600 - 99));
        assert_eq!(lag.drain.missed_samples, 7);
        assert_eq!(h.nodes[silent.index()].liveness, NodeLiveness::Silent);
    }

    #[test]
    fn track_health_emits_transitions() {
        let mut agg = FleetAggregator::new();
        let n = agg.add_node("node00");
        let policy = HealthPolicy {
            stale_after: SimDuration::from_secs(120),
            silent_after: Some(SimDuration::from_secs(600)),
        };
        // Baseline pass: silent (never ingested), no event emitted.
        let h = agg.track_health(SimTime::from_secs(0), policy);
        assert_eq!(h.silent, 1);
        assert_eq!(agg.health_events().count(), 0);
        // Data arrives → silent→live recovery.
        for b in batches_of(&node_db(100, 0.0), 1024) {
            agg.ingest(n, &b);
        }
        agg.track_health(SimTime::from_secs(100), policy);
        assert_eq!(agg.health_events().count(), 1);
        // The clock runs ahead → live→stale, then past the silent
        // bound → stale→silent: the full ladder down.
        agg.track_health(SimTime::from_secs(300), policy);
        agg.track_health(SimTime::from_secs(800), policy);
        let walk: Vec<(NodeLiveness, NodeLiveness)> =
            agg.health_events().map(|e| (e.from, e.to)).collect();
        assert_eq!(
            walk,
            vec![
                (NodeLiveness::Silent, NodeLiveness::Live),
                (NodeLiveness::Live, NodeLiveness::Stale),
                (NodeLiveness::Stale, NodeLiveness::Silent),
            ]
        );
        // Unchanged classification emits nothing.
        agg.track_health(SimTime::from_secs(900), policy);
        assert_eq!(agg.health_events().count(), 3);
        // Draining hands the events over exactly once.
        assert_eq!(agg.take_health_events().len(), 3);
        assert_eq!(agg.health_events().count(), 0);
        // Plain health() keeps the original semantics: silent only when
        // never ingested.
        let h = agg.health(SimTime::from_secs(900), SimDuration::from_secs(120));
        assert_eq!(h.nodes[n.index()].liveness, NodeLiveness::Stale);
    }
}
