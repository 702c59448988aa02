//! The namespaced fleet store and its cluster-wide query layer.
//!
//! One [`FleetStore`] holds the aggregation tier's view of every node's
//! exported telemetry: per `node×name` fleet metric a short raw ring
//! (the spliceable recent tail) plus a wire-fed rollup pyramid
//! ([`WireTiers`]) rebuilt from sealed `bucket`/`sketch` records, and a
//! cross-node **logical axis** grouping the same node-local metric name
//! across nodes. Queries pool one accumulator across a logical group
//! through the node-local planner's cascade
//! ([`moda_telemetry::rollup::fold_span_into`]): scalar aggregates
//! (`Count`/`Sum`/`Mean`/`Min`/`Max`) combine exactly, and percentiles
//! merge the nodes' sealed-bucket quantile sketches additively — the
//! export wire's sketch-merge contract — so a fleet-wide p99 over N
//! nodes costs O(N · window/res) sketch merges and **zero raw-sample
//! reads** on an aligned sealed window. Every query reports how it was
//! served ([`FleetServed`]), and the store keeps lifetime hit counters
//! ([`FleetStoreStats`]) including the exact number of raw values
//! spliced — the counter the zero-raw-read acceptance tests assert on.

use moda_sim::{SimDuration, SimTime};
use moda_telemetry::rollup::{fold_span_into, RollupAcc, SketchAcc, SpanFold};
use moda_telemetry::series::SEAL_THRESHOLD;
use moda_telemetry::sketch::SketchEntry;
use moda_telemetry::{chunk, MetricId, MetricMeta, RollupBucket, TimeSeries, WindowAgg, WireTiers};
use std::cell::Cell;
use std::collections::HashMap;
use std::io;

/// Default raw-ring retention per fleet metric. The aggregation tier's
/// raw samples are only the spliceable recent tail (long horizon lives
/// in the wire-fed bucket tiers), so this stays small.
pub const DEFAULT_RAW_RETENTION: usize = 4096;

/// Shortest chunk record linked into a raw ring as a sealed chunk of its
/// own; shorter ones are decoded into the tail, which bounds the chunk
/// headers a stream of tiny records can leave behind.
const MIN_ADOPT: u32 = (SEAL_THRESHOLD / 8) as u32;

/// A node's identity within one aggregator (dense, assigned by
/// [`crate::FleetAggregator::add_node`] in call order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Dense index shape for direct vector addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identity of one fleet metric: which node it came from, its
/// node-local name (the logical-axis key), and the node's original
/// metadata.
#[derive(Debug, Clone)]
pub struct FleetMetricInfo {
    /// Source node.
    pub node: NodeId,
    /// Node-local metric name (`meta.name` as the node exported it).
    pub local_name: String,
    /// The node's registry entry, as received off the wire.
    pub meta: MetricMeta,
}

/// How a fleet query was served — the per-call accounting behind
/// [`FleetStoreStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetServed {
    /// Logical-axis members (node metrics) the query pooled.
    pub members: usize,
    /// Sealed rollup buckets merged across those members.
    pub buckets: usize,
    /// Raw samples spliced at ragged edges/unsealed tails. Zero on an
    /// aligned sealed window — the "served purely from merged sketches"
    /// assertion.
    pub raw_values: u64,
    /// The answer was a percentile merged from bucket sketches.
    pub sketch: bool,
}

/// Lifetime query counters of one [`FleetStore`] (ingest counts live in
/// the sessions' [`crate::NodeCounters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStoreStats {
    /// Queries that merged at least one sealed rollup bucket.
    pub rollup_hits: u64,
    /// Percentile queries served by merging bucket sketches (subset of
    /// `rollup_hits`).
    pub sketch_hits: u64,
    /// Queries that fell back to pooling raw samples entirely (no
    /// sealed bucket intersected, or a percentile over sketch-free
    /// tiers) — exact, but bounded by raw retention.
    pub raw_fallbacks: u64,
    /// Raw sample values folded into query answers (splices and
    /// fallbacks). A sketch-served fleet percentile over an aligned
    /// sealed window adds **zero** here.
    pub raw_values_read: u64,
}

/// What [`FleetStore::push_chunk`] did with one chunk record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkOutcome {
    /// The payload was well-formed and its samples went to the ring.
    Applied {
        /// Samples the ring accepted.
        accepted: u64,
        /// Samples the per-metric monotonic guard rejected.
        rejected: u64,
    },
    /// The record was dropped whole and counted corrupt.
    Corrupt,
}

/// What the fleet knows of a chunk record's payload when it applies it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Payload {
    /// Nothing: it is walked as it is applied (an owned batch, a log
    /// entry of tag 33 or 35, a record decoded rather than linked).
    Unread,
    /// What [`FleetStore::prewalk`] found before the batch was logged:
    /// `None` for a payload that did not walk or ended off its header.
    Walked(Option<chunk::Walk>),
    /// Its batch was logged under tag 36, and is being replayed: one
    /// long enough to be linked walked clean before it was logged, so it
    /// is linked on its header alone, and walked by
    /// [`FleetStore::settle`] only if a ring still holds it then.
    Vouched,
}

/// Walk a chunk record's payload ([`chunk::validate`]): what the walk
/// found, or `None` for a payload that does not walk or ends off the
/// header's `last_t`.
fn walk_whole(first_t: SimTime, last_t: SimTime, count: u32, bytes: &[u8]) -> Option<chunk::Walk> {
    let walk = chunk::validate(first_t.0, count, bytes).ok()?.walk();
    (walk.last_t == last_t.0).then_some(walk)
}

/// Direction of a per-node ranking ([`FleetStore::top_nodes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rank {
    /// Largest values first (e.g. hottest nodes by p99 power).
    Highest,
    /// Smallest values first (e.g. slowest nodes by progress rate —
    /// the per-node "laggards" view).
    Lowest,
}

/// The cluster-level store: fleet metrics (node×name), the cross-node
/// logical axis, wire-fed bucket tiers, and pooled query serving. See
/// the module docs for the data model.
#[derive(Debug)]
pub struct FleetStore {
    infos: Vec<FleetMetricInfo>,
    raw: Vec<TimeSeries>,
    /// Fleet-qualified `node/name` → fleet metric id.
    by_name: HashMap<String, MetricId>,
    /// Node-local name → fleet metric ids, in node-registration order.
    logical: HashMap<String, Vec<MetricId>>,
    tiers: WireTiers,
    raw_retention: usize,
    /// Scratch for a chunk record decoded into a ring: the samples land
    /// here as they are checked, and go to the ring only once the whole
    /// payload has.
    decoded_ts: Vec<u64>,
    decoded_vals: Vec<f64>,
    rollup_hits: Cell<u64>,
    sketch_hits: Cell<u64>,
    raw_fallbacks: Cell<u64>,
    raw_values_read: Cell<u64>,
}

impl Default for FleetStore {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetStore {
    /// Empty store with [`DEFAULT_RAW_RETENTION`] and unbounded wire
    /// tiers.
    pub fn new() -> Self {
        Self::with_raw_retention(DEFAULT_RAW_RETENTION)
    }

    /// Empty store retaining `retention` raw samples per fleet metric.
    pub fn with_raw_retention(retention: usize) -> Self {
        FleetStore {
            infos: Vec::new(),
            raw: Vec::new(),
            by_name: HashMap::new(),
            logical: HashMap::new(),
            tiers: WireTiers::new(),
            raw_retention: retention.max(1),
            decoded_ts: Vec::new(),
            decoded_vals: Vec::new(),
            rollup_hits: Cell::new(0),
            sketch_hits: Cell::new(0),
            raw_fallbacks: Cell::new(0),
            raw_values_read: Cell::new(0),
        }
    }

    /// Register (or find) the fleet metric for `node_name`'s metric
    /// `meta`. Idempotent per `(node, name)` — a node re-announcing its
    /// registry after an exporter restart maps back onto the same fleet
    /// metric.
    pub fn register(&mut self, node: NodeId, node_name: &str, meta: &MetricMeta) -> MetricId {
        let fleet_name = format!("{node_name}/{}", meta.name);
        if let Some(&id) = self.by_name.get(&fleet_name) {
            return id;
        }
        let id = MetricId(self.infos.len() as u32);
        self.infos.push(FleetMetricInfo {
            node,
            local_name: meta.name.clone(),
            meta: meta.clone(),
        });
        self.raw.push(TimeSeries::new(self.raw_retention));
        self.by_name.insert(fleet_name, id);
        self.logical.entry(meta.name.clone()).or_default().push(id);
        id
    }

    /// Append one raw wire sample. Returns whether it was accepted
    /// (rejects out-of-order per metric, like any node-local ring).
    pub fn push_sample(&mut self, id: MetricId, t: SimTime, value: f64) -> bool {
        self.raw[id.index()].push(t, value)
    }

    /// Ingest one compressed raw-chunk record (wire spec revision 1.1).
    ///
    /// A record the ring can link — one that starts at or after the
    /// ring's newest sample and holds at least `SEAL_THRESHOLD / 8`
    /// samples — is walked once ([`chunk::validate`]: `count`
    /// well-formed samples, timestamps in order, ending at the header's
    /// `last_t`) and then linked into the ring as a sealed chunk
    /// ([`TimeSeries::adopt_chunk`]) — it arrived in storage format, so
    /// it is neither materialised nor re-compressed. Any other is
    /// decoded and pushed per sample, checked the same way as it
    /// decodes: a block that starts before the ring's newest sample (a
    /// restarted node exporter re-shipping a sealed chunk), so the
    /// monotonic guard rejects exactly the already-seen prefix; and a
    /// short record, so a stream of tiny chunks cannot fill the ring
    /// with chunk headers. A payload that fails the walk, claims zero
    /// samples, or disagrees with its header is dropped whole:
    /// [`ChunkOutcome::Corrupt`].
    pub fn push_chunk(
        &mut self,
        id: MetricId,
        first_t: SimTime,
        last_t: SimTime,
        count: u32,
        bytes: &[u8],
    ) -> ChunkOutcome {
        self.take_chunk(id, first_t, last_t, count, bytes, Payload::Unread)
    }

    /// [`FleetStore::push_chunk`] of a record whose payload is known as
    /// `payload` says — the fleet's apply loop, which may have walked it
    /// before it logged it, or is replaying one it did.
    pub(crate) fn take_chunk(
        &mut self,
        id: MetricId,
        first_t: SimTime,
        last_t: SimTime,
        count: u32,
        bytes: &[u8],
        payload: Payload,
    ) -> ChunkOutcome {
        self.absorb_chunk(id, first_t, last_t, count, bytes, payload, Some(MIN_ADOPT))
    }

    /// The walk a receive burst makes of a chunk record before it logs
    /// it, before it knows which ring takes the record or where: a
    /// record long enough to be linked is walked here
    /// ([`Payload::Walked`]); a shorter one is decoded whatever the
    /// ring, and walked as it is ([`Payload::Unread`]).
    pub(crate) fn prewalk(first_t: SimTime, last_t: SimTime, count: u32, bytes: &[u8]) -> Payload {
        if count < MIN_ADOPT {
            return Payload::Unread;
        }
        Payload::Walked(walk_whole(first_t, last_t, count, bytes))
    }

    /// [`FleetStore::push_chunk`] for a snapshot's raw section: the
    /// records are this store's own sealed chunks, so each one is linked
    /// back whatever its length and the restored ring has the chunk
    /// boundaries the snapshotted one had.
    pub(crate) fn restore_chunk(
        &mut self,
        id: MetricId,
        first_t: SimTime,
        last_t: SimTime,
        count: u32,
        bytes: &[u8],
    ) -> ChunkOutcome {
        self.absorb_chunk(id, first_t, last_t, count, bytes, Payload::Unread, Some(1))
    }

    /// A snapshot's unsealed tail, carried as one Gorilla run: decoded
    /// and pushed sample by sample, checked as it decodes (the
    /// decode-and-push branch of [`FleetStore::push_chunk`]) and never
    /// linked as a chunk, so the restored ring ends in the tail the
    /// snapshotted one had.
    pub(crate) fn restore_tail(
        &mut self,
        id: MetricId,
        first_t: SimTime,
        last_t: SimTime,
        count: u32,
        bytes: &[u8],
    ) -> ChunkOutcome {
        self.absorb_chunk(id, first_t, last_t, count, bytes, Payload::Unread, None)
    }

    /// Link a chunk record when it holds at least `min_adopt` samples
    /// (never, for `None`) and starts at or after the ring's newest
    /// sample; otherwise decode it into the ring's tail. Either way the
    /// payload is walked once here at most: not at all when it is
    /// linked on an earlier walk (`Walked`) or on its header
    /// (`Vouched`).
    #[allow(clippy::too_many_arguments)]
    fn absorb_chunk(
        &mut self,
        id: MetricId,
        first_t: SimTime,
        last_t: SimTime,
        count: u32,
        bytes: &[u8],
        payload: Payload,
        min_adopt: Option<u32>,
    ) -> ChunkOutcome {
        let series = &mut self.raw[id.index()];
        let total = u64::from(count);
        let whole = ChunkOutcome::Applied {
            accepted: total,
            rejected: 0,
        };
        let adopt = min_adopt.is_some_and(|min| count >= min);
        if adopt && series.links_from(first_t.0) {
            let walk = match payload {
                Payload::Unread => walk_whole(first_t, last_t, count, bytes),
                Payload::Walked(walk) => walk,
                Payload::Vouched => {
                    series.link_unwalked(first_t.0, last_t.0, count, bytes);
                    return whole;
                }
            };
            let Some(walk) = walk else {
                return ChunkOutcome::Corrupt;
            };
            series.adopt_chunk(&walk.of(bytes));
            return whole;
        }
        if matches!(payload, Payload::Walked(None)) {
            return ChunkOutcome::Corrupt;
        }
        let (ts, vals) = (&mut self.decoded_ts, &mut self.decoded_vals);
        ts.clear();
        vals.clear();
        let decoded = chunk::decode_exact(first_t.0, count, bytes, ts, vals);
        if decoded.is_err() || ts.last() != Some(&last_t.0) {
            return ChunkOutcome::Corrupt;
        }
        let accepted = ts
            .iter()
            .zip(vals.iter())
            .filter(|&(&t, &v)| series.push(SimTime(t), v))
            .count() as u64;
        ChunkOutcome::Applied {
            accepted,
            rejected: total - accepted,
        }
    }

    /// Walk every chunk a ring holds that was linked unwalked
    /// ([`Payload::Vouched`]): what recovery does once the log has
    /// ended, so only the chunks the rings kept are walked. A kept chunk
    /// that does not walk, or ends off its header, is damage the log's
    /// CRC could not see: `InvalidData`.
    pub(crate) fn settle(&mut self) -> io::Result<()> {
        for (i, series) in self.raw.iter_mut().enumerate() {
            series.settle().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("a logged chunk of fleet metric {i} does not walk: {e}"),
                )
            })?;
        }
        Ok(())
    }

    /// Apply one sealed bucket record (see [`WireTiers::apply_bucket`]).
    #[allow(clippy::too_many_arguments)]
    pub fn apply_bucket(
        &mut self,
        id: MetricId,
        res: SimDuration,
        start: SimTime,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        last: f64,
    ) -> bool {
        self.tiers
            .apply_bucket(id, res, start, count, sum, min, max, last)
    }

    /// Apply one sketch column (see [`WireTiers::apply_sketch`]).
    pub fn apply_sketch(
        &mut self,
        id: MetricId,
        res: SimDuration,
        start: SimTime,
        entry: SketchEntry,
    ) -> bool {
        self.tiers.apply_sketch(id, res, start, entry)
    }

    /// Make room for `n` more buckets in a tier ring (see
    /// [`WireTiers::reserve_buckets`]).
    pub fn reserve_buckets(&mut self, id: MetricId, res: SimDuration, n: usize) {
        self.tiers.reserve_buckets(id, res, n);
    }

    /// Restore one sealed bucket — scalars plus its sketch column —
    /// against a single slot lookup (see [`WireTiers::restore_bucket`]).
    #[allow(clippy::too_many_arguments)]
    pub fn restore_bucket(
        &mut self,
        id: MetricId,
        res: SimDuration,
        start: SimTime,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        last: f64,
        entries: &[SketchEntry],
    ) -> bool {
        self.tiers
            .restore_bucket(id, res, start, count, sum, min, max, last, entries)
    }

    // ----- registry / axes ----------------------------------------------

    /// Number of fleet metrics (node×name pairs).
    pub fn cardinality(&self) -> usize {
        self.infos.len()
    }

    /// Identity of a fleet metric.
    pub fn info(&self, id: MetricId) -> &FleetMetricInfo {
        &self.infos[id.index()]
    }

    /// Look up a fleet metric by its qualified `node/name`.
    pub fn lookup(&self, fleet_name: &str) -> Option<MetricId> {
        self.by_name.get(fleet_name).copied()
    }

    /// The logical axis: every node's fleet metric for one node-local
    /// name, in node-registration order. Empty when no node exported it.
    pub fn logical_members(&self, local_name: &str) -> &[MetricId] {
        self.logical
            .get(local_name)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Snapshot of the logical axes as `(name, member count)` pairs,
    /// sorted by name — the deterministic listing the query protocol's
    /// discovery request serves, so remote and in-process callers see
    /// the same order regardless of hash-map iteration.
    pub fn logical_axes(&self) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = self
            .logical
            .iter()
            .map(|(name, members)| (name.clone(), members.len()))
            .collect();
        out.sort();
        out
    }

    /// One fleet metric's raw ring.
    pub fn raw(&self, id: MetricId) -> &TimeSeries {
        &self.raw[id.index()]
    }

    /// The wire-fed bucket tiers (planner-ready per-metric pyramids).
    pub fn tiers(&self) -> &WireTiers {
        &self.tiers
    }

    /// Retained sealed buckets of one fleet metric's tier, start-ordered.
    pub fn buckets(&self, id: MetricId, res: SimDuration) -> impl Iterator<Item = &RollupBucket> {
        self.tiers.buckets(id, res)
    }

    /// Lifetime store counters.
    pub fn stats(&self) -> FleetStoreStats {
        FleetStoreStats {
            rollup_hits: self.rollup_hits.get(),
            sketch_hits: self.sketch_hits.get(),
            raw_fallbacks: self.raw_fallbacks.get(),
            raw_values_read: self.raw_values_read.get(),
        }
    }

    /// Raw-ring retention this store was built with (snapshot metadata).
    pub fn raw_retention(&self) -> usize {
        self.raw_retention
    }

    /// Overwrite every counter with snapshotted values, so recovered
    /// stats read exactly as they did at snapshot time.
    pub(crate) fn restore_stats(&mut self, s: &FleetStoreStats) {
        self.rollup_hits.set(s.rollup_hits);
        self.sketch_hits.set(s.sketch_hits);
        self.raw_fallbacks.set(s.raw_fallbacks);
        self.raw_values_read.set(s.raw_values_read);
    }

    // ----- queries -------------------------------------------------------

    /// Trailing-window aggregate of **one** fleet metric (one node's
    /// series), served through the same cascade as the cluster-wide
    /// queries — a single-member pool, so it shares their tolerance
    /// (a sealed bucket that lost its sketch columns to framing errors
    /// degrades a percentile to the exact raw fallback instead of
    /// corrupting it) and their raw-read accounting.
    pub fn window_agg(
        &self,
        id: MetricId,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
    ) -> Option<f64> {
        let lo = SimTime(now.0.saturating_sub(window.0).saturating_add(1));
        let hi = SimTime(now.0.saturating_add(1));
        let mut served = FleetServed {
            members: 1,
            ..FleetServed::default()
        };
        let out = if let WindowAgg::Percentile(q) = agg {
            self.fleet_percentile_pooled(&[id], lo, hi, q, &mut served)
        } else {
            // `Last` is meaningful here — one metric's buckets and raw
            // splices fold in time order — unlike across nodes.
            let mut audit = AuditedScalar {
                acc: RollupAcc::new(),
                raw_values: 0,
            };
            served.buckets += fold_span_into(
                &self.raw[id.index()],
                self.tiers.set(id),
                lo,
                hi,
                &mut audit,
            );
            served.raw_values = audit.raw_values;
            audit.acc.finish(agg)
        };
        self.account(&served);
        out
    }

    /// Cluster-wide trailing-window aggregate over the logical axis
    /// `local_name`: one accumulator pooled across every node's fleet
    /// metric. `Count`/`Sum`/`Mean`/`Min`/`Max` combine exactly;
    /// `Percentile` merges the nodes' sealed-bucket sketches (1 %
    /// relative error against the exact pooled order statistic) and
    /// falls back to an exact pooled raw selection when no sealed
    /// bucket intersects the window or the tiers carry no sketches.
    ///
    /// # Panics
    /// On [`WindowAgg::Last`]: "last across nodes" has no
    /// arrival-order-independent meaning — rank nodes with
    /// [`FleetStore::top_nodes`] instead.
    pub fn fleet_window_agg(
        &self,
        local_name: &str,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
    ) -> Option<f64> {
        self.fleet_window_agg_served(local_name, now, window, agg).0
    }

    /// [`FleetStore::fleet_window_agg`] plus how the answer was served.
    pub fn fleet_window_agg_served(
        &self,
        local_name: &str,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
    ) -> (Option<f64>, FleetServed) {
        self.fleet_subset_window_agg_served(self.logical_members(local_name), now, window, agg)
    }

    /// Pool a trailing-window aggregate over an **explicit member
    /// subset** instead of a whole logical axis — the entry the
    /// coverage-aware control-plane queries ([`crate::control`]) use to
    /// exclude stale/silent nodes. Members outside the slice contribute
    /// nothing: the answer is exactly what the full fleet query would
    /// return on a fleet containing only those members.
    pub fn fleet_subset_window_agg_served(
        &self,
        members: &[MetricId],
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
    ) -> (Option<f64>, FleetServed) {
        assert!(
            !matches!(agg, WindowAgg::Last),
            "Last is per-node (arrival order across nodes is meaningless); \
             use top_nodes or window_agg per member"
        );
        // (t0, now] == [t0 + 1, now + 1) on integer-millisecond time —
        // the same span convention as the node-local planner.
        let lo = SimTime(now.0.saturating_sub(window.0).saturating_add(1));
        let hi = SimTime(now.0.saturating_add(1));
        let mut served = FleetServed {
            members: members.len(),
            ..FleetServed::default()
        };
        if members.is_empty() {
            return (None, served);
        }
        let out = if let WindowAgg::Percentile(q) = agg {
            self.fleet_percentile_pooled(members, lo, hi, q, &mut served)
        } else {
            let mut audit = AuditedScalar {
                acc: RollupAcc::new(),
                raw_values: 0,
            };
            for &id in members {
                served.buckets += fold_span_into(
                    &self.raw[id.index()],
                    self.tiers.set(id),
                    lo,
                    hi,
                    &mut audit,
                );
            }
            served.raw_values = audit.raw_values;
            audit.acc.finish(agg)
        };
        self.account(&served);
        (out, served)
    }

    /// Pooled percentile path: merge every member's sealed-bucket
    /// sketches (plus raw splices) into one accumulator; fall back to
    /// the exact pooled raw selection when nothing sketch-served
    /// intersected the window or any member's buckets lack sketches.
    fn fleet_percentile_pooled(
        &self,
        members: &[MetricId],
        lo: SimTime,
        hi: SimTime,
        q: f64,
        served: &mut FleetServed,
    ) -> Option<f64> {
        let sketchable = members
            .iter()
            .all(|&id| self.tiers.set(id).is_none_or(|s| s.sketched()));
        if sketchable {
            let mut audit = AuditedSketch {
                acc: SketchAcc::new(),
                raw: Vec::new(),
                unsketched_buckets: 0,
            };
            let mut buckets = 0;
            for &id in members {
                buckets += fold_span_into(
                    &self.raw[id.index()],
                    self.tiers.set(id),
                    lo,
                    hi,
                    &mut audit,
                );
            }
            if buckets > 0 && audit.unsketched_buckets == 0 {
                served.buckets = buckets;
                served.raw_values = audit.raw.len() as u64;
                served.sketch = true;
                return audit.acc.finish(q);
            }
            if audit.unsketched_buckets == 0 {
                // No sealed bucket intersected the window at all, so
                // the cascade bottomed out at raw everywhere — the
                // audit pass already holds every in-window value;
                // finish exactly without re-scanning the rings.
                let mut vals = audit.raw;
                served.raw_values = vals.len() as u64;
                return (!vals.is_empty()).then(|| WindowAgg::Percentile(q).apply_mut(&mut vals));
            }
            // A sealed bucket without sketch columns (a stream that
            // lost columns to framing errors, or a node that rebuilt
            // its pyramid sketch-free): the merged answer would be
            // silently incomplete, so degrade to the exact raw rescan.
        }
        // Exact pooled fallback over whatever raw the fleet retains —
        // the same semantics as a node-local raw percentile fallback.
        let mut vals: Vec<f64> = Vec::new();
        for &id in members {
            vals.extend(self.raw[id.index()].range_view(lo, hi).values());
        }
        served.raw_values = vals.len() as u64;
        if vals.is_empty() {
            return None;
        }
        Some(WindowAgg::Percentile(q).apply_mut(&mut vals))
    }

    /// Rank the logical axis per node and keep the top `k`:
    /// `Rank::Lowest` is the "top-k laggards" view (slowest progress,
    /// lowest throughput), `Rank::Highest` the hot-spot view (highest
    /// p99 power/latency). Nodes whose member answers `None` (no data
    /// in the window) are omitted; ties keep node-registration order.
    pub fn top_nodes(
        &self,
        local_name: &str,
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
        k: usize,
        rank: Rank,
    ) -> Vec<(NodeId, f64)> {
        self.top_nodes_of(self.logical_members(local_name), now, window, agg, k, rank)
    }

    /// [`FleetStore::top_nodes`] over an explicit member subset — the
    /// coverage-aware ranking entry (see
    /// [`FleetStore::fleet_subset_window_agg_served`]).
    pub fn top_nodes_of(
        &self,
        members: &[MetricId],
        now: SimTime,
        window: SimDuration,
        agg: WindowAgg,
        k: usize,
        rank: Rank,
    ) -> Vec<(NodeId, f64)> {
        let mut out: Vec<(NodeId, f64)> = members
            .iter()
            .filter_map(|&id| {
                self.window_agg(id, now, window, agg)
                    .map(|v| (self.info(id).node, v))
            })
            .collect();
        out.sort_by(|a, b| {
            let ord = a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal);
            match rank {
                Rank::Highest => ord.reverse(),
                Rank::Lowest => ord,
            }
        });
        out.truncate(k);
        out
    }

    fn account(&self, served: &FleetServed) {
        if served.buckets > 0 {
            self.rollup_hits.set(self.rollup_hits.get() + 1);
            if served.sketch {
                self.sketch_hits.set(self.sketch_hits.get() + 1);
            }
        } else {
            self.raw_fallbacks.set(self.raw_fallbacks.get() + 1);
        }
        self.raw_values_read
            .set(self.raw_values_read.get() + served.raw_values);
    }
}

/// Scalar pooling accumulator that counts every raw value spliced in.
struct AuditedScalar {
    acc: RollupAcc,
    raw_values: u64,
}

impl SpanFold for AuditedScalar {
    #[inline]
    fn push_value(&mut self, v: f64) {
        self.raw_values += 1;
        self.acc.push_value(v);
    }

    #[inline]
    fn merge_bucket(&mut self, b: &RollupBucket) {
        self.acc.merge_bucket(b);
    }
}

/// Sketch pooling accumulator: collects raw splices (for counting, and
/// so a bucket-free window can finish exactly without a second ring
/// scan) and tolerates — by counting, so the caller can fall back —
/// sealed buckets that arrived without sketch columns: a mixed stream
/// the strict node-side planner never produces but a lenient
/// aggregation tier must not crash on.
struct AuditedSketch {
    acc: SketchAcc,
    raw: Vec<f64>,
    unsketched_buckets: u64,
}

impl SpanFold for AuditedSketch {
    #[inline]
    fn push_value(&mut self, v: f64) {
        self.raw.push(v);
        self.acc.push_value(v);
    }

    fn merge_bucket(&mut self, b: &RollupBucket) {
        if b.sketch.is_some() {
            self.acc.merge_bucket(b);
        } else {
            self.unsketched_buckets += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moda_telemetry::SourceDomain;

    fn meta(name: &str) -> MetricMeta {
        MetricMeta::gauge(name, "u", SourceDomain::Hardware)
    }

    /// Feed `nodes` fleet metrics under one logical name with sealed
    /// minute buckets `1..=sealed` (count 60 each, values = node+slot).
    fn sealed_fleet(nodes: u32, sealed: u64) -> FleetStore {
        let mut store = FleetStore::new();
        let res = SimDuration::from_secs(60);
        for n in 0..nodes {
            let id = store.register(NodeId(n), &format!("node{n:02}"), &meta("m"));
            for slot in 1..=sealed {
                let v = (n as u64 + slot) as f64;
                store.apply_bucket(id, res, SimTime(slot * 60_000), 60, 60.0 * v, v, v, v);
                let mut sk = moda_telemetry::QuantileSketch::new();
                for _ in 0..60 {
                    sk.fold(v);
                }
                for e in sk.wire_entries() {
                    store.apply_sketch(id, res, SimTime(slot * 60_000), e);
                }
            }
        }
        store
    }

    #[test]
    fn registry_is_namespaced_and_idempotent() {
        let mut store = FleetStore::new();
        let a = store.register(NodeId(0), "node00", &meta("power"));
        let b = store.register(NodeId(1), "node01", &meta("power"));
        assert_ne!(a, b);
        assert_eq!(store.register(NodeId(0), "node00", &meta("power")), a);
        assert_eq!(store.cardinality(), 2);
        assert_eq!(store.lookup("node01/power"), Some(b));
        assert_eq!(store.logical_members("power"), &[a, b]);
        assert_eq!(store.info(a).node, NodeId(0));
        assert_eq!(store.info(b).local_name, "power");
    }

    #[test]
    fn pooled_scalars_are_exact_across_nodes() {
        let store = sealed_fleet(4, 10);
        let now = SimTime(11 * 60_000 - 1);
        let w = SimDuration::from_secs(600);
        let count = store
            .fleet_window_agg("m", now, w, WindowAgg::Count)
            .unwrap();
        assert_eq!(count, 4.0 * 10.0 * 60.0);
        // min over nodes 0..4, slots 1..=10: node 0, slot 1 → 1.
        let min = store.fleet_window_agg("m", now, w, WindowAgg::Min).unwrap();
        assert_eq!(min, 1.0);
        let max = store.fleet_window_agg("m", now, w, WindowAgg::Max).unwrap();
        assert_eq!(max, 13.0);
        // Aligned sealed window: zero raw reads.
        let (_, served) = store.fleet_window_agg_served("m", now, w, WindowAgg::Sum);
        assert_eq!(served.raw_values, 0);
        assert_eq!(served.buckets, 40);
        assert_eq!(served.members, 4);
    }

    #[test]
    fn fleet_percentile_merges_sketches_with_zero_raw_reads() {
        let store = sealed_fleet(4, 10);
        let now = SimTime(11 * 60_000 - 1);
        let w = SimDuration::from_secs(600);
        let (p, served) = store.fleet_window_agg_served("m", now, w, WindowAgg::Percentile(0.99));
        assert!(served.sketch);
        assert_eq!(served.raw_values, 0, "purely merged from sketches");
        assert_eq!(served.buckets, 40);
        // Exact pooled p99 of the 2400 values (60 copies of n+slot):
        // rank 0.99·2399 ≈ 2375 → value 12 or 13; sketch is within 1 %.
        let p = p.unwrap();
        assert!((11.8..=13.2).contains(&p), "{p}");
        let stats = store.stats();
        assert_eq!(stats.sketch_hits, 1);
        assert_eq!(stats.raw_values_read, 0);
    }

    #[test]
    fn unsealed_tail_splices_raw_and_is_counted() {
        let mut store = sealed_fleet(2, 5);
        let ids: Vec<MetricId> = store.logical_members("m").to_vec();
        // Raw samples beyond the sealed region (the unsealed tail).
        for &id in &ids {
            for s in 0..30u64 {
                assert!(store.push_sample(id, SimTime(6 * 60_000 + s * 1000), 100.0));
            }
        }
        let now = SimTime(6 * 60_000 + 29_000);
        let w = SimDuration::from_secs(389); // 5 sealed minutes + 29s tail
        let (count, served) = store.fleet_window_agg_served("m", now, w, WindowAgg::Count);
        assert_eq!(count, Some(2.0 * (5.0 * 60.0 + 30.0)));
        assert_eq!(served.raw_values, 60);
        assert!(served.buckets > 0);
        assert!(store.stats().raw_values_read > 0);
    }

    #[test]
    fn percentile_without_sketches_falls_back_to_exact_pooled_raw() {
        let mut store = FleetStore::new();
        let a = store.register(NodeId(0), "n0", &meta("m"));
        let b = store.register(NodeId(1), "n1", &meta("m"));
        for s in 1..=100u64 {
            store.push_sample(a, SimTime::from_secs(s), s as f64);
            store.push_sample(b, SimTime::from_secs(s), (s + 100) as f64);
        }
        let (p, served) = store.fleet_window_agg_served(
            "m",
            SimTime::from_secs(100),
            SimDuration::from_secs(100),
            WindowAgg::Percentile(0.5),
        );
        assert!(!served.sketch);
        assert_eq!(served.raw_values, 200);
        // Exact pooled median of 1..=200.
        assert_eq!(p, Some(100.5));
        assert_eq!(store.stats().raw_fallbacks, 1);
    }

    #[test]
    fn percentile_tolerates_buckets_that_lost_their_sketch_columns() {
        // A sealed bucket whose sketch columns were dropped (framing
        // errors) inside an otherwise-sketched tier: percentiles must
        // degrade to the exact raw fallback — never panic, never
        // silently drop the bucket's values from the answer.
        let mut store = sealed_fleet(2, 5);
        let ids: Vec<MetricId> = store.logical_members("m").to_vec();
        let res = SimDuration::from_secs(60);
        // Slot 6 arrives as a bare bucket, no columns.
        store.apply_bucket(ids[0], res, SimTime(6 * 60_000), 60, 60.0, 1.0, 1.0, 1.0);
        let now = SimTime(7 * 60_000 - 1);
        let w = SimDuration::from_secs(360);
        // Pooled and single-member percentile both fall back cleanly.
        let (p, served) = store.fleet_window_agg_served("m", now, w, WindowAgg::Percentile(0.9));
        assert!(!served.sketch, "{served:?}");
        // The raw rings are empty here, so the exact fallback has
        // nothing — honest None beats a silently incomplete estimate.
        assert_eq!(p, None);
        assert_eq!(
            store.window_agg(ids[0], now, w, WindowAgg::Percentile(0.9)),
            None
        );
        // Scalars still serve from buckets, bare one included.
        let count = store
            .fleet_window_agg("m", now, w, WindowAgg::Count)
            .unwrap();
        assert_eq!(count, 2.0 * 5.0 * 60.0 + 60.0);
        // Single-member queries share the raw-read accounting.
        let before = store.stats();
        assert!(before.raw_fallbacks > 0);
    }

    #[test]
    fn top_nodes_ranks_both_directions() {
        let store = sealed_fleet(4, 10);
        let now = SimTime(11 * 60_000 - 1);
        let w = SimDuration::from_secs(600);
        let hot = store.top_nodes("m", now, w, WindowAgg::Max, 2, Rank::Highest);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, NodeId(3));
        assert_eq!(hot[0].1, 13.0);
        let laggards = store.top_nodes("m", now, w, WindowAgg::Max, 2, Rank::Lowest);
        assert_eq!(laggards[0].0, NodeId(0));
        assert_eq!(laggards[0].1, 10.0);
    }

    #[test]
    #[should_panic(expected = "Last is per-node")]
    fn fleet_last_is_rejected() {
        let store = sealed_fleet(2, 3);
        store.fleet_window_agg(
            "m",
            SimTime::from_secs(600),
            SimDuration::from_secs(60),
            WindowAgg::Last,
        );
    }

    #[test]
    fn unknown_logical_name_is_none_not_a_fallback() {
        let store = sealed_fleet(2, 3);
        let (out, served) = store.fleet_window_agg_served(
            "nope",
            SimTime::from_secs(600),
            SimDuration::from_secs(60),
            WindowAgg::Mean,
        );
        assert_eq!(out, None);
        assert_eq!(served.members, 0);
        assert_eq!(store.stats().raw_fallbacks, 0);
    }
}
