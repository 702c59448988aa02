//! Property tests for the fleet merge algebra.
//!
//! The aggregation tier's contract (`docs/EXPORT_FORMAT.md`,
//! "Aggregator consumption"):
//!
//! * **ingest order independence** — per-node streams are applied in
//!   stream order, but the interleaving *across* nodes is transport
//!   noise: any interleaving yields the same fleet store (samples,
//!   buckets, merged sketches, and therefore every query answer) —
//!   sketch and bucket merges are commutative and associative;
//! * **the fleet percentile bound** — a fleet p99 merged from the
//!   nodes' sealed-bucket sketches stays within the documented
//!   `SKETCH_RELATIVE_ERROR` (1 %) of the exact pooled order statistic
//!   over all nodes' raw values, and reads zero raw samples on sealed
//!   aligned windows;
//! * **adopt ≡ decode-and-append** — a fleet ring that links shipped
//!   chunks as they arrive holds, counts and answers exactly what the
//!   per-sample [`ReplayStore`] oracle does on the same stream, corrupt
//!   and overlapping records included, and its snapshot is a fixed
//!   point under recover-then-snapshot.
//!
//! One fleet property is not here: "a session fed its stream in
//! arbitrary pieces is the session fed it whole" needs the session
//! itself, which is private to the crate, so it sits beside it in
//! `src/transport/session.rs`.

use moda_fleet::{
    ChunkOutcome, DurabilityConfig, DurableFleet, FleetAggregator, FleetStore, NodeId,
    NodeLiveness, Rank,
};
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::export::{ExportBatch, ExportRecord, MemorySink};
use moda_telemetry::wire::{parse_frame, FrameParse};
use moda_telemetry::{
    chunk, Exporter, MetricId, MetricMeta, ReplayStore, RollupConfig, RollupTier, SourceDomain,
    Tsdb, WindowAgg,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Build one node's store (tiny sketched 1s/10s pyramid so seals happen
/// within short prop streams) and export it in `batch_records`-sized
/// batches.
fn node_stream(values: &[u16], offset: f64, batch_records: usize) -> (Vec<ExportBatch>, Vec<f64>) {
    let cfg = RollupConfig::new(vec![
        RollupTier::new(SimDuration::from_secs(1), 512),
        RollupTier::new(SimDuration::from_secs(10), 128),
    ])
    .with_sketches();
    let mut db = Tsdb::with_retention(1 << 12);
    let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
    db.enable_rollups(id, &cfg);
    let mut raw = Vec::with_capacity(values.len());
    for (i, &v) in values.iter().enumerate() {
        // ~3 samples per 1 s slot, starting past t=0 so whole-span
        // windows (open at t0) cover everything.
        let t = SimTime(1_000 + i as u64 * 333);
        let v = offset + v as f64;
        if db.insert(id, t, v) {
            raw.push(v);
        }
    }
    let mut sink = MemorySink::new();
    Exporter::new()
        .with_batch_records(batch_records)
        .drain(&db, &mut sink)
        .unwrap();
    (sink.batches, raw)
}

/// Ingest the per-node batch streams in the interleaving dictated by
/// `schedule` (a sequence of node indices; per-node order preserved —
/// the transport guarantee).
fn ingest_interleaved(streams: &[Vec<ExportBatch>], schedule: &[usize]) -> FleetAggregator {
    let mut agg = FleetAggregator::new();
    let nodes: Vec<NodeId> = (0..streams.len())
        .map(|k| agg.add_node(&format!("node{k:02}")))
        .collect();
    let mut cursors = vec![0usize; streams.len()];
    // The schedule picks which node ships next; exhaust leftovers after.
    for &pick in schedule {
        let k = pick % streams.len();
        if cursors[k] < streams[k].len() {
            agg.ingest(nodes[k], &streams[k][cursors[k]]);
            cursors[k] += 1;
        }
    }
    for (k, cur) in cursors.iter_mut().enumerate() {
        while *cur < streams[k].len() {
            agg.ingest(nodes[k], &streams[k][*cur]);
            *cur += 1;
        }
    }
    agg
}

/// Everything observable about the fleet store, as comparable data.
fn fingerprint(agg: &FleetAggregator, n_nodes: usize, span_s: u64) -> Vec<String> {
    let store = agg.store();
    let mut out = Vec::new();
    for k in 0..n_nodes {
        let id = store.lookup(&format!("node{k:02}/m")).expect("mapped");
        let raw: Vec<String> = store
            .raw(id)
            .iter()
            .map(|s| format!("{}:{}", s.t.0, s.value))
            .collect();
        out.push(format!("samples[{k}]={raw:?}"));
        for res in [SimDuration::from_secs(1), SimDuration::from_secs(10)] {
            let buckets: Vec<String> = store
                .buckets(id, res)
                .map(|b| {
                    format!(
                        "{}:{}:{}:{}:{}:{}:{:?}",
                        b.start.0, b.count, b.sum, b.min, b.max, b.last, b.sketch
                    )
                })
                .collect();
            out.push(format!("tier[{k},{}]={buckets:?}", res.0));
        }
    }
    // Query answers must agree too (they are derived, but cheap to pin).
    let now = SimTime(span_s * 1000);
    let w = SimDuration(span_s * 1000);
    for agg_kind in [
        WindowAgg::Count,
        WindowAgg::Sum,
        WindowAgg::Min,
        WindowAgg::Max,
    ] {
        out.push(format!(
            "{agg_kind:?}={:?}",
            store.fleet_window_agg("m", now, w, agg_kind)
        ));
    }
    out.push(format!(
        "p99={:?}",
        store.fleet_window_agg("m", now, w, WindowAgg::Percentile(0.99))
    ));
    out
}

// ------------------------------------------- adopt ≡ decode-and-append

/// Metrics in a mixed stream (independent clocks, interleaved records).
const MIXED_METRICS: u32 = 2;

/// `Some(last timestamp)` when the wire spec accepts a chunk record:
/// at least one sample, a payload that decodes, ending at the header's
/// `last_t_ms` (docs/EXPORT_FORMAT.md, "Compressed chunks").
fn spec_accepts(count: u32, first_t: SimTime, last_t: SimTime, bytes: &[u8]) -> Option<u64> {
    let (mut ts, mut vals) = (Vec::new(), Vec::new());
    chunk::decode_exact(first_t.0, count, bytes, &mut ts, &mut vals).ok()?;
    ts.last().copied().filter(|&t| t == last_t.0)
}

/// One seeded stream for [`MIXED_METRICS`] metrics: `sample` records
/// (some stale), chunks aligned to the seal threshold, unaligned, and
/// under the adopt threshold, re-shipped overlapping chunks, and
/// mangled ones — truncated, bit-flipped, padded with garbage, lying
/// about `last_t`, `first_t` or `count`. Returns the batches and how
/// many chunk records the spec calls corrupt.
fn mixed_stream(rng: &mut TestRng, records: usize) -> (Vec<ExportBatch>, u64) {
    let mut clock = [1_000u64; MIXED_METRICS as usize];
    let mut value = [200.0f64; MIXED_METRICS as usize];
    let mut out: Vec<ExportRecord> = (0..MIXED_METRICS)
        .map(|m| ExportRecord::Meta {
            id: MetricId(m),
            meta: MetricMeta::gauge(format!("m{m}"), "u", SourceDomain::Hardware),
        })
        .collect();
    let mut corrupt = 0;
    for _ in 0..records {
        let m = rng.below(u64::from(MIXED_METRICS)) as usize;
        let id = MetricId(m as u32);
        let mut next_value = |rng: &mut TestRng| {
            value[m] = match rng.below(12) {
                0 => f64::from_bits(0x7ff8_0000_0000_0000 | rng.below(1 << 16)),
                1 => f64::from_bits(rng.next_u64()),
                2 => value[m],
                _ if value[m].is_finite() => value[m] + rng.below(9) as f64 - 4.0,
                _ => 200.0,
            };
            value[m]
        };
        match rng.below(12) {
            0..=3 => {
                clock[m] += rng.below(1_500);
                out.push(ExportRecord::Sample {
                    id,
                    t: SimTime(clock[m]),
                    value: next_value(rng),
                });
            }
            4 => out.push(ExportRecord::Sample {
                id,
                t: SimTime(clock[m].saturating_sub(rng.below(5_000))),
                value: next_value(rng),
            }),
            kind => {
                let n = match rng.below(4) {
                    0 => 1 + rng.below(63),
                    1 => 512,
                    _ => 64 + rng.below(640),
                };
                // A re-ship starts behind the clock and runs past it.
                let mut t = match kind {
                    5 => clock[m].saturating_sub(rng.below(n * 700)),
                    _ => clock[m] + rng.below(1_500),
                };
                let (mut ts, mut vals) = (Vec::new(), Vec::new());
                for _ in 0..n {
                    ts.push(t);
                    vals.push(next_value(rng));
                    t += if rng.below(8) == 0 {
                        rng.below(3_000)
                    } else {
                        1_000
                    };
                }
                let c = chunk::compress(&ts, &vals, 0);
                let (mut count, mut bytes) = (c.count(), c.bytes().to_vec());
                let (mut first_t, mut last_t) = (c.first_t(), c.last_t());
                if kind >= 9 {
                    match rng.below(8) {
                        0 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
                        1 => {
                            let at = rng.below(bytes.len() as u64 * 8) as usize;
                            bytes[at / 8] ^= 0x80 >> (at % 8);
                        }
                        2 => bytes.extend((0..1 + rng.below(9)).map(|_| rng.next_u64() as u8)),
                        3 => {
                            last_t = [last_t + 1, last_t.saturating_sub(1), u64::MAX]
                                [rng.below(3) as usize]
                        }
                        4 => first_t += 1 + rng.below(2_000),
                        5 => count = 0,
                        6 => count += 1,
                        _ => count -= 1,
                    }
                }
                let (first_t, last_t) = (SimTime(first_t), SimTime(last_t));
                match spec_accepts(count, first_t, last_t, &bytes) {
                    Some(end) => clock[m] = clock[m].max(end),
                    None => corrupt += 1,
                }
                out.push(ExportRecord::Chunk {
                    id,
                    count,
                    first_t,
                    last_t,
                    bytes,
                });
            }
        }
    }
    let mut batches = Vec::new();
    let mut rest = out.as_slice();
    while !rest.is_empty() {
        let take = (1 + rng.below(40) as usize).min(rest.len());
        batches.push(ExportBatch {
            seq: batches.len() as u64,
            records: rest[..take].to_vec(),
        });
        rest = &rest[take..];
    }
    (batches, corrupt)
}

/// What the per-sample oracle says one metric's ring must hold: replay
/// the stream minus its corrupt chunk records into a [`ReplayStore`],
/// then apply the ring's two rules by hand — the monotonic guard and
/// `retention`. Returns `(retained, accepted, rejected)`.
fn oracle_ring(
    batches: &[ExportBatch],
    id: MetricId,
    retention: usize,
) -> (Vec<(u64, u64)>, u64, u64) {
    let mut replay = ReplayStore::new();
    for batch in batches {
        for r in &batch.records {
            let corrupt = matches!(r, ExportRecord::Chunk { count, first_t, last_t, bytes, .. }
                if spec_accepts(*count, *first_t, *last_t, bytes).is_none());
            if !corrupt {
                replay.apply_record(r);
            }
        }
    }
    assert_eq!(
        replay.corrupt_chunks(),
        0,
        "the oracle saw only clean records"
    );
    let mut kept: Vec<(u64, u64)> = Vec::new();
    let mut rejected = 0;
    for &(t, v) in replay.samples(id) {
        if kept.last().is_some_and(|&(last, _)| t.0 < last) {
            rejected += 1;
        } else {
            kept.push((t.0, v.to_bits()));
        }
    }
    let accepted = kept.len() as u64;
    kept.drain(..kept.len().saturating_sub(retention));
    (kept, accepted, rejected)
}

/// Compare a fleet against the oracle, metric by metric: retained
/// samples bit for bit, the session's accept/reject/corrupt accounting,
/// and every `WindowAgg` over a few trailing windows
/// `(now - window, now]`.
fn assert_matches_oracle(
    agg: &FleetAggregator,
    batches: &[ExportBatch],
    corrupt: u64,
    retention: usize,
) -> Result<(), TestCaseError> {
    let store = agg.store();
    let (mut accepted, mut rejected) = (0, 0);
    for m in 0..MIXED_METRICS {
        let (want, acc, rej) = oracle_ring(batches, MetricId(m), retention);
        accepted += acc;
        rejected += rej;
        let Some(id) = store.lookup(&format!("node00/m{m}")) else {
            prop_assert!(want.is_empty());
            continue;
        };
        let got: Vec<(u64, u64)> = store
            .raw(id)
            .iter()
            .map(|s| (s.t.0, s.value.to_bits()))
            .collect();
        prop_assert_eq!(&got, &want, "retained samples of m{}", m);
        let Some(&(now, _)) = want.last() else {
            continue;
        };
        for window in [1_500, 90_000, 700_000, u64::MAX] {
            let vals: Vec<f64> = want
                .iter()
                .filter(|&&(t, _)| t > now.saturating_sub(window))
                .map(|&(_, v)| f64::from_bits(v))
                .collect();
            for kind in [
                WindowAgg::Count,
                WindowAgg::Sum,
                WindowAgg::Mean,
                WindowAgg::Min,
                WindowAgg::Max,
                WindowAgg::Last,
                WindowAgg::Percentile(0.9),
            ] {
                let got = store.window_agg(id, SimTime(now), SimDuration(window), kind);
                // An empty window (every sample at t = 0) answers None.
                let want = (!vals.is_empty()).then(|| kind.apply(&vals));
                let same = match (got, want) {
                    (Some(g), Some(w)) => g == w || (g.is_nan() && w.is_nan()),
                    (g, w) => g == w,
                };
                prop_assert!(
                    same,
                    "{:?} over {} ms of m{}: {:?} vs {:?}",
                    kind,
                    window,
                    m,
                    got,
                    want
                );
            }
        }
    }
    let c = agg.counters(NodeId(0));
    prop_assert_eq!(
        (c.samples, c.rejected_samples, c.corrupt_chunks),
        (accepted, rejected, corrupt)
    );
    Ok(())
}

/// `snapshot.bin` minus the one field that names the log epoch.
fn snapshot_state(dir: &std::path::Path) -> Vec<u8> {
    let file = std::fs::read(dir.join("snapshot.bin")).unwrap();
    match parse_frame(&file[8..]) {
        FrameParse::Frame { payload, .. } => payload[8..].to_vec(),
        _ => panic!("snapshot frame is whole"),
    }
}

/// The threshold under which a chunk record is decoded instead of
/// linked keeps a stream of tiny chunks from filling a ring with chunk
/// headers: 10 000 one-sample chunks leave a handful of sealed chunks.
#[test]
fn one_sample_chunks_cannot_flood_a_ring_with_headers() {
    let mut store = FleetStore::new();
    let id = store.register(
        NodeId(0),
        "node00",
        &MetricMeta::gauge("m", "u", SourceDomain::Hardware),
    );
    let accepted: u64 = (0..10_000u64)
        .map(|i| {
            let c = chunk::compress(&[i * 1000], &[i as f64], 0);
            match store.push_chunk(id, SimTime(c.first_t()), SimTime(c.last_t()), 1, c.bytes()) {
                ChunkOutcome::Applied { accepted, .. } => accepted,
                ChunkOutcome::Corrupt => 0,
            }
        })
        .sum();
    assert_eq!(accepted, 10_000);
    let raw = store.raw(id);
    assert_eq!(raw.len(), store.raw_retention());
    assert!(
        raw.sealed_chunks().count() <= store.raw_retention() / 64 + 2,
        "{} sealed chunks",
        raw.sealed_chunks().count()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ingesting node streams in any interleaving yields the same fleet
    /// store — the additive merge algebra is commutative/associative.
    #[test]
    fn ingest_interleaving_is_irrelevant(
        a in prop::collection::vec(0u16..1000, 30..400),
        b in prop::collection::vec(0u16..1000, 30..400),
        c in prop::collection::vec(0u16..1000, 30..400),
        batch_records in 16usize..200,
        schedule in prop::collection::vec(0usize..3, 0..64),
    ) {
        let streams = vec![
            node_stream(&a, 0.0, batch_records).0,
            node_stream(&b, 1000.0, batch_records).0,
            node_stream(&c, 2000.0, batch_records).0,
        ];
        let span_s = 1 + (400 * 333) / 1000 + 1;
        // Reference: node-by-node in order.
        let reference = ingest_interleaved(&streams, &[]);
        let shuffled = ingest_interleaved(&streams, &schedule);
        prop_assert_eq!(
            fingerprint(&reference, 3, span_s),
            fingerprint(&shuffled, 3, span_s)
        );
        // And the wire stayed clean in both runs.
        for k in 0..3u32 {
            let c = shuffled.counters(NodeId(k));
            prop_assert_eq!(c.duplicate_batches, 0);
            prop_assert_eq!(c.orphan_sketches, 0);
            prop_assert_eq!(c.unmapped_records, 0);
        }
    }

    /// The fleet percentile over merged sketches stays within the
    /// documented 1 % relative-error bound of the exact pooled order
    /// statistic — and reads zero raw samples on a sealed aligned span.
    #[test]
    fn fleet_percentile_is_within_alpha_of_exact_pooled(
        a in prop::collection::vec(1u16..2000, 60..500),
        b in prop::collection::vec(1u16..2000, 60..500),
        c in prop::collection::vec(1u16..2000, 60..500),
        d in prop::collection::vec(1u16..2000, 60..500),
        q in 0.0f64..1.0,
    ) {
        let mut agg = FleetAggregator::new();
        // Equal stream lengths: every node's sealed boundary coincides,
        // so the whole in-scope span is sealed on *every* node (a short
        // node's still-unsealed tail would legitimately splice raw).
        let n = a.len().min(b.len()).min(c.len()).min(d.len());
        let inputs = [&a[..n], &b[..n], &c[..n], &d[..n]];
        let mut max_t = 0u64;
        for (k, vals) in inputs.iter().enumerate() {
            let (batches, _) = node_stream(vals, (k as f64) * 500.0, 4096);
            let node = agg.add_node(&format!("node{k:02}"));
            for batch in &batches {
                agg.ingest(node, batch);
            }
            max_t = max_t.max(1_000 + (vals.len() as u64 - 1) * 333);
        }
        // Pool only what landed in *sealed* 1 s buckets: everything
        // before the newest slot any node is still filling. The window
        // (0, sealed_end-1] is slot-aligned, so the fleet answer must
        // come purely from merged sketches.
        let sealed_end = (max_t / 1_000) * 1_000;
        let store = agg.store();
        let now = SimTime(sealed_end - 1);
        let window = SimDuration(sealed_end - 1);
        let (got, served) =
            store.fleet_window_agg_served("m", now, window, WindowAgg::Percentile(q));
        // Which raw values are in scope: t in (0, sealed_end-1] — i.e.
        // t < sealed_end given 333 ms spacing never lands on *_999.
        let mut in_scope: Vec<f64> = Vec::new();
        for (k, vals) in inputs.iter().enumerate() {
            for (i, &v) in vals.iter().enumerate() {
                let t = 1_000 + i as u64 * 333;
                if t < sealed_end {
                    in_scope.push(v as f64 + (k as f64) * 500.0);
                }
            }
        }
        // ≥ 60 samples at 333 ms spacing guarantee sealed slots exist.
        prop_assert!(!in_scope.is_empty());
        let got = got.expect("data in window");
        prop_assert!(served.sketch, "{:?}", served);
        prop_assert_eq!(served.raw_values, 0, "sealed span must not read raw");
        // Exact pooled order statistic at the documented rank.
        let rank = (q * (in_scope.len() as f64 - 1.0)).round() as usize;
        in_scope.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let exact = in_scope[rank];
        prop_assert!(
            (got - exact).abs() <= 0.0101 * exact.abs() + 1e-9,
            "q={}: sketch {} vs exact pooled {} over {} values",
            q, got, exact, in_scope.len()
        );
    }

    /// Duplicate delivery of any batch is rejected whole: the store
    /// equals the clean single-delivery store.
    #[test]
    fn duplicate_batches_do_not_change_the_store(
        vals in prop::collection::vec(0u16..500, 50..300),
        batch_records in 16usize..120,
        dup_at in 0usize..16,
    ) {
        let (batches, _) = node_stream(&vals, 0.0, batch_records);
        let span_s = 1 + (300 * 333) / 1000 + 1;
        let clean = ingest_interleaved(std::slice::from_ref(&batches), &[]);
        let mut noisy = FleetAggregator::new();
        let node = noisy.add_node("node00");
        for batch in &batches {
            noisy.ingest(node, batch);
            // Re-deliver an already-covered batch somewhere mid-stream.
            let replay = &batches[dup_at % batches.len()];
            if replay.seq <= batch.seq {
                let r = noisy.ingest(node, replay);
                prop_assert!(!r.applied);
            }
        }
        let clean_fp = {
            let store = clean.store();
            let id = store.lookup("node00/m").unwrap();
            (
                store.raw(id).len(),
                store.buckets(id, SimDuration::from_secs(1)).count(),
                store.fleet_window_agg(
                    "m",
                    SimTime(span_s * 1000),
                    SimDuration(span_s * 1000),
                    WindowAgg::Sum,
                ),
            )
        };
        let noisy_fp = {
            let store = noisy.store();
            let id = store.lookup("node00/m").unwrap();
            (
                store.raw(id).len(),
                store.buckets(id, SimDuration::from_secs(1)).count(),
                store.fleet_window_agg(
                    "m",
                    SimTime(span_s * 1000),
                    SimDuration(span_s * 1000),
                    WindowAgg::Sum,
                ),
            )
        };
        prop_assert_eq!(clean_fp, noisy_fp);
        prop_assert!(noisy.counters(node).duplicate_batches > 0);
    }

    /// Graceful degradation is *exact*: for an arbitrary mix of live,
    /// stale (truncated stream), and silent (registered, never
    /// ingested) nodes, every covered fleet query — window aggregates,
    /// p99, top-k — returns precisely the answer a fleet containing
    /// only the contributing nodes would return, annotates coverage
    /// correctly, never counts a stale or silent node, and never
    /// panics (including the zero-contributors fleet).
    #[test]
    fn covered_queries_answer_exactly_over_the_contributing_subset(
        a in prop::collection::vec(0u16..1000, 64..200),
        b in prop::collection::vec(0u16..1000, 64..200),
        c in prop::collection::vec(0u16..1000, 64..200),
        d in prop::collection::vec(0u16..1000, 64..200),
        e in prop::collection::vec(0u16..1000, 64..200),
        states in prop::collection::vec(0usize..3, 5..6),
        batch_records in 16usize..200,
    ) {
        const LIVE: usize = 0;
        const STALE: usize = 1;
        const SILENT: usize = 2;
        // Equal stream lengths so every live node shares one high-water
        // mark; stale nodes ship only the first half of their stream.
        let n = [a.len(), b.len(), c.len(), d.len(), e.len()]
            .into_iter().min().unwrap();
        let inputs = [&a[..n], &b[..n], &c[..n], &d[..n], &e[..n]];
        let now = SimTime(1_000 + (n as u64 - 1) * 333 + 1);
        let stale_after = SimDuration((n as u64 / 4) * 333);

        // The full fleet, nodes in their chaos states.
        let mut full = FleetAggregator::new();
        let mut full_ids = Vec::new();
        for (k, vals) in inputs.iter().enumerate() {
            let node = full.add_node(&format!("node{k:02}"));
            full_ids.push(node);
            match states[k] {
                LIVE => {
                    let (batches, _) = node_stream(vals, (k as f64) * 100.0, batch_records);
                    for batch in &batches { full.ingest(node, batch); }
                }
                STALE => {
                    let (batches, _) =
                        node_stream(&vals[..n / 2], (k as f64) * 100.0, batch_records);
                    for batch in &batches { full.ingest(node, batch); }
                }
                _ => {} // silent: registered, never ingested
            }
        }
        // The reference fleet: only the contributing (live) nodes.
        let mut reference = FleetAggregator::new();
        let mut live_of = Vec::new(); // reference index -> full NodeId
        for (k, vals) in inputs.iter().enumerate() {
            if states[k] == LIVE {
                let node = reference.add_node(&format!("node{k:02}"));
                let (batches, _) = node_stream(vals, (k as f64) * 100.0, batch_records);
                for batch in &batches { reference.ingest(node, batch); }
                live_of.push((node, full_ids[k]));
            }
        }
        let n_live = live_of.len();
        let n_stale = states.iter().filter(|&&s| s == STALE).count();
        let n_silent = states.iter().filter(|&&s| s == SILENT).count();
        let window = SimDuration(now.0);

        for agg in [
            WindowAgg::Count,
            WindowAgg::Sum,
            WindowAgg::Min,
            WindowAgg::Max,
            WindowAgg::Mean,
            WindowAgg::Percentile(0.99),
        ] {
            let got = full.covered_window_agg("m", now, window, agg, stale_after);
            // Coverage metadata is exact.
            prop_assert_eq!(got.coverage.total, 5);
            prop_assert_eq!(got.coverage.contributing, n_live);
            prop_assert_eq!(got.coverage.stale, n_stale);
            prop_assert_eq!(got.coverage.silent, n_silent);
            prop_assert_eq!(got.coverage.excluded.len(), n_stale + n_silent);
            for &(node, why) in &got.coverage.excluded {
                let k = full_ids.iter().position(|&id| id == node).unwrap();
                prop_assert_ne!(states[k], LIVE, "live node excluded");
                let expect = if states[k] == STALE {
                    NodeLiveness::Stale
                } else {
                    NodeLiveness::Silent
                };
                prop_assert_eq!(why, expect);
            }
            // The answer equals the contributing-only fleet's, exactly.
            let want = reference.covered_window_agg("m", now, window, agg, stale_after);
            if n_live > 0 {
                prop_assert!(want.coverage.complete());
            }
            match (got.value, want.value) {
                (Some(g), Some(w)) => prop_assert!(
                    (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                    "{agg:?}: {g} vs contributing-only {w}"
                ),
                (g, w) => prop_assert_eq!(g, w, "{:?}", agg),
            }
        }

        // Top-k ranking: same nodes (translated), same order, same values.
        for k in [2usize, usize::MAX] {
            let (got, _) = full.covered_top_nodes(
                "m", now, window, WindowAgg::Mean, k, Rank::Highest, stale_after,
            );
            let (want, _) = reference.covered_top_nodes(
                "m", now, window, WindowAgg::Mean, k, Rank::Highest, stale_after,
            );
            prop_assert_eq!(got.len(), want.len());
            for (&(gn, gv), &(wn, wv)) in got.iter().zip(want.iter()) {
                let translated = live_of.iter()
                    .find(|&&(r, _)| r == wn)
                    .map(|&(_, f)| f)
                    .unwrap();
                prop_assert_eq!(gn, translated, "ranking order diverged");
                prop_assert!((gv - wv).abs() <= 1e-9 * wv.abs().max(1.0));
                let state = states[full_ids.iter().position(|&id| id == gn).unwrap()];
                prop_assert_eq!(state, LIVE, "non-live node served as fresh");
            }
        }
    }

    /// Torn-write safety of the durable tier's append-log: truncating
    /// the wal at *any* byte boundary recovers to a consistent prefix —
    /// no partial batch is ever applied, the torn tail is counted and
    /// trimmed off the file, and ingest resumes to the full stream. The
    /// log is a 1.5 stream — values as deltas against the stream's state
    /// — cut by a new connection every few batches (a `Node` entry that
    /// resets the state), and the recovered fleet resumes on a new one.
    #[test]
    fn torn_log_recovers_to_a_consistent_prefix_and_resumes(
        vals in prop::collection::vec(0u16..800, 50..300),
        batch_records in 16usize..120,
        cut_frac in 0.0f64..1.0,
        reconnect_every in 1usize..8,
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "moda_fleet_torn_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (batches, _) = node_stream(&vals, 0.0, batch_records);
        let span_s = 1 + (300 * 333) / 1000 + 1;

        // Write the whole stream through the durable tier; snapshot
        // cadence off so everything stays in one wal epoch.
        let mut fleet = DurableFleet::open(
            &dir,
            DurabilityConfig { snapshot_every_batches: u64::MAX },
        ).unwrap();
        let node = fleet.add_node("node00").unwrap();
        for (i, batch) in batches.iter().enumerate() {
            if i > 0 && i % reconnect_every == 0 {
                prop_assert_eq!(fleet.add_node("node00").unwrap(), node);
            }
            fleet.ingest(node, batch).unwrap();
        }
        drop(fleet);

        // Tear the log at an arbitrary byte offset.
        let wal = std::fs::read_dir(&dir).unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("wal-"))
            })
            .expect("one wal file");
        let len = std::fs::metadata(&wal).unwrap().len();
        let cut = (len as f64 * cut_frac) as u64;
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(cut).unwrap();
        f.sync_all().unwrap();
        drop(f);

        // Recovery: a clean frame prefix, the torn tail counted and
        // trimmed (a pure truncation never corrupts a CRC).
        let mut fleet = FleetStore::recover(&dir).unwrap();
        let rec = *fleet.recovery();
        prop_assert_eq!(rec.corrupt_frames, 0);
        prop_assert_eq!(
            std::fs::metadata(&wal).unwrap().len(),
            cut - rec.torn_tail_bytes,
            "recovery trims the wal to its last whole frame"
        );
        let applied = rec.replayed_batches as usize;
        prop_assert!(applied <= batches.len());
        if applied > 0 {
            // The recovered tier equals a clean ingest of exactly that
            // batch prefix — never a partially-applied batch.
            let reference = ingest_interleaved(&[batches[..applied].to_vec()], &[]);
            prop_assert_eq!(
                fingerprint(fleet.aggregator(), 1, span_s),
                fingerprint(&reference, 1, span_s)
            );
        } else {
            prop_assert_eq!(fleet.store().cardinality(), 0);
        }

        // Ingest resumes from the persisted cursor and reaches the
        // same end state as a never-torn run.
        let node = fleet.add_node("node00").unwrap();
        prop_assert_eq!(fleet.next_seq(node), applied as u64);
        for batch in &batches[applied..] {
            let report = fleet.ingest(node, batch).unwrap();
            prop_assert!(report.applied);
        }
        drop(fleet);
        let fleet = FleetStore::recover(&dir).unwrap();
        let full_reference = ingest_interleaved(std::slice::from_ref(&batches), &[]);
        prop_assert_eq!(
            fingerprint(fleet.aggregator(), 1, span_s),
            fingerprint(&full_reference, 1, span_s)
        );
        drop(fleet);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A ring that links shipped chunks is indistinguishable from one
    /// that decodes and appends them: same retained samples, same
    /// accounting, same answers, at any retention — and a snapshot of
    /// it recovers to the same state and snapshots again to the same
    /// bytes.
    #[test]
    fn adopting_chunks_equals_decoding_and_appending_them(
        seed in any::<u64>(),
        records in 1usize..120,
        retention in 1usize..3_000,
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let mut rng = TestRng::new(seed);
        let (batches, corrupt) = mixed_stream(&mut rng, records);

        let mut agg = FleetAggregator::with_store(FleetStore::with_raw_retention(retention));
        let node = agg.add_node("node00");
        for batch in &batches {
            prop_assert!(agg.ingest(node, batch).applied);
        }
        assert_matches_oracle(&agg, &batches, corrupt, retention)?;
        for m in 0..MIXED_METRICS {
            if let Some(id) = agg.store().lookup(&format!("node00/m{m}")) {
                let raw = agg.store().raw(id);
                prop_assert!(raw.sealed_chunks().skip(1).all(|c| c.skip() == 0));
                // `len()`, `total_appends()` and so the eviction count
                // `total_appends − len` are the per-sample ring's.
                let (kept, accepted, _) = oracle_ring(&batches, MetricId(m), retention);
                prop_assert_eq!((raw.len(), raw.total_appends()), (kept.len(), accepted));
            }
        }

        // The durable tier (default retention), snapshotted mid-stream
        // and at the end, then recovered.
        let dir = std::env::temp_dir().join(format!(
            "moda_fleet_adopt_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fleet = DurableFleet::open(
            &dir,
            DurabilityConfig { snapshot_every_batches: 1 + rng.below(8) },
        ).unwrap();
        let node = fleet.add_node("node00").unwrap();
        for batch in &batches {
            fleet.ingest(node, batch).unwrap();
        }
        fleet.snapshot().unwrap();
        let first = snapshot_state(&dir);
        let retention = fleet.store().raw_retention();
        assert_matches_oracle(fleet.aggregator(), &batches, corrupt, retention)?;
        drop(fleet);
        let mut recovered = FleetStore::recover(&dir).unwrap();
        prop_assert_eq!(recovered.recovery().replayed_batches, 0);
        recovered.snapshot().unwrap();
        prop_assert!(snapshot_state(&dir) == first, "recover-then-snapshot moved the state");
        assert_matches_oracle(recovered.aggregator(), &batches, corrupt, retention)?;
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ------------------------------------------- packed stream ≡ v1.1 stream

use moda_fleet::query::{encode_response, execute};
use moda_fleet::QueryRequest;
use moda_telemetry::wire::{
    decode_batch, decode_batch_as, encode_batch, encode_batch_as, encode_batch_with, encode_record,
    put_uv, BatchHeader, Coding, ValueState, WireReader,
};

/// A batch as a v1.1 writer put it on the wire: one record at a time,
/// every sample its own 25-byte `sample` record.
fn render_v1_1(batch: &ExportBatch) -> Vec<u8> {
    let mut out = batch.seq.to_le_bytes().to_vec();
    out.extend_from_slice(&(batch.records.len() as u32).to_le_bytes());
    for record in &batch.records {
        encode_record(record, &mut out);
    }
    out
}

fn render_packed(batch: &ExportBatch) -> Vec<u8> {
    let mut out = Vec::new();
    encode_batch(batch, &mut out);
    out
}

/// A verification set over the two-node fleet the proptest below
/// builds, answered by the planner and rendered as the bytes that
/// would cross the query wire (equal bytes ⇒ equal `f64` bits, equal
/// served-from and coverage metadata).
fn verification_answers(agg: &FleetAggregator, now: SimTime) -> Vec<Vec<u8>> {
    let window = SimDuration(now.0);
    let stale_after = SimDuration::from_secs(120);
    let mut reqs = vec![
        QueryRequest::Metrics,
        QueryRequest::Health { now, stale_after },
    ];
    for metric in ["m", "m0", "m1"] {
        for agg in [
            WindowAgg::Count,
            WindowAgg::Sum,
            WindowAgg::Min,
            WindowAgg::Max,
            WindowAgg::Mean,
            WindowAgg::Percentile(0.99),
        ] {
            reqs.push(QueryRequest::WindowAgg {
                metric: metric.to_string(),
                now,
                window,
                agg,
            });
            reqs.push(QueryRequest::CoveredWindowAgg {
                metric: metric.to_string(),
                now,
                window: SimDuration(window.0 / 3),
                agg,
                stale_after,
            });
        }
        reqs.push(QueryRequest::TopNodes {
            metric: metric.to_string(),
            now,
            window,
            agg: WindowAgg::Mean,
            k: 2,
            rank: Rank::Highest,
        });
    }
    reqs.iter()
        .map(|req| {
            let mut out = Vec::new();
            encode_response(&execute(agg, req), &mut out);
            out
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Packing sample runs on the wire changes nothing a fleet can
    /// observe: a durable fleet fed each batch as `encode_batch` renders
    /// it (sample runs packed) and one fed the same records one
    /// `encode_record` at a time (what a v1.1 node sends) give equal
    /// answers on a verification set and write equal snapshots; and the
    /// packed-fed fleet, killed and recovered (snapshot + packed log
    /// tail), answers the same and snapshots to the same bytes again.
    #[test]
    fn packed_stream_equals_the_v1_1_stream_at_the_fleet(
        seed in any::<u64>(),
        records in 1usize..150,
        values in prop::collection::vec(0u16..1000, 40..400),
        batch_records in 8usize..80,
        snapshot_every in 1u64..12,
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        // Node 0: a real exporter's stream (meta, sample runs, sealed
        // buckets and sketch columns). Node 1: the adversarial mix —
        // stale samples, NaN payloads, whole, re-shipped and corrupt
        // chunks, batches cut anywhere.
        let (exported, _) = node_stream(&values, 0.0, batch_records);
        let (mixed, _) = mixed_stream(&mut TestRng::new(seed), records);
        let streams = [exported, mixed];
        let now = SimTime(1_000 + values.len() as u64 * 333 + records as u64 * 700_000);

        let feed = |tag: &str, render: fn(&ExportBatch) -> Vec<u8>| {
            let dir = std::env::temp_dir().join(format!(
                "moda_fleet_packed_{}_{case}_{tag}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut fleet = DurableFleet::open(
                &dir,
                DurabilityConfig { snapshot_every_batches: snapshot_every },
            )
            .unwrap();
            for (k, stream) in streams.iter().enumerate() {
                let node = fleet.add_node(&format!("node{k:02}")).unwrap();
                for batch in stream {
                    let (decoded, unknown) = decode_batch(&render(batch)).unwrap();
                    assert_eq!(unknown, 0);
                    fleet.ingest(node, &decoded).unwrap();
                }
            }
            (dir, fleet)
        };
        let (packed_dir, mut packed) = feed("packed", render_packed);
        let (plain_dir, mut plain) = feed("plain", render_v1_1);

        // Kill the packed-fed fleet where it stands (no snapshot in
        // flight — that window has a test of its own): its directory
        // holds a snapshot plus a log tail of packed batches.
        packed.settle().unwrap();
        let tail_dir = packed_dir.with_extension("crashed");
        let _ = std::fs::remove_dir_all(&tail_dir);
        std::fs::create_dir_all(&tail_dir).unwrap();
        for entry in std::fs::read_dir(&packed_dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), tail_dir.join(entry.file_name())).unwrap();
        }

        // Snapshots first, answers second: a snapshot persists the
        // store's served-from counters, which answering moves.
        packed.snapshot().unwrap();
        plain.snapshot().unwrap();
        let first = snapshot_state(&packed_dir);
        prop_assert!(first == snapshot_state(&plain_dir), "snapshots differ");
        let answers = verification_answers(packed.aggregator(), now);
        prop_assert!(answers == verification_answers(plain.aggregator(), now));
        drop((packed, plain));

        for dir in [&packed_dir, &tail_dir] {
            let mut recovered = FleetStore::recover(dir).unwrap();
            prop_assert_eq!(recovered.recovery().corrupt_frames, 0);
            prop_assert_eq!(recovered.aggregator().unknown_records(), 0);
            recovered.snapshot().unwrap();
            prop_assert!(snapshot_state(dir) == first, "recover-then-snapshot moved the state");
            prop_assert!(answers == verification_answers(recovered.aggregator(), now));
        }
        for dir in [&packed_dir, &plain_dir, &tail_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

// ------------------------------------------- wire-fed ≡ decode-then-ingest

use moda_telemetry::SketchEntry;

/// One seeded stream that leans on the session's framing rules rather
/// than on the store: data before its `meta` (ids 2 and 3 are never
/// mapped), sketch columns with and without their bucket ahead of them,
/// buckets re-shipped, samples between a bucket and its column, and a
/// batch cursor that repeats and jumps.
fn framing_stream(rng: &mut TestRng, records: usize) -> Vec<ExportBatch> {
    let mut out = Vec::new();
    let mut t = 1_000u64;
    let mut open = (MetricId(0), SimDuration(10_000), SimTime(0));
    for _ in 0..records {
        let id = MetricId(rng.below(4) as u32);
        t += rng.below(2_000);
        out.push(match rng.below(10) {
            0 if id.0 < 2 => ExportRecord::Meta {
                id,
                meta: MetricMeta::gauge(format!("m{}", id.0), "u", SourceDomain::Hardware),
            },
            0..=3 => ExportRecord::Sample {
                id,
                t: SimTime(t),
                value: 100.0 + rng.below(50) as f64,
            },
            4 | 5 => {
                let res = SimDuration([10_000, 60_000][rng.below(2) as usize]);
                open = (id, res, SimTime(t - t % res.0));
                ExportRecord::Bucket {
                    id,
                    res,
                    start: open.2,
                    count: 1 + rng.below(60),
                    sum: rng.below(9_000) as f64,
                    min: 100.0,
                    max: 150.0,
                    last: 120.0,
                }
            }
            kind => {
                // Mostly the open bucket's column; sometimes another
                // metric's, another tier's or another slot's.
                let (mut id, mut res, mut start) = open;
                match kind {
                    6 => id = MetricId((id.0 + 1) % 4),
                    7 if rng.below(2) == 0 => res = SimDuration(res.0 + 1),
                    7 => start = SimTime(start.0 + res.0),
                    _ => {}
                }
                ExportRecord::Sketch {
                    id,
                    res,
                    start,
                    entry: SketchEntry {
                        sign: rng.below(3) as i8 - 1,
                        key: rng.below(400) as i32,
                        count: 1 + rng.below(30),
                    },
                }
            }
        });
    }
    let mut batches = Vec::new();
    let mut rest = out.as_slice();
    let mut seq = 0u64;
    while !rest.is_empty() {
        let take = (1 + rng.below(30) as usize).min(rest.len());
        batches.push(ExportBatch {
            seq,
            records: rest[..take].to_vec(),
        });
        rest = &rest[take..];
        // Mostly the next seq; sometimes a replay, sometimes a jump.
        seq = match rng.below(10) {
            0 => seq.saturating_sub(rng.below(3)),
            1 => seq + 1 + rng.below(4),
            _ => seq + 1,
        };
    }
    batches
}

/// `bytes` (one encoded batch with `header`) with records nobody's
/// encoder writes spliced in between its wire records: kinds no revision
/// defines and empty `samples` runs.
fn splice_foreign_records(bytes: &[u8], header: BatchHeader, rng: &mut TestRng) -> Vec<u8> {
    let varint = header == BatchHeader::Varint;
    let mut r = WireReader::new(bytes);
    let seq = match varint {
        false => r.u64().unwrap(),
        true => r.uv().unwrap(),
    };
    if !varint {
        r.u32().unwrap();
    }
    let mut records: Vec<(u8, Vec<u8>)> = Vec::new();
    loop {
        match rng.below(6) {
            0 => {
                let junk = rng.below(9) as usize;
                let kind = 9 + rng.below(247) as u8;
                records.push((kind, (0..junk).map(|_| rng.next_u64() as u8).collect()));
            }
            1 => records.push((5, vec![0])),
            _ => {}
        }
        if r.done() {
            break;
        }
        let kind = r.u8().unwrap();
        let len = match varint {
            false => u64::from(r.u32().unwrap()),
            true => r.uv().unwrap(),
        };
        records.push((kind, r.take(len as usize).unwrap().to_vec()));
    }
    let mut out = Vec::new();
    match varint {
        false => {
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&(records.len() as u32).to_le_bytes());
        }
        true => put_uv(&mut out, seq),
    }
    for (kind, payload) in records {
        out.push(kind);
        match varint {
            false => out.extend_from_slice(&(payload.len() as u32).to_le_bytes()),
            true => put_uv(&mut out, payload.len() as u64),
        }
        out.extend_from_slice(&payload);
    }
    out
}

/// A batch as a 1.6 sender on a stream at `sender` sends it.
fn render_delta(batch: &ExportBatch, sender: &mut ValueState) -> Vec<u8> {
    let mut out = Vec::new();
    encode_batch_with(batch, sender, &mut out);
    out
}

/// A batch as a 1.5 sender on a stream at `sender` sends it: the same
/// runs, under the fixed header.
fn render_delta_1_5(batch: &ExportBatch, sender: &mut ValueState) -> Vec<u8> {
    let mut out = Vec::new();
    encode_batch_as(batch, Coding::Buckets, sender, &mut out);
    out
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// The one `wal-N.log` of a state directory: its name and its bytes.
fn wal_file(dir: &std::path::Path) -> (String, Vec<u8>) {
    let mut logs: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .collect();
    assert_eq!(logs.len(), 1, "one live log per directory");
    let log = logs.pop().unwrap();
    (
        log.file_name().to_string_lossy().into_owned(),
        std::fs::read(log.path()).unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A durable fleet fed received bytes — validated where they lie,
    /// checked against the stream's values, logged verbatim, applied off
    /// the view, flushed per burst — is the fleet that decodes each batch
    /// into records (against a state of its own) and ingests those:
    /// equal session counters (unmapped, orphan and corrupt ones
    /// included), equal answers on a verification set, equal snapshots
    /// (value states included); for a stream a 1.6 sender wrote, an equal
    /// log, byte for byte; and equal again after kill → recover →
    /// snapshot. Streams: a real exporter's, the chunk-heavy adversarial
    /// mix, and one that breaks the framing rules — each batch rendered
    /// as 1.6 or 1.5 delta and bucket runs, packed, as v1.1, or with
    /// foreign records spliced in, under the fixed header or 1.6's as
    /// its rendering has it — and now and then a new connection between
    /// two bursts, which resets the value state at both ends. A plain
    /// aggregator handed each decoded batch in process
    /// (`FleetAggregator::ingest`, which applies it off the bytes a 1.6
    /// writer opening a connection encodes) reports, counts, owes and answers as
    /// the decoding fleet does, and its stream value states stay empty.
    #[test]
    fn wire_fed_fleet_equals_decode_then_ingest(
        seed in any::<u64>(),
        records in 1usize..150,
        values in prop::collection::vec(0u16..1000, 40..400),
        batch_records in 8usize..80,
        snapshot_every in 1u64..12,
        canonical in any::<bool>(),
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let mut rng = TestRng::new(seed);
        let (exported, _) = node_stream(&values, 0.0, batch_records);
        let (mixed, _) = mixed_stream(&mut rng, records);
        let framing = framing_stream(&mut rng, records);
        let streams = [exported, mixed, framing];
        let now = SimTime(1_000 + values.len() as u64 * 333 + records as u64 * 700_000);

        let open = |tag: &str| {
            let dir = std::env::temp_dir().join(format!(
                "moda_fleet_wirefed_{}_{case}_{tag}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let fleet = DurableFleet::open(
                &dir,
                DurabilityConfig { snapshot_every_batches: snapshot_every },
            )
            .unwrap();
            (dir, fleet)
        };
        let (wire_dir, mut wire_fed) = open("wire");
        let (decoded_dir, mut decode_fed) = open("decoded");
        let mut owned_fed = FleetAggregator::new();
        for (k, stream) in streams.iter().enumerate() {
            let name = format!("node{k:02}");
            // The sender's stream state, and the decoding side's own.
            let (mut sender, mut reader) = (ValueState::new(), ValueState::new());
            let mut rest = stream.as_slice();
            while !rest.is_empty() {
                // A connection: both fleets open the session, both ends
                // of the stream start their value states over.
                let node = wire_fed.add_node(&name).unwrap();
                prop_assert_eq!(decode_fed.add_node(&name).unwrap(), node);
                let owned = owned_fed.find_node(&name);
                prop_assert_eq!(owned.unwrap_or_else(|| owned_fed.add_node(&name)), node);
                sender.reset();
                reader.reset();
                // Bursts of one to five batches, as a receive buffer cuts
                // them, until the connection ends.
                loop {
                    let take = (1 + rng.below(5) as usize).min(rest.len());
                    let mut burst = wire_fed.burst();
                    for batch in &rest[..take] {
                        let (fixed, varint) = (BatchHeader::Fixed, BatchHeader::Varint);
                        let (bytes, header) = match rng.below(if canonical { 1 } else { 5 }) {
                            0 => (render_delta(batch, &mut sender), varint),
                            1 => (render_packed(batch), fixed),
                            2 => (render_v1_1(batch), fixed),
                            3 => (render_delta_1_5(batch, &mut sender), fixed),
                            _ => {
                                let (bytes, header) = match rng.below(2) {
                                    0 => (render_delta(batch, &mut sender), varint),
                                    _ => (render_packed(batch), fixed),
                                };
                                (splice_foreign_records(&bytes, header, &mut rng), header)
                            }
                        };
                        let report = burst.batch(node, header, &bytes).unwrap();
                        let (decoded, _) = decode_batch_as(&bytes, header, &mut reader).unwrap();
                        prop_assert_eq!(report, decode_fed.ingest(node, &decoded).unwrap());
                        prop_assert_eq!(report, owned_fed.ingest(node, &decoded));
                        prop_assert_eq!(burst.next_seq(node), decode_fed.next_seq(node));
                    }
                    burst.commit().unwrap();
                    rest = &rest[take..];
                    if rest.is_empty() || rng.below(4) == 0 {
                        break;
                    }
                }
            }
            let node = NodeId(k as u32);
            prop_assert_eq!(wire_fed.aggregator().stream_values(node), &sender);
            prop_assert_eq!(&reader, &sender);
            prop_assert_eq!(owned_fed.stream_values(node), &ValueState::new());
            if canonical {
                prop_assert_eq!(decode_fed.aggregator().stream_values(node), &sender);
            } else {
                // The in-process fleet codes every run as deltas; the
                // wire-fed one kept the values of the delta runs only.
                // A new connection on both makes the states agree.
                prop_assert_eq!(wire_fed.add_node(&name).unwrap(), node);
                prop_assert_eq!(decode_fed.add_node(&name).unwrap(), node);
            }
        }

        // A cadence snapshot may still be in flight in either; epochs
        // and directories are compared settled.
        wire_fed.settle().unwrap();
        decode_fed.settle().unwrap();
        // What the two look like to everything that can look.
        let compare = |a: &DurableFleet, b: &DurableFleet| -> Result<(), TestCaseError> {
            for k in 0..streams.len() {
                let node = NodeId(k as u32);
                prop_assert_eq!(a.aggregator().counters(node), b.aggregator().counters(node));
                prop_assert_eq!(a.next_seq(node), b.next_seq(node));
            }
            prop_assert_eq!(a.epoch(), b.epoch());
            Ok(())
        };
        compare(&wire_fed, &decode_fed)?;
        let ledgers = |agg: &FleetAggregator| -> Vec<_> {
            let health = agg.health(now, SimDuration::from_secs(120));
            health.nodes.iter().map(|n| (n.counters, n.ledger())).collect()
        };
        prop_assert_eq!(ledgers(&owned_fed), ledgers(decode_fed.aggregator()));
        for k in 0..streams.len() {
            let node = NodeId(k as u32);
            prop_assert_eq!(owned_fed.next_seq(node), decode_fed.next_seq(node));
        }
        if canonical {
            // The received bytes are what the fleet's own 1.6 encoding
            // gives back for the decoded records, so the two logs are
            // one file.
            prop_assert!(wal_file(&wire_dir) == wal_file(&decoded_dir), "logs differ");
        }
        // Kill both where they stand: a snapshot plus a log tail each.
        let crashed: Vec<_> = [&wire_dir, &decoded_dir]
            .iter()
            .map(|dir| {
                let copy = dir.with_extension("crashed");
                copy_dir(dir, &copy);
                copy
            })
            .collect();

        // Snapshots first, answers second: a snapshot persists the
        // store's served-from counters, which answering moves.
        wire_fed.snapshot().unwrap();
        decode_fed.snapshot().unwrap();
        let first = snapshot_state(&wire_dir);
        prop_assert!(first == snapshot_state(&decoded_dir), "snapshots differ");
        let answers = verification_answers(wire_fed.aggregator(), now);
        prop_assert!(answers == verification_answers(decode_fed.aggregator(), now));
        prop_assert!(answers == verification_answers(&owned_fed, now));
        drop((wire_fed, decode_fed));

        let mut recovered: Vec<DurableFleet> = crashed
            .iter()
            .map(|dir| FleetStore::recover(dir).unwrap())
            .collect();
        for fleet in &recovered {
            prop_assert_eq!(fleet.recovery().corrupt_frames, 0);
            prop_assert_eq!(fleet.recovery().torn_tail_bytes, 0);
        }
        compare(&recovered[0], &recovered[1])?;
        for (fleet, dir) in recovered.iter_mut().zip(&crashed) {
            fleet.snapshot().unwrap();
            prop_assert!(snapshot_state(dir) == first, "recover-then-snapshot moved the state");
            prop_assert!(answers == verification_answers(fleet.aggregator(), now));
        }
        drop(recovered);
        for dir in [&wire_dir, &decoded_dir, &crashed[0], &crashed[1]] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
