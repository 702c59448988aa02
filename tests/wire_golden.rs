//! Wire-format compatibility gate: committed golden byte streams that
//! the *current* readers must decode, record for record. This is the
//! test behind the `wire-compat` CI job.
//!
//! Three datasets:
//!
//! * `tests/golden/export_wire_v1_1.bin` — the **read-compat** golden:
//!   the ingest stream as an `export-wire-v1.1` writer rendered it (one
//!   25-byte `sample` record per observation; see
//!   `docs/EXPORT_FORMAT.md`, binary framing). The current reader must
//!   decode it to exactly the dataset's records, and honour the
//!   **additive-kinds rule** — the stream deliberately carries one
//!   record of an unknown future kind, and the reader must skip it via
//!   its length prefix (counting it, losing nothing else). The current
//!   writer no longer produces these bytes; the file is pinned against
//!   the dataset rendered one `encode_record` at a time;
//! * `tests/golden/export_wire_v1_2.bin` — the **read+write** golden:
//!   the same dataset as the current writer renders it (sample runs
//!   packed into `samples` records). Decodes to the same records, and
//!   re-encoding them reproduces the committed bytes bit-for-bit;
//! * `tests/golden/export_wire_v1_3.bin` — the **read+write** golden of
//!   spec revision 1.3: the same dataset as one stream of a 1.3 writer
//!   (sample runs as `samples_delta` records, each value XOR-coded
//!   against its metric's previous one, one value state across the
//!   frames). Read back with a state of its own it gives the same
//!   records, and re-encoding them reproduces the committed bytes — the
//!   writer a sink uses for a 1.3 fleet;
//! * `tests/golden/export_wire_v1_4.bin` — the **read+write** golden of
//!   spec revision 1.4: the same stream from a 1.4 writer, each run whose
//!   ids and times are progressions a `sweep` record, any other a
//!   `samples_delta` record. The same checks, and the smallest of the
//!   four;
//! * `tests/golden/query_wire_v1.bin` — a recorded query-protocol v1
//!   exchange (see `docs/FLEET_SERVICE.md`, query protocol): one
//!   `QUERY`/`QUERY_RESP` frame pair per request kind over a
//!   deterministic two-node fleet, plus one typed refusal — pinning
//!   the request and response encodings, the request-id convention,
//!   and the planner answers themselves, with writer stability.
//!
//! Any intentional format change must both update the docs *and*
//! regenerate the dataset:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test wire_golden
//! ```

use moda::fleet::query::{
    decode_request, decode_response, encode_request, encode_response, execute,
};
use moda::fleet::{FleetAggregator, QueryRequest, QueryResponse, Rank};
use moda::sim::{SimDuration, SimTime};
use moda::telemetry::export::{ExportBatch, ExportRecord, MemorySink};
use moda::telemetry::wire::{
    decode_batch, decode_batch_with, encode_batch, encode_batch_as, encode_record, frame_tag,
    read_frame, write_frame, Coding, FrameEnd, ValueState, WireReader,
};
use moda::telemetry::{
    Exporter, MetricId, MetricMeta, RollupConfig, RollupTier, SourceDomain, Tsdb, WindowAgg,
};

const GOLDEN_V1_1_PATH: &str = "tests/golden/export_wire_v1_1.bin";
const GOLDEN_V1_2_PATH: &str = "tests/golden/export_wire_v1_2.bin";
const GOLDEN_V1_3_PATH: &str = "tests/golden/export_wire_v1_3.bin";
const GOLDEN_V1_4_PATH: &str = "tests/golden/export_wire_v1_4.bin";
const QUERY_GOLDEN_PATH: &str = "tests/golden/query_wire_v1.bin";
/// Frame tag carrying one encoded batch (the transport's `BATCH`).
const TAG_BATCH: u8 = 3;
/// The v1.1 per-observation kind, the v1.2 packed-run kind, the 1.3
/// delta-run kind and the 1.4 sweep kind.
const KIND_SAMPLE: u8 = 1;
const KIND_SAMPLES: u8 = 5;
const KIND_SAMPLES_DELTA: u8 = 6;
const KIND_SWEEP: u8 = 7;
/// A record kind no revision defines — receivers must skip it.
const UNKNOWN_KIND: u8 = 9;

/// The deterministic dataset behind the golden streams: one sketched
/// gauge and one plain counter, enough samples to seal rollup buckets,
/// sketch columns, and whole raw chunks — every record kind.
fn golden_batches() -> Vec<ExportBatch> {
    let mut db = Tsdb::with_retention(1 << 12);
    let g = db.register(MetricMeta::gauge(
        "golden.power_w",
        "W",
        SourceDomain::Hardware,
    ));
    let c = db.register(MetricMeta::counter(
        "golden.jobs",
        "jobs",
        SourceDomain::Software,
    ));
    db.enable_rollups(
        g,
        &RollupConfig::new(vec![RollupTier::new(SimDuration::from_secs(10), 64)]).with_sketches(),
    );
    for s in 0..700u64 {
        db.insert(g, SimTime::from_secs(s), 80.0 + ((s * 31) % 97) as f64);
        db.insert(c, SimTime::from_secs(s), (s * 3) as f64);
    }
    let mut sink = MemorySink::new();
    Exporter::new()
        .with_batch_records(64)
        .drain(&db, &mut sink)
        .unwrap();
    sink.batches
}

/// A batch as a v1.1 writer rendered it: one wire record per record.
fn encode_batch_v1_1(batch: &ExportBatch, out: &mut Vec<u8>) {
    out.extend_from_slice(&batch.seq.to_le_bytes());
    out.extend_from_slice(&(batch.records.len() as u32).to_le_bytes());
    for record in &batch.records {
        encode_record(record, out);
    }
}

/// The writer of one stream in `coding`: every batch coded against the
/// value state the batches before it left.
fn stream_writer(coding: Coding) -> impl FnMut(&ExportBatch, &mut Vec<u8>) {
    let mut state = ValueState::new();
    move |batch, out| encode_batch_as(batch, coding, &mut state, out)
}

/// The 1.3 writer of one stream.
fn delta_writer() -> impl FnMut(&ExportBatch, &mut Vec<u8>) {
    stream_writer(Coding::Deltas)
}

/// The 1.4 writer of one stream.
fn sweep_writer() -> impl FnMut(&ExportBatch, &mut Vec<u8>) {
    stream_writer(Coding::Sweeps)
}

/// The reader of one 1.3 or 1.4 stream, keeping its own value state.
fn delta_reader() -> impl FnMut(&[u8]) -> std::io::Result<(ExportBatch, u64)> {
    let mut state = ValueState::new();
    move |bytes| decode_batch_with(bytes, &mut state)
}

/// A full golden byte stream: every dataset batch as a `BATCH` frame
/// in the given rendering, then one hand-built frame whose batch
/// carries a known (v1.1 `sample`) record followed by an unknown-kind
/// record.
fn golden_bytes(mut render: impl FnMut(&ExportBatch, &mut Vec<u8>)) -> Vec<u8> {
    let batches = golden_batches();
    let mut out = Vec::new();
    for batch in &batches {
        let mut payload = Vec::new();
        render(batch, &mut payload);
        write_frame(&mut out, TAG_BATCH, &payload).unwrap();
    }
    let mut payload = Vec::new();
    payload.extend_from_slice(&(batches.len() as u64).to_le_bytes());
    payload.extend_from_slice(&2u32.to_le_bytes());
    encode_record(
        &ExportRecord::Sample {
            id: MetricId(0),
            t: SimTime(123_456),
            value: 42.5,
        },
        &mut payload,
    );
    payload.push(UNKNOWN_KIND);
    payload.extend_from_slice(&7u32.to_le_bytes());
    payload.extend_from_slice(b"future!");
    write_frame(&mut out, TAG_BATCH, &payload).unwrap();
    out
}

/// The committed stream at `rel`, pinned against the deterministic
/// dataset in the rendering `writer` makes a renderer of (regenerated
/// first under `GOLDEN_REGEN`), cut into its `BATCH` frame payloads.
fn committed_frames<R: FnMut(&ExportBatch, &mut Vec<u8>)>(
    rel: &str,
    writer: impl Fn() -> R,
) -> Vec<Vec<u8>> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, golden_bytes(writer())).unwrap();
    }
    let bytes = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("{rel} unreadable ({e}); generate it with GOLDEN_REGEN=1"));
    assert_eq!(
        bytes,
        golden_bytes(writer()),
        "{rel} is no longer the deterministic dataset in its rendering; if the \
         change is an intentional spec revision, update docs/EXPORT_FORMAT.md \
         and regenerate with GOLDEN_REGEN=1"
    );
    let mut r = &bytes[..];
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut r).expect("golden read never io-errors") {
            Ok((tag, payload)) => {
                assert_eq!(tag, TAG_BATCH);
                frames.push(payload);
            }
            Err(end) => {
                assert_eq!(
                    end,
                    FrameEnd::Clean,
                    "golden stream ends on a frame boundary"
                );
                return frames;
            }
        }
    }
}

/// The kind tag of every wire record in one encoded batch.
fn wire_kinds(payload: &[u8]) -> Vec<u8> {
    let mut r = WireReader::new(payload);
    r.u64().unwrap();
    (0..r.u32().unwrap())
        .map(|_| {
            let kind = r.u8().unwrap();
            r.block().unwrap();
            kind
        })
        .collect()
}

/// Reader compatibility, shared by every revision: the dataset frames
/// decode (`decode`, one stream's reader) to exactly the dataset's
/// records — every kind present — and the final frame's unknown record
/// is skipped and counted while the known record beside it survives
/// intact (the additive-kinds rule).
fn assert_decodes_to_the_dataset(
    frames: &[Vec<u8>],
    mut decode: impl FnMut(&[u8]) -> std::io::Result<(ExportBatch, u64)>,
) {
    let reference = golden_batches();
    assert_eq!(frames.len(), reference.len() + 1);
    let (mut metas, mut samples, mut buckets, mut sketches, mut chunks) = (0, 0, 0, 0, 0);
    for (payload, want) in frames.iter().zip(&reference) {
        let (batch, skipped) = decode(payload).expect("dataset frame decodes");
        assert_eq!(skipped, 0, "no unknown kinds in the dataset frames");
        assert_eq!(&batch, want, "record for record");
        for rec in &batch.records {
            match rec {
                ExportRecord::Meta { .. } => metas += 1,
                ExportRecord::Sample { .. } => samples += 1,
                ExportRecord::Bucket { .. } => buckets += 1,
                ExportRecord::Sketch { .. } => sketches += 1,
                ExportRecord::Chunk { .. } => chunks += 1,
            }
        }
    }
    assert_eq!(metas, 2, "both registry entries ship");
    assert!(
        samples > 0 && buckets > 0 && sketches > 0 && chunks > 0,
        "every record kind present: {samples} samples, {buckets} buckets, \
         {sketches} sketch columns, {chunks} chunks"
    );

    let (tail, skipped) = decode(frames.last().unwrap()).expect("unknown kinds are skippable");
    assert_eq!(skipped, 1);
    assert_eq!(tail.seq, reference.len() as u64);
    assert_eq!(
        tail.records,
        [ExportRecord::Sample {
            id: MetricId(0),
            t: SimTime(123_456),
            value: 42.5,
        }]
    );
}

#[test]
fn golden_wire_stream_decodes_and_matches_the_spec() {
    let frames = committed_frames(GOLDEN_V1_1_PATH, || encode_batch_v1_1);
    assert_decodes_to_the_dataset(&frames, decode_batch);
    // A v1.1 stream never carries the packed kind.
    assert!(frames
        .iter()
        .all(|f| !wire_kinds(f).contains(&KIND_SAMPLES)));
}

#[test]
fn golden_v1_2_stream_decodes_and_reencodes_bit_identically() {
    let frames = committed_frames(GOLDEN_V1_2_PATH, || encode_batch);
    assert_decodes_to_the_dataset(&frames, decode_batch);
    // Writer stability: what the reader decoded, the current writer
    // renders back to the committed bytes — with every sample in a
    // packed run, none as a v1.1 `sample` record.
    let dataset = &frames[..frames.len() - 1];
    let mut packed_runs = 0;
    for payload in dataset {
        let (batch, _) = decode_batch(payload).unwrap();
        let mut again = Vec::new();
        encode_batch(&batch, &mut again);
        assert_eq!(&again, payload, "re-encode identity");
        let kinds = wire_kinds(payload);
        assert!(!kinds.contains(&KIND_SAMPLE));
        packed_runs += kinds.iter().filter(|&&k| k == KIND_SAMPLES).count();
    }
    assert!(packed_runs > 0, "the stream carries `samples` records");
    // And it is the smaller rendering of the same dataset.
    let v1_1 = golden_bytes(encode_batch_v1_1).len();
    let v1_2 = golden_bytes(encode_batch).len();
    assert!(v1_2 < v1_1, "v1.2 {v1_2} B vs v1.1 {v1_1} B");
}

#[test]
fn golden_v1_3_stream_decodes_and_reencodes_bit_identically() {
    let frames = committed_frames(GOLDEN_V1_3_PATH, delta_writer);
    let kinds = assert_stream_reencodes(&frames, delta_writer());
    // Every sample in a delta run, none packed whole, as a v1.1
    // `sample` record or as a 1.4 sweep.
    assert!(!kinds.contains(&KIND_SAMPLE) && !kinds.contains(&KIND_SAMPLES));
    assert!(!kinds.contains(&KIND_SWEEP));
    assert!(
        kinds.contains(&KIND_SAMPLES_DELTA),
        "the stream carries `samples_delta` records"
    );
    let v1_2 = golden_bytes(encode_batch).len();
    let v1_3 = golden_bytes(delta_writer()).len();
    assert!(v1_3 < v1_2, "v1.3 {v1_3} B vs v1.2 {v1_2} B");
}

#[test]
fn golden_v1_4_stream_decodes_and_reencodes_bit_identically() {
    let frames = committed_frames(GOLDEN_V1_4_PATH, sweep_writer);
    let kinds = assert_stream_reencodes(&frames, sweep_writer());
    assert!(!kinds.contains(&KIND_SAMPLE) && !kinds.contains(&KIND_SAMPLES));
    assert!(
        kinds.contains(&KIND_SWEEP),
        "the stream carries `sweep` records"
    );
    // The smallest rendering of the four.
    let v1_3 = golden_bytes(delta_writer()).len();
    let v1_4 = golden_bytes(sweep_writer()).len();
    assert!(v1_4 < v1_3, "v1.4 {v1_4} B vs v1.3 {v1_3} B");
}

/// A stateful revision's golden: its frames decode, with a reader state
/// of their own, to the dataset, and `write`, from the same empty state,
/// renders what they decode to back to the committed bytes. A reader
/// that keeps no state refuses exactly the batches holding a run.
/// Returns the kinds the dataset frames hold.
fn assert_stream_reencodes(
    frames: &[Vec<u8>],
    mut write: impl FnMut(&ExportBatch, &mut Vec<u8>),
) -> Vec<u8> {
    assert_decodes_to_the_dataset(frames, delta_reader());
    let dataset = &frames[..frames.len() - 1];
    let mut read = delta_reader();
    let mut all = Vec::new();
    for payload in dataset {
        let (batch, _) = read(payload).unwrap();
        let mut again = Vec::new();
        write(&batch, &mut again);
        assert_eq!(&again, payload, "re-encode identity");
        let kinds = wire_kinds(payload);
        let runs = kinds.contains(&KIND_SAMPLES_DELTA) || kinds.contains(&KIND_SWEEP);
        assert_eq!(decode_batch(payload).is_err(), runs);
        all.extend(kinds);
    }
    all
}

// ------------------------------------------------------ query protocol

/// The deterministic fleet behind the query-exchange golden stream:
/// two nodes exporting a sketched gauge `m` with different offsets and
/// stream lengths (so health classifies one node stale under the
/// recorded bound), ingested through the real wire batches.
fn golden_fleet() -> FleetAggregator {
    let mut agg = FleetAggregator::new();
    for (k, samples) in [(0u64, 700usize), (1, 500)] {
        let mut db = Tsdb::with_retention(1 << 12);
        let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
        db.enable_rollups(
            id,
            &RollupConfig::new(vec![RollupTier::new(SimDuration::from_secs(10), 64)])
                .with_sketches(),
        );
        for s in 0..samples as u64 {
            db.insert(
                id,
                SimTime::from_secs(1 + s),
                1000.0 * k as f64 + ((s * 31) % 97) as f64,
            );
        }
        let mut sink = MemorySink::new();
        Exporter::new()
            .with_batch_records(64)
            .drain(&db, &mut sink)
            .unwrap();
        let node = agg.add_node(&format!("node{k:02}"));
        for batch in &sink.batches {
            agg.ingest(node, batch);
        }
    }
    agg
}

/// One request of every kind, plus one the server must refuse (a
/// fleet-wide `Last`) — the refusal's reason code and detail are part
/// of the recorded contract.
fn golden_requests() -> Vec<QueryRequest> {
    let now = SimTime::from_secs(701);
    let window = SimDuration::from_secs(701);
    let stale_after = SimDuration::from_secs(120);
    let metric = "m".to_string();
    vec![
        QueryRequest::WindowAgg {
            metric: metric.clone(),
            now,
            window,
            agg: WindowAgg::Percentile(0.99),
        },
        QueryRequest::TopNodes {
            metric: metric.clone(),
            now,
            window,
            agg: WindowAgg::Mean,
            k: 2,
            rank: Rank::Highest,
        },
        QueryRequest::Health { now, stale_after },
        QueryRequest::CoveredWindowAgg {
            metric: metric.clone(),
            now,
            window,
            agg: WindowAgg::Sum,
            stale_after,
        },
        QueryRequest::CoveredTopNodes {
            metric: metric.clone(),
            now,
            window,
            agg: WindowAgg::Percentile(0.5),
            k: 2,
            rank: Rank::Lowest,
            stale_after,
        },
        QueryRequest::Metrics,
        QueryRequest::WindowAgg {
            metric,
            now,
            window,
            agg: WindowAgg::Last,
        },
    ]
}

/// The recorded exchange: alternating `QUERY` / `QUERY_RESP` frames,
/// request ids counting up from 1, each response computed by the
/// current planner on the deterministic fleet.
fn golden_query_bytes() -> Vec<u8> {
    let fleet = golden_fleet();
    let mut out = Vec::new();
    for (i, req) in golden_requests().iter().enumerate() {
        let id = (i + 1) as u64;
        let mut payload = id.to_le_bytes().to_vec();
        encode_request(req, &mut payload);
        write_frame(&mut out, frame_tag::QUERY, &payload).unwrap();

        let mut payload = id.to_le_bytes().to_vec();
        encode_response(&execute(&fleet, req), &mut payload);
        write_frame(&mut out, frame_tag::QUERY_RESP, &payload).unwrap();
    }
    out
}

#[test]
fn golden_query_exchange_decodes_and_matches_the_planner() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(QUERY_GOLDEN_PATH);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, golden_query_bytes()).unwrap();
    }
    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
        panic!("{QUERY_GOLDEN_PATH} unreadable ({e}); generate it with GOLDEN_REGEN=1")
    });

    // Writer stability: the current codec + planner reproduce the
    // committed exchange bit-for-bit.
    assert_eq!(
        bytes,
        golden_query_bytes(),
        "current query codec or planner drifted from the committed golden \
         exchange; if the change is an intentional protocol revision, update \
         docs/FLEET_SERVICE.md and regenerate with GOLDEN_REGEN=1"
    );

    // Reader compatibility: walk the committed frames with the current
    // decoders and re-derive every answer.
    let fleet = golden_fleet();
    let requests = golden_requests();
    let mut r = &bytes[..];
    let mut pairs = Vec::new();
    loop {
        let (tag, q) = match read_frame(&mut r).expect("golden read never io-errors") {
            Ok(frame) => frame,
            Err(end) => {
                assert_eq!(end, FrameEnd::Clean, "stream ends on a frame boundary");
                break;
            }
        };
        assert_eq!(tag, frame_tag::QUERY);
        let (tag, resp) = read_frame(&mut r)
            .expect("golden read never io-errors")
            .expect("every request frame is followed by its response");
        assert_eq!(tag, frame_tag::QUERY_RESP);
        pairs.push((q, resp));
    }
    assert_eq!(pairs.len(), requests.len());

    for (i, ((q, resp), want_req)) in pairs.iter().zip(&requests).enumerate() {
        let id = (i + 1) as u64;
        assert_eq!(u64::from_le_bytes(q[..8].try_into().unwrap()), id);
        assert_eq!(u64::from_le_bytes(resp[..8].try_into().unwrap()), id);

        // The original request re-encodes identically (encoding is
        // total — even the refused request has stable bytes).
        let mut again = id.to_le_bytes().to_vec();
        encode_request(want_req, &mut again);
        assert_eq!(&again, q, "request {i} re-encode identity");

        let answer = decode_response(&resp[8..]).expect("committed response decodes");
        match decode_request(&q[8..]) {
            // Request decodes to the original; the recorded response
            // matches the current planner's answer on the same fleet.
            Ok(req) => {
                assert_eq!(&req, want_req);
                assert_eq!(answer, execute(&fleet, &req), "response {i} planner match");
            }
            // The server-side refusal path: a request `decode_request`
            // rejects draws exactly the recorded typed error.
            Err(e) => {
                assert_eq!(answer, QueryResponse::Error(e), "refusal {i} match");
            }
        }
        let mut again = id.to_le_bytes().to_vec();
        encode_response(&answer, &mut again);
        assert_eq!(&again, resp, "response {i} re-encode identity");
    }

    // The recorded refusal really is a refusal (fleet-wide `Last`).
    let last = decode_response(&pairs.last().unwrap().1[8..]).unwrap();
    match last {
        QueryResponse::Error(e) => {
            assert_eq!(e.code, moda::fleet::QueryErrorCode::UnsupportedAggregate);
        }
        other => panic!("expected the recorded refusal, got {other:?}"),
    }
}
