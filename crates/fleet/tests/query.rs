//! Protocol conformance + equivalence suite for the serving front end
//! (`moda_fleet::query` over `FleetListener`/`FleetClient`).
//!
//! Four contracts, each pinned here:
//!
//! * **equivalence** — every remote answer is bit-identical
//!   (`f64::to_bits`, full metadata structs) to the in-process planner
//!   answer on an identically-fed `FleetAggregator`, over arbitrary
//!   fleets (including silent nodes and zero-contributor axes) and
//!   arbitrary query mixes;
//! * **fail closed** — arbitrary bytes never panic the codec; hostile
//!   frames never kill the server (typed `Error` responses for bad
//!   payloads inside valid envelopes, connection close for corrupt
//!   envelopes, listener keeps accepting either way); a rogue server's
//!   hostile responses surface as `Err` from `FleetClient`, never a
//!   panic or a wrong answer;
//! * **session discipline** — auth is mandatory and counted, roles are
//!   exclusive (ingest frames on a query session close it), pipelined
//!   answers come back strictly in request order;
//! * **durability** — queries served concurrently with live ingest
//!   streams, across a SIGKILL/recovery cycle of the `fleet_service`
//!   binary, answer bit-identically before and after the kill.
//!
//! The working directory defaults to a per-process temp dir; set
//! `FLEET_QUERY_DIR` to pin it somewhere collectable (the `fleet-query`
//! CI job points it into `target/` and uploads it on failure).

use moda_fleet::query::{decode_request, decode_response, encode_request, encode_response};
use moda_fleet::MetricsAnswer;
use moda_fleet::{
    DurabilityConfig, DurableFleet, FleetAggregator, FleetClient, FleetListener, NodeId,
    QueryErrorCode, QueryRequest, QueryResponse, Rank, SocketSink, TransportConfig,
};
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::export::{ExportBatch, MemorySink, Sink};
use moda_telemetry::wire::{frame_tag, read_frame, write_frame};
use moda_telemetry::{
    DrainStats, Exporter, MetricMeta, RollupConfig, RollupTier, SourceDomain, Tsdb, WindowAgg,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const TOKEN: &str = "query-test-token";

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique working directory per test case (CI pins the base via
/// `FLEET_QUERY_DIR` so failures upload the snapshot + wal).
fn work_dir(tag: &str) -> PathBuf {
    let base = match std::env::var_os("FLEET_QUERY_DIR") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir(),
    };
    let n = DIR_SEQ.fetch_add(1, Ordering::SeqCst);
    base.join(format!("moda_fleet_query_{tag}_{}_{n}", std::process::id()))
}

/// Fast-failing transport tuning so hostile-peer tests stay quick.
fn fast_cfg() -> TransportConfig {
    TransportConfig {
        reconnect_attempts: 2,
        reconnect_pause: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
        io_timeout: Some(Duration::from_secs(5)),
        ..TransportConfig::default()
    }
}

/// One node's wire stream off a real sketched store (sealed buckets,
/// sketch columns, raw tail), plus the exporter's drain totals.
fn node_stream(offset: f64, samples: usize) -> (Vec<ExportBatch>, DrainStats) {
    let cfg = RollupConfig::new(vec![
        RollupTier::new(SimDuration::from_secs(10), 256),
        RollupTier::new(SimDuration::from_secs(60), 64),
    ])
    .with_sketches();
    let mut db = Tsdb::with_retention(1 << 12);
    let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
    db.enable_rollups(id, &cfg);
    for s in 0..samples as u64 {
        db.insert(
            id,
            SimTime::from_secs(1 + s),
            offset + ((s * 31) % 997) as f64,
        );
    }
    let mut sink = MemorySink::new();
    let mut exporter = Exporter::new().with_batch_records(64);
    exporter.drain(&db, &mut sink).unwrap();
    (sink.batches, exporter.totals())
}

/// Feed the same streams into a served `DurableFleet` and a plain
/// in-process `FleetAggregator`; nodes whose stream is empty are
/// registered but never ingest (the silent-node case). Returns the
/// live listener plus the independently-built reference.
fn serve_fleet(
    dir: &Path,
    streams: &[(Vec<ExportBatch>, DrainStats)],
) -> (FleetListener, FleetAggregator) {
    let _ = std::fs::remove_dir_all(dir);
    let mut durable = DurableFleet::open(dir, DurabilityConfig::default()).unwrap();
    let mut reference = FleetAggregator::new();
    for (k, (batches, totals)) in streams.iter().enumerate() {
        let name = format!("node{k:02}");
        let d = durable.add_node(&name).unwrap();
        let r = reference.add_node(&name);
        for batch in batches {
            durable.ingest(d, batch).unwrap();
            reference.ingest(r, batch);
        }
        if !batches.is_empty() {
            durable.report_drain(d, totals).unwrap();
            reference.report_drain(r, totals);
        }
    }
    let listener =
        FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(durable)), TOKEN).unwrap();
    (listener, reference)
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// `(node, name, value bits)` form of an in-process ranking, for exact
/// comparison against the wire's `TopNodeEntry` list.
fn ranked(agg: &FleetAggregator, raw: Vec<(NodeId, f64)>) -> Vec<(NodeId, String, u64)> {
    raw.into_iter()
        .map(|(n, v)| (n, agg.node_name(n).to_string(), v.to_bits()))
        .collect()
}

fn entries(list: &[moda_fleet::TopNodeEntry]) -> Vec<(NodeId, String, u64)> {
    list.iter()
        .map(|e| (e.node, e.name.clone(), e.value.to_bits()))
        .collect()
}

// ----------------------------------------------------------- equivalence

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary fleets (varying node counts, stream lengths, offsets,
    /// silent nodes) × arbitrary query mixes: the remote answer is
    /// bit-identical to the in-process planner's, including serving
    /// metadata, coverage classification, top-k order, and the
    /// zero-contributor axis.
    #[test]
    fn remote_answers_bit_identical_to_in_process(
        specs in prop::collection::vec((0u32..4, 0usize..160), 1..5),
        qnum in 0u32..1001,
        window_s in 1u64..4000,
        now_extra in 0u64..240,
    ) {
        let streams: Vec<(Vec<ExportBatch>, DrainStats)> = specs
            .iter()
            .map(|&(off, samples)| {
                // Short draws become registered-but-silent nodes.
                let samples = if samples < 40 { 0 } else { samples };
                node_stream(500.0 * off as f64, samples)
            })
            .collect();
        let max_samples = specs.iter().map(|s| s.1).max().unwrap_or(0) as u64;
        let now = SimTime::from_secs(max_samples + 1 + now_extra);
        let q = qnum as f64 / 1000.0;

        let dir = work_dir("equiv");
        let (listener, reference) = serve_fleet(&dir, &streams);
        let addr = listener.local_addr().to_string();
        let mut client = FleetClient::connect_with(&addr, TOKEN, fast_cfg()).unwrap();
        let store = reference.store();

        let windows = [SimDuration::from_secs(window_s), SimDuration(now.0)];
        let stale_afters = [
            SimDuration::from_secs(30),
            SimDuration::from_secs(1_000_000),
        ];

        // "m" is the shared axis; "absent" pins the zero-contributor
        // path end to end.
        for metric in ["m", "absent"] {
            for &w in &windows {
                for agg in [
                    WindowAgg::Count,
                    WindowAgg::Sum,
                    WindowAgg::Mean,
                    WindowAgg::Min,
                    WindowAgg::Max,
                    WindowAgg::Percentile(q),
                    WindowAgg::Percentile(0.0),
                    WindowAgg::Percentile(1.0),
                ] {
                    let (want_v, want_s) = store.fleet_window_agg_served(metric, now, w, agg);
                    let got = client.window_agg(metric, now, w, agg).unwrap();
                    prop_assert_eq!(bits(got.value), bits(want_v), "{} {:?}", metric, agg);
                    prop_assert_eq!(got.served, want_s);
                }
                // Rankings: `Last` is legal here (per-node time order).
                for agg in [WindowAgg::Mean, WindowAgg::Percentile(q), WindowAgg::Last] {
                    for rank in [Rank::Highest, Rank::Lowest] {
                        for k in [1usize, streams.len() + 2] {
                            let want =
                                ranked(&reference, store.top_nodes(metric, now, w, agg, k, rank));
                            let got = client
                                .top_nodes(metric, now, w, agg, k as u32, rank)
                                .unwrap();
                            prop_assert_eq!(entries(&got), want);
                        }
                    }
                }
                for &sa in &stale_afters {
                    let want = reference.covered_window_agg(metric, now, w, WindowAgg::Sum, sa);
                    let got = client
                        .covered_window_agg(metric, now, w, WindowAgg::Sum, sa)
                        .unwrap();
                    prop_assert_eq!(bits(got.value), bits(want.value));
                    prop_assert_eq!(got.served, want.served);
                    prop_assert_eq!(got.coverage, want.coverage);

                    let (want_rank, want_cov) = reference.covered_top_nodes(
                        metric,
                        now,
                        w,
                        WindowAgg::Percentile(q),
                        3,
                        Rank::Highest,
                        sa,
                    );
                    let got = client
                        .covered_top_nodes(
                            metric,
                            now,
                            w,
                            WindowAgg::Percentile(q),
                            3,
                            Rank::Highest,
                            sa,
                        )
                        .unwrap();
                    prop_assert_eq!(entries(&got.entries), ranked(&reference, want_rank));
                    prop_assert_eq!(got.coverage, want_cov);
                }
            }
        }

        // Health under bounds that classify live, stale, and silent.
        for &sa in &stale_afters {
            let want = reference.health(now, sa);
            let got = client.health(now, sa).unwrap();
            prop_assert_eq!(got, want);
        }

        // Discovery listing.
        let want_axes: Vec<(String, u32)> = store
            .logical_axes()
            .into_iter()
            .map(|(n, c)| (n, c as u32))
            .collect();
        prop_assert_eq!(client.metrics().unwrap().axes, want_axes);

        drop(client);
        drop(listener.shutdown());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The degenerate fleet — no nodes registered at all — still answers
/// every query kind, bit-identically to the in-process planner.
#[test]
fn empty_fleet_answers_match_in_process() {
    let dir = work_dir("empty");
    let (listener, reference) = serve_fleet(&dir, &[]);
    let addr = listener.local_addr().to_string();
    let mut client = FleetClient::connect_with(&addr, TOKEN, fast_cfg()).unwrap();
    let now = SimTime::from_secs(60);
    let w = SimDuration::from_secs(60);
    let sa = SimDuration::from_secs(30);

    let got = client.window_agg("m", now, w, WindowAgg::Mean).unwrap();
    let (want_v, want_s) = reference
        .store()
        .fleet_window_agg_served("m", now, w, WindowAgg::Mean);
    assert_eq!(bits(got.value), bits(want_v));
    assert_eq!(got.served, want_s);
    assert!(got.value.is_none());

    assert!(client
        .top_nodes("m", now, w, WindowAgg::Mean, 5, Rank::Highest)
        .unwrap()
        .is_empty());

    let health = client.health(now, sa).unwrap();
    assert_eq!(health, reference.health(now, sa));
    assert_eq!((health.live, health.stale, health.silent), (0, 0, 0));

    let covered = client
        .covered_window_agg("m", now, w, WindowAgg::Sum, sa)
        .unwrap();
    let want = reference.covered_window_agg("m", now, w, WindowAgg::Sum, sa);
    assert_eq!(bits(covered.value), bits(want.value));
    assert_eq!(covered.coverage, want.coverage);
    assert_eq!(covered.coverage.total, 0);

    assert_eq!(client.metrics().unwrap().axes, Vec::<(String, u32)>::new());

    drop(listener.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------ fail closed

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The codec never panics on arbitrary input, and anything it does
    /// accept re-encodes to a decodable equal value (decode∘encode is
    /// the identity on the accepted set).
    #[test]
    fn codec_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u16..256, 0..300),
    ) {
        let buf: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        if let Ok(req) = decode_request(&buf) {
            let mut re = Vec::new();
            encode_request(&req, &mut re);
            prop_assert_eq!(decode_request(&re).unwrap(), req);
        }
        if let Ok(resp) = decode_response(&buf) {
            let mut re = Vec::new();
            encode_response(&resp, &mut re);
            prop_assert_eq!(decode_response(&re).unwrap(), resp);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hostile bytes on the wire — pure junk on one connection, a
    /// bit-flipped but otherwise valid handshake + query stream on
    /// another — never kill the listener: a well-behaved client still
    /// gets served afterwards.
    #[test]
    fn arbitrary_bytes_never_kill_the_listener(
        junk in prop::collection::vec(0u16..256, 1..200),
        flip in 0usize..10_000,
    ) {
        let dir = work_dir("hostile");
        let (listener, _reference) = serve_fleet(&dir, &[]);
        let addr = listener.local_addr();

        // Connection 1: raw junk.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            let buf: Vec<u8> = junk.iter().map(|&b| b as u8).collect();
            s.write_all(&buf).ok();
            // Whether the server closes (corrupt envelope) or waits for
            // more (incomplete frame), dropping the socket must be
            // absorbed either way.
        }

        // Connection 2: a valid hello + Metrics query with one flipped
        // bit somewhere in the stream.
        {
            let mut stream = Vec::new();
            let mut hello = Vec::new();
            put_str16(&mut hello, TOKEN);
            write_frame(&mut stream, frame_tag::QUERY_HELLO, &hello).unwrap();
            let mut q = Vec::new();
            q.extend_from_slice(&7u64.to_le_bytes());
            encode_request(&QueryRequest::Metrics, &mut q);
            write_frame(&mut stream, frame_tag::QUERY, &q).unwrap();
            let bit = flip % (stream.len() * 8);
            stream[bit / 8] ^= 1 << (bit % 8);

            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
            s.write_all(&stream).ok();
            // Drain whatever the server says (ack, typed refusal, or
            // nothing before it closes); only absence of a server panic
            // matters here.
            let mut sink = [0u8; 4096];
            while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
        }

        // Proof of life.
        let mut client =
            FleetClient::connect_with(&addr.to_string(), TOKEN, fast_cfg()).unwrap();
        prop_assert!(client.metrics().unwrap().axes.is_empty());

        drop(client);
        drop(listener.shutdown());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `[len u16 LE][bytes]` string block, the hello payload layout.
fn put_str16(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn raw_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::new();
    write_frame(&mut v, tag, payload).unwrap();
    v
}

/// Dial and complete the query handshake by hand, returning the raw
/// stream for frame-level protocol tests.
fn raw_query_session(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut hello = Vec::new();
    put_str16(&mut hello, TOKEN);
    s.write_all(&raw_frame(frame_tag::QUERY_HELLO, &hello))
        .unwrap();
    let (tag, ack) = read_frame(&mut s).unwrap().expect("hello ack");
    assert_eq!(tag, frame_tag::QUERY_HELLO_ACK);
    assert_eq!(ack[0], 0, "auth accepted");
    s
}

/// Send one raw QUERY payload and decode the matched response.
fn raw_roundtrip(s: &mut TcpStream, payload: &[u8]) -> (u64, QueryResponse) {
    s.write_all(&raw_frame(frame_tag::QUERY, payload)).unwrap();
    let (tag, resp) = read_frame(s).unwrap().expect("response frame");
    assert_eq!(tag, frame_tag::QUERY_RESP);
    let id = u64::from_le_bytes(resp[..8].try_into().unwrap());
    (id, decode_response(&resp[8..]).unwrap())
}

fn expect_error(resp: QueryResponse, code: QueryErrorCode) {
    match resp {
        QueryResponse::Error(e) => assert_eq!(e.code, code, "{e:?}"),
        other => panic!("expected {code:?} refusal, got {other:?}"),
    }
}

/// Every malformed-payload shape inside a *valid* envelope draws a
/// typed `Error` response and leaves the session usable; every corrupt
/// *envelope* closes the connection; and in all cases the listener
/// keeps serving new clients.
#[test]
fn hostile_frames_get_typed_refusals_and_sessions_fail_closed() {
    let dir = work_dir("refusals");
    let (listener, _reference) = serve_fleet(&dir, &[node_stream(0.0, 120)]);
    let addr = listener.local_addr();

    // --- Valid envelope, malformed payloads: refusal + session survives.
    let mut s = raw_query_session(addr);

    // Too short to carry a request id: Malformed, id echoes the
    // u64::MAX sentinel.
    let (id, resp) = raw_roundtrip(&mut s, &[1, 2, 3]);
    assert_eq!(id, u64::MAX);
    expect_error(resp, QueryErrorCode::Malformed);

    // Unknown protocol version.
    let mut p = 11u64.to_le_bytes().to_vec();
    p.extend_from_slice(&[0xEE, 0xEE]);
    let (id, resp) = raw_roundtrip(&mut s, &p);
    assert_eq!(id, 11);
    expect_error(resp, QueryErrorCode::UnsupportedVersion);

    // Unknown request kind.
    let mut p = 12u64.to_le_bytes().to_vec();
    p.extend_from_slice(&[1, 0, 0xEE]);
    let (id, resp) = raw_roundtrip(&mut s, &p);
    assert_eq!(id, 12);
    expect_error(resp, QueryErrorCode::UnknownKind);

    // Truncated fields.
    let mut p = 13u64.to_le_bytes().to_vec();
    p.extend_from_slice(&[1, 0, 1, 2]);
    let (_, resp) = raw_roundtrip(&mut s, &p);
    expect_error(resp, QueryErrorCode::Malformed);

    // Trailing bytes after a well-formed request.
    let mut p = 14u64.to_le_bytes().to_vec();
    encode_request(&QueryRequest::Metrics, &mut p);
    p.push(0);
    let (_, resp) = raw_roundtrip(&mut s, &p);
    expect_error(resp, QueryErrorCode::Malformed);

    // The session survived all of it: a good query still answers.
    let mut p = 15u64.to_le_bytes().to_vec();
    encode_request(&QueryRequest::Metrics, &mut p);
    let (id, resp) = raw_roundtrip(&mut s, &p);
    assert_eq!(id, 15);
    assert_eq!(
        resp,
        QueryResponse::Metrics(MetricsAnswer {
            axes: vec![("m".to_string(), 1)]
        })
    );
    drop(s);

    // --- Query before hello: typed Unauthorized refusal, then close.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut p = 21u64.to_le_bytes().to_vec();
        encode_request(&QueryRequest::Metrics, &mut p);
        s.write_all(&raw_frame(frame_tag::QUERY, &p)).unwrap();
        let (tag, resp) = read_frame(&mut s).unwrap().expect("refusal frame");
        assert_eq!(tag, frame_tag::QUERY_RESP);
        assert_eq!(u64::from_le_bytes(resp[..8].try_into().unwrap()), 21);
        expect_error(
            decode_response(&resp[8..]).unwrap(),
            QueryErrorCode::Unauthorized,
        );
        assert!(read_frame(&mut s).unwrap().is_err(), "connection closed");
    }

    // --- Ingest frame on a query session: close, no answer.
    {
        let mut s = raw_query_session(addr);
        s.write_all(&raw_frame(frame_tag::BATCH, &[0xAB; 16]))
            .unwrap();
        assert!(read_frame(&mut s).unwrap().is_err(), "connection closed");
    }

    // --- Corrupt envelope (flipped payload bit → CRC mismatch): close.
    {
        let mut s = raw_query_session(addr);
        let mut p = 31u64.to_le_bytes().to_vec();
        encode_request(&QueryRequest::Metrics, &mut p);
        let mut frame = raw_frame(frame_tag::QUERY, &p);
        frame[5] ^= 0x40;
        s.write_all(&frame).unwrap();
        assert!(read_frame(&mut s).unwrap().is_err(), "connection closed");
    }

    // --- Absurd length prefix: close without allocating.
    {
        let mut s = raw_query_session(addr);
        s.write_all(&[0xFF, 0xFF, 0xFF, 0xFF, 0x00]).unwrap();
        assert!(read_frame(&mut s).unwrap().is_err(), "connection closed");
    }

    // The listener outlived every hostile session.
    let mut client = FleetClient::connect_with(&addr.to_string(), TOKEN, fast_cfg()).unwrap();
    assert_eq!(client.metrics().unwrap().axes, vec![("m".to_string(), 1)]);
    assert!(listener.queries_served() >= 7);

    drop(client);
    drop(listener.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

/// One rogue-server behavior per mode; every accepted connection gets
/// the same treatment so client-side retries land on identical
/// hostility.
fn rogue_server(mode: &'static str) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut s) = conn else { continue };
            let _ = serve_rogue(&mut s, mode);
        }
    });
    addr
}

fn serve_rogue(s: &mut TcpStream, mode: &'static str) -> std::io::Result<()> {
    s.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let (tag, _hello) = match read_frame(s)? {
        Ok(f) => f,
        Err(_) => return Ok(()),
    };
    assert_eq!(tag, frame_tag::QUERY_HELLO);
    // Honest handshake: status 0, protocol version 1.
    write_frame(s, frame_tag::QUERY_HELLO_ACK, &[0, 1, 0])?;
    s.flush()?;
    let (_, q) = match read_frame(s)? {
        Ok(f) => f,
        Err(_) => return Ok(()),
    };
    let id = u64::from_le_bytes(q[..8].try_into().unwrap());
    let honest = {
        let mut p = id.to_le_bytes().to_vec();
        encode_response(
            &QueryResponse::Metrics(MetricsAnswer { axes: Vec::new() }),
            &mut p,
        );
        p
    };
    match mode {
        "wrong_tag" => write_frame(s, frame_tag::ACK, &honest)?,
        "wrong_id" => {
            let mut p = (id ^ 1).to_le_bytes().to_vec();
            p.extend_from_slice(&honest[8..]);
            write_frame(s, frame_tag::QUERY_RESP, &p)?;
        }
        "short_payload" => write_frame(s, frame_tag::QUERY_RESP, &honest[..4])?,
        "unknown_kind" => {
            let mut p = id.to_le_bytes().to_vec();
            p.extend_from_slice(&[1, 0, 0xEE]);
            write_frame(s, frame_tag::QUERY_RESP, &p)?;
        }
        "corrupt_crc" => {
            let mut frame = raw_frame(frame_tag::QUERY_RESP, &honest);
            let n = frame.len();
            frame[n - 1] ^= 0xFF;
            s.write_all(&frame)?;
        }
        "close" => return Ok(()),
        _ => unreachable!("unknown rogue mode"),
    }
    s.flush()
}

/// A server that reorders, mislabels, truncates, corrupts, or drops
/// responses makes `FleetClient` fail closed with `Err` — never a
/// panic, never a fabricated answer.
#[test]
fn rogue_server_responses_fail_closed_without_panic() {
    for mode in [
        "wrong_tag",
        "wrong_id",
        "short_payload",
        "unknown_kind",
        "corrupt_crc",
        "close",
    ] {
        let addr = rogue_server(mode);
        let mut client = FleetClient::connect_with(&addr.to_string(), TOKEN, fast_cfg()).unwrap();
        let err = client.metrics().expect_err(mode);
        assert_ne!(
            err.kind(),
            std::io::ErrorKind::PermissionDenied,
            "{mode}: transport corruption must not masquerade as auth"
        );
    }
}

// ------------------------------------------------------- session rules

/// Auth and aggregate-validation conformance: bad tokens are refused
/// and counted; invalid requests draw their documented reason codes
/// over the full client path.
#[test]
fn auth_and_validation_refusals_carry_their_codes() {
    let dir = work_dir("auth");
    let (listener, _reference) = serve_fleet(&dir, &[node_stream(0.0, 120)]);
    let addr = listener.local_addr().to_string();
    let now = SimTime::from_secs(200);
    let w = SimDuration::from_secs(100);

    // Bad token: PermissionDenied at connect, counted by the listener.
    let before = listener.auth_failures();
    let err = FleetClient::connect_with(&addr, "wrong-token", fast_cfg()).expect_err("bad token");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    assert_eq!(listener.auth_failures(), before + 1);

    let mut client = FleetClient::connect_with(&addr, TOKEN, fast_cfg()).unwrap();
    assert_eq!(client.server_version(), moda_fleet::QUERY_PROTOCOL_VERSION);

    // Fleet-wide Last: typed UnsupportedAggregate through the raw path…
    let resp = client
        .request(&QueryRequest::WindowAgg {
            metric: "m".to_string(),
            now,
            window: w,
            agg: WindowAgg::Last,
        })
        .unwrap();
    expect_error(resp, QueryErrorCode::UnsupportedAggregate);

    // …and an InvalidData error through the typed helper.
    let err = client
        .window_agg("m", now, w, WindowAgg::Last)
        .expect_err("fleet-wide Last");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // NaN / out-of-range percentile ranks: BadField.
    for bad_q in [f64::NAN, f64::INFINITY, -0.25, 1.5] {
        let resp = client
            .request(&QueryRequest::WindowAgg {
                metric: "m".to_string(),
                now,
                window: w,
                agg: WindowAgg::Percentile(bad_q),
            })
            .unwrap();
        expect_error(resp, QueryErrorCode::BadField);
    }

    // Refusals kept the session serving: a good query still answers.
    assert!(client
        .window_agg("m", now, w, WindowAgg::Count)
        .unwrap()
        .value
        .is_some());

    drop(client);
    drop(listener.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pipelined requests answer strictly in request order, with each
/// response id matching its request — including typed refusals
/// interleaved mid-pipeline.
#[test]
fn pipelined_requests_answer_in_order() {
    let dir = work_dir("pipeline");
    let (listener, reference) = serve_fleet(&dir, &[node_stream(0.0, 120), node_stream(50.0, 120)]);
    let addr = listener.local_addr().to_string();
    let mut client = FleetClient::connect_with(&addr, TOKEN, fast_cfg()).unwrap();
    let now = SimTime::from_secs(200);
    let w = SimDuration::from_secs(200);

    let reqs = [
        QueryRequest::Metrics,
        QueryRequest::WindowAgg {
            metric: "m".to_string(),
            now,
            window: w,
            agg: WindowAgg::Sum,
        },
        // A refusal in the middle of the pipeline…
        QueryRequest::WindowAgg {
            metric: "m".to_string(),
            now,
            window: w,
            agg: WindowAgg::Last,
        },
        QueryRequest::Health {
            now,
            stale_after: SimDuration::from_secs(60),
        },
        QueryRequest::TopNodes {
            metric: "m".to_string(),
            now,
            window: w,
            agg: WindowAgg::Percentile(0.5),
            k: 2,
            rank: Rank::Lowest,
        },
    ];
    let ids: Vec<u64> = reqs.iter().map(|r| client.send(r).unwrap()).collect();
    for (i, &id) in ids.iter().enumerate() {
        let (got_id, resp) = client.recv().unwrap();
        assert_eq!(got_id, id, "response {i} out of order");
        match (i, resp) {
            (0, QueryResponse::Metrics(m)) => {
                assert_eq!(m.axes, vec![("m".to_string(), 2)]);
            }
            (1, QueryResponse::Scalar(a)) => {
                let (want, _) =
                    reference
                        .store()
                        .fleet_window_agg_served("m", now, w, WindowAgg::Sum);
                assert_eq!(bits(a.value), bits(want));
            }
            (2, resp) => expect_error(resp, QueryErrorCode::UnsupportedAggregate),
            (3, QueryResponse::Health(h)) => {
                assert_eq!(h, reference.health(now, SimDuration::from_secs(60)));
            }
            (4, QueryResponse::TopNodes(t)) => {
                let want = ranked(
                    &reference,
                    reference.store().top_nodes(
                        "m",
                        now,
                        w,
                        WindowAgg::Percentile(0.5),
                        2,
                        Rank::Lowest,
                    ),
                );
                assert_eq!(entries(&t), want);
            }
            (i, other) => panic!("response {i} has wrong kind: {other:?}"),
        }
    }
    assert_eq!(listener.queries_served(), reqs.len() as u64);

    drop(client);
    drop(listener.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- concurrency + SIGKILL

const NODES: usize = 3;
const SAMPLES: usize = 1800;

fn spawn_service(dir: &Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fleet_service"))
        .arg("serve")
        .arg(dir)
        .args(["127.0.0.1:0", TOKEN, "--snapshot-every", "5"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn fleet_service");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read READY line");
    let addr = line
        .trim()
        .strip_prefix("READY ")
        .unwrap_or_else(|| panic!("unexpected service banner: {line:?}"))
        .to_string();
    (child, addr)
}

/// Everything the acceptance clause names, fetched **remotely**:
/// window aggregates, the merged fleet p99, top-k, health, coverage.
fn remote_fingerprint(client: &mut FleetClient, now: SimTime) -> Vec<String> {
    let span = SimDuration(now.0);
    let sa = SimDuration::from_secs(120);
    let mut out = Vec::new();
    for agg in [
        WindowAgg::Count,
        WindowAgg::Sum,
        WindowAgg::Min,
        WindowAgg::Max,
        WindowAgg::Mean,
        WindowAgg::Percentile(0.99),
    ] {
        let a = client.window_agg("m", now, span, agg).unwrap();
        out.push(format!("{agg:?}={:?} {:?}", bits(a.value), a.served));
    }
    let top = client
        .top_nodes("m", now, span, WindowAgg::Mean, NODES as u32, Rank::Highest)
        .unwrap();
    out.push(format!("top={:?}", entries(&top)));
    out.push(format!("health={:?}", client.health(now, sa).unwrap()));
    let c = client
        .covered_window_agg("m", now, span, WindowAgg::Sum, sa)
        .unwrap();
    out.push(format!(
        "covered={:?} {:?} {:?}",
        bits(c.value),
        c.served,
        c.coverage
    ));
    out
}

/// The same fingerprint computed in-process on the reference
/// aggregator, through the same wire projections.
fn local_fingerprint(agg: &FleetAggregator, now: SimTime) -> Vec<String> {
    let store = agg.store();
    let span = SimDuration(now.0);
    let sa = SimDuration::from_secs(120);
    let mut out = Vec::new();
    for kind in [
        WindowAgg::Count,
        WindowAgg::Sum,
        WindowAgg::Min,
        WindowAgg::Max,
        WindowAgg::Mean,
        WindowAgg::Percentile(0.99),
    ] {
        let (v, s) = store.fleet_window_agg_served("m", now, span, kind);
        out.push(format!("{kind:?}={:?} {s:?}", bits(v)));
    }
    let top = ranked(
        agg,
        store.top_nodes("m", now, span, WindowAgg::Mean, NODES, Rank::Highest),
    );
    out.push(format!("top={top:?}"));
    out.push(format!("health={:?}", agg.health(now, sa)));
    let c = agg.covered_window_agg("m", now, span, WindowAgg::Sum, sa);
    out.push(format!(
        "covered={:?} {:?} {:?}",
        bits(c.value),
        c.served,
        c.coverage
    ));
    out
}

/// Queries stream concurrently with live ingest sessions, the service
/// is SIGKILLed and restarted on its directory, and the remote answers
/// after recovery are bit-identical to the answers before the kill —
/// which are themselves bit-identical to an uninterrupted in-process
/// run.
#[test]
fn queries_during_ingest_survive_sigkill_recovery_bit_identical() {
    let dir = work_dir("sigkill");
    let _ = std::fs::remove_dir_all(&dir);

    let streams: Vec<(Vec<ExportBatch>, DrainStats)> = (0..NODES)
        .map(|k| node_stream(1000.0 * k as f64, SAMPLES))
        .collect();
    let now = SimTime::from_secs(SAMPLES as u64 + 1);

    // Uninterrupted in-process reference.
    let mut reference = FleetAggregator::new();
    for (k, (batches, totals)) in streams.iter().enumerate() {
        let node = reference.add_node(&format!("node{k:02}"));
        for batch in batches {
            reference.ingest(node, batch);
        }
        reference.report_drain(node, totals);
    }
    let want = local_fingerprint(&reference, now);

    // Serve, and hammer queries from a second connection while the
    // ingest sessions stream.
    let (mut server, addr) = spawn_service(&dir);
    let stop = Arc::new(AtomicBool::new(false));
    let query_thread = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = FleetClient::connect_with(&addr, TOKEN, fast_cfg()).unwrap();
            let mut served = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let t = SimTime::from_secs(SAMPLES as u64);
                let w = SimDuration::from_secs(SAMPLES as u64);
                // Interleaved ingest must never make a concurrent read
                // fail or panic — each answer is a consistent snapshot.
                client.health(t, SimDuration::from_secs(120)).unwrap();
                client.window_agg("m", t, w, WindowAgg::Count).unwrap();
                client.metrics().unwrap();
                served += 3;
            }
            served
        })
    };

    let mut sinks: Vec<SocketSink> = (0..NODES)
        .map(|k| SocketSink::connect(&addr, &format!("node{k:02}"), TOKEN).unwrap())
        .collect();
    for (k, sink) in sinks.iter_mut().enumerate() {
        for batch in &streams[k].0 {
            sink.write_batch(batch).unwrap();
        }
        sink.send_drain(&streams[k].1).unwrap();
        sink.wait_idle().unwrap();
    }

    stop.store(true, Ordering::SeqCst);
    let concurrent_queries = query_thread.join().expect("query thread");
    assert!(
        concurrent_queries > 0,
        "no queries actually overlapped the ingest streams"
    );

    // Pre-kill remote answers == uninterrupted in-process answers.
    let mut client = FleetClient::connect_with(&addr, TOKEN, fast_cfg()).unwrap();
    let pre_kill = remote_fingerprint(&mut client, now);
    assert_eq!(pre_kill, want);
    drop(client);

    // SIGKILL mid-life, restart on the same directory.
    server.kill().expect("SIGKILL fleet_service");
    server.wait().expect("reap killed service");
    let (mut server2, addr2) = spawn_service(&dir);

    // Post-recovery remote answers: bit-identical to pre-kill.
    let mut client = FleetClient::connect_with(&addr2, TOKEN, fast_cfg()).unwrap();
    let post_recovery = remote_fingerprint(&mut client, now);
    assert_eq!(post_recovery, pre_kill);

    drop(client);
    server2.kill().expect("SIGKILL restarted service");
    server2.wait().expect("reap restarted service");
    let _ = std::fs::remove_dir_all(&dir);
}
