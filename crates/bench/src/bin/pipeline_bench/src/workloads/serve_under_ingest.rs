//! `serve_under_ingest`: reads beside writes on one fleet.
//!
//! The fleet is preloaded in-process with 16 nodes × 32 metrics × 2 h, so
//! its raw rings hold sealed chunks and its rollup tiers hours of sketched
//! buckets. Thread A, open loop: one 256-metric sweep every 10 ms
//! (25.6 k samples/s), drained and waited for. Thread B, open loop:
//! Poisson arrivals at 500 queries/s over a seeded mix. Both are timed
//! from the due time;
//! every session — ingest and query — serialises on the one fleet lock,
//! so a gain for queries that costs ingest acks (or the reverse) shows.

use super::{close_round, span_readings, Closing, SERIES_SHAPE};
use crate::fixture::{
    answer_bytes, check_answers, local_answers, lock, node_pass, node_store, round_obs,
    round_recorder, Fleet, LiveNode, NodeLink, NodeShape, RunCfg,
};
use crate::gen::{self, QueryClass, SweepPool, POWER_AXIS};
use crate::layers;
use crate::metrics::Round;
use crate::probe::{confirm_query, STALE_AFTER};
use crate::runner::{RoundOutput, HEADLINE};
use crate::sched::{charge, periodic, OpenLoop};
use crate::spans::Layer;
use crate::stats;
use moda_fleet::{DurabilityConfig, DurableFleet, FleetClient, QueryRequest, QueryResponse, Rank};
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::export::{ExportBatch, MemorySink};
use moda_telemetry::{Exporter, WindowAgg};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const PRELOAD_NODES: usize = 16;
const PRELOAD_S: u64 = 2 * 3600;
const PRELOAD_SHAPE: NodeShape = NodeShape {
    metrics: 32,
    sketched: 4,
    retention: 8192,
};
const LIVE_SHAPE: NodeShape = NodeShape {
    metrics: 256,
    sketched: 16,
    retention: 1024,
};
/// Sweeps of the single-thread node pass (`fixture::node_pass`).
const NODE_PASS_SWEEPS: u64 = 2000;
/// Sweeps the live node pushes before timing starts.
const WARM_SWEEPS: u64 = 20;
/// Thread A: sweeps per round and their period.
const SWEEPS: u64 = 100;
const SWEEP_EVERY: Duration = Duration::from_millis(10);
/// Thread B: queries per round and their mean arrival rate.
const QUERIES: usize = 500;
const QUERIES_PER_S: f64 = 500.0;
/// One in this many frozen-window answers is re-checked at quiescence.
const RECHECK_EVERY: usize = 16;

/// The request of one mix entry over a preload of `seconds`. `word`
/// picks the axis and the offset; `live_now` is the time of the live
/// node's newest acknowledged sweep.
fn request(class: QueryClass, word: u64, seconds: u64, live_now: SimTime) -> QueryRequest {
    let end = SimTime::from_secs(seconds);
    let plain_axis = format!("m{:03}", 2 + word % (PRELOAD_SHAPE.metrics as u64 - 2));
    let sketched_axis = format!("m{:03}", 2 + word % PRELOAD_SHAPE.sketched as u64);
    match class {
        // Unaligned (…,500 ms) and up to 50 min back: inside the fleet's
        // 4096-sample raw ring, across its sealed 512-sample chunks.
        QueryClass::NarrowRaw => QueryRequest::CoveredWindowAgg {
            metric: plain_axis,
            now: SimTime(end.0 - ((word >> 16) % (seconds / 2).min(3000)) * 1000 - 500),
            window: SimDuration::from_secs(90),
            agg: WindowAgg::Mean,
            stale_after: STALE_AFTER,
        },
        QueryClass::WideSketch => QueryRequest::WindowAgg {
            metric: sketched_axis,
            now: end,
            window: SimDuration::from_secs(seconds),
            agg: WindowAgg::Percentile(0.99),
        },
        QueryClass::TopNodes => QueryRequest::TopNodes {
            metric: POWER_AXIS.into(),
            now: end,
            window: SimDuration::from_hours(1),
            agg: WindowAgg::Mean,
            k: 5,
            rank: Rank::Highest,
        },
        QueryClass::LiveProbe => confirm_query(live_now),
        QueryClass::Health => QueryRequest::Health {
            now: end,
            stale_after: STALE_AFTER,
        },
        QueryClass::Metrics => QueryRequest::Metrics,
    }
}

/// Whether a class's answer is the same whenever it is asked during the
/// round: its window lies wholly inside the preload.
fn frozen(class: QueryClass) -> bool {
    matches!(
        class,
        QueryClass::NarrowRaw | QueryClass::WideSketch | QueryClass::TopNodes
    )
}

struct Served {
    /// Due → answered, per class.
    latency_ns: Vec<(QueryClass, u64)>,
    late_ns: Vec<u64>,
    rtt_ns: Vec<u64>,
    /// Frozen-window requests to re-check at quiescence, with the bytes
    /// they were answered with under load.
    recheck: Vec<(QueryRequest, Vec<u8>)>,
    failures: Vec<String>,
    by_class: Vec<(QueryClass, Vec<QueryRequest>)>,
}

/// Every preload node's whole history, drained once into memory, and
/// the samples it holds.
fn build_preload(cfg: &RunCfg, seconds: u64) -> io::Result<(Vec<Vec<ExportBatch>>, u64)> {
    let mut preload = Vec::with_capacity(PRELOAD_NODES);
    let mut samples = 0;
    for node in 0..PRELOAD_NODES {
        let (mut db, mut sweep) = node_store(PRELOAD_SHAPE);
        let pool = SweepPool::new(cfg.seed, 0x100 + node as u64, PRELOAD_SHAPE.metrics, 1024);
        for i in 0..seconds {
            pool.fill(i, false, &mut sweep);
            db.insert_batch(SimTime::from_secs(1 + i), &sweep);
        }
        let mut sink = MemorySink::new();
        let drained = Exporter::new().drain(&db, &mut sink)?;
        if drained.missed_samples != 0 {
            return Err(io::Error::other("preload outran its retention"));
        }
        samples += drained.samples;
        preload.push(sink.batches);
    }
    Ok((preload, samples))
}

/// One round of `serve_under_ingest`.
pub fn round(cfg: &RunCfg, index: usize, traced: bool) -> io::Result<RoundOutput> {
    let mut round = Round::default();
    let seconds = cfg.size(PRELOAD_S, 1800);
    let sweeps = cfg.size(SWEEPS, 60);
    let queries = cfg.size(QUERIES as u64, 300) as usize;
    let obs = round_obs(traced);
    round.set(
        "node_ns_per_sample",
        node_pass(
            LIVE_SHAPE,
            cfg.seed,
            WARM_SWEEPS,
            cfg.size(NODE_PASS_SWEEPS, 100),
            false,
        ),
    );

    // ---- set-up: build the preload, ingest it in-process, then serve;
    // live node; client ----
    let setup = Instant::now();
    let (preload, preload_samples) = build_preload(cfg, seconds)?;
    let mut durable = DurableFleet::open(
        cfg.tmp.join(format!("round{index}")),
        DurabilityConfig::default(),
    )?;
    if obs.is_enabled() {
        durable.set_obs(obs.clone());
    }
    for (k, batches) in preload.iter().enumerate() {
        let node = durable.add_node(&format!("p{k:02}"))?;
        for b in batches {
            durable.ingest(node, b)?;
        }
    }
    let fleet = Fleet::serve(durable)?;
    // The live node starts one second after the preload ends.
    let live_origin_s = seconds + 1;
    let link = NodeLink::new(fleet.sink("live")?, round_recorder(traced, setup));
    let mut live = LiveNode::new(LIVE_SHAPE, cfg.seed, 0x200, live_origin_s, link);
    for _ in 0..WARM_SWEEPS {
        live.push_sweep(false)?;
    }
    live.link.wait_idle()?;
    live.link.ack_ns.clear();
    let mut client = fleet.client()?;
    round.set("setup_s", setup.elapsed().as_secs_f64());

    // ---- both open loops, fixed counts ----
    let mix = gen::query_mix(cfg.seed, queries);
    let sweep_due = periodic(sweeps, SWEEP_EVERY);
    let query_due = gen::poisson_arrivals(cfg.seed, queries, QUERIES_PER_S);
    let acked = AtomicU64::new(live.index - 1);
    // One clock for both loops, started a moment from now so that
    // both threads are waiting on it when it does.
    let sched = OpenLoop::new(Instant::now() + Duration::from_millis(5));
    let (ingest, served) = std::thread::scope(|s| {
        let a = s.spawn(|| -> io::Result<(Vec<u64>, Vec<u64>, f64)> {
            let (mut latency, mut late) = (Vec::new(), Vec::new());
            for (i, &due) in sweep_due.iter().enumerate() {
                let issued = sched.wait_until(due);
                live.link.rec.set_op(i as u32);
                live.link.rec.enter(Layer::Op);
                let pushed = live.push_sweep(false).and_then(|_| live.link.wait_idle());
                live.link.rec.exit();
                pushed?;
                acked.store(live.index - 1, Ordering::Release);
                let c = charge(due, issued, sched.now_ns());
                latency.push(c.latency_ns);
                late.push(c.late_ns);
            }
            Ok((latency, late, sched.now_ns() as f64))
        });
        let b = s.spawn(|| -> io::Result<Served> {
            let mix = mix.iter().copied().zip(query_due.iter().copied());
            serve_queries(&mut client, sched, mix, seconds, live_origin_s, &acked)
        });
        (
            a.join().expect("ingest thread panicked"),
            b.join().expect("query thread panicked"),
        )
    });
    let (ack_latency, ingest_late, ingest_wall_ns) = ingest?;
    let served = served?;
    drop(client);

    // ---- readings ----
    let samples = sweeps * LIVE_SHAPE.metrics as u64;
    round.set(
        "ingest_samples_per_s",
        samples as f64 / (ingest_wall_ns / 1e9),
    );
    round.timing_ms(
        ack_latency,
        "sample_to_queryable_ms_p50",
        Some("sample_to_queryable_ms_p99"),
    );
    let all: Vec<u64> = served.latency_ns.iter().map(|(_, ns)| *ns).collect();
    round.timing_ms(all, "query_ms_p50", Some("query_ms_p99"));
    round.set(HEADLINE, round.values["query_ms_p50"] * 1e6);
    round.ok(sweeps + (served.latency_ns.len() - served.failures.len()) as u64);
    for f in &served.failures {
        round.check(false, || f.clone());
    }
    if traced {
        for class in QueryClass::REPORTED {
            let ns: Vec<u64> = served
                .latency_ns
                .iter()
                .filter(|(c, _)| c.reported_as() == class)
                .map(|(_, ns)| *ns)
                .collect();
            if let Some((p50, _)) = stats::p50_p99_ms(&ns) {
                round.set(class.p50_metric(), p50);
            }
        }
        let mut late: Vec<u64> = served.late_ns.iter().chain(&ingest_late).copied().collect();
        late.sort_unstable();
        round.set(
            "bench.generator_late_ms_p99",
            stats::percentile_sorted(&late, 0.99) as f64 / 1e6,
        );
        let totals = live.exporter.totals();
        layers::from_node(&mut round, &live.db, &totals);
        layers::from_links(&mut round, &[&live.link]);
    }

    // Quiescent again (the live node is idle, nobody else has joined):
    // frozen-window answers given under load must equal what the
    // planner answers now, and the planner and codec shares of the
    // same traffic are taken here, outside the timed loops.
    {
        let shared = fleet.shared();
        let f = lock(&shared);
        let (reqs, under_load): (Vec<_>, Vec<_>) = served.recheck.into_iter().unzip();
        check_answers(
            &mut round,
            "answers under load vs at quiescence",
            &local_answers(f.aggregator(), &reqs),
            &under_load,
        );
        if traced {
            let classes: Vec<(&'static str, Vec<QueryRequest>)> = served
                .by_class
                .into_iter()
                .map(|(c, reqs)| (c.execute_metric(), reqs))
                .collect();
            let rtt_mean =
                served.rtt_ns.iter().sum::<u64>() as f64 / served.rtt_ns.len().max(1) as f64;
            layers::from_queries(&mut round, f.aggregator(), &classes, rtt_mean);
        }
    }
    let mut nodes = vec![live];
    let closing = Closing {
        cfg,
        index,
        obs: &obs,
        traced,
        other_samples: preload_samples,
        replay: None,
        series: Some(SERIES_SHAPE),
    };
    close_round(closing, fleet, &mut nodes, &mut round)?;

    let spans = if traced {
        span_readings(&mut round, nodes)
    } else {
        Vec::new()
    };
    Ok(RoundOutput { round, spans })
}

/// Thread B: issue the mix on its schedule, check each answer's shape,
/// keep what the closing re-checks.
fn serve_queries(
    client: &mut FleetClient,
    sched: OpenLoop,
    mix: impl ExactSizeIterator<Item = ((QueryClass, u64), u64)>,
    seconds: u64,
    live_origin_s: u64,
    acked: &AtomicU64,
) -> io::Result<Served> {
    let mut out = Served {
        latency_ns: Vec::with_capacity(mix.len()),
        late_ns: Vec::with_capacity(mix.len()),
        rtt_ns: Vec::with_capacity(mix.len()),
        recheck: Vec::new(),
        failures: Vec::new(),
        by_class: Vec::new(),
    };
    for (i, ((class, word), due)) in mix.enumerate() {
        let issued = sched.wait_until(due);
        // A live probe asks for the newest sweep the node already holds
        // an ack for: it must be served, exactly.
        let newest = acked.load(Ordering::Acquire);
        let live_now = SimTime::from_secs(live_origin_s + newest);
        let req = request(class, word, seconds, live_now);
        let resp = client.request(&req)?;
        let done = sched.now_ns();
        let c = charge(due, issued, done);
        out.latency_ns.push((class, c.latency_ns));
        out.late_ns.push(c.late_ns);
        out.rtt_ns.push(done - issued);
        let well_formed = match (&resp, class) {
            (QueryResponse::Scalar(a), QueryClass::LiveProbe) => a.value == Some(newest as f64),
            (QueryResponse::Scalar(a), _) => a.value.is_some_and(f64::is_finite),
            (QueryResponse::Covered(a), _) => a.value.is_some_and(f64::is_finite),
            (QueryResponse::TopNodes(e), _) => e.len() == 5,
            (QueryResponse::Health(h), _) => h.nodes.len() == PRELOAD_NODES + 1,
            (QueryResponse::Metrics(m), _) => m.axes.len() == LIVE_SHAPE.metrics,
            _ => false,
        };
        if !well_formed {
            out.failures
                .push(format!("query {i} ({class:?}) answered {resp:?}"));
        }
        if frozen(class) && i % RECHECK_EVERY == 0 {
            out.recheck.push((req.clone(), answer_bytes(&resp)));
        }
        let class = class.reported_as();
        match out.by_class.iter_mut().find(|(c, _)| *c == class) {
            Some((_, reqs)) => reqs.push(req),
            None => out.by_class.push((class, vec![req])),
        }
    }
    Ok(out)
}
