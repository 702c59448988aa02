//! The four workloads and what they share: the verification query set
//! and the way every round ends.

pub mod backfill_recover;
pub mod fleet_saturate;
pub mod loop_flight;
pub mod serve_under_ingest;

use crate::fixture::{
    check_answers, local_answers, lock, remote_answers, seal_and_recover, wal_bytes_per_sample,
    Fleet, LiveNode, NodeShape, RunCfg,
};
use crate::gen::{POWER_AXIS, PROBE_AXIS};
use crate::layers;
use crate::metrics::Round;
use crate::probe::{self, STALE_AFTER};
use crate::spans::SpanRec;
use moda_fleet::{QueryRequest, Rank};
use moda_obs::Obs;
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::export::ExportBatch;
use moda_telemetry::WindowAgg;
use std::io;

/// Node shape of the loop series that ends a non-loop round.
pub const SERIES_SHAPE: NodeShape = NodeShape {
    metrics: 32,
    sketched: 4,
    retention: 1024,
};
/// An axis every node shape exports with a sketched rollup pyramid
/// (metric 2), for the verification set's wide and narrow reads.
const SKETCHED_AXIS: &str = "m002";
/// Recoveries per round; `recover_s` is their median.
const RECOVERIES: usize = 3;
/// Round trips of the verification set timed per round (it is sent
/// this many times over).
const VERIFY_REPEATS: usize = 16;

/// The fixed query set of a round: one request of every kind a
/// dashboard sends, anchored at the fleet's newest sample. It is
/// answered over the wire and in-process before shutdown and in-process
/// after recovery; all three must agree byte for byte.
pub fn verification_set(now: SimTime) -> Vec<QueryRequest> {
    let unaligned = SimTime(now.0.saturating_sub(37_500));
    vec![
        QueryRequest::Metrics,
        QueryRequest::Health {
            now,
            stale_after: STALE_AFTER,
        },
        QueryRequest::WindowAgg {
            metric: PROBE_AXIS.into(),
            now,
            window: SimDuration::from_secs(10),
            agg: WindowAgg::Max,
        },
        QueryRequest::WindowAgg {
            metric: POWER_AXIS.into(),
            now,
            window: SimDuration::from_hours(1),
            agg: WindowAgg::Mean,
        },
        QueryRequest::WindowAgg {
            metric: SKETCHED_AXIS.into(),
            now,
            window: SimDuration::from_hours(2),
            agg: WindowAgg::Percentile(0.99),
        },
        QueryRequest::CoveredWindowAgg {
            metric: SKETCHED_AXIS.into(),
            now: unaligned,
            window: SimDuration::from_secs(90),
            agg: WindowAgg::Mean,
            stale_after: STALE_AFTER,
        },
        QueryRequest::TopNodes {
            metric: POWER_AXIS.into(),
            now,
            window: SimDuration::from_hours(1),
            agg: WindowAgg::Mean,
            k: 5,
            rank: Rank::Highest,
        },
        QueryRequest::CoveredTopNodes {
            metric: POWER_AXIS.into(),
            now,
            window: SimDuration::from_mins(10),
            agg: WindowAgg::Max,
            k: 3,
            rank: Rank::Lowest,
            stale_after: STALE_AFTER,
        },
    ]
}

/// What [`close_round`] needs to know about the round it ends.
pub struct Closing<'a> {
    pub cfg: &'a RunCfg,
    pub index: usize,
    /// The handle the round's fleet was opened with.
    pub obs: &'a Obs,
    pub traced: bool,
    /// Samples ingested besides the `nodes`' (in-process feeds).
    pub other_samples: u64,
    /// Batches to replay for WAL bytes per sample when no node kept a
    /// window of its own stream.
    pub replay: Option<&'a [ExportBatch]>,
    /// Run the loop series first, with a probe node of this shape.
    pub series: Option<NodeShape>,
}

/// End a round. With the workload's own traffic finished and `nodes`
/// idle: run the loop series where asked, check node-side conservation,
/// answer the verification set over the wire and in-process, measure WAL
/// bytes per sample on a replay of the kept stream, hang up, and seal →
/// recover → compare → compact (`fixture::seal_and_recover`).
pub fn close_round(
    c: Closing<'_>,
    fleet: Fleet,
    nodes: &mut [LiveNode],
    round: &mut Round,
) -> io::Result<()> {
    let shared = fleet.shared();
    let mut shipped = c.other_samples;

    if let Some(shape) = c.series {
        let mut series = probe::loop_series(&fleet, c.cfg, shape, round)?;
        series.node.link.wait_idle()?;
        shipped += node_conservation(&series.node, round);
    }
    for node in nodes.iter() {
        shipped += node_conservation(node, round);
    }

    // Remote ≡ in-process on the quiescent fleet, the set sent several
    // times over for its round-trip time.
    let now = lock(&shared).aggregator().observed_now();
    let reqs = verification_set(now);
    let mut client = fleet.client()?;
    let mut rtt = Vec::new();
    let mut remote = Vec::new();
    for _ in 0..VERIFY_REPEATS {
        let (answers, ns) = remote_answers(&mut client, &reqs)?;
        rtt.extend(ns);
        remote = answers;
    }
    drop(client);
    {
        let f = lock(&shared);
        let local = local_answers(f.aggregator(), &reqs);
        check_answers(round, "remote vs in-process answers", &local, &remote);
        if c.traced {
            layers::from_fleet(round, f.aggregator(), (reqs.len() * VERIFY_REPEATS) as u64);
            layers::from_obs(round, c.obs);
        }
    }
    // A workload without queries of its own reports this set's.
    if !round.values.contains_key("query_ms_p50") {
        round.timing_ms(rtt, "query_ms_p50", Some("query_ms_p99"));
    }

    let scratch = c.cfg.tmp.join(format!("round{}-replay", c.index));
    let kept: &[ExportBatch] = match (c.replay, nodes.first()) {
        (Some(batches), _) => batches,
        (None, Some(node)) => &node.link.kept,
        (None, None) => &[],
    };
    if let Some(b) = wal_bytes_per_sample(&scratch, kept)? {
        round.set("wal_bytes_per_sample", b);
    }
    if c.traced {
        layers::from_replay(round, &scratch, kept)?;
    }

    for node in nodes.iter_mut() {
        node.link.hang_up();
    }
    drop(shared);
    let sealed = seal_and_recover(fleet, &reqs, shipped, RECOVERIES, round)?;
    if c.traced {
        round.set("recover.ns", sealed.recover_ns as f64);
        round.set("recover.replayed_batches", sealed.replayed_batches as f64);
        round.set("snapshot.bytes", sealed.snapshot_bytes as f64);
        if !round.values.contains_key("snapshot.write_ns") {
            round.set("snapshot.write_ns", sealed.snapshot_ns as f64);
        }
    }
    Ok(())
}

/// The traced tail of a round whose generators were live nodes: fold
/// their spans into the per-layer readings and hand the recorders on.
pub fn span_readings(round: &mut Round, nodes: Vec<LiveNode>) -> Vec<SpanRec> {
    let (mut samples, mut records) = (0, 0);
    let mut recs = Vec::with_capacity(nodes.len());
    for node in nodes {
        let totals = node.exporter.totals();
        samples += totals.samples;
        records += totals.records;
        recs.push(node.link.rec);
    }
    layers::from_spans(round, &recs, samples, records);
    recs
}

/// Node-side conservation: every inserted sample was exported, none was
/// missed to retention, and the connection never had to redial. Returns
/// the samples the node shipped.
fn node_conservation(node: &LiveNode, round: &mut Round) -> u64 {
    let totals = node.exporter.totals();
    round.check(
        totals.samples == node.db.total_inserts() && totals.missed_samples == 0,
        || {
            format!(
                "node inserted {} samples, exported {}, missed {}",
                node.db.total_inserts(),
                totals.samples,
                totals.missed_samples
            )
        },
    );
    round.check(
        node.link.reconnects() == 0 && node.link.resent_batches() == 0,
        || {
            format!(
                "connection redialed {} time(s), re-sent {} batch(es)",
                node.link.reconnects(),
                node.link.resent_batches()
            )
        },
    );
    totals.samples
}
