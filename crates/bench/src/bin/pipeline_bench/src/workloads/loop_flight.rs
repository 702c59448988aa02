//! `loop_flight`: latency of the closed loop at idle.
//!
//! One generator thread, two connections (one `SocketSink`, one
//! `FleetClient`), serial flights of a 256-metric node (16 sketched)
//! against a 16-node fleet whose other 15 nodes are kept fresh in-process
//! between flights. Transport round trips and the per-batch WAL flush
//! dominate; every layer does a little. A seeded schedule starts a
//! `power_w` fault every ~50 flights.

use super::{close_round, span_readings, Closing};
use crate::fixture::{lock, node_pass, round_obs, round_recorder, Fleet, NodeShape, RunCfg};
use crate::gen::{self, POWER_AXIS, POWER_NOMINAL};
use crate::layers;
use crate::metrics::Round;
use crate::probe::{confirm_query, LoopProbe};
use crate::runner::{RoundOutput, HEADLINE};
use moda_fleet::{DurableFleet, NodeId};
use moda_sim::SimTime;
use moda_telemetry::export::{ExportBatch, ExportRecord};
use moda_telemetry::{MetricId, MetricMeta, SourceDomain};
use std::io;
use std::time::Instant;

const SHAPE: NodeShape = NodeShape {
    metrics: 256,
    sketched: 16,
    retention: 1024,
};
/// Flights before timing starts: fills the node's first sealed chunk
/// (512 samples), so Monitor reads cross chunks from the first timed
/// flight, and warms both connections.
const WARM_FLIGHTS: u64 = 600;
/// Timed flights per round.
const FLIGHTS: u64 = 6000;
/// Sweeps of the single-thread node pass (`fixture::node_pass`).
const NODE_PASS_SWEEPS: u64 = 2000;
/// A fault starts about every this many flights.
const BREACH_EVERY: u64 = 50;
/// Nodes besides the live one, refreshed in-process.
const BACKGROUND_NODES: usize = 15;
/// Flights between refreshes of the background nodes: well inside the
/// monitors' 30-minute staleness bound at one flight per simulated second.
const REFRESH_EVERY: u64 = 256;

/// A background node fed at wire level: one `power_w` series, one
/// sample per refresh, ingested durably under the fleet lock.
struct Background {
    node: NodeId,
    seq: u64,
}

impl Background {
    fn join(fleet: &mut DurableFleet, k: usize) -> io::Result<Background> {
        let node = fleet.add_node(&format!("bg{k:02}"))?;
        Ok(Background { node, seq: 0 })
    }

    fn refresh(&mut self, fleet: &mut DurableFleet, t: SimTime) -> io::Result<()> {
        let id = MetricId(0);
        let mut records = Vec::with_capacity(2);
        if self.seq == 0 {
            records.push(ExportRecord::Meta {
                id,
                meta: MetricMeta::gauge(POWER_AXIS, "W", SourceDomain::Hardware),
            });
        }
        records.push(ExportRecord::Sample {
            id,
            t,
            value: POWER_NOMINAL + (self.node.0 % 8) as f64,
        });
        fleet.ingest(
            self.node,
            &ExportBatch {
                seq: self.seq,
                records,
            },
        )?;
        self.seq += 1;
        Ok(())
    }
}

/// One round of `loop_flight`.
pub fn round(cfg: &RunCfg, index: usize, traced: bool) -> io::Result<RoundOutput> {
    let mut round = Round::default();
    let warm = cfg.size(WARM_FLIGHTS, 40);
    let flights = cfg.size(FLIGHTS, 300);
    let obs = round_obs(traced);
    round.set(
        "node_ns_per_sample",
        node_pass(SHAPE, cfg.seed, warm, cfg.size(NODE_PASS_SWEEPS, 100), true),
    );

    // ---- set-up: fleet, background nodes, live node, warm-up ----
    let setup = Instant::now();
    let fleet = Fleet::open(&cfg.tmp.join(format!("round{index}")), &obs)?;
    let shared = fleet.shared();
    let mut background = Vec::with_capacity(BACKGROUND_NODES);
    let mut background_samples = 0u64;
    {
        let mut f = lock(&shared);
        for k in 0..BACKGROUND_NODES {
            let mut bg = Background::join(&mut f, k)?;
            bg.refresh(&mut f, SimTime::from_secs(1))?;
            background_samples += 1;
            background.push(bg);
        }
    }
    let schedule = gen::breach_schedule(cfg.seed, warm + flights, BREACH_EVERY);
    let mut probe = LoopProbe::connect(
        &fleet,
        cfg,
        "n00",
        SHAPE,
        1,
        schedule,
        round_recorder(traced, setup),
    )?;
    for _ in 0..warm {
        probe.flight(&shared, &mut round)?;
    }
    probe.s2q_ns.clear();
    probe.query_ns.clear();
    probe.f2a_ns.clear();
    round.set("setup_s", setup.elapsed().as_secs_f64());

    // ---- timed flights ----
    let body = Instant::now();
    let mut refresh_ns = 0u64;
    for i in 0..flights {
        // Never inside an episode: a refresh between the breaching
        // flights would sit in the fault-to-actuation reading.
        if i % REFRESH_EVERY == REFRESH_EVERY - 1 && !probe.in_episode() && !probe.breach_due() {
            let t = Instant::now();
            let now = probe.node.time_of(probe.node.index);
            let mut f = lock(&shared);
            for bg in &mut background {
                bg.refresh(&mut f, now)?;
                background_samples += 1;
            }
            refresh_ns += t.elapsed().as_nanos() as u64;
        }
        probe.flight(&shared, &mut round)?;
    }
    let wall_ns = body.elapsed().as_nanos() as u64 - refresh_ns;
    let timed_samples = flights * SHAPE.metrics as u64;
    probe.finish(&mut round);

    round.timing_ms(
        std::mem::take(&mut probe.s2q_ns),
        "sample_to_queryable_ms_p50",
        Some("sample_to_queryable_ms_p99"),
    );
    round.set(HEADLINE, round.values["sample_to_queryable_ms_p50"] * 1e6);
    let query_ns = std::mem::take(&mut probe.query_ns);
    let rtt_mean = query_ns.iter().sum::<u64>() as f64 / query_ns.len().max(1) as f64;
    round.timing_ms(query_ns, "query_ms_p50", Some("query_ms_p99"));
    round.set(
        "ingest_samples_per_s",
        timed_samples as f64 / (wall_ns as f64 / 1e9),
    );

    // ---- checks, per-layer readings, seal → recover ----
    if traced {
        let totals = probe.node.exporter.totals();
        layers::from_node(&mut round, &probe.node.db, &totals);
        layers::from_links(&mut round, &[&probe.node.link]);
        // The planner and codec shares of the confirm query, on the
        // last sweeps' requests.
        let newest = probe.node.index;
        let confirms = (newest.saturating_sub(256)..newest)
            .map(|i| confirm_query(probe.node.time_of(i)))
            .collect();
        layers::from_queries(
            &mut round,
            lock(&shared).aggregator(),
            &[("query.execute_ns.live_probe", confirms)],
            rtt_mean,
        );
    }
    let closing = Closing {
        cfg,
        index,
        obs: &obs,
        traced,
        other_samples: background_samples,
        replay: None,
        series: None,
    };
    let mut nodes = vec![probe.into_node()];
    drop(shared);
    close_round(closing, fleet, &mut nodes, &mut round)?;
    let spans = if traced {
        span_readings(&mut round, nodes)
    } else {
        Vec::new()
    };
    Ok(RoundOutput { round, spans })
}
