//! `fleet_saturate`: throughput of the live per-sample path with small
//! batches.
//!
//! Two generator threads, one node and one connection each, closed loop
//! behind the sink's default 64-batch window: a 64-metric sweep, a drain
//! after every sweep, a fixed number of sweeps, then `wait_idle`. Per
//! batch the fleet flushes the WAL, acks the frame and hands the lock to
//! the other session — about two thirds of the work at this batch size —
//! while chunk decode does nothing (every record is a raw sample).

use super::{close_round, span_readings, Closing, SERIES_SHAPE};
use crate::fixture::{
    node_pass, round_obs, round_recorder, Fleet, LiveNode, NodeLink, NodeShape, RunCfg,
};
use crate::layers;
use crate::metrics::Round;
use crate::runner::{RoundOutput, HEADLINE};
use crate::spans::Layer;
use std::io;
use std::sync::Barrier;
use std::time::Instant;

const SHAPE: NodeShape = NodeShape {
    metrics: 64,
    sketched: 8,
    retention: 1024,
};
const NODES: usize = 2;
/// Sweeps per node before timing starts (handshake, registry batch).
const WARM_SWEEPS: u64 = 64;
/// Timed sweeps per node per round.
const SWEEPS: u64 = 10_000;
/// Sweeps of the single-thread node pass (`fixture::node_pass`).
const NODE_PASS_SWEEPS: u64 = 8000;

/// One round of `fleet_saturate`.
pub fn round(cfg: &RunCfg, index: usize, traced: bool) -> io::Result<RoundOutput> {
    let mut round = Round::default();
    let sweeps = cfg.size(SWEEPS, 1500);
    let obs = round_obs(traced);
    round.set(
        "node_ns_per_sample",
        node_pass(
            SHAPE,
            cfg.seed,
            WARM_SWEEPS,
            cfg.size(NODE_PASS_SWEEPS, 500),
            false,
        ),
    );

    let setup = Instant::now();
    let fleet = Fleet::open(&cfg.tmp.join(format!("round{index}")), &obs)?;
    let mut nodes = Vec::with_capacity(NODES);
    for k in 0..NODES {
        let link = NodeLink::new(fleet.sink(&format!("s{k}"))?, round_recorder(traced, setup));
        let mut node = LiveNode::new(SHAPE, cfg.seed, k as u64, 1, link);
        for _ in 0..WARM_SWEEPS {
            node.push_sweep(false)?;
        }
        node.link.wait_idle()?;
        node.link.ack_ns.clear();
        nodes.push(node);
    }
    round.set("setup_s", setup.elapsed().as_secs_f64());

    let barrier = Barrier::new(NODES);
    let spans: Vec<io::Result<(Instant, Instant)>> = std::thread::scope(|s| {
        let handles: Vec<_> = nodes
            .iter_mut()
            .map(|node| {
                let barrier = &barrier;
                s.spawn(move || -> io::Result<(Instant, Instant)> {
                    barrier.wait();
                    let start = Instant::now();
                    for i in 0..sweeps {
                        node.link.rec.set_op(i as u32);
                        node.link.rec.enter(Layer::Op);
                        let pushed = node.push_sweep(false);
                        node.link.rec.exit();
                        pushed?;
                    }
                    node.link.wait_idle()?;
                    Ok((start, Instant::now()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut start_end = Vec::with_capacity(NODES);
    for s in spans {
        start_end.push(s?);
    }
    let start = start_end.iter().map(|s| s.0).min().expect("two generators");
    let end = start_end.iter().map(|s| s.1).max().expect("two generators");
    let wall_ns = (end - start).as_nanos() as f64;
    let samples = NODES as u64 * sweeps * SHAPE.metrics as u64;

    let acks: Vec<u64> = nodes
        .iter_mut()
        .flat_map(|n| std::mem::take(&mut n.link.ack_ns))
        .collect();
    round.ok(acks.len() as u64);
    round.check(acks.len() as u64 == NODES as u64 * sweeps, || {
        format!(
            "{} acks for {} timed batches",
            acks.len(),
            NODES as u64 * sweeps
        )
    });
    round.timing_ms(
        acks,
        "sample_to_queryable_ms_p50",
        Some("sample_to_queryable_ms_p99"),
    );
    round.set("ingest_samples_per_s", samples as f64 / (wall_ns / 1e9));
    round.set(HEADLINE, wall_ns / samples as f64);

    if traced {
        let totals = nodes[0].exporter.totals();
        layers::from_node(&mut round, &nodes[0].db, &totals);
        let links: Vec<_> = nodes.iter().map(|n| &n.link).collect();
        layers::from_links(&mut round, &links);
    }
    let closing = Closing {
        cfg,
        index,
        obs: &obs,
        traced,
        other_samples: 0,
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
