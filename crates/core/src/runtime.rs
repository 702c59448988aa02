//! Threaded pattern drivers for wall-clock measurements.
//!
//! The stepped orchestrators in [`crate::patterns`] are deterministic and
//! compose with simulation, but they cannot answer the §II scalability
//! questions — *does a centralized Plan really queue up under fleet
//! growth? does decentralization keep loop latency flat?* — because those
//! are properties of real concurrency. This module re-creates the four
//! patterns as thread topologies over crossbeam channels with synthetic
//! per-phase CPU costs, and measures end-to-end iteration latency per
//! managed system. Experiment E1 sweeps fleet size over these drivers.
//!
//! The second half is the **one threaded telemetry runner**,
//! [`run_multinode_fleet`]: K node worlds — a collector thread and a
//! concurrently draining exporter thread each, over the node's own
//! [`ShardedTsdb`], with rollups, sketches and optional self-scrape —
//! feeding one aggregation tier over a [`Transport`]. One node over
//! [`Transport::Channel`] is the single-store in-process case.

use crossbeam::channel;
use moda_fleet::{
    ChannelSink, DurabilityConfig, DurableFleet, FleetAggregator, FleetClient, FleetListener,
    FleetMsg, HealthAnswer, NodeId, Rank, SocketSink,
};
use moda_obs::Obs;
use moda_sim::stats::Summary;
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::{
    Collector, Exporter, MetricId, MetricMeta, RollupConfig, Sensor, ShardedTsdb, SourceDomain,
    WindowAgg,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Synthetic CPU cost of each MAPE phase, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct StageCosts {
    /// Monitor cost per iteration.
    pub monitor_us: u64,
    /// Analyze cost per observation.
    pub analyze_us: u64,
    /// Plan cost per observation (the centralized bottleneck in (b)).
    pub plan_us: u64,
    /// Execute cost per action.
    pub execute_us: u64,
}

impl Default for StageCosts {
    fn default() -> Self {
        StageCosts {
            monitor_us: 10,
            analyze_us: 20,
            plan_us: 50,
            execute_us: 10,
        }
    }
}

/// Busy-wait for `us` microseconds (models CPU-bound phase work without
/// the scheduler noise of `sleep`).
pub fn spin(us: u64) {
    let end = Instant::now() + Duration::from_micros(us);
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Latency/throughput result of one threaded-pattern run. Latencies
/// are captured at nanosecond resolution (reported in fractional µs):
/// on a warm machine a telemetry round is sub-microsecond, and
/// truncating to whole µs would zero it out.
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// Loop iterations completed (across all managed systems).
    pub iterations: usize,
    /// Mean end-to-end iteration latency, µs.
    pub mean_latency_us: f64,
    /// p50 latency, µs.
    pub p50_latency_us: f64,
    /// p99 latency, µs.
    pub p99_latency_us: f64,
    /// Completed iterations per second (aggregate).
    pub throughput_per_s: f64,
}

fn stats_from(mut lat: Summary, wall: Duration, iterations: usize) -> RoundStats {
    RoundStats {
        iterations,
        mean_latency_us: lat.mean(),
        p50_latency_us: lat.percentile(0.5).unwrap_or(0.0),
        p99_latency_us: lat.percentile(0.99).unwrap_or(0.0),
        throughput_per_s: if wall.as_secs_f64() > 0.0 {
            iterations as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
    }
}

/// Fig. 2(a) as one thread: M→A→P→E sequentially per iteration.
pub fn run_classical(rounds: usize, costs: StageCosts) -> RoundStats {
    let mut lat = Summary::new();
    let start = Instant::now();
    for _ in 0..rounds {
        let t0 = Instant::now();
        spin(costs.monitor_us);
        spin(costs.analyze_us);
        spin(costs.plan_us);
        spin(costs.execute_us);
        lat.push(t0.elapsed().as_nanos() as f64 / 1_000.0);
    }
    stats_from(lat, start.elapsed(), rounds)
}

/// Fig. 2(b) as threads: `n_workers` monitor/execute threads feeding one
/// central analyze/plan thread.
///
/// Workers stamp each observation at Monitor start; the master processes
/// observations *serially* (that is the point of the pattern) and sends
/// the action back; the worker finishes Execute and records end-to-end
/// latency. With growing `n_workers`, observations queue at the master
/// and latency inflates — the §II "limited scalability" claim.
pub fn run_master_worker(n_workers: usize, rounds: usize, costs: StageCosts) -> RoundStats {
    assert!(n_workers > 0);
    let (obs_tx, obs_rx) = channel::unbounded::<(usize, Instant)>();
    let mut act_txs = Vec::with_capacity(n_workers);
    let mut act_rxs = Vec::with_capacity(n_workers);
    for _ in 0..n_workers {
        let (tx, rx) = channel::bounded::<Instant>(rounds);
        act_txs.push(tx);
        act_rxs.push(rx);
    }
    let (lat_tx, lat_rx) = channel::unbounded::<f64>();

    let start = Instant::now();
    std::thread::scope(|s| {
        // Master: centralized A + P.
        s.spawn(move || {
            let expected = n_workers * rounds;
            for _ in 0..expected {
                let Ok((worker, t0)) = obs_rx.recv() else {
                    break;
                };
                spin(costs.analyze_us);
                spin(costs.plan_us);
                // Send the action back, carrying the origin stamp.
                let _ = act_txs[worker].send(t0);
            }
        });
        // Workers: decentralized M + E.
        for (w, act_rx) in act_rxs.into_iter().enumerate() {
            let obs_tx = obs_tx.clone();
            let lat_tx = lat_tx.clone();
            s.spawn(move || {
                for _ in 0..rounds {
                    let t0 = Instant::now();
                    spin(costs.monitor_us);
                    if obs_tx.send((w, t0)).is_err() {
                        return;
                    }
                    let Ok(stamp) = act_rx.recv() else {
                        return;
                    };
                    spin(costs.execute_us);
                    let _ = lat_tx.send(stamp.elapsed().as_nanos() as f64 / 1_000.0);
                }
            });
        }
        drop(obs_tx);
        drop(lat_tx);
    });
    let wall = start.elapsed();
    let mut lat = Summary::new();
    while let Ok(v) = lat_rx.try_recv() {
        lat.push(v);
    }
    let n = lat.count();
    stats_from(lat, wall, n)
}

/// Fig. 2(c) as threads: `n_peers` fully independent M→A→P→E loops.
///
/// No shared component, so per-iteration latency stays flat as the fleet
/// grows (until the machine runs out of cores) — the scalability side of
/// the §II trade-off.
pub fn run_coordinated(n_peers: usize, rounds: usize, costs: StageCosts) -> RoundStats {
    assert!(n_peers > 0);
    let (lat_tx, lat_rx) = channel::unbounded::<f64>();
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..n_peers {
            let lat_tx = lat_tx.clone();
            s.spawn(move || {
                for _ in 0..rounds {
                    let t0 = Instant::now();
                    spin(costs.monitor_us);
                    spin(costs.analyze_us);
                    spin(costs.plan_us);
                    spin(costs.execute_us);
                    let _ = lat_tx.send(t0.elapsed().as_nanos() as f64 / 1_000.0);
                }
            });
        }
        drop(lat_tx);
    });
    let wall = start.elapsed();
    let mut lat = Summary::new();
    while let Ok(v) = lat_rx.try_recv() {
        lat.push(v);
    }
    let n = lat.count();
    stats_from(lat, wall, n)
}

/// Fig. 2(d) as threads: independent child loops that synchronize with a
/// supervisor thread every `supervise_every` iterations (report up, wait
/// for acknowledgement/reconfiguration).
///
/// Latency sits between (b) and (c): mostly decentralized, with periodic
/// hierarchy stalls.
pub fn run_hierarchical(
    n_children: usize,
    rounds: usize,
    costs: StageCosts,
    supervise_every: usize,
) -> RoundStats {
    assert!(n_children > 0 && supervise_every > 0);
    let (rep_tx, rep_rx) = channel::unbounded::<(usize, Instant)>();
    let mut ack_txs = Vec::with_capacity(n_children);
    let mut ack_rxs = Vec::with_capacity(n_children);
    for _ in 0..n_children {
        let (tx, rx) = channel::bounded::<()>(4);
        ack_txs.push(tx);
        ack_rxs.push(rx);
    }
    let (lat_tx, lat_rx) = channel::unbounded::<f64>();

    let start = Instant::now();
    std::thread::scope(|s| {
        // Supervisor: slow-timescale A+P over child reports.
        s.spawn(move || {
            let expected = n_children * (rounds / supervise_every);
            for _ in 0..expected {
                let Ok((child, _stamp)) = rep_rx.recv() else {
                    break;
                };
                // Supervision is an analyze+plan over the child's window.
                spin(costs.analyze_us + costs.plan_us);
                let _ = ack_txs[child].send(());
            }
        });
        for (c, ack_rx) in ack_rxs.into_iter().enumerate() {
            let rep_tx = rep_tx.clone();
            let lat_tx = lat_tx.clone();
            s.spawn(move || {
                for i in 0..rounds {
                    let t0 = Instant::now();
                    spin(costs.monitor_us);
                    spin(costs.analyze_us);
                    spin(costs.plan_us);
                    spin(costs.execute_us);
                    // Periodic hierarchy synchronization.
                    if (i + 1) % supervise_every == 0 {
                        if rep_tx.send((c, t0)).is_err() {
                            return;
                        }
                        if ack_rx.recv().is_err() {
                            return;
                        }
                    }
                    let _ = lat_tx.send(t0.elapsed().as_nanos() as f64 / 1_000.0);
                }
            });
        }
        drop(rep_tx);
        drop(lat_tx);
    });
    let wall = start.elapsed();
    let mut lat = Summary::new();
    while let Ok(v) = lat_rx.try_recv() {
        lat.push(v);
    }
    let n = lat.count();
    stats_from(lat, wall, n)
}

// ------------------------------------------------------ telemetry fleet

/// Configuration of the multi-node telemetry runtime: K node worlds,
/// each with its own lock-striped store, collector thread, and exporter
/// thread, feeding **one** aggregation tier over a [`Transport`] — the
/// paper's fleet topology (node-local collection → wire → central
/// aggregation) as real concurrency.
#[derive(Debug, Clone)]
pub struct MultiNodeFleetConfig {
    /// Node count (K).
    pub nodes: usize,
    /// Collector rounds per node (one sensor sweep per round).
    pub rounds: usize,
    /// Metrics per node; the same node-local names repeat on every
    /// node, so each becomes a fleet-wide logical axis downstream.
    pub metrics_per_node: usize,
    /// Simulated time per round.
    pub tick: SimDuration,
    /// Rollup pyramid on every node metric (sealed buckets and sketch
    /// columns are what the wire ships long-horizon; `None` exports raw
    /// samples only).
    pub rollups: Option<RollupConfig>,
    /// Raw retention per node metric.
    pub retention: usize,
    /// Stripe count of each node store.
    pub shards: usize,
    /// Exporter-thread pause between incremental drain sweeps, µs.
    pub drain_pause_us: u64,
    /// Self-telemetry cadence, in exporter drains (0 disables). When
    /// nonzero, every node exporter gets its own enabled [`Obs`] handle,
    /// spans each drain, and scrapes its registry into the node store
    /// every N drains — so `__self/export.drain_ns` becomes a fleet
    /// logical axis merged across all K nodes. Over [`Transport::Tcp`]
    /// the aggregation side also runs a [`moda_fleet::SelfScraper`]
    /// service session, adding the `wal.fsync_ns` / `query.serve_ns`
    /// axes, and the remote-equivalence pass then also verifies the
    /// fleet-merged `__self/` p99s bit-identical to the in-process
    /// planner.
    pub selfscrape_every_drains: usize,
}

impl Default for MultiNodeFleetConfig {
    fn default() -> Self {
        MultiNodeFleetConfig {
            nodes: 4,
            rounds: 600,
            metrics_per_node: 8,
            tick: SimDuration::from_secs(1),
            rollups: Some(RollupConfig::standard().with_sketches()),
            retention: 8192,
            shards: 8,
            drain_pause_us: 200,
            selfscrape_every_drains: 0,
        }
    }
}

/// Result of a multi-node fleet run. Per-node wire/health detail lives
/// on the returned aggregator ([`FleetAggregator::counters`],
/// [`FleetAggregator::health`]); cluster queries on its
/// [`store`](FleetAggregator::store).
#[derive(Debug)]
pub struct MultiNodeFleetStats {
    /// The aggregation tier, fully ingested (every node's final drain
    /// included).
    pub aggregator: FleetAggregator,
    /// Samples accepted across all node stores.
    pub inserts: u64,
    /// End-to-end wall time of the threaded run.
    pub wall: Duration,
    /// Remote queries issued through a [`FleetClient`] and verified
    /// bit-identical to the in-process planner's answers before the
    /// listener shut down. Zero for the in-process transport (no
    /// socket to query).
    pub remote_queries_verified: u64,
}

/// Deterministic per-node sensor sweep: one value per metric per tick,
/// derived from `(node, metric, sweep)` so runs are reproducible and
/// nodes' distributions differ.
struct SyntheticSweep {
    ids: Vec<MetricId>,
    node: u64,
    sweep: u64,
}

impl Sensor for SyntheticSweep {
    fn name(&self) -> &str {
        "synthetic-sweep"
    }

    fn sample(&mut self, _now: SimTime, out: &mut Vec<(MetricId, f64)>) {
        for (m, id) in self.ids.iter().enumerate() {
            let v = ((self.node * 31 + m as u64 * 7 + self.sweep) % 997) as f64;
            out.push((*id, v));
        }
        self.sweep += 1;
    }
}

/// How the node exporters of [`run_multinode_fleet`] reach the
/// aggregation tier.
#[derive(Debug, Clone, Copy)]
pub enum Transport<'a> {
    /// In-process wire ([`ChannelSink`]) into one aggregator thread
    /// holding a plain in-memory [`FleetAggregator`].
    Channel,
    /// Real length-prefixed TCP ([`SocketSink`]) into a
    /// [`FleetListener`] whose [`DurableFleet`] persists to `dir`;
    /// exporters authenticate with `token` in the session hello.
    Tcp {
        /// State directory of the durable aggregation tier.
        dir: &'a Path,
        /// Auth token every session must present.
        token: &'a str,
    },
}

/// Run the K node worlds to completion — the part of the multi-node
/// runtime that does not know what transport drains it. Per node: a
/// collector thread registers the node's metric world and drives
/// [`Collector::poll_shared`] against the node's own striped store
/// once per tick, while an exporter thread incrementally drains that
/// store into the sink `connect` built for it, runs one guaranteed
/// drain after the collector finishes, and hands the drain totals to
/// `finish` (the out-of-band health feed). Sink errors (auth,
/// exhausted reconnects, a hung-up aggregator) abort the run instead
/// of silently dropping data.
///
/// With `cfg.selfscrape_every_drains > 0` each exporter also spans its
/// own drains on an enabled [`Obs`] handle and scrapes them into its
/// node store, so `__self/export.drain_ns` rides the same wire as the
/// node's sensor metrics and fleet-merges across nodes.
fn run_node_worlds<K: moda_telemetry::Sink>(
    cfg: &MultiNodeFleetConfig,
    dbs: &[Arc<ShardedTsdb>],
    connect: impl Fn(usize) -> std::io::Result<K> + Sync,
    finish: impl Fn(&mut K, moda_telemetry::DrainStats) -> std::io::Result<()> + Sync,
) -> std::io::Result<()> {
    let done: Vec<AtomicBool> = (0..cfg.nodes).map(|_| AtomicBool::new(false)).collect();
    std::thread::scope(|s| {
        let mut exporters = Vec::with_capacity(cfg.nodes);
        for (k, db) in dbs.iter().enumerate() {
            let done = &done[k];
            s.spawn(move || {
                let ids: Vec<MetricId> = (0..cfg.metrics_per_node)
                    .map(|m| {
                        db.register(MetricMeta::gauge(
                            format!("metric{m:03}"),
                            "u",
                            SourceDomain::Hardware,
                        ))
                    })
                    .collect();
                if let Some(rc) = &cfg.rollups {
                    for id in &ids {
                        db.enable_rollups(*id, rc);
                    }
                }
                let mut collector = Collector::new();
                collector.add_sensor(
                    Box::new(SyntheticSweep {
                        ids,
                        node: k as u64,
                        sweep: 0,
                    }),
                    cfg.tick,
                    // First sweep lands at one tick, not t=0: trailing
                    // windows are open at t0, so a t=0 sample would be
                    // unreachable by any whole-span query downstream.
                    SimTime(cfg.tick.0),
                );
                for round in 0..cfg.rounds {
                    collector.poll_shared(SimTime(cfg.tick.0 * (round as u64 + 1)), db.as_ref());
                }
                done.store(true, Ordering::Release);
            });
            let (connect, finish) = (&connect, &finish);
            exporters.push(s.spawn(move || -> std::io::Result<()> {
                let mut sink = connect(k)?;
                let mut exporter = Exporter::new();
                let obs = if cfg.selfscrape_every_drains > 0 {
                    Obs::enabled()
                } else {
                    Obs::disabled()
                };
                let drain_ns = obs.latency("export.drain_ns");
                let scrape_t = SimTime(cfg.tick.0 * cfg.rounds as u64);
                let mut drains = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    if finished && obs.is_enabled() {
                        // Last scrape rides the final guaranteed drain.
                        obs.scrape_into_shared(db, scrape_t);
                    }
                    {
                        let _span = drain_ns.start();
                        exporter.drain(db.as_ref(), &mut sink)?;
                    }
                    drains += 1;
                    if finished {
                        break;
                    }
                    if obs.is_enabled() && drains.is_multiple_of(cfg.selfscrape_every_drains) {
                        obs.scrape_into_shared(db, scrape_t);
                    }
                    std::thread::sleep(Duration::from_micros(cfg.drain_pause_us));
                }
                finish(&mut sink, exporter.totals())
            }));
        }
        for h in exporters {
            h.join().expect("exporter thread panicked")?;
        }
        Ok(())
    })
}

/// The threaded telemetry runtime: `cfg.nodes` node worlds (a
/// collector thread plus a concurrently draining exporter thread each —
/// see `run_node_worlds`) feeding one aggregation tier over `transport`. Exporters run their final drain
/// after their collector finishes and then report drain totals
/// out-of-band, so the returned aggregator holds the complete fleet
/// view: cluster-wide window aggregates and merged-sketch percentiles
/// are served from it with zero raw re-reads on sealed spans. Batch
/// *pacing* differs across transports; the store's merge algebra makes
/// the content — and so every query answer — identical.
///
/// [`Transport::Tcp`] is the durable, socket-framed shape: every
/// ingested batch is appended to the write-ahead log (and periodically
/// compacted into a snapshot) **before** its ack goes back to the
/// exporter, so a `kill -9` of the aggregation process at any point
/// loses nothing that was acknowledged. The run finishes with every
/// exporter fully acked ([`SocketSink::wait_idle`]), a final snapshot,
/// and the in-memory tier returned. Before the listener shuts down,
/// the run also exercises the serving tier end-to-end: a
/// [`FleetClient`] dials the same listener and the harness asserts
/// that every remote answer — window aggregates of each kind, the
/// run-wide merged p99, top-k rankings both directions, the health
/// rollup, coverage-annotated aggregates, and the axes listing — is
/// **bit-identical** to the in-process planner's answer computed under
/// the fleet lock ([`MultiNodeFleetStats::remote_queries_verified`]
/// counts them).
pub fn run_multinode_fleet(
    cfg: &MultiNodeFleetConfig,
    transport: Transport<'_>,
) -> std::io::Result<MultiNodeFleetStats> {
    assert!(cfg.nodes > 0 && cfg.rounds > 0 && cfg.metrics_per_node > 0);
    let dbs: Vec<Arc<ShardedTsdb>> = (0..cfg.nodes)
        .map(|_| Arc::new(ShardedTsdb::with_config(cfg.retention, cfg.shards)))
        .collect();
    let start = Instant::now();
    let (aggregator, wall, remote_queries_verified) = match transport {
        Transport::Channel => {
            let (tx, rx) = channel::unbounded::<FleetMsg>();
            let mut agg = FleetAggregator::new();
            let node_ids: Vec<NodeId> = (0..cfg.nodes)
                .map(|k| agg.add_node(&format!("node{k:02}")))
                .collect();
            // The one aggregator thread: consumes node batches until
            // every exporter has hung up, then returns the ingested tier.
            let agg_thread = std::thread::spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        FleetMsg::Batch(node, batch) => {
                            agg.ingest(node, &batch);
                        }
                        FleetMsg::Drain(node, stats) => agg.report_drain(node, &stats),
                    }
                }
                agg
            });
            let ran = run_node_worlds(
                cfg,
                &dbs,
                |k| Ok(ChannelSink::new(node_ids[k], tx.clone())),
                |sink, totals| sink.send_drain(totals),
            );
            drop(tx);
            let agg = agg_thread.join().expect("aggregator thread panicked");
            ran?;
            (agg, start.elapsed(), 0)
        }
        Transport::Tcp { dir, token } => {
            let mut fleet = DurableFleet::open(dir, DurabilityConfig::default())?;
            // Service-side self-telemetry: the aggregation tier
            // instruments its own WAL appends and query serving, shipped
            // into the fleet through the stock export pipeline under a
            // service session.
            let mut scraper = if cfg.selfscrape_every_drains > 0 {
                Some(moda_fleet::SelfScraper::attach(&mut fleet, Obs::enabled())?)
            } else {
                None
            };
            let listener = FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), token)?;
            let addr = listener.local_addr().to_string();
            run_node_worlds(
                cfg,
                &dbs,
                |k| SocketSink::connect(&addr, &format!("node{k:02}"), token),
                |sink, totals| {
                    sink.send_drain(&totals)?;
                    // Every batch acked — and therefore logged — before
                    // the node world hangs up.
                    sink.wait_idle()
                },
            )?;
            let wall = start.elapsed();
            // Every exporter is fully acked, so the tier is quiescent.
            // First scrape the service registry (the run's WAL appends
            // and ingest spans) into the fleet, so the in-process/remote
            // equivalence below sees stable `__self/` axes.
            let scrape_t = SimTime(cfg.tick.0 * cfg.rounds as u64);
            if let Some(s) = scraper.as_mut() {
                let shared = listener.fleet();
                let mut f = shared.lock().unwrap();
                s.tick(&mut f, scrape_t)?;
            }
            // The serving-protocol equivalence check runs against a
            // stable view.
            let mut verified = verify_remote_queries(&listener, &addr, token, cfg)?;
            // Self-telemetry round trip: the queries just served
            // recorded `query.serve_ns` spans — scrape them in, then
            // hold the fleet quiescent and check the fleet-merged
            // `__self/` p99s remotely.
            if let Some(s) = scraper.as_mut() {
                {
                    let shared = listener.fleet();
                    let mut f = shared.lock().unwrap();
                    s.tick(&mut f, scrape_t)?;
                }
                verified += verify_remote_self_queries(&listener, &addr, token, cfg)?;
            }
            let fleet = listener.shutdown();
            let mut fleet = Arc::try_unwrap(fleet)
                .expect("all connections joined")
                .into_inner()
                .expect("fleet lock poisoned");
            // Seal the run: compact the log into a final snapshot so
            // the next recovery from `dir` is a pure snapshot load.
            fleet.snapshot()?;
            (fleet.into_aggregator(), wall, verified)
        }
    };
    Ok(MultiNodeFleetStats {
        aggregator,
        inserts: dbs.iter().map(|db| db.total_inserts()).sum(),
        wall,
        remote_queries_verified,
    })
}

/// Drive the read-only query protocol against the live listener and
/// assert every remote answer is bit-identical (`f64::to_bits`,
/// structural equality on served/coverage/health metadata) to the
/// in-process planner answer computed directly on the shared fleet.
/// Returns the number of remote queries verified.
///
/// The in-process expectations are computed on [`moda_fleet::FleetStore`]
/// / [`moda_fleet::FleetAggregator`] directly — *not* through the
/// server's own `execute` path — so the check spans the whole serving
/// stack: planner → response encode → socket → client decode.
fn verify_remote_queries(
    listener: &FleetListener,
    addr: &str,
    token: &str,
    cfg: &MultiNodeFleetConfig,
) -> std::io::Result<u64> {
    let now = SimTime(cfg.tick.0 * cfg.rounds as u64);
    let span = SimDuration(now.0); // the whole run, first tick included
    let stale_after = SimDuration(cfg.tick.0.max(1) * 4);
    let shared = listener.fleet();
    let mut client = FleetClient::connect(addr, token)?;
    let mut verified = 0u64;
    let scalar_bits = |v: Option<f64>| v.map(f64::to_bits);

    for m in 0..cfg.metrics_per_node {
        let metric = format!("metric{m:03}");
        for agg in [
            WindowAgg::Count,
            WindowAgg::Sum,
            WindowAgg::Mean,
            WindowAgg::Min,
            WindowAgg::Max,
            // The run-wide fleet percentile, merged from every node's
            // sealed-bucket sketches.
            WindowAgg::Percentile(0.99),
        ] {
            let want = {
                let fleet = shared.lock().unwrap();
                fleet
                    .store()
                    .fleet_window_agg_served(&metric, now, span, agg)
            };
            let got = client.window_agg(&metric, now, span, agg)?;
            assert_eq!(
                scalar_bits(got.value),
                scalar_bits(want.0),
                "remote {metric} {agg:?} diverged from the in-process planner"
            );
            assert_eq!(got.served, want.1, "served metadata for {metric} {agg:?}");
            verified += 1;
        }
    }

    // Top-k both directions, over a per-node p99 — name resolution and
    // tie order must match the in-process ranking exactly.
    let metric = "metric000";
    for rank in [Rank::Highest, Rank::Lowest] {
        let want: Vec<(NodeId, String, u64)> = {
            let fleet = shared.lock().unwrap();
            fleet
                .store()
                .top_nodes(
                    metric,
                    now,
                    span,
                    WindowAgg::Percentile(0.99),
                    cfg.nodes,
                    rank,
                )
                .into_iter()
                .map(|(node, v)| {
                    (
                        node,
                        fleet.aggregator().node_name(node).to_string(),
                        v.to_bits(),
                    )
                })
                .collect()
        };
        let got: Vec<(NodeId, String, u64)> = client
            .top_nodes(
                metric,
                now,
                span,
                WindowAgg::Percentile(0.99),
                cfg.nodes as u32,
                rank,
            )?
            .into_iter()
            .map(|e| (e.node, e.name, e.value.to_bits()))
            .collect();
        assert_eq!(got, want, "remote top-k ({rank:?}) diverged");
        verified += 1;
    }

    // Health rollup: liveness, high-water marks, full wire counters,
    // drain totals — field for field.
    let want = {
        let fleet = shared.lock().unwrap();
        HealthAnswer::from_fleet(&fleet.aggregator().health(now, stale_after))
    };
    let got = client.health(now, stale_after)?;
    assert_eq!(got, want, "remote health rollup diverged");
    verified += 1;

    // Coverage-annotated aggregate: the control-plane view.
    let want = {
        let fleet = shared.lock().unwrap();
        fleet
            .aggregator()
            .covered_window_agg(metric, now, span, WindowAgg::Sum, stale_after)
    };
    let got = client.covered_window_agg(metric, now, span, WindowAgg::Sum, stale_after)?;
    assert_eq!(
        scalar_bits(got.value),
        scalar_bits(want.value),
        "remote covered aggregate diverged"
    );
    assert_eq!(got.served, want.served, "covered served metadata");
    assert_eq!(got.coverage, want.coverage, "coverage metadata");
    verified += 1;

    // Axes discovery listing.
    let want: Vec<(String, u32)> = {
        let fleet = shared.lock().unwrap();
        fleet
            .store()
            .logical_axes()
            .into_iter()
            .map(|(name, members)| (name, members as u32))
            .collect()
    };
    assert_eq!(client.metrics()?.axes, want, "remote axes listing diverged");
    verified += 1;

    Ok(verified)
}

/// The self-telemetry leg of the equivalence pass: for each reserved
/// `__self/` axis the run produced, assert the **fleet-merged**
/// count and p99 served remotely are bit-identical to the in-process
/// planner — the pipeline's own spans travel the same
/// scrape → export → ingest → rollup → query path as sensor data, so
/// they get the same serving guarantee. Queries served here record
/// further `query.serve_ns` spans, but those only touch the registry,
/// never the store the answers read from.
fn verify_remote_self_queries(
    listener: &FleetListener,
    addr: &str,
    token: &str,
    cfg: &MultiNodeFleetConfig,
) -> std::io::Result<u64> {
    let now = SimTime(cfg.tick.0 * cfg.rounds as u64);
    let span = SimDuration(now.0);
    let shared = listener.fleet();
    let mut client = FleetClient::connect(addr, token)?;
    let mut verified = 0u64;
    for axis in [
        "__self/wal.fsync_ns",
        "__self/export.drain_ns",
        "__self/query.serve_ns",
    ] {
        for agg in [WindowAgg::Count, WindowAgg::Percentile(0.99)] {
            let want = {
                let fleet = shared.lock().unwrap();
                fleet.store().fleet_window_agg_served(axis, now, span, agg)
            };
            let got = client.window_agg(axis, now, span, agg)?;
            assert_eq!(
                got.value.map(f64::to_bits),
                want.0.map(f64::to_bits),
                "remote {axis} {agg:?} diverged from the in-process planner"
            );
            assert_eq!(got.served, want.1, "served metadata for {axis} {agg:?}");
            assert!(
                got.value.is_some(),
                "self axis {axis} carried no data through the pipeline"
            );
            verified += 1;
        }
    }
    Ok(verified)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cheap() -> StageCosts {
        StageCosts {
            monitor_us: 1,
            analyze_us: 1,
            plan_us: 1,
            execute_us: 1,
        }
    }

    #[test]
    fn classical_completes_all_rounds() {
        let s = run_classical(50, cheap());
        assert_eq!(s.iterations, 50);
        assert!(s.mean_latency_us > 0.0);
        assert!(s.throughput_per_s > 0.0);
        assert!(s.p99_latency_us >= s.p50_latency_us);
    }

    #[test]
    fn master_worker_completes_all_iterations() {
        let s = run_master_worker(4, 25, cheap());
        assert_eq!(s.iterations, 4 * 25);
        assert!(s.mean_latency_us > 0.0);
    }

    #[test]
    fn coordinated_completes_all_iterations() {
        let s = run_coordinated(4, 25, cheap());
        assert_eq!(s.iterations, 4 * 25);
        assert!(s.mean_latency_us > 0.0);
    }

    #[test]
    fn hierarchical_completes_all_iterations() {
        let s = run_hierarchical(4, 24, cheap(), 8);
        assert_eq!(s.iterations, 4 * 24);
        assert!(s.mean_latency_us > 0.0);
    }

    #[test]
    fn single_worker_patterns_agree_on_iteration_count() {
        for s in [
            run_master_worker(1, 10, cheap()),
            run_coordinated(1, 10, cheap()),
            run_hierarchical(1, 10, cheap(), 5),
        ] {
            assert_eq!(s.iterations, 10);
        }
    }

    #[test]
    fn multinode_fleet_aggregates_every_node_exactly_once() {
        let cfg = MultiNodeFleetConfig {
            nodes: 3,
            rounds: 400,
            metrics_per_node: 4,
            ..MultiNodeFleetConfig::default()
        };
        let stats = run_multinode_fleet(&cfg, Transport::Channel).unwrap();
        assert_eq!(stats.inserts, 3 * 400 * 4);
        let agg = &stats.aggregator;
        let store = agg.store();
        // One fleet metric per node×name; each name is a logical axis.
        assert_eq!(store.cardinality(), 3 * 4);
        assert_eq!(store.logical_members("metric000").len(), 3);
        assert!(store.lookup("node02/metric003").is_some());
        // Wire hygiene: no duplicates, no gaps, no framing violations,
        // and every accepted node sample arrived exactly once.
        let mut samples = 0;
        for k in 0..3u32 {
            let c = agg.counters(moda_fleet::NodeId(k));
            assert_eq!(c.duplicate_batches, 0, "{c:?}");
            assert_eq!(c.gaps, 0, "{c:?}");
            assert_eq!(c.orphan_sketches, 0, "{c:?}");
            assert_eq!(c.unmapped_records, 0, "{c:?}");
            assert_eq!(c.rejected_samples, 0, "{c:?}");
            samples += c.samples;
            // The out-of-band drain totals arrived and agree.
            assert_eq!(agg.drain_stats(moda_fleet::NodeId(k)).samples, c.samples);
        }
        assert_eq!(samples, stats.inserts, "final drains shipped everything");
        // Cluster query over the whole span: every sample is counted
        // exactly once across buckets and raw splices.
        let now = SimTime::from_secs(400);
        let span = SimDuration::from_secs(400);
        let count = store
            .fleet_window_agg("metric000", now, span, moda_telemetry::WindowAgg::Count)
            .unwrap();
        assert_eq!(count, 3.0 * 400.0);
        // Health: all nodes live once everything is drained.
        let h = agg.health(now, SimDuration::from_secs(60));
        assert_eq!(h.live, 3);
        assert_eq!(h.observed_now, now);
    }

    #[test]
    fn multinode_fleet_p99_is_sketch_served() {
        let cfg = MultiNodeFleetConfig {
            nodes: 2,
            rounds: 360, // 6 simulated minutes → several sealed 1m buckets
            metrics_per_node: 2,
            ..MultiNodeFleetConfig::default()
        };
        let stats = run_multinode_fleet(&cfg, Transport::Channel).unwrap();
        let store = stats.aggregator.store();
        // Query only the sealed region (aligned minutes): the fleet p99
        // must be merged purely from sketches — zero raw reads.
        let (p99, served) = store.fleet_window_agg_served(
            "metric001",
            SimTime(299_999), // one ms short of the 5-minute boundary
            SimDuration::from_secs(240),
            moda_telemetry::WindowAgg::Percentile(0.99),
        );
        assert!(p99.is_some());
        assert!(served.sketch, "{served:?}");
        assert_eq!(served.raw_values, 0, "{served:?}");
        assert!(store.stats().sketch_hits >= 1);
    }

    #[test]
    fn multinode_fleet_tcp_matches_channel_run_and_persists() {
        let cfg = MultiNodeFleetConfig {
            nodes: 3,
            rounds: 300,
            metrics_per_node: 4,
            ..MultiNodeFleetConfig::default()
        };
        let dir = std::env::temp_dir().join(format!(
            "moda-runtime-tcp-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let reference = run_multinode_fleet(&cfg, Transport::Channel).unwrap();
        let tcp = Transport::Tcp {
            dir: &dir,
            token: "runtime-token",
        };
        let stats = run_multinode_fleet(&cfg, tcp).unwrap();
        assert_eq!(stats.inserts, reference.inserts);
        assert_eq!(reference.remote_queries_verified, 0, "no socket to query");
        // The TCP run drove the serving protocol end-to-end before
        // shutdown: scalar aggregates + run-wide p99 per metric, top-k
        // both directions, health, coverage, and the axes listing —
        // each asserted bit-identical inside verify_remote_queries.
        assert_eq!(
            stats.remote_queries_verified,
            (cfg.metrics_per_node * 6 + 2 + 3) as u64
        );
        let (store, ref_store) = (stats.aggregator.store(), reference.aggregator.store());
        assert_eq!(store.cardinality(), ref_store.cardinality());
        // Batch boundaries differ across transports (drain pacing), but
        // the merge algebra makes every fleet query answer identical.
        let now = SimTime::from_secs(300);
        let span = SimDuration::from_secs(300);
        for agg in [
            moda_telemetry::WindowAgg::Count,
            moda_telemetry::WindowAgg::Sum,
            moda_telemetry::WindowAgg::Max,
            moda_telemetry::WindowAgg::Percentile(0.99),
        ] {
            for m in 0..cfg.metrics_per_node {
                let name = format!("metric{m:03}");
                let got = store.fleet_window_agg(&name, now, span, agg);
                let want = ref_store.fleet_window_agg(&name, now, span, agg);
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{name} {agg:?}"
                );
            }
        }
        // Every node sample arrived exactly once over the socket and
        // the final drain totals agree with the ingest counters.
        let mut samples = 0;
        for k in 0..cfg.nodes as u32 {
            let c = stats.aggregator.counters(moda_fleet::NodeId(k));
            assert_eq!(c.duplicate_batches, 0, "{c:?}");
            assert_eq!(c.gaps, 0, "{c:?}");
            samples += c.samples;
            assert_eq!(
                stats.aggregator.drain_stats(moda_fleet::NodeId(k)).samples,
                c.samples
            );
        }
        assert_eq!(samples, stats.inserts);
        // The run sealed a snapshot: recovery from `dir` replays no wal
        // tail and answers the same count query bit-identically.
        let recovered = moda_fleet::FleetStore::recover(&dir).unwrap();
        assert_eq!(recovered.recovery().replayed_batches, 0, "sealed snapshot");
        let count = recovered
            .store()
            .fleet_window_agg("metric000", now, span, moda_telemetry::WindowAgg::Count)
            .unwrap();
        assert_eq!(count, (cfg.nodes * cfg.rounds) as f64);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multinode_fleet_tcp_selfscrape_serves_self_axes() {
        let cfg = MultiNodeFleetConfig {
            nodes: 2,
            rounds: 120,
            metrics_per_node: 3,
            selfscrape_every_drains: 2,
            ..MultiNodeFleetConfig::default()
        };
        let dir = std::env::temp_dir().join(format!(
            "moda-runtime-selfobs-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let tcp = Transport::Tcp {
            dir: &dir,
            token: "runtime-token",
        };
        let stats = run_multinode_fleet(&cfg, tcp).unwrap();
        // The baseline equivalence pass plus the six self-axis checks
        // (count + p99 for wal.fsync_ns / export.drain_ns /
        // query.serve_ns) — each asserted bit-identical remotely.
        assert_eq!(
            stats.remote_queries_verified,
            (cfg.metrics_per_node * 6 + 2 + 3 + 6) as u64
        );
        // Node worlds and the service session all feed the same
        // logical axis: fleet-merged self-observability across K nodes.
        let axes = stats.aggregator.store().logical_axes();
        let drain_axis = axes
            .iter()
            .find(|(name, _)| name == "__self/export.drain_ns")
            .expect("drain axis registered");
        assert!(
            drain_axis.1 >= cfg.nodes,
            "every node contributes: {drain_axis:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spin_spins_for_roughly_the_requested_time() {
        let t0 = Instant::now();
        spin(500);
        let e = t0.elapsed();
        assert!(e >= Duration::from_micros(500));
        // Loose upper bound: CI machines can stall, but 50x is a bug.
        assert!(e < Duration::from_micros(25_000), "spin overshot: {e:?}");
    }
}
