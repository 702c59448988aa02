//! Concurrent ingest sessions, end to end: K node threads — each with
//! its own `Tsdb`, `Exporter`, `SocketSink` and an enabled `Obs`
//! scraped into that `Tsdb` — stream at the same time into one
//! `FleetListener` whose `DurableFleet` scrapes itself through a
//! `SelfScraper`.
//!
//! Once every session is acked, every logical axis the run produced —
//! the sensor axes and the fleet-merged `__self/` axes alike — must
//! answer a `FleetClient` bit-identically to
//!
//! * the in-process planner on the served fleet,
//! * an in-process `FleetAggregator` fed the same batches, and
//! * the fleet `DurableFleet::recover` restores from the state
//!   directory.

use moda_fleet::{
    DurabilityConfig, DurableFleet, FleetAggregator, FleetClient, FleetListener, FleetServed,
    Ledger, NodeId, SelfScraper, SocketSink, SELF_NODE,
};
use moda_obs::Obs;
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::export::{ExportBatch, MemorySink, Sink};
use moda_telemetry::{
    DrainStats, Exporter, MetricId, MetricMeta, RollupConfig, SourceDomain, Tsdb, WindowAgg,
};
use std::sync::{Arc, Barrier, Mutex};

const TOKEN: &str = "sessions-test-token";
const NODES: usize = 3;
const METRICS: usize = 4;
/// One sweep per simulated second: six minutes seal several 1 m buckets.
const ROUNDS: u64 = 360;
const DRAIN_EVERY: u64 = 7;
const SCRAPE_EVERY_DRAINS: u64 = 2;

const AGGS: [WindowAgg; 6] = [
    WindowAgg::Count,
    WindowAgg::Sum,
    WindowAgg::Min,
    WindowAgg::Max,
    WindowAgg::Mean,
    WindowAgg::Percentile(0.99),
];

/// Ships to the socket and keeps a copy of every batch that went out,
/// so the reference aggregator can be fed exactly the same batches.
struct Recording {
    socket: SocketSink,
    sent: Vec<ExportBatch>,
}

impl Sink for Recording {
    fn write_batch(&mut self, batch: &ExportBatch) -> std::io::Result<()> {
        self.socket.write_batch(batch)?;
        self.sent.push(batch.clone());
        Ok(())
    }
}

/// One node world: sweep, drain every few sweeps with the drain spanned
/// on the node's own `Obs`, scrape that `Obs` into the node store every
/// few drains, and finish with a scrape, a last drain and the drain
/// totals — returning only after the server has acked everything. No
/// node streams before all K sessions are open (`all_connected`).
fn run_node(k: usize, addr: &str, all_connected: &Barrier) -> (Vec<ExportBatch>, DrainStats) {
    let mut db = Tsdb::with_retention(8192);
    let ids: Vec<MetricId> = (0..METRICS)
        .map(|m| {
            let id = db.register(MetricMeta::gauge(
                format!("metric{m:03}"),
                "u",
                SourceDomain::Hardware,
            ));
            db.enable_rollups(id, &RollupConfig::standard().with_sketches());
            id
        })
        .collect();
    let obs = Obs::enabled();
    let drain_ns = obs.latency("export.drain_ns");
    let mut exporter = Exporter::new();
    let mut sink = Recording {
        socket: SocketSink::connect(addr, &format!("node{k:02}"), TOKEN).unwrap(),
        sent: Vec::new(),
    };
    all_connected.wait();
    let mut drains = 0u64;
    for round in 1..=ROUNDS {
        let t = SimTime::from_secs(round);
        let sweep: Vec<(MetricId, f64)> = ids
            .iter()
            .enumerate()
            .map(|(m, id)| (*id, ((k as u64 * 31 + m as u64 * 7 + round) % 997) as f64))
            .collect();
        assert_eq!(db.insert_batch(t, &sweep), METRICS);
        let last = round == ROUNDS;
        if last || round.is_multiple_of(DRAIN_EVERY) {
            if last || drains.is_multiple_of(SCRAPE_EVERY_DRAINS) {
                obs.scrape_into(&mut db, t);
            }
            let _span = drain_ns.start();
            exporter.drain(&db, &mut sink).unwrap();
            drains += 1;
        }
    }
    let totals = exporter.totals();
    sink.socket.send_drain(&totals).unwrap();
    sink.socket.wait_idle().unwrap();
    (sink.sent, totals)
}

/// `(axis, aggregate, value bits, how it was served)` for every axis ×
/// aggregate over the whole run, from an in-process aggregator.
type Answers = Vec<(String, WindowAgg, Option<u64>, FleetServed)>;

fn planner_answers(agg: &FleetAggregator, axes: &[String], now: SimTime) -> Answers {
    let mut out = Vec::new();
    for axis in axes {
        for kind in AGGS {
            let (value, served) =
                agg.store()
                    .fleet_window_agg_served(axis, now, SimDuration(now.0), kind);
            out.push((axis.clone(), kind, value.map(f64::to_bits), served));
        }
    }
    out
}

#[test]
fn concurrent_sessions_answer_like_the_planner_a_reference_and_a_recovery() {
    let dir = std::env::temp_dir().join(format!("moda_fleet_sessions_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Snapshots rotate mid-run, so recovery below is a snapshot load
    // plus a log-tail replay.
    let durability = DurabilityConfig {
        snapshot_every_batches: 64,
    };
    let mut fleet = DurableFleet::open(&dir, durability).unwrap();
    let mut scraper = SelfScraper::attach(&mut fleet, Obs::enabled()).unwrap();
    let listener = FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), TOKEN).unwrap();
    let addr = listener.local_addr().to_string();

    let all_connected = Barrier::new(NODES);
    let streams: Vec<(Vec<ExportBatch>, DrainStats)> = std::thread::scope(|s| {
        let nodes: Vec<_> = (0..NODES)
            .map(|k| {
                let (addr, all_connected) = (&addr, &all_connected);
                s.spawn(move || run_node(k, addr, all_connected))
            })
            .collect();
        nodes.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every session is acked, so the tier is quiescent. Scrape the
    // service registry (the run's WAL appends and ingest spans), serve a
    // query so `query.serve_ns` has a span, and scrape again: from here
    // on queries touch the registry only, never the store they read.
    let now = SimTime::from_secs(ROUNDS);
    let shared = listener.fleet();
    let mut client = FleetClient::connect(&addr, TOKEN).unwrap();
    scraper.tick(&mut shared.lock().unwrap(), now).unwrap();
    client.metrics().unwrap();
    scraper.tick(&mut shared.lock().unwrap(), now).unwrap();

    // What the run produced: K members on every sensor axis; the node
    // worlds and the service session on the shared drain axis.
    let listing = client.metrics().unwrap().axes;
    let members = |axis: &str| {
        listing
            .iter()
            .find(|(name, _)| name == axis)
            .map(|(_, n)| *n as usize)
    };
    for m in 0..METRICS {
        assert_eq!(members(&format!("metric{m:03}")), Some(NODES));
    }
    assert_eq!(members("__self/export.drain_ns"), Some(NODES + 1));
    assert_eq!(members("__self/wal.fsync_ns"), Some(1));
    assert_eq!(members("__self/query.serve_ns"), Some(1));
    let axes: Vec<String> = listing.into_iter().map(|(name, _)| name).collect();

    // Remote == the in-process planner on the served fleet.
    let live = planner_answers(shared.lock().unwrap().aggregator(), &axes, now);
    let remote: Answers = live
        .iter()
        .map(|(axis, kind, _, _)| {
            let got = client
                .window_agg(axis, now, SimDuration(now.0), *kind)
                .unwrap();
            (axis.clone(), *kind, got.value.map(f64::to_bits), got.served)
        })
        .collect();
    assert_eq!(remote, live);
    let answer = |axis: &str, kind: WindowAgg| {
        remote
            .iter()
            .find(|(a, k, _, _)| a == axis && *k == kind)
            .and_then(|(_, _, bits, _)| bits.map(f64::from_bits))
    };
    assert_eq!(
        answer("metric000", WindowAgg::Count),
        Some((NODES as u64 * ROUNDS) as f64)
    );
    for axis in [
        "__self/export.drain_ns",
        "__self/wal.fsync_ns",
        "__self/query.serve_ns",
    ] {
        let p99 = answer(axis, WindowAgg::Percentile(0.99));
        assert!(p99.is_some(), "{axis} carried no data through the pipeline");
    }
    // A fleet p99 over sealed, aligned minutes is merged from the
    // nodes' sketches alone.
    let sealed = client
        .window_agg(
            "metric001",
            SimTime(299_999),
            SimDuration::from_secs(240),
            WindowAgg::Percentile(0.99),
        )
        .unwrap();
    assert!(sealed.value.is_some());
    assert!(
        sealed.served.sketch && sealed.served.raw_values == 0,
        "{:?}",
        sealed.served
    );

    // Every session — the service's included — is live at the run's end.
    let stale_after = SimDuration::from_secs(60);
    let health = client.health(now, stale_after).unwrap();
    let want = shared.lock().unwrap().aggregator().health(now, stale_after);
    assert_eq!(health, want);
    assert_eq!((health.live, health.observed_now), (NODES + 1, now));

    // Wire hygiene under concurrency: every node sample arrived exactly
    // once, and what each exporter reported shipping balances what its
    // session took.
    drop((client, shared));
    let fleet = Arc::try_unwrap(listener.shutdown())
        .unwrap_or_else(|_| panic!("a session still holds the fleet"))
        .into_inner()
        .unwrap();
    for (k, (_, totals)) in streams.iter().enumerate() {
        let node = fleet.find_node(&format!("node{k:02}")).unwrap();
        let c = fleet.aggregator().counters(node);
        assert_eq!((c.duplicate_batches, c.gaps), (0, 0), "{c:?}");
        assert_eq!((c.orphan_sketches, c.unmapped_records), (0, 0), "{c:?}");
        assert_eq!(c.rejected_samples, 0, "{c:?}");
        assert_eq!(fleet.aggregator().drain_stats(node), *totals);
        let ledger = health.nodes[node.index()].ledger();
        assert_eq!(ledger, Ledger::default(), "node{k:02}");
        assert!(c.samples >= ROUNDS * METRICS as u64, "{c:?}");
    }

    // == an in-process aggregator fed the same batches, sessions opened
    // in the order the listener saw them. The service session's batches
    // never left `SelfScraper::tick`; a full drain of its private store
    // ships the same content.
    let mut reference = FleetAggregator::new();
    for n in 0..fleet.aggregator().node_count() {
        let name = fleet.aggregator().node_name(NodeId(n as u32)).to_string();
        let node = reference.add_node(&name);
        let mut own = MemorySink::new();
        let batches = if name == SELF_NODE {
            Exporter::new().drain(scraper.db(), &mut own).unwrap();
            &own.batches
        } else {
            let k: usize = name["node".len()..].parse().unwrap();
            &streams[k].0
        };
        for batch in batches {
            assert!(reference.ingest(node, batch).applied);
        }
    }
    assert_eq!(planner_answers(&reference, &axes, now), live);

    // == what recovery restores from the state directory.
    drop(fleet);
    let recovered = DurableFleet::recover(&dir).unwrap();
    assert!(
        recovered.recovery().epoch > 0,
        "restored from a mid-run snapshot"
    );
    assert_eq!(planner_answers(recovered.aggregator(), &axes, now), live);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}
