//! Self-telemetry integration suite: the pipeline's own metrics ride
//! the pipeline.
//!
//! Four contracts:
//!
//! * **bit-exact round trip** (proptest) — arbitrary instrument
//!   states scraped into a node store, drained through the stock
//!   exporter, and ingested into the fleet answer every mergeable
//!   window aggregate bit-identically to the node-local store the
//!   scrape wrote (durations are integer ns ≤ 2^48, so ns → f64 →
//!   wire → fleet never rounds);
//! * **disabled means untouched** — a disabled [`Obs`] handle records
//!   nothing, scrapes nothing, and leaves a store byte-for-byte
//!   identical to an uninstrumented run; a [`SelfScraper`] on one
//!   writes no reading either;
//! * **one home per count** — the fleet's ingest and export counts are
//!   read where they live at scrape time: every `__self/` name the
//!   scraper has always written is still written, with its kind and
//!   values, no name is both a reading and a registry instrument, the
//!   ingest readings carry on across a recovery, and a batch lost on
//!   its way is owed in the ledger;
//! * **selfstat over the wire** — the bounded slow-op log is drainable
//!   through the versioned query protocol (`REQ_SELF_STAT`), empty on
//!   an uninstrumented fleet, populated and then drained on an
//!   instrumented one.

use moda_fleet::{
    DurabilityConfig, DurableFleet, FleetAggregator, FleetClient, FleetListener, Ledger,
    NodeCounters, SelfScraper,
};
use moda_obs::Obs;
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::export::{ExportBatch, ExportRecord, MemorySink};
use moda_telemetry::{
    DrainStats, Exporter, MetricId, MetricKind, MetricMeta, SourceDomain, Tsdb, WindowAgg,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const TOKEN: &str = "selfobs-test-token";

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn work_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("moda_selfobs_it_{tag}_{}_{n}", std::process::id()))
}

// ------------------------------------------------- bit-exact round trip

/// Arbitrary instrument workload: counters, gauges, and latency
/// recorders with pending durations.
#[derive(Debug, Clone)]
struct Workload {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    latencies: Vec<(String, Vec<u64>)>,
}

fn workload() -> impl Strategy<Value = Workload> {
    let name = "[a-z]{1,6}";
    let counters = prop::collection::vec((name, any::<u64>()), 0..4);
    let gauges = prop::collection::vec((name, -1e12f64..1e12), 0..4);
    // Durations bounded to 2^48 ns (~3 days): comfortably inside f64's
    // integer-exact range, far above anything a span can record.
    let lats = prop::collection::vec((name, prop::collection::vec(0u64..(1 << 48), 1..24)), 0..3);
    (counters, gauges, lats).prop_map(|(counters, gauges, latencies)| Workload {
        counters,
        gauges,
        latencies,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// scrape → export → fleet ingest answers every mergeable window
    /// aggregate bit-identically to the node-local store the scrape
    /// wrote — for arbitrary instrument states.
    #[test]
    fn self_metrics_round_trip_bit_exactly(w in workload()) {
        let obs = Obs::enabled();
        for (name, v) in &w.counters {
            obs.counter(&format!("c.{name}")).add(*v);
        }
        for (name, v) in &w.gauges {
            obs.gauge(&format!("g.{name}")).set(*v);
        }
        for (name, samples) in &w.latencies {
            let lat = obs.latency(&format!("l.{name}"));
            for ns in samples {
                lat.record_ns(*ns);
            }
        }

        let t = SimTime::from_secs(30);
        let mut db = Tsdb::new();
        let samples = obs.scrape_into(&mut db, t);
        prop_assert_eq!(samples as u64, db.self_inserts());

        let mut sink = MemorySink::new();
        Exporter::new().drain(&db, &mut sink).unwrap();
        let mut fleet = FleetAggregator::new();
        let node = fleet.add_node("svc");
        for batch in &sink.batches {
            let report = fleet.ingest(node, batch);
            prop_assert!(report.applied);
        }

        let span = SimDuration::from_secs(60);
        for id in 0..db.cardinality() as u32 {
            let id = moda_telemetry::MetricId(id);
            let name = db.meta(id).name.clone();
            prop_assert!(name.starts_with("__self/"));
            for agg in [WindowAgg::Count, WindowAgg::Sum, WindowAgg::Min, WindowAgg::Max] {
                let want = db.window_agg(id, t, span, agg);
                let got = fleet.store().fleet_window_agg(&name, t, span, agg);
                prop_assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{} {:?}", &name, agg
                );
            }
        }
    }
}

// ------------------------------------------------- disabled means untouched

#[test]
fn disabled_obs_leaves_the_store_untouched() {
    // Identical workloads, one with a disabled handle spanning every
    // insert, one bare: the stores must be indistinguishable and the
    // handle must have recorded nothing.
    let run = |obs: Option<&Obs>| {
        let mut db = Tsdb::new();
        let id = db.register(moda_telemetry::MetricMeta::gauge(
            "m",
            "u",
            moda_telemetry::SourceDomain::Software,
        ));
        let lat = obs.map(|o| o.latency("tsdb.insert_ns"));
        for s in 0..500u64 {
            let _span = lat.as_ref().map(|l| l.start());
            db.insert(id, SimTime::from_secs(s), s as f64);
            if let Some(o) = obs {
                o.counter("inserts").add(1);
            }
        }
        if let Some(o) = obs {
            o.scrape_into(&mut db, SimTime::from_secs(500));
        }
        db
    };
    let obs = Obs::disabled();
    let instrumented = run(Some(&obs));
    let bare = run(None);

    assert!(obs.registry().is_none(), "disabled handle has no registry");
    assert!(obs.slow_ops(16).is_empty());
    assert_eq!(obs.counter_value("inserts"), None);
    assert_eq!(instrumented.cardinality(), bare.cardinality());
    assert_eq!(instrumented.total_inserts(), bare.total_inserts());
    assert_eq!(instrumented.self_inserts(), 0, "no scrape happened");
    let id = moda_telemetry::MetricId(0);
    assert_eq!(
        instrumented.latest_value(id).map(f64::to_bits),
        bare.latest_value(id).map(f64::to_bits)
    );
    let agg = instrumented.window_agg(
        id,
        SimTime::from_secs(499),
        SimDuration::from_secs(500),
        WindowAgg::Sum,
    );
    let want = bare.window_agg(
        id,
        SimTime::from_secs(499),
        SimDuration::from_secs(500),
        WindowAgg::Sum,
    );
    assert_eq!(agg.map(f64::to_bits), want.map(f64::to_bits));

    // A self-scraper on a disabled handle writes no reading either,
    // though the fleet's own counts go on counting.
    let dir = work_dir("disabled");
    let _ = std::fs::remove_dir_all(&dir);
    let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
    let mut scraper = SelfScraper::attach(&mut fleet, Obs::disabled()).unwrap();
    let node = fleet.add_node("node00").unwrap();
    for batch in &node_stream().0 {
        fleet.ingest(node, batch).unwrap();
    }
    for t in [10, 20] {
        let tick = scraper.tick(&mut fleet, SimTime::from_secs(t)).unwrap();
        assert_eq!((tick.samples, tick.batches), (0, 0));
    }
    assert_eq!(scraper.db().self_inserts(), 0);
    assert_eq!(scraper.db().cardinality(), 0);
    assert_eq!(fleet.aggregator().counters(node).samples, 300);
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- one home per count

/// One node's stream: 300 one-hertz samples of one metric, in batches
/// of 64 records, and the exporter's totals.
fn node_stream() -> (Vec<ExportBatch>, DrainStats) {
    let mut db = Tsdb::new();
    let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
    for s in 0..300u64 {
        db.insert(id, SimTime::from_secs(s), s as f64);
    }
    let mut sink = MemorySink::new();
    let mut exporter = Exporter::new().with_batch_records(64);
    exporter.drain(&db, &mut sink).unwrap();
    (sink.batches, exporter.totals())
}

/// The latest value of `__self/<name>` in the scraper's private store.
fn reading(scraper: &SelfScraper, name: &str) -> Option<f64> {
    let db = scraper.db();
    db.lookup(&format!("__self/{name}"))
        .and_then(|id| db.latest_value(id))
}

/// Every `__self/` name a `SelfScraper` wrote in the first two ticks of
/// [`two_ticks`] while it still mirrored the fleet's counts into
/// registry counters, with the kind it was written as, and the ledger's
/// readings since.
const NAMES: [(&str, MetricKind); 32] = [
    ("wal.appends", MetricKind::Counter),
    ("wal.bytes", MetricKind::Counter),
    ("wal.fsync_ns", MetricKind::Gauge),
    ("snapshot.write_ns", MetricKind::Gauge),
    ("snapshot.cut_ns", MetricKind::Gauge),
    ("fleet.ingest.batches", MetricKind::Counter),
    ("fleet.ingest.duplicate_batches", MetricKind::Counter),
    ("fleet.ingest.records", MetricKind::Counter),
    ("fleet.ingest.samples", MetricKind::Counter),
    ("fleet.ingest.rejected_samples", MetricKind::Counter),
    ("fleet.ingest.sessions", MetricKind::Counter),
    ("fleet.ingest.unknown_records", MetricKind::Counter),
    ("fleet.ingest_ns", MetricKind::Gauge),
    ("export.drain_ns", MetricKind::Gauge),
    ("export.batches", MetricKind::Counter),
    ("export.records", MetricKind::Counter),
    ("export.samples", MetricKind::Counter),
    ("export.chunks", MetricKind::Counter),
    ("export.buckets", MetricKind::Counter),
    ("export.sketch_entries", MetricKind::Counter),
    ("export.metas", MetricKind::Counter),
    ("export.missed_samples", MetricKind::Counter),
    ("export.missed_buckets", MetricKind::Counter),
    ("export.lock_held_ns", MetricKind::Counter),
    ("export.send_retries", MetricKind::Counter),
    ("export.max_lock_held_ns", MetricKind::Gauge),
    ("ledger.batches.imbalance", MetricKind::Gauge),
    ("ledger.records.imbalance", MetricKind::Gauge),
    ("ledger.samples.imbalance", MetricKind::Gauge),
    ("ledger.chunks.imbalance", MetricKind::Gauge),
    ("ledger.buckets.imbalance", MetricKind::Gauge),
    ("ledger.sketch_entries.imbalance", MetricKind::Gauge),
];

/// The `fleet.ingest.*`, `export.*` and `ledger.*` values that scraper
/// wrote at the first and the second tick of [`two_ticks`] (`None`: not
/// written at that tick). The two `export.*lock_held_ns` readings are
/// wall time and are left out. No node reports a drain there, so no
/// node owes anything; the second tick's counts take in the six ledger
/// readings the first one shipped.
const VALUES: [(&str, Option<f64>, f64); 23] = [
    ("fleet.ingest.batches", Some(5.0), 7.0),
    ("fleet.ingest.duplicate_batches", Some(1.0), 1.0),
    ("fleet.ingest.records", Some(301.0), 352.0),
    ("fleet.ingest.samples", Some(300.0), 330.0),
    ("fleet.ingest.rejected_samples", Some(0.0), 1.0),
    ("fleet.ingest.sessions", Some(2.0), 2.0),
    ("fleet.ingest.unknown_records", Some(0.0), 0.0),
    ("export.batches", None, 1.0),
    ("export.records", None, 49.0),
    ("export.samples", None, 29.0),
    ("export.chunks", None, 0.0),
    ("export.buckets", None, 0.0),
    ("export.sketch_entries", None, 0.0),
    ("export.metas", None, 20.0),
    ("export.missed_samples", None, 0.0),
    ("export.missed_buckets", None, 0.0),
    ("export.send_retries", None, 0.0),
    ("ledger.batches.imbalance", Some(0.0), 0.0),
    ("ledger.records.imbalance", Some(0.0), 0.0),
    ("ledger.samples.imbalance", Some(0.0), 0.0),
    ("ledger.chunks.imbalance", Some(0.0), 0.0),
    ("ledger.buckets.imbalance", Some(0.0), 0.0),
    ("ledger.sketch_entries.imbalance", Some(0.0), 0.0),
];

/// A fresh fleet, self-telemetry attached before any node: one node's
/// stream plus a re-delivered batch, a tick at 10 s, a batch with one
/// late and one new sample, a tick at 20 s. Hands back the scraper's
/// value of every [`VALUES`] name after each tick.
fn two_ticks(dir: &std::path::Path, obs: &Obs) -> (SelfScraper, [Vec<Option<f64>>; 2]) {
    let mut fleet = DurableFleet::open(dir, DurabilityConfig::default()).unwrap();
    let mut scraper = SelfScraper::attach(&mut fleet, obs.clone()).unwrap();
    let node = fleet.add_node("node00").unwrap();
    let (stream, _) = node_stream();
    for batch in &stream {
        fleet.ingest(node, batch).unwrap();
    }
    assert!(!fleet.ingest(node, &stream[0]).unwrap().applied);
    let values = |scraper: &SelfScraper| {
        VALUES
            .iter()
            .map(|(name, _, _)| reading(scraper, name))
            .collect::<Vec<_>>()
    };
    scraper.tick(&mut fleet, SimTime::from_secs(10)).unwrap();
    let first = values(&scraper);
    let late = ExportBatch {
        seq: stream.len() as u64,
        records: [5, 400]
            .map(|s| ExportRecord::Sample {
                id: MetricId(0),
                t: SimTime::from_secs(s),
                value: s as f64,
            })
            .to_vec(),
    };
    fleet.ingest(node, &late).unwrap();
    scraper.tick(&mut fleet, SimTime::from_secs(20)).unwrap();
    let second = values(&scraper);
    (scraper, [first, second])
}

#[test]
fn no_self_name_disappears_and_no_count_has_two_homes() {
    let dir = work_dir("names");
    let _ = std::fs::remove_dir_all(&dir);
    let obs = Obs::enabled();
    let (scraper, [first, second]) = two_ticks(&dir, &obs);

    let db = scraper.db();
    for (name, kind) in NAMES {
        let id = db
            .lookup(&format!("__self/{name}"))
            .unwrap_or_else(|| panic!("{name} is no longer written"));
        assert_eq!(db.meta(id).kind, kind, "{name}");
    }
    for (i, (name, at_first, at_second)) in VALUES.iter().enumerate() {
        assert_eq!(first[i], *at_first, "{name} at the first tick");
        assert_eq!(second[i], Some(*at_second), "{name} at the second tick");
    }
    let held = reading(&scraper, "export.lock_held_ns").unwrap();
    let max_held = reading(&scraper, "export.max_lock_held_ns").unwrap();
    assert!(0.0 < max_held && max_held <= held, "{max_held} {held}");

    // A count read where it lives is not also a registry instrument:
    // the registry's own scrape writes none of those names.
    let mut registry = Tsdb::new();
    obs.scrape_into(&mut registry, SimTime::from_secs(30));
    let readings: Vec<&str> = NAMES
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| {
            ["fleet.ingest.", "export.", "ledger."]
                .iter()
                .any(|home| name.starts_with(home))
        })
        .filter(|name| *name != "export.drain_ns")
        .collect();
    assert_eq!(readings.len(), 25);
    for name in readings {
        assert_eq!(registry.lookup(&format!("__self/{name}")), None, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch lost between a node's exporter and the fleet is owed in the
/// ledger once the node reports its totals — from the `Health` wire and
/// as the scraped `ledger.*` readings — while a node that took its
/// whole stream, and the service session that never reports, owe
/// nothing.
#[test]
fn a_batch_lost_on_the_way_is_owed_in_the_ledger() {
    let dir = work_dir("ledger");
    let _ = std::fs::remove_dir_all(&dir);
    let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
    let mut scraper = SelfScraper::attach(&mut fleet, Obs::enabled()).unwrap();
    let (stream, totals) = node_stream();
    let lost = &stream[2];
    let whole = fleet.add_node("whole").unwrap();
    let lossy = fleet.add_node("lossy").unwrap();
    for batch in &stream {
        fleet.ingest(whole, batch).unwrap();
        if batch.seq != lost.seq {
            fleet.ingest(lossy, batch).unwrap();
        }
    }
    for node in [whole, lossy] {
        fleet.report_drain(node, &totals).unwrap();
    }
    let now = SimTime::from_secs(300);
    scraper.tick(&mut fleet, now).unwrap();
    let listener = FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), TOKEN).unwrap();
    let mut client = FleetClient::connect(&listener.local_addr().to_string(), TOKEN).unwrap();
    let health = client.health(now, SimDuration::from_secs(60)).unwrap();
    assert_eq!(health.nodes[whole.index()].ledger(), Ledger::default());
    let owed = health.nodes[lossy.index()].ledger();
    let samples = lost.records.len() as i64;
    assert!(
        lost.records
            .iter()
            .all(|r| matches!(r, ExportRecord::Sample { .. })),
        "the lost batch carries samples only"
    );
    assert_eq!(
        owed,
        Ledger {
            batches: 1,
            records: samples,
            samples,
            ..Ledger::default()
        }
    );
    for (name, v) in [
        ("ledger.batches.imbalance", 1.0),
        ("ledger.records.imbalance", samples as f64),
        ("ledger.samples.imbalance", samples as f64),
        ("ledger.chunks.imbalance", 0.0),
        ("ledger.buckets.imbalance", 0.0),
        ("ledger.sketch_entries.imbalance", 0.0),
    ] {
        assert_eq!(reading(&scraper, name), Some(v), "{name}");
    }
    drop(client);
    drop(listener.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_readings_carry_on_across_a_recovery() {
    let dir = work_dir("recovered");
    let _ = std::fs::remove_dir_all(&dir);
    {
        // A small cadence: the recovery below is a snapshot load plus a
        // log-tail replay.
        let cfg = DurabilityConfig {
            snapshot_every_batches: 2,
        };
        let mut fleet = DurableFleet::open(&dir, cfg).unwrap();
        let node = fleet.add_node("node00").unwrap();
        let (stream, _) = node_stream();
        for batch in &stream {
            fleet.ingest(node, batch).unwrap();
        }
        fleet.ingest(node, &stream[1]).unwrap();
    }
    let mut fleet = DurableFleet::recover(&dir).unwrap();
    assert!(fleet.recovery().epoch > 0);
    let mut scraper = SelfScraper::attach(&mut fleet, Obs::enabled()).unwrap();
    let listener = FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), TOKEN).unwrap();
    let mut client = FleetClient::connect(&listener.local_addr().to_string(), TOKEN).unwrap();
    let now = SimTime::from_secs(300);
    let health = client.health(now, SimDuration::from_secs(60)).unwrap();
    scraper
        .tick(&mut listener.fleet().lock().unwrap(), now)
        .unwrap();

    // Every reading is the sum of what the health wire reports.
    let sum = |count: fn(&NodeCounters) -> u64| {
        health.nodes.iter().map(|n| count(&n.counters)).sum::<u64>() as f64
    };
    for (name, want) in [
        ("fleet.ingest.batches", sum(|c| c.batches)),
        (
            "fleet.ingest.duplicate_batches",
            sum(|c| c.duplicate_batches),
        ),
        ("fleet.ingest.records", sum(|c| c.records)),
        ("fleet.ingest.samples", sum(|c| c.samples)),
        ("fleet.ingest.rejected_samples", sum(|c| c.rejected_samples)),
        ("fleet.ingest.sessions", health.nodes.len() as f64),
        ("fleet.ingest.unknown_records", 0.0),
    ] {
        assert_eq!(reading(&scraper, name), Some(want), "{name}");
    }
    // The node and the service session; counts from before the restart.
    assert_eq!(health.nodes.len(), 2);
    assert_eq!(sum(|c| c.samples), 300.0);
    assert_eq!(sum(|c| c.duplicate_batches), 1.0);

    drop(client);
    drop(listener.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- selfstat over the wire

#[test]
fn selfstat_is_empty_on_an_uninstrumented_fleet() {
    let dir = work_dir("plain");
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
    let listener = FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), TOKEN).unwrap();
    let addr = listener.local_addr().to_string();
    let mut client = FleetClient::connect(&addr, TOKEN).unwrap();
    let answer = client.selfstat(16, false).unwrap();
    assert!(answer.ops.is_empty(), "no obs attached, no spans");
    drop(client);
    let _ = listener.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn selfstat_drains_the_slow_op_log_over_the_wire() {
    let dir = work_dir("spans");
    let _ = std::fs::remove_dir_all(&dir);
    let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
    let obs = Obs::enabled();
    let mut scraper = SelfScraper::attach(&mut fleet, obs.clone()).unwrap();
    // A recognizable span, long enough to stay near the top of the log.
    {
        let _span = obs.latency("test.slow_ns").start();
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    scraper.tick(&mut fleet, SimTime::from_secs(1)).unwrap();

    let listener = FleetListener::bind("127.0.0.1:0", Arc::new(Mutex::new(fleet)), TOKEN).unwrap();
    let addr = listener.local_addr().to_string();
    let mut client = FleetClient::connect(&addr, TOKEN).unwrap();

    let peek = client.selfstat(64, false).unwrap();
    assert!(
        peek.ops.iter().any(|op| op.name == "test.slow_ns"),
        "the slow span is listed: {:?}",
        peek.ops
    );
    // Slowest first.
    for pair in peek.ops.windows(2) {
        assert!(pair[0].duration_ns >= pair[1].duration_ns);
    }

    let drained = client.selfstat(64, true).unwrap();
    assert!(drained.ops.iter().any(|op| op.name == "test.slow_ns"));
    // The drain cleared the log; only spans recorded *after* it (the
    // serves of the drain + this request) can appear now.
    let after = client.selfstat(64, false).unwrap();
    assert!(
        after.ops.iter().all(|op| op.name != "test.slow_ns"),
        "drained spans do not reappear: {:?}",
        after.ops
    );

    drop(client);
    let _ = listener.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- namespace end to end

#[test]
fn user_writes_into_the_reserved_namespace_bounce_everywhere() {
    // The typed-error registration paths are unit-tested in
    // moda-telemetry; this pins the end-to-end shape: nothing a user
    // inserts can masquerade as self-telemetry in the fleet.
    let mut db = Tsdb::new();
    assert!(db
        .try_register(moda_telemetry::MetricMeta::gauge(
            "__self/forged",
            "ns",
            moda_telemetry::SourceDomain::Software,
        ))
        .is_err());
    let obs = Obs::enabled();
    obs.counter("real").add(1);
    assert_eq!(obs.scrape_into(&mut db, SimTime::from_secs(1)), 1);
    let id = db.lookup("__self/real").unwrap();
    // Even with the id in hand, the user insert path refuses.
    assert!(!db.insert(id, SimTime::from_secs(2), 999.0));
    assert!(db.try_insert(id, SimTime::from_secs(2), 999.0).is_err());
    assert_eq!(db.latest_value(id), Some(1.0), "scrape value undisturbed");
}
