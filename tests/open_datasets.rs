//! §III.iii open datasets: exportability of everything a site would
//! release — telemetry series and the Knowledge base — and lossless
//! round-trips for the structured forms.

use moda::core::knowledge::{Knowledge, OutcomeRecord, RunRecord};
use moda::core::Confidence;
use moda::hpc::{workload, World, WorldConfig};
use moda::sim::{RngStreams, SimDuration, SimTime};
use moda::telemetry::export;
use moda::usecases::harness::{drive, shared};
use moda::usecases::scheduler_case::{build_loop, SchedulerLoopConfig};
use std::collections::BTreeMap;

fn run_small_campaign(seed: u64) -> (moda::usecases::harness::SharedWorld, Knowledge) {
    let w = shared({
        let mut w = World::new(WorldConfig {
            nodes: 8,
            seed,
            ..WorldConfig::default()
        });
        w.submit_campaign(workload::generate(
            &workload::WorkloadConfig {
                n_jobs: 20,
                mean_interarrival_s: 60.0,
                ..workload::WorkloadConfig::default()
            },
            &RngStreams::new(seed),
            0,
        ));
        w
    });
    let mut l = build_loop(w.clone(), SchedulerLoopConfig::default());
    drive(
        &w,
        SimDuration::from_secs(30),
        SimTime::from_hours(24 * 3),
        |t| {
            l.tick(t);
        },
    );
    let k = l.knowledge().clone();
    (w, k)
}

#[test]
fn campaign_telemetry_exports_as_csv() {
    let (w, _) = run_small_campaign(1);
    let wb = w.borrow();

    let csv = export::snapshot_csv(&wb.tsdb);
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("format,moda-export,1"),
        "wire-format preamble"
    );
    let body: Vec<&str> = lines.collect();
    let samples: Vec<&&str> = body.iter().filter(|l| l.starts_with("sample,")).collect();
    assert!(
        samples.len() > 100,
        "a campaign should export substantial telemetry ({} sample rows)",
        samples.len()
    );
    // Every sample row is `sample,<id>,<t_ms>,<value>` with numerics.
    for row in &samples {
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols.len(), 4, "malformed sample row: {row}");
        cols[1].parse::<u32>().expect("metric id numeric");
        cols[2].parse::<u64>().expect("t_ms numeric");
        cols[3].parse::<f64>().expect("value numeric");
    }
    // One meta row per registered metric, before any of its data.
    let meta_rows = body.iter().filter(|l| l.starts_with("meta,")).count();
    assert_eq!(meta_rows, wb.tsdb.cardinality());
    // Progress markers (the §III.iii "variation of progress markers"
    // dataset) are present, and their compact pyramids ship as sealed
    // buckets with sketch columns.
    assert!(csv.contains(".steps"));
    assert!(csv.lines().any(|l| l.starts_with("bucket,")));
    assert!(csv.lines().any(|l| l.starts_with("sketch,")));
}

#[test]
fn campaign_export_replays_into_a_downstream_store() {
    let (w, _) = run_small_campaign(1);
    let mut wb = w.borrow_mut();

    // Drain the per-job progress pyramids through the world's own
    // incremental snapshot hook and replay them downstream.
    let mut sink = export::MemorySink::new();
    let stats = wb.export_progress(&mut sink).unwrap();
    assert!(stats.samples > 0 && stats.buckets > 0);
    let mut replay = moda::telemetry::ReplayStore::new();
    for b in &sink.batches {
        replay.apply(b);
    }
    assert!(replay.cardinality() > 0);
    // Every replayed marker series is time-ordered and monotone (step
    // counters), i.e. the dataset is analysis-ready without the node.
    let mut checked = 0;
    for (name, id) in wb.tsdb.names() {
        if !name.ends_with(".steps") {
            continue;
        }
        let Some(rid) = replay.lookup(name) else {
            continue;
        };
        assert_eq!(rid, id, "wire ids are the registry ids");
        let samples = replay.samples(rid);
        assert!(samples.windows(2).all(|p| p[0].0 <= p[1].0));
        checked += 1;
    }
    assert!(checked > 0, "at least one marker series replayed");
}

#[test]
fn knowledge_round_trips_through_json() {
    let (_, k) = run_small_campaign(2);
    assert!(k.run_count() > 0, "campaign must have recorded run history");
    let json = serde_json::to_string_pretty(&k).expect("knowledge serializes");
    let back: Knowledge = serde_json::from_str(&json).expect("knowledge deserializes");
    assert_eq!(back.run_count(), k.run_count());
    assert_eq!(back.outcomes().len(), k.outcomes().len());
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        serde_json::to_string(&k).unwrap(),
        "round-trip must be lossless"
    );
}

#[test]
fn hand_built_knowledge_round_trips() {
    let mut k = Knowledge::new();
    k.record_run(RunRecord {
        app_class: "cfd".into(),
        signature: vec![1.0, 0.2, 0.1, 8.0, 640.0],
        runtime_s: 1234.5,
        total_steps: 640,
        metadata: BTreeMap::from([("deck".to_string(), "re3500".to_string())]),
    });
    k.record_outcome(OutcomeRecord {
        loop_name: "scheduler-loop".into(),
        t: SimTime::from_secs(300),
        kind: "extension".into(),
        confidence: Confidence::new(0.8).value(),
        success: Some(true),
        error: 42.0,
    });
    k.set_fact("job.0.ext_count", 1.0);
    k.set_model("progress-rate", vec![0.5, 1.5]);

    let json = serde_json::to_string(&k).unwrap();
    let back: Knowledge = serde_json::from_str(&json).unwrap();
    assert_eq!(back.fact("job.0.ext_count"), Some(1.0));
    assert_eq!(back.model("progress-rate"), Some(&[0.5, 1.5][..]));
    assert_eq!(back.runs()[0].metadata["deck"], "re3500");
    assert_eq!(back.outcomes()[0].success, Some(true));
}

#[test]
fn exported_series_are_ordered_and_complete() {
    let (w, _) = run_small_campaign(3);
    let wb = w.borrow();
    // Find a progress-marker series.
    let id = wb
        .tsdb
        .names()
        .find(|(name, _)| name.ends_with(".steps"))
        .map(|(_, id)| id)
        .expect("at least one job emitted markers");
    // A single-metric drain (the per-series dataset shape).
    let mut sink = export::MemorySink::new();
    let stats = export::Exporter::new()
        .drain_metrics(&wb.tsdb, &[id], &mut sink)
        .unwrap();
    // Sealed regions ship as compressed chunk records (wire spec
    // revision 1.1); expand them so the check covers the decoded
    // stream the dataset consumer sees.
    let mut times: Vec<u64> = Vec::new();
    for r in sink.records() {
        match r {
            export::ExportRecord::Sample { t, .. } => times.push(t.0),
            export::ExportRecord::Chunk {
                count,
                first_t,
                bytes,
                ..
            } => {
                let mut vals = Vec::new();
                moda::telemetry::chunk::decode_exact(
                    first_t.0, *count, bytes, &mut times, &mut vals,
                )
                .expect("exported chunk payloads decode");
            }
            _ => {}
        }
    }
    assert!(!times.is_empty());
    assert_eq!(times.len() as u64, stats.samples);
    assert_eq!(times.len(), wb.tsdb.series(id).len(), "complete series");
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "exported series must be time-ordered"
    );
}
