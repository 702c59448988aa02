//! Fig. 1 in miniature: holistic monitoring + the three ODA verbs.
//!
//! The paper's vision figure shows sensors across building
//! infrastructure, system hardware, system software, and applications
//! feeding an analytics layer that *visualizes*, *diagnoses*, and
//! *forecasts*. This example runs a campaign, then plays the ODA layer:
//!
//! * **visualize** — an ASCII sparkline per telemetry domain,
//! * **diagnose** — robust anomaly scan over node power draws,
//! * **forecast** — ETA for every job still running at the snapshot.
//!
//! Run with: `cargo run --release --example holistic_dashboard`

use moda::analytics::forecast::{Estimator, ProgressForecaster};
use moda::analytics::MadDetector;
use moda::hpc::{workload, World, WorldConfig};
use moda::sim::{RngStreams, SimDuration, SimTime};
use moda::telemetry::{SourceDomain, Tsdb, WindowAgg};
use moda::usecases::harness::{drive, shared};

fn sparkline(values: &[Option<f64>]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let present: Vec<f64> = values.iter().flatten().copied().collect();
    if present.is_empty() {
        return "(no data)".into();
    }
    let (lo, hi) = present
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
    values
        .iter()
        .map(|v| match v {
            None => ' ',
            Some(v) => {
                let norm = if hi > lo { (v - lo) / (hi - lo) } else { 0.5 };
                BARS[((norm * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

fn domain_sparkline(db: &Tsdb, domain: SourceDomain, now: SimTime) -> Option<(String, String)> {
    // One representative series per domain: the first registered.
    let id = db.names().find(|(_, id)| db.meta(*id).domain == domain)?.1;
    let meta = db.meta(id).clone();
    let mut buckets = Vec::new();
    db.resample_into(
        id,
        SimTime::ZERO,
        now,
        SimDuration::from_secs((now.as_secs_f64() / 60.0).max(1.0) as u64),
        WindowAgg::Mean,
        &mut buckets,
    );
    Some((
        format!("{} [{}]", meta.name, meta.unit),
        sparkline(&buckets),
    ))
}

fn main() {
    // A campaign with I/O and power telemetry on (1-minute sensors).
    let world = shared({
        let mut w = World::new(WorldConfig {
            nodes: 12,
            seed: 77,
            ..WorldConfig::default()
        });
        w.submit_campaign(workload::generate(
            &workload::WorkloadConfig {
                n_jobs: 24,
                mean_interarrival_s: 180.0,
                ..workload::WorkloadConfig::default()
            },
            &RngStreams::new(77),
            0,
        ));
        w
    });
    // Freeze mid-campaign so jobs are still in flight at the snapshot.
    let snapshot_at = SimTime::from_hours(2);
    drive(&world, SimDuration::from_secs(30), snapshot_at, |_| {});
    let w = world.borrow();
    let now = w.now();

    println!(
        "=== Holistic MODA dashboard (Fig. 1) — t = {:.1} h ===",
        now.as_secs_f64() / 3600.0
    );
    println!(
        "telemetry: {} metrics, {} samples ingested\n",
        w.tsdb.cardinality(),
        w.tsdb.total_inserts()
    );

    // --- visualize -------------------------------------------------------
    println!("VISUALIZE — one series per sensor domain:");
    for domain in [
        SourceDomain::Facility,
        SourceDomain::Hardware,
        SourceDomain::Software,
        SourceDomain::Application,
    ] {
        match domain_sparkline(&w.tsdb, domain, now) {
            Some((label, line)) => println!("  {domain:<12} {label:<28} {line}"),
            None => println!("  {domain:<12} (no sensors registered)"),
        }
    }

    // --- diagnose --------------------------------------------------------
    // Robust outlier scan over the latest node power draws: a node far
    // from the fleet median while "busy" suggests a stuck or thrashing
    // job (the misconfiguration case's symptom).
    println!("\nDIAGNOSE — node-power outlier scan (MAD, threshold 3.5):");
    let mut det = MadDetector::new(64, 3.5);
    let mut draws: Vec<(String, f64)> = Vec::new();
    for (name, id) in w.tsdb.names() {
        if name.starts_with("node.") && name.ends_with(".power_w") {
            if let Some(v) = w.tsdb.latest_value(id) {
                draws.push((name.to_string(), v));
                det.score_and_push(v);
            }
        }
    }
    let mut flagged = 0;
    for (name, v) in &draws {
        if det.is_anomalous(*v) {
            println!("  ⚠ {name}: {v:.0} W deviates from the fleet");
            flagged += 1;
        }
    }
    if flagged == 0 {
        println!(
            "  all {} node power draws within robust bounds",
            draws.len()
        );
    }

    // --- forecast --------------------------------------------------------
    println!("\nFORECAST — ETA per running job (Theil–Sen over progress markers):");
    let forecaster = ProgressForecaster::new(Estimator::TheilSen);
    for id in w.running_jobs() {
        let markers = w.progress_markers(id, 30);
        let total = w.total_steps(id).unwrap_or(0) as f64;
        let remaining = w
            .remaining_alloc(id)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        match forecaster.forecast(&markers, total, now.as_secs_f64()) {
            Some(fc) => {
                let verdict = if fc.eta_s > remaining {
                    "AT RISK"
                } else {
                    "ok"
                };
                println!(
                    "  {id}: {:>5.0}/{:>5.0} steps, ETA {:>6.0}s ± {:>5.0}s vs {:>6.0}s left → {}",
                    markers.last().map(|m| m.1).unwrap_or(0.0),
                    total,
                    fc.eta_s,
                    fc.half_width_s,
                    remaining,
                    verdict
                );
            }
            None => println!("  {id}: too few markers for a forecast"),
        }
    }
    println!(
        "\n(the Scheduler loop of examples/quickstart.rs acts on exactly the\n\
         AT-RISK verdicts above; this dashboard is its read-only sibling)"
    );
}
