//! CI bench-regression gate over the TSDB micro-benchmarks.
//!
//! Runs the `tsdb` criterion bench with short windows (or takes a
//! pre-recorded `CRITERION_JSON` file via `--measured`), compares each
//! benchmark's mean against the committed baseline `BENCH_tsdb.json`,
//! and exits non-zero when anything regressed — so a PR that quietly
//! slows the monitoring hot path fails CI instead of passing a
//! pass/fail-blind smoke run.
//!
//! Four kinds of checks:
//!
//! * **Absolute per-bench**: `measured > baseline × threshold` fails.
//!   The threshold is deliberately generous (default 3×, override with
//!   `BENCH_GATE_THRESHOLD`) because CI machines differ from the machine
//!   that recorded the baseline; it catches order-of-magnitude
//!   regressions (an accidental O(n) scan on a planned path), not
//!   percent-level noise.
//! * **Machine-independent ratio**: the wide-window rollup path must
//!   stay at least 10× (`RATIO_CHECKS`) faster than the raw fold
//!   *within the same run* — the rollup tier's reason to exist, immune
//!   to absolute machine speed.
//! * **Compression floor**: a day of smooth 1 Hz power-style telemetry,
//!   fed in-process, must seal into Gorilla chunks at no more than
//!   `MAX_CHUNK_BYTES_PER_SAMPLE` bytes per compressed sample — the
//!   storage win the chunk tier exists for, measured on a deterministic
//!   workload so it is machine-independent.
//! * **Snapshot ceiling**: the fleet brought to the snapshot plateau
//!   (`moda_bench::plateau`) must snapshot into at most
//!   `MAX_IMAGE_BYTES_PER_RETAINED_SAMPLE` bytes per raw sample its
//!   rings retain — the bytes a restart reads, again a byte count on a
//!   deterministic state.
//!
//! The full comparison table is written to `bench_gate_report.txt`
//! (uploaded as a CI artifact) and echoed to stdout.
//!
//! Usage:
//! ```text
//! bench_gate [--baseline BENCH_tsdb.json] [--measured out.json]
//!            [--report bench_gate_report.txt] [--update-baseline]
//! ```
//! `--update-baseline` rewrites the baseline from the measured run
//! (after an intentional perf change; commit the diff).

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

/// Benchmark groups excluded from the absolute comparison: the
/// durable-tier benches are disk/loopback bound (their
/// machine-independent guarantee is the recovery ratio check below).
const SKIP_PREFIXES: &[&str] = &[
    "tsdb_fleet/recover_from_snapshot",
    "tsdb_fleet/replay_from_seq0",
    "tsdb_fleet/socket_ingest_1day",
    "tsdb_fleet/remote_query_p99",
    // Recorded so the stall a snapshot still causes is on file; the
    // sync row is an fsync and a rename, and neither is gated yet.
    "tsdb_fleet/snapshot_",
    // Recorded so the decode cost of the image's coding is on file; its
    // bytes are held by the snapshot ceiling below.
    "tsdb_fleet/restore_",
];

/// The machine-independent ratio checks: (numerator, denominator,
/// minimum speedup). Both compare two paths *within the same run*, so
/// they hold regardless of absolute machine speed: the wide-window
/// rollup planner vs the raw fold, and the sketch-served day-wide p99 vs
/// the raw selection path.
const RATIO_CHECKS: &[(&str, &str, f64)] = &[
    (
        "tsdb_window_wide/raw/86400",
        "tsdb_window_wide/rollup/86400",
        10.0,
    ),
    (
        "tsdb_percentile_wide/raw",
        "tsdb_percentile_wide/sketch",
        10.0,
    ),
    // The fleet tier's reason to exist: a 16-node day-wide p99 merged
    // from sealed-bucket sketches vs fanning out to every node's raw
    // day and selecting over the pool.
    ("tsdb_fleet/fanout_p99_16", "tsdb_fleet/merged_p99_16", 10.0),
    // The snapshot's reason to exist: restarting the durable fleet
    // tier from a snapshot (bounded by retained state) must beat
    // replaying the whole append-log history from seq 0.
    (
        "tsdb_fleet/replay_from_seq0",
        "tsdb_fleet/recover_from_snapshot",
        10.0,
    ),
    // The serving tier's reason to exist: the full remote round-trip
    // for the merged fleet p99 (framed request/response over loopback
    // through `FleetClient`) must still beat fanning out to every
    // node's raw day in-process — the sketch merge buys enough that
    // even a socket hop wins.
    (
        "tsdb_fleet/fanout_p99_16",
        "tsdb_fleet/remote_query_p99",
        2.0,
    ),
    // Linking a shipped chunk rests on checking it being no dearer than
    // decoding it: `validate` walks the same bits as `decode_exact` and
    // stores nothing, so it must never cost materially more.
    ("chunk_codec/decode/512", "chunk_codec/validate/512", 0.75),
    // A loop's trailing window reaching back across the newest seal
    // resumes from a restart point: the whole read — seek, partial
    // decode, tail fold — must cost at most half of decoding the chunk
    // it touches.
    ("chunk_codec/decode/512", "tsdb_window/agg/60", 2.0),
    // A snapshot writes a half-evicted front chunk by re-coding only
    // until the stored stream resyncs and copying the rest: that must
    // cost at most half of the plain way to the same bytes, decoding
    // the retained half and compressing it again.
    (
        "chunk_codec/recompress_skip256/512",
        "chunk_codec/retained_skip256/512",
        2.0,
    ),
];

/// The self-telemetry overhead ceiling: the collector's batch-insert
/// hot path with a span + counter per batch must stay within 10 % of
/// the bare path — instrumentation that costs more than that fails CI.
const MAX_SELFOBS_OVERHEAD: f64 = 1.10;

/// Machine-independent *ceiling* checks: (numerator, denominator,
/// maximum ratio). Both sides run in the same process, so the ratio
/// holds regardless of absolute machine speed.
const MAX_RATIO_CHECKS: &[(&str, &str, f64)] = &[(
    "tsdb_selfobs/insert_instrumented/4096",
    "tsdb_selfobs/insert_uninstrumented/4096",
    MAX_SELFOBS_OVERHEAD,
)];

/// Most bytes per compressed sample a 1 Hz power day may seal into.
const MAX_CHUNK_BYTES_PER_SAMPLE: f64 = 3.0;

/// Most snapshot bytes per retained raw sample at the snapshot plateau
/// (`moda_bench::plateau`). The `MODAFS05` image measures 1.017 there
/// (`04`, without the sessions' value states, 1.015), the `03` one —
/// tails as packed `samples` runs, tier scalars as raw `f64`s — 1.391.
const MAX_IMAGE_BYTES_PER_RETAINED_SAMPLE: f64 = 1.20;

/// Sub-microsecond benches jitter hardest across runner generations:
/// an absolute regression must also exceed this many nanoseconds, so a
/// 78 ns bench drifting to 250 ns on a slow runner is noise, while a
/// real O(n)-regression (µs-scale) still fails.
const MIN_DELTA_NS: f64 = 500.0;

#[derive(Debug, Clone)]
struct BenchRec {
    name: String,
    mean_ns: f64,
}

fn parse_records(text: &str, origin: &str) -> Result<Vec<BenchRec>, String> {
    let v: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("{origin}: bad JSON: {e}"))?;
    let arr = v
        .as_array()
        .ok_or_else(|| format!("{origin}: expected a JSON array"))?;
    let mut out = Vec::with_capacity(arr.len());
    for item in arr {
        let name = item
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| format!("{origin}: record without string `name`"))?;
        let mean_ns = item
            .get("mean_ns")
            .and_then(|n| n.as_f64())
            .ok_or_else(|| format!("{origin}: `{name}` without numeric `mean_ns`"))?;
        out.push(BenchRec {
            name: name.to_string(),
            mean_ns,
        });
    }
    Ok(out)
}

fn find(recs: &[BenchRec], name: &str) -> Option<f64> {
    recs.iter().find(|r| r.name == name).map(|r| r.mean_ns)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The in-process compression floor: feed one simulated day of smooth
/// 1 Hz power telemetry (slow diurnal ramp plus ±2 W jitter) and check
/// the sealed-chunk storage cost in bytes per compressed sample. Runs
/// on a deterministic workload in this process, so the result does not
/// depend on the runner.
fn compression_check(report: &mut String, failures: &mut usize) {
    use moda_sim::SimTime;
    use moda_telemetry::{MetricMeta, SourceDomain, Tsdb};
    const DAY_S: u64 = 86_400;
    let mut db = Tsdb::with_retention(90_000);
    let id = db.register(MetricMeta::gauge("node.power", "W", SourceDomain::Hardware));
    for sec in 0..DAY_S {
        let v = (200 + (sec % DAY_S) * 150 / DAY_S + (sec.wrapping_mul(2_654_435_761)) % 4) as f64;
        db.insert(id, SimTime::from_secs(sec), v);
    }
    let mem = db.memory_stats();
    match mem.compressed_bytes_per_sample() {
        Some(bps) => {
            let verdict = if bps > MAX_CHUNK_BYTES_PER_SAMPLE {
                *failures += 1;
                "FAIL (compression regressed)"
            } else {
                "ok"
            };
            let _ = writeln!(
                report,
                "chunk compression: {bps:.2} bytes/sample over a 1 Hz power day \
                 ({} samples sealed, max {MAX_CHUNK_BYTES_PER_SAMPLE:.1})  {verdict}",
                mem.compressed_samples
            );
        }
        None => {
            *failures += 1;
            let _ = writeln!(
                report,
                "chunk compression: FAIL (no sealed chunks after a 1 Hz day)"
            );
        }
    }
}

/// The in-process snapshot ceiling: bring a durable fleet to the
/// snapshot plateau, snapshot it, and check `snapshot.bin`'s size per
/// raw sample the fleet retains. A deterministic state and a byte
/// count, so the result does not depend on the runner.
fn image_check(report: &mut String, failures: &mut usize) {
    use moda_bench::plateau::PlateauNode;
    use moda_fleet::{DurabilityConfig, DurableFleet};
    use moda_telemetry::MetricId;
    let dir = std::env::temp_dir().join(format!("moda_bench_gate_image_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let measured = (|| -> std::io::Result<(u64, usize)> {
        let no_cadence = DurabilityConfig {
            snapshot_every_batches: u64::MAX,
        };
        let mut fleet = DurableFleet::open(&dir, no_cadence)?;
        let node = fleet.add_node("node00")?;
        PlateauNode::new().fill(&mut [&mut fleet], node);
        fleet.snapshot()?;
        let store = fleet.store();
        let retained = (0..store.cardinality())
            .map(|m| store.raw(MetricId(m as u32)).len())
            .sum();
        Ok((std::fs::metadata(dir.join("snapshot.bin"))?.len(), retained))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let line = match measured {
        Ok((bytes, retained)) => {
            let bps = bytes as f64 / retained.max(1) as f64;
            let verdict = if bps > MAX_IMAGE_BYTES_PER_RETAINED_SAMPLE {
                *failures += 1;
                "FAIL (snapshot image grew)"
            } else {
                "ok"
            };
            format!(
                "snapshot image: {bps:.3} bytes/retained sample at the plateau \
                 ({bytes} bytes, {retained} samples, max {MAX_IMAGE_BYTES_PER_RETAINED_SAMPLE:.2})  \
                 {verdict}"
            )
        }
        Err(e) => {
            *failures += 1;
            format!("snapshot image: FAIL ({e})")
        }
    };
    let _ = writeln!(report, "{line}");
}

/// Run the tsdb bench with short criterion windows, writing its JSON to
/// `json_path`.
fn run_benches(json_path: &str) -> Result<(), String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let warmup = env_f64("BENCH_GATE_WARMUP_MS", 25.0) as u64;
    let measure = env_f64("BENCH_GATE_MEASURE_MS", 100.0) as u64;
    eprintln!("bench_gate: running `cargo bench -p moda-bench --bench tsdb` ...");
    let status = Command::new(cargo)
        .args(["bench", "-p", "moda-bench", "--bench", "tsdb"])
        .env("CRITERION_JSON", json_path)
        .env("CRITERION_WARMUP_MS", warmup.to_string())
        .env("CRITERION_MEASURE_MS", measure.to_string())
        .status()
        .map_err(|e| format!("failed to spawn cargo bench: {e}"))?;
    if !status.success() {
        return Err(format!("cargo bench failed: {status}"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut baseline_path = "BENCH_tsdb.json".to_string();
    let mut measured_path: Option<String> = None;
    let mut report_path = "bench_gate_report.txt".to_string();
    let mut update_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match a.as_str() {
            "--baseline" => baseline_path = take("--baseline"),
            "--measured" => measured_path = Some(take("--measured")),
            "--report" => report_path = take("--report"),
            "--update-baseline" => update_baseline = true,
            other => {
                eprintln!("bench_gate: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let measured_file = match &measured_path {
        Some(p) => p.clone(),
        None => {
            // Absolute path: `cargo bench` runs the harness with the
            // *package* directory as cwd, not ours.
            let p = std::env::current_dir()
                .expect("cwd")
                .join("target/bench_gate_measured.json")
                .to_string_lossy()
                .into_owned();
            if let Err(e) = run_benches(&p) {
                eprintln!("bench_gate: {e}");
                return ExitCode::FAILURE;
            }
            p
        }
    };

    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let (baseline_text, measured_text) = match (read(&baseline_path), read(&measured_file)) {
        (Ok(b), Ok(m)) => (b, m),
        (b, m) => {
            for err in [b.err(), m.err()].into_iter().flatten() {
                eprintln!("bench_gate: {err}");
            }
            return ExitCode::FAILURE;
        }
    };
    let (baseline, measured) = match (
        parse_records(&baseline_text, &baseline_path),
        parse_records(&measured_text, &measured_file),
    ) {
        (Ok(b), Ok(m)) => (b, m),
        (b, m) => {
            for err in [b.err(), m.err()].into_iter().flatten() {
                eprintln!("bench_gate: {err}");
            }
            return ExitCode::FAILURE;
        }
    };

    let threshold = env_f64("BENCH_GATE_THRESHOLD", 3.0);
    let mut report = String::new();
    let mut failures = 0usize;
    let _ = writeln!(
        report,
        "bench_gate: {} vs baseline {} (threshold {threshold:.1}x)\n",
        measured_file, baseline_path
    );
    let _ = writeln!(
        report,
        "{:<44} {:>12} {:>12} {:>8}  verdict",
        "benchmark", "baseline ns", "measured ns", "ratio"
    );
    for b in &baseline {
        if SKIP_PREFIXES.iter().any(|p| b.name.starts_with(p)) {
            let _ = writeln!(
                report,
                "{:<44} {:>12.1} {:>12} {:>8}  skipped (machine-dependent)",
                b.name, b.mean_ns, "-", "-"
            );
            continue;
        }
        match find(&measured, &b.name) {
            None => {
                failures += 1;
                let _ = writeln!(
                    report,
                    "{:<44} {:>12.1} {:>12} {:>8}  FAIL (missing from run)",
                    b.name, b.mean_ns, "-", "-"
                );
            }
            Some(m) => {
                let ratio = m / b.mean_ns.max(f64::MIN_POSITIVE);
                let verdict = if ratio > threshold && m - b.mean_ns > MIN_DELTA_NS {
                    failures += 1;
                    "FAIL (regression)"
                } else {
                    "ok"
                };
                let _ = writeln!(
                    report,
                    "{:<44} {:>12.1} {:>12.1} {:>7.2}x  {verdict}",
                    b.name, b.mean_ns, m, ratio
                );
            }
        }
    }
    for m in &measured {
        if find(&baseline, &m.name).is_none() {
            let _ = writeln!(
                report,
                "{:<44} {:>12} {:>12.1} {:>8}  new (no baseline)",
                m.name, "-", m.mean_ns, "-"
            );
        }
    }

    let _ = writeln!(report);
    for &(num, den, min_speedup) in RATIO_CHECKS {
        match (find(&measured, num), find(&measured, den)) {
            (Some(raw), Some(planned)) => {
                let speedup = raw / planned.max(f64::MIN_POSITIVE);
                let verdict = if speedup < min_speedup {
                    failures += 1;
                    "FAIL (ratio below its floor)"
                } else {
                    "ok"
                };
                let _ = writeln!(
                    report,
                    "ratio {num} / {den} = {speedup:.1}x (min {min_speedup:.1}x)  {verdict}"
                );
            }
            _ => {
                failures += 1;
                let _ = writeln!(
                    report,
                    "ratio {num} / {den}: FAIL (benchmarks missing from run)"
                );
            }
        }
    }

    for &(num, den, max_ratio) in MAX_RATIO_CHECKS {
        match (find(&measured, num), find(&measured, den)) {
            (Some(instrumented), Some(bare)) => {
                let ratio = instrumented / bare.max(f64::MIN_POSITIVE);
                let verdict = if ratio > max_ratio {
                    failures += 1;
                    "FAIL (overhead ceiling exceeded)"
                } else {
                    "ok"
                };
                let _ = writeln!(
                    report,
                    "ratio {num} / {den} = {ratio:.3}x (max {max_ratio:.2}x)  {verdict}"
                );
            }
            _ => {
                failures += 1;
                let _ = writeln!(
                    report,
                    "ratio {num} / {den}: FAIL (benchmarks missing from run)"
                );
            }
        }
    }

    compression_check(&mut report, &mut failures);
    image_check(&mut report, &mut failures);

    print!("{report}");
    if let Err(e) = std::fs::write(&report_path, &report) {
        eprintln!("bench_gate: cannot write {report_path}: {e}");
    }

    if update_baseline {
        if let Err(e) = std::fs::write(&baseline_path, &measured_text) {
            eprintln!("bench_gate: cannot update {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("bench_gate: baseline {baseline_path} updated from {measured_file}");
    }

    if failures > 0 {
        eprintln!("bench_gate: {failures} check(s) failed");
        ExitCode::FAILURE
    } else {
        eprintln!("bench_gate: all checks passed");
        ExitCode::SUCCESS
    }
}
