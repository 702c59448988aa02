//! `pipeline_bench`: the end-to-end, per-layer-attributed benchmark of
//! the node → fleet → query → control loop.
//!
//! It drives the real path — `Tsdb::insert_batch` → `Exporter::drain` →
//! `SocketSink` → `FleetListener` → `DurableFleet` (WAL + apply) →
//! `FleetClient` query wire → `FleetResponder::tick` — over loopback TCP
//! and a real WAL directory, through public APIs only. See `README.md`
//! for the workloads, the metric glossary and how to read a traced run.
//!
//! ```text
//! pipeline_bench --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
//! pipeline_bench [--traced] [--quick] [--seed N] [--json PATH]     all four, one child process each
//! pipeline_bench --check-repeat [--quick] [--seed N]               two sets, compared against the bounds
//! pipeline_bench --print-benchmark-json                            BENCHMARK.json from the metric tables
//! ```

mod affinity;
mod fixture;
mod gen;
mod layers;
mod metrics;
mod probe;
mod runner;
mod sched;
mod spans;
mod stats;
mod workloads;

use fixture::RunCfg;
use metrics::{Report, DEFAULT_SEED, END_TO_END, RUN_SECONDS, WORKLOADS};
use std::io;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Where this package lives in the repository (for `BENCHMARK.json`).
const BENCH_DIR: &str = "crates/bench/src/bin/pipeline_bench";
/// Scratch root, relative to the working directory.
const SCRATCH: &str = ".pipeline_bench_tmp";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    traced: bool,
    quick: bool,
    check_repeat: bool,
    json: Option<PathBuf>,
    print_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            "--json" => args.json = Some(PathBuf::from(value()?)),
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if w != "all" && !WORKLOADS.iter().any(|k| k.name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(args)
}

/// Run one workload in this process.
pub fn run_workload(name: &str, cfg: &RunCfg) -> io::Result<Report> {
    use workloads::{backfill_recover, fleet_saturate, loop_flight, serve_under_ingest};
    match name {
        "loop_flight" => runner::run("loop_flight", cfg, loop_flight::round),
        "fleet_saturate" => runner::run("fleet_saturate", cfg, fleet_saturate::round),
        "backfill_recover" => runner::run("backfill_recover", cfg, backfill_recover::round),
        "serve_under_ingest" => runner::run("serve_under_ingest", cfg, serve_under_ingest::round),
        other => Err(io::Error::other(format!("unknown workload {other}"))),
    }
}

fn cfg_of(args: &Args, traced: bool) -> RunCfg {
    RunCfg {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        // A quick run is three minimum-size rounds, whatever the clock says.
        seconds: args
            .seconds
            .unwrap_or(if args.quick { 0.0 } else { RUN_SECONDS as f64 }),
        traced,
        quick: args.quick,
        tmp: PathBuf::from(SCRATCH).join(std::process::id().to_string()),
    }
}

/// The `"name": {"value": v, …}` pairs of a result line, and its
/// `correct` flag.
fn parse_result_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let metrics = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for part in metrics.split("\"unit\"") {
        let Some((head, value)) = part.rsplit_once("{\"value\": ") else {
            continue;
        };
        let name = head.rsplit('"').nth(1)?;
        let value: f64 = value.trim_end_matches([',', ' ']).parse().ok()?;
        out.push((name.to_string(), value));
    }
    Some((correct, out))
}

/// One workload in a child process (so `peak_rss_mb` is its own); echoes
/// the child's listing and returns its result line.
fn run_child(workload: &str, args: &Args, trace: bool) -> io::Result<String> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.unwrap_or(DEFAULT_SEED).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (listing, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{listing}");
    if !line.starts_with('{') {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        return Err(io::Error::other(format!("{workload} printed no result")));
    }
    Ok(line.to_string())
}

/// All four workloads, untraced (and traced with `--traced`).
fn run_all(args: &Args) -> io::Result<bool> {
    let mut lines = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            if trace && !args.traced {
                continue;
            }
            let line = run_child(w.name, args, trace)?;
            all_correct &= parse_result_line(&line).is_some_and(|(ok, _)| ok);
            lines.push(format!(
                "{{\"workload\": \"{}\", \"trace\": {}, \"result\": {line}}}",
                w.name, trace as u8
            ));
        }
    }
    if let Some(path) = &args.json {
        std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))?;
    }
    Ok(all_correct)
}

/// Two full sets with one seed; every end-to-end metric of every
/// workload must agree within its own bound, and WAL bytes per sample —
/// measured on a replay of one node's stream, so independent of timing
/// and of how two sessions interleaved — exactly.
fn check_repeat(args: &Args) -> io::Result<bool> {
    let mut ok = true;
    let mut table = String::new();
    for w in &WORKLOADS {
        let mut sets = Vec::new();
        for _ in 0..2 {
            let line = run_child(w.name, args, false)?;
            let (correct, metrics) = parse_result_line(&line)
                .ok_or_else(|| io::Error::other("unparseable result line"))?;
            ok &= correct;
            sets.push(metrics);
        }
        for m in &END_TO_END {
            let get =
                |set: &[(String, f64)]| set.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v);
            let (Some(a), Some(b)) = (get(&sets[0]), get(&sets[1])) else {
                ok = false;
                continue;
            };
            let diff = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
            let exact = m.name == "wal_bytes_per_sample";
            let pass = if exact { a == b } else { diff <= m.bound };
            ok &= pass;
            table.push_str(&format!(
                "{:<20} {:<28} {a:>14.4} {b:>14.4} {:>7.2}% {:>6.0}% {}\n",
                w.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if pass { "ok" } else { "DIFFERS" }
            ));
        }
    }
    println!(
        "{:<20} {:<28} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "set A", "set B", "diff", "bound"
    );
    print!("{table}");
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipeline_bench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!(
            "{}",
            metrics::benchmark_json(&format!("{BENCH_DIR}/Cargo.toml"), BENCH_DIR)
        );
        return ExitCode::SUCCESS;
    }
    let outcome = match args.workload.as_deref() {
        Some(name) if name != "all" => {
            // Before any thread exists, so the library's threads inherit it.
            let pinned = affinity::pin_to_one_cpu();
            run_workload(name, &cfg_of(&args, args.trace)).map(|report| {
                match pinned {
                    Some(cpu) => println!("pinned to cpu {cpu}"),
                    None => println!("not pinned: cross-CPU placement will show in the latencies"),
                }
                print!("{}", report.render());
                println!("{}", report.json_line());
                report.correct()
            })
        }
        _ if args.check_repeat => check_repeat(&args),
        _ => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pipeline_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv(
            "--workload loop_flight --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("loop_flight"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(20.0), true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let mut r = metrics::Round::default();
        r.ok(3);
        for (i, m) in END_TO_END.iter().enumerate() {
            r.set(m.name, 1.25 + i as f64);
        }
        let report = Report::fold("loop_flight", 1, false, vec![r]);
        let (correct, parsed) = parse_result_line(&report.json_line()).unwrap();
        assert!(correct);
        assert_eq!(parsed.len(), END_TO_END.len());
        for (i, m) in END_TO_END.iter().enumerate() {
            assert_eq!(parsed[i], (m.name.to_string(), 1.25 + i as f64));
        }
    }

    /// `BENCHMARK.json` at the repository root is what the tables render.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..");
        let Ok(on_disk) = std::fs::read_to_string(root.join("BENCHMARK.json")) else {
            return; // built outside the repository
        };
        let rendered = metrics::benchmark_json(&format!("{BENCH_DIR}/Cargo.toml"), BENCH_DIR);
        assert_eq!(on_disk, rendered, "regenerate with --print-benchmark-json");
        assert!(root.join(BENCH_DIR).join("Cargo.toml").exists());
    }

    /// The four workloads at smoke size: every check they carry must
    /// pass and every metric they owe must be there, traced and untraced.
    #[test]
    fn quick_runs_of_all_four_workloads_are_correct() {
        for w in &WORKLOADS {
            for traced in [false, true] {
                let cfg = RunCfg {
                    seed: 42,
                    seconds: 0.0,
                    traced,
                    quick: true,
                    tmp: std::env::temp_dir().join(format!(
                        "pipeline_bench-{}-{}-{traced}",
                        std::process::id(),
                        w.name
                    )),
                };
                let report = run_workload(w.name, &cfg).unwrap();
                assert!(
                    report.correct(),
                    "{} traced={traced}:\n{}",
                    w.name,
                    report.render()
                );
                if traced && w.name == "loop_flight" {
                    let share = report.value("bench.attributed_share").unwrap();
                    assert!(share >= 0.85, "attributed share {share}");
                }
            }
        }
    }
}
