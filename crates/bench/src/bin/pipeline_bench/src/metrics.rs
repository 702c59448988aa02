//! The benchmark's vocabulary: workload and metric names, units, bounds,
//! and how per-round readings fold into the reported value.
//!
//! `BENCHMARK.json` is rendered from these tables (`--print-benchmark-json`)
//! so the file the driver reads and the names the binary prints cannot
//! drift apart.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20230911;
/// `run_seconds` of `BENCHMARK.json`: how long one run keeps starting
/// rounds.
pub const RUN_SECONDS: u64 = 26;
/// A run measures at least this many rounds, however short `--seconds`.
pub const MIN_ROUNDS: usize = 3;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "loop_flight",
        why: "closed loop at idle, one serial flight at a time: transport round trips and the per-batch WAL flush dominate, every layer does a little",
    },
    WorkloadInfo {
        name: "fleet_saturate",
        why: "two nodes stream 64-sample batches behind the 64-batch window: per-batch cost (flush, ack, lock hand-off) is most of the work, chunk decode does nothing",
    },
    WorkloadInfo {
        name: "backfill_recover",
        why: "few huge chunk-heavy batches, a node re-shipping hours after a partition: per-batch cost vanishes, chunk decode, sketch apply, WAL bytes, snapshot and recovery dominate",
    },
    WorkloadInfo {
        name: "serve_under_ingest",
        why: "open-loop queries beside open-loop ingest on one preloaded fleet: a gain for reads that costs ingest acks, or the reverse, shows here",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("sample_to_queryable_ms_p50", "ms", Better::Lower, 0.25),
    e2e("fault_to_actuation_ms_p50", "ms", Better::Lower, 0.25),
    e2e("ingest_samples_per_s", "1/s", Better::Higher, 0.25),
    e2e("query_ms_p50", "ms", Better::Lower, 0.25),
    e2e("node_ns_per_sample", "ns", Better::Lower, 0.25),
    e2e("recover_s", "s", Better::Lower, 0.25),
    e2e("wal_bytes_per_sample", "B", Better::Lower, 0.05),
    e2e("snapshot_bytes_per_sample", "B", Better::Lower, 0.01),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Single-layer readings of the traced run, grouped by the repository's
/// modules. A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [PerLayer; 68] = [
    // telemetry::tsdb / series / rollup
    lo("tsdb.insert_ns_per_sample", "ns"),
    lo("tsdb.window_read_ns", "ns"),
    hi("tsdb.samples", "count"),
    lo("tsdb.rejected_samples", "count"),
    // telemetry::chunk
    hi("chunk.sealed", "count"),
    lo("chunk.decoded", "count"),
    lo("chunk.bytes_per_sample", "B"),
    // telemetry::export
    lo("export.drain_ns_per_record", "ns"),
    lo("export.encode_ns_per_record", "ns"),
    lo("export.batches", "count"),
    lo("export.records", "count"),
    lo("export.wire_bytes_per_sample", "B"),
    lo("export.missed_samples", "count"),
    // fleet::transport
    lo("transport.write_batch_ns", "ns"),
    lo("transport.ack_wait_ns", "ns"),
    lo("transport.backlog_batches_max", "count"),
    lo("transport.query_rtt_ns", "ns"),
    lo("transport.query_overhead_ns", "ns"),
    lo("transport.reconnects", "count"),
    lo("transport.resent_batches", "count"),
    // fleet::persist
    lo("wal.append_ns_per_batch", "ns"),
    lo("wal.fsync_ns", "ns"),
    lo("wal.appends", "count"),
    lo("wal.bytes", "B"),
    lo("snapshot.write_ns", "ns"),
    lo("snapshot.count", "count"),
    lo("snapshot.bytes", "B"),
    lo("snapshot.stall_ms_max", "ms"),
    lo("recover.ns", "ns"),
    lo("recover.replayed_batches", "count"),
    // fleet::aggregator + fleet::store
    lo("ingest.apply_ns_per_sample", "ns"),
    lo("ingest.batches", "count"),
    hi("ingest.samples", "count"),
    lo("ingest.duplicate_batches", "count"),
    lo("ingest.rejected_samples", "count"),
    lo("ingest.corrupt_chunks", "count"),
    hi("store.rollup_hits", "count"),
    hi("store.sketch_hits", "count"),
    lo("store.raw_fallbacks", "count"),
    lo("store.raw_values_per_query", "count"),
    // fleet::query
    lo("query.execute_ns.narrow_raw", "ns"),
    lo("query.execute_ns.wide_sketch", "ns"),
    lo("query.execute_ns.top_nodes", "ns"),
    lo("query.execute_ns.live_probe", "ns"),
    lo("query.execute_ns.health", "ns"),
    lo("query.codec_ns", "ns"),
    lo("query.ms_p50.narrow_raw", "ms"),
    lo("query.ms_p50.wide_sketch", "ms"),
    lo("query.ms_p50.top_nodes", "ms"),
    lo("query.ms_p50.live_probe", "ms"),
    lo("query.ms_p50.health", "ms"),
    // fleet::control
    lo("control.tick_ns", "ns"),
    lo("control.lock_wait_ns", "ns"),
    hi("control.ticks", "count"),
    hi("control.alerts", "count"),
    hi("control.applied", "count"),
    lo("control.held", "count"),
    lo("control.blocked", "count"),
    hi("control.applied_per_alert", "ratio"),
    // Tails that do not hold an end-to-end bound on a two-core sandbox.
    lo("sample_to_queryable_ms_p99", "ms"),
    lo("fault_to_actuation_ms_p99", "ms"),
    lo("query_ms_p99", "ms"),
    // obs / harness: validity of the numbers above
    lo("obs.trace_overhead_ratio", "ratio"),
    hi("bench.attributed_share", "ratio"),
    lo("bench.generator_late_ms_p99", "ms"),
    lo("bench.spans_dropped", "count"),
    hi("bench.rounds", "count"),
    hi("bench.nproc", "count"),
];

/// Which way a named metric is better (`None` for a name in no table).
fn better_of(name: &str) -> Option<Better> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.better)))
        .find(|(n, _)| *n == name)
        .map(|(_, b)| b)
}

/// Fold a metric's per-round readings into the run's value: the **best
/// round** — the lowest reading of a lower-is-better metric, the highest
/// of a higher-is-better one; `*_max` metrics keep their worst.
///
/// Why not the median: rounds do identical work, and on the shared
/// two-vCPU sandbox interference only ever adds time, in phases of
/// seconds to minutes (a vCPU runs ~1.45× slower for a while). The best
/// round is the one the host disturbed least, so it repeats between runs
/// where a median lands wherever the slow phases happened to fall. The
/// spread of the rounds is printed beside every value.
fn fold_rounds(name: &str, readings: &[f64]) -> f64 {
    let lowest = readings.iter().copied().fold(f64::INFINITY, f64::min);
    let highest = readings.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match better_of(name) {
        _ if name.ends_with("_max") => highest,
        Some(Better::Higher) => highest,
        _ => lowest,
    }
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// One reading per metric name (end-to-end and per-layer alike).
    pub values: BTreeMap<&'static str, f64>,
    /// Raw nanosecond samples behind the timing metrics, pooled over the
    /// rounds for the human-readable summary.
    pub timings: BTreeMap<&'static str, Vec<u64>>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check (first few are printed).
    pub failures: Vec<String>,
}

impl Round {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Count `n` operations, all of which succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one checked operation; a failed one also records why.
    pub fn check(&mut self, passed: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// Record a timing metric's samples and set `p50`/`p99` (ms) from
    /// them under the given names.
    pub fn timing_ms(&mut self, samples: Vec<u64>, p50: &'static str, p99: Option<&'static str>) {
        if let Some((a, b)) = stats::p50_p99_ms(&samples) {
            self.set(p50, a);
            if let Some(p99) = p99 {
                self.set(p99, b);
            }
        }
        self.timings.entry(p50).or_default().extend(samples);
    }
}

/// The folded result of a run.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub rounds: usize,
    /// name -> (value, spread of the per-round readings).
    pub values: BTreeMap<&'static str, (f64, f64)>,
    pub timings: BTreeMap<&'static str, stats::TimingSummary>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    /// Fold rounds: each metric is its best round's reading (see
    /// [`fold_rounds`]).
    pub fn fold(workload: &'static str, seed: u64, traced: bool, rounds: Vec<Round>) -> Report {
        let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut pooled: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
        for r in &rounds {
            for (k, v) in &r.values {
                per_name.entry(k).or_default().push(*v);
            }
            for (k, v) in &r.timings {
                pooled.entry(k).or_default().extend(v);
            }
            attempted += r.attempted;
            failed += r.failed;
            failures.extend(r.failures.iter().cloned());
        }
        let values = per_name
            .into_iter()
            .map(|(k, v)| (k, (fold_rounds(k, &v), stats::spread(&v))))
            .collect();
        let timings = pooled
            .into_iter()
            .filter_map(|(k, v)| stats::summarize(&v).map(|s| (k, s)))
            .collect();
        Report {
            workload,
            seed,
            traced,
            rounds: rounds.len(),
            values,
            timings,
            attempted,
            failed,
            failures,
        }
    }

    pub fn set_once(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, 0.0));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// The names this run must report: end-to-end untraced, per-layer
    /// traced.
    fn required(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// A run is correct when no operation failed and every end-to-end
    /// metric it owes is a finite, non-zero number. Per-layer metrics of
    /// layers a workload does not exercise read 0.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self
                .required()
                .iter()
                .all(|(name, _)| match self.value(name) {
                    Some(v) => v.is_finite() && (self.traced || v != 0.0),
                    None => self.traced,
                })
    }

    /// Human-readable listing: every metric by name with its unit, the
    /// spread of its per-round readings, and the timing summaries.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} seed={} {} rounds={} attempted={} failed={}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.rounds,
            self.attempted,
            self.failed
        );
        for (name, unit) in self.required() {
            let (v, spread) = self.values.get(name).copied().unwrap_or((0.0, 0.0));
            let _ = writeln!(
                out,
                "{name:<34} {v:>16.4} {unit:<6} round spread {:>5.1}%",
                spread * 100.0
            );
        }
        for (name, t) in &self.timings {
            let tail = match t.tail {
                Some((label, ns)) => format!("{label} {:.4} ms", ns as f64 / 1e6),
                None => "no tail (under 100 samples)".to_string(),
            };
            let _ = writeln!(
                out,
                "timing {name:<27} median {:.4} ms, {tail}, n={}",
                t.median as f64 / 1e6,
                t.count
            );
        }
        for f in self.failures.iter().take(8) {
            let _ = writeln!(out, "FAILED: {f}");
        }
        out
    }

    /// The driver's result line.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in self.required().iter().enumerate() {
            let v = self.value(name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json(manifest_path: &str, bench_dir: &str) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"{manifest_path}\", \"--\"],"
    );
    let _ = writeln!(out, "  \"paths\": [\"{bench_dir}\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in &END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json("a/Cargo.toml", "a").len() < 64 * 1024);
    }

    #[test]
    fn fold_takes_the_best_round_and_counts_failures() {
        let mut rounds = Vec::new();
        for (i, v) in [3.0, 1.0, 2.0].into_iter().enumerate() {
            let mut r = Round::default();
            r.set("query_ms_p50", v);
            r.set("ingest_samples_per_s", v);
            r.set("snapshot.stall_ms_max", v);
            r.ok(10);
            r.check(i != 1, || "round 1 mismatched".to_string());
            rounds.push(r);
        }
        let rep = Report::fold("loop_flight", 1, true, rounds);
        assert_eq!(rep.value("query_ms_p50"), Some(1.0));
        assert_eq!(rep.value("ingest_samples_per_s"), Some(3.0));
        assert_eq!(rep.value("snapshot.stall_ms_max"), Some(3.0));
        assert_eq!((rep.attempted, rep.failed), (33, 1));
        assert!(!rep.correct());
        assert!(rep
            .json_line()
            .starts_with("{\"correct\": false, \"attempted\": 33, \"failed\": 1"));
    }

    #[test]
    fn untraced_run_owes_every_end_to_end_metric_non_zero() {
        let mut r = Round::default();
        r.ok(1);
        for m in &END_TO_END {
            r.set(m.name, 1.5);
        }
        let mut rep = Report::fold("loop_flight", 1, false, vec![r]);
        assert!(rep.correct());
        let line = rep.json_line();
        for m in &END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.5", m.name)));
        }
        rep.set_once("recover_s", 0.0);
        assert!(!rep.correct());
    }
}
