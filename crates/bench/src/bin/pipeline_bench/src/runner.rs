//! Runs a workload as a series of fixed-size rounds and folds them.
//!
//! A round builds its fleet from nothing, does a fixed amount of work,
//! checks it, and tears the fleet down through a recovery — so set-up,
//! state size and recovery are measured once per round on identical
//! state, byte counts repeat exactly for a seed, and a burst of sandbox
//! noise spoils one round's reading, not the run's: every metric is its
//! best round's (`metrics::Report::fold`). `--seconds` decides how many
//! rounds there are, never how big one is.

use crate::fixture::{self, RunCfg};
use crate::metrics::{Report, Round, MIN_ROUNDS};
use crate::spans::SpanRec;
use std::io::{self, BufWriter, Write};
use std::time::Instant;

/// Per-round reading every workload sets: nanoseconds per unit of its
/// own work, untraced and traced alike, from which the tracing overhead
/// is taken.
pub const HEADLINE: &str = "bench.headline_ns";

/// What a round hands back.
pub struct RoundOutput {
    pub round: Round,
    /// Span recorders of the round's generator threads (traced rounds).
    pub spans: Vec<SpanRec>,
}

/// One round of a workload, in a fresh state directory under `cfg.tmp`:
/// `(cfg, round index, traced)`. A round builds everything it needs,
/// inputs included, so all of its set-up is timed as often as there are
/// rounds.
pub type RoundFn = fn(&RunCfg, usize, bool) -> io::Result<RoundOutput>;

/// Run `round` until `cfg.seconds` have passed (at least [`MIN_ROUNDS`]
/// reported rounds) and fold the rounds into a report.
///
/// A traced run interleaves untraced rounds — same code, self-telemetry
/// and spans off — and reports only the traced ones; the ratio of the
/// two best headlines is `obs.trace_overhead_ratio`.
pub fn run(name: &'static str, cfg: &RunCfg, round: RoundFn) -> io::Result<Report> {
    std::fs::create_dir_all(&cfg.tmp)?;
    let started = Instant::now();
    let mut reported: Vec<Round> = Vec::new();
    let mut baseline_headline: Vec<f64> = Vec::new();
    let mut last_spans: Vec<SpanRec> = Vec::new();
    let mut index = 0;
    while reported.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < cfg.seconds {
        // Traced runs alternate: even rounds traced, odd rounds baseline.
        let traced_round = cfg.traced && index % 2 == 0;
        let mut out = round(cfg, index, traced_round)?;
        index += 1;
        // `VmHWM` only ever grows, and allocator retention grows it a
        // little with every round: the best (first) round's reading is
        // what one round needs, however many rounds the clock allowed.
        if let Some(rss) = fixture::peak_rss_mb() {
            out.round.set("peak_rss_mb", rss);
        }
        if cfg.traced && !traced_round {
            if let Some(h) = out.round.values.get(HEADLINE) {
                baseline_headline.push(*h);
            }
            // A baseline round's failures still fail the run.
            if out.round.failed > 0 {
                reported.push(out.round);
            }
            continue;
        }
        if traced_round {
            last_spans = out.spans;
        }
        reported.push(out.round);
    }
    let rounds = reported.len();
    let mut report = Report::fold(name, cfg.seed, cfg.traced, reported);
    report.set_once("bench.rounds", rounds as f64);
    report.set_once(
        "bench.nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    if cfg.traced {
        // The fold already took the traced rounds' best headline.
        let baseline = baseline_headline
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if let (Some(traced), true) = (report.value(HEADLINE), baseline.is_finite()) {
            report.set_once("obs.trace_overhead_ratio", traced / baseline);
        }
        report.set_once(
            "bench.spans_dropped",
            last_spans.iter().map(|r| r.dropped()).sum::<u64>() as f64,
        );
        write_spans(cfg, &last_spans)?;
    }
    let _ = std::fs::remove_dir_all(&cfg.tmp);
    // The scratch root too, unless a traced run left its spans there.
    if let Some(root) = cfg.tmp.parent() {
        let _ = std::fs::remove_dir(root);
    }
    Ok(report)
}

/// Write the last traced round's spans next to the scratch directory.
fn write_spans(cfg: &RunCfg, recs: &[SpanRec]) -> io::Result<()> {
    let Some(parent) = cfg.tmp.parent() else {
        return Ok(());
    };
    let mut out = BufWriter::new(std::fs::File::create(parent.join("spans.jsonl"))?);
    for (thread, rec) in recs.iter().enumerate() {
        rec.write_jsonl(thread, &mut out)?;
    }
    out.flush()
}
