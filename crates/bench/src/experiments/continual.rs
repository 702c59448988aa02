//! E9 — continual learning under workload drift (§IV).

use crate::table::{cell, f, Table};
use moda_analytics::RlsModel;
use moda_hpc::workload::{self, WorkloadConfig};
use moda_sim::RngStreams;

const RUNS: usize = 600;
const DRIFT_AT: usize = 300;
const DRIFT_FACTOR: f64 = 1.6;

/// One predictor's record over the run stream.
#[derive(Default)]
struct Score {
    ape_pre: Vec<f64>,
    ape_post: Vec<f64>,
    /// Post-drift extension calls that matched ground truth.
    decisions_ok: usize,
}

fn mape(v: &[f64]) -> f64 {
    100.0 * v.iter().sum::<f64>() / v.len() as f64
}

/// The three predictors, as E9 and E9b label them.
const MODELS: [(&str, &str); 3] = [
    ("frozen (fit once)", "frozen"),
    ("RLS λ=1.00 (never forgets)", "RLS λ=1.00"),
    ("RLS λ=0.97 (continual)", "RLS λ=0.97"),
];

/// A stream of runs whose true step cost is multiplied by
/// [`DRIFT_FACTOR`] from run [`DRIFT_AT`] on (a library upgrade — a
/// classic operational shift; users keep requesting walltime as
/// before). The [`MODELS`] forecast each run's runtime from its
/// features `[1, scale, nodes]` *before* seeing it, then train on the
/// truth: frozen least squares fitted on the first half of the
/// pre-drift prefix (never trained again), RLS with λ = 1 (remembers
/// everything) and RLS with λ = 0.97 (forgets).
fn scores() -> [Score; 3] {
    let cfg = WorkloadConfig {
        n_jobs: RUNS,
        mean_interarrival_s: 1.0,
        ..WorkloadConfig::default()
    };
    let runs: Vec<(Vec<f64>, f64, f64)> = (workload::generate(&cfg, &RngStreams::new(4242), 0))
        .into_iter()
        .enumerate()
        .map(|(i, (req, prof))| {
            let regime = if i >= DRIFT_AT { DRIFT_FACTOR } else { 1.0 };
            let nominal = prof.total_steps as f64 * prof.mean_step_s;
            let x = vec![1.0, nominal, req.nodes as f64];
            (x, nominal * regime, req.walltime.as_secs_f64())
        })
        .collect();
    // Batch least squares is RLS with no forgetting and a large delta.
    let mut frozen = RlsModel::new(3, 1.0, 1e6);
    for (x, y, _) in &runs[..DRIFT_AT / 2] {
        frozen.update(x, *y);
    }
    let mut models = [
        frozen,
        RlsModel::new(3, 1.0, 100.0),
        RlsModel::new(3, 0.97, 100.0),
    ];
    let mut scores = [(); 3].map(|_| Score::default());
    for (i, (x, runtime_s, requested_s)) in runs.iter().enumerate() {
        for (k, (m, sc)) in models.iter_mut().zip(&mut scores).enumerate() {
            let pred = m.predict(x);
            let ape = (pred - runtime_s).abs() / runtime_s.max(1.0);
            if i < DRIFT_AT {
                sc.ape_pre.push(ape);
            } else {
                sc.ape_post.push(ape);
                // "Will this run exceed its request?" — exactly what
                // the Scheduler loop's Plan phase needs to know.
                sc.decisions_ok += usize::from((runtime_s > requested_s) == (pred > *requested_s));
            }
            if k > 0 {
                m.update(x, *runtime_s);
            }
        }
    }
    scores
}

/// **E9 — continual learning (§IV).** *"The constantly evolving nature
/// of the environment requires continual/lifelong AI that can evolve
/// rapidly with small overhead."* Mean absolute percentage error before
/// and after the drift, and decision quality: would the predictor have
/// flagged the run as needing a walltime extension?
pub fn e9() -> Table {
    let mut t = Table::new(
        format!(
            "E9 — forecast error under drift (step cost ×{DRIFT_FACTOR} at run {DRIFT_AT}/{RUNS})"
        ),
        &[
            "model",
            "MAPE pre-drift %",
            "MAPE post-drift %",
            "extension-call accuracy post-drift",
        ],
    );
    for ((label, _), sc) in MODELS.iter().zip(scores()) {
        let n = sc.ape_post.len();
        let pct = 100.0 * sc.decisions_ok as f64 / n.max(1) as f64;
        t.row(vec![
            (*label).into(),
            f(mape(&sc.ape_pre), 1),
            f(mape(&sc.ape_post), 1),
            cell(pct, format!("{pct:.0}% ({}/{n})", sc.decisions_ok)),
        ]);
    }
    t
}

/// **E9b** — recovery speed: post-drift MAPE in 50-run windows.
pub fn e9b() -> Table {
    let mut t = Table::new(
        "E9b — post-drift recovery (MAPE % by 50-run window after the drift)",
        &["model", "runs 0-49", "50-99", "100-149", "150-199"],
    );
    for ((_, label), sc) in MODELS.iter().zip(scores()) {
        let mut row = vec![(*label).into()];
        row.extend(sc.ape_post.chunks(50).take(4).map(|w| f(mape(w), 1)));
        t.row(row);
    }
    t
}
