//! The paper's claims, checked against the experiments that reproduce
//! them.
//!
//! One test per experiment (E1–E13, so they run in parallel). Each runs
//! its tables from `moda_bench::experiments`, asserts the claim as
//! orderings and monotonicity over the table's columns, and then pins
//! the rendered table in `tests/golden/paper/<id>.md` — except E1,
//! whose stage costs are wall-clock sleeps and so is checked by shape
//! only. Claims are checked before the golden, so a change that breaks
//! a claim reports the claim. Debug and release builds render the
//! deterministic tables byte-identically, so one golden serves both.
//!
//! A change that means to move an experiment regenerates its goldens:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test paper_claims
//! ```

use moda_bench::experiments::{self, ALL};
use moda_bench::table::Table;
use std::path::Path;

/// Check `t` against its golden `tests/golden/paper/{id}.md`
/// (regenerated first under `GOLDEN_REGEN`).
fn pin(id: &str, t: &Table) {
    assert!(
        ALL.iter().any(|(i, _)| *i == id),
        "{id} is not an experiment"
    );
    let rel = format!("tests/golden/paper/{id}.md");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(&rel);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, t.render()).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{rel} unreadable ({e}); generate it with GOLDEN_REGEN=1"));
    assert_eq!(
        t.render(),
        golden,
        "{id} no longer renders its golden; if the change means to move \
         this experiment, regenerate with GOLDEN_REGEN=1"
    );
}

fn non_decreasing(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[0] <= w[1])
}

fn decreasing(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[0] > w[1])
}

/// The one number in column `col` of the rows whose `key` starts with
/// `prefix`.
fn one(t: &Table, key: &str, prefix: &str, col: &str) -> f64 {
    let v = t.select(key, prefix).col(col);
    assert_eq!(v.len(), 1, "{key} = {prefix}* picks {} rows", v.len());
    v[0]
}

/// §II: the centralized Plan of master-worker suffers from limited
/// scalability; decentralized (coordinated) iterations stay flat.
#[test]
fn e1_centralized_plan_does_not_scale() {
    let t = experiments::e1();
    let (mw, co) = (t.col("master-worker"), t.col("coordinated"));
    assert_eq!(t.col("fleet"), [1.0, 2.0, 4.0, 8.0, 16.0]);
    assert!(
        mw[4] > 4.0 * mw[0],
        "master-worker p50 grows with the fleet: {mw:?}"
    );
    assert!(
        mw[4] / mw[0] > 2.0 * co[4] / co[0],
        "coordinated p50 grows far less: {co:?} vs {mw:?}"
    );
}

/// §II: coordinated peers keep managing through peer loss and the
/// master-worker through worker loss, but the master is a single point
/// of failure.
#[test]
fn e2a_only_the_master_is_a_single_point_of_failure() {
    let t = experiments::e2a();
    for (failed, acted) in t.texts("failures").into_iter().zip(t.col("rounds acted")) {
        let want = if failed == "master" { 0.0 } else { 50.0 };
        assert_eq!(acted, want, "rounds acted with {failed} down");
    }
    pin("e2a", &t);
}

/// §II: decentralized Plan policies may suffer from instability due to
/// indirect interactions. Uncoordinated bang-bang planners drift
/// further from target as peers multiply; a token (max-concurrent(1))
/// holds the error flat; a cooldown cuts crossings fourfold but not the
/// error at 8 peers.
#[test]
fn e2b_uncoordinated_planners_oscillate() {
    let t = experiments::e2b();
    let rms = |c| t.select("coordination", c).col("RMS error");
    let crossings = |c| t.select("coordination", c).col("crossings/100 rounds");
    let (none, token) = (rms("none"), rms("max-concurrent"));
    assert!(none[1] > 2.0 * none[0], "error grows with peers: {none:?}");
    assert!(token[1] < none[1] && token[1] <= token[0], "{token:?}");
    let (cooldown, free) = (crossings("cooldown"), crossings("none"));
    assert!(cooldown.iter().zip(&free).all(|(c, f)| 2.0 * c < *f));
    assert!(
        rms("cooldown")[1] > 2.0 * token[1],
        "cooldown alone leaves the error"
    );
    pin("e2b", &t);
}

/// §III.iv–v: the loop cuts kills, resubmissions and redone steps at
/// every underestimation level; guardrails trade some first-attempt
/// completions for bounded reservation delay.
#[test]
fn e3_loop_cuts_kills_and_guardrails_bound_delay() {
    let t = experiments::e3();
    for under in ["10%", "20%", "40%"] {
        let u = t.select("under-est", under);
        let base = u.select("variant", "baseline");
        let looped = u.select("variant", "loop");
        for col in ["kills", "resubmits", "steps"] {
            let b = base.col(col)[0];
            assert!(
                looped.col(col).iter().all(|v| *v < b),
                "{under}: loop cuts {col}"
            );
        }
        // "loop: extend" also picks "loop: extend+ckpt": both guarded.
        let guarded = u.select("variant", "loop: extend");
        let free = u.select("variant", "loop: no guardrails");
        let (free_kills, free_delay) = (free.col("kills")[0], free.col("resv-delay-s")[0]);
        assert!(
            free_delay > 0.0,
            "{under}: no guardrails delays reservations"
        );
        assert!(
            guarded.col("resv-delay-s").iter().all(|d| *d == 0.0),
            "{under}"
        );
        assert!(
            guarded.col("kills").iter().all(|k| free_kills <= *k),
            "{under}"
        );
    }
    pin("e3", &t);
}

/// §III case 1: the window interrupts the same jobs either way, but the
/// loop checkpoints each first, so less work is redone and the campaign
/// ends earlier; the saving does not depend on the outage length.
#[test]
fn e4_checkpoints_preserve_work_through_maintenance() {
    let t = experiments::e4();
    let (mut steps_saved, mut hours_saved) = (Vec::new(), Vec::new());
    for outage in ["1 h", "2 h", "4 h"] {
        let o = t.select("outage", outage);
        let [base, looped] = ["baseline", "maintenance loop"].map(|v| o.select("variant", v));
        let at = |x: &Table, col| x.col(col)[0];
        assert_eq!(
            at(&base, "outage-killed"),
            at(&looped, "outage-killed"),
            "{outage}"
        );
        assert!(
            at(&looped, "ckpts") >= at(&looped, "outage-killed"),
            "{outage}: every victim checkpointed"
        );
        assert_eq!(at(&base, "ckpts"), 0.0);
        steps_saved.push(at(&base, "steps (redone work)") - at(&looped, "steps (redone work)"));
        hours_saved.push(at(&base, "makespan-h") - at(&looped, "makespan-h"));
    }
    assert!(
        steps_saved[0] > 0.0 && steps_saved.iter().all(|s| *s == steps_saved[0]),
        "{steps_saved:?}"
    );
    assert!(
        hours_saved
            .iter()
            .all(|h| *h > 0.0 && (h - hours_saved[0]).abs() < 0.15),
        "{hours_saved:?}"
    );
    pin("e4", &t);
}

/// §III case 2: static QoS pins the under-provisioned tenant at
/// multi-second tail latency; the loop raises its rate and cuts its
/// steady-state p99 tenfold, leaving the other tenants alone.
#[test]
fn e5_adaptive_qos_relieves_the_starved_tenant() {
    let t = experiments::e5();
    let [fixed, adaptive] = ["static", "adaptive"].map(|v| t.select("variant", v));
    let at = |x: &Table, tenant, col| one(x, "tenant", tenant, col);
    assert!(at(&fixed, "lat", "p99 steady") > 1000.0);
    assert!(at(&adaptive, "lat", "p99 steady") * 10.0 < at(&fixed, "lat", "p99 steady"));
    assert!(at(&adaptive, "lat", "final MB/s") > at(&fixed, "lat", "final MB/s"));
    for tenant in ["med", "bulk"] {
        for col in ["p99 all", "final MB/s", "writes"] {
            assert_eq!(
                at(&adaptive, tenant, col),
                at(&fixed, tenant, col),
                "{tenant} {col}"
            );
        }
    }
    pin("e5", &t);
}

/// §III: MAPE-K loops of decreasing size and increasing automation. A
/// slower loop pays a longer transient; every cadence reaches the same
/// steady state.
#[test]
fn e5b_faster_loops_shorten_the_transient() {
    let t = experiments::e5b();
    assert!(
        non_decreasing(&t.col("p99 all")),
        "slower loops pay a longer transient"
    );
    let fast = t.col("p99 all")[0];
    assert!(
        t.col("p99 steady").iter().all(|p| *p == fast),
        "every cadence reaches steady state"
    );
    pin("e5b", &t);
}

/// §III case 3: without the loop, slowdown grows with severity; the loop
/// detects within one tick at every severity and restores near-healthy
/// completion.
#[test]
fn e6_ost_loop_restores_healthy_completion() {
    let t = experiments::e6();
    let slow = |v| t.select("variant", v).col("slowdown vs healthy");
    assert!(
        slow("no loop").windows(2).all(|w| w[0] < w[1]),
        "{:?}",
        slow("no loop")
    );
    assert!(
        slow("OST loop").iter().all(|s| *s < 1.01),
        "{:?}",
        slow("OST loop")
    );
    let delays = t.select("variant", "OST loop").col("detect-delay-s");
    assert!(
        delays.iter().all(|d| *d == delays[0] && *d <= 10.0),
        "one tick: {delays:?}"
    );
    pin("e6", &t);
}

/// §III case 4: the loop finds every misconfigured job within two ticks
/// of its start without false alarms; correcting on the fly saves work
/// and makespan that informing alone does not.
#[test]
fn e7_misconfig_is_found_and_correction_saves_work() {
    let t = experiments::e7();
    for rate in ["10%", "30%"] {
        let r = t.select("misconfig rate", rate);
        let looped = [r.select("variant", "inform"), r.select("variant", "auto")];
        for l in &looped {
            assert!(l.col("precision")[0] >= 0.9, "{rate}: precision");
            assert!(l.col("recall")[0] >= 0.99, "{rate}: recall");
            assert!(
                l.col("median detect-s")[0] <= 60.0,
                "{rate}: within two ticks"
            );
        }
        let [inform, auto] = looped;
        for col in ["steps", "makespan-h"] {
            assert!(
                auto.col(col)[0] < inform.col(col)[0],
                "{rate}: correction cuts {col}"
            );
        }
        assert!(auto.col("corrections")[0] > 0.0 && inform.col("corrections")[0] == 0.0);
    }
    pin("e7", &t);
}

/// §I, §IV: a human in the loop limits the speed of response. Kills grow
/// with approval latency until, at 8 h, the loop is as good as absent;
/// human-on-the-loop acts as fast as autonomy and alone notifies.
#[test]
fn e8_approval_latency_costs_outcomes() {
    let t = experiments::e8();
    let row = |mode| t.select("response mode", mode);
    let kills = row("human approval").col("kills");
    assert!(
        non_decreasing(&kills),
        "kills vs approval latency: {kills:?}"
    );
    let (auto, hotl, none) = (row("autonomous"), row("human-on-the-loop"), row("no loop"));
    let slowest = row("human approval").select("latency", "8 h");
    for col in ["kills", "resubmits"] {
        assert_eq!(auto.col(col), hotl.col(col), "{col}");
        assert_eq!(
            slowest.col(col),
            none.col(col),
            "8 h approval ≡ no loop: {col}"
        );
    }
    assert_eq!(auto.texts("extensions"), hotl.texts("extensions"));
    assert_eq!(slowest.texts("extensions"), none.texts("extensions"));
    assert!(auto.col("kills")[0] < none.col("kills")[0]);
    let notified: Vec<_> = (t.texts("response mode").into_iter())
        .zip(t.col("notifications"))
        .filter(|(_, n)| *n > 0.0)
        .map(|(m, _)| m)
        .collect();
    assert_eq!(notified, ["human-on-the-loop"]);
    pin("e8", &t);
}

/// §IV: continual learning must evolve rapidly with small overhead.
/// After the drift, the frozen model stays (1 − 1/drift)·100 % wrong,
/// λ = 1 RLS recovers slowly, forgetting RLS recovers fastest and
/// calls extensions best.
#[test]
fn e9_forgetting_recovers_from_drift() {
    let t = experiments::e9();
    assert!(t.col("MAPE pre-drift %").iter().all(|m| *m < 1.0));
    let post = t.col("MAPE post-drift %");
    assert!(
        (post[0] - 100.0 * (1.0 - 1.0 / 1.6)).abs() < 1.0,
        "frozen: {post:?}"
    );
    assert!(decreasing(&post), "{post:?}");
    let accuracy = t.col("extension-call accuracy post-drift");
    assert!(accuracy.windows(2).all(|w| w[0] < w[1]), "{accuracy:?}");
    pin("e9", &t);
}

/// §IV: recovery speed. The frozen model never recovers, λ = 1 RLS
/// dilutes stale history slowly, forgetting RLS re-converges within a
/// hundred runs.
#[test]
fn e9b_forgetting_reconverges() {
    let t = experiments::e9b();
    let windows = |m| ["runs 0-49", "50-99", "100-149", "150-199"].map(|c| one(&t, "model", m, c));
    let frozen = windows("frozen");
    assert!(
        frozen.iter().all(|w| (w - frozen[0]).abs() < 0.5),
        "frozen never recovers"
    );
    assert!(
        decreasing(&windows("RLS λ=1.00")),
        "never-forgetting RLS recovers slowly"
    );
    let forget = windows("RLS λ=0.97");
    assert!(
        decreasing(&forget) && forget[2] < 2.0,
        "forgetting RLS re-converges: {forget:?}"
    );
    assert!(windows("RLS λ=1.00")[3] > 10.0 * forget[3]);
    pin("e9b", &t);
}

/// §IV: confidence must gate actuation. Raising the gate filters the
/// widest-interval plans — extension overshoot falls — and blocks ever
/// more; a gate no forecast clears executes nothing and kills climb.
#[test]
fn e10_confidence_gate_trades_volume_for_quality() {
    let t = experiments::e10();
    let over: Vec<f64> = (t.col("gate").into_iter().zip(t.col("over-ratio")))
        .filter(|(g, _)| *g <= 0.8)
        .map(|(_, o)| o)
        .collect();
    assert_eq!(over.len(), 4);
    assert!(
        decreasing(&over),
        "over-ratio falls with the gate: {over:?}"
    );
    assert!(non_decreasing(&t.col("blocked")), "{:?}", t.col("blocked"));
    let top = t.select("gate", "0.90");
    assert_eq!(top.col("executed"), [0.0]);
    assert_eq!(top.texts("Brier"), ["-"]);
    let kills = t.col("kills");
    assert!(
        kills[..5].iter().all(|k| *k < kills[5]),
        "starved Execute: {kills:?}"
    );
    pin("e10", &t);
}

/// §IV: monitoring design prices latency against volume. Detection
/// takes at least one loop period and grows with it, a 10 min loop
/// never catches the shift, and the campaign pays for the blindness.
#[test]
fn e11a_slow_loops_are_blind() {
    let t = experiments::e11a();
    let delays = t.nums("detect-delay-s");
    let detected: Vec<f64> = delays.iter().flatten().copied().collect();
    assert!(non_decreasing(&detected), "{delays:?}");
    let periods = t.col("loop period");
    assert!((delays.iter().zip(&periods)).all(|(d, p)| d.is_none_or(|d| d >= *p)));
    assert_eq!(delays.last(), Some(&None), "a 10 min loop never detects");
    assert!(non_decreasing(&t.col("campaign makespan-s")));
    pin("e11a", &t);
}

/// §IV: insert rates for raw time-series data. Telemetry volume grows
/// with cardinality and falls with the sensor period.
#[test]
fn e11b_volume_tracks_cardinality_and_period() {
    let t = experiments::e11b();
    let [small, big] = ["16", "64"].map(|n| t.select("nodes", n));
    for x in [&small, &big] {
        assert!(decreasing(&x.col("total inserts")));
        assert!(decreasing(&x.col("inserts/sim-hour")));
    }
    for col in ["metrics registered", "total inserts", "inserts/sim-hour"] {
        let grows = small
            .col(col)
            .into_iter()
            .zip(big.col(col))
            .all(|(s, b)| s < b);
        assert!(grows, "{col} grows with the node count");
    }
    pin("e11b", &t);
}

/// §III: prior knowledge of running time inferred from similar jobs
/// with different input decks. One record beats none, tens of runs cut
/// the error further, and then it levels off well above zero: a
/// class-level signature (the input deck's step count) cannot see a
/// run's own step cost.
#[test]
fn e12a_history_depth_levels_off() {
    let t = experiments::e12a();
    let mape = t.col("MAPE %");
    assert_eq!(mape[0], 100.0, "no history, no estimate");
    assert!(mape[1] < mape[0], "one record beats none");
    let deep = &mape[3..];
    assert!(deep.iter().all(|m| *m < mape[2] - 20.0), "{mape:?}");
    assert!(deep.iter().all(|m| *m > 20.0), "no per-run leak: {mape:?}");
    assert!((mape[5] - mape[4]).abs() < 5.0, "levels off: {mape:?}");
    let conf = t.col("mean confidence");
    assert!(
        decreasing(&[conf[3], conf[2], conf[1], conf[0]]),
        "{conf:?}"
    );
    assert!((conf[5] - conf[3]).abs() < 0.05, "levels off: {conf:?}");
    pin("e12a", &t);
}

/// Fig. 3's refine arc: even an unseeded cold-start loop beats no loop
/// (it harvests its own completions), and seeded history pays off in
/// the cold opening phase — it cuts early kills, not total kills.
#[test]
fn e12b_seeded_history_warms_the_opening() {
    let t = experiments::e12b();
    let kills = t.col("kills");
    assert!(kills[1..].iter().all(|k| *k < kills[0]), "{kills:?}");
    let early = t.col("early kills (first 30 roots)");
    assert!(
        early[2..].iter().all(|e| *e < early[1]),
        "seeding cuts early kills: {early:?}"
    );
    pin("e12b", &t);
}

/// §IV: resilience through proactive checkpointing. Unprotected rework
/// grows with the failure rate, any cadence cuts it sharply, and
/// Young's interval from the observed MTBF sits within 5 % of the best
/// makespan — Knowledge turned into policy.
#[test]
fn e13_young_interval_is_near_optimal() {
    let t = experiments::e13();
    let [rare, often] = ["48 h", "12 h"].map(|m| t.select("node MTBF", m));
    let none_redone = |x: &Table| x.select("cadence", "none").col("redone steps")[0];
    assert!(none_redone(&often) > none_redone(&rare));
    for x in [&rare, &often] {
        let at = |c, col| one(x, "cadence", c, col);
        for c in ["fixed", "Young"] {
            let redone = x.select("cadence", c).col("redone steps");
            assert!(
                redone.iter().all(|r| 4.0 * r < none_redone(x)),
                "{c}: {redone:?}"
            );
        }
        let ckpts = x.select("cadence", "fixed").col("ckpts");
        assert!(ckpts[0] > at("Young", "ckpts") && at("Young", "ckpts") > ckpts[1]);
        let redone = x.select("cadence", "fixed").col("redone steps");
        assert!(redone[0] < at("Young", "redone steps") && at("Young", "redone steps") < redone[1]);
        let best = (x.select("cadence", "fixed").col("makespan-h").into_iter())
            .fold(at("Young", "makespan-h"), f64::min);
        assert!(
            at("Young", "makespan-h") <= 1.05 * best,
            "Young near the best makespan"
        );
    }
    pin("e13", &t);
}
