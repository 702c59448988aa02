//! Seeded input generation. Everything the library sees — sensor values,
//! the breach schedule, the query mix — is derived from `--seed` here;
//! the same seed gives the same inputs.

use moda_telemetry::MetricId;

/// Axis every node exports as metric 0: the control loop's threshold
/// monitor watches it.
pub const POWER_AXIS: &str = "power_w";
/// Axis every live node exports as metric 1: it carries the sweep index,
/// so a remote query can confirm exactly which sweep is queryable.
pub const PROBE_AXIS: &str = "probe";
/// Healthy `power_w` level; sensor noise stays within a few watts of it.
pub const POWER_NOMINAL: f64 = 200.0;
/// `power_w` written while an injected fault is active.
pub const POWER_FAULT: f64 = 2000.0;
/// The threshold monitor's bound, between the two.
pub const POWER_LIMIT: f64 = 1000.0;

/// splitmix64: small, seedable, and good enough to decorrelate sensor
/// noise; the benchmark needs reproducibility, not cryptography.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`tag`) of one seed, so
    /// adding a consumer never shifts another consumer's values.
    pub fn fork(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Metric names of a node exporting `metrics` series: `power_w`, `probe`,
/// then `m002..`.
pub fn metric_names(metrics: usize) -> Vec<String> {
    (0..metrics)
        .map(|m| match m {
            0 => POWER_AXIS.to_string(),
            1 => PROBE_AXIS.to_string(),
            _ => format!("m{m:03}"),
        })
        .collect()
}

/// A pool of pre-generated sensor sweeps, cycled by sweep index, so the
/// timed loops copy values instead of running the generator.
///
/// Each metric walks around its own base level in quarter-unit steps —
/// the smooth, quantised shape the chunk codec and the sketches are built
/// for. Column 0 is `power_w` at its nominal level; column 1 is a
/// placeholder the caller overwrites with the sweep index.
#[derive(Debug, Clone)]
pub struct SweepPool {
    rows: Vec<Vec<f64>>,
}

impl SweepPool {
    pub fn new(seed: u64, node: u64, metrics: usize, rows: usize) -> Self {
        let mut rng = Rng::fork(seed, 0x5eed_0000 + node);
        // Base levels are a fixed ladder (50..450), the same for every
        // seed: what a sketched bucket costs in time and bytes depends
        // on the level its metric sits at, so levels drawn (or even just
        // ordered) by the seed made some seeds' inputs 15 % dearer than
        // others'. The seed drives the walk around the levels.
        let mut base: Vec<f64> = (0..metrics)
            .map(|m| 50.0 + 400.0 * m as f64 / metrics as f64)
            .collect();
        base[0] = POWER_NOMINAL;
        let mut level = base.clone();
        let rows = (0..rows)
            .map(|_| {
                for (m, v) in level.iter_mut().enumerate() {
                    let step = (rng.below(5) as f64 - 2.0) * 0.25;
                    // Pull back toward the base so the walk stays bounded.
                    *v = (*v + step).clamp(base[m] - 8.0, base[m] + 8.0);
                }
                level.clone()
            })
            .collect();
        SweepPool { rows }
    }

    /// Fill `sweep` (one `(id, value)` per metric, ids already set) with
    /// the values of sweep `index`; `probe` gets `index` itself and
    /// `power_w` the fault level while `fault` is set.
    pub fn fill(&self, index: u64, fault: bool, sweep: &mut [(MetricId, f64)]) {
        let row = &self.rows[(index % self.rows.len() as u64) as usize];
        for (slot, v) in sweep.iter_mut().zip(row) {
            slot.1 = *v;
        }
        if fault {
            sweep[0].1 = POWER_FAULT;
        }
        if sweep.len() > 1 {
            sweep[1].1 = index as f64;
        }
    }
}

/// Flights (0-based, ascending) at which an injected `power_w` fault
/// starts: one every `every` flights on average, jittered by up to a
/// fifth of that either way, never within `every / 2` of the end.
pub fn breach_schedule(seed: u64, flights: u64, every: u64) -> Vec<u64> {
    let mut rng = Rng::fork(seed, 0xb4ea_c400);
    let jitter = (every / 5).max(1);
    let mut out = Vec::new();
    let mut at = every / 2;
    while at + every / 2 < flights {
        out.push(at + rng.below(2 * jitter + 1) - jitter);
        at += every;
    }
    out
}

/// The query classes of `serve_under_ingest`, with their share of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueryClass {
    /// Covered trailing-90 s mean, unaligned, over raw sealed chunks.
    NarrowRaw,
    /// Preload-wide merged p99 over sketched rollup buckets.
    WideSketch,
    /// Per-node ranking over an hour.
    TopNodes,
    /// Newest sweep index of the live node.
    LiveProbe,
    /// Fleet health.
    Health,
    /// Axis discovery; reported together with `Health`.
    Metrics,
}

impl QueryClass {
    /// The classes metrics are reported for.
    pub const REPORTED: [QueryClass; 5] = [
        QueryClass::NarrowRaw,
        QueryClass::WideSketch,
        QueryClass::TopNodes,
        QueryClass::LiveProbe,
        QueryClass::Health,
    ];

    /// The class a query's readings are reported under (`Metrics` goes
    /// with `Health`).
    pub fn reported_as(self) -> QueryClass {
        match self {
            QueryClass::Metrics => QueryClass::Health,
            other => other,
        }
    }

    /// `query.ms_p50.<class>`.
    pub fn p50_metric(self) -> &'static str {
        match self.reported_as() {
            QueryClass::NarrowRaw => "query.ms_p50.narrow_raw",
            QueryClass::WideSketch => "query.ms_p50.wide_sketch",
            QueryClass::TopNodes => "query.ms_p50.top_nodes",
            QueryClass::LiveProbe => "query.ms_p50.live_probe",
            _ => "query.ms_p50.health",
        }
    }

    /// `query.execute_ns.<class>`.
    pub fn execute_metric(self) -> &'static str {
        match self.reported_as() {
            QueryClass::NarrowRaw => "query.execute_ns.narrow_raw",
            QueryClass::WideSketch => "query.execute_ns.wide_sketch",
            QueryClass::TopNodes => "query.execute_ns.top_nodes",
            QueryClass::LiveProbe => "query.execute_ns.live_probe",
            _ => "query.execute_ns.health",
        }
    }
}

/// `n` queries in the shares 40/30/15/10/5 % (the last split evenly
/// between `health` and `metrics`), in a seeded order, each with a random
/// word the caller maps to an axis and an offset. The shares are **exact**,
/// not drawn per query: the classes cost from a microsecond to a tenth of
/// a millisecond, so the mix's median latency sits between two classes and
/// would move with every draw's rounding.
pub fn query_mix(seed: u64, n: usize) -> Vec<(QueryClass, u64)> {
    let mut rng = Rng::fork(seed, 0x9e4f_0001);
    let mut mix: Vec<(QueryClass, u64)> = (0..n)
        .map(|i| {
            let class = match (i * 200 / n.max(1)) as u64 {
                0..=79 => QueryClass::NarrowRaw,
                80..=139 => QueryClass::WideSketch,
                140..=169 => QueryClass::TopNodes,
                170..=189 => QueryClass::LiveProbe,
                190..=194 => QueryClass::Health,
                _ => QueryClass::Metrics,
            };
            (class, rng.next_u64())
        })
        .collect();
    for i in (1..n).rev() {
        mix.swap(i, rng.below(i as u64 + 1) as usize);
    }
    mix
}

/// Due times (ns from the start) of `n` arrivals at `rate_per_s` on
/// average with exponential gaps: independent users, not a metronome. A
/// fixed period would lock the query loop's phase to the sweep loop's and
/// make their collisions a matter of thread start-up luck.
pub fn poisson_arrivals(seed: u64, n: usize, rate_per_s: f64) -> Vec<u64> {
    let mut rng = Rng::fork(seed, 0xa441_7a15);
    let mean_ns = 1e9 / rate_per_s;
    let mut at = 0.0;
    (0..n)
        .map(|_| {
            // Uniform in (0, 1]: the logarithm stays finite.
            let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            at += -u.ln() * mean_ns;
            at as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let ids: Vec<(MetricId, f64)> = (0..8).map(|m| (MetricId(m), 0.0)).collect();
        let render = |seed: u64| {
            let pool = SweepPool::new(seed, 3, 8, 64);
            let mut sweep = ids.clone();
            let mut all = Vec::new();
            for i in 0..200 {
                pool.fill(i, i == 7, &mut sweep);
                all.extend(sweep.iter().map(|s| s.1.to_bits()));
            }
            (all, breach_schedule(seed, 4000, 50), query_mix(seed, 500))
        };
        assert_eq!(render(11), render(11));
        let (a, b) = (render(11), render(12));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
    }

    #[test]
    fn fill_plants_probe_and_fault() {
        let pool = SweepPool::new(1, 0, 4, 16);
        let mut sweep: Vec<(MetricId, f64)> = (0..4).map(|m| (MetricId(m), 0.0)).collect();
        pool.fill(41, false, &mut sweep);
        assert_eq!(sweep[1].1, 41.0);
        assert!((sweep[0].1 - POWER_NOMINAL).abs() <= 8.0);
        pool.fill(42, true, &mut sweep);
        assert_eq!(sweep[0].1, POWER_FAULT);
    }

    #[test]
    fn breach_schedule_is_spaced_and_inside_the_run() {
        let s = breach_schedule(5, 4000, 50);
        assert!(s.len() >= 70, "{}", s.len());
        assert!(s.windows(2).all(|w| w[1] >= w[0] + 30));
        assert!(*s.last().unwrap() + 20 < 4000);
    }

    #[test]
    fn poisson_arrivals_keep_the_rate_and_repeat_for_a_seed() {
        let a = poisson_arrivals(4, 20_000, 500.0);
        assert_eq!(a, poisson_arrivals(4, 20_000, 500.0));
        assert_ne!(a, poisson_arrivals(5, 20_000, 500.0));
        assert!(a.windows(2).all(|w| w[1] >= w[0]));
        // 20 000 arrivals at 500/s take 40 s, give or take a percent or two.
        let span_s = *a.last().unwrap() as f64 / 1e9;
        assert!((span_s - 40.0).abs() < 1.5, "{span_s}");
    }

    #[test]
    fn query_mix_matches_the_stated_shares() {
        let mix = query_mix(9, 20_000);
        let share =
            |c: QueryClass| mix.iter().filter(|(k, _)| *k == c).count() as f64 / mix.len() as f64;
        assert_eq!(share(QueryClass::NarrowRaw), 0.40);
        assert_eq!(share(QueryClass::WideSketch), 0.30);
        assert_eq!(share(QueryClass::TopNodes), 0.15);
        assert_eq!(share(QueryClass::LiveProbe), 0.10);
        assert_eq!(share(QueryClass::Health) + share(QueryClass::Metrics), 0.05);
        // Shuffled, not sorted by class.
        assert!(mix[..200].iter().any(|(c, _)| *c != QueryClass::NarrowRaw));
    }
}
