//! The self-telemetry registry and its instruments.
//!
//! One [`ObsRegistry`] holds every instrument a pipeline registered:
//! counters, gauges, and latency recorders. Components
//! never hold the registry directly — they hold an [`Obs`] handle
//! (cheaply cloneable, possibly disabled) and pre-resolve instruments
//! once, off the hot path. A disabled handle resolves inert
//! instruments: recording through them is one predictable branch and
//! **zero** registry mutations (pinned by tests and the
//! `tsdb_selfobs` bench gate).

use crate::span::{SlowLog, SlowOp, SpanGuard};
use moda_telemetry::QuantileSketch;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

/// Lock `m`, poisoned or not: a panic under one of this crate's locks
/// reaches whoever joins that thread anyway, and must not also take
/// down every other thread that records a span.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How many raw span/record durations a [`LatencyRecorder`] buffers
/// between scrapes. Overflow is counted ([`LatencySnapshot::dropped`]),
/// never reallocated — the recorder's footprint is bounded no matter
/// how far behind the scrape falls.
pub const PENDING_CAPACITY: usize = 4096;

/// One latency instrument's shared cell.
#[derive(Debug)]
pub(crate) struct LatencyCell {
    pub(crate) name: String,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    dropped: AtomicU64,
    state: Mutex<LatencyState>,
}

#[derive(Debug)]
struct LatencyState {
    /// Raw durations since the last scrape, ns, bounded.
    pending: Vec<u64>,
    /// Lifetime mergeable quantile sketch over every recorded duration.
    sketch: QuantileSketch,
}

impl LatencyCell {
    fn new(name: &str) -> Self {
        LatencyCell {
            name: name.to_string(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            state: Mutex::new(LatencyState {
                pending: Vec::with_capacity(64),
                sketch: QuantileSketch::new(),
            }),
        }
    }

    pub(crate) fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        let mut state = lock(&self.state);
        if state.pending.len() < PENDING_CAPACITY {
            state.pending.push(ns);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        state.sketch.fold(ns as f64);
    }

    pub(crate) fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Take the pending raw durations (the scrape's payload).
    pub(crate) fn take_pending(&self) -> Vec<u64> {
        std::mem::take(&mut lock(&self.state).pending)
    }

    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        let state = lock(&self.state);
        if state.sketch.is_empty() {
            None
        } else {
            Some(state.sketch.quantile(q))
        }
    }
}

/// Point-in-time atomic counters of one latency instrument.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Durations recorded, lifetime.
    pub count: u64,
    /// Sum of recorded durations, ns.
    pub sum_ns: u64,
    /// Longest recorded duration, ns.
    pub max_ns: u64,
    /// Raw durations lost to the bounded pending buffer (the scrape
    /// fell more than [`PENDING_CAPACITY`] records behind). Aggregate
    /// stats and the lifetime sketch still cover them.
    pub dropped: u64,
}

/// One registered instrument.
#[derive(Clone)]
pub(crate) enum Instrument {
    Counter(Arc<AtomicU64>),
    /// f64 stored as raw bits.
    Gauge(Arc<AtomicU64>),
    Latency(Arc<LatencyCell>),
}

impl std::fmt::Debug for Instrument {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Instrument::Counter(_) => f.write_str("Counter"),
            Instrument::Gauge(_) => f.write_str("Gauge"),
            Instrument::Latency(_) => f.write_str("Latency"),
        }
    }
}

#[derive(Debug, Default)]
struct Instruments {
    by_name: HashMap<String, usize>,
    /// Registration order — the scrape walks this, so scrape output is
    /// deterministic for a deterministic registration order.
    entries: Vec<(String, Instrument)>,
}

/// The self-telemetry registry: every instrument of one pipeline,
/// behind one [`Obs`] handle. See the crate docs for the role it plays;
/// the scrape half lives in [`crate::scrape`].
#[derive(Debug)]
pub struct ObsRegistry {
    instruments: RwLock<Instruments>,
    pub(crate) slow: Mutex<SlowLog>,
    /// Cheap pre-filter for the slow-op log: the smallest duration in
    /// the full top-k set (0 while not full). Spans at or below it skip
    /// the log mutex entirely.
    pub(crate) slow_floor_ns: AtomicU64,
    pub(crate) span_seq: AtomicU64,
}

impl ObsRegistry {
    fn new() -> Self {
        ObsRegistry {
            instruments: RwLock::new(Instruments::default()),
            slow: Mutex::new(SlowLog::new()),
            slow_floor_ns: AtomicU64::new(0),
            span_seq: AtomicU64::new(0),
        }
    }

    /// Get-or-create by name; panics if the name is already registered
    /// as a different instrument kind (a programming error: instrument
    /// names are a per-pipeline taxonomy, see docs/OBSERVABILITY.md).
    fn resolve(&self, name: &str, make: impl FnOnce(&str) -> Instrument) -> Instrument {
        if let Some(inst) = self.lookup(name) {
            return inst;
        }
        let mut reg = self
            .instruments
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(&i) = reg.by_name.get(name) {
            return reg.entries[i].1.clone();
        }
        let inst = make(name);
        let idx = reg.entries.len();
        reg.by_name.insert(name.to_string(), idx);
        reg.entries.push((name.to_string(), inst.clone()));
        inst
    }

    fn instruments(&self) -> RwLockReadGuard<'_, Instruments> {
        self.instruments
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn lookup(&self, name: &str) -> Option<Instrument> {
        let reg = self.instruments();
        reg.by_name.get(name).map(|&i| reg.entries[i].1.clone())
    }

    /// Snapshot of `(name, instrument)` pairs in registration order.
    pub(crate) fn entries(&self) -> Vec<(String, Instrument)> {
        self.instruments().entries.clone()
    }
}

/// The handle components hold: either a live registry or **disabled**
/// (the default), in which case every resolved instrument is inert and
/// every record call is a single branch. Cloning shares the registry.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsRegistry>>,
}

impl Obs {
    /// A live handle over a fresh registry.
    pub fn enabled() -> Self {
        Obs {
            inner: Some(Arc::new(ObsRegistry::new())),
        }
    }

    /// The inert handle: all instruments resolved from it are no-ops.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The registry behind an enabled handle.
    pub fn registry(&self) -> Option<&ObsRegistry> {
        self.inner.as_deref()
    }

    /// Whether `other` records where this handle does: the same
    /// registry, or both disabled. What a holder of pre-resolved
    /// instruments checks to learn they are still the right ones.
    pub fn same_registry(&self, other: &Obs) -> bool {
        match (&self.inner, &other.inner) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// Resolve (get-or-create) a monotonic counter.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|reg| {
            match reg.resolve(name, |_| Instrument::Counter(Arc::new(AtomicU64::new(0)))) {
                Instrument::Counter(c) => c,
                other => panic!("obs instrument {name:?} already registered as {other:?}"),
            }
        }))
    }

    /// Resolve (get-or-create) a last-value gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|reg| {
            match reg.resolve(name, |_| {
                Instrument::Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
            }) {
                Instrument::Gauge(g) => g,
                other => panic!("obs instrument {name:?} already registered as {other:?}"),
            }
        }))
    }

    /// Resolve (get-or-create) a latency recorder. By convention the
    /// name ends in `_ns` — scraped samples are raw nanoseconds.
    pub fn latency(&self, name: &str) -> LatencyRecorder {
        match &self.inner {
            None => LatencyRecorder(None),
            Some(reg) => {
                let cell = match reg
                    .resolve(name, |n| Instrument::Latency(Arc::new(LatencyCell::new(n))))
                {
                    Instrument::Latency(c) => c,
                    other => panic!("obs instrument {name:?} already registered as {other:?}"),
                };
                LatencyRecorder(Some((cell, Arc::clone(reg))))
            }
        }
    }

    /// Current value of a counter, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.inner.as_ref()?.lookup(name)? {
            Instrument::Counter(c) => Some(c.load(Ordering::Relaxed)),
            _ => None,
        }
    }

    /// Atomic snapshot of a latency recorder, if registered.
    pub fn latency_snapshot(&self, name: &str) -> Option<LatencySnapshot> {
        match self.inner.as_ref()?.lookup(name)? {
            Instrument::Latency(c) => Some(c.snapshot()),
            _ => None,
        }
    }

    /// The `k` slowest completed spans, slowest first (cloned; the log
    /// keeps its contents — use [`Obs::drain_slow_ops`] to consume).
    pub fn slow_ops(&self, k: usize) -> Vec<SlowOp> {
        match &self.inner {
            None => Vec::new(),
            Some(reg) => lock(&reg.slow).top(k),
        }
    }

    /// Drain the slow-op log (postmortem hand-off), slowest first.
    pub fn drain_slow_ops(&self) -> Vec<SlowOp> {
        match &self.inner {
            None => Vec::new(),
            Some(reg) => {
                let drained = lock(&reg.slow).drain();
                reg.slow_floor_ns.store(0, Ordering::Relaxed);
                drained
            }
        }
    }
}

/// Pre-resolved monotonic counter; inert when resolved from a disabled
/// [`Obs`].
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Increment by `n`. One branch + one relaxed add when enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when inert).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Pre-resolved last-value gauge; inert when resolved from a disabled
/// [`Obs`]. Stores an `f64` as raw bits.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Raise the value to at least `v` (high-water gauges). Valid for
    /// non-negative values, whose IEEE-754 bit patterns order like
    /// integers.
    #[inline]
    pub fn set_max(&self, v: f64) {
        debug_assert!(v >= 0.0, "set_max is defined for non-negative gauges");
        if let Some(g) = &self.0 {
            g.fetch_max(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when inert).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

/// Pre-resolved latency instrument: record raw durations or open RAII
/// [`SpanGuard`]s against it. Inert when resolved from a disabled
/// [`Obs`] — [`LatencyRecorder::start`] then costs one branch and
/// constructs no timestamp.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder(pub(crate) Option<(Arc<LatencyCell>, Arc<ObsRegistry>)>);

impl LatencyRecorder {
    /// Record one duration directly (no span, no slow-op entry).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if let Some((cell, _)) = &self.0 {
            cell.record(ns);
        }
    }

    /// Open an RAII span: the drop records the elapsed time and offers
    /// it to the slow-op log with the per-thread nesting depth.
    #[inline]
    pub fn start(&self) -> SpanGuard {
        SpanGuard::open(self)
    }

    /// Atomic snapshot of the aggregate counters.
    pub fn snapshot(&self) -> LatencySnapshot {
        self.0
            .as_ref()
            .map_or(LatencySnapshot::default(), |(cell, _)| cell.snapshot())
    }

    /// Quantile over the lifetime sketch (1 % relative error), `None`
    /// when inert or nothing was recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.0.as_ref().and_then(|(cell, _)| cell.quantile(q))
    }
}
