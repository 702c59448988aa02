//! RAII spans and the bounded slow-op log.
//!
//! A span is opened against a pre-resolved
//! [`LatencyRecorder`] and records on
//! drop: elapsed nanoseconds into the recorder (atomics + pending
//! buffer + lifetime sketch) and, if slow enough, an entry in the
//! registry's top-k [`SlowOp`] log. Nesting depth is tracked with a
//! per-thread counter so a postmortem can tell an outer
//! `export.drain` span from the `chunk.encode` spans it wraps.

use crate::registry::{lock, LatencyCell, LatencyRecorder, ObsRegistry};
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Capacity of the slow-op log: the top-k slowest completed spans kept
/// for postmortems (drainable via `fleet_service selfstat`).
pub const SLOW_OP_CAPACITY: usize = 64;

thread_local! {
    /// Open-span nesting depth on this thread (0 = top-level).
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// One completed span retained by the slow-op log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowOp {
    /// The latency instrument the span recorded into.
    pub name: String,
    /// Wall-clock duration of the span, ns.
    pub duration_ns: u64,
    /// Per-thread nesting depth at open (0 = top-level).
    pub depth: u32,
    /// Completion sequence number (process-lifetime, per registry) —
    /// orders entries with equal durations and dates them for drains.
    pub seq: u64,
}

/// Bounded keep-the-slowest log. Insertion is O(k) worst case but the
/// common case never gets here: the registry keeps an atomic floor
/// (smallest retained duration once full) that lets completed spans
/// skip the lock entirely.
#[derive(Debug, Default)]
pub(crate) struct SlowLog {
    entries: Vec<SlowOp>,
}

impl SlowLog {
    pub(crate) fn new() -> Self {
        SlowLog {
            entries: Vec::with_capacity(SLOW_OP_CAPACITY),
        }
    }

    /// Offer a completed span; returns the new floor (smallest retained
    /// duration when full, 0 otherwise).
    pub(crate) fn offer(&mut self, op: SlowOp) -> u64 {
        if self.entries.len() < SLOW_OP_CAPACITY {
            self.entries.push(op);
        } else {
            let (min_idx, min) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.duration_ns)
                .map(|(i, e)| (i, e.duration_ns))
                .expect("slow log is non-empty at capacity");
            if op.duration_ns > min {
                self.entries[min_idx] = op;
            }
        }
        if self.entries.len() < SLOW_OP_CAPACITY {
            0
        } else {
            self.entries
                .iter()
                .map(|e| e.duration_ns)
                .min()
                .unwrap_or(0)
        }
    }

    /// The `k` slowest entries, slowest first (ties broken newest
    /// first), leaving the log intact.
    pub(crate) fn top(&self, k: usize) -> Vec<SlowOp> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| b.duration_ns.cmp(&a.duration_ns).then(b.seq.cmp(&a.seq)));
        out.truncate(k);
        out
    }

    /// Take everything, slowest first.
    pub(crate) fn drain(&mut self) -> Vec<SlowOp> {
        let mut out = std::mem::take(&mut self.entries);
        out.sort_by(|a, b| b.duration_ns.cmp(&a.duration_ns).then(b.seq.cmp(&a.seq)));
        out
    }
}

/// An open RAII span. Created by [`LatencyRecorder::start`] (or the
/// `span!` macro); the drop records the elapsed time. Inert — a single
/// branch, no clock read — when the recorder came from a disabled
/// [`Obs`](crate::Obs) handle.
#[derive(Debug)]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

#[derive(Debug)]
struct LiveSpan {
    start: Instant,
    depth: u32,
    cell: Arc<LatencyCell>,
    registry: Arc<ObsRegistry>,
}

impl SpanGuard {
    #[inline]
    pub(crate) fn open(recorder: &LatencyRecorder) -> SpanGuard {
        match &recorder.0 {
            None => SpanGuard { live: None },
            Some((cell, registry)) => {
                let depth = DEPTH.with(|d| {
                    let depth = d.get();
                    d.set(depth + 1);
                    depth
                });
                SpanGuard {
                    live: Some(LiveSpan {
                        start: Instant::now(),
                        depth,
                        cell: Arc::clone(cell),
                        registry: Arc::clone(registry),
                    }),
                }
            }
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let ns = live.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        live.cell.record(ns);
        let seq = live.registry.span_seq.fetch_add(1, Ordering::Relaxed);
        // Fast path: once the log is full, spans at or below its floor
        // cannot enter it — skip the mutex.
        let floor = live.registry.slow_floor_ns.load(Ordering::Relaxed);
        if floor > 0 && ns <= floor {
            return;
        }
        let op = SlowOp {
            name: live.cell.name.clone(),
            duration_ns: ns,
            depth: live.depth,
            seq,
        };
        let new_floor = lock(&live.registry.slow).offer(op);
        live.registry
            .slow_floor_ns
            .store(new_floor, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn disabled_spans_are_inert() {
        let obs = Obs::disabled();
        let rec = obs.latency("x_ns");
        {
            let _s = rec.start();
            let _nested = rec.start();
        }
        assert_eq!(rec.snapshot().count, 0);
        assert!(obs.slow_ops(16).is_empty());
    }

    #[test]
    fn spans_record_and_reach_slow_log() {
        let obs = Obs::enabled();
        let rec = obs.latency("stage_ns");
        for _ in 0..5 {
            let _s = rec.start();
        }
        let snap = rec.snapshot();
        assert_eq!(snap.count, 5);
        assert!(
            snap.max_ns >= 1,
            "monotonic clock should tick across a span"
        );
        let ops = obs.slow_ops(16);
        assert_eq!(ops.len(), 5);
        assert!(ops.windows(2).all(|w| w[0].duration_ns >= w[1].duration_ns));
        assert!(ops.iter().all(|o| o.name == "stage_ns" && o.depth == 0));
    }

    #[test]
    fn nesting_depth_is_tracked_per_thread() {
        let obs = Obs::enabled();
        let outer = obs.latency("outer_ns");
        let inner = obs.latency("inner_ns");
        {
            let _o = outer.start();
            let _i = inner.start();
        }
        let ops = obs.drain_slow_ops();
        let inner_op = ops.iter().find(|o| o.name == "inner_ns").unwrap();
        let outer_op = ops.iter().find(|o| o.name == "outer_ns").unwrap();
        assert_eq!(outer_op.depth, 0);
        assert_eq!(inner_op.depth, 1);
        // Depth counter restored: a fresh span is top-level again.
        {
            let _o = outer.start();
        }
        let ops = obs.drain_slow_ops();
        assert_eq!(ops[0].depth, 0);
    }

    #[test]
    fn slow_log_is_bounded_and_keeps_slowest() {
        let obs = Obs::enabled();
        let reg = obs.registry().unwrap();
        let rec = obs.latency("op_ns");
        // Synthetic offers with controlled durations (recording through
        // the cell would use the real clock).
        let cell = rec.0.as_ref().unwrap().0.clone();
        let _ = cell; // keep recorder shape honest
        for i in 0..(SLOW_OP_CAPACITY as u64 + 40) {
            let floor = lock(&reg.slow).offer(SlowOp {
                name: "op_ns".into(),
                duration_ns: i,
                depth: 0,
                seq: i,
            });
            reg.slow_floor_ns
                .store(floor, std::sync::atomic::Ordering::Relaxed);
        }
        let ops = obs.slow_ops(SLOW_OP_CAPACITY + 10);
        assert_eq!(ops.len(), SLOW_OP_CAPACITY);
        // The retained set is exactly the slowest CAPACITY durations.
        assert_eq!(ops[0].duration_ns, SLOW_OP_CAPACITY as u64 + 39);
        assert_eq!(ops.last().unwrap().duration_ns, 40);
        // Floor pre-filter reflects the smallest retained duration.
        assert_eq!(
            reg.slow_floor_ns.load(std::sync::atomic::Ordering::Relaxed),
            40
        );
        let drained = obs.drain_slow_ops();
        assert_eq!(drained.len(), SLOW_OP_CAPACITY);
        assert!(obs.slow_ops(4).is_empty());
        assert_eq!(
            reg.slow_floor_ns.load(std::sync::atomic::Ordering::Relaxed),
            0
        );
    }
}
