//! The fleet's half of the live path allocates nothing: after warm-up,
//! a received 64-sample `BATCH` payload, its values coded as deltas the
//! way a 1.4 sender codes them, goes through validate
//! (`BatchView::parse`) → check (against the stream's value state) →
//! log (the bytes it arrived in) → apply (off the same bytes, the state
//! advancing) → flush without a single allocation — no owned record,
//! no re-encoded log entry, no per-frame scratch. Its own test binary,
//! because the counting `#[global_allocator]` is process-wide.

use moda_fleet::{DurabilityConfig, DurableFleet};
use moda_sim::SimTime;
use moda_telemetry::export::MemorySink;
use moda_telemetry::wire::{encode_batch_with, ValueState};
use moda_telemetry::{Exporter, MetricId, MetricMeta, SourceDomain, Tsdb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting calls per thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell<u64>` with no destructor, so
// touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `dealloc`, plus the caller's `new_size` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_sweep_batch_is_validated_logged_and_applied_without_allocating() {
    const METRICS: u32 = 64;
    const SWEEPS: u64 = 40;
    // The sender's side, staged up front: one wire payload per sweep,
    // the first carrying the registry.
    let mut db = Tsdb::with_retention(1024);
    for m in 0..METRICS {
        db.register(MetricMeta::gauge(
            format!("node.0.m{m}"),
            "u",
            SourceDomain::Hardware,
        ));
    }
    let mut exporter = Exporter::new();
    let mut sink = MemorySink::new();
    for i in 0..SWEEPS {
        for m in 0..METRICS {
            db.insert(
                MetricId(m),
                SimTime(1_000 + 100 * i),
                100.0 + (u64::from(m) * 7 + i) as f64 * 0.25,
            );
        }
        exporter.drain(&db, &mut sink).unwrap();
    }
    let mut sender = ValueState::new();
    let payloads: Vec<Vec<u8>> = sink
        .batches
        .iter()
        .map(|batch| {
            let mut wire = Vec::new();
            encode_batch_with(batch, &mut sender, &mut wire);
            wire
        })
        .collect();
    assert_eq!(payloads.len() as u64, SWEEPS, "one batch per sweep");

    let dir = std::env::temp_dir().join(format!("moda_fleet_ingest_alloc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
    let node = fleet.add_node("node00").unwrap();

    // Warm-up: the metas register, the rings and the log buffer reach
    // their steady size. No sweep below reaches the seal threshold.
    let (warm, timed) = payloads.split_at(8);
    let mut burst = fleet.burst();
    for payload in warm {
        burst.batch(node, payload).unwrap();
    }
    burst.commit().unwrap();

    // Lone frames: a burst of one each, one flush each.
    let (lone, grouped) = timed.split_at(16);
    for (i, payload) in lone.iter().enumerate() {
        let before = ALLOCS.with(Cell::get);
        let mut burst = fleet.burst();
        let report = burst.batch(node, payload).unwrap();
        burst.commit().unwrap();
        let allocs = ALLOCS.with(Cell::get) - before;
        assert!(report.applied);
        assert_eq!(report.records, u64::from(METRICS));
        assert_eq!(allocs, 0, "lone batch {i} allocated {allocs} times");
    }
    // And one burst of the rest: one flush for all of them.
    let before = ALLOCS.with(Cell::get);
    let mut burst = fleet.burst();
    for payload in grouped {
        burst.batch(node, payload).unwrap();
    }
    burst.commit().unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(
        allocs,
        0,
        "a burst of {} allocated {allocs} times",
        grouped.len()
    );

    let counters = fleet.aggregator().counters(node);
    assert_eq!(counters.batches, SWEEPS);
    assert_eq!(counters.samples, SWEEPS * u64::from(METRICS));
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
}
