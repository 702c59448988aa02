//! A snapshot allocates nothing per ring: after warm-up, `snapshot()`
//! makes the same number of allocations on a fleet of 16 metrics as on
//! one of 128 — each raw ring at retention with its front chunk partly
//! evicted and an unsealed tail, some of them sketched. The raw
//! sections are written straight from the rings (no owned record, no
//! re-compressed chunk, no copied payload; each tail one Gorilla run
//! off its slices, no chunk built) and the tier section codes rings,
//! buckets and sketch entries where they lie; what is left is
//! the cut's and the write's constant share (the next log, the file
//! names). Its own test binary, because the counting
//! `#[global_allocator]` is process-wide.

use moda_fleet::store::DEFAULT_RAW_RETENTION;
use moda_fleet::{DurabilityConfig, DurableFleet};
use moda_sim::SimTime;
use moda_telemetry::export::MemorySink;
use moda_telemetry::{Exporter, MetricMeta, RollupConfig, SourceDomain, Tsdb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

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

/// A durable fleet of one node exporting `metrics` metrics, one in
/// sixteen sketched, each sampled once a second until its fleet ring
/// is at retention and its front chunk is partly evicted.
fn saturated_fleet(metrics: usize) -> (DurableFleet, PathBuf) {
    let mut db = Tsdb::with_retention(1024);
    let ids: Vec<_> = (0..metrics)
        .map(|m| {
            let meta = MetricMeta::gauge(format!("m{m:03}"), "u", SourceDomain::Hardware);
            db.register(meta)
        })
        .collect();
    for id in ids.iter().step_by(16) {
        db.enable_rollups(*id, &RollupConfig::standard().with_sketches());
    }
    let dir = std::env::temp_dir().join(format!(
        "moda_fleet_snapshot_alloc_{}_{metrics}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let no_cadence = DurabilityConfig {
        snapshot_every_batches: u64::MAX,
    };
    let mut fleet = DurableFleet::open(&dir, no_cadence).unwrap();
    let node = fleet.add_node("node00").unwrap();
    let mut exporter = Exporter::new();
    let mut sink = MemorySink::new();
    let seconds = DEFAULT_RAW_RETENTION as u64 + 300;
    for s in 0..seconds {
        for (m, id) in ids.iter().enumerate() {
            let level = (s + m as u64).wrapping_mul(2_654_435_761) >> 8;
            db.insert(
                *id,
                SimTime::from_secs(s),
                180.0 + (level % 8) as f64 * 0.25,
            );
        }
        if s % 60 == 59 || s + 1 == seconds {
            exporter.drain(&db, &mut sink).unwrap();
            for batch in sink.batches.drain(..) {
                fleet.ingest(node, &batch).unwrap();
            }
        }
    }
    let store = fleet.store();
    for m in 0..metrics {
        let raw = store.raw(store.lookup(&format!("node00/m{m:03}")).unwrap());
        assert_eq!(raw.len(), DEFAULT_RAW_RETENTION);
        assert!(raw.sealed_chunks().next().unwrap().skip() > 0);
        assert!(raw.compressed_len() < raw.len(), "an unsealed tail");
    }
    (fleet, dir)
}

/// Allocations one warm synchronous snapshot of `metrics` metrics makes.
fn warm_snapshot_allocs(metrics: usize) -> u64 {
    let (mut fleet, dir) = saturated_fleet(metrics);
    // Warm-up: the image buffer reaches the image's size.
    fleet.snapshot().unwrap();
    let before = ALLOCS.with(Cell::get);
    fleet.snapshot().unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
    allocs
}

#[test]
fn a_warm_snapshot_allocates_nothing_per_ring() {
    let few = warm_snapshot_allocs(16);
    let many = warm_snapshot_allocs(128);
    assert_eq!(
        few, many,
        "a warm snapshot allocated {few} times at 16 metrics and {many} at 128"
    );
}
