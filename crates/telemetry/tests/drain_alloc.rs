//! The steady-state drain allocates nothing: after warm-up, draining a
//! one-sample-per-metric sweep — the shape a collector produces once a
//! second — reuses the exporter's staging buffer and rollback journal
//! and the sink's wire buffer. So does the read beside it: a trailing
//! window that reaches back across the newest seal decodes into the
//! thread's pooled scratch. Its own test binary, because the counting
//! `#[global_allocator]` is process-wide.

use moda_sim::{SimDuration, SimTime};
use moda_telemetry::export::{ExportBatch, Sink};
use moda_telemetry::wire::encode_batch;
use moda_telemetry::{Exporter, MetricId, MetricMeta, RollupConfig, SourceDomain, Tsdb, WindowAgg};
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

/// What a socket sink does before it writes: encode into a buffer it
/// keeps.
struct EncodeSink {
    wire: Vec<u8>,
    batches: u64,
}

impl Sink for EncodeSink {
    fn write_batch(&mut self, batch: &ExportBatch) -> std::io::Result<()> {
        self.wire.clear();
        encode_batch(batch, &mut self.wire);
        self.batches += 1;
        Ok(())
    }
}

#[test]
fn steady_state_sweep_drain_allocates_nothing() {
    const METRICS: u32 = 64;
    let mut db = Tsdb::with_retention(1024);
    for m in 0..METRICS {
        let id = db.register(MetricMeta::gauge(
            format!("node.0.m{m}"),
            "u",
            SourceDomain::Hardware,
        ));
        // A quarter of the metrics carry a sketched pyramid, as on a
        // real node; no sweep below crosses a bucket boundary.
        if m % 4 == 0 {
            db.enable_rollups(id, &RollupConfig::standard().with_sketches());
        }
    }
    let sweep_at = |i: u64| SimTime(1_000 + 100 * i);
    let insert_sweep = |db: &mut Tsdb, i: u64| {
        for m in 0..METRICS {
            db.insert(
                MetricId(m),
                sweep_at(i),
                100.0 + (m as u64 * 7 + i) as f64 * 0.25,
            );
        }
    };
    let mut exporter = Exporter::new();
    let mut sink = EncodeSink {
        wire: Vec::new(),
        batches: 0,
    };
    // Warm-up: metas ship, buffers grow to their steady size.
    for i in 0..8 {
        insert_sweep(&mut db, i);
        exporter.drain(&db, &mut sink).unwrap();
    }
    for i in 8..40 {
        insert_sweep(&mut db, i);
        let before = ALLOCS.with(Cell::get);
        let stats = exporter.drain(&db, &mut sink).unwrap();
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(
            (stats.batches, stats.samples, stats.buckets, stats.chunks),
            (1, u64::from(METRICS), 0, 0),
            "sweep {i} is one batch of raw samples"
        );
        assert_eq!(allocs, 0, "sweep {i} allocated {allocs} times");
    }
    assert_eq!(sink.batches, 40);
    // A sink failure and the rollback it triggers allocate nothing
    // either: the journal is a reused buffer, not per-cursor clones.
    struct Dead;
    impl Sink for Dead {
        fn write_batch(&mut self, _: &ExportBatch) -> std::io::Result<()> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }
    }
    insert_sweep(&mut db, 40);
    let before = ALLOCS.with(Cell::get);
    let failed = exporter.drain(&db, &mut Dead);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(failed.is_err());
    assert_eq!(allocs, 0, "failed drain allocated {allocs} times");
    // ...and nothing was lost to it.
    let stats = exporter.drain(&db, &mut sink).unwrap();
    assert_eq!(stats.samples, u64::from(METRICS));
}

#[test]
fn warm_window_read_across_the_seal_allocates_nothing() {
    let mut db = Tsdb::with_retention(1024);
    let plain = db.register(MetricMeta::gauge("plain", "u", SourceDomain::Hardware));
    let rolled = db.register(MetricMeta::gauge("rolled", "u", SourceDomain::Hardware));
    db.enable_rollups(rolled, &RollupConfig::standard());
    // One chunk seals at 512; the 60 s window ending at 539 takes its
    // first 32 samples from it and the rest from the tail.
    for s in 0..540u64 {
        for id in [plain, rolled] {
            db.insert(id, SimTime::from_secs(s), 200.0 + (s % 7) as f64);
        }
    }
    let now = SimTime::from_secs(539);
    let window = SimDuration::from_secs(60);
    let read = |db: &Tsdb| {
        let view = db.window_view(plain, now, window);
        assert!(view.ts_slices().iter().all(|seg| !seg.is_empty()));
        assert_eq!(view.len(), 60);
        drop(view);
        for id in [plain, rolled] {
            let mean = db.window_agg(id, now, window, WindowAgg::Mean).unwrap();
            assert!((200.0..=206.0).contains(&mean));
        }
    };
    // Warm-up: the scratch pool gets its buffer.
    read(&db);
    let before = ALLOCS.with(Cell::get);
    for _ in 0..16 {
        read(&db);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(allocs, 0, "warm window reads allocated {allocs} times");
}
