//! The sender's half of the live path allocates nothing: after warm-up,
//! a one-sample-per-metric sweep drained into a [`SocketSink`] encodes
//! into a payload buffer recycled off the replay window, and the ack
//! that releases it is read into a buffer the sink keeps — no `Vec`
//! grown per batch, none freed per ack. Its own test binary, because
//! the counting `#[global_allocator]` is process-wide (the listener's
//! threads allocate on their own counters).

use moda_fleet::{
    DurabilityConfig, DurableFleet, FleetListener, Ledger, SocketSink, TransportConfig,
};
use moda_sim::{SimDuration, SimTime};
use moda_telemetry::{Exporter, MetricId, MetricMeta, SourceDomain, Tsdb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

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

const TOKEN: &str = "send-alloc-token";
const METRICS: u32 = 64;

fn node_store() -> Tsdb {
    let mut db = Tsdb::with_retention(1024);
    for m in 0..METRICS {
        db.register(MetricMeta::gauge(
            format!("node.0.m{m}"),
            "u",
            SourceDomain::Hardware,
        ));
    }
    db
}

fn insert_sweep(db: &mut Tsdb, i: u64) {
    for m in 0..METRICS {
        db.insert(
            MetricId(m),
            SimTime(1_000 + 100 * i),
            100.0 + (u64::from(m) * 7 + i) as f64 * 0.25,
        );
    }
}

#[test]
fn warm_write_batch_and_its_ack_allocate_nothing() {
    let dir = std::env::temp_dir().join(format!("moda_fleet_send_alloc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = DurableFleet::open(&dir, DurabilityConfig::default()).unwrap();
    let fleet = Arc::new(Mutex::new(fleet));
    let listener = FleetListener::bind("127.0.0.1:0", Arc::clone(&fleet), TOKEN).unwrap();
    let addr = listener.local_addr().to_string();

    // Window 1: every `write_batch` returns after its own ack, so one
    // drain is exactly one encode → send → ack → release cycle. The
    // default window: acks trail the sends and buffers circulate
    // through the replay window, however far the listener lags.
    for (name, window) in [("lockstep", 1usize), ("windowed", 64)] {
        let cfg = TransportConfig {
            window,
            ..TransportConfig::default()
        };
        let mut sink = SocketSink::connect_with(&addr, name, TOKEN, cfg).unwrap();
        let mut db = node_store();
        let mut exporter = Exporter::new();
        let mut sweeps = 0..;
        let mut sweep = |db: &mut Tsdb, exporter: &mut Exporter, sink: &mut SocketSink| {
            insert_sweep(db, sweeps.next().unwrap());
            exporter.drain(db, sink).unwrap()
        };
        // Warm-up. With the fleet held, so that nothing is acked, a
        // whole window of payload buffers comes into being (none at
        // window 1, where a send waits for its own ack); released, they
        // all land on the spare list. A few more sweeps bring the rest
        // to its steady size. No sweep in this test reaches the seal
        // threshold.
        let stalled = fleet.lock().unwrap();
        for _ in 1..window {
            sweep(&mut db, &mut exporter, &mut sink);
        }
        drop(stalled);
        sink.send_drain(&exporter.totals()).unwrap();
        for _ in 0..8 {
            sweep(&mut db, &mut exporter, &mut sink);
        }

        for i in 0..200 {
            let before = ALLOCS.with(Cell::get);
            let stats = sweep(&mut db, &mut exporter, &mut sink);
            let allocs = ALLOCS.with(Cell::get) - before;
            assert_eq!((stats.batches, stats.samples), (1, u64::from(METRICS)));
            assert!(sink.unacked_len() < window);
            assert_eq!(allocs, 0, "{name}: sweep {i} allocated {allocs} times");
        }
        let before = ALLOCS.with(Cell::get);
        sink.send_drain(&exporter.totals()).unwrap();
        sink.wait_idle().unwrap();
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(sink.unacked_len(), 0);
        assert_eq!(
            allocs, 0,
            "{name}: the drain report allocated {allocs} times"
        );
        assert_eq!((sink.reconnects(), sink.resent_batches()), (0, 0));
        let fleet = fleet.lock().unwrap();
        let node = fleet.aggregator().find_node(name).unwrap();
        // Reported twice, counted once; and the two ends balance.
        assert_eq!(
            fleet.aggregator().drain_stats(node),
            exporter.totals().counts()
        );
        let health = fleet.aggregator().health(SimTime::ZERO, SimDuration::ZERO);
        assert_eq!(
            health.nodes[node.index()].ledger(),
            Ledger::default(),
            "{name}"
        );
    }

    drop(listener.shutdown());
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
}
