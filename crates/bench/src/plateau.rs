//! The snapshot plateau: the fleet state the `tsdb_fleet/*_128x4096`
//! rows and the bench gate's image ceiling measure. One node exports
//! 128 metrics, one in sixteen sketched, as once-a-second sweeps of
//! quarter-unit readings that wander over a few levels (≈ 1.7 B a
//! sample sealed, as on the live workloads), drained once a minute,
//! until every fleet ring is at `DEFAULT_RAW_RETENTION` with its front
//! chunk partly evicted and an unsealed tail.

use moda_fleet::store::DEFAULT_RAW_RETENTION;
use moda_fleet::{DurableFleet, NodeId};
use moda_sim::SimTime;
use moda_telemetry::export::{ExportBatch, MemorySink};
use moda_telemetry::{Exporter, MetricId, MetricMeta, RollupConfig, SourceDomain, Tsdb};

/// Metrics the plateau's node exports.
pub const METRICS: usize = 128;

/// The plateau's node: its store, the sweep it inserts each second and
/// the exporter that drains it.
pub struct PlateauNode {
    db: Tsdb,
    sweep: Vec<(MetricId, f64)>,
    exporter: Exporter,
    sink: MemorySink,
    t: u64,
}

impl Default for PlateauNode {
    fn default() -> Self {
        Self::new()
    }
}

impl PlateauNode {
    /// The node before its first second.
    pub fn new() -> Self {
        let mut db = Tsdb::with_retention(4096);
        let ids: Vec<MetricId> = (0..METRICS)
            .map(|i| {
                let name = format!("node{i:04}.metric");
                db.register(MetricMeta::gauge(name, "unit", SourceDomain::Hardware))
            })
            .collect();
        for &id in ids.iter().step_by(METRICS / 8) {
            db.enable_rollups(id, &RollupConfig::standard().with_sketches());
        }
        PlateauNode {
            db,
            sweep: ids.iter().map(|&id| (id, 0.0)).collect(),
            exporter: Exporter::new(),
            sink: MemorySink::new(),
            t: 0,
        }
    }

    /// `seconds` more sweeps, then one drain: the batches it ships.
    pub fn run(&mut self, seconds: u64) -> Vec<ExportBatch> {
        self.sink.batches.clear();
        for _ in 0..seconds {
            for (m, (_, value)) in self.sweep.iter_mut().enumerate() {
                let level = (self.t + m as u64).wrapping_mul(2_654_435_761) >> 8;
                *value = 180.0 + m as f64 + (level % 8) as f64 * 0.25;
            }
            self.db
                .insert_batch(SimTime::from_secs(self.t), &self.sweep);
            self.t += 1;
        }
        self.exporter.drain(&self.db, &mut self.sink).unwrap();
        std::mem::take(&mut self.sink.batches)
    }

    /// Feed `fleets` — each with this node registered as `node` — minute
    /// by minute up to the plateau.
    pub fn fill(&mut self, fleets: &mut [&mut DurableFleet], node: NodeId) {
        for _ in 0..(DEFAULT_RAW_RETENTION as u64 + 512) / 60 {
            for batch in self.run(60) {
                for fleet in fleets.iter_mut() {
                    fleet.ingest(node, &batch).unwrap();
                }
            }
        }
    }
}
