//! [`ReplayStore`]: the downstream stand-in the export≡replay property
//! tests use as their reference.

use crate::export::{ExportBatch, ExportRecord};
use crate::metric::{MetricId, MetricMeta};
use crate::rollup::RollupBucket;
use crate::sketch::QuantileSketch;
use crate::tiers::WireTiers;
use moda_sim::{SimDuration, SimTime};
use std::collections::HashMap;

/// A downstream Knowledge-store stand-in: applies export batches and
/// rebuilds the registry, raw samples, sealed buckets, and bucket
/// sketches. The round trip export→replay is what the property tests
/// pin: replayed state equals the store's exported state exactly
/// (sketches included — entry counts are exact). Bucket and sketch
/// records decode through the shared [`WireTiers`] ingest path — the
/// same one the fleet aggregation tier (`moda-fleet`) consumes the wire
/// with — so the replayed pyramids are planner-ready wire-fed
/// [`RollupSet`](crate::RollupSet)s, not a private map.
#[derive(Debug, Default)]
pub struct ReplayStore {
    metas: HashMap<u32, MetricMeta>,
    samples: HashMap<u32, Vec<(SimTime, f64)>>,
    tiers: WireTiers,
    /// Reused decode scratch for compressed-chunk records.
    scratch_ts: Vec<u64>,
    scratch_vals: Vec<f64>,
    /// Chunk records dropped because their payload failed to decode.
    corrupt_chunks: u64,
}

impl ReplayStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply every record of one batch.
    pub fn apply(&mut self, batch: &ExportBatch) {
        for r in &batch.records {
            self.apply_record(r);
        }
    }

    /// Apply one record.
    pub fn apply_record(&mut self, r: &ExportRecord) {
        if self.tiers.apply_record(r) {
            return;
        }
        match r {
            ExportRecord::Meta { id, meta } => {
                self.metas.insert(id.0, meta.clone());
            }
            ExportRecord::Sample { id, t, value } => {
                self.samples.entry(id.0).or_default().push((*t, *value));
            }
            ExportRecord::Chunk {
                id,
                count,
                first_t,
                last_t,
                bytes,
            } => {
                // Decode on absorb: a chunk is `count` sample records in
                // one compressed payload, and replays to exactly what
                // the per-sample stream would have produced. A payload
                // that does not end where its header says is corrupt.
                self.scratch_ts.clear();
                self.scratch_vals.clear();
                let decoded = crate::chunk::decode_exact(
                    first_t.0,
                    *count,
                    bytes,
                    &mut self.scratch_ts,
                    &mut self.scratch_vals,
                );
                match decoded {
                    Ok(()) if self.scratch_ts.last() == Some(&last_t.0) => {
                        let out = self.samples.entry(id.0).or_default();
                        out.reserve(self.scratch_ts.len());
                        for (&t, &v) in self.scratch_ts.iter().zip(&self.scratch_vals) {
                            out.push((SimTime(t), v));
                        }
                    }
                    _ => self.corrupt_chunks += 1,
                }
            }
            ExportRecord::Bucket { .. } | ExportRecord::Sketch { .. } => unreachable!(),
        }
    }

    /// Replayed metadata of a metric.
    pub fn meta(&self, id: MetricId) -> Option<&MetricMeta> {
        self.metas.get(&id.0)
    }

    /// Look up a replayed metric id by name.
    pub fn lookup(&self, name: &str) -> Option<MetricId> {
        self.metas
            .iter()
            .find(|(_, m)| m.name == name)
            .map(|(&id, _)| MetricId(id))
    }

    /// Number of replayed metrics.
    pub fn cardinality(&self) -> usize {
        self.metas.len()
    }

    /// Replayed raw samples of a metric, in stream (= time) order.
    pub fn samples(&self, id: MetricId) -> &[(SimTime, f64)] {
        self.samples.get(&id.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Replayed sealed buckets of one `(metric, resolution)` tier,
    /// ordered by slot start.
    pub fn buckets(&self, id: MetricId, res: SimDuration) -> impl Iterator<Item = &RollupBucket> {
        self.tiers.buckets(id, res)
    }

    /// Merge every replayed sketch of one `(metric, resolution)` tier —
    /// the fleet/downstream percentile shape. Empty sketch when the
    /// tier carried no sketch columns.
    pub fn merged_sketch(&self, id: MetricId, res: SimDuration) -> QuantileSketch {
        self.tiers.merged_sketch(id, res)
    }

    /// The replayed wire-fed bucket tiers (planner-ready pyramids).
    pub fn tiers(&self) -> &WireTiers {
        &self.tiers
    }

    /// Compressed-chunk records dropped as corrupt: the payload failed
    /// to decode (truncated or time-disordered bitstream, zero samples)
    /// or ended elsewhere than the header's `last_t`.
    pub fn corrupt_chunks(&self) -> u64 {
        self.corrupt_chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{Exporter, MemorySink};
    use crate::metric::SourceDomain;
    use crate::rollup::{RollupConfig, RES_1M};
    use crate::tsdb::Tsdb;

    #[test]
    fn replay_tolerates_out_of_order_records_within_a_bucket() {
        let mut replay = ReplayStore::new();
        let (id, res, start) = (MetricId(0), SimDuration::from_secs(60), SimTime::ZERO);
        // Sketch columns arrive before their bucket's scalar record.
        replay.apply_record(&ExportRecord::Sketch {
            id,
            res,
            start,
            entry: crate::sketch::SketchEntry {
                sign: 1,
                key: 100,
                count: 3,
            },
        });
        replay.apply_record(&ExportRecord::Bucket {
            id,
            res,
            start,
            count: 3,
            sum: 21.0,
            min: 6.0,
            max: 8.0,
            last: 7.0,
        });
        let b: Vec<_> = replay.buckets(id, res).collect();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].count, 3);
        let sk = b[0].sketch.as_ref().expect("late Bucket keeps the sketch");
        assert_eq!(sk.count(), 3);
        assert_eq!(replay.merged_sketch(id, res).count(), 3);
    }

    #[test]
    fn merged_replay_sketch_matches_store_percentile_within_bound() {
        let mut db = Tsdb::with_retention(1 << 14);
        let id = db.register(MetricMeta::gauge("m", "u", SourceDomain::Hardware));
        db.enable_rollups(id, &RollupConfig::standard().with_sketches());
        for s in 0..7200u64 {
            db.insert(id, SimTime::from_secs(s), ((s * 7919) % 997) as f64 + 1.0);
        }
        let mut sink = MemorySink::new();
        Exporter::new().drain(&db, &mut sink).unwrap();
        let mut replay = ReplayStore::new();
        for b in &sink.batches {
            replay.apply(b);
        }
        let merged = replay.merged_sketch(id, RES_1M);
        // Exact reference over the same sealed span (first 119 minutes).
        let view = db
            .series(id)
            .range_view(SimTime::ZERO, SimTime::from_secs(119 * 60));
        assert_eq!(merged.count(), view.len() as u64);
        for q in [0.1, 0.5, 0.99] {
            let got = merged.quantile(q);
            let want = view.aggregate(crate::window::WindowAgg::Percentile(q));
            assert!(
                (got - want).abs() <= 0.0101 * want.abs() + 1.0,
                "q={q}: {got} vs {want}"
            );
        }
    }
}
