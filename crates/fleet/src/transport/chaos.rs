//! Fault injection between an exporter and its sink: [`ChaosSink`].

use moda_telemetry::export::{ExportBatch, ExportRecord, Sink};
use std::io;

/// Fault-injection probabilities for a [`ChaosSink`]. All default to
/// zero; the seed makes every fault schedule reproducible.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Deterministic RNG seed (runs with equal seeds inject the same
    /// fault sequence).
    pub seed: u64,
    /// Probability a batch is silently discarded after `Ok` — permanent
    /// frame loss the exporter will *not* re-stage, surfacing as a
    /// cursor gap at the aggregator.
    pub drop_prob: f64,
    /// Probability a batch is delivered twice — exercises the
    /// duplicate-batch guard.
    pub dup_prob: f64,
    /// Probability a batch is held back and delivered *after* the next
    /// one — frame delay/reordering; the late frame bounces off the
    /// session cursor (gap, then duplicate).
    pub delay_prob: f64,
    /// Probability one byte of a chunk payload is flipped in flight —
    /// payload corruption below the frame CRC's reach (the CRC covers
    /// the socket hop, not a buggy middlebox re-framing batches).
    pub corrupt_prob: f64,
    /// Probability the write fails with `BrokenPipe` — a mid-frame
    /// disconnect; the exporter rolls back and re-stages the same
    /// records under the same seq, so this is *recoverable* loss.
    pub fail_prob: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            corrupt_prob: 0.0,
            fail_prob: 0.0,
        }
    }
}

/// Faults a [`ChaosSink`] has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Batches delivered unharmed.
    pub passed: u64,
    /// Batches discarded after `Ok` (permanent loss).
    pub dropped: u64,
    /// Batches delivered twice.
    pub duplicated: u64,
    /// Batches delivered out of order.
    pub delayed: u64,
    /// Batches with a flipped payload byte.
    pub corrupted: u64,
    /// Writes failed with `BrokenPipe` (recoverable: exporter rolls
    /// back), including every write while partitioned.
    pub failed: u64,
}

/// A [`Sink`] adapter that injects transport faults between an exporter
/// and the real sink: frame drop, duplication, delay/reorder, payload
/// corruption, write failure, and an explicit partition switch
/// ([`ChaosSink::set_partitioned`]) for link-level node isolation. The
/// chaos scenarios in `moda-hpc`/`moda-usecases` wrap each node's
/// transport in one of these to prove the fleet tier degrades
/// gracefully instead of serving corrupt or stale answers.
#[derive(Debug)]
pub struct ChaosSink<S> {
    inner: S,
    cfg: ChaosConfig,
    rng: u64,
    held: Option<ExportBatch>,
    partitioned: bool,
    stats: ChaosStats,
}

impl<S: Sink> ChaosSink<S> {
    /// Wrap `inner` with the given fault schedule.
    pub fn new(inner: S, cfg: ChaosConfig) -> Self {
        ChaosSink {
            inner,
            rng: cfg.seed.max(1),
            cfg,
            held: None,
            partitioned: false,
            stats: ChaosStats::default(),
        }
    }

    /// Sever (or heal) the link. While partitioned every write fails —
    /// the exporter rolls back its cursors each drain and the node's
    /// data catches up after the heal, exactly like a real network
    /// partition.
    pub fn set_partitioned(&mut self, partitioned: bool) {
        self.partitioned = partitioned;
    }

    /// Whether the link is currently severed.
    pub fn partitioned(&self) -> bool {
        self.partitioned
    }

    /// Faults injected so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped sink, mutably (e.g. to take a `MemorySink`'s
    /// delivered batches).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn next(&mut self) -> u64 {
        // xorshift64 — deterministic, dependency-free.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

impl<S: Sink> Sink for ChaosSink<S> {
    fn write_batch(&mut self, batch: &ExportBatch) -> io::Result<()> {
        if self.partitioned || self.roll(self.cfg.fail_prob) {
            self.stats.failed += 1;
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "chaos: link down",
            ));
        }
        if self.held.is_none() && self.roll(self.cfg.delay_prob) {
            // Hold this frame; it goes out (late) behind the next one.
            self.held = Some(batch.clone());
            self.stats.delayed += 1;
            return Ok(());
        }
        if self.roll(self.cfg.drop_prob) {
            self.stats.dropped += 1;
        } else {
            let out = if self.roll(self.cfg.corrupt_prob) {
                let mut out = batch.clone();
                let mut flipped = false;
                for rec in &mut out.records {
                    if let ExportRecord::Chunk { bytes, .. } = rec {
                        if !bytes.is_empty() {
                            let at = bytes.len() / 2;
                            bytes[at] ^= 0x40;
                            flipped = true;
                            break;
                        }
                    }
                }
                if flipped {
                    self.stats.corrupted += 1;
                }
                std::borrow::Cow::Owned(out)
            } else {
                std::borrow::Cow::Borrowed(batch)
            };
            self.inner.write_batch(&out)?;
            self.stats.passed += 1;
            if self.roll(self.cfg.dup_prob) {
                self.stats.duplicated += 1;
                self.inner.write_batch(&out)?;
            }
        }
        if let Some(late) = self.held.take() {
            // The delayed frame lands after a newer seq: the aggregator
            // sees a gap, then rejects it as a duplicate.
            self.inner.write_batch(&late)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::node_batches;
    use moda_telemetry::export::MemorySink;

    #[test]
    fn chaos_sink_faults_are_deterministic_and_ingest_safe() {
        use crate::aggregator::FleetAggregator;

        let batches = node_batches(2000, 0.0);
        assert!(batches.len() >= 20, "need a real stream to fault");
        let cfg = ChaosConfig {
            seed: 42,
            drop_prob: 0.2,
            dup_prob: 0.2,
            delay_prob: 0.1,
            ..ChaosConfig::default()
        };
        let mut chaos = ChaosSink::new(MemorySink::new(), cfg.clone());
        for b in &batches {
            chaos.write_batch(b).unwrap();
        }
        let stats = chaos.stats();
        assert!(stats.dropped > 0 && stats.duplicated > 0 && stats.delayed > 0);

        // Same seed, same fault schedule.
        let mut chaos2 = ChaosSink::new(MemorySink::new(), cfg);
        for b in &batches {
            chaos2.write_batch(b).unwrap();
        }
        assert_eq!(stats, chaos2.stats());

        // The faulted stream ingests without panic: duplicates and
        // late frames bounce off the cursor, drops surface as gaps.
        let mut agg = FleetAggregator::new();
        let node = agg.add_node("node00");
        for b in &chaos.inner().batches {
            agg.ingest(node, b);
        }
        let c = agg.counters(node);
        assert!(c.duplicate_batches >= stats.duplicated);
        assert!(c.gaps >= 1, "permanent frame loss must be visible");

        // Partition: every write fails until healed (exporter-side
        // rollback path), then traffic flows again.
        chaos.set_partitioned(true);
        assert!(chaos.write_batch(&batches[0]).is_err());
        chaos.set_partitioned(false);
        chaos.write_batch(&batches[0]).unwrap();
    }
}
